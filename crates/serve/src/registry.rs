//! The recording registry: record once, replay fleet-wide.
//!
//! A recording is only valid for the exact `(network, GPU SKU)` pair it
//! was dry-run against (§2.4: subtle SKU differences break replay), so
//! the registry caches signed recordings under that key. On a miss it
//! *records on demand*: it drives a full [`RecordSession`] over the
//! configured network link — the serving system's cold-start cost, which
//! the DES charges to the unlucky first request. Signatures are verified
//! once, on insert; every later fetch hands out the same shared,
//! already-vetted recording. Bounded capacity with LRU eviction models a
//! registry node that cannot hold every model × SKU product.
//!
//! **Sharding.** The registry is split into independent shards addressed
//! by an FNV-1a hash of the `(network, GPU_ID)` key
//! ([`RegistryConfig::with_shards`]; the default of one shard preserves
//! the single-LRU behaviour). Each shard owns its own entry list, LRU
//! clock, stats counters, and record-time accumulator, so a fleet-scale
//! run's hot keys don't contend on one list and per-shard load is
//! observable ([`RecordingRegistry::shard_stats`]). The aggregate
//! counters ([`RecordingRegistry::stats`]) are the sum over shards, and
//! the attestation export is shard-order independent (entries are sorted
//! by key).

use grt_attest::{AttestationExport, ExportEntry, ProvenanceRecord, VerifyError};
use grt_core::session::{RecordError, RecordSession, RecorderMode};
use grt_crypto::Sha256;
use grt_gpu::GpuSku;
use grt_ir::recording::SignedRecording;
use grt_lint::{LintReport, Linter};
use grt_ml::NetworkSpec;
use grt_net::NetConditions;
use grt_replay::client::{recording_trust_root, PROVISIONING_SECRET};
use grt_sim::{FaultPlan, SimTime};
use std::rc::Rc;

/// Registry sizing and cold-start recording parameters.
#[derive(Debug, Clone)]
pub struct RegistryConfig {
    /// Maximum cached recordings across all shards; on overflow a shard
    /// evicts its least-recently-used entry.
    pub capacity: usize,
    /// Link conditions a cold-start record session runs over.
    pub conditions: NetConditions,
    /// Recorder build used for cold starts.
    pub mode: RecorderMode,
    /// Fault schedule injected into every cold-start record tunnel
    /// (windows are relative to each session's own timeline). `None`
    /// records over the shaped-but-fault-free link.
    pub faults: Option<Rc<FaultPlan>>,
    /// Number of independent shards the `(network, GPU_ID)` key space is
    /// hashed over. 1 (the default) is a single global LRU.
    pub shards: usize,
}

impl RegistryConfig {
    /// A registry of `capacity` entries recording over WiFi with the full
    /// GR-T recorder, unsharded.
    pub fn new(capacity: usize) -> Self {
        RegistryConfig {
            capacity,
            conditions: NetConditions::wifi(),
            mode: RecorderMode::OursMDS,
            faults: None,
            shards: 1,
        }
    }

    /// Splits the key space over `shards` independent LRUs. The total
    /// capacity is divided as evenly as possible — the first
    /// `capacity % shards` shards take one extra slot so the per-shard
    /// capacities sum exactly to `capacity` — and each shard keeps at
    /// least one slot.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }
}

/// Counters the registry exposes (all monotonic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Fetches served from cache.
    pub hits: u64,
    /// Fetches that required a cold-start record.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Recordings signature-verified at insert (once per insert, never
    /// per fetch).
    pub verified_inserts: u64,
    /// Recordings statically analyzed at insert (once per insert; the
    /// verdict is cached with the entry).
    pub linted_inserts: u64,
    /// Recordings refused because static analysis found a rule violation.
    pub lint_rejections: u64,
    /// Provenance records built and signed at insert (one per entry).
    pub provenance_records: u64,
    /// Externally shipped recordings refused because their provenance
    /// record was missing, unsigned, or mismatched.
    pub provenance_rejections: u64,
    /// Message retransmissions across all cold-start record tunnels.
    pub record_retries: u64,
    /// Checkpoint-rollback resumes across all cold-start record tunnels
    /// (layer boundaries replayed after a link failure healed).
    pub checkpoint_resumes: u64,
}

impl RegistryStats {
    /// Hit ratio over all fetches (1.0 when nothing was fetched).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Adds `other`'s counters into `self` (for cross-shard aggregation).
    pub fn absorb(&mut self, other: &RegistryStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.verified_inserts += other.verified_inserts;
        self.linted_inserts += other.linted_inserts;
        self.lint_rejections += other.lint_rejections;
        self.provenance_records += other.provenance_records;
        self.provenance_rejections += other.provenance_rejections;
        self.record_retries += other.record_retries;
        self.checkpoint_resumes += other.checkpoint_resumes;
    }
}

/// What insert-time vetting produces for one entry, handed out with
/// every fetch of it.
#[derive(Clone)]
struct Vetted {
    weight_slots: usize,
    lint: Rc<LintReport>,
    /// `lint` serialized once: the provenance record's lint digest is
    /// taken over these bytes, and fleet devices chain receipts to them.
    lint_json: Rc<str>,
    provenance: Rc<ProvenanceRecord>,
}

/// Everything a cold-start record run produces for one cache insert: the
/// signed recording, its vetting, and the virtual time the run took.
type ColdRecord = (Rc<SignedRecording>, Vetted, SimTime);

/// What a fetch returned.
#[derive(Debug, Clone)]
pub struct FetchOutcome {
    /// The verified recording (shared; cloning is cheap).
    pub recording: Rc<SignedRecording>,
    /// Number of weight slots the recording stages.
    pub weight_slots: usize,
    /// The cached lint verdict: the full report from the insert-time
    /// static analysis (always `passed()` — failing recordings never
    /// enter the cache).
    pub lint: Rc<LintReport>,
    /// `lint` as JSON, serialized once at insert: the bytes the
    /// provenance record's lint digest covers.
    pub lint_json: Rc<str>,
    /// The signed provenance record built (or accepted) at insert; fleet
    /// devices chain their replay receipts to it.
    pub provenance: Rc<ProvenanceRecord>,
    /// Virtual time the cold-start record run took; `None` on a hit.
    pub cold_start_delay: Option<SimTime>,
}

impl FetchOutcome {
    /// The replay cost budget R9 certified at insert time. Cached entries
    /// always passed the analyzer, so this is `Some` for every fetch; the
    /// scheduler can admission-control replays against it without touching
    /// the recording.
    pub fn certified_budget(&self) -> Option<grt_lint::CertifiedBudget> {
        self.lint.budget
    }
}

#[derive(Clone)]
struct Entry {
    key: (String, u32),
    recording: Rc<SignedRecording>,
    /// Insert-time lint verdict and provenance, handed out with every
    /// fetch.
    vetted: Vetted,
    last_used: u64,
}

impl Vetted {
    fn outcome(
        &self,
        recording: &Rc<SignedRecording>,
        cold_start_delay: Option<SimTime>,
    ) -> FetchOutcome {
        FetchOutcome {
            recording: Rc::clone(recording),
            weight_slots: self.weight_slots,
            lint: Rc::clone(&self.lint),
            lint_json: Rc::clone(&self.lint_json),
            provenance: Rc::clone(&self.provenance),
            cold_start_delay,
        }
    }
}

/// One independent slice of the key space: entries, LRU clock, stats.
#[derive(Clone)]
struct Shard {
    entries: Vec<Entry>,
    capacity: usize,
    tick: u64,
    stats: RegistryStats,
    record_time: SimTime,
}

impl Shard {
    fn new(capacity: usize) -> Self {
        Shard {
            entries: Vec::new(),
            capacity,
            tick: 0,
            stats: RegistryStats::default(),
            record_time: SimTime::ZERO,
        }
    }

    fn insert(&mut self, key: (String, u32), recording: Rc<SignedRecording>, vetted: Vetted) {
        if self.entries.len() >= self.capacity {
            // Evict the shard's least-recently-used entry (deterministic:
            // ticks are unique within a shard).
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("capacity > 0 implies a resident entry");
            self.entries.remove(lru);
            self.stats.evictions += 1;
        }
        self.entries.push(Entry {
            key,
            recording,
            vetted,
            last_used: self.tick,
        });
    }
}

/// The sharded LRU recording cache plus on-demand recorder.
#[derive(Clone)]
pub struct RecordingRegistry {
    cfg: RegistryConfig,
    shards: Vec<Shard>,
}

/// FNV-1a over the `(network, GPU_ID)` key — a stable, dependency-free
/// shard router.
fn shard_hash(name: &str, gpu_id: u32) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in name.as_bytes().iter().chain(gpu_id.to_le_bytes().iter()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl RecordingRegistry {
    /// Creates an empty registry.
    pub fn new(cfg: RegistryConfig) -> Self {
        assert!(cfg.capacity > 0, "registry capacity must be positive");
        let n = cfg.shards.max(1);
        // Distribute the configured capacity exactly: the first
        // `capacity % n` shards take one extra slot, so the per-shard
        // capacities sum to `capacity` (never silently rounded down to
        // `n * floor(capacity / n)`), with every shard keeping at least
        // one slot even when `capacity < n`.
        let base = cfg.capacity / n;
        let rem = cfg.capacity % n;
        let shards = (0..n)
            .map(|i| Shard::new((base + usize::from(i < rem)).max(1)))
            .collect();
        RecordingRegistry { cfg, shards }
    }

    /// Per-shard entry capacities, in shard order. They sum to the
    /// configured capacity whenever `capacity >= shards`.
    pub fn shard_capacities(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.capacity).collect()
    }

    /// Shard index the `(spec, sku)` key routes to.
    pub fn shard_of(&self, spec: &NetworkSpec, sku: &GpuSku) -> usize {
        (shard_hash(spec.name, sku.gpu_id) % self.shards.len() as u64) as usize
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard counter snapshots, in shard order.
    pub fn shard_stats(&self) -> Vec<RegistryStats> {
        self.shards.iter().map(|s| s.stats).collect()
    }

    /// Per-shard resident entry counts, in shard order.
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.entries.len()).collect()
    }

    /// Fetches the recording for `(spec, sku)`, recording it cold first
    /// if absent. The returned `cold_start_delay` is the virtual time the
    /// record run took — the caller charges it to whoever waited.
    pub fn fetch(&mut self, spec: &NetworkSpec, sku: &GpuSku) -> Result<FetchOutcome, RecordError> {
        let si = self.shard_of(spec, sku);
        let shard = &mut self.shards[si];
        shard.tick += 1;
        let key = (spec.name.to_owned(), sku.gpu_id);
        if let Some(e) = shard.entries.iter_mut().find(|e| e.key == key) {
            e.last_used = shard.tick;
            shard.stats.hits += 1;
            return Ok(e.vetted.outcome(&e.recording, None));
        }
        shard.stats.misses += 1;
        let (recording, vetted, delay) = record_cold(
            &self.cfg,
            &mut shard.stats,
            &mut shard.record_time,
            spec,
            sku,
        )?;
        let fetch = vetted.outcome(&recording, Some(delay));
        shard.insert(key, recording, vetted);
        Ok(fetch)
    }

    /// Pre-populates the `(spec, sku)` entry without counting a hit or a
    /// miss (warming a registry ahead of traffic).
    pub fn warm(&mut self, spec: &NetworkSpec, sku: &GpuSku) -> Result<(), RecordError> {
        let si = self.shard_of(spec, sku);
        let shard = &mut self.shards[si];
        shard.tick += 1;
        let key = (spec.name.to_owned(), sku.gpu_id);
        if let Some(e) = shard.entries.iter_mut().find(|e| e.key == key) {
            e.last_used = shard.tick;
            return Ok(());
        }
        let mut warm_stats = shard.stats;
        let (recording, vetted, _) = record_cold(
            &self.cfg,
            &mut warm_stats,
            &mut shard.record_time,
            spec,
            sku,
        )?;
        shard.stats = warm_stats;
        shard.insert(key, recording, vetted);
        Ok(())
    }

    /// Whether `(spec, sku)` is currently cached (does not touch LRU
    /// state or counters).
    pub fn contains(&self, spec: &NetworkSpec, sku: &GpuSku) -> bool {
        self.shards[self.shard_of(spec, sku)]
            .entries
            .iter()
            .any(|e| e.key.0 == spec.name && e.key.1 == sku.gpu_id)
    }

    /// Current number of cached recordings across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.entries.len()).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot, aggregated over all shards.
    pub fn stats(&self) -> RegistryStats {
        let mut total = RegistryStats::default();
        for s in &self.shards {
            total.absorb(&s.stats);
        }
        total
    }

    /// Zeroes the counters and record-time accumulators while keeping the
    /// cached entries — per-pass accounting when a warmed registry is
    /// reused across runs.
    pub fn reset_stats(&mut self) {
        for s in &mut self.shards {
            s.stats = RegistryStats::default();
            s.record_time = SimTime::ZERO;
        }
    }

    /// Total virtual time spent in cold-start record runs.
    pub fn record_time(&self) -> SimTime {
        self.shards
            .iter()
            .fold(SimTime::ZERO, |acc, s| acc + s.record_time)
    }

    /// Inserts an externally produced signed recording (e.g. shipped from
    /// another registry node) under `(spec, sku)`, subject to the same
    /// verify-and-lint-on-insert policy as cold-start recordings — plus
    /// the provenance policy: the shipper must present a signed
    /// [`ProvenanceRecord`] whose recording digest, SKU, and lint digest
    /// all match what this registry recomputes locally. A recording with
    /// missing, unsigned, or mismatched provenance is refused with
    /// [`RecordError::Provenance`].
    pub fn insert_signed(
        &mut self,
        spec: &NetworkSpec,
        sku: &GpuSku,
        recording: SignedRecording,
        provenance: Option<ProvenanceRecord>,
    ) -> Result<(), RecordError> {
        let si = self.shard_of(spec, sku);
        let shard = &mut self.shards[si];
        shard.tick += 1;
        let Some(prov) = provenance else {
            shard.stats.provenance_rejections += 1;
            return Err(provenance_err(VerifyError::MissingProvenance));
        };
        let vetted = vet(&mut shard.stats, spec, sku, &recording)?;
        if let Err(e) = check_shipped_provenance(&prov, spec, sku, &recording, &vetted.lint_json) {
            shard.stats.provenance_rejections += 1;
            return Err(provenance_err(e));
        }
        let key = (spec.name.to_owned(), sku.gpu_id);
        shard.entries.retain(|e| e.key != key);
        let vetted = Vetted {
            provenance: Rc::new(prov),
            ..vetted
        };
        shard.insert(key, Rc::new(recording), vetted);
        Ok(())
    }

    /// Exports every cached entry's audit data — recording digest, lint
    /// report JSON, signed provenance record — as the deterministic
    /// container the offline `receipt-verify` tool consumes. Entries are
    /// sorted by key inside the export, so the shard layout never leaks
    /// into the encoding.
    pub fn export_attestation(&self) -> AttestationExport {
        AttestationExport::new(
            self.shards
                .iter()
                .flat_map(|s| s.entries.iter())
                .map(|e| ExportEntry {
                    workload: e.key.0.clone(),
                    gpu_id: e.key.1,
                    recording_digest: e.vetted.provenance.recording_digest,
                    lint_json: e.vetted.lint_json.to_string(),
                    provenance: (*e.vetted.provenance).clone(),
                })
                .collect(),
        )
    }
}

/// Runs the cold-start record session, then verifies and lints the
/// result once, charging counters to the owning shard.
fn record_cold(
    cfg: &RegistryConfig,
    stats: &mut RegistryStats,
    record_time: &mut SimTime,
    spec: &NetworkSpec,
    sku: &GpuSku,
) -> Result<ColdRecord, RecordError> {
    let mut session = RecordSession::new(sku.clone(), cfg.conditions, cfg.mode);
    if let Some(plan) = &cfg.faults {
        session.attach_faults(plan);
    }
    let out = session.record(spec)?;
    let vetted = vet(stats, spec, sku, &out.recording)?;
    stats.record_retries += out.link_retries;
    stats.checkpoint_resumes += out.checkpoint_resumes;
    *record_time += out.delay;
    Ok((Rc::new(out.recording), vetted, out.delay))
}

/// Verify-once-and-lint-once-on-insert: a recording that fails the
/// signature or static analysis never enters the cache (and would be
/// refused again in every TEE). The registry has the `NetworkSpec` in
/// hand, so its lint is *stricter* than the replayer's gate: R4/R6
/// also check shapes and layer counts against the spec. The registry
/// never lowers: each TEE's own `LOAD_RECORDING` verifies, vets and
/// lowers the bytes it runs, and a recording that lints clean lowers.
fn vet(
    stats: &mut RegistryStats,
    spec: &NetworkSpec,
    sku: &GpuSku,
    recording: &SignedRecording,
) -> Result<Vetted, RecordError> {
    let parsed = recording
        .verify_and_parse(&recording_trust_root())
        .ok_or(RecordError::Attestation)?;
    stats.verified_inserts += 1;
    let report = Linter::new().lint(&parsed, sku, Some(spec));
    stats.linted_inserts += 1;
    if let Some(d) = report.first_error() {
        stats.lint_rejections += 1;
        return Err(RecordError::Rejected {
            rule: d.rule.id().to_owned(),
            message: d.message.clone(),
        });
    }
    // Sign the provenance record binding the recording bytes, the SKU,
    // and the lint verdict together; fleet devices chain their replay
    // receipts to it and auditors verify against the registry export.
    let lint_json: Rc<str> = report.to_json().into();
    let provenance = ProvenanceRecord::build(
        "registry",
        spec.name,
        sku.gpu_id,
        Sha256::digest(&recording.bytes),
        Sha256::digest(lint_json.as_bytes()),
        PROVISIONING_SECRET,
    );
    stats.provenance_records += 1;
    Ok(Vetted {
        weight_slots: parsed.weights.len(),
        lint: Rc::new(report),
        lint_json,
        provenance: Rc::new(provenance),
    })
}

/// Maps a provenance verification failure into the registry's typed
/// refusal, preserving the stable rule code for metrics bucketing.
fn provenance_err(e: VerifyError) -> RecordError {
    RecordError::Provenance {
        code: e.code().to_owned(),
        message: e.to_string(),
    }
}

/// Checks a shipped provenance record against what the registry just
/// recomputed locally: authentic signature, matching SKU and workload,
/// matching recording digest, matching lint digest.
fn check_shipped_provenance(
    prov: &ProvenanceRecord,
    spec: &NetworkSpec,
    sku: &GpuSku,
    recording: &SignedRecording,
    lint_json: &str,
) -> Result<(), VerifyError> {
    if !prov.verify(PROVISIONING_SECRET) {
        return Err(VerifyError::ProvenanceSignature);
    }
    if prov.gpu_id != sku.gpu_id {
        return Err(VerifyError::SkuMismatch {
            receipt: sku.gpu_id,
            provenance: prov.gpu_id,
        });
    }
    if prov.workload != spec.name {
        return Err(VerifyError::Malformed {
            what: "provenance workload",
        });
    }
    if prov.recording_digest != Sha256::digest(&recording.bytes) {
        return Err(VerifyError::RecordingDigestMismatch);
    }
    if prov.lint_digest != Sha256::digest(lint_json.as_bytes()) {
        return Err(VerifyError::LintDigestMismatch);
    }
    Ok(())
}

impl std::fmt::Debug for RecordingRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecordingRegistry")
            .field("entries", &self.len())
            .field("capacity", &self.cfg.capacity)
            .field("shards", &self.shards.len())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry(capacity: usize) -> RecordingRegistry {
        RecordingRegistry::new(RegistryConfig::new(capacity))
    }

    #[test]
    fn miss_records_then_hit_reuses() {
        let mut r = registry(4);
        let spec = grt_ml::zoo::mnist();
        let sku = GpuSku::mali_g71_mp8();
        let first = r.fetch(&spec, &sku).unwrap();
        assert!(first.cold_start_delay.is_some());
        assert!(first.weight_slots > 0);
        let second = r.fetch(&spec, &sku).unwrap();
        assert!(second.cold_start_delay.is_none());
        // Same shared recording, verified exactly once.
        assert!(Rc::ptr_eq(&first.recording, &second.recording));
        let s = r.stats();
        assert_eq!((s.hits, s.misses, s.verified_inserts), (1, 1, 1));
    }

    #[test]
    fn fetch_carries_the_certified_budget() {
        let mut r = registry(4);
        let spec = grt_ml::zoo::mnist();
        let sku = GpuSku::mali_g71_mp8();
        let cold = r.fetch(&spec, &sku).unwrap();
        let budget = cold.certified_budget().expect("insert-time R9 budget");
        assert!(budget.macs > 0 && budget.poll_iters > 0);
        let env = sku.cost_envelope();
        assert!(budget.macs <= env.max_macs && budget.poll_iters <= env.max_poll_iters);
        // The hit hands out the same cached report, budget included.
        let warm = r.fetch(&spec, &sku).unwrap();
        assert_eq!(warm.certified_budget(), Some(budget));
    }

    #[test]
    fn sku_keys_are_distinct() {
        let mut r = registry(4);
        let spec = grt_ml::zoo::mnist();
        let a = r.fetch(&spec, &GpuSku::mali_g71_mp8()).unwrap();
        let b = r.fetch(&spec, &GpuSku::mali_g71_mp4()).unwrap();
        assert!(b.cold_start_delay.is_some(), "different SKU is a miss");
        let pa = a
            .recording
            .verify_and_parse(&recording_trust_root())
            .unwrap();
        let pb = b
            .recording
            .verify_and_parse(&recording_trust_root())
            .unwrap();
        assert_ne!(pa.gpu_id, pb.gpu_id);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn lru_evicts_coldest() {
        let mut r = registry(2);
        let mnist = grt_ml::zoo::mnist();
        let sku8 = GpuSku::mali_g71_mp8();
        let sku4 = GpuSku::mali_g71_mp4();
        r.fetch(&mnist, &sku8).unwrap(); // entry A
        r.fetch(&mnist, &sku4).unwrap(); // entry B
        r.fetch(&mnist, &sku8).unwrap(); // touch A → B is now LRU
        r.fetch(&mnist, &GpuSku::mali_g72_mp12()).unwrap(); // evicts B
        assert!(r.contains(&mnist, &sku8));
        assert!(!r.contains(&mnist, &sku4));
        assert_eq!(r.stats().evictions, 1);
        // B misses again.
        let again = r.fetch(&mnist, &sku4).unwrap();
        assert!(again.cold_start_delay.is_some());
    }

    #[test]
    fn sharded_registry_partitions_keys_and_stats() {
        let mnist = grt_ml::zoo::mnist();
        let skus = [
            GpuSku::mali_g71_mp8(),
            GpuSku::mali_g71_mp4(),
            GpuSku::mali_g72_mp12(),
            GpuSku::mali_g76_mp10(),
        ];
        let mut r = RecordingRegistry::new(RegistryConfig::new(16).with_shards(4));
        assert_eq!(r.shard_count(), 4);
        for sku in &skus {
            r.fetch(&mnist, sku).unwrap();
            r.fetch(&mnist, sku).unwrap(); // hit on the same shard
        }
        assert_eq!(r.len(), 4);
        // Aggregates are exactly the sum of the shard-local counters.
        let agg = r.stats();
        let mut summed = RegistryStats::default();
        for s in r.shard_stats() {
            summed.absorb(&s);
        }
        assert_eq!(agg, summed);
        assert_eq!((agg.hits, agg.misses), (4, 4));
        // Every entry lives on exactly the shard its key hashes to.
        for sku in &skus {
            assert!(r.contains(&mnist, sku));
            let si = r.shard_of(&mnist, sku);
            assert!(r.shard_lens()[si] > 0, "entry must live on its shard");
        }
        assert_eq!(r.shard_lens().iter().sum::<usize>(), r.len());
    }

    #[test]
    fn shard_capacities_sum_exactly_to_configured_capacity() {
        // Regression: `capacity / shards` used to round every shard down,
        // so capacity 10 over 4 shards yielded 8 usable slots — two
        // entries' worth of LRU headroom silently gone. The remainder now
        // lands on the first shards.
        for (capacity, shards) in [
            (10usize, 4usize),
            (7, 3),
            (5, 2),
            (9, 8),
            (13, 5),
            (64, 7),
            (12, 4), // divisible: unchanged
            (1, 1),
        ] {
            let r = RecordingRegistry::new(RegistryConfig::new(capacity).with_shards(shards));
            let caps = r.shard_capacities();
            assert_eq!(caps.len(), shards);
            assert_eq!(
                caps.iter().sum::<usize>(),
                capacity,
                "capacity {capacity} over {shards} shards must not shrink (got {caps:?})"
            );
            assert!(caps.iter().all(|&c| c >= 1));
            // Even split: no shard more than one slot above another.
            let (min, max) = (caps.iter().min().unwrap(), caps.iter().max().unwrap());
            assert!(max - min <= 1, "uneven split {caps:?}");
        }
        // Degenerate case capacity < shards: every shard keeps one slot.
        let r = RecordingRegistry::new(RegistryConfig::new(3).with_shards(5));
        assert_eq!(r.shard_capacities(), vec![1, 1, 1, 1, 1]);
    }

    #[test]
    fn shard_routing_is_deterministic_and_eviction_is_shard_local() {
        let mnist = grt_ml::zoo::mnist();
        let sku8 = GpuSku::mali_g71_mp8();
        // Per-shard capacity 1 (capacity 2 over 2 shards): a second entry
        // on the *same* shard evicts, entries on other shards never do.
        let mut r = RecordingRegistry::new(RegistryConfig::new(2).with_shards(2));
        let si = r.shard_of(&mnist, &sku8);
        assert_eq!(si, r.shard_of(&mnist, &sku8), "routing is stable");
        r.fetch(&mnist, &sku8).unwrap();
        // Find a SKU on the same shard and one on the other shard.
        let pool = [
            GpuSku::mali_g71_mp4(),
            GpuSku::mali_g72_mp12(),
            GpuSku::mali_g76_mp10(),
        ];
        let same = pool.iter().find(|s| r.shard_of(&mnist, s) == si);
        let other = pool.iter().find(|s| r.shard_of(&mnist, s) != si);
        if let Some(other) = other {
            r.fetch(&mnist, other).unwrap();
            assert_eq!(r.stats().evictions, 0, "cross-shard insert must not evict");
            assert!(r.contains(&mnist, &sku8));
        }
        if let Some(same) = same {
            r.fetch(&mnist, same).unwrap();
            assert_eq!(r.stats().evictions, 1, "same-shard overflow evicts");
            assert!(!r.contains(&mnist, &sku8), "LRU entry left its shard");
        }
    }

    #[test]
    fn cloned_registry_shares_entries_but_forks_state() {
        let mut r = registry(4);
        let mnist = grt_ml::zoo::mnist();
        let sku = GpuSku::mali_g71_mp8();
        r.warm(&mnist, &sku).unwrap();
        let mut fork = r.clone();
        // The clone serves the warmed entry without re-recording…
        let f = fork.fetch(&mnist, &sku).unwrap();
        assert!(f.cold_start_delay.is_none());
        // …and its counters are independent of the original's.
        assert_eq!(fork.stats().hits, 1);
        assert_eq!(r.stats().hits, 0);
    }

    #[test]
    fn lint_verdict_is_cached_with_the_entry() {
        let mut r = registry(4);
        let spec = grt_ml::zoo::mnist();
        let sku = GpuSku::mali_g71_mp8();
        let first = r.fetch(&spec, &sku).unwrap();
        assert!(first.lint.passed());
        assert_eq!(first.lint.workload, spec.name);
        let second = r.fetch(&spec, &sku).unwrap();
        // The verdict is analyzed once and shared, like the recording.
        assert!(Rc::ptr_eq(&first.lint, &second.lint));
        assert_eq!(r.stats().linted_inserts, 1);
        assert_eq!(r.stats().lint_rejections, 0);
    }

    #[test]
    fn insert_refuses_recording_that_fails_lint() {
        use grt_ir::recording::Event;
        let mut r = registry(4);
        let spec = grt_ml::zoo::mnist();
        let sku = GpuSku::mali_g71_mp8();
        // A well-signed recording with one out-of-whitelist register write
        // appended — exactly what a compromised cloud stack could ship.
        let good = r.fetch(&spec, &sku).unwrap();
        let key = recording_trust_root();
        let mut rec = good.recording.verify_and_parse(&key).unwrap();
        rec.events.push(Event::RegWrite {
            offset: 0x4000,
            value: 0xDEAD,
        });
        let evil = grt_ir::recording::SignedRecording::sign(&rec, &key);
        // Ship it with a formally valid provenance record: the lint gate
        // still refuses it first.
        let prov = ProvenanceRecord::build(
            "other-registry",
            spec.name,
            sku.gpu_id,
            Sha256::digest(&evil.bytes),
            [0u8; 32],
            PROVISIONING_SECRET,
        );
        let err = r.insert_signed(&spec, &sku, evil, Some(prov)).unwrap_err();
        match err {
            RecordError::Rejected { rule, .. } => assert_eq!(rule, "R1"),
            other => panic!("expected lint rejection, got {other}"),
        }
        assert_eq!(r.stats().lint_rejections, 1);
        // The previously cached good entry is untouched.
        assert!(r.contains(&spec, &sku));
        assert!(r.fetch(&spec, &sku).unwrap().lint.passed());
    }

    #[test]
    fn insert_signed_accepts_and_replaces_good_recording() {
        let mut r = registry(4);
        let spec = grt_ml::zoo::mnist();
        let sku = GpuSku::mali_g71_mp8();
        let good = r.fetch(&spec, &sku).unwrap();
        let shipped = (*good.recording).clone();
        let prov = (*good.provenance).clone();
        r.insert_signed(&spec, &sku, shipped, Some(prov)).unwrap();
        assert_eq!(r.len(), 1, "replaced, not duplicated");
        assert_eq!(r.stats().linted_inserts, 2);
    }

    #[test]
    fn insert_signed_refuses_missing_provenance() {
        let mut r = registry(4);
        let spec = grt_ml::zoo::mnist();
        let sku = GpuSku::mali_g71_mp8();
        let good = r.fetch(&spec, &sku).unwrap();
        let shipped = (*good.recording).clone();
        let err = r.insert_signed(&spec, &sku, shipped, None).unwrap_err();
        match err {
            RecordError::Provenance { code, .. } => assert_eq!(code, "missing-provenance"),
            other => panic!("expected provenance refusal, got {other}"),
        }
        assert_eq!(r.stats().provenance_rejections, 1);
    }

    #[test]
    fn insert_signed_refuses_mismatched_lint_digest() {
        let mut r = registry(4);
        let spec = grt_ml::zoo::mnist();
        let sku = GpuSku::mali_g71_mp8();
        let good = r.fetch(&spec, &sku).unwrap();
        let shipped = (*good.recording).clone();
        // A provenance record claiming a different lint verdict.
        let prov = ProvenanceRecord::build(
            "other-registry",
            spec.name,
            sku.gpu_id,
            Sha256::digest(&shipped.bytes),
            Sha256::digest(b"forged lint report"),
            PROVISIONING_SECRET,
        );
        let err = r
            .insert_signed(&spec, &sku, shipped, Some(prov))
            .unwrap_err();
        match err {
            RecordError::Provenance { code, .. } => assert_eq!(code, "lint-digest-mismatch"),
            other => panic!("expected provenance refusal, got {other}"),
        }
        assert_eq!(r.stats().provenance_rejections, 1);
        // The previously cached good entry is untouched.
        assert!(r.contains(&spec, &sku));
    }

    #[test]
    fn insert_signed_refuses_unsigned_provenance() {
        let mut r = registry(4);
        let spec = grt_ml::zoo::mnist();
        let sku = GpuSku::mali_g71_mp8();
        let good = r.fetch(&spec, &sku).unwrap();
        let shipped = (*good.recording).clone();
        let mut prov = (*good.provenance).clone();
        prov.recorder = "mallory".to_string(); // invalidates the signature
        let err = r
            .insert_signed(&spec, &sku, shipped, Some(prov))
            .unwrap_err();
        match err {
            RecordError::Provenance { code, .. } => assert_eq!(code, "provenance-signature"),
            other => panic!("expected provenance refusal, got {other}"),
        }
    }

    #[test]
    fn provenance_covers_recording_and_lint_verdict() {
        let mut r = registry(4);
        let spec = grt_ml::zoo::mnist();
        let sku = GpuSku::mali_g71_mp8();
        let f = r.fetch(&spec, &sku).unwrap();
        assert!(f.provenance.verify(PROVISIONING_SECRET));
        assert_eq!(f.provenance.recorder, "registry");
        assert_eq!(f.provenance.workload, spec.name);
        assert_eq!(f.provenance.gpu_id, sku.gpu_id);
        // The digest each TEE computes over the bytes it loads, which its
        // receipts carry.
        assert_eq!(
            f.provenance.recording_digest,
            Sha256::digest(&f.recording.bytes)
        );
        assert_eq!(
            f.provenance.lint_digest,
            Sha256::digest(f.lint.to_json().as_bytes())
        );
        // The JSON serialized once at insert is those same bytes, and a
        // hit hands out that one string, not a fresh serialization.
        assert_eq!(*f.lint_json, f.lint.to_json());
        assert!(Rc::ptr_eq(
            &f.lint_json,
            &r.fetch(&spec, &sku).unwrap().lint_json
        ));
        assert_eq!(r.stats().provenance_records, 1);
    }

    #[test]
    fn attestation_export_round_trips_deterministically() {
        let mut r = registry(4);
        let mnist = grt_ml::zoo::mnist();
        let sku8 = GpuSku::mali_g71_mp8();
        let sku4 = GpuSku::mali_g71_mp4();
        r.warm(&mnist, &sku8).unwrap();
        r.warm(&mnist, &sku4).unwrap();
        let export = r.export_attestation();
        assert_eq!(export.entries().len(), 2);
        let restored = AttestationExport::from_bytes(&export.to_bytes()).unwrap();
        assert_eq!(export, restored);
        // Insertion order does not leak into the encoding: a registry
        // warmed in the opposite order exports identical bytes.
        let mut r2 = registry(4);
        r2.warm(&mnist, &sku4).unwrap();
        r2.warm(&mnist, &sku8).unwrap();
        assert_eq!(r2.export_attestation().to_bytes(), export.to_bytes());
        // Neither does the shard layout: a sharded registry over the same
        // entries exports the same bytes.
        let mut r4 = RecordingRegistry::new(RegistryConfig::new(4).with_shards(3));
        r4.warm(&mnist, &sku8).unwrap();
        r4.warm(&mnist, &sku4).unwrap();
        assert_eq!(r4.export_attestation().to_bytes(), export.to_bytes());
    }

    #[test]
    fn cold_start_survives_fault_plan() {
        // A partition landing mid-record and outlasting the whole retry
        // ladder forces retransmissions and a checkpoint resume, but the
        // fetch still completes and the recording is indistinguishable
        // from a fault-free one.
        let mut cfg = RegistryConfig::new(4);
        cfg.faults = Some(Rc::new(
            grt_sim::FaultPlan::new()
                .with_partition(SimTime::from_millis(800), SimTime::from_millis(3000)),
        ));
        let mut faulted = RecordingRegistry::new(cfg);
        let spec = grt_ml::zoo::mnist();
        let sku = GpuSku::mali_g71_mp8();
        let out = faulted.fetch(&spec, &sku).unwrap();
        assert!(out.cold_start_delay.is_some());
        let s = faulted.stats();
        assert!(s.record_retries > 0, "partition must cost retransmissions");
        assert!(s.checkpoint_resumes > 0, "mid-run partition must resume");

        let mut clean = registry(4);
        let base = clean.fetch(&spec, &sku).unwrap();
        assert_eq!(
            base.recording.wire_blob(),
            out.recording.wire_blob(),
            "recovered recording must be byte-identical"
        );
    }

    #[test]
    fn warm_counts_neither_hit_nor_miss() {
        let mut r = registry(4);
        let spec = grt_ml::zoo::mnist();
        let sku = GpuSku::mali_g71_mp8();
        r.warm(&spec, &sku).unwrap();
        assert_eq!(r.stats().hits + r.stats().misses, 0);
        assert_eq!(r.stats().verified_inserts, 1);
        let f = r.fetch(&spec, &sku).unwrap();
        assert!(f.cold_start_delay.is_none());
        assert_eq!(r.stats().hits, 1);
    }
}
