//! The fleet scheduler: N client TEE devices serving one request stream.
//!
//! Each device is a full [`ClientDevice`] (GPU + TZASC + secure monitor)
//! hosting a [`ReplayService`] behind the GlobalPlatform protocol, exactly
//! as a production phone would run it. The scheduler dispatches requests
//! to devices with **same-model affinity**: a request for the model a
//! device already has staged skips `LOAD_RECORDING`/`SET_WEIGHTS` and
//! pays only `SET_INPUT`+`RUN`, so consecutive same-model requests
//! amortize the staging cost (the serving-side analogue of the paper's
//! record-once-replay-many economics).
//!
//! The paper's replayer assumes the GPU job queue never holds more than
//! one outstanding job; the fleet preserves that per device — a device
//! serves exactly one replay at a time, and the scheduler asserts it
//! (service intervals on one device never overlap; see
//! [`Fleet::max_inflight`]) — even across crashes and failovers.
//!
//! **Event-indexed scheduling.** The DES driver is a binary heap of
//! `(due_time, kind, device, epoch)` candidates — one live entry per
//! device — so advancing the timeline wakes only devices with due events
//! instead of sweeping the whole fleet per event
//! ([`SchedulerKind::EventIndexed`], the default). A device's entry is
//! re-issued (with a bumped epoch; stale heap entries are discarded
//! lazily) whenever its state changes: queue push/pop, service end,
//! crash, eviction, restart. The original per-event full-fleet sweep is
//! retained as [`SchedulerKind::LegacySweep`] — the differential-test
//! oracle the event-indexed path must match report-byte-for-report-byte.
//! Both drivers derive service events from the same
//! [`AdmissionQueue::next_service_start`] rule and dispatch into the same
//! event handlers, so they can only differ in *which event is next*, and
//! the heap order `(due, kind, index)` reproduces the sweep's argmin
//! exactly.
//!
//! **Profiled service.** A real replay costs real wall-clock time, which
//! a 10⁶-request run cannot afford. [`ServiceMode::Profiled`] measures
//! each `(model, SKU)` pair once on a probe TEE stack — real staging,
//! real replays, one fully verified replay receipt — and then models
//! every service interval from that profile (staging + first replay on a
//! model switch, warm replay otherwise, cold-start record delays still
//! charged for real from the registry). Scheduling, admission, health,
//! failover, and accounting all run unchanged; only the per-request GP
//! protocol drive is replaced by its measured duration.
//!
//! **Fault tolerance.** When a [`FaultPlan`] is attached
//! ([`FleetConfig::with_faults`]), the scheduler interleaves plan events
//! with service starts in strict time order (same-instant ties: crash,
//! then restart, then service, then device index):
//!
//! - a **crash** wipes the device's staged model, marks it down until its
//!   restart ([`DeviceHealth`] evicts a flapping device for a probation
//!   period instead), and *fails over* every queued request to a healthy
//!   peer — same SKU preferred, so the recording stays valid;
//! - a crash landing **inside a service interval** interrupts it: the
//!   partial work and its output are discarded (never folded into the
//!   run digest) and the in-flight request fails over like a queued one;
//! - **slowdown** windows stretch service time, and a device whose
//!   latency EWMA drifts past the slow-eviction threshold is evicted the
//!   same way a flapping one is;
//! - re-queued requests *re-arrive at the failover instant* — a failed
//!   over request can never start anywhere before the fault that
//!   displaced it.
//!
//! Time: the fleet clock is the discrete-event serving timeline. Each
//! device's hardware clock is a private lane measuring service durations
//! (replay polls, staging, cold-start records); the scheduler re-anchors
//! those durations onto the serving timeline, so devices serve in
//! parallel while all timestamps stay deterministic.

use crate::admission::{AdmissionQueue, Rejection, Request};
use crate::health::DeviceHealth;
use crate::metrics::{
    DeviceReport, FailoverRecord, LatencySketches, MetricsCollector, ModelReport, Percentiles,
    RequestSample, ServeReport, TimeoutRecord,
};
use crate::registry::{FetchOutcome, RecordingRegistry, RegistryConfig};
use grt_attest::{verify_chain, verify_receipt_data, ProvenanceRecord, ReplayReceipt};
use grt_gpu::GpuSku;
use grt_ml::reference::{test_input, workload_weights};
use grt_ml::NetworkSpec;
use grt_replay::client::{recording_trust_root, ClientDevice, PROVISIONING_SECRET};
use grt_replay::service::{cmd, ReplayService};
use grt_sim::{Clock, Crash, FaultPlan, SimTime, Stats};
use grt_tee::TeeHost;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::rc::Rc;

/// Which DES driver advances the serving timeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Event-indexed: a binary heap of per-device due-event candidates;
    /// only devices with due events wake. The production path.
    #[default]
    EventIndexed,
    /// The original per-event full-fleet sweep (O(devices) per event),
    /// retained as the differential-test oracle: it must produce
    /// byte-identical reports to [`SchedulerKind::EventIndexed`].
    LegacySweep,
}

/// How a service interval's duration is obtained.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ServiceMode {
    /// Every request drives a real replay through the GP protocol on the
    /// device's own TEE stack (staging, SET_INPUT, RUN, receipt).
    #[default]
    Replay,
    /// Service durations are modeled from a per-`(model, SKU)` profile
    /// measured once on a real probe TEE stack (including one fully
    /// verified replay receipt); per-request work is O(1), which is what
    /// makes 10⁶-request fleet runs affordable. Scheduling, admission,
    /// health, failover, and accounting are identical to
    /// [`ServiceMode::Replay`].
    Profiled,
}

/// Fleet composition and scheduling parameters.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// One entry per device; duplicates are distinct devices.
    pub skus: Vec<GpuSku>,
    /// Per-device admission-queue bound.
    pub queue_capacity: usize,
    /// How much deeper a same-model device's queue may be than the
    /// shallowest queue before affinity is abandoned for load balance.
    pub affinity_slack: usize,
    /// Recording-registry sizing and cold-start parameters.
    pub registry: RegistryConfig,
    /// Fault schedule for the serving timeline: crash/slowdown device
    /// indices are worker indices. `None` serves fault-free.
    pub faults: Option<Rc<FaultPlan>>,
    /// DES driver (event-indexed by default; the legacy sweep is the
    /// test oracle).
    pub scheduler: SchedulerKind,
    /// Real replays per request, or modeled from measured profiles.
    pub service: ServiceMode,
    /// Max same-model requests one service interval may serve through a
    /// single batched replay (`RUN_BATCH`, DESIGN.md §14). `1` (the
    /// default) keeps every interval on the scalar `SET_INPUT`+`RUN`
    /// path, byte-identical to a fleet without batching.
    pub max_batch: usize,
    /// Cap on the rejection/timeout/failover *event logs* the collector
    /// keeps (their counters stay exact regardless). `usize::MAX` keeps
    /// every event; fleet-scale runs set a small cap to bound memory.
    pub event_log_cap: usize,
}

impl FleetConfig {
    /// A fleet of `skus` with an 8-deep queue per device, slack-2
    /// affinity, and a 64-entry WiFi registry.
    pub fn new(skus: Vec<GpuSku>) -> Self {
        FleetConfig {
            skus,
            queue_capacity: 8,
            affinity_slack: 2,
            registry: RegistryConfig::new(64),
            faults: None,
            scheduler: SchedulerKind::default(),
            service: ServiceMode::default(),
            max_batch: 1,
            event_log_cap: usize::MAX,
        }
    }

    /// Attaches `plan` to both fault surfaces: the serving timeline
    /// (device crashes and slowdowns) and the registry's cold-start
    /// record tunnels (loss bursts, RTT spikes, partitions).
    pub fn with_faults(mut self, plan: Rc<FaultPlan>) -> Self {
        self.registry.faults = Some(Rc::clone(&plan));
        self.faults = Some(plan);
        self
    }

    /// Selects the DES driver.
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Selects real vs profiled service.
    pub fn with_service_mode(mut self, service: ServiceMode) -> Self {
        self.service = service;
        self
    }

    /// Caps how many same-model requests one replay may batch
    /// (`1..=grt_replay::compiled::MAX_BATCH`).
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        assert!(
            (1..=grt_replay::compiled::MAX_BATCH).contains(&max_batch),
            "max_batch must be in 1..={}",
            grt_replay::compiled::MAX_BATCH
        );
        self.max_batch = max_batch;
        self
    }

    /// Caps the metrics event logs (counters stay exact).
    pub fn with_event_log_cap(mut self, cap: usize) -> Self {
        self.event_log_cap = cap;
        self
    }
}

/// One device's full TEE stack: the simulated client hardware, its
/// TrustZone host, and the open replay-service session.
struct TeeStack {
    device: ClientDevice,
    host: TeeHost,
    session: u32,
}

impl TeeStack {
    fn new(sku: GpuSku, stats: &Rc<Stats>) -> Self {
        let clock = Clock::new();
        let device = ClientDevice::new(sku, &clock, stats, PROVISIONING_SECRET);
        let host = TeeHost::new(&device.monitor);
        host.register(Box::new(RefCell::new(ReplayService::new(
            &device,
            recording_trust_root(),
            Rc::new(grt_lint::Linter::new()),
        ))));
        let session = host
            .open_session("grt.replay")
            .expect("replay module just registered");
        TeeStack {
            device,
            host,
            session,
        }
    }
}

/// Measured service durations of one `(model, SKU)` pair, taken once on
/// a probe TEE stack and reused by every modeled service interval
/// ([`ServiceMode::Profiled`]).
#[derive(Debug, Clone, Copy)]
struct ServiceProfile {
    /// `LOAD_RECORDING` + `SET_WEIGHTS` + `SET_PROVENANCE` staging cost.
    load: SimTime,
    /// First `SET_INPUT`+`RUN` after staging (cold TLB/page state).
    first_replay: SimTime,
    /// Steady-state `SET_INPUT`+`RUN`.
    warm_replay: SimTime,
}

/// One client device plus its serving state.
struct DeviceWorker {
    /// The real TEE stack; `None` in [`ServiceMode::Profiled`], where
    /// service is modeled and no per-device hardware is simulated.
    stack: Option<TeeStack>,
    sku: GpuSku,
    queue: AdmissionQueue,
    /// When the device finishes its current replay (serving timeline).
    free_at: SimTime,
    /// End of the previous service interval; a new interval starting
    /// before this would mean two concurrent replays on one GPU.
    last_service_end: SimTime,
    /// Model currently staged in the replay service.
    loaded_model: Option<usize>,
    /// Provenance record of the staged model; replay receipts chain to it.
    provenance: Option<Rc<ProvenanceRecord>>,
    /// Canonical lint-report JSON of the staged model, cached for
    /// receipt-chain verification (its digest is covered by provenance).
    lint_json: Option<Rc<str>>,
    /// Crash/latency health; gates whether the scheduler dispatches here.
    health: DeviceHealth,
    /// Monotone generation counter for the event-indexed heap: a heap
    /// entry is live only while its epoch matches this.
    epoch: u64,
    /// In-flight replays right now (the invariant holds this ≤ 1).
    inflight: u32,
    max_inflight: u32,
    completed: u64,
    loads: u64,
    busy: SimTime,
}

impl DeviceWorker {
    fn new(sku: GpuSku, queue_capacity: usize, stats: &Rc<Stats>, mode: ServiceMode) -> Self {
        let stack = match mode {
            ServiceMode::Replay => Some(TeeStack::new(sku.clone(), stats)),
            ServiceMode::Profiled => None,
        };
        DeviceWorker {
            stack,
            sku,
            queue: AdmissionQueue::new(queue_capacity),
            free_at: SimTime::ZERO,
            last_service_end: SimTime::ZERO,
            loaded_model: None,
            provenance: None,
            lint_json: None,
            health: DeviceHealth::new(),
            epoch: 0,
            inflight: 0,
            max_inflight: 0,
            completed: 0,
            loads: 0,
            busy: SimTime::ZERO,
        }
    }
}

/// The serving fleet: devices + registry + one DES timeline.
pub struct Fleet {
    cfg: FleetConfig,
    models: Vec<NetworkSpec>,
    workers: Vec<DeviceWorker>,
    registry: RecordingRegistry,
    /// Cached replay-time model parameters, one slot per catalog model.
    weights: Vec<Option<Vec<Vec<f32>>>>,
    /// The serving timeline.
    clock: Rc<Clock>,
    /// Plan crashes targeting real workers, in schedule order.
    pending_crashes: Vec<Crash>,
    /// First unprocessed entry in `pending_crashes`.
    crash_cursor: usize,
    /// Crash events processed so far.
    crashes_seen: u64,
    service_time_sum: SimTime,
    service_count: u64,
    /// Event-indexed scheduler state: a min-heap of `(due, kind, device,
    /// epoch)` candidates. Entries whose epoch no longer matches their
    /// worker's are stale and discarded lazily at the top.
    heap: BinaryHeap<Reverse<(SimTime, u8, usize, u64)>>,
    /// Measured `(model, GPU_ID)` profiles for [`ServiceMode::Profiled`].
    profiles: BTreeMap<(usize, u32), ServiceProfile>,
    /// Measured warm `(model, GPU_ID, B)` batched-replay durations for
    /// [`ServiceMode::Profiled`] with `max_batch > 1`.
    batch_profiles: BTreeMap<(usize, u32, usize), SimTime>,
}

/// Retry-after fallback before any request has completed.
const DEFAULT_SERVICE_ESTIMATE: SimTime = SimTime::from_millis(25);

/// Same-instant event ordering: crashes first, then restarts, then
/// service starts.
const EV_CRASH: u8 = 0;
const EV_RESTART: u8 = 1;
const EV_SERVE: u8 = 2;

/// How far a processed event's side effects reach: only the device that
/// owned the event, or (via failover/eviction) possibly every device.
enum Ripple {
    One,
    All,
}

impl Fleet {
    /// Builds a fleet serving `models` with a fresh registry.
    pub fn new(models: Vec<NetworkSpec>, cfg: FleetConfig) -> Self {
        let registry = RecordingRegistry::new(cfg.registry.clone());
        Self::with_registry(models, cfg, registry)
    }

    /// Builds a fleet around an existing registry (e.g. one warmed by a
    /// previous run), preserving its cache contents and counters.
    pub fn with_registry(
        models: Vec<NetworkSpec>,
        cfg: FleetConfig,
        registry: RecordingRegistry,
    ) -> Self {
        assert!(!cfg.skus.is_empty(), "a fleet needs at least one device");
        let stats = Stats::new();
        let workers: Vec<DeviceWorker> = cfg
            .skus
            .iter()
            .map(|sku| DeviceWorker::new(sku.clone(), cfg.queue_capacity, &stats, cfg.service))
            .collect();
        let pending_crashes = cfg
            .faults
            .as_ref()
            .map(|p| {
                p.crashes()
                    .iter()
                    .filter(|c| c.device < workers.len())
                    .copied()
                    .collect()
            })
            .unwrap_or_default();
        let n_models = models.len();
        Fleet {
            cfg,
            models,
            workers,
            registry,
            weights: vec![None; n_models],
            clock: Clock::new(),
            pending_crashes,
            crash_cursor: 0,
            crashes_seen: 0,
            service_time_sum: SimTime::ZERO,
            service_count: 0,
            heap: BinaryHeap::new(),
            profiles: BTreeMap::new(),
            batch_profiles: BTreeMap::new(),
        }
    }

    /// Releases the registry (to carry a warmed cache into another fleet).
    pub fn into_registry(self) -> RecordingRegistry {
        self.registry
    }

    /// Per-shard registry counters, in shard order.
    pub fn registry_shard_stats(&self) -> Vec<crate::registry::RegistryStats> {
        self.registry.shard_stats()
    }

    /// Max concurrent replays ever observed on any single device. The
    /// job-queue-length-1 invariant requires this to be exactly 1 after
    /// any run that served at least one request.
    pub fn max_inflight(&self) -> u32 {
        self.workers
            .iter()
            .map(|w| w.max_inflight)
            .max()
            .unwrap_or(0)
    }

    /// Serves a whole arrival-ordered trace, returning the reduced report.
    pub fn run(&mut self, trace: &[Request]) -> ServeReport {
        self.run_detailed(trace).0
    }

    /// Like [`Fleet::run`] but also returns the raw event accumulator
    /// (latency sketches, per-request rejection/timeout/failover logs up
    /// to the configured cap, and exact counters).
    pub fn run_detailed(&mut self, trace: &[Request]) -> (ServeReport, MetricsCollector) {
        let mut metrics = MetricsCollector::with_log_cap(self.cfg.event_log_cap);
        let indexed = matches!(self.cfg.scheduler, SchedulerKind::EventIndexed);
        if indexed {
            // Rebuild the candidate heap from current worker state (the
            // fleet may carry queue/health state across runs).
            self.heap.clear();
            self.refresh_all();
        }
        for req in trace {
            debug_assert!(
                req.arrival >= self.clock.now(),
                "trace must be arrival-ordered"
            );
            self.drain_until(req.arrival, &mut metrics);
            self.clock.advance_to(req.arrival);
            match self.pick_device(req) {
                Some(i) => {
                    self.workers[i]
                        .queue
                        .try_push(req.clone())
                        .expect("pick_device returns only non-full queues");
                    if indexed {
                        self.refresh(i);
                    }
                }
                None => {
                    let retry_after = self.retry_after_estimate(req.arrival);
                    metrics.record_rejection(Rejection {
                        id: req.id,
                        model: req.model,
                        at: req.arrival,
                        retry_after,
                    });
                }
            }
        }
        self.drain_until(SimTime::MAX, &mut metrics);
        let report = self.reduce(trace.len() as u64, &metrics);
        (report, metrics)
    }

    /// Processes every event due strictly before `t` in deterministic
    /// earliest-first order: plan crashes, health restarts/re-admissions,
    /// and service starts, with same-instant ties broken by event kind
    /// ([`EV_CRASH`] < [`EV_RESTART`] < [`EV_SERVE`]) then device index.
    fn drain_until(&mut self, t: SimTime, metrics: &mut MetricsCollector) {
        match self.cfg.scheduler {
            SchedulerKind::EventIndexed => self.drain_indexed(t, metrics),
            SchedulerKind::LegacySweep => self.drain_sweep(t, metrics),
        }
    }

    /// The due-event candidate of worker `i` right now: its pending
    /// restart while out of service, else its queue head's service start.
    /// The single source both schedulers derive worker events from.
    fn candidate(w: &DeviceWorker) -> Option<(SimTime, u8)> {
        match w.health.next_transition() {
            Some(until) => Some((until, EV_RESTART)),
            None => w
                .queue
                .next_service_start(w.free_at)
                .map(|at| (at, EV_SERVE)),
        }
    }

    /// Re-issues worker `i`'s heap entry after a state change: bumps its
    /// epoch (invalidating prior entries) and pushes its current
    /// candidate, if any.
    fn refresh(&mut self, i: usize) {
        let w = &mut self.workers[i];
        w.epoch += 1;
        if let Some((at, kind)) = Self::candidate(w) {
            self.heap.push(Reverse((at, kind, i, w.epoch)));
        }
    }

    /// Re-issues every worker's heap entry (after failover or eviction,
    /// whose side effects can touch any queue in the fleet).
    fn refresh_all(&mut self) {
        for i in 0..self.workers.len() {
            self.refresh(i);
        }
    }

    /// Legacy driver: scan every worker per event for the earliest
    /// candidate. O(devices) per event — the differential oracle.
    fn drain_sweep(&mut self, t: SimTime, metrics: &mut MetricsCollector) {
        loop {
            let mut best: Option<(SimTime, u8, usize)> = None;
            if let Some(c) = self.pending_crashes.get(self.crash_cursor) {
                best = Some((c.at, EV_CRASH, c.device));
            }
            for (i, w) in self.workers.iter().enumerate() {
                if let Some((at, kind)) = Self::candidate(w) {
                    let cand = (at, kind, i);
                    if match best {
                        Some(b) => cand < b,
                        None => true,
                    } {
                        best = Some(cand);
                    }
                }
            }
            let Some((at, kind, idx)) = best else { break };
            if at >= t {
                break;
            }
            match kind {
                EV_CRASH => self.process_crash(metrics),
                EV_RESTART => self.process_restart(idx),
                _ => {
                    self.process_serve(idx, at, metrics);
                }
            }
        }
    }

    /// Event-indexed driver: pop the earliest live heap candidate, merge
    /// it against the crash cursor, dispatch. O(log devices) per event.
    fn drain_indexed(&mut self, t: SimTime, metrics: &mut MetricsCollector) {
        loop {
            // Discard entries invalidated by a later refresh.
            while let Some(&Reverse((_, _, i, epoch))) = self.heap.peek() {
                if self.workers[i].epoch == epoch {
                    break;
                }
                self.heap.pop();
            }
            let worker_ev = self
                .heap
                .peek()
                .map(|&Reverse((at, kind, i, _))| (at, kind, i));
            let crash_ev = self
                .pending_crashes
                .get(self.crash_cursor)
                .map(|c| (c.at, EV_CRASH, c.device));
            // Tuples are unique (kinds differ, worker indices differ), so
            // this min reproduces the sweep's argmin exactly.
            let best = match (crash_ev, worker_ev) {
                (Some(c), Some(w)) => Some(if c < w { c } else { w }),
                (c, w) => c.or(w),
            };
            let Some((at, kind, idx)) = best else { break };
            if at >= t {
                break;
            }
            match kind {
                EV_CRASH => {
                    // Crash events come from the cursor, not the heap.
                    self.process_crash(metrics);
                    self.refresh_all();
                }
                EV_RESTART => {
                    self.heap.pop();
                    self.process_restart(idx);
                    self.refresh(idx);
                }
                _ => {
                    self.heap.pop();
                    match self.process_serve(idx, at, metrics) {
                        Ripple::One => self.refresh(idx),
                        Ripple::All => self.refresh_all(),
                    }
                }
            }
        }
    }

    /// Handles the crash at the cursor: health bookkeeping, staged-state
    /// wipe, queue failover.
    fn process_crash(&mut self, metrics: &mut MetricsCollector) {
        let crash = self.pending_crashes[self.crash_cursor];
        self.crash_cursor += 1;
        self.crashes_seen += 1;
        let w = &mut self.workers[crash.device];
        w.health.on_crash(crash.at, crash.restart_at);
        // The crash wipes TEE state: staged model is gone, and with it
        // the attestation context receipts chain to.
        w.loaded_model = None;
        w.provenance = None;
        w.lint_json = None;
        let avg = avg_service(self.service_time_sum, self.service_count);
        fail_over_queue(&mut self.workers, crash.device, crash.at, avg, metrics);
    }

    /// Handles a restart/re-admission transition on worker `idx`.
    fn process_restart(&mut self, idx: usize) {
        self.workers[idx].health.on_restart();
    }

    /// Serves worker `idx`'s queue head at instant `at` (or times it
    /// out), batching up to `max_batch` consecutive already-arrived
    /// same-model followers into the same replay (DESIGN.md §14).
    /// Returns how far the side effects reached.
    fn process_serve(&mut self, idx: usize, at: SimTime, metrics: &mut MetricsCollector) -> Ripple {
        let Fleet {
            workers,
            registry,
            models,
            weights,
            cfg,
            service_time_sum,
            service_count,
            profiles,
            batch_profiles,
            ..
        } = self;
        let plan = cfg.faults.as_deref();
        let worker = &mut workers[idx];
        let req = worker.queue.pop_front().expect("serve event has a head");
        if at > req.deadline {
            // Deadline expired while queued: accounted, never silently
            // dropped.
            metrics.record_timeout(TimeoutRecord {
                id: req.id,
                model: req.model,
                expired_at: req.deadline,
            });
            return Ripple::One;
        }
        // Same-SKU affinity queues naturally run same-model streaks; pull
        // the head's streak (already arrived, deadline still live) into
        // one batched replay. An expired follower stays queued and times
        // out at its own serve event, exactly as without batching.
        let mut batch = vec![req];
        while batch.len() < cfg.max_batch {
            match worker.queue.front() {
                Some(r) if r.model == batch[0].model && r.arrival <= at && r.deadline >= at => {
                    let r = worker.queue.pop_front().expect("front was just peeked");
                    batch.push(r);
                }
                _ => break,
            }
        }
        match serve_batch(
            worker,
            idx,
            &batch,
            at,
            plan,
            registry,
            models,
            weights,
            cfg.service,
            profiles,
            batch_profiles,
            metrics,
        ) {
            ServeOutcome::Completed {
                samples,
                batch_service,
                evicted,
            } => {
                *service_time_sum += batch_service;
                *service_count += 1;
                let end = at + batch_service;
                metrics.record_batch(samples.len());
                for sample in &samples {
                    metrics.record_sample(sample);
                }
                if evicted {
                    // Slow device left scheduling: its queue must not
                    // wait out the probation.
                    let avg = avg_service(*service_time_sum, *service_count);
                    fail_over_queue(workers, idx, end, avg, metrics);
                    Ripple::All
                } else {
                    Ripple::One
                }
            }
            ServeOutcome::Failed => Ripple::One,
            ServeOutcome::Interrupted { reqs, at } => {
                let avg = avg_service(*service_time_sum, *service_count);
                for req in reqs {
                    fail_over_one(workers, idx, req, at, avg, metrics);
                }
                Ripple::All
            }
        }
    }

    /// Picks the device to queue `req` on: same-model affinity first
    /// (within the configured slack of the shallowest queue), then least
    /// queue depth, then earliest free, then lowest index. Down or
    /// evicted devices are never picked. Returns `None` when every
    /// healthy queue is full — the backpressure case.
    ///
    /// Single sweep: the unfiltered affine minimum already has the least
    /// queue depth among affine devices, so the slack filter reduces to
    /// one post-check against the fleet-wide minimum depth.
    fn pick_device(&self, req: &Request) -> Option<usize> {
        let now = req.arrival;
        let mut min_depth: Option<usize> = None;
        let mut best_any: Option<(usize, SimTime, usize)> = None;
        let mut best_affine: Option<(usize, SimTime, usize)> = None;
        for (i, w) in self.workers.iter().enumerate() {
            if w.queue.is_full() || !w.health.is_up(now) {
                continue;
            }
            let key = (w.queue.len(), w.free_at, i);
            min_depth = Some(match min_depth {
                Some(d) => d.min(key.0),
                None => key.0,
            });
            if match best_any {
                Some(b) => key < b,
                None => true,
            } {
                best_any = Some(key);
            }
            if w.loaded_model == Some(req.model)
                && match best_affine {
                    Some(b) => key < b,
                    None => true,
                }
            {
                best_affine = Some(key);
            }
        }
        if let Some(a) = best_affine {
            if a.0 <= min_depth.expect("affine implies open") + self.cfg.affinity_slack {
                return Some(a.2);
            }
        }
        best_any.map(|b| b.2)
    }

    /// How long a rejected client should back off: the soonest any
    /// device could plausibly reach new work, plus one service time.
    fn retry_after_estimate(&self, now: SimTime) -> SimTime {
        let avg = avg_service(self.service_time_sum, self.service_count);
        let soonest = self
            .workers
            .iter()
            .map(|w| w.free_at.saturating_sub(now) + avg * w.queue.len() as u64)
            .min()
            .unwrap_or(SimTime::ZERO);
        soonest + avg
    }

    /// Reduces the streamed accumulators into the export-ready report.
    /// O(models + devices + sketch buckets) — independent of how many
    /// requests were served.
    fn reduce(&self, submitted: u64, metrics: &MetricsCollector) -> ServeReport {
        let completed = metrics.completed;
        let makespan = self
            .workers
            .iter()
            .map(|w| w.last_service_end)
            .max()
            .unwrap_or(SimTime::ZERO)
            .max(self.clock.now());
        let throughput_rps = if makespan.is_zero() {
            0.0
        } else {
            completed as f64 / makespan.as_secs_f64()
        };
        let mean_total = if completed == 0 {
            SimTime::ZERO
        } else {
            metrics.sum_total / completed
        };
        let per_model = self
            .models
            .iter()
            .enumerate()
            .map(|(mi, spec)| {
                let acc = metrics.per_model.get(mi).copied().unwrap_or_default();
                ModelReport {
                    name: spec.name.to_owned(),
                    completed: acc.completed,
                    mean_total: if acc.completed == 0 {
                        SimTime::ZERO
                    } else {
                        acc.sum_total / acc.completed
                    },
                }
            })
            .collect();
        let per_device = self
            .workers
            .iter()
            .map(|w| DeviceReport {
                sku: w.sku.name.to_owned(),
                completed: w.completed,
                loads: w.loads,
                busy: w.busy,
                peak_queue_depth: w.queue.peak_depth(),
            })
            .collect();
        let cache = self.registry.stats();
        ServeReport {
            submitted,
            completed,
            rejected: metrics.rejected,
            timed_out: metrics.timed_out,
            failed: metrics.failed,
            makespan,
            throughput_rps,
            queue_wait: Percentiles::from_sketch(&metrics.queue_wait),
            service: Percentiles::from_sketch(&metrics.service),
            total: Percentiles::from_sketch(&metrics.total),
            mean_total,
            sketches: LatencySketches {
                queue_wait: metrics.queue_wait.summary(),
                service: metrics.service.summary(),
                total: metrics.total.summary(),
            },
            cold_starts: metrics.cold_starts,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            cache_hit_ratio: cache.hit_ratio(),
            record_time: self.registry.record_time(),
            crashes: self.crashes_seen,
            failovers: metrics.failover_count,
            evictions: self.workers.iter().map(|w| w.health.evictions).sum(),
            readmissions: self.workers.iter().map(|w| w.health.readmissions).sum(),
            rec_link_retries: cache.record_retries,
            rec_checkpoint_resumes: cache.checkpoint_resumes,
            max_inflight: self.max_inflight(),
            receipts_issued: metrics.receipts_issued,
            receipts_verified: metrics.receipts_verified,
            receipts_rejected: metrics.receipts_rejected.clone(),
            batches: metrics.batches,
            batched_requests: metrics.batched_requests,
            max_batch_served: metrics.max_batch_served,
            output_digest: metrics.output_digest,
            per_model,
            per_device,
        }
    }
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("devices", &self.workers.len())
            .field("models", &self.models.len())
            .field("scheduler", &self.cfg.scheduler)
            .field("service", &self.cfg.service)
            .finish()
    }
}

/// Mean observed service time, with a fixed estimate before any sample.
fn avg_service(sum: SimTime, count: u64) -> SimTime {
    if count == 0 {
        DEFAULT_SERVICE_ESTIMATE
    } else {
        sum / count
    }
}

/// Fails over every request queued on `from` at instant `at`.
fn fail_over_queue(
    workers: &mut [DeviceWorker],
    from: usize,
    at: SimTime,
    avg: SimTime,
    metrics: &mut MetricsCollector,
) {
    while let Some(req) = workers[from].queue.pop_front() {
        fail_over_one(workers, from, req, at, avg, metrics);
    }
}

/// Re-queues one request displaced from `from` (queued there, or
/// interrupted mid-service) onto a healthy peer: same-SKU devices first
/// (the staged recording stays valid for them), then any healthy device,
/// each by (queue depth, earliest free, index). A request with nowhere
/// to go is rejected with a retry-after hint. The re-queued copy
/// re-arrives at `at` — it cannot start anywhere before the fault that
/// displaced it.
fn fail_over_one(
    workers: &mut [DeviceWorker],
    from: usize,
    req: Request,
    at: SimTime,
    avg: SimTime,
    metrics: &mut MetricsCollector,
) {
    let sku_name = workers[from].sku.name;
    let pick = |same_sku: bool| {
        workers
            .iter()
            .enumerate()
            .filter(|(i, w)| {
                *i != from
                    && !w.queue.is_full()
                    && w.health.is_up(at)
                    && (!same_sku || w.sku.name == sku_name)
            })
            .min_by_key(|(i, w)| (w.queue.len(), w.free_at, *i))
            .map(|(i, _)| i)
    };
    match pick(true).or_else(|| pick(false)) {
        Some(to) => {
            let moved = Request {
                arrival: at,
                ..req.clone()
            };
            workers[to]
                .queue
                .try_push(moved)
                .expect("picked an open queue");
            metrics.record_failover(FailoverRecord {
                id: req.id,
                from,
                to,
                at,
            });
        }
        None => metrics.record_rejection(Rejection {
            id: req.id,
            model: req.model,
            at,
            retry_after: avg,
        }),
    }
}

/// What one service attempt produced.
enum ServeOutcome {
    /// Served to completion (one sample per batched request). `evicted`
    /// is set when this completion's latency tripped the slow-device
    /// EWMA and the worker was evicted.
    Completed {
        samples: Vec<RequestSample>,
        batch_service: SimTime,
        evicted: bool,
    },
    /// Cold-start record failed; every batched request is accounted as
    /// failed.
    Failed,
    /// A plan crash landed inside the service interval: the partial work
    /// is discarded and every batched request must fail over.
    Interrupted { reqs: Vec<Request>, at: SimTime },
}

/// What the service phase produced besides its duration: real replay
/// bytes to verify a receipt over (one input lane per batched request,
/// outputs concatenated in lane order), or nothing (modeled service).
enum Payload {
    Real {
        input_lanes: Vec<Vec<u8>>,
        output: Vec<u8>,
    },
    Modeled,
}

/// Stages a fetched model onto a TEE stack: `LOAD_RECORDING`, every
/// weight slot, then the provenance record receipts will chain to.
fn stage_model(stack: &TeeStack, fetch: &FetchOutcome, model_weights: &[Vec<f32>]) {
    let blob = fetch.recording.wire_blob();
    let n = stack
        .host
        .invoke(stack.session, cmd::LOAD_RECORDING, &blob)
        .expect("registry-vetted recording loads");
    let slots = u32::from_le_bytes([n[0], n[1], n[2], n[3]]) as usize;
    assert_eq!(slots, model_weights.len(), "weight slot count mismatch");
    for (i, w) in model_weights.iter().enumerate() {
        let mut p = (i as u32).to_le_bytes().to_vec();
        p.extend(w.iter().flat_map(|v| v.to_le_bytes()));
        stack
            .host
            .invoke(stack.session, cmd::SET_WEIGHTS, &p)
            .expect("staged weights match recording slots");
    }
    stack
        .host
        .invoke(
            stack.session,
            cmd::SET_PROVENANCE,
            &fetch.provenance.to_bytes(),
        )
        .expect("registry provenance matches the recording it vetted");
}

/// One `SET_INPUT`+`RUN` on `stack`: the replay's output bytes and how
/// long it took on the device clock.
fn replay_once(stack: &TeeStack, input: &[u8]) -> (Vec<u8>, SimTime) {
    let t0 = stack.device.clock.now();
    stack
        .host
        .invoke(stack.session, cmd::SET_INPUT, input)
        .expect("input matches recording slot");
    let output = stack
        .host
        .invoke(stack.session, cmd::RUN, &[])
        .expect("replay of vetted recording succeeds");
    (output, stack.device.clock.now() - t0)
}

/// What a probe measured on its throwaway stack before its own timings.
struct Probe {
    stack: TeeStack,
    /// Staging time (`LOAD_RECORDING` through `SET_PROVENANCE`).
    load: SimTime,
    /// Input 0 as wire bytes, and the output and duration of its first
    /// replay, which leaves the stack at warm TLB/page state.
    input: Vec<u8>,
    output: Vec<u8>,
    first_replay: SimTime,
}

/// Builds a throwaway probe stack for `(spec, sku)`, stages `fetch` on it
/// and runs one replay of input 0: the set-up and warm-up both profile
/// kinds share.
fn probe(
    spec: &NetworkSpec,
    sku: &GpuSku,
    fetch: &FetchOutcome,
    model_weights: &[Vec<f32>],
) -> Probe {
    let stats = Stats::new();
    let stack = TeeStack::new(sku.clone(), &stats);
    let t0 = stack.device.clock.now();
    stage_model(&stack, fetch, model_weights);
    let load = stack.device.clock.now() - t0;
    let input = input_bytes(spec, 0);
    let (output, first_replay) = replay_once(&stack, &input);
    Probe {
        stack,
        load,
        input,
        output,
        first_replay,
    }
}

/// Measures one `(model, SKU)` service profile on a probe: staging, a
/// first and a warm replay, and one fully verified replay receipt — so
/// the attestation path is proven end to end before modeled services
/// stand in for it.
fn measure_profile(
    spec: &NetworkSpec,
    sku: &GpuSku,
    fetch: &FetchOutcome,
    model_weights: &[Vec<f32>],
) -> ServiceProfile {
    let p = probe(spec, sku, fetch, model_weights);
    let receipt_bytes = p
        .stack
        .host
        .invoke(p.stack.session, cmd::RECEIPT, &[])
        .expect("completed replay has a receipt");
    let receipt = ReplayReceipt::from_bytes(&receipt_bytes).expect("probe receipt parses");
    verify_chain(
        &receipt,
        &fetch.provenance,
        &fetch.lint_json,
        PROVISIONING_SECRET,
    )
    .expect("probe receipt chains to registry provenance");
    verify_receipt_data(&receipt, &p.input, &p.output).expect("probe receipt covers its data");
    let (_, warm_replay) = replay_once(&p.stack, &p.input);
    ServiceProfile {
        load: p.load,
        first_replay: p.first_replay,
        warm_replay,
    }
}

/// Measures one warm `(model, SKU, B)` batched-replay duration on a
/// probe: one `RUN_BATCH` interval over `b` lanes, timed against the warm
/// TLB/page state it models.
fn measure_batch_profile(
    spec: &NetworkSpec,
    sku: &GpuSku,
    fetch: &FetchOutcome,
    model_weights: &[Vec<f32>],
    b: usize,
) -> SimTime {
    let p = probe(spec, sku, fetch, model_weights);
    let lanes: Vec<Vec<u8>> = (0..b as u64).map(|id| input_bytes(spec, id)).collect();
    let t0 = p.stack.device.clock.now();
    p.stack
        .host
        .invoke(p.stack.session, cmd::RUN_BATCH, &batch_payload(&lanes))
        .expect("batched replay of vetted recording succeeds");
    p.stack.device.clock.now() - t0
}

/// Request `id`'s test input as wire bytes.
fn input_bytes(spec: &NetworkSpec, id: u64) -> Vec<u8> {
    test_input(spec, id)
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect()
}

/// A `RUN_BATCH` payload: the lane count, then every lane's input bytes
/// in lane order.
fn batch_payload(lanes: &[Vec<u8>]) -> Vec<u8> {
    let mut payload = (lanes.len() as u32).to_le_bytes().to_vec();
    for lane in lanes {
        payload.extend_from_slice(lane);
    }
    payload
}

/// Serves one same-model batch of requests on one device through a
/// single replay, starting at `start` on the serving timeline, in four
/// steps: decide whether the interval fetches, exit on a failed fetch,
/// compute the service time for the mode, and account the fetch. A batch
/// of one takes exactly the scalar `SET_INPUT`+`RUN` path (so
/// `max_batch = 1` fleets are byte-identical to pre-batching ones);
/// larger batches drive one `RUN_BATCH` interval and verify its single
/// batch receipt against every staged input lane (DESIGN.md §14).
#[allow(clippy::too_many_arguments)] // Split borrows of Fleet's fields.
fn serve_batch(
    worker: &mut DeviceWorker,
    device_index: usize,
    reqs: &[Request],
    start: SimTime,
    plan: Option<&FaultPlan>,
    registry: &mut RecordingRegistry,
    models: &[NetworkSpec],
    weights: &mut [Option<Vec<Vec<f32>>>],
    mode: ServiceMode,
    profiles: &mut BTreeMap<(usize, u32), ServiceProfile>,
    batch_profiles: &mut BTreeMap<(usize, u32, usize), SimTime>,
    metrics: &mut MetricsCollector,
) -> ServeOutcome {
    // Job-queue-length-1: service intervals on one device never overlap.
    assert!(
        start >= worker.last_service_end,
        "device {device_index} would run two replays at once"
    );
    worker.inflight += 1;
    worker.max_inflight = worker.max_inflight.max(worker.inflight);

    let head = &reqs[0];
    let b = reqs.len();
    let spec = &models[head.model];
    let switch = worker.loaded_model != Some(head.model);

    // 1. An interval fetches on a model switch, and on every profiled
    // batch: the batch probe needs the recording, so a staged model's
    // fetch counts a registry hit, and an evicted entry re-records for
    // real.
    let profiled_batch = mode == ServiceMode::Profiled && b > 1;
    let fetch = if switch || profiled_batch {
        match registry.fetch(spec, &worker.sku) {
            Ok(f) => Some(f),
            // 2. A failed cold-start record fails every batched request.
            Err(_) => {
                metrics.failed += b as u64;
                worker.inflight -= 1;
                return ServeOutcome::Failed;
            }
        }
    } else {
        None
    };
    // Cold-start record delays are always real (the registry actually
    // recorded), never modeled: the full delay is charged to this
    // interval, whose requests waited for it.
    let cold_delay = fetch.as_ref().and_then(|f| f.cold_start_delay);

    // 3. The service time, by mode.
    let (raw_service, payload) = match mode {
        ServiceMode::Replay => {
            let stack = worker
                .stack
                .as_ref()
                .expect("replay-mode workers own a TEE stack");
            let t0 = stack.device.clock.now();
            if let Some(delay) = cold_delay {
                stack.device.clock.advance(delay);
            }
            if let Some(fetch) = &fetch {
                let mw = weights[head.model].get_or_insert_with(|| workload_weights(spec));
                stage_model(stack, fetch, mw);
            }
            // Per-request cost: input staging + replay only.
            let input_lanes: Vec<Vec<u8>> = reqs.iter().map(|r| input_bytes(spec, r.id)).collect();
            let output = if b == 1 {
                replay_once(stack, &input_lanes[0]).0
            } else {
                stack
                    .host
                    .invoke(stack.session, cmd::RUN_BATCH, &batch_payload(&input_lanes))
                    .expect("batched replay of vetted recording succeeds")
            };
            (
                stack.device.clock.now() - t0,
                Payload::Real {
                    input_lanes,
                    output,
                },
            )
        }
        ServiceMode::Profiled => {
            let key = (head.model, worker.sku.gpu_id);
            let svc = match &fetch {
                // A staged model's scalar interval: one profile lookup.
                None => {
                    profiles
                        .get(&key)
                        .expect("staged model was profiled at load")
                        .warm_replay
                }
                Some(fetch) => {
                    let mw = weights[head.model].get_or_insert_with(|| workload_weights(spec));
                    let profile = *profiles
                        .entry(key)
                        .or_insert_with(|| measure_profile(spec, &worker.sku, fetch, mw));
                    if profiled_batch {
                        let warm = *batch_profiles.entry((key.0, key.1, b)).or_insert_with(|| {
                            measure_batch_profile(spec, &worker.sku, fetch, mw, b)
                        });
                        // On a switch, staging plus the cold-first-replay
                        // penalty ride on the warm batched duration.
                        if switch {
                            warm + (profile.load
                                + profile.first_replay.saturating_sub(profile.warm_replay))
                        } else {
                            warm
                        }
                    } else {
                        profile.load + profile.first_replay
                    }
                }
            };
            (svc + cold_delay.unwrap_or(SimTime::ZERO), Payload::Modeled)
        }
    };

    // 4. What a fetch updates: the staged model, the attestation context
    // its receipts chain to, and (on a switch) the load count.
    if let Some(fetch) = fetch {
        worker.provenance = Some(fetch.provenance);
        worker.lint_json = Some(fetch.lint_json);
        worker.loaded_model = Some(head.model);
        worker.loads += u64::from(switch);
    }

    let mut service = raw_service;
    if let Some(p) = plan {
        // Thermal throttling / background contention stretch the interval.
        service = service.mul_f64(p.slowdown_at(device_index, start));
    }
    let end = start + service;

    if let Some(crash) = plan.and_then(|p| p.crash_within(device_index, start, end)) {
        // The device died mid-replay: everything since `start` is lost
        // and no lane's output ever reaches a client (nor the run
        // digest). Every batched request fails over.
        worker.busy += crash.at - start;
        worker.free_at = crash.at;
        worker.last_service_end = crash.at;
        worker.inflight -= 1;
        return ServeOutcome::Interrupted {
            reqs: reqs.to_vec(),
            at: crash.at,
        };
    }

    match payload {
        Payload::Real {
            input_lanes,
            output,
        } => {
            metrics.absorb_output(&output);
            // The replay is committed: pull its signed receipt and verify
            // the full chain (receipt → provenance → recording/lint
            // digests) plus the interval's own input/output bytes — one
            // receipt covers the whole batch (its input digest commits to
            // the lane vector, its output digest to the concatenated lane
            // outputs). Failures are counted by rule, never silently
            // dropped.
            let stack = worker
                .stack
                .as_ref()
                .expect("replay-mode workers own a TEE stack");
            let receipt_bytes = stack
                .host
                .invoke(stack.session, cmd::RECEIPT, &[])
                .expect("completed replay has a receipt");
            metrics.receipts_issued += 1;
            let verdict = ReplayReceipt::from_bytes(&receipt_bytes).and_then(|receipt| {
                let provenance = worker
                    .provenance
                    .as_deref()
                    .ok_or(grt_attest::VerifyError::MissingProvenance)?;
                let lint_json = worker.lint_json.as_deref().unwrap_or_default();
                verify_chain(&receipt, provenance, lint_json, PROVISIONING_SECRET)?;
                if input_lanes.len() == 1 {
                    verify_receipt_data(&receipt, &input_lanes[0], &output)
                } else {
                    grt_attest::verify_batch_receipt_data(&receipt, &input_lanes, &output)
                }
            });
            match verdict {
                Ok(()) => metrics.receipts_verified += 1,
                Err(e) => {
                    *metrics
                        .receipts_rejected
                        .entry(e.code().to_owned())
                        .or_insert(0) += 1;
                }
            }
        }
        Payload::Modeled => {
            // The modeled replay's deterministic stand-in for its output
            // bytes (one token per lane, in lane order); the receipt
            // itself was issued and verified for real on this
            // (model, SKU)'s probe run.
            for req in reqs {
                let mut token = req.id.to_le_bytes().to_vec();
                token.extend((req.model as u64).to_le_bytes());
                token.extend(worker.sku.gpu_id.to_le_bytes());
                metrics.absorb_output(&token);
            }
            metrics.receipts_issued += 1;
            metrics.receipts_verified += 1;
        }
    }

    worker.free_at = end;
    worker.last_service_end = end;
    worker.busy += service;
    worker.completed += b as u64;
    worker.inflight -= 1;
    let evicted = worker.health.on_success(service, end);
    ServeOutcome::Completed {
        samples: reqs
            .iter()
            .map(|req| RequestSample {
                id: req.id,
                model: req.model,
                device: device_index,
                queue_wait: start - req.arrival,
                service,
                total: end - req.arrival,
                cold_start: cold_delay.is_some(),
            })
            .collect(),
        batch_service: service,
        evicted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate_trace, TraceConfig};

    fn small_fleet() -> Fleet {
        // Deep queues: the test asserts zero rejections, and every request
        // arriving during a multi-second cold-start record must fit.
        let cfg = FleetConfig {
            queue_capacity: 64,
            ..FleetConfig::new(vec![GpuSku::mali_g71_mp8(), GpuSku::mali_g71_mp4()])
        };
        Fleet::new(vec![grt_ml::zoo::mnist()], cfg)
    }

    #[test]
    fn serves_a_short_trace_completely() {
        let mut fleet = small_fleet();
        let trace = generate_trace(1, &TraceConfig::new(20, 1));
        let report = fleet.run(&trace);
        assert_eq!(report.submitted, 20);
        assert_eq!(report.completed, 20);
        assert_eq!(report.rejected + report.timed_out + report.failed, 0);
        assert_eq!(report.max_inflight, 1);
        assert!(report.throughput_rps > 0.0);
        // No fault plan: the fault-tolerance section stays all-zero.
        assert_eq!(report.crashes + report.failovers + report.evictions, 0);
        // Two SKUs were exercised → at least two cold starts possible,
        // but a single-model trace needs at most one per SKU.
        assert!(report.cold_starts as usize <= 2);
        // Every completed replay produced a receipt and every receipt's
        // full chain verified against the registry provenance.
        assert_eq!(report.receipts_issued, report.completed);
        assert_eq!(report.receipts_verified, report.receipts_issued);
        assert!(report.receipts_rejected.is_empty());
    }

    #[test]
    fn affinity_amortizes_staging() {
        // One device, one model: exactly one LOAD_RECORDING for N runs.
        let cfg = FleetConfig {
            queue_capacity: 16,
            ..FleetConfig::new(vec![GpuSku::mali_g71_mp8()])
        };
        let mut fleet = Fleet::new(vec![grt_ml::zoo::mnist()], cfg);
        let trace = generate_trace(1, &TraceConfig::new(12, 3));
        let report = fleet.run(&trace);
        assert_eq!(report.completed, 12);
        assert_eq!(report.per_device[0].loads, 1);
        assert_eq!(report.cold_starts, 1);
    }

    #[test]
    fn queue_wait_reflects_contention() {
        // One device, arrivals far faster than service: later requests
        // wait longer than earlier ones.
        let cfg = FleetConfig {
            queue_capacity: 64,
            ..FleetConfig::new(vec![GpuSku::mali_g71_mp8()])
        };
        let mut fleet = Fleet::new(vec![grt_ml::zoo::mnist()], cfg);
        let trace_cfg = TraceConfig {
            mean_interarrival: SimTime::from_micros(100),
            ..TraceConfig::new(30, 5)
        };
        let trace = generate_trace(1, &trace_cfg);
        let report = fleet.run(&trace);
        assert_eq!(report.completed, 30);
        assert!(report.queue_wait.p99 > report.queue_wait.p50);
        assert!(report.total.p50 >= report.service.p50);
    }

    #[test]
    fn crash_fails_over_to_same_sku_peer() {
        // Two same-SKU devices; device 0 crashes mid-run. Everything the
        // crash displaces lands on device 1 (same SKU ⇒ the recording is
        // still valid) and the whole trace is accounted.
        // Crash lands inside device 0's first service interval (the
        // multi-second cold-start record), so it interrupts in-flight
        // work as well as displacing whatever queued behind it.
        let plan = Rc::new(FaultPlan::new().with_crash(
            0,
            SimTime::from_secs(1),
            SimTime::from_millis(500),
        ));
        let cfg = FleetConfig {
            queue_capacity: 64,
            ..FleetConfig::new(vec![GpuSku::mali_g71_mp8(), GpuSku::mali_g71_mp8()])
        }
        .with_faults(plan);
        let mut fleet = Fleet::new(vec![grt_ml::zoo::mnist()], cfg);
        let trace = generate_trace(1, &TraceConfig::new(24, 9));
        let (report, metrics) = fleet.run_detailed(&trace);
        assert_eq!(report.crashes, 1);
        assert!(report.failovers > 0, "crash must displace queued work");
        assert!(metrics.failovers.iter().all(|f| f.from == 0 && f.to == 1));
        assert_eq!(report.max_inflight, 1, "invariant holds through failover");
        assert_eq!(
            report.completed + report.rejected + report.timed_out + report.failed,
            report.submitted
        );
        // The crash-displaced work completed on the healthy peer.
        assert_eq!(report.failed, 0);
        assert_eq!(report.timed_out, 0);
        // Interrupted work never yields a receipt: issuance tracks
        // completions exactly, and every issued receipt verified.
        assert_eq!(report.receipts_issued, report.completed);
        assert_eq!(report.receipts_verified, report.completed);
        assert!(report.receipts_rejected.is_empty());
    }

    #[test]
    fn flapping_device_is_evicted_and_readmitted() {
        // Three back-to-back crashes on device 0 (each lands exactly at
        // the previous restart, so the device never completes a service
        // in between) cross the failure threshold: eviction, probation,
        // then a counted re-admission once the run drains past it.
        let plan = Rc::new(
            FaultPlan::new()
                .with_crash(0, SimTime::from_millis(100), SimTime::from_millis(10))
                .with_crash(0, SimTime::from_millis(110), SimTime::from_millis(10))
                .with_crash(0, SimTime::from_millis(120), SimTime::from_millis(10)),
        );
        let cfg = FleetConfig {
            queue_capacity: 64,
            ..FleetConfig::new(vec![GpuSku::mali_g71_mp8(), GpuSku::mali_g71_mp8()])
        }
        .with_faults(plan);
        let mut fleet = Fleet::new(vec![grt_ml::zoo::mnist()], cfg);
        let trace = generate_trace(1, &TraceConfig::new(10, 4));
        let report = fleet.run(&trace);
        assert_eq!(report.crashes, 3);
        assert_eq!(report.evictions, 1, "third consecutive crash evicts");
        assert_eq!(report.readmissions, 1, "probation ends during drain");
        assert_eq!(
            report.completed + report.rejected + report.timed_out + report.failed,
            report.submitted
        );
    }

    #[test]
    fn faulted_record_tunnel_counters_surface_in_report() {
        // A partition over the cold-start record window, long enough to
        // exhaust the per-message retry ladder, forces the tunnel through
        // retransmissions and a checkpoint resume; both surface in the
        // serve report's fault-tolerance section.
        let plan = Rc::new(
            FaultPlan::new().with_partition(SimTime::from_millis(800), SimTime::from_millis(3000)),
        );
        let cfg = FleetConfig {
            queue_capacity: 64,
            ..FleetConfig::new(vec![GpuSku::mali_g71_mp8()])
        }
        .with_faults(plan);
        let mut fleet = Fleet::new(vec![grt_ml::zoo::mnist()], cfg);
        let trace = generate_trace(1, &TraceConfig::new(6, 2));
        let report = fleet.run(&trace);
        assert_eq!(report.completed, 6);
        assert!(report.rec_link_retries > 0);
        assert!(report.rec_checkpoint_resumes > 0);
    }

    #[test]
    fn event_indexed_scheduler_matches_legacy_sweep() {
        // The tentpole's pin, in miniature: same trace, same fleet, both
        // schedulers → byte-identical reports and equal event logs. The
        // full harness (warm/cold registries, faults, random configs)
        // lives in tests/serve.rs.
        let run = |kind| {
            let cfg = FleetConfig {
                queue_capacity: 64,
                scheduler: kind,
                ..FleetConfig::new(vec![GpuSku::mali_g71_mp8(), GpuSku::mali_g71_mp4()])
            };
            let mut fleet = Fleet::new(vec![grt_ml::zoo::mnist()], cfg);
            let trace = generate_trace(1, &TraceConfig::new(16, 21));
            let (report, metrics) = fleet.run_detailed(&trace);
            (report.to_json(), metrics)
        };
        let (legacy_json, legacy_metrics) = run(SchedulerKind::LegacySweep);
        let (indexed_json, indexed_metrics) = run(SchedulerKind::EventIndexed);
        assert_eq!(legacy_json, indexed_json);
        assert_eq!(legacy_metrics, indexed_metrics);
    }

    #[test]
    fn profiled_mode_models_service_deterministically() {
        let run = || {
            let cfg = FleetConfig {
                queue_capacity: 64,
                service: ServiceMode::Profiled,
                ..FleetConfig::new(vec![GpuSku::mali_g71_mp8(), GpuSku::mali_g71_mp4()])
            };
            let mut fleet = Fleet::new(vec![grt_ml::zoo::mnist()], cfg);
            let trace = generate_trace(1, &TraceConfig::new(20, 1));
            fleet.run(&trace)
        };
        let a = run();
        assert_eq!(a.completed, 20);
        assert_eq!(a.rejected + a.timed_out + a.failed, 0);
        assert_eq!(a.max_inflight, 1);
        // Modeled services keep the attestation accounting invariant (the
        // probe verified one real receipt per (model, SKU)).
        assert_eq!(a.receipts_issued, a.completed);
        assert_eq!(a.receipts_verified, a.completed);
        assert!(a.cold_starts as usize <= 2);
        // Profiled runs are as deterministic as real ones.
        let b = run();
        assert_eq!(a.to_json(), b.to_json());
    }
}
