//! Plumbing the workloads share: a TEE driven through GP commands, op
//! inputs drawn from the seed, output and receipt checks, and the traced
//! record/vet breakdown phase.

use crate::outcome::{Metric, Outcome};
use crate::trace::{Layer, Tracer};
use grt_attest::{verify_batch_receipt_data, verify_chain, verify_receipt_data, ReplayReceipt};
use grt_core::replay::{workload_weights, REPLAY_POLL_ITER_CAP};
use grt_core::service::cmd;
use grt_core::session::{
    recording_trust_root, ClientDevice, RecordSession, RecorderMode, PROVISIONING_SECRET,
};
use grt_core::ReplayService;
use grt_gpu::GpuSku;
use grt_ml::reference::{test_input, ReferenceNet};
use grt_ml::NetworkSpec;
use grt_serve::{FetchOutcome, ZipfSampler};
use grt_sim::{Clock, Rng, Stats};
use grt_tee::TeeHost;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// The Zipf exponent of the model mix (the serving tier's default).
const ZIPF_EXPONENT: f64 = 1.1;

/// One device's TEE with an open replay-service session.
pub struct Tee {
    /// The simulated hardware the service drives, owned for the TEE's life.
    _device: ClientDevice,
    host: TeeHost,
    session: u32,
}

impl Tee {
    pub fn new(sku: &GpuSku) -> Tee {
        let device = ClientDevice::new(
            sku.clone(),
            &Clock::new(),
            &Stats::new(),
            PROVISIONING_SECRET,
        );
        let host = TeeHost::new(&device.monitor);
        host.register(Box::new(RefCell::new(ReplayService::new(
            &device,
            recording_trust_root(),
            Rc::new(grt_lint::Linter::new()),
        ))));
        let session = host
            .open_session("grt.replay")
            .expect("the replay module was just registered");
        Tee {
            _device: device,
            host,
            session,
        }
    }

    /// One GP command; a GP error becomes its message.
    pub fn invoke(&self, command: u32, input: &[u8]) -> Result<Vec<u8>, String> {
        self.host
            .invoke(self.session, command, input)
            .map_err(|e| format!("GP command {command} failed: {e:?}"))
    }
}

/// A network with its replay-time parameters serialized once as
/// `SET_WEIGHTS` payloads (slot index ‖ f32-LE values).
pub struct Model {
    pub spec: NetworkSpec,
    pub weight_payloads: Vec<Vec<u8>>,
}

impl Model {
    pub fn new(spec: NetworkSpec) -> Model {
        let weight_payloads = workload_weights(&spec)
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let mut p = (i as u32).to_le_bytes().to_vec();
                p.extend(f32_le(w));
                p
            })
            .collect();
        Model {
            spec,
            weight_payloads,
        }
    }
}

/// A registry fetch plus its lint report's JSON, which receipt-chain
/// verification hashes.
pub struct Vetted {
    pub fetch: FetchOutcome,
    pub lint_json: String,
}

impl Vetted {
    pub fn new(fetch: FetchOutcome) -> Vetted {
        let lint_json = fetch.lint.to_json();
        Vetted { fetch, lint_json }
    }
}

/// `LOAD_RECORDING` (the TEE's own verify/lint/compile, a vet call), then
/// every weight slot and the provenance record receipts chain to.
pub fn stage(t: &mut Tracer, tee: &Tee, vetted: &Vetted, model: &Model) -> Result<(), String> {
    let blob = vetted.fetch.recording.wire_blob();
    let (slots, _) = t.time(Layer::Vet, "vet.tee_load", |_| {
        tee.invoke(cmd::LOAD_RECORDING, &blob)
    });
    let slots = slots?;
    let slots = u32::from_le_bytes(slots[..4].try_into().map_err(|_| "short LOAD reply")?);
    if slots as usize != model.weight_payloads.len() {
        return Err(format!(
            "{}: recording has {slots} weight slots, model {}",
            model.spec.name,
            model.weight_payloads.len()
        ));
    }
    t.time(Layer::Replay, "replay.stage", |_| {
        for p in &model.weight_payloads {
            tee.invoke(cmd::SET_WEIGHTS, p)?;
        }
        tee.invoke(cmd::SET_PROVENANCE, &vetted.fetch.provenance.to_bytes())
    })
    .0
    .map(|_| ())
}

/// Parses a receipt and checks its signature chain to the registry's
/// provenance record and lint verdict.
fn chained(raw: &[u8], vetted: &Vetted) -> Result<ReplayReceipt, String> {
    let receipt = ReplayReceipt::from_bytes(raw).map_err(|e| format!("receipt: {e}"))?;
    verify_chain(
        &receipt,
        &vetted.fetch.provenance,
        &vetted.lint_json,
        PROVISIONING_SECRET,
    )
    .map_err(|e| format!("receipt chain: {e}"))?;
    Ok(receipt)
}

/// Full offline check of a scalar replay's receipt.
pub fn verify_scalar(
    raw: &[u8],
    vetted: &Vetted,
    input: &[u8],
    output: &[u8],
) -> Result<ReplayReceipt, String> {
    let receipt = chained(raw, vetted)?;
    verify_receipt_data(&receipt, input, output).map_err(|e| format!("receipt data: {e}"))?;
    Ok(receipt)
}

/// Full offline check of a batched replay's single receipt.
pub fn verify_batch(
    raw: &[u8],
    vetted: &Vetted,
    lanes: &[Vec<u8>],
    output: &[u8],
) -> Result<ReplayReceipt, String> {
    let receipt = chained(raw, vetted)?;
    verify_batch_receipt_data(&receipt, lanes, output)
        .map_err(|e| format!("batch receipt data: {e}"))?;
    Ok(receipt)
}

pub fn f32_le(v: &[f32]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn le_f32(b: &[u8]) -> Vec<f32> {
    b.chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

/// The input of op `op` under `seed`: a fresh deterministic image.
pub fn op_input(spec: &NetworkSpec, seed: u64, op: u64) -> Vec<f32> {
    test_input(spec, seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ op)
}

/// Compares a device output with the CPU reference at the relative
/// tolerance the end-to-end tests use.
pub fn check_reference(spec: &NetworkSpec, input: &[u8], output: &[u8]) -> Result<(), String> {
    let want = ReferenceNet::new(spec.clone()).infer(&le_f32(input));
    let got = le_f32(output);
    if got.len() != want.len() {
        return Err(format!(
            "{}: {} outputs, reference has {}",
            spec.name,
            got.len(),
            want.len()
        ));
    }
    match got
        .iter()
        .zip(&want)
        .position(|(x, y)| (x - y).abs() >= 1e-3 * (1.0 + x.abs().max(y.abs())))
    {
        None => Ok(()),
        Some(i) => Err(format!(
            "{}: output[{i}] = {} but the reference gives {}",
            spec.name, got[i], want[i]
        )),
    }
}

/// Ops per model for a block of `k` ops: one of each model, the rest
/// split by Zipf popularity (largest remainder). A fixed quota keeps the
/// model mix, and so the host work, the same for every seed; the seed
/// picks the order and the inputs.
pub fn zipf_quota(models: usize, k: usize) -> Vec<usize> {
    assert!(k >= models, "a block holds at least one op per model");
    let zipf = ZipfSampler::new(models, ZIPF_EXPONENT);
    let spare = (k - models) as f64;
    let exact: Vec<f64> = (0..models).map(|m| spare * zipf.mass(m)).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut order: Vec<usize> = (0..models).collect();
    order.sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = k - models - counts.iter().sum::<usize>();
    for &m in order.iter().take(short) {
        counts[m] += 1;
    }
    counts.iter().map(|c| c + 1).collect()
}

/// A seed-shuffled block: model index per op, following [`zipf_quota`].
pub fn zipf_block(models: usize, k: usize, seed: u64) -> Vec<usize> {
    let mut block: Vec<usize> = zipf_quota(models, k)
        .iter()
        .enumerate()
        .flat_map(|(m, &c)| std::iter::repeat_n(m, c))
        .collect();
    shuffle(&mut block, &mut Rng::new(seed));
    block
}

/// Fisher–Yates with the simulator's deterministic RNG.
pub fn shuffle<T>(v: &mut [T], rng: &mut Rng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(i as u64 + 1) as usize;
        v.swap(i, j);
    }
}

/// Op `i` of the first block has its output compared with the CPU
/// reference when `i` is a multiple of 8 or the block's first op of its
/// model: at least 1/8 of ops and every model.
pub fn reference_sample(block: &[usize]) -> Vec<bool> {
    let mut seen = Vec::new();
    block
        .iter()
        .enumerate()
        .map(|(i, &m)| {
            let first = !seen.contains(&m);
            seen.push(m);
            i % 8 == 0 || first
        })
        .collect()
}

/// The measured phase shared by the closed-loop workloads: ops `0..n`
/// of a block, each timed in a `bench.op` span, as whole blocks until
/// `seconds` have passed. `new_block` makes each block's fresh state
/// outside the clock. An op that errs counts as failed; a later block's
/// result that differs from the first block's is a wrong output. Reads
/// the peak RSS when the phase ends and returns the first block's results.
pub fn measure_blocks<S, T: PartialEq>(
    t: &mut Tracer,
    o: &mut Outcome,
    n: usize,
    seconds: u64,
    items_per_op: u64,
    mut new_block: impl FnMut() -> S,
    mut op: impl FnMut(&mut Tracer, &mut S, usize) -> Result<T, String>,
) -> Vec<Option<T>> {
    let mut first: Vec<Option<T>> = Vec::new();
    let deadline = Duration::from_secs(seconds);
    let start = Instant::now();
    for round in 0.. {
        let mut state = new_block();
        for i in 0..n {
            let id = round * n + i;
            t.set_op(Some(id as u64));
            let (res, secs) = t.time(Layer::Bench, "bench.op", |t| op(t, &mut state, i));
            o.attempted += 1;
            let done = match res {
                Err(e) => {
                    o.failed += 1;
                    o.notes.push(format!("op {id} failed: {e}"));
                    None
                }
                Ok(done) => {
                    o.op_s.push(secs);
                    o.items += items_per_op;
                    Some(done)
                }
            };
            if round == 0 {
                first.push(done);
            } else if let (Some(a), Some(b)) = (&first[i], &done) {
                if a != b {
                    o.wrong(format!(
                        "op {id}: result differs from op {i} on the same input"
                    ));
                }
            }
        }
        if start.elapsed() >= deadline {
            break;
        }
    }
    t.set_op(None);
    o.peak_rss_mb = peak_rss_mb();
    first
}

/// Set-up is timed at least this long in total, so a cheap set-up is
/// repeated until its median is steady.
const MIN_SETUP_SECS: f64 = 1.0;

/// Runs `set_up` at least `min_runs` times and until [`MIN_SETUP_SECS`]
/// have been timed, recording each duration in `o.setup_s` (whose median
/// is `setup_s`). Only the newest result stays resident.
pub fn repeat_setup<T>(
    t: &mut Tracer,
    o: &mut Outcome,
    min_runs: usize,
    mut set_up: impl FnMut(&mut Tracer) -> Result<T, String>,
) -> Result<T, String> {
    let mut kept = None;
    while o.setup_s.len() < min_runs || o.setup_s.iter().sum::<f64>() < MIN_SETUP_SECS {
        drop(kept.take());
        let (made, secs) = t.time(Layer::Bench, "bench.setup", &mut set_up);
        o.setup_s.push(secs);
        kept = Some(made?);
    }
    Ok(kept.expect("the loop runs at least once"))
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Traced runs only: records each `(network, SKU)` pair alone with
/// `RecordSession::record` over WiFi (the registry's cold-start
/// recorder), then calls each vet function alone on the recording, so
/// record and vet time split into their parts. Returns the layers'
/// counts.
pub fn breakdown(t: &mut Tracer, pairs: &[(NetworkSpec, GpuSku)]) -> Result<Vec<Metric>, String> {
    #[derive(Default)]
    struct Sums {
        rtts: u64,
        mispredictions: u64,
        sync_bytes: u64,
        spec_commits: u64,
        sync_commits: u64,
        skipped: u64,
        dumped: u64,
        events: u64,
        ops: u64,
        chains: u64,
    }
    let mut c = Sums::default();
    for (spec, sku) in pairs {
        let mut session = RecordSession::new(
            sku.clone(),
            grt_net::NetConditions::wifi(),
            RecorderMode::OursMDS,
        );
        let (out, _) = t.time_tagged(Layer::Record, "record.session", spec.name, |_| {
            session.record(spec)
        });
        let out = out.map_err(|e| format!("{} on {}: record failed: {e}", spec.name, sku.name))?;
        let st = &session.stats;
        c.rtts += out.blocking_rtts;
        c.sync_bytes += out.sync_bytes;
        c.mispredictions += st.get("spec.mispredictions");
        c.spec_commits += st.get("spec.commits_speculative");
        c.sync_commits += st.get("spec.commits_sync");
        c.skipped += st.get("sync.down_regions_clean_skipped");
        c.dumped += st.get("sync.down_regions_dumped");

        let trust = recording_trust_root();
        let (parsed, _) = t.time(Layer::Vet, "vet.verify", |_| {
            out.recording.verify_and_parse(&trust)
        });
        let parsed =
            parsed.ok_or_else(|| format!("{}: recording fails verification", spec.name))?;
        let (ir, _) = t.time(Layer::Vet, "vet.lift", |_| {
            grt_core::ir::lift_recording(&parsed, sku.pte_quirk)
        });
        let linter = grt_lint::Linter::new();
        let (report, _) = t.time(Layer::Vet, "vet.lint", |_| {
            linter.lint_ir(&ir, sku, Some(spec))
        });
        if let Some(d) = report.first_error() {
            return Err(format!(
                "{}: lint rejects the recording: {}",
                spec.name, d.message
            ));
        }
        t.time(Layer::Vet, "vet.fuse", |_| grt_ir::fusion::analyze(&ir));
        // Lowering consumes its IR, so it gets a second (untimed) lift.
        let unfused_ir = grt_core::ir::lift_recording(&parsed, sku.pte_quirk);
        let (compiled, _) = t.time(Layer::Vet, "vet.compile", |_| {
            grt_core::compiled::compile_from_ir_opts(
                &parsed,
                unfused_ir,
                REPLAY_POLL_ITER_CAP,
                false,
            )
        });
        compiled.map_err(|e| format!("{}: compile failed: {e}", spec.name))?;
        // Counts come from the production (fused) lowering, untimed.
        let fused = grt_core::compiled::compile_from_ir(&parsed, ir, REPLAY_POLL_ITER_CAP)
            .map_err(|e| format!("{}: compile failed: {e}", spec.name))?;
        c.events += parsed.events.len() as u64;
        c.ops += fused
            .kept_ranges()
            .iter()
            .map(|&(a, b)| u64::from(b - a))
            .sum::<u64>();
        c.chains += u64::from(fused.fusion_summary().chains_fused);
    }
    let share = |a: u64, b: u64| a as f64 / (a + b).max(1) as f64;
    Ok(vec![
        Metric::new("record.blocking_rtts", "count", c.rtts as f64),
        Metric::new("record.mispredictions", "count", c.mispredictions as f64),
        Metric::new("record.sync_bytes", "bytes", c.sync_bytes as f64),
        Metric::new(
            "record.speculative_commit_share",
            "fraction",
            share(c.spec_commits, c.sync_commits),
        ),
        Metric::new(
            "record.clean_skip_share",
            "fraction",
            share(c.skipped, c.dumped),
        ),
        Metric::new("vet.events", "count", c.events as f64),
        Metric::new("vet.compiled_ops", "count", c.ops as f64),
        Metric::new("vet.chains_fused", "count", c.chains as f64),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quota_keeps_one_per_model_and_zipf_order() {
        for k in [6, 10, 24, 100] {
            let q = zipf_quota(6, k);
            assert_eq!(q.iter().sum::<usize>(), k);
            assert!(q.iter().all(|&c| c >= 1));
            assert!(q.windows(2).all(|w| w[0] >= w[1]), "{q:?}");
        }
        assert_eq!(zipf_quota(6, 10), vec![3, 2, 2, 1, 1, 1]);
    }

    #[test]
    fn blocks_are_seeded_permutations_of_the_quota() {
        let a = zipf_block(6, 100, 42);
        assert_eq!(a, zipf_block(6, 100, 42));
        assert_ne!(a, zipf_block(6, 100, 7));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        let mut b = zipf_block(6, 100, 7);
        b.sort_unstable();
        assert_eq!(sorted, b);
    }

    #[test]
    fn reference_sample_covers_an_eighth_and_every_model() {
        let block = zipf_block(6, 100, 3);
        let sample = reference_sample(&block);
        assert!(sample.iter().filter(|&&s| s).count() * 8 >= block.len());
        for m in 0..6 {
            assert!(block.iter().zip(&sample).any(|(&b, &s)| b == m && s));
        }
    }
}
