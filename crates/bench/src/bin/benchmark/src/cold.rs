//! `cold-start`: the paper's Fig. 7 path. Each op asks an empty registry
//! for one `(network, SKU)` pair — a WiFi record run plus vetting — then a
//! new TEE loads, stages and replays it once and its receipt is checked.
//! Record and vet do nearly all the work and the registry never hits.

use crate::common::{
    breakdown, check_reference, f32_le, measure_blocks, op_input, repeat_setup, shuffle, stage,
    verify_scalar, Model, Tee, Vetted,
};
use crate::outcome::{Metric, Outcome};
use crate::stats;
use crate::trace::{Layer, Tracer};
use grt_core::service::cmd;
use grt_crypto::Sha256;
use grt_gpu::GpuSku;
use grt_serve::{RecordingRegistry, RegistryConfig};
use grt_sim::Rng;

/// Least set-up repetitions; `setup_s` is their median.
const SETUP_RUNS: usize = 3;

/// The four Mali SKUs of the heterogeneous fleet, in fleet order.
pub fn distinct_skus() -> Vec<GpuSku> {
    let mut skus: Vec<GpuSku> = Vec::new();
    for sku in grt_bench::heterogeneous_fleet() {
        if !skus.iter().any(|s| s.gpu_id == sku.gpu_id) {
            skus.push(sku);
        }
    }
    skus
}

/// What set-up prepares: the networks' weight payloads and the block of
/// every `(network, SKU)` pair in seed order, with each op's input.
struct Prepared {
    models: Vec<Model>,
    skus: Vec<GpuSku>,
    /// `(model, sku, f32-LE input)` per op.
    ops: Vec<(usize, usize, Vec<u8>)>,
}

fn set_up(seed: u64) -> Prepared {
    let models: Vec<Model> = grt_bench::benchmarks()
        .into_iter()
        .map(Model::new)
        .collect();
    let skus = distinct_skus();
    let mut pairs: Vec<(usize, usize)> = (0..skus.len())
        .flat_map(|s| (0..models.len()).map(move |m| (m, s)))
        .collect();
    shuffle(&mut pairs, &mut Rng::new(seed));
    let ops = pairs
        .into_iter()
        .enumerate()
        .map(|(i, (m, s))| (m, s, f32_le(&op_input(&models[m].spec, seed, i as u64))))
        .collect();
    Prepared { models, skus, ops }
}

/// One cold start; returns the first replay's output and the virtual
/// record time.
fn cold_op(
    t: &mut Tracer,
    registry: &mut RecordingRegistry,
    model: &Model,
    sku: &GpuSku,
    input: &[u8],
) -> Result<(Vec<u8>, f64), String> {
    let name = model.spec.name;
    let (fetch, _) = t.time_tagged(Layer::Vet, "vet.registry_fetch", name, |_| {
        registry.fetch(&model.spec, sku)
    });
    let vetted = Vetted::new(fetch.map_err(|e| format!("{name} on {}: {e}", sku.name))?);
    let record_s = vetted
        .fetch
        .cold_start_delay
        .ok_or_else(|| format!("{name} on {}: an empty registry hit", sku.name))?
        .as_secs_f64();
    let (tee, _) = t.time(Layer::Replay, "replay.device_new", |_| Tee::new(sku));
    stage(t, &tee, &vetted, model)?;
    let out = t
        .time_tagged(Layer::Replay, "replay.first_run", name, |_| {
            tee.invoke(cmd::SET_INPUT, input)?;
            tee.invoke(cmd::RUN, &[])
        })
        .0?;
    let raw = t
        .time(Layer::Replay, "replay.receipt", |_| {
            tee.invoke(cmd::RECEIPT, &[])
        })
        .0?;
    t.time(Layer::Attest, "attest.verify", |_| {
        verify_scalar(&raw, &vetted, input, &out)
    })
    .0?;
    t.time(Layer::Replay, "replay.device_drop", |_| drop(tee));
    Ok((out, record_s))
}

pub fn run(t: &mut Tracer, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let mut o = Outcome {
        item_name: "cold starts",
        ..Outcome::default()
    };
    let p = repeat_setup(t, &mut o, SETUP_RUNS, |_| Ok(set_up(seed)))?;

    // Whole blocks (every pair once, against a fresh registry) until
    // `seconds` have passed; later blocks must reproduce the first.
    let first = measure_blocks(
        t,
        &mut o,
        p.ops.len(),
        seconds,
        1,
        || RecordingRegistry::new(RegistryConfig::new(p.ops.len())),
        |t, registry, i| {
            let (m, s, input) = &p.ops[i];
            cold_op(t, registry, &p.models[*m], &p.skus[*s], input)
        },
    );

    // Every first-block output against the CPU reference (24 ops).
    let mut digest = Sha256::new();
    let mut record_s = Vec::new();
    for ((m, _, input), done) in p.ops.iter().zip(&first) {
        let Some((out, rec)) = done else { continue };
        digest.update(out);
        record_s.push(*rec);
        if let Err(e) = check_reference(&p.models[*m].spec, input, out) {
            o.wrong(e);
        }
    }
    o.outputs_digest = Sha256::to_hex(&digest.finalize());
    o.modeled.push(Metric::new(
        "modeled_record_s_p50",
        "s",
        stats::median(&record_s).unwrap_or(f64::NAN),
    ));
    if t.enabled() {
        let pairs: Vec<_> = p
            .ops
            .iter()
            .map(|(m, s, _)| (p.models[*m].spec.clone(), p.skus[*s].clone()))
            .collect();
        o.counts = breakdown(t, &pairs)?;
    }
    Ok(o)
}
