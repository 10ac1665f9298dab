//! `replay-scalar` and `replay-batch8`: GR-T's steady state. Each of the
//! six networks is recorded and vetted once (registry fetch on a
//! Mali-G71 MP8) and staged on its own TEE during set-up; the measured
//! ops are warm replays through GP commands plus offline receipt checks,
//! so the replay layer does nearly all the measured work.

use crate::common::{
    breakdown, check_reference, f32_le, measure_blocks, op_input, reference_sample, repeat_setup,
    stage, verify_batch, verify_scalar, zipf_block, Model, Tee, Vetted,
};
use crate::outcome::{Metric, Outcome};
use crate::stats;
use crate::trace::{Layer, Tracer};
use grt_attest::ReplayReceipt;
use grt_core::service::cmd;
use grt_crypto::Sha256;
use grt_gpu::GpuSku;
use grt_serve::{RecordingRegistry, RegistryConfig};

/// Least set-up repetitions; `setup_s` is their median.
const SETUP_RUNS: usize = 3;

/// The op mix one block of each workload cycles through.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// 100 `SET_INPUT`+`RUN` ops per block (about 1.7 s on a 2-core VM).
    Scalar,
    /// 10 `RUN_BATCH` ops of this many lanes per block (about 6 s).
    Batch(usize),
}

impl Shape {
    fn block_len(self) -> usize {
        match self {
            Shape::Scalar => 100,
            Shape::Batch(_) => 10,
        }
    }

    fn lanes(self) -> usize {
        match self {
            Shape::Scalar => 1,
            Shape::Batch(b) => b,
        }
    }
}

/// Six networks, each recorded, vetted and staged on its own TEE.
struct Staged {
    models: Vec<Model>,
    vetted: Vec<Vetted>,
    tees: Vec<Tee>,
}

fn set_up(t: &mut Tracer) -> Result<Staged, String> {
    let sku = GpuSku::mali_g71_mp8();
    let (models, _) = t.time(Layer::Bench, "bench.models", |_| {
        grt_bench::benchmarks()
            .into_iter()
            .map(Model::new)
            .collect::<Vec<_>>()
    });
    let mut registry = RecordingRegistry::new(RegistryConfig::new(models.len()));
    let mut vetted = Vec::new();
    let mut tees = Vec::new();
    for model in &models {
        let name = model.spec.name;
        let (fetch, _) = t.time_tagged(Layer::Vet, "vet.registry_fetch", name, |_| {
            registry.fetch(&model.spec, &sku)
        });
        let v = Vetted::new(fetch.map_err(|e| format!("{name}: registry fetch failed: {e}"))?);
        let (tee, _) = t.time(Layer::Replay, "replay.device_new", |_| Tee::new(&sku));
        stage(t, &tee, &v, model)?;
        vetted.push(v);
        tees.push(tee);
    }
    Ok(Staged {
        models,
        vetted,
        tees,
    })
}

/// One block op's inputs, built before the clock starts.
struct OpInput {
    model: usize,
    /// Per-lane f32-LE input images.
    lanes: Vec<Vec<u8>>,
    /// The `RUN_BATCH` payload (`u32` lane count ‖ lanes); empty for scalar.
    payload: Vec<u8>,
}

fn run_op(t: &mut Tracer, s: &Staged, op: &OpInput) -> Result<(Vec<u8>, ReplayReceipt), String> {
    let tee = &s.tees[op.model];
    let vetted = &s.vetted[op.model];
    let name = s.models[op.model].spec.name;
    if op.payload.is_empty() {
        let input = &op.lanes[0];
        t.time(Layer::Replay, "replay.set_input", |_| {
            tee.invoke(cmd::SET_INPUT, input)
        })
        .0?;
        let out = t
            .time_tagged(Layer::Replay, "replay.run", name, |_| {
                tee.invoke(cmd::RUN, &[])
            })
            .0?;
        let raw = t
            .time(Layer::Replay, "replay.receipt", |_| {
                tee.invoke(cmd::RECEIPT, &[])
            })
            .0?;
        let receipt = t
            .time(Layer::Attest, "attest.verify", |_| {
                verify_scalar(&raw, vetted, input, &out)
            })
            .0?;
        Ok((out, receipt))
    } else {
        let out = t
            .time_tagged(Layer::Replay, "replay.run_batch", name, |_| {
                tee.invoke(cmd::RUN_BATCH, &op.payload)
            })
            .0?;
        let raw = t
            .time(Layer::Replay, "replay.receipt", |_| {
                tee.invoke(cmd::RECEIPT, &[])
            })
            .0?;
        let receipt = t
            .time(Layer::Attest, "attest.verify", |_| {
                verify_batch(&raw, vetted, &op.lanes, &out)
            })
            .0?;
        Ok((out, receipt))
    }
}

pub fn run(t: &mut Tracer, shape: Shape, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let mut o = Outcome {
        item_name: "inferences",
        ..Outcome::default()
    };
    let s = repeat_setup(t, &mut o, SETUP_RUNS, set_up)?;

    let block = zipf_block(s.models.len(), shape.block_len(), seed);
    let lanes = shape.lanes();
    let inputs: Vec<OpInput> = block
        .iter()
        .enumerate()
        .map(|(i, &m)| {
            let lane_inputs: Vec<Vec<u8>> = (0..lanes)
                .map(|l| f32_le(&op_input(&s.models[m].spec, seed, (i * lanes + l) as u64)))
                .collect();
            let payload = match shape {
                Shape::Scalar => Vec::new(),
                Shape::Batch(b) => {
                    let mut p = (b as u32).to_le_bytes().to_vec();
                    lane_inputs.iter().for_each(|l| p.extend_from_slice(l));
                    p
                }
            };
            OpInput {
                model: m,
                lanes: lane_inputs,
                payload,
            }
        })
        .collect();

    // Warm-up, untimed: each TEE's first replay after staging pays
    // one-time costs that steady-state replays never see.
    let warm = t
        .time(Layer::Bench, "bench.warmup", |t| {
            (0..s.models.len())
                .map(|m| {
                    let i = block
                        .iter()
                        .position(|&b| b == m)
                        .expect("every model is in the block");
                    Ok((i, run_op(t, &s, &inputs[i])?.0))
                })
                .collect::<Result<Vec<_>, String>>()
        })
        .0?;

    // Measured phase: whole blocks until `seconds` have passed. Later
    // blocks repeat the first block's inputs, so each of their outputs
    // must equal the first block's bit for bit (receipts are compared
    // too: their counters are deterministic).
    let first = measure_blocks(
        t,
        &mut o,
        inputs.len(),
        seconds,
        lanes as u64,
        || (),
        |t, _, i| run_op(t, &s, &inputs[i]),
    );
    for (i, out) in warm {
        if first[i].as_ref().is_some_and(|f| f.0 != out) {
            o.wrong(format!(
                "warm-up op {i}: output differs from the timed replay"
            ));
        }
    }

    // Outside the clock: the CPU reference on a deterministic sample of
    // the first block, every lane of each sampled batch.
    let mut digest = Sha256::new();
    for ((op, done), sampled) in inputs.iter().zip(&first).zip(reference_sample(&block)) {
        let Some((out, _)) = done else { continue };
        digest.update(out);
        if !sampled {
            continue;
        }
        let spec = &s.models[op.model].spec;
        let per_lane = out.len() / lanes;
        for (l, lane_out) in out.chunks(per_lane.max(1)).enumerate() {
            if let Err(e) = check_reference(spec, &op.lanes[l], lane_out) {
                o.wrong(format!("lane {l}: {e}"));
            }
        }
    }
    o.outputs_digest = Sha256::to_hex(&digest.finalize());

    let counters: Vec<_> = first.iter().flatten().map(|(_, r)| r.counters).collect();
    let ms = |ns: u64| ns as f64 / 1e6;
    let total_ms: Vec<f64> = counters.iter().map(|c| ms(c.total_ns)).collect();
    o.modeled.push(Metric::new(
        "modeled_latency_ms_p50",
        "ms",
        stats::median(&total_ms).unwrap_or(f64::NAN),
    ));
    if t.enabled() {
        let (hits, misses) = counters
            .iter()
            .fold((0, 0), |(h, m), c| (h + c.tlb_hits, m + c.tlb_misses));
        let events: Vec<f64> = counters.iter().map(|c| c.events as f64).collect();
        let overhead: Vec<f64> = counters.iter().map(|c| ms(c.overhead_ns)).collect();
        o.counts.push(Metric::new(
            "replay.events",
            "count",
            stats::median(&events).unwrap_or(0.0),
        ));
        o.counts.push(Metric::new(
            "replay.tlb_hit_ratio",
            "fraction",
            hits as f64 / (hits + misses).max(1) as f64,
        ));
        o.counts.push(Metric::new(
            "replay.modeled_overhead_ms",
            "ms",
            stats::median(&overhead).unwrap_or(0.0),
        ));
        let sku = GpuSku::mali_g71_mp8();
        let pairs: Vec<_> = s
            .models
            .iter()
            .map(|m| (m.spec.clone(), sku.clone()))
            .collect();
        let counts = breakdown(t, &pairs)?;
        o.counts.extend(counts);
    }
    Ok(o)
}
