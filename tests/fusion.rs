//! Superinstruction fusion oracle (DESIGN.md §15): fusion is a lowering
//! decision that must be *invisible* in the bytes.
//!
//! - Fused compiled replay must be bitwise identical to the unfused
//!   compiled lowering and to the interpreted path, across every zoo
//!   network and randomized shape-consistent networks.
//! - Fused batched replay must stay lane-for-lane identical to sequential
//!   fused scalar replays.
//! - Layered replay walks the fused compiled recording and must still
//!   yield every layer and the same output bits.
//! - Fusion must actually fire on the conv nets (the perf win is load-
//!   bearing: ISSUE 10 gates ≥1.15× on ResNet12/VGG16), and the virtual-
//!   time model must show the warm replay getting faster, not just the op
//!   count shrinking.

use grt_core::compiled::{compile_from_ir_opts, CompiledRecording};
use grt_core::replay::{workload_weights, Replayer, REPLAY_POLL_ITER_CAP};
use grt_core::session::{RecordOutcome, RecordSession, RecorderMode};
use grt_ml::reference::test_input;
use grt_ml::NetworkSpec;
use std::rc::Rc;

fn zoo(name: &str) -> NetworkSpec {
    grt_ml::zoo::all_benchmarks()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap()
}

/// Static layer-name pool for randomized specs (`LayerSpec::name` is
/// `&'static str`).
const RAND_LAYER_NAMES: [&str; 12] = [
    "fz0", "fz1", "fz2", "fz3", "fz4", "fz5", "fz6", "fz7", "fz8", "fz9", "fz10", "fz11",
];

/// Random but shape-consistent conv/pool/FC network (same scheme as the
/// fastpath suite): the randomness is in geometry, splits, and setup
/// jobs, which is exactly what perturbs the fusion pass's job stream.
fn random_spec(seed: u64) -> NetworkSpec {
    use grt_gpu::{ConvParams, PoolKind};
    use grt_ml::{LayerOp, LayerSpec};
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut pick = move |lo: u32, hi: u32| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        lo + (state >> 33) as u32 % (hi - lo + 1)
    };
    let mut c = pick(1, 3);
    let mut h = pick(8, 14);
    let input_len = c * h * h;
    let mut layers: Vec<LayerSpec> = Vec::new();
    for _ in 0..pick(1, 3) {
        let k = pick(1, 3).min(h);
        let p = ConvParams {
            in_c: c,
            in_h: h,
            in_w: h,
            out_c: pick(1, 6),
            k,
            stride: 1,
            pad: pick(0, 1),
        };
        let op = LayerOp::Conv {
            p,
            relu: pick(0, 1) == 1,
        };
        let macs = op.actual_macs();
        layers.push(LayerSpec {
            name: RAND_LAYER_NAMES[layers.len()],
            op,
            splits: pick(1, 3),
            setup_jobs: pick(0, 2),
            nominal_macs: macs * 50,
            nominal_data_bytes: 10_000,
            save_skip: false,
        });
        c = p.out_c;
        h = p.out_h();
        if h >= 2 && pick(0, 1) == 1 {
            let kind = if pick(0, 1) == 1 {
                PoolKind::Max
            } else {
                PoolKind::Avg
            };
            let op = LayerOp::Pool {
                kind,
                c,
                h,
                w: h,
                k: 2,
                stride: 2,
            };
            let macs = op.actual_macs();
            layers.push(LayerSpec {
                name: RAND_LAYER_NAMES[layers.len()],
                op,
                splits: 1,
                setup_jobs: pick(0, 1),
                nominal_macs: macs * 50,
                nominal_data_bytes: 10_000,
                save_skip: false,
            });
            h = (h - 2) / 2 + 1;
        }
    }
    let out_dim = pick(2, 10);
    let fc = LayerOp::Fc {
        in_dim: c * h * h,
        out_dim,
        relu: pick(0, 1) == 1,
    };
    let fc_macs = fc.actual_macs();
    layers.push(LayerSpec {
        name: RAND_LAYER_NAMES[layers.len()],
        op: fc,
        splits: pick(1, 2),
        setup_jobs: pick(0, 1),
        nominal_macs: fc_macs * 50,
        nominal_data_bytes: 10_000,
        save_skip: false,
    });
    layers.push(LayerSpec {
        name: RAND_LAYER_NAMES[layers.len()],
        op: LayerOp::Softmax { len: out_dim },
        splits: 1,
        setup_jobs: 0,
        nominal_macs: out_dim as u64 * 4,
        nominal_data_bytes: 1_000,
        save_skip: false,
    });
    NetworkSpec {
        name: "FusionRandomNet",
        input_len,
        output_len: out_dim,
        layers,
    }
}

fn rig(spec: &NetworkSpec) -> (RecordSession, RecordOutcome) {
    let mut s = RecordSession::new(
        grt_gpu::GpuSku::mali_g71_mp8(),
        grt_net::NetConditions::wifi(),
        RecorderMode::OursMDS,
    );
    let out = s.record(spec).expect("record");
    (s, out)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The event-for-event lowering of the same recording, fusion off.
fn unfused_of(s: &RecordSession, out: &RecordOutcome) -> CompiledRecording {
    let rec = out.recording.verify_and_parse(&s.recording_key()).unwrap();
    let ir = grt_core::ir::lift_recording(&rec, s.client.gpu.borrow().sku().pte_quirk);
    compile_from_ir_opts(&rec, ir, REPLAY_POLL_ITER_CAP, false).unwrap()
}

/// Fused output bits equal the unfused compiled lowering *and* the
/// interpreted path on every zoo network, and fused warm replay is
/// virtual-time faster wherever chains formed.
#[test]
fn fused_replay_is_bitwise_identical_across_the_zoo() {
    for spec in grt_ml::zoo::all_benchmarks() {
        let (s, out) = rig(&spec);
        let key = s.recording_key();
        let mut replayer = Replayer::new(&s.client, Rc::new(grt_lint::Linter::new()));
        let weights = workload_weights(&spec);
        let fused = replayer.compile_signed(&out.recording, &key).unwrap();
        let unfused = unfused_of(&s, &out);
        assert!(unfused.fusion_plan().is_empty(), "{}", spec.name);

        for variant in [0x21u64, 0x5E] {
            let input = test_input(&spec, variant);
            let (base, base_t) = replayer
                .replay_compiled(&unfused, &input, &weights)
                .unwrap();
            let base_events = replayer.last_profile().events;
            let (interp, _) = replayer
                .replay(&out.recording, &key, &input, &weights)
                .unwrap();
            let (fast, fast_t) = replayer.replay_compiled(&fused, &input, &weights).unwrap();
            let profile = replayer.last_profile();

            assert_eq!(bits(&base), bits(&fast), "{}: fused vs unfused", spec.name);
            assert_eq!(
                bits(&interp),
                bits(&fast),
                "{}: fused vs interpreted",
                spec.name
            );
            let summary = profile.fusion;
            assert_eq!(summary, fused.fusion_summary(), "{}", spec.name);
            assert_eq!(
                base_events - profile.events,
                summary.steps_elided,
                "{}: elided steps accounting",
                spec.name
            );
            if summary.jobs_elided > 0 {
                assert!(
                    fast_t < base_t,
                    "{}: fused warm replay must be faster ({fast_t:?} vs {base_t:?})",
                    spec.name
                );
            }
        }
    }
}

/// The conv nets the perf gate measures must actually fuse: identity
/// staging copies elide and conv→(add)→relu chains form.
#[test]
fn conv_nets_fuse_nontrivially() {
    for name in ["ResNet12", "VGG16"] {
        let spec = zoo(name);
        let (s, out) = rig(&spec);
        let key = s.recording_key();
        let mut replayer = Replayer::new(&s.client, Rc::new(grt_lint::Linter::new()));
        let fused = replayer.compile_signed(&out.recording, &key).unwrap();
        let summary = fused.fusion_summary();
        assert!(summary.chains_fused > 0, "{name}: no chains fused");
        assert!(summary.copies_elided > 0, "{name}: no copies elided");
        assert!(summary.steps_elided > 0, "{name}");
        assert!(
            fused.kept_ranges().len() as u64 > 1,
            "{name}: kept ranges should be split by elided windows"
        );
    }
}

/// Fused B=8 batched replay is lane-for-lane identical to eight
/// sequential fused scalar replays (fusion composes with PR 9's lanes).
#[test]
fn fused_batched_replay_matches_sequential() {
    for name in ["ResNet12", "MNIST"] {
        let spec = zoo(name);
        let (s, out) = rig(&spec);
        let key = s.recording_key();
        let mut replayer = Replayer::new(&s.client, Rc::new(grt_lint::Linter::new()));
        let weights = workload_weights(&spec);
        let fused = replayer.compile_signed(&out.recording, &key).unwrap();
        let inputs: Vec<Vec<f32>> = (0..8).map(|b| test_input(&spec, 0xF0 + b)).collect();

        let sequential: Vec<Vec<u32>> = inputs
            .iter()
            .map(|input| {
                let (o, _) = replayer.replay_compiled(&fused, input, &weights).unwrap();
                bits(&o)
            })
            .collect();
        let (batched, _) = replayer
            .replay_compiled_batch(&fused, &inputs, &weights)
            .unwrap();
        for (lane, (seq, got)) in sequential.iter().zip(&batched).enumerate() {
            assert_eq!(seq, &bits(got), "{name}: lane {lane}");
        }
    }
}

/// Layered replay runs fused: on every zoo network, walking the fused
/// compiled recording layer by layer yields exactly the spec's layer
/// indices, the same output bits as `replay_compiled`, and a carveout
/// the wipe leaves all-zero.
#[test]
fn layered_replay_runs_fused_across_the_zoo() {
    for spec in grt_ml::zoo::all_benchmarks() {
        let (s, out) = rig(&spec);
        let key = s.recording_key();
        let mut replayer = Replayer::new(&s.client, Rc::new(grt_lint::Linter::new()));
        let weights = workload_weights(&spec);
        let fused = replayer.compile_signed(&out.recording, &key).unwrap();
        let input = test_input(&spec, 0x1A7E);
        let (whole, _) = replayer.replay_compiled(&fused, &input, &weights).unwrap();

        let mut layered = replayer.begin_layered(&fused, &input, &weights).unwrap();
        assert_eq!(layered.layer_count(), spec.layers.len(), "{}", spec.name);
        let mut seen = Vec::new();
        while let Some(idx) = layered.replay_layer().unwrap() {
            seen.push(idx);
        }
        assert_eq!(
            seen,
            (0..spec.layers.len() as u32).collect::<Vec<_>>(),
            "{}: layer indices",
            spec.name
        );
        assert_eq!(bits(&layered.finish()), bits(&whole), "{}", spec.name);

        let mut mem = s.client.mem.borrow_mut();
        mem.wipe();
        assert!(
            mem.dump_range(0, grt_core::session::CLIENT_MEM_BYTES)
                .iter()
                .all(|&b| b == 0),
            "{}: carveout not scrubbed",
            spec.name
        );
    }
}

/// Randomized shape-consistent MLPs: fused and unfused lowerings agree
/// bitwise on nets the zoo never exercises.
#[test]
fn fused_replay_matches_unfused_on_randomized_networks() {
    for seed in 0..4u64 {
        let spec = random_spec(0xF05E_D000 ^ (seed * 0x51DE));
        let (s, out) = rig(&spec);
        let key = s.recording_key();
        let mut replayer = Replayer::new(&s.client, Rc::new(grt_lint::Linter::new()));
        let weights = workload_weights(&spec);
        let fused = replayer.compile_signed(&out.recording, &key).unwrap();
        let unfused = unfused_of(&s, &out);
        let input = test_input(&spec, seed);
        let (base, _) = replayer
            .replay_compiled(&unfused, &input, &weights)
            .unwrap();
        let (fast, _) = replayer.replay_compiled(&fused, &input, &weights).unwrap();
        assert_eq!(bits(&base), bits(&fast), "seed {seed}");
    }
}

/// R7/R9 vetting runs over the *unfused* IR: fusion is invisible to the
/// lint verdict, and the certified R9 budget (worst-case MACs and poll
/// iterations over the recorded dialog) must still bound what a fused
/// replay actually executes — fusion only ever removes work.
#[test]
fn lint_budget_still_bounds_fused_replay() {
    let spec = zoo("ResNet12");
    let (s, out) = rig(&spec);
    let key = s.recording_key();
    let rec = out.recording.verify_and_parse(&key).unwrap();
    let report = grt_lint::Linter::new().lint(&rec, &grt_gpu::GpuSku::mali_g71_mp8(), Some(&spec));
    assert!(report.passed(), "vetting is fusion-independent");
    let budget = report.budget.expect("R9 certifies a budget");

    let mut replayer = Replayer::new(&s.client, Rc::new(grt_lint::Linter::new()));
    let weights = workload_weights(&spec);
    let fused = replayer.compile_signed(&out.recording, &key).unwrap();
    assert!(fused.fusion_summary().chains_fused > 0);
    let input = test_input(&spec, 7);
    replayer.replay_compiled(&fused, &input, &weights).unwrap();
    let exec = replayer.last_profile().exec;
    let executed_macs: u64 = exec.per_kind.iter().map(|k| k.macs).sum();
    assert!(executed_macs > 0);
    assert!(
        executed_macs <= budget.macs,
        "fused replay executed {executed_macs} MACs, budget certifies {}",
        budget.macs
    );
}
