//! Determinism invariants (§2.3): record runs are bit-for-bit
//! reproducible, and replay is deterministic.

use grt_core::session::{RecordSession, RecorderMode};
use grt_gpu::GpuSku;
use grt_net::NetConditions;

fn record_bytes(mode: RecorderMode) -> Vec<u8> {
    let mut s = RecordSession::new(GpuSku::mali_g71_mp8(), NetConditions::wifi(), mode);
    s.record(&grt_ml::zoo::mnist())
        .expect("record")
        .recording
        .bytes
}

/// Two independent sessions produce byte-identical recordings: the whole
/// stack — driver, JIT, shims, sync, compression — is deterministic.
#[test]
fn independent_sessions_produce_identical_recordings() {
    assert_eq!(
        record_bytes(RecorderMode::OursMDS),
        record_bytes(RecorderMode::OursMDS)
    );
}

/// All four recorder builds capture the *same* interaction semantics:
/// the event logs (ignoring sync-batching differences in LoadMemDelta
/// granularity) drive identical replayed computations.
#[test]
fn all_modes_produce_equivalent_recordings() {
    use grt_ml::reference::{test_input, workload_weights, ReferenceNet};
    use grt_replay::replay::Replayer;
    let spec = grt_ml::zoo::mnist();
    let input = test_input(&spec, 21);
    let weights = workload_weights(&spec);
    let reference = ReferenceNet::new(spec.clone()).infer(&input);
    for mode in RecorderMode::ALL {
        let mut s = RecordSession::new(GpuSku::mali_g71_mp8(), NetConditions::wifi(), mode);
        let out = s.record(&spec).expect("record");
        let key = s.recording_key();
        let mut r = Replayer::new(&s.client, std::rc::Rc::new(grt_lint::Linter::new()));
        let (gpu_out, _) = r
            .replay(&out.recording, &key, &input, &weights)
            .expect("replay");
        for (a, b) in gpu_out.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-3, "{mode:?} diverged");
        }
    }
}

/// Replaying the same recording with the same input twice gives identical
/// outputs and identical virtual delays.
#[test]
fn replay_is_deterministic() {
    use grt_ml::reference::{test_input, workload_weights};
    use grt_replay::replay::Replayer;
    let spec = grt_ml::zoo::mnist();
    let mut s = RecordSession::new(
        GpuSku::mali_g71_mp8(),
        NetConditions::wifi(),
        RecorderMode::OursMDS,
    );
    let out = s.record(&spec).expect("record");
    let key = s.recording_key();
    let mut r = Replayer::new(&s.client, std::rc::Rc::new(grt_lint::Linter::new()));
    let input = test_input(&spec, 5);
    let weights = workload_weights(&spec);
    let (o1, d1) = r.replay(&out.recording, &key, &input, &weights).unwrap();
    let (o2, d2) = r.replay(&out.recording, &key, &input, &weights).unwrap();
    assert_eq!(o1, o2);
    assert_eq!(d1, d2);
}

/// The virtual-time accounting itself is deterministic: two identical
/// sessions report identical delays, RTT counts, and sync bytes.
#[test]
fn experiment_metrics_are_reproducible() {
    let run = || {
        let mut s = RecordSession::new(
            GpuSku::mali_g71_mp8(),
            NetConditions::cellular(),
            RecorderMode::OursMD,
        );
        let out = s.record(&grt_ml::zoo::mnist()).expect("record");
        (out.delay, out.blocking_rtts, out.sync_bytes)
    };
    assert_eq!(run(), run());
}

/// An entire serving simulation is deterministic: two fleets built from
/// the same seed, trace, and SKU mix produce bit-identical metrics JSON —
/// every latency percentile, counter, and the replay-output digest.
#[test]
fn serve_simulation_is_bit_identical() {
    use grt_serve::{generate_trace, Fleet, FleetConfig, TraceConfig};

    let run = || {
        let models = vec![grt_ml::zoo::mnist(), grt_ml::zoo::alexnet()];
        let cfg = FleetConfig {
            queue_capacity: 64,
            ..FleetConfig::new(vec![GpuSku::mali_g71_mp8(), GpuSku::mali_g71_mp4()])
        };
        let trace = generate_trace(models.len(), &TraceConfig::new(40, 17));
        let mut fleet = Fleet::new(models, cfg);
        fleet.run(&trace).to_json()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "serve reports diverged between identical runs");
    // The digest line proves replay outputs (not just timings) matched.
    assert!(a.contains("output_digest"));
}

/// A *faulted* serving simulation is just as deterministic: the same
/// seed and the same fault plan produce a bit-identical metrics JSON and
/// an identical failover decision log — same requests moved between the
/// same devices at the same virtual instants.
#[test]
fn faulted_serve_simulation_is_bit_identical() {
    use grt_serve::{generate_trace, Fleet, FleetConfig, TraceConfig};
    use grt_sim::{FaultPlan, FaultPlanConfig, SimTime};
    use std::rc::Rc;

    let run = || {
        // A generated schedule for variety, plus one pinned crash inside
        // device 0's multi-second cold start so failovers are guaranteed.
        let plan = Rc::new(
            FaultPlan::generate(
                0xC4A05,
                &FaultPlanConfig {
                    horizon: SimTime::from_secs(10),
                    devices: 2,
                    ..FaultPlanConfig::default()
                },
            )
            .with_crash(0, SimTime::from_secs(1), SimTime::from_millis(500)),
        );
        let cfg = FleetConfig {
            queue_capacity: 64,
            ..FleetConfig::new(vec![GpuSku::mali_g71_mp8(), GpuSku::mali_g71_mp8()])
        }
        .with_faults(plan);
        let trace = generate_trace(1, &TraceConfig::new(12, 17));
        let mut fleet = Fleet::new(vec![grt_ml::zoo::mnist()], cfg);
        let (report, events) = fleet.run_detailed(&trace);
        (report.to_json(), events.failovers)
    };
    let (json_a, failovers_a) = run();
    let (json_b, failovers_b) = run();
    assert_eq!(json_a, json_b, "faulted serve reports diverged");
    assert_eq!(failovers_a, failovers_b, "failover decisions diverged");
    assert!(
        !failovers_a.is_empty(),
        "the pinned crash must force at least one failover"
    );
    assert!(json_a.contains("\"fault_tolerance\""));
}
