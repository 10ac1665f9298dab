//! Fault-injection integration tests: mispredictions, hardware faults,
//! and client hangs must be detected and surfaced, never silently absorbed.

use grt_core::replay::{workload_weights, Replayer};
use grt_core::session::{RecordSession, RecorderMode};
use grt_gpu::GpuSku;
use grt_ml::reference::{test_input, ReferenceNet};
use grt_net::NetConditions;

fn session() -> RecordSession {
    RecordSession::new(
        GpuSku::mali_g71_mp8(),
        NetConditions::wifi(),
        RecorderMode::OursMDS,
    )
}

/// §7.3: injected mispredictions at many positions are always detected,
/// always recovered from, and never corrupt the produced recording.
#[test]
fn injected_mispredictions_always_detected_and_recovered() {
    let spec = grt_ml::zoo::mnist();
    let weights = workload_weights(&spec);
    let reference = ReferenceNet::new(spec.clone());
    for position in [5u64, 50, 200, 400] {
        let mut s = session();
        s.record(&spec).expect("warm-up");
        let before = s.stats.get("spec.mispredictions");
        s.shim.inject_misprediction_at(position);
        let out = s.record(&spec).expect("run completes despite injection");
        assert!(
            s.stats.get("spec.mispredictions") > before,
            "injection at {position} not detected"
        );
        let key = s.recording_key();
        let mut r = Replayer::new(&s.client, std::rc::Rc::new(grt_lint::Linter::new()));
        let input = test_input(&spec, 1);
        let (gpu_out, _) = r
            .replay(&out.recording, &key, &input, &weights)
            .expect("post-recovery recording replays");
        let cpu_out = reference.infer(&input);
        for (a, b) in gpu_out.iter().zip(&cpu_out) {
            assert!((a - b).abs() < 1e-3, "corrupted recording at {position}");
        }
    }
}

/// Natural record runs never mispredict (the paper saw none in 1,000
/// runs; we assert it over repeated warm runs here).
#[test]
fn no_natural_mispredictions_across_repeated_runs() {
    let spec = grt_ml::zoo::mnist();
    let mut s = session();
    for _ in 0..6 {
        s.record(&spec).expect("record");
    }
    assert_eq!(s.stats.get("spec.mispredictions"), 0);
}

/// A malformed job (bad descriptor) faults cleanly through the whole
/// remote stack rather than wedging it.
#[test]
fn remote_job_fault_is_surfaced() {
    use grt_driver::{DriverError, Usage};
    use grt_gpu::mmu::PteFlags;
    let mut s = session();
    s.driver.probe().expect("probe");
    s.driver.power_up().expect("power");
    let va = s
        .driver
        .alloc_region(1, PteFlags::rw(), Usage::JobDescriptors, None)
        .expect("alloc");
    s.driver
        .copy_to_gpu(va, &[0xEEu8; 64])
        .expect("garbage descriptor");
    s.driver.submit_job(va).expect("submit");
    assert!(s.shim.wait_job_irq_remote());
    match s.driver.handle_job_irq().expect("irq handled") {
        grt_driver::JobIrqOutcome::Failed(code) => {
            assert_ne!(code, 0);
        }
        other => panic!("expected fault, got {other:?}"),
    }
    // The driver is still operational afterwards.
    let err = s.driver.submit_job(0xDEAD_BEEF);
    assert!(!matches!(err, Err(DriverError::NotProbed)));
}

/// Replay interrupt hangs are reported, not spun on forever: a recording
/// whose WaitIrq can never fire (the preceding job-start write removed)
/// errors with IrqHang.
#[test]
fn replay_detects_interrupt_hang() {
    use grt_core::recording::{Event, Recording, SignedRecording};
    let spec = grt_ml::zoo::mnist();
    let mut s = session();
    let out = s.record(&spec).expect("record");
    let key = s.recording_key();
    let mut rec: Recording = out.recording.verify_and_parse(&key).expect("parse");
    // Strip the job-start writes so no job ever runs; the recorded
    // WaitIrq then waits on an interrupt that cannot fire.
    let js_command =
        grt_gpu::regs::job_control::slot_base(0) + grt_gpu::regs::job_control::JS_COMMAND;
    rec.events
        .retain(|e| !matches!(e, Event::RegWrite { offset, .. } if *offset == js_command));
    assert!(rec
        .events
        .iter()
        .any(|e| matches!(e, Event::WaitIrq { .. })));
    let hung = SignedRecording::sign(&rec, &key);
    let mut r = Replayer::new(&s.client, std::rc::Rc::new(grt_core::gate::PermissiveGate));
    let err = r
        .replay(&hung, &key, &test_input(&spec, 0), &workload_weights(&spec))
        .unwrap_err();
    assert_eq!(err, grt_core::replay::ReplayError::IrqHang);
}

/// A corrupted metastate delta inside an otherwise well-signed recording
/// is caught by the decoder (defense in depth below the signature).
#[test]
fn replay_detects_corrupt_delta() {
    use grt_core::recording::{Event, Recording, SignedRecording};
    let spec = grt_ml::zoo::mnist();
    let mut s = session();
    let out = s.record(&spec).expect("record");
    let key = s.recording_key();
    let mut rec: Recording = out.recording.verify_and_parse(&key).expect("parse");
    let mut corrupted = false;
    for e in rec.events.iter_mut() {
        if let Event::LoadMemDelta { delta, .. } = e {
            if delta.len() > 16 {
                delta.truncate(delta.len() / 2);
                corrupted = true;
                break;
            }
        }
    }
    assert!(corrupted, "no delta to corrupt");
    let evil = SignedRecording::sign(&rec, &key);
    let mut r = Replayer::new(&s.client, std::rc::Rc::new(grt_core::gate::PermissiveGate));
    let err = r
        .replay(&evil, &key, &test_input(&spec, 0), &workload_weights(&spec))
        .unwrap_err();
    assert_eq!(err, grt_core::replay::ReplayError::CorruptDelta);
}

// ---------------------------------------------------------------------
// Chaos soak: the serving fleet under randomized fault schedules.
// ---------------------------------------------------------------------

/// A two-layer network small enough that one replay costs tens of
/// wall-milliseconds, so hundreds of chaos cases stay affordable. The
/// fleet machinery under test (event ordering, failover, health, record
/// tunnel) is identical regardless of model size.
fn tiny_spec() -> grt_ml::NetworkSpec {
    use grt_ml::{LayerOp, LayerSpec, NetworkSpec};
    NetworkSpec {
        name: "CHAOS-TINY",
        input_len: 16,
        output_len: 10,
        layers: vec![
            LayerSpec {
                name: "fc",
                op: LayerOp::Fc {
                    in_dim: 16,
                    out_dim: 10,
                    relu: false,
                },
                splits: 1,
                setup_jobs: 1,
                nominal_macs: 0,
                nominal_data_bytes: 0,
                save_skip: false,
            },
            LayerSpec {
                name: "sm",
                op: LayerOp::Softmax { len: 10 },
                splits: 1,
                setup_jobs: 0,
                nominal_macs: 0,
                nominal_data_bytes: 0,
                save_skip: false,
            },
        ],
    }
}

/// Runs one chaos case per seed in `seeds` and asserts the fleet
/// invariants hold for every generated fault plan:
///
/// - the run terminates (no hang) in success or typed, accounted error;
/// - job-queue-length-1: no device ever runs two replays concurrently;
/// - admission conservation: completed + rejected + timed out + failed
///   equals submitted, nothing silently dropped;
/// - every planned crash is processed exactly once, and every eviction
///   is eventually matched by a re-admission once the trace drains;
/// - the registry never exceeds capacity and never loses the warmed
///   recording.
///
/// A registry warmed once (fault-free) is threaded through the cases —
/// the serving clock is monotonic, so each case gets a fresh `Fleet` —
/// except every 8th case, which starts cold so the on-demand record runs
/// also happen *under the faulted tunnel* (loss bursts, RTT spikes,
/// partitions exercising the retry ladder and checkpoint resume).
fn chaos_soak(label: &str, seeds: std::ops::Range<u64>) {
    use grt_serve::{
        generate_trace, Fleet, FleetConfig, RecordingRegistry, RegistryConfig, TraceConfig,
    };
    use grt_sim::{FaultPlan, FaultPlanConfig, SimTime};
    use std::rc::Rc;

    const REGISTRY_CAPACITY: usize = 8;
    let spec = tiny_spec();
    let models = vec![spec.clone()];
    let skus = vec![GpuSku::mali_g71_mp8(), GpuSku::mali_g71_mp8()];

    // One fault-free warm-up record; afterwards replays dominate cost.
    let mut warm = RecordingRegistry::new(RegistryConfig::new(REGISTRY_CAPACITY));
    warm.warm(&spec, &skus[0])
        .expect("fault-free warm-up record");
    let mut shared: Option<RecordingRegistry> = Some(warm);

    let fault_cfg = FaultPlanConfig {
        horizon: SimTime::from_secs(3),
        devices: skus.len(),
        ..FaultPlanConfig::default()
    };
    let (mut total_completed, mut total_crashes, mut total_failovers) = (0u64, 0u64, 0u64);
    for seed in seeds {
        let plan = Rc::new(FaultPlan::generate(seed, &fault_cfg));
        let planned_crashes = plan
            .crashes()
            .iter()
            .filter(|c| c.device < skus.len())
            .count() as u64;
        let cfg = FleetConfig {
            queue_capacity: 4,
            ..FleetConfig::new(skus.clone())
        }
        .with_faults(Rc::clone(&plan));
        let trace_cfg = TraceConfig {
            mean_interarrival: SimTime::from_millis(30),
            ..TraceConfig::new(4, seed)
        };
        let trace = generate_trace(models.len(), &trace_cfg);

        let cold_case = seed % 8 == 0;
        let mut fleet = if cold_case {
            Fleet::new(models.clone(), cfg)
        } else {
            Fleet::with_registry(
                models.clone(),
                cfg,
                shared.take().expect("shared registry is threaded through"),
            )
        };
        let report = fleet.run(&trace);

        assert!(
            report.max_inflight <= 1,
            "[{label} seed {seed}] queue-length-1 violated: {} concurrent replays",
            report.max_inflight
        );
        assert_eq!(
            report.completed + report.rejected + report.timed_out + report.failed,
            report.submitted,
            "[{label} seed {seed}] requests leaked: {report:?}"
        );
        assert_eq!(
            report.crashes, planned_crashes,
            "[{label} seed {seed}] crash events lost or duplicated"
        );
        assert_eq!(
            report.readmissions, report.evictions,
            "[{label} seed {seed}] an evicted device was never re-admitted"
        );

        let registry = fleet.into_registry();
        assert!(
            registry.len() <= REGISTRY_CAPACITY,
            "[{label} seed {seed}] registry over capacity: {}",
            registry.len()
        );
        if cold_case {
            // The cold registry is discarded; the shared one was untouched.
        } else {
            assert!(
                registry.contains(&spec, &skus[0]),
                "[{label} seed {seed}] warmed recording lost from registry"
            );
            shared = Some(registry);
        }
        total_completed += report.completed;
        total_crashes += report.crashes;
        total_failovers += report.failovers;
    }
    // The soak must actually exercise the machinery, not vacuously pass.
    assert!(total_completed > 0, "[{label}] chaos soak served nothing");
    assert!(total_crashes > 0, "[{label}] no plan generated a crash");
    assert!(
        total_failovers > 0,
        "[{label}] no crash ever forced a failover"
    );
}

// 200 pinned seeds, split four ways so the harness runs them on
// parallel test threads. Every seed is fixed: a failure names the seed
// and reproduces exactly.

/// Chaos soak, seeds 0–49.
#[test]
fn chaos_soak_survives_random_fault_plans_part1() {
    chaos_soak("part1", 0..50);
}

/// Chaos soak, seeds 50–99.
#[test]
fn chaos_soak_survives_random_fault_plans_part2() {
    chaos_soak("part2", 50..100);
}

/// Chaos soak, seeds 100–149.
#[test]
fn chaos_soak_survives_random_fault_plans_part3() {
    chaos_soak("part3", 100..150);
}

/// Chaos soak, seeds 150–199.
#[test]
fn chaos_soak_survives_random_fault_plans_part4() {
    chaos_soak("part4", 150..200);
}

/// Robustness fuzz: arbitrary (but correctly signed) event soups must
/// never panic or wedge the replayer — they either replay or fail with a
/// clean error. This is the recording-parser/replayer attack surface a
/// compromised cloud could reach even with valid signatures.
#[test]
fn replayer_survives_arbitrary_signed_recordings() {
    use grt_core::recording::{DataSlot, Event, Recording, SignedRecording};
    use grt_crypto::KeyPair;
    use grt_sim::Rng;
    let clock = grt_sim::Clock::new();
    let stats = grt_sim::Stats::new();
    let device = grt_core::session::ClientDevice::new(GpuSku::mali_g71_mp8(), &clock, &stats, b"x");
    let key = KeyPair::derive(b"fuzz", "recording");
    let mut rng = Rng::new(0xF422);
    for case in 0..40u64 {
        let n_events = rng.gen_range(60) as usize;
        let mut events = Vec::new();
        for _ in 0..n_events {
            events.push(match rng.gen_range(6) {
                0 => Event::RegWrite {
                    offset: rng.next_u32() & 0x3FFF,
                    value: rng.next_u32(),
                },
                1 => Event::RegRead {
                    offset: rng.next_u32() & 0x3FFF,
                    value: rng.next_u32(),
                    verify: false,
                },
                2 => Event::Poll {
                    reg: rng.next_u32() & 0x3FFF,
                    mask: rng.next_u32(),
                    cond: (rng.gen_range(3)) as u8,
                    cmp: rng.next_u32(),
                    // Adversarial iteration budgets must be capped.
                    max_iters: u32::MAX,
                    delay_us: 1,
                },
                3 => Event::WaitIrq {
                    line: rng.gen_range(4) as u8,
                },
                4 => Event::LoadMemDelta {
                    pa: rng.next_u64() & 0xFFF_FFFF,
                    len: rng.next_u32() & 0xFFFF,
                    delta: {
                        let mut d = vec![0u8; rng.gen_range(64) as usize];
                        rng.fill_bytes(&mut d);
                        d
                    },
                },
                _ => Event::BeginLayer {
                    index: rng.next_u32(),
                },
            });
        }
        let rec = Recording {
            workload: format!("fuzz-{case}"),
            gpu_id: GpuSku::mali_g71_mp8().gpu_id,
            input: DataSlot {
                pa: 0x1000,
                len_elems: 4,
            },
            output: DataSlot {
                pa: 0x2000,
                len_elems: 4,
            },
            weights: vec![],
            events,
        };
        let signed = SignedRecording::sign(&rec, &key);
        let mut replayer = Replayer::new(&device, std::rc::Rc::new(grt_core::gate::PermissiveGate));
        // Must terminate with Ok or a clean error; panics/hangs fail the test.
        let _ = replayer.replay::<Vec<f32>>(&signed, &key, &[0.0; 4], &[]);
    }
}
