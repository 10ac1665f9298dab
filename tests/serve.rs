//! Integration tests of the serving subsystem (`grt-serve`): fleet
//! invariants, admission accounting, affinity batching, registry warm-up
//! economics, and the differential harness pinning the event-indexed
//! scheduler to the legacy full-sweep oracle, end-to-end through the
//! real GP replay protocol.

use grt_gpu::GpuSku;
use grt_serve::{
    generate_trace, Fleet, FleetConfig, RecordingRegistry, Request, SchedulerKind, ServiceMode,
    TraceConfig,
};
use grt_sim::{FaultPlan, FaultPlanConfig, Rng, SimTime};
use std::rc::Rc;

fn mnist_fleet(skus: Vec<GpuSku>, queue_capacity: usize) -> Fleet {
    let cfg = FleetConfig {
        queue_capacity,
        ..FleetConfig::new(skus)
    };
    Fleet::new(vec![grt_ml::zoo::mnist()], cfg)
}

/// The paper's replayer assumes the GPU job queue holds at most one job;
/// the fleet must never start a replay on a device that is already
/// serving one, even under heavy contention.
#[test]
fn job_queue_length_one_invariant() {
    let mut fleet = mnist_fleet(vec![GpuSku::mali_g71_mp8(), GpuSku::mali_g71_mp4()], 128);
    // Arrivals far faster than service: every device is saturated.
    let cfg = TraceConfig {
        mean_interarrival: SimTime::from_micros(200),
        ..TraceConfig::new(60, 11)
    };
    let report = fleet.run(&generate_trace(1, &cfg));
    assert_eq!(report.completed, 60);
    assert_eq!(
        report.max_inflight, 1,
        "a device ran two replays concurrently"
    );
}

/// Every submitted request is accounted for exactly once: completed,
/// rejected, timed out, or failed — never silently dropped.
#[test]
fn admission_accounting_is_conserved() {
    // Tiny queues + a burst during the multi-second cold start force
    // both rejections and completions.
    let mut fleet = mnist_fleet(vec![GpuSku::mali_g71_mp8()], 4);
    let cfg = TraceConfig {
        mean_interarrival: SimTime::from_millis(5),
        timeout: SimTime::from_secs(2),
        ..TraceConfig::new(80, 7)
    };
    let report = fleet.run(&generate_trace(1, &cfg));
    assert_eq!(
        report.completed + report.rejected + report.timed_out + report.failed,
        report.submitted,
        "requests leaked: {report:?}"
    );
    assert!(report.rejected > 0, "expected backpressure under burst");
    assert!(
        report.timed_out > 0,
        "expected queue timeouts with a 2s deadline behind a cold start"
    );
}

/// Same-model affinity amortizes staging: many requests, few
/// `LOAD_RECORDING`s.
#[test]
fn affinity_batching_amortizes_loads() {
    let mut fleet = mnist_fleet(vec![GpuSku::mali_g71_mp8(), GpuSku::mali_g71_mp8()], 64);
    let report = fleet.run(&generate_trace(1, &TraceConfig::new(40, 3)));
    assert_eq!(report.completed, 40);
    let total_loads: u64 = report.per_device.iter().map(|d| d.loads).sum();
    // One model: each device stages it at most once, ever.
    assert!(
        total_loads <= 2,
        "staging not amortized: {total_loads} loads for 40 requests"
    );
}

/// A warmed registry makes a rerun strictly cheaper: fewer cold starts
/// and no record time.
#[test]
fn warm_registry_beats_cold() {
    let models = vec![grt_ml::zoo::mnist(), grt_ml::zoo::alexnet()];
    let cfg = FleetConfig {
        queue_capacity: 64,
        ..FleetConfig::new(vec![GpuSku::mali_g71_mp8(), GpuSku::mali_g72_mp12()])
    };
    let trace = generate_trace(models.len(), &TraceConfig::new(30, 9));

    let mut cold_fleet = Fleet::new(models.clone(), cfg.clone());
    let cold = cold_fleet.run(&trace);
    assert!(cold.cold_starts > 0, "fresh registry must record");

    let mut registry = cold_fleet.into_registry();
    registry.reset_stats();
    let mut warm_fleet = Fleet::with_registry(models, cfg, registry);
    let warm = warm_fleet.run(&trace);

    assert!(
        warm.cold_starts < cold.cold_starts,
        "warm run must save cold starts ({} vs {})",
        warm.cold_starts,
        cold.cold_starts
    );
    assert_eq!(warm.cold_starts, 0);
    assert!(warm.record_time.is_zero());
    assert!(warm.total.p99 < cold.total.p99);
    // Note: output digests are completion-order-sensitive, and cold-start
    // delays reshuffle scheduling, so cold and warm digests may differ
    // even though per-request outputs match. Run-to-run bit-identity is
    // asserted in tests/determinism.rs instead.
}

// ---------------------------------------------------------------------
// Differential harness: the event-indexed scheduler against the legacy
// full-sweep oracle. The two drivers share the candidate rule and all
// request-processing code, so any divergence is an event-ordering bug;
// these tests pin byte-identical reports AND identical metrics state
// across nominal traces, warm/cold registries, and randomized fleets.
// ---------------------------------------------------------------------

/// Runs `trace` through both scheduler kinds over otherwise-identical
/// fleets and asserts the full `ServeReport` JSON and the complete
/// `MetricsCollector` state (sketches, capped logs, counters, digests)
/// are identical.
fn assert_schedulers_agree(
    label: &str,
    models: &[grt_ml::NetworkSpec],
    cfg: &FleetConfig,
    trace: &[Request],
    registry: Option<&RecordingRegistry>,
) {
    let mut runs = Vec::new();
    for kind in [SchedulerKind::LegacySweep, SchedulerKind::EventIndexed] {
        let cfg = cfg.clone().with_scheduler(kind);
        let mut fleet = match registry {
            Some(r) => Fleet::with_registry(models.to_vec(), cfg, r.clone()),
            None => Fleet::new(models.to_vec(), cfg),
        };
        let (report, metrics) = fleet.run_detailed(trace);
        runs.push((report.to_json(), metrics));
    }
    assert_eq!(
        runs[0].0, runs[1].0,
        "[{label}] sweep and event-indexed reports diverge"
    );
    assert_eq!(
        runs[0].1, runs[1].1,
        "[{label}] sweep and event-indexed metrics diverge"
    );
}

/// The two-layer CHAOS-TINY network: one replay costs wall-milliseconds,
/// so the randomized differential sweep stays affordable while the fleet
/// machinery under test is identical to the full-size models'.
fn tiny_spec() -> grt_ml::NetworkSpec {
    use grt_ml::{LayerOp, LayerSpec, NetworkSpec};
    NetworkSpec {
        name: "DIFF-TINY",
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

/// The four modeled Mali SKUs, indexable for randomized fleet mixes.
fn sku_pool() -> Vec<GpuSku> {
    vec![
        GpuSku::mali_g71_mp8(),
        GpuSku::mali_g72_mp12(),
        GpuSku::mali_g71_mp4(),
        GpuSku::mali_g76_mp10(),
    ]
}

/// Both schedulers agree on the nominal traces the rest of this suite
/// exercises: a saturated fleet, a bursty overload with rejections and
/// timeouts, and a two-model mix over a cold and then a warmed registry.
#[test]
fn schedulers_agree_on_nominal_traces() {
    // Saturated single-model fleet (the queue-length-1 workload).
    let cfg = FleetConfig {
        queue_capacity: 128,
        ..FleetConfig::new(vec![GpuSku::mali_g71_mp8(), GpuSku::mali_g71_mp4()])
    };
    let trace = generate_trace(
        1,
        &TraceConfig {
            mean_interarrival: SimTime::from_micros(200),
            ..TraceConfig::new(40, 11)
        },
    );
    assert_schedulers_agree("saturated", &[grt_ml::zoo::mnist()], &cfg, &trace, None);

    // Bursty overload: rejections and deadline timeouts on both sides.
    let cfg = FleetConfig {
        queue_capacity: 4,
        ..FleetConfig::new(vec![GpuSku::mali_g71_mp8()])
    };
    let trace = generate_trace(
        1,
        &TraceConfig {
            mean_interarrival: SimTime::from_millis(5),
            timeout: SimTime::from_secs(2),
            ..TraceConfig::new(50, 7)
        },
    );
    assert_schedulers_agree("burst", &[grt_ml::zoo::mnist()], &cfg, &trace, None);

    // Two models over two SKUs, cold registry then a warmed clone.
    let models = vec![grt_ml::zoo::mnist(), grt_ml::zoo::alexnet()];
    let cfg = FleetConfig {
        queue_capacity: 64,
        ..FleetConfig::new(vec![GpuSku::mali_g71_mp8(), GpuSku::mali_g72_mp12()])
    };
    let trace = generate_trace(models.len(), &TraceConfig::new(24, 9));
    assert_schedulers_agree("two-model cold", &models, &cfg, &trace, None);

    let mut warmer = Fleet::new(models.clone(), cfg.clone());
    warmer.run(&trace);
    let mut warmed = warmer.into_registry();
    warmed.reset_stats();
    assert_schedulers_agree("two-model warm", &models, &cfg, &trace, Some(&warmed));
}

/// Fifty seeded random fleet configurations — mixed SKU fleets, queue
/// depths, affinity slack, service modes, fault plans, cold and warmed
/// registries — all produce byte-identical reports from both schedulers.
/// Any seed that fails reproduces exactly from its printed label.
#[test]
fn schedulers_agree_on_random_configs() {
    let spec = tiny_spec();
    let models = vec![spec.clone()];
    let pool = sku_pool();

    // One warmed registry covering every SKU; cloned per case per side so
    // cold-start records never repeat for warm cases.
    let mut warmed = RecordingRegistry::new(grt_serve::RegistryConfig::new(8));
    for sku in &pool {
        warmed.warm(&spec, sku).expect("fault-free warm-up record");
    }
    warmed.reset_stats();

    for seed in 0..50u64 {
        let mut rng = Rng::new(0xD1FF_0000 + seed);
        let cold_case = seed % 8 == 0;
        // Cold cases pay real on-demand records on both sides; keep those
        // fleets single-SKU so the sweep stays affordable.
        let devices = if cold_case {
            1 + (rng.next_u64() % 2) as usize
        } else {
            1 + (rng.next_u64() % 5) as usize
        };
        let skus: Vec<GpuSku> = (0..devices)
            .map(|_| {
                if cold_case {
                    pool[0].clone()
                } else {
                    pool[(rng.next_u64() % pool.len() as u64) as usize].clone()
                }
            })
            .collect();
        let mut cfg = FleetConfig {
            queue_capacity: (rng.next_u64() % 8) as usize,
            affinity_slack: (rng.next_u64() % 3) as usize,
            ..FleetConfig::new(skus)
        };
        if rng.chance(0.5) {
            cfg = cfg.with_service_mode(ServiceMode::Profiled);
        }
        if rng.chance(0.6) {
            let plan = FaultPlan::generate(
                seed,
                &FaultPlanConfig {
                    horizon: SimTime::from_secs(3),
                    devices,
                    ..FaultPlanConfig::default()
                },
            );
            cfg = cfg.with_faults(Rc::new(plan));
        }
        let trace = generate_trace(
            models.len(),
            &TraceConfig {
                mean_interarrival: SimTime::from_millis(1 + rng.next_u64() % 40),
                timeout: if rng.chance(0.3) {
                    SimTime::from_secs(1)
                } else {
                    SimTime::from_secs(30)
                },
                ..TraceConfig::new(3 + (rng.next_u64() % 6) as usize, seed)
            },
        );
        let label = format!(
            "seed {seed}: {devices} devices, q{}, slack {}, {:?}, {}, {} requests",
            cfg.queue_capacity,
            cfg.affinity_slack,
            cfg.service,
            if cfg.faults.is_some() {
                "faulted"
            } else {
                "fault-free"
            },
            trace.len()
        );
        let registry = if cold_case { None } else { Some(&warmed) };
        assert_schedulers_agree(&label, &models, &cfg, &trace, registry);
    }
}

/// Satellite regression: an eviction landing **exactly** at another
/// pending event's due tick. Three overlapping crashes on device 0 —
/// each landing exactly at the previous crash's restart transition, so
/// the failure streak never resets and the third crash evicts — while
/// hand-placed arrivals put a serve event on the healthy device due at
/// the very same instants. The indexed scheduler's heap holds entries
/// for those ticks when the eviction's failover rewrites the queues; a
/// stale entry served after the rewrite would diverge from the
/// full-sweep oracle. Both drivers must stay byte-identical, and the
/// trace must actually exercise the eviction.
#[test]
fn schedulers_agree_when_eviction_lands_on_a_due_tick() {
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
    // A steady stream keeps both queues non-empty across the crash
    // window, and the pinned arrivals at 100/110/120 ms coincide exactly
    // with the crash / restart / eviction ticks.
    let mut trace: Vec<Request> = (0..30)
        .map(|i| Request {
            id: i,
            model: 0,
            arrival: SimTime::from_millis(8 * i),
            deadline: SimTime::from_millis(8 * i) + SimTime::from_secs(30),
        })
        .collect();
    for (k, at_ms) in [100u64, 110, 120].into_iter().enumerate() {
        trace.push(Request {
            id: 1000 + k as u64,
            model: 0,
            arrival: SimTime::from_millis(at_ms),
            deadline: SimTime::from_millis(at_ms) + SimTime::from_secs(30),
        });
    }
    trace.sort_by_key(|r| (r.arrival, r.id));
    for (i, r) in trace.iter_mut().enumerate() {
        r.id = i as u64; // keep ids unique and arrival-ordered
    }

    assert_schedulers_agree(
        "eviction-on-due-tick",
        &[grt_ml::zoo::mnist()],
        &cfg,
        &trace,
        None,
    );

    // The scenario must genuinely hit the path under test: the third
    // same-tick crash evicts and its failover displaces queued work.
    let mut fleet = Fleet::new(
        vec![grt_ml::zoo::mnist()],
        cfg.clone().with_scheduler(SchedulerKind::EventIndexed),
    );
    let report = fleet.run(&trace);
    assert_eq!(report.crashes, 3, "all three pinned crashes processed");
    assert_eq!(report.evictions, 1, "third consecutive crash evicts");
    assert!(report.failovers > 0, "eviction failover displaces work");
    assert_eq!(
        report.completed + report.rejected + report.timed_out + report.failed,
        report.submitted
    );
}

/// 200-device chaos soak at the event-indexed scheduler: a generated
/// fault schedule plus a pinned rapid triple crash on device 0 (three
/// consecutive failures with no success in between, forcing an eviction
/// and queue failover). The run must keep every invariant and be
/// bit-identical when repeated.
#[test]
fn event_indexed_chaos_soak_200_devices() {
    let spec = tiny_spec();
    let pool = sku_pool();
    let skus: Vec<GpuSku> = (0..200).map(|i| pool[i % pool.len()].clone()).collect();
    let plan = Rc::new(
        FaultPlan::generate(
            0xC4A0_5E20,
            &FaultPlanConfig {
                horizon: SimTime::from_secs(5),
                devices: skus.len(),
                ..FaultPlanConfig::default()
            },
        )
        // Overlapping crashes: the second and third land while device 0
        // is already down, so no success can reset the failure streak.
        .with_crash(0, SimTime::from_millis(500), SimTime::from_millis(200))
        .with_crash(0, SimTime::from_millis(520), SimTime::from_millis(200))
        .with_crash(0, SimTime::from_millis(540), SimTime::from_millis(200)),
    );
    let cfg = FleetConfig {
        queue_capacity: 4,
        ..FleetConfig::new(skus)
    }
    .with_scheduler(SchedulerKind::EventIndexed)
    .with_service_mode(ServiceMode::Profiled)
    .with_faults(plan);
    let trace = generate_trace(
        1,
        &TraceConfig {
            mean_interarrival: SimTime::from_millis(2),
            ..TraceConfig::new(600, 17)
        },
    );

    let run = |label: &str| {
        let mut fleet = Fleet::new(vec![spec.clone()], cfg.clone());
        let (report, metrics) = fleet.run_detailed(&trace);
        assert!(
            report.max_inflight <= 1,
            "[{label}] queue-length-1 violated"
        );
        assert_eq!(
            report.completed + report.rejected + report.timed_out + report.failed,
            report.submitted,
            "[{label}] requests leaked"
        );
        assert!(report.crashes > 0, "[{label}] no crash was processed");
        assert!(
            report.evictions > 0,
            "[{label}] the pinned triple crash must evict device 0"
        );
        assert!(
            report.failovers > 0,
            "[{label}] crashes must force failovers"
        );
        assert_eq!(
            report.receipts_issued, report.completed,
            "[{label}] every completed serve issues exactly one receipt"
        );
        assert_eq!(
            report.receipts_verified, report.receipts_issued,
            "[{label}] every issued receipt verifies"
        );
        (report.to_json(), metrics)
    };
    let (json_a, metrics_a) = run("soak A");
    let (json_b, metrics_b) = run("soak B");
    assert_eq!(json_a, json_b, "chaos soak is not deterministic");
    assert_eq!(metrics_a, metrics_b, "chaos metrics are not deterministic");
}

/// The metrics collector's footprint is a function of its configuration,
/// not of how many requests flow through it: once the capped event logs
/// saturate, serving 4x the traffic leaves `approx_bytes()` unchanged.
#[test]
fn metrics_memory_is_bounded_by_log_cap() {
    // Zero-capacity queues reject everything instantly, so this measures
    // pure metrics behavior without any replay cost.
    let footprint = |requests: usize| {
        let cfg = FleetConfig {
            queue_capacity: 0,
            ..FleetConfig::new(vec![GpuSku::mali_g71_mp8()])
        }
        .with_event_log_cap(64);
        let mut fleet = Fleet::new(vec![grt_ml::zoo::mnist()], cfg);
        let trace = generate_trace(1, &TraceConfig::new(requests, 5));
        let (report, metrics) = fleet.run_detailed(&trace);
        assert_eq!(report.rejected, requests as u64);
        assert_eq!(metrics.rejections.len(), 64, "log must cap at 64 entries");
        metrics.approx_bytes()
    };
    let small = footprint(100);
    let large = footprint(400);
    assert_eq!(
        small, large,
        "metrics footprint must not grow with request count"
    );
    assert!(small < 256 * 1024, "footprint unexpectedly large: {small}");
}

/// Rejections carry a positive retry-after hint (the backpressure signal
/// a real client would use to pace resubmission).
#[test]
fn rejections_carry_retry_hints() {
    // Zero-capacity queues: every request is rejected, nothing serves.
    let mut fleet = mnist_fleet(vec![GpuSku::mali_g71_mp8()], 0);
    let (report, events) = fleet.run_detailed(&generate_trace(1, &TraceConfig::new(10, 5)));
    assert_eq!(report.completed, 0);
    assert_eq!(report.rejected, 10);
    assert_eq!(report.submitted, 10);
    assert_eq!(events.rejections.len(), 10);
    for r in &events.rejections {
        assert!(
            !r.retry_after.is_zero(),
            "rejection of request {} has no retry hint",
            r.id
        );
    }
}

/// Batched serving (DESIGN.md §14): with `max_batch > 1` a saturated
/// same-model queue is served in multi-request `RUN_BATCH` intervals.
/// Batching is an amortization, not a semantic change: the same requests
/// complete, the replay-output digest is byte-identical to the scalar
/// fleet's (same outputs in the same completion order on one device),
/// and the one receipt per interval verifies against every input lane.
#[test]
fn batched_serving_matches_scalar_outputs() {
    let trace = generate_trace(
        1,
        &TraceConfig {
            mean_interarrival: SimTime::from_micros(200),
            ..TraceConfig::new(40, 11)
        },
    );
    let run = |max_batch: usize| {
        let cfg = FleetConfig {
            queue_capacity: 128,
            ..FleetConfig::new(vec![GpuSku::mali_g71_mp8()])
        }
        .with_max_batch(max_batch);
        let mut fleet = Fleet::new(vec![grt_ml::zoo::mnist()], cfg);
        fleet.run(&trace)
    };
    let scalar = run(1);
    let batched = run(8);
    assert_eq!(scalar.completed, 40);
    assert_eq!(batched.completed, 40);
    // max_batch = 1 keeps the batching section all-zero/one.
    assert_eq!((scalar.batches, scalar.batched_requests), (0, 0));
    assert_eq!(scalar.max_batch_served, 1);
    assert!(
        batched.batches > 0,
        "a saturated single-model queue must form real batches"
    );
    assert!((2..=8).contains(&batched.max_batch_served));
    assert_eq!(
        batched.output_digest, scalar.output_digest,
        "batching must not change any replay output or the completion order"
    );
    // One receipt per service interval, every one verified.
    assert_eq!(
        batched.receipts_issued + batched.batched_requests - batched.batches,
        batched.completed
    );
    assert_eq!(batched.receipts_verified, batched.receipts_issued);
    assert!(batched.receipts_rejected.is_empty());
    // Fewer, amortized intervals for the same work: batching never loses.
    assert!(
        batched.makespan <= scalar.makespan,
        "batched makespan {:?} worse than scalar {:?}",
        batched.makespan,
        scalar.makespan
    );
}

/// Profiled service batches too: warm `(model, SKU, B)` intervals are
/// measured once on a probe and reused, with the same accounting
/// invariants as real-replay batching.
#[test]
fn batched_serving_in_profiled_mode() {
    let cfg = FleetConfig {
        queue_capacity: 128,
        ..FleetConfig::new(vec![GpuSku::mali_g71_mp8()])
    }
    .with_service_mode(ServiceMode::Profiled)
    .with_max_batch(4);
    let trace = generate_trace(
        1,
        &TraceConfig {
            mean_interarrival: SimTime::from_micros(200),
            ..TraceConfig::new(30, 13)
        },
    );
    let mut fleet = Fleet::new(vec![grt_ml::zoo::mnist()], cfg);
    let report = fleet.run(&trace);
    assert_eq!(report.completed, 30);
    assert!(report.batches > 0, "profiled fleet must batch under load");
    assert!(report.max_batch_served <= 4);
    assert_eq!(
        report.receipts_issued + report.batched_requests - report.batches,
        report.completed
    );
    assert_eq!(report.receipts_verified, report.receipts_issued);
    assert_eq!(report.max_inflight, 1);
}

/// The event-indexed scheduler and the legacy sweep stay byte-identical
/// with batching enabled — batch formation happens in the shared
/// `process_serve`, so the differential oracle covers it by construction,
/// and this pins that.
#[test]
fn schedulers_agree_with_batching() {
    let cfg = FleetConfig {
        queue_capacity: 128,
        ..FleetConfig::new(vec![GpuSku::mali_g71_mp8(), GpuSku::mali_g71_mp4()])
    }
    .with_max_batch(4);
    let trace = generate_trace(
        1,
        &TraceConfig {
            mean_interarrival: SimTime::from_micros(200),
            ..TraceConfig::new(40, 11)
        },
    );
    assert_schedulers_agree("batched", &[grt_ml::zoo::mnist()], &cfg, &trace, None);
}

// ---------------------------------------------------------------------
// Accounting pins: the SHA-256 of the full `ServeReport` JSON for three
// small fleets, one per way `serve_batch` fetches, stages and charges an
// interval. A change that moves where those decisions are made must leave
// every byte of every report alone.
// ---------------------------------------------------------------------

/// Two distinct registry keys over the same tiny network, so one device
/// switches models without paying full-size record and replay times.
fn two_tiny_models() -> Vec<grt_ml::NetworkSpec> {
    vec![
        tiny_spec(),
        grt_ml::NetworkSpec {
            name: "DIFF-TINY-B",
            ..tiny_spec()
        },
    ]
}

/// Runs a saturating two-model trace through `cfg` and returns the hex
/// SHA-256 of the report JSON, with the report for structural checks.
fn report_digest(cfg: FleetConfig, requests: usize) -> (String, grt_serve::ServeReport) {
    let models = two_tiny_models();
    let trace = generate_trace(
        models.len(),
        &TraceConfig {
            mean_interarrival: SimTime::from_micros(300),
            zipf_exponent: 0.3,
            ..TraceConfig::new(requests, 29)
        },
    );
    let report = Fleet::new(models, cfg).run(&trace);
    let digest = grt_crypto::Sha256::digest(report.to_json().as_bytes());
    (grt_crypto::Sha256::to_hex(&digest), report)
}

/// Real replays through the GP protocol, one device switching models.
#[test]
fn replay_mode_report_is_pinned() {
    let cfg = FleetConfig {
        queue_capacity: 64,
        ..FleetConfig::new(vec![GpuSku::mali_g71_mp8()])
    };
    let (digest, report) = report_digest(cfg, 24);
    assert_eq!(report.completed, 24);
    assert!(report.per_device[0].loads > 2, "the device switches models");
    assert_eq!(
        digest,
        "42cc1eecdbfad45b7fe67e2137dd34b82f56de72c5036e3b688b9a5d4d5fd5f2"
    );
}

/// Profiled scalar service: fetch on a switch, the single profile lookup
/// otherwise.
#[test]
fn profiled_scalar_report_is_pinned() {
    let cfg = FleetConfig {
        queue_capacity: 64,
        ..FleetConfig::new(vec![GpuSku::mali_g71_mp8(), GpuSku::mali_g71_mp4()])
    }
    .with_service_mode(ServiceMode::Profiled);
    let (digest, report) = report_digest(cfg, 60);
    assert_eq!(report.completed, 60);
    assert!(report.per_device.iter().map(|d| d.loads).sum::<u64>() > 2);
    assert_eq!(
        digest,
        "4d5c15574f16fbb894008aaaf5e19331ad53dd477d0165dd205be112615b79c8"
    );
}

/// Profiled batched service fetches on every batch. A one-entry registry
/// shared by two devices on two models evicts mid-run, so a device's
/// fetch for its already-staged model can miss and re-record.
#[test]
fn profiled_batched_report_is_pinned() {
    let mut cfg = FleetConfig {
        queue_capacity: 64,
        ..FleetConfig::new(vec![GpuSku::mali_g71_mp8(), GpuSku::mali_g71_mp8()])
    }
    .with_service_mode(ServiceMode::Profiled)
    .with_max_batch(4);
    cfg.registry.capacity = 1;
    let (digest, report) = report_digest(cfg, 80);
    assert_eq!(report.completed, 80);
    assert!(report.batches > 0);
    assert!(report.cache_evictions > 0);
    let loads: u64 = report.per_device.iter().map(|d| d.loads).sum();
    assert!(
        report.cache_misses > loads,
        "some miss re-recorded a model its device already had staged"
    );
    assert_eq!(
        digest,
        "02562a19120c44641f1d961adbd182490387f739518b355520f46cfeabadf23a"
    );
}
