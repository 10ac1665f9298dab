//! Fleet serving benchmark: many inference requests multiplexed over a
//! heterogeneous fleet of simulated client TEE devices.
//!
//! Simulates a serving deployment of the paper's record/replay design: a
//! Zipf-distributed model mix over the six benchmark networks arrives at
//! a fleet of TrustZone devices spanning four Mali SKUs. The trace is
//! served twice over the same virtual-time discrete-event simulation —
//! once against a cold recording registry (every `(model, SKU)` pair pays
//! an on-demand record run) and once against the registry the first pass
//! warmed — and both reports are emitted as one JSON document, so the
//! cold-start amortization the paper argues for (record once, replay
//! many) is directly visible in the numbers.
//!
//! With `--fault-plan SEED` a third pass serves the same trace against a
//! fresh registry under a deterministic chaos schedule — link loss
//! bursts, RTT spikes, and a network partition on the record tunnel,
//! plus a device crash mid-cold-start — so the retry/checkpoint/failover
//! counters in the JSON are exercised end to end.
//!
//! With `--fleet N` the binary instead runs the *fleet-scale* scenario:
//! `N` devices cycling the four-SKU pattern serve `--requests M` Zipf
//! requests through the event-indexed scheduler with profiled service
//! times, an 8-way sharded registry, and streaming-sketch metrics. The
//! per-(model, SKU) cold records and one replay probe per pair still run
//! for real; everything after is modeled, so a million requests over a
//! thousand devices completes in CI time while keeping every invariant
//! (job-queue-length-1, one receipt per completion, accounting
//! conservation, bounded metrics memory) machine-checked. Output is a
//! deterministic JSON document — two runs are byte-identical.
//!
//! With `--batch B` every pass serves up to `B` consecutive same-model
//! requests per device through one batched replay (`RUN_BATCH`,
//! DESIGN.md §14) instead of `B` sequential scalar serves; the report's
//! `batching` section shows how many intervals actually batched.
//!
//! Usage: `serve_bench [REQUESTS] [SEED] [--fault-plan SEED] [--batch B]`
//!    or: `serve_bench --fleet N [--requests M] [--shards S]
//!         [--interarrival-us U] [--batch B] [SEED]`
//! (defaults: 1200 requests, seed 42, no fault plan, batch 1; fleet
//! mode: 100000 requests, 8 shards, 50 µs mean interarrival).

use grt_attest::ReplayReceipt;
use grt_bench::{benchmarks, fleet_of, heterogeneous_fleet};
use grt_gpu::GpuSku;
use grt_ml::reference::{test_input, workload_weights};
use grt_replay::client::{recording_trust_root, ClientDevice, PROVISIONING_SECRET};
use grt_replay::replay::Replayer;
use grt_serve::{
    generate_trace, Fleet, FleetConfig, SchedulerKind, ServeReport, ServiceMode, TraceConfig,
};
use grt_sim::{Clock, FaultPlan, FaultPlanConfig, SimTime, Stats};
use std::rc::Rc;

fn usage() -> std::process::ExitCode {
    eprintln!("usage: serve_bench [REQUESTS] [SEED] [--fault-plan SEED] [--batch B]");
    eprintln!(
        "       serve_bench --fleet N [--requests M] [--shards S] [--interarrival-us U] \
         [--batch B] [SEED]"
    );
    eprintln!("  REQUESTS            number of requests to simulate (default 1200)");
    eprintln!("  SEED                trace RNG seed (default 42)");
    eprintln!("  --fault-plan SEED   add a faulted pass under a chaos schedule");
    eprintln!("  --batch B           serve up to B same-model requests per replay (default 1)");
    eprintln!("  --fleet N           fleet-scale scenario over N devices (profiled service)");
    eprintln!("  --requests M        fleet-mode request count (default 100000)");
    eprintln!("  --shards S          fleet-mode registry shard count (default 8)");
    eprintln!("  --interarrival-us U fleet-mode mean interarrival in µs (default 50)");
    std::process::ExitCode::from(2)
}

fn parse_arg<T: std::str::FromStr>(arg: &str, name: &str) -> Option<T> {
    let parsed = arg.parse().ok();
    if parsed.is_none() {
        eprintln!("serve_bench: {name} must be an integer, got {arg:?}");
    }
    parsed
}

/// Removes `name VALUE` from `args` and parses the value; `Ok(None)` when
/// the flag is absent, `Err(())` when present but malformed.
fn take_value_flag<T: std::str::FromStr>(
    args: &mut Vec<String>,
    name: &str,
) -> Result<Option<T>, ()> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        eprintln!("serve_bench: {name} requires a value");
        return Err(());
    }
    let value = args.remove(i + 1);
    args.remove(i);
    parse_arg(&value, name).map(Some).ok_or(())
}

/// Every service interval must have produced a receipt that verified
/// against the provenance chain; honest devices never yield rejections.
/// A batched interval issues exactly one receipt covering all of its
/// requests, so `receipts == completed - (batched_requests - batches)`;
/// with `max_batch = 1` this is the classic one-receipt-per-completion.
fn assert_receipts(pass: &str, report: &ServeReport) {
    assert_eq!(
        report.receipts_issued + report.batched_requests - report.batches,
        report.completed,
        "{pass}: every service interval issues exactly one receipt"
    );
    assert_eq!(
        report.receipts_verified, report.receipts_issued,
        "{pass}: every issued receipt verifies on an honest fleet"
    );
    assert!(
        report.receipts_rejected.is_empty(),
        "{pass}: honest fleet produced rejected receipts: {:?}",
        report.receipts_rejected
    );
}

/// Offline attestation spot-check over the Zipf-warmed registry: one
/// genuine receipt chains end to end, and tampered variants are rejected
/// with the intended typed codes. Returns a deterministic JSON fragment.
fn attestation_spotcheck(registry: &mut grt_serve::RecordingRegistry) -> String {
    let sku = GpuSku::mali_g71_mp8();
    let spec = &benchmarks()[0];
    let fetch = registry
        .fetch(spec, &sku)
        .expect("warmed registry serves the spot-check model");
    let clock = Clock::new();
    let stats = Rc::new(Stats::new());
    let device = ClientDevice::new(sku, &clock, &stats, PROVISIONING_SECRET);
    let mut replayer = Replayer::new(&device, Rc::new(grt_lint::Linter::new()));
    replayer.attach_provenance(fetch.provenance.digest());
    let compiled = replayer
        .compile_signed(&fetch.recording, &recording_trust_root())
        .expect("the device loads what the registry vetted");
    replayer
        .replay_compiled(&compiled, &test_input(spec, 7), &workload_weights(spec))
        .expect("spot-check replay succeeds");
    let receipt = replayer
        .last_receipt()
        .expect("successful replay emits a receipt");
    let export = registry.export_attestation();
    export
        .verify_receipt(receipt, PROVISIONING_SECRET)
        .expect("genuine receipt verifies offline");

    // A flipped signature byte parses but fails the HMAC check.
    let mut forged_bytes = receipt.to_bytes();
    *forged_bytes.last_mut().expect("receipts are nonempty") ^= 0xFF;
    let forged = ReplayReceipt::from_bytes(&forged_bytes).expect("forgery still parses");
    let sig_code = export
        .verify_receipt(&forged, PROVISIONING_SECRET)
        .expect_err("forged signature must be rejected")
        .code();
    assert_eq!(sig_code, "receipt-signature");

    // A validly-signed receipt for a workload the registry never vetted.
    let orphan = ReplayReceipt::build(
        "phantom",
        receipt.gpu_id,
        receipt.recording_digest,
        receipt.provenance_digest,
        receipt.input_digest,
        receipt.output_digest,
        receipt.counters,
        PROVISIONING_SECRET,
    );
    let orphan_code = export
        .verify_receipt(&orphan, PROVISIONING_SECRET)
        .expect_err("orphaned receipt must be rejected")
        .code();
    assert_eq!(orphan_code, "unknown-recording");

    // A validly-signed receipt claiming a different recording than the one
    // the registry's provenance covers: the chain check catches it even
    // though the device's own signature is genuine.
    let swapped = ReplayReceipt::build(
        &receipt.workload,
        receipt.gpu_id,
        {
            let mut d = receipt.recording_digest;
            d[0] ^= 0xFF;
            d
        },
        receipt.provenance_digest,
        receipt.input_digest,
        receipt.output_digest,
        receipt.counters,
        PROVISIONING_SECRET,
    );
    let swap_code = export
        .verify_receipt(&swapped, PROVISIONING_SECRET)
        .expect_err("recording-digest swap must be rejected")
        .code();
    assert_eq!(swap_code, "recording-digest-mismatch");

    // Truncation is a typed parse error, never a panic.
    let trunc_code = ReplayReceipt::from_bytes(&receipt.to_bytes()[..40])
        .expect_err("truncated receipt must be rejected")
        .code();
    assert_eq!(trunc_code, "truncated");

    format!(
        "{{\"genuine\": \"verified\", \"tampered_signature\": \"{sig_code}\", \
         \"unknown_recording\": \"{orphan_code}\", \
         \"recording_digest_swap\": \"{swap_code}\", \"truncated\": \"{trunc_code}\"}}"
    )
}

/// The `--fleet` scenario: `devices` profiled devices, an event-indexed
/// scheduler, a sharded registry, and a Zipf trace of `requests`
/// requests. Cold records and one replay probe per `(model, SKU)` pair
/// run for real; the rest of the timeline is pure discrete-event
/// simulation, so this scales to 10⁶ requests in CI time.
fn run_fleet_scale(
    devices: usize,
    requests: usize,
    seed: u64,
    shards: usize,
    interarrival_us: u64,
    max_batch: usize,
) -> std::process::ExitCode {
    let models = benchmarks();
    let distinct_skus = {
        let mut ids: Vec<u32> = heterogeneous_fleet().iter().map(|s| s.gpu_id).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    };
    eprintln!(
        "serve_bench: fleet-scale: {requests} requests over {devices} devices \
         ({distinct_skus} SKUs), {} models, seed {seed}, {shards} registry shards, \
         mean interarrival {interarrival_us} µs",
        models.len()
    );

    let trace = generate_trace(
        models.len(),
        &TraceConfig::fleet_scale(requests, seed, interarrival_us),
    );
    let mut cfg = FleetConfig {
        queue_capacity: 32,
        ..FleetConfig::new(fleet_of(devices))
    }
    .with_scheduler(SchedulerKind::EventIndexed)
    .with_service_mode(ServiceMode::Profiled)
    .with_max_batch(max_batch)
    .with_event_log_cap(1024);
    // Every (model, SKU) pair must stay resident: a single eviction would
    // re-run a real multi-second cold record. Sizing each shard for the
    // whole key universe makes eviction impossible however FNV balances.
    cfg.registry.capacity = models.len() * distinct_skus * shards;
    cfg.registry = cfg.registry.with_shards(shards);

    let wall_start = std::time::Instant::now();
    let mut fleet = Fleet::new(models.clone(), cfg);
    let (report, metrics) = fleet.run_detailed(&trace);
    let wall = wall_start.elapsed();

    assert_eq!(report.max_inflight, 1, "job-queue-length-1 invariant");
    assert_receipts("fleet", &report);
    assert_eq!(
        report.completed + report.rejected + report.timed_out + report.failed,
        report.submitted,
        "accounting conservation: every request ends in exactly one bucket"
    );
    let footprint = metrics.approx_bytes();
    assert!(
        footprint < 4 << 20,
        "metrics memory must stay bounded regardless of request count \
         ({footprint} bytes for {requests} requests)"
    );

    let shard_stats = fleet.registry_shard_stats();
    let shard_json: Vec<String> = shard_stats
        .iter()
        .map(|s| {
            format!(
                "{{\"hits\": {}, \"misses\": {}, \"evictions\": {}}}",
                s.hits, s.misses, s.evictions
            )
        })
        .collect();

    println!("{{");
    println!(
        "\"config\": {{\"devices\": {devices}, \"requests\": {requests}, \"models\": {}, \
         \"seed\": {seed}, \"registry_shards\": {shards}, \"queue_capacity\": 32, \
         \"mean_interarrival_us\": {interarrival_us}, \"max_batch\": {max_batch}, \
         \"scheduler\": \"event-indexed\", \"service\": \"profiled\"}},",
        models.len()
    );
    println!("\"registry_shards\": [{}],", shard_json.join(", "));
    println!("\"metrics_bytes\": {footprint},");
    println!("\"report\": {}", report.to_json());
    println!("}}");

    let wall_secs = wall.as_secs_f64();
    eprintln!(
        "serve_bench: fleet: {}/{} completed, {} rejected, {} timed out, \
         {} cold starts, p99 {:.1}ms, {:.1} virtual req/s",
        report.completed,
        report.submitted,
        report.rejected,
        report.timed_out,
        report.cold_starts,
        report.total.p99.as_millis_f64(),
        report.throughput_rps
    );
    eprintln!(
        "serve_bench: fleet: wall {:.1}s ({:.0} req/s wall), metrics footprint {} KiB",
        wall_secs,
        requests as f64 / wall_secs.max(1e-9),
        footprint / 1024
    );
    std::process::ExitCode::SUCCESS
}

fn main() -> std::process::ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "-h" || a == "--help") {
        return usage();
    }
    let Ok(fault_seed) = take_value_flag::<u64>(&mut args, "--fault-plan") else {
        return usage();
    };
    let Ok(fleet_devices) = take_value_flag::<usize>(&mut args, "--fleet") else {
        return usage();
    };
    let Ok(fleet_requests) = take_value_flag::<usize>(&mut args, "--requests") else {
        return usage();
    };
    let Ok(fleet_shards) = take_value_flag::<usize>(&mut args, "--shards") else {
        return usage();
    };
    let Ok(fleet_interarrival) = take_value_flag::<u64>(&mut args, "--interarrival-us") else {
        return usage();
    };
    let Ok(max_batch) = take_value_flag::<usize>(&mut args, "--batch") else {
        return usage();
    };
    let max_batch = max_batch.unwrap_or(1);
    if !(1..=grt_replay::compiled::MAX_BATCH).contains(&max_batch) {
        eprintln!(
            "serve_bench: --batch must be in 1..={}",
            grt_replay::compiled::MAX_BATCH
        );
        return usage();
    }
    if let Some(devices) = fleet_devices {
        if fault_seed.is_some() {
            eprintln!("serve_bench: --fleet and --fault-plan are separate scenarios");
            return usage();
        }
        if devices == 0 || args.len() > 1 {
            return usage();
        }
        let seed: u64 = match args.first().map(|a| parse_arg(a, "SEED")) {
            Some(None) => return usage(),
            Some(Some(n)) => n,
            None => 42,
        };
        return run_fleet_scale(
            devices,
            fleet_requests.unwrap_or(100_000),
            seed,
            fleet_shards.unwrap_or(8).max(1),
            fleet_interarrival.unwrap_or(50).max(1),
            max_batch,
        );
    }
    if fleet_requests.is_some() || fleet_shards.is_some() || fleet_interarrival.is_some() {
        eprintln!("serve_bench: --requests/--shards/--interarrival-us require --fleet");
        return usage();
    }
    if args.len() > 2 {
        return usage();
    }
    let requests: usize = match args.first().map(|a| parse_arg(a, "REQUESTS")) {
        Some(None) => return usage(),
        Some(Some(n)) => n,
        None => 1200,
    };
    let seed: u64 = match args.get(1).map(|a| parse_arg(a, "SEED")) {
        Some(None) => return usage(),
        Some(Some(n)) => n,
        None => 42,
    };

    let models = benchmarks();
    let skus = heterogeneous_fleet();
    let trace_cfg = TraceConfig {
        // Deep enough queues that the cold pass absorbs multi-second
        // record runs as latency (visible in p99), not rejections.
        mean_interarrival: SimTime::from_millis(40),
        ..TraceConfig::new(requests, seed)
    };
    let fleet_cfg = FleetConfig {
        queue_capacity: 256,
        ..FleetConfig::new(skus.clone())
    }
    .with_max_batch(max_batch);
    let trace = generate_trace(models.len(), &trace_cfg);

    eprintln!(
        "serve_bench: {} requests, {} devices ({} SKUs), {} models, seed {}",
        requests,
        skus.len(),
        {
            let mut ids: Vec<u32> = skus.iter().map(|s| s.gpu_id).collect();
            ids.sort_unstable();
            ids.dedup();
            ids.len()
        },
        models.len(),
        seed
    );

    eprintln!("serve_bench: cold pass (empty registry; records on demand)...");
    let mut cold_fleet = Fleet::new(models.clone(), fleet_cfg.clone());
    let cold = cold_fleet.run(&trace);

    eprintln!("serve_bench: warm pass (registry carried over)...");
    let mut registry = cold_fleet.into_registry();
    registry.reset_stats();
    let mut warm_fleet = Fleet::with_registry(models, fleet_cfg, registry);
    let warm = warm_fleet.run(&trace);

    assert_eq!(cold.max_inflight, 1, "job-queue-length-1 invariant");
    assert_eq!(warm.max_inflight, 1, "job-queue-length-1 invariant");
    assert!(
        warm.cold_starts < cold.cold_starts,
        "a warmed registry must save cold starts ({} vs {})",
        warm.cold_starts,
        cold.cold_starts
    );
    assert_receipts("cold", &cold);
    assert_receipts("warm", &warm);

    // Close the attestation loop offline against the registry both passes
    // warmed, including tampered-receipt rejection with typed codes.
    let mut registry = warm_fleet.into_registry();
    let spotcheck = attestation_spotcheck(&mut registry);

    // Optional chaos pass: the same trace against a fresh registry whose
    // record tunnels and serving timeline both run under a deterministic
    // fault schedule — a generated mix of loss bursts / RTT spikes /
    // partitions plus one pinned partition over the cold-start window
    // and one pinned crash inside device 0's first cold start, so the
    // retry, checkpoint-resume, and failover counters are all nonzero.
    let faulted = fault_seed.map(|fseed| {
        eprintln!("serve_bench: faulted pass (fault plan seed {fseed}; fresh registry)...");
        let plan = Rc::new(
            FaultPlan::generate(
                fseed,
                &FaultPlanConfig {
                    devices: skus.len(),
                    ..FaultPlanConfig::default()
                },
            )
            .with_partition(SimTime::from_millis(800), SimTime::from_millis(3000))
            .with_crash(0, SimTime::from_secs(1), SimTime::from_millis(500)),
        );
        let faulted_cfg = FleetConfig {
            queue_capacity: 256,
            ..FleetConfig::new(skus.clone())
        }
        .with_max_batch(max_batch)
        .with_faults(plan);
        let mut faulted_fleet = Fleet::new(benchmarks(), faulted_cfg);
        let report = faulted_fleet.run(&trace);
        assert!(report.max_inflight <= 1, "job-queue-length-1 invariant");
        assert!(
            report.rec_link_retries > 0,
            "the pinned partition must force record-tunnel retries"
        );
        assert!(
            report.crashes > 0 && report.failovers > 0,
            "the pinned crash must be processed and force failovers ({} crashes, {} failovers)",
            report.crashes,
            report.failovers
        );
        // Crash-interrupted serves never complete, so even the chaos pass
        // keeps the one-receipt-per-completion invariant.
        assert_receipts("faulted", &report);
        report
    });

    println!("{{");
    println!(
        "\"config\": {{\"requests\": {}, \"devices\": {}, \"models\": 6, \"seed\": {seed}, \"fault_plan_seed\": {}, \"mean_interarrival_ms\": 40, \"queue_capacity\": 256, \"max_batch\": {max_batch}}},",
        requests,
        skus.len(),
        fault_seed.map_or("null".to_string(), |s| s.to_string()),
    );
    println!("\"attestation_spotcheck\": {spotcheck},");
    println!("\"cold\": {},", cold.to_json());
    match &faulted {
        Some(report) => {
            println!("\"warm\": {},", warm.to_json());
            println!("\"faulted\": {}", report.to_json());
        }
        None => println!("\"warm\": {}", warm.to_json()),
    }
    println!("}}");

    eprintln!(
        "serve_bench: cold: {}/{} completed, {} cold starts, p99 {:.1}ms, {:.1} req/s",
        cold.completed,
        cold.submitted,
        cold.cold_starts,
        cold.total.p99.as_millis_f64(),
        cold.throughput_rps
    );
    eprintln!(
        "serve_bench: warm: {}/{} completed, {} cold starts, p99 {:.1}ms, {:.1} req/s, hit ratio {:.3}",
        warm.completed,
        warm.submitted,
        warm.cold_starts,
        warm.total.p99.as_millis_f64(),
        warm.throughput_rps,
        warm.cache_hit_ratio
    );
    if let Some(f) = &faulted {
        eprintln!(
            "serve_bench: faulted: {}/{} completed, {} crashes, {} failovers, {} evictions, {} tunnel retries, {} checkpoint resumes",
            f.completed,
            f.submitted,
            f.crashes,
            f.failovers,
            f.evictions,
            f.rec_link_retries,
            f.rec_checkpoint_resumes
        );
    }
    std::process::ExitCode::SUCCESS
}
