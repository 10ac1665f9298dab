//! `fleet-1000`: open-loop serving in virtual time. A 1000-device
//! profiled fleet with every `(model, SKU)` recording vetted, probed and
//! resident from set-up serves a ladder of arrival rates; the measured
//! ops are `Fleet::run_detailed` calls, so the serve layer (DES,
//! admission, registry lookups, metrics) does all the measured work.

use crate::cold::distinct_skus;
use crate::common::{breakdown, peak_rss_mb, repeat_setup};
use crate::outcome::{Metric, Outcome};
use crate::trace::{Layer, Tracer};
use grt_crypto::Sha256;
use grt_serve::{
    generate_trace, Fleet, FleetConfig, RecordingRegistry, Request, SchedulerKind, ServeReport,
    ServiceMode, TraceConfig,
};
use grt_sim::SimTime;
use std::time::{Duration, Instant};

/// Mean interarrival per rung, µs: 10k, 12.5k, 13.3k, 14.3k, 16.7k req/s.
const RUNGS_US: [u64; 5] = [100, 80, 75, 70, 60];
/// The rung whose latency is reported and whose refusals count as failed.
const SLO_RUNG: usize = 1;
/// Simulated requests per rung.
const RUNG_REQUESTS: usize = 200_000;
/// Requests of the set-up trace that makes every probe run before timing.
const PRIMING_REQUESTS: usize = 100_000;
const DEVICES: usize = 1000;
const SHARDS: usize = 8;
/// Latency limit on a rung's p99 for `modeled_max_rps_at_slo`.
const SLO_P99: SimTime = SimTime::from_millis(100);
/// A rung "keeps up" only if it drains this soon after its last arrival.
const MAX_DRAIN: SimTime = SimTime::from_secs(1);
/// Idle gap between consecutive rungs on the fleet's timeline.
const GAP: SimTime = SimTime::from_secs(1);

/// Checks the fleet's own invariants on one report; returns what broke.
fn invariants(r: &ServeReport) -> Vec<String> {
    let mut bad = Vec::new();
    if r.completed + r.rejected + r.timed_out + r.failed != r.submitted {
        bad.push(format!(
            "accounting: {} submitted, buckets disagree",
            r.submitted
        ));
    }
    if r.submitted > 0 && r.max_inflight != 1 {
        bad.push(format!(
            "{} concurrent replays on one device",
            r.max_inflight
        ));
    }
    if r.receipts_issued + r.batched_requests - r.batches != r.completed
        || r.receipts_verified != r.receipts_issued
        || !r.receipts_rejected.is_empty()
    {
        bad.push(format!(
            "receipts: {} issued, {} verified, rejected {:?}",
            r.receipts_issued, r.receipts_verified, r.receipts_rejected
        ));
    }
    bad
}

/// The trace shifted to start `offset` later on the fleet's timeline.
fn shifted(trace: &[Request], offset: SimTime) -> Vec<Request> {
    trace
        .iter()
        .map(|r| Request {
            arrival: r.arrival + offset,
            deadline: r.deadline + offset,
            ..r.clone()
        })
        .collect()
}

struct Ready {
    fleet: Fleet,
    rungs: Vec<Vec<Request>>,
    /// Where the next rung may start on the fleet's timeline.
    offset: SimTime,
}

fn set_up(t: &mut Tracer, seed: u64) -> Result<Ready, String> {
    let models = grt_bench::benchmarks();
    let skus = distinct_skus();
    let mut cfg = FleetConfig {
        queue_capacity: 32,
        ..FleetConfig::new(grt_bench::fleet_of(DEVICES))
    }
    .with_scheduler(SchedulerKind::EventIndexed)
    .with_service_mode(ServiceMode::Profiled)
    .with_event_log_cap(1024);
    // Room for every key in every shard: nothing ever evicts, so no
    // measured rung re-runs a record.
    cfg.registry.capacity = models.len() * skus.len() * SHARDS;
    cfg.registry = cfg.registry.with_shards(SHARDS);

    let mut registry = RecordingRegistry::new(cfg.registry.clone());
    for sku in &skus {
        for spec in &models {
            t.time_tagged(Layer::Vet, "vet.registry_fetch", spec.name, |_| {
                registry.fetch(spec, sku)
            })
            .0
            .map_err(|e| format!("{} on {}: {e}", spec.name, sku.name))?;
        }
    }
    registry.reset_stats();
    let mut fleet = Fleet::with_registry(models.clone(), cfg, registry);

    let (priming, _) = t.time(Layer::Serve, "serve.trace_gen", |_| {
        generate_trace(
            models.len(),
            &TraceConfig::fleet_scale(PRIMING_REQUESTS, seed ^ 0x5052_494d, RUNGS_US[SLO_RUNG]),
        )
    });
    let ((report, _), _) = t.time(Layer::Serve, "serve.prime", |_| {
        fleet.run_detailed(&priming)
    });
    if let Some(bad) = invariants(&report).first() {
        return Err(format!("priming run: {bad}"));
    }
    let rungs = RUNGS_US
        .iter()
        .enumerate()
        .map(|(i, &us)| {
            let cfg = TraceConfig::fleet_scale(RUNG_REQUESTS, seed.wrapping_mul(31) + i as u64, us);
            t.time(Layer::Serve, "serve.trace_gen", |_| {
                generate_trace(models.len(), &cfg)
            })
            .0
        })
        .collect();
    Ok(Ready {
        fleet,
        rungs,
        offset: report.makespan + GAP,
    })
}

pub fn run(t: &mut Tracer, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let mut o = Outcome {
        item_name: "simulated requests",
        ..Outcome::default()
    };
    // One set-up only: it is 24 record-and-vet runs plus 24 probes, about
    // 18 s, and a single one already sums 48 independent timed steps.
    let ready = repeat_setup(t, &mut o, 1, |t| set_up(t, seed))?;
    let Ready {
        mut fleet,
        rungs,
        mut offset,
    } = ready;

    // Whole ladders until `seconds` have passed; the first ladder gives
    // the modeled metrics.
    let mut first: Vec<(ServeReport, usize)> = Vec::new();
    let mut max_rps_at_slo = 0.0;
    let deadline = Duration::from_secs(seconds);
    let start = Instant::now();
    for round in 0.. {
        for (i, base) in rungs.iter().enumerate() {
            let trace = shifted(base, offset);
            let last_arrival = trace.last().map_or(offset, |r| r.arrival);
            t.set_op(Some((round * rungs.len() + i) as u64));
            let ((report, metrics), secs) = t.time(Layer::Bench, "bench.op", |t| {
                t.time_tagged(Layer::Serve, "serve.run", "", |_| {
                    fleet.run_detailed(&trace)
                })
                .0
            });
            o.op_s.push(secs);
            o.items += trace.len() as u64;
            o.attempted += trace.len() as u64;
            if i == SLO_RUNG {
                o.failed += report.rejected + report.timed_out + report.failed;
            }
            for bad in invariants(&report) {
                o.wrong(format!("rung {i}: {bad}"));
            }
            if round == 0 {
                let drained = report.makespan.saturating_sub(last_arrival);
                first.push((report.clone(), metrics.approx_bytes()));
                o.notes.push(format!(
                    "rung {:.0} req/s: p50 {:.3} ms, p99 {:.3} ms, {} rejected, {} timed out, \
                     drained {:.3} s after the last arrival",
                    1e6 / RUNGS_US[i] as f64,
                    report.total.p50.as_millis_f64(),
                    report.total.p99.as_millis_f64(),
                    report.rejected,
                    report.timed_out,
                    drained.as_secs_f64()
                ));
                if report.rejected + report.timed_out + report.failed == 0
                    && report.total.p99 <= SLO_P99
                    && drained <= MAX_DRAIN
                {
                    max_rps_at_slo = 1e6 / RUNGS_US[i] as f64;
                }
            }
            offset = report.makespan + GAP;
        }
        if start.elapsed() >= deadline {
            break;
        }
    }
    t.set_op(None);
    o.peak_rss_mb = peak_rss_mb();

    let mut digest = Sha256::new();
    for (report, _) in &first {
        digest.update(report.to_json().as_bytes());
    }
    o.outputs_digest = Sha256::to_hex(&digest.finalize());
    let (slo, metrics_bytes) = &first[SLO_RUNG];
    o.modeled = vec![
        Metric::new(
            "modeled_latency_ms_p50",
            "ms",
            slo.total.p50.as_millis_f64(),
        ),
        Metric::new(
            "modeled_latency_ms_p99",
            "ms",
            slo.total.p99.as_millis_f64(),
        ),
        Metric::new("modeled_max_rps_at_slo", "req/s", max_rps_at_slo),
    ];
    if t.enabled() {
        let host_s: f64 = o.op_s.iter().sum();
        let sum = |f: fn(&ServeReport) -> u64| first.iter().map(|(r, _)| f(r)).sum::<u64>() as f64;
        o.counts = vec![
            Metric::new(
                "serve.host_us_per_request",
                "us",
                host_s * 1e6 / o.items.max(1) as f64,
            ),
            Metric::new(
                "serve.queue_wait_modeled_ms_p99",
                "ms",
                slo.queue_wait.p99.as_millis_f64(),
            ),
            Metric::new(
                "serve.service_modeled_ms_p50",
                "ms",
                slo.service.p50.as_millis_f64(),
            ),
            Metric::new("serve.rejected", "count", sum(|r| r.rejected)),
            Metric::new("serve.timed_out", "count", sum(|r| r.timed_out)),
            Metric::new("serve.registry_hit_ratio", "fraction", slo.cache_hit_ratio),
            Metric::new(
                "serve.device_loads",
                "count",
                slo.per_device.iter().map(|d| d.loads).sum::<u64>() as f64,
            ),
            Metric::new("serve.metrics_bytes", "bytes", *metrics_bytes as f64),
        ];
        let models = grt_bench::benchmarks();
        let pairs: Vec<_> = distinct_skus()
            .into_iter()
            .flat_map(|sku| models.iter().map(move |m| (m.clone(), sku.clone())))
            .collect();
        o.counts.extend(breakdown(t, &pairs)?);
    }
    Ok(o)
}
