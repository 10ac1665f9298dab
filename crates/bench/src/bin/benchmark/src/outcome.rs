//! What one run measured, and how it is printed.
//!
//! A run prints one `name value unit` line per metric, then, as its last
//! stdout line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics of [`END_TO_END`] when untraced, the
//! per-layer metrics of [`PER_LAYER`] when traced. `--json FILE` also
//! writes everything (host, modeled, per-layer, digest) to one file,
//! which `benchmark compare` reads.

use crate::json::Json;
use crate::stats;
use crate::trace::{self_times_ns, Layer, Span};
use std::collections::BTreeMap;

/// One named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// The host end-to-end metrics, as named in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("latency_host_ms_p50", "ms"),
    ("throughput_per_host_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics a traced run reports on its last line, as named
/// in `BENCHMARK.json`: those every workload measures. Spans of layers
/// only some workloads call (`replay.*`, `attest.*`, `serve.*`) and the
/// modeled counts are printed and kept in `--json`, not listed here, so
/// no listed time reads a constant 0.
pub const PER_LAYER: [(&str, &str); 21] = [
    ("record.session_host_ms", "ms"),
    ("record.busy_ms", "ms"),
    ("record.blocking_rtts", "count"),
    ("record.mispredictions", "count"),
    ("record.sync_bytes", "bytes"),
    ("record.speculative_commit_share", "fraction"),
    ("record.clean_skip_share", "fraction"),
    ("vet.registry_fetch_host_ms", "ms"),
    ("vet.verify_host_ms", "ms"),
    ("vet.lift_host_ms", "ms"),
    ("vet.lint_host_ms", "ms"),
    ("vet.fuse_host_ms", "ms"),
    ("vet.compile_host_ms", "ms"),
    ("vet.busy_ms", "ms"),
    ("vet.events", "count"),
    ("vet.compiled_ops", "count"),
    ("vet.chains_fused", "count"),
    ("bench.setup_host_ms", "ms"),
    ("bench.op_host_ms", "ms"),
    ("bench.op_calls", "count"),
    ("bench.unattributed_ms", "ms"),
];

/// Everything a workload hands back after its measured phase.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Host seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Host seconds of each measured op.
    pub op_s: Vec<f64>,
    /// Units of work the measured ops completed (inferences, cold starts
    /// or simulated requests): the throughput numerator.
    pub items: u64,
    /// What one item is, for the printed throughput line.
    pub item_name: &'static str,
    /// Measured ops (simulated requests for the fleet) attempted.
    pub attempted: u64,
    /// Of those, ops that returned an error or a receipt that failed to
    /// verify (for the fleet: requests not served at the 12.5k rung).
    pub failed: u64,
    /// Wrong outputs and broken invariants, one line each.
    pub wrong: Vec<String>,
    /// Modeled (virtual-time) metrics: a function of the seed only.
    pub modeled: Vec<Metric>,
    /// SHA-256 over the first block's outputs, in op order.
    pub outputs_digest: String,
    /// Per-layer counts gathered from the layers' own results.
    pub counts: Vec<Metric>,
    /// Extra human-readable lines (e.g. the fleet's rate ladder).
    pub notes: Vec<String>,
    /// Peak resident set size after the measured phase, in MiB.
    pub peak_rss_mb: f64,
}

impl Outcome {
    /// Records `wrong` as a correctness failure.
    pub fn wrong(&mut self, what: impl Into<String>) {
        self.wrong.push(what.into());
    }

    pub fn correct(&self) -> bool {
        self.wrong.is_empty()
    }

    /// The host end-to-end metrics, in [`END_TO_END`] order.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let busy: f64 = self.op_s.iter().sum();
        let values = [
            stats::median(&self.setup_s).unwrap_or(f64::NAN),
            stats::median(&self.op_s).map_or(f64::NAN, |s| s * 1e3),
            self.items as f64 / busy,
            self.peak_rss_mb,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| Metric::new(name, unit, v))
            .collect()
    }

    /// The op-latency tail by the ten-samples-beyond rule, if one above
    /// the median exists.
    pub fn tail(&self) -> Option<Metric> {
        let (p, v) = stats::tail(&self.op_s).filter(|&(p, _)| p > 50)?;
        Some(Metric::new(format!("latency_host_ms_p{p}"), "ms", v * 1e3))
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Per-layer metrics from the spans plus the layers' counts: for each
/// span name a median per call (`_host_ms`), a call count (`_calls`) and
/// total self time (`_busy_ms`); per-network replay medians; per-layer
/// self-time totals; and the op time no child span accounts for.
pub fn per_layer(spans: &[Span], counts: &[Metric]) -> Vec<Metric> {
    let own = self_times_ns(spans);
    let mut by_name: BTreeMap<String, (Vec<f64>, f64)> = BTreeMap::new();
    let mut by_layer: BTreeMap<Layer, f64> = BTreeMap::new();
    for (s, &self_ns) in spans.iter().zip(&own) {
        let ms = s.duration_ns() as f64 / 1e6;
        let self_ms = self_ns as f64 / 1e6;
        let mut keys = vec![s.name.to_owned()];
        if !s.tag.is_empty() {
            keys.push(format!("{}.{}", s.name, s.tag));
        }
        for key in keys {
            let e = by_name.entry(key).or_default();
            e.0.push(ms);
            e.1 += self_ms;
        }
        *by_layer.entry(s.layer).or_default() += self_ms;
    }
    let mut out = Vec::new();
    for (name, (durations, busy)) in &by_name {
        out.push(Metric::new(
            format!("{name}_host_ms"),
            "ms",
            stats::median(durations).unwrap_or(0.0),
        ));
        out.push(Metric::new(
            format!("{name}_calls"),
            "count",
            durations.len() as f64,
        ));
        out.push(Metric::new(format!("{name}_busy_ms"), "ms", *busy));
    }
    let unattributed = by_name.get("bench.op").map_or(0.0, |e| e.1);
    out.push(Metric::new("bench.unattributed_ms", "ms", unattributed));
    for (layer, busy) in by_layer {
        out.push(Metric::new(format!("{}.busy_ms", layer.name()), "ms", busy));
    }
    out.extend(counts.iter().cloned());
    out
}

/// Looks `name` up in `metrics`; 0 when the run never produced it.
fn value_of(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .map_or(0.0, |m| m.value)
}

fn metrics_json(metrics: &[Metric]) -> Json {
    let mut obj = Json::obj();
    for m in metrics {
        obj.push(
            &m.name,
            Json::obj().with("value", m.value).with("unit", m.unit),
        );
    }
    obj
}

/// The run's last stdout line.
pub fn result_line(o: &Outcome, layers: Option<&[Metric]>) -> String {
    let metrics = match layers {
        None => o.end_to_end(),
        Some(layers) => PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric::new(name, unit, value_of(layers, name)))
            .collect(),
    };
    Json::obj()
        .with("correct", o.correct())
        .with("attempted", o.attempted)
        .with("failed", o.failed)
        .with("metrics", metrics_json(&metrics))
        .to_string_compact()
}

/// The full record of one run (`--json FILE`).
pub fn detail(
    o: &Outcome,
    workload: &str,
    seed: u64,
    seconds: u64,
    layers: Option<&[Metric]>,
) -> Json {
    let mut d = Json::obj()
        .with("workload", workload)
        .with("seed", seed)
        .with("seconds", seconds)
        .with("traced", layers.is_some())
        .with("correct", o.correct())
        .with("attempted", o.attempted)
        .with("failed", o.failed)
        .with("ops_failed_share", o.failed_share())
        .with("metrics", metrics_json(&o.end_to_end()))
        .with("tail", o.tail().map_or(Json::Null, |t| metrics_json(&[t])))
        .with("samples", o.op_s.len())
        .with(
            "setup_runs_s",
            o.setup_s.iter().map(|&s| Json::Num(s)).collect::<Vec<_>>(),
        )
        .with("modeled", metrics_json(&o.modeled))
        .with("outputs_digest", o.outputs_digest.as_str())
        .with(
            "wrong",
            o.wrong
                .iter()
                .map(|w| Json::from(w.as_str()))
                .collect::<Vec<_>>(),
        );
    if let Some(layers) = layers {
        d.push("per_layer", metrics_json(layers));
    }
    d
}

/// Human-readable lines: every metric by name with its unit.
pub fn print_lines(o: &Outcome, workload: &str, layers: Option<&[Metric]>) {
    let line = |m: &Metric| println!("{:<40} {:>16} {}", m.name, fmt(m.value), m.unit);
    println!("# workload {workload}");
    for m in o.end_to_end() {
        line(&m);
    }
    match o.tail() {
        Some(t) => line(&t),
        None => println!(
            "# no latency tail: {} samples leave fewer than {} beyond p75",
            o.op_s.len(),
            stats::MIN_BEYOND
        ),
    }
    println!(
        "# {} measured ops, {} {} in {:.3} s of op time; {} set-up runs, {:.3} s in all",
        o.op_s.len(),
        o.items,
        o.item_name,
        o.op_s.iter().sum::<f64>(),
        o.setup_s.len(),
        o.setup_s.iter().sum::<f64>()
    );
    line(&Metric::new(
        "ops_failed_share",
        "fraction",
        o.failed_share(),
    ));
    for m in &o.modeled {
        line(m);
    }
    println!("{:<40} {}", "outputs_digest", o.outputs_digest);
    for n in &o.notes {
        println!("# {n}");
    }
    for w in &o.wrong {
        println!("# WRONG: {w}");
    }
    if let Some(layers) = layers {
        println!("# per-layer (traced run)");
        for m in layers {
            line(m);
        }
    }
}

fn fmt(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v}")
    } else {
        format!("{v:.6}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;

    #[test]
    fn per_layer_medians_counts_and_unattributed_time() {
        let mut t = Tracer::new(true);
        for _ in 0..3 {
            t.time(Layer::Bench, "bench.op", |t| {
                t.time_tagged(Layer::Replay, "replay.run", "MNIST", |_| ());
            });
        }
        let counts = [Metric::new("replay.events", "count", 42.0)];
        let m = per_layer(t.spans(), &counts);
        assert_eq!(value_of(&m, "replay.run_calls"), 3.0);
        assert_eq!(value_of(&m, "replay.run.MNIST_calls"), 3.0);
        assert_eq!(value_of(&m, "replay.events"), 42.0);
        // The op's self time is exactly the part no replay span covers.
        assert_eq!(
            value_of(&m, "bench.unattributed_ms"),
            value_of(&m, "bench.op_busy_ms")
        );
        assert_eq!(value_of(&m, "serve.busy_ms"), 0.0);
        // A traced result line carries exactly the per-layer list.
        let o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        let line = Json::parse(&result_line(&o, Some(&m))).unwrap();
        assert_eq!(
            line.get("metrics").unwrap().entries().len(),
            PER_LAYER.len()
        );
    }
}
