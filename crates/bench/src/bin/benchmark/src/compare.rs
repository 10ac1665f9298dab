//! `benchmark compare A_DIR B_DIR`: two sets of runs, metric by metric.
//!
//! For each `(workload, end-to-end metric)` both sides' medians and
//! quartiles are printed with a verdict against the metric's bound from
//! `BENCHMARK.json`. A spread wider than the bound makes the verdict
//! "unresolved" unless every run of one side beats every run of the
//! other. Modeled metrics and output digests must be byte-identical for
//! equal seeds, and no run may fail an op.

use crate::json::Json;
use crate::stats::quartiles;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every B run beats every A run.
    Improved,
    /// B's median is within the bound of A's.
    Unchanged,
    /// B's median is worse than A's by more than the bound.
    Regression,
    /// The runs spread wider than the bound; no call either way.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Relative change of B against A, positive when B is worse.
fn worse_by(a_med: f64, b_med: f64, lower_is_better: bool) -> f64 {
    let d = (b_med - a_med) / a_med;
    if lower_is_better {
        d
    } else {
        -d
    }
}

/// Interquartile range over the median; `None` with fewer than 2 runs.
fn spread(v: &[f64]) -> Option<f64> {
    let [q1, med, q3] = quartiles(v)?;
    Some((q3 - q1) / med.abs())
}

/// The verdict for one metric: `a` is the parent's runs, `b` the change's.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (Some([_, a_med, _]), Some([_, b_med, _])) = (quartiles(a), quartiles(b)) else {
        return Verdict::Unresolved;
    };
    let worse = |x: f64, y: f64| if lower_is_better { x > y } else { x < y };
    let b_all_worse = b.iter().all(|&x| a.iter().all(|&y| worse(x, y)));
    let b_all_better = b.iter().all(|&x| a.iter().all(|&y| worse(y, x)));
    let change = worse_by(a_med, b_med, lower_is_better);
    let wide = spread(a)
        .unwrap_or(f64::INFINITY)
        .max(spread(b).unwrap_or(f64::INFINITY))
        > bound;
    if b_all_better && change < 0.0 {
        Verdict::Improved
    } else if change > bound && (!wide || b_all_worse) {
        Verdict::Regression
    } else if wide {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

/// `(name, lower_is_better, bound)` of each end-to-end metric.
fn bounds(bench: &Json) -> Vec<(String, bool, f64)> {
    bench
        .get("end_to_end")
        .map(Json::items)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_owned(),
                m.get("better")?.as_str()? == "lower",
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

/// Every run file (`*.json` with a `workload` key) directly in `dir`.
fn load_runs(dir: &Path) -> Result<Vec<Json>, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    let mut runs = Vec::new();
    for f in files {
        let text = std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
        let run = Json::parse(&text).map_err(|e| format!("{}: {e}", f.display()))?;
        if run.get("workload").is_some() {
            runs.push(run);
        }
    }
    Ok(runs)
}

fn metric(run: &Json, section: &str, name: &str) -> Option<f64> {
    run.get(section)?.get(name)?.get("value")?.as_f64()
}

fn fingerprint(run: &Json) -> String {
    format!(
        "{} digest {}",
        run.get("modeled")
            .map_or(String::new(), Json::to_string_compact),
        run.get("outputs_digest")
            .and_then(Json::as_str)
            .unwrap_or("-")
    )
}

/// Prints the comparison; `Ok(true)` when nothing regressed or broke.
pub fn compare(a_dir: &Path, b_dir: &Path, bench_json: &Path) -> Result<bool, String> {
    let bench = Json::parse(
        &std::fs::read_to_string(bench_json)
            .map_err(|e| format!("{}: {e}", bench_json.display()))?,
    )?;
    let bounds = bounds(&bench);
    let (a_runs, b_runs) = (load_runs(a_dir)?, load_runs(b_dir)?);
    let mut ok = true;

    // Hard checks on every run: correct outputs, no failed op, and one
    // modeled fingerprint per (workload, seed) across both sides.
    let mut prints: BTreeMap<(String, u64), BTreeMap<String, Vec<String>>> = BTreeMap::new();
    for (side, runs) in [("A", &a_runs), ("B", &b_runs)] {
        for r in runs.iter() {
            let w = r.get("workload").and_then(Json::as_str).unwrap_or("?");
            let seed = r.get("seed").and_then(Json::as_f64).unwrap_or(-1.0) as u64;
            if r.get("correct").and_then(Json::as_bool) != Some(true) {
                println!("{side} {w} seed {seed}: a run produced wrong output");
                ok = false;
            }
            let share = r.get("ops_failed_share").and_then(Json::as_f64);
            if share != Some(0.0) {
                println!("{side} {w} seed {seed}: ops_failed_share = {share:?}, must be 0");
                ok = false;
            }
            prints
                .entry((w.to_owned(), seed))
                .or_default()
                .entry(fingerprint(r))
                .or_default()
                .push(side.to_owned());
        }
    }
    for ((w, seed), fps) in &prints {
        if fps.len() > 1 {
            println!("{w} seed {seed}: modeled metrics or outputs differ between runs:");
            for (fp, sides) in fps {
                println!("  {sides:?}: {fp}");
            }
            ok = false;
        }
    }

    let workloads: BTreeSet<&str> = prints.keys().map(|(w, _)| w.as_str()).collect();
    println!(
        "{:<14} {:<24} {:>30} {:>30} {:>8} {:>7} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "spread", "bound"
    );
    for &w in &workloads {
        let side = |runs: &[Json], name: &str| -> Vec<f64> {
            runs.iter()
                .filter(|r| r.get("workload").and_then(Json::as_str) == Some(w))
                .filter_map(|r| metric(r, "metrics", name))
                .collect()
        };
        for (name, lower, bound) in &bounds {
            let (a, b) = (side(&a_runs, name), side(&b_runs, name));
            let v = verdict(&a, &b, *lower, *bound);
            ok &= v != Verdict::Regression;
            let show = |v: &[f64]| match quartiles(v) {
                Some([q1, m, q3]) => format!("{m:.4} [{q1:.4}, {q3:.4}]"),
                None => format!("{} runs", v.len()),
            };
            let (change, wide) = match (quartiles(&a), quartiles(&b)) {
                (Some([_, am, _]), Some([_, bm, _])) => (
                    format!("{:+.1}%", 100.0 * worse_by(am, bm, *lower)),
                    format!(
                        "{:.1}%",
                        100.0 * spread(&a).unwrap_or(0.0).max(spread(&b).unwrap_or(0.0))
                    ),
                ),
                _ => ("-".into(), "-".into()),
            };
            println!(
                "{w:<14} {name:<24} {:>30} {:>30} {change:>8} {wide:>7} {:>5.0}%  {}",
                show(&a),
                show(&b),
                bound * 100.0,
                v.label()
            );
        }
    }
    println!("(change: positive means B is worse; spread: wider side's IQR / median)");
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: [f64; 5] = [10.0, 10.1, 9.9, 10.05, 9.95];

    #[test]
    fn within_bound_is_unchanged() {
        let b = A.map(|x| x * 1.03);
        assert_eq!(verdict(&A, &b, true, 0.10), Verdict::Unchanged);
    }

    #[test]
    fn worse_than_bound_is_a_regression_either_direction() {
        let slower = A.map(|x| x * 1.3);
        assert_eq!(verdict(&A, &slower, true, 0.10), Verdict::Regression);
        // For a higher-is-better metric the same shift is an improvement.
        assert_eq!(verdict(&A, &slower, false, 0.10), Verdict::Improved);
        let lower = A.map(|x| x * 0.7);
        assert_eq!(verdict(&A, &lower, false, 0.10), Verdict::Regression);
    }

    #[test]
    fn every_run_better_is_improved() {
        let b = A.map(|x| x * 0.8);
        assert_eq!(verdict(&A, &b, true, 0.10), Verdict::Improved);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_the_sides_separate() {
        let noisy = [5.0, 10.0, 15.0, 8.0, 20.0];
        // Medians 10 vs ~11: within noise that spans 80% of the median.
        let b = noisy.map(|x| x * 1.1);
        assert_eq!(verdict(&noisy, &b, true, 0.10), Verdict::Unresolved);
        // Every B run slower than every A run: a regression despite noise.
        let far = noisy.map(|x| x + 100.0);
        assert_eq!(verdict(&noisy, &far, true, 0.10), Verdict::Regression);
        // A single run per side has no spread at all.
        assert_eq!(verdict(&[1.0], &[1.0], true, 0.10), Verdict::Unresolved);
    }
}
