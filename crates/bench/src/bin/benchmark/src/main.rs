//! The repository's benchmark: host wall time and modeled device time of
//! GR-T's four ways of being used (warm scalar replay, batched replay,
//! cold start, fleet serving), measured from outside the program through
//! each layer's public functions. See README.md beside this package.
//!
//! ```text
//! benchmark run --workload W [--seed S] [--seconds T] [--trace 0|1|FILE] [--json FILE]
//! benchmark run-all --runs N --out DIR [--trace] [--seed S] [--seconds T]
//! benchmark compare A_DIR B_DIR [--bench BENCHMARK.json]
//! ```

mod cold;
mod common;
mod compare;
mod fleet;
mod json;
mod outcome;
mod replay;
mod stats;
mod trace;

use json::Json;
use outcome::Outcome;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Tracer;

/// The workloads, in the order `run-all` runs them.
pub const WORKLOADS: [&str; 4] = ["replay-scalar", "replay-batch8", "cold-start", "fleet-1000"];

const DEFAULT_SEED: u64 = 42;
const DEFAULT_SECONDS: u64 = 10;

const USAGE: &str = "usage:
  benchmark run --workload W [--seed S] [--seconds T] [--trace 0|1|FILE] [--json FILE]
  benchmark run-all --runs N --out DIR [--trace] [--seed S] [--seconds T]
  benchmark compare A_DIR B_DIR [--bench BENCHMARK.json]
workloads: replay-scalar, replay-batch8, cold-start, fleet-1000
--trace 1 writes spans to bench-traces/<workload>-seed<S>.json; seed 7 is held out for claims";

/// `--flag value` pairs after the subcommand; bare `--flag`s map to "".
fn flags(args: &[String], bare: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if !a.starts_with("--") {
            return Err(format!("unexpected argument {a:?}"));
        }
        let value = if bare.contains(&a.as_str()) {
            String::new()
        } else {
            it.next().ok_or(format!("{a} needs a value"))?.clone()
        };
        out.push((a.clone(), value));
    }
    Ok(out)
}

fn flag<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .rev()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

fn number(flags: &[(String, String)], name: &str, default: u64) -> Result<u64, String> {
    flag(flags, name).map_or(Ok(default), |v| {
        v.parse()
            .map_err(|_| format!("{name} must be a whole number, got {v:?}"))
    })
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_workload(
    t: &mut Tracer,
    workload: &str,
    seed: u64,
    seconds: u64,
) -> Result<Outcome, String> {
    match workload {
        "replay-scalar" => replay::run(t, replay::Shape::Scalar, seed, seconds),
        "replay-batch8" => replay::run(t, replay::Shape::Batch(8), seed, seconds),
        "cold-start" => cold::run(t, seed, seconds),
        "fleet-1000" => fleet::run(t, seed, seconds),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// `run`: one workload in this process. Exit 0 only if every output was
/// right and no op failed.
fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let f = flags(args, &[])?;
    let workload = flag(&f, "--workload").ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = number(&f, "--seed", DEFAULT_SEED)?;
    let seconds = number(&f, "--seconds", DEFAULT_SECONDS)?;
    let trace_file = match flag(&f, "--trace").unwrap_or("0") {
        "0" => None,
        "1" => Some(PathBuf::from(format!(
            "bench-traces/{workload}-seed{seed}.json"
        ))),
        path => Some(PathBuf::from(path)),
    };
    let mut t = Tracer::new(trace_file.is_some());
    let o = run_workload(&mut t, workload, seed, seconds)?;
    let layers = trace_file
        .as_ref()
        .map(|_| outcome::per_layer(t.spans(), &o.counts));
    if let Some(path) = &trace_file {
        write_file(path, &t.to_json().to_string_compact())?;
        println!("# spans written to {}", path.display());
    }
    if let Some(path) = flag(&f, "--json") {
        let detail = outcome::detail(&o, workload, seed, seconds, layers.as_deref());
        write_file(Path::new(path), &detail.to_string_compact())?;
    }
    outcome::print_lines(&o, workload, layers.as_deref());
    println!("{}", outcome::result_line(&o, layers.as_deref()));
    Ok(if o.correct() && o.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// What every `run` that `run-all` spawns for one workload shares.
struct RunArgs<'a> {
    workload: &'a str,
    seed: u64,
    seconds: u64,
}

/// Spawns this binary's `run` once with `--trace trace --json json`,
/// waits for it, and keeps its stdout in `log`.
fn child_run(r: &RunArgs, trace: &str, json: &Path, log: &Path) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(["run", "--workload", r.workload, "--trace", trace])
        .args([
            "--seed",
            &r.seed.to_string(),
            "--seconds",
            &r.seconds.to_string(),
        ])
        .arg("--json")
        .arg(json)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    write_file(log, &String::from_utf8_lossy(&out.stdout))?;
    if out.status.success() {
        Ok(())
    } else {
        Err(format!("{} run exited with {}", r.workload, out.status))
    }
}

/// `run-all`: every workload N times, each in a fresh child process, one
/// at a time; with `--trace`, then one traced run per workload and its
/// overhead against the untraced median.
fn cmd_run_all(args: &[String]) -> Result<ExitCode, String> {
    let f = flags(args, &["--trace"])?;
    let runs = number(&f, "--runs", 0)?;
    let out = PathBuf::from(flag(&f, "--out").ok_or("--out DIR is required")?);
    if runs == 0 {
        return Err("--runs must be at least 1".into());
    }
    let seed = number(&f, "--seed", DEFAULT_SEED)?;
    let seconds = number(&f, "--seconds", DEFAULT_SECONDS)?;
    let wall = std::time::Instant::now();
    let mut ok = true;
    for workload in WORKLOADS {
        let r = RunArgs {
            workload,
            seed,
            seconds,
        };
        for i in 0..runs {
            eprintln!("run-all: {workload} run {}/{runs}", i + 1);
            let (json, log) = (
                out.join(format!("{workload}-{i}.json")),
                out.join(format!("{workload}-{i}.log")),
            );
            if let Err(e) = child_run(&r, "0", &json, &log) {
                eprintln!("run-all: {e}");
                ok = false;
            }
        }
        if flag(&f, "--trace").is_some() {
            eprintln!("run-all: {workload} traced run");
            let dir = out.join("traced");
            let spans = dir.join(format!("{workload}.spans.json"));
            let json = dir.join(format!("{workload}.json"));
            match child_run(
                &r,
                &spans.display().to_string(),
                &json,
                &dir.join(format!("{workload}.log")),
            ) {
                Ok(()) => print_overhead(workload, &out, &json)?,
                Err(e) => {
                    eprintln!("run-all: {e}");
                    ok = false;
                }
            }
        }
    }
    println!(
        "run-all: {} runs in {:.1} s wall",
        runs as usize * WORKLOADS.len(),
        wall.elapsed().as_secs_f64()
    );
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Tracing overhead: each host end-to-end metric of the traced run
/// against the median of the workload's untraced runs in `dir`.
fn print_overhead(workload: &str, dir: &Path, traced: &Path) -> Result<(), String> {
    let read = |p: &Path| -> Result<Json, String> {
        Json::parse(&std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?)
    };
    let traced = read(traced)?;
    let mut untraced = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(|e| e.to_string())?.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with(&format!("{workload}-")) && name.ends_with(".json") {
            untraced.push(read(&entry.path())?);
        }
    }
    let value = |r: &Json, m: &str| r.get("metrics")?.get(m)?.get("value")?.as_f64();
    for (m, unit) in outcome::END_TO_END {
        let base: Vec<f64> = untraced.iter().filter_map(|r| value(r, m)).collect();
        if let (Some(b), Some(tr)) = (stats::median(&base), value(&traced, m)) {
            println!(
                "tracing overhead {workload:<14} {m:<24} untraced {b:.4} {unit}, traced {tr:.4} {unit} ({:+.1}%)",
                100.0 * (tr - b) / b
            );
        }
    }
    Ok(())
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b, rest @ ..] = args else {
        return Err("compare needs two run directories".into());
    };
    let f = flags(rest, &[])?;
    let bench = flag(&f, "--bench").unwrap_or("BENCHMARK.json");
    let ok = compare::compare(Path::new(a), Path::new(b), Path::new(bench))?;
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("run-all") => cmd_run_all(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        _ => Err("missing or unknown subcommand".into()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists the binary prints must be the ones
    /// `BENCHMARK.json` declares, with the same units.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let bench = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            bench
                .get(key)
                .unwrap()
                .items()
                .iter()
                .map(|m| {
                    (
                        m.get("name").unwrap().as_str().unwrap().to_owned(),
                        m.get("unit").unwrap().as_str().unwrap().to_owned(),
                    )
                })
                .collect()
        };
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&outcome::END_TO_END));
        assert_eq!(listed("per_layer"), own(&outcome::PER_LAYER));
        let names: Vec<String> = bench
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap().to_owned())
            .collect();
        assert_eq!(names, WORKLOADS);
    }

    #[test]
    fn flags_parse_pairs_and_bare_switches() {
        let args: Vec<String> = ["--runs", "5", "--trace", "--out", "d"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let f = flags(&args, &["--trace"]).unwrap();
        assert_eq!(number(&f, "--runs", 0), Ok(5));
        assert_eq!(flag(&f, "--trace"), Some(""));
        assert_eq!(flag(&f, "--out"), Some("d"));
        assert!(flags(&["--runs".to_string()], &[]).is_err());
        assert!(number(&f, "--out", 0).is_err());
    }
}
