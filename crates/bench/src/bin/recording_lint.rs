//! recording-lint: lint `.grt` recording files ahead of replay.
//!
//! The CLI front-end for the `grt-lint` analyzer. Each file is verified
//! against the fleet trust root, its SKU is resolved from the recording
//! header, and all nine safety rules (R1–R9, see DESIGN.md "Recording
//! verification" and §12) run over the lifted semantics IR. One JSON report per file goes
//! to stdout; the process exits non-zero if any file fails to load or has
//! an `Error`-severity finding.
//!
//! Usage:
//!
//! ```text
//! recording-lint <file.grt>...          lint recordings
//! recording-lint --record-golden <dir>  record the six zoo networks
//!                                       (Mali-G71 MP8) into <dir>
//! ```
//!
//! The `--record-golden` mode exists for CI: `scripts/ci.sh` records the
//! golden corpus, then lints it, asserting the analyzer has no false
//! positives on known-good recordings.

use grt_bench::{benchmarks, record_warm, signed_from_blob, signed_to_blob};
use grt_core::session::RecorderMode;
use grt_gpu::GpuSku;
use grt_lint::Linter;
use grt_net::NetConditions;
use grt_replay::client::recording_trust_root;
use std::path::Path;
use std::process::ExitCode;

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

fn record_golden(dir: &str) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("recording-lint: cannot create {dir}: {e}");
        return ExitCode::FAILURE;
    }
    for spec in benchmarks() {
        let (_session, out) = record_warm(&spec, RecorderMode::OursMDS, NetConditions::wifi());
        let path = Path::new(dir).join(format!("{}.grt", sanitize(spec.name)));
        let blob = signed_to_blob(&out.recording);
        if let Err(e) = std::fs::write(&path, &blob) {
            eprintln!("recording-lint: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!(
            "recorded {:<12} -> {} ({} bytes)",
            spec.name,
            path.display(),
            blob.len()
        );
    }
    ExitCode::SUCCESS
}

fn lint_files(paths: &[String]) -> ExitCode {
    let key = recording_trust_root();
    let linter = Linter::new();
    let mut failed = false;
    for path in paths {
        let blob = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("recording-lint: cannot read {path}: {e}");
                failed = true;
                continue;
            }
        };
        let Some(signed) = signed_from_blob(&blob) else {
            eprintln!("recording-lint: {path}: too short to be a recording");
            failed = true;
            continue;
        };
        let Some(rec) = signed.verify_and_parse(&key) else {
            eprintln!("recording-lint: {path}: signature/format verification failed");
            failed = true;
            continue;
        };
        let Some(sku) = GpuSku::by_gpu_id(rec.gpu_id) else {
            eprintln!(
                "recording-lint: {path}: unknown GPU id {:#x} in header",
                rec.gpu_id
            );
            failed = true;
            continue;
        };
        // A known workload name makes R4/R6 stricter (shape checks against
        // the spec); unknown workloads still get the structural rules.
        let specs = benchmarks();
        let spec = specs.iter().find(|s| s.name == rec.workload);
        let report = linter.lint(&rec, &sku, spec);
        println!("{}", report.to_json());
        if !report.passed() {
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((flag, rest)) if flag == "--record-golden" => match rest {
            [dir] => record_golden(dir),
            _ => {
                eprintln!("usage: recording-lint --record-golden <dir>");
                ExitCode::FAILURE
            }
        },
        Some(_) => lint_files(&args),
        None => {
            eprintln!("usage: recording-lint <file.grt>... | --record-golden <dir>");
            ExitCode::FAILURE
        }
    }
}
