//! receipt-verify: offline audit of replay receipts against a registry
//! attestation export.
//!
//! The serving side emits one signed [`ReplayReceipt`] per completed
//! replay, chained to the [`grt_attest::ProvenanceRecord`] the registry
//! signed when
//! it vetted the recording (see DESIGN.md "Attestation and provenance").
//! This tool closes the loop *offline*: given the registry's export — a
//! deterministic container of (workload, SKU, recording digest, lint
//! report, provenance) — it re-verifies every receipt's full chain with
//! no live registry, device, or network in sight.
//!
//! Usage:
//!
//! ```text
//! receipt-verify --emit <dir>                 warm a registry with the six
//!                                             zoo networks, replay each on
//!                                             Mali-G71 MP8, write
//!                                             <dir>/export.bin and one
//!                                             <dir>/<name>.receipt each
//! receipt-verify --export <file> <receipt>... verify receipts offline
//! ```
//!
//! Verification failures print the typed rule code (`receipt-signature`,
//! `sku-mismatch`, `recording-digest-mismatch`, ...) and the process exits
//! non-zero — `scripts/ci.sh` leans on both the codes and the exit status.
//! Emission is fully deterministic: two `--emit` runs produce byte-identical
//! exports and receipts.

use grt_attest::{AttestationExport, ReplayReceipt};
use grt_bench::benchmarks;
use grt_gpu::GpuSku;
use grt_ml::reference::{test_input, workload_weights};
use grt_replay::client::{ClientDevice, PROVISIONING_SECRET};
use grt_replay::replay::Replayer;
use grt_serve::{RecordingRegistry, RegistryConfig};
use grt_sim::{Clock, Stats};
use std::path::Path;
use std::process::ExitCode;
use std::rc::Rc;

/// Lowercases a workload name into a safe file stem (mirrors
/// `recording-lint --record-golden`).
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

/// Warms a registry with every zoo network on one SKU, replays each once
/// on a fresh client device with provenance attached, and writes the
/// attestation export plus one receipt file per network.
fn emit(dir: &str) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("receipt-verify: cannot create {dir}: {e}");
        return ExitCode::FAILURE;
    }
    let sku = GpuSku::mali_g71_mp8();
    let mut registry = RecordingRegistry::new(RegistryConfig::new(16));
    for spec in benchmarks() {
        let fetch = match registry.fetch(&spec, &sku) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("receipt-verify: record of {} failed: {e}", spec.name);
                return ExitCode::FAILURE;
            }
        };
        // Replay on a fresh device of the recording's SKU, exactly as a
        // fleet worker would, with the provenance chain attached.
        let clock = Clock::new();
        let stats = Rc::new(Stats::new());
        let device = ClientDevice::new(sku.clone(), &clock, &stats, PROVISIONING_SECRET);
        let mut replayer = Replayer::new(&device, Rc::new(grt_lint::Linter::new()));
        replayer.attach_provenance(fetch.provenance.digest());
        let input = test_input(&spec, 7);
        let weights = workload_weights(&spec);
        if let Err(e) = replayer.replay_compiled(&fetch.compiled, &input, &weights) {
            eprintln!("receipt-verify: replay of {} failed: {e}", spec.name);
            return ExitCode::FAILURE;
        }
        let receipt = replayer
            .last_receipt()
            .expect("successful replay emits a receipt");
        let path = Path::new(dir).join(format!("{}.receipt", sanitize(spec.name)));
        let bytes = receipt.to_bytes();
        if let Err(e) = std::fs::write(&path, &bytes) {
            eprintln!("receipt-verify: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!(
            "emitted  {:<12} -> {} ({} bytes)",
            spec.name,
            path.display(),
            bytes.len()
        );
    }
    let export = registry.export_attestation();
    let path = Path::new(dir).join("export.bin");
    let bytes = export.to_bytes();
    if let Err(e) = std::fs::write(&path, &bytes) {
        eprintln!("receipt-verify: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!(
        "exported {} entries -> {} ({} bytes)",
        export.entries().len(),
        path.display(),
        bytes.len()
    );
    ExitCode::SUCCESS
}

/// Verifies each receipt file offline against the export; prints one
/// line per receipt and fails the process if any check fails.
fn verify(export_path: &str, receipts: &[String]) -> ExitCode {
    let export = match std::fs::read(export_path) {
        Ok(bytes) => match AttestationExport::from_bytes(&bytes) {
            Ok(e) => e,
            Err(e) => {
                eprintln!(
                    "receipt-verify: {export_path}: bad export [{}]: {e}",
                    e.code()
                );
                return ExitCode::FAILURE;
            }
        },
        Err(e) => {
            eprintln!("receipt-verify: cannot read {export_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = false;
    for path in receipts {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("receipt-verify: cannot read {path}: {e}");
                failed = true;
                continue;
            }
        };
        let verdict = ReplayReceipt::from_bytes(&bytes)
            .and_then(|r| export.verify_receipt(&r, PROVISIONING_SECRET).map(|()| r));
        match verdict {
            Ok(r) => println!(
                "PASS {path}: {} on gpu {:#x}, {} events, chain verified",
                r.workload, r.gpu_id, r.counters.events
            ),
            Err(e) => {
                println!("FAIL {path}: [{}] {e}", e.code());
                failed = true;
            }
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
        Some((flag, rest)) if flag == "--emit" => match rest {
            [dir] => emit(dir),
            _ => {
                eprintln!("usage: receipt-verify --emit <dir>");
                ExitCode::FAILURE
            }
        },
        Some((flag, rest)) if flag == "--export" => match rest.split_first() {
            Some((export, receipts)) if !receipts.is_empty() => verify(export, receipts),
            _ => {
                eprintln!("usage: receipt-verify --export <export.bin> <file.receipt>...");
                ExitCode::FAILURE
            }
        },
        _ => {
            eprintln!(
                "usage: receipt-verify --emit <dir> | --export <export.bin> <file.receipt>..."
            );
            ExitCode::FAILURE
        }
    }
}
