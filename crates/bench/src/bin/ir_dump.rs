//! ir-dump: print the typed semantics IR of `.grt` recording files.
//!
//! The CLI front-end for the `grt-ir` lifter. Each file is verified
//! against the fleet trust root, its SKU is resolved from the recording
//! header (the lift must walk page tables with that GPU's PTE decode
//! quirk), and the lifted program — typed steps, decoded deltas, job
//! chains with page-resolved operand tensors, cost totals — is emitted in
//! the deterministic `ir-dump v1` textual format. Two runs over the same
//! file produce byte-identical output; `scripts/ci.sh` pins that.
//!
//! Usage:
//!
//! ```text
//! ir-dump <file.grt>...
//! ```

use grt_bench::signed_from_blob;
use grt_gpu::GpuSku;
use grt_replay::client::recording_trust_root;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: ir-dump <file.grt>...");
        return ExitCode::FAILURE;
    }
    let key = recording_trust_root();
    let mut failed = false;
    for path in &args {
        let blob = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("ir-dump: cannot read {path}: {e}");
                failed = true;
                continue;
            }
        };
        let Some(signed) = signed_from_blob(&blob) else {
            eprintln!("ir-dump: {path}: too short to be a recording");
            failed = true;
            continue;
        };
        let Some(rec) = signed.verify_and_parse(&key) else {
            eprintln!("ir-dump: {path}: signature/format verification failed");
            failed = true;
            continue;
        };
        let Some(sku) = GpuSku::by_gpu_id(rec.gpu_id) else {
            eprintln!(
                "ir-dump: {path}: unknown GPU id {:#x} in header",
                rec.gpu_id
            );
            failed = true;
            continue;
        };
        let ir = grt_ir::lift_recording(&rec, sku.pte_quirk);
        print!("{}", grt_ir::dump::dump(&ir));
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
