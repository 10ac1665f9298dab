//! Shared experiment harness for the GR-T reproduction.
//!
//! Every table and figure of the paper's evaluation (§7) has a binary in
//! `src/bin/` that regenerates it; this library holds the common plumbing:
//! running warm record sessions (the paper retains register-access history
//! between runs, §7.3), formatting tables, and drawing ASCII bar charts.

#![warn(missing_docs)]

use grt_core::session::{RecordOutcome, RecordSession, RecorderMode};
use grt_gpu::GpuSku;
use grt_ml::NetworkSpec;
use grt_net::NetConditions;

/// The benchmark list in the paper's order.
pub fn benchmarks() -> Vec<NetworkSpec> {
    grt_ml::zoo::all_benchmarks()
}

/// Short benchmark labels as used in Table 2.
pub fn short_name(name: &str) -> &'static str {
    match name {
        "MNIST" => "MNIST",
        "AlexNet" => "Alex",
        "MobileNet" => "Mobile",
        "SqueezeNet" => "Squeeze",
        "ResNet12" => "Res12",
        "VGG16" => "VGG16",
        _ => "?",
    }
}

/// A heterogeneous serving fleet: six devices spanning all four Mali SKUs
/// the reproduction models (two each of the common phone parts, one each
/// of the others). Recordings are SKU-specific (§2.4), so a mixed fleet
/// exercises the registry's per-SKU cache keys.
pub fn heterogeneous_fleet() -> Vec<GpuSku> {
    vec![
        GpuSku::mali_g71_mp8(),
        GpuSku::mali_g71_mp8(),
        GpuSku::mali_g72_mp12(),
        GpuSku::mali_g72_mp12(),
        GpuSku::mali_g71_mp4(),
        GpuSku::mali_g76_mp10(),
    ]
}

/// A fleet of `n` devices cycling the [`heterogeneous_fleet`] SKU
/// pattern, so any size fleet spans all four Mali SKUs in a fixed,
/// deterministic order. Used by the fleet-scale `serve_bench` scenario
/// (e.g. `fleet_of(1000)`).
pub fn fleet_of(n: usize) -> Vec<GpuSku> {
    let pattern = heterogeneous_fleet();
    (0..n).map(|i| pattern[i % pattern.len()].clone()).collect()
}

/// Runs one record experiment: a cold warm-up run to populate the commit
/// history (the paper's methodology, §7.3), then the measured run.
///
/// Returns the session (for stats inspection) and the measured outcome.
pub fn record_warm(
    spec: &NetworkSpec,
    mode: RecorderMode,
    conditions: NetConditions,
) -> (RecordSession, RecordOutcome) {
    let mut session = RecordSession::new(GpuSku::mali_g71_mp8(), conditions, mode);
    let _warmup = session.record(spec).expect("warm-up record run succeeds");
    session.stats.reset();
    let outcome = session.record(spec).expect("measured record run succeeds");
    (session, outcome)
}

/// Runs a cold (first-contact) record experiment — no history.
pub fn record_cold(
    spec: &NetworkSpec,
    mode: RecorderMode,
    conditions: NetConditions,
) -> (RecordSession, RecordOutcome) {
    let mut session = RecordSession::new(GpuSku::mali_g71_mp8(), conditions, mode);
    let outcome = session.record(spec).expect("record run succeeds");
    (session, outcome)
}

/// Serializes a signed recording for the `.grt` on-disk format:
/// `recording bytes ‖ 32-byte signature` (the GP LOAD_RECORDING blob).
/// Shared by the `recording-lint` and `ir-dump` CLI front-ends.
pub fn signed_to_blob(signed: &grt_ir::recording::SignedRecording) -> Vec<u8> {
    let mut blob = signed.bytes.clone();
    blob.extend_from_slice(signed.signature.as_bytes());
    blob
}

/// Parses a `.grt` blob back into a signed recording (`None` when too
/// short to carry a signature).
pub fn signed_from_blob(blob: &[u8]) -> Option<grt_ir::recording::SignedRecording> {
    if blob.len() < 33 {
        return None;
    }
    let (body, sig) = blob.split_at(blob.len() - 32);
    let mut raw = [0u8; 32];
    raw.copy_from_slice(sig);
    Some(grt_ir::recording::SignedRecording {
        bytes: body.to_vec(),
        signature: grt_crypto::Signature::from_bytes(raw),
    })
}

/// Renders a horizontal ASCII bar scaled to `max`.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    let n = if max > 0.0 {
        ((value / max) * width as f64).round() as usize
    } else {
        0
    };
    "#".repeat(n.min(width))
}

/// Prints a standard experiment header.
pub fn header(title: &str, source: &str) {
    println!("================================================================");
    println!("{title}");
    println!("(reproduces {source} of \"Safe and Practical GPU Computation in");
    println!(" TrustZone\", EuroSys '23; see EXPERIMENTS.md for paper-vs-measured)");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bars_scale() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(0.0, 10.0, 10), "");
        assert_eq!(bar(20.0, 10.0, 10), "##########");
        assert_eq!(bar(1.0, 0.0, 10), "");
    }

    #[test]
    fn benchmark_list_matches_paper() {
        let names: Vec<_> = benchmarks().iter().map(|b| b.name).collect();
        assert_eq!(
            names,
            vec![
                "MNIST",
                "AlexNet",
                "MobileNet",
                "SqueezeNet",
                "ResNet12",
                "VGG16"
            ]
        );
    }

    #[test]
    fn short_names_cover_all() {
        for b in benchmarks() {
            assert_ne!(short_name(b.name), "?");
        }
    }
}
