//! Remote debugging with record/replay (§3.1 "Broader applicability").
//!
//! A vendor receives field reports that some devices misbehave. With GR-T
//! recordings in hand, support can (a) diff two devices' record runs and
//! (b) audit a suspect device by replaying the recorded stimuli and
//! collecting every divergent hardware response — without shipping the
//! device anywhere.
//!
//! Run: `cargo run --release --example remote_debug`

use grt_core::debug::{audit_replay, diff_recordings, Divergence};
use grt_core::session::{RecordSession, RecorderMode};
use grt_gpu::GpuSku;
use grt_net::NetConditions;
use grt_replay::client::ClientDevice;
use grt_sim::{Clock, Stats};

fn record(sku: GpuSku) -> grt_ir::recording::Recording {
    let mut s = RecordSession::new(sku, NetConditions::wifi(), RecorderMode::OursMDS);
    let out = s.record(&grt_ml::zoo::mnist()).expect("record");
    out.recording
        .verify_and_parse(&s.recording_key())
        .expect("parse")
}

fn main() {
    println!("== remote debugging with GR-T recordings ==\n");

    // 1. Two healthy devices of the same SKU produce identical logs.
    let reference = record(GpuSku::mali_g71_mp8());
    let healthy = record(GpuSku::mali_g71_mp8());
    let diffs = diff_recordings(&reference, &healthy);
    println!(
        "healthy vs healthy (same SKU): {} divergences over {} events",
        diffs.len(),
        reference.events.len()
    );
    assert!(diffs.is_empty());

    // 2. A mis-flashed device (wrong SKU) is pinpointed at first contact.
    let misflashed = record(GpuSku::mali_g71_mp4());
    let diffs = diff_recordings(&reference, &misflashed);
    println!(
        "healthy vs mis-flashed MP4: {} divergences; first:",
        diffs.len()
    );
    if let Some(d) = diffs.first() {
        println!("  {d:?}");
    }
    assert!(!diffs.is_empty());

    // 3. Audit a field unit with two dead shader cores: replay the
    //    recorded stimuli on it and collect the divergent responses.
    let sick = GpuSku {
        shader_cores: 6,
        ..GpuSku::mali_g71_mp8()
    };
    let clock = Clock::new();
    let stats = Stats::new();
    let device = ClientDevice::new(sick, &clock, &stats, b"support-session");
    let report = audit_replay(&device, &reference);
    println!("\naudit of a unit with 2 dead shader cores:");
    let mut shown = 0;
    for d in &report {
        if let Divergence::ReadValue {
            offset,
            expected,
            got,
            ..
        } = d
        {
            if shown < 5 {
                println!("  reg {offset:#06x}: recorded {expected:#x}, device says {got:#x}");
                shown += 1;
            }
        }
    }
    println!(
        "  {} divergent responses total -> support files a hardware RMA",
        report.len()
    );
    assert!(!report.is_empty());

    // 4. The same audit on a healthy unit is clean.
    let clock = Clock::new();
    let stats = Stats::new();
    let good = ClientDevice::new(GpuSku::mali_g71_mp8(), &clock, &stats, b"support-session");
    let report = audit_replay(&good, &reference);
    println!("\naudit of a healthy unit: {} divergences", report.len());
    assert!(report.is_empty());
}
