//! SKU specificity: why recordings cannot be shared across GPU models, and
//! why the cloud must record against the client's own GPU (§2.4, Figure 3).
//!
//! The same hardware-neutral workload is recorded per-SKU; replaying a
//! Mali-G71 MP8 recording on an MP4 (different shader-core count) or a G72
//! (different page-table format) fails — first at the SKU gate, and, if
//! that were bypassed, at the hardware itself.
//!
//! Run: `cargo run --release --example sku_portability`

use grt_core::session::{RecordSession, RecorderMode};
use grt_gpu::GpuSku;
use grt_ml::reference::{test_input, workload_weights};
use grt_net::NetConditions;
use grt_replay::client::ClientDevice;
use grt_replay::replay::{ReplayError, Replayer};
use grt_sim::{Clock, Stats};

fn main() {
    let spec = grt_ml::zoo::mnist();
    let skus = [
        GpuSku::mali_g71_mp8(),
        GpuSku::mali_g71_mp4(),
        GpuSku::mali_g72_mp12(),
        GpuSku::mali_g76_mp10(),
    ];

    println!(
        "recording {} once per SKU (the cloud JIT tiles per device):",
        spec.name
    );
    let mut recordings = Vec::new();
    for sku in &skus {
        let mut session =
            RecordSession::new(sku.clone(), NetConditions::wifi(), RecorderMode::OursMDS);
        let outcome = session.record(&spec).expect("record");
        println!(
            "  {:<14} gpu_id={:#010x}  recording={} KB",
            sku.name,
            sku.gpu_id,
            outcome.recording.bytes.len() / 1024
        );
        recordings.push((session, outcome));
    }

    // Matching SKU: replay works and computes correctly.
    let input = test_input(&spec, 2);
    let weights = workload_weights(&spec);
    let (session, outcome) = &recordings[0];
    let key = session.recording_key();
    let mut replayer = Replayer::new(&session.client, std::rc::Rc::new(grt_lint::Linter::new()));
    let (out, _) = replayer
        .replay(&outcome.recording, &key, &input, &weights)
        .expect("matching SKU replays fine");
    println!(
        "\nG71-MP8 recording on G71-MP8: OK (top logit {:.3})",
        out.iter().cloned().fold(f32::NEG_INFINITY, f32::max)
    );

    // Mismatched SKUs: the replayer's SKU gate rejects them.
    for wrong in [GpuSku::mali_g71_mp4(), GpuSku::mali_g72_mp12()] {
        let clock = Clock::new();
        let stats = Stats::new();
        let device = ClientDevice::new(wrong.clone(), &clock, &stats, b"s");
        let mut r = Replayer::new(&device, std::rc::Rc::new(grt_lint::Linter::new()));
        match r.replay(&outcome.recording, &key, &input, &weights) {
            Err(ReplayError::WrongSku { recorded, present }) => println!(
                "G71-MP8 recording on {}: rejected (recorded {recorded:#x}, present {present:#x})",
                wrong.name
            ),
            other => panic!("expected WrongSku, got {other:?}"),
        }
    }

    // Even with the gate bypassed, the hardware itself rejects foreign
    // kernels: the MP8-tiled shaders fault on 4 cores.
    println!("\nbypassing the SKU gate (what a naive port would do):");
    let clock = Clock::new();
    let stats = Stats::new();
    let device = ClientDevice::new(GpuSku::mali_g71_mp4(), &clock, &stats, b"s");
    let mut r = Replayer::new(&device, std::rc::Rc::new(grt_lint::Linter::new()));
    let rec = outcome.recording.verify_and_parse(&key).expect("parse");
    let mut forged = rec.clone();
    forged.gpu_id = GpuSku::mali_g71_mp4().gpu_id; // Lie about the SKU.
    let resigned = grt_ir::recording::SignedRecording::sign(&forged, &key);
    let result = r.replay(&resigned, &key, &input, &weights);
    match &result {
        Ok((out, _)) => {
            // The run "completes" but the tiled kernels faulted: output is
            // garbage (all zeros — jobs never produced results).
            let sum: f32 = out.iter().map(|v| v.abs()).sum();
            println!("  replay returned but computed nothing (|out| = {sum})");
            assert!(sum < 1e-6);
        }
        Err(e) => println!("  replay failed at the hardware: {e}"),
    }
    println!("\nconclusion: per-SKU recording is unavoidable; GR-T makes it");
    println!("practical by letting the cloud record against the client's GPU.");
}
