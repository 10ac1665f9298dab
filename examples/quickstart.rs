//! Quickstart: record an MNIST workload through the cloud, then replay it
//! inside the client TEE with real input — the paper's whole workflow in
//! ~50 lines.
//!
//! Run: `cargo run --release --example quickstart`

use grt_core::session::{RecordSession, RecorderMode};
use grt_gpu::GpuSku;
use grt_ml::reference::{test_input, workload_weights, ReferenceNet};
use grt_net::NetConditions;
use grt_replay::replay::Replayer;

fn main() {
    // 1. The developer ships a hardware-neutral network spec (late
    //    binding, §2.4); the client device has a Mali-G71 MP8.
    let spec = grt_ml::zoo::mnist();
    println!("workload: {} ({} GPU jobs)", spec.name, spec.total_jobs());

    // 2. First execution: the client TEE asks the cloud to dry-run the
    //    workload over WiFi. The cloud runs the GPU stack; the client's
    //    GPU does the hardware's part; no input or weights leave the TEE.
    let mut session = RecordSession::new(
        GpuSku::mali_g71_mp8(),
        NetConditions::wifi(),
        RecorderMode::OursMDS,
    );
    let outcome = session.record(&spec).expect("record run");
    println!(
        "recorded in {:.1}s over {} blocking round trips ({} KB recording)",
        outcome.delay.as_secs_f64(),
        outcome.blocking_rtts,
        outcome.recording.bytes.len() / 1024,
    );

    // 3. Every later execution replays inside the TEE: verify the cloud's
    //    signature, inject the app's real input and model parameters, and
    //    drive the GPU straight from the log — no GPU stack, no cloud.
    let key = session.recording_key();
    let mut replayer = Replayer::new(&session.client, std::rc::Rc::new(grt_lint::Linter::new()));
    let input = test_input(&spec, 1);
    let weights = workload_weights(&spec);
    let (output, delay) = replayer
        .replay(&outcome.recording, &key, &input, &weights)
        .expect("replay");
    println!("replayed in {:.1} ms", delay.as_millis_f64());

    // 4. The replayed computation is the real computation.
    let reference = ReferenceNet::new(spec).infer(&input);
    let class = output
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap();
    let ref_class = reference
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap();
    println!(
        "predicted class {class} (CPU reference agrees: {})",
        class == ref_class
    );
    assert_eq!(class, ref_class);
    let max_err = output
        .iter()
        .zip(&reference)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    println!("max |GPU - reference| = {max_err:.2e}");
}
