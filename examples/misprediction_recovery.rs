//! Misprediction detection and rollback (§4.2, §7.3).
//!
//! GR-T speculates on register-read outcomes; a wrong prediction must be
//! detected and both parties rolled back via replay of the interaction
//! log. This example injects faults at several points of a record run and
//! shows that (a) every injection is detected, (b) the run still completes
//! and produces a valid recording, and (c) the rollback cost matches the
//! paper's seconds-range worst case.
//!
//! Run: `cargo run --release --example misprediction_recovery`

use grt_core::session::{RecordSession, RecorderMode};
use grt_gpu::GpuSku;
use grt_ml::reference::{test_input, workload_weights, ReferenceNet};
use grt_net::NetConditions;
use grt_replay::replay::Replayer;

fn main() {
    let spec = grt_ml::zoo::mnist();

    // Baseline: a clean warm record run.
    let mut session = RecordSession::new(
        GpuSku::mali_g71_mp8(),
        NetConditions::wifi(),
        RecorderMode::OursMDS,
    );
    session.record(&spec).expect("warm-up");
    let clean = session.record(&spec).expect("clean run");
    println!(
        "clean record run: {:.2}s, {} commits, {} mispredictions",
        clean.delay.as_secs_f64(),
        session.shim.commit_count(),
        session.stats.get("spec.mispredictions"),
    );
    assert_eq!(session.stats.get("spec.mispredictions"), 0);

    // Inject at several positions (early, middle, late).
    let commits_per_run = session.shim.commit_count() / 2;
    for (label, at) in [
        ("early ", commits_per_run / 10),
        ("middle", commits_per_run / 2),
        ("late  ", commits_per_run - 2),
    ] {
        let mut s = RecordSession::new(
            GpuSku::mali_g71_mp8(),
            NetConditions::wifi(),
            RecorderMode::OursMDS,
        );
        s.record(&spec).expect("warm-up");
        let before = s.stats.get("spec.mispredictions");
        s.shim.inject_misprediction_at(at);
        let faulted = s.record(&spec).expect("run recovers and completes");
        let detected = s.stats.get("spec.mispredictions") - before;
        let overhead = faulted.delay.as_secs_f64() - clean.delay.as_secs_f64();
        println!(
            "injected {label} (commit ~{at}): detected={detected}, run {:.2}s (+{overhead:.2}s rollback)",
            faulted.delay.as_secs_f64()
        );
        assert!(detected >= 1, "injection must be detected");

        // The recording produced after recovery still replays correctly.
        let key = s.recording_key();
        let mut replayer = Replayer::new(&s.client, std::rc::Rc::new(grt_lint::Linter::new()));
        let input = test_input(&spec, 4);
        let weights = workload_weights(&spec);
        let (out, _) = replayer
            .replay(&faulted.recording, &key, &input, &weights)
            .expect("post-recovery recording replays");
        let reference = ReferenceNet::new(spec.clone()).infer(&input);
        let max_err = out
            .iter()
            .zip(&reference)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(max_err < 1e-3, "max_err={max_err}");
        println!("          post-recovery recording verified (max err {max_err:.2e})");
    }
    println!("\nmisprediction incurs a performance penalty but never corrupts");
    println!("the recording — exactly the §4.2 correctness argument.");
}
