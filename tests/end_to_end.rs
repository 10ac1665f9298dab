//! End-to-end integration: the full GR-T pipeline across crates.
//!
//! Each test exercises cloud recording over a shaped link, signed
//! recording download, and in-TEE replay with real data — asserting the
//! replayed GPU computation equals the CPU reference.

use grt_core::session::{RecordSession, RecorderMode};
use grt_gpu::GpuSku;
use grt_ml::reference::{test_input, workload_weights, ReferenceNet};
use grt_ml::NetworkSpec;
use grt_net::NetConditions;
use grt_replay::replay::Replayer;

fn close(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (x - y).abs() < 1e-3 * (1.0 + x.abs().max(y.abs())))
}

fn record_and_replay(spec: &NetworkSpec, mode: RecorderMode, conditions: NetConditions) {
    let mut session = RecordSession::new(GpuSku::mali_g71_mp8(), conditions, mode);
    let out = session.record(spec).expect("record");
    let key = session.recording_key();
    let mut replayer = Replayer::new(&session.client, std::rc::Rc::new(grt_lint::Linter::new()));
    let input = test_input(spec, 77);
    let weights = workload_weights(spec);
    let (gpu_out, delay) = replayer
        .replay(&out.recording, &key, &input, &weights)
        .expect("replay");
    let cpu_out = ReferenceNet::new(spec.clone()).infer(&input);
    assert!(
        close(&gpu_out, &cpu_out),
        "{} ({mode:?}): replay output diverges",
        spec.name
    );
    assert!(delay > grt_sim::SimTime::ZERO);
}

#[test]
fn mnist_all_recorder_modes_round_trip() {
    for mode in RecorderMode::ALL {
        record_and_replay(&grt_ml::zoo::mnist(), mode, NetConditions::wifi());
    }
}

#[test]
fn mnist_over_cellular() {
    record_and_replay(
        &grt_ml::zoo::mnist(),
        RecorderMode::OursMDS,
        NetConditions::cellular(),
    );
}

#[test]
fn squeezenet_full_pipeline() {
    record_and_replay(
        &grt_ml::zoo::squeezenet(),
        RecorderMode::OursMDS,
        NetConditions::wifi(),
    );
}

#[test]
fn resnet_skip_connections_survive_replay() {
    record_and_replay(
        &grt_ml::zoo::resnet12(),
        RecorderMode::OursMDS,
        NetConditions::wifi(),
    );
}

#[test]
fn alexnet_full_pipeline() {
    record_and_replay(
        &grt_ml::zoo::alexnet(),
        RecorderMode::OursMDS,
        NetConditions::wifi(),
    );
}

#[test]
fn one_recording_serves_many_inferences() {
    let spec = grt_ml::zoo::mnist();
    let mut session = RecordSession::new(
        GpuSku::mali_g71_mp8(),
        NetConditions::wifi(),
        RecorderMode::OursMDS,
    );
    let out = session.record(&spec).expect("record");
    let key = session.recording_key();
    let mut replayer = Replayer::new(&session.client, std::rc::Rc::new(grt_lint::Linter::new()));
    let weights = workload_weights(&spec);
    let reference = ReferenceNet::new(spec.clone());
    for variant in 0..4 {
        let input = test_input(&spec, variant);
        let (gpu_out, _) = replayer
            .replay(&out.recording, &key, &input, &weights)
            .expect("replay");
        assert!(
            close(&gpu_out, &reference.infer(&input)),
            "variant {variant}"
        );
    }
}

#[test]
fn recording_survives_serialization_round_trip() {
    let spec = grt_ml::zoo::mnist();
    let mut session = RecordSession::new(
        GpuSku::mali_g71_mp8(),
        NetConditions::wifi(),
        RecorderMode::OursMDS,
    );
    let out = session.record(&spec).expect("record");
    let key = session.recording_key();
    // Parse, re-serialize, re-sign: the replayer accepts the round trip.
    let rec = out.recording.verify_and_parse(&key).expect("parse");
    let rec2 = grt_ir::recording::Recording::from_bytes(&rec.to_bytes()).expect("reparse");
    assert_eq!(rec, rec2);
    let resigned = grt_ir::recording::SignedRecording::sign(&rec2, &key);
    let mut replayer = Replayer::new(&session.client, std::rc::Rc::new(grt_lint::Linter::new()));
    let input = test_input(&spec, 9);
    let weights = workload_weights(&spec);
    let (gpu_out, _) = replayer
        .replay(&resigned, &key, &input, &weights)
        .expect("replay reserialized recording");
    assert!(close(
        &gpu_out,
        &ReferenceNet::new(spec.clone()).infer(&input)
    ));
}

#[test]
fn warm_history_reduces_round_trips_without_breaking_replay() {
    let spec = grt_ml::zoo::mnist();
    let mut session = RecordSession::new(
        GpuSku::mali_g71_mp8(),
        NetConditions::wifi(),
        RecorderMode::OursMDS,
    );
    let cold = session.record(&spec).expect("cold record");
    let warm = session.record(&spec).expect("warm record");
    assert!(
        warm.blocking_rtts < cold.blocking_rtts,
        "warm {} !< cold {}",
        warm.blocking_rtts,
        cold.blocking_rtts
    );
    // The warm recording is still self-contained.
    let key = session.recording_key();
    let mut replayer = Replayer::new(&session.client, std::rc::Rc::new(grt_lint::Linter::new()));
    let input = test_input(&spec, 3);
    let weights = workload_weights(&spec);
    let (gpu_out, _) = replayer
        .replay(&warm.recording, &key, &input, &weights)
        .expect("warm recording replays");
    assert!(close(
        &gpu_out,
        &ReferenceNet::new(spec.clone()).infer(&input)
    ));
}

#[test]
fn per_sku_recordings_differ() {
    let spec = grt_ml::zoo::mnist();
    let mut a = RecordSession::new(
        GpuSku::mali_g71_mp8(),
        NetConditions::wifi(),
        RecorderMode::OursMDS,
    );
    let mut b = RecordSession::new(
        GpuSku::mali_g71_mp4(),
        NetConditions::wifi(),
        RecorderMode::OursMDS,
    );
    let ra = a.record(&spec).expect("record mp8");
    let rb = b.record(&spec).expect("record mp4");
    let ka = a.recording_key();
    let kb = b.recording_key();
    let rec_a = ra.recording.verify_and_parse(&ka).unwrap();
    let rec_b = rb.recording.verify_and_parse(&kb).unwrap();
    assert_ne!(rec_a.gpu_id, rec_b.gpu_id);
    assert_ne!(
        rec_a.events, rec_b.events,
        "JIT output must be SKU-specific"
    );
}

#[test]
fn recording_persists_through_sealed_storage() {
    use grt_ir::recording::SignedRecording;
    use grt_tee::SecureStorage;
    let spec = grt_ml::zoo::mnist();
    let mut session = RecordSession::new(
        GpuSku::mali_g71_mp8(),
        NetConditions::wifi(),
        RecorderMode::OursMDS,
    );
    let out = session.record(&spec).expect("record");

    // The TEE seals the recording into untrusted flash (OP-TEE style).
    let storage = SecureStorage::new(b"device-huk-0042");
    storage.store("grt/recording/MNIST", &out.recording.to_file_bytes());

    // "Reboot": load from flash, unseal, verify, replay.
    let raw = storage.load("grt/recording/MNIST").expect("unseal");
    let restored = SignedRecording::from_file_bytes(&raw).expect("container");
    let key = session.recording_key();
    let mut replayer = Replayer::new(&session.client, std::rc::Rc::new(grt_lint::Linter::new()));
    let input = test_input(&spec, 2);
    let weights = workload_weights(&spec);
    let (gpu_out, _) = replayer
        .replay(&restored, &key, &input, &weights)
        .expect("replay from sealed storage");
    let cpu_out = ReferenceNet::new(spec.clone()).infer(&input);
    assert!(close(&gpu_out, &cpu_out));

    // A normal-world adversary flipping bits in flash is caught at unseal.
    let mut blob = storage.raw_blob("grt/recording/MNIST").unwrap();
    blob[100] ^= 1;
    storage.tamper_blob("grt/recording/MNIST", blob);
    assert!(storage.load("grt/recording/MNIST").is_err());
}

#[test]
fn one_session_records_multiple_workloads() {
    // §3.3: each record run is per client, per workload — but one cloud VM
    // (one session) serves the same client for several workloads in turn.
    let mut session = RecordSession::new(
        GpuSku::mali_g71_mp8(),
        NetConditions::wifi(),
        RecorderMode::OursMDS,
    );
    let key = session.recording_key();
    let specs = [grt_ml::zoo::mnist(), grt_ml::zoo::squeezenet()];
    let mut recordings = Vec::new();
    for spec in &specs {
        recordings.push(session.record(spec).expect("record"));
    }
    // Both recordings replay correctly on the same client afterwards.
    let mut replayer = Replayer::new(&session.client, std::rc::Rc::new(grt_lint::Linter::new()));
    for (spec, out) in specs.iter().zip(&recordings) {
        let input = test_input(spec, 31);
        let weights = workload_weights(spec);
        let (gpu_out, _) = replayer
            .replay(&out.recording, &key, &input, &weights)
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        let cpu_out = ReferenceNet::new(spec.clone()).infer(&input);
        assert!(close(&gpu_out, &cpu_out), "{}", spec.name);
    }
    // History carried across workloads (the §7.3 methodology) keeps the
    // second workload's recording cheap despite being first-contact.
    assert!(recordings[1].blocking_rtts < 2 * recordings[1].net.total_jobs() as u64 + 600);
}

#[test]
fn naive_forwarding_violates_stack_timing_assumptions() {
    // §3.3: under naive per-access forwarding the GPU stack "constantly
    // throws exceptions" because job-completion latencies blow past its
    // watchdogs; GR-T's optimized recording stays within them.
    let spec = grt_ml::zoo::mnist();
    let mut naive = RecordSession::new(
        GpuSku::mali_g71_mp8(),
        NetConditions::cellular(),
        RecorderMode::Naive,
    );
    naive.record(&spec).expect("record");
    assert!(
        naive.stats.get("driver.watchdog_violations") > 0,
        "naive cellular recording must trip the job watchdog"
    );
    let mut ours = RecordSession::new(
        GpuSku::mali_g71_mp8(),
        NetConditions::cellular(),
        RecorderMode::OursMDS,
    );
    ours.record(&spec).expect("warm-up");
    let before = ours.stats.get("driver.watchdog_violations");
    ours.record(&spec).expect("record");
    assert_eq!(
        ours.stats.get("driver.watchdog_violations"),
        before,
        "full GR-T stays within the stack's timing assumptions"
    );
}
