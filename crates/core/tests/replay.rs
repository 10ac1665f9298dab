//! The replayer end to end over real recordings: one-shot, compiled and
//! layered replay, their load-time refusals, and the receipts they sign.

use grt_core::session::{RecordSession, RecorderMode};
use grt_crypto::Sha256;
use grt_gpu::GpuSku;
use grt_ir::recording::{Event, SignedRecording};
use grt_ml::reference::{test_input, workload_weights, ReferenceNet};
use grt_net::NetConditions;
use grt_replay::client::{GPU_IRQ_IDS, GPU_MMIO_BASE};
use grt_replay::replay::{ReplayError, Replayer};
use grt_tee::{AccessDecision, World};
use std::rc::Rc;

fn close(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (x - y).abs() < 1e-3 * (1.0 + x.abs().max(y.abs())))
}

fn record_mnist(mode: RecorderMode) -> (RecordSession, grt_core::session::RecordOutcome) {
    let mut s = RecordSession::new(GpuSku::mali_g71_mp8(), NetConditions::wifi(), mode);
    let spec = grt_ml::zoo::mnist();
    let out = s.record(&spec).unwrap();
    (s, out)
}

/// These tests exercise replay mechanics below the gate; the real
/// grt-lint gate is covered by `tests/lint_gate.rs`.
fn permissive() -> Rc<dyn grt_ir::gate::RecordingGate> {
    Rc::new(grt_ir::gate::PermissiveGate)
}

#[test]
fn replay_with_real_input_matches_reference() {
    let (s, out) = record_mnist(RecorderMode::OursMDS);
    let spec = grt_ml::zoo::mnist();
    let key = s.recording_key();
    let mut replayer = Replayer::new(&s.client, permissive());
    let input = test_input(&spec, 5);
    let weights = workload_weights(&spec);
    let (gpu_out, delay) = replayer
        .replay(&out.recording, &key, &input, &weights)
        .unwrap();
    let cpu_out = ReferenceNet::new(spec).infer(&input);
    assert!(close(&gpu_out, &cpu_out), "{gpu_out:?} vs {cpu_out:?}");
    assert!(delay > grt_sim::SimTime::ZERO);
}

#[test]
fn replay_is_repeatable_with_new_inputs() {
    let (s, out) = record_mnist(RecorderMode::OursMDS);
    let spec = grt_ml::zoo::mnist();
    let key = s.recording_key();
    let mut replayer = Replayer::new(&s.client, permissive());
    let weights = workload_weights(&spec);
    let reference = ReferenceNet::new(spec.clone());
    for variant in [11, 12, 13] {
        let input = test_input(&spec, variant);
        let (gpu_out, _) = replayer
            .replay(&out.recording, &key, &input, &weights)
            .unwrap();
        let cpu_out = reference.infer(&input);
        assert!(close(&gpu_out, &cpu_out), "variant {variant}");
    }
}

#[test]
fn tampered_recording_is_rejected() {
    let (s, mut out) = record_mnist(RecorderMode::OursMDS);
    let spec = grt_ml::zoo::mnist();
    let key = s.recording_key();
    let n = out.recording.bytes.len();
    out.recording.bytes[n / 2] ^= 1;
    let mut replayer = Replayer::new(&s.client, permissive());
    let err = replayer
        .replay(
            &out.recording,
            &key,
            &test_input(&spec, 0),
            &workload_weights(&spec),
        )
        .unwrap_err();
    assert_eq!(err, ReplayError::BadRecording);
}

#[test]
fn wrong_sku_replay_is_rejected() {
    let (s, out) = record_mnist(RecorderMode::OursMDS);
    let spec = grt_ml::zoo::mnist();
    let key = s.recording_key();
    // A *different* client device with an MP4 GPU.
    let clock = grt_sim::Clock::new();
    let stats = grt_sim::Stats::new();
    let other = grt_replay::client::ClientDevice::new(GpuSku::mali_g71_mp4(), &clock, &stats, b"x");
    let mut replayer = Replayer::new(&other, permissive());
    let err = replayer
        .replay(
            &out.recording,
            &key,
            &test_input(&spec, 0),
            &workload_weights(&spec),
        )
        .unwrap_err();
    assert!(matches!(err, ReplayError::WrongSku { .. }), "{err:?}");
}

#[test]
fn layered_replay_matches_monolithic() {
    let (s, out) = record_mnist(RecorderMode::OursMDS);
    let spec = grt_ml::zoo::mnist();
    let key = s.recording_key();
    let input = test_input(&spec, 6);
    let weights = workload_weights(&spec);

    let mut replayer = Replayer::new(&s.client, permissive());
    let (mono_out, _) = replayer
        .replay(&out.recording, &key, &input, &weights)
        .unwrap();

    let mut replayer = Replayer::new(&s.client, permissive());
    let compiled = replayer.compile_signed(&out.recording, &key).unwrap();
    let mut layered = replayer.begin_layered(&compiled, &input, &weights).unwrap();
    assert_eq!(layered.layer_count(), spec.layers.len());
    let mut seen = Vec::new();
    while let Some(idx) = layered.replay_layer().unwrap() {
        // The app can interleave its own work between layers
        // (Figure 2's timeline); model it as CPU time.
        s.clock.advance(grt_sim::SimTime::from_micros(50));
        seen.push(idx);
    }
    assert_eq!(seen, (0..spec.layers.len() as u32).collect::<Vec<_>>());
    let layered_out = layered.finish();
    assert_eq!(layered_out, mono_out);
}

#[test]
fn layered_replay_cleans_up_on_error() {
    let (s, mut out) = record_mnist(RecorderMode::OursMDS);
    let spec = grt_ml::zoo::mnist();
    let key = s.recording_key();
    // Corrupt after signing check by re-signing a recording whose
    // first layer's job-start write is removed: the WaitIrq hangs.
    let mut rec = out.recording.verify_and_parse(&key).unwrap();
    let js_command =
        grt_gpu::regs::job_control::slot_base(0) + grt_gpu::regs::job_control::JS_COMMAND;
    rec.events
        .retain(|e| !matches!(e, Event::RegWrite { offset, .. } if *offset == js_command));
    out.recording = SignedRecording::sign(&rec, &key);
    // The lint gate would refuse this recording outright (R3: waits
    // with no raiser); a permissive gate lets it through so the
    // runtime IrqHang defense — the layer below — gets exercised.
    let mut replayer = Replayer::new(&s.client, permissive());
    let input = test_input(&spec, 0);
    let weights = workload_weights(&spec);
    let compiled = replayer.compile_signed(&out.recording, &key).unwrap();
    let mut layered = replayer.begin_layered(&compiled, &input, &weights).unwrap();
    let err = loop {
        match layered.replay_layer() {
            Ok(Some(_)) => continue,
            Ok(None) => panic!("expected a hang"),
            Err(e) => break e,
        }
    };
    assert_eq!(err, ReplayError::IrqHang);
    assert_eq!(layered.replay_layer(), Ok(None), "a failed walk is over");
    // The TZASC claim was released by the error path.
    assert!(s
        .client
        .tzasc
        .owner_of(grt_replay::client::GPU_MMIO_BASE)
        .is_none());
}

#[test]
fn compiled_replay_is_faster_per_event() {
    let (s, out) = record_mnist(RecorderMode::OursMDS);
    let spec = grt_ml::zoo::mnist();
    let key = s.recording_key();
    let mut replayer = Replayer::new(&s.client, permissive());
    let input = test_input(&spec, 1);
    let weights = workload_weights(&spec);
    let compiled = replayer.compile_signed(&out.recording, &key).unwrap();
    replayer
        .replay(&out.recording, &key, &input, &weights)
        .unwrap();
    let interp = replayer.last_profile();
    replayer
        .replay_compiled(&compiled, &input, &weights)
        .unwrap();
    let fast = replayer.last_profile();
    assert!(
        fast.events_per_sec() >= 1.5 * interp.events_per_sec(),
        "compiled {:.0} ev/s vs interpreted {:.0} ev/s",
        fast.events_per_sec(),
        interp.events_per_sec()
    );
    assert!(fast.total <= interp.total);
}

#[test]
fn compile_rejects_tampered_and_wrong_sku() {
    let (s, mut out) = record_mnist(RecorderMode::OursMDS);
    let key = s.recording_key();
    let mut replayer = Replayer::new(&s.client, permissive());
    // Wrong SKU.
    let clock = grt_sim::Clock::new();
    let stats = grt_sim::Stats::new();
    let other = grt_replay::client::ClientDevice::new(GpuSku::mali_g71_mp4(), &clock, &stats, b"x");
    let mut other_replayer = Replayer::new(&other, permissive());
    assert!(matches!(
        other_replayer.compile_signed(&out.recording, &key),
        Err(ReplayError::WrongSku { .. })
    ));
    // Tampered bytes.
    let n = out.recording.bytes.len();
    out.recording.bytes[n / 2] ^= 1;
    assert_eq!(
        replayer.compile_signed(&out.recording, &key).unwrap_err(),
        ReplayError::BadRecording
    );
}

#[test]
fn compiled_replay_rechecks_sku() {
    let (s, out) = record_mnist(RecorderMode::OursMDS);
    let spec = grt_ml::zoo::mnist();
    let key = s.recording_key();
    let mut replayer = Replayer::new(&s.client, permissive());
    let compiled = replayer.compile_signed(&out.recording, &key).unwrap();
    let clock = grt_sim::Clock::new();
    let stats = grt_sim::Stats::new();
    let other = grt_replay::client::ClientDevice::new(GpuSku::mali_g71_mp4(), &clock, &stats, b"x");
    let mut other_replayer = Replayer::new(&other, permissive());
    assert!(matches!(
        other_replayer.replay_compiled(&compiled, &test_input(&spec, 0), &workload_weights(&spec)),
        Err(ReplayError::WrongSku { .. })
    ));
}

#[test]
fn compiled_replay_rejects_wrong_shape_input() {
    let (s, out) = record_mnist(RecorderMode::OursMDS);
    let spec = grt_ml::zoo::mnist();
    let key = s.recording_key();
    let mut replayer = Replayer::new(&s.client, permissive());
    let compiled = replayer.compile_signed(&out.recording, &key).unwrap();
    let err = replayer
        .replay_compiled(&compiled, &[0.0; 3], &workload_weights(&spec))
        .unwrap_err();
    assert_eq!(err, ReplayError::BadInput);
}

#[test]
fn replay_emits_signed_deterministic_receipt() {
    let (s, out) = record_mnist(RecorderMode::OursMDS);
    let spec = grt_ml::zoo::mnist();
    let key = s.recording_key();
    let mut replayer = Replayer::new(&s.client, permissive());
    let input = test_input(&spec, 9);
    let weights = workload_weights(&spec);
    assert!(replayer.last_receipt().is_none());
    replayer
        .replay(&out.recording, &key, &input, &weights)
        .unwrap();
    let interp = replayer.last_receipt().unwrap().clone();
    assert_eq!(interp.workload, "MNIST");
    assert!(interp.verify(grt_replay::client::PROVISIONING_SECRET));
    assert_eq!(
        interp.recording_digest,
        Sha256::digest(&out.recording.bytes)
    );
    // Unchained until a provenance record is attached.
    assert_eq!(interp.provenance_digest, [0u8; 32]);

    // The compiled path binds to the same recording digest, and with
    // a chained provenance digest the receipt carries it.
    let compiled = replayer.compile_signed(&out.recording, &key).unwrap();
    replayer.attach_provenance([7u8; 32]);
    replayer
        .replay_compiled(&compiled, &input, &weights)
        .unwrap();
    let fast = replayer.last_receipt().unwrap().clone();
    assert_eq!(fast.recording_digest, interp.recording_digest);
    assert_eq!(fast.input_digest, interp.input_digest);
    assert_eq!(fast.output_digest, interp.output_digest);
    assert_eq!(fast.provenance_digest, [7u8; 32]);
    assert!(fast.verify(grt_replay::client::PROVISIONING_SECRET));

    // Same replay again → byte-identical receipt.
    replayer
        .replay_compiled(&compiled, &input, &weights)
        .unwrap();
    let again = replayer.last_receipt().unwrap().clone();
    assert_eq!(again.to_bytes(), fast.to_bytes());
}

#[test]
fn wrong_shape_input_rejected() {
    let (s, out) = record_mnist(RecorderMode::OursMDS);
    let spec = grt_ml::zoo::mnist();
    let key = s.recording_key();
    let mut replayer = Replayer::new(&s.client, permissive());
    let err = replayer
        .replay(&out.recording, &key, &[0.0; 3], &workload_weights(&spec))
        .unwrap_err();
    assert_eq!(err, ReplayError::BadInput);
}

/// §6: the TEE holds the GPU for the whole of a layered replay — the
/// normal world is denied its MMIO window and its interrupts go to the
/// secure world between layers — and gives it back when the walk ends,
/// through `finish` or through an error.
#[test]
fn layered_replay_holds_the_gpu_between_layers() {
    let (s, mut out) = record_mnist(RecorderMode::OursMDS);
    let spec = grt_ml::zoo::mnist();
    let key = s.recording_key();
    let input = test_input(&spec, 2);
    let weights = workload_weights(&spec);
    let window_denied = || {
        matches!(
            s.client.tzasc.check(World::Normal, GPU_MMIO_BASE + 0x30),
            AccessDecision::Denied { .. }
        )
    };
    let irqs_to = |world| {
        GPU_IRQ_IDS
            .iter()
            .all(|&irq| s.client.monitor.irq_target(irq) == world)
    };

    let mut replayer = Replayer::new(&s.client, permissive());
    let compiled = replayer.compile_signed(&out.recording, &key).unwrap();
    let mut layered = replayer.begin_layered(&compiled, &input, &weights).unwrap();
    assert!(window_denied(), "MMIO window open after begin");
    assert!(irqs_to(World::Secure), "IRQs not in the TEE after begin");
    while layered.replay_layer().unwrap().is_some() {
        assert!(window_denied(), "MMIO window open between layers");
        assert!(irqs_to(World::Secure), "IRQs not in the TEE between layers");
    }
    layered.finish();
    assert!(
        !window_denied() && irqs_to(World::Normal),
        "not released by finish"
    );

    // A walk that fails mid-way (the first job is never started, so its
    // interrupt wait hangs) gives the GPU back as well.
    let mut rec = out.recording.verify_and_parse(&key).unwrap();
    let js_command =
        grt_gpu::regs::job_control::slot_base(0) + grt_gpu::regs::job_control::JS_COMMAND;
    rec.events
        .retain(|e| !matches!(e, Event::RegWrite { offset, .. } if *offset == js_command));
    out.recording = SignedRecording::sign(&rec, &key);
    let hung = replayer.compile_signed(&out.recording, &key).unwrap();
    let mut layered = replayer.begin_layered(&hung, &input, &weights).unwrap();
    while let Ok(layer) = layered.replay_layer() {
        assert!(layer.is_some(), "expected a hang");
        assert!(
            window_denied() && irqs_to(World::Secure),
            "held before the error"
        );
    }
    assert!(
        !window_denied() && irqs_to(World::Normal),
        "not released by the error"
    );
}
