//! Negative-path tests of the ReplayService GlobalPlatform protocol.
//!
//! A TA's command interface is attack surface: the normal world can send
//! any command id with any byte buffer. Every malformed invocation must
//! come back as a `GpStatus` error — never a panic, never silently
//! corrupted TEE state.

use grt_core::session::{RecordOutcome, RecordSession, RecorderMode};
use grt_gpu::GpuSku;
use grt_ml::reference::test_input;
use grt_net::NetConditions;
use grt_replay::service::{cmd, ReplayService};
use grt_tee::{GpStatus, TeeHost};
use std::cell::RefCell;

fn recorded() -> (RecordSession, RecordOutcome) {
    let mut s = RecordSession::new(
        GpuSku::mali_g71_mp8(),
        NetConditions::wifi(),
        RecorderMode::OursMDS,
    );
    let out = s.record(&grt_ml::zoo::mnist()).expect("record");
    (s, out)
}

fn service_host(s: &RecordSession) -> (TeeHost, u32) {
    let host = TeeHost::new(&s.client.monitor);
    host.register(Box::new(RefCell::new(ReplayService::new(
        &s.client,
        s.recording_key(),
        std::rc::Rc::new(grt_lint::Linter::new()),
    ))));
    let session = host.open_session("grt.replay").expect("open session");
    (host, session)
}

fn load_blob(out: &RecordOutcome) -> Vec<u8> {
    out.recording.wire_blob()
}

#[test]
fn unknown_command_ids_are_rejected() {
    let (s, _out) = recorded();
    let (host, session) = service_host(&s);
    for bad in [0u32, 5, 6, 99, 1 << 16, u32::MAX] {
        assert_eq!(
            host.invoke(session, bad, &[]),
            Err(GpStatus::BadParameters),
            "command id {bad} must be rejected"
        );
        // And with a non-empty payload, for good measure.
        assert_eq!(
            host.invoke(session, bad, &[0xAA; 64]),
            Err(GpStatus::BadParameters)
        );
    }
}

#[test]
fn truncated_load_recording_is_rejected() {
    let (s, out) = recorded();
    let (host, session) = service_host(&s);
    // Shorter than a signature alone.
    for len in [0usize, 1, 16, 32] {
        assert_eq!(
            host.invoke(session, cmd::LOAD_RECORDING, &vec![0u8; len]),
            Err(GpStatus::BadParameters),
            "{len}-byte load blob must be rejected"
        );
    }
    // Long enough to split, but the signature doesn't match the body.
    let blob = load_blob(&out);
    let truncated = &blob[..blob.len() - 40];
    assert!(truncated.len() > 33);
    assert_eq!(
        host.invoke(session, cmd::LOAD_RECORDING, truncated),
        Err(GpStatus::AccessDenied),
        "a truncated recording must fail signature verification"
    );
}

#[test]
fn malformed_float_buffers_are_rejected() {
    let (s, out) = recorded();
    let (host, session) = service_host(&s);
    host.invoke(session, cmd::LOAD_RECORDING, &load_blob(&out))
        .expect("valid load");
    // Input not a multiple of 4 bytes.
    assert_eq!(
        host.invoke(session, cmd::SET_INPUT, &[1, 2, 3]),
        Err(GpStatus::BadParameters)
    );
    // Weights header too short to carry a slot index.
    assert_eq!(
        host.invoke(session, cmd::SET_WEIGHTS, &[7]),
        Err(GpStatus::BadParameters)
    );
    // Weight payload not a multiple of 4 bytes.
    let mut p = 0u32.to_le_bytes().to_vec();
    p.extend_from_slice(&[1, 2, 3]);
    assert_eq!(
        host.invoke(session, cmd::SET_WEIGHTS, &p),
        Err(GpStatus::BadParameters)
    );
    // Slot index out of range.
    let p = u32::MAX.to_le_bytes().to_vec();
    assert_eq!(
        host.invoke(session, cmd::SET_WEIGHTS, &p),
        Err(GpStatus::BadParameters)
    );
}

#[test]
fn staging_before_load_is_rejected() {
    let (s, _out) = recorded();
    let (host, session) = service_host(&s);
    let input_bytes: Vec<u8> = test_input(&grt_ml::zoo::mnist(), 0)
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    // SET_INPUT with no recording staged.
    assert_eq!(
        host.invoke(session, cmd::SET_INPUT, &input_bytes),
        Err(GpStatus::BadParameters)
    );
    // SET_WEIGHTS with no recording staged (weight table is empty).
    let p = 0u32.to_le_bytes().to_vec();
    assert_eq!(
        host.invoke(session, cmd::SET_WEIGHTS, &p),
        Err(GpStatus::BadParameters)
    );
}

#[test]
fn run_requires_full_staging_in_order() {
    let (s, out) = recorded();
    let (host, session) = service_host(&s);
    // RUN before anything.
    assert_eq!(
        host.invoke(session, cmd::RUN, &[]),
        Err(GpStatus::BadParameters)
    );
    // RUN after load but before input.
    host.invoke(session, cmd::LOAD_RECORDING, &load_blob(&out))
        .expect("valid load");
    assert_eq!(
        host.invoke(session, cmd::RUN, &[]),
        Err(GpStatus::BadParameters)
    );
    // RUN after load + input but with weights unstaged.
    let input_bytes: Vec<u8> = test_input(&grt_ml::zoo::mnist(), 1)
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    host.invoke(session, cmd::SET_INPUT, &input_bytes)
        .expect("valid input");
    assert_eq!(
        host.invoke(session, cmd::RUN, &[]),
        Err(GpStatus::BadParameters)
    );
}

#[test]
fn failed_invocations_do_not_poison_the_session() {
    let (s, out) = recorded();
    let (host, session) = service_host(&s);
    // A barrage of garbage first...
    let _ = host.invoke(session, 99, &[0xFF; 8]);
    let _ = host.invoke(session, cmd::LOAD_RECORDING, &[0u8; 8]);
    let _ = host.invoke(session, cmd::SET_INPUT, &[1, 2, 3]);
    let _ = host.invoke(session, cmd::RUN, &[]);
    // ...then the legitimate protocol still works end to end.
    use grt_ml::reference::workload_weights;
    let spec = grt_ml::zoo::mnist();
    let n = host
        .invoke(session, cmd::LOAD_RECORDING, &load_blob(&out))
        .expect("valid load after garbage");
    let weights = workload_weights(&spec);
    assert_eq!(
        u32::from_le_bytes([n[0], n[1], n[2], n[3]]) as usize,
        weights.len()
    );
    let input_bytes: Vec<u8> = test_input(&spec, 2)
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    host.invoke(session, cmd::SET_INPUT, &input_bytes)
        .expect("input stages");
    for (i, w) in weights.iter().enumerate() {
        let mut p = (i as u32).to_le_bytes().to_vec();
        p.extend(w.iter().flat_map(|v| v.to_le_bytes()));
        host.invoke(session, cmd::SET_WEIGHTS, &p).expect("weights");
    }
    let raw = host.invoke(session, cmd::RUN, &[]).expect("replay runs");
    assert!(!raw.is_empty());
}

/// `RUN_BATCH` payload: `u32-LE B ‖ images`, the images as f32-LE bytes.
fn batch_payload(batch: u32, images: &[Vec<f32>]) -> Vec<u8> {
    let mut p = batch.to_le_bytes().to_vec();
    p.extend(images.iter().flatten().flat_map(|v| v.to_le_bytes()));
    p
}

#[test]
fn run_batch_rejects_bad_geometry_and_unstaged_state() {
    use grt_ml::reference::workload_weights;
    let (s, out) = recorded();
    let (host, session) = service_host(&s);
    let spec = grt_ml::zoo::mnist();
    let weights = workload_weights(&spec);
    let image = test_input(&spec, 3);
    let input_bytes: Vec<u8> = image.iter().flat_map(|v| v.to_le_bytes()).collect();
    let load = || {
        host.invoke(session, cmd::LOAD_RECORDING, &load_blob(&out))
            .expect("valid load");
        host.invoke(session, cmd::SET_INPUT, &input_bytes)
            .expect("input stages");
    };
    let stage_weights = || {
        for (i, w) in weights.iter().enumerate() {
            let mut p = (i as u32).to_le_bytes().to_vec();
            p.extend(w.iter().flat_map(|v| v.to_le_bytes()));
            host.invoke(session, cmd::SET_WEIGHTS, &p).expect("weights");
        }
    };
    // Each refusal must leave the GPU unclaimed and the session able to
    // run a plain RUN.
    let refused = |payload: &[u8], what: &str| {
        assert_eq!(
            host.invoke(session, cmd::RUN_BATCH, payload),
            Err(GpStatus::BadParameters),
            "{what}"
        );
        assert!(
            s.client
                .tzasc
                .owner_of(grt_replay::client::GPU_MMIO_BASE)
                .is_none(),
            "{what}: GPU left claimed"
        );
    };
    let run_ok = |what: &str| {
        let raw = host.invoke(session, cmd::RUN, &[]);
        assert!(
            raw.is_ok_and(|r| !r.is_empty()),
            "{what}: RUN after refusal"
        );
    };

    let two = vec![image.clone(); 2];
    refused(&batch_payload(2, &two), "RUN_BATCH before LOAD_RECORDING");
    load();
    stage_weights();
    run_ok("RUN_BATCH before LOAD_RECORDING");

    load();
    refused(&batch_payload(2, &two), "unstaged weights");
    stage_weights();
    run_ok("unstaged weights");

    let max = grt_replay::compiled::MAX_BATCH;
    refused(&batch_payload(0, &[]), "B=0");
    run_ok("B=0");
    refused(
        &batch_payload(max as u32 + 1, &vec![image.clone(); max + 1]),
        "B=65",
    );
    run_ok("B=65");
    refused(&batch_payload(u32::MAX, &two), "B=u32::MAX");
    run_ok("B=u32::MAX");
    let mut short = batch_payload(2, &two);
    short.truncate(short.len() - 4);
    refused(&short, "payload one f32 short");
    run_ok("payload one f32 short");

    // The bounds are tight: a full B=2 batch of the same payload runs.
    let outs = host
        .invoke(session, cmd::RUN_BATCH, &batch_payload(2, &two))
        .expect("well-formed batch runs");
    assert_eq!(outs.len(), 2 * spec.output_len as usize * 4);
}
