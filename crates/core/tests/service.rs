//! The GlobalPlatform replay service driven command by command over a
//! real recording.

use grt_core::session::{RecordSession, RecorderMode};
use grt_gpu::GpuSku;
use grt_ml::reference::{test_input, workload_weights, ReferenceNet};
use grt_net::NetConditions;
use grt_replay::service::{cmd, ReplayService};
use grt_tee::{GpStatus, TeeHost};
use std::cell::RefCell;
use std::rc::Rc;

fn recorded() -> (RecordSession, grt_core::session::RecordOutcome) {
    let mut s = RecordSession::new(
        GpuSku::mali_g71_mp8(),
        NetConditions::wifi(),
        RecorderMode::OursMDS,
    );
    let out = s.record(&grt_ml::zoo::mnist()).expect("record");
    (s, out)
}

fn gp_run(
    host: &TeeHost,
    session: u32,
    out: &grt_core::session::RecordOutcome,
    input: &[f32],
    weights: &[Vec<f32>],
) -> Result<Vec<f32>, GpStatus> {
    let mut blob = out.recording.bytes.clone();
    blob.extend_from_slice(out.recording.signature.as_bytes());
    let n = host.invoke(session, cmd::LOAD_RECORDING, &blob)?;
    assert_eq!(
        u32::from_le_bytes([n[0], n[1], n[2], n[3]]) as usize,
        weights.len()
    );
    let input_bytes: Vec<u8> = input.iter().flat_map(|v| v.to_le_bytes()).collect();
    host.invoke(session, cmd::SET_INPUT, &input_bytes)?;
    for (i, w) in weights.iter().enumerate() {
        let mut p = (i as u32).to_le_bytes().to_vec();
        p.extend(w.iter().flat_map(|v| v.to_le_bytes()));
        host.invoke(session, cmd::SET_WEIGHTS, &p)?;
    }
    let raw = host.invoke(session, cmd::RUN, &[])?;
    Ok(raw
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

#[test]
fn gp_protocol_runs_inference_in_tee() {
    let (s, out) = recorded();
    let spec = grt_ml::zoo::mnist();
    let host = TeeHost::new(&s.client.monitor);
    host.register(Box::new(RefCell::new(ReplayService::new(
        &s.client,
        s.recording_key(),
        Rc::new(grt_ir::gate::PermissiveGate),
    ))));
    let session = host.open_session("grt.replay").unwrap();
    let input = test_input(&spec, 8);
    let weights = workload_weights(&spec);
    let gpu_out = gp_run(&host, session, &out, &input, &weights).unwrap();
    let cpu_out = ReferenceNet::new(spec).infer(&input);
    for (a, b) in gpu_out.iter().zip(&cpu_out) {
        assert!((a - b).abs() < 1e-3);
    }
    host.close_session(session).unwrap();
}

#[test]
fn tampered_recording_refused_at_load() {
    let (s, mut out) = recorded();
    let host = TeeHost::new(&s.client.monitor);
    host.register(Box::new(RefCell::new(ReplayService::new(
        &s.client,
        s.recording_key(),
        Rc::new(grt_ir::gate::PermissiveGate),
    ))));
    let session = host.open_session("grt.replay").unwrap();
    out.recording.bytes[10] ^= 1;
    let mut blob = out.recording.bytes.clone();
    blob.extend_from_slice(out.recording.signature.as_bytes());
    assert_eq!(
        host.invoke(session, cmd::LOAD_RECORDING, &blob),
        Err(GpStatus::AccessDenied)
    );
}

#[test]
fn run_requires_complete_staging() {
    let (s, out) = recorded();
    let spec = grt_ml::zoo::mnist();
    let host = TeeHost::new(&s.client.monitor);
    host.register(Box::new(RefCell::new(ReplayService::new(
        &s.client,
        s.recording_key(),
        Rc::new(grt_ir::gate::PermissiveGate),
    ))));
    let session = host.open_session("grt.replay").unwrap();
    // Run with nothing loaded.
    assert_eq!(
        host.invoke(session, cmd::RUN, &[]),
        Err(GpStatus::BadParameters)
    );
    // Load, set input, but leave weights unstaged.
    let mut blob = out.recording.bytes.clone();
    blob.extend_from_slice(out.recording.signature.as_bytes());
    host.invoke(session, cmd::LOAD_RECORDING, &blob).unwrap();
    let input_bytes: Vec<u8> = test_input(&spec, 0)
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    host.invoke(session, cmd::SET_INPUT, &input_bytes).unwrap();
    assert_eq!(
        host.invoke(session, cmd::RUN, &[]),
        Err(GpStatus::BadParameters)
    );
}

#[test]
fn provenance_and_receipt_commands_round_trip() {
    let (s, out) = recorded();
    let spec = grt_ml::zoo::mnist();
    let host = TeeHost::new(&s.client.monitor);
    host.register(Box::new(RefCell::new(ReplayService::new(
        &s.client,
        s.recording_key(),
        Rc::new(grt_ir::gate::PermissiveGate),
    ))));
    let session = host.open_session("grt.replay").unwrap();
    // No recording loaded yet: both commands refuse.
    assert_eq!(
        host.invoke(session, cmd::SET_PROVENANCE, &[]),
        Err(GpStatus::BadParameters)
    );
    assert_eq!(
        host.invoke(session, cmd::RECEIPT, &[]),
        Err(GpStatus::BadParameters)
    );

    let mut blob = out.recording.bytes.clone();
    blob.extend_from_slice(out.recording.signature.as_bytes());
    host.invoke(session, cmd::LOAD_RECORDING, &blob).unwrap();

    let secret = grt_replay::client::PROVISIONING_SECRET;
    let gpu_id = s.client.gpu.borrow().sku().gpu_id;
    let recording_digest = grt_crypto::Sha256::digest(&out.recording.bytes);
    let lint_digest = grt_crypto::Sha256::digest(b"{}");
    // A provenance record for a *different* recording is refused.
    let wrong = grt_attest::ProvenanceRecord::build(
        "registry",
        "MNIST",
        gpu_id,
        grt_crypto::Sha256::digest(b"other recording"),
        lint_digest,
        secret,
    );
    assert_eq!(
        host.invoke(session, cmd::SET_PROVENANCE, &wrong.to_bytes()),
        Err(GpStatus::AccessDenied)
    );
    // The matching record is accepted and receipts chain to it.
    let prov = grt_attest::ProvenanceRecord::build(
        "registry",
        "MNIST",
        gpu_id,
        recording_digest,
        lint_digest,
        secret,
    );
    host.invoke(session, cmd::SET_PROVENANCE, &prov.to_bytes())
        .unwrap();

    let input = test_input(&spec, 8);
    let weights = workload_weights(&spec);
    gp_run(&host, session, &out, &input, &weights).unwrap();
    // gp_run re-issues LOAD_RECORDING, which detaches provenance —
    // re-attach, run again, and fetch the chained receipt.
    host.invoke(session, cmd::SET_PROVENANCE, &prov.to_bytes())
        .unwrap();
    host.invoke(session, cmd::RUN, &[]).unwrap();
    let raw = host.invoke(session, cmd::RECEIPT, &[]).unwrap();
    let receipt = grt_attest::ReplayReceipt::from_bytes(&raw).unwrap();
    assert_eq!(receipt.provenance_digest, prov.digest());
    grt_attest::verify_chain(&receipt, &prov, "{}", secret).unwrap();
}

#[test]
fn bad_parameters_rejected() {
    let (s, out) = recorded();
    let host = TeeHost::new(&s.client.monitor);
    host.register(Box::new(RefCell::new(ReplayService::new(
        &s.client,
        s.recording_key(),
        Rc::new(grt_ir::gate::PermissiveGate),
    ))));
    let session = host.open_session("grt.replay").unwrap();
    // Too-short load blob.
    assert_eq!(
        host.invoke(session, cmd::LOAD_RECORDING, &[0u8; 10]),
        Err(GpStatus::BadParameters)
    );
    // Unknown command.
    assert_eq!(host.invoke(session, 99, &[]), Err(GpStatus::BadParameters));
    // Out-of-range weight slot.
    let mut blob = out.recording.bytes.clone();
    blob.extend_from_slice(out.recording.signature.as_bytes());
    host.invoke(session, cmd::LOAD_RECORDING, &blob).unwrap();
    let p = 9999u32.to_le_bytes().to_vec();
    assert_eq!(
        host.invoke(session, cmd::SET_WEIGHTS, &p),
        Err(GpStatus::BadParameters)
    );
}
