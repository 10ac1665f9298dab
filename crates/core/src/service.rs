//! The replay service as a GlobalPlatform TEE module (§3.2, §6).
//!
//! The paper instantiates GPUShim/replayer as an OP-TEE module reached
//! through GlobalPlatform client APIs. [`ReplayService`] is that module: a
//! normal-world app opens a session, loads a signed recording, stages its
//! input and model parameters (which therefore exist only inside the TEE),
//! runs the replay, and reads back the output — four commands over
//! byte-buffer params, like a real GP TA.

use crate::compiled::CompiledRecording;
use crate::gate::RecordingGate;
use crate::recording::SignedRecording;
use crate::replay::Replayer;
use crate::session::ClientDevice;
use grt_crypto::{KeyPair, Signature};
use grt_tee::{GpParam, GpStatus, TeeModule};
use std::rc::Rc;

/// Command ids of the replay service (the TA's protocol).
pub mod cmd {
    /// params: `recording bytes ‖ 32-byte signature`. Verifies and stages.
    pub const LOAD_RECORDING: u32 = 1;
    /// params: `f32-LE input bytes`. Stages the inference input.
    pub const SET_INPUT: u32 = 2;
    /// params: `u32-LE slot index ‖ f32-LE weight bytes`. Stages one slot.
    pub const SET_WEIGHTS: u32 = 3;
    /// params: none. Replays; returns `f32-LE output bytes`.
    pub const RUN: u32 = 4;
    /// params: serialized `grt_attest::ProvenanceRecord`. Verifies it
    /// against the loaded recording and chains subsequent receipts to it.
    pub const SET_PROVENANCE: u32 = 5;
    /// params: none. Returns the serialized `grt_attest::ReplayReceipt`
    /// of the most recent successful `RUN`.
    pub const RECEIPT: u32 = 6;
    /// params: `u32-LE batch count B ‖ B × f32-LE input images`. Runs one
    /// batched replay over the staged recording and weights (DESIGN.md
    /// §14); returns `B × f32-LE output vectors` concatenated in lane
    /// order. Staged `SET_INPUT` state is untouched.
    pub const RUN_BATCH: u32 = 7;
}

/// The trusted replay module.
///
/// `LOAD_RECORDING` runs the whole trust pipeline — signature, SKU,
/// gate analysis — and lowers the recording into a [`CompiledRecording`]
/// (DESIGN.md §9). Every `RUN` then takes the warm path: no re-verify,
/// no re-parse, no re-lint, no delta decompression.
pub struct ReplayService {
    replayer: Replayer,
    key: KeyPair,
    compiled: Option<Rc<CompiledRecording>>,
    loaded_workload: Option<String>,
    input: Option<Vec<f32>>,
    weights: Vec<Option<Vec<f32>>>,
    runs: u64,
}

impl ReplayService {
    /// Creates the module over the device's hardware, trusting recordings
    /// signed under `key` and vetted by `gate` (the grt-lint analyzer in
    /// production).
    pub fn new(device: &ClientDevice, key: KeyPair, gate: Rc<dyn RecordingGate>) -> Self {
        ReplayService {
            replayer: Replayer::new(device, gate),
            key,
            compiled: None,
            loaded_workload: None,
            input: None,
            weights: Vec::new(),
            runs: 0,
        }
    }

    /// Name of the workload currently staged, if any. Serving-side
    /// schedulers use this to batch same-model requests so the
    /// `LOAD_RECORDING`/`SET_WEIGHTS` cost is amortized.
    pub fn loaded_workload(&self) -> Option<&str> {
        self.loaded_workload.as_deref()
    }

    /// Number of successful `RUN` invocations since creation.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Borrows every staged weight tensor, or fails if a slot is unset.
    fn staged(weights: &[Option<Vec<f32>>]) -> Result<Vec<&[f32]>, GpStatus> {
        weights
            .iter()
            .map(|w| w.as_deref().ok_or(GpStatus::BadParameters))
            .collect()
    }

    fn parse_f32s(bytes: &[u8]) -> Result<Vec<f32>, GpStatus> {
        if !bytes.len().is_multiple_of(4) {
            return Err(GpStatus::BadParameters);
        }
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }
}

impl TeeModule for ReplayService {
    fn name(&self) -> &'static str {
        "grt.replay"
    }

    fn invoke(&mut self, command: u32, input: &[u8]) -> Result<GpParam, GpStatus> {
        match command {
            cmd::LOAD_RECORDING => {
                if input.len() < 33 {
                    return Err(GpStatus::BadParameters);
                }
                let (body, sig) = input.split_at(input.len() - 32);
                let mut raw = [0u8; 32];
                raw.copy_from_slice(sig);
                let signed = SignedRecording {
                    bytes: body.to_vec(),
                    signature: Signature::from_bytes(raw),
                };
                // Verify, vet, and compile *now*: a bad recording never
                // occupies TEE state, and a good one is lowered exactly
                // once — `RUN` replays the compiled form.
                let compiled =
                    self.replayer
                        .compile_signed(&signed, &self.key)
                        .map_err(|e| match e {
                            crate::replay::ReplayError::BadRecording
                            | crate::replay::ReplayError::Rejected { .. } => GpStatus::AccessDenied,
                            _ => GpStatus::Generic,
                        })?;
                self.weights = vec![None; compiled.weights.len()];
                self.input = None;
                // Any previously chained provenance record covered the old
                // recording; receipts must not chain across a model switch.
                self.replayer.detach_provenance();
                self.loaded_workload = Some(compiled.workload.clone());
                let slots = compiled.weights.len();
                self.compiled = Some(Rc::new(compiled));
                Ok(slots.to_le_bytes()[..4].to_vec())
            }
            cmd::SET_INPUT => {
                if self.compiled.is_none() {
                    return Err(GpStatus::BadParameters);
                }
                self.input = Some(Self::parse_f32s(input)?);
                Ok(Vec::new())
            }
            cmd::SET_WEIGHTS => {
                if input.len() < 4 {
                    return Err(GpStatus::BadParameters);
                }
                let idx = u32::from_le_bytes([input[0], input[1], input[2], input[3]]) as usize;
                if idx >= self.weights.len() {
                    return Err(GpStatus::BadParameters);
                }
                self.weights[idx] = Some(Self::parse_f32s(&input[4..])?);
                Ok(Vec::new())
            }
            cmd::RUN => {
                let compiled = self.compiled.clone().ok_or(GpStatus::BadParameters)?;
                let input = self.input.as_ref().ok_or(GpStatus::BadParameters)?;
                let weights = Self::staged(&self.weights)?;
                let (out, _) = self
                    .replayer
                    .replay_compiled(&compiled, input, &weights)
                    .map_err(|e| match e {
                        // A lint rejection is a policy refusal, not a
                        // hardware fault.
                        crate::replay::ReplayError::Rejected { .. } => GpStatus::AccessDenied,
                        _ => GpStatus::Generic,
                    })?;
                self.runs += 1;
                Ok(out.iter().flat_map(|v| v.to_le_bytes()).collect())
            }
            cmd::RUN_BATCH => {
                let compiled = self.compiled.clone().ok_or(GpStatus::BadParameters)?;
                let weights = Self::staged(&self.weights)?;
                if input.len() < 4 {
                    return Err(GpStatus::BadParameters);
                }
                let batch = u32::from_le_bytes([input[0], input[1], input[2], input[3]]) as usize;
                let elems = compiled.input.len_elems as usize;
                // The payload must carry exactly B images of the recorded
                // input shape; the replayer re-checks the same bound.
                if batch == 0
                    || batch > crate::compiled::MAX_BATCH
                    || input.len() - 4 != batch * elems * 4
                {
                    return Err(GpStatus::BadParameters);
                }
                let all = Self::parse_f32s(&input[4..])?;
                let inputs: Vec<&[f32]> = all.chunks_exact(elems).collect();
                let (outs, _) = self
                    .replayer
                    .replay_compiled_batch(&compiled, &inputs, &weights)
                    .map_err(|e| match e {
                        crate::replay::ReplayError::Rejected { .. } => GpStatus::AccessDenied,
                        _ => GpStatus::Generic,
                    })?;
                self.runs += 1;
                Ok(outs
                    .iter()
                    .flat_map(|out| out.iter().flat_map(|v| v.to_le_bytes()))
                    .collect())
            }
            cmd::SET_PROVENANCE => {
                let compiled = self.compiled.as_ref().ok_or(GpStatus::BadParameters)?;
                let prov = grt_attest::ProvenanceRecord::from_bytes(input)
                    .map_err(|_| GpStatus::BadParameters)?;
                // The record must be authentic and must cover *this*
                // recording on *this* SKU; anything else is a refusal.
                if !prov.verify(crate::session::PROVISIONING_SECRET)
                    || prov.recording_digest != compiled.recording_digest()
                    || prov.gpu_id != compiled.gpu_id
                {
                    return Err(GpStatus::AccessDenied);
                }
                self.replayer.attach_provenance(prov.digest());
                Ok(Vec::new())
            }
            cmd::RECEIPT => {
                let receipt = self
                    .replayer
                    .last_receipt()
                    .ok_or(GpStatus::BadParameters)?;
                Ok(receipt.to_bytes())
            }
            _ => Err(GpStatus::BadParameters),
        }
    }
}

impl std::fmt::Debug for ReplayService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplayService")
            .field("loaded", &self.compiled.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::workload_weights;
    use crate::session::{RecordSession, RecorderMode};
    use grt_gpu::GpuSku;
    use grt_ml::reference::{test_input, ReferenceNet};
    use grt_net::NetConditions;
    use grt_tee::TeeHost;
    use std::cell::RefCell;

    fn recorded() -> (RecordSession, crate::session::RecordOutcome) {
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
        out: &crate::session::RecordOutcome,
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
            Rc::new(crate::gate::PermissiveGate),
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
            Rc::new(crate::gate::PermissiveGate),
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
            Rc::new(crate::gate::PermissiveGate),
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
            Rc::new(crate::gate::PermissiveGate),
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

        let secret = crate::session::PROVISIONING_SECRET;
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
            Rc::new(crate::gate::PermissiveGate),
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
}
