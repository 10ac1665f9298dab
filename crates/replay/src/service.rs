//! The replay service as a GlobalPlatform TEE module (§3.2, §6).
//!
//! The paper instantiates GPUShim/replayer as an OP-TEE module reached
//! through GlobalPlatform client APIs. [`ReplayService`] is that module: a
//! normal-world app opens a session, loads a signed recording, stages its
//! input and model parameters (which therefore exist only inside the TEE),
//! runs the replay, and reads back the output — four commands over
//! byte-buffer params, like a real GP TA.

use crate::client::{ClientDevice, PROVISIONING_SECRET};
use crate::compiled::{CompiledRecording, MAX_BATCH};
use crate::replay::{ReplayError, Replayer};
use grt_crypto::{KeyPair, Signature};
use grt_ir::gate::RecordingGate;
use grt_ir::recording::SignedRecording;
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
                            ReplayError::BadRecording | ReplayError::Rejected { .. } => {
                                GpStatus::AccessDenied
                            }
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
                        ReplayError::Rejected { .. } => GpStatus::AccessDenied,
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
                if batch == 0 || batch > MAX_BATCH || input.len() - 4 != batch * elems * 4 {
                    return Err(GpStatus::BadParameters);
                }
                let all = Self::parse_f32s(&input[4..])?;
                let inputs: Vec<&[f32]> = all.chunks_exact(elems).collect();
                let (outs, _) = self
                    .replayer
                    .replay_compiled_batch(&compiled, &inputs, &weights)
                    .map_err(|e| match e {
                        ReplayError::Rejected { .. } => GpStatus::AccessDenied,
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
                if !prov.verify(PROVISIONING_SECRET)
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
