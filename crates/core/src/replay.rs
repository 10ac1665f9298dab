//! The in-TEE replayer (§2.3, §3.2).
//!
//! The replayer is deliberately tiny: it holds no GPU stack, no JIT, no
//! driver — it verifies the recording's signature and SKU, injects the
//! app's real input and model parameters into the recorded slots, and
//! walks the event log: register writes go to the hardware, deterministic
//! reads are checked, polls and interrupt waits pace execution, memory
//! deltas rebuild the metastate. Before and after a replay the GPU is
//! reset and the TZASC holds it in the secure world.

use crate::compiled::{compile_from_ir, CompileError, CompiledRecording, Op, MAX_BATCH};
use crate::gate::{GateContext, RecordingGate};
use crate::recording::{irq_line_from, DataSlot, Event, Recording, SignedRecording};
use crate::session::ClientDevice;
use grt_attest::{ReceiptCounters, ReplayReceipt};
use grt_compress::DeltaCodec;
use grt_crypto::{KeyPair, Sha256};
use grt_driver::PollCond;
use grt_ir::IrProgram;
use grt_ml::reference::{biases_for_layer, weights_for_layer};
use grt_ml::NetworkSpec;
use grt_sim::SimTime;
use std::cell::RefCell;
use std::rc::Rc;

/// Per-event replayer overhead on the interpreted path (wire-format event
/// decode + offset resolution + MMIO issue).
const REPLAY_EVENT_TIME: SimTime = SimTime::from_nanos(1500);

/// Per-op replayer overhead on the compiled path: the op is pre-decoded
/// and pre-validated, its register offset a dense table read, so only the
/// MMIO issue itself remains (DESIGN.md §9).
const COMPILED_EVENT_TIME: SimTime = SimTime::from_nanos(250);

/// One-time per-event cost of lowering a recording into its compiled form
/// (decode + validate + intern), charged in [`Replayer::compile_signed`].
const COMPILE_EVENT_TIME: SimTime = SimTime::from_nanos(300);

/// Hard cap on poll iterations regardless of what the recording asks for:
/// a malicious (or corrupt) recording must not be able to spin the TEE.
/// Public so the `grt-lint` analyzer can enforce the same bound statically
/// (rule R3).
pub const REPLAY_POLL_ITER_CAP: u32 = 10_000;

/// Replay failures.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayError {
    /// Signature verification failed or the bytes were malformed.
    BadRecording,
    /// The recording was made on a different GPU SKU.
    WrongSku {
        /// GPU_ID in the recording.
        recorded: u32,
        /// GPU_ID of the present hardware.
        present: u32,
    },
    /// A deterministic register read differed from the recorded value.
    VerifyMismatch {
        /// Register offset.
        offset: u32,
        /// Recorded value.
        expected: u32,
        /// Observed value.
        got: u32,
    },
    /// A recorded polling loop never met its condition.
    PollTimeout {
        /// Register polled.
        reg: u32,
    },
    /// A recorded interrupt never arrived.
    IrqHang,
    /// Injected data did not match the recorded slot shape.
    BadInput,
    /// A metastate delta failed to decode.
    CorruptDelta,
    /// The recording parsed and verified but failed ahead-of-replay static
    /// analysis (see the `grt-lint` crate and DESIGN.md "Recording
    /// verification").
    Rejected {
        /// The violated rule ("R1".."R6").
        rule: String,
        /// The analyzer's first error finding.
        message: String,
    },
    /// An event carried a field outside its defined encoding (e.g. an
    /// unknown poll condition code). Previously such events were silently
    /// coerced to a near-miss interpretation; now they are typed failures.
    MalformedEvent {
        /// Which event field was malformed.
        field: &'static str,
        /// The offending value.
        value: u32,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::BadRecording => write!(f, "recording rejected (signature/format)"),
            ReplayError::WrongSku { recorded, present } => write!(
                f,
                "recording for GPU {recorded:#x} cannot replay on {present:#x}"
            ),
            ReplayError::VerifyMismatch {
                offset,
                expected,
                got,
            } => write!(
                f,
                "register {offset:#x} read {got:#x}, recorded {expected:#x}"
            ),
            ReplayError::PollTimeout { reg } => write!(f, "poll on {reg:#x} timed out"),
            ReplayError::IrqHang => write!(f, "recorded interrupt never arrived"),
            ReplayError::BadInput => write!(f, "injected data does not fit recorded slots"),
            ReplayError::CorruptDelta => write!(f, "metastate delta failed to decode"),
            ReplayError::Rejected { rule, message } => {
                write!(
                    f,
                    "recording rejected by static analysis [{rule}]: {message}"
                )
            }
            ReplayError::MalformedEvent { field, value } => {
                write!(f, "malformed event: {field} = {value:#x}")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// Cost breakdown of the most recent replay (interpreted or compiled).
///
/// `overhead` isolates the replayer's own work — event decode, offset
/// resolution, delta handling — from hardware waits (polls, interrupts,
/// GPU execution), which dominate `total` and are identical on both
/// paths. Throughput comparisons between the paths are only meaningful
/// over `overhead`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayProfile {
    /// Events (or compiled ops) executed.
    pub events: u64,
    /// Replayer-overhead time: per-event decode/issue plus delta work.
    pub overhead: SimTime,
    /// End-to-end replay latency, including hardware waits.
    pub total: SimTime,
    /// Wire-format delta bytes decompressed during the replay (zero on
    /// the compiled path — decompression happened once at compile time).
    pub delta_wire_bytes: u64,
    /// Execution fast-path counters accumulated inside the GPU during
    /// this replay: software-TLB hits/misses and the per-op-kind
    /// events/MACs/time breakdown (see [`grt_gpu::ExecStats`]).
    pub exec: grt_gpu::ExecStats,
    /// What superinstruction fusion removed from this replay's warm walk
    /// (all zero on the interpreted path and for unfused compilations).
    pub fusion: grt_ir::FusionSummary,
}

impl ReplayProfile {
    /// Events per second of replayer overhead time.
    pub fn events_per_sec(&self) -> f64 {
        if self.overhead.is_zero() {
            return 0.0;
        }
        self.events as f64 / self.overhead.as_secs_f64()
    }
}

/// Generates the real model parameters for `spec` in recording slot order
/// (weights then bias per layer, empty buffers omitted) — the data the app
/// provides inside the TEE at replay time.
pub fn workload_weights(spec: &NetworkSpec) -> Vec<Vec<f32>> {
    let mut out = Vec::new();
    for (idx, layer) in spec.layers.iter().enumerate() {
        let wl = layer.op.weight_len() as usize;
        let bl = layer.op.bias_len() as usize;
        if wl > 0 {
            out.push(weights_for_layer(spec.name, idx, wl));
        }
        if bl > 0 {
            out.push(biases_for_layer(spec.name, idx, bl));
        }
    }
    out
}

/// The replayer, bound to a client device and a recording gate.
pub struct Replayer {
    device_gpu: Rc<RefCell<grt_gpu::Gpu>>,
    device_mem: Rc<RefCell<grt_gpu::Memory>>,
    clock: Rc<grt_sim::Clock>,
    tzasc: Rc<grt_tee::Tzasc>,
    codec: DeltaCodec,
    gate: Rc<dyn RecordingGate>,
    profile: ReplayProfile,
    /// Digest of the provenance record replays chain their receipts to;
    /// `None` until the host attaches one (receipts then carry an all-zero
    /// chain field and fail offline chain verification by design).
    provenance_digest: Option<[u8; 32]>,
    /// Receipt of the most recent successful replay.
    last_receipt: Option<ReplayReceipt>,
    /// Reused f32 → wire staging buffer for batch input lanes.
    upload: grt_runtime::UploadScratch,
}

impl Replayer {
    /// Creates a replayer over the client device's hardware.
    ///
    /// Every recording must pass `gate` before a single event executes.
    /// Production callers pass the `grt-lint` analyzer
    /// (`Rc::new(grt_lint::Linter::new())`); tests that deliberately need
    /// a known-bad recording past static analysis to exercise runtime
    /// defenses pass [`crate::gate::PermissiveGate`].
    pub fn new(device: &ClientDevice, gate: Rc<dyn RecordingGate>) -> Self {
        Replayer {
            device_gpu: Rc::clone(&device.gpu),
            device_mem: Rc::clone(&device.mem),
            clock: Rc::clone(&device.clock),
            tzasc: Rc::clone(&device.tzasc),
            codec: DeltaCodec::new(grt_gpu::PAGE_SIZE),
            gate,
            profile: ReplayProfile::default(),
            provenance_digest: None,
            last_receipt: None,
            upload: grt_runtime::UploadScratch::default(),
        }
    }

    /// Cost breakdown of the most recent replay (see [`ReplayProfile`]).
    pub fn last_profile(&self) -> ReplayProfile {
        self.profile
    }

    /// Chains subsequent replay receipts to the provenance record with
    /// this digest (see `grt_attest::ProvenanceRecord::digest`).
    pub fn attach_provenance(&mut self, digest: [u8; 32]) {
        self.provenance_digest = Some(digest);
    }

    /// Detaches any chained provenance record; subsequent receipts carry
    /// an all-zero chain field again.
    pub fn detach_provenance(&mut self) {
        self.provenance_digest = None;
    }

    /// The signed receipt of the most recent successful replay, if any.
    pub fn last_receipt(&self) -> Option<&ReplayReceipt> {
        self.last_receipt.as_ref()
    }

    /// Builds and signs the receipt for the replay that just completed;
    /// the profile must be fully populated before this runs. The caller
    /// supplies the (possibly batch-committed) input digest.
    fn emit_receipt(
        &mut self,
        workload: &str,
        recording_digest: [u8; 32],
        input_digest: [u8; 32],
        raw_output: &[u8],
    ) {
        let gpu_id = self.device_gpu.borrow().sku().gpu_id;
        let counters = ReceiptCounters {
            events: self.profile.events,
            overhead_ns: self.profile.overhead.as_nanos(),
            total_ns: self.profile.total.as_nanos(),
            delta_wire_bytes: self.profile.delta_wire_bytes,
            tlb_hits: self.profile.exec.tlb.hits,
            tlb_misses: self.profile.exec.tlb.misses,
        };
        self.last_receipt = Some(ReplayReceipt::build(
            workload,
            gpu_id,
            recording_digest,
            self.provenance_digest.unwrap_or([0u8; 32]),
            input_digest,
            Sha256::digest(raw_output),
            counters,
            crate::session::PROVISIONING_SECRET,
        ));
    }

    /// The load-time trust pipeline, in order: signature, SKU match, one
    /// lift to the semantics IR under the present GPU's PTE quirk, and the
    /// gate's whole-recording static analysis over that lift (which the
    /// runtime checks then only have to complement). Returns the parsed
    /// recording with the vetted lift, so a compile lowers exactly the IR
    /// the gate saw.
    fn load(
        &self,
        signed: &SignedRecording,
        key: &KeyPair,
    ) -> Result<(Recording, IrProgram), ReplayError> {
        let rec = signed
            .verify_and_parse(key)
            .ok_or(ReplayError::BadRecording)?;
        let sku = self.device_gpu.borrow().sku().clone();
        if rec.gpu_id != sku.gpu_id {
            return Err(ReplayError::WrongSku {
                recorded: rec.gpu_id,
                present: sku.gpu_id,
            });
        }
        let ir = crate::ir::lift_recording(&rec, sku.pte_quirk);
        let ctx = GateContext {
            sku: &sku,
            carveout_base: 0,
            carveout_len: self.device_mem.borrow().size() as u64,
            poll_iter_cap: REPLAY_POLL_ITER_CAP,
        };
        self.gate
            .vet(&ir, &ctx)
            .map_err(|r| ReplayError::Rejected {
                rule: r.rule,
                message: r.message,
            })?;
        Ok((rec, ir))
    }

    /// Checks that `weights` fills exactly the recorded weight slots.
    fn check_weights<W: AsRef<[f32]>>(
        slots: &[DataSlot],
        weights: &[W],
    ) -> Result<(), ReplayError> {
        if weights.len() != slots.len()
            || slots
                .iter()
                .zip(weights)
                .any(|(slot, w)| w.as_ref().len() != slot.len_elems as usize)
        {
            return Err(ReplayError::BadInput);
        }
        Ok(())
    }

    /// Isolates and resets the GPU and scrubs protected memory (§3.2),
    /// then injects the real parameters and input into the recorded slots.
    fn lock_and_stage<W: AsRef<[f32]>>(
        &mut self,
        weight_slots: &[DataSlot],
        weights: &[W],
        input_slot: DataSlot,
        input: &[f32],
    ) {
        self.tzasc.claim(
            crate::client::GPU_MMIO_BASE,
            crate::client::GPU_MMIO_LEN,
            grt_tee::World::Secure,
        );
        self.device_gpu.borrow_mut().hard_reset_now();
        let mut mem = self.device_mem.borrow_mut();
        mem.wipe();
        for (slot, w) in weight_slots.iter().zip(weights) {
            mem.restore_range(slot.pa, self.upload.stage(w.as_ref()));
        }
        mem.restore_range(input_slot.pa, self.upload.stage(input));
    }

    /// Replays a signed recording with fresh `input` and `weights`,
    /// returning the inference output and the replay delay (Table 2).
    pub fn replay<W: AsRef<[f32]>>(
        &mut self,
        signed: &SignedRecording,
        key: &KeyPair,
        input: &[f32],
        weights: &[W],
    ) -> Result<(Vec<f32>, SimTime), ReplayError> {
        let (rec, _) = self.load(signed, key)?;
        if input.len() != rec.input.len_elems as usize {
            return Err(ReplayError::BadInput);
        }
        Self::check_weights(&rec.weights, weights)?;

        self.profile = ReplayProfile::default();
        let t0 = self.clock.now();
        let exec0 = self.device_gpu.borrow().exec_stats();
        self.lock_and_stage(&rec.weights, weights, rec.input, input);

        // Walk the log.
        for event in &rec.events {
            if let Err(e) = self.exec_event(event) {
                self.cleanup();
                return Err(e);
            }
        }

        // Read the output, then scrub hardware state (§3.2).
        let raw = self
            .device_mem
            .borrow()
            .dump_range(rec.output.pa, rec.output.len_elems as usize * 4);
        self.cleanup();
        self.profile.exec = self.device_gpu.borrow().exec_stats().delta_since(&exec0);
        self.profile.total = self.clock.now() - t0;
        let input_digest = Sha256::digest(self.upload.stage(input));
        self.emit_receipt(
            &rec.workload,
            Sha256::digest(&signed.bytes),
            input_digest,
            &raw,
        );
        Ok((f32s(&raw), self.profile.total))
    }

    /// Executes one recorded event against the hardware.
    fn exec_event(&mut self, event: &Event) -> Result<(), ReplayError> {
        self.clock.advance(REPLAY_EVENT_TIME);
        self.profile.events += 1;
        self.profile.overhead += REPLAY_EVENT_TIME;
        match event {
            Event::BeginLayer { .. } => {}
            Event::RegWrite { offset, value } => {
                self.device_gpu.borrow_mut().write_reg(*offset, *value);
            }
            Event::RegRead {
                offset,
                value,
                verify,
            } => {
                let got = self.device_gpu.borrow_mut().read_reg(*offset);
                if *verify && got != *value {
                    return Err(ReplayError::VerifyMismatch {
                        offset: *offset,
                        expected: *value,
                        got,
                    });
                }
            }
            Event::Poll {
                reg,
                mask,
                cond,
                cmp,
                max_iters,
                delay_us,
            } => {
                let cond = match cond {
                    0 => PollCond::MaskedZero,
                    1 => PollCond::MaskedNonZero,
                    2 => PollCond::MaskedEq(*cmp),
                    // Unknown condition codes used to be silently coerced
                    // to MaskedEq; a malformed event is now a typed error.
                    _ => {
                        return Err(ReplayError::MalformedEvent {
                            field: "poll.cond",
                            value: *cond as u32,
                        })
                    }
                };
                if *max_iters == 0 {
                    return Err(ReplayError::MalformedEvent {
                        field: "poll.max_iters",
                        value: 0,
                    });
                }
                let mut satisfied = false;
                for _ in 0..(*max_iters).min(REPLAY_POLL_ITER_CAP) {
                    let raw = self.device_gpu.borrow_mut().read_reg(*reg);
                    if cond.satisfied(raw, *mask) {
                        satisfied = true;
                        break;
                    }
                    self.clock.advance(SimTime::from_micros(*delay_us as u64));
                }
                if !satisfied {
                    return Err(ReplayError::PollTimeout { reg: *reg });
                }
            }
            Event::WaitIrq { line } => {
                // An out-of-range line byte is a malformed event, not a
                // generic "bad recording": the signature was fine, the
                // content wasn't.
                let line = irq_line_from(*line).ok_or(ReplayError::MalformedEvent {
                    field: "wait_irq.line",
                    value: *line as u32,
                })?;
                let Some(at) = self.device_gpu.borrow_mut().next_irq_at(line) else {
                    return Err(ReplayError::IrqHang);
                };
                self.clock.advance_to(at);
            }
            Event::LoadMemDelta { pa, len, delta } => {
                // Clamp the claimed region length to the device's memory
                // and bound the decode accordingly: a malicious recording
                // must not drive unbounded allocation or decode work.
                let len = (*len as usize).min(self.device_mem.borrow().size());
                let current = self.device_mem.borrow().dump_range(*pa, len);
                let new = self
                    .codec
                    .decode_limited(&current, delta, len)
                    .map_err(|_| ReplayError::CorruptDelta)?;
                self.device_mem.borrow_mut().restore_range(*pa, &new);
                // Decompression cost: ~1 µs per KiB.
                let decode_time = SimTime::from_nanos(delta.len() as u64);
                self.clock.advance(decode_time);
                self.profile.overhead += decode_time;
                self.profile.delta_wire_bytes += delta.len() as u64;
            }
        }
        Ok(())
    }

    /// Verifies, vets, and lowers a signed recording into its compiled
    /// form (DESIGN.md §9). The full load-time pipeline — signature check,
    /// SKU match, one lift, gate analysis, event validation, delta
    /// decompression — runs exactly once here; every subsequent
    /// [`Replayer::replay_compiled`] call skips all of it.
    ///
    /// The returned [`CompiledRecording`] inherits the recording's trust:
    /// it is lowered from the very IR the gate vetted, so the `grt-lint`
    /// R1–R9 verdict carries over to every compiled replay.
    pub fn compile_signed(
        &mut self,
        signed: &SignedRecording,
        key: &KeyPair,
    ) -> Result<CompiledRecording, ReplayError> {
        let (rec, ir) = self.load(signed, key)?;
        let compiled = compile_from_ir(&rec, ir, REPLAY_POLL_ITER_CAP).map_err(|e| match e {
            CompileError::MalformedEvent { field, value } => {
                ReplayError::MalformedEvent { field, value }
            }
            CompileError::CorruptDelta { .. } => ReplayError::CorruptDelta,
            CompileError::TooManyRegisters => ReplayError::BadRecording,
        })?;
        // One-time lowering cost: per-event validation plus decompressing
        // every delta's wire format (the work warm replays no longer do).
        self.clock.advance(
            COMPILE_EVENT_TIME * compiled.num_events()
                + SimTime::from_nanos(compiled.delta_wire_bytes()),
        );
        Ok(compiled)
    }

    /// Replays a compiled recording with fresh `input` and `weights` —
    /// the warm path: a one-lane [`Replayer::replay_compiled_batch`].
    /// Event-for-event equivalent to [`Replayer::replay`] on the recording
    /// the compiled form was lowered from, without re-parsing,
    /// re-verifying, or re-decompressing anything.
    pub fn replay_compiled<W: AsRef<[f32]>>(
        &mut self,
        compiled: &CompiledRecording,
        input: &[f32],
        weights: &[W],
    ) -> Result<(Vec<f32>, SimTime), ReplayError> {
        let (mut outs, total) = self.replay_compiled_batch(compiled, &[input], weights)?;
        Ok((outs.swap_remove(0), total))
    }

    /// Replays a compiled recording once for a whole batch of
    /// `1..=MAX_BATCH` inputs (DESIGN.md §14) — the one warm executor.
    /// One pass over the op arena serves `inputs.len()` inference inputs,
    /// sharing the control dialog (register writes, polls, interrupt
    /// waits, metastate deltas, reset/wipe/restore) and the batch-resident
    /// operand traffic across the batch.
    ///
    /// Lane 0 runs on the device's primary memory; each extra input gets a
    /// memory lane, owned by the GPU while the pass runs, forked after
    /// restore with only the input slot rewritten. The fork copies only
    /// the pages staging touched (the rest of protected memory is zero by
    /// the wipe), so a lane costs its working set, not the carveout. Every
    /// lane's bytes evolve exactly as a one-input replay of that input —
    /// batched outputs are bitwise identical to sequential ones,
    /// property-tested across the zoo. A single input attaches no lanes:
    /// that is [`Replayer::replay_compiled`].
    ///
    /// One [`ReplayReceipt`] covers the batch: its input digest commits to
    /// the per-lane input-digest vector via
    /// [`grt_attest::batch_input_digest`] (the lane digest itself for one
    /// input) and its output digest covers the lane outputs concatenated
    /// in lane order (verify with [`grt_attest::verify_batch_receipt_data`]).
    pub fn replay_compiled_batch<I: AsRef<[f32]>, W: AsRef<[f32]>>(
        &mut self,
        compiled: &CompiledRecording,
        inputs: &[I],
        weights: &[W],
    ) -> Result<(Vec<Vec<f32>>, SimTime), ReplayError> {
        if !(1..=MAX_BATCH).contains(&inputs.len()) {
            return Err(ReplayError::BadInput);
        }
        self.check_compiled(compiled, inputs, weights)?;

        self.profile = ReplayProfile::default();
        let t0 = self.clock.now();
        let exec0 = self.device_gpu.borrow().exec_stats();
        self.stage_compiled(compiled, inputs[0].as_ref(), weights);
        // Lane images: fork the restored primary, then overwrite the input
        // slot. The fork copies every page staging touched — page tables,
        // descriptors, weight pages — and the rest is zero on both sides,
        // so lane b starts byte-identical to what a one-input replay of
        // `inputs[b]` would stage.
        let lanes = inputs[1..]
            .iter()
            .map(|input| {
                let mut lane = self.device_mem.borrow().clone();
                lane.restore_range(compiled.input.pa, self.upload.stage(input.as_ref()));
                Rc::new(RefCell::new(lane))
            })
            .collect();
        self.device_gpu.borrow_mut().set_batch_lanes(lanes);
        if let Err(e) = compiled
            .kept_ops()
            .try_for_each(|op| self.exec_op(compiled, op))
        {
            self.cleanup();
            return Err(e);
        }
        self.profile.fusion = compiled.fusion_summary();

        // Commit the batch: lane 0 from the primary memory, then each
        // extra lane's output region, concatenated in lane order for the
        // batch receipt.
        let out_len = compiled.output.len_elems as usize * 4;
        let lanes = self.device_gpu.borrow_mut().take_batch_lanes();
        let raws: Vec<Vec<u8>> = std::iter::once(&self.device_mem)
            .chain(&lanes)
            .map(|mem| mem.borrow().dump_range(compiled.output.pa, out_len))
            .collect();
        let outs: Vec<Vec<f32>> = raws.iter().map(|raw| f32s(raw)).collect();
        self.cleanup();
        self.profile.exec = self.device_gpu.borrow().exec_stats().delta_since(&exec0);
        self.profile.total = self.clock.now() - t0;
        let input_digests: Vec<[u8; 32]> = inputs
            .iter()
            .map(|input| Sha256::digest(self.upload.stage(input.as_ref())))
            .collect();
        self.emit_receipt(
            &compiled.workload,
            compiled.recording_digest(),
            grt_attest::batch_input_digest(&input_digests),
            &raws.concat(),
        );
        Ok((outs, self.profile.total))
    }

    /// Checks a compiled recording against the present SKU and the shapes
    /// of the data about to be injected. The SKU is re-checked because a
    /// compiled recording outlives device handoffs in the serve registry,
    /// and the check is two loads.
    fn check_compiled<I: AsRef<[f32]>, W: AsRef<[f32]>>(
        &self,
        compiled: &CompiledRecording,
        inputs: &[I],
        weights: &[W],
    ) -> Result<(), ReplayError> {
        let present = self.device_gpu.borrow().sku().gpu_id;
        if compiled.gpu_id != present {
            return Err(ReplayError::WrongSku {
                recorded: compiled.gpu_id,
                present,
            });
        }
        if inputs
            .iter()
            .any(|input| input.as_ref().len() != compiled.input.len_elems as usize)
        {
            return Err(ReplayError::BadInput);
        }
        Self::check_weights(&compiled.weights, weights)
    }

    /// Locks, resets, wipes and stages the device for a compiled walk, and
    /// installs the recording's fusion plan.
    fn stage_compiled<W: AsRef<[f32]>>(
        &mut self,
        compiled: &CompiledRecording,
        input: &[f32],
        weights: &[W],
    ) {
        self.lock_and_stage(&compiled.weights, weights, compiled.input, input);
        self.device_gpu
            .borrow_mut()
            .set_fusion_plan(compiled.fusion_plan().to_vec());
    }

    /// Executes one compiled op. No decoding, no validation of
    /// encoding-level invariants — [`compile_from_ir`] already established
    /// them.
    fn exec_op(&mut self, compiled: &CompiledRecording, op: &Op) -> Result<(), ReplayError> {
        self.clock.advance(COMPILED_EVENT_TIME);
        self.profile.events += 1;
        self.profile.overhead += COMPILED_EVENT_TIME;
        match op {
            Op::BeginLayer { .. } => {}
            Op::RegWrite { reg, value } => {
                self.device_gpu
                    .borrow_mut()
                    .write_reg(compiled.reg_offset(*reg), *value);
            }
            Op::RegRead { reg, value, verify } => {
                let offset = compiled.reg_offset(*reg);
                let got = self.device_gpu.borrow_mut().read_reg(offset);
                if *verify && got != *value {
                    return Err(ReplayError::VerifyMismatch {
                        offset,
                        expected: *value,
                        got,
                    });
                }
            }
            Op::Poll {
                reg,
                mask,
                cond,
                max_iters,
                delay_us,
            } => {
                let offset = compiled.reg_offset(*reg);
                let mut satisfied = false;
                for _ in 0..*max_iters {
                    let raw = self.device_gpu.borrow_mut().read_reg(offset);
                    if cond.satisfied(raw, *mask) {
                        satisfied = true;
                        break;
                    }
                    self.clock.advance(SimTime::from_micros(*delay_us as u64));
                }
                if !satisfied {
                    return Err(ReplayError::PollTimeout { reg: offset });
                }
            }
            Op::WaitIrq { line } => {
                let Some(at) = self.device_gpu.borrow_mut().next_irq_at(*line) else {
                    return Err(ReplayError::IrqHang);
                };
                self.clock.advance_to(at);
            }
            Op::LoadDelta { index } => {
                let d = compiled.delta(*index);
                // Same clamp as the interpreted path: the claimed region
                // length is bounded by the device's memory, and a delta
                // whose stated length exceeds that bound is corrupt *for
                // this device* even though it parsed at compile time.
                let len = (d.len as usize).min(self.device_mem.borrow().size());
                if d.parsed.new_len() > len {
                    return Err(ReplayError::CorruptDelta);
                }
                {
                    let mut mem = self.device_mem.borrow_mut();
                    for (page, xor) in d.parsed.pages() {
                        mem.xor_range(d.pa + u64::from(*page) * grt_gpu::PAGE_SIZE as u64, xor);
                    }
                }
                // Batched replay: metastate evolves identically across
                // lanes (the delta targets control pages, not per-input
                // data), so the same XOR lands on every lane the GPU holds.
                // The time is charged once per batch below — one stream of
                // pre-parsed pages fans out to all images.
                for lane in self.device_gpu.borrow().batch_lanes() {
                    let mut lmem = lane.borrow_mut();
                    for (page, xor) in d.parsed.pages() {
                        lmem.xor_range(d.pa + u64::from(*page) * grt_gpu::PAGE_SIZE as u64, xor);
                    }
                }
                // In-place XOR of pre-parsed pages streams at memory
                // bandwidth — ~4× the entropy decoder's byte rate.
                let xor_time = SimTime::from_nanos(d.parsed.changed_bytes() as u64 / 4);
                self.clock.advance(xor_time);
                self.profile.overhead += xor_time;
            }
        }
        Ok(())
    }

    /// Detaches any fusion plan and batch lanes, resets the GPU and
    /// releases it to the normal world.
    fn cleanup(&mut self) {
        let mut gpu = self.device_gpu.borrow_mut();
        gpu.take_fusion_plan();
        gpu.take_batch_lanes();
        gpu.hard_reset_now();
        drop(gpu);
        self.tzasc
            .release(crate::client::GPU_MMIO_BASE, crate::client::GPU_MMIO_LEN);
    }

    /// Begins an incremental, layer-at-a-time replay of a compiled
    /// recording — Figure 2's composable recording granularity: the app
    /// may interleave its own CPU work (e.g. pre/post-processing, early
    /// exit) between layers.
    ///
    /// The checks, injection, GPU lockdown and fusion-plan install of
    /// [`Replayer::replay_compiled`] happen here; drive the layers with
    /// [`LayeredReplay::replay_layer`] and collect the output with
    /// [`LayeredReplay::finish`]. Fusion elides only kbase register
    /// dialogs, and compilation keeps every layer marker in a kept range,
    /// so the walk yields every layer.
    pub fn begin_layered<'r, W: AsRef<[f32]>>(
        &'r mut self,
        compiled: &'r CompiledRecording,
        input: &[f32],
        weights: &[W],
    ) -> Result<LayeredReplay<'r>, ReplayError> {
        self.check_compiled(compiled, &[input], weights)?;
        self.profile = ReplayProfile::default();
        self.stage_compiled(compiled, input, weights);
        let walk: Box<dyn Iterator<Item = &'r Op> + 'r> = Box::new(compiled.kept_ops());
        Ok(LayeredReplay {
            replayer: self,
            compiled,
            walk: walk.peekable(),
        })
    }
}

/// Decodes little-endian f32 output bytes.
fn f32s(raw: &[u8]) -> Vec<f32> {
    raw.chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

/// An in-progress layer-at-a-time replay (see
/// [`Replayer::begin_layered`]).
pub struct LayeredReplay<'r> {
    replayer: &'r mut Replayer,
    compiled: &'r CompiledRecording,
    /// The kept ops still to run, in order.
    walk: std::iter::Peekable<Box<dyn Iterator<Item = &'r Op> + 'r>>,
}

impl LayeredReplay<'_> {
    /// Number of layers in the recording.
    pub fn layer_count(&self) -> usize {
        self.compiled
            .ops()
            .iter()
            .filter(|op| matches!(op, Op::BeginLayer { .. }))
            .count()
    }

    /// Replays the next layer's ops: from its `BeginLayer` marker (or the
    /// start, for setup ops before the first marker) up to the next
    /// marker. Returns the layer index replayed, or `None` when every
    /// layer has completed or the walk has failed.
    pub fn replay_layer(&mut self) -> Result<Option<u32>, ReplayError> {
        let mut layer = None;
        while let Some(op) = self
            .walk
            .next_if(|op| layer.is_none() || !matches!(op, Op::BeginLayer { .. }))
        {
            if let Op::BeginLayer { index } = *op {
                layer = Some(index);
            }
            if let Err(e) = self.replayer.exec_op(self.compiled, op) {
                // Drain the walk so later calls report completion.
                for _ in self.walk.by_ref() {}
                self.replayer.cleanup();
                return Err(e);
            }
        }
        Ok(layer)
    }

    /// Reads the output and scrubs hardware state.
    ///
    /// Valid once [`LayeredReplay::replay_layer`] has returned `None` (or
    /// earlier, for apps that only need a prefix of the network).
    pub fn finish(self) -> Vec<f32> {
        let out = self.compiled.output;
        let raw = self
            .replayer
            .device_mem
            .borrow()
            .dump_range(out.pa, out.len_elems as usize * 4);
        self.replayer.cleanup();
        f32s(&raw)
    }
}

impl std::fmt::Debug for LayeredReplay<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LayeredReplay")
            .field("workload", &self.compiled.workload)
            .finish()
    }
}

impl std::fmt::Debug for Replayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replayer").finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{RecordSession, RecorderMode};
    use grt_gpu::GpuSku;
    use grt_ml::reference::{test_input, ReferenceNet};
    use grt_net::NetConditions;

    fn close(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| (x - y).abs() < 1e-3 * (1.0 + x.abs().max(y.abs())))
    }

    fn record_mnist(mode: RecorderMode) -> (RecordSession, crate::session::RecordOutcome) {
        let mut s = RecordSession::new(GpuSku::mali_g71_mp8(), NetConditions::wifi(), mode);
        let spec = grt_ml::zoo::mnist();
        let out = s.record(&spec).unwrap();
        (s, out)
    }

    /// Unit tests exercise replay mechanics below the gate; the real
    /// grt-lint gate (a dev-dependency) is covered by this crate's
    /// integration tests (`tests/lint_gate.rs`), where the dependency
    /// cycle resolves to a single build of the crate.
    fn permissive() -> Rc<dyn crate::gate::RecordingGate> {
        Rc::new(crate::gate::PermissiveGate)
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
        let other = crate::session::ClientDevice::new(GpuSku::mali_g71_mp4(), &clock, &stats, b"x");
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
            .owner_of(crate::client::GPU_MMIO_BASE)
            .is_none());
    }

    #[test]
    fn compiled_replay_matches_interpreted_bit_for_bit() {
        let (s, out) = record_mnist(RecorderMode::OursMDS);
        let spec = grt_ml::zoo::mnist();
        let key = s.recording_key();
        let mut replayer = Replayer::new(&s.client, permissive());
        let weights = workload_weights(&spec);
        let compiled = replayer.compile_signed(&out.recording, &key).unwrap();
        for variant in [3, 7] {
            let input = test_input(&spec, variant);
            let (interp, _) = replayer
                .replay(&out.recording, &key, &input, &weights)
                .unwrap();
            let interp_events = replayer.last_profile().events;
            let (fast, _) = replayer
                .replay_compiled(&compiled, &input, &weights)
                .unwrap();
            let fast_profile = replayer.last_profile();
            assert_eq!(
                interp.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                fast.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "variant {variant}"
            );
            // Fusion elides whole dialog windows from the compiled walk,
            // so it may execute strictly fewer ops than the interpreted
            // path has events — never more.
            assert!(fast_profile.events <= interp_events);
            assert_eq!(fast_profile.delta_wire_bytes, 0);
        }
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
        let other = crate::session::ClientDevice::new(GpuSku::mali_g71_mp4(), &clock, &stats, b"x");
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
        let other = crate::session::ClientDevice::new(GpuSku::mali_g71_mp4(), &clock, &stats, b"x");
        let mut other_replayer = Replayer::new(&other, permissive());
        assert!(matches!(
            other_replayer.replay_compiled(
                &compiled,
                &test_input(&spec, 0),
                &workload_weights(&spec)
            ),
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
        assert!(interp.verify(crate::session::PROVISIONING_SECRET));
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
        assert!(fast.verify(crate::session::PROVISIONING_SECRET));

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
}
