//! The in-TEE replayer (§2.3, §3.2).
//!
//! The replayer is deliberately tiny: it holds no GPU stack, no JIT, no
//! driver — it verifies the recording's signature and SKU, vets one lift
//! of it through the recording gate, lowers that lift into a flat op arena
//! ([`crate::compiled`]), injects the app's real input and model
//! parameters into the recorded slots, and walks the arena: register
//! writes go to the hardware, deterministic reads are checked, polls and
//! interrupt waits pace execution, memory deltas rebuild the metastate.
//! Before and after a replay the GPU is reset, and while it runs the TEE
//! holds the GPU ([`crate::client::take_gpu`]).
//!
//! There is one walk. One-shot [`Replayer::replay`] lowers with fusion off
//! and charges the interpreted prices; warm [`Replayer::replay_compiled`],
//! [`Replayer::replay_compiled_batch`] and [`Replayer::begin_layered`] walk
//! a recording lowered once by [`Replayer::compile_signed`] and charge the
//! compiled prices (DESIGN.md §9). The prices are the only difference.

use crate::client::{give_back_gpu, take_gpu, ClientDevice, PROVISIONING_SECRET};
use crate::compiled::{lower, CompileError, CompiledRecording, Op, PreparedDelta, MAX_BATCH};
use grt_attest::{ReceiptCounters, ReplayReceipt};
use grt_crypto::{KeyPair, Sha256};
use grt_ir::gate::RecordingGate;
use grt_ir::recording::{DataSlot, SignedRecording};
use grt_sim::SimTime;
use std::cell::RefCell;
use std::rc::Rc;

/// What one walk over the op arena charges the virtual clock: the
/// replayer's own per-op overhead and the price of each metastate delta.
/// Hardware waits (polls, interrupts, GPU execution) cost the same under
/// both tables.
struct PriceTable {
    /// Per-op replayer overhead.
    op: SimTime,
    /// Whether a delta is priced as a wire-format decode (one ns per wire
    /// byte, the bytes counted in [`ReplayProfile::delta_wire_bytes`])
    /// rather than as an in-place XOR of pre-parsed pages.
    decodes_deltas: bool,
}

impl PriceTable {
    /// Clock time of applying `d`.
    fn delta(&self, d: &PreparedDelta) -> SimTime {
        if self.decodes_deltas {
            // Decompression: ~1 µs per KiB of wire format.
            SimTime::from_nanos(u64::from(d.wire_len))
        } else {
            // In-place XOR of pre-parsed pages streams at memory
            // bandwidth — ~4× the entropy decoder's byte rate.
            SimTime::from_nanos(d.parsed.changed_bytes() as u64 / 4)
        }
    }
}

/// [`Replayer::replay`]: every event is decoded from the wire format, its
/// offset resolved and its MMIO issued, and every delta decompressed.
const INTERPRETED: PriceTable = PriceTable {
    op: SimTime::from_nanos(1500),
    decodes_deltas: true,
};

/// The warm paths: the op is pre-decoded and pre-validated, its register
/// offset a dense table read, so only the MMIO issue itself remains, and
/// deltas were decompressed at compile time.
const COMPILED: PriceTable = PriceTable {
    op: SimTime::from_nanos(250),
    decodes_deltas: false,
};

/// One-time per-event cost of lowering a recording into its compiled form
/// (decode + validate + intern), charged in [`Replayer::compile_signed`].
const COMPILE_EVENT_TIME: SimTime = SimTime::from_nanos(300);

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
        /// The violated rule ("R1".."R9").
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

/// Cost breakdown of the most recent replay (one-shot or warm).
///
/// `overhead` isolates the replayer's own work — per-op decode and issue,
/// delta handling — from hardware waits (polls, interrupts, GPU
/// execution), which dominate `total` and are identical under both price
/// tables. Throughput comparisons between the paths are only meaningful
/// over `overhead`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayProfile {
    /// Events (or compiled ops) executed.
    pub events: u64,
    /// Replayer-overhead time: per-event decode/issue plus delta work.
    pub overhead: SimTime,
    /// End-to-end replay latency, including hardware waits.
    pub total: SimTime,
    /// Wire-format delta bytes charged as decompressed during the replay
    /// (zero on the warm paths — decompression happened once at compile
    /// time).
    pub delta_wire_bytes: u64,
    /// Execution fast-path counters accumulated inside the GPU during
    /// this replay: software-TLB hits/misses and the per-op-kind
    /// events/MACs/time breakdown (see [`grt_gpu::ExecStats`]).
    pub exec: grt_gpu::ExecStats,
    /// What superinstruction fusion removed from this replay's warm walk
    /// (all zero for one-shot replay and other unfused compilations).
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

/// The replayer, bound to a client device and a recording gate.
pub struct Replayer {
    device_gpu: Rc<RefCell<grt_gpu::Gpu>>,
    device_mem: Rc<RefCell<grt_gpu::Memory>>,
    clock: Rc<grt_sim::Clock>,
    tzasc: Rc<grt_tee::Tzasc>,
    monitor: Rc<grt_tee::SecureMonitor>,
    gate: Rc<dyn RecordingGate>,
    profile: ReplayProfile,
    /// Digest of the provenance record replays chain their receipts to;
    /// `None` until the host attaches one (receipts then carry an all-zero
    /// chain field and fail offline chain verification by design).
    provenance_digest: Option<[u8; 32]>,
    /// Receipt of the most recent successful replay.
    last_receipt: Option<ReplayReceipt>,
    /// Reused f32 → wire staging buffer for batch input lanes.
    upload: grt_gpu::UploadScratch,
}

impl Replayer {
    /// Creates a replayer over the client device's hardware.
    ///
    /// Every recording must pass `gate` before a single event executes.
    /// Production callers pass the `grt-lint` analyzer
    /// (`Rc::new(grt_lint::Linter::new())`); tests that deliberately need
    /// a known-bad recording past static analysis to exercise runtime
    /// defenses pass [`grt_ir::gate::PermissiveGate`].
    pub fn new(device: &ClientDevice, gate: Rc<dyn RecordingGate>) -> Self {
        Replayer {
            device_gpu: Rc::clone(&device.gpu),
            device_mem: Rc::clone(&device.mem),
            clock: Rc::clone(&device.clock),
            tzasc: Rc::clone(&device.tzasc),
            monitor: Rc::clone(&device.monitor),
            gate,
            profile: ReplayProfile::default(),
            provenance_digest: None,
            last_receipt: None,
            upload: grt_gpu::UploadScratch::default(),
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
            PROVISIONING_SECRET,
        ));
    }

    /// The load-time trust pipeline, in order: signature, SKU match, one
    /// lift to the semantics IR under the present GPU's PTE quirk, the
    /// gate's whole-recording static analysis over that lift (which the
    /// runtime checks then only have to complement), and the lowering of
    /// exactly that lift. Nothing here touches the GPU: a recording refused
    /// at load leaves the device and its clock as they were.
    fn load(
        &self,
        signed: &SignedRecording,
        key: &KeyPair,
        fuse: bool,
    ) -> Result<CompiledRecording, ReplayError> {
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
        let ir = grt_ir::lift_recording(&rec, sku.pte_quirk);
        self.gate
            .vet(&ir, &sku)
            .map_err(|r| ReplayError::Rejected {
                rule: r.rule,
                message: r.message,
            })?;
        lower(ir, Sha256::digest(&signed.bytes), fuse).map_err(|e| match e {
            CompileError::MalformedEvent { field, value } => {
                ReplayError::MalformedEvent { field, value }
            }
            CompileError::CorruptDelta { .. } => ReplayError::CorruptDelta,
            CompileError::TooManyRegisters | CompileError::PollCap { .. } => {
                ReplayError::BadRecording
            }
        })
    }

    /// Replays a signed recording with fresh `input` and `weights`,
    /// returning the inference output and the replay delay (Table 2).
    ///
    /// One-shot replay: [`Replayer::compile_signed`]'s load with fusion
    /// off, then the warm walk over every op, charged at the interpreted
    /// prices (each event decoded and each delta decompressed per run).
    pub fn replay<W: AsRef<[f32]>>(
        &mut self,
        signed: &SignedRecording,
        key: &KeyPair,
        input: &[f32],
        weights: &[W],
    ) -> Result<(Vec<f32>, SimTime), ReplayError> {
        let compiled = self.load(signed, key, false)?;
        let (mut outs, total) = self.walk(&compiled, &[input], weights, &INTERPRETED)?;
        Ok((outs.swap_remove(0), total))
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
        let compiled = self.load(signed, key, true)?;
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
    /// Output-for-output equivalent to [`Replayer::replay`] on the
    /// recording the compiled form was lowered from, without re-parsing,
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
    /// `1..=MAX_BATCH` inputs (DESIGN.md §14), at the compiled prices.
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
        self.walk(compiled, inputs, weights, &COMPILED)
    }

    /// The one replay walk: checks, staging, lane forks, the kept ops
    /// charged at `prices`, the batch commit and the receipt.
    fn walk<I: AsRef<[f32]>, W: AsRef<[f32]>>(
        &mut self,
        compiled: &CompiledRecording,
        inputs: &[I],
        weights: &[W],
        prices: &PriceTable,
    ) -> Result<(Vec<Vec<f32>>, SimTime), ReplayError> {
        if !(1..=MAX_BATCH).contains(&inputs.len()) {
            return Err(ReplayError::BadInput);
        }
        self.check_compiled(compiled, inputs, weights)?;

        self.profile = ReplayProfile::default();
        let t0 = self.clock.now();
        let exec0 = self.device_gpu.borrow().exec_stats();
        self.stage(compiled, inputs[0].as_ref(), weights);
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
            .try_for_each(|op| self.exec_op(compiled, op, prices))
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
        let misfit = |slot: &DataSlot, data: &[f32]| data.len() != slot.len_elems as usize;
        if inputs
            .iter()
            .any(|input| misfit(&compiled.input, input.as_ref()))
            || weights.len() != compiled.weights.len()
            || compiled
                .weights
                .iter()
                .zip(weights)
                .any(|(slot, w)| misfit(slot, w.as_ref()))
        {
            return Err(ReplayError::BadInput);
        }
        Ok(())
    }

    /// Takes and resets the GPU and scrubs protected memory (§3.2),
    /// injects the real parameters and input into the recorded slots, and
    /// installs the recording's fusion plan.
    fn stage<W: AsRef<[f32]>>(
        &mut self,
        compiled: &CompiledRecording,
        input: &[f32],
        weights: &[W],
    ) {
        take_gpu(&self.tzasc, &self.monitor);
        let mut gpu = self.device_gpu.borrow_mut();
        gpu.hard_reset_now();
        gpu.set_fusion_plan(compiled.fusion_plan().to_vec());
        drop(gpu);
        let mut mem = self.device_mem.borrow_mut();
        mem.wipe();
        for (slot, w) in compiled.weights.iter().zip(weights) {
            mem.restore_range(slot.pa, self.upload.stage(w.as_ref()));
        }
        mem.restore_range(compiled.input.pa, self.upload.stage(input));
    }

    /// Executes one compiled op, charged at `prices`. No decoding, no
    /// validation of encoding-level invariants — [`lower`] already
    /// established them.
    fn exec_op(
        &mut self,
        compiled: &CompiledRecording,
        op: &Op,
        prices: &PriceTable,
    ) -> Result<(), ReplayError> {
        self.clock.advance(prices.op);
        self.profile.events += 1;
        self.profile.overhead += prices.op;
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
                // The claimed region length is bounded by the device's
                // memory, and a delta whose stated length exceeds that
                // bound is corrupt *for this device* even though it parsed
                // at compile time.
                let len = (d.len as usize).min(self.device_mem.borrow().size());
                if d.parsed.new_len() > len {
                    return Err(ReplayError::CorruptDelta);
                }
                {
                    let mut mem = self.device_mem.borrow_mut();
                    for (page, xor) in d.parsed.pages() {
                        mem.xor_range(d.pa + u64::from(page) * grt_gpu::PAGE_SIZE as u64, xor);
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
                        lmem.xor_range(d.pa + u64::from(page) * grt_gpu::PAGE_SIZE as u64, xor);
                    }
                }
                let time = prices.delta(d);
                self.clock.advance(time);
                self.profile.overhead += time;
                if prices.decodes_deltas {
                    self.profile.delta_wire_bytes += u64::from(d.wire_len);
                }
            }
        }
        Ok(())
    }

    /// Detaches any fusion plan and batch lanes and gives the GPU back to
    /// the normal world.
    fn cleanup(&mut self) {
        let mut gpu = self.device_gpu.borrow_mut();
        gpu.take_fusion_plan();
        gpu.take_batch_lanes();
        drop(gpu);
        give_back_gpu(&self.device_gpu, &self.tzasc, &self.monitor);
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
        self.stage(compiled, input, weights);
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
            if let Err(e) = self.replayer.exec_op(self.compiled, op, &COMPILED) {
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
