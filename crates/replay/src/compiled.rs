//! Compiled recordings: the one form every replay runs (DESIGN.md §9).
//!
//! Replay is GR-T's steady state — a recording is made once and replayed
//! many times with fresh inputs (§2, §5). A [`CompiledRecording`] is
//! lowered from the lifted recording exactly once, at load time:
//!
//! - the event stream becomes a flat arena of fixed-shape [`Op`]s with all
//!   encoding-level validation (poll condition codes, IRQ line bytes,
//!   iteration budgets) already performed — a compiled op cannot be
//!   malformed;
//! - memory deltas are decompressed and structurally validated into
//!   [`grt_compress::ParsedDelta`] page lists, applied at replay by
//!   in-place XOR — no per-replay decompression, no full-region dump and
//!   restore.
//!
//! Deltas are *not* pre-applied to absolute bytes: a delta against a
//! GPU-writable region decodes against whatever the GPU wrote since the
//! previous delta, so only the (content-independent) parse is hoisted;
//! the XOR itself still happens against live memory at replay time.
//!
//! The replayer has one executor over this arena. One-shot replay
//! (`Replayer::replay`) lowers with fusion off and walks every op at the
//! interpreted prices; warm replay (`Replayer::compile_signed`, then
//! `replay_compiled*`) lowers once with fusion on and walks the kept ops at
//! the compiled prices. Every encoding-level check on content fixed at
//! signing time happens here, before any MMIO; the checks on content that
//! depends on the device happen in the walk. The `grt-lint` R1–R9 verdict
//! attaches to the lift, which the arena reproduces step for step, so a
//! vetted recording's verdict carries over to its compiled form.
//!
//! Lowering consumes the [`grt_ir::IrProgram`] lifted by
//! [`grt_ir::lift_recording`] instead of re-decoding the event stream
//! itself: the typed [`grt_ir::program::Step`] arena maps 1:1 onto
//! [`Op`]s, and the deltas the lifter already parsed move into the
//! compiled delta arena without a second wire-format walk. The same lift
//! feeds `grt-lint`, so the vetted semantics and the replayed semantics
//! are one decode, not two.

use grt_compress::ParsedDelta;
use grt_gpu::{FusedDirective, IrqLine, PollCond};
use grt_ir::gate::REPLAY_POLL_ITER_CAP;
use grt_ir::program::Step;
use grt_ir::recording::{irq_line_from, DataSlot};
use grt_ir::{FusionSummary, IrProgram};

/// A compile-time rejection: the recording's events carry a field outside
/// its defined encoding, or a delta fails structural validation.
/// Compilation reports them once, before any replay touches the GPU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// An event field is outside its defined encoding.
    MalformedEvent {
        /// Which event field was malformed.
        field: &'static str,
        /// The offending value.
        value: u32,
    },
    /// A metastate delta failed to decompress or validate.
    CorruptDelta {
        /// Index of the offending event in the recording.
        event_index: usize,
    },
    /// A lowering was asked to clamp polls to a cap other than
    /// [`REPLAY_POLL_ITER_CAP`], the one cap the replayer enforces.
    PollCap {
        /// The cap asked for.
        cap: u32,
    },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::MalformedEvent { field, value } => {
                write!(f, "malformed event: {field} = {value:#x}")
            }
            CompileError::CorruptDelta { event_index } => {
                write!(f, "corrupt metastate delta at event {event_index}")
            }
            CompileError::PollCap { cap } => {
                write!(f, "poll cap {cap} is not {REPLAY_POLL_ITER_CAP}")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// One lowered event. Fixed shape, fully validated: the compiled executor
/// never decodes or rejects anything encoding-level.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A layer boundary.
    BeginLayer {
        /// Index into the workload's layer list.
        index: u32,
    },
    /// A register write.
    RegWrite {
        /// MMIO register offset.
        offset: u32,
        /// Value to write.
        value: u32,
    },
    /// A register read, optionally verified against the recorded value.
    RegRead {
        /// MMIO register offset.
        offset: u32,
        /// Value observed at record time.
        value: u32,
        /// Whether the replayer must check the value.
        verify: bool,
    },
    /// A bounded polling loop; the condition is pre-decoded and the
    /// iteration budget pre-clamped to the replayer's hard cap.
    Poll {
        /// MMIO register offset.
        reg: u32,
        /// Mask applied before the comparison.
        mask: u32,
        /// Pre-decoded exit condition.
        cond: PollCond,
        /// Iteration budget (> 0, already capped).
        max_iters: u32,
        /// Per-iteration delay in µs.
        delay_us: u32,
    },
    /// Wait for an interrupt on a pre-decoded line.
    WaitIrq {
        /// The interrupt line.
        line: IrqLine,
    },
    /// Apply the pre-parsed delta at `index` in the delta arena.
    LoadDelta {
        /// Index into [`CompiledRecording::delta`].
        index: u32,
    },
}

/// A pre-validated metastate delta, ready for in-place application.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedDelta {
    /// Physical base of the region.
    pub pa: u64,
    /// Region length claimed by the event, in bytes.
    pub len: u32,
    /// Decompressed, structurally validated page list.
    pub parsed: ParsedDelta,
    /// Size of the original wire-format delta in bytes (for accounting).
    pub wire_len: u32,
}

/// A recording lowered once for fast repeated replay.
///
/// Everything the replayer needs is pre-resolved; warm replays walk the
/// flat op arena without touching the recording's wire format again.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledRecording {
    /// Workload name.
    pub workload: String,
    /// GPU_ID of the SKU this was recorded against.
    pub gpu_id: u32,
    /// Where to inject inference input.
    pub input: DataSlot,
    /// Where the output appears.
    pub output: DataSlot,
    /// Weight/bias slots in layer order.
    pub weights: Vec<DataSlot>,
    /// The flat op arena, one op per recording event, in order.
    ops: Vec<Op>,
    /// Side arena of pre-parsed deltas, referenced by `Op::LoadDelta`.
    deltas: Vec<PreparedDelta>,
    /// Total wire-format bytes of all deltas (decompression the compiled
    /// path pays once instead of per replay).
    delta_wire_bytes: u64,
    /// SHA-256 over the signed recording bytes this was lowered from;
    /// replay receipts carry it so the audit chain survives compilation.
    recording_digest: [u8; 32],
    /// Fused-execution directives keyed by head descriptor VA, handed to
    /// the GPU model before the warm walk (DESIGN.md §15).
    fusion_plan: Vec<(u64, FusedDirective)>,
    /// Half-open op-index ranges the warm walk executes; the gaps are the
    /// elided dialog windows of fused tails and identity copies.
    kept: Vec<(u32, u32)>,
    /// Roll-up of what fusion removed, surfaced in `ReplayProfile`.
    fusion_summary: FusionSummary,
}

impl CompiledRecording {
    /// The flat op arena, one op per recording event.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// The pre-parsed delta at `index` (see [`Op::LoadDelta`]).
    #[inline]
    pub fn delta(&self, index: u32) -> &PreparedDelta {
        &self.deltas[index as usize]
    }

    /// Number of ops (equals the recording's event count).
    pub fn num_events(&self) -> u64 {
        self.ops.len() as u64
    }

    /// Total wire-format delta bytes decompressed at compile time.
    pub fn delta_wire_bytes(&self) -> u64 {
        self.delta_wire_bytes
    }

    /// SHA-256 over the signed bytes of the source recording — the digest
    /// receipts, provenance records and `SET_PROVENANCE` all bind to.
    pub fn recording_digest(&self) -> [u8; 32] {
        self.recording_digest
    }

    /// Fused-execution directives, keyed by head descriptor VA, for
    /// [`grt_gpu::Gpu::set_fusion_plan`].
    pub fn fusion_plan(&self) -> &[(u64, FusedDirective)] {
        &self.fusion_plan
    }

    /// Half-open op-index ranges the warm replay walk executes. Always
    /// covers the whole arena when fusion found nothing.
    pub fn kept_ranges(&self) -> &[(u32, u32)] {
        &self.kept
    }

    /// The ops the warm walk executes: the kept ranges, in order. The gaps
    /// between ranges are the dialog windows of fused tails and elided
    /// identity copies; their polls, interrupt waits, and MMU flushes are
    /// never issued, which is where the fusion speedup comes from (the
    /// fused work itself runs inside the head's job via
    /// [`CompiledRecording::fusion_plan`]).
    pub fn kept_ops(&self) -> impl Iterator<Item = &Op> {
        self.kept
            .iter()
            .flat_map(|&(s, e)| &self.ops[s as usize..e as usize])
    }

    /// Roll-up of what fusion removed from the warm path.
    pub fn fusion_summary(&self) -> FusionSummary {
        self.fusion_summary
    }
}

/// Decodes a recorded poll's condition code and iteration budget — the
/// one decoder this compiler and the debug audit share. `Err` names the
/// malformed field and its value: a condition code outside the three
/// defined ones (lint R3 flags the same code), or a zero budget, which can
/// never succeed.
pub fn decode_poll(cond: u8, cmp: u32, max_iters: u32) -> Result<PollCond, (&'static str, u32)> {
    let cond = match cond {
        0 => PollCond::MaskedZero,
        1 => PollCond::MaskedNonZero,
        2 => PollCond::MaskedEq(cmp),
        _ => return Err(("poll.cond", u32::from(cond))),
    };
    if max_iters == 0 {
        return Err(("poll.max_iters", 0));
    }
    Ok(cond)
}

/// Upper bound on batched-replay width, checked by
/// [`crate::replay::Replayer::replay_compiled_batch`] and the `RUN_BATCH`
/// command. Each extra lane forks the pages of the device's memory image
/// that staging touched, which a recording can make most of the carveout,
/// so the bound keeps a hostile `RUN_BATCH` from driving unbounded
/// allocation inside the TA.
pub const MAX_BATCH: usize = 64;

/// Lowers a vetted lift into its compiled form, consuming the IR's parsed
/// deltas so the wire format is walked exactly once end-to-end.
///
/// `recording_digest` is the SHA-256 of the signed recording bytes `ir`
/// was lifted from — callers hold those bytes, so the lowering never
/// re-serializes the recording to hash it. `fuse: false` produces the
/// event-for-event lowering (full arena, no directives): the form one-shot
/// replay walks. Poll budgets are clamped to
/// [`REPLAY_POLL_ITER_CAP`] here, so the executor's loop bound is a plain
/// field read.
///
/// # Errors
///
/// [`CompileError`] on unknown poll condition codes, zero iteration
/// budgets, out-of-range IRQ line bytes, deltas that failed
/// [`grt_compress::DeltaCodec::parse_limited`] in the lift against the
/// region length the event claims.
pub fn lower(
    mut ir: IrProgram,
    recording_digest: [u8; 32],
    fuse: bool,
) -> Result<CompiledRecording, CompileError> {
    // Fusion analysis runs over the intact IR, before lowering consumes
    // the parsed deltas below.
    let fusion = if fuse {
        grt_ir::fusion::analyze(&ir)
    } else {
        grt_ir::FusionPlan::default()
    };
    let mut ops = Vec::with_capacity(ir.steps.len());
    let mut deltas = Vec::new();
    let mut delta_wire_bytes = 0u64;
    for step in &ir.steps {
        let op = match *step {
            Step::BeginLayer { index } => Op::BeginLayer { index },
            Step::RegWrite { offset, value, .. } => Op::RegWrite { offset, value },
            Step::RegRead {
                offset,
                value,
                verify,
            } => Op::RegRead {
                offset,
                value,
                verify,
            },
            Step::Poll {
                reg,
                mask,
                cond,
                cmp,
                max_iters,
                delay_us,
            } => {
                let cond = decode_poll(cond, cmp, max_iters)
                    .map_err(|(field, value)| CompileError::MalformedEvent { field, value })?;
                Op::Poll {
                    reg,
                    mask,
                    cond,
                    max_iters: max_iters.min(REPLAY_POLL_ITER_CAP),
                    delay_us,
                }
            }
            Step::WaitIrq { line } => Op::WaitIrq {
                line: irq_line_from(line).ok_or(CompileError::MalformedEvent {
                    field: "wait_irq.line",
                    value: line as u32,
                })?,
            },
            Step::LoadDelta { index } => {
                let d = &mut ir.deltas[index as usize];
                let parsed = d.parsed.take().ok_or(CompileError::CorruptDelta {
                    event_index: d.event,
                })?;
                delta_wire_bytes += d.wire_len as u64;
                let arena_index = deltas.len() as u32;
                deltas.push(PreparedDelta {
                    pa: d.pa,
                    len: d.len,
                    parsed,
                    wire_len: d.wire_len as u32,
                });
                Op::LoadDelta { index: arena_index }
            }
        };
        ops.push(op);
    }
    // Lower the analysis's elided windows to kept op ranges. The pass
    // guarantees the windows are sorted, disjoint, in bounds, and free of
    // deltas and layer markers (they are pure kbase register dialogs);
    // anything else would change replay semantics or hide a layer from
    // layered replay, so a violation here drops fusion entirely rather
    // than trusting the plan.
    let mut kept: Vec<(u32, u32)> = Vec::new();
    let mut cursor = 0usize;
    let mut sound = true;
    for &(s, e) in &fusion.elided {
        if s < cursor || e < s || e > ops.len() {
            sound = false;
            break;
        }
        if ops[s..e]
            .iter()
            .any(|op| matches!(op, Op::LoadDelta { .. } | Op::BeginLayer { .. }))
        {
            sound = false;
            break;
        }
        if s > cursor {
            kept.push((cursor as u32, s as u32));
        }
        cursor = e;
    }
    let (fusion_plan, fusion_summary) = if sound {
        if cursor < ops.len() {
            kept.push((cursor as u32, ops.len() as u32));
        }
        (fusion.directives, fusion.summary)
    } else {
        kept = vec![(0, ops.len() as u32)];
        (Vec::new(), FusionSummary::default())
    };
    Ok(CompiledRecording {
        workload: ir.workload,
        gpu_id: ir.gpu_id,
        input: ir.input,
        output: ir.output,
        weights: ir.weights,
        ops,
        deltas,
        delta_wire_bytes,
        recording_digest,
        fusion_plan,
        kept,
        fusion_summary,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use grt_ir::recording::{Event, Recording};

    /// Lifts `rec` under quirk 0 and lowers the lift, fusion on.
    fn compile(rec: &Recording) -> Result<CompiledRecording, CompileError> {
        lower(grt_ir::lift_recording(rec, 0), [0; 32], true)
    }

    fn base_recording(events: Vec<Event>) -> Recording {
        Recording {
            workload: "t".into(),
            gpu_id: 1,
            input: DataSlot {
                pa: 0,
                len_elems: 1,
            },
            output: DataSlot {
                pa: 8,
                len_elems: 1,
            },
            weights: vec![],
            events,
        }
    }

    #[test]
    fn malformed_poll_cond_rejected_at_compile_time() {
        let rec = base_recording(vec![Event::Poll {
            reg: 0x30,
            mask: 1,
            cond: 7,
            cmp: 0,
            max_iters: 10,
            delay_us: 1,
        }]);
        assert_eq!(
            compile(&rec).unwrap_err(),
            CompileError::MalformedEvent {
                field: "poll.cond",
                value: 7
            }
        );
    }

    #[test]
    fn zero_iteration_poll_rejected_at_compile_time() {
        let rec = base_recording(vec![Event::Poll {
            reg: 0x30,
            mask: 1,
            cond: 0,
            cmp: 0,
            max_iters: 0,
            delay_us: 1,
        }]);
        assert!(matches!(
            compile(&rec),
            Err(CompileError::MalformedEvent {
                field: "poll.max_iters",
                ..
            })
        ));
    }

    #[test]
    fn bad_irq_line_rejected_at_compile_time() {
        let rec = base_recording(vec![Event::WaitIrq { line: 9 }]);
        assert_eq!(
            compile(&rec).unwrap_err(),
            CompileError::MalformedEvent {
                field: "wait_irq.line",
                value: 9
            }
        );
    }

    #[test]
    fn corrupt_delta_rejected_at_compile_time() {
        let rec = base_recording(vec![Event::LoadMemDelta {
            pa: 0x1000,
            len: 4096,
            delta: vec![1, 2, 3],
        }]);
        assert_eq!(
            compile(&rec).unwrap_err(),
            CompileError::CorruptDelta { event_index: 0 }
        );
    }

    #[test]
    fn poll_budget_is_pre_clamped() {
        let rec = base_recording(vec![Event::Poll {
            reg: 0x30,
            mask: 1,
            cond: 1,
            cmp: 0,
            max_iters: u32::MAX,
            delay_us: 1,
        }]);
        let c = compile(&rec).unwrap();
        let Op::Poll { max_iters, .. } = &c.ops()[0] else {
            panic!();
        };
        assert_eq!(*max_iters, REPLAY_POLL_ITER_CAP);
    }
}
