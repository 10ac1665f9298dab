//! The typed semantics IR: what a recording *means*, lifted once.
//!
//! A recording is a straight-line program over three layers of machine
//! state — MMIO registers, carveout memory deltas, and the shader programs
//! those deltas install. The lifter (`crate::lift`) decodes all three
//! layers into the types here: every event becomes a [`Step`], every
//! `JS_COMMAND = START` becomes a [`JobChain`] whose descriptors and
//! shader instructions are fully decoded, with each instruction's operand
//! tensors resolved through the page tables the GPU would walk. Analyses
//! (grt-lint's R1–R9) and the compiled replay path both consume this IR
//! instead of re-deriving it from bytes.

use grt_compress::ParsedDelta;
use grt_gpu::job::JobDescriptor;
use grt_gpu::regs::{job_control as jc, mmu_control as mc};
use grt_gpu::shader::{OpKind, ShaderOp};
use std::fmt;
use std::rc::Rc;

use crate::recording::DataSlot;
use crate::shadow::WalkSummary;

/// Which register block an MMIO offset falls in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegClass {
    /// GPU control / job-manager global registers (not in a window).
    GpuCtrl,
    /// Job-slot window: `(slot, register-within-window)`.
    JobSlot {
        /// Slot index (0..16).
        slot: u32,
        /// Register offset within the slot window.
        reg: u32,
    },
    /// Address-space window: `(asn, register-within-window)`.
    AsWindow {
        /// Address-space index (0..16).
        asn: u32,
        /// Register offset within the AS window.
        reg: u32,
    },
}

impl RegClass {
    /// Classifies a raw MMIO offset.
    pub fn classify(offset: u32) -> RegClass {
        if (jc::slot_base(0)..jc::slot_base(16)).contains(&offset) {
            let rel = offset - jc::slot_base(0);
            let span = jc::slot_base(1) - jc::slot_base(0);
            return RegClass::JobSlot {
                slot: rel / span,
                reg: rel % span,
            };
        }
        if (mc::as_base(0)..mc::as_base(16)).contains(&offset) {
            let rel = offset - mc::as_base(0);
            let span = mc::as_base(1) - mc::as_base(0);
            return RegClass::AsWindow {
                asn: rel / span,
                reg: rel % span,
            };
        }
        RegClass::GpuCtrl
    }
}

/// One lifted event. Steps are index-aligned with the recording's event
/// stream: `steps[i]` is the lift of `events[i]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Layer marker.
    BeginLayer {
        /// Recorded layer index.
        index: u32,
    },
    /// MMIO register write.
    RegWrite {
        /// Raw register offset.
        offset: u32,
        /// Value written.
        value: u32,
        /// Decoded register block.
        class: RegClass,
        /// For `AS_COMMAND = UPDATE` writes: the 64-bit root this write
        /// latched (0 = address space disabled).
        root_latched: Option<u64>,
    },
    /// MMIO register read (optionally verified on replay).
    RegRead {
        /// Raw register offset.
        offset: u32,
        /// Recorded value.
        value: u32,
        /// Whether replay compares against the recorded value.
        verify: bool,
    },
    /// Bounded status-register poll.
    Poll {
        /// Register polled.
        reg: u32,
        /// Mask applied before the comparison.
        mask: u32,
        /// Raw condition code (0 = masked-zero, 1 = non-zero, 2 = equal).
        cond: u8,
        /// Comparison value for `cond = 2`.
        cmp: u32,
        /// Recorded iteration budget.
        max_iters: u32,
        /// Delay between iterations.
        delay_us: u32,
    },
    /// Wait on an interrupt line (raw wire code).
    WaitIrq {
        /// Line code (0 = GPU, 1 = Job, 2 = MMU).
        line: u8,
    },
    /// Metastate delta: `deltas[index]` holds the decoded payload.
    LoadDelta {
        /// Index into [`IrProgram::deltas`].
        index: u32,
    },
}

/// A decoded `LoadMemDelta` event.
#[derive(Debug)]
pub struct DeltaLift {
    /// Event index in the recording.
    pub event: usize,
    /// Target physical address.
    pub pa: u64,
    /// Decoded (post-apply) region length in bytes.
    pub len: u32,
    /// Wire size of the packed delta.
    pub wire_len: usize,
    /// The parsed delta, or `None` when the packed bytes are corrupt.
    pub parsed: Option<ParsedDelta>,
}

/// Direction of a tensor operand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// The instruction reads this operand.
    Read,
    /// The instruction writes this operand.
    Write,
}

/// One tensor operand of a shader instruction, resolved through the page
/// tables live at job-submission time.
#[derive(Debug, Clone)]
pub struct Operand {
    /// Role of the operand ("in", "w", "bias", "out", ...).
    pub name: &'static str,
    /// Access direction.
    pub dir: Dir,
    /// GPU virtual base address.
    pub va: u64,
    /// Length in f32 elements.
    pub elems: u64,
    /// Physical page runs `(pa, len)` backing the operand, merged across
    /// physically contiguous pages.
    pub pa_runs: Vec<(u64, u64)>,
    /// Bytes with no usable mapping (absent, or lacking the required
    /// read/write permission).
    pub unmapped: u64,
}

impl Operand {
    /// Byte length of the operand.
    pub fn bytes(&self) -> u64 {
        self.elems * 4
    }

    /// Half-open VA byte range.
    pub fn va_range(&self) -> (u64, u64) {
        (self.va, self.va.saturating_add(self.bytes()))
    }
}

/// A decoded shader instruction with typed operands.
#[derive(Debug, Clone)]
pub struct SemInstr {
    /// The decoded instruction.
    pub op: ShaderOp,
    /// Its kind (stable stat/display key).
    pub kind: OpKind,
    /// MAC cost (0 when the shape is malformed).
    pub macs: u64,
    /// Operands in a fixed per-kind order (inputs first, output last).
    pub operands: Vec<Operand>,
}

impl SemInstr {
    /// True when this is a self-copy (`src == dst`): the JIT's staging
    /// and tiling no-ops, exempt from dataflow checks.
    pub fn is_identity_copy(&self) -> bool {
        matches!(self.op, ShaderOp::Copy { src_va, dst_va, .. } if src_va == dst_va)
    }
}

/// One job descriptor of a chain, with its shader program decoded.
#[derive(Debug)]
pub struct LiftedDesc {
    /// VA the descriptor was fetched from.
    pub va: u64,
    /// The decoded descriptor.
    pub desc: JobDescriptor,
    /// Decoded shader instructions (empty when the program is unliftable).
    pub instrs: Vec<SemInstr>,
    /// Everything that stopped or degraded the lift of this descriptor.
    pub anomalies: Vec<Anomaly>,
}

/// A `JS_COMMAND = START` submission with its full descriptor chain.
#[derive(Debug)]
pub struct JobChain {
    /// Event index of the starting register write.
    pub event: usize,
    /// Job slot the chain was started on.
    pub slot: u32,
    /// Address space selected by the slot's `JS_CONFIG`.
    pub asn: u32,
    /// Chain head VA from the slot's `JS_HEAD` registers.
    pub head_va: u64,
    /// Page-table root latched on the AS (0 = none).
    pub root: u64,
    /// The page-table walk live at submission (shared across chains that
    /// observe the same root and memory version).
    pub walk: Rc<WalkSummary>,
    /// True when this chain triggered a fresh walk (cache miss): walk-level
    /// checks need to run once per fresh walk, like the replayer's own
    /// walker cache.
    pub walk_fresh: bool,
    /// Descriptors in chain order.
    pub descs: Vec<LiftedDesc>,
    /// Chain-level lift anomalies.
    pub anomalies: Vec<Anomaly>,
}

/// A structural defect found while lifting: the recording encodes
/// something the replayer could not execute (or that would be unsafe /
/// unbounded to analyze). Surfaced by grt-lint as R8 errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Anomaly {
    /// A descriptor VA has no readable mapping.
    DescUnmapped {
        /// The descriptor VA.
        va: u64,
    },
    /// Descriptor bytes carry the wrong magic.
    DescBadMagic {
        /// The descriptor VA.
        va: u64,
    },
    /// The chain exceeded the hardware's hop bound without terminating.
    ChainTooLong {
        /// The bound.
        max: usize,
    },
    /// The program's instruction count exceeds the analyzable bound.
    ProgramTooLarge {
        /// Claimed instruction count.
        n_instrs: u32,
        /// The bound.
        max: u32,
    },
    /// Part of the shader program has no readable mapping.
    ShaderUnmapped {
        /// Program base VA.
        va: u64,
        /// Unmapped byte count.
        bytes: u64,
    },
    /// An instruction slot decodes to no known opcode.
    BadOpcode {
        /// Instruction index within the program.
        instr: usize,
        /// The opcode word.
        opcode: u32,
    },
    /// An instruction's shape parameters are malformed (zero stride,
    /// kernel larger than the padded input, size overflow, ...).
    BadShape {
        /// Instruction index within the program.
        instr: usize,
        /// Human-readable defect.
        detail: String,
    },
}

impl fmt::Display for Anomaly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Anomaly::DescUnmapped { va } => {
                write!(f, "job descriptor at va {va:#x} has no readable mapping")
            }
            Anomaly::DescBadMagic { va } => {
                write!(f, "job descriptor at va {va:#x} has a bad magic tag")
            }
            Anomaly::ChainTooLong { max } => {
                write!(f, "job chain exceeds the {max}-descriptor hop bound")
            }
            Anomaly::ProgramTooLarge { n_instrs, max } => {
                write!(
                    f,
                    "shader program claims {n_instrs} instructions (analyzable bound {max})"
                )
            }
            Anomaly::ShaderUnmapped { va, bytes } => {
                write!(
                    f,
                    "shader program at va {va:#x} has {bytes} unmapped byte(s)"
                )
            }
            Anomaly::BadOpcode { instr, opcode } => {
                write!(f, "instruction {instr} has undefined opcode {opcode:#x}")
            }
            Anomaly::BadShape { instr, detail } => {
                write!(f, "instruction {instr} has a malformed shape: {detail}")
            }
        }
    }
}

/// Whole-program cost facts, computed once at lift time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostSummary {
    /// Total MACs across every lifted shader instruction.
    pub total_macs: u64,
    /// Sum of recorded poll iteration budgets (uncapped).
    pub raw_poll_iters: u64,
    /// Number of job-chain submissions.
    pub job_chains: usize,
    /// Total decoded shader instructions.
    pub instrs: usize,
    /// Number of layer markers.
    pub layers: usize,
}

/// The lifted program: one recording, fully decoded.
#[derive(Debug)]
pub struct IrProgram {
    /// Workload name from the recording header.
    pub workload: String,
    /// GPU identity the recording targets.
    pub gpu_id: u32,
    /// Input slot.
    pub input: DataSlot,
    /// Output slot.
    pub output: DataSlot,
    /// Weight slots in stage order.
    pub weights: Vec<DataSlot>,
    /// One step per recorded event, index-aligned.
    pub steps: Vec<Step>,
    /// Decoded metastate deltas, in event order.
    pub deltas: Vec<DeltaLift>,
    /// Job chains, in event order.
    pub jobs: Vec<JobChain>,
    /// Whole-program cost facts.
    pub cost: CostSummary,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_decodes_windows() {
        assert_eq!(RegClass::classify(0x030), RegClass::GpuCtrl);
        assert_eq!(
            RegClass::classify(jc::slot_base(2) + jc::JS_COMMAND),
            RegClass::JobSlot {
                slot: 2,
                reg: jc::JS_COMMAND
            }
        );
        assert_eq!(
            RegClass::classify(mc::as_base(3) + mc::AS_COMMAND),
            RegClass::AsWindow {
                asn: 3,
                reg: mc::AS_COMMAND
            }
        );
        // One past the last window falls back to GpuCtrl.
        assert_eq!(RegClass::classify(jc::slot_base(16)), RegClass::GpuCtrl);
    }
}
