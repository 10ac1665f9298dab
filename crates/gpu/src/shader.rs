//! The shader ISA: tensor-level operations the GPU fetches and executes
//! from shared memory.
//!
//! Real Mali shaders are vendor-proprietary binaries emitted by the
//! `libmali` JIT; GR-T treats them as opaque bytes that must (a) live in
//! executable pages, (b) be generated per-SKU, and (c) actually drive the
//! compute that replay reproduces. This ISA keeps all three properties with
//! a tensor-granular instruction set: each instruction is a fixed 64-byte
//! record the GPU decodes through its MMU, parameterized (tiled) by the
//! SKU's shader-core count — executing a program compiled for a different
//! core count raises a configuration fault, which is precisely what makes
//! recordings SKU-specific (§2.4).

use crate::fusion::FusedDirective;
use crate::mem::Memory;
use crate::mmu::{AccessKind, MmuFault, Tlb, Walker};
use std::ops::{Deref, DerefMut};

/// Size of one encoded instruction record.
pub const INSTR_SIZE: usize = 64;

/// Convolution geometry (NCHW, square kernels).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvParams {
    /// Input channels.
    pub in_c: u32,
    /// Input height.
    pub in_h: u32,
    /// Input width.
    pub in_w: u32,
    /// Output channels.
    pub out_c: u32,
    /// Kernel size (k×k).
    pub k: u32,
    /// Stride.
    pub stride: u32,
    /// Zero padding.
    pub pad: u32,
}

impl ConvParams {
    /// Output height.
    pub fn out_h(&self) -> u32 {
        (self.in_h + 2 * self.pad - self.k) / self.stride + 1
    }

    /// Output width.
    pub fn out_w(&self) -> u32 {
        (self.in_w + 2 * self.pad - self.k) / self.stride + 1
    }

    /// Multiply-accumulate count of this convolution.
    pub fn macs(&self) -> u64 {
        self.out_c as u64
            * self.out_h() as u64
            * self.out_w() as u64
            * self.in_c as u64
            * self.k as u64
            * self.k as u64
    }
}

/// Pooling flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolKind {
    /// Max pooling.
    Max,
    /// Average pooling.
    Avg,
}

/// One shader instruction.
///
/// `tiles` on compute ops is the workgroup tiling the JIT chose for the
/// target SKU; the hardware rejects a mismatch with a configuration fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShaderOp {
    /// 2-D convolution + bias: `out = conv(in, w) + b`.
    Conv2d {
        /// Input tensor VA.
        in_va: u64,
        /// Weight tensor VA (`[out_c][in_c][k][k]`).
        w_va: u64,
        /// Bias VA (`[out_c]`).
        b_va: u64,
        /// Output tensor VA.
        out_va: u64,
        /// Geometry.
        p: ConvParams,
        /// SKU tiling (shader-core count the kernel was compiled for).
        tiles: u32,
    },
    /// Dense layer: `out[m,n] = a[m,k] × b[k,n] + bias[n]`.
    MatMul {
        /// Left operand VA.
        a_va: u64,
        /// Right operand VA.
        b_va: u64,
        /// Bias VA (0 = no bias).
        bias_va: u64,
        /// Output VA.
        out_va: u64,
        /// Rows of `a`.
        m: u32,
        /// Inner dimension.
        k: u32,
        /// Columns of `b`.
        n: u32,
        /// SKU tiling.
        tiles: u32,
    },
    /// Spatial pooling over NCHW input.
    Pool {
        /// Input VA.
        in_va: u64,
        /// Output VA.
        out_va: u64,
        /// Flavour.
        kind: PoolKind,
        /// Channels.
        c: u32,
        /// Input height.
        h: u32,
        /// Input width.
        w: u32,
        /// Kernel size.
        k: u32,
        /// Stride.
        stride: u32,
    },
    /// Elementwise ReLU.
    Relu {
        /// Input VA.
        in_va: u64,
        /// Output VA (may equal input).
        out_va: u64,
        /// Element count.
        len: u32,
    },
    /// Elementwise addition (residual connections).
    Add {
        /// First operand VA.
        a_va: u64,
        /// Second operand VA.
        b_va: u64,
        /// Output VA.
        out_va: u64,
        /// Element count.
        len: u32,
    },
    /// Softmax over a vector.
    Softmax {
        /// Input VA.
        in_va: u64,
        /// Output VA.
        out_va: u64,
        /// Element count.
        len: u32,
    },
    /// Bulk copy of `len` f32 elements.
    Copy {
        /// Source VA.
        src_va: u64,
        /// Destination VA.
        dst_va: u64,
        /// Element count.
        len: u32,
    },
}

const OP_CONV2D: u32 = 1;
const OP_MATMUL: u32 = 2;
const OP_POOL: u32 = 3;
const OP_RELU: u32 = 4;
const OP_ADD: u32 = 5;
const OP_SOFTMAX: u32 = 6;
const OP_COPY: u32 = 7;

impl ShaderOp {
    /// Approximate MAC cost of this instruction (for the job cost model).
    pub fn macs(&self) -> u64 {
        match self {
            ShaderOp::Conv2d { p, .. } => p.macs(),
            ShaderOp::MatMul { m, k, n, .. } => *m as u64 * *k as u64 * *n as u64,
            ShaderOp::Pool { c, h, w, k, .. } => {
                *c as u64 * *h as u64 * *w as u64 * (*k as u64).pow(2) / 4
            }
            ShaderOp::Relu { len, .. } | ShaderOp::Add { len, .. } => *len as u64,
            ShaderOp::Softmax { len, .. } => *len as u64 * 4,
            ShaderOp::Copy { len, .. } => *len as u64 / 2,
        }
    }

    /// Encodes to the fixed 64-byte record format.
    pub fn encode(&self) -> [u8; INSTR_SIZE] {
        let mut b = [0u8; INSTR_SIZE];
        let put_u32 = |buf: &mut [u8; INSTR_SIZE], off: usize, v: u32| {
            buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
        };
        fn put_u64(buf: &mut [u8; INSTR_SIZE], off: usize, v: u64) {
            buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
        }
        match *self {
            ShaderOp::Conv2d {
                in_va,
                w_va,
                b_va,
                out_va,
                p,
                tiles,
            } => {
                put_u32(&mut b, 0, OP_CONV2D);
                put_u32(&mut b, 4, tiles);
                put_u64(&mut b, 8, in_va);
                put_u64(&mut b, 16, w_va);
                put_u64(&mut b, 24, b_va);
                put_u64(&mut b, 32, out_va);
                // Six param slots remain (40..64): pack stride and pad
                // into one word.
                for (i, v) in [
                    p.in_c,
                    p.in_h,
                    p.in_w,
                    p.out_c,
                    p.k,
                    p.stride | (p.pad << 16),
                ]
                .into_iter()
                .enumerate()
                {
                    put_u32(&mut b, 40 + i * 4, v);
                }
            }
            ShaderOp::MatMul {
                a_va,
                b_va,
                bias_va,
                out_va,
                m,
                k,
                n,
                tiles,
            } => {
                put_u32(&mut b, 0, OP_MATMUL);
                put_u32(&mut b, 4, tiles);
                put_u64(&mut b, 8, a_va);
                put_u64(&mut b, 16, b_va);
                put_u64(&mut b, 24, bias_va);
                put_u64(&mut b, 32, out_va);
                put_u32(&mut b, 40, m);
                put_u32(&mut b, 44, k);
                put_u32(&mut b, 48, n);
            }
            ShaderOp::Pool {
                in_va,
                out_va,
                kind,
                c,
                h,
                w,
                k,
                stride,
            } => {
                put_u32(&mut b, 0, OP_POOL);
                put_u64(&mut b, 8, in_va);
                put_u64(&mut b, 32, out_va);
                put_u32(&mut b, 40, matches!(kind, PoolKind::Avg) as u32);
                put_u32(&mut b, 44, c);
                put_u32(&mut b, 48, h);
                put_u32(&mut b, 52, w);
                put_u32(&mut b, 56, k);
                put_u32(&mut b, 60, stride);
            }
            ShaderOp::Relu { in_va, out_va, len } => {
                put_u32(&mut b, 0, OP_RELU);
                put_u64(&mut b, 8, in_va);
                put_u64(&mut b, 32, out_va);
                put_u32(&mut b, 40, len);
            }
            ShaderOp::Add {
                a_va,
                b_va,
                out_va,
                len,
            } => {
                put_u32(&mut b, 0, OP_ADD);
                put_u64(&mut b, 8, a_va);
                put_u64(&mut b, 16, b_va);
                put_u64(&mut b, 32, out_va);
                put_u32(&mut b, 40, len);
            }
            ShaderOp::Softmax { in_va, out_va, len } => {
                put_u32(&mut b, 0, OP_SOFTMAX);
                put_u64(&mut b, 8, in_va);
                put_u64(&mut b, 32, out_va);
                put_u32(&mut b, 40, len);
            }
            ShaderOp::Copy {
                src_va,
                dst_va,
                len,
            } => {
                put_u32(&mut b, 0, OP_COPY);
                put_u64(&mut b, 8, src_va);
                put_u64(&mut b, 32, dst_va);
                put_u32(&mut b, 40, len);
            }
        }
        b
    }

    /// Decodes a 64-byte record; `None` for an unknown opcode.
    pub fn decode(b: &[u8; INSTR_SIZE]) -> Option<ShaderOp> {
        let u32_at = |off: usize| u32::from_le_bytes([b[off], b[off + 1], b[off + 2], b[off + 3]]);
        let u64_at = |off: usize| {
            u64::from_le_bytes([
                b[off],
                b[off + 1],
                b[off + 2],
                b[off + 3],
                b[off + 4],
                b[off + 5],
                b[off + 6],
                b[off + 7],
            ])
        };
        Some(match u32_at(0) {
            OP_CONV2D => ShaderOp::Conv2d {
                tiles: u32_at(4),
                in_va: u64_at(8),
                w_va: u64_at(16),
                b_va: u64_at(24),
                out_va: u64_at(32),
                p: ConvParams {
                    in_c: u32_at(40),
                    in_h: u32_at(44),
                    in_w: u32_at(48),
                    out_c: u32_at(52),
                    k: u32_at(56),
                    stride: u32_at(60) & 0xFFFF,
                    pad: u32_at(60) >> 16,
                },
            },
            OP_MATMUL => ShaderOp::MatMul {
                tiles: u32_at(4),
                a_va: u64_at(8),
                b_va: u64_at(16),
                bias_va: u64_at(24),
                out_va: u64_at(32),
                m: u32_at(40),
                k: u32_at(44),
                n: u32_at(48),
            },
            OP_POOL => ShaderOp::Pool {
                in_va: u64_at(8),
                out_va: u64_at(32),
                kind: if u32_at(40) == 1 {
                    PoolKind::Avg
                } else {
                    PoolKind::Max
                },
                c: u32_at(44),
                h: u32_at(48),
                w: u32_at(52),
                k: u32_at(56),
                stride: u32_at(60),
            },
            OP_RELU => ShaderOp::Relu {
                in_va: u64_at(8),
                out_va: u64_at(32),
                len: u32_at(40),
            },
            OP_ADD => ShaderOp::Add {
                a_va: u64_at(8),
                b_va: u64_at(16),
                out_va: u64_at(32),
                len: u32_at(40),
            },
            OP_SOFTMAX => ShaderOp::Softmax {
                in_va: u64_at(8),
                out_va: u64_at(32),
                len: u32_at(40),
            },
            OP_COPY => ShaderOp::Copy {
                src_va: u64_at(8),
                dst_va: u64_at(32),
                len: u32_at(40),
            },
            _ => return None,
        })
    }
}

/// Shader execution failures, mapped to job fault codes by the GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShaderFault {
    /// An MMU fault during fetch or data access.
    Mmu(MmuFault),
    /// Unknown opcode.
    BadInstruction,
    /// The kernel's tiling does not match this SKU's core count.
    TileMismatch {
        /// Tiling baked into the instruction.
        compiled_for: u32,
        /// Cores actually present.
        present: u32,
    },
    /// A [`FusedDirective`] disagreed with the instruction it was attached
    /// to (wrong kind, output VA, or length). Fusion plans are derived from
    /// the same recording the program was lifted from, so a mismatch means
    /// the plan is stale or corrupt — fault rather than guess.
    FusionMismatch,
}

impl From<MmuFault> for ShaderFault {
    fn from(m: MmuFault) -> Self {
        ShaderFault::Mmu(m)
    }
}

/// Number of [`OpKind`] variants (array size for per-kind stats).
pub const OP_KIND_COUNT: usize = 14;

/// The kind of a shader instruction, used to key per-op-kind execution
/// statistics in replay profiles and benches.
///
/// The `Fused*` variants never come from a decoded instruction — they are
/// assigned by a [`FusedDirective`] so fused
/// superinstructions report under their own key (`fused:conv2d+add+relu`
/// and friends) instead of inflating the head kind's stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// 2-D convolution.
    Conv2d,
    /// Dense matmul.
    MatMul,
    /// Spatial pooling.
    Pool,
    /// Elementwise ReLU.
    Relu,
    /// Elementwise add.
    Add,
    /// Softmax.
    Softmax,
    /// Bulk copy.
    Copy,
    /// Fused conv2d with in-place relu tail.
    FusedConvRelu,
    /// Fused conv2d feeding a residual add.
    FusedConvAdd,
    /// Fused conv2d → add → relu chain.
    FusedConvAddRelu,
    /// Fused matmul with in-place relu tail.
    FusedMatMulRelu,
    /// Fused matmul feeding an add.
    FusedMatMulAdd,
    /// Fused matmul → add → relu chain.
    FusedMatMulAddRelu,
    /// Fused residual add with in-place relu tail.
    FusedAddRelu,
}

impl OpKind {
    /// All kinds, in stable display order (indexes match [`OpKind::index`]).
    pub const ALL: [OpKind; OP_KIND_COUNT] = [
        OpKind::Conv2d,
        OpKind::MatMul,
        OpKind::Pool,
        OpKind::Relu,
        OpKind::Add,
        OpKind::Softmax,
        OpKind::Copy,
        OpKind::FusedConvRelu,
        OpKind::FusedConvAdd,
        OpKind::FusedConvAddRelu,
        OpKind::FusedMatMulRelu,
        OpKind::FusedMatMulAdd,
        OpKind::FusedMatMulAddRelu,
        OpKind::FusedAddRelu,
    ];

    /// The kind of `op`.
    pub fn of(op: &ShaderOp) -> OpKind {
        match op {
            ShaderOp::Conv2d { .. } => OpKind::Conv2d,
            ShaderOp::MatMul { .. } => OpKind::MatMul,
            ShaderOp::Pool { .. } => OpKind::Pool,
            ShaderOp::Relu { .. } => OpKind::Relu,
            ShaderOp::Add { .. } => OpKind::Add,
            ShaderOp::Softmax { .. } => OpKind::Softmax,
            ShaderOp::Copy { .. } => OpKind::Copy,
        }
    }

    /// The fused kind for a head kind + tail combination; `None` when the
    /// combination is not a recognized superinstruction.
    pub fn fused(head: OpKind, tail_add: bool, tail_relu: bool) -> Option<OpKind> {
        Some(match (head, tail_add, tail_relu) {
            (OpKind::Conv2d, false, true) => OpKind::FusedConvRelu,
            (OpKind::Conv2d, true, false) => OpKind::FusedConvAdd,
            (OpKind::Conv2d, true, true) => OpKind::FusedConvAddRelu,
            (OpKind::MatMul, false, true) => OpKind::FusedMatMulRelu,
            (OpKind::MatMul, true, false) => OpKind::FusedMatMulAdd,
            (OpKind::MatMul, true, true) => OpKind::FusedMatMulAddRelu,
            (OpKind::Add, false, true) => OpKind::FusedAddRelu,
            _ => return None,
        })
    }

    /// Whether this kind names a fused superinstruction.
    pub fn is_fused(self) -> bool {
        self.index() >= 7
    }

    /// Stable index into per-kind stat arrays.
    pub fn index(self) -> usize {
        match self {
            OpKind::Conv2d => 0,
            OpKind::MatMul => 1,
            OpKind::Pool => 2,
            OpKind::Relu => 3,
            OpKind::Add => 4,
            OpKind::Softmax => 5,
            OpKind::Copy => 6,
            OpKind::FusedConvRelu => 7,
            OpKind::FusedConvAdd => 8,
            OpKind::FusedConvAddRelu => 9,
            OpKind::FusedMatMulRelu => 10,
            OpKind::FusedMatMulAdd => 11,
            OpKind::FusedMatMulAddRelu => 12,
            OpKind::FusedAddRelu => 13,
        }
    }

    /// Display name (used in bench JSON).
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Conv2d => "conv2d",
            OpKind::MatMul => "matmul",
            OpKind::Pool => "pool",
            OpKind::Relu => "relu",
            OpKind::Add => "add",
            OpKind::Softmax => "softmax",
            OpKind::Copy => "copy",
            OpKind::FusedConvRelu => "fused:conv2d+relu",
            OpKind::FusedConvAdd => "fused:conv2d+add",
            OpKind::FusedConvAddRelu => "fused:conv2d+add+relu",
            OpKind::FusedMatMulRelu => "fused:matmul+relu",
            OpKind::FusedMatMulAdd => "fused:matmul+add",
            OpKind::FusedMatMulAddRelu => "fused:matmul+add+relu",
            OpKind::FusedAddRelu => "fused:add+relu",
        }
    }
}

/// Per-op-kind execution counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpKindStats {
    /// Instructions of this kind executed.
    pub events: u64,
    /// MACs attributed to this kind.
    pub macs: u64,
    /// Modeled execution nanoseconds attributed to this kind (filled by
    /// the GPU's job cost model, zero at the shader layer).
    pub ns: u64,
}

/// What one `execute_program` call did, as seen by the memory system:
/// feeds the GPU's job duration model and the replay profile counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecReport {
    /// Total MACs executed.
    pub macs: u64,
    /// Scalar accesses the walk-per-element engine would have made
    /// (elements moved + instruction bytes fetched). The denominator of
    /// the stall model: `tlb misses / element_accesses` is the fraction
    /// of accesses that still paid for a full table walk.
    pub element_accesses: u64,
    /// Contiguous page runs the bulk path translated once and copied.
    pub bulk_runs: u64,
    /// The subset of [`element_accesses`](Self::element_accesses) made by
    /// `Copy` instructions (their fetch plus the elements moved). A DMA
    /// engine pays per *run* for these, not per element, so the cost model
    /// recharges them at [`copy_runs`](Self::copy_runs) granularity.
    pub copy_elems: u64,
    /// The subset of [`bulk_runs`](Self::bulk_runs) made by `Copy`
    /// instructions: what a bulk copy actually costs.
    pub copy_runs: u64,
    /// The subset of [`element_accesses`](Self::element_accesses) that is
    /// *batch-resident*: instruction-record fetches and read-only operand
    /// reads (conv weights/bias, matmul B/bias) whose bytes are identical
    /// for every input in a batched replay. A batch executor fetches these
    /// once and streams them to every lane, so marginal batch lanes are
    /// charged `element_accesses - resident_elems` (copy-op fetches are
    /// excluded — copies are already recharged at run granularity).
    pub resident_elems: u64,
    /// The subset of [`copy_runs`](Self::copy_runs) where source and
    /// destination resolved to the *same* physical run: nothing moved, the
    /// copy aliased in place. The cost model refunds these runs.
    pub alias_runs: u64,
    /// Elements covered by aliased (zero-copy) runs.
    pub alias_elems: u64,
    /// TLB misses, each a full table walk, taken while the program ran.
    pub walks: u64,
    /// Per-kind breakdown (indexed by [`OpKind::index`]).
    pub per_kind: [OpKindStats; OP_KIND_COUNT],
}

impl ExecReport {
    /// Accumulates `other` into `self` (per-kind arrays add elementwise).
    pub fn add(&mut self, other: &ExecReport) {
        self.macs += other.macs;
        self.element_accesses += other.element_accesses;
        self.bulk_runs += other.bulk_runs;
        self.copy_elems += other.copy_elems;
        self.copy_runs += other.copy_runs;
        self.resident_elems += other.resident_elems;
        self.alias_runs += other.alias_runs;
        self.alias_elems += other.alias_elems;
        self.walks += other.walks;
        for (a, b) in self.per_kind.iter_mut().zip(other.per_kind.iter()) {
            a.events += b.events;
            a.macs += b.macs;
            a.ns += b.ns;
        }
    }
}

/// Reusable execution buffers: one set per GPU, so per-op `Vec` churn is
/// gone from the hot replay loop. Buffers only ever grow.
#[derive(Debug, Clone, Default)]
pub struct ExecScratch {
    /// First input operand (conv input / matmul A / elementwise A).
    a: Vec<f32>,
    /// Second input operand (conv weights / matmul B / elementwise B).
    b: Vec<f32>,
    /// Bias operand.
    bias: Vec<f32>,
    /// Kernel output, staged before the bulk write-back. Fused tails
    /// operate on this buffer in place, which is exactly how fusion skips
    /// materializing the intermediate tensor in the carveout.
    out: Vec<f32>,
    /// The non-intermediate operand of a fused `add` tail.
    tail: Vec<f32>,
    /// A chunk's conv inputs, lane-major: `[ic][iy][ix][lane]`, `LANES`
    /// wide, unused lanes zero.
    lane_in: Vec<f32>,
    /// The chunk's conv outputs, lane-major: `[oc][oy][ox][lane]`.
    lane_out: Vec<f32>,
    /// The weights and bias the chunk's conv was computed with.
    lane_w: Vec<f32>,
    lane_bias: Vec<f32>,
    /// The conv `lane_out` holds.
    lane_conv: Option<ShaderOp>,
    /// Conv weights regrouped into output-channel blocks (`conv2d_blocked`).
    wblk: Vec<f32>,
    /// The running lane's chunk slot, until its first conv head.
    lane_slot: Option<usize>,
    /// The TLB `conv_ahead` reads through, apart from the job's.
    ahead_tlb: Tlb,
}

impl ExecScratch {
    /// Takes the running lane's conv output from the chunk's lane-major
    /// pass into `out`, if that pass computed `op` in this lane's slot
    /// from operands bit-equal to the ones just read into `a`, `b` and
    /// `bias`. Otherwise the caller runs the scalar kernel. Comparing the
    /// bits, not trusting that lanes share weights or that the pass read
    /// what this lane's own translations reach, is what makes the slot
    /// sound to use.
    fn take_lane_out(&mut self, op: &ShaderOp) -> bool {
        let (Some(slot), Some(lane_op)) = (self.lane_slot.take(), &self.lane_conv) else {
            return false;
        };
        let ShaderOp::Conv2d { b_va, .. } = *op else {
            return false;
        };
        let same = |x: &[f32], y: &[f32]| {
            x.len() == y.len() && x.iter().zip(y).all(|(a, b)| a.to_bits() == b.to_bits())
        };
        if lane_op != op
            || !same(&self.b, &self.lane_w)
            || (b_va != 0 && !same(&self.bias, &self.lane_bias))
            || !self
                .a
                .iter()
                .zip(lane(&self.lane_in, slot))
                .all(|(x, y)| x.to_bits() == y.to_bits())
        {
            return false;
        }
        for (o, &v) in self.out.iter_mut().zip(lane(&self.lane_out, slot)) {
            *o = v;
        }
        true
    }
}

/// One lane's elements of a lane-major buffer.
fn lane(v: &[f32], slot: usize) -> impl Iterator<Item = &f32> {
    v[slot..].iter().step_by(LANES)
}

/// Reads `n` f32 elements at `va` through the TLB'd page-run path into
/// `out` (cleared and resized). Falls back to element-at-a-time for
/// non-4-byte-aligned `va` (never produced by the JIT, but legal).
fn read_f32s_bulk(
    mem: &Memory,
    w: &Walker,
    tlb: &mut Tlb,
    rep: &mut ExecReport,
    va: u64,
    n: usize,
    out: &mut Vec<f32>,
) -> Result<(), MmuFault> {
    out.clear();
    out.resize(n, 0.0);
    rep.element_accesses += n as u64;
    if n == 0 {
        return Ok(());
    }
    if !va.is_multiple_of(4) {
        for (i, v) in out.iter_mut().enumerate() {
            let pa = w.translate_cached(mem, tlb, va + (i * 4) as u64, AccessKind::Read)?;
            *v = mem
                .read_f32(pa, crate::mem::Accessor::Gpu)
                .map_err(|fault| MmuFault::WalkError { fault })?;
        }
        return Ok(());
    }
    let mut done = 0usize;
    while done < n {
        let want = (n - done) * 4;
        let (pa, run) =
            w.translate_run(mem, tlb, va + (done * 4) as u64, want, AccessKind::Read)?;
        let elems = run / 4;
        mem.read_bulk(pa, &mut out[done..done + elems], crate::mem::Accessor::Gpu)
            .map_err(|fault| MmuFault::WalkError { fault })?;
        rep.bulk_runs += 1;
        done += elems;
    }
    Ok(())
}

/// Writes `data` as f32 elements at `va` through the TLB'd page-run path.
/// Every physical run written is reported to the TLB so a store that lands
/// on a walked table page flushes stale translations.
fn write_f32s_bulk(
    mem: &mut Memory,
    w: &Walker,
    tlb: &mut Tlb,
    rep: &mut ExecReport,
    va: u64,
    data: &[f32],
) -> Result<(), MmuFault> {
    rep.element_accesses += data.len() as u64;
    if data.is_empty() {
        return Ok(());
    }
    if !va.is_multiple_of(4) {
        for (i, &v) in data.iter().enumerate() {
            let pa = w.translate_cached(mem, tlb, va + (i * 4) as u64, AccessKind::Write)?;
            mem.write_f32(pa, v, crate::mem::Accessor::Gpu)
                .map_err(|fault| MmuFault::WalkError { fault })?;
            tlb.note_store(pa, 4);
        }
        return Ok(());
    }
    let mut done = 0usize;
    while done < data.len() {
        let want = (data.len() - done) * 4;
        let (pa, run) =
            w.translate_run(mem, tlb, va + (done * 4) as u64, want, AccessKind::Write)?;
        let elems = run / 4;
        mem.write_bulk(pa, &data[done..done + elems], crate::mem::Accessor::Gpu)
            .map_err(|fault| MmuFault::WalkError { fault })?;
        tlb.note_store(pa, run);
        rep.bulk_runs += 1;
        done += elems;
    }
    Ok(())
}

/// Copies `n` f32 elements from `src_va` to `dst_va` page-run by page-run
/// without staging through scratch — source and destination runs are
/// translated in lockstep and each overlap copied as one `memmove`
/// ([`Memory::copy_within`]). Copy dominates warm replay (§7.4: ~31 ms of
/// ResNet12's 67 ms), so skipping the f32 decode/encode round-trip and the
/// scratch fill matters.
///
/// Accounting matches the staged read+write path exactly: `2n` element
/// accesses (the timing model's input) and one TLB-visible store per
/// destination run. Misaligned or VA-overlapping copies (never produced by
/// the JIT, but legal) fall back to the staged path, which doubles as the
/// bit-exactness oracle for this one.
fn copy_f32s_bulk(
    mem: &mut Memory,
    w: &Walker,
    tlb: &mut Tlb,
    rep: &mut ExecReport,
    src_va: u64,
    dst_va: u64,
    n: usize,
) -> Result<(), MmuFault> {
    rep.element_accesses += 2 * n as u64;
    if n == 0 {
        return Ok(());
    }
    let mut done = 0usize;
    while done < n {
        let want = (n - done) * 4;
        let (src_pa, src_run) =
            w.translate_run(mem, tlb, src_va + (done * 4) as u64, want, AccessKind::Read)?;
        let (dst_pa, dst_run) = w.translate_run(
            mem,
            tlb,
            dst_va + (done * 4) as u64,
            src_run,
            AccessKind::Write,
        )?;
        let run = src_run.min(dst_run);
        if src_pa == dst_pa {
            // Congruent alias: both VAs resolve to the same physical run,
            // so the copy is already done — nothing moves, no bytes change
            // (and thus no TLB-visible store). The run pair is recorded in
            // `alias_runs` so the cost model can refund it.
            rep.alias_runs += 2;
            rep.alias_elems += (run / 4) as u64;
        } else {
            mem.copy_within(src_pa, dst_pa, run, crate::mem::Accessor::Gpu)
                .map_err(|fault| MmuFault::WalkError { fault })?;
            tlb.note_store(dst_pa, run);
        }
        rep.bulk_runs += 2;
        done += run / 4;
    }
    Ok(())
}

/// Fetches one 64-byte instruction record through the bulk path.
///
/// Fetching per record (not the whole program up front) preserves the old
/// engine's visibility semantics: an op that overwrites a later record is
/// observed, exactly as with the byte-at-a-time fetch.
fn fetch_record(
    mem: &Memory,
    w: &Walker,
    tlb: &mut Tlb,
    rep: &mut ExecReport,
    va: u64,
) -> Result<[u8; INSTR_SIZE], ShaderFault> {
    let mut rec = [0u8; INSTR_SIZE];
    rep.element_accesses += INSTR_SIZE as u64;
    let mut done = 0usize;
    while done < INSTR_SIZE {
        let (pa, run) = w.translate_run(
            mem,
            tlb,
            va + done as u64,
            INSTR_SIZE - done,
            AccessKind::Execute,
        )?;
        mem.read(pa, &mut rec[done..done + run], crate::mem::Accessor::Gpu)
            .map_err(|fault| MmuFault::WalkError { fault })?;
        rep.bulk_runs += 1;
        done += run;
    }
    Ok(rec)
}

/// Lanes one pass of the lane-major conv kernel computes. A batch runs in
/// chunks of this many lanes; a chunk of fewer pads the rest with zeros.
pub const LANES: usize = 8;

/// Executes a shader program of `n_instrs` records at `shader_va` once
/// for each memory in `mems`: the primary memory first, then each batch
/// lane. A scalar job passes one memory.
///
/// `present_cores` is the executing SKU's core count; tiled kernels
/// compiled for another count fault. Translations go through `tlb` (the
/// GPU flushes it at job boundaries); tensors are staged in `scratch`.
///
/// When `fused` carries a directive, the program must be the single head
/// instruction of a fused chain: its tails are applied to the output while
/// it sits in scratch (`execute_fused`), and any disagreement between
/// directive and instruction faults with [`ShaderFault::FusionMismatch`].
///
/// Lanes run one after another, each through every translation, read,
/// write and `Tlb::note_store` a scalar run makes, and `lane_done` sees
/// each lane's execution report (MACs, access counters, walks, per-kind
/// stats) or fault before the next lane starts. The first fault ends the
/// call and is returned. Only a conv head's arithmetic is shared: before a
/// chunk of up to [`LANES`] lanes runs, `conv_ahead` computes the chunk's
/// first conv for all of them in one lane-major pass, and each lane takes
/// its output from that pass when the operands it reads equal the ones
/// the pass used, bit for bit (`ExecScratch::take_lane_out`).
#[allow(clippy::too_many_arguments)]
pub fn execute_program<M: DerefMut<Target = Memory>>(
    mems: &mut [M],
    walker: &Walker,
    tlb: &mut Tlb,
    scratch: &mut ExecScratch,
    shader_va: u64,
    n_instrs: u32,
    present_cores: u32,
    fused: Option<&FusedDirective>,
    mut lane_done: impl FnMut(&mut Memory, &mut Tlb, &Result<ExecReport, ShaderFault>),
) -> Result<(), ShaderFault> {
    let n = mems.len();
    for start in (0..n).step_by(LANES) {
        let chunk = &mut mems[start..(start + LANES).min(n)];
        conv_ahead(chunk, walker, scratch, shader_va);
        for (slot, mem) in chunk.iter_mut().enumerate() {
            scratch.lane_slot = Some(slot);
            let misses = tlb.stats().misses;
            let res = run_program(
                mem,
                walker,
                tlb,
                scratch,
                shader_va,
                n_instrs,
                present_cores,
                fused,
            )
            .map(|rep| ExecReport {
                walks: tlb.stats().misses - misses,
                ..rep
            });
            scratch.lane_slot = None;
            lane_done(mem, tlb, &res);
            res?;
        }
    }
    Ok(())
}

/// Computes the conv that opens a chunk's program once for all its lanes,
/// before any of them runs, into `scratch.lane_out`.
///
/// The chunk's first lane leads: its instruction, weights and bias are
/// broadcast, and each lane's own input fills its slot (a slot whose input
/// faults stays zero). The reads go through a TLB of their own, flushed
/// for each lane, and a throwaway report, so the job's TLB and counters
/// see nothing here and the chunk's translations still happen lane by
/// lane when the lanes run. Whether a lane may use its slot is decided
/// then, by `ExecScratch::take_lane_out`. A chunk of one lane is left to
/// the scalar kernel.
fn conv_ahead<M: Deref<Target = Memory>>(
    chunk: &[M],
    w: &Walker,
    scratch: &mut ExecScratch,
    shader_va: u64,
) {
    scratch.lane_conv = None;
    let [lead, _, ..] = chunk else {
        return;
    };
    let (tlb, rep) = (&mut scratch.ahead_tlb, &mut ExecReport::default());
    tlb.invalidate_all();
    let Some(
        op @ ShaderOp::Conv2d {
            in_va,
            w_va,
            b_va,
            p,
            ..
        },
    ) = fetch_record(lead, w, tlb, rep, shader_va)
        .ok()
        .and_then(|rec| ShaderOp::decode(&rec))
    else {
        return;
    };
    let w_elems = (p.out_c * p.in_c * p.k * p.k) as usize;
    if read_f32s_bulk(lead, w, tlb, rep, w_va, w_elems, &mut scratch.lane_w).is_err()
        || (b_va != 0
            && read_f32s_bulk(
                lead,
                w,
                tlb,
                rep,
                b_va,
                p.out_c as usize,
                &mut scratch.lane_bias,
            )
            .is_err())
    {
        return;
    }
    let in_elems = (p.in_c * p.in_h * p.in_w) as usize;
    scratch.lane_in.clear();
    scratch.lane_in.resize(in_elems * LANES, 0.0);
    for (slot, mem) in chunk.iter().enumerate() {
        tlb.invalidate_all();
        if read_f32s_bulk(mem, w, tlb, rep, in_va, in_elems, &mut scratch.a).is_ok() {
            for (dst, &v) in scratch.lane_in[slot..]
                .iter_mut()
                .step_by(LANES)
                .zip(&scratch.a)
            {
                *dst = v;
            }
        }
    }
    scratch.lane_out.clear();
    scratch
        .lane_out
        .resize((p.out_c * p.out_h() * p.out_w()) as usize * LANES, 0.0);
    let bias = (b_va != 0).then_some(scratch.lane_bias.as_slice());
    conv2d_blocked::<LANES, LANE_OC_BLOCK>(
        &scratch.lane_in,
        &scratch.lane_w,
        bias,
        &mut scratch.lane_out,
        &p,
        &mut scratch.wblk,
    );
    scratch.lane_conv = Some(op);
}

/// Runs a program against one memory: the scalar body of
/// [`execute_program`]. Returns the execution report.
#[allow(clippy::too_many_arguments)]
fn run_program(
    mem: &mut Memory,
    walker: &Walker,
    tlb: &mut Tlb,
    scratch: &mut ExecScratch,
    shader_va: u64,
    n_instrs: u32,
    present_cores: u32,
    fused: Option<&FusedDirective>,
) -> Result<ExecReport, ShaderFault> {
    let mut rep = ExecReport::default();
    if let Some(d) = fused {
        if n_instrs != 1 {
            return Err(ShaderFault::FusionMismatch);
        }
        let rec = fetch_record(mem, walker, tlb, &mut rep, shader_va)?;
        let op = ShaderOp::decode(&rec).ok_or(ShaderFault::BadInstruction)?;
        rep.resident_elems += INSTR_SIZE as u64;
        // The superinstruction's MACs are the head's plus each absorbed
        // tail's (an `Add` or `Relu` of the head's output length each
        // count `len`, same as the standalone instructions would).
        let macs =
            op.macs() + d.tail_add.map_or(0, |t| t.len) + if d.tail_relu { d.head_len } else { 0 };
        rep.macs += macs;
        let slot = &mut rep.per_kind[d.kind.index()];
        slot.events += 1;
        slot.macs += macs;
        execute_fused(mem, walker, tlb, scratch, &op, d, present_cores, &mut rep)?;
        return Ok(rep);
    }
    for i in 0..n_instrs {
        let va = shader_va + (i as usize * INSTR_SIZE) as u64;
        let elems_before = rep.element_accesses;
        let runs_before = rep.bulk_runs;
        let rec = fetch_record(mem, walker, tlb, &mut rep, va)?;
        let op = ShaderOp::decode(&rec).ok_or(ShaderFault::BadInstruction)?;
        // Instruction records are input-independent, so a batch executor
        // fetches them once per batch. Copy ops are excluded: their whole
        // access footprint (fetch included) is already recharged at run
        // granularity via `copy_elems`/`copy_runs`.
        if !matches!(op, ShaderOp::Copy { .. }) {
            rep.resident_elems += INSTR_SIZE as u64;
        }
        let macs = op.macs();
        rep.macs += macs;
        let slot = &mut rep.per_kind[OpKind::of(&op).index()];
        slot.events += 1;
        slot.macs += macs;
        execute_op(mem, walker, tlb, scratch, &op, present_cores, &mut rep)?;
        if matches!(op, ShaderOp::Copy { .. }) {
            rep.copy_elems += rep.element_accesses - elems_before;
            rep.copy_runs += rep.bulk_runs - runs_before;
        }
    }
    Ok(rep)
}

fn check_tiles(tiles: u32, present: u32) -> Result<(), ShaderFault> {
    if tiles != present {
        Err(ShaderFault::TileMismatch {
            compiled_for: tiles,
            present,
        })
    } else {
        Ok(())
    }
}

/// Clamped kernel-coordinate range for output coordinate `o`: exactly the
/// iterations the scalar engine's bounds check would not `continue` past.
fn kernel_range(o: usize, k: usize, stride: usize, pad: usize, in_dim: usize) -> (usize, usize) {
    let base = o as i64 * stride as i64 - pad as i64;
    let lo = (-base).clamp(0, k as i64) as usize;
    let hi = (in_dim as i64 - base).clamp(0, k as i64) as usize;
    (lo, hi.max(lo))
}

/// Output channels per pixel pass of the scalar conv kernel.
pub const OC_BLOCK: usize = 16;
/// Output channels per pixel pass of the lane-major conv kernel.
pub const LANE_OC_BLOCK: usize = 8;

/// Blocked conv kernel, run on `L` inputs at once that share one set of
/// weights and bias, `B` output channels at a time: `<1, OC_BLOCK>` is
/// the scalar kernel, `<LANES, LANE_OC_BLOCK>` the lane-major one.
///
/// `input` is `[ic][iy][ix][lane]` and `out` is `[oc][oy][ox][lane]`,
/// which for `L = 1` is plain CHW. The weights are first regrouped into
/// `wblk` as `[oc / B][ic][ky][kx][B]`, zero past `out_c`, each block led
/// by its `B` biases (zero without a bias). Each output pixel and channel
/// block keeps `L × B` accumulators, one per (lane, channel), and each
/// tap adds `input * weight` to all of them: independent chains over
/// contiguous weights, so the loop vectorizes and no add waits on the one
/// before it. Only valid channels are stored (DESIGN.md §10 has the why).
///
/// Bit-identical to the scalar reference on every lane: each output
/// element is still one accumulator that starts at its bias and adds
/// `input * weight` in ic → ky → kx order, with no fused multiply-add;
/// blocking only interleaves independent chains. `kernel_range` skips
/// exactly the out-of-bounds terms the scalar loop `continue`d past
/// (which contribute nothing), so the FP addition sequence is unchanged.
#[allow(clippy::needless_range_loop)] // The indexed loop is the fast one.
fn conv2d_blocked<const L: usize, const B: usize>(
    input: &[f32],
    weights: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
    p: &ConvParams,
    wblk: &mut Vec<f32>,
) {
    let (ic_n, ih, iw) = (p.in_c as usize, p.in_h as usize, p.in_w as usize);
    let (oc_n, oh, ow) = (p.out_c as usize, p.out_h() as usize, p.out_w() as usize);
    let (k, s, pad) = (p.k as usize, p.stride as usize, p.pad as usize);
    let (taps, blk_len) = (ic_n * k * k, (ic_n * k * k + 1) * B);
    wblk.clear();
    wblk.resize(oc_n.div_ceil(B) * blk_len, 0.0);
    for oc in 0..oc_n {
        let blk = &mut wblk[oc / B * blk_len..(oc / B + 1) * blk_len];
        blk[oc % B] = bias.map_or(0.0, |b| b[oc]);
        for (t, &wv) in weights[oc * taps..(oc + 1) * taps].iter().enumerate() {
            blk[(t + 1) * B + oc % B] = wv;
        }
    }
    for oy in 0..oh {
        let (ky_lo, ky_hi) = kernel_range(oy, k, s, pad, ih);
        let iy_base = oy as i64 * s as i64 - pad as i64;
        for ox in 0..ow {
            let (kx_lo, kx_hi) = kernel_range(ox, k, s, pad, iw);
            // The first in-bounds tap's column; with none, any in-bounds one.
            let ix_lo = (ox * s + kx_lo).saturating_sub(pad).min(iw);
            for oc0 in (0..oc_n).step_by(B) {
                let live = B.min(oc_n - oc0);
                let (b0, w_blk) = wblk[oc0 / B * blk_len..][..blk_len].split_at(B);
                let mut acc = [<[f32; B]>::try_from(b0).unwrap(); L];
                for ic in 0..ic_n {
                    let in_ch = &input[ic * ih * iw * L..(ic + 1) * ih * iw * L];
                    let w_ic = &w_blk[ic * k * k * B..(ic + 1) * k * k * B];
                    for ky in ky_lo..ky_hi {
                        let row = (iy_base + ky as i64) as usize * iw;
                        let xs = &in_ch[(row + ix_lo) * L..(row + ix_lo + kx_hi - kx_lo) * L];
                        let ws = &w_ic[(ky * k + kx_lo) * B..(ky * k + kx_hi) * B];
                        for (v, w) in xs.chunks_exact(L).zip(ws.chunks_exact(B)) {
                            let v: &[f32; L] = v.try_into().unwrap();
                            let w: &[f32; B] = w.try_into().unwrap();
                            for l in 0..L {
                                for b in 0..B {
                                    acc[l][b] += v[l] * w[b];
                                }
                            }
                        }
                    }
                }
                for b in 0..live {
                    let at = (((oc0 + b) * oh + oy) * ow + ox) * L;
                    for l in 0..L {
                        out[at + l] = acc[l][b];
                    }
                }
            }
        }
    }
}

/// Cache-blocked matmul (i-k-j loop order with k blocking).
///
/// Bit-identical to the scalar reference: each `out[i][j]` starts at the
/// bias and accumulates `a[i][kk] * b[kk][j]` in ascending `kk`, the same
/// FP addition sequence as the j-inner scalar loop — only the traversal
/// is reordered so `b` rows stream through cache.
fn matmul_blocked(
    a: &[f32],
    b: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    const KB: usize = 64;
    for i in 0..m {
        let row = &mut out[i * n..(i + 1) * n];
        match bias {
            Some(bias) => row.copy_from_slice(&bias[..n]),
            None => row.fill(0.0),
        }
    }
    let mut kb = 0;
    while kb < k {
        let kend = (kb + KB).min(k);
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            for kk in kb..kend {
                let aik = arow[kk];
                let brow = &b[kk * n..(kk + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += aik * bv;
                }
            }
        }
        kb = kend;
    }
}

/// Runs the kernel of a fusable head op (conv2d / matmul / elementwise
/// add), staging its result in `scratch.out` *without* writing it back.
/// Returns the op's output VA. Both the standalone path and the fused path
/// go through this function, which is what makes fused results bitwise
/// identical: the staged f32 values are the same either way, only where
/// they are written differs.
fn stage_head_kernel(
    mem: &mut Memory,
    w: &Walker,
    tlb: &mut Tlb,
    scratch: &mut ExecScratch,
    op: &ShaderOp,
    present_cores: u32,
    rep: &mut ExecReport,
) -> Result<u64, ShaderFault> {
    match *op {
        ShaderOp::Conv2d {
            in_va,
            w_va,
            b_va,
            out_va,
            p,
            tiles,
        } => {
            check_tiles(tiles, present_cores)?;
            read_f32s_bulk(
                mem,
                w,
                tlb,
                rep,
                in_va,
                (p.in_c * p.in_h * p.in_w) as usize,
                &mut scratch.a,
            )?;
            // Weights and bias are read-only and identical for every lane
            // of a batched replay: resident across the batch loop.
            let w_elems = (p.out_c * p.in_c * p.k * p.k) as usize;
            read_f32s_bulk(mem, w, tlb, rep, w_va, w_elems, &mut scratch.b)?;
            rep.resident_elems += w_elems as u64;
            // No allocation when the op carries no bias: the kernel seeds
            // the accumulator with 0.0 directly.
            if b_va != 0 {
                read_f32s_bulk(mem, w, tlb, rep, b_va, p.out_c as usize, &mut scratch.bias)?;
                rep.resident_elems += p.out_c as u64;
            }
            let (oh, ow) = (p.out_h() as usize, p.out_w() as usize);
            scratch.out.clear();
            scratch.out.resize(p.out_c as usize * oh * ow, 0.0);
            if !scratch.take_lane_out(op) {
                let bias = (b_va != 0).then_some(scratch.bias.as_slice());
                conv2d_blocked::<1, OC_BLOCK>(
                    &scratch.a,
                    &scratch.b,
                    bias,
                    &mut scratch.out,
                    &p,
                    &mut scratch.wblk,
                );
            }
            Ok(out_va)
        }
        ShaderOp::MatMul {
            a_va,
            b_va,
            bias_va,
            out_va,
            m,
            k,
            n,
            tiles,
        } => {
            check_tiles(tiles, present_cores)?;
            read_f32s_bulk(mem, w, tlb, rep, a_va, (m * k) as usize, &mut scratch.a)?;
            // The B matrix (model parameters) and bias are batch-resident,
            // like conv weights.
            read_f32s_bulk(mem, w, tlb, rep, b_va, (k * n) as usize, &mut scratch.b)?;
            rep.resident_elems += (k * n) as u64;
            let bias = if bias_va != 0 {
                read_f32s_bulk(mem, w, tlb, rep, bias_va, n as usize, &mut scratch.bias)?;
                rep.resident_elems += n as u64;
                Some(scratch.bias.as_slice())
            } else {
                None
            };
            scratch.out.clear();
            scratch.out.resize((m * n) as usize, 0.0);
            matmul_blocked(
                &scratch.a,
                &scratch.b,
                bias,
                &mut scratch.out,
                m as usize,
                k as usize,
                n as usize,
            );
            Ok(out_va)
        }
        ShaderOp::Add {
            a_va,
            b_va,
            out_va,
            len,
        } => {
            read_f32s_bulk(mem, w, tlb, rep, a_va, len as usize, &mut scratch.a)?;
            read_f32s_bulk(mem, w, tlb, rep, b_va, len as usize, &mut scratch.b)?;
            add_elementwise(&scratch.a, &scratch.b, &mut scratch.out);
            Ok(out_va)
        }
        // Only reachable through a corrupt fusion plan: non-fusable ops
        // never take this path from `execute_op`.
        _ => Err(ShaderFault::FusionMismatch),
    }
}

/// `out[i] = a[i] + b[i]`, for the unfused `Add` kernel and the fused add
/// tail alike. Which input NaN payload an add passes on can depend on the
/// operand order the compiler picks for a given loop, so both callers run
/// this one out-of-line copy: a fused add returns the unfused add's bits.
#[inline(never)]
fn add_elementwise(a: &[f32], b: &[f32], out: &mut Vec<f32>) {
    out.clear();
    out.extend(a.iter().zip(b).map(|(x, y)| x + y));
}

/// Executes the head instruction of a fused chain and applies its tails
/// while the result sits in `scratch.out` (DESIGN.md §15).
///
/// FP order matches the sequential kernels exactly: the head kernel
/// finishes every output element (bias included) before any tail touches
/// it, the fused `add` preserves the recorded operand order, and `relu`
/// is `v.max(0.0)` elementwise — so the staged bits equal what a
/// standalone `Add`/`Relu` would have read back from the carveout.
#[allow(clippy::too_many_arguments)]
fn execute_fused(
    mem: &mut Memory,
    w: &Walker,
    tlb: &mut Tlb,
    scratch: &mut ExecScratch,
    op: &ShaderOp,
    d: &FusedDirective,
    present_cores: u32,
    rep: &mut ExecReport,
) -> Result<(), ShaderFault> {
    if OpKind::of(op) != d.head {
        return Err(ShaderFault::FusionMismatch);
    }
    let out_va = stage_head_kernel(mem, w, tlb, scratch, op, present_cores, rep)?;
    if out_va != d.head_out_va || scratch.out.len() as u64 != d.head_len {
        return Err(ShaderFault::FusionMismatch);
    }
    if let Some(t) = &d.tail_add {
        if t.len != d.head_len {
            return Err(ShaderFault::FusionMismatch);
        }
        read_f32s_bulk(
            mem,
            w,
            tlb,
            rep,
            t.other_va,
            t.len as usize,
            &mut scratch.tail,
        )?;
        // Operand order must match the unfused Add kernel's `a + b`, and
        // so must the instructions: both go through `add_elementwise`.
        // The head's input in `scratch.a` is spent, so it takes the sum.
        let (a, b) = if t.interm_first {
            (&scratch.out, &scratch.tail)
        } else {
            (&scratch.tail, &scratch.out)
        };
        add_elementwise(a, b, &mut scratch.a);
        std::mem::swap(&mut scratch.out, &mut scratch.a);
    }
    if d.tail_relu {
        for o in &mut scratch.out {
            *o = o.max(0.0);
        }
    }
    write_f32s_bulk(mem, w, tlb, rep, d.final_out_va(), &scratch.out)?;
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn execute_op(
    mem: &mut Memory,
    w: &Walker,
    tlb: &mut Tlb,
    scratch: &mut ExecScratch,
    op: &ShaderOp,
    present_cores: u32,
    rep: &mut ExecReport,
) -> Result<(), ShaderFault> {
    match *op {
        ShaderOp::Conv2d { .. } | ShaderOp::MatMul { .. } | ShaderOp::Add { .. } => {
            let out_va = stage_head_kernel(mem, w, tlb, scratch, op, present_cores, rep)?;
            write_f32s_bulk(mem, w, tlb, rep, out_va, &scratch.out)?;
        }
        ShaderOp::Pool {
            in_va,
            out_va,
            kind,
            c,
            h,
            w: width,
            k,
            stride,
        } => {
            read_f32s_bulk(
                mem,
                w,
                tlb,
                rep,
                in_va,
                (c * h * width) as usize,
                &mut scratch.a,
            )?;
            let input = &scratch.a;
            let oh = ((h - k) / stride + 1) as usize;
            let ow = ((width - k) / stride + 1) as usize;
            let (hw, wd, ks, ss) = (
                (h * width) as usize,
                width as usize,
                k as usize,
                stride as usize,
            );
            scratch.out.clear();
            scratch.out.resize(c as usize * oh * ow, 0.0);
            // One loop nest per flavour: max pooling no longer pays for a
            // running sum it discards (and vice versa). The per-window
            // fold order is unchanged, so results stay bit-identical.
            match kind {
                PoolKind::Max => {
                    for ch in 0..c as usize {
                        let in_ch = &input[ch * hw..(ch + 1) * hw];
                        for oy in 0..oh {
                            for ox in 0..ow {
                                let mut best = f32::NEG_INFINITY;
                                for ky in 0..ks {
                                    let row = &in_ch[(oy * ss + ky) * wd + ox * ss..];
                                    for &v in &row[..ks] {
                                        best = best.max(v);
                                    }
                                }
                                scratch.out[ch * oh * ow + oy * ow + ox] = best;
                            }
                        }
                    }
                }
                PoolKind::Avg => {
                    let denom = (k * k) as f32;
                    for ch in 0..c as usize {
                        let in_ch = &input[ch * hw..(ch + 1) * hw];
                        for oy in 0..oh {
                            for ox in 0..ow {
                                let mut sum = 0.0f32;
                                for ky in 0..ks {
                                    let row = &in_ch[(oy * ss + ky) * wd + ox * ss..];
                                    for &v in &row[..ks] {
                                        sum += v;
                                    }
                                }
                                scratch.out[ch * oh * ow + oy * ow + ox] = sum / denom;
                            }
                        }
                    }
                }
            }
            write_f32s_bulk(mem, w, tlb, rep, out_va, &scratch.out)?;
        }
        ShaderOp::Relu { in_va, out_va, len } => {
            read_f32s_bulk(mem, w, tlb, rep, in_va, len as usize, &mut scratch.a)?;
            scratch.out.clear();
            scratch.out.extend(scratch.a.iter().map(|&v| v.max(0.0)));
            write_f32s_bulk(mem, w, tlb, rep, out_va, &scratch.out)?;
        }
        ShaderOp::Softmax { in_va, out_va, len } => {
            read_f32s_bulk(mem, w, tlb, rep, in_va, len as usize, &mut scratch.a)?;
            let max = scratch.a.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            scratch.out.clear();
            scratch
                .out
                .extend(scratch.a.iter().map(|&v| (v - max).exp()));
            let sum: f32 = scratch.out.iter().sum();
            for e in &mut scratch.out {
                *e /= sum;
            }
            write_f32s_bulk(mem, w, tlb, rep, out_va, &scratch.out)?;
        }
        ShaderOp::Copy {
            src_va,
            dst_va,
            len,
        } => {
            let bytes = len as u64 * 4;
            let aligned = src_va.is_multiple_of(4) && dst_va.is_multiple_of(4);
            let overlaps = src_va < dst_va + bytes && dst_va < src_va + bytes;
            // Identity copies (src == dst) overlap *fully*, which is the
            // one overlap shape the direct path handles exactly: every run
            // aliases in place and nothing moves.
            if aligned && (src_va == dst_va || !overlaps) {
                copy_f32s_bulk(mem, w, tlb, rep, src_va, dst_va, len as usize)?;
            } else {
                // Staged oracle path: read everything, then write — the
                // only order that is well-defined for overlapping ranges.
                read_f32s_bulk(mem, w, tlb, rep, src_va, len as usize, &mut scratch.a)?;
                write_f32s_bulk(mem, w, tlb, rep, dst_va, &scratch.a)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
#[path = "../tests/support/reference.rs"]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::PAGE_SIZE;
    use crate::mmu::{map_page, PteFlags};

    /// Executes one op with a fresh TLB and scratch (test convenience).
    fn exec(mem: &mut Memory, w: &Walker, op: &ShaderOp, cores: u32) -> Result<(), ShaderFault> {
        let mut tlb = Tlb::new();
        let mut scratch = ExecScratch::default();
        let mut rep = ExecReport::default();
        execute_op(mem, w, &mut tlb, &mut scratch, op, cores, &mut rep)
    }

    /// Runs a one-instruction program against one memory, as a scalar
    /// job does, and returns its report or fault.
    fn run_one(
        mem: &mut Memory,
        w: &Walker,
        tlb: &mut Tlb,
        scratch: &mut ExecScratch,
        shader_va: u64,
        fused: Option<&FusedDirective>,
    ) -> Result<ExecReport, ShaderFault> {
        let mut out = Err(ShaderFault::BadInstruction);
        let _ = execute_program(
            &mut [mem],
            w,
            tlb,
            scratch,
            shader_va,
            1,
            8,
            fused,
            |_, _, r| out = *r,
        );
        out
    }

    /// Deterministic pseudo-random f32 stream in roughly [-2, 2).
    fn lcg(seed: u64) -> impl FnMut() -> f32 {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 40) as i32 - (1 << 23)) as f32 / (1 << 22) as f32
        }
    }

    fn fill(n: usize, rng: &mut impl FnMut() -> f32) -> Vec<f32> {
        (0..n).map(|_| rng()).collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn all_ops() -> Vec<ShaderOp> {
        vec![
            ShaderOp::Conv2d {
                in_va: 0x1000,
                w_va: 0x2000,
                b_va: 0x3000,
                out_va: 0x4000,
                p: ConvParams {
                    in_c: 3,
                    in_h: 8,
                    in_w: 8,
                    out_c: 4,
                    k: 3,
                    stride: 1,
                    pad: 0,
                },
                tiles: 8,
            },
            ShaderOp::MatMul {
                a_va: 1,
                b_va: 2,
                bias_va: 3,
                out_va: 4,
                m: 5,
                k: 6,
                n: 7,
                tiles: 8,
            },
            ShaderOp::Pool {
                in_va: 9,
                out_va: 10,
                kind: PoolKind::Avg,
                c: 2,
                h: 4,
                w: 4,
                k: 2,
                stride: 2,
            },
            ShaderOp::Relu {
                in_va: 1,
                out_va: 2,
                len: 77,
            },
            ShaderOp::Add {
                a_va: 1,
                b_va: 2,
                out_va: 3,
                len: 5,
            },
            ShaderOp::Softmax {
                in_va: 1,
                out_va: 2,
                len: 10,
            },
            ShaderOp::Copy {
                src_va: 1,
                dst_va: 2,
                len: 9,
            },
        ]
    }

    #[test]
    fn encode_decode_round_trip() {
        for op in all_ops() {
            let rec = op.encode();
            let back = ShaderOp::decode(&rec).unwrap();
            assert_eq!(back, op);
        }
    }

    #[test]
    fn unknown_opcode_rejected() {
        let mut rec = [0u8; INSTR_SIZE];
        rec[0] = 0xFE;
        assert!(ShaderOp::decode(&rec).is_none());
    }

    /// Identity-map `npages` starting at VA/PA 0x1000 and return a walker.
    fn setup_mapped(npages: usize) -> (Memory, Walker) {
        let mut mem = Memory::new((npages + 8) * PAGE_SIZE);
        let table_region = (npages + 2) * PAGE_SIZE;
        let mut next_table = table_region as u64;
        let root = next_table;
        next_table += PAGE_SIZE as u64;
        for i in 0..npages {
            let addr = 0x1000 + (i * PAGE_SIZE) as u64;
            map_page(&mut mem, root, addr, addr, PteFlags::rwx(), 0, &mut || {
                let pa = next_table;
                next_table += PAGE_SIZE as u64;
                pa
            })
            .unwrap();
        }
        (
            mem,
            Walker {
                root_pa: root,
                quirk: 0,
                asn: 0,
            },
        )
    }

    #[test]
    fn matmul_computes_correctly() {
        let (mut mem, w) = setup_mapped(4);
        // a = [[1,2],[3,4]], b = [[5,6],[7,8]], bias = [10, 20].
        let a_va = 0x1000u64;
        let b_va = 0x1100u64;
        let bias_va = 0x1200u64;
        let out_va = 0x1300u64;
        for (i, v) in [1.0f32, 2.0, 3.0, 4.0].iter().enumerate() {
            let pa = w
                .translate(&mem, a_va + (i * 4) as u64, AccessKind::Write)
                .unwrap();
            mem.write_f32(pa, *v, crate::mem::Accessor::Gpu).unwrap();
        }
        for (i, v) in [5.0f32, 6.0, 7.0, 8.0].iter().enumerate() {
            let pa = w
                .translate(&mem, b_va + (i * 4) as u64, AccessKind::Write)
                .unwrap();
            mem.write_f32(pa, *v, crate::mem::Accessor::Gpu).unwrap();
        }
        for (i, v) in [10.0f32, 20.0].iter().enumerate() {
            let pa = w
                .translate(&mem, bias_va + (i * 4) as u64, AccessKind::Write)
                .unwrap();
            mem.write_f32(pa, *v, crate::mem::Accessor::Gpu).unwrap();
        }
        let op = ShaderOp::MatMul {
            a_va,
            b_va,
            bias_va,
            out_va,
            m: 2,
            k: 2,
            n: 2,
            tiles: 8,
        };
        exec(&mut mem, &w, &op, 8).unwrap();
        let expect = [29.0f32, 42.0, 53.0, 70.0]; // a*b + bias
        for (i, e) in expect.iter().enumerate() {
            let pa = w
                .translate(&mem, out_va + (i * 4) as u64, AccessKind::Read)
                .unwrap();
            assert_eq!(mem.read_f32(pa, crate::mem::Accessor::Gpu).unwrap(), *e);
        }
    }

    #[test]
    fn conv_identity_kernel() {
        let (mut mem, w) = setup_mapped(4);
        let in_va = 0x1000u64;
        let w_va = 0x1400u64;
        let out_va = 0x1800u64;
        // 1x4x4 input, 1 output channel, 1x1 identity kernel.
        for i in 0..16 {
            let pa = w.translate(&mem, in_va + i * 4, AccessKind::Write).unwrap();
            mem.write_f32(pa, i as f32, crate::mem::Accessor::Gpu)
                .unwrap();
        }
        let pa = w.translate(&mem, w_va, AccessKind::Write).unwrap();
        mem.write_f32(pa, 1.0, crate::mem::Accessor::Gpu).unwrap();
        let op = ShaderOp::Conv2d {
            in_va,
            w_va,
            b_va: 0,
            out_va,
            p: ConvParams {
                in_c: 1,
                in_h: 4,
                in_w: 4,
                out_c: 1,
                k: 1,
                stride: 1,
                pad: 0,
            },
            tiles: 4,
        };
        exec(&mut mem, &w, &op, 4).unwrap();
        for i in 0..16 {
            let pa = w.translate(&mem, out_va + i * 4, AccessKind::Read).unwrap();
            assert_eq!(
                mem.read_f32(pa, crate::mem::Accessor::Gpu).unwrap(),
                i as f32
            );
        }
    }

    #[test]
    fn tile_mismatch_faults() {
        let (mut mem, w) = setup_mapped(4);
        let op = ShaderOp::MatMul {
            a_va: 0x1000,
            b_va: 0x1100,
            bias_va: 0,
            out_va: 0x1200,
            m: 1,
            k: 1,
            n: 1,
            tiles: 8,
        };
        let r = exec(&mut mem, &w, &op, 4);
        assert_eq!(
            r,
            Err(ShaderFault::TileMismatch {
                compiled_for: 8,
                present: 4
            })
        );
    }

    #[test]
    fn pool_max_and_avg() {
        let (mut mem, w) = setup_mapped(2);
        let in_va = 0x1000u64;
        for (i, v) in [1.0f32, 2.0, 3.0, 4.0].iter().enumerate() {
            let pa = w
                .translate(&mem, in_va + (i * 4) as u64, AccessKind::Write)
                .unwrap();
            mem.write_f32(pa, *v, crate::mem::Accessor::Gpu).unwrap();
        }
        let max_op = ShaderOp::Pool {
            in_va,
            out_va: 0x1100,
            kind: PoolKind::Max,
            c: 1,
            h: 2,
            w: 2,
            k: 2,
            stride: 2,
        };
        exec(&mut mem, &w, &max_op, 8).unwrap();
        let pa = w.translate(&mem, 0x1100, AccessKind::Read).unwrap();
        assert_eq!(mem.read_f32(pa, crate::mem::Accessor::Gpu).unwrap(), 4.0);

        let avg_op = ShaderOp::Pool {
            in_va,
            out_va: 0x1200,
            kind: PoolKind::Avg,
            c: 1,
            h: 2,
            w: 2,
            k: 2,
            stride: 2,
        };
        exec(&mut mem, &w, &avg_op, 8).unwrap();
        let pa = w.translate(&mem, 0x1200, AccessKind::Read).unwrap();
        assert_eq!(mem.read_f32(pa, crate::mem::Accessor::Gpu).unwrap(), 2.5);
    }

    #[test]
    fn softmax_normalizes() {
        let (mut mem, w) = setup_mapped(2);
        for (i, v) in [1.0f32, 2.0, 3.0].iter().enumerate() {
            let pa = w
                .translate(&mem, 0x1000 + (i * 4) as u64, AccessKind::Write)
                .unwrap();
            mem.write_f32(pa, *v, crate::mem::Accessor::Gpu).unwrap();
        }
        let op = ShaderOp::Softmax {
            in_va: 0x1000,
            out_va: 0x1100,
            len: 3,
        };
        exec(&mut mem, &w, &op, 8).unwrap();
        let mut sum = 0.0f32;
        let mut vals = [0.0f32; 3];
        for (i, v) in vals.iter_mut().enumerate() {
            let pa = w
                .translate(&mem, 0x1100 + (i * 4) as u64, AccessKind::Read)
                .unwrap();
            *v = mem.read_f32(pa, crate::mem::Accessor::Gpu).unwrap();
            sum += *v;
        }
        assert!((sum - 1.0).abs() < 1e-5);
        assert!(vals[2] > vals[1] && vals[1] > vals[0]);
    }

    #[test]
    fn relu_clamps_negatives() {
        let (mut mem, w) = setup_mapped(2);
        for (i, v) in [-1.0f32, 0.5, -3.0, 2.0].iter().enumerate() {
            let pa = w
                .translate(&mem, 0x1000 + (i * 4) as u64, AccessKind::Write)
                .unwrap();
            mem.write_f32(pa, *v, crate::mem::Accessor::Gpu).unwrap();
        }
        exec(
            &mut mem,
            &w,
            &ShaderOp::Relu {
                in_va: 0x1000,
                out_va: 0x1000,
                len: 4,
            },
            8,
        )
        .unwrap();
        let expect = [0.0f32, 0.5, 0.0, 2.0];
        for (i, e) in expect.iter().enumerate() {
            let pa = w
                .translate(&mem, 0x1000 + (i * 4) as u64, AccessKind::Read)
                .unwrap();
            assert_eq!(mem.read_f32(pa, crate::mem::Accessor::Gpu).unwrap(), *e);
        }
    }

    #[test]
    fn copy_direct_path_matches_staged_oracle_bitwise() {
        // Span several pages so translate_run splits the copy into runs.
        let n = 3 * PAGE_SIZE / 4 + 13;
        let mut rng = lcg(5);
        let data = fill(n, &mut rng);
        let src_va = 0x1000u64;
        let dst_va = src_va + (4 * PAGE_SIZE) as u64;

        // Direct (memmove) path: disjoint aligned ranges.
        let (mut mem, w) = setup_mapped(10);
        let mut tlb = Tlb::new();
        let mut rep = ExecReport::default();
        write_f32s_bulk(&mut mem, &w, &mut tlb, &mut rep, src_va, &data).unwrap();
        let mut rep = ExecReport::default();
        let mut scratch = ExecScratch::default();
        let op = ShaderOp::Copy {
            src_va,
            dst_va,
            len: n as u32,
        };
        execute_op(&mut mem, &w, &mut tlb, &mut scratch, &op, 8, &mut rep).unwrap();
        // Accounting parity with the staged path: one read + one write
        // per element (the timing model's input).
        assert_eq!(rep.element_accesses, 2 * n as u64);
        assert!(rep.bulk_runs >= 2, "direct copy still reports bulk runs");
        let mut direct = Vec::new();
        read_f32s_bulk(
            &mem,
            &w,
            &mut tlb,
            &mut ExecReport::default(),
            dst_va,
            n,
            &mut direct,
        )
        .unwrap();

        // Staged oracle on an identical second device.
        let (mut mem2, w2) = setup_mapped(10);
        let mut tlb2 = Tlb::new();
        let mut rep2 = ExecReport::default();
        write_f32s_bulk(&mut mem2, &w2, &mut tlb2, &mut rep2, src_va, &data).unwrap();
        let mut scratch2 = ExecScratch::default();
        read_f32s_bulk(&mem2, &w2, &mut tlb2, &mut rep2, src_va, n, &mut scratch2.a).unwrap();
        write_f32s_bulk(&mut mem2, &w2, &mut tlb2, &mut rep2, dst_va, &scratch2.a).unwrap();
        let mut staged = Vec::new();
        read_f32s_bulk(
            &mem2,
            &w2,
            &mut tlb2,
            &mut ExecReport::default(),
            dst_va,
            n,
            &mut staged,
        )
        .unwrap();
        assert_eq!(bits(&direct), bits(&staged));
    }

    #[test]
    fn overlapping_copy_falls_back_to_staged_semantics() {
        // src and dst overlap by all but one element: the staged path
        // reads everything before writing, so the result is a clean
        // shifted copy with no self-feedback.
        let (mut mem, w) = setup_mapped(4);
        let data: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let mut tlb = Tlb::new();
        let mut rep = ExecReport::default();
        write_f32s_bulk(&mut mem, &w, &mut tlb, &mut rep, 0x1000, &data).unwrap();
        let op = ShaderOp::Copy {
            src_va: 0x1000,
            dst_va: 0x1004,
            len: 64,
        };
        let mut scratch = ExecScratch::default();
        let mut rep = ExecReport::default();
        execute_op(&mut mem, &w, &mut tlb, &mut scratch, &op, 8, &mut rep).unwrap();
        let mut out = Vec::new();
        read_f32s_bulk(
            &mem,
            &w,
            &mut tlb,
            &mut ExecReport::default(),
            0x1004,
            64,
            &mut out,
        )
        .unwrap();
        assert_eq!(bits(&out), bits(&data));
    }

    #[test]
    fn program_executes_from_shader_pages() {
        let (mut mem, w) = setup_mapped(8);
        // Program: copy 4 elements from 0x2000 to 0x3000.
        let shader_va = 0x1000u64;
        let rec = ShaderOp::Copy {
            src_va: 0x2000,
            dst_va: 0x3000,
            len: 4,
        }
        .encode();
        for (j, byte) in rec.iter().enumerate() {
            let pa = w
                .translate(&mem, shader_va + j as u64, AccessKind::Write)
                .unwrap();
            mem.write(pa, &[*byte], crate::mem::Accessor::Gpu).unwrap();
        }
        for i in 0..4 {
            let pa = w
                .translate(&mem, 0x2000 + i * 4, AccessKind::Write)
                .unwrap();
            mem.write_f32(pa, (i * 10) as f32, crate::mem::Accessor::Gpu)
                .unwrap();
        }
        let mut tlb = Tlb::new();
        let mut scratch = ExecScratch::default();
        let rep = run_one(&mut mem, &w, &mut tlb, &mut scratch, shader_va, None).unwrap();
        assert_eq!(rep.macs, 2);
        assert_eq!(rep.per_kind[OpKind::Copy.index()].events, 1);
        assert_eq!(rep.per_kind[OpKind::Conv2d.index()].events, 0);
        let ts = tlb.stats();
        assert!(
            ts.hits + ts.misses >= rep.bulk_runs,
            "every bulk run translates at least once"
        );
        assert!(
            (ts.misses as usize) < INSTR_SIZE,
            "bulk fetch must not walk once per byte (misses={})",
            ts.misses
        );
        for i in 0..4 {
            let pa = w.translate(&mem, 0x3000 + i * 4, AccessKind::Read).unwrap();
            assert_eq!(
                mem.read_f32(pa, crate::mem::Accessor::Gpu).unwrap(),
                (i * 10) as f32
            );
        }
    }

    #[test]
    fn blocked_matmul_matches_reference_bitwise() {
        let mut rng = lcg(1);
        for &(m, k, n) in &[(1, 1, 1), (2, 3, 4), (7, 5, 9), (16, 64, 10), (33, 129, 17)] {
            let a = fill(m * k, &mut rng);
            let b = fill(k * n, &mut rng);
            let bias = fill(n, &mut rng);
            let mut fast = vec![0.0; m * n];
            matmul_blocked(&a, &b, Some(&bias), &mut fast, m, k, n);
            assert_eq!(
                bits(&fast),
                bits(&reference::matmul(&a, &b, &bias, m, k, n)),
                "matmul {m}x{k}x{n}"
            );
            // The no-bias fast path seeds 0.0 — identical to the reference
            // fed the zero bias vector the old engine allocated.
            let zero = vec![0.0; n];
            let mut fast0 = vec![0.0; m * n];
            matmul_blocked(&a, &b, None, &mut fast0, m, k, n);
            assert_eq!(
                bits(&fast0),
                bits(&reference::matmul(&a, &b, &zero, m, k, n)),
                "matmul-nobias {m}x{k}x{n}"
            );
        }
    }

    /// Each block width's edge cases for `out_c`: one short of a block,
    /// one block, one over, and two blocks and one over.
    fn block_edges() -> std::collections::BTreeSet<u32> {
        [OC_BLOCK, LANE_OC_BLOCK]
            .iter()
            .flat_map(|&b| [b - 1, b, b + 1, 2 * b + 1])
            .map(|c| c as u32)
            .collect()
    }

    #[test]
    fn blocked_conv_matches_reference_bitwise() {
        let mut rng = lcg(2);
        // Geometries covering k=1, pad=0, pad>0, stride>1, k=stride,
        // non-square inputs, pad up to k-1 and past k (output pixels
        // with no in-bounds tap), every block edge of `out_c`
        // for both block widths, and inputs of at most k+1 per side,
        // where every output pixel touches the border.
        let geoms: [(u32, u32, u32, u32, u32, u32, u32); 17] = [
            (1, 5, 5, 1, 3, 1, 1),
            (3, 8, 8, 4, 3, 1, 0),
            (2, 9, 7, 3, 3, 2, 1),
            (4, 16, 16, 8, 5, 2, 2),
            (1, 4, 4, 2, 4, 4, 0),
            (3, 7, 7, 5, 1, 1, 0),
            (2, 6, 6, 3, 3, 3, 2),
            (3, 5, 6, 9, 3, 1, 1),
            (2, 7, 5, 15, 3, 2, 1),
            (5, 6, 6, 16, 3, 1, 1),
            (2, 4, 4, 17, 3, 1, 1),
            (3, 3, 2, 33, 3, 1, 1),
            (4, 6, 6, 15, 5, 1, 2),
            (2, 2, 2, 9, 1, 1, 0),
            (3, 3, 3, 17, 3, 2, 1),
            (3, 4, 5, 7, 3, 1, 1),
            (2, 2, 2, 9, 1, 2, 2),
        ];
        let mut seen_out_c = std::collections::BTreeSet::new();
        let mut border_only = 0;
        for &(in_c, in_h, in_w, out_c, k, stride, pad) in &geoms {
            let p = ConvParams {
                in_c,
                in_h,
                in_w,
                out_c,
                k,
                stride,
                pad,
            };
            seen_out_c.insert(out_c);
            border_only += usize::from(in_h <= k + 1 && in_w <= k + 1);
            let input = fill((in_c * in_h * in_w) as usize, &mut rng);
            let weights = fill((out_c * in_c * k * k) as usize, &mut rng);
            let bias = fill(out_c as usize, &mut rng);
            let out_len = (out_c * p.out_h() * p.out_w()) as usize;
            let mut wblk = Vec::new();
            let mut fast = vec![0.0; out_len];
            conv2d_blocked::<1, OC_BLOCK>(&input, &weights, Some(&bias), &mut fast, &p, &mut wblk);
            assert_eq!(
                bits(&fast),
                bits(&reference::conv2d(&input, &weights, &bias, &p)),
                "conv {p:?}"
            );
            // The lane-major instance on LANES different inputs: every
            // lane equals the reference conv of its own input.
            let inputs: Vec<Vec<f32>> = (0..LANES).map(|_| fill(input.len(), &mut rng)).collect();
            let mut lane_in = vec![0.0; input.len() * LANES];
            for (l, x) in inputs.iter().enumerate() {
                for (i, &v) in x.iter().enumerate() {
                    lane_in[i * LANES + l] = v;
                }
            }
            let mut lanes_out = vec![0.0; out_len * LANES];
            conv2d_blocked::<LANES, LANE_OC_BLOCK>(
                &lane_in,
                &weights,
                Some(&bias),
                &mut lanes_out,
                &p,
                &mut wblk,
            );
            for (l, x) in inputs.iter().enumerate() {
                let got: Vec<f32> = lane(&lanes_out, l).copied().collect();
                assert_eq!(
                    bits(&got),
                    bits(&reference::conv2d(x, &weights, &bias, &p)),
                    "conv {p:?} lane {l}"
                );
            }
        }
        assert!(
            block_edges().is_subset(&seen_out_c),
            "every block edge of out_c ran: {seen_out_c:?}"
        );
        assert!(border_only >= 3, "border-only shapes ran");
    }

    /// A lane whose weight or bias bytes differ from the leading lane's
    /// gets none of the leader's: it runs the scalar kernel on its own
    /// operands, and every lane matches its own scalar execution.
    #[test]
    fn lane_with_other_weights_matches_its_scalar_run() {
        let (base, w) = setup_mapped(10);
        let (shader_va, in_va, w_va, b_va, out_va) = (0x1000, 0x2000, 0x4000, 0x6000, 0x7000);
        let p = ConvParams {
            in_c: 3,
            in_h: 6,
            in_w: 7,
            out_c: 4,
            k: 3,
            stride: 1,
            pad: 1,
        };
        let op = ShaderOp::Conv2d {
            in_va,
            w_va,
            b_va,
            out_va,
            p,
            tiles: 8,
        };
        let mut rng = lcg(5);
        let weights = fill((p.out_c * p.in_c * p.k * p.k) as usize, &mut rng);
        let bias = fill(p.out_c as usize, &mut rng);
        let mut lanes: Vec<Memory> = (0..5)
            .map(|_| {
                let mut m = base.clone();
                write_program(&mut m, &w, shader_va, &op);
                write_f32s(
                    &mut m,
                    &w,
                    in_va,
                    &fill((p.in_c * p.in_h * p.in_w) as usize, &mut rng),
                );
                write_f32s(&mut m, &w, w_va, &weights);
                write_f32s(&mut m, &w, b_va, &bias);
                m
            })
            .collect();
        // Lane 2's weights and lane 4's bias differ by one element each.
        let mut other_w = weights.clone();
        other_w[5] = -other_w[5];
        write_f32s(&mut lanes[2], &w, w_va, &other_w);
        let mut other_b = bias.clone();
        other_b[1] += 1.0;
        write_f32s(&mut lanes[4], &w, b_va, &other_b);
        let alone = lanes.clone();

        let mut mems: Vec<&mut Memory> = lanes.iter_mut().collect();
        execute_program(
            &mut mems,
            &w,
            &mut Tlb::new(),
            &mut ExecScratch::default(),
            shader_va,
            1,
            8,
            None,
            |_, _, r| assert!(r.is_ok(), "{r:?}"),
        )
        .unwrap();
        let out_len = (p.out_c * p.out_h() * p.out_w()) as usize;
        for (i, (mem, mut single)) in lanes.iter().zip(alone).enumerate() {
            run_one(
                &mut single,
                &w,
                &mut Tlb::new(),
                &mut ExecScratch::default(),
                shader_va,
                None,
            )
            .unwrap();
            assert_eq!(
                bits(&read_f32s(mem, &w, out_va, out_len)),
                bits(&read_f32s(&single, &w, out_va, out_len)),
                "lane {i}"
            );
        }
        // The leader's weights would have given lane 2 other bits.
        let lane2_in = read_f32s(&lanes[2], &w, in_va, (p.in_c * p.in_h * p.in_w) as usize);
        assert_ne!(
            bits(&read_f32s(&lanes[2], &w, out_va, out_len)),
            bits(&reference::conv2d(&lane2_in, &weights, &bias, &p))
        );
    }

    #[test]
    fn split_pool_matches_reference_bitwise() {
        let mut rng = lcg(3);
        let geoms: [(u32, u32, u32, u32, u32); 4] = [
            (1, 4, 4, 2, 2),
            (3, 8, 8, 2, 2),
            (2, 9, 9, 3, 2),
            (4, 7, 7, 3, 1),
        ];
        for &(c, h, w, k, stride) in &geoms {
            let input = fill((c * h * w) as usize, &mut rng);
            for kind in [PoolKind::Max, PoolKind::Avg] {
                let (mut mem, walker) = setup_mapped(8);
                let in_va = 0x1000u64;
                let out_va = 0x3000u64;
                for (i, v) in input.iter().enumerate() {
                    let pa = walker
                        .translate(&mem, in_va + (i * 4) as u64, AccessKind::Write)
                        .unwrap();
                    mem.write_f32(pa, *v, crate::mem::Accessor::Gpu).unwrap();
                }
                let op = ShaderOp::Pool {
                    in_va,
                    out_va,
                    kind,
                    c,
                    h,
                    w,
                    k,
                    stride,
                };
                exec(&mut mem, &walker, &op, 8).unwrap();
                let oh = ((h - k) / stride + 1) as usize;
                let ow = ((w - k) / stride + 1) as usize;
                let expect = reference::pool(
                    &input,
                    kind,
                    c as usize,
                    h as usize,
                    w as usize,
                    k as usize,
                    stride as usize,
                );
                assert_eq!(expect.len(), c as usize * oh * ow);
                for (i, e) in expect.iter().enumerate() {
                    let pa = walker
                        .translate(&mem, out_va + (i * 4) as u64, AccessKind::Read)
                        .unwrap();
                    let got = mem.read_f32(pa, crate::mem::Accessor::Gpu).unwrap();
                    assert_eq!(got.to_bits(), e.to_bits(), "{kind:?} elem {i}");
                }
            }
        }
    }

    #[test]
    fn conv_macs_math() {
        let p = ConvParams {
            in_c: 3,
            in_h: 32,
            in_w: 32,
            out_c: 16,
            k: 3,
            stride: 1,
            pad: 1,
        };
        assert_eq!(p.out_h(), 32);
        assert_eq!(p.out_w(), 32);
        assert_eq!(p.macs(), 16 * 32 * 32 * 3 * 3 * 3);
    }

    #[test]
    fn op_kind_names_and_indexes_are_stable() {
        for (i, k) in OpKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
        assert_eq!(OpKind::FusedConvAddRelu.name(), "fused:conv2d+add+relu");
        assert_eq!(
            OpKind::fused(OpKind::Conv2d, true, true),
            Some(OpKind::FusedConvAddRelu)
        );
        assert_eq!(
            OpKind::fused(OpKind::Add, false, true),
            Some(OpKind::FusedAddRelu)
        );
        assert_eq!(OpKind::fused(OpKind::Add, true, false), None);
        assert_eq!(OpKind::fused(OpKind::Pool, false, true), None);
        assert!(OpKind::FusedAddRelu.is_fused() && !OpKind::Copy.is_fused());
    }

    /// Writes `op` as the single-instruction program at `shader_va`.
    fn write_program(mem: &mut Memory, w: &Walker, shader_va: u64, op: &ShaderOp) {
        for (j, byte) in op.encode().iter().enumerate() {
            let pa = w
                .translate(mem, shader_va + j as u64, AccessKind::Write)
                .unwrap();
            mem.write(pa, &[*byte], crate::mem::Accessor::Gpu).unwrap();
        }
    }

    fn write_f32s(mem: &mut Memory, w: &Walker, va: u64, data: &[f32]) {
        for (i, &v) in data.iter().enumerate() {
            let pa = w
                .translate(mem, va + (i * 4) as u64, AccessKind::Write)
                .unwrap();
            mem.write_f32(pa, v, crate::mem::Accessor::Gpu).unwrap();
        }
    }

    fn read_f32s(mem: &Memory, w: &Walker, va: u64, n: usize) -> Vec<f32> {
        let mut tlb = Tlb::new();
        let mut out = Vec::new();
        read_f32s_bulk(
            mem,
            w,
            &mut tlb,
            &mut ExecReport::default(),
            va,
            n,
            &mut out,
        )
        .unwrap();
        out
    }

    /// Fused conv2d+add+relu produces bit-identical final output to the
    /// three standalone instructions run in sequence, never materializes
    /// the intermediate, and reports under the fused kind.
    #[test]
    fn fused_conv_add_relu_matches_sequential_bitwise() {
        let p = ConvParams {
            in_c: 2,
            in_h: 6,
            in_w: 6,
            out_c: 3,
            k: 3,
            stride: 1,
            pad: 1,
        };
        let out_len = (p.out_c * p.out_h() * p.out_w()) as usize;
        let mut rng = lcg(7);
        let input = fill((p.in_c * p.in_h * p.in_w) as usize, &mut rng);
        let weights = fill((p.out_c * p.in_c * p.k * p.k) as usize, &mut rng);
        let bias = fill(p.out_c as usize, &mut rng);
        let skip = fill(out_len, &mut rng);
        let (in_va, w_va, b_va, mid_va, skip_va, out_va, shader_va) =
            (0x1000u64, 0x2000, 0x3000, 0x4000, 0x5000, 0x6000, 0x7000);
        let conv = ShaderOp::Conv2d {
            in_va,
            w_va,
            b_va,
            out_va: mid_va,
            p,
            tiles: 8,
        };

        // Sequential oracle: conv → add → relu as standalone ops.
        let (mut mem, w) = setup_mapped(8);
        write_f32s(&mut mem, &w, in_va, &input);
        write_f32s(&mut mem, &w, w_va, &weights);
        write_f32s(&mut mem, &w, b_va, &bias);
        write_f32s(&mut mem, &w, skip_va, &skip);
        exec(&mut mem, &w, &conv, 8).unwrap();
        exec(
            &mut mem,
            &w,
            &ShaderOp::Add {
                a_va: mid_va,
                b_va: skip_va,
                out_va,
                len: out_len as u32,
            },
            8,
        )
        .unwrap();
        exec(
            &mut mem,
            &w,
            &ShaderOp::Relu {
                in_va: out_va,
                out_va,
                len: out_len as u32,
            },
            8,
        )
        .unwrap();
        let sequential = read_f32s(&mem, &w, out_va, out_len);

        // Fused path on an identical second device.
        let (mut mem2, w2) = setup_mapped(8);
        write_f32s(&mut mem2, &w2, in_va, &input);
        write_f32s(&mut mem2, &w2, w_va, &weights);
        write_f32s(&mut mem2, &w2, b_va, &bias);
        write_f32s(&mut mem2, &w2, skip_va, &skip);
        write_program(&mut mem2, &w2, shader_va, &conv);
        let d = FusedDirective {
            head: OpKind::Conv2d,
            head_out_va: mid_va,
            head_len: out_len as u64,
            tail_add: Some(crate::fusion::TailAdd {
                other_va: skip_va,
                out_va,
                len: out_len as u64,
                interm_first: true,
            }),
            tail_relu: true,
            extra_cost_us: 20,
            kind: OpKind::FusedConvAddRelu,
        };
        let mut tlb = Tlb::new();
        let mut scratch = ExecScratch::default();
        let rep = run_one(&mut mem2, &w2, &mut tlb, &mut scratch, shader_va, Some(&d)).unwrap();
        let fused = read_f32s(&mem2, &w2, out_va, out_len);
        assert_eq!(bits(&fused), bits(&sequential));

        // The intermediate tensor was never written to the carveout.
        let mid = read_f32s(&mem2, &w2, mid_va, out_len);
        assert!(
            mid.iter().all(|&v| v == 0.0),
            "fused run must not materialize the intermediate"
        );
        // Stats land under the fused kind, with head + tail MACs.
        assert_eq!(rep.per_kind[OpKind::FusedConvAddRelu.index()].events, 1);
        assert_eq!(rep.per_kind[OpKind::Conv2d.index()].events, 0);
        assert_eq!(rep.macs, p.macs() + 2 * out_len as u64);
    }

    /// A directive that disagrees with the decoded head faults instead of
    /// silently computing something else.
    #[test]
    fn mismatched_directive_faults() {
        let (mut mem, w) = setup_mapped(8);
        let shader_va = 0x1000u64;
        let op = ShaderOp::Relu {
            in_va: 0x2000,
            out_va: 0x2000,
            len: 8,
        };
        write_program(&mut mem, &w, shader_va, &op);
        let d = FusedDirective {
            head: OpKind::Conv2d,
            head_out_va: 0x2000,
            head_len: 8,
            tail_add: None,
            tail_relu: true,
            extra_cost_us: 10,
            kind: OpKind::FusedConvRelu,
        };
        let mut tlb = Tlb::new();
        let mut scratch = ExecScratch::default();
        let r = run_one(&mut mem, &w, &mut tlb, &mut scratch, shader_va, Some(&d));
        assert_eq!(r, Err(ShaderFault::FusionMismatch));
    }

    /// A copy whose source and destination resolve to the same physical
    /// run moves nothing and reports the aliased runs for refunding, while
    /// element accounting stays identical to a real copy.
    #[test]
    fn identity_copy_aliases_in_place() {
        let (mut mem, w) = setup_mapped(4);
        let n = 64usize;
        let data: Vec<f32> = (0..n).map(|i| i as f32 - 7.5).collect();
        let mut tlb = Tlb::new();
        write_f32s(&mut mem, &w, 0x1000, &data);
        let op = ShaderOp::Copy {
            src_va: 0x1000,
            dst_va: 0x1000,
            len: n as u32,
        };
        let mut scratch = ExecScratch::default();
        let mut rep = ExecReport::default();
        execute_op(&mut mem, &w, &mut tlb, &mut scratch, &op, 8, &mut rep).unwrap();
        assert_eq!(rep.element_accesses, 2 * n as u64);
        assert_eq!(rep.alias_runs, rep.bulk_runs);
        assert_eq!(rep.alias_elems, n as u64);
        let out = read_f32s(&mem, &w, 0x1000, n);
        assert_eq!(bits(&out), bits(&data));
    }
}
