//! Lifting: recording bytes → [`IrProgram`], once, totally.
//!
//! The lifter is deliberately *total*: it never fails. Malformed input —
//! corrupt deltas, unmapped descriptors, undefined opcodes, impossible
//! shapes — is recorded as [`Anomaly`] values (or a `parsed: None` delta)
//! on the lifted structure, so analyses decide what malformation means.
//! It is also *policy-free*: carveout bounds, whitelists and budgets are
//! the linter's business; the lifter only decodes what the bytes say and
//! mirrors the replayer's machine model (register windows, TRANSTAB
//! latching, the descriptor hop bound, MMU permission checks).

use crate::program::{
    Anomaly, CostSummary, DeltaLift, Dir, IrProgram, JobChain, LiftedDesc, Operand, RegClass,
    SemInstr, Step,
};
use crate::recording::{Event, Recording};
use crate::shadow::{walk, ShadowMem, WalkSummary};
use grt_compress::DeltaCodec;
use grt_gpu::job::{JobDescriptor, DESC_SIZE};
use grt_gpu::regs::{job_control as jc, mmu_control as mc};
use grt_gpu::shader::{OpKind, ShaderOp, INSTR_SIZE};
use grt_gpu::PAGE_SIZE;
use std::rc::Rc;

/// Descriptor hop bound, mirroring the hardware's chain cutoff.
pub const MAX_CHAIN_HOPS: usize = 1024;

/// Largest shader program the lifter will decode instruction-by-
/// instruction. Real workloads stay well under this; a larger claim is an
/// attack on the analyzer and is surfaced as an anomaly instead.
pub const MAX_PROGRAM_INSTRS: u32 = 4096;

/// Largest single tensor operand the lifter will resolve through the page
/// tables. The whole carveout is 96 MiB, so a gigabyte operand cannot be
/// legitimate — flagged instead of walked.
pub const MAX_OPERAND_BYTES: u64 = 1 << 30;

/// Lifts a recording into the semantics IR.
///
/// `quirk` is the SKU's PTE decode quirk (page-table walks must match the
/// GPU being vetted for).
pub fn lift_recording(rec: &Recording, quirk: u8) -> IrProgram {
    Lifter::new(rec, quirk).run()
}

struct Lifter<'a> {
    rec: &'a Recording,
    quirk: u8,
    codec: DeltaCodec,
    shadow: ShadowMem,
    steps: Vec<Step>,
    deltas: Vec<DeltaLift>,
    jobs: Vec<JobChain>,
    cost: CostSummary,
    transtab_lo: [u32; 16],
    transtab_hi: [u32; 16],
    latched_root: [u64; 16],
    slot_config: [u32; 16],
    head_lo: [u32; 16],
    head_hi: [u32; 16],
    mem_version: u64,
    walk_cache: Option<(u64, u64, Rc<WalkSummary>)>,
}

impl<'a> Lifter<'a> {
    fn new(rec: &'a Recording, quirk: u8) -> Self {
        Lifter {
            rec,
            quirk,
            codec: DeltaCodec::new(PAGE_SIZE),
            shadow: ShadowMem::new(),
            steps: Vec::with_capacity(rec.events.len()),
            deltas: Vec::new(),
            jobs: Vec::new(),
            cost: CostSummary::default(),
            transtab_lo: [0; 16],
            transtab_hi: [0; 16],
            latched_root: [0; 16],
            slot_config: [0; 16],
            head_lo: [0; 16],
            head_hi: [0; 16],
            mem_version: 0,
            walk_cache: None,
        }
    }

    fn run(mut self) -> IrProgram {
        let rec = self.rec;
        for (i, event) in rec.events.iter().enumerate() {
            let step = match *event {
                Event::BeginLayer { index } => {
                    self.cost.layers += 1;
                    Step::BeginLayer { index }
                }
                Event::RegWrite { offset, value } => self.on_write(i, offset, value),
                Event::RegRead {
                    offset,
                    value,
                    verify,
                } => Step::RegRead {
                    offset,
                    value,
                    verify,
                },
                Event::Poll {
                    reg,
                    mask,
                    cond,
                    cmp,
                    max_iters,
                    delay_us,
                } => {
                    self.cost.raw_poll_iters =
                        self.cost.raw_poll_iters.saturating_add(max_iters as u64);
                    Step::Poll {
                        reg,
                        mask,
                        cond,
                        cmp,
                        max_iters,
                        delay_us,
                    }
                }
                Event::WaitIrq { line } => Step::WaitIrq { line },
                Event::LoadMemDelta { pa, len, ref delta } => self.on_delta(i, pa, len, delta),
            };
            self.steps.push(step);
        }
        IrProgram {
            workload: rec.workload.clone(),
            gpu_id: rec.gpu_id,
            input: rec.input,
            output: rec.output,
            weights: rec.weights.clone(),
            steps: self.steps,
            deltas: self.deltas,
            jobs: self.jobs,
            cost: self.cost,
        }
    }

    fn on_write(&mut self, i: usize, offset: u32, value: u32) -> Step {
        let class = RegClass::classify(offset);
        let mut root_latched = None;
        match class {
            RegClass::JobSlot { slot, reg } => {
                let s = slot as usize;
                match reg {
                    r if r == jc::JS_HEAD_LO => self.head_lo[s] = value,
                    r if r == jc::JS_HEAD_HI => self.head_hi[s] = value,
                    r if r == jc::JS_CONFIG => self.slot_config[s] = value,
                    r if r == jc::JS_COMMAND && value == jc::JS_CMD_START => {
                        self.lift_chain(i, slot);
                    }
                    _ => {}
                }
            }
            RegClass::AsWindow { asn, reg } => {
                let a = asn as usize;
                match reg {
                    r if r == mc::AS_TRANSTAB_LO => self.transtab_lo[a] = value,
                    r if r == mc::AS_TRANSTAB_HI => self.transtab_hi[a] = value,
                    r if r == mc::AS_COMMAND && value == mc::AS_CMD_UPDATE => {
                        let root = (self.transtab_hi[a] as u64) << 32 | self.transtab_lo[a] as u64;
                        self.latched_root[a] = root;
                        self.walk_cache = None;
                        root_latched = Some(root);
                    }
                    _ => {}
                }
            }
            RegClass::GpuCtrl => {}
        }
        Step::RegWrite {
            offset,
            value,
            class,
            root_latched,
        }
    }

    fn on_delta(&mut self, i: usize, pa: u64, len: u32, delta: &[u8]) -> Step {
        let index = self.deltas.len() as u32;
        let parsed = self.codec.parse_limited(delta, len as usize).ok();
        if let Some(p) = &parsed {
            // The parse bounds `new_len` by the region length, so XORing
            // the pages in place equals dump, apply and restore of the
            // region, as in the replayer.
            for (page, xor) in p.pages() {
                self.shadow
                    .xor_range(pa.wrapping_add(u64::from(page) * PAGE_SIZE as u64), xor);
            }
            if len > 0 {
                self.mem_version += 1;
            }
        }
        self.deltas.push(DeltaLift {
            event: i,
            pa,
            len,
            wire_len: delta.len(),
            parsed,
        });
        Step::LoadDelta { index }
    }

    // --- job chains -----------------------------------------------------

    fn lift_chain(&mut self, event: usize, slot: u32) {
        let s = slot as usize;
        let head_va = (self.head_hi[s] as u64) << 32 | self.head_lo[s] as u64;
        let asn = self.slot_config[s] & 0x7;
        let root = self.latched_root[asn as usize];
        let (walk_rc, walk_fresh) = if root == 0 {
            (Rc::new(WalkSummary::default()), false)
        } else {
            match &self.walk_cache {
                Some((r, v, rc)) if *r == root && *v == self.mem_version => (Rc::clone(rc), false),
                _ => {
                    let rc = Rc::new(walk(&self.shadow, root, self.quirk));
                    self.walk_cache = Some((root, self.mem_version, Rc::clone(&rc)));
                    (rc, true)
                }
            }
        };
        let mut chain = JobChain {
            event,
            slot,
            asn,
            head_va,
            root,
            walk: walk_rc,
            walk_fresh,
            descs: Vec::new(),
            anomalies: Vec::new(),
        };
        let mut va = head_va;
        let mut hops = 0usize;
        while va != 0 {
            hops += 1;
            if hops > MAX_CHAIN_HOPS {
                chain.anomalies.push(Anomaly::ChainTooLong {
                    max: MAX_CHAIN_HOPS,
                });
                break;
            }
            let (runs, unmapped) = chain.walk.resolve(va, DESC_SIZE as u64, false);
            if unmapped > 0 {
                chain.anomalies.push(Anomaly::DescUnmapped { va });
                break;
            }
            let mut raw = [0u8; DESC_SIZE];
            let mut off = 0usize;
            for (pa, n) in runs {
                raw[off..off + n as usize].copy_from_slice(&self.shadow.dump_range(pa, n as usize));
                off += n as usize;
            }
            let Some(desc) = JobDescriptor::decode(&raw) else {
                chain.anomalies.push(Anomaly::DescBadMagic { va });
                break;
            };
            let lifted = self.lift_desc(va, desc, &chain.walk);
            va = desc.next_va;
            chain.descs.push(lifted);
        }
        self.cost.job_chains += 1;
        self.jobs.push(chain);
    }

    fn lift_desc(&mut self, va: u64, desc: JobDescriptor, walk: &WalkSummary) -> LiftedDesc {
        let mut out = LiftedDesc {
            va,
            desc,
            instrs: Vec::new(),
            anomalies: Vec::new(),
        };
        if desc.n_instrs > MAX_PROGRAM_INSTRS {
            out.anomalies.push(Anomaly::ProgramTooLarge {
                n_instrs: desc.n_instrs,
                max: MAX_PROGRAM_INSTRS,
            });
            return out;
        }
        let prog_bytes = desc.n_instrs as u64 * INSTR_SIZE as u64;
        let (runs, unmapped) = walk.resolve(desc.shader_va, prog_bytes, false);
        if unmapped > 0 {
            out.anomalies.push(Anomaly::ShaderUnmapped {
                va: desc.shader_va,
                bytes: unmapped,
            });
            return out;
        }
        let mut bytes = Vec::with_capacity(prog_bytes as usize);
        for (pa, n) in runs {
            bytes.extend(self.shadow.dump_range(pa, n as usize));
        }
        for (i, chunk) in bytes.chunks_exact(INSTR_SIZE).enumerate() {
            let raw: &[u8; INSTR_SIZE] = chunk.try_into().expect("chunk size");
            match ShaderOp::decode(raw) {
                None => {
                    let opcode = u32::from_le_bytes([raw[0], raw[1], raw[2], raw[3]]);
                    out.anomalies.push(Anomaly::BadOpcode { instr: i, opcode });
                }
                Some(op) => {
                    let instr = sem_instr(op, i, walk, &mut out.anomalies);
                    self.cost.total_macs = self.cost.total_macs.saturating_add(instr.macs);
                    self.cost.instrs += 1;
                    out.instrs.push(instr);
                }
            }
        }
        out
    }
}

/// Operand role, direction, VA and element count before page resolution.
type OperandSpec = (&'static str, Dir, u64, u64);

/// Builds a [`SemInstr`] with typed, page-resolved operands. Malformed
/// shapes yield an empty operand list, zero MACs and a `BadShape` anomaly
/// — the instruction would fault (or wrap) the shape arithmetic the
/// executor runs unchecked.
fn sem_instr(op: ShaderOp, idx: usize, walk: &WalkSummary, anoms: &mut Vec<Anomaly>) -> SemInstr {
    let kind = OpKind::of(&op);
    match shape_of(&op) {
        Err(detail) => {
            anoms.push(Anomaly::BadShape { instr: idx, detail });
            SemInstr {
                op,
                kind,
                macs: 0,
                operands: Vec::new(),
            }
        }
        Ok((specs, macs)) => {
            let operands = specs
                .into_iter()
                .map(|(name, dir, va, elems)| {
                    let (pa_runs, unmapped) =
                        walk.resolve(va, elems * 4, matches!(dir, Dir::Write));
                    Operand {
                        name,
                        dir,
                        va,
                        elems,
                        pa_runs,
                        unmapped,
                    }
                })
                .collect();
            SemInstr {
                op,
                kind,
                macs,
                operands,
            }
        }
    }
}

/// Derives operand extents and the MAC count with fully checked
/// arithmetic. `Err` carries a human-readable description of the defect.
fn shape_of(op: &ShaderOp) -> Result<(Vec<OperandSpec>, u64), String> {
    let mul = |parts: &[u64]| -> Result<u64, String> {
        let mut acc = 1u64;
        for &p in parts {
            acc = acc
                .checked_mul(p)
                .ok_or_else(|| "size arithmetic overflows".to_owned())?;
        }
        Ok(acc)
    };
    let bound = |name: &str, elems: u64| -> Result<u64, String> {
        if elems.checked_mul(4).is_none_or(|b| b > MAX_OPERAND_BYTES) {
            Err(format!(
                "{name} operand of {elems} elements exceeds the {MAX_OPERAND_BYTES}-byte bound"
            ))
        } else {
            Ok(elems)
        }
    };
    match *op {
        ShaderOp::Conv2d {
            in_va,
            w_va,
            b_va,
            out_va,
            p,
            ..
        } => {
            if p.stride == 0 {
                return Err("convolution stride is zero".to_owned());
            }
            if p.k == 0 {
                return Err("convolution kernel is zero-sized".to_owned());
            }
            let padded_h = p.in_h as u64 + 2 * p.pad as u64;
            let padded_w = p.in_w as u64 + 2 * p.pad as u64;
            if padded_h < p.k as u64 || padded_w < p.k as u64 {
                return Err(format!(
                    "kernel {k}x{k} exceeds the padded input {padded_h}x{padded_w}",
                    k = p.k
                ));
            }
            let out_h = (padded_h - p.k as u64) / p.stride as u64 + 1;
            let out_w = (padded_w - p.k as u64) / p.stride as u64 + 1;
            let in_e = bound(
                "input",
                mul(&[p.in_c as u64, p.in_h as u64, p.in_w as u64])?,
            )?;
            let w_e = bound(
                "weight",
                mul(&[p.out_c as u64, p.in_c as u64, p.k as u64, p.k as u64])?,
            )?;
            let out_e = bound("output", mul(&[p.out_c as u64, out_h, out_w])?)?;
            let macs = mul(&[out_e, p.in_c as u64, p.k as u64, p.k as u64])?;
            let mut specs = vec![("in", Dir::Read, in_va, in_e), ("w", Dir::Read, w_va, w_e)];
            if b_va != 0 {
                specs.push(("bias", Dir::Read, b_va, p.out_c as u64));
            }
            specs.push(("out", Dir::Write, out_va, out_e));
            Ok((specs, macs))
        }
        ShaderOp::MatMul {
            a_va,
            b_va,
            bias_va,
            out_va,
            m,
            k,
            n,
            ..
        } => {
            let a_e = bound("a", mul(&[m as u64, k as u64])?)?;
            let b_e = bound("b", mul(&[k as u64, n as u64])?)?;
            let out_e = bound("output", mul(&[m as u64, n as u64])?)?;
            let macs = mul(&[m as u64, k as u64, n as u64])?;
            let mut specs = vec![("a", Dir::Read, a_va, a_e), ("b", Dir::Read, b_va, b_e)];
            if bias_va != 0 {
                specs.push(("bias", Dir::Read, bias_va, n as u64));
            }
            specs.push(("out", Dir::Write, out_va, out_e));
            Ok((specs, macs))
        }
        ShaderOp::Pool {
            in_va,
            out_va,
            c,
            h,
            w,
            k,
            stride,
            ..
        } => {
            if stride == 0 {
                return Err("pool stride is zero".to_owned());
            }
            if k == 0 {
                return Err("pool kernel is zero-sized".to_owned());
            }
            if k > h || k > w {
                return Err(format!("pool kernel {k}x{k} exceeds the input {h}x{w}"));
            }
            let oh = (h as u64 - k as u64) / stride as u64 + 1;
            let ow = (w as u64 - k as u64) / stride as u64 + 1;
            let in_e = bound("input", mul(&[c as u64, h as u64, w as u64])?)?;
            let out_e = bound("output", mul(&[c as u64, oh, ow])?)?;
            let macs = mul(&[in_e, k as u64, k as u64])? / 4;
            Ok((
                vec![
                    ("in", Dir::Read, in_va, in_e),
                    ("out", Dir::Write, out_va, out_e),
                ],
                macs,
            ))
        }
        ShaderOp::Relu { in_va, out_va, len } => Ok((
            vec![
                ("in", Dir::Read, in_va, bound("input", len as u64)?),
                ("out", Dir::Write, out_va, len as u64),
            ],
            len as u64,
        )),
        ShaderOp::Add {
            a_va,
            b_va,
            out_va,
            len,
        } => Ok((
            vec![
                ("a", Dir::Read, a_va, bound("a", len as u64)?),
                ("b", Dir::Read, b_va, len as u64),
                ("out", Dir::Write, out_va, len as u64),
            ],
            len as u64,
        )),
        ShaderOp::Softmax { in_va, out_va, len } => Ok((
            vec![
                ("in", Dir::Read, in_va, bound("input", len as u64)?),
                ("out", Dir::Write, out_va, len as u64),
            ],
            len as u64 * 4,
        )),
        ShaderOp::Copy {
            src_va,
            dst_va,
            len,
        } => Ok((
            vec![
                ("src", Dir::Read, src_va, bound("source", len as u64)?),
                ("dst", Dir::Write, dst_va, len as u64),
            ],
            len as u64 / 2,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recording::DataSlot;
    use grt_gpu::shader::{ConvParams, PoolKind};

    #[test]
    fn view_is_index_aligned_with_events() {
        let rec = Recording {
            workload: "t".into(),
            gpu_id: 1,
            input: DataSlot {
                pa: 0x100,
                len_elems: 4,
            },
            output: DataSlot {
                pa: 0x200,
                len_elems: 4,
            },
            weights: vec![DataSlot {
                pa: 0x300,
                len_elems: 2,
            }],
            events: vec![
                Event::BeginLayer { index: 0 },
                Event::RegWrite {
                    offset: 0x30,
                    value: 1,
                },
                Event::WaitIrq { line: 1 },
            ],
        };
        let ir = lift_recording(&rec, 0);
        assert_eq!(ir.steps.len(), rec.events.len());
        assert_eq!(ir.workload, "t");
        assert_eq!(ir.input.pa, 0x100);
        assert_eq!(ir.weights.len(), 1);
        assert_eq!(ir.cost.layers, 1);
    }

    #[test]
    fn conv_shapes_are_checked() {
        let good = ShaderOp::Conv2d {
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
                pad: 1,
            },
            tiles: 8,
        };
        let (specs, macs) = shape_of(&good).unwrap();
        assert_eq!(specs.len(), 4);
        assert_eq!(specs[0], ("in", Dir::Read, 0x1000, 3 * 8 * 8));
        assert_eq!(specs[3], ("out", Dir::Write, 0x4000, 4 * 8 * 8));
        assert_eq!(macs, good.macs());

        let zero_stride = ShaderOp::Conv2d {
            in_va: 0,
            w_va: 0,
            b_va: 0,
            out_va: 0,
            p: ConvParams {
                in_c: 1,
                in_h: 4,
                in_w: 4,
                out_c: 1,
                k: 2,
                stride: 0,
                pad: 0,
            },
            tiles: 8,
        };
        assert!(shape_of(&zero_stride).unwrap_err().contains("stride"));
    }

    #[test]
    fn pool_underflow_is_flagged_not_panicked() {
        // k > h would underflow the executor's u32 arithmetic.
        let bad = ShaderOp::Pool {
            in_va: 0,
            out_va: 0,
            kind: PoolKind::Max,
            c: 1,
            h: 2,
            w: 2,
            k: 5,
            stride: 1,
        };
        assert!(shape_of(&bad).unwrap_err().contains("exceeds"));
    }

    #[test]
    fn oversized_operands_are_bounded() {
        let huge = ShaderOp::MatMul {
            a_va: 0,
            b_va: 0,
            bias_va: 0,
            out_va: 0,
            m: 1 << 20,
            k: 1 << 20,
            n: 1,
            tiles: 8,
        };
        assert!(shape_of(&huge).unwrap_err().contains("bound"));
    }

    #[test]
    fn bias_operand_is_elided_when_va_is_zero() {
        let no_bias = ShaderOp::MatMul {
            a_va: 0x100,
            b_va: 0x200,
            bias_va: 0,
            out_va: 0x300,
            m: 2,
            k: 2,
            n: 2,
            tiles: 8,
        };
        let (specs, _) = shape_of(&no_bias).unwrap();
        assert_eq!(specs.len(), 3);
    }
}
