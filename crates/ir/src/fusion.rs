//! IR-driven superinstruction fusion analysis (DESIGN.md §15).
//!
//! A recording's job dialog is expensive to replay even when the shader
//! work inside it is trivial: every submission pays a cache clean, a
//! three-command MMU lock/flush/unlock, the slot programming writes, an
//! interrupt wait, and the mirrored completion maintenance. The JIT emits
//! many jobs whose *only* purpose is to stage data (identity copies) or to
//! apply a one-instruction elementwise tail (`add` bias/residual, `relu`)
//! to the output a head kernel just produced.
//!
//! This pass decides — over the lifted [`IrProgram`], using the same R7
//! dataflow facts `grt-lint` proves — which of those jobs the compiled
//! executor may *elide*:
//!
//! * **Identity copies** (`src == dst`, the JIT's staging and tiling
//!   no-ops) move no information; their whole dialog window is removed.
//! * **Fusable chains** — `conv2d`/`matmul` followed by an `add` consuming
//!   the head's output exactly once while the intermediate is dead
//!   afterwards, optionally followed by an in-place `relu` (and bare
//!   `add → relu` residual tails) — collapse into one job: the head keeps
//!   its dialog and executes a [`FusedDirective`]; the tail windows are
//!   removed and their instructions run against the head's output while it
//!   still sits in the executor's scratch.
//!
//! Fusion is a *lowering* decision: the vetted recording, its lint
//! verdict, and the R7/R9 analyses are all over the unfused IR. The pass
//! is deliberately conservative — a window that does not exactly match the
//! recorded kbase dialog shape, an intermediate that any later event could
//! observe, or any lift anomaly keeps the jobs unfused. Replay correctness
//! never depends on fusion firing.

use crate::iset::IntervalSet;
use crate::program::{Dir, IrProgram, Operand, SemInstr, Step};
use grt_gpu::fusion::{FusedDirective, TailAdd};
use grt_gpu::regs::{gpu_control as gc, job_control as jc, mmu_control as mc};
use grt_gpu::shader::{OpKind, ShaderOp};

/// What the fusion pass decided for one recording.
#[derive(Debug, Default)]
pub struct FusionPlan {
    /// Fused-execution directives, keyed by the head job's descriptor VA
    /// (unique per recording: descriptors are laid out at increasing VAs).
    pub directives: Vec<(u64, FusedDirective)>,
    /// Half-open step-index ranges (the elided dialog windows), sorted and
    /// disjoint. Index-aligned with the recording's events, so the
    /// compiled lowering can skip the same ranges in its op arena.
    pub elided: Vec<(usize, usize)>,
    /// Roll-up counters for profiles and bench output.
    pub summary: FusionSummary,
}

/// Roll-up of what fusion removed from the warm replay path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FusionSummary {
    /// Superinstruction chains formed (one fused directive each).
    pub chains_fused: u32,
    /// Tail shader instructions absorbed into head kernels.
    pub instrs_fused: u32,
    /// Identity-copy jobs elided outright.
    pub copies_elided: u32,
    /// Job dialog windows removed (absorbed tails + elided copies).
    pub jobs_elided: u32,
    /// Recorded events the compiled op walk no longer executes.
    pub steps_elided: u64,
    /// Bytes of intermediate tensor never materialized in the carveout.
    pub bytes_not_materialized: u64,
}

impl FusionSummary {
    /// Total shader instructions eliminated from standalone execution
    /// (absorbed tails plus elided identity copies).
    pub fn instrs_eliminated(&self) -> u32 {
        self.instrs_fused + self.copies_elided
    }
}

/// Number of steps in a submit sequence up to and including the
/// `JS_COMMAND = START` write: pm-metrics sample (6 reads), cache clean
/// (3), MMU lock/flush/unlock (8), `LATEST_FLUSH` read, six slot-window
/// writes, and the start command itself.
const SUBMIT_STEPS: usize = 25;

/// A step-stream cursor that consumes one recorded kbase call at a time.
struct Cursor<'a> {
    steps: &'a [Step],
    pos: usize,
}

impl Cursor<'_> {
    fn write(&mut self, offset: u32) -> Option<u32> {
        match self.steps.get(self.pos) {
            Some(&Step::RegWrite {
                offset: o, value, ..
            }) if o == offset => {
                self.pos += 1;
                Some(value)
            }
            _ => None,
        }
    }

    fn write_val(&mut self, offset: u32, value: u32) -> Option<()> {
        (self.write(offset)? == value).then_some(())
    }

    fn read(&mut self, offset: u32) -> Option<u32> {
        match self.steps.get(self.pos) {
            Some(&Step::RegRead {
                offset: o, value, ..
            }) if o == offset => {
                self.pos += 1;
                Some(value)
            }
            _ => None,
        }
    }

    fn poll(&mut self, reg: u32, mask: u32, cond: u8) -> Option<()> {
        match self.steps.get(self.pos) {
            Some(&Step::Poll {
                reg: r,
                mask: m,
                cond: c,
                ..
            }) if r == reg && m == mask && c == cond => {
                self.pos += 1;
                Some(())
            }
            _ => None,
        }
    }

    fn wait_irq(&mut self, line: u8) -> Option<()> {
        match self.steps.get(self.pos) {
            Some(&Step::WaitIrq { line: l }) if l == line => {
                self.pos += 1;
                Some(())
            }
            _ => None,
        }
    }

    /// `kbase_pm_metrics_update`: six data-flow reads.
    fn pm_metrics(&mut self) -> Option<()> {
        self.read(gc::GPU_STATUS)?;
        self.read(gc::SHADER_READY_LO)?;
        self.read(gc::L2_READY_LO)?;
        self.read(gc::TILER_READY_LO)?;
        self.read(gc::SHADER_PWRTRANS_LO)?;
        self.read(jc::JOB_IRQ_JS_STATE)?;
        Some(())
    }

    /// `kbase_gpu_cache_clean`: command, completion poll, clear.
    fn cache_clean(&mut self) -> Option<()> {
        self.write_val(gc::GPU_COMMAND, gc::CMD_CLEAN_INV_CACHES)?;
        self.poll(gc::GPU_IRQ_RAWSTAT, gc::IRQ_CLEAN_CACHES_COMPLETED, 1)?;
        self.write_val(gc::GPU_IRQ_CLEAR, gc::IRQ_CLEAN_CACHES_COMPLETED)?;
        Some(())
    }

    /// `kbase_mmu_hw_do_operation`: lockaddr programming plus the
    /// three-command lock/flush/unlock polling loops (paper Listing 2).
    fn mmu_flush(&mut self, asn: u32) -> Option<()> {
        let base = mc::as_base(asn);
        self.write(base + mc::AS_LOCKADDR_LO)?;
        self.write(base + mc::AS_LOCKADDR_HI)?;
        for cmd in [mc::AS_CMD_LOCK, mc::AS_CMD_FLUSH_MEM, mc::AS_CMD_UNLOCK] {
            self.write_val(base + mc::AS_COMMAND, cmd)?;
            self.poll(base + mc::AS_STATUS, mc::AS_STATUS_ACTIVE, 0)?;
        }
        Some(())
    }
}

/// Matches one job's complete dialog window — `submit_job` through the
/// `handle_job_irq` maintenance tail — around the chain's
/// `JS_COMMAND = START` step. Returns the half-open step range, or `None`
/// when the recorded stream deviates in any way from the kbase shape (the
/// job then simply stays unfused).
fn match_window(steps: &[Step], event: usize, slot: u32, asn: u32) -> Option<(usize, usize)> {
    let start = event.checked_sub(SUBMIT_STEPS - 1)?;
    let mut c = Cursor { steps, pos: start };
    c.pm_metrics()?;
    c.cache_clean()?;
    c.mmu_flush(asn)?;
    c.read(gc::LATEST_FLUSH)?;
    let slot_base = jc::slot_base(slot);
    c.write(slot_base + jc::JS_FLUSH_ID_NEXT)?;
    c.write(slot_base + jc::JS_HEAD_LO)?;
    c.write(slot_base + jc::JS_HEAD_HI)?;
    c.write(slot_base + jc::JS_AFFINITY_LO)?;
    c.write(slot_base + jc::JS_AFFINITY_HI)?;
    c.write(slot_base + jc::JS_CONFIG)?;
    if c.pos != event {
        return None;
    }
    c.write_val(slot_base + jc::JS_COMMAND, jc::JS_CMD_START)?;
    c.wait_irq(1)?; // Job line.
    c.read(jc::JOB_IRQ_STATUS)?;
    c.write(jc::JOB_IRQ_CLEAR)?;
    c.read(slot_base + jc::JS_STATUS)?;
    c.mmu_flush(asn)?;
    c.cache_clean()?;
    c.pm_metrics()?;
    // `kbase_pm_update_state`: the third read only happens when a power
    // transition was in flight — decided from the recorded values.
    let trans = c.read(gc::SHADER_PWRTRANS_LO)?;
    let l2 = c.read(gc::L2_PWRTRANS_LO)?;
    if (trans | l2) != 0 {
        c.read(gc::GPU_STATUS)?;
    }
    Some((start, c.pos))
}

/// One job chain reduced to what the fusion pass reasons about.
struct Job<'a> {
    event: usize,
    window: Option<(usize, usize)>,
    desc_va: u64,
    cost_us: u32,
    /// `Some` only for a clean single-descriptor, single-instruction chain
    /// with fully mapped operands; `None` marks an opaque barrier.
    instr: Option<&'a SemInstr>,
}

impl Job<'_> {
    fn out(&self) -> Option<&Operand> {
        self.instr?.operands.iter().find(|o| o.dir == Dir::Write)
    }
}

fn runs_as_ranges(op: &Operand) -> impl Iterator<Item = (u64, u64)> + '_ {
    op.pa_runs.iter().map(|&(s, len)| (s, s + len))
}

fn ranges_intersect(a: (u64, u64), b: (u64, u64)) -> Option<(u64, u64)> {
    let s = a.0.max(b.0);
    let e = a.1.min(b.1);
    (s < e).then_some((s, e))
}

/// Structural match of an elementwise `add` consuming the head's output
/// exactly once (by VA identity and exact length).
fn tail_add_of(head_out: &Operand, next: &SemInstr) -> Option<TailAdd> {
    let ShaderOp::Add {
        a_va,
        b_va,
        out_va,
        len,
    } = next.op
    else {
        return None;
    };
    let x = head_out.va;
    let a_is_x = a_va == x;
    let b_is_x = b_va == x;
    // Exactly one operand must be the intermediate, the add must cover it
    // exactly, and the result must land elsewhere (an in-place add would
    // re-materialize the intermediate).
    if a_is_x == b_is_x || len as u64 != head_out.elems || out_va == x {
        return None;
    }
    Some(TailAdd {
        other_va: if a_is_x { b_va } else { a_va },
        out_va,
        len: len as u64,
        interm_first: a_is_x,
    })
}

/// Structural match of an in-place `relu` over the chain's current output.
fn tail_relu_of(cur_va: u64, cur_len: u64, next: &SemInstr) -> bool {
    matches!(next.op, ShaderOp::Relu { in_va, out_va, len }
        if in_va == cur_va && out_va == cur_va && len as u64 == cur_len)
}

/// The pass entry point: decides elisions and fusion chains for `prog`.
pub fn analyze(prog: &IrProgram) -> FusionPlan {
    let jobs: Vec<Job> = prog
        .jobs
        .iter()
        .map(|ch| {
            let clean = ch.anomalies.is_empty()
                && ch.descs.len() == 1
                && ch.descs[0].anomalies.is_empty()
                && ch.descs[0].instrs.len() == 1
                && !ch.descs[0].instrs[0].operands.is_empty()
                && ch.descs[0].instrs[0]
                    .operands
                    .iter()
                    .all(|o| o.unmapped == 0);
            Job {
                event: ch.event,
                window: match_window(&prog.steps, ch.event, ch.slot, ch.asn),
                desc_va: ch.descs.first().map_or(0, |d| d.va),
                cost_us: ch.descs.first().map_or(0, |d| d.desc.cost_us),
                instr: clean.then(|| &ch.descs[0].instrs[0]),
            }
        })
        .collect();

    // Pass 1: elide identity-copy jobs whose dialog matched exactly.
    let mut elided: Vec<bool> = jobs
        .iter()
        .map(|j| j.window.is_some() && j.instr.is_some_and(|i| i.is_identity_copy()))
        .collect();
    let copies_elided = elided.iter().filter(|&&e| e).count() as u32;

    // Pass 2: fuse chains over the surviving jobs.
    let survivors: Vec<usize> = (0..jobs.len()).filter(|&i| !elided[i]).collect();
    let mut consumed: Vec<bool> = vec![false; jobs.len()];
    let mut directives: Vec<(u64, FusedDirective)> = Vec::new();
    let mut instrs_fused = 0u32;
    let mut bytes_not_materialized = 0u64;

    for (si, &hi) in survivors.iter().enumerate() {
        if consumed[hi] {
            continue;
        }
        let head = &jobs[hi];
        let (Some(instr), Some(_)) = (head.instr, head.window) else {
            continue;
        };
        let Some(head_out) = head.out() else {
            continue;
        };
        let head_kind = instr.kind;
        let next = survivors.get(si + 1).map(|&ni| &jobs[ni]);
        let next2 = survivors.get(si + 2).map(|&ni| &jobs[ni]);

        // Structural candidates, longest first; the first one that also
        // passes the dataflow verification wins.
        let mut candidates: Vec<(Option<TailAdd>, bool)> = Vec::new();
        match head_kind {
            OpKind::Conv2d | OpKind::MatMul => {
                let add = next
                    .filter(|n| n.window.is_some())
                    .and_then(|n| n.instr)
                    .and_then(|n| tail_add_of(head_out, n));
                if let Some(add) = add {
                    let relu_after_add = next2
                        .filter(|n| n.window.is_some())
                        .and_then(|n| n.instr)
                        .is_some_and(|n| tail_relu_of(add.out_va, add.len, n));
                    if relu_after_add {
                        candidates.push((Some(add), true));
                    }
                    candidates.push((Some(add), false));
                }
                let relu = next
                    .filter(|n| n.window.is_some())
                    .and_then(|n| n.instr)
                    .is_some_and(|n| tail_relu_of(head_out.va, head_out.elems, n));
                if relu {
                    candidates.push((None, true));
                }
            }
            OpKind::Add => {
                let relu = next
                    .filter(|n| n.window.is_some())
                    .and_then(|n| n.instr)
                    .is_some_and(|n| tail_relu_of(head_out.va, head_out.elems, n));
                if relu {
                    candidates.push((None, true));
                }
            }
            _ => {}
        }

        for (add, relu) in candidates {
            let n_tails = add.is_some() as usize + relu as usize;
            let tail_idx: Vec<usize> = survivors[si + 1..si + 1 + n_tails].to_vec();
            if !verify_chain(prog, &jobs, &elided, hi, &tail_idx, add.as_ref(), head_out) {
                continue;
            }
            let kind = OpKind::fused(head_kind, add.is_some(), relu)
                .expect("candidate kinds are fusable by construction");
            let extra_cost_us: u64 = tail_idx.iter().map(|&t| jobs[t].cost_us as u64).sum();
            let d = FusedDirective {
                head: head_kind,
                head_out_va: head_out.va,
                head_len: head_out.elems,
                tail_add: add,
                tail_relu: relu,
                extra_cost_us,
                kind,
            };
            instrs_fused += d.instrs_eliminated();
            bytes_not_materialized += d.bytes_not_materialized();
            directives.push((head.desc_va, d));
            for &t in &tail_idx {
                consumed[t] = true;
                elided[t] = true;
            }
            break;
        }
    }

    // Collect the elided windows; every elided job matched one.
    let mut windows: Vec<(usize, usize)> = (0..jobs.len())
        .filter(|&i| elided[i])
        .filter_map(|i| jobs[i].window)
        .collect();
    windows.sort_unstable();
    // Windows of distinct jobs can never share steps in a well-formed
    // recording; a crafted stream that makes them overlap (or hides a
    // metastate delta inside one) gets no fusion at all.
    let overlapping = windows.windows(2).any(|w| w[1].0 < w[0].1);
    let delta_inside = prog
        .deltas
        .iter()
        .any(|d| windows.iter().any(|&(s, e)| d.event >= s && d.event < e));
    if overlapping || delta_inside {
        return FusionPlan::default();
    }

    let steps_elided: u64 = windows.iter().map(|&(s, e)| (e - s) as u64).sum();
    let chains_fused = directives.len() as u32;
    let jobs_elided = consumed.iter().filter(|&&c| c).count() as u32 + copies_elided;
    directives.sort_by_key(|e| e.0);
    FusionPlan {
        directives,
        elided: windows,
        summary: FusionSummary {
            chains_fused,
            instrs_fused,
            copies_elided,
            jobs_elided,
            steps_elided,
            bytes_not_materialized,
        },
    }
}

/// Verifies a structural chain against the R7 dataflow facts: the moved
/// tail accesses must not race any metastate delta inside the fused
/// window, and (when an `add` leaves the intermediate unmaterialized) the
/// intermediate must be dead — invisible to every later event — exactly
/// as rule R7's interval analysis sees it.
fn verify_chain(
    prog: &IrProgram,
    jobs: &[Job],
    elided: &[bool],
    head_idx: usize,
    tail_idx: &[usize],
    add: Option<&TailAdd>,
    head_out: &Operand,
) -> bool {
    let head_event = jobs[head_idx].event;
    let last_event = tail_idx
        .iter()
        .map(|&t| jobs[t].event)
        .max()
        .unwrap_or(head_event);

    // Every tail operand (read or write) is touched at head time instead
    // of tail time; a delta landing inside the fused window on any of
    // those bytes would observe — or produce — different bytes.
    let moved: Vec<(u64, u64)> = tail_idx
        .iter()
        .filter_map(|&t| jobs[t].instr)
        .flat_map(|i| i.operands.iter().flat_map(runs_as_ranges))
        .collect();
    for d in &prog.deltas {
        if d.event <= head_event || d.event > last_event {
            continue;
        }
        let dr = (d.pa, d.pa + d.len as u64);
        if moved.iter().any(|&m| ranges_intersect(m, dr).is_some()) {
            return false;
        }
    }

    // Without an absorbed add the head's buffer holds its final bytes
    // from the head's own window onward; nothing else moved.
    let Some(_) = add else { return true };

    // The intermediate X is never written in the fused execution: prove
    // no later event can observe the difference.
    let x_runs: Vec<(u64, u64)> = runs_as_ranges(head_out).collect();
    let mut slots = vec![prog.input.range(), prog.output.range()];
    slots.extend(prog.weights.iter().map(|w| w.range()));
    for &x in &x_runs {
        if slots.iter().any(|&s| ranges_intersect(x, s).is_some()) {
            return false;
        }
    }

    // Forward scan after the head: deltas XOR against live bytes (value-
    // dependent), reads observe them; both are only safe over bytes some
    // later write has already re-defined identically in both executions.
    let mut covered = IntervalSet::new();
    let check = |ranges: &mut dyn Iterator<Item = (u64, u64)>, covered: &IntervalSet| -> bool {
        for r in ranges {
            for &x in &x_runs {
                if let Some((s, e)) = ranges_intersect(r, x) {
                    if !covered.covers(s, e) {
                        return false;
                    }
                }
            }
        }
        true
    };
    let mut di = prog.deltas.partition_point(|d| d.event <= head_event);
    let later_jobs = jobs
        .iter()
        .enumerate()
        .filter(|&(i, j)| j.event > last_event && !elided[i] && !tail_idx.contains(&i));
    for (_, j) in later_jobs {
        while di < prog.deltas.len() && prog.deltas[di].event < j.event {
            let d = &prog.deltas[di];
            if !check(&mut std::iter::once((d.pa, d.pa + d.len as u64)), &covered) {
                return false;
            }
            di += 1;
        }
        // An opaque job after the chain could touch anything.
        let Some(instr) = j.instr else { return false };
        let mut reads = instr
            .operands
            .iter()
            .filter(|o| o.dir == Dir::Read)
            .flat_map(runs_as_ranges);
        if !check(&mut reads, &covered) {
            return false;
        }
        for w in instr.operands.iter().filter(|o| o.dir == Dir::Write) {
            for r in runs_as_ranges(w) {
                for &x in &x_runs {
                    if let Some((s, e)) = ranges_intersect(r, x) {
                        covered.insert(s, e);
                    }
                }
            }
        }
    }
    while di < prog.deltas.len() {
        let d = &prog.deltas[di];
        if !check(&mut std::iter::once((d.pa, d.pa + d.len as u64)), &covered) {
            return false;
        }
        di += 1;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{CostSummary, DeltaLift, JobChain, LiftedDesc, RegClass};
    use crate::recording::DataSlot;
    use crate::shadow::WalkSummary;
    use grt_gpu::{ConvParams, JobDescriptor, JobStatus};
    use std::rc::Rc;

    // Synthetic operand arena, well away from the data slots.
    const X: u64 = 0x10_0000; // head output (the fusion intermediate)
    const Y: u64 = 0x20_0000; // tail add's other operand
    const Z: u64 = 0x30_0000;
    const O1: u64 = 0x40_0000;
    const O2: u64 = 0x50_0000;
    const LEN: u64 = 64;

    fn w(offset: u32, value: u32) -> Step {
        Step::RegWrite {
            offset,
            value,
            class: RegClass::classify(offset),
            root_latched: None,
        }
    }

    fn r(offset: u32) -> Step {
        Step::RegRead {
            offset,
            value: 0,
            verify: false,
        }
    }

    fn poll(reg: u32, mask: u32, cond: u8, delay_us: u32) -> Step {
        Step::Poll {
            reg,
            mask,
            cond,
            cmp: 0,
            max_iters: 100,
            delay_us,
        }
    }

    fn pm_metrics(steps: &mut Vec<Step>) {
        for off in [
            gc::GPU_STATUS,
            gc::SHADER_READY_LO,
            gc::L2_READY_LO,
            gc::TILER_READY_LO,
            gc::SHADER_PWRTRANS_LO,
            jc::JOB_IRQ_JS_STATE,
        ] {
            steps.push(r(off));
        }
    }

    fn cache_clean(steps: &mut Vec<Step>) {
        steps.push(w(gc::GPU_COMMAND, gc::CMD_CLEAN_INV_CACHES));
        steps.push(poll(
            gc::GPU_IRQ_RAWSTAT,
            gc::IRQ_CLEAN_CACHES_COMPLETED,
            1,
            5,
        ));
        steps.push(w(gc::GPU_IRQ_CLEAR, gc::IRQ_CLEAN_CACHES_COMPLETED));
    }

    fn mmu_flush(steps: &mut Vec<Step>) {
        let base = mc::as_base(0);
        steps.push(w(base + mc::AS_LOCKADDR_LO, 0));
        steps.push(w(base + mc::AS_LOCKADDR_HI, 0));
        for cmd in [mc::AS_CMD_LOCK, mc::AS_CMD_FLUSH_MEM, mc::AS_CMD_UNLOCK] {
            steps.push(w(base + mc::AS_COMMAND, cmd));
            steps.push(poll(base + mc::AS_STATUS, mc::AS_STATUS_ACTIVE, 0, 2));
        }
    }

    /// Emits one complete kbase dialog window (quiescent power domains);
    /// returns the `JS_COMMAND = START` event index.
    fn push_window(steps: &mut Vec<Step>) -> usize {
        pm_metrics(steps);
        cache_clean(steps);
        mmu_flush(steps);
        steps.push(r(gc::LATEST_FLUSH));
        let sb = jc::slot_base(0);
        for off in [
            jc::JS_FLUSH_ID_NEXT,
            jc::JS_HEAD_LO,
            jc::JS_HEAD_HI,
            jc::JS_AFFINITY_LO,
            jc::JS_AFFINITY_HI,
            jc::JS_CONFIG,
        ] {
            steps.push(w(sb + off, 0));
        }
        let event = steps.len();
        steps.push(w(sb + jc::JS_COMMAND, jc::JS_CMD_START));
        steps.push(Step::WaitIrq { line: 1 });
        steps.push(r(jc::JOB_IRQ_STATUS));
        steps.push(w(jc::JOB_IRQ_CLEAR, 1));
        steps.push(r(sb + jc::JS_STATUS));
        mmu_flush(steps);
        cache_clean(steps);
        pm_metrics(steps);
        steps.push(r(gc::SHADER_PWRTRANS_LO));
        steps.push(r(gc::L2_PWRTRANS_LO));
        event
    }

    fn rd(name: &'static str, va: u64, elems: u64) -> Operand {
        Operand {
            name,
            dir: Dir::Read,
            va,
            elems,
            pa_runs: vec![(va, elems * 4)],
            unmapped: 0,
        }
    }

    fn wr(va: u64, elems: u64) -> Operand {
        Operand {
            name: "out",
            dir: Dir::Write,
            va,
            elems,
            pa_runs: vec![(va, elems * 4)],
            unmapped: 0,
        }
    }

    fn conv_instr(out_va: u64) -> SemInstr {
        let p = ConvParams {
            in_c: 1,
            in_h: 8,
            in_w: 8,
            out_c: 1,
            k: 1,
            stride: 1,
            pad: 0,
        };
        SemInstr {
            op: ShaderOp::Conv2d {
                in_va: Z + 0x1000,
                w_va: Z + 0x2000,
                b_va: 0,
                out_va,
                p,
                tiles: 1,
            },
            kind: OpKind::Conv2d,
            macs: LEN,
            operands: vec![
                rd("in", Z + 0x1000, LEN),
                rd("w", Z + 0x2000, 1),
                wr(out_va, LEN),
            ],
        }
    }

    fn add_instr(a_va: u64, b_va: u64, out_va: u64) -> SemInstr {
        SemInstr {
            op: ShaderOp::Add {
                a_va,
                b_va,
                out_va,
                len: LEN as u32,
            },
            kind: OpKind::Add,
            macs: LEN,
            operands: vec![rd("a", a_va, LEN), rd("b", b_va, LEN), wr(out_va, LEN)],
        }
    }

    fn relu_instr(va: u64) -> SemInstr {
        SemInstr {
            op: ShaderOp::Relu {
                in_va: va,
                out_va: va,
                len: LEN as u32,
            },
            kind: OpKind::Relu,
            macs: LEN,
            operands: vec![rd("in", va, LEN), wr(va, LEN)],
        }
    }

    fn copy_instr(src: u64, dst: u64) -> SemInstr {
        SemInstr {
            op: ShaderOp::Copy {
                src_va: src,
                dst_va: dst,
                len: LEN as u32,
            },
            kind: OpKind::Copy,
            macs: 0,
            operands: vec![rd("src", src, LEN), wr(dst, LEN)],
        }
    }

    fn chain(event: usize, desc_va: u64, instr: SemInstr) -> JobChain {
        JobChain {
            event,
            slot: 0,
            asn: 0,
            head_va: desc_va,
            root: 0,
            walk: Rc::new(WalkSummary::default()),
            walk_fresh: false,
            descs: vec![LiftedDesc {
                va: desc_va,
                desc: JobDescriptor {
                    shader_va: desc_va + 0x100,
                    n_instrs: 1,
                    cost_us: 10,
                    next_va: 0,
                    status: JobStatus::Done,
                },
                instrs: vec![instr],
                anomalies: vec![],
            }],
            anomalies: vec![],
        }
    }

    fn program(steps: Vec<Step>, jobs: Vec<JobChain>) -> IrProgram {
        IrProgram {
            workload: "t".into(),
            gpu_id: 0x60A0_0001,
            input: DataSlot {
                pa: 0x1000,
                len_elems: 16,
            },
            output: DataSlot {
                pa: 0x2000,
                len_elems: 16,
            },
            weights: vec![],
            steps,
            deltas: vec![],
            jobs,
            cost: CostSummary::default(),
        }
    }

    /// Emits `instrs.len()` back-to-back dialog windows and the matching
    /// job chains.
    fn windows(instrs: Vec<SemInstr>) -> IrProgram {
        let mut steps = Vec::new();
        let mut jobs = Vec::new();
        for (i, instr) in instrs.into_iter().enumerate() {
            let event = push_window(&mut steps);
            jobs.push(chain(event, 0x7_0000 + i as u64 * 0x100, instr));
        }
        program(steps, jobs)
    }

    #[test]
    fn conv_add_relu_chain_fuses() {
        let prog = windows(vec![conv_instr(X), add_instr(X, Y, O1), relu_instr(O1)]);
        let plan = analyze(&prog);
        assert_eq!(plan.summary.chains_fused, 1);
        assert_eq!(plan.summary.instrs_fused, 2);
        assert_eq!(plan.summary.jobs_elided, 2);
        assert_eq!(plan.summary.bytes_not_materialized, LEN * 4);
        assert_eq!(plan.elided.len(), 2);
        let (_, d) = &plan.directives[0];
        assert_eq!(d.kind, OpKind::FusedConvAddRelu);
        let add = d.tail_add.as_ref().unwrap();
        assert_eq!(add.other_va, Y);
        assert_eq!(add.out_va, O1);
        assert!(add.interm_first);
        assert!(d.tail_relu);
        assert_eq!(d.extra_cost_us, 20);
    }

    #[test]
    fn conv_relu_in_place_fuses_without_materialization_savings() {
        let prog = windows(vec![conv_instr(X), relu_instr(X)]);
        let plan = analyze(&prog);
        assert_eq!(plan.summary.chains_fused, 1);
        assert_eq!(plan.summary.bytes_not_materialized, 0);
        assert_eq!(plan.directives[0].1.kind, OpKind::FusedConvRelu);
    }

    /// The satellite case ISSUE 10 pins: an intermediate consumed *twice*
    /// must block add-fusion — the fused execution would never write X,
    /// and the second consumer would read stale bytes.
    #[test]
    fn live_intermediate_blocks_fusion() {
        let blocked = windows(vec![
            conv_instr(X),
            add_instr(X, Y, O1),
            add_instr(X, Z, O2), // second consumer keeps X live
        ]);
        let plan = analyze(&blocked);
        assert_eq!(plan.summary.chains_fused, 0, "live X must block the chain");
        assert!(plan.directives.is_empty());

        // Control: the same shape with the later add reading Z twice
        // instead of X leaves the intermediate dead, and the chain fuses.
        let free = windows(vec![
            conv_instr(X),
            add_instr(X, Y, O1),
            add_instr(Z, Z, O2),
        ]);
        let plan = analyze(&free);
        assert_eq!(plan.summary.chains_fused, 1);
        assert_eq!(plan.directives[0].1.kind, OpKind::FusedConvAdd);
    }

    #[test]
    fn identity_copies_elide_and_matmul_add_fuses() {
        let mut instrs = vec![copy_instr(Z, Z)];
        instrs.push(SemInstr {
            op: ShaderOp::MatMul {
                a_va: Z + 0x1000,
                b_va: Z + 0x2000,
                bias_va: 0,
                out_va: X,
                m: 1,
                k: LEN as u32,
                n: LEN as u32,
                tiles: 1,
            },
            kind: OpKind::MatMul,
            macs: LEN * LEN,
            operands: vec![
                rd("a", Z + 0x1000, LEN),
                rd("b", Z + 0x2000, LEN * LEN),
                wr(X, LEN),
            ],
        });
        instrs.push(add_instr(Y, X, O1)); // interm as second operand
        let prog = windows(instrs);
        let plan = analyze(&prog);
        assert_eq!(plan.summary.copies_elided, 1);
        assert_eq!(plan.summary.chains_fused, 1);
        assert_eq!(plan.summary.jobs_elided, 2);
        let (_, d) = &plan.directives[0];
        assert_eq!(d.kind, OpKind::FusedMatMulAdd);
        assert!(!d.tail_add.as_ref().unwrap().interm_first);
        assert_eq!(plan.elided.len(), 2);
        // Elided windows are sorted, disjoint step ranges.
        assert!(plan.elided[0].1 <= plan.elided[1].0);
    }

    /// A metastate delta landing between the head and the tail touches
    /// bytes whose access the fusion would move in time: no fusion.
    #[test]
    fn delta_inside_the_fused_window_blocks_fusion() {
        let mut steps = Vec::new();
        let e0 = push_window(&mut steps);
        let delta_event = steps.len();
        steps.push(Step::LoadDelta { index: 0 });
        let e1 = push_window(&mut steps);
        let mut prog = program(
            steps,
            vec![
                chain(e0, 0x7_0000, conv_instr(X)),
                chain(e1, 0x7_0100, add_instr(X, Y, O1)),
            ],
        );
        prog.deltas.push(DeltaLift {
            event: delta_event,
            pa: Y, // overlaps the add's moved read
            len: 16,
            wire_len: 8,
            parsed: None,
        });
        let plan = analyze(&prog);
        assert_eq!(plan.summary.chains_fused, 0);

        // Control: the same delta on unrelated bytes doesn't block.
        prog.deltas[0].pa = Z + 0x8000;
        let plan = analyze(&prog);
        assert_eq!(plan.summary.chains_fused, 1);
    }

    /// A job whose dialog deviates from the kbase shape (an extra read
    /// spliced into the window) must not elide or fuse.
    #[test]
    fn deviant_dialog_window_blocks_fusion() {
        let mut steps = Vec::new();
        let e0 = push_window(&mut steps);
        // Corrupt the head's submit window: swap one pm-metrics read.
        steps[e0 - 24] = r(gc::L2_PWRTRANS_LO);
        let e1 = push_window(&mut steps);
        let prog = program(
            steps,
            vec![
                chain(e0, 0x7_0000, conv_instr(X)),
                chain(e1, 0x7_0100, relu_instr(X)),
            ],
        );
        let plan = analyze(&prog);
        assert_eq!(plan.summary.chains_fused, 0);
        assert_eq!(plan.summary.copies_elided, 0);
    }

    /// An intermediate aliasing a data slot is never fused away: the
    /// output slot must hold real bytes after replay.
    #[test]
    fn slot_aliasing_intermediate_blocks_fusion() {
        let mut prog = windows(vec![conv_instr(X), add_instr(X, Y, O1)]);
        prog.output = DataSlot {
            pa: X,
            len_elems: LEN as u32,
        };
        let plan = analyze(&prog);
        assert_eq!(plan.summary.chains_fused, 0);
    }
}
