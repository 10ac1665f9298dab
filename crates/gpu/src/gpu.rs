//! The GPU device model: register file and hardware state machines.
//!
//! Everything the outside world can observe goes through three channels,
//! exactly as in §2.1: [`Gpu::read_reg`] / [`Gpu::write_reg`], the shared
//! [`Memory`], and interrupt lines. Hardware activities (reset, power
//! transitions, cache flushes, job execution) take *virtual time*: their
//! completion is a timestamp, and register reads / interrupt queries are
//! evaluated against the shared clock. This is what gives polling loops and
//! interrupt waits realistic costs without a central event pump.

use crate::fusion::FusedDirective;
use crate::job::{JobDescriptor, JobStatus};
use crate::mem::Memory;
use crate::mmu::{AddressSpace, Tlb, TlbStats, Walker};
use crate::regs::{gpu_control as gc, job_control as jc, mmu_control as mc};
use crate::shader::{
    execute_program, ExecReport, ExecScratch, OpKindStats, ShaderFault, OP_KIND_COUNT,
};
use crate::sku::GpuSku;
use grt_sim::{Clock, SimTime};
use std::cell::{RefCell, RefMut};
use std::rc::Rc;

/// Virtual duration of a soft/hard reset.
const RESET_TIME: SimTime = SimTime::from_micros(150);
/// Virtual duration of a power-domain transition.
const POWER_TIME: SimTime = SimTime::from_micros(80);
/// Virtual duration of a cache clean/invalidate.
const FLUSH_TIME: SimTime = SimTime::from_micros(25);
/// Virtual duration of an AS command (UPDATE/LOCK/FLUSH).
const AS_CMD_TIME: SimTime = SimTime::from_micros(8);
/// Fixed per-job overhead on top of the descriptor's cost.
const JOB_BASE_TIME: SimTime = SimTime::from_micros(30);

/// Fraction of a descriptor's modeled cost that is pure compute (1/N).
///
/// The remaining (N-1)/N is memory-stall time that scales with the measured
/// TLB-miss-per-access ratio: the old per-element-walk engine had one walk
/// per access (full stall cost), the fast path amortizes walks over page
/// runs and pays only the fraction it actually misses.
const COMPUTE_FRACTION_DIV: u128 = 8;

/// Cumulative execution fast-path statistics (observability for the replay
/// profiler and benches). Counters survive reset, like [`Gpu::macs_executed`],
/// so callers can diff before/after snapshots across a replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Software-TLB hit/miss/flush counters.
    pub tlb: TlbStats,
    /// Element accesses (f32 loads/stores plus instruction bytes) issued by
    /// shader programs.
    pub element_accesses: u64,
    /// Contiguous page runs translated (one walk-or-hit per run).
    pub bulk_runs: u64,
    /// Copy runs that aliased in place (source and destination resolved to
    /// the same physical run, nothing moved).
    pub alias_runs: u64,
    /// Elements covered by aliased copy runs.
    pub alias_elems: u64,
    /// Per-op-kind event/mac/time breakdown, indexed by `OpKind::index()`.
    pub per_kind: [OpKindStats; OP_KIND_COUNT],
}

impl ExecStats {
    /// Counter-wise difference `self - before`.
    ///
    /// Both snapshots must come from the same [`Gpu`]; the counters are
    /// monotonic (they survive reset), so the difference isolates exactly
    /// the work done between the two snapshots.
    pub fn delta_since(&self, before: &ExecStats) -> ExecStats {
        let mut per_kind = [OpKindStats::default(); OP_KIND_COUNT];
        for (d, (a, b)) in per_kind
            .iter_mut()
            .zip(self.per_kind.iter().zip(before.per_kind.iter()))
        {
            d.events = a.events - b.events;
            d.macs = a.macs - b.macs;
            d.ns = a.ns - b.ns;
        }
        ExecStats {
            tlb: TlbStats {
                hits: self.tlb.hits - before.tlb.hits,
                misses: self.tlb.misses - before.tlb.misses,
                flushes: self.tlb.flushes - before.tlb.flushes,
            },
            element_accesses: self.element_accesses - before.element_accesses,
            bulk_runs: self.bulk_runs - before.bulk_runs,
            alias_runs: self.alias_runs - before.alias_runs,
            alias_elems: self.alias_elems - before.alias_elems,
            per_kind,
        }
    }
}

/// Models a descriptor's execution time from its JIT cost and the measured
/// walk amortization.
///
/// `cost_us` was calibrated against the old engine, where every access did a
/// full page-table walk (`walks == accesses` reproduces `cost_us` exactly).
/// We split that budget into a compute fraction (1/8) that is irreducible and
/// a stall fraction (7/8) scaled by the walk-per-access ratio the TLB + bulk
/// path actually achieved. A job with no accesses (e.g. a watchdog sleep job
/// with `n_instrs == 0`) keeps its full modeled cost.
///
/// `charged` is the accesses actually billed at element granularity: bulk
/// copies move whole page runs per transaction, so their elements are
/// replaced by their run count (`accesses - copy_elems + copy_runs`) while
/// the calibration denominator stays the full element count.
fn job_exec_time(cost_us: u32, accesses: u64, charged: u64, walks: u64) -> SimTime {
    let cost_ns = cost_us as u128 * 1_000;
    if accesses == 0 {
        return SimTime::from_nanos(cost_ns as u64);
    }
    let walks = walks.min(accesses) as u128;
    let charged = charged.min(accesses) as u128;
    let accesses = accesses as u128;
    let stall_div = COMPUTE_FRACTION_DIV - 1;
    let ns = cost_ns * (charged + stall_div * walks) / (COMPUTE_FRACTION_DIV * accesses);
    SimTime::from_nanos(ns as u64)
}

/// The three interrupt lines a Mali exposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IrqLine {
    /// GPU-global events (reset, power, cache flush, faults).
    Gpu,
    /// Job slot completion/failure.
    Job,
    /// MMU page faults.
    Mmu,
}

/// A raw-status bit set that becomes visible at a future virtual time.
#[derive(Debug, Clone, Copy)]
struct TimedIrq {
    at: SimTime,
    line: IrqLine,
    bits: u32,
}

/// A power domain with a timed transition.
#[derive(Debug, Clone, Copy, Default)]
struct PowerDomain {
    current: u32,
    target: u32,
    trans_until: SimTime,
}

impl PowerDomain {
    fn ready(&self, now: SimTime) -> u32 {
        if now >= self.trans_until {
            self.target
        } else {
            self.current
        }
    }

    fn in_transition(&self, now: SimTime) -> u32 {
        if now < self.trans_until {
            self.current ^ self.target
        } else {
            0
        }
    }

    fn request(&mut self, now: SimTime, target: u32) {
        self.current = self.ready(now);
        self.target = target;
        self.trans_until = now + POWER_TIME;
    }
}

/// One job slot's architectural state.
#[derive(Debug, Clone, Copy, Default)]
struct JobSlot {
    head_lo: u32,
    head_hi: u32,
    affinity_lo: u32,
    affinity_hi: u32,
    config: u32,
    active_until: SimTime,
    /// Status once `active_until` passes.
    final_status: u32,
    /// True if a chain has ever been started on this slot.
    started: bool,
}

/// One address space's register state.
#[derive(Debug, Clone, Copy, Default)]
struct AsState {
    transtab_lo: u32,
    transtab_hi: u32,
    memattr_lo: u32,
    memattr_hi: u32,
    lockaddr_lo: u32,
    lockaddr_hi: u32,
    faultstatus: u32,
    faultaddr_lo: u32,
    faultaddr_hi: u32,
    cmd_until: SimTime,
    latched: AddressSpace,
}

/// The GPU device.
///
/// # Examples
///
/// ```
/// use grt_gpu::{Gpu, GpuSku, Memory};
/// use grt_gpu::regs::gpu_control as gc;
/// use grt_sim::Clock;
/// use std::cell::RefCell;
/// use std::rc::Rc;
///
/// let clock = Clock::new();
/// let mem = Rc::new(RefCell::new(Memory::new(1 << 20)));
/// let mut gpu = Gpu::new(GpuSku::mali_g71_mp8(), &clock, &mem);
/// assert_eq!(gpu.read_reg(gc::GPU_ID), 0x6000_0011);
/// ```
#[derive(Debug, Clone)]
pub struct Gpu {
    sku: GpuSku,
    clock: Rc<Clock>,
    mem: Rc<RefCell<Memory>>,

    // Interrupt state per line.
    gpu_rawstat: u32,
    gpu_mask: u32,
    job_rawstat: u32,
    job_mask: u32,
    mmu_rawstat: u32,
    mmu_mask: u32,
    timed: Vec<TimedIrq>,

    // GPU-global state machines.
    reset_until: SimTime,
    flush_until: SimTime,
    latest_flush: u32,
    shader_config: u32,
    tiler_config: u32,
    l2_mmu_config: u32,

    shader_pwr: PowerDomain,
    tiler_pwr: PowerDomain,
    l2_pwr: PowerDomain,

    slots: Vec<JobSlot>,
    address_spaces: Vec<AsState>,

    /// Total MACs executed (observability for tests/benches).
    macs_executed: u64,
    /// Total jobs completed successfully.
    jobs_done: u64,
    /// Software TLB shared by descriptor fetch and shader execution.
    /// Flushed at AS commands, reset, and any descriptor boundary where
    /// the CPU wrote memory or the translation root changed since the
    /// last flush (see `tlb_ctx`).
    tlb: Tlb,
    /// Page-table root (`root_pa`) the cached translations were walked
    /// through. `None` forces the next descriptor boundary to flush.
    /// Combined with draining the memory's CPU-write log through
    /// `Tlb::note_store`, this lets translations survive descriptor
    /// boundaries: a boundary flushes only when the latched root changed
    /// or a CPU write actually landed on a walked table page.
    tlb_root: Option<u64>,
    /// Reusable kernel scratch buffers (kills per-op Vec churn).
    scratch: ExecScratch,
    /// Cumulative element accesses by shader programs (survives reset).
    exec_element_accesses: u64,
    /// Cumulative page runs translated (survives reset).
    exec_bulk_runs: u64,
    /// Cumulative aliased (zero-copy) runs and elements (survive reset).
    exec_alias_runs: u64,
    exec_alias_elems: u64,
    /// Cumulative per-op-kind breakdown (survives reset).
    exec_per_kind: [OpKindStats; OP_KIND_COUNT],

    // Performance-counter block.
    prfcnt_base_lo: u32,
    prfcnt_base_hi: u32,
    prfcnt_config: u32,
    prfcnt_enables: [u32; 4],
    /// Counter epoch: values at the last PRFCNT_CLEAR.
    prfcnt_clear_macs: u64,
    prfcnt_clear_jobs: u64,
    prfcnt_clear_at: SimTime,
    /// GPU-busy time accumulated for the cycle counter.
    busy_until: SimTime,

    /// Batched-replay lanes: additional memory images whose control state
    /// (page tables, descriptors, metastate) is byte-identical to the
    /// primary memory and whose data pages hold a different inference
    /// input each. While attached, every job descriptor's shader program
    /// runs on the primary and each lane in one `execute_program` call,
    /// convs lane-major (DESIGN.md §14): descriptor fetch, page walks, and
    /// batch-resident operand reads
    /// ([`crate::shader::ExecReport::resident_elems`]) are paid once per
    /// batch, marginal lanes pay only their data streaming cost. Empty in
    /// scalar operation.
    batch_lanes: Vec<Rc<RefCell<Memory>>>,

    /// Fusion plan for the current replay: `(descriptor VA, directive)`
    /// pairs sorted by VA. A descriptor whose VA appears here executes as
    /// a fused superinstruction (tails applied in scratch); descriptors
    /// not listed run unfused. Empty in recording and one-shot replay.
    fusion_plan: Vec<(u64, FusedDirective)>,
}

impl Gpu {
    /// Creates a powered-off GPU of the given SKU attached to `mem`.
    pub fn new(sku: GpuSku, clock: &Rc<Clock>, mem: &Rc<RefCell<Memory>>) -> Self {
        let slots = vec![JobSlot::default(); sku.job_slots as usize];
        let address_spaces = vec![AsState::default(); sku.address_spaces as usize];
        Gpu {
            sku,
            clock: Rc::clone(clock),
            mem: Rc::clone(mem),
            gpu_rawstat: 0,
            gpu_mask: 0,
            job_rawstat: 0,
            job_mask: 0,
            mmu_rawstat: 0,
            mmu_mask: 0,
            timed: Vec::new(),
            reset_until: SimTime::ZERO,
            flush_until: SimTime::ZERO,
            latest_flush: 0,
            shader_config: 0x0001_0008,
            tiler_config: 0x0000_0010,
            l2_mmu_config: 0x0300_0000,
            shader_pwr: PowerDomain::default(),
            tiler_pwr: PowerDomain::default(),
            l2_pwr: PowerDomain::default(),
            slots,
            address_spaces,
            macs_executed: 0,
            jobs_done: 0,
            tlb: Tlb::new(),
            tlb_root: None,
            scratch: ExecScratch::default(),
            exec_element_accesses: 0,
            exec_bulk_runs: 0,
            exec_alias_runs: 0,
            exec_alias_elems: 0,
            exec_per_kind: [OpKindStats::default(); OP_KIND_COUNT],
            prfcnt_base_lo: 0,
            prfcnt_base_hi: 0,
            prfcnt_config: 0,
            prfcnt_enables: [0; 4],
            prfcnt_clear_macs: 0,
            prfcnt_clear_jobs: 0,
            prfcnt_clear_at: SimTime::ZERO,
            busy_until: SimTime::ZERO,
            batch_lanes: Vec::new(),
            fusion_plan: Vec::new(),
        }
    }

    /// Attaches batch lanes for a batched replay. Each lane must be a full
    /// memory image whose control state matches the primary memory (in
    /// practice: a clone of the primary taken after reset/wipe/weight/input
    /// restore, with the input slot overwritten by that lane's input).
    /// Lanes stay attached until [`Gpu::take_batch_lanes`].
    pub fn set_batch_lanes(&mut self, lanes: Vec<Rc<RefCell<Memory>>>) {
        self.batch_lanes = lanes;
    }

    /// The attached batch lanes (empty in scalar operation); a replayer
    /// mirrors metastate deltas onto each of them.
    pub fn batch_lanes(&self) -> &[Rc<RefCell<Memory>>] {
        &self.batch_lanes
    }

    /// Detaches and returns the batch lanes, restoring scalar operation.
    pub fn take_batch_lanes(&mut self) -> Vec<Rc<RefCell<Memory>>> {
        std::mem::take(&mut self.batch_lanes)
    }

    /// Attaches a fusion plan: `(descriptor VA, directive)` pairs. Sorted
    /// by VA internally; descriptors whose VA matches execute fused until
    /// [`Gpu::take_fusion_plan`] detaches the plan.
    pub fn set_fusion_plan(&mut self, mut plan: Vec<(u64, FusedDirective)>) {
        plan.sort_by_key(|e| e.0);
        self.fusion_plan = plan;
    }

    /// Detaches and returns the fusion plan, restoring unfused execution.
    pub fn take_fusion_plan(&mut self) -> Vec<(u64, FusedDirective)> {
        std::mem::take(&mut self.fusion_plan)
    }

    /// The SKU this device instantiates.
    pub fn sku(&self) -> &GpuSku {
        &self.sku
    }

    /// Total MACs executed by shader programs (test observability).
    pub fn macs_executed(&self) -> u64 {
        self.macs_executed
    }

    /// Total successfully completed jobs (test observability).
    pub fn jobs_done(&self) -> u64 {
        self.jobs_done
    }

    /// Cumulative execution fast-path statistics.
    ///
    /// Like [`Gpu::macs_executed`], these survive reset so the replayer can
    /// diff snapshots taken before and after a replay.
    pub fn exec_stats(&self) -> ExecStats {
        ExecStats {
            tlb: self.tlb.stats(),
            element_accesses: self.exec_element_accesses,
            bulk_runs: self.exec_bulk_runs,
            alias_runs: self.exec_alias_runs,
            alias_elems: self.exec_alias_elems,
            per_kind: self.exec_per_kind,
        }
    }

    /// Folds a descriptor's [`ExecReport`] into the cumulative per-kind
    /// breakdown, attributing the descriptor's modeled nanoseconds across
    /// kinds proportionally to their MAC counts (remainder to the largest
    /// kind; a MAC-free report charges the first kind that ran anything).
    fn accumulate_per_kind(&mut self, rep: &ExecReport, dur_ns: u64) {
        let total_macs: u64 = rep.per_kind.iter().map(|k| k.macs).sum();
        for (acc, k) in self.exec_per_kind.iter_mut().zip(rep.per_kind.iter()) {
            acc.events += k.events;
            acc.macs += k.macs;
        }
        if dur_ns == 0 {
            return;
        }
        if total_macs == 0 {
            if let Some(i) = rep.per_kind.iter().position(|k| k.events > 0) {
                self.exec_per_kind[i].ns += dur_ns;
            }
            return;
        }
        let mut assigned = 0u64;
        let mut max_i = 0usize;
        for (i, k) in rep.per_kind.iter().enumerate() {
            if k.macs > rep.per_kind[max_i].macs {
                max_i = i;
            }
            let share = ((dur_ns as u128) * (k.macs as u128) / (total_macs as u128)) as u64;
            self.exec_per_kind[i].ns += share;
            assigned += share;
        }
        self.exec_per_kind[max_i].ns += dur_ns - assigned;
    }

    /// Moves due timed IRQ bits into the raw status registers.
    fn sync(&mut self) {
        let now = self.clock.now();
        let mut i = 0;
        while i < self.timed.len() {
            if self.timed[i].at <= now {
                let t = self.timed.swap_remove(i);
                match t.line {
                    IrqLine::Gpu => self.gpu_rawstat |= t.bits,
                    IrqLine::Job => self.job_rawstat |= t.bits,
                    IrqLine::Mmu => self.mmu_rawstat |= t.bits,
                }
            } else {
                i += 1;
            }
        }
    }

    /// When will `line` next have a pending (masked) interrupt, if ever?
    ///
    /// Returns the current time if one is already pending. GPUShim uses
    /// this to advance the clock straight to an interrupt instead of
    /// spinning.
    pub fn next_irq_at(&mut self, line: IrqLine) -> Option<SimTime> {
        self.sync();
        let (raw, mask) = match line {
            IrqLine::Gpu => (self.gpu_rawstat, self.gpu_mask),
            IrqLine::Job => (self.job_rawstat, self.job_mask),
            IrqLine::Mmu => (self.mmu_rawstat, self.mmu_mask),
        };
        if raw & mask != 0 {
            return Some(self.clock.now());
        }
        self.timed
            .iter()
            .filter(|t| t.line == line && t.bits & mask_for(line, mask) != 0)
            .map(|t| t.at)
            .min()
    }

    /// Earliest time at which *any* in-flight hardware activity completes.
    ///
    /// Used by poll-loop offloading to fast-forward rather than iterate.
    pub fn next_activity_at(&self) -> Option<SimTime> {
        let now = self.clock.now();
        let mut best: Option<SimTime> = None;
        let mut consider = |t: SimTime| {
            if t > now {
                best = Some(best.map_or(t, |b| b.min(t)));
            }
        };
        consider(self.reset_until);
        consider(self.flush_until);
        consider(self.shader_pwr.trans_until);
        consider(self.tiler_pwr.trans_until);
        consider(self.l2_pwr.trans_until);
        for s in &self.slots {
            consider(s.active_until);
        }
        for a in &self.address_spaces {
            consider(a.cmd_until);
        }
        for t in &self.timed {
            consider(t.at);
        }
        best
    }

    /// Reads a register at the current virtual time.
    pub fn read_reg(&mut self, offset: u32) -> u32 {
        self.sync();
        let now = self.clock.now();
        // Job slot window?
        if (0x1800..0x1800 + 16 * 0x80).contains(&offset) {
            let slot = ((offset - 0x1800) / 0x80) as usize;
            let reg = (offset - 0x1800) % 0x80;
            if slot >= self.slots.len() {
                return 0;
            }
            let s = &self.slots[slot];
            return match reg {
                jc::JS_HEAD_LO => s.head_lo,
                jc::JS_HEAD_HI => s.head_hi,
                jc::JS_TAIL_LO => s.head_lo,
                jc::JS_TAIL_HI => s.head_hi,
                jc::JS_AFFINITY_LO => s.affinity_lo,
                jc::JS_AFFINITY_HI => s.affinity_hi,
                jc::JS_CONFIG => s.config,
                jc::JS_STATUS => {
                    if !s.started {
                        jc::JS_STATUS_IDLE
                    } else if now < s.active_until {
                        jc::JS_STATUS_ACTIVE
                    } else {
                        s.final_status
                    }
                }
                jc::JS_FLUSH_ID_NEXT => self.latest_flush,
                _ => 0,
            };
        }
        // Address space window?
        if (0x2400..0x2400 + 16 * 0x40).contains(&offset) {
            let asn = ((offset - 0x2400) / 0x40) as usize;
            let reg = (offset - 0x2400) % 0x40;
            if asn >= self.address_spaces.len() {
                return 0;
            }
            let a = &self.address_spaces[asn];
            return match reg {
                mc::AS_TRANSTAB_LO => a.transtab_lo,
                mc::AS_TRANSTAB_HI => a.transtab_hi,
                mc::AS_MEMATTR_LO => a.memattr_lo,
                mc::AS_MEMATTR_HI => a.memattr_hi,
                mc::AS_LOCKADDR_LO => a.lockaddr_lo,
                mc::AS_LOCKADDR_HI => a.lockaddr_hi,
                mc::AS_FAULTSTATUS => a.faultstatus,
                mc::AS_FAULTADDRESS_LO => a.faultaddr_lo,
                mc::AS_FAULTADDRESS_HI => a.faultaddr_hi,
                mc::AS_STATUS if now < a.cmd_until => mc::AS_STATUS_ACTIVE,
                mc::AS_STATUS => 0,
                _ => 0,
            };
        }
        match offset {
            gc::GPU_ID => self.sku.gpu_id,
            gc::L2_FEATURES => 0x0700_0100 | self.sku.l2_slices,
            gc::CORE_FEATURES => self.sku.shader_cores,
            gc::TILER_FEATURES => 0x0000_0809,
            gc::MEM_FEATURES => 0x0000_0001,
            gc::MMU_FEATURES => 0x0000_2830,
            gc::AS_PRESENT => self.sku.as_present_mask(),
            gc::JS_PRESENT => self.sku.js_present_mask(),
            gc::GPU_IRQ_RAWSTAT => self.gpu_rawstat,
            gc::GPU_IRQ_MASK => self.gpu_mask,
            gc::GPU_IRQ_STATUS => self.gpu_rawstat & self.gpu_mask,
            gc::GPU_STATUS => {
                let mut st = 0;
                if now < self.flush_until {
                    st |= gc::STATUS_CLEAN_ACTIVE;
                }
                if now < self.reset_until {
                    st |= gc::STATUS_RESET_ACTIVE;
                }
                st
            }
            gc::LATEST_FLUSH => self.latest_flush,
            gc::PRFCNT_BASE_LO => self.prfcnt_base_lo,
            gc::PRFCNT_BASE_HI => self.prfcnt_base_hi,
            gc::PRFCNT_CONFIG => self.prfcnt_config,
            gc::PRFCNT_JM_EN => self.prfcnt_enables[0],
            gc::PRFCNT_SHADER_EN => self.prfcnt_enables[1],
            gc::PRFCNT_TILER_EN => self.prfcnt_enables[2],
            gc::PRFCNT_MMU_L2_EN => self.prfcnt_enables[3],
            gc::THREAD_MAX_THREADS => 0x180,
            gc::THREAD_MAX_WORKGROUP_SIZE => 0x180,
            gc::THREAD_MAX_BARRIER_SIZE => 0x180,
            gc::THREAD_FEATURES => 0x0A04_0400,
            o if (gc::TEXTURE_FEATURES_0..gc::TEXTURE_FEATURES_0 + 16).contains(&o) => {
                0x00FE_001E | ((o - gc::TEXTURE_FEATURES_0) << 24)
            }
            o if (gc::JS0_FEATURES..gc::JS0_FEATURES + 64).contains(&o) => {
                let n = (o - gc::JS0_FEATURES) / 4;
                if n < self.sku.job_slots {
                    0x0000_020E
                } else {
                    0
                }
            }
            gc::SHADER_PRESENT_LO => self.sku.shader_present_mask(),
            gc::SHADER_PRESENT_HI => 0,
            gc::TILER_PRESENT_LO => 1,
            gc::L2_PRESENT_LO => self.sku.l2_present_mask(),
            gc::SHADER_READY_LO => self.shader_pwr.ready(now),
            gc::TILER_READY_LO => self.tiler_pwr.ready(now),
            gc::L2_READY_LO => self.l2_pwr.ready(now),
            gc::SHADER_PWRTRANS_LO => self.shader_pwr.in_transition(now),
            gc::TILER_PWRTRANS_LO => self.tiler_pwr.in_transition(now),
            gc::L2_PWRTRANS_LO => self.l2_pwr.in_transition(now),
            gc::SHADER_CONFIG => self.shader_config,
            gc::TILER_CONFIG => self.tiler_config,
            gc::L2_MMU_CONFIG => self.l2_mmu_config,
            jc::JOB_IRQ_RAWSTAT => self.job_rawstat,
            jc::JOB_IRQ_MASK => self.job_mask,
            jc::JOB_IRQ_STATUS => self.job_rawstat & self.job_mask,
            jc::JOB_IRQ_JS_STATE => {
                let mut st = 0;
                for (i, s) in self.slots.iter().enumerate() {
                    if s.started && now < s.active_until {
                        st |= 1 << i;
                    }
                }
                st
            }
            mc::MMU_IRQ_RAWSTAT => self.mmu_rawstat,
            mc::MMU_IRQ_MASK => self.mmu_mask,
            mc::MMU_IRQ_STATUS => self.mmu_rawstat & self.mmu_mask,
            _ => 0,
        }
    }

    /// Writes a register.
    pub fn write_reg(&mut self, offset: u32, value: u32) {
        self.sync();
        let now = self.clock.now();
        if (0x1800..0x1800 + 16 * 0x80).contains(&offset) {
            let slot = ((offset - 0x1800) / 0x80) as usize;
            let reg = (offset - 0x1800) % 0x80;
            if slot >= self.slots.len() {
                return;
            }
            match reg {
                jc::JS_HEAD_LO => self.slots[slot].head_lo = value,
                jc::JS_HEAD_HI => self.slots[slot].head_hi = value,
                jc::JS_AFFINITY_LO => self.slots[slot].affinity_lo = value,
                jc::JS_AFFINITY_HI => self.slots[slot].affinity_hi = value,
                jc::JS_CONFIG => self.slots[slot].config = value,
                jc::JS_COMMAND if value == jc::JS_CMD_START => self.start_job_chain(slot),
                jc::JS_COMMAND
                    if value == jc::JS_CMD_HARD_STOP || value == jc::JS_CMD_SOFT_STOP =>
                {
                    self.stop_job_chain(slot)
                }
                jc::JS_COMMAND => {}
                _ => {}
            }
            return;
        }
        if (0x2400..0x2400 + 16 * 0x40).contains(&offset) {
            let asn = ((offset - 0x2400) / 0x40) as usize;
            let reg = (offset - 0x2400) % 0x40;
            if asn >= self.address_spaces.len() {
                return;
            }
            let a = &mut self.address_spaces[asn];
            match reg {
                mc::AS_TRANSTAB_LO => a.transtab_lo = value,
                mc::AS_TRANSTAB_HI => a.transtab_hi = value,
                mc::AS_MEMATTR_LO => a.memattr_lo = value,
                mc::AS_MEMATTR_HI => a.memattr_hi = value,
                mc::AS_LOCKADDR_LO => a.lockaddr_lo = value,
                mc::AS_LOCKADDR_HI => a.lockaddr_hi = value,
                mc::AS_COMMAND => {
                    a.cmd_until = now + AS_CMD_TIME;
                    if value == mc::AS_CMD_UPDATE {
                        a.latched = AddressSpace {
                            transtab: ((a.transtab_hi as u64) << 32) | a.transtab_lo as u64,
                            memattr: ((a.memattr_hi as u64) << 32) | a.memattr_lo as u64,
                            enabled: a.transtab_lo != 0 || a.transtab_hi != 0,
                        };
                    }
                    // TLB maintenance follows real Mali semantics instead
                    // of flushing on every command: UPDATE latches a new
                    // root and drops everything; FLUSH_PT/FLUSH_MEM
                    // invalidate only the VA region bracketed by
                    // AS_LOCKADDR (address | log2-size in the low bits);
                    // LOCK/UNLOCK touch no cached translation. The
                    // Listing-2 lock/flush/unlock sequence thus costs one
                    // ranged invalidation, not three full flushes.
                    match value {
                        mc::AS_CMD_UPDATE => {
                            self.tlb.invalidate_all();
                            self.tlb_root = None;
                        }
                        mc::AS_CMD_FLUSH_PT | mc::AS_CMD_FLUSH_MEM => {
                            let lockaddr = ((a.lockaddr_hi as u64) << 32) | a.lockaddr_lo as u64;
                            let log2 = (lockaddr & 0x3F).clamp(12, 48) as u32;
                            let size = 1u64 << log2;
                            let base = lockaddr & !(size - 1);
                            self.tlb.invalidate_va_range(base, size);
                        }
                        _ => {}
                    }
                }
                _ => {}
            }
            return;
        }
        match offset {
            gc::GPU_IRQ_CLEAR => self.gpu_rawstat &= !value,
            gc::GPU_IRQ_MASK => self.gpu_mask = value,
            gc::PRFCNT_BASE_LO => self.prfcnt_base_lo = value,
            gc::PRFCNT_BASE_HI => self.prfcnt_base_hi = value,
            gc::PRFCNT_CONFIG => self.prfcnt_config = value,
            gc::PRFCNT_JM_EN => self.prfcnt_enables[0] = value,
            gc::PRFCNT_SHADER_EN => self.prfcnt_enables[1] = value,
            gc::PRFCNT_TILER_EN => self.prfcnt_enables[2] = value,
            gc::PRFCNT_MMU_L2_EN => self.prfcnt_enables[3] = value,
            gc::GPU_COMMAND => match value {
                gc::CMD_SOFT_RESET | gc::CMD_HARD_RESET => self.begin_reset(now),
                gc::CMD_PRFCNT_CLEAR => {
                    self.prfcnt_clear_macs = self.macs_executed;
                    self.prfcnt_clear_jobs = self.jobs_done;
                    self.prfcnt_clear_at = now;
                }
                gc::CMD_PRFCNT_SAMPLE => self.prfcnt_sample(now),
                gc::CMD_CLEAN_CACHES | gc::CMD_CLEAN_INV_CACHES => {
                    self.flush_until = now + FLUSH_TIME;
                    self.latest_flush = self.latest_flush.wrapping_add(1);
                    self.timed.push(TimedIrq {
                        at: self.flush_until,
                        line: IrqLine::Gpu,
                        bits: gc::IRQ_CLEAN_CACHES_COMPLETED,
                    });
                }
                _ => {}
            },
            gc::SHADER_PWRON_LO => {
                let t = self.shader_pwr.ready(now) | value;
                self.shader_pwr.request(now, t);
                self.power_changed_irq();
            }
            gc::SHADER_PWROFF_LO => {
                let t = self.shader_pwr.ready(now) & !value;
                self.shader_pwr.request(now, t);
                self.power_changed_irq();
            }
            gc::TILER_PWRON_LO => {
                let t = self.tiler_pwr.ready(now) | value;
                self.tiler_pwr.request(now, t);
                self.power_changed_irq();
            }
            gc::TILER_PWROFF_LO => {
                let t = self.tiler_pwr.ready(now) & !value;
                self.tiler_pwr.request(now, t);
                self.power_changed_irq();
            }
            gc::L2_PWRON_LO => {
                let t = self.l2_pwr.ready(now) | value;
                self.l2_pwr.request(now, t);
                self.power_changed_irq();
            }
            gc::L2_PWROFF_LO => {
                let t = self.l2_pwr.ready(now) & !value;
                self.l2_pwr.request(now, t);
                self.power_changed_irq();
            }
            gc::SHADER_CONFIG => self.shader_config = value,
            gc::TILER_CONFIG => self.tiler_config = value,
            gc::L2_MMU_CONFIG => self.l2_mmu_config = value,
            jc::JOB_IRQ_CLEAR => self.job_rawstat &= !value,
            jc::JOB_IRQ_MASK => self.job_mask = value,
            mc::MMU_IRQ_CLEAR => self.mmu_rawstat &= !value,
            mc::MMU_IRQ_MASK => self.mmu_mask = value,
            _ => {}
        }
    }

    /// Dumps the performance counters to the configured base address and
    /// schedules the sample-completed interrupt (kbase's PRFCNT protocol).
    fn prfcnt_sample(&mut self, now: SimTime) {
        let base = ((self.prfcnt_base_hi as u64) << 32) | self.prfcnt_base_lo as u64;
        if base == 0 {
            return; // Unconfigured: hardware ignores the command.
        }
        let macs = self.macs_executed - self.prfcnt_clear_macs;
        let jobs = self.jobs_done - self.prfcnt_clear_jobs;
        // Approximate GPU cycle count from busy time and the SKU clock.
        let busy = self
            .busy_until
            .min(now)
            .saturating_sub(self.prfcnt_clear_at);
        let cycles = busy.as_micros() * self.sku.clock_mhz as u64;
        let mut dump = [0u32; 16];
        dump[0] = 0x50524643; // "PRFC" header.
        dump[1] = self.prfcnt_config;
        dump[2] = cycles as u32;
        dump[3] = (cycles >> 32) as u32;
        dump[4] = jobs as u32;
        dump[5] = (macs & 0xFFFF_FFFF) as u32;
        dump[6] = (macs >> 32) as u32;
        dump[7] = self.latest_flush;
        for (i, en) in self.prfcnt_enables.iter().enumerate() {
            dump[8 + i] = *en;
        }
        let mut mem = self.mem.borrow_mut();
        for (i, word) in dump.iter().enumerate() {
            let _ = mem.write_u32(base + (i * 4) as u64, *word, crate::mem::Accessor::Gpu);
        }
        drop(mem);
        self.timed.push(TimedIrq {
            at: now + SimTime::from_micros(10),
            line: IrqLine::Gpu,
            bits: gc::IRQ_PRFCNT_SAMPLE_COMPLETED,
        });
    }

    fn power_changed_irq(&mut self) {
        let at = self
            .shader_pwr
            .trans_until
            .max(self.tiler_pwr.trans_until)
            .max(self.l2_pwr.trans_until);
        self.timed.push(TimedIrq {
            at,
            line: IrqLine::Gpu,
            bits: gc::IRQ_POWER_CHANGED_ALL | gc::IRQ_POWER_CHANGED_SINGLE,
        });
    }

    fn begin_reset(&mut self, now: SimTime) {
        // Architectural state is cleared; the completion IRQ fires later.
        // The TLB is flushed (its hit/miss counters survive, like
        // `macs_executed`, so replay-profile deltas stay meaningful).
        self.tlb.invalidate_all();
        self.tlb_root = None;
        self.reset_until = now + RESET_TIME;
        self.flush_until = SimTime::ZERO;
        self.gpu_rawstat = 0;
        self.job_rawstat = 0;
        self.mmu_rawstat = 0;
        self.gpu_mask = 0;
        self.job_mask = 0;
        self.mmu_mask = 0;
        // Config registers return to power-on defaults; LATEST_FLUSH is a
        // cache-epoch counter and deliberately survives reset (the
        // nondeterminism §7.3 observes on real Mali hardware).
        self.shader_config = 0x0001_0008;
        self.tiler_config = 0x0000_0010;
        self.l2_mmu_config = 0x0300_0000;
        self.timed.clear();
        self.shader_pwr = PowerDomain::default();
        self.tiler_pwr = PowerDomain::default();
        self.l2_pwr = PowerDomain::default();
        for s in &mut self.slots {
            *s = JobSlot::default();
        }
        for a in &mut self.address_spaces {
            *a = AsState::default();
        }
        self.timed.push(TimedIrq {
            at: self.reset_until,
            line: IrqLine::Gpu,
            bits: gc::IRQ_RESET_COMPLETED,
        });
    }

    /// Immediately resets all state (TEE cleanup before/after replay; no
    /// IRQ is raised — this models the secure monitor's hard reset path).
    pub fn hard_reset_now(&mut self) {
        let now = self.clock.now();
        self.begin_reset(now);
        self.reset_until = now;
        self.timed.clear();
    }

    fn start_job_chain(&mut self, slot: usize) {
        let now = self.clock.now();
        let head = ((self.slots[slot].head_hi as u64) << 32) | self.slots[slot].head_lo as u64;
        self.slots[slot].started = true;

        // Job slots need powered shader cores and L2.
        if self.shader_pwr.ready(now) == 0 || self.l2_pwr.ready(now) == 0 {
            self.finish_job(slot, now + JOB_BASE_TIME, jc::JS_STATUS_CONFIG_FAULT);
            return;
        }

        // The slot's AS comes from the low bits of JS_CONFIG, as on Mali.
        let asn = (self.slots[slot].config & 0x7) as usize;
        let latched = self
            .address_spaces
            .get(asn)
            .map(|a| a.latched)
            .unwrap_or_default();
        if !latched.enabled {
            self.finish_job(slot, now + JOB_BASE_TIME, jc::JS_STATUS_CONFIG_FAULT);
            return;
        }
        let walker = Walker {
            root_pa: latched.transtab,
            quirk: self.sku.pte_quirk,
            asn: asn as u8,
        };

        let mem_rc = Rc::clone(&self.mem);
        // Detach batch lanes for the duration of the chain so the program
        // runs below can borrow them while `self` is mutably borrowed for
        // TLB/stat bookkeeping. Restored before `finish_job`.
        let lanes = std::mem::take(&mut self.batch_lanes);
        // The primary memory first, then each lane: every descriptor's
        // program runs once over all of them.
        let mut mems: Vec<RefMut<'_, Memory>> = std::iter::once(&mem_rc)
            .chain(&lanes)
            .map(|m| m.borrow_mut())
            .collect();
        let mut ran: Vec<ExecReport> = Vec::with_capacity(mems.len());
        let mut total = JOB_BASE_TIME;
        let mut va = head;
        let mut status = jc::JS_STATUS_DONE;
        let mut hops = 0;
        while va != 0 {
            hops += 1;
            if hops > 1024 {
                status = jc::JS_STATUS_BAD_DESCRIPTOR;
                break;
            }
            // Descriptor boundary: reconcile CPU-side writes with the
            // TLB instead of flushing unconditionally. Draining the
            // memory's write log through `note_store` flushes exactly
            // when a CPU write (memsync restore, rollback, driver remap)
            // landed on a walked table page; data-page writes — input
            // staging, delta application — leave cached translations
            // alone, so warm replays stop re-walking every descriptor.
            // A changed translation root or an overflowed log still
            // flushes; GPU stores are caught by `note_store` at the
            // store site.
            let (cpu_writes, overflowed) = mems[0].take_cpu_writes();
            if overflowed || self.tlb_root != Some(walker.root_pa) {
                self.tlb.invalidate_all();
                self.tlb_root = Some(walker.root_pa);
            } else {
                for (start, end) in cpu_writes {
                    self.tlb.note_store(start, (end - start) as usize);
                }
            }
            let desc =
                match JobDescriptor::read_via_mmu_cached(&mems[0], &walker, &mut self.tlb, va) {
                    Ok(Some(d)) => d,
                    Ok(None) => {
                        status = jc::JS_STATUS_BAD_DESCRIPTOR;
                        break;
                    }
                    Err(fault) => {
                        self.raise_mmu_fault(asn, va, &fault);
                        status = jc::JS_STATUS_JOB_BUS_FAULT;
                        break;
                    }
                };
            // Fused lowering: a directive keyed by this descriptor's VA
            // makes its (single) instruction execute as a superinstruction
            // with tails applied in scratch. The absorbed tail jobs'
            // worst-case cost rides along in `extra_cost_us` so fused time
            // stays an upper bound.
            let fused = self
                .fusion_plan
                .binary_search_by_key(&va, |e| e.0)
                .ok()
                .map(|i| self.fusion_plan[i].1.clone());
            let cost_us = desc.cost_us.saturating_add(
                fused
                    .as_ref()
                    .map_or(0, |d| u32::try_from(d.extra_cost_us).unwrap_or(u32::MAX)),
            );
            // Batched replay: control state (descriptor, page tables) is
            // byte-identical across lanes, so the descriptor fetched above
            // serves every lane and cached translations stay valid; only
            // data pages differ. Each lane writes its own status word
            // right after its run, before the next lane starts.
            ran.clear();
            let outcome = execute_program(
                &mut mems,
                &walker,
                &mut self.tlb,
                &mut self.scratch,
                desc.shader_va,
                desc.n_instrs,
                self.sku.shader_cores,
                fused.as_ref(),
                |mem, tlb, res| {
                    let job_status = match res {
                        Ok(rep) => {
                            ran.push(*rep);
                            JobStatus::Done
                        }
                        Err(ShaderFault::TileMismatch { .. } | ShaderFault::FusionMismatch) => {
                            JobStatus::Fault(jc::JS_STATUS_CONFIG_FAULT)
                        }
                        Err(ShaderFault::BadInstruction | ShaderFault::Mmu(_)) => return,
                    };
                    let _ = JobDescriptor::write_status_via_mmu_cached(
                        mem, &walker, tlb, va, job_status,
                    );
                },
            );
            for (lane, rep) in ran.iter().enumerate() {
                self.macs_executed += rep.macs;
                self.jobs_done += 1;
                self.exec_element_accesses += rep.element_accesses;
                self.exec_bulk_runs += rep.bulk_runs;
                self.exec_alias_runs += rep.alias_runs;
                self.exec_alias_elems += rep.alias_elems;
                // Marginal lanes are charged their streamed data accesses:
                // batch-resident operands (weights, biases, instruction
                // fetches) and the run-granular copy footprint are fetched
                // once per batch, by the primary.
                let resident = if lane == 0 { 0 } else { rep.resident_elems };
                let charged = (rep.element_accesses - rep.copy_elems + rep.copy_runs)
                    .saturating_sub(rep.alias_runs)
                    .saturating_sub(resident);
                let dur = job_exec_time(cost_us, rep.element_accesses, charged, rep.walks);
                self.accumulate_per_kind(rep, dur.as_nanos());
                total += dur;
            }
            match outcome {
                Ok(()) => {}
                Err(ShaderFault::TileMismatch { .. } | ShaderFault::FusionMismatch) => {
                    status = jc::JS_STATUS_CONFIG_FAULT;
                    break;
                }
                Err(ShaderFault::BadInstruction) => {
                    status = jc::JS_STATUS_BAD_DESCRIPTOR;
                    break;
                }
                Err(ShaderFault::Mmu(fault)) => {
                    self.raise_mmu_fault(asn, desc.shader_va, &fault);
                    status = jc::JS_STATUS_JOB_BUS_FAULT;
                    break;
                }
            }
            va = desc.next_va;
        }
        drop(mems);
        self.batch_lanes = lanes;
        self.finish_job(slot, now + total, status);
    }

    /// Cancels the chain on `slot` (soft/hard stop). The slot reports
    /// `JS_STATUS_STOPPED` and raises the failure interrupt; an idle slot
    /// ignores the command, as on real hardware.
    fn stop_job_chain(&mut self, slot: usize) {
        let now = self.clock.now();
        if !self.slots[slot].started || now >= self.slots[slot].active_until {
            return; // Nothing in flight.
        }
        // Drop the chain's pending completion interrupt.
        self.timed
            .retain(|t| !(t.line == IrqLine::Job && t.bits & (1 << slot) != 0));
        self.finish_job(slot, now + SimTime::from_micros(5), jc::JS_STATUS_STOPPED);
    }

    fn finish_job(&mut self, slot: usize, at: SimTime, status: u32) {
        self.busy_until = self.busy_until.max(at);
        self.slots[slot].active_until = at;
        self.slots[slot].final_status = status;
        let bit = if status == jc::JS_STATUS_DONE {
            1u32 << slot
        } else {
            1u32 << (slot + 16)
        };
        self.timed.push(TimedIrq {
            at,
            line: IrqLine::Job,
            bits: bit,
        });
        // Each submission advances the flush-ID counter — the register the
        // paper calls out as nondeterministic across record runs (§7.3).
        self.latest_flush = self.latest_flush.wrapping_add(1);
    }

    fn raise_mmu_fault(&mut self, asn: usize, va: u64, fault: &crate::mmu::MmuFault) {
        let now = self.clock.now();
        if let Some(a) = self.address_spaces.get_mut(asn) {
            a.faultstatus = match fault {
                crate::mmu::MmuFault::Translation { .. } => 0xC1,
                crate::mmu::MmuFault::Permission { .. } => 0xC2,
                crate::mmu::MmuFault::WalkError { .. } => 0xC3,
            };
            a.faultaddr_lo = va as u32;
            a.faultaddr_hi = (va >> 32) as u32;
        }
        self.timed.push(TimedIrq {
            at: now + JOB_BASE_TIME,
            line: IrqLine::Mmu,
            bits: 1 << asn,
        });
    }
}

fn mask_for(_line: IrqLine, mask: u32) -> u32 {
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::{Accessor, PAGE_SIZE};
    use crate::mmu::{map_page, PteFlags};
    use crate::shader::ShaderOp;

    struct Rig {
        clock: Rc<Clock>,
        mem: Rc<RefCell<Memory>>,
        gpu: Gpu,
    }

    fn rig() -> Rig {
        let clock = Clock::new();
        let mem = Rc::new(RefCell::new(Memory::new(4 << 20)));
        let gpu = Gpu::new(GpuSku::mali_g71_mp8(), &clock, &mem);
        Rig { clock, mem, gpu }
    }

    #[test]
    fn probe_registers_reflect_sku() {
        let mut r = rig();
        assert_eq!(r.gpu.read_reg(gc::GPU_ID), 0x6000_0011);
        assert_eq!(r.gpu.read_reg(gc::SHADER_PRESENT_LO), 0xFF);
        assert_eq!(r.gpu.read_reg(gc::JS_PRESENT), 0x7);
        assert_eq!(r.gpu.read_reg(gc::AS_PRESENT), 0xFF);
    }

    #[test]
    fn soft_reset_completes_after_delay() {
        let mut r = rig();
        r.gpu.write_reg(gc::GPU_COMMAND, gc::CMD_SOFT_RESET);
        // Reset clears the masks; re-arm like the driver's reset path does.
        r.gpu.write_reg(gc::GPU_IRQ_MASK, !0);
        assert_eq!(
            r.gpu.read_reg(gc::GPU_IRQ_RAWSTAT) & gc::IRQ_RESET_COMPLETED,
            0
        );
        assert_ne!(r.gpu.read_reg(gc::GPU_STATUS) & gc::STATUS_RESET_ACTIVE, 0);
        let at = r.gpu.next_irq_at(IrqLine::Gpu).unwrap();
        r.clock.advance_to(at);
        assert_ne!(
            r.gpu.read_reg(gc::GPU_IRQ_RAWSTAT) & gc::IRQ_RESET_COMPLETED,
            0
        );
    }

    #[test]
    fn irq_mask_gates_status_not_rawstat() {
        let mut r = rig();
        r.gpu.write_reg(gc::GPU_IRQ_MASK, 0);
        r.gpu.write_reg(gc::GPU_COMMAND, gc::CMD_CLEAN_CACHES);
        r.clock.advance(SimTime::from_millis(1));
        assert_ne!(
            r.gpu.read_reg(gc::GPU_IRQ_RAWSTAT) & gc::IRQ_CLEAN_CACHES_COMPLETED,
            0
        );
        assert_eq!(r.gpu.read_reg(gc::GPU_IRQ_STATUS), 0);
        r.gpu.write_reg(gc::GPU_IRQ_MASK, !0);
        assert_ne!(r.gpu.read_reg(gc::GPU_IRQ_STATUS), 0);
    }

    #[test]
    fn irq_clear_is_write_one_to_clear() {
        let mut r = rig();
        r.gpu.write_reg(gc::GPU_COMMAND, gc::CMD_CLEAN_CACHES);
        r.clock.advance(SimTime::from_millis(1));
        let raw = r.gpu.read_reg(gc::GPU_IRQ_RAWSTAT);
        assert_ne!(raw & gc::IRQ_CLEAN_CACHES_COMPLETED, 0);
        r.gpu
            .write_reg(gc::GPU_IRQ_CLEAR, gc::IRQ_CLEAN_CACHES_COMPLETED);
        assert_eq!(
            r.gpu.read_reg(gc::GPU_IRQ_RAWSTAT) & gc::IRQ_CLEAN_CACHES_COMPLETED,
            0
        );
    }

    #[test]
    fn power_up_takes_time() {
        let mut r = rig();
        r.gpu.write_reg(gc::L2_PWRON_LO, 0x3);
        assert_eq!(r.gpu.read_reg(gc::L2_READY_LO), 0);
        assert_eq!(r.gpu.read_reg(gc::L2_PWRTRANS_LO), 0x3);
        r.clock.advance(POWER_TIME);
        assert_eq!(r.gpu.read_reg(gc::L2_READY_LO), 0x3);
        assert_eq!(r.gpu.read_reg(gc::L2_PWRTRANS_LO), 0);
    }

    #[test]
    fn latest_flush_changes_with_flushes() {
        let mut r = rig();
        let f0 = r.gpu.read_reg(gc::LATEST_FLUSH);
        r.gpu.write_reg(gc::GPU_COMMAND, gc::CMD_CLEAN_INV_CACHES);
        let f1 = r.gpu.read_reg(gc::LATEST_FLUSH);
        assert_ne!(f0, f1);
    }

    /// Builds a mapped environment with one runnable job and returns the
    /// descriptor VA.
    fn setup_job(r: &mut Rig, tiles: u32) -> u64 {
        let mut mem = r.mem.borrow_mut();
        // Bump allocator for tables at 1 MiB.
        let mut next_table = 1 << 20;
        let root = next_table;
        next_table += PAGE_SIZE as u64;
        let mut alloc = || {
            let pa = next_table;
            next_table += PAGE_SIZE as u64;
            pa
        };
        // Identity-map 16 pages at 0x10000 (rwx for simplicity).
        for i in 0..16u64 {
            let addr = 0x10000 + i * PAGE_SIZE as u64;
            map_page(&mut mem, root, addr, addr, PteFlags::rwx(), 0, &mut alloc).unwrap();
        }
        // Shader at 0x11000: copy 4 floats from 0x12000 to 0x13000.
        let prog = ShaderOp::Copy {
            src_va: 0x12000,
            dst_va: 0x13000,
            len: 4,
        }
        .encode();
        mem.write(0x11000, &prog, Accessor::Cpu).unwrap();
        for i in 0..4u64 {
            mem.write_f32(0x12000 + i * 4, i as f32 + 1.0, Accessor::Cpu)
                .unwrap();
        }
        // Descriptor at 0x10000.
        let desc = JobDescriptor {
            shader_va: 0x11000,
            n_instrs: 1,
            cost_us: 100,
            next_va: 0,
            status: JobStatus::Pending,
        };
        mem.write(0x10000, &desc.encode(), Accessor::Cpu).unwrap();
        drop(mem);

        // Configure AS 0 and power up.
        r.gpu
            .write_reg(mc::as_base(0) + mc::AS_TRANSTAB_LO, root as u32);
        r.gpu
            .write_reg(mc::as_base(0) + mc::AS_TRANSTAB_HI, (root >> 32) as u32);
        r.gpu
            .write_reg(mc::as_base(0) + mc::AS_COMMAND, mc::AS_CMD_UPDATE);
        r.gpu.write_reg(gc::L2_PWRON_LO, 0x3);
        r.gpu.write_reg(gc::SHADER_PWRON_LO, 0xFF);
        r.gpu.write_reg(gc::TILER_PWRON_LO, 0x1);
        r.clock.advance(POWER_TIME);
        let _ = tiles;
        0x10000
    }

    #[test]
    fn job_chain_executes_and_raises_irq() {
        let mut r = rig();
        let head = setup_job(&mut r, 8);
        r.gpu.write_reg(jc::JOB_IRQ_MASK, !0);
        r.gpu
            .write_reg(jc::slot_base(0) + jc::JS_HEAD_LO, head as u32);
        r.gpu
            .write_reg(jc::slot_base(0) + jc::JS_HEAD_HI, (head >> 32) as u32);
        r.gpu.write_reg(jc::slot_base(0) + jc::JS_CONFIG, 0); // AS 0.
        r.gpu
            .write_reg(jc::slot_base(0) + jc::JS_COMMAND, jc::JS_CMD_START);

        // Busy until the cost elapses.
        assert_eq!(
            r.gpu.read_reg(jc::slot_base(0) + jc::JS_STATUS),
            jc::JS_STATUS_ACTIVE
        );
        let at = r.gpu.next_irq_at(IrqLine::Job).unwrap();
        r.clock.advance_to(at);
        assert_eq!(r.gpu.read_reg(jc::JOB_IRQ_RAWSTAT), 1);
        assert_eq!(
            r.gpu.read_reg(jc::slot_base(0) + jc::JS_STATUS),
            jc::JS_STATUS_DONE
        );
        // The copy really happened.
        let mem = r.mem.borrow();
        assert_eq!(mem.read_f32(0x13000, Accessor::Cpu).unwrap(), 1.0);
        assert_eq!(mem.read_f32(0x1300C, Accessor::Cpu).unwrap(), 4.0);
        assert_eq!(r.gpu.jobs_done(), 1);
    }

    #[test]
    fn job_without_power_faults() {
        let mut r = rig();
        let head = setup_job(&mut r, 8);
        // Power everything off again.
        r.gpu.write_reg(gc::SHADER_PWROFF_LO, 0xFF);
        r.gpu.write_reg(gc::L2_PWROFF_LO, 0x3);
        r.clock.advance(POWER_TIME);
        r.gpu.write_reg(jc::JOB_IRQ_MASK, !0);
        r.gpu
            .write_reg(jc::slot_base(0) + jc::JS_HEAD_LO, head as u32);
        r.gpu
            .write_reg(jc::slot_base(0) + jc::JS_COMMAND, jc::JS_CMD_START);
        let at = r.gpu.next_irq_at(IrqLine::Job).unwrap();
        r.clock.advance_to(at);
        // Failure bit (slot + 16).
        assert_eq!(r.gpu.read_reg(jc::JOB_IRQ_RAWSTAT), 1 << 16);
        assert_eq!(
            r.gpu.read_reg(jc::slot_base(0) + jc::JS_STATUS),
            jc::JS_STATUS_CONFIG_FAULT
        );
    }

    #[test]
    fn job_with_unmapped_head_raises_mmu_fault() {
        let mut r = rig();
        let _ = setup_job(&mut r, 8);
        r.gpu.write_reg(mc::MMU_IRQ_MASK, !0);
        r.gpu
            .write_reg(jc::slot_base(0) + jc::JS_HEAD_LO, 0xDEAD_0000);
        r.gpu
            .write_reg(jc::slot_base(0) + jc::JS_COMMAND, jc::JS_CMD_START);
        let at = r.gpu.next_irq_at(IrqLine::Mmu).unwrap();
        r.clock.advance_to(at);
        assert_eq!(r.gpu.read_reg(mc::MMU_IRQ_RAWSTAT), 1);
        assert_eq!(r.gpu.read_reg(mc::as_base(0) + mc::AS_FAULTSTATUS), 0xC1);
        assert_eq!(
            r.gpu.read_reg(jc::slot_base(0) + jc::JS_STATUS),
            jc::JS_STATUS_JOB_BUS_FAULT
        );
    }

    #[test]
    fn hard_stop_cancels_inflight_chain() {
        let mut r = rig();
        let head = setup_job(&mut r, 8);
        r.gpu.write_reg(jc::JOB_IRQ_MASK, !0);
        r.gpu
            .write_reg(jc::slot_base(0) + jc::JS_HEAD_LO, head as u32);
        r.gpu
            .write_reg(jc::slot_base(0) + jc::JS_COMMAND, jc::JS_CMD_START);
        assert_eq!(
            r.gpu.read_reg(jc::slot_base(0) + jc::JS_STATUS),
            jc::JS_STATUS_ACTIVE
        );
        r.gpu
            .write_reg(jc::slot_base(0) + jc::JS_COMMAND, jc::JS_CMD_HARD_STOP);
        let at = r.gpu.next_irq_at(IrqLine::Job).unwrap();
        r.clock.advance_to(at);
        // The failure bit fires, not the done bit.
        assert_eq!(r.gpu.read_reg(jc::JOB_IRQ_RAWSTAT), 1 << 16);
        assert_eq!(
            r.gpu.read_reg(jc::slot_base(0) + jc::JS_STATUS),
            jc::JS_STATUS_STOPPED
        );
        // The slot is reusable afterwards.
        r.gpu.write_reg(jc::JOB_IRQ_CLEAR, !0);
        r.gpu
            .write_reg(jc::slot_base(0) + jc::JS_COMMAND, jc::JS_CMD_START);
        let at = r.gpu.next_irq_at(IrqLine::Job).unwrap();
        r.clock.advance_to(at);
        assert_eq!(r.gpu.read_reg(jc::JOB_IRQ_RAWSTAT), 1);
    }

    #[test]
    fn stop_on_idle_slot_is_ignored() {
        let mut r = rig();
        let _ = setup_job(&mut r, 8);
        r.gpu
            .write_reg(jc::slot_base(0) + jc::JS_COMMAND, jc::JS_CMD_HARD_STOP);
        assert_eq!(r.gpu.next_irq_at(IrqLine::Job), None);
    }

    #[test]
    fn hard_reset_now_clears_everything() {
        let mut r = rig();
        let head = setup_job(&mut r, 8);
        r.gpu
            .write_reg(jc::slot_base(0) + jc::JS_HEAD_LO, head as u32);
        r.gpu
            .write_reg(jc::slot_base(0) + jc::JS_COMMAND, jc::JS_CMD_START);
        r.gpu.hard_reset_now();
        assert_eq!(r.gpu.read_reg(jc::JOB_IRQ_RAWSTAT), 0);
        assert_eq!(r.gpu.read_reg(gc::SHADER_READY_LO), 0);
        assert_eq!(
            r.gpu.read_reg(jc::slot_base(0) + jc::JS_STATUS),
            jc::JS_STATUS_IDLE
        );
    }

    #[test]
    fn next_activity_reports_inflight_work() {
        let mut r = rig();
        assert!(r.gpu.next_activity_at().is_none());
        r.gpu.write_reg(gc::GPU_COMMAND, gc::CMD_CLEAN_CACHES);
        let at = r.gpu.next_activity_at().unwrap();
        assert!(at > r.clock.now());
        r.clock.advance_to(at);
        assert_eq!(r.gpu.read_reg(gc::GPU_STATUS) & gc::STATUS_CLEAN_ACTIVE, 0);
    }

    #[test]
    fn sku_config_quirk_registers_are_read_write() {
        let mut r = rig();
        let v = r.gpu.read_reg(gc::L2_MMU_CONFIG);
        r.gpu.write_reg(gc::L2_MMU_CONFIG, v | 0x10);
        assert_eq!(r.gpu.read_reg(gc::L2_MMU_CONFIG), v | 0x10);
    }
}
