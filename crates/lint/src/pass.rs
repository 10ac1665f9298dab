//! The rule pass over a recording's lifted semantics IR.
//!
//! Since the IR landed, the pass no longer re-derives machine state from
//! raw events: the lifter (`grt_ir::lift_recording`) already decoded register
//! windows, TRANSTAB latching, page-table walks, job chains and shader
//! operands, all index-aligned with the event stream. What remains here is
//! *policy*: the whitelist and value constraints (R1), the carveout bounds
//! (R2), the termination discipline (R3), slot/shape consistency (R4),
//! queue discipline (R5), layer structure (R6) — and, once those are
//! clean, the three IR-level rules: address-interval soundness (R8),
//! tensor dataflow integrity (R7) and static cost certification (R9).
//!
//! R7–R9 only run on a structurally clean recording (no R1–R6 error), and
//! R7/R9 additionally require R8 clean: a chain whose descriptors could
//! not be resolved has no dataflow or cost to reason about.

use crate::report::{CertifiedBudget, Diagnostic, LintReport, Rule, Severity};
use crate::whitelist;
use grt_gpu::regs::{gpu_control as gc, job_control as jc, mmu_control as mc};
use grt_gpu::{GpuSku, PAGE_SIZE};
use grt_ir::dataflow::{self, FindingKind};
use grt_ir::gate::{WorkloadShape, CLIENT_MEM_BYTES, REPLAY_POLL_ITER_CAP};
use grt_ir::program::{Dir, JobChain, RegClass, Step};
use grt_ir::shadow::WalkSummary;
use grt_ir::IrProgram;
use std::collections::BTreeSet;

/// Interrupt-line indices (wire codes from `grt_ir::recording::irq_line_code`).
const LINE_GPU: usize = 0;
const LINE_JOB: usize = 1;
const LINE_MMU: usize = 2;

/// `GPU_COMMAND` values that are defined by the register model.
const GPU_COMMANDS: &[u32] = &[
    gc::CMD_NOP,
    gc::CMD_SOFT_RESET,
    gc::CMD_HARD_RESET,
    gc::CMD_PRFCNT_CLEAR,
    gc::CMD_PRFCNT_SAMPLE,
    gc::CMD_CLEAN_CACHES,
    gc::CMD_CLEAN_INV_CACHES,
];

/// `GPU_COMMAND` values that raise the GPU interrupt line when they
/// complete (reset, counter sample, cache maintenance).
const GPU_IRQ_RAISERS: &[u32] = &[
    gc::CMD_SOFT_RESET,
    gc::CMD_HARD_RESET,
    gc::CMD_PRFCNT_SAMPLE,
    gc::CMD_CLEAN_CACHES,
    gc::CMD_CLEAN_INV_CACHES,
];

/// Whether `[pa, pa + len)` lies inside the protected carveout, which
/// starts at physical address 0.
fn in_carveout(pa: u64, len: u64) -> bool {
    pa.checked_add(len)
        .is_some_and(|e| e <= CLIENT_MEM_BYTES as u64)
}

pub(crate) struct Pass<'a> {
    ir: &'a IrProgram,
    sku: &'a GpuSku,
    spec: Option<&'a dyn WorkloadShape>,
    diags: Vec<Diagnostic>,
    prfcnt_lo: u32,
    prfcnt_hi: u32,
    /// Abstract job-queue length (R5: never exceeds 1).
    queue: u32,
    /// Pending-interrupt counters per line (R3 raiser discipline).
    pending: [u32; 3],
    /// Next expected `BeginLayer` index (R6).
    next_layer: u32,
    /// Next unconsumed entry of `ir.jobs` (chains are in event order).
    next_job: usize,
}

impl<'a> Pass<'a> {
    pub(crate) fn new(
        ir: &'a IrProgram,
        sku: &'a GpuSku,
        spec: Option<&'a dyn WorkloadShape>,
    ) -> Self {
        Pass {
            ir,
            sku,
            spec,
            diags: Vec::new(),
            prfcnt_lo: 0,
            prfcnt_hi: 0,
            queue: 0,
            pending: [0; 3],
            next_layer: 0,
            next_job: 0,
        }
    }

    pub(crate) fn run(mut self) -> LintReport {
        self.check_header();
        for i in 0..self.ir.steps.len() {
            match self.ir.steps[i] {
                Step::BeginLayer { index } => self.on_begin_layer(i, index),
                Step::RegWrite {
                    offset,
                    value,
                    class,
                    root_latched,
                } => self.on_write(i, offset, value, class, root_latched),
                Step::RegRead { offset, .. } => self.on_read(i, offset),
                Step::Poll {
                    reg,
                    cond,
                    max_iters,
                    ..
                } => self.on_poll(i, reg, cond, max_iters),
                Step::WaitIrq { line } => self.on_wait_irq(i, line),
                Step::LoadDelta { index } => self.on_delta(i, index as usize),
            }
        }
        self.check_footer();
        // The IR-level rules presuppose a structurally sound recording:
        // only analyze semantics the event pass could make sense of.
        let mut budget = None;
        if self.errors() == 0 {
            self.check_intervals(); // R8
            if self.errors() == 0 {
                self.check_dataflow(); // R7
                budget = self.check_envelope(); // R9
            }
        }
        if self.errors() != 0 {
            // A failing recording is not certified, whatever R9 measured.
            budget = None;
        }
        LintReport {
            workload: self.ir.workload.clone(),
            gpu_id: self.ir.gpu_id,
            sku: self.sku.name.to_owned(),
            events: self.ir.steps.len(),
            budget,
            diagnostics: self.diags,
        }
    }

    fn errors(&self) -> usize {
        self.diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    fn diag(&mut self, rule: Rule, severity: Severity, event: Option<usize>, message: String) {
        self.diags.push(Diagnostic {
            rule,
            severity,
            event,
            message,
        });
    }

    fn error(&mut self, rule: Rule, event: usize, message: String) {
        self.diag(rule, Severity::Error, Some(event), message);
    }

    // --- header (R1 identity, R4 slots/shape) ---------------------------

    fn check_header(&mut self) {
        if self.ir.gpu_id != self.sku.gpu_id {
            self.diag(
                Rule::R1RegisterWhitelist,
                Severity::Error,
                None,
                format!(
                    "recording targets GPU {:#x} but is being vetted for {:#x} ({})",
                    self.ir.gpu_id, self.sku.gpu_id, self.sku.name
                ),
            );
        }
        // Every slot in-bounds and non-empty.
        let mut ranges: Vec<(u64, u64, String)> = Vec::new();
        let slots = [
            (self.ir.input, "input".to_owned()),
            (self.ir.output, "output".to_owned()),
        ]
        .into_iter()
        .chain(
            self.ir
                .weights
                .iter()
                .enumerate()
                .map(|(i, w)| (*w, format!("weight[{i}]"))),
        );
        for (slot, name) in slots {
            let bytes = slot.bytes();
            if slot.len_elems == 0 {
                self.diag(
                    Rule::R4SlotShape,
                    Severity::Error,
                    None,
                    format!("{name} slot is empty"),
                );
                continue;
            }
            if !in_carveout(slot.pa, bytes) {
                self.diag(
                    Rule::R4SlotShape,
                    Severity::Error,
                    None,
                    format!(
                        "{name} slot [{:#x}, {:#x}) leaves the protected carveout",
                        slot.pa,
                        slot.pa + bytes
                    ),
                );
            }
            ranges.push((slot.pa, slot.pa.saturating_add(bytes), name));
        }
        // Pairwise disjoint (sorted sweep).
        ranges.sort_by_key(|r| (r.0, r.1));
        for pair in ranges.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            if b.0 < a.1 {
                self.diag(
                    Rule::R4SlotShape,
                    Severity::Error,
                    None,
                    format!(
                        "{} [{:#x}, {:#x}) overlaps {} [{:#x}, {:#x})",
                        a.2, a.0, a.1, b.2, b.0, b.1
                    ),
                );
            }
        }
        self.check_spec();
    }

    fn check_spec(&mut self) {
        let Some(spec) = self.spec else { return };
        let (name, input, output) = (spec.workload(), spec.input_len(), spec.output_len());
        let (workload, got_in, got_out) = (
            &self.ir.workload,
            self.ir.input.len_elems,
            self.ir.output.len_elems,
        );
        let (weights, params): (Vec<u32>, _) = (
            self.ir.weights.iter().map(|w| w.len_elems).collect(),
            spec.param_lens(),
        );
        let findings = [
            (workload != name)
                .then(|| format!("recording is for workload {workload:?}, spec is {name:?}")),
            (got_in != input)
                .then(|| format!("input slot holds {got_in} elems, spec wants {input}")),
            (got_out != output)
                .then(|| format!("output slot holds {got_out} elems, spec wants {output}")),
            (weights != params).then(|| {
                format!(
                    "weight slots {weights:?} do not match the spec's parameter shapes {params:?}"
                )
            }),
        ];
        for message in findings.into_iter().flatten() {
            self.diag(Rule::R4SlotShape, Severity::Error, None, message);
        }
    }

    // --- R6 -------------------------------------------------------------

    fn on_begin_layer(&mut self, i: usize, index: u32) {
        if index != self.next_layer {
            self.error(
                Rule::R6LayerStructure,
                i,
                format!(
                    "BeginLayer {index} out of order (expected {}): layered replay would skew",
                    self.next_layer
                ),
            );
        }
        // Resynchronize on the recorded index so one bad marker doesn't
        // cascade into a diagnostic per layer.
        self.next_layer = index.saturating_add(1);
    }

    // --- R1 + write side effects ---------------------------------------

    fn on_write(
        &mut self,
        i: usize,
        offset: u32,
        value: u32,
        class: RegClass,
        root_latched: Option<u64>,
    ) {
        // The lifter created a chain at this event iff the write decodes
        // as `JS_COMMAND = START`. Consume it before the R1 checks so the
        // chain cursor stays aligned even when the write is rejected.
        let ir = self.ir;
        let chain =
            (self.next_job < ir.jobs.len() && ir.jobs[self.next_job].event == i).then(|| {
                self.next_job += 1;
                &ir.jobs[self.next_job - 1]
            });
        let Some(info) = whitelist::lookup(offset, self.sku) else {
            self.error(
                Rule::R1RegisterWhitelist,
                i,
                format!("write of {value:#x} to non-whitelisted register {offset:#x}"),
            );
            return;
        };
        if !info.write {
            self.error(
                Rule::R1RegisterWhitelist,
                i,
                format!("write of {value:#x} to read-only register {offset:#x}"),
            );
            return;
        }
        // Write-value constraints for control registers, then abstract
        // side effects.
        match class {
            RegClass::GpuCtrl => {
                if offset == gc::GPU_COMMAND {
                    if !GPU_COMMANDS.contains(&value) {
                        self.error(
                            Rule::R1RegisterWhitelist,
                            i,
                            format!("undefined GPU_COMMAND value {value:#x}"),
                        );
                        return;
                    }
                    if GPU_IRQ_RAISERS.contains(&value) {
                        self.pending[LINE_GPU] = self.pending[LINE_GPU].saturating_add(1);
                    }
                    return;
                }
                if offset == gc::SHADER_PWRON_LO
                    || offset == gc::TILER_PWRON_LO
                    || offset == gc::L2_PWRON_LO
                    || offset == gc::SHADER_PWROFF_LO
                    || offset == gc::TILER_PWROFF_LO
                    || offset == gc::L2_PWROFF_LO
                {
                    // Power transitions complete with a GPU-line interrupt.
                    self.pending[LINE_GPU] = self.pending[LINE_GPU].saturating_add(1);
                    return;
                }
                if offset == gc::PRFCNT_BASE_LO || offset == gc::PRFCNT_BASE_HI {
                    if offset == gc::PRFCNT_BASE_LO {
                        self.prfcnt_lo = value;
                    } else {
                        self.prfcnt_hi = value;
                    }
                    let base = (self.prfcnt_hi as u64) << 32 | self.prfcnt_lo as u64;
                    if base != 0 && !in_carveout(base, PAGE_SIZE as u64) {
                        self.error(
                            Rule::R1RegisterWhitelist,
                            i,
                            format!(
                                "PRFCNT_BASE {base:#x} points the counter dump outside the carveout"
                            ),
                        );
                    }
                }
            }
            RegClass::JobSlot { slot, reg } => {
                if reg == jc::JS_CONFIG {
                    let asn = value & 0x7;
                    if asn >= self.sku.address_spaces {
                        self.error(
                            Rule::R1RegisterWhitelist,
                            i,
                            format!(
                                "JS_CONFIG selects address space {asn}, SKU has {}",
                                self.sku.address_spaces
                            ),
                        );
                    }
                    return;
                }
                if reg == jc::JS_COMMAND {
                    if ![
                        jc::JS_CMD_NOP,
                        jc::JS_CMD_START,
                        jc::JS_CMD_SOFT_STOP,
                        jc::JS_CMD_HARD_STOP,
                    ]
                    .contains(&value)
                    {
                        self.error(
                            Rule::R1RegisterWhitelist,
                            i,
                            format!("undefined JS_COMMAND value {value:#x} on slot {slot}"),
                        );
                        return;
                    }
                    if let Some(chain) = chain {
                        self.on_job_start(i, chain);
                    }
                }
            }
            RegClass::AsWindow { asn, reg } => {
                if reg == mc::AS_COMMAND {
                    if value > mc::AS_CMD_FLUSH_MEM {
                        self.error(
                            Rule::R1RegisterWhitelist,
                            i,
                            format!("undefined AS_COMMAND value {value:#x} on AS {asn}"),
                        );
                        return;
                    }
                    if let Some(root) = root_latched {
                        if root != 0
                            && (!in_carveout(root, PAGE_SIZE as u64)
                                || !root.is_multiple_of(PAGE_SIZE as u64))
                        {
                            self.error(
                                Rule::R2PageTableReachability,
                                i,
                                format!("AS {asn} latched page-table root {root:#x} outside the carveout (or unaligned)"),
                            );
                        }
                    }
                }
            }
        }
    }

    // --- R2 + R5 + R3: job submission ----------------------------------

    fn on_job_start(&mut self, i: usize, chain: &JobChain) {
        // R5: the paper's replayer assumes the job queue never holds more
        // than one job between sync points (§5).
        self.queue += 1;
        if self.queue > 1 {
            self.error(
                Rule::R5JobQueueDiscipline,
                i,
                format!(
                    "second job started on slot {} while one is already in flight (queue length {})",
                    chain.slot, self.queue
                ),
            );
        }
        // R3: a start is what makes a Job-line wait satisfiable.
        self.pending[LINE_JOB] = self.pending[LINE_JOB].saturating_add(1);
        // R2: check the page tables the GPU would walk for this job. The
        // lifter walked them once per (root, memory version) — exactly the
        // replayer's own cache discipline — so walk-level findings are
        // emitted once per fresh walk.
        if chain.root == 0 {
            self.error(
                Rule::R2PageTableReachability,
                i,
                format!(
                    "job started on slot {} with no page-table root latched on AS {}",
                    chain.slot, chain.asn
                ),
            );
            return;
        }
        if chain.walk_fresh {
            self.check_walk(i, chain.asn as usize, &chain.walk);
        }
    }

    fn check_walk(&mut self, i: usize, asn: usize, summary: &WalkSummary) {
        if summary.truncated {
            self.error(
                Rule::R2PageTableReachability,
                i,
                format!("AS {asn} page-table tree is implausibly large (walk truncated)"),
            );
            return;
        }
        if summary.leaves.is_empty() {
            self.error(
                Rule::R2PageTableReachability,
                i,
                format!("AS {asn} maps no pages: the job chain cannot be fetched"),
            );
            return;
        }
        let tables: BTreeSet<u64> = summary.tables.iter().copied().collect();
        for &table_pa in &tables {
            if !in_carveout(table_pa, PAGE_SIZE as u64) {
                self.error(
                    Rule::R2PageTableReachability,
                    i,
                    format!("AS {asn} walks a table page at {table_pa:#x}, outside the carveout"),
                );
            }
        }
        let mut escapes = 0usize;
        let mut first_escape = None;
        let mut aliases = 0usize;
        let mut first_alias = None;
        for &(va, pa, flags) in &summary.leaves {
            if !in_carveout(pa, PAGE_SIZE as u64) {
                escapes += 1;
                if first_escape.is_none() {
                    first_escape = Some((va, pa));
                }
            }
            if flags.write && tables.contains(&pa) {
                aliases += 1;
                if first_alias.is_none() {
                    first_alias = Some((va, pa));
                }
            }
        }
        if let Some((va, pa)) = first_escape {
            self.error(
                Rule::R2PageTableReachability,
                i,
                format!(
                    "AS {asn} maps {escapes} page(s) outside the protected carveout (first: va {va:#x} -> pa {pa:#x})"
                ),
            );
        }
        if let Some((va, pa)) = first_alias {
            self.error(
                Rule::R2PageTableReachability,
                i,
                format!(
                    "AS {asn} maps {aliases} GPU-writable page(s) over its own translation tables (first: va {va:#x} -> pa {pa:#x}): a job could rewrite its address space"
                ),
            );
        }
    }

    // --- R1 reads -------------------------------------------------------

    fn on_read(&mut self, i: usize, offset: u32) {
        match whitelist::lookup(offset, self.sku) {
            None => self.error(
                Rule::R1RegisterWhitelist,
                i,
                format!("read of non-whitelisted register {offset:#x}"),
            ),
            Some(info) if !info.read => self.error(
                Rule::R1RegisterWhitelist,
                i,
                format!("read of write-only register {offset:#x}"),
            ),
            Some(_) => {}
        }
    }

    // --- R3 -------------------------------------------------------------

    fn on_poll(&mut self, i: usize, reg: u32, cond: u8, max_iters: u32) {
        match whitelist::lookup(reg, self.sku) {
            None => {
                self.error(
                    Rule::R1RegisterWhitelist,
                    i,
                    format!("poll of non-whitelisted register {reg:#x}"),
                );
                return;
            }
            Some(info) if !info.status => {
                self.error(
                    Rule::R3Termination,
                    i,
                    format!(
                        "poll of {reg:#x}, which is not a read-only-idempotent status register: the loop cannot make progress"
                    ),
                );
            }
            Some(_) => {}
        }
        if cond > 2 {
            self.error(
                Rule::R3Termination,
                i,
                format!("undefined poll condition code {cond}"),
            );
        }
        if max_iters == 0 {
            self.error(
                Rule::R3Termination,
                i,
                "poll with a zero iteration budget can never succeed".to_owned(),
            );
        } else if max_iters > REPLAY_POLL_ITER_CAP {
            self.error(
                Rule::R3Termination,
                i,
                format!(
                    "poll budget {max_iters} exceeds the replayer's spin cap ({})",
                    REPLAY_POLL_ITER_CAP
                ),
            );
        }
    }

    fn on_wait_irq(&mut self, i: usize, line: u8) {
        let idx = match line {
            0 => LINE_GPU,
            1 => LINE_JOB,
            2 => LINE_MMU,
            _ => {
                self.error(
                    Rule::R3Termination,
                    i,
                    format!("wait on undefined interrupt line {line}"),
                );
                return;
            }
        };
        if self.pending[idx] == 0 {
            let name = ["GPU", "Job", "MMU"][idx];
            self.error(
                Rule::R3Termination,
                i,
                format!(
                    "wait on the {name} interrupt line with no recorded event that can raise it: replay would hang"
                ),
            );
            return;
        }
        self.pending[idx] -= 1;
        if idx == LINE_JOB {
            // A consumed job interrupt is the sync point that drains the
            // abstract queue (R5).
            self.queue = self.queue.saturating_sub(1);
        }
    }

    // --- R2/R5: metastate sync ------------------------------------------

    fn on_delta(&mut self, i: usize, index: usize) {
        if self.queue > 0 {
            self.error(
                Rule::R5JobQueueDiscipline,
                i,
                "metastate delta applied while a job is in flight: sync points must see an idle queue".to_owned(),
            );
        }
        let d = &self.ir.deltas[index];
        let (pa, len) = (d.pa, d.len as u64);
        if len != 0 && !in_carveout(pa, len) {
            self.error(
                Rule::R2PageTableReachability,
                i,
                format!(
                    "metastate region [{pa:#x}, {:#x}) leaves the protected carveout",
                    pa as u128 + len as u128
                ),
            );
            return;
        }
        // Even an empty region's payload must decode, as lowering demands.
        if d.parsed.is_none() {
            self.error(
                Rule::R2PageTableReachability,
                i,
                format!("metastate delta at {pa:#x} failed to decode"),
            );
            return;
        }
        if len != 0 {
            self.check_delta_slot_overlap(i, pa, len);
        }
    }

    fn check_delta_slot_overlap(&mut self, i: usize, pa: u64, len: u64) {
        let end = pa + len;
        let slots = [(self.ir.input, "input"), (self.ir.output, "output")]
            .into_iter()
            .chain(self.ir.weights.iter().map(|w| (*w, "weight")));
        for (slot, name) in slots {
            let (s_start, s_end) = slot.range();
            if pa < s_end && s_start < end {
                self.diag(
                    Rule::R4SlotShape,
                    Severity::Warning,
                    Some(i),
                    format!(
                        "metastate region [{pa:#x}, {end:#x}) overlaps the {name} slot: recorded data may mask injected data"
                    ),
                );
                return; // One warning per delta event is enough.
            }
        }
    }

    // --- stream-end invariants ------------------------------------------

    fn check_footer(&mut self) {
        if self.queue != 0 {
            self.diag(
                Rule::R5JobQueueDiscipline,
                Severity::Error,
                None,
                format!(
                    "{} job(s) still in flight at the end of the recording: the final sync point is missing",
                    self.queue
                ),
            );
        }
        if self.next_layer == 0 {
            self.diag(
                Rule::R6LayerStructure,
                Severity::Warning,
                None,
                "recording has no layer markers; layered replay degenerates to monolithic"
                    .to_owned(),
            );
        }
        if let Some(spec) = self.spec {
            if self.next_layer != 0 && self.next_layer as usize != spec.layer_count() {
                self.diag(
                    Rule::R6LayerStructure,
                    Severity::Error,
                    None,
                    format!(
                        "recording has {} layer(s), spec has {}",
                        self.next_layer,
                        spec.layer_count()
                    ),
                );
            }
        }
    }

    // --- R8: address-interval soundness ---------------------------------

    /// Every structure the lifter resolved through the page tables must
    /// have resolved completely: descriptors readable, chains bounded,
    /// programs decodable, operand intervals fully mapped with the right
    /// permission. Lift anomalies are exactly these defects.
    fn check_intervals(&mut self) {
        for chain in &self.ir.jobs {
            for a in &chain.anomalies {
                self.diags.push(Diagnostic {
                    rule: Rule::R8AddressIntervals,
                    severity: Severity::Error,
                    event: Some(chain.event),
                    message: format!("job chain on slot {}: {a}", chain.slot),
                });
            }
            for desc in &chain.descs {
                for a in &desc.anomalies {
                    self.diags.push(Diagnostic {
                        rule: Rule::R8AddressIntervals,
                        severity: Severity::Error,
                        event: Some(chain.event),
                        message: format!("descriptor at va {:#x}: {a}", desc.va),
                    });
                }
                for instr in &desc.instrs {
                    for opnd in instr.operands.iter().filter(|o| o.unmapped > 0) {
                        let need = match opnd.dir {
                            Dir::Read => "readable",
                            Dir::Write => "writable",
                        };
                        self.diags.push(Diagnostic {
                            rule: Rule::R8AddressIntervals,
                            severity: Severity::Error,
                            event: Some(chain.event),
                            message: format!(
                                "{} {} operand [va {:#x}, {:#x}) has {} byte(s) with no {need} mapping",
                                instr.kind.name(),
                                opnd.name,
                                opnd.va,
                                opnd.va_range().1,
                                opnd.unmapped,
                            ),
                        });
                    }
                }
            }
        }
    }

    // --- R7: tensor dataflow integrity ----------------------------------

    /// Def-use findings from the IR's dataflow engine. Dead writes are
    /// warnings (wasteful, not unsafe); everything else is an error — an
    /// undefined read or a clobbered injected slot means replay output
    /// depends on recorded bytes the client never vetted.
    fn check_dataflow(&mut self) {
        for f in dataflow::analyze(self.ir) {
            let severity = match f.kind {
                FindingKind::DeadWrite => Severity::Warning,
                _ => Severity::Error,
            };
            self.diags.push(Diagnostic {
                rule: Rule::R7DataflowIntegrity,
                severity,
                event: Some(f.event),
                message: f.message,
            });
        }
    }

    // --- R9: static cost certification ----------------------------------

    /// Certifies the recording's worst-case replay cost against the SKU's
    /// envelope. Errors anchor at the event where the running total first
    /// crosses the ceiling. Returns the certified budget when within it.
    fn check_envelope(&mut self) -> Option<CertifiedBudget> {
        let env = self.sku.cost_envelope();
        let cap = REPLAY_POLL_ITER_CAP as u64;

        let mut poll_total = 0u64;
        let mut poll_excess_at = None;
        for (i, step) in self.ir.steps.iter().enumerate() {
            if let Step::Poll { max_iters, .. } = *step {
                poll_total = poll_total.saturating_add((max_iters as u64).min(cap));
                if poll_total > env.max_poll_iters && poll_excess_at.is_none() {
                    poll_excess_at = Some(i);
                }
            }
        }
        if let Some(i) = poll_excess_at {
            self.error(
                Rule::R9CostEnvelope,
                i,
                format!(
                    "worst-case poll total {poll_total} iterations exceeds the {} replay envelope ({})",
                    self.sku.name, env.max_poll_iters
                ),
            );
        }

        let mut mac_total = 0u64;
        let mut mac_excess_at = None;
        for chain in &self.ir.jobs {
            let chain_macs: u64 = chain
                .descs
                .iter()
                .flat_map(|d| d.instrs.iter())
                .map(|ins| ins.macs)
                .sum();
            mac_total = mac_total.saturating_add(chain_macs);
            if mac_total > env.max_macs && mac_excess_at.is_none() {
                mac_excess_at = Some(chain.event);
            }
        }
        if let Some(i) = mac_excess_at {
            self.error(
                Rule::R9CostEnvelope,
                i,
                format!(
                    "total shader cost {mac_total} MACs exceeds the {} replay envelope ({})",
                    self.sku.name, env.max_macs
                ),
            );
        }

        if poll_excess_at.is_none() && mac_excess_at.is_none() {
            Some(CertifiedBudget {
                macs: mac_total,
                poll_iters: poll_total,
            })
        } else {
            None
        }
    }
}
