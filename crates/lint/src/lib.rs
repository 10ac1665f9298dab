//! grt-lint: an ahead-of-replay static analyzer for GR-T recordings.
//!
//! The paper's safety argument (§6) is that the TEE never trusts the GPU
//! software stack that produced a recording — it trusts only what it can
//! *check* about the recording. The replayer's runtime checks (register
//! verify-reads, poll caps, IRQ timeouts) catch divergence while a
//! recording executes; this crate moves the whole-recording properties
//! ahead of execution. The recording is first lifted once into the typed
//! semantics IR (`grt-ir`): every event becomes a typed step, every job
//! submission a fully decoded descriptor chain with page-resolved operand
//! tensors. One pass over that IR proves nine rules before the GPU is
//! ever touched.
//!
//! | Rule | Property |
//! |------|----------|
//! | R1   | every MMIO access is in the SKU's register whitelist, with value constraints on control registers |
//! | R2   | every GPU-visible mapping lands inside the protected carveout; no writable aliases over the translation tables |
//! | R3   | polls are bounded and idempotent; every `WaitIrq` has a recorded raiser |
//! | R4   | data slots are in-bounds, disjoint, and consistent with the network spec |
//! | R5   | at most one job in flight between sync points |
//! | R6   | `BeginLayer` markers are dense and monotone |
//! | R7   | tensor dataflow integrity: every shader read is covered by an injected slot, a synced-down delta, or an earlier write; no partial operand aliasing; no writes over injected slots |
//! | R8   | address-interval soundness: descriptors, shader programs and operand tensors resolve completely through the page tables, within the analyzable bounds |
//! | R9   | static cost certification: worst-case MAC and poll-iteration totals fit the SKU's replay envelope; the certified budget is stored beside the verdict |
//!
//! R1–R6 are structural and always run. R7–R9 are semantic: they only run
//! once the structural rules are clean (R8 first — dataflow and cost are
//! meaningless over chains that could not be resolved). A passing report
//! carries the [`report::CertifiedBudget`] R9 measured.
//!
//! The analyzer is the replayer's [`grt_ir::gate::RecordingGate`], the
//! serving registry's insert-time check (verdicts and budgets cached per
//! entry), and the `recording-lint` CLI. It judges against the replay
//! bounds [`grt_ir::gate`] defines — the
//! [`CLIENT_MEM_BYTES`](grt_ir::gate::CLIENT_MEM_BYTES) carveout at
//! physical address 0 and the
//! [`REPLAY_POLL_ITER_CAP`](grt_ir::gate::REPLAY_POLL_ITER_CAP) spin cap — so the
//! analyzer and the replayer share one bound each. The crate depends only
//! on the layers below the lifter (no recorder, driver or runtime), which
//! keeps the in-TEE gate's build small.

#![warn(missing_docs)]

pub mod report;
pub mod whitelist;

mod pass;

pub use report::{CertifiedBudget, Diagnostic, LintReport, Rule, Severity};

use grt_gpu::GpuSku;
use grt_ir::gate::{RecordingGate, Rejection};
use grt_ir::recording::Recording;
use grt_ir::IrProgram;
use grt_ml::NetworkSpec;

/// The analyzer. Stateless; cheap to construct.
#[derive(Debug, Default, Clone, Copy)]
pub struct Linter;

impl Linter {
    /// A linter with the production replayer's bounds.
    pub fn new() -> Self {
        Linter
    }

    /// Runs all nine rules over `rec` for `sku`, consulting `spec` for the
    /// shape checks when one is available (R4/R6 get stricter with it).
    /// Lifts the recording to the semantics IR internally — a convenience
    /// for the `recording-lint` CLI and tests. Callers that already hold a
    /// lift (the replayer and the serving registry lift once for lint
    /// *and* compile) use [`Linter::lint_ir`].
    pub fn lint(&self, rec: &Recording, sku: &GpuSku, spec: Option<&NetworkSpec>) -> LintReport {
        let ir = grt_ir::lift_recording(rec, sku.pte_quirk);
        self.lint_ir(&ir, sku, spec)
    }

    /// Runs all nine rules over an already-lifted recording. The lift must
    /// have used `sku`'s PTE quirk (page-table walks must match the GPU
    /// being vetted for) — [`grt_ir::lift_recording`] does.
    pub fn lint_ir(&self, ir: &IrProgram, sku: &GpuSku, spec: Option<&NetworkSpec>) -> LintReport {
        pass::Pass::new(ir, sku, spec).run()
    }
}

impl RecordingGate for Linter {
    fn vet(&self, ir: &IrProgram, sku: &GpuSku) -> Result<(), Rejection> {
        match self.lint_ir(ir, sku, None).first_error() {
            None => Ok(()),
            Some(d) => Err(Rejection {
                rule: d.rule.id().to_owned(),
                event: d.event,
                message: d.message.clone(),
            }),
        }
    }
}
