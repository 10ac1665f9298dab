//! The recording gate: how the replayer asks an ahead-of-replay analyzer
//! whether a recording is safe to execute.
//!
//! The TCB inverts the usual trust direction (paper §6): the GPU stack that
//! *produced* a recording is untrusted, so everything rides on what the TEE
//! can check about the recording itself before touching the GPU. This
//! module defines the interface for that check; the `grt-lint` crate
//! provides the real implementation (rules R1–R9, see DESIGN.md
//! "Recording verification"). Keeping only the trait here avoids a
//! dependency cycle — lint needs core's recording types, core needs a
//! gate.
//!
//! A gate judges the recording's semantics-IR lift, not its bytes: the
//! replayer lifts a verified recording once, and that same
//! [`IrProgram`] is what the gate vets and what
//! [`crate::compiled::compile_from_ir`] lowers, so the vetted program
//! and the replayed program are one decode.

use grt_gpu::GpuSku;
use grt_ir::IrProgram;

/// Replay-environment facts a gate needs to judge a recording.
#[derive(Debug, Clone, Copy)]
pub struct GateContext<'a> {
    /// The SKU of the GPU the recording will replay on.
    pub sku: &'a GpuSku,
    /// Base of the protected carveout all GPU-visible memory must stay in.
    pub carveout_base: u64,
    /// Length of the protected carveout in bytes.
    pub carveout_len: u64,
    /// The replayer's spin cap; recorded poll budgets must fit under it.
    pub poll_iter_cap: u32,
}

/// Why a gate refused a recording.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rejection {
    /// Stable rule identifier (for the lint gate, "R1".."R9").
    pub rule: String,
    /// Offending event index, if the finding is event-anchored.
    pub event: Option<usize>,
    /// Human-readable explanation with concrete offsets/values.
    pub message: String,
}

impl core::fmt::Display for Rejection {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self.event {
            Some(idx) => write!(f, "[{} @ event {}] {}", self.rule, idx, self.message),
            None => write!(f, "[{}] {}", self.rule, self.message),
        }
    }
}

/// An ahead-of-replay recording analyzer.
pub trait RecordingGate {
    /// Judges the lifted recording `ir` for replay under `ctx`. The lift
    /// used `ctx.sku`'s PTE quirk. `Ok(())` means every safety rule
    /// passed; `Err` carries the first violated rule.
    fn vet(&self, ir: &IrProgram, ctx: &GateContext<'_>) -> Result<(), Rejection>;
}

/// A gate that accepts everything.
///
/// Exists for tests that must get a known-bad recording *past* static
/// analysis in order to exercise the replayer's runtime defenses
/// (verify-mismatch detection, poll caps, IRQ timeouts). Production paths
/// construct the `grt-lint` gate instead; see `Replayer::new`.
#[derive(Debug, Default, Clone, Copy)]
pub struct PermissiveGate;

impl RecordingGate for PermissiveGate {
    fn vet(&self, _ir: &IrProgram, _ctx: &GateContext<'_>) -> Result<(), Rejection> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejection_displays_rule_and_event() {
        let r = Rejection {
            rule: "R2".into(),
            event: Some(7),
            message: "pte escapes carveout".into(),
        };
        assert_eq!(r.to_string(), "[R2 @ event 7] pte escapes carveout");
        let r2 = Rejection {
            rule: "R4".into(),
            event: None,
            message: "slots overlap".into(),
        };
        assert_eq!(r2.to_string(), "[R4] slots overlap");
    }
}
