//! The recording gate: how the replayer asks an ahead-of-replay analyzer
//! whether a recording is safe to execute.
//!
//! The TCB inverts the usual trust direction (paper §6): the GPU stack that
//! *produced* a recording is untrusted, so everything rides on what the TEE
//! can check about the recording itself before touching the GPU. This
//! module defines the interface for that check and the two replay bounds
//! it is judged against; the `grt-lint` crate provides the real
//! implementation (rules R1–R9, see DESIGN.md "Recording verification").
//! The interface is a trait so tests can substitute a fake: a
//! [`PermissiveGate`] that lets a known-bad recording reach the
//! replayer's runtime defenses, or a gate that counts its calls.
//!
//! A gate judges the recording's semantics-IR lift, not its bytes: the
//! replayer lifts a verified recording once, and that same
//! [`IrProgram`] is what the gate vets and what grt-core's compiler
//! lowers, so the vetted program and the replayed program are one decode.

use crate::IrProgram;
use grt_gpu::GpuSku;

/// Size of the client's protected carveout, which starts at physical
/// address 0: every client device allocates exactly this much GPU-visible
/// memory, and every GPU-visible mapping a recording makes must stay
/// inside it.
pub const CLIENT_MEM_BYTES: usize = 96 << 20;

/// Hard cap on poll iterations regardless of what the recording asks for:
/// a malicious (or corrupt) recording must not be able to spin the TEE.
/// The replayer clamps every poll to it, and the `grt-lint` analyzer
/// rejects any poll budget above it statically (rule R3).
pub const REPLAY_POLL_ITER_CAP: u32 = 10_000;

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
    /// Judges the lifted recording `ir` for replay on `sku` inside the
    /// [`CLIENT_MEM_BYTES`] carveout under the [`REPLAY_POLL_ITER_CAP`]
    /// spin cap. The lift used `sku`'s PTE quirk. `Ok(())` means every
    /// safety rule passed; `Err` carries the first violated rule.
    fn vet(&self, ir: &IrProgram, sku: &GpuSku) -> Result<(), Rejection>;
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
    fn vet(&self, _ir: &IrProgram, _sku: &GpuSku) -> Result<(), Rejection> {
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
