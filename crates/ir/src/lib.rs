//! grt-ir: the recording container, its typed semantics IR, and the
//! replay gate.
//!
//! The paper's safety story vets a recording *before* replay; the deeper
//! the vetting, the stronger the story. This crate holds the signed
//! recording format itself ([`recording`]) and decodes a recording
//! once — MMIO events, metastate deltas, job descriptors, and the
//! `ShaderOp` bytecode those descriptors point at — into one analyzable
//! structure, [`program::IrProgram`]:
//!
//! * every event becomes a typed [`program::Step`];
//! * every `JS_COMMAND = START` becomes a [`program::JobChain`] whose
//!   shader instructions carry shape metadata and page-resolved operand
//!   tensors;
//! * [`dataflow`] computes the def-use relation over those operands;
//! * [`dump`] renders it all as deterministic text.
//!
//! [`lift_recording`] reads a [`recording::Recording`] directly. grt-lint
//! proves R1–R9 over the lift through the [`gate::RecordingGate`] interface
//! the replayer calls, and grt-core lowers `CompiledRecording` from the
//! same lift, so the two never disagree about what the bytes mean. Lifting
//! is total: malformed input becomes [`program::Anomaly`] annotations,
//! never a lifter error. The crate sits below the recorder, driver and
//! runtime, so the analyzer's build pulls in none of them.

#![warn(missing_docs)]

pub mod dataflow;
pub mod dump;
pub mod fusion;
pub mod gate;
pub mod iset;
pub mod lift;
pub mod program;
pub mod recording;
pub mod shadow;

pub use fusion::{FusionPlan, FusionSummary};
pub use lift::lift_recording;
pub use program::IrProgram;
