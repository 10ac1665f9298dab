//! GR-T: safe and practical GPU computation in TrustZone.
//!
//! This crate is the paper's contribution (EuroSys '23). The cloud runs the
//! full GPU stack with **no GPU**; the client TEE owns the GPU with **no
//! GPU stack**; together they *dry-run* a workload once to produce a
//! recording, which the TEE thereafter replays on new input with no cloud
//! involvement:
//!
//! - [`drivershim`] — the cloud-side shim under the GPU driver: register
//!   access **deferral** with symbolic execution (§4.1), value
//!   **speculation** with taint tracking and replay-based rollback (§4.2),
//!   and **polling-loop offload** (§4.3);
//! - [`client`] — GPUShim, the TEE module owning the physical GPU: executes
//!   committed access batches, runs offloaded polls, forwards interrupts,
//!   and locks the GPU against the normal world;
//! - [`memsync`] — meta-only memory synchronization with delta + range
//!   coding and continuous validation (§5);
//! - [`session`] — the end-to-end record workflow over an attested,
//!   encrypted channel, configurable as `Naive` / `OursM` / `OursMD` /
//!   `OursMDS` (the evaluation's four recorder builds);
//! - [`replay`] — the in-TEE replayer: a few hundred lines with zero
//!   dependencies on the GPU stack;
//! - [`compiled`] — recordings lowered once at load time into a flat,
//!   pre-validated op arena for fast repeated replay (DESIGN.md §9).
//!
//! The signed interaction log, its byte format, and the ahead-of-replay
//! gate the replayer vets every recording through live one layer down,
//! in `grt-ir` (`grt_ir::recording`, `grt_ir::gate`), beside the lifter
//! that reads them; the `grt-lint` analyzer implements the gate without
//! depending on this crate.

#![warn(missing_docs)]

pub mod client;
pub mod cloud;
pub mod compiled;
pub mod debug;
pub mod drivershim;
pub mod ir;
pub mod memsync;
pub mod replay;
pub mod service;
pub mod session;

pub use client::GpuShim;
pub use cloud::{CloudVmImage, UnsupportedGpu};
pub use compiled::{CompileError, CompiledRecording};
pub use debug::{audit_replay, diff_recordings, Divergence};
pub use drivershim::{CommitCategory, DriverShim, ShimConfig};
pub use memsync::{MemSync, SyncMode};
pub use replay::{LayeredReplay, ReplayError, ReplayProfile, Replayer};
pub use service::ReplayService;
pub use session::{
    recording_trust_root, ClientDevice, RecordError, RecordOutcome, RecordSession, RecorderMode,
    PROVISIONING_SECRET,
};
