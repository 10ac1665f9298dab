//! GR-T: safe and practical GPU computation in TrustZone.
//!
//! This crate is the cloud half of the paper's contribution (EuroSys '23).
//! The cloud runs the full GPU stack with **no GPU**; the client TEE owns
//! the GPU with **no GPU stack**; together they *dry-run* a workload once
//! to produce a recording, which the TEE thereafter replays on new input
//! with no cloud involvement:
//!
//! - [`drivershim`] — the cloud-side shim under the GPU driver: register
//!   access **deferral** with symbolic execution (§4.1), value
//!   **speculation** with taint tracking and replay-based rollback (§4.2),
//!   and **polling-loop offload** (§4.3);
//! - [`memsync`] — meta-only memory synchronization with delta + range
//!   coding and continuous validation (§5);
//! - [`session`] — the end-to-end record workflow over an attested,
//!   encrypted channel, configurable as `Naive` / `OursM` / `OursMD` /
//!   `OursMDS` (the evaluation's four recorder builds);
//! - [`cloud`] — the multi-devicetree cloud VM image (§6);
//! - [`debug`] — remote debugging: recording diffs and device audits
//!   (§3.1).
//!
//! The client TEE — GPUShim, the replayer and the GlobalPlatform replay
//! service — is the `grt-replay` crate, which this crate drives while
//! recording and which never depends on this one. `scripts/tcb_report.sh`
//! measures its dependency cone at 8 crates and about 12.9k production
//! lines; this crate's cone, with the recorder, driver, runtime, network
//! model and model zoo, is 13 crates and about 19.1k.
//!
//! The signed interaction log, its byte format, and the ahead-of-replay
//! gate the replayer vets every recording through live one layer down,
//! in `grt-ir` (`grt_ir::recording`, `grt_ir::gate`), beside the lifter
//! that reads them; the `grt-lint` analyzer implements the gate.

#![warn(missing_docs)]

pub mod cloud;
pub mod compiled;
pub mod debug;
pub mod drivershim;
pub mod ir;
pub mod memsync;
pub mod session;

/// Replay names the benchmark package calls by these paths; kept for it
/// until the benchmark next changes.
pub mod replay {
    pub use grt_ir::gate::REPLAY_POLL_ITER_CAP;
    pub use grt_ml::reference::workload_weights;
}

/// The replay service's command ids, kept at this path for the benchmark
/// package until the benchmark next changes.
pub mod service {
    pub use grt_replay::service::cmd;
}

pub use cloud::{CloudVmImage, UnsupportedGpu};
pub use debug::{audit_replay, diff_recordings, Divergence};
pub use drivershim::{CommitCategory, DriverShim, ShimConfig};
pub use memsync::{MemSync, SyncMode};
// Kept for the benchmark package until the benchmark next changes.
pub use grt_replay::service::ReplayService;
pub use session::{RecordError, RecordOutcome, RecordSession, RecorderMode};
