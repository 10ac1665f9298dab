//! GR-T's client TEE: everything that runs in the secure world of the
//! client device (§3.2, §6). The cloud runs the GPU stack with no GPU; the
//! TEE owns the GPU with no GPU stack:
//!
//! - [`client`] — GPUShim, the TEE module owning the physical GPU during
//!   recording: executes committed access batches, runs offloaded polls,
//!   forwards interrupts, applies memory deltas; the client device it
//!   runs on; and [`client::take_gpu`], the one way anything here holds
//!   the GPU (TZASC claim, interrupt routing and a reset), whose
//!   [`client::GpuHold`] gives the GPU back when it drops;
//! - [`compiled`] — recordings lowered once at load time into a flat,
//!   pre-validated op arena (DESIGN.md §9);
//! - [`replay`] — the replayer: one-shot, warm, batched and layer-at-a-time
//!   replay over that arena, with signed receipts;
//! - [`service`] — the replayer as a GlobalPlatform TEE module.
//!
//! The crate builds on the GPU, TEE, crypto, compression, IR and
//! attestation crates alone: no driver, runtime, recorder, network model,
//! model zoo or analyzer (the recording gate is a
//! `grt_ir::gate::RecordingGate` trait object, so the analyzer plugs in
//! from above). `scripts/tcb_report.sh` measures the cone at 8 crates and
//! about 12.7k production lines, and the TEE as deployed, with grt-lint's
//! cone as its gate, at 9 crates and about 14.2k lines, 8.3k of them
//! outside `grt-gpu` and `grt-sim`, which model the device the TEE
//! drives; CI holds the deployed count to `scripts/tcb_lines`. GPUReplay
//! (arXiv 2105.05085) reports a "50-KB GPU stack" for the same role.

#![warn(missing_docs)]

pub mod client;
pub mod compiled;
pub mod replay;
pub mod service;
