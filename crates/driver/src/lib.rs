//! A kbase-style Mali GPU kernel driver over an instrumentable register
//! port.
//!
//! This crate is the *recorded party* of GR-T: a faithful reduction of the
//! Mali Bifrost kernel driver whose every register access, lock operation,
//! explicit delay, polling loop, and externalization point flows through
//! the [`port::RegPort`] trait — the hooks the paper's Clang plugin injects
//! into the real driver (§4, §6).
//!
//! - [`port`] — the instrumentation boundary: symbolic [`port::RegVal`]s,
//!   speculation taints, polling-loop specs.
//! - [`kbase`] — the driver proper: probe, quirks, power, MMU, jobs.
//! - [`direct`] — the native synchronous port (CPU/GPU co-located).
//! - [`regions`] — GPU memory regions with usage classification for the §5
//!   metastate synchronizer.

#![warn(missing_docs)]

pub mod direct;
pub mod kbase;
pub mod port;
pub mod regions;

pub use direct::DirectPort;
pub use kbase::{DriverError, JobIrqOutcome, KbaseDriver, PerfSample};
pub use port::{Loc, LockId, RegPort, RegVal, SpecToken, SymSlot};
pub use regions::{PageAlloc, Region, RegionTable, Usage};
