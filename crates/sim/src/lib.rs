//! Discrete-event simulation core for the GR-T reproduction.
//!
//! Every component of the reproduction — the cloud GPU stack, the network,
//! the client TEE, and the GPU hardware model — shares one deterministic
//! virtual clock. "Recording delay" in the paper is wall-clock time on real
//! hardware; here it is elapsed [`SimTime`] on the shared [`Clock`], so a
//! 795-second cellular record run simulates in milliseconds and every
//! experiment is reproducible bit-for-bit.
//!
//! The crate provides:
//!
//! - [`SimTime`] / [`Clock`] — nanosecond-resolution virtual time.
//! - [`Rng`] — a small deterministic PRNG (splitmix64 seeded xoshiro256**) so
//!   no experiment depends on OS entropy.
//! - [`EnergyMeter`] — power-state integration over the timeline, standing in
//!   for the paper's digital multimeter (§7.4).
//! - [`Stats`] — named counters used by the experiment harnesses (blocking
//!   RTTs, sync bytes, commit counts, ...).
//! - [`FaultPlan`] — a deterministic, seedable schedule of injectable
//!   faults (loss bursts, RTT spikes, partitions, device crashes,
//!   slowdowns) that the network and fleet layers consult on the virtual
//!   clock during chaos experiments.
//!
//! It holds no event queue: each event source keeps its own, the GPU model
//! its pending interrupts and the fleet scheduler its heap of due devices.

#![warn(missing_docs)]

pub mod clock;
pub mod energy;
pub mod fault;
pub mod rng;
pub mod stats;
pub mod time;

pub use clock::Clock;
pub use energy::{EnergyMeter, Rail};
pub use fault::{Crash, FaultPlan, FaultPlanConfig, LossBurst, RttSpike, Slowdown, Window};
pub use rng::Rng;
pub use stats::Stats;
pub use time::SimTime;
