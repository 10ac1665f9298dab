//! The lift entry point, re-exported from `grt-ir` (which owns the
//! recording container and the lifter). Kept for the benchmark package,
//! which names it through this crate, until the benchmark next changes.

pub use grt_ir::lift_recording;
