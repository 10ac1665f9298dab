//! The lift entry point, re-exported from `grt-ir` (which owns the
//! recording container and the lifter) for callers that name it through
//! this crate, such as the benchmark package.

pub use grt_ir::lift_recording;
