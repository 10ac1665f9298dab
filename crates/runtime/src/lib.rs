//! The userspace GPU runtime: buffers, per-SKU JIT, and execution.
//!
//! This crate stands in for the proprietary `libmali.so` + ARM Compute
//! Library pair in the paper's GPU stack (§2.1): it receives a hardware-
//! neutral [`grt_ml::NetworkSpec`] (the "late binding" format developers
//! actually ship, §2.4), JIT-compiles it for the *probed* GPU SKU, emits
//! shader programs / job descriptors / command streams into driver-managed
//! GPU memory, and drives job submission.
//!
//! Because the JIT tiles by shader-core count, the bytes it emits — and
//! hence every recording made from them — are genuinely SKU-specific,
//! which is the paper's central motivation for cloud-side recording.

#![warn(missing_docs)]

pub mod executor;
pub mod jit;
pub mod network;

pub use executor::{
    run_inference, run_inference_with_scratch, ExecHooks, NativeHooks, NativeStack,
};
pub use jit::{Jit, JitJob, JobKind};
pub use network::{
    compile_network, compile_network_dry, CompiledJob, CompiledLayer, CompiledNetwork,
};
