//! GR-T umbrella crate: re-exports the whole workspace behind one name.
//!
//! This is the crate downstream users depend on; the individual `grt-*`
//! crates remain importable for finer-grained use. See the README for the
//! architecture map and the `examples/` directory for runnable tours.

pub use grt_compress as compress;
pub use grt_core as core;
pub use grt_crypto as crypto;
pub use grt_driver as driver;
pub use grt_gpu as gpu;
pub use grt_ml as ml;
pub use grt_net as net;
pub use grt_replay as replay;
pub use grt_runtime as runtime;
pub use grt_sim as sim;
pub use grt_tee as tee;
