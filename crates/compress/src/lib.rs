//! Memory-dump compression for GR-T's memory synchronization (§5).
//!
//! The paper: *"Both shims use range encoding to compress memory dumps; each
//! shim calculates and transfers the deltas of memory dumps between
//! consecutive synchronization points."* This crate implements both halves:
//!
//! - [`delta`] — a page-granular delta codec: given the previous dump, only
//!   pages that changed are emitted (and within a changed page, the bytes are
//!   XORed against the old page so unchanged bytes become zero, which the
//!   entropy stage then crushes).
//! - [`range`] — an LZMA-style adaptive binary range coder with an order-1
//!   byte model; zero-heavy, sparsified dumps (the paper zero-fills program
//!   data it cannot classify, §5) compress by orders of magnitude.
//!
//! [`compress`] / [`decompress`] combine the two behind a one-call API used
//! by both shims.

#![warn(missing_docs)]

pub mod delta;
pub mod range;

pub use delta::{DeltaCodec, ParsedDelta};
pub use range::{range_compress, range_decompress};

/// Compresses `data` with the adaptive range coder.
///
/// # Examples
///
/// ```
/// let data = vec![0u8; 4096];
/// let packed = grt_compress::compress(&data);
/// assert!(packed.len() < 64);
/// assert_eq!(grt_compress::decompress(&packed).unwrap(), data);
/// ```
pub fn compress(data: &[u8]) -> Vec<u8> {
    range_compress(data)
}

/// Decompresses a [`compress`]-produced buffer.
pub fn decompress(packed: &[u8]) -> Result<Vec<u8>, CorruptStream> {
    range_decompress(packed)
}

/// Like [`decompress`], but rejects streams whose *stated* output size
/// exceeds `max_len` before doing any work.
///
/// Untrusted inputs (e.g. metastate deltas inside a recording) must use
/// this: a forged header claiming a 4 GiB output would otherwise spin the
/// decoder for billions of iterations on a 20-byte input.
pub fn decompress_limited(packed: &[u8], max_len: usize) -> Result<Vec<u8>, CorruptStream> {
    range::range_decompress_limited(packed, max_len)
}

/// Error returned when a compressed stream is malformed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptStream;

impl std::fmt::Display for CorruptStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corrupt compressed stream")
    }
}

impl std::error::Error for CorruptStream {}
