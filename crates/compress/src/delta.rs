//! Page-granular delta encoding between consecutive memory dumps.
//!
//! Each shim keeps the dump it sent (or received) at the previous
//! synchronization point; at the next point only changed pages travel, XORed
//! against their previous contents so the entropy coder sees mostly zeros.

use crate::{compress, decompress_limited, CorruptStream};
use std::ops::Range;

/// A page-delta codec with a fixed page size.
///
/// # Examples
///
/// ```
/// use grt_compress::DeltaCodec;
///
/// let codec = DeltaCodec::new(4096);
/// let old = vec![0u8; 16384];
/// let mut new = old.clone();
/// new[5000] = 0xAA; // One changed page.
/// let packed = codec.encode(&old, &new);
/// assert_eq!(codec.decode(&old, &packed).unwrap(), new);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct DeltaCodec {
    page_size: usize,
}

impl DeltaCodec {
    /// Creates a codec; `page_size` must be non-zero.
    pub fn new(page_size: usize) -> Self {
        assert!(page_size > 0, "page size must be non-zero");
        DeltaCodec { page_size }
    }

    /// The configured page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Encodes `new` as a delta against `old`.
    ///
    /// The two dumps may differ in length (the GPU address space grows as
    /// the runtime maps buffers); pages beyond `old`'s length are treated as
    /// previously all-zero.
    ///
    /// Wire format (before entropy coding):
    /// `new_len (u64) ‖ npages (u32) ‖ [page_index (u32) ‖ xor_page]*`
    pub fn encode(&self, old: &[u8], new: &[u8]) -> Vec<u8> {
        let ps = self.page_size;
        let npages_total = new.len().div_ceil(ps);
        let mut raw = Vec::new();
        raw.extend_from_slice(&(new.len() as u64).to_le_bytes());
        let mut changed: Vec<(u32, Vec<u8>)> = Vec::new();
        for page in 0..npages_total {
            let start = page * ps;
            let end = (start + ps).min(new.len());
            let new_page = &new[start..end];
            let old_page: &[u8] = if start < old.len() {
                &old[start..end.min(old.len())]
            } else {
                &[]
            };
            let same = old_page.len() == new_page.len() && old_page == new_page;
            if !same {
                let mut xor: Vec<u8> = new_page.to_vec();
                for (i, b) in xor.iter_mut().enumerate() {
                    if let Some(&o) = old_page.get(i) {
                        *b ^= o;
                    }
                }
                changed.push((page as u32, xor));
            }
        }
        raw.extend_from_slice(&(changed.len() as u32).to_le_bytes());
        for (idx, xor) in &changed {
            raw.extend_from_slice(&idx.to_le_bytes());
            raw.extend_from_slice(&(xor.len() as u32).to_le_bytes());
            raw.extend_from_slice(xor);
        }
        compress(&raw)
    }

    /// Reconstructs the new dump from `old` and an encoded delta.
    ///
    /// Output is implicitly bounded at 1 GiB; untrusted deltas with a
    /// known region size should prefer [`DeltaCodec::decode_limited`].
    pub fn decode(&self, old: &[u8], packed: &[u8]) -> Result<Vec<u8>, CorruptStream> {
        self.decode_limited(old, packed, 1 << 30)
    }

    /// Like [`DeltaCodec::decode`] with an explicit output bound: a delta
    /// whose stated size exceeds `max_len` is rejected before decoding.
    pub fn decode_limited(
        &self,
        old: &[u8],
        packed: &[u8],
        max_len: usize,
    ) -> Result<Vec<u8>, CorruptStream> {
        Ok(self.parse_limited(packed, max_len)?.apply(old))
    }

    /// Decompresses and fully validates a delta without applying it.
    ///
    /// Every structural property the encoder guarantees is enforced here,
    /// so an accepted [`ParsedDelta`] can be applied (repeatedly) without
    /// further checks:
    ///
    /// - the stated output length is at most `max_len`;
    /// - every XOR page fits within `page_size` (no cross-page writes);
    /// - page indices are strictly increasing (no duplicates, canonical
    ///   order);
    /// - every page's byte range lies inside the stated output length,
    ///   computed with checked arithmetic (no offset overflow);
    /// - the payload has no trailing bytes after the last page.
    pub fn parse_limited(
        &self,
        packed: &[u8],
        max_len: usize,
    ) -> Result<ParsedDelta, CorruptStream> {
        // The raw payload is at most header + per-page overhead + pages.
        let raw_bound = max_len
            .saturating_add(max_len / self.page_size.max(1) * 8)
            .saturating_add(64);
        let raw = decompress_limited(packed, raw_bound)?;
        let mut cur = Cursor::new(&raw);
        let new_len = cur.u64()? as usize;
        if new_len > max_len {
            return Err(CorruptStream);
        }
        let npages = cur.u32()? as usize;
        let mut pages: Vec<(u32, Range<usize>)> = Vec::with_capacity(npages.min(1024));
        let mut prev: Option<u32> = None;
        for _ in 0..npages {
            let page = cur.u32()?;
            let len = cur.u32()? as usize;
            let xor = cur.span(len)?;
            if xor.len() > self.page_size {
                return Err(CorruptStream);
            }
            if prev.is_some_and(|p| page <= p) {
                return Err(CorruptStream);
            }
            prev = Some(page);
            let start = (page as usize)
                .checked_mul(self.page_size)
                .ok_or(CorruptStream)?;
            let end = start.checked_add(xor.len()).ok_or(CorruptStream)?;
            if end > new_len {
                return Err(CorruptStream);
            }
            pages.push((page, xor));
        }
        if !cur.at_end() {
            return Err(CorruptStream);
        }
        Ok(ParsedDelta {
            page_size: self.page_size,
            new_len,
            raw,
            pages,
        })
    }

    /// Encodes the delta of a dump against itself without materialising the
    /// dump: byte-identical to `encode(d, d)` for any `d` of length `len`.
    pub fn encode_unchanged(&self, len: usize) -> Vec<u8> {
        let mut raw = Vec::with_capacity(12);
        raw.extend_from_slice(&(len as u64).to_le_bytes());
        raw.extend_from_slice(&0u32.to_le_bytes());
        compress(&raw)
    }
}

/// A decompressed, fully validated page delta ready to be applied.
///
/// Produced by [`DeltaCodec::parse_limited`]; validation happens exactly
/// once, so a parsed delta can be cached and re-applied on every replay
/// without re-walking the wire format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedDelta {
    page_size: usize,
    new_len: usize,
    /// The decompressed payload; every page's XOR bytes are a range of it.
    raw: Vec<u8>,
    pages: Vec<(u32, Range<usize>)>,
}

impl ParsedDelta {
    /// Stated length of the reconstructed dump.
    pub fn new_len(&self) -> usize {
        self.new_len
    }

    /// Changed pages as `(page_index, xor_bytes)`, strictly increasing by
    /// index; each XOR slice fits in one page and inside `new_len`.
    pub fn pages(&self) -> impl ExactSizeIterator<Item = (u32, &[u8])> + '_ {
        self.pages
            .iter()
            .map(|(page, xor)| (*page, &self.raw[xor.clone()]))
    }

    /// Total XOR payload bytes across all changed pages.
    pub fn changed_bytes(&self) -> usize {
        self.pages.iter().map(|(_, xor)| xor.len()).sum()
    }

    /// Reconstructs the new dump from `old`.
    ///
    /// Bytes of `old` beyond `new_len` are dropped; bytes past `old`'s end
    /// are treated as previously zero.
    pub fn apply(&self, old: &[u8]) -> Vec<u8> {
        let mut out = vec![0u8; self.new_len];
        let copy_len = old.len().min(self.new_len);
        out[..copy_len].copy_from_slice(&old[..copy_len]);
        // `out` holds old where old existed and zero past its end, so
        // XORing in place rebuilds each page. Parsing bounded every page
        // inside `new_len`.
        for (page, xor) in self.pages() {
            let start = page as usize * self.page_size;
            for (o, &x) in out[start..start + xor.len()].iter_mut().zip(xor) {
                *o ^= x;
            }
        }
        out
    }
}

/// Tiny bounds-checked reader over the decompressed delta payload.
struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(data: &'a [u8]) -> Self {
        Cursor { data, pos: 0 }
    }

    /// The range of the next `n` bytes, consumed.
    fn span(&mut self, n: usize) -> Result<Range<usize>, CorruptStream> {
        let end = self.pos.checked_add(n).ok_or(CorruptStream)?;
        if end > self.data.len() {
            return Err(CorruptStream);
        }
        let span = self.pos..end;
        self.pos = end;
        Ok(span)
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], CorruptStream> {
        let span = self.span(n)?;
        Ok(&self.data[span])
    }

    fn u32(&mut self) -> Result<u32, CorruptStream> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, CorruptStream> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn at_end(&self) -> bool {
        self.pos == self.data.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_dumps_produce_tiny_delta() {
        let codec = DeltaCodec::new(4096);
        let dump = vec![0x55u8; 1 << 20];
        let packed = codec.encode(&dump, &dump);
        assert!(
            packed.len() < 64,
            "identical delta = {} bytes",
            packed.len()
        );
        assert_eq!(codec.decode(&dump, &packed).unwrap(), dump);
    }

    #[test]
    fn single_page_change() {
        let codec = DeltaCodec::new(4096);
        let old = vec![0u8; 64 * 1024];
        let mut new = old.clone();
        new[10_000] = 0xAB;
        new[10_001] = 0xCD;
        let packed = codec.encode(&old, &new);
        assert!(packed.len() < 1024, "packed={}", packed.len());
        assert_eq!(codec.decode(&old, &packed).unwrap(), new);
    }

    #[test]
    fn growing_dump() {
        let codec = DeltaCodec::new(256);
        let old = vec![1u8; 1000];
        let mut new = vec![1u8; 3000];
        new[2500] = 9;
        let packed = codec.encode(&old, &new);
        assert_eq!(codec.decode(&old, &packed).unwrap(), new);
    }

    #[test]
    fn shrinking_dump() {
        let codec = DeltaCodec::new(256);
        let old = vec![7u8; 3000];
        let new = vec![7u8; 1000];
        let packed = codec.encode(&old, &new);
        assert_eq!(codec.decode(&old, &packed).unwrap(), new);
    }

    #[test]
    fn empty_to_something() {
        let codec = DeltaCodec::new(128);
        let new = vec![3u8; 777];
        let packed = codec.encode(&[], &new);
        assert_eq!(codec.decode(&[], &packed).unwrap(), new);
    }

    #[test]
    fn something_to_empty() {
        let codec = DeltaCodec::new(128);
        let old = vec![3u8; 777];
        let packed = codec.encode(&old, &[]);
        assert_eq!(codec.decode(&old, &packed).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn unaligned_tail_page() {
        let codec = DeltaCodec::new(100);
        let old = vec![1u8; 250];
        let mut new = vec![1u8; 250];
        new[249] = 2;
        let packed = codec.encode(&old, &new);
        assert_eq!(codec.decode(&old, &packed).unwrap(), new);
    }

    #[test]
    fn corrupt_delta_rejected() {
        let codec = DeltaCodec::new(4096);
        let old = vec![0u8; 4096];
        assert!(codec.decode(&old, &[1, 2, 3]).is_err());
    }

    #[test]
    fn delta_beats_full_dump_for_small_changes() {
        let codec = DeltaCodec::new(4096);
        // Structured old dump (compressible but nonzero).
        let old: Vec<u8> = (0..1 << 20).map(|i| (i / 4096) as u8).collect();
        let mut new = old.clone();
        for i in (0..new.len()).step_by(300_000) {
            new[i] ^= 0x5A;
        }
        let delta = codec.encode(&old, &new);
        let full = compress(&new);
        assert!(
            delta.len() * 4 < full.len(),
            "delta={} full={}",
            delta.len(),
            full.len()
        );
    }
}
