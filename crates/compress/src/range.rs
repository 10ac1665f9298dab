//! An adaptive binary range coder (LZMA-style) with an order-1 byte model,
//! run over a zero-run RLE of the input.
//!
//! Wire format: `len (u32 LE) ‖ rle_len (u32 LE) ‖ payload`. `len` is the
//! input length and `rle_len` the number of symbols in its zero-run RLE:
//! a nonzero byte stands for itself, and `0x00` is followed by the run
//! length as an LEB128 varint. The payload range-codes those symbols
//! MSB-first through a 256-leaf bit tree chosen by the previous symbol
//! (order-1 context), with 11-bit probabilities that move 1/32 of the way
//! toward each coded bit.
//!
//! Each direction is one tight loop over the symbols:
//!
//! - [`range_compress`] walks `data` once, feeding literals and zero-run
//!   varints straight into the coder, and patches `rle_len` into the
//!   header at the end. No RLE buffer is built.
//! - [`range_decompress_limited`] keeps `code`, `range` and the input
//!   position in locals, and writes each decoded symbol's meaning straight
//!   into the output: literals are stored, runs skip ahead over the
//!   zero-filled output. A run or literal that would pass the stated
//!   length is refused as soon as it is decoded, with checked arithmetic.
//!
//! The bit step is branch-free in both directions: a mask built from the
//! bit (decoder: from `code >= bound`) selects the new `range`, the `code`
//! or `low` update and the probability update, and the decoder's
//! renormalization is a select too. The decoder reads both children's
//! probabilities before the bit is known and picks one with the mask, so
//! no table index waits on the bit (an optimizer may still fold the pick
//! back into one load from a selected address). The probabilities of one
//! context sit in one 256-entry array, so no index needs a bounds check.
//! Probabilities stay within `[31, 2017]`, so after any bit
//! `range >= 2^24 * 31 / 2048 > 2^16`, and a single byte shift
//! renormalizes it: the renormalization is one step, not a loop.
//!
//! The unit tests keep the original bit-at-a-time coder (a `RangeEncoder`
//! / `RangeDecoder` pair, a `ByteModel` and a separate RLE pass) as the one
//! oracle: the fast encoder must match it byte for byte, and on mutated
//! streams both decoders must return the same bytes or both refuse.

use crate::CorruptStream;

const TOP: u32 = 1 << 24;
const PROB_BITS: u32 = 11;
const PROB_INIT: u16 = (1 << PROB_BITS) / 2;
const MOVE_BITS: u32 = 5;

/// One 256-entry bit tree (indices `1..256`) per order-1 context byte.
type Model = Box<[[u16; 256]; 256]>;

fn new_model() -> Model {
    vec![[PROB_INIT; 256]; 256]
        .into_boxed_slice()
        .try_into()
        .expect("256 contexts")
}

/// The probability after coding a bit with probability `p`: toward
/// `2^PROB_BITS` after a 0, toward 0 after a 1. `mask` is all ones for a
/// 1 bit and zero for a 0 bit.
#[inline(always)]
fn adapt(p: u32, mask: u32) -> u16 {
    // Moving toward 31 with an arithmetic shift subtracts exactly
    // `p >> MOVE_BITS` for every `p >= 0`.
    let target = (1 << PROB_BITS) - (mask & ((1 << PROB_BITS) - 31));
    (p as i32 + ((target as i32 - p as i32) >> MOVE_BITS)) as u16
}

/// Encoder state: the LZMA `low`/`range` pair plus the carry cache.
struct Encoder {
    low: u64,
    range: u32,
    cache: u8,
    cache_size: u64,
    out: Vec<u8>,
}

impl Encoder {
    fn shift_low(&mut self) {
        if self.low < 0xFF00_0000 || self.low > 0xFFFF_FFFF {
            let carry = (self.low >> 32) as u8;
            self.out.push(self.cache.wrapping_add(carry));
            for _ in 1..self.cache_size {
                self.out.push(0xFFu8.wrapping_add(carry));
            }
            self.cache_size = 0;
            self.cache = (self.low >> 24) as u8;
        }
        self.cache_size += 1;
        self.low = (self.low << 8) & 0xFFFF_FFFF;
    }

    /// Codes `byte` MSB-first through the bit tree `tree`.
    #[inline(always)]
    fn encode_byte(&mut self, tree: &mut [u16; 256], byte: u8) {
        let mut node = 1usize;
        for i in (0..8).rev() {
            let bit = u32::from(byte >> i) & 1;
            let mask = bit.wrapping_neg();
            let p = u32::from(tree[node & 0xFF]);
            let bound = (self.range >> PROB_BITS) * p;
            tree[node & 0xFF] = adapt(p, mask);
            self.low += u64::from(bound & mask);
            self.range = (bound & !mask) | ((self.range - bound) & mask);
            if self.range < TOP {
                self.range <<= 8;
                self.shift_low();
            }
            node = (node << 1) | bit as usize;
        }
    }
}

/// Compresses `data`: `len (u32 LE) ‖ rle_len (u32 LE) ‖ range-coded RLE0 payload`.
pub fn range_compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 4 + 16);
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    out.extend_from_slice(&[0; 4]); // rle_len, patched below.
    let mut enc = Encoder {
        low: 0,
        range: u32::MAX,
        cache: 0,
        cache_size: 1,
        out,
    };
    let mut model = new_model();
    let mut ctx = 0u8;
    let mut rle_len = 0usize;
    let mut emit = |b: u8| {
        enc.encode_byte(&mut model[ctx as usize], b);
        ctx = b;
        rle_len += 1;
    };
    let mut i = 0;
    while i < data.len() {
        if data[i] != 0 {
            emit(data[i]);
            i += 1;
            continue;
        }
        let zeros = data[i..].iter().position(|&b| b != 0);
        let mut run = zeros.unwrap_or(data.len() - i);
        i += run;
        emit(0);
        // LEB128 varint.
        loop {
            let low7 = (run & 0x7F) as u8;
            run >>= 7;
            emit(if run != 0 { low7 | 0x80 } else { low7 });
            if run == 0 {
                break;
            }
        }
    }
    for _ in 0..5 {
        enc.shift_low();
    }
    let mut out = enc.out;
    out[4..8].copy_from_slice(&(rle_len as u32).to_le_bytes());
    // Recordings keep these bytes for their lifetime: drop the slack.
    out.shrink_to_fit();
    out
}

/// Decompresses a [`range_compress`]-produced buffer.
pub fn range_decompress(packed: &[u8]) -> Result<Vec<u8>, CorruptStream> {
    range_decompress_limited(packed, usize::MAX)
}

/// Decompresses with a hard bound on the stated output and RLE sizes.
pub fn range_decompress_limited(packed: &[u8], max_len: usize) -> Result<Vec<u8>, CorruptStream> {
    if packed.len() < 8 {
        return Err(CorruptStream);
    }
    let len = u32::from_le_bytes([packed[0], packed[1], packed[2], packed[3]]) as usize;
    let rle_len = u32::from_le_bytes([packed[4], packed[5], packed[6], packed[7]]) as usize;
    if len > max_len || rle_len > max_len.saturating_mul(2).saturating_add(64) {
        return Err(CorruptStream);
    }
    let input = &packed[8..];
    if input.is_empty() {
        return Err(CorruptStream);
    }
    // Past the end the stream reads as zeros; the encoder's first byte is
    // always zero (cache priming) and is skipped.
    let byte_at = |pos: usize| u32::from(input.get(pos).copied().unwrap_or(0));
    let mut code = (1..5).fold(0u32, |c, pos| (c << 8) | byte_at(pos));
    let mut range = u32::MAX;
    let mut pos = 5usize;

    let mut model = new_model();
    let mut out = vec![0u8; len];
    let mut at = 0usize;
    let mut ctx = 0u8;
    // `Some((run, shift))` while inside a zero run's varint.
    let mut varint: Option<(u64, u32)> = None;
    for _ in 0..rle_len {
        let tree = &mut model[ctx as usize];
        let mut node = 1usize;
        let mut p = u32::from(tree[1]);
        for _ in 0..8 {
            // Both children's probabilities, read before the bit is known.
            // On the last bit these indices wrap inside the tree and the
            // values go unused.
            let child = (node << 1) & 0xFF;
            let (p0, p1) = (u32::from(tree[child]), u32::from(tree[child | 1]));
            let bound = (range >> PROB_BITS) * p;
            let mask = u32::from(code >= bound).wrapping_neg();
            tree[node & 0xFF] = adapt(p, mask);
            range = (bound & !mask) | ((range - bound) & mask);
            code -= bound & mask;
            node = (node << 1) | (mask & 1) as usize;
            p = (p0 & !mask) | (p1 & mask);
            let norm = range < TOP;
            let next = byte_at(pos);
            range = if norm { range << 8 } else { range };
            code = if norm { (code << 8) | next } else { code };
            pos += usize::from(norm);
        }
        let b = node as u8;
        ctx = b;
        match varint {
            Some((run, shift)) => {
                let run = run | (u64::from(b & 0x7F) << shift);
                if b & 0x80 == 0 {
                    at = usize::try_from(run)
                        .ok()
                        .and_then(|n| at.checked_add(n))
                        .filter(|&end| end <= len)
                        .ok_or(CorruptStream)?;
                    varint = None;
                } else if shift + 7 > 63 {
                    return Err(CorruptStream);
                } else {
                    varint = Some((run, shift + 7));
                }
            }
            None if b == 0 => varint = Some((0, 0)),
            None => {
                *out.get_mut(at).ok_or(CorruptStream)? = b;
                at += 1;
            }
        }
    }
    if varint.is_some() || at != len {
        return Err(CorruptStream);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) -> usize {
        let packed = range_compress(data);
        assert_eq!(range_decompress(&packed).unwrap(), data);
        packed.len()
    }

    #[test]
    fn empty_input() {
        assert!(round_trip(&[]) <= 16);
    }

    #[test]
    fn single_byte() {
        round_trip(&[0x42]);
    }

    #[test]
    fn zeros_compress_massively() {
        let data = vec![0u8; 65536];
        let size = round_trip(&data);
        assert!(size < 200, "65536 zeros compressed to {size} bytes");
    }

    #[test]
    fn repetitive_patterns_compress() {
        let data: Vec<u8> = (0..16384)
            .map(|i| [0xDE, 0xAD, 0xBE, 0xEF][i % 4])
            .collect();
        let size = round_trip(&data);
        assert!(size < data.len() / 10, "size={size}");
    }

    #[test]
    fn random_data_round_trips() {
        // xorshift noise: incompressible but must still round-trip.
        let data = xorshift_bytes(0x12345678, 10000);
        let size = round_trip(&data);
        // Incompressible data should not blow up by more than a few percent.
        assert!(size < data.len() + data.len() / 10 + 16, "size={size}");
    }

    #[test]
    fn all_byte_values_round_trip() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        round_trip(&data);
    }

    #[test]
    fn adapt_matches_the_two_sided_update() {
        for p in 0..=(1u32 << PROB_BITS) {
            let up = p + (((1 << PROB_BITS) - p) >> MOVE_BITS);
            let down = p - (p >> MOVE_BITS);
            assert_eq!(u32::from(adapt(p, 0)), up, "p={p} bit 0");
            assert_eq!(u32::from(adapt(p, u32::MAX)), down, "p={p} bit 1");
        }
    }

    #[test]
    fn truncated_header_rejected() {
        assert_eq!(range_decompress(&[1, 2]), Err(CorruptStream));
    }

    #[test]
    fn sparse_dump_shape() {
        let size = round_trip(&sparse_dump(1 << 20));
        assert!(size < 16 * 1024, "1MiB sparse dump -> {size} bytes");
    }

    /// A dump shaped like sparsified GPU memory: mostly zeros with
    /// scattered metastate words.
    fn sparse_dump(len: usize) -> Vec<u8> {
        let mut data = vec![0u8; len];
        for i in (0..len).step_by(4096) {
            data[i] = 0x7F;
            data[i + 1] = (i >> 12) as u8;
        }
        data
    }

    fn xorshift_bytes(mut x: u64, len: usize) -> Vec<u8> {
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    /// Range-codes an RLE symbol stream as it stands with the oracle
    /// coder, under a header stating an output of `len` bytes.
    fn oracle_stream(len: u32, rle: &[u8]) -> Vec<u8> {
        let mut enc = oracle::RangeEncoder::new();
        let mut model = oracle::ByteModel::new();
        let mut ctx = 0u8;
        for &b in rle {
            model.encode(&mut enc, ctx, b);
            ctx = b;
        }
        let mut out = len.to_le_bytes().to_vec();
        out.extend_from_slice(&(rle.len() as u32).to_le_bytes());
        out.extend_from_slice(&enc.finish());
        out
    }

    #[test]
    fn rle_runs_past_the_stated_length_are_refused() {
        // Literal 5, then a zero run whose 10-byte varint states 2^64 - 1,
        // then literal 7. `1 + run` wraps to 0: a decoder that adds without
        // checking either panics or truncates the output back to empty and
        // accepts `[7]`.
        let mut overflow = vec![0x05, 0x00];
        overflow.extend_from_slice(&[0xFF; 9]);
        overflow.extend_from_slice(&[0x01, 0x07]);
        for (len, rle) in [
            (1, overflow),
            (3, vec![0x00, 0x04]),
            (2, vec![0x01, 0x00, 0x02]),
            (1, vec![0x01, 0x02]),
            (1, vec![0x01, 0x00]),
            (0, vec![0x00, 0x80]),
        ] {
            let packed = oracle_stream(len, &rle);
            assert_eq!(range_decompress(&packed), Err(CorruptStream), "{rle:?}");
        }
        // An empty run after the output is full is not canonical, but it
        // states nothing past the end, so it is accepted as it always was.
        let packed = oracle_stream(1, &[0x09, 0x00, 0x00]);
        assert_eq!(range_decompress(&packed), Ok(vec![9]));
    }

    /// The differential corpus: every shape the fast coder special-cases.
    fn corpus() -> Vec<Vec<u8>> {
        let mut c: Vec<Vec<u8>> = vec![Vec::new()];
        c.extend((0..=255u8).map(|b| vec![b]));
        c.extend([1, 2, 4096, 70_000].map(|n| vec![0u8; n]));
        // Zero runs where the varint changes width (1 -> 2 and 2 -> 3
        // bytes), alone and between literals.
        for n in [127, 128, 16383, 16384] {
            c.push(vec![0u8; n]);
            let mut framed = vec![0xA5];
            framed.extend(std::iter::repeat_n(0u8, n));
            framed.push(0x5A);
            c.push(framed);
        }
        c.push(xorshift_bytes(0x9E37_79B9_7F4A_7C15, 4096));
        c.push(xorshift_bytes(42, 777));
        c.push(sparse_dump(64 * 1024));
        // Noise interleaved with zero runs of every varint width.
        let mut mixed = Vec::new();
        for (i, chunk) in xorshift_bytes(7, 2048).chunks(97).enumerate() {
            mixed.extend_from_slice(chunk);
            mixed.extend(std::iter::repeat_n(0u8, (i * 977) % 20_000));
        }
        c.push(mixed);
        c
    }

    #[test]
    fn encoder_matches_oracle_byte_for_byte() {
        for data in corpus() {
            let fast = range_compress(&data);
            assert_eq!(fast, oracle::compress(&data), "len {}", data.len());
            assert_eq!(range_decompress(&fast).as_deref(), Ok(&data[..]));
        }
    }

    /// Asserts both decoders agree on `packed` under `max_len`.
    fn assert_decoders_agree(packed: &[u8], max_len: usize, what: &str) {
        assert_eq!(
            range_decompress_limited(packed, max_len),
            oracle::decompress_limited(packed, max_len),
            "{what}"
        );
    }

    #[test]
    fn decoder_matches_oracle_on_mutants() {
        let mut x = 0x0DDB_1A5E_5BAD_5EEDu64;
        let mut next = move |n: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % n as u64) as usize
        };
        for data in corpus() {
            let packed = range_compress(&data);
            let max_len = data.len() + 64;
            assert_decoders_agree(&packed, max_len, "intact");
            for _ in 0..24 {
                let mut m = packed.clone();
                let i = next(m.len());
                m[i] ^= 1 << next(8);
                assert_decoders_agree(&m, max_len, &format!("bit flip at {i}"));
            }
            let cuts = [0, 1, 7, 8, 9, 12, packed.len() / 2, packed.len() - 1];
            for cut in cuts.into_iter().filter(|&c| c < packed.len()) {
                assert_decoders_agree(&packed[..cut], max_len, &format!("cut to {cut}"));
            }
            let len = u32::from_le_bytes(packed[0..4].try_into().unwrap());
            let rle_len = u32::from_le_bytes(packed[4..8].try_into().unwrap());
            let edits = [
                (len.wrapping_sub(1), rle_len),
                (len + 1, rle_len),
                (0, rle_len),
                (len, rle_len.wrapping_sub(1)),
                (len, rle_len + 1),
                (len, rle_len + 9),
                (len, 0),
                (len + 1, rle_len + 1),
            ];
            for (l, r) in edits {
                let mut m = packed.clone();
                m[0..4].copy_from_slice(&l.to_le_bytes());
                m[4..8].copy_from_slice(&r.to_le_bytes());
                assert_decoders_agree(&m, max_len, &format!("header {l}/{r}"));
            }
        }
    }
}

/// The original bit-at-a-time coder, kept unchanged as the fast coder's
/// oracle.
#[cfg(test)]
mod oracle {
    use super::{MOVE_BITS, PROB_BITS, PROB_INIT, TOP};
    use crate::CorruptStream;

    /// A carry-aware binary range encoder.
    ///
    /// Bits are encoded against adaptive probabilities supplied by the caller;
    /// the probability adapts toward the observed bit after each encode, which
    /// is what makes zero-runs in sparsified GPU memory dumps nearly free.
    #[derive(Debug)]
    pub struct RangeEncoder {
        low: u64,
        range: u32,
        cache: u8,
        cache_size: u64,
        out: Vec<u8>,
    }

    impl Default for RangeEncoder {
        fn default() -> Self {
            Self::new()
        }
    }

    impl RangeEncoder {
        /// Creates an encoder with an empty output buffer.
        pub fn new() -> Self {
            RangeEncoder {
                low: 0,
                range: u32::MAX,
                cache: 0,
                cache_size: 1,
                out: Vec::new(),
            }
        }

        fn shift_low(&mut self) {
            if self.low < 0xFF00_0000 || self.low > 0xFFFF_FFFF {
                let carry = (self.low >> 32) as u8;
                let mut first = true;
                while self.cache_size > 0 {
                    let byte = if first {
                        first = false;
                        self.cache.wrapping_add(carry)
                    } else {
                        0xFFu8.wrapping_add(carry)
                    };
                    self.out.push(byte);
                    self.cache_size -= 1;
                }
                self.cache = ((self.low >> 24) & 0xFF) as u8;
            }
            self.cache_size += 1;
            self.low = (self.low << 8) & 0xFFFF_FFFF;
        }

        /// Encodes one `bit` against the adaptive probability `prob`.
        pub fn encode_bit(&mut self, prob: &mut u16, bit: bool) {
            let bound = (self.range >> PROB_BITS) * (*prob as u32);
            if !bit {
                self.range = bound;
                *prob += ((1 << PROB_BITS) - *prob) >> MOVE_BITS;
            } else {
                self.low += bound as u64;
                self.range -= bound;
                *prob -= *prob >> MOVE_BITS;
            }
            while self.range < TOP {
                self.range <<= 8;
                self.shift_low();
            }
        }

        /// Flushes the arithmetic state and returns the encoded bytes.
        pub fn finish(mut self) -> Vec<u8> {
            for _ in 0..5 {
                self.shift_low();
            }
            self.out
        }
    }

    /// The matching binary range decoder.
    #[derive(Debug)]
    pub struct RangeDecoder<'a> {
        code: u32,
        range: u32,
        input: &'a [u8],
        pos: usize,
    }

    impl<'a> RangeDecoder<'a> {
        /// Creates a decoder over an encoder-produced byte stream.
        pub fn new(input: &'a [u8]) -> Result<Self, CorruptStream> {
            if input.is_empty() {
                return Err(CorruptStream);
            }
            let mut d = RangeDecoder {
                code: 0,
                range: u32::MAX,
                input,
                pos: 1, // The first byte is always zero (encoder cache priming).
            };
            for _ in 0..4 {
                d.code = (d.code << 8) | d.next_byte() as u32;
            }
            Ok(d)
        }

        fn next_byte(&mut self) -> u8 {
            let b = self.input.get(self.pos).copied().unwrap_or(0);
            self.pos += 1;
            b
        }

        /// Decodes one bit against the adaptive probability `prob`.
        pub fn decode_bit(&mut self, prob: &mut u16) -> bool {
            let bound = (self.range >> PROB_BITS) * (*prob as u32);
            let bit = if self.code < bound {
                self.range = bound;
                *prob += ((1 << PROB_BITS) - *prob) >> MOVE_BITS;
                false
            } else {
                self.code -= bound;
                self.range -= bound;
                *prob -= *prob >> MOVE_BITS;
                true
            };
            while self.range < TOP {
                self.range <<= 8;
                self.code = (self.code << 8) | self.next_byte() as u32;
            }
            bit
        }
    }

    /// Order-1 adaptive byte model: a 256-leaf bit tree per 1-byte context.
    pub struct ByteModel {
        // probs[ctx][tree_index]; tree indices 1..256.
        probs: Vec<u16>,
    }

    impl ByteModel {
        pub fn new() -> Self {
            ByteModel {
                probs: vec![PROB_INIT; 256 * 256],
            }
        }

        pub fn encode(&mut self, enc: &mut RangeEncoder, ctx: u8, byte: u8) {
            let base = (ctx as usize) * 256;
            let mut node = 1usize;
            for i in (0..8).rev() {
                let bit = (byte >> i) & 1 == 1;
                enc.encode_bit(&mut self.probs[base + node], bit);
                node = (node << 1) | bit as usize;
            }
        }

        fn decode(&mut self, dec: &mut RangeDecoder<'_>, ctx: u8) -> u8 {
            let base = (ctx as usize) * 256;
            let mut node = 1usize;
            for _ in 0..8 {
                let bit = dec.decode_bit(&mut self.probs[base + node]);
                node = (node << 1) | bit as usize;
            }
            (node & 0xFF) as u8
        }
    }

    /// Run-length encodes zero runs: `0x00` is followed by a varint run length.
    ///
    /// Sparsified GPU memory dumps (§5 zero-fills program data) are dominated by
    /// zero runs; collapsing them before entropy coding both shrinks the output
    /// past the coder's adaptation floor and speeds up both directions.
    fn rle0_encode(data: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len() / 4 + 16);
        let mut i = 0;
        while i < data.len() {
            let b = data[i];
            if b == 0 {
                let start = i;
                while i < data.len() && data[i] == 0 {
                    i += 1;
                }
                let mut run = (i - start) as u64;
                out.push(0);
                // LEB128 varint.
                loop {
                    let mut byte = (run & 0x7F) as u8;
                    run >>= 7;
                    if run != 0 {
                        byte |= 0x80;
                    }
                    out.push(byte);
                    if run == 0 {
                        break;
                    }
                }
            } else {
                out.push(b);
                i += 1;
            }
        }
        out
    }

    fn rle0_decode(data: &[u8], expected_len: usize) -> Result<Vec<u8>, CorruptStream> {
        let mut out = Vec::with_capacity(expected_len);
        let mut i = 0;
        while i < data.len() {
            let b = data[i];
            i += 1;
            if b == 0 {
                let mut run = 0u64;
                let mut shift = 0u32;
                loop {
                    let byte = *data.get(i).ok_or(CorruptStream)?;
                    i += 1;
                    run |= ((byte & 0x7F) as u64) << shift;
                    shift += 7;
                    if byte & 0x80 == 0 {
                        break;
                    }
                    if shift > 63 {
                        return Err(CorruptStream);
                    }
                }
                if out.len() + run as usize > expected_len {
                    return Err(CorruptStream);
                }
                out.resize(out.len() + run as usize, 0);
            } else {
                out.push(b);
            }
        }
        if out.len() != expected_len {
            return Err(CorruptStream);
        }
        Ok(out)
    }

    /// The original `range_compress`.
    pub fn compress(data: &[u8]) -> Vec<u8> {
        let rle = rle0_encode(data);
        let mut enc = RangeEncoder::new();
        let mut model = ByteModel::new();
        let mut ctx = 0u8;
        for &b in &rle {
            model.encode(&mut enc, ctx, b);
            ctx = b;
        }
        let payload = enc.finish();
        let mut out = Vec::with_capacity(8 + payload.len());
        out.extend_from_slice(&(data.len() as u32).to_le_bytes());
        out.extend_from_slice(&(rle.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// The original `range_decompress_limited`.
    pub fn decompress_limited(packed: &[u8], max_len: usize) -> Result<Vec<u8>, CorruptStream> {
        if packed.len() < 8 {
            return Err(CorruptStream);
        }
        let len = u32::from_le_bytes([packed[0], packed[1], packed[2], packed[3]]) as usize;
        let rle_len = u32::from_le_bytes([packed[4], packed[5], packed[6], packed[7]]) as usize;
        if len > max_len || rle_len > max_len.saturating_mul(2).saturating_add(64) {
            return Err(CorruptStream);
        }
        let mut dec = RangeDecoder::new(&packed[8..])?;
        let mut model = ByteModel::new();
        let mut rle = Vec::with_capacity(rle_len);
        let mut ctx = 0u8;
        for _ in 0..rle_len {
            let b = model.decode(&mut dec, ctx);
            rle.push(b);
            ctx = b;
        }
        rle0_decode(&rle, len)
    }
}
