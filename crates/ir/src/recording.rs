//! The recording: a signed, self-contained log of CPU/GPU interactions.
//!
//! A recording holds everything the in-TEE replayer needs to reproduce the
//! workload's GPU computation (§2.3 "completeness"): the register writes in
//! program order, the reads (with observed values, verified when the
//! register is deterministic), polling waits, interrupt waits, and the
//! metastate memory deltas the cloud shipped at each §5 sync point. It also
//! names the input/weight/output slots so the replayer can inject new data
//! (§2.3 "independence of input").
//!
//! The byte format is hand-rolled and dependency-free on purpose: the
//! replayer's TCB should not pull in a serialization framework.

use grt_crypto::{KeyPair, Signature};
use grt_gpu::IrqLine;

/// One recorded CPU/GPU interaction.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A layer boundary (Figure 2's per-layer recording granularity).
    BeginLayer {
        /// Index into the workload's layer list.
        index: u32,
    },
    /// A register write to forward to the GPU.
    RegWrite {
        /// Register offset.
        offset: u32,
        /// Value written.
        value: u32,
    },
    /// A register read; `verify` is set for deterministic (probe-class)
    /// registers, where a mismatch at replay means the wrong SKU.
    RegRead {
        /// Register offset.
        offset: u32,
        /// Value observed at record time.
        value: u32,
        /// Whether the replayer must check the value.
        verify: bool,
    },
    /// A polling loop: replay until the condition holds (bounded).
    Poll {
        /// Register polled.
        reg: u32,
        /// Mask applied.
        mask: u32,
        /// Condition code (0 = zero, 1 = non-zero, 2 = equals `cmp`).
        cond: u8,
        /// Comparison value for `cond == 2`.
        cmp: u32,
        /// Iteration budget.
        max_iters: u32,
        /// Per-iteration delay in µs.
        delay_us: u32,
    },
    /// Wait for an interrupt on a line.
    WaitIrq {
        /// 0 = GPU, 1 = Job, 2 = MMU.
        line: u8,
    },
    /// Apply a metastate memory delta at a physical range.
    LoadMemDelta {
        /// Physical base of the region.
        pa: u64,
        /// Region length in bytes (delta decodes against current content).
        len: u32,
        /// Delta bytes (grt-compress `DeltaCodec` format).
        delta: Vec<u8>,
    },
}

/// Encodes an `IrqLine` for the wire.
pub fn irq_line_code(line: IrqLine) -> u8 {
    match line {
        IrqLine::Gpu => 0,
        IrqLine::Job => 1,
        IrqLine::Mmu => 2,
    }
}

/// Decodes an `IrqLine` from the wire.
pub fn irq_line_from(code: u8) -> Option<IrqLine> {
    match code {
        0 => Some(IrqLine::Gpu),
        1 => Some(IrqLine::Job),
        2 => Some(IrqLine::Mmu),
        _ => None,
    }
}

/// A data slot the replayer fills before replaying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataSlot {
    /// Physical address on the client.
    pub pa: u64,
    /// Length in f32 elements.
    pub len_elems: u32,
}

impl DataSlot {
    /// Byte length of the slot.
    pub fn bytes(&self) -> u64 {
        self.len_elems as u64 * 4
    }

    /// Half-open byte range `[pa, pa + bytes)`.
    pub fn range(&self) -> (u64, u64) {
        (self.pa, self.pa + self.bytes())
    }
}

/// A complete workload recording.
#[derive(Debug, Clone, PartialEq)]
pub struct Recording {
    /// Workload name.
    pub workload: String,
    /// GPU_ID of the SKU this was recorded against; replay on any other
    /// SKU is rejected.
    pub gpu_id: u32,
    /// Where to inject inference input.
    pub input: DataSlot,
    /// Where the output appears.
    pub output: DataSlot,
    /// Weight/bias slots in layer order (empty slots omitted).
    pub weights: Vec<DataSlot>,
    /// The interaction log.
    pub events: Vec<Event>,
}

const MAGIC: u32 = 0x4752_5431; // "GRT1"

impl Recording {
    /// Serializes to the dependency-free byte format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut b = Vec::new();
        put_u32(&mut b, MAGIC);
        put_str(&mut b, &self.workload);
        put_u32(&mut b, self.gpu_id);
        put_slot(&mut b, &self.input);
        put_slot(&mut b, &self.output);
        put_u32(&mut b, self.weights.len() as u32);
        for w in &self.weights {
            put_slot(&mut b, w);
        }
        put_u32(&mut b, self.events.len() as u32);
        for e in &self.events {
            match e {
                Event::BeginLayer { index } => {
                    b.push(0);
                    put_u32(&mut b, *index);
                }
                Event::RegWrite { offset, value } => {
                    b.push(1);
                    put_u32(&mut b, *offset);
                    put_u32(&mut b, *value);
                }
                Event::RegRead {
                    offset,
                    value,
                    verify,
                } => {
                    b.push(2);
                    put_u32(&mut b, *offset);
                    put_u32(&mut b, *value);
                    b.push(u8::from(*verify));
                }
                Event::Poll {
                    reg,
                    mask,
                    cond,
                    cmp,
                    max_iters,
                    delay_us,
                } => {
                    b.push(3);
                    put_u32(&mut b, *reg);
                    put_u32(&mut b, *mask);
                    b.push(*cond);
                    put_u32(&mut b, *cmp);
                    put_u32(&mut b, *max_iters);
                    put_u32(&mut b, *delay_us);
                }
                Event::WaitIrq { line } => {
                    b.push(4);
                    b.push(*line);
                }
                Event::LoadMemDelta { pa, len, delta } => {
                    b.push(5);
                    put_u64(&mut b, *pa);
                    put_u32(&mut b, *len);
                    put_u32(&mut b, delta.len() as u32);
                    b.extend_from_slice(delta);
                }
            }
        }
        b
    }

    /// Parses the byte format.
    pub fn from_bytes(bytes: &[u8]) -> Option<Recording> {
        let mut c = Reader { b: bytes, pos: 0 };
        if c.u32()? != MAGIC {
            return None;
        }
        let workload = c.string()?;
        let gpu_id = c.u32()?;
        let input = c.slot()?;
        let output = c.slot()?;
        let n_w = c.u32()? as usize;
        let mut weights = Vec::with_capacity(n_w.min(4096));
        for _ in 0..n_w {
            weights.push(c.slot()?);
        }
        let n_e = c.u32()? as usize;
        let mut events = Vec::with_capacity(n_e.min(1 << 20));
        for _ in 0..n_e {
            let tag = c.u8()?;
            events.push(match tag {
                0 => Event::BeginLayer { index: c.u32()? },
                1 => Event::RegWrite {
                    offset: c.u32()?,
                    value: c.u32()?,
                },
                2 => Event::RegRead {
                    offset: c.u32()?,
                    value: c.u32()?,
                    verify: c.u8()? != 0,
                },
                3 => Event::Poll {
                    reg: c.u32()?,
                    mask: c.u32()?,
                    cond: c.u8()?,
                    cmp: c.u32()?,
                    max_iters: c.u32()?,
                    delay_us: c.u32()?,
                },
                4 => Event::WaitIrq { line: c.u8()? },
                5 => {
                    let pa = c.u64()?;
                    let len = c.u32()?;
                    let dlen = c.u32()? as usize;
                    Event::LoadMemDelta {
                        pa,
                        len,
                        delta: c.bytes(dlen)?.to_vec(),
                    }
                }
                _ => return None,
            });
        }
        Some(Recording {
            workload,
            gpu_id,
            input,
            output,
            weights,
            events,
        })
    }
}

/// A recording plus the cloud's signature over its bytes (§3.2: "the
/// replayer only accepts recordings signed by the cloud").
#[derive(Debug, Clone)]
pub struct SignedRecording {
    /// Serialized recording.
    pub bytes: Vec<u8>,
    /// HMAC signature under the session's recording key.
    pub signature: Signature,
}

impl SignedRecording {
    /// Signs a recording.
    pub fn sign(recording: &Recording, key: &KeyPair) -> Self {
        let bytes = recording.to_bytes();
        let signature = key.sign(&bytes);
        SignedRecording { bytes, signature }
    }

    /// Verifies and parses; `None` on bad signature or malformed bytes.
    pub fn verify_and_parse(&self, key: &KeyPair) -> Option<Recording> {
        if !key.verify(&self.bytes, &self.signature) {
            return None;
        }
        Recording::from_bytes(&self.bytes)
    }

    /// Serializes to the GP `LOAD_RECORDING` wire form: `body ‖ signature`
    /// (what a normal-world client passes to the replay service).
    pub fn wire_blob(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.bytes.len() + 32);
        out.extend_from_slice(&self.bytes);
        out.extend_from_slice(self.signature.as_bytes());
        out
    }

    /// Serializes to the on-disk container: `magic ‖ signature ‖ body`.
    ///
    /// The signature covers the body, so tampering with a stored file is
    /// detected at [`SignedRecording::verify_and_parse`] time like any
    /// other recording.
    pub fn to_file_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + 32 + self.bytes.len());
        out.extend_from_slice(FILE_MAGIC);
        out.extend_from_slice(self.signature.as_bytes());
        out.extend_from_slice(&self.bytes);
        out
    }

    /// Parses the on-disk container (signature is *not* checked here —
    /// verification belongs to the TEE at load time).
    pub fn from_file_bytes(data: &[u8]) -> Option<SignedRecording> {
        if data.len() < 40 || &data[..8] != FILE_MAGIC {
            return None;
        }
        let mut raw = [0u8; 32];
        raw.copy_from_slice(&data[8..40]);
        Some(SignedRecording {
            bytes: data[40..].to_vec(),
            signature: Signature::from_bytes(raw),
        })
    }

    /// Writes the container to a file.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_file_bytes())
    }

    /// Reads a container from a file.
    pub fn load(path: &std::path::Path) -> std::io::Result<SignedRecording> {
        let data = std::fs::read(path)?;
        Self::from_file_bytes(&data).ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "not a GR-T recording file")
        })
    }
}

/// File-format magic for persisted recordings ("GRTREC01").
const FILE_MAGIC: &[u8; 8] = b"GRTREC01";

/// Incremental construction during a record run.
#[derive(Debug, Default)]
pub struct RecordingBuilder {
    events: Vec<Event>,
}

impl RecordingBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        RecordingBuilder::default()
    }

    /// Appends an event.
    pub fn push(&mut self, e: Event) {
        self.events.push(e);
    }

    /// Number of events so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Discards every event past `len` — checkpoint rollback: events
    /// recorded by a partially failed layer attempt must not reach the
    /// final recording.
    pub fn truncate(&mut self, len: usize) {
        self.events.truncate(len);
    }

    /// Finalizes into a [`Recording`].
    pub fn finish(
        self,
        workload: String,
        gpu_id: u32,
        input: DataSlot,
        output: DataSlot,
        weights: Vec<DataSlot>,
    ) -> Recording {
        Recording {
            workload,
            gpu_id,
            input,
            output,
            weights,
            events: self.events,
        }
    }
}

// --- byte codec helpers -------------------------------------------------

fn put_u32(b: &mut Vec<u8>, v: u32) {
    b.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(b: &mut Vec<u8>, v: u64) {
    b.extend_from_slice(&v.to_le_bytes());
}

fn put_str(b: &mut Vec<u8>, s: &str) {
    put_u32(b, s.len() as u32);
    b.extend_from_slice(s.as_bytes());
}

fn put_slot(b: &mut Vec<u8>, s: &DataSlot) {
    put_u64(b, s.pa);
    put_u32(b, s.len_elems);
}

struct Reader<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.b.len() {
            return None;
        }
        let s = &self.b[self.pos..end];
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        let s = self.bytes(4)?;
        Some(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn u64(&mut self) -> Option<u64> {
        let s = self.bytes(8)?;
        Some(u64::from_le_bytes([
            s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
        ]))
    }

    fn string(&mut self) -> Option<String> {
        let n = self.u32()? as usize;
        if n > 4096 {
            return None;
        }
        String::from_utf8(self.bytes(n)?.to_vec()).ok()
    }

    fn slot(&mut self) -> Option<DataSlot> {
        Some(DataSlot {
            pa: self.u64()?,
            len_elems: self.u32()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Recording {
        Recording {
            workload: "MNIST".into(),
            gpu_id: 0x6000_0011,
            input: DataSlot {
                pa: 0x1000,
                len_elems: 784,
            },
            output: DataSlot {
                pa: 0x2000,
                len_elems: 10,
            },
            weights: vec![
                DataSlot {
                    pa: 0x3000,
                    len_elems: 150,
                },
                DataSlot {
                    pa: 0x4000,
                    len_elems: 6,
                },
            ],
            events: vec![
                Event::BeginLayer { index: 0 },
                Event::RegWrite {
                    offset: 0x30,
                    value: 1,
                },
                Event::RegRead {
                    offset: 0x0,
                    value: 0x6000_0011,
                    verify: true,
                },
                Event::Poll {
                    reg: 0x20,
                    mask: 0x100,
                    cond: 1,
                    cmp: 0,
                    max_iters: 100,
                    delay_us: 10,
                },
                Event::WaitIrq { line: 1 },
                Event::LoadMemDelta {
                    pa: 0x10_0000,
                    len: 4096,
                    delta: vec![1, 2, 3, 4, 5],
                },
            ],
        }
    }

    #[test]
    fn slot_ranges() {
        let s = DataSlot {
            pa: 0x1000,
            len_elems: 8,
        };
        assert_eq!(s.bytes(), 32);
        assert_eq!(s.range(), (0x1000, 0x1020));
    }

    #[test]
    fn byte_format_round_trips() {
        let r = sample();
        let bytes = r.to_bytes();
        let back = Recording::from_bytes(&bytes).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn truncated_bytes_rejected() {
        let bytes = sample().to_bytes();
        for cut in [0usize, 3, 10, bytes.len() - 1] {
            assert!(Recording::from_bytes(&bytes[..cut]).is_none(), "cut={cut}");
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] ^= 0xFF;
        assert!(Recording::from_bytes(&bytes).is_none());
    }

    #[test]
    fn signing_round_trip() {
        let key = KeyPair::derive(b"secret", "recording");
        let signed = SignedRecording::sign(&sample(), &key);
        assert_eq!(signed.verify_and_parse(&key).unwrap(), sample());
    }

    #[test]
    fn tampered_recording_rejected() {
        let key = KeyPair::derive(b"secret", "recording");
        let mut signed = SignedRecording::sign(&sample(), &key);
        // Flip one event byte: the replayer must refuse it.
        let n = signed.bytes.len();
        signed.bytes[n - 3] ^= 1;
        assert!(signed.verify_and_parse(&key).is_none());
    }

    #[test]
    fn wrong_key_rejected() {
        let key = KeyPair::derive(b"secret", "recording");
        let evil = KeyPair::derive(b"evil", "recording");
        let signed = SignedRecording::sign(&sample(), &key);
        assert!(signed.verify_and_parse(&evil).is_none());
    }

    #[test]
    fn file_container_round_trips() {
        let key = KeyPair::derive(b"secret", "recording");
        let signed = SignedRecording::sign(&sample(), &key);
        let container = signed.to_file_bytes();
        let back = SignedRecording::from_file_bytes(&container).unwrap();
        assert_eq!(back.verify_and_parse(&key).unwrap(), sample());
    }

    #[test]
    fn file_container_rejects_garbage() {
        assert!(SignedRecording::from_file_bytes(b"short").is_none());
        assert!(SignedRecording::from_file_bytes(&[0u8; 64]).is_none());
        let mut ok =
            SignedRecording::sign(&sample(), &KeyPair::derive(b"k", "recording")).to_file_bytes();
        ok[0] ^= 1; // Break the magic.
        assert!(SignedRecording::from_file_bytes(&ok).is_none());
    }

    #[test]
    fn save_load_round_trips_on_disk() {
        let key = KeyPair::derive(b"secret", "recording");
        let signed = SignedRecording::sign(&sample(), &key);
        let dir = std::env::temp_dir().join("grt-recording-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mnist.grt");
        signed.save(&path).unwrap();
        let loaded = SignedRecording::load(&path).unwrap();
        assert_eq!(loaded.verify_and_parse(&key).unwrap(), sample());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn irq_codes_round_trip() {
        for line in [IrqLine::Gpu, IrqLine::Job, IrqLine::Mmu] {
            assert_eq!(irq_line_from(irq_line_code(line)), Some(line));
        }
        assert_eq!(irq_line_from(9), None);
    }

    #[test]
    fn builder_accumulates() {
        let mut b = RecordingBuilder::new();
        assert!(b.is_empty());
        b.push(Event::BeginLayer { index: 0 });
        b.push(Event::WaitIrq { line: 1 });
        assert_eq!(b.len(), 2);
        let r = b.finish(
            "X".into(),
            1,
            DataSlot {
                pa: 0,
                len_elems: 0,
            },
            DataSlot {
                pa: 0,
                len_elems: 0,
            },
            vec![],
        );
        assert_eq!(r.events.len(), 2);
    }
}
