//! The CPU/GPU shared memory model.
//!
//! Mobile GPUs share DRAM with the CPU (§2.1). [`Memory`] is one party's
//! physical view of that memory: the cloud VM has one instance (the GPU
//! stack's local memory) and the client has another (the real DRAM the GPU
//! reads); GR-T's memory synchronization keeps them consistent at the §5
//! sync points.
//!
//! Each page carries accessibility flags used for the paper's *continuous
//! validation*: after the cloud ships its dump, the dumped pages are
//! unmapped from the CPU, and any spurious access traps; symmetrically the
//! client unmaps the GPU's view while the GPU is idle.

use std::fmt;

/// The page size used throughout the model (matches the Mali's 4 KiB).
pub const PAGE_SIZE: usize = 4096;

/// Cap on distinct (non-mergeable) entries in the CPU-write log before it
/// degrades to the conservative overflow flag. CPU writes between GPU jobs
/// are region-shaped (input staging, delta restores), so the merged log
/// stays tiny in practice.
const CPU_WRITE_LOG_CAP: usize = 64;

/// Per-page accessibility flags for continuous validation (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PageFlags {
    /// The CPU (GPU stack) side may not touch this page right now.
    pub cpu_unmapped: bool,
    /// The GPU side may not touch this page right now.
    pub gpu_unmapped: bool,
}

/// Which party is performing an access (selects which trap flag applies).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Accessor {
    /// The CPU-side GPU stack (driver/runtime).
    Cpu,
    /// The GPU hardware (MMU walks, shader loads/stores).
    Gpu,
}

/// A memory access failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemFault {
    /// Physical address out of range.
    OutOfBounds {
        /// The faulting physical address.
        pa: u64,
    },
    /// Access hit a page unmapped for this accessor (continuous-validation
    /// trap, §5).
    Trapped {
        /// The faulting physical address.
        pa: u64,
        /// Who tripped the trap.
        accessor: Accessor,
    },
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemFault::OutOfBounds { pa } => write!(f, "physical access out of bounds: {pa:#x}"),
            MemFault::Trapped { pa, accessor } => {
                write!(f, "spurious {accessor:?} access trapped at {pa:#x}")
            }
        }
    }
}

impl std::error::Error for MemFault {}

/// A flat physical memory with page-grained trap flags.
///
/// # Examples
///
/// ```
/// use grt_gpu::mem::{Accessor, Memory};
///
/// let mut mem = Memory::new(64 * 1024);
/// mem.write_u32(0x100, 0xDEADBEEF, Accessor::Cpu).unwrap();
/// assert_eq!(mem.read_u32(0x100, Accessor::Gpu).unwrap(), 0xDEADBEEF);
/// ```
pub struct Memory {
    bytes: Vec<u8>,
    flags: Vec<PageFlags>,
    /// Page ranges `[start, end)` (byte offsets, page-aligned) written by
    /// the CPU since the GPU last drained the log
    /// ([`Memory::take_cpu_writes`]). The GPU reconciles these against its
    /// software TLB at descriptor boundaries: a CPU write that landed on a
    /// walked table page flushes, anything else (input staging, delta
    /// application to data pages) leaves cached translations alone.
    /// Adjacent writes merge in place; GPU-side stores are covered
    /// separately by `Tlb::note_store`.
    cpu_writes: Vec<(u64, u64)>,
    /// Set when the log hit its cap (or the memory was wiped): the GPU
    /// must treat the whole address space as potentially rewritten.
    cpu_writes_overflowed: bool,
    /// One bit per page, set by any mutation since the last
    /// [`Memory::clear_dirty`] on that page. Lets the memsync layer skip
    /// dumping and comparing regions nothing wrote to.
    dirty: Vec<u64>,
    /// One bit per page, set by any mutation and cleared only by
    /// [`Memory::wipe`]. Invariant: an untouched page is all zero, so
    /// `wipe` and `clone` only visit the pages a replay actually wrote —
    /// a few MiB of a 96 MiB carveout for a zoo network.
    touched: Vec<u64>,
}

/// Byte ranges `[start, end)` of the maximal runs of set bits in a page
/// bitmap of `pages` pages, in address order.
fn page_runs(bits: &[u64], pages: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
    let is_set = |p: usize| bits[p / 64] & (1u64 << (p % 64)) != 0;
    let mut page = 0;
    std::iter::from_fn(move || {
        while page < pages && !is_set(page) {
            // Skip whole empty words: most of a carveout is untouched.
            page = if bits[page / 64] == 0 {
                (page / 64 + 1) * 64
            } else {
                page + 1
            };
        }
        if page >= pages {
            return None;
        }
        let first = page;
        while page < pages && is_set(page) {
            page += 1;
        }
        Some((first * PAGE_SIZE, page * PAGE_SIZE))
    })
}

impl Clone for Memory {
    /// Copies only the touched pages into a lazily zeroed buffer; the
    /// untouched rest is zero on both sides by the `touched` invariant.
    fn clone(&self) -> Self {
        let mut bytes = vec![0; self.bytes.len()];
        for (start, end) in page_runs(&self.touched, self.flags.len()) {
            bytes[start..end].copy_from_slice(&self.bytes[start..end]);
        }
        Memory {
            bytes,
            flags: self.flags.clone(),
            cpu_writes: self.cpu_writes.clone(),
            cpu_writes_overflowed: self.cpu_writes_overflowed,
            dirty: self.dirty.clone(),
            touched: self.touched.clone(),
        }
    }
}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Memory")
            .field("size", &self.bytes.len())
            .finish()
    }
}

impl Memory {
    /// Creates a zeroed memory of `size` bytes (rounded up to a page).
    pub fn new(size: usize) -> Self {
        let size = size.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        let pages = size / PAGE_SIZE;
        Memory {
            bytes: vec![0; size],
            flags: vec![PageFlags::default(); pages],
            cpu_writes: Vec::new(),
            cpu_writes_overflowed: false,
            dirty: vec![0; pages.div_ceil(64)],
            touched: vec![0; pages.div_ceil(64)],
        }
    }

    /// Appends `[start, end)` to the CPU-write log (page-rounded), merging
    /// with the previous entry when they touch. Past the cap the log
    /// degrades to the overflow flag — the conservative "flush everything"
    /// signal — so it can never grow without bound between drains.
    fn log_cpu_write(&mut self, start: usize, end: usize) {
        if end <= start || self.cpu_writes_overflowed {
            return;
        }
        let s = (start / PAGE_SIZE * PAGE_SIZE) as u64;
        let e = (end.div_ceil(PAGE_SIZE) * PAGE_SIZE) as u64;
        if let Some(last) = self.cpu_writes.last_mut() {
            if s <= last.1 && e >= last.0 {
                last.0 = last.0.min(s);
                last.1 = last.1.max(e);
                return;
            }
        }
        if self.cpu_writes.len() >= CPU_WRITE_LOG_CAP {
            self.cpu_writes.clear();
            self.cpu_writes_overflowed = true;
            return;
        }
        self.cpu_writes.push((s, e));
    }

    /// Drains the CPU-write log: every page range the CPU has written
    /// since the previous drain, plus whether the log overflowed (treat as
    /// "anything may have been written"). The GPU calls this at descriptor
    /// boundaries and feeds the ranges to `Tlb::note_store`, so cached
    /// translations survive CPU writes that never touched a walked table
    /// page — the common case between warm-replay jobs.
    pub fn take_cpu_writes(&mut self) -> (Vec<(u64, u64)>, bool) {
        let overflowed = self.cpu_writes_overflowed;
        self.cpu_writes_overflowed = false;
        (std::mem::take(&mut self.cpu_writes), overflowed)
    }

    /// Marks the pages overlapping `[start, end)` (byte offsets) dirty and
    /// touched. Every byte mutator calls this, which is what keeps the
    /// "untouched ⇒ all zero" invariant behind [`Memory::wipe`].
    fn mark_dirty(&mut self, start: usize, end: usize) {
        if end <= start {
            return;
        }
        let first = start / PAGE_SIZE;
        let last = ((end - 1) / PAGE_SIZE).min(self.flags.len().saturating_sub(1));
        for page in first..=last {
            self.dirty[page / 64] |= 1u64 << (page % 64);
            self.touched[page / 64] |= 1u64 << (page % 64);
        }
    }

    /// Total size in bytes.
    pub fn size(&self) -> usize {
        self.bytes.len()
    }

    /// Number of pages.
    pub fn num_pages(&self) -> usize {
        self.flags.len()
    }

    fn check(&self, pa: u64, len: usize, accessor: Accessor) -> Result<usize, MemFault> {
        let start = pa as usize;
        let end = start.checked_add(len).ok_or(MemFault::OutOfBounds { pa })?;
        if end > self.bytes.len() {
            return Err(MemFault::OutOfBounds { pa });
        }
        let first_page = start / PAGE_SIZE;
        let last_page = (end - 1) / PAGE_SIZE;
        for page in first_page..=last_page {
            let f = self.flags[page];
            let trapped = match accessor {
                Accessor::Cpu => f.cpu_unmapped,
                Accessor::Gpu => f.gpu_unmapped,
            };
            if trapped {
                return Err(MemFault::Trapped {
                    pa: (page * PAGE_SIZE) as u64,
                    accessor,
                });
            }
        }
        Ok(start)
    }

    /// Reads `buf.len()` bytes at `pa`.
    pub fn read(&self, pa: u64, buf: &mut [u8], accessor: Accessor) -> Result<(), MemFault> {
        let start = self.check(pa, buf.len(), accessor)?;
        buf.copy_from_slice(&self.bytes[start..start + buf.len()]);
        Ok(())
    }

    /// Writes `buf` at `pa`.
    pub fn write(&mut self, pa: u64, buf: &[u8], accessor: Accessor) -> Result<(), MemFault> {
        let start = self.check(pa, buf.len(), accessor)?;
        self.bytes[start..start + buf.len()].copy_from_slice(buf);
        self.mark_dirty(start, start + buf.len());
        if matches!(accessor, Accessor::Cpu) {
            self.log_cpu_write(start, start + buf.len());
        }
        Ok(())
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&self, pa: u64, accessor: Accessor) -> Result<u32, MemFault> {
        let mut b = [0u8; 4];
        self.read(pa, &mut b, accessor)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, pa: u64, v: u32, accessor: Accessor) -> Result<(), MemFault> {
        self.write(pa, &v.to_le_bytes(), accessor)
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&self, pa: u64, accessor: Accessor) -> Result<u64, MemFault> {
        let mut b = [0u8; 8];
        self.read(pa, &mut b, accessor)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, pa: u64, v: u64, accessor: Accessor) -> Result<(), MemFault> {
        self.write(pa, &v.to_le_bytes(), accessor)
    }

    /// Reads a little-endian `f32`.
    pub fn read_f32(&self, pa: u64, accessor: Accessor) -> Result<f32, MemFault> {
        Ok(f32::from_bits(self.read_u32(pa, accessor)?))
    }

    /// Writes a little-endian `f32`.
    pub fn write_f32(&mut self, pa: u64, v: f32, accessor: Accessor) -> Result<(), MemFault> {
        self.write_u32(pa, v.to_bits(), accessor)
    }

    /// Reads `out.len()` little-endian `f32`s starting at `pa` in one
    /// trap-checked pass — the bulk half of the page-run fast path. One
    /// permission check covers the whole range instead of one per element.
    pub fn read_bulk(&self, pa: u64, out: &mut [f32], accessor: Accessor) -> Result<(), MemFault> {
        let len = out.len() * 4;
        let start = self.check(pa, len, accessor)?;
        for (v, b) in out
            .iter_mut()
            .zip(self.bytes[start..start + len].chunks_exact(4))
        {
            *v = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        }
        Ok(())
    }

    /// Writes `vals` as little-endian `f32`s starting at `pa` in one
    /// trap-checked pass, marking the whole range dirty once.
    pub fn write_bulk(
        &mut self,
        pa: u64,
        vals: &[f32],
        accessor: Accessor,
    ) -> Result<(), MemFault> {
        let len = vals.len() * 4;
        let start = self.check(pa, len, accessor)?;
        for (v, b) in vals
            .iter()
            .zip(self.bytes[start..start + len].chunks_exact_mut(4))
        {
            b.copy_from_slice(&v.to_le_bytes());
        }
        self.mark_dirty(start, start + len);
        if matches!(accessor, Accessor::Cpu) {
            self.log_cpu_write(start, start + len);
        }
        Ok(())
    }

    /// Copies `len` bytes from `src_pa` to `dst_pa` without staging them
    /// through a caller buffer — the memmove half of the page-run fast
    /// path for `Copy` kernels. Both ranges are trap-checked (source as a
    /// read, destination as a write) and the destination is marked dirty
    /// once. Overlapping ranges copy as a single `memmove`.
    pub fn copy_within(
        &mut self,
        src_pa: u64,
        dst_pa: u64,
        len: usize,
        accessor: Accessor,
    ) -> Result<(), MemFault> {
        let src = self.check(src_pa, len, accessor)?;
        let dst = self.check(dst_pa, len, accessor)?;
        self.bytes.copy_within(src..src + len, dst);
        self.mark_dirty(dst, dst + len);
        if matches!(accessor, Accessor::Cpu) {
            self.log_cpu_write(dst, dst + len);
        }
        Ok(())
    }

    /// Copies out a byte range (dump), ignoring trap flags — dumps are taken
    /// by the shims at synchronization points, when traps are being
    /// (re)configured anyway.
    pub fn dump_range(&self, pa: u64, len: usize) -> Vec<u8> {
        let start = (pa as usize).min(self.bytes.len());
        let end = start.saturating_add(len).min(self.bytes.len());
        self.bytes[start..end].to_vec()
    }

    /// Restores a byte range (from a synchronized dump), ignoring trap flags.
    pub fn restore_range(&mut self, pa: u64, data: &[u8]) {
        let start = (pa as usize).min(self.bytes.len());
        let end = start.saturating_add(data.len()).min(self.bytes.len());
        self.bytes[start..end].copy_from_slice(&data[..end - start]);
        self.mark_dirty(start, end);
        self.log_cpu_write(start, end);
    }

    /// XORs `xor` into the bytes at `pa`, ignoring trap flags and clamping
    /// at the end of memory (like [`Memory::restore_range`]).
    ///
    /// This is the in-place fast path for applying a pre-validated page
    /// delta: equivalent to dump + XOR-decode + restore of the same range.
    pub fn xor_range(&mut self, pa: u64, xor: &[u8]) {
        let start = (pa as usize).min(self.bytes.len());
        let end = start.saturating_add(xor.len()).min(self.bytes.len());
        for (b, &x) in self.bytes[start..end].iter_mut().zip(xor) {
            *b ^= x;
        }
        self.mark_dirty(start, end);
        self.log_cpu_write(start, end);
    }

    /// Whether any page overlapping `[pa, pa + len)` has been written since
    /// the last [`Memory::clear_dirty`] covering it. Ranges past the end of
    /// memory are clamped.
    pub fn any_dirty(&self, pa: u64, len: usize) -> bool {
        let start = (pa as usize).min(self.bytes.len());
        let end = start.saturating_add(len).min(self.bytes.len());
        if end <= start {
            return false;
        }
        let first = start / PAGE_SIZE;
        let last = (end - 1) / PAGE_SIZE;
        (first..=last).any(|p| self.dirty[p / 64] & (1u64 << (p % 64)) != 0)
    }

    /// Number of dirty pages overlapping `[pa, pa + len)`.
    pub fn count_dirty_pages(&self, pa: u64, len: usize) -> usize {
        let start = (pa as usize).min(self.bytes.len());
        let end = start.saturating_add(len).min(self.bytes.len());
        if end <= start {
            return 0;
        }
        let first = start / PAGE_SIZE;
        let last = (end - 1) / PAGE_SIZE;
        (first..=last)
            .filter(|p| self.dirty[p / 64] & (1u64 << (p % 64)) != 0)
            .count()
    }

    /// Clears the dirty bits of every page overlapping `[pa, pa + len)`.
    ///
    /// Called by the memsync layer once a region's content has been
    /// captured in a baseline, so the next sync can prove "nothing wrote
    /// here" without dumping.
    pub fn clear_dirty(&mut self, pa: u64, len: usize) {
        let start = (pa as usize).min(self.bytes.len());
        let end = start.saturating_add(len).min(self.bytes.len());
        if end <= start {
            return;
        }
        let first = start / PAGE_SIZE;
        let last = (end - 1) / PAGE_SIZE;
        for p in first..=last {
            self.dirty[p / 64] &= !(1u64 << (p % 64));
        }
    }

    /// Sets the trap flags on a page range.
    pub fn set_page_flags(&mut self, pa: u64, len: usize, flags: PageFlags) {
        if len == 0 {
            return;
        }
        let first = (pa as usize / PAGE_SIZE).min(self.flags.len());
        let last = ((pa as usize + len - 1) / PAGE_SIZE + 1).min(self.flags.len());
        for f in &mut self.flags[first..last] {
            *f = flags;
        }
    }

    /// Reads the trap flags of the page containing `pa`.
    pub fn page_flags(&self, pa: u64) -> PageFlags {
        self.flags
            .get(pa as usize / PAGE_SIZE)
            .copied()
            .unwrap_or_default()
    }

    /// Zeroes all bytes and clears all trap flags (GPU reset / TEE cleanup).
    ///
    /// Only touched pages are scrubbed; the rest are zero already. Every
    /// page is marked dirty: the wipe changed (or may have changed) its
    /// contents relative to any baseline taken before it.
    pub fn wipe(&mut self) {
        for (start, end) in page_runs(&self.touched, self.flags.len()) {
            self.bytes[start..end].fill(0);
        }
        self.touched.fill(0);
        self.flags.fill(PageFlags::default());
        self.dirty.fill(u64::MAX);
        self.cpu_writes.clear();
        self.cpu_writes_overflowed = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grt_sim::Rng;

    #[test]
    fn rounds_to_page_size() {
        let m = Memory::new(1);
        assert_eq!(m.size(), PAGE_SIZE);
        assert_eq!(m.num_pages(), 1);
    }

    #[test]
    fn word_round_trips() {
        let mut m = Memory::new(PAGE_SIZE);
        m.write_u64(8, 0x1122334455667788, Accessor::Cpu).unwrap();
        assert_eq!(m.read_u64(8, Accessor::Cpu).unwrap(), 0x1122334455667788);
        m.write_f32(100, 3.25, Accessor::Gpu).unwrap();
        assert_eq!(m.read_f32(100, Accessor::Gpu).unwrap(), 3.25);
    }

    #[test]
    fn out_of_bounds_detected() {
        let mut m = Memory::new(PAGE_SIZE);
        assert!(matches!(
            m.read_u32(PAGE_SIZE as u64 - 2, Accessor::Cpu),
            Err(MemFault::OutOfBounds { .. })
        ));
        assert!(m.write_u32(u64::MAX - 1, 0, Accessor::Cpu).is_err());
    }

    #[test]
    fn copy_within_moves_bytes_and_marks_dirty() {
        let mut m = Memory::new(4 * PAGE_SIZE);
        let data: Vec<u8> = (0..=255).collect();
        m.write(100, &data, Accessor::Cpu).unwrap();
        m.clear_dirty(0, 4 * PAGE_SIZE);
        let dst = (2 * PAGE_SIZE + 10) as u64;
        m.copy_within(100, dst, data.len(), Accessor::Gpu).unwrap();
        let mut back = vec![0u8; data.len()];
        m.read(dst, &mut back, Accessor::Gpu).unwrap();
        assert_eq!(back, data);
        // Only the destination pages are dirty; the source stays clean.
        assert!(m.any_dirty(dst, data.len()));
        assert!(!m.any_dirty(100, data.len()));
        // Overlapping forward copy behaves as one memmove.
        m.copy_within(100, 104, 16, Accessor::Cpu).unwrap();
        let mut moved = vec![0u8; 16];
        m.read(104, &mut moved, Accessor::Cpu).unwrap();
        assert_eq!(moved, data[..16]);
    }

    #[test]
    fn copy_within_is_trap_checked_both_ends() {
        let mut m = Memory::new(2 * PAGE_SIZE);
        m.set_page_flags(
            PAGE_SIZE as u64,
            PAGE_SIZE,
            PageFlags {
                cpu_unmapped: false,
                gpu_unmapped: true,
            },
        );
        // Destination trapped.
        assert!(matches!(
            m.copy_within(0, PAGE_SIZE as u64, 8, Accessor::Gpu),
            Err(MemFault::Trapped { .. })
        ));
        // Source trapped.
        assert!(matches!(
            m.copy_within(PAGE_SIZE as u64, 0, 8, Accessor::Gpu),
            Err(MemFault::Trapped { .. })
        ));
        // Out of bounds.
        assert!(m
            .copy_within(0, (2 * PAGE_SIZE - 4) as u64, 8, Accessor::Cpu)
            .is_err());
    }

    #[test]
    fn cpu_trap_blocks_cpu_not_gpu() {
        let mut m = Memory::new(2 * PAGE_SIZE);
        m.set_page_flags(
            0,
            PAGE_SIZE,
            PageFlags {
                cpu_unmapped: true,
                gpu_unmapped: false,
            },
        );
        assert!(matches!(
            m.read_u32(16, Accessor::Cpu),
            Err(MemFault::Trapped {
                accessor: Accessor::Cpu,
                ..
            })
        ));
        assert!(m.read_u32(16, Accessor::Gpu).is_ok());
        // The second page is unaffected.
        assert!(m.read_u32(PAGE_SIZE as u64 + 16, Accessor::Cpu).is_ok());
    }

    #[test]
    fn gpu_trap_blocks_gpu() {
        let mut m = Memory::new(PAGE_SIZE);
        m.set_page_flags(
            0,
            PAGE_SIZE,
            PageFlags {
                cpu_unmapped: false,
                gpu_unmapped: true,
            },
        );
        assert!(m.write_u32(0, 1, Accessor::Cpu).is_ok());
        assert!(m.write_u32(0, 1, Accessor::Gpu).is_err());
    }

    #[test]
    fn straddling_access_checks_both_pages() {
        let mut m = Memory::new(2 * PAGE_SIZE);
        m.set_page_flags(
            PAGE_SIZE as u64,
            PAGE_SIZE,
            PageFlags {
                cpu_unmapped: true,
                gpu_unmapped: false,
            },
        );
        // An 8-byte access starting 4 bytes before the boundary must trap.
        assert!(m.read_u64(PAGE_SIZE as u64 - 4, Accessor::Cpu).is_err());
    }

    #[test]
    fn dump_and_restore_ignore_traps() {
        let mut m = Memory::new(PAGE_SIZE);
        m.write_u32(0, 42, Accessor::Cpu).unwrap();
        m.set_page_flags(
            0,
            PAGE_SIZE,
            PageFlags {
                cpu_unmapped: true,
                gpu_unmapped: true,
            },
        );
        let dump = m.dump_range(0, PAGE_SIZE);
        assert_eq!(u32::from_le_bytes([dump[0], dump[1], dump[2], dump[3]]), 42);
        let mut m2 = Memory::new(PAGE_SIZE);
        m2.restore_range(0, &dump);
        assert_eq!(m2.read_u32(0, Accessor::Cpu).unwrap(), 42);
    }

    #[test]
    fn dump_clamps_to_size() {
        let m = Memory::new(PAGE_SIZE);
        assert_eq!(m.dump_range(0, 10 * PAGE_SIZE).len(), PAGE_SIZE);
        assert!(m.dump_range(100 * PAGE_SIZE as u64, 8).is_empty());
    }

    #[test]
    fn dirty_bits_track_writes_per_page() {
        let mut m = Memory::new(4 * PAGE_SIZE);
        assert!(!m.any_dirty(0, 4 * PAGE_SIZE));
        m.write_u32(PAGE_SIZE as u64 + 8, 7, Accessor::Cpu).unwrap();
        assert!(m.any_dirty(0, 4 * PAGE_SIZE));
        assert!(!m.any_dirty(0, PAGE_SIZE));
        assert!(m.any_dirty(PAGE_SIZE as u64, PAGE_SIZE));
        assert_eq!(m.count_dirty_pages(0, 4 * PAGE_SIZE), 1);
        m.clear_dirty(PAGE_SIZE as u64, PAGE_SIZE);
        assert!(!m.any_dirty(0, 4 * PAGE_SIZE));
    }

    #[test]
    fn dirty_bits_track_restore_and_xor() {
        let mut m = Memory::new(4 * PAGE_SIZE);
        m.restore_range(2 * PAGE_SIZE as u64, &[1, 2, 3]);
        assert!(m.any_dirty(2 * PAGE_SIZE as u64, PAGE_SIZE));
        m.clear_dirty(0, 4 * PAGE_SIZE);
        m.xor_range(3 * PAGE_SIZE as u64, &[0xFF; 8]);
        assert!(m.any_dirty(3 * PAGE_SIZE as u64, PAGE_SIZE));
        assert!(!m.any_dirty(0, 3 * PAGE_SIZE));
    }

    #[test]
    fn straddling_write_dirties_both_pages() {
        let mut m = Memory::new(2 * PAGE_SIZE);
        m.write_u64(PAGE_SIZE as u64 - 4, 0xFFFF_FFFF_FFFF_FFFF, Accessor::Cpu)
            .unwrap();
        assert_eq!(m.count_dirty_pages(0, 2 * PAGE_SIZE), 2);
    }

    #[test]
    fn dirty_queries_clamp_out_of_range() {
        let m = Memory::new(PAGE_SIZE);
        assert!(!m.any_dirty(100 * PAGE_SIZE as u64, PAGE_SIZE));
        assert_eq!(m.count_dirty_pages(100 * PAGE_SIZE as u64, 8), 0);
    }

    #[test]
    fn bulk_f32_round_trips_bit_exactly() {
        let mut m = Memory::new(2 * PAGE_SIZE);
        // Include a signalling-NaN pattern and -0.0: bulk copies must be
        // bit-transparent, not value-transparent.
        let vals = [
            1.5f32,
            -0.0,
            f32::from_bits(0x7FA0_0001),
            f32::MIN_POSITIVE,
            -3.25,
        ];
        m.write_bulk(PAGE_SIZE as u64 - 8, &vals, Accessor::Gpu)
            .unwrap();
        let mut back = [0.0f32; 5];
        m.read_bulk(PAGE_SIZE as u64 - 8, &mut back, Accessor::Gpu)
            .unwrap();
        assert_eq!(
            vals.map(f32::to_bits),
            back.map(f32::to_bits),
            "bulk copy must preserve exact bit patterns"
        );
        // Matches the scalar path byte-for-byte.
        for (i, v) in vals.iter().enumerate() {
            let pa = PAGE_SIZE as u64 - 8 + 4 * i as u64;
            assert_eq!(
                m.read_f32(pa, Accessor::Cpu).unwrap().to_bits(),
                v.to_bits()
            );
        }
    }

    #[test]
    fn bulk_access_respects_traps_and_bounds() {
        let mut m = Memory::new(2 * PAGE_SIZE);
        m.set_page_flags(
            PAGE_SIZE as u64,
            PAGE_SIZE,
            PageFlags {
                cpu_unmapped: false,
                gpu_unmapped: true,
            },
        );
        let mut buf = [0.0f32; 4];
        // A straddling bulk read must trap on the protected second page.
        assert!(m
            .read_bulk(PAGE_SIZE as u64 - 8, &mut buf, Accessor::Gpu)
            .is_err());
        assert!(m
            .read_bulk(PAGE_SIZE as u64 - 8, &mut buf, Accessor::Cpu)
            .is_ok());
        assert!(m
            .write_bulk(2 * PAGE_SIZE as u64 - 4, &buf, Accessor::Cpu)
            .is_err());
    }

    #[test]
    fn bulk_write_marks_dirty() {
        let mut m = Memory::new(2 * PAGE_SIZE);
        m.clear_dirty(0, 2 * PAGE_SIZE);
        m.write_bulk(PAGE_SIZE as u64 - 4, &[1.0, 2.0], Accessor::Gpu)
            .unwrap();
        assert_eq!(m.count_dirty_pages(0, 2 * PAGE_SIZE), 2);
    }

    #[test]
    fn xor_range_matches_dump_decode_restore() {
        let mut a = Memory::new(2 * PAGE_SIZE);
        a.write(0, &[0x5A; 2 * PAGE_SIZE], Accessor::Cpu).unwrap();
        let mut b = Memory::new(2 * PAGE_SIZE);
        b.write(0, &[0x5A; 2 * PAGE_SIZE], Accessor::Cpu).unwrap();
        let xor = [0x0Fu8; 100];
        // Fast path on `a`.
        a.xor_range(PAGE_SIZE as u64, &xor);
        // Slow path on `b`.
        let mut page = b.dump_range(PAGE_SIZE as u64, 100);
        for (p, x) in page.iter_mut().zip(xor) {
            *p ^= x;
        }
        b.restore_range(PAGE_SIZE as u64, &page);
        assert_eq!(
            a.dump_range(0, 2 * PAGE_SIZE),
            b.dump_range(0, 2 * PAGE_SIZE)
        );
    }

    #[test]
    fn wipe_marks_everything_dirty() {
        let mut m = Memory::new(2 * PAGE_SIZE);
        m.clear_dirty(0, 2 * PAGE_SIZE);
        m.wipe();
        assert_eq!(m.count_dirty_pages(0, 2 * PAGE_SIZE), 2);
    }

    #[test]
    fn wipe_clears_everything() {
        let mut m = Memory::new(PAGE_SIZE);
        m.write_u32(0, 7, Accessor::Cpu).unwrap();
        m.set_page_flags(
            0,
            PAGE_SIZE,
            PageFlags {
                cpu_unmapped: true,
                gpu_unmapped: true,
            },
        );
        m.wipe();
        assert_eq!(m.read_u32(0, Accessor::Cpu).unwrap(), 0);
        assert_eq!(m.page_flags(0), PageFlags::default());
    }

    /// Applies `steps` seeded random operations to `m`: every byte mutator
    /// plus trap-flag changes, dirty-bit clears and log drains. Accesses
    /// that fault are part of the mix — a failed access must not break
    /// the `touched` invariant either.
    fn random_ops(m: &mut Memory, rng: &mut Rng, steps: usize) {
        let size = m.size() as u64;
        for _ in 0..steps {
            let pa = rng.gen_range(size);
            let len = rng.gen_range(3 * PAGE_SIZE as u64) as usize + 1;
            let acc = if rng.chance(0.5) {
                Accessor::Cpu
            } else {
                Accessor::Gpu
            };
            let mut data = vec![0u8; len];
            rng.fill_bytes(&mut data);
            match rng.gen_range(9) {
                0 => {
                    let _ = m.write(pa, &data, acc);
                }
                1 => {
                    let vals: Vec<f32> = data
                        .chunks_exact(4)
                        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                        .collect();
                    let _ = m.write_bulk(pa, &vals, acc);
                }
                2 => {
                    let _ = m.copy_within(rng.gen_range(size), pa, len, acc);
                }
                3 => m.restore_range(pa, &data),
                4 => m.xor_range(pa, &data),
                5 => m.set_page_flags(
                    pa,
                    len,
                    PageFlags {
                        cpu_unmapped: rng.chance(0.2),
                        gpu_unmapped: rng.chance(0.2),
                    },
                ),
                6 => m.clear_dirty(pa, len),
                7 => {
                    let _ = m.take_cpu_writes();
                }
                _ => {
                    let _ = m.write_u32(pa, rng.next_u32(), acc);
                }
            }
        }
    }

    /// Everything observable about `a` equals `b`: bytes, per-page flags,
    /// dirty bits and the drained CPU-write log (drained on both).
    fn assert_same(a: &mut Memory, b: &mut Memory, what: &str) {
        assert_eq!(a.size(), b.size(), "{what}: size");
        assert!(
            a.dump_range(0, a.size()) == b.dump_range(0, b.size()),
            "{what}: bytes differ"
        );
        for page in 0..a.num_pages() {
            let pa = (page * PAGE_SIZE) as u64;
            assert_eq!(a.page_flags(pa), b.page_flags(pa), "{what}: flags");
            assert_eq!(a.any_dirty(pa, 1), b.any_dirty(pa, 1), "{what}: dirty");
        }
        assert_eq!(
            a.count_dirty_pages(0, a.size()),
            b.count_dirty_pages(0, b.size()),
            "{what}: dirty count"
        );
        assert_eq!(a.take_cpu_writes(), b.take_cpu_writes(), "{what}: log");
    }

    /// Sizes that leave a partial last bitmap word and cross word edges.
    const FUZZ_PAGES: [usize; 3] = [1, 37, 130];

    #[test]
    fn sparse_clone_equals_source_under_random_mutation() {
        for (i, pages) in FUZZ_PAGES.into_iter().enumerate() {
            for seed in 0..8u64 {
                let mut rng = Rng::new(0xC10E ^ (i as u64) << 8 ^ seed);
                let mut m = Memory::new(pages * PAGE_SIZE);
                random_ops(&mut m, &mut rng, 60);
                let mut c = m.clone();
                assert_same(&mut m, &mut c, "clone");
                // The clone carries the touched bits too: the same further
                // mutations and a wipe keep the two indistinguishable.
                let mut c = m.clone();
                let mut replay = rng.fork();
                let mut same = replay.clone();
                random_ops(&mut m, &mut replay, 30);
                random_ops(&mut c, &mut same, 30);
                m.wipe();
                c.wipe();
                assert_same(&mut m, &mut c, "clone after wipe");
            }
        }
    }

    #[test]
    fn sparse_wipe_is_indistinguishable_from_fresh_memory() {
        for (i, pages) in FUZZ_PAGES.into_iter().enumerate() {
            for seed in 0..8u64 {
                let mut rng = Rng::new(0x5C2B ^ (i as u64) << 8 ^ seed);
                let size = pages * PAGE_SIZE;
                let mut m = Memory::new(size);
                random_ops(&mut m, &mut rng, 60);
                m.wipe();
                assert!(
                    m.dump_range(0, size).iter().all(|&b| b == 0),
                    "wipe left bytes behind"
                );
                assert_eq!(m.count_dirty_pages(0, size), pages, "wipe dirties all");
                assert_eq!(m.take_cpu_writes(), (Vec::new(), true), "wipe overflows");
                // Past those two marks, a wiped memory is a fresh one: the
                // same mutations and a second wipe leave them equal.
                let mut fresh = Memory::new(size);
                fresh.wipe();
                let mut ops = rng.fork();
                let mut same = ops.clone();
                random_ops(&mut m, &mut ops, 60);
                random_ops(&mut fresh, &mut same, 60);
                assert_same(&mut m, &mut fresh, "after wipe");
                m.wipe();
                fresh.wipe();
                assert_same(&mut m, &mut fresh, "second wipe");
            }
        }
    }

    /// Runs `mutate` against page 2 of a memory whose only other touched
    /// page is page 0, then checks that a wipe zeroes every byte.
    fn assert_wipe_scrubs(mutate: impl FnOnce(&mut Memory, u64)) {
        let mut m = Memory::new(4 * PAGE_SIZE);
        m.write(0, &[0x5A; 64], Accessor::Cpu).unwrap();
        let dst = 2 * PAGE_SIZE as u64 + 100;
        mutate(&mut m, dst);
        assert!(m.dump_range(dst, 16).iter().any(|&b| b != 0), "no write");
        m.wipe();
        assert!(m.dump_range(0, m.size()).iter().all(|&b| b == 0));
    }

    #[test]
    fn wipe_scrubs_page_touched_by_write() {
        assert_wipe_scrubs(|m, pa| m.write(pa, &[0xAB; 16], Accessor::Gpu).unwrap());
    }

    #[test]
    fn wipe_scrubs_page_touched_by_write_bulk() {
        assert_wipe_scrubs(|m, pa| m.write_bulk(pa, &[1.5; 4], Accessor::Gpu).unwrap());
    }

    #[test]
    fn wipe_scrubs_page_touched_by_copy_within() {
        assert_wipe_scrubs(|m, pa| m.copy_within(0, pa, 64, Accessor::Gpu).unwrap());
    }

    #[test]
    fn wipe_scrubs_page_touched_by_restore_range() {
        assert_wipe_scrubs(|m, pa| m.restore_range(pa, &[0xCD; 16]));
    }

    #[test]
    fn wipe_scrubs_page_touched_by_xor_range() {
        assert_wipe_scrubs(|m, pa| m.xor_range(pa, &[0xEF; 16]));
    }
}
