//! The abstract domain's memory: a sparse shadow of the client carveout.
//!
//! The lifter replays `LoadMemDelta` events against this shadow exactly the
//! way the real replayer applies them to device DRAM, so that when a job is
//! submitted it can walk the page tables the GPU would walk — without
//! allocating the full 96 MiB carveout per lift.

use grt_gpu::mmu::{decode_pte, decode_table_entry, PteFlags, WALK_IDX_BITS, WALK_LEVELS};
use grt_gpu::PAGE_SIZE;
use std::collections::BTreeMap;

/// Sparse page-granular memory; absent pages read as zero.
#[derive(Debug, Default)]
pub struct ShadowMem {
    pages: BTreeMap<u64, Vec<u8>>,
}

impl ShadowMem {
    /// Creates an empty (all-zero) shadow.
    pub fn new() -> Self {
        ShadowMem::default()
    }

    fn page_size() -> u64 {
        PAGE_SIZE as u64
    }

    /// Reads `len` bytes at `pa` (zero-filled where nothing was written).
    pub fn dump_range(&self, pa: u64, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        let ps = Self::page_size();
        let mut off = 0usize;
        while off < len {
            let cur = pa + off as u64;
            let page = cur / ps * ps;
            let in_page = (cur - page) as usize;
            let n = (ps as usize - in_page).min(len - off);
            if let Some(p) = self.pages.get(&page) {
                out[off..off + n].copy_from_slice(&p[in_page..in_page + n]);
            }
            off += n;
        }
        out
    }

    /// XORs `xor` into the bytes at `pa`, materializing pages as needed:
    /// the in-place delta application of `Memory::xor_range`.
    pub fn xor_range(&mut self, pa: u64, xor: &[u8]) {
        let ps = Self::page_size();
        let mut off = 0usize;
        while off < xor.len() {
            let cur = pa.wrapping_add(off as u64);
            let page = cur / ps * ps;
            let in_page = (cur - page) as usize;
            let n = (ps as usize - in_page).min(xor.len() - off);
            let p = self
                .pages
                .entry(page)
                .or_insert_with(|| vec![0u8; ps as usize]);
            for (b, &x) in p[in_page..in_page + n].iter_mut().zip(&xor[off..off + n]) {
                *b ^= x;
            }
            off += n;
        }
    }

    /// Reads a little-endian u64 at `pa`.
    pub fn read_u64(&self, pa: u64) -> u64 {
        let b = self.dump_range(pa, 8);
        u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
    }

    /// Number of materialized pages (testing aid).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

/// Everything a page-table walk discovered.
#[derive(Debug, Default)]
pub struct WalkSummary {
    /// Leaf mappings as `(va, pa, flags)`, in VA order.
    pub leaves: Vec<(u64, u64, PteFlags)>,
    /// Physical addresses of every table page touched (root included).
    pub tables: Vec<u64>,
    /// True when the walk was abandoned because the tree exceeded
    /// [`MAX_LEAVES`] — itself a lintable condition.
    pub truncated: bool,
}

impl WalkSummary {
    /// Translates a VA range to page-run `(pa, len)` pairs via the leaves,
    /// plus the bytes with no usable mapping — absent, or (when
    /// `need_write`) mapped without write permission; reads likewise
    /// require the read flag. Runs merge across physically contiguous
    /// pages, mirroring the replayer's `translate_run`.
    pub fn resolve(&self, va: u64, bytes: u64, need_write: bool) -> (Vec<(u64, u64)>, u64) {
        let ps = PAGE_SIZE as u64;
        let mut runs: Vec<(u64, u64)> = Vec::new();
        let mut unmapped = 0u64;
        let mut cur = va;
        let end = match va.checked_add(bytes) {
            Some(e) => e,
            None => return (runs, bytes),
        };
        while cur < end {
            let page_va = cur / ps * ps;
            let in_page = cur - page_va;
            let n = (ps - in_page).min(end - cur);
            let i = self.leaves.partition_point(|&(lva, _, _)| lva < page_va);
            match self.leaves.get(i) {
                Some(&(lva, lpa, flags))
                    if lva == page_va && (if need_write { flags.write } else { flags.read }) =>
                {
                    let pa = lpa + in_page;
                    match runs.last_mut() {
                        Some(last) if last.0 + last.1 == pa => last.1 += n,
                        _ => runs.push((pa, n)),
                    }
                }
                _ => unmapped += n,
            }
            cur += n;
        }
        (runs, unmapped)
    }
}

/// Upper bound on leaf mappings a walk will enumerate before giving up: a
/// plausible GPU address space for a 96 MiB carveout is tens of thousands
/// of pages, so a million-leaf tree is an attack on the analyzer, not a
/// workload.
pub const MAX_LEAVES: usize = 1 << 20;

/// Walks the 4-level table rooted at `root_pa` in the shadow, decoding
/// leaves under the SKU's PTE `quirk`.
pub fn walk(shadow: &ShadowMem, root_pa: u64, quirk: u8) -> WalkSummary {
    let mut summary = WalkSummary {
        leaves: Vec::new(),
        tables: vec![root_pa],
        truncated: false,
    };
    visit(shadow, root_pa, 0, 0, quirk, &mut summary);
    summary
}

fn visit(
    shadow: &ShadowMem,
    table_pa: u64,
    level: u32,
    va_base: u64,
    quirk: u8,
    out: &mut WalkSummary,
) {
    if out.truncated {
        return;
    }
    for idx in 0..(1u64 << WALK_IDX_BITS) {
        let entry = shadow.read_u64(table_pa + idx * 8);
        if entry == 0 {
            continue;
        }
        let shift = 12 + WALK_IDX_BITS * (WALK_LEVELS - 1 - level);
        let va = va_base | (idx << shift);
        if level < WALK_LEVELS - 1 {
            if let Some(child) = decode_table_entry(entry) {
                out.tables.push(child);
                visit(shadow, child, level + 1, va, quirk, out);
                if out.truncated {
                    return;
                }
            }
        } else if let Some((pa, flags)) = decode_pte(entry, quirk) {
            if out.leaves.len() >= MAX_LEAVES {
                out.truncated = true;
                return;
            }
            out.leaves.push((va, pa, flags));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grt_gpu::mem::{Accessor, Memory};
    use grt_gpu::mmu::{map_page, PteFlags};

    #[test]
    fn sparse_read_write_round_trips() {
        let mut s = ShadowMem::new();
        assert_eq!(s.dump_range(0x5000, 8), vec![0u8; 8]);
        s.xor_range(0x5FFE, &[1, 2, 3, 4]); // Straddles a page boundary.
        assert_eq!(s.dump_range(0x5FFE, 4), vec![1, 2, 3, 4]);
        assert_eq!(s.resident_pages(), 2);
        assert_eq!(s.dump_range(0x5FFC, 2), vec![0, 0]);
        s.xor_range(0x5FFF, &[0xFF, 0x0F]);
        assert_eq!(s.dump_range(0x5FFE, 4), vec![1, 0xFD, 0x0C, 4]);
    }

    #[test]
    fn walk_agrees_with_hardware_walker() {
        // Build tables in real Memory with the driver-side builder, copy
        // into the shadow, and check the shadow walk sees the same pages.
        let mut mem = Memory::new(2 * 1024 * 1024);
        let mut next = 0x10_000u64;
        let root = {
            let pa = next;
            next += 0x1000;
            pa
        };
        let mut alloc = || {
            let pa = next;
            next += 0x1000;
            pa
        };
        map_page(
            &mut mem,
            root,
            0x4000_0000,
            0x8_0000,
            PteFlags::rw(),
            3,
            &mut alloc,
        )
        .unwrap();
        map_page(
            &mut mem,
            root,
            0x4000_1000,
            0x8_1000,
            PteFlags::rx(),
            3,
            &mut alloc,
        )
        .unwrap();

        let mut shadow = ShadowMem::new();
        let size = mem.size();
        let mut buf = vec![0u8; 4096];
        for page in (0..size as u64).step_by(4096) {
            mem.read(page, &mut buf, Accessor::Cpu).unwrap();
            if buf.iter().any(|&b| b != 0) {
                shadow.xor_range(page, &buf);
            }
        }
        let summary = walk(&shadow, root, 3);
        assert!(!summary.truncated);
        assert_eq!(summary.leaves.len(), 2);
        assert_eq!(summary.leaves[0], (0x4000_0000, 0x8_0000, PteFlags::rw()));
        assert_eq!(summary.leaves[1], (0x4000_1000, 0x8_1000, PteFlags::rx()));
        assert!(summary.tables.contains(&root));
        assert_eq!(summary.tables.len(), 4, "root + one table per level");
    }

    #[test]
    fn empty_root_walks_to_nothing() {
        let shadow = ShadowMem::new();
        let summary = walk(&shadow, 0x1000, 0);
        assert!(summary.leaves.is_empty());
        assert_eq!(summary.tables, vec![0x1000]);
    }

    #[test]
    fn resolve_merges_contiguous_runs_and_counts_gaps() {
        let mut s = WalkSummary::default();
        // Two physically contiguous pages, then a hole, then a third page.
        s.leaves.push((0x4000_0000, 0x8_0000, PteFlags::rw()));
        s.leaves.push((0x4000_1000, 0x8_1000, PteFlags::rw()));
        s.leaves.push((0x4000_3000, 0xA_0000, PteFlags::rx()));
        let (runs, unmapped) = s.resolve(0x4000_0800, 0x3000, false);
        assert_eq!(runs, vec![(0x8_0800, 0x1800), (0xA_0000, 0x800)]);
        assert_eq!(unmapped, 0x1000);
        let (runs, unmapped) = s.resolve(0x5000_0000, 0x2000, false);
        assert!(runs.is_empty());
        assert_eq!(unmapped, 0x2000);
        // Write access is denied on the read-execute page.
        let (runs, unmapped) = s.resolve(0x4000_3000, 0x800, true);
        assert!(runs.is_empty());
        assert_eq!(unmapped, 0x800);
    }
}
