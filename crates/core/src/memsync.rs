//! Memory synchronization between the cloud's local memory and client DRAM
//! (§5).
//!
//! With the driver's job queue length pinned at 1, CPU and GPU never touch
//! shared memory simultaneously, so two sync points suffice:
//!
//! - **cloud → client**, right before the register write that starts a GPU
//!   job: ship the GPU *metastate* (commands, shaders, descriptors, page
//!   tables) as delta-compressed dumps;
//! - **client → cloud**, right after the job-completion interrupt: ship
//!   back the GPU-written metastate (descriptor status words).
//!
//! [`SyncMode::FullData`] is the Naive baseline: program data travels too
//! (accounted at paper-scale nominal bytes — the tensors themselves are
//! dimensionally scaled, see DESIGN.md). [`SyncMode::MetaOnly`] is GR-T's
//! optimization: program data is *never* transferred; the client's copy
//! stays zero-filled, which is exactly the paper's dry-run semantics.
//!
//! Continuous validation (§5): after a down-sync the cloud CPU's view of
//! the shipped regions is unmapped (any spurious driver access traps); the
//! client unmaps the GPU's view while the GPU is idle.

use grt_compress::DeltaCodec;
use grt_driver::RegionTable;
use grt_gpu::mem::{Memory, PageFlags};
use grt_ir::recording::Event;
use grt_replay::client::GpuShim;
use grt_sim::Stats;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

/// What travels at each sync point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// Naive: metastate plus all program data.
    FullData,
    /// GR-T: metastate only (§5).
    MetaOnly,
}

/// Outcome of one sync operation.
#[derive(Debug, Default)]
pub struct SyncOutcome {
    /// Recording events to append (down-syncs only).
    pub events: Vec<Event>,
    /// Bytes actually put on the wire (metastate deltas).
    pub meta_bytes: u64,
    /// Nominal program-data bytes accounted (FullData mode only).
    pub data_bytes: u64,
}

/// A memory-synchronization fault.
///
/// The hot path used to `expect()` on delta application; a divergence
/// between the cloud's baseline and the client's actual memory now surfaces
/// as a recoverable fault the session can roll back from, instead of a
/// panic inside the sync loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncError {
    /// The client could not apply a delta the cloud encoded against the
    /// shared baseline for the region at `pa` — the two sides no longer
    /// agree on the region (e.g. the client cannot back it).
    BaselineDiverged {
        /// Base physical address of the faulting region.
        pa: u64,
    },
}

impl std::fmt::Display for SyncError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SyncError::BaselineDiverged { pa } => {
                write!(f, "memsync baseline diverged for region at {pa:#x}")
            }
        }
    }
}

impl std::error::Error for SyncError {}

impl SyncOutcome {
    /// Total bytes for link accounting.
    pub fn total_bytes(&self) -> u64 {
        self.meta_bytes + self.data_bytes
    }
}

/// The cloud-side synchronizer state.
pub struct MemSync {
    mode: SyncMode,
    codec: DeltaCodec,
    /// Last agreed content per metastate region (keyed by base PA).
    /// Reference-counted so pinning the client's up-sync baseline shares
    /// the buffer instead of cloning a multi-page dump per region per sync.
    baselines: HashMap<u64, Rc<Vec<u8>>>,
    /// Regions whose cleared dirty bits are known to match `baselines`:
    /// for these, "no dirty page" proves "identical to the baseline"
    /// without dumping. Invalidated wholesale on reset/rollback, because
    /// dirty bits cannot be rewound.
    dirty_trusted: HashSet<u64>,
    stats: Rc<Stats>,
    /// Enable the unmap-based continuous validation traps.
    pub validation_traps: bool,
}

impl MemSync {
    /// Creates a synchronizer.
    pub fn new(mode: SyncMode, stats: &Rc<Stats>) -> Self {
        MemSync {
            mode,
            codec: DeltaCodec::new(grt_gpu::PAGE_SIZE),
            baselines: HashMap::new(),
            dirty_trusted: HashSet::new(),
            stats: Rc::clone(stats),
            validation_traps: true,
        }
    }

    /// The configured mode.
    pub fn mode(&self) -> SyncMode {
        self.mode
    }

    /// Cloud → client sync before a job start.
    ///
    /// Ships delta-compressed metastate dumps, applies them to the client,
    /// emits the corresponding recording events, and (FullData) accounts
    /// the job's nominal program-data working set. Regions whose pages are
    /// clean since the last agreement are skipped without being dumped or
    /// compared (the dirty-page fast path).
    ///
    /// # Errors
    ///
    /// [`SyncError::BaselineDiverged`] if the client cannot apply a delta —
    /// the session treats this as a recoverable layer fault.
    pub fn sync_down(
        &mut self,
        cloud_mem: &mut Memory,
        regions: &RegionTable,
        client: &mut GpuShim,
        nominal_data_bytes: u64,
    ) -> Result<SyncOutcome, SyncError> {
        let mut out = SyncOutcome::default();
        for region in regions.metastate() {
            let len = region.len_bytes();
            if self.dirty_trusted.contains(&region.pa) && !cloud_mem.any_dirty(region.pa, len) {
                // No page of the region was written since the baseline was
                // pinned: provably identical, no dump needed.
                self.stats.inc("sync.down_regions_clean_skipped");
                continue;
            }
            let dump = cloud_mem.dump_range(region.pa, len);
            self.stats.inc("sync.down_regions_dumped");
            let baseline = self.baselines.entry(region.pa).or_default();
            if **baseline == dump {
                // Dirty but byte-identical (e.g. rewritten with the same
                // content): behaves exactly like the unchanged case, and
                // the clean bits + baseline now agree again.
                cloud_mem.clear_dirty(region.pa, len);
                self.dirty_trusted.insert(region.pa);
                continue;
            }
            let delta = self.codec.encode(baseline, &dump);
            let dump = Rc::new(dump);
            if client
                .apply_mem_delta(&self.codec, region.pa, len, &delta)
                .is_err()
            {
                self.stats.inc("sync.baseline_divergences");
                return Err(SyncError::BaselineDiverged { pa: region.pa });
            }
            out.meta_bytes += delta.len() as u64;
            out.events.push(Event::LoadMemDelta {
                pa: region.pa,
                len: len as u32,
                delta,
            });
            // Both parties now agree on the region: pin the client's
            // up-sync baseline so its next delta encodes against what the
            // cloud actually holds (shared buffer, no clone).
            if region.gpu_flags.write {
                client.set_up_baseline(region.pa, Rc::clone(&dump));
            }
            *baseline = dump;
            cloud_mem.clear_dirty(region.pa, len);
            self.dirty_trusted.insert(region.pa);
        }
        if self.mode == SyncMode::FullData {
            out.data_bytes = nominal_data_bytes;
        }
        if self.validation_traps {
            // §5 continuous validation: the cloud CPU must not touch the
            // shipped metastate until the job completes; the client GPU
            // regains access (its idle-window traps are lifted).
            for region in regions.metastate() {
                cloud_mem.set_page_flags(
                    region.pa,
                    region.len_bytes(),
                    PageFlags {
                        cpu_unmapped: true,
                        gpu_unmapped: false,
                    },
                );
            }
            for region in regions.all() {
                client.mem().borrow_mut().set_page_flags(
                    region.pa,
                    region.len_bytes(),
                    PageFlags::default(),
                );
            }
        }
        self.stats.add("sync.down_meta_bytes", out.meta_bytes);
        self.stats.add("sync.down_data_bytes", out.data_bytes);
        self.stats.inc("sync.down_count");
        Ok(out)
    }

    /// Client → cloud sync after a job-completion interrupt.
    ///
    /// Ships back GPU-written metastate (descriptor statuses), applies it
    /// to the cloud memory, and re-establishes the shared baselines.
    pub fn sync_up(
        &mut self,
        client: &mut GpuShim,
        regions: &RegionTable,
        cloud_mem: &mut Memory,
        nominal_data_bytes: u64,
    ) -> SyncOutcome {
        let mut out = SyncOutcome::default();
        for region in regions.metastate().filter(|r| r.gpu_flags.write) {
            let len = region.len_bytes();
            let delta = client.dump_up_delta(&self.codec, region.pa, len);
            // Apply onto the cloud view.
            let current = cloud_mem.dump_range(region.pa, len);
            if self.validation_traps {
                cloud_mem.set_page_flags(region.pa, len, PageFlags::default());
            }
            if let Ok(new) = self.codec.decode(&current, &delta) {
                cloud_mem.restore_range(region.pa, &new);
                cloud_mem.clear_dirty(region.pa, len);
                self.baselines.insert(region.pa, Rc::new(new));
                self.dirty_trusted.insert(region.pa);
            }
            out.meta_bytes += delta.len() as u64;
        }
        if self.validation_traps {
            // Lift the remaining cloud CPU traps now that the job is done.
            for region in regions.metastate() {
                cloud_mem.set_page_flags(region.pa, region.len_bytes(), PageFlags::default());
            }
            // The GPU is idle again: trap any spurious GPU access until the
            // next down-sync re-opens its window.
            for region in regions.all() {
                client.mem().borrow_mut().set_page_flags(
                    region.pa,
                    region.len_bytes(),
                    PageFlags {
                        cpu_unmapped: false,
                        gpu_unmapped: true,
                    },
                );
            }
        }
        if self.mode == SyncMode::FullData {
            out.data_bytes = nominal_data_bytes;
        }
        self.stats.add("sync.up_meta_bytes", out.meta_bytes);
        self.stats.add("sync.up_data_bytes", out.data_bytes);
        self.stats.inc("sync.up_count");
        out
    }

    /// Drops all baselines (new record run).
    pub fn reset(&mut self) {
        self.baselines.clear();
        self.dirty_trusted.clear();
    }

    /// Copies the current baselines (checkpoint capture). The buffers are
    /// shared, so this is O(regions), not O(bytes).
    pub fn baselines_snapshot(&self) -> HashMap<u64, Rc<Vec<u8>>> {
        self.baselines.clone()
    }

    /// Replaces the baselines (checkpoint rollback): deltas encoded after
    /// the restore are again relative to the checkpointed agreement.
    ///
    /// Dirty bits cannot be rewound with the baselines, so the clean-skip
    /// trust is dropped: the next sync re-dumps every region once.
    pub fn restore_baselines(&mut self, baselines: HashMap<u64, Rc<Vec<u8>>>) {
        self.baselines = baselines;
        self.dirty_trusted.clear();
    }
}

impl std::fmt::Debug for MemSync {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemSync")
            .field("mode", &self.mode)
            .field("regions", &self.baselines.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grt_driver::{Region, Usage};
    use grt_gpu::mmu::PteFlags;
    use grt_gpu::{Gpu, GpuSku, PAGE_SIZE};
    use grt_sim::Clock;
    use grt_tee::{SecureMonitor, Tzasc};
    use std::cell::RefCell;

    fn setup() -> (MemSync, Memory, RegionTable, GpuShim, Rc<Stats>) {
        let stats = Stats::new();
        let sync = MemSync::new(SyncMode::MetaOnly, &stats);
        let cloud_mem = Memory::new(1 << 20);
        let mut regions = RegionTable::new();
        regions.insert(Region {
            va: 0x1000,
            pa: 0x4000,
            pages: 2,
            gpu_flags: PteFlags::rx(),
            usage: Usage::Shader,
            nominal_bytes: 2 * PAGE_SIZE as u64,
        });
        regions.insert(Region {
            va: 0x3000,
            pa: 0x8000,
            pages: 1,
            gpu_flags: PteFlags::rw(),
            usage: Usage::JobDescriptors,
            nominal_bytes: PAGE_SIZE as u64,
        });
        regions.insert(Region {
            va: 0x5000,
            pa: 0xA000,
            pages: 4,
            gpu_flags: PteFlags::rw(),
            usage: Usage::Weights,
            nominal_bytes: 4 * PAGE_SIZE as u64,
        });
        let clock = Clock::new();
        let client_mem = Rc::new(RefCell::new(Memory::new(1 << 20)));
        let gpu = Rc::new(RefCell::new(Gpu::new(
            GpuSku::mali_g71_mp8(),
            &clock,
            &client_mem,
        )));
        let tzasc = Rc::new(Tzasc::new());
        let monitor = SecureMonitor::new(&clock);
        let shim = GpuShim::new(&clock, &gpu, &client_mem, &tzasc, &monitor, b"s");
        (sync, cloud_mem, regions, shim, stats)
    }

    #[test]
    fn metaonly_ships_only_metastate() {
        let (mut sync, mut cloud, regions, mut shim, _stats) = setup();
        // Write shader bytes (metastate) and weights (data) on the cloud.
        cloud.restore_range(0x4000, &[0xAA; 64]);
        cloud.restore_range(0xA000, &[0xBB; 64]);
        let out = sync
            .sync_down(&mut cloud, &regions, &mut shim, 12345)
            .unwrap();
        assert!(out.meta_bytes > 0);
        assert_eq!(out.data_bytes, 0, "meta-only must not account data");
        // Client received the shader bytes but NOT the weights.
        assert_eq!(shim.mem().borrow().dump_range(0x4000, 1), vec![0xAA]);
        assert_eq!(shim.mem().borrow().dump_range(0xA000, 1), vec![0x00]);
    }

    #[test]
    fn fulldata_accounts_nominal_bytes() {
        let (_, mut cloud, regions, mut shim, stats) = setup();
        let mut sync = MemSync::new(SyncMode::FullData, &stats);
        cloud.restore_range(0x4000, &[1; 8]);
        let out = sync
            .sync_down(&mut cloud, &regions, &mut shim, 999_999)
            .unwrap();
        assert_eq!(out.data_bytes, 999_999);
        assert!(out.total_bytes() > 999_999);
    }

    #[test]
    fn unchanged_regions_are_skipped() {
        let (mut sync, mut cloud, regions, mut shim, _stats) = setup();
        cloud.restore_range(0x4000, &[0xAA; 64]);
        let first = sync.sync_down(&mut cloud, &regions, &mut shim, 0).unwrap();
        // Lift traps for the second round (normally sync_up does this).
        sync.validation_traps = false;
        let second = sync.sync_down(&mut cloud, &regions, &mut shim, 0).unwrap();
        assert!(first.meta_bytes > 0);
        assert_eq!(second.meta_bytes, 0, "nothing changed");
        assert!(second.events.is_empty());
    }

    #[test]
    fn up_sync_brings_back_gpu_writes() {
        let (mut sync, mut cloud, regions, mut shim, _stats) = setup();
        sync.sync_down(&mut cloud, &regions, &mut shim, 0).unwrap();
        // GPU writes a status word into the descriptor region (client side).
        shim.mem()
            .borrow_mut()
            .restore_range(0x8000 + 32, &[1, 0, 0, 0]);
        let out = sync.sync_up(&mut shim, &regions, &mut cloud, 0);
        assert!(out.meta_bytes > 0);
        assert_eq!(cloud.dump_range(0x8000 + 32, 1), vec![1]);
    }

    #[test]
    fn continuous_validation_traps_cloud_cpu() {
        let (mut sync, mut cloud, regions, mut shim, _stats) = setup();
        sync.sync_down(&mut cloud, &regions, &mut shim, 0).unwrap();
        // The driver spuriously touching shipped metastate must trap (§5).
        let r = cloud.read_u32(0x4000, grt_gpu::mem::Accessor::Cpu);
        assert!(r.is_err(), "expected trap, got {r:?}");
        // After the up-sync the traps are lifted.
        sync.sync_up(&mut shim, &regions, &mut cloud, 0);
        assert!(cloud.read_u32(0x4000, grt_gpu::mem::Accessor::Cpu).is_ok());
    }

    #[test]
    fn continuous_validation_traps_idle_gpu() {
        let (mut sync, mut cloud, regions, mut shim, _stats) = setup();
        sync.sync_down(&mut cloud, &regions, &mut shim, 0).unwrap();
        sync.sync_up(&mut shim, &regions, &mut cloud, 0);
        // GPU idle: its access window is closed.
        let r = shim
            .mem()
            .borrow()
            .read_u32(0x4000, grt_gpu::mem::Accessor::Gpu);
        assert!(r.is_err(), "expected idle-GPU trap, got {r:?}");
        // Next down-sync reopens it.
        cloud.restore_range(0x4000, &[0xCC; 4]);
        sync.sync_down(&mut cloud, &regions, &mut shim, 0).unwrap();
        assert!(shim
            .mem()
            .borrow()
            .read_u32(0x4000, grt_gpu::mem::Accessor::Gpu)
            .is_ok());
    }

    #[test]
    fn events_replay_client_state() {
        let (mut sync, mut cloud, regions, mut shim, _stats) = setup();
        cloud.restore_range(0x4000, b"shader-code-v1");
        let out = sync.sync_down(&mut cloud, &regions, &mut shim, 0).unwrap();
        // A fresh replayer memory, applying the recorded deltas in order,
        // reconstructs the same metastate.
        let mut replay_mem = Memory::new(1 << 20);
        let codec = DeltaCodec::new(PAGE_SIZE);
        for ev in &out.events {
            if let Event::LoadMemDelta { pa, len, delta } = ev {
                let cur = replay_mem.dump_range(*pa, *len as usize);
                let new = codec.decode(&cur, delta).unwrap();
                replay_mem.restore_range(*pa, &new);
            }
        }
        assert_eq!(replay_mem.dump_range(0x4000, 14), b"shader-code-v1");
    }

    #[test]
    fn clean_regions_skip_the_dump() {
        let (mut sync, mut cloud, regions, mut shim, stats) = setup();
        sync.validation_traps = false;
        cloud.restore_range(0x4000, &[0xAA; 64]);
        sync.sync_down(&mut cloud, &regions, &mut shim, 0).unwrap();
        let dumped_after_first = stats.get("sync.down_regions_dumped");
        assert!(dumped_after_first > 0);
        assert_eq!(stats.get("sync.down_regions_clean_skipped"), 0);
        // Nothing written since: every region is proven clean by its dirty
        // bits, no dump or compare happens at all.
        let out = sync.sync_down(&mut cloud, &regions, &mut shim, 0).unwrap();
        assert_eq!(out.meta_bytes, 0);
        assert!(out.events.is_empty());
        assert_eq!(stats.get("sync.down_regions_dumped"), dumped_after_first);
        assert_eq!(stats.get("sync.down_regions_clean_skipped"), 2);
        // Touching one region re-dumps only that region.
        cloud.restore_range(0x4000, &[0xBB; 4]);
        let out = sync.sync_down(&mut cloud, &regions, &mut shim, 0).unwrap();
        assert_eq!(out.events.len(), 1);
        assert_eq!(
            stats.get("sync.down_regions_dumped"),
            dumped_after_first + 1
        );
        assert_eq!(shim.mem().borrow().dump_range(0x4000, 1), vec![0xBB]);
    }

    #[test]
    fn dirty_but_identical_rewrite_emits_no_event() {
        let (mut sync, mut cloud, regions, mut shim, _stats) = setup();
        sync.validation_traps = false;
        cloud.restore_range(0x4000, &[0xAA; 64]);
        sync.sync_down(&mut cloud, &regions, &mut shim, 0).unwrap();
        // Rewrite the same bytes: pages go dirty, content is unchanged.
        cloud.restore_range(0x4000, &[0xAA; 64]);
        let out = sync.sync_down(&mut cloud, &regions, &mut shim, 0).unwrap();
        assert_eq!(
            out.meta_bytes, 0,
            "same-bytes rewrite must not ship a delta"
        );
        assert!(out.events.is_empty());
    }

    #[test]
    fn rollback_distrusts_dirty_bits() {
        let (mut sync, mut cloud, regions, mut shim, stats) = setup();
        sync.validation_traps = false;
        cloud.restore_range(0x4000, &[0xAA; 64]);
        sync.sync_down(&mut cloud, &regions, &mut shim, 0).unwrap();
        let snapshot = sync.baselines_snapshot();
        cloud.restore_range(0x4000, &[0xCC; 64]);
        sync.sync_down(&mut cloud, &regions, &mut shim, 0).unwrap();
        // Roll baselines back to the 0xAA agreement, and the memory too
        // (as the shim's checkpoint rollback does) — dirty bits now lie.
        sync.restore_baselines(snapshot);
        cloud.restore_range(0x4000, &[0xAA; 64]);
        shim.mem().borrow_mut().restore_range(0x4000, &[0xAA; 64]);
        cloud.clear_dirty(0x4000, 2 * PAGE_SIZE);
        let dumped_before = stats.get("sync.down_regions_dumped");
        let out = sync.sync_down(&mut cloud, &regions, &mut shim, 0).unwrap();
        // The clean bits are NOT trusted after a rollback: the region is
        // re-dumped once (and found to match the restored baseline).
        assert!(stats.get("sync.down_regions_dumped") > dumped_before);
        assert_eq!(out.meta_bytes, 0);
        assert_eq!(shim.mem().borrow().dump_range(0x4000, 1), vec![0xAA]);
    }

    #[test]
    fn up_sync_clean_skip_is_byte_identical() {
        let (mut sync, mut cloud, regions, mut shim, _stats) = setup();
        sync.validation_traps = false;
        cloud.restore_range(0x8000, &[0x11; 16]);
        sync.sync_down(&mut cloud, &regions, &mut shim, 0).unwrap();
        // First up-sync: the GPU wrote nothing; the synthesized unchanged
        // delta must decode to the unchanged content on the cloud side.
        let out = sync.sync_up(&mut shim, &regions, &mut cloud, 0);
        assert!(out.meta_bytes > 0, "unchanged deltas still travel");
        assert_eq!(cloud.dump_range(0x8000, 1), vec![0x11]);
        // Second round with a real GPU write still syncs correctly.
        shim.mem()
            .borrow_mut()
            .restore_range(0x8000 + 32, &[7, 0, 0, 0]);
        sync.sync_up(&mut shim, &regions, &mut cloud, 0);
        assert_eq!(cloud.dump_range(0x8000 + 32, 1), vec![7]);
    }

    #[test]
    fn baseline_divergence_is_a_typed_error_not_a_panic() {
        let stats = Stats::new();
        let mut sync = MemSync::new(SyncMode::MetaOnly, &stats);
        // Cloud has 4 MiB; the client can only back 1 MiB, so a region at
        // 2 MiB diverges: the client cannot hold what the cloud ships.
        let mut cloud = Memory::new(4 << 20);
        let mut regions = RegionTable::new();
        regions.insert(Region {
            va: 0x1000,
            pa: 0x20_0000,
            pages: 1,
            gpu_flags: PteFlags::rx(),
            usage: Usage::Shader,
            nominal_bytes: PAGE_SIZE as u64,
        });
        let clock = Clock::new();
        let client_mem = Rc::new(RefCell::new(Memory::new(1 << 20)));
        let gpu = Rc::new(RefCell::new(Gpu::new(
            GpuSku::mali_g71_mp8(),
            &clock,
            &client_mem,
        )));
        let tzasc = Rc::new(Tzasc::new());
        let monitor = SecureMonitor::new(&clock);
        let mut shim = GpuShim::new(&clock, &gpu, &client_mem, &tzasc, &monitor, b"s");
        cloud.restore_range(0x20_0000, &[0xEE; 32]);
        let err = sync
            .sync_down(&mut cloud, &regions, &mut shim, 0)
            .unwrap_err();
        assert_eq!(err, SyncError::BaselineDiverged { pa: 0x20_0000 });
        assert_eq!(stats.get("sync.baseline_divergences"), 1);
    }
}
