//! GPUShim: the client-side TEE module that owns the physical GPU.
//!
//! During recording, GPUShim (§3.2, §6):
//! - locks the GPU MMIO region and its memory behind the TZASC so the
//!   untrusted normal world cannot interfere;
//! - routes the GPU's interrupt lines to the TEE via the secure monitor;
//! - executes register-access batches committed by the cloud's DriverShim,
//!   returning read values;
//! - runs offloaded polling loops locally against the GPU (§4.3);
//! - waits for GPU interrupts and forwards them (with a metastate dump) to
//!   the cloud;
//! - applies the cloud's metastate memory deltas into client DRAM.
//!
//! [`take_gpu`] and the [`GpuHold`] it returns are the one way the TEE
//! holds the GPU.

use grt_compress::{CorruptStream, DeltaCodec, ParsedDelta};
use grt_crypto::{KeyPair, SecureChannel};
use grt_gpu::mem::Memory;
use grt_gpu::{Gpu, GpuSku, IrqLine, PollResult, PollSpec, PAGE_SIZE};
use grt_ir::gate::CLIENT_MEM_BYTES;
use grt_sim::{Clock, EnergyMeter, Rail, SimTime, Stats};
use grt_tee::{SecureMonitor, Tzasc, World};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

/// Physical base of the GPU MMIO window on the client SoC (HiKey960's
/// Mali block).
pub const GPU_MMIO_BASE: u64 = 0xE82C_0000;
/// Size of the MMIO window.
pub const GPU_MMIO_LEN: u64 = 0x4000;
/// The GPU's three interrupt ids (job/mmu/gpu on the HiKey960).
pub const GPU_IRQ_IDS: [u32; 3] = [265, 266, 267];

/// The TEE's hold on the GPU, from [`take_gpu`]. Dropping it gives the GPU
/// back to the normal world, resetting hardware state first (§3.2: "before
/// and after the replay, it resets the GPU and cleans up all the hardware
/// state"): it detaches any fusion plan and batch lanes, hard-resets the
/// GPU, releases the MMIO window and routes the interrupts back. So every
/// way out of a replay, a record run or an audit — the end, an error, an
/// early drop — gives the GPU back exactly once.
#[must_use = "dropping the hold gives the GPU back at once"]
pub struct GpuHold {
    gpu: Rc<RefCell<Gpu>>,
    tzasc: Rc<Tzasc>,
    monitor: Rc<SecureMonitor>,
}

/// Takes the GPU into the secure world (§6: "during record and replay"):
/// the TZASC claims its MMIO window, the secure monitor routes its
/// interrupts to the TEE, and the GPU is hard-reset. The TEE holds the GPU
/// until the returned [`GpuHold`] drops.
pub fn take_gpu(gpu: &Rc<RefCell<Gpu>>, tzasc: &Rc<Tzasc>, monitor: &Rc<SecureMonitor>) -> GpuHold {
    tzasc.claim(GPU_MMIO_BASE, GPU_MMIO_LEN, World::Secure);
    for irq in GPU_IRQ_IDS {
        monitor.route_irq(irq, World::Secure);
    }
    gpu.borrow_mut().hard_reset_now();
    GpuHold {
        gpu: Rc::clone(gpu),
        tzasc: Rc::clone(tzasc),
        monitor: Rc::clone(monitor),
    }
}

impl Drop for GpuHold {
    fn drop(&mut self) {
        let mut gpu = self.gpu.borrow_mut();
        gpu.take_fusion_plan();
        gpu.take_batch_lanes();
        gpu.hard_reset_now();
        drop(gpu);
        self.tzasc.release(GPU_MMIO_BASE, GPU_MMIO_LEN);
        for irq in GPU_IRQ_IDS {
            self.monitor.route_irq(irq, World::Normal);
        }
    }
}

/// Applies a parsed metastate delta to the region at `pa` in place: each
/// changed page's XOR lands on its bytes. A delta parsed with the region's
/// length as its bound leaves the region as dump, decode and restore would.
pub fn apply_delta(mem: &mut Memory, pa: u64, delta: &ParsedDelta) {
    for (page, xor) in delta.pages() {
        mem.xor_range(pa.wrapping_add(u64::from(page) * PAGE_SIZE as u64), xor);
    }
}

/// One register access on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireAccess {
    /// Read a register.
    Read {
        /// Register offset.
        offset: u32,
    },
    /// Write a register.
    Write {
        /// Register offset.
        offset: u32,
        /// Value to write.
        value: u32,
    },
}

/// Serializes a batch for the encrypted channel (drives the paper's
/// 200–400 B commit payload sizes).
pub fn encode_batch(batch: &[WireAccess]) -> Vec<u8> {
    let mut b = Vec::with_capacity(batch.len() * 9 + 4);
    b.extend_from_slice(&(batch.len() as u32).to_le_bytes());
    for a in batch {
        match a {
            WireAccess::Read { offset } => {
                b.push(0);
                b.extend_from_slice(&offset.to_le_bytes());
                b.extend_from_slice(&0u32.to_le_bytes());
            }
            WireAccess::Write { offset, value } => {
                b.push(1);
                b.extend_from_slice(&offset.to_le_bytes());
                b.extend_from_slice(&value.to_le_bytes());
            }
        }
    }
    b
}

/// Parses a batch from the wire.
pub fn decode_batch(bytes: &[u8]) -> Option<Vec<WireAccess>> {
    if bytes.len() < 4 {
        return None;
    }
    let n = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
    let mut out = Vec::with_capacity(n.min(4096));
    let mut pos = 4;
    for _ in 0..n {
        if pos + 9 > bytes.len() {
            return None;
        }
        let tag = bytes[pos];
        let offset = u32::from_le_bytes([
            bytes[pos + 1],
            bytes[pos + 2],
            bytes[pos + 3],
            bytes[pos + 4],
        ]);
        let value = u32::from_le_bytes([
            bytes[pos + 5],
            bytes[pos + 6],
            bytes[pos + 7],
            bytes[pos + 8],
        ]);
        pos += 9;
        out.push(match tag {
            0 => WireAccess::Read { offset },
            1 => WireAccess::Write { offset, value },
            _ => return None,
        });
    }
    Some(out)
}

/// The client-side shim.
pub struct GpuShim {
    clock: Rc<Clock>,
    gpu: Rc<RefCell<Gpu>>,
    mem: Rc<RefCell<Memory>>,
    tzasc: Rc<Tzasc>,
    monitor: Rc<SecureMonitor>,
    channel: SecureChannel,
    energy: Option<Rc<EnergyMeter>>,
    /// Last-synced content per up-sync region (for client→cloud deltas).
    /// Reference-counted so the cloud's sync layer can pin a baseline by
    /// sharing its own buffer instead of cloning it.
    up_baselines: HashMap<u64, Rc<Vec<u8>>>,
    /// Regions whose cleared dirty bits are known to match `up_baselines`
    /// (see `MemSync::dirty_trusted` for the invariant).
    up_trusted: HashSet<u64>,
    /// The TEE's hold on the GPU between [`GpuShim::lock_gpu`] and
    /// [`GpuShim::unlock_gpu`].
    hold: Option<GpuHold>,
    /// GPU draw while executing a job, in watts (Figure 9 model).
    pub gpu_active_watts: f64,
}

impl GpuShim {
    /// Creates the shim over the client's GPU and memory.
    pub fn new(
        clock: &Rc<Clock>,
        gpu: &Rc<RefCell<Gpu>>,
        mem: &Rc<RefCell<Memory>>,
        tzasc: &Rc<Tzasc>,
        monitor: &Rc<SecureMonitor>,
        channel_secret: &[u8],
    ) -> Self {
        GpuShim {
            clock: Rc::clone(clock),
            gpu: Rc::clone(gpu),
            mem: Rc::clone(mem),
            tzasc: Rc::clone(tzasc),
            monitor: Rc::clone(monitor),
            channel: SecureChannel::from_secret(channel_secret),
            energy: None,
            up_baselines: HashMap::new(),
            up_trusted: HashSet::new(),
            hold: None,
            gpu_active_watts: 2.0,
        }
    }

    /// Attaches the client energy meter.
    pub fn attach_energy(&mut self, meter: &Rc<EnergyMeter>) {
        self.energy = Some(Rc::clone(meter));
    }

    /// The client GPU handle (for tests and the replayer).
    pub fn gpu(&self) -> &Rc<RefCell<Gpu>> {
        &self.gpu
    }

    /// The client memory handle.
    pub fn mem(&self) -> &Rc<RefCell<Memory>> {
        &self.mem
    }

    /// The client end of the encrypted channel.
    pub fn channel(&mut self) -> &mut SecureChannel {
        &mut self.channel
    }

    /// Locks the GPU into the secure world through [`take_gpu`]: TZASC
    /// claim over MMIO, interrupt re-routing to the TEE and a hard reset
    /// (§7.1 "recording integrity"). Locking a GPU the shim already holds
    /// gives it back and takes it afresh.
    pub fn lock_gpu(&mut self) {
        self.unlock_gpu();
        self.hold = Some(take_gpu(&self.gpu, &self.tzasc, &self.monitor));
    }

    /// Releases the GPU back to the normal world by dropping its hold.
    pub fn unlock_gpu(&mut self) {
        self.hold = None;
    }

    /// True while the TEE holds the GPU.
    pub fn is_locked(&self) -> bool {
        self.hold.is_some()
    }

    /// Models the OP-TEE message path: cloud traffic arrives at the
    /// normal-world supplicant, which SMCs into the TEE and back (§6:
    /// communication "is forwarded through the normal-world OS").
    pub fn ree_hop(&mut self) {
        self.monitor.switch_to(World::Secure);
        self.monitor.switch_to(World::Normal);
    }

    /// Executes a committed access batch, returning read values in order.
    pub fn execute_batch(&mut self, batch: &[WireAccess]) -> Vec<u32> {
        let mut gpu = self.gpu.borrow_mut();
        let mut reads = Vec::new();
        for a in batch {
            // Each MMIO access costs on-chip time.
            self.clock.advance(SimTime::from_nanos(200));
            match a {
                WireAccess::Read { offset } => reads.push(gpu.read_reg(*offset)),
                WireAccess::Write { offset, value } => gpu.write_reg(*offset, *value),
            }
        }
        reads
    }

    /// Runs an offloaded polling loop locally (§4.3), fast-forwarding to
    /// hardware completion instead of burning host cycles.
    pub fn run_poll(&mut self, spec: &PollSpec) -> PollResult {
        let mut iters = 0;
        loop {
            iters += 1;
            self.clock.advance(SimTime::from_nanos(200));
            let raw = self.gpu.borrow_mut().read_reg(spec.reg);
            if spec.cond.satisfied(raw, spec.mask) {
                return PollResult {
                    iters,
                    final_val: raw,
                    satisfied: true,
                };
            }
            if iters >= spec.max_iters {
                return PollResult {
                    iters,
                    final_val: raw,
                    satisfied: false,
                };
            }
            self.clock.advance(SimTime::from_micros(spec.delay_us));
        }
    }

    /// Waits for an interrupt on `line`, delivering it through the secure
    /// monitor into the TEE. Returns the time waited, charging GPU energy
    /// for the busy interval. `None` if no interrupt will ever fire (a
    /// hang, reported to the cloud as an error).
    pub fn wait_irq(&mut self, line: IrqLine) -> Option<SimTime> {
        let at = self.gpu.borrow_mut().next_irq_at(line)?;
        let waited = self.clock.advance_to(at);
        if let Some(meter) = &self.energy {
            meter.add_energy(Rail::Gpu, self.gpu_active_watts * waited.as_secs_f64());
        }
        let irq_id = match line {
            IrqLine::Job => GPU_IRQ_IDS[0],
            IrqLine::Mmu => GPU_IRQ_IDS[1],
            IrqLine::Gpu => GPU_IRQ_IDS[2],
        };
        self.monitor.deliver_irq(irq_id);
        Some(waited)
    }

    /// Applies a cloud metastate delta at `pa` (length `len`) in place,
    /// using the current memory content as the delta base — exactly
    /// mirroring the cloud's encoder state.
    pub fn apply_mem_delta(
        &mut self,
        codec: &DeltaCodec,
        pa: u64,
        len: usize,
        delta: &[u8],
    ) -> Result<(), CorruptStream> {
        let mut mem = self.mem.borrow_mut();
        // Bounded: a forged delta cannot state a larger output than the
        // memory actually backing the region it claims to cover.
        let backed = mem.size().saturating_sub(pa as usize);
        let parsed = codec.parse_limited(delta, len.min(backed))?;
        apply_delta(&mut mem, pa, &parsed);
        Ok(())
    }

    /// Produces a client→cloud delta of the region at `pa` against the
    /// last up-sync, updating the baseline.
    ///
    /// If no page of the region was written since the baseline was pinned,
    /// the unchanged delta is synthesized without dumping the region —
    /// byte-identical to encoding the dump against itself.
    pub fn dump_up_delta(&mut self, codec: &DeltaCodec, pa: u64, len: usize) -> Vec<u8> {
        if self.up_trusted.contains(&pa) && !self.mem.borrow().any_dirty(pa, len) {
            if let Some(baseline) = self.up_baselines.get(&pa) {
                if baseline.len() == len {
                    return codec.encode_unchanged(len);
                }
            }
        }
        let current = self.mem.borrow().dump_range(pa, len);
        let baseline = self.up_baselines.entry(pa).or_default();
        let delta = codec.encode(baseline, &current);
        *baseline = Rc::new(current);
        self.mem.borrow_mut().clear_dirty(pa, len);
        self.up_trusted.insert(pa);
        delta
    }

    /// Clears up-sync baselines (new record run).
    pub fn reset_baselines(&mut self) {
        self.up_baselines.clear();
        self.up_trusted.clear();
    }

    /// Pins the up-sync baseline of the region at `pa` to `content` (both
    /// parties agree on the region right after a down-sync applies). The
    /// buffer is shared with the caller, not cloned.
    pub fn set_up_baseline(&mut self, pa: u64, content: Rc<Vec<u8>>) {
        self.mem.borrow_mut().clear_dirty(pa, content.len());
        self.up_trusted.insert(pa);
        self.up_baselines.insert(pa, content);
    }

    /// Copies the up-sync baselines (checkpoint capture); shared buffers,
    /// O(regions).
    pub fn up_baselines_snapshot(&self) -> HashMap<u64, Rc<Vec<u8>>> {
        self.up_baselines.clone()
    }

    /// Replaces the up-sync baselines (checkpoint rollback). Dirty bits
    /// cannot be rewound, so clean-skip trust is dropped until each region
    /// is re-dumped.
    pub fn restore_up_baselines(&mut self, baselines: HashMap<u64, Rc<Vec<u8>>>) {
        self.up_baselines = baselines;
        self.up_trusted.clear();
    }
}

impl std::fmt::Debug for GpuShim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GpuShim")
            .field("locked", &self.is_locked())
            .finish()
    }
}

/// The client mobile device: everything inside and around its TEE.
pub struct ClientDevice {
    /// Shared virtual clock.
    pub clock: Rc<Clock>,
    /// Shared counters.
    pub stats: Rc<Stats>,
    /// Client DRAM.
    pub mem: Rc<RefCell<Memory>>,
    /// The physical GPU.
    pub gpu: Rc<RefCell<Gpu>>,
    /// Address-space controller.
    pub tzasc: Rc<Tzasc>,
    /// Secure monitor.
    pub monitor: Rc<SecureMonitor>,
    /// GPUShim (the TEE module).
    pub shim: Rc<RefCell<GpuShim>>,
    /// Whole-device energy meter.
    pub energy: Rc<EnergyMeter>,
}

/// The provisioning secret shared by the cloud VM and client TEEs after
/// the attested handshake. Every record session derives its channel and
/// recording-signing keys from this, so recordings produced by any
/// session verify under one fleet-wide trust root (see
/// [`recording_trust_root`]).
pub const PROVISIONING_SECRET: &[u8] = b"grt-session-handshake";

/// The recording-verification key a client TEE holds: the key every
/// record session signs its recordings with. Serving-side components
/// (the `grt-serve` recording registry, fleet replay services) use this
/// to verify recordings without holding a live session.
pub fn recording_trust_root() -> KeyPair {
    KeyPair::derive(PROVISIONING_SECRET, "recording")
}

/// SoC base draw while the device is awake (Figure 9 calibration).
const SOC_BASE_WATTS: f64 = 0.22;

impl ClientDevice {
    /// Builds a client device around `sku`, on the given clock, with
    /// [`CLIENT_MEM_BYTES`] of DRAM — the protected carveout recordings
    /// may address.
    pub fn new(sku: GpuSku, clock: &Rc<Clock>, stats: &Rc<Stats>, channel_secret: &[u8]) -> Self {
        let mem = Rc::new(RefCell::new(Memory::new(CLIENT_MEM_BYTES)));
        let gpu = Rc::new(RefCell::new(Gpu::new(sku, clock, &mem)));
        let tzasc = Rc::new(Tzasc::new());
        let monitor = SecureMonitor::new(clock);
        let energy = EnergyMeter::new(clock);
        energy.set_power(Rail::Soc, SOC_BASE_WATTS);
        // The client CPU idles through most of a record run (the stack
        // runs in the cloud); GPUShim's message handling rides on top.
        energy.set_power(Rail::Cpu, 0.03);
        let mut shim = GpuShim::new(clock, &gpu, &mem, &tzasc, &monitor, channel_secret);
        shim.attach_energy(&energy);
        ClientDevice {
            clock: Rc::clone(clock),
            stats: Rc::clone(stats),
            mem,
            gpu,
            tzasc,
            monitor,
            shim: Rc::new(RefCell::new(shim)),
            energy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grt_gpu::regs::gpu_control as gc;
    use grt_tee::AccessDecision;

    fn shim() -> (Rc<Clock>, Rc<Tzasc>, GpuShim) {
        let clock = Clock::new();
        let mem = Rc::new(RefCell::new(Memory::new(4 << 20)));
        let gpu = Rc::new(RefCell::new(Gpu::new(GpuSku::mali_g71_mp8(), &clock, &mem)));
        let tzasc = Rc::new(Tzasc::new());
        let monitor = SecureMonitor::new(&clock);
        let s = GpuShim::new(&clock, &gpu, &mem, &tzasc, &monitor, b"secret");
        (clock, tzasc, s)
    }

    #[test]
    fn batch_wire_round_trip() {
        let batch = vec![
            WireAccess::Read { offset: 0x30 },
            WireAccess::Write {
                offset: 0x24,
                value: 0xFFFF_FFFF,
            },
            WireAccess::Read { offset: 0x0 },
        ];
        let bytes = encode_batch(&batch);
        assert_eq!(decode_batch(&bytes).unwrap(), batch);
        assert!(decode_batch(&bytes[..bytes.len() - 1]).is_none());
    }

    #[test]
    fn execute_batch_hits_gpu() {
        let (_c, _t, mut s) = shim();
        let reads = s.execute_batch(&[
            WireAccess::Write {
                offset: gc::GPU_IRQ_MASK,
                value: 0xABCD,
            },
            WireAccess::Read {
                offset: gc::GPU_IRQ_MASK,
            },
            WireAccess::Read { offset: gc::GPU_ID },
        ]);
        assert_eq!(reads, vec![0xABCD, 0x6000_0011]);
    }

    #[test]
    fn lock_blocks_normal_world_mmio() {
        let (_c, tzasc, mut s) = shim();
        s.lock_gpu();
        assert!(matches!(
            tzasc.check(World::Normal, GPU_MMIO_BASE + 0x30),
            AccessDecision::Denied { .. }
        ));
        s.unlock_gpu();
        assert_eq!(
            tzasc.check(World::Normal, GPU_MMIO_BASE + 0x30),
            AccessDecision::Allowed
        );
    }

    #[test]
    fn unlock_resets_gpu_state() {
        let (_c, _t, mut s) = shim();
        s.lock_gpu();
        s.execute_batch(&[WireAccess::Write {
            offset: gc::GPU_IRQ_MASK,
            value: 0xFF,
        }]);
        s.unlock_gpu();
        let reads = s.execute_batch(&[WireAccess::Read {
            offset: gc::GPU_IRQ_MASK,
        }]);
        assert_eq!(reads, vec![0]);
    }

    #[test]
    fn offloaded_poll_fast_forwards() {
        let (clock, _t, mut s) = shim();
        s.execute_batch(&[WireAccess::Write {
            offset: gc::GPU_COMMAND,
            value: gc::CMD_CLEAN_CACHES,
        }]);
        let t0 = clock.now();
        let r = s.run_poll(&PollSpec {
            reg: gc::GPU_IRQ_RAWSTAT,
            mask: gc::IRQ_CLEAN_CACHES_COMPLETED,
            cond: grt_gpu::PollCond::MaskedNonZero,
            max_iters: 100,
            delay_us: 5,
        });
        assert!(r.satisfied);
        assert!(r.iters > 1 && r.iters < 10);
        assert!((clock.now() - t0).as_micros() >= 25);
    }

    #[test]
    fn wait_irq_none_when_nothing_pending() {
        let (_c, _t, mut s) = shim();
        assert!(s.wait_irq(IrqLine::Job).is_none());
    }

    #[test]
    fn ree_hop_costs_two_world_switches() {
        let clock = Clock::new();
        let mem = Rc::new(RefCell::new(Memory::new(1 << 20)));
        let gpu = Rc::new(RefCell::new(Gpu::new(GpuSku::mali_g71_mp8(), &clock, &mem)));
        let tzasc = Rc::new(Tzasc::new());
        let monitor = SecureMonitor::new(&clock);
        let mut s = GpuShim::new(&clock, &gpu, &mem, &tzasc, &monitor, b"s");
        let t0 = clock.now();
        s.ree_hop();
        assert_eq!(monitor.switch_count(), 2);
        assert!(clock.now() > t0, "SMC transitions cost time");
        assert_eq!(monitor.current_world(), World::Normal);
    }

    #[test]
    fn mem_delta_round_trip() {
        let (_c, _t, mut s) = shim();
        let codec = grt_compress::DeltaCodec::new(4096);
        // Cloud side: old (zeros) -> new content.
        let old = vec![0u8; 8192];
        let mut new = old.clone();
        new[5000] = 0x77;
        let delta = codec.encode(&old, &new);
        s.apply_mem_delta(&codec, 0x10_0000, 8192, &delta).unwrap();
        assert_eq!(s.mem.borrow().dump_range(0x10_0000 + 5000, 1), vec![0x77]);
    }

    #[test]
    fn up_delta_tracks_baseline() {
        let (_c, _t, mut s) = shim();
        let codec = grt_compress::DeltaCodec::new(4096);
        let d1 = s.dump_up_delta(&codec, 0x2000, 4096);
        // Nothing changed since start: both deltas small; then mutate.
        s.mem.borrow_mut().restore_range(0x2000, &[9u8, 9, 9]);
        let d2 = s.dump_up_delta(&codec, 0x2000, 4096);
        let d3 = s.dump_up_delta(&codec, 0x2000, 4096);
        assert!(d2.len() >= d1.len());
        assert!(d3.len() <= d2.len());
    }
}
