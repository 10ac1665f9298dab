//! The GPU register map, mirroring the Mali Bifrost (kbase) layout.
//!
//! Offsets and bit definitions follow the open-source Bifrost kernel driver
//! closely enough that the driver crate reads like kbase; exact values only
//! matter for internal consistency. [`PollSpec`] describes a bounded
//! polling loop over one of these registers.

/// GPU control block (base `0x0000`).
pub mod gpu_control {
    /// GPU product/revision identifier.
    pub const GPU_ID: u32 = 0x000;
    /// L2 cache features.
    pub const L2_FEATURES: u32 = 0x004;
    /// Shader core features.
    pub const CORE_FEATURES: u32 = 0x008;
    /// Tiler features.
    pub const TILER_FEATURES: u32 = 0x00C;
    /// Memory-system features.
    pub const MEM_FEATURES: u32 = 0x010;
    /// MMU features (VA/PA bits).
    pub const MMU_FEATURES: u32 = 0x014;
    /// Bitmask of present address spaces.
    pub const AS_PRESENT: u32 = 0x018;
    /// Bitmask of present job slots.
    pub const JS_PRESENT: u32 = 0x01C;

    /// Raw interrupt status (unmasked).
    pub const GPU_IRQ_RAWSTAT: u32 = 0x020;
    /// Write-1-to-clear interrupt acknowledge.
    pub const GPU_IRQ_CLEAR: u32 = 0x024;
    /// Interrupt mask.
    pub const GPU_IRQ_MASK: u32 = 0x028;
    /// Masked interrupt status.
    pub const GPU_IRQ_STATUS: u32 = 0x02C;

    /// Command register (reset, cache maintenance, counters).
    pub const GPU_COMMAND: u32 = 0x030;
    /// Status register.
    pub const GPU_STATUS: u32 = 0x034;
    /// ID of the most recent cache-flush request; the paper singles this
    /// register out as nondeterministic (§7.3).
    pub const LATEST_FLUSH: u32 = 0x038;

    /// Performance-counter dump base address, low word.
    pub const PRFCNT_BASE_LO: u32 = 0x060;
    /// Performance-counter dump base address, high word.
    pub const PRFCNT_BASE_HI: u32 = 0x064;
    /// Performance-counter configuration (enable bits).
    pub const PRFCNT_CONFIG: u32 = 0x068;
    /// Job-manager counter enable mask.
    pub const PRFCNT_JM_EN: u32 = 0x06C;
    /// Shader-core counter enable mask.
    pub const PRFCNT_SHADER_EN: u32 = 0x070;
    /// Tiler counter enable mask.
    pub const PRFCNT_TILER_EN: u32 = 0x074;
    /// MMU/L2 counter enable mask.
    pub const PRFCNT_MMU_L2_EN: u32 = 0x07C;

    /// Thread limits used by the JIT.
    pub const THREAD_MAX_THREADS: u32 = 0x0A0;
    /// Maximum workgroup size.
    pub const THREAD_MAX_WORKGROUP_SIZE: u32 = 0x0A4;
    /// Maximum barrier size.
    pub const THREAD_MAX_BARRIER_SIZE: u32 = 0x0A8;
    /// Thread features word.
    pub const THREAD_FEATURES: u32 = 0x0AC;

    /// Texture feature words 0-3 (read during probe).
    pub const TEXTURE_FEATURES_0: u32 = 0x0B0;
    /// Per-job-slot feature words: `JS_FEATURES_N = 0x0C0 + n*4`.
    pub const JS0_FEATURES: u32 = 0x0C0;

    /// Present shader cores (low word).
    pub const SHADER_PRESENT_LO: u32 = 0x100;
    /// Present shader cores (high word).
    pub const SHADER_PRESENT_HI: u32 = 0x104;
    /// Present tiler units.
    pub const TILER_PRESENT_LO: u32 = 0x110;
    /// Present L2 slices.
    pub const L2_PRESENT_LO: u32 = 0x120;

    /// Powered-and-ready shader cores.
    pub const SHADER_READY_LO: u32 = 0x140;
    /// Powered-and-ready tiler.
    pub const TILER_READY_LO: u32 = 0x150;
    /// Powered-and-ready L2 slices.
    pub const L2_READY_LO: u32 = 0x160;

    /// Power-on command for shader cores.
    pub const SHADER_PWRON_LO: u32 = 0x180;
    /// Power-on command for the tiler.
    pub const TILER_PWRON_LO: u32 = 0x190;
    /// Power-on command for L2 slices.
    pub const L2_PWRON_LO: u32 = 0x1A0;

    /// Power-off command for shader cores.
    pub const SHADER_PWROFF_LO: u32 = 0x1C0;
    /// Power-off command for the tiler.
    pub const TILER_PWROFF_LO: u32 = 0x1D0;
    /// Power-off command for L2 slices.
    pub const L2_PWROFF_LO: u32 = 0x1E0;

    /// Cores currently in a power transition.
    pub const SHADER_PWRTRANS_LO: u32 = 0x200;
    /// Tiler power transition.
    pub const TILER_PWRTRANS_LO: u32 = 0x210;
    /// L2 power transition.
    pub const L2_PWRTRANS_LO: u32 = 0x220;

    /// Shader/MMU configuration quirk registers (read-modify-write during
    /// init, the paper's Listing 1(a) example).
    pub const SHADER_CONFIG: u32 = 0xF04;
    /// Tiler configuration quirks.
    pub const TILER_CONFIG: u32 = 0xF08;
    /// L2 / MMU configuration quirks.
    pub const L2_MMU_CONFIG: u32 = 0xF0C;

    /// GPU_IRQ bit: a GPU-global fault occurred.
    pub const IRQ_GPU_FAULT: u32 = 1 << 0;
    /// GPU_IRQ bit: soft/hard reset completed.
    pub const IRQ_RESET_COMPLETED: u32 = 1 << 8;
    /// GPU_IRQ bit: a single power domain finished transitioning.
    pub const IRQ_POWER_CHANGED_SINGLE: u32 = 1 << 9;
    /// GPU_IRQ bit: all requested power domains finished transitioning.
    pub const IRQ_POWER_CHANGED_ALL: u32 = 1 << 10;
    /// GPU_IRQ bit: a performance-counter sample completed.
    pub const IRQ_PRFCNT_SAMPLE_COMPLETED: u32 = 1 << 16;
    /// GPU_IRQ bit: cache clean/invalidate completed.
    pub const IRQ_CLEAN_CACHES_COMPLETED: u32 = 1 << 17;

    /// GPU_COMMAND: no-op.
    pub const CMD_NOP: u32 = 0x00;
    /// GPU_COMMAND: soft reset (preserves nothing but survives clocks).
    pub const CMD_SOFT_RESET: u32 = 0x01;
    /// GPU_COMMAND: hard reset.
    pub const CMD_HARD_RESET: u32 = 0x02;
    /// GPU_COMMAND: zero the performance counters.
    pub const CMD_PRFCNT_CLEAR: u32 = 0x03;
    /// GPU_COMMAND: dump the performance counters to PRFCNT_BASE.
    pub const CMD_PRFCNT_SAMPLE: u32 = 0x04;
    /// GPU_COMMAND: clean (write back) caches.
    pub const CMD_CLEAN_CACHES: u32 = 0x07;
    /// GPU_COMMAND: clean and invalidate caches.
    pub const CMD_CLEAN_INV_CACHES: u32 = 0x08;

    /// GPU_STATUS bit: a cache clean is in progress.
    pub const STATUS_CLEAN_ACTIVE: u32 = 1 << 0;
    /// GPU_STATUS bit: a reset is in progress.
    pub const STATUS_RESET_ACTIVE: u32 = 1 << 1;
}

/// Job control block (base `0x1000`).
pub mod job_control {
    /// Raw job interrupt status: bit *n* = job slot *n* done, bit *n*+16 =
    /// job slot *n* failed.
    pub const JOB_IRQ_RAWSTAT: u32 = 0x1000;
    /// Write-1-to-clear acknowledge.
    pub const JOB_IRQ_CLEAR: u32 = 0x1004;
    /// Interrupt mask.
    pub const JOB_IRQ_MASK: u32 = 0x1008;
    /// Masked interrupt status.
    pub const JOB_IRQ_STATUS: u32 = 0x100C;
    /// Per-slot active state.
    pub const JOB_IRQ_JS_STATE: u32 = 0x1010;

    /// Base of job slot `n`'s register window.
    pub const fn slot_base(n: u32) -> u32 {
        0x1800 + n * 0x80
    }

    /// Job chain head VA, low word (offset within a slot window).
    pub const JS_HEAD_LO: u32 = 0x00;
    /// Job chain head VA, high word.
    pub const JS_HEAD_HI: u32 = 0x04;
    /// Job chain tail VA, low word.
    pub const JS_TAIL_LO: u32 = 0x08;
    /// Job chain tail VA, high word.
    pub const JS_TAIL_HI: u32 = 0x0C;
    /// Core affinity mask, low word.
    pub const JS_AFFINITY_LO: u32 = 0x10;
    /// Core affinity mask, high word.
    pub const JS_AFFINITY_HI: u32 = 0x14;
    /// Slot configuration (address space, flush behaviour).
    pub const JS_CONFIG: u32 = 0x18;
    /// Command register for the slot.
    pub const JS_COMMAND: u32 = 0x20;
    /// Completion status of the last job on the slot.
    pub const JS_STATUS: u32 = 0x24;
    /// Flush ID the job was submitted with.
    pub const JS_FLUSH_ID_NEXT: u32 = 0x70;

    /// JS_COMMAND: no-op.
    pub const JS_CMD_NOP: u32 = 0;
    /// JS_COMMAND: start the chain at JS_HEAD.
    pub const JS_CMD_START: u32 = 1;
    /// JS_COMMAND: soft-stop at the next job boundary.
    pub const JS_CMD_SOFT_STOP: u32 = 2;
    /// JS_COMMAND: hard-stop immediately.
    pub const JS_CMD_HARD_STOP: u32 = 3;

    /// JS_STATUS: slot idle.
    pub const JS_STATUS_IDLE: u32 = 0x00;
    /// JS_STATUS: chain completed successfully.
    pub const JS_STATUS_DONE: u32 = 0x01;
    /// JS_STATUS: chain was soft/hard-stopped by the driver.
    pub const JS_STATUS_STOPPED: u32 = 0x03;
    /// JS_STATUS: chain is running.
    pub const JS_STATUS_ACTIVE: u32 = 0x08;
    /// JS_STATUS: configuration fault (e.g. shader compiled for a different
    /// SKU — the behaviour that makes recordings SKU-specific).
    pub const JS_STATUS_CONFIG_FAULT: u32 = 0x40;
    /// JS_STATUS: the job raised a data-abort through the GPU MMU.
    pub const JS_STATUS_JOB_BUS_FAULT: u32 = 0x48;
    /// JS_STATUS: malformed job descriptor.
    pub const JS_STATUS_BAD_DESCRIPTOR: u32 = 0x4C;
}

/// MMU / address-space block (base `0x2000`).
pub mod mmu_control {
    /// Raw MMU interrupt status: bit *n* = page fault on AS *n*.
    pub const MMU_IRQ_RAWSTAT: u32 = 0x2000;
    /// Write-1-to-clear acknowledge.
    pub const MMU_IRQ_CLEAR: u32 = 0x2004;
    /// Interrupt mask.
    pub const MMU_IRQ_MASK: u32 = 0x2008;
    /// Masked interrupt status.
    pub const MMU_IRQ_STATUS: u32 = 0x200C;

    /// Base of address space `n`'s register window.
    pub const fn as_base(n: u32) -> u32 {
        0x2400 + n * 0x40
    }

    /// Page-table root physical address, low word (offset within AS window).
    pub const AS_TRANSTAB_LO: u32 = 0x00;
    /// Page-table root physical address, high word.
    pub const AS_TRANSTAB_HI: u32 = 0x04;
    /// Memory attributes.
    pub const AS_MEMATTR_LO: u32 = 0x08;
    /// Memory attributes (high).
    pub const AS_MEMATTR_HI: u32 = 0x0C;
    /// Region lock address for flushes.
    pub const AS_LOCKADDR_LO: u32 = 0x10;
    /// Region lock address (high).
    pub const AS_LOCKADDR_HI: u32 = 0x14;
    /// AS command register.
    pub const AS_COMMAND: u32 = 0x18;
    /// Fault status for the last MMU fault on this AS.
    pub const AS_FAULTSTATUS: u32 = 0x1C;
    /// Faulting VA, low word.
    pub const AS_FAULTADDRESS_LO: u32 = 0x20;
    /// Faulting VA, high word.
    pub const AS_FAULTADDRESS_HI: u32 = 0x24;
    /// AS status; bit 0 = command in progress.
    pub const AS_STATUS: u32 = 0x28;

    /// AS_COMMAND: no-op.
    pub const AS_CMD_NOP: u32 = 0;
    /// AS_COMMAND: latch TRANSTAB/MEMATTR into the live walker.
    pub const AS_CMD_UPDATE: u32 = 1;
    /// AS_COMMAND: lock the region at AS_LOCKADDR.
    pub const AS_CMD_LOCK: u32 = 2;
    /// AS_COMMAND: unlock.
    pub const AS_CMD_UNLOCK: u32 = 3;
    /// AS_COMMAND: flush page-table walk caches.
    pub const AS_CMD_FLUSH_PT: u32 = 4;
    /// AS_COMMAND: flush page-table caches and memory.
    pub const AS_CMD_FLUSH_MEM: u32 = 5;

    /// AS_STATUS bit: an AS command is in flight.
    pub const AS_STATUS_ACTIVE: u32 = 1 << 0;
}

/// Loop-exit condition of a simple polling loop (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollCond {
    /// Exit when `(reg & mask) == 0`.
    MaskedZero,
    /// Exit when `(reg & mask) != 0`.
    MaskedNonZero,
    /// Exit when `(reg & mask) == value`.
    MaskedEq(u32),
}

impl PollCond {
    /// Evaluates the exit condition against a read value.
    pub fn satisfied(&self, raw: u32, mask: u32) -> bool {
        let v = raw & mask;
        match self {
            PollCond::MaskedZero => v == 0,
            PollCond::MaskedNonZero => v != 0,
            PollCond::MaskedEq(x) => v == *x,
        }
    }
}

/// A simple polling loop, statically extracted per §4.3: idempotent body,
/// local iteration count, no kernel APIs inside.
#[derive(Debug, Clone, Copy)]
pub struct PollSpec {
    /// Register polled.
    pub reg: u32,
    /// Mask applied before the comparison.
    pub mask: u32,
    /// Exit condition.
    pub cond: PollCond,
    /// Maximum iterations before giving up (`MAX_LOOP` in Listing 2).
    pub max_iters: u32,
    /// Per-iteration delay in microseconds (the loop's `udelay`).
    pub delay_us: u64,
}

/// The outcome of a polling loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PollResult {
    /// Iterations executed (1 = condition already true at first read).
    pub iters: u32,
    /// The final value read from the register.
    pub final_val: u32,
    /// Whether the exit condition was met within `max_iters`.
    pub satisfied: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_windows_do_not_overlap() {
        for n in 0..3u32 {
            let base = job_control::slot_base(n);
            let next = job_control::slot_base(n + 1);
            assert!(base + job_control::JS_FLUSH_ID_NEXT < next);
        }
    }

    #[test]
    fn as_windows_do_not_overlap() {
        for n in 0..7u32 {
            assert!(mmu_control::as_base(n) + mmu_control::AS_STATUS < mmu_control::as_base(n + 1));
        }
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // Pins the register-map layout.
    fn blocks_are_disjoint() {
        assert!(gpu_control::L2_MMU_CONFIG < job_control::JOB_IRQ_RAWSTAT);
        assert!(job_control::slot_base(15) + 0x80 <= mmu_control::MMU_IRQ_RAWSTAT + 0x2000);
        assert!(job_control::JOB_IRQ_RAWSTAT < mmu_control::MMU_IRQ_RAWSTAT);
    }

    #[test]
    fn poll_cond_semantics() {
        assert!(PollCond::MaskedZero.satisfied(0xF0, 0x0F));
        assert!(!PollCond::MaskedZero.satisfied(0x01, 0x0F));
        assert!(PollCond::MaskedNonZero.satisfied(0x01, 0x0F));
        assert!(PollCond::MaskedEq(0x0A).satisfied(0xFA, 0x0F));
        assert!(!PollCond::MaskedEq(0x0A).satisfied(0xFB, 0x0F));
    }
}
