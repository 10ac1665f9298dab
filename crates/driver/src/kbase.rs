//! A kbase-style Mali GPU kernel driver written against [`RegPort`].
//!
//! The structure mirrors the open-source Bifrost driver: probe (hardware
//! discovery), quirk configuration (the paper's Listing 1(a)), a power
//! state machine, MMU/address-space management with lock/flush/unlock
//! polling sequences, and job submission/IRQ handling (Listing 1(b)). All
//! register traffic flows through the port, so the same driver runs
//! natively (`DirectPort`) or under GR-T's DriverShim.
//!
//! The driver enforces **job queue length 1** (§5): one job chain in flight
//! per submission, so the CPU and GPU never touch shared memory
//! concurrently — the property GR-T's memory synchronization relies on.

use crate::loc;
use crate::port::{LockId, RegPort, RegVal};
use crate::regions::{PageAlloc, Region, RegionTable, Usage};
use grt_gpu::mem::{Accessor, Memory, PAGE_SIZE};
use grt_gpu::mmu::{map_page, PteFlags};
use grt_gpu::regs::{gpu_control as gc, job_control as jc, mmu_control as mc};
use grt_gpu::{GpuSku, PollCond, PollSpec};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// Quirk bits the driver ORs into the config registers during init.
const SHADER_QUIRK: u32 = 1 << 16;
const TILER_QUIRK: u32 = 1 << 4;
const MMU_ALLOW_SNOOP_DISPARITY: u32 = 0x10;

/// Driver-level failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriverError {
    /// The probed `GPU_ID` does not match the device tree.
    WrongGpu {
        /// ID the hardware reported.
        found: u32,
        /// ID the device tree expects.
        expected: u32,
    },
    /// A polling loop exhausted its iteration budget.
    Timeout(&'static str),
    /// A job slot was still active (queue-length-1 violation).
    SlotBusy,
    /// The GPU reported a job fault (`JS_STATUS` code).
    JobFault(u32),
    /// Physical memory exhausted.
    OutOfMemory,
    /// Driver invoked before a successful probe.
    NotProbed,
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::WrongGpu { found, expected } => {
                write!(
                    f,
                    "GPU_ID {found:#x} does not match device tree {expected:#x}"
                )
            }
            DriverError::Timeout(what) => write!(f, "timeout waiting for {what}"),
            DriverError::SlotBusy => write!(f, "job slot busy (queue length 1)"),
            DriverError::JobFault(code) => write!(f, "job fault, JS_STATUS={code:#x}"),
            DriverError::OutOfMemory => write!(f, "out of GPU physical memory"),
            DriverError::NotProbed => write!(f, "driver not probed"),
        }
    }
}

impl std::error::Error for DriverError {}

/// Hardware properties discovered at probe time.
///
/// Values are kept as [`RegVal`]s so that, under deferral, the whole probe
/// batches into a handful of commits; they are resolved lazily at first
/// use, exactly like the instrumented kbase.
#[derive(Debug, Clone)]
pub struct GpuProps {
    /// Product/revision id.
    pub gpu_id: u32,
    /// Present shader cores.
    pub shader_present: RegVal,
    /// Present tiler units.
    pub tiler_present: RegVal,
    /// Present L2 slices.
    pub l2_present: RegVal,
    /// Present job slots.
    pub js_present: RegVal,
    /// Present address spaces.
    pub as_present: RegVal,
}

/// A decoded performance-counter sample (kbase's PRFCNT dump).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerfSample {
    /// GPU cycles since the last clear.
    pub cycles: u64,
    /// Jobs completed since the last clear.
    pub jobs: u32,
    /// Multiply-accumulates executed since the last clear.
    pub macs: u64,
    /// Flush-ID at sample time.
    pub flush_id: u32,
}

/// Outcome of a job interrupt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobIrqOutcome {
    /// The interrupt was not for us (shared IRQ line).
    Spurious,
    /// The chain on the slot completed successfully.
    Done,
    /// The chain faulted with this `JS_STATUS` code.
    Failed(u32),
}

/// The driver instance.
pub struct KbaseDriver<P: RegPort> {
    port: Rc<P>,
    mem: Rc<RefCell<Memory>>,
    devtree: GpuSku,
    regions: Rc<RefCell<RegionTable>>,
    alloc: PageAlloc,
    /// Pool of page-table pages (one contiguous metastate region).
    table_pool: PageAlloc,
    root_pa: u64,
    va_next: u64,
    props: Option<GpuProps>,
    powered: bool,
    jobs_submitted: u64,
    /// Software queue-length-1 tracking (kbase knows what it submitted; it
    /// does not poll the slot to discover idleness).
    slot_busy: bool,
    /// Lazily allocated performance-counter dump buffer.
    prfcnt_va: Option<u64>,
}

impl<P: RegPort> fmt::Debug for KbaseDriver<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KbaseDriver")
            .field("devtree", &self.devtree.name)
            .field("powered", &self.powered)
            .field("jobs_submitted", &self.jobs_submitted)
            .finish()
    }
}

/// Size of the page-table pool in pages.
const TABLE_POOL_PAGES: usize = 256;
/// Base GPU VA at which regions are mapped.
const VA_BASE: u64 = 0x0000_0041_0000_0000 & 0x0000_7FFF_FFFF_F000;

impl<P: RegPort> KbaseDriver<P> {
    /// Creates a driver for the GPU described by `devtree`, managing the
    /// physical range `[phys_base, phys_base + phys_len)` of `mem`.
    pub fn new(
        port: &Rc<P>,
        mem: &Rc<RefCell<Memory>>,
        devtree: GpuSku,
        phys_base: u64,
        phys_len: u64,
    ) -> Self {
        let mut alloc = PageAlloc::new(phys_base, phys_len);
        if phys_base == 0 {
            // PA 0 means "AS disabled" in the TRANSTAB register; keep a
            // guard page so no table or region ever lands there.
            let _ = alloc.alloc_pages(1);
        }
        let table_pool_base = alloc
            .alloc_pages(TABLE_POOL_PAGES)
            .expect("physical range too small for table pool");
        let mut table_pool = PageAlloc::new(table_pool_base, (TABLE_POOL_PAGES * PAGE_SIZE) as u64);
        let root_pa = table_pool.alloc_pages(1).expect("table pool sized above");
        let regions = Rc::new(RefCell::new(RegionTable::new()));
        regions.borrow_mut().insert(Region {
            va: 0,
            pa: table_pool_base,
            pages: TABLE_POOL_PAGES,
            gpu_flags: PteFlags::ro(),
            usage: Usage::PageTable,
            nominal_bytes: (TABLE_POOL_PAGES * PAGE_SIZE) as u64,
        });
        KbaseDriver {
            port: Rc::clone(port),
            mem: Rc::clone(mem),
            devtree,
            regions,
            alloc,
            table_pool,
            root_pa,
            va_next: VA_BASE,
            props: None,
            powered: false,
            jobs_submitted: 0,
            slot_busy: false,
            prfcnt_va: None,
        }
    }

    /// The region table, shared with shims and the runtime.
    pub fn regions(&self) -> Rc<RefCell<RegionTable>> {
        Rc::clone(&self.regions)
    }

    /// The driver's view of shared memory.
    pub fn mem(&self) -> Rc<RefCell<Memory>> {
        Rc::clone(&self.mem)
    }

    /// Physical address of the AS0 page-table root.
    pub fn root_pa(&self) -> u64 {
        self.root_pa
    }

    /// The expected SKU (device tree).
    pub fn devtree(&self) -> &GpuSku {
        &self.devtree
    }

    /// Number of job chains submitted so far.
    pub fn jobs_submitted(&self) -> u64 {
        self.jobs_submitted
    }

    /// Discovered properties (after probe).
    pub fn props(&self) -> Result<&GpuProps, DriverError> {
        self.props.as_ref().ok_or(DriverError::NotProbed)
    }

    // ----------------------------------------------------------------
    // Probe & init.
    // ----------------------------------------------------------------

    /// Probes and initializes the GPU: reset, identity check, hardware
    /// discovery, quirk configuration, and AS0 setup.
    pub fn probe(&mut self) -> Result<(), DriverError> {
        self.soft_reset()?;
        let p = &self.port;
        p.enter_hot("kbase_gpuprops_get_props");
        let gpu_id = p.read(loc!(), gc::GPU_ID);
        let gpu_id = p.resolve(loc!(), &gpu_id);
        if gpu_id != self.devtree.gpu_id {
            p.externalize("dev_err: GPU_ID mismatch");
            p.exit_hot("kbase_gpuprops_get_props");
            return Err(DriverError::WrongGpu {
                found: gpu_id,
                expected: self.devtree.gpu_id,
            });
        }
        // Hardware discovery: the recurring "Init" segment of Figure 8.
        let _l2 = p.read(loc!(), gc::L2_FEATURES);
        let _core = p.read(loc!(), gc::CORE_FEATURES);
        let _tiler = p.read(loc!(), gc::TILER_FEATURES);
        let _memf = p.read(loc!(), gc::MEM_FEATURES);
        let _mmuf = p.read(loc!(), gc::MMU_FEATURES);
        let as_present = p.read(loc!(), gc::AS_PRESENT);
        let js_present = p.read(loc!(), gc::JS_PRESENT);
        let _t0 = p.read(loc!(), gc::THREAD_MAX_THREADS);
        let _t1 = p.read(loc!(), gc::THREAD_MAX_WORKGROUP_SIZE);
        let _t2 = p.read(loc!(), gc::THREAD_MAX_BARRIER_SIZE);
        let _t3 = p.read(loc!(), gc::THREAD_FEATURES);
        for i in 0..4 {
            let _tex = p.read(loc!(), gc::TEXTURE_FEATURES_0 + i * 4);
        }
        for i in 0..16 {
            let _jsf = p.read(loc!(), gc::JS0_FEATURES + i * 4);
        }
        let shader_present = p.read(loc!(), gc::SHADER_PRESENT_LO);
        let _shader_hi = p.read(loc!(), gc::SHADER_PRESENT_HI);
        let tiler_present = p.read(loc!(), gc::TILER_PRESENT_LO);
        let l2_present = p.read(loc!(), gc::L2_PRESENT_LO);
        p.exit_hot("kbase_gpuprops_get_props");

        self.props = Some(GpuProps {
            gpu_id,
            shader_present,
            tiler_present,
            l2_present,
            js_present,
            as_present,
        });

        self.set_hw_quirks();
        self.setup_as0()?;

        // Unmask all interrupt lines.
        let p = &self.port;
        p.enter_hot("kbase_install_interrupts");
        p.write(loc!(), gc::GPU_IRQ_MASK, RegVal::from(!0u32));
        p.write(loc!(), jc::JOB_IRQ_MASK, RegVal::from(!0u32));
        p.write(loc!(), mc::MMU_IRQ_MASK, RegVal::from(!0u32));
        p.exit_hot("kbase_install_interrupts");
        Ok(())
    }

    /// Configures hardware quirk registers — the paper's Listing 1(a):
    /// read-modify-write with data dependencies on deferred reads.
    fn set_hw_quirks(&mut self) {
        let p = &self.port;
        p.enter_hot("kbase_hw_set_issues_mask");
        let qrk_shader = p.read(loc!(), gc::SHADER_CONFIG);
        let qrk_tiler = p.read(loc!(), gc::TILER_CONFIG);
        let qrk_mmu = p.read(loc!(), gc::L2_MMU_CONFIG);
        p.write(loc!(), gc::SHADER_CONFIG, qrk_shader | SHADER_QUIRK);
        p.write(loc!(), gc::TILER_CONFIG, qrk_tiler | TILER_QUIRK);
        p.write(
            loc!(),
            gc::L2_MMU_CONFIG,
            qrk_mmu | MMU_ALLOW_SNOOP_DISPARITY,
        );
        p.exit_hot("kbase_hw_set_issues_mask");
    }

    /// Soft-resets the GPU and waits for completion.
    pub fn soft_reset(&mut self) -> Result<(), DriverError> {
        let p = &self.port;
        p.enter_hot("kbase_gpu_soft_reset");
        p.lock(LockId::HwAccess);
        p.write(loc!(), gc::GPU_IRQ_CLEAR, RegVal::from(!0u32));
        p.write(loc!(), gc::GPU_COMMAND, RegVal::from(gc::CMD_SOFT_RESET));
        let r = p.poll(
            loc!(),
            PollSpec {
                reg: gc::GPU_IRQ_RAWSTAT,
                mask: gc::IRQ_RESET_COMPLETED,
                cond: PollCond::MaskedNonZero,
                max_iters: 200,
                delay_us: 10,
            },
        );
        p.write(
            loc!(),
            gc::GPU_IRQ_CLEAR,
            RegVal::from(gc::IRQ_RESET_COMPLETED),
        );
        p.unlock(LockId::HwAccess);
        p.exit_hot("kbase_gpu_soft_reset");
        self.powered = false;
        if !r.satisfied {
            p.externalize("dev_err: reset timeout");
            return Err(DriverError::Timeout("soft reset"));
        }
        Ok(())
    }

    // ----------------------------------------------------------------
    // Power management.
    // ----------------------------------------------------------------

    /// Powers on L2, shader cores, and tiler (the recurring "Power state"
    /// segment of Figure 8).
    pub fn power_up(&mut self) -> Result<(), DriverError> {
        let props = self.props.clone().ok_or(DriverError::NotProbed)?;
        let p = &self.port;
        p.enter_hot("kbase_pm_do_poweron");
        p.lock(LockId::Pm);
        let l2_mask = p.resolve(loc!(), &props.l2_present);
        p.write(loc!(), gc::L2_PWRON_LO, RegVal::from(l2_mask));
        let r = p.poll(
            loc!(),
            PollSpec {
                reg: gc::L2_READY_LO,
                mask: !0,
                cond: PollCond::MaskedEq(l2_mask),
                max_iters: 200,
                delay_us: 10,
            },
        );
        if !r.satisfied {
            p.unlock(LockId::Pm);
            p.exit_hot("kbase_pm_do_poweron");
            return Err(DriverError::Timeout("L2 power-up"));
        }
        let shader_mask = p.resolve(loc!(), &props.shader_present);
        p.write(loc!(), gc::SHADER_PWRON_LO, RegVal::from(shader_mask));
        let r = p.poll(
            loc!(),
            PollSpec {
                reg: gc::SHADER_READY_LO,
                mask: !0,
                cond: PollCond::MaskedEq(shader_mask),
                max_iters: 200,
                delay_us: 10,
            },
        );
        if !r.satisfied {
            p.unlock(LockId::Pm);
            p.exit_hot("kbase_pm_do_poweron");
            return Err(DriverError::Timeout("shader power-up"));
        }
        let tiler_mask = p.resolve(loc!(), &props.tiler_present);
        p.write(loc!(), gc::TILER_PWRON_LO, RegVal::from(tiler_mask));
        let r = p.poll(
            loc!(),
            PollSpec {
                reg: gc::TILER_READY_LO,
                mask: !0,
                cond: PollCond::MaskedEq(tiler_mask),
                max_iters: 200,
                delay_us: 10,
            },
        );
        p.write(
            loc!(),
            gc::GPU_IRQ_CLEAR,
            RegVal::from(gc::IRQ_POWER_CHANGED_ALL | gc::IRQ_POWER_CHANGED_SINGLE),
        );
        p.unlock(LockId::Pm);
        p.exit_hot("kbase_pm_do_poweron");
        if !r.satisfied {
            return Err(DriverError::Timeout("tiler power-up"));
        }
        self.powered = true;
        Ok(())
    }

    /// Powers everything off.
    pub fn power_down(&mut self) -> Result<(), DriverError> {
        let p = &self.port;
        p.enter_hot("kbase_pm_do_poweroff");
        p.lock(LockId::Pm);
        p.write(loc!(), gc::SHADER_PWROFF_LO, RegVal::from(!0u32));
        p.write(loc!(), gc::TILER_PWROFF_LO, RegVal::from(!0u32));
        let r = p.poll(
            loc!(),
            PollSpec {
                reg: gc::SHADER_READY_LO,
                mask: !0,
                cond: PollCond::MaskedZero,
                max_iters: 200,
                delay_us: 10,
            },
        );
        p.write(loc!(), gc::L2_PWROFF_LO, RegVal::from(!0u32));
        let r2 = p.poll(
            loc!(),
            PollSpec {
                reg: gc::L2_READY_LO,
                mask: !0,
                cond: PollCond::MaskedZero,
                max_iters: 200,
                delay_us: 10,
            },
        );
        p.write(
            loc!(),
            gc::GPU_IRQ_CLEAR,
            RegVal::from(gc::IRQ_POWER_CHANGED_ALL | gc::IRQ_POWER_CHANGED_SINGLE),
        );
        p.unlock(LockId::Pm);
        p.exit_hot("kbase_pm_do_poweroff");
        self.powered = false;
        if !r.satisfied || !r2.satisfied {
            return Err(DriverError::Timeout("power-down"));
        }
        Ok(())
    }

    /// Periodic power-state bookkeeping (runs around each job, producing
    /// the "Power state" recurring register traffic).
    pub fn pm_idle_tick(&mut self) {
        let p = &self.port;
        p.enter_hot("kbase_pm_update_state");
        p.lock(LockId::Pm);
        let trans = p.read(loc!(), gc::SHADER_PWRTRANS_LO);
        let l2trans = p.read(loc!(), gc::L2_PWRTRANS_LO);
        let combined = trans | l2trans;
        if p.truthy(loc!(), &combined) {
            // A transition is still in flight; re-read status.
            let _st = p.read(loc!(), gc::GPU_STATUS);
        }
        p.unlock(LockId::Pm);
        p.exit_hot("kbase_pm_update_state");
    }

    /// Whether the power domains are up.
    pub fn is_powered(&self) -> bool {
        self.powered
    }

    /// Samples power/utilization state for the PM metrics subsystem —
    /// kbase does this around every job; pure data-flow reads that defer
    /// beautifully into a single commit.
    pub fn pm_metrics_sample(&mut self) {
        let p = &self.port;
        p.enter_hot("kbase_pm_metrics_update");
        p.lock(LockId::Pm);
        let _st = p.read(loc!(), gc::GPU_STATUS);
        let _sr = p.read(loc!(), gc::SHADER_READY_LO);
        let _lr = p.read(loc!(), gc::L2_READY_LO);
        let _tr = p.read(loc!(), gc::TILER_READY_LO);
        let _ts = p.read(loc!(), gc::SHADER_PWRTRANS_LO);
        let _js = p.read(loc!(), jc::JOB_IRQ_JS_STATE);
        p.unlock(LockId::Pm);
        p.exit_hot("kbase_pm_metrics_update");
    }

    // ----------------------------------------------------------------
    // MMU management.
    // ----------------------------------------------------------------

    /// Programs AS0 with the page-table root and latches it.
    fn setup_as0(&mut self) -> Result<(), DriverError> {
        let root = self.root_pa;
        let p = &self.port;
        p.enter_hot("kbase_mmu_update");
        p.lock(LockId::Mmu);
        let base = mc::as_base(0);
        p.write(loc!(), base + mc::AS_TRANSTAB_LO, RegVal::from(root as u32));
        p.write(
            loc!(),
            base + mc::AS_TRANSTAB_HI,
            RegVal::from((root >> 32) as u32),
        );
        p.write(loc!(), base + mc::AS_MEMATTR_LO, RegVal::from(0x8848_8848));
        p.write(loc!(), base + mc::AS_MEMATTR_HI, RegVal::from(0x8848_8848));
        p.write(
            loc!(),
            base + mc::AS_COMMAND,
            RegVal::from(mc::AS_CMD_UPDATE),
        );
        let r = p.poll(
            loc!(),
            PollSpec {
                reg: base + mc::AS_STATUS,
                mask: mc::AS_STATUS_ACTIVE,
                cond: PollCond::MaskedZero,
                max_iters: 100,
                delay_us: 2,
            },
        );
        p.unlock(LockId::Mmu);
        p.exit_hot("kbase_mmu_update");
        if !r.satisfied {
            return Err(DriverError::Timeout("AS update"));
        }
        Ok(())
    }

    /// Lock/flush/unlock sequence over a VA range — the paper's Listing 2
    /// polling-loop pattern, three loops per invocation.
    pub fn mmu_flush_range(&mut self, va: u64, pages: usize) -> Result<(), DriverError> {
        let p = &self.port;
        p.enter_hot("kbase_mmu_hw_do_operation");
        p.lock(LockId::Mmu);
        let base = mc::as_base(0);
        let log2 = (pages.max(1) * PAGE_SIZE)
            .next_power_of_two()
            .trailing_zeros();
        let lockaddr = va | log2 as u64;
        p.write(
            loc!(),
            base + mc::AS_LOCKADDR_LO,
            RegVal::from(lockaddr as u32),
        );
        p.write(
            loc!(),
            base + mc::AS_LOCKADDR_HI,
            RegVal::from((lockaddr >> 32) as u32),
        );
        for cmd in [mc::AS_CMD_LOCK, mc::AS_CMD_FLUSH_MEM, mc::AS_CMD_UNLOCK] {
            p.write(loc!(), base + mc::AS_COMMAND, RegVal::from(cmd));
            let r = p.poll(
                loc!(),
                PollSpec {
                    reg: base + mc::AS_STATUS,
                    mask: mc::AS_STATUS_ACTIVE,
                    cond: PollCond::MaskedZero,
                    max_iters: 100,
                    delay_us: 2,
                },
            );
            if !r.satisfied {
                p.unlock(LockId::Mmu);
                p.exit_hot("kbase_mmu_hw_do_operation");
                return Err(DriverError::Timeout("AS command"));
            }
        }
        p.unlock(LockId::Mmu);
        p.exit_hot("kbase_mmu_hw_do_operation");
        Ok(())
    }

    /// Allocates and maps a GPU region (ioctl `MEM_ALLOC` equivalent).
    ///
    /// Returns the region's GPU VA. `nominal_bytes` carries the
    /// paper-scale footprint for sync accounting (pass `None` to use the
    /// backing size).
    pub fn alloc_region(
        &mut self,
        pages: usize,
        gpu_flags: PteFlags,
        usage: Usage,
        nominal_bytes: Option<u64>,
    ) -> Result<u64, DriverError> {
        let pa = self
            .alloc
            .alloc_pages(pages)
            .ok_or(DriverError::OutOfMemory)?;
        let va = self.va_next;
        self.va_next += (pages * PAGE_SIZE) as u64;
        {
            let mut mem = self.mem.borrow_mut();
            let quirk = self.devtree.pte_quirk;
            let root = self.root_pa;
            let pool = &mut self.table_pool;
            for i in 0..pages {
                map_page(
                    &mut mem,
                    root,
                    va + (i * PAGE_SIZE) as u64,
                    pa + (i * PAGE_SIZE) as u64,
                    gpu_flags,
                    quirk,
                    &mut || pool.alloc_pages(1).expect("table pool exhausted"),
                )
                .expect("page-table write within managed memory");
            }
        }
        self.regions.borrow_mut().insert(Region {
            va,
            pa,
            pages,
            gpu_flags,
            usage,
            nominal_bytes: nominal_bytes.unwrap_or((pages * PAGE_SIZE) as u64),
        });
        // Make the new translations visible to the walker.
        self.mmu_flush_range(va, pages)?;
        Ok(va)
    }

    /// CPU-side write into a mapped region.
    pub fn copy_to_gpu(&self, va: u64, data: &[u8]) -> Result<(), DriverError> {
        let regions = self.regions.borrow();
        let r = regions.find_va(va).ok_or(DriverError::OutOfMemory)?;
        let pa = r.va_to_pa(va).ok_or(DriverError::OutOfMemory)?;
        self.mem
            .borrow_mut()
            .write(pa, data, Accessor::Cpu)
            .map_err(|_| DriverError::OutOfMemory)
    }

    /// CPU-side read from a mapped region.
    pub fn copy_from_gpu(&self, va: u64, len: usize) -> Result<Vec<u8>, DriverError> {
        let regions = self.regions.borrow();
        let r = regions.find_va(va).ok_or(DriverError::OutOfMemory)?;
        let pa = r.va_to_pa(va).ok_or(DriverError::OutOfMemory)?;
        let mut buf = vec![0u8; len];
        self.mem
            .borrow_mut()
            .read(pa, &mut buf, Accessor::Cpu)
            .map_err(|_| DriverError::OutOfMemory)?;
        Ok(buf)
    }

    // ----------------------------------------------------------------
    // Performance counters.
    // ----------------------------------------------------------------

    /// Samples the GPU performance counters into a driver-owned dump
    /// buffer and decodes them — kbase's `kbase_instr_hwcnt_dump`
    /// sequence: configure the dump address and enable masks, issue
    /// `PRFCNT_SAMPLE`, poll the completion interrupt, read the dump.
    pub fn prfcnt_dump(&mut self) -> Result<PerfSample, DriverError> {
        // A one-page dump buffer, allocated lazily and reused.
        let dump_va = match self.prfcnt_va {
            Some(va) => va,
            None => {
                let va = self.alloc_region(1, PteFlags::rw(), Usage::Scratch, None)?;
                self.prfcnt_va = Some(va);
                va
            }
        };
        let dump_pa = {
            let regions = self.regions.borrow();
            regions
                .find_va(dump_va)
                .and_then(|r| r.va_to_pa(dump_va))
                .ok_or(DriverError::OutOfMemory)?
        };
        let p = &self.port;
        p.enter_hot("kbase_instr_hwcnt_dump");
        p.lock(LockId::HwAccess);
        p.write(loc!(), gc::PRFCNT_BASE_LO, RegVal::from(dump_pa as u32));
        p.write(
            loc!(),
            gc::PRFCNT_BASE_HI,
            RegVal::from((dump_pa >> 32) as u32),
        );
        p.write(loc!(), gc::PRFCNT_CONFIG, RegVal::from(1));
        p.write(loc!(), gc::PRFCNT_JM_EN, RegVal::from(!0u32));
        p.write(loc!(), gc::PRFCNT_SHADER_EN, RegVal::from(!0u32));
        p.write(loc!(), gc::PRFCNT_TILER_EN, RegVal::from(!0u32));
        p.write(loc!(), gc::PRFCNT_MMU_L2_EN, RegVal::from(!0u32));
        p.write(loc!(), gc::GPU_COMMAND, RegVal::from(gc::CMD_PRFCNT_SAMPLE));
        let r = p.poll(
            loc!(),
            PollSpec {
                reg: gc::GPU_IRQ_RAWSTAT,
                mask: gc::IRQ_PRFCNT_SAMPLE_COMPLETED,
                cond: PollCond::MaskedNonZero,
                max_iters: 100,
                delay_us: 5,
            },
        );
        p.write(
            loc!(),
            gc::GPU_IRQ_CLEAR,
            RegVal::from(gc::IRQ_PRFCNT_SAMPLE_COMPLETED),
        );
        p.unlock(LockId::HwAccess);
        p.exit_hot("kbase_instr_hwcnt_dump");
        if !r.satisfied {
            return Err(DriverError::Timeout("PRFCNT sample"));
        }
        // Decode the dump from the (CPU-visible) buffer.
        let raw = self.copy_from_gpu(dump_va, 64)?;
        let w = |i: usize| {
            u32::from_le_bytes([raw[i * 4], raw[i * 4 + 1], raw[i * 4 + 2], raw[i * 4 + 3]])
        };
        if w(0) != 0x50524643 {
            return Err(DriverError::Timeout("PRFCNT dump header"));
        }
        Ok(PerfSample {
            cycles: w(2) as u64 | ((w(3) as u64) << 32),
            jobs: w(4),
            macs: w(5) as u64 | ((w(6) as u64) << 32),
            flush_id: w(7),
        })
    }

    /// Zeroes the performance counters.
    pub fn prfcnt_clear(&mut self) {
        let p = &self.port;
        p.enter_hot("kbase_instr_hwcnt_clear");
        p.lock(LockId::HwAccess);
        p.write(loc!(), gc::GPU_COMMAND, RegVal::from(gc::CMD_PRFCNT_CLEAR));
        p.unlock(LockId::HwAccess);
        p.exit_hot("kbase_instr_hwcnt_clear");
    }

    // ----------------------------------------------------------------
    // Cache maintenance.
    // ----------------------------------------------------------------

    /// Cleans and invalidates GPU caches, waiting for the completion IRQ by
    /// polling — the "Polling" category of Figure 8.
    pub fn cache_clean(&mut self) -> Result<(), DriverError> {
        let p = &self.port;
        p.enter_hot("kbase_gpu_cache_clean");
        p.lock(LockId::HwAccess);
        p.write(
            loc!(),
            gc::GPU_COMMAND,
            RegVal::from(gc::CMD_CLEAN_INV_CACHES),
        );
        let r = p.poll(
            loc!(),
            PollSpec {
                reg: gc::GPU_IRQ_RAWSTAT,
                mask: gc::IRQ_CLEAN_CACHES_COMPLETED,
                cond: PollCond::MaskedNonZero,
                max_iters: 100,
                delay_us: 5,
            },
        );
        p.write(
            loc!(),
            gc::GPU_IRQ_CLEAR,
            RegVal::from(gc::IRQ_CLEAN_CACHES_COMPLETED),
        );
        p.unlock(LockId::HwAccess);
        p.exit_hot("kbase_gpu_cache_clean");
        if !r.satisfied {
            return Err(DriverError::Timeout("cache clean"));
        }
        Ok(())
    }

    // ----------------------------------------------------------------
    // Job submission & interrupt handling.
    // ----------------------------------------------------------------

    /// Submits a job chain on slot 0 (queue length 1: the slot must be
    /// idle). The write of `JS_COMMAND = START` is the §5 cloud→client
    /// sync point, which DriverShim interposes.
    pub fn submit_job(&mut self, head_va: u64) -> Result<(), DriverError> {
        let props = self.props.clone().ok_or(DriverError::NotProbed)?;
        self.pm_metrics_sample();
        // Flush CPU-emitted state (commands/descriptors) to memory first,
        // and make sure the GPU's TLB sees the current page tables.
        self.cache_clean()?;
        self.mmu_flush_range(VA_BASE, 64)?;
        if self.slot_busy {
            return Err(DriverError::SlotBusy);
        }
        let p = &self.port;
        p.enter_hot("kbase_job_hw_submit");
        p.lock(LockId::JsLock);
        let slot = jc::slot_base(0);
        // LATEST_FLUSH is nondeterministic across runs — the register the
        // paper names as defeating speculation (§7.3).
        let flush_id = p.read(loc!(), gc::LATEST_FLUSH);
        p.write(loc!(), slot + jc::JS_FLUSH_ID_NEXT, flush_id);
        p.write(loc!(), slot + jc::JS_HEAD_LO, RegVal::from(head_va as u32));
        p.write(
            loc!(),
            slot + jc::JS_HEAD_HI,
            RegVal::from((head_va >> 32) as u32),
        );
        let affinity = props.shader_present.clone();
        p.write(loc!(), slot + jc::JS_AFFINITY_LO, affinity);
        p.write(loc!(), slot + jc::JS_AFFINITY_HI, RegVal::from(0));
        p.write(loc!(), slot + jc::JS_CONFIG, RegVal::from(0)); // AS 0.
        p.write(
            loc!(),
            slot + jc::JS_COMMAND,
            RegVal::from(jc::JS_CMD_START),
        );
        p.unlock(LockId::JsLock);
        p.exit_hot("kbase_job_hw_submit");
        self.jobs_submitted += 1;
        self.slot_busy = true;
        Ok(())
    }

    /// Hard-stops the in-flight chain on slot 0 — kbase's hang-recovery
    /// path (`kbase_job_slot_hardstop`). The stopped chain raises the
    /// failure interrupt, which [`KbaseDriver::handle_job_irq`] surfaces
    /// as `JobIrqOutcome::Failed(JS_STATUS_STOPPED)`.
    pub fn hard_stop(&mut self) {
        let p = &self.port;
        p.enter_hot("kbase_job_slot_hardstop");
        p.lock(LockId::JsLock);
        p.write(
            loc!(),
            jc::slot_base(0) + jc::JS_COMMAND,
            RegVal::from(jc::JS_CMD_HARD_STOP),
        );
        p.unlock(LockId::JsLock);
        p.exit_hot("kbase_job_slot_hardstop");
        p.externalize("dev_warn: hard-stopping slot 0");
    }

    /// The job interrupt handler — the paper's Listing 1(b): a control
    /// dependency on `JOB_IRQ_STATUS`, then a data-dependent clear.
    pub fn handle_job_irq(&mut self) -> Result<JobIrqOutcome, DriverError> {
        let p = &self.port;
        p.enter_hot("kbase_job_done");
        p.lock(LockId::HwAccess);
        let done = p.read(loc!(), jc::JOB_IRQ_STATUS);
        if !p.truthy(loc!(), &done) {
            p.unlock(LockId::HwAccess);
            p.exit_hot("kbase_job_done");
            return Ok(JobIrqOutcome::Spurious);
        }
        p.write(loc!(), jc::JOB_IRQ_CLEAR, done.clone());
        let js_status = p.read(loc!(), jc::slot_base(0) + jc::JS_STATUS);
        let code = p.resolve(loc!(), &js_status);
        p.unlock(LockId::HwAccess);
        p.exit_hot("kbase_job_done");
        self.slot_busy = false;

        // Post-job TLB/cache maintenance (more Listing-2 polling loops).
        self.mmu_flush_range(VA_BASE, 64)?;
        self.cache_clean()?;
        self.pm_metrics_sample();
        self.pm_idle_tick();

        if code == jc::JS_STATUS_DONE {
            Ok(JobIrqOutcome::Done)
        } else {
            self.port.externalize("dev_err: job fault");
            Ok(JobIrqOutcome::Failed(code))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::DirectPort;
    use grt_gpu::job::{JobDescriptor, JobStatus};
    use grt_gpu::shader::ShaderOp;
    use grt_gpu::{Gpu, IrqLine};
    use grt_sim::{Clock, Stats};

    struct Rig {
        clock: Rc<Clock>,
        stats: Rc<Stats>,
        gpu: Rc<RefCell<Gpu>>,
        driver: KbaseDriver<DirectPort>,
    }

    fn rig_with_sku(hw: GpuSku, devtree: GpuSku) -> Rig {
        let clock = Clock::new();
        let stats = Stats::new();
        let mem = Rc::new(RefCell::new(Memory::new(16 << 20)));
        let gpu = Rc::new(RefCell::new(Gpu::new(hw, &clock, &mem)));
        let port = DirectPort::new(&gpu, &clock, &stats);
        let driver = KbaseDriver::new(&port, &mem, devtree, 0, 16 << 20);
        Rig {
            clock,
            stats,
            gpu,
            driver,
        }
    }

    fn rig() -> Rig {
        rig_with_sku(GpuSku::mali_g71_mp8(), GpuSku::mali_g71_mp8())
    }

    #[test]
    fn probe_succeeds_on_matching_devtree() {
        let mut r = rig();
        r.driver.probe().unwrap();
        let props = r.driver.props().unwrap();
        assert_eq!(props.gpu_id, 0x6000_0011);
        assert_eq!(props.shader_present.eval(), Some(0xFF));
    }

    #[test]
    fn probe_rejects_wrong_devtree() {
        let mut r = rig_with_sku(GpuSku::mali_g71_mp8(), GpuSku::mali_g72_mp12());
        let err = r.driver.probe().unwrap_err();
        assert!(matches!(err, DriverError::WrongGpu { .. }));
    }

    #[test]
    fn power_cycle_works() {
        let mut r = rig();
        r.driver.probe().unwrap();
        r.driver.power_up().unwrap();
        assert!(r.driver.is_powered());
        let ready = r.gpu.borrow_mut().read_reg(gc::SHADER_READY_LO);
        assert_eq!(ready, 0xFF);
        r.driver.power_down().unwrap();
        assert!(!r.driver.is_powered());
        assert_eq!(r.gpu.borrow_mut().read_reg(gc::SHADER_READY_LO), 0);
    }

    #[test]
    fn quirks_are_applied() {
        let mut r = rig();
        r.driver.probe().unwrap();
        let v = r.gpu.borrow_mut().read_reg(gc::L2_MMU_CONFIG);
        assert_ne!(v & MMU_ALLOW_SNOOP_DISPARITY, 0);
    }

    #[test]
    fn alloc_region_is_gpu_visible() {
        let mut r = rig();
        r.driver.probe().unwrap();
        let va = r
            .driver
            .alloc_region(4, PteFlags::rw(), Usage::Input, None)
            .unwrap();
        r.driver.copy_to_gpu(va, &[1, 2, 3, 4]).unwrap();
        let back = r.driver.copy_from_gpu(va, 4).unwrap();
        assert_eq!(back, vec![1, 2, 3, 4]);
        // Distinct regions get distinct VAs.
        let va2 = r
            .driver
            .alloc_region(2, PteFlags::rx(), Usage::Shader, None)
            .unwrap();
        assert_ne!(va, va2);
        let regions = r.driver.regions();
        let regions = regions.borrow();
        assert_eq!(regions.metastate().count(), 2); // Table pool + shader.
    }

    /// End-to-end: build a one-job chain and run it through the driver.
    #[test]
    fn submit_and_complete_job() {
        let mut r = rig();
        r.driver.probe().unwrap();
        r.driver.power_up().unwrap();

        let shader_va = r
            .driver
            .alloc_region(1, PteFlags::rx(), Usage::Shader, None)
            .unwrap();
        let desc_va = r
            .driver
            .alloc_region(1, PteFlags::rw(), Usage::JobDescriptors, None)
            .unwrap();
        let data_va = r
            .driver
            .alloc_region(2, PteFlags::rw(), Usage::Input, None)
            .unwrap();

        let prog = ShaderOp::Relu {
            in_va: data_va,
            out_va: data_va + PAGE_SIZE as u64,
            len: 4,
        }
        .encode();
        r.driver.copy_to_gpu(shader_va, &prog).unwrap();
        let desc = JobDescriptor {
            shader_va,
            n_instrs: 1,
            cost_us: 50,
            next_va: 0,
            status: JobStatus::Pending,
        };
        r.driver.copy_to_gpu(desc_va, &desc.encode()).unwrap();
        let vals: Vec<u8> = [-1.0f32, 2.0, -3.0, 4.0]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        r.driver.copy_to_gpu(data_va, &vals).unwrap();

        r.driver.submit_job(desc_va).unwrap();
        // Wait for the job IRQ like the kernel would.
        let at = r.gpu.borrow_mut().next_irq_at(IrqLine::Job).unwrap();
        r.clock.advance_to(at);
        let outcome = r.driver.handle_job_irq().unwrap();
        assert_eq!(outcome, JobIrqOutcome::Done);

        let out = r
            .driver
            .copy_from_gpu(data_va + PAGE_SIZE as u64, 16)
            .unwrap();
        let f = |i: usize| f32::from_le_bytes([out[i], out[i + 1], out[i + 2], out[i + 3]]);
        assert_eq!([f(0), f(4), f(8), f(12)], [0.0, 2.0, 0.0, 4.0]);
        assert_eq!(r.driver.jobs_submitted(), 1);
    }

    #[test]
    fn spurious_irq_is_reported() {
        let mut r = rig();
        r.driver.probe().unwrap();
        r.driver.power_up().unwrap();
        assert_eq!(r.driver.handle_job_irq().unwrap(), JobIrqOutcome::Spurious);
    }

    #[test]
    fn hard_stop_recovers_a_stuck_job() {
        let mut r = rig();
        r.driver.probe().unwrap();
        r.driver.power_up().unwrap();
        let desc_va = r
            .driver
            .alloc_region(1, PteFlags::rw(), Usage::JobDescriptors, None)
            .unwrap();
        // A very long job the driver decides to kill.
        let desc = JobDescriptor {
            shader_va: 0,
            n_instrs: 0,
            cost_us: 10_000_000, // 10 virtual seconds.
            next_va: 0,
            status: JobStatus::Pending,
        };
        r.driver.copy_to_gpu(desc_va, &desc.encode()).unwrap();
        r.driver.submit_job(desc_va).unwrap();
        r.driver.hard_stop();
        let at = r.gpu.borrow_mut().next_irq_at(IrqLine::Job).unwrap();
        r.clock.advance_to(at);
        match r.driver.handle_job_irq().unwrap() {
            JobIrqOutcome::Failed(code) => assert_eq!(code, jc::JS_STATUS_STOPPED),
            other => panic!("expected stop, got {other:?}"),
        }
        // The watchdog path recovered well before the 10 s job cost.
        assert!(r.clock.now() < grt_sim::SimTime::from_secs(1));
    }

    #[test]
    fn driver_emits_substantial_register_traffic() {
        // Sanity-check the traffic volume feeding Table 1: probe + power
        // + one job should be on the order of 10^2 accesses.
        let mut r = rig();
        r.driver.probe().unwrap();
        r.driver.power_up().unwrap();
        let reads = r.stats.get("port.reads");
        let writes = r.stats.get("port.writes");
        assert!(reads > 40, "reads={reads}");
        assert!(writes > 10, "writes={writes}");
        // Reads dominate, as the paper measures (>95% overall on Mali).
        assert!(reads > writes);
    }

    #[test]
    fn prfcnt_counts_work() {
        let mut r = rig();
        r.driver.probe().unwrap();
        r.driver.power_up().unwrap();
        r.driver.prfcnt_clear();
        let before = r.driver.prfcnt_dump().unwrap();
        assert_eq!(before.jobs, 0);
        assert_eq!(before.macs, 0);

        // Run one real job, then sample again.
        let shader_va = r
            .driver
            .alloc_region(1, PteFlags::rx(), Usage::Shader, None)
            .unwrap();
        let desc_va = r
            .driver
            .alloc_region(1, PteFlags::rw(), Usage::JobDescriptors, None)
            .unwrap();
        let data_va = r
            .driver
            .alloc_region(2, PteFlags::rw(), Usage::Input, None)
            .unwrap();
        let prog = ShaderOp::Relu {
            in_va: data_va,
            out_va: data_va,
            len: 8,
        }
        .encode();
        r.driver.copy_to_gpu(shader_va, &prog).unwrap();
        let desc = JobDescriptor {
            shader_va,
            n_instrs: 1,
            cost_us: 200,
            next_va: 0,
            status: JobStatus::Pending,
        };
        r.driver.copy_to_gpu(desc_va, &desc.encode()).unwrap();
        r.driver.submit_job(desc_va).unwrap();
        let at = r.gpu.borrow_mut().next_irq_at(IrqLine::Job).unwrap();
        r.clock.advance_to(at);
        r.driver.handle_job_irq().unwrap();

        let after = r.driver.prfcnt_dump().unwrap();
        assert_eq!(after.jobs, 1);
        assert_eq!(after.macs, 8); // Relu over 8 elements.
        assert!(after.cycles > 0, "busy cycles accumulated");
        assert!(after.flush_id >= before.flush_id);

        // Clear resets the epoch.
        r.driver.prfcnt_clear();
        let cleared = r.driver.prfcnt_dump().unwrap();
        assert_eq!(cleared.jobs, 0);
        assert_eq!(cleared.macs, 0);
    }

    #[test]
    fn job_fault_surfaces_code() {
        let mut r = rig();
        r.driver.probe().unwrap();
        r.driver.power_up().unwrap();
        let desc_va = r
            .driver
            .alloc_region(1, PteFlags::rw(), Usage::JobDescriptors, None)
            .unwrap();
        // Garbage descriptor (bad magic).
        r.driver.copy_to_gpu(desc_va, &[0xFFu8; 64]).unwrap();
        r.driver.submit_job(desc_va).unwrap();
        let at = r.gpu.borrow_mut().next_irq_at(IrqLine::Job).unwrap();
        r.clock.advance_to(at);
        match r.driver.handle_job_irq().unwrap() {
            JobIrqOutcome::Failed(code) => {
                assert_eq!(code, jc::JS_STATUS_BAD_DESCRIPTOR)
            }
            other => panic!("expected fault, got {other:?}"),
        }
    }
}
