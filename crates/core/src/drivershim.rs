//! DriverShim: the cloud-side shim under the GPU driver (§4).
//!
//! DriverShim implements the driver's [`RegPort`] with the paper's three
//! I/O optimizations:
//!
//! - **Register access deferral (§4.1).** Accesses queue in program order;
//!   reads return symbolic [`RegVal`]s the driver keeps computing on. The
//!   queue commits — one batched network round trip — when the driver
//!   branches on an unresolved read (control dependency), invokes a kernel
//!   API (locks, scheduling), requests an explicit delay, or leaves a hot
//!   function.
//! - **Speculation (§4.2).** A commit whose site has `k = 3` consecutive
//!   identical historical outcomes is issued *asynchronously*: reads are
//!   bound to predicted values, execution continues, and the commit's
//!   round trip is joined only when the driver externalizes state or a
//!   dependent (tainted) commit must be issued. Mispredictions trigger the
//!   replay-based two-party rollback, whose cost is charged to the clock.
//! - **Polling-loop offload (§4.3).** A [`PollSpec`] ships to the client in
//!   one round trip; the client runs the loop next to the hardware. The
//!   loop *predicate* (not the iteration count) is speculated.
//!
//! The shim also performs the §5 memory synchronization: a commit carrying
//! the job-start write triggers the cloud→client metastate sync first, and
//! [`DriverShim::wait_job_irq_remote`] performs the interrupt forwarding
//! plus client→cloud sync. Everything the client executes is appended to
//! the recording in execution order.

use crate::memsync::{MemSync, SyncError, SyncMode};
use grt_crypto::SecureChannel;
use grt_driver::{Loc, LockId, RegPort, RegVal, SpecToken, SymSlot};
use grt_gpu::mem::Memory;
use grt_gpu::regs::{gpu_control as gc, job_control as jc};
use grt_gpu::{IrqLine, PollCond, PollResult, PollSpec};
use grt_ir::recording::Event;
use grt_net::{Direction, Link};
use grt_replay::client::{encode_batch, GpuShim, WireAccess};
use grt_sim::{Clock, SimTime, Stats};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

/// Speculation confidence threshold (the paper sets k = 3).
pub const SPEC_HISTORY_K: usize = 3;

/// Recorder feature configuration (the four evaluation builds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShimConfig {
    /// Defer register accesses and commit in batches (§4.1).
    pub defer: bool,
    /// Speculate on commit outcomes (§4.2).
    pub speculate: bool,
    /// Offload simple polling loops (§4.3).
    pub offload_polls: bool,
    /// Synchronize metastate only (§5); otherwise full data (Naive).
    pub meta_only_sync: bool,
    /// Speculation confidence threshold `k` (§4.2; the paper uses 3).
    pub spec_k: usize,
}

impl ShimConfig {
    /// Returns the config with a different speculation threshold (for the
    /// `ablation_k_sweep` experiment).
    pub fn with_spec_k(mut self, k: usize) -> Self {
        self.spec_k = k;
        self
    }
}

/// Driver routine categories for Figure 8's commit breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommitCategory {
    /// Hardware discovery at driver load.
    Init,
    /// Interrupt status read/clear.
    Interrupt,
    /// GPU power state manipulation.
    Power,
    /// Busy-waiting for TLB/cache operations.
    Polling,
    /// Everything else (job submission bookkeeping, MMU setup).
    Other,
}

impl CommitCategory {
    /// Stats key suffix.
    pub fn key(self) -> &'static str {
        match self {
            CommitCategory::Init => "init",
            CommitCategory::Interrupt => "interrupt",
            CommitCategory::Power => "power",
            CommitCategory::Polling => "polling",
            CommitCategory::Other => "other",
        }
    }

    fn from_hot_fn(name: &str) -> CommitCategory {
        if name.contains("gpuprops")
            || name.contains("hw_set_issues")
            || name.contains("soft_reset")
            || name.contains("install_interrupts")
        {
            CommitCategory::Init
        } else if name.contains("job_done") {
            CommitCategory::Interrupt
        } else if name.contains("pm_") {
            CommitCategory::Power
        } else {
            CommitCategory::Other
        }
    }
}

#[derive(Debug)]
enum Queued {
    Read {
        offset: u32,
        slot: SymSlot,
        token: SpecToken,
    },
    Write {
        offset: u32,
        val: RegVal,
    },
}

/// An in-flight speculative commit.
#[derive(Debug)]
struct Outstanding {
    completes_at: SimTime,
    tokens: Vec<SpecToken>,
    mispredicted: bool,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct HistEntry {
    /// (is_write, offset) sequence of the batch.
    sig: Vec<(bool, u32)>,
    /// Values the reads returned.
    reads: Vec<u32>,
}

/// The cloud-side shim. One instance per record session.
pub struct DriverShim {
    cfg: ShimConfig,
    clock: Rc<Clock>,
    stats: Rc<Stats>,
    link: Rc<Link>,
    client: Rc<RefCell<GpuShim>>,
    channel: RefCell<SecureChannel>,

    // Deferral state (single kernel thread in this reproduction; the
    // per-thread queue rule of §4.1 degenerates to one queue).
    queue: RefCell<Vec<Queued>>,
    next_sym: Cell<u64>,
    hot_depth: Cell<u32>,
    hot_name: RefCell<&'static str>,

    // Speculation state.
    history: RefCell<HashMap<String, Vec<HistEntry>>>,
    outstanding: RefCell<Vec<Outstanding>>,
    control_taints: RefCell<Vec<SpecToken>>,
    inject_at_commit: Cell<Option<u64>>,
    commit_counter: Cell<u64>,
    jobs_started: Cell<u64>,

    // Recording + memory sync.
    events: RefCell<Vec<Event>>,
    memsync: RefCell<MemSync>,
    cloud_mem: RefCell<Option<Rc<RefCell<Memory>>>>,
    regions: RefCell<Option<Rc<RefCell<grt_driver::RegionTable>>>>,
    current_job_nominal: Cell<u64>,
    /// First memory-sync fault since the last check. The sync runs inside
    /// infallible commit paths, so faults latch here (like link errors
    /// latch on the `Link`) and the session surfaces them at the next
    /// boundary.
    sync_fault: Cell<Option<SyncError>>,
}

/// Sealed-message response size estimate per read (value + framing share).
const RESP_BYTES_PER_READ: usize = 4;

/// Everything needed to roll a record session back to a committed
/// deferral-queue boundary (a layer edge): the recording length, both
/// parties' sync baselines, both parties' region contents, and the client
/// GPU's full hardware state (its `LATEST_FLUSH` epoch counter advances
/// on every cache clean, so an un-rolled-back partial attempt would make
/// the retried layer's recorded reads differ from a zero-fault run).
#[derive(Debug)]
pub struct ShimCheckpoint {
    events_len: usize,
    memsync_baselines: HashMap<u64, Rc<Vec<u8>>>,
    client_up_baselines: HashMap<u64, Rc<Vec<u8>>>,
    cloud_regions: Vec<(u64, Vec<u8>)>,
    client_regions: Vec<(u64, Vec<u8>)>,
    gpu_state: grt_gpu::Gpu,
    jobs_started: u64,
}

impl DriverShim {
    /// Creates a shim speaking to `client` over `link`.
    pub fn new(
        cfg: ShimConfig,
        clock: &Rc<Clock>,
        stats: &Rc<Stats>,
        link: &Rc<Link>,
        client: &Rc<RefCell<GpuShim>>,
        channel_secret: &[u8],
    ) -> Rc<Self> {
        let mode = if cfg.meta_only_sync {
            SyncMode::MetaOnly
        } else {
            SyncMode::FullData
        };
        Rc::new(DriverShim {
            cfg,
            clock: Rc::clone(clock),
            stats: Rc::clone(stats),
            link: Rc::clone(link),
            client: Rc::clone(client),
            channel: RefCell::new(SecureChannel::from_secret(channel_secret)),
            queue: RefCell::new(Vec::new()),
            next_sym: Cell::new(0),
            hot_depth: Cell::new(0),
            hot_name: RefCell::new(""),
            history: RefCell::new(HashMap::new()),
            outstanding: RefCell::new(Vec::new()),
            control_taints: RefCell::new(Vec::new()),
            inject_at_commit: Cell::new(None),
            commit_counter: Cell::new(0),
            jobs_started: Cell::new(0),
            events: RefCell::new(Vec::new()),
            memsync: RefCell::new(MemSync::new(mode, stats)),
            cloud_mem: RefCell::new(None),
            regions: RefCell::new(None),
            current_job_nominal: Cell::new(0),
            sync_fault: Cell::new(None),
        })
    }

    /// Attaches the cloud memory and region table (available once the
    /// driver has been constructed).
    pub fn attach_memory(
        &self,
        mem: &Rc<RefCell<Memory>>,
        regions: &Rc<RefCell<grt_driver::RegionTable>>,
    ) {
        *self.cloud_mem.borrow_mut() = Some(Rc::clone(mem));
        *self.regions.borrow_mut() = Some(Rc::clone(regions));
    }

    /// Sets the nominal working set of the next jobs (Naive accounting).
    pub fn set_job_nominal_bytes(&self, bytes: u64) {
        self.current_job_nominal.set(bytes);
    }

    /// Arms fault injection: the prediction of commit number `n` (counted
    /// from now) will be treated as wrong, exercising detection and the
    /// replay-based rollback (§7.3's misprediction experiment).
    pub fn inject_misprediction_at(&self, n: u64) {
        self.inject_at_commit
            .set(Some(self.commit_counter.get() + n));
    }

    /// Clears memory-sync baselines so the next record run's first sync
    /// ships the complete metastate — every recording must be
    /// self-contained for replay on a freshly reset device.
    pub fn reset_sync_state(&self) {
        self.memsync.borrow_mut().reset();
        self.sync_fault.set(None);
    }

    /// Takes the first latched memory-sync fault, if any, clearing it.
    pub fn take_sync_fault(&self) -> Option<SyncError> {
        self.sync_fault.take()
    }

    /// Peeks at the latched memory-sync fault without clearing it.
    pub fn sync_fault(&self) -> Option<SyncError> {
        self.sync_fault.get()
    }

    /// Marks a layer boundary in the recording.
    pub fn begin_layer(&self, index: u32) {
        self.events.borrow_mut().push(Event::BeginLayer { index });
    }

    /// Captures a checkpoint at a committed deferral-queue boundary.
    ///
    /// Flushes the queue and joins all speculation first, so the captured
    /// state is exactly what both parties agree on. The record session
    /// takes one before every layer; after a link outage it rolls back to
    /// the last checkpoint and retries the layer instead of restarting the
    /// whole recording.
    pub fn checkpoint(&self) -> ShimCheckpoint {
        self.commit("drivershim:checkpoint");
        self.join_all_outstanding();
        let mem_rc = self.cloud_mem.borrow().clone().expect("memory attached");
        let regions_rc = self.regions.borrow().clone().expect("regions attached");
        let mem = mem_rc.borrow();
        let regions = regions_rc.borrow();
        let client = self.client.borrow();
        let mut cloud_regions = Vec::new();
        let mut client_regions = Vec::new();
        for region in regions.all() {
            let len = region.len_bytes();
            cloud_regions.push((region.pa, mem.dump_range(region.pa, len)));
            client_regions.push((region.pa, client.mem().borrow().dump_range(region.pa, len)));
        }
        let gpu_state = client.gpu().borrow().clone();
        let client_up_baselines = client.up_baselines_snapshot();
        ShimCheckpoint {
            events_len: self.events.borrow().len(),
            memsync_baselines: self.memsync.borrow().baselines_snapshot(),
            client_up_baselines,
            cloud_regions,
            client_regions,
            gpu_state,
            jobs_started: self.jobs_started.get(),
        }
    }

    /// Rolls both parties back to `ckpt` after a link failure: discards
    /// the partial attempt's recording events and deferral state, restores
    /// region contents, sync baselines, and the client GPU's hardware
    /// state. The clock is NOT rewound — the outage's wall time really
    /// passed; recordings carry no timestamps, so the retried layer still
    /// produces byte-identical events.
    pub fn rollback(&self, ckpt: &ShimCheckpoint) {
        self.queue.borrow_mut().clear();
        self.outstanding.borrow_mut().clear();
        self.control_taints.borrow_mut().clear();
        self.events.borrow_mut().truncate(ckpt.events_len);
        self.jobs_started.set(ckpt.jobs_started);
        self.memsync
            .borrow_mut()
            .restore_baselines(ckpt.memsync_baselines.clone());
        let mem_rc = self.cloud_mem.borrow().clone().expect("memory attached");
        let regions_rc = self.regions.borrow().clone().expect("regions attached");
        {
            let mut mem = mem_rc.borrow_mut();
            let regions = regions_rc.borrow();
            // Lift any mid-layer validation traps; the retry's first
            // down-sync re-establishes them.
            for region in regions.all() {
                mem.set_page_flags(
                    region.pa,
                    region.len_bytes(),
                    grt_gpu::mem::PageFlags::default(),
                );
            }
            for (pa, bytes) in &ckpt.cloud_regions {
                mem.restore_range(*pa, bytes);
            }
        }
        let mut client = self.client.borrow_mut();
        client.restore_up_baselines(ckpt.client_up_baselines.clone());
        {
            let mut cmem = client.mem().borrow_mut();
            let regions = regions_rc.borrow();
            for region in regions.all() {
                cmem.set_page_flags(
                    region.pa,
                    region.len_bytes(),
                    grt_gpu::mem::PageFlags::default(),
                );
            }
            for (pa, bytes) in &ckpt.client_regions {
                cmem.restore_range(*pa, bytes);
            }
        }
        *client.gpu().borrow_mut() = ckpt.gpu_state.clone();
        self.sync_fault.set(None);
        self.stats.inc("record.rollbacks");
    }

    /// Takes the recorded events (end of record run).
    pub fn take_events(&self) -> Vec<Event> {
        self.join_all_outstanding();
        self.commit("drivershim:finalize");
        std::mem::take(&mut self.events.borrow_mut())
    }

    /// Count of commits issued so far.
    pub fn commit_count(&self) -> u64 {
        self.commit_counter.get()
    }

    // ------------------------------------------------------------------
    // Interrupt path (§5 client→cloud sync + forwarding).
    // ------------------------------------------------------------------

    /// Blocks the driver until the client GPU raises a job interrupt,
    /// then performs the client→cloud metastate sync and accounts the
    /// forwarding message. Returns false if the client reports a hang.
    pub fn wait_job_irq_remote(&self) -> bool {
        // The driver is about to sleep: everything pending must be on the
        // client, and all speculation validated (the interrupt is an
        // externally visible synchronization point).
        self.commit("drivershim:pre-irq-wait");
        self.join_all_outstanding();
        let waited = self.client.borrow_mut().wait_irq(IrqLine::Job);
        if waited.is_none() {
            return false;
        }
        // Client → cloud: metastate write-back plus the IRQ notification.
        let up = {
            let mem_rc = self.cloud_mem.borrow().clone().expect("memory attached");
            let regions_rc = self.regions.borrow().clone().expect("regions attached");
            let mut mem = mem_rc.borrow_mut();
            let regions = regions_rc.borrow();
            let mut client = self.client.borrow_mut();
            self.memsync.borrow_mut().sync_up(
                &mut client,
                &regions,
                &mut mem,
                self.current_job_nominal.get(),
            )
        };
        self.link
            .transfer(64 + up.total_bytes() as usize, Direction::Up);
        self.events.borrow_mut().push(Event::WaitIrq {
            line: grt_ir::recording::irq_line_code(IrqLine::Job),
        });
        true
    }

    // ------------------------------------------------------------------
    // Commit machinery.
    // ------------------------------------------------------------------

    fn classify(&self) -> CommitCategory {
        CommitCategory::from_hot_fn(&self.hot_name.borrow())
    }

    /// Joins every outstanding speculative commit: advances the clock to
    /// their completion, validates their tokens, and runs recovery for any
    /// misprediction.
    pub fn join_all_outstanding(&self) {
        let mut outstanding = self.outstanding.borrow_mut();
        if outstanding.is_empty() {
            return;
        }
        let mut mispredicted = false;
        let mut latest = SimTime::ZERO;
        for o in outstanding.drain(..) {
            latest = latest.max(o.completes_at);
            mispredicted |= o.mispredicted;
            for t in &o.tokens {
                t.validate();
            }
        }
        drop(outstanding);
        self.clock.advance_to(latest);
        self.control_taints.borrow_mut().clear();
        if mispredicted {
            self.recover_from_misprediction();
        }
    }

    /// The §4.2 recovery path: both parties reset and independently replay
    /// the interaction log up to the misprediction. The cost is dominated
    /// by the cloud-side driver reload and job recompilation.
    fn recover_from_misprediction(&self) {
        self.stats.inc("spec.mispredictions");
        let cost = SimTime::from_millis(800) + SimTime::from_millis(20) * self.jobs_started.get();
        self.clock.advance(cost);
        self.stats.add("spec.rollback_us", cost.as_micros());
    }

    /// True if any queued value (or live control dependency) still depends
    /// on an unvalidated prediction — such a commit must stall (§4.2's
    /// "prevent spilling speculative state to the client").
    fn batch_is_speculative(&self, batch: &[Queued]) -> bool {
        if self
            .control_taints
            .borrow()
            .iter()
            .any(SpecToken::is_speculative)
        {
            return true;
        }
        batch.iter().any(|q| match q {
            Queued::Write { val, .. } => val.is_tainted(),
            Queued::Read { .. } => false,
        })
    }

    /// Flushes the deferral queue as one commit. Returns the number of
    /// accesses committed.
    fn commit(&self, site: Loc) -> usize {
        let batch: Vec<Queued> = std::mem::take(&mut *self.queue.borrow_mut());
        if batch.is_empty() {
            return 0;
        }
        // History is keyed by commit site *and* the enclosing hot function:
        // generic commit points (exit-hot, lock) serve many driver
        // routines, and the paper keys speculation by driver source
        // location.
        let site_key = format!("{site}@{}", self.hot_name.borrow());
        let category = self.classify();
        // Stall rule: a commit carrying speculative state must wait for
        // outstanding predictions to validate first.
        if self.batch_is_speculative(&batch) {
            self.join_all_outstanding();
            self.stats.inc("spec.stalls");
        }

        // §5: the job-start write triggers the cloud→client sync *before*
        // the write reaches the hardware.
        let job_start = batch.iter().any(|q| {
            matches!(q, Queued::Write { offset, val }
                if *offset == jc::slot_base(0) + jc::JS_COMMAND
                    && val.eval() == Some(jc::JS_CMD_START))
        });
        if job_start {
            self.sync_down_before_job();
            self.jobs_started.set(self.jobs_started.get() + 1);
        }

        // Wire sizing: reads + placeholder writes, sealed.
        let n_reads = batch
            .iter()
            .filter(|q| matches!(q, Queued::Read { .. }))
            .count();
        let wire: Vec<WireAccess> = batch
            .iter()
            .map(|q| match q {
                Queued::Read { offset, .. } => WireAccess::Read { offset: *offset },
                Queued::Write { offset, val } => WireAccess::Write {
                    offset: *offset,
                    value: val.eval().unwrap_or(0),
                },
            })
            .collect();
        let sealed = self.channel.borrow_mut().seal(&encode_batch(&wire));
        let req_len = sealed.len();
        let resp_len = SecureChannel::OVERHEAD + n_reads * RESP_BYTES_PER_READ;
        self.stats.add("net.commit_payload_bytes", req_len as u64);
        // The client end authenticates and decrypts every commit message;
        // a wire-level failure here would mean a protocol bug or an
        // attacker in the path.
        {
            let mut client = self.client.borrow_mut();
            client.ree_hop();
            let plain = client
                .channel()
                .open(&sealed)
                .expect("sealed commit authenticates at the client");
            debug_assert_eq!(
                grt_replay::client::decode_batch(&plain).map(|b| b.len()),
                Some(wire.len())
            );
        }

        // Speculation decision.
        let sig: Vec<(bool, u32)> = batch
            .iter()
            .map(|q| match q {
                Queued::Read { offset, .. } => (false, *offset),
                Queued::Write { offset, .. } => (true, *offset),
            })
            .collect();
        let prediction: Option<Vec<u32>> = if self.cfg.speculate && n_reads == 0 {
            // A commit with no reads has no outcome to predict: it can
            // always be issued asynchronously (Figure 5(c)); the client
            // preserves program order.
            Some(Vec::new())
        } else if self.cfg.speculate {
            let history = self.history.borrow();
            history.get(&site_key).and_then(|entries| {
                let k = self.cfg.spec_k.max(1);
                if entries.len() >= k {
                    let tail = &entries[entries.len() - k..];
                    let first = &tail[0];
                    if first.sig == sig && tail.iter().all(|e| e == first) {
                        Some(first.reads.clone())
                    } else {
                        None
                    }
                } else {
                    None
                }
            })
        } else {
            None
        };

        let speculated = prediction.is_some();
        let completes_at = if speculated {
            self.stats.inc("spec.commits_speculative");
            self.stats
                .inc(&format!("spec.commits_speculative.{}", category.key()));
            self.link.round_trip_async(req_len, resp_len)
        } else {
            self.join_all_outstanding();
            self.stats.inc("spec.commits_sync");
            self.stats
                .inc(&format!("spec.commits_sync.{}", category.key()));
            if std::env::var_os("GRT_DEBUG_SITES").is_some() {
                self.stats.inc(&format!("site.{site_key}"));
            }
            self.link.round_trip(req_len, resp_len);
            self.clock.now()
        };

        // Execute on the client in program order, binding read slots as
        // values materialize so later symbolic writes evaluate.
        let mut actual_reads = Vec::with_capacity(n_reads);
        let mut tokens = Vec::new();
        {
            let mut client = self.client.borrow_mut();
            let mut events = self.events.borrow_mut();
            for q in &batch {
                match q {
                    Queued::Read {
                        offset,
                        slot,
                        token,
                    } => {
                        let v = client.execute_batch(&[WireAccess::Read { offset: *offset }])[0];
                        slot.bind(v);
                        actual_reads.push(v);
                        if speculated {
                            tokens.push(token.clone());
                        } else {
                            token.validate();
                        }
                        events.push(Event::RegRead {
                            offset: *offset,
                            value: v,
                            verify: is_deterministic_reg(*offset),
                        });
                        self.stats.inc("shim.reads");
                    }
                    Queued::Write { offset, val } => {
                        let v = val
                            .eval()
                            .expect("write depends only on earlier batch reads");
                        client.execute_batch(&[WireAccess::Write {
                            offset: *offset,
                            value: v,
                        }]);
                        events.push(Event::RegWrite {
                            offset: *offset,
                            value: v,
                        });
                        self.stats.inc("shim.writes");
                    }
                }
            }
        }

        // Validate prediction (or inject a fault for §7.3's experiment).
        if let Some(pred) = &prediction {
            let injected = match self.inject_at_commit.get() {
                Some(n) if self.commit_counter.get() >= n => {
                    self.inject_at_commit.set(None);
                    true
                }
                _ => false,
            };
            let mispredicted = injected || *pred != actual_reads;
            self.outstanding.borrow_mut().push(Outstanding {
                completes_at,
                tokens,
                mispredicted,
            });
        }

        // Update commit history for this site.
        let mut history = self.history.borrow_mut();
        let entries = history.entry(site_key).or_default();
        entries.push(HistEntry {
            sig,
            reads: actual_reads,
        });
        let keep = self.cfg.spec_k.max(SPEC_HISTORY_K) + 1;
        if entries.len() > keep {
            let excess = entries.len() - keep;
            entries.drain(..excess);
        }
        drop(history);

        self.commit_counter.set(self.commit_counter.get() + 1);
        self.stats.inc("shim.commits");
        self.stats
            .add("shim.accesses_per_commit_sum", batch.len() as u64);
        batch.len()
    }

    fn sync_down_before_job(&self) {
        let Some(mem_rc) = self.cloud_mem.borrow().clone() else {
            return;
        };
        let Some(regions_rc) = self.regions.borrow().clone() else {
            return;
        };
        let result = {
            let mut mem = mem_rc.borrow_mut();
            let regions = regions_rc.borrow();
            let mut client = self.client.borrow_mut();
            self.memsync.borrow_mut().sync_down(
                &mut mem,
                &regions,
                &mut client,
                self.current_job_nominal.get(),
            )
        };
        let out = match result {
            Ok(out) => out,
            Err(e) => {
                // This path has no error channel (it runs inside commit);
                // latch the fault for the session, mirroring link errors.
                if self.sync_fault.get().is_none() {
                    self.sync_fault.set(Some(e));
                }
                return;
            }
        };
        if out.total_bytes() > 0 {
            self.link
                .transfer(out.total_bytes() as usize + 64, Direction::Down);
        }
        self.events.borrow_mut().extend(out.events);
    }

    /// One synchronous single-access round trip (the non-deferred path:
    /// Naive/OursM for everything; MD/MDS outside hot functions).
    fn sync_single(&self, access: WireAccess) -> Option<u32> {
        // The §5 sync trigger applies on this path too.
        if let WireAccess::Write { offset, value } = access {
            if offset == jc::slot_base(0) + jc::JS_COMMAND && value == jc::JS_CMD_START {
                self.sync_down_before_job();
                self.jobs_started.set(self.jobs_started.get() + 1);
            }
        }
        let sealed = self
            .channel
            .borrow_mut()
            .seal(&encode_batch(std::slice::from_ref(&access)));
        let is_read = matches!(access, WireAccess::Read { .. });
        let resp = SecureChannel::OVERHEAD + if is_read { 4 } else { 0 };
        self.link.round_trip(sealed.len(), resp);
        {
            let mut client = self.client.borrow_mut();
            client.ree_hop();
            client
                .channel()
                .open(&sealed)
                .expect("sealed access authenticates at the client");
        }
        let reads = self.client.borrow_mut().execute_batch(&[access]);
        let mut events = self.events.borrow_mut();
        match access {
            WireAccess::Read { offset } => {
                let v = reads[0];
                events.push(Event::RegRead {
                    offset,
                    value: v,
                    verify: is_deterministic_reg(offset),
                });
                self.stats.inc("shim.reads");
                Some(v)
            }
            WireAccess::Write { offset, value } => {
                events.push(Event::RegWrite { offset, value });
                self.stats.inc("shim.writes");
                None
            }
        }
    }
}

/// Converts a driver [`PollSpec`] into the recorded event's fields.
fn poll_event(spec: &PollSpec) -> Event {
    let (cond, cmp) = match spec.cond {
        PollCond::MaskedZero => (0u8, 0u32),
        PollCond::MaskedNonZero => (1, 0),
        PollCond::MaskedEq(v) => (2, v),
    };
    Event::Poll {
        reg: spec.reg,
        mask: spec.mask,
        cond,
        cmp,
        max_iters: spec.max_iters,
        delay_us: spec.delay_us as u32,
    }
}

/// Probe-class registers whose values are a pure function of the SKU.
fn is_deterministic_reg(offset: u32) -> bool {
    matches!(
        offset,
        gc::GPU_ID
            | gc::L2_FEATURES
            | gc::CORE_FEATURES
            | gc::TILER_FEATURES
            | gc::MEM_FEATURES
            | gc::MMU_FEATURES
            | gc::AS_PRESENT
            | gc::JS_PRESENT
            | gc::THREAD_MAX_THREADS
            | gc::THREAD_MAX_WORKGROUP_SIZE
            | gc::THREAD_MAX_BARRIER_SIZE
            | gc::THREAD_FEATURES
            | gc::SHADER_PRESENT_LO
            | gc::SHADER_PRESENT_HI
            | gc::TILER_PRESENT_LO
            | gc::L2_PRESENT_LO
    ) || (gc::TEXTURE_FEATURES_0..gc::TEXTURE_FEATURES_0 + 16).contains(&offset)
        || (gc::JS0_FEATURES..gc::JS0_FEATURES + 64).contains(&offset)
}

impl RegPort for DriverShim {
    fn read(&self, _loc: Loc, offset: u32) -> RegVal {
        if !self.cfg.defer || self.hot_depth.get() == 0 {
            let v = self
                .sync_single(WireAccess::Read { offset })
                .expect("read returns a value");
            return RegVal::from(v);
        }
        let id = self.next_sym.get();
        self.next_sym.set(id + 1);
        let slot = SymSlot::new(id);
        let token = SpecToken::new();
        let val = RegVal::speculative(slot.clone(), token.clone());
        self.queue.borrow_mut().push(Queued::Read {
            offset,
            slot,
            token,
        });
        val
    }

    fn write(&self, _loc: Loc, offset: u32, val: RegVal) {
        if !self.cfg.defer || self.hot_depth.get() == 0 {
            let v = match val.eval() {
                Some(v) => v,
                None => {
                    // A non-deferred write of a still-symbolic value can
                    // only arise from a stale value across a mode change;
                    // commit to bind it.
                    self.commit("drivershim:write-resolve");
                    val.eval().expect("bound after commit")
                }
            };
            self.sync_single(WireAccess::Write { offset, value: v });
            return;
        }
        self.queue.borrow_mut().push(Queued::Write { offset, val });
    }

    fn resolve(&self, loc: Loc, val: &RegVal) -> u32 {
        if val.is_symbolic() {
            // Control dependency on an uncommitted read (§4.1).
            self.stats.inc("shim.control_dep_commits");
            self.commit(loc);
        }
        let v = val.eval().expect("bound after commit");
        // Branching on a predicted value taints subsequent control flow
        // until the prediction validates (§4.2).
        let live = val.live_taints();
        if !live.is_empty() {
            self.control_taints.borrow_mut().extend(live);
        }
        v
    }

    fn poll(&self, loc: Loc, spec: PollSpec) -> PollResult {
        // The loop begins with a control dependency: flush what's queued.
        self.commit(loc);
        self.stats.inc("poll.instances");
        self.events.borrow_mut().push(poll_event(&spec));

        if self.cfg.offload_polls {
            // §4.3: one message carries the loop; predicate speculation.
            let sealed_len = SecureChannel::OVERHEAD + 24;
            let resp_len = SecureChannel::OVERHEAD + 12;
            let predicted = {
                let k = self.cfg.spec_k.max(1);
                let history = self.history.borrow();
                history
                    .get(loc)
                    .map(|v| v as &Vec<HistEntry>)
                    .map(|entries| {
                        entries.len() >= k
                            && entries[entries.len() - k..].iter().all(|e| e.reads == [1])
                    })
                    .unwrap_or(false)
            };
            let result = if self.cfg.speculate && predicted {
                let completes_at = self.link.round_trip_async(sealed_len, resp_len);
                let result = self.client.borrow_mut().run_poll(&spec);
                let mispredicted = !result.satisfied;
                self.outstanding.borrow_mut().push(Outstanding {
                    completes_at,
                    tokens: vec![],
                    mispredicted,
                });
                self.stats.inc("spec.commits_speculative");
                self.stats.inc("spec.commits_speculative.polling");
                self.stats.add("poll.rtts_async", 1);
                result
            } else {
                self.join_all_outstanding();
                self.link.round_trip(sealed_len, resp_len);
                let result = self.client.borrow_mut().run_poll(&spec);
                self.stats.inc("spec.commits_sync");
                self.stats.inc("spec.commits_sync.polling");
                self.stats.add("poll.rtts", 1);
                result
            };
            // Predicate history for this poll site.
            let mut history = self.history.borrow_mut();
            let entries = history.entry(loc.to_owned()).or_default();
            entries.push(HistEntry {
                sig: vec![(false, spec.reg)],
                reads: vec![u32::from(result.satisfied)],
            });
            let keep = self.cfg.spec_k.max(SPEC_HISTORY_K) + 1;
            if entries.len() > keep {
                let excess = entries.len() - keep;
                entries.drain(..excess);
            }
            self.commit_counter.set(self.commit_counter.get() + 1);
            result
        } else {
            // Iterate remotely: one round trip per read (§4.3's "problem").
            let mut iters = 0;
            loop {
                iters += 1;
                let raw = self
                    .sync_single(WireAccess::Read { offset: spec.reg })
                    .expect("read");
                self.stats.add("poll.rtts", 1);
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
                // The driver's udelay between iterations.
                self.clock.advance(SimTime::from_micros(spec.delay_us));
            }
        }
    }

    fn delay_us(&self, us: u64) {
        // Accesses before an explicit delay must take effect first (§4.1).
        self.commit("drivershim:explicit-delay");
        self.clock.advance(SimTime::from_micros(us));
    }

    fn lock(&self, _id: LockId) {
        self.commit("drivershim:lock");
    }

    fn unlock(&self, _id: LockId) {
        // Release consistency: commit before any lock release (§4.1).
        self.commit("drivershim:unlock");
    }

    fn externalize(&self, _what: &str) {
        // State leaves the kernel: every prediction must be validated.
        self.commit("drivershim:externalize");
        self.join_all_outstanding();
        self.stats.inc("shim.externalizations");
    }

    fn enter_hot(&self, name: &'static str) {
        if self.hot_depth.get() == 0 {
            *self.hot_name.borrow_mut() = name;
        }
        self.hot_depth.set(self.hot_depth.get() + 1);
    }

    fn exit_hot(&self, name: &'static str) {
        let _ = name;
        let d = self.hot_depth.get().saturating_sub(1);
        self.hot_depth.set(d);
        if d == 0 {
            // Control flow leaves the profiled hot region (§4.1).
            self.commit("drivershim:exit-hot");
        }
    }
}

impl std::fmt::Debug for DriverShim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DriverShim")
            .field("cfg", &self.cfg)
            .field("commits", &self.commit_counter.get())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grt_gpu::{Gpu, GpuSku};
    use grt_net::NetConditions;
    use grt_sim::Stats;
    use grt_tee::{SecureMonitor, Tzasc};

    struct Rig {
        clock: Rc<Clock>,
        stats: Rc<Stats>,
        shim: Rc<DriverShim>,
    }

    fn rig(cfg: ShimConfig) -> Rig {
        let clock = Clock::new();
        let stats = Stats::new();
        let link = Link::new(&clock, &stats, NetConditions::wifi());
        let client_mem = Rc::new(RefCell::new(Memory::new(4 << 20)));
        let gpu = Rc::new(RefCell::new(Gpu::new(
            GpuSku::mali_g71_mp8(),
            &clock,
            &client_mem,
        )));
        let tzasc = Rc::new(Tzasc::new());
        let monitor = SecureMonitor::new(&clock);
        let client = Rc::new(RefCell::new(GpuShim::new(
            &clock,
            &gpu,
            &client_mem,
            &tzasc,
            &monitor,
            b"secret",
        )));
        let shim = DriverShim::new(cfg, &clock, &stats, &link, &client, b"secret");
        Rig { clock, stats, shim }
    }

    const DEFER: ShimConfig = ShimConfig {
        defer: true,
        speculate: false,
        offload_polls: false,
        meta_only_sync: true,
        spec_k: SPEC_HISTORY_K,
    };
    const FULL: ShimConfig = ShimConfig {
        defer: true,
        speculate: true,
        offload_polls: true,
        meta_only_sync: true,
        spec_k: SPEC_HISTORY_K,
    };
    const NAIVE: ShimConfig = ShimConfig {
        defer: false,
        speculate: false,
        offload_polls: false,
        meta_only_sync: false,
        spec_k: SPEC_HISTORY_K,
    };

    #[test]
    fn naive_mode_costs_one_rtt_per_access() {
        let r = rig(NAIVE);
        let v = r.shim.read("t", gc::GPU_ID);
        assert_eq!(v.eval(), Some(0x6000_0011));
        r.shim.write("t", gc::GPU_IRQ_MASK, RegVal::from(1));
        assert_eq!(r.stats.get("net.blocking_rtts"), 2);
        assert!(r.clock.now().as_millis() >= 40);
    }

    #[test]
    fn deferral_batches_accesses_into_one_rtt() {
        let r = rig(DEFER);
        r.shim.enter_hot("kbase_hw_set_issues_mask");
        // Listing 1(a): three reads, three dependent writes, one commit.
        let a = r.shim.read("t", gc::SHADER_CONFIG);
        let b = r.shim.read("t", gc::TILER_CONFIG);
        let c = r.shim.read("t", gc::L2_MMU_CONFIG);
        assert!(a.is_symbolic() && b.is_symbolic() && c.is_symbolic());
        r.shim.write("t", gc::SHADER_CONFIG, a | 0x10000);
        r.shim.write("t", gc::TILER_CONFIG, b | 0x10);
        r.shim.write("t", gc::L2_MMU_CONFIG, c | 0x10);
        r.shim.exit_hot("kbase_hw_set_issues_mask");
        assert_eq!(r.stats.get("shim.commits"), 1);
        assert_eq!(r.stats.get("net.blocking_rtts"), 1);
        assert_eq!(r.stats.get("shim.reads"), 3);
        assert_eq!(r.stats.get("shim.writes"), 3);
    }

    #[test]
    fn control_dependency_forces_commit() {
        let r = rig(DEFER);
        r.shim.enter_hot("kbase_job_done");
        let v = r.shim.read("site", gc::GPU_IRQ_RAWSTAT);
        assert!(v.is_symbolic());
        let concrete = r.shim.resolve("site", &v);
        assert_eq!(concrete, 0);
        assert_eq!(r.stats.get("shim.control_dep_commits"), 1);
        assert_eq!(r.stats.get("shim.commits"), 1);
        r.shim.exit_hot("kbase_job_done");
    }

    #[test]
    fn symbolic_write_depends_on_batched_read() {
        let r = rig(DEFER);
        r.shim.enter_hot("kbase_job_done");
        // Listing 1(b): clear = status read in the same batch.
        let done = r.shim.read("t", gc::GPU_IRQ_RAWSTAT);
        r.shim.write("t", gc::GPU_IRQ_CLEAR, done.clone());
        r.shim.exit_hot("kbase_job_done");
        assert_eq!(done.eval(), Some(0));
        assert_eq!(r.stats.get("shim.commits"), 1);
    }

    #[test]
    fn speculation_kicks_in_after_k_identical_commits() {
        let r = rig(FULL);
        for i in 0..5 {
            r.shim.enter_hot("kbase_pm_update_state");
            let v = r.shim.read("same-site", gc::SHADER_PRESENT_LO);
            let _ = r.shim.resolve("same-site", &v);
            r.shim.exit_hot("kbase_pm_update_state");
            let spec = r.stats.get("spec.commits_speculative");
            if i < SPEC_HISTORY_K as u64 {
                assert_eq!(spec, 0, "iteration {i}");
            }
        }
        assert!(r.stats.get("spec.commits_speculative") >= 1);
        assert_eq!(r.stats.get("spec.mispredictions"), 0);
    }

    #[test]
    fn speculative_commit_hides_rtt() {
        let r = rig(FULL);
        // Warm the history.
        for _ in 0..SPEC_HISTORY_K {
            r.shim.enter_hot("h");
            let v = r.shim.read("site", gc::GPU_ID);
            let _ = r.shim.resolve("site", &v);
            r.shim.exit_hot("h");
        }
        let t0 = r.clock.now();
        r.shim.enter_hot("h");
        let v = r.shim.read("site", gc::GPU_ID);
        let _ = r.shim.resolve("site", &v);
        r.shim.exit_hot("h");
        // The speculative commit did not block on the 20 ms RTT.
        assert!((r.clock.now() - t0).as_millis() < 20);
        // Joining validates and waits it out.
        r.shim.join_all_outstanding();
        assert!((r.clock.now() - t0).as_millis() >= 20);
    }

    #[test]
    fn injected_misprediction_triggers_rollback() {
        let r = rig(FULL);
        for _ in 0..SPEC_HISTORY_K {
            r.shim.enter_hot("h");
            let v = r.shim.read("site", gc::GPU_ID);
            let _ = r.shim.resolve("site", &v);
            r.shim.exit_hot("h");
        }
        r.shim.inject_misprediction_at(0);
        r.shim.enter_hot("h");
        let v = r.shim.read("site", gc::GPU_ID);
        let _ = r.shim.resolve("site", &v);
        r.shim.exit_hot("h");
        r.shim.join_all_outstanding();
        assert_eq!(r.stats.get("spec.mispredictions"), 1);
        // Rollback charged at least the driver-reload cost.
        assert!(r.clock.now().as_millis() >= 800);
    }

    #[test]
    fn nondeterministic_register_defeats_speculation() {
        let r = rig(FULL);
        // LATEST_FLUSH changes between reads (a flush in between), so the
        // history never shows k identical outcomes.
        for _ in 0..8 {
            r.shim.enter_hot("h");
            let v = r.shim.read("flush-site", gc::LATEST_FLUSH);
            let _ = r.shim.resolve("flush-site", &v);
            r.shim.exit_hot("h");
            // Trigger a flush outside the hot region so LATEST_FLUSH
            // differs at the next read.
            r.shim
                .write("t", gc::GPU_COMMAND, RegVal::from(gc::CMD_CLEAN_CACHES));
        }
        assert_eq!(r.stats.get("spec.commits_speculative"), 0);
    }

    #[test]
    fn offloaded_poll_takes_one_message() {
        let r = rig(FULL);
        r.shim.enter_hot("kbase_gpu_cache_clean");
        r.shim
            .write("t", gc::GPU_COMMAND, RegVal::from(gc::CMD_CLEAN_CACHES));
        let res = r.shim.poll(
            "poll-site",
            PollSpec {
                reg: gc::GPU_IRQ_RAWSTAT,
                mask: gc::IRQ_CLEAN_CACHES_COMPLETED,
                cond: grt_gpu::PollCond::MaskedNonZero,
                max_iters: 100,
                delay_us: 5,
            },
        );
        r.shim.exit_hot("kbase_gpu_cache_clean");
        assert!(res.satisfied);
        assert_eq!(r.stats.get("poll.instances"), 1);
        assert_eq!(r.stats.get("poll.rtts"), 1);
    }

    #[test]
    fn non_offloaded_poll_pays_per_iteration() {
        let r = rig(NAIVE);
        r.shim
            .write("t", gc::GPU_COMMAND, RegVal::from(gc::CMD_CLEAN_CACHES));
        let res = r.shim.poll(
            "poll-site",
            PollSpec {
                reg: gc::GPU_IRQ_RAWSTAT,
                mask: gc::IRQ_CLEAN_CACHES_COMPLETED,
                cond: grt_gpu::PollCond::MaskedNonZero,
                max_iters: 100,
                delay_us: 5,
            },
        );
        assert!(res.satisfied);
        // With a 20 ms RTT the flush (25 µs) long finished before the
        // first remote read: one iteration, but it still costs an RTT.
        assert_eq!(res.iters, 1);
        assert!(r.stats.get("poll.rtts") >= 1);
    }

    #[test]
    fn explicit_delay_commits_first() {
        // §4.1: drivers use delays as barriers — accesses queued before a
        // delay must reach the hardware before the delay elapses.
        let r = rig(DEFER);
        r.shim.enter_hot("h");
        r.shim
            .write("t", gc::GPU_COMMAND, RegVal::from(gc::CMD_CLEAN_CACHES));
        r.shim.delay_us(100);
        // The write was committed (client GPU saw the flush command), not
        // still sitting in the queue.
        assert_eq!(r.stats.get("shim.commits"), 1);
        assert_eq!(r.stats.get("shim.writes"), 1);
        r.shim.exit_hot("h");
        assert_eq!(r.stats.get("shim.commits"), 1, "queue already empty");
    }

    #[test]
    fn unlock_commits_for_release_consistency() {
        let r = rig(DEFER);
        r.shim.enter_hot("h");
        let _v = r.shim.read("t", gc::GPU_ID);
        r.shim.unlock(grt_driver::LockId::HwAccess);
        // Release consistency (§4.1): the read committed at the unlock.
        assert_eq!(r.stats.get("shim.commits"), 1);
        r.shim.exit_hot("h");
    }

    #[test]
    fn externalization_joins_outstanding_commits() {
        let r = rig(FULL);
        for _ in 0..SPEC_HISTORY_K {
            r.shim.enter_hot("h");
            let v = r.shim.read("site", gc::GPU_ID);
            let _ = r.shim.resolve("site", &v);
            r.shim.exit_hot("h");
        }
        let t0 = r.clock.now();
        r.shim.enter_hot("h");
        let v = r.shim.read("site", gc::GPU_ID);
        let _ = r.shim.resolve("site", &v);
        r.shim.exit_hot("h");
        assert!((r.clock.now() - t0).as_millis() < 20, "commit was async");
        // printk-like externalization must wait out the in-flight commit.
        r.shim.externalize("dev_info: gpu probed");
        assert!((r.clock.now() - t0).as_millis() >= 20);
        assert_eq!(r.stats.get("shim.externalizations"), 1);
    }

    #[test]
    fn dependent_commit_stalls_on_speculative_state() {
        let r = rig(FULL);
        // Warm a read site until it speculates.
        for _ in 0..SPEC_HISTORY_K {
            r.shim.enter_hot("h");
            let v = r.shim.read("site", gc::SHADER_PRESENT_LO);
            let _ = r.shim.resolve("site", &v);
            r.shim.exit_hot("h");
        }
        let t0 = r.clock.now();
        r.shim.enter_hot("h");
        let v = r.shim.read("site", gc::SHADER_PRESENT_LO);
        let mask = r.shim.resolve("site", &v); // Tainted: prediction in flight.
        assert_eq!(mask, 0xFF);
        // A commit whose value depends on the prediction must stall until
        // the prediction validates (§4.2's optimization).
        r.shim.write("t", gc::SHADER_PWRON_LO, RegVal::from(mask));
        r.shim.exit_hot("h");
        assert!(r.stats.get("spec.stalls") >= 1);
        assert!(
            (r.clock.now() - t0).as_millis() >= 20,
            "stall waited the RTT"
        );
    }

    #[test]
    fn hot_region_nesting_commits_only_at_outermost_exit() {
        let r = rig(DEFER);
        r.shim.enter_hot("outer");
        let _a = r.shim.read("t", gc::GPU_ID);
        r.shim.enter_hot("inner");
        let _b = r.shim.read("t", gc::L2_FEATURES);
        r.shim.exit_hot("inner");
        assert_eq!(r.stats.get("shim.commits"), 0, "still inside outer");
        r.shim.exit_hot("outer");
        assert_eq!(r.stats.get("shim.commits"), 1);
        assert_eq!(r.stats.get("shim.reads"), 2);
    }

    #[test]
    fn recording_preserves_program_order() {
        let r = rig(DEFER);
        r.shim.enter_hot("h");
        let v = r.shim.read("t", gc::SHADER_CONFIG);
        r.shim.write("t", gc::SHADER_CONFIG, v | 1);
        r.shim.exit_hot("h");
        let events = r.shim.take_events();
        assert!(matches!(
            events[0],
            Event::RegRead {
                offset: gc::SHADER_CONFIG,
                ..
            }
        ));
        assert!(matches!(
            events[1],
            Event::RegWrite {
                offset: gc::SHADER_CONFIG,
                ..
            }
        ));
    }
}
