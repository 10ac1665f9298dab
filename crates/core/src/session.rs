//! The end-to-end record workflow (§3.1, Figure 4).
//!
//! A [`RecordSession`] wires up both parties on one virtual clock:
//!
//! - the **client device**: GPU + DRAM + TZASC + secure monitor + GPUShim,
//!   with the paper's energy model attached;
//! - the **cloud VM**: a local memory replica, the kbase driver running
//!   over DriverShim, and the runtime/JIT on top;
//! - the **link** between them, shaped to WiFi/cellular conditions.
//!
//! `record()` follows the paper's workflow: attest the VM, lock the GPU
//! into the TEE, probe/boot the driver remotely, dry-compile the workload
//! (weights never leave the client), run it layer by layer with per-layer
//! power cycling, and finally sign the recording and download it.

use crate::drivershim::{DriverShim, ShimConfig};
use grt_crypto::{AttestationReport, KeyPair};
use grt_driver::{DriverError, JobIrqOutcome, KbaseDriver, RegionTable};
use grt_gpu::mem::Memory;
use grt_gpu::GpuSku;
use grt_ir::recording::{DataSlot, SignedRecording};
use grt_ml::NetworkSpec;
use grt_net::{Direction, Link, NetConditions, RadioPower};
use grt_runtime::{compile_network_dry, CompiledNetwork};
use grt_sim::{Clock, SimTime, Stats};
use std::cell::RefCell;
use std::rc::Rc;

// The client device and its trust root live in the client TEE crate; kept
// at this path for the benchmark package until the benchmark next changes.
pub use grt_replay::client::{recording_trust_root, ClientDevice, PROVISIONING_SECRET};

/// The four recorder builds evaluated in §7.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecorderMode {
    /// One round trip per access; full-memory synchronization.
    Naive,
    /// Meta-only memory synchronization (§5).
    OursM,
    /// OursM + register access deferral (§4.1).
    OursMD,
    /// OursMD + speculation and poll offloading (§4.2, §4.3) — full GR-T.
    OursMDS,
}

impl RecorderMode {
    /// All modes in the paper's presentation order.
    pub const ALL: [RecorderMode; 4] = [
        RecorderMode::Naive,
        RecorderMode::OursM,
        RecorderMode::OursMD,
        RecorderMode::OursMDS,
    ];

    /// The table/figure label.
    pub fn label(self) -> &'static str {
        match self {
            RecorderMode::Naive => "Naive",
            RecorderMode::OursM => "OursM",
            RecorderMode::OursMD => "OursMD",
            RecorderMode::OursMDS => "OursMDS",
        }
    }

    /// The DriverShim feature set for this build.
    pub fn config(self) -> ShimConfig {
        match self {
            RecorderMode::Naive => ShimConfig {
                defer: false,
                speculate: false,
                offload_polls: false,
                meta_only_sync: false,
                spec_k: crate::drivershim::SPEC_HISTORY_K,
            },
            RecorderMode::OursM => ShimConfig {
                defer: false,
                speculate: false,
                offload_polls: false,
                meta_only_sync: true,
                spec_k: crate::drivershim::SPEC_HISTORY_K,
            },
            RecorderMode::OursMD => ShimConfig {
                defer: true,
                speculate: false,
                offload_polls: false,
                meta_only_sync: true,
                spec_k: crate::drivershim::SPEC_HISTORY_K,
            },
            RecorderMode::OursMDS => ShimConfig {
                defer: true,
                speculate: true,
                offload_polls: true,
                meta_only_sync: true,
                spec_k: crate::drivershim::SPEC_HISTORY_K,
            },
        }
    }
}

/// Record-phase failures.
#[derive(Debug)]
pub enum RecordError {
    /// The cloud VM's attestation did not verify.
    Attestation,
    /// The GPU stack failed (probe, power, submission).
    Driver(DriverError),
    /// The client GPU never raised the expected interrupt.
    ClientHang,
    /// The link failed and stayed failed past the session's checkpoint
    /// retry budget.
    Link(grt_net::LinkError),
    /// Memory synchronization latched a baseline divergence (§5): the
    /// cloud and client no longer agree on a metastate region.
    Sync(crate::memsync::SyncError),
    /// The recording failed ahead-of-replay static analysis (grt-lint).
    Rejected {
        /// The violated rule ("R1".."R6").
        rule: String,
        /// What the analyzer found.
        message: String,
    },
    /// The recording's provenance record is missing, unsigned, or does
    /// not match the recording/lint verdict it claims to cover.
    Provenance {
        /// Stable rule code (`grt_attest::VerifyError::code`).
        code: String,
        /// What the provenance check found.
        message: String,
    },
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::Attestation => write!(f, "cloud VM attestation failed"),
            RecordError::Driver(e) => write!(f, "GPU stack error: {e}"),
            RecordError::ClientHang => write!(f, "client GPU hang during record"),
            RecordError::Link(e) => write!(f, "record tunnel failed: {e}"),
            RecordError::Sync(e) => write!(f, "memory synchronization failed: {e}"),
            RecordError::Rejected { rule, message } => {
                write!(
                    f,
                    "recording rejected by static analysis [{rule}]: {message}"
                )
            }
            RecordError::Provenance { code, message } => {
                write!(f, "provenance check failed [{code}]: {message}")
            }
        }
    }
}

impl std::error::Error for RecordError {}

impl From<DriverError> for RecordError {
    fn from(e: DriverError) -> Self {
        RecordError::Driver(e)
    }
}

/// The outcome of one record run.
#[derive(Debug)]
pub struct RecordOutcome {
    /// The signed recording the client downloaded.
    pub recording: SignedRecording,
    /// End-to-end recording delay (Figure 7).
    pub delay: SimTime,
    /// Blocking round trips (Table 1).
    pub blocking_rtts: u64,
    /// Memory-sync traffic in bytes, both directions (Table 1 MemSync).
    pub sync_bytes: u64,
    /// Client energy in joules (Figure 9).
    pub energy_j: f64,
    /// Layer retries that resumed from a checkpoint instead of
    /// restarting the recording (0 on a healthy link).
    pub checkpoint_resumes: u64,
    /// Link-level retransmitted attempts during the run.
    pub link_retries: u64,
    /// The compiled network (for inspecting slots in tests).
    pub net: CompiledNetwork,
}

/// Per-job CPU cost of the cloud GPU stack (framework + runtime + driver).
const CLOUD_CPU_PER_JOB: SimTime = SimTime::from_micros(300);

/// The GPU stack's job-completion watchdog (kbase's soft-stop timeout):
/// §3.3 observes that naive forwarding "violates many timing assumptions
/// implicitly made by the stack code", causing constant exceptions and
/// resets. We count violations instead of resetting, so the Naive
/// baseline can still be measured end to end (as the paper does).
const JOB_WATCHDOG: SimTime = SimTime::from_millis(1000);

/// Consecutive checkpoint-resume attempts per layer before the session
/// gives up with [`RecordError::Link`].
const MAX_LAYER_ATTEMPTS: u32 = 16;

/// Retries for each preamble/download message before giving up.
const MAX_MESSAGE_RETRIES: u32 = 8;

/// Pause before re-trying after a timeout that isn't a known partition
/// (the plan gives no heal time to wait for).
const TIMEOUT_COOLDOWN: SimTime = SimTime::from_millis(250);

/// One cloud VM + client TEE pairing.
pub struct RecordSession {
    /// Recorder build.
    pub mode: RecorderMode,
    /// Shared clock.
    pub clock: Rc<Clock>,
    /// Shared stats.
    pub stats: Rc<Stats>,
    /// The shaped link.
    pub link: Rc<Link>,
    /// The client device.
    pub client: ClientDevice,
    /// Cloud-side shim (exposed for fault injection in experiments).
    pub shim: Rc<DriverShim>,
    /// The cloud GPU stack's kernel driver.
    pub driver: KbaseDriver<DriverShim>,
    cloud_mem: Rc<RefCell<Memory>>,
    regions: Rc<RefCell<RegionTable>>,
    signing_key: KeyPair,
    provisioning_secret: Vec<u8>,
    vm_measurement: [u8; 32],
}

/// Cloud VM memory size (the GPU stack's local replica).
const CLOUD_MEM_BYTES: usize = 96 << 20;

impl RecordSession {
    /// Builds a session: client device with `sku`, link with `conditions`,
    /// recorder build `mode`.
    pub fn new(sku: GpuSku, conditions: NetConditions, mode: RecorderMode) -> Self {
        Self::with_config(sku, conditions, mode, mode.config())
    }

    /// Like [`RecordSession::new`] but with an explicit shim configuration
    /// (for ablation experiments, e.g. sweeping the speculation threshold).
    pub fn with_config(
        sku: GpuSku,
        conditions: NetConditions,
        mode: RecorderMode,
        config: ShimConfig,
    ) -> Self {
        Self::with_image(
            sku,
            conditions,
            mode,
            config,
            crate::cloud::CloudVmImage::standard(),
        )
        .expect("standard image covers the SKU catalog")
    }

    /// Builds a session against a specific cloud VM image. The image's
    /// per-SKU devicetree is loaded for the connecting client (§6);
    /// returns an error if the image has no driver for the client's GPU.
    pub fn with_image(
        sku: GpuSku,
        conditions: NetConditions,
        mode: RecorderMode,
        config: ShimConfig,
        image: crate::cloud::CloudVmImage,
    ) -> Result<Self, crate::cloud::UnsupportedGpu> {
        // §6: the VM loads the devicetree matching the client's GPU model.
        let devicetree = image.devicetree_for(sku.gpu_id)?;
        let clock = Clock::new();
        let stats = Stats::new();
        let secret = PROVISIONING_SECRET.to_vec();
        let client = ClientDevice::new(sku, &clock, &stats, &secret);
        let link = Link::new(&clock, &stats, conditions);
        link.attach_energy(&client.energy, RadioPower::default());
        let shim = DriverShim::new(config, &clock, &stats, &link, &client.shim, &secret);
        let cloud_mem = Rc::new(RefCell::new(Memory::new(CLOUD_MEM_BYTES)));
        let driver = KbaseDriver::new(&shim, &cloud_mem, devicetree, 0, CLOUD_MEM_BYTES as u64);
        let regions = driver.regions();
        shim.attach_memory(&cloud_mem, &regions);
        Ok(RecordSession {
            mode,
            clock,
            stats,
            link,
            client,
            shim,
            driver,
            cloud_mem,
            regions,
            signing_key: KeyPair::derive(&secret, "recording"),
            provisioning_secret: secret,
            vm_measurement: image.measurement(),
        })
    }

    /// The recording-verification key the client TEE holds.
    pub fn recording_key(&self) -> KeyPair {
        self.signing_key.clone()
    }

    /// The cloud memory handle (for tests).
    pub fn cloud_mem(&self) -> Rc<RefCell<Memory>> {
        Rc::clone(&self.cloud_mem)
    }

    /// Attaches a deterministic fault schedule to the session's link;
    /// `record()` then checkpoints at every layer boundary and resumes
    /// across outages.
    pub fn attach_faults(&self, plan: &Rc<grt_sim::FaultPlan>) {
        self.link.attach_faults(plan);
    }

    /// Waits out a link failure: to the partition's heal time when the
    /// schedule knows one, a fixed cooldown otherwise, then past any
    /// partition window covering the new instant, and clears the latch.
    fn wait_out_link_failure(&self, err: grt_net::LinkError) {
        match err {
            grt_net::LinkError::Partitioned { healed_at } => {
                self.clock.advance_to(healed_at);
            }
            grt_net::LinkError::TimedOut { .. } => {
                self.clock.advance(TIMEOUT_COOLDOWN);
            }
        }
        if let Some(plan) = self.link.faults() {
            self.clock
                .advance_to(plan.link_available_at(self.clock.now()));
        }
        self.link.clear_error();
    }

    /// A preamble round trip (attestation, key confirmation): idempotent
    /// handshake traffic, so recovery is simply re-sending after the link
    /// heals.
    fn resilient_round_trip(&self, up: usize, down: usize) -> Result<(), RecordError> {
        let mut last = None;
        for _ in 0..MAX_MESSAGE_RETRIES {
            match self.link.try_round_trip(up, down) {
                Ok(_) => return Ok(()),
                Err(e) => {
                    self.stats.inc("record.preamble_retries");
                    last = Some(e);
                    self.wait_out_link_failure(e);
                }
            }
        }
        Err(RecordError::Link(last.expect("loop ran")))
    }

    /// Checks for a failure latched by infallible traffic (commits,
    /// sync transfers) during a preamble stage; waits it out. The dropped
    /// messages are idempotent protocol traffic — both parties re-send
    /// after the heal, charged as the failed ladder plus the heal wait.
    fn recover_preamble_stage(&self) {
        if let Some(e) = self.link.link_error() {
            self.stats.inc("record.preamble_retries");
            self.wait_out_link_failure(e);
        }
    }

    /// One layer of the dry run: begin marker, power up, jobs, power
    /// down. Aborts early (after cleanup) when the link latches a
    /// failure — the caller rolls back to the layer checkpoint.
    fn run_layer(
        &mut self,
        li: u32,
        layer: &grt_runtime::CompiledLayer,
    ) -> Result<(), RecordError> {
        self.shim.begin_layer(li);
        self.driver.power_up()?;
        for job in &layer.jobs {
            if self.link.link_error().is_some() {
                break;
            }
            if let Some(e) = self.shim.sync_fault() {
                // A down-sync diverged: abort the layer cleanly (the
                // recording rolls back to the last checkpoint or fails
                // with a typed error, never a panic mid-commit).
                self.driver.power_down()?;
                return Err(RecordError::Sync(self.shim.take_sync_fault().unwrap_or(e)));
            }
            self.shim.set_job_nominal_bytes(layer.nominal_data_bytes);
            self.clock.advance(CLOUD_CPU_PER_JOB);
            let submitted_at = self.clock.now();
            self.driver.submit_job(job.desc_va)?;
            loop {
                if !self.shim.wait_job_irq_remote() {
                    return Err(RecordError::ClientHang);
                }
                match self.driver.handle_job_irq()? {
                    JobIrqOutcome::Done => break,
                    JobIrqOutcome::Spurious => continue,
                    JobIrqOutcome::Failed(code) => {
                        return Err(RecordError::Driver(DriverError::JobFault(code)))
                    }
                }
            }
            // §3.3: the stack's implicit timing assumptions. Naive
            // forwarding routinely blows past the job watchdog.
            if self.clock.now() - submitted_at > JOB_WATCHDOG {
                self.stats.inc("driver.watchdog_violations");
            }
        }
        self.driver.power_down()?;
        if let Some(e) = self.shim.take_sync_fault() {
            return Err(RecordError::Sync(e));
        }
        Ok(())
    }

    /// §3.1 step 2: the whole record run for one workload.
    pub fn record(&mut self, spec: &NetworkSpec) -> Result<RecordOutcome, RecordError> {
        let t0 = self.clock.now();
        self.client.energy.reset();
        let rtts0 = self.stats.get("net.blocking_rtts");
        let sync0 = self.stats.get("sync.down_meta_bytes")
            + self.stats.get("sync.up_meta_bytes")
            + self.stats.get("sync.down_data_bytes")
            + self.stats.get("sync.up_data_bytes");
        let resumes0 = self.stats.get("record.checkpoint_resumes");
        let retx0 = self.stats.get("net.retransmissions");

        // --- Attestation handshake (§7.1): a couple of RTTs. -----------
        let nonce = [0x5Au8; 16];
        self.resilient_round_trip(96, 160)?;
        let report =
            AttestationReport::generate(&self.provisioning_secret, self.vm_measurement, nonce);
        if !report.verify(&self.provisioning_secret, &self.vm_measurement, &nonce) {
            return Err(RecordError::Attestation);
        }
        self.resilient_round_trip(64, 64)?; // Key confirmation.

        // --- Client TEE takes the GPU and scrubs all state (§3.2). ------
        self.client.shim.borrow_mut().lock_gpu();
        self.client.gpu.borrow_mut().hard_reset_now();
        self.client.mem.borrow_mut().wipe();
        self.client.shim.borrow_mut().reset_baselines();
        self.shim.reset_sync_state();

        // --- Cloud boots its GPU stack against the remote GPU. ---------
        self.driver.probe()?;
        self.recover_preamble_stage();
        let net = compile_network_dry(&mut self.driver, spec)?;

        // Dry-run input: zeros (§5 — inputs/parameters are zero-filled).
        let zeros = vec![0u8; spec.input_len as usize * 4];
        self.driver
            .copy_to_gpu(net.input_va, &zeros)
            .map_err(RecordError::Driver)?;
        self.recover_preamble_stage();

        // --- Layer-by-layer dry run with per-layer power cycling, ------
        // checkpointing at every layer boundary. A link outage mid-layer
        // rolls back to the last checkpoint and retries that layer after
        // the heal, instead of restarting the whole recording.
        // Checkpointing is skipped on a link that cannot fail (no fault
        // plan, no base loss): it would be pure overhead.
        let recoverable = self.link.has_faults() || self.link.conditions().loss_prob > 0.0;
        let mut li = 0usize;
        let mut attempts = 0u32;
        while li < net.layers.len() {
            let ckpt = if recoverable {
                Some(self.shim.checkpoint())
            } else {
                None
            };
            let result = self.run_layer(li as u32, &net.layers[li]);
            match (self.link.link_error(), ckpt) {
                (None, _) => {
                    result?;
                    li += 1;
                    attempts = 0;
                }
                (Some(err), Some(ckpt)) => {
                    attempts += 1;
                    if attempts >= MAX_LAYER_ATTEMPTS {
                        return Err(RecordError::Link(err));
                    }
                    self.stats.inc("record.checkpoint_resumes");
                    self.wait_out_link_failure(err);
                    self.shim.rollback(&ckpt);
                }
                (Some(err), None) => return Err(RecordError::Link(err)),
            }
        }

        // --- Post-process, sign, download (§3.2). -----------------------
        let builder = self.shim.take_builder();
        let regions = self.regions.borrow();
        let input = DataSlot {
            pa: region_pa(&regions, net.input_va),
            len_elems: net.input_len,
        };
        let output = DataSlot {
            pa: region_pa(&regions, net.output_va),
            len_elems: net.output_len,
        };
        let weights = net
            .weight_slots
            .iter()
            .map(|&(va, len)| DataSlot {
                pa: region_pa(&regions, va),
                len_elems: len,
            })
            .collect();
        drop(regions);
        let recording = builder.finish(
            spec.name.to_owned(),
            net.compiled_for_gpu_id,
            input,
            output,
            weights,
        );
        let signed = SignedRecording::sign(&recording, &self.signing_key);
        // The download is idempotent (same signed blob every attempt).
        let mut download_tries = 0;
        while let Err(e) = self
            .link
            .try_transfer(signed.bytes.len() + 32, Direction::Down)
        {
            download_tries += 1;
            if download_tries >= MAX_MESSAGE_RETRIES {
                return Err(RecordError::Link(e));
            }
            self.stats.inc("record.download_retries");
            self.wait_out_link_failure(e);
        }

        // --- Release the GPU back to the normal world. ------------------
        self.client.shim.borrow_mut().unlock_gpu();

        let delay = self.clock.now() - t0;
        Ok(RecordOutcome {
            recording: signed,
            delay,
            blocking_rtts: self.stats.get("net.blocking_rtts") - rtts0,
            sync_bytes: self.stats.get("sync.down_meta_bytes")
                + self.stats.get("sync.up_meta_bytes")
                + self.stats.get("sync.down_data_bytes")
                + self.stats.get("sync.up_data_bytes")
                - sync0,
            energy_j: self.client.energy.total_energy(),
            checkpoint_resumes: self.stats.get("record.checkpoint_resumes") - resumes0,
            link_retries: self.stats.get("net.retransmissions") - retx0,
            net,
        })
    }
}

/// Looks up a GPU VA's physical address in the driver's region table.
/// The runtime allocated every slot VA it hands back, so it is mapped.
fn region_pa(regions: &RegionTable, va: u64) -> u64 {
    regions
        .find_va(va)
        .and_then(|r| r.va_to_pa(va))
        .expect("compiled VA is always mapped")
}

impl std::fmt::Debug for RecordSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecordSession")
            .field("mode", &self.mode)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_mnist_produces_signed_recording() {
        let mut s = RecordSession::new(
            GpuSku::mali_g71_mp8(),
            NetConditions::wifi(),
            RecorderMode::OursMDS,
        );
        let spec = grt_ml::zoo::mnist();
        let out = s.record(&spec).unwrap();
        let rec = out
            .recording
            .verify_and_parse(&s.recording_key())
            .expect("valid signature");
        assert_eq!(rec.workload, "MNIST");
        assert_eq!(rec.gpu_id, 0x6000_0011);
        assert!(rec.events.len() > 500, "events={}", rec.events.len());
        assert_eq!(rec.input.len_elems, 784);
        assert_eq!(rec.output.len_elems, 10);
        assert!(!rec.weights.is_empty());
        // Layer markers present for all 8 layers.
        let layers = rec
            .events
            .iter()
            .filter(|e| matches!(e, grt_ir::recording::Event::BeginLayer { .. }))
            .count();
        assert_eq!(layers, spec.layers.len());
        assert!(out.delay > SimTime::ZERO);
        assert!(out.blocking_rtts > 0);
    }

    #[test]
    fn gpu_is_locked_during_and_released_after() {
        let mut s = RecordSession::new(
            GpuSku::mali_g71_mp8(),
            NetConditions::wifi(),
            RecorderMode::OursMDS,
        );
        let spec = grt_ml::zoo::mnist();
        assert!(!s.client.shim.borrow().is_locked());
        s.record(&spec).unwrap();
        assert!(!s.client.shim.borrow().is_locked());
        // Normal world was denied nothing yet (no adversary probing), but
        // the TZASC saw the claim/release cycle.
        assert_eq!(s.client.tzasc.range_count(), 0);
    }

    #[test]
    fn input_independence_dry_run_never_ships_weights() {
        let mut s = RecordSession::new(
            GpuSku::mali_g71_mp8(),
            NetConditions::wifi(),
            RecorderMode::OursMDS,
        );
        let spec = grt_ml::zoo::mnist();
        let out = s.record(&spec).unwrap();
        // The client's copy of every weight slot is still all zeros.
        let rec = out.recording.verify_and_parse(&s.recording_key()).unwrap();
        let mem = s.client.mem.borrow();
        for slot in &rec.weights {
            let bytes = mem.dump_range(slot.pa, slot.len_elems as usize * 4);
            assert!(bytes.iter().all(|&b| b == 0), "weights leaked to client");
        }
    }

    #[test]
    fn modes_order_by_round_trips() {
        let spec = grt_ml::zoo::mnist();
        let mut rtts = Vec::new();
        for mode in RecorderMode::ALL {
            let mut s = RecordSession::new(GpuSku::mali_g71_mp8(), NetConditions::wifi(), mode);
            let out = s.record(&spec).unwrap();
            rtts.push((mode.label(), out.blocking_rtts, out.delay));
        }
        // Naive ≈ OursM ≫ OursMD ≫ OursMDS in blocking round trips.
        assert!(rtts[1].1 as f64 > rtts[2].1 as f64 * 1.5, "{rtts:?}");
        assert!(rtts[2].1 as f64 > rtts[3].1 as f64 * 1.5, "{rtts:?}");
        // And the same ordering in delay.
        assert!(rtts[1].2 > rtts[2].2, "{rtts:?}");
        assert!(rtts[2].2 > rtts[3].2, "{rtts:?}");
    }

    #[test]
    fn record_run_drives_world_switches() {
        // Every cloud message is relayed through the normal world into the
        // TEE (§6), so a record run racks up hundreds of SMC transitions (one hop per arriving message).
        let mut s = RecordSession::new(
            GpuSku::mali_g71_mp8(),
            NetConditions::wifi(),
            RecorderMode::OursMDS,
        );
        s.record(&grt_ml::zoo::mnist()).unwrap();
        let switches = s.client.monitor.switch_count();
        assert!(switches > 500, "switches={switches}");
    }

    #[test]
    fn naive_sync_traffic_dwarfs_metaonly() {
        let spec = grt_ml::zoo::mnist();
        let mut naive = RecordSession::new(
            GpuSku::mali_g71_mp8(),
            NetConditions::wifi(),
            RecorderMode::Naive,
        );
        let naive_out = naive.record(&spec).unwrap();
        let mut ours = RecordSession::new(
            GpuSku::mali_g71_mp8(),
            NetConditions::wifi(),
            RecorderMode::OursM,
        );
        let ours_out = ours.record(&spec).unwrap();
        assert!(
            naive_out.sync_bytes as f64 > ours_out.sync_bytes as f64 * 3.0,
            "naive={} ours={}",
            naive_out.sync_bytes,
            ours_out.sync_bytes
        );
    }
}
