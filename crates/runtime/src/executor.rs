//! Inference execution over a compiled network.
//!
//! [`run_inference`] is the mode-independent loop: inject input, submit
//! each job (queue length 1), wait for its interrupt, handle it, read the
//! output. The [`ExecHooks`] implementation decides *how* waiting and
//! framework overhead happen: [`NativeHooks`] models the co-located stack
//! (Table 2's "Native"); grt-core's record session supplies hooks that
//! forward interrupts from the remote client.

use crate::network::CompiledNetwork;
use grt_driver::{DriverError, JobIrqOutcome, KbaseDriver, RegPort};
use grt_gpu::{Gpu, GpuSku, IrqLine, Memory, UploadScratch};
use grt_sim::{Clock, SimTime, Stats};
use std::cell::RefCell;
use std::rc::Rc;

/// Per-job CPU overhead of the ML framework + runtime + syscall path on
/// the native stack (drives Table 2's native delays).
pub const NATIVE_OVERHEAD_PER_JOB: SimTime = SimTime::from_micros(450);

/// Execution-environment hooks.
pub trait ExecHooks {
    /// Called before each job submission (framework CPU cost point).
    fn pre_job(&mut self, layer_idx: usize, job_idx: usize);

    /// Blocks until the job interrupt for the last submission fires.
    fn wait_job_irq(&mut self);

    /// Called at each layer boundary before its first job.
    fn pre_layer(&mut self, _layer_idx: usize) {}

    /// Called after a layer's last job completes.
    fn post_layer(&mut self, _layer_idx: usize) {}
}

/// Runs one inference through the driver.
pub fn run_inference<P: RegPort>(
    driver: &mut KbaseDriver<P>,
    net: &CompiledNetwork,
    input: &[f32],
    hooks: &mut dyn ExecHooks,
) -> Result<Vec<f32>, DriverError> {
    let mut scratch = UploadScratch::default();
    run_inference_with_scratch(driver, net, input, hooks, &mut scratch)
}

/// [`run_inference`] with a caller-owned staging buffer, for callers that
/// run many inferences back to back (see [`UploadScratch`]).
pub fn run_inference_with_scratch<P: RegPort>(
    driver: &mut KbaseDriver<P>,
    net: &CompiledNetwork,
    input: &[f32],
    hooks: &mut dyn ExecHooks,
    scratch: &mut UploadScratch,
) -> Result<Vec<f32>, DriverError> {
    assert_eq!(input.len(), net.input_len as usize, "input length");
    driver.copy_to_gpu(net.input_va, scratch.stage(input))?;

    for (li, layer) in net.layers.iter().enumerate() {
        hooks.pre_layer(li);
        for (ji, job) in layer.jobs.iter().enumerate() {
            hooks.pre_job(li, ji);
            driver.submit_job(job.desc_va)?;
            // Wait + handle, tolerating spurious wakeups on the shared line.
            loop {
                hooks.wait_job_irq();
                match driver.handle_job_irq()? {
                    JobIrqOutcome::Done => break,
                    JobIrqOutcome::Spurious => continue,
                    JobIrqOutcome::Failed(code) => return Err(DriverError::JobFault(code)),
                }
            }
        }
        hooks.post_layer(li);
    }

    let raw = driver.copy_from_gpu(net.output_va, net.output_len as usize * 4)?;
    Ok(raw
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

/// Hooks for the co-located native stack.
pub struct NativeHooks {
    gpu: Rc<RefCell<Gpu>>,
    clock: Rc<Clock>,
    /// Per-job framework overhead (defaults to [`NATIVE_OVERHEAD_PER_JOB`]).
    pub overhead: SimTime,
}

impl NativeHooks {
    /// Creates hooks over the native GPU.
    pub fn new(gpu: &Rc<RefCell<Gpu>>, clock: &Rc<Clock>) -> Self {
        NativeHooks {
            gpu: Rc::clone(gpu),
            clock: Rc::clone(clock),
            overhead: NATIVE_OVERHEAD_PER_JOB,
        }
    }
}

impl ExecHooks for NativeHooks {
    fn pre_job(&mut self, _layer_idx: usize, _job_idx: usize) {
        self.clock.advance(self.overhead);
    }

    fn wait_job_irq(&mut self) {
        let at = self
            .gpu
            .borrow_mut()
            .next_irq_at(IrqLine::Job)
            .expect("a submitted job always completes or faults");
        self.clock.advance_to(at);
    }
}

/// The whole native GPU stack on one device: clock, memory, GPU, driver.
///
/// # Examples
///
/// ```
/// use grt_runtime::NativeStack;
/// use grt_gpu::GpuSku;
///
/// let mut stack = NativeStack::boot(GpuSku::mali_g71_mp8()).unwrap();
/// let spec = grt_ml::zoo::mnist();
/// let net = stack.compile(&spec).unwrap();
/// let input = grt_ml::reference::test_input(&spec, 0);
/// let out = stack.infer(&net, &input).unwrap();
/// assert_eq!(out.len(), 10);
/// ```
pub struct NativeStack {
    /// Shared virtual clock.
    pub clock: Rc<Clock>,
    /// Shared counters.
    pub stats: Rc<Stats>,
    /// Device memory.
    pub mem: Rc<RefCell<Memory>>,
    /// The GPU.
    pub gpu: Rc<RefCell<Gpu>>,
    /// The kernel driver over the native port.
    pub driver: KbaseDriver<grt_driver::DirectPort>,
    /// Reused input-staging buffer (see [`UploadScratch`]).
    upload: UploadScratch,
}

/// Default device memory size for native stacks.
const NATIVE_MEM_BYTES: usize = 96 << 20;

impl NativeStack {
    /// Boots the full stack: probe + power-up on `sku`.
    pub fn boot(sku: GpuSku) -> Result<Self, DriverError> {
        let clock = Clock::new();
        let stats = Stats::new();
        let mem = Rc::new(RefCell::new(Memory::new(NATIVE_MEM_BYTES)));
        let gpu = Rc::new(RefCell::new(Gpu::new(sku.clone(), &clock, &mem)));
        let port = grt_driver::DirectPort::new(&gpu, &clock, &stats);
        let mut driver = KbaseDriver::new(&port, &mem, sku, 0, NATIVE_MEM_BYTES as u64);
        driver.probe()?;
        driver.power_up()?;
        Ok(NativeStack {
            clock,
            stats,
            mem,
            gpu,
            driver,
            upload: UploadScratch::default(),
        })
    }

    /// Compiles a network for this device.
    pub fn compile(&mut self, spec: &grt_ml::NetworkSpec) -> Result<CompiledNetwork, DriverError> {
        crate::network::compile_network(&mut self.driver, spec)
    }

    /// Runs one inference, returning the output and advancing the clock by
    /// the native end-to-end delay.
    pub fn infer(&mut self, net: &CompiledNetwork, input: &[f32]) -> Result<Vec<f32>, DriverError> {
        let mut hooks = NativeHooks::new(&self.gpu, &self.clock);
        run_inference_with_scratch(&mut self.driver, net, input, &mut hooks, &mut self.upload)
    }

    /// Like [`NativeStack::infer`] but also returns the inference delay.
    pub fn infer_timed(
        &mut self,
        net: &CompiledNetwork,
        input: &[f32],
    ) -> Result<(Vec<f32>, SimTime), DriverError> {
        let t0 = self.clock.now();
        let out = self.infer(net, input)?;
        Ok((out, self.clock.now() - t0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grt_ml::reference::{test_input, ReferenceNet};
    use grt_ml::zoo;

    fn close(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| (x - y).abs() < 1e-3 * (1.0 + x.abs().max(y.abs())))
    }

    #[test]
    fn mnist_native_matches_reference() {
        let spec = zoo::mnist();
        let mut stack = NativeStack::boot(GpuSku::mali_g71_mp8()).unwrap();
        let net = stack.compile(&spec).unwrap();
        let input = test_input(&spec, 3);
        let gpu_out = stack.infer(&net, &input).unwrap();
        let cpu_out = ReferenceNet::new(spec).infer(&input);
        assert!(close(&gpu_out, &cpu_out), "{gpu_out:?} vs {cpu_out:?}");
    }

    #[test]
    fn resnet_skip_connections_match_reference() {
        let spec = zoo::resnet12();
        let mut stack = NativeStack::boot(GpuSku::mali_g71_mp8()).unwrap();
        let net = stack.compile(&spec).unwrap();
        let input = test_input(&spec, 1);
        let gpu_out = stack.infer(&net, &input).unwrap();
        let cpu_out = ReferenceNet::new(spec).infer(&input);
        assert!(close(&gpu_out, &cpu_out), "{gpu_out:?} vs {cpu_out:?}");
    }

    #[test]
    fn repeated_inference_with_new_inputs() {
        let spec = zoo::mnist();
        let mut stack = NativeStack::boot(GpuSku::mali_g71_mp8()).unwrap();
        let net = stack.compile(&spec).unwrap();
        let reference = ReferenceNet::new(spec.clone());
        for variant in 0..3 {
            let input = test_input(&spec, variant);
            let gpu_out = stack.infer(&net, &input).unwrap();
            let cpu_out = reference.infer(&input);
            assert!(close(&gpu_out, &cpu_out), "variant {variant}");
        }
    }

    #[test]
    fn native_delay_scales_with_network() {
        let mut stack = NativeStack::boot(GpuSku::mali_g71_mp8()).unwrap();
        let mnist_spec = zoo::mnist();
        let mnist = stack.compile(&mnist_spec).unwrap();
        let (_, d_mnist) = stack
            .infer_timed(&mnist, &test_input(&mnist_spec, 0))
            .unwrap();
        // MNIST native should land in the low-millisecond range (Table 2:
        // 15.2 ms on the paper's hardware).
        let ms = d_mnist.as_millis_f64();
        assert!((5.0..40.0).contains(&ms), "mnist native = {ms} ms");
    }

    #[test]
    fn wrong_sku_compilation_faults_at_run() {
        // Compile for MP8 but the physical GPU is an MP4: the tiled
        // kernels must fault (SKU specificity, §2.4).
        let clock = Clock::new();
        let stats = Stats::new();
        let mem = Rc::new(RefCell::new(Memory::new(96 << 20)));
        let gpu = Rc::new(RefCell::new(Gpu::new(GpuSku::mali_g71_mp4(), &clock, &mem)));
        let port = grt_driver::DirectPort::new(&gpu, &clock, &stats);
        // Device tree *lies* about the SKU (simulating a stale recording
        // environment): driver thinks MP4 hardware is an MP8.
        let mut driver = KbaseDriver::new(
            &port,
            &mem,
            GpuSku {
                gpu_id: GpuSku::mali_g71_mp4().gpu_id,
                ..GpuSku::mali_g71_mp8()
            },
            0,
            96 << 20,
        );
        driver.probe().unwrap();
        driver.power_up().unwrap();
        let spec = zoo::mnist();
        let net = crate::network::compile_network(&mut driver, &spec).unwrap();
        let mut hooks = NativeHooks::new(&gpu, &clock);
        let err = run_inference(&mut driver, &net, &test_input(&spec, 0), &mut hooks).unwrap_err();
        assert!(matches!(err, DriverError::JobFault(_)), "{err:?}");
    }
}
