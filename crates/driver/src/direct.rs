//! The native register port: CPU and GPU co-located on one interconnect.
//!
//! This is the paper's baseline world — the GPU stack running directly on
//! the device (Table 2's "Native"), and also the port the original GR
//! recorder would use on a developer machine. Every access is synchronous
//! and costs on-chip latency (sub-microsecond), polling loops really spin,
//! and values are always concrete.

use crate::port::{Loc, LockId, RegPort, RegVal};
use grt_gpu::{Gpu, PollResult, PollSpec};
use grt_sim::{Clock, SimTime, Stats};
use std::cell::RefCell;
use std::rc::Rc;

/// Per-access MMIO latency on the on-chip interconnect.
const MMIO_ACCESS_TIME: SimTime = SimTime::from_nanos(200);

/// A synchronous port straight into the GPU model.
///
/// # Examples
///
/// ```
/// use grt_driver::direct::DirectPort;
/// use grt_driver::port::RegPort;
/// use grt_gpu::{Gpu, GpuSku, Memory};
/// use grt_gpu::regs::gpu_control as gc;
/// use grt_sim::{Clock, Stats};
/// use std::cell::RefCell;
/// use std::rc::Rc;
///
/// let clock = Clock::new();
/// let mem = Rc::new(RefCell::new(Memory::new(1 << 20)));
/// let gpu = Rc::new(RefCell::new(Gpu::new(GpuSku::mali_g71_mp8(), &clock, &mem)));
/// let port = DirectPort::new(&gpu, &clock, &Stats::new());
/// let id = port.read("doc", gc::GPU_ID);
/// assert_eq!(id.eval(), Some(0x6000_0011));
/// ```
#[derive(Debug)]
pub struct DirectPort {
    gpu: Rc<RefCell<Gpu>>,
    clock: Rc<Clock>,
    stats: Rc<Stats>,
}

impl DirectPort {
    /// Creates a port over `gpu`.
    pub fn new(gpu: &Rc<RefCell<Gpu>>, clock: &Rc<Clock>, stats: &Rc<Stats>) -> Rc<Self> {
        Rc::new(DirectPort {
            gpu: Rc::clone(gpu),
            clock: Rc::clone(clock),
            stats: Rc::clone(stats),
        })
    }

    /// The underlying GPU (used by native executors to wait on IRQs).
    pub fn gpu(&self) -> &Rc<RefCell<Gpu>> {
        &self.gpu
    }
}

impl RegPort for DirectPort {
    fn read(&self, _loc: Loc, offset: u32) -> RegVal {
        self.clock.advance(MMIO_ACCESS_TIME);
        self.stats.inc("port.reads");
        RegVal::from(self.gpu.borrow_mut().read_reg(offset))
    }

    fn write(&self, _loc: Loc, offset: u32, val: RegVal) {
        self.clock.advance(MMIO_ACCESS_TIME);
        self.stats.inc("port.writes");
        let v = val.eval().expect("native port never sees symbolic values");
        self.gpu.borrow_mut().write_reg(offset, v);
    }

    fn resolve(&self, _loc: Loc, val: &RegVal) -> u32 {
        val.eval().expect("native port never sees symbolic values")
    }

    fn poll(&self, _loc: Loc, spec: PollSpec) -> PollResult {
        self.stats.inc("port.polls");
        let mut iters = 0;
        loop {
            iters += 1;
            self.clock.advance(MMIO_ACCESS_TIME);
            let raw = self.gpu.borrow_mut().read_reg(spec.reg);
            self.stats.inc("port.reads");
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
            // The loop's udelay; fast-forward to the next hardware event if
            // it lands inside this sleep (the GPU can finish mid-delay).
            self.clock.advance(SimTime::from_micros(spec.delay_us));
        }
    }

    fn delay_us(&self, us: u64) {
        self.clock.advance(SimTime::from_micros(us));
    }

    fn lock(&self, _id: LockId) {}

    fn unlock(&self, _id: LockId) {}

    fn externalize(&self, _what: &str) {}

    fn enter_hot(&self, _name: &'static str) {}

    fn exit_hot(&self, _name: &'static str) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use grt_gpu::regs::gpu_control as gc;
    use grt_gpu::{GpuSku, Memory};

    fn setup() -> (Rc<Clock>, Rc<Stats>, Rc<DirectPort>) {
        let clock = Clock::new();
        let stats = Stats::new();
        let mem = Rc::new(RefCell::new(Memory::new(1 << 20)));
        let gpu = Rc::new(RefCell::new(Gpu::new(GpuSku::mali_g71_mp8(), &clock, &mem)));
        let port = DirectPort::new(&gpu, &clock, &stats);
        (clock, stats, port)
    }

    #[test]
    fn reads_are_concrete_and_cost_time() {
        let (clock, stats, port) = setup();
        let v = port.read("t", gc::GPU_ID);
        assert_eq!(v.eval(), Some(0x6000_0011));
        assert!(clock.now() > SimTime::ZERO);
        assert_eq!(stats.get("port.reads"), 1);
    }

    #[test]
    fn poll_spins_until_condition() {
        let (_clock, _stats, port) = setup();
        // Kick a cache clean, then poll for the completion IRQ bit.
        port.write("t", gc::GPU_COMMAND, RegVal::from(gc::CMD_CLEAN_CACHES));
        let r = port.poll(
            "t",
            PollSpec {
                reg: gc::GPU_IRQ_RAWSTAT,
                mask: gc::IRQ_CLEAN_CACHES_COMPLETED,
                cond: grt_gpu::PollCond::MaskedNonZero,
                max_iters: 100,
                delay_us: 5,
            },
        );
        assert!(r.satisfied);
        assert!(r.iters > 1, "flush takes multiple 5us polls natively");
        assert!(r.iters < 10);
    }

    #[test]
    fn poll_gives_up_at_max_iters() {
        let (_clock, _stats, port) = setup();
        let r = port.poll(
            "t",
            PollSpec {
                reg: gc::GPU_IRQ_RAWSTAT,
                mask: gc::IRQ_RESET_COMPLETED,
                cond: grt_gpu::PollCond::MaskedNonZero,
                max_iters: 3,
                delay_us: 1,
            },
        );
        assert!(!r.satisfied);
        assert_eq!(r.iters, 3);
    }

    #[test]
    fn delay_advances_clock() {
        let (clock, _stats, port) = setup();
        let t0 = clock.now();
        port.delay_us(100);
        assert_eq!((clock.now() - t0).as_micros(), 100);
    }
}
