//! Deterministic fault schedules for chaos experiments.
//!
//! The paper evaluates GR-T only under gentle NetEm shaping (§7.2); a
//! production record tunnel must survive partitions, flaps, and device
//! loss. A [`FaultPlan`] is a *seedable, deterministic* schedule of
//! injectable faults that any component can consult against the virtual
//! clock, replacing ad-hoc `loss_prob` coin flips:
//!
//! - **loss bursts** — windows during which message loss probability is
//!   elevated (on top of any base shaping);
//! - **RTT spikes** — windows during which propagation delay is
//!   multiplied;
//! - **partitions** — windows during which no message gets through at
//!   all, with a defined healing time;
//! - **device crashes** — a device dies at an instant and restarts (with
//!   wiped state) after a fixed delay;
//! - **slowdowns** — windows during which a device serves at a fraction
//!   of its nominal speed (thermal throttling, background contention).
//!
//! Because the plan is pure data queried by time, two runs with the same
//! seed see byte-identical fault sequences — the substrate the chaos
//! suite's determinism assertions stand on.

use crate::rng::Rng;
use crate::time::SimTime;

/// A half-open fault window `[start, end)` on the virtual timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// First instant the fault is active.
    pub start: SimTime,
    /// First instant the fault is no longer active (the healing time).
    pub end: SimTime,
}

impl Window {
    /// Creates a window; `end` is clamped up to `start`.
    pub fn new(start: SimTime, end: SimTime) -> Self {
        Window {
            start,
            end: end.max(start),
        }
    }

    /// Whether `t` falls inside the window.
    pub fn contains(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }
}

/// A window of elevated message loss.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossBurst {
    /// When the burst is active.
    pub window: Window,
    /// Loss probability during the burst (combined with base shaping by
    /// taking the maximum).
    pub loss_prob: f64,
}

/// A window of multiplied round-trip time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RttSpike {
    /// When the spike is active.
    pub window: Window,
    /// RTT multiplier (≥ 1.0).
    pub multiplier: f64,
}

/// A device crash: the device dies at `at` and restarts (with wiped
/// state) at `restart_at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crash {
    /// Index of the crashed device (interpretation is up to the consumer;
    /// the fleet uses worker indices).
    pub device: usize,
    /// Instant the device dies.
    pub at: SimTime,
    /// Instant the device is back and reachable.
    pub restart_at: SimTime,
}

/// A window of degraded device performance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slowdown {
    /// Index of the degraded device.
    pub device: usize,
    /// When the degradation is active.
    pub window: Window,
    /// Service-time multiplier (≥ 1.0).
    pub factor: f64,
}

/// Bounds for [`FaultPlan::generate`]'s random schedules.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlanConfig {
    /// Length of the faulted timeline; all windows fall inside it.
    pub horizon: SimTime,
    /// Number of devices crashes/slowdowns may target.
    pub devices: usize,
    /// Maximum loss bursts (actual count is drawn per plan).
    pub max_loss_bursts: u32,
    /// Maximum RTT spikes.
    pub max_rtt_spikes: u32,
    /// Maximum partitions.
    pub max_partitions: u32,
    /// Maximum crashes per device.
    pub max_crashes_per_device: u32,
    /// Maximum slowdown windows.
    pub max_slowdowns: u32,
}

impl Default for FaultPlanConfig {
    fn default() -> Self {
        FaultPlanConfig {
            horizon: SimTime::from_secs(30),
            devices: 4,
            max_loss_bursts: 3,
            max_rtt_spikes: 3,
            max_partitions: 2,
            max_crashes_per_device: 2,
            max_slowdowns: 2,
        }
    }
}

/// A deterministic, seedable schedule of injectable faults.
///
/// # Examples
///
/// ```
/// use grt_sim::{FaultPlan, SimTime};
///
/// let plan = FaultPlan::new()
///     .with_partition(SimTime::from_secs(1), SimTime::from_secs(2))
///     .with_loss_burst(SimTime::from_secs(3), SimTime::from_secs(4), 0.5);
/// assert!(plan.partitioned_at(SimTime::from_millis(1500)));
/// assert!(!plan.partitioned_at(SimTime::from_secs(2)));
/// assert_eq!(plan.loss_at(SimTime::from_millis(3500)), 0.5);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed the plan was generated from (0 for hand-built plans).
    pub seed: u64,
    loss_bursts: Vec<LossBurst>,
    rtt_spikes: Vec<RttSpike>,
    partitions: Vec<Window>,
    crashes: Vec<Crash>,
    slowdowns: Vec<Slowdown>,
}

impl FaultPlan {
    /// An empty plan (no faults ever).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Generates a random plan from `seed` within `cfg`'s bounds. Same
    /// seed + same config ⇒ identical plan.
    pub fn generate(seed: u64, cfg: &FaultPlanConfig) -> Self {
        let mut rng = Rng::new(seed ^ 0xFA17_FA17_FA17_FA17);
        let h = cfg.horizon.as_micros().max(1);
        let window = |rng: &mut Rng, max_len_us: u64| {
            let start = rng.gen_range(h);
            let len = 1 + rng.gen_range(max_len_us.max(1));
            Window::new(
                SimTime::from_micros(start),
                SimTime::from_micros((start + len).min(h)),
            )
        };
        let mut plan = FaultPlan {
            seed,
            ..FaultPlan::default()
        };
        for _ in 0..rng.gen_range(cfg.max_loss_bursts as u64 + 1) {
            let w = window(&mut rng, h / 8);
            plan.loss_bursts.push(LossBurst {
                window: w,
                loss_prob: 0.1 + 0.8 * rng.gen_f64(),
            });
        }
        for _ in 0..rng.gen_range(cfg.max_rtt_spikes as u64 + 1) {
            let w = window(&mut rng, h / 8);
            plan.rtt_spikes.push(RttSpike {
                window: w,
                multiplier: 1.5 + 6.5 * rng.gen_f64(),
            });
        }
        for _ in 0..rng.gen_range(cfg.max_partitions as u64 + 1) {
            // Partitions are kept short relative to the horizon so that a
            // generated plan always heals.
            plan.partitions.push(window(&mut rng, h / 10));
        }
        for device in 0..cfg.devices {
            for _ in 0..rng.gen_range(cfg.max_crashes_per_device as u64 + 1) {
                let at = SimTime::from_micros(rng.gen_range(h));
                let down = SimTime::from_micros(100_000 + rng.gen_range(h / 10));
                plan.crashes.push(Crash {
                    device,
                    at,
                    restart_at: at + down,
                });
            }
        }
        for _ in 0..rng.gen_range(cfg.max_slowdowns as u64 + 1) {
            let w = window(&mut rng, h / 6);
            plan.slowdowns.push(Slowdown {
                device: rng.gen_range(cfg.devices.max(1) as u64) as usize,
                window: w,
                factor: 1.5 + 4.5 * rng.gen_f64(),
            });
        }
        plan.normalize();
        plan
    }

    fn normalize(&mut self) {
        self.partitions.sort_by_key(|w| (w.start, w.end));
        self.crashes.sort_by_key(|c| (c.at, c.device));
        self.loss_bursts
            .sort_by_key(|b| (b.window.start, b.window.end));
        self.rtt_spikes
            .sort_by_key(|s| (s.window.start, s.window.end));
        self.slowdowns
            .sort_by_key(|s| (s.window.start, s.window.end, s.device));
    }

    /// Adds a link partition healing at `end`.
    pub fn with_partition(mut self, start: SimTime, end: SimTime) -> Self {
        self.partitions.push(Window::new(start, end));
        self.normalize();
        self
    }

    /// Adds a loss burst of probability `loss_prob` over `[start, end)`.
    pub fn with_loss_burst(mut self, start: SimTime, end: SimTime, loss_prob: f64) -> Self {
        self.loss_bursts.push(LossBurst {
            window: Window::new(start, end),
            loss_prob: loss_prob.clamp(0.0, 1.0),
        });
        self.normalize();
        self
    }

    /// Adds an RTT spike multiplying propagation delay by `multiplier`.
    pub fn with_rtt_spike(mut self, start: SimTime, end: SimTime, multiplier: f64) -> Self {
        self.rtt_spikes.push(RttSpike {
            window: Window::new(start, end),
            multiplier: multiplier.max(1.0),
        });
        self.normalize();
        self
    }

    /// Adds a device crash at `at`, restarting `down_for` later.
    pub fn with_crash(mut self, device: usize, at: SimTime, down_for: SimTime) -> Self {
        self.crashes.push(Crash {
            device,
            at,
            restart_at: at + down_for,
        });
        self.normalize();
        self
    }

    /// Adds a device slowdown window multiplying service time by `factor`.
    pub fn with_slowdown(
        mut self,
        device: usize,
        start: SimTime,
        end: SimTime,
        factor: f64,
    ) -> Self {
        self.slowdowns.push(Slowdown {
            device,
            window: Window::new(start, end),
            factor: factor.max(1.0),
        });
        self.normalize();
        self
    }

    /// Whether the plan contains no faults at all.
    pub fn is_empty(&self) -> bool {
        self.loss_bursts.is_empty()
            && self.rtt_spikes.is_empty()
            && self.partitions.is_empty()
            && self.crashes.is_empty()
            && self.slowdowns.is_empty()
    }

    /// Whether the link is partitioned at `t`.
    pub fn partitioned_at(&self, t: SimTime) -> bool {
        self.partitions.iter().any(|w| w.contains(t))
    }

    /// The earliest instant `>= t` at which the link is not partitioned
    /// (chained/overlapping partitions are walked through).
    pub fn link_available_at(&self, t: SimTime) -> SimTime {
        let mut t = t;
        loop {
            match self.partitions.iter().find(|w| w.contains(t)) {
                Some(w) => t = w.end,
                None => return t,
            }
        }
    }

    /// Injected loss probability at `t` (max over active bursts; 0 when
    /// none is active). Combine with base shaping by taking the max.
    pub fn loss_at(&self, t: SimTime) -> f64 {
        self.loss_bursts
            .iter()
            .filter(|b| b.window.contains(t))
            .map(|b| b.loss_prob)
            .fold(0.0, f64::max)
    }

    /// RTT multiplier at `t` (max over active spikes; 1.0 when none).
    pub fn rtt_multiplier_at(&self, t: SimTime) -> f64 {
        self.rtt_spikes
            .iter()
            .filter(|s| s.window.contains(t))
            .map(|s| s.multiplier)
            .fold(1.0, f64::max)
    }

    /// Whether `device` is up (not inside any crash outage) at `t`.
    pub fn device_up(&self, device: usize, t: SimTime) -> bool {
        !self
            .crashes
            .iter()
            .any(|c| c.device == device && c.at <= t && t < c.restart_at)
    }

    /// All crashes in schedule order (sorted by time, then device).
    pub fn crashes(&self) -> &[Crash] {
        &self.crashes
    }

    /// The first crash of `device` strictly inside `(from, to]`, if any —
    /// how the fleet detects that an in-flight service interval was
    /// interrupted.
    pub fn crash_within(&self, device: usize, from: SimTime, to: SimTime) -> Option<Crash> {
        self.crashes
            .iter()
            .find(|c| c.device == device && from < c.at && c.at <= to)
            .copied()
    }

    /// Service-time multiplier for `device` at `t` (max over active
    /// slowdowns; 1.0 when none).
    pub fn slowdown_at(&self, device: usize, t: SimTime) -> f64 {
        self.slowdowns
            .iter()
            .filter(|s| s.device == device && s.window.contains(t))
            .map(|s| s.factor)
            .fold(1.0, f64::max)
    }

    /// Human-readable one-line summary for bench banners.
    pub fn summary(&self) -> String {
        format!(
            "seed={} bursts={} spikes={} partitions={} crashes={} slowdowns={}",
            self.seed,
            self.loss_bursts.len(),
            self.rtt_spikes.len(),
            self.partitions.len(),
            self.crashes.len(),
            self.slowdowns.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = FaultPlanConfig::default();
        assert_eq!(FaultPlan::generate(7, &cfg), FaultPlan::generate(7, &cfg));
        assert_ne!(FaultPlan::generate(7, &cfg), FaultPlan::generate(8, &cfg));
    }

    #[test]
    fn partition_queries_and_healing() {
        let plan = FaultPlan::new()
            .with_partition(ms(100), ms(200))
            .with_partition(ms(200), ms(250));
        assert!(!plan.partitioned_at(ms(99)));
        assert!(plan.partitioned_at(ms(100)));
        assert!(plan.partitioned_at(ms(199)));
        // Chained partitions are walked through to the final heal.
        assert_eq!(plan.link_available_at(ms(150)), ms(250));
        assert_eq!(plan.link_available_at(ms(300)), ms(300));
    }

    #[test]
    fn loss_and_rtt_compose_by_max() {
        let plan = FaultPlan::new()
            .with_loss_burst(ms(0), ms(100), 0.2)
            .with_loss_burst(ms(50), ms(150), 0.6)
            .with_rtt_spike(ms(0), ms(100), 3.0);
        assert_eq!(plan.loss_at(ms(75)), 0.6);
        assert_eq!(plan.loss_at(ms(120)), 0.6);
        assert_eq!(plan.loss_at(ms(160)), 0.0);
        assert_eq!(plan.rtt_multiplier_at(ms(10)), 3.0);
        assert_eq!(plan.rtt_multiplier_at(ms(110)), 1.0);
    }

    #[test]
    fn device_crash_windows() {
        let plan = FaultPlan::new().with_crash(1, ms(100), ms(50));
        assert!(plan.device_up(1, ms(99)));
        assert!(!plan.device_up(1, ms(100)));
        assert!(!plan.device_up(1, ms(149)));
        assert!(plan.device_up(1, ms(150)));
        assert!(plan.device_up(0, ms(120)), "other devices unaffected");
        let c = plan.crash_within(1, ms(50), ms(120)).unwrap();
        assert_eq!(c.restart_at, ms(150));
        assert!(
            plan.crash_within(1, ms(100), ms(120)).is_none(),
            "exclusive lower bound"
        );
    }

    #[test]
    fn slowdown_factor() {
        let plan = FaultPlan::new().with_slowdown(0, ms(10), ms(20), 4.0);
        assert_eq!(plan.slowdown_at(0, ms(15)), 4.0);
        assert_eq!(plan.slowdown_at(0, ms(25)), 1.0);
        assert_eq!(plan.slowdown_at(1, ms(15)), 1.0);
    }

    #[test]
    fn generated_plans_stay_in_horizon_and_heal() {
        let cfg = FaultPlanConfig::default();
        for seed in 0..50 {
            let plan = FaultPlan::generate(seed, &cfg);
            for w in &plan.partitions {
                assert!(w.end <= cfg.horizon);
                assert!(w.start <= w.end);
            }
            // Every partition heals strictly before the horizon's end.
            assert_eq!(
                plan.link_available_at(SimTime::ZERO).min(cfg.horizon),
                plan.link_available_at(SimTime::ZERO)
            );
            for c in plan.crashes() {
                assert!(c.restart_at > c.at, "restart must be after crash");
            }
        }
    }
}
