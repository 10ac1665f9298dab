//! Network channel model between the cloud VM and the client TEE.
//!
//! The paper evaluates GR-T under NetEm-shaped conditions (§7.2): a
//! WiFi-like link (20 ms RTT, 80 Mbps) and a cellular-like link (50 ms RTT,
//! 40 Mbps). This crate models a [`Link`] on the shared virtual clock:
//!
//! - a **blocking round trip** advances the clock by RTT plus serialization
//!   time for both directions (this is what a synchronous register-access
//!   commit costs);
//! - an **asynchronous send** computes when the message would complete
//!   *without* advancing the clock — the caller joins on the returned
//!   completion time later (this is how speculative commits hide their RTT);
//! - every message is accounted (count, bytes up/down, blocking RTTs) into a
//!   shared [`grt_sim::Stats`], which is exactly the data behind Table 1;
//! - optionally, radio energy is charged to a [`grt_sim::EnergyMeter`]
//!   (Figure 9).
//!
//! # Fault tolerance
//!
//! Every logical message carries a **sequence number**; a retransmission
//! reuses its message's sequence number, so the receiver applies each
//! message at most once (duplicates from a lost *response* are deduped and
//! answered from the response cache — see `net.dup_suppressed`). Lost or
//! partitioned sends are retried under a bounded [`RetryPolicy`]
//! (exponential backoff plus deterministic jitter); when the budget is
//! exhausted the operation fails with a typed [`LinkError`] instead of
//! stalling, and the link **latches** the error: subsequent operations
//! fast-fail with zero cost until [`Link::clear_error`], so a session can
//! notice the outage at its next checkpoint without paying a retry ladder
//! per access. Attach a [`grt_sim::FaultPlan`] with [`Link::attach_faults`]
//! to drive loss bursts, RTT spikes, and partitions from a deterministic
//! schedule.
//!
//! # Stats accounting
//!
//! Retransmissions never double-count the Table-1 numbers:
//!
//! - `net.messages`, `net.bytes_up`, `net.bytes_down`, `net.blocking_rtts`
//!   count **logical** messages exactly once, however many attempts each
//!   took;
//! - `net.retransmissions` counts retransmitted attempts and
//!   `net.retx_bytes_up` the request bytes those attempts re-sent;
//! - `net.dup_suppressed` counts retransmits the receiver deduped by
//!   sequence number (the request had been applied; only the response was
//!   lost);
//! - `net.link_failures` counts messages abandoned after the retry budget,
//!   and `net.dropped_while_broken` operations skipped while the error
//!   latch was set.

#![warn(missing_docs)]

use grt_sim::{Clock, EnergyMeter, FaultPlan, Rail, Rng, SimTime, Stats};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Shaped network conditions, NetEm-style.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetConditions {
    /// Round-trip time (propagation both ways, excluding serialization).
    pub rtt: SimTime,
    /// Link bandwidth in bits per second (applies to each direction).
    pub bandwidth_bps: u64,
    /// Uniform RTT jitter as a fraction of `rtt` (0.0 = none). Drawn from
    /// a deterministic per-link stream, like NetEm's `delay ... jitter`.
    pub jitter_frac: f64,
    /// Probability that a message is lost and must be retransmitted after
    /// a timeout (NetEm's `loss`).
    pub loss_prob: f64,
}

impl NetConditions {
    /// WiFi-like conditions from §7.2: 20 ms RTT, 80 Mbps.
    pub fn wifi() -> Self {
        NetConditions {
            rtt: SimTime::from_millis(20),
            bandwidth_bps: 80_000_000,
            jitter_frac: 0.0,
            loss_prob: 0.0,
        }
    }

    /// Cellular-like conditions from §7.2: 50 ms RTT, 40 Mbps.
    pub fn cellular() -> Self {
        NetConditions {
            rtt: SimTime::from_millis(50),
            bandwidth_bps: 40_000_000,
            jitter_frac: 0.0,
            loss_prob: 0.0,
        }
    }

    /// A same-machine loopback used by native (non-GR-T) baselines.
    pub fn loopback() -> Self {
        NetConditions {
            rtt: SimTime::from_micros(1),
            bandwidth_bps: 100_000_000_000,
            jitter_frac: 0.0,
            loss_prob: 0.0,
        }
    }

    /// Arbitrary conditions for parameter sweeps.
    pub fn custom(rtt: SimTime, bandwidth_bps: u64) -> Self {
        NetConditions {
            rtt,
            bandwidth_bps,
            jitter_frac: 0.0,
            loss_prob: 0.0,
        }
    }

    /// Adds uniform RTT jitter (fraction of the base RTT).
    pub fn with_jitter(mut self, frac: f64) -> Self {
        self.jitter_frac = frac.max(0.0);
        self
    }

    /// Adds a message-loss probability (retransmit after timeout).
    pub fn with_loss(mut self, prob: f64) -> Self {
        self.loss_prob = prob.clamp(0.0, 1.0);
        self
    }

    /// Serialization time for `bytes` at this link's bandwidth.
    pub fn tx_time(&self, bytes: usize) -> SimTime {
        let bits = bytes as u64 * 8;
        SimTime::from_secs_f64(bits as f64 / self.bandwidth_bps.max(1) as f64)
    }

    /// Human-readable label ("rtt=20ms bw=80Mbps").
    pub fn label(&self) -> String {
        format!(
            "rtt={}ms bw={}Mbps",
            self.rtt.as_millis(),
            self.bandwidth_bps / 1_000_000
        )
    }
}

/// Radio power model for energy accounting (Figure 9).
///
/// Values are representative of the HiKey960's WL1835 WiFi module.
#[derive(Debug, Clone, Copy)]
pub struct RadioPower {
    /// Draw while transmitting, in watts.
    pub tx_watts: f64,
    /// Draw while receiving, in watts.
    pub rx_watts: f64,
    /// Draw while the radio is awake but idle (waiting on a response).
    pub idle_watts: f64,
}

impl Default for RadioPower {
    fn default() -> Self {
        RadioPower {
            tx_watts: 0.9,
            rx_watts: 0.65,
            idle_watts: 0.25,
        }
    }
}

/// Why a link operation failed after its retry budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkError {
    /// Every attempt timed out (loss, not a known partition).
    TimedOut {
        /// Send attempts made (the policy's full budget).
        attempts: u32,
    },
    /// The fault plan says the link is partitioned; `healed_at` is the
    /// instant the partition (chain) ends, so a caller can schedule a
    /// checkpoint resume.
    Partitioned {
        /// Virtual time at which the link becomes available again.
        healed_at: SimTime,
    },
}

impl std::fmt::Display for LinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkError::TimedOut { attempts } => {
                write!(f, "link timed out after {attempts} attempts")
            }
            LinkError::Partitioned { healed_at } => {
                write!(f, "link partitioned (heals at {healed_at})")
            }
        }
    }
}

impl std::error::Error for LinkError {}

/// Bounded retransmission policy: how hard a link tries before surfacing
/// a [`LinkError`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total send attempts per logical message (first send included).
    pub max_attempts: u32,
    /// Initial retransmission timeout, as a multiple of the base RTT.
    pub rto_rtts: f64,
    /// RTO multiplier applied per retransmission (exponential backoff).
    pub backoff: f64,
    /// Uniform jitter fraction added to each RTO (decorrelates retry
    /// storms; drawn from the link's deterministic fault stream).
    pub jitter_frac: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 6,
            rto_rtts: 1.5,
            backoff: 2.0,
            jitter_frac: 0.1,
        }
    }
}

/// How a delivery attempt sequence played out (internal).
struct Schedule {
    /// Total time spent waiting out retransmission timeouts.
    wait: SimTime,
    /// The successful attempt's propagation time (both ways, jittered).
    leg: SimTime,
}

/// A cloud↔client link bound to the shared virtual clock.
///
/// # Examples
///
/// ```
/// use grt_net::{Link, NetConditions};
/// use grt_sim::{Clock, Stats};
///
/// let clock = Clock::new();
/// let stats = Stats::new();
/// let link = Link::new(&clock, &stats, NetConditions::wifi());
/// link.round_trip(200, 200);
/// assert!(clock.now().as_millis() >= 20);
/// assert_eq!(stats.get("net.blocking_rtts"), 1);
/// ```
#[derive(Debug)]
pub struct Link {
    clock: Rc<Clock>,
    stats: Rc<Stats>,
    conditions: RefCell<NetConditions>,
    energy: RefCell<Option<(Rc<EnergyMeter>, RadioPower)>>,
    /// Base-shaping stream (legacy jitter/loss draws). Kept separate from
    /// `fault_rng` so attaching a quiet fault plan leaves zero-fault runs
    /// byte-identical.
    rng: RefCell<Rng>,
    /// Fault-schedule stream: burst-loss draws, RTO jitter, loss-direction
    /// draws.
    fault_rng: RefCell<Rng>,
    faults: RefCell<Option<Rc<FaultPlan>>>,
    policy: Cell<RetryPolicy>,
    /// Sequence number of the next logical message.
    next_seq: Cell<u64>,
    /// Latched failure: set when a retry budget is exhausted; all later
    /// operations fast-fail until cleared.
    error: Cell<Option<LinkError>>,
}

impl Link {
    /// Creates a link with the given shaped conditions.
    pub fn new(clock: &Rc<Clock>, stats: &Rc<Stats>, conditions: NetConditions) -> Rc<Link> {
        Rc::new(Link {
            clock: Rc::clone(clock),
            stats: Rc::clone(stats),
            conditions: RefCell::new(conditions),
            energy: RefCell::new(None),
            rng: RefCell::new(Rng::new(0x006e_6574_6c69_6e6b)),
            fault_rng: RefCell::new(Rng::new(0x00fa_756c_7472_6e67)),
            faults: RefCell::new(None),
            policy: Cell::new(RetryPolicy::default()),
            next_seq: Cell::new(0),
            error: Cell::new(None),
        })
    }

    /// Attaches an energy meter; radio energy is charged per transfer.
    pub fn attach_energy(&self, meter: &Rc<EnergyMeter>, power: RadioPower) {
        *self.energy.borrow_mut() = Some((Rc::clone(meter), power));
    }

    /// Attaches a deterministic fault schedule. Loss bursts, RTT spikes,
    /// and partitions in the plan shape every subsequent operation.
    pub fn attach_faults(&self, plan: &Rc<FaultPlan>) {
        *self.faults.borrow_mut() = Some(Rc::clone(plan));
    }

    /// The attached fault plan, if any.
    pub fn faults(&self) -> Option<Rc<FaultPlan>> {
        self.faults.borrow().clone()
    }

    /// Whether a fault plan is attached.
    pub fn has_faults(&self) -> bool {
        self.faults.borrow().is_some()
    }

    /// Replaces the retransmission policy.
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        self.policy.set(policy);
    }

    /// Replaces the link conditions (used by the network sweep example).
    pub fn set_conditions(&self, conditions: NetConditions) {
        *self.conditions.borrow_mut() = conditions;
    }

    /// Current link conditions.
    pub fn conditions(&self) -> NetConditions {
        *self.conditions.borrow()
    }

    /// The latched link failure, if the retry budget was ever exhausted
    /// and not yet cleared.
    pub fn link_error(&self) -> Option<LinkError> {
        self.error.get()
    }

    /// Clears the latched failure so traffic flows again (a session does
    /// this after waiting out a partition before resuming from its
    /// checkpoint).
    pub fn clear_error(&self) {
        self.error.set(None);
    }

    /// Sequence number of the most recently sent logical message (0 when
    /// nothing was sent yet). Retransmissions reuse their message's
    /// number, which is what makes them idempotent at the receiver.
    pub fn last_seq(&self) -> u64 {
        self.next_seq.get()
    }

    /// Runs the bounded retransmission schedule for one logical message
    /// starting at virtual time `start`, without touching the clock.
    /// Returns the schedule or a typed error; accounts retransmission
    /// stats either way.
    fn schedule(
        &self,
        c: &NetConditions,
        request_bytes: usize,
        start: SimTime,
    ) -> Result<Schedule, LinkError> {
        let policy = self.policy.get();
        let plan = self.faults.borrow().clone();
        let mut vnow = start;
        let mut wait = SimTime::ZERO;
        let mut rto = c.rtt.mul_f64(policy.rto_rtts.max(0.5));
        let max_attempts = policy.max_attempts.max(1);
        for attempt in 1..=max_attempts {
            // Decide this attempt's fate. Partition ⇒ deterministic loss;
            // otherwise draw against the combined loss probability, from
            // the fault stream when a burst is active (so quiet plans
            // leave the base stream untouched).
            let partitioned = plan.as_ref().is_some_and(|p| p.partitioned_at(vnow));
            let lost = if partitioned {
                true
            } else {
                let burst = plan.as_ref().map_or(0.0, |p| p.loss_at(vnow));
                if burst > 0.0 {
                    self.fault_rng.borrow_mut().chance(burst.max(c.loss_prob))
                } else if c.loss_prob > 0.0 {
                    self.rng.borrow_mut().chance(c.loss_prob)
                } else {
                    false
                }
            };
            if !lost {
                let mult = plan.as_ref().map_or(1.0, |p| p.rtt_multiplier_at(vnow));
                let jitter = if c.jitter_frac > 0.0 {
                    c.rtt
                        .mul_f64(c.jitter_frac * self.rng.borrow_mut().gen_f64())
                } else {
                    SimTime::ZERO
                };
                return Ok(Schedule {
                    wait,
                    leg: c.rtt.mul_f64(mult) + jitter,
                });
            }
            // Lost. If the loss was on the response leg, the receiver did
            // apply the request; the retransmit below will be deduped by
            // its sequence number (idempotence).
            if !partitioned && self.fault_rng.borrow_mut().chance(0.5) {
                self.stats.inc("net.dup_suppressed");
            }
            if attempt == max_attempts {
                break;
            }
            // Wait out the (jittered, exponentially backed-off) RTO, then
            // retransmit.
            let rto_jitter = if policy.jitter_frac > 0.0 {
                1.0 + policy.jitter_frac * self.fault_rng.borrow_mut().gen_f64()
            } else {
                1.0
            };
            let this_wait = rto.mul_f64(rto_jitter);
            wait += this_wait;
            vnow += this_wait;
            rto = rto.mul_f64(policy.backoff.max(1.0));
            self.stats.inc("net.retransmissions");
            self.stats.add("net.retx_bytes_up", request_bytes as u64);
        }
        self.stats.inc("net.link_failures");
        let err = match plan.as_ref() {
            Some(p) if p.partitioned_at(vnow) => LinkError::Partitioned {
                healed_at: p.link_available_at(vnow),
            },
            _ => LinkError::TimedOut {
                attempts: max_attempts,
            },
        };
        // The budget-exhaustion wait is real elapsed time; report it via
        // the schedule the callers advance by.
        self.error.set(Some(err));
        self.stats.add("net.failure_wait_ns", wait.as_nanos());
        Err(err)
    }

    fn charge_energy(&self, tx: SimTime, rx: SimTime, idle: SimTime) {
        if let Some((meter, p)) = self.energy.borrow().as_ref() {
            meter.add_energy(
                Rail::Radio,
                p.tx_watts * tx.as_secs_f64()
                    + p.rx_watts * rx.as_secs_f64()
                    + p.idle_watts * idle.as_secs_f64(),
            );
        }
    }

    /// Books the logical-message counters (exactly once per message,
    /// regardless of retransmissions).
    fn account_message(&self, request_bytes: usize, response_bytes: usize) {
        self.next_seq.set(self.next_seq.get() + 1);
        self.stats.inc("net.messages");
        self.stats.add("net.bytes_up", request_bytes as u64);
        self.stats.add("net.bytes_down", response_bytes as u64);
    }

    /// A blocking request/response exchange: the caller cannot make
    /// progress until the response arrives. Advances the clock and
    /// returns the elapsed time; on retry-budget exhaustion the elapsed
    /// timeout ladder still passes, the error latches, and the typed
    /// error is returned.
    ///
    /// This is the cost of a synchronous register-access commit (§4.1) or
    /// a naive per-access forwarding round trip.
    pub fn try_round_trip(
        &self,
        request_bytes: usize,
        response_bytes: usize,
    ) -> Result<SimTime, LinkError> {
        if let Some(e) = self.error.get() {
            self.stats.inc("net.dropped_while_broken");
            return Err(e);
        }
        let c = self.conditions();
        let tx = c.tx_time(request_bytes);
        let rx = c.tx_time(response_bytes);
        self.account_message(request_bytes, response_bytes);
        self.stats.inc("net.blocking_rtts");
        match self.schedule(&c, request_bytes, self.clock.now()) {
            Ok(s) => {
                let total = s.wait + s.leg + tx + rx;
                self.clock.advance(total);
                self.charge_energy(tx, rx, s.wait + c.rtt);
                Ok(total)
            }
            Err(e) => {
                // The failed ladder's timeouts still elapsed.
                let ladder = self.ladder_time(&c);
                self.clock.advance(ladder);
                self.charge_energy(tx, SimTime::ZERO, ladder);
                Err(e)
            }
        }
    }

    /// Infallible wrapper around [`Link::try_round_trip`] for the legacy
    /// record path: on failure the error stays latched for the session
    /// layer to observe at its next checkpoint, and the elapsed ladder
    /// time is returned.
    pub fn round_trip(&self, request_bytes: usize, response_bytes: usize) -> SimTime {
        match self.try_round_trip(request_bytes, response_bytes) {
            Ok(dt) => dt,
            Err(_) => SimTime::ZERO,
        }
    }

    /// Total wall time of a full failed retry ladder under the current
    /// policy (every attempt timed out).
    fn ladder_time(&self, c: &NetConditions) -> SimTime {
        let policy = self.policy.get();
        let mut rto = c.rtt.mul_f64(policy.rto_rtts.max(0.5));
        let mut total = SimTime::ZERO;
        for _ in 1..policy.max_attempts.max(1) {
            total += rto;
            rto = rto.mul_f64(policy.backoff.max(1.0));
        }
        // The final attempt's timeout also passes before giving up.
        total + rto
    }

    /// An asynchronous exchange: computes the absolute virtual time at
    /// which the response would be fully received, **without advancing
    /// the clock**.
    ///
    /// Speculative commits (§4.2) use this: the cloud continues executing
    /// on predicted values and joins on the returned completion time only
    /// when forced to (externalization, speculative commit, validation).
    /// Under faults the completion time includes retransmission waits; if
    /// the retry budget is exhausted the error latches (the session sees
    /// it at the next synchronization point) and the returned completion
    /// time covers the failed ladder.
    pub fn round_trip_async(&self, request_bytes: usize, response_bytes: usize) -> SimTime {
        if self.error.get().is_some() {
            self.stats.inc("net.dropped_while_broken");
            return self.clock.now();
        }
        let c = self.conditions();
        let tx = c.tx_time(request_bytes);
        let rx = c.tx_time(response_bytes);
        self.account_message(request_bytes, response_bytes);
        self.stats.inc("net.async_rtts");
        // Overlapped exchanges do not serialize radio idle time; only the
        // actual transmit/receive energy is charged.
        self.charge_energy(tx, rx, SimTime::ZERO);
        match self.schedule(&c, request_bytes, self.clock.now()) {
            Ok(s) => self.clock.now() + s.wait + s.leg + tx + rx,
            Err(_) => self.clock.now() + self.ladder_time(&c),
        }
    }

    /// A one-way bulk transfer (memory-dump synchronization, recording
    /// download). Advances the clock by half an RTT plus serialization
    /// time; lost transfers retransmit under the policy like round trips.
    pub fn try_transfer(&self, bytes: usize, direction: Direction) -> Result<SimTime, LinkError> {
        if let Some(e) = self.error.get() {
            self.stats.inc("net.dropped_while_broken");
            return Err(e);
        }
        let c = self.conditions();
        let tx = c.tx_time(bytes);
        self.next_seq.set(self.next_seq.get() + 1);
        self.stats.inc("net.messages");
        // A sync transfer gates forward progress (job start / IRQ
        // forwarding), so it counts toward the blocking round-trip budget.
        self.stats.inc("net.transfers");
        self.stats.inc("net.blocking_rtts");
        match direction {
            Direction::Up => self.stats.add("net.bytes_up", bytes as u64),
            Direction::Down => self.stats.add("net.bytes_down", bytes as u64),
        }
        match self.schedule(&c, bytes, self.clock.now()) {
            Ok(s) => {
                let total = s.wait + s.leg / 2 + tx;
                self.clock.advance(total);
                match direction {
                    Direction::Up => self.charge_energy(tx, SimTime::ZERO, s.wait + c.rtt / 2),
                    Direction::Down => self.charge_energy(SimTime::ZERO, tx, s.wait + c.rtt / 2),
                }
                Ok(total)
            }
            Err(e) => {
                let ladder = self.ladder_time(&c);
                self.clock.advance(ladder);
                self.charge_energy(SimTime::ZERO, SimTime::ZERO, ladder);
                Err(e)
            }
        }
    }

    /// Infallible wrapper around [`Link::try_transfer`] (legacy callers);
    /// failures latch for the session layer.
    pub fn transfer(&self, bytes: usize, direction: Direction) -> SimTime {
        match self.try_transfer(bytes, direction) {
            Ok(dt) => dt,
            Err(_) => SimTime::ZERO,
        }
    }

    /// The shared stats sink (for layered accounting by the session code).
    pub fn stats(&self) -> &Rc<Stats> {
        &self.stats
    }

    /// The shared clock.
    pub fn clock(&self) -> &Rc<Clock> {
        &self.clock
    }
}

/// Direction of a one-way transfer, from the client's perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Client → cloud (e.g. client memory dump, interrupt forward).
    Up,
    /// Cloud → client (e.g. cloud memory dump, recording download).
    Down,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(c: NetConditions) -> (Rc<Clock>, Rc<Stats>, Rc<Link>) {
        let clock = Clock::new();
        let stats = Stats::new();
        let link = Link::new(&clock, &stats, c);
        (clock, stats, link)
    }

    #[test]
    fn blocking_rtt_advances_clock() {
        let (clock, stats, link) = setup(NetConditions::wifi());
        let dt = link.round_trip(0, 0);
        assert_eq!(dt.as_millis(), 20);
        assert_eq!(clock.now().as_millis(), 20);
        assert_eq!(stats.get("net.blocking_rtts"), 1);
    }

    #[test]
    fn serialization_time_added() {
        let (clock, _, link) = setup(NetConditions::custom(SimTime::ZERO, 8_000_000));
        // 1 MB at 8 Mbps = 1 second each way.
        link.round_trip(1_000_000, 1_000_000);
        assert!((clock.now().as_secs_f64() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn async_round_trip_does_not_advance_clock() {
        let (clock, stats, link) = setup(NetConditions::wifi());
        let done_at = link.round_trip_async(100, 100);
        assert_eq!(clock.now(), SimTime::ZERO);
        assert!(done_at.as_millis() >= 20);
        assert_eq!(stats.get("net.blocking_rtts"), 0);
        assert_eq!(stats.get("net.async_rtts"), 1);
    }

    #[test]
    fn transfer_counts_direction() {
        let (_, stats, link) = setup(NetConditions::cellular());
        link.transfer(5000, Direction::Up);
        link.transfer(7000, Direction::Down);
        assert_eq!(stats.get("net.bytes_up"), 5000);
        assert_eq!(stats.get("net.bytes_down"), 7000);
    }

    #[test]
    fn cellular_is_slower_than_wifi() {
        let (cw, _, lw) = setup(NetConditions::wifi());
        let (cc, _, lc) = setup(NetConditions::cellular());
        lw.round_trip(400, 400);
        lc.round_trip(400, 400);
        assert!(cc.now() > cw.now());
    }

    #[test]
    fn energy_charged_per_transfer() {
        let (clock, stats, link) =
            setup(NetConditions::custom(SimTime::from_millis(10), 8_000_000));
        let meter = EnergyMeter::new(&clock);
        link.attach_energy(
            &meter,
            RadioPower {
                tx_watts: 1.0,
                rx_watts: 1.0,
                idle_watts: 0.0,
            },
        );
        // 1 MB up at 8 Mbps = 1 s of tx at 1 W = 1 J.
        link.transfer(1_000_000, Direction::Up);
        assert!((meter.energy(Rail::Radio) - 1.0).abs() < 1e-6);
        let _ = stats;
    }

    #[test]
    fn conditions_can_be_swept() {
        let (clock, _, link) = setup(NetConditions::wifi());
        link.set_conditions(NetConditions::custom(SimTime::from_millis(100), 1_000_000));
        link.round_trip(0, 0);
        assert_eq!(clock.now().as_millis(), 100);
        assert_eq!(link.conditions().rtt.as_millis(), 100);
    }

    #[test]
    fn tx_time_math() {
        let c = NetConditions::custom(SimTime::ZERO, 80_000_000);
        // 10 KB at 80 Mbps = 1 ms.
        assert_eq!(c.tx_time(10_000).as_micros(), 1000);
    }

    #[test]
    fn sequence_numbers_are_per_logical_message() {
        let (_, _, link) = setup(NetConditions::wifi().with_loss(0.4));
        assert_eq!(link.last_seq(), 0);
        for i in 1..=50u64 {
            link.round_trip(10, 10);
            assert_eq!(link.last_seq(), i, "one seq per message, not per attempt");
        }
    }
}

#[cfg(test)]
mod degradation_tests {
    use super::*;

    #[test]
    fn jitter_stretches_rtts_but_never_shrinks() {
        let clock = Clock::new();
        let stats = Stats::new();
        let link = Link::new(&clock, &stats, NetConditions::wifi().with_jitter(0.5));
        let mut total = SimTime::ZERO;
        for _ in 0..50 {
            let dt = link.round_trip(0, 0);
            assert!(dt >= SimTime::from_millis(20), "{dt}");
            assert!(dt <= SimTime::from_millis(30), "{dt}");
            total += dt;
        }
        // On average strictly above the base RTT.
        assert!(total > SimTime::from_millis(20 * 50));
    }

    #[test]
    fn loss_triggers_retransmissions() {
        let clock = Clock::new();
        let stats = Stats::new();
        let link = Link::new(&clock, &stats, NetConditions::wifi().with_loss(0.3));
        for _ in 0..200 {
            link.round_trip(0, 0);
        }
        let retx = stats.get("net.retransmissions");
        assert!((20..160).contains(&retx), "retx={retx}");
        // Each retransmission waited out at least one RTO (1.5 RTT).
        assert!(clock.now() >= SimTime::from_millis(20 * 200) + SimTime::from_millis(30) * retx);
    }

    #[test]
    fn degraded_link_is_deterministic() {
        let run = || {
            let clock = Clock::new();
            let stats = Stats::new();
            let link = Link::new(
                &clock,
                &stats,
                NetConditions::cellular().with_jitter(0.2).with_loss(0.1),
            );
            for i in 0..100 {
                link.round_trip(i, 2 * i);
            }
            clock.now()
        };
        assert_eq!(run(), run());
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;

    fn setup(c: NetConditions) -> (Rc<Clock>, Rc<Stats>, Rc<Link>) {
        let clock = Clock::new();
        let stats = Stats::new();
        let link = Link::new(&clock, &stats, c);
        (clock, stats, link)
    }

    /// Regression pin (Table-1 accounting): retransmitted messages never
    /// double-count logical bytes or blocking RTTs. A total-loss burst
    /// with jitterless policy makes every count exactly computable.
    #[test]
    fn retransmissions_do_not_double_count_stats() {
        let (clock, stats, link) = setup(NetConditions::wifi());
        link.set_retry_policy(RetryPolicy {
            max_attempts: 6,
            rto_rtts: 1.5,
            backoff: 2.0,
            jitter_frac: 0.0,
        });
        // Total loss for the first 100 ms: the first message's first
        // attempts (at t=0, 30, 90 ms) are all lost; the attempt at
        // t=210 ms succeeds. Messages 2..=10 run on a healed link.
        let plan = Rc::new(FaultPlan::new().with_loss_burst(
            SimTime::ZERO,
            SimTime::from_millis(100),
            1.0,
        ));
        link.attach_faults(&plan);
        for _ in 0..10 {
            link.try_round_trip(1_000, 500)
                .expect("budget covers the burst");
        }
        assert_eq!(stats.get("net.messages"), 10, "logical messages");
        assert_eq!(stats.get("net.blocking_rtts"), 10, "one blocking RTT each");
        assert_eq!(stats.get("net.bytes_up"), 10_000, "payload bytes once");
        assert_eq!(stats.get("net.bytes_down"), 5_000, "payload bytes once");
        // Exactly 3 lost attempts (t=0, 30, 90 ms), all on message 1.
        assert_eq!(stats.get("net.retransmissions"), 3);
        assert_eq!(stats.get("net.retx_bytes_up"), 3_000);
        assert_eq!(stats.get("net.link_failures"), 0);
        // Elapsed: msg1 = 30+60+120 (RTO ladder) + 20 (delivery) = 230 ms,
        // plus 9 × 20 ms, plus 10 × serialization (1500 B at 80 Mbps =
        // 150 µs each).
        let serialization = SimTime::from_micros(150 * 10);
        assert_eq!(
            clock.now(),
            SimTime::from_millis(230 + 9 * 20) + serialization
        );
    }

    #[test]
    fn partition_surfaces_typed_error_with_heal_time() {
        let (clock, stats, link) = setup(NetConditions::wifi());
        link.set_retry_policy(RetryPolicy {
            max_attempts: 3,
            rto_rtts: 1.0,
            backoff: 2.0,
            jitter_frac: 0.0,
        });
        let heal = SimTime::from_secs(30);
        let plan = Rc::new(FaultPlan::new().with_partition(SimTime::ZERO, heal));
        link.attach_faults(&plan);
        let err = link.try_round_trip(100, 100).unwrap_err();
        assert_eq!(err, LinkError::Partitioned { healed_at: heal });
        assert_eq!(link.link_error(), Some(err));
        // The failed ladder's timeouts elapsed: 20+40+80 ms.
        assert_eq!(clock.now(), SimTime::from_millis(140));
        assert_eq!(stats.get("net.link_failures"), 1);
        assert_eq!(stats.get("net.retransmissions"), 2);
    }

    #[test]
    fn broken_link_fast_fails_until_cleared() {
        let (clock, stats, link) = setup(NetConditions::wifi());
        link.set_retry_policy(RetryPolicy {
            max_attempts: 2,
            rto_rtts: 1.0,
            backoff: 2.0,
            jitter_frac: 0.0,
        });
        let plan = Rc::new(FaultPlan::new().with_partition(SimTime::ZERO, SimTime::from_secs(60)));
        link.attach_faults(&plan);
        assert!(link.try_round_trip(10, 10).is_err());
        let t_broken = clock.now();
        // While latched: zero-cost fast failures, nothing accounted.
        let msgs = stats.get("net.messages");
        for _ in 0..5 {
            assert!(link.try_round_trip(10, 10).is_err());
            assert!(link.try_transfer(10, Direction::Up).is_err());
        }
        assert_eq!(clock.now(), t_broken, "fast-fail costs no virtual time");
        assert_eq!(stats.get("net.messages"), msgs);
        assert_eq!(stats.get("net.dropped_while_broken"), 10);
        // After the heal + clear, traffic flows again.
        clock.advance_to(SimTime::from_secs(60));
        link.clear_error();
        assert!(link.try_round_trip(10, 10).is_ok());
        assert_eq!(link.link_error(), None);
    }

    #[test]
    fn short_partition_is_ridden_out_by_retries() {
        let (clock, stats, link) = setup(NetConditions::wifi());
        link.set_retry_policy(RetryPolicy {
            max_attempts: 6,
            rto_rtts: 1.5,
            backoff: 2.0,
            jitter_frac: 0.0,
        });
        // Partition heals at 100 ms; the ladder reaches t=210 ms by
        // attempt 4, which gets through.
        let plan =
            Rc::new(FaultPlan::new().with_partition(SimTime::ZERO, SimTime::from_millis(100)));
        link.attach_faults(&plan);
        let dt = link.try_round_trip(0, 0).expect("retries outlast the flap");
        assert_eq!(dt, SimTime::from_millis(230));
        assert_eq!(stats.get("net.retransmissions"), 3);
        assert_eq!(stats.get("net.link_failures"), 0);
        assert!(clock.now() >= SimTime::from_millis(100));
    }

    #[test]
    fn rtt_spike_stretches_delivery() {
        let (_, _, link) = setup(NetConditions::wifi());
        let plan =
            Rc::new(FaultPlan::new().with_rtt_spike(SimTime::ZERO, SimTime::from_secs(1), 5.0));
        link.attach_faults(&plan);
        let dt = link.try_round_trip(0, 0).unwrap();
        assert_eq!(dt, SimTime::from_millis(100), "5× the 20 ms base RTT");
    }

    #[test]
    fn quiet_plan_leaves_timing_byte_identical() {
        // Attaching a plan whose faults never overlap the traffic must
        // not perturb timing (no extra RNG draws on the base stream).
        let run = |attach: bool| {
            let (clock, _, link) = setup(NetConditions::wifi().with_jitter(0.3));
            if attach {
                let plan = Rc::new(
                    FaultPlan::new()
                        .with_partition(SimTime::from_secs(3600), SimTime::from_secs(3601)),
                );
                link.attach_faults(&plan);
            }
            for i in 0..50 {
                link.round_trip(i * 3, i);
            }
            clock.now()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn faulted_link_is_deterministic() {
        let run = || {
            let (clock, stats, link) = setup(NetConditions::wifi().with_loss(0.05));
            let plan = Rc::new(FaultPlan::generate(
                99,
                &grt_sim::FaultPlanConfig::default(),
            ));
            link.attach_faults(&plan);
            let mut oks = 0u32;
            for i in 0..300 {
                if link.try_round_trip(i, 64).is_ok() {
                    oks += 1;
                } else {
                    clock.advance(SimTime::from_millis(250));
                    link.clear_error();
                }
            }
            (clock.now(), oks, stats.get("net.retransmissions"))
        };
        assert_eq!(run(), run());
    }
}
