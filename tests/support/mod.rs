//! The event interpreter: a test-only replay oracle.
//!
//! `Replayer::replay` lowers a recording and walks the op arena on the one
//! replay executor. This module walks the recorded events directly, with
//! its own delta decode, poll loop and IRQ decode, so the differential
//! tests compare the executor against an independent implementation
//! rather than against itself. Its clock charges are the interpreted price
//! table: 1500 ns per event, plus one ns per wire byte of each delta, with
//! those bytes counted.
//!
//! It lives under `tests/` so no production crate can reach it.

use grt_attest::{ReceiptCounters, ReplayReceipt};
use grt_compress::DeltaCodec;
use grt_crypto::{KeyPair, Sha256};
use grt_gpu::PollCond;
use grt_ir::gate::REPLAY_POLL_ITER_CAP;
use grt_ir::recording::{irq_line_from, Event, SignedRecording};
use grt_replay::client::{ClientDevice, GPU_MMIO_BASE, GPU_MMIO_LEN, PROVISIONING_SECRET};
use grt_replay::replay::{ReplayError, ReplayProfile};
use grt_sim::SimTime;

/// Per-event interpreter overhead: wire-format event decode, offset
/// resolution and MMIO issue.
const EVENT_TIME: SimTime = SimTime::from_nanos(1500);

/// What one interpreted replay produced.
#[derive(Debug)]
pub struct Interpreted {
    /// The inference output.
    pub output: Vec<f32>,
    /// Cost breakdown, in the replayer's own profile type.
    pub profile: ReplayProfile,
    /// The signed receipt the replayer would emit with no provenance
    /// attached.
    pub receipt: ReplayReceipt,
}

/// Interprets `signed` event by event on `device` with fresh `input` and
/// `weights`. No recording gate runs: the oracle is the reference
/// semantics, not the trust pipeline.
pub fn interpret<W: AsRef<[f32]>>(
    device: &ClientDevice,
    signed: &SignedRecording,
    key: &KeyPair,
    input: &[f32],
    weights: &[W],
) -> Result<Interpreted, ReplayError> {
    let rec = signed
        .verify_and_parse(key)
        .ok_or(ReplayError::BadRecording)?;
    let present = device.gpu.borrow().sku().gpu_id;
    if rec.gpu_id != present {
        return Err(ReplayError::WrongSku {
            recorded: rec.gpu_id,
            present,
        });
    }
    if input.len() != rec.input.len_elems as usize
        || weights.len() != rec.weights.len()
        || rec
            .weights
            .iter()
            .zip(weights)
            .any(|(slot, w)| w.as_ref().len() != slot.len_elems as usize)
    {
        return Err(ReplayError::BadInput);
    }

    let mut oracle = Oracle {
        device,
        codec: DeltaCodec::new(grt_gpu::PAGE_SIZE),
        profile: ReplayProfile::default(),
    };
    let t0 = device.clock.now();
    let exec0 = device.gpu.borrow().exec_stats();
    device
        .tzasc
        .claim(GPU_MMIO_BASE, GPU_MMIO_LEN, grt_tee::World::Secure);
    device.gpu.borrow_mut().hard_reset_now();
    {
        let mut mem = device.mem.borrow_mut();
        mem.wipe();
        for (slot, w) in rec.weights.iter().zip(weights) {
            mem.restore_range(slot.pa, &le_bytes(w.as_ref()));
        }
        mem.restore_range(rec.input.pa, &le_bytes(input));
    }

    let walked = rec.events.iter().try_for_each(|e| oracle.exec_event(e));
    let raw = device
        .mem
        .borrow()
        .dump_range(rec.output.pa, rec.output.len_elems as usize * 4);
    device.gpu.borrow_mut().hard_reset_now();
    device.tzasc.release(GPU_MMIO_BASE, GPU_MMIO_LEN);
    walked?;

    let mut profile = oracle.profile;
    profile.exec = device.gpu.borrow().exec_stats().delta_since(&exec0);
    profile.total = device.clock.now() - t0;
    let counters = ReceiptCounters {
        events: profile.events,
        overhead_ns: profile.overhead.as_nanos(),
        total_ns: profile.total.as_nanos(),
        delta_wire_bytes: profile.delta_wire_bytes,
        tlb_hits: profile.exec.tlb.hits,
        tlb_misses: profile.exec.tlb.misses,
    };
    let receipt = ReplayReceipt::build(
        &rec.workload,
        present,
        Sha256::digest(&signed.bytes),
        [0u8; 32],
        Sha256::digest(&le_bytes(input)),
        Sha256::digest(&raw),
        counters,
        PROVISIONING_SECRET,
    );
    let output = raw
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    Ok(Interpreted {
        output,
        profile,
        receipt,
    })
}

fn le_bytes(v: &[f32]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

struct Oracle<'d> {
    device: &'d ClientDevice,
    codec: DeltaCodec,
    profile: ReplayProfile,
}

impl Oracle<'_> {
    /// Executes one recorded event against the hardware.
    fn exec_event(&mut self, event: &Event) -> Result<(), ReplayError> {
        let clock = &self.device.clock;
        let mut gpu = self.device.gpu.borrow_mut();
        clock.advance(EVENT_TIME);
        self.profile.events += 1;
        self.profile.overhead += EVENT_TIME;
        match event {
            Event::BeginLayer { .. } => {}
            Event::RegWrite { offset, value } => gpu.write_reg(*offset, *value),
            Event::RegRead {
                offset,
                value,
                verify,
            } => {
                let got = gpu.read_reg(*offset);
                if *verify && got != *value {
                    return Err(ReplayError::VerifyMismatch {
                        offset: *offset,
                        expected: *value,
                        got,
                    });
                }
            }
            Event::Poll {
                reg,
                mask,
                cond,
                cmp,
                max_iters,
                delay_us,
            } => {
                let cond = match cond {
                    0 => PollCond::MaskedZero,
                    1 => PollCond::MaskedNonZero,
                    2 => PollCond::MaskedEq(*cmp),
                    _ => {
                        return Err(ReplayError::MalformedEvent {
                            field: "poll.cond",
                            value: u32::from(*cond),
                        })
                    }
                };
                if *max_iters == 0 {
                    return Err(ReplayError::MalformedEvent {
                        field: "poll.max_iters",
                        value: 0,
                    });
                }
                let mut satisfied = false;
                for _ in 0..(*max_iters).min(REPLAY_POLL_ITER_CAP) {
                    if cond.satisfied(gpu.read_reg(*reg), *mask) {
                        satisfied = true;
                        break;
                    }
                    clock.advance(SimTime::from_micros(u64::from(*delay_us)));
                }
                if !satisfied {
                    return Err(ReplayError::PollTimeout { reg: *reg });
                }
            }
            Event::WaitIrq { line } => {
                let line = irq_line_from(*line).ok_or(ReplayError::MalformedEvent {
                    field: "wait_irq.line",
                    value: u32::from(*line),
                })?;
                let at = gpu.next_irq_at(line).ok_or(ReplayError::IrqHang)?;
                clock.advance_to(at);
            }
            Event::LoadMemDelta { pa, len, delta } => {
                // Clamp the claimed region length to the device's memory
                // and bound the decode accordingly.
                let mut mem = self.device.mem.borrow_mut();
                let len = (*len as usize).min(mem.size());
                let current = mem.dump_range(*pa, len);
                let new = self
                    .codec
                    .decode_limited(&current, delta, len)
                    .map_err(|_| ReplayError::CorruptDelta)?;
                mem.restore_range(*pa, &new);
                let decode_time = SimTime::from_nanos(delta.len() as u64);
                clock.advance(decode_time);
                self.profile.overhead += decode_time;
                self.profile.delta_wire_bytes += delta.len() as u64;
            }
        }
        Ok(())
    }
}
