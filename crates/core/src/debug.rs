//! Remote debugging on top of record/replay (§3.1, "Broader
//! applicability").
//!
//! The paper: *"by comparing a client's GPU register logs and memory dumps
//! with the ones from the cloud, the cloud may detect and report firmware
//! malfunctioning and vendors may troubleshoot remotely."* This module
//! provides both halves:
//!
//! - [`diff_recordings`] — a structural diff of two interaction logs (two
//!   record runs of the same workload, e.g. a healthy reference device vs
//!   a suspect one);
//! - [`audit_replay`] — replays a recording's *stimuli* on a device while
//!   logging every register response and reporting where the hardware
//!   diverges from the recorded behaviour, without aborting at the first
//!   mismatch (unlike the replayer, whose job is to refuse).

use grt_ir::gate::REPLAY_POLL_ITER_CAP;
use grt_ir::recording::{irq_line_from, Event, Recording};
use grt_replay::client::{apply_delta, take_gpu, ClientDevice};
use grt_replay::compiled::decode_poll;
use grt_sim::SimTime;

/// One observed divergence between two interaction logs (or between a log
/// and live hardware).
#[derive(Debug, Clone, PartialEq)]
pub enum Divergence {
    /// The logs have different lengths.
    Length {
        /// Events in the reference log.
        reference: usize,
        /// Events in the other log.
        other: usize,
    },
    /// Same position, different event kinds (control flow diverged).
    EventKind {
        /// Event index.
        index: usize,
    },
    /// A register read returned a different value.
    ReadValue {
        /// Event index.
        index: usize,
        /// Register offset.
        offset: u32,
        /// Value in the reference log.
        expected: u32,
        /// Value observed.
        got: u32,
    },
    /// A register write targeted the same register with a different value.
    WriteValue {
        /// Event index.
        index: usize,
        /// Register offset.
        offset: u32,
        /// Value in the reference log.
        expected: u32,
        /// Value observed.
        got: u32,
    },
    /// A metastate delta differs (memory contents diverged).
    MemDelta {
        /// Event index.
        index: usize,
        /// Region base.
        pa: u64,
    },
    /// A recorded interrupt did not arrive on the audited hardware.
    MissingIrq {
        /// Event index.
        index: usize,
    },
    /// A recorded poll never met its condition on the audited hardware.
    PollStuck {
        /// Event index.
        index: usize,
        /// Register polled.
        reg: u32,
    },
}

/// Structurally compares two recordings of the same workload.
///
/// Returns every divergence, reference-first. Two healthy record runs of
/// a deterministic stack produce an empty list.
pub fn diff_recordings(reference: &Recording, other: &Recording) -> Vec<Divergence> {
    let mut out = Vec::new();
    if reference.events.len() != other.events.len() {
        out.push(Divergence::Length {
            reference: reference.events.len(),
            other: other.events.len(),
        });
    }
    for (index, (a, b)) in reference.events.iter().zip(&other.events).enumerate() {
        match (a, b) {
            (
                Event::RegRead {
                    offset: oa,
                    value: va,
                    ..
                },
                Event::RegRead {
                    offset: ob,
                    value: vb,
                    ..
                },
            ) if oa == ob => {
                if va != vb {
                    out.push(Divergence::ReadValue {
                        index,
                        offset: *oa,
                        expected: *va,
                        got: *vb,
                    });
                }
            }
            (
                Event::RegWrite {
                    offset: oa,
                    value: va,
                },
                Event::RegWrite {
                    offset: ob,
                    value: vb,
                },
            ) if oa == ob => {
                if va != vb {
                    out.push(Divergence::WriteValue {
                        index,
                        offset: *oa,
                        expected: *va,
                        got: *vb,
                    });
                }
            }
            (
                Event::LoadMemDelta {
                    pa: pa_a,
                    delta: da,
                    ..
                },
                Event::LoadMemDelta {
                    pa: pa_b,
                    delta: db,
                    ..
                },
            ) if pa_a == pa_b => {
                if da != db {
                    out.push(Divergence::MemDelta { index, pa: *pa_a });
                }
            }
            _ if std::mem::discriminant(a) == std::mem::discriminant(b) => {}
            _ => out.push(Divergence::EventKind { index }),
        }
    }
    out
}

/// Replays a recording's stimuli on `device`, logging every hardware
/// response and reporting divergences from the recorded values.
///
/// Unlike the replayer this never aborts: a vendor wants the *complete*
/// divergence report from a malfunctioning device. Inputs/weights are not
/// injected (the audit is a dry run, like the record phase itself). It
/// holds the GPU in the secure world while it drives it, as replay does.
pub fn audit_replay(device: &ClientDevice, recording: &Recording) -> Vec<Divergence> {
    let mut out = Vec::new();
    let _hold = take_gpu(&device.gpu, &device.tzasc, &device.monitor);
    device.mem.borrow_mut().wipe();
    let codec = grt_compress::DeltaCodec::new(grt_gpu::PAGE_SIZE);
    for (index, event) in recording.events.iter().enumerate() {
        match event {
            Event::BeginLayer { .. } => {}
            Event::RegWrite { offset, value } => {
                device.gpu.borrow_mut().write_reg(*offset, *value);
            }
            Event::RegRead { offset, value, .. } => {
                // LATEST_FLUSH is a cache-epoch counter: nondeterministic
                // by design (§7.3); a vendor audit whitelists it.
                if *offset == grt_gpu::regs::gpu_control::LATEST_FLUSH {
                    let _ = device.gpu.borrow_mut().read_reg(*offset);
                    continue;
                }
                let got = device.gpu.borrow_mut().read_reg(*offset);
                if got != *value {
                    out.push(Divergence::ReadValue {
                        index,
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
                // An undefined condition or a zero budget can never be
                // met: report it as a stuck poll, as the replayer would.
                let Ok(cond) = decode_poll(*cond, *cmp, *max_iters) else {
                    out.push(Divergence::PollStuck { index, reg: *reg });
                    continue;
                };
                let mut satisfied = false;
                for _ in 0..(*max_iters).min(REPLAY_POLL_ITER_CAP) {
                    let raw = device.gpu.borrow_mut().read_reg(*reg);
                    if cond.satisfied(raw, *mask) {
                        satisfied = true;
                        break;
                    }
                    device.clock.advance(SimTime::from_micros(*delay_us as u64));
                }
                if !satisfied {
                    out.push(Divergence::PollStuck { index, reg: *reg });
                }
            }
            Event::WaitIrq { line } => {
                let Some(line) = irq_line_from(*line) else {
                    out.push(Divergence::MissingIrq { index });
                    continue;
                };
                match device.gpu.borrow_mut().next_irq_at(line) {
                    Some(at) => {
                        device.clock.advance_to(at);
                    }
                    None => out.push(Divergence::MissingIrq { index }),
                }
            }
            Event::LoadMemDelta { pa, len, delta } => {
                // Bounded by the carveout and applied in place, as the
                // replayer and the lifter apply it.
                let len = (*len as usize).min(device.mem.borrow().size());
                let Ok(parsed) = codec.parse_limited(delta, len) else {
                    out.push(Divergence::MemDelta { index, pa: *pa });
                    continue;
                };
                apply_delta(&mut device.mem.borrow_mut(), *pa, &parsed);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{RecordSession, RecorderMode};
    use grt_gpu::GpuSku;
    use grt_net::NetConditions;
    use grt_sim::{Clock, Stats};

    fn recorded(sku: GpuSku) -> (RecordSession, Recording) {
        let mut s = RecordSession::new(sku, NetConditions::wifi(), RecorderMode::OursMDS);
        let out = s.record(&grt_ml::zoo::mnist()).expect("record");
        let key = s.recording_key();
        let rec = out.recording.verify_and_parse(&key).expect("parse");
        (s, rec)
    }

    #[test]
    fn identical_runs_have_no_divergence() {
        let (_s1, a) = recorded(GpuSku::mali_g71_mp8());
        let (_s2, b) = recorded(GpuSku::mali_g71_mp8());
        assert!(diff_recordings(&a, &b).is_empty());
    }

    #[test]
    fn different_skus_diverge_at_probe() {
        let (_s1, a) = recorded(GpuSku::mali_g71_mp8());
        let (_s2, b) = recorded(GpuSku::mali_g71_mp4());
        let diffs = diff_recordings(&a, &b);
        assert!(!diffs.is_empty());
        // The very first read divergence is the hardware identity.
        let first_read = diffs.iter().find_map(|d| match d {
            Divergence::ReadValue { offset, .. } => Some(*offset),
            _ => None,
        });
        assert_eq!(first_read, Some(grt_gpu::regs::gpu_control::GPU_ID));
    }

    #[test]
    fn audit_on_healthy_hardware_is_clean() {
        let (s, rec) = recorded(GpuSku::mali_g71_mp8());
        let diffs = audit_replay(&s.client, &rec);
        assert!(diffs.is_empty(), "{diffs:?}");
    }

    #[test]
    fn audit_detects_firmware_malfunction() {
        let (_s, rec) = recorded(GpuSku::mali_g71_mp8());
        // A "malfunctioning" unit: same GPU_ID, but two shader cores have
        // died (hardware fault the vendor wants to detect remotely).
        let broken = GpuSku {
            shader_cores: 6,
            ..GpuSku::mali_g71_mp8()
        };
        let clock = Clock::new();
        let stats = Stats::new();
        let device = ClientDevice::new(broken, &clock, &stats, b"s");
        let diffs = audit_replay(&device, &rec);
        assert!(
            diffs.iter().any(|d| matches!(
                d,
                Divergence::ReadValue {
                    offset,
                    ..
                } if *offset == grt_gpu::regs::gpu_control::SHADER_PRESENT_LO
            )),
            "expected a SHADER_PRESENT divergence: {diffs:?}"
        );
    }

    #[test]
    fn audit_reports_undefined_poll_condition() {
        let (s, mut rec) = recorded(GpuSku::mali_g71_mp8());
        let (index, reg) = rec
            .events
            .iter_mut()
            .enumerate()
            .find_map(|(i, e)| match e {
                Event::Poll {
                    reg,
                    cond: cond @ 0,
                    cmp: 0,
                    ..
                } => {
                    *cond = 7;
                    Some((i, *reg))
                }
                _ => None,
            })
            .expect("a MaskedZero poll");
        let diffs = audit_replay(&s.client, &rec);
        assert!(
            diffs.contains(&Divergence::PollStuck { index, reg }),
            "undefined poll condition not reported: {diffs:?}"
        );
    }

    #[test]
    fn audit_reports_corrupt_delta_and_keeps_walking() {
        let (s, mut rec) = recorded(GpuSku::mali_g71_mp8());
        let deltas: Vec<(usize, u64)> = rec
            .events
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match e {
                Event::LoadMemDelta { pa, .. } => Some((i, *pa)),
                _ => None,
            })
            .collect();
        assert!(deltas.len() >= 2, "need two deltas: {deltas:?}");
        // Corrupt the first and the last delta: both must be reported, so
        // the audit walked past the first.
        let corrupt = [deltas[0], deltas[deltas.len() - 1]];
        for &(index, _) in &corrupt {
            let Event::LoadMemDelta { delta, .. } = &mut rec.events[index] else {
                unreachable!()
            };
            *delta = vec![1, 2, 3];
        }
        let diffs = audit_replay(&s.client, &rec);
        for (index, pa) in corrupt {
            assert!(
                diffs.contains(&Divergence::MemDelta { index, pa }),
                "corrupt delta at {index} not reported: {diffs:?}"
            );
        }
    }

    #[test]
    fn length_divergence_reported() {
        let (_s, a) = recorded(GpuSku::mali_g71_mp8());
        let mut b = a.clone();
        b.events.truncate(a.events.len() / 2);
        let diffs = diff_recordings(&a, &b);
        assert!(matches!(diffs[0], Divergence::Length { .. }));
    }
}
