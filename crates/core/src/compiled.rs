//! The two compile entry points the benchmark package calls by these
//! signatures, kept for it until the benchmark next changes. Everything
//! else lowers with [`grt_replay::compiled::lower`].

use grt_ir::gate::REPLAY_POLL_ITER_CAP;
use grt_ir::recording::Recording;
use grt_ir::IrProgram;
use grt_replay::compiled::{lower, CompileError, CompiledRecording};

/// [`compile_from_ir_opts`] with fusion on.
pub fn compile_from_ir(
    rec: &Recording,
    ir: IrProgram,
    poll_iter_cap: u32,
) -> Result<CompiledRecording, CompileError> {
    compile_from_ir_opts(rec, ir, poll_iter_cap, true)
}

/// [`lower`], hashing a re-serialization of `rec` (which `ir` must be the
/// lift of).
///
/// # Errors
///
/// [`CompileError::PollCap`] unless `poll_iter_cap` is
/// [`REPLAY_POLL_ITER_CAP`], the one cap the lowering clamps to; otherwise
/// whatever [`lower`] returns.
pub fn compile_from_ir_opts(
    rec: &Recording,
    ir: IrProgram,
    poll_iter_cap: u32,
    fuse: bool,
) -> Result<CompiledRecording, CompileError> {
    if poll_iter_cap != REPLAY_POLL_ITER_CAP {
        return Err(CompileError::PollCap { cap: poll_iter_cap });
    }
    lower(ir, grt_crypto::Sha256::digest(&rec.to_bytes()), fuse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use grt_ir::recording::{DataSlot, Event};

    #[test]
    fn poll_cap_other_than_the_replay_cap_is_refused() {
        let rec = Recording {
            workload: "t".into(),
            gpu_id: 1,
            input: DataSlot {
                pa: 0,
                len_elems: 1,
            },
            output: DataSlot {
                pa: 8,
                len_elems: 1,
            },
            weights: vec![],
            events: vec![Event::Poll {
                reg: 0x30,
                mask: 1,
                cond: 1,
                cmp: 0,
                max_iters: u32::MAX,
                delay_us: 1,
            }],
        };
        let lift = || grt_ir::lift_recording(&rec, 0);
        let cap = REPLAY_POLL_ITER_CAP / 2;
        assert_eq!(
            compile_from_ir(&rec, lift(), cap).unwrap_err(),
            CompileError::PollCap { cap }
        );
        assert!(compile_from_ir(&rec, lift(), REPLAY_POLL_ITER_CAP).is_ok());
    }
}
