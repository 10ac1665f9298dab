//! Bridge between [`Recording`] and the
//! `grt-ir` semantics lifter.
//!
//! `grt-ir` sits below this crate in the dependency graph, so it consumes
//! a borrowed [`LiftInput`] view instead of the recording container
//! itself. This module does the 1:1 conversion and fixes the lift
//! parameters (page size, PTE quirk) the rest of the stack uses: the
//! linter proves R1–R9 over the lifted program, and
//! [`compiled`](crate::compiled) lowers `CompiledRecording` from it, so
//! both consume the same decode of the same bytes.

use crate::recording::{Event, Recording};
use grt_gpu::PAGE_SIZE;
use grt_ir::program::SlotDesc;
use grt_ir::{EventView, IrProgram, LiftInput};

/// Builds the borrowed lift view of a recording.
pub fn lift_input(rec: &Recording) -> LiftInput<'_> {
    let slot = |s: &crate::recording::DataSlot| SlotDesc {
        pa: s.pa,
        len_elems: s.len_elems,
    };
    LiftInput {
        workload: &rec.workload,
        gpu_id: rec.gpu_id,
        input: slot(&rec.input),
        output: slot(&rec.output),
        weights: rec.weights.iter().map(slot).collect(),
        events: rec
            .events
            .iter()
            .map(|e| match *e {
                Event::BeginLayer { index } => EventView::BeginLayer { index },
                Event::RegWrite { offset, value } => EventView::RegWrite { offset, value },
                Event::RegRead {
                    offset,
                    value,
                    verify,
                } => EventView::RegRead {
                    offset,
                    value,
                    verify,
                },
                Event::Poll {
                    reg,
                    mask,
                    cond,
                    cmp,
                    max_iters,
                    delay_us,
                } => EventView::Poll {
                    reg,
                    mask,
                    cond,
                    cmp,
                    max_iters,
                    delay_us,
                },
                Event::WaitIrq { line } => EventView::WaitIrq { line },
                Event::LoadMemDelta { pa, len, ref delta } => {
                    EventView::LoadMemDelta { pa, len, delta }
                }
            })
            .collect(),
    }
}

/// Lifts a recording under an explicit PTE decode `quirk` (the SKU being
/// vetted for — page-table walks must match that GPU's decoder).
pub fn lift_recording(rec: &Recording, quirk: u8) -> IrProgram {
    grt_ir::lift(&lift_input(rec), quirk, PAGE_SIZE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recording::DataSlot;

    #[test]
    fn view_is_index_aligned_with_events() {
        let rec = Recording {
            workload: "t".into(),
            gpu_id: 1,
            input: DataSlot {
                pa: 0x100,
                len_elems: 4,
            },
            output: DataSlot {
                pa: 0x200,
                len_elems: 4,
            },
            weights: vec![DataSlot {
                pa: 0x300,
                len_elems: 2,
            }],
            events: vec![
                Event::BeginLayer { index: 0 },
                Event::RegWrite {
                    offset: 0x30,
                    value: 1,
                },
                Event::WaitIrq { line: 1 },
            ],
        };
        let ir = lift_recording(&rec, 0);
        assert_eq!(ir.steps.len(), rec.events.len());
        assert_eq!(ir.workload, "t");
        assert_eq!(ir.input.pa, 0x100);
        assert_eq!(ir.weights.len(), 1);
        assert_eq!(ir.cost.layers, 1);
    }
}
