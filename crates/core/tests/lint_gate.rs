//! The replayer × grt-lint integration: recordings must pass static
//! analysis before a single event executes.
//!
//! `grt_lint::Linter` implements `grt_ir::gate::RecordingGate`, the gate
//! interface the replayer calls; grt-lint sits below grt-core, so the
//! real analyzer plugs straight into `Replayer::new`. The gate is a trait
//! so tests can also substitute fakes, like the counting gate below.

use grt_core::session::{RecordSession, RecorderMode};
use grt_gpu::GpuSku;
use grt_ir::gate::{RecordingGate, Rejection};
use grt_ir::recording::{Event, SignedRecording};
use grt_ir::IrProgram;
use grt_ml::reference::{test_input, workload_weights};
use grt_net::NetConditions;
use grt_replay::replay::{ReplayError, Replayer};
use std::cell::Cell;
use std::rc::Rc;

fn record_mnist() -> (RecordSession, grt_core::session::RecordOutcome) {
    let mut s = RecordSession::new(
        GpuSku::mali_g71_mp8(),
        NetConditions::wifi(),
        RecorderMode::OursMDS,
    );
    let out = s.record(&grt_ml::zoo::mnist()).expect("record");
    (s, out)
}

#[test]
fn lint_gate_passes_good_recordings() {
    let (s, out) = record_mnist();
    let spec = grt_ml::zoo::mnist();
    let key = s.recording_key();
    let mut replayer = Replayer::new(&s.client, Rc::new(grt_lint::Linter::new()));
    let (gpu_out, _) = replayer
        .replay(
            &out.recording,
            &key,
            &test_input(&spec, 3),
            &workload_weights(&spec),
        )
        .expect("clean recording replays through the lint gate");
    assert_eq!(gpu_out.len(), spec.output_len as usize);
}

#[test]
fn lint_gate_refuses_sabotaged_recording_before_execution() {
    let (s, mut out) = record_mnist();
    let spec = grt_ml::zoo::mnist();
    let key = s.recording_key();
    // Remove the job-start writes: every recorded WaitIrq then waits on an
    // interrupt nothing can raise. The runtime defense would hang-detect
    // this mid-replay; the gate refuses it before the GPU is touched.
    let mut rec = out.recording.verify_and_parse(&key).unwrap();
    let js_command =
        grt_gpu::regs::job_control::slot_base(0) + grt_gpu::regs::job_control::JS_COMMAND;
    rec.events
        .retain(|e| !matches!(e, Event::RegWrite { offset, .. } if *offset == js_command));
    out.recording = SignedRecording::sign(&rec, &key);
    let mut replayer = Replayer::new(&s.client, Rc::new(grt_lint::Linter::new()));
    let err = replayer
        .replay(
            &out.recording,
            &key,
            &test_input(&spec, 0),
            &workload_weights(&spec),
        )
        .unwrap_err();
    match err {
        ReplayError::Rejected { rule, .. } => assert_eq!(rule, "R3"),
        other => panic!("expected lint rejection, got {other:?}"),
    }
    // Nothing executed: the GPU was never claimed.
    assert!(s
        .client
        .tzasc
        .owner_of(grt_replay::client::GPU_MMIO_BASE)
        .is_none());
}

#[test]
fn compile_vets_through_the_gate_before_layered_replay() {
    let (s, mut out) = record_mnist();
    let key = s.recording_key();
    let mut rec = out.recording.verify_and_parse(&key).unwrap();
    // Double-submit the first job: two STARTs with no intervening sync.
    let js_command =
        grt_gpu::regs::job_control::slot_base(0) + grt_gpu::regs::job_control::JS_COMMAND;
    let first_start = rec
        .events
        .iter()
        .position(
            |e| matches!(e, Event::RegWrite { offset, value } if *offset == js_command && *value == 1),
        )
        .expect("a job start");
    let dup = rec.events[first_start].clone();
    rec.events.insert(first_start, dup);
    out.recording = SignedRecording::sign(&rec, &key);
    // Layered replay starts from a compiled recording, and only a vetted
    // recording compiles: the gate refuses before any layer can start.
    let mut replayer = Replayer::new(&s.client, Rc::new(grt_lint::Linter::new()));
    match replayer.compile_signed(&out.recording, &key) {
        Err(ReplayError::Rejected { rule, .. }) => assert_eq!(rule, "R5"),
        other => panic!("expected lint rejection, got {other:?}"),
    }
}

/// A gate that counts its calls and remembers the size of the program it
/// saw, then defers to the real analyzer.
#[derive(Default)]
struct CountingGate {
    calls: Cell<usize>,
    steps_seen: Cell<usize>,
}

impl RecordingGate for CountingGate {
    fn vet(&self, ir: &IrProgram, sku: &GpuSku) -> Result<(), Rejection> {
        self.calls.set(self.calls.get() + 1);
        self.steps_seen.set(ir.steps.len());
        grt_lint::Linter::new().vet(ir, sku)
    }
}

#[test]
fn compile_signed_vets_one_lift_and_lowers_it() {
    let (s, out) = record_mnist();
    let gate = Rc::new(CountingGate::default());
    let mut replayer = Replayer::new(&s.client, Rc::clone(&gate) as Rc<dyn RecordingGate>);
    let compiled = replayer
        .compile_signed(&out.recording, &s.recording_key())
        .expect("clean recording compiles");
    assert_eq!(gate.calls.get(), 1, "one load, one vet");
    // The gate saw the program compile lowered: one step per op.
    assert_eq!(gate.steps_seen.get() as u64, compiled.num_events());
}
