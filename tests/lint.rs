//! Adversarial corpus for the grt-lint static analyzer.
//!
//! Every test starts from a known-good MNIST recording and applies one
//! surgical mutation — the kind of recording a compromised cloud stack
//! could ship — then asserts the analyzer flags it with *exactly* the
//! intended rule (no collateral diagnostics from other rules, which would
//! hint the rules overlap or misattribute). Two boundary tests pin the
//! bounds the analyzer and the replayer share: the poll spin cap (R3) and
//! the carveout size (R4) are one constant each, so a recording exactly at
//! either bound passes both, and one past it fails both. A final pair of
//! tests pins the other direction: all six zoo networks lint clean (no false positives),
//! and the JSON report is byte-identical across runs (auditable evidence).

use grt_core::session::{RecordSession, RecorderMode};
use grt_gpu::regs::{job_control as jc, mmu_control as mc};
use grt_gpu::GpuSku;
use grt_ir::gate::{CLIENT_MEM_BYTES, REPLAY_POLL_ITER_CAP};
use grt_ir::recording::{Event, Recording, SignedRecording};
use grt_lint::{Linter, Rule, Severity};
use grt_net::NetConditions;
use grt_replay::replay::{ReplayError, Replayer};

fn record(spec: &grt_ml::NetworkSpec) -> (RecordSession, SignedRecording) {
    let mut s = RecordSession::new(
        GpuSku::mali_g71_mp8(),
        NetConditions::wifi(),
        RecorderMode::OursMDS,
    );
    let out = s.record(spec).expect("record");
    (s, out.recording)
}

fn mnist_recording() -> Recording {
    let (s, signed) = record(&grt_ml::zoo::mnist());
    signed.verify_and_parse(&s.recording_key()).expect("parse")
}

fn lint(rec: &Recording) -> grt_lint::LintReport {
    let spec = grt_ml::zoo::mnist();
    Linter::new().lint(rec, &GpuSku::mali_g71_mp8(), Some(&spec))
}

/// The mutated recording fails, and every Error carries the expected rule.
/// Event-stream rules additionally anchor at least one diagnostic to a
/// concrete event index; header-level findings (like R4 slot overlaps,
/// detected before the event loop) legitimately have no anchor.
fn assert_trips_exactly(rec: &Recording, rule: Rule) {
    let report = lint(rec);
    assert!(!report.passed(), "{} mutation slipped through", rule.id());
    let errors: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .collect();
    assert!(!errors.is_empty());
    for d in &errors {
        assert_eq!(
            d.rule.id(),
            rule.id(),
            "expected only {} errors, got {}: {}",
            rule.id(),
            d.rule.id(),
            d.message
        );
    }
    if rule != Rule::R4SlotShape {
        assert!(
            errors.iter().any(|d| d.event.is_some()),
            "no error is anchored to an event index"
        );
    }
}

#[test]
fn r1_out_of_whitelist_register_write() {
    let mut rec = mnist_recording();
    rec.events.push(Event::RegWrite {
        offset: 0x4000, // beyond every register window
        value: 0xDEAD,
    });
    assert_trips_exactly(&rec, Rule::R1RegisterWhitelist);
}

#[test]
fn r1_malformed_gpu_command_value() {
    let mut rec = mnist_recording();
    let cmd = grt_gpu::regs::gpu_control::GPU_COMMAND;
    let w = rec
        .events
        .iter_mut()
        .find_map(|e| match e {
            Event::RegWrite { offset, value } if *offset == cmd => Some(value),
            _ => None,
        })
        .expect("a GPU_COMMAND write");
    *w = 0xFF; // not a defined command encoding
    assert_trips_exactly(&rec, Rule::R1RegisterWhitelist);
}

#[test]
fn r2_page_table_root_outside_carveout() {
    let mut rec = mnist_recording();
    // Redirect the staged AS0 translation-table base to a page-aligned
    // address beyond the client carveout; the AS_COMMAND UPDATE latch is
    // where reachability is judged.
    let transtab_lo = mc::as_base(0) + mc::AS_TRANSTAB_LO;
    let w = rec
        .events
        .iter_mut()
        .find_map(|e| match e {
            Event::RegWrite { offset, value } if *offset == transtab_lo && *value != 0 => {
                Some(value)
            }
            _ => None,
        })
        .expect("a TRANSTAB_LO write");
    *w = 0x0800_0000; // 128 MiB: past the 96 MiB carveout, still page-aligned
    assert_trips_exactly(&rec, Rule::R2PageTableReachability);
}

#[test]
fn r3_poll_with_zero_iteration_budget() {
    let mut rec = mnist_recording();
    let m = rec
        .events
        .iter_mut()
        .find_map(|e| match e {
            Event::Poll { max_iters, .. } => Some(max_iters),
            _ => None,
        })
        .expect("a poll");
    *m = 0; // can never terminate successfully
    assert_trips_exactly(&rec, Rule::R3Termination);
}

#[test]
fn r3_poll_with_absurd_iteration_budget() {
    let mut rec = mnist_recording();
    let m = rec
        .events
        .iter_mut()
        .find_map(|e| match e {
            Event::Poll { max_iters, .. } => Some(max_iters),
            _ => None,
        })
        .expect("a poll");
    *m = u32::MAX; // a denial-of-service budget
    assert_trips_exactly(&rec, Rule::R3Termination);
}

#[test]
fn r3_wait_for_an_interrupt_nothing_raises() {
    let mut rec = mnist_recording();
    // Drop every job submission: the recorded Job-line waits now wait for
    // interrupts with no recorded raiser. (Also exercised end-to-end via
    // the replayer gate in crates/core/tests/lint_gate.rs.)
    let js_command = jc::slot_base(0) + jc::JS_COMMAND;
    rec.events
        .retain(|e| !matches!(e, Event::RegWrite { offset, .. } if *offset == js_command));
    assert_trips_exactly(&rec, Rule::R3Termination);
}

#[test]
fn r4_overlapping_data_slots() {
    let mut rec = mnist_recording();
    // Alias the first weight slot onto the input slot: replay would let
    // attacker-controlled input masquerade as model weights.
    rec.weights[0].pa = rec.input.pa;
    assert_trips_exactly(&rec, Rule::R4SlotShape);
}

/// Judges `rec` twice: with [`Linter::lint`], and through the replayer's
/// gate when `s`'s replayer loads the re-signed recording. Returns the
/// rules of the lint report's errors and the rule the replayer rejected
/// with (`None` when the recording loads).
fn lint_and_load(s: &RecordSession, rec: &Recording) -> (Vec<&'static str>, Option<String>) {
    let errors = lint(rec)
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| d.rule.id())
        .collect();
    let key = s.recording_key();
    let mut replayer = Replayer::new(&s.client, std::rc::Rc::new(Linter::new()));
    let rejected = match replayer.compile_signed(&SignedRecording::sign(rec, &key), &key) {
        Ok(_) => None,
        Err(ReplayError::Rejected { rule, .. }) => Some(rule),
        Err(other) => panic!("load failed outside the gate: {other}"),
    };
    (errors, rejected)
}

/// R3's per-poll bound is the replayer's spin cap: a budget of exactly
/// `REPLAY_POLL_ITER_CAP` passes lint and the replayer's gate, and one
/// iteration more fails both.
#[test]
fn r3_poll_budget_bound_is_the_replay_spin_cap() {
    let (s, signed) = record(&grt_ml::zoo::mnist());
    let mut rec = signed.verify_and_parse(&s.recording_key()).unwrap();
    let poll = rec
        .events
        .iter()
        .position(|e| matches!(e, Event::Poll { .. }))
        .expect("a poll");
    let set_budget = |rec: &mut Recording, budget: u32| {
        if let Event::Poll { max_iters, .. } = &mut rec.events[poll] {
            *max_iters = budget;
        }
    };
    set_budget(&mut rec, REPLAY_POLL_ITER_CAP);
    assert_eq!(lint_and_load(&s, &rec), (vec![], None));
    set_budget(&mut rec, REPLAY_POLL_ITER_CAP + 1);
    assert_eq!(lint_and_load(&s, &rec), (vec!["R3"], Some("R3".into())));
}

/// R4's slot bound is the client carveout: a slot that ends exactly at
/// `CLIENT_MEM_BYTES` passes lint and the replayer's gate, and a slot one
/// element further fails both.
#[test]
fn r4_slot_bound_is_the_client_carveout() {
    let (s, signed) = record(&grt_ml::zoo::mnist());
    let mut rec = signed.verify_and_parse(&s.recording_key()).unwrap();
    rec.output.pa = CLIENT_MEM_BYTES as u64 - rec.output.bytes();
    assert_eq!(rec.output.range().1, CLIENT_MEM_BYTES as u64);
    assert_eq!(lint_and_load(&s, &rec), (vec![], None));
    rec.output.pa += 4; // one f32 element past the end
    assert_eq!(lint_and_load(&s, &rec), (vec!["R4"], Some("R4".into())));
}

#[test]
fn r5_double_job_submission_without_sync() {
    let mut rec = mnist_recording();
    let js_command = jc::slot_base(0) + jc::JS_COMMAND;
    let first_start = rec
        .events
        .iter()
        .position(
            |e| matches!(e, Event::RegWrite { offset, value } if *offset == js_command && *value == jc::JS_CMD_START),
        )
        .expect("a job start");
    let dup = rec.events[first_start].clone();
    rec.events.insert(first_start, dup);
    assert_trips_exactly(&rec, Rule::R5JobQueueDiscipline);
}

#[test]
fn r6_shuffled_layer_indices() {
    let mut rec = mnist_recording();
    let idx = rec
        .events
        .iter_mut()
        .find_map(|e| match e {
            Event::BeginLayer { index } => Some(index),
            _ => None,
        })
        .expect("a layer boundary");
    *idx = 7; // MNIST's first boundary must be layer 0
    assert_trips_exactly(&rec, Rule::R6LayerStructure);
}

/// R7: displacing the input slot elsewhere in the carveout keeps every
/// structural rule happy (in-bounds, disjoint, spec-consistent length) but
/// leaves the first layer's reads uncovered by any definition — the
/// recorded program would consume bytes the client never injected.
#[test]
fn r7_displaced_input_slot_breaks_dataflow() {
    let mut rec = mnist_recording();
    rec.input.pa = 0x0580_0000;
    assert_trips_exactly(&rec, Rule::R7DataflowIntegrity);
}

/// R8: repointing the first chain head into unmapped VA space. The write
/// itself is whitelisted (JS_HEAD values are unconstrained) and the page
/// tables are untouched, so R1/R2 stay silent — only the interval analysis
/// sees that the descriptor fetch cannot resolve.
#[test]
fn r8_chain_head_into_unmapped_va() {
    let mut rec = mnist_recording();
    let span = jc::slot_base(1) - jc::slot_base(0);
    let head = rec
        .events
        .iter_mut()
        .find_map(|e| match e {
            Event::RegWrite { offset, value }
                if (jc::slot_base(0)..jc::slot_base(16)).contains(offset)
                    && (*offset - jc::slot_base(0)) % span == jc::JS_HEAD_LO =>
            {
                Some(value)
            }
            _ => None,
        })
        .expect("a JS_HEAD_LO write");
    *head = 0x3FF0_0000; // far outside every mapped VA region
    assert_trips_exactly(&rec, Rule::R8AddressIntervals);
}

/// R9: every poll individually respects R3's per-poll spin cap, but the
/// recording's worst-case total blows the SKU envelope — the attack R3
/// cannot see and R9 exists for.
#[test]
fn r9_poll_total_exceeds_envelope() {
    let mut rec = mnist_recording();
    for e in &mut rec.events {
        if let Event::Poll { max_iters, .. } = e {
            *max_iters = 9_999; // under the 10k per-poll cap
        }
    }
    assert_trips_exactly(&rec, Rule::R9CostEnvelope);
}

/// The replayer front-door enforces the same verdict: a recording the
/// analyzer rejects never reaches event execution.
#[test]
fn replayer_refuses_what_the_analyzer_rejects() {
    use grt_ml::reference::workload_weights;
    use grt_replay::replay::{ReplayError, Replayer};
    let (s, signed) = record(&grt_ml::zoo::mnist());
    let key = s.recording_key();
    let mut rec = signed.verify_and_parse(&key).unwrap();
    rec.events.push(Event::RegWrite {
        offset: 0x4000,
        value: 0xDEAD,
    });
    let evil = SignedRecording::sign(&rec, &key);
    let spec = grt_ml::zoo::mnist();
    let mut r = Replayer::new(&s.client, std::rc::Rc::new(Linter::new()));
    let err = r
        .replay(
            &evil,
            &key,
            &grt_ml::reference::test_input(&spec, 0),
            &workload_weights(&spec),
        )
        .unwrap_err();
    assert!(matches!(err, ReplayError::Rejected { ref rule, .. } if rule == "R1"));
}

/// The serving registry refuses the same recording at insert time, before
/// any device would ever fetch it.
#[test]
fn registry_refuses_what_the_analyzer_rejects() {
    use grt_core::session::RecordError;
    use grt_replay::client::recording_trust_root;
    use grt_serve::{RecordingRegistry, RegistryConfig};
    let mut registry = RecordingRegistry::new(RegistryConfig::new(4));
    let spec = grt_ml::zoo::mnist();
    let sku = GpuSku::mali_g71_mp8();
    let good = registry.fetch(&spec, &sku).expect("cold-start record");
    let key = recording_trust_root();
    let mut rec = good.recording.verify_and_parse(&key).unwrap();
    rec.events.push(Event::RegWrite {
        offset: 0x4000,
        value: 0xDEAD,
    });
    let evil = SignedRecording::sign(&rec, &key);
    // Ship it with a well-formed provenance record: the refusal below must
    // come from static analysis, not from the provenance gate.
    let prov = grt_attest::ProvenanceRecord::build(
        "external",
        spec.name,
        sku.gpu_id,
        grt_crypto::Sha256::digest(&evil.bytes),
        [0u8; 32],
        grt_replay::client::PROVISIONING_SECRET,
    );
    let err = registry
        .insert_signed(&spec, &sku, evil, Some(prov))
        .unwrap_err();
    assert!(matches!(err, RecordError::Rejected { ref rule, .. } if rule == "R1"));
}

/// No false positives: every zoo network's golden recording lints clean —
/// zero diagnostics at Error severity — with the spec-aware checks on.
#[test]
fn all_zoo_recordings_lint_clean() {
    for spec in grt_ml::zoo::all_benchmarks() {
        let (s, signed) = record(&spec);
        let rec = signed.verify_and_parse(&s.recording_key()).unwrap();
        let report = Linter::new().lint(&rec, s.client.gpu.borrow().sku(), Some(&spec));
        assert!(
            report.passed(),
            "{} has lint errors:\n{}",
            spec.name,
            report.to_json()
        );
        // A passing recording is cost-certified: R9 publishes the budget.
        let budget = report
            .budget
            .unwrap_or_else(|| panic!("{} passed but carries no certified budget", spec.name));
        assert!(budget.macs > 0 && budget.poll_iters > 0);
    }
}

/// The JSON report is byte-identical across runs over the same recording:
/// lint verdicts are reproducible audit evidence, not heuristics.
#[test]
fn report_json_is_deterministic() {
    let rec = mnist_recording();
    let a = lint(&rec).to_json();
    let b = lint(&rec).to_json();
    assert_eq!(a, b);
    // And a fresh, independently recorded session agrees byte-for-byte
    // (recording itself is deterministic, so the report must be too).
    let rec2 = mnist_recording();
    let c = lint(&rec2).to_json();
    assert_eq!(a, c);
}
