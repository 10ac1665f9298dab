//! Lane-major batched conv (DESIGN.md §14) at batch sizes that leave a
//! partial chunk of lanes: B = 3 (one chunk, five lanes of padding) and
//! B = 9 (a full chunk of eight, then a chunk of one that runs the scalar
//! kernel).
//!
//! Every lane's output must equal a sequential warm replay of its input,
//! bit for bit. The batch's `ReplayProfile` (TLB hits and misses, per-kind
//! modeled ns) and its receipt bytes must equal the values the executor
//! produced when it re-ran every program lane at a time, pinned below: the
//! lane-major kernel shares arithmetic, never translations or the cost
//! model's inputs.

use grt_core::session::{RecordSession, RecorderMode};
use grt_crypto::Sha256;
use grt_ml::reference::{test_input, workload_weights};
use grt_replay::replay::{ReplayProfile, Replayer};
use std::rc::Rc;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn hex(d: &[u8]) -> String {
    d.iter().map(|b| format!("{b:02x}")).collect()
}

/// What one batch pins: modeled end-to-end ns, TLB hits and misses, the
/// modeled ns of every op kind, and the sha256 of the receipt bytes.
struct Pinned {
    batch: usize,
    total_ns: u64,
    tlb_hits: u64,
    tlb_misses: u64,
    per_kind_ns: [u64; grt_gpu::OP_KIND_COUNT],
    receipt_sha256: &'static str,
}

const PINNED: [Pinned; 2] = [
    Pinned {
        batch: 3,
        total_ns: 16_834_677,
        tlb_hits: 484,
        tlb_misses: 141,
        per_kind_ns: [0, 0, 127_597, 0, 0, 2_156, 221, 2_583_227, 0, 0, 0, 0, 0, 0],
        receipt_sha256: "1c1787abd9876aefbdce0be9469f54d2678305ec0ca8aa59e982ce84c4943cf5",
    },
    Pinned {
        batch: 9,
        total_ns: 21_924_819,
        tlb_hits: 1_684,
        tlb_misses: 141,
        per_kind_ns: [0, 0, 379_183, 0, 0, 3_938, 299, 7_419_923, 0, 0, 0, 0, 0, 0],
        receipt_sha256: "c40f022380f13cdf9dbf5dbdf0324a19e6262fcd09a4a494958de2ec45e4b324",
    },
];

fn per_kind_ns(p: &ReplayProfile) -> [u64; grt_gpu::OP_KIND_COUNT] {
    p.exec.per_kind.map(|k| k.ns)
}

#[test]
fn partial_lane_chunks_match_sequential_replays_and_pinned_accounting() {
    let spec = grt_ml::zoo::squeezenet();
    let mut s = RecordSession::new(
        grt_gpu::GpuSku::mali_g71_mp8(),
        grt_net::NetConditions::wifi(),
        RecorderMode::OursMDS,
    );
    let out = s.record(&spec).expect("record");
    let key = s.recording_key();
    let mut replayer = Replayer::new(&s.client, Rc::new(grt_lint::Linter::new()));
    let weights = workload_weights(&spec);
    let compiled = replayer.compile_signed(&out.recording, &key).unwrap();

    for pin in &PINNED {
        let b = pin.batch;
        let inputs: Vec<Vec<f32>> = (0..b)
            .map(|j| test_input(&spec, 0x1A7E_0000 + (b * 16 + j) as u64))
            .collect();
        let sequential: Vec<Vec<f32>> = inputs
            .iter()
            .map(|input| {
                replayer
                    .replay_compiled(&compiled, input, &weights)
                    .unwrap()
                    .0
            })
            .collect();
        let (batched, _) = replayer
            .replay_compiled_batch(&compiled, &inputs, &weights)
            .unwrap();
        let profile = replayer.last_profile();
        let receipt = replayer.last_receipt().unwrap().to_bytes();

        assert_eq!(batched.len(), b);
        for (lane, (got, want)) in batched.iter().zip(&sequential).enumerate() {
            assert_eq!(bits(got), bits(want), "B={b}: lane {lane} output bits");
        }
        assert_eq!(profile.total.as_nanos(), pin.total_ns, "B={b}: total ns");
        assert_eq!(profile.exec.tlb.hits, pin.tlb_hits, "B={b}: TLB hits");
        assert_eq!(profile.exec.tlb.misses, pin.tlb_misses, "B={b}: TLB misses");
        assert_eq!(per_kind_ns(&profile), pin.per_kind_ns, "B={b}: per-kind ns");
        assert_eq!(
            hex(&Sha256::digest(&receipt)),
            pin.receipt_sha256,
            "B={b}: receipt bytes"
        );
    }
}
