//! Batched replay oracle (DESIGN.md §14): scalar warm replay is the
//! ground truth, batching is purely an amortization.
//!
//! - B=1 batched replay must be *byte-identical* to the scalar warm path:
//!   same output bits, same `ReplayProfile` counters, same receipt bytes
//!   (so the receipt chain is indistinguishable).
//! - B-way batched replay must be bitwise identical to B sequential warm
//!   replays of the same inputs, across every zoo network, with the batch
//!   receipt committing to the per-lane inputs and concatenated outputs.
//! - Lanes fork only the pages a replay touched, so nothing a previous
//!   replay left in protected memory may leak into a later batch, and a
//!   wipe after any replay must leave the carveout all zero.

use grt_core::replay::{workload_weights, Replayer};
use grt_core::session::{ClientDevice, RecordSession, RecorderMode, CLIENT_MEM_BYTES};
use grt_ml::reference::test_input;
use std::rc::Rc;

fn rig(spec: &grt_ml::NetworkSpec) -> (RecordSession, grt_core::session::RecordOutcome) {
    let mut s = RecordSession::new(
        grt_gpu::GpuSku::mali_g71_mp8(),
        grt_net::NetConditions::wifi(),
        RecorderMode::OursMDS,
    );
    let out = s.record(spec).expect("record");
    (s, out)
}

/// A client device no replay has run on.
fn fresh_device() -> ClientDevice {
    ClientDevice::new(
        grt_gpu::GpuSku::mali_g71_mp8(),
        &grt_sim::Clock::new(),
        &grt_sim::Stats::new(),
        grt_core::session::PROVISIONING_SECRET,
    )
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn f32_bytes(v: &[f32]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

/// A batch of one *is* the scalar warm path: outputs, profile counters,
/// and the emitted receipt must all be byte-identical on every network.
#[test]
fn batch_of_one_is_byte_identical_to_scalar_warm_replay() {
    for spec in grt_ml::zoo::all_benchmarks() {
        let (s, out) = rig(&spec);
        let key = s.recording_key();
        let mut replayer = Replayer::new(&s.client, Rc::new(grt_lint::Linter::new()));
        let weights = workload_weights(&spec);
        let compiled = replayer.compile_signed(&out.recording, &key).unwrap();
        let input = test_input(&spec, 0xB1);

        // Warm both paths once so neither pays the first-replay TLB cold
        // misses the other skipped.
        replayer
            .replay_compiled(&compiled, &input, &weights)
            .unwrap();
        let (scalar, _) = replayer
            .replay_compiled(&compiled, &input, &weights)
            .unwrap();
        let scalar_profile = replayer.last_profile();
        let scalar_receipt = replayer.last_receipt().unwrap().to_bytes();

        let (batched, _) = replayer
            .replay_compiled_batch(&compiled, std::slice::from_ref(&input), &weights)
            .unwrap();
        let batch_profile = replayer.last_profile();
        let batch_receipt = replayer.last_receipt().unwrap().to_bytes();

        assert_eq!(batched.len(), 1, "{}: one input, one output", spec.name);
        assert_eq!(
            bits(&scalar),
            bits(&batched[0]),
            "{}: B=1 output bits",
            spec.name
        );
        assert_eq!(
            scalar_profile, batch_profile,
            "{}: B=1 ReplayProfile",
            spec.name
        );
        assert_eq!(
            scalar_receipt, batch_receipt,
            "{}: B=1 receipt bytes",
            spec.name
        );
    }
}

/// B-way batched replay is bitwise identical to B sequential warm
/// replays, for a per-network randomized B ∈ {2, 4, 8}, and the single
/// batch receipt verifies against the staged inputs and the concatenated
/// outputs.
#[test]
fn batched_replay_matches_sequential_warm_replays() {
    for (i, spec) in grt_ml::zoo::all_benchmarks().into_iter().enumerate() {
        let b = [2usize, 4, 8][(i + spec.name.len()) % 3];
        let (s, out) = rig(&spec);
        let key = s.recording_key();
        let mut replayer = Replayer::new(&s.client, Rc::new(grt_lint::Linter::new()));
        let weights = workload_weights(&spec);
        let compiled = replayer.compile_signed(&out.recording, &key).unwrap();
        let inputs: Vec<Vec<f32>> = (0..b)
            .map(|j| test_input(&spec, 0xBA7C_0000 ^ (i as u64) << 8 ^ j as u64))
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
        assert_eq!(batched.len(), b, "{}: lane count", spec.name);
        for (lane, (seq, bat)) in sequential.iter().zip(&batched).enumerate() {
            assert_eq!(
                bits(seq),
                bits(bat),
                "{}: lane {lane} of B={b} must match its sequential replay",
                spec.name
            );
        }

        // One receipt covers the batch: input digest commits to the lane
        // vector, output digest to the lane outputs in order.
        let receipt = replayer.last_receipt().unwrap().clone();
        assert!(receipt.verify(grt_core::session::PROVISIONING_SECRET));
        let input_lanes: Vec<Vec<u8>> = inputs.iter().map(|v| f32_bytes(v)).collect();
        let concat: Vec<u8> = batched.iter().flat_map(|v| f32_bytes(v)).collect();
        grt_attest::verify_batch_receipt_data(&receipt, &input_lanes, &concat)
            .expect("batch receipt data");
    }
}

/// Batch geometry violations are rejected before any device state is
/// touched: empty batches, oversized batches, and mis-shaped lanes.
#[test]
fn bad_batch_geometry_is_rejected() {
    let spec = grt_ml::zoo::mnist();
    let (s, out) = rig(&spec);
    let key = s.recording_key();
    let mut replayer = Replayer::new(&s.client, Rc::new(grt_lint::Linter::new()));
    let weights = workload_weights(&spec);
    let compiled = replayer.compile_signed(&out.recording, &key).unwrap();

    let empty: Vec<Vec<f32>> = Vec::new();
    assert!(matches!(
        replayer.replay_compiled_batch(&compiled, &empty, &weights),
        Err(grt_core::replay::ReplayError::BadInput)
    ));

    let too_many: Vec<Vec<f32>> = vec![test_input(&spec, 1); grt_core::compiled::MAX_BATCH + 1];
    assert!(matches!(
        replayer.replay_compiled_batch(&compiled, &too_many, &weights),
        Err(grt_core::replay::ReplayError::BadInput)
    ));

    let mut lanes = vec![test_input(&spec, 1), test_input(&spec, 2)];
    lanes[1].pop();
    assert!(matches!(
        replayer.replay_compiled_batch(&compiled, &lanes, &weights),
        Err(grt_core::replay::ReplayError::BadInput)
    ));
}

/// A large replay leaves most of its pages behind until the next wipe.
/// An MNIST batch run after a VGG16 warm replay on the same device must
/// match, lane for lane and in its receipt bytes, the same batch on a
/// device no replay has touched.
#[test]
fn batch_after_large_replay_matches_fresh_device() {
    let vgg = grt_ml::zoo::vgg16();
    let mnist = grt_ml::zoo::mnist();
    let (sv, outv) = rig(&vgg);
    let (sm, outm) = rig(&mnist);
    let mnist_weights = workload_weights(&mnist);
    let inputs: Vec<Vec<f32>> = (0..8)
        .map(|j| test_input(&mnist, 0x57A1_E000 ^ j))
        .collect();

    let used = fresh_device();
    let mut replayer = Replayer::new(&used, Rc::new(grt_lint::Linter::new()));
    let compiled_vgg = replayer
        .compile_signed(&outv.recording, &sv.recording_key())
        .unwrap();
    replayer
        .replay_compiled(
            &compiled_vgg,
            &test_input(&vgg, 0x0766),
            &workload_weights(&vgg),
        )
        .unwrap();
    let compiled = replayer
        .compile_signed(&outm.recording, &sm.recording_key())
        .unwrap();
    let (after_vgg, _) = replayer
        .replay_compiled_batch(&compiled, &inputs, &mnist_weights)
        .unwrap();
    let after_vgg_receipt = replayer.last_receipt().unwrap().to_bytes();

    let fresh = fresh_device();
    let mut replayer = Replayer::new(&fresh, Rc::new(grt_lint::Linter::new()));
    let compiled = replayer
        .compile_signed(&outm.recording, &sm.recording_key())
        .unwrap();
    let (clean, _) = replayer
        .replay_compiled_batch(&compiled, &inputs, &mnist_weights)
        .unwrap();
    let clean_receipt = replayer.last_receipt().unwrap().to_bytes();

    for (lane, (a, b)) in after_vgg.iter().zip(&clean).enumerate() {
        assert_eq!(bits(a), bits(b), "lane {lane} differs after a VGG16 replay");
    }
    assert_eq!(after_vgg_receipt, clean_receipt, "batch receipt bytes");
}

/// The TEE scrub (§3.2): after any replay path, a wipe leaves every byte
/// of the protected carveout zero.
#[test]
fn wipe_after_any_replay_scrubs_the_carveout() {
    let all_zero = |device: &ClientDevice| {
        let mut mem = device.mem.borrow_mut();
        mem.wipe();
        mem.dump_range(0, CLIENT_MEM_BYTES).iter().all(|&b| b == 0)
    };
    for spec in [grt_ml::zoo::mnist(), grt_ml::zoo::squeezenet()] {
        let (s, out) = rig(&spec);
        let key = s.recording_key();
        let weights = workload_weights(&spec);
        let input = test_input(&spec, 0x5C2B);
        let device = fresh_device();
        let mut replayer = Replayer::new(&device, Rc::new(grt_lint::Linter::new()));

        replayer
            .replay(&out.recording, &key, &input, &weights)
            .unwrap();
        assert!(all_zero(&device), "{}: interpreted replay", spec.name);

        let compiled = replayer.compile_signed(&out.recording, &key).unwrap();
        replayer
            .replay_compiled(&compiled, &input, &weights)
            .unwrap();
        assert!(all_zero(&device), "{}: compiled replay", spec.name);

        let batch = vec![input.clone(); 4];
        replayer
            .replay_compiled_batch(&compiled, &batch, &weights)
            .unwrap();
        assert!(all_zero(&device), "{}: batched replay", spec.name);

        let mut layered = replayer.begin_layered(&compiled, &input, &weights).unwrap();
        while layered.replay_layer().unwrap().is_some() {}
        layered.finish();
        assert!(all_zero(&device), "{}: layered replay", spec.name);
    }
}

/// The widest batch the TA accepts still replays every lane exactly: the
/// last lane of a `MAX_BATCH` MNIST batch equals its scalar replay.
#[test]
fn max_batch_last_lane_matches_scalar_replay() {
    let spec = grt_ml::zoo::mnist();
    let (s, out) = rig(&spec);
    let mut replayer = Replayer::new(&s.client, Rc::new(grt_lint::Linter::new()));
    let weights = workload_weights(&spec);
    let compiled = replayer
        .compile_signed(&out.recording, &s.recording_key())
        .unwrap();
    let b = grt_core::compiled::MAX_BATCH;
    let inputs: Vec<Vec<f32>> = (0..b)
        .map(|j| test_input(&spec, 0x64_0000 ^ j as u64))
        .collect();
    let (batched, _) = replayer
        .replay_compiled_batch(&compiled, &inputs, &weights)
        .unwrap();
    assert_eq!(batched.len(), b);
    let (scalar, _) = replayer
        .replay_compiled(&compiled, &inputs[b - 1], &weights)
        .unwrap();
    assert_eq!(bits(&batched[b - 1]), bits(&scalar), "lane {}", b - 1);
}
