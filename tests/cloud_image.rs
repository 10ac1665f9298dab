//! §6 cloud VM image: one image, many drivers, selected per client.

use grt_core::cloud::CloudVmImage;
use grt_core::session::{RecordSession, RecorderMode};
use grt_gpu::GpuSku;
use grt_ml::reference::{test_input, workload_weights, ReferenceNet};
use grt_net::NetConditions;
use grt_replay::replay::Replayer;

/// The standard image serves clients of every cataloged SKU end to end —
/// including the G72/G76 whose PTE quirks differ from the G71's.
#[test]
fn one_image_serves_every_sku_end_to_end() {
    let spec = grt_ml::zoo::mnist();
    let reference = ReferenceNet::new(spec.clone());
    for sku in [
        GpuSku::mali_g71_mp8(),
        GpuSku::mali_g71_mp4(),
        GpuSku::mali_g72_mp12(),
        GpuSku::mali_g76_mp10(),
    ] {
        let name = sku.name;
        let mut s = RecordSession::with_image(
            sku,
            NetConditions::wifi(),
            RecorderMode::OursMDS,
            RecorderMode::OursMDS.config(),
            CloudVmImage::standard(),
        )
        .expect("image supports the catalog");
        let out = s.record(&spec).unwrap_or_else(|e| panic!("{name}: {e}"));
        let key = s.recording_key();
        let mut replayer = Replayer::new(&s.client, std::rc::Rc::new(grt_lint::Linter::new()));
        let input = test_input(&spec, 13);
        let weights = workload_weights(&spec);
        let (gpu_out, _) = replayer
            .replay(&out.recording, &key, &input, &weights)
            .unwrap_or_else(|e| panic!("{name}: replay: {e}"));
        let cpu_out = reference.infer(&input);
        for (a, b) in gpu_out.iter().zip(&cpu_out) {
            assert!((a - b).abs() < 1e-3, "{name} diverged");
        }
    }
}

/// An image without the client's devicetree refuses the session before
/// any GPU access happens.
#[test]
fn image_without_devicetree_refuses_client() {
    let image = CloudVmImage::with_devicetrees(vec![GpuSku::mali_g71_mp8()]);
    let err = RecordSession::with_image(
        GpuSku::mali_g76_mp10(),
        NetConditions::wifi(),
        RecorderMode::OursMDS,
        RecorderMode::OursMDS.config(),
        image,
    )
    .expect_err("must refuse");
    assert_eq!(err.gpu_id, GpuSku::mali_g76_mp10().gpu_id);
}

/// Devicetree selection drives real behavioural differences: recordings
/// made through the same image for different SKUs are not interchangeable.
#[test]
fn image_recordings_remain_sku_bound() {
    let spec = grt_ml::zoo::mnist();
    let mut g72 = RecordSession::new(
        GpuSku::mali_g72_mp12(),
        NetConditions::wifi(),
        RecorderMode::OursMDS,
    );
    let out = g72.record(&spec).expect("record");
    let key = g72.recording_key();
    // Replaying the G72 recording on a G76 client fails the SKU gate.
    let clock = grt_sim::Clock::new();
    let stats = grt_sim::Stats::new();
    let g76 = grt_replay::client::ClientDevice::new(GpuSku::mali_g76_mp10(), &clock, &stats, b"x");
    let mut replayer = Replayer::new(&g76, std::rc::Rc::new(grt_lint::Linter::new()));
    let err = replayer
        .replay(
            &out.recording,
            &key,
            &test_input(&spec, 0),
            &workload_weights(&spec),
        )
        .unwrap_err();
    assert!(matches!(
        err,
        grt_replay::replay::ReplayError::WrongSku { .. }
    ));
}

/// The VM measurement covers the devicetree set, so a client attesting
/// against the standard image detects a stripped-down (or augmented) one.
#[test]
fn measurement_detects_devicetree_tampering() {
    let standard = CloudVmImage::standard().measurement();
    let stripped = CloudVmImage::with_devicetrees(vec![GpuSku::mali_g71_mp8()]).measurement();
    assert_ne!(standard, stripped);
    let report = grt_crypto::AttestationReport::generate(b"prov", stripped, [1u8; 16]);
    assert!(!report.verify(b"prov", &standard, &[1u8; 16]));
}
