//! Table 2: replay delays vs native execution.
//!
//! Native runs the full GPU stack in the normal world of the same device;
//! replay executes the GR-T recording inside the TEE with real input
//! injected. Both produce the same inference outputs (validated against
//! the CPU reference here).
//!
//! Run: `cargo run --release -p grt-bench --bin tab2_replay_delay`

use grt_bench::{benchmarks, header, record_warm, short_name};
use grt_core::session::RecorderMode;
use grt_gpu::GpuSku;
use grt_ml::reference::{test_input, workload_weights, ReferenceNet};
use grt_net::NetConditions;
use grt_replay::replay::Replayer;
use grt_runtime::NativeStack;

fn main() {
    header("Table 2: replay delays vs native execution", "Table 2");
    println!(
        "{:<10} {:>11} {:>11} {:>9}  outputs",
        "NN", "Native", "OursMDS", "diff"
    );
    println!("{}", "-".repeat(58));
    let mut ratios = Vec::new();
    for spec in benchmarks() {
        // Native: the insecure baseline on the same SKU.
        let mut native = NativeStack::boot(GpuSku::mali_g71_mp8()).expect("boot");
        let net = native.compile(&spec).expect("compile");
        let input = test_input(&spec, 42);
        let (native_out, native_delay) = native.infer_timed(&net, &input).expect("native run");

        // GR-T: record once in the cloud, then replay in the TEE.
        let (session, out) = record_warm(&spec, RecorderMode::OursMDS, NetConditions::wifi());
        let key = session.recording_key();
        let mut replayer =
            Replayer::new(&session.client, std::rc::Rc::new(grt_lint::Linter::new()));
        let weights = workload_weights(&spec);
        let (replay_out, replay_delay) = replayer
            .replay(&out.recording, &key, &input, &weights)
            .expect("replay");

        // Both must reproduce the CPU reference.
        let reference = ReferenceNet::new(spec.clone()).infer(&input);
        let ok = |a: &[f32]| {
            a.iter()
                .zip(&reference)
                .all(|(x, y)| (x - y).abs() < 1e-3 * (1.0 + y.abs()))
        };
        let verdict = if ok(&native_out) && ok(&replay_out) {
            "match"
        } else {
            "MISMATCH"
        };

        let n_ms = native_delay.as_millis_f64();
        let r_ms = replay_delay.as_millis_f64();
        let diff = 100.0 * (r_ms - n_ms) / n_ms;
        ratios.push(r_ms / n_ms);
        println!(
            "{:<10} {:>9.1}ms {:>9.1}ms {:>+8.0}%  {verdict}",
            short_name(spec.name),
            n_ms,
            r_ms,
            diff
        );
    }
    let avg = 100.0 * (1.0 - ratios.iter().sum::<f64>() / ratios.len() as f64);
    println!();
    println!(
        "replay is {avg:.0}% faster than native on average (paper: 25% lower, \
         ranging from 68% lower to 3% higher)"
    );
    println!("the advantage comes from removing the GPU stack's CPU overhead.");
}
