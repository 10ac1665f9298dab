//! Figure 9: client system energy for record and replay.
//!
//! The energy meter integrates the SoC base draw, radio TX/RX, and GPU
//! active power over the virtual timeline (standing in for the paper's
//! multimeter on the HiKey960's power barrel).
//!
//! Run: `cargo run --release -p grt-bench --bin fig9_energy`

use grt_bench::{bar, benchmarks, header, record_warm, short_name};
use grt_core::session::RecorderMode;
use grt_ml::reference::{test_input, workload_weights};
use grt_net::NetConditions;
use grt_replay::replay::Replayer;
use grt_sim::Rail;

fn main() {
    header("Figure 9: system energy for record and replay", "Figure 9");
    println!(
        "{:<10} {:>11} {:>11} {:>10} {:>10}",
        "NN", "rec Naive", "rec OursMDS", "reduction", "replay"
    );
    println!("{}", "-".repeat(58));
    for spec in benchmarks() {
        let (_s, naive) = record_warm(&spec, RecorderMode::Naive, NetConditions::wifi());
        let (session, ours) = record_warm(&spec, RecorderMode::OursMDS, NetConditions::wifi());

        // Replay energy on the same device.
        session.client.energy.reset();
        let key = session.recording_key();
        let mut replayer =
            Replayer::new(&session.client, std::rc::Rc::new(grt_lint::Linter::new()));
        let input = test_input(&spec, 7);
        let weights = workload_weights(&spec);
        replayer
            .replay(&ours.recording, &key, &input, &weights)
            .expect("replay");
        let replay_j = session.client.energy.total_energy();
        let _ = session.client.energy.energy(Rail::Gpu);

        let reduction = 100.0 * (1.0 - ours.energy_j / naive.energy_j);
        println!(
            "{:<10} {:>10.2}J {:>10.2}J {:>9.0}% {:>9.3}J  {}",
            short_name(spec.name),
            naive.energy_j,
            ours.energy_j,
            reduction,
            replay_j,
            bar(ours.energy_j, naive.energy_j, 16),
        );
    }
    println!();
    println!("paper: record energy 1.8-8.2 J for GR-T, 84-99% below Naive;");
    println!("replay energy 0.01-1.3 J, comparable to native GPU execution.");
}
