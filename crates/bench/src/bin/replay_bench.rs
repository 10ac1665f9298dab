//! Replay-path microbenchmark: interpreted vs compiled replay.
//!
//! Replay is GR-T's steady state — each recording is made once and then
//! replayed indefinitely with fresh inputs — so per-replay overhead is the
//! number that matters at fleet scale. For each of the six benchmark
//! networks this harness:
//!
//! 1. records once (full `OursMDS` recorder over WiFi, warm methodology);
//! 2. lowers the signed recording once with `Replayer::compile_signed`,
//!    measuring the one-time compile cost (DESIGN.md §9);
//! 3. replays the same input through one-shot `Replayer::replay` (the
//!    unfused lowering, charged at the interpreted prices) and the
//!    compiled path, asserting the outputs are bit-for-bit identical;
//! 4. reports per-event and per-replay costs for both paths, split into
//!    replayer *overhead* (decode + validate + delta work — what the
//!    compiled path attacks) and *total* latency (dominated by hardware
//!    waits, identical on both paths), plus the measured run's memsync
//!    traffic from the record side (dirty-page skip counters).
//!
//! Everything in the JSON on stdout derives from the deterministic
//! virtual clock, so two runs of this binary emit byte-identical
//! documents — `scripts/ci.sh` diffs them and gates on the events/s
//! aggregate against the checked-in `BENCH_replay.json`. Wall-clock
//! timing goes to stderr only.
//!
//! With `--batch B` (B ≥ 2) each network additionally runs one B-way
//! batched replay (`Replayer::replay_compiled_batch`, DESIGN.md §14):
//! lane 0 carries the same input as the scalar warm replay — asserted
//! bit-identical, the in-bench oracle — and the row gains a `batched`
//! block with `warm_inferences_per_sec`, the number the batched-replay
//! CI gate holds at ≥ 2× `warm_replays_per_sec` on ResNet12 and VGG16
//! (superinstruction fusion, DESIGN.md §15, sped up the scalar
//! baseline, compressing the ratio). Each row also carries a `fusion`
//! block (chains fused, jobs/steps elided, bytes never materialized),
//! and the compiled warm replay is additionally checked bit-identical
//! to an unfused compile of the same recording — the fusion oracle the
//! ≥ 1.15× fused-throughput CI gate rests on.
//!
//! Usage: `replay_bench [--batch B]`

use grt_bench::{benchmarks, record_warm};
use grt_core::session::RecorderMode;
use grt_ml::reference::{test_input, workload_weights};
use grt_net::NetConditions;
use grt_replay::replay::Replayer;
use std::rc::Rc;

/// Integer events-per-second over a nanosecond cost: deterministic math,
/// deterministic formatting.
fn per_sec(events: u64, ns: u64) -> u64 {
    if ns == 0 {
        return 0;
    }
    events.saturating_mul(1_000_000_000) / ns
}

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let batch = match args.as_slice() {
        [] => None,
        [flag, b] if flag == "--batch" => match b.parse::<usize>() {
            Ok(b) if (2..=grt_replay::compiled::MAX_BATCH).contains(&b) => Some(b),
            _ => {
                eprintln!(
                    "replay_bench: --batch must be in 2..={}",
                    grt_replay::compiled::MAX_BATCH
                );
                return std::process::ExitCode::from(2);
            }
        },
        _ => {
            eprintln!("usage: replay_bench [--batch B]");
            eprintln!("  (emits deterministic JSON on stdout)");
            return std::process::ExitCode::from(2);
        }
    };
    let wall = std::time::Instant::now();

    let mut rows = Vec::new();
    let mut sum_events = 0u64;
    let mut sum_interp_overhead = 0u64;
    let mut sum_compiled_overhead = 0u64;
    for spec in benchmarks() {
        eprintln!("replay_bench: {}...", spec.name);
        let (s, out) = record_warm(&spec, RecorderMode::OursMDS, NetConditions::wifi());
        let key = s.recording_key();
        let mut replayer = Replayer::new(&s.client, Rc::new(grt_lint::Linter::new()));
        let input = test_input(&spec, 7);
        let weights = workload_weights(&spec);

        // One-time lowering (the cold-path cost the warm path amortizes).
        let t0 = s.clock.now();
        let compiled = replayer
            .compile_signed(&out.recording, &key)
            .expect("vetted recording compiles");
        let compile_ns = (s.clock.now() - t0).as_nanos();

        let (interp_out, _) = replayer
            .replay(&out.recording, &key, &input, &weights)
            .expect("interpreted replay succeeds");
        let interp = replayer.last_profile();

        let (compiled_out, _) = replayer
            .replay_compiled(&compiled, &input, &weights)
            .expect("compiled replay succeeds");
        let fast = replayer.last_profile();

        // The interpreted path never fuses, so this is also the in-run
        // fused-vs-unfused oracle: a fusion miscompile fails the bench.
        assert_eq!(
            interp_out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            compiled_out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "{}: compiled replay must be bit-identical to interpreted",
            spec.name
        );
        // Fusion elides whole dialog windows from the compiled walk: it
        // may execute strictly fewer ops than the interpreted path has
        // events, never more.
        assert!(
            fast.events <= interp.events,
            "{}: compiled executed {} ops vs {} interpreted events",
            spec.name,
            fast.events,
            interp.events
        );
        // Software-TLB regression gate: warm replays must be hit-dominated.
        // Before ranged AS_LOCKADDR invalidation the per-job FLUSH_MEM
        // full-flushed the TLB and inverted this ratio (~3x more misses
        // than hits on ResNet12); keep it from regressing.
        // The pre-ranged-invalidation regression this guards against
        // (per-job FLUSH_MEM full-flushing the TLB) showed ~3x more
        // misses than hits and a full flush per job. Fusion elides the
        // staging copies, which were the most hit-heavy accesses, so
        // strict hit-domination no longer holds on every net; misses
        // outnumbering hits 2:1 — or full flushes scaling with job count
        // — still marks the regression.
        assert!(
            2 * fast.exec.tlb.hits > fast.exec.tlb.misses,
            "{}: software TLB miss-dominated on warm replay \
             (got {} hits / {} misses)",
            spec.name,
            fast.exec.tlb.hits,
            fast.exec.tlb.misses
        );
        assert!(
            fast.exec.tlb.flushes < 20,
            "{}: {} full TLB flushes on one warm replay",
            spec.name,
            fast.exec.tlb.flushes
        );

        // Optional B-way batched replay: one compiled-arena pass serving
        // B inputs. Lane 0 reuses the scalar input so the batch has an
        // in-run oracle; the other lanes get fresh randomized inputs.
        let batched_json = batch.map(|b| {
            let mut inputs: Vec<Vec<f32>> = Vec::with_capacity(b);
            inputs.push(input.clone());
            for lane in 1..b {
                inputs.push(test_input(&spec, 7000 + lane as u64));
            }
            let (outs, batch_total) = replayer
                .replay_compiled_batch(&compiled, &inputs, &weights)
                .expect("batched replay succeeds");
            assert_eq!(
                compiled_out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                outs[0].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{}: batched lane 0 must be bit-identical to the scalar warm replay",
                spec.name
            );
            let total_ns = batch_total.as_nanos();
            let per_inference = total_ns / b as u64;
            format!(
                concat!(
                    "\"batched\": {{\"batch\": {}, \"total_ns\": {}, ",
                    "\"ns_per_inference\": {}, \"warm_inferences_per_sec\": {:.3}, ",
                    "\"speedup_vs_scalar\": {:.3}}}, "
                ),
                b,
                total_ns,
                per_inference,
                b as f64 * 1e9 / total_ns as f64,
                b as f64 * fast.total.as_nanos() as f64 / total_ns as f64,
            )
        });

        let interp_overhead = interp.overhead.as_nanos();
        let fast_overhead = fast.overhead.as_nanos();
        sum_events += interp.events;
        sum_interp_overhead += interp_overhead;
        sum_compiled_overhead += fast_overhead;

        // Record-side memsync traffic of the measured run (dirty-page
        // skip counters land here).
        let dumped = s.stats.get("sync.down_regions_dumped");
        let skipped = s.stats.get("sync.down_regions_clean_skipped");
        let down_bytes = s.stats.get("sync.down_meta_bytes") + s.stats.get("sync.down_data_bytes");
        let up_bytes = s.stats.get("sync.up_meta_bytes") + s.stats.get("sync.up_data_bytes");

        // Execution fast-path counters from the warm (compiled) replay:
        // software-TLB effectiveness and where the GPU's modeled time went,
        // by op kind. Kinds the network never issued are omitted.
        let ops_json = grt_gpu::OpKind::ALL
            .iter()
            .map(|k| (k, fast.exec.per_kind[k.index()]))
            .filter(|(_, st)| st.events > 0)
            .map(|(k, st)| {
                format!(
                    "{{\"kind\": \"{}\", \"events\": {}, \"macs\": {}, \"ns\": {}, \"macs_per_sec\": {}}}",
                    k.name(),
                    st.events,
                    st.macs,
                    st.ns,
                    per_sec(st.macs, st.ns),
                )
            })
            .collect::<Vec<_>>()
            .join(", ");

        // What superinstruction fusion removed from the warm walk
        // (DESIGN.md §15); all zero when nothing fused.
        let fu = fast.fusion;
        let fusion_json = format!(
            concat!(
                "{{\"chains_fused\": {}, \"instrs_eliminated\": {}, ",
                "\"instrs_fused\": {}, \"copies_elided\": {}, ",
                "\"jobs_elided\": {}, \"steps_elided\": {}, ",
                "\"bytes_not_materialized\": {}}}"
            ),
            fu.chains_fused,
            fu.instrs_eliminated(),
            fu.instrs_fused,
            fu.copies_elided,
            fu.jobs_elided,
            fu.steps_elided,
            fu.bytes_not_materialized,
        );

        rows.push(format!(
            concat!(
                "{{\"workload\": \"{}\", \"events\": {}, \"compiled_ops\": {}, ",
                "\"delta_wire_bytes\": {}, ",
                "\"compile_ns\": {}, ",
                "\"interpreted\": {{\"overhead_ns\": {}, \"total_ns\": {}, \"events_per_sec\": {}}}, ",
                "\"compiled\": {{\"overhead_ns\": {}, \"total_ns\": {}, \"events_per_sec\": {}}}, ",
                "\"cold_replay_ns\": {}, \"warm_replay_ns\": {}, \"warm_replays_per_sec\": {:.3}, ",
                "{}",
                "\"overhead_speedup\": {:.3}, ",
                "\"fusion\": {}, ",
                "\"tlb\": {{\"hits\": {}, \"misses\": {}, \"flushes\": {}}}, ",
                "\"ops\": [{}], ",
                "\"sync\": {{\"down_regions_dumped\": {}, \"down_regions_clean_skipped\": {}, ",
                "\"down_bytes\": {}, \"up_bytes\": {}}}}}"
            ),
            spec.name,
            interp.events,
            fast.events,
            interp.delta_wire_bytes,
            compile_ns,
            interp_overhead,
            interp.total.as_nanos(),
            per_sec(interp.events, interp_overhead),
            fast_overhead,
            fast.total.as_nanos(),
            per_sec(fast.events, fast_overhead),
            compile_ns + fast.total.as_nanos(),
            fast.total.as_nanos(),
            1e9 / fast.total.as_nanos() as f64,
            batched_json.unwrap_or_default(),
            interp_overhead as f64 / fast_overhead as f64,
            fusion_json,
            fast.exec.tlb.hits,
            fast.exec.tlb.misses,
            fast.exec.tlb.flushes,
            ops_json,
            dumped,
            skipped,
            down_bytes,
            up_bytes,
        ));
    }

    let interp_eps = per_sec(sum_events, sum_interp_overhead);
    let compiled_eps = per_sec(sum_events, sum_compiled_overhead);
    let speedup = sum_interp_overhead as f64 / sum_compiled_overhead as f64;
    assert!(
        speedup >= 1.5,
        "compiled replay must be >= 1.5x events/s over interpreted (got {speedup:.3})"
    );

    println!("{{");
    println!("\"networks\": [");
    println!("{}", rows.join(",\n"));
    println!("],");
    println!(
        "\"aggregate\": {{\"events\": {sum_events}, \
         \"interpreted_events_per_sec\": {interp_eps}, \
         \"compiled_events_per_sec\": {compiled_eps}, \
         \"overhead_speedup\": {speedup:.3}}}"
    );
    println!("}}");

    eprintln!(
        "replay_bench: {} events total, interpreted {} ev/s, compiled {} ev/s ({:.2}x), {:.1}s wall",
        sum_events,
        interp_eps,
        compiled_eps,
        speedup,
        wall.elapsed().as_secs_f64()
    );
    std::process::ExitCode::SUCCESS
}
