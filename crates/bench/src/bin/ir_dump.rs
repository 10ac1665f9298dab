//! ir-dump: print the typed semantics IR of `.grt` recording files.
//!
//! The CLI front-end for the `grt-ir` lifter. Each file is verified
//! against the fleet trust root, its SKU is resolved from the recording
//! header (the lift must walk page tables with that GPU's PTE decode
//! quirk), and the lifted program — typed steps, decoded deltas, job
//! chains with page-resolved operand tensors, cost totals — is emitted in
//! the deterministic `ir-dump v1` textual format. Two runs over the same
//! file produce byte-identical output; `scripts/ci.sh` pins that.
//!
//! Usage:
//!
//! ```text
//! ir-dump <file.grt>...
//! ```

use grt_bench::signed_from_blob;
use grt_gpu::GpuSku;
use grt_ir::program::{Dir, IrProgram, Operand, RegClass, Step};
use grt_replay::client::recording_trust_root;
use std::fmt::Write as _;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: ir-dump <file.grt>...");
        return ExitCode::FAILURE;
    }
    let key = recording_trust_root();
    let mut failed = false;
    for path in &args {
        let blob = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("ir-dump: cannot read {path}: {e}");
                failed = true;
                continue;
            }
        };
        let Some(signed) = signed_from_blob(&blob) else {
            eprintln!("ir-dump: {path}: too short to be a recording");
            failed = true;
            continue;
        };
        let Some(rec) = signed.verify_and_parse(&key) else {
            eprintln!("ir-dump: {path}: signature/format verification failed");
            failed = true;
            continue;
        };
        let Some(sku) = GpuSku::by_gpu_id(rec.gpu_id) else {
            eprintln!(
                "ir-dump: {path}: unknown GPU id {:#x} in header",
                rec.gpu_id
            );
            failed = true;
            continue;
        };
        let ir = grt_ir::lift_recording(&rec, sku.pte_quirk);
        print!("{}", dump(&ir));
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Renders the program as stable, line-oriented text: a pure function of
/// the recording bytes and the lift parameters (no timestamps, no
/// addresses-of, no hash-map iteration).
fn dump(prog: &IrProgram) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "ir-dump v1");
    let _ = writeln!(s, "workload: {}", prog.workload);
    let _ = writeln!(s, "gpu_id: {:#x}", prog.gpu_id);
    let _ = writeln!(
        s,
        "input: pa={:#x} elems={}",
        prog.input.pa, prog.input.len_elems
    );
    let _ = writeln!(
        s,
        "output: pa={:#x} elems={}",
        prog.output.pa, prog.output.len_elems
    );
    for (i, w) in prog.weights.iter().enumerate() {
        let _ = writeln!(s, "weight[{i}]: pa={:#x} elems={}", w.pa, w.len_elems);
    }
    let _ = writeln!(
        s,
        "cost: macs={} poll_iters={} chains={} instrs={} layers={}",
        prog.cost.total_macs,
        prog.cost.raw_poll_iters,
        prog.cost.job_chains,
        prog.cost.instrs,
        prog.cost.layers
    );

    let _ = writeln!(s, "steps: {}", prog.steps.len());
    for (i, step) in prog.steps.iter().enumerate() {
        let _ = write!(s, "  [{i}] ");
        match *step {
            Step::BeginLayer { index } => {
                let _ = writeln!(s, "layer {index}");
            }
            Step::RegWrite {
                offset,
                value,
                class,
                root_latched,
            } => {
                let _ = write!(s, "wr {offset:#06x} <- {value:#010x} {}", class_tag(class));
                if let Some(root) = root_latched {
                    let _ = write!(s, " latch-root={root:#x}");
                }
                let _ = writeln!(s);
            }
            Step::RegRead {
                offset,
                value,
                verify,
            } => {
                let _ = writeln!(
                    s,
                    "rd {offset:#06x} == {value:#010x}{}",
                    if verify { " verify" } else { "" }
                );
            }
            Step::Poll {
                reg,
                mask,
                cond,
                cmp,
                max_iters,
                delay_us,
            } => {
                let _ = writeln!(
                    s,
                    "poll {reg:#06x} mask={mask:#010x} cond={cond} cmp={cmp:#x} iters={max_iters} delay={delay_us}us"
                );
            }
            Step::WaitIrq { line } => {
                let _ = writeln!(s, "irq line={line}");
            }
            Step::LoadDelta { index } => {
                let _ = writeln!(s, "delta #{index}");
            }
        }
    }

    let _ = writeln!(s, "deltas: {}", prog.deltas.len());
    for (i, d) in prog.deltas.iter().enumerate() {
        let _ = write!(
            s,
            "  [{i}] @{} pa={:#x} len={} wire={}",
            d.event, d.pa, d.len, d.wire_len
        );
        match &d.parsed {
            Some(p) => {
                let _ = writeln!(
                    s,
                    " pages={} changed={} ok",
                    p.pages().len(),
                    p.changed_bytes()
                );
            }
            None => {
                let _ = writeln!(s, " corrupt");
            }
        }
    }

    let _ = writeln!(s, "chains: {}", prog.jobs.len());
    for (ci, chain) in prog.jobs.iter().enumerate() {
        let _ = writeln!(
            s,
            "  chain[{ci}] @{} slot={} asn={} head={:#x} root={:#x} leaves={} tables={}{}{}",
            chain.event,
            chain.slot,
            chain.asn,
            chain.head_va,
            chain.root,
            chain.walk.leaves.len(),
            chain.walk.tables.len(),
            if chain.walk.truncated {
                " truncated"
            } else {
                ""
            },
            if chain.walk_fresh { " fresh-walk" } else { "" },
        );
        for a in &chain.anomalies {
            let _ = writeln!(s, "    anomaly: {a}");
        }
        for (di, desc) in chain.descs.iter().enumerate() {
            let _ = writeln!(
                s,
                "    desc[{di}] @va={:#x} shader={:#x} n_instrs={} cost_us={} next={:#x}",
                desc.va,
                desc.desc.shader_va,
                desc.desc.n_instrs,
                desc.desc.cost_us,
                desc.desc.next_va
            );
            for a in &desc.anomalies {
                let _ = writeln!(s, "      anomaly: {a}");
            }
            for (ii, instr) in desc.instrs.iter().enumerate() {
                let _ = write!(s, "      [{ii}] {} macs={}", instr.kind.name(), instr.macs);
                for opnd in &instr.operands {
                    let _ = write!(s, " {}", operand_tag(opnd));
                }
                let _ = writeln!(s);
            }
        }
    }
    s
}

fn class_tag(class: RegClass) -> String {
    match class {
        RegClass::GpuCtrl => "gpu".to_owned(),
        RegClass::JobSlot { slot, reg } => format!("js{slot}+{reg:#x}"),
        RegClass::AsWindow { asn, reg } => format!("as{asn}+{reg:#x}"),
    }
}

fn operand_tag(o: &Operand) -> String {
    let dir = match o.dir {
        Dir::Read => "r",
        Dir::Write => "w",
    };
    let mut tag = format!("{}:{dir}:va={:#x}:elems={}", o.name, o.va, o.elems);
    for (i, &(pa, len)) in o.pa_runs.iter().take(2).enumerate() {
        let _ = write!(tag, ":run{i}={pa:#x}+{len:#x}");
    }
    if o.pa_runs.len() > 2 {
        let _ = write!(tag, ":+{}runs", o.pa_runs.len() - 2);
    }
    if o.unmapped > 0 {
        let _ = write!(tag, ":unmapped={}", o.unmapped);
    }
    tag
}
