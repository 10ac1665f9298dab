//! Execution fast-path pinning: the TLB + page-run + blocked-kernel engine
//! must be bit-identical to the reference scalar kernels on every geometry
//! the model zoo uses (plus randomized ones), and TLB invalidation must
//! make page-table rewrites — whether by the driver, memsync's sync-down,
//! or a rollback restore — immediately visible to the next job.

use grt_gpu::mem::Accessor;
use grt_gpu::mmu::{map_page, Tlb, Walker};
use grt_gpu::regs::{gpu_control as gc, job_control as jc, mmu_control as mc};
use grt_gpu::shader::{execute_program, reference, ExecScratch};
use grt_gpu::{
    ConvParams, Gpu, GpuSku, IrqLine, JobDescriptor, JobStatus, Memory, PoolKind, ShaderOp,
    PAGE_SIZE,
};
use grt_sim::{Clock, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

mod support;

/// Deterministic pseudo-random f32 stream in roughly [-2, 2).
fn lcg(seed: u64) -> impl FnMut() -> f32 {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 40) as f32 / (1 << 22) as f32) - 2.0
    }
}

fn fill(n: usize, rng: &mut impl FnMut() -> f32) -> Vec<f32> {
    (0..n).map(|_| rng()).collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

const TILES: u32 = 8;

/// A walker/TLB rig over identity-mapped memory — the shader engine
/// without the device around it.
struct KernelRig {
    mem: Memory,
    walker: Walker,
    tlb: Tlb,
    scratch: ExecScratch,
}

const ARENA: u64 = 0x10_0000; // 1 MiB VA==PA arena start.
const ARENA_PAGES: u64 = 1024; // 4 MiB.
const IN_VA: u64 = ARENA;
const W_VA: u64 = ARENA + (1 << 20);
const B_VA: u64 = ARENA + (2 << 20);
const OUT_VA: u64 = ARENA + (3 << 20);
const SHADER_VA: u64 = ARENA + (3 << 20) + (1 << 19);

impl KernelRig {
    fn new() -> KernelRig {
        let mut mem = Memory::new(32 << 20);
        let root = 16 << 20;
        let mut next = root + PAGE_SIZE as u64;
        let mut alloc = || {
            let pa = next;
            next += PAGE_SIZE as u64;
            pa
        };
        for i in 0..ARENA_PAGES {
            let addr = ARENA + i * PAGE_SIZE as u64;
            map_page(
                &mut mem,
                root,
                addr,
                addr,
                grt_gpu::PteFlags::rwx(),
                0,
                &mut alloc,
            )
            .unwrap();
        }
        KernelRig {
            mem,
            walker: Walker {
                root_pa: root,
                quirk: 0,
                asn: 0,
            },
            tlb: Tlb::new(),
            scratch: ExecScratch::default(),
        }
    }

    fn write_f32s(&mut self, va: u64, vals: &[f32]) {
        let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.mem.write(va, &bytes, Accessor::Cpu).unwrap();
    }

    fn read_f32s(&self, va: u64, n: usize) -> Vec<f32> {
        self.mem
            .dump_range(va, n * 4)
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect()
    }

    /// Runs a one-op program through the fast-path engine, exactly as a
    /// job would: fresh TLB (descriptor-boundary flush), bulk fetch,
    /// blocked kernels.
    fn exec(&mut self, op: &ShaderOp) {
        self.tlb.invalidate_all();
        self.mem
            .write(SHADER_VA, &op.encode(), Accessor::Cpu)
            .unwrap();
        execute_program(
            &mut self.mem,
            &self.walker,
            &mut self.tlb,
            &mut self.scratch,
            SHADER_VA,
            1,
            TILES,
            None,
        )
        .unwrap();
    }
}

/// Runs a conv through the engine and bit-compares to the scalar oracle.
fn check_conv(r: &mut KernelRig, p: &ConvParams, rng: &mut impl FnMut() -> f32) {
    let input = fill((p.in_c * p.in_h * p.in_w) as usize, rng);
    let weights = fill((p.out_c * p.in_c * p.k * p.k) as usize, rng);
    let bias = fill(p.out_c as usize, rng);
    r.write_f32s(IN_VA, &input);
    r.write_f32s(W_VA, &weights);
    r.write_f32s(B_VA, &bias);
    r.exec(&ShaderOp::Conv2d {
        in_va: IN_VA,
        w_va: W_VA,
        b_va: B_VA,
        out_va: OUT_VA,
        p: *p,
        tiles: TILES,
    });
    let want = reference::conv2d(&input, &weights, &bias, p);
    let got = r.read_f32s(OUT_VA, want.len());
    assert_eq!(bits(&got), bits(&want), "conv {p:?}");
}

fn check_matmul(
    r: &mut KernelRig,
    (m, k, n): (usize, usize, usize),
    with_bias: bool,
    rng: &mut impl FnMut() -> f32,
) {
    let a = fill(m * k, rng);
    let b = fill(k * n, rng);
    let bias = if with_bias {
        fill(n, rng)
    } else {
        vec![0.0; n]
    };
    r.write_f32s(IN_VA, &a);
    r.write_f32s(W_VA, &b);
    r.write_f32s(B_VA, &bias);
    r.exec(&ShaderOp::MatMul {
        a_va: IN_VA,
        b_va: W_VA,
        bias_va: if with_bias { B_VA } else { 0 },
        out_va: OUT_VA,
        m: m as u32,
        k: k as u32,
        n: n as u32,
        tiles: TILES,
    });
    let want = reference::matmul(&a, &b, &bias, m, k, n);
    let got = r.read_f32s(OUT_VA, want.len());
    assert_eq!(
        bits(&got),
        bits(&want),
        "matmul {m}x{k}x{n} bias={with_bias}"
    );
}

fn check_pool(
    r: &mut KernelRig,
    kind: PoolKind,
    (c, h, w, k, stride): (usize, usize, usize, usize, usize),
    rng: &mut impl FnMut() -> f32,
) {
    let input = fill(c * h * w, rng);
    r.write_f32s(IN_VA, &input);
    r.exec(&ShaderOp::Pool {
        in_va: IN_VA,
        out_va: OUT_VA,
        kind,
        c: c as u32,
        h: h as u32,
        w: w as u32,
        k: k as u32,
        stride: stride as u32,
    });
    let want = reference::pool(&input, kind, c, h, w, k, stride);
    let got = r.read_f32s(OUT_VA, want.len());
    assert_eq!(
        bits(&got),
        bits(&want),
        "pool {kind:?} {c}x{h}x{w} k{k} s{stride}"
    );
}

fn check_elementwise(r: &mut KernelRig, len: usize, rng: &mut impl FnMut() -> f32) {
    let x = fill(len, rng);
    let y = fill(len, rng);
    r.write_f32s(IN_VA, &x);
    r.write_f32s(W_VA, &y);
    r.exec(&ShaderOp::Relu {
        in_va: IN_VA,
        out_va: OUT_VA,
        len: len as u32,
    });
    assert_eq!(
        bits(&r.read_f32s(OUT_VA, len)),
        bits(&reference::relu(&x)),
        "relu len {len}"
    );
    r.exec(&ShaderOp::Add {
        a_va: IN_VA,
        b_va: W_VA,
        out_va: OUT_VA,
        len: len as u32,
    });
    assert_eq!(
        bits(&r.read_f32s(OUT_VA, len)),
        bits(&reference::add(&x, &y)),
        "add len {len}"
    );
    r.exec(&ShaderOp::Softmax {
        in_va: IN_VA,
        out_va: OUT_VA,
        len: len as u32,
    });
    assert_eq!(
        bits(&r.read_f32s(OUT_VA, len)),
        bits(&reference::softmax(&x)),
        "softmax len {len}"
    );
}

/// Every layer geometry in all six zoo networks, executed through the
/// fast path and bit-compared against the scalar reference kernels.
#[test]
fn fast_kernels_bit_identical_across_zoo_layer_geometries() {
    let mut r = KernelRig::new();
    for spec in grt_ml::zoo::all_benchmarks() {
        let mut rng = lcg(spec.layers.len() as u64 + spec.name.len() as u64);
        for layer in &spec.layers {
            match &layer.op {
                grt_ml::LayerOp::Conv { p, relu } => {
                    check_conv(&mut r, p, &mut rng);
                    if *relu {
                        let out_len = (p.out_c * p.out_h() * p.out_w()) as usize;
                        check_elementwise(&mut r, out_len.clamp(1, 4096), &mut rng);
                    }
                }
                grt_ml::LayerOp::Fc {
                    in_dim, out_dim, ..
                } => {
                    check_matmul(
                        &mut r,
                        (1, *in_dim as usize, *out_dim as usize),
                        true,
                        &mut rng,
                    );
                }
                grt_ml::LayerOp::Pool {
                    kind,
                    c,
                    h,
                    w,
                    k,
                    stride,
                } => {
                    check_pool(
                        &mut r,
                        *kind,
                        (
                            *c as usize,
                            *h as usize,
                            *w as usize,
                            *k as usize,
                            *stride as usize,
                        ),
                        &mut rng,
                    );
                }
                grt_ml::LayerOp::Add { len } => {
                    check_elementwise(&mut r, (*len as usize).min(8192), &mut rng);
                }
                grt_ml::LayerOp::Softmax { len } => {
                    check_elementwise(&mut r, *len as usize, &mut rng);
                }
            }
        }
    }
}

/// Randomized shapes, strides, and paddings beyond what the zoo uses.
#[test]
fn fast_kernels_bit_identical_on_randomized_geometries() {
    let mut r = KernelRig::new();
    let mut rng = lcg(0xFA57_FA57);
    let mut istate: u64 = 0xD1CE_D1CE;
    let mut pick = move |lo: usize, hi: usize| {
        istate = istate
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        lo + (istate >> 33) as usize % (hi - lo + 1)
    };
    for case in 0..24 {
        let k = pick(1, 5);
        let p = ConvParams {
            in_c: pick(1, 4) as u32,
            in_h: pick(k, k + 9) as u32,
            in_w: pick(k, k + 9) as u32,
            out_c: pick(1, 5) as u32,
            k: k as u32,
            stride: pick(1, 3) as u32,
            pad: pick(0, 2) as u32,
        };
        check_conv(&mut r, &p, &mut rng);
        check_matmul(
            &mut r,
            (pick(1, 9), pick(1, 40), pick(1, 17)),
            case % 2 == 0,
            &mut rng,
        );
        let pk = pick(1, 3);
        let ph = pick(pk, pk + 6);
        let pw = pick(pk, pk + 6);
        let kind = if case % 2 == 0 {
            PoolKind::Max
        } else {
            PoolKind::Avg
        };
        check_pool(
            &mut r,
            kind,
            (pick(1, 3), ph, pw, pk, pick(1, pk)),
            &mut rng,
        );
        check_elementwise(&mut r, pick(1, 300), &mut rng);
    }
}

/// A full device with one mapped arena, for TLB-coherence tests that
/// exercise the real job path (descriptor fetch, AS latching, IRQs).
struct DeviceRig {
    clock: Rc<Clock>,
    mem: Rc<RefCell<Memory>>,
    gpu: Gpu,
    root: u64,
    next_table: u64,
}

const DESC_VA: u64 = 0x10000;
const PROG_VA: u64 = 0x11000;
const SRC_VA: u64 = 0x12000;
const DST_VA: u64 = 0x13000;
const PA_A: u64 = 0x40000;
const PA_B: u64 = 0x41000;

impl DeviceRig {
    fn new() -> DeviceRig {
        let clock = Clock::new();
        let mem = Rc::new(RefCell::new(Memory::new(4 << 20)));
        let gpu = Gpu::new(GpuSku::mali_g71_mp8(), &clock, &mem);
        let mut r = DeviceRig {
            clock,
            mem,
            gpu,
            root: 1 << 20,
            next_table: (1 << 20) + PAGE_SIZE as u64,
        };
        {
            let mut m = r.mem.borrow_mut();
            let root = r.root;
            let next = &mut r.next_table;
            let mut alloc = || {
                let pa = *next;
                *next += PAGE_SIZE as u64;
                pa
            };
            // Identity-map descriptor, program, and dst pages; map SRC_VA
            // to PA_A initially.
            for va in [DESC_VA, PROG_VA, DST_VA] {
                map_page(
                    &mut m,
                    root,
                    va,
                    va,
                    grt_gpu::PteFlags::rwx(),
                    0,
                    &mut alloc,
                )
                .unwrap();
            }
            map_page(
                &mut m,
                root,
                SRC_VA,
                PA_A,
                grt_gpu::PteFlags::rwx(),
                0,
                &mut alloc,
            )
            .unwrap();
            // Program: copy 4 floats SRC -> DST.
            let prog = ShaderOp::Copy {
                src_va: SRC_VA,
                dst_va: DST_VA,
                len: 4,
            }
            .encode();
            m.write(PROG_VA, &prog, Accessor::Cpu).unwrap();
            let desc = JobDescriptor {
                shader_va: PROG_VA,
                n_instrs: 1,
                cost_us: 100,
                next_va: 0,
                status: JobStatus::Pending,
            };
            m.write(DESC_VA, &desc.encode(), Accessor::Cpu).unwrap();
            // Distinct payloads in the two physical pages.
            for (pa, base) in [(PA_A, 1.0f32), (PA_B, 9.0f32)] {
                let bytes: Vec<u8> = (0..4)
                    .flat_map(|i| (base + i as f32).to_le_bytes())
                    .collect();
                m.write(pa, &bytes, Accessor::Cpu).unwrap();
            }
        }
        // Latch AS 0 and power up.
        r.gpu
            .write_reg(mc::as_base(0) + mc::AS_TRANSTAB_LO, r.root as u32);
        r.gpu
            .write_reg(mc::as_base(0) + mc::AS_TRANSTAB_HI, (r.root >> 32) as u32);
        r.gpu
            .write_reg(mc::as_base(0) + mc::AS_COMMAND, mc::AS_CMD_UPDATE);
        r.gpu.write_reg(gc::L2_PWRON_LO, 0x3);
        r.gpu.write_reg(gc::SHADER_PWRON_LO, 0xFF);
        r.gpu.write_reg(gc::TILER_PWRON_LO, 0x1);
        r.clock.advance(SimTime::from_millis(1));
        r
    }

    /// Submits the prepared job and waits for completion; returns the four
    /// copied floats.
    fn run_job(&mut self) -> Vec<f32> {
        self.gpu.write_reg(jc::JOB_IRQ_MASK, !0);
        self.gpu
            .write_reg(jc::slot_base(0) + jc::JS_HEAD_LO, DESC_VA as u32);
        self.gpu.write_reg(jc::slot_base(0) + jc::JS_HEAD_HI, 0);
        self.gpu.write_reg(jc::slot_base(0) + jc::JS_CONFIG, 0);
        self.gpu
            .write_reg(jc::slot_base(0) + jc::JS_COMMAND, jc::JS_CMD_START);
        let at = self.gpu.next_irq_at(IrqLine::Job).expect("job completes");
        self.clock.advance_to(at);
        assert_eq!(
            self.gpu.read_reg(jc::slot_base(0) + jc::JS_STATUS),
            jc::JS_STATUS_DONE
        );
        self.gpu.write_reg(jc::JOB_IRQ_CLEAR, !0);
        let m = self.mem.borrow();
        m.dump_range(DST_VA, 16)
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect()
    }

    /// Remaps SRC_VA's leaf PTE to `pa` by rewriting the page tables in
    /// shared memory (what the driver, memsync, and rollback all do).
    fn remap_src(&mut self, pa: u64) {
        let mut m = self.mem.borrow_mut();
        let root = self.root;
        let next = &mut self.next_table;
        let mut alloc = || {
            let pa = *next;
            *next += PAGE_SIZE as u64;
            pa
        };
        map_page(
            &mut m,
            root,
            SRC_VA,
            pa,
            grt_gpu::PteFlags::rwx(),
            0,
            &mut alloc,
        )
        .unwrap();
    }
}

/// Static layer-name pool for randomized specs (`LayerSpec::name` is
/// `&'static str`).
const RAND_LAYER_NAMES: [&str; 12] = [
    "rl0", "rl1", "rl2", "rl3", "rl4", "rl5", "rl6", "rl7", "rl8", "rl9", "rl10", "rl11",
];

/// Builds a random but shape-consistent network: a conv/pool chain over a
/// square feature map, flattened into an FC head and a softmax. Every
/// layer's input length equals the previous layer's output length, so the
/// recorder, the lifter, and both replay paths all see a well-formed
/// workload — the randomness is in geometry, splits, and setup jobs.
fn random_spec(seed: u64) -> grt_ml::NetworkSpec {
    use grt_ml::{LayerOp, LayerSpec, NetworkSpec};
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut pick = move |lo: u32, hi: u32| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        lo + (state >> 33) as u32 % (hi - lo + 1)
    };
    let mut c = pick(1, 3);
    let mut h = pick(8, 14);
    let input_len = c * h * h;
    let mut layers = Vec::new();
    let name = |layers: &Vec<LayerSpec>| RAND_LAYER_NAMES[layers.len()];
    for _ in 0..pick(1, 3) {
        let k = pick(1, 3).min(h);
        let pad = pick(0, 1);
        let out_c = pick(1, 6);
        let p = ConvParams {
            in_c: c,
            in_h: h,
            in_w: h,
            out_c,
            k,
            stride: 1,
            pad,
        };
        let op = LayerOp::Conv {
            p,
            relu: pick(0, 1) == 1,
        };
        let macs = op.actual_macs();
        layers.push(LayerSpec {
            name: name(&layers),
            op,
            splits: pick(1, 3),
            setup_jobs: pick(0, 2),
            nominal_macs: macs * 50,
            nominal_data_bytes: 10_000,
            save_skip: false,
        });
        c = out_c;
        h = p.out_h();
        if h >= 2 && pick(0, 1) == 1 {
            let kind = if pick(0, 1) == 1 {
                PoolKind::Max
            } else {
                PoolKind::Avg
            };
            let op = LayerOp::Pool {
                kind,
                c,
                h,
                w: h,
                k: 2,
                stride: 2,
            };
            let macs = op.actual_macs();
            layers.push(LayerSpec {
                name: name(&layers),
                op,
                splits: 1,
                setup_jobs: pick(0, 1),
                nominal_macs: macs * 50,
                nominal_data_bytes: 10_000,
                save_skip: false,
            });
            h = (h - 2) / 2 + 1;
        }
    }
    let out_dim = pick(2, 10);
    let fc = LayerOp::Fc {
        in_dim: c * h * h,
        out_dim,
        relu: pick(0, 1) == 1,
    };
    let fc_macs = fc.actual_macs();
    layers.push(LayerSpec {
        name: name(&layers),
        op: fc,
        splits: pick(1, 2),
        setup_jobs: pick(0, 1),
        nominal_macs: fc_macs * 50,
        nominal_data_bytes: 10_000,
        save_skip: false,
    });
    layers.push(LayerSpec {
        name: name(&layers),
        op: LayerOp::Softmax { len: out_dim },
        splits: 1,
        setup_jobs: 0,
        nominal_macs: out_dim as u64 * 4,
        nominal_data_bytes: 1_000,
        save_skip: false,
    });
    NetworkSpec {
        name: "RandomNet",
        input_len,
        output_len: out_dim,
        layers,
    }
}

/// Property: lowering a recording through the semantics IR
/// (`lift_recording` → `lower`) yields a `CompiledRecording` whose replay
/// is bit-identical to interpreting the recording event by event with the
/// test-only oracle — on every zoo network and on randomized
/// shape-consistent networks the zoo never exercises. This pins the
/// invariant that the IR is a faithful semantics carrier: the same lift
/// that grt-lint proves R1–R9 over is the one the executor runs.
#[test]
fn ir_lowered_compiled_replay_bit_identical_to_interpreted() {
    use grt_core::session::{RecordSession, RecorderMode};
    use grt_ml::reference::{test_input, workload_weights};
    use grt_replay::replay::Replayer;

    let mut specs = grt_ml::zoo::all_benchmarks();
    for i in 0..6u64 {
        specs.push(random_spec(0x1A5C_0FFE ^ (i * 0x9E37)));
    }
    for (i, spec) in specs.iter().enumerate() {
        let sku = GpuSku::mali_g71_mp8();
        let quirk = sku.pte_quirk;
        let mut s = RecordSession::new(sku, grt_net::NetConditions::wifi(), RecorderMode::OursMDS);
        let out = s.record(spec).expect("record");
        let key = s.recording_key();
        let rec = out
            .recording
            .verify_and_parse(&key)
            .expect("recording verifies");
        // The explicit path: lift once, lower the lift.
        let ir = grt_ir::lift_recording(&rec, quirk);
        let digest = grt_crypto::Sha256::digest(&out.recording.bytes);
        let compiled =
            grt_replay::compiled::lower(ir, digest, true).expect("well-formed recording lowers");
        let weights = workload_weights(spec);
        let mut replayer = Replayer::new(&s.client, Rc::new(grt_lint::Linter::new()));
        for round in 0..3u64 {
            let input = test_input(spec, (i as u64) << 8 | round);
            let interp = support::interpret(&s.client, &out.recording, &key, &input, &weights)
                .expect("interpreted replay");
            let (fast, _) = replayer
                .replay_compiled(&compiled, &input, &weights)
                .expect("compiled replay");
            assert_eq!(
                bits(&interp.output),
                bits(&fast),
                "{} (case {i}, round {round}): IR-lowered replay diverged",
                spec.name
            );
        }
    }
}

/// Warm compiled replay of MNIST agrees with the event interpreter on
/// output bits and on the digests its receipt binds, runs no more ops than
/// the interpreter has events, and decompresses no delta.
#[test]
fn compiled_replay_matches_interpreted_bit_for_bit() {
    use grt_core::session::{RecordSession, RecorderMode};
    use grt_ml::reference::{test_input, workload_weights};
    use grt_replay::replay::Replayer;

    let spec = grt_ml::zoo::mnist();
    let mut s = RecordSession::new(
        GpuSku::mali_g71_mp8(),
        grt_net::NetConditions::wifi(),
        RecorderMode::OursMDS,
    );
    let out = s.record(&spec).expect("record");
    let key = s.recording_key();
    let mut replayer = Replayer::new(&s.client, Rc::new(grt_ir::gate::PermissiveGate));
    let weights = workload_weights(&spec);
    let compiled = replayer.compile_signed(&out.recording, &key).unwrap();
    for variant in [3, 7] {
        let input = test_input(&spec, variant);
        let interp = support::interpret(&s.client, &out.recording, &key, &input, &weights)
            .expect("interpreted replay");
        let (fast, _) = replayer
            .replay_compiled(&compiled, &input, &weights)
            .unwrap();
        let fast_profile = replayer.last_profile();
        assert_eq!(bits(&interp.output), bits(&fast), "variant {variant}");
        let receipt = replayer.last_receipt().unwrap();
        assert_eq!(receipt.recording_digest, interp.receipt.recording_digest);
        assert_eq!(receipt.input_digest, interp.receipt.input_digest);
        assert_eq!(receipt.output_digest, interp.receipt.output_digest);
        // Fusion elides whole dialog windows from the compiled walk, so
        // it may execute strictly fewer ops than the recording has
        // events — never more.
        assert!(fast_profile.events <= interp.profile.events);
        assert_eq!(fast_profile.delta_wire_bytes, 0);
    }
}

/// A page-table rewrite between two jobs is visible to the second job
/// even without an AS command: the descriptor-boundary TLB flush forbids
/// stale translations from the first job's walk.
#[test]
fn page_table_rewrite_between_jobs_is_visible() {
    let mut r = DeviceRig::new();
    assert_eq!(r.run_job(), vec![1.0, 2.0, 3.0, 4.0]);
    r.remap_src(PA_B);
    assert_eq!(r.run_job(), vec![9.0, 10.0, 11.0, 12.0]);
}

/// The same rewrite followed by the driver's AS_CMD_UPDATE (the path
/// memsync's sync-down takes after restoring table pages): the explicit
/// TLB-maintenance hook also invalidates, and the flush counter moves.
#[test]
fn as_command_invalidates_cached_translations() {
    let mut r = DeviceRig::new();
    assert_eq!(r.run_job(), vec![1.0, 2.0, 3.0, 4.0]);
    r.remap_src(PA_B);
    let flushes_before = r.gpu.exec_stats().tlb.flushes;
    r.gpu
        .write_reg(mc::as_base(0) + mc::AS_COMMAND, mc::AS_CMD_UPDATE);
    assert!(r.gpu.exec_stats().tlb.flushes > flushes_before);
    assert_eq!(r.run_job(), vec![9.0, 10.0, 11.0, 12.0]);
}

/// Models memsync's sync-down: bulk-restore previously captured memory
/// (page tables included) underneath the GPU between jobs, then run. The
/// job must translate through the restored tables, not cached entries.
#[test]
fn memsync_style_restore_cannot_leave_stale_translations() {
    let mut r = DeviceRig::new();
    // Snapshot the world while SRC_VA -> PA_A.
    let snapshot = r.mem.borrow().dump_range(0, 4 << 20);
    assert_eq!(r.run_job(), vec![1.0, 2.0, 3.0, 4.0]);
    // Diverge: remap to PA_B and run, warming the TLB on the new tables.
    r.remap_src(PA_B);
    assert_eq!(r.run_job(), vec![9.0, 10.0, 11.0, 12.0]);
    // Sync-down: restore the snapshot wholesale (tables revert to PA_A).
    r.mem.borrow_mut().restore_range(0, &snapshot);
    assert_eq!(r.run_job(), vec![1.0, 2.0, 3.0, 4.0]);
}

/// Models drivershim's rollback: restore a `(memory, Gpu)` checkpoint —
/// the cloned Gpu carries whatever TLB state it had — and re-run. The
/// replayed job must be bit-identical to the original run.
#[test]
fn rollback_style_gpu_restore_replays_bit_identical() {
    let mut r = DeviceRig::new();
    let ckpt_mem = r.mem.borrow().dump_range(0, 4 << 20);
    let ckpt_gpu = r.gpu.clone();
    let first = r.run_job();
    assert_eq!(first, vec![1.0, 2.0, 3.0, 4.0]);
    // The failed attempt rewrites mappings and runs again.
    r.remap_src(PA_B);
    assert_eq!(r.run_job(), vec![9.0, 10.0, 11.0, 12.0]);
    // Rollback both parties, exactly as ShimCheckpoint restore does.
    r.mem.borrow_mut().restore_range(0, &ckpt_mem);
    r.gpu = ckpt_gpu;
    let retried = r.run_job();
    assert_eq!(bits(&retried), bits(&first));
}
