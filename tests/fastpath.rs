//! Execution fast-path pinning: the TLB + page-run + blocked-kernel engine
//! must be bit-identical to the reference scalar kernels on every geometry
//! the model zoo uses (plus randomized ones), and TLB invalidation must
//! make page-table rewrites — whether by the driver, memsync's sync-down,
//! or a rollback restore — immediately visible to the next job.

use grt_gpu::mem::Accessor;
use grt_gpu::mmu::{map_page, Tlb, Walker};
use grt_gpu::regs::{gpu_control as gc, job_control as jc, mmu_control as mc};
use grt_gpu::shader::{execute_program, ExecScratch, LANE_OC_BLOCK, OC_BLOCK};
use grt_gpu::{
    ConvParams, Gpu, GpuSku, IrqLine, JobDescriptor, JobStatus, Memory, PoolKind, ShaderOp,
    PAGE_SIZE,
};
use grt_sim::{Clock, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

mod support;

#[path = "../crates/gpu/tests/support/reference.rs"]
mod reference;

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
            &mut [&mut self.mem],
            &self.walker,
            &mut self.tlb,
            &mut self.scratch,
            SHADER_VA,
            1,
            TILES,
            None,
            |_, _, _| {},
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

// Lane rig: small VA==PA memories with one page-table layout, the way a
// batch's lanes share one. Each operand's region ends where the next one
// starts (`LANE_REGIONS`).
const LANE_IN_VA: u64 = 0x1_0000;
const LANE_W_VA: u64 = 0x3_0000;
const LANE_B_VA: u64 = 0x6_0000;
const LANE_TAIL_VA: u64 = 0x6_2000;
const LANE_OUT_VA: u64 = 0x7_0000;
const LANE_SHADER_VA: u64 = 0xA_0000;
const LANE_REGIONS: [(&str, u64, u64); 5] = [
    ("input", LANE_IN_VA, LANE_W_VA),
    ("weights", LANE_W_VA, LANE_B_VA),
    ("bias", LANE_B_VA, LANE_TAIL_VA),
    ("add operand", LANE_TAIL_VA, LANE_OUT_VA),
    ("output", LANE_OUT_VA, LANE_SHADER_VA),
];

/// A 1 MiB memory with `[0x10000, 0xB0000)` identity-mapped, to clone
/// once per lane.
fn lane_template() -> (Memory, Walker) {
    let mut mem = Memory::new(1 << 20);
    let root = 0xC_0000u64;
    let mut next = root + PAGE_SIZE as u64;
    let mut alloc = || {
        let pa = next;
        next += PAGE_SIZE as u64;
        pa
    };
    for addr in (LANE_IN_VA..0xB_0000).step_by(PAGE_SIZE) {
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
    let walker = Walker {
        root_pa: root,
        quirk: 0,
        asn: 0,
    };
    (mem, walker)
}

fn put_f32s(mem: &mut Memory, va: u64, vals: &[f32]) {
    let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
    mem.write(va, &bytes, Accessor::Cpu).unwrap();
}

fn get_f32s(mem: &Memory, va: u64, n: usize) -> Vec<f32> {
    mem.dump_range(va, n * 4)
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

/// Special values the FP rules treat apart, in two families. A case draws
/// from one family only: which of two different NaNs an operation passes
/// on is left open by the language, so a case mixing an input NaN with
/// the NaN that `inf - inf` or `0 * inf` makes has no single right answer.
const NAN_FAMILY: [f32; 4] = [
    f32::from_bits(0x7FC0_1234),
    -0.0,
    f32::from_bits(0x0010_0000),
    f32::from_bits(0x8000_0003),
];
const INF_FAMILY: [f32; 4] = [
    f32::INFINITY,
    f32::NEG_INFINITY,
    -0.0,
    f32::from_bits(0x0000_0007),
];

/// Overwrites about one element in eight with a value from `family`.
fn sprinkle(v: &mut [f32], family: &[f32], seed: u64) {
    if family.is_empty() {
        return;
    }
    let mut x = seed | 1;
    for e in v.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if x.is_multiple_of(8) {
            *e = family[(x >> 8) as usize % family.len()];
        }
    }
}

/// Each conv kernel's block edges for `out_c`: one short of a block of
/// output channels, one block, one over, and two blocks and one over.
fn block_edges() -> Vec<u32> {
    let mut edges: Vec<u32> = [OC_BLOCK, LANE_OC_BLOCK]
        .iter()
        .flat_map(|&b| [b - 1, b, b + 1, 2 * b + 1])
        .map(|c| c as u32)
        .collect();
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// Runs `cases` pinned-seed batched convs through `execute_program` and
/// checks every lane, bit for bit, against the reference conv (and its
/// fused tails) applied to that lane alone; the first lane then runs once
/// more as a job of its own, which takes the scalar kernel. Case `i`
/// takes its kernel size, stride and pad from a 12-way cycle and its tail
/// from a 5-way cycle (none, relu, add either way round, add+relu). Even
/// cases take `out_c` from a cycle over both kernels' block edges, and
/// cases 4 and 5 of every 6 an input of at most k+1 per side, where every
/// output pixel touches the border. The seed draws the batch size from
/// {2, 3, 7, 8, 9, 64}, `in_c` from 1..=48, `out_c` from 1..=6 in odd
/// cases, height and width apart, whether there is a bias, and which
/// special values, if any, go into the inputs, weights, bias and add
/// operands.
fn check_lane_convs(cases: usize, seed: u64) {
    const BATCHES: [usize; 6] = [2, 3, 7, 8, 9, 64];
    let edges = block_edges();
    let (template, walker) = lane_template();
    let mut istate = seed;
    let mut pick = move |lo: usize, hi: usize| {
        istate = istate
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        lo + (istate >> 33) as usize % (hi - lo + 1)
    };
    let mut rng = lcg(seed);
    let mut scratch = ExecScratch::default();
    let mut seen_batches = std::collections::BTreeSet::new();
    let mut seen_families = std::collections::BTreeSet::new();
    let mut seen_out_c = std::collections::BTreeSet::new();
    let mut border_only = 0;
    for case in 0..cases {
        let k = [1u32, 3, 5][case % 3];
        let span = if case / 2 % 3 == 2 { 1 } else { 8 };
        let p = ConvParams {
            in_c: pick(1, 48) as u32,
            in_h: pick(k as usize, k as usize + span) as u32,
            in_w: pick(k as usize, k as usize + span) as u32,
            out_c: if case % 2 == 0 {
                edges[case / 2 % edges.len()]
            } else {
                pick(1, 6) as u32
            },
            k,
            stride: [1, 2][case / 3 % 2],
            pad: [0, 1][case / 6 % 2],
        };
        seen_out_c.insert(p.out_c);
        border_only += usize::from(p.in_h <= k + 1 && p.in_w <= k + 1);
        let b = BATCHES[pick(0, BATCHES.len() - 1)];
        let (tail_add, tail_relu, interm_first) = [
            (false, false, false),
            (false, true, false),
            (true, false, true),
            (true, false, false),
            (true, true, false),
        ][case % 5];
        let has_bias = pick(0, 3) != 0;
        let family = pick(0, 2);
        seen_batches.insert(b);
        seen_families.insert(family);
        let specials: &[f32] = [&[][..], &NAN_FAMILY, &INF_FAMILY][family];
        let ctx = format!(
            "case {case}: B={b} {p:?} bias={has_bias} specials={family} \
             add={tail_add}/{interm_first} relu={tail_relu}"
        );

        let out_len = (p.out_c * p.out_h() * p.out_w()) as usize;
        let mut weights = fill((p.out_c * p.in_c * p.k * p.k) as usize, &mut rng);
        let mut bias = vec![0.0; p.out_c as usize];
        if has_bias {
            bias = fill(p.out_c as usize, &mut rng);
            sprinkle(&mut bias, specials, !seed ^ case as u64);
        }
        sprinkle(&mut weights, specials, seed ^ case as u64);
        let in_len = (p.in_c * p.in_h * p.in_w) as usize;
        let lens = [in_len, weights.len(), bias.len(), out_len, out_len];
        for ((name, lo, hi), len) in LANE_REGIONS.iter().zip(lens) {
            assert!(
                len as u64 * 4 <= hi - lo,
                "{ctx}: {name} overflows its region"
            );
        }
        let op = ShaderOp::Conv2d {
            in_va: LANE_IN_VA,
            w_va: LANE_W_VA,
            b_va: if has_bias { LANE_B_VA } else { 0 },
            out_va: LANE_OUT_VA,
            p,
            tiles: TILES,
        };
        let directive =
            grt_gpu::OpKind::fused(grt_gpu::OpKind::Conv2d, tail_add, tail_relu).map(|kind| {
                grt_gpu::FusedDirective {
                    head: grt_gpu::OpKind::Conv2d,
                    head_out_va: LANE_OUT_VA,
                    head_len: out_len as u64,
                    tail_add: tail_add.then_some(grt_gpu::TailAdd {
                        other_va: LANE_TAIL_VA,
                        out_va: LANE_OUT_VA,
                        len: out_len as u64,
                        interm_first,
                    }),
                    tail_relu,
                    extra_cost_us: 0,
                    kind,
                }
            });
        let mut shared = template.clone();
        shared
            .write(LANE_SHADER_VA, &op.encode(), Accessor::Cpu)
            .unwrap();
        put_f32s(&mut shared, LANE_W_VA, &weights);
        put_f32s(&mut shared, LANE_B_VA, &bias);

        let mut lanes = Vec::with_capacity(b);
        let mut want = Vec::with_capacity(b);
        for lane in 0..b {
            let mut input = fill(in_len, &mut rng);
            let mut other = fill(out_len, &mut rng);
            sprinkle(&mut input, specials, seed ^ (case * 131 + lane) as u64);
            sprinkle(&mut other, specials, !seed ^ (case * 137 + lane) as u64);
            let mut mem = shared.clone();
            put_f32s(&mut mem, LANE_IN_VA, &input);
            put_f32s(&mut mem, LANE_TAIL_VA, &other);
            lanes.push(mem);

            let mut expect = reference::conv2d(&input, &weights, &bias, &p);
            if tail_add {
                expect = if interm_first {
                    reference::add(&expect, &other)
                } else {
                    reference::add(&other, &expect)
                };
            }
            if tail_relu {
                expect = reference::relu(&expect);
            }
            want.push(expect);
        }

        let mut mems: Vec<&mut Memory> = lanes.iter_mut().collect();
        let mut done = 0;
        execute_program(
            &mut mems,
            &walker,
            &mut Tlb::new(),
            &mut scratch,
            LANE_SHADER_VA,
            1,
            TILES,
            directive.as_ref(),
            |_, _, r| {
                assert!(r.is_ok(), "{ctx}: {r:?}");
                done += 1;
            },
        )
        .unwrap();
        assert_eq!(done, b, "{ctx}: every lane ran");
        for (lane, (mem, expect)) in lanes.iter().zip(&want).enumerate() {
            let got = get_f32s(mem, LANE_OUT_VA, out_len);
            assert_eq!(bits(&got), bits(expect), "{ctx}: lane {lane}");
        }

        let mut alone = lanes.swap_remove(0);
        put_f32s(&mut alone, LANE_OUT_VA, &vec![0.0; out_len]);
        execute_program(
            &mut [&mut alone],
            &walker,
            &mut Tlb::new(),
            &mut scratch,
            LANE_SHADER_VA,
            1,
            TILES,
            directive.as_ref(),
            |_, _, r| assert!(r.is_ok(), "{ctx}: {r:?}"),
        )
        .unwrap();
        let got = get_f32s(&alone, LANE_OUT_VA, out_len);
        assert_eq!(bits(&got), bits(&want[0]), "{ctx}: lane 0 alone");
    }
    assert_eq!(seen_batches.len(), BATCHES.len(), "every batch size ran");
    assert_eq!(seen_families.len(), 3, "every special-value family ran");
    assert!(
        edges.iter().all(|c| seen_out_c.contains(c)),
        "every block edge of out_c ran: {seen_out_c:?}"
    );
    assert!(border_only > 0, "a border-only input ran");
}

/// The lane-major conv against the reference, lane by lane: a small
/// pinned budget that runs in the debug test suite.
#[test]
fn lane_major_conv_matches_reference_on_every_lane() {
    check_lane_convs(30, 0x1A7E_0001);
}

/// The same check with a larger budget; CI runs it in release.
#[test]
#[ignore = "large budget: run with --release --include-ignored"]
fn lane_major_conv_matches_reference_on_every_lane_wide() {
    check_lane_convs(600, 0x1A7E_0002);
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
