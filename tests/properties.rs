//! Property-based tests over the reproduction's core data structures and
//! invariants.
//!
//! Cases are generated from the in-tree deterministic [`grt_sim::Rng`]
//! rather than proptest: the workspace must build and test with zero
//! network access, so no external dev-dependencies are allowed. Every
//! property runs a fixed number of seeded random cases; failures print the
//! case seed so a run can be reproduced exactly.

use grt_compress::{compress, decompress, DeltaCodec};
use grt_crypto::{hmac_sha256, ChaCha20, SecureChannel, Sha256};
use grt_driver::{RegVal, SymSlot};
use grt_gpu::job::{JobDescriptor, JobStatus, DESC_SIZE};
use grt_gpu::mmu::{decode_pte, encode_pte, PteFlags};
use grt_gpu::shader::{ConvParams, ShaderOp};
use grt_gpu::PollCond;
use grt_sim::Rng;

mod support;

/// Runs `n` independent cases of a property, each with its own
/// reproducibly-derived generator.
fn cases(n: u64, base_seed: u64, mut property: impl FnMut(&mut Rng)) {
    for case in 0..n {
        let seed = base_seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = Rng::new(seed);
        property(&mut rng);
    }
}

fn rand_bytes(rng: &mut Rng, min: usize, max: usize) -> Vec<u8> {
    let len = min + rng.gen_range((max - min + 1) as u64) as usize;
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

fn rand_array<const N: usize>(rng: &mut Rng) -> [u8; N] {
    let mut a = [0u8; N];
    rng.fill_bytes(&mut a);
    a
}

/// The range coder is lossless for arbitrary byte strings.
#[test]
fn range_coder_round_trips() {
    cases(96, 0xC0DE_0001, |rng| {
        let data = rand_bytes(rng, 0, 4095);
        let packed = compress(&data);
        assert_eq!(decompress(&packed).unwrap(), data);
    });
}

/// The delta codec reconstructs `new` from `old` for arbitrary pairs of
/// arbitrary lengths.
#[test]
fn delta_codec_round_trips() {
    cases(96, 0xC0DE_0002, |rng| {
        let old = rand_bytes(rng, 0, 2047);
        let new = rand_bytes(rng, 0, 2047);
        let page_shift = 4 + rng.gen_range(6) as usize;
        let codec = DeltaCodec::new(1 << page_shift);
        let delta = codec.encode(&old, &new);
        assert_eq!(codec.decode(&old, &delta).unwrap(), new);
    });
}

/// Incremental SHA-256 equals one-shot regardless of chunking.
#[test]
fn sha256_chunking_invariant() {
    cases(128, 0xC0DE_0003, |rng| {
        let data = rand_bytes(rng, 0, 1023);
        let n_cuts = rng.gen_range(6) as usize;
        let mut cuts: Vec<usize> = (0..n_cuts)
            .map(|_| rng.gen_range(data.len() as u64 + 1) as usize)
            .collect();
        cuts.sort_unstable();
        let mut h = Sha256::new();
        let mut prev = 0;
        for c in cuts {
            h.update(&data[prev..c]);
            prev = c;
        }
        h.update(&data[prev..]);
        assert_eq!(h.finalize(), Sha256::digest(&data));
    });
}

/// HMAC differs whenever the key differs (no trivial collisions in the
/// tested domain).
#[test]
fn hmac_key_separation() {
    cases(128, 0xC0DE_0004, |rng| {
        let key: [u8; 16] = rand_array(rng);
        let msg: [u8; 16] = rand_array(rng);
        let mut key2 = key;
        key2[0] ^= 1;
        assert_ne!(hmac_sha256(&key, &msg), hmac_sha256(&key2, &msg));
    });
}

/// ChaCha20 decrypts what it encrypts for arbitrary payloads.
#[test]
fn chacha_round_trips() {
    cases(128, 0xC0DE_0005, |rng| {
        let key: [u8; 32] = rand_array(rng);
        let nonce: [u8; 12] = rand_array(rng);
        let mut data = rand_bytes(rng, 0, 511);
        let orig = data.clone();
        ChaCha20::new(&key, &nonce).apply(&mut data);
        ChaCha20::new(&key, &nonce).apply(&mut data);
        assert_eq!(data, orig);
    });
}

/// Sealed channel messages round-trip and never leak the plaintext
/// verbatim (for plaintexts long enough to not appear by chance).
#[test]
fn secure_channel_round_trips() {
    cases(96, 0xC0DE_0006, |rng| {
        let data = rand_bytes(rng, 16, 256);
        let mut a = SecureChannel::from_secret(b"k");
        let mut b = SecureChannel::from_secret(b"k");
        let wire = a.seal(&data);
        assert!(
            !wire.windows(data.len()).any(|w| w == &data[..]) || data.iter().all(|&x| x == data[0])
        );
        assert_eq!(b.open(&wire).unwrap(), data);
    });
}

/// Symbolic RegVal expressions evaluate exactly like direct u32
/// arithmetic once their symbol is bound.
#[test]
fn symbolic_regval_matches_concrete() {
    cases(256, 0xC0DE_0007, |rng| {
        let seed = rng.next_u32();
        let and_m = rng.next_u32();
        let or_m = rng.next_u32();
        let xor_m = rng.next_u32();
        let shl = rng.gen_range(32) as u32;
        let shr = rng.gen_range(32) as u32;
        let slot = SymSlot::new(1);
        let sym = ((((RegVal::symbolic(slot.clone()) & and_m) | or_m) ^ xor_m).shl(shl))
            .shr(shr)
            .not();
        assert!(sym.is_symbolic());
        slot.bind(seed);
        let expected = !((((seed & and_m) | or_m) ^ xor_m).wrapping_shl(shl)).wrapping_shr(shr);
        assert_eq!(sym.eval(), Some(expected));
    });
}

/// PTE encode/decode round-trips for every quirk and flag combination,
/// and decoding under a flag-region-different quirk never yields the same
/// permissions.
#[test]
fn pte_round_trip_and_quirk_separation() {
    cases(256, 0xC0DE_0008, |rng| {
        let pa = rng.gen_range(0x1_0000) << 12;
        let quirk = rng.next_u32() as u8;
        let flags = PteFlags {
            read: rng.chance(0.5),
            write: rng.chance(0.5),
            execute: rng.chance(0.5),
        };
        let e = encode_pte(pa, flags, quirk);
        let (pa2, f2) = decode_pte(e, quirk).unwrap();
        assert_eq!(pa2, pa);
        assert_eq!(f2, flags);
        // Flipping a permission-region quirk bit changes the decode.
        let wrong = quirk ^ 0x01;
        if let Some((_, f3)) = decode_pte(e, wrong) {
            assert_ne!(f3, flags);
        }
    });
}

/// Job descriptors round-trip through their wire format.
#[test]
fn job_descriptor_round_trips() {
    cases(256, 0xC0DE_0009, |rng| {
        let d = JobDescriptor {
            shader_va: rng.next_u64(),
            n_instrs: rng.next_u32(),
            cost_us: rng.next_u32(),
            next_va: rng.next_u64(),
            status: JobStatus::from_word(rng.gen_range(3) as u32),
        };
        let enc: [u8; DESC_SIZE] = d.encode();
        assert_eq!(JobDescriptor::decode(&enc), Some(d));
    });
}

/// Shader instructions round-trip through the 64-byte records.
#[test]
fn shader_op_round_trips() {
    cases(256, 0xC0DE_000A, |rng| {
        let op = ShaderOp::Conv2d {
            in_va: rng.next_u32() as u64,
            w_va: rng.next_u32() as u64,
            b_va: rng.next_u32() as u64,
            out_va: rng.next_u32() as u64,
            p: ConvParams {
                in_c: 1 + rng.gen_range(63) as u32,
                in_h: 1 + rng.gen_range(63) as u32,
                in_w: 1 + rng.gen_range(63) as u32,
                out_c: 1 + rng.gen_range(63) as u32,
                k: 1 + rng.gen_range(7) as u32,
                stride: 1 + rng.gen_range(3) as u32,
                pad: rng.gen_range(4) as u32,
            },
            tiles: 1 + rng.gen_range(31) as u32,
        };
        assert_eq!(ShaderOp::decode(&op.encode()), Some(op));
    });
}

/// Poll conditions partition the value space consistently.
#[test]
fn poll_cond_partition() {
    cases(512, 0xC0DE_000B, |rng| {
        let raw = rng.next_u32();
        let mask = rng.next_u32();
        let zero = PollCond::MaskedZero.satisfied(raw, mask);
        let nonzero = PollCond::MaskedNonZero.satisfied(raw, mask);
        assert!(zero != nonzero);
        assert!(PollCond::MaskedEq(raw & mask).satisfied(raw, mask));
    });
}

/// Recording byte format round-trips arbitrary event mixes.
#[test]
fn recording_format_round_trips() {
    use grt_ir::recording::{DataSlot, Event, Recording};
    cases(64, 0xC0DE_000C, |rng| {
        let n_offsets = 1 + rng.gen_range(39) as usize;
        let mut events = Vec::new();
        for i in 0..n_offsets {
            let off = rng.next_u32();
            if i % 3 == 0 {
                events.push(Event::RegWrite {
                    offset: off,
                    value: off.wrapping_mul(3),
                });
            } else {
                events.push(Event::RegRead {
                    offset: off,
                    value: !off,
                    verify: i % 2 == 0,
                });
            }
        }
        for i in 0..rng.gen_range(4) as usize {
            events.push(Event::LoadMemDelta {
                pa: i as u64 * 4096,
                len: 4096,
                delta: rand_bytes(rng, 0, 63),
            });
        }
        let rec = Recording {
            workload: "prop".into(),
            gpu_id: 7,
            input: DataSlot {
                pa: 1,
                len_elems: 2,
            },
            output: DataSlot {
                pa: 3,
                len_elems: 4,
            },
            weights: vec![DataSlot {
                pa: 5,
                len_elems: 6,
            }],
            events,
        };
        assert_eq!(Recording::from_bytes(&rec.to_bytes()), Some(rec));
    });
}

/// Faults cost time, never bytes: for any eventually-healing fault
/// schedule (every generated partition, loss burst, and RTT spike window
/// closes), the record tunnel's retries, reorders, and checkpoint
/// resumes leave the produced recording byte-identical to a zero-fault
/// recording of the same network.
#[test]
fn healing_faults_never_change_recording_bytes() {
    use grt_core::session::{RecordSession, RecorderMode};
    use grt_gpu::GpuSku;
    use grt_ml::{LayerOp, LayerSpec, NetworkSpec};
    use grt_net::NetConditions;
    use grt_sim::{FaultPlan, FaultPlanConfig, SimTime};
    use std::rc::Rc;

    let spec = NetworkSpec {
        name: "PROP-TINY",
        input_len: 16,
        output_len: 10,
        layers: vec![
            LayerSpec {
                name: "fc",
                op: LayerOp::Fc {
                    in_dim: 16,
                    out_dim: 10,
                    relu: false,
                },
                splits: 1,
                setup_jobs: 1,
                nominal_macs: 0,
                nominal_data_bytes: 0,
                save_skip: false,
            },
            LayerSpec {
                name: "sm",
                op: LayerOp::Softmax { len: 10 },
                splits: 1,
                setup_jobs: 0,
                nominal_macs: 0,
                nominal_data_bytes: 0,
                save_skip: false,
            },
        ],
    };
    let record = |plan: Option<Rc<FaultPlan>>| {
        let mut s = RecordSession::new(
            GpuSku::mali_g71_mp8(),
            NetConditions::wifi(),
            RecorderMode::OursMDS,
        );
        if let Some(p) = &plan {
            s.attach_faults(p);
        }
        let out = s.record(&spec).expect("record survives healing faults");
        (out.recording.bytes, out.link_retries)
    };
    let (baseline, _) = record(None);
    // The fault window must overlap the record run for the property to
    // be non-vacuous; the tiny network records in under two virtual
    // seconds, so a two-second horizon covers it end to end.
    let fault_cfg = FaultPlanConfig {
        horizon: SimTime::from_secs(2),
        devices: 1,
        ..FaultPlanConfig::default()
    };
    let mut total_retries = 0u64;
    cases(12, 0xC0DE_000F, |rng| {
        let plan = Rc::new(FaultPlan::generate(rng.next_u64(), &fault_cfg));
        let (bytes, retries) = record(Some(plan));
        total_retries += retries;
        assert_eq!(bytes, baseline, "a healed fault changed recording bytes");
    });
    // At least some schedules must actually have engaged the retry
    // ladder, or the property was tested against a no-op.
    assert!(total_retries > 0, "no generated schedule caused a retry");
}

// ---------------------------------------------------------------------
// Stateful properties: MMU mappings and memory-sync convergence.
// ---------------------------------------------------------------------

/// Arbitrary sets of page mappings translate exactly, enumerate exactly,
/// and leave unmapped neighbours faulting.
#[test]
fn mmu_mappings_are_exact() {
    use grt_gpu::mem::Memory;
    use grt_gpu::mmu::{map_page, AccessKind, PteFlags, Walker};
    use grt_gpu::PAGE_SIZE;
    use std::collections::BTreeSet;

    cases(24, 0xC0DE_000D, |rng| {
        let quirk = rng.next_u32() as u8;
        let n_pages = 1 + rng.gen_range(23) as usize;
        let mut pages = BTreeSet::new();
        while pages.len() < n_pages {
            pages.insert(rng.gen_range(512));
        }

        let mut mem = Memory::new(8 << 20);
        let mut next = 1u64 << 20;
        let root = next;
        next += PAGE_SIZE as u64;
        let mut alloc = || {
            let pa = next;
            next += PAGE_SIZE as u64;
            pa
        };
        let va_base = 0x4000_0000u64;
        for &p in &pages {
            map_page(
                &mut mem,
                root,
                va_base + p * PAGE_SIZE as u64,
                0x10_0000 + p * PAGE_SIZE as u64,
                PteFlags::rw(),
                quirk,
                &mut alloc,
            )
            .unwrap();
        }
        let walker = Walker {
            root_pa: root,
            quirk,
            asn: 0,
        };
        for &p in &pages {
            let va = va_base + p * PAGE_SIZE as u64 + 17;
            let pa = walker.translate(&mem, va, AccessKind::Read).unwrap();
            assert_eq!(pa, 0x10_0000 + p * PAGE_SIZE as u64 + 17);
        }
        // A page just outside the mapped set faults.
        let unmapped = (0..513u64).find(|p| !pages.contains(p)).unwrap();
        assert!(walker
            .translate(
                &mem,
                va_base + unmapped * PAGE_SIZE as u64,
                AccessKind::Read
            )
            .is_err());
        // Enumeration returns exactly the mapped set.
        let mapped: BTreeSet<u64> = walker
            .mapped_pages(&mem)
            .into_iter()
            .map(|(va, _, _)| (va - va_base) / PAGE_SIZE as u64)
            .collect();
        assert_eq!(mapped, pages);
    });
}

/// Memory-sync convergence: after arbitrary cloud-side mutations of
/// metastate followed by a down-sync, the client's metastate equals the
/// cloud's; after arbitrary GPU-side mutations and an up-sync, the
/// cloud's equals the client's. Repeatedly.
#[test]
fn memsync_converges_under_arbitrary_mutation() {
    use grt_core::memsync::{MemSync, SyncMode};
    use grt_driver::{Region, RegionTable, Usage};
    use grt_gpu::mmu::PteFlags;
    use grt_gpu::{Gpu, GpuSku, Memory, PAGE_SIZE};
    use grt_replay::client::GpuShim;
    use grt_sim::{Clock, Stats};
    use grt_tee::{SecureMonitor, Tzasc};
    use std::cell::RefCell;
    use std::rc::Rc;

    cases(8, 0xC0DE_000E, |rng| {
        let stats = Stats::new();
        let mut sync = MemSync::new(SyncMode::MetaOnly, &stats);
        sync.validation_traps = false; // Mutations here are the test driver, not the stack.
        let mut cloud = Memory::new(1 << 20);
        let mut regions = RegionTable::new();
        regions.insert(Region {
            va: 0x1000,
            pa: 0x4000,
            pages: 2,
            gpu_flags: PteFlags::rx(),
            usage: Usage::Shader,
            nominal_bytes: 2 * PAGE_SIZE as u64,
        });
        regions.insert(Region {
            va: 0x3000,
            pa: 0x8000,
            pages: 1,
            gpu_flags: PteFlags::rw(),
            usage: Usage::JobDescriptors,
            nominal_bytes: PAGE_SIZE as u64,
        });
        let clock = Clock::new();
        let client_mem = Rc::new(RefCell::new(Memory::new(1 << 20)));
        let gpu = Rc::new(RefCell::new(Gpu::new(
            GpuSku::mali_g71_mp8(),
            &clock,
            &client_mem,
        )));
        let tzasc = Rc::new(Tzasc::new());
        let monitor = SecureMonitor::new(&clock);
        let mut shim = GpuShim::new(&clock, &gpu, &client_mem, &tzasc, &monitor, b"s");

        let rounds = 1 + rng.gen_range(4) as usize;
        for _ in 0..rounds {
            // Cloud mutates its metastate (shader region), then down-syncs.
            for _ in 0..rng.gen_range(16) {
                let off = rng.gen_range(8192);
                cloud.restore_range(0x4000 + off, &[rng.next_u32() as u8]);
            }
            sync.sync_down(&mut cloud, &regions, &mut shim, 0).unwrap();
            assert_eq!(
                shim.mem().borrow().dump_range(0x4000, 2 * PAGE_SIZE),
                cloud.dump_range(0x4000, 2 * PAGE_SIZE)
            );
            // GPU mutates the descriptor region, then up-syncs.
            for _ in 0..rng.gen_range(8) {
                let off = rng.gen_range(4096);
                shim.mem()
                    .borrow_mut()
                    .restore_range(0x8000 + off, &[rng.next_u32() as u8]);
            }
            sync.sync_up(&mut shim, &regions, &mut cloud, 0);
            assert_eq!(
                cloud.dump_range(0x8000, PAGE_SIZE),
                shim.mem().borrow().dump_range(0x8000, PAGE_SIZE)
            );
        }
    });
}

/// The one replay executor agrees with the event-by-event interpreter
/// (the test-only oracle in `tests/support`) on every zoo network and
/// arbitrary inputs:
///
/// - warm compiled replay produces bit-identical outputs, and its op count
///   falls short of the oracle's event count by exactly the dialog-window
///   steps fusion elided (DESIGN.md §9, §15 — compilation is
///   semantics-preserving; fusion only removes work);
/// - one-shot `Replayer::replay`, which walks the unfused lowering under
///   the interpreted price table, reproduces the oracle's output bits,
///   its `events`, `overhead`, `total`, `delta_wire_bytes` and TLB
///   counters, and its whole receipt.
#[test]
fn compiled_replay_equals_interpreted_on_all_networks() {
    use grt_core::session::{RecordSession, RecorderMode};
    use grt_ml::reference::{test_input, workload_weights};
    use grt_replay::replay::Replayer;

    for spec in grt_ml::zoo::all_benchmarks() {
        let mut s = RecordSession::new(
            grt_gpu::GpuSku::mali_g71_mp8(),
            grt_net::NetConditions::wifi(),
            RecorderMode::OursMDS,
        );
        let out = s.record(&spec).expect("record");
        let key = s.recording_key();
        let mut replayer = Replayer::new(&s.client, std::rc::Rc::new(grt_lint::Linter::new()));
        let weights = workload_weights(&spec);
        let compiled = replayer
            .compile_signed(&out.recording, &key)
            .expect("vetted recording compiles");
        cases(3, 0xC0DE_0011 ^ spec.name.len() as u64, |rng| {
            let input = test_input(&spec, rng.next_u64());
            let oracle = support::interpret(&s.client, &out.recording, &key, &input, &weights)
                .expect("interpreted replay");
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

            let (fast, _) = replayer
                .replay_compiled(&compiled, &input, &weights)
                .unwrap();
            assert_eq!(
                bits(&oracle.output),
                bits(&fast),
                "{}: outputs must be bit-identical",
                spec.name
            );
            // Fusion (DESIGN.md §15) elides whole dialog windows from the
            // compiled path; the exact delta is pinned by tests/fusion.rs.
            let fast_profile = replayer.last_profile();
            assert!(
                fast_profile.events <= oracle.profile.events,
                "{}: compiled path must not add events ({} > {})",
                spec.name,
                fast_profile.events,
                oracle.profile.events
            );
            assert_eq!(
                oracle.profile.events - fast_profile.events,
                fast_profile.fusion.steps_elided,
                "{}: event delta must equal elided steps",
                spec.name
            );

            // The interpreted price table, pinned against the oracle.
            let (once, total) = replayer
                .replay(&out.recording, &key, &input, &weights)
                .unwrap();
            let p = replayer.last_profile();
            let o = oracle.profile;
            assert_eq!(bits(&once), bits(&oracle.output), "{}", spec.name);
            assert_eq!(
                (
                    p.events,
                    p.overhead,
                    p.total,
                    p.delta_wire_bytes,
                    p.exec.tlb
                ),
                (
                    o.events,
                    o.overhead,
                    o.total,
                    o.delta_wire_bytes,
                    o.exec.tlb
                ),
                "{}: one-shot replay must charge the interpreted prices",
                spec.name
            );
            assert_eq!(total, o.total, "{}", spec.name);
            let receipt = replayer.last_receipt().unwrap();
            assert_eq!(receipt.counters, oracle.receipt.counters, "{}", spec.name);
            assert_eq!(
                receipt.to_bytes(),
                oracle.receipt.to_bytes(),
                "{}: one-shot receipt",
                spec.name
            );
        });
    }
}
