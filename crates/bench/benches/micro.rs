//! Micro-benchmarks for the hot primitives of the reproduction: the range
//! coder and delta codec that bound memory-sync throughput, the crypto
//! sealing every commit, page-table walks, the protected-memory wipe and
//! lane fork, the symbolic-value machinery, and end-to-end record/replay.
//!
//! The harness is hand-rolled over `std::time::Instant` (no criterion):
//! the workspace must build and bench with zero network access, so no
//! external dev-dependencies are allowed. Each benchmark runs a warm-up
//! batch, then a measured batch, and reports mean wall time per iteration.
//! Run with `cargo bench -p grt-bench`.

use grt_compress::{compress, decompress, DeltaCodec};
use grt_crypto::{SecureChannel, Sha256};
use grt_driver::{RegVal, SymSlot};
use grt_gpu::mem::{Accessor, Memory};
use grt_gpu::mmu::{map_page, AccessKind, PteFlags, Walker};
use grt_gpu::PAGE_SIZE;
use std::time::Instant;

/// Runs `f` `iters` times (after `iters / 10 + 1` warm-up calls) and
/// prints mean time per iteration plus optional throughput over `bytes`.
fn bench<T>(name: &str, iters: u32, bytes: Option<usize>, mut f: impl FnMut() -> T) {
    for _ in 0..iters / 10 + 1 {
        std::hint::black_box(f());
    }
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    let total = start.elapsed();
    let per_iter = total / iters;
    match bytes {
        Some(n) => {
            let mbps = n as f64 / per_iter.as_secs_f64() / 1e6;
            println!("{name:<40} {per_iter:>12.2?}/iter  {mbps:>10.1} MB/s");
        }
        None => println!("{name:<40} {per_iter:>12.2?}/iter"),
    }
}

fn sparse_dump(len: usize) -> Vec<u8> {
    let mut d = vec![0u8; len];
    for i in (0..len).step_by(331) {
        d[i] = (i * 7) as u8;
    }
    d
}

fn bench_range_coder() {
    let data = sparse_dump(256 * 1024);
    bench(
        "range_coder/compress_sparse_256k",
        50,
        Some(data.len()),
        || compress(std::hint::black_box(&data)),
    );
    let packed = compress(&data);
    bench(
        "range_coder/decompress_sparse_256k",
        50,
        Some(data.len()),
        || decompress(std::hint::black_box(&packed)).unwrap(),
    );
}

fn bench_delta_codec() {
    let old = sparse_dump(1 << 20);
    let mut new = old.clone();
    for i in (0..new.len()).step_by(50_000) {
        new[i] ^= 0xFF;
    }
    let codec = DeltaCodec::new(PAGE_SIZE);
    bench(
        "delta_codec/encode_1m_sparse_change",
        20,
        Some(old.len()),
        || codec.encode(std::hint::black_box(&old), std::hint::black_box(&new)),
    );
    let delta = codec.encode(&old, &new);
    bench(
        "delta_codec/decode_1m_sparse_change",
        20,
        Some(old.len()),
        || codec.decode(std::hint::black_box(&old), &delta).unwrap(),
    );
}

fn bench_crypto() {
    let payload = vec![0x5Au8; 300]; // Typical commit payload (§7.1).
    bench("crypto/seal_open_commit_payload", 2_000, None, || {
        let mut tx = SecureChannel::from_secret(b"k");
        let mut rx = SecureChannel::from_secret(b"k");
        let wire = tx.seal(&payload);
        rx.open(&wire).unwrap()
    });
    let big = vec![7u8; 64 * 1024];
    bench("crypto/sha256_64k", 200, Some(big.len()), || {
        Sha256::digest(std::hint::black_box(&big))
    });
}

fn bench_mmu_walk() {
    let mut mem = Memory::new(8 << 20);
    let mut next = 1 << 20;
    let root = next;
    next += PAGE_SIZE as u64;
    let mut alloc = || {
        let pa = next;
        next += PAGE_SIZE as u64;
        pa
    };
    for i in 0..256u64 {
        map_page(
            &mut mem,
            root,
            0x4000_0000 + i * PAGE_SIZE as u64,
            0x10_0000 + i * PAGE_SIZE as u64,
            PteFlags::rw(),
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
    bench("mmu/translate", 10_000, None, || {
        walker
            .translate(
                std::hint::black_box(&mem),
                0x4000_0000 + 37 * PAGE_SIZE as u64 + 123,
                AccessKind::Read,
            )
            .unwrap()
    });
}

/// Writes 512 pages (2 MiB, about a zoo replay's working set) spread at
/// a 47-page stride over a 96 MiB carveout.
fn touch_scattered(mem: &mut Memory) {
    let page = [0xA5u8; PAGE_SIZE];
    for i in 0..512u64 {
        mem.write(i * 47 * PAGE_SIZE as u64, &page, Accessor::Cpu)
            .unwrap();
    }
}

fn bench_mem() {
    let mut mem = Memory::new(96 << 20);
    // A wipe clears the working set, so each iteration writes it again.
    bench("mem/wipe_96MiB", 50, None, || {
        touch_scattered(&mut mem);
        mem.wipe();
    });
    touch_scattered(&mut mem);
    bench("mem/clone_96MiB", 50, None, || mem.clone());
}

fn bench_symbolic() {
    bench("symbolic/regval_eval", 10_000, None, || {
        let slot = SymSlot::new(1);
        let v = (RegVal::symbolic(slot.clone()) & 0xFFFF) | 0x10;
        slot.bind(0xABCD);
        v.eval().unwrap()
    });
}

fn bench_inference() {
    let spec = grt_ml::zoo::mnist();
    let mut stack = grt_runtime::NativeStack::boot(grt_gpu::GpuSku::mali_g71_mp8()).unwrap();
    let net = stack.compile(&spec).unwrap();
    let input = grt_ml::reference::test_input(&spec, 0);
    bench("end_to_end/native_mnist_inference", 20, None, || {
        stack.infer(&net, std::hint::black_box(&input)).unwrap()
    });
    bench("end_to_end/record_mnist_oursmds_wifi", 5, None, || {
        let mut s = grt_core::session::RecordSession::new(
            grt_gpu::GpuSku::mali_g71_mp8(),
            grt_net::NetConditions::wifi(),
            grt_core::session::RecorderMode::OursMDS,
        );
        s.record(std::hint::black_box(&spec)).unwrap()
    });
    let mut s = grt_core::session::RecordSession::new(
        grt_gpu::GpuSku::mali_g71_mp8(),
        grt_net::NetConditions::wifi(),
        grt_core::session::RecorderMode::OursMDS,
    );
    let out = s.record(&spec).unwrap();
    let key = s.recording_key();
    let weights = grt_core::replay::workload_weights(&spec);
    let mut replayer =
        grt_core::replay::Replayer::new(&s.client, std::rc::Rc::new(grt_lint::Linter::new()));
    bench("end_to_end/replay_mnist", 20, None, || {
        replayer
            .replay(std::hint::black_box(&out.recording), &key, &input, &weights)
            .unwrap()
    });
}

fn main() {
    println!("GR-T micro-benchmarks (mean wall time per iteration)");
    println!("----------------------------------------------------");
    bench_range_coder();
    bench_delta_codec();
    bench_crypto();
    bench_mmu_walk();
    bench_mem();
    bench_symbolic();
    bench_inference();
}
