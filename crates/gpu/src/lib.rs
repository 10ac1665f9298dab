//! A register-level model of a Mali-Bifrost-class mobile GPU.
//!
//! The paper's prototype targets the Mali G71 MP8 on a HiKey960. GR-T never
//! looks *inside* the GPU — it interposes the CPU/GPU boundary: registers,
//! shared memory, and interrupts (§2.1). This crate therefore models exactly
//! that boundary, faithfully enough that a kbase-style driver written
//! against it produces the same *classes* of interaction traffic the paper
//! records:
//!
//! - a Bifrost-like register map ([`regs`]): GPU/JOB/MMU control blocks,
//!   job slots, address spaces, power domains;
//! - LPAE-style GPU page tables living **in shared memory** ([`mmu`]), so
//!   page-table state is captured by memory dumps exactly as in the paper;
//! - a tiny tensor-level shader ISA and interpreter ([`shader`]) — the GPU
//!   really fetches job descriptors and shader code from shared memory
//!   through its MMU and really computes, which is what makes replay-with-
//!   new-input produce correct inference results;
//! - timestamp-based hardware state machines (power-up, cache/TLB flush,
//!   soft reset, job completion) on the shared virtual clock, so polling
//!   loops and interrupt waits cost realistic virtual time;
//! - a GPU SKU catalog ([`sku`], [`catalog`]) reproducing the diversity
//!   argument of Figure 3 and making JIT output genuinely SKU-specific.

#![warn(missing_docs)]

pub mod catalog;
pub mod fusion;
pub mod gpu;
pub mod job;
pub mod mem;
pub mod mmu;
pub mod regs;
pub mod shader;
pub mod sku;

pub use fusion::{FusedDirective, TailAdd};
pub use gpu::{ExecStats, Gpu, IrqLine};
pub use job::{JobDescriptor, JobStatus};
pub use mem::{Memory, PageFlags, UploadScratch, PAGE_SIZE};
pub use mmu::{AddressSpace, PteFlags, Tlb, TlbStats};
pub use regs::{PollCond, PollResult, PollSpec};
pub use shader::{ConvParams, OpKind, OpKindStats, PoolKind, ShaderOp, OP_KIND_COUNT};
pub use sku::{CostEnvelope, GpuSku};
