//! Job descriptors: the in-memory structures the GPU fetches at `JS_HEAD`.
//!
//! The runtime emits a chain of descriptors into shared memory; the driver
//! writes the head VA into the job-slot registers and kicks `JS_COMMAND =
//! START`. Descriptors are data like any other — they travel in memory
//! dumps and are classified as metastate by the §5 synchronizer.

use crate::mem::{Accessor, Memory};
use crate::mmu::{AccessKind, MmuFault, Tlb, Walker};

/// Size of one encoded job descriptor.
pub const DESC_SIZE: usize = 64;

/// Magic tag identifying a valid descriptor ("JOB1").
pub const DESC_MAGIC: u32 = 0x4A4F_4231;

/// Completion status written back into the descriptor by the GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Not yet executed.
    Pending,
    /// Completed successfully.
    Done,
    /// Faulted with a `JS_STATUS`-style code.
    Fault(u32),
}

impl JobStatus {
    /// Encodes to the descriptor's status word.
    pub fn to_word(self) -> u32 {
        match self {
            JobStatus::Pending => 0,
            JobStatus::Done => 1,
            JobStatus::Fault(code) => code,
        }
    }

    /// Decodes from the descriptor's status word.
    pub fn from_word(w: u32) -> JobStatus {
        match w {
            0 => JobStatus::Pending,
            1 => JobStatus::Done,
            code => JobStatus::Fault(code),
        }
    }
}

/// A GPU job descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobDescriptor {
    /// VA of the shader program.
    pub shader_va: u64,
    /// Number of instructions in the program.
    pub n_instrs: u32,
    /// Virtual execution cost in microseconds (set by the JIT cost model).
    pub cost_us: u32,
    /// VA of the next descriptor in the chain (0 = end).
    pub next_va: u64,
    /// Completion status (written by the GPU).
    pub status: JobStatus,
}

impl JobDescriptor {
    /// Encodes into the 64-byte wire format.
    pub fn encode(&self) -> [u8; DESC_SIZE] {
        let mut b = [0u8; DESC_SIZE];
        b[0..4].copy_from_slice(&DESC_MAGIC.to_le_bytes());
        b[8..16].copy_from_slice(&self.shader_va.to_le_bytes());
        b[16..20].copy_from_slice(&self.n_instrs.to_le_bytes());
        b[20..24].copy_from_slice(&self.cost_us.to_le_bytes());
        b[24..32].copy_from_slice(&self.next_va.to_le_bytes());
        b[32..36].copy_from_slice(&self.status.to_word().to_le_bytes());
        b
    }

    /// Decodes from the wire format; `None` if the magic is wrong.
    pub fn decode(b: &[u8; DESC_SIZE]) -> Option<JobDescriptor> {
        let u32_at = |off: usize| u32::from_le_bytes([b[off], b[off + 1], b[off + 2], b[off + 3]]);
        let u64_at = |off: usize| {
            let mut x = [0u8; 8];
            x.copy_from_slice(&b[off..off + 8]);
            u64::from_le_bytes(x)
        };
        if u32_at(0) != DESC_MAGIC {
            return None;
        }
        Some(JobDescriptor {
            shader_va: u64_at(8),
            n_instrs: u32_at(16),
            cost_us: u32_at(20),
            next_va: u64_at(24),
            status: JobStatus::from_word(u32_at(32)),
        })
    }

    /// Reads a descriptor at `va` through the GPU MMU using the software TLB.
    ///
    /// Translates in contiguous page runs instead of once per byte: a
    /// descriptor spans at most two pages, so this costs at most two
    /// `translate_run` calls (usually one) instead of 64 full walks.
    pub fn read_via_mmu_cached(
        mem: &Memory,
        walker: &Walker,
        tlb: &mut Tlb,
        va: u64,
    ) -> Result<Option<Self>, MmuFault> {
        let mut raw = [0u8; DESC_SIZE];
        let mut done = 0usize;
        while done < DESC_SIZE {
            let (pa, run) = walker.translate_run(
                mem,
                tlb,
                va + done as u64,
                DESC_SIZE - done,
                AccessKind::Read,
            )?;
            mem.read(pa, &mut raw[done..done + run], Accessor::Gpu)
                .map_err(|fault| MmuFault::WalkError { fault })?;
            done += run;
        }
        Ok(JobDescriptor::decode(&raw))
    }

    /// Writes this descriptor's status word back via the software TLB.
    ///
    /// The store is reported to the TLB (`note_store`) so a descriptor that
    /// aliases a walked page-table page cannot leave stale translations.
    pub fn write_status_via_mmu_cached(
        mem: &mut Memory,
        walker: &Walker,
        tlb: &mut Tlb,
        va: u64,
        status: JobStatus,
    ) -> Result<(), MmuFault> {
        let word = status.to_word().to_le_bytes();
        let mut done = 0usize;
        while done < word.len() {
            let (pa, run) = walker.translate_run(
                mem,
                tlb,
                va + 32 + done as u64,
                word.len() - done,
                AccessKind::Write,
            )?;
            mem.write(pa, &word[done..done + run], Accessor::Gpu)
                .map_err(|fault| MmuFault::WalkError { fault })?;
            tlb.note_store(pa, run);
            done += run;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let d = JobDescriptor {
            shader_va: 0xABCD_0000,
            n_instrs: 7,
            cost_us: 1234,
            next_va: 0x1111_2000,
            status: JobStatus::Pending,
        };
        let back = JobDescriptor::decode(&d.encode()).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut raw = JobDescriptor {
            shader_va: 0,
            n_instrs: 0,
            cost_us: 0,
            next_va: 0,
            status: JobStatus::Pending,
        }
        .encode();
        raw[0] ^= 0xFF;
        assert!(JobDescriptor::decode(&raw).is_none());
    }

    #[test]
    fn status_words_round_trip() {
        for s in [JobStatus::Pending, JobStatus::Done, JobStatus::Fault(0x40)] {
            assert_eq!(JobStatus::from_word(s.to_word()), s);
        }
    }
}
