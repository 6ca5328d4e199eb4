//! The physical byte store.
//!
//! Backs the CBoard's on-board DRAM with real bytes so that applications
//! (key-value stores, trees, analytics) run end-to-end for real. Storage is
//! materialized lazily in 4 KB chunks: simulating a 2 GB board — or a 4 TB
//! ASIC — only costs host memory proportional to the bytes actually touched.
//! Untouched memory reads as zero, like freshly faulted pages.
//!
//! A clone shares every chunk with the memory it was taken from and copies
//! a chunk only when one side writes it (`Rc::make_mut`), so copying a
//! board costs a table of pointers, not its DRAM.

use std::rc::Rc;

use bytes::{Bytes, BytesMut};
use clio_sim::IdMap;

/// Host-memory chunk granularity.
const CHUNK: u64 = 4096;

/// One materialized chunk.
type Chunk = [u8; CHUNK as usize];

/// Byte-addressable physical memory of one memory node.
#[derive(Debug, Clone, Default)]
pub struct PhysMemory {
    chunks: IdMap<u64, Rc<Chunk>>,
    resident_bytes: u64,
}

impl PhysMemory {
    /// An empty (all-zero) memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Host memory actually materialized (for harness reporting).
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// Chunk `index`, materialized if it was not, and unshared.
    fn chunk_mut(&mut self, index: u64) -> &mut Chunk {
        let resident = &mut self.resident_bytes;
        Rc::make_mut(self.chunks.entry(index).or_insert_with(|| {
            *resident += CHUNK;
            Rc::new([0; CHUNK as usize])
        }))
    }

    /// Writes `data` at physical address `pa`.
    pub fn write(&mut self, pa: u64, data: &[u8]) {
        let mut addr = pa;
        let mut rest = data;
        while !rest.is_empty() {
            let idx = addr / CHUNK;
            let off = (addr % CHUNK) as usize;
            let n = rest.len().min(CHUNK as usize - off);
            self.chunk_mut(idx)[off..off + n].copy_from_slice(&rest[..n]);
            addr += n as u64;
            rest = &rest[n..];
        }
    }

    /// Reads `len` bytes at physical address `pa`. Unmaterialized ranges
    /// read as zero.
    pub fn read(&self, pa: u64, len: usize) -> Bytes {
        let mut out = BytesMut::zeroed(len);
        self.read_into(pa, &mut out);
        out.freeze()
    }

    /// Fills `out` (which must arrive zeroed) with the bytes at physical
    /// address `pa`; unmaterialized ranges are left as they are.
    pub fn read_into(&self, pa: u64, out: &mut [u8]) {
        let mut addr = pa;
        let mut filled = 0usize;
        while filled < out.len() {
            let idx = addr / CHUNK;
            let off = (addr % CHUNK) as usize;
            let n = (out.len() - filled).min(CHUNK as usize - off);
            if let Some(chunk) = self.chunks.get(&idx) {
                out[filled..filled + n].copy_from_slice(&chunk[off..off + n]);
            }
            addr += n as u64;
            filled += n;
        }
    }

    /// Reads the 8-byte little-endian word at `pa` (atomics).
    pub fn read_u64(&self, pa: u64) -> u64 {
        let mut word = [0u8; 8];
        self.read_into(pa, &mut word);
        u64::from_le_bytes(word)
    }

    /// Writes the 8-byte little-endian word at `pa` (atomics).
    pub fn write_u64(&mut self, pa: u64, value: u64) {
        self.write(pa, &value.to_le_bytes());
    }

    /// Zeroes a page being handed to a new owner (the fault handler does
    /// this implicitly; migration uses it explicitly). Cheap: just drops the
    /// materialized chunks.
    pub fn zero_range(&mut self, pa: u64, len: u64) {
        if len == 0 {
            return;
        }
        let first = pa / CHUNK;
        let last = (pa + len - 1) / CHUNK;
        for idx in first..=last {
            let chunk_start = idx * CHUNK;
            let chunk_end = chunk_start + CHUNK;
            if pa <= chunk_start && chunk_end <= pa + len {
                // Whole chunk: drop the allocation.
                if self.chunks.remove(&idx).is_some() {
                    self.resident_bytes -= CHUNK;
                }
            } else if let Some(chunk) = self.chunks.get_mut(&idx) {
                let lo = pa.max(chunk_start) - chunk_start;
                let hi = (pa + len).min(chunk_end) - chunk_start;
                Rc::make_mut(chunk)[lo as usize..hi as usize].fill(0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip() {
        let mut m = PhysMemory::new();
        m.write(100, b"hello");
        assert_eq!(&m.read(100, 5)[..], b"hello");
        assert_eq!(&m.read(99, 7)[..], b"\0hello\0");
    }

    #[test]
    fn cross_chunk_access() {
        let mut m = PhysMemory::new();
        let data: Vec<u8> = (0..=255).collect();
        m.write(CHUNK - 100, &data);
        assert_eq!(&m.read(CHUNK - 100, 256)[..], &data[..]);
        assert_eq!(m.resident_bytes(), 2 * CHUNK);
    }

    #[test]
    fn unmaterialized_reads_zero() {
        let m = PhysMemory::new();
        assert!(m.read(1 << 40, 64).iter().all(|&b| b == 0));
        assert_eq!(m.resident_bytes(), 0);
    }

    #[test]
    fn u64_helpers() {
        let mut m = PhysMemory::new();
        m.write_u64(8, 0xDEAD_BEEF_0123_4567);
        assert_eq!(m.read_u64(8), 0xDEAD_BEEF_0123_4567);
        assert_eq!(m.read_u64(0), 0);
    }

    #[test]
    fn zero_range_clears_and_reclaims() {
        let mut m = PhysMemory::new();
        m.write(0, &[1u8; 3 * CHUNK as usize]);
        assert_eq!(m.resident_bytes(), 3 * CHUNK);
        // Zero the middle chunk fully and part of the first.
        m.zero_range(CHUNK - 10, CHUNK + 10);
        assert_eq!(m.resident_bytes(), 2 * CHUNK, "middle chunk reclaimed");
        assert!(m.read(CHUNK - 10, 10).iter().all(|&b| b == 0));
        assert!(m.read(CHUNK, CHUNK as usize).iter().all(|&b| b == 0));
        assert_eq!(m.read(0, 1)[0], 1, "untouched data survives");
        assert_eq!(m.read(2 * CHUNK, 1)[0], 1);
        m.zero_range(0, 0); // no-op
    }

    #[test]
    fn a_clone_shares_no_chunk_it_writes() {
        // Three chunks of distinct bytes, then a clone; each write below
        // lands on one side only, and the other side must not see it.
        let mut parent = PhysMemory::new();
        for i in 0..3u8 {
            parent.write(u64::from(i) * CHUNK, &[i + 1; CHUNK as usize]);
        }
        let snapshot = |m: &PhysMemory| (m.read(0, 3 * CHUNK as usize), m.resident_bytes());
        type Write = fn(&mut PhysMemory);
        let writes: [(&str, Write); 5] = [
            ("write", |m| m.write(10, b"child")),
            ("write to a fresh chunk", |m| m.write(5 * CHUNK, b"new")),
            ("write_u64", |m| m.write_u64(CHUNK + 8, u64::MAX)),
            ("zero_range part", |m| m.zero_range(2 * CHUNK + 1, 100)),
            ("zero_range whole", |m| m.zero_range(CHUNK, CHUNK)),
        ];
        for (name, write) in writes {
            // The clone writes: the original keeps its bytes.
            let before = snapshot(&parent);
            let mut child = parent.clone();
            write(&mut child);
            assert_ne!(snapshot(&child), before, "{name} changed nothing");
            assert_eq!(snapshot(&parent), before, "{name} in a clone reached the original");
            // The original writes: the clone keeps its bytes.
            let mut original = parent.clone();
            let copy = original.clone();
            write(&mut original);
            assert_eq!(snapshot(&copy), before, "{name} in the original reached a clone");
        }
    }

    #[test]
    fn sparse_usage_stays_sparse() {
        let mut m = PhysMemory::new();
        // Touch one byte every 16 MB over a "4 TB" space.
        for i in 0..16u64 {
            m.write(i * (16 << 20), &[i as u8]);
        }
        assert_eq!(m.resident_bytes(), 16 * CHUNK);
        for i in 0..16u64 {
            assert_eq!(m.read(i * (16 << 20), 1)[0], i as u8);
        }
    }
}
