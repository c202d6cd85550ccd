//! Flat physical memory store.

use crate::addr::PhysAddr;

/// Byte-addressable physical memory.
///
/// The measured machines all had 8 MB; [`PhysicalMemory::new_780`] gives that
/// configuration. Only the prefix up to the highest byte ever written is
/// backed by host memory; every byte above it reads zero. A machine therefore
/// costs the host what its programs touch, not its configured size: a probe
/// system that lays out ~50 KB never zeroes, scans or copies the other
/// megabytes.
#[derive(Debug, Clone)]
pub struct PhysicalMemory {
    /// The written prefix `[0, bytes.len())`.
    bytes: Vec<u8>,
    /// Configured size in bytes; addresses at or above it are out of range.
    size: usize,
}

impl PhysicalMemory {
    /// Memory of `size` bytes, all reading zero.
    pub fn new(size: usize) -> PhysicalMemory {
        PhysicalMemory {
            bytes: Vec::new(),
            size,
        }
    }

    /// The paper's machine configuration: 8 megabytes.
    pub fn new_780() -> PhysicalMemory {
        PhysicalMemory::new(8 << 20)
    }

    /// Total size in bytes.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The backed prefix: every byte at or above its end reads zero. It ends
    /// at the last byte any [`PhysicalMemory::write`] or
    /// [`PhysicalMemory::load`] covered, so it may itself end in zeros.
    pub fn written(&self) -> &[u8] {
        &self.bytes
    }

    #[inline]
    fn idx(&self, pa: PhysAddr) -> usize {
        let i = pa.0 as usize;
        assert!(
            i < self.size,
            "physical address {pa} out of range (memory is {} bytes)",
            self.size
        );
        i
    }

    /// Store `data` at byte `i`, backing the prefix up to its end. Data
    /// that starts at or above the prefix's end is appended, so loading a
    /// boot image into fresh memory writes each byte once.
    fn store(&mut self, i: usize, data: &[u8]) {
        if i >= self.bytes.len() {
            self.bytes.resize(i, 0);
            self.bytes.extend_from_slice(data);
            return;
        }
        let end = i + data.len();
        if end > self.bytes.len() {
            self.bytes.resize(end, 0);
        }
        self.bytes[i..end].copy_from_slice(data);
    }

    /// Copy `out.len()` bytes from byte `i` into `out`, zeros above the
    /// written prefix.
    #[inline]
    fn fetch(&self, i: usize, out: &mut [u8]) {
        let backed = self.bytes.get(i..).unwrap_or(&[]);
        let n = backed.len().min(out.len());
        out[..n].copy_from_slice(&backed[..n]);
        out[n..].fill(0);
    }

    /// Read one byte.
    #[inline]
    pub fn read_u8(&self, pa: PhysAddr) -> u8 {
        let i = self.idx(pa);
        self.bytes.get(i).copied().unwrap_or(0)
    }

    /// Write one byte.
    #[inline]
    pub fn write_u8(&mut self, pa: PhysAddr, v: u8) {
        let i = self.idx(pa);
        self.store(i, &[v]);
    }

    /// Read `size` (1–8) bytes little-endian. The access may span pages;
    /// physical memory is flat so that is fine.
    pub fn read(&self, pa: PhysAddr, size: u32) -> u64 {
        debug_assert!((1..=8).contains(&size));
        let mut buf = [0u8; 8];
        let i = self.idx(pa);
        let end = i + size as usize;
        assert!(end <= self.size, "read spans end of memory");
        match self.bytes.get(i..end) {
            Some(backed) => buf[..size as usize].copy_from_slice(backed),
            None => self.fetch(i, &mut buf[..size as usize]),
        }
        u64::from_le_bytes(buf)
    }

    /// Write the low `size` (1–8) bytes of `v` little-endian.
    pub fn write(&mut self, pa: PhysAddr, size: u32, v: u64) {
        debug_assert!((1..=8).contains(&size));
        let i = self.idx(pa);
        let end = i + size as usize;
        assert!(end <= self.size, "write spans end of memory");
        self.store(i, &v.to_le_bytes()[..size as usize]);
    }

    /// Copy a slice into memory at `pa` (used by loaders).
    pub fn load(&mut self, pa: PhysAddr, data: &[u8]) {
        let i = self.idx(pa);
        assert!(i + data.len() <= self.size, "load spans end of memory");
        self.store(i, data);
    }

    /// Append the `len` bytes at `pa` to `out` (used by instruction fetch).
    pub fn append_to(&self, pa: PhysAddr, len: usize, out: &mut Vec<u8>) {
        let i = self.idx(pa);
        assert!(i + len <= self.size, "slice spans end of memory");
        let start = out.len();
        out.resize(start + len, 0);
        self.fetch(i, &mut out[start..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let mut mem = PhysicalMemory::new(4096);
        mem.write(PhysAddr(100), 4, 0xDEADBEEF);
        assert_eq!(mem.read(PhysAddr(100), 4), 0xDEADBEEF);
        assert_eq!(mem.read(PhysAddr(100), 1), 0xEF);
        assert_eq!(mem.read(PhysAddr(102), 2), 0xDEAD);
    }

    #[test]
    fn quadword() {
        let mut mem = PhysicalMemory::new(4096);
        mem.write(PhysAddr(8), 8, 0x0123_4567_89AB_CDEF);
        assert_eq!(mem.read(PhysAddr(8), 8), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn load_and_append() {
        let mut mem = PhysicalMemory::new(4096);
        mem.load(PhysAddr(0x10), &[1, 2, 3, 4]);
        let mut out = vec![9];
        mem.append_to(PhysAddr(0x10), 4, &mut out);
        assert_eq!(out, [9, 1, 2, 3, 4]);
    }

    #[test]
    fn fresh_memory_reads_zero_and_backs_nothing() {
        let mem = PhysicalMemory::new_780();
        assert_eq!(mem.size(), 8 << 20);
        assert!(mem.written().is_empty());
        assert_eq!(mem.read_u8(PhysAddr((8 << 20) - 1)), 0);
        assert_eq!(mem.read(PhysAddr((8 << 20) - 8), 8), 0);
    }

    #[test]
    fn reads_above_the_written_prefix_are_zero() {
        let mut mem = PhysicalMemory::new(4096);
        mem.write(PhysAddr(0x20), 4, 0x1122_3344);
        assert_eq!(mem.written().len(), 0x24);
        assert_eq!(mem.read(PhysAddr(0x24), 4), 0);
        assert_eq!(mem.read(PhysAddr(0x800), 8), 0);
        assert_eq!(mem.read_u8(PhysAddr(4095)), 0);
        let mut out = Vec::new();
        mem.append_to(PhysAddr(0x100), 3, &mut out);
        assert_eq!(out, [0, 0, 0]);
    }

    #[test]
    fn read_straddling_the_prefix_edge_pads_with_zeros() {
        let mut mem = PhysicalMemory::new(4096);
        mem.load(PhysAddr(0x40), &[0xAA, 0xBB, 0xCC]);
        assert_eq!(mem.written().len(), 0x43);
        // Two written bytes, then two bytes above the prefix.
        assert_eq!(mem.read(PhysAddr(0x41), 4), 0x0000_CCBB);
        assert_eq!(mem.read(PhysAddr(0x3F), 8), 0x0000_0000_CCBB_AA00);
        let mut out = Vec::new();
        mem.append_to(PhysAddr(0x42), 4, &mut out);
        assert_eq!(out, [0xCC, 0, 0, 0]);
    }

    #[test]
    fn write_and_load_extend_the_prefix() {
        let mut mem = PhysicalMemory::new(4096);
        mem.write_u8(PhysAddr(10), 7);
        assert_eq!(mem.written().len(), 11);
        // A write of zero extends the prefix too; the gap reads zero.
        mem.write(PhysAddr(100), 2, 0);
        assert_eq!(mem.written().len(), 102);
        mem.load(PhysAddr(200), &[5, 6]);
        assert_eq!(mem.written().len(), 202);
        // A write inside the prefix leaves its end alone.
        mem.write(PhysAddr(20), 4, 0xFFFF_FFFF);
        assert_eq!(mem.written().len(), 202);
        assert_eq!(mem.read_u8(PhysAddr(10)), 7);
        assert_eq!(mem.read(PhysAddr(19), 4), 0x00FF_FFFF << 8);
        assert_eq!(mem.read(PhysAddr(199), 4), 0x0006_0500);
        // A write straddling the edge keeps the bytes below it.
        mem.write(PhysAddr(201), 4, 0x0403_0201);
        assert_eq!(mem.written().len(), 205);
        assert_eq!(mem.read(PhysAddr(200), 5), 0x04_0302_0105);
    }

    #[test]
    #[should_panic(expected = "physical address 0x00000040 out of range (memory is 64 bytes)")]
    fn oob_panics() {
        let mem = PhysicalMemory::new(64);
        let _ = mem.read_u8(PhysAddr(64));
    }

    #[test]
    #[should_panic(expected = "out of range (memory is 64 bytes)")]
    fn oob_write_panics() {
        let mut mem = PhysicalMemory::new(64);
        mem.write_u8(PhysAddr(64), 1);
    }

    #[test]
    #[should_panic(expected = "read spans end of memory")]
    fn read_past_end_panics() {
        let mem = PhysicalMemory::new(64);
        let _ = mem.read(PhysAddr(62), 4);
    }

    #[test]
    #[should_panic(expected = "write spans end of memory")]
    fn write_past_end_panics() {
        let mut mem = PhysicalMemory::new(64);
        mem.write(PhysAddr(62), 4, 0);
    }

    #[test]
    #[should_panic(expected = "load spans end of memory")]
    fn load_past_end_panics() {
        let mut mem = PhysicalMemory::new(64);
        mem.load(PhysAddr(60), &[0; 8]);
    }

    #[test]
    #[should_panic(expected = "slice spans end of memory")]
    fn append_past_end_panics() {
        let mem = PhysicalMemory::new(64);
        mem.append_to(PhysAddr(60), 8, &mut Vec::new());
    }

    #[test]
    fn default_size() {
        assert_eq!(PhysicalMemory::new_780().size(), 8 << 20);
    }
}
