//! The program's single virtual address space: backing pages indexed by
//! page number plus a bump region allocator standing in for `mmap`.

use crate::{Addr, VirtRange, VmemError, PAGE_SHIFT, PAGE_SIZE};

/// Base of the allocatable region. Low addresses stay unmapped so that
/// null-ish pointers fault, as on a real OS.
const ALLOC_BASE: u64 = 0x0000_1000_0000;

/// Exclusive top of the allocatable region (mirrors VT-x's 40-bit physical
/// address ceiling the paper works around in §5.3).
const ALLOC_TOP: u64 = 1 << 40;

/// Bytes in the words `read_u64` and `write_u64` move.
const WORD: usize = 8;

/// The simulated program's virtual address space.
///
/// One `AddressSpace` backs the whole program; execution environments differ
/// only in their [`crate::PageTable`] view of it. Pages are zero-filled on
/// allocation, like anonymous `mmap`. Regions are handed out contiguously
/// from the base of the allocatable region and never freed, so the backed
/// bytes are exactly `[ALLOC_BASE, top)` and page `i` of the region lives in
/// slot `i`: finding a page is an index, not a search.
#[derive(Debug, Default)]
pub struct AddressSpace {
    /// Slot `i` backs the page at `ALLOC_BASE + i * PAGE_SIZE`.
    pages: Vec<Box<[u8]>>,
}

impl AddressSpace {
    /// Creates an empty address space.
    #[must_use]
    pub fn new() -> AddressSpace {
        AddressSpace::default()
    }

    /// One past the last backed byte: where the next region starts.
    fn top(&self) -> u64 {
        ALLOC_BASE + ((self.pages.len() as u64) << PAGE_SHIFT)
    }

    fn slot(addr: Addr) -> Option<usize> {
        usize::try_from(addr.0.checked_sub(ALLOC_BASE)? >> PAGE_SHIFT).ok()
    }

    /// Whether every byte of `range` is backed: it lies within
    /// `[ALLOC_BASE, top)`, its end inside 64 bits. An empty range is
    /// backed where it starts inside that span or at its top.
    #[must_use]
    pub fn backs(&self, range: VirtRange) -> bool {
        range.start().0 >= ALLOC_BASE
            && range
                .start()
                .0
                .checked_add(range.len())
                .is_some_and(|end| end <= self.top())
    }

    /// The page backing `addr`. The error is built only on a miss: an
    /// eagerly built one would be dropped on every hit.
    fn page(&self, addr: Addr) -> Result<&[u8], VmemError> {
        match Self::slot(addr).and_then(|i| self.pages.get(i)) {
            Some(page) => Ok(page),
            None => Err(VmemError::NotBacked { addr }),
        }
    }

    fn page_mut(&mut self, addr: Addr) -> Result<&mut [u8], VmemError> {
        match Self::slot(addr).and_then(|i| self.pages.get_mut(i)) {
            Some(page) => Ok(page),
            None => Err(VmemError::NotBacked { addr }),
        }
    }

    /// `addr`'s offset in its page, if the 8-byte word there lies inside
    /// that one page.
    fn word_offset(addr: Addr) -> Option<usize> {
        let off = addr.page_offset() as usize;
        (off + WORD <= PAGE_SIZE as usize).then_some(off)
    }

    /// Allocates a fresh page-aligned region of at least `len` bytes
    /// (rounded up to whole pages) and backs it with zeroed pages.
    ///
    /// This is the simulated `mmap`: regions are never reused, so a dangling
    /// reference into a freed region faults instead of aliasing new data.
    ///
    /// # Errors
    ///
    /// Returns [`VmemError::OutOfAddressSpace`] if the 40-bit region is
    /// exhausted.
    pub fn alloc(&mut self, len: u64) -> Result<VirtRange, VmemError> {
        let len = len
            .max(1)
            .checked_next_multiple_of(PAGE_SIZE)
            .ok_or(VmemError::OutOfAddressSpace)?;
        let start = self.top();
        let end = start
            .checked_add(len)
            .filter(|&end| end <= ALLOC_TOP)
            .ok_or(VmemError::OutOfAddressSpace)?;
        let slots = Self::slot(Addr(end)).ok_or(VmemError::OutOfAddressSpace)?;
        self.pages
            .resize_with(slots, || vec![0u8; PAGE_SIZE as usize].into_boxed_slice());
        Ok(VirtRange::new(Addr(start), len))
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`VmemError::NotBacked`] if any touched page has no backing.
    pub fn read(&self, addr: Addr, buf: &mut [u8]) -> Result<(), VmemError> {
        let mut cursor = addr;
        let mut filled = 0usize;
        while filled < buf.len() {
            let page = self.page(cursor)?;
            let off = cursor.page_offset() as usize;
            let take = ((PAGE_SIZE as usize) - off).min(buf.len() - filled);
            buf[filled..filled + take].copy_from_slice(&page[off..off + take]);
            filled += take;
            cursor = Addr(cursor.0 + take as u64);
        }
        Ok(())
    }

    /// Convenience wrapper over [`AddressSpace::read`] returning a fresh
    /// buffer. The span is checked before the buffer is allocated, so an
    /// unbacked span of any length costs nothing.
    ///
    /// # Errors
    ///
    /// Same as [`AddressSpace::read`].
    pub fn read_vec(&self, addr: Addr, len: u64) -> Result<Vec<u8>, VmemError> {
        if len > 0 {
            // Backed bytes are contiguous: the span is backed iff its first
            // byte is and it ends by the top. If not, `read` faults at the top.
            self.page(addr)?;
            let top = self.top();
            if addr.checked_add(len).is_none_or(|end| end.0 > top) {
                return Err(VmemError::NotBacked { addr: Addr(top) });
            }
        }
        let mut buf = vec![0u8; len as usize];
        self.read(addr, &mut buf)?;
        Ok(buf)
    }

    /// Reads a little-endian `u64` at `addr`: one fixed 8-byte copy when
    /// the word lies inside one page, [`AddressSpace::read`] otherwise.
    ///
    /// # Errors
    ///
    /// Same as [`AddressSpace::read`].
    pub fn read_u64(&self, addr: Addr) -> Result<u64, VmemError> {
        let mut word = [0u8; WORD];
        match Self::word_offset(addr) {
            Some(off) => word.copy_from_slice(&self.page(addr)?[off..off + WORD]),
            None => self.read(addr, &mut word)?,
        }
        Ok(u64::from_le_bytes(word))
    }

    /// Writes `data` starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`VmemError::NotBacked`] if any touched page has no backing;
    /// in that case a prefix of the write may have landed (like a partial
    /// store before a fault).
    pub fn write(&mut self, addr: Addr, data: &[u8]) -> Result<(), VmemError> {
        let mut cursor = addr;
        let mut written = 0usize;
        while written < data.len() {
            let page = self.page_mut(cursor)?;
            let off = cursor.page_offset() as usize;
            let take = ((PAGE_SIZE as usize) - off).min(data.len() - written);
            page[off..off + take].copy_from_slice(&data[written..written + take]);
            written += take;
            cursor = Addr(cursor.0 + take as u64);
        }
        Ok(())
    }

    /// Writes a little-endian `u64` at `addr`, in one copy when the word
    /// lies inside one page.
    ///
    /// # Errors
    ///
    /// Same as [`AddressSpace::write`].
    pub fn write_u64(&mut self, addr: Addr, value: u64) -> Result<(), VmemError> {
        let word = value.to_le_bytes();
        match Self::word_offset(addr) {
            Some(off) => {
                self.page_mut(addr)?[off..off + WORD].copy_from_slice(&word);
                Ok(())
            }
            None => self.write(addr, &word),
        }
    }

    /// Fills `len` bytes at `addr` with `byte`.
    ///
    /// # Errors
    ///
    /// Same as [`AddressSpace::write`].
    pub fn fill(&mut self, addr: Addr, len: u64, byte: u8) -> Result<(), VmemError> {
        // Page-at-a-time to avoid a giant temporary.
        let mut cursor = addr;
        let mut remaining = len;
        while remaining > 0 {
            let page = self.page_mut(cursor)?;
            let off = cursor.page_offset();
            let take = (PAGE_SIZE - off).min(remaining);
            page[off as usize..(off + take) as usize].fill(byte);
            remaining -= take;
            cursor = Addr(cursor.0 + take);
        }
        Ok(())
    }

    /// Number of backed pages.
    #[must_use]
    pub fn page_len(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_page_aligned_and_zeroed() {
        let mut s = AddressSpace::new();
        let r = s.alloc(10).unwrap();
        assert!(r.is_page_aligned());
        assert_eq!(r.len(), PAGE_SIZE);
        assert_eq!(s.read_vec(r.start(), 10).unwrap(), vec![0u8; 10]);
    }

    #[test]
    fn alloc_regions_never_overlap() {
        let mut s = AddressSpace::new();
        let a = s.alloc(PAGE_SIZE).unwrap();
        let b = s.alloc(3 * PAGE_SIZE).unwrap();
        assert!(!a.overlaps(&b));
    }

    #[test]
    fn write_read_roundtrip_across_pages() {
        let mut s = AddressSpace::new();
        let r = s.alloc(3 * PAGE_SIZE).unwrap();
        let data: Vec<u8> = (0..=255).cycle().take(5000).collect();
        let at = r.start() + (PAGE_SIZE - 100);
        s.write(at, &data).unwrap();
        assert_eq!(s.read_vec(at, 5000).unwrap(), data);
    }

    #[test]
    fn u64_roundtrip() {
        let mut s = AddressSpace::new();
        let r = s.alloc(PAGE_SIZE).unwrap();
        s.write_u64(r.start() + 8, 0xdead_beef_cafe).unwrap();
        assert_eq!(s.read_u64(r.start() + 8).unwrap(), 0xdead_beef_cafe);
    }

    #[test]
    fn words_at_every_page_offset_match_byte_access() {
        let mut s = AddressSpace::new();
        let r = s.alloc(2 * PAGE_SIZE).unwrap();
        for off in [
            0,
            8,
            PAGE_SIZE - 9,
            PAGE_SIZE - 8,
            PAGE_SIZE - 7,
            PAGE_SIZE - 1,
        ] {
            let at = r.start() + off;
            let value = 0x0102_0304_0506_0708 ^ off;
            s.write_u64(at, value).unwrap();
            assert_eq!(s.read_vec(at, 8).unwrap(), value.to_le_bytes(), "{off}");
            assert_eq!(s.read_u64(at).unwrap(), value, "{off}");
        }
        // A word crossing into unbacked memory faults at the top, after
        // its in-page prefix landed; one wholly past the top faults at
        // its own address.
        let last = r.start() + (2 * PAGE_SIZE - 4);
        let top = Addr(last.0 + 4);
        assert_eq!(
            s.write_u64(last, u64::MAX),
            Err(VmemError::NotBacked { addr: top })
        );
        assert_eq!(s.read_vec(last, 4).unwrap(), vec![0xff; 4]);
        assert_eq!(s.read_u64(last), Err(VmemError::NotBacked { addr: top }));
        assert_eq!(s.read_u64(top), Err(VmemError::NotBacked { addr: top }));
        assert_eq!(
            s.write_u64(top + 8, 1),
            Err(VmemError::NotBacked { addr: top + 8 })
        );
    }

    #[test]
    fn fill_spans_pages() {
        let mut s = AddressSpace::new();
        let r = s.alloc(2 * PAGE_SIZE).unwrap();
        s.fill(r.start() + 10, PAGE_SIZE + 20, 0xAB).unwrap();
        let v = s.read_vec(r.start() + 10, PAGE_SIZE + 20).unwrap();
        assert!(v.iter().all(|&b| b == 0xAB));
        assert_eq!(s.read_vec(r.start(), 10).unwrap(), vec![0u8; 10]);
    }

    #[test]
    fn page_len_counts_allocated_pages() {
        let mut s = AddressSpace::new();
        assert_eq!(s.page_len(), 0);
        s.alloc(3 * PAGE_SIZE).unwrap();
        s.alloc(1).unwrap();
        assert_eq!(s.page_len(), 4);
    }

    #[test]
    fn default_starts_at_the_allocation_base() {
        let a = AddressSpace::default().alloc(1).unwrap();
        assert_eq!(a, AddressSpace::new().alloc(1).unwrap());
        assert_eq!(a.start(), Addr(ALLOC_BASE));
        assert!(matches!(
            AddressSpace::default().read_vec(Addr::NULL, 1),
            Err(VmemError::NotBacked { addr: Addr::NULL })
        ));
    }

    #[test]
    fn backs_exactly_the_allocated_region() {
        let mut s = AddressSpace::new();
        let r = s.alloc(2 * PAGE_SIZE).unwrap();
        assert!(s.backs(r));
        assert!(s.backs(VirtRange::new(r.start() + PAGE_SIZE, PAGE_SIZE)));
        assert!(s.backs(VirtRange::new(r.end(), 0)), "empty at the top");
        for unbacked in [
            VirtRange::new(r.start(), 3 * PAGE_SIZE),
            VirtRange::new(r.end(), PAGE_SIZE),
            VirtRange::new(Addr(ALLOC_BASE - PAGE_SIZE), PAGE_SIZE),
            VirtRange::new(Addr::NULL, 0),
            VirtRange::new(Addr(0xffff_ffff_ffff_e000), PAGE_SIZE),
            VirtRange::new(Addr(0xffff_ffff_ffff_f000), 2 * PAGE_SIZE),
        ] {
            assert!(!s.backs(unbacked), "{unbacked}");
        }
    }

    #[test]
    fn oversized_allocations_are_out_of_address_space() {
        let mut s = AddressSpace::new();
        for len in [ALLOC_TOP, u64::MAX - 1, u64::MAX] {
            assert_eq!(s.alloc(len), Err(VmemError::OutOfAddressSpace), "{len}");
        }
        assert_eq!(s.page_len(), 0);
    }

    #[test]
    fn spans_that_overflow_or_outgrow_the_space_are_not_backed() {
        let mut s = AddressSpace::new();
        let r = s.alloc(2 * PAGE_SIZE).unwrap();
        let top = r.start() + 2 * PAGE_SIZE;
        let wrap = Addr(u64::MAX - 3);
        assert_eq!(
            s.read_vec(wrap, 8),
            Err(VmemError::NotBacked { addr: wrap })
        );
        assert_eq!(s.read_u64(wrap), Err(VmemError::NotBacked { addr: wrap }));
        assert_eq!(
            s.write(wrap, &[1; 8]),
            Err(VmemError::NotBacked { addr: wrap })
        );
        assert_eq!(s.fill(wrap, 8, 1), Err(VmemError::NotBacked { addr: wrap }));
        // Checked before the buffer exists: no 16 TiB allocation.
        assert_eq!(
            s.read_vec(r.start(), 1 << 44),
            Err(VmemError::NotBacked { addr: top })
        );
        assert_eq!(
            s.read_vec(r.start() + 8, u64::MAX),
            Err(VmemError::NotBacked { addr: top })
        );
        assert_eq!(
            s.read_vec(Addr(ALLOC_TOP), 1 << 44),
            Err(VmemError::NotBacked {
                addr: Addr(ALLOC_TOP)
            })
        );
        // The space still serves normal accesses.
        s.write_u64(r.start(), 7).unwrap();
        assert_eq!(s.read_u64(r.start()).unwrap(), 7);
        assert_eq!(s.read_vec(wrap, 0).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn partial_write_faults_at_boundary() {
        let mut s = AddressSpace::new();
        let r = s.alloc(PAGE_SIZE).unwrap();
        // Write starting near the end of the only backed page.
        let at = r.start() + (PAGE_SIZE - 4);
        let err = s.write(at, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap_err();
        assert!(matches!(err, VmemError::NotBacked { .. }));
        // The in-page prefix landed.
        assert_eq!(s.read_vec(at, 4).unwrap(), vec![1, 2, 3, 4]);
    }
}
