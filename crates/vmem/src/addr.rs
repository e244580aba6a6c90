//! Typed virtual addresses, page indices, and ranges.

use std::fmt;
use std::ops::{Add, Sub};

/// log2 of the page size (4 KiB pages, as on x86-64).
pub const PAGE_SHIFT: u32 = 12;

/// Size of a simulated page in bytes.
pub const PAGE_SIZE: u64 = 1 << PAGE_SHIFT;

/// A virtual address inside the simulated address space.
///
/// `Addr` is a plain 64-bit value with page arithmetic helpers; it cannot be
/// confused with lengths or page indices thanks to the newtype.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// The zero address. Never mapped; useful as a sentinel.
    pub const NULL: Addr = Addr(0);

    /// Returns the page this address falls on.
    #[must_use]
    pub fn page(self) -> PageIdx {
        PageIdx(self.0 >> PAGE_SHIFT)
    }

    /// Byte offset of this address within its page.
    #[must_use]
    pub fn page_offset(self) -> u64 {
        self.0 & (PAGE_SIZE - 1)
    }

    /// True if the address is page aligned.
    #[must_use]
    pub fn is_page_aligned(self) -> bool {
        self.page_offset() == 0
    }

    /// Checked addition of a byte offset.
    #[must_use]
    pub fn checked_add(self, rhs: u64) -> Option<Addr> {
        self.0.checked_add(rhs).map(Addr)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl Add<u64> for Addr {
    type Output = Addr;
    fn add(self, rhs: u64) -> Addr {
        Addr(self.0 + rhs)
    }
}

impl Sub<Addr> for Addr {
    type Output = u64;
    fn sub(self, rhs: Addr) -> u64 {
        self.0 - rhs.0
    }
}

impl From<u64> for Addr {
    fn from(v: u64) -> Self {
        Addr(v)
    }
}

/// Index of a virtual page (address divided by [`PAGE_SIZE`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageIdx(pub u64);

impl PageIdx {
    /// The address of the first byte of this page.
    #[must_use]
    pub fn base(self) -> Addr {
        Addr(self.0 << PAGE_SHIFT)
    }

    /// The page immediately after this one.
    #[must_use]
    pub fn next(self) -> PageIdx {
        PageIdx(self.0 + 1)
    }
}

impl fmt::Display for PageIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "page#{}", self.0)
    }
}

/// Number of pages needed to hold `len` bytes.
#[must_use]
pub fn page_count(len: u64) -> u64 {
    len.div_ceil(PAGE_SIZE)
}

/// A half-open `[start, start + len)` range of virtual addresses.
///
/// Ranges produced by [`crate::AddressSpace::alloc`] are always page aligned;
/// arbitrary sub-ranges can be formed with [`VirtRange::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtRange {
    start: Addr,
    len: u64,
}

impl VirtRange {
    /// Creates a range starting at `start` spanning `len` bytes.
    #[must_use]
    pub fn new(start: Addr, len: u64) -> VirtRange {
        VirtRange { start, len }
    }

    /// First address of the range.
    #[must_use]
    pub fn start(&self) -> Addr {
        self.start
    }

    /// One past the last address of the range. A range whose end does
    /// not fit in 64 bits ends at the top address, as `end_page` stops at
    /// the top page.
    #[must_use]
    pub fn end(&self) -> Addr {
        Addr(self.start.0.saturating_add(self.len))
    }

    /// Length of the range in bytes.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if the range is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True if `addr` falls inside the range. Measured from the start,
    /// so a range whose end does not fit in 64 bits still holds every
    /// address from its start up.
    #[must_use]
    pub fn contains(&self, addr: Addr) -> bool {
        addr.0
            .checked_sub(self.start.0)
            .is_some_and(|off| off < self.len)
    }

    /// True if the two ranges share at least one byte: the later start
    /// falls inside the earlier range.
    #[must_use]
    pub fn overlaps(&self, other: &VirtRange) -> bool {
        let (first, second) = if self.start <= other.start {
            (self, other)
        } else {
            (other, self)
        };
        !second.is_empty() && first.contains(second.start)
    }

    /// True if both endpoints are page aligned.
    #[must_use]
    pub fn is_page_aligned(&self) -> bool {
        self.start.is_page_aligned() && self.len.is_multiple_of(PAGE_SIZE)
    }

    /// One past the index of the last page the range touches. A range
    /// whose end does not fit in 64 bits stops at the top page.
    fn end_page(&self) -> u64 {
        let first = self.start.page().0;
        match self.len {
            0 => first,
            len => Addr(self.start.0.saturating_add(len - 1)).page().0 + 1,
        }
    }

    /// Iterates over every page the range touches (up to the top page of
    /// the address space, for a range that would wrap).
    pub fn pages(&self) -> impl Iterator<Item = PageIdx> {
        (self.start.page().0..self.end_page()).map(PageIdx)
    }

    /// Number of pages [`VirtRange::pages`] yields.
    #[must_use]
    pub fn page_len(&self) -> u64 {
        self.end_page() - self.start.page().0
    }
}

impl fmt::Display for VirtRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:#x}, {:#x})", self.start.0, self.end().0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_page_math() {
        let a = Addr(PAGE_SIZE * 3 + 17);
        assert_eq!(a.page(), PageIdx(3));
        assert_eq!(a.page_offset(), 17);
        assert!(!a.is_page_aligned());
        assert!(a.page().base().is_page_aligned());
    }

    #[test]
    fn page_idx_base_roundtrip() {
        let p = PageIdx(42);
        assert_eq!(p.base().page(), p);
        assert_eq!(p.next(), PageIdx(43));
    }

    #[test]
    fn page_count_rounding() {
        assert_eq!(page_count(0), 0);
        assert_eq!(page_count(1), 1);
        assert_eq!(page_count(PAGE_SIZE), 1);
        assert_eq!(page_count(PAGE_SIZE + 1), 2);
    }

    #[test]
    fn range_contains_and_overlap() {
        let r = VirtRange::new(Addr(0x1000), 0x2000);
        assert!(r.contains(Addr(0x1000)));
        assert!(r.contains(Addr(0x2fff)));
        assert!(!r.contains(Addr(0x3000)));

        let s = VirtRange::new(Addr(0x2fff), 1);
        assert!(r.overlaps(&s));
        let t = VirtRange::new(Addr(0x3000), 0x1000);
        assert!(!r.overlaps(&t));
    }

    #[test]
    fn empty_range_never_overlaps() {
        let e = VirtRange::new(Addr(0x1000), 0);
        let r = VirtRange::new(Addr(0x0), 0x10000);
        assert!(!e.overlaps(&r));
        assert!(!r.overlaps(&e));
        assert_eq!(e.page_len(), 0);
    }

    #[test]
    fn range_pages_iteration() {
        let r = VirtRange::new(Addr(PAGE_SIZE - 1), 2);
        let pages: Vec<_> = r.pages().collect();
        assert_eq!(pages, vec![PageIdx(0), PageIdx(1)]);
        assert_eq!(r.page_len(), 2);
    }

    #[test]
    fn ranges_past_the_top_saturate() {
        let top = VirtRange::new(Addr(0xffff_ffff_ffff_f000), 0x2000);
        assert_eq!(top.end(), Addr(u64::MAX));
        assert!(top.contains(Addr(u64::MAX)));
        assert!(!top.contains(Addr(0xffff_ffff_ffff_efff)));
        assert_eq!(top.to_string(), "[0xfffffffffffff000, 0xffffffffffffffff)");
        let below = VirtRange::new(Addr(0xffff_ffff_ffff_e000), 0x1000);
        assert!(!top.overlaps(&below) && !below.overlaps(&top));
        let last = VirtRange::new(Addr(u64::MAX), 1);
        assert!(top.overlaps(&last) && last.overlaps(&top));
        let all = VirtRange::new(Addr(0), u64::MAX);
        assert!(all.overlaps(&top) && top.overlaps(&all));
        assert!(!all.overlaps(&VirtRange::new(Addr(u64::MAX), 0)));
    }

    #[test]
    fn wrapping_ranges_stop_at_the_top_page() {
        let top = PageIdx(u64::MAX >> PAGE_SHIFT);
        let r = VirtRange::new(Addr(u64::MAX - 3), 8);
        assert_eq!(r.pages().collect::<Vec<_>>(), vec![top]);
        assert_eq!(r.page_len(), 1);
        let all = VirtRange::new(Addr(PAGE_SIZE), u64::MAX);
        assert_eq!(all.page_len(), top.0);
        assert_eq!(all.pages().next(), Some(PageIdx(1)));
    }
}
