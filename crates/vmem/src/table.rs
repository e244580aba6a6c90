//! Per-execution-environment page tables.

use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use crate::{Access, Addr, PageIdx, VirtRange, VmemError};

/// An Intel MPK protection key: a 4-bit tag stored in the page table entry
/// (§5.3, "page table entries are tagged using 4 previously ignored bits").
pub type ProtectionKey = u8;

/// Key 0 is the kernel's default key: accessible whenever the page rights
/// allow, like untagged pages on real hardware.
pub const NO_KEY: ProtectionKey = 0;

/// A single page-table entry: present bit, access rights, and MPK key tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageEntry {
    /// Whether the page is mapped in this environment. The VT-x backend
    /// implements `Transfer` by toggling presence bits (§6.1).
    pub present: bool,
    /// Rights granted by this table (independent of the key check).
    pub rights: Access,
    /// MPK protection key tag (0–15).
    pub key: ProtectionKey,
}

impl PageEntry {
    /// A present entry with the given rights and key.
    #[must_use]
    pub fn new(rights: Access, key: ProtectionKey) -> PageEntry {
        PageEntry {
            present: true,
            rights,
            key,
        }
    }
}

/// A page table describing one execution environment's view of the address
/// space.
///
/// * The **VT-x backend** creates one table per enclosure and switches the
///   simulated CR3 between them (§5.3).
/// * The **MPK backend** uses a single shared table whose entries carry key
///   tags; the per-environment state is the PKRU register, which the MPK
///   enforcer holds and checks on top of this table.
///
/// Entries sit in one slot per page, from the lowest page ever mapped up
/// to the highest, so a check indexes instead of searching, like the
/// hardware's page walk. The table name is shared with every fault the
/// table raises.
#[derive(Debug, Clone)]
pub struct PageTable {
    name: Arc<str>,
    /// Page number of `slots[0]`.
    base: u64,
    /// One slot per page from `base` up; `None` is an unmapped page.
    slots: Vec<Option<PageEntry>>,
    /// Number of `Some` slots.
    mapped: usize,
}

impl PageTable {
    /// Creates an empty table named `name` (names appear in fault traces).
    #[must_use]
    pub fn new(name: impl Into<Arc<str>>) -> PageTable {
        PageTable {
            name: name.into(),
            base: 0,
            slots: Vec::new(),
            mapped: 0,
        }
    }

    /// The table's (environment's) name, as its faults carry it.
    #[must_use]
    pub fn name(&self) -> &Arc<str> {
        &self.name
    }

    /// The slots `range` covers, clipped to the slots that exist.
    fn span(&self, range: VirtRange) -> Range<usize> {
        let first = range.start().page().0;
        let end = first + range.page_len();
        let len = self.slots.len() as u64;
        let clip = |page: u64| page.saturating_sub(self.base).min(len) as usize;
        clip(first)..clip(end)
    }

    fn get(&self, page: PageIdx) -> Option<&PageEntry> {
        let i = usize::try_from(page.0.checked_sub(self.base)?).ok()?;
        self.slots.get(i)?.as_ref()
    }

    /// The entries of every page of `range`, or [`VmemError::BadRange`] if
    /// one of them is unmapped.
    fn mapped_mut(
        &mut self,
        range: VirtRange,
        what: &'static str,
    ) -> Result<impl Iterator<Item = &mut PageEntry>, VmemError> {
        let span = self.span(range);
        let slots = &mut self.slots[span];
        if slots.len() as u64 != range.page_len() || slots.iter().any(Option::is_none) {
            return Err(VmemError::BadRange { range, what });
        }
        Ok(slots.iter_mut().flatten())
    }

    /// Maps every page of `range` with `rights` and `key`, replacing any
    /// existing entries. The table grows to cover `range`, downwards too.
    pub fn map_range(&mut self, range: VirtRange, rights: Access, key: ProtectionKey) {
        let pages = range.page_len();
        if pages == 0 {
            return;
        }
        let first = range.start().page().0;
        if self.mapped == 0 {
            self.slots.clear();
            self.base = first;
        }
        if first < self.base {
            let below = (self.base - first) as usize;
            self.slots.splice(0..0, std::iter::repeat_n(None, below));
            self.base = first;
        }
        let end = (first + pages - self.base) as usize;
        if end > self.slots.len() {
            self.slots.resize(end, None);
        }
        let start = end - pages as usize;
        for slot in &mut self.slots[start..end] {
            if slot.is_none() {
                self.mapped += 1;
            }
            *slot = Some(PageEntry::new(rights, key));
        }
    }

    /// Removes every page of `range` from the table.
    pub fn unmap_range(&mut self, range: VirtRange) {
        let span = self.span(range);
        for slot in &mut self.slots[span] {
            if slot.take().is_some() {
                self.mapped -= 1;
            }
        }
    }

    /// Changes the rights of already-mapped pages (simulated `mprotect`).
    ///
    /// # Errors
    ///
    /// Returns [`VmemError::BadRange`] if any page of `range` is unmapped.
    pub fn protect_range(&mut self, range: VirtRange, rights: Access) -> Result<(), VmemError> {
        for entry in self.mapped_mut(range, "protect")? {
            entry.rights = rights;
        }
        Ok(())
    }

    /// Re-tags already-mapped pages with `key` (simulated `pkey_mprotect`).
    ///
    /// # Errors
    ///
    /// Returns [`VmemError::BadRange`] if any page of `range` is unmapped.
    pub fn retag_range(&mut self, range: VirtRange, key: ProtectionKey) -> Result<(), VmemError> {
        for entry in self.mapped_mut(range, "retag")? {
            entry.key = key;
        }
        Ok(())
    }

    /// Sets the presence bit for already-mapped pages. The VT-x backend's
    /// `Transfer` toggles presence instead of rewriting mappings (§6.1).
    ///
    /// # Errors
    ///
    /// Returns [`VmemError::BadRange`] if any page of `range` is unmapped.
    pub fn set_present(&mut self, range: VirtRange, present: bool) -> Result<(), VmemError> {
        for entry in self.mapped_mut(range, "set_present")? {
            entry.present = present;
        }
        Ok(())
    }

    /// Looks up the entry covering `addr`.
    #[must_use]
    pub fn entry(&self, addr: Addr) -> Option<&PageEntry> {
        self.get(addr.page())
    }

    /// The span an access of `len` bytes at `addr` touches: at least the
    /// page at `addr`, or `None` if its end does not fit in 64 bits.
    fn access_span(addr: Addr, len: u64) -> Option<VirtRange> {
        let len = len.max(1);
        addr.checked_add(len).map(|_| VirtRange::new(addr, len))
    }

    /// The page rule: `page` is mapped, present and grants `needed`.
    fn admits(&self, page: PageIdx, needed: Access) -> bool {
        self.get(page)
            .is_some_and(|entry| entry.present && entry.rights.contains(needed))
    }

    /// True if every page of the span `[addr, addr+len)` is mapped,
    /// present and grants `needed`. A zero-length span asks about the
    /// page at `addr`; a span whose end does not fit in 64 bits is
    /// refused. Builds nothing: [`PageTable::check`] names a refusal.
    ///
    /// This is the page-rights half of the access rule; the MPK key/PKRU
    /// half lives in the MPK enforcer, which holds the register.
    #[must_use]
    pub fn permits(&self, addr: Addr, len: u64, needed: Access) -> bool {
        Self::access_span(addr, len)
            .is_some_and(|span| span.pages().all(|p| self.admits(p, needed)))
    }

    /// [`PageTable::permits`], with a refusal named by the first page,
    /// from the lowest, that refuses.
    ///
    /// # Errors
    ///
    /// * [`VmemError::Unmapped`] for absent or non-present pages (at the
    ///   page's base), and at `addr` for a span whose end does not fit in
    ///   64 bits.
    /// * [`VmemError::ProtectionFault`] at `addr` when rights are
    ///   insufficient.
    pub fn check(&self, addr: Addr, len: u64, needed: Access) -> Result<(), VmemError> {
        if self.permits(addr, len, needed) {
            Ok(())
        } else {
            Err(self.denial(addr, len, needed))
        }
    }

    /// Names the refusal of an access [`PageTable::permits`] refused: the
    /// only place a check builds an error, and shares the table's name.
    #[cold]
    fn denial(&self, addr: Addr, len: u64, needed: Access) -> VmemError {
        let unmapped = |addr| VmemError::Unmapped {
            addr,
            table: self.name.clone(),
        };
        let Some(span) = Self::access_span(addr, len) else {
            return unmapped(addr);
        };
        let page = span
            .pages()
            .find(|&p| !self.admits(p, needed))
            .expect("a refused span has a page that refuses");
        match self.get(page) {
            Some(entry) if entry.present => VmemError::ProtectionFault {
                addr,
                needed,
                granted: entry.rights,
                table: self.name.clone(),
            },
            _ => unmapped(page.base()),
        }
    }

    /// Number of mapped pages.
    #[must_use]
    pub fn mapped_pages(&self) -> usize {
        self.mapped
    }
}

impl fmt::Display for PageTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PageTable('{}', {} pages)", self.name, self.mapped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PAGE_SIZE;

    fn range(pages: u64) -> VirtRange {
        VirtRange::new(Addr(0x10_000), pages * PAGE_SIZE)
    }

    #[test]
    fn map_and_check() {
        let mut t = PageTable::new("env");
        t.map_range(range(2), Access::RW, 3);
        assert!(t.check(Addr(0x10_000), 8, Access::R).is_ok());
        assert!(t.check(Addr(0x10_000), 8, Access::W).is_ok());
        assert!(matches!(
            t.check(Addr(0x10_000), 8, Access::X),
            Err(VmemError::ProtectionFault { .. })
        ));
    }

    #[test]
    fn unmapped_pages_fault() {
        let t = PageTable::new("env");
        assert!(matches!(
            t.check(Addr(0x10_000), 1, Access::R),
            Err(VmemError::Unmapped { .. })
        ));
    }

    #[test]
    fn check_spans_multiple_pages() {
        let mut t = PageTable::new("env");
        t.map_range(VirtRange::new(Addr(0x10_000), PAGE_SIZE), Access::R, 0);
        // Second page unmapped: a span crossing into it faults.
        let err = t
            .check(Addr(0x10_000 + PAGE_SIZE - 4), 8, Access::R)
            .unwrap_err();
        assert!(matches!(err, VmemError::Unmapped { .. }));
    }

    #[test]
    fn protect_changes_rights() {
        let mut t = PageTable::new("env");
        t.map_range(range(1), Access::RW, 0);
        t.protect_range(range(1), Access::R).unwrap();
        assert!(matches!(
            t.check(Addr(0x10_000), 1, Access::W),
            Err(VmemError::ProtectionFault { .. })
        ));
    }

    #[test]
    fn protect_unmapped_is_bad_range() {
        let mut t = PageTable::new("env");
        assert!(matches!(
            t.protect_range(range(1), Access::R),
            Err(VmemError::BadRange { .. })
        ));
    }

    #[test]
    fn presence_toggle_behaves_like_vtx_transfer() {
        let mut t = PageTable::new("enclosure");
        t.map_range(range(4), Access::RW, 0);
        t.set_present(range(4), false).unwrap();
        assert!(matches!(
            t.check(Addr(0x10_000), 1, Access::R),
            Err(VmemError::Unmapped { .. })
        ));
        t.set_present(range(4), true).unwrap();
        assert!(t.check(Addr(0x10_000), 1, Access::R).is_ok());
    }

    #[test]
    fn retag_updates_keys() {
        let mut t = PageTable::new("env");
        t.map_range(range(1), Access::RW, 1);
        t.retag_range(range(1), 7).unwrap();
        assert_eq!(t.entry(Addr(0x10_000)).unwrap().key, 7);
    }

    #[test]
    fn unmap_removes_entries() {
        let mut t = PageTable::new("env");
        t.map_range(range(2), Access::R, 0);
        t.unmap_range(range(2));
        assert_eq!(t.mapped_pages(), 0);
    }

    #[test]
    fn table_grows_downwards_and_counts_mapped_pages() {
        let mut t = PageTable::new("env");
        t.map_range(VirtRange::new(Addr(0x20_000), PAGE_SIZE), Access::RW, 1);
        t.map_range(VirtRange::new(Addr(0x10_000), 2 * PAGE_SIZE), Access::R, 2);
        assert_eq!(t.mapped_pages(), 3);
        assert_eq!(t.entry(Addr(0x20_000)).unwrap().key, 1);
        assert_eq!(t.entry(Addr(0x10_000 + PAGE_SIZE)).unwrap().key, 2);
        assert!(t.entry(Addr(0x10_000 + 2 * PAGE_SIZE)).is_none());
        assert!(matches!(
            t.check(Addr(0x10_000 + PAGE_SIZE), 2 * PAGE_SIZE, Access::R),
            Err(VmemError::Unmapped {
                addr: Addr(0x12_000),
                ..
            })
        ));
        // Remapping a mapped page does not count it twice.
        t.map_range(VirtRange::new(Addr(0x20_000), PAGE_SIZE), Access::R, 1);
        assert_eq!(t.mapped_pages(), 3);
        assert_eq!(t.to_string(), "PageTable('env', 3 pages)");
    }

    #[test]
    fn overflowing_spans_are_unmapped() {
        let mut t = PageTable::new("env");
        t.map_range(range(1), Access::RW, 0);
        let wrap = Addr(u64::MAX - 3);
        for len in [8, u64::MAX] {
            let err = t.check(wrap, len, Access::W).unwrap_err();
            assert_eq!(
                err,
                VmemError::Unmapped {
                    addr: wrap,
                    table: "env".into()
                }
            );
        }
        let err = t.check(Addr(0x10_000), u64::MAX, Access::R).unwrap_err();
        assert!(matches!(
            err,
            VmemError::Unmapped {
                addr: Addr(0x10_000),
                ..
            }
        ));
        // Mapping-wide operations on such spans stay bounded.
        t.unmap_range(VirtRange::new(Addr(0x10_000), u64::MAX));
        assert_eq!(t.mapped_pages(), 0);
        assert!(t.protect_range(VirtRange::new(wrap, 8), Access::R).is_err());
    }

    #[test]
    fn faults_share_the_table_name() {
        let t = PageTable::new("env");
        let Err(VmemError::Unmapped { table, .. }) = t.check(Addr(0x10_000), 1, Access::R) else {
            panic!("expected an unmapped fault");
        };
        assert!(Arc::ptr_eq(&table, t.name()));
    }

    #[test]
    fn zero_length_check_still_validates_page() {
        let mut t = PageTable::new("env");
        t.map_range(range(1), Access::R, 0);
        assert!(t.check(Addr(0x10_000), 0, Access::R).is_ok());
        assert!(t.check(Addr(0x20_000), 0, Access::R).is_err());
    }
}
