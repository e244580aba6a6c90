//! Model-based tests: `PageTable` and `AddressSpace` against the obvious
//! data structures (a map of page entries, an array of bytes), over
//! random operation sequences.

use std::collections::BTreeMap;
use std::sync::Arc;

use enclosure_support::XorShift;
use enclosure_vmem::{
    Access, Addr, AddressSpace, PageEntry, PageIdx, PageTable, VirtRange, VmemError, PAGE_SHIFT,
    PAGE_SIZE,
};

/// First page of the window the table tests draw from. Operations land
/// anywhere in it, so a table's first mapping is rarely its lowest page.
const WINDOW: u64 = 0x400;
const WINDOW_PAGES: u64 = 24;

fn random_access(rng: &mut XorShift) -> Access {
    Access::from_bits_truncate(rng.range_u8(0, 8))
}

/// A range in the window: any offset into its first page, zero to four
/// pages long.
fn random_range(rng: &mut XorShift) -> VirtRange {
    let page = PageIdx(rng.range_u64(WINDOW, WINDOW + WINDOW_PAGES));
    let offset = if rng.next_bool() {
        0
    } else {
        rng.range_u64(0, PAGE_SIZE)
    };
    VirtRange::new(page.base() + offset, rng.range_u64(0, 4 * PAGE_SIZE + 1))
}

/// A span to check: zero-length, a few bytes, many pages (over holes),
/// or one whose end does not fit in 64 bits.
fn random_span(rng: &mut XorShift) -> (Addr, u64) {
    let addr = PageIdx(rng.range_u64(WINDOW - 2, WINDOW + WINDOW_PAGES + 2)).base()
        + rng.range_u64(0, PAGE_SIZE);
    match rng.range_u64(0, 8) {
        0 => (addr, 0),
        1 => (
            Addr(u64::MAX - rng.range_u64(0, 2 * PAGE_SIZE)),
            rng.range_u64(1, 3 * PAGE_SIZE),
        ),
        2..=4 => (addr, rng.range_u64(1, 17)),
        _ => (addr, rng.range_u64(1, 6 * PAGE_SIZE)),
    }
}

type TableModel = BTreeMap<PageIdx, PageEntry>;

/// What `PageTable::check` promises: pages in order from the lowest;
/// an absent or non-present page is `Unmapped` at its base, missing
/// rights a `ProtectionFault` at `addr`, and a span whose end does not
/// fit in 64 bits `Unmapped` at `addr`.
fn model_check(
    model: &TableModel,
    name: &Arc<str>,
    addr: Addr,
    len: u64,
    needed: Access,
) -> Result<(), VmemError> {
    let table = name.clone();
    let Some(end) = addr.0.checked_add(len.max(1)) else {
        return Err(VmemError::Unmapped { addr, table });
    };
    for page in (addr.0 >> PAGE_SHIFT)..=((end - 1) >> PAGE_SHIFT) {
        match model.get(&PageIdx(page)) {
            Some(entry) if entry.present => {
                if !entry.rights.contains(needed) {
                    return Err(VmemError::ProtectionFault {
                        addr,
                        needed,
                        granted: entry.rights,
                        table,
                    });
                }
            }
            _ => {
                return Err(VmemError::Unmapped {
                    addr: PageIdx(page).base(),
                    table,
                })
            }
        }
    }
    Ok(())
}

/// Applies `f` to every entry of `range` if all of its pages are mapped.
fn model_update(
    model: &mut TableModel,
    range: VirtRange,
    what: &'static str,
    f: impl Fn(&mut PageEntry),
) -> Result<(), VmemError> {
    if !range.pages().all(|p| model.contains_key(&p)) {
        return Err(VmemError::BadRange { range, what });
    }
    for page in range.pages() {
        f(model.get_mut(&page).expect("checked above"));
    }
    Ok(())
}

/// The byte array an `AddressSpace` promises: `bytes[i]` is the byte at
/// `base + i`, and nothing else is backed.
struct SpaceModel {
    base: u64,
    bytes: Vec<u8>,
}

impl SpaceModel {
    fn top(&self) -> u64 {
        self.base + self.bytes.len() as u64
    }

    fn backed(&self, addr: u64) -> bool {
        (self.base..self.top()).contains(&addr)
    }

    /// The part of `[addr, addr + len)` that lands, and the fault, if any:
    /// an unbacked first byte faults at once, a span running past the top
    /// lands up to it and faults there.
    fn reach(&self, addr: Addr, len: u64) -> (std::ops::Range<usize>, Result<(), VmemError>) {
        let at = addr.0.wrapping_sub(self.base) as usize;
        if len == 0 {
            return (0..0, Ok(()));
        }
        if !self.backed(addr.0) {
            return (0..0, Err(VmemError::NotBacked { addr }));
        }
        match addr.0.checked_add(len).filter(|&end| end <= self.top()) {
            Some(end) => (at..(end - self.base) as usize, Ok(())),
            None => (
                at..self.bytes.len(),
                Err(VmemError::NotBacked {
                    addr: Addr(self.top()),
                }),
            ),
        }
    }

    fn read(&self, addr: Addr, len: u64) -> Result<Vec<u8>, VmemError> {
        let (span, result) = self.reach(addr, len);
        result.map(|()| self.bytes[span].to_vec())
    }
}

/// An address near the backed bytes (one page either side), or one whose
/// span would wrap.
fn random_addr(rng: &mut XorShift, model: &SpaceModel) -> Addr {
    if rng.range_u64(0, 16) == 0 {
        return Addr(u64::MAX - rng.range_u64(0, 16));
    }
    Addr(rng.range_u64(model.base - PAGE_SIZE, model.top() + PAGE_SIZE))
}

fn random_len(rng: &mut XorShift) -> u64 {
    match rng.range_u64(0, 8) {
        0 => 0,
        1 => 1 << 44,
        2..=4 => rng.range_u64(1, 17),
        _ => rng.range_u64(1, 3 * PAGE_SIZE),
    }
}

enclosure_support::props! {
    /// A page table agrees with a map of page entries on every mapping
    /// operation's result, every entry, and every check: `Ok` or `Err`,
    /// the variant, the address, the rights and the table name, and
    /// `permits` says `Ok` exactly where the check does.
    fn page_table_matches_a_map_of_entries(rng, cases = 64) {
        let name: Arc<str> = "model".into();
        let mut table = PageTable::new(name.clone());
        let mut model = TableModel::new();
        for _ in 0..rng.range_usize(1, 24) {
            let range = random_range(rng);
            match rng.range_u64(0, 6) {
                0 | 1 => {
                    let (rights, key) = (random_access(rng), rng.range_u8(0, 16));
                    table.map_range(range, rights, key);
                    for page in range.pages() {
                        model.insert(page, PageEntry::new(rights, key));
                    }
                }
                2 => {
                    table.unmap_range(range);
                    for page in range.pages() {
                        model.remove(&page);
                    }
                }
                3 => {
                    let rights = random_access(rng);
                    assert_eq!(
                        table.protect_range(range, rights),
                        model_update(&mut model, range, "protect", |e| e.rights = rights)
                    );
                }
                4 => {
                    let key = rng.range_u8(0, 16);
                    assert_eq!(
                        table.retag_range(range, key),
                        model_update(&mut model, range, "retag", |e| e.key = key)
                    );
                }
                _ => {
                    let present = rng.next_bool();
                    assert_eq!(
                        table.set_present(range, present),
                        model_update(&mut model, range, "set_present", |e| e.present = present)
                    );
                }
            }
            assert_eq!(table.mapped_pages(), model.len());
        }
        for page in WINDOW - 2..WINDOW + WINDOW_PAGES + 2 {
            let page = PageIdx(page);
            assert_eq!(table.entry(page.base()), model.get(&page), "{page}");
        }
        for _ in 0..32 {
            let (addr, len) = random_span(rng);
            let needed = random_access(rng);
            let expected = model_check(&model, &name, addr, len, needed);
            assert_eq!(
                table.permits(addr, len, needed),
                expected.is_ok(),
                "permits({addr}, {len}, {needed})"
            );
            assert_eq!(
                table.check(addr, len, needed),
                expected,
                "check({addr}, {len}, {needed})"
            );
        }
    }

    /// An address space agrees with a byte array on every allocation,
    /// read, write and fill, word-sized ones included: the bytes, `Ok` or
    /// `Err`, and the faulting address. Writes and fills that run past
    /// the top land up to it.
    fn address_space_matches_a_byte_array(rng, cases = 64) {
        let mut space = AddressSpace::new();
        let first = space.alloc(rng.range_u64(0, 2 * PAGE_SIZE)).unwrap();
        let mut model = SpaceModel {
            base: first.start().0,
            bytes: vec![0; first.len() as usize],
        };
        for _ in 0..rng.range_usize(1, 32) {
            match rng.range_u64(0, 8) {
                0 => {
                    let len = rng.range_u64(0, 3 * PAGE_SIZE);
                    let range = space.alloc(len).unwrap();
                    assert_eq!(range.start(), Addr(model.top()));
                    assert_eq!(range.len(), len.max(1).div_ceil(PAGE_SIZE) * PAGE_SIZE);
                    model.bytes.resize(model.bytes.len() + range.len() as usize, 0);
                }
                1 | 2 => {
                    let (addr, len) = (random_addr(rng, &model), random_len(rng));
                    assert_eq!(space.read_vec(addr, len), model.read(addr, len), "read({addr}, {len})");
                }
                3 => {
                    // Half the words sit near a page's end, where one
                    // can straddle two pages.
                    let mut addr = random_addr(rng, &model);
                    if rng.next_bool() {
                        addr = Addr((addr.0 | (PAGE_SIZE - 1)) - rng.range_u64(0, 12));
                    }
                    if rng.next_bool() {
                        let value = rng.next_u64();
                        let (span, result) = model.reach(addr, 8);
                        let landed = span.len();
                        model.bytes[span].copy_from_slice(&value.to_le_bytes()[..landed]);
                        assert_eq!(space.write_u64(addr, value), result, "write_u64({addr})");
                    } else {
                        assert_eq!(space.read_u64(addr), model.read(addr, 8).map(|b| {
                            u64::from_le_bytes(b.try_into().expect("eight bytes"))
                        }), "read_u64({addr})");
                    }
                }
                4 | 5 => {
                    let addr = random_addr(rng, &model);
                    let len = rng.range_usize(0, 2 * PAGE_SIZE as usize);
                    let data = rng.bytes(len);
                    let (span, result) = model.reach(addr, len as u64);
                    let landed = span.len();
                    model.bytes[span].copy_from_slice(&data[..landed]);
                    assert_eq!(space.write(addr, &data), result, "write({addr}, {len})");
                }
                _ => {
                    let (addr, len, byte) = (random_addr(rng, &model), random_len(rng), rng.range_u8(0, 255));
                    let (span, result) = model.reach(addr, len);
                    model.bytes[span].fill(byte);
                    assert_eq!(space.fill(addr, len, byte), result, "fill({addr}, {len})");
                }
            }
        }
        assert_eq!(space.page_len() as u64, model.bytes.len() as u64 / PAGE_SIZE);
        let len = model.bytes.len() as u64;
        assert_eq!(space.read_vec(Addr(model.base), len).unwrap(), model.bytes);
    }
}
