//! The Go runtime's dynamic memory allocator, extended for enclosures
//! (§5.1).
//!
//! "Go's dynamic memory allocator divides the heap into class-size
//! sections, called spans … The enclosure-extension adds a level of
//! indirection by dynamically assigning spans to packages' arenas. After
//! adding a span to a given arena, the runtime calls LitterBox's
//! `Transfer`." Freed spans return to a pool and may be reused by a
//! *different* package — which triggers another `Transfer` (§4.2).

use std::collections::BTreeMap;

use enclosure_support::IdMap;

use enclosure_vmem::{Addr, VirtRange, PAGE_SIZE};
use litterbox::{Fault, LitterBox};

/// Span size: 4 pages, matching the paper's `transfer` microbenchmark
/// granularity.
pub const SPAN_PAGES: u64 = 4;
/// Span size in bytes.
pub const SPAN_BYTES: u64 = SPAN_PAGES * PAGE_SIZE;
/// Smallest size class.
pub const MIN_CLASS: u64 = 16;

#[derive(Debug)]
struct Span {
    range: VirtRange,
    class: u64,
    owner: String,
    used: Vec<bool>,
    free_slots: usize,
}

impl Span {
    fn slots(class: u64) -> usize {
        (SPAN_BYTES / class) as usize
    }
}

/// Allocation statistics the evaluation reports on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Spans obtained fresh from the address space.
    pub spans_created: u64,
    /// Spans reused from the free pool without changing owner.
    pub spans_reused_same_owner: u64,
    /// Spans reused from the free pool with a cross-package `Transfer`.
    pub spans_reused_cross_package: u64,
    /// Objects currently live.
    pub live_objects: u64,
    /// Large (multi-span) allocations.
    pub large_allocs: u64,
}

/// The span allocator. One per program; spans are assigned to package
/// arenas on demand.
#[derive(Debug, Default)]
pub struct SpanAllocator {
    spans: Vec<Span>,
    /// (package, class) → spans with free slots.
    partial: IdMap<(String, u64), Vec<usize>>,
    /// Fully free spans, reusable by any package.
    pool: Vec<usize>,
    /// Span start address → span index (for `free`).
    by_addr: BTreeMap<u64, usize>,
    stats: AllocStats,
}

impl SpanAllocator {
    /// A fresh allocator.
    #[must_use]
    pub fn new() -> SpanAllocator {
        SpanAllocator::default()
    }

    /// Current statistics.
    #[must_use]
    pub fn stats(&self) -> AllocStats {
        self.stats
    }

    /// The size class for a request.
    #[must_use]
    pub fn class_of(size: u64) -> u64 {
        size.max(MIN_CLASS).next_power_of_two()
    }

    /// Allocates `size` bytes in `package`'s arena.
    ///
    /// Small objects come from class-size spans; requests larger than a
    /// span get dedicated whole-page regions. Every new or cross-package
    /// span triggers a LitterBox `Transfer` with its backend-specific
    /// cost (Table 1).
    ///
    /// # Errors
    ///
    /// Propagates address-space exhaustion or transfer faults.
    pub fn alloc(&mut self, lb: &mut LitterBox, package: &str, size: u64) -> Result<Addr, Fault> {
        if size == 0 {
            return Err(Fault::Init("zero-size allocation".into()));
        }
        let class = Self::class_of(size);
        if class > SPAN_BYTES {
            // Large allocation: dedicated span-aligned region.
            let pages = size.div_ceil(PAGE_SIZE);
            let range = lb
                .space_mut()
                .alloc(pages * PAGE_SIZE)
                .map_err(Fault::Memory)?;
            lb.transfer(range, None, package)?;
            lb.clock_mut()
                .record(enclosure_telemetry::Event::SpanTransfer {
                    bytes: pages * PAGE_SIZE,
                });
            let idx = self.spans.len();
            self.spans.push(Span {
                range,
                class: 0,
                owner: package.to_owned(),
                used: vec![true],
                free_slots: 0,
            });
            self.by_addr.insert(range.start().0, idx);
            self.stats.large_allocs += 1;
            self.stats.live_objects += 1;
            return Ok(range.start());
        }

        let key = (package.to_owned(), class);
        // 1. A partially used span of the right class.
        if let Some(list) = self.partial.get_mut(&key) {
            while let Some(&idx) = list.last() {
                if self.spans[idx].free_slots > 0 {
                    let addr = Self::take_slot(&mut self.spans[idx]);
                    if self.spans[idx].free_slots == 0 {
                        list.pop();
                    }
                    self.stats.live_objects += 1;
                    return Ok(addr);
                }
                list.pop();
            }
        }

        // 2. Reuse a pooled span (possibly crossing packages).
        let idx = if let Some(idx) = self.pool.pop() {
            let prev_owner = self.spans[idx].owner.clone();
            if prev_owner != package {
                let range = self.spans[idx].range;
                lb.transfer(range, Some(&prev_owner), package)?;
                lb.clock_mut()
                    .record(enclosure_telemetry::Event::SpanTransfer { bytes: SPAN_BYTES });
                self.stats.spans_reused_cross_package += 1;
            } else {
                self.stats.spans_reused_same_owner += 1;
            }
            let span = &mut self.spans[idx];
            span.owner = package.to_owned();
            span.class = class;
            span.used = vec![false; Span::slots(class)];
            span.free_slots = Span::slots(class);
            idx
        } else {
            // 3. A fresh span from the address space.
            let range = lb.space_mut().alloc(SPAN_BYTES).map_err(Fault::Memory)?;
            lb.transfer(range, None, package)?;
            lb.clock_mut()
                .record(enclosure_telemetry::Event::SpanTransfer { bytes: SPAN_BYTES });
            let idx = self.spans.len();
            self.spans.push(Span {
                range,
                class,
                owner: package.to_owned(),
                used: vec![false; Span::slots(class)],
                free_slots: Span::slots(class),
            });
            self.by_addr.insert(range.start().0, idx);
            self.stats.spans_created += 1;
            idx
        };

        let addr = Self::take_slot(&mut self.spans[idx]);
        self.partial.entry(key).or_default().push(idx);
        self.stats.live_objects += 1;
        Ok(addr)
    }

    fn take_slot(span: &mut Span) -> Addr {
        let slot = span
            .used
            .iter()
            .position(|&u| !u)
            .expect("span advertised a free slot");
        span.used[slot] = true;
        span.free_slots -= 1;
        span.range.start() + slot as u64 * span.class
    }

    /// Frees an allocation. Fully drained spans return to the pool for
    /// reuse by any package.
    ///
    /// # Errors
    ///
    /// [`Fault::Init`] for addresses this allocator never produced.
    pub fn free(&mut self, addr: Addr) -> Result<(), Fault> {
        let (&start, &idx) = self
            .by_addr
            .range(..=addr.0)
            .next_back()
            .ok_or_else(|| Fault::Init(format!("free of unallocated address {addr}")))?;
        let span = &mut self.spans[idx];
        if !span.range.contains(addr) {
            return Err(Fault::Init(format!("free of unallocated address {addr}")));
        }
        if span.class == 0 {
            // Large allocation: keep the region owned (arena growth);
            // mark the object dead for GC accounting.
            if span.used[0] {
                span.used[0] = false;
                self.stats.live_objects -= 1;
            }
            return Ok(());
        }
        let offset = addr.0 - start;
        if !offset.is_multiple_of(span.class) {
            return Err(Fault::Init(format!("misaligned free at {addr}")));
        }
        let slot = (offset / span.class) as usize;
        if !span.used[slot] {
            return Err(Fault::Init(format!("double free at {addr}")));
        }
        span.used[slot] = false;
        span.free_slots += 1;
        self.stats.live_objects -= 1;
        let key = (span.owner.clone(), span.class);
        if span.free_slots == span.used.len() {
            if let Some(list) = self.partial.get_mut(&key) {
                list.retain(|&i| i != idx);
            }
            self.pool.push(idx);
        } else if span.free_slots == 1 {
            // The span was full (and therefore popped from the partial
            // list); make its freed slot reachable again.
            let list = self.partial.entry(key).or_default();
            if !list.contains(&idx) {
                list.push(idx);
            }
        }
        Ok(())
    }

    /// Visits every live object (`GC` mark phase): returns the count.
    #[must_use]
    pub fn live_count(&self) -> u64 {
        self.stats.live_objects
    }

    /// The package owning `addr`'s span, if any.
    #[must_use]
    pub fn owner_of(&self, addr: Addr) -> Option<&str> {
        let (_, &idx) = self.by_addr.range(..=addr.0).next_back()?;
        let span = &self.spans[idx];
        span.range.contains(addr).then_some(span.owner.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use litterbox::{Backend, ProgramDesc};

    fn machine(backend: Backend) -> LitterBox {
        let mut lb = LitterBox::new(backend);
        let mut prog = ProgramDesc::new();
        prog.add_package(&mut lb, "a", 1, 1, 1).unwrap();
        prog.add_package(&mut lb, "b", 1, 1, 1).unwrap();
        lb.init(prog).unwrap();
        lb
    }

    #[test]
    fn alloc_returns_distinct_writable_addresses() {
        let mut lb = machine(Backend::Mpk);
        let mut a = SpanAllocator::new();
        let x = a.alloc(&mut lb, "a", 64).unwrap();
        let y = a.alloc(&mut lb, "a", 64).unwrap();
        assert_ne!(x, y);
        lb.store_u64(x, 1).unwrap();
        lb.store_u64(y, 2).unwrap();
        assert_eq!(lb.load_u64(x).unwrap(), 1);
    }

    #[test]
    fn same_class_allocations_share_a_span() {
        let mut lb = machine(Backend::Baseline);
        let mut a = SpanAllocator::new();
        for _ in 0..10 {
            a.alloc(&mut lb, "a", 100).unwrap();
        }
        assert_eq!(a.stats().spans_created, 1, "128B class: 10 fit in one span");
    }

    #[test]
    fn transfers_happen_once_per_span_not_per_object() {
        let mut lb = machine(Backend::Mpk);
        let mut a = SpanAllocator::new();
        let before = lb.stats().transfers;
        for _ in 0..100 {
            a.alloc(&mut lb, "a", 64).unwrap();
        }
        let transfers = lb.stats().transfers - before;
        assert_eq!(transfers, 1, "256 slots of 64B fit in one 16KB span");
    }

    #[test]
    fn cross_package_reuse_triggers_transfer() {
        let mut lb = machine(Backend::Mpk);
        let mut a = SpanAllocator::new();
        let x = a.alloc(&mut lb, "a", 64).unwrap();
        a.free(x).unwrap();
        let before = lb.stats().transfers;
        let y = a.alloc(&mut lb, "b", 64).unwrap();
        assert_eq!(lb.stats().transfers - before, 1);
        assert_eq!(a.owner_of(y), Some("b"));
        assert_eq!(a.stats().spans_reused_cross_package, 1);
    }

    #[test]
    fn same_package_reuse_is_free() {
        let mut lb = machine(Backend::Mpk);
        let mut a = SpanAllocator::new();
        let x = a.alloc(&mut lb, "a", 64).unwrap();
        a.free(x).unwrap();
        let before = lb.stats().transfers;
        a.alloc(&mut lb, "a", 512).unwrap(); // different class, same owner
        assert_eq!(lb.stats().transfers - before, 0);
        assert_eq!(a.stats().spans_reused_same_owner, 1);
    }

    #[test]
    fn large_allocations_get_dedicated_regions() {
        let mut lb = machine(Backend::Vtx);
        let mut a = SpanAllocator::new();
        let x = a.alloc(&mut lb, "a", 1_000_000).unwrap();
        assert_eq!(a.stats().large_allocs, 1);
        assert_eq!(a.owner_of(x), Some("a"));
        lb.store(x + 999_999, &[42]).unwrap();
        a.free(x).unwrap();
        assert_eq!(a.live_count(), 0);
    }

    #[test]
    fn slot_freed_from_a_full_span_is_reused() {
        let mut lb = machine(Backend::Mpk);
        let mut a = SpanAllocator::new();
        // Fill one span completely (256 slots of 64B in 16 KiB), plus one
        // more alloc to force the full span off the partial list.
        let addrs: Vec<_> = (0..257)
            .map(|_| a.alloc(&mut lb, "a", 64).unwrap())
            .collect();
        assert_eq!(a.stats().spans_created, 2);
        // Free a slot from the first (full) span; the next allocation
        // must reuse it instead of creating a third span.
        a.free(addrs[10]).unwrap();
        let reused = a.alloc(&mut lb, "a", 64).unwrap();
        assert_eq!(reused, addrs[10]);
        assert_eq!(a.stats().spans_created, 2, "no new span");
    }

    #[test]
    fn free_catches_bad_addresses() {
        let mut lb = machine(Backend::Baseline);
        let mut a = SpanAllocator::new();
        assert!(a.free(Addr(0x999)).is_err());
        let x = a.alloc(&mut lb, "a", 64).unwrap();
        a.free(x).unwrap();
        assert!(a.free(x).is_err(), "double free detected");
        assert!(a.free(x + 3).is_err(), "misaligned free detected");
    }

    #[test]
    fn class_of_rounds_up() {
        assert_eq!(SpanAllocator::class_of(1), 16);
        assert_eq!(SpanAllocator::class_of(16), 16);
        assert_eq!(SpanAllocator::class_of(17), 32);
        assert_eq!(SpanAllocator::class_of(5000), 8192);
    }

    #[test]
    fn arena_rights_follow_the_span_under_enforcement() {
        // An object allocated for package `a` must be inaccessible from
        // an enclosure that cannot see `a`.
        use enclosure_kernel::seccomp::SysPolicy;
        use enclosure_vmem::Access;
        use litterbox::{EnclosureDesc, EnclosureId};

        let mut lb = LitterBox::new(Backend::Mpk);
        let mut prog = ProgramDesc::new();
        prog.add_package(&mut lb, "a", 1, 1, 1).unwrap();
        prog.add_package(&mut lb, "b", 1, 1, 1).unwrap();
        let cs = prog.verified_callsite();
        prog.add_enclosure(EnclosureDesc {
            id: EnclosureId(1),
            name: "only-b".into(),
            view: [("b".to_string(), Access::RWX)].into_iter().collect(),
            policy: SysPolicy::none(),
            marked: vec![],
        });
        lb.init(prog).unwrap();

        let mut a = SpanAllocator::new();
        let in_a = a.alloc(&mut lb, "a", 64).unwrap();
        let in_b = a.alloc(&mut lb, "b", 64).unwrap();
        let token = lb.prolog(EnclosureId(1), cs).unwrap();
        assert!(lb.load_u64(in_b).is_ok());
        assert!(lb.load_u64(in_a).is_err());
        lb.epilog(token).unwrap();
    }
}
