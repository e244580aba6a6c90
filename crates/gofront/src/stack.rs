//! Split stacks (§5.1): "the Go scheduler enclosure-extension … relies
//! on split-stacks to isolate frames preceding the enclosure's call."
//!
//! Every enclosure invocation pushes a fresh stack *segment* owned by the
//! enclosure's entry package (so the enclosed code can use it), while the
//! caller's frames stay in segments owned by the hidden `go.runtime`
//! package — unmapped in every enclosure view. A malicious closure that
//! scrapes the stack for caller secrets (the classic in-process
//! info-leak) faults instead.

use enclosure_support::IdMap;
use enclosure_vmem::{Addr, VirtRange, PAGE_SIZE};
use litterbox::{Fault, LitterBox};

/// The hidden package owning non-enclosed stack segments. Registered by
/// the linker; never part of any enclosure view.
pub const RUNTIME_STACK_PKG: &str = "go.runtime";

/// Pages per stack segment (Go's initial goroutine stack is 8 KiB).
pub const SEGMENT_PAGES: u64 = 2;

#[derive(Debug, Clone)]
struct Segment {
    range: VirtRange,
    bump: u64,
    owner: String,
}

/// The split-stack manager: a stack of segments plus per-owner reuse
/// pools. Pools are keyed by owning package so that re-entering the same
/// enclosure reuses a segment *already mapped in its view* — no
/// `Transfer` on the hot path, matching the paper's 86 ns call cost
/// (which plainly contains no `pkey_mprotect`).
#[derive(Debug, Default)]
pub struct SplitStack {
    segments: Vec<Segment>,
    pools: IdMap<String, Vec<VirtRange>>,
}

impl SplitStack {
    /// A fresh manager with no segments.
    #[must_use]
    pub fn new() -> SplitStack {
        SplitStack::default()
    }

    /// Number of live segments.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.segments.len()
    }

    fn obtain(&mut self, lb: &mut LitterBox, owner: &str) -> Result<VirtRange, Fault> {
        if let Some(range) = self.pools.get_mut(owner).and_then(Vec::pop) {
            return Ok(range); // already owned by `owner`: no Transfer
        }
        let range = lb
            .space_mut()
            .alloc(SEGMENT_PAGES * PAGE_SIZE)
            .map_err(Fault::Memory)?;
        lb.transfer(range, None, owner)?;
        Ok(range)
    }

    /// Pushes a new segment owned by `owner` (the enclosure's entry
    /// package on a Prolog; `go.runtime` for trusted frames).
    ///
    /// # Errors
    ///
    /// Allocation or transfer faults.
    pub fn push_segment(&mut self, lb: &mut LitterBox, owner: &str) -> Result<(), Fault> {
        let range = self.obtain(lb, owner)?;
        self.segments.push(Segment {
            range,
            bump: 0,
            owner: owner.to_owned(),
        });
        Ok(())
    }

    /// Pops the top segment (Epilog). The segment stays owned by its
    /// package in that package's pool — like Go's goroutine-stack reuse —
    /// so the next entry into the same enclosure pays no `Transfer`, and
    /// the pop touches no machine state.
    ///
    /// # Errors
    ///
    /// [`Fault::Init`] when no segment is live.
    pub fn pop_segment(&mut self) -> Result<(), Fault> {
        let segment = self
            .segments
            .pop()
            .ok_or_else(|| Fault::Init("split-stack underflow".into()))?;
        self.pools
            .entry(segment.owner)
            .or_default()
            .push(segment.range);
        Ok(())
    }

    /// Allocates `size` bytes of frame-local storage in the top segment,
    /// creating a trusted base segment on first use.
    ///
    /// # Errors
    ///
    /// [`Fault::Init`] on segment overflow (the simulation does not grow
    /// stacks); allocation faults.
    pub fn frame_alloc(&mut self, lb: &mut LitterBox, size: u64) -> Result<Addr, Fault> {
        if self.segments.is_empty() {
            self.push_segment(lb, RUNTIME_STACK_PKG)?;
        }
        let segment = self.segments.last_mut().expect("just ensured");
        let size = size.next_multiple_of(8);
        if segment.bump + size > segment.range.len() {
            return Err(Fault::Init(format!(
                "stack segment overflow: {size} bytes requested, {} free",
                segment.range.len() - segment.bump
            )));
        }
        let addr = segment.range.start() + segment.bump;
        segment.bump += size;
        Ok(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use litterbox::{Backend, ProgramDesc};

    fn machine() -> LitterBox {
        let mut lb = LitterBox::new(Backend::Mpk);
        let mut prog = ProgramDesc::new();
        prog.add_package(&mut lb, RUNTIME_STACK_PKG, 1, 1, 1)
            .unwrap();
        prog.add_package(&mut lb, "libfx", 1, 1, 1).unwrap();
        lb.init(prog).unwrap();
        lb
    }

    #[test]
    fn frame_alloc_bumps_within_a_segment() {
        let mut lb = machine();
        let mut stack = SplitStack::new();
        let a = stack.frame_alloc(&mut lb, 16).unwrap();
        let b = stack.frame_alloc(&mut lb, 24).unwrap();
        assert_eq!(b, a + 16);
        assert_eq!(stack.depth(), 1);
        lb.store_u64(a, 1).unwrap();
    }

    #[test]
    fn segments_nest_and_pop_in_order() {
        let mut lb = machine();
        let mut stack = SplitStack::new();
        stack.frame_alloc(&mut lb, 8).unwrap(); // base
        stack.push_segment(&mut lb, "libfx").unwrap();
        let inner = stack.frame_alloc(&mut lb, 8).unwrap();
        assert_eq!(lb.package_at(inner), Some("libfx"));
        stack.pop_segment().unwrap();
        assert_eq!(
            lb.package_at(inner),
            Some("libfx"),
            "popped segment stays pooled under its owner for cheap reuse"
        );
        assert_eq!(stack.depth(), 1);
    }

    #[test]
    fn same_owner_reuse_is_transfer_free() {
        let mut lb = machine();
        let mut stack = SplitStack::new();
        stack.push_segment(&mut lb, "libfx").unwrap();
        stack.pop_segment().unwrap();
        let transfers_before = lb.stats().transfers;
        let pages_before = lb.space().page_len();
        stack.push_segment(&mut lb, "libfx").unwrap();
        assert_eq!(
            lb.stats().transfers - transfers_before,
            0,
            "re-entering the same enclosure is transfer-free"
        );
        assert_eq!(lb.space().page_len(), pages_before, "no fresh allocation");
    }

    #[test]
    fn underflow_and_overflow_are_faults() {
        let mut lb = machine();
        let mut stack = SplitStack::new();
        assert!(stack.pop_segment().is_err());
        assert!(stack
            .frame_alloc(&mut lb, SEGMENT_PAGES * PAGE_SIZE + 8)
            .is_err());
    }
}
