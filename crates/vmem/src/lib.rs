//! Simulated paged virtual memory for the Enclosure / LitterBox reproduction.
//!
//! The paper's enforcement story is defined entirely in terms of
//! page-granularity access rights inside a single virtual address space
//! (§2.3: "packages cannot share memory pages"). This crate provides that
//! substrate in software:
//!
//! * [`Addr`], [`PageIdx`], [`VirtRange`] — typed addresses and ranges.
//! * [`Access`] — R/W/X permission bits.
//! * [`Section`] — a contiguous, page-aligned region with default rights
//!   (LitterBox's *section* abstraction, §4.1).
//! * [`AddressSpace`] — the program's sparse backing memory plus a bump
//!   region allocator (the simulated `mmap`).
//! * [`PageTable`] — a per-execution-environment view: present bit,
//!   rights, and a 4-bit protection key per page (used by the MPK backend).
//!
//! Every memory access performed anywhere in the reproduction flows through
//! [`AddressSpace::read`] / [`AddressSpace::write`] (or their `u64` and
//! `fill` variants) after a permission check against the active
//! [`PageTable`], so an enclosure policy violation faults exactly where the
//! hardware would fault. Instruction fetches are checked per cross-package
//! call, as the view's `X` right.
//!
//! # Example
//!
//! ```
//! use enclosure_vmem::{Access, AddressSpace, PageTable, PAGE_SIZE};
//!
//! # fn main() -> Result<(), enclosure_vmem::VmemError> {
//! let mut space = AddressSpace::new();
//! let range = space.alloc(2 * PAGE_SIZE)?;
//! space.write(range.start(), b"hello")?;
//!
//! let mut table = PageTable::new("demo");
//! table.map_range(range, Access::R, 0);
//! table.check(range.start(), 5, Access::R)?; // ok
//! assert!(table.check(range.start(), 5, Access::W).is_err());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod access;
mod addr;
mod error;
mod section;
mod space;
mod table;

pub use access::Access;
pub use addr::{page_count, Addr, PageIdx, VirtRange, PAGE_SHIFT, PAGE_SIZE};
pub use error::VmemError;
pub use section::{Section, SectionKind};
pub use space::AddressSpace;
pub use table::{PageEntry, PageTable, ProtectionKey, NO_KEY};
