//! **enclosure-gofront** — the Go-language frontend for enclosures
//! (paper §5.1).
//!
//! Reproduces the paper's 1,000-LOC Go compiler/runtime patch as a
//! pipeline over the simulated substrate:
//!
//! * **Parsing** — [`GoSource`] carries a package's imports, globals,
//!   constants, and `with [Policies]` enclosure declarations; policies are
//!   string literals validated when the program is compiled.
//! * **Compiling** — [`compile()`] turns sources into [`CodeObject`]s: one
//!   `.text`/`.data`/`.rodata` trio per package plus a `.rstrct` record of
//!   its enclosures and direct dependencies.
//! * **Linking** — [`Linker`] assigns addresses (segregating *marked*
//!   packages so no two share pages), computes every enclosure's full
//!   memory view, and emits an [`ElfImage`] with the `.pkgs`, `.rstrct`,
//!   and `.verif` sections of Figure 4.
//! * **Runtime** — [`GoRuntime`] loads the image into a
//!   [`litterbox::LitterBox`], registers function bodies, and provides the
//!   span [allocator](alloc) (with `Transfer` on arena repartitioning),
//!   [goroutines + channels + the scheduler](sched) (with `Execute` on
//!   reschedule), and a trusted stop-the-world [GC](GoRuntime::run_gc).
//!
//! # Example
//!
//! ```
//! use enclosure_gofront::{GoProgram, GoSource, GoValue};
//! use litterbox::Backend;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut program = GoProgram::new();
//! program.add_source(GoSource::new("util").loc(500));
//! program.add_source(
//!     GoSource::new("lib")
//!         .imports(&["util"])
//!         .global("counter", 8)
//!         .loc(2000),
//! );
//! program.add_source(
//!     GoSource::new("main")
//!         .imports(&["lib"])
//!         .enclosure("safe", "lib.Bump", "none"),
//! );
//!
//! let mut rt = program.build(Backend::Mpk)?;
//! rt.register_fn("lib.Bump", |ctx, arg: GoValue| {
//!     let addr = ctx.global_addr("lib.counter");
//!     let v = ctx.lb().load_u64(addr)? + arg.as_int()?;
//!     ctx.lb_mut().store_u64(addr, v)?;
//!     Ok(GoValue::Int(v))
//! });
//!
//! let out = rt.call_enclosed("safe", GoValue::Int(5))?;
//! assert_eq!(out.as_int()?, 5);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
mod compile;
mod link;
mod runtime;
pub mod sched;
mod source;
pub mod stack;
mod value;

pub use compile::{compile, CodeObject};
pub use link::{ElfImage, ElfSectionInfo, Linker};
pub use runtime::{GoCtx, GoProgram, GoRuntime, GO_SCHED_PKG};
pub use sched::{ChanId, GoroutineId, SchedSizes, Step};
pub use source::{EnclosureSrc, GoSource};
pub use value::{GoValue, ValueError};
