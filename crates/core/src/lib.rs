//! **enclosure-core** — the enclosure programming-language construct
//! (paper §2–§3).
//!
//! An *enclosure* binds a dynamically scoped memory view and a set of
//! allowed system calls to a closure:
//!
//! ```text
//! Stmt        ::= with [Policies] ClosureDef
//! Policies    ::= MemModifiers, SysFilter
//! MemModifiers::= (pkg: U | R | RW | RWX)*
//! SysFilter   ::= none | all | (net | io | file | mem | ...)*
//! ```
//!
//! This crate is the language-independent half of frontend support: the
//! policy grammar ([`Policy`]), default-policy view computation
//! ([`compute_view`], §3.1), and the reusable [`Enclosure`] handle whose
//! `call` performs the prolog/epilog switches through
//! [`litterbox::LitterBox`]. The `enclosure-gofront` and
//! `enclosure-pyfront` crates build the Go- and Python-shaped frontends
//! on top of it.
//!
//! # Example — Figure 1's `rcl` enclosure
//!
//! ```
//! use enclosure_core::{App, Enclosure, Policy};
//! use litterbox::Backend;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut app = App::builder("main")
//!     .package("main", &["img", "libfx", "secrets", "os"])
//!     .package("img", &[])
//!     .package("libfx", &["img"])
//!     .package("secrets", &["os"])
//!     .package("os", &[])
//!     .build(Backend::Mpk)?;
//!
//! // `with [secrets: R, none] func(img) { ... }`
//! let mut rcl = Enclosure::declare(
//!     &mut app,
//!     "rcl",
//!     &["libfx", "img"],
//!     Policy::parse("secrets: R, none")?,
//!     |ctx, n: u64| {
//!         // Runs restricted: may read `secrets`, cannot write it,
//!         // cannot touch `main`/`os`, cannot make system calls.
//!         let secret_addr = ctx.data_start("secrets");
//!         let v = ctx.lb.load_u64(secret_addr)?;
//!         Ok(n + v)
//!     },
//! )?;
//!
//! app.lb.store_u64(app.info.data_start("secrets"), 41)?;
//! assert_eq!(rcl.call(&mut app, 1)?, 42);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod app;
mod enclosure;
mod policy;
mod view;

pub use app::{App, AppBuilder, AppInfo};
pub use enclosure::{Enclosure, EnclosureCtx};
pub use policy::{Policy, PolicyError};
pub use view::compute_view;
