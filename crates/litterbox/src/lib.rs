//! **LitterBox** — the language-independent enforcement backend for
//! enclosure policies (paper §4–§5.3).
//!
//! A language frontend (the `enclosure-gofront` / `enclosure-pyfront`
//! crates) describes the program to LitterBox — its packages, sections,
//! enclosures, and verified API call-sites — and LitterBox enforces each
//! enclosure's *memory view* and *system-call filter* with one of three
//! simulated mechanisms. Each is one file behind one enforcer trait and
//! owns its mechanism's state; all of them charge the machine's
//! [`Clock`](enclosure_hw::Clock):
//!
//! * [`Backend::Mpk`] — Intel Memory Protection Keys: one shared page
//!   table whose entries carry 4-bit keys (one per *meta-package*, see
//!   [`cluster`]), the live PKRU register, and a PKRU value per
//!   execution environment. Syscalls are filtered by a compiled
//!   seccomp-BPF program indexed on PKRU.
//! * [`Backend::Vtx`] — Intel VT-x: one page table per environment
//!   behind CR3, switches as guest syscalls rewriting CR3, host syscalls
//!   proxied via VM EXIT hypercalls and filtered by the guest OS.
//! * [`Backend::Proc`] — process sandboxes: one lazily forked child
//!   process per enclosure and the supervisor's spawn ledger, crossings
//!   priced as IPC round-trips, enclosed syscalls proxied to the
//!   supervisor behind per-process seccomp filters.
//! * [`Backend::Baseline`] — no enforcement; vanilla closures. This is the
//!   paper's evaluation baseline.
//!
//! The API mirrors the paper's six calls:
//! [`LitterBox::init`], [`LitterBox::prolog`], [`LitterBox::epilog`],
//! [`LitterBox::filter_syscall`], [`LitterBox::transfer`], and
//! [`LitterBox::execute`].
//!
//! # Example
//!
//! ```
//! use litterbox::{Backend, EnclosureDesc, EnclosureId, LitterBox, PackageDesc, ProgramDesc};
//! use enclosure_kernel::seccomp::SysPolicy;
//! use enclosure_vmem::Access;
//!
//! # fn main() -> Result<(), litterbox::Fault> {
//! let mut lb = LitterBox::new(Backend::Mpk);
//! let mut prog = ProgramDesc::new();
//! let pkg = prog.add_package(&mut lb, "libfx", 2, 1, 2)?; // text/ro/data pages
//! let callsite = prog.verified_callsite();
//! prog.add_enclosure(EnclosureDesc {
//!     id: EnclosureId(1),
//!     name: "rcl".into(),
//!     view: [("libfx".to_string(), Access::RWX)].into_iter().collect(),
//!     policy: SysPolicy::none(),
//!     marked: vec!["libfx".into()],
//! });
//! lb.init(prog)?;
//!
//! let token = lb.prolog(EnclosureId(1), callsite)?;
//! assert!(lb.load(pkg.data_start(), 8).is_ok());      // own package: ok
//! lb.epilog(token)?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod batch;
pub mod cluster;
pub mod deps;
mod desc;
mod fault;
mod gateway;
mod machine;
pub mod scan;

pub use backend::mpk::KeyLedger;
pub use batch::{BatchOp, BatchReply, Completion, CompletionToken, GatewayMode};
pub use desc::{EnclosureDesc, EnclosureId, PackageDesc, PackageLayout, ProgramDesc, ViewMap};
pub use fault::{Fault, SysError};
pub use machine::{
    Backend, EnvContext, LitterBox, MpkKeyMode, SwitchToken, LB_SUPER_PKG, LB_USER_PKG,
};

pub use enclosure_hw::{EnvId, InjectionPlan, InjectionSite, TRUSTED_ENV};
