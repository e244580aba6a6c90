//! Simulated hardware for the Enclosure reproduction: the clock and
//! cost model every isolation mechanism is priced by, and the MPK
//! primitives the LB_MPK backend is built from.
//!
//! The mechanisms themselves — LB_MPK's live PKRU register, LB_VTX's
//! per-environment page tables behind CR3, LB_PROC's sandbox children —
//! are state of their enforcer in the `litterbox` crate, one file per
//! backend. This crate holds what they share:
//!
//! * [`Clock`] and [`CostModel`] — simulated time and the price of each
//!   primitive (WRPKRU, CR3 write, VM EXIT, `fork`, pipe message, ...);
//! * [`InjectionPlan`] — seeded fault injection at each mechanism's
//!   sites;
//! * **Intel MPK** (§5.3) — the [`mpk::Pkru`] register encoding (access
//!   and write-disable bits for each of 16 keys), the hardware
//!   [`mpk::KeyAllocator`], and the libmpk-style [`VirtualKeyTable`];
//! * [`EnvId`], which every backend keys its state by, and the
//!   [`SpawnRecord`]s of LB_PROC's spawn ledger.
//!
//! Because the reproduction runs without the real hardware, time is
//! *simulated*: every mechanism primitive advances a [`Clock`] by a cost
//! taken from a [`CostModel`] whose constants are calibrated from the
//! paper's Table 1 microbenchmarks (Xeon Gold 6132). Macro-level results
//! (Table 2) are then *derived* from these primitives rather than
//! hard-coded, which is what lets the reproduction preserve the paper's
//! crossovers (MPK cheap switches / expensive transfers; VT-x cheap
//! transfers / expensive syscalls).
//!
//! # Example
//!
//! ```
//! use enclosure_hw::{mpk::Pkru, Clock, CostModel};
//! use enclosure_vmem::Access;
//!
//! let mut clock = Clock::new(CostModel::paper());
//! let mut pkru = Pkru::allow_all();
//! pkru.set_key_rights(3, Access::NONE); // lock key 3
//! clock.charge_wrpkru();
//! assert!(!pkru.allows(3, Access::R));
//! assert!(pkru.allows(2, Access::RW));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod cost;
mod env;
pub mod inject;
pub mod mpk;
pub mod vkey;

pub use clock::{Clock, HwStats};
pub use cost::CostModel;
pub use env::{EnvId, SpawnRecord, TRUSTED_ENV};
pub use inject::{InjectionPlan, InjectionSite};
pub use vkey::{VirtualKey, VirtualKeyTable, VkeyLedger};
