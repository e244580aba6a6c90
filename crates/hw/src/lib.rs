//! Simulated hardware for the Enclosure reproduction: the clock and
//! cost model every isolation mechanism is priced by.
//!
//! The mechanisms themselves — LB_MPK's protection keys and live PKRU
//! register, LB_VTX's per-environment page tables behind CR3, LB_PROC's
//! sandbox children — are state of their enforcer in the `litterbox`
//! crate, one file per backend. This crate holds what they share:
//!
//! * [`Clock`] and [`CostModel`] — simulated time and the price of each
//!   primitive (WRPKRU, CR3 write, VM EXIT, `fork`, pipe message, ...);
//! * [`InjectionPlan`] — seeded fault injection at each mechanism's
//!   sites;
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
//! use enclosure_hw::{Clock, CostModel};
//!
//! let mut clock = Clock::new(CostModel::paper());
//! clock.charge_wrpkru(); // an LB_MPK switch: one WRPKRU
//! clock.charge_vm_exit(); // an LB_VTX syscall: one VM EXIT round trip
//! assert_eq!(clock.now_ns(), 20 + 3_739);
//! assert_eq!(clock.stats().wrpkru, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod cost;
mod env;
pub mod inject;

pub use clock::{Clock, HwStats};
pub use cost::CostModel;
pub use env::{EnvId, SpawnRecord, TRUSTED_ENV};
pub use inject::{InjectionPlan, InjectionSite};
