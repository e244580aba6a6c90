//! Zero-dependency support shims for the offline workspace.
//!
//! The container this reproduction builds in has no registry access, so
//! anything we would normally pull from crates.io lives here instead:
//!
//! * [`json`] — a minimal JSON value type and pretty-printer (replaces
//!   `serde_json` for the `repro` binary and telemetry dumps).
//! * [`rng`] — a deterministic xorshift PRNG (replaces `rand` /
//!   `proptest` strategy sampling).
//! * [`prop`] — a deterministic property-loop harness built on the PRNG
//!   (replaces the `proptest!` macro for our property tests).
//! * [`sync`] — std `Mutex` re-export under the `parking_lot` names the
//!   workspace previously used.
//! * [`pool`] — a scoped fork/join thread pool (replaces `rayon` for
//!   the parallel fleet engine).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod pool;
pub mod prop;
pub mod rng;
pub mod sync;

pub use json::Json;
pub use rng::XorShift;
pub use sync::Shared;
