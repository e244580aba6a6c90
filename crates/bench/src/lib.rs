//! **enclosure-bench** — the experiment harness.
//!
//! One module per paper artifact:
//!
//! * [`micro`] — Table 1 (call / transfer / syscall per backend);
//! * [`macrobench`] — Table 2 (bild, HTTP, FastHTTP raw + slowdowns) and
//!   its benchmark-information columns;
//! * [`wiki_exp`] — the §6.3 / Figure 5 usability study;
//! * [`chaos_exp`] — the deterministic fault-injection soak (containment
//!   and graceful degradation under chaos);
//! * [`batching_exp`] — the batched-gateway study (charged crossing tax
//!   per request, unbatched vs async arms at 1 and 8 workers);
//! * [`fleet_exp`] — fleet-scale serving: N wiki shards behind the
//!   health-checking load balancer, with failover, retry budgets, and
//!   fleet-level chaos;
//! * [`monitor_exp`] — the SLO-monitoring study: the fleet with windowed
//!   sampling and burn-rate alerting armed (the kill-one-shard
//!   rehearsal where the advisory signal must lead the ejection), plus
//!   the single-machine flight-recorder arm;
//! * [`python_exp`] — the §6.4 Python experiments (conservative vs
//!   decoupled metadata, switch counts, init share);
//! * [`security_exp`] — the §6.5 attack/defense matrix;
//! * [`ablation`] — design-choice studies (meta-package clustering,
//!   default-policy annotation burden, enclosure scoping vs
//!   switch-per-call, VT-x switch mechanism);
//! * [`trace_export`] — Chrome trace-event / folded-stack export of the
//!   span tree recorded while serving the wiki workload;
//! * [`report`] — table rendering shared by the `repro` binary.
//!
//! Every number is *simulated time* from the calibrated cost model. The
//! wall-clock cost of the simulation itself is measured by the separate
//! `enclosure-perf` package in the repository's top-level `bench/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod batching_exp;
pub mod chaos_exp;
pub mod fleet_exp;
pub mod macrobench;
pub mod micro;
pub mod monitor_exp;
pub mod python_exp;
pub mod report;
pub mod security_exp;
pub mod trace_export;
pub mod wiki_exp;

pub use litterbox::Backend;

/// The paper's three configurations, in Table 2 column order.
pub const PAPER_BACKENDS: [Backend; 3] = [Backend::Baseline, Backend::Mpk, Backend::Vtx];

/// The measured configurations, in Table 1/2 column order: the paper's
/// three plus the LB_PROC process-sandbox fallback.
pub const BACKENDS: [Backend; 4] = [Backend::Baseline, Backend::Mpk, Backend::Vtx, Backend::Proc];
