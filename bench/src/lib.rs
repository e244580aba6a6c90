//! **enclosure-perf** — the reproduction's benchmark. It measures two
//! clocks and names the clock of every number: host seconds say how
//! fast the simulator runs, simulated nanoseconds come from the paper's
//! cost model and compare exactly. Every layer is measured from outside,
//! by timing calls into the public API of the repository's crates.
//!
//! * [`catalog`] — the workloads and metrics (`BENCHMARK.json`).
//! * [`run`] — one measured run of one workload, with its output checks.
//! * [`suite`] — rounds of runs, each in a fresh child process.
//! * [`ledger`] — the simulated-cost ledger behind the `sim.*` metrics.
//! * [`timed`] — the `Timed<W>` wrapper behind the `fleet.*` host metrics.
//! * [`table1`] — host time of the paper's Table 1 loops.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod json;
pub mod ledger;
pub mod run;
pub mod stats;
pub mod suite;
pub mod table1;
pub mod timed;

use enclosure_support::Json;

/// The line a run prints last on standard output.
#[must_use]
pub fn result_line(outcome: &run::Outcome) -> String {
    Json::obj([
        ("correct", Json::Bool(outcome.failures.is_empty())),
        ("attempted", Json::U64(outcome.attempted)),
        ("failed", Json::U64(outcome.failed)),
        (
            "metrics",
            Json::obj(outcome.metrics.iter().map(|(m, v)| {
                (
                    m.name,
                    Json::obj([("value", Json::F64(*v)), ("unit", Json::from(m.unit))]),
                )
            })),
        ),
    ])
    .to_compact()
}
