//! Every workload at smoke size: each run passes its output checks and
//! emits every declared metric, the simulated metrics repeat exactly
//! across runs, and the `sim.*` ledger sums exactly to `sim_ns_per_op`.

use enclosure_perf::catalog::{self, Clock, WORKLOADS};
use enclosure_perf::run::{self, Outcome, RunConfig, Scale};

fn run(workload: &'static str, trace: bool) -> Outcome {
    let outcome = run::run(&RunConfig {
        workload,
        seed: 805_381,
        seconds: 0.0,
        trace,
        scale: Scale::SMOKE,
    })
    .unwrap_or_else(|e| panic!("{workload}: {e}"));
    assert_eq!(outcome.failures, Vec::<String>::new(), "{workload}");
    assert_eq!(outcome.failed, 0, "{workload}");
    assert!(outcome.attempted > 0, "{workload}");
    let expected: Vec<&str> = catalog::METRICS
        .iter()
        .filter(|m| m.is_end_to_end() != trace)
        .map(|m| m.name)
        .collect();
    let emitted: Vec<&str> = outcome.metrics.iter().map(|(m, _)| m.name).collect();
    assert_eq!(emitted, expected, "{workload}");
    for (m, v) in &outcome.metrics {
        assert!(v.is_finite(), "{workload}: {} = {v}", m.name);
        if m.is_end_to_end() {
            assert!(*v > 0.0, "{workload}: end-to-end {} is {v}", m.name);
        }
    }
    outcome
}

fn value(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|(m, _)| m.name == name)
        .map(|(_, v)| *v)
        .unwrap_or_else(|| panic!("no {name}"))
}

fn smoke(workload: &'static str) {
    let a = run(workload, false);
    let b = run(workload, false);
    for (m, v) in &a.metrics {
        if m.clock == Clock::Sim {
            assert_eq!(
                v.to_bits(),
                value(&b, m.name).to_bits(),
                "{workload}: {}",
                m.name
            );
        }
    }

    // The ledger: each backend's parts sum exactly to its simulated
    // nanoseconds, and the per-op parts to sim_ns_per_op.
    let traced = run(workload, true);
    assert!(
        !traced.ledgers.is_empty(),
        "{workload}: a traced run builds the ledger"
    );
    for ledger in &traced.ledgers {
        assert_eq!(
            ledger.parts_ns.iter().sum::<u64>(),
            ledger.total_ns,
            "{workload}"
        );
    }
    let per_op = value(&a, "sim_ns_per_op");
    let parts: f64 = traced
        .metrics
        .iter()
        .filter(|(m, _)| m.layer == "sim")
        .map(|(_, v)| v)
        .sum();
    assert!(
        (parts - per_op).abs() <= 1e-9 * per_op,
        "{workload}: {parts} vs {per_op}"
    );
}

#[test]
fn fleet_wiki_mpk() {
    smoke(WORKLOADS[0].name);
}

#[test]
fn fleet_fasthttp_mixed() {
    smoke(WORKLOADS[1].name);
}

#[test]
fn fleet_wiki_chaos() {
    smoke(WORKLOADS[2].name);
}

#[test]
fn python_plot_vtx() {
    smoke(WORKLOADS[3].name);
}
