//! Fleet serving study: N shards (wiki by default, FastHTTP with
//! `--app=fasthttp`) behind the health-checking load balancer of
//! `enclosure-fleet`, all serving through the completion-driven
//! gateway.
//!
//! The experiment replays a heavy-tailed session workload against a
//! fleet of independent machines and reports the merged fleet tail
//! (p50/p99/p99.9 folded from per-shard histograms) plus the robustness
//! ledger: failovers, retry-budget spend, crashes and respawns,
//! ejections. With `--chaos` it also schedules a deterministic mid-run
//! shard kill and arms the random fleet/backend sites, then proves the
//! run lost zero accepted requests — the containment story of
//! `tests/fleet_serving.rs` at experiment scale.
//!
//! Everything is simulated time from the seed: two runs with the same
//! [`FleetConfig`] and [`FleetApp`] are byte-identical.

use enclosure_fleet::{check_invariants, FastHttpFleet, FleetConfig, FleetReport, WikiFleet};
use litterbox::Fault;

/// Which serving application the shards host (`--app=`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetApp {
    /// The wiki (mux + pq, two enclosures) — the default.
    Wiki,
    /// FastHTTP (the single-enclosure server under worker concurrency).
    FastHttp,
}

/// Shards in a `repro fleet` run without `--shards=N`.
pub const SHARDS: usize = 4;

/// Requests in the full study's session workload.
pub const FULL_REQUESTS: u64 = 100_000;

/// Requests in a `--quick` run.
pub const QUICK_REQUESTS: u64 = 2_000;

/// Runs a fleet of `app` shards under `config`, returning the report,
/// any robustness-invariant violations (zero-loss, retry budget,
/// histogram mass, respawn), and the wall-clock duration of the fleet
/// run itself (invariant checking excluded). A non-empty violation
/// list is a finding, not a flake: the run is deterministic. The report
/// is identical for any `parallelism` — the duration is the only thing
/// the thread count is allowed to change.
///
/// # Errors
///
/// A machine fault escaping the balancer's containment layers.
pub fn run(
    config: &FleetConfig,
    app: FleetApp,
) -> Result<(FleetReport, Vec<String>, std::time::Duration), Fault> {
    let started = std::time::Instant::now();
    let report = match app {
        FleetApp::Wiki => WikiFleet::new(config.clone())?.run()?,
        FleetApp::FastHttp => FastHttpFleet::new(config.clone())?.run()?,
    };
    let elapsed = started.elapsed();
    let violations = check_invariants(config, &report);
    Ok((report, violations, elapsed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(seed: u64) -> FleetConfig {
        FleetConfig::new(SHARDS, QUICK_REQUESTS, seed)
    }

    #[test]
    fn quick_fleet_is_deterministic_and_loses_nothing() {
        let cfg = quick(0xF1EE7).with_chaos();
        let (a, violations, _) = run(&cfg, FleetApp::Wiki).unwrap();
        let (b, ..) = run(&cfg, FleetApp::Wiki).unwrap();
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(a.to_json().to_pretty(), b.to_json().to_pretty());
        assert_eq!(a.responses(), a.admitted);
        assert!(a.crashes > 0, "the targeted kill fired");
    }

    #[test]
    fn fasthttp_fleet_arm_is_deterministic_and_loses_nothing() {
        let cfg = quick(11);
        let (a, violations, _) = run(&cfg, FleetApp::FastHttp).unwrap();
        let (b, ..) = run(&cfg, FleetApp::FastHttp).unwrap();
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(a.to_json().to_pretty(), b.to_json().to_pretty());
        assert_eq!(a.client_ok, a.admitted);
    }

    #[test]
    fn parallel_experiment_reports_identical_bytes() {
        let cfg = quick(5).with_chaos().mixed_backends();
        let (sequential, ..) = run(&cfg, FleetApp::Wiki).unwrap();
        let (parallel, violations, _) =
            run(&cfg.clone().with_parallelism(4), FleetApp::Wiki).unwrap();
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(
            sequential.to_json().to_pretty(),
            parallel.to_json().to_pretty()
        );
    }

    #[test]
    fn mixed_backend_fleet_serves_the_whole_workload() {
        let (report, violations, _) = run(&quick(11).mixed_backends(), FleetApp::Wiki).unwrap();
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(report.client_ok, report.admitted);
        let states: Vec<&str> = report.rows.iter().map(|r| r.state).collect();
        assert!(states.iter().all(|s| *s == "healthy"), "{states:?}");
    }
}
