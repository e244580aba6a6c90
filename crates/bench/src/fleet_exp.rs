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
//! [`FleetExpConfig`] are byte-identical.

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

/// Parameters for one fleet run (the `repro fleet` knobs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetExpConfig {
    /// Number of shards.
    pub shards: usize,
    /// Total requests in the session workload.
    pub requests: u64,
    /// Master seed (workload, chaos, and jitter all derive from it).
    pub seed: u64,
    /// Cycle shard backends through LB_MPK → LB_VTX → LB_PROC.
    pub mixed_backends: bool,
    /// Arm the deterministic shard kill plus random fleet/backend chaos.
    pub chaos: bool,
    /// The workload the shards host.
    pub app: FleetApp,
    /// Worker threads for the execute phase (`--parallel[=T]`). 1 runs
    /// inline; any value produces the same report bytes — parallelism
    /// only moves wall-clock time.
    pub parallelism: usize,
}

impl FleetExpConfig {
    /// The full study: a hundred thousand requests across the fleet.
    #[must_use]
    pub fn full(seed: u64) -> FleetExpConfig {
        FleetExpConfig {
            shards: 4,
            requests: 100_000,
            seed,
            mixed_backends: false,
            chaos: false,
            app: FleetApp::Wiki,
            parallelism: 1,
        }
    }

    /// A bounded run for `--quick` and CI gates.
    #[must_use]
    pub fn quick(seed: u64) -> FleetExpConfig {
        FleetExpConfig {
            requests: 2_000,
            ..FleetExpConfig::full(seed)
        }
    }

    /// Lowers to the balancer's own config.
    #[must_use]
    pub fn to_fleet(&self) -> FleetConfig {
        let mut cfg = FleetConfig::new(self.shards, self.requests, self.seed);
        if self.mixed_backends {
            cfg = cfg.mixed_backends();
        }
        if self.chaos {
            cfg = cfg.with_chaos();
        }
        cfg.with_parallelism(self.parallelism.max(1))
    }
}

/// Runs the fleet, returning the report, any robustness-invariant
/// violations (zero-loss, retry budget, histogram mass, respawn), and
/// the wall-clock duration of the fleet run itself (config lowering and
/// invariant checking excluded). A non-empty violation list is a
/// finding, not a flake: the run is deterministic. The report is
/// identical for any `parallelism` — the duration is the only thing the
/// thread count is allowed to change.
///
/// # Errors
///
/// A machine fault escaping the balancer's containment layers.
pub fn run(
    config: FleetExpConfig,
) -> Result<(FleetReport, Vec<String>, std::time::Duration), Fault> {
    let fleet_cfg = config.to_fleet();
    let started = std::time::Instant::now();
    let report = match config.app {
        FleetApp::Wiki => WikiFleet::new(fleet_cfg.clone())?.run()?,
        FleetApp::FastHttp => FastHttpFleet::new(fleet_cfg.clone())?.run()?,
    };
    let elapsed = started.elapsed();
    let violations = check_invariants(&fleet_cfg, &report);
    Ok((report, violations, elapsed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_fleet_is_deterministic_and_loses_nothing() {
        let cfg = FleetExpConfig {
            chaos: true,
            ..FleetExpConfig::quick(0xF1EE7)
        };
        let (a, violations, _) = run(cfg).unwrap();
        let (b, ..) = run(cfg).unwrap();
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(a.to_json().to_pretty(), b.to_json().to_pretty());
        assert_eq!(a.responses(), a.admitted);
        assert!(a.crashes > 0, "the targeted kill fired");
    }

    #[test]
    fn fasthttp_fleet_arm_is_deterministic_and_loses_nothing() {
        let cfg = FleetExpConfig {
            app: FleetApp::FastHttp,
            ..FleetExpConfig::quick(11)
        };
        let (a, violations, _) = run(cfg).unwrap();
        let (b, ..) = run(cfg).unwrap();
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(a.to_json().to_pretty(), b.to_json().to_pretty());
        assert_eq!(a.client_ok, a.admitted);
    }

    #[test]
    fn parallel_experiment_reports_identical_bytes() {
        let cfg = FleetExpConfig {
            chaos: true,
            mixed_backends: true,
            ..FleetExpConfig::quick(5)
        };
        let (sequential, ..) = run(cfg).unwrap();
        let (parallel, violations, _) = run(FleetExpConfig {
            parallelism: 4,
            ..cfg
        })
        .unwrap();
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(
            sequential.to_json().to_pretty(),
            parallel.to_json().to_pretty()
        );
    }

    #[test]
    fn mixed_backend_fleet_serves_the_whole_workload() {
        let (report, violations, _) = run(FleetExpConfig {
            mixed_backends: true,
            ..FleetExpConfig::quick(11)
        })
        .unwrap();
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(report.client_ok, report.admitted);
        let states: Vec<&str> = report.rows.iter().map(|r| r.state).collect();
        assert!(states.iter().all(|s| *s == "healthy"), "{states:?}");
    }
}
