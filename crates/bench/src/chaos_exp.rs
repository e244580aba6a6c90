//! The chaos soak: deterministic fault injection over the wiki workload.
//!
//! A seeded [`InjectionPlan`] arms the backend's failure sites (transient
//! gateway errnos everywhere; faulted WRPKRU writes under LB_MPK; lost
//! VM EXITs and failed CR3 rewrites under LB_VTX) and the wiki serves a
//! soak of requests through it. The run must *degrade*, never die: every
//! request is answered (a real response or a 503), the machine ends every
//! hop back in a consistent state, and the cross-layer invariants of
//! [`check_invariants`] hold — balanced switch ledgers, no leaked
//! protection keys, a monotonic clock.
//!
//! Everything runs in simulated time from a fixed seed, so two runs with
//! the same seed are byte-identical — chaos you can bisect.

use enclosure_apps::wiki::WikiApp;
use enclosure_hw::InjectionPlan;
use enclosure_support::Json;
use litterbox::{Backend, Fault};

/// Parameters for one chaos soak.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Seed for the injection plan's XorShift stream.
    pub seed: u64,
    /// Fire probability per armed site, in parts per million.
    pub rate_ppm: u64,
    /// Requests to drive through the wiki per backend.
    pub requests: u64,
}

impl ChaosConfig {
    /// The full soak: thousands of requests under a moderate fault rate.
    #[must_use]
    pub fn full(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            rate_ppm: 150_000,
            requests: 5_000,
        }
    }

    /// A bounded soak for `--quick` runs and CI.
    #[must_use]
    pub fn quick(seed: u64) -> ChaosConfig {
        ChaosConfig {
            requests: 150,
            ..ChaosConfig::full(seed)
        }
    }
}

/// One backend's soak outcome plus the ledgers the invariants compare.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosRow {
    /// The backend under chaos.
    pub backend: Backend,
    /// Requests answered with a real response.
    pub served: u64,
    /// Requests answered with a 503.
    pub degraded: u64,
    /// Transient errnos absorbed by in-place retries.
    pub retried: u64,
    /// Requests fast-failed by the pq proxy's open breaker.
    pub quarantined: u64,
    /// Faults the plan actually injected.
    pub injected_faults: u64,
    /// Breaker trips recorded in telemetry.
    pub breaker_trips: u64,
    /// Telemetry ledger: enclosure entries / exits.
    pub prologs: u64,
    /// Telemetry ledger: enclosure exits.
    pub epilogs: u64,
    /// Telemetry ledger: PKRU writes.
    pub recorder_wrpkru: u64,
    /// Hardware ledger: PKRU writes.
    pub hw_wrpkru: u64,
    /// Telemetry ledger: CR3 rewrites.
    pub recorder_cr3: u64,
    /// Hardware ledger: guest syscalls (one CR3 rewrite each).
    pub hw_guest_syscalls: u64,
    /// Telemetry ledger: VM EXITs.
    pub recorder_vm_exits: u64,
    /// Hardware ledger: VM EXITs.
    pub hw_vm_exits: u64,
    /// Telemetry ledger: IPC crossings (LB_PROC).
    pub recorder_ipc: u64,
    /// Hardware ledger: IPC round-trips (LB_PROC).
    pub hw_ipc_roundtrips: u64,
    /// Telemetry ledger: sandbox child spawns (LB_PROC).
    pub recorder_proc_spawns: u64,
    /// Hardware ledger: sandbox child spawns (LB_PROC).
    pub hw_proc_spawns: u64,
    /// Supervisor-driven respawns after child crashes (LB_PROC).
    pub proc_respawns: u64,
    /// Simulated nanoseconds the soak took.
    pub ns: u64,
}

/// A full chaos report across the three backends.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// The configuration that produced it.
    pub config: ChaosConfig,
    /// One row per backend, in [`crate::BACKENDS`] order.
    pub rows: Vec<ChaosRow>,
}

impl ChaosReport {
    /// Serializes the report for `repro chaos --json`: the seed and
    /// scale, then one object per backend with the degradation outcome
    /// and both sides of every cross-layer ledger. Like the text
    /// rendering, the output is a pure function of the seed.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "config",
                Json::obj([
                    ("seed", Json::from(self.config.seed)),
                    ("rate_ppm", Json::from(self.config.rate_ppm)),
                    ("requests", Json::from(self.config.requests)),
                ]),
            ),
            (
                "rows",
                Json::arr(self.rows.iter().map(|row| {
                    Json::obj([
                        ("backend", Json::from(row.backend.to_string())),
                        ("served", Json::from(row.served)),
                        ("degraded", Json::from(row.degraded)),
                        ("retried", Json::from(row.retried)),
                        ("quarantined", Json::from(row.quarantined)),
                        ("injected_faults", Json::from(row.injected_faults)),
                        ("breaker_trips", Json::from(row.breaker_trips)),
                        ("prologs", Json::from(row.prologs)),
                        ("epilogs", Json::from(row.epilogs)),
                        ("recorder_wrpkru", Json::from(row.recorder_wrpkru)),
                        ("hw_wrpkru", Json::from(row.hw_wrpkru)),
                        ("recorder_cr3", Json::from(row.recorder_cr3)),
                        ("hw_guest_syscalls", Json::from(row.hw_guest_syscalls)),
                        ("recorder_vm_exits", Json::from(row.recorder_vm_exits)),
                        ("hw_vm_exits", Json::from(row.hw_vm_exits)),
                        ("recorder_ipc", Json::from(row.recorder_ipc)),
                        ("hw_ipc_roundtrips", Json::from(row.hw_ipc_roundtrips)),
                        ("recorder_proc_spawns", Json::from(row.recorder_proc_spawns)),
                        ("hw_proc_spawns", Json::from(row.hw_proc_spawns)),
                        ("proc_respawns", Json::from(row.proc_respawns)),
                        ("sim_ns", Json::from(row.ns)),
                    ])
                })),
            ),
        ])
    }
}

/// Runs the soak on each of `backends` ([`crate::BACKENDS`] for the
/// full table; `repro chaos --backend=proc` soaks LB_PROC alone) with
/// per-backend failure sites, keeping each backend's latency histogram
/// and per-operation cost distributions for `--profile`: the
/// percentile tables show what the injected faults cost the requests
/// that absorbed them.
///
/// # Errors
///
/// A fault escaping the containment layers — which is itself a finding:
/// the soak's contract is that no injected fault aborts the run.
pub fn run(
    config: ChaosConfig,
    backends: &[Backend],
) -> Result<(ChaosReport, Vec<crate::macrobench::BackendProfile>), Fault> {
    let mut rows = Vec::new();
    let mut profiles = Vec::new();
    for &backend in backends {
        let mut app = WikiApp::new(backend)?;
        let sites = backend.chaos_sites();
        let clock = app.runtime_mut().lb_mut().clock_mut();
        clock.reset();
        if !sites.is_empty() {
            clock.arm_injection(InjectionPlan::new(config.seed, config.rate_ppm).with_sites(sites));
        }
        let t0 = app.runtime().lb().now_ns();
        let stats = app.serve_requests(config.requests)?;
        let ns = app.runtime().lb().now_ns() - t0;
        app.runtime_mut().lb_mut().clock_mut().disarm_injection();
        let c = *app.runtime().lb().telemetry().counters();
        let hw = app.runtime().lb().stats();
        let latency = app.latency();
        profiles.push(crate::macrobench::profile_from(
            app.runtime_mut().lb_mut(),
            backend,
            latency,
        ));
        rows.push(ChaosRow {
            backend,
            served: stats.served,
            degraded: stats.degraded,
            retried: stats.retried,
            quarantined: stats.quarantined,
            injected_faults: c.injected_faults,
            breaker_trips: c.breaker_trips,
            prologs: c.prologs,
            epilogs: c.epilogs,
            recorder_wrpkru: c.wrpkru_writes,
            hw_wrpkru: hw.wrpkru,
            recorder_cr3: c.cr3_writes,
            hw_guest_syscalls: hw.guest_syscalls,
            recorder_vm_exits: c.vm_exits,
            hw_vm_exits: hw.vm_exits,
            recorder_ipc: c.ipc_crossings,
            hw_ipc_roundtrips: hw.ipc_roundtrips,
            recorder_proc_spawns: c.proc_spawns,
            hw_proc_spawns: hw.proc_spawns,
            proc_respawns: c.proc_respawns,
            ns,
        });
    }
    Ok((ChaosReport { config, rows }, profiles))
}

/// Checks a row's cross-layer invariants, returning every violation (an
/// empty vector means the row is consistent).
///
/// * every request accounted for: `served + degraded == requests`;
/// * balanced switch ledger: `prologs == epilogs`;
/// * recorder ledger == hardware ledger for PKRU writes, CR3 rewrites,
///   and VM EXITs (two independent recordings of the same events);
/// * faults only where they were injected (the baseline control arm
///   stays clean).
#[must_use]
pub fn check_invariants(config: &ChaosConfig, row: &ChaosRow) -> Vec<String> {
    let mut violations = Vec::new();
    let mut check = |ok: bool, what: &str| {
        if !ok {
            violations.push(format!("{}: {what}: {row:?}", row.backend));
        }
    };
    check(
        row.served + row.degraded == config.requests,
        "every request must be answered",
    );
    check(row.prologs == row.epilogs, "prologs == epilogs");
    check(
        row.recorder_wrpkru == row.hw_wrpkru,
        "recorder and hardware disagree on WRPKRU count",
    );
    check(
        row.recorder_cr3 == row.hw_guest_syscalls,
        "recorder and hardware disagree on CR3 rewrites",
    );
    check(
        row.recorder_vm_exits == row.hw_vm_exits,
        "recorder and hardware disagree on VM EXITs",
    );
    check(
        row.recorder_ipc == row.hw_ipc_roundtrips,
        "recorder and hardware disagree on IPC round-trips",
    );
    check(
        row.recorder_proc_spawns == row.hw_proc_spawns,
        "recorder and hardware disagree on child spawns",
    );
    if row.backend == Backend::Baseline {
        check(
            row.injected_faults == 0 && row.degraded == 0,
            "baseline never runs enclosed, so nothing can be injected",
        );
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BACKENDS;

    #[test]
    fn quick_soak_degrades_but_survives() {
        let (report, _) = run(ChaosConfig::quick(0xC4A05), &BACKENDS).unwrap();
        assert_eq!(report.rows.len(), 4);
        for row in &report.rows {
            let violations = check_invariants(&report.config, row);
            assert!(violations.is_empty(), "{violations:?}");
        }
        // Chaos actually happened on the protected backends.
        assert!(report.rows[1].injected_faults > 0, "{:?}", report.rows[1]);
        assert!(report.rows[2].injected_faults > 0, "{:?}", report.rows[2]);
        assert!(report.rows[3].injected_faults > 0, "{:?}", report.rows[3]);
    }

    enclosure_support::props! {
        /// On every seed the quick soak is a pure function of its seed
        /// and every backend's row keeps its invariants, the LB_PROC
        /// IPC and spawn ledgers included.
        fn quick_soak_holds_on_every_seed(rng, cases = 32) {
            let config = ChaosConfig::quick(rng.next_u64());
            let (report, _) = run(config, &BACKENDS).unwrap();
            assert_eq!(report, run(config, &BACKENDS).unwrap().0, "seed {:#x}", config.seed);
            for row in &report.rows {
                let violations = check_invariants(&report.config, row);
                assert!(violations.is_empty(), "seed {:#x}: {violations:?}", config.seed);
            }
        }
    }
}
