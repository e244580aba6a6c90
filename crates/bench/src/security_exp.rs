//! The §6.5 security evaluation: run every re-created attack under both
//! hardware backends and tabulate outcomes.

use enclosure_apps::django;
use enclosure_apps::malware::{legit_lab, run_security_eval, ScenarioReport};
use enclosure_gofront::GoValue;
use enclosure_telemetry::Histogram;
use litterbox::{Backend, Fault};

use crate::macrobench::{profile_from, BackendProfile};

/// Outcomes for one backend.
#[derive(Debug, Clone)]
pub struct SecurityResults {
    /// Which backend enforced the policies.
    pub backend: Backend,
    /// Per-scenario reports.
    pub scenarios: Vec<ScenarioReport>,
}

impl SecurityResults {
    /// True if every scenario reproduced the paper's claims.
    #[must_use]
    pub fn all_reproduced(&self) -> bool {
        self.scenarios.iter().all(ScenarioReport::reproduced)
    }
}

/// Runs the full matrix (MPK and VT-x). With `trace` (`--trace[=N]`),
/// enforcing labs keep a bounded event ring, printed whenever an attack
/// is blocked (the block is the data, so that is where the lead-up is
/// interesting).
///
/// Per backend it also drives the benign ssh-decorator call repeatedly
/// through the enforcing lab and keeps its per-call latency histogram
/// and the machine's per-operation cost distributions: the price of
/// enforcement on the legitimate path, which `--profile` renders with
/// the shared percentile tables.
///
/// # Errors
///
/// Harness faults.
pub fn run(trace: Option<usize>) -> Result<(Vec<SecurityResults>, Vec<BackendProfile>), Fault> {
    let mut results = Vec::new();
    let mut profiles = Vec::new();
    for backend in [Backend::Mpk, Backend::Vtx] {
        let mut scenarios = run_security_eval(backend, trace)?;
        let dj = django::run_scenario(backend, trace)?;
        scenarios.push(ScenarioReport {
            name: "Django clone (secured callbacks, §6.5)",
            unprotected_leaked: dj.unprotected_leaked,
            enclosed_blocked: dj.enclosed_blocked,
            legit_ok: dj.legit_ok,
            fault: Some("syscall denied: socket in 'dispatch'".to_owned()),
        });
        results.push(SecurityResults { backend, scenarios });

        let mut rt = legit_lab(backend)?;
        rt.lb_mut().clock_mut().reset();
        let mut latency = Histogram::new();
        for _ in 0..20 {
            let t0 = rt.lb().now_ns();
            rt.call_enclosed(
                "decorator_enc",
                GoValue::Tuple(vec![GoValue::Str("uname -a".into()), GoValue::Bool(false)]),
            )?;
            latency.record(rt.lb().now_ns() - t0);
        }
        profiles.push(profile_from(rt.lb_mut(), backend, latency));
    }
    Ok((results, profiles))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_matrix_reproduces() {
        for results in run(None).unwrap().0 {
            assert!(results.all_reproduced(), "{:?}", results.backend);
        }
    }
}
