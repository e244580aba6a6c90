//! The §6.4 Python experiments: conservative (co-located metadata) vs
//! optimized (decoupled metadata) enclosure overhead on the plotting
//! workload, under LB_VTX as in the paper.
//!
//! Every quantity below — switch counts, initialization share, syscall
//! share — is derived from the runs' telemetry counters; nothing in this
//! module maintains its own event counts.

use enclosure_apps::plotlib::{self, PlotConfig, PlotRun};
use enclosure_hw::CostModel;
use enclosure_pyfront::{Interpreter, MetadataMode};
use enclosure_telemetry::Counters;
use litterbox::{Backend, Fault};

/// The full §6.4 result set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PythonResults {
    /// Plain Python (Baseline backend, co-located metadata): the
    /// reference time in ns.
    pub baseline_ns: u64,
    /// Conservative prototype: every metadata touch on a read-only
    /// object round-trips to the trusted environment.
    pub conservative_ns: u64,
    /// Optimized (decoupled metadata) time.
    pub optimized_ns: u64,
    /// Conservative slowdown (paper: ~18×).
    pub conservative_slowdown: f64,
    /// Optimized slowdown (paper: ~1.4×).
    pub optimized_slowdown: f64,
    /// Trusted-environment round trips in the conservative run
    /// (the paper's "switches"; ~1M). Telemetry `metadata_switches`.
    pub switches: u64,
    /// Share of the conservative slowdown attributable to delayed
    /// initialization (paper: 4.3%). Telemetry `init_ns`.
    pub init_share: f64,
    /// Share attributable to syscall overheads (paper: <1%).
    /// Telemetry `vm_exits` × the model's per-exit premium.
    pub syscall_share: f64,
    /// Full counter set of the conservative run.
    pub conservative_counters: Counters,
    /// Full counter set of the optimized run.
    pub optimized_counters: Counters,
}

/// Derives the §6.4 result set from three completed runs' telemetry.
fn derive(baseline: &PlotRun, conservative: &PlotRun, optimized: &PlotRun) -> PythonResults {
    #[allow(clippy::cast_precision_loss)]
    let (base, cons, opt) = (
        baseline.total_ns as f64,
        conservative.total_ns as f64,
        optimized.total_ns as f64,
    );
    let slowdown_ns = cons - base;
    #[allow(clippy::cast_precision_loss)]
    let init_share = if slowdown_ns > 0.0 {
        conservative.counters.init_ns as f64 / slowdown_ns
    } else {
        0.0
    };
    // Syscall overhead: every guest syscall in the conservative run
    // hypercalled to the host; the premium is those VM EXITs at the
    // model's Table 1 cost (the baseline run pays none).
    #[allow(clippy::cast_precision_loss)]
    let syscall_premium_ns =
        conservative.counters.vm_exits as f64 * CostModel::default().vm_exit as f64;
    let syscall_share = if slowdown_ns > 0.0 {
        syscall_premium_ns / slowdown_ns
    } else {
        0.0
    };
    PythonResults {
        baseline_ns: baseline.total_ns,
        conservative_ns: conservative.total_ns,
        optimized_ns: optimized.total_ns,
        conservative_slowdown: cons / base,
        optimized_slowdown: opt / base,
        switches: conservative.counters.metadata_switches,
        init_share,
        syscall_share,
        conservative_counters: conservative.counters,
        optimized_counters: optimized.counters,
    }
}

/// One plotting arm: builds the interpreter, arms the `--trace[=N]`
/// ring and drives the workload; on a fault the ring's lead-up is
/// printed next to the root-cause trace.
fn run_arm(
    backend: Backend,
    mode: MetadataMode,
    cfg: PlotConfig,
    trace: Option<usize>,
) -> Result<(Interpreter, PlotRun), Fault> {
    let mut py = plotlib::build(backend, mode, cfg)?;
    py.lb_mut().telemetry_mut().arm_trace(trace);
    match plotlib::run_on(&mut py, cfg) {
        Ok(run) => Ok((py, run)),
        Err(fault) => {
            let what = format!("fault ({backend}, {mode:?})");
            py.lb().telemetry().dump_trace(&what);
            Err(fault)
        }
    }
}

/// Runs the experiment's baseline, conservative and optimized arms at
/// the given scale and derives the result set. It also returns the
/// conservative and optimized interpreters, whose telemetry the cost
/// attribution renders. With `trace` (`--trace[=N]`), each machine
/// keeps a bounded event ring, printed on the fault path.
///
/// # Errors
///
/// Workload faults.
pub fn run(
    cfg: PlotConfig,
    trace: Option<usize>,
) -> Result<(PythonResults, Interpreter, Interpreter), Fault> {
    let (_, baseline) = run_arm(Backend::Baseline, MetadataMode::CoLocated, cfg, trace)?;
    let (cons_py, conservative) = run_arm(Backend::Vtx, MetadataMode::CoLocated, cfg, trace)?;
    let (opt_py, optimized) = run_arm(Backend::Vtx, MetadataMode::Decoupled, cfg, trace)?;
    let results = derive(&baseline, &conservative, &optimized);
    Ok((results, cons_py, opt_py))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> PlotConfig {
        PlotConfig {
            points: 20_000,
            point_ns: 100,
            width: 64,
            height: 48,
        }
    }

    #[test]
    fn conservative_is_much_slower_than_optimized() {
        let (results, ..) = run(small(), None).unwrap();
        assert!(
            results.conservative_ns > 2 * results.optimized_ns,
            "conservative {} vs optimized {}",
            results.conservative_ns,
            results.optimized_ns
        );
        assert!(results.conservative_slowdown > results.optimized_slowdown);
        assert!(results.optimized_slowdown >= 1.0);
    }

    #[test]
    fn switch_count_scales_with_points() {
        let (results, ..) = run(small(), None).unwrap();
        // 2 passes × (incref+decref) round trips per point.
        assert!(results.switches >= 4 * 20_000, "got {}", results.switches);
        // The decoupled run's whole point: zero metadata round trips.
        assert_eq!(results.optimized_counters.metadata_switches, 0);
    }

    #[test]
    fn shares_are_fractions() {
        let (results, ..) = run(small(), None).unwrap();
        assert!(results.init_share > 0.0 && results.init_share < 1.0);
        assert!(results.syscall_share >= 0.0 && results.syscall_share < 0.2);
    }

    #[test]
    fn switches_come_from_telemetry_not_interpreter_stats() {
        // The telemetry counter (one event per trusted round trip) must
        // agree with the interpreter's own bookkeeping (two environment
        // switches per round trip).
        let cfg = PlotConfig::tiny();
        let conservative = plotlib::run(Backend::Vtx, MetadataMode::CoLocated, cfg).unwrap();
        assert_eq!(
            conservative.counters.metadata_switches,
            conservative.metadata_switches / 2
        );
        assert!(conservative.counters.metadata_switches > 0);
    }
}
