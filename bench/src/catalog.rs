//! Every workload and metric the benchmark reports: the clock a metric
//! is read from, its unit and direction, the regression bound of the
//! end-to-end metrics, and the end-to-end metric each per-layer metric
//! should move. `BENCHMARK.json` at the repository root is this catalog
//! in the form a regression runner reads; `tests/catalog.rs` keeps the
//! two equal.

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why the workload is in the benchmark (one line).
    pub why: &'static str,
}

/// The workloads, in the order a suite round starts from.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fleet-wiki-mpk",
        why: "4 LB_MPK wiki shards: requests are cheap on the host, so the fleet's own plan and fold take their largest share of host time here",
    },
    Workload {
        name: "fleet-fasthttp-mixed",
        why: "4 MPK/VTX/PROC FastHTTP shards: a syscall-heavy enclosed server where batch flushes, VM EXITs and IPC dominate and the tail is real",
    },
    Workload {
        name: "fleet-wiki-chaos",
        why: "mixed wiki fleet, LB_PROC shard killed at a quarter, backend faults on: rebuild, failover, reroutes and retry budget are measured",
    },
    Workload {
        name: "python-plot-vtx",
        why: "paper 6.4 plot in three arms on LB_VTX: no fleet, gateway or goroutines; host time is pyfront plus the switch path",
    },
];

/// Which clock a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host wall-clock time: how fast the simulator runs.
    Host,
    /// The paper's cost model: deterministic per seed.
    Sim,
}

impl Clock {
    /// Label used by `--list`.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
        }
    }
}

/// One metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name in the result line.
    pub name: &'static str,
    /// `end-to-end`, or the layer the metric belongs to.
    pub layer: &'static str,
    /// Clock the value is read from.
    pub clock: Clock,
    /// Unit of the value.
    pub unit: &'static str,
    /// True when a larger value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression; `None` for
    /// per-layer metrics.
    pub bound: Option<f64>,
    /// The end-to-end metric (and workload) this metric should move.
    pub moves: &'static str,
}

impl Metric {
    /// `higher` or `lower`.
    #[must_use]
    pub fn better(&self) -> &'static str {
        if self.higher_is_better {
            "higher"
        } else {
            "lower"
        }
    }

    /// True for end-to-end metrics.
    #[must_use]
    pub fn is_end_to_end(&self) -> bool {
        self.bound.is_some()
    }
}

const fn e2e(
    name: &'static str,
    clock: Clock,
    unit: &'static str,
    higher: bool,
    bound: f64,
) -> Metric {
    Metric {
        name,
        layer: "end-to-end",
        clock,
        unit,
        higher_is_better: higher,
        bound: Some(bound),
        moves: "-",
    }
}

const fn lay(
    layer: &'static str,
    name: &'static str,
    clock: Clock,
    unit: &'static str,
    higher: bool,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        layer,
        clock,
        unit,
        higher_is_better: higher,
        bound: None,
        moves,
    }
}

use Clock::{Host, Sim};

const WIKI_HOST: &str = "host_ops_per_s on fleet-wiki-mpk";
const FAST_SIM: &str = "sim_ns_per_op on fleet-fasthttp-mixed";
const CHAOS_FAIL: &str = "fleet.fail_ratio on fleet-wiki-chaos";
const CHAOS_SIM_OPS: &str = "fleet.sim_ops_per_s on fleet-wiki-chaos";
const SIM_ALL: &str = "sim_ns_per_op on every workload";
const HOST_ALL: &str = "host_ops_per_s on every workload";

/// Every metric: the end-to-end ones first, then the per-layer ones by
/// layer.
#[rustfmt::skip]
pub const METRICS: &[Metric] = &[
    e2e("setup_s", Host, "s", false, 0.25),
    e2e("host_ops_per_s", Host, "1/s", true, 0.20),
    e2e("peak_rss_mb", Host, "MB", false, 0.20),
    e2e("sim_ns_per_op", Sim, "ns", false, 0.02),
    // fleet: timed from outside by the Timed<W> wrapper and around Fleet::run.
    lay("fleet", "fleet.run_s", Host, "s", false, WIKI_HOST),
    lay("fleet", "fleet.serve_s", Host, "s", false, "host_ops_per_s on fleet-fasthttp-mixed"),
    lay("fleet", "fleet.build_s", Host, "s", false, "setup_s on the fleet workloads"),
    lay("fleet", "fleet.serial_s", Host, "s", false, WIKI_HOST),
    lay("fleet", "fleet.serial_frac", Host, "ratio", false, WIKI_HOST),
    lay("fleet", "fleet.overlap", Host, "ratio", true, WIKI_HOST),
    lay("fleet", "fleet.serve_call_us.p50", Host, "us", false, WIKI_HOST),
    lay("fleet", "fleet.serve_call_us.p99", Host, "us", false, WIKI_HOST),
    lay("fleet", "fleet.parallel_speedup", Host, "x", true, "host_ops_per_s once a workload runs on the pool (all run at parallelism 1)"),
    lay("fleet", "fleet.rounds", Sim, "count", false, CHAOS_SIM_OPS),
    lay("fleet", "fleet.batches", Sim, "count", false, CHAOS_SIM_OPS),
    lay("fleet", "fleet.catchup_batches", Sim, "count", true, CHAOS_SIM_OPS),
    lay("fleet", "fleet.reqs_per_batch", Sim, "count", true, CHAOS_SIM_OPS),
    lay("fleet", "fleet.failovers", Sim, "count", false, CHAOS_FAIL),
    lay("fleet", "fleet.rerouted", Sim, "count", false, CHAOS_FAIL),
    lay("fleet", "fleet.crashes", Sim, "count", false, CHAOS_FAIL),
    lay("fleet", "fleet.respawns", Sim, "count", false, CHAOS_FAIL),
    lay("fleet", "fleet.budget_denied", Sim, "count", false, CHAOS_FAIL),
    lay("fleet", "fleet.sim_ops_per_s", Sim, "1/s", true, "none: read alongside sim_ns_per_op"),
    lay("fleet", "fleet.fail_ratio", Sim, "ratio", false, "none: read alongside host_ops_per_s on fleet-wiki-chaos"),
    lay("fleet", "fleet.sim_p50_ns", Sim, "ns", false, "sim_ns_per_op on the fleet workloads"),
    lay("fleet", "fleet.sim_p99.9_ns", Sim, "ns", false, FAST_SIM),
    // apps
    lay("apps", "apps.serve_ns_per_op", Host, "ns", false, "host_ops_per_s on fleet-fasthttp-mixed"),
    lay("apps", "apps.degraded_per_op", Sim, "ratio", false, CHAOS_FAIL),
    lay("apps", "apps.retried_per_op", Sim, "ratio", false, CHAOS_FAIL),
    lay("apps", "apps.quarantined_per_op", Sim, "ratio", false, CHAOS_FAIL),
    // gofront
    lay("gofront", "gofront.build_ms", Host, "ms", false, "setup_s on the fleet workloads"),
    lay("gofront", "gofront.reschedules_per_op", Sim, "count/op", false, FAST_SIM),
    lay("gofront", "gofront.parks_per_op", Sim, "count/op", false, FAST_SIM),
    lay("gofront", "gofront.wakes_per_op", Sim, "count/op", false, FAST_SIM),
    lay("gofront", "gofront.gc_pause_ns_per_op", Sim, "ns", false, FAST_SIM),
    // pyfront
    lay("pyfront", "pyfront.build_ms", Host, "ms", false, "setup_s on python-plot-vtx"),
    lay("pyfront", "pyfront.run_s.baseline", Host, "s", false, "host_ops_per_s on python-plot-vtx"),
    lay("pyfront", "pyfront.run_s.conservative", Host, "s", false, "host_ops_per_s on python-plot-vtx"),
    lay("pyfront", "pyfront.run_s.decoupled", Host, "s", false, "host_ops_per_s on python-plot-vtx"),
    lay("pyfront", "pyfront.metadata_switches", Sim, "count", false, "pyfront.slowdown_conservative on python-plot-vtx"),
    lay("pyfront", "pyfront.slowdown_conservative", Sim, "x", false, "none: the paper's 18x reference"),
    lay("pyfront", "pyfront.slowdown_decoupled", Sim, "x", false, "sim_ns_per_op on python-plot-vtx"),
    lay("pyfront", "pyfront.paper_err_pct", Sim, "%", false, "sim_ns_per_op on python-plot-vtx"),
    // litterbox: machine counts, gateway counts, Table 1 host loops
    lay("litterbox", "litterbox.switch_host_ns", Host, "ns", false, "host_ops_per_s on python-plot-vtx"),
    lay("litterbox", "litterbox.switches_per_op", Sim, "count/op", false, "sim_ns_per_op on fleet-wiki-mpk and python-plot-vtx"),
    lay("litterbox", "litterbox.transfers_per_op", Sim, "count/op", false, "sim_ns_per_op on fleet-wiki-mpk and python-plot-vtx"),
    lay("litterbox", "litterbox.transfer_pages_per_op", Sim, "pages/op", false, "sim_ns_per_op on fleet-wiki-mpk and python-plot-vtx"),
    lay("litterbox", "litterbox.view_updates_per_op", Sim, "count/op", false, "sim_ns_per_op on fleet-wiki-mpk and python-plot-vtx"),
    lay("litterbox", "litterbox.batch_flushes_per_op", Sim, "count/op", false, FAST_SIM),
    lay("litterbox", "litterbox.batch_fill", Sim, "count", true, FAST_SIM),
    lay("litterbox", "litterbox.flush_share.size", Sim, "ratio", true, FAST_SIM),
    lay("litterbox", "litterbox.flush_share.deadline", Sim, "ratio", false, FAST_SIM),
    lay("litterbox", "litterbox.flush_share.quantum", Sim, "ratio", false, FAST_SIM),
    lay("litterbox", "litterbox.flush_share.barrier", Sim, "ratio", false, FAST_SIM),
    lay("litterbox", "litterbox.flush_share.explicit", Sim, "ratio", false, FAST_SIM),
    lay("litterbox", "litterbox.flush_share.drain", Sim, "ratio", false, FAST_SIM),
    lay("litterbox", "litterbox.call_host_ns.mpk", Host, "ns", false, HOST_ALL),
    lay("litterbox", "litterbox.call_host_ns.vtx", Host, "ns", false, HOST_ALL),
    lay("litterbox", "litterbox.call_host_ns.proc", Host, "ns", false, HOST_ALL),
    lay("litterbox", "litterbox.transfer_host_ns.mpk", Host, "ns", false, HOST_ALL),
    lay("litterbox", "litterbox.transfer_host_ns.vtx", Host, "ns", false, HOST_ALL),
    lay("litterbox", "litterbox.transfer_host_ns.proc", Host, "ns", false, HOST_ALL),
    lay("litterbox", "litterbox.syscall_host_ns.mpk", Host, "ns", false, HOST_ALL),
    lay("litterbox", "litterbox.syscall_host_ns.vtx", Host, "ns", false, HOST_ALL),
    lay("litterbox", "litterbox.syscall_host_ns.proc", Host, "ns", false, HOST_ALL),
    // kernel
    lay("kernel", "kernel.syscalls_per_op", Sim, "count/op", false, FAST_SIM),
    lay("kernel", "kernel.enclosed_syscalls_per_op", Sim, "count/op", false, FAST_SIM),
    lay("kernel", "kernel.seccomp_evals_per_op", Sim, "count/op", false, FAST_SIM),
    lay("kernel", "kernel.seccomp_denied_per_op", Sim, "count/op", false, FAST_SIM),
    // hw
    lay("hw", "hw.wrpkru_per_op", Sim, "count/op", false, SIM_ALL),
    lay("hw", "hw.cr3_writes_per_op", Sim, "count/op", false, SIM_ALL),
    lay("hw", "hw.vm_exits_per_op", Sim, "count/op", false, SIM_ALL),
    lay("hw", "hw.ipc_per_op", Sim, "count/op", false, SIM_ALL),
    lay("hw", "hw.pkey_mprotect_pages_per_op", Sim, "pages/op", false, SIM_ALL),
    lay("hw", "hw.key_binds_per_op", Sim, "count/op", false, SIM_ALL),
    lay("hw", "hw.key_evictions_per_op", Sim, "count/op", false, SIM_ALL),
    lay("hw", "hw.proc_spawns", Sim, "count", false, SIM_ALL),
    lay("hw", "hw.injected_faults", Sim, "count", false, CHAOS_FAIL),
    // sim: the cost-model ledger; the parts sum exactly to sim_ns_per_op
    lay("sim", "sim.switch_ns_per_op", Sim, "ns", false, FAST_SIM),
    lay("sim", "sim.transfer_ns_per_op", Sim, "ns", false, "sim_ns_per_op on fleet-wiki-mpk"),
    lay("sim", "sim.key_sweep_ns_per_op", Sim, "ns", false, "sim_ns_per_op on fleet-wiki-mpk"),
    lay("sim", "sim.vm_exit_ns_per_op", Sim, "ns", false, FAST_SIM),
    lay("sim", "sim.ipc_ns_per_op", Sim, "ns", false, FAST_SIM),
    lay("sim", "sim.spawn_ns_per_op", Sim, "ns", false, FAST_SIM),
    lay("sim", "sim.seccomp_ns_per_op", Sim, "ns", false, FAST_SIM),
    lay("sim", "sim.syscall_entry_ns_per_op", Sim, "ns", false, FAST_SIM),
    lay("sim", "sim.init_ns_per_op", Sim, "ns", false, SIM_ALL),
    lay("sim", "sim.residual_ns_per_op", Sim, "ns", false, SIM_ALL),
    // bench
    lay("bench", "bench.trace_overhead_pct", Host, "%", false, "none: traced runs never feed end-to-end metrics"),
    lay("bench", "bench.calibration_ms", Host, "ms", false, "none: host speed, host_ops_per_s and setup_s are rescaled by it"),
];

/// Looks a workload up by name.
#[must_use]
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The end-to-end metrics (reported by untraced runs).
pub fn end_to_end() -> impl Iterator<Item = &'static Metric> {
    METRICS.iter().filter(|m| m.is_end_to_end())
}

/// The per-layer metrics (reported by traced runs).
pub fn per_layer() -> impl Iterator<Item = &'static Metric> {
    METRICS.iter().filter(|m| !m.is_end_to_end())
}
