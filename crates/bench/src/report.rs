//! Table rendering for the `repro` binary.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use enclosure_fleet::monitor::{BROWNOUT, SLO, WINDOW_NS};
use enclosure_fleet::FleetReport;
use enclosure_telemetry::{
    BurnState, Counters, FlightRecording, Histogram, SpanCost, SpanScope, MAIN_TRACK,
};

use crate::batching_exp::BatchingReport;
use crate::chaos_exp::ChaosReport;
use crate::macrobench::{paper_values, BackendProfile, MacroRow, ProfiledRow};
use crate::micro::{paper_table1, MicroRow};
use crate::python_exp::PythonResults;
use crate::security_exp::SecurityResults;
use crate::wiki_exp::WikiResults;

/// Renders Table 1 side by side with the paper's values.
#[must_use]
pub fn render_table1(measured: &[MicroRow; 3]) -> String {
    let paper = paper_table1();
    let mut out = String::new();
    let _ = writeln!(out, "Table 1: Microbenchmarks (nanoseconds)");
    let _ = writeln!(
        out,
        "{:<10} {:>9} {:>9} | {:>9} {:>9} | {:>9} {:>9} | {:>9}",
        "", "Baseline", "(paper)", "LB_MPK", "(paper)", "LB_VTX", "(paper)", "LB_PROC"
    );
    for (m, p) in measured.iter().zip(paper.iter()) {
        let _ = writeln!(
            out,
            "{:<10} {:>9} {:>9} | {:>9} {:>9} | {:>9} {:>9} | {:>9}",
            m.name, m.baseline, p.baseline, m.mpk, p.mpk, m.vtx, p.vtx, m.proc
        );
    }
    let _ = writeln!(
        out,
        "(LB_PROC is the process-sandbox fallback; the paper has no process arm)"
    );
    out
}

/// Renders Table 2 with paper slowdowns alongside.
#[must_use]
pub fn render_table2(rows: &[MacroRow]) -> String {
    let mut out = String::new();
    let three_way = rows.iter().any(|r| r.proc.is_some());
    let _ = writeln!(out, "Table 2: Macrobenchmarks");
    let proc_header = if three_way {
        format!(" {:>9} {:>7} |", "LB_PROC", "slow")
    } else {
        String::new()
    };
    let _ = writeln!(
        out,
        "{:<10} {:>14} | {:>9} {:>7} | {:>9} {:>7} |{} paper: mpk / vtx",
        "benchmark", "baseline", "LB_MPK", "slow", "LB_VTX", "slow", proc_header
    );
    for row in rows {
        let (paper_base, paper_mpk, paper_vtx) = paper_values(row.bench);
        let fmt_raw = |v: f64| -> String {
            match row.bench.unit() {
                "ms" => format!("{v:.2}ms"),
                _ => format!("{v:.0}req/s"),
            }
        };
        let proc_cell = match row.proc {
            Some(p) => format!(" {:>9} {:>6.2}x |", fmt_raw(p.raw), p.slowdown),
            None if three_way => format!(" {:>9} {:>7} |", "-", "-"),
            None => String::new(),
        };
        let _ = writeln!(
            out,
            "{:<10} {:>14} | {:>9} {:>6.2}x | {:>9} {:>6.2}x |{} {:.2}x / {:.2}x  (paper base {})",
            row.bench.name(),
            fmt_raw(row.baseline.raw),
            fmt_raw(row.mpk.raw),
            row.mpk.slowdown,
            fmt_raw(row.vtx.raw),
            row.vtx.slowdown,
            proc_cell,
            paper_mpk,
            paper_vtx,
            fmt_raw(paper_base),
        );
    }
    out
}

/// Renders one benchmark's per-goroutine attribution: simulated ns per
/// telemetry track, per backend. Tracks beyond [`MAIN_TRACK`] are the
/// goroutines; benchmarks that never spawn one (bild) render nothing.
#[must_use]
pub fn render_track_costs(label: &str, profiles: &[BackendProfile]) -> String {
    let mut out = String::new();
    let has_goroutines = profiles
        .iter()
        .any(|p| p.goroutines.iter().any(|t| t.track != MAIN_TRACK));
    if !has_goroutines {
        return out;
    }
    let _ = writeln!(out, "{label}: per-goroutine attribution (simulated ns)");
    for profile in profiles {
        let _ = writeln!(out, "  {}:", profile.backend);
        for t in &profile.goroutines {
            let who = if t.track == MAIN_TRACK {
                "main".to_owned()
            } else {
                format!("g{} {}", t.track - 1, t.name)
            };
            let _ = writeln!(out, "    {:<24} env {:>2} {:>14} ns", who, t.env, t.ns);
        }
    }
    out
}

/// Renders Table 2's per-goroutine rows for every benchmark.
#[must_use]
pub fn render_goroutine_rows(rows: &[ProfiledRow]) -> String {
    let mut out = String::new();
    for row in rows {
        out.push_str(&render_track_costs(row.row.bench.name(), &row.profiles));
    }
    out
}

fn quantile_cells(h: &Histogram) -> String {
    let mut cells = String::new();
    for (name, p) in Histogram::QUANTILES {
        let _ = write!(cells, " {:>5} {:>10}", name, h.percentile(p));
    }
    cells
}

/// Renders one benchmark's `--profile` tables: the per-request latency
/// percentiles and the per-operation cost distributions, per backend.
/// All values are simulated ns, so the output is deterministic per seed.
#[must_use]
pub fn render_latency_profile(label: &str, profiles: &[BackendProfile]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{label}: latency profile (simulated ns)");
    for profile in profiles {
        let _ = writeln!(out, "  {}:", profile.backend);
        if profile.latency.count() == 0 {
            let _ = writeln!(out, "    (no per-request latency samples)");
        } else {
            let _ = writeln!(
                out,
                "    requests {:>8}  mean {:>10}  max {:>10}",
                profile.latency.count(),
                profile.latency.mean(),
                profile.latency.max(),
            );
            let _ = writeln!(out, "    {}", quantile_cells(&profile.latency).trim_start());
        }
        for (op, hist) in &profile.ops {
            let _ = writeln!(
                out,
                "    op {:<16} n {:>8}{}",
                op,
                hist.count(),
                quantile_cells(hist)
            );
        }
    }
    out
}

/// Renders the Table 2 benchmark-information columns.
#[must_use]
pub fn render_table2_info() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 2: Benchmark information (TCB accounting)");
    let _ = writeln!(
        out,
        "{:<10} {:>8} {:>12} {:>8} {:>13} {:>12}",
        "app", "TCB LOC", "enclosed LOC", "stars", "contributors", "public deps"
    );
    for info in enclosure_apps::registry::table2_info() {
        let dash = |v: u64| -> String {
            if v == 0 {
                "-".into()
            } else {
                v.to_string()
            }
        };
        let _ = writeln!(
            out,
            "{:<10} {:>8} {:>12} {:>8} {:>13} {:>12}",
            info.benchmark,
            info.app_tcb_loc,
            dash(info.enclosed_loc),
            dash(info.stars),
            dash(info.contributors),
            dash(info.public_deps),
        );
    }
    out
}

/// Renders the §6.3 wiki study.
#[must_use]
pub fn render_wiki(results: &WikiResults) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Figure 5 / §6.3: wiki web application");
    let _ = writeln!(out, "  baseline: {:>10.0} req/s", results.baseline);
    let _ = writeln!(
        out,
        "  LB_MPK:   {:>10.0} req/s  ({:.2}x slowdown)",
        results.mpk.0, results.mpk.1
    );
    let _ = writeln!(
        out,
        "  LB_VTX:   {:>10.0} req/s  ({:.2}x slowdown)",
        results.vtx.0, results.vtx.1
    );
    let _ = writeln!(
        out,
        "  context switches per request (PKRU writes, MPK): {:.1}",
        results.switches_per_request
    );
    let _ = writeln!(
        out,
        "  paper: \"throughput slowdown is similar to the one in the FastHTTP experiment\""
    );
    out
}

/// Renders the §6.4 Python experiments.
#[must_use]
pub fn render_python(results: &PythonResults) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "§6.4: Python enclosures (LB_VTX, matplotlib-style plot)"
    );
    let _ = writeln!(
        out,
        "  plain Python:              {:>10.1} ms",
        results.baseline_ns as f64 / 1e6
    );
    let _ = writeln!(
        out,
        "  conservative (co-located): {:>10.1} ms  ({:.1}x; paper ~18x)",
        results.conservative_ns as f64 / 1e6,
        results.conservative_slowdown
    );
    let _ = writeln!(
        out,
        "  optimized (decoupled):     {:>10.1} ms  ({:.2}x; paper ~1.4x)",
        results.optimized_ns as f64 / 1e6,
        results.optimized_slowdown
    );
    let _ = writeln!(
        out,
        "  trusted-environment switches (round trips): {} (paper: ~1M)",
        results.switches
    );
    let _ = writeln!(
        out,
        "  delayed-init share of slowdown: {:.1}% (paper: 4.3%)",
        results.init_share * 100.0
    );
    let _ = writeln!(
        out,
        "  syscall share of slowdown: {:.2}% (paper: <1%)",
        results.syscall_share * 100.0
    );
    out
}

/// Renders the §6.4 cost-attribution breakdown: per-enclosure spans and
/// the slowdown decomposition, all derived from telemetry.
#[must_use]
pub fn render_attribution(
    results: &PythonResults,
    conservative_spans: &BTreeMap<SpanScope, SpanCost>,
    optimized_spans: &BTreeMap<SpanScope, SpanCost>,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "§6.4 cost attribution (LB_VTX; derived from telemetry spans + counters)"
    );
    for (label, spans) in [
        ("conservative (co-located metadata)", conservative_spans),
        ("optimized (decoupled metadata)", optimized_spans),
    ] {
        let _ = writeln!(out, "  {label} spans:");
        if spans.is_empty() {
            let _ = writeln!(out, "    (none)");
        }
        for (scope, cost) in spans {
            let _ = writeln!(
                out,
                "    {:<24} entries {:>9}  total {:>10.2} ms  self {:>10.2} ms",
                format!("{}/{} (env {})", scope.enclosure, scope.package, scope.env),
                cost.entries,
                cost.total_ns as f64 / 1e6,
                cost.self_ns as f64 / 1e6,
            );
        }
    }
    let _ = writeln!(out, "  breakdown of the conservative slowdown:");
    let _ = writeln!(
        out,
        "    metadata switches (trusted round trips): {} (paper: ~1M)",
        results.switches
    );
    let _ = writeln!(
        out,
        "    delayed-initialization share: {:.1}% (paper: 4.3%)",
        results.init_share * 100.0
    );
    let _ = writeln!(
        out,
        "    syscall (VM EXIT) share: {:.2}% (paper: <1%)",
        results.syscall_share * 100.0
    );
    let c = &results.conservative_counters;
    let _ = writeln!(
        out,
        "    conservative counters: executes={} vm_exits={} cr3_writes={} init_ns={}",
        c.executes, c.vm_exits, c.cr3_writes, c.init_ns
    );
    out
}

/// Renders the chaos soak: per-backend degradation outcomes and the
/// cross-layer ledgers the invariants compare. Everything printed is a
/// pure function of the seed, so two runs with the same seed are
/// byte-identical.
#[must_use]
pub fn render_chaos(report: &ChaosReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Chaos soak: seed {:#x}, {} ppm per armed site, {} requests per backend",
        report.config.seed, report.config.rate_ppm, report.config.requests
    );
    let _ = writeln!(
        out,
        "{:<10} {:>7} {:>9} {:>8} {:>12} {:>9} {:>8} {:>14}",
        "backend",
        "served",
        "degraded",
        "retried",
        "quarantined",
        "injected",
        "breaker",
        "sim time"
    );
    for row in &report.rows {
        let _ = writeln!(
            out,
            "{:<10} {:>7} {:>9} {:>8} {:>12} {:>9} {:>8} {:>12}ns",
            row.backend.to_string(),
            row.served,
            row.degraded,
            row.retried,
            row.quarantined,
            row.injected_faults,
            row.breaker_trips,
            row.ns,
        );
        let _ = writeln!(
            out,
            "           ledgers: prolog/epilog {}/{} | wrpkru {}={} | cr3 {}={} | vm-exit {}={}",
            row.prologs,
            row.epilogs,
            row.recorder_wrpkru,
            row.hw_wrpkru,
            row.recorder_cr3,
            row.hw_guest_syscalls,
            row.recorder_vm_exits,
            row.hw_vm_exits,
        );
        let _ = writeln!(
            out,
            "                    ipc {}={} | spawns {}={} (respawns {})",
            row.recorder_ipc,
            row.hw_ipc_roundtrips,
            row.recorder_proc_spawns,
            row.hw_proc_spawns,
            row.proc_respawns,
        );
    }
    out
}

/// Renders the batching study: the charged crossing tax per request
/// with and without the batched gateway, per backend. All values come
/// from the calibrated cost model, so the output is byte-identical
/// across runs.
#[must_use]
pub fn render_batching(report: &BatchingReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Batching study: charged crossing tax, {} requests per arm",
        report.requests
    );
    let _ = writeln!(
        out,
        "{:<10} {:>10} {:>9} {:>14} {:>9} {:>12} {:>8} {:>12} {:>8} {:>8}",
        "backend",
        "arm",
        "vm_exits",
        "vm_exit ns/req",
        "seccomp",
        "seccomp/req",
        "ipc",
        "ipc ns/req",
        "flushes",
        "batch"
    );
    for arm in &report.arms {
        let _ = writeln!(
            out,
            "{:<10} {:>10} {:>9} {:>14.0} {:>9} {:>12.2} {:>8} {:>12.0} {:>8} {:>8.2}",
            arm.backend.to_string(),
            arm.mode,
            arm.vm_exits,
            arm.vm_exit_ns_per_request(),
            arm.seccomp_checks,
            arm.seccomp_per_request(),
            arm.ipc_roundtrips,
            arm.ipc_ns_per_request(),
            arm.batch_flushes,
            arm.mean_batch_size(),
        );
    }
    let vtx_gain = report
        .arm(litterbox::Backend::Vtx, false)
        .vm_exit_ns_per_request()
        / report
            .arm(litterbox::Backend::Vtx, true)
            .vm_exit_ns_per_request()
            .max(f64::MIN_POSITIVE);
    let _ = writeln!(
        out,
        "  LB_VTX charged VM EXIT tax reduction: {vtx_gain:.2}x"
    );
    let proc_gain = report
        .arm(litterbox::Backend::Proc, false)
        .ipc_ns_per_request()
        / report
            .arm(litterbox::Backend::Proc, true)
            .ipc_ns_per_request()
            .max(f64::MIN_POSITIVE);
    let _ = writeln!(out, "  LB_PROC charged IPC tax reduction: {proc_gain:.2}x");
    // (the `--profile` flush-reason / ring-depth tables live in
    // `render_batching_profile` so this table stays byte-stable)
    for backend in [
        litterbox::Backend::Mpk,
        litterbox::Backend::Vtx,
        litterbox::Backend::Proc,
    ] {
        let sync = report.arm_mode(backend, "batched_c8");
        let reactor = report.arm_mode(backend, "async_c8");
        let _ = writeln!(
            out,
            "  {} x8 workers, end-to-end: async {} ns vs batched {} ns ({:.2}x)",
            backend,
            reactor.sim_ns,
            sync.sim_ns,
            sync.sim_ns as f64 / (reactor.sim_ns as f64).max(f64::MIN_POSITIVE),
        );
    }
    out
}

/// Renders the batching study's `--profile` addendum: per-arm flush
/// attribution (which trigger fired each charged crossing) and the
/// ring-depth distribution sampled at every enqueue. Arms that never
/// route through the ring are skipped.
#[must_use]
pub fn render_batching_profile(report: &BatchingReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Batching profile: flush attribution and ring depth");
    for arm in report.arms.iter().filter(|a| a.batched) {
        let reasons = arm
            .flush_reasons
            .iter()
            .map(|&(reason, n)| format!("{reason} {n}"))
            .collect::<Vec<_>>()
            .join(" | ");
        let _ = writeln!(
            out,
            "  {:<8} {:<10} flushes {:>6}: {}",
            arm.backend.to_string(),
            arm.mode,
            arm.batch_flushes,
            reasons,
        );
        let _ = writeln!(
            out,
            "           pending depth n {:>8}  mean {:>3}  max {:>4} {}",
            arm.pending_depth.count(),
            arm.pending_depth.mean(),
            arm.pending_depth.max(),
            quantile_cells(&arm.pending_depth),
        );
    }
    out
}

/// Renders the fleet serving study: the client ledger, the robustness
/// counters, the merged fleet tail, and one row per shard. All values
/// are simulated time from the seed, so the output is byte-identical
/// across runs.
#[must_use]
pub fn render_fleet(report: &FleetReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fleet serving: seed {:#x}, {} shards, {} requests, chaos {}",
        report.seed,
        report.rows.len(),
        report.admitted,
        if report.chaos { "on" } else { "off" },
    );
    let _ = writeln!(
        out,
        "  client ledger: {} ok + {} degraded + {} lb-degraded = {} responses ({} admitted)",
        report.client_ok,
        report.client_degraded,
        report.lb_degraded,
        report.responses(),
        report.admitted,
    );
    let _ = writeln!(
        out,
        "  robustness: {} failovers, {} rerouted, {} crashes, {} partitions, {} probe flaps",
        report.failovers, report.rerouted, report.crashes, report.partitions, report.probe_flaps,
    );
    let _ = writeln!(
        out,
        "  retry budget: {} consumed / {} capacity (+{} refilled), {} denied",
        report.budget_consumed,
        report.budget_capacity,
        report.budget_refilled,
        report.budget_denied,
    );
    let _ = writeln!(
        out,
        "  fleet tail (merged {} samples): p50 {} ns | p90 {} ns | p99 {} ns | p99.9 {} ns",
        report.merged_latency.count(),
        report.merged_latency.percentile(500),
        report.merged_latency.percentile(900),
        report.merged_latency.percentile(990),
        report.merged_latency.percentile(999),
    );
    let _ = writeln!(
        out,
        "  {} rounds, {} simulated fleet ns",
        report.rounds, report.fleet_ns
    );
    let _ = writeln!(
        out,
        "{:<6} {:<8} {:<10} {:>4} {:>8} {:>9} {:>7} {:>8} {:>7} {:>6} {:>9} {:>12}",
        "shard",
        "backend",
        "state",
        "gen",
        "served",
        "degraded",
        "crash",
        "respawn",
        "eject",
        "flaps",
        "p99 ns",
        "sim ns"
    );
    for row in &report.rows {
        let _ = writeln!(
            out,
            "{:<6} {:<8} {:<10} {:>4} {:>8} {:>9} {:>7} {:>8} {:>7} {:>6} {:>9} {:>12}",
            row.id,
            row.backend.to_string(),
            row.state,
            row.generation,
            row.served,
            row.degraded,
            row.crashes,
            row.respawns,
            row.ejections,
            row.probe_failures,
            row.latency.percentile(990),
            row.sim_ns,
        );
    }
    out
}

/// Dashboard rows rendered for at most this many trailing windows (the
/// burn state still walks every window, so the visible burn columns are
/// exact).
const MONITOR_DASHBOARD_WINDOWS: usize = 24;

/// Compact per-window flush attribution: the non-zero trigger reasons.
fn flush_reason_cells(c: &Counters) -> String {
    let reasons = [
        ("quantum", c.flush_quantum_triggers),
        ("barrier", c.flush_barrier_triggers),
        ("explicit", c.flush_explicit_triggers),
        ("drain", c.flush_drain_triggers),
    ];
    let cells: Vec<String> = reasons
        .iter()
        .filter(|&&(_, n)| n > 0)
        .map(|&(reason, n)| format!("{reason} {n}"))
        .collect();
    if cells.is_empty() {
        "-".to_owned()
    } else {
        cells.join(" ")
    }
}

/// Renders the monitored fleet run: the per-window dashboard over the
/// fleet-merged ring (QPS, tail latency, error rate, burn rate, parks
/// and wakes, flush attribution), the advisory degradation log, and
/// the ejection timeline it predicted. Everything is simulated time
/// from the seed, so the output is byte-identical across runs.
#[must_use]
pub fn render_monitor(report: &FleetReport) -> String {
    let mut out = String::new();
    let Some(monitor) = &report.monitor else {
        let _ = writeln!(out, "monitor: not armed on this run");
        return out;
    };
    let _ = writeln!(
        out,
        "SLO monitor: seed {:#x}, {} shards, {} requests, chaos {}, window {} ns",
        report.seed,
        report.rows.len(),
        report.admitted,
        if report.chaos { "on" } else { "off" },
        WINDOW_NS,
    );
    let _ = writeln!(
        out,
        "  policy: p99 <= {} ns, error budget {} ppm, alert at fast {}m / slow {}m burn",
        SLO.latency_p99_ns, SLO.error_budget_ppm, SLO.fast_alert_milli, SLO.slow_alert_milli,
    );
    if monitor.brownout {
        let _ = writeln!(
            out,
            "  brownout: round {}, {} ppm injection, clock at {}/1000",
            BROWNOUT.round, BROWNOUT.rate_ppm, BROWNOUT.throttle_milli,
        );
    }
    let windows = monitor.ring.windows();
    let shown = windows.len().min(MONITOR_DASHBOARD_WINDOWS);
    let _ = writeln!(
        out,
        "  fleet-merged windows: {} held ({} shown), totals {} requests",
        windows.len(),
        shown,
        monitor.ring.totals().requests(),
    );
    let _ = writeln!(
        out,
        "  {:>6} {:>7} {:>9} {:>9} {:>9} {:>8} {:>6} {:>6} {:>6} {:>7}  {}",
        "window",
        "reqs",
        "req/s",
        "p50 ns",
        "p99 ns",
        "err ppm",
        "burn",
        "parks",
        "wakes",
        "flushes",
        "flush reasons",
    );
    let mut burn = BurnState::default();
    let skip = windows.len() - shown;
    for (i, w) in windows.iter().enumerate() {
        burn.observe(w.counters.requests_degraded, w.requests());
        if i < skip {
            continue;
        }
        let (fast, _) = burn.burn_milli(&SLO);
        let qps = w.requests() * 1_000_000_000 / w.width_ns.max(1);
        let breached = monitor.degraded.iter().any(|d| d.window == w.index);
        let _ = writeln!(
            out,
            "  {:>6} {:>7} {:>9} {:>9} {:>9} {:>8} {:>6} {:>6} {:>6} {:>7}  {}{}",
            w.index,
            w.requests(),
            qps,
            w.latency.percentile(500),
            w.latency.percentile(990),
            w.error_ppm(),
            fast,
            w.counters.go_parks,
            w.counters.go_wakes,
            w.counters.batch_flushes,
            flush_reason_cells(&w.counters),
            if breached { "  << SLO breach" } else { "" },
        );
    }
    if monitor.degraded.is_empty() {
        let _ = writeln!(out, "  degradation log: empty (no window breached the SLO)");
    } else {
        let _ = writeln!(
            out,
            "  degradation log: {} advisory windows",
            monitor.degraded.len()
        );
        for d in &monitor.degraded {
            let _ = writeln!(
                out,
                "    round {:>4}  shard {}  window {:>5}  err {:>7} ppm  p99 {:>9} ns",
                d.round, d.shard, d.window, d.error_ppm, d.p99_ns,
            );
        }
    }
    for &(shard, round) in &monitor.eject_rounds {
        let _ = writeln!(out, "  ejection: shard {shard} at round {round}");
    }
    let fmt_round = |r: Option<u64>| r.map_or("-".to_owned(), |r| r.to_string());
    let _ = writeln!(
        out,
        "  first degraded round {} vs first ejection round {} -> advisory signal led: {}",
        fmt_round(monitor.first_degraded_round()),
        fmt_round(monitor.first_eject_round()),
        if monitor.degradation_led_ejection() {
            "yes"
        } else if monitor.first_eject_round().is_none() {
            "n/a (no ejection)"
        } else {
            "NO"
        },
    );
    let totals = monitor.ring.totals();
    let _ = writeln!(
        out,
        "  shard-local alerts: {} SLO burns | balancer advisories: {} ShardDegraded events",
        totals.counters.slo_burns,
        monitor.telemetry.counters().shards_degraded,
    );
    out
}

/// Renders a frozen flight recording: the trigger, the windows leading
/// up to it, and the event ring at freeze time. Byte-stable per seed.
#[must_use]
pub fn render_flightrec(recording: &FlightRecording) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Flight recording: frozen at {} ns by {}",
        recording.at_ns, recording.trigger,
    );
    let _ = writeln!(
        out,
        "  {:>6} {:>7} {:>9} {:>9} {:>8} {:>7} {:>9} {:>8}",
        "window", "reqs", "p50 ns", "p99 ns", "err ppm", "faults", "injected", "flushes",
    );
    for w in &recording.windows {
        let _ = writeln!(
            out,
            "  {:>6} {:>7} {:>9} {:>9} {:>8} {:>7} {:>9} {:>8}",
            w.index,
            w.requests(),
            w.latency.percentile(500),
            w.latency.percentile(990),
            w.error_ppm(),
            w.counters.faults,
            w.counters.injected_faults,
            w.counters.batch_flushes,
        );
    }
    let _ = writeln!(out, "  event ring ({} events):", recording.events.len());
    for e in &recording.events {
        let _ = writeln!(out, "    [{:>12} ns] {}", e.at_ns, e.event);
    }
    out
}

/// Renders the counter registry: every recorder counter with its
/// one-line description, in `Counters::to_json` order.
#[must_use]
pub fn render_counters_list() -> String {
    let registry = Counters::registry();
    let mut out = String::new();
    let _ = writeln!(out, "Counter registry: {} counters", registry.len());
    let width = registry
        .iter()
        .map(|(name, _)| name.len())
        .max()
        .unwrap_or(0);
    for (name, description) in registry {
        let _ = writeln!(out, "  {name:<width$}  {description}");
    }
    out
}

/// Renders the §6.5 security matrix.
#[must_use]
pub fn render_security(all: &[SecurityResults]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "§6.5: recreated malicious packages");
    for results in all {
        let _ = writeln!(out, "backend: {}", results.backend);
        for s in &results.scenarios {
            let _ = writeln!(
                out,
                "  [{}] {}",
                if s.reproduced() { "ok" } else { "FAIL" },
                s.name
            );
            let _ = writeln!(
                out,
                "       unprotected leaked: {} | enclosed blocked: {} | legit works: {}",
                s.unprotected_leaked, s.enclosed_blocked, s.legit_ok
            );
            if let Some(fault) = &s.fault {
                let _ = writeln!(out, "       fault: {fault}");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::macrobench::{MacroBench, MacroCell};

    #[test]
    fn table1_render_includes_paper_columns() {
        let rows = paper_table1();
        let text = render_table1(&rows);
        assert!(text.contains("call"));
        assert!(text.contains("924"));
        assert!(text.contains("(paper)"));
    }

    #[test]
    fn table2_render_formats_units() {
        let row = MacroRow {
            bench: MacroBench::Bild,
            baseline: MacroCell {
                raw: 13.25,
                slowdown: 1.0,
            },
            mpk: MacroCell {
                raw: 14.88,
                slowdown: 1.12,
            },
            vtx: MacroCell {
                raw: 13.91,
                slowdown: 1.05,
            },
            proc: None,
        };
        let text = render_table2(&[row]);
        assert!(text.contains("13.25ms"));
        assert!(text.contains("1.12x"));
        assert!(!text.contains("LB_PROC"), "two-way table stays two-way");

        let mut three = row;
        three.proc = Some(MacroCell {
            raw: 21.04,
            slowdown: 1.59,
        });
        let text = render_table2(&[three]);
        assert!(text.contains("LB_PROC"), "{text}");
        assert!(text.contains("21.04ms"));
        assert!(text.contains("1.59x"));
    }

    #[test]
    fn table2_info_renders_dashes_for_stdlib() {
        let text = render_table2_info();
        assert!(text.contains("bild"));
        assert!(text.contains('-'), "HTTP row uses dashes");
        assert!(text.contains("166000"));
    }
}
