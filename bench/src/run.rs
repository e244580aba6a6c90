//! One measured run of one workload: set up and run it repeatedly for
//! the requested time, check every repetition's output, and report the
//! end-to-end metrics (untraced) or the per-layer metrics (traced).
//!
//! Host seconds time the simulator; simulated nanoseconds come from the
//! machines' clocks and are the same on every repetition of a seed.
//!
//! Every simulated per-operation figure weighs the fleet's backends
//! alike: it is the mean, over the backends the fleet runs, of that
//! backend's total divided by the requests its shards ran. The seeded
//! sessions route a different share of the traffic to each shard on
//! every seed, and an LB_PROC request costs several LB_MPK requests, so
//! a plain fleet-wide average would mostly measure the routing mix.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use enclosure_apps::fasthttp::FastHttpApp;
use enclosure_apps::plotlib::{self, PlotConfig, PlotRun};
use enclosure_apps::wiki::WikiApp;
use enclosure_fleet::{check_invariants, Fleet, FleetConfig, FleetReport, ShardRow, Workload};
use enclosure_pyfront::{Interpreter, MetadataMode};
use enclosure_support::XorShift;
use enclosure_telemetry::{Counters, Recorder};
use litterbox::Backend;

use crate::catalog::{self, Metric};
use crate::ledger::{self, Charges, Ledger};
use crate::stats::{mean, median, percentile, ratio};
use crate::table1;
use crate::timed::{self, CallLog, Timed};

/// Input sizes. The benchmark runs [`Scale::FULL`]; the smoke test runs
/// [`Scale::SMOKE`].
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Requests per wiki fleet run.
    pub wiki_requests: u64,
    /// Requests per FastHTTP fleet run.
    pub fasthttp_requests: u64,
    /// Fewest plotted points; the seed adds up to 2 % more.
    pub plot_points: u64,
    /// Iterations of each Table 1 host loop.
    pub table1_iters: u64,
    /// Keys the calibration task inserts into its map, then removes.
    pub calibration_keys: u64,
}

impl Scale {
    /// The benchmark's sizes.
    pub const FULL: Scale = Scale {
        wiki_requests: 200_000,
        fasthttp_requests: 20_000,
        plot_points: 300_000,
        table1_iters: 200_000,
        calibration_keys: 150_000,
    };
    /// Sizes for a test that must finish in seconds.
    pub const SMOKE: Scale = Scale {
        wiki_requests: 2_000,
        fasthttp_requests: 2_000,
        plot_points: 10_000,
        table1_iters: 2_000,
        calibration_keys: 1_000,
    };
}

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Workload name (one of [`catalog::WORKLOADS`]).
    pub workload: &'static str,
    /// Seed the inputs are made from.
    pub seed: u64,
    /// Host time to keep repeating the workload for (at least one
    /// repetition always runs).
    pub seconds: f64,
    /// Report per-layer metrics from an extra traced repetition.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every end-to-end metric (untraced) or every per-layer metric
    /// (traced) with its value, in catalog order.
    pub metrics: Vec<(&'static Metric, f64)>,
    /// Operations run: admitted requests, or plotted points summed over
    /// the three arms, over every repetition.
    pub attempted: u64,
    /// Admitted requests that got no response (always 0 when the fleet
    /// invariants hold).
    pub failed: u64,
    /// Host seconds each repetition's run took (the traced one
    /// excluded), in order.
    pub rep_run_s: Vec<f64>,
    /// Host seconds of every calibration task, in order.
    pub cal_s: Vec<f64>,
    /// Output checks that failed, by name; empty when the run is correct.
    pub failures: Vec<String>,
    /// A traced run's ledger per backend (one for the plot).
    pub ledgers: Vec<Ledger>,
}

/// Set-ups timed back to back in every run: one takes under a
/// millisecond, so its median needs many samples to settle.
const SETUPS: usize = 51;

/// Host seconds the calibration task takes on the reference host, the
/// 2-vCPU 2.1 GHz Xeon VM the bounds in `BENCHMARK.json` were measured
/// on, when its neighbours are quiet (the 5th percentile of 1,230
/// timings).
const CALIBRATION_REF_S: f64 = 0.060;

/// The paper's §6.4 slowdowns: conservative and decoupled metadata.
const PAPER_SLOWDOWNS: [f64; 2] = [18.0, 1.4];

enum Setup {
    Wiki(FleetConfig),
    FastHttp(FleetConfig),
    Plot(PlotConfig),
}

fn setup(workload: &str, seed: u64, scale: Scale) -> Result<Setup, String> {
    let fleet = |requests, seed| FleetConfig::new(4, requests, seed);
    Ok(match workload {
        "fleet-wiki-mpk" => Setup::Wiki(fleet(scale.wiki_requests, seed)),
        "fleet-fasthttp-mixed" => {
            Setup::FastHttp(fleet(scale.fasthttp_requests, seed).mixed_backends())
        }
        "fleet-wiki-chaos" => {
            // The balancer kills shard `seed % 4`: fixing the low bits
            // always kills shard 2, the LB_PROC one, whose rebuild
            // re-forks every child. Random fleet sites stay off: each
            // random shard crash drops a machine's whole state, so their
            // number and timing would move peak RSS by a quarter from
            // one seed to the next (measured).
            let mut cfg = fleet(scale.wiki_requests, (seed << 2) | 2)
                .mixed_backends()
                .with_chaos();
            cfg.fleet_rate_ppm = 0;
            Setup::Wiki(cfg)
        }
        "python-plot-vtx" => Setup::Plot(PlotConfig {
            points: scale.plot_points
                + XorShift::new(seed).range_u64(0, (scale.plot_points / 50).max(1)),
            ..PlotConfig::default()
        }),
        other => return Err(format!("unknown workload '{other}'")),
    })
}

/// Runs `cfg`.
///
/// # Errors
/// A fault escaping the workload, or a metric the run failed to compute.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    match setup(cfg.workload, cfg.seed, cfg.scale)? {
        Setup::Wiki(fleet) => run_fleet::<WikiApp>(cfg, &fleet),
        Setup::FastHttp(fleet) => run_fleet::<FastHttpApp>(cfg, &fleet),
        Setup::Plot(plot) => run_plot(cfg, plot),
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host seconds of a fixed task that uses the host the way the
/// simulator does: it allocates, frees and chases pointers through a
/// B-tree of a few megabytes, so neighbours that contend for caches and
/// memory slow it as they slow the workloads. It calls nothing in the
/// repository's crates, so no change there can reach it.
fn calibration_s(keys: u64) -> f64 {
    let t = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map = BTreeMap::new();
    for _ in 0..keys {
        let r = next();
        map.insert(r % 1_000_000, vec![0u8; (r % 64) as usize + 8]);
    }
    let mut removed = 0u64;
    for _ in 0..keys {
        removed += u64::from(map.remove(&(next() % 1_000_000)).is_some());
    }
    std::hint::black_box((removed, map.len()));
    secs(t.elapsed())
}

/// What [`measure`] timed.
struct Measured<T> {
    /// Every repetition's output, in order.
    reps: Vec<T>,
    /// Host seconds of every calibration task.
    cal_s: Vec<f64>,
    /// Median set-up time, in reference-host seconds.
    setup_s: f64,
    /// Peak RSS after the first repetition, in MB.
    peak_rss_mb: f64,
}

/// Runs `rep` once in the fresh process and reads the peak RSS; then
/// times [`SETUPS`] set-ups in a row, between two calibration tasks that
/// rescale their median to reference-host seconds; then repeats `rep`,
/// each repetition followed by the calibration task, until `cfg.seconds`
/// of host time have passed. No calibration runs before the peak RSS is
/// read, and the set-ups always follow the same history.
fn measure<T>(
    cfg: &RunConfig,
    mut rep: impl FnMut() -> Result<T, String>,
    mut setup: impl FnMut() -> Result<Duration, String>,
) -> Result<Measured<T>, String> {
    let started = Instant::now();
    let keys = cfg.scale.calibration_keys;
    let mut reps = vec![rep()?];
    let peak_rss_mb = peak_rss_mb();
    let mut cal_s = vec![calibration_s(keys)];
    let setups = (0..SETUPS)
        .map(|_| setup().map(secs))
        .collect::<Result<Vec<_>, _>>()?;
    cal_s.push(calibration_s(keys));
    let setup_s = reference_s(median(&setups), &cal_s);
    while started.elapsed().as_secs_f64() < cfg.seconds {
        reps.push(rep()?);
        cal_s.push(calibration_s(keys));
    }
    Ok(Measured {
        reps,
        cal_s,
        setup_s,
        peak_rss_mb,
    })
}

/// The work one backend did: the fleet shards running it, or the
/// decoupled plot arm.
struct Group {
    backend: Backend,
    /// Requests its shards ran (or points plotted).
    ops: u64,
    /// Simulated nanoseconds on its machines.
    sim_ns: u64,
    counters: Counters,
}

/// Mean over `groups` of `f(group) / group.ops`.
fn per_op(groups: &[Group], f: impl Fn(&Group) -> u64) -> f64 {
    mean(groups.iter().map(|g| ratio(f(g), g.ops)))
}

/// The fleet's shards grouped by backend, in first-shard order, with
/// each group's merged telemetry.
fn fleet_groups(report: &FleetReport) -> Vec<(Group, Recorder)> {
    let mut groups: Vec<(Group, Recorder)> = Vec::new();
    for row in &report.rows {
        let ops: u64 = row.batch_sizes.iter().sum();
        match groups.iter_mut().find(|(g, _)| g.backend == row.backend) {
            Some((g, telemetry)) => {
                g.ops += ops;
                g.sim_ns += row.sim_ns;
                telemetry.merge(&row.telemetry);
                g.counters = *telemetry.counters();
            }
            None => groups.push((
                Group {
                    backend: row.backend,
                    ops,
                    sim_ns: row.sim_ns,
                    counters: *row.telemetry.counters(),
                },
                row.telemetry.clone(),
            )),
        }
    }
    groups
}

struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    fn new() -> Metrics {
        Metrics(BTreeMap::new())
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// Sets every metric of `layer` to 0: the workload does not run it,
    /// so the layer reports no work.
    fn zero_layer(&mut self, layer: &str) {
        for m in catalog::per_layer().filter(|m| m.layer == layer) {
            self.set(m.name, 0.0);
        }
    }

    /// The catalog's metrics of one kind, in catalog order; every one
    /// must have been set, and nothing else.
    fn emit(mut self, end_to_end: bool) -> Result<Vec<(&'static Metric, f64)>, String> {
        let mut out = Vec::new();
        for m in catalog::METRICS
            .iter()
            .filter(|m| m.is_end_to_end() == end_to_end)
        {
            let v = self
                .0
                .remove(m.name)
                .ok_or_else(|| format!("metric '{}' was not computed", m.name))?;
            out.push((m, v));
        }
        match self.0.keys().next() {
            Some(extra) => Err(format!("metric '{extra}' is not in the catalog")),
            None => Ok(out),
        }
    }
}

type CounterOf = fn(&Counters) -> u64;

/// Per-layer metrics read off the machines' counters, per operation.
#[rustfmt::skip]
const PER_OP_COUNTERS: [(&str, CounterOf); 20] = [
    ("gofront.reschedules_per_op", |c| c.reschedules),
    ("gofront.parks_per_op", |c| c.go_parks),
    ("gofront.wakes_per_op", |c| c.go_wakes),
    ("gofront.gc_pause_ns_per_op", |c| c.gc_pause_ns),
    ("litterbox.switches_per_op", |c| c.prologs),
    ("litterbox.transfers_per_op", |c| c.transfers),
    ("litterbox.transfer_pages_per_op", |c| c.transfer_pages),
    ("litterbox.view_updates_per_op", |c| c.view_updates),
    ("litterbox.batch_flushes_per_op", |c| c.batch_flushes),
    ("kernel.syscalls_per_op", |c| c.syscall_entries),
    ("kernel.enclosed_syscalls_per_op", |c| c.enclosed_syscall_entries),
    ("kernel.seccomp_evals_per_op", |c| c.seccomp_verdicts),
    ("kernel.seccomp_denied_per_op", |c| c.seccomp_denied),
    ("hw.wrpkru_per_op", |c| c.wrpkru_writes),
    ("hw.cr3_writes_per_op", |c| c.cr3_writes),
    ("hw.vm_exits_per_op", |c| c.vm_exits),
    ("hw.ipc_per_op", |c| c.ipc_crossings),
    ("hw.pkey_mprotect_pages_per_op", |c| c.pkey_mprotect_pages),
    ("hw.key_binds_per_op", |c| c.key_binds),
    ("hw.key_evictions_per_op", |c| c.key_evictions),
];

/// Shares of the batch flushes, by what triggered them.
#[rustfmt::skip]
const FLUSH_SHARES: [(&str, CounterOf); 6] = [
    ("litterbox.flush_share.size", |c| c.flush_size_triggers),
    ("litterbox.flush_share.deadline", |c| c.flush_deadline_triggers),
    ("litterbox.flush_share.quantum", |c| c.flush_quantum_triggers),
    ("litterbox.flush_share.barrier", |c| c.flush_barrier_triggers),
    ("litterbox.flush_share.explicit", |c| c.flush_explicit_triggers),
    ("litterbox.flush_share.drain", |c| c.flush_drain_triggers),
];

fn counter_metrics(m: &mut Metrics, groups: &[Group]) {
    for (name, f) in PER_OP_COUNTERS {
        m.set(name, per_op(groups, |g| f(&g.counters)));
    }
    let mut total = Counters::default();
    for g in groups {
        total.merge(&g.counters);
    }
    m.set(
        "litterbox.batch_fill",
        ratio(total.batched_syscalls, total.batch_flushes),
    );
    for (name, f) in FLUSH_SHARES {
        m.set(name, ratio(f(&total), total.batch_flushes));
    }
    #[allow(clippy::cast_precision_loss)]
    {
        m.set("hw.proc_spawns", total.proc_spawns as f64);
        m.set("hw.injected_faults", total.injected_faults as f64);
    }
}

/// The `sim.*` metrics: each part per op, averaged over the groups.
fn ledger_metrics(m: &mut Metrics, groups: &[Group], ledgers: &[Ledger]) {
    // The catalog lists the `sim` layer in `ledger::PARTS` order.
    for (k, metric) in catalog::per_layer()
        .filter(|x| x.layer == "sim")
        .enumerate()
    {
        let parts = groups
            .iter()
            .zip(ledgers)
            .map(|(g, l)| ratio(l.parts_ns[k], g.ops));
        m.set(metric.name, mean(parts));
    }
}

fn table1_metrics(m: &mut Metrics, iters: u64) -> Result<(), String> {
    #[rustfmt::skip]
    const NAMES: [(Backend, [&str; 3]); 3] = [
        (Backend::Mpk, ["litterbox.call_host_ns.mpk", "litterbox.transfer_host_ns.mpk", "litterbox.syscall_host_ns.mpk"]),
        (Backend::Vtx, ["litterbox.call_host_ns.vtx", "litterbox.transfer_host_ns.vtx", "litterbox.syscall_host_ns.vtx"]),
        (Backend::Proc, ["litterbox.call_host_ns.proc", "litterbox.transfer_host_ns.proc", "litterbox.syscall_host_ns.proc"]),
    ];
    for (backend, names) in NAMES {
        let ns = table1::host_ns(backend, iters)
            .map_err(|f| format!("Table 1 loop on {backend}: {f}"))?;
        for (name, v) in names.into_iter().zip(ns) {
            m.set(name, v);
        }
    }
    Ok(())
}

fn overhead_pct(traced_s: f64, untraced_s: f64) -> f64 {
    if untraced_s > 0.0 {
        (traced_s / untraced_s - 1.0) * 100.0
    } else {
        0.0
    }
}

/// `host_s` host seconds in reference-host seconds: rescaled by the
/// run's mean calibration time over the reference host's. The host's
/// speed drifts by tens of percent within seconds and over minutes, and
/// the calibration task, timed all through the run, drifts with it.
fn reference_s(host_s: f64, cal_s: &[f64]) -> f64 {
    host_s * CALIBRATION_REF_S / mean(cal_s.iter().copied())
}

/// Operations per reference-host second over all repetitions of `ops`
/// operations each.
#[allow(clippy::cast_precision_loss)]
fn ops_per_s(ops: u64, run_s: &[f64], cal_s: &[f64]) -> f64 {
    (ops * run_s.len() as u64) as f64 / reference_s(run_s.iter().sum(), cal_s)
}

// ---------------------------------------------------------------------
// Fleets
// ---------------------------------------------------------------------

struct FleetRep {
    run: Duration,
    report: FleetReport,
}

fn new_fleet<W: Workload>(cfg: &FleetConfig) -> Result<Fleet<W>, String> {
    Fleet::<W>::new(cfg.clone()).map_err(|f| format!("Fleet::new: {f}"))
}

fn fleet_rep<W: Workload>(cfg: &FleetConfig) -> Result<FleetRep, String> {
    let fleet = new_fleet::<W>(cfg)?;
    let t = Instant::now();
    let report = fleet.run().map_err(|f| format!("Fleet::run: {f}"))?;
    Ok(FleetRep {
        run: t.elapsed(),
        report,
    })
}

fn run_fleet<W: Workload>(cfg: &RunConfig, fleet: &FleetConfig) -> Result<Outcome, String> {
    let measured = measure(
        cfg,
        || fleet_rep::<W>(fleet),
        || {
            let t = Instant::now();
            let built = new_fleet::<W>(fleet)?;
            let took = t.elapsed();
            drop(built);
            Ok(took)
        },
    )?;
    let (reps, cal) = (&measured.reps, &measured.cal_s);
    let first = &reps[0].report;
    let first_json = first.to_json().to_compact();
    let mut failures = Vec::new();
    for (i, rep) in reps.iter().enumerate() {
        for v in check_invariants(fleet, &rep.report) {
            failures.push(format!("fleet invariant (repetition {i}): {v}"));
        }
        if i > 0 && rep.report.to_json().to_compact() != first_json {
            failures.push(format!("report of repetition {i} differs from the first"));
        }
    }
    let admitted = first.admitted;
    let run_s: Vec<f64> = reps.iter().map(|r| secs(r.run)).collect();
    let mut outcome = Outcome {
        metrics: Vec::new(),
        attempted: admitted * reps.len() as u64,
        failed: reps
            .iter()
            .map(|r| r.report.admitted.saturating_sub(r.report.responses()))
            .sum(),
        rep_run_s: run_s.clone(),
        cal_s: cal.clone(),
        failures,
        ledgers: Vec::new(),
    };
    if !cfg.trace {
        let groups: Vec<Group> = fleet_groups(first).into_iter().map(|(g, _)| g).collect();
        let mut m = Metrics::new();
        m.set("setup_s", measured.setup_s);
        m.set("host_ops_per_s", ops_per_s(admitted, &run_s, cal));
        m.set("peak_rss_mb", measured.peak_rss_mb);
        m.set("sim_ns_per_op", per_op(&groups, |g| g.sim_ns));
        outcome.metrics = m.emit(true)?;
        return Ok(outcome);
    }

    let (traced, log) = timed::trace(|| fleet_rep::<Timed<W>>(fleet));
    let traced = traced?;
    let report = &traced.report;
    if report.to_json().to_compact() != first_json {
        outcome.failures.push(
            "traced report differs from the untraced one (Timed<W> must only observe)".into(),
        );
    }
    let serve_calls = log.serves.len() as u64;
    let batches: u64 = report.rows.iter().map(|r| r.batches).sum();
    if serve_calls != batches {
        outcome.failures.push(format!(
            "Timed<W> saw {serve_calls} serve calls but the report has {batches} batches"
        ));
    }

    // The same fleet on the two-thread pool: the report may not change,
    // only the host time.
    let parallel = fleet_rep::<W>(&fleet.clone().with_parallelism(2))?;
    if parallel.report.to_json().to_compact() != first_json {
        outcome
            .failures
            .push("the report at parallelism 2 differs from the one at 1".into());
    }

    let mut m = Metrics::new();
    m.zero_layer("pyfront");
    m.set("litterbox.switch_host_ns", 0.0);
    m.set(
        "fleet.parallel_speedup",
        median(&run_s) / secs(parallel.run),
    );
    fleet_layer_metrics(&mut m, report, &log, secs(traced.run));
    m.set(
        "bench.trace_overhead_pct",
        overhead_pct(secs(traced.run), median(&run_s)),
    );
    m.set("bench.calibration_ms", median(cal) * 1e3);
    let (groups, telemetry): (Vec<Group>, Vec<Recorder>) = fleet_groups(report).into_iter().unzip();
    counter_metrics(&mut m, &groups);
    let ledgers: Result<Vec<Ledger>, String> = groups
        .iter()
        .zip(&telemetry)
        .map(|(g, rec)| {
            let machines = log.machines.iter().filter(|(b, _, _)| *b == g.backend);
            let machine_ns: u64 = machines.clone().map(|(_, _, ns)| ns).sum();
            if machine_ns != g.sim_ns {
                return Err(format!(
                    "{} machine clocks sum to {machine_ns} ns but its shard rows to {} ns",
                    g.backend, g.sim_ns
                ));
            }
            let stats = ledger::sum_stats(machines.map(|(_, s, _)| s));
            Ledger::split(g.sim_ns, &Charges::read(&stats, rec))
        })
        .collect();
    finish_ledgers(&mut m, &mut outcome, &groups, ledgers);
    table1_metrics(&mut m, cfg.scale.table1_iters)?;
    outcome.metrics = m.emit(false)?;
    Ok(outcome)
}

fn finish_ledgers(
    m: &mut Metrics,
    outcome: &mut Outcome,
    groups: &[Group],
    ledgers: Result<Vec<Ledger>, String>,
) {
    match ledgers {
        Ok(ledgers) => {
            ledger_metrics(m, groups, &ledgers);
            outcome.ledgers = ledgers;
        }
        Err(e) => {
            m.zero_layer("sim");
            outcome.failures.push(e);
        }
    }
}

/// Host time covered by at least one of `spans`.
fn covered(mut spans: Vec<(Instant, Instant)>) -> Duration {
    spans.sort();
    let mut total = Duration::ZERO;
    let mut cur: Option<(Instant, Instant)> = None;
    for (s, e) in spans {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

#[allow(clippy::cast_precision_loss)]
fn fleet_layer_metrics(m: &mut Metrics, report: &FleetReport, log: &CallLog, run_s: f64) {
    let admitted = report.admitted;
    let busy = secs(covered(log.serves.clone()));
    let serve_s: f64 = log.serves.iter().map(|&(s, e)| secs(e - s)).sum();
    let serial_s = (run_s - busy).max(0.0);
    let calls_us: Vec<f64> = log.serves.iter().map(|&(s, e)| secs(e - s) * 1e6).collect();
    let build_s: f64 = log.builds.iter().map(|d| secs(*d)).sum();
    let sum = |f: fn(&ShardRow) -> u64| report.rows.iter().map(f).sum::<u64>();
    let batches = sum(|r| r.batches);

    m.set("fleet.run_s", run_s);
    m.set("fleet.serve_s", serve_s);
    m.set("fleet.build_s", build_s);
    m.set("fleet.serial_s", serial_s);
    m.set(
        "fleet.serial_frac",
        if run_s > 0.0 { serial_s / run_s } else { 0.0 },
    );
    m.set(
        "fleet.overlap",
        if busy > 0.0 { serve_s / busy } else { 0.0 },
    );
    m.set("fleet.serve_call_us.p50", percentile(&calls_us, 50.0));
    m.set("fleet.serve_call_us.p99", percentile(&calls_us, 99.0));
    m.set("fleet.rounds", report.rounds as f64);
    m.set("fleet.batches", batches as f64);
    m.set(
        "fleet.catchup_batches",
        report.spans.iter().filter(|s| s.label == "catchup").count() as f64,
    );
    m.set(
        "fleet.reqs_per_batch",
        ratio(sum(|r| r.batch_sizes.iter().sum()), batches),
    );
    m.set("fleet.failovers", report.failovers as f64);
    m.set("fleet.rerouted", report.rerouted as f64);
    m.set("fleet.crashes", report.crashes as f64);
    m.set("fleet.respawns", sum(|r| r.respawns) as f64);
    m.set("fleet.budget_denied", report.budget_denied as f64);
    m.set(
        "fleet.sim_ops_per_s",
        ratio(admitted, report.fleet_ns) * 1e9,
    );
    m.set(
        "fleet.fail_ratio",
        ratio(report.client_degraded + report.lb_degraded, admitted),
    );
    m.set(
        "fleet.sim_p50_ns",
        report.merged_latency.percentile(500) as f64,
    );
    m.set(
        "fleet.sim_p99.9_ns",
        report.merged_latency.percentile(999) as f64,
    );
    m.set(
        "apps.serve_ns_per_op",
        serve_s * 1e9 / admitted.max(1) as f64,
    );
    m.set("apps.degraded_per_op", ratio(sum(|r| r.degraded), admitted));
    m.set("apps.retried_per_op", ratio(sum(|r| r.retried), admitted));
    m.set(
        "apps.quarantined_per_op",
        ratio(sum(|r| r.quarantined), admitted),
    );
    m.set(
        "gofront.build_ms",
        mean(log.builds.iter().map(|d| secs(*d) * 1e3)),
    );
}

// ---------------------------------------------------------------------
// Python plot
// ---------------------------------------------------------------------

/// The three §6.4 arms: plain Python, conservative and decoupled
/// metadata.
const ARMS: [(Backend, MetadataMode); 3] = [
    (Backend::Baseline, MetadataMode::CoLocated),
    (Backend::Vtx, MetadataMode::CoLocated),
    (Backend::Vtx, MetadataMode::Decoupled),
];

struct PlotRep {
    /// Host time of the three `plotlib::build` calls.
    setup: Duration,
    run: [Duration; 3],
    runs: [PlotRun; 3],
    /// Charges the decoupled arm made while `run_on` ran.
    decoupled: Charges,
}

fn build_arms(plot: PlotConfig) -> Result<Vec<Interpreter>, String> {
    ARMS.iter()
        .map(|&(backend, mode)| {
            plotlib::build(backend, mode, plot)
                .map_err(|f| format!("plotlib::build on {backend}: {f}"))
        })
        .collect()
}

fn plot_rep(plot: PlotConfig) -> Result<PlotRep, String> {
    let t = Instant::now();
    let mut arms = build_arms(plot)?;
    let setup = t.elapsed();
    let read = |py: &Interpreter| Charges::read(&py.lb().stats(), py.lb().telemetry());
    let before = read(&arms[2]);
    let mut run = [Duration::ZERO; 3];
    let mut runs = Vec::with_capacity(3);
    for (i, py) in arms.iter_mut().enumerate() {
        let t = Instant::now();
        runs.push(plotlib::run_on(py, plot).map_err(|f| format!("plotlib::run_on: {f}"))?);
        run[i] = t.elapsed();
    }
    let decoupled = read(&arms[2]).since(&before);
    let runs: [PlotRun; 3] = runs.try_into().expect("three arms");
    Ok(PlotRep {
        setup,
        run,
        runs,
        decoupled,
    })
}

fn run_plot(cfg: &RunConfig, plot: PlotConfig) -> Result<Outcome, String> {
    let measured = measure(
        cfg,
        || plot_rep(plot),
        || {
            let t = Instant::now();
            let built = build_arms(plot)?;
            let took = t.elapsed();
            drop(built);
            Ok(took)
        },
    )?;
    let (reps, cal) = (&measured.reps, &measured.cal_s);
    let points = plot.points;
    let first = &reps[0].runs;
    let mut failures = Vec::new();
    for (i, rep) in reps.iter().enumerate().skip(1) {
        if rep.runs != *first {
            failures.push(format!(
                "result set of repetition {i} differs from the first"
            ));
        }
    }
    let [base, cons, dec] = first;
    if cons.metadata_switches == 0 {
        failures.push("the conservative arm made no trusted round trips".into());
    }
    if dec.metadata_switches != 0 {
        failures.push(format!(
            "the decoupled arm made {} trusted round trips",
            dec.metadata_switches
        ));
    }
    for run in first {
        if run.output_bytes != plot.width * plot.height {
            failures.push(format!(
                "a plot wrote {} bytes, not a full canvas",
                run.output_bytes
            ));
        }
    }
    let run_s = |rep: &PlotRep| rep.run.iter().map(|d| secs(*d)).sum::<f64>();
    let untraced_run_s: Vec<f64> = reps.iter().map(run_s).collect();
    let mut outcome = Outcome {
        metrics: Vec::new(),
        attempted: 3 * points * reps.len() as u64,
        failed: 0,
        rep_run_s: untraced_run_s.clone(),
        cal_s: cal.clone(),
        failures,
        ledgers: Vec::new(),
    };
    let groups = [Group {
        backend: Backend::Vtx,
        ops: points,
        sim_ns: dec.total_ns,
        counters: dec.counters,
    }];
    if !cfg.trace {
        let mut m = Metrics::new();
        m.set("setup_s", measured.setup_s);
        m.set(
            "host_ops_per_s",
            ops_per_s(3 * points, &untraced_run_s, cal),
        );
        m.set("peak_rss_mb", measured.peak_rss_mb);
        m.set("sim_ns_per_op", per_op(&groups, |g| g.sim_ns));
        outcome.metrics = m.emit(true)?;
        return Ok(outcome);
    }

    let traced = plot_rep(plot)?;
    if traced.runs != *first {
        outcome
            .failures
            .push("traced result set differs from the untraced one".into());
    }
    let mut m = Metrics::new();
    m.zero_layer("fleet");
    m.zero_layer("apps");
    m.set("gofront.build_ms", 0.0);
    #[allow(clippy::cast_precision_loss)]
    {
        let [b, c, d] = traced.run.map(secs);
        let slowdowns = [
            ratio(cons.total_ns, base.total_ns),
            ratio(dec.total_ns, base.total_ns),
        ];
        let err = slowdowns
            .iter()
            .zip(PAPER_SLOWDOWNS)
            .map(|(s, p)| (s - p).abs() / p * 100.0)
            .fold(0.0, f64::max);
        m.set("pyfront.build_ms", secs(traced.setup) * 1e3 / 3.0);
        m.set("pyfront.run_s.baseline", b);
        m.set("pyfront.run_s.conservative", c);
        m.set("pyfront.run_s.decoupled", d);
        m.set(
            "pyfront.metadata_switches",
            cons.counters.metadata_switches as f64,
        );
        m.set("pyfront.slowdown_conservative", slowdowns[0]);
        m.set("pyfront.slowdown_decoupled", slowdowns[1]);
        m.set("pyfront.paper_err_pct", err);
        m.set(
            "litterbox.switch_host_ns",
            (c - b).max(0.0) * 1e9 / cons.counters.metadata_switches.max(1) as f64,
        );
    }
    m.set(
        "bench.trace_overhead_pct",
        overhead_pct(run_s(&traced), median(&untraced_run_s)),
    );
    m.set("bench.calibration_ms", median(cal) * 1e3);
    counter_metrics(&mut m, &groups);
    // `total_ns` adds the machine's whole delayed initialization to the
    // run window, so the ledger's init part is that figure too.
    let mut charges = traced.decoupled;
    charges.init_ns = dec.init_ns;
    let ledger = Ledger::split(dec.total_ns, &charges).map(|l| vec![l]);
    finish_ledgers(&mut m, &mut outcome, &groups, ledger);
    table1_metrics(&mut m, cfg.scale.table1_iters)?;
    outcome.metrics = m.emit(false)?;
    Ok(outcome)
}
