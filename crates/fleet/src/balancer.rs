//! The simulated load balancer: session-affine routing over N shards
//! with health probes, outlier ejection, failover under a global retry
//! budget, and supervisor-driven respawn. The whole fleet is a pure
//! function of its [`FleetConfig`] — two runs with the same config are
//! byte-identical.
//!
//! Time model: each shard carries an absolute virtual *ready time* on
//! a [`VirtualClock`]. A round plans work in three phases — **plan**
//! (sequential, in shard-index order: batch sizes, chaos draws, budget
//! grants — every decision that touches shared state),
//! **execute** (each shard serves its planned window independently,
//! inline or on a worker-thread pool), and **fold** (sequential again:
//! ledger credits, latency observation, span recording). Once the
//! guaranteed window is planned, the catch-up scheduler
//! ([`crate::sched::plan_catchup`]) grants backlogged shards extra
//! batches that fit under the round's virtual-time deadline, so fast
//! shards overlap the slow shard's window instead of idling. Because
//! every shared-state decision happens at plan time and every fold
//! runs in shard-index order, the executed report is byte-identical
//! at any [`FleetConfig::parallelism`] — parallelism is a wall-clock
//! lever, never a semantic one.

use enclosure_apps::fasthttp::FastHttpApp;
use enclosure_apps::httpd::ServeStats;
use enclosure_apps::wiki::WikiApp;
use enclosure_hw::{InjectionPlan, InjectionSite};
use enclosure_support::pool::run_scoped;
use enclosure_support::{Json, XorShift};
use enclosure_telemetry::{Event, Histogram, Recorder, WindowRing};
use litterbox::{Backend, Fault};

use crate::budget::RetryBudget;
use crate::monitor::{DegradedWindow, MonitorConfig, MonitorReport, BROWNOUT, RING_CAP, SLO};
use crate::sched::{plan_catchup, BatchSpan, CatchupSlot, VirtualClock};
use crate::session;
use crate::shard::{Shard, ShardChaos, ShardState, Workload};

/// Simulated nanoseconds of balancer overhead per round (probe fan-out
/// and routing-table upkeep).
pub const PROBE_ROUND_NS: u64 = 2_000;

/// Fleet-time advance for a round in which no shard served anything
/// (everything queued behind a respawn deadline).
pub const IDLE_ROUND_NS: u64 = 250_000;

/// Batches a shard must have served before latency-outlier detection
/// trusts its baseline.
const BASELINE_WARMUP_REQS: u64 = 64;

/// Max requests dispatched to one shard per round; admission takes
/// `BATCH ×` shards sessions' worth of requests per round.
const BATCH: u64 = 16;

/// Retry-budget bucket size.
const BUDGET_CAPACITY: u64 = 64;

/// Retry-budget refill per round.
const BUDGET_REFILL: u64 = 8;

/// Rounds an ejected shard sits out before probation.
const EJECT_COOLDOWN_ROUNDS: u64 = 8;

/// Consecutive clean probes a respawned or cooled-down shard needs to
/// leave probation.
const PROBATION_PROBES: u32 = 2;

/// Base of the respawn backoff: roughly one dispatch round, so a crashed
/// shard is back in probation quickly, but repeated crashes double it.
const RESPAWN_BACKOFF_NS: u64 = 500_000;

/// The wait before a shard's respawn after its `attempt`-th crash
/// (1-based): the exponential `RESPAWN_BACKOFF_NS << (attempt - 1)` plus a
/// deterministic uniform draw from `jitter` in `[0, base/2]`, so
/// simultaneous crashes across shards desynchronize while every run
/// stays byte-identical per seed.
fn jittered_backoff(attempt: u32, jitter: &mut XorShift) -> u64 {
    let base = RESPAWN_BACKOFF_NS << (attempt.max(1) - 1);
    base + jitter.range_u64(0, base / 2 + 1)
}

/// Everything that parameterizes a fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Backend per shard (the length is the shard count).
    pub backends: Vec<Backend>,
    /// Total requests in the session workload.
    pub requests: u64,
    /// Master seed: workload, chaos, and jitter all derive from it.
    pub seed: u64,
    /// Arm chaos: one deterministic `shard_crash` at about a quarter of
    /// the run on a seed-picked shard (early enough that the victim
    /// provably re-serves before the end), plus the random fleet and
    /// machine sites at the rates below.
    pub chaos: bool,
    /// Per-query rate for the balancer's random fleet sites
    /// (`shard_crash`/`lb_partition`/`probe_flap`) when chaos is on.
    pub fleet_rate_ppm: u64,
    /// Per-query rate for each shard's machine-level backend sites
    /// when chaos is on.
    pub backend_rate_ppm: u64,
    /// Consecutive probe failures (or latency strikes) that eject.
    pub eject_after: u32,
    /// Latency strike threshold: a batch whose mean exceeds
    /// `latency_mult ×` the shard's own baseline is a strike.
    pub latency_mult: u64,
    /// Opt-in SLO monitoring: shards sample windowed metrics, the
    /// balancer drains them per round and logs advisory
    /// `ShardDegraded` events. `None` (the default) changes nothing —
    /// existing runs stay byte-identical.
    pub monitor: Option<MonitorConfig>,
    /// Worker threads for the execute phase (`<= 1` runs inline on the
    /// calling thread). Purely a wall-clock lever: the report is
    /// byte-identical at any setting.
    pub parallelism: usize,
}

impl FleetConfig {
    /// A homogeneous LB_MPK fleet of `shards` shards.
    #[must_use]
    pub fn new(shards: usize, requests: u64, seed: u64) -> FleetConfig {
        FleetConfig {
            backends: vec![Backend::Mpk; shards.max(1)],
            requests,
            seed,
            chaos: false,
            fleet_rate_ppm: 1_500,
            backend_rate_ppm: 20_000,
            eject_after: 3,
            latency_mult: 8,
            monitor: None,
            parallelism: 1,
        }
    }

    /// Cycles the shard backends through LB_MPK → LB_VTX → LB_PROC
    /// (the heterogeneous deployment PAPERS.md reports in the wild).
    #[must_use]
    pub fn mixed_backends(mut self) -> FleetConfig {
        const CYCLE: [Backend; 3] = [Backend::Mpk, Backend::Vtx, Backend::Proc];
        for (i, b) in self.backends.iter_mut().enumerate() {
            *b = CYCLE[i % CYCLE.len()];
        }
        self
    }

    /// Arms chaos: the deterministic mid-run shard kill plus low-rate
    /// random fleet and machine sites.
    #[must_use]
    pub fn with_chaos(mut self) -> FleetConfig {
        self.chaos = true;
        self
    }

    /// Arms the SLO monitor.
    #[must_use]
    pub fn with_monitor(mut self, monitor: MonitorConfig) -> FleetConfig {
        self.monitor = Some(monitor);
        self
    }

    /// Sets the execute-phase worker-thread count.
    #[must_use]
    pub fn with_parallelism(mut self, threads: usize) -> FleetConfig {
        self.parallelism = threads;
        self
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.backends.len()
    }
}

/// Per-shard slice of a [`FleetReport`].
#[derive(Debug, Clone)]
pub struct ShardRow {
    /// Shard id.
    pub id: usize,
    /// Backend the shard ran.
    pub backend: Backend,
    /// Final health state label.
    pub state: &'static str,
    /// Machine generation at the end (1 = never crashed).
    pub generation: u32,
    /// Requests answered successfully.
    pub served: u64,
    /// Requests answered with a 503 by the app.
    pub degraded: u64,
    /// In-place transient retries inside the app.
    pub retried: u64,
    /// Requests fast-failed by an open breaker inside the app.
    pub quarantined: u64,
    /// Requests served by post-respawn generations.
    pub served_after_respawn: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Size of every batch dispatched to this shard, in order — the
    /// dispatch trace a single machine can replay to reproduce the
    /// shard's exact request stream.
    pub batch_sizes: Vec<u64>,
    /// Crashes suffered.
    pub crashes: u64,
    /// Respawns completed.
    pub respawns: u64,
    /// Outlier ejections.
    pub ejections: u64,
    /// Failed probes.
    pub probe_failures: u64,
    /// Simulated ns on this shard's clocks (all generations).
    pub sim_ns: u64,
    /// Per-request latency histogram (all generations).
    pub latency: Histogram,
    /// Merged telemetry view (all generations).
    pub telemetry: Recorder,
}

/// What one fleet run produced.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// The seed the run derived everything from.
    pub seed: u64,
    /// Whether chaos was armed.
    pub chaos: bool,
    /// Per-shard rows, in shard order.
    pub rows: Vec<ShardRow>,
    /// All shard latency histograms merged (the fleet tail).
    pub merged_latency: Histogram,
    /// All shard recorders merged into one fleet view.
    pub merged_telemetry: Recorder,
    /// Requests admitted by the balancer (== the configured workload).
    pub admitted: u64,
    /// Requests answered successfully, fleet-wide.
    pub client_ok: u64,
    /// Requests answered 503 by a shard app (graceful degradation).
    pub client_degraded: u64,
    /// Requests 503'd by the balancer itself (dry retry budget or no
    /// healthy shard).
    pub lb_degraded: u64,
    /// Failover retries dispatched to peers (budget-funded).
    pub failovers: u64,
    /// Queued-not-dispatched requests rerouted off dead shards (free:
    /// first tries, not retries).
    pub rerouted: u64,
    /// Shard crashes (targeted + random).
    pub crashes: u64,
    /// Reply-dropping partition rounds.
    pub partitions: u64,
    /// Probe flaps injected.
    pub probe_flaps: u64,
    /// Retry-budget accounting: bucket size.
    pub budget_capacity: u64,
    /// Tokens consumed by failovers.
    pub budget_consumed: u64,
    /// Tokens refilled over the run.
    pub budget_refilled: u64,
    /// Retries denied (each one became an `lb_degraded` 503).
    pub budget_denied: u64,
    /// The shard hit by the scheduled kill (armed by chaos).
    pub victim: Option<usize>,
    /// Balancer rounds executed.
    pub rounds: u64,
    /// Fleet wall time (simulated): max-parallel round advances.
    pub fleet_ns: u64,
    /// True if the round cap tripped (a bug — gated by invariants).
    pub truncated: bool,
    /// The SLO-monitor section, present only when
    /// [`FleetConfig::monitor`] was armed.
    pub monitor: Option<MonitorReport>,
    /// Every executed batch as a `[start, end)` span on its shard's
    /// virtual timeline, in fold order. Not serialized by
    /// [`FleetReport::to_json`] (it would dwarf the report); rendered
    /// by [`FleetReport::chrome_trace`].
    pub spans: Vec<BatchSpan>,
}

impl FleetReport {
    /// Responses of any kind the client saw.
    #[must_use]
    pub fn responses(&self) -> u64 {
        self.client_ok + self.client_degraded + self.lb_degraded
    }

    /// The full report as JSON (the `repro fleet --json` payload).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let quantiles = |h: &Histogram| {
            Json::obj(
                Histogram::QUANTILES
                    .iter()
                    .map(|&(name, pm)| (name, Json::U64(h.percentile(pm)))),
            )
        };
        let mut fields = vec![
            ("seed", Json::U64(self.seed)),
            ("chaos", Json::from(self.chaos)),
            ("admitted", Json::U64(self.admitted)),
            ("client_ok", Json::U64(self.client_ok)),
            ("client_degraded", Json::U64(self.client_degraded)),
            ("lb_degraded", Json::U64(self.lb_degraded)),
            ("responses", Json::U64(self.responses())),
            ("failovers", Json::U64(self.failovers)),
            ("rerouted", Json::U64(self.rerouted)),
            ("crashes", Json::U64(self.crashes)),
            ("partitions", Json::U64(self.partitions)),
            ("probe_flaps", Json::U64(self.probe_flaps)),
            (
                "retry_budget",
                Json::obj([
                    ("capacity", Json::U64(self.budget_capacity)),
                    ("consumed", Json::U64(self.budget_consumed)),
                    ("refilled", Json::U64(self.budget_refilled)),
                    ("denied", Json::U64(self.budget_denied)),
                ]),
            ),
            (
                "victim",
                match self.victim {
                    Some(v) => Json::U64(v as u64),
                    None => Json::Null,
                },
            ),
            ("rounds", Json::U64(self.rounds)),
            ("fleet_ns", Json::U64(self.fleet_ns)),
            ("truncated", Json::from(self.truncated)),
            ("latency", quantiles(&self.merged_latency)),
            ("latency_count", Json::U64(self.merged_latency.count())),
            (
                "shards",
                Json::arr(self.rows.iter().map(|r| {
                    Json::obj([
                        ("id", Json::U64(r.id as u64)),
                        ("backend", Json::from(r.backend.to_string().as_str())),
                        ("state", Json::from(r.state)),
                        ("generation", Json::from(r.generation)),
                        ("served", Json::U64(r.served)),
                        ("degraded", Json::U64(r.degraded)),
                        ("retried", Json::U64(r.retried)),
                        ("quarantined", Json::U64(r.quarantined)),
                        ("served_after_respawn", Json::U64(r.served_after_respawn)),
                        ("batches", Json::U64(r.batches)),
                        ("crashes", Json::U64(r.crashes)),
                        ("respawns", Json::U64(r.respawns)),
                        ("ejections", Json::U64(r.ejections)),
                        ("probe_failures", Json::U64(r.probe_failures)),
                        ("sim_ns", Json::U64(r.sim_ns)),
                        ("latency_count", Json::U64(r.latency.count())),
                        ("latency", quantiles(&r.latency)),
                    ])
                })),
            ),
        ];
        if let Some(monitor) = &self.monitor {
            fields.push(("monitor", monitor.to_json()));
        }
        Json::obj(fields)
    }

    /// Chrome trace-event JSON of the per-batch spans: one `tid` per
    /// shard, one complete (`X`) event per batch. Loaded in Perfetto /
    /// `chrome://tracing`, the catch-up scheduler's overlap is visible
    /// as interleaved shard tracks — multiple batches on a fast track
    /// inside one batch of a slow one.
    #[must_use]
    pub fn chrome_trace(&self) -> Json {
        // Trace-event timestamps are microseconds.
        let ts_us = |ns: u64| {
            #[allow(clippy::cast_precision_loss)]
            Json::F64(ns as f64 / 1000.0)
        };
        let mut events = Vec::new();
        for row in &self.rows {
            events.push(Json::obj([
                ("ph", Json::from("M")),
                ("name", Json::from("thread_name")),
                ("pid", Json::U64(1)),
                ("tid", Json::U64(row.id as u64)),
                (
                    "args",
                    Json::obj([(
                        "name",
                        Json::from(format!("shard-{} ({})", row.id, row.backend).as_str()),
                    )]),
                ),
            ]));
        }
        for span in &self.spans {
            events.push(Json::obj([
                ("ph", Json::from("X")),
                ("name", Json::from(span.label)),
                ("cat", Json::from("fleet")),
                ("pid", Json::U64(1)),
                ("tid", Json::U64(span.shard as u64)),
                ("ts", ts_us(span.start_ns)),
                ("dur", ts_us(span.end_ns - span.start_ns)),
                (
                    "args",
                    Json::obj([
                        ("round", Json::U64(span.round)),
                        ("reqs", Json::U64(span.reqs)),
                    ]),
                ),
            ]));
        }
        Json::obj([
            ("traceEvents", Json::arr(events)),
            ("displayTimeUnit", Json::from("ns")),
        ])
    }
}

/// Checks the fleet-level robustness invariants on a finished run.
/// Returns human-readable violations (empty = all good).
#[must_use]
pub fn check_invariants(config: &FleetConfig, report: &FleetReport) -> Vec<String> {
    let mut violations = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            violations.push(what);
        }
    };
    check(
        report.admitted == config.requests,
        format!(
            "admission must cover the workload: {} != {}",
            report.admitted, config.requests
        ),
    );
    check(
        report.responses() == report.admitted,
        format!(
            "zero lost accepted requests: {} responses != {} admitted",
            report.responses(),
            report.admitted
        ),
    );
    check(
        report.budget_consumed <= report.budget_capacity + report.budget_refilled,
        format!(
            "retry budget exceeded: consumed {} > capacity {} + refilled {}",
            report.budget_consumed, report.budget_capacity, report.budget_refilled
        ),
    );
    let per_shard: u64 = report.rows.iter().map(|r| r.latency.count()).sum();
    check(
        report.merged_latency.count() == per_shard,
        format!(
            "merged histogram loses mass: {} != Σ per-shard {}",
            report.merged_latency.count(),
            per_shard
        ),
    );
    check(!report.truncated, "round cap tripped".to_owned());
    for row in &report.rows {
        check(
            row.crashes == row.respawns,
            format!(
                "shard {}: {} crashes but {} respawns",
                row.id, row.crashes, row.respawns
            ),
        );
        // Only the *scheduled* kill proves recovery: it fires early
        // enough that the victim must re-serve before the run ends.
        // Random `shard_crash` draws can land arbitrarily late, when
        // no admissions remain to route home.
        if report.victim == Some(row.id) {
            check(
                row.served_after_respawn > 0,
                format!("shard {}: respawned but never re-served", row.id),
            );
        }
    }
    violations
}

/// A fleet of wiki shards (the default workload).
pub type WikiFleet = Fleet<WikiApp>;

/// A fleet of FastHTTP shards (the `--app=fasthttp` arm).
pub type FastHttpFleet = Fleet<FastHttpApp>;

/// How a planned batch folds into the client ledger. Decided entirely
/// at plan time — the execute phase never consults it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BatchRole {
    /// Guaranteed window batch: credit + latency observation.
    Primary,
    /// Catch-up grant from the virtual-time scheduler: folds exactly
    /// like [`BatchRole::Primary`], labeled apart in the trace.
    Catchup,
    /// The completed prefix of a mid-batch crash: replies got out
    /// (credit), but the dying machine's latency is not a baseline
    /// observation.
    CrashPrefix,
    /// A partitioned batch: the shard did the work (latency observed)
    /// but every reply was lost — failover answers instead.
    PartitionLoss,
    /// Budget-funded retries of crash casualties on a peer: credit.
    Failover,
}

impl BatchRole {
    fn label(self) -> &'static str {
        match self {
            BatchRole::Primary => "serve",
            BatchRole::Catchup => "catchup",
            BatchRole::CrashPrefix => "crash-prefix",
            BatchRole::PartitionLoss => "partition",
            BatchRole::Failover => "failover",
        }
    }
}

/// One batch the plan phase committed to a shard.
#[derive(Debug, Clone)]
struct PlannedBatch {
    take: u64,
    role: BatchRole,
}

/// Everything one shard executes this round, in dispatch order. The
/// per-shard serve list is the canonical call sequence on that
/// machine in both the inline and the parallel executor.
#[derive(Debug, Default)]
struct ShardPlan {
    batches: Vec<PlannedBatch>,
    /// Planned mid-round crash: the machine tears down *after* its
    /// serve list (the crash prefix) completes, respawning at this
    /// fleet time.
    crash_respawn_at: Option<u64>,
}

/// N shards plus the balancer state driving them.
pub struct Fleet<W: Workload> {
    cfg: FleetConfig,
    shards: Vec<Shard<W>>,
    plan: Option<InjectionPlan>,
    budget: RetryBudget,
    crash_schedule: Option<(u64, usize)>,
    victim: Option<usize>,
    now_ns: u64,
    round: u64,
    // Client ledger.
    admitted: u64,
    client_ok: u64,
    client_degraded: u64,
    lb_degraded: u64,
    responded: u64,
    // Balancer counters.
    failovers: u64,
    rerouted: u64,
    crashes: u64,
    partitions: u64,
    probe_flaps: u64,
    truncated: bool,
    // SLO-monitor state (all empty/None unless cfg.monitor is armed).
    monitor_rec: Option<Recorder>,
    degraded_log: Vec<DegradedWindow>,
    eject_log: Vec<(usize, u64)>,
    // Virtual-time engine state.
    clock: VirtualClock,
    spans: Vec<BatchSpan>,
}

impl<W: Workload> Fleet<W> {
    /// Spawns every shard and prepares the balancer.
    ///
    /// # Errors
    /// Propagates faults from spawning shard machines.
    pub fn new(cfg: FleetConfig) -> Result<Fleet<W>, Fault> {
        let chaos = cfg.chaos.then_some(ShardChaos {
            seed: cfg.seed,
            rate_ppm: cfg.backend_rate_ppm,
        });
        let mut shards = Vec::with_capacity(cfg.shards());
        for (id, &backend) in cfg.backends.iter().enumerate() {
            shards.push(Shard::spawn(
                id,
                backend,
                cfg.seed,
                chaos,
                cfg.monitor.is_some(),
            )?);
        }
        // The balancer's own injection plan: fleet sites only, so its
        // draws never perturb any shard's machine stream.
        let plan = cfg.chaos.then(|| {
            InjectionPlan::new(cfg.seed ^ 0xf1ee_7000, cfg.fleet_rate_ppm).with_sites(&[
                InjectionSite::ShardCrash,
                InjectionSite::LbPartition,
                InjectionSite::ProbeFlap,
            ])
        });
        // The deterministic kill: a quarter into the workload (in
        // rounds), on a seed-picked shard.
        let crash_schedule = cfg.chaos.then(|| {
            let total_rounds = cfg.requests / (BATCH * cfg.shards() as u64).max(1);
            let round = (total_rounds / 4).max(2);
            let victim = (cfg.seed % cfg.shards() as u64) as usize;
            (round, victim)
        });
        let budget = RetryBudget::new(BUDGET_CAPACITY, BUDGET_REFILL);
        // The balancer's own monitor recorder: advisory ShardDegraded
        // events land here, never on any shard.
        let monitor_rec = cfg.monitor.map(|_| {
            let mut rec = Recorder::new();
            rec.enable_trace(64);
            rec
        });
        let clock = VirtualClock::new(cfg.shards());
        Ok(Fleet {
            cfg,
            shards,
            plan,
            budget,
            victim: crash_schedule.map(|(_, victim)| victim),
            crash_schedule,
            now_ns: 0,
            round: 0,
            admitted: 0,
            client_ok: 0,
            client_degraded: 0,
            lb_degraded: 0,
            responded: 0,
            failovers: 0,
            rerouted: 0,
            crashes: 0,
            partitions: 0,
            probe_flaps: 0,
            truncated: false,
            monitor_rec,
            degraded_log: Vec::new(),
            eject_log: Vec::new(),
            clock,
            spans: Vec::new(),
        })
    }

    /// The next routable shard at or after `home` in ring order, or
    /// `None` if the whole fleet is unroutable.
    fn route(&self, home: usize) -> Option<usize> {
        let n = self.shards.len();
        (0..n)
            .map(|step| (home + step) % n)
            .find(|&i| self.shards[i].takes_traffic())
    }

    /// Runs the whole workload and reports.
    ///
    /// # Errors
    /// Propagates fatal faults from shard machines (transients and
    /// chaos degrade gracefully and do not surface here).
    pub fn run(mut self) -> Result<FleetReport, Fault> {
        // Streaming admission: sessions are drawn from the PRNG as the
        // round quota pulls them, never materialized. Identical draw
        // order to `session::generate`, so swapping the Vec for the
        // stream changed no run byte-for-byte.
        let mut sessions = session::SessionStream::new(self.cfg.seed, self.cfg.requests).peekable();
        let admission_rate = BATCH * self.shards.len() as u64;
        // Generous cap: the workload's round count plus slack for
        // respawn waits. Tripping it is a bug, not a degradation.
        let round_cap = 64 + 8 * (self.cfg.requests / admission_rate.max(1) + 1);

        // A shard that crashed late in the run still comes back before
        // it ends: idle rounds run until its respawn deadline passes.
        while self.responded < self.admitted || sessions.peek().is_some() || self.respawn_pending()
        {
            self.round += 1;
            if self.round > round_cap {
                // Fail loudly: degrade whatever is still queued so the
                // ledger still balances, and flag the run.
                for shard in &mut self.shards {
                    self.lb_degraded += shard.pending;
                    self.responded += shard.pending;
                    shard.pending = 0;
                }
                self.truncated = true;
                break;
            }
            if self.cfg.monitor.is_some_and(|m| m.brownout) && self.round == BROWNOUT.round {
                if let Some(victim) = self.victim {
                    // Same derivation discipline as shard chaos: a
                    // dedicated tag keeps the brownout stream disjoint
                    // from every other plan's.
                    let seed = self.cfg.seed ^ 0xb407_0000 ^ victim as u64;
                    self.shards[victim].brownout(seed, BROWNOUT.rate_ppm, BROWNOUT.throttle_milli);
                }
            }
            self.respawn_due();
            self.probe_all();
            self.admit(&mut sessions, admission_rate);
            if sessions.peek().is_none() {
                self.fail_back();
            }
            // Plan → execute → fold: all shared-state decisions happen
            // in the sequential plan, the executor only runs each
            // shard's private window, and the sequential fold advances
            // the virtual clock — so the report is byte-identical at
            // any parallelism.
            self.clock.start_round(self.now_ns);
            let plans = self.plan_round();
            let results = self.execute(&plans);
            self.fold(&plans, results)?;
            self.budget.tick();
            self.monitor_tick();
        }
        Ok(self.report())
    }

    /// Whether a crashed shard still waits for its respawn.
    fn respawn_pending(&self) -> bool {
        self.shards
            .iter()
            .any(|s| matches!(s.state, ShardState::Crashed { .. }))
    }

    /// Respawns every crashed shard whose backoff deadline has passed.
    fn respawn_due(&mut self) {
        for shard in &mut self.shards {
            if let ShardState::Crashed { respawn_at_ns } = shard.state {
                if self.now_ns >= respawn_at_ns {
                    // Respawn failures would only come from spawn-time
                    // faults the original spawn already survived.
                    shard
                        .respawn()
                        .expect("respawn re-runs a spawn that already succeeded");
                }
            }
        }
    }

    /// One probe round: drives ejection (consecutive flaps), probation
    /// adoption, and cooldown re-entry. Probes are balancer-side and
    /// charge nothing to shard clocks — so a bystander's telemetry
    /// cannot depend on how often the balancer probed it.
    fn probe_all(&mut self) {
        for i in 0..self.shards.len() {
            let state = self.shards[i].state;
            match state {
                ShardState::Ejected { until_round } if self.round >= until_round => {
                    self.shards[i].state = ShardState::Probation { clean: 0 };
                }
                _ => {}
            }
            let shard = &mut self.shards[i];
            if !matches!(
                shard.state,
                ShardState::Healthy | ShardState::Probation { .. }
            ) {
                continue;
            }
            let flap = self
                .plan
                .as_mut()
                .is_some_and(|p| p.should_fail(InjectionSite::ProbeFlap));
            if flap {
                self.probe_flaps += 1;
                shard.probe_failures += 1;
                shard.consecutive_probe_fails += 1;
                if shard.consecutive_probe_fails >= self.cfg.eject_after {
                    shard.consecutive_probe_fails = 0;
                    shard.ejections += 1;
                    shard.state = ShardState::Ejected {
                        until_round: self.round + EJECT_COOLDOWN_ROUNDS,
                    };
                    self.eject_log.push((i, self.round));
                }
            } else {
                shard.consecutive_probe_fails = 0;
                if let ShardState::Probation { clean } = shard.state {
                    let clean = clean + 1;
                    shard.state = if clean >= PROBATION_PROBES {
                        ShardState::Healthy
                    } else {
                        ShardState::Probation { clean }
                    };
                }
            }
        }
    }

    /// Admits sessions for this round: whole sessions, routed to their
    /// home shard when it is routable and to the next ring peer
    /// otherwise. Admission is a pure function of the round quota and
    /// the session stream, never of serving outcomes — that is what
    /// keeps bystander batch boundaries identical across chaos arms.
    fn admit(&mut self, sessions: &mut std::iter::Peekable<session::SessionStream>, rate: u64) {
        let mut quota = rate;
        while quota > 0 {
            let Some(s) = sessions.next() else { break };
            self.admitted += s.requests;
            quota = quota.saturating_sub(s.requests);
            match self.route(s.home_shard(self.shards.len())) {
                Some(target) => self.shards[target].pending += s.requests,
                None => {
                    // Whole fleet unroutable: degrade at the balancer.
                    self.lb_degraded += s.requests;
                    self.responded += s.requests;
                }
            }
        }
    }

    /// Once admission is over, nothing new is routed to the targeted
    /// kill's victim: if it is back and healthy but has not served since
    /// its respawn, it would idle to the end without proving its
    /// recovery. It takes one batch of queued requests back from the
    /// next busy shard in ring order — the peer that absorbed its
    /// stranded queue. Runs whose victim re-served on its own never get
    /// here, so they are unchanged.
    fn fail_back(&mut self) {
        let Some(v) = self.victim else { return };
        let victim = &self.shards[v];
        if victim.respawns == 0
            || victim.served_after_respawn > 0
            || victim.pending > 0
            || !victim.takes_traffic()
        {
            return;
        }
        if let Some(p) = self.next_busy(v) {
            let take = BATCH.min(self.shards[p].pending);
            self.shards[p].pending -= take;
            self.shards[v].pending += take;
        }
    }

    /// The plan phase: sequential, in shard-index order. Sizes every
    /// batch of the round, draws all chaos (crash, partition, crash
    /// prefix), grants failover budget and reroutes stranded queues —
    /// every decision that reads or writes shared balancer state. The
    /// executor then only serves the planned windows.
    fn plan_round(&mut self) -> Vec<ShardPlan> {
        let n = self.shards.len();
        let means: Vec<u64> = self.shards.iter().map(Shard::mean_ns_per_req).collect();
        let mut plans: Vec<ShardPlan> = (0..n).map(|_| ShardPlan::default()).collect();
        // Predicted per-shard finish times for everything planned so
        // far (each shard's own cumulative mean is the predictor).
        let mut pred_ready: Vec<u64> = (0..n).map(|i| self.clock.ready(i)).collect();
        // Shards whose guaranteed batch was a clean serve — the only
        // ones eligible for catch-up grants.
        let mut clean = vec![false; n];
        self.pass_idle_victim();

        for i in 0..n {
            if !self.shards[i].can_serve() {
                continue;
            }
            let take = BATCH.min(self.shards[i].pending);
            if take == 0 {
                continue;
            }
            self.shards[i].pending -= take;

            let crash = self.crash_now(i);
            let partition = !crash
                && self
                    .plan
                    .as_mut()
                    .is_some_and(|p| p.should_fail(InjectionSite::LbPartition));

            // Replies lost in flight — a crash's casualties or a whole
            // partitioned batch — retry on a peer, funded by the budget.
            let lost = if crash {
                self.crashes += 1;
                // Mid-quantum kill: some prefix of the batch completed
                // and its replies got out; the rest die in flight.
                let completed = self.plan.as_mut().map_or(0, |p| p.roll(take));
                if completed > 0 {
                    pred_ready[i] += means[i].saturating_mul(completed);
                    plans[i].batches.push(PlannedBatch {
                        take: completed,
                        role: BatchRole::CrashPrefix,
                    });
                }
                let stranded = self.shards[i].pending;
                self.shards[i].pending = 0;
                let attempt = u32::try_from(self.shards[i].crashes + 1).unwrap_or(u32::MAX);
                let backoff = jittered_backoff(attempt, &mut self.shards[i].jitter);
                let respawn_at_ns = self.now_ns + backoff;
                plans[i].crash_respawn_at = Some(respawn_at_ns);
                // The state flips at plan time so the rest of the plan
                // routes around the dead shard; the machine teardown
                // itself runs at execute, after the prefix serves.
                self.shards[i].state = ShardState::Crashed { respawn_at_ns };
                // The undispatched queue reroutes for free: those
                // requests were never tried, so they are not retries.
                if stranded > 0 {
                    self.reroute(i, stranded);
                }
                take - completed
            } else if partition {
                self.partitions += 1;
                // The shard does the work but every reply is lost.
                pred_ready[i] += means[i].saturating_mul(take);
                plans[i].batches.push(PlannedBatch {
                    take,
                    role: BatchRole::PartitionLoss,
                });
                take
            } else {
                pred_ready[i] += means[i].saturating_mul(take);
                plans[i].batches.push(PlannedBatch {
                    take,
                    role: BatchRole::Primary,
                });
                clean[i] = true;
                0
            };
            if let Some((peer, granted)) = self.grant_failover(i, lost) {
                pred_ready[peer] += means[peer].saturating_mul(granted);
                plans[peer].batches.push(PlannedBatch {
                    take: granted,
                    role: BatchRole::Failover,
                });
            }
        }

        // Catch-up: the round is already committed through the
        // predicted finish of its slowest planned shard; grant extra
        // batches to backlogged clean shards that fit under it.
        let deadline = (0..n)
            .filter(|&i| !plans[i].batches.is_empty())
            .map(|i| pred_ready[i])
            .max();
        if let Some(deadline) = deadline {
            let slots: Vec<CatchupSlot> = (0..n)
                .filter(|&i| clean[i] && self.shards[i].pending > 0)
                .map(|i| CatchupSlot {
                    shard: i,
                    ready_ns: pred_ready[i],
                    mean_ns_per_req: means[i],
                    pending: self.shards[i].pending,
                })
                .collect();
            for (i, take) in plan_catchup(deadline, BATCH, slots) {
                self.shards[i].pending -= take;
                plans[i].batches.push(PlannedBatch {
                    take,
                    role: BatchRole::Catchup,
                });
            }
        }
        plans
    }

    /// The execute phase: every shard serves its planned window (and
    /// tears down, if a crash was planned) touching nothing but its
    /// own state. `parallelism <= 1` runs inline; higher settings fan
    /// the shard jobs out on a scoped pool — either way the per-shard
    /// call sequence is the plan's, so the results are identical.
    fn execute(&mut self, plans: &[ShardPlan]) -> Vec<Result<Vec<(ServeStats, u64)>, Fault>> {
        let threads = self.cfg.parallelism.max(1);
        let jobs: Vec<_> = self
            .shards
            .iter_mut()
            .zip(plans)
            .map(|(shard, plan)| {
                move || -> Result<Vec<(ServeStats, u64)>, Fault> {
                    let mut outs = Vec::with_capacity(plan.batches.len());
                    for batch in &plan.batches {
                        outs.push(shard.serve_batch(batch.take)?);
                    }
                    if let Some(respawn_at_ns) = plan.crash_respawn_at {
                        shard.crash(respawn_at_ns);
                    }
                    Ok(outs)
                }
            })
            .collect();
        run_scoped(threads, jobs)
    }

    /// The fold phase: sequential again, in shard-index order. Credits
    /// the client ledger per the plan's roles, observes latency for
    /// outlier detection, stamps every batch onto its shard's virtual
    /// timeline, and advances fleet time to the round's end.
    fn fold(
        &mut self,
        plans: &[ShardPlan],
        results: Vec<Result<Vec<(ServeStats, u64)>, Fault>>,
    ) -> Result<(), Fault> {
        let mut round_end = 0u64;
        let mut served_any = false;
        for (i, (plan, result)) in plans.iter().zip(results).enumerate() {
            // The outlier detector samples once per control tick: a
            // shard's observed batches aggregate into one latency
            // observation per round, so catch-up grants widen the
            // sample instead of multiplying the strike count (a
            // browned-out shard must not burn through `eject_after`
            // strikes inside a single round).
            let mut observed_ns = 0u64;
            let mut observed_reqs = 0u64;
            let mut observed = false;
            for (batch, (stats, ns)) in plan.batches.iter().zip(result?) {
                let (start_ns, end_ns) = self.clock.advance(i, ns);
                self.spans.push(BatchSpan {
                    round: self.round,
                    shard: i,
                    start_ns,
                    end_ns,
                    reqs: batch.take,
                    label: batch.role.label(),
                });
                served_any = true;
                round_end = round_end.max(end_ns);
                match batch.role {
                    BatchRole::Primary | BatchRole::Catchup => {
                        self.credit(&stats);
                        observed_ns += ns;
                        observed_reqs += batch.take;
                        observed = true;
                    }
                    BatchRole::CrashPrefix | BatchRole::Failover => {
                        self.credit(&stats);
                    }
                    BatchRole::PartitionLoss => {
                        observed_ns += ns;
                        observed_reqs += batch.take;
                        observed = true;
                    }
                }
            }
            if observed {
                self.observe_latency(i, observed_ns, observed_reqs);
            }
        }
        self.now_ns = if served_any {
            round_end + PROBE_ROUND_NS
        } else {
            self.now_ns + PROBE_ROUND_NS + IDLE_ROUND_NS
        };
        Ok(())
    }

    /// The scheduled kill fires on its victim's first batch at or after
    /// the scheduled round. A victim with no work then may get none for
    /// the rest of the run, and the kill would never fire: it passes to
    /// the next busy shard in ring order.
    fn pass_idle_victim(&mut self) {
        let Some((round, victim)) = self.crash_schedule else {
            return;
        };
        if self.round < round || self.busy(victim) {
            return;
        }
        if let Some(next) = self.next_busy(victim) {
            self.crash_schedule = Some((round, next));
            self.victim = Some(next);
        }
    }

    /// Whether shard `i` has a batch to serve this round.
    fn busy(&self, i: usize) -> bool {
        self.shards[i].can_serve() && self.shards[i].pending > 0
    }

    /// The first busy shard after `i` in ring order.
    fn next_busy(&self, i: usize) -> Option<usize> {
        let n = self.shards.len();
        (1..n).map(|step| (i + step) % n).find(|&j| self.busy(j))
    }

    /// Should shard `i` crash in this round? Either the deterministic
    /// scheduled kill or a random `shard_crash` draw.
    fn crash_now(&mut self, i: usize) -> bool {
        if let Some((round, victim)) = self.crash_schedule {
            if self.round >= round && victim == i {
                self.crash_schedule = None;
                return true;
            }
        }
        self.plan
            .as_mut()
            .is_some_and(|p| p.should_fail(InjectionSite::ShardCrash))
    }

    /// Adds a serve outcome to the client ledger.
    fn credit(&mut self, stats: &enclosure_apps::httpd::ServeStats) {
        self.client_ok += stats.served;
        self.client_degraded += stats.degraded;
        self.responded += stats.served + stats.degraded;
    }

    /// Latency-outlier bookkeeping after a normal batch on shard `i`.
    fn observe_latency(&mut self, i: usize, ns: u64, reqs: u64) {
        let shard = &mut self.shards[i];
        let baseline = shard.mean_ns_per_req();
        let warmed = shard.baseline_reqs() > BASELINE_WARMUP_REQS + reqs;
        let mean = if reqs == 0 { 0 } else { ns / reqs };
        if warmed && mean > baseline.saturating_mul(self.cfg.latency_mult) {
            shard.latency_strikes += 1;
            if shard.latency_strikes >= self.cfg.eject_after && shard.state == ShardState::Healthy {
                shard.latency_strikes = 0;
                shard.ejections += 1;
                shard.state = ShardState::Ejected {
                    until_round: self.round + EJECT_COOLDOWN_ROUNDS,
                };
                self.eject_log.push((i, self.round));
            }
        } else {
            shard.latency_strikes = 0;
        }
    }

    /// End-of-round monitor drain: pulls every window each shard
    /// closed this round, evaluates it against the SLO policy, and
    /// logs breaches as advisory [`Event::ShardDegraded`] events in
    /// the balancer's own recorder. Purely observational — no routing
    /// state changes here, so arming the monitor cannot perturb any
    /// byte of an unmonitored run.
    fn monitor_tick(&mut self) {
        if self.cfg.monitor.is_none() {
            return;
        }
        for i in 0..self.shards.len() {
            for window in self.shards[i].drain_windows() {
                if !SLO.breached(&window) {
                    continue;
                }
                let observed = DegradedWindow {
                    round: self.round,
                    shard: i,
                    window: window.index,
                    error_ppm: window.error_ppm(),
                    p99_ns: window.latency.percentile(990),
                };
                self.degraded_log.push(observed);
                if let Some(rec) = self.monitor_rec.as_mut() {
                    rec.record(
                        self.now_ns,
                        Event::ShardDegraded {
                            shard: i as u64,
                            window: observed.window,
                            error_ppm: observed.error_ppm,
                            p99_ns: observed.p99_ns,
                        },
                    );
                }
            }
        }
    }

    /// Builds the monitor section of the report: a final drain, the
    /// per-shard and fleet-merged window rings, and the advisory logs.
    fn build_monitor_report(&mut self) -> Option<MonitorReport> {
        let monitor = self.cfg.monitor?;
        self.monitor_tick();
        let mut ring = WindowRing::new(RING_CAP);
        let mut shard_rings = Vec::with_capacity(self.shards.len());
        for shard in &mut self.shards {
            shard.finish_monitor();
            ring.merge(shard.window_ring());
            shard_rings.push(shard.window_ring().clone());
        }
        Some(MonitorReport {
            brownout: monitor.brownout,
            ring,
            shard_rings,
            degraded: std::mem::take(&mut self.degraded_log),
            eject_rounds: std::mem::take(&mut self.eject_log),
            telemetry: self.monitor_rec.take().unwrap_or_else(Recorder::new),
        })
    }

    /// Grants budget for retrying `casualties` requests whose replies
    /// shard `i` lost on a peer, one token each. Denied retries
    /// degrade to balancer 503s at plan time. Returns the peer and
    /// grant for the caller to plan the failover batch.
    fn grant_failover(&mut self, i: usize, casualties: u64) -> Option<(usize, u64)> {
        if casualties == 0 {
            return None;
        }
        let peer = self.route((i + 1) % self.shards.len());
        let granted = match peer {
            Some(_) => self.budget.take(casualties),
            None => 0,
        };
        let denied = casualties - granted;
        self.lb_degraded += denied;
        self.responded += denied;
        if granted == 0 {
            return None;
        }
        self.failovers += granted;
        Some((peer.expect("granted implies a routable peer"), granted))
    }

    /// Moves `stranded` never-dispatched requests from dead shard `i`
    /// to the next routable peer (free: first tries, not retries).
    fn reroute(&mut self, i: usize, stranded: u64) {
        match self.route((i + 1) % self.shards.len()) {
            Some(peer) => {
                self.shards[peer].pending += stranded;
                self.rerouted += stranded;
            }
            None => {
                self.lb_degraded += stranded;
                self.responded += stranded;
            }
        }
    }

    /// Builds the final report: per-shard rows plus merged fleet views.
    fn report(mut self) -> FleetReport {
        let monitor = self.build_monitor_report();
        let mut merged_latency = Histogram::new();
        let mut merged_telemetry = Recorder::new();
        let mut rows = Vec::with_capacity(self.shards.len());
        for shard in &mut self.shards {
            let latency = shard.latency();
            let telemetry = shard.telemetry_view();
            merged_latency.merge(&latency);
            merged_telemetry.merge(&telemetry);
            rows.push(ShardRow {
                id: shard.id,
                backend: shard.backend,
                state: shard.state.name(),
                generation: shard.generation,
                served: shard.served,
                degraded: shard.degraded,
                retried: shard.retried,
                quarantined: shard.quarantined,
                served_after_respawn: shard.served_after_respawn,
                batches: shard.batches,
                batch_sizes: shard.batch_sizes.clone(),
                crashes: shard.crashes,
                respawns: shard.respawns,
                ejections: shard.ejections,
                probe_failures: shard.probe_failures,
                sim_ns: shard.sim_ns(),
                latency,
                telemetry,
            });
        }
        FleetReport {
            seed: self.cfg.seed,
            chaos: self.cfg.chaos,
            rows,
            merged_latency,
            merged_telemetry,
            admitted: self.admitted,
            client_ok: self.client_ok,
            client_degraded: self.client_degraded,
            lb_degraded: self.lb_degraded,
            failovers: self.failovers,
            rerouted: self.rerouted,
            crashes: self.crashes,
            partitions: self.partitions,
            probe_flaps: self.probe_flaps,
            budget_capacity: self.budget.capacity(),
            budget_consumed: self.budget.consumed(),
            budget_refilled: self.budget.refilled(),
            budget_denied: self.budget.denied(),
            victim: self.victim,
            rounds: self.round,
            fleet_ns: self.now_ns,
            truncated: self.truncated,
            monitor,
            spans: std::mem::take(&mut self.spans),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(cfg: FleetConfig) -> FleetReport {
        WikiFleet::new(cfg).unwrap().run().unwrap()
    }

    #[test]
    fn jittered_backoff_is_seeded_and_bounded() {
        // Same seed ⇒ same schedule; every wait in [base, 1.5*base].
        let mut a = XorShift::new(42);
        let mut b = XorShift::new(42);
        for attempt in 1..=6u32 {
            let base = RESPAWN_BACKOFF_NS << (attempt - 1);
            let wa = jittered_backoff(attempt, &mut a);
            let wb = jittered_backoff(attempt, &mut b);
            assert_eq!(wa, wb);
            assert!((base..=base + base / 2).contains(&wa), "{attempt}: {wa}");
        }
        // Different seeds desynchronize somewhere along the schedule.
        let mut c = XorShift::new(1);
        let mut d = XorShift::new(2);
        let sched = |rng: &mut XorShift| -> Vec<u64> {
            (1..=8).map(|n| jittered_backoff(n, rng)).collect()
        };
        assert_ne!(sched(&mut c), sched(&mut d));
    }

    #[test]
    fn clean_fleet_answers_everything() {
        let cfg = FleetConfig::new(3, 600, 11);
        let report = run(cfg.clone());
        assert_eq!(check_invariants(&cfg, &report), Vec::<String>::new());
        assert_eq!(report.client_ok, 600);
        assert_eq!(report.lb_degraded + report.client_degraded, 0);
        assert_eq!(report.crashes, 0);
        assert!(report.rows.iter().all(|r| r.generation == 1));
        assert_eq!(report.merged_latency.count(), 600);
    }

    #[test]
    fn targeted_crash_loses_nothing_and_respawns() {
        let mut cfg = FleetConfig::new(4, 1_200, 5).with_chaos();
        // Surgical arm: only the scheduled kill, no random noise.
        cfg.fleet_rate_ppm = 0;
        cfg.backend_rate_ppm = 0;
        let report = run(cfg.clone());
        assert_eq!(check_invariants(&cfg, &report), Vec::<String>::new());
        assert_eq!(report.crashes, 1);
        assert_eq!(report.responses(), 1_200);
        let victim = report.rows.iter().find(|r| r.crashes == 1).unwrap();
        assert_eq!(victim.generation, 2);
        assert!(victim.served_after_respawn > 0, "victim re-serves");
        assert!(report.failovers > 0 || report.lb_degraded > 0);
    }

    #[test]
    fn a_shard_crashed_late_still_respawns_before_the_run_ends() {
        // A random shard_crash lands in the last rounds on this seed:
        // the run idles until the shard's respawn deadline passes.
        let cfg = FleetConfig::new(4, 1_500, 0xf6bd_4e73_031b_21cc)
            .mixed_backends()
            .with_chaos();
        let report = run(cfg.clone());
        assert_eq!(check_invariants(&cfg, &report), Vec::<String>::new());
        assert_eq!(report.crashes, 2, "the scheduled kill and one random crash");
    }

    #[test]
    fn the_scheduled_kill_passes_on_from_an_idle_victim() {
        // This seed's victim has no work from the scheduled round on:
        // the kill lands on the next busy shard instead of never.
        let cfg = FleetConfig::new(3, 600, 863).mixed_backends().with_chaos();
        let report = run(cfg.clone());
        assert_eq!(check_invariants(&cfg, &report), Vec::<String>::new());
        let victim = &report.rows[report.victim.unwrap()];
        assert_ne!(victim.id, 863 % 3, "the kill passed on");
        assert_eq!((victim.crashes, victim.respawns), (1, 1));
        assert!(victim.served_after_respawn > 0, "{victim:?}");
    }

    #[test]
    fn an_idle_respawned_victim_takes_work_back() {
        // Admission ends before any session homed to this seed's victim
        // arrives after its respawn: it takes a batch back from the peer
        // that absorbed its queue, and so re-serves.
        let cfg = FleetConfig::new(4, 2_000, 0x3028_2a0e_9dcd_001f).with_chaos();
        let report = run(cfg.clone());
        assert_eq!(check_invariants(&cfg, &report), Vec::<String>::new());
        let victim = &report.rows[report.victim.unwrap()];
        assert_eq!((victim.crashes, victim.respawns), (1, 1));
        assert!(victim.served_after_respawn > 0, "{victim:?}");
    }

    #[test]
    fn chaos_runs_are_deterministic() {
        let cfg = FleetConfig::new(4, 800, 0xF1EE7)
            .mixed_backends()
            .with_chaos();
        let a = run(cfg.clone());
        let b = run(cfg.clone());
        assert_eq!(a.to_json().to_pretty(), b.to_json().to_pretty());
        assert_eq!(check_invariants(&cfg, &a), Vec::<String>::new());
    }

    enclosure_support::props! {
        /// Arming the sampler perturbs nothing the unmonitored report
        /// contains, on every seed: every shard byte and every balancer
        /// decision is identical; only the monitor section appears.
        /// Each case draws two seeds, one for a homogeneous chaos fleet
        /// and one for a mixed one: 32 seeds in all.
        fn monitor_off_changes_no_byte(rng, cases = 16) {
            for mixed in [false, true] {
                let seed = rng.next_u64();
                let mut cfg = FleetConfig::new(4, 800, seed).with_chaos();
                if mixed {
                    cfg = cfg.mixed_backends();
                }
                let plain = run(cfg.clone());
                let mut monitored = run(cfg.with_monitor(MonitorConfig::default()));
                assert!(monitored.monitor.take().is_some());
                assert_eq!(
                    plain.to_json().to_pretty(),
                    monitored.to_json().to_pretty(),
                    "seed {seed:#x}, mixed {mixed}: monitoring must be observational"
                );
            }
        }
    }

    #[test]
    fn monitor_windows_conserve_request_mass() {
        let cfg = FleetConfig::new(3, 900, 21).with_monitor(MonitorConfig::default());
        let report = run(cfg);
        let monitor = report.monitor.as_ref().unwrap();
        let totals = monitor.ring.totals();
        assert_eq!(
            totals.requests(),
            report.merged_telemetry.counters().requests_ok
                + report.merged_telemetry.counters().requests_degraded,
            "Σ fleet windows == merged request counters"
        );
        let per_shard: u64 = monitor
            .shard_rings
            .iter()
            .map(|r| r.totals().requests())
            .sum();
        assert_eq!(totals.requests(), per_shard, "fleet fold conserves mass");
    }

    #[test]
    fn brownout_degradation_leads_ejection() {
        let mut cfg = FleetConfig::new(4, 4_000, 7)
            .with_chaos()
            .with_monitor(MonitorConfig { brownout: true });
        // Surgical arm: the brownout and the scheduled kill only. The
        // outlier detector is tightened the way an operator would for
        // a latency-sensitive tier: 2 strikes at 3× self-baseline —
        // the baseline is cumulative, so it absorbs a sustained
        // brownout within a few rounds and the ratio decays.
        cfg.fleet_rate_ppm = 0;
        cfg.backend_rate_ppm = 0;
        cfg.latency_mult = 3;
        cfg.eject_after = 2;
        let report = run(cfg.clone());
        assert_eq!(check_invariants(&cfg, &report), Vec::<String>::new());
        let monitor = report.monitor.as_ref().unwrap();
        eprintln!(
            "first_degraded={:?} first_eject={:?} ejects={:?} degraded={} victim={:?}",
            monitor.first_degraded_round(),
            monitor.first_eject_round(),
            monitor.eject_rounds,
            monitor.degraded.len(),
            report.victim,
        );
        // The advisory fires, and any ejection comes strictly after it.
        let degraded = monitor.first_degraded_round().expect("the advisory fired");
        if let Some(ejected) = monitor.first_eject_round() {
            assert!(
                degraded < ejected,
                "advisory signal must lead the ejection: {degraded} vs {ejected}"
            );
        }
        // Every advisory observation names the browned-out victim.
        let victim = report.victim.unwrap();
        assert!(monitor.degraded.iter().all(|d| d.shard == victim));
        assert!(monitor.telemetry.counters().shards_degraded >= 1);
    }

    #[test]
    fn budget_denial_degrades_instead_of_storming() {
        let mut cfg = FleetConfig::new(4, 1_200, 5).with_chaos();
        cfg.fleet_rate_ppm = 0;
        cfg.backend_rate_ppm = 0;
        let mut fleet = WikiFleet::new(cfg.clone()).unwrap();
        // A one-token bucket that never refills.
        fleet.budget = RetryBudget::new(1, 0);
        let report = fleet.run().unwrap();
        assert_eq!(check_invariants(&cfg, &report), Vec::<String>::new());
        assert_eq!(
            report.budget_capacity, 1,
            "the report names the bucket that ran"
        );
        assert!(report.budget_consumed <= 1);
        assert!(
            report.budget_denied > 0,
            "the kill's casualties reach the denial path"
        );
        assert_eq!(report.responses(), 1_200, "denied retries 503, not lost");
    }
}
