//! One fleet shard: an independent machine (its own LitterBox, kernel,
//! clock, and telemetry recorder) wrapped with generation tracking so
//! the balancer can crash and respawn it without losing the telemetry
//! its dead generations already earned.

use enclosure_apps::fasthttp::FastHttpApp;
use enclosure_apps::httpd::ServeStats;
use enclosure_apps::wiki::WikiApp;
use enclosure_hw::InjectionPlan;
use enclosure_support::XorShift;
use enclosure_telemetry::{Histogram, MetricsWindow, Recorder, WindowRing};
use litterbox::{Backend, Fault, GatewayMode, LitterBox};

use crate::monitor::{RING_CAP, SLO, WINDOW_NS};

/// A serving application a shard can host. The balancer only needs to
/// build it, push batches of requests through it, and read its machine
/// back — everything else (goroutines, enclosures, the batched
/// gateway) stays inside the app. `Send` because the parallel fleet
/// engine executes each shard's planned window on a worker thread.
pub trait Workload: Send {
    /// Builds a fresh instance on `backend` with its machine in
    /// [`GatewayMode::Async`]: the fleet always serves over the
    /// reactor, where accumulated batches cross at switch barriers and
    /// idle drains instead of once per scheduler quantum.
    ///
    /// # Errors
    /// Propagates any [`Fault`] raised while declaring the app.
    fn build(backend: Backend) -> Result<Self, Fault>
    where
        Self: Sized;

    /// Serves `n` requests, returning the app's accounting
    /// (`served + degraded == n`).
    ///
    /// # Errors
    /// Propagates a fatal [`Fault`] (transients degrade internally).
    fn serve(&mut self, n: u64) -> Result<ServeStats, Fault>;

    /// Cumulative per-request latency histogram.
    fn latency(&self) -> Histogram;

    /// The machine underneath.
    fn lb(&self) -> &LitterBox;

    /// The machine underneath, mutably.
    fn lb_mut(&mut self) -> &mut LitterBox;
}

impl Workload for WikiApp {
    fn build(backend: Backend) -> Result<Self, Fault> {
        let mut app = WikiApp::new(backend)?;
        app.runtime_mut().lb_mut().set_gateway(GatewayMode::Async);
        Ok(app)
    }

    fn serve(&mut self, n: u64) -> Result<ServeStats, Fault> {
        self.serve_requests(n)
    }

    fn latency(&self) -> Histogram {
        WikiApp::latency(self)
    }

    fn lb(&self) -> &LitterBox {
        self.runtime().lb()
    }

    fn lb_mut(&mut self) -> &mut LitterBox {
        self.runtime_mut().lb_mut()
    }
}

impl Workload for FastHttpApp {
    fn build(backend: Backend) -> Result<Self, Fault> {
        let mut app = FastHttpApp::new(backend)?;
        app.runtime_mut().lb_mut().set_gateway(GatewayMode::Async);
        Ok(app)
    }

    fn serve(&mut self, n: u64) -> Result<ServeStats, Fault> {
        // Completion-driven reply tails under worker concurrency: the
        // workers park on their submission tokens and a switch barrier
        // (or the idle drain) pays one crossing per batch.
        self.serve_requests(n, 4)
    }

    fn latency(&self) -> Histogram {
        FastHttpApp::latency(self)
    }

    fn lb(&self) -> &LitterBox {
        self.runtime().lb()
    }

    fn lb_mut(&mut self) -> &mut LitterBox {
        self.runtime_mut().lb_mut()
    }
}

/// Balancer-visible shard state (the health/ejection state machine —
/// see DESIGN "Fleet architecture").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardState {
    /// Routable: receives new sessions.
    Healthy,
    /// Outlier-ejected (probe failures or latency): keeps serving its
    /// queue as a lame duck, receives no new sessions until the
    /// cooldown round, then re-enters through probation.
    Ejected {
        /// Round at which the shard may start probation.
        until_round: u64,
    },
    /// Dead: no machine. The supervisor respawns it at the scheduled
    /// (jittered, exponentially backed-off) simulated time.
    Crashed {
        /// Fleet time at which the respawn happens.
        respawn_at_ns: u64,
    },
    /// Respawned but not yet trusted: must pass consecutive clean
    /// probes before taking traffic again (the `adopt_spawned` idiom —
    /// the new generation exists, the balancer just hasn't adopted it
    /// into the routable set yet).
    Probation {
        /// Clean probes seen so far.
        clean: u32,
    },
}

impl ShardState {
    /// Stable label for reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ShardState::Healthy => "healthy",
            ShardState::Ejected { .. } => "ejected",
            ShardState::Crashed { .. } => "crashed",
            ShardState::Probation { .. } => "probation",
        }
    }
}

/// Chaos configuration a shard arms on every generation's machine.
#[derive(Debug, Clone, Copy)]
pub struct ShardChaos {
    /// Base seed; each generation derives its own stream from it.
    pub seed: u64,
    /// Per-query fire rate for the backend's machine-level sites.
    pub rate_ppm: u64,
}

/// One shard of the fleet.
pub struct Shard<W: Workload> {
    /// Shard id (ring position).
    pub id: usize,
    /// Enforcement backend this shard runs.
    pub backend: Backend,
    /// Balancer-visible health state.
    pub state: ShardState,
    /// Requests queued on this shard, not yet dispatched.
    pub pending: u64,
    /// Machine generation: 1 for the original spawn, +1 per respawn.
    pub generation: u32,
    app: Option<W>,
    chaos: Option<ShardChaos>,
    // Whether every generation boots with the SLO sampler armed.
    monitored: bool,
    // Windows drained from every generation, folded index-by-index (a
    // respawned clock restarts at zero, so generation 2's window 0 is
    // the same local epoch as generation 1's).
    window_ring: WindowRing,
    // Highest closed-window index already drained from the live
    // generation's series (None = nothing drained yet).
    drained_through: Option<u64>,
    // Telemetry archived from crashed generations, folded into the
    // live generation's ledgers at report time (Recorder::merge).
    archive: Recorder,
    archive_latency: Histogram,
    archive_ns: u64,
    // Serving ledger (accumulated across generations).
    /// Requests this shard answered successfully.
    pub served: u64,
    /// Requests this shard answered with a 503.
    pub degraded: u64,
    /// Transient errnos absorbed by in-place retries.
    pub retried: u64,
    /// Requests fast-failed by an open circuit breaker.
    pub quarantined: u64,
    /// Batches dispatched to this shard.
    pub batches: u64,
    /// Size of every batch dispatched, in order (the dispatch trace: a
    /// single machine replaying it serves the identical request
    /// stream).
    pub batch_sizes: Vec<u64>,
    /// Requests served by generations > 1 (proof of re-serving).
    pub served_after_respawn: u64,
    /// Crashes suffered.
    pub crashes: u64,
    /// Supervisor respawns completed.
    pub respawns: u64,
    /// Outlier ejections (probe- or latency-based).
    pub ejections: u64,
    /// Failed health probes observed.
    pub probe_failures: u64,
    /// Consecutive failed probes (resets on a clean probe).
    pub consecutive_probe_fails: u32,
    /// Consecutive latency strikes (resets on a normal batch).
    pub latency_strikes: u32,
    /// Jitter stream for this shard's respawn backoff, derived from
    /// the plan seed so parallel failures desynchronize.
    pub jitter: XorShift,
    // Self-relative latency baseline for outlier detection.
    batch_ns_total: u64,
    batch_reqs_total: u64,
}

impl<W: Workload> Shard<W> {
    /// Spawns generation 1 of shard `id` on `backend`.
    ///
    /// # Errors
    /// Propagates faults from building the workload.
    pub fn spawn(
        id: usize,
        backend: Backend,
        seed: u64,
        chaos: Option<ShardChaos>,
        monitored: bool,
    ) -> Result<Shard<W>, Fault> {
        let mut shard = Shard {
            id,
            backend,
            state: ShardState::Healthy,
            pending: 0,
            generation: 0,
            app: None,
            chaos,
            monitored,
            window_ring: WindowRing::new(if monitored { RING_CAP } else { 1 }),
            drained_through: None,
            archive: Recorder::new(),
            archive_latency: Histogram::new(),
            archive_ns: 0,
            served: 0,
            degraded: 0,
            retried: 0,
            quarantined: 0,
            batches: 0,
            batch_sizes: Vec::new(),
            served_after_respawn: 0,
            crashes: 0,
            respawns: 0,
            ejections: 0,
            probe_failures: 0,
            consecutive_probe_fails: 0,
            latency_strikes: 0,
            jitter: XorShift::new(seed ^ (id as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            batch_ns_total: 0,
            batch_reqs_total: 0,
        };
        shard.boot()?;
        Ok(shard)
    }

    /// Builds the next generation's machine and arms its chaos plan.
    fn boot(&mut self) -> Result<(), Fault> {
        self.generation += 1;
        let mut app = W::build(self.backend)?;
        if let Some(chaos) = self.chaos {
            let sites = self.backend.chaos_sites();
            if chaos.rate_ppm > 0 && !sites.is_empty() {
                // Each generation gets its own derived stream: the
                // respawned machine must not replay the stream that
                // killed its predecessor.
                let seed = chaos.seed ^ (self.id as u64) << 8 ^ u64::from(self.generation);
                app.lb_mut()
                    .clock_mut()
                    .arm_injection(InjectionPlan::new(seed, chaos.rate_ppm).with_sites(sites));
            }
        }
        if self.monitored {
            // Enabling the sampler changes no event or counter the
            // machine emits — shard bytes stay identical monitor-on
            // vs. monitor-off; only the windowed view appears.
            let rec = app.lb_mut().clock_mut().recorder_mut();
            rec.enable_series(WINDOW_NS, RING_CAP);
            rec.set_slo(SLO);
        }
        self.drained_through = None;
        self.app = Some(app);
        Ok(())
    }

    /// Applies a deterministic brownout to the live machine: re-arms
    /// its injection plan at `rate_ppm` and throttles its clock — the
    /// shard starts erroring *and* slowing down while still routable.
    /// No-op on a dead shard.
    pub fn brownout(&mut self, seed: u64, rate_ppm: u64, throttle_milli: u64) {
        let Some(app) = self.app.as_mut() else {
            return;
        };
        let sites = self.backend.chaos_sites();
        let clock = app.lb_mut().clock_mut();
        if rate_ppm > 0 && !sites.is_empty() {
            clock.arm_injection(InjectionPlan::new(seed, rate_ppm).with_sites(sites));
        }
        if throttle_milli > 0 {
            clock.set_throttle(throttle_milli);
        }
    }

    /// Drains every window the live generation closed since the last
    /// drain: folds them into the shard's lifetime ring and returns
    /// them (oldest first) for the balancer to evaluate.
    pub fn drain_windows(&mut self) -> Vec<MetricsWindow> {
        let Some(app) = self.app.as_ref() else {
            return Vec::new();
        };
        let Some(series) = app.lb().telemetry().series() else {
            return Vec::new();
        };
        let fresh: Vec<MetricsWindow> = series
            .ring()
            .windows()
            .iter()
            .filter(|w| self.drained_through.is_none_or(|t| w.index > t))
            .cloned()
            .collect();
        if let Some(last) = fresh.last() {
            self.drained_through = Some(last.index);
        }
        for w in &fresh {
            self.window_ring.merge_window(w);
        }
        fresh
    }

    /// Final monitor fold at report time: drains the closed tail and
    /// folds the still-open live window so the lifetime ring carries
    /// the shard's full mass.
    pub fn finish_monitor(&mut self) {
        self.drain_windows();
        if let Some(app) = self.app.as_ref() {
            if let Some(series) = app.lb().telemetry().series() {
                let live = series.live();
                if live != &MetricsWindow::new(live.index, live.width_ns) {
                    self.window_ring.merge_window(live);
                }
            }
        }
    }

    /// The shard's lifetime window ring (all generations drained so
    /// far).
    #[must_use]
    pub fn window_ring(&self) -> &WindowRing {
        &self.window_ring
    }

    /// True if the balancer may route *new* sessions here.
    #[must_use]
    pub fn takes_traffic(&self) -> bool {
        self.state == ShardState::Healthy
    }

    /// True if the shard has a live machine that can serve its queue
    /// (healthy, lame-duck ejected, or on probation). A shard the plan
    /// has just marked `Crashed` still holds its machine until the
    /// execute phase tears it down, so the state check matters.
    #[must_use]
    pub fn can_serve(&self) -> bool {
        self.app.is_some() && !matches!(self.state, ShardState::Crashed { .. })
    }

    /// Serves a batch of `n` requests on the live generation and
    /// updates the shard ledger. Returns the app's accounting plus the
    /// simulated nanoseconds the batch took on this shard's clock.
    ///
    /// # Errors
    /// Propagates fatal faults; panics if called while crashed (the
    /// balancer guards with [`Shard::can_serve`]).
    pub fn serve_batch(&mut self, n: u64) -> Result<(ServeStats, u64), Fault> {
        let app = self.app.as_mut().expect("serve_batch on a dead shard");
        let t0 = app.lb().now_ns();
        let stats = app.serve(n)?;
        let ns = app.lb().now_ns() - t0;
        self.served += stats.served;
        self.degraded += stats.degraded;
        self.retried += stats.retried;
        self.quarantined += stats.quarantined;
        self.batches += 1;
        self.batch_sizes.push(n);
        if self.generation > 1 {
            self.served_after_respawn += stats.served;
        }
        self.batch_ns_total += ns;
        self.batch_reqs_total += n;
        Ok((stats, ns))
    }

    /// Mean simulated nanoseconds per request across every batch this
    /// shard served (its own baseline for latency-outlier detection —
    /// self-relative, so a slow-but-steady LB_VTX shard in a mixed
    /// fleet is not an outlier).
    #[must_use]
    pub fn mean_ns_per_req(&self) -> u64 {
        if self.batch_reqs_total == 0 {
            0
        } else {
            self.batch_ns_total / self.batch_reqs_total
        }
    }

    /// Requests this shard has seen batches for (baseline warm-up).
    #[must_use]
    pub fn baseline_reqs(&self) -> u64 {
        self.batch_reqs_total
    }

    /// Kills the live generation: archives its telemetry (the ledgers
    /// survive the machine) and schedules the respawn. The caller has
    /// already decided what happens to the queue.
    pub fn crash(&mut self, respawn_at_ns: u64) {
        // The dying generation's windows survive in the lifetime ring
        // even though its machine (and series) are about to go away.
        self.finish_monitor();
        if let Some(mut app) = self.app.take() {
            let now = app.lb().now_ns();
            let rec = app.lb_mut().clock_mut().recorder_mut();
            rec.flush_tracks(now);
            self.archive.merge(rec);
            self.archive_latency.merge(&app.latency());
            self.archive_ns += now;
        }
        self.crashes += 1;
        self.state = ShardState::Crashed { respawn_at_ns };
    }

    /// Supervisor respawn: builds the next generation and puts it on
    /// probation (clean probes required before it takes traffic).
    ///
    /// # Errors
    /// Propagates faults from building the new generation.
    pub fn respawn(&mut self) -> Result<(), Fault> {
        self.boot()?;
        self.respawns += 1;
        self.consecutive_probe_fails = 0;
        self.latency_strikes = 0;
        self.state = ShardState::Probation { clean: 0 };
        Ok(())
    }

    /// The shard's full latency histogram: archived generations merged
    /// with the live one.
    #[must_use]
    pub fn latency(&self) -> Histogram {
        let mut hist = self.archive_latency.clone();
        if let Some(app) = &self.app {
            hist.merge(&app.latency());
        }
        hist
    }

    /// The shard's full telemetry view: archived generations merged
    /// with the live recorder (track slices flushed first).
    #[must_use]
    pub fn telemetry_view(&mut self) -> Recorder {
        let mut view = self.archive.clone();
        if let Some(app) = self.app.as_mut() {
            let now = app.lb().now_ns();
            let rec = app.lb_mut().clock_mut().recorder_mut();
            rec.flush_tracks(now);
            view.merge(rec);
        }
        view
    }

    /// Simulated nanoseconds this shard's machines ran, all
    /// generations included.
    #[must_use]
    pub fn sim_ns(&self) -> u64 {
        self.archive_ns + self.app.as_ref().map_or(0, |a| a.lb().now_ns())
    }
}
