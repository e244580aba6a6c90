//! SLO-monitoring study: the fleet of `repro fleet` with the windowed
//! sampler armed on every shard, plus the black-box flight recorder on
//! a single machine.
//!
//! `repro monitor` serves the session workload on a mixed-backend
//! fleet with [`MonitorConfig`] armed: every shard cuts fixed-width
//! windows from its simulated clock, the balancer drains them each
//! round, and breaching windows log advisory `ShardDegraded` events.
//! With `--chaos` the run becomes the *kill-one-shard rehearsal*: a
//! deterministic brownout (elevated injection + a throttled clock)
//! lands on the scheduled-kill victim a few rounds before the kill, so
//! the advisory signal must fire, and when the balancer ejects an
//! outlier the signal must come strictly first — monitoring that only
//! confirms an ejection after the fact is not monitoring. (Some seeds
//! never eject: the cumulative latency baseline absorbs the brownout.)
//!
//! The chaos arm is surgical: the brownout and the scheduled kill are
//! the only faults, so the signal-before-ejection ordering is a
//! property of the design, not of a lucky draw. Everything derives
//! from the seed; two runs are byte-identical.
//!
//! `repro flightrec` is the single-machine arm: a wiki under low-rate
//! injection with the series, the event ring, and the flight recorder
//! armed. The first injected fault freezes the last windows plus the
//! ring into a [`FlightRecording`] — first-failure data capture whose
//! dump is byte-stable per seed.

use enclosure_apps::wiki::WikiApp;
use enclosure_fleet::{check_invariants, FleetConfig, FleetReport, MonitorConfig, WikiFleet};
use enclosure_hw::InjectionPlan;
use enclosure_telemetry::{FlightRecording, SloPolicy, DEFAULT_WINDOW_NS};
use litterbox::{Backend, Fault, GatewayMode};

use crate::chaos_exp;

/// Parameters for one monitored fleet run (the `repro monitor` knobs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitorExpConfig {
    /// Number of shards.
    pub shards: usize,
    /// Total requests in the session workload.
    pub requests: u64,
    /// Master seed.
    pub seed: u64,
    /// Arm the kill-one-shard rehearsal: scheduled brownout, then the
    /// scheduled kill, nothing random.
    pub chaos: bool,
}

impl MonitorExpConfig {
    /// The full study.
    #[must_use]
    pub fn full(seed: u64) -> MonitorExpConfig {
        MonitorExpConfig {
            shards: 4,
            requests: 20_000,
            seed,
            chaos: false,
        }
    }

    /// A bounded run for `--quick` and CI gates.
    #[must_use]
    pub fn quick(seed: u64) -> MonitorExpConfig {
        MonitorExpConfig {
            requests: 4_000,
            ..MonitorExpConfig::full(seed)
        }
    }

    /// Lowers to the balancer's config with the monitor armed.
    #[must_use]
    pub fn to_fleet(&self) -> FleetConfig {
        let monitor = MonitorConfig {
            brownout: self.chaos,
        };
        let mut cfg = FleetConfig::new(self.shards, self.requests, self.seed)
            .mixed_backends()
            .with_monitor(monitor);
        if self.chaos {
            cfg = cfg.with_chaos();
            // Surgical: the scheduled brownout + kill are the whole
            // fault story, so the degraded-before-ejected ordering is
            // reproducible by design rather than by draw.
            cfg.fleet_rate_ppm = 0;
            cfg.backend_rate_ppm = 0;
            // Operator tuning for a latency-sensitive tier: two
            // strikes at 3× self-baseline eject. The baseline is
            // cumulative, so it absorbs a sustained brownout within a
            // few rounds — a lazier detector never fires at all, which
            // is exactly the gap the advisory window signal covers.
            cfg.latency_mult = 3;
            cfg.eject_after = 2;
        }
        cfg
    }
}

/// Runs the monitored fleet, returning the report plus any
/// robustness-invariant violations. In the chaos arm, a run in which
/// no advisory fired, or in which an ejection came no later than the
/// first advisory, is a violation too.
///
/// # Errors
///
/// A machine fault escaping the balancer's containment layers.
pub fn run(config: MonitorExpConfig) -> Result<(FleetReport, Vec<String>), Fault> {
    let fleet_cfg = config.to_fleet();
    let report = WikiFleet::new(fleet_cfg.clone())?.run()?;
    let mut violations = check_invariants(&fleet_cfg, &report);
    let monitor = report
        .monitor
        .as_ref()
        .expect("monitor run always arms the monitor");
    if config.chaos {
        let degraded = monitor.first_degraded_round();
        let ejected = monitor.first_eject_round();
        if !degraded.is_some_and(|d| ejected.is_none_or(|e| d < e)) {
            violations.push(format!(
                "advisory signal must fire, and strictly before any ejection: \
                 first degraded window round {degraded:?}, first ejection round {ejected:?}"
            ));
        }
    }
    Ok((report, violations))
}

/// Injection rate for the flight-recorder arm: low enough that the
/// machine cuts some healthy windows before the first fault freezes
/// the recorder.
const FLIGHTREC_RATE_PPM: u64 = 2_000;

/// Requests the flight-recorder arm serves.
const FLIGHTREC_REQUESTS: u64 = 400;

/// Trace-ring capacity while the recorder flies.
const FLIGHTREC_RING: usize = 48;

/// Closed windows the frozen dump keeps (plus the live one).
const FLIGHTREC_DEPTH: usize = 8;

/// Drives the single-machine flight-recorder scenario: a wiki under
/// low-rate injection with series, trace ring, and flight recorder
/// armed. Returns the frozen recording — the run is sized so a trigger
/// always fires.
///
/// # Errors
///
/// Propagates fatal machine faults (injected transients degrade in
/// place and do not surface here).
pub fn flightrec(seed: u64) -> Result<FlightRecording, Fault> {
    let backend = Backend::Mpk;
    let mut app = WikiApp::new(backend)?;
    app.runtime_mut().lb_mut().set_gateway(GatewayMode::Async);
    {
        let clock = app.runtime_mut().lb_mut().clock_mut();
        let rec = clock.recorder_mut();
        rec.enable_trace(FLIGHTREC_RING);
        rec.enable_series(DEFAULT_WINDOW_NS, 64);
        rec.set_slo(SloPolicy::default());
        rec.arm_flight_recorder(FLIGHTREC_DEPTH);
        let sites = chaos_exp::sites_for(backend);
        clock.arm_injection(InjectionPlan::new(seed, FLIGHTREC_RATE_PPM).with_sites(&sites));
    }
    app.serve_requests(FLIGHTREC_REQUESTS)?;
    let recording = app
        .runtime()
        .lb()
        .telemetry()
        .flight_recording()
        .expect("the injection rate guarantees a trigger within the run")
        .clone();
    Ok(recording)
}

#[cfg(test)]
mod tests {
    use super::*;

    enclosure_support::props! {
        /// The kill-one-shard rehearsal holds on every seed: the run
        /// is deterministic, the advisory signal fires, any ejection
        /// comes strictly after it, and the scheduled kill still lands.
        fn monitored_chaos_run_is_deterministic_and_led_by_the_signal(rng, cases = 32) {
            let cfg = MonitorExpConfig {
                chaos: true,
                ..MonitorExpConfig::quick(rng.range_u64(1, 65))
            };
            let (a, violations) = run(cfg).unwrap();
            let (b, _) = run(cfg).unwrap();
            assert!(violations.is_empty(), "seed {}: {violations:?}", cfg.seed);
            assert_eq!(a.to_json().to_pretty(), b.to_json().to_pretty());
            let monitor = a.monitor.as_ref().unwrap();
            let degraded = monitor.first_degraded_round().expect("the advisory fired");
            if let Some(ejected) = monitor.first_eject_round() {
                assert!(degraded < ejected, "seed {}: {degraded} vs {ejected}", cfg.seed);
            }
            assert!(a.crashes > 0, "seed {}: the scheduled kill still fires", cfg.seed);
        }
    }

    #[test]
    fn clean_monitor_run_logs_no_degradation() {
        let (report, violations) = run(MonitorExpConfig::quick(7)).unwrap();
        assert!(violations.is_empty(), "{violations:?}");
        let monitor = report.monitor.as_ref().unwrap();
        assert!(monitor.degraded.is_empty(), "{:?}", monitor.degraded);
        assert!(monitor.eject_rounds.is_empty());
        assert!(monitor.ring.totals().requests() >= report.admitted);
    }

    #[test]
    fn flight_recording_is_byte_stable_per_seed() {
        let a = flightrec(0xC4A05).unwrap();
        let b = flightrec(0xC4A05).unwrap();
        assert_eq!(a.to_json().to_pretty(), b.to_json().to_pretty());
        assert!(!a.events.is_empty(), "ring captured events");
        assert!(!a.windows.is_empty(), "windows captured");
    }
}
