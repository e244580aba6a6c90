//! SLO policy, multi-window burn-rate alerting, and the black-box
//! flight recorder.
//!
//! The policy is two objectives per window: a latency objective (p99 ≤
//! threshold) and an error-rate objective (degraded requests ≤ budget,
//! in ppm). The *burn rate* of a window run is `error_rate / budget`,
//! kept in thousandths (1000 = burning exactly at budget). Alerts use
//! the classic multi-window pairing: a fast horizon (last
//! [`FAST_WINDOWS`] closed windows) must burn at ≥
//! [`SloPolicy::fast_alert_milli`] *and* a slow horizon (last
//! [`SLOW_WINDOWS`]) at ≥ [`SloPolicy::slow_alert_milli`] — the fast
//! arm gives low detection latency, the slow arm suppresses one-window
//! blips. A firing close records [`crate::Event::SloBurn`].
//!
//! The flight recorder is first-failure data capture: the first
//! fault/chaos/breaker event a recorder sees freezes the last N closed
//! windows, the live window, and the bounded event ring into an
//! immutable [`FlightRecording`]. Everything in it is simulated time
//! derived from the seed, so the dump is byte-identical across runs.

use enclosure_support::Json;

use crate::event::Event;
use crate::recorder::TracedEvent;
use crate::series::MetricsWindow;

/// Fast burn horizon: the last 5 closed windows.
pub const FAST_WINDOWS: usize = 5;

/// Slow burn horizon: the last 30 closed windows.
pub const SLOW_WINDOWS: usize = 30;

/// Per-window service-level objectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloPolicy {
    /// Latency objective: window p99 must stay at or under this.
    pub latency_p99_ns: u64,
    /// Error-rate objective (budget): degraded requests per million.
    pub error_budget_ppm: u64,
    /// Fast-horizon alert threshold, thousandths of the budget burn.
    pub fast_alert_milli: u64,
    /// Slow-horizon alert threshold, thousandths of the budget burn.
    pub slow_alert_milli: u64,
}

impl Default for SloPolicy {
    fn default() -> SloPolicy {
        SloPolicy::DEFAULT
    }
}

impl SloPolicy {
    /// The default objectives, usable in constants.
    pub const DEFAULT: SloPolicy = SloPolicy {
        // Generous enough that healthy wiki/fasthttp serving under the
        // calibrated cost model sits well inside it.
        latency_p99_ns: 2_000_000,
        // 1% error budget.
        error_budget_ppm: 10_000,
        // Fast horizon must burn at 10x budget...
        fast_alert_milli: 10_000,
        // ...while the slow horizon confirms at 2x.
        slow_alert_milli: 2_000,
    };

    /// Whether `window` breaches either objective.
    #[must_use]
    pub fn breached(&self, window: &MetricsWindow) -> bool {
        self.latency_breached(window) || self.error_breached(window)
    }

    /// Whether `window`'s p99 exceeds the latency objective.
    #[must_use]
    pub fn latency_breached(&self, window: &MetricsWindow) -> bool {
        window.latency.count() > 0 && window.latency.percentile(990) > self.latency_p99_ns
    }

    /// Whether `window`'s error rate exceeds the error budget.
    #[must_use]
    pub fn error_breached(&self, window: &MetricsWindow) -> bool {
        window.requests() > 0 && window.error_ppm() > self.error_budget_ppm
    }

    /// Burn rate of `degraded` failures over `total` requests, in
    /// thousandths of the budget (1000 = burning exactly at budget;
    /// idle horizons burn 0).
    #[must_use]
    pub fn burn_milli(&self, degraded: u64, total: u64) -> u64 {
        if total == 0 || self.error_budget_ppm == 0 {
            return 0;
        }
        let error_ppm = degraded * 1_000_000 / total;
        error_ppm * 1_000 / self.error_budget_ppm
    }

    /// The multi-window alert condition: both horizons burning past
    /// their thresholds.
    #[must_use]
    pub fn burning(&self, fast_milli: u64, slow_milli: u64) -> bool {
        fast_milli >= self.fast_alert_milli && slow_milli >= self.slow_alert_milli
    }

    /// The policy as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("latency_p99_ns", Json::U64(self.latency_p99_ns)),
            ("error_budget_ppm", Json::U64(self.error_budget_ppm)),
            ("fast_alert_milli", Json::U64(self.fast_alert_milli)),
            ("slow_alert_milli", Json::U64(self.slow_alert_milli)),
        ])
    }
}

/// Rolling per-window (degraded, total) pairs backing the two burn
/// horizons.
#[derive(Debug, Clone, Default)]
pub struct BurnState {
    recent: std::collections::VecDeque<(u64, u64)>,
}

impl BurnState {
    /// Notes one closed window's (degraded, total) request counts.
    pub fn observe(&mut self, degraded: u64, total: u64) {
        self.recent.push_back((degraded, total));
        while self.recent.len() > SLOW_WINDOWS {
            self.recent.pop_front();
        }
    }

    /// (fast, slow) burn in thousandths of `policy`'s budget, over the
    /// last [`FAST_WINDOWS`] / [`SLOW_WINDOWS`] observed windows.
    #[must_use]
    pub fn burn_milli(&self, policy: &SloPolicy) -> (u64, u64) {
        let horizon = |n: usize| {
            let (mut degraded, mut total) = (0u64, 0u64);
            for &(d, t) in self.recent.iter().rev().take(n) {
                degraded += d;
                total += t;
            }
            policy.burn_milli(degraded, total)
        };
        (horizon(FAST_WINDOWS), horizon(SLOW_WINDOWS))
    }
}

/// Which events trigger the flight recorder: faults, injected chaos,
/// and breaker trips.
#[must_use]
pub fn is_flight_trigger(event: &Event) -> bool {
    matches!(
        event,
        Event::Fault { .. } | Event::InjectedFault { .. } | Event::BreakerTrip { .. }
    )
}

/// The frozen black-box dump: the trigger, the windows leading up to
/// it, and the recent-event ring at the moment it fired.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecording {
    /// Simulated time the trigger fired.
    pub at_ns: u64,
    /// The event that froze the recorder.
    pub trigger: Event,
    /// The last closed windows (oldest first) plus the live window at
    /// freeze time, capped at the armed depth.
    pub windows: Vec<MetricsWindow>,
    /// The bounded event ring at freeze time (oldest first; the
    /// trigger itself is the newest entry when tracing is on).
    pub events: Vec<TracedEvent>,
}

impl FlightRecording {
    /// The dump as a JSON object (deterministic key order; byte-stable
    /// per seed).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("at_ns", Json::U64(self.at_ns)),
            ("trigger", Json::from(self.trigger.to_string().as_str())),
            (
                "windows",
                Json::arr(self.windows.iter().map(MetricsWindow::to_json)),
            ),
            (
                "events",
                Json::arr(self.events.iter().map(|e| {
                    Json::obj([
                        ("at_ns", Json::U64(e.at_ns)),
                        ("event", Json::from(e.event.to_string().as_str())),
                    ])
                })),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burn_is_error_rate_over_budget() {
        let policy = SloPolicy {
            error_budget_ppm: 10_000, // 1%
            ..SloPolicy::default()
        };
        // 2% errors = 2x budget = 2000 milli.
        assert_eq!(policy.burn_milli(2, 100), 2_000);
        assert_eq!(policy.burn_milli(0, 100), 0);
        assert_eq!(policy.burn_milli(0, 0), 0, "idle horizon burns nothing");
    }

    #[test]
    fn multi_window_alert_needs_both_horizons() {
        let policy = SloPolicy::default();
        let mut burn = BurnState::default();
        // One hot window inside an otherwise clean slow horizon: the
        // fast horizon burns at 10x budget, the slow stays under 2x.
        for _ in 0..SLOW_WINDOWS - 1 {
            burn.observe(0, 100);
        }
        burn.observe(50, 100);
        let (fast, slow) = burn.burn_milli(&policy);
        assert!(fast >= policy.fast_alert_milli, "fast horizon hot: {fast}");
        assert!(slow < policy.slow_alert_milli, "slow horizon cold: {slow}");
        assert!(!policy.burning(fast, slow), "single blip suppressed");
        // A sustained burn lights both.
        for _ in 0..FAST_WINDOWS {
            burn.observe(50, 100);
        }
        let (fast, slow) = burn.burn_milli(&policy);
        assert!(
            policy.burning(fast, slow),
            "sustained burn fires: {fast}/{slow}"
        );
    }

    #[test]
    fn window_breach_checks_both_objectives() {
        let policy = SloPolicy {
            latency_p99_ns: 1_000,
            error_budget_ppm: 10_000,
            ..SloPolicy::default()
        };
        let mut w = MetricsWindow::new(0, 100);
        assert!(!policy.breached(&w), "idle window is healthy");
        w.observe(&Event::RequestServed { ns: 500, ok: true });
        assert!(!policy.breached(&w));
        w.observe(&Event::RequestServed {
            ns: 50_000,
            ok: false,
        });
        assert!(policy.latency_breached(&w));
        assert!(policy.error_breached(&w));
    }
}
