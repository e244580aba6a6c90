//! Fleet SLO monitoring: opt-in windowed sampling on every shard, a
//! per-round drain of newly closed windows into the balancer, and an
//! *advisory* degradation signal.
//!
//! When [`MonitorConfig`] is set on a
//! [`FleetConfig`](crate::FleetConfig), every shard generation boots
//! with a [`Series`](enclosure_telemetry::Series) sampler cutting
//! [`WINDOW_NS`]-wide windows into a [`RING_CAP`]-deep ring, and the
//! [`SLO`] policy on its machine recorder. After each balancer round
//! the fleet drains the windows each shard closed since the last round
//! and evaluates them against the policy; a breaching window logs an
//! [`Event::ShardDegraded`](enclosure_telemetry::Event::ShardDegraded)
//! into the balancer's own monitor recorder. The signal is advisory by
//! construction — it is recorded, never routed on — so arming the
//! monitor changes no routing decision and no shard byte: outlier
//! ejection still comes only from probe flaps and latency strikes, and
//! the acceptance bar is that the advisory signal *leads* the ejection
//! it predicts.
//!
//! The monitor's one switch is the deterministic [`BROWNOUT`], which
//! re-arms the scheduled kill's victim's machine injection at an
//! elevated rate a few rounds before the kill: the shard starts
//! burning its error budget and missing its latency objective while
//! still routable, the monitor logs `ShardDegraded` from the first
//! breaching window, and only rounds later do the balancer's latency
//! strikes accumulate into an ejection — the flight-data story the
//! dashboard renders.

use enclosure_support::Json;
use enclosure_telemetry::{Recorder, SloPolicy, WindowRing, DEFAULT_WINDOW_NS};

/// Window width each shard cuts, simulated ns on the shard clock.
pub const WINDOW_NS: u64 = DEFAULT_WINDOW_NS;

/// Closed windows each shard's ring keeps before folding.
pub const RING_CAP: usize = 512;

/// The per-window objectives every shard is held to.
pub const SLO: SloPolicy = SloPolicy::DEFAULT;

/// The brownout the monitor applies when armed: from round 8 (before
/// the scheduled kill at about a quarter of the run), 400,000 ppm
/// machine-site injection and a clock charging at 12×.
pub const BROWNOUT: Brownout = Brownout {
    round: 8,
    rate_ppm: 400_000,
    throttle_milli: 12_000,
};

/// Opt-in fleet monitoring. Window width, ring depth and policy are the
/// constants above; the one switch is the brownout.
#[derive(Debug, Clone, Copy, Default)]
pub struct MonitorConfig {
    /// Apply [`BROWNOUT`] to the scheduled kill's victim so degradation
    /// (and the advisory signal) precedes the kill.
    pub brownout: bool,
}

/// A scheduled partial failure of the scheduled kill's victim: from
/// `round` on, its machine injects transients at `rate_ppm` *and* its
/// clock runs throttled — the shard errors more and slows down, the
/// way real brownouts look, without dying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Brownout {
    /// Balancer round the brownout starts at.
    pub round: u64,
    /// Machine-site injection rate while browned out, ppm.
    pub rate_ppm: u64,
    /// Clock throttle while browned out, thousandths (1000 = none,
    /// 4000 = everything charges at 4×).
    pub throttle_milli: u64,
}

impl Brownout {
    /// The brownout as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("round", Json::U64(self.round)),
            ("rate_ppm", Json::U64(self.rate_ppm)),
            ("throttle_milli", Json::U64(self.throttle_milli)),
        ])
    }
}

/// One advisory observation: a shard closed a window that breached the
/// SLO policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradedWindow {
    /// Balancer round at which the window was drained.
    pub round: u64,
    /// Shard that cut the window.
    pub shard: usize,
    /// Window index on the shard's clock.
    pub window: u64,
    /// Degraded-request rate inside the window, ppm.
    pub error_ppm: u64,
    /// p99 request latency inside the window, simulated ns.
    pub p99_ns: u64,
}

impl DegradedWindow {
    /// The observation as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("round", Json::U64(self.round)),
            ("shard", Json::U64(self.shard as u64)),
            ("window", Json::U64(self.window)),
            ("error_ppm", Json::U64(self.error_ppm)),
            ("p99_ns", Json::U64(self.p99_ns)),
        ])
    }
}

/// What a monitored fleet run adds to its
/// [`FleetReport`](crate::FleetReport).
#[derive(Debug, Clone)]
pub struct MonitorReport {
    /// Whether [`BROWNOUT`] was applied.
    pub brownout: bool,
    /// Every shard's window ring folded index-by-index (shard clocks
    /// all start at zero, so index `i` is the same local epoch
    /// fleet-wide).
    pub ring: WindowRing,
    /// Per-shard window rings, in shard order (all generations).
    pub shard_rings: Vec<WindowRing>,
    /// Every breaching window the per-round drain observed, in drain
    /// order.
    pub degraded: Vec<DegradedWindow>,
    /// Outlier ejections as `(shard, round)`, in ejection order.
    pub eject_rounds: Vec<(usize, u64)>,
    /// The balancer's own monitor recorder: `ShardDegraded` events and
    /// their trace ring (shard recorders are untouched by the drain).
    pub telemetry: Recorder,
}

impl MonitorReport {
    /// Round of the first advisory observation, if any fired.
    #[must_use]
    pub fn first_degraded_round(&self) -> Option<u64> {
        self.degraded.first().map(|d| d.round)
    }

    /// Round of the first outlier ejection, if any happened.
    #[must_use]
    pub fn first_eject_round(&self) -> Option<u64> {
        self.eject_rounds.first().map(|&(_, round)| round)
    }

    /// True when the advisory signal did its job: at least one
    /// `ShardDegraded` window strictly before the first ejection.
    #[must_use]
    pub fn degradation_led_ejection(&self) -> bool {
        match (self.first_degraded_round(), self.first_eject_round()) {
            (Some(degraded), Some(ejected)) => degraded < ejected,
            _ => false,
        }
    }

    /// The monitor section of the fleet JSON payload.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("policy", SLO.to_json()),
            ("window_ns", Json::U64(WINDOW_NS)),
            (
                "brownout",
                if self.brownout {
                    BROWNOUT.to_json()
                } else {
                    Json::Null
                },
            ),
            (
                "windows",
                Json::arr(self.ring.windows().iter().map(|w| w.to_json())),
            ),
            (
                "degraded",
                Json::arr(self.degraded.iter().map(DegradedWindow::to_json)),
            ),
            (
                "eject_rounds",
                Json::arr(self.eject_rounds.iter().map(|&(shard, round)| {
                    Json::obj([
                        ("shard", Json::U64(shard as u64)),
                        ("round", Json::U64(round)),
                    ])
                })),
            ),
            (
                "first_degraded_round",
                self.first_degraded_round().map_or(Json::Null, Json::U64),
            ),
            (
                "first_eject_round",
                self.first_eject_round().map_or(Json::Null, Json::U64),
            ),
            (
                "degradation_led_ejection",
                Json::from(self.degradation_led_ejection()),
            ),
            (
                "shards_degraded",
                Json::U64(self.telemetry.counters().shards_degraded),
            ),
        ])
    }
}
