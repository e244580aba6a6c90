//! Windowed time-series metrics: fixed-width [`MetricsWindow`]s cut
//! from the simulated clock, held in a bounded [`WindowRing`].
//!
//! Every end-of-run aggregate the recorder keeps — counters, per-op
//! histograms, request latency, track busy time — also accumulates
//! into the *live* window while the series is enabled. A window closes
//! when simulated time crosses its right edge (lazily, on the next
//! timestamped record, or eagerly at a flush-barrier tick), moves into
//! the ring, and a fresh live window opens at the index containing
//! `now`. Quiet gaps produce no windows at all: window `i` always
//! covers `[i·width, (i+1)·width)` on the owning clock, so two rings
//! cut with the same width merge index-by-index (the fleet fold).
//!
//! Mass conservation is by construction, not by snapshot-diffing: an
//! event bumps the final counters *and* the live window's counters, so
//! the sum of every window ever cut (closed ⊕ evicted ⊕ live) equals
//! the recorder's end-of-run ledgers exactly. The ring is bounded —
//! windows evicted past the capacity fold into an `evicted` totals
//! accumulator instead of vanishing, keeping the sum exact.

use std::collections::{BTreeMap, VecDeque};

use enclosure_support::Json;

use crate::event::Event;
use crate::hist::Histogram;
use crate::recorder::Counters;
use crate::slo::{BurnState, SloPolicy};

/// Default window width: 250 µs of simulated time, a few batches wide
/// under the calibrated cost model.
pub const DEFAULT_WINDOW_NS: u64 = 250_000;

/// Default bound on closed windows kept in the ring.
pub const DEFAULT_RING_CAP: usize = 256;

/// One fixed-width slice of a recorder's history. Everything in it is
/// a *delta*: what happened while simulated time was inside
/// `[start_ns, start_ns + width_ns)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsWindow {
    /// Window index on the owning clock: covers
    /// `[index·width, (index+1)·width)`.
    pub index: u64,
    /// Left edge, simulated ns (`index · width_ns`).
    pub start_ns: u64,
    /// Window width in simulated ns.
    pub width_ns: u64,
    /// Counter deltas for the window.
    pub counters: Counters,
    /// Accept→reply latency of requests served in the window (fed by
    /// [`Event::RequestServed`]).
    pub latency: Histogram,
    /// Per-operation cost deltas (same keys as `Recorder::op_hists`).
    pub ops: BTreeMap<&'static str, Histogram>,
    /// Track-ledger time closed inside the window (slice mass from
    /// `switch_track`/`note_env`/`flush_tracks` boundaries).
    pub busy_ns: u64,
}

impl MetricsWindow {
    /// A fresh window at `index` on a clock cut into `width_ns` slices.
    #[must_use]
    pub fn new(index: u64, width_ns: u64) -> MetricsWindow {
        MetricsWindow {
            index,
            start_ns: index * width_ns,
            width_ns,
            ..MetricsWindow::default()
        }
    }

    /// Right edge (exclusive), simulated ns.
    #[must_use]
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.width_ns
    }

    /// Requests that completed in the window (ok + degraded).
    #[must_use]
    pub fn requests(&self) -> u64 {
        self.counters.requests_ok + self.counters.requests_degraded
    }

    /// Degraded-request rate in parts per million (0 when idle).
    #[must_use]
    pub fn error_ppm(&self) -> u64 {
        (self.counters.requests_degraded * 1_000_000)
            .checked_div(self.requests())
            .unwrap_or(0)
    }

    /// Feeds one event into the window's deltas.
    pub(crate) fn observe(&mut self, event: &Event) {
        self.counters.bump(event);
        if let Event::RequestServed { ns, .. } = event {
            self.latency.record(*ns);
        }
    }

    /// Folds `other` into this window. Associative and commutative over
    /// every ledger; the fleet merges same-index windows from different
    /// shards with it, and the ring folds evicted windows into its
    /// totals accumulator with it.
    pub fn merge(&mut self, other: &MetricsWindow) {
        self.counters.merge(&other.counters);
        self.latency.merge(&other.latency);
        for (op, hist) in &other.ops {
            self.ops.entry(op).or_default().merge(hist);
        }
        self.busy_ns += other.busy_ns;
    }

    /// The window as a JSON object (deterministic key order).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("index", Json::U64(self.index)),
            ("start_ns", Json::U64(self.start_ns)),
            ("width_ns", Json::U64(self.width_ns)),
            ("requests_ok", Json::U64(self.counters.requests_ok)),
            (
                "requests_degraded",
                Json::U64(self.counters.requests_degraded),
            ),
            ("error_ppm", Json::U64(self.error_ppm())),
            ("latency", self.latency.to_json()),
            ("go_parks", Json::U64(self.counters.go_parks)),
            ("go_wakes", Json::U64(self.counters.go_wakes)),
            ("batch_flushes", Json::U64(self.counters.batch_flushes)),
            ("faults", Json::U64(self.counters.faults)),
            ("injected_faults", Json::U64(self.counters.injected_faults)),
            ("busy_ns", Json::U64(self.busy_ns)),
        ])
    }
}

/// A bounded ring of closed windows, keyed by window index. Pushing
/// past the capacity folds the oldest window into the `evicted` totals
/// accumulator so [`WindowRing::totals`] stays exact.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowRing {
    cap: usize,
    windows: VecDeque<MetricsWindow>,
    evicted: Option<MetricsWindow>,
}

impl WindowRing {
    /// A ring bounded at `cap` closed windows.
    #[must_use]
    pub fn new(cap: usize) -> WindowRing {
        WindowRing {
            cap: cap.max(1),
            windows: VecDeque::new(),
            evicted: None,
        }
    }

    /// Closes `window` into the ring, evicting (folding) the oldest
    /// window once full.
    pub fn push(&mut self, window: MetricsWindow) {
        if self.windows.len() == self.cap {
            if let Some(old) = self.windows.pop_front() {
                self.evicted
                    .get_or_insert_with(MetricsWindow::default)
                    .merge(&old);
            }
        }
        self.windows.push_back(window);
    }

    /// The closed windows still held, oldest first.
    #[must_use]
    pub fn windows(&self) -> &VecDeque<MetricsWindow> {
        &self.windows
    }

    /// The ring's bound on held closed windows.
    #[must_use]
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// The fold of every window ever pushed: held windows plus the
    /// evicted accumulator. Mass-conserving by construction.
    #[must_use]
    pub fn totals(&self) -> MetricsWindow {
        let mut total = self.evicted.clone().unwrap_or_default();
        for w in &self.windows {
            total.merge(w);
        }
        total
    }

    /// Folds one window into the ring at its index: merges into an
    /// existing same-index window or inserts in index order (evicting
    /// the oldest into the totals accumulator at capacity).
    pub fn merge_window(&mut self, window: &MetricsWindow) {
        match self
            .windows
            .binary_search_by_key(&window.index, |x| x.index)
        {
            Ok(i) => self.windows[i].merge(window),
            Err(i) => self.windows.insert(i, window.clone()),
        }
        while self.windows.len() > self.cap {
            if let Some(old) = self.windows.pop_front() {
                self.evicted
                    .get_or_insert_with(MetricsWindow::default)
                    .merge(&old);
            }
        }
    }

    /// Folds `other` into this ring index-by-index: same-index windows
    /// merge, unseen indices insert in order, and the evicted
    /// accumulators fold. This is the fleet-shard merge — all shard
    /// clocks start at zero and cut the same width, so index `i` is
    /// the same local epoch on every shard.
    pub fn merge(&mut self, other: &WindowRing) {
        for w in &other.windows {
            match self.windows.binary_search_by_key(&w.index, |x| x.index) {
                Ok(i) => self.windows[i].merge(w),
                Err(i) => self.windows.insert(i, w.clone()),
            }
        }
        if let Some(e) = &other.evicted {
            self.evicted
                .get_or_insert_with(MetricsWindow::default)
                .merge(e);
        }
        while self.windows.len() > self.cap.max(other.cap) {
            if let Some(old) = self.windows.pop_front() {
                self.evicted
                    .get_or_insert_with(MetricsWindow::default)
                    .merge(&old);
            }
        }
    }
}

/// The live sampler a recorder drives: the current window, the ring of
/// closed windows, and (optionally) an [`SloPolicy`] evaluated at
/// every window close.
#[derive(Debug, Clone)]
pub struct Series {
    width_ns: u64,
    live: MetricsWindow,
    ring: WindowRing,
    slo: Option<SloPolicy>,
    burn: BurnState,
}

impl Series {
    /// A sampler cutting `width_ns`-wide windows into a ring bounded at
    /// `ring_cap` closed windows.
    #[must_use]
    pub fn new(width_ns: u64, ring_cap: usize) -> Series {
        let width_ns = width_ns.max(1);
        Series {
            width_ns,
            live: MetricsWindow::new(0, width_ns),
            ring: WindowRing::new(ring_cap),
            slo: None,
            burn: BurnState::default(),
        }
    }

    /// Window width in simulated ns.
    #[must_use]
    pub fn width_ns(&self) -> u64 {
        self.width_ns
    }

    /// Attaches an SLO policy, evaluated at every window close.
    pub fn set_slo(&mut self, policy: SloPolicy) {
        self.slo = Some(policy);
    }

    /// The attached SLO policy, if any.
    #[must_use]
    pub fn slo(&self) -> Option<&SloPolicy> {
        self.slo.as_ref()
    }

    /// The ring of closed windows.
    #[must_use]
    pub fn ring(&self) -> &WindowRing {
        &self.ring
    }

    /// The live (still-open) window.
    #[must_use]
    pub fn live(&self) -> &MetricsWindow {
        &self.live
    }

    /// The fold of every window cut so far, live included — equals the
    /// recorder's end-of-run ledgers for everything the sampler tracks.
    #[must_use]
    pub fn totals(&self) -> MetricsWindow {
        let mut total = self.ring.totals();
        total.merge(&self.live);
        total
    }

    /// Advances the sampler to `now_ns`, closing every window whose
    /// right edge it crossed. Returns the [`Event::SloBurn`] alerts the
    /// closes fired (empty without a policy). Quiet gaps skip straight
    /// to the window containing `now_ns` — no empty windows are cut.
    pub(crate) fn advance(&mut self, now_ns: u64) -> Vec<Event> {
        let mut alerts = Vec::new();
        if now_ns < self.live.end_ns() {
            return alerts;
        }
        let target = now_ns / self.width_ns;
        let closed = std::mem::replace(&mut self.live, MetricsWindow::new(target, self.width_ns));
        if let Some(alert) = self.close_window(&closed) {
            alerts.push(alert);
        }
        self.ring.push(closed);
        alerts
    }

    fn close_window(&mut self, window: &MetricsWindow) -> Option<Event> {
        let policy = self.slo.as_ref()?;
        self.burn
            .observe(window.counters.requests_degraded, window.requests());
        let (fast, slow) = self.burn.burn_milli(policy);
        if policy.burning(fast, slow) {
            Some(Event::SloBurn {
                window: window.index,
                fast_burn_milli: fast,
                slow_burn_milli: slow,
            })
        } else {
            None
        }
    }

    /// Feeds one event into the live window.
    pub(crate) fn observe(&mut self, event: &Event) {
        self.live.observe(event);
    }

    /// Feeds one per-op cost sample into the live window.
    pub(crate) fn observe_op(&mut self, op: &'static str, ns: u64) {
        self.live.ops.entry(op).or_default().record(ns);
    }

    /// Feeds one closed track slice into the live window.
    pub(crate) fn observe_slice(&mut self, ns: u64) {
        self.live.busy_ns += ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn served(ns: u64, ok: bool) -> Event {
        Event::RequestServed { ns, ok }
    }

    #[test]
    fn windows_cut_at_fixed_edges_and_skip_gaps() {
        let mut s = Series::new(100, 8);
        s.observe(&served(10, true));
        assert!(s.advance(99).is_empty(), "still inside window 0");
        s.advance(100);
        assert_eq!(s.ring().windows().len(), 1);
        assert_eq!(s.ring().windows()[0].index, 0);
        assert_eq!(s.live().index, 1);
        // A long quiet gap skips straight to the containing window.
        s.advance(1_050);
        assert_eq!(s.ring().windows().len(), 2);
        assert_eq!(s.live().index, 10);
        assert_eq!(s.live().start_ns, 1_000);
    }

    #[test]
    fn ring_eviction_folds_into_totals() {
        let mut s = Series::new(10, 2);
        for i in 0..5u64 {
            s.observe(&served(i + 1, i % 2 == 0));
            s.advance((i + 1) * 10);
        }
        assert_eq!(s.ring().windows().len(), 2, "ring stays bounded");
        let totals = s.totals();
        assert_eq!(totals.requests(), 5, "evicted windows keep their mass");
        assert_eq!(totals.counters.requests_ok, 3);
        assert_eq!(totals.latency.count(), 5);
    }

    #[test]
    fn ring_merge_is_by_index_and_associative() {
        let cut = |seed: u64| {
            let mut s = Series::new(10, 8);
            for i in 0..seed {
                s.observe(&served(7 * (i + 1), true));
                s.advance((i + 1) * 10);
            }
            s.ring().clone()
        };
        let (a, b, c) = (cut(1), cut(2), cut(3));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right, "merge is associative");
        assert_eq!(
            left.totals().requests(),
            a.totals().requests() + b.totals().requests() + c.totals().requests(),
            "merge conserves mass"
        );
        assert_eq!(left.windows()[0].index, 0);
        assert_eq!(
            left.windows()[0].requests(),
            3,
            "window 0 folds one request from each shard"
        );
    }
}
