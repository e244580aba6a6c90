//! Virtual-time shard scheduling: the per-shard ready-time clock and
//! the catch-up planner that overlaps extra batches inside the round
//! window.
//!
//! The lock-step engine advanced fleet time by one batch per shard per
//! round, so a shard with a backlog (session skew, reroutes from a
//! dead peer) drained it one batch per round while its faster peers
//! idled. The virtual-time engine keeps an absolute *ready time* per
//! shard ([`VirtualClock`]) and, once the guaranteed window of the
//! round is planned, lets [`plan_catchup`] grant extra batches to any
//! shard predicted to finish them before the round's deadline — the
//! virtual time the slowest shard is already committed to. Rounds stay
//! the control-plane tick (probes, respawn deadlines, admission
//! quotas are all round-keyed), but inside a round the shards overlap
//! like real machines instead of marching in lock step.
//!
//! Everything here is deterministic: predictions use each shard's own
//! cumulative mean, the heap breaks ties by shard index, and the
//! planner never looks at wall-clock time — which is why the parallel
//! executor can run the planned batches on worker threads and still
//! produce a byte-identical report.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Absolute per-shard ready times in simulated (virtual) nanoseconds.
///
/// A shard's ready time is when its machine frees up: the end of the
/// last batch folded onto it. Rounds are barriers — [`start_round`]
/// clamps every shard up to the balancer's clock, so ready times only
/// diverge *within* a round — but within one they give every batch an
/// honest `[start, end)` span on its machine's timeline.
///
/// [`start_round`]: VirtualClock::start_round
#[derive(Debug, Clone)]
pub struct VirtualClock {
    ready_ns: Vec<u64>,
}

impl VirtualClock {
    /// A clock for `shards` shards, all ready at time zero.
    #[must_use]
    pub fn new(shards: usize) -> VirtualClock {
        VirtualClock {
            ready_ns: vec![0; shards],
        }
    }

    /// Round barrier: no shard may start the new round's work before
    /// the balancer's clock (probes happened; admission happened).
    pub fn start_round(&mut self, now_ns: u64) {
        for ready in &mut self.ready_ns {
            *ready = (*ready).max(now_ns);
        }
    }

    /// When shard `i`'s machine frees up.
    #[must_use]
    pub fn ready(&self, i: usize) -> u64 {
        self.ready_ns[i]
    }

    /// Charges `ns` of serving to shard `i` and returns the batch's
    /// `(start, end)` span on the shard's timeline.
    pub fn advance(&mut self, i: usize, ns: u64) -> (u64, u64) {
        let start = self.ready_ns[i];
        let end = start + ns;
        self.ready_ns[i] = end;
        (start, end)
    }
}

/// One shard's claim on catch-up batches: where its predicted timeline
/// stands after the guaranteed window, and what it still has queued.
#[derive(Debug, Clone)]
pub struct CatchupSlot {
    /// Shard index.
    pub shard: usize,
    /// Predicted virtual time at which the shard finishes everything
    /// already planned on it this round.
    pub ready_ns: u64,
    /// The shard's own cumulative mean (the latency-outlier baseline,
    /// reused as the prediction). Zero means cold — no baseline, no
    /// extras: the guaranteed batch is its bootstrap.
    pub mean_ns_per_req: u64,
    /// Requests still queued after the guaranteed window was planned.
    pub pending: u64,
}

/// Plans catch-up batches: repeatedly grants `min(batch, pending)`
/// more requests to the earliest-ready shard whose predicted finish
/// stays at or under `deadline_ns`. Returns `(shard, take)` grants in
/// emission order (the per-shard dispatch order). Ties break by shard
/// index, so the grant sequence is a pure function of the slots.
#[must_use]
pub fn plan_catchup(deadline_ns: u64, batch: u64, slots: Vec<CatchupSlot>) -> Vec<(usize, u64)> {
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    let mut by_shard: Vec<(usize, CatchupSlot)> = Vec::with_capacity(slots.len());
    for slot in slots {
        if slot.pending > 0 && slot.mean_ns_per_req > 0 {
            heap.push(Reverse((slot.ready_ns, slot.shard)));
            by_shard.push((slot.shard, slot));
        }
    }
    let mut grants = Vec::new();
    while let Some(Reverse((ready, shard))) = heap.pop() {
        let slot = &mut by_shard
            .iter_mut()
            .find(|(id, _)| *id == shard)
            .expect("heap entry without a slot")
            .1;
        let take = batch.min(slot.pending);
        let predicted_end = ready + slot.mean_ns_per_req.saturating_mul(take);
        if take == 0 || predicted_end > deadline_ns {
            continue; // This shard is done catching up this round.
        }
        slot.pending -= take;
        slot.ready_ns = predicted_end;
        grants.push((shard, take));
        if slot.pending > 0 {
            heap.push(Reverse((predicted_end, shard)));
        }
    }
    grants
}

/// One executed batch on one shard's virtual timeline — the unit of
/// the fleet's chrome-trace export, where each shard is a track and
/// overlap between tracks is the scheduler's win made visible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchSpan {
    /// Round the batch was planned in.
    pub round: u64,
    /// Shard (machine) that served it.
    pub shard: usize,
    /// Span start on the shard's virtual timeline.
    pub start_ns: u64,
    /// Span end (start + the batch's simulated serving time).
    pub end_ns: u64,
    /// Requests in the batch.
    pub reqs: u64,
    /// Dispatch role: `serve`, `catchup`, `crash-prefix`, `partition`
    /// or `failover`.
    pub label: &'static str,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot(shard: usize, ready_ns: u64, mean: u64, pending: u64) -> CatchupSlot {
        CatchupSlot {
            shard,
            ready_ns,
            mean_ns_per_req: mean,
            pending,
        }
    }

    #[test]
    fn fast_shard_catches_up_under_slow_deadline() {
        // Shard 0 is fast (10ns/req) with a backlog; shard 1 is slow
        // and already committed through 1000ns. Shard 0 fits multiple
        // extra batches of 4 (40ns each) before the deadline.
        let grants = plan_catchup(1000, 4, vec![slot(0, 40, 10, 12), slot(1, 1000, 100, 0)]);
        assert_eq!(grants, vec![(0, 4), (0, 4), (0, 4)]);
    }

    #[test]
    fn cold_shard_gets_no_extras() {
        // No baseline mean → no prediction → bootstrap round only.
        let grants = plan_catchup(1_000_000, 8, vec![slot(0, 0, 0, 100)]);
        assert!(grants.is_empty());
    }

    #[test]
    fn deadline_bounds_the_grants() {
        // 50ns/req, batch 2 → 100ns per batch starting at 0; deadline
        // 250 admits exactly two batches (ends 100 and 200).
        let grants = plan_catchup(250, 2, vec![slot(0, 0, 50, 10)]);
        assert_eq!(grants, vec![(0, 2), (0, 2)]);
    }

    #[test]
    fn pending_runs_dry_before_deadline() {
        let grants = plan_catchup(u64::MAX >> 1, 4, vec![slot(0, 0, 1, 6)]);
        assert_eq!(grants, vec![(0, 4), (0, 2)]);
    }

    #[test]
    fn earliest_ready_shard_is_granted_first_with_index_ties() {
        let grants = plan_catchup(
            100,
            1,
            vec![slot(2, 10, 30, 1), slot(1, 10, 30, 1), slot(0, 20, 30, 1)],
        );
        // Shards 1 and 2 tie at ready=10: index order breaks the tie.
        assert_eq!(grants, vec![(1, 1), (2, 1), (0, 1)]);
    }

    #[test]
    fn clock_rounds_are_barriers() {
        let mut clock = VirtualClock::new(2);
        clock.start_round(100);
        assert_eq!(clock.advance(0, 50), (100, 150));
        assert_eq!(clock.advance(0, 10), (150, 160));
        assert_eq!(clock.ready(1), 100);
        // The next round starts past everyone's last batch.
        clock.start_round(200);
        assert_eq!(clock.advance(0, 5), (200, 205));
        assert_eq!(clock.advance(1, 5), (200, 205));
    }
}
