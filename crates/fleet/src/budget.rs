//! The global retry budget: a token bucket that caps failover retries.
//!
//! When a shard crashes or partitions, every in-flight request on it
//! wants to retry on a peer — and under a correlated failure that
//! retry wave can exceed the original load (a retry storm). The budget
//! makes the cap explicit: each failover retry costs one token, the
//! bucket refills at a fixed per-round rate, and when it runs dry the
//! balancer degrades the request to a 503 instead of amplifying load.
//! Requests that were merely *re-queued* (never dispatched) move for
//! free — they are first tries, not retries.

/// Token-bucket retry budget shared by the whole fleet.
#[derive(Debug, Clone)]
pub struct RetryBudget {
    capacity: u64,
    tokens: u64,
    refill_per_round: u64,
    consumed: u64,
    refilled: u64,
    denied: u64,
}

impl RetryBudget {
    /// A full bucket holding `capacity` tokens, refilling
    /// `refill_per_round` tokens at each balancer round boundary.
    #[must_use]
    pub fn new(capacity: u64, refill_per_round: u64) -> RetryBudget {
        RetryBudget {
            capacity,
            tokens: capacity,
            refill_per_round,
            consumed: 0,
            refilled: 0,
            denied: 0,
        }
    }

    /// Takes up to `want` tokens; returns how many were granted. The
    /// shortfall is recorded as denied retries (the caller must 503
    /// those requests rather than retry them).
    pub fn take(&mut self, want: u64) -> u64 {
        let granted = want.min(self.tokens);
        self.tokens -= granted;
        self.consumed += granted;
        self.denied += want - granted;
        granted
    }

    /// Round boundary: refill toward capacity. Refill that would
    /// overflow the bucket is discarded (and not counted as refilled),
    /// so `consumed ≤ capacity + refilled` always holds.
    pub fn tick(&mut self) {
        let add = self.refill_per_round.min(self.capacity - self.tokens);
        self.tokens += add;
        self.refilled += add;
    }

    /// The bucket size.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Tokens currently available.
    #[must_use]
    pub fn tokens(&self) -> u64 {
        self.tokens
    }

    /// Total tokens granted to failover retries.
    #[must_use]
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Total tokens added back by round ticks.
    #[must_use]
    pub fn refilled(&self) -> u64 {
        self.refilled
    }

    /// Retries refused because the bucket was dry.
    #[must_use]
    pub fn denied(&self) -> u64 {
        self.denied
    }

    /// The bucket's conservation invariant: every consumed token was
    /// either in the initial bucket or refilled, and the live balance
    /// matches the ledger.
    #[must_use]
    pub fn invariant_holds(&self) -> bool {
        self.consumed <= self.capacity + self.refilled
            && self.tokens == self.capacity + self.refilled - self.consumed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    enclosure_support::props! {
        /// A zero-capacity bucket never grants: every retry is denied,
        /// refill has nowhere to land, and the ledger stays balanced.
        fn zero_capacity_denies_everything(rng, cases = 64) {
            let mut b = RetryBudget::new(0, rng.range_u64(0, 1000));
            let mut wanted = 0;
            for _ in 0..rng.range_usize(1, 40) {
                let want = rng.range_u64(0, 50);
                wanted += want;
                assert_eq!(b.take(want), 0, "no tokens can exist");
                b.tick();
                assert_eq!(b.tokens(), 0, "refill into zero capacity is discarded");
            }
            assert_eq!((b.consumed(), b.refilled(), b.denied()), (0, 0, wanted));
            assert!(b.invariant_holds());
        }

        /// Refill rates near `u64::MAX` neither overflow the bucket nor
        /// inflate the ledger: the applied refill is exactly the free
        /// headroom, so `tokens` never exceeds `capacity`.
        fn huge_refill_clips_to_headroom_without_overflow(rng, cases = 64) {
            let capacity = rng.range_u64(1, 1_000);
            let refill = u64::MAX - rng.range_u64(0, 3);
            let mut b = RetryBudget::new(capacity, refill);
            for _ in 0..rng.range_usize(1, 30) {
                let drained = b.take(rng.range_u64(0, capacity * 2));
                b.tick();
                assert_eq!(b.tokens(), capacity, "one huge tick refills exactly what left");
                assert!(drained <= capacity);
                assert!(b.invariant_holds());
            }
        }

        /// Any interleaving of same-round consumes and refills keeps the
        /// conservation ledger exact: `tokens == capacity + refilled -
        /// consumed` after every step, `tokens ≤ capacity` always, and
        /// grants+denials partition the requests. This is the
        /// concurrent-round ordering property — the balancer may take
        /// for several shards before the round tick, in any order, and
        /// the bucket cannot double-grant or leak.
        fn interleaved_consume_refill_conserves_tokens(rng, cases = 64) {
            let capacity = rng.range_u64(0, 200);
            let refill = rng.range_u64(0, 50);
            let mut b = RetryBudget::new(capacity, refill);
            let mut wanted = 0;
            for _ in 0..rng.range_usize(1, 200) {
                if rng.next_bool() {
                    let want = rng.range_u64(0, 40);
                    wanted += want;
                    let granted = b.take(want);
                    assert!(granted <= want);
                } else {
                    b.tick();
                }
                assert!(b.tokens() <= capacity, "bucket can never exceed capacity");
                assert!(b.invariant_holds(), "ledger drifted: {b:?}");
            }
            assert_eq!(
                b.consumed() + b.denied(),
                wanted,
                "every requested token was granted or denied, exactly once"
            );
        }
    }

    #[test]
    fn grants_partially_then_denies() {
        let mut b = RetryBudget::new(5, 0);
        assert_eq!(b.take(3), 3);
        assert_eq!(b.take(4), 2, "only 2 tokens left");
        assert_eq!(b.take(1), 0);
        assert_eq!(b.consumed(), 5);
        assert_eq!(b.denied(), 3);
        assert!(b.invariant_holds());
    }

    #[test]
    fn refill_is_capped_at_capacity() {
        let mut b = RetryBudget::new(4, 3);
        b.tick();
        assert_eq!(b.tokens(), 4, "full bucket stays full");
        assert_eq!(b.refilled(), 0, "discarded refill is not ledgered");
        assert_eq!(b.take(4), 4);
        b.tick();
        b.tick();
        assert_eq!(b.tokens(), 4, "3 + 1, second tick clipped");
        assert_eq!(b.refilled(), 4);
        assert!(b.invariant_holds());
    }
}
