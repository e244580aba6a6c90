//! The fleet workload: a heavy-tailed stream of user sessions.
//!
//! Real wiki traffic is not uniform — most sessions are one or two page
//! loads, a few are crawlers and power users hundreds of requests long.
//! The generator draws session lengths from a truncated geometric-over-
//! doublings distribution (a discrete heavy tail) seeded from the plan
//! seed, so the same seed always produces the same session stream and
//! every fleet run is a pure function of its configuration.

use enclosure_support::XorShift;

/// Longest session the generator will produce, in requests. Keeps the
/// tail heavy but the simulation bounded.
pub const MAX_SESSION_LEN: u64 = 256;

/// One user session: a run of requests that stick to the same shard
/// (session affinity), so a shard failure hits whole sessions, not
/// random single requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Session {
    /// Stable session id (also the affinity key).
    pub id: u64,
    /// Requests in the session.
    pub requests: u64,
}

impl Session {
    /// The shard this session sticks to in an `n`-shard fleet. Pure
    /// function of the id so routing never depends on fleet health —
    /// that is what keeps bystander shards byte-identical when a peer
    /// crashes (the balancer only *re*-routes the victim's sessions).
    #[must_use]
    pub fn home_shard(&self, n: usize) -> usize {
        usize::try_from(self.id).unwrap_or(usize::MAX) % n.max(1)
    }
}

/// Lazily generates the session stream for `total_requests` requests:
/// session lengths are heavy-tailed (P(len ≥ 2^k) decays geometrically,
/// capped at [`MAX_SESSION_LEN`]), and the final session is truncated so
/// the stream sums to exactly `total_requests`.
///
/// The stream draws each session from the PRNG only when it is pulled,
/// so the balancer admits directly off the iterator without ever
/// materializing the full workload — a billion-request plan costs the
/// same memory as a ten-request one.
#[derive(Debug, Clone)]
pub struct SessionStream {
    rng: XorShift,
    remaining: u64,
    next_id: u64,
}

impl SessionStream {
    /// Starts the stream for `total_requests` requests under `seed`.
    #[must_use]
    pub fn new(seed: u64, total_requests: u64) -> SessionStream {
        SessionStream {
            rng: XorShift::new(seed ^ 0x5e55_10f5),
            remaining: total_requests,
            next_id: 0,
        }
    }
}

impl Iterator for SessionStream {
    type Item = Session;

    fn next(&mut self) -> Option<Session> {
        if self.remaining == 0 {
            return None;
        }
        // Double the base length until a 1-in-4 stopping draw hits,
        // then spread uniformly within the reached tier.
        let mut base = 1u64;
        while base < MAX_SESSION_LEN / 2 && !self.rng.next_u64().is_multiple_of(4) {
            base *= 2;
        }
        let len = (base + self.rng.range_u64(0, base)).min(self.remaining);
        let id = self.next_id;
        self.remaining -= len;
        self.next_id += 1;
        Some(Session { id, requests: len })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic_and_sums_exactly() {
        let stream = |seed| SessionStream::new(seed, 10_000).collect::<Vec<_>>();
        let a = stream(7);
        assert_eq!(a, stream(7));
        assert_eq!(a.iter().map(|s| s.requests).sum::<u64>(), 10_000);
        assert_ne!(a, stream(8), "seed changes the stream");
    }

    #[test]
    fn lengths_are_heavy_tailed_and_bounded() {
        let sessions: Vec<Session> = SessionStream::new(3, 50_000).collect();
        let max = sessions.iter().map(|s| s.requests).max().unwrap();
        let short = sessions.iter().filter(|s| s.requests <= 8).count();
        assert!(max <= MAX_SESSION_LEN);
        assert!(max >= 64, "the tail reaches long sessions, got {max}");
        assert!(
            short * 2 > sessions.len(),
            "most sessions are short: {short}/{}",
            sessions.len()
        );
    }

    #[test]
    fn streaming_admission_matches_the_materialized_generator() {
        // A plan big enough that the stream holds over a million
        // sessions — far beyond anything worth materializing — is drawn
        // lazily and still sums to exactly its request count.
        let total = 40_000_000;
        let sessions = SessionStream::new(9, total).count();
        assert!(
            sessions >= 1_000_000,
            "heavy tail still averages short sessions: {sessions}"
        );
        let stream = SessionStream::new(9, total);
        assert_eq!(stream.map(|s| s.requests).sum::<u64>(), total);
    }

    #[test]
    fn affinity_is_a_pure_function_of_the_id() {
        let s = Session {
            id: 13,
            requests: 1,
        };
        assert_eq!(s.home_shard(4), 1);
        assert_eq!(s.home_shard(1), 0);
    }
}
