//! Deterministic fault injection (the chaos layer).
//!
//! An [`InjectionPlan`] arms tagged failure sites across the stack —
//! transient kernel errnos on gateway syscalls, WRPKRU/`pkey_mprotect`
//! failures in the MPK model, CR3-rewrite/VM-EXIT failures in the VT-x
//! model, and allocation failures during `Init`/`Transfer`. Whether a
//! given site query fires is drawn from a seeded [`XorShift`] stream,
//! so a chaos run is a pure function of its seed: two runs with the
//! same seed produce byte-identical traces.
//!
//! The plan lives inside [`crate::Clock`] — the one object already
//! threaded through every layer — and is `None` by default, so the
//! disabled path is a single branch and adds zero simulated
//! nanoseconds (the exact-cost tests prove it).

use enclosure_support::XorShift;

/// A tagged failure site. Each site models one class of hardware or
/// kernel failure; tests can arm exactly one to target it precisely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectionSite {
    /// A transient kernel errno (EAGAIN/EINTR/ENOMEM) on a gateway
    /// syscall issued from inside an enclosure.
    GatewayErrno,
    /// A WRPKRU write fails; the old PKRU value is retained.
    Wrpkru,
    /// A `pkey_mprotect` PTE re-tagging fails during an MPK transfer.
    PkeyMprotect,
    /// A guest-syscall CR3 rewrite fails; the old root is retained.
    Cr3Write,
    /// A VM EXIT (hypercall syscall proxy) fails transiently.
    VmExit,
    /// An allocation fails during `Init`.
    InitAlloc,
    /// An allocation fails during `Transfer`.
    TransferAlloc,
    /// The single charged crossing of a batched-gateway flush is lost
    /// before any entry is serviced; the batch stays queued for retry.
    BatchFlush,
    /// `fork` of a sandbox child fails transiently (EAGAIN); the
    /// enclosure has no process yet, so the switch is refused (LB_PROC).
    ProcFork,
    /// A socketpair message to a sandbox child is lost to `EPIPE`; the
    /// crossing fails before the child observes the request (LB_PROC).
    PipeEpipe,
    /// A sandbox child crashes mid-crossing; the supervisor reaps it and
    /// respawns on the next switch (LB_PROC).
    ChildCrash,
    /// A whole fleet shard crashes mid-quantum: the requests already
    /// served in the current batch stand, the rest fail over to a peer.
    /// Queried by the load balancer, never by a machine.
    ShardCrash,
    /// The balancer↔shard link partitions for one dispatch round: the
    /// shard does the work but its replies are lost, so the balancer
    /// must retry the whole batch elsewhere (at-least-once delivery).
    LbPartition,
    /// A health probe flaps: the probe reports failure although the
    /// shard is healthy. Enough consecutive flaps eject a live shard.
    ProbeFlap,
    /// A single completion is corrupted on its way back from a flush:
    /// the entry is posted with a transient errno instead of its
    /// result, so the submitter still wakes (with the errno) and its
    /// batch-mates are untouched — a completion is never silently lost.
    CompletionLost,
}

impl InjectionSite {
    /// Every site, in a stable order.
    pub const ALL: [InjectionSite; 15] = [
        InjectionSite::GatewayErrno,
        InjectionSite::Wrpkru,
        InjectionSite::PkeyMprotect,
        InjectionSite::Cr3Write,
        InjectionSite::VmExit,
        InjectionSite::InitAlloc,
        InjectionSite::TransferAlloc,
        InjectionSite::BatchFlush,
        InjectionSite::ProcFork,
        InjectionSite::PipeEpipe,
        InjectionSite::ChildCrash,
        InjectionSite::ShardCrash,
        InjectionSite::LbPartition,
        InjectionSite::ProbeFlap,
        InjectionSite::CompletionLost,
    ];

    /// The site's stable tag (used in telemetry events and tests).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            InjectionSite::GatewayErrno => "gateway_errno",
            InjectionSite::Wrpkru => "wrpkru",
            InjectionSite::PkeyMprotect => "pkey_mprotect",
            InjectionSite::Cr3Write => "cr3_write",
            InjectionSite::VmExit => "vm_exit",
            InjectionSite::InitAlloc => "init_alloc",
            InjectionSite::TransferAlloc => "transfer_alloc",
            InjectionSite::BatchFlush => "batch_flush",
            InjectionSite::ProcFork => "proc_fork",
            InjectionSite::PipeEpipe => "pipe_epipe",
            InjectionSite::ChildCrash => "child_crash",
            InjectionSite::ShardCrash => "shard_crash",
            InjectionSite::LbPartition => "lb_partition",
            InjectionSite::ProbeFlap => "probe_flap",
            InjectionSite::CompletionLost => "completion_lost",
        }
    }

    fn bit(self) -> u16 {
        match self {
            InjectionSite::GatewayErrno => 1 << 0,
            InjectionSite::Wrpkru => 1 << 1,
            InjectionSite::PkeyMprotect => 1 << 2,
            InjectionSite::Cr3Write => 1 << 3,
            InjectionSite::VmExit => 1 << 4,
            InjectionSite::InitAlloc => 1 << 5,
            InjectionSite::TransferAlloc => 1 << 6,
            InjectionSite::BatchFlush => 1 << 7,
            InjectionSite::ProcFork => 1 << 8,
            InjectionSite::PipeEpipe => 1 << 9,
            InjectionSite::ChildCrash => 1 << 10,
            InjectionSite::ShardCrash => 1 << 11,
            InjectionSite::LbPartition => 1 << 12,
            InjectionSite::ProbeFlap => 1 << 13,
            InjectionSite::CompletionLost => 1 << 14,
        }
    }
}

/// One part per million; rates are expressed in ppm so small failure
/// probabilities stay integral (and deterministic).
pub const PPM: u64 = 1_000_000;

/// A seeded, deterministic plan arming a set of [`InjectionSite`]s.
#[derive(Debug, Clone)]
pub struct InjectionPlan {
    rng: XorShift,
    rate_ppm: u64,
    sites: u16,
    fired: u64,
    budget: Option<u64>,
}

impl InjectionPlan {
    /// Arms *every* site with the given per-query failure rate
    /// (in parts per million).
    #[must_use]
    pub fn new(seed: u64, rate_ppm: u64) -> InjectionPlan {
        InjectionPlan {
            rng: XorShift::new(seed),
            rate_ppm: rate_ppm.min(PPM),
            sites: InjectionSite::ALL.iter().fold(0, |m, s| m | s.bit()),
            fired: 0,
            budget: None,
        }
    }

    /// Arms only the given sites.
    #[must_use]
    pub fn with_sites(mut self, sites: &[InjectionSite]) -> InjectionPlan {
        self.sites = sites.iter().fold(0, |m, s| m | s.bit());
        self
    }

    /// A plan that fires exactly once, at `site`, on the first query —
    /// the surgical mode the containment property tests use.
    #[must_use]
    pub fn once(site: InjectionSite) -> InjectionPlan {
        InjectionPlan::new(1, PPM)
            .with_sites(&[site])
            .with_budget(1)
    }

    /// Caps the total number of failures the plan may produce.
    #[must_use]
    pub fn with_budget(mut self, budget: u64) -> InjectionPlan {
        self.budget = Some(budget);
        self
    }

    /// True if `site` is armed (regardless of rate/budget).
    #[must_use]
    pub fn arms(&self, site: InjectionSite) -> bool {
        self.sites & site.bit() != 0
    }

    /// Total failures produced so far.
    #[must_use]
    pub fn fired(&self) -> u64 {
        self.fired
    }

    /// Decides whether a query at `site` fails. Consumes one PRNG draw
    /// per armed query, so the decision stream is a pure function of
    /// the seed and the (deterministic) execution order.
    pub fn should_fail(&mut self, site: InjectionSite) -> bool {
        if !self.arms(site) {
            return false;
        }
        if self.budget.is_some_and(|b| self.fired >= b) {
            return false;
        }
        if self.rng.next_u64() % PPM < self.rate_ppm {
            self.fired += 1;
            true
        } else {
            false
        }
    }

    /// A deterministic draw in `[0, n)` for callers that need to pick
    /// *which* failure to produce (e.g. which transient errno).
    pub fn roll(&mut self, n: u64) -> u64 {
        self.rng.range_u64(0, n.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_decisions() {
        let mut a = InjectionPlan::new(7, 250_000);
        let mut b = InjectionPlan::new(7, 250_000);
        for _ in 0..1000 {
            assert_eq!(
                a.should_fail(InjectionSite::GatewayErrno),
                b.should_fail(InjectionSite::GatewayErrno)
            );
        }
        assert_eq!(a.fired(), b.fired());
        assert!(a.fired() > 0, "a 25% rate fires within 1000 queries");
    }

    #[test]
    fn once_fires_exactly_once_at_its_site() {
        let mut p = InjectionPlan::once(InjectionSite::Wrpkru);
        assert!(!p.should_fail(InjectionSite::Cr3Write), "unarmed site");
        assert!(p.should_fail(InjectionSite::Wrpkru));
        assert!(!p.should_fail(InjectionSite::Wrpkru), "budget exhausted");
        assert_eq!(p.fired(), 1);
    }

    #[test]
    fn site_filter_restricts_firing() {
        let mut p = InjectionPlan::new(3, PPM).with_sites(&[InjectionSite::VmExit]);
        for site in InjectionSite::ALL {
            assert_eq!(
                p.should_fail(site),
                site == InjectionSite::VmExit,
                "{site:?}"
            );
        }
    }

    #[test]
    fn zero_rate_never_fires() {
        let mut p = InjectionPlan::new(9, 0);
        for _ in 0..100 {
            assert!(!p.should_fail(InjectionSite::GatewayErrno));
        }
    }

    #[test]
    fn site_names_are_stable_and_distinct() {
        let names: Vec<_> = InjectionSite::ALL.iter().map(|s| s.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }
}
