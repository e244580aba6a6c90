//! The batched syscall gateway's data plane: an io_uring-style
//! submission/completion ring.
//!
//! Goroutines *enqueue* typed syscall descriptors instead of crossing
//! into the kernel one call at a time; at a flush point (a switch
//! barrier, the scheduler's idle drain, or an explicit flush) the whole
//! batch is serviced in submission order against the [`Kernel`], each
//! entry taken off the queue in place. The ring itself is pure
//! bookkeeping — it charges nothing and filters nothing. Gating,
//! crossing amortization, and fault injection live in LitterBox's batch
//! gateway, which drives [`service`] per entry once the (single) charged
//! crossing for the batch has been paid.
//!
//! Completions are delivered in submission order, so per-submitter FIFO
//! ordering holds by construction, and every completion carries its own
//! `Result` — one entry failing with an errno never poisons the rest of
//! the batch (containment).

use std::collections::VecDeque;

use enclosure_hw::Clock;

use crate::fs::OpenFlags;
use crate::kernel::{Kernel, SyscallRecord};
use crate::{Errno, Sysno};

/// A typed syscall descriptor a goroutine can enqueue. Descriptors carry
/// their payloads (paths, buffers) because the batch is serviced after
/// the submitter's quantum may have ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchOp {
    /// `getuid`.
    Getuid,
    /// `getpid`.
    Getpid,
    /// `clock_gettime`.
    ClockGettime,
    /// `nanosleep(ns)`.
    Nanosleep(u64),
    /// `futex` wait/wake.
    Futex,
    /// `open(path, flags)`.
    Open {
        /// Path to open.
        path: String,
        /// Open mode.
        flags: OpenFlags,
    },
    /// `read(fd, len)`.
    Read {
        /// Source fd.
        fd: u32,
        /// Bytes requested.
        len: usize,
    },
    /// `close(fd)`.
    Close {
        /// The fd to close.
        fd: u32,
    },
    /// `send(fd, data)`.
    Send {
        /// The socket fd.
        fd: u32,
        /// Payload.
        data: Vec<u8>,
    },
}

impl BatchOp {
    /// The syscall number this descriptor resolves to.
    #[must_use]
    pub fn sysno(&self) -> Sysno {
        match self {
            BatchOp::Getuid => Sysno::Getuid,
            BatchOp::Getpid => Sysno::Getpid,
            BatchOp::ClockGettime => Sysno::ClockGettime,
            BatchOp::Nanosleep(_) => Sysno::Nanosleep,
            BatchOp::Futex => Sysno::Futex,
            BatchOp::Open { .. } => Sysno::Open,
            BatchOp::Read { .. } => Sysno::Read,
            BatchOp::Close { .. } => Sysno::Close,
            BatchOp::Send { .. } => Sysno::Sendto,
        }
    }

    /// The descriptor as the filtering layer sees it (`seccomp_data`
    /// shape) — argument words laid out exactly like the synchronous
    /// gateway's records, so one policy governs both paths.
    #[must_use]
    pub fn record(&self) -> SyscallRecord {
        let sysno = self.sysno();
        match self {
            BatchOp::Open { flags, .. } => SyscallRecord::open(*flags),
            BatchOp::Read { fd, len } => SyscallRecord::fd_len(sysno, *fd, *len),
            BatchOp::Send { fd, data } => SyscallRecord::fd_len(sysno, *fd, data.len()),
            BatchOp::Close { fd } => SyscallRecord::fd(sysno, *fd),
            BatchOp::Getuid
            | BatchOp::Getpid
            | BatchOp::ClockGettime
            | BatchOp::Nanosleep(_)
            | BatchOp::Futex => SyscallRecord::new(sysno),
        }
    }
}

/// What a serviced entry returned (the success half of a completion).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchReply {
    /// Nothing beyond success (`close`, `bind`, `nanosleep`, …).
    Unit,
    /// A number (`getuid`, `getpid`, `clock_gettime`, write/send length).
    Num(u64),
    /// A new file descriptor (`open`, `socket`, `accept`).
    Fd(u32),
    /// Bytes read (`read`, `recv`).
    Bytes(Vec<u8>),
}

/// A submitted entry awaiting service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Submission {
    /// Ring-global sequence number (submission order).
    pub seq: u64,
    /// The submitting track (goroutine id + 1, or 0 for the main track).
    pub submitter: u64,
    /// The descriptor.
    pub op: BatchOp,
}

/// A serviced entry: its identity plus its own isolated result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// The submission's sequence number.
    pub seq: u64,
    /// The submitting track.
    pub submitter: u64,
    /// The syscall number serviced.
    pub sysno: Sysno,
    /// This entry's result. An `Err` here is *contained*: it never
    /// affects sibling entries in the same batch.
    pub result: Result<BatchReply, Errno>,
}

/// The submission/completion ring. One ring per machine; per-enclosure
/// barriers (a batch never mixes environments) are enforced by the
/// gateway layer that owns it, not here.
#[derive(Debug, Default)]
pub struct SyscallRing {
    sq: VecDeque<Submission>,
    cq: VecDeque<Completion>,
    next_seq: u64,
}

impl SyscallRing {
    /// An empty ring.
    #[must_use]
    pub fn new() -> SyscallRing {
        SyscallRing::default()
    }

    /// Enqueues a descriptor; returns its sequence number.
    pub fn enqueue(&mut self, submitter: u64, op: BatchOp) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.sq.push_back(Submission { seq, submitter, op });
        seq
    }

    /// Entries waiting to be flushed.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.sq.len()
    }

    /// Completions waiting to be reaped.
    #[must_use]
    pub fn completed(&self) -> usize {
        self.cq.len()
    }

    /// Takes the oldest queued submission: a flush services the queue
    /// in place, in submission order, one entry at a time.
    pub fn pop_submission(&mut self) -> Option<Submission> {
        self.sq.pop_front()
    }

    /// Posts a completion.
    pub fn complete(&mut self, completion: Completion) {
        self.cq.push_back(completion);
    }

    /// Reaps all pending completions, in service (= submission) order.
    pub fn take_completions(&mut self) -> Vec<Completion> {
        self.cq.drain(..).collect()
    }

    /// True if the entry with sequence number `seq` has been serviced
    /// and its completion is waiting to be reaped. The parking check:
    /// a completion-driven submitter polls this to decide whether to
    /// wake.
    #[must_use]
    pub fn is_completed(&self, seq: u64) -> bool {
        self.cq.iter().any(|c| c.seq == seq)
    }

    /// Reaps exactly the completion for `seq`, if posted. A second call
    /// for the same `seq` returns `None` — completions are delivered at
    /// most once.
    pub fn take_completion(&mut self, seq: u64) -> Option<Completion> {
        let idx = self.cq.iter().position(|c| c.seq == seq)?;
        self.cq.remove(idx)
    }

    /// Reaps all of `submitter`'s posted completions, preserving their
    /// service (= submission) order; other submitters' completions stay
    /// queued.
    pub fn take_completions_for(&mut self, submitter: u64) -> Vec<Completion> {
        // One lap of the queue in place: each completion leaves the
        // front and either goes to `taken` or rejoins at the back, so
        // the kept ones stay in order and the queue never regrows.
        let mut taken = Vec::new();
        for _ in 0..self.cq.len() {
            let Some(c) = self.cq.pop_front() else { break };
            if c.submitter == submitter {
                taken.push(c);
            } else {
                self.cq.push_back(c);
            }
        }
        taken
    }
}

/// Services one descriptor against the kernel. Charges exactly what the
/// synchronous entry point for the same syscall charges (the generic
/// kernel crossing plus the per-call service cost) — the *gateway*
/// crossing (VM EXIT / seccomp evaluation) is what batching amortizes,
/// and that is charged once per batch by the caller, not here.
pub fn service(kernel: &mut Kernel, clock: &mut Clock, op: &BatchOp) -> Result<BatchReply, Errno> {
    match op {
        BatchOp::Getuid => Ok(BatchReply::Num(u64::from(kernel.getuid(clock)))),
        BatchOp::Getpid => Ok(BatchReply::Num(u64::from(kernel.getpid(clock)))),
        BatchOp::ClockGettime => Ok(BatchReply::Num(kernel.clock_gettime(clock))),
        BatchOp::Nanosleep(ns) => {
            kernel.nanosleep(clock, *ns);
            Ok(BatchReply::Unit)
        }
        BatchOp::Futex => {
            kernel.futex(clock);
            Ok(BatchReply::Unit)
        }
        BatchOp::Open { path, flags } => kernel.open(clock, path, *flags).map(BatchReply::Fd),
        BatchOp::Read { fd, len } => kernel.read(clock, *fd, *len).map(BatchReply::Bytes),
        BatchOp::Close { fd } => kernel.close(clock, *fd).map(|()| BatchReply::Unit),
        BatchOp::Send { fd, data } => kernel
            .send(clock, *fd, data)
            .map(|n| BatchReply::Num(n as u64)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enclosure_hw::CostModel;

    fn clock() -> Clock {
        Clock::new(CostModel::paper())
    }

    #[test]
    fn ring_preserves_submission_order() {
        let mut ring = SyscallRing::new();
        ring.enqueue(1, BatchOp::Getuid);
        ring.enqueue(2, BatchOp::Getpid);
        ring.enqueue(1, BatchOp::Futex);
        let subs: Vec<Submission> = std::iter::from_fn(|| ring.pop_submission()).collect();
        assert_eq!(subs.len(), 3);
        assert_eq!(subs[0].seq, 0);
        assert_eq!(subs[2].seq, 2);
        assert_eq!(ring.pending(), 0);
    }

    #[test]
    fn service_matches_synchronous_entry_costs() {
        // A batched getuid pays the kernel crossing (387 ns) but not the
        // gateway crossing — amortization happens above this layer.
        let mut k = Kernel::new();
        let mut c = clock();
        let reply = service(&mut k, &mut c, &BatchOp::Getuid).unwrap();
        assert_eq!(reply, BatchReply::Num(1000));
        assert_eq!(c.now_ns(), 387);
    }

    #[test]
    fn an_entry_errno_is_isolated_to_its_completion() {
        let mut k = Kernel::new();
        let mut c = clock();
        let mut ring = SyscallRing::new();
        ring.enqueue(7, BatchOp::Close { fd: 999 }); // EBADF
        ring.enqueue(7, BatchOp::Getpid);
        while let Some(sub) = ring.pop_submission() {
            let result = service(&mut k, &mut c, &sub.op);
            ring.complete(Completion {
                seq: sub.seq,
                submitter: sub.submitter,
                sysno: sub.op.sysno(),
                result,
            });
        }
        let done = ring.take_completions();
        assert_eq!(done[0].result, Err(Errno::Ebadf));
        assert_eq!(done[1].result, Ok(BatchReply::Num(4242)));
    }

    /// Every descriptor's record, word for word: the layout
    /// `LitterBox::sys_*` gates for the same call, so a policy that
    /// inspects an argument sees it on both paths.
    #[test]
    fn records_pin_every_op_layout() {
        let flags = OpenFlags::write_create();
        let record = |sysno, args| SyscallRecord { sysno, args };
        let cases = [
            (BatchOp::Getuid, record(Sysno::Getuid, [0; 6])),
            (BatchOp::Getpid, record(Sysno::Getpid, [0; 6])),
            (BatchOp::ClockGettime, record(Sysno::ClockGettime, [0; 6])),
            (BatchOp::Nanosleep(500), record(Sysno::Nanosleep, [0; 6])),
            (BatchOp::Futex, record(Sysno::Futex, [0; 6])),
            (
                BatchOp::Open {
                    path: "/tmp/x".into(),
                    flags,
                },
                record(Sysno::Open, [0, flags.to_bits(), 0, 0, 0, 0]),
            ),
            (
                BatchOp::Read { fd: 4, len: 64 },
                record(Sysno::Read, [4, 0, 64, 0, 0, 0]),
            ),
            (
                BatchOp::Close { fd: 6 },
                record(Sysno::Close, [6, 0, 0, 0, 0, 0]),
            ),
            (
                BatchOp::Send {
                    fd: 3,
                    data: vec![0; 100],
                },
                record(Sysno::Sendto, [3, 0, 100, 0, 0, 0]),
            ),
        ];
        for (op, expected) in cases {
            assert_eq!(op.record(), expected, "{op:?}");
        }
    }

    #[test]
    fn per_seq_and_per_submitter_reaping_is_exact() {
        let mut k = Kernel::new();
        let mut c = clock();
        let mut ring = SyscallRing::new();
        let a = ring.enqueue(1, BatchOp::Getuid);
        let b = ring.enqueue(2, BatchOp::Getpid);
        let d = ring.enqueue(1, BatchOp::Futex);
        while let Some(sub) = ring.pop_submission() {
            let result = service(&mut k, &mut c, &sub.op);
            ring.complete(Completion {
                seq: sub.seq,
                submitter: sub.submitter,
                sysno: sub.op.sysno(),
                result,
            });
        }
        assert!(ring.is_completed(a) && ring.is_completed(b) && ring.is_completed(d));
        let taken = ring.take_completion(b).unwrap();
        assert_eq!(taken.submitter, 2);
        assert!(ring.take_completion(b).is_none(), "at-most-once delivery");
        let ones = ring.take_completions_for(1);
        assert_eq!(
            ones.iter().map(|c| c.seq).collect::<Vec<_>>(),
            vec![a, d],
            "per-submitter FIFO preserved"
        );
        assert_eq!(ring.completed(), 0);
    }

    enclosure_support::props! {
        /// No completion is lost or duplicated, and each submitter's
        /// completions come back in its own submission order (FIFO per
        /// goroutine), for any interleaving of submitters and ops.
        fn completions_are_exact_and_fifo_per_submitter(rng, cases = 32) {
            let mut k = Kernel::new();
            let mut c = clock();
            let mut ring = SyscallRing::new();
            let n = rng.range_usize(1, 24);
            let mut expected: Vec<(u64, u64)> = Vec::new(); // (submitter, seq)
            for _ in 0..n {
                let submitter = rng.range_u64(1, 4);
                let op = match rng.range_u64(0, 4) {
                    0 => BatchOp::Getuid,
                    1 => BatchOp::Getpid,
                    2 => BatchOp::Futex,
                    _ => BatchOp::Close { fd: 999 }, // always EBADF: errno path
                };
                let seq = ring.enqueue(submitter, op);
                expected.push((submitter, seq));
            }
            while let Some(sub) = ring.pop_submission() {
                let result = service(&mut k, &mut c, &sub.op);
                ring.complete(Completion {
                    seq: sub.seq,
                    submitter: sub.submitter,
                    sysno: sub.op.sysno(),
                    result,
                });
            }
            let done = ring.take_completions();
            assert_eq!(done.len(), n, "no lost or duplicated completions");
            let mut seen = std::collections::BTreeSet::new();
            for comp in &done {
                assert!(seen.insert(comp.seq), "duplicate seq {}", comp.seq);
            }
            // FIFO per submitter: the completion order restricted to one
            // submitter equals that submitter's submission order.
            for submitter in 1..4 {
                let completed: Vec<u64> = done
                    .iter()
                    .filter(|comp| comp.submitter == submitter)
                    .map(|comp| comp.seq)
                    .collect();
                let submitted: Vec<u64> = expected
                    .iter()
                    .filter(|(s, _)| *s == submitter)
                    .map(|(_, seq)| *seq)
                    .collect();
                assert_eq!(completed, submitted, "submitter {submitter}");
            }
        }

        /// Reaping one submitter takes exactly its completions, in
        /// order, and leaves every other completion queued in order.
        fn reaping_one_submitter_keeps_the_rest_in_order(rng, cases = 32) {
            let mut ring = SyscallRing::new();
            let mut submitted: Vec<(u64, u64)> = Vec::new(); // (submitter, seq)
            for _ in 0..rng.range_usize(0, 24) {
                let submitter = rng.range_u64(1, 4);
                submitted.push((submitter, ring.enqueue(submitter, BatchOp::Getuid)));
            }
            while let Some(sub) = ring.pop_submission() {
                ring.complete(Completion {
                    seq: sub.seq,
                    submitter: sub.submitter,
                    sysno: sub.op.sysno(),
                    result: Ok(BatchReply::Unit),
                });
            }
            let who = rng.range_u64(1, 4);
            let seqs = |done: Vec<Completion>| done.iter().map(|c| c.seq).collect::<Vec<_>>();
            let of = |mine: bool| -> Vec<u64> {
                submitted
                    .iter()
                    .filter(|(s, _)| (*s == who) == mine)
                    .map(|(_, seq)| *seq)
                    .collect()
            };
            assert_eq!(seqs(ring.take_completions_for(who)), of(true));
            assert_eq!(seqs(ring.take_completions()), of(false));
        }
    }
}
