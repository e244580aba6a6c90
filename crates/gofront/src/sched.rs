//! Goroutines, channels, and the cooperative scheduler state (§5.1).
//!
//! Goroutines are *step functions*: the scheduler calls them repeatedly,
//! and each call runs one quantum and returns [`Step::Yield`] (reschedule
//! me) or [`Step::Done`]. Channel operations are non-blocking; a goroutine
//! that finds a channel full/empty yields and retries — the cooperative
//! equivalent of blocking. Each goroutine carries the
//! [`litterbox::EnvContext`] it was spawned in, inherited from its
//! creator, and the scheduler switches protection contexts with
//! LitterBox's `Execute` hook.
//!
//! Neither table grows with a long-running program. A scheduler run
//! that ends with every goroutine finished retires their slots, so the
//! next run starts again from slot 0; goroutine ids stay monotonic
//! through a base offset. A channel lives until its creator drops it
//! ([`crate::GoRuntime::drop_chan`]), never implicitly: a driver may
//! read a channel after the run that filled it.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use litterbox::{CompletionToken, EnvContext, Fault};

use crate::runtime::GoCtx;
use crate::value::GoValue;

/// Identifier of a channel. Ids are never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChanId(pub(crate) usize);

/// Identifier of a goroutine, unique over the runtime's lifetime (the
/// `g{id}` of the flight-recorder and trace rings).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GoroutineId(pub(crate) usize);

/// Entry counts of the scheduler's tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedSizes {
    /// Goroutine slots held by the current run.
    pub goroutines: usize,
    /// Channels not yet dropped.
    pub channels: usize,
}

/// What a goroutine quantum reports back to the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Run me again later (possibly blocked on a channel).
    Yield,
    /// Park until the completion-driven gateway posts this token's
    /// completion: the scheduler removes the goroutine from the run
    /// queue and wakes it after the flush that services its entry. A
    /// token that is already complete when the quantum ends skips the
    /// park and the goroutine stays runnable.
    Park(CompletionToken),
    /// This goroutine is finished.
    Done,
}

/// Result of a non-blocking channel receive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recv {
    /// A value was dequeued.
    Value(GoValue),
    /// The channel is empty but open — yield and retry.
    Empty,
    /// The channel is empty and closed — no more values will arrive.
    Closed,
}

#[derive(Debug)]
pub(crate) struct Channel {
    queue: VecDeque<GoValue>,
    cap: usize,
    closed: bool,
}

/// The body of a goroutine: one scheduling quantum per call. `Send` so
/// a runtime (and the fleet shard owning it) can move across worker
/// threads between quanta.
pub type GoroutineFn = Box<dyn FnMut(&mut GoCtx<'_>) -> Result<Step, Fault> + Send>;

pub(crate) struct Goroutine {
    pub name: String,
    pub ctx: EnvContext,
    pub f: GoroutineFn,
}

impl fmt::Debug for Goroutine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Goroutine")
            .field("name", &self.name)
            .field("env", &self.ctx.env())
            .finish_non_exhaustive()
    }
}

/// Scheduler bookkeeping: channels, goroutines, and the run queue.
/// The run queue and the parked set hold slots into `goroutines`.
#[derive(Debug, Default)]
pub(crate) struct Scheduler {
    channels: BTreeMap<usize, Channel>,
    next_chan: usize,
    pub goroutines: Vec<Option<Goroutine>>,
    /// Goroutines retired by earlier runs: slot `s` of this run holds
    /// goroutine `base + s`.
    base: usize,
    pub runq: VecDeque<usize>,
    /// Goroutines parked on a pending completion token, in park order.
    /// They hold their slot in `goroutines` but are absent from `runq`
    /// until a flush posts their completion and the scheduler wakes
    /// them (FIFO over the parked set).
    pub parked: Vec<(usize, CompletionToken)>,
    /// Set by successful channel ops and completions; cleared each round
    /// to detect deadlock.
    pub progress: bool,
}

impl Scheduler {
    pub fn make_chan(&mut self, cap: usize) -> ChanId {
        let id = self.next_chan;
        self.next_chan += 1;
        self.channels.insert(
            id,
            Channel {
                queue: VecDeque::new(),
                cap: cap.max(1),
                closed: false,
            },
        );
        ChanId(id)
    }

    pub fn drop_chan(&mut self, ch: ChanId) {
        self.channels.remove(&ch.0);
    }

    fn chan_mut(&mut self, ch: ChanId) -> Result<&mut Channel, Fault> {
        self.channels
            .get_mut(&ch.0)
            .ok_or_else(|| Fault::Init(format!("unknown channel {ch:?}")))
    }

    pub fn try_send(&mut self, ch: ChanId, value: GoValue) -> Result<bool, Fault> {
        let chan = self.chan_mut(ch)?;
        if chan.closed {
            return Err(Fault::Init("send on closed channel".into()));
        }
        if chan.queue.len() >= chan.cap {
            return Ok(false);
        }
        chan.queue.push_back(value);
        self.progress = true;
        Ok(true)
    }

    pub fn try_recv(&mut self, ch: ChanId) -> Result<Recv, Fault> {
        let chan = self.chan_mut(ch)?;
        match chan.queue.pop_front() {
            Some(v) => {
                self.progress = true;
                Ok(Recv::Value(v))
            }
            None if chan.closed => Ok(Recv::Closed),
            None => Ok(Recv::Empty),
        }
    }

    pub fn close_chan(&mut self, ch: ChanId) -> Result<(), Fault> {
        self.chan_mut(ch)?.closed = true;
        self.progress = true;
        Ok(())
    }

    pub fn spawn(&mut self, name: String, ctx: EnvContext, f: GoroutineFn) -> GoroutineId {
        let slot = self.goroutines.len();
        self.goroutines.push(Some(Goroutine { name, ctx, f }));
        self.runq.push_back(slot);
        self.progress = true;
        GoroutineId(self.base + slot)
    }

    /// The lifetime id of the goroutine in `slot`, as events print it.
    pub fn id_of(&self, slot: usize) -> u64 {
        (self.base + slot) as u64
    }

    /// Frees the slots of a run in which every goroutine finished; the
    /// next run starts again from slot 0.
    pub fn retire_finished(&mut self) {
        debug_assert!(
            self.goroutines.iter().all(Option::is_none),
            "a goroutine outlived its run"
        );
        self.base += self.goroutines.len();
        self.goroutines.clear();
    }

    pub fn pending(&self) -> usize {
        self.runq.len()
    }

    pub fn sizes(&self) -> SchedSizes {
        SchedSizes {
            goroutines: self.goroutines.len(),
            channels: self.channels.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_fifo_and_capacity() {
        let mut s = Scheduler::default();
        let ch = s.make_chan(2);
        assert!(s.try_send(ch, GoValue::Int(1)).unwrap());
        assert!(s.try_send(ch, GoValue::Int(2)).unwrap());
        assert!(!s.try_send(ch, GoValue::Int(3)).unwrap(), "full");
        assert_eq!(s.try_recv(ch).unwrap(), Recv::Value(GoValue::Int(1)));
        assert!(s.try_send(ch, GoValue::Int(3)).unwrap());
    }

    #[test]
    fn closed_channel_semantics() {
        let mut s = Scheduler::default();
        let ch = s.make_chan(4);
        s.try_send(ch, GoValue::Int(1)).unwrap();
        s.close_chan(ch).unwrap();
        assert_eq!(s.try_recv(ch).unwrap(), Recv::Value(GoValue::Int(1)));
        assert_eq!(s.try_recv(ch).unwrap(), Recv::Closed);
        assert!(s.try_send(ch, GoValue::Int(2)).is_err());
    }

    #[test]
    fn empty_open_channel_reports_empty() {
        let mut s = Scheduler::default();
        let ch = s.make_chan(1);
        assert_eq!(s.try_recv(ch).unwrap(), Recv::Empty);
    }

    #[test]
    fn unknown_channel_is_an_error() {
        let mut s = Scheduler::default();
        assert!(s.try_recv(ChanId(9)).is_err());
        assert!(s.try_send(ChanId(9), GoValue::Unit).is_err());
    }

    #[test]
    fn dropped_channels_free_their_entry_and_ids_stay_unique() {
        let mut s = Scheduler::default();
        let a = s.make_chan(1);
        s.drop_chan(a);
        assert!(s.try_recv(a).is_err(), "a dropped channel is gone");
        let b = s.make_chan(1);
        assert_ne!(a, b, "ids are never reused");
        assert_eq!(s.sizes().channels, 1);
    }
}
