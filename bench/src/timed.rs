//! `Timed<W>`: a [`Workload`] that wraps a fleet application and times
//! every call the balancer makes into it, from outside the program. It
//! forwards each call unchanged, so a fleet of `Timed<W>` produces the
//! same report bytes as a fleet of `W` (the traced run checks this).
//!
//! `Workload::build` is an associated function with no receiver, so
//! the log is process-wide: [`trace`] holds a lock for the whole traced
//! run, and only one traced fleet runs at a time.

use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use enclosure_apps::httpd::ServeStats;
use enclosure_fleet::Workload;
use enclosure_hw::HwStats;
use enclosure_telemetry::Histogram;
use litterbox::{Backend, Fault, LitterBox};

/// What the wrappers saw during one traced run.
#[derive(Debug, Default)]
pub struct CallLog {
    /// Host duration of every `Workload::build` (spawns and respawns).
    pub builds: Vec<Duration>,
    /// Host `[start, end)` of every `Workload::serve`.
    pub serves: Vec<(Instant, Instant)>,
    /// Backend, final hardware counters and simulated clock of every
    /// machine, taken when the machine is dropped (crash or end of run).
    pub machines: Vec<(Backend, HwStats, u64)>,
}

static LOG: Mutex<CallLog> = Mutex::new(CallLog {
    builds: Vec::new(),
    serves: Vec::new(),
    machines: Vec::new(),
});
static TRACE: Mutex<()> = Mutex::new(());

fn log() -> MutexGuard<'static, CallLog> {
    // A panic inside a traced serve poisons the lock; the log is only
    // appended to, so it stays valid.
    LOG.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Runs `f` as the only traced run in the process and returns its result
/// with everything the wrappers logged while it ran.
pub fn trace<T>(f: impl FnOnce() -> T) -> (T, CallLog) {
    let _only = TRACE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    *log() = CallLog::default();
    let out = f();
    (out, std::mem::take(&mut *log()))
}

/// The timing wrapper.
pub struct Timed<W: Workload>(W);

impl<W: Workload> Workload for Timed<W> {
    fn build(backend: Backend) -> Result<Self, Fault> {
        let start = Instant::now();
        let app = W::build(backend)?;
        log().builds.push(start.elapsed());
        Ok(Timed(app))
    }

    fn serve(&mut self, n: u64) -> Result<ServeStats, Fault> {
        let start = Instant::now();
        let out = self.0.serve(n);
        let end = Instant::now();
        log().serves.push((start, end));
        out
    }

    fn latency(&self) -> Histogram {
        self.0.latency()
    }

    fn lb(&self) -> &LitterBox {
        self.0.lb()
    }

    fn lb_mut(&mut self) -> &mut LitterBox {
        self.0.lb_mut()
    }
}

impl<W: Workload> Drop for Timed<W> {
    fn drop(&mut self) {
        let lb = self.0.lb();
        log().machines.push((lb.backend(), lb.stats(), lb.now_ns()));
    }
}
