//! Telemetry for the enclosure stack: typed events, always-on counters,
//! and cost attribution by `{enclosure, package, environment}`.
//!
//! Every layer of the simulator reports here — the LitterBox API
//! surface, the hardware primitives (WRPKRU, CR3 rewrites, VM EXITs,
//! `pkey_mprotect`), the kernel's syscall entry and seccomp verdicts,
//! and both language frontends. One [`Recorder`] rides inside the
//! simulated [`Clock`](../enclosure_hw/struct.Clock.html), so every
//! component that can advance simulated time can also record what it
//! did, and the paper's attribution claims (§6.4's switch counts and
//! init/syscall shares, Tables 1–2's operation counts) fall out of the
//! counters instead of per-experiment bookkeeping.
//!
//! Design:
//! * [`Counters`] — fixed-cost, always-on monotonic counters; the
//!   source of truth for every report.
//! * [`Event`] — the typed event stream; buffered only when tracing is
//!   enabled ([`Recorder::enable_trace`]) in a bounded ring;
//!   [`Recorder::arm_trace`] and [`Recorder::dump_trace`] are the
//!   `--trace[=N]` pair that arms it and prints a fault's lead-up.
//! * span tree — [`Recorder::begin_span`]/[`Recorder::end_span`]
//!   bracket enclosure entry/exit and attribute simulated nanoseconds
//!   to a [`SpanScope`], splitting self-time from nested-enclosure
//!   time. Every span carries a [`SpanId`] and a parent link; with the
//!   opt-in span log ([`Recorder::enable_span_log`]) the recorder
//!   keeps the whole well-nested tree ([`SpanNode`]) for export.
//! * tracks — [`Recorder::switch_track`]/[`Recorder::note_env`] slice
//!   simulated time per (goroutine track, environment) pair across
//!   scheduler preemption and `Execute` handoffs ([`TrackCost`]).
//! * histograms — [`Histogram`] is a log-bucketed HDR-style sketch;
//!   [`Recorder::record_op`] keeps per-operation cost distributions
//!   (switches, `pkey_mprotect` sweeps, key evictions).
//! * exporters — [`chrome_trace`] (Perfetto / `chrome://tracing`
//!   JSON, one track per goroutine) and [`folded_stacks`] (flamegraph
//!   text) serialize the span tree.
//! * time series — [`Recorder::enable_series`] cuts every ledger above
//!   into fixed-width [`MetricsWindow`]s on the simulated clock, held
//!   in a bounded [`WindowRing`]; an [`SloPolicy`] evaluates each
//!   window close with multi-window burn-rate alerting, and an armed
//!   flight recorder freezes the recent windows + event ring into a
//!   [`FlightRecording`] on the first fault/chaos/breaker event.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod export;
mod hist;
mod recorder;
mod series;
mod slo;

pub use event::Event;
pub use export::{chrome_trace, folded_stacks};
pub use hist::Histogram;
pub use recorder::{
    Counters, Recorder, SpanCost, SpanId, SpanNode, SpanScope, TracedEvent, TrackCost, MAIN_TRACK,
};
pub use series::{MetricsWindow, Series, WindowRing, DEFAULT_RING_CAP, DEFAULT_WINDOW_NS};
pub use slo::{
    is_flight_trigger, BurnState, FlightRecording, SloPolicy, FAST_WINDOWS, SLOW_WINDOWS,
};
