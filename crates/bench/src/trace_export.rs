//! Trace export: runs the wiki workload with the span log armed and
//! renders the recorded span tree in a profiler-loadable format.
//!
//! Two formats are supported:
//!
//! * **Chrome trace-event JSON** — loads in Perfetto or
//!   `chrome://tracing`; one track (thread) per goroutine, with the
//!   scheduler quanta as the outer spans and enclosure entries nested
//!   inside them;
//! * **folded stacks** — `track;outer;inner self_ns` lines, the input
//!   format of `flamegraph.pl`, so the §6.4 breakdown can be rendered
//!   as a flamegraph.
//!
//! Everything runs in simulated time, so two exports of the same
//! workload are byte-identical.

use enclosure_apps::wiki::WikiApp;
use enclosure_telemetry::{chrome_trace, folded_stacks, Recorder};
use litterbox::{Backend, Fault};

/// Requests `repro trace-export --quick` serves.
pub const QUICK_REQUESTS: u64 = 20;

/// Requests the full export serves: the span log grows with the
/// workload, so even the full export stays bounded.
pub const FULL_REQUESTS: u64 = 100;

/// The export format selected by `repro trace-export --format=`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// Chrome trace-event JSON (Perfetto / `chrome://tracing`).
    Chrome,
    /// Folded-stack lines for `flamegraph.pl`.
    Folded,
}

impl TraceFormat {
    /// Parses a `--format=` value.
    #[must_use]
    pub fn parse(text: &str) -> Option<TraceFormat> {
        match text {
            "chrome" => Some(TraceFormat::Chrome),
            "folded" => Some(TraceFormat::Folded),
            _ => None,
        }
    }
}

/// Serves `requests` wiki requests under `backend` with the span log
/// armed and returns the recorder, its last track slice closed.
///
/// # Errors
///
/// Workload faults.
pub fn traced_wiki(backend: Backend, requests: u64) -> Result<Recorder, Fault> {
    let mut app = WikiApp::new(backend)?;
    {
        let lb = app.runtime_mut().lb_mut();
        lb.clock_mut().reset();
        lb.telemetry_mut().enable_span_log();
    }
    app.serve_requests(requests)?;
    let lb = app.runtime_mut().lb_mut();
    let now = lb.now_ns();
    lb.telemetry_mut().flush_tracks(now);
    Ok(lb.telemetry().clone())
}

/// Runs the wiki workload under `backend` with the span log armed and
/// returns the export text.
///
/// # Errors
///
/// Workload faults.
pub fn export_wiki(backend: Backend, requests: u64, format: TraceFormat) -> Result<String, Fault> {
    let rec = traced_wiki(backend, requests)?;
    Ok(match format {
        TraceFormat::Chrome => chrome_trace(&rec).to_pretty(),
        TraceFormat::Folded => folded_stacks(&rec),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_export_has_goroutine_tracks() {
        let text = export_wiki(Backend::Mpk, 5, TraceFormat::Chrome).unwrap();
        assert!(text.contains("\"traceEvents\""));
        assert!(text.contains("wiki-server"), "server goroutine track");
        assert!(text.contains("pq-proxy"), "proxy goroutine track");
        assert!(text.contains("\"ph\": \"B\"") || text.contains("\"ph\":\"B\""));
    }

    #[test]
    fn folded_export_aggregates_stacks() {
        let text = export_wiki(Backend::Mpk, 5, TraceFormat::Folded).unwrap();
        assert!(!text.is_empty());
        for line in text.lines() {
            let (stack, ns) = line.rsplit_once(' ').expect("stack SPACE ns");
            assert!(!stack.is_empty());
            assert!(ns.parse::<u64>().is_ok(), "self-time is a number: {line}");
        }
        assert!(text.contains("wiki-server"), "{text}");
    }

    #[test]
    fn exports_are_deterministic() {
        let a = export_wiki(Backend::Vtx, 5, TraceFormat::Chrome).unwrap();
        let b = export_wiki(Backend::Vtx, 5, TraceFormat::Chrome).unwrap();
        assert_eq!(a, b);
    }
}
