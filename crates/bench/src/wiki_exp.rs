//! The §6.3 usability study: the Figure 5 wiki application's throughput
//! under every backend, compared with the FastHTTP row's slowdowns
//! ("the throughput slowdown is similar to the one in the FastHTTP
//! experiment").

use enclosure_apps::wiki::WikiApp;
use litterbox::{Backend, Fault};

use crate::macrobench::{measure, BackendProfile};
use crate::PAPER_BACKENDS;

/// The wiki study's measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WikiResults {
    /// Baseline throughput (req/s).
    pub baseline: f64,
    /// LB_MPK throughput and slowdown.
    pub mpk: (f64, f64),
    /// LB_VTX throughput and slowdown.
    pub vtx: (f64, f64),
    /// Enclosure switch pairs per request (both enclosures combined).
    pub switches_per_request: f64,
}

/// Runs the wiki under the paper's backends with `requests` each,
/// keeping each backend's latency histogram, per-goroutine attribution
/// and per-operation cost histograms. With `trace` (`--trace[=N]`),
/// each machine keeps a bounded event ring, printed on the fault path.
///
/// # Errors
///
/// Workload faults.
pub fn run(
    requests: u64,
    trace: Option<usize>,
) -> Result<(WikiResults, Vec<BackendProfile>), Fault> {
    let mut rates = Vec::new();
    let mut profiles = Vec::new();
    let mut switch_pairs = 0;
    for backend in PAPER_BACKENDS {
        let app = WikiApp::new(backend)?;
        let ((rate, wrpkru), profile) =
            measure(app, WikiApp::runtime_mut, "wiki", backend, trace, |app| {
                let stats = app.serve_requests(requests)?;
                let wrpkru = app.runtime().lb().stats().wrpkru;
                Ok(((stats.reqs_per_sec, wrpkru), app.latency()))
            })?;
        rates.push(rate);
        profiles.push(profile);
        if backend == Backend::Mpk {
            // Execute-based context switches, not prolog/epilog pairs:
            // count PKRU writes as the proxy.
            switch_pairs = wrpkru;
        }
    }
    #[allow(clippy::cast_precision_loss)]
    let results = WikiResults {
        baseline: rates[0],
        mpk: (rates[1], rates[0] / rates[1]),
        vtx: (rates[2], rates[0] / rates[2]),
        switches_per_request: switch_pairs as f64 / requests as f64,
    };
    Ok((results, profiles))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wiki_slowdowns_track_fasthttp_shape() {
        let (results, _) = run(10, None).unwrap();
        assert!(results.mpk.1 < 1.2, "MPK near baseline: {}", results.mpk.1);
        assert!(results.vtx.1 > 1.4, "VTX pays: {}", results.vtx.1);
        assert!(results.switches_per_request > 0.0);
    }
}
