//! Table 2 macrobenchmarks (§6.2): bild, HTTP, FastHTTP under every
//! backend, raw numbers plus slowdowns, alongside the paper's values.

use enclosure_apps::bild::{BildApp, BildConfig};
use enclosure_apps::fasthttp::FastHttpApp;
use enclosure_apps::httpd::HttpApp;
use enclosure_telemetry::{Histogram, TrackCost};
use litterbox::{Backend, Fault};

/// Which Table 2 benchmark to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MacroBench {
    /// Image inversion (latency, ms).
    Bild,
    /// net/http static server (throughput, req/s).
    Http,
    /// FastHTTP server (throughput, req/s).
    FastHttp,
}

impl MacroBench {
    /// All benchmarks in Table 2 row order.
    pub const ALL: [MacroBench; 3] = [MacroBench::Bild, MacroBench::Http, MacroBench::FastHttp];

    /// The row's name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MacroBench::Bild => "bild",
            MacroBench::Http => "HTTP",
            MacroBench::FastHttp => "FastHTTP",
        }
    }

    /// The measurement unit for the raw column.
    #[must_use]
    pub fn unit(self) -> &'static str {
        match self {
            MacroBench::Bild => "ms",
            MacroBench::Http | MacroBench::FastHttp => "reqs/s",
        }
    }
}

/// One measured cell: the raw value (ms or req/s) for one backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MacroCell {
    /// The raw measurement.
    pub raw: f64,
    /// Slowdown relative to baseline (1.0 for the baseline itself).
    pub slowdown: f64,
}

/// One Table 2 row: baseline / MPK / VTX cells plus the paper's values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MacroRow {
    /// Which benchmark.
    pub bench: MacroBench,
    /// Measured baseline.
    pub baseline: MacroCell,
    /// Measured LB_MPK.
    pub mpk: MacroCell,
    /// Measured LB_VTX.
    pub vtx: MacroCell,
    /// Measured LB_PROC — populated by the `--backend=proc` three-way
    /// run (`None` on the paper's two-backend default, which keeps the
    /// default `repro table2` output byte-stable).
    pub proc: Option<MacroCell>,
}

/// The paper's Table 2 values `(baseline_raw, mpk_slowdown, vtx_slowdown)`.
#[must_use]
pub fn paper_values(bench: MacroBench) -> (f64, f64, f64) {
    match bench {
        MacroBench::Bild => (13.25, 1.12, 1.05),
        MacroBench::Http => (16_991.0, 1.02, 1.77),
        MacroBench::FastHttp => (22_867.0, 1.04, 2.01),
    }
}

/// How many requests the throughput benchmarks drive per backend.
#[derive(Debug, Clone, Copy)]
pub struct MacroScale {
    /// Requests per throughput run.
    pub requests: u64,
    /// Image configuration for bild.
    pub bild: BildConfig,
}

impl Default for MacroScale {
    fn default() -> Self {
        MacroScale {
            requests: 500,
            bild: BildConfig::default(),
        }
    }
}

impl MacroScale {
    /// Small scale for tests.
    #[must_use]
    pub fn quick() -> MacroScale {
        MacroScale {
            requests: 20,
            bild: BildConfig {
                width: 128,
                height: 64,
                pixel_ns: 12,
            },
        }
    }
}

/// One backend's profile for a serving workload: the request-latency
/// histogram, the per-goroutine time attribution, and the per-operation
/// cost histograms gathered by the clock (switch prolog/epilog,
/// `pkey_mprotect` sweeps, key binds/evictions).
#[derive(Debug, Clone, PartialEq)]
pub struct BackendProfile {
    /// The backend measured.
    pub backend: Backend,
    /// Per-request latency in simulated ns (empty for bild, which runs
    /// one inversion rather than serving requests).
    pub latency: Histogram,
    /// Simulated ns attributed per telemetry track (main + goroutines).
    pub goroutines: Vec<TrackCost>,
    /// Per-operation cost histograms, keyed by operation name.
    pub ops: Vec<(&'static str, Histogram)>,
}

/// Drains a finished workload's recorder into a [`BackendProfile`].
pub(crate) fn profile_from(
    lb: &mut litterbox::LitterBox,
    backend: Backend,
    latency: Histogram,
) -> BackendProfile {
    let now = lb.now_ns();
    let rec = lb.telemetry_mut();
    rec.flush_tracks(now);
    BackendProfile {
        backend,
        latency,
        goroutines: rec.track_costs(),
        ops: rec
            .op_hists()
            .iter()
            .map(|(op, h)| (*op, h.clone()))
            .collect(),
    }
}

fn measure_raw(
    bench: MacroBench,
    backend: Backend,
    scale: MacroScale,
    trace: Option<usize>,
) -> Result<(f64, BackendProfile), Fault> {
    match bench {
        MacroBench::Bild => {
            let mut app = BildApp::new(backend, scale.bild)?;
            crate::trace::arm(app.runtime_mut().lb_mut(), trace);
            app.runtime_mut().lb_mut().clock_mut().reset();
            match app.run_invert() {
                Ok(run) => {
                    let profile =
                        profile_from(app.runtime_mut().lb_mut(), backend, Histogram::new());
                    #[allow(clippy::cast_precision_loss)]
                    Ok((run.ns as f64 / 1e6, profile)) // ms
                }
                Err(fault) => {
                    crate::trace::dump(app.runtime().lb(), &format!("bild, {backend}"));
                    Err(fault)
                }
            }
        }
        MacroBench::Http => {
            let mut app = HttpApp::new(backend)?;
            crate::trace::arm(app.runtime_mut().lb_mut(), trace);
            app.runtime_mut().lb_mut().clock_mut().reset();
            match app.serve_requests(scale.requests) {
                Ok(stats) => {
                    let latency = app.latency().clone();
                    let profile = profile_from(app.runtime_mut().lb_mut(), backend, latency);
                    Ok((stats.reqs_per_sec, profile))
                }
                Err(fault) => {
                    crate::trace::dump(app.runtime().lb(), &format!("HTTP, {backend}"));
                    Err(fault)
                }
            }
        }
        MacroBench::FastHttp => {
            let mut app = FastHttpApp::new(backend)?;
            crate::trace::arm(app.runtime_mut().lb_mut(), trace);
            app.runtime_mut().lb_mut().clock_mut().reset();
            match app.serve_requests(scale.requests, 1) {
                Ok(stats) => {
                    let latency = app.latency();
                    let profile = profile_from(app.runtime_mut().lb_mut(), backend, latency);
                    Ok((stats.reqs_per_sec, profile))
                }
                Err(fault) => {
                    crate::trace::dump(app.runtime().lb(), &format!("FastHTTP, {backend}"));
                    Err(fault)
                }
            }
        }
    }
}

/// One Table 2 row plus the per-backend profiles that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfiledRow {
    /// The rendered row.
    pub row: MacroRow,
    /// Backend profiles in baseline / MPK / VTX order.
    pub profiles: Vec<BackendProfile>,
}

/// Runs one Table 2 row across all backends.
///
/// # Errors
///
/// Workload faults.
pub fn run_row(bench: MacroBench, scale: MacroScale) -> Result<MacroRow, Fault> {
    run_row_traced(bench, scale, None)
}

/// [`run_row`] with `--trace` support: each workload machine keeps a
/// bounded event ring, dumped on the fault path.
///
/// # Errors
///
/// Workload faults.
pub fn run_row_traced(
    bench: MacroBench,
    scale: MacroScale,
    trace: Option<usize>,
) -> Result<MacroRow, Fault> {
    run_row_profiled(bench, scale, trace).map(|p| p.row)
}

/// [`run_row`] keeping the latency histograms, per-goroutine track
/// attribution, and per-operation cost histograms of every backend run.
///
/// # Errors
///
/// Workload faults.
pub fn run_row_profiled(
    bench: MacroBench,
    scale: MacroScale,
    trace: Option<usize>,
) -> Result<ProfiledRow, Fault> {
    run_row_profiled_with(bench, scale, trace, false)
}

/// [`run_row_profiled`] with an LB_PROC arm: the same unmodified app
/// runs under the process sandbox, and the row gains its three-way
/// `proc` cell (`repro table2 --backend=proc`).
///
/// # Errors
///
/// Workload faults.
pub fn run_row_profiled_with(
    bench: MacroBench,
    scale: MacroScale,
    trace: Option<usize>,
    include_proc: bool,
) -> Result<ProfiledRow, Fault> {
    let (base, base_prof) = measure_raw(bench, Backend::Baseline, scale, trace)?;
    let (mpk, mpk_prof) = measure_raw(bench, Backend::Mpk, scale, trace)?;
    let (vtx, vtx_prof) = measure_raw(bench, Backend::Vtx, scale, trace)?;
    // For latency (bild), slowdown = time/time_base; for throughput,
    // slowdown = rate_base/rate.
    let slowdown = |v: f64| -> f64 {
        match bench {
            MacroBench::Bild => v / base,
            _ => base / v,
        }
    };
    let mut profiles = vec![base_prof, mpk_prof, vtx_prof];
    let proc = if include_proc {
        let (proc, proc_prof) = measure_raw(bench, Backend::Proc, scale, trace)?;
        profiles.push(proc_prof);
        Some(MacroCell {
            raw: proc,
            slowdown: slowdown(proc),
        })
    } else {
        None
    };
    Ok(ProfiledRow {
        row: MacroRow {
            bench,
            baseline: MacroCell {
                raw: base,
                slowdown: 1.0,
            },
            mpk: MacroCell {
                raw: mpk,
                slowdown: slowdown(mpk),
            },
            vtx: MacroCell {
                raw: vtx,
                slowdown: slowdown(vtx),
            },
            proc,
        },
        profiles,
    })
}

/// Runs the full Table 2.
///
/// # Errors
///
/// Workload faults.
pub fn table2(scale: MacroScale) -> Result<Vec<MacroRow>, Fault> {
    table2_traced(scale, None)
}

/// [`table2`] with `--trace` support.
///
/// # Errors
///
/// Workload faults.
pub fn table2_traced(scale: MacroScale, trace: Option<usize>) -> Result<Vec<MacroRow>, Fault> {
    MacroBench::ALL
        .into_iter()
        .map(|bench| run_row_traced(bench, scale, trace))
        .collect()
}

/// [`table2`] keeping every backend's profile alongside the rows.
///
/// # Errors
///
/// Workload faults.
pub fn table2_profiled(scale: MacroScale, trace: Option<usize>) -> Result<Vec<ProfiledRow>, Fault> {
    table2_profiled_with(scale, trace, false)
}

/// [`table2_profiled`] with the LB_PROC arm toggled on — every row
/// gains its process-sandbox cell and profile.
///
/// # Errors
///
/// Workload faults.
pub fn table2_profiled_with(
    scale: MacroScale,
    trace: Option<usize>,
    include_proc: bool,
) -> Result<Vec<ProfiledRow>, Fault> {
    MacroBench::ALL
        .into_iter()
        .map(|bench| run_row_profiled_with(bench, scale, trace, include_proc))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_shape_holds_at_quick_scale() {
        let rows = table2(MacroScale::quick()).unwrap();
        let bild = &rows[0];
        assert!(bild.mpk.slowdown > bild.vtx.slowdown, "bild: MPK loses");
        assert!(bild.mpk.slowdown > 1.0 && bild.mpk.slowdown < 1.5);

        let http = &rows[1];
        assert!(http.mpk.slowdown < 1.1, "HTTP MPK near baseline");
        assert!(http.vtx.slowdown > 1.4, "HTTP VTX pays for syscalls");

        let fast = &rows[2];
        assert!(fast.mpk.slowdown < 1.15);
        assert!(fast.vtx.slowdown > 1.5);
        assert!(
            fast.vtx.slowdown > http.vtx.slowdown,
            "FastHTTP's smaller service time amplifies VT-x overhead: {} vs {}",
            fast.vtx.slowdown,
            http.vtx.slowdown
        );
    }

    #[test]
    fn proc_arm_runs_the_unmodified_apps() {
        let mut rows = Vec::new();
        for bench in MacroBench::ALL {
            let p = run_row_profiled_with(bench, MacroScale::quick(), None, true).unwrap();
            let proc = p.row.proc.expect("three-way row has a proc cell");
            assert!(
                proc.slowdown > p.row.mpk.slowdown,
                "{bench:?}: IPC-priced crossings dwarf WRPKRU pairs: {:?}",
                p.row
            );
            assert_eq!(p.profiles.len(), 4);
            assert_eq!(p.profiles[3].backend, Backend::Proc);
            rows.push(p.row);
        }
        // Where the enclosure itself issues the syscalls (FastHTTP,
        // §6.2), every one is an IPC round-trip — dearer than a VM EXIT.
        let fast = &rows[2];
        assert!(
            fast.proc.unwrap().slowdown > fast.vtx.slowdown,
            "enclosed syscall trace: PROC > VTX: {fast:?}"
        );
        // Where the serve loop is trusted (net/http) the process sandbox
        // is the only backend that leaves trusted syscalls untaxed, so
        // it beats VT-x — the flip side of the per-crossing price.
        let http = &rows[1];
        assert!(
            http.proc.unwrap().slowdown < http.vtx.slowdown,
            "trusted syscall trace: PROC < VTX: {http:?}"
        );
    }

    #[test]
    fn throughput_rows_report_reqs_per_sec() {
        let row = run_row(MacroBench::Http, MacroScale::quick()).unwrap();
        assert!(row.baseline.raw > 1000.0, "at least 1k req/s simulated");
        assert_eq!(row.bench.unit(), "reqs/s");
    }
}
