//! Table 2 macrobenchmarks (§6.2): bild, HTTP, FastHTTP under every
//! backend, raw numbers plus slowdowns, alongside the paper's values.

use enclosure_apps::bild::{BildApp, BildConfig};
use enclosure_apps::fasthttp::FastHttpApp;
use enclosure_apps::httpd::HttpApp;
use enclosure_gofront::GoRuntime;
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

/// Measures one run on a freshly built `app`: arms the `--trace[=N]`
/// ring, zeroes the clock, runs `serve` and drains the machine into a
/// [`BackendProfile`] around the latency histogram `serve` returns. On
/// a fault the ring's lead-up is printed, headed by `what` and the
/// backend, before the fault propagates.
pub(crate) fn measure<A, T>(
    mut app: A,
    runtime: fn(&mut A) -> &mut GoRuntime,
    what: &str,
    backend: Backend,
    trace: Option<usize>,
    serve: impl FnOnce(&mut A) -> Result<(T, Histogram), Fault>,
) -> Result<(T, BackendProfile), Fault> {
    let lb = runtime(&mut app).lb_mut();
    lb.telemetry_mut().arm_trace(trace);
    lb.clock_mut().reset();
    match serve(&mut app) {
        Ok((value, latency)) => {
            let profile = profile_from(runtime(&mut app).lb_mut(), backend, latency);
            Ok((value, profile))
        }
        Err(fault) => {
            let lb = runtime(&mut app).lb();
            lb.telemetry()
                .dump_trace(&format!("fault ({what}, {backend})"));
            Err(fault)
        }
    }
}

/// The row's raw value under `backend`: ms for bild, req/s otherwise.
fn measure_raw(
    bench: MacroBench,
    backend: Backend,
    scale: MacroScale,
    trace: Option<usize>,
) -> Result<(f64, BackendProfile), Fault> {
    let what = bench.name();
    match bench {
        MacroBench::Bild => {
            let app = BildApp::new(backend, scale.bild)?;
            measure(app, BildApp::runtime_mut, what, backend, trace, |app| {
                let run = app.run_invert()?;
                #[allow(clippy::cast_precision_loss)]
                let ms = run.ns as f64 / 1e6;
                Ok((ms, Histogram::new()))
            })
        }
        MacroBench::Http => {
            let app = HttpApp::new(backend)?;
            measure(app, HttpApp::runtime_mut, what, backend, trace, |app| {
                let stats = app.serve_requests(scale.requests)?;
                Ok((stats.reqs_per_sec, app.latency().clone()))
            })
        }
        MacroBench::FastHttp => {
            let app = FastHttpApp::new(backend)?;
            measure(app, FastHttpApp::runtime_mut, what, backend, trace, |app| {
                let stats = app.serve_requests(scale.requests, 1)?;
                Ok((stats.reqs_per_sec, app.latency()))
            })
        }
    }
}

/// One Table 2 row plus the per-backend profiles that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfiledRow {
    /// The rendered row.
    pub row: MacroRow,
    /// Backend profiles, in the order the backends were measured.
    pub profiles: Vec<BackendProfile>,
}

/// Runs one Table 2 row on every backend in `backends`.
fn run_row(
    bench: MacroBench,
    scale: MacroScale,
    trace: Option<usize>,
    backends: &[Backend],
) -> Result<ProfiledRow, Fault> {
    let mut raws = Vec::new();
    let mut profiles = Vec::new();
    for &backend in backends {
        let (raw, profile) = measure_raw(bench, backend, scale, trace)?;
        raws.push((backend, raw));
        profiles.push(profile);
    }
    let raw = |backend| {
        raws.iter()
            .find(|(b, _)| *b == backend)
            .map(|&(_, raw)| raw)
    };
    let column = |backend| {
        raw(backend).ok_or_else(|| Fault::Init(format!("Table 2 needs a {backend} column")))
    };
    let base = column(Backend::Baseline)?;
    // For latency (bild), slowdown = time/time_base; for throughput,
    // slowdown = rate_base/rate.
    let cell = |raw: f64| MacroCell {
        raw,
        slowdown: match bench {
            MacroBench::Bild => raw / base,
            _ => base / raw,
        },
    };
    Ok(ProfiledRow {
        row: MacroRow {
            bench,
            baseline: cell(base),
            mpk: cell(column(Backend::Mpk)?),
            vtx: cell(column(Backend::Vtx)?),
            proc: raw(Backend::Proc).map(cell),
        },
        profiles,
    })
}

/// Runs the full Table 2 on `backends`, keeping every backend's
/// profile alongside the rows. [`crate::PAPER_BACKENDS`] gives the
/// paper's columns; [`crate::BACKENDS`] adds the LB_PROC cell
/// (`repro table2 --backend=proc`). With `trace` (`--trace[=N]`), each
/// workload machine keeps a bounded event ring, printed on the fault
/// path.
///
/// # Errors
///
/// Workload faults, or a `backends` set without the paper's three
/// columns.
pub fn table2(
    scale: MacroScale,
    trace: Option<usize>,
    backends: &[Backend],
) -> Result<Vec<ProfiledRow>, Fault> {
    MacroBench::ALL
        .into_iter()
        .map(|bench| run_row(bench, scale, trace, backends))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BACKENDS, PAPER_BACKENDS};

    #[test]
    fn table2_shape_holds_at_quick_scale() {
        let rows = table2(MacroScale::quick(), None, &PAPER_BACKENDS).unwrap();
        let bild = &rows[0].row;
        assert!(bild.mpk.slowdown > bild.vtx.slowdown, "bild: MPK loses");
        assert!(bild.mpk.slowdown > 1.0 && bild.mpk.slowdown < 1.5);

        let http = &rows[1].row;
        assert!(http.mpk.slowdown < 1.1, "HTTP MPK near baseline");
        assert!(http.vtx.slowdown > 1.4, "HTTP VTX pays for syscalls");

        let fast = &rows[2].row;
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
            let p = run_row(bench, MacroScale::quick(), None, &BACKENDS).unwrap();
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
        let row = run_row(MacroBench::Http, MacroScale::quick(), None, &PAPER_BACKENDS)
            .unwrap()
            .row;
        assert!(row.baseline.raw > 1000.0, "at least 1k req/s simulated");
        assert_eq!(row.bench.unit(), "reqs/s");
    }
}
