//! The Python plotting workload of §6.4: "a Python program with a single
//! enclosure that encapsulates the use of the matplotlib module. User
//! sensitive data from a secret module is shared read-only with a closure
//! that generates a plot from the data and writes the result to disk."
//!
//! Under [`MetadataMode::CoLocated`] every access to the read-only secret
//! object triggers refcount round trips to the trusted environment — the
//! ~1M switches behind the conservative prototype's ~18× slowdown. Under
//! [`MetadataMode::Decoupled`] the metadata lives in an always-writable
//! arena and the residual slowdown is dominated by delayed
//! initialization, reproducing the second experiment (~1.4×).

use enclosure_kernel::fs::OpenFlags;
use enclosure_pyfront::{Interpreter, MetadataMode, PyModuleDef, PyValue};
use litterbox::{Backend, Fault, SysError};

/// Workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct PlotConfig {
    /// Number of data points in the secret series.
    pub points: u64,
    /// Interpreter compute per plotted point (coordinate transform,
    /// rasterization).
    pub point_ns: u64,
    /// Canvas width.
    pub width: u64,
    /// Canvas height.
    pub height: u64,
}

impl Default for PlotConfig {
    fn default() -> Self {
        // Full-scale run: 300K points ≈ 64 ms of base interpreter time,
        // ~1.2M trusted round trips in the conservative mode.
        PlotConfig {
            points: 300_000,
            point_ns: 200,
            width: 640,
            height: 480,
        }
    }
}

impl PlotConfig {
    /// A small configuration for unit tests.
    #[must_use]
    pub fn tiny() -> PlotConfig {
        PlotConfig {
            points: 200,
            point_ns: 100,
            width: 64,
            height: 48,
        }
    }
}

/// Results of one plotting run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlotRun {
    /// Total simulated nanoseconds, including initialization.
    pub total_ns: u64,
    /// Simulated nanoseconds spent in delayed initialization (imports,
    /// view computation, hardware setup).
    pub init_ns: u64,
    /// Metadata switches taken (refcount/GC trusted round trips).
    pub metadata_switches: u64,
    /// Refcount operations performed.
    pub refcount_ops: u64,
    /// Bytes written to the output file.
    pub output_bytes: u64,
    /// The run's full telemetry counter set (switches, VM EXITs,
    /// init ns, ...): the single source of truth the §6.4 breakdown is
    /// derived from.
    pub counters: enclosure_telemetry::Counters,
}

/// Builds the Python program: `secret`, `numpy`, `plotlib` (the
/// matplotlib stand-in), and the `plot` enclosure.
///
/// # Errors
///
/// Build/import faults.
pub fn build(backend: Backend, mode: MetadataMode, cfg: PlotConfig) -> Result<Interpreter, Fault> {
    let mut py = Interpreter::new(backend, mode);
    py.register_module(PyModuleDef::new("secret").loc(40));
    py.register_module(PyModuleDef::new("numpy").loc(50_000));
    py.register_module(PyModuleDef::new("plotlib").deps(&["numpy"]).loc(110_000));

    let point_ns = cfg.point_ns;
    let (width, height) = (cfg.width, cfg.height);
    py.register_fn("plotlib.render", move |ctx, arg: PyValue| {
        let data = arg.as_obj()?;
        let n = ctx.size_of(data)? / 8;
        // Canvas in plotlib's own arena (writable inside the enclosure).
        let canvas = ctx.alloc(&vec![0u8; (width * height) as usize])?;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        // Pass 1: scale (reads the read-only secret, point by point —
        // each read increfs/decrefs the shared object).
        let mut word = [0u8; 8];
        for i in 0..n {
            ctx.read_into(data, i * 8, &mut word)?;
            let v = f64::from_le_bytes(word);
            min = min.min(v);
            max = max.max(v);
        }
        let span = if max > min { max - min } else { 1.0 };
        // Pass 2: rasterize.
        for i in 0..n {
            ctx.read_into(data, i * 8, &mut word)?;
            let v = f64::from_le_bytes(word);
            #[allow(
                clippy::cast_precision_loss,
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss
            )]
            let (x, y) = (
                (i * width / n.max(1)).min(width - 1),
                (((v - min) / span) * (height - 1) as f64) as u64,
            );
            ctx.write(canvas, y * width + x, &[255])?;
            ctx.compute(point_ns);
        }
        // Write the "PNG" to disk (requires file + io syscalls).
        let sys = |e: SysError| match e {
            SysError::Fault(f) => f,
            SysError::Errno(e) => Fault::Init(format!("plot io error: {e}")),
        };
        let fd = ctx
            .lb_mut()
            .sys_open("/tmp/plot.png", OpenFlags::write_create())
            .map_err(sys)?;
        let mut written = 0u64;
        for chunk_start in (0..width * height).step_by(16 * 1024) {
            let len = (16 * 1024).min(width * height - chunk_start);
            let bytes = ctx.read(canvas, chunk_start, len)?;
            written += ctx.lb_mut().sys_write(fd, &bytes).map_err(sys)? as u64;
        }
        ctx.lb_mut().sys_close(fd).map_err(sys)?;
        Ok(PyValue::Int(i64::try_from(written).expect("fits")))
    });

    // The plot enclosure: read-only secret, file output allowed.
    py.declare_enclosure("plot", "plotlib.render", &[], "secret: R, file io")?;
    Ok(py)
}

/// Runs the full experiment on a fresh interpreter and reports the §6.4
/// quantities.
///
/// # Errors
///
/// Any fault from the run.
pub fn run(backend: Backend, mode: MetadataMode, cfg: PlotConfig) -> Result<PlotRun, Fault> {
    let mut py = build(backend, mode, cfg)?;
    run_on(&mut py, cfg)
}

/// Drives an already-[`build`]t interpreter through the workload. The
/// interpreter stays alive afterwards so callers can inspect its
/// telemetry (cost attribution spans, the event ring, raw counters).
///
/// # Errors
///
/// Any fault from the run.
pub fn run_on(py: &mut Interpreter, cfg: PlotConfig) -> Result<PlotRun, Fault> {
    // Secret data: a sine-ish series owned by the secret module.
    let mut bytes = Vec::with_capacity((cfg.points * 8) as usize);
    for i in 0..cfg.points {
        #[allow(clippy::cast_precision_loss)]
        let v = (i as f64 * 0.001).sin() * 100.0;
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    let data = py.alloc_in("secret", &bytes)?;

    let t0 = py.lb().now_ns();
    let written = py.call_enclosed("plot", PyValue::Obj(data))?.as_int()?;
    let total_ns = py.lb().now_ns() - t0 + py.lb().init_ns();
    let stats = py.stats();
    Ok(PlotRun {
        total_ns,
        init_ns: py.lb().init_ns(),
        metadata_switches: stats.metadata_switches,
        refcount_ops: stats.refcount_ops,
        output_bytes: u64::try_from(written).expect("non-negative"),
        counters: *py.lb().telemetry().counters(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plot_completes_and_writes_output() {
        let cfg = PlotConfig::tiny();
        for mode in [MetadataMode::CoLocated, MetadataMode::Decoupled] {
            let run = run(Backend::Vtx, mode, cfg).unwrap();
            assert_eq!(run.output_bytes, cfg.width * cfg.height, "{mode:?}");
            assert!(run.refcount_ops > 2 * cfg.points, "borrow protocol ran");
        }
    }

    #[test]
    fn conservative_mode_switches_per_secret_access() {
        let cfg = PlotConfig::tiny();
        let conservative = run(Backend::Vtx, MetadataMode::CoLocated, cfg).unwrap();
        let optimized = run(Backend::Vtx, MetadataMode::Decoupled, cfg).unwrap();
        // Two passes over the data: 2 reads/point, each an incref+decref
        // pair of trusted round trips (2 switches each).
        assert!(
            conservative.metadata_switches >= 2 * 2 * 2 * cfg.points,
            "got {}",
            conservative.metadata_switches
        );
        assert_eq!(optimized.metadata_switches, 0);
        // At tiny scale the (identical) init cost dominates both totals;
        // compare the enclosure-execution time, where the switch traffic
        // lives.
        let conservative_run = conservative.total_ns - conservative.init_ns;
        let optimized_run = optimized.total_ns - optimized.init_ns;
        assert!(
            conservative_run > 4 * optimized_run,
            "{conservative_run} vs {optimized_run}"
        );
    }

    #[test]
    fn output_file_lands_in_simulated_fs() {
        let cfg = PlotConfig::tiny();
        let mut py = build(Backend::Mpk, MetadataMode::Decoupled, cfg).unwrap();
        let mut bytes = Vec::new();
        for i in 0..cfg.points {
            bytes.extend_from_slice(&(f64::from(u32::try_from(i).unwrap())).to_le_bytes());
        }
        let data = py.alloc_in("secret", &bytes).unwrap();
        py.call_enclosed("plot", PyValue::Obj(data)).unwrap();
        assert_eq!(
            py.lb().kernel().fs.stat("/tmp/plot.png").unwrap(),
            cfg.width * cfg.height
        );
    }

    #[test]
    fn enclosure_cannot_exfiltrate_the_series() {
        // The filter allows file+io but not net: a malicious plotlib
        // build trying to phone home faults.
        let cfg = PlotConfig::tiny();
        let mut py = build(Backend::Vtx, MetadataMode::Decoupled, cfg).unwrap();
        py.register_fn("plotlib.render", |ctx, _arg| {
            let err = ctx.lb_mut().sys_socket().unwrap_err();
            assert!(err.is_fault());
            Ok(PyValue::Int(0))
        });
        let data = py.alloc_in("secret", &[0u8; 16]).unwrap();
        py.call_enclosed("plot", PyValue::Obj(data)).unwrap();
    }
}
