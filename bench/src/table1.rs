//! Host time of the Table 1 operations: the same three loops the paper
//! times (an empty enclosure call, a 4-page `Transfer`, a `getuid`
//! inside an enclosure), timed here with the host clock around the
//! public calls instead of read off the simulated one.

use std::hint::black_box;
use std::time::Instant;

use enclosure_core::{App, Enclosure, Policy};
use enclosure_kernel::seccomp::SysPolicy;
use enclosure_vmem::PAGE_SIZE;
use litterbox::{Backend, Fault, SysError};

/// Host nanoseconds per call, per transfer and per syscall on `backend`,
/// each averaged over `iters` iterations after one warm-up.
///
/// # Errors
/// Faults from building the programs or running the loops.
pub fn host_ns(backend: Backend, iters: u64) -> Result<[f64; 3], Fault> {
    Ok([
        call(backend, iters)?,
        transfer(backend, iters)?,
        syscall(backend, iters)?,
    ])
}

#[allow(clippy::cast_precision_loss)]
fn per_iter(start: Instant, iters: u64) -> f64 {
    start.elapsed().as_nanos() as f64 / iters.max(1) as f64
}

fn lib_app(backend: Backend) -> Result<App, Fault> {
    App::builder("table1")
        .package("main", &["lib"])
        .package("lib", &[])
        .build(backend)
}

fn call(backend: Backend, iters: u64) -> Result<f64, Fault> {
    let mut app = lib_app(backend)?;
    let mut enc = Enclosure::declare(
        &mut app,
        "empty",
        &["lib"],
        Policy::default_policy(),
        |_, ()| Ok(()),
    )?;
    enc.call(&mut app, ())?;
    let start = Instant::now();
    for _ in 0..iters {
        black_box(enc.call(&mut app, black_box(()))?);
    }
    Ok(per_iter(start, iters))
}

fn transfer(backend: Backend, iters: u64) -> Result<f64, Fault> {
    let mut app = App::builder("table1")
        .package("a", &[])
        .package("b", &[])
        .build(backend)?;
    let span = app
        .lb
        .space_mut()
        .alloc(4 * PAGE_SIZE)
        .map_err(Fault::Memory)?;
    app.lb.transfer(span, None, "a")?;
    let mut owner = "a";
    let start = Instant::now();
    for _ in 0..iters {
        let next = if owner == "a" { "b" } else { "a" };
        app.lb.transfer(black_box(span), Some(owner), next)?;
        owner = next;
    }
    Ok(per_iter(start, iters))
}

fn syscall(backend: Backend, iters: u64) -> Result<f64, Fault> {
    let mut app = lib_app(backend)?;
    let mut enc = Enclosure::declare(
        &mut app,
        "sysloop",
        &["lib"],
        Policy::default_policy().syscalls(SysPolicy::all()),
        |ctx, iters: u64| {
            for _ in 0..iters {
                black_box(ctx.lb.sys_getuid().map_err(|e| match e {
                    SysError::Fault(f) => f,
                    SysError::Errno(e) => Fault::Init(e.to_string()),
                })?);
            }
            Ok(())
        },
    )?;
    // The warm-up pays lazy per-backend set-up (the LB_PROC fork).
    enc.call(&mut app, 1)?;
    let start = Instant::now();
    enc.call(&mut app, black_box(iters))?;
    Ok(per_iter(start, iters))
}
