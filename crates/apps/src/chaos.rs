//! The request lifecycle shared by the enclosed-server workloads
//! (FastHTTP and the wiki), and its graceful-degradation helpers.
//!
//! Both servers open a listener, take connections from one load
//! generator, and close each request out with a latency sample. A serve
//! call ends the way a process exit would, off the simulated clock
//! (`teardown`): the kernel closes every fd the call opened and the
//! app drops its channels, so a server that serves many calls holds
//! the same state after each of them. Under
//! fault injection they keep the program alive instead of aborting:
//! transient kernel errnos are retried in place, a request whose handling
//! faults transiently is answered with a 503 while the server keeps
//! serving, and a repeatedly failing dependency (the wiki's pq proxy) is
//! quarantined behind a small circuit breaker. The counters here surface
//! in [`ServeStats`](crate::httpd::ServeStats) so chaos soaks can assert
//! on them.

use enclosure_gofront::{ChanId, GoRuntime, Step};
use enclosure_hw::Clock;
use enclosure_kernel::net::SockAddr;
use enclosure_kernel::Kernel;
use enclosure_support::Shared;
use enclosure_telemetry::{Event, Histogram};
use litterbox::{BatchOp, CompletionToken, Fault, LitterBox, SysError};

/// How many times a transient errno is retried in place before the
/// failure is surfaced to the degradation path.
pub const MAX_ERRNO_RETRIES: u32 = 3;

/// Shared degradation counters for one serve run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ChaosTally {
    /// Requests answered with a 5xx instead of a real response.
    pub degraded: u64,
    /// Transient errnos absorbed by in-place retries.
    pub retried: u64,
    /// Requests fast-failed because a dependency's breaker was open.
    pub quarantined: u64,
}

/// Runs `op`, retrying it up to [`MAX_ERRNO_RETRIES`] times while it
/// fails with a *transient* errno (EAGAIN/EINTR/ENOMEM — the kinds fault
/// injection produces). Each absorbed errno bumps `tally.retried`.
/// Faults and non-transient errnos pass through untouched.
///
/// # Errors
///
/// Whatever `op` last returned once retries are exhausted.
pub fn retry_transient<T>(
    tally: &Shared<ChaosTally>,
    mut op: impl FnMut() -> Result<T, SysError>,
) -> Result<T, SysError> {
    let mut attempts = 0;
    loop {
        match op() {
            Err(SysError::Errno(e)) if e.is_transient() && attempts < MAX_ERRNO_RETRIES => {
                attempts += 1;
                tally.borrow_mut().retried += 1;
            }
            other => return other,
        }
    }
}

/// Renders the 503 a degraded request is answered with.
#[must_use]
pub fn render_unavailable() -> Vec<u8> {
    b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n\r\n".to_vec()
}

/// Opens the server's listening socket on `port`, each call retried in
/// place. `Ok(None)` means a transient failure outlasted the retries:
/// the server sets up again next quantum.
pub(crate) fn listen(
    lb: &mut LitterBox,
    tally: &Shared<ChaosTally>,
    port: u16,
) -> Result<Option<u32>, Fault> {
    let mut setup = || -> Result<u32, SysError> {
        let fd = retry_transient(tally, || lb.sys_socket())?;
        retry_transient(tally, || lb.sys_bind(fd, SockAddr::local(port)))?;
        retry_transient(tally, || lb.sys_listen(fd))?;
        Ok(fd)
    };
    match setup() {
        Ok(fd) => Ok(Some(fd)),
        Err(e) if e.is_transient() => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// Issues one deferrable syscall of connection `conn`. When the
/// machine's gateway queues, the call joins the batch under submitter
/// `conn` and rides the next flush's single charged crossing; its token
/// is returned. In `Direct` mode it crosses now, transient errnos
/// retried in place.
pub(crate) fn deferrable(
    lb: &mut LitterBox,
    tally: &Shared<ChaosTally>,
    conn: u32,
    op: BatchOp,
) -> Result<Option<CompletionToken>, SysError> {
    if lb.gateway().is_queued() {
        return Ok(Some(lb.batch_submit(u64::from(conn), op)?));
    }
    retry_transient(tally, || match &op {
        BatchOp::ClockGettime => lb.sys_clock_gettime().map(drop),
        BatchOp::Futex => lb.sys_futex(),
        BatchOp::Send { fd, data } => lb.sys_send(*fd, data).map(drop),
        BatchOp::Close { fd } => lb.sys_close(*fd),
        other => Err(Fault::Init(format!(
            "{:?} is not a deferrable server call",
            other.sysno()
        ))
        .into()),
    })?;
    Ok(None)
}

/// The recovery path of a connection whose request failed transiently:
/// a request never answered gets a 503 (`answer`), then the connection
/// closes. It runs with injection suspended, so it cannot fail in turn.
pub(crate) fn abandon(lb: &mut LitterBox, conn: u32, answer: bool) {
    lb.clock_mut().suspend_injection();
    if answer {
        let _ = lb.sys_send(conn, &render_unavailable());
    }
    let _ = lb.sys_close(conn);
    lb.clock_mut().resume_injection();
}

/// Closes out one request: its latency sample, from the `accept` at
/// `t0` to now, and its [`Event::RequestServed`].
pub(crate) fn record_reply(lb: &mut LitterBox, latency: &Shared<Histogram>, t0: u64, ok: bool) {
    let ns = lb.now_ns() - t0;
    latency.borrow_mut().record(ns);
    lb.clock_mut().record(Event::RequestServed { ns, ok });
}

/// Ends a serve call after its scheduler run, the way a process exit
/// would and without touching the machine's clock: reaps the gateway's
/// completions, closes every fd numbered `fd_mark` or above (client
/// ends and their replies, the listener, any connection a degraded path
/// left open), and drops the call's channels.
///
/// # Errors
///
/// [`Fault::Init`] if a syscall is still queued in the gateway: its
/// completion would land in the next call, on a closed fd.
pub(crate) fn teardown(rt: &mut GoRuntime, fd_mark: u32, chans: &[ChanId]) -> Result<(), Fault> {
    // Per-entry errors are contained in their completions.
    let _ = rt.lb_mut().batch_take_completions();
    let queued = rt.lb().batch_pending();
    if queued > 0 {
        return Err(Fault::Init(format!(
            "{queued} gateway entries still queued at the end of a serve call"
        )));
    }
    rt.lb_mut().kernel_mut().release_since(fd_mark);
    for &ch in chans {
        rt.drop_chan(ch);
    }
    Ok(())
}

/// Spawns the load generator goroutine `name`: outside traffic on a
/// scratch clock, so it charges nothing to the measured machine. It
/// waits until a probe connection to `port` succeeds, then sends `n`
/// requests, each on its own connection. With `probe` set, the probe
/// connection carries those bytes in place of the last request;
/// otherwise it carries request 0. It never reads a reply: the serve
/// call's [`teardown`] closes the client ends.
pub(crate) fn spawn_load_generator(
    rt: &mut GoRuntime,
    name: &str,
    port: u16,
    n: u64,
    probe: Option<&'static [u8]>,
    request: fn(u64) -> String,
) {
    fn send(kernel: &mut Kernel, scratch: &mut Clock, fd: u32, bytes: &[u8]) -> Result<(), Fault> {
        kernel
            .send(scratch, fd, bytes)
            .map(drop)
            .map_err(|e| Fault::Init(format!("client send: {e}")))
    }
    rt.spawn(name, move |ctx| {
        if n == 0 {
            return Ok(Step::Done);
        }
        let mut scratch = Clock::default();
        let (kernel, _) = ctx.lb_mut().kernel_and_clock();
        let first = kernel.socket(&mut scratch);
        if kernel
            .connect(&mut scratch, first, SockAddr::local(port))
            .is_err()
        {
            let _ = kernel.close(&mut scratch, first);
            return Ok(Step::Yield);
        }
        let mut rest = 0..n;
        match probe {
            Some(bytes) => {
                send(kernel, &mut scratch, first, bytes)?;
                rest.end -= 1;
            }
            None => {
                send(kernel, &mut scratch, first, request(0).as_bytes())?;
                rest.start = 1;
            }
        }
        for i in rest {
            let fd = kernel.socket(&mut scratch);
            kernel
                .connect(&mut scratch, fd, SockAddr::local(port))
                .map_err(|e| Fault::Init(format!("client connect: {e}")))?;
            send(kernel, &mut scratch, fd, request(i).as_bytes())?;
        }
        Ok(Step::Done)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use enclosure_kernel::Errno;

    #[test]
    fn transient_errnos_are_retried_then_surfaced() {
        let tally = Shared::new(ChaosTally::default());
        let mut calls = 0;
        let out: Result<u32, SysError> = retry_transient(&tally, || {
            calls += 1;
            if calls < 3 {
                Err(SysError::Errno(Errno::Eagain))
            } else {
                Ok(7)
            }
        });
        assert_eq!(out.unwrap(), 7);
        assert_eq!(tally.borrow().retried, 2);

        // Permanent transient failure: bounded retries, error surfaces.
        let out: Result<u32, SysError> =
            retry_transient(&tally, || Err(SysError::Errno(Errno::Eintr)));
        assert!(matches!(out, Err(SysError::Errno(Errno::Eintr))));
        assert_eq!(tally.borrow().retried, 2 + u64::from(MAX_ERRNO_RETRIES));
    }

    #[test]
    fn fatal_errors_pass_through_without_retry() {
        let tally = Shared::new(ChaosTally::default());
        let out: Result<(), SysError> =
            retry_transient(&tally, || Err(SysError::Errno(Errno::Eacces)));
        assert!(matches!(out, Err(SysError::Errno(Errno::Eacces))));
        assert_eq!(tally.borrow().retried, 0);
    }

    #[test]
    fn unavailable_is_a_503() {
        assert!(render_unavailable().starts_with(b"HTTP/1.1 503"));
    }
}
