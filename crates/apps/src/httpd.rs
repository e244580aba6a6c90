//! The net/http workload (§6.2): "a typical concern in web-facing
//! applications … is to protect private keys and certificates from
//! potential attacks delivered via user requests. This benchmark defines
//! the request handler as an enclosure with no access to the packages
//! used by net/http and no system calls."
//!
//! The server loop runs trusted (it owns the sockets); every request's
//! handler invocation crosses into the enclosure and back. The
//! per-request syscall trace (~11 calls: accept, timestamps, reads,
//! writes, futexes, close) is what makes LB_VTX pay its 1.77× in this
//! row while LB_MPK stays at 1.02×.

use enclosure_gofront::{GoProgram, GoRuntime, GoSource, GoValue};
use enclosure_hw::Clock;
use enclosure_kernel::net::SockAddr;
use enclosure_telemetry::{Event, Histogram};
use litterbox::{Backend, Fault, SysError};

use crate::chaos::ChaosTally;

/// The 13 KB static page the paper's handler returns.
pub const PAGE_SIZE_BYTES: usize = 13 * 1024;
/// Server listen port.
pub const HTTP_PORT: u16 = 8080;

/// Request-parsing compute per request (header scan, routing).
/// Calibrated with [`HANDLER_NS`] so the single-threaded baseline lands
/// near the paper's 16,991 req/s (58.8 µs/request).
const PARSE_NS: u64 = 18_000;
/// Handler compute per request (page selection + formatting).
const HANDLER_NS: u64 = 33_000;

/// Throughput measurement over a batch of requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeStats {
    /// Requests served successfully.
    pub served: u64,
    /// Total simulated nanoseconds.
    pub ns: u64,
    /// Derived requests/second.
    pub reqs_per_sec: f64,
    /// Requests answered with a 5xx under fault injection.
    pub degraded: u64,
    /// Transient errnos absorbed by in-place retries.
    pub retried: u64,
    /// Requests fast-failed by an open circuit breaker.
    pub quarantined: u64,
}

impl ServeStats {
    pub(crate) fn new(served: u64, ns: u64) -> ServeStats {
        #[allow(clippy::cast_precision_loss)]
        let reqs_per_sec = if ns == 0 {
            0.0
        } else {
            served as f64 * 1e9 / ns as f64
        };
        ServeStats {
            served,
            ns,
            reqs_per_sec,
            degraded: 0,
            retried: 0,
            quarantined: 0,
        }
    }

    pub(crate) fn with_tally(mut self, tally: ChaosTally) -> ServeStats {
        self.degraded = tally.degraded;
        self.retried = tally.retried;
        self.quarantined = tally.quarantined;
        self
    }
}

/// The assembled HTTP server application.
#[derive(Debug)]
pub struct HttpApp {
    rt: GoRuntime,
    listen_fd: u32,
    latency: Histogram,
}

impl HttpApp {
    /// Builds the server: `nethttp` (stdlib) + an enclosed `handler`
    /// package holding the page and a private TLS key in `main`.
    ///
    /// # Errors
    ///
    /// Build faults or socket errors.
    pub fn new(backend: Backend) -> Result<HttpApp, Fault> {
        let mut program = GoProgram::new();
        program.add_source(GoSource::new("nethttp").loc(100_000));
        program.add_source(GoSource::new("handler").loc(31));
        program.add_source(
            GoSource::new("main")
                .imports(&["nethttp", "handler"])
                .global("tlsKey", 64)
                .loc(31)
                // Handler enclosure: no nethttp, no main, no syscalls.
                .enclosure("handler_enc", "handler.Handle", "none"),
        );
        let mut rt = program.build(backend)?;

        // The static page lives in the handler's arena.
        rt.register_fn("handler.init_page", |ctx, _arg| {
            let page = ctx.malloc(PAGE_SIZE_BYTES as u64)?;
            let body: Vec<u8> = b"<html>enclosure demo</html>"
                .iter()
                .copied()
                .cycle()
                .take(PAGE_SIZE_BYTES)
                .collect();
            ctx.lb_mut().store(page, &body)?;
            Ok(GoValue::Ptr(page))
        });
        let page_ptr = rt.call("handler.init_page", GoValue::Unit)?.as_ptr()?;

        rt.register_fn("handler.Handle", move |ctx, arg: GoValue| {
            // arg: request head bytes. Select the page, format headers.
            let head = arg.as_bytes()?;
            if !head.starts_with(b"GET ") {
                return Ok(GoValue::Bytes(b"HTTP/1.1 400 Bad Request\r\n\r\n".to_vec()));
            }
            ctx.compute(HANDLER_NS);
            let body = ctx.lb().load(page_ptr, PAGE_SIZE_BYTES as u64)?;
            let mut response = format!(
                "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nContent-Type: text/html\r\n\r\n",
                body.len()
            )
            .into_bytes();
            response.extend_from_slice(&body);
            Ok(GoValue::Bytes(response))
        });

        // The serve loop: trusted code in nethttp issuing the real
        // syscall trace of a Go HTTP server, one syscall per crossing.
        rt.register_fn("nethttp.ServeOne", move |ctx, arg: GoValue| {
            let listen_fd = u32::try_from(arg.as_int()?).expect("fd fits u32");
            let conn = match ctx.lb_mut().sys_accept(listen_fd) {
                Ok(fd) => fd,
                Err(SysError::Errno(_)) => return Ok(GoValue::Bool(false)), // no pending conn
                Err(e) => return Err(e.into()),
            };
            ctx.lb_mut().sys_clock_gettime()?; // read deadline
            let head = ctx.lb_mut().sys_recv(conn, 4096)?;
            ctx.lb_mut().sys_clock_gettime()?; // write deadline
            ctx.compute(PARSE_NS);
            ctx.lb_mut().sys_futex()?; // netpoller wakeup

            let response = ctx
                .call_enclosed("handler_enc", GoValue::Bytes(head))?
                .into_bytes()?;
            let (headers, body) = response.split_at(response.len().min(128));
            ctx.lb_mut().sys_send(conn, headers)?;
            ctx.lb_mut().sys_send(conn, body)?;
            ctx.lb_mut().sys_clock_gettime()?; // access log
            ctx.lb_mut().sys_close(conn)?;
            ctx.lb_mut().sys_futex()?; // conn teardown wake
            ctx.lb_mut().sys_getpid()?; // log pid
            Ok(GoValue::Bool(true))
        });

        // Bind + listen (trusted setup).
        let listen_fd = rt
            .lb_mut()
            .sys_socket()
            .map_err(|e| Fault::Init(e.to_string()))?;
        rt.lb_mut()
            .sys_bind(listen_fd, SockAddr::local(HTTP_PORT))
            .map_err(|e| Fault::Init(e.to_string()))?;
        rt.lb_mut()
            .sys_listen(listen_fd)
            .map_err(|e| Fault::Init(e.to_string()))?;

        Ok(HttpApp {
            rt,
            listen_fd,
            latency: Histogram::new(),
        })
    }

    /// The runtime.
    #[must_use]
    pub fn runtime(&self) -> &GoRuntime {
        &self.rt
    }

    /// Mutable runtime access.
    pub fn runtime_mut(&mut self) -> &mut GoRuntime {
        &mut self.rt
    }

    /// Per-request latency distribution (simulated ns of measured
    /// server work per request), accumulated across
    /// [`HttpApp::serve_requests`] calls.
    #[must_use]
    pub fn latency(&self) -> &Histogram {
        &self.latency
    }

    /// Drives `n` requests through the server: client traffic is issued
    /// directly against the kernel with a scratch clock (the load
    /// generator is outside the measured machine), server work is
    /// measured on the simulated clock.
    ///
    /// # Errors
    ///
    /// Server faults, or harness errors if responses go missing.
    pub fn serve_requests(&mut self, n: u64) -> Result<ServeStats, Fault> {
        let mut scratch = Clock::default();
        let t0 = self.rt.lb().now_ns();
        let mut served = 0;
        for i in 0..n {
            // Client: connect + send request (unmeasured).
            let client_fd = {
                let (kernel, _) = self.rt.lb_mut().kernel_and_clock();
                let fd = kernel.socket(&mut scratch);
                kernel
                    .connect(&mut scratch, fd, SockAddr::local(HTTP_PORT))
                    .map_err(|e| Fault::Init(format!("client connect: {e}")))?;
                kernel
                    .send(
                        &mut scratch,
                        fd,
                        format!("GET /page/{i} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes(),
                    )
                    .map_err(|e| Fault::Init(format!("client send: {e}")))?;
                fd
            };
            // Server: measured.
            let req_t0 = self.rt.lb().now_ns();
            let ok = self
                .rt
                .call("nethttp.ServeOne", GoValue::Int(u64::from(self.listen_fd)))?
                .as_bool()?;
            if !ok {
                return Err(Fault::Init("server saw no pending connection".into()));
            }
            let req_ns = self.rt.lb().now_ns() - req_t0;
            self.latency.record(req_ns);
            self.rt
                .lb_mut()
                .clock_mut()
                .record(Event::RequestServed { ns: req_ns, ok });
            served += 1;
            // Client: drain the response (unmeasured).
            let (kernel, _) = self.rt.lb_mut().kernel_and_clock();
            let mut got = 0usize;
            loop {
                match kernel.recv(&mut scratch, client_fd, 64 * 1024) {
                    Ok(chunk) if chunk.is_empty() => break,
                    Ok(chunk) => got += chunk.len(),
                    Err(_) => break,
                }
            }
            if got < PAGE_SIZE_BYTES {
                return Err(Fault::Init(format!(
                    "short response: {got} < {PAGE_SIZE_BYTES}"
                )));
            }
            kernel
                .close(&mut scratch, client_fd)
                .map_err(|e| Fault::Init(format!("client close: {e}")))?;
        }
        Ok(ServeStats::new(served, self.rt.lb().now_ns() - t0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_complete_pages_on_all_backends() {
        for backend in [Backend::Baseline, Backend::Mpk, Backend::Vtx] {
            let mut app = HttpApp::new(backend).unwrap();
            let stats = app.serve_requests(5).unwrap();
            assert_eq!(stats.served, 5, "{backend}");
            assert!(stats.reqs_per_sec > 0.0);
        }
    }

    #[test]
    fn vtx_pays_for_syscalls_mpk_does_not() {
        // Table 2, row 2: socket-dominated workload → VT-x ~1.77×,
        // MPK ~1.02×.
        let mut rates = Vec::new();
        for backend in [Backend::Baseline, Backend::Mpk, Backend::Vtx] {
            let mut app = HttpApp::new(backend).unwrap();
            app.runtime_mut().lb_mut().clock_mut().reset();
            rates.push(app.serve_requests(20).unwrap().reqs_per_sec);
        }
        let (base, mpk, vtx) = (rates[0], rates[1], rates[2]);
        let mpk_slowdown = base / mpk;
        let vtx_slowdown = base / vtx;
        assert!(
            mpk_slowdown < 1.10,
            "MPK stays near baseline: {mpk_slowdown:.3}"
        );
        assert!(
            vtx_slowdown > 1.4,
            "VT-x pays the VM EXITs: {vtx_slowdown:.3}"
        );
        assert!(vtx_slowdown > mpk_slowdown);
    }

    #[test]
    fn handler_cannot_reach_the_tls_key_or_syscalls() {
        let mut program = GoProgram::new();
        program.add_source(GoSource::new("nethttp").loc(100_000));
        program.add_source(GoSource::new("handler").loc(31));
        program.add_source(
            GoSource::new("main")
                .imports(&["nethttp", "handler"])
                .global("tlsKey", 64)
                .enclosure("handler_enc", "handler.Handle", "none"),
        );
        let mut rt = program.build(Backend::Mpk).unwrap();
        let key_addr = rt.global_addr("main.tlsKey");
        rt.register_fn("handler.Handle", move |ctx, _arg| {
            // Buffer-overflow-style attempt: read the key, or leak via
            // socket. Both must fault.
            assert!(ctx.lb().load_u64(key_addr).is_err(), "key unreachable");
            assert!(ctx.lb_mut().sys_socket().is_err(), "no syscalls");
            Ok(GoValue::Unit)
        });
        rt.call_enclosed("handler_enc", GoValue::Unit).unwrap();
    }

    #[test]
    fn malformed_requests_get_400() {
        let mut app = HttpApp::new(Backend::Mpk).unwrap();
        let mut scratch = Clock::default();
        let (kernel, _) = app.runtime_mut().lb_mut().kernel_and_clock();
        let fd = kernel.socket(&mut scratch);
        kernel
            .connect(&mut scratch, fd, SockAddr::local(HTTP_PORT))
            .unwrap();
        kernel.send(&mut scratch, fd, b"BOGUS\r\n\r\n").unwrap();
        let listen = app.listen_fd;
        app.runtime_mut()
            .call("nethttp.ServeOne", GoValue::Int(u64::from(listen)))
            .unwrap();
        let (kernel, _) = app.runtime_mut().lb_mut().kernel_and_clock();
        let resp = kernel.recv(&mut scratch, fd, 1024).unwrap();
        assert!(resp.starts_with(b"HTTP/1.1 400"));
    }
}
