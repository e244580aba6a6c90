//! A miniature of the `pq` Postgres driver (§6.3) plus the simulated
//! Postgres server it talks to.
//!
//! The driver speaks a tiny textual wire protocol over the simulated
//! network:
//!
//! ```text
//! "Q SELECT <title>\n"        → "R <body>" | "E notfound"
//! "Q UPSERT <title> <body>\n" → "R ok"
//! ```
//!
//! The server side is a scriptable remote host registered with the
//! kernel's network — the stand-in for the external Postgres instance of
//! Figure 5 (○4/○5).

use enclosure_support::{IdMap, Shared};

use enclosure_kernel::net::{ipv4, Network, SockAddr};
use litterbox::{Fault, LitterBox, SysError};

/// Where the simulated Postgres lives.
#[must_use]
pub fn postgres_addr() -> SockAddr {
    SockAddr::new(ipv4(198, 51, 100, 5), 5432)
}

/// Installs a simulated Postgres on the network, pre-seeded with `pages`.
/// Returns a handle to the shared page store for assertions.
pub fn install_postgres(
    net: &mut Network,
    pages: &[(&str, &str)],
) -> Shared<IdMap<String, String>> {
    let store: Shared<IdMap<String, String>> = Shared::new(
        pages
            .iter()
            .map(|(t, b)| ((*t).to_owned(), (*b).to_owned()))
            .collect(),
    );
    let server_store = store.clone();
    net.register_remote(
        postgres_addr(),
        Some(Box::new(move |request: &[u8]| {
            let text = String::from_utf8_lossy(request);
            let line = text.lines().last().unwrap_or_default();
            let reply = if let Some(q) = line.strip_prefix("Q ") {
                if let Some(title) = q.strip_prefix("SELECT ") {
                    server_store
                        .borrow()
                        .get(title.trim())
                        .map_or_else(|| "E notfound".to_owned(), |b| format!("R {b}"))
                } else if let Some(rest) = q.strip_prefix("UPSERT ") {
                    let (title, body) = rest.split_once(' ').unwrap_or((rest, ""));
                    server_store
                        .borrow_mut()
                        .insert(title.to_owned(), body.to_owned());
                    "R ok".to_owned()
                } else {
                    "E protocol".to_owned()
                }
            } else {
                "E protocol".to_owned()
            };
            Some(reply.into_bytes())
        })),
    );
    store
}

/// A driver connection (an fd connected to Postgres).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PqConn {
    fd: u32,
}

/// The result of a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryResult {
    /// A row came back.
    Row(String),
    /// The server reported an error (e.g. not found).
    ServerError(String),
}

/// Connects to Postgres through the syscall gateway (subject to the
/// calling environment's filter — the proxy enclosure's allowlist).
///
/// # Errors
///
/// [`SysError`] from the gateway (a fault when the filter denies
/// `connect`, an errno when the server is unreachable).
pub fn connect(lb: &mut LitterBox) -> Result<PqConn, SysError> {
    let fd = lb.sys_socket()?;
    lb.sys_connect(fd, postgres_addr())?;
    Ok(PqConn { fd })
}

/// Runs one query on an open connection.
///
/// # Errors
///
/// Gateway errors, or [`Fault::Init`] for protocol violations.
pub fn query(lb: &mut LitterBox, conn: PqConn, sql: &str) -> Result<QueryResult, SysError> {
    lb.sys_send(conn.fd, format!("Q {sql}\n").as_bytes())?;
    let raw = lb.sys_recv(conn.fd, 64 * 1024)?;
    let text = String::from_utf8_lossy(&raw).into_owned();
    if let Some(row) = text.strip_prefix("R ") {
        Ok(QueryResult::Row(row.to_owned()))
    } else if let Some(err) = text.strip_prefix("E ") {
        Ok(QueryResult::ServerError(err.to_owned()))
    } else {
        Err(SysError::Fault(Fault::Init(format!(
            "pq protocol violation: {text}"
        ))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use litterbox::Backend;

    fn machine_with_db() -> (LitterBox, Shared<IdMap<String, String>>) {
        let mut lb = LitterBox::new(Backend::Baseline);
        let mut prog = litterbox::ProgramDesc::new();
        prog.add_package(&mut lb, "pq", 1, 1, 1).unwrap();
        lb.init(prog).unwrap();
        let store = install_postgres(&mut lb.kernel_mut().net, &[("Home", "welcome")]);
        (lb, store)
    }

    #[test]
    fn select_roundtrip() {
        let (mut lb, _store) = machine_with_db();
        let conn = connect(&mut lb).unwrap();
        let out = query(&mut lb, conn, "SELECT Home").unwrap();
        assert_eq!(out, QueryResult::Row("welcome".into()));
    }

    #[test]
    fn select_missing_is_server_error() {
        let (mut lb, _store) = machine_with_db();
        let conn = connect(&mut lb).unwrap();
        let out = query(&mut lb, conn, "SELECT Nope").unwrap();
        assert!(matches!(out, QueryResult::ServerError(_)));
    }

    #[test]
    fn upsert_then_select() {
        let (mut lb, store) = machine_with_db();
        let conn = connect(&mut lb).unwrap();
        let out = query(&mut lb, conn, "UPSERT Notes hello world").unwrap();
        assert_eq!(out, QueryResult::Row("ok".into()));
        assert_eq!(store.borrow()["Notes"], "hello world");
        let out = query(&mut lb, conn, "SELECT Notes").unwrap();
        assert_eq!(out, QueryResult::Row("hello world".into()));
    }

    #[test]
    fn protocol_garbage_is_reported() {
        let (mut lb, _store) = machine_with_db();
        let conn = connect(&mut lb).unwrap();
        let fd = conn.fd;
        lb.sys_send(fd, b"not-a-query\n").unwrap();
        let raw = lb.sys_recv(fd, 1024).unwrap();
        assert!(raw.starts_with(b"E "));
    }
}
