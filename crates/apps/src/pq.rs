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
            Some(respond(&mut server_store.borrow_mut(), line))
        })),
    );
    store
}

/// The simulated Postgres' reply to one request line. A row is built
/// in one buffer, and an UPSERT of a title the store holds overwrites
/// its body in place.
fn respond(store: &mut IdMap<String, String>, line: &str) -> Vec<u8> {
    let Some(query) = line.strip_prefix("Q ") else {
        return b"E protocol".to_vec();
    };
    if let Some(title) = query.strip_prefix("SELECT ") {
        match store.get(title.trim()) {
            Some(body) => [b"R ".as_slice(), body.as_bytes()].concat(),
            None => b"E notfound".to_vec(),
        }
    } else if let Some(rest) = query.strip_prefix("UPSERT ") {
        let (title, body) = rest.split_once(' ').unwrap_or((rest, ""));
        match store.get_mut(title) {
            Some(held) => {
                held.clear();
                held.push_str(body);
            }
            None => {
                store.insert(title.to_owned(), body.to_owned());
            }
        }
        b"R ok".to_vec()
    } else {
        b"E protocol".to_vec()
    }
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

/// Runs one query on an open connection. `frame` is the caller's
/// buffer for the request's wire frame, reused from query to query.
///
/// # Errors
///
/// Gateway errors, or [`Fault::Init`] for protocol violations.
pub fn query(
    lb: &mut LitterBox,
    conn: PqConn,
    sql: &str,
    frame: &mut Vec<u8>,
) -> Result<QueryResult, SysError> {
    frame_query(sql, frame);
    lb.sys_send(conn.fd, frame)?;
    decode_reply(lb.sys_recv(conn.fd, 64 * 1024)?)
}

/// Writes the wire frame of `sql`, `Q <sql>\n`, over `frame`'s
/// contents.
pub fn frame_query(sql: &str, frame: &mut Vec<u8>) {
    frame.clear();
    frame.extend_from_slice(b"Q ");
    frame.extend_from_slice(sql.as_bytes());
    frame.push(b'\n');
}

/// Decodes a reply where it lies: the received buffer becomes the
/// result's `String`, decoded lossily only when it is not UTF-8, and
/// its `R `/`E ` prefix is dropped in place.
///
/// # Errors
///
/// [`Fault::Init`] for a reply with neither prefix.
pub fn decode_reply(raw: Vec<u8>) -> Result<QueryResult, SysError> {
    let mut text =
        String::from_utf8(raw).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into());
    let result = if text.starts_with("R ") {
        QueryResult::Row
    } else if text.starts_with("E ") {
        QueryResult::ServerError
    } else {
        return Err(SysError::Fault(Fault::Init(format!(
            "pq protocol violation: {text}"
        ))));
    };
    text.replace_range(..2, "");
    Ok(result(text))
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
        let out = query(&mut lb, conn, "SELECT Home", &mut Vec::new()).unwrap();
        assert_eq!(out, QueryResult::Row("welcome".into()));
    }

    #[test]
    fn select_missing_is_server_error() {
        let (mut lb, _store) = machine_with_db();
        let conn = connect(&mut lb).unwrap();
        let out = query(&mut lb, conn, "SELECT Nope", &mut Vec::new()).unwrap();
        assert!(matches!(out, QueryResult::ServerError(_)));
    }

    #[test]
    fn upsert_then_select() {
        let (mut lb, store) = machine_with_db();
        let conn = connect(&mut lb).unwrap();
        let mut frame = Vec::new();
        let out = query(&mut lb, conn, "UPSERT Notes hello world", &mut frame).unwrap();
        assert_eq!(out, QueryResult::Row("ok".into()));
        assert_eq!(store.borrow()["Notes"], "hello world");
        let out = query(&mut lb, conn, "SELECT Notes", &mut frame).unwrap();
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
