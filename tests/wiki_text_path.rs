//! The wiki's text path against the code it replaced.
//!
//! A wiki request's text is parsed by `mux::route`, rendered by
//! `mux::render_page`, framed for Postgres by `pq::frame_query`, answered
//! by the simulated Postgres and decoded by `pq::decode_reply`. Each of
//! them writes its bytes once, into one buffer, and reads its input
//! where it lies. The `reference` module below keeps the `format!`-based
//! versions they replaced; the property runs both on generated inputs
//! and asserts equal values and bytes: valid views and saves, invalid
//! UTF-8, Unicode whitespace in the request line, missing and doubled
//! slashes, requests without a blank line, empty titles and bodies, and
//! replies with every prefix.

use enclosure_apps::mux::{self, Route};
use enclosure_apps::pq::{self, QueryResult};
use enclosure_kernel::net::Network;
use enclosure_support::{IdMap, XorShift};
use litterbox::{Fault, SysError};

/// The text path as it was built with `format!` and lossy copies.
mod reference {
    use super::{Fault, IdMap, QueryResult, Route, SysError};

    pub fn route(raw: &[u8]) -> Route {
        let text = String::from_utf8_lossy(raw);
        let mut lines = text.split("\r\n");
        let Some(request_line) = lines.next() else {
            return Route::NotFound;
        };
        let mut parts = request_line.split_whitespace();
        let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
            return Route::NotFound;
        };
        match (method, path.split('/').collect::<Vec<_>>().as_slice()) {
            ("GET", ["", "view", title]) if !title.is_empty() => Route::View {
                title: (*title).to_owned(),
            },
            ("POST", ["", "save", title]) if !title.is_empty() => {
                let body = text
                    .split_once("\r\n\r\n")
                    .map(|(_, b)| b.to_owned())
                    .unwrap_or_default();
                Route::Save {
                    title: (*title).to_owned(),
                    body,
                }
            }
            _ => Route::NotFound,
        }
    }

    pub fn render_page(title: &str, body: &str) -> Vec<u8> {
        let html = format!(
            "<html><head><title>{title}</title></head><body><h1>{title}</h1><p>{body}</p></body></html>"
        );
        let mut response = format!(
            "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nContent-Type: text/html\r\n\r\n",
            html.len()
        )
        .into_bytes();
        response.extend_from_slice(html.as_bytes());
        response
    }

    pub fn frame(sql: &str) -> Vec<u8> {
        format!("Q {sql}\n").into_bytes()
    }

    pub fn decode(raw: &[u8]) -> Result<QueryResult, SysError> {
        let text = String::from_utf8_lossy(raw).into_owned();
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

    pub fn respond(store: &mut IdMap<String, String>, request: &[u8]) -> Vec<u8> {
        let text = String::from_utf8_lossy(request);
        let line = text.lines().last().unwrap_or_default();
        let reply = if let Some(q) = line.strip_prefix("Q ") {
            if let Some(title) = q.strip_prefix("SELECT ") {
                store
                    .get(title.trim())
                    .map_or_else(|| "E notfound".to_owned(), |b| format!("R {b}"))
            } else if let Some(rest) = q.strip_prefix("UPSERT ") {
                let (title, body) = rest.split_once(' ').unwrap_or((rest, ""));
                store.insert(title.to_owned(), body.to_owned());
                "R ok".to_owned()
            } else {
                "E protocol".to_owned()
            }
        } else {
            "E protocol".to_owned()
        };
        reply.into_bytes()
    }
}

/// Whitespace between request-line tokens: ASCII, and Unicode
/// whitespace that `split_whitespace` splits on but an ASCII split
/// would not.
const SEPARATORS: &[&str] = &[
    " ", "  ", "\t", "\x0b", "\x0c", "\r", "\u{85}", "\u{a0}", "\u{2003}", "\u{3000}",
];

/// Bytes that are not UTF-8 on their own: a lone continuation byte, a
/// truncated two-byte sequence, an encoded surrogate, and `0xff`.
const INVALID: &[&[u8]] = &[b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xff"];

/// One of `items`.
fn pick(rng: &mut XorShift, items: &[&'static str]) -> &'static str {
    items[rng.range_usize(0, items.len())]
}

/// A short word: empty, alphanumeric, or with spaces, slashes, CR/LF,
/// `Q `, multi-byte characters or Unicode whitespace in it.
fn word(rng: &mut XorShift) -> String {
    const PIECES: &[&str] = &[
        "Home", "Note7", "a", "Z9", "x y", "/", "//", "\r\n", "\r", "\n", "Q ", "R ", "E ", "é",
        "日本", "\u{a0}", "\u{3000}", "-", "SELECT ", "UPSERT ", " ",
    ];
    let mut out = String::new();
    for _ in 0..rng.range_usize(0, 5) {
        out.push_str(pick(rng, PIECES));
    }
    out
}

/// An alphanumeric title, possibly empty.
fn title(rng: &mut XorShift) -> String {
    const CHARS: &[u8] = b"abcXYZ0189";
    (0..rng.range_usize(0, 8))
        .map(|_| char::from(*rng.choose(CHARS)))
        .collect()
}

/// Sprinkles invalid UTF-8 into `bytes` one time in four.
fn maybe_invalid(rng: &mut XorShift, mut bytes: Vec<u8>) -> Vec<u8> {
    if rng.range_u64(0, 4) == 0 {
        for _ in 0..rng.range_usize(1, 3) {
            let at = rng.range_usize(0, bytes.len() + 1);
            let bad = rng.choose(INVALID);
            bytes.splice(at..at, bad.iter().copied());
        }
    }
    bytes
}

/// A request: a request line of method, path and version joined by
/// generated whitespace, optional headers, an optional blank line and a
/// body. Half the request lines are a view or a save of a title.
fn request(rng: &mut XorShift) -> Vec<u8> {
    let t = if rng.range_u64(0, 4) == 0 {
        word(rng)
    } else {
        title(rng)
    };
    let (method, path) = if rng.next_bool() {
        let (method, prefix) = *rng.choose(&[("GET", "/view/"), ("POST", "/save/")]);
        (method, format!("{prefix}{t}"))
    } else {
        let method = *rng.choose(&["GET", "POST", "DELETE", "get", ""]);
        let path = match rng.range_u64(0, 9) {
            0 => format!("/view/{t}"),
            1 => format!("/save/{t}"),
            2 => format!("//view/{t}"),
            3 => format!("/save//{t}"),
            4 => format!("view/{t}"),
            5 => format!("/view/{t}/"),
            6 => format!("/save/{t}/x"),
            7 => "/".to_owned(),
            _ => word(rng),
        };
        (method, path)
    };
    let mut text = String::new();
    text.push_str(pick(rng, &["", " ", "\u{3000}"]));
    text.push_str(method);
    text.push_str(pick(rng, SEPARATORS));
    text.push_str(&path);
    if rng.next_bool() {
        text.push_str(pick(rng, SEPARATORS));
        text.push_str("HTTP/1.1");
    }
    if rng.next_bool() {
        text.push_str("\r\nHost: wiki");
    }
    match rng.range_u64(0, 4) {
        0 => {}
        1 => text.push_str("\r\n"),
        _ => text.push_str("\r\n\r\n"),
    }
    if rng.range_u64(0, 3) != 0 {
        text.push_str(&word(rng));
    }
    maybe_invalid(rng, text.into_bytes())
}

/// A Postgres request: one or more lines, the last of which is a
/// SELECT, an UPSERT or something else, with or without a final
/// newline.
fn pg_request(rng: &mut XorShift) -> Vec<u8> {
    const TITLES: &[&str] = &["Home", "About", "Note1", "Note2", ""];
    let mut text = String::new();
    if rng.range_u64(0, 5) == 0 {
        text.push_str(&word(rng));
        text.push('\n');
    }
    let t = if rng.range_u64(0, 4) == 0 {
        word(rng)
    } else {
        pick(rng, TITLES).to_owned()
    };
    match rng.range_u64(0, 6) {
        0 | 1 => {
            text.push_str("Q SELECT ");
            text.push_str(pick(rng, &["", " ", "\t"]));
            text.push_str(&t);
        }
        2 | 3 => {
            text.push_str("Q UPSERT ");
            text.push_str(&t);
            if rng.next_bool() {
                text.push(' ');
                text.push_str(&word(rng));
            }
        }
        4 => {
            text.push_str("Q ");
            text.push_str(&word(rng));
        }
        _ => text.push_str(&word(rng)),
    }
    text.push_str(pick(rng, &["\n", "\r\n", "", "\n\n"]));
    maybe_invalid(rng, text.into_bytes())
}

enclosure_support::props! {
    /// Routing, rendering, framing, decoding and the Postgres responder
    /// each return what the `format!`-based code returned, byte for
    /// byte, on every generated input.
    fn the_text_path_matches_the_format_based_code(rng, cases = 128) {
        for _ in 0..32 {
            let raw = request(rng);
            let shown = raw.escape_ascii().to_string();
            assert_eq!(mux::route(&raw), reference::route(&raw), "route {shown:?}");
        }

        for _ in 0..8 {
            let (t, body) = (word(rng), "ab\u{e9}".repeat(rng.range_usize(0, 400)));
            let page = mux::render_page(&t, &body);
            assert_eq!(page, reference::render_page(&t, &body), "page {t:?}");
        }

        let stale = rng.range_usize(0, 32);
        let mut frame = rng.bytes(stale);
        for _ in 0..8 {
            let sql = word(rng);
            pq::frame_query(&sql, &mut frame);
            assert_eq!(frame, reference::frame(&sql), "frame {sql:?}");
        }

        for _ in 0..16 {
            let prefix = pick(rng, &["R ", "E ", "R", "E", "", " R ", "r ", "X ", "RE ", "E  "]);
            let reply = [prefix, &word(rng)].concat().into_bytes();
            let reply = maybe_invalid(rng, reply);
            let shown = reply.escape_ascii().to_string();
            assert_eq!(pq::decode_reply(reply.clone()), reference::decode(&reply), "reply {shown:?}");
        }

        let seeded = [("Home", "welcome to the wiki"), ("About", "a tiny wiki")];
        let mut net = Network::new();
        let store = pq::install_postgres(&mut net, &seeded);
        let mut model: IdMap<String, String> = seeded
            .iter()
            .map(|&(t, b)| (t.to_owned(), b.to_owned()))
            .collect();
        let sock = net.socket();
        net.connect(sock, pq::postgres_addr()).unwrap();
        for _ in 0..24 {
            let req = pg_request(rng);
            net.send(sock, &req).unwrap();
            let reply = net.recv(sock, 64 * 1024).unwrap();
            let expected = reference::respond(&mut model, &req);
            let shown = req.escape_ascii().to_string();
            assert_eq!(reply, expected, "request {shown:?}");
            assert_eq!(*store.borrow(), model, "store after {shown:?}");
        }
    }
}
