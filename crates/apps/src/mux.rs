//! A miniature of the gorilla/mux request router (§6.3): parses an HTTP
//! request line and routes it to the wiki's view/save handlers.

/// A routed wiki request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Route {
    /// `GET /view/<title>`.
    View {
        /// The page title.
        title: String,
    },
    /// `POST /save/<title>` with a body.
    Save {
        /// The page title.
        title: String,
        /// The new page body.
        body: String,
    },
    /// Anything else.
    NotFound,
}

/// Parses the raw request bytes into a [`Route`].
///
/// Tolerates missing bodies and malformed lines by routing to
/// [`Route::NotFound`], as mux would 404. The request is read where it
/// lies, decoded lossily only when it is not UTF-8; only the title and
/// body a route carries are copied out.
#[must_use]
pub fn route(raw: &[u8]) -> Route {
    let text = String::from_utf8_lossy(raw);
    let request_line = crlf(&text, 0).map_or(&*text, |end| &text[..end]);
    // Unicode whitespace separates the request line's words too: an
    // ASCII-only split would route some requests differently.
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return Route::NotFound;
    };
    let title = |prefix: &str| {
        path.strip_prefix(prefix)
            .filter(|title| !title.is_empty() && !title.contains('/'))
            .map(str::to_owned)
    };
    match method {
        "GET" => title("/view/").map_or(Route::NotFound, |title| Route::View { title }),
        "POST" => title("/save/").map_or(Route::NotFound, |title| Route::Save {
            title,
            // Body follows the blank line.
            body: blank_line(&text).map_or_else(String::new, |at| text[at + 4..].to_owned()),
        }),
        _ => Route::NotFound,
    }
}

/// Where the first `"\r\n"` at or after `from` starts.
fn crlf(text: &str, from: usize) -> Option<usize> {
    let bytes = text.as_bytes();
    let mut at = from;
    while let Some(i) = bytes.get(at..)?.iter().position(|&b| b == b'\r') {
        at += i;
        if bytes.get(at + 1) == Some(&b'\n') {
            return Some(at);
        }
        at += 1;
    }
    None
}

/// Where the first `"\r\n\r\n"` starts.
fn blank_line(text: &str) -> Option<usize> {
    let mut at = 0;
    loop {
        let end = crlf(text, at)?;
        if text.as_bytes().get(end + 2..end + 4) == Some(b"\r\n") {
            return Some(end);
        }
        at = end + 2;
    }
}

// A rendered page's fixed text, around its title (twice) and body,
// and the response head before and after the page's length.
const PAGE_HEAD: &[u8] = b"<html><head><title>";
const PAGE_TITLE_END: &[u8] = b"</title></head><body><h1>";
const PAGE_HEADING_END: &[u8] = b"</h1><p>";
const PAGE_TAIL: &[u8] = b"</p></body></html>";
const STATUS_LINE: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Length: ";
const HEADERS_END: &[u8] = b"\r\nContent-Type: text/html\r\n\r\n";

/// Renders a wiki page into an HTML response: status line, headers and
/// page written into one buffer sized up front.
#[must_use]
pub fn render_page(title: &str, body: &str) -> Vec<u8> {
    let html_len = PAGE_HEAD.len()
        + PAGE_TITLE_END.len()
        + PAGE_HEADING_END.len()
        + PAGE_TAIL.len()
        + 2 * title.len()
        + body.len();
    let digits = html_len.checked_ilog10().map_or(1, |d| d as usize + 1);
    let mut response =
        Vec::with_capacity(STATUS_LINE.len() + digits + HEADERS_END.len() + html_len);
    response.extend_from_slice(STATUS_LINE);
    push_decimal(&mut response, html_len as u64);
    response.extend_from_slice(HEADERS_END);
    for piece in [
        PAGE_HEAD,
        title.as_bytes(),
        PAGE_TITLE_END,
        title.as_bytes(),
        PAGE_HEADING_END,
        body.as_bytes(),
        PAGE_TAIL,
    ] {
        response.extend_from_slice(piece);
    }
    response
}

/// Appends `n` in decimal, the digits `format!("{n}")` writes.
pub(crate) fn push_decimal(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Renders a 404.
#[must_use]
pub fn render_not_found() -> Vec<u8> {
    b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n".to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_view_requests() {
        let r = route(b"GET /view/HomePage HTTP/1.1\r\nHost: wiki\r\n\r\n");
        assert_eq!(
            r,
            Route::View {
                title: "HomePage".into()
            }
        );
    }

    #[test]
    fn routes_save_requests_with_body() {
        let r = route(b"POST /save/Notes HTTP/1.1\r\nHost: wiki\r\n\r\nhello world");
        assert_eq!(
            r,
            Route::Save {
                title: "Notes".into(),
                body: "hello world".into()
            }
        );
    }

    #[test]
    fn unknown_paths_404() {
        assert_eq!(route(b"GET /admin HTTP/1.1\r\n\r\n"), Route::NotFound);
        assert_eq!(route(b"DELETE /view/x HTTP/1.1\r\n\r\n"), Route::NotFound);
        assert_eq!(route(b"GET /view/ HTTP/1.1\r\n\r\n"), Route::NotFound);
        assert_eq!(route(b""), Route::NotFound);
        assert_eq!(route(b"\xff\xfe garbage"), Route::NotFound);
    }

    #[test]
    fn rendering_produces_valid_http() {
        let page = render_page("T", "B");
        let text = String::from_utf8(page).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("<h1>T</h1>"));
        assert!(render_not_found().starts_with(b"HTTP/1.1 404"));
    }
}
