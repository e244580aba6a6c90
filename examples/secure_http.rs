//! Secure HTTP — the §6.2 server benchmarks: an enclosed request handler
//! (net/http style) and an enclosed server with a trusted callback
//! goroutine (FastHTTP style).
//!
//! Run with: `cargo run --release --example secure_http`

use enclosure_repro::apps::fasthttp::FastHttpApp;
use enclosure_repro::apps::httpd::HttpApp;
use litterbox::Backend;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let requests = 200;

    println!("net/http: trusted server loop, ENCLOSED handler (no syscalls, no nethttp)");
    let mut base = 0.0;
    for backend in [Backend::Baseline, Backend::Mpk, Backend::Vtx] {
        let mut app = HttpApp::new(backend)?;
        app.runtime_mut().lb_mut().clock_mut().reset();
        let stats = app.serve_requests(requests)?;
        if backend == Backend::Baseline {
            base = stats.reqs_per_sec;
        }
        println!(
            "  {backend:<9} {:>9.0} req/s  (slowdown {:.2}x)",
            stats.reqs_per_sec,
            base / stats.reqs_per_sec
        );
    }
    println!("  paper: 16991 req/s | 1.02x MPK | 1.77x VTX\n");

    println!("FastHTTP: ENCLOSED server goroutine, trusted handler over channels");
    for backend in [Backend::Baseline, Backend::Mpk, Backend::Vtx] {
        let mut app = FastHttpApp::new(backend)?;
        app.runtime_mut().lb_mut().clock_mut().reset();
        let stats = app.serve_requests(requests, 1)?;
        if backend == Backend::Baseline {
            base = stats.reqs_per_sec;
        }
        let switches = app.runtime().lb().stats().switch_pairs
            + app.runtime().lb().stats().guest_syscalls / 2
            + app.runtime().lb().stats().wrpkru / 2;
        println!(
            "  {backend:<9} {:>9.0} req/s  (slowdown {:.2}x, ~{} env switches)",
            stats.reqs_per_sec,
            base / stats.reqs_per_sec,
            switches
        );
    }
    println!("  paper: 22867 req/s | 1.04x MPK | 2.01x VTX");
    println!(
        "\nshape check: syscall-bound servers barely notice MPK; VT-x pays a VM EXIT per syscall."
    );
    Ok(())
}
