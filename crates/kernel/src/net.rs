//! A simulated loopback network with scriptable remote hosts and an
//! exfiltration ledger.
//!
//! Local sockets (IP `127.0.0.1`) connect to local listeners. Connections
//! to registered *remote hosts* succeed and can answer with scripted
//! responders (the "valid remote server" of the ssh-decorator scenario,
//! §6.5); everything sent off-box is also recorded in the exfiltration
//! ledger so the security evaluation can assert exactly which bytes left
//! the machine. The ledger keeps each distinct (destination, payload)
//! pair once: its one question, "did these bytes leave?", has the same
//! answer either way, and a long-running server that repeats a query
//! does not grow it.

use std::collections::VecDeque;

use enclosure_support::{IdMap, IdSet};
use std::fmt;

use crate::Errno;

/// An IPv4 address in host byte order.
#[must_use]
pub fn ipv4(a: u8, b: u8, c: u8, d: u8) -> u32 {
    u32::from_be_bytes([a, b, c, d])
}

/// The loopback address.
pub const LOCALHOST: u32 = 0x7f00_0001;

/// A socket address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SockAddr {
    /// IPv4 address, host byte order.
    pub ip: u32,
    /// TCP-ish port.
    pub port: u16,
}

impl SockAddr {
    /// Constructs an address.
    #[must_use]
    pub fn new(ip: u32, port: u16) -> SockAddr {
        SockAddr { ip, port }
    }

    /// Loopback on `port`.
    #[must_use]
    pub fn local(port: u16) -> SockAddr {
        SockAddr::new(LOCALHOST, port)
    }
}

impl fmt::Display for SockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.ip.to_be_bytes();
        write!(f, "{}.{}.{}.{}:{}", b[0], b[1], b[2], b[3], self.port)
    }
}

/// Identifier of a socket inside the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SocketId(pub u32);

type Responder = Box<dyn FnMut(&[u8]) -> Option<Vec<u8>> + Send>;

enum SocketState {
    /// Fresh socket, not yet bound or connected.
    Unbound,
    /// Listening socket with a queue of not-yet-accepted peers.
    Listener {
        addr: SockAddr,
        backlog: VecDeque<SocketId>,
    },
    /// Connected (or half of a local pair) stream.
    Stream {
        peer: Peer,
        rx: VecDeque<u8>,
        closed: bool,
    },
}

enum Peer {
    Local(SocketId),
    Remote(SockAddr),
}

/// The simulated network.
#[derive(Default)]
pub struct Network {
    sockets: IdMap<SocketId, SocketState>,
    listeners: IdMap<SockAddr, SocketId>,
    remotes: IdMap<SockAddr, Option<Responder>>,
    /// Distinct payloads sent off-box, per destination.
    exfil: IdMap<SockAddr, IdSet<Vec<u8>>>,
    next_id: u32,
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network")
            .field("sockets", &self.sockets.len())
            .field("listeners", &self.listeners.len())
            .field("remotes", &self.remotes.len())
            .field("exfil_payloads", &self.exfil_len())
            .finish()
    }
}

impl Network {
    /// An empty network.
    #[must_use]
    pub fn new() -> Network {
        Network::default()
    }

    /// Registers a remote host that accepts connections. `responder`, if
    /// given, is invoked on each received payload and may push a reply
    /// into the sender's receive queue.
    pub fn register_remote(&mut self, addr: SockAddr, responder: Option<Responder>) {
        self.remotes.insert(addr, responder);
    }

    /// True if any off-box payload contains `needle`.
    #[must_use]
    pub fn exfiltrated_contains(&self, needle: &[u8]) -> bool {
        self.exfil
            .values()
            .flatten()
            .any(|data| data.windows(needle.len().max(1)).any(|w| w == needle))
    }

    /// Live sockets, bound listeners, and distinct off-box payloads.
    pub(crate) fn table_sizes(&self) -> (usize, usize, usize) {
        (self.sockets.len(), self.listeners.len(), self.exfil_len())
    }

    fn exfil_len(&self) -> usize {
        self.exfil.values().map(IdSet::len).sum()
    }

    /// Creates a fresh socket.
    pub fn socket(&mut self) -> SocketId {
        let id = SocketId(self.next_id);
        self.next_id += 1;
        self.sockets.insert(id, SocketState::Unbound);
        id
    }

    /// Binds a socket to a local address.
    ///
    /// # Errors
    ///
    /// [`Errno::Eaddrinuse`] if another listener holds the address,
    /// [`Errno::Ebadf`] for unknown sockets, [`Errno::Einval`] if already
    /// bound/connected.
    pub fn bind(&mut self, id: SocketId, addr: SockAddr) -> Result<(), Errno> {
        if self.listeners.contains_key(&addr) {
            return Err(Errno::Eaddrinuse);
        }
        let state = self.sockets.get_mut(&id).ok_or(Errno::Ebadf)?;
        match state {
            SocketState::Unbound => {
                *state = SocketState::Listener {
                    addr,
                    backlog: VecDeque::new(),
                };
                Ok(())
            }
            _ => Err(Errno::Einval),
        }
    }

    /// Marks a bound socket as listening (registers it for connects).
    ///
    /// # Errors
    ///
    /// [`Errno::Ebadf`] / [`Errno::Einval`] for unknown or unbound sockets.
    pub fn listen(&mut self, id: SocketId) -> Result<(), Errno> {
        match self.sockets.get(&id) {
            Some(SocketState::Listener { addr, .. }) => {
                self.listeners.insert(*addr, id);
                Ok(())
            }
            Some(_) => Err(Errno::Einval),
            None => Err(Errno::Ebadf),
        }
    }

    /// Accepts a pending connection, if any.
    ///
    /// # Errors
    ///
    /// [`Errno::Eagain`] when the backlog is empty; [`Errno::Einval`] /
    /// [`Errno::Ebadf`] for non-listening or unknown sockets.
    pub fn accept(&mut self, id: SocketId) -> Result<SocketId, Errno> {
        match self.sockets.get_mut(&id) {
            Some(SocketState::Listener { backlog, .. }) => backlog.pop_front().ok_or(Errno::Eagain),
            Some(_) => Err(Errno::Einval),
            None => Err(Errno::Ebadf),
        }
    }

    /// Connects a socket to `addr`.
    ///
    /// A local listener yields a connected pair: the caller's socket and a
    /// server-side socket queued in the listener's backlog. A registered
    /// remote yields a stream to that host. Anything else refuses.
    ///
    /// # Errors
    ///
    /// [`Errno::Econnrefused`] if nobody listens at `addr`.
    pub fn connect(&mut self, id: SocketId, addr: SockAddr) -> Result<(), Errno> {
        if !matches!(self.sockets.get(&id), Some(SocketState::Unbound)) {
            return Err(Errno::Einval);
        }
        if let Some(&listener) = self.listeners.get(&addr) {
            // Create the server-side end.
            let server_end = SocketId(self.next_id);
            self.next_id += 1;
            self.sockets.insert(
                server_end,
                SocketState::Stream {
                    peer: Peer::Local(id),
                    rx: VecDeque::new(),
                    closed: false,
                },
            );
            *self.sockets.get_mut(&id).expect("checked") = SocketState::Stream {
                peer: Peer::Local(server_end),
                rx: VecDeque::new(),
                closed: false,
            };
            if let Some(SocketState::Listener { backlog, .. }) = self.sockets.get_mut(&listener) {
                backlog.push_back(server_end);
            }
            return Ok(());
        }
        if self.remotes.contains_key(&addr) {
            *self.sockets.get_mut(&id).expect("checked") = SocketState::Stream {
                peer: Peer::Remote(addr),
                rx: VecDeque::new(),
                closed: false,
            };
            return Ok(());
        }
        Err(Errno::Econnrefused)
    }

    /// Sends bytes on a connected socket. Off-box traffic lands in the
    /// exfiltration ledger and (if the remote has a responder) may
    /// enqueue a reply.
    ///
    /// # Errors
    ///
    /// [`Errno::Enotsock`] for non-stream sockets, [`Errno::Epipe`] if
    /// closed.
    pub fn send(&mut self, id: SocketId, data: &[u8]) -> Result<usize, Errno> {
        let (peer, closed) = match self.sockets.get(&id) {
            Some(SocketState::Stream { peer, closed, .. }) => {
                let peer = match peer {
                    Peer::Local(p) => Peer::Local(*p),
                    Peer::Remote(a) => Peer::Remote(*a),
                };
                (peer, *closed)
            }
            Some(_) => return Err(Errno::Enotsock),
            None => return Err(Errno::Ebadf),
        };
        if closed {
            return Err(Errno::Epipe);
        }
        match peer {
            Peer::Local(peer_id) => match self.sockets.get_mut(&peer_id) {
                Some(SocketState::Stream { rx, .. }) => {
                    rx.extend(data);
                    Ok(data.len())
                }
                _ => Err(Errno::Epipe),
            },
            Peer::Remote(addr) => {
                let sent = self.exfil.entry(addr).or_default();
                if !sent.contains(data) {
                    sent.insert(data.to_vec());
                }
                let reply = self
                    .remotes
                    .get_mut(&addr)
                    .ok_or(Errno::Epipe)?
                    .as_mut()
                    .and_then(|r| r(data));
                if let Some(reply) = reply {
                    if let Some(SocketState::Stream { rx, .. }) = self.sockets.get_mut(&id) {
                        rx.extend(reply);
                    }
                }
                Ok(data.len())
            }
        }
    }

    /// Receives up to `len` bytes: the queue's at most two contiguous
    /// slices are copied out, then dropped from the queue.
    ///
    /// # Errors
    ///
    /// [`Errno::Eagain`] when no data is queued and the socket is open;
    /// returns an empty vec at EOF (peer closed and queue drained).
    pub fn recv(&mut self, id: SocketId, len: usize) -> Result<Vec<u8>, Errno> {
        match self.sockets.get_mut(&id) {
            Some(SocketState::Stream { rx, closed, .. }) => {
                if rx.is_empty() {
                    if *closed {
                        return Ok(Vec::new());
                    }
                    return Err(Errno::Eagain);
                }
                let take = len.min(rx.len());
                let (front, back) = rx.as_slices();
                let from_front = take.min(front.len());
                let mut out = Vec::with_capacity(take);
                out.extend_from_slice(&front[..from_front]);
                out.extend_from_slice(&back[..take - from_front]);
                rx.drain(..take);
                Ok(out)
            }
            Some(_) => Err(Errno::Enotsock),
            None => Err(Errno::Ebadf),
        }
    }

    /// Closes a socket; the peer (if local) sees EOF after draining.
    /// Closing a listener resets every connection it never accepted, as
    /// Linux does: each pending server end closes, so its client reads
    /// EOF.
    ///
    /// # Errors
    ///
    /// [`Errno::Ebadf`] for unknown sockets.
    pub fn close(&mut self, id: SocketId) -> Result<(), Errno> {
        let state = self.sockets.remove(&id).ok_or(Errno::Ebadf)?;
        match state {
            SocketState::Listener { addr, backlog } => {
                // A bound socket that never listened does not own the
                // address's listener entry.
                if self.listeners.get(&addr) == Some(&id) {
                    self.listeners.remove(&addr);
                }
                for pending in backlog {
                    self.close(pending)?;
                }
            }
            SocketState::Stream {
                peer: Peer::Local(peer_id),
                ..
            } => {
                if let Some(SocketState::Stream { closed, .. }) = self.sockets.get_mut(&peer_id) {
                    *closed = true;
                }
            }
            _ => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn connected_pair(net: &mut Network) -> (SocketId, SocketId) {
        let listener = net.socket();
        net.bind(listener, SockAddr::local(80)).unwrap();
        net.listen(listener).unwrap();
        let client = net.socket();
        net.connect(client, SockAddr::local(80)).unwrap();
        let server = net.accept(listener).unwrap();
        (client, server)
    }

    #[test]
    fn local_roundtrip() {
        let mut net = Network::new();
        let (client, server) = connected_pair(&mut net);
        net.send(client, b"GET /").unwrap();
        assert_eq!(net.recv(server, 100).unwrap(), b"GET /");
        net.send(server, b"200 OK").unwrap();
        assert_eq!(net.recv(client, 100).unwrap(), b"200 OK");
    }

    #[test]
    fn accept_empty_backlog_is_eagain() {
        let mut net = Network::new();
        let listener = net.socket();
        net.bind(listener, SockAddr::local(81)).unwrap();
        net.listen(listener).unwrap();
        assert_eq!(net.accept(listener), Err(Errno::Eagain));
    }

    #[test]
    fn connect_refused_without_listener_or_remote() {
        let mut net = Network::new();
        let s = net.socket();
        assert_eq!(
            net.connect(s, SockAddr::new(ipv4(8, 8, 8, 8), 53)),
            Err(Errno::Econnrefused)
        );
    }

    #[test]
    fn double_bind_is_addrinuse() {
        let mut net = Network::new();
        let a = net.socket();
        net.bind(a, SockAddr::local(82)).unwrap();
        net.listen(a).unwrap();
        let b = net.socket();
        assert_eq!(net.bind(b, SockAddr::local(82)), Err(Errno::Eaddrinuse));
    }

    #[test]
    fn remote_send_lands_in_ledger_and_inbox() {
        let mut net = Network::new();
        let evil = SockAddr::new(ipv4(203, 0, 113, 9), 443);
        net.register_remote(evil, None);
        let s = net.socket();
        net.connect(s, evil).unwrap();
        net.send(s, b"stolen: SECRET-SSH-KEY").unwrap();
        assert!(net.exfiltrated_contains(b"SECRET-SSH-KEY"));
    }

    #[test]
    fn remote_responder_replies() {
        let mut net = Network::new();
        let host = SockAddr::new(ipv4(198, 51, 100, 7), 22);
        net.register_remote(
            host,
            Some(Box::new(|req: &[u8]| {
                Some(format!("echo:{}", req.len()).into_bytes())
            })),
        );
        let s = net.socket();
        net.connect(s, host).unwrap();
        net.send(s, b"hello").unwrap();
        assert_eq!(net.recv(s, 64).unwrap(), b"echo:5");
    }

    #[test]
    fn close_signals_eof_to_peer() {
        let mut net = Network::new();
        let (client, server) = connected_pair(&mut net);
        net.send(client, b"bye").unwrap();
        net.close(client).unwrap();
        assert_eq!(net.recv(server, 10).unwrap(), b"bye");
        assert_eq!(net.recv(server, 10).unwrap(), b"", "EOF after drain");
    }

    #[test]
    fn send_after_peer_close_is_epipe() {
        let mut net = Network::new();
        let (client, server) = connected_pair(&mut net);
        net.close(server).unwrap();
        assert_eq!(net.send(client, b"x"), Err(Errno::Epipe));
    }

    #[test]
    fn closing_listener_frees_address() {
        let mut net = Network::new();
        let a = net.socket();
        net.bind(a, SockAddr::local(90)).unwrap();
        net.listen(a).unwrap();
        net.close(a).unwrap();
        let b = net.socket();
        assert!(net.bind(b, SockAddr::local(90)).is_ok());
    }

    #[test]
    fn closing_listener_resets_its_backlog() {
        let mut net = Network::new();
        let listener = net.socket();
        net.bind(listener, SockAddr::local(91)).unwrap();
        net.listen(listener).unwrap();
        let clients = [net.socket(), net.socket()];
        for c in clients {
            net.connect(c, SockAddr::local(91)).unwrap();
        }
        net.close(listener).unwrap();
        for c in clients {
            assert_eq!(net.recv(c, 10).unwrap(), b"", "client reads EOF");
            net.close(c).unwrap();
        }
        assert_eq!(net.table_sizes(), (0, 0, 0), "no orphaned server ends");
    }

    #[test]
    fn closing_an_unlistened_bind_keeps_the_listener() {
        let mut net = Network::new();
        let stale = net.socket();
        net.bind(stale, SockAddr::local(92)).unwrap();
        let live = net.socket();
        net.bind(live, SockAddr::local(92)).unwrap();
        net.listen(live).unwrap();
        net.close(stale).unwrap();
        let client = net.socket();
        assert!(net.connect(client, SockAddr::local(92)).is_ok());
    }

    enclosure_support::props! {
        /// The set ledger answers the §6.5 oracle exactly as a log of
        /// every send would: random payloads, repeats included, to two
        /// remotes, probed with needles cut from them and random ones.
        fn set_ledger_matches_a_log_of_every_send(rng, cases = 64) {
            let hosts = [
                SockAddr::new(ipv4(203, 0, 113, 9), 443),
                SockAddr::new(ipv4(198, 51, 100, 7), 5432),
            ];
            let mut net = Network::new();
            let socks = hosts.map(|h| {
                net.register_remote(h, None);
                let s = net.socket();
                net.connect(s, h).unwrap();
                s
            });
            let word = |rng: &mut enclosure_support::XorShift, max: usize| -> Vec<u8> {
                let len = rng.range_usize(1, max + 1);
                (0..len).map(|_| *rng.choose(b"abcd")).collect()
            };
            let mut log: Vec<Vec<u8>> = Vec::new();
            for _ in 0..rng.range_usize(1, 24) {
                let data = if !log.is_empty() && rng.range_u64(0, 3) == 0 {
                    rng.choose(&log).clone()
                } else {
                    word(rng, 8)
                };
                let host = rng.range_usize(0, 2);
                net.send(socks[host], &data).unwrap();
                log.push(data);
            }
            for _ in 0..16 {
                let needle = if rng.next_bool() {
                    let data = rng.choose(&log).clone();
                    let start = rng.range_usize(0, data.len());
                    let end = rng.range_usize(start + 1, data.len() + 1);
                    data[start..end].to_vec()
                } else {
                    word(rng, 5)
                };
                let naive = log
                    .iter()
                    .any(|d| d.windows(needle.len()).any(|w| w == needle.as_slice()));
                assert_eq!(net.exfiltrated_contains(&needle), naive, "{needle:?}");
            }
        }
    }

    enclosure_support::props! {
        /// One stream against a plain FIFO: random sends, and reads
        /// shorter than, as long as and longer than what is queued, so
        /// that reads cross the receive queue's wrap point. Each read
        /// returns the model's bytes, `Eagain` on an empty open stream
        /// and EOF once the writer has closed and the queue is drained.
        fn recv_matches_a_fifo_across_the_wrap_point(rng, cases = 64) {
            let mut net = Network::new();
            let (client, server) = connected_pair(&mut net);
            let mut fifo: Vec<u8> = Vec::new();
            let mut closed = false;
            let mut wrapped_reads = 0;
            for op in 0.. {
                assert!(op < 4096, "no read crossed the wrap point");
                if !closed {
                    if op > 384 && wrapped_reads > 0 && rng.range_u64(0, 32) == 0 {
                        net.close(client).unwrap();
                        closed = true;
                        continue;
                    }
                    if rng.next_bool() {
                        let len = rng.range_usize(1, 48);
                        let data = rng.bytes(len);
                        assert_eq!(net.send(client, &data), Ok(len));
                        fifo.extend_from_slice(&data);
                        continue;
                    }
                }
                // Mostly shorter reads, which keep the queue non-empty
                // while its head moves round the buffer.
                let len = match rng.range_u64(0, 6) {
                    0..=3 => rng.range_usize(1, fifo.len().max(1) + 1),
                    4 => fifo.len().max(1),
                    _ => fifo.len() + rng.range_usize(1, 16),
                };
                if let Some(SocketState::Stream { rx, .. }) = net.sockets.get(&server) {
                    let (front, back) = rx.as_slices();
                    if !back.is_empty() && len > front.len() {
                        wrapped_reads += 1;
                    }
                }
                let got = net.recv(server, len);
                if fifo.is_empty() {
                    let expected = if closed { Ok(Vec::new()) } else { Err(Errno::Eagain) };
                    assert_eq!(got, expected, "read of {len} from an empty stream");
                    if closed {
                        break;
                    }
                } else {
                    let take = len.min(fifo.len());
                    assert_eq!(got.as_deref(), Ok(&fifo[..take]), "read of {len}");
                    fifo.drain(..take);
                }
            }
        }
    }

    #[test]
    fn sockaddr_display() {
        assert_eq!(SockAddr::local(8080).to_string(), "127.0.0.1:8080");
    }
}
