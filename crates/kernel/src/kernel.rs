//! The kernel proper: fd table, typed syscall entry points, service costs.

use std::collections::BTreeMap;
use std::fmt;

use enclosure_hw::Clock;

use crate::fs::{FileSystem, OpenFlags};
use crate::net::{Network, SockAddr, SocketId};
use crate::{Errno, Sysno};

/// A syscall as seen by the filtering layer: number plus raw argument
/// words (the shape of `seccomp_data`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyscallRecord {
    /// The syscall number.
    pub sysno: Sysno,
    /// Raw argument words. For `connect`, `args[1]` is the destination
    /// IPv4 and `args[2]` the port.
    pub args: [u64; 6],
}

impl SyscallRecord {
    /// A record with no arguments.
    #[must_use]
    pub fn new(sysno: Sysno) -> SyscallRecord {
        SyscallRecord {
            sysno,
            args: [0; 6],
        }
    }

    /// A record with explicit arguments.
    #[must_use]
    pub fn with_args(sysno: Sysno, args: [u64; 6]) -> SyscallRecord {
        SyscallRecord { sysno, args }
    }

    /// The record for a `connect` to `addr` (arguments laid out the way
    /// the seccomp filter inspects them).
    #[must_use]
    pub fn connect(fd: u32, addr: SockAddr) -> SyscallRecord {
        SyscallRecord {
            sysno: Sysno::Connect,
            args: [
                u64::from(fd),
                u64::from(addr.ip),
                u64::from(addr.port),
                0,
                0,
                0,
            ],
        }
    }
}

impl fmt::Display for SyscallRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}({:#x}, {:#x}, ...)",
            self.sysno, self.args[0], self.args[1]
        )
    }
}

#[derive(Debug)]
enum FdKind {
    File {
        path: String,
        pos: usize,
        flags: OpenFlags,
    },
    Sock(SocketId),
}

/// Per-syscall service costs (beyond the generic user/kernel crossing),
/// in simulated nanoseconds.
#[derive(Debug, Clone, Copy)]
struct ServiceCosts {
    open: u64,
    stat: u64,
    unlink: u64,
    readdir: u64,
    io_base: u64,
    io_per_64b: u64,
    socket: u64,
    bind: u64,
    listen: u64,
    accept: u64,
    connect: u64,
    exec: u64,
    futex: u64,
}

impl ServiceCosts {
    fn default_costs() -> ServiceCosts {
        ServiceCosts {
            open: 250,
            stat: 150,
            unlink: 200,
            readdir: 300,
            io_base: 120,
            io_per_64b: 8,
            socket: 150,
            bind: 100,
            listen: 100,
            accept: 220,
            connect: 400,
            exec: 5000,
            futex: 300,
        }
    }
}

/// Entry counts of the kernel's resource tables: what a serve call
/// gives back when it ends (see [`Kernel::release_since`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableSizes {
    /// Open file descriptors.
    pub fds: usize,
    /// Live sockets, connected ends never accepted included.
    pub sockets: usize,
    /// Addresses with a listening socket.
    pub listeners: usize,
    /// Distinct (destination, payload) pairs in the off-box ledger.
    pub exfil: usize,
}

/// The simulated kernel: filesystem + network + process identity.
///
/// Each entry point takes the simulated [`Clock`] and charges the generic
/// syscall crossing plus a per-call service cost. **Filtering is not done
/// here** — LitterBox's `FilterSyscall` hook gates calls before they reach
/// these methods; the load generators in the benchmark harness call them
/// directly (they model traffic from *outside* the protected program).
#[derive(Debug)]
pub struct Kernel {
    /// The filesystem.
    pub fs: FileSystem,
    /// The network.
    pub net: Network,
    fds: BTreeMap<u32, FdKind>,
    next_fd: u32,
    uid: u32,
    pid: u32,
    exec_log: Vec<String>,
    costs: ServiceCosts,
}

impl Kernel {
    /// A kernel with an empty filesystem.
    #[must_use]
    pub fn new() -> Kernel {
        Kernel {
            fs: FileSystem::new(),
            net: Network::new(),
            fds: BTreeMap::new(),
            next_fd: 3, // 0..2 conventionally taken
            uid: 1000,
            pid: 4242,
            exec_log: Vec::new(),
            costs: ServiceCosts::default_costs(),
        }
    }

    /// A kernel with the demo home directory mounted (see
    /// [`FileSystem::with_demo_home`]).
    #[must_use]
    pub fn with_demo_home() -> Kernel {
        let mut k = Kernel::new();
        k.fs = FileSystem::with_demo_home();
        k
    }

    fn io_cost(&self, len: usize) -> u64 {
        self.costs.io_base + self.costs.io_per_64b * (len as u64).div_ceil(64)
    }

    fn charge(clock: &mut Clock, sysno: Sysno, service: u64) {
        clock.charge_kernel_syscall();
        clock.advance(service);
        let enclosed = clock.recorder().enclosed();
        clock.record(enclosure_telemetry::Event::SyscallEntry {
            sysno: sysno.nr(),
            category: sysno.category().keyword(),
            enclosed,
        });
    }

    /// The number the next fd will get. Fd numbers are never reused, so
    /// every fd opened after this call is numbered at or above it.
    #[must_use]
    pub fn fd_mark(&self) -> u32 {
        self.next_fd
    }

    /// Closes every fd numbered `mark` or above, the way a process exit
    /// closes its descriptors: sockets leave the network (a listener
    /// resets its unaccepted connections) and nothing is charged to any
    /// clock. A serve call ends with this, so a long-running server's
    /// kernel tables stay the size they were before the call.
    pub fn release_since(&mut self, mark: u32) {
        for kind in self.fds.split_off(&mark).into_values() {
            if let FdKind::Sock(sock) = kind {
                // Every fd owns its socket, and only a listener's close
                // removes another (never-accepted, fd-less) socket.
                let _ = self.net.close(sock);
            }
        }
    }

    /// Current entry counts of the fd, socket, listener and off-box
    /// ledger tables.
    #[must_use]
    pub fn table_sizes(&self) -> TableSizes {
        let (sockets, listeners, exfil) = self.net.table_sizes();
        TableSizes {
            fds: self.fds.len(),
            sockets,
            listeners,
            exfil,
        }
    }

    /// Commands passed to `exec` so far (the backdoor detector's ledger).
    #[must_use]
    pub fn exec_log(&self) -> &[String] {
        &self.exec_log
    }

    // --- proc / time ---

    /// `getuid`.
    pub fn getuid(&self, clock: &mut Clock) -> u32 {
        Self::charge(clock, Sysno::Getuid, 0);
        self.uid
    }

    /// `getpid`.
    pub fn getpid(&self, clock: &mut Clock) -> u32 {
        Self::charge(clock, Sysno::Getpid, 0);
        self.pid
    }

    /// `clock_gettime`: the simulated time itself.
    pub fn clock_gettime(&self, clock: &mut Clock) -> u64 {
        Self::charge(clock, Sysno::ClockGettime, 0);
        clock.now_ns()
    }

    /// `nanosleep`: advances simulated time.
    pub fn nanosleep(&self, clock: &mut Clock, ns: u64) {
        Self::charge(clock, Sysno::Nanosleep, ns);
    }

    /// `exec`: records the command (used by the backdoor scenarios; no
    /// actual process is spawned).
    pub fn exec(&mut self, clock: &mut Clock, command: &str) {
        Self::charge(clock, Sysno::Exec, self.costs.exec);
        self.exec_log.push(command.to_owned());
    }

    /// `futex`: charged wait/wake (no real blocking in the simulation).
    pub fn futex(&self, clock: &mut Clock) {
        Self::charge(clock, Sysno::Futex, self.costs.futex);
    }

    // --- file ---

    /// `open`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors ([`Errno::Enoent`] etc.).
    pub fn open(&mut self, clock: &mut Clock, path: &str, flags: OpenFlags) -> Result<u32, Errno> {
        Self::charge(clock, Sysno::Open, self.costs.open);
        self.fs.open(path, flags)?;
        let fd = self.next_fd;
        self.next_fd += 1;
        self.fds.insert(
            fd,
            FdKind::File {
                path: path.to_owned(),
                pos: 0,
                flags,
            },
        );
        Ok(fd)
    }

    /// `stat`: file size.
    ///
    /// # Errors
    ///
    /// [`Errno::Enoent`] for missing paths.
    pub fn stat(&self, clock: &mut Clock, path: &str) -> Result<u64, Errno> {
        Self::charge(clock, Sysno::Stat, self.costs.stat);
        self.fs.stat(path)
    }

    /// `unlink`.
    ///
    /// # Errors
    ///
    /// [`Errno::Enoent`] for missing paths.
    pub fn unlink(&mut self, clock: &mut Clock, path: &str) -> Result<(), Errno> {
        Self::charge(clock, Sysno::Unlink, self.costs.unlink);
        self.fs.unlink(path)
    }

    /// `readdir`: paths under a prefix.
    pub fn readdir(&self, clock: &mut Clock, prefix: &str) -> Vec<String> {
        Self::charge(clock, Sysno::Readdir, self.costs.readdir);
        self.fs.readdir(prefix)
    }

    // --- io ---

    /// `read` from a file or socket fd.
    ///
    /// # Errors
    ///
    /// [`Errno::Ebadf`] for unknown fds, [`Errno::Eacces`] for files opened
    /// without read, socket errors from the network layer.
    pub fn read(&mut self, clock: &mut Clock, fd: u32, len: usize) -> Result<Vec<u8>, Errno> {
        Self::charge(clock, Sysno::Read, self.io_cost(len));
        match self.fds.get_mut(&fd) {
            Some(FdKind::File { path, pos, flags }) => {
                if !flags.read {
                    return Err(Errno::Eacces);
                }
                let data = self.fs.read_at(path, *pos, len)?.to_vec();
                *pos += data.len();
                Ok(data)
            }
            Some(FdKind::Sock(sock)) => self.net.recv(*sock, len),
            None => Err(Errno::Ebadf),
        }
    }

    /// `write` to a file or socket fd.
    ///
    /// # Errors
    ///
    /// Mirror of [`Kernel::read`].
    pub fn write(&mut self, clock: &mut Clock, fd: u32, data: &[u8]) -> Result<usize, Errno> {
        Self::charge(clock, Sysno::Write, self.io_cost(data.len()));
        match self.fds.get_mut(&fd) {
            Some(FdKind::File { path, pos, flags }) => {
                if !flags.write {
                    return Err(Errno::Eacces);
                }
                self.fs.write_at(path, *pos, data)?;
                *pos += data.len();
                Ok(data.len())
            }
            Some(FdKind::Sock(sock)) => self.net.send(*sock, data),
            None => Err(Errno::Ebadf),
        }
    }

    /// `close`.
    ///
    /// # Errors
    ///
    /// [`Errno::Ebadf`] for unknown fds.
    pub fn close(&mut self, clock: &mut Clock, fd: u32) -> Result<(), Errno> {
        Self::charge(clock, Sysno::Close, self.costs.io_base);
        match self.fds.remove(&fd) {
            Some(FdKind::Sock(sock)) => self.net.close(sock),
            Some(FdKind::File { .. }) => Ok(()),
            None => Err(Errno::Ebadf),
        }
    }

    // --- net ---

    /// `socket`.
    pub fn socket(&mut self, clock: &mut Clock) -> u32 {
        Self::charge(clock, Sysno::Socket, self.costs.socket);
        let sock = self.net.socket();
        let fd = self.next_fd;
        self.next_fd += 1;
        self.fds.insert(fd, FdKind::Sock(sock));
        fd
    }

    /// `bind`.
    ///
    /// # Errors
    ///
    /// Network errors; [`Errno::Enotsock`] for non-socket fds.
    pub fn bind(&mut self, clock: &mut Clock, fd: u32, addr: SockAddr) -> Result<(), Errno> {
        Self::charge(clock, Sysno::Bind, self.costs.bind);
        let sock = self.sock_of(fd)?;
        self.net.bind(sock, addr)
    }

    /// `listen`.
    ///
    /// # Errors
    ///
    /// Network errors; [`Errno::Enotsock`] for non-socket fds.
    pub fn listen(&mut self, clock: &mut Clock, fd: u32) -> Result<(), Errno> {
        Self::charge(clock, Sysno::Listen, self.costs.listen);
        let sock = self.sock_of(fd)?;
        self.net.listen(sock)
    }

    /// `accept`: returns a new fd for the connection.
    ///
    /// # Errors
    ///
    /// [`Errno::Eagain`] when the backlog is empty.
    pub fn accept(&mut self, clock: &mut Clock, fd: u32) -> Result<u32, Errno> {
        Self::charge(clock, Sysno::Accept, self.costs.accept);
        let sock = self.sock_of(fd)?;
        let conn = self.net.accept(sock)?;
        let new_fd = self.next_fd;
        self.next_fd += 1;
        self.fds.insert(new_fd, FdKind::Sock(conn));
        Ok(new_fd)
    }

    /// `connect`.
    ///
    /// # Errors
    ///
    /// [`Errno::Econnrefused`] when nobody listens at `addr`.
    pub fn connect(&mut self, clock: &mut Clock, fd: u32, addr: SockAddr) -> Result<(), Errno> {
        Self::charge(clock, Sysno::Connect, self.costs.connect);
        let sock = self.sock_of(fd)?;
        self.net.connect(sock, addr)
    }

    /// `sendto` on a connected socket.
    ///
    /// # Errors
    ///
    /// Network errors.
    pub fn send(&mut self, clock: &mut Clock, fd: u32, data: &[u8]) -> Result<usize, Errno> {
        Self::charge(clock, Sysno::Sendto, self.io_cost(data.len()));
        let sock = self.sock_of(fd)?;
        self.net.send(sock, data)
    }

    /// `recvfrom` on a connected socket.
    ///
    /// # Errors
    ///
    /// [`Errno::Eagain`] when no data is available.
    pub fn recv(&mut self, clock: &mut Clock, fd: u32, len: usize) -> Result<Vec<u8>, Errno> {
        Self::charge(clock, Sysno::Recvfrom, self.io_cost(len));
        let sock = self.sock_of(fd)?;
        self.net.recv(sock, len)
    }

    fn sock_of(&self, fd: u32) -> Result<SocketId, Errno> {
        match self.fds.get(&fd) {
            Some(FdKind::Sock(sock)) => Ok(*sock),
            Some(_) => Err(Errno::Enotsock),
            None => Err(Errno::Ebadf),
        }
    }
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enclosure_hw::CostModel;

    fn clock() -> Clock {
        Clock::new(CostModel::paper())
    }

    #[test]
    fn getuid_costs_one_bare_syscall() {
        let k = Kernel::new();
        let mut c = clock();
        assert_eq!(k.getuid(&mut c), 1000);
        assert_eq!(c.now_ns(), 387, "getuid is the Table 1 baseline syscall");
        assert_eq!(c.stats().syscalls, 1);
    }

    #[test]
    fn file_read_write_via_fds() {
        let mut k = Kernel::new();
        let mut c = clock();
        let fd = k.open(&mut c, "/tmp/x", OpenFlags::write_create()).unwrap();
        k.write(&mut c, fd, b"hello world").unwrap();
        k.close(&mut c, fd).unwrap();

        let fd = k.open(&mut c, "/tmp/x", OpenFlags::read_only()).unwrap();
        assert_eq!(k.read(&mut c, fd, 5).unwrap(), b"hello");
        assert_eq!(k.read(&mut c, fd, 64).unwrap(), b" world");
        assert_eq!(k.read(&mut c, fd, 64).unwrap(), b"");
    }

    #[test]
    fn read_without_permission_is_eacces() {
        let mut k = Kernel::new();
        let mut c = clock();
        let fd = k.open(&mut c, "/f", OpenFlags::write_create()).unwrap();
        assert_eq!(k.read(&mut c, fd, 4), Err(Errno::Eacces));
    }

    #[test]
    fn socket_lifecycle_server_client() {
        let mut k = Kernel::new();
        let mut c = clock();
        let server = k.socket(&mut c);
        k.bind(&mut c, server, SockAddr::local(8080)).unwrap();
        k.listen(&mut c, server).unwrap();

        let client = k.socket(&mut c);
        k.connect(&mut c, client, SockAddr::local(8080)).unwrap();
        let conn = k.accept(&mut c, server).unwrap();

        k.send(&mut c, client, b"ping").unwrap();
        assert_eq!(k.recv(&mut c, conn, 16).unwrap(), b"ping");
        k.send(&mut c, conn, b"pong").unwrap();
        assert_eq!(k.recv(&mut c, client, 16).unwrap(), b"pong");
    }

    #[test]
    fn io_on_socket_fd_via_read_write() {
        let mut k = Kernel::new();
        let mut c = clock();
        let server = k.socket(&mut c);
        k.bind(&mut c, server, SockAddr::local(1234)).unwrap();
        k.listen(&mut c, server).unwrap();
        let client = k.socket(&mut c);
        k.connect(&mut c, client, SockAddr::local(1234)).unwrap();
        let conn = k.accept(&mut c, server).unwrap();
        // read/write work on sockets too (unified fd space).
        k.write(&mut c, client, b"x").unwrap();
        assert_eq!(k.read(&mut c, conn, 8).unwrap(), b"x");
    }

    #[test]
    fn release_since_closes_every_later_fd() {
        let mut k = Kernel::new();
        let mut c = clock();
        let kept = k.open(&mut c, "/keep", OpenFlags::write_create()).unwrap();
        let before = k.table_sizes();
        let mark = k.fd_mark();
        let server = k.socket(&mut c);
        k.bind(&mut c, server, SockAddr::local(8080)).unwrap();
        k.listen(&mut c, server).unwrap();
        for _ in 0..3 {
            let client = k.socket(&mut c);
            k.connect(&mut c, client, SockAddr::local(8080)).unwrap();
        }
        let conn = k.accept(&mut c, server).unwrap();
        k.send(&mut c, conn, b"reply").unwrap();
        k.release_since(mark);
        assert_eq!(k.table_sizes(), before);
        assert!(k.write(&mut c, kept, b"x").is_ok(), "earlier fds stay open");
        assert!(k.fd_mark() > conn, "fd numbers never rewind");
        let again = k.socket(&mut c);
        assert!(k.bind(&mut c, again, SockAddr::local(8080)).is_ok());
    }

    #[test]
    fn exec_is_logged() {
        let mut k = Kernel::new();
        let mut c = clock();
        k.exec(&mut c, "/bin/sh -c 'nc -l 1337'");
        assert_eq!(k.exec_log().len(), 1);
        assert!(k.exec_log()[0].contains("nc -l"));
    }

    #[test]
    fn io_cost_scales_with_length() {
        let mut k = Kernel::new();
        let mut c1 = clock();
        let fd = k.open(&mut c1, "/f", OpenFlags::write_create()).unwrap();
        let before = c1.now_ns();
        k.write(&mut c1, fd, &[0u8; 64]).unwrap();
        let small = c1.now_ns() - before;
        let before = c1.now_ns();
        k.write(&mut c1, fd, &[0u8; 6400]).unwrap();
        let large = c1.now_ns() - before;
        assert!(
            large > small,
            "larger writes cost more ({large} vs {small})"
        );
    }

    #[test]
    fn bad_fd_everywhere() {
        let mut k = Kernel::new();
        let mut c = clock();
        assert_eq!(k.read(&mut c, 99, 1), Err(Errno::Ebadf));
        assert_eq!(k.write(&mut c, 99, b"x"), Err(Errno::Ebadf));
        assert_eq!(k.close(&mut c, 99), Err(Errno::Ebadf));
        assert_eq!(k.send(&mut c, 99, b"x"), Err(Errno::Ebadf));
    }

    #[test]
    fn file_fd_is_not_a_socket() {
        let mut k = Kernel::new();
        let mut c = clock();
        let fd = k.open(&mut c, "/f", OpenFlags::write_create()).unwrap();
        assert_eq!(k.listen(&mut c, fd), Err(Errno::Enotsock));
        assert_eq!(
            k.connect(&mut c, fd, SockAddr::local(1)),
            Err(Errno::Enotsock)
        );
    }
}
