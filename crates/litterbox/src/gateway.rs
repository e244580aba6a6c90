//! The system-call gateway: typed syscall entry points that pass through
//! `FilterSyscall` before reaching the kernel.
//!
//! Program code (frontend runtimes, workloads) calls these instead of the
//! kernel directly, so every call is subject to the current environment's
//! filter. Denials are [`Fault`]s (program-aborting); ordinary kernel
//! failures are [`enclosure_kernel::Errno`]s the program may handle.

use enclosure_hw::InjectionSite;
use enclosure_hw::TRUSTED_ENV;
use enclosure_kernel::fs::OpenFlags;
use enclosure_kernel::net::SockAddr;
use enclosure_kernel::{Errno, SyscallRecord, Sysno};

use crate::fault::{Fault, SysError};
use crate::machine::LitterBox;

/// An enclosed call's injected fault (see
/// [`LitterBox::draw_call_fault`]).
pub(crate) enum CallFault {
    /// A transient errno from the kernel.
    Errno(Errno),
    /// The backend's crossing was lost at `site`.
    Crossing(InjectionSite),
}

impl LitterBox {
    /// One deterministic transient errno, driven by the injection
    /// plan's PRNG: what an injected gateway failure returns, here and
    /// in the batched gateway.
    pub(crate) fn pick_transient_errno(&mut self) -> Errno {
        #[allow(clippy::cast_possible_truncation)]
        let pick = self
            .clock_mut()
            .injection_roll(Errno::TRANSIENT.len() as u64) as usize;
        Errno::TRANSIENT[pick]
    }

    /// Draws the injected fault of one enclosed call that passed its
    /// filter, for the synchronous gateway and the batch flush alike: a
    /// transient errno in the kernel (EAGAIN / EINTR / ENOMEM), else the
    /// loss of the backend's crossing (LB_VTX's VM EXIT). Trusted calls
    /// draw nothing. Either way nothing reached the kernel proper, so
    /// there is no state to undo.
    pub(crate) fn draw_call_fault(&mut self) -> Option<CallFault> {
        if self.current_env() == TRUSTED_ENV {
            return None;
        }
        if self.clock_mut().should_inject(InjectionSite::GatewayErrno) {
            return Some(CallFault::Errno(self.pick_transient_errno()));
        }
        let site = self.crossing_site()?;
        self.clock_mut()
            .should_inject(site)
            .then_some(CallFault::Crossing(site))
    }

    fn gate(&mut self, record: SyscallRecord) -> Result<(), SysError> {
        self.filter_syscall(record).map_err(SysError::Fault)?;
        match self.draw_call_fault() {
            None => Ok(()),
            Some(CallFault::Errno(errno)) => Err(SysError::Errno(errno)),
            Some(CallFault::Crossing(site)) => {
                let fault = self.trace_fault(Fault::Transient { site: site.name() });
                Err(SysError::Fault(fault))
            }
        }
    }

    /// `getuid` through the filter.
    ///
    /// # Errors
    ///
    /// [`SysError::Fault`] if the current filter denies `proc` calls.
    pub fn sys_getuid(&mut self) -> Result<u32, SysError> {
        self.gate(SyscallRecord::new(Sysno::Getuid))?;
        let (kernel, clock) = self.kernel_and_clock();
        Ok(kernel.getuid(clock))
    }

    /// `getpid` through the filter.
    ///
    /// # Errors
    ///
    /// [`SysError::Fault`] if the current filter denies `proc` calls.
    pub fn sys_getpid(&mut self) -> Result<u32, SysError> {
        self.gate(SyscallRecord::new(Sysno::Getpid))?;
        let (kernel, clock) = self.kernel_and_clock();
        Ok(kernel.getpid(clock))
    }

    /// `clock_gettime` through the filter.
    ///
    /// # Errors
    ///
    /// [`SysError::Fault`] if the current filter denies `time` calls.
    pub fn sys_clock_gettime(&mut self) -> Result<u64, SysError> {
        self.gate(SyscallRecord::new(Sysno::ClockGettime))?;
        let (kernel, clock) = self.kernel_and_clock();
        Ok(kernel.clock_gettime(clock))
    }

    /// `futex` through the filter.
    ///
    /// # Errors
    ///
    /// [`SysError::Fault`] if the current filter denies `sync` calls.
    pub fn sys_futex(&mut self) -> Result<(), SysError> {
        self.gate(SyscallRecord::new(Sysno::Futex))?;
        let (kernel, clock) = self.kernel_and_clock();
        kernel.futex(clock);
        Ok(())
    }

    /// `exec` through the filter (records the command; §6.5 backdoors).
    ///
    /// # Errors
    ///
    /// [`SysError::Fault`] if the current filter denies `proc` calls.
    pub fn sys_exec(&mut self, command: &str) -> Result<(), SysError> {
        self.gate(SyscallRecord::new(Sysno::Exec))?;
        let (kernel, clock) = self.kernel_and_clock();
        kernel.exec(clock, command);
        Ok(())
    }

    /// `open` through the filter.
    ///
    /// # Errors
    ///
    /// [`SysError::Fault`] on filter denial; [`SysError::Errno`] from the
    /// kernel.
    pub fn sys_open(&mut self, path: &str, flags: OpenFlags) -> Result<u32, SysError> {
        self.gate(SyscallRecord::open(flags))?;
        let (kernel, clock) = self.kernel_and_clock();
        Ok(kernel.open(clock, path, flags)?)
    }

    /// `read` through the filter.
    ///
    /// # Errors
    ///
    /// [`SysError::Fault`] on filter denial; [`SysError::Errno`] from the
    /// kernel (including `EAGAIN` on empty sockets).
    pub fn sys_read(&mut self, fd: u32, len: usize) -> Result<Vec<u8>, SysError> {
        self.gate(SyscallRecord::fd_len(Sysno::Read, fd, len))?;
        let (kernel, clock) = self.kernel_and_clock();
        Ok(kernel.read(clock, fd, len)?)
    }

    /// `write` through the filter.
    ///
    /// # Errors
    ///
    /// [`SysError::Fault`] on filter denial; [`SysError::Errno`] from the
    /// kernel.
    pub fn sys_write(&mut self, fd: u32, data: &[u8]) -> Result<usize, SysError> {
        self.gate(SyscallRecord::fd_len(Sysno::Write, fd, data.len()))?;
        let (kernel, clock) = self.kernel_and_clock();
        Ok(kernel.write(clock, fd, data)?)
    }

    /// `close` through the filter.
    ///
    /// # Errors
    ///
    /// [`SysError::Fault`] on filter denial; [`SysError::Errno`] from the
    /// kernel.
    pub fn sys_close(&mut self, fd: u32) -> Result<(), SysError> {
        self.gate(SyscallRecord::fd(Sysno::Close, fd))?;
        let (kernel, clock) = self.kernel_and_clock();
        Ok(kernel.close(clock, fd)?)
    }

    /// `socket` through the filter.
    ///
    /// # Errors
    ///
    /// [`SysError::Fault`] if the current filter denies `net` calls.
    pub fn sys_socket(&mut self) -> Result<u32, SysError> {
        self.gate(SyscallRecord::new(Sysno::Socket))?;
        let (kernel, clock) = self.kernel_and_clock();
        Ok(kernel.socket(clock))
    }

    /// `bind` through the filter.
    ///
    /// # Errors
    ///
    /// [`SysError::Fault`] on filter denial; [`SysError::Errno`] from the
    /// kernel.
    pub fn sys_bind(&mut self, fd: u32, addr: SockAddr) -> Result<(), SysError> {
        self.gate(SyscallRecord::fd_addr(Sysno::Bind, fd, addr))?;
        let (kernel, clock) = self.kernel_and_clock();
        Ok(kernel.bind(clock, fd, addr)?)
    }

    /// `listen` through the filter.
    ///
    /// # Errors
    ///
    /// [`SysError::Fault`] on filter denial; [`SysError::Errno`] from the
    /// kernel.
    pub fn sys_listen(&mut self, fd: u32) -> Result<(), SysError> {
        self.gate(SyscallRecord::fd(Sysno::Listen, fd))?;
        let (kernel, clock) = self.kernel_and_clock();
        Ok(kernel.listen(clock, fd)?)
    }

    /// `accept` through the filter.
    ///
    /// # Errors
    ///
    /// [`SysError::Fault`] on filter denial; [`SysError::Errno`] from the
    /// kernel (`EAGAIN` for an empty backlog).
    pub fn sys_accept(&mut self, fd: u32) -> Result<u32, SysError> {
        self.gate(SyscallRecord::fd(Sysno::Accept, fd))?;
        let (kernel, clock) = self.kernel_and_clock();
        Ok(kernel.accept(clock, fd)?)
    }

    /// `connect` through the filter. The destination address rides in the
    /// argument words, so §6.5-style allowlists can inspect it.
    ///
    /// # Errors
    ///
    /// [`SysError::Fault`] on filter denial; [`SysError::Errno`] from the
    /// kernel.
    pub fn sys_connect(&mut self, fd: u32, addr: SockAddr) -> Result<(), SysError> {
        self.gate(SyscallRecord::fd_addr(Sysno::Connect, fd, addr))?;
        let (kernel, clock) = self.kernel_and_clock();
        Ok(kernel.connect(clock, fd, addr)?)
    }

    /// `sendto` through the filter.
    ///
    /// # Errors
    ///
    /// [`SysError::Fault`] on filter denial; [`SysError::Errno`] from the
    /// kernel.
    pub fn sys_send(&mut self, fd: u32, data: &[u8]) -> Result<usize, SysError> {
        self.gate(SyscallRecord::fd_len(Sysno::Sendto, fd, data.len()))?;
        let (kernel, clock) = self.kernel_and_clock();
        Ok(kernel.send(clock, fd, data)?)
    }

    /// `recvfrom` through the filter.
    ///
    /// # Errors
    ///
    /// [`SysError::Fault`] on filter denial; [`SysError::Errno`] from the
    /// kernel (`EAGAIN` when no data is queued).
    pub fn sys_recv(&mut self, fd: u32, len: usize) -> Result<Vec<u8>, SysError> {
        self.gate(SyscallRecord::fd_len(Sysno::Recvfrom, fd, len))?;
        let (kernel, clock) = self.kernel_and_clock();
        Ok(kernel.recv(clock, fd, len)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backend, EnclosureDesc, EnclosureId, Fault, ProgramDesc};
    use enclosure_kernel::seccomp::SysPolicy;
    use enclosure_kernel::{CategorySet, SysCategory};
    use enclosure_vmem::Access;

    fn machine_with_enclosure(
        backend: Backend,
        policy: SysPolicy,
    ) -> (LitterBox, enclosure_vmem::Addr) {
        let mut lb = LitterBox::new(backend);
        let mut prog = ProgramDesc::new();
        prog.add_package(&mut lb, "lib", 1, 1, 1).unwrap();
        let cs = prog.verified_callsite();
        prog.add_enclosure(EnclosureDesc {
            id: EnclosureId(1),
            name: "e".into(),
            view: [("lib".to_string(), Access::RWX)].into_iter().collect(),
            policy,
            marked: vec![],
        });
        lb.init(prog).unwrap();
        (lb, cs)
    }

    #[test]
    fn trusted_code_calls_anything() {
        let (mut lb, _cs) = machine_with_enclosure(Backend::Mpk, SysPolicy::none());
        assert_eq!(lb.sys_getuid().unwrap(), 1000);
        let fd = lb.sys_socket().unwrap();
        lb.sys_close(fd).unwrap();
    }

    #[test]
    fn none_policy_blocks_everything_inside() {
        for backend in [Backend::Mpk, Backend::Vtx, Backend::Proc] {
            let (mut lb, cs) = machine_with_enclosure(backend, SysPolicy::none());
            let t = lb.prolog(EnclosureId(1), cs).unwrap();
            assert!(lb.sys_getuid().unwrap_err().is_fault());
            assert!(lb.sys_socket().unwrap_err().is_fault());
            assert!(lb
                .sys_open("/x", OpenFlags::read_only())
                .unwrap_err()
                .is_fault());
            lb.epilog(t).unwrap();
        }
    }

    #[test]
    fn net_only_policy_permits_sockets_not_files() {
        let (mut lb, cs) = machine_with_enclosure(
            Backend::Mpk,
            SysPolicy::categories(CategorySet::only(SysCategory::Net)),
        );
        let t = lb.prolog(EnclosureId(1), cs).unwrap();
        let fd = lb.sys_socket().unwrap();
        assert!(lb
            .sys_open("/etc/passwd", OpenFlags::read_only())
            .unwrap_err()
            .is_fault());
        // close is io-category: also denied under net-only.
        assert!(lb.sys_close(fd).unwrap_err().is_fault());
        lb.epilog(t).unwrap();
    }

    #[test]
    fn errno_is_not_a_fault() {
        let (mut lb, _cs) = machine_with_enclosure(Backend::Vtx, SysPolicy::none());
        let err = lb.sys_open("/missing", OpenFlags::read_only()).unwrap_err();
        assert!(!err.is_fault(), "ENOENT is recoverable: {err}");
    }

    #[test]
    fn connect_allowlist_enforced_end_to_end() {
        use enclosure_kernel::net::{ipv4, SockAddr};
        let good = SockAddr::new(ipv4(198, 51, 100, 7), 22);
        let evil = SockAddr::new(ipv4(203, 0, 113, 9), 443);
        for backend in [Backend::Mpk, Backend::Vtx, Backend::Proc] {
            let (mut lb, cs) = machine_with_enclosure(
                backend,
                SysPolicy::categories(CategorySet::only(SysCategory::Net))
                    .with_connect_allowlist(vec![good.ip]),
            );
            lb.kernel_mut().net.register_remote(good, None);
            lb.kernel_mut().net.register_remote(evil, None);
            let t = lb.prolog(EnclosureId(1), cs).unwrap();
            let fd = lb.sys_socket().unwrap();
            lb.sys_connect(fd, good).unwrap();
            let fd2 = lb.sys_socket().unwrap();
            let err = lb.sys_connect(fd2, evil).unwrap_err();
            assert!(matches!(
                err,
                crate::SysError::Fault(Fault::SyscallDenied { .. })
            ));
            lb.epilog(t).unwrap();
        }
    }

    #[test]
    fn injected_gateway_errno_hits_enclosed_callers_only() {
        use crate::InjectionPlan;
        let (mut lb, cs) = machine_with_enclosure(Backend::Mpk, SysPolicy::all());
        lb.clock_mut()
            .arm_injection(InjectionPlan::once(InjectionSite::GatewayErrno));
        // Trusted callers never see the gateway site.
        lb.sys_getuid().unwrap();
        let t = lb.prolog(EnclosureId(1), cs).unwrap();
        let err = lb.sys_getuid().unwrap_err();
        assert!(
            matches!(err, SysError::Errno(e) if e.is_transient()),
            "{err}"
        );
        // One-shot budget spent: the retry goes through.
        lb.sys_getuid().unwrap();
        lb.epilog(t).unwrap();
    }

    #[test]
    fn injected_vm_exit_fault_is_transient() {
        use crate::InjectionPlan;
        let (mut lb, cs) = machine_with_enclosure(Backend::Vtx, SysPolicy::all());
        lb.clock_mut()
            .arm_injection(InjectionPlan::once(InjectionSite::VmExit));
        let t = lb.prolog(EnclosureId(1), cs).unwrap();
        let err = lb.sys_getuid().unwrap_err();
        assert!(
            matches!(err, SysError::Fault(Fault::Transient { site: "vm_exit" })),
            "{err}"
        );
        lb.sys_getuid().unwrap();
        lb.epilog(t).unwrap();
    }

    #[test]
    fn vtx_syscall_cost_matches_table1() {
        let (mut lb, _cs) = machine_with_enclosure(Backend::Vtx, SysPolicy::all());
        let t0 = lb.now_ns();
        lb.sys_getuid().unwrap();
        assert_eq!(lb.now_ns() - t0, 4126, "387 + VM EXIT 3739");
    }

    #[test]
    fn mpk_syscall_cost_matches_table1() {
        let (mut lb, _cs) = machine_with_enclosure(Backend::Mpk, SysPolicy::all());
        let t0 = lb.now_ns();
        lb.sys_getuid().unwrap();
        assert_eq!(lb.now_ns() - t0, 523, "387 + seccomp 136");
    }

    #[test]
    fn proc_syscall_cost_is_an_ipc_roundtrip() {
        let (mut lb, cs) = machine_with_enclosure(Backend::Proc, SysPolicy::all());
        // The supervisor calls the kernel directly — no proxy tax.
        let t0 = lb.now_ns();
        lb.sys_getuid().unwrap();
        assert_eq!(lb.now_ns() - t0, 387, "trusted: kernel syscall only");
        // An enclosed call is proxied over the socketpair: kernel
        // syscall (387) + one IPC round-trip (8_400).
        let t = lb.prolog(EnclosureId(1), cs).unwrap();
        let t0 = lb.now_ns();
        lb.sys_getuid().unwrap();
        assert_eq!(lb.now_ns() - t0, 8_787, "387 + IPC round-trip 8_400");
        lb.epilog(t).unwrap();
    }

    /// The acceptance ordering for enclosed syscalls: the cheaper the
    /// isolation hardware, the cheaper the crossing — MPK < VT-x < a
    /// whole process round-trip.
    #[test]
    fn enclosed_syscall_costs_order_mpk_vtx_proc() {
        let mut measured = Vec::new();
        for backend in [Backend::Mpk, Backend::Vtx, Backend::Proc] {
            let (mut lb, cs) = machine_with_enclosure(backend, SysPolicy::all());
            let t = lb.prolog(EnclosureId(1), cs).unwrap();
            let t0 = lb.now_ns();
            lb.sys_getuid().unwrap();
            measured.push(lb.now_ns() - t0);
            lb.epilog(t).unwrap();
        }
        assert!(
            measured[0] < measured[1] && measured[1] < measured[2],
            "enclosed per-syscall cost must order MPK < VTX < PROC: {measured:?}"
        );
    }

    #[test]
    fn baseline_syscall_cost_matches_table1() {
        let (mut lb, _cs) = machine_with_enclosure(Backend::Baseline, SysPolicy::none());
        let t0 = lb.now_ns();
        lb.sys_getuid().unwrap();
        assert_eq!(lb.now_ns() - t0, 387);
    }
}
