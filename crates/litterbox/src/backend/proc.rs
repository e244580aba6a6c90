//! `LB_PROC`: process sandboxes, the fallback for hosts with neither
//! MPK nor VT-x. The supervisor keeps the full address space; each
//! enclosure runs in a lazily forked child whose image holds only what
//! its view grants. Switches are pipe messages, an enclosed syscall is a
//! full IPC round-trip to the supervisor, and a per-process seccomp
//! program backs the proxy. Trusted code is the supervisor itself, so
//! its syscalls cross nothing.

use std::collections::HashMap;
use std::fmt::Write as _;

use enclosure_hw::proc::{ProcError, ProcSandbox, SpawnRecord};
use enclosure_hw::vtx::{EnvId, TRUSTED_ENV};
use enclosure_hw::{Clock, Cpu, InjectionSite};
use enclosure_kernel::seccomp::SeccompFilter;
use enclosure_kernel::SyscallRecord;
use enclosure_vmem::{Access, Addr, VirtRange, VmemError};

use super::{remap_arena, view_table, Build, Enforcer};
use crate::desc::EnclosureId;
use crate::fault::Fault;
use crate::machine::Program;

/// Per-environment Init cost: socketpair setup and the per-process
/// filter compile (the fork itself is lazy).
const INIT_NS_PER_ENV: u64 = 15_000;

#[derive(Debug)]
pub(crate) struct Proc {
    sandbox: ProcSandbox,
    /// One per-process seccomp program per environment, compiled at
    /// build and installed into each child at fork time. Process
    /// identity replaces LB_MPK's PKRU dispatch.
    filters: HashMap<EnvId, SeccompFilter>,
}

impl Proc {
    pub(crate) fn build(b: &mut Build<'_>) -> Result<Proc, Fault> {
        b.charge_init(INIT_NS_PER_ENV);
        let p = b.program;
        let trusted = view_table(&p.packages, "supervisor", &p.envs[&TRUSTED_ENV].view);
        let mut sandbox = ProcSandbox::new(trusted);
        let mut filters = HashMap::new();
        for (env, info) in &p.envs {
            if *env != TRUSTED_ENV {
                sandbox.install(*env, view_table(&p.packages, &info.name, &info.view));
            }
            let filter = SeccompFilter::compile_process(&info.policy)
                .map_err(|e| Fault::Init(format!("per-process seccomp compile failed: {e}")))?;
            filters.insert(*env, filter);
        }
        // An incremental rebuild must not kill running children: the
        // supervisor swaps in new images and filters, but a surviving
        // environment keeps its already-spawned process (and pid).
        if let Some(old) = b.old::<Proc>() {
            sandbox.adopt_spawned(&old.sandbox);
        }
        Ok(Proc { sandbox, filters })
    }

    /// The supervisor's spawn ledger.
    pub(crate) fn spawn_ledger(&self) -> &[SpawnRecord] {
        self.sandbox.spawn_ledger()
    }
}

impl Enforcer for Proc {
    fn switch(&mut self, _program: &Program, cpu: &mut Cpu, target: EnvId) -> Result<(), Fault> {
        // Lazy spawn + request message into a child; reply message back
        // to the supervisor (infallible, so `recover_to_trusted` always
        // converges).
        self.sandbox
            .switch(target, cpu.clock_mut())
            .map_err(|e| match e {
                ProcError::ForkFailed(_) => Fault::Transient { site: "proc_fork" },
                ProcError::UnknownEnv(_) => Fault::UnknownEnclosure(EnclosureId(target.0)),
            })?;
        Ok(())
    }

    fn charge_crossing(&self, clock: &mut Clock, env: EnvId) {
        // One IPC round-trip to the supervisor; the supervisor's own
        // syscalls cross no process boundary.
        if env != TRUSTED_ENV {
            clock.charge_ipc_roundtrip(env.0);
        }
    }

    fn verdict(&self, _program: &Program, _cpu: &Cpu, env: EnvId, record: &SyscallRecord) -> bool {
        // The child's own seccomp program backs the proxy.
        self.filters
            .get(&env)
            .expect("every environment's per-process filter is compiled at build")
            .check(record.sysno, &record.args, 0)
    }

    fn filter(
        &mut self,
        program: &Program,
        cpu: &mut Cpu,
        env: EnvId,
        record: &SyscallRecord,
    ) -> Result<bool, Fault> {
        if env == TRUSTED_ENV {
            // The supervisor calls the kernel directly: no child, no
            // proxy, no per-process filter tax.
            return Ok(true);
        }
        // The proxied request can be lost (EPIPE) before the supervisor
        // observes it, or the child can crash mid-request (reaped, and
        // respawned on the next switch in). Either failure is only
        // discovered after a pipe traversal, so it still costs one
        // message.
        let clock = cpu.clock_mut();
        if clock.should_inject(InjectionSite::PipeEpipe) {
            clock.charge_pipe_msg();
            return Err(Fault::Transient { site: "pipe_epipe" });
        }
        if clock.should_inject(InjectionSite::ChildCrash) {
            clock.charge_pipe_msg();
            self.sandbox.mark_crashed(env);
            return Err(Fault::Transient {
                site: "child_crash",
            });
        }
        self.charge_crossing(clock, env);
        Ok(self.verdict(program, cpu, env, record))
    }

    fn transfer(&mut self, program: &Program, clock: &mut Clock, range: VirtRange, to: &str) {
        // The supervisor ships the page contents over the pipe (one
        // message per 4-page unit) and rewrites every child's image.
        clock.charge_proc_transfer_pages(range.page_len());
        remap_arena(
            &mut self.sandbox,
            ProcSandbox::table_mut,
            program,
            range,
            to,
        );
    }

    fn check(&self, _cpu: &Cpu, addr: Addr, len: u64, needed: Access) -> Result<(), VmemError> {
        self.sandbox.check(addr, len, needed)
    }

    fn describe(&self, env: EnvId, out: &mut String) {
        if let Some(table) = self.sandbox.table(env) {
            let process = match self.sandbox.pid_of(env) {
                Some(pid) if self.sandbox.is_spawned(env) => format!("pid {pid}"),
                Some(pid) => format!("pid {pid} (crashed)"),
                None => "not spawned".to_owned(),
            };
            let _ = writeln!(
                out,
                "  sandbox: {} pages mapped, {process}",
                table.mapped_pages()
            );
        }
    }
}
