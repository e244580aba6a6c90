//! `LB_PROC`: process sandboxes, the pngbox-style fallback for hosts
//! with neither MPK nor VT-x.
//!
//! A trusted *supervisor* process keeps the full address space; each
//! enclosure gets a *child* process whose address-space image holds
//! only what its view grants, so memory isolation comes from ordinary
//! address-space separation. Every crossing is IPC over a `socketpair`:
//! a switch is a pipe message (the reply message is the matching switch
//! back), an enclosed syscall is a full round-trip to the supervisor,
//! and a per-process seccomp program, installed at `fork`, backs the
//! proxy. Trusted code is the supervisor itself, so its syscalls cross
//! nothing.
//!
//! Children are forked lazily on the first switch into their enclosure
//! ([`Clock::charge_fork_spawn`]), and the supervisor records every
//! spawn in its ledger. A crashed child is reaped, and respawned on the
//! next switch into it.

use std::fmt::Write as _;

use enclosure_hw::{Clock, EnvId, InjectionSite, SpawnRecord, TRUSTED_ENV};
use enclosure_kernel::seccomp::SeccompFilter;
use enclosure_kernel::SyscallRecord;
use enclosure_support::IdMap;
use enclosure_vmem::{Access, Addr, VirtRange, VmemError};

use super::{Build, Enforcer, EnvTables};
use crate::desc::EnclosureId;
use crate::fault::Fault;
use crate::machine::Program;

/// Per-environment Init cost: socketpair setup and the per-process
/// filter compile (the fork itself is lazy).
const INIT_NS_PER_ENV: u64 = 15_000;

/// The supervisor's pid: this process, always running.
const SUPERVISOR_PID: u32 = 1;

/// The pid of the first child the supervisor forks; each spawn takes
/// the next.
const FIRST_CHILD_PID: u32 = 100;

/// A forked sandbox child.
#[derive(Debug, Clone, Copy)]
struct Child {
    pid: u32,
    /// The child died (injected crash); the next switch respawns it.
    crashed: bool,
}

#[derive(Debug)]
pub(crate) struct Proc {
    /// Each environment's address-space image; the active slot is the
    /// running process.
    images: EnvTables,
    /// Every child forked so far, by environment (a crashed child keeps
    /// its pid until it is respawned).
    children: IdMap<EnvId, Child>,
    /// The supervisor's spawn ledger: every `fork` in order, respawns
    /// flagged.
    ledger: Vec<SpawnRecord>,
    /// One per-process seccomp program per environment, compiled at
    /// build and installed into each child at fork time. Process
    /// identity replaces LB_MPK's PKRU dispatch.
    filters: IdMap<EnvId, SeccompFilter>,
}

impl Proc {
    /// The sandbox for `b.program`, and its Init's price.
    pub(crate) fn build(b: &Build<'_>) -> Result<(Proc, u64), Fault> {
        let p = b.program;
        let mut filters = IdMap::default();
        for (env, info) in &p.envs {
            let filter = SeccompFilter::compile_process(&info.policy)
                .map_err(|e| Fault::Init(format!("per-process seccomp compile failed: {e}")))?;
            filters.insert(*env, filter);
        }
        let mut proc = Proc::new(EnvTables::of_views(p, "supervisor"), filters);
        // An incremental rebuild must not kill running children: the
        // supervisor swaps in new images and filters, but a surviving
        // environment keeps its process (pid and crash flag), and the
        // ledger spans generations. Children of environments that
        // vanished are reaped.
        if let Some(old) = b.old::<Proc>() {
            proc.children = old
                .children
                .iter()
                .filter(|(env, _)| p.envs.contains_key(env))
                .map(|(env, child)| (*env, *child))
                .collect();
            proc.ledger.clone_from(&old.ledger);
        }
        Ok((proc, b.init_price(INIT_NS_PER_ENV)))
    }

    /// A sandbox with no child forked yet, the supervisor running.
    fn new(images: EnvTables, filters: IdMap<EnvId, SeccompFilter>) -> Proc {
        Proc {
            images,
            children: IdMap::default(),
            ledger: Vec::new(),
            filters,
        }
    }

    /// The supervisor's spawn ledger.
    pub(crate) fn spawn_ledger(&self) -> &[SpawnRecord] {
        &self.ledger
    }

    /// The process backing `env`, once forked: the supervisor for the
    /// trusted environment.
    fn process(&self, env: EnvId) -> Option<Child> {
        if env == TRUSTED_ENV {
            return Some(Child {
                pid: SUPERVISOR_PID,
                crashed: false,
            });
        }
        self.children.get(&env).copied()
    }

    /// Ensures `env`'s child is running, forking it lazily, or as a
    /// respawn after a crash. An actual fork is charged and appended to
    /// the ledger. An injected fork failure (EAGAIN) fires before any
    /// state moves: nothing is charged, no child exists, and the switch
    /// can be retried.
    fn spawn(&mut self, env: EnvId, clock: &mut Clock) -> Result<(), Fault> {
        let respawn = match self.children.get(&env) {
            Some(child) if !child.crashed => return Ok(()),
            Some(_) => true,
            None => false,
        };
        if clock.should_inject(InjectionSite::ProcFork) {
            return Err(Fault::Transient { site: "proc_fork" });
        }
        let pid = FIRST_CHILD_PID + self.ledger.len() as u32;
        self.children.insert(
            env,
            Child {
                pid,
                crashed: false,
            },
        );
        self.ledger.push(SpawnRecord { env, pid, respawn });
        clock.charge_fork_spawn(env.0, respawn);
        Ok(())
    }
}

impl Enforcer for Proc {
    /// Into a child: the supervisor forwards the call as one pipe
    /// message, lazily forking the child first. Back to the supervisor:
    /// the child's reply message. That direction is infallible (no
    /// injection), so a call from trusted code always gets back to the
    /// supervisor.
    fn switch(
        &mut self,
        _program: &Program,
        clock: &mut Clock,
        target: EnvId,
    ) -> Result<(), Fault> {
        let Some(slot) = self.images.slot(target) else {
            return Err(Fault::UnknownEnclosure(EnclosureId(target.0)));
        };
        if target == self.images.current() {
            return Ok(());
        }
        if target != TRUSTED_ENV {
            self.spawn(target, clock)?;
        }
        // One message either way. Back to the supervisor, a crashed
        // child has no reply to send; the supervisor reclaims control on
        // the EOF it reads, which costs the same wakeup.
        clock.charge_pipe_msg();
        self.images.active = slot;
        Ok(())
    }

    fn charge_crossing(&self, clock: &mut Clock, env: EnvId) {
        // One IPC round-trip to the supervisor; the supervisor's own
        // syscalls cross no process boundary.
        if env != TRUSTED_ENV {
            clock.charge_ipc_roundtrip(env.0);
        }
    }

    fn verdict(&self, _program: &Program, env: EnvId, record: &SyscallRecord) -> bool {
        // The child's own seccomp program backs the proxy.
        self.filters
            .get(&env)
            .expect("every environment's per-process filter is compiled at build")
            .check(record.sysno, &record.args, 0)
    }

    fn filter(
        &mut self,
        program: &Program,
        clock: &mut Clock,
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
        if clock.should_inject(InjectionSite::PipeEpipe) {
            clock.charge_pipe_msg();
            return Err(Fault::Transient { site: "pipe_epipe" });
        }
        if clock.should_inject(InjectionSite::ChildCrash) {
            clock.charge_pipe_msg();
            if let Some(child) = self.children.get_mut(&env) {
                child.crashed = true;
            }
            return Err(Fault::Transient {
                site: "child_crash",
            });
        }
        self.charge_crossing(clock, env);
        Ok(self.verdict(program, env, record))
    }

    fn transfer(&mut self, program: &Program, clock: &mut Clock, range: VirtRange, to: &str) {
        // The supervisor ships the page contents over the pipe (one
        // message per 4-page unit) and rewrites every child's image.
        clock.charge_proc_transfer_pages(range.page_len());
        self.images.remap_arena(program, range, to);
    }

    fn permits(&self, addr: Addr, len: u64, needed: Access) -> bool {
        self.images.permits(addr, len, needed)
    }

    #[cold]
    fn denial(&self, addr: Addr, len: u64, needed: Access) -> VmemError {
        self.images.denial(addr, len, needed)
    }

    fn describe(&self, env: EnvId, out: &mut String) {
        if let Some(table) = self.images.table(env) {
            let process = match self.process(env) {
                Some(child) if child.crashed => format!("pid {} (crashed)", child.pid),
                Some(child) => format!("pid {}", child.pid),
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

#[cfg(test)]
mod tests {
    use super::*;
    use enclosure_hw::{inject::PPM, CostModel, InjectionPlan};
    use enclosure_vmem::{PageTable, PAGE_SIZE};

    fn table(name: &str, base: u64, pages: u64, rights: Access) -> PageTable {
        let mut t = PageTable::new(name);
        t.map_range(VirtRange::new(Addr(base), pages * PAGE_SIZE), rights, 0);
        t
    }

    fn sandbox() -> Proc {
        let mut sb = Proc::new(
            EnvTables::new(table("supervisor", 0x10_000, 4, Access::RWX)),
            IdMap::default(),
        );
        sb.images
            .install(EnvId(1), table("rcl", 0x10_000, 1, Access::R));
        sb
    }

    fn switch(sb: &mut Proc, env: EnvId, clock: &mut Clock) -> Result<(), Fault> {
        sb.switch(&Program::default(), clock, env)
    }

    /// True once `env`'s child has been forked and is alive.
    fn is_spawned(sb: &Proc, env: EnvId) -> bool {
        sb.process(env).is_some_and(|c| !c.crashed)
    }

    fn pid_of(sb: &Proc, env: EnvId) -> Option<u32> {
        sb.process(env).map(|c| c.pid)
    }

    /// An injected child crash while `sb` runs `env`.
    fn crash(sb: &mut Proc, env: EnvId, clock: &mut Clock) {
        clock.arm_injection(InjectionPlan::once(InjectionSite::ChildCrash));
        let record = SyscallRecord::new(enclosure_kernel::Sysno::Getpid);
        assert_eq!(
            sb.filter(&Program::default(), clock, env, &record),
            Err(Fault::Transient {
                site: "child_crash"
            })
        );
        clock.disarm_injection();
    }

    #[test]
    fn first_switch_lazily_forks_and_charges() {
        let mut sb = sandbox();
        let mut clock = Clock::new(CostModel::paper());
        assert!(!is_spawned(&sb, EnvId(1)));
        assert_eq!(sb.images.current(), TRUSTED_ENV, "switched away from");
        switch(&mut sb, EnvId(1), &mut clock).unwrap();
        assert_eq!(sb.images.current(), EnvId(1));
        assert!(is_spawned(&sb, EnvId(1)));
        let m = *clock.model();
        assert_eq!(clock.now_ns(), m.fork_spawn + m.pipe_msg);
        assert_eq!(clock.stats().proc_spawns, 1);
        assert_eq!(sb.spawn_ledger().len(), 1);
        assert!(!sb.spawn_ledger()[0].respawn);

        // The second round-trip reuses the child: pipe messages only.
        clock.reset();
        switch(&mut sb, TRUSTED_ENV, &mut clock).unwrap();
        switch(&mut sb, EnvId(1), &mut clock).unwrap();
        assert_eq!(clock.now_ns(), 2 * m.pipe_msg);
        assert_eq!(clock.stats().proc_spawns, 0);
        assert_eq!(sb.spawn_ledger().len(), 1, "no second fork");
    }

    #[test]
    fn switch_to_unknown_env_fails_without_charging() {
        let mut sb = sandbox();
        let mut clock = Clock::new(CostModel::paper());
        assert_eq!(
            switch(&mut sb, EnvId(9), &mut clock),
            Err(Fault::UnknownEnclosure(EnclosureId(9)))
        );
        assert_eq!(sb.images.current(), TRUSTED_ENV);
        assert_eq!(clock.now_ns(), 0);
    }

    #[test]
    fn injected_fork_failure_leaves_no_child() {
        let mut sb = sandbox();
        let mut clock = Clock::new(CostModel::paper());
        clock.arm_injection(InjectionPlan::once(InjectionSite::ProcFork));
        assert_eq!(
            switch(&mut sb, EnvId(1), &mut clock),
            Err(Fault::Transient { site: "proc_fork" })
        );
        assert_eq!(sb.images.current(), TRUSTED_ENV, "supervisor keeps control");
        assert!(!is_spawned(&sb, EnvId(1)));
        assert_eq!(clock.now_ns(), 0, "failed fork charges nothing");
        assert!(sb.spawn_ledger().is_empty());
        // Budget spent: the retry forks.
        assert!(switch(&mut sb, EnvId(1), &mut clock).is_ok());
        assert_eq!(sb.spawn_ledger().len(), 1);
    }

    #[test]
    fn crashed_child_is_respawned_with_a_ledger_mark() {
        let mut sb = sandbox();
        let mut clock = Clock::new(CostModel::paper());
        switch(&mut sb, EnvId(1), &mut clock).unwrap();
        let first_pid = pid_of(&sb, EnvId(1)).unwrap();
        crash(&mut sb, EnvId(1), &mut clock);
        assert!(!is_spawned(&sb, EnvId(1)));
        // The supervisor reclaims control (the EOF read), then the next
        // switch respawns.
        switch(&mut sb, TRUSTED_ENV, &mut clock).unwrap();
        switch(&mut sb, EnvId(1), &mut clock).unwrap();
        assert!(is_spawned(&sb, EnvId(1)));
        assert_ne!(pid_of(&sb, EnvId(1)).unwrap(), first_pid, "fresh pid");
        let ledger = sb.spawn_ledger();
        assert_eq!(ledger.len(), 2);
        assert!(!ledger[0].respawn);
        assert!(ledger[1].respawn);
        assert_eq!(clock.recorder().counters().proc_respawns, 1);
    }

    #[test]
    fn return_to_supervisor_is_injection_free() {
        let mut sb = sandbox();
        let mut clock = Clock::new(CostModel::paper());
        switch(&mut sb, EnvId(1), &mut clock).unwrap();
        // Arm everything: the reply direction must still succeed.
        clock.arm_injection(InjectionPlan::new(1, PPM));
        assert!(switch(&mut sb, TRUSTED_ENV, &mut clock).is_ok());
        assert_eq!(sb.images.current(), TRUSTED_ENV);
    }

    /// `check` must answer exactly as the image `current()` names.
    fn answers_from_current(sb: &Proc) {
        let table = sb.images.table(sb.images.current()).unwrap();
        for needed in [Access::R, Access::W, Access::X] {
            for addr in [0x10_000, 0x10_000 + PAGE_SIZE, 0x10_000 + 4 * PAGE_SIZE] {
                assert_eq!(
                    sb.check(Addr(addr), 8, needed),
                    table.check(Addr(addr), 8, needed)
                );
            }
        }
        assert!(std::ptr::eq(sb.images.active_table(), table));
    }

    #[test]
    fn checks_answer_from_the_current_environment() {
        let mut sb = sandbox();
        answers_from_current(&sb);
        let mut clock = Clock::new(CostModel::paper());
        switch(&mut sb, EnvId(1), &mut clock).unwrap();
        assert_eq!(sb.images.current(), EnvId(1));
        answers_from_current(&sb);
        // Reinstalling the running environment's image takes effect at once.
        sb.images
            .install(EnvId(1), table("rcl-2", 0x10_000, 2, Access::RW));
        answers_from_current(&sb);
        assert_eq!(&**sb.images.active_table().name(), "rcl-2");
        switch(&mut sb, TRUSTED_ENV, &mut clock).unwrap();
        answers_from_current(&sb);
        // A failed switch (fork fails) leaves the supervisor running.
        sb.images
            .install(EnvId(2), table("other", 0x10_000, 1, Access::NONE));
        clock.arm_injection(InjectionPlan::once(InjectionSite::ProcFork));
        assert!(switch(&mut sb, EnvId(2), &mut clock).is_err());
        assert_eq!(sb.images.current(), TRUSTED_ENV);
        answers_from_current(&sb);
        assert!(switch(&mut sb, EnvId(u32::MAX), &mut clock).is_err());
        answers_from_current(&sb);
        switch(&mut sb, EnvId(2), &mut clock).unwrap();
        assert_eq!(sb.images.current(), EnvId(2));
        answers_from_current(&sb);
    }

    #[test]
    fn checks_use_active_address_space() {
        let mut sb = Proc::new(
            EnvTables::new(table("supervisor", 0x10_000, 4, Access::RWX)),
            IdMap::default(),
        );
        sb.images
            .install(EnvId(1), table("rcl", 0x10_000, 4, Access::R));
        let mut clock = Clock::default();
        assert!(sb.check(Addr(0x10_000), 8, Access::W).is_ok());
        switch(&mut sb, EnvId(1), &mut clock).unwrap();
        assert!(matches!(
            sb.check(Addr(0x10_000), 8, Access::W),
            Err(VmemError::ProtectionFault { .. })
        ));
    }
}
