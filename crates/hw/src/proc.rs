//! Process-sandbox backend primitives (`LB_PROC`): the pngbox-style
//! fallback for hosts with neither MPK nor VT-x.
//!
//! A trusted *supervisor* process keeps the full address space; each
//! enclosure gets a *child* process whose address-space image contains
//! only the packages its view grants, so memory isolation comes from
//! ordinary address-space separation. Every crossing is real IPC over a
//! `socketpair`: entering an enclosure sends the call to its child (one
//! pipe message each direction), and an enclosed syscall is proxied to
//! the supervisor as a full round-trip. A per-process seccomp filter —
//! installed at `fork` time, see `enclosure_kernel::seccomp` — backs up
//! the proxy: even a compromised child cannot issue syscalls directly.
//!
//! Children are spawned *lazily* on the first switch into their
//! enclosure (`fork` + filter install, charged via
//! [`Clock::charge_fork_spawn`]) and every spawn is recorded in a ledger
//! the supervisor keeps. A crashed child is reaped and respawned by the
//! supervisor on the next switch.

use std::fmt;

use enclosure_vmem::{Access, Addr, PageTable, VmemError};

use crate::{Clock, InjectionSite};

pub use crate::vtx::{EnvId, TRUSTED_ENV};

/// One recorded `fork` in the supervisor's spawn ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpawnRecord {
    /// Environment the child backs.
    pub env: EnvId,
    /// The deterministic pid assigned to the child.
    pub pid: u32,
    /// Whether this spawn replaced a crashed child.
    pub respawn: bool,
}

/// One sandbox child: its address-space image (derived from the
/// enclosure's view) plus its process state.
#[derive(Debug)]
struct Child {
    env: EnvId,
    table: PageTable,
    /// `Some(pid)` once forked; `None` before the lazy spawn.
    pid: Option<u32>,
    /// The child died (injected crash); the next switch respawns it.
    crashed: bool,
}

/// The simulated process sandbox `LB_PROC` runs the application in.
///
/// Structurally a sibling of [`crate::vtx::Vm`]: one [`PageTable`] per
/// execution environment, in install order, and the running process's
/// slot, so a check reads it directly. The differences are the process
/// model — children exist only after their lazy spawn, may crash, and are
/// respawned by the supervisor — and the pricing: crossings are pipe
/// messages and IPC round-trips instead of CR3 rewrites and VM EXITs.
#[derive(Debug)]
pub struct ProcSandbox {
    children: Vec<Child>,
    current: usize,
    next_pid: u32,
    ledger: Vec<SpawnRecord>,
}

impl ProcSandbox {
    /// Creates a sandbox with only the supervisor's (trusted) address
    /// space installed. The supervisor is this process: pid 1, always
    /// running.
    #[must_use]
    pub fn new(trusted: PageTable) -> ProcSandbox {
        let mut sandbox = ProcSandbox {
            children: Vec::new(),
            current: 0,
            next_pid: 100,
            ledger: Vec::new(),
        };
        sandbox.install(TRUSTED_ENV, trusted);
        sandbox
    }

    fn slot(&self, env: EnvId) -> Option<usize> {
        self.children.iter().position(|c| c.env == env)
    }

    fn child(&self, env: EnvId) -> Option<&Child> {
        self.slot(env).map(|i| &self.children[i])
    }

    /// Registers environment `env`'s address-space image, replacing any
    /// previous one. The child process itself is not forked until the
    /// first switch into `env`.
    pub fn install(&mut self, env: EnvId, table: PageTable) {
        let child = Child {
            env,
            table,
            pid: if env == TRUSTED_ENV { Some(1) } else { None },
            crashed: false,
        };
        match self.slot(env) {
            Some(i) => self.children[i] = child,
            None => self.children.push(child),
        }
    }

    /// The environment whose process currently runs the program.
    #[must_use]
    pub fn current(&self) -> EnvId {
        self.children[self.current].env
    }

    /// True once `env`'s child has been forked and is alive.
    #[must_use]
    pub fn is_spawned(&self, env: EnvId) -> bool {
        self.child(env)
            .is_some_and(|c| c.pid.is_some() && !c.crashed)
    }

    /// The pid of `env`'s child, if it has ever been forked (a crashed
    /// child keeps its last pid until respawned).
    #[must_use]
    pub fn pid_of(&self, env: EnvId) -> Option<u32> {
        self.child(env).and_then(|c| c.pid)
    }

    /// The supervisor's spawn ledger: every `fork` in order, respawns
    /// flagged.
    #[must_use]
    pub fn spawn_ledger(&self) -> &[SpawnRecord] {
        &self.ledger
    }

    /// Total spawns so far (the ledger's length).
    #[must_use]
    pub fn spawn_count(&self) -> u64 {
        self.ledger.len() as u64
    }

    /// Carries live children over from a previous sandbox generation.
    ///
    /// An incremental init rebuilds address-space images and filters,
    /// but the supervisor does not kill running children to do it: an
    /// environment that was already spawned keeps its process (pid and
    /// crash flag) across the rebuild. The spawn ledger and pid counter
    /// carry over too, so spawn accounting spans generations; children
    /// of environments that vanished are simply not adopted (reaped).
    pub fn adopt_spawned(&mut self, old: &ProcSandbox) {
        for child in &mut self.children {
            if let Some(prev) = old.child(child.env) {
                child.pid = prev.pid;
                child.crashed = prev.crashed;
            }
        }
        self.next_pid = old.next_pid;
        self.ledger.clone_from(&old.ledger);
    }

    /// Marks the current child as crashed (an injected [`ChildCrash`]
    /// fired mid-crossing): the supervisor reaps it and takes control
    /// back. No-op on the trusted environment.
    ///
    /// [`ChildCrash`]: InjectionSite::ChildCrash
    pub fn mark_crashed(&mut self, env: EnvId) {
        if env == TRUSTED_ENV {
            return;
        }
        if let Some(i) = self.slot(env) {
            self.children[i].crashed = true;
        }
    }

    /// Ensures the child in `slot` is running, forking it (lazily, or as
    /// a respawn after a crash) if not. Charges
    /// [`Clock::charge_fork_spawn`] and appends to the spawn ledger on an
    /// actual fork.
    ///
    /// An injected fork failure (EAGAIN) fires before any state moves:
    /// nothing is charged, no child exists, and the switch can be retried.
    fn spawn(&mut self, slot: usize, clock: &mut Clock) -> Result<(), ProcError> {
        let child = &mut self.children[slot];
        if child.pid.is_some() && !child.crashed {
            return Ok(());
        }
        let respawn = child.crashed;
        if clock.should_inject(InjectionSite::ProcFork) {
            return Err(ProcError::ForkFailed(child.env));
        }
        let pid = self.next_pid;
        self.next_pid += 1;
        child.pid = Some(pid);
        child.crashed = false;
        self.ledger.push(SpawnRecord {
            env: child.env,
            pid,
            respawn,
        });
        clock.charge_fork_spawn(child.env.0, respawn);
        Ok(())
    }

    /// Switches control to `env`'s process.
    ///
    /// Into a child: the supervisor forwards the call as one pipe
    /// message (the reply message is the matching switch back), lazily
    /// forking the child first. Back to the supervisor: the child's
    /// reply message — this direction is infallible (no injection), so
    /// recovery paths always converge.
    ///
    /// # Errors
    ///
    /// [`ProcError::UnknownEnv`], [`ProcError::ForkFailed`]; either way
    /// the running process does not change.
    pub fn switch(&mut self, env: EnvId, clock: &mut Clock) -> Result<EnvId, ProcError> {
        let slot = self.slot(env).ok_or(ProcError::UnknownEnv(env))?;
        let previous = self.current();
        if slot == self.current {
            return Ok(previous);
        }
        if env == TRUSTED_ENV {
            // Reply message back to the supervisor. A crashed child has
            // no reply to send; the supervisor reclaims control on the
            // EOF it reads, which costs the same wakeup.
            clock.charge_pipe_msg();
            self.current = slot;
            return Ok(previous);
        }
        self.spawn(slot, clock)?;
        clock.charge_pipe_msg();
        self.current = slot;
        Ok(previous)
    }

    /// Checks a data access against the active process's address space.
    ///
    /// # Errors
    ///
    /// Propagates the page table's fault ([`VmemError`]).
    pub fn check(&self, addr: Addr, len: u64, needed: Access) -> Result<(), VmemError> {
        self.active_table().check(addr, len, needed)
    }

    /// The active process's page table.
    #[must_use]
    pub fn active_table(&self) -> &PageTable {
        &self.children[self.current].table
    }

    /// Mutable access to a specific environment's table (used by
    /// `Transfer` to update the address-space images).
    pub fn table_mut(&mut self, env: EnvId) -> Option<&mut PageTable> {
        let slot = self.slot(env)?;
        Some(&mut self.children[slot].table)
    }

    /// Read-only access to a specific environment's table.
    #[must_use]
    pub fn table(&self, env: EnvId) -> Option<&PageTable> {
        self.child(env).map(|c| &c.table)
    }
}

/// Errors specific to the process-sandbox layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcError {
    /// A switch referenced an environment with no installed
    /// address-space image.
    UnknownEnv(EnvId),
    /// `fork` of the environment's child failed transiently (EAGAIN);
    /// the switch may be retried.
    ForkFailed(EnvId),
}

impl fmt::Display for ProcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProcError::UnknownEnv(env) => {
                write!(f, "no sandbox process registered for {env}")
            }
            ProcError::ForkFailed(env) => {
                write!(f, "transient fork failure spawning the child for {env}")
            }
        }
    }
}

impl std::error::Error for ProcError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostModel, InjectionPlan};
    use enclosure_vmem::{VirtRange, PAGE_SIZE};

    fn table(name: &str, base: u64, pages: u64, rights: Access) -> PageTable {
        let mut t = PageTable::new(name);
        t.map_range(VirtRange::new(Addr(base), pages * PAGE_SIZE), rights, 0);
        t
    }

    fn sandbox() -> ProcSandbox {
        let mut sb = ProcSandbox::new(table("supervisor", 0x10_000, 4, Access::RWX));
        sb.install(EnvId(1), table("rcl", 0x10_000, 1, Access::R));
        sb
    }

    #[test]
    fn first_switch_lazily_forks_and_charges() {
        let mut sb = sandbox();
        let mut clock = Clock::new(CostModel::paper());
        assert!(!sb.is_spawned(EnvId(1)));
        let prev = sb.switch(EnvId(1), &mut clock).unwrap();
        assert_eq!(prev, TRUSTED_ENV);
        assert_eq!(sb.current(), EnvId(1));
        assert!(sb.is_spawned(EnvId(1)));
        let m = *clock.model();
        assert_eq!(clock.now_ns(), m.fork_spawn + m.pipe_msg);
        assert_eq!(clock.stats().proc_spawns, 1);
        assert_eq!(sb.spawn_ledger().len(), 1);
        assert!(!sb.spawn_ledger()[0].respawn);

        // The second round-trip reuses the child: pipe messages only.
        clock.reset();
        sb.switch(TRUSTED_ENV, &mut clock).unwrap();
        sb.switch(EnvId(1), &mut clock).unwrap();
        assert_eq!(clock.now_ns(), 2 * m.pipe_msg);
        assert_eq!(clock.stats().proc_spawns, 0);
        assert_eq!(sb.spawn_count(), 1, "no second fork");
    }

    #[test]
    fn switch_to_unknown_env_fails_without_charging() {
        let mut sb = sandbox();
        let mut clock = Clock::new(CostModel::paper());
        assert_eq!(
            sb.switch(EnvId(9), &mut clock),
            Err(ProcError::UnknownEnv(EnvId(9)))
        );
        assert_eq!(sb.current(), TRUSTED_ENV);
        assert_eq!(clock.now_ns(), 0);
    }

    #[test]
    fn injected_fork_failure_leaves_no_child() {
        let mut sb = sandbox();
        let mut clock = Clock::new(CostModel::paper());
        clock.arm_injection(InjectionPlan::once(InjectionSite::ProcFork));
        assert_eq!(
            sb.switch(EnvId(1), &mut clock),
            Err(ProcError::ForkFailed(EnvId(1)))
        );
        assert_eq!(sb.current(), TRUSTED_ENV, "supervisor keeps control");
        assert!(!sb.is_spawned(EnvId(1)));
        assert_eq!(clock.now_ns(), 0, "failed fork charges nothing");
        assert!(sb.spawn_ledger().is_empty());
        // Budget spent: the retry forks.
        assert!(sb.switch(EnvId(1), &mut clock).is_ok());
        assert_eq!(sb.spawn_count(), 1);
    }

    #[test]
    fn crashed_child_is_respawned_with_a_ledger_mark() {
        let mut sb = sandbox();
        let mut clock = Clock::new(CostModel::paper());
        sb.switch(EnvId(1), &mut clock).unwrap();
        let first_pid = sb.pid_of(EnvId(1)).unwrap();
        sb.mark_crashed(EnvId(1));
        assert!(!sb.is_spawned(EnvId(1)));
        // The supervisor reclaims control (the EOF read), then the next
        // switch respawns.
        sb.switch(TRUSTED_ENV, &mut clock).unwrap();
        sb.switch(EnvId(1), &mut clock).unwrap();
        assert!(sb.is_spawned(EnvId(1)));
        assert_ne!(sb.pid_of(EnvId(1)).unwrap(), first_pid, "fresh pid");
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
        sb.switch(EnvId(1), &mut clock).unwrap();
        // Arm everything: the reply direction must still succeed.
        clock.arm_injection(InjectionPlan::new(1, crate::inject::PPM));
        assert!(sb.switch(TRUSTED_ENV, &mut clock).is_ok());
        assert_eq!(sb.current(), TRUSTED_ENV);
    }

    /// `check` must answer exactly as the table `current()` names.
    fn answers_from_current(sb: &ProcSandbox) {
        let table = sb.table(sb.current()).unwrap();
        for needed in [Access::R, Access::W, Access::X] {
            for addr in [0x10_000, 0x10_000 + PAGE_SIZE, 0x10_000 + 4 * PAGE_SIZE] {
                assert_eq!(
                    sb.check(Addr(addr), 8, needed),
                    table.check(Addr(addr), 8, needed)
                );
            }
        }
        assert!(std::ptr::eq(sb.active_table(), table));
    }

    #[test]
    fn checks_answer_from_the_current_environment() {
        let mut sb = sandbox();
        answers_from_current(&sb);
        let mut clock = Clock::new(CostModel::paper());
        sb.switch(EnvId(1), &mut clock).unwrap();
        assert_eq!(sb.current(), EnvId(1));
        answers_from_current(&sb);
        // Reinstalling the running environment's image takes effect at once.
        sb.install(EnvId(1), table("rcl-2", 0x10_000, 2, Access::RW));
        answers_from_current(&sb);
        assert_eq!(&**sb.active_table().name(), "rcl-2");
        sb.switch(TRUSTED_ENV, &mut clock).unwrap();
        answers_from_current(&sb);
        // A failed switch (fork fails) leaves the supervisor running.
        sb.install(EnvId(2), table("other", 0x10_000, 1, Access::NONE));
        clock.arm_injection(InjectionPlan::once(InjectionSite::ProcFork));
        assert!(sb.switch(EnvId(2), &mut clock).is_err());
        assert_eq!(sb.current(), TRUSTED_ENV);
        answers_from_current(&sb);
        assert!(sb.switch(EnvId(u32::MAX), &mut clock).is_err());
        answers_from_current(&sb);
        sb.switch(EnvId(2), &mut clock).unwrap();
        assert_eq!(sb.current(), EnvId(2));
        answers_from_current(&sb);
    }

    #[test]
    fn checks_use_active_address_space() {
        let mut sb = ProcSandbox::new(table("supervisor", 0x10_000, 4, Access::RWX));
        sb.install(EnvId(1), table("rcl", 0x10_000, 4, Access::R));
        let mut clock = Clock::default();
        assert!(sb.check(Addr(0x10_000), 8, Access::W).is_ok());
        sb.switch(EnvId(1), &mut clock).unwrap();
        assert!(matches!(
            sb.check(Addr(0x10_000), 8, Access::W),
            Err(VmemError::ProtectionFault { .. })
        ));
    }
}
