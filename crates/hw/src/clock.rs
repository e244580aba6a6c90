//! The simulated clock and hardware-event statistics.

use std::fmt;

use enclosure_telemetry::{Event, Recorder};

use crate::inject::{InjectionPlan, InjectionSite};
use crate::CostModel;

/// Counters for the hardware events the evaluation reports on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HwStats {
    /// PKRU register writes (LB_MPK switches do two each).
    pub wrpkru: u64,
    /// Guest system calls (LB_VTX switches do two each).
    pub guest_syscalls: u64,
    /// Host syscalls serviced.
    pub syscalls: u64,
    /// seccomp-BPF filter evaluations.
    pub seccomp_checks: u64,
    /// VM EXIT roundtrips.
    pub vm_exits: u64,
    /// `Transfer` operations serviced.
    pub transfers: u64,
    /// Enclosure prolog/epilog pairs (switch pairs).
    pub switch_pairs: u64,
    /// Virtual→hardware key bindings (libmpk-style virtualization).
    pub key_binds: u64,
    /// Virtual-key evictions (hardware key recycled via a sweep).
    pub key_evictions: u64,
    /// Sandbox child processes forked (LB_PROC lazy spawns + respawns).
    pub proc_spawns: u64,
    /// IPC round-trips to sandbox children (LB_PROC crossings).
    pub ipc_roundtrips: u64,
    /// Single socketpair messages (LB_PROC one-way traffic).
    pub pipe_msgs: u64,
}

impl fmt::Display for HwStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "switches={} wrpkru={} guest_syscalls={} syscalls={} seccomp={} vm_exits={} transfers={} key_binds={} key_evictions={} proc_spawns={} ipc_roundtrips={} pipe_msgs={}",
            self.switch_pairs,
            self.wrpkru,
            self.guest_syscalls,
            self.syscalls,
            self.seccomp_checks,
            self.vm_exits,
            self.transfers,
            self.key_binds,
            self.key_evictions,
            self.proc_spawns,
            self.ipc_roundtrips,
            self.pipe_msgs
        )
    }
}

/// The simulated nanosecond clock.
///
/// Every mechanism primitive and every workload compute step advances this
/// clock; benchmark harnesses read [`Clock::now_ns`] before and after a run
/// to report simulated latency/throughput, exactly as the paper reads
/// `rdtsc` around its loops.
#[derive(Debug, Clone)]
pub struct Clock {
    now_ns: u64,
    model: CostModel,
    stats: HwStats,
    recorder: Recorder,
    injection: Option<InjectionPlan>,
    injection_suspended: u32,
    throttle_milli: u64,
}

impl Clock {
    /// Creates a clock at time zero with the given cost model.
    #[must_use]
    pub fn new(model: CostModel) -> Clock {
        Clock {
            now_ns: 0,
            model,
            stats: HwStats::default(),
            recorder: Recorder::new(),
            injection: None,
            injection_suspended: 0,
            throttle_milli: 1_000,
        }
    }

    /// Sets the clock's throttle in thousandths: 1000 (the default)
    /// charges model costs verbatim; 4000 charges everything at 4× —
    /// the simulated analog of thermal or cgroup throttling. Purely a
    /// multiplier on subsequent charges; already-elapsed time is
    /// untouched. The fleet's brownout uses this to make a shard
    /// *genuinely slow*, not just erroring.
    pub fn set_throttle(&mut self, milli: u64) {
        self.throttle_milli = milli.max(1);
    }

    /// Advances simulated time by `ns` scaled by the throttle — the
    /// single funnel every charge goes through.
    fn tick(&mut self, ns: u64) {
        self.now_ns += ns * self.throttle_milli / 1_000;
    }

    /// Arms a fault-injection plan. Armed sites consult the plan on
    /// every query; with no plan armed (the default) every query is a
    /// single branch and charges nothing.
    pub fn arm_injection(&mut self, plan: InjectionPlan) {
        self.injection = Some(plan);
    }

    /// Disarms injection, returning the plan (with its fired count).
    pub fn disarm_injection(&mut self) -> Option<InjectionPlan> {
        self.injection.take()
    }

    /// The armed plan, if any.
    #[must_use]
    pub fn injection(&self) -> Option<&InjectionPlan> {
        self.injection.as_ref()
    }

    /// Suspends injection (recovery paths must be infallible: a
    /// containment sequence that could itself be injected would never
    /// converge). Nests; pair with [`Clock::resume_injection`]. Callers
    /// go through `LitterBox::uninjected`, which pairs the two; the
    /// workspace's clippy configuration rejects any other call.
    pub fn suspend_injection(&mut self) {
        self.injection_suspended += 1;
    }

    /// Resumes injection after a [`Clock::suspend_injection`].
    pub fn resume_injection(&mut self) {
        self.injection_suspended = self.injection_suspended.saturating_sub(1);
    }

    /// Consults the armed plan at `site`. Records an
    /// [`Event::InjectedFault`] when the site fires.
    pub fn should_inject(&mut self, site: InjectionSite) -> bool {
        if self.injection_suspended > 0 {
            return false;
        }
        let fires = self
            .injection
            .as_mut()
            .is_some_and(|plan| plan.should_fail(site));
        if fires {
            self.record(Event::InjectedFault { site: site.name() });
        }
        fires
    }

    /// A deterministic draw in `[0, n)` from the armed plan's stream
    /// (0 when no plan is armed).
    pub fn injection_roll(&mut self, n: u64) -> u64 {
        self.injection.as_mut().map_or(0, |p| p.roll(n))
    }

    /// The telemetry recorder riding on this clock. Every layer that
    /// can charge simulated time records its events here.
    #[must_use]
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Mutable access to the telemetry recorder.
    pub fn recorder_mut(&mut self) -> &mut Recorder {
        &mut self.recorder
    }

    /// Records a telemetry event stamped with the current simulated
    /// time. Always inlined, like [`Recorder::record`]: with nothing
    /// armed it is the event's counter bump.
    #[inline(always)]
    pub fn record(&mut self, event: Event) {
        self.recorder.record(self.now_ns, event);
    }

    /// Current simulated time in nanoseconds.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// The cost model in force.
    #[must_use]
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Event counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> HwStats {
        self.stats
    }

    /// Resets time, counters, and telemetry (used between benchmark
    /// phases; a trace ring stays enabled but is emptied).
    pub fn reset(&mut self) {
        self.now_ns = 0;
        self.stats = HwStats::default();
        self.recorder.reset();
    }

    /// Advances the clock by an arbitrary workload compute cost.
    pub fn advance(&mut self, ns: u64) {
        self.tick(ns);
    }

    /// Charges a vanilla closure call/return.
    pub fn charge_call(&mut self) {
        self.tick(self.model.call_base);
    }

    /// Charges one PKRU write.
    pub fn charge_wrpkru(&mut self) {
        self.tick(self.model.wrpkru);
        self.stats.wrpkru += 1;
    }

    /// Charges a call-site verification against the `.verif` list.
    pub fn charge_callsite_check(&mut self) {
        self.tick(self.model.callsite_check);
    }

    /// Charges one LB_VTX guest syscall (CR3 rewrite path).
    pub fn charge_guest_syscall(&mut self) {
        self.tick(self.model.guest_syscall);
        self.stats.guest_syscalls += 1;
    }

    /// Charges a host syscall's user/kernel crossing.
    pub fn charge_kernel_syscall(&mut self) {
        self.tick(self.model.kernel_syscall);
        self.stats.syscalls += 1;
    }

    /// Charges a seccomp-BPF evaluation.
    pub fn charge_seccomp(&mut self) {
        self.tick(self.model.seccomp_check);
        self.stats.seccomp_checks += 1;
    }

    /// Charges a VM EXIT/RESUME roundtrip.
    pub fn charge_vm_exit(&mut self) {
        self.tick(self.model.vm_exit);
        self.stats.vm_exits += 1;
        self.record(Event::VmExit);
    }

    /// Charges a `pkey_mprotect` over `pages` pages: the kernel walks and
    /// re-tags each PTE, so cost scales with the region (one Table 1 unit
    /// per 4 pages).
    pub fn charge_pkey_mprotect_pages(&mut self, pages: u64) {
        let ns = self.model.pkey_mprotect * page_units(pages);
        self.tick(ns);
        self.stats.transfers += 1;
        self.recorder.record_op("pkey_mprotect", ns);
        self.record(Event::PkeyMprotect { pages });
    }

    /// Charges the `pkey_mprotect` sweep that binds a virtual key: the
    /// newcomer meta-package's pages are re-tagged with the recycled
    /// hardware key (one Table 1 `pkey_mprotect` unit per 4 pages).
    /// Unlike [`Clock::charge_pkey_mprotect_pages`] this is binding
    /// traffic, not a `Transfer`, so it bumps `key_binds` instead.
    pub fn charge_key_bind_pages(&mut self, vkey: u32, hkey: u8, pages: u64) {
        let ns = self.model.pkey_mprotect * page_units(pages);
        self.tick(ns);
        self.stats.key_binds += 1;
        self.recorder.record_op("key_bind", ns);
        self.record(Event::KeyBind { vkey, hkey, pages });
    }

    /// Charges the `pkey_mprotect` sweep that evicts a cold binding:
    /// the victim meta-package's pages are swept unreachable before its
    /// hardware key is recycled. Costs one Table 1 `pkey_mprotect` unit
    /// per 4 pages; bumps `key_evictions`, not `transfers`.
    pub fn charge_key_evict_pages(&mut self, vkey: u32, hkey: u8, pages: u64) {
        let ns = self.model.pkey_mprotect * page_units(pages);
        self.tick(ns);
        self.stats.key_evictions += 1;
        self.recorder.record_op("key_evict", ns);
        self.record(Event::KeyEvict {
            vkey,
            hkey,
            pages,
            ns,
        });
    }

    /// Charges an LB_VTX transfer over `pages` pages (one Table 1 unit
    /// per 4 pages; presence-bit flips are cheap but still per-PTE).
    pub fn charge_vtx_transfer_pages(&mut self, pages: u64) {
        self.tick(self.model.vtx_transfer * page_units(pages));
        self.stats.transfers += 1;
    }

    /// Charges the `fork` + per-process seccomp install that spawns one
    /// LB_PROC sandbox child (lazy, on the first switch into its
    /// enclosure; `respawn` marks a supervisor-driven respawn after a
    /// child crash).
    pub fn charge_fork_spawn(&mut self, env: u32, respawn: bool) {
        let ns = self.model.fork_spawn;
        self.tick(ns);
        self.stats.proc_spawns += 1;
        self.recorder.record_op("fork_spawn", ns);
        self.record(Event::ProcSpawn { env, respawn });
    }

    /// Charges one LB_PROC crossing: a request + reply round-trip over
    /// the supervisor↔child socketpair.
    pub fn charge_ipc_roundtrip(&mut self, env: u32) {
        let ns = self.model.ipc_roundtrip;
        self.tick(ns);
        self.stats.ipc_roundtrips += 1;
        self.recorder.record_op("ipc_roundtrip", ns);
        self.record(Event::IpcCrossing { env });
    }

    /// Charges one one-way socketpair message (LB_PROC transfer
    /// traffic: page contents shipped to/from a child's address space,
    /// one message per 4-page unit).
    pub fn charge_pipe_msg(&mut self) {
        self.tick(self.model.pipe_msg);
        self.stats.pipe_msgs += 1;
    }

    /// Charges an LB_PROC transfer over `pages` pages: the page
    /// contents are shipped over the socketpair, one message per 4-page
    /// unit, and the supervisor updates the images.
    pub fn charge_proc_transfer_pages(&mut self, pages: u64) {
        let units = page_units(pages);
        let ns = self.model.pipe_msg * units;
        self.tick(ns);
        self.stats.pipe_msgs += units;
        self.stats.transfers += 1;
        self.recorder.record_op("proc_transfer", ns);
    }

    /// Records a completed prolog/epilog switch pair.
    pub fn note_switch_pair(&mut self) {
        self.stats.switch_pairs += 1;
    }
}

/// The Table 1 cost units a page-priced charge takes: one per 4 pages,
/// at least one.
fn page_units(pages: u64) -> u64 {
    pages.div_ceil(4).max(1)
}

impl Default for Clock {
    fn default() -> Self {
        Clock::new(CostModel::paper())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate() {
        let mut c = Clock::new(CostModel::paper());
        c.charge_call();
        c.charge_wrpkru();
        c.charge_wrpkru();
        c.charge_callsite_check();
        assert_eq!(c.now_ns(), 86);
        assert_eq!(c.stats().wrpkru, 2);
    }

    #[test]
    fn reset_clears_time_and_stats() {
        let mut c = Clock::default();
        c.charge_vm_exit();
        c.note_switch_pair();
        c.reset();
        assert_eq!(c.now_ns(), 0);
        assert_eq!(c.stats(), HwStats::default());
    }

    #[test]
    fn advance_adds_raw_time() {
        let mut c = Clock::new(CostModel::free());
        c.advance(1234);
        c.charge_kernel_syscall(); // free model: counts but costs nothing
        assert_eq!(c.now_ns(), 1234);
        assert_eq!(c.stats().syscalls, 1);
    }

    #[test]
    fn injection_is_free_and_inert_when_disarmed() {
        let mut c = Clock::new(CostModel::paper());
        for site in InjectionSite::ALL {
            assert!(!c.should_inject(site));
        }
        assert_eq!(c.now_ns(), 0);
        assert_eq!(c.recorder().counters().injected_faults, 0);
    }

    #[test]
    // The one caller outside `LitterBox::uninjected`: the counter's own
    // test.
    #[allow(clippy::disallowed_methods)]
    fn injection_fires_records_and_suspends() {
        let mut c = Clock::new(CostModel::paper());
        c.arm_injection(InjectionPlan::new(11, crate::inject::PPM));
        c.suspend_injection();
        assert!(!c.should_inject(InjectionSite::Wrpkru), "suspended");
        c.resume_injection();
        assert!(c.should_inject(InjectionSite::Wrpkru));
        assert_eq!(c.recorder().counters().injected_faults, 1);
        assert_eq!(c.now_ns(), 0, "injection itself charges nothing");
        assert_eq!(c.disarm_injection().unwrap().fired(), 1);
    }

    #[test]
    fn reset_keeps_the_armed_plan() {
        let mut c = Clock::default();
        c.arm_injection(InjectionPlan::new(5, crate::inject::PPM));
        c.reset();
        assert!(c.injection().is_some());
    }

    #[test]
    fn page_charges_feed_op_histograms() {
        let mut c = Clock::new(CostModel::paper());
        c.charge_pkey_mprotect_pages(8); // 2 units
        c.charge_key_evict_pages(3, 1, 4); // 1 unit
        c.charge_key_bind_pages(4, 1, 4); // 1 unit
        let ops = c.recorder().op_hists();
        assert_eq!(ops["pkey_mprotect"].count(), 1);
        assert_eq!(ops["pkey_mprotect"].sum(), 2 * c.model().pkey_mprotect);
        assert_eq!(ops["key_evict"].sum(), c.model().pkey_mprotect);
        assert_eq!(ops["key_bind"].sum(), c.model().pkey_mprotect);
    }

    #[test]
    fn proc_charges_accumulate_and_record() {
        let mut c = Clock::new(CostModel::paper());
        c.charge_fork_spawn(3, false);
        c.charge_ipc_roundtrip(3);
        c.charge_pipe_msg();
        let m = *c.model();
        assert_eq!(c.now_ns(), m.fork_spawn + m.ipc_roundtrip + m.pipe_msg);
        assert_eq!(c.stats().proc_spawns, 1);
        assert_eq!(c.stats().ipc_roundtrips, 1);
        assert_eq!(c.stats().pipe_msgs, 1);
        assert_eq!(c.recorder().counters().proc_spawns, 1);
        assert_eq!(c.recorder().counters().ipc_crossings, 1);
        let ops = c.recorder().op_hists();
        assert_eq!(ops["fork_spawn"].sum(), m.fork_spawn);
        assert_eq!(ops["ipc_roundtrip"].sum(), m.ipc_roundtrip);
    }

    #[test]
    fn stats_display_mentions_all_counters() {
        let s = HwStats::default().to_string();
        for key in ["switches", "wrpkru", "syscalls", "vm_exits", "transfers"] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
    }
}
