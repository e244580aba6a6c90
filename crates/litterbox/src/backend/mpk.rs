//! `LB_MPK`: Intel Memory Protection Keys (§5.3) with libmpk-style key
//! virtualization.
//!
//! Every environment shares one page table whose pages carry the
//! hardware key bound to their meta-package's *virtual* key; a switch
//! is a WRPKRU to the target's PKRU image, and syscalls are checked by
//! a seccomp-BPF program indexed on PKRU. At most 15 virtual keys are
//! bound at a time: a switch demand-binds the target's working set,
//! evicting the least-recently-used binding outside it with a
//! `pkey_mprotect` sweep that parks the victim's pages non-present
//! (libmpk's `PROT_NONE`).

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

use enclosure_hw::mpk::{Pkru, NUM_KEYS};
use enclosure_hw::vtx::{EnvId, TRUSTED_ENV};
use enclosure_hw::{Clock, Cpu, InjectionSite, VirtualKey, VirtualKeyTable};
use enclosure_kernel::bpf;
use enclosure_kernel::seccomp::{SeccompFilter, SeccompRule, SysPolicy};
use enclosure_kernel::SyscallRecord;
use enclosure_telemetry::Event;
use enclosure_vmem::{Access, Addr, PageTable, ProtectionKey, VirtRange, VmemError, NO_KEY};

use super::{Build, Enforcer};
use crate::cluster::{Clustering, MetaPackage};
use crate::desc::{EnclosureId, ViewMap};
use crate::fault::Fault;
use crate::machine::{MpkKeyMode, Program, LB_SUPER_PKG, LB_USER_PKG};

/// Per-environment Init cost: key setup and one seccomp rule.
const INIT_NS_PER_ENV: u64 = 3_000;

/// Hardware keys LB_MPK can hand out (key 0 is reserved).
const MAX_BOUND_KEYS: usize = NUM_KEYS as usize - 1;

#[derive(Debug)]
pub(crate) struct Mpk {
    table: PageTable,
    vkeys: VirtualKeyTable,
    vkey_of_meta: Vec<VirtualKey>,
    /// PKRU images per environment, valid at `pkru_epoch`. They depend
    /// only on the bindings (not on which environment is in front), so
    /// one recompute serves every switch until the bindings move.
    pkru_of_env: HashMap<EnvId, Pkru>,
    pkru_epoch: u64,
    /// Compiled seccomp programs per front environment. Emptied whenever
    /// the bindings move (the PKRU values the rules index on all move),
    /// so whatever it holds is fresh.
    filters: HashMap<EnvId, SeccompFilter>,
    /// Environment whose filter is loaded (the one syscalls are checked
    /// against).
    front: EnvId,
    /// Telemetry-guided eviction pins: virtual keys of "hot" metas the
    /// LRU should avoid evicting. Advisory: when every other binding is
    /// pinned by the running working set, a hot meta is still evicted,
    /// so pinning never introduces a failure the pure LRU would not
    /// have.
    hot: Vec<VirtualKey>,
}

impl Mpk {
    pub(crate) fn build(b: &mut Build<'_>) -> Result<Mpk, Fault> {
        b.charge_init(INIT_NS_PER_ENV);
        let p = b.program;
        // ERIM-style screening (§5.3): only the LitterBox package may
        // modify PKRU, so untrusted text must hold no WRPKRU/XRSTOR.
        for (name, sections) in &p.packages {
            if name == LB_USER_PKG || name == LB_SUPER_PKG {
                continue;
            }
            for section in sections {
                if let Some(addr) = crate::scan::scan_section(b.space, section) {
                    return Err(Fault::Init(format!(
                        "package '{name}' contains a PKRU-writing instruction at {addr}                              (section {}); only LitterBox may execute WRPKRU",
                        section.name()
                    )));
                }
            }
        }

        let clustering = &p.clustering;
        let mut vkeys = VirtualKeyTable::new();
        let vkey_of_meta: Vec<VirtualKey> =
            clustering.metas.iter().map(|_| vkeys.alloc()).collect();

        // Filter-ambiguity check, independent of which virtual keys
        // happen to be bound: two environments whose views induce the
        // same per-meta data rights produce the same PKRU value whenever
        // their working sets are resident, so their syscall policies must
        // agree (seccomp indexes on PKRU).
        let mut env_ids: Vec<EnvId> = p.envs.keys().copied().collect();
        env_ids.sort();
        let mut seen_sig: HashMap<Vec<Access>, (&str, &SysPolicy)> = HashMap::new();
        for env in &env_ids {
            let info = &p.envs[env];
            let sig: Vec<Access> = clustering
                .metas
                .iter()
                .map(|m| meta_rights(m, &info.view).intersection(Access::RW))
                .collect();
            match seen_sig.get(&sig) {
                Some((other, policy)) if **policy != info.policy => {
                    return Err(Fault::Init(format!(
                        "environments '{other}' and '{}' share PKRU data rights but \
                         differ in syscall filters; LB_MPK cannot distinguish them \
                         (seccomp indexes on PKRU)",
                        info.name
                    )));
                }
                Some(_) => {}
                None => {
                    seen_sig.insert(sig, (&info.name, &info.policy));
                }
            }
        }

        let super_meta = clustering.meta_of.get(LB_SUPER_PKG).copied();
        match b.mpk_key_mode {
            MpkKeyMode::Static => {
                // One hardware key per meta for the program's lifetime.
                for &v in &vkey_of_meta {
                    vkeys.bind(v).map_err(|_| {
                        Fault::Init(format!(
                            "{} meta-packages exceed the 16 MPK keys; \
                             libmpk-style key virtualization would be required (§5.3)",
                            clustering.len()
                        ))
                    })?;
                }
            }
            MpkKeyMode::Virtual => {
                // Virtualization multiplexes keys *across* switches; each
                // single environment's working set must still fit the
                // hardware at once.
                for env in &env_ids {
                    if *env == TRUSTED_ENV {
                        continue;
                    }
                    let info = &p.envs[env];
                    let pinned = working_set(clustering, &info.view).count();
                    if pinned > MAX_BOUND_KEYS {
                        return Err(Fault::Init(format!(
                            "enclosure '{}' views {pinned} meta-packages at once, \
                             more than the {MAX_BOUND_KEYS} hardware keys key \
                             virtualization can bind simultaneously",
                            info.name
                        )));
                    }
                }
                // Warm the cache in meta order. litterbox.super is never
                // bound: its pages stay parked (non-present) for the
                // program's lifetime, unreachable by every environment —
                // strictly stronger than a PKRU access-disable bit.
                for meta in &clustering.metas {
                    if Some(meta.index) == super_meta || vkeys.free_hkeys() == 0 {
                        continue;
                    }
                    let _ = vkeys.bind(vkey_of_meta[meta.index]);
                }
            }
        }

        let mut table = PageTable::new("mpk-shared");
        for (name, sections) in &p.packages {
            let key = vkeys.binding(vkey_of_meta[clustering.meta_of[name]]);
            for section in sections {
                map_keyed(&mut table, section.range(), section.default_rights(), key);
            }
        }

        let mut mpk = Mpk {
            table,
            pkru_of_env: pkru_map(p, &vkeys, &vkey_of_meta),
            pkru_epoch: vkeys.epoch(),
            vkeys,
            vkey_of_meta,
            filters: HashMap::new(),
            front: b.current,
            hot: b
                .old::<Mpk>()
                .map(|old| old.hot.clone())
                .unwrap_or_default(),
        };
        mpk.load_filter(p, b.current)?;
        Ok(mpk)
    }

    /// The virtual-key table: bindings, LRU state, and the ledger.
    pub(crate) fn vkeys(&self) -> &VirtualKeyTable {
        &self.vkeys
    }

    /// The compiled seccomp-BPF program of the front environment.
    pub(crate) fn seccomp_program(&self) -> Option<&bpf::Program> {
        self.filters.get(&self.front).map(SeccompFilter::program)
    }

    /// The hardware key backing meta-package `meta`, if bound.
    pub(crate) fn hardware_key_of(&self, meta: usize) -> Option<ProtectionKey> {
        self.vkeys.binding(self.vkey_of_meta[meta])
    }

    /// Replaces the hot set with the metas `metas`.
    pub(crate) fn pin_hot(&mut self, metas: &[usize]) {
        self.hot.clear();
        for &meta in metas {
            let v = self.vkey_of_meta[meta];
            if !self.hot.contains(&v) {
                self.hot.push(v);
            }
        }
    }

    /// Demand-binds meta-package `meta` from environment `current`
    /// (libmpk's `pkey_sync`), with `current`'s resident working set
    /// pinned so the bind never evicts what the running code needs, then
    /// re-grants under the new bindings. Under
    /// [`MpkKeyMode::Static`] every meta is bound for life, so this only
    /// refreshes its LRU stamp.
    pub(crate) fn bind_package(
        &mut self,
        p: &Program,
        cpu: &mut Cpu,
        current: EnvId,
        meta: usize,
    ) -> Result<(), Fault> {
        let mut pinned: Vec<VirtualKey> = Vec::new();
        if current != TRUSTED_ENV {
            pinned.extend(
                working_set(&p.clustering, &p.envs[&current].view)
                    .map(|m| self.vkey_of_meta[m.index])
                    .filter(|&v| self.vkeys.is_bound(v)),
            );
        }
        pinned.push(self.vkey_of_meta[meta]);
        self.bind(p, cpu, &pinned, meta)?;
        // The freshly bound key must be usable from the running
        // environment right away.
        if self.refresh(p) {
            self.load_filter(p, current)?;
            cpu.write_pkru(self.pkru_of_env[&current]);
        }
        Ok(())
    }

    /// Checks the stale-binding security invariant for environment
    /// `current`: the virtual-key table is consistent, and every hardware
    /// key the live PKRU grants rights on belongs to a meta-package whose
    /// rights in `current`'s view cover the grant.
    pub(crate) fn stale_binding_violation(
        &self,
        p: &Program,
        cpu: &Cpu,
        current: EnvId,
    ) -> Option<String> {
        if let Some(v) = self.vkeys.invariant_violation() {
            return Some(v);
        }
        let info = p.envs.get(&current)?;
        let pkru = cpu.pkru();
        for hkey in 1..NUM_KEYS {
            let granted = pkru.key_rights(hkey);
            if granted.is_none() {
                continue;
            }
            let Some(owner) = self.vkeys.owner_of(hkey) else {
                return Some(format!(
                    "live PKRU grants {granted} on unowned hardware key {hkey}"
                ));
            };
            let Some(meta) = p
                .clustering
                .metas
                .iter()
                .find(|m| self.vkey_of_meta[m.index] == owner)
            else {
                return Some(format!("hardware key {hkey} owned by unmapped {owner}"));
            };
            let viewed = meta_rights(meta, &info.view).intersection(Access::RW);
            if !granted.is_subset_of(viewed) {
                return Some(format!(
                    "live PKRU grants {granted} on key {hkey} (meta of '{}') but the \
                     current view only allows {viewed}",
                    meta.members.first().map_or("?", String::as_str)
                ));
            }
        }
        None
    }

    /// Re-derives every PKRU image after the bindings moved, dropping
    /// every compiled filter with them. Returns whether they had moved.
    fn refresh(&mut self, p: &Program) -> bool {
        if self.pkru_epoch == self.vkeys.epoch() {
            return false;
        }
        self.pkru_of_env = pkru_map(p, &self.vkeys, &self.vkey_of_meta);
        self.pkru_epoch = self.vkeys.epoch();
        self.filters.clear();
        true
    }

    /// Compiles `env`'s filter unless it is cached. `env`'s rule comes
    /// first: when parked metas transiently collide two environments
    /// onto one PKRU value, the first matching BPF rule — the running
    /// environment's — wins. (Environments whose *full* rights
    /// signatures collide are rejected at `Init` unless their policies
    /// agree, so the collision can only be transient and the precedence
    /// is always sound.)
    fn load_filter(&mut self, p: &Program, env: EnvId) -> Result<(), Fault> {
        if self.filters.contains_key(&env) {
            return Ok(());
        }
        let mut env_ids: Vec<EnvId> = p.envs.keys().copied().collect();
        env_ids.sort_by_key(|e| (*e != env, *e));
        let mut rules: Vec<SeccompRule> = Vec::new();
        let mut seen: HashSet<u32> = HashSet::new();
        for e in env_ids {
            let pkru = self.pkru_of_env[&e];
            if seen.insert(pkru.bits()) {
                rules.push(SeccompRule {
                    pkru: pkru.bits(),
                    policy: p.envs[&e].policy.clone(),
                });
            }
        }
        let filter = SeccompFilter::compile(&rules)
            .map_err(|e| Fault::Init(format!("seccomp compilation failed: {e}")))?;
        self.filters.insert(env, filter);
        Ok(())
    }

    /// Binds `meta`'s virtual key, evicting the least-recently-used
    /// binding outside `pinned` when no hardware key is free (sparing
    /// the hot pins while any other victim exists). The eviction sweep
    /// is a `pkey_mprotect` that can be injected to fail; the check fires
    /// before any mutation, so a failed sweep leaves the victim's binding
    /// and the live PKRU intact. Before the sweep, any live PKRU grant on
    /// the recycled key is revoked: the running environment must never
    /// keep rights on a key about to tag someone else's pages.
    fn bind(
        &mut self,
        p: &Program,
        cpu: &mut Cpu,
        pinned: &[VirtualKey],
        meta: usize,
    ) -> Result<(), Fault> {
        let v = self.vkey_of_meta[meta];
        if self.vkeys.is_bound(v) {
            self.vkeys.touch(v);
            return Ok(());
        }
        if self.vkeys.free_hkeys() == 0 {
            let mut averse = pinned.to_vec();
            averse.extend(self.hot.iter().filter(|v| !pinned.contains(v)));
            let victim = self
                .vkeys
                .evict_candidate(&averse)
                .or_else(|| self.vkeys.evict_candidate(pinned))
                .ok_or_else(|| {
                    Fault::Init("all 15 hardware keys are pinned by the current working set".into())
                })?;
            if cpu.clock_mut().should_inject(InjectionSite::PkeyMprotect) {
                return Err(Fault::Transient {
                    site: "pkey_mprotect",
                });
            }
            let victim_hkey = self.vkeys.binding(victim).expect("candidate is bound");
            let live = cpu.pkru();
            if !live.key_rights(victim_hkey).is_none() {
                let mut interim = live;
                interim.set_key_rights(victim_hkey, Access::NONE);
                cpu.write_pkru(interim);
            }
            let victim_meta = self
                .vkey_of_meta
                .iter()
                .position(|vk| *vk == victim)
                .expect("every bound virtual key belongs to a meta-package");
            let pages = sweep(&mut self.table, p, &p.clustering.metas[victim_meta], None);
            cpu.clock_mut()
                .charge_key_evict_pages(victim.0, victim_hkey, pages);
            self.vkeys.unbind(victim);
        }
        let hkey = self
            .vkeys
            .bind(v)
            .expect("a hardware key is free after the eviction");
        let pages = sweep(&mut self.table, p, &p.clustering.metas[meta], Some(hkey));
        cpu.clock_mut().charge_key_bind_pages(v.0, hkey, pages);
        Ok(())
    }
}

impl Enforcer for Mpk {
    fn switch(&mut self, p: &Program, cpu: &mut Cpu, target: EnvId) -> Result<(), Fault> {
        let Some(info) = p.envs.get(&target) else {
            return Err(Fault::UnknownEnclosure(EnclosureId(target.0)));
        };
        // Bind the target's working set before granting anything. A
        // no-op when every needed meta is already resident (the common
        // case the Table 1 switch costs are pinned to); otherwise this
        // is where libmpk's LRU multiplexing pays its `pkey_mprotect`
        // sweeps.
        if target != TRUSTED_ENV {
            let mut pinned = Vec::new();
            let mut to_bind = Vec::new();
            for meta in working_set(&p.clustering, &info.view) {
                let v = self.vkey_of_meta[meta.index];
                pinned.push(v);
                if !self.vkeys.is_bound(v) {
                    to_bind.push(meta.index);
                }
            }
            if pinned.len() > MAX_BOUND_KEYS {
                return Err(Fault::Init(format!(
                    "enclosure '{}' pins {} meta-packages at once, more than \
                     the {MAX_BOUND_KEYS} hardware keys",
                    info.name,
                    pinned.len()
                )));
            }
            for meta in to_bind {
                self.bind(p, cpu, &pinned, meta)?;
            }
            for &v in &pinned {
                self.vkeys.touch(v);
            }
        }
        // Fast path: an unchanged binding reuses the target's PKRU image
        // and compiled filter; only a cold or invalidated entry pays a
        // recompile.
        self.refresh(p);
        self.load_filter(p, target)?;
        self.front = target;
        let pkru = *self
            .pkru_of_env
            .get(&target)
            .ok_or(Fault::UnknownEnclosure(EnclosureId(target.0)))?;
        // Injection fires before the write: PKRU keeps its old value and
        // nothing is charged, like a faulted WRPKRU.
        if cpu.clock_mut().should_inject(InjectionSite::Wrpkru) {
            return Err(Fault::Transient { site: "wrpkru" });
        }
        cpu.write_pkru(pkru);
        Ok(())
    }

    fn charge_crossing(&self, clock: &mut Clock, _env: EnvId) {
        // One PKRU-indexed BPF evaluation admits a whole batch.
        clock.charge_seccomp();
        clock.record(Event::SeccompVerdict {
            category: "batch",
            allowed: true,
        });
    }

    fn verdict(&self, _p: &Program, cpu: &Cpu, _env: EnvId, record: &SyscallRecord) -> bool {
        self.filters
            .get(&self.front)
            .expect("the front environment's filter is compiled at switch")
            .check(record.sysno, &record.args, cpu.pkru().bits())
    }

    fn filter(
        &mut self,
        p: &Program,
        cpu: &mut Cpu,
        env: EnvId,
        record: &SyscallRecord,
    ) -> Result<bool, Fault> {
        cpu.clock_mut().charge_seccomp();
        let allowed = self.verdict(p, cpu, env, record);
        // Every PKRU-indexed BPF evaluation is a verdict, trusted code
        // included (it pays the filter too, Table 1).
        cpu.clock_mut().record(Event::SeccompVerdict {
            category: record.sysno.category().keyword(),
            allowed,
        });
        Ok(allowed)
    }

    fn transfer_site(&self) -> Option<InjectionSite> {
        Some(InjectionSite::PkeyMprotect)
    }

    fn transfer(&mut self, p: &Program, clock: &mut Clock, range: VirtRange, to: &str) {
        // A parked destination meta takes the arena non-present; it
        // becomes reachable when the meta is next bound.
        let key = self.hardware_key_of(p.clustering.meta_of[to]);
        map_keyed(&mut self.table, range, Access::RW, key);
        clock.charge_pkey_mprotect_pages(range.page_len());
    }

    fn check(&self, cpu: &Cpu, addr: Addr, len: u64, needed: Access) -> Result<(), VmemError> {
        cpu.check_mpk(&self.table, addr, len, needed)
    }

    fn describe(&self, env: EnvId, out: &mut String) {
        if let Some(pkru) = self.pkru_of_env.get(&env) {
            let _ = writeln!(out, "  pkru: {pkru}");
        }
    }
}

/// Rights `meta` has under `view` (members share a signature, so the
/// first member's entry speaks for all).
fn meta_rights(meta: &MetaPackage, view: &ViewMap) -> Access {
    meta.members
        .first()
        .and_then(|m| view.get(m).copied())
        .unwrap_or(Access::NONE)
}

/// The metas a view touches, minus `litterbox.super` (never bound): the
/// keys an environment needs resident while it runs.
fn working_set<'a>(
    clustering: &'a Clustering,
    view: &'a ViewMap,
) -> impl Iterator<Item = &'a MetaPackage> + 'a {
    let super_meta = clustering.meta_of.get(LB_SUPER_PKG).copied();
    clustering
        .metas
        .iter()
        .filter(move |m| Some(m.index) != super_meta && !meta_rights(m, view).is_none())
}

/// Every environment's PKRU image under the current bindings: data
/// rights on every *resident* meta's hardware key, access-disable
/// everywhere else. Parked metas need no PKRU bit at all — their pages
/// are non-present.
fn pkru_map(
    p: &Program,
    vkeys: &VirtualKeyTable,
    vkey_of_meta: &[VirtualKey],
) -> HashMap<EnvId, Pkru> {
    p.envs
        .iter()
        .map(|(env, info)| {
            let mut pkru = Pkru::deny_all();
            for meta in &p.clustering.metas {
                if let Some(hkey) = vkeys.binding(vkey_of_meta[meta.index]) {
                    pkru.set_key_rights(
                        hkey,
                        meta_rights(meta, &info.view).intersection(Access::RW),
                    );
                }
            }
            (*env, pkru)
        })
        .collect()
}

/// Maps `range` under hardware key `key`, or parked (non-present) when
/// its meta holds no key.
fn map_keyed(table: &mut PageTable, range: VirtRange, rights: Access, key: Option<ProtectionKey>) {
    table.map_range(range, rights, key.unwrap_or(NO_KEY));
    if key.is_none() {
        table
            .set_present(range, false)
            .expect("range was just mapped");
    }
}

/// Sweeps every section of `meta`: parks its pages non-present (`None`,
/// libmpk's `PROT_NONE` sweep) or unparks them re-tagged with `hkey`.
/// Returns the page count for cost accounting.
fn sweep(
    table: &mut PageTable,
    p: &Program,
    meta: &MetaPackage,
    hkey: Option<ProtectionKey>,
) -> u64 {
    let mut pages = 0;
    for section in meta
        .members
        .iter()
        .filter_map(|m| p.packages.get(m))
        .flatten()
    {
        let range = section.range();
        table
            .set_present(range, hkey.is_some())
            .expect("the shared table maps every package section");
        if let Some(hkey) = hkey {
            table
                .retag_range(range, hkey)
                .expect("the shared table maps every package section");
        }
        pages += range.page_len();
    }
    pages
}
