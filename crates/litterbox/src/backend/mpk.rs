//! `LB_MPK`: Intel Memory Protection Keys (§5.3) with libmpk-style key
//! virtualization.
//!
//! Every environment shares one page table whose pages carry the
//! hardware key bound to their meta-package; a switch is a WRPKRU of the
//! target's PKRU image into the live PKRU register this enforcer holds,
//! and syscalls are checked by a seccomp-BPF program indexed on PKRU.
//! The enforcer owns its keys: the [`Pkru`] encoding and one
//! [`KeyTable`] indexed by meta-package, so a meta's index is its
//! libmpk virtual key. At most 15 metas are bound at a time: a switch
//! demand-binds the target's working set, evicting the
//! least-recently-used binding outside it with a `pkey_mprotect` sweep
//! that parks the victim's pages non-present (libmpk's `PROT_NONE`).

use std::fmt::{self, Write as _};

use enclosure_hw::{Clock, EnvId, InjectionSite, TRUSTED_ENV};
use enclosure_kernel::bpf;
use enclosure_kernel::seccomp::{SeccompFilter, SeccompRule, SysPolicy};
use enclosure_kernel::SyscallRecord;
use enclosure_support::{IdMap, IdSet};
use enclosure_telemetry::Event;
use enclosure_vmem::{
    Access, Addr, PageIdx, PageTable, ProtectionKey, VirtRange, VmemError, NO_KEY,
};

use super::{Build, Enforcer};
use crate::cluster::MetaPackage;
use crate::desc::{EnclosureId, ViewMap};
use crate::fault::Fault;
use crate::machine::{MpkKeyMode, Program, LB_SUPER_PKG, LB_USER_PKG};

/// Per-environment Init cost: key setup and one seccomp rule.
const INIT_NS_PER_ENV: u64 = 3_000;

/// Number of protection keys the hardware provides.
const NUM_KEYS: u8 = 16;

/// Hardware keys LB_MPK can hand out (key 0 is reserved).
const MAX_BOUND_KEYS: usize = NUM_KEYS as usize - 1;

/// The PKRU register: two bits per key, 16 keys, 32 bits in all.
///
/// * **AD** (access disable), bit `2k`: every data access to pages
///   tagged `k` faults.
/// * **WD** (write disable), bit `2k + 1`: writes fault, reads pass.
///
/// PKRU governs data accesses only; instruction fetches are controlled
/// by the ordinary page-table rights.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pkru(u32);

impl Pkru {
    /// PKRU value granting full access to every key.
    fn allow_all() -> Pkru {
        Pkru(0)
    }

    /// PKRU value denying all access to every key except key 0 (the
    /// default key, which must stay accessible for the kernel mappings).
    fn deny_all() -> Pkru {
        let mut pkru = Pkru(u32::MAX);
        pkru.set_key_rights(0, Access::RW);
        pkru
    }

    /// The raw 32-bit register value (what the seccomp filter indexes on).
    fn bits(self) -> u32 {
        self.0
    }

    /// Sets the data-access rights PKRU grants for `key`.
    ///
    /// Only the R and W components are meaningful: MPK cannot restrict
    /// execution, so X is ignored here.
    ///
    /// # Panics
    ///
    /// Panics if `key >= 16`; keys come from the [`KeyTable`], which
    /// never hands out an invalid one.
    fn set_key_rights(&mut self, key: ProtectionKey, rights: Access) {
        assert!(key < NUM_KEYS, "protection key {key} out of range");
        let shift = u32::from(key) * 2;
        // Clear both bits, then set AD/WD as needed.
        self.0 &= !(0b11 << shift);
        if !rights.contains(Access::R) {
            self.0 |= 0b01 << shift; // AD
        } else if !rights.contains(Access::W) {
            self.0 |= 0b10 << shift; // WD
        }
    }

    /// The data-access rights PKRU currently grants for `key`.
    fn key_rights(self, key: ProtectionKey) -> Access {
        let shift = u32::from(key) * 2;
        let bits = (self.0 >> shift) & 0b11;
        if bits & 0b01 != 0 {
            Access::NONE
        } else if bits & 0b10 != 0 {
            Access::R
        } else {
            Access::RW
        }
    }

    /// True if a data access needing `access` to a page tagged `key` is
    /// allowed. Execute requests are always allowed at the PKRU level.
    fn allows(self, key: ProtectionKey, access: Access) -> bool {
        let data_part = access - Access::X;
        self.key_rights(key).contains(data_part)
    }
}

impl fmt::Display for Pkru {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PKRU({:#010x})", self.0)
    }
}

/// LB_MPK's binding traffic since the enforcer was built.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KeyLedger {
    /// Bindings made: a meta-package given a hardware key.
    pub binds: u64,
    /// Bindings torn down to recycle a hardware key.
    pub evictions: u64,
    /// Meta-packages bound right now.
    pub bound: usize,
}

/// One meta-package's row of the [`KeyTable`].
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// The hardware key backing the meta, if it is bound.
    key: Option<ProtectionKey>,
    /// The table's tick at the meta's last use (the LRU stamp).
    last_used: u64,
}

/// Which hardware key backs each meta-package. The hardware has 16 keys
/// and key 0 is reserved, as Linux reserves it for the default key, so
/// at most 15 metas are bound at once; the rest are parked.
///
/// The table is bookkeeping only: it never touches the page table or
/// the clock. [`Mpk::bind`] evicts in two phases: [`KeyTable::victim`]
/// picks the least-recently-used binding without mutating anything,
/// the caller performs (and charges) the `pkey_mprotect` sweep that
/// parks the victim's pages, the step that can fail under injection,
/// and only then commits with [`KeyTable::unbind`]. A failed sweep
/// therefore leaves the old binding intact.
#[derive(Debug, Default)]
struct KeyTable {
    /// Per meta-package, by index.
    metas: Vec<Slot>,
    /// The meta each hardware key backs; key 0 never backs one.
    owner: [Option<usize>; NUM_KEYS as usize],
    tick: u64,
    /// Bumped on every binding change; PKRU images and compiled filters
    /// are cached against it.
    epoch: u64,
    binds: u64,
    evictions: u64,
}

impl KeyTable {
    /// A table of `metas` meta-packages, none bound.
    fn new(metas: usize) -> KeyTable {
        KeyTable {
            metas: vec![Slot::default(); metas],
            ..KeyTable::default()
        }
    }

    /// The hardware key backing `meta`, if it is bound.
    fn key(&self, meta: usize) -> Option<ProtectionKey> {
        self.metas[meta].key
    }

    /// The meta-package hardware key `key` backs, if any.
    fn owner(&self, key: ProtectionKey) -> Option<usize> {
        self.owner[usize::from(key)]
    }

    /// Number of metas bound right now.
    fn bound(&self) -> usize {
        self.owner.iter().flatten().count()
    }

    /// True when every allocatable hardware key is bound.
    fn is_full(&self) -> bool {
        self.bound() == MAX_BOUND_KEYS
    }

    /// The binding traffic since the table was made.
    fn ledger(&self) -> KeyLedger {
        KeyLedger {
            binds: self.binds,
            evictions: self.evictions,
            bound: self.bound(),
        }
    }

    /// Marks `meta` as just used.
    fn touch(&mut self, meta: usize) {
        self.tick += 1;
        self.metas[meta].last_used = self.tick;
    }

    /// Binds `meta` to the lowest free hardware key and returns it,
    /// stamping it as just used. Idempotent: a bound meta keeps its key
    /// and is only touched. `None` when all 15 keys are bound: the
    /// caller must evict first.
    fn bind(&mut self, meta: usize) -> Option<ProtectionKey> {
        if let Some(key) = self.key(meta) {
            self.touch(meta);
            return Some(key);
        }
        let key = (1..NUM_KEYS).find(|&k| self.owner(k).is_none())?;
        self.tick += 1;
        self.metas[meta] = Slot {
            key: Some(key),
            last_used: self.tick,
        };
        self.owner[usize::from(key)] = Some(meta);
        self.binds += 1;
        self.epoch += 1;
        Some(key)
    }

    /// The least-recently-used bound meta outside `pinned`, or `None`
    /// when every binding is pinned. Ties break on the lower meta.
    fn victim(&self, pinned: &[usize]) -> Option<usize> {
        self.owner
            .iter()
            .flatten()
            .filter(|meta| !pinned.contains(meta))
            .min_by_key(|&&meta| (self.metas[meta].last_used, meta))
            .copied()
    }

    /// Releases `meta`'s hardware key and returns it. Call only after
    /// the sweep parking the meta's pages has succeeded.
    ///
    /// # Panics
    ///
    /// Panics if `meta` is not bound: evicting an unbound meta is a
    /// protocol violation, not a recoverable condition.
    fn unbind(&mut self, meta: usize) -> ProtectionKey {
        let key = self.metas[meta]
            .key
            .take()
            .expect("unbind of an unbound meta-package");
        self.owner[usize::from(key)] = None;
        self.evictions += 1;
        self.epoch += 1;
        key
    }

    /// The first structural fault, if any: a binding to key 0 or past
    /// key 15, or a binding the owner map does not mirror (which is how
    /// a hardware key backing two metas shows).
    fn invariant_violation(&self) -> Option<String> {
        for (meta, slot) in self.metas.iter().enumerate() {
            let Some(key) = slot.key else { continue };
            if key == 0 || key >= NUM_KEYS {
                return Some(format!("meta {meta} bound to out-of-range key {key}"));
            }
            if self.owner(key) != Some(meta) {
                return Some(format!("owner map out of sync for key {key} (meta {meta})"));
            }
        }
        for (key, owner) in self.owner.iter().enumerate() {
            if let Some(meta) = *owner {
                if self
                    .metas
                    .get(meta)
                    .and_then(|slot| slot.key)
                    .map(usize::from)
                    != Some(key)
                {
                    return Some(format!("owner map names meta {meta} for unbound key {key}"));
                }
            }
        }
        None
    }
}

#[derive(Debug)]
pub(crate) struct Mpk {
    table: PageTable,
    keys: KeyTable,
    /// PKRU images per environment, valid at `pkru_epoch`. They depend
    /// only on the bindings (not on which environment is in front), so
    /// one recompute serves every switch until the bindings move.
    pkru_of_env: IdMap<EnvId, Pkru>,
    pkru_epoch: u64,
    /// Compiled seccomp programs per front environment. Emptied whenever
    /// the bindings move (the PKRU values the rules index on all move),
    /// so whatever it holds is fresh.
    filters: IdMap<EnvId, SeccompFilter>,
    /// Each enclosure's working set: the metas its view touches, minus
    /// `litterbox.super` (never bound), in meta order. The keys it needs
    /// resident while it runs. Views and the clustering change only
    /// through a rebuild, which builds a new enforcer.
    working_sets: IdMap<EnvId, Vec<usize>>,
    /// Environment whose filter is loaded (the one syscalls are checked
    /// against).
    front: EnvId,
    /// The live PKRU register, written only by [`Mpk::write_pkru`]. A
    /// rebuilt enforcer starts from its predecessor's value, and the
    /// first from allow-all.
    pkru: Pkru,
}

impl Mpk {
    /// The enforcer for `b.program`, after LB_MPK's own Init checks, and
    /// its Init's price.
    pub(crate) fn build(b: &Build<'_>) -> Result<(Mpk, u64), Fault> {
        let p = b.program;
        // ERIM-style screening (§5.3): only the LitterBox package may
        // modify PKRU, so untrusted text must hold no WRPKRU/XRSTOR.
        for (name, sections) in &p.packages {
            if &**name == LB_USER_PKG || &**name == LB_SUPER_PKG {
                continue;
            }
            for section in sections {
                if let Some(addr) = crate::scan::scan_section(b.space, section) {
                    return Err(Fault::Init(format!(
                        "package '{name}' contains a PKRU-writing instruction at {addr} \
                         (section {}); only LitterBox may execute WRPKRU",
                        section.name()
                    )));
                }
            }
        }

        let clustering = &p.clustering;
        let mut keys = KeyTable::new(clustering.len());

        // Filter-ambiguity check, independent of which metas happen to
        // be bound: two environments whose views induce the same
        // per-meta data rights produce the same PKRU value whenever their
        // working sets are resident, so their syscall policies must agree
        // (seccomp indexes on PKRU).
        let mut env_ids: Vec<EnvId> = p.envs.keys().copied().collect();
        env_ids.sort();
        let mut seen_sig: IdMap<Vec<Access>, (&str, &SysPolicy)> = IdMap::default();
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
        let working_sets: IdMap<EnvId, Vec<usize>> = p
            .envs
            .iter()
            .filter(|(env, _)| **env != TRUSTED_ENV)
            .map(|(env, info)| {
                let metas = clustering.metas.iter().filter(|m| {
                    Some(m.index) != super_meta && !meta_rights(m, &info.view).is_none()
                });
                (*env, metas.map(|m| m.index).collect())
            })
            .collect();
        match b.mpk_key_mode {
            MpkKeyMode::Static => {
                // One hardware key per meta for the program's lifetime.
                for meta in 0..clustering.len() {
                    keys.bind(meta).ok_or_else(|| {
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
                    let Some(set) = working_sets.get(env) else {
                        continue;
                    };
                    if set.len() > MAX_BOUND_KEYS {
                        return Err(Fault::Init(format!(
                            "enclosure '{}' views {} meta-packages at once, \
                             more than the {MAX_BOUND_KEYS} hardware keys key \
                             virtualization can bind simultaneously",
                            p.envs[env].name,
                            set.len()
                        )));
                    }
                }
                // Warm the cache in meta order. litterbox.super is never
                // bound: its pages stay parked (non-present) for the
                // program's lifetime, unreachable by every environment —
                // strictly stronger than a PKRU access-disable bit.
                for meta in 0..clustering.len() {
                    if Some(meta) == super_meta || keys.is_full() {
                        continue;
                    }
                    keys.bind(meta);
                }
            }
        }

        let mut table = PageTable::new("mpk-shared");
        for (name, sections) in &p.packages {
            let key = keys.key(clustering.meta_of[&**name]);
            for section in sections {
                map_keyed(&mut table, section.range(), section.default_rights(), key);
            }
        }

        let mut mpk = Mpk {
            table,
            pkru_of_env: pkru_map(p, &keys),
            pkru_epoch: keys.epoch,
            keys,
            filters: IdMap::default(),
            working_sets,
            front: b.current,
            pkru: b.old::<Mpk>().map_or(Pkru::allow_all(), |old| old.pkru),
        };
        mpk.load_filter(p, b.current)?;
        Ok((mpk, b.init_price(INIT_NS_PER_ENV)))
    }

    /// The binding traffic since this enforcer was built.
    pub(crate) fn key_ledger(&self) -> KeyLedger {
        self.keys.ledger()
    }

    /// The compiled seccomp-BPF program of the front environment.
    pub(crate) fn seccomp_program(&self) -> Option<&bpf::Program> {
        self.filters.get(&self.front).map(SeccompFilter::program)
    }

    /// The hardware key backing meta-package `meta`, if bound.
    pub(crate) fn hardware_key_of(&self, meta: usize) -> Option<ProtectionKey> {
        self.keys.key(meta)
    }

    /// Demand-binds meta-package `meta` from environment `current`
    /// (libmpk's `pkey_sync`), with `current`'s working set pinned so the
    /// bind never evicts what the running code needs, then re-grants
    /// under the new bindings. Under [`MpkKeyMode::Static`] every meta
    /// is bound for life, so this only refreshes its LRU stamp.
    pub(crate) fn bind_package(
        &mut self,
        p: &Program,
        clock: &mut Clock,
        current: EnvId,
        meta: usize,
    ) -> Result<(), Fault> {
        self.bind(p, clock, current, meta)?;
        // The freshly bound key must be usable from the running
        // environment right away.
        if self.refresh(p) {
            self.load_filter(p, current)?;
            self.write_pkru(clock, self.pkru_of_env[&current]);
        }
        Ok(())
    }

    /// Checks the stale-binding security invariant for environment
    /// `current`: the key table is consistent, and every hardware
    /// key the live PKRU grants rights on belongs to a meta-package whose
    /// rights in `current`'s view cover the grant.
    pub(crate) fn stale_binding_violation(&self, p: &Program, current: EnvId) -> Option<String> {
        if let Some(v) = self.keys.invariant_violation() {
            return Some(v);
        }
        let info = p.envs.get(&current)?;
        for hkey in 1..NUM_KEYS {
            let granted = self.pkru.key_rights(hkey);
            if granted.is_none() {
                continue;
            }
            let Some(owner) = self.keys.owner(hkey) else {
                return Some(format!(
                    "live PKRU grants {granted} on unowned hardware key {hkey}"
                ));
            };
            // The table is consistent, so `owner` is a meta of this build.
            let meta = &p.clustering.metas[owner];
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

    /// The key rule: the live PKRU grants `needed` on the key tagging
    /// `page`. An unmapped page has no key and is refused.
    fn key_admits(&self, page: PageIdx, needed: Access) -> bool {
        self.table
            .entry(page.base())
            .is_some_and(|entry| self.pkru.allows(entry.key, needed))
    }

    /// Executes a WRPKRU: installs `pkru` in the live register and
    /// charges it. Only LitterBox may execute WRPKRU (§5.3): `build`
    /// rejects any other package whose text holds one.
    fn write_pkru(&mut self, clock: &mut Clock, pkru: Pkru) {
        clock.charge_wrpkru();
        clock.record(Event::Wrpkru { pkru: pkru.bits() });
        self.pkru = pkru;
    }

    /// Re-derives every PKRU image after the bindings moved, dropping
    /// every compiled filter with them. Returns whether they had moved.
    fn refresh(&mut self, p: &Program) -> bool {
        if self.pkru_epoch == self.keys.epoch {
            return false;
        }
        self.pkru_of_env = pkru_map(p, &self.keys);
        self.pkru_epoch = self.keys.epoch;
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
        let mut seen: IdSet<u32> = IdSet::default();
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

    /// Binds `meta` to a hardware key, evicting the least-recently-used
    /// binding outside `env`'s working set when no hardware key is free.
    /// The eviction sweep is a `pkey_mprotect` that can be injected to
    /// fail; the check fires before any mutation, so a failed sweep
    /// leaves the victim's binding and the live PKRU intact. Before the
    /// sweep, any live PKRU grant on the recycled key is revoked: the
    /// running environment must never keep rights on a key about to tag
    /// someone else's pages.
    fn bind(
        &mut self,
        p: &Program,
        clock: &mut Clock,
        env: EnvId,
        meta: usize,
    ) -> Result<(), Fault> {
        if self.keys.key(meta).is_some() {
            self.keys.touch(meta);
            return Ok(());
        }
        if self.keys.is_full() {
            let pinned = self.working_sets.get(&env).map_or(&[][..], Vec::as_slice);
            let victim = self.keys.victim(pinned).ok_or_else(|| {
                Fault::Init("all 15 hardware keys are pinned by the current working set".into())
            })?;
            if clock.should_inject(InjectionSite::PkeyMprotect) {
                return Err(Fault::Transient {
                    site: "pkey_mprotect",
                });
            }
            let victim_hkey = self.keys.key(victim).expect("a victim is bound");
            if !self.pkru.key_rights(victim_hkey).is_none() {
                let mut interim = self.pkru;
                interim.set_key_rights(victim_hkey, Access::NONE);
                self.write_pkru(clock, interim);
            }
            let pages = sweep(&mut self.table, p, &p.clustering.metas[victim], None);
            clock.charge_key_evict_pages(vkey(victim), victim_hkey, pages);
            self.keys.unbind(victim);
        }
        let hkey = self
            .keys
            .bind(meta)
            .expect("a hardware key is free after the eviction");
        let pages = sweep(&mut self.table, p, &p.clustering.metas[meta], Some(hkey));
        clock.charge_key_bind_pages(vkey(meta), hkey, pages);
        Ok(())
    }
}

impl Enforcer for Mpk {
    fn switch(&mut self, p: &Program, clock: &mut Clock, target: EnvId) -> Result<(), Fault> {
        if !p.envs.contains_key(&target) {
            return Err(Fault::UnknownEnclosure(EnclosureId(target.0)));
        }
        // Bind the target's working set before granting anything. A
        // no-op when every needed meta is already resident (the common
        // case the Table 1 switch costs are pinned to); otherwise this
        // is where libmpk's LRU multiplexing pays its `pkey_mprotect`
        // sweeps, over a copy of the set, since `bind` borrows the whole
        // enforcer.
        if let Some(set) = self.working_sets.get(&target) {
            if set.iter().any(|&m| self.keys.key(m).is_none()) {
                for meta in set.clone() {
                    if self.keys.key(meta).is_none() {
                        self.bind(p, clock, target, meta)?;
                    }
                }
            }
            for &meta in &self.working_sets[&target] {
                self.keys.touch(meta);
            }
        }
        // Fast path: an unchanged binding reuses the target's PKRU image
        // and compiled filter; only a cold or invalidated entry pays a
        // recompile.
        self.refresh(p);
        self.load_filter(p, target)?;
        self.front = target;
        let Some(&pkru) = self.pkru_of_env.get(&target) else {
            return Err(Fault::UnknownEnclosure(EnclosureId(target.0)));
        };
        // Injection fires before the write: PKRU keeps its old value and
        // nothing is charged, like a faulted WRPKRU.
        if clock.should_inject(InjectionSite::Wrpkru) {
            return Err(Fault::Transient { site: "wrpkru" });
        }
        self.write_pkru(clock, pkru);
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

    fn verdict(&self, _p: &Program, _env: EnvId, record: &SyscallRecord) -> bool {
        self.filters
            .get(&self.front)
            .expect("the front environment's filter is compiled at switch")
            .check(record.sysno, &record.args, self.pkru.bits())
    }

    fn filter(
        &mut self,
        p: &Program,
        clock: &mut Clock,
        env: EnvId,
        record: &SyscallRecord,
    ) -> Result<bool, Fault> {
        clock.charge_seccomp();
        let allowed = self.verdict(p, env, record);
        // Every PKRU-indexed BPF evaluation is a verdict, trusted code
        // included (it pays the filter too, Table 1).
        clock.record(Event::SeccompVerdict {
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

    /// Page rights first, then the live PKRU's key rights on every page
    /// of the span. Instruction fetches bypass PKRU ([`Pkru::allows`]).
    fn permits(&self, addr: Addr, len: u64, needed: Access) -> bool {
        self.table.permits(addr, len, needed)
            && VirtRange::new(addr, len.max(1))
                .pages()
                .all(|page| self.key_admits(page, needed))
    }

    /// The page table's fault, else a [`VmemError::PkeyFault`] carrying
    /// the first refusing page's key, the PKRU value and the table's
    /// name: the root-cause trace.
    #[cold]
    fn denial(&self, addr: Addr, len: u64, needed: Access) -> VmemError {
        if let Err(fault) = self.table.check(addr, len, needed) {
            return fault;
        }
        let page = VirtRange::new(addr, len.max(1))
            .pages()
            .find(|&page| !self.key_admits(page, needed))
            .expect("PKRU refused a page of the span");
        let entry = self
            .table
            .entry(page.base())
            .expect("the table admitted every page of the span");
        VmemError::PkeyFault {
            addr: if page == addr.page() {
                addr
            } else {
                page.base()
            },
            key: entry.key,
            needed,
            pkru: self.pkru.bits(),
            table: self.table.name().clone(),
        }
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

/// Every environment's PKRU image under the current bindings: data
/// rights on every *resident* meta's hardware key, access-disable
/// everywhere else. Parked metas need no PKRU bit at all — their pages
/// are non-present.
fn pkru_map(p: &Program, keys: &KeyTable) -> IdMap<EnvId, Pkru> {
    p.envs
        .iter()
        .map(|(env, info)| {
            let mut pkru = Pkru::deny_all();
            for hkey in 1..NUM_KEYS {
                if let Some(meta) = keys.owner(hkey) {
                    let rights = meta_rights(&p.clustering.metas[meta], &info.view);
                    pkru.set_key_rights(hkey, rights.intersection(Access::RW));
                }
            }
            (*env, pkru)
        })
        .collect()
}

/// The virtual key telemetry names `meta` by: its index.
fn vkey(meta: usize) -> u32 {
    u32::try_from(meta).expect("meta-package indices fit in u32")
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
        .filter_map(|m| p.packages.get(m.as_str()))
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

#[cfg(test)]
mod tests {
    use super::*;
    use enclosure_hw::CostModel;
    use enclosure_support::XorShift;
    use enclosure_vmem::PAGE_SIZE;

    /// An enforcer over `table` alone, PKRU allow-all as before the
    /// first `Init`.
    fn mpk_over(table: PageTable) -> Mpk {
        Mpk {
            table,
            keys: KeyTable::default(),
            pkru_of_env: IdMap::default(),
            pkru_epoch: 0,
            filters: IdMap::default(),
            working_sets: IdMap::default(),
            front: TRUSTED_ENV,
            pkru: Pkru::allow_all(),
        }
    }

    fn keyed_table() -> PageTable {
        let mut t = PageTable::new("mpk");
        t.map_range(VirtRange::new(Addr(0x10_000), PAGE_SIZE), Access::RW, 1);
        t.map_range(
            VirtRange::new(Addr(0x10_000 + PAGE_SIZE), PAGE_SIZE),
            Access::RW,
            2,
        );
        t
    }

    #[test]
    fn pkru_gates_data_access_per_key() {
        let mut mpk = mpk_over(keyed_table());
        let mut clock = Clock::new(CostModel::free());
        let mut pkru = Pkru::allow_all();
        pkru.set_key_rights(2, Access::NONE);
        mpk.write_pkru(&mut clock, pkru);

        assert!(mpk.check(Addr(0x10_000), 8, Access::RW).is_ok());
        let err = mpk
            .check(Addr(0x10_000 + PAGE_SIZE), 8, Access::R)
            .unwrap_err();
        assert!(matches!(err, VmemError::PkeyFault { key: 2, .. }), "{err}");
    }

    #[test]
    fn page_rights_checked_before_keys() {
        let mpk = mpk_over(keyed_table());
        // X not granted by the table: fails as a protection fault even
        // though PKRU is permissive.
        assert!(matches!(
            mpk.check(Addr(0x10_000), 1, Access::X),
            Err(VmemError::ProtectionFault { .. })
        ));
    }

    #[test]
    fn pure_execute_bypasses_pkru() {
        let mut t = PageTable::new("mpk");
        t.map_range(VirtRange::new(Addr(0x20_000), PAGE_SIZE), Access::RX, 3);
        let mut mpk = mpk_over(t);
        let mut clock = Clock::new(CostModel::free());
        let mut pkru = Pkru::allow_all();
        pkru.set_key_rights(3, Access::NONE);
        mpk.write_pkru(&mut clock, pkru);
        assert!(mpk.check(Addr(0x20_000), 1, Access::X).is_ok());
        assert!(mpk.check(Addr(0x20_000), 1, Access::R).is_err());
    }

    #[test]
    fn write_pkru_charges_cost() {
        let mut mpk = mpk_over(keyed_table());
        let mut clock = Clock::new(CostModel::paper());
        mpk.write_pkru(&mut clock, Pkru::deny_all());
        assert_eq!(clock.now_ns(), 20);
        assert_eq!(clock.stats().wrpkru, 1);
        assert_eq!(mpk.pkru, Pkru::deny_all());
    }

    #[test]
    fn read_only_key_allows_read_denies_write() {
        let mut mpk = mpk_over(keyed_table());
        let mut clock = Clock::new(CostModel::free());
        let mut pkru = Pkru::allow_all();
        pkru.set_key_rights(1, Access::R);
        mpk.write_pkru(&mut clock, pkru);
        assert!(mpk.check(Addr(0x10_000), 4, Access::R).is_ok());
        assert!(matches!(
            mpk.check(Addr(0x10_000), 4, Access::W),
            Err(VmemError::PkeyFault { .. })
        ));
    }

    #[test]
    fn allow_all_grants_everything() {
        let pkru = Pkru::allow_all();
        for key in 0..NUM_KEYS {
            assert!(pkru.allows(key, Access::RW));
        }
    }

    #[test]
    fn deny_all_keeps_default_key() {
        let pkru = Pkru::deny_all();
        assert!(pkru.allows(0, Access::RW));
        for key in 1..NUM_KEYS {
            assert!(!pkru.allows(key, Access::R), "key {key}");
        }
    }

    #[test]
    fn read_only_key_rejects_writes() {
        let mut pkru = Pkru::allow_all();
        pkru.set_key_rights(5, Access::R);
        assert!(pkru.allows(5, Access::R));
        assert!(!pkru.allows(5, Access::W));
        assert!(!pkru.allows(5, Access::RW));
    }

    #[test]
    fn execute_bypasses_pkru() {
        let mut pkru = Pkru::allow_all();
        pkru.set_key_rights(2, Access::NONE);
        // Pure instruction fetch is not a data access; MPK lets it through
        // (the page table's X bit is the only control).
        assert!(pkru.allows(2, Access::X));
        assert!(!pkru.allows(2, Access::R | Access::X));
    }

    #[test]
    fn set_key_rights_is_idempotent_per_key() {
        let mut pkru = Pkru::allow_all();
        pkru.set_key_rights(4, Access::NONE);
        pkru.set_key_rights(4, Access::RW);
        assert_eq!(pkru.key_rights(4), Access::RW);
        assert_eq!(pkru.bits(), 0);
    }

    #[test]
    fn bits_encoding_matches_hardware_layout() {
        let mut pkru = Pkru::allow_all();
        pkru.set_key_rights(1, Access::NONE); // AD for key 1 => bit 2
        assert_eq!(pkru.bits(), 0b0100);
        let mut pkru = Pkru::allow_all();
        pkru.set_key_rights(1, Access::R); // WD for key 1 => bit 3
        assert_eq!(pkru.bits(), 0b1000);
    }

    #[test]
    fn table_hands_out_15_keys_then_fails() {
        let mut t = KeyTable::new(16);
        let mut keys: Vec<ProtectionKey> = (0..15).map(|m| t.bind(m).unwrap()).collect();
        assert_eq!(t.bind(15), None);
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 15);
        assert!(!keys.contains(&0), "key 0 is reserved");
    }

    #[test]
    fn unbound_keys_are_reusable() {
        let mut t = KeyTable::new(2);
        let k = t.bind(0).unwrap();
        t.unbind(0);
        assert_eq!(t.bind(1).unwrap(), k);
    }

    #[test]
    fn key0_never_backs_a_meta() {
        let mut t = KeyTable::new(20);
        assert_eq!(t.owner(0), None);
        for meta in 0..20 {
            t.bind(meta);
        }
        assert!(t.is_full());
        assert_eq!(t.owner(0), None);
        assert_eq!(t.ledger().bound, 15);
    }

    #[test]
    fn a_fresh_table_binds_nothing() {
        let t = KeyTable::new(100);
        assert_eq!(t.metas.len(), 100);
        assert_eq!(t.ledger().bound, 0, "creation does not bind");
        assert!((0..100).all(|m| t.key(m).is_none()));
    }

    #[test]
    fn bindings_cap_at_fifteen() {
        let mut t = KeyTable::new(16);
        for meta in 0..15 {
            t.bind(meta).expect("15 hardware keys available");
        }
        assert_eq!(t.ledger().bound, 15);
        assert!(t.is_full());
        assert_eq!(t.bind(15), None);
        assert!(t.invariant_violation().is_none());
    }

    #[test]
    fn bind_is_idempotent_and_ledgered() {
        let mut t = KeyTable::new(1);
        let k1 = t.bind(0).unwrap();
        let k2 = t.bind(0).unwrap();
        assert_eq!(k1, k2);
        assert_eq!(t.ledger().binds, 1, "re-bind of a bound meta is free");
    }

    #[test]
    fn victim_is_lru_and_respects_pins() {
        let mut t = KeyTable::new(3);
        let (a, b, c) = (0, 1, 2);
        for meta in [a, b, c] {
            t.bind(meta).unwrap();
        }
        t.touch(a); // order now: b, c, a
        assert_eq!(t.victim(&[]), Some(b));
        assert_eq!(t.victim(&[b]), Some(c));
        assert_eq!(t.victim(&[a, b, c]), None, "all pinned");
    }

    #[test]
    fn unbind_recycles_the_hardware_key() {
        let mut t = KeyTable::new(16);
        for meta in 0..15 {
            t.bind(meta).unwrap();
        }
        let newcomer = 15;
        let victim = t.victim(&[newcomer]).unwrap();
        let freed = t.unbind(victim);
        assert_eq!(t.key(victim), None);
        assert_eq!(t.owner(freed), None);
        let got = t.bind(newcomer).unwrap();
        assert_eq!(got, freed, "lowest free key is the recycled one");
        assert_eq!(t.ledger().evictions, 1);
        assert_eq!(t.ledger().binds, 16);
        assert!(t.invariant_violation().is_none());
    }

    #[test]
    fn epoch_tracks_binding_changes_only() {
        let mut t = KeyTable::new(1);
        let e0 = t.epoch;
        t.touch(0);
        assert_eq!(t.epoch, e0, "touch is not a binding change");
        t.bind(0).unwrap();
        assert!(t.epoch > e0);
        let e1 = t.epoch;
        t.unbind(0);
        assert!(t.epoch > e1);
    }

    fn arb_data_rights(rng: &mut XorShift) -> Access {
        *rng.choose(&[Access::NONE, Access::R, Access::RW])
    }

    enclosure_support::props! {
        /// PKRU set/get round-trips per key, independent of other keys'
        /// state (the two bits per key never alias).
        fn pkru_key_rights_are_independent(rng) {
            let mut pkru = Pkru::allow_all();
            let mut expected = [Access::RW; NUM_KEYS as usize];
            for _ in 0..rng.range_usize(0, 32) {
                let key = rng.range_u8(0, NUM_KEYS);
                let rights = arb_data_rights(rng);
                pkru.set_key_rights(key, rights);
                expected[key as usize] = rights;
            }
            for key in 0..NUM_KEYS {
                assert_eq!(pkru.key_rights(key), expected[key as usize], "key {key}");
            }
        }

        /// PKRU bit-pattern round trip: a register rebuilt from `bits()`
        /// agrees.
        fn pkru_bits_roundtrip(rng) {
            let bits = rng.next_u32();
            let key = rng.range_u8(0, NUM_KEYS);
            let pkru = Pkru(bits);
            let copy = Pkru(pkru.bits());
            assert_eq!(pkru.key_rights(key), copy.key_rights(key));
            // allows() is consistent with key_rights().
            assert_eq!(pkru.allows(key, Access::R), pkru.key_rights(key).contains(Access::R));
            assert_eq!(pkru.allows(key, Access::W), pkru.key_rights(key).contains(Access::W));
        }

        /// The table never hands one key to two metas, never hands out
        /// key 0, and unbinding makes keys reusable.
        fn key_table_is_sound(rng) {
            let ops = rng.range_usize(1, 64);
            let mut t = KeyTable::new(32);
            let mut live: Vec<(usize, ProtectionKey)> = Vec::new();
            for _ in 0..ops {
                if rng.next_bool() || live.is_empty() {
                    let meta = rng.range_usize(0, 32);
                    if live.iter().any(|&(m, _)| m == meta) {
                        continue;
                    }
                    if let Some(key) = t.bind(meta) {
                        assert!(key != 0, "key 0 is reserved");
                        assert!(
                            !live.iter().any(|&(_, k)| k == key),
                            "double binding of {key}"
                        );
                        live.push((meta, key));
                    } else {
                        assert_eq!(live.len(), 15, "exhaustion only at 15 bound metas");
                    }
                } else {
                    let (meta, key) = live.pop().expect("non-empty");
                    assert_eq!(t.unbind(meta), key);
                }
                assert_eq!(t.ledger().bound, live.len());
            }
        }

        /// Random bind, touch and evict steps against a brute-force
        /// model: each bind takes the lowest free key, each victim is the
        /// least-recently-used binding outside the pins (lower meta on a
        /// tie), and the owner map mirrors the bindings after every step.
        fn key_table_matches_a_brute_force_model(rng) {
            let metas = rng.range_usize(1, 40);
            let mut t = KeyTable::new(metas);
            let mut key_of: Vec<Option<ProtectionKey>> = vec![None; metas];
            let mut used: Vec<u64> = vec![0; metas];
            let mut now = 0u64;
            for _ in 0..rng.range_usize(1, 200) {
                let meta = rng.range_usize(0, metas);
                match rng.range_u8(0, 3) {
                    0 => {
                        let expected = match key_of[meta] {
                            Some(key) => Some(key),
                            None => (1..NUM_KEYS).find(|k| !key_of.contains(&Some(*k))),
                        };
                        assert_eq!(t.bind(meta), expected, "bind meta {meta}");
                        if let Some(key) = expected {
                            key_of[meta] = Some(key);
                            now += 1;
                            used[meta] = now;
                        }
                    }
                    1 => {
                        t.touch(meta);
                        now += 1;
                        used[meta] = now;
                    }
                    _ => {
                        let pins: Vec<usize> =
                            (0..metas).filter(|_| rng.range_u8(0, 4) == 0).collect();
                        let expected = (0..metas)
                            .filter(|m| key_of[*m].is_some() && !pins.contains(m))
                            .min_by_key(|&m| (used[m], m));
                        assert_eq!(t.victim(&pins), expected, "victim outside {pins:?}");
                        if let Some(victim) = expected {
                            assert_eq!(Some(t.unbind(victim)), key_of[victim]);
                            key_of[victim] = None;
                        }
                    }
                }
                for key in 0..NUM_KEYS {
                    let owner = (0..metas).find(|&m| key_of[m] == Some(key));
                    assert_eq!(t.owner(key), owner, "owner of key {key}");
                }
                assert_eq!(t.invariant_violation(), None);
            }
        }
    }
}
