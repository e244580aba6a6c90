//! seccomp-BPF filter construction and evaluation.
//!
//! LB_MPK translates `FilterSyscall` into "a BPF filter loaded via seccomp,
//! which indexes the current environment (from the PKRU value) to a mask of
//! permitted system calls", relying on a kernel patch to expose PKRU in
//! `seccomp_data` (§5.3). This module is that translation: it compiles a
//! per-PKRU syscall policy table into a classic-BPF [`Program`] and
//! evaluates it over a faithful `seccomp_data` layout.
//!
//! The §6.5 extension — "only allow `connect` system calls to a list of
//! pre-defined IP addresses" — compiles to argument-inspecting BPF.

use std::fmt;

use crate::bpf::{Insn, Program, SECCOMP_RET_ALLOW, SECCOMP_RET_KILL_PROCESS};
use crate::{CategorySet, Sysno};

/// Byte offset of the syscall number in `seccomp_data`.
pub const DATA_OFF_NR: u32 = 0;
/// Byte offset of the architecture tag.
pub const DATA_OFF_ARCH: u32 = 4;
/// Byte offset of `args[i]` (8 bytes each).
#[must_use]
pub fn data_off_arg(i: u32) -> u32 {
    16 + 8 * i
}
/// Byte offset of the PKRU value appended by the kernel patch \[45\].
pub const DATA_OFF_PKRU: u32 = 64;
/// Total size of the extended `seccomp_data`.
pub const DATA_LEN: usize = 68;

/// The x86-64 `AUDIT_ARCH` constant.
pub const AUDIT_ARCH_X86_64: u32 = 0xc000_003e;

/// Largest `connect` allowlist the BPF compiler can encode: the skip
/// displacement over the allowlist block is a u8 (`jt`/`jf` fields).
pub const MAX_CONNECT_ALLOWLIST: usize = 120;

/// A per-environment syscall policy: the paper's `SysFilter`, plus the
/// §6.5 argument-level extension for `connect`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SysPolicy {
    /// Categories the environment may call (`none` = empty set).
    pub categories: CategorySet,
    /// If set, `connect` is additionally restricted to these IPv4
    /// destinations (host byte order). Only meaningful when `net` is
    /// allowed.
    pub connect_allowlist: Option<Vec<u32>>,
}

impl SysPolicy {
    /// The default policy: every syscall prohibited (§3.1).
    #[must_use]
    pub fn none() -> SysPolicy {
        SysPolicy {
            categories: CategorySet::NONE,
            connect_allowlist: None,
        }
    }

    /// Allow every syscall (the trusted environment).
    #[must_use]
    pub fn all() -> SysPolicy {
        SysPolicy {
            categories: CategorySet::ALL,
            connect_allowlist: None,
        }
    }

    /// A policy allowing exactly the given categories.
    #[must_use]
    pub fn categories(categories: CategorySet) -> SysPolicy {
        SysPolicy {
            categories,
            connect_allowlist: None,
        }
    }

    /// Restricts `connect` to the given IPv4 destinations (§6.5).
    #[must_use]
    pub fn with_connect_allowlist(mut self, ips: Vec<u32>) -> SysPolicy {
        self.connect_allowlist = Some(ips);
        self
    }

    /// The direct (non-BPF) check used by the LB_VTX guest OS handler.
    ///
    /// `args` follows the kernel convention; for `connect`,
    /// `args[1]` holds the destination IPv4 address.
    #[must_use]
    pub fn allows(&self, sysno: Sysno, args: &[u64; 6]) -> bool {
        if !self.categories.allows(sysno) {
            return false;
        }
        if sysno == Sysno::Connect {
            if let Some(list) = &self.connect_allowlist {
                #[allow(clippy::cast_possible_truncation)]
                return list.contains(&(args[1] as u32));
            }
        }
        true
    }

    /// True if `self` permits nothing that `other` forbids (monotone
    /// restriction for nesting). An allowlist only tightens `connect`, so
    /// a policy with one is a subset of the same policy without.
    #[must_use]
    pub fn is_subset_of(&self, other: &SysPolicy) -> bool {
        if !self.categories.is_subset_of(other.categories) {
            return false;
        }
        match (&self.connect_allowlist, &other.connect_allowlist) {
            (_, None) => true,
            (Some(mine), Some(theirs)) => mine.iter().all(|ip| theirs.contains(ip)),
            (None, Some(_)) => !self.categories.allows(Sysno::Connect),
        }
    }
}

impl fmt::Display for SysPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.categories)?;
        if let Some(list) = &self.connect_allowlist {
            write!(f, " (connect ⊆ {} hosts)", list.len())?;
        }
        Ok(())
    }
}

/// One row of the PKRU-indexed filter table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeccompRule {
    /// The PKRU value identifying the execution environment.
    pub pkru: u32,
    /// The policy in force for that environment.
    pub policy: SysPolicy,
}

/// A compiled seccomp filter: the BPF program plus evaluation helpers.
#[derive(Debug, Clone)]
pub struct SeccompFilter {
    program: Program,
}

impl SeccompFilter {
    /// Compiles a filter table to BPF. Every denial compiles to
    /// `SECCOMP_RET_KILL_PROCESS`: the paper's abort-by-default
    /// semantics (§2.1).
    ///
    /// Program shape, per rule: load PKRU; if it matches, load the syscall
    /// number and emit a `jeq/ret ALLOW` pair per permitted syscall (with an
    /// argument-inspecting block for an allowlisted `connect`), ending in
    /// `ret KILL`. A final `ret KILL` catches unknown PKRU values.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::bpf::BpfError`] if the table is so large the
    /// program exceeds kernel limits.
    pub fn compile(rules: &[SeccompRule]) -> Result<SeccompFilter, crate::bpf::BpfError> {
        let mut insns: Vec<Insn> = Vec::new();
        // Architecture pinning, as hardened real-world filters do.
        insns.push(Insn::ld_abs(DATA_OFF_ARCH));
        insns.push(Insn::jeq(AUDIT_ARCH_X86_64, 1, 0));
        insns.push(Insn::ret(SECCOMP_RET_KILL_PROCESS));

        for rule in rules {
            if let Some(list) = &rule.policy.connect_allowlist {
                if list.len() > MAX_CONNECT_ALLOWLIST {
                    return Err(crate::bpf::BpfError::BadProgramLength(list.len()));
                }
            }
            let body = Self::rule_body(&rule.policy);
            insns.push(Insn::ld_abs(DATA_OFF_PKRU));
            // If PKRU matches, fall into the body; otherwise skip it.
            insns.push(Insn::jeq(rule.pkru, 1, 0));
            #[allow(clippy::cast_possible_truncation)]
            insns.push(Insn::ja(body.len() as u32));
            insns.extend(body);
        }
        insns.push(Insn::ret(SECCOMP_RET_KILL_PROCESS));
        Ok(SeccompFilter {
            program: Program::new(insns)?,
        })
    }

    /// Compiles a *per-process* filter for one policy: the LB_PROC
    /// shape, where each sandbox child gets its own program installed at
    /// `fork` time. Process identity replaces the PKRU dispatch — there
    /// is exactly one environment per process, so the program is just
    /// the architecture pin followed by the policy body, with no PKRU
    /// load at all.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::bpf::BpfError`] if the policy's `connect`
    /// allowlist makes the program exceed kernel limits.
    pub fn compile_process(policy: &SysPolicy) -> Result<SeccompFilter, crate::bpf::BpfError> {
        if let Some(list) = &policy.connect_allowlist {
            if list.len() > MAX_CONNECT_ALLOWLIST {
                return Err(crate::bpf::BpfError::BadProgramLength(list.len()));
            }
        }
        let mut insns: Vec<Insn> = Vec::new();
        insns.push(Insn::ld_abs(DATA_OFF_ARCH));
        insns.push(Insn::jeq(AUDIT_ARCH_X86_64, 1, 0));
        insns.push(Insn::ret(SECCOMP_RET_KILL_PROCESS));
        insns.extend(Self::rule_body(policy));
        Ok(SeccompFilter {
            program: Program::new(insns)?,
        })
    }

    fn rule_body(policy: &SysPolicy) -> Vec<Insn> {
        let mut body = Vec::new();
        body.push(Insn::ld_abs(DATA_OFF_NR));
        for sysno in Sysno::ALL {
            if !policy.categories.allows(sysno) {
                continue;
            }
            if sysno == Sysno::Connect {
                if let Some(list) = &policy.connect_allowlist {
                    // jeq connect → inspect arg, else skip block.
                    let block_len = 1 + 2 * list.len() + 1; // ld + (jeq,ret)* + ret
                    #[allow(clippy::cast_possible_truncation)]
                    body.push(Insn::jeq(sysno.nr(), 0, block_len as u8));
                    body.push(Insn::ld_abs(data_off_arg(1)));
                    for ip in list {
                        body.push(Insn::jeq(*ip, 0, 1));
                        body.push(Insn::ret(SECCOMP_RET_ALLOW));
                    }
                    body.push(Insn::ret(SECCOMP_RET_KILL_PROCESS));
                    continue;
                }
            }
            body.push(Insn::jeq(sysno.nr(), 0, 1));
            body.push(Insn::ret(SECCOMP_RET_ALLOW));
        }
        body.push(Insn::ret(SECCOMP_RET_KILL_PROCESS));
        body
    }

    /// The compiled BPF program.
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Evaluates the filter for one syscall, exactly as the kernel would:
    /// builds the extended `seccomp_data` and runs the program.
    ///
    /// Returns `true` when the verdict is `SECCOMP_RET_ALLOW`.
    #[must_use]
    pub fn check(&self, sysno: Sysno, args: &[u64; 6], pkru: u32) -> bool {
        matches!(
            self.program.run(&seccomp_data(sysno, args, pkru)),
            Ok(SECCOMP_RET_ALLOW)
        )
    }
}

/// The extended `seccomp_data` the kernel hands the filter for one
/// syscall: number, architecture, arguments and the patched-in PKRU.
fn seccomp_data(sysno: Sysno, args: &[u64; 6], pkru: u32) -> [u8; DATA_LEN] {
    let mut data = [0u8; DATA_LEN];
    data[0..4].copy_from_slice(&sysno.nr().to_le_bytes());
    data[4..8].copy_from_slice(&AUDIT_ARCH_X86_64.to_le_bytes());
    for (i, arg) in args.iter().enumerate() {
        let off = data_off_arg(i as u32) as usize;
        data[off..off + 8].copy_from_slice(&arg.to_le_bytes());
    }
    data[DATA_OFF_PKRU as usize..DATA_OFF_PKRU as usize + 4].copy_from_slice(&pkru.to_le_bytes());
    data
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SysCategory;

    fn args() -> [u64; 6] {
        [0; 6]
    }

    #[test]
    fn default_policy_denies_everything() {
        let p = SysPolicy::none();
        for s in Sysno::ALL {
            assert!(!p.allows(s, &args()), "{s} should be denied");
        }
    }

    #[test]
    fn category_policy_allows_exactly_its_categories() {
        let p = SysPolicy::categories(CategorySet::only(SysCategory::Net));
        assert!(p.allows(Sysno::Socket, &args()));
        assert!(p.allows(Sysno::Connect, &args()));
        assert!(!p.allows(Sysno::Open, &args()));
        assert!(!p.allows(Sysno::Getuid, &args()));
    }

    #[test]
    fn connect_allowlist_gates_destination() {
        let p = SysPolicy::categories(CategorySet::only(SysCategory::Net))
            .with_connect_allowlist(vec![0x0a00_0001]);
        let mut a = args();
        a[1] = 0x0a00_0001;
        assert!(p.allows(Sysno::Connect, &a));
        a[1] = 0x0808_0808;
        assert!(!p.allows(Sysno::Connect, &a));
        // Other net calls unaffected.
        assert!(p.allows(Sysno::Sendto, &a));
    }

    #[test]
    fn policy_subset_order() {
        let net = SysPolicy::categories(CategorySet::only(SysCategory::Net));
        let all = SysPolicy::all();
        let none = SysPolicy::none();
        assert!(none.is_subset_of(&net));
        assert!(net.is_subset_of(&all));
        assert!(!all.is_subset_of(&net));
        let constrained = net.clone().with_connect_allowlist(vec![1, 2]);
        assert!(constrained.is_subset_of(&net));
        assert!(!net.is_subset_of(&constrained));
        let tighter = net.clone().with_connect_allowlist(vec![1]);
        assert!(tighter.is_subset_of(&constrained));
    }

    #[test]
    fn compiled_filter_matches_direct_check() {
        let rules = vec![
            SeccompRule {
                pkru: 0,
                policy: SysPolicy::all(),
            },
            SeccompRule {
                pkru: 0x5555_0000,
                policy: SysPolicy::categories(CategorySet::only(SysCategory::Net)),
            },
            SeccompRule {
                pkru: 0xaaaa_0000,
                policy: SysPolicy::none(),
            },
        ];
        let filter = SeccompFilter::compile(&rules).unwrap();
        for rule in &rules {
            for sysno in Sysno::ALL {
                let expected = rule.policy.allows(sysno, &args());
                assert_eq!(
                    filter.check(sysno, &args(), rule.pkru),
                    expected,
                    "{sysno} under pkru {:#x}",
                    rule.pkru
                );
            }
        }
    }

    #[test]
    fn per_process_filter_ignores_pkru_and_matches_policy() {
        let policy = SysPolicy::categories(CategorySet::only(SysCategory::Net));
        let filter = SeccompFilter::compile_process(&policy).unwrap();
        for sysno in Sysno::ALL {
            let expected = policy.allows(sysno, &args());
            // Process identity replaces PKRU dispatch: any PKRU value
            // evaluates identically.
            for pkru in [0u32, 0x5555_0000, 0xdead_0000] {
                assert_eq!(
                    filter.check(sysno, &args(), pkru),
                    expected,
                    "{sysno} under pkru {pkru:#x}"
                );
            }
        }
    }

    #[test]
    fn per_process_filter_honors_connect_allowlist() {
        let good_ip = 0x0a00_0001u32;
        let policy = SysPolicy::categories(CategorySet::only(SysCategory::Net))
            .with_connect_allowlist(vec![good_ip]);
        let filter = SeccompFilter::compile_process(&policy).unwrap();
        let verdict = |sysno, args: &[u64; 6]| filter.program().run(&seccomp_data(sysno, args, 0));
        let mut a = args();
        a[1] = u64::from(good_ip);
        assert!(filter.check(Sysno::Connect, &a, 0));
        a[1] = 0x0808_0808;
        assert!(!filter.check(Sysno::Connect, &a, 0));
        assert_eq!(verdict(Sysno::Connect, &a), Ok(SECCOMP_RET_KILL_PROCESS));
        assert_eq!(verdict(Sysno::Open, &args()), Ok(SECCOMP_RET_KILL_PROCESS));
    }

    #[test]
    fn unknown_pkru_kills() {
        let rules = vec![SeccompRule {
            pkru: 0,
            policy: SysPolicy::all(),
        }];
        let filter = SeccompFilter::compile(&rules).unwrap();
        assert!(!filter.check(Sysno::Getuid, &args(), 0xdead_0000));
    }

    #[test]
    fn compiled_connect_allowlist_inspects_args() {
        let good_ip = 0x0a00_0001u32;
        let rules = vec![SeccompRule {
            pkru: 0x4,
            policy: SysPolicy::categories(CategorySet::only(SysCategory::Net))
                .with_connect_allowlist(vec![good_ip, good_ip + 1]),
        }];
        let filter = SeccompFilter::compile(&rules).unwrap();
        let mut a = args();
        a[1] = u64::from(good_ip);
        assert!(filter.check(Sysno::Connect, &a, 0x4));
        a[1] = u64::from(good_ip + 1);
        assert!(filter.check(Sysno::Connect, &a, 0x4));
        a[1] = 0x0808_0808;
        assert!(!filter.check(Sysno::Connect, &a, 0x4));
        // Socket (no allowlist logic) still allowed.
        assert!(filter.check(Sysno::Socket, &a, 0x4));
        // Non-net still denied.
        assert!(!filter.check(Sysno::Open, &a, 0x4));
    }

    #[test]
    fn filter_is_arch_pinned() {
        // A mismatched arch field kills regardless of policy. We exercise
        // this through the program directly since `check` always sets the
        // right arch.
        let rules = vec![SeccompRule {
            pkru: 0,
            policy: SysPolicy::all(),
        }];
        let filter = SeccompFilter::compile(&rules).unwrap();
        let mut data = [0u8; DATA_LEN];
        data[4..8].copy_from_slice(&0x1234u32.to_le_bytes()); // wrong arch
        assert_eq!(
            filter.program().run(&data).unwrap(),
            SECCOMP_RET_KILL_PROCESS
        );
    }

    #[test]
    fn oversized_connect_allowlists_are_rejected_not_truncated() {
        // The skip displacement over the allowlist block is a u8; rather
        // than wrapping (which would misroute the filter), compilation
        // refuses.
        let rules = vec![SeccompRule {
            pkru: 0,
            policy: SysPolicy::categories(CategorySet::only(SysCategory::Net))
                .with_connect_allowlist((0..200).collect()),
        }];
        assert!(SeccompFilter::compile(&rules).is_err());
        // At the boundary it still compiles and behaves.
        let rules = vec![SeccompRule {
            pkru: 0,
            policy: SysPolicy::categories(CategorySet::only(SysCategory::Net))
                .with_connect_allowlist((0..MAX_CONNECT_ALLOWLIST as u32).collect()),
        }];
        let filter = SeccompFilter::compile(&rules).unwrap();
        let mut a = args();
        a[1] = u64::from(MAX_CONNECT_ALLOWLIST as u32 - 1);
        assert!(filter.check(Sysno::Connect, &a, 0));
        a[1] = 9_999_999;
        assert!(!filter.check(Sysno::Connect, &a, 0));
    }

    #[test]
    fn kill_mode_verdicts_decode_as_kill() {
        let rules = vec![SeccompRule {
            pkru: 0,
            policy: SysPolicy::none(),
        }];
        let filter = SeccompFilter::compile(&rules).unwrap();
        assert_eq!(
            filter.program().run(&seccomp_data(Sysno::Open, &args(), 0)),
            Ok(SECCOMP_RET_KILL_PROCESS)
        );
    }

    #[test]
    fn many_rules_compile_within_kernel_limits() {
        let rules: Vec<SeccompRule> = (0..14)
            .map(|i| SeccompRule {
                pkru: i,
                policy: SysPolicy::all(),
            })
            .collect();
        let filter = SeccompFilter::compile(&rules).unwrap();
        assert!(filter.program().len() < crate::bpf::Program::MAX_INSNS);
    }
}
