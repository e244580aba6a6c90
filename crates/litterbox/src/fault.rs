//! Enclosure faults.
//!
//! "An enclosure faults if it violates the policies defined by its memory
//! view and system call filter. A fault stops the execution of the closure
//! and aborts the program" (§2.1). Faults are values carrying the
//! root-cause trace LitterBox prints (§5.3).

use std::error::Error;
use std::fmt;

use enclosure_hw::vtx::EnvId;
use enclosure_kernel::{Errno, SyscallRecord};
use enclosure_vmem::{Addr, VmemError};

use crate::EnclosureId;

/// A policy violation or backend failure that aborts the program.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Fault {
    /// A memory access violated the active environment's view.
    Memory(VmemError),
    /// A system call was rejected by the environment's filter.
    SyscallDenied {
        /// The offending call.
        record: SyscallRecord,
        /// The environment in force.
        env: EnvId,
        /// Environment name for the trace.
        env_name: String,
    },
    /// A switch attempted to enter a *less* restrictive environment
    /// (privilege escalation, §2.2).
    Escalation {
        /// The environment the program was in.
        from: String,
        /// The environment it tried to enter.
        to: String,
        /// What right would have been gained.
        detail: String,
    },
    /// A LitterBox API call came from a call-site not present in the
    /// `.verif` list (§5.3).
    UnverifiedCallsite {
        /// The offending call-site.
        addr: Addr,
    },
    /// A function invocation targeted a package without `X` rights in the
    /// active view.
    ExecDenied {
        /// The package whose function was invoked.
        package: String,
        /// The active environment's name.
        env_name: String,
    },
    /// The `Init` description was invalid (overlap, unknown package,
    /// unsatisfiable view, key exhaustion...).
    Init(String),
    /// An API call referenced an unknown enclosure.
    UnknownEnclosure(EnclosureId),
    /// An API call referenced an unknown package.
    UnknownPackage(String),
    /// An `epilog` did not match the current nesting (broken discipline).
    SwitchMismatch {
        /// What the token expected.
        expected: EnvId,
        /// What was actually current.
        actual: EnvId,
    },
    /// A transient backend failure (injected or environmental) at a
    /// tagged site: the hardware operation did not take effect and the
    /// call may be retried once the machine is back in a trusted state.
    Transient {
        /// The injection-site tag, e.g. `"wrpkru"`, `"cr3_write"`.
        site: &'static str,
    },
    /// A kernel errno surfaced through the enclosure boundary. Unlike
    /// `SyscallDenied` this is not a policy violation: it keeps its
    /// errno identity so supervisors can distinguish transient
    /// conditions (EAGAIN/EINTR/ENOMEM) from hard failures.
    Errno(Errno),
}

impl Fault {
    /// A stable discriminant label for telemetry (`Event::Fault`).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Fault::Memory(_) => "memory",
            Fault::SyscallDenied { .. } => "syscall_denied",
            Fault::Escalation { .. } => "escalation",
            Fault::UnverifiedCallsite { .. } => "unverified_callsite",
            Fault::ExecDenied { .. } => "exec_denied",
            Fault::Init(_) => "init",
            Fault::UnknownEnclosure(_) => "unknown_enclosure",
            Fault::UnknownPackage(_) => "unknown_package",
            Fault::SwitchMismatch { .. } => "switch_mismatch",
            Fault::Transient { .. } => "transient",
            Fault::Errno(_) => "errno",
        }
    }

    /// True if the fault is worth retrying: an injected/environmental
    /// transient, or a transient errno (EAGAIN/EINTR/ENOMEM). Policy
    /// violations are never retryable.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        match self {
            Fault::Transient { .. } => true,
            Fault::Errno(e) => e.is_transient(),
            _ => false,
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::Memory(e) => write!(f, "memory fault: {e}"),
            Fault::SyscallDenied {
                record,
                env,
                env_name,
            } => write!(f, "syscall denied: {record} in {env} ('{env_name}')"),
            Fault::Escalation { from, to, detail } => {
                write!(f, "escalation attempt: '{from}' -> '{to}' ({detail})")
            }
            Fault::UnverifiedCallsite { addr } => {
                write!(f, "LitterBox API call from unverified call-site {addr}")
            }
            Fault::ExecDenied { package, env_name } => {
                write!(
                    f,
                    "invocation of '{package}' denied in '{env_name}' (no X right)"
                )
            }
            Fault::Init(msg) => write!(f, "init rejected: {msg}"),
            Fault::UnknownEnclosure(id) => write!(f, "unknown {id}"),
            Fault::UnknownPackage(name) => write!(f, "unknown package '{name}'"),
            Fault::SwitchMismatch { expected, actual } => {
                write!(f, "switch mismatch: expected {expected}, current {actual}")
            }
            Fault::Transient { site } => {
                write!(f, "transient backend failure at '{site}'")
            }
            Fault::Errno(e) => write!(f, "kernel error: {e}"),
        }
    }
}

impl Error for Fault {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Fault::Memory(e) => Some(e),
            _ => None,
        }
    }
}

impl From<VmemError> for Fault {
    fn from(e: VmemError) -> Self {
        Fault::Memory(e)
    }
}

/// Outcome of a gated system call: either an ordinary kernel error the
/// program can handle, or a [`Fault`] that aborts it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SysError {
    /// The call was allowed but failed in the kernel.
    Errno(Errno),
    /// The call (or a memory access around it) violated policy.
    Fault(Fault),
}

impl fmt::Display for SysError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SysError::Errno(e) => write!(f, "{e}"),
            SysError::Fault(fault) => write!(f, "{fault}"),
        }
    }
}

impl Error for SysError {}

impl From<Errno> for SysError {
    fn from(e: Errno) -> Self {
        SysError::Errno(e)
    }
}

impl From<Fault> for SysError {
    fn from(f: Fault) -> Self {
        SysError::Fault(f)
    }
}

/// A failed system call as a [`Fault`]: a fault stays itself and an
/// errno keeps its identity as [`Fault::Errno`], so callers can still
/// tell a transient kernel condition from a broken build.
impl From<SysError> for Fault {
    fn from(e: SysError) -> Self {
        match e {
            SysError::Errno(e) => Fault::Errno(e),
            SysError::Fault(f) => f,
        }
    }
}

impl SysError {
    /// True if this is a policy fault (program-aborting).
    #[must_use]
    pub fn is_fault(&self) -> bool {
        matches!(self, SysError::Fault(_))
    }

    /// True if retrying the operation could reasonably succeed: a
    /// transient errno, or a transient (injected) backend fault.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        match self {
            SysError::Errno(e) => e.is_transient(),
            SysError::Fault(f) => f.is_transient(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enclosure_kernel::Sysno;

    #[test]
    fn displays_carry_root_cause() {
        let f = Fault::SyscallDenied {
            record: SyscallRecord::new(Sysno::Connect),
            env: EnvId(3),
            env_name: "rcl".into(),
        };
        let msg = f.to_string();
        assert!(msg.contains("connect"));
        assert!(msg.contains("env#3"));
        assert!(msg.contains("rcl"));
    }

    #[test]
    fn conversions() {
        let e: SysError = Errno::Enoent.into();
        assert!(!e.is_fault());
        let f: SysError = Fault::UnknownPackage("x".into()).into();
        assert!(f.is_fault());
        let m: Fault = VmemError::OutOfAddressSpace.into();
        assert!(matches!(m, Fault::Memory(_)));
    }

    #[test]
    fn sys_errors_become_faults_without_losing_the_errno() {
        let e: Fault = SysError::Errno(Errno::Eagain).into();
        assert_eq!(e, Fault::Errno(Errno::Eagain));
        assert!(e.is_transient(), "a transient errno stays retryable");
        let inner = Fault::Transient { site: "vm_exit" };
        assert_eq!(Fault::from(SysError::Fault(inner.clone())), inner);
    }

    #[test]
    fn transience_follows_the_errno_triple() {
        assert!(Fault::Transient { site: "wrpkru" }.is_transient());
        assert!(Fault::Errno(Errno::Eagain).is_transient());
        assert!(!Fault::Errno(Errno::Eacces).is_transient());
        assert!(!Fault::Init("x".into()).is_transient());
        assert_eq!(Fault::Transient { site: "vm_exit" }.kind(), "transient");
        assert_eq!(Fault::Errno(Errno::Enomem).kind(), "errno");
    }

    #[test]
    fn fault_source_chains_to_vmem() {
        let f = Fault::Memory(VmemError::OutOfAddressSpace);
        assert!(f.source().is_some());
        assert!(Fault::Init("x".into()).source().is_none());
    }
}
