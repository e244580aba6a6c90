//! A simulated operating-system kernel for the Enclosure reproduction.
//!
//! The paper's enforcement depends on several kernel facilities this crate
//! reproduces in software:
//!
//! * a **syscall table** with the paper's logical categories
//!   (`net | io | file | mem | proc | time | sync`, §2.2) — [`Sysno`],
//!   [`SysCategory`], [`CategorySet`];
//! * **seccomp-BPF** filtering, including the kernel patch the paper uses
//!   to expose the PKRU register to filters (§5.3, ref. \[45\]) — a classic
//!   BPF [interpreter](bpf) plus a [seccomp filter compiler](seccomp);
//! * an **in-memory filesystem** with a home directory of plantable
//!   secrets (SSH/GPG keys, exactly the assets the real malicious packages
//!   stole, §1) — [`fs`];
//! * a **loopback network** with simulated remote hosts and an
//!   exfiltration ledger the security evaluation inspects (§6.5) —
//!   [`net`];
//! * the [`Kernel`] itself: typed syscall entry points that charge
//!   calibrated service costs to the simulated [`enclosure_hw::Clock`].
//!   LitterBox's batched gateway services its queued descriptors
//!   through the same entry points, at the same cost.
//!
//! Syscall *filtering* is not done here: LitterBox's `FilterSyscall` hook
//! (in the `litterbox` crate) consults the seccomp program (LB_MPK) or the
//! guest-OS policy check (LB_VTX) before letting a call reach [`Kernel`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bpf;
mod errno;
pub mod fs;
mod kernel;
pub mod net;
pub mod seccomp;
mod sysno;

pub use errno::Errno;
pub use kernel::{Kernel, SyscallRecord, TableSizes};
pub use sysno::{CategorySet, SysCategory, Sysno};
