//! Fault and error types for the memory substrate.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use crate::{Access, Addr, VirtRange};

/// Errors raised by the simulated memory subsystem.
///
/// A [`VmemError::ProtectionFault`] is the software analogue of a hardware
/// page/protection fault: it records the failing address, the rights the
/// access needed, the rights the active page table granted, and which
/// environment's table was active — the "trace of the root-cause" LitterBox
/// prints before stopping the program (§5.3).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum VmemError {
    /// Access to an address with no mapping in the active page table.
    Unmapped {
        /// The faulting address.
        addr: Addr,
        /// Name of the page table (execution environment) in force,
        /// shared with the table.
        table: Arc<str>,
    },
    /// Access to a mapped page with insufficient rights.
    ProtectionFault {
        /// The faulting address.
        addr: Addr,
        /// Rights the access required.
        needed: Access,
        /// Rights the page actually granted.
        granted: Access,
        /// Name of the page table (execution environment) in force,
        /// shared with the table.
        table: Arc<str>,
    },
    /// Access to an address with no backing memory in the address space.
    NotBacked {
        /// The faulting address.
        addr: Addr,
    },
    /// A region operation was given a range that is not page aligned.
    Unaligned {
        /// The offending range.
        range: VirtRange,
    },
    /// Two sections or mappings overlap where they must not.
    Overlap {
        /// The first range.
        a: VirtRange,
        /// The overlapping range.
        b: VirtRange,
    },
    /// The allocator ran out of virtual address space.
    OutOfAddressSpace,
    /// A data access was blocked by the PKRU register (Intel MPK).
    PkeyFault {
        /// The faulting address.
        addr: Addr,
        /// The protection key tagging the page.
        key: u8,
        /// Rights the access required.
        needed: Access,
        /// The PKRU register value in force.
        pkru: u32,
        /// Name of the page table (execution environment) in force,
        /// shared with the table.
        table: Arc<str>,
    },
    /// An access-rights string could not be parsed.
    BadAccessSpec {
        /// The full spec string.
        spec: String,
        /// The first offending character.
        offending: char,
    },
    /// An operation addressed pages outside any known mapping.
    BadRange {
        /// The offending range.
        range: VirtRange,
        /// Human-readable context.
        what: &'static str,
    },
}

impl fmt::Display for VmemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmemError::Unmapped { addr, table } => {
                write!(f, "unmapped access at {addr} in environment '{table}'")
            }
            VmemError::ProtectionFault {
                addr,
                needed,
                granted,
                table,
            } => write!(
                f,
                "protection fault at {addr}: needed {needed}, granted {granted} in environment '{table}'"
            ),
            VmemError::PkeyFault {
                addr,
                key,
                needed,
                pkru,
                table,
            } => write!(
                f,
                "protection-key fault at {addr}: key {key} denies {needed} under PKRU {pkru:#010x} in environment '{table}'"
            ),
            VmemError::NotBacked { addr } => {
                write!(f, "no backing memory at {addr}")
            }
            VmemError::Unaligned { range } => {
                write!(f, "range {range} is not page aligned")
            }
            VmemError::Overlap { a, b } => write!(f, "ranges {a} and {b} overlap"),
            VmemError::OutOfAddressSpace => write!(f, "virtual address space exhausted"),
            VmemError::BadAccessSpec { spec, offending } => {
                write!(f, "invalid access spec '{spec}' (at '{offending}')")
            }
            VmemError::BadRange { range, what } => {
                write!(f, "bad range {range} for {what}")
            }
        }
    }
}

impl Error for VmemError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = VmemError::ProtectionFault {
            addr: Addr(0x1000),
            needed: Access::W,
            granted: Access::R,
            table: "rcl".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("0x1000"));
        assert!(msg.contains("needed W"));
        assert!(msg.contains("granted R"));
        assert!(msg.contains("rcl"));
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn Error + Send + Sync> = Box::new(VmemError::OutOfAddressSpace);
        assert!(e.to_string().contains("exhausted"));
    }
}
