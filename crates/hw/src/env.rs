//! Names the hardware state of every backend is keyed by: execution
//! environments, and the process sandbox's record of each `fork`.

use std::fmt;

/// Identifier of an execution environment: the key of its PKRU image
/// (LB_MPK), its page table (LB_VTX) or its sandbox process (LB_PROC).
///
/// Environment 0 is always the *trusted* one, which maps every package
/// except LitterBox's `super` with user access (§5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EnvId(pub u32);

/// The trusted (non-enclosed) environment.
pub const TRUSTED_ENV: EnvId = EnvId(0);

impl fmt::Display for EnvId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "env#{}", self.0)
    }
}

/// One recorded `fork` in the LB_PROC supervisor's spawn ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpawnRecord {
    /// Environment the child backs.
    pub env: EnvId,
    /// The deterministic pid assigned to the child.
    pub pid: u32,
    /// Whether this spawn replaced a crashed child.
    pub respawn: bool,
}
