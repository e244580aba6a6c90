//! Kernel error numbers.

use std::error::Error;
use std::fmt;

/// Error codes returned by the simulated kernel, named after their POSIX
/// counterparts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Errno {
    /// No such file or directory.
    Enoent,
    /// Bad file descriptor.
    Ebadf,
    /// Permission denied.
    Eacces,
    /// Connection refused (no listener / unknown remote).
    Econnrefused,
    /// Resource temporarily unavailable (empty non-blocking read).
    Eagain,
    /// Interrupted system call (retry).
    Eintr,
    /// Out of memory (transient allocation pressure).
    Enomem,
    /// Invalid argument.
    Einval,
    /// Not a socket / wrong descriptor kind.
    Enotsock,
    /// Broken pipe (peer closed).
    Epipe,
    /// Address already in use.
    Eaddrinuse,
    /// File or operation not supported.
    Enosys,
}

impl Errno {
    /// The positive errno code (Linux values).
    #[must_use]
    pub fn code(self) -> i64 {
        match self {
            Errno::Enoent => 2,
            Errno::Eacces => 13,
            Errno::Ebadf => 9,
            Errno::Eagain => 11,
            Errno::Eintr => 4,
            Errno::Enomem => 12,
            Errno::Einval => 22,
            Errno::Enotsock => 88,
            Errno::Eaddrinuse => 98,
            Errno::Econnrefused => 111,
            Errno::Epipe => 32,
            Errno::Enosys => 38,
        }
    }

    /// True for errnos that signal a *transient* condition a caller may
    /// retry (the triple the retry policy honours); everything else is
    /// treated as fatal for the request at hand.
    #[must_use]
    pub fn is_transient(self) -> bool {
        matches!(self, Errno::Eagain | Errno::Eintr | Errno::Enomem)
    }

    /// The transient triple, in injection-pick order.
    pub const TRANSIENT: [Errno; 3] = [Errno::Eagain, Errno::Eintr, Errno::Enomem];
}

impl fmt::Display for Errno {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = format!("{self:?}").to_uppercase();
        write!(f, "{name} ({})", self.code())
    }
}

impl Error for Errno {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_match_linux() {
        assert_eq!(Errno::Enoent.code(), 2);
        assert_eq!(Errno::Econnrefused.code(), 111);
    }

    #[test]
    fn display_names_are_posixy() {
        assert_eq!(Errno::Ebadf.to_string(), "EBADF (9)");
        assert_eq!(Errno::Eintr.to_string(), "EINTR (4)");
        assert_eq!(Errno::Enomem.to_string(), "ENOMEM (12)");
    }

    #[test]
    fn transience_is_the_retry_triple() {
        for e in Errno::TRANSIENT {
            assert!(e.is_transient(), "{e}");
        }
        assert!(!Errno::Eacces.is_transient());
        assert!(!Errno::Enoent.is_transient());
    }
}
