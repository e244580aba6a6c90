//! System call numbers and the paper's logical categories.

use std::fmt;
use std::ops::BitOr;

/// The system calls the simulated kernel implements.
///
/// Numbers follow the x86-64 Linux ABI where a counterpart exists, so
/// seccomp programs look like the real thing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u32)]
#[non_exhaustive]
#[allow(missing_docs)] // names are the documentation; categories below
pub enum Sysno {
    Read = 0,
    Write = 1,
    Open = 2,
    Close = 3,
    Stat = 4,
    Mmap = 9,
    Mprotect = 10,
    Munmap = 11,
    Brk = 12,
    Nanosleep = 35,
    Getpid = 39,
    Socket = 41,
    Connect = 42,
    Accept = 43,
    Sendto = 44,
    Recvfrom = 45,
    Shutdown = 48,
    Bind = 49,
    Listen = 50,
    Exec = 59,
    Unlink = 87,
    Readdir = 89,
    Getuid = 102,
    Futex = 202,
    ClockGettime = 228,
    PkeyMprotect = 329,
    PkeyAlloc = 330,
    PkeyFree = 331,
}

impl Sysno {
    /// All implemented syscalls, in ascending number order.
    pub const ALL: [Sysno; 28] = [
        Sysno::Read,
        Sysno::Write,
        Sysno::Open,
        Sysno::Close,
        Sysno::Stat,
        Sysno::Mmap,
        Sysno::Mprotect,
        Sysno::Munmap,
        Sysno::Brk,
        Sysno::Nanosleep,
        Sysno::Getpid,
        Sysno::Socket,
        Sysno::Connect,
        Sysno::Accept,
        Sysno::Sendto,
        Sysno::Recvfrom,
        Sysno::Shutdown,
        Sysno::Bind,
        Sysno::Listen,
        Sysno::Exec,
        Sysno::Unlink,
        Sysno::Readdir,
        Sysno::Getuid,
        Sysno::Futex,
        Sysno::ClockGettime,
        Sysno::PkeyMprotect,
        Sysno::PkeyAlloc,
        Sysno::PkeyFree,
    ];

    /// The raw syscall number (x86-64 ABI where applicable).
    #[must_use]
    pub fn nr(self) -> u32 {
        self as u32
    }

    /// The logical service category the paper groups this call under
    /// (§2.2: "system calls are grouped into categories around logical
    /// services").
    #[must_use]
    pub fn category(self) -> SysCategory {
        use SysCategory::*;
        match self {
            Sysno::Read | Sysno::Write | Sysno::Close => Io,
            Sysno::Open | Sysno::Stat | Sysno::Unlink | Sysno::Readdir => File,
            Sysno::Mmap
            | Sysno::Mprotect
            | Sysno::Munmap
            | Sysno::Brk
            | Sysno::PkeyMprotect
            | Sysno::PkeyAlloc
            | Sysno::PkeyFree => Mem,
            Sysno::Socket
            | Sysno::Connect
            | Sysno::Accept
            | Sysno::Sendto
            | Sysno::Recvfrom
            | Sysno::Shutdown
            | Sysno::Bind
            | Sysno::Listen => Net,
            Sysno::Getpid | Sysno::Getuid | Sysno::Exec => Proc,
            Sysno::Nanosleep | Sysno::ClockGettime => Time,
            Sysno::Futex => Sync,
        }
    }
}

impl fmt::Display for Sysno {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = format!("{self:?}").to_lowercase();
        write!(f, "{name}")
    }
}

/// The paper's syscall categories (§2.2 `SysFilter` grammar).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SysCategory {
    /// Network access: sockets, connect, send/recv.
    Net = 0,
    /// Byte I/O on open descriptors: read, write, close.
    Io = 1,
    /// Filesystem operations: open, stat, unlink.
    File = 2,
    /// Memory management: mmap, mprotect, pkey calls.
    Mem = 3,
    /// Process identity and control: getuid, getpid, exec.
    Proc = 4,
    /// Clocks and sleeping.
    Time = 5,
    /// Synchronization (futex).
    Sync = 6,
}

impl SysCategory {
    /// Every category.
    pub const ALL: [SysCategory; 7] = [
        SysCategory::Net,
        SysCategory::Io,
        SysCategory::File,
        SysCategory::Mem,
        SysCategory::Proc,
        SysCategory::Time,
        SysCategory::Sync,
    ];

    /// Parses a category keyword from the policy grammar.
    #[must_use]
    pub fn from_keyword(word: &str) -> Option<SysCategory> {
        match word {
            "net" => Some(SysCategory::Net),
            "io" => Some(SysCategory::Io),
            "file" => Some(SysCategory::File),
            "mem" => Some(SysCategory::Mem),
            "proc" => Some(SysCategory::Proc),
            "time" => Some(SysCategory::Time),
            "sync" => Some(SysCategory::Sync),
            _ => None,
        }
    }

    /// The policy-grammar keyword for this category.
    #[must_use]
    pub fn keyword(self) -> &'static str {
        match self {
            SysCategory::Net => "net",
            SysCategory::Io => "io",
            SysCategory::File => "file",
            SysCategory::Mem => "mem",
            SysCategory::Proc => "proc",
            SysCategory::Time => "time",
            SysCategory::Sync => "sync",
        }
    }
}

impl fmt::Display for SysCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// A set of [`SysCategory`] values, the payload of a `SysFilter`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CategorySet(u8);

impl CategorySet {
    /// The empty set (`none`: the default policy, §3.1).
    pub const NONE: CategorySet = CategorySet(0);
    /// Every category (`all`).
    pub const ALL: CategorySet = CategorySet(0x7f);

    /// A set with a single category.
    #[must_use]
    pub fn only(cat: SysCategory) -> CategorySet {
        CategorySet(1 << cat as u8)
    }

    /// True if `cat` is in the set.
    #[must_use]
    pub fn contains(self, cat: SysCategory) -> bool {
        self.0 & (1 << cat as u8) != 0
    }

    /// True if the syscall's category is in the set.
    #[must_use]
    pub fn allows(self, sysno: Sysno) -> bool {
        self.contains(sysno.category())
    }

    /// Inserts a category.
    pub fn insert(&mut self, cat: SysCategory) {
        self.0 |= 1 << cat as u8;
    }

    /// True if no category is allowed.
    #[must_use]
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// True if `self` allows nothing that `other` forbids — the
    /// monotone-restriction partial order for nested enclosures.
    #[must_use]
    pub fn is_subset_of(self, other: CategorySet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Intersection of two sets.
    #[must_use]
    pub fn intersection(self, other: CategorySet) -> CategorySet {
        CategorySet(self.0 & other.0)
    }

    /// Iterates over the categories present.
    pub fn iter(self) -> impl Iterator<Item = SysCategory> {
        SysCategory::ALL
            .into_iter()
            .filter(move |c| self.contains(*c))
    }
}

impl BitOr for CategorySet {
    type Output = CategorySet;
    fn bitor(self, rhs: CategorySet) -> CategorySet {
        CategorySet(self.0 | rhs.0)
    }
}

impl From<SysCategory> for CategorySet {
    fn from(cat: SysCategory) -> Self {
        CategorySet::only(cat)
    }
}

impl FromIterator<SysCategory> for CategorySet {
    fn from_iter<T: IntoIterator<Item = SysCategory>>(iter: T) -> Self {
        let mut set = CategorySet::NONE;
        for cat in iter {
            set.insert(cat);
        }
        set
    }
}

impl fmt::Display for CategorySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_none() {
            return f.write_str("none");
        }
        if *self == CategorySet::ALL {
            return f.write_str("all");
        }
        let mut first = true;
        for cat in self.iter() {
            if !first {
                f.write_str(" | ")?;
            }
            write!(f, "{cat}")?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_match_linux_abi() {
        assert_eq!(Sysno::Read.nr(), 0);
        assert_eq!(Sysno::Socket.nr(), 41);
        assert_eq!(Sysno::Connect.nr(), 42);
        assert_eq!(Sysno::Getuid.nr(), 102);
        assert_eq!(Sysno::PkeyMprotect.nr(), 329);
    }

    #[test]
    fn every_syscall_has_a_category() {
        for s in Sysno::ALL {
            // Just ensure the mapping is total and stable.
            let _ = s.category();
        }
        assert_eq!(Sysno::Connect.category(), SysCategory::Net);
        assert_eq!(Sysno::Open.category(), SysCategory::File);
        assert_eq!(Sysno::Read.category(), SysCategory::Io);
        assert_eq!(Sysno::Getuid.category(), SysCategory::Proc);
    }

    #[test]
    fn category_keywords_roundtrip() {
        for cat in SysCategory::ALL {
            assert_eq!(SysCategory::from_keyword(cat.keyword()), Some(cat));
        }
        assert_eq!(SysCategory::from_keyword("bogus"), None);
    }

    #[test]
    fn set_membership_and_allows() {
        let set = CategorySet::only(SysCategory::Net) | CategorySet::only(SysCategory::Io);
        assert!(set.allows(Sysno::Connect));
        assert!(set.allows(Sysno::Write));
        assert!(!set.allows(Sysno::Open));
        assert!(!set.allows(Sysno::Getuid));
    }

    #[test]
    fn none_and_all_sets() {
        assert!(CategorySet::NONE.is_none());
        for s in Sysno::ALL {
            assert!(!CategorySet::NONE.allows(s));
            assert!(CategorySet::ALL.allows(s));
        }
    }

    #[test]
    fn subset_partial_order() {
        let net = CategorySet::only(SysCategory::Net);
        let net_io = net | CategorySet::only(SysCategory::Io);
        assert!(net.is_subset_of(net_io));
        assert!(!net_io.is_subset_of(net));
        assert!(CategorySet::NONE.is_subset_of(net));
        assert!(net_io.is_subset_of(CategorySet::ALL));
    }

    #[test]
    fn display_forms() {
        assert_eq!(CategorySet::NONE.to_string(), "none");
        assert_eq!(CategorySet::ALL.to_string(), "all");
        let set = CategorySet::only(SysCategory::Net) | CategorySet::only(SysCategory::File);
        assert_eq!(set.to_string(), "net | file");
    }

    #[test]
    fn from_iterator_collects() {
        let set: CategorySet = [SysCategory::Time, SysCategory::Sync].into_iter().collect();
        assert!(set.contains(SysCategory::Time));
        assert!(set.contains(SysCategory::Sync));
        assert!(!set.contains(SysCategory::Net));
    }
}
