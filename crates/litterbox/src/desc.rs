//! Program descriptions passed to `Init` — the payload of the Go
//! frontend's `.pkgs` and `.rstrct` ELF sections (§5.1, Figure 4).

use std::collections::BTreeMap;
use std::fmt;

use enclosure_kernel::seccomp::SysPolicy;
use enclosure_vmem::{Access, Addr, Section, SectionKind, VirtRange, PAGE_SIZE};

use crate::machine::LitterBox;
use crate::Fault;

/// A memory view: package name → access rights. Packages absent from the
/// map are unmapped (`U`) in the environment.
pub type ViewMap = BTreeMap<String, Access>;

/// Unique identifier the frontend parser assigns to each enclosure
/// (§5.1: "the parser also registers per-package enclosures and assigns
/// unique identifiers"). Ids start at 1; 0 is reserved for the trusted
/// environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EnclosureId(pub u32);

impl fmt::Display for EnclosureId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "enclosure#{}", self.0)
    }
}

/// Description of one package: its sections and direct dependencies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackageDesc {
    /// Unique package name (e.g. `"libfx"`).
    pub name: String,
    /// The package's sections. Must be page aligned and non-overlapping;
    /// packages never share pages (§2.3).
    pub sections: Vec<Section>,
    /// Names of directly imported packages. Used when LitterBox itself
    /// computes transitive views (dynamic languages, §5.2).
    pub deps: Vec<String>,
}

/// Description of one enclosure: its full memory view and syscall filter.
///
/// For compiled languages the linker computes the full view (§5.1); for
/// dynamic languages LitterBox derives it from `deps` via
/// [`crate::deps::natural_dependencies`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnclosureDesc {
    /// The enclosure's unique id (≥ 1).
    pub id: EnclosureId,
    /// Human-readable name for fault traces.
    pub name: String,
    /// The complete memory view.
    pub view: ViewMap,
    /// Authorized system calls.
    pub policy: SysPolicy,
    /// The packages the programmer explicitly marked for enclosing
    /// (the `#[enclose]` roots); the rest of the view is derived
    /// dependency closure. Telemetry labels the enclosure's spans with
    /// these. May be empty for hand-built descriptions, in which case
    /// labeling falls back to the view's first non-runtime package.
    pub marked: Vec<String>,
}

/// The addresses of the ELF image a package occupies, as returned by the
/// [`ProgramDesc::add_package`] convenience constructor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackageLayout {
    text: VirtRange,
    rodata: VirtRange,
    data: VirtRange,
}

impl PackageLayout {
    /// The `.text` range.
    #[must_use]
    pub fn text(&self) -> VirtRange {
        self.text
    }

    /// The `.data` range.
    #[must_use]
    pub fn data(&self) -> VirtRange {
        self.data
    }

    /// First address of `.data` (handy in examples and tests).
    #[must_use]
    pub fn data_start(&self) -> Addr {
        self.data.start()
    }

    /// First address of `.rodata`.
    #[must_use]
    pub fn rodata_start(&self) -> Addr {
        self.rodata.start()
    }

    /// First address of `.text`.
    #[must_use]
    pub fn text_start(&self) -> Addr {
        self.text.start()
    }
}

/// Everything `Init` needs: packages, enclosures, verified call-sites.
#[derive(Debug, Clone, Default)]
pub struct ProgramDesc {
    /// Package descriptions (the `.pkgs` section).
    pub packages: Vec<PackageDesc>,
    /// Enclosure descriptions (the `.rstrct` section).
    pub enclosures: Vec<EnclosureDesc>,
    /// Legal call-sites for the LitterBox API (the `.verif` section).
    pub verified_callsites: Vec<Addr>,
    next_callsite: u64,
}

impl ProgramDesc {
    /// An empty description.
    #[must_use]
    pub fn new() -> ProgramDesc {
        ProgramDesc {
            next_callsite: 0x2000,
            ..ProgramDesc::default()
        }
    }

    /// Registers a package description built elsewhere (the linker path).
    pub fn add_package_desc(&mut self, desc: PackageDesc) {
        self.packages.push(desc);
    }

    /// Convenience constructor: allocates fresh `.text`/`.rodata`/`.data`
    /// sections of the given page counts in `lb`'s address space and
    /// registers the package (no dependencies).
    ///
    /// # Errors
    ///
    /// Propagates allocation failures as [`Fault::Init`].
    pub fn add_package(
        &mut self,
        lb: &mut LitterBox,
        name: &str,
        text_pages: u64,
        rodata_pages: u64,
        data_pages: u64,
    ) -> Result<PackageLayout, Fault> {
        self.add_package_with_deps(lb, name, text_pages, rodata_pages, data_pages, &[])
    }

    /// Like [`ProgramDesc::add_package`] but with direct dependencies.
    ///
    /// # Errors
    ///
    /// Propagates allocation failures as [`Fault::Init`].
    pub fn add_package_with_deps(
        &mut self,
        lb: &mut LitterBox,
        name: &str,
        text_pages: u64,
        rodata_pages: u64,
        data_pages: u64,
        deps: &[&str],
    ) -> Result<PackageLayout, Fault> {
        let alloc = |lb: &mut LitterBox, pages: u64| -> Result<VirtRange, Fault> {
            lb.space_mut()
                .alloc(pages.max(1) * PAGE_SIZE)
                .map_err(|e| Fault::Init(e.to_string()))
        };
        let text = alloc(lb, text_pages)?;
        let rodata = alloc(lb, rodata_pages)?;
        let data = alloc(lb, data_pages)?;
        let mk = |suffix: &str, kind, range| {
            Section::new(format!("{name}.{suffix}"), kind, range)
                .map_err(|e| Fault::Init(e.to_string()))
        };
        self.packages.push(PackageDesc {
            name: name.to_owned(),
            sections: vec![
                mk("text", SectionKind::Text, text)?,
                mk("rodata", SectionKind::Rodata, rodata)?,
                mk("data", SectionKind::Data, data)?,
            ],
            deps: deps.iter().map(|&d| d.to_owned()).collect(),
        });
        Ok(PackageLayout { text, rodata, data })
    }

    /// Registers an enclosure description.
    pub fn add_enclosure(&mut self, desc: EnclosureDesc) {
        self.enclosures.push(desc);
    }

    /// Mints a fresh verified call-site address and records it in the
    /// `.verif` list. (Frontends use real text addresses; tests and
    /// examples use this.)
    pub fn verified_callsite(&mut self) -> Addr {
        let addr = Addr(self.next_callsite);
        self.next_callsite += 8;
        self.verified_callsites.push(addr);
        addr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Backend;

    #[test]
    fn add_package_allocates_disjoint_aligned_sections() {
        let mut lb = LitterBox::new(Backend::Baseline);
        let mut prog = ProgramDesc::new();
        let a = prog.add_package(&mut lb, "a", 2, 1, 3).unwrap();
        let b = prog.add_package(&mut lb, "b", 1, 1, 1).unwrap();
        assert!(!a.data().overlaps(&b.data()));
        assert!(!a.text().overlaps(&a.data()));
        assert_eq!(prog.packages.len(), 2);
        assert_eq!(prog.packages[0].sections.len(), 3);
        assert!(a.text().is_page_aligned());
    }

    #[test]
    fn zero_page_request_still_gets_one_page() {
        let mut lb = LitterBox::new(Backend::Baseline);
        let mut prog = ProgramDesc::new();
        let a = prog.add_package(&mut lb, "tiny", 0, 0, 0).unwrap();
        assert_eq!(a.text().len(), PAGE_SIZE);
    }

    #[test]
    fn callsites_are_unique_and_recorded() {
        let mut prog = ProgramDesc::new();
        let c1 = prog.verified_callsite();
        let c2 = prog.verified_callsite();
        assert_ne!(c1, c2);
        assert_eq!(prog.verified_callsites, vec![c1, c2]);
    }

    #[test]
    fn package_sections_carry_kind_names() {
        let mut lb = LitterBox::new(Backend::Baseline);
        let mut prog = ProgramDesc::new();
        prog.add_package_with_deps(&mut lb, "img", 1, 1, 1, &["libfx"])
            .unwrap();
        let pkg = &prog.packages[0];
        assert_eq!(pkg.deps, vec!["libfx"]);
        assert!(pkg.sections.iter().any(|s| s.name() == "img.text"));
        assert!(pkg.sections.iter().any(|s| s.kind() == SectionKind::Rodata));
    }
}
