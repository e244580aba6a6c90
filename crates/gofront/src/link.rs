//! The linker stage: code objects → a linked ELF image (§5.1, Figure 4).
//!
//! "The linker has global knowledge of the program's package-dependence
//! graph and assembles packages' code objects into a single executable.
//! For each code object, it extracts the `.rstrct` sections, computes
//! every enclosure's memory view, and marks packages that appear in at
//! least one enclosure. … The linker outputs three distinguished ELF
//! sections as part of the executable": `.pkgs`, `.rstrct`, and `.verif`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use enclosure_core::compute_view;
use enclosure_kernel::seccomp::SysPolicy;
use enclosure_vmem::{Addr, Section, SectionKind, PAGE_SIZE};
use litterbox::deps::DepGraph;
use litterbox::{EnclosureDesc, EnclosureId, Fault, LitterBox, PackageDesc, ProgramDesc, ViewMap};

use crate::compile::CodeObject;

/// One row of the image's section table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElfSectionInfo {
    /// Section name (e.g. `libfx.text`, `.rstrct`).
    pub name: String,
    /// Load address (0 for non-loadable metadata sections).
    pub addr: Addr,
    /// Size in bytes.
    pub size: u64,
    /// Flags string (`RX`, `R`, `RW`, or `-` for metadata).
    pub flags: String,
    /// Owning package (empty for metadata sections).
    pub owner: String,
}

/// An enclosure after linking: id, full view, policy, verified call-site.
#[derive(Debug, Clone)]
pub struct LinkedEnclosure {
    /// The id the parser assigned.
    pub id: EnclosureId,
    /// Declared name.
    pub name: String,
    /// The package that declared it (owns the closure's text section).
    pub declaring: String,
    /// The `pkg.Func` entry point.
    pub entry: String,
    /// The complete memory view the linker computed.
    pub view: ViewMap,
    /// The syscall filter.
    pub policy: SysPolicy,
    /// The verified `Prolog` call-site inside the closure's text section.
    pub callsite: Addr,
}

/// The linked executable: section table, symbols, enclosures, and the
/// `Init` payload.
#[derive(Debug)]
pub struct ElfImage {
    sections: Vec<ElfSectionInfo>,
    symbols: BTreeMap<String, Addr>,
    enclosures: Vec<LinkedEnclosure>,
    marked: BTreeSet<String>,
    graph: DepGraph,
    loc: BTreeMap<String, u64>,
}

impl ElfImage {
    /// The section table, ascending by address (metadata sections last).
    #[must_use]
    pub fn sections(&self) -> &[ElfSectionInfo] {
        &self.sections
    }

    /// A linked symbol's address (globals: `pkg.name`; constants:
    /// `pkg.name`).
    #[must_use]
    pub fn symbol(&self, name: &str) -> Option<Addr> {
        self.symbols.get(name).copied()
    }

    /// The linked enclosures.
    #[must_use]
    pub fn enclosures(&self) -> &[LinkedEnclosure] {
        &self.enclosures
    }

    /// Packages that appear in at least one enclosure view — the linker
    /// segregates their resources (§5.1).
    #[must_use]
    pub fn marked(&self) -> &BTreeSet<String> {
        &self.marked
    }

    /// The package-dependence graph.
    #[must_use]
    pub fn graph(&self) -> &DepGraph {
        &self.graph
    }

    /// Declared LOC per package.
    #[must_use]
    pub fn loc(&self) -> &BTreeMap<String, u64> {
        &self.loc
    }

    /// Renders the Figure 4 layout dump: every section with address,
    /// size, and flags, ending with the `.pkgs`/`.rstrct`/`.verif`
    /// metadata sections.
    #[must_use]
    pub fn describe(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:>12} {:>8} {:>5}  owner",
            "section", "addr", "size", "flags"
        );
        for s in &self.sections {
            let _ = writeln!(
                out,
                "{:<28} {:>12} {:>8} {:>5}  {}",
                s.name,
                format!("{:#x}", s.addr.0),
                s.size,
                s.flags,
                if s.owner.is_empty() { "-" } else { &s.owner }
            );
        }
        out
    }
}

/// The linker. Stateless; [`Linker::link`] does the work.
#[derive(Debug, Default)]
pub struct Linker;

impl Linker {
    /// Creates a linker.
    #[must_use]
    pub fn new() -> Linker {
        Linker
    }

    /// Links code objects into an image, allocating and loading sections
    /// in `lb`'s address space, and returns the image plus the `Init`
    /// payload.
    ///
    /// # Errors
    ///
    /// [`Fault::Init`] for duplicate packages, unknown imports in
    /// enclosure views, or allocation failure.
    pub fn link(
        &self,
        objects: &[CodeObject],
        lb: &mut LitterBox,
    ) -> Result<(ElfImage, ProgramDesc), Fault> {
        let mut graph = DepGraph::new();
        for obj in objects {
            if graph.insert(obj.name.clone(), obj.deps.clone()).is_some() {
                return Err(Fault::Init(format!("duplicate package '{}'", obj.name)));
            }
        }

        // Compute views and mark packages.
        let mut marked = BTreeSet::new();
        let mut linked_enclosures = Vec::new();
        let mut next_id = 1u32;
        for obj in objects {
            for enc in &obj.enclosures {
                let roots: Vec<&str> = enc.roots.iter().map(String::as_str).collect();
                let view = compute_view(&graph, &roots, &enc.policy)
                    .map_err(|e| Fault::Init(format!("enclosure '{}': {e}", enc.src.name)))?;
                marked.extend(view.keys().cloned());
                linked_enclosures.push((obj.name.clone(), enc, view, EnclosureId(next_id)));
                next_id += 1;
            }
        }

        // Address assignment and loading. Marked packages are segregated:
        // each gets page-aligned, exclusively-owned sections (the
        // substrate enforces page alignment for everyone; marking is what
        // the layout *requires* vs. merely gets).
        let mut prog = ProgramDesc::new();
        let mut sections = Vec::new();
        let mut symbols = BTreeMap::new();
        let mut loc = BTreeMap::new();
        for obj in objects {
            // Allocates one section of the package, lists it in the
            // image, and returns it.
            let add = |lb: &mut LitterBox,
                       name: String,
                       kind: SectionKind,
                       pages: u64,
                       sections: &mut Vec<ElfSectionInfo>|
             -> Result<Section, Fault> {
                let range = lb
                    .space_mut()
                    .alloc(pages.max(1) * PAGE_SIZE)
                    .map_err(|e| Fault::Init(e.to_string()))?;
                let section = Section::new(name.clone(), kind, range)
                    .map_err(|e| Fault::Init(e.to_string()))?;
                sections.push(ElfSectionInfo {
                    name,
                    addr: range.start(),
                    size: range.len(),
                    flags: kind.default_rights().to_string(),
                    owner: obj.name.clone(),
                });
                Ok(section)
            };

            let text = add(
                lb,
                format!("{}.text", obj.name),
                SectionKind::Text,
                obj.text_pages,
                &mut sections,
            )?;

            let ro_pages = obj.rodata_size.div_ceil(PAGE_SIZE).max(1);
            let rodata = add(
                lb,
                format!("{}.rodata", obj.name),
                SectionKind::Rodata,
                ro_pages,
                &mut sections,
            )?;
            for (symbol, offset, bytes) in &obj.rodata {
                let addr = rodata.range().start() + *offset;
                lb.space_mut()
                    .write(addr, bytes)
                    .map_err(|e| Fault::Init(e.to_string()))?;
                symbols.insert(symbol.clone(), addr);
            }

            let data_pages = obj.data_size.div_ceil(PAGE_SIZE).max(1);
            let data = add(
                lb,
                format!("{}.data", obj.name),
                SectionKind::Data,
                data_pages,
                &mut sections,
            )?;
            for (symbol, offset, _size) in &obj.data {
                symbols.insert(symbol.clone(), data.range().start() + *offset);
            }

            prog.add_package_desc(PackageDesc {
                name: obj.name.clone(),
                sections: vec![text, rodata, data],
                deps: obj.deps.clone(),
            });
            loc.insert(obj.name.clone(), obj.loc);
        }

        // Enclosure closures: own text section per closure, owned by the
        // declaring package; the Prolog call-site lives inside it.
        let mut final_enclosures = Vec::new();
        for (declaring, enc, view, id) in linked_enclosures {
            let closure_range = lb
                .space_mut()
                .alloc(PAGE_SIZE)
                .map_err(|e| Fault::Init(e.to_string()))?;
            let sec_name = format!("{declaring}.text.{}", enc.src.name);
            sections.push(ElfSectionInfo {
                name: sec_name.clone(),
                addr: closure_range.start(),
                size: closure_range.len(),
                flags: "RX".into(),
                owner: declaring.clone(),
            });
            // Attach the closure section to the declaring package.
            if let Some(pkg) = prog.packages.iter_mut().find(|p| p.name == declaring) {
                pkg.sections.push(
                    Section::new(sec_name, SectionKind::Text, closure_range)
                        .map_err(|e| Fault::Init(e.to_string()))?,
                );
            }
            let callsite = closure_range.start() + 16;
            prog.verified_callsites.push(callsite);
            prog.add_enclosure(EnclosureDesc {
                id,
                name: enc.src.name.clone(),
                view: view.clone(),
                policy: enc.policy.sysfilter().clone(),
                marked: enc.roots.clone(),
            });
            final_enclosures.push(LinkedEnclosure {
                id,
                name: enc.src.name.clone(),
                declaring,
                entry: enc.src.entry.clone(),
                view,
                policy: enc.policy.sysfilter().clone(),
                callsite,
            });
        }

        // The hidden runtime package owning non-enclosed stack segments
        // (§5.1 split stacks). Never part of any enclosure view.
        let rt_stack_range = lb
            .space_mut()
            .alloc(PAGE_SIZE)
            .map_err(|e| Fault::Init(e.to_string()))?;
        prog.add_package_desc(PackageDesc {
            name: crate::stack::RUNTIME_STACK_PKG.to_owned(),
            sections: vec![Section::new(
                format!("{}.data", crate::stack::RUNTIME_STACK_PKG),
                SectionKind::Data,
                rt_stack_range,
            )
            .map_err(|e| Fault::Init(e.to_string()))?],
            deps: Vec::new(),
        });

        // The runtime's own verified call-site (scheduler Execute,
        // allocator Transfer).
        let runtime_callsite = prog.verified_callsite();
        symbols.insert("runtime.callsite".into(), runtime_callsite);

        // Metadata sections (sizes reflect their serialized payloads).
        let pkgs_size = prog
            .packages
            .iter()
            .map(|p| p.name.len() as u64 + 24 * p.sections.len() as u64)
            .sum::<u64>();
        let rstrct_size = final_enclosures
            .iter()
            .map(|e| e.name.len() as u64 + 16 * e.view.len() as u64 + 8)
            .sum::<u64>();
        let verif_size = prog.verified_callsites.len() as u64 * 8;
        for (name, size) in [
            (".pkgs", pkgs_size),
            (".rstrct", rstrct_size),
            (".verif", verif_size),
        ] {
            sections.push(ElfSectionInfo {
                name: name.into(),
                addr: Addr::NULL,
                size,
                flags: "-".into(),
                owner: String::new(),
            });
        }

        let image = ElfImage {
            sections,
            symbols,
            enclosures: final_enclosures,
            marked,
            graph,
            loc,
        };
        Ok((image, prog))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::source::GoSource;
    use litterbox::Backend;

    fn figure1_objects() -> Vec<CodeObject> {
        [
            GoSource::new("os").loc(3000),
            GoSource::new("img").loc(800),
            GoSource::new("libfx").imports(&["img"]).loc(160_000),
            GoSource::new("secrets")
                .imports(&["os"])
                .global("original", 64)
                .loc(50),
            GoSource::new("main")
                .imports(&["img", "libfx", "secrets", "os"])
                .constant("banner", b"inverting...")
                .enclosure_with_uses("rcl", "libfx.Invert", &["img"], "secrets: R, none")
                .loc(32),
        ]
        .iter()
        .map(|s| compile(s).unwrap())
        .collect()
    }

    #[test]
    fn link_produces_image_and_init_payload() {
        let mut lb = LitterBox::new(Backend::Mpk);
        let (image, prog) = Linker::new().link(&figure1_objects(), &mut lb).unwrap();
        lb.init(prog).unwrap();

        assert_eq!(image.enclosures().len(), 1);
        let rcl = &image.enclosures()[0];
        assert_eq!(rcl.name, "rcl");
        assert_eq!(rcl.declaring, "main");
        // View: libfx + img (natural) + secrets (R).
        assert_eq!(rcl.view.len(), 3);
        assert_eq!(rcl.view["secrets"], enclosure_vmem::Access::R);
        // Marked: everything in the view.
        assert!(image.marked().contains("libfx"));
        assert!(image.marked().contains("secrets"));
        assert!(!image.marked().contains("main"));
    }

    #[test]
    fn constants_are_loaded_into_rodata() {
        let mut lb = LitterBox::new(Backend::Baseline);
        let (image, prog) = Linker::new().link(&figure1_objects(), &mut lb).unwrap();
        lb.init(prog).unwrap();
        let addr = image.symbol("main.banner").unwrap();
        assert_eq!(
            lb.space().read_vec(addr, 12).unwrap(),
            b"inverting...".to_vec()
        );
    }

    #[test]
    fn globals_get_symbols_in_data() {
        let mut lb = LitterBox::new(Backend::Baseline);
        let (image, _prog) = Linker::new().link(&figure1_objects(), &mut lb).unwrap();
        let addr = image.symbol("secrets.original").unwrap();
        assert!(image
            .sections()
            .iter()
            .any(|s| s.name == "secrets.data" && s.addr == addr && s.flags == "RW"));
    }

    #[test]
    fn figure4_dump_lists_all_sections() {
        let mut lb = LitterBox::new(Backend::Baseline);
        let (image, _prog) = Linker::new().link(&figure1_objects(), &mut lb).unwrap();
        let dump = image.describe();
        for needle in [
            "main.text",
            "libfx.rodata",
            "secrets.data",
            "main.text.rcl",
            ".pkgs",
            ".rstrct",
            ".verif",
        ] {
            assert!(dump.contains(needle), "missing {needle} in\n{dump}");
        }
    }

    #[test]
    fn closure_sections_belong_to_declaring_package() {
        let mut lb = LitterBox::new(Backend::Mpk);
        let (image, prog) = Linker::new().link(&figure1_objects(), &mut lb).unwrap();
        let closure = image
            .sections()
            .iter()
            .find(|s| s.name == "main.text.rcl")
            .unwrap();
        assert_eq!(closure.owner, "main");
        lb.init(prog).unwrap();
        assert_eq!(lb.package_at(closure.addr), Some("main"));
    }

    #[test]
    fn duplicate_package_fails_link() {
        let objs = vec![
            compile(&GoSource::new("a")).unwrap(),
            compile(&GoSource::new("a")).unwrap(),
        ];
        let mut lb = LitterBox::new(Backend::Baseline);
        assert!(matches!(
            Linker::new().link(&objs, &mut lb),
            Err(Fault::Init(_))
        ));
    }

    #[test]
    fn enclosure_callsites_are_verified() {
        let mut lb = LitterBox::new(Backend::Mpk);
        let (image, prog) = Linker::new().link(&figure1_objects(), &mut lb).unwrap();
        let rcl = image.enclosures()[0].clone();
        lb.init(prog).unwrap();
        // The linked call-site works; a random one faults.
        let token = lb.prolog(rcl.id, rcl.callsite).unwrap();
        lb.epilog(token).unwrap();
        assert!(matches!(
            lb.prolog(rcl.id, Addr(0xdeadbeef)),
            Err(Fault::UnverifiedCallsite { .. })
        ));
    }
}
