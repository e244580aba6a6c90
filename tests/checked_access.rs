//! `LitterBox::permits` against the checked accesses, and both against
//! a statement of the access rule written apart from `vmem` and
//! `litterbox`.
//!
//! Each case draws one program (packages, enclosures with random views,
//! transferred arenas, and enough enclosures that LB_MPK must evict
//! keys in some cases) and one list of spans, then runs both on
//! Baseline, LB_MPK, LB_VTX and LB_PROC, from trusted code and from
//! inside an enclosure. For every span and for a read and a write,
//! `permits` must answer what the rule answers, the checked access must
//! succeed exactly when `permits` does and the memory is backed, and a
//! refused access must fail with exactly the fault the rule names: the
//! variant, the address, the rights, the key, the PKRU value and the
//! table name, as the check built them before `permits` existed.

use enclosure_repro::kernel::seccomp::SysPolicy;
use enclosure_support::XorShift;
use enclosure_vmem::{Access, Addr, PageIdx, VirtRange, VmemError, PAGE_SIZE};
use litterbox::{
    Backend, EnclosureDesc, EnclosureId, Fault, LitterBox, PackageLayout, ProgramDesc, ViewMap,
    LB_SUPER_PKG, LB_USER_PKG, TRUSTED_ENV,
};

/// One random program, the same on every backend.
struct Plan {
    /// Data pages of each package `p0`, `p1`, ...
    data_pages: Vec<u64>,
    /// Each enclosure's view: (package index, rights).
    views: Vec<Vec<(usize, Access)>>,
    /// Each arena: its pages, its first owner and, if it moves on, its
    /// second.
    arenas: Vec<(u64, usize, Option<usize>)>,
    /// Enclosures entered and left, in order, before the probes.
    visits: Vec<usize>,
    /// The enclosure the second round of probes runs inside.
    inside: usize,
}

fn package(i: usize) -> String {
    format!("p{i}")
}

fn draw_plan(rng: &mut XorShift) -> Plan {
    // A third of the cases has more than 15 enclosures over enough
    // packages that LB_MPK's metas outnumber its keys.
    let many = rng.range_u64(0, 3) == 0;
    let packages = if many {
        rng.range_usize(16, 24)
    } else {
        rng.range_usize(2, 7)
    };
    let enclosures = if many {
        rng.range_usize(16, 21)
    } else {
        rng.range_usize(1, 5)
    };
    let rights = [Access::R, Access::RW, Access::RWX];
    let views = (0..enclosures)
        .map(|_| {
            let mut view: Vec<(usize, Access)> = Vec::new();
            for _ in 0..rng.range_usize(1, 5) {
                let pkg = rng.range_usize(0, packages);
                if view.iter().all(|&(p, _)| p != pkg) {
                    view.push((pkg, *rng.choose(&rights)));
                }
            }
            view
        })
        .collect();
    let arenas = (0..rng.range_usize(0, 4))
        .map(|_| {
            let second = rng.next_bool().then(|| rng.range_usize(0, packages));
            (rng.range_u64(1, 4), rng.range_usize(0, packages), second)
        })
        .collect();
    let visits = (0..rng.range_usize(0, 2 * enclosures))
        .map(|_| rng.range_usize(0, enclosures))
        .collect();
    Plan {
        data_pages: (0..packages).map(|_| rng.range_u64(1, 3)).collect(),
        views,
        arenas,
        visits,
        inside: rng.range_usize(0, enclosures),
    }
}

/// A machine running `plan`, with every section it holds and the rights
/// that section's kind grants by default, and one backed range no
/// package owns.
struct Built {
    lb: LitterBox,
    sections: Vec<(VirtRange, Access)>,
    unowned: VirtRange,
    callsite: Addr,
}

fn build(backend: Backend, plan: &Plan) -> Built {
    let mut lb = LitterBox::new(backend);
    let mut prog = ProgramDesc::new();
    let mut sections = Vec::new();
    let mut first_page = None;
    for (i, &data) in plan.data_pages.iter().enumerate() {
        let layout: PackageLayout = prog.add_package(&mut lb, &package(i), 1, 1, data).unwrap();
        first_page.get_or_insert(layout.text_start());
        let rodata = VirtRange::new(layout.rodata_start(), PAGE_SIZE);
        sections.extend([
            (layout.text(), Access::RX),
            (rodata, Access::R),
            (layout.data(), Access::RW),
        ]);
    }
    let callsite = prog.verified_callsite();
    for (i, view) in plan.views.iter().enumerate() {
        let id = u32::try_from(i + 1).unwrap();
        prog.add_enclosure(EnclosureDesc {
            id: EnclosureId(id),
            name: format!("e{id}"),
            view: view
                .iter()
                .map(|&(p, a)| (package(p), a))
                .collect::<ViewMap>(),
            policy: SysPolicy::none(),
            marked: vec![],
        });
    }
    // `Init` puts LitterBox's own two one-page packages at the top.
    let pages = lb.space().page_len() as u64;
    lb.init(prog).unwrap();
    let internal = first_page.unwrap() + pages * PAGE_SIZE;
    for (at, owner, rights) in [
        (internal, LB_USER_PKG, Access::RX),
        (internal + PAGE_SIZE, LB_SUPER_PKG, Access::RW),
    ] {
        assert_eq!(lb.package_at(at), Some(owner));
        sections.push((VirtRange::new(at, PAGE_SIZE), rights));
    }
    for &(pages, first, second) in &plan.arenas {
        let arena = lb.space_mut().alloc(pages * PAGE_SIZE).unwrap();
        lb.transfer(arena, None, &package(first)).unwrap();
        if let Some(second) = second {
            lb.transfer(arena, Some(&package(first)), &package(second))
                .unwrap();
        }
        sections.push((arena, Access::RW));
    }
    let unowned = lb.space_mut().alloc(2 * PAGE_SIZE).unwrap();
    for &enc in &plan.visits {
        let token = lb.prolog(enclosure(enc), callsite).unwrap();
        lb.epilog(token).unwrap();
    }
    Built {
        lb,
        sections,
        unowned,
        callsite,
    }
}

fn enclosure(index: usize) -> EnclosureId {
    EnclosureId(u32::try_from(index + 1).unwrap())
}

/// Spans of every kind over `built`'s layout: inside one page, crossing
/// pages, zero length, ending past `u64::MAX`, and unmapped (below the
/// space, past its top, or backed but owned by no package). Spans over
/// arenas reach pages a Transfer took out of a view.
fn draw_spans(rng: &mut XorShift, built: &Built) -> Vec<(Addr, u64)> {
    let mut ranges: Vec<VirtRange> = built.sections.iter().map(|&(r, _)| r).collect();
    ranges.push(built.unowned);
    let top = built.unowned.end();
    (0..24)
        .map(|_| {
            let range = *rng.choose(&ranges);
            let page = range.start() + rng.range_u64(0, range.len() / PAGE_SIZE) * PAGE_SIZE;
            match rng.range_u64(0, 8) {
                0..=2 => {
                    let len = if rng.next_bool() {
                        8
                    } else {
                        rng.range_u64(1, 65)
                    };
                    (page + rng.range_u64(0, PAGE_SIZE - len + 1), len)
                }
                3 | 4 => {
                    let back = rng.range_u64(1, 9);
                    (
                        page + (PAGE_SIZE - back),
                        back + rng.range_u64(1, 2 * PAGE_SIZE),
                    )
                }
                5 => (page + rng.range_u64(0, PAGE_SIZE), 0),
                6 => {
                    let back = rng.range_u64(0, 16);
                    (Addr(u64::MAX - back), back + rng.range_u64(1, 17))
                }
                _ => {
                    let at = *rng.choose(&[Addr(PAGE_SIZE), top, built.unowned.start()]);
                    (at + rng.range_u64(0, PAGE_SIZE), rng.range_u64(0, 17))
                }
            }
        })
        .collect()
}

/// The rights PKRU grants a key: access-disable, write-disable or both
/// clear.
fn key_rights(pkru: u32, key: u8) -> Access {
    match (pkru >> (2 * u32::from(key))) & 0b11 {
        0b00 => Access::RW,
        0b10 => Access::R,
        _ => Access::NONE,
    }
}

/// The running environment's PKRU image: every key disabled but key 0,
/// then each bound meta-package's key granting the data rights the
/// running view gives its members.
fn pkru_image(lb: &LitterBox) -> u32 {
    let mut pkru: u32 = !0b11;
    for pkg in lb.clustering().meta_of.keys() {
        if let Some(key) = lb.hardware_key_of(pkg) {
            let rights = lb.view_rights(pkg);
            let bits = if !rights.contains(Access::R) {
                0b01
            } else if !rights.contains(Access::W) {
                0b10
            } else {
                0b00
            };
            let shift = 2 * u32::from(key);
            pkru = (pkru & !(0b11 << shift)) | (bits << shift);
        }
    }
    pkru
}

/// The access rule, stated from the program and the running view: what
/// an access of `len` bytes at `addr` needing `needed` gets from the
/// enforcer. Pages are visited from the lowest; a zero-length span asks
/// about the page at `addr`, and one whose end does not fit in 64 bits
/// is unmapped at `addr`.
///
/// * LB_VTX and LB_PROC map, per environment, each page its view grants
///   a right on, with its section's default rights narrowed to the
///   view's (the trusted table is `trusted`, or LB_PROC's `supervisor`).
/// * LB_MPK maps every section with its default rights in one table,
///   `mpk-shared`, parks the pages of a meta-package that holds no key
///   as non-present, and then checks the key of every page against the
///   running environment's PKRU image.
fn rule(
    built: &Built,
    backend: Backend,
    addr: Addr,
    len: u64,
    needed: Access,
) -> Result<(), VmemError> {
    let lb = &built.lb;
    let env = lb.current_env();
    let table: std::sync::Arc<str> = match backend {
        Backend::Baseline => return Ok(()),
        Backend::Mpk => "mpk-shared".into(),
        Backend::Proc if env == TRUSTED_ENV => "supervisor".into(),
        _ => lb.env_name(env).into(),
    };
    let unmapped = |addr| VmemError::Unmapped {
        addr,
        table: table.clone(),
    };
    let Some(end) = addr.0.checked_add(len.max(1)) else {
        return Err(unmapped(addr));
    };
    let pages = (addr.0 / PAGE_SIZE..=(end - 1) / PAGE_SIZE).map(PageIdx);
    // Each page's owner, and the rights its section's kind grants.
    let section = |page: PageIdx| {
        let owner = lb.package_at(page.base())?;
        let (_, rights) = built
            .sections
            .iter()
            .find(|(range, _)| range.contains(page.base()))
            .expect("every owned page lies in a known section");
        Some((owner, *rights))
    };
    for page in pages.clone() {
        let granted = match section(page) {
            Some((owner, rights)) if backend == Backend::Mpk => {
                lb.hardware_key_of(owner).map_or(Access::NONE, |_| rights)
            }
            Some((owner, rights)) => rights.intersection(lb.view_rights(owner)),
            None => Access::NONE,
        };
        if granted.is_none() {
            return Err(unmapped(page.base()));
        }
        if !granted.contains(needed) {
            return Err(VmemError::ProtectionFault {
                addr,
                needed,
                granted,
                table,
            });
        }
    }
    if backend == Backend::Mpk {
        let pkru = pkru_image(lb);
        for page in pages {
            let (owner, _) = section(page).expect("mapped above");
            let key = lb.hardware_key_of(owner).expect("present above");
            if !key_rights(pkru, key).contains(needed) {
                return Err(VmemError::PkeyFault {
                    addr: if page == addr.page() {
                        addr
                    } else {
                        page.base()
                    },
                    key,
                    needed,
                    pkru,
                    table,
                });
            }
        }
    }
    Ok(())
}

/// Probes every span with a read and a write in `built`'s running
/// environment.
fn probe(built: &mut Built, backend: Backend, spans: &[(Addr, u64)], case: &str) {
    for &(addr, len) in spans {
        let mut buf = vec![0u8; len as usize];
        // Whether the span is backed, read past every check.
        let backed = built.lb.space().read(addr, &mut buf).map_err(Fault::Memory);
        for needed in [Access::R, Access::W] {
            let what = format!("{case}: {needed} of {len} bytes at {addr}");
            let expected = rule(built, backend, addr, len, needed).map_err(Fault::Memory);
            let permits = built.lb.permits(addr, len, needed);
            assert_eq!(permits, expected.is_ok(), "{what}: permits");
            let result = if needed == Access::R {
                built.lb.load_into(addr, &mut buf)
            } else {
                built.lb.store(addr, &buf)
            };
            assert_eq!(result.is_ok(), permits && backed.is_ok(), "{what}: success");
            assert_eq!(result, expected.and(backed.clone()), "{what}: fault");
        }
    }
}

enclosure_support::props! {
    /// `permits` answers the access rule, a checked read or write
    /// succeeds exactly when `permits` does on backed memory, and a
    /// refusal is the fault the rule names, on every backend, from
    /// trusted code and from inside an enclosure.
    fn permits_and_checked_access_agree_with_the_rule(rng, cases = 24) {
        let plan = draw_plan(rng);
        let mut spans = None;
        for backend in [Backend::Baseline, Backend::Mpk, Backend::Vtx, Backend::Proc] {
            let mut built = build(backend, &plan);
            let spans = &*spans.get_or_insert_with(|| draw_spans(rng, &built));
            probe(&mut built, backend, spans, &format!("{backend} trusted"));
            let token = built.lb.prolog(enclosure(plan.inside), built.callsite).unwrap();
            let case = format!("{backend} inside e{}", plan.inside + 1);
            probe(&mut built, backend, spans, &case);
            built.lb.epilog(token).unwrap();
        }
    }
}
