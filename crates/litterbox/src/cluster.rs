//! Meta-package clustering (§5.3).
//!
//! "LitterBox performs an important optimization by clustering the
//! packages across all memory views that have the same access rights.
//! This clustering creates larger, logical meta-packages that can be
//! efficiently managed." For LB_MPK, each meta-package needs one
//! protection key while it is bound. Under libmpk-style key
//! virtualization ([`crate::MpkKeyMode::Virtual`], the default), where
//! the LB_MPK enforcer's key table multiplexes the hardware keys over
//! the metas, clustering is purely an optimization — it shrinks the
//! working set of keys a switch must bind, reducing evictions; in
//! [`crate::MpkKeyMode::Static`] it is what decides whether a program
//! fits the 15 allocatable hardware keys at all.

use std::collections::BTreeMap;

use enclosure_vmem::Access;

use crate::{EnclosureId, ViewMap};

/// A cluster of packages that share identical access rights across every
/// enclosure memory view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetaPackage {
    /// Dense index: the row of LB_MPK's key table, which binds it to
    /// a hardware key on demand.
    pub index: usize,
    /// Member package names.
    pub members: Vec<String>,
    /// The shared signature: rights per enclosure, in enclosure-id order.
    pub signature: Vec<(EnclosureId, Access)>,
}

impl MetaPackage {
    /// Rights this meta-package has inside `enclosure`'s view.
    #[must_use]
    pub fn rights_in(&self, enclosure: EnclosureId) -> Access {
        self.signature
            .iter()
            .find(|(id, _)| *id == enclosure)
            .map_or(Access::NONE, |(_, a)| *a)
    }
}

/// Result of clustering: the meta-packages plus a package → meta index.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Clustering {
    /// The meta-packages, densely indexed.
    pub metas: Vec<MetaPackage>,
    /// Package name → index into `metas`.
    pub meta_of: BTreeMap<String, usize>,
}

impl Clustering {
    /// Number of meta-packages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.metas.len()
    }

    /// True if there are no meta-packages.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }
}

/// Clusters `package_names` by their access signature across the
/// enclosures' `views`, one `(id, view)` pair per enclosure.
///
/// Two packages land in the same meta-package exactly when every
/// enclosure grants them identical rights. Meta-package indices are
/// assigned deterministically (by first member in name order) so key
/// assignment is reproducible run to run.
#[must_use]
pub fn cluster(package_names: &[&str], views: &[(EnclosureId, &ViewMap)]) -> Clustering {
    let mut by_id: Vec<(EnclosureId, &ViewMap)> = views.to_vec();
    by_id.sort_by_key(|(id, _)| *id);

    // signature → members (BTreeMap keyed by the signature bytes keeps
    // the grouping deterministic).
    let mut groups: BTreeMap<Vec<(EnclosureId, Access)>, Vec<String>> = BTreeMap::new();
    let mut names = package_names.to_vec();
    names.sort_unstable();
    for name in names {
        let signature: Vec<(EnclosureId, Access)> = by_id
            .iter()
            .map(|(id, view)| (*id, view.get(name).copied().unwrap_or(Access::NONE)))
            .collect();
        groups.entry(signature).or_default().push(name.to_owned());
    }

    // Deterministic index order: by first member name.
    let mut ordered: Vec<_> = groups.into_iter().collect();
    ordered.sort_by(|a, b| a.1[0].cmp(&b.1[0]));

    let mut clustering = Clustering::default();
    for (index, (signature, members)) in ordered.into_iter().enumerate() {
        for member in &members {
            clustering.meta_of.insert(member.clone(), index);
        }
        clustering.metas.push(MetaPackage {
            index,
            members,
            signature,
        });
    }
    clustering
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enclosure(id: u32, view: &[(&str, Access)]) -> (EnclosureId, ViewMap) {
        let view = view.iter().map(|(n, a)| (n.to_string(), *a)).collect();
        (EnclosureId(id), view)
    }

    /// [`cluster`] over owned `(id, view)` pairs.
    fn cluster_of(names: &[&str], enclosures: &[(EnclosureId, ViewMap)]) -> Clustering {
        let views: Vec<(EnclosureId, &ViewMap)> =
            enclosures.iter().map(|(id, view)| (*id, view)).collect();
        cluster(names, &views)
    }

    #[test]
    fn identical_rights_cluster_together() {
        let encls = vec![enclosure(
            1,
            &[
                ("libfx", Access::RWX),
                ("util", Access::RWX),
                ("secrets", Access::R),
            ],
        )];
        let c = cluster_of(&["libfx", "util", "secrets", "main"], &encls);
        assert_eq!(c.len(), 3, "RWX pair, R singleton, unmapped singleton");
        assert_eq!(c.meta_of["libfx"], c.meta_of["util"]);
        assert_ne!(c.meta_of["libfx"], c.meta_of["secrets"]);
        assert_ne!(c.meta_of["main"], c.meta_of["secrets"]);
    }

    #[test]
    fn second_enclosure_splits_clusters() {
        let encls = vec![
            enclosure(1, &[("a", Access::RWX), ("b", Access::RWX)]),
            enclosure(2, &[("a", Access::RWX)]), // b unmapped here
        ];
        let c = cluster_of(&["a", "b"], &encls);
        assert_eq!(c.len(), 2);
        assert_ne!(c.meta_of["a"], c.meta_of["b"]);
    }

    #[test]
    fn no_enclosures_is_one_big_meta() {
        let c = cluster(&["a", "b", "c"], &[]);
        assert_eq!(c.len(), 1);
        assert_eq!(c.metas[0].members.len(), 3);
    }

    #[test]
    fn rights_in_reports_signature() {
        let encls = vec![enclosure(1, &[("a", Access::R)])];
        let c = cluster_of(&["a", "b"], &encls);
        let meta_a = &c.metas[c.meta_of["a"]];
        assert_eq!(meta_a.rights_in(EnclosureId(1)), Access::R);
        assert_eq!(meta_a.rights_in(EnclosureId(99)), Access::NONE);
        let meta_b = &c.metas[c.meta_of["b"]];
        assert_eq!(meta_b.rights_in(EnclosureId(1)), Access::NONE);
    }

    #[test]
    fn clustering_is_deterministic() {
        let encls = vec![
            enclosure(1, &[("x", Access::R), ("y", Access::RW)]),
            enclosure(2, &[("z", Access::RWX)]),
        ];
        let a = cluster_of(&["x", "y", "z", "w"], &encls);
        let b = cluster_of(&["w", "z", "y", "x"], &encls);
        assert_eq!(a, b);
    }

    #[test]
    fn paper_scenario_fits_in_16_keys() {
        // FastHTTP-style: ~100 dependency packages, all enclosed with the
        // same rights inside one enclosure → they collapse into a couple of
        // meta-packages regardless of count (§5.3).
        let mut pkgs: Vec<String> = (0..100).map(|i| format!("dep{i:03}")).collect();
        pkgs.push("main".into());
        let view: ViewMap = (0..100)
            .map(|i| (format!("dep{i:03}"), Access::RWX))
            .collect();
        let names: Vec<&str> = pkgs.iter().map(String::as_str).collect();
        let c = cluster(&names, &[(EnclosureId(1), &view)]);
        assert_eq!(c.len(), 2, "100 deps collapse to one meta + main's meta");
        assert!(c.len() <= 15, "fits the MPK key budget");
    }
}
