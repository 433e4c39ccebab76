//! The one hypervisor walk both analyses read.
//!
//! The privilege-flow snapshot ([`crate::snapshot::ModelSnapshot`]) and
//! the executable isolation spec ([`crate::spec::SpecState`]) start from
//! the same facts: the live domains and their privileges, the live
//! grant entries with the machine frame each resolved to, the declared
//! cross-region ledger, and the clone → template links. [`HvWalk`]
//! reads them once. [`grant_facts`] and [`privilege_relation`] are the
//! only places a grant-table entry or a privilege flag becomes an edge,
//! so both analyses decide a grant or privilege edge the same way; the
//! spec re-reads single granters, privileges and [`frame_owners`]
//! through the same functions as it steps.

use std::collections::{BTreeMap, BTreeSet};

use xoar_hypervisor::grant::GrantAccess;
use xoar_hypervisor::hypervisor::DeclaredOps;
use xoar_hypervisor::{DomId, Domain, Hypervisor};

/// One grant fact: the granter's table says `grantee` may reach the
/// page at (`pfn` → `mfn`) with `access`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrantFact {
    /// Domain allowed to map the page.
    pub grantee: DomId,
    /// Granter-local frame number.
    pub pfn: u64,
    /// Machine frame the grant resolved to at grant time.
    pub mfn: u64,
    /// Permitted access mode.
    pub access: GrantAccess,
}

impl GrantFact {
    /// Whether `other` re-states this fact (same grantee, page, and
    /// access). Machine frames are ignored: a CoW break may have moved
    /// the page between revocation and an attempted resurrection.
    pub fn same_capability(&self, other: &GrantFact) -> bool {
        self.grantee == other.grantee && self.pfn == other.pfn && self.access == other.access
    }
}

/// The state both analyses capture, read in one pass.
pub struct HvWalk<'a> {
    /// Live domains, ascending by ID.
    pub domains: Vec<&'a Domain>,
    /// Live grant entries as `(granter, gref, fact)`, ascending by
    /// `(granter, gref)`.
    pub grants: Vec<(DomId, u32, GrantFact)>,
    /// The hypervisor's declared cross-region ledger.
    pub declared: DeclaredOps,
    /// `clone → template` for every live clone.
    pub clone_of: BTreeMap<DomId, DomId>,
}

impl<'a> HvWalk<'a> {
    /// Walks `hv` once.
    pub fn of(hv: &'a Hypervisor) -> Self {
        let domains: Vec<&Domain> = hv
            .domain_ids()
            .into_iter()
            .filter_map(|id| hv.domain(id).ok())
            .collect();
        let grants = domains
            .iter()
            .flat_map(|d| {
                grant_facts(hv, d.id)
                    .into_iter()
                    .map(move |(gref, fact)| (d.id, gref, fact))
            })
            .collect();
        let clone_of = domains
            .iter()
            .filter_map(|d| hv.mem.template_of(d.id).map(|t| (d.id, t)))
            .collect();
        HvWalk {
            domains,
            grants,
            declared: hv.declared_ops(),
            clone_of,
        }
    }
}

/// `granter`'s live grant entries in ref order, as facts.
pub fn grant_facts(hv: &Hypervisor, granter: DomId) -> Vec<(u32, GrantFact)> {
    hv.grant_table(granter).map_or(Vec::new(), |table| {
        table
            .entries_sorted()
            .into_iter()
            .map(|(gref, e)| {
                (
                    gref.0,
                    GrantFact {
                        grantee: e.grantee,
                        pfn: e.pfn.0,
                        mfn: e.mfn.0,
                        access: e.access,
                    },
                )
            })
            .collect()
    })
}

/// `mfn → owner` for every frame mapped by a domain in `domains`.
pub fn frame_owners(hv: &Hypervisor, domains: &BTreeSet<DomId>) -> BTreeMap<u64, DomId> {
    let mut owners = BTreeMap::new();
    for &d in domains {
        for (_, mfn) in hv.mem.p2m_entries(d) {
            if let Ok(o) = hv.mem.owner(mfn) {
                owners.insert(mfn.0, o);
            }
        }
    }
    owners
}

/// The privilege relation over `domains`: the holders of blanket
/// foreign mapping, and the `(subject, object)` pairs of the
/// `privileged_for` relation.
pub fn privilege_relation<'d>(
    domains: impl IntoIterator<Item = &'d Domain>,
) -> (BTreeSet<DomId>, BTreeSet<(DomId, DomId)>) {
    let mut blanket = BTreeSet::new();
    let mut priv_for = BTreeSet::new();
    for d in domains {
        if d.privileges.map_foreign_any {
            blanket.insert(d.id);
        }
        priv_for.extend(d.privileged_for.iter().map(|&obj| (d.id, obj)));
    }
    (blanket, priv_for)
}
