//! The high-level memory-ownership model.
//!
//! [`SpecState`] is the executable isolation spec: a deliberately tiny
//! abstraction of machine memory — per-frame `owner`, the set of
//! declared sharing edges, and the privilege relation — in the style of
//! hvisor-pt's `mappings + permissions` state machine. The checker
//! ([`super::checker`]) advances it in lockstep with the real
//! hypervisor and asserts after every hypercall that the implementation
//! *refines* it: every concrete mapping, grant entry, CoW alias, and
//! clone fall-through must be justified by the model, and no frame may
//! become cross-domain read-visible without a declared edge.
//!
//! The model is also a query interface: tests express noninterference
//! claims (`can_see`, `sharing_justification`) against the spec rather
//! than against implementation internals.

use std::collections::{BTreeMap, BTreeSet};

use xoar_hypervisor::{DomId, Hypervisor};

pub use crate::capture::GrantFact;
use crate::capture::{frame_owners, privilege_relation, HvWalk};

/// A declared cross-region sharing edge, as recorded by the
/// hypervisor's ledger: `(kind, subject, object)` with kind one of
/// `"grant"`, `"event"`, `"foreign"`, `"blanket"`.
pub type Edge = (&'static str, DomId, DomId);

/// Above this many owned frames (summed over live domains) the checker
/// stops maintaining the exact per-frame owner map and falls back to
/// per-domain frame counts. The small-scope driver stays far below it;
/// full platforms get the scaled check.
pub const EXACT_OWNER_LIMIT: u64 = 16_384;

/// The abstract machine-memory state the hypervisor must refine.
#[derive(Debug, Clone, Default)]
pub struct SpecState {
    /// Live (non-dead) domains the model tracks.
    pub live: BTreeSet<DomId>,
    /// Exact frame ownership, `mfn → owner`. Maintained only while
    /// `owner_exact` holds (small scopes); empty otherwise.
    pub owner: BTreeMap<u64, DomId>,
    /// Whether [`SpecState::owner`] is being maintained exactly.
    pub owner_exact: bool,
    /// Per-domain mapped-frame counts (the scaled ownership view).
    pub owned: BTreeMap<DomId, u64>,
    /// Live grant facts, keyed by `(granter, gref)`.
    pub grants: BTreeMap<(DomId, u32), GrantFact>,
    /// Facts revoked by `GnttabEndAccess` and never legitimately
    /// re-granted, kept as `(granter, fact)`. A real table entry that
    /// matches one of these without a model-side grant is diagnosed as
    /// a resurrected revocation (grant refs are monotonic, so the match
    /// is on the capability, not the ref).
    pub revoked: Vec<(DomId, GrantFact)>,
    /// Declared sharing edges (the model's copy of the ledger).
    pub declared: BTreeSet<Edge>,
    /// Domains holding blanket `map_foreign_any`.
    pub blanket: BTreeSet<DomId>,
    /// `(subject, object)` pairs of the `privileged_for` relation.
    pub priv_for: BTreeSet<(DomId, DomId)>,
    /// `clone → template` links the model has observed (via
    /// `DomctlCloneDomain` or attach-time capture). A fall-through
    /// alias between a clone and a template is justified only by an
    /// edge recorded *here* — a clone space wired up behind the model's
    /// back is a divergence.
    pub clone_of: BTreeMap<DomId, DomId>,
}

impl SpecState {
    /// Captures the abstraction of a running hypervisor.
    ///
    /// Attach-time capture trusts the current state (the spec cannot
    /// retroactively justify history); from then on the checker only
    /// accepts changes its advance rules permit.
    pub fn capture(hv: &Hypervisor) -> SpecState {
        let walk = HvWalk::of(hv);
        let (blanket, priv_for) = privilege_relation(walk.domains.iter().copied());
        let mut s = SpecState {
            live: walk.domains.iter().map(|d| d.id).collect(),
            grants: walk
                .grants
                .into_iter()
                .map(|(granter, gref, fact)| ((granter, gref), fact))
                .collect(),
            declared: walk.declared,
            blanket,
            priv_for,
            clone_of: walk.clone_of,
            ..SpecState::default()
        };
        let total_owned: u64 = s.live.iter().map(|&d| hv.mem.owned_frames(d)).sum();
        s.owner_exact = total_owned <= EXACT_OWNER_LIMIT;
        s.sync_owner_views(hv);
        s
    }

    /// Rebuilds the ownership views (exact map and per-domain counts)
    /// from the real state. Used at capture and after the checker has
    /// verified an ownership delta is justified.
    pub(crate) fn sync_owner_views(&mut self, hv: &Hypervisor) {
        self.owned = self
            .live
            .iter()
            .map(|&d| (d, hv.mem.owned_frames(d)))
            .collect();
        self.owner = if self.owner_exact {
            frame_owners(hv, &self.live)
        } else {
            BTreeMap::new()
        };
    }

    /// Refreshes the privilege relation (blanket / privileged-for) from
    /// live domains. These are *inputs* to justification; drift in the
    /// visible sharing they imply is audited through the declared-edge
    /// ledger, which derives `"blanket"`/`"foreign"` edges from them.
    pub(crate) fn sync_privileges(&mut self, hv: &Hypervisor) {
        (self.blanket, self.priv_for) =
            privilege_relation(self.live.iter().filter_map(|&id| hv.domain(id).ok()));
    }

    /// Whether the model links `a` and `b` through snapshot-fork
    /// cloning: one is a clone of the other, or both are clones of the
    /// same template. Such pairs legitimately read-share the template
    /// body copy-on-write.
    pub fn clone_linked(&self, a: DomId, b: DomId) -> bool {
        self.clone_of.get(&a) == Some(&b)
            || self.clone_of.get(&b) == Some(&a)
            || matches!(
                (self.clone_of.get(&a), self.clone_of.get(&b)),
                (Some(x), Some(y)) if x == y
            )
    }

    /// Whether a sharing edge between `a` and `b` is declared: a grant,
    /// event, or foreign edge naming both (either orientation), or a
    /// blanket privilege on either side.
    pub fn declares_sharing(&self, a: DomId, b: DomId) -> bool {
        if self.blanket.contains(&a) || self.blanket.contains(&b) {
            return true;
        }
        self.declared
            .iter()
            .any(|&(_, s, o)| (s == a && o == b) || (s == b && o == a))
    }

    /// Model-level read-visibility: can `a` observe `b`'s memory?
    ///
    /// True only along the three enforced paths (blanket mapping,
    /// `privileged_for`, a grant from `b` to `a`) or a clone/template
    /// link. This is the query satellite noninterference tests assert
    /// against in place of hand-rolled implementation probes.
    pub fn can_see(&self, a: DomId, b: DomId) -> bool {
        if a == b {
            return true;
        }
        if self.blanket.contains(&a) || self.priv_for.contains(&(a, b)) {
            return true;
        }
        if self.clone_linked(a, b) {
            return true;
        }
        self.grants
            .iter()
            .any(|(&(granter, _), f)| granter == b && f.grantee == a)
    }

    /// Why (if at all) the model justifies `a` and `b` sharing memory:
    /// `"blanket"`, `"privileged-for"`, `"grant"`, `"clone-template"`,
    /// or `None`.
    pub fn sharing_justification(&self, a: DomId, b: DomId) -> Option<&'static str> {
        if self.blanket.contains(&a) || self.blanket.contains(&b) {
            return Some("blanket");
        }
        if self.priv_for.contains(&(a, b)) || self.priv_for.contains(&(b, a)) {
            return Some("privileged-for");
        }
        if self.clone_linked(a, b) {
            return Some("clone-template");
        }
        let granted = self.grants.iter().any(|(&(granter, _), f)| {
            (granter == b && f.grantee == a) || (granter == a && f.grantee == b)
        });
        if granted {
            return Some("grant");
        }
        None
    }

    /// Grant facts exported by `granter`, in ref order.
    pub fn grants_by(&self, granter: DomId) -> Vec<(u32, GrantFact)> {
        self.grants
            .range((granter, 0)..=(granter, u32::MAX))
            .map(|(&(_, gref), &f)| (gref, f))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xoar_hypervisor::grant::GrantAccess;

    fn d(n: u32) -> DomId {
        DomId(n)
    }

    fn base() -> SpecState {
        let mut s = SpecState::default();
        s.live.extend([d(0), d(1), d(2)]);
        s
    }

    #[test]
    fn clone_links_cover_siblings_and_parents() {
        let mut s = base();
        s.clone_of.insert(d(1), d(0));
        s.clone_of.insert(d(2), d(0));
        assert!(s.clone_linked(d(1), d(0)));
        assert!(s.clone_linked(d(0), d(2)));
        assert!(s.clone_linked(d(1), d(2)), "siblings share a template");
        assert!(!s.clone_linked(d(1), d(3)));
    }

    #[test]
    fn can_see_is_directional_for_grants() {
        let mut s = base();
        s.grants.insert(
            (d(1), 0),
            GrantFact {
                grantee: d(2),
                pfn: 4,
                mfn: 40,
                access: GrantAccess::ReadWrite,
            },
        );
        assert!(s.can_see(d(2), d(1)), "grantee sees granter's page");
        assert!(!s.can_see(d(1), d(2)), "granter gains nothing back");
        assert_eq!(s.sharing_justification(d(1), d(2)), Some("grant"));
        assert_eq!(s.sharing_justification(d(0), d(2)), None);
    }

    #[test]
    fn blanket_and_priv_for_dominate() {
        let mut s = base();
        s.blanket.insert(d(0));
        s.priv_for.insert((d(1), d(2)));
        assert!(s.can_see(d(0), d(2)));
        assert!(s.can_see(d(1), d(2)));
        assert!(!s.can_see(d(2), d(1)));
        assert_eq!(s.sharing_justification(d(1), d(2)), Some("privileged-for"));
    }

    #[test]
    fn same_capability_ignores_machine_frame() {
        let a = GrantFact {
            grantee: d(2),
            pfn: 4,
            mfn: 40,
            access: GrantAccess::ReadOnly,
        };
        let b = GrantFact { mfn: 99, ..a };
        assert!(a.same_capability(&b));
        let c = GrantFact {
            access: GrantAccess::ReadWrite,
            ..a
        };
        assert!(!a.same_capability(&c));
    }
}
