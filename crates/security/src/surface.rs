//! Attack-surface quantification (§2.1, §4.1).
//!
//! "A compromise of any component in the TCB affords the attacker two
//! benefits. First, they gain the privileges of that component … Second,
//! they gain access to other elements of the TCB" — so the quantity that
//! matters per component is *(interfaces exposed to untrusted guests) ×
//! (authority held)*. The paper's argument for disaggregation is not that
//! the total interface count shrinks (it does not — the same services
//! exist), but that the **weakest-link product** collapses: stock Xen
//! concentrates every guest-facing interface in the domain that also
//! holds blanket authority.
//!
//! [`survey`] measures both quantities from live platform state.

use xoar_core::platform::Platform;
use xoar_hypervisor::{DomId, DomainRole, DomainState};

/// The guest-facing interface count and authority of one component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentSurface {
    /// The component's domain.
    pub dom: DomId,
    /// Component name.
    pub name: String,
    /// Event-channel connections to guest domains.
    pub guest_event_channels: usize,
    /// Grant entries guests have extended to this component (ring pages
    /// it can map).
    pub guest_grants: usize,
    /// Guests this component serves on a data or control path.
    pub guests_served: usize,
    /// The component's privilege authority score
    /// ([`xoar_hypervisor::PrivilegeSet::authority_score`]).
    pub authority: u64,
}

impl ComponentSurface {
    /// Total guest-facing interface count.
    pub fn interfaces(&self) -> usize {
        self.guest_event_channels + self.guest_grants + self.guests_served
    }

    /// The risk product: interfaces × authority.
    pub fn risk_product(&self) -> u64 {
        self.interfaces() as u64 * self.authority.max(1)
    }
}

/// The whole platform's surface survey.
#[derive(Debug, Clone)]
pub struct SurfaceSurvey {
    /// Per-component rows, sorted by risk product (highest first).
    pub components: Vec<ComponentSurface>,
}

impl SurfaceSurvey {
    /// The weakest link: the component with the highest risk product.
    pub fn weakest_link(&self) -> Option<&ComponentSurface> {
        self.components.first()
    }

    /// Sum of guest-facing interfaces across all components.
    pub fn total_interfaces(&self) -> usize {
        self.components.iter().map(|c| c.interfaces()).sum()
    }
}

/// Surveys every live service component of `platform`.
pub fn survey(platform: &Platform) -> SurfaceSurvey {
    let guest_ids: Vec<DomId> = platform.guests().iter().map(|g| g.dom).collect();
    let mut components = Vec::new();
    for id in platform.hv.domain_ids() {
        let Ok(d) = platform.hv.domain(id) else {
            continue;
        };
        if d.state == DomainState::Dead || d.role == DomainRole::Guest {
            continue;
        }
        let guest_event_channels = platform
            .hv
            .peers_of(id)
            .into_iter()
            .filter(|p| guest_ids.contains(p))
            .count();
        let guest_grants = guest_ids
            .iter()
            .map(|g| {
                platform
                    .hv
                    .grant_table(*g)
                    .map(|t| t.granted_to(id).len())
                    .unwrap_or(0)
            })
            .sum();
        let guests_served = platform
            .guests()
            .iter()
            .filter(|g| {
                g.netback == Some(id)
                    || g.blkback == Some(id)
                    || g.toolstack == id
                    || g.qemu == Some(id)
            })
            .count();
        components.push(ComponentSurface {
            dom: id,
            name: d.name.clone(),
            guest_event_channels,
            guest_grants,
            guests_served,
            authority: d.privileges.authority_score(),
        });
    }
    components.sort_by_key(|c| std::cmp::Reverse(c.risk_product()));
    SurfaceSurvey { components }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xoar_core::platform::{GuestConfig, XoarConfig};

    fn populate(p: &mut Platform, n: usize) {
        let ts = p.services.toolstacks[0];
        for i in 0..n {
            p.create_guest(ts, GuestConfig::evaluation_guest(&format!("g{i}")))
                .unwrap();
        }
    }

    #[test]
    fn stock_xen_concentrates_everything_in_dom0() {
        let mut p = Platform::stock_xen();
        populate(&mut p, 3);
        let s = survey(&p);
        assert_eq!(s.components.len(), 1, "one service component: Dom0");
        let dom0 = &s.components[0];
        assert!(
            dom0.guest_event_channels >= 3,
            "event channels to every guest"
        );
        assert!(dom0.guest_grants >= 6, "net + blk ring grants per guest");
        assert_eq!(dom0.guests_served, 3);
        assert!(dom0.authority > 100, "blanket privileges");
    }

    #[test]
    fn xoar_splits_the_surface_across_shards() {
        let mut p = Platform::xoar(XoarConfig::default());
        populate(&mut p, 3);
        let s = survey(&p);
        assert!(
            s.components.len() >= 6,
            "many service components: {}",
            s.components.len()
        );
        // No single Xoar component touches every interface class.
        for c in &s.components {
            assert!(
                c.interfaces() < s.total_interfaces(),
                "{} holds the whole surface",
                c.name
            );
        }
    }

    #[test]
    fn weakest_link_product_collapses_under_xoar() {
        let mut stock = Platform::stock_xen();
        populate(&mut stock, 3);
        let mut xoar = Platform::xoar(XoarConfig::default());
        populate(&mut xoar, 3);
        let worst_stock = survey(&stock).weakest_link().unwrap().risk_product();
        let worst_xoar = survey(&xoar).weakest_link().unwrap().risk_product();
        assert!(
            worst_stock > 10 * worst_xoar,
            "weakest link must collapse by an order of magnitude: {worst_stock} vs {worst_xoar}"
        );
    }

    #[test]
    fn total_interfaces_comparable_across_platforms() {
        // Disaggregation redistributes the surface; it does not magically
        // shrink the services guests need.
        let mut stock = Platform::stock_xen();
        populate(&mut stock, 3);
        let mut xoar = Platform::xoar(XoarConfig::default());
        populate(&mut xoar, 3);
        let t_stock = survey(&stock).total_interfaces() as f64;
        let t_xoar = survey(&xoar).total_interfaces() as f64;
        assert!(t_xoar / t_stock > 0.7, "ratio {}", t_xoar / t_stock);
        assert!(t_xoar / t_stock < 2.0, "ratio {}", t_xoar / t_stock);
    }

    #[test]
    fn data_path_shards_carry_interfaces_but_little_authority() {
        let mut p = Platform::xoar(XoarConfig::default());
        populate(&mut p, 2);
        let s = survey(&p);
        let netback = s
            .components
            .iter()
            .find(|c| c.name == "NetBack")
            .expect("netback surveyed");
        assert!(netback.interfaces() > 0, "guests talk to it");
        // Its authority is the PCI passthrough only.
        assert!(netback.authority <= 15, "authority {}", netback.authority);
        // The Builder is the mirror image: huge authority, no guest
        // interfaces.
        let builder = s.components.iter().find(|c| c.name == "Builder").unwrap();
        assert_eq!(builder.guest_event_channels, 0);
        assert!(builder.authority > netback.authority);
    }
}
