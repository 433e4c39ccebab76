//! Deployment-scenario presets (§3.4).
//!
//! The paper sketches two configurations and stresses that "Xoar does not
//! favour a particular configuration":
//!
//! * **public cloud** (§3.4.1): one administrative toolstack densely
//!   multiplexing Internet-exposed tenant VMs, shared shards judiciously
//!   microrebooted, no console;
//! * **private cloud** (§3.4.2): per-user toolstacks with shards
//!   delegated to them, coarse resource partitioning, quotas enforced by
//!   the platform.
//!
//! [`DeploymentScenario`] packages those choices so an operator gets a
//! sensible platform + toolstack + restart-engine bundle in one call.

use xoar_hypervisor::HvResult;

use crate::platform::{Platform, XoarConfig};
use crate::restart::RestartEngine;
use crate::toolstack::{ResourceQuota, Toolstack};

/// The §3.4 deployment scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeploymentScenario {
    /// §3.4.1: dense multi-tenant hosting, one toolstack, 10 s driver
    /// restarts, no console (commercial hosts run headless).
    PublicCloud,
    /// §3.4.2: `users` independent slices, each with its own toolstack
    /// and an equal share of the host's memory; PCIBack kept for
    /// on-the-fly device provisioning.
    PrivateCloud {
        /// Number of per-user toolstacks.
        users: usize,
    },
}

/// A deployed platform bundle.
pub struct Deployment {
    /// The booted platform.
    pub platform: Platform,
    /// One facade per toolstack, quotas applied.
    pub toolstacks: Vec<Toolstack>,
    /// The restart engine, pre-registered per the scenario's policy.
    pub engine: RestartEngine,
}

impl DeploymentScenario {
    /// The [`XoarConfig`] this scenario boots with.
    pub fn config(self) -> XoarConfig {
        match self {
            DeploymentScenario::PublicCloud => XoarConfig {
                with_console: false,
                keep_pciback: false,
                toolstacks: 1,
                restart_interval_s: Some(10),
            },
            DeploymentScenario::PrivateCloud { users } => XoarConfig {
                with_console: true,
                keep_pciback: true,
                toolstacks: users.max(1),
                restart_interval_s: None,
            },
        }
    }

    /// Boots the scenario.
    pub fn deploy(self) -> HvResult<Deployment> {
        let mut platform = Platform::xoar(self.config());
        let engine = RestartEngine::for_platform(&mut platform)?;
        let toolstacks = match self {
            DeploymentScenario::PublicCloud => {
                vec![Toolstack::new(&platform, 0)]
            }
            DeploymentScenario::PrivateCloud { users } => {
                let users = users.max(1);
                // Equal slices of the host, leaving headroom for shards.
                let host_mib = platform.hv.host_config().memory_mib;
                let share = (host_mib.saturating_sub(platform.service_memory_mib())) / users as u64;
                (0..users)
                    .map(|i| {
                        Toolstack::new(&platform, i).with_quota(ResourceQuota {
                            max_vms: 16,
                            max_memory_mib: share,
                            max_disk_bytes: 64 << 30,
                        })
                    })
                    .collect()
            }
        };
        Ok(Deployment {
            platform,
            toolstacks,
            engine,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::GuestConfig;

    #[test]
    fn public_cloud_preset() {
        let mut d = DeploymentScenario::PublicCloud.deploy().unwrap();
        // Headless: no console shard; memory at the table's lower bound.
        assert!(d.platform.services.console.is_none());
        assert_eq!(d.platform.service_memory_mib(), 512);
        // Drivers on the 10 s timer.
        d.platform.advance_time(10_001_000_000);
        assert!(!d.engine.due(d.platform.now_ns()).is_empty());
        // XenStore on per-request restarts.
        let ts = d.platform.services.toolstacks[0];
        let before = d.platform.xs.logic_restarts();
        let _ = d.platform.xs.handle(
            ts,
            xoar_xenstore::Request::Directory {
                txn: None,
                path: "/".into(),
            },
        );
        assert!(d.platform.xs.logic_restarts() > before);
    }

    #[test]
    fn private_cloud_preset() {
        let mut d = DeploymentScenario::PrivateCloud { users: 3 }
            .deploy()
            .unwrap();
        assert_eq!(d.toolstacks.len(), 3);
        // PCIBack retained for provisioning.
        assert!(d.platform.services.pciback.is_some());
        assert!(d.platform.pciback.as_ref().is_some_and(|p| !p.is_sealed()));
        // Equal memory slices.
        let q0 = d.toolstacks[0].quota();
        let q1 = d.toolstacks[1].quota();
        assert_eq!(q0.max_memory_mib, q1.max_memory_mib);
        assert!(
            q0.max_memory_mib >= 900,
            "slices are usable: {}",
            q0.max_memory_mib
        );
        // A user stays within their slice.
        let mut cfg = GuestConfig::evaluation_guest("u0-vm");
        cfg.memory_mib = q0.max_memory_mib + 1;
        let ts0 = &mut d.toolstacks[0];
        assert!(
            ts0.create(&mut d.platform, cfg).is_err(),
            "over-slice refused"
        );
        let mut cfg = GuestConfig::evaluation_guest("u0-vm");
        cfg.memory_mib = 512;
        let ok = ts0.create(&mut d.platform, cfg).unwrap();
        assert!(d.platform.guest(ok).is_some());
    }

    #[test]
    fn zero_users_clamps_to_one() {
        let d = DeploymentScenario::PrivateCloud { users: 0 }
            .deploy()
            .unwrap();
        assert_eq!(d.toolstacks.len(), 1);
    }
}
