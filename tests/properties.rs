//! Cross-crate property-based tests: platform invariants under random
//! operation sequences.

use xoar_core::platform::{GuestConfig, Platform, XoarConfig};
use xoar_core::shard::ConstraintTag;
use xoar_devices::blk::BlkOp;
use xoar_hypervisor::{DomId, DomainState};
use xoar_sim::prop::{Gen, Runner};

/// The operations the fuzzer may apply to a platform.
#[derive(Debug, Clone)]
enum Op {
    Create { tag: Option<u8> },
    DestroyNth(u8),
    BlkIoNth(u8),
    NetIoNth(u8),
    XsRestart,
    AdvanceTime(u32),
}

fn any_op(g: &mut Gen) -> Op {
    match g.u8(0..6) {
        0 => Op::Create {
            tag: if g.bool() { Some(g.u8(0..3)) } else { None },
        },
        1 => Op::DestroyNth(g.u8(0..8)),
        2 => Op::BlkIoNth(g.u8(0..8)),
        3 => Op::NetIoNth(g.u8(0..8)),
        4 => Op::XsRestart,
        _ => Op::AdvanceTime(g.u32(1..1_000_000)),
    }
}

/// No sequence of lifecycle/I/O operations can violate the core
/// invariants: live guests always have live service shards, shard
/// constraint tags never mix, the audit graph matches reality, and
/// nothing panics.
#[test]
fn platform_invariants_hold_under_random_ops() {
    Runner::cases(24).run("platform invariants hold under random ops", |g| {
        let ops = g.vec(1..60, any_op);
        let mut p = Platform::xoar(XoarConfig::default());
        let ts = p.services.toolstacks[0];
        let mut n = 0u32;
        for op in ops {
            match op {
                Op::Create { tag } => {
                    n += 1;
                    let mut cfg = GuestConfig::evaluation_guest(&format!("g{n}"));
                    cfg.memory_mib = 64;
                    if let Some(t) = tag {
                        cfg.constraint = ConstraintTag::group(&format!("t{t}"));
                    }
                    // May fail on constraints or memory: must not panic.
                    let _ = p.create_guest(ts, cfg);
                }
                Op::DestroyNth(i) => {
                    let doms: Vec<DomId> = p.guests().iter().map(|g| g.dom).collect();
                    if let Some(d) = doms.get(i as usize % doms.len().max(1)) {
                        p.destroy_guest(ts, *d).unwrap();
                    }
                }
                Op::BlkIoNth(i) => {
                    let doms: Vec<DomId> = p.guests().iter().map(|g| g.dom).collect();
                    if let Some(d) = doms.get(i as usize % doms.len().max(1)) {
                        let _ = p.blk_submit(*d, BlkOp::Write, 0, 8);
                        p.process_blkbacks();
                        while p.blk_poll(*d).is_some() {}
                    }
                }
                Op::NetIoNth(i) => {
                    let doms: Vec<DomId> = p.guests().iter().map(|g| g.dom).collect();
                    if let Some(d) = doms.get(i as usize % doms.len().max(1)) {
                        let _ = p.net_transmit(*d, 1, 1500);
                        p.process_netbacks();
                        while p.net_receive(*d).is_some() {}
                    }
                }
                Op::XsRestart => p.xs.restart_logic(),
                Op::AdvanceTime(ns) => p.advance_time(ns as u64),
            }

            // Invariant 1: every live guest's shards are live.
            for g in p.guests() {
                for s in [g.netback, g.blkback].into_iter().flatten() {
                    assert_eq!(
                        p.hv.domain(s).unwrap().state,
                        DomainState::Running,
                        "guest {} has dead shard {}",
                        g.dom,
                        s
                    );
                }
            }
            // Invariant 2: no shard serves two different constraint tags.
            for g1 in p.guests() {
                for g2 in p.guests() {
                    if g1.netback == g2.netback {
                        assert!(
                            g1.constraint.compatible(&g2.constraint),
                            "{} and {} share a netback with different tags",
                            g1.dom,
                            g2.dom
                        );
                    }
                }
            }
            // Invariant 3: the audit dependency graph matches the live
            // attachments.
            let deps = p.audit.dependency_graph_at(u64::MAX);
            for g in p.guests() {
                if let Some(nb) = g.netback {
                    assert!(deps.contains(&(g.dom, nb)));
                }
            }
            // Invariant 4: memory accounting never goes negative / wild.
            assert!(p.hv.mem.free_frames() <= p.hv.mem.total_frames());
        }
    });
}

/// Guest creation is all-or-nothing: a failed creation leaves no
/// residue (no half-attached devices, no audit records, no leaked
/// image mounts).
#[test]
fn failed_creation_leaves_no_residue() {
    Runner::cases(24).run("failed creation leaves no residue", |g| {
        let tag = g.u8(0..3);
        let mut p = Platform::xoar(XoarConfig::default());
        let ts = p.services.toolstacks[0];
        // Occupy the only netback with a tagged guest.
        let mut cfg = GuestConfig::evaluation_guest("occupier");
        cfg.constraint = ConstraintTag::group("occupied");
        p.create_guest(ts, cfg).unwrap();
        let audit_before = p.audit.len();
        let guests_before = p.guests().len();
        // This must fail on the constraint check (different tag).
        let mut cfg = GuestConfig::evaluation_guest("loser");
        cfg.constraint = ConstraintTag::group(&format!("other-{tag}"));
        assert!(p.create_guest(ts, cfg).is_err());
        assert_eq!(p.audit.len(), audit_before);
        assert_eq!(p.guests().len(), guests_before);
    });
}

/// Toolstack quota accounting never drifts from the live platform
/// state under arbitrary create/destroy/resize sequences.
#[test]
fn toolstack_quota_never_drifts() {
    Runner::cases(16).run("toolstack quota never drifts", |g| {
        use xoar_core::toolstack::{ResourceQuota, Toolstack};
        let ops = g.vec(1..30, |g| (g.u8(0..3), g.u64(1..4)));
        let mut p = Platform::xoar(XoarConfig::default());
        let mut ts = Toolstack::new(&p, 0).with_quota(ResourceQuota {
            max_vms: 6,
            max_memory_mib: 6 * 1024,
            max_disk_bytes: 120 << 30,
        });
        let mut n = 0u32;
        for (op, size) in ops {
            match op {
                0 => {
                    n += 1;
                    let mut cfg = GuestConfig::evaluation_guest(&format!("q{n}"));
                    cfg.memory_mib = size * 256;
                    let _ = ts.create(&mut p, cfg);
                }
                1 => {
                    if let Some(vm) = ts.list(&p).first() {
                        let dom = vm.dom;
                        ts.destroy(&mut p, dom).unwrap();
                    }
                }
                _ => {
                    if let Some(vm) = ts.list(&p).first() {
                        let dom = vm.dom;
                        let _ = ts.set_memory(&mut p, dom, size * 256);
                    }
                }
            }
            // Invariant: accounted memory equals the sum over live VMs.
            let live: u64 = ts.list(&p).iter().map(|v| v.memory_mib).sum();
            assert_eq!(ts.used_memory_mib(), live);
            // And the quota is never exceeded.
            assert!(live <= 6 * 1024);
        }
    });
}
