//! Static-versus-used privilege diffing.
//!
//! The paper sizes each shard's whitelist by need; this module *checks*
//! that sizing. [`traced_scenario`] boots a Xoar platform with a
//! [`CallRecorder`] on the hypercall gate from the very first boot-time
//! call and drives one
//! representative pass over every management and data-path operation the
//! platform supports (guest creation — PV and HVM —, toolstack
//! pause/resume/resize, device-model DMA, network and block I/O,
//! template capture and snapshot-fork cloning, a driver microreboot,
//! guest destruction). [`report`] then diffs every
//! domain's *static* privileged-hypercall whitelist against the calls it
//! *actually issued*: whatever remains unused is over-privilege the
//! whitelist could shed.
//!
//! The scenario is fully deterministic (simulated time, no randomness),
//! so the resulting table is stable across runs and is committed to
//! EXPERIMENTS.md.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use xoar_core::platform::{GuestConfig, Platform, XoarConfig};
use xoar_hypervisor::memory::Pfn;
use xoar_hypervisor::{DomId, GateObserver, HvError, HvResult, Hypercall, HypercallId, Hypervisor};

/// One screened hypercall, as the recorder saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallRecord {
    /// Issuing domain.
    pub caller: DomId,
    /// Hypercall class.
    pub id: HypercallId,
    /// Whether it passed the whitelist and completed without error.
    pub allowed: bool,
}

/// A gate observer recording every screened call — direct calls,
/// denials and multicall sub-calls — in gate order. Clones share one
/// log, so the handle [`CallRecorder::attach`] returns reads what the
/// attached copy records.
#[derive(Debug, Clone, Default)]
pub struct CallRecorder {
    log: Rc<RefCell<Vec<CallRecord>>>,
}

impl CallRecorder {
    /// Attaches a recorder to `hv`'s gate and returns its handle.
    pub fn attach(hv: &mut Hypervisor) -> CallRecorder {
        let recorder = CallRecorder::default();
        hv.add_observer(Box::new(recorder.clone()));
        recorder
    }

    /// Drains the records accumulated so far.
    pub fn take(&self) -> Vec<CallRecord> {
        std::mem::take(&mut *self.log.borrow_mut())
    }
}

impl GateObserver for CallRecorder {
    fn screened(&mut self, caller: DomId, id: HypercallId, allowed: bool) {
        if let Ok(mut log) = self.log.try_borrow_mut() {
            log.push(CallRecord {
                caller,
                id,
                allowed,
            });
        }
    }
}

/// One row of the over-privilege table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverprivEntry {
    /// The domain.
    pub dom: DomId,
    /// Its name (shard class or guest name).
    pub name: String,
    /// Statically whitelisted privileged calls, `Ord` order.
    pub declared: Vec<HypercallId>,
    /// Privileged calls actually issued (and allowed) in the record.
    pub used: Vec<HypercallId>,
    /// `declared - used`: the shedding candidates.
    pub unused: Vec<HypercallId>,
}

/// Boots a traced platform and drives the representative workload.
///
/// Returns the platform and the recorder holding every screened call
/// (boot included); pass both to [`report`].
pub fn traced_scenario() -> HvResult<(Platform, CallRecorder)> {
    let mut hv = Hypervisor::with_default_host();
    let recorder = CallRecorder::attach(&mut hv);
    let mut p = Platform::xoar_on(hv, XoarConfig::default());
    let ts = p.services.toolstacks[0];

    // Guest lifecycle: one PV guest, one HVM guest (exercises the
    // Builder's stub-domain path and the QemuVm whitelist).
    let pv = p.create_guest(ts, GuestConfig::evaluation_guest("pv-guest"))?;
    let mut hvm_cfg = GuestConfig::evaluation_guest("hvm-guest");
    hvm_cfg.hvm = true;
    let hvm = p.create_guest(ts, hvm_cfg)?;

    // Toolstack management surface.
    p.hv.hypercall(ts, Hypercall::DomctlPauseDomain { target: pv })?;
    p.hv.hypercall(ts, Hypercall::DomctlUnpauseDomain { target: pv })?;
    p.hv.hypercall(
        ts,
        Hypercall::DomctlSetMaxMem {
            target: pv,
            memory_mib: 1536,
        },
    )?;
    p.hv.hypercall(
        ts,
        Hypercall::DomctlSetVcpus {
            target: pv,
            vcpus: 2,
        },
    )?;
    p.hv.hypercall(ts, Hypercall::SysctlPhysinfo)?;

    // Device-model DMA into its guest (MmuWriteForeign under the
    // privileged_for edge).
    if let Some(model) = p.qemus.get_mut(&hvm) {
        model.dma_to_guest(&mut p.hv, Pfn(6), b"bios-shadow")?;
    }

    // Data path: network transmit and block write, both serviced.
    p.net_transmit(pv, 1, 1500)
        .map_err(|e| HvError::InvalidArgument(format!("net: {e:?}")))?;
    p.process_netbacks();
    p.blk_submit(pv, xoar_devices::blk::BlkOp::Write, 0, 8)
        .map_err(|e| HvError::InvalidArgument(format!("blk: {e:?}")))?;
    p.process_blkbacks();

    // Virtual network fabric: the NetBack terminates into the software
    // switch, and a flow nobody opened conn-tracks to the uplink with a
    // held NAT port. Switching adds no privilege — the fabric shard's
    // only memory reach stays the frontends' ring grants, which the
    // audit checks under its own `fabric` label.
    p.enable_fabric();
    p.net_transmit(pv, 2, 1500)
        .map_err(|e| HvError::InvalidArgument(format!("fabric: {e:?}")))?;
    p.process_netbacks();

    // Snapshot-fork lifecycle: seal a golden template and stamp one
    // clone from it (`DomctlCloneDomain`, the toolstack's fast-create
    // whitelist entry). Both stay alive so the analyzer sees the
    // template-backed sharing as declared edges.
    let golden = p.create_guest(ts, GuestConfig::evaluation_guest("golden"))?;
    p.capture_template(ts, golden)?;
    let _fx = p.clone_guest(ts, golden, "fx-0")?;

    // Driver microreboot: the shard snapshots itself, the Builder rolls
    // it back (the §3.3 restart pair).
    let nb = p.services.netbacks[0];
    p.hv.hypercall(nb, Hypercall::VmSnapshot)?;
    let builder = p.services.builder;
    p.hv.hypercall(builder, Hypercall::VmRollback { target: nb })?;

    // Teardown of the HVM guest (toolstack destroy + stub reclamation).
    p.destroy_guest(ts, hvm)?;
    Ok((p, recorder))
}

/// Drains the recorder and produces the per-domain diff.
///
/// Rows appear for every domain that either declares or used at least
/// one privileged call — including domains already destroyed (the
/// Bootstrapper's boot-time activity is the most interesting row).
pub fn report(p: &Platform, recorder: &CallRecorder) -> Vec<OverprivEntry> {
    let mut used: BTreeMap<DomId, BTreeSet<HypercallId>> = BTreeMap::new();
    for t in &recorder.take() {
        if t.allowed && t.id.is_privileged() {
            used.entry(t.caller).or_default().insert(t.id);
        }
    }
    let mut ids: BTreeSet<DomId> = p.hv.domain_ids().into_iter().collect();
    ids.extend(used.keys().copied());
    let mut rows = Vec::new();
    for dom in ids {
        let Ok(d) = p.hv.domain(dom) else { continue };
        let declared: Vec<HypercallId> = d.privileges.hypercalls.iter().collect();
        let used_set = used.remove(&dom).unwrap_or_default();
        if declared.is_empty() && used_set.is_empty() {
            continue;
        }
        let unused: Vec<HypercallId> = declared
            .iter()
            .copied()
            .filter(|id| !used_set.contains(id))
            .collect();
        rows.push(OverprivEntry {
            dom,
            name: d.name.clone(),
            declared,
            used: used_set.into_iter().collect(),
            unused,
        });
    }
    rows
}

/// Deterministic text rendering of the table.
pub fn render(rows: &[OverprivEntry]) -> String {
    let names = |ids: &[HypercallId]| ids.iter().map(|i| i.name()).collect::<Vec<_>>().join(",");
    let mut out = String::new();
    for r in rows {
        out.push_str(&format!(
            "overpriv {} {} declared={} used={} unused=[{}]\n",
            r.dom,
            r.name,
            r.declared.len(),
            r.used.len(),
            names(&r.unused),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_runs_and_traces_boot() {
        let (p, calls) = traced_scenario().unwrap();
        let rows = report(&p, &calls);
        // The Bootstrapper (dom0, long destroyed) has a row: its
        // boot-time activity was traced because tracing starts before
        // the first shard is created.
        let boot = rows.iter().find(|r| r.dom == DomId(0)).unwrap();
        assert_eq!(boot.name, "bootstrapper");
        assert!(boot.used.contains(&HypercallId::DomctlCreateDomain));
        assert!(boot.used.contains(&HypercallId::DomctlPermitHypercall));
    }

    #[test]
    fn tightened_shards_show_no_dead_weight_on_core_rows() {
        let (p, calls) = traced_scenario().unwrap();
        let ts = p.services.toolstacks[0];
        let builder = p.services.builder;
        let rows = report(&p, &calls);
        // Satellite check for the shard.rs tightening: the scenario
        // exercises the toolstack's and bootstrapper's whitelists
        // completely — every declared call is observed in use.
        for dom in [ts, DomId(0)] {
            let row = rows.iter().find(|r| r.dom == dom).unwrap();
            assert_eq!(
                row.unused,
                vec![],
                "{} still over-privileged: {:?}",
                row.name,
                row.unused
            );
        }
        // The Builder's whitelist is exercised except for delegation
        // (issued only when booting extra toolstacks) — pinned so any
        // new dead weight fails this test.
        let b = rows.iter().find(|r| r.dom == builder).unwrap();
        assert!(
            b.unused.is_empty() || b.unused == vec![HypercallId::DomctlDelegate],
            "builder unused grew: {:?}",
            b.unused
        );
    }

    /// A booted Xoar platform with one guest, plus a NetBack shard.
    fn guest_and_netback() -> (Platform, DomId, DomId) {
        let mut p = Platform::xoar(XoarConfig::default());
        let ts = p.services.toolstacks[0];
        let g = p
            .create_guest(ts, GuestConfig::evaluation_guest("g"))
            .unwrap();
        let nb = p.services.netbacks[0];
        (p, g, nb)
    }

    fn smuggle(p: &mut Platform, nb: DomId) -> Vec<HvResult<xoar_hypervisor::HypercallRet>> {
        p.hv.hypercall(
            nb,
            Hypercall::Multicall {
                calls: vec![Hypercall::SchedYield, Hypercall::SysctlPhysinfo],
            },
        )
        .unwrap()
        .multi()
        .unwrap()
    }

    #[test]
    fn tracing_records_denied_calls() {
        let (mut p, g, _) = guest_and_netback();
        let calls = CallRecorder::attach(&mut p.hv);
        let _ = p.hv.hypercall(g, Hypercall::SysctlPhysinfo);
        let trace = calls.take();
        assert_eq!(trace.len(), 1);
        assert!(!trace[0].allowed);
        assert_eq!(trace[0].caller, g);
        assert!(calls.take().is_empty(), "take drains the record");
    }

    #[test]
    fn multicall_cannot_smuggle_unwhitelisted_subcall() {
        let (mut p, _, nb) = guest_and_netback();
        let calls = CallRecorder::attach(&mut p.hv);
        let ret = smuggle(&mut p, nb);
        assert_eq!(ret[0], Ok(xoar_hypervisor::HypercallRet::Ok));
        assert!(matches!(ret[1], Err(HvError::PermissionDenied { .. })));
        // The denied sub-call must be visible to the over-privilege
        // audit, exactly as a direct denied call would be.
        let trace = calls.take();
        assert!(trace
            .iter()
            .any(|t| t.caller == nb && t.id == HypercallId::SysctlPhysinfo && !t.allowed));
        assert!(trace
            .iter()
            .any(|t| t.caller == nb && t.id == HypercallId::Multicall && t.allowed));
    }

    #[test]
    fn recorder_and_spec_observe_the_gate_together() {
        let (mut p, g, nb) = guest_and_netback();
        let calls = CallRecorder::attach(&mut p.hv);
        let spec = crate::spec::SpecHandle::attach(&mut p.hv);
        p.hv.hypercall(g, Hypercall::SchedYield).unwrap();
        assert!(p.hv.hypercall(g, Hypercall::SysctlPhysinfo).is_err());
        smuggle(&mut p, nb);

        // The recorder sees every screened call: the direct denial, and
        // the multicall's entries ahead of the multicall itself.
        let record = |caller, id, allowed| CallRecord {
            caller,
            id,
            allowed,
        };
        assert_eq!(
            calls.take(),
            vec![
                record(g, HypercallId::SchedOp, true),
                record(g, HypercallId::SysctlPhysinfo, false),
                record(nb, HypercallId::SchedOp, true),
                record(nb, HypercallId::SysctlPhysinfo, false),
                record(nb, HypercallId::Multicall, true),
            ]
        );
        // The spec steps on the same permitted top-level calls — the
        // direct denial changed no state and never reaches it — and
        // sees the smuggled entry fail inside the multicall.
        assert_eq!(
            spec.ops(),
            vec![
                format!("{g}: SchedYield -> ok"),
                format!("{nb}: Multicall(2 calls: ok, err) -> ok"),
            ]
        );
        assert_eq!(spec.checks(), 2);
        assert!(spec.divergence().is_none(), "{:?}", spec.report());
    }

    #[test]
    fn report_is_deterministic() {
        let render_once = || {
            let (p, calls) = traced_scenario().unwrap();
            render(&report(&p, &calls))
        };
        assert_eq!(render_once(), render_once());
    }
}
