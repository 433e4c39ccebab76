//! Ablation benches for the design choices DESIGN.md calls out, on the
//! in-tree deterministic harness ([`xoar_bench::harness`]).
//!
//! * **privilege checks on the hot path** — the cost of a hypercall
//!   whose caller holds blanket privilege (Dom0, one comparison) versus a
//!   whitelist-gated shard (set lookup + per-argument checks): the price
//!   of least privilege;
//! * **XenStore split** — serving a request through the Logic/State
//!   split, with and without a Logic restart before every request
//!   (Figure 5.1's "restarted on each request" policy);
//! * **restart paths** — a full microreboot via the slow path versus the
//!   recovery-box fast path, end to end on the platform;
//! * **boot plans** — evaluating the serial and parallel boot DAGs.
//!
//! Gates are declared where each entry is registered, in the form the
//! microbench file describes. The orderings here are within-run claims
//! the numbers must never invert, whatever the host's speed.

use std::hint::black_box;

use xoar_bench::harness::Harness;
use xoar_core::boot::BootPlan;
use xoar_core::platform::{GuestConfig, Platform, PlatformMode, XoarConfig};
use xoar_core::restart::{RestartEngine, RestartPath, RestartPolicy};
use xoar_hypervisor::memory::Pfn;
use xoar_hypervisor::privilege::{IoPortRange, MmioRange};
use xoar_hypervisor::{DomId, Hypercall, HypercallId, PrivilegeSet};
use xoar_sim::workloads::smp::SmpWorkload;
use xoar_xenstore::XenStore;

fn bench_privilege_checks(h: &mut Harness) {
    let mut group = h.group("ablation/privilege_checks");
    // Blanket-privileged caller (stock Xen Dom0).
    let mut stock = Platform::stock_xen();
    let dom0 = stock.services.builder;
    group.bench_function("dom0_blanket", || {
        stock
            .hv
            .hypercall(black_box(dom0), Hypercall::SysctlPhysinfo)
            .unwrap();
    });
    // Whitelist-gated shard caller (Xoar toolstack).
    let mut xoar = Platform::xoar(XoarConfig::default());
    let ts = xoar.services.toolstacks[0];
    group.bench_function("shard_whitelisted", || {
        xoar.hv
            .hypercall(black_box(ts), Hypercall::SysctlPhysinfo)
            .unwrap();
    });
    // Direct probes of the privilege data structures: a bitset test for
    // the hypercall whitelist, binary search over sorted ranges for I/O
    // ports and MMIO — the structures `permits_*` dispatches through.
    let ps = PrivilegeSet {
        hypercalls: [
            HypercallId::DomctlCreateDomain,
            HypercallId::DomctlDestroyDomain,
            HypercallId::SysctlPhysinfo,
        ]
        .into_iter()
        .collect(),
        io_ports: (0..32u16)
            .map(|i| IoPortRange::new(i * 0x100, i * 0x100 + 0x1f))
            .collect(),
        mmio: (0..32u64)
            .map(|i| MmioRange {
                start_mfn: 0x1000 + i * 0x100,
                frames: 0x40,
            })
            .collect(),
        ..PrivilegeSet::default()
    };
    group.bench_function("permits_hypercall_bitset", || {
        assert!(ps.permits_hypercall(black_box(HypercallId::SysctlPhysinfo)));
        assert!(!ps.permits_hypercall(black_box(HypercallId::PlatformReboot)));
    });
    group.bench_function("permits_io_port_ranges", || {
        assert!(ps.permits_io_port(black_box(0x0710)));
        assert!(!ps.permits_io_port(black_box(0x07f0)));
    });
    group.bench_function("permits_mmio_ranges", || {
        assert!(ps.permits_mmio(black_box(0x1f20)));
        assert!(!ps.permits_mmio(black_box(0x1fff)));
    });
}

fn bench_xenstore_split(h: &mut Harness) {
    let mut group = h.group("ablation/xenstore_split");
    let dom0 = DomId(0);
    let mut xs = XenStore::new();
    xs.set_privileged(dom0, true);
    for i in 0..100 {
        xs.write_str(dom0, &format!("/tool/k{i}"), "v").unwrap();
    }
    group
        .bench_function("request_no_restart", || {
            xs.read_str(dom0, "/tool/k50").unwrap();
        })
        .hot();
    // Figure 5.1: XenStore-Logic "restarted on each request".
    group
        .bench_function("request_with_per_request_restart", || {
            xs.restart_logic();
            xs.read_str(dom0, "/tool/k50").unwrap();
        })
        .hot();
}

fn bench_restart_paths(h: &mut Harness) {
    let mut group = h.group("ablation/restart_paths");
    group.sample_size(20);
    for (label, path) in [("slow", RestartPath::Slow), ("fast", RestartPath::Fast)] {
        let mut p = Platform::xoar(XoarConfig::default());
        let ts = p.services.toolstacks[0];
        let _g = p
            .create_guest(ts, GuestConfig::evaluation_guest("g"))
            .unwrap();
        let nb = p.services.netbacks[0];
        let mut eng = RestartEngine::new();
        eng.register(&mut p, nb, RestartPolicy::Never, path)
            .unwrap();
        // The §6.1.2 slow/fast driver restarts also carry the tail rule:
        // a per-iteration allocation or rescan on the restart path shows
        // up as a p95 spike before it moves the median.
        group
            .bench_function(label, || {
                eng.restart(&mut p, nb).unwrap();
            })
            .hot()
            .tail();
    }
}

fn bench_boot_plans(h: &mut Harness) {
    let mut group = h.group("ablation/boot_plans");
    group.bench_function("serial_dom0", || {
        black_box(BootPlan::stock_xen().simulate());
    });
    // The parallel Xoar boot DAG must never regress past the serial
    // Dom0 chain.
    group
        .bench_function("parallel_xoar", || {
            black_box(BootPlan::xoar().simulate());
        })
        .at_most(1.0, "ablation/boot_plans/serial_dom0");
}

fn bench_vcpu_scaling(h: &mut Harness) {
    // Fixed work — 256 XenStore-style requests from a 4-vcpu guest —
    // completed over 1, 2 and 4 runqueues. The rounds needed shrink as
    // runqueues grow (256/128/64 scheduling ticks), so the entries
    // record what the multi-runqueue scheduler buys per unit of work;
    // the simulated ops-per-tick scaling itself is asserted in
    // `tests/sharding.rs`.
    let mut group = h.group("ablation/vcpu_scaling");
    group.sample_size(20);
    for (label, runqueues, rounds) in [("rq1", 1, 256), ("rq2", 2, 128), ("rq4", 4, 64)] {
        let mut p = Platform::xoar(XoarConfig::default());
        let ts = p.services.toolstacks[0];
        let mut cfg = GuestConfig::evaluation_guest("smp");
        cfg.vcpus = 4;
        let g = p.create_guest(ts, cfg).unwrap();
        let w = SmpWorkload::prepare(&mut p, g);
        group
            .bench_function(label, || {
                let res = w.run(&mut p, black_box(runqueues), rounds);
                assert_eq!(res.ops, 256, "fixed work unit");
            })
            .hot();
    }
}

fn bench_platform_construction(h: &mut Harness) {
    let mut group = h.group("ablation/platform_construction");
    group.sample_size(20);
    group.bench_function("stock_xen", || {
        black_box(Platform::stock_xen());
    });
    group.bench_function("xoar_full_boot", || {
        black_box(Platform::xoar(XoarConfig::default()));
    });
    {
        // ~200 µs per create/destroy pair: wall-clock calibration alone
        // would give single-digit batches, small enough that one
        // scheduler hiccup lands in the p95. Floor the batch instead.
        group.min_iterations(24);
        let mut p = Platform::xoar(XoarConfig::default());
        let ts = p.services.toolstacks[0];
        let mut n = 0;
        group.bench_function("guest_creation_xoar", || {
            n += 1;
            let g = p
                .create_guest(ts, GuestConfig::evaluation_guest(&format!("g{n}")))
                .unwrap();
            p.destroy_guest(ts, g).unwrap();
        });
        assert_eq!(p.mode, PlatformMode::Xoar);
    }
}

fn bench_cloning(h: &mut Harness) {
    let mut group = h.group("ablation/clone");
    {
        // The snapshot-fork fast path: stamp a domain from a sealed
        // template through `DomctlCloneDomain` — per-clone cost is region
        // setup only (4 privatized ring pages, no Builder round-trip, no
        // page copies). Clones accumulate across iterations: each holds
        // O(1) frames, and accumulation keeps destroy cost out of the
        // measurement.
        let mut p = Platform::xoar(XoarConfig::default());
        let ts = p.services.toolstacks[0];
        let mut cfg = GuestConfig::evaluation_guest("lambda-golden");
        cfg.memory_mib = 64;
        cfg.vcpus = 1;
        cfg.disk_bytes = 1 << 30;
        let tpl = p.create_guest(ts, cfg).unwrap();
        // Names are setup, not clone cost: pre-render them so the timed
        // loop measures the hypercall alone (iter_batched-style).
        let names: Vec<String> = (0..120_000).map(|i| format!("fx{i}")).collect();
        // Warm the stamp-plan cache before sampling: the first clone
        // seals the template and builds its plan — a one-time cost that
        // would otherwise poison calibration (the harness sizes the
        // batch from a single probe call), leaving batches small enough
        // that the plan build and every table rehash landed in the p95.
        // The batch floor keeps expensive entries in this group (full
        // clone create/destroy) from running samples so small that one
        // scheduler hiccup is the p95.
        p.hv.hypercall(
            ts,
            Hypercall::DomctlCloneDomain {
                template: tpl,
                name: "fx-warm".to_string(),
            },
        )
        .unwrap();
        group.min_iterations(64);
        // The clone paths carry the tail rule because the
        // serverless-density argument is about the *worst* stamp in a
        // burst: a one-time cost leaking back into steady state (plan
        // rebuilds, hash materialization on the break path) shows up as
        // a tail spike first. The stamp must also keep its two orders of
        // magnitude over a full Builder-path guest creation.
        let mut n = 0;
        group
            .bench_function("clone_from_template", || {
                let name = names[n % names.len()].clone();
                n += 1;
                p.hv.hypercall(
                    black_box(ts),
                    Hypercall::DomctlCloneDomain {
                        template: tpl,
                        name,
                    },
                )
                .unwrap();
            })
            .hot()
            .tail()
            .at_most(0.01, "ablation/platform_construction/guest_creation_xoar");
    }
    {
        // The toolstack-visible path on top of the hypercall: XenStore
        // subtree stamping, device wiring and CoW disk attach included.
        // A create/destroy pair like `guest_creation_xoar` — device
        // wiring consumes backend event ports, so clones must not
        // accumulate across calibration-sized iteration counts.
        let mut p = Platform::xoar(XoarConfig::default());
        let ts = p.services.toolstacks[0];
        let tpl = p
            .create_guest(ts, GuestConfig::evaluation_guest("golden"))
            .unwrap();
        p.capture_template(ts, tpl).unwrap();
        let mut n = 0;
        group
            .bench_function("clone_guest_full", || {
                n += 1;
                let g = p.clone_guest(ts, tpl, &format!("fn{n}")).unwrap();
                p.destroy_guest(ts, g).unwrap();
            })
            .hot()
            .tail();
    }
    {
        // First guest write to a shared template page: allocate a private
        // frame, copy, rewire the p2m. Each iteration breaks a fresh pfn;
        // when a clone's address space is exhausted a new clone is
        // stamped (its cost amortises over thousands of breaks).
        let mut p = Platform::xoar(XoarConfig::default());
        let ts = p.services.toolstacks[0];
        let mut cfg = GuestConfig::evaluation_guest("break-golden");
        cfg.memory_mib = 1024;
        cfg.vcpus = 1;
        let tpl = p.create_guest(ts, cfg).unwrap();
        let watermark = 1024u64; // builder populate: one frame per MiB
        let mut clone_n = 0;
        let mut fresh_clone = |p: &mut Platform| {
            clone_n += 1;
            match p.hv.hypercall(
                ts,
                Hypercall::DomctlCloneDomain {
                    template: tpl,
                    name: format!("bw{clone_n}"),
                },
            ) {
                Ok(xoar_hypervisor::HypercallRet::DomId(d)) => d,
                other => panic!("clone for break bench: {other:?}"),
            }
        };
        let mut cur = fresh_clone(&mut p);
        let mut pfn = 8u64; // skip magic and privatized ring pages
        group
            .bench_function("first_write_break", || {
                if pfn >= watermark {
                    cur = fresh_clone(&mut p);
                    pfn = 8;
                }
                p.hv.mem.write(cur, Pfn(pfn), black_box(b"w")).unwrap();
                pfn += 1;
            })
            .hot()
            .tail();
    }
}

fn main() {
    let mut h = Harness::new();
    bench_privilege_checks(&mut h);
    bench_xenstore_split(&mut h);
    bench_restart_paths(&mut h);
    bench_boot_plans(&mut h);
    bench_vcpu_scaling(&mut h);
    bench_platform_construction(&mut h);
    bench_cloning(&mut h);
    h.emit_json();
}
