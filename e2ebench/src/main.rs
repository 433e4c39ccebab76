//! End-to-end guest-operation benchmark for the Xoar platform.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload io_fabric_blk --seed 1 --seconds 10 --trace 0
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- --selftest
//! ```
//!
//! Prints the model-output digest, then (traced) the per-operation
//! attribution, then one JSON result line. Exits non-zero if any
//! correctness check fails. See `e2ebench/README.md`.

mod stats;
mod trace;
mod world;

use std::process::ExitCode;
use std::time::Instant;

use stats::{median, quantile, Digest, Hist};
use trace::{Op, Tracer, S};
use world::{Check, Fault, Mix, Window, World};
use xoar_sim::workloads::serverless::ServerlessConfig;

/// Set-ups timed before the run, and after every `SETUP_EVERY`-th
/// window for at least `SETUP_S_PER_GROUP` of host time. `setup_s` is
/// the median of each group, averaged over the groups: spread over the
/// run, they see the same host as the measurements do, and a small
/// set-up is timed many times.
const SETUPS_BEFORE: usize = 5;
const SETUP_EVERY: u64 = 5;
const SETUP_S_PER_GROUP: f64 = 0.06;
/// Rounds of the `spec_lockstep` segment a workload with
/// `Mix::spec_segment` runs after its measurement.
const SPEC_SEGMENT_ROUNDS: u64 = 40;
/// Measurement windows per run (see `p50_of` and `p99_of`).
const WINDOWS: u64 = 45;
/// A `.p99` needs this many samples (≥10 beyond it), per run and, to be
/// taken per window, per window.
const P99_MIN_SAMPLES: u64 = 1000;

/// The four workloads. Where a value has a source in the repository,
/// it is named here; the rest are choices, explained in the README
/// ("Parameters and their sources").
fn mix(name: &str) -> Option<Mix> {
    // The invocation stream of the serverless density experiment
    // (`crates/sim/src/workloads/serverless.rs`).
    let sls = ServerlessConfig::default();
    let io = Mix {
        guests: 8,
        // The front-tier population of `fronttier_smoke`: 100k
        // connections plus 8,192 NAT'd external ones.
        flows: 100_000,
        uplink_flows: 8_192,
        // One ring's worth, as the front-tier tick sends.
        tx_frames: 32,
        // One `blk/submit_batch` (the gated 16-request batch bench).
        blk_reqs: 16,
        // A sparse control-plane trickle (a choice, as are the restart
        // interval and the spec workload's values below; see README).
        txn_every: 4,
        logic_restart: false,
        restart_every: 1024,
        // A background stream, 8× sparser than the serverless one.
        invoke_gap_ns: 8 * sls.mean_interarrival_ns,
        service_rounds: sls.service_ns / world::ROUND_NS,
        keep_warm_rounds: sls.keep_warm_ns / world::ROUND_NS,
        spec: false,
        spec_segment: false,
        stationary: true,
        rounds_per_sec: 5500,
    };
    Some(match name {
        "io_fabric_blk" => io,
        "io_microreboot" => Mix {
            // Every guest commits a transaction every round.
            txn_every: 0,
            logic_restart: true,
            restart_every: 64,
            spec_segment: true,
            rounds_per_sec: 4000,
            ..io
        },
        "clone_churn" => Mix {
            guests: 2,
            flows: 0,
            uplink_flows: 0,
            tx_frames: 0,
            blk_reqs: 0,
            txn_every: 1 << 40,
            restart_every: 64,
            invoke_gap_ns: sls.mean_interarrival_ns,
            // Destroy cost grows with clone history (README).
            stationary: false,
            rounds_per_sec: 21_000,
            ..io
        },
        "spec_lockstep" => Mix {
            guests: 4,
            tx_frames: 4,
            blk_reqs: 8,
            txn_every: 1,
            restart_every: 16,
            // Every invocation clones: three per round, each instance
            // gone two rounds after its two busy rounds.
            invoke_gap_ns: world::ROUND_NS / 3,
            service_rounds: 2,
            keep_warm_rounds: 2,
            spec: true,
            // The checked hypercall slows with clone history (README).
            stationary: false,
            rounds_per_sec: 42,
            ..io
        },
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    selftest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        selftest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--selftest" {
            a.selftest = true;
            continue;
        }
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => a.workload = v.clone(),
            "--seed" => a.seed = num()?,
            "--seconds" => a.seconds = num()?.max(1),
            "--trace" => a.trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

/// One finished run.
struct Run {
    w: World,
    tr: Tracer,
    setup_s: f64,
    setups: usize,
    window_s: f64,
    reclaimed: u64,
    frames_per_instance: f64,
    audit_records: u64,
    evtchn_delivered: u64,
    spec_checks: u64,
    logic_restarts: u64,
}

fn run(mix: &Mix, seed: u64, rounds: u64, trace: bool, fault: Fault) -> Run {
    let timed_setup = |times: &mut Vec<f64>| {
        let t0 = Instant::now();
        let w = World::setup(mix, seed, fault);
        times.push(t0.elapsed().as_secs_f64());
        w
    };
    let mut setups = vec![Vec::new()];
    for _ in 1..SETUPS_BEFORE {
        drop(timed_setup(&mut setups[0]));
    }
    let mut w = timed_setup(&mut setups[0]);

    let audit0 = w.p.audit.len() as u64;
    let evtchn0 = w.p.hv.delivered_count();
    let spec0 = w.spec.as_ref().map_or(0, |h| h.checks());
    let logic0 = w.p.xs.logic_restarts();
    let mut tr = Tracer::new(trace);
    let (mut t0, mut check0) = (Instant::now(), 0);
    for r in 0..rounds {
        // Traced and untraced rounds interleave pseudo-randomly, so
        // periodic operations fall into both.
        let h = (r + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        tr.set_round(h >> 63 == 1);
        w.round(&mut tr);
        let done = (r + 1) * WINDOWS / rounds;
        if done != r * WINDOWS / rounds {
            let checks = w.m.check_ns - check0;
            w.m.win().ns = (t0.elapsed().as_nanos() as u64).saturating_sub(checks);
            if r + 1 < rounds {
                w.m.windows.push(Window::default());
            }
            // Set-ups between windows; no window measures them.
            if done.is_multiple_of(SETUP_EVERY) {
                let (s0, mut times) = (Instant::now(), Vec::new());
                while s0.elapsed().as_secs_f64() < SETUP_S_PER_GROUP {
                    drop(timed_setup(&mut times));
                }
                setups.push(times);
            }
            (t0, check0) = (Instant::now(), w.m.check_ns);
        }
    }
    let setup_s = setups.iter_mut().map(|g| median(g)).sum::<f64>() / setups.len() as f64;
    let setups = setups.iter().map(Vec::len).sum();
    let window_ns: u64 = w.m.windows.iter().map(|win| win.ns).sum();
    let reclaimed = w.harvest(&mut tr);
    w.final_checks();
    let frames_per_instance = ratio(w.instance_frames() as f64, w.live_instances() as f64);
    Run {
        setup_s,
        setups,
        window_s: window_ns as f64 / 1e9,
        reclaimed,
        frames_per_instance,
        audit_records: w.p.audit.len() as u64 - audit0,
        evtchn_delivered: w.p.hv.delivered_count() - evtchn0,
        spec_checks: w.spec.as_ref().map_or(0, |h| h.checks()) - spec0,
        logic_restarts: w.p.xs.logic_restarts() - logic0,
        w,
        tr,
    }
}

/// The deterministic model outputs of a run, and of its spec segment.
fn digest(r: &Run, seg: Option<&Run>) -> Digest {
    let (w, c) = (&r.w, &r.w.m.all);
    let mut d = Digest::default();
    d.add("des_elapsed_ns", w.p.now_ns() - w.start_ns);
    d.add("frames_to_guests", c.frames_to_guests);
    d.add("frames_uplink", c.frames_uplink);
    d.add("bytes_delivered", c.bytes_delivered);
    d.add("blk_completions", c.blk_done);
    d.add("restarts", c.restarts);
    d.add("pages_restored", c.pages_restored);
    d.add("requests_lost", c.lost_frames + c.lost_blk);
    d.add("xs_txns", c.txns);
    d.add("xs_retries", c.txn_retries);
    d.add("invocations", c.invocations);
    d.add("clones", c.clones);
    d.add("destroys", c.destroys);
    d.add("audit_records", w.p.audit.len() as u64);
    d.add(
        "audit_head",
        w.p.audit.records().last().map_or(0, |r| r.hash),
    );
    d.add(
        "frames_used",
        w.p.hv.mem.total_frames() - w.p.hv.mem.free_frames(),
    );
    d.add("frames_reclaimed", r.reclaimed);
    d.add("spec_checks", r.spec_checks);
    if let Some(seg) = seg {
        d.add("spec_segment", digest(seg, None).hash());
    }
    d
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

type Metric = (&'static str, f64, &'static str);

/// The samples of every window, pooled.
fn pooled(ws: &[Window], h: fn(&Window) -> &Hist) -> Hist {
    let mut all = Hist::default();
    for w in ws {
        all.merge(h(w));
    }
    all
}

/// The median of `h`, robust to a host that switches between fast and
/// slow phases: the median of each window, averaged over the windows
/// that hold samples. A median over the whole run is a majority vote
/// between the phases and jumps from one to the other as their shares
/// change; this average moves with the shares, as the run's duration
/// does.
fn p50_of(ws: &[Window], median: impl Fn(&Window) -> Option<f64>) -> f64 {
    let v: Vec<f64> = ws.iter().filter_map(median).collect();
    ratio(v.iter().sum(), v.len() as f64)
}

/// The p99 of `h`. On a stationary workload it is the median of the p99s
/// of 9 (or else 3) equal runs of windows, when each holds enough
/// samples for a p99: a short disturbance moves a p99 most, and the
/// median outvotes it. Otherwise, and on a workload whose costs trend
/// through a run, it is the p99 of the whole run.
fn p99_of(stationary: bool, ws: &[Window], h: fn(&Window) -> &Hist) -> f64 {
    for groups in [9, 3] {
        if !stationary || ws.len() < groups {
            continue;
        }
        let hs: Vec<Hist> = ws.chunks(ws.len() / groups).map(|c| pooled(c, h)).collect();
        if hs.iter().all(|g| g.len() >= P99_MIN_SAMPLES) {
            return median(&mut hs.iter().map(|g| g.quantile(0.99)).collect::<Vec<_>>());
        }
    }
    pooled(ws, h).quantile(0.99)
}

/// A count per host second over the whole run.
fn rate(r: &Run, count: fn(&world::Counts) -> u64) -> f64 {
    ratio(count(&r.w.m.all) as f64, r.window_s)
}

fn end_to_end(r: &Run) -> Vec<Metric> {
    let ws = &r.w.m.windows[..];
    let p50 =
        |h: fn(&Window) -> &Hist| p50_of(ws, |w| (h(w).len() > 0).then(|| h(w).quantile(0.5)));
    let p99 = |h: fn(&Window) -> &Hist| p99_of(r.w.mix.stationary, ws, h);
    // NetBack restarts take about twice as long as BlkBack ones, and
    // there are as many of each, so a median over both would fall in the
    // gap between them, where a small shift moves it far. The median is
    // taken per backend, and the two are averaged.
    let restart_p50 = (0..2)
        .map(|k| {
            p50_of(ws, |w| {
                let ns = &w.restart_ns[k];
                (!ns.is_empty()).then(|| quantile(ns, 0.5))
            })
        })
        .sum::<f64>()
        / 2.0;
    vec![
        ("setup_s", r.setup_s, "s"),
        (
            "io.ops_per_s",
            rate(r, |c| c.frames_to_guests + c.blk_done),
            "ops/s",
        ),
        ("net.frame_ns.p50", p50(|w| &w.net), "ns"),
        ("net.frame_ns.p99", p99(|w| &w.net), "ns"),
        ("blk.req_ns.p50", p50(|w| &w.blk), "ns"),
        ("blk.req_ns.p99", p99(|w| &w.blk), "ns"),
        ("restart.ns.p50", restart_p50, "ns"),
        ("io.across_restart_ns.p50", p50(|w| &w.across), "ns"),
        ("io.across_restart_ns.p99", p99(|w| &w.across), "ns"),
        ("xs.txn_ns.p50", p50(|w| &w.xs), "ns"),
        ("xs.txn_ns.p99", p99(|w| &w.xs), "ns"),
        ("clone.first_io_ns.p50", p50(|w| &w.first_io), "ns"),
        ("clone.first_io_ns.p99", p99(|w| &w.first_io), "ns"),
        ("churn.invocations_per_s", rate(r, |c| c.invocations), "1/s"),
        ("churn.frames_per_instance", r.frames_per_instance, "frames"),
        ("peak_rss_mib", peak_rss_mib(), "MiB"),
    ]
}

/// Operation count of `op` in traced and untraced rounds.
fn op_counts(r: &Run, op: Op) -> (u64, u64) {
    let n = |c: &world::Counts| match op {
        Op::NetFrame => c.frames_to_guests + c.frames_uplink,
        Op::BlkReq => c.blk_done,
        Op::AcrossRestart => c.lost_frames + c.lost_blk,
        Op::CloneFirstIo => c.clones,
        Op::Destroy => c.destroys,
        Op::XsTxn | Op::Harvest => 0,
    };
    match op {
        // One fleet transaction per scope.
        Op::XsTxn | Op::Harvest => (
            r.tr.total_traced[op as usize].n,
            r.tr.total_plain[op as usize].n,
        ),
        _ => (n(&r.w.m.traced), n(&r.w.m.all) - n(&r.w.m.traced)),
    }
}

/// Per-op host time: traced total, residual, overhead (ns per op).
fn op_times(r: &Run, op: Op) -> (f64, f64, f64) {
    let (nt, np) = op_counts(r, op);
    let i = op as usize;
    let traced = ratio(r.tr.total_traced[i].ns as f64, nt as f64);
    let plain = ratio(r.tr.total_plain[i].ns as f64, np as f64);
    let residual = ratio(r.tr.residual[i].ns as f64, nt as f64);
    (traced, residual, traced - plain)
}

const ATTRIBUTED: [Op; 5] = [
    Op::NetFrame,
    Op::BlkReq,
    Op::AcrossRestart,
    Op::CloneFirstIo,
    Op::XsTxn,
];

/// The per-layer metrics of `r`; the spec layer's come from `sr`, the
/// run that had the spec attached (`r` itself, or its spec segment).
fn per_layer(r: &Run, sr: &Run) -> Vec<Metric> {
    let (m, tr) = (&r.w.m, &r.tr);
    let (c, t) = (&m.all, &m.traced);
    let per = |s: S, den: u64| ratio(tr.leaf_all(s).ns as f64, den as f64);
    let mean = |s: S| ratio(tr.leaf_all(s).ns as f64, tr.leaf_all(s).n as f64);
    let clone_ns = tr.leaf(Op::CloneFirstIo, S::ToolstackClone).ns as f64;
    let list_ns = tr.leaf(Op::CloneFirstIo, S::ToolstackList).ns as f64;
    let fab =
        r.w.p
            .fabric
            .as_ref()
            .map(|f| f.lifetime_stats())
            .unwrap_or_default();
    let d = &m.destroy_ns;
    let decile = d.len() / 10;
    let growth = ratio(
        quantile(&d[d.len() - decile..], 0.5),
        quantile(&d[..decile], 0.5),
    );
    let ops_of = |c: &world::Counts| {
        (c.frames_to_guests + c.frames_uplink + c.blk_done + c.txns + c.clones) as f64
    };
    let ops = ops_of(c);
    let spec = sr.w.spec.as_ref();
    let notify = sr.tr.leaf_all(S::HvNotify);
    let mut v: Vec<Metric> = vec![
        ("platform.net_tx_ns", per(S::NetTx, t.frames_tx), "ns"),
        ("platform.net_rx_ns", per(S::NetRx, t.rx_returns), "ns"),
        (
            "platform.blk_submit_ns",
            per(S::BlkSubmit, t.blk_submitted),
            "ns",
        ),
        ("platform.blk_poll_ns", per(S::BlkPoll, t.blk_done), "ns"),
        (
            "platform.clone_guest_self_ns",
            ratio(clone_ns - list_ns, t.clones as f64),
            "ns",
        ),
        (
            "netback.process_ns_per_frame",
            per(S::NetbackProcess, t.frames_tx),
            "ns",
        ),
        ("netback.dropped", c.netback_dropped as f64, "count"),
        (
            "fabric.switch_ns_per_frame",
            per(S::FabricSwitch, t.frames_to_guests + t.frames_uplink),
            "ns",
        ),
        ("fabric.requeued", fab.requeued as f64, "count"),
        ("fabric.dropped", fab.dropped as f64, "count"),
        ("fabric.flows_learned", fab.flows_learned as f64, "count"),
        ("hv.notify_ns", mean(S::HvNotify), "ns"),
        (
            "evtchn.delivered_per_op",
            ratio(
                r.evtchn_delivered as f64,
                (c.frames_to_guests + c.frames_uplink + c.blk_done) as f64,
            ),
            "ratio",
        ),
        (
            "blkback.process_ns_per_req",
            per(S::BlkbackProcess, t.blk_done),
            "ns",
        ),
        ("blkback.errors", c.blk_errors as f64, "count"),
        ("ring.full_refusals", c.ring_refusals as f64, "count"),
        (
            "restart.requests_lost",
            (c.lost_frames + c.lost_blk) as f64,
            "count",
        ),
        ("restart.pages_restored", c.pages_restored as f64, "count"),
        (
            "restart.retx_ns",
            per(S::Retransmit, t.lost_frames + t.lost_blk),
            "ns",
        ),
        ("xs.request_ns", mean(S::XsHandle), "ns"),
        (
            "xs.txn_retry_frac",
            ratio(c.txn_retries as f64, c.txns as f64),
            "ratio",
        ),
        (
            "xs.logic_restarts_per_txn",
            ratio(r.logic_restarts as f64, c.txns as f64),
            "ratio",
        ),
        (
            "toolstack.clone_self_ns",
            ratio(list_ns, t.clones as f64),
            "ns",
        ),
        ("toolstack.destroy_ns.p50", quantile(d, 0.5), "ns"),
        ("toolstack.destroy_growth", growth, "ratio"),
        ("mem.warm_write_ns", mean(S::MemWrite), "ns"),
        (
            "mem.frames_privatised_per_instance",
            ratio(c.frames_privatised as f64, c.destroys as f64),
            "frames",
        ),
        ("mem.dedup_harvest_ns", m.harvest_ns as f64, "ns"),
        ("mem.frames_reclaimed", r.reclaimed as f64, "frames"),
        (
            "audit.records_per_op",
            ratio(r.audit_records as f64, ops),
            "ratio",
        ),
        (
            "spec.checks_per_op",
            ratio(sr.spec_checks as f64, ops_of(&sr.w.m.all)),
            "ratio",
        ),
        (
            "spec.ns_per_check",
            if spec.is_some() {
                ratio(notify.ns as f64, notify.n as f64)
            } else {
                0.0
            },
            "ns",
        ),
        (
            "spec.divergences",
            spec.map_or(0.0, |h| h.divergence().map_or(0.0, |_| 1.0)),
            "count",
        ),
    ];
    const NAMES: [[&str; 3]; 5] = [
        [
            "op.net_frame.traced_ns",
            "op.net_frame.residual_ns",
            "op.net_frame.overhead_ns",
        ],
        [
            "op.blk_req.traced_ns",
            "op.blk_req.residual_ns",
            "op.blk_req.overhead_ns",
        ],
        [
            "op.across_restart.traced_ns",
            "op.across_restart.residual_ns",
            "op.across_restart.overhead_ns",
        ],
        [
            "op.clone_first_io.traced_ns",
            "op.clone_first_io.residual_ns",
            "op.clone_first_io.overhead_ns",
        ],
        [
            "op.xs_txn.traced_ns",
            "op.xs_txn.residual_ns",
            "op.xs_txn.overhead_ns",
        ],
    ];
    for (op, names) in ATTRIBUTED.iter().zip(NAMES) {
        let (traced, residual, overhead) = op_times(r, *op);
        v.push((names[0], traced, "ns"));
        v.push((names[1], residual, "ns"));
        v.push((names[2], overhead, "ns"));
    }
    v
}

/// The traced run's per-operation breakdown: layer self times, span
/// self times and call counts, residual, tracing overhead.
fn attribution(r: &Run) -> String {
    let mut ops = Vec::new();
    for op in ATTRIBUTED {
        let (nt, _) = op_counts(r, op);
        let (traced, residual, overhead) = op_times(r, op);
        let mut layers: Vec<(&str, f64)> = Vec::new();
        let mut spans = Vec::new();
        for s in S::ALL {
            let a = r.tr.leaf(op, s);
            if a.n == 0 {
                continue;
            }
            let per_op = ratio(a.ns as f64, nt as f64);
            spans.push(format!(
                "\"{}\":{{\"ns_per_op\":{per_op:.1},\"calls\":{}}}",
                s.name(),
                a.n
            ));
            match layers.iter_mut().find(|(l, _)| *l == s.layer()) {
                Some((_, ns)) => *ns += per_op,
                None => layers.push((s.layer(), per_op)),
            }
        }
        let layers: Vec<String> = layers
            .iter()
            .map(|(l, ns)| format!("\"{l}\":{ns:.1}"))
            .collect();
        ops.push(format!(
            "\"{}\":{{\"ops\":{nt},\"total_ns\":{traced:.1},\"layers_ns\":{{{}}},\
             \"residual_ns\":{residual:.1},\"overhead_ns\":{overhead:.1},\"spans\":{{{}}}}}",
            op.name(),
            layers.join(","),
            spans.join(",")
        ));
    }
    format!("{{\"attribution\":{{{}}}}}", ops.join(","))
}

fn metrics_json(ms: &[Metric]) -> String {
    let v: Vec<String> = ms
        .iter()
        .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{v},\"unit\":\"{u}\"}}"))
        .collect();
    format!("{{{}}}", v.join(","))
}

/// Design check: every `.p99` rests on enough samples, and every
/// operation the metrics name happened.
fn sample_checks(r: &mut Run) {
    let ws = &r.w.m.windows[..];
    let counts = [
        ("net frames", pooled(ws, |w| &w.net).len()),
        ("blk requests", pooled(ws, |w| &w.blk).len()),
        ("across-restart requests", pooled(ws, |w| &w.across).len()),
        ("xs txns", pooled(ws, |w| &w.xs).len()),
        ("clone first I/Os", pooled(ws, |w| &w.first_io).len()),
    ];
    let restarts: usize = ws.iter().flat_map(|w| &w.restart_ns).map(Vec::len).sum();
    let m = &r.w.m;
    for (what, n) in counts {
        if n < P99_MIN_SAMPLES {
            r.w.checks.fail(Check::SampleCounts, || {
                format!("{n} {what}, a p99 needs {P99_MIN_SAMPLES}")
            });
        }
    }
    if restarts == 0 || m.destroy_ns.len() < 10 || r.w.live_instances() == 0 {
        r.w.checks.fail(Check::SampleCounts, || {
            "no restart, destroy or live instance".into()
        });
    }
}

fn bench(a: &Args) -> ExitCode {
    let Some(mix) = mix(&a.workload) else {
        eprintln!("unknown workload {:?}", a.workload);
        return ExitCode::from(2);
    };
    let rounds = a.seconds * mix.rounds_per_sec;
    let mut r = run(&mix, a.seed, rounds, a.trace, Fault::None);
    let per_window: Vec<String> =
        r.w.m
            .windows
            .iter()
            .map(|w| format!("{:.3}", w.ns as f64 / 1e9))
            .collect();
    eprintln!(
        "{}: {} set-ups, {rounds} rounds in {:.2} s (windows {}), {} clones, \
         {} restarts, {} children listed twice by XenStore directory",
        a.workload,
        r.setups,
        r.window_s,
        per_window.join(" "),
        r.w.m.all.clones,
        r.w.m.all.restarts,
        r.w.m.xs_dir_repeats
    );
    let seg = mix.spec_segment.then(|| {
        let spec = crate::mix("spec_lockstep").expect("defined");
        let seg = run(&spec, a.seed, SPEC_SEGMENT_ROUNDS, a.trace, Fault::None);
        eprintln!(
            "spec segment: {SPEC_SEGMENT_ROUNDS} rounds in {:.2} s, {} spec checks",
            seg.window_s, seg.spec_checks
        );
        r.w.checks.merge(&seg.w.checks);
        seg
    });
    sample_checks(&mut r);
    println!("{}", digest(&r, seg.as_ref()).to_json());
    let metrics = if a.trace {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans_{}_{}.tsv", a.workload, a.seed));
        if let Err(e) = r.tr.write_raw(&path) {
            eprintln!("writing {}: {e}", path.display());
        }
        println!("{}", attribution(&r));
        per_layer(&r, seg.as_ref().unwrap_or(&r))
    } else {
        end_to_end(&r)
    };
    let c = &r.w.m.all;
    let attempted = c.attempted() - c.lost_frames - c.lost_blk;
    let failed = c.ring_refusals + c.blk_errors + c.clone_failed + c.txn_failed;
    let correct = r.w.checks.fired.is_empty();
    for msg in &r.w.checks.messages {
        eprintln!("check failed: {msg}");
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        metrics_json(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Injects each fault into a small run and requires its check to fire;
/// a clean run must fire none.
fn selftest() -> ExitCode {
    let small = Mix {
        guests: 3,
        flows: 3_000,
        uplink_flows: 300,
        tx_frames: 8,
        blk_reqs: 8,
        txn_every: 1,
        logic_restart: true,
        restart_every: 4,
        invoke_gap_ns: world::ROUND_NS,
        service_rounds: 1,
        keep_warm_rounds: 2,
        ..mix("spec_lockstep").expect("defined")
    };
    let cases = [
        (Fault::None, None),
        (Fault::DropFrame, Some(Check::FrameExactlyOnce)),
        (Fault::SkipRetransmit, Some(Check::BlkCompletesOk)),
        (Fault::TamperAudit, Some(Check::AuditChain)),
        (Fault::PhantomRestart, Some(Check::RestartCounts)),
        (Fault::ForceDivergence, Some(Check::SpecDivergence)),
        (Fault::StaleHash, Some(Check::PendingRehash)),
        (Fault::SubtreeMismatch, Some(Check::CloneSubtree)),
    ];
    let mut ok = true;
    for (fault, expect) in cases {
        let r = run(&small, 7, 24, false, fault);
        let fired: Vec<String> =
            r.w.checks
                .fired
                .iter()
                .map(|(c, _)| format!("{c:?}"))
                .collect();
        let pass = match expect {
            None => fired.is_empty(),
            Some(c) => r.w.checks.fired(c),
        };
        ok &= pass;
        if !pass {
            for msg in &r.w.checks.messages {
                eprintln!("{fault:?}: {msg}");
            }
        }
        println!(
            "{{\"fault\":\"{fault:?}\",\"expect\":\"{}\",\"fired\":[{}],\"pass\":{pass}}}",
            expect.map_or("none".to_string(), |c| format!("{c:?}")),
            fired
                .iter()
                .map(|f| format!("\"{f}\""))
                .collect::<Vec<_>>()
                .join(",")
        );
    }
    println!("{{\"selftest\":{ok}}}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if a.selftest {
        selftest()
    } else {
        bench(&a)
    }
}
