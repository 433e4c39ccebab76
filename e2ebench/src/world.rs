//! The benchmark world: a Xoar platform, its guest fleet, the serverless
//! instances cloned from templates, and the synchronous round loop that
//! drives them all through the platform's public API.
//!
//! One round is one closed-loop step of every client: each fleet guest
//! submits its frames and block requests, invocations clone or reuse an
//! instance and do their I/O, due transactions commit, due backend
//! microreboots hit after submit and before backend processing, then the
//! backends run and every guest drains its completions. Nothing is left
//! in flight between rounds, so every request is checked every round.

use std::time::Instant;

use xoar_analysis::spec::SpecHandle;
use xoar_core::audit::AuditEvent;
use xoar_core::platform::{GuestConfig, Platform, XoarConfig};
use xoar_core::restart::{RestartEngine, RestartPath, RestartPolicy};
use xoar_core::toolstack::Toolstack;
use xoar_devices::blk::{BlkOp, BlkResponse, BlkStatus};
use xoar_devices::fabric::UPLINK;
use xoar_devices::net::{NetPacket, MAX_GSO_BYTES};
use xoar_devices::ring::RingError;
use xoar_hypervisor::fasthash::FastMap;
use xoar_hypervisor::memory::Pfn;
use xoar_hypervisor::{DomId, Hypercall};
use xoar_sim::workloads::serverless::ServerlessConfig;
use xoar_sim::SimRng;
use xoar_xenstore::{Request, Response};

use crate::stats::Hist;
use crate::trace::{Op, Tracer, S};

/// DES time one round advances the platform clock by.
pub const ROUND_NS: u64 = 1_000_000;
/// Memory of every fleet guest, MiB (one model frame per MiB).
const GUEST_MIB: u64 = 16;
/// Guest pfn holding an instance's warm state (bulk 4 KiB body).
const WARM_PFN: u64 = 8;
/// Guest pfns holding the fleet's page-carrying frame bodies.
const DATA_PFN: u64 = 9;
const DATA_PAGES: u64 = 4;
/// Frames a guest sends on one connection per round: the front-tier
/// tick (`crates/sim/src/workloads/fronttier.rs`) sends 32 frames
/// round-robin over 8 flows.
pub const FRAMES_PER_FLOW: usize = 4;
/// Frame sizes, one kind per batch, each kind equally likely (the
/// shares are a choice; no trace in the repository gives a mix). Small:
/// 64 B, Ethernet's minimum frame (a bare TCP ACK). MTU: 1500 B, the
/// front-tier workload's frame. GSO: 64 KiB, NetBack's GSO aggregate as
/// the wget workload (`crates/sim/src/workloads/wget.rs`) sends it. The
/// fourth kind is a 4 KiB page by handle (`net_transmit_page`), as the
/// front-tier workload's page reply.
const FRAME_BYTES: [usize; 3] = [64, 1500, MAX_GSO_BYTES];
/// Zipf exponent of connection popularity: web request popularity is
/// Zipf-like with exponent 0.64–0.83 (Breslau et al., "Web Caching and
/// Zipf-like Distributions", INFOCOM 1999).
const ZIPF_ALPHA: f64 = 0.8;
/// Node writes per XenStore transaction (a choice: enough writes for
/// the transaction to span several requests).
const TXN_WRITES: usize = 3;
/// Directory under a clone's home its device-setup transaction writes.
const SETUP_DIR: &str = "device-setup";
/// EAGAIN retries before a transaction counts as failed.
const TXN_RETRIES: u32 = 8;
/// One fleet transaction in this many meets a conflicting toolstack
/// write (a choice: it makes the EAGAIN retry path a steady share).
const TXN_CONFLICT_EVERY: u64 = 8;
/// Block requests address 4 KiB-aligned sectors below this (a choice:
/// the disk model's cost depends on neither size nor placement).
const SECTOR_SPAN: u64 = 1 << 20;
/// Flow ids of instance→peer connections start here.
const CLONE_FLOW_BASE: u64 = 1 << 48;
/// Every n-th clone's XenStore subtree is compared with its template's
/// (every clone in the self-test), at the end of the round, outside the
/// window.
const SUBTREE_CHECK_EVERY: u64 = 16;
/// Fabric passes per round before undelivered frames count as stuck.
const MAX_PASSES: usize = 64;

/// One workload: the mix of operations every round carries.
#[derive(Clone, Debug)]
pub struct Mix {
    /// Fleet guests (built, long-lived).
    pub guests: usize,
    /// Guest→guest fabric connections held by the fleet.
    pub flows: usize,
    /// Fleet connections NAT'd to the uplink, besides `flows`.
    pub uplink_flows: usize,
    /// Frames each fleet guest sends per round, `FRAMES_PER_FLOW` per
    /// connection (≤ the 32 ring slots).
    pub tx_frames: usize,
    /// Block requests each fleet guest submits per round.
    pub blk_reqs: usize,
    /// Fleet transactions: every guest every round (0), or one guest
    /// every n rounds, round-robin.
    pub txn_every: u64,
    /// Microreboot XenStore Logic before every transaction.
    pub logic_restart: bool,
    /// Rounds between NetBack + BlkBack fast-path microreboots.
    pub restart_every: u64,
    /// Mean DES gap between invocations, ns.
    pub invoke_gap_ns: u64,
    /// Rounds an instance is busy per invocation.
    pub service_rounds: u64,
    /// Rounds an idle instance is kept warm before it is destroyed.
    pub keep_warm_rounds: u64,
    /// Keep the isolation spec attached in lockstep.
    pub spec: bool,
    /// After the run, run a short `spec_lockstep` segment in a world of
    /// its own, for the spec layer's per-layer metrics and divergence
    /// check; no window of this workload includes it.
    pub spec_segment: bool,
    /// Per-round host cost stays flat through a run, so a `.p99` may be
    /// the median of window p99s (see `main.rs`).
    pub stationary: bool,
    /// Work budget: rounds per `--seconds`.
    pub rounds_per_sec: u64,
}

/// A fault the self-test injects; each must trip exactly its check.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fault {
    None,
    DropFrame,
    SkipRetransmit,
    TamperAudit,
    PhantomRestart,
    ForceDivergence,
    StaleHash,
    SubtreeMismatch,
}

/// The correctness checks.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Check {
    FrameExactlyOnce,
    BlkCompletesOk,
    AuditChain,
    RestartCounts,
    PendingRehash,
    CloneSubtree,
    SpecDivergence,
    ControlPlane,
    SampleCounts,
}

/// Failed checks, with the first few messages.
#[derive(Default)]
pub struct Checks {
    pub fired: Vec<(Check, u64)>,
    pub messages: Vec<String>,
}

impl Checks {
    pub fn fail(&mut self, c: Check, msg: impl FnOnce() -> String) {
        match self.fired.iter_mut().find(|(k, _)| *k == c) {
            Some((_, n)) => *n += 1,
            None => self.fired.push((c, 1)),
        }
        if self.messages.len() < 16 {
            self.messages.push(format!("{c:?}: {}", msg()));
        }
    }

    /// Takes over the failures of `o`.
    pub fn merge(&mut self, o: &Checks) {
        for &(c, n) in &o.fired {
            match self.fired.iter_mut().find(|(k, _)| *k == c) {
                Some((_, m)) => *m += n,
                None => self.fired.push((c, n)),
            }
        }
        let room = 16usize.saturating_sub(self.messages.len());
        self.messages.extend(o.messages.iter().take(room).cloned());
    }

    pub fn fired(&self, c: Check) -> bool {
        self.fired.iter().any(|(k, _)| *k == c)
    }
}

/// Per-round counters, summed over all rounds and over traced rounds.
#[derive(Clone, Copy, Default, Debug)]
pub struct Counts {
    pub frames_tx: u64,
    pub frames_to_guests: u64,
    pub frames_uplink: u64,
    pub bytes_delivered: u64,
    pub rx_returns: u64,
    pub blk_submitted: u64,
    pub blk_done: u64,
    pub blk_errors: u64,
    pub netback_dropped: u64,
    pub txns: u64,
    pub txn_retries: u64,
    pub txn_failed: u64,
    pub invocations: u64,
    pub clones: u64,
    pub clone_failed: u64,
    pub destroys: u64,
    pub restarts: u64,
    pub pages_restored: u64,
    pub lost_frames: u64,
    pub lost_blk: u64,
    pub ring_refusals: u64,
    pub frames_privatised: u64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        macro_rules! sum {
            ($($f:ident),*) => { $(self.$f += o.$f;)* };
        }
        sum!(
            frames_tx,
            frames_to_guests,
            frames_uplink,
            bytes_delivered,
            rx_returns,
            blk_submitted,
            blk_done,
            blk_errors,
            netback_dropped,
            txns,
            txn_retries,
            txn_failed,
            invocations,
            clones,
            clone_failed,
            destroys,
            restarts,
            pages_restored,
            lost_frames,
            lost_blk,
            ring_refusals,
            frames_privatised
        );
    }

    /// Operations attempted: frames, block requests, transactions,
    /// clones and restarts.
    pub fn attempted(&self) -> u64 {
        self.frames_tx
            + self.blk_submitted
            + self.txns
            + self.txn_failed
            + self.clones
            + self.clone_failed
            + self.restarts
    }
}

/// Host-time measurements of one measurement window (a run is split
/// into several, so a disturbed stretch of a run can be outvoted).
#[derive(Default)]
pub struct Window {
    pub net: Hist,
    pub blk: Hist,
    pub across: Hist,
    pub xs: Hist,
    pub first_io: Hist,
    /// Restart times per backend, in `World::shards` order.
    pub restart_ns: [Vec<u64>; 2],
    pub counts: Counts,
    /// Host time the window measured.
    pub ns: u64,
}

/// Host-time measurements of one run.
#[derive(Default)]
pub struct Measures {
    pub windows: Vec<Window>,
    pub destroy_ns: Vec<u64>,
    pub all: Counts,
    pub traced: Counts,
    /// Host time excluded from the windows (subtree comparisons).
    pub check_ns: u64,
    /// Children XenStore `directory` listed twice in the subtree walks.
    pub xs_dir_repeats: u64,
    /// Host time of the end-of-run dedup harvest.
    pub harvest_ns: u64,
}

impl Measures {
    /// The window being measured.
    pub fn win(&mut self) -> &mut Window {
        if self.windows.is_empty() {
            self.windows.push(Window::default());
        }
        self.windows.last_mut().expect("pushed above")
    }
}

#[derive(Clone, Copy)]
struct FrameRec {
    src: DomId,
    dst: DomId,
    flow: u64,
    bytes: usize,
    pfn: Option<u64>,
    t0: Instant,
    acked: bool,
    delivered: bool,
    lost: bool,
    across: bool,
}

impl FrameRec {
    /// Neither delivered and completed, nor dropped by a restart.
    fn stranded(&self) -> bool {
        !(self.lost || self.acked && self.delivered)
    }
}

#[derive(Clone, Copy)]
struct BlkRec {
    op: BlkOp,
    sector: u64,
    count: u64,
    pfn: Option<u64>,
    t0: Instant,
    across: bool,
    first_io: Option<Instant>,
}

struct Inst {
    id: u64,
    dom: DomId,
    f: usize,
    flow: u64,
    peer: DomId,
    busy_until: u64,
    idle_since: Option<u64>,
}

/// An invocation's I/O, issued with the round's traffic.
struct InvIo {
    dom: DomId,
    flow: u64,
    peer: DomId,
    first_io: Option<Instant>,
}

/// The platform plus everything the harness tracks about it.
pub struct World {
    pub mix: Mix,
    pub p: Platform,
    ts: Toolstack,
    fleet: Vec<DomId>,
    /// Per fleet guest: its connections `(flow, dst)`.
    conns: Vec<Vec<(u64, DomId)>>,
    /// Cumulative Zipf popularity over a guest's connections.
    popularity: Vec<f64>,
    templates: Vec<DomId>,
    /// Each template's guest subtree, domain ids normalised.
    tpl_tree: Vec<Vec<(String, String)>>,
    warm: Vec<Vec<u8>>,
    pub engine: RestartEngine,
    pub spec: Option<SpecHandle>,
    rng: SimRng,
    arrivals: SimRng,
    next_arrival_ns: u64,
    insts: Vec<Inst>,
    next_inst: u64,
    round: u64,
    frames: Vec<FrameRec>,
    frame_ix: FastMap<(u64, u64), u32>,
    blk: FastMap<(u32, u64), BlkRec>,
    /// Original block requests not yet completed this round.
    blk_owed: u64,
    io: Vec<InvIo>,
    /// Clones whose subtree is compared at the end of the round.
    subtree_due: Vec<(DomId, usize)>,
    rx_doms: Vec<DomId>,
    sizes: Vec<usize>,
    ops: Vec<(BlkOp, u64, u64)>,
    cur: Counts,
    pub m: Measures,
    pub checks: Checks,
    pub fault: Fault,
    fault_spent: bool,
    pub start_ns: u64,
}

impl World {
    /// Builds the world: boot, fleet, connection population, templates,
    /// restart registrations and (optionally) the spec.
    pub fn setup(mix: &Mix, seed: u64, fault: Fault) -> World {
        let mut rng = SimRng::new(seed);
        let mut p = Platform::xoar(XoarConfig::default());
        let mut ts = Toolstack::new(&p, 0);
        let config = |name: &str| {
            let mut gc = GuestConfig::evaluation_guest(name);
            gc.memory_mib = GUEST_MIB;
            gc.vcpus = 1;
            gc
        };
        let fleet: Vec<DomId> = (0..mix.guests)
            .map(|i| {
                ts.create(&mut p, config(&format!("g{i}")))
                    .expect("fleet guest boots")
            })
            .collect();
        for &g in &fleet {
            for k in 0..DATA_PAGES {
                let body: Vec<u8> = (0..4096).map(|_| rng.below(256) as u8).collect();
                p.hv.mem
                    .write(g, Pfn(DATA_PFN + k), &body)
                    .expect("fleet data page");
            }
        }
        // Each guest owns its transaction nodes; a toolstack write to an
        // existing node keeps the guest's ownership.
        for &g in &fleet {
            for j in 0..TXN_WRITES {
                let path = format!("/local/domain/{}/data/k{j}", g.0);
                p.xs.write_str(g, &path, "0")
                    .expect("guest writes its home");
            }
        }
        p.enable_fabric();
        let mut conns = vec![Vec::new(); fleet.len()];
        if fleet.len() > 1 {
            let per_guest = (mix.flows + mix.uplink_flows) / fleet.len();
            for (gi, &g) in fleet.iter().enumerate() {
                for c in 0..per_guest as u64 {
                    let flow = ((gi as u64 + 1) << 32) | c;
                    let total = (mix.flows + mix.uplink_flows) as u64;
                    let dst = if rng.below(total) < mix.uplink_flows as u64 {
                        UPLINK
                    } else {
                        let hop = 1 + rng.below(fleet.len() as u64 - 1) as usize;
                        fleet[(gi + hop) % fleet.len()]
                    };
                    assert!(p.fabric_open_flow(flow, g, dst), "connection opens");
                    conns[gi].push((flow, dst));
                }
            }
        }
        let popularity = zipf_cdf(conns[0].len(), ZIPF_ALPHA);

        let mut templates = Vec::new();
        let mut tpl_tree = Vec::new();
        let mut warm = Vec::new();
        // One sealed template per function, sized as the serverless
        // density experiment sizes them.
        let sls = ServerlessConfig::default();
        for f in 0..sls.functions {
            let mut gc = config(&format!("fn{f}-golden"));
            gc.memory_mib = sls.memory_mib;
            let tpl = ts.create(&mut p, gc).expect("template guest boots");
            ts.capture_template(&mut p, tpl).expect("template seals");
            // The first clone compiles the stamp plan; pay it here.
            let c = ts.clone(&mut p, tpl, "warmup").expect("warm-up clone");
            ts.destroy(&mut p, c).expect("warm-up clone dies");
            tpl_tree.push(subtree(&mut p, ts.dom, tpl).0);
            templates.push(tpl);
            warm.push((0..4096).map(|i| (i * 31 + f * 7 + 1) as u8).collect());
        }

        let mut engine = RestartEngine::new();
        let interval_ns = mix.restart_every * ROUND_NS;
        for shard in [p.services.netbacks[0], p.services.blkbacks[0]] {
            engine
                .register(
                    &mut p,
                    shard,
                    RestartPolicy::Timer { interval_ns },
                    RestartPath::Fast,
                )
                .expect("backend registers for microreboots");
        }

        let spec = mix.spec.then(|| SpecHandle::attach(&mut p.hv));
        if fault == Fault::ForceDivergence {
            if let Some(h) = &spec {
                let mfn = p.hv.mem.translate(fleet[0], Pfn(DATA_PFN)).expect("mapped");
                h.inject_raw_alias(mfn.0, vec![fleet[0], fleet[1]]);
            }
        }
        let start_ns = p.now_ns();
        World {
            mix: mix.clone(),
            p,
            ts,
            fleet,
            conns,
            popularity,
            templates,
            tpl_tree,
            warm,
            engine,
            spec,
            rng,
            arrivals: SimRng::new(seed ^ 0x9e37_79b9_7f4a_7c15),
            next_arrival_ns: start_ns,
            insts: Vec::new(),
            next_inst: 0,
            round: 0,
            frames: Vec::new(),
            frame_ix: FastMap::default(),
            blk: FastMap::default(),
            blk_owed: 0,
            io: Vec::new(),
            subtree_due: Vec::new(),
            rx_doms: Vec::new(),
            sizes: Vec::new(),
            ops: Vec::new(),
            cur: Counts::default(),
            m: Measures::default(),
            checks: Checks::default(),
            fault,
            fault_spent: false,
            start_ns,
        }
    }

    /// The backends the engine microreboots.
    pub fn shards(&self) -> [DomId; 2] {
        [self.p.services.netbacks[0], self.p.services.blkbacks[0]]
    }

    /// Live instances.
    pub fn live_instances(&self) -> usize {
        self.insts.len()
    }

    /// Model frames the live instances own.
    pub fn instance_frames(&self) -> u64 {
        self.insts
            .iter()
            .map(|i| self.p.hv.mem.owned_frames(i.dom))
            .sum()
    }

    /// One closed-loop round.
    pub fn round(&mut self, tr: &mut Tracer) {
        self.round += 1;
        self.p.advance_time(ROUND_NS);
        let now = self.p.now_ns();
        self.cur = Counts::default();
        self.rx_doms.clear();
        self.rx_doms.extend_from_slice(&self.fleet);
        for i in &mut self.insts {
            if i.idle_since.is_none() && i.busy_until <= now {
                i.idle_since = Some(i.busy_until);
            }
        }
        self.expire(tr, now);
        self.invoke(tr, now);
        self.submit_frames(tr);
        self.submit_blk(tr);
        self.fleet_txns(tr);
        self.inject_restarts(tr, now);
        self.deliver_frames(tr);
        self.complete_blk(tr);
        tr.end();
        self.compare_subtrees();
        self.end_of_round();
        self.m.all.add(&self.cur);
        self.m.win().counts.add(&self.cur);
        if tr.on {
            self.m.traced.add(&self.cur);
        }
    }

    // ---------------- serverless instances ----------------

    fn expire(&mut self, tr: &mut Tracer, now: u64) {
        let keep = self.mix.keep_warm_rounds * ROUND_NS;
        let expired = |i: &Inst| i.idle_since.is_some_and(|s| s + keep <= now);
        if !self.insts.iter().any(expired) {
            return;
        }
        tr.begin(Op::Destroy);
        let mut k = 0;
        while k < self.insts.len() {
            if !expired(&self.insts[k]) {
                k += 1;
                continue;
            }
            let i = self.insts.remove(k);
            let p = &mut self.p;
            self.cur.frames_privatised += p.hv.mem.owned_frames(i.dom);
            tr.span(S::FabricFlow, || p.fabric_close_flow(i.flow, i.dom, i.peer));
            let ts = &mut self.ts;
            let t0 = Instant::now();
            let r = tr.span(S::ToolstackDestroy, || ts.destroy(p, i.dom));
            self.m.destroy_ns.push(t0.elapsed().as_nanos() as u64);
            match r {
                Ok(()) => self.cur.destroys += 1,
                Err(e) => self
                    .checks
                    .fail(Check::ControlPlane, || format!("destroy {}: {e:?}", i.dom)),
            }
        }
    }

    fn invoke(&mut self, tr: &mut Tracer, now: u64) {
        tr.end();
        while self.next_arrival_ns <= now {
            let gap = self.mix.invoke_gap_ns;
            self.next_arrival_ns += self.arrivals.range(gap / 2, gap * 3 / 2);
            let f = self.arrivals.below(self.templates.len() as u64) as usize;
            let peer = self.fleet[self.arrivals.below(self.fleet.len() as u64) as usize];
            self.cur.invocations += 1;
            let busy_until = now + self.mix.service_rounds * ROUND_NS;
            let reuse = self
                .insts
                .iter_mut()
                .filter(|i| i.f == f && i.idle_since.is_some())
                .max_by_key(|i| (i.idle_since, i.id));
            if let Some(i) = reuse {
                i.idle_since = None;
                i.busy_until = busy_until;
                self.io.push(InvIo {
                    dom: i.dom,
                    flow: i.flow,
                    peer: i.peer,
                    first_io: None,
                });
                continue;
            }
            if let Some(i) = self.clone_instance(tr, f, peer, busy_until) {
                self.insts.push(i);
            }
        }
    }

    /// Clones a new instance of function `f` and prepares its first I/O:
    /// device-setup transaction, warm state, connection to `peer`.
    fn clone_instance(
        &mut self,
        tr: &mut Tracer,
        f: usize,
        peer: DomId,
        busy_until: u64,
    ) -> Option<Inst> {
        tr.begin(Op::CloneFirstIo);
        let id = self.next_inst;
        self.next_inst += 1;
        let t0 = Instant::now();
        let (p, ts) = (&mut self.p, &mut self.ts);
        if tr.on {
            // `Toolstack::clone`'s own work is its quota walk over
            // `Toolstack::list`; timed on its own, it splits the clone.
            tr.span(S::ToolstackList, || ts.list(p).len());
        }
        let tpl = self.templates[f];
        let name = format!("fn{f}-i{id}");
        let dom = match tr.span(S::ToolstackClone, || ts.clone(p, tpl, &name)) {
            Ok(d) => d,
            Err(e) => {
                self.cur.clone_failed += 1;
                self.checks
                    .fail(Check::ControlPlane, || format!("clone of {tpl}: {e:?}"));
                return None;
            }
        };
        self.cur.clones += 1;
        if self.fault == Fault::SubtreeMismatch && !self.fault_spent {
            self.fault_spent = true;
            let path = format!("/local/domain/{}/stray", dom.0);
            self.p
                .xs
                .write_str(self.ts.dom, &path, "1")
                .expect("toolstack writes");
        }
        if self.fault != Fault::None || id.is_multiple_of(SUBTREE_CHECK_EVERY) {
            self.subtree_due.push((dom, f));
        }
        let actor = self.ts.dom;
        self.txn(tr, actor, dom, SETUP_DIR, false);
        if let Some(h) = &self.spec {
            h.note_write(dom);
        }
        let (p, body) = (&mut self.p, &self.warm[f]);
        if let Err(e) = tr.span(S::MemWrite, || p.hv.mem.write(dom, Pfn(WARM_PFN), body)) {
            self.checks
                .fail(Check::ControlPlane, || format!("warm write {dom}: {e:?}"));
        }
        let flow = CLONE_FLOW_BASE + id;
        if !tr.span(S::FabricFlow, || p.fabric_open_flow(flow, dom, peer)) {
            self.checks
                .fail(Check::ControlPlane, || format!("flow for {dom} refused"));
        }
        self.io.push(InvIo {
            dom,
            flow,
            peer,
            first_io: Some(t0),
        });
        Some(Inst {
            id,
            dom,
            f,
            flow,
            peer,
            busy_until,
            idle_since: None,
        })
    }

    // ---------------- XenStore ----------------

    fn fleet_txns(&mut self, tr: &mut Tracer) {
        let n = self.fleet.len() as u64;
        let guests: Vec<DomId> = if self.mix.txn_every == 0 {
            self.fleet.clone()
        } else if self.round.is_multiple_of(self.mix.txn_every) {
            vec![self.fleet[((self.round / self.mix.txn_every) % n) as usize]]
        } else {
            return;
        };
        for g in guests {
            // A toolstack write lands inside the transaction, so the
            // commit meets EAGAIN and retries.
            let conflict = self.rng.below(TXN_CONFLICT_EVERY) == 0;
            tr.begin(Op::XsTxn);
            self.txn(tr, g, g, "data", conflict);
        }
    }

    /// One transaction by `actor` writing under `target`'s home: start,
    /// `TXN_WRITES` writes, commit; retried on EAGAIN.
    fn txn(&mut self, tr: &mut Tracer, actor: DomId, target: DomId, dir: &str, conflict: bool) {
        let t0 = Instant::now();
        let base = format!("/local/domain/{}/{dir}", target.0);
        let value = self.round.to_string().into_bytes();
        let tsdom = self.ts.dom;
        let restart = self.mix.logic_restart;
        let xs = &mut self.p.xs;
        for attempt in 0..TXN_RETRIES {
            if restart {
                tr.span(S::XsLogicRestart, || xs.restart_logic());
            }
            let txn = match tr.span(S::XsHandle, || xs.handle(actor, Request::TxnStart)) {
                Response::Txn(t) => t,
                other => {
                    self.cur.txn_failed += 1;
                    self.checks
                        .fail(Check::ControlPlane, || format!("txn start: {other:?}"));
                    return;
                }
            };
            for j in 0..TXN_WRITES {
                let req = Request::Write {
                    txn: Some(txn),
                    path: format!("{base}/k{j}"),
                    value: value.clone(),
                };
                if let Response::Err(e) = tr.span(S::XsHandle, || xs.handle(actor, req)) {
                    self.checks
                        .fail(Check::ControlPlane, || format!("txn write: {e}"));
                }
            }
            if conflict && attempt == 0 {
                // No Logic restart here: it would abort the open
                // transaction (see README, "XenStore Logic restarts").
                let req = Request::Write {
                    txn: None,
                    path: format!("{base}/k0"),
                    value: b"toolstack".to_vec(),
                };
                tr.span(S::XsHandle, || xs.handle(tsdom, req));
            }
            let end = Request::TxnEnd { txn, commit: true };
            match tr.span(S::XsHandle, || xs.handle(actor, end)) {
                Response::Ok => {
                    self.cur.txns += 1;
                    self.m.win().xs.record(t0.elapsed().as_nanos() as u64);
                    return;
                }
                Response::Err(e) if e.starts_with("EAGAIN") => self.cur.txn_retries += 1,
                other => {
                    self.cur.txn_failed += 1;
                    self.checks
                        .fail(Check::ControlPlane, || format!("txn end: {other:?}"));
                    return;
                }
            }
        }
        self.cur.txn_failed += 1;
        self.checks
            .fail(Check::ControlPlane, || "txn exhausted its retries".into());
    }

    // ---------------- network ----------------

    fn ring_refused(&mut self, who: DomId, e: RingError) {
        self.cur.ring_refusals += 1;
        self.checks
            .fail(Check::ControlPlane, || format!("ring refused {who}: {e:?}"));
    }

    fn push_frame(&mut self, rec: FrameRec, seq: u64) {
        let ix = self.frames.len() as u32;
        self.frames.push(rec);
        self.frame_ix.insert((rec.flow, seq), ix);
        self.cur.frames_tx += 1;
    }

    /// Transmits the frames sized by `self.sizes` on `flow`, or the page
    /// at `pfn`; `across` marks a retransmission after a restart.
    #[allow(clippy::too_many_arguments)]
    fn send(
        &mut self,
        tr: &mut Tracer,
        src: DomId,
        dst: DomId,
        flow: u64,
        pfn: Option<u64>,
        t0: Instant,
        across: bool,
    ) {
        let span = if across { S::Retransmit } else { S::NetTx };
        let p = &mut self.p;
        let sizes = &self.sizes;
        let r = match pfn {
            Some(pfn) => tr.span(span, || p.net_transmit_page(src, flow, pfn)),
            None => tr.span(span, || p.net_transmit_batch(src, flow, sizes)),
        };
        match r {
            Ok(first) => {
                let n = if pfn.is_some() { 1 } else { self.sizes.len() };
                for k in 0..n {
                    let bytes = if pfn.is_some() { 4096 } else { self.sizes[k] };
                    let rec = FrameRec {
                        src,
                        dst,
                        flow,
                        bytes,
                        pfn,
                        t0,
                        acked: false,
                        delivered: false,
                        lost: false,
                        across,
                    };
                    self.push_frame(rec, first + k as u64);
                }
            }
            Err(e) => self.ring_refused(src, e),
        }
    }

    fn submit_frames(&mut self, tr: &mut Tracer) {
        tr.begin(Op::NetFrame);
        for gi in 0..self.fleet.len() {
            let src = self.fleet[gi];
            for _ in 0..self.mix.tx_frames / FRAMES_PER_FLOW {
                let u = self.rng.f64();
                let c = self.popularity.partition_point(|&q| q < u);
                let (flow, dst) = self.conns[gi][c.min(self.conns[gi].len() - 1)];
                let kind = self.rng.below(FRAME_BYTES.len() as u64 + 1) as usize;
                if kind == FRAME_BYTES.len() {
                    for _ in 0..FRAMES_PER_FLOW {
                        let pfn = DATA_PFN + self.rng.below(DATA_PAGES);
                        self.send(tr, src, dst, flow, Some(pfn), Instant::now(), false);
                    }
                    continue;
                }
                self.sizes.clear();
                self.sizes.resize(FRAMES_PER_FLOW, FRAME_BYTES[kind]);
                self.send(tr, src, dst, flow, None, Instant::now(), false);
            }
        }
        for k in 0..self.io.len() {
            let InvIo {
                dom, flow, peer, ..
            } = self.io[k];
            self.rx_doms.push(dom);
            self.sizes.clear();
            self.sizes.push(256);
            self.send(tr, dom, peer, flow, None, Instant::now(), false);
        }
    }

    /// Runs every NetBack, the switch and its notifies — through
    /// `Platform::process_netbacks` untraced, split into its public
    /// parts traced.
    fn process_netbacks(&mut self, tr: &mut Tracer) {
        let p = &mut self.p;
        if !tr.on {
            self.cur.netback_dropped += p.process_netbacks().dropped;
            return;
        }
        let fab = p.fabric.as_mut().expect("fabric enabled at set-up");
        for nb in p.netbacks.iter_mut() {
            let s = tr.span(S::NetbackProcess, || {
                nb.process_with_fabric(&mut p.net_hub, fab, &mut p.wire)
            });
            self.cur.netback_dropped += s.dropped;
        }
        tr.span(S::FabricSwitch, || fab.switch(&mut p.net_hub, &mut p.wire));
        for &(backend, port) in fab.notify_targets() {
            let call = Hypercall::Multicall {
                calls: vec![Hypercall::EvtchnSend { port }],
            };
            let _ = tr.span(S::HvNotify, || p.hv.hypercall(backend, call));
        }
    }

    fn deliver_frames(&mut self, tr: &mut Tracer) {
        tr.begin(Op::NetFrame);
        for pass in 0.. {
            self.process_netbacks(tr);
            for k in 0..self.rx_doms.len() {
                let g = self.rx_doms[k];
                loop {
                    let p = &mut self.p;
                    let Some(pkt) = tr.span(S::NetRx, || p.net_receive(g)) else {
                        break;
                    };
                    let t = Instant::now();
                    self.cur.rx_returns += 1;
                    self.on_frame(g, &pkt, t);
                }
            }
            let wire = &mut self.p.wire;
            let out = tr.span(S::WireDrain, || wire.take_outbound());
            let t = Instant::now();
            for pkt in &out {
                self.on_frame(UPLINK, pkt, t);
            }
            if self.p.fabric.as_ref().is_some_and(|f| f.ingress_len() == 0) {
                break;
            }
            if pass == MAX_PASSES {
                self.checks.fail(Check::FrameExactlyOnce, || {
                    "frames stuck in the switch after 64 passes".into()
                });
                break;
            }
        }
    }

    /// A frame reached `at` (a guest's rx ring, or the uplink).
    fn on_frame(&mut self, at: DomId, pkt: &NetPacket, t: Instant) {
        let Some(&ix) = self.frame_ix.get(&(pkt.flow, pkt.seq)) else {
            self.checks.fail(Check::FrameExactlyOnce, || {
                format!("unknown frame flow {} seq {} at {at}", pkt.flow, pkt.seq)
            });
            return;
        };
        let rec = &mut self.frames[ix as usize];
        if rec.src == at {
            if rec.acked {
                self.checks
                    .fail(Check::FrameExactlyOnce, || "duplicate completion".into());
            }
            rec.acked = true;
            return;
        }
        if rec.dst != at {
            let (dst, flow) = (rec.dst, rec.flow);
            self.checks.fail(Check::FrameExactlyOnce, || {
                format!("flow {flow} frame for {dst} delivered to {at}")
            });
            return;
        }
        if self.fault == Fault::DropFrame && !self.fault_spent {
            // The harness loses a delivered frame.
            self.fault_spent = true;
            return;
        }
        if rec.delivered || rec.bytes != pkt.bytes {
            self.checks.fail(Check::FrameExactlyOnce, || {
                format!("flow {} seq {} duplicated or resized", pkt.flow, pkt.seq)
            });
        }
        rec.delivered = true;
        let ns = t.duration_since(rec.t0).as_nanos() as u64;
        if rec.across {
            self.m.win().across.record(ns);
        } else {
            self.m.win().net.record(ns);
        }
        if at == UPLINK {
            self.cur.frames_uplink += 1;
        } else {
            self.cur.frames_to_guests += 1;
        }
        self.cur.bytes_delivered += pkt.bytes as u64;
    }

    // ---------------- block ----------------

    fn push_blk(&mut self, dom: DomId, id: u64, rec: BlkRec) {
        self.blk.insert((dom.0, id), rec);
        self.cur.blk_submitted += 1;
    }

    fn submit_blk(&mut self, tr: &mut Tracer) {
        tr.begin(Op::BlkReq);
        let mut pages = Vec::new();
        for gi in 0..self.fleet.len() {
            let dom = self.fleet[gi];
            self.ops.clear();
            pages.clear();
            for _ in 0..self.mix.blk_reqs {
                let sector = self.rng.below(SECTOR_SPAN) * 8;
                // Half reads, as Postmark's read/append transactions
                // (`crates/sim/src/workloads/postmark.rs`). A quarter of
                // the writes go by page handle (a choice: both write
                // paths run every round).
                if self.rng.below(2) == 0 {
                    self.ops.push((BlkOp::Read, sector, 8));
                } else if self.rng.below(4) == 0 {
                    pages.push((sector, DATA_PFN + self.rng.below(DATA_PAGES)));
                } else {
                    self.ops.push((BlkOp::Write, sector, 8));
                }
            }
            if !self.ops.is_empty() {
                let (p, ops) = (&mut self.p, &self.ops);
                let t0 = Instant::now();
                match tr.span(S::BlkSubmit, || p.blk_submit_batch(dom, ops)) {
                    Ok(ids) => {
                        for (k, id) in ids.into_iter().enumerate() {
                            let (op, sector, count) = self.ops[k];
                            let rec = BlkRec {
                                op,
                                sector,
                                count,
                                pfn: None,
                                t0,
                                across: false,
                                first_io: None,
                            };
                            self.push_blk(dom, id, rec);
                            self.blk_owed += 1;
                        }
                    }
                    Err(e) => self.ring_refused(dom, e),
                }
            }
            for &(sector, pfn) in &pages {
                if self.write_page(tr, dom, sector, pfn, Instant::now(), false, None) {
                    self.blk_owed += 1;
                }
            }
        }
        for io in std::mem::take(&mut self.io) {
            let sector = self.rng.below(SECTOR_SPAN) * 8;
            if self.write_page(
                tr,
                io.dom,
                sector,
                WARM_PFN,
                Instant::now(),
                false,
                io.first_io,
            ) {
                self.blk_owed += 1;
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn write_page(
        &mut self,
        tr: &mut Tracer,
        dom: DomId,
        sector: u64,
        pfn: u64,
        t0: Instant,
        across: bool,
        first_io: Option<Instant>,
    ) -> bool {
        let p = &mut self.p;
        let span = if across { S::Retransmit } else { S::BlkSubmit };
        match tr.span(span, || p.blk_write_page(dom, sector, pfn)) {
            Ok(id) => {
                let rec = BlkRec {
                    op: BlkOp::Write,
                    sector,
                    count: 8,
                    pfn: Some(pfn),
                    t0,
                    across,
                    first_io,
                };
                self.push_blk(dom, id, rec);
            }
            Err(e) => {
                self.ring_refused(dom, e);
                return false;
            }
        }
        if !self.rx_doms.contains(&dom) {
            self.rx_doms.push(dom);
        }
        true
    }

    fn complete_blk(&mut self, tr: &mut Tracer) {
        tr.begin(Op::BlkReq);
        let p = &mut self.p;
        if tr.on {
            for bb in p.blkbacks.iter_mut() {
                let s = tr.span(S::BlkbackProcess, || bb.process(&mut p.blk_hub));
                self.cur.blk_errors += s.errors;
            }
        } else {
            self.cur.blk_errors += p.process_blkbacks().errors;
        }
        for k in 0..self.rx_doms.len() {
            let dom = self.rx_doms[k];
            loop {
                let p = &mut self.p;
                let Some(resp) = tr.span(S::BlkPoll, || p.blk_poll(dom)) else {
                    break;
                };
                let t = Instant::now();
                self.on_blk(dom, &resp, t);
            }
        }
    }

    fn on_blk(&mut self, dom: DomId, resp: &BlkResponse, t: Instant) {
        let Some(rec) = self.blk.remove(&(dom.0, resp.id)) else {
            self.checks.fail(Check::BlkCompletesOk, || {
                format!("unknown completion {} for {dom}", resp.id)
            });
            return;
        };
        if resp.status != BlkStatus::Ok {
            self.checks.fail(Check::BlkCompletesOk, || {
                format!("{dom} request {} failed", resp.id)
            });
            return;
        }
        self.cur.blk_done += 1;
        self.blk_owed = self.blk_owed.saturating_sub(1);
        let ns = t.duration_since(rec.t0).as_nanos() as u64;
        if rec.across {
            self.m.win().across.record(ns);
        } else {
            self.m.win().blk.record(ns);
        }
        if let Some(t0) = rec.first_io {
            self.m
                .win()
                .first_io
                .record(t.duration_since(t0).as_nanos() as u64);
        }
    }

    // ---------------- microreboots ----------------

    fn inject_restarts(&mut self, tr: &mut Tracer, now: u64) {
        let due = self.engine.due(now);
        if due.is_empty() {
            return;
        }
        tr.begin(Op::AcrossRestart);
        for shard in due {
            let (engine, p) = (&mut self.engine, &mut self.p);
            let t0 = Instant::now();
            let r = tr.span(S::RestartEngine, || engine.restart(p, shard));
            let ns = t0.elapsed().as_nanos() as u64;
            let k = usize::from(shard != self.shards()[0]);
            self.m.win().restart_ns[k].push(ns);
            let out = match r {
                Ok(o) => o,
                Err(e) => {
                    self.checks
                        .fail(Check::RestartCounts, || format!("restart {shard}: {e:?}"));
                    continue;
                }
            };
            self.cur.restarts += 1;
            self.cur.pages_restored += out.pages_restored;
            if self.p.services.netbacks.contains(&shard) {
                self.retransmit_frames(tr, shard, out.requests_lost);
            } else {
                self.retransmit_blk(tr, shard, out.requests_lost);
            }
        }
    }

    /// Frames still in tx rings of `shard`'s guests were dropped by the
    /// detach; their frontends send them again.
    fn retransmit_frames(&mut self, tr: &mut Tracer, shard: DomId, reported: usize) {
        let mut lost = Vec::new();
        for ix in 0..self.frames.len() {
            let rec = self.frames[ix];
            if rec.acked || rec.lost {
                continue;
            }
            if self.p.guest(rec.src).and_then(|h| h.netback) == Some(shard) {
                self.frames[ix].lost = true;
                lost.push(rec);
            }
        }
        if lost.len() != reported {
            self.checks.fail(Check::FrameExactlyOnce, || {
                format!(
                    "restart dropped {reported} frames, harness lost {}",
                    lost.len()
                )
            });
        }
        self.cur.lost_frames += lost.len() as u64;
        let mut k = 0;
        while k < lost.len() {
            let r = lost[k];
            if r.pfn.is_some() {
                self.sizes.clear();
                self.send(tr, r.src, r.dst, r.flow, r.pfn, r.t0, true);
                k += 1;
                continue;
            }
            // Consecutive frames of one flow go back out as one batch.
            self.sizes.clear();
            let mut j = k;
            while j < lost.len()
                && lost[j].pfn.is_none()
                && lost[j].src == r.src
                && lost[j].flow == r.flow
                && lost[j].t0 == r.t0
            {
                self.sizes.push(lost[j].bytes);
                j += 1;
            }
            self.send(tr, r.src, r.dst, r.flow, None, r.t0, true);
            k = j;
        }
    }

    /// Block requests the detach dropped come back from each frontend's
    /// `reconnect` and are submitted again.
    fn retransmit_blk(&mut self, tr: &mut Tracer, shard: DomId, reported: usize) {
        let mut doms: Vec<u32> = self.blk.keys().map(|&(d, _)| d).collect();
        doms.sort_unstable();
        doms.dedup();
        let mut total = 0;
        for d in doms {
            let dom = DomId(d);
            let Some(h) = self.p.guest(dom) else { continue };
            if h.blkback != Some(shard) {
                continue;
            }
            let Some(conn) = h.blkfront.as_ref().map(|f| f.conn) else {
                continue;
            };
            let retry = self
                .p
                .guest_mut(dom)
                .and_then(|h| h.blkfront.as_mut())
                .map(|f| f.reconnect(conn))
                .unwrap_or_default();
            total += retry.len();
            self.ops.clear();
            let mut batch = Vec::new();
            for req in retry {
                let Some(rec) = self.blk.remove(&(d, req.id)) else {
                    self.checks.fail(Check::BlkCompletesOk, || {
                        format!("frontend retried unknown request {}", req.id)
                    });
                    continue;
                };
                self.cur.lost_blk += 1;
                if self.fault == Fault::SkipRetransmit && !self.fault_spent {
                    self.fault_spent = true;
                    continue;
                }
                match rec.pfn {
                    Some(pfn) => {
                        self.write_page(tr, dom, rec.sector, pfn, rec.t0, true, rec.first_io);
                    }
                    None => {
                        self.ops.push((rec.op, rec.sector, rec.count));
                        batch.push(rec);
                    }
                }
            }
            if batch.is_empty() {
                continue;
            }
            let (p, ops) = (&mut self.p, &self.ops);
            match tr.span(S::Retransmit, || p.blk_submit_batch(dom, ops)) {
                Ok(ids) => {
                    for (id, rec) in ids.into_iter().zip(batch) {
                        self.push_blk(
                            dom,
                            id,
                            BlkRec {
                                across: true,
                                ..rec
                            },
                        );
                    }
                }
                Err(e) => self.ring_refused(dom, e),
            }
        }
        if total != reported {
            self.checks.fail(Check::BlkCompletesOk, || {
                format!("restart dropped {reported} requests, frontends retried {total}")
            });
        }
    }

    // ---------------- checks ----------------

    /// Compares this round's sampled clones with their templates. It
    /// runs after every first I/O has completed, and its host time is
    /// left out of the windows, so it is in no latency sample.
    fn compare_subtrees(&mut self) {
        if self.subtree_due.is_empty() {
            return;
        }
        let c0 = Instant::now();
        for (dom, f) in std::mem::take(&mut self.subtree_due) {
            let (tree, repeats) = subtree(&mut self.p, self.ts.dom, dom);
            self.m.xs_dir_repeats += repeats;
            if tree != self.tpl_tree[f] {
                let tpl = self.templates[f];
                self.checks.fail(Check::CloneSubtree, || {
                    format!("clone {dom} subtree differs from template {tpl}")
                });
            }
        }
        self.m.check_ns += c0.elapsed().as_nanos() as u64;
    }

    fn end_of_round(&mut self) {
        let stranded = self.frames.iter().filter(|r| r.stranded()).count();
        if stranded > 0 {
            let r = self
                .frames
                .iter()
                .find(|r| r.stranded())
                .copied()
                .expect("counted above");
            self.checks.fail(Check::FrameExactlyOnce, || {
                format!(
                    "{stranded} frames neither delivered nor counted lost \
                     (first: {} -> {} flow {:#x}, acked {}, delivered {})",
                    r.src, r.dst, r.flow, r.acked, r.delivered
                )
            });
        }
        if !self.blk.is_empty() || self.blk_owed != 0 {
            let (left, owed) = (self.blk.len(), self.blk_owed);
            self.checks.fail(Check::BlkCompletesOk, || {
                format!("{left} requests outstanding, {owed} never completed")
            });
            self.blk.clear();
            self.blk_owed = 0;
        }
        self.frames.clear();
        self.frame_ix.clear();
    }

    /// The end-of-run checks: audit chain, restart-count agreement,
    /// spec divergences. Run after the harvest.
    pub fn final_checks(&mut self) {
        let now = self.p.now_ns();
        match self.fault {
            Fault::TamperAudit => {
                let forged = AuditEvent::VmDestroyed {
                    guest: self.fleet[0],
                };
                self.p
                    .audit
                    .append_composed(now, forged, "{\"forged\":true}");
            }
            Fault::PhantomRestart => {
                let shard = self.shards()[0];
                self.p.audit.append(
                    now,
                    AuditEvent::ShardRestarted {
                        shard,
                        pages_restored: 0,
                    },
                );
            }
            _ => {}
        }
        if let Err(seq) = self.p.audit.verify_chain() {
            self.checks
                .fail(Check::AuditChain, || format!("audit chain breaks at {seq}"));
        }
        let engine = self.engine.total_restarts();
        let rollbacks: u64 = self
            .shards()
            .iter()
            .map(|&s| self.p.hv.rollback_count(s))
            .sum();
        let audited: u64 = self
            .shards()
            .iter()
            .map(|&s| self.p.audit.restart_count(s))
            .sum();
        if engine != rollbacks || engine != audited || engine != self.m.all.restarts {
            let harness = self.m.all.restarts;
            self.checks.fail(Check::RestartCounts, || {
                format!(
                    "restarts: engine {engine}, rollbacks {rollbacks}, audit {audited}, \
                     harness {harness}"
                )
            });
        }
        if let Some(d) = self.spec.as_ref().and_then(|h| h.divergence()) {
            self.checks.fail(Check::SpecDivergence, || {
                format!("{}: {}", d.rule, d.detail)
            });
        }
    }

    /// The end-of-run dedup harvest; returns frames reclaimed.
    pub fn harvest(&mut self, tr: &mut Tracer) -> u64 {
        tr.begin(Op::Harvest);
        let p = &mut self.p;
        let t0 = Instant::now();
        let reclaimed = tr.span(S::MemDedup, || p.dedup_memory());
        self.m.harvest_ns = t0.elapsed().as_nanos() as u64;
        tr.end();
        if self.fault == Fault::StaleHash {
            let body = vec![0xa5u8; 4096];
            self.p
                .hv
                .mem
                .write(self.fleet[0], Pfn(DATA_PFN), &body)
                .expect("fleet page");
        }
        let pending = self.p.hv.mem.pending_rehash();
        if pending != 0 {
            self.checks.fail(Check::PendingRehash, || {
                format!("{pending} frames carry stale hashes after the harvest")
            });
        }
        reclaimed
    }
}

/// `dom`'s XenStore home as sorted (relative path, value) pairs, with
/// `dom`'s id normalised so a clone compares equal to its template, and
/// the number of children `directory` listed twice. The per-instance
/// `name` node and the `device-setup` nodes the harness writes itself
/// are left out.
///
/// `XenStoreLogic::directory` lists a child twice when a sibling's name
/// extends it with a byte that sorts below `/` (`device` beside
/// `device-setup`); see README, "Found, not fixed". The walk visits each
/// child once and counts the repeats.
fn subtree(p: &mut Platform, actor: DomId, dom: DomId) -> (Vec<(String, String)>, u64) {
    let root = format!("/local/domain/{}", dom.0);
    let id = dom.0.to_string();
    let mut out = Vec::new();
    let mut repeats = 0;
    let mut stack = vec![String::new()];
    while let Some(rel) = stack.pop() {
        let node = if rel.is_empty() {
            root.clone()
        } else {
            format!("{root}/{rel}")
        };
        if rel == SETUP_DIR || rel.starts_with(&format!("{SETUP_DIR}/")) {
            continue;
        }
        if !rel.is_empty() && rel != "name" {
            if let Ok(v) = p.xs.read_str(actor, &node) {
                let v = if v == id {
                    "{dom}".to_string()
                } else {
                    v.replace(&format!("/{id}/"), "/{dom}/")
                };
                out.push((rel.clone(), v));
            }
        }
        let mut children = p.xs.directory(actor, &node).unwrap_or_default();
        let listed = children.len();
        children.sort_unstable();
        children.dedup();
        repeats += (listed - children.len()) as u64;
        for child in children {
            stack.push(if rel.is_empty() {
                child
            } else {
                format!("{rel}/{child}")
            });
        }
    }
    out.sort();
    (out, repeats)
}

/// Cumulative Zipf(`alpha`) probabilities over ranks `0..n`.
fn zipf_cdf(n: usize, alpha: f64) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (1..=n)
        .map(|k| {
            acc += (k as f64).powf(-alpha);
            acc
        })
        .collect();
    for q in &mut cdf {
        *q /= acc;
    }
    cdf
}
