//! Host-time spans around the calls the benchmark makes into each layer.
//!
//! A traced run alternates traced and untraced rounds. Every round times
//! its operation *scopes* (the contiguous stretch of a round that serves
//! one operation class); traced rounds also time each call into a layer
//! as a leaf span under the open scope. A leaf's self time is its whole
//! duration (nothing inside it is split further); a scope's self time is
//! the residual its leaves do not cover. Untraced rounds give the scope
//! totals the tracing overhead is measured against.

use std::io::Write;
use std::time::Instant;

/// The operation classes spans are attributed to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    NetFrame,
    BlkReq,
    AcrossRestart,
    CloneFirstIo,
    XsTxn,
    Destroy,
    Harvest,
}

impl Op {
    pub const ALL: [Op; 7] = [
        Op::NetFrame,
        Op::BlkReq,
        Op::AcrossRestart,
        Op::CloneFirstIo,
        Op::XsTxn,
        Op::Destroy,
        Op::Harvest,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Op::NetFrame => "net_frame",
            Op::BlkReq => "blk_req",
            Op::AcrossRestart => "across_restart",
            Op::CloneFirstIo => "clone_first_io",
            Op::XsTxn => "xs_txn",
            Op::Destroy => "destroy",
            Op::Harvest => "harvest",
        }
    }
}

/// One public call into a layer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum S {
    NetTx,
    NetRx,
    BlkSubmit,
    BlkPoll,
    WireDrain,
    NetbackProcess,
    FabricSwitch,
    FabricFlow,
    HvNotify,
    BlkbackProcess,
    RestartEngine,
    Retransmit,
    XsHandle,
    XsLogicRestart,
    ToolstackList,
    ToolstackClone,
    ToolstackDestroy,
    MemWrite,
    MemDedup,
}

impl S {
    pub const ALL: [S; 19] = [
        S::NetTx,
        S::NetRx,
        S::BlkSubmit,
        S::BlkPoll,
        S::WireDrain,
        S::NetbackProcess,
        S::FabricSwitch,
        S::FabricFlow,
        S::HvNotify,
        S::BlkbackProcess,
        S::RestartEngine,
        S::Retransmit,
        S::XsHandle,
        S::XsLogicRestart,
        S::ToolstackList,
        S::ToolstackClone,
        S::ToolstackDestroy,
        S::MemWrite,
        S::MemDedup,
    ];

    /// The public function the span wraps.
    pub fn name(self) -> &'static str {
        match self {
            S::NetTx => "Platform::net_transmit_*",
            S::NetRx => "Platform::net_receive",
            S::BlkSubmit => "Platform::blk_submit_batch/blk_write_page",
            S::BlkPoll => "Platform::blk_poll",
            S::WireDrain => "WireEndpoint::take_outbound",
            S::NetbackProcess => "NetBack::process_with_fabric",
            S::FabricSwitch => "Fabric::switch",
            S::FabricFlow => "Platform::fabric_open/close_flow",
            S::HvNotify => "Hypervisor::hypercall(Multicall[EvtchnSend])",
            S::BlkbackProcess => "BlkBack::process",
            S::RestartEngine => "RestartEngine::restart",
            S::Retransmit => "frontend retransmit",
            S::XsHandle => "XenStore::handle",
            S::XsLogicRestart => "XenStore::restart_logic",
            S::ToolstackList => "Toolstack::list",
            S::ToolstackClone => "Toolstack::clone",
            S::ToolstackDestroy => "Toolstack::destroy",
            S::MemWrite => "MemoryManager::write",
            S::MemDedup => "Platform::dedup_memory",
        }
    }

    /// The layer (module) the span's self time is charged to.
    pub fn layer(self) -> &'static str {
        match self {
            S::NetTx | S::NetRx | S::BlkSubmit | S::BlkPoll | S::WireDrain | S::Retransmit => {
                "core::platform"
            }
            // `Toolstack::clone` cannot be split from outside; its self
            // time is mostly `Platform::clone_guest`.
            S::ToolstackClone => "core::platform",
            S::NetbackProcess => "devices::net",
            S::FabricSwitch | S::FabricFlow => "devices::fabric",
            S::HvNotify => "hypervisor::hypercall",
            S::BlkbackProcess => "devices::blk",
            S::RestartEngine => "core::restart",
            S::XsHandle | S::XsLogicRestart => "xenstore",
            S::ToolstackList | S::ToolstackDestroy => "core::toolstack",
            S::MemWrite | S::MemDedup => "hypervisor::memory",
        }
    }
}

/// Accumulated host time and count.
#[derive(Clone, Copy, Default, Debug)]
pub struct Acc {
    pub ns: u64,
    pub n: u64,
}

impl Acc {
    fn add(&mut self, ns: u64) {
        self.ns += ns;
        self.n += 1;
    }
}

/// Raw span, kept in memory and written out at exit.
struct Raw {
    span: &'static str,
    op: Op,
    id: u64,
    parent: u64,
    start: u64,
    end: u64,
}

/// Raw spans kept per run; the aggregates cover every span regardless.
const RAW_CAP: usize = 200_000;

struct Scope {
    op: Op,
    id: u64,
    start: Instant,
    child_ns: u64,
}

/// The span recorder. Disabled, every call is one branch.
pub struct Tracer {
    enabled: bool,
    /// Leaf spans are recorded (this round is traced).
    pub on: bool,
    epoch: Instant,
    scope: Option<Scope>,
    next_id: u64,
    leaf: Vec<[Acc; S::ALL.len()]>,
    /// Per-op residual (scope self time) in traced rounds.
    pub residual: [Acc; Op::ALL.len()],
    /// Per-op scope totals in traced / untraced rounds.
    pub total_traced: [Acc; Op::ALL.len()],
    pub total_plain: [Acc; Op::ALL.len()],
    raw: Vec<Raw>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            on: false,
            epoch: Instant::now(),
            scope: None,
            next_id: 1,
            leaf: vec![[Acc::default(); S::ALL.len()]; Op::ALL.len()],
            residual: [Acc::default(); Op::ALL.len()],
            total_traced: [Acc::default(); Op::ALL.len()],
            total_plain: [Acc::default(); Op::ALL.len()],
            raw: Vec::new(),
        }
    }

    /// Sets whether the next round records leaf spans.
    pub fn set_round(&mut self, traced: bool) {
        self.on = self.enabled && traced;
    }

    fn ns_since_epoch(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens an operation scope (closing any open one).
    #[inline]
    pub fn begin(&mut self, op: Op) {
        if !self.enabled {
            return;
        }
        self.end();
        let id = self.next_id;
        self.next_id += 1;
        self.scope = Some(Scope {
            op,
            id,
            start: Instant::now(),
            child_ns: 0,
        });
    }

    /// Closes the open scope.
    #[inline]
    pub fn end(&mut self) {
        let Some(s) = self.scope.take() else { return };
        let end = Instant::now();
        let dur = end.duration_since(s.start).as_nanos() as u64;
        let i = s.op as usize;
        if self.on {
            self.total_traced[i].add(dur);
            self.residual[i].add(dur.saturating_sub(s.child_ns));
            if self.raw.len() < RAW_CAP {
                let start = self.ns_since_epoch(s.start);
                self.raw.push(Raw {
                    span: "scope",
                    op: s.op,
                    id: s.id,
                    parent: 0,
                    start,
                    end: self.ns_since_epoch(end),
                });
            }
        } else {
            self.total_plain[i].add(dur);
        }
    }

    /// Runs `f` as a leaf span under the open scope.
    #[inline]
    pub fn span<R>(&mut self, s: S, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        let dur = t1.duration_since(t0).as_nanos() as u64;
        if let Some(scope) = self.scope.as_mut() {
            scope.child_ns += dur;
            let (op, parent) = (scope.op, scope.id);
            self.leaf[op as usize][s as usize].add(dur);
            if self.raw.len() < RAW_CAP {
                let id = self.next_id;
                self.next_id += 1;
                let start = self.ns_since_epoch(t0);
                self.raw.push(Raw {
                    span: s.name(),
                    op,
                    id,
                    parent,
                    start,
                    end: start + dur,
                });
            }
        }
        r
    }

    /// Leaf aggregate of `s` under `op` (traced rounds only).
    pub fn leaf(&self, op: Op, s: S) -> Acc {
        self.leaf[op as usize][s as usize]
    }

    /// Leaf aggregate of `s` over every op.
    pub fn leaf_all(&self, s: S) -> Acc {
        let mut a = Acc::default();
        for per_op in &self.leaf {
            a.ns += per_op[s as usize].ns;
            a.n += per_op[s as usize].n;
        }
        a
    }

    /// Writes the raw spans as TSV (`id parent op span start_ns end_ns`).
    pub fn write_raw(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\top\tspan\tstart_ns\tend_ns")?;
        for r in &self.raw {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                r.id,
                r.parent,
                r.op.name(),
                r.span,
                r.start,
                r.end
            )?;
        }
        out.flush()
    }
}
