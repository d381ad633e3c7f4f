//! The traced run: the same state machines the daemons wrap, in one
//! thread with no sockets, with this file as the router.
//!
//! One `NamespaceServer`, the workload's `StorageProvider`s and one
//! `SorrentoClient` over a `ScriptedWorkload` each get their own
//! `RealCtx`. The router drains every outbox, fires due timers, and for
//! every message crossing between two nodes encodes it with
//! `encode_msg_into`, decodes it with a `StreamDecoder` and delivers the
//! *decoded* message — what the wire would deliver. Around each of those
//! three calls it records a span, in memory, written out at exit.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use sorrento::client::{ClientOp, SorrentoClient};
use sorrento::cluster::ScriptedWorkload;
use sorrento::namespace::NamespaceServer;
use sorrento::proto::{self, Msg};
use sorrento::provider::StorageProvider;
use sorrento::Transport;
use sorrento_json::Json;
use sorrento_net::frame::{self, Frame, StreamDecoder};
use sorrento_net::pool::BufPool;
use sorrento_net::runtime::{Out, RealCtx};
use sorrento_sim::NodeId;

use crate::cluster;
use crate::probes::Values;
use crate::workloads::{ClientGen, Content, Expect, PhaseKind, Shape, Workload};

/// The handlers reported one by one: `(layer, message kind, metric)`.
const HANDLERS: [(&str, &str, &str); 16] = [
    ("namespace", "ns_create", "namespace.handle.ns_create_us"),
    ("namespace", "ns_lookup", "namespace.handle.ns_lookup_us"),
    (
        "namespace",
        "commit_begin",
        "namespace.handle.commit_begin_us",
    ),
    ("namespace", "commit_end", "namespace.handle.commit_end_us"),
    ("namespace", "ns_list", "namespace.handle.ns_list_us"),
    ("namespace", "ns_mkdir", "namespace.handle.ns_mkdir_us"),
    ("namespace", "ns_rename", "namespace.handle.ns_rename_us"),
    (
        "provider",
        "create_shadow",
        "provider.handle.create_shadow_us",
    ),
    (
        "provider",
        "write_shadow",
        "provider.handle.write_shadow_us",
    ),
    ("provider", "prepare", "provider.handle.prepare_us"),
    ("provider", "commit", "provider.handle.commit_us"),
    ("provider", "read_seg", "provider.handle.read_seg_us"),
    ("provider", "loc_query", "provider.handle.loc_query_us"),
    ("provider", "loc_upsert", "provider.handle.loc_upsert_us"),
    ("provider", "heartbeat", "provider.handle.heartbeat_us"),
    ("provider", "tick", "provider.handle.tick_us"),
];

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `frame`, `namespace`, `provider` or `client`.
    pub layer: &'static str,
    /// `encode` / `decode` for `frame`; `handle.<msg kind>` otherwise;
    /// `op.<op kind>` for the root span of a client op.
    pub what: &'static str,
    /// For handler and codec spans, the message kind.
    pub kind: &'static str,
    /// Node the work ran on.
    pub node: u32,
    /// Nanoseconds since the router started.
    pub start_ns: u64,
    /// Nanoseconds since the router started.
    pub end_ns: u64,
    /// The client op's span id the work belongs to (0 = background:
    /// heartbeats, provider ticks).
    pub op: u64,
    /// Index of the op's root span, if the op has ended by write-out.
    pub parent: Option<u32>,
}

/// What one router run produced.
pub struct Replay {
    /// Every span, in start order (empty when tracing was off).
    pub spans: Vec<Span>,
    /// Wall seconds from the client's first op to its last.
    pub wall_s: f64,
    /// Client ops completed.
    pub ops: u64,
    /// Client ops that failed or read back the wrong bytes.
    pub failed: u64,
    /// Ops in the script.
    pub attempted: u64,
    /// Share of those ops that belong to phase W (the rest are phase R's).
    pub write_share: f64,
    /// Frames the client sent.
    pub client_msgs: u64,
    /// Encoded bytes of those frames.
    pub client_bytes: u64,
}

enum Machine {
    Namespace(Box<NamespaceServer>),
    Provider(Box<StorageProvider>),
    Client(Box<SorrentoClient>),
}

impl Machine {
    fn layer(&self) -> &'static str {
        match self {
            Machine::Namespace(_) => "namespace",
            Machine::Provider(_) => "provider",
            Machine::Client(_) => "client",
        }
    }

    fn start(&mut self, ctx: &mut RealCtx) {
        match self {
            Machine::Namespace(m) => m.handle_start(ctx),
            Machine::Provider(m) => m.handle_start(ctx),
            Machine::Client(m) => m.handle_start(ctx),
        }
    }

    fn handle(&mut self, from: NodeId, msg: Msg, ctx: &mut RealCtx) {
        match self {
            Machine::Namespace(m) => m.handle_message(from, msg, ctx),
            Machine::Provider(m) => m.handle_message(from, msg, ctx),
            Machine::Client(m) => m.handle_message(from, msg, ctx),
        }
    }
}

struct Node {
    ctx: RealCtx,
    machine: Machine,
}

/// The reduced script of `w` the router replays: phase W then phase R of
/// one client, small enough to finish in a second or two. Also returns
/// how many of the ops are phase W's.
fn reduced_script(w: &Workload, seed: u64) -> (Vec<ClientOp>, usize, Option<Expect>) {
    let (writes, reads) = match w.shape {
        Shape::SmallFile => (48, 48),
        Shape::Metadata => (32, 256),
        Shape::Stream => (
            w.probe_sessions(PhaseKind::Write),
            w.probe_sessions(PhaseKind::Read),
        ),
    };
    let content = Content::new(seed, w.file_len().max(64));
    let mut gen = ClientGen::new(w, 0, seed);
    let mut script = gen.write_script(&content, writes);
    let rd = gen.read_script(&content, reads);
    let last_read = rd
        .expect
        .iter()
        .rev()
        .find(|e| matches!(e, Expect::Data(_)))
        .cloned();
    let write_ops = script.ops.len();
    script.ops.extend(rd.ops);
    (script.ops, write_ops, last_read)
}

struct Router {
    nodes: Vec<Node>,
    queue: VecDeque<(usize, usize, Msg)>,
    pool: BufPool,
    epoch: Instant,
    traced: bool,
    spans: Vec<Span>,
    /// Span id of the client op in flight, and where its root span will
    /// go once it ends.
    cur_op: u64,
    op_started_ns: u64,
    op_first_span: usize,
    ops_seen: u64,
    client_msgs: u64,
    client_bytes: u64,
}

impl Router {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn client(&self) -> &SorrentoClient {
        match &self.nodes.last().expect("router has nodes").machine {
            Machine::Client(c) => c,
            _ => unreachable!("the client is the last node"),
        }
    }

    /// Move everything node `i` queued into the router's FIFO.
    fn pump(&mut self, i: usize) {
        for out in self.nodes[i].ctx.drain_outbox() {
            match out {
                Out::Unicast(dst, msg) => self.queue.push_back((i, dst.index(), msg)),
                Out::Multicast(msg) => {
                    for j in (0..self.nodes.len()).filter(|&j| j != i) {
                        self.queue.push_back((i, j, msg.clone()));
                    }
                }
            }
        }
    }

    fn record(
        &mut self,
        layer: &'static str,
        what: &'static str,
        kind: &'static str,
        node: usize,
        start_ns: u64,
        op: u64,
    ) {
        let end_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            what,
            kind,
            node: node as u32,
            start_ns,
            end_ns,
            op,
            parent: None,
        });
    }

    /// Hand `msg` to node `dst`'s state machine, then collect what it
    /// sent. Background traffic carries op 0.
    fn deliver(&mut self, from: usize, dst: usize, msg: Msg) {
        let kind = proto::dbg_kind(&msg);
        let is_client = dst + 1 == self.nodes.len();
        let background = !is_client && matches!(msg, Msg::Heartbeat(_) | Msg::Tick(_));
        let op = if background { 0 } else { self.cur_op };
        let t0 = if self.traced { self.now_ns() } else { 0 };
        let node = &mut self.nodes[dst];
        let layer = node.machine.layer();
        node.machine
            .handle(NodeId::from_index(from), msg, &mut node.ctx);
        if self.traced {
            self.record(layer, "handle", kind, dst, t0, op);
        }
        self.pump(dst);
        if is_client {
            self.note_client_progress();
        }
    }

    /// After the client ran: did an op end, did a new one start?
    fn note_client_progress(&mut self) {
        let (done, last_span, last_kind) = {
            let s = &self.client().stats;
            (
                s.completed_ops + s.failed_ops,
                s.last_span,
                s.latencies.last().map(|(k, _)| *k),
            )
        };
        if done > self.ops_seen {
            self.ops_seen = done;
            if self.traced && self.cur_op != 0 {
                let root = self.spans.len() as u32;
                let first = self.op_first_span;
                for s in &mut self.spans[first..] {
                    if s.op == self.cur_op {
                        s.parent = Some(root);
                    }
                }
                let client = self.nodes.len() - 1;
                self.record(
                    "client",
                    "op",
                    last_kind.unwrap_or("failed"),
                    client,
                    self.op_started_ns,
                    self.cur_op,
                );
            }
        }
        if last_span != self.cur_op {
            self.cur_op = last_span;
            self.op_started_ns = self.now_ns();
            self.op_first_span = self.spans.len();
        }
    }

    /// Carry one queued message from `src` to `dst`: through the codec
    /// when it crosses nodes, directly when a node messages itself.
    fn route(&mut self, src: usize, dst: usize, msg: Msg) -> io::Result<()> {
        if src == dst {
            self.deliver(src, dst, msg);
            return Ok(());
        }
        let kind = proto::dbg_kind(&msg);
        let op = self.cur_op;
        let t0 = if self.traced { self.now_ns() } else { 0 };
        let mut buf = self.pool.check_out();
        frame::encode_msg_into(&mut buf, NodeId::from_index(src), &msg);
        if self.traced {
            self.record("frame", "encode", kind, src, t0, op);
        }
        if src + 1 == self.nodes.len() {
            self.client_msgs += 1;
            self.client_bytes += buf.len() as u64;
        }
        let t0 = if self.traced { self.now_ns() } else { 0 };
        let mut decoded = Vec::with_capacity(1);
        StreamDecoder::new()
            .feed(&buf, &mut decoded)
            .map_err(|e| io::Error::other(format!("router frame does not decode: {e:?}")))?;
        if self.traced {
            self.record("frame", "decode", kind, dst, t0, op);
        }
        drop(buf);
        match decoded.pop() {
            Some((from, Frame::Msg(wire_msg))) => self.deliver(from.index(), dst, wire_msg),
            _ => return Err(io::Error::other("router frame decoded to no message")),
        }
        Ok(())
    }

    /// Fire every due timer on every node. Returns whether any fired.
    fn fire_timers(&mut self) -> bool {
        let mut fired = false;
        for i in 0..self.nodes.len() {
            for msg in self.nodes[i].ctx.due_timers() {
                fired = true;
                self.deliver(i, i, msg);
            }
        }
        fired
    }

    /// Sleep until the earliest timer of any node (a short spin when it
    /// is nearly due: the client's 150 µs hop between ops).
    fn idle(&self) {
        let wait_ns = self
            .nodes
            .iter()
            .filter_map(|n| Some(n.ctx.next_deadline()?.saturating_sub(n.ctx.now().nanos())))
            .min()
            .unwrap_or(1_000_000);
        if wait_ns > 300_000 {
            std::thread::sleep(Duration::from_nanos(wait_ns - 200_000));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Replay `w`'s reduced script through the in-thread router.
pub fn replay(w: &Workload, seed: u64, traced: bool) -> io::Result<Replay> {
    let costs = cluster::cost_model();
    let n = w.providers + 2;
    let client_idx = n - 1;
    let machines: HashMap<NodeId, u32> =
        (0..n).map(|i| (NodeId::from_index(i), i as u32)).collect();
    let ctx = |i: usize| {
        RealCtx::new(
            NodeId::from_index(i),
            900 + i as u64,
            8 << 30,
            machines.clone(),
        )
    };
    let (ops, write_ops, last_read) = reduced_script(w, seed);
    let attempted = ops.len() as u64;

    let mut nodes = vec![Node {
        ctx: ctx(0),
        machine: Machine::Namespace(Box::new(NamespaceServer::new(costs))),
    }];
    for i in 1..=w.providers {
        let provider = StorageProvider::new(costs, 2).with_rack(i as u32);
        nodes.push(Node {
            ctx: ctx(i),
            machine: Machine::Provider(Box::new(provider)),
        });
    }
    let mut client = SorrentoClient::new(
        NodeId::from_index(0),
        costs,
        Box::new(ScriptedWorkload::new(ops)),
    );
    client.default_options.replication = w.replication();
    if w.pipelined() {
        client.write_chunk = Some(256 * 1024);
        client.write_window = 4;
    }
    nodes.push(Node {
        ctx: ctx(client_idx),
        machine: Machine::Client(Box::new(client)),
    });

    let mut r = Router {
        nodes,
        queue: VecDeque::new(),
        pool: BufPool::new(),
        epoch: Instant::now(),
        traced,
        spans: Vec::new(),
        cur_op: 0,
        op_started_ns: 0,
        op_first_span: 0,
        ops_seen: 0,
        client_msgs: 0,
        client_bytes: 0,
    };
    for i in 0..client_idx {
        let node = &mut r.nodes[i];
        node.machine.start(&mut node.ctx);
        r.pump(i);
    }

    let deadline = Instant::now() + Duration::from_secs(90);
    let mut client_started = false;
    loop {
        let mut progressed = r.fire_timers();
        while let Some((src, dst, msg)) = r.queue.pop_front() {
            progressed = true;
            r.route(src, dst, msg)?;
        }
        if !client_started && r.client().known_providers() >= w.providers {
            // Discovery done, as `ctl::run_script` waits for it.
            client_started = true;
            let node = &mut r.nodes[client_idx];
            node.machine.start(&mut node.ctx);
            r.pump(client_idx);
            r.note_client_progress();
            continue;
        }
        if r.client().stats.finished_at.is_some() {
            break;
        }
        if Instant::now() > deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "traced replay did not finish",
            ));
        }
        if !progressed {
            r.idle();
        }
    }

    let stats = &r.client().stats;
    let wall_s = match (stats.started_at, stats.finished_at) {
        (Some(a), Some(b)) => b.nanos().saturating_sub(a.nanos()) as f64 / 1e9,
        _ => 0.0,
    };
    let misread = match (&last_read, &stats.last_read) {
        (Some(Expect::Data(want)), Some(got)) => u64::from(want != got),
        (Some(_), None) => 1,
        _ => 0,
    };
    if stats.failed_ops + misread > 0 {
        eprintln!(
            "FAIL {} traced replay: {} ops failed (last error {:?}, spans {:x?}), {misread} misread",
            w.name, stats.failed_ops, stats.last_error, stats.failed_spans
        );
    }
    Ok(Replay {
        wall_s,
        ops: stats.completed_ops,
        failed: stats.failed_ops + misread,
        attempted,
        write_share: write_ops as f64 / attempted.max(1) as f64,
        client_msgs: r.client_msgs,
        client_bytes: r.client_bytes,
        spans: r.spans,
    })
}

/// Fold a traced replay — and, for the tracing overhead, an untraced one
/// of the same script — into the per-layer metrics.
pub fn aggregate(traced: &Replay, untraced: Option<&Replay>) -> Values {
    let ops = traced.ops.max(1) as f64;
    let mut values = Values::new();
    let mean_us = |layer: &str, kind: &str| {
        let (n, ns) = traced
            .spans
            .iter()
            .filter(|s| s.layer == layer && s.what == "handle" && s.kind == kind)
            .fold((0u64, 0u64), |(n, ns), s| {
                (n + 1, ns + (s.end_ns - s.start_ns))
            });
        if n == 0 {
            0.0
        } else {
            ns as f64 / 1e3 / n as f64
        }
    };
    for (layer, kind, name) in HANDLERS {
        values.push((name, mean_us(layer, kind)));
    }
    // Handler and codec spans never nest (one thread, one call at a
    // time), so a layer's self time is the sum of its spans; an op's
    // root span is excluded — it is the waiting around them.
    let self_us = |layer: &str| {
        traced
            .spans
            .iter()
            .filter(|s| s.layer == layer && s.what != "op")
            .map(|s| s.end_ns - s.start_ns)
            .sum::<u64>() as f64
            / 1e3
            / ops
    };
    let layers = [
        ("namespace.self_us_per_op", self_us("namespace")),
        ("provider.self_us_per_op", self_us("provider")),
        ("client.self_us_per_op", self_us("client")),
        ("frame.self_us_per_op", self_us("frame")),
    ];
    let cpu: f64 = layers.iter().map(|(_, v)| v).sum();
    values.extend(layers);
    values.push(("client.msgs_per_op", traced.client_msgs as f64 / ops));
    values.push(("client.bytes_per_op", traced.client_bytes as f64 / ops));
    values.push(("trace.cpu_us_per_op", cpu));
    let overhead = match untraced {
        Some(u) if u.wall_s > 0.0 => (traced.wall_s - u.wall_s) / u.wall_s * 100.0,
        _ => 0.0,
    };
    values.push(("trace.overhead_pct", overhead));
    values
}

/// Write the spans of one workload's traced replay as JSON.
pub fn write_spans(path: &Path, workload: &str, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut arr = Json::arr();
    for s in spans {
        let name = if s.layer == "frame" {
            format!("frame.{}", s.what)
        } else {
            format!("{}.{}.{}", s.layer, s.what, s.kind)
        };
        let mut j = Json::obj()
            .with("name", name.as_str())
            .with("kind", s.kind)
            .with("node", u64::from(s.node))
            .with("start_ns", s.start_ns)
            .with("end_ns", s.end_ns)
            .with("op", s.op);
        match s.parent {
            Some(p) => j.set("parent", u64::from(p)),
            None => j.set("parent", Json::Null),
        }
        arr.push(j);
    }
    let doc = Json::obj()
        .with("v", 1u64)
        .with("workload", workload)
        .with("spans", arr);
    std::fs::write(path, doc.encode())
}
