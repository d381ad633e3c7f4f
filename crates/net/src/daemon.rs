//! The Sorrento node daemon: one process per namespace server or
//! storage provider.
//!
//! The daemon wraps the same state machines the simulator drives in
//! the shared deadline-driven loop ([`crate::runtime::Driver`]): fire
//! due timers, feed inbound frames to `handle_message`, flush the
//! context's outbox through the TCP mesh. Two things the simulator
//! does not have:
//!
//! * **Stats interception** — `Msg::StatsQuery` is answered by the loop
//!   itself with the node's metrics registry as JSON; the state
//!   machines never see it (and the simulator never sends it), so
//!   runtime introspection cannot perturb protocol behavior.
//! * **The persistence deadline** — a provider with a `data_dir` gets
//!   a [`KvDisk`] attached, which its start reloads from. Every
//!   `PERSIST_EVERY` the loop asks it to persist what changed, and a
//!   clean stop persists and checkpoints once more; a kill does
//!   neither, so the disk keeps what the last deadline wrote.

use std::collections::HashMap;
use std::fs::OpenOptions;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sorrento::namespace::NamespaceServer;
use sorrento::nsmap::NsShardMap;
use sorrento::provider::StorageProvider;
use sorrento::proto::{self, Msg, Tick};
use sorrento::Transport;
use sorrento_json::Json;
use sorrento_sim::{NodeId, SpanId, TelemetryEvent};

use crate::chaos::ChaosConfig;
use crate::config::{DaemonConfig, Role};
use crate::disk::KvDisk;
use crate::flight;
use crate::runtime::{Driver, Node, RealCtx};
use crate::tcp::{Mesh, MeshConfig};

/// How often a provider persists the segments that changed.
const PERSIST_EVERY: Duration = Duration::from_millis(200);

/// Version of the `Msg::StatsR` snapshot payload (`"v"` key).
/// `sorrentoctl` refuses to interpret snapshots with a different
/// version.
pub const STATS_SCHEMA_V: u64 = 1;

/// Slowest message handlings retained for the stats snapshot.
const SLOW_OPS_KEPT: usize = 8;

/// The role-selected state machine.
enum Machine {
    Ns(Box<NamespaceServer>),
    Prov(Box<StorageProvider>),
}

/// One retained slow-op entry: how long this node spent handling one
/// span-carrying message (server-side work, not end-to-end latency).
#[derive(Clone, Copy)]
struct SlowOp {
    dur_ns: u64,
    span: SpanId,
    kind: &'static str,
    at_ns: u64,
}

/// Bounded worst-N table of message-handling durations, keyed to spans
/// so `sorrentoctl top` readers can jump straight to `trace <span>`.
struct SlowOps {
    worst: Vec<SlowOp>,
}

impl SlowOps {
    fn new() -> SlowOps {
        SlowOps { worst: Vec::with_capacity(SLOW_OPS_KEPT + 1) }
    }

    fn observe(&mut self, dur_ns: u64, span: SpanId, kind: &'static str, at_ns: u64) {
        if span == 0 {
            return;
        }
        self.worst.push(SlowOp { dur_ns, span, kind, at_ns });
        self.worst.sort_by_key(|o| std::cmp::Reverse(o.dur_ns));
        self.worst.truncate(SLOW_OPS_KEPT);
    }

    fn to_json(&self) -> Json {
        let mut arr = Json::arr();
        for op in &self.worst {
            arr.push(
                Json::obj()
                    .with("dur_us", op.dur_ns / 1_000)
                    .with("span", op.span)
                    .with("kind", op.kind)
                    .with("at_ns", op.at_ns),
            );
        }
        arr
    }
}

/// The daemon as the shared loop sees it: the role's state machine plus
/// what the loop answers itself.
struct Served {
    machine: Machine,
    role: &'static str,
    shard: Option<u32>,
    slow: SlowOps,
}

impl Served {
    /// The versioned stats snapshot: the metrics registry's export
    /// extended in place (existing consumers keep reading
    /// `counters`/`gauges` at the top level) with identity, uptime,
    /// flight-ring usage and the slow-op table.
    fn snapshot(&self, ctx: &mut RealCtx, mesh: &Mesh) -> Json {
        mesh.export_metrics(ctx.metrics());
        if let Machine::Prov(m) = &self.machine {
            let gauge = format!("{}.under_replicated", ctx.id());
            ctx.metrics().gauge_set(&gauge, m.under_replicated() as f64);
        }
        let uptime_ms = ctx.now().nanos() / 1_000_000;
        let (flight_len, flight_dropped) = ctx.flight().usage();
        let snap = ctx
            .metrics_ref()
            .to_json()
            .with("v", STATS_SCHEMA_V)
            .with("node", ctx.id().index() as u64)
            .with("role", self.role)
            .with("uptime_ms", uptime_ms)
            .with(
                "flight",
                Json::obj().with("len", flight_len as u64).with("dropped", flight_dropped),
            )
            .with("slow_ops", self.slow.to_json());
        match self.shard {
            Some(k) => snap.with("shard", u64::from(k)),
            None => snap,
        }
    }
}

impl Node for Served {
    fn handle(&mut self, from: NodeId, msg: Msg, ctx: &mut RealCtx) {
        match &mut self.machine {
            Machine::Ns(m) => m.handle_message(from, msg, ctx),
            Machine::Prov(m) => m.handle_message(from, msg, ctx),
        }
    }

    fn timer(&mut self, msg: Msg, ctx: &mut RealCtx, mesh: &mut Mesh) {
        // Satellite of the observability plane: refresh the mesh gauges
        // on every heartbeat tick — or, under swim membership, on the
        // gauge-export tick that replaces it — so a stats snapshot is
        // never staler than one period.
        if matches!(msg, Msg::Tick(Tick::Heartbeat | Tick::GaugeExport)) {
            mesh.export_metrics(ctx.metrics());
        }
        self.handle(ctx.id(), msg, ctx);
    }

    fn inbound(&mut self, from: NodeId, msg: Msg, ctx: &mut RealCtx, mesh: &mut Mesh) {
        match msg {
            Msg::StatsQuery { req } => {
                let json = self.snapshot(ctx, mesh).encode();
                mesh.send(from, &Msg::StatsR { req, json });
            }
            // Span tracing: serve the local flight ring (filtered to one
            // span, or whole-ring for span 0) straight from the loop;
            // like StatsQuery, the state machines never see it.
            Msg::TraceQuery { req, span } => {
                let json = ctx.flight().to_json(span).encode();
                mesh.send(from, &Msg::TraceR { req, json });
            }
            // Like StatsQuery, chaos control is answered by the loop
            // itself: fault injection lives in the mesh, and the state
            // machines never see (or depend on) it.
            Msg::ChaosCtl {
                req,
                seed,
                drop_permille,
                dup_permille,
                delay_permille,
                delay_us,
                partition,
            } => {
                mesh.set_chaos(Some(ChaosConfig {
                    seed,
                    drop_permille,
                    dup_permille,
                    delay_permille,
                    delay: Duration::from_micros(delay_us),
                    partition,
                }));
                mesh.send(from, &Msg::ChaosCtlR { req });
            }
            msg => {
                let (span, kind) = (proto::span_of(&msg), proto::dbg_kind(&msg));
                ctx.record(TelemetryEvent::MsgRecv { span, kind, from });
                let t0 = Instant::now();
                self.handle(from, msg, ctx);
                self.slow.observe(t0.elapsed().as_nanos() as u64, span, kind, ctx.now().nanos());
            }
        }
    }
}

/// A handle to an in-process daemon (integration tests, embedding).
pub struct DaemonHandle {
    /// The daemon's node id.
    pub node: NodeId,
    /// The address it actually listens on.
    pub addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    abrupt: Arc<AtomicBool>,
    join: Option<JoinHandle<io::Result<()>>>,
}

impl DaemonHandle {
    /// Request shutdown and wait for the loop to exit cleanly
    /// (final segment persistence included).
    pub fn stop(mut self) -> io::Result<()> {
        self.shut_down()
    }

    /// Kill the daemon as a crash stand-in: the loop exits without the
    /// final persist or checkpoint, so on-disk state is whatever the
    /// last periodic persist wrote — exactly what a
    /// `SIGKILL`'d process would leave behind. Recovery drills restart
    /// a killed provider on the same `data_dir` and assert the cluster
    /// converges.
    pub fn kill(mut self) -> io::Result<()> {
        self.abrupt.store(true, Ordering::SeqCst);
        self.shut_down()
    }

    /// Raise the flag and join the loop (it looks at the flag at least
    /// every [`crate::runtime::IDLE_BACKSTOP`]).
    fn shut_down(&mut self) -> io::Result<()> {
        self.shutdown.store(true, Ordering::SeqCst);
        match self.join.take() {
            Some(j) => j.join().unwrap_or(Ok(())),
            None => Ok(()),
        }
    }
}

impl Drop for DaemonHandle {
    fn drop(&mut self) {
        let _ = self.shut_down();
    }
}

/// Start a daemon on a background thread, binding its configured
/// listen address.
pub fn spawn(cfg: DaemonConfig) -> io::Result<DaemonHandle> {
    let listener = TcpListener::bind(&cfg.listen)?;
    spawn_with_listener(cfg, listener)
}

/// Start a daemon on an already-bound listener (lets a test bind port 0
/// everywhere first and hand out real addresses in peer lists).
pub fn spawn_with_listener(cfg: DaemonConfig, listener: TcpListener) -> io::Result<DaemonHandle> {
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let abrupt = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    let abrupt_flag = Arc::clone(&abrupt);
    let node = cfg.node_id;
    let join = std::thread::Builder::new()
        .name(format!("sorrento-node-{}", node.index()))
        .spawn(move || run_loop(cfg, listener, flag, abrupt_flag))?;
    Ok(DaemonHandle { node, addr, shutdown, abrupt, join: Some(join) })
}

/// Run a daemon on the calling thread until `shutdown` is set.
pub fn run(cfg: DaemonConfig, shutdown: Arc<AtomicBool>) -> io::Result<()> {
    let listener = TcpListener::bind(&cfg.listen)?;
    run_loop(cfg, listener, shutdown, Arc::new(AtomicBool::new(false)))
}

fn resolve(addr: &str) -> Option<SocketAddr> {
    addr.to_socket_addrs().ok()?.next()
}

fn run_loop(
    cfg: DaemonConfig,
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
    abrupt: Arc<AtomicBool>,
) -> io::Result<()> {
    let me = cfg.node_id;
    let mut machines: HashMap<NodeId, u32> =
        cfg.peers.iter().map(|p| (p.id, p.machine)).collect();
    machines.insert(me, cfg.machine);
    let ctx = RealCtx::new(me, cfg.seed, cfg.capacity, machines);

    let role_str = match cfg.role {
        Role::Namespace => "namespace",
        Role::Standby => "standby",
        Role::Provider => "provider",
    };
    // The namespace shard this node serves, of how many.
    let shard = match cfg.role {
        Role::Provider => None,
        _ => {
            let absent = || io::Error::other("a namespace node absent from ns_map");
            Some(cfg.shard().ok_or_else(absent)?)
        }
    };
    let flight = ctx.flight();
    flight.set_role(role_str);
    if let Some(dir) = &cfg.data_dir {
        // Crash paths (panic hook, `--crash-after` abort) flush every
        // registered black box; see `flight::dump_all`.
        flight::register(&flight, dir);
    }

    let seed_peers: HashMap<NodeId, SocketAddr> = cfg
        .peers
        .iter()
        .filter_map(|p| Some((p.id, resolve(&p.addr)?)))
        .collect();
    let mut mesh = Mesh::start(me, listener, seed_peers, MeshConfig)?;
    mesh.set_flight(flight.clone());
    if cfg.chaos.is_active() {
        mesh.set_chaos(Some(cfg.chaos.clone()));
    }

    let machine = match cfg.role {
        Role::Namespace if !cfg.ns_map.is_empty() => {
            let (k, n) = shard.expect("checked above: a namespace node has a shard");
            let mut ns = NamespaceServer::new_sharded(cfg.costs, k, n);
            install_ns_plane(&mut ns, &cfg, k);
            Machine::Ns(Box::new(ns))
        }
        Role::Namespace => {
            let mut ns = NamespaceServer::new(cfg.costs);
            ns.set_checkpoint_every_batches(cfg.ns_checkpoint_batches);
            Machine::Ns(Box::new(ns))
        }
        Role::Standby => {
            let (k, n) = shard.expect("checked above: a namespace node has a shard");
            let mut ns = NamespaceServer::new_standby(cfg.costs, k, n);
            install_ns_plane(&mut ns, &cfg, k);
            Machine::Ns(Box::new(ns))
        }
        Role::Provider => {
            // In swim mode the seed list is every configured peer; the
            // detector probes them all, and non-providers (namespace,
            // standby) passively ack pings without ever gossiping a
            // heartbeat payload, so they never enter the membership view.
            let seeds: Vec<NodeId> = cfg.peers.iter().map(|p| p.id).collect();
            let mut prov = StorageProvider::new(cfg.costs, 2).with_rack(cfg.rack);
            prov.set_membership(cfg.membership, seeds);
            if let Some(dir) = &cfg.data_dir {
                prov.attach_disk(Box::new(KvDisk::open(dir)?));
            }
            Machine::Prov(Box::new(prov))
        }
    };

    let shard = shard.map(|(k, _)| k);
    let mut node = Served { machine, role: role_str, shard, slow: SlowOps::new() };
    let mut driver = Driver::new(ctx, mesh);
    match &mut node.machine {
        Machine::Ns(m) => m.handle_start(&mut driver.ctx),
        Machine::Prov(m) => m.handle_start(&mut driver.ctx),
    }

    // Opt-in periodic snapshot writer: one compact JSON line per
    // interval, appended so a restart keeps extending the series.
    let mut metrics_log = match (cfg.metrics_interval_ms, &cfg.data_dir) {
        (Some(ms), Some(dir)) => {
            std::fs::create_dir_all(dir)?;
            let file = OpenOptions::new().create(true).append(true).open(dir.join("metrics.jsonl"))?;
            let every = Duration::from_millis(ms);
            Some((every, file, Instant::now() + every))
        }
        _ => None,
    };

    // Housekeeping deadlines bound the loop's wait like timers do.
    let persists = matches!(node.machine, Machine::Prov(_)) && cfg.data_dir.is_some();
    let mut next_persist = persists.then(|| Instant::now() + PERSIST_EVERY);
    while !shutdown.load(Ordering::SeqCst) {
        let next_metrics = metrics_log.as_ref().map(|(_, _, at)| *at);
        driver.turn(&mut node, [next_persist, next_metrics].into_iter().flatten().min());
        let now = Instant::now();
        if let (Some(at), Machine::Prov(prov)) = (next_persist, &mut node.machine) {
            if now >= at {
                next_persist = Some(now + PERSIST_EVERY);
                prov.persist()?;
            }
        }
        if let Some((every, file, at)) = &mut metrics_log {
            if now >= *at {
                *at = now + *every;
                let snap = node.snapshot(&mut driver.ctx, &driver.mesh);
                let _ = writeln!(file, "{}", snap.encode());
            }
        }
    }

    // An abrupt (crash-drill) exit skips the final persist and
    // checkpoint: on-disk state stays at whatever the last deadline wrote.
    if !abrupt.load(Ordering::SeqCst) {
        if let Machine::Prov(prov) = &mut node.machine {
            prov.persist()?;
            prov.checkpoint()?;
        }
    }
    // The flight recorder is the black box: it dumps on both clean and
    // abrupt exits (out-of-process crashes dump via the panic/abort
    // hooks instead — see `sorrento-node`).
    if let Some(dir) = &cfg.data_dir {
        let _ = flight.dump_to(dir);
    }
    driver.mesh.shutdown();
    Ok(())
}

/// Install the shard map, standby link and checkpoint knob a sharded
/// (or standby) namespace machine serving `shard` needs before
/// `handle_start` runs.
fn install_ns_plane(ns: &mut NamespaceServer, cfg: &DaemonConfig, shard: u32) {
    if !cfg.ns_map.is_empty() {
        ns.set_shard_map(NsShardMap::from_rows(cfg.ns_map.clone()));
        if cfg.role == Role::Namespace {
            if let Some(standby) = cfg.ns_map.get(shard as usize).and_then(|r| r.standby) {
                ns.set_standby(standby);
            }
        }
    }
    ns.set_checkpoint_every_batches(cfg.ns_checkpoint_batches);
}
