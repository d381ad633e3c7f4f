//! The `sorrentoctl` client library.
//!
//! [`run_script`] joins the mesh as a short-lived client node, runs a
//! [`ClientOp`] program through the *same* `SorrentoClient` state
//! machine the simulator validates, and returns its [`ClientStats`].
//! [`fetch_stats`] asks a live daemon for its metrics registry as JSON
//! (answered by the daemon loop itself, not the state machine). Both
//! run on the loop the daemons run on ([`crate::runtime::Driver`]).

use std::cell::RefCell;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::rc::Rc;
use std::time::{Duration, Instant};

use sorrento::client::{ClientOp, ClientStats, OpResult, SorrentoClient, Workload};
use sorrento::cluster::ScriptedWorkload;
use sorrento::proto::{Msg, Tick};
use sorrento::swim::MembershipMode;
use sorrento::types::Error;
use sorrento::Transport;
use sorrento_sim::{Dur, EventRecord, NodeId, SimTime, SpanId};

use crate::config::CtlConfig;
use crate::runtime::{Driver, Node, RealCtx};
use crate::tcp::{Mesh, MeshConfig};

/// Why a control operation failed.
#[derive(Debug)]
pub enum CtlError {
    /// Socket-level failure (bind, resolve).
    Io(std::io::Error),
    /// Not enough providers announced themselves before the deadline.
    Discovery {
        /// How many we saw.
        seen: usize,
        /// How many we needed.
        needed: usize,
    },
    /// The op program did not finish before the deadline; partial
    /// statistics inside.
    Deadline(Box<ClientStats>),
    /// No stats reply arrived in time.
    StatsTimeout,
}

impl std::fmt::Display for CtlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CtlError::Io(e) => write!(f, "i/o error: {e}"),
            CtlError::Discovery { seen, needed } => {
                write!(f, "discovered only {seen} of {needed} providers before the deadline")
            }
            CtlError::Deadline(stats) => write!(
                f,
                "workload incomplete at deadline ({} done, {} failed)",
                stats.completed_ops, stats.failed_ops
            ),
            CtlError::StatsTimeout => f.write_str("no stats reply before the timeout"),
        }
    }
}

impl std::error::Error for CtlError {}

impl From<std::io::Error> for CtlError {
    fn from(e: std::io::Error) -> CtlError {
        CtlError::Io(e)
    }
}

/// One completed operation, with the payload the state machine would
/// otherwise keep to itself (`ls` listings, `stat` sizes, read bytes).
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// Operation kind (`"read"`, `"list"`, ...).
    pub kind: &'static str,
    /// `None` on success.
    pub error: Option<Error>,
    /// Bytes moved, or entry size for `stat`, or name count for `list`.
    pub bytes: u64,
    /// Returned data (`read` bytes, `list` newline-joined names); a
    /// shared view of the client's buffer, not a copy.
    pub data: Option<bytes::Bytes>,
    /// The op's trace span (0 = none); feed it to `sorrentoctl trace`
    /// to pull the causal chain out of the daemons' flight recorders.
    pub span: SpanId,
}

/// What a finished script run produced.
#[derive(Debug, Clone)]
pub struct ScriptOutcome {
    /// The client machine's aggregate statistics.
    pub stats: ClientStats,
    /// Per-op results in execution order.
    pub records: Vec<OpRecord>,
    /// The ctl session's own flight-recorder events (client-side sends,
    /// retries, op lifecycle) so callers can merge them with the
    /// daemons' rings into one causal chain.
    pub events: Vec<EventRecord>,
    /// Wall-clock nanoseconds when the session's clock started; add to
    /// each event's `at` to place it on the cluster-wide timeline.
    pub epoch_unix_ns: u64,
}

/// Scripted workload that also records every op's result, so the CLI
/// can print what `stat`/`ls`/`read` actually returned.
struct RecordingWorkload {
    inner: ScriptedWorkload,
    records: Rc<RefCell<Vec<OpRecord>>>,
}

impl Workload for RecordingWorkload {
    fn next_op(&mut self, now: SimTime, rng: &mut rand::rngs::SmallRng) -> Option<ClientOp> {
        self.inner.next_op(now, rng)
    }

    fn on_result(&mut self, op: &ClientOp, result: &OpResult, now: SimTime) {
        self.records.borrow_mut().push(OpRecord {
            kind: op.kind(),
            error: result.error.clone(),
            bytes: result.bytes,
            data: result.data.clone(),
            span: result.span,
        });
        self.inner.on_result(op, result, now);
    }
}

/// The wall clock, as the per-session salt for ids and RNG streams.
fn unix_nanos() -> u64 {
    let since = std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH);
    since.map_or(1, |d| d.as_nanos() as u64)
}

fn join_mesh(cfg: &CtlConfig) -> Result<Driver, CtlError> {
    let me = cfg.ctl_id;
    let mut machines: HashMap<NodeId, u32> =
        cfg.peers.iter().map(|p| (p.id, p.machine)).collect();
    machines.insert(me, u32::MAX); // the ctl node is on no provider machine
    // Every session gets its own RNG stream for the same reason it gets
    // its own request-id range (below): segment ids carry an RNG salt,
    // and two sessions replaying the same seed from the same ctl node id
    // mint *colliding* segment ids — a later session's create would then
    // fail 2PC with a spurious VersionConflict against the earlier
    // session's committed index segment.
    let ctx = RealCtx::new(me, cfg.seed ^ unix_nanos(), 1 << 30, machines);
    ctx.flight().set_role("ctl");
    let seed_peers: HashMap<NodeId, SocketAddr> = cfg
        .peers
        .iter()
        .filter_map(|p| Some((p.id, p.addr.to_socket_addrs().ok()?.next()?)))
        .collect();
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let mut mesh = Mesh::start(me, listener, seed_peers, MeshConfig::default())?;
    // Daemons learn our ephemeral listen address from these Hellos and
    // start including us in their heartbeat fan-out.
    mesh.hello_all();
    Ok(Driver::new(ctx, mesh))
}

/// The schedule a script's ops start on: one per interval. A closed
/// loop with nothing between its ops runs at whatever six thread
/// wake-ups per round trip cost that second — on a 2-vCPU host a `stat`
/// takes 75 or 215 µs depending on where the scheduler put the threads,
/// and small-op rates swing 3× from run to run. On a schedule the rate
/// is one op per interval whenever ops finish inside it, and repeats
/// (DESIGN §9.4 has the numbers and what taking this out needs).
const OP_INTERVAL: Dur = Dur::nanos(1_500_000);

/// Slots a session that fell behind (a commit longer than an interval)
/// may use back to back to get on schedule again.
const OP_CATCH_UP: u64 = 4;

/// A scripted client on the loop, its ops started on the
/// [`OP_INTERVAL`] schedule.
struct Session {
    client: SorrentoClient,
    /// Earliest start of the next op, in ns on the session's clock.
    next_slot: u64,
}

impl Node for Session {
    fn handle(&mut self, from: NodeId, msg: Msg, ctx: &mut RealCtx) {
        self.client.handle_message(from, msg, ctx);
    }

    fn timer(&mut self, msg: Msg, ctx: &mut RealCtx, _mesh: &mut Mesh) {
        if matches!(msg, Msg::Tick(Tick::NextOp)) {
            let now = ctx.now().nanos();
            if now < self.next_slot {
                ctx.set_timer(Dur::nanos(self.next_slot - now), msg);
                return;
            }
            let oldest = now.saturating_sub(OP_CATCH_UP * OP_INTERVAL.as_nanos());
            self.next_slot = self.next_slot.max(oldest) + OP_INTERVAL.as_nanos();
        }
        self.handle(ctx.id(), msg, ctx);
    }
}

/// Run an op program against a live cluster.
///
/// Waits until at least `min_providers` storage providers have been
/// discovered via heartbeats (so placement has somewhere to put
/// replicas), then drives the client machine until the workload
/// finishes or `deadline` passes.
pub fn run_script(
    cfg: &CtlConfig,
    ops: Vec<ClientOp>,
    min_providers: usize,
    deadline: Duration,
) -> Result<ScriptOutcome, CtlError> {
    let mut driver = join_mesh(cfg)?;
    let records = Rc::new(RefCell::new(Vec::new()));
    let workload = RecordingWorkload {
        inner: ScriptedWorkload::new(ops),
        records: Rc::clone(&records),
    };
    // The cost model's per-op client CPU is for the simulator to charge;
    // here that CPU has really been spent by the time an op completes,
    // and a non-zero value would be slept. At zero the hop between ops
    // (which keeps completion from recursing) is due at once, and
    // `Session` holds it until the op's slot on the schedule.
    let costs = sorrento::costs::CostModel { client_op_cpu: Dur::ZERO, ..cfg.costs };
    let mut client = SorrentoClient::new(cfg.namespace, costs, Box::new(workload));
    client.default_options.replication = cfg.replication;
    if !cfg.ns_map.is_empty() {
        // Sharded metadata plane: route each path to its shard's
        // primary (failing over to the standby on timeouts).
        client.set_ns_shards(sorrento::nsmap::NsShardMap::from_rows(cfg.ns_map.clone()));
    }
    if cfg.membership == MembershipMode::Swim {
        // Gossip clusters have no multicast heartbeats; the client keeps
        // its provider view fresh by pulling membership digests instead.
        client.set_membership(MembershipMode::Swim, cfg.peers.iter().map(|p| p.id).collect());
    }
    client.write_chunk = cfg.write_chunk;
    client.write_window = cfg.write_window;
    client.rpc_resends = cfg.rpc_resends;
    client.op_deadline =
        cfg.op_deadline_ms.map(|ms| Dur::nanos(ms.saturating_mul(1_000_000)));
    // Every control session joins as the same ctl node id, and the
    // servers' reply caches key on (node, request id) — so each session
    // takes a disjoint request-id range to never alias an earlier one.
    let session_base = unix_nanos();
    client.req_base(session_base);
    // Spans need the same session-uniqueness as request ids, or `trace`
    // merges ops from different sessions into one chain. >>16 gives
    // ~65 µs granularity: the 32-bit sequence space wraps every ~78
    // hours instead of every 4 seconds.
    client.span_base(session_base >> 16);
    let mut session = Session { client, next_slot: 0 };

    // Discovery warmup: absorb heartbeats before starting the workload.
    // A daemon that is still binding its listener refuses the first
    // Hello, and the lossy transport drops it after one redial — so
    // instead of a fixed post-spawn sleep, re-introduce ourselves with
    // bounded exponential backoff until enough providers appear
    // (`hello_all` is idempotent: already-connected peers are skipped).
    const HELLO_RETRY_MIN: Duration = Duration::from_millis(100);
    const HELLO_RETRY_MAX: Duration = Duration::from_millis(800);
    let deadline_at = Instant::now() + deadline;
    let mut hello_backoff = HELLO_RETRY_MIN;
    let mut next_hello = Instant::now() + hello_backoff;
    let mut warm_req = 0u64;
    while session.client.known_providers() < min_providers {
        driver.turn(&mut session, Some(next_hello.min(deadline_at)));
        let now = Instant::now();
        if now >= next_hello {
            driver.mesh.hello_all();
            if cfg.membership == MembershipMode::Swim {
                // No heartbeats to absorb under gossip: pull membership
                // digests from every peer instead. Providers answer with
                // their view (payloads included); non-providers ignore
                // the pull, so the replies that land are authoritative.
                warm_req += 1;
                for p in &cfg.peers {
                    driver.mesh.send(p.id, &Msg::MembersPull { req: warm_req });
                }
            }
            hello_backoff = (hello_backoff * 2).min(HELLO_RETRY_MAX);
            next_hello = now + hello_backoff;
        }
        if now > deadline_at {
            return Err(CtlError::Discovery {
                seen: session.client.known_providers(),
                needed: min_providers,
            });
        }
    }

    session.client.handle_start(&mut driver.ctx);
    while session.client.stats.finished_at.is_none() {
        if Instant::now() > deadline_at {
            return Err(CtlError::Deadline(Box::new(session.client.stats.clone())));
        }
        driver.turn(&mut session, Some(deadline_at));
    }
    let flight = driver.ctx.flight();
    Ok(ScriptOutcome {
        stats: session.client.stats.clone(),
        records: records.take(),
        events: flight.snapshot(),
        epoch_unix_ns: flight.epoch_unix_ns(),
    })
}

/// Ask `target` something the daemon loop answers itself: send
/// `make_request(req)` and wait for the reply `match_reply` accepts.
///
/// The query is re-sent periodically until the reply arrives: the
/// transport is deliberately lossy (a daemon's first reply can die on a
/// connection cached from an earlier control session), so a one-shot
/// request would hang on nothing more than a stale socket.
fn query<T>(
    cfg: &CtlConfig,
    target: NodeId,
    timeout: Duration,
    make_request: impl Fn(u64) -> Msg,
    match_reply: impl Fn(Msg) -> Option<T>,
) -> Result<T, CtlError> {
    const RESEND_EVERY: Duration = Duration::from_millis(300);
    let mut driver = join_mesh(cfg)?;
    let mut reply = None;
    let deadline_at = Instant::now() + timeout;
    let mut req = 0u64;
    let mut next_send = Instant::now();
    while Instant::now() <= deadline_at {
        if Instant::now() >= next_send {
            req += 1;
            driver.mesh.hello_all(); // no-op when connected; redials a daemon that refused at boot
            driver.mesh.send(target, &make_request(req));
            next_send = Instant::now() + RESEND_EVERY;
        }
        let mut on_msg = |from: NodeId, msg: Msg, _: &mut RealCtx| {
            if from == target && reply.is_none() {
                reply = match_reply(msg);
            }
        };
        driver.turn(&mut on_msg, Some(next_send.min(deadline_at)));
        if let Some(reply) = reply.take() {
            return Ok(reply);
        }
    }
    Err(CtlError::StatsTimeout)
}

/// Fetch a daemon's metrics registry as a JSON string.
pub fn fetch_stats(cfg: &CtlConfig, target: NodeId, timeout: Duration) -> Result<String, CtlError> {
    query(cfg, target, timeout, |req| Msg::StatsQuery { req }, |msg| match msg {
        Msg::StatsR { json, .. } => Some(json),
        _ => None,
    })
}

/// Fetch a daemon's flight-recorder events for one span (0 = the whole
/// ring) as a JSON string.
pub fn fetch_trace(
    cfg: &CtlConfig,
    target: NodeId,
    span: SpanId,
    timeout: Duration,
) -> Result<String, CtlError> {
    query(cfg, target, timeout, |req| Msg::TraceQuery { req, span }, |msg| match msg {
        Msg::TraceR { json, .. } => Some(json),
        _ => None,
    })
}

/// Fetch a provider's membership view as a JSON string — under gossip
/// the SWIM table (state, incarnation, last payload per member), under
/// heartbeats the classic liveness view.
///
/// Only providers answer; pointing this at a namespace node times out.
pub fn fetch_members(
    cfg: &CtlConfig,
    target: NodeId,
    timeout: Duration,
) -> Result<String, CtlError> {
    query(cfg, target, timeout, |req| Msg::MembersQuery { req }, |msg| match msg {
        Msg::MembersR { json, .. } => Some(json),
        _ => None,
    })
}

/// Install (or, with an all-zero config, clear) fault-injection rules on
/// a live daemon's mesh.
///
/// Like [`fetch_stats`], the request is answered by the daemon loop —
/// never the state machine. Note the asymmetry: rules installed on
/// `target` shape the frames *it sends*, not the frames it receives.
pub fn set_chaos(
    cfg: &CtlConfig,
    target: NodeId,
    chaos: &crate::chaos::ChaosConfig,
    timeout: Duration,
) -> Result<(), CtlError> {
    let request = |req| Msg::ChaosCtl {
        req,
        seed: chaos.seed,
        drop_permille: chaos.drop_permille,
        dup_permille: chaos.dup_permille,
        delay_permille: chaos.delay_permille,
        delay_us: chaos.delay.as_micros() as u64,
        partition: chaos.partition.clone(),
    };
    query(cfg, target, timeout, request, |msg| matches!(msg, Msg::ChaosCtlR { .. }).then_some(()))
}
