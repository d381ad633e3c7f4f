//! The Sorrento client stub (§2.3, §3.5, Figure 6/7): executes file
//! operations against the cluster — pathname resolution through the
//! namespace server, index-segment reads through home hosts (with
//! redirect), parallel data-segment I/O, shadow-copy writes, two-phase
//! commit, eager or lazy replica propagation, and failover through
//! timeouts and the multicast backup query.
//!
//! A client node is driven by a [`Workload`]: whenever the previous
//! operation completes, the workload supplies the next [`ClientOp`] and
//! observes its [`OpResult`].
//!
//! Each op runs as one flow, a state machine in its own module: the
//! op's `Phase` says which, and each reply goes to the flow whose
//! `Pending` kind it answers.
//!
//! | flow | `Phase` | `Pending` kinds | sends | handles |
//! |---|---|---|---|---|
//! | namespace (`mod.rs`) | `NsSimple`, `Thinking` | `Ns` | `NsLookup`, `NsCreate`, `NsMkdir`, `NsRename`, `NsList`, `NsRemove` | their replies; `Tick::NextOp`, `OpDeadline` |
//! | open (`open.rs`) | `OpenIndex`, `Unlinking` | `IndexRead`, `LocQuery`, `Backup`, `Delete` | whole-segment `ReadSeg`, `LocQuery` (for reads and writes too), `BackupQuery`, `DeleteSeg` | `ReadSegR`, `LocQueryR`, `BackupQueryR`, `DeleteSegR`; `Tick::BackupDeadline` |
//! | read (`read.rs`) | `Reading` | `DataRead`, `EcLoc`, `EcShard` | `ReadSeg`, `LocQuery` | `ReadSegR`, `LocQueryR` |
//! | write (`write.rs`) | `Writing` | `ShadowCreate`, `ShadowWrite`, `DirectWrite` | `CreateShadow`, `WriteShadow`, `DirectWrite` | `CreateShadowR`, `WriteShadowR`, `DirectWriteR` |
//! | commit (`commit.rs`) | `Committing` | `CommitBegin`, `Prepare`, `Commit2`, `CommitEnd`, `EagerSync` | `NsCommitBegin`, `Prepare`, `Commit`, `Abort`, `NsCommitEnd`, `SyncRequest` | `NsCommitBeginR`, `PrepareR`, `CommitR`, `NsCommitEndR`, `SyncDone`; `Tick::CommitBeginRetry`, `AppendRetry` |
//!
//! A commit ships its parity shards and index through the write flow's
//! shadows. This module keeps the op lifecycle, `rpc` with its resends
//! and timeouts, namespace routing, and the dispatch of replies by flow.

mod commit;
mod open;
mod read;
mod write;
#[cfg(test)]
mod tests;

use std::collections::{HashMap, VecDeque};

use rand::seq::SliceRandom;
use rand::Rng;
use sorrento_sim::{Ctx, Dur, Node, NodeId, SimTime, SpanId, TelemetryEvent};

use crate::costs::CostModel;
use crate::layout::{Extent, IndexSegment, WriteViews};
use crate::placement::{candidates_from_view, select_provider};
use crate::proto::{FileEntry, Msg, ReqId, Tick};
use crate::provider::membership::Membership;
use crate::store::{SegMeta, ShadowId, WritePayload};
use crate::swim::MembershipMode;
use crate::transport::Transport;
use crate::types::{Error, FileId, FileOptions, PlacementPolicy, SegId, Version};

use commit::CommitStage;
use read::{EcRead, ExtentRead};
use write::{ChunkWrite, ShadowTarget};

/// Maximum whole-op retries after timeouts/failovers before the op fails.
const MAX_ATTEMPTS: u32 = 5;
/// Maximum commit retries for [`ClientOp::AtomicAppend`].
const MAX_APPEND_RETRIES: u32 = 16;

/// One file operation issued by a workload.
#[derive(Debug, Clone)]
pub enum ClientOp {
    /// Create a directory.
    Mkdir {
        /// Absolute pathname of the new directory.
        path: String,
    },
    /// Rename a file (directories are refused by the server). Routed to
    /// the source's namespace shard; a cross-shard destination is moved
    /// with a two-shard handshake on the server side.
    Rename {
        /// Absolute source pathname.
        src: String,
        /// Absolute destination pathname.
        dst: String,
    },
    /// Create a file with default options and open it for writing.
    Create {
        /// Absolute pathname of the new file.
        path: String,
    },
    /// Create a file with explicit options and open it for writing.
    CreateWith {
        /// Absolute pathname of the new file.
        path: String,
        /// Per-file tunables (replication, organization, placement, ...).
        options: FileOptions,
    },
    /// Open an existing file.
    Open {
        /// Absolute pathname.
        path: String,
        /// Open writable (enables Write/Append/commit).
        write: bool,
    },
    /// Read from the open file.
    Read {
        /// Byte offset within the file.
        offset: u64,
        /// Byte count (clamped to file size).
        len: u64,
    },
    /// Write to the open file.
    Write {
        /// Byte offset within the file.
        offset: u64,
        /// The bytes (real or modeled).
        payload: WritePayload,
    },
    /// Append to the open file.
    Append {
        /// The bytes (real or modeled).
        payload: WritePayload,
    },
    /// Atomic append (§3.5 Figure 4): append + commit, retrying the whole
    /// cycle on version conflicts.
    AtomicAppend {
        /// The record to append (real or modeled).
        payload: WritePayload,
    },
    /// Commit pending changes and keep the file open.
    Sync,
    /// Commit pending changes (if any) and close the file.
    Close,
    /// Remove a file, eagerly deleting all segment replicas.
    Unlink {
        /// Absolute pathname.
        path: String,
    },
    /// Look up a path.
    Stat {
        /// Absolute pathname.
        path: String,
    },
    /// List a directory.
    List {
        /// Absolute pathname of the directory.
        path: String,
    },
    /// Idle for a duration (think time / emulated external latency).
    Think {
        /// How long to stay idle.
        dur: Dur,
    },
}

impl ClientOp {
    /// Write real bytes at an offset.
    pub fn write_bytes(offset: u64, data: impl Into<bytes::Bytes>) -> ClientOp {
        ClientOp::Write {
            offset,
            payload: WritePayload::Real(data.into()),
        }
    }

    /// Write a modeled (synthetic) length at an offset.
    pub fn write_synth(offset: u64, len: u64) -> ClientOp {
        ClientOp::Write {
            offset,
            payload: WritePayload::Synthetic { len },
        }
    }

    /// Append a modeled (synthetic) length.
    pub fn append_synth(len: u64) -> ClientOp {
        ClientOp::Append {
            payload: WritePayload::Synthetic { len },
        }
    }

    /// Short name for stats.
    pub fn kind(&self) -> &'static str {
        match self {
            ClientOp::Mkdir { .. } => "mkdir",
            ClientOp::Rename { .. } => "rename",
            ClientOp::Create { .. } | ClientOp::CreateWith { .. } => "create",
            ClientOp::Open { .. } => "open",
            ClientOp::Read { .. } => "read",
            ClientOp::Write { .. } => "write",
            ClientOp::Append { .. } => "append",
            ClientOp::AtomicAppend { .. } => "atomic_append",
            ClientOp::Sync => "sync",
            ClientOp::Close => "close",
            ClientOp::Unlink { .. } => "unlink",
            ClientOp::Stat { .. } => "stat",
            ClientOp::List { .. } => "list",
            ClientOp::Think { .. } => "think",
        }
    }
}

/// Outcome of one completed operation.
#[derive(Debug, Clone)]
pub struct OpResult {
    /// `None` on success, the error otherwise.
    pub error: Option<Error>,
    /// Bytes read or written.
    pub bytes: u64,
    /// Wall-clock (virtual) latency of the op.
    pub latency: Dur,
    /// Read data, when the file carries real bytes. A cheap [`bytes::Bytes`]
    /// view — cloning the result does not copy the payload.
    pub data: Option<bytes::Bytes>,
    /// The op's trace span (0 = none): the key for `trace <span>` /
    /// `Cluster::trace_op` lookups across node event logs.
    pub span: SpanId,
}

impl OpResult {
    /// Whether the op succeeded.
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }
}

/// Supplies a client with operations and observes their results.
pub trait Workload: std::any::Any {
    /// The next operation, or `None` when the workload is exhausted.
    fn next_op(&mut self, now: SimTime, rng: &mut rand::rngs::SmallRng) -> Option<ClientOp>;
    /// Observe a completed operation.
    fn on_result(&mut self, op: &ClientOp, result: &OpResult, now: SimTime) {
        let _ = (op, result, now);
    }
}

impl Workload for Box<dyn Workload> {
    fn next_op(&mut self, now: SimTime, rng: &mut rand::rngs::SmallRng) -> Option<ClientOp> {
        (**self).next_op(now, rng)
    }
    fn on_result(&mut self, op: &ClientOp, result: &OpResult, now: SimTime) {
        (**self).on_result(op, result, now)
    }
}

/// Aggregate statistics maintained by every client.
#[derive(Debug, Default, Clone)]
pub struct ClientStats {
    /// Successfully completed operations (excluding `Think`).
    pub completed_ops: u64,
    /// Failed operations.
    pub failed_ops: u64,
    /// Total bytes read.
    pub bytes_read: u64,
    /// Total bytes written.
    pub bytes_written: u64,
    /// Data returned by the most recent successful read (real mode).
    pub last_read: Option<bytes::Bytes>,
    /// Most recent error.
    pub last_error: Option<Error>,
    /// `(op kind, latency)` log of completed ops.
    pub latencies: Vec<(&'static str, Dur)>,
    /// When the first operation was issued (excludes provider-discovery
    /// wait before heartbeats arrive).
    pub started_at: Option<SimTime>,
    /// When the workload ran out of operations.
    pub finished_at: Option<SimTime>,
    /// Version conflicts observed (atomic-append retries etc.).
    pub conflicts: u64,
    /// `(span, op kind)` of every failed operation, for causal-chain
    /// reconstruction via `Cluster::trace_op`.
    pub failed_spans: Vec<(SpanId, &'static str)>,
    /// Span of the most recently started operation.
    pub last_span: SpanId,
}

/// A shadow created during the current write session.
#[derive(Debug, Clone, Copy)]
struct ShadowRef {
    provider: NodeId,
    shadow: ShadowId,
    target: Version,
}

/// Client-side state of the open file.
#[derive(Debug, Clone)]
struct OpenFile {
    path: String,
    entry: FileEntry,
    index: IndexSegment,
    writable: bool,
    dirty: bool,
    /// Known owners per data segment (from redirects and LocQuery).
    owners: HashMap<SegId, Vec<(NodeId, Version)>>,
    /// Shadows opened this session, by segment.
    shadows: HashMap<SegId, ShadowRef>,
    /// Provider serving the index segment (owner we read it from or
    /// placed it on).
    index_owner: Option<NodeId>,
    /// Target file version of the in-progress commit (chosen once per
    /// attempt, entropy-disambiguated).
    commit_target: Option<Version>,
    /// Inline content for attached real files.
    attached_buf: Vec<u8>,
    /// Whether file payloads are synthetic.
    synthetic: bool,
    /// Views of the payloads this session's real writes of an
    /// erasure-coded file carried: commit encodes parity from them, with
    /// every byte they do not cover taken as zero (see DESIGN.md §5.4).
    ec_views: WriteViews,
    /// The file's committed size when the session opened it. The data
    /// shards still hold those bytes, so an erasure-coded commit is
    /// refused unless the views rewrite all of them.
    opened_size: u64,
}

/// What an in-flight request is for.
#[derive(Debug)]
enum Pending {
    Ns,
    IndexRead { owner_known: bool },
    LocQuery { seg: SegId },
    /// One `ReadSeg` of a data read: `len` bytes at `offset` within
    /// extent `extent` (the whole extent unless the read is chunked).
    DataRead { extent: usize, offset: u64, len: u64 },
    ShadowCreate { seg: SegId, provider: NodeId, target: Version },
    ShadowWrite { to: ShadowTarget },
    DirectWrite,
    Prepare,
    Commit2,
    CommitBegin,
    CommitEnd,
    /// A multicast backup query for `seg`, and the owners that have
    /// answered it so far.
    Backup { seg: SegId, hits: Vec<(NodeId, Version)> },
    Delete,
    EagerSync,
    /// Degraded EC read: locating shard `shard` (data-then-parity index).
    EcLoc { shard: usize },
    /// Degraded EC read: fetching shard `shard` in full.
    EcShard { shard: usize },
}

/// Current stage of the active operation.
#[derive(Debug)]
enum Phase {
    /// Waiting on a single namespace RPC (mkdir/stat/list/create/lookup).
    NsSimple,
    /// Open flow: read the index segment (possibly via redirect/backup).
    OpenIndex,
    /// Read flow: resolving owners then fetching extents.
    Reading {
        extents: Vec<Extent>,
        /// Per-extent request progress, parallel to `extents`.
        progress: Vec<ExtentRead>,
        /// Buffer for real data (request-relative): allocated once,
        /// filled in place by each reply, moved out at completion.
        buf: Option<Vec<u8>>,
        /// Zero-copy completion: when one reply covers the whole request,
        /// its payload is handed through without an assembly copy.
        direct: Option<bytes::Bytes>,
        req_offset: u64,
        /// Extents whose owner is still being resolved (indices).
        unresolved: Vec<usize>,
        /// Outstanding data fetches.
        outstanding: usize,
        /// Extents with a known owner and bytes left to request, held
        /// back by [`read::READ_PIECES_MAX`]; first in, first out.
        waiting: VecDeque<usize>,
        bytes: u64,
    },
    /// Write flow: ensure shadows exist, then issue the writes.
    Writing {
        extents: Vec<Extent>,
        /// Extent indices still needing owner resolution or shadows.
        todo: Vec<usize>,
        outstanding: usize,
        detach_bytes: u64,
        write_offset: u64,
        write_len: u64,
        /// Per-extent progress of pipelined chunked shadow writes
        /// (only populated when [`SorrentoClient::write_chunk`] is set).
        chunked: HashMap<ShadowTarget, ChunkWrite>,
    },
    /// Commit flow.
    Committing(CommitStage),
    /// Unlink flow.
    Unlinking {
        /// The removed file's index segment: read for the data
        /// segments, then deleted with them.
        index: SegId,
        /// Segments whose owners still need resolving.
        to_locate: Vec<SegId>,
        /// (seg, owner) pairs to delete.
        deletes: Vec<(SegId, NodeId)>,
        outstanding: usize,
    },
    /// Think timer running.
    Thinking,
}

/// The client node.
pub struct SorrentoClient {
    costs: CostModel,
    ns: NodeId,
    /// Options applied to files created with [`ClientOp::Create`].
    pub default_options: FileOptions,
    workload: Box<dyn Workload>,
    /// Aggregate statistics.
    pub stats: ClientStats,
    /// Provider liveness and the ring, in the membership role's pull
    /// form: heartbeats heard, or digests pulled from SWIM gossipers.
    members: Membership,
    file: Option<OpenFile>,
    op: Option<(ClientOp, SimTime, Phase, u32 /* attempts */)>,
    pending: HashMap<ReqId, (NodeId, Pending)>,
    next_req: ReqId,
    seg_counter: u64,
    my_machine: u32,
    /// Remaining atomic-append retries for the current op.
    append_retries: u32,
    /// Total bytes the current op moves (scatter-wide timeout budget:
    /// one piece of a large scatter legitimately queues behind the rest
    /// of the op's own traffic).
    scatter_bytes: u64,
    /// Trace span of the op in flight (0 between ops). Retries of the
    /// same op keep its span, so a causal chain shows every attempt.
    cur_span: SpanId,
    /// Per-client span sequence (combined with the node id for
    /// cluster-wide uniqueness).
    span_seq: u64,
    /// Bulk pipelining, both directions (the name is historical: writes
    /// had it first). When set, a real shadow-write payload larger than
    /// this is split into chunks of this size and pipelined to the
    /// segment owner, and a read extent longer than this is requested
    /// as `ReadSeg`s of this size, instead of travelling as one frame
    /// per extent. `None` (the default) keeps the one-message-per-extent
    /// behavior — seeded simulation runs stay byte-for-byte
    /// deterministic.
    pub write_chunk: Option<u64>,
    /// Bounded window of in-flight chunks per extent, written or read,
    /// when `write_chunk` is set (clamped to at least 1). The window
    /// keeps the owner's pipe full without unbounded buffering on
    /// either side.
    pub write_window: usize,
    /// Extra same-request resends per RPC before the timeout path
    /// suspects the target. Resends reuse the original request id, so
    /// receivers that already executed the request replay their cached
    /// reply instead of executing twice, and each resend backs off
    /// exponentially with jitter from the seeded RNG. `0` (the default)
    /// keeps the classic one-shot-then-timeout behavior — seeded
    /// simulation runs never enable this.
    pub rpc_resends: u32,
    /// Whole-operation deadline. An op still unfinished when it fires
    /// completes with [`Error::DeadlineExceeded`] instead of retrying
    /// further. `None` (the default) means no deadline; the simulator
    /// never sets one.
    pub op_deadline: Option<Dur>,
    /// Retained request copies for same-id resends (`rpc_resends > 0`
    /// only): req → (message, resends left, current backoff). Clones
    /// are cheap — bulk payloads are shared `Bytes`.
    resends: HashMap<ReqId, (Msg, u32, Dur)>,
    /// Monotonic op generation; tags `Tick::OpDeadline` so a stale
    /// deadline timer from a finished op cannot kill its successor.
    op_gen: u64,
    /// In-flight degraded read of an erasure-coded file, if any.
    ec_read: Option<EcRead>,
    /// Namespace shard routing table. Empty (the default) means the
    /// classic single-server deployment: every namespace RPC goes to
    /// `ns`. When populated, requests route by the partition function in
    /// [`crate::nsmap`] and the table is refreshed periodically like the
    /// location tables.
    ns_shards: crate::nsmap::NsShardMap,
    /// Per-shard sticky failover flags: after an RPC to a shard's
    /// primary times out, route that shard's traffic to its standby
    /// (and back again on a standby timeout).
    ns_use_standby: Vec<bool>,
}

impl SorrentoClient {
    /// A client of the volume whose namespace server is `ns`.
    pub fn new(ns: NodeId, costs: CostModel, workload: Box<dyn Workload>) -> SorrentoClient {
        SorrentoClient {
            costs,
            ns,
            default_options: FileOptions::default(),
            workload,
            stats: ClientStats::default(),
            members: Membership::new(costs, MembershipMode::Heartbeat, Vec::new()),
            file: None,
            op: None,
            pending: HashMap::new(),
            next_req: 1,
            seg_counter: 0,
            my_machine: 0,
            append_retries: 0,
            scatter_bytes: 0,
            cur_span: 0,
            span_seq: 0,
            write_chunk: None,
            write_window: 4,
            rpc_resends: 0,
            op_deadline: None,
            resends: HashMap::new(),
            op_gen: 0,
            ec_read: None,
            ns_shards: crate::nsmap::NsShardMap::default(),
            ns_use_standby: Vec::new(),
        }
    }

    /// Choose the membership mechanism before the client starts. In
    /// [`MembershipMode::Swim`] the client hears no heartbeat multicast;
    /// it learns liveness by pulling membership digests from `seeds`
    /// (the configured providers) in round-robin.
    pub fn set_membership(&mut self, mode: MembershipMode, seeds: Vec<NodeId>) {
        self.members = Membership::new(self.costs, mode, seeds);
    }

    /// Install the namespace shard routing table (and reset the sticky
    /// failover flags). An empty map restores classic single-server
    /// routing to the bootstrap `ns` node.
    pub fn set_ns_shards(&mut self, map: crate::nsmap::NsShardMap) {
        self.ns_use_standby = vec![false; map.len()];
        self.ns_shards = map;
    }

    /// The namespace server currently serving shard `k` (primary, or the
    /// standby after a sticky failover flip).
    fn ns_route(&self, k: usize) -> NodeId {
        let Some(row) = self.ns_shards.get(k) else {
            return self.ns;
        };
        if self.ns_use_standby.get(k).copied().unwrap_or(false) {
            row.standby.unwrap_or(row.primary)
        } else {
            row.primary
        }
    }

    /// The namespace server owning `path`'s entry.
    fn ns_for(&self, path: &str) -> NodeId {
        if self.ns_shards.is_empty() {
            return self.ns;
        }
        self.ns_route(self.ns_shards.shard_for(path) as usize)
    }

    /// The namespace server holding directory `path`'s children (where
    /// `ls` must go).
    fn ns_for_dir(&self, path: &str) -> NodeId {
        if self.ns_shards.is_empty() {
            return self.ns;
        }
        let n = self.ns_shards.len() as u32;
        self.ns_route(crate::nsmap::shard_of_dir(path, n) as usize)
    }

    /// Whether `id` is a namespace server (the bootstrap node or any
    /// shard primary/standby). Namespace nodes are never evicted from
    /// the provider membership view on timeouts.
    fn is_ns_node(&self, id: NodeId) -> bool {
        id == self.ns || self.ns_shards.contains(id)
    }

    /// A namespace RPC to `target` timed out: flip the owning shard's
    /// sticky standby flag so the retry routes to the other server.
    fn flip_ns_route(&mut self, target: NodeId) {
        for k in 0..self.ns_shards.len() {
            if self.ns_route(k) != target {
                continue;
            }
            let has_standby = self.ns_shards.get(k).is_some_and(|row| row.standby.is_some());
            if let Some(f) = self.ns_use_standby.get_mut(k) {
                *f = !*f && has_standby;
            }
        }
    }

    fn fresh_req(&mut self) -> ReqId {
        let r = self.next_req;
        self.next_req += 1;
        r
    }

    /// Start request ids at `base` (if larger than the current counter).
    ///
    /// Servers deduplicate replayed mutations by `(client id, request
    /// id)`, so two client sessions sharing one node id — e.g.
    /// sequential `sorrentoctl` runs, which all join as the configured
    /// `ctl_id` — must not reuse each other's request ids, or a new
    /// request could be answered from a previous session's reply cache.
    /// Real-runtime drivers seed this with a session-unique value;
    /// simulated clients each have their own node id and keep the
    /// default.
    pub fn req_base(&mut self, base: ReqId) {
        self.next_req = self.next_req.max(base);
    }

    /// Offset this client's trace-span sequence so spans stay unique
    /// across control sessions sharing one `ctl_id`. Spans are
    /// `(node+1) << 32 | seq`: sessions all starting `seq` at 0 would
    /// reuse each other's span ids, and `sorrentoctl trace` would merge
    /// two unrelated ops into one chain. Only the low 32 bits of `base`
    /// are used (the high half is the node tag). Simulated clients keep
    /// the default of 0 — their node ids already disambiguate.
    pub fn span_base(&mut self, base: u64) {
        self.span_seq = self.span_seq.max(base & 0xFFFF_FFFF);
    }

    /// Inspect the concrete workload driving this client (post-run
    /// analysis: e.g. reading a [`Workload`] implementation's recorded
    /// series). Only works when the workload was passed unboxed.
    pub fn workload_ref<W: Workload>(&self) -> Option<&W> {
        let w: &dyn Workload = &*self.workload;
        (w as &dyn std::any::Any).downcast_ref::<W>()
    }

    fn fresh_seg(&mut self, ctx: &mut impl Transport) -> SegId {
        self.seg_counter += 1;
        SegId::derive(ctx.id().index() as u32, self.seg_counter, ctx.rng().gen())
    }

    /// Issue an RPC with a timeout guard: `msg` is built around the
    /// request's fresh id.
    fn rpc(
        &mut self,
        ctx: &mut impl Transport,
        to: NodeId,
        pending: Pending,
        msg: impl FnOnce(ReqId) -> Msg,
    ) {
        let req = self.fresh_req();
        let msg = msg(req);
        // Bulk transfers need proportionally longer timeouts: a 4 MB
        // write behind a dozen queued peers is not a failure. Budget a
        // conservative 1 MB/s floor for the expected transfer volume.
        // A whole-segment read (`len: u64::MAX`, an index or an EC
        // shard) has no expected volume beyond the op's own scatter; a
        // 512 MB guess would hold a lost index read for six minutes
        // before its first resend.
        let transfer = match &msg {
            Msg::WriteShadow { payload, .. } => payload.len().max(self.scatter_bytes),
            Msg::DirectWrite { payload, .. } => payload.len().max(self.scatter_bytes),
            Msg::ReadSeg { len: u64::MAX, .. } => self.scatter_bytes,
            Msg::ReadSeg { len, .. } | Msg::ReadShadow { len, .. } => {
                (*len).min(512 << 20).max(self.scatter_bytes)
            }
            _ => 0,
        };
        let timeout = self.costs.rpc_timeout + Dur::for_bytes(transfer, 1.5e6);
        self.pending.insert(req, (to, pending));
        if self.rpc_resends > 0 {
            // Resilient mode: keep a copy of the request and replace the
            // one-shot timeout with a resend schedule. Only after the
            // resend budget is spent does the timeout path run.
            self.resends.insert(req, (msg.clone(), self.rpc_resends, timeout));
            ctx.send(to, msg);
            ctx.set_timer(timeout, Msg::Tick(Tick::RpcResend(req)));
        } else {
            ctx.send(to, msg);
            ctx.set_timer(timeout, Msg::Tick(Tick::RpcTimeout(req)));
        }
    }

    /// A resend backoff fired: if the request is still unanswered,
    /// re-issue the *same* message (same request id — receivers
    /// deduplicate replays) to the same target, or hand over to the
    /// timeout path once the resend budget is spent.
    fn on_resend(&mut self, ctx: &mut impl Transport, req: ReqId) {
        let Some((target, _)) = self.pending.get(&req) else {
            self.resends.remove(&req); // reply arrived first
            return;
        };
        let target = *target;
        let state = match self.resends.get_mut(&req) {
            Some(s) if s.1 > 0 => s,
            _ => {
                self.resends.remove(&req);
                self.on_timeout(ctx, req);
                return;
            }
        };
        state.1 -= 1;
        let msg = state.0.clone();
        // Exponential backoff: doubling spreads replays out, and jitter
        // from the seeded RNG decorrelates clients hammering the same
        // recovering node.
        let doubled = state.2.as_nanos().saturating_mul(2);
        state.2 = Dur::nanos(doubled);
        let jitter = ctx.rng().gen_range(0..doubled / 4 + 1);
        ctx.metrics().count("client.rpc_resends", 1);
        ctx.record(TelemetryEvent::RpcResend {
            span: crate::proto::span_of(&msg),
            kind: crate::proto::dbg_kind(&msg),
        });
        ctx.send(target, msg);
        ctx.set_timer(Dur::nanos(doubled + jitter), Msg::Tick(Tick::RpcResend(req)));
    }

    /// Pick an owner for a segment: co-located first, then random
    /// up-to-date owner.
    fn choose_owner(
        &self,
        owners: &[(NodeId, Version)],
        min_version: Option<Version>,
        rng: &mut rand::rngs::SmallRng,
    ) -> Option<NodeId> {
        // Never pick an owner the membership view considers dead.
        let live: Vec<(NodeId, Version)> = owners
            .iter()
            .filter(|(id, _)| self.members.view().is_live(*id))
            .copied()
            .collect();
        let owners: &[(NodeId, Version)] = &live;
        let best: Vec<NodeId> = owners
            .iter()
            .filter(|(_, v)| min_version.is_none_or(|m| *v >= m))
            .map(|(id, _)| *id)
            .collect();
        let pool = if best.is_empty() {
            // Fall back to any owner (it may have caught up since).
            owners.iter().map(|(id, _)| *id).collect()
        } else {
            best
        };
        if pool.is_empty() {
            return None;
        }
        for &id in &pool {
            let info = self.members.view().info(id);
            if info.is_some_and(|i| i.heartbeat.machine == self.my_machine) {
                return Some(id);
            }
        }
        pool.choose(rng).copied()
    }

    /// Pick a provider for a brand-new segment via the placement
    /// algorithm (§3.7.1), with the home-host boost for small segments.
    /// `exclude` bars providers that already hold a shard of the same
    /// code group (EC placement needs k+m distinct failure domains).
    fn place_segment(
        &mut self,
        ctx: &mut impl Transport,
        seg: SegId,
        size_hint: u64,
        alpha: f64,
        policy: PlacementPolicy,
        exclude: &[NodeId],
    ) -> Option<NodeId> {
        let cands = candidates_from_view(self.members.view());
        let home = if self.costs.home_boost {
            self.members.home(seg)
        } else {
            None
        };
        select_provider(&cands, size_hint, alpha, policy, exclude, home, ctx.rng())
    }

    fn seg_meta(&self, opts: &FileOptions, synthetic: bool) -> SegMeta {
        let mut m = SegMeta::from_options(opts, synthetic);
        // Erasure-coded data shards are not replicated: the code *is*
        // the redundancy (`replication` governs the index segment only).
        if opts.ec.is_some() {
            m.replication = 1;
        }
        m
    }


    // ------------------------------------------------------------------
    // Operation lifecycle
    // ------------------------------------------------------------------

    /// Providers currently in the membership view. The real-process
    /// runtime uses this to gate workload start on peer discovery (the
    /// simulator instead runs a warmup period).
    pub fn known_providers(&self) -> usize {
        self.members.view().len()
    }


    fn pull_next_op(&mut self, ctx: &mut impl Transport) {
        if self.op.is_some() {
            return;
        }
        // Without a provider view we cannot place or locate anything;
        // wait for heartbeats.
        if self.members.view().is_empty() {
            ctx.set_timer(self.costs.heartbeat_interval, Msg::Tick(Tick::NextOp));
            return;
        }
        let Some(op) = self.workload.next_op(ctx.now(), ctx.rng()) else {
            if self.stats.finished_at.is_none() {
                self.stats.finished_at = Some(ctx.now());
            }
            return;
        };
        self.start_op(ctx, op);
    }

    fn start_op(&mut self, ctx: &mut impl Transport, op: ClientOp) {
        let now = ctx.now();
        if self.stats.started_at.is_none() {
            self.stats.started_at = Some(now);
        }
        self.append_retries = MAX_APPEND_RETRIES;
        self.op_gen += 1;
        if let Some(deadline) = self.op_deadline {
            ctx.set_timer(deadline, Msg::Tick(Tick::OpDeadline(self.op_gen)));
        }
        self.span_seq += 1;
        self.cur_span = ((ctx.id().index() as u64 + 1) << 32) | self.span_seq;
        self.stats.last_span = self.cur_span;
        ctx.record(TelemetryEvent::OpStart {
            span: self.cur_span,
            kind: op.kind(),
        });
        match &op {
            ClientOp::Think { dur } => {
                let dur = *dur;
                self.op = Some((op, now, Phase::Thinking, 0));
                ctx.set_timer(dur, Msg::Tick(Tick::NextOp));
            }
            _ => {
                self.op = Some((op, now, Phase::NsSimple, 0));
                self.dispatch_stage(ctx);
            }
        }
    }

    /// (Re-)issue the first request of the current op's current stage.
    fn dispatch_stage(&mut self, ctx: &mut impl Transport) {
        let Some((op, _, _, _)) = &self.op else {
            return;
        };
        let op = op.clone();
        match op {
            ClientOp::Mkdir { path } => {
                let to = self.ns_for(&path);
                self.rpc(ctx, to, Pending::Ns, |req| Msg::NsMkdir { req, path });
            }
            ClientOp::Rename { src, dst } => {
                let to = self.ns_for(&src);
                self.rpc(ctx, to, Pending::Ns, |req| Msg::NsRename { req, src, dst });
            }
            ClientOp::Stat { path } | ClientOp::Open { path, .. } => {
                let to = self.ns_for(&path);
                self.rpc(ctx, to, Pending::Ns, |req| Msg::NsLookup { req, path });
            }
            ClientOp::List { path } => {
                // `ls` goes to the shard holding the directory's
                // children, not the one holding the directory's entry.
                let to = self.ns_for_dir(&path);
                self.rpc(ctx, to, Pending::Ns, |req| Msg::NsList { req, path });
            }
            ClientOp::Create { path } => {
                let options = self.default_options;
                self.start_create(ctx, path, options);
            }
            ClientOp::CreateWith { path, options } => {
                self.start_create(ctx, path, options);
            }
            ClientOp::Read { offset, len } => self.start_read(ctx, offset, len),
            ClientOp::Write { offset, payload } => self.start_write(ctx, offset, payload),
            // An atomic append that lost a version race comes back here
            // once the file is refreshed: the end it writes at moved.
            ClientOp::Append { payload } | ClientOp::AtomicAppend { payload } => {
                let offset = self.file.as_ref().map(|f| f.index.size).unwrap_or(0);
                self.start_write(ctx, offset, payload);
            }
            ClientOp::Sync | ClientOp::Close => self.start_commit(ctx),
            ClientOp::Unlink { path } => {
                let to = self.ns_for(&path);
                self.rpc(ctx, to, Pending::Ns, |req| Msg::NsRemove { req, path });
            }
            ClientOp::Think { .. } => {}
        }
    }

    fn start_create(&mut self, ctx: &mut impl Transport, path: String, options: FileOptions) {
        let file: FileId = self.fresh_seg(ctx).into();
        let to = self.ns_for(&path);
        self.rpc(ctx, to, Pending::Ns, |req| Msg::NsCreate {
            req,
            path,
            file,
            options,
        });
    }

    fn complete_op(&mut self, ctx: &mut impl Transport, error: Option<Error>, bytes: u64, data: Option<bytes::Bytes>) {
        let Some((op, started, _, _)) = self.op.take() else {
            return;
        };
        // Drop any stray pending requests of this op (late replies are
        // ignored by the pending-map lookup).
        self.pending.clear();
        self.resends.clear();
        self.ec_read = None;
        self.scatter_bytes = 0;
        let latency = ctx.now().since(started);
        let span = self.cur_span;
        self.cur_span = 0;
        ctx.record(TelemetryEvent::OpEnd {
            span,
            kind: op.kind(),
            ok: error.is_none(),
        });
        if !matches!(op, ClientOp::Think { .. }) {
            ctx.metrics()
                .observe(&format!("op.{}.latency_ns", op.kind()), latency.as_nanos());
        }
        let result = OpResult {
            error: error.clone(),
            bytes,
            latency,
            data: data.clone(),
            span,
        };
        match &error {
            None => {
                self.stats.completed_ops += 1;
                self.stats.latencies.push((op.kind(), latency));
                match op {
                    ClientOp::Read { .. } => {
                        self.stats.bytes_read += bytes;
                        if data.is_some() {
                            self.stats.last_read = data;
                        }
                    }
                    ClientOp::Write { .. }
                    | ClientOp::Append { .. }
                    | ClientOp::AtomicAppend { .. } => {
                        self.stats.bytes_written += bytes;
                    }
                    _ => {}
                }
                ctx.metrics().count("client.ops_ok", 1);
            }
            Some(e) => {
                self.stats.failed_ops += 1;
                self.stats.failed_spans.push((span, op.kind()));
                self.stats.last_error = Some(e.clone());
                if *e == Error::VersionConflict {
                    self.stats.conflicts += 1;
                }
                ctx.metrics().count("client.ops_failed", 1);
            }
        }
        self.workload.on_result(&op, &result, ctx.now());
        // Defer the next op through a timer rather than recursing: ops
        // that complete without any RPC (attached reads, local closes)
        // would otherwise build unbounded native stack, and the hop also
        // models the client stub's per-op CPU.
        ctx.set_timer(self.costs.client_op_cpu, Msg::Tick(Tick::NextOp));
    }

    /// A stage hit a timeout or hard failure: retry the whole op stage or
    /// give up.
    fn retry_or_fail(&mut self, ctx: &mut impl Transport, error: Error) {
        let Some((_, _, _, attempts)) = &mut self.op else {
            return;
        };
        *attempts += 1;
        if *attempts >= MAX_ATTEMPTS {
            self.complete_op(ctx, Some(error), 0, None);
            return;
        }
        self.pending.clear();
        self.resends.clear();
        self.ec_read = None;
        // Restart the op from its first stage with current knowledge.
        self.set_phase(Phase::NsSimple);
        self.dispatch_stage(ctx);
    }

    /// The op in flight.
    fn op(&self) -> Option<&ClientOp> {
        self.op.as_ref().map(|(op, ..)| op)
    }

    /// The stage of the op in flight.
    fn phase(&self) -> Option<&Phase> {
        self.op.as_ref().map(|(_, _, phase, _)| phase)
    }

    /// Move the op in flight to stage `to`.
    fn set_phase(&mut self, to: Phase) {
        if let Some((_, _, phase, _)) = &mut self.op {
            *phase = to;
        }
    }

    // ------------------------------------------------------------------
    // Reply dispatch
    // ------------------------------------------------------------------

    /// Hand a reply to the flow whose request it answers. Each flow
    /// matches its own `Pending` kinds against the reply and drops a
    /// mismatch (which should not happen).
    fn on_reply(&mut self, ctx: &mut impl Transport, from: NodeId, req: ReqId, msg: Msg) {
        self.resends.remove(&req);
        let Some((_, pending)) = self.pending.remove(&req) else {
            let kind = crate::proto_dbg_kind(&msg);
            ctx.metrics().count("client.stale_replies", 1);
            ctx.metrics().count_labeled("client.stale", kind, 1);
            ctx.record(TelemetryEvent::StaleLocation {
                span: self.cur_span,
                kind,
            });
            return; // stale reply after timeout/retry
        };
        match pending {
            Pending::Ns => self.on_ns_reply(ctx, msg),
            Pending::IndexRead { .. } | Pending::LocQuery { .. } | Pending::Delete => {
                self.on_open_reply(ctx, from, pending, msg)
            }
            Pending::DataRead { .. } | Pending::EcLoc { .. } | Pending::EcShard { .. } => {
                self.on_read_reply(ctx, from, pending, msg)
            }
            Pending::ShadowCreate { .. } | Pending::ShadowWrite { .. } | Pending::DirectWrite => {
                self.on_write_reply(ctx, pending, msg)
            }
            Pending::CommitBegin
            | Pending::Prepare
            | Pending::Commit2
            | Pending::CommitEnd
            | Pending::EagerSync => self.on_commit_reply(ctx, pending, msg),
            // Answered by multicast, ended by its deadline.
            Pending::Backup { .. } => {}
        }
    }

    /// The op's namespace RPC was answered.
    fn on_ns_reply(&mut self, ctx: &mut impl Transport, msg: Msg) {
        match msg {
            Msg::NsMkdirR { result, .. } | Msg::NsRenameR { result, .. } => {
                self.complete_op(ctx, result.err(), 0, None);
            }
            Msg::NsListR { result: Ok(names), .. } => {
                let blob = names.join("\n").into_bytes();
                let n = names.len() as u64;
                self.complete_op(ctx, None, n, Some(blob.into()));
            }
            Msg::NsLookupR { result: Ok(entry), .. } => match self.op() {
                Some(ClientOp::Stat { .. }) => self.complete_op(ctx, None, entry.size, None),
                Some(ClientOp::AtomicAppend { .. }) => self.on_append_entry(ctx, entry),
                _ => self.on_entry_resolved(ctx, entry),
            },
            Msg::NsCreateR { result: Ok(entry), .. } => self.on_entry_resolved(ctx, entry),
            Msg::NsRemoveR { result: Ok(entry), .. } => self.on_removed(ctx, entry),
            Msg::NsListR { result: Err(e), .. }
            | Msg::NsLookupR { result: Err(e), .. }
            | Msg::NsCreateR { result: Err(e), .. }
            | Msg::NsRemoveR { result: Err(e), .. } => self.complete_op(ctx, Some(e), 0, None),
            _ => {}
        }
    }

    fn on_timeout(&mut self, ctx: &mut impl Transport, req: ReqId) {
        self.resends.remove(&req);
        let Some((target, pending)) = self.pending.remove(&req) else {
            return; // reply arrived first
        };
        // In resilient mode (same-request resends enabled) the request
        // was already replayed with backoff; the target is now presumed
        // down, which the typed error states. The classic path keeps
        // `Timeout` so seeded simulation output is unchanged.
        let timeout_err =
            if self.rpc_resends > 0 { Error::Unavailable } else { Error::Timeout };
        // Suspect the unresponsive node: drop it from the local view (it
        // will be re-admitted by its next heartbeat if it is actually
        // alive) and from cached owner lists, so retries pick another
        // replica instead of hammering a dead provider. Namespace nodes
        // are not providers — instead of view eviction, a timed-out
        // shard server flips that shard's sticky standby flag so the
        // retry reaches the survivor.
        if self.is_ns_node(target) {
            self.flip_ns_route(target);
        } else {
            self.members.remove(target);
        }
        if let Some(f) = &mut self.file {
            for owners in f.owners.values_mut() {
                owners.retain(|(id, _)| *id != target);
            }
            f.owners.retain(|_, v| !v.is_empty());
        }
        ctx.metrics().count("client.rpc_timeouts", 1);
        let kind = match &pending {
            Pending::Ns => "ns",
            Pending::IndexRead { .. } => "index_read",
            Pending::LocQuery { .. } => "loc_query",
            Pending::DataRead { .. } => "data_read",
            Pending::ShadowCreate { .. } => "shadow_create",
            Pending::ShadowWrite { .. } => "shadow_write",
            Pending::DirectWrite => "direct_write",
            Pending::Prepare => "prepare",
            Pending::Commit2 => "commit",
            Pending::CommitBegin => "commit_begin",
            Pending::CommitEnd => "commit_end",
            Pending::Backup { .. } => "backup",
            Pending::Delete => "delete",
            Pending::EagerSync => "eager_sync",
            Pending::EcLoc { .. } => "ec_loc",
            Pending::EcShard { .. } => "ec_shard",
        };
        ctx.metrics().count_labeled("client.timeout", kind, 1);
        ctx.record(TelemetryEvent::Timeout {
            span: self.cur_span,
            kind,
        });
        match pending {
            Pending::Backup { .. } => {
                // BackupDeadline handles completion; nothing to do.
            }
            Pending::EcLoc { shard } | Pending::EcShard { shard } => {
                // One shard of a degraded read went dark — the code
                // tolerates up to m of these before the read fails.
                self.ec_shard_failed(ctx, shard);
            }
            Pending::Prepare | Pending::Commit2 | Pending::CommitBegin
            | Pending::CommitEnd => {
                self.abort_commit(ctx, timeout_err);
            }
            // A sync or a delete that times out counts as answered: the
            // commit or the unlink goes on without it.
            Pending::EagerSync => self.on_synced(ctx),
            Pending::Delete => self.on_deleted(ctx),
            _ => {
                self.retry_or_fail(ctx, timeout_err);
            }
        }
    }
}

/// Runtime entry points: shared by the simulator (via the thin [`Node`]
/// impl below) and the real-process runtime (`sorrentoctl` drives the
/// same machine over TCP).
impl SorrentoClient {
    /// Bring the client online and issue the workload's first op.
    pub fn handle_start(&mut self, ctx: &mut impl Transport) {
        self.my_machine = ctx.machine_of(ctx.id());
        ctx.set_timer(self.costs.heartbeat_interval, Msg::Tick(Tick::Membership));
        if !self.ns_shards.is_empty() {
            // Sharded deployments only: unsharded seeded runs must stay
            // byte-identical, so the refresh timer never exists there.
            ctx.set_timer(self.costs.heartbeat_interval, Msg::Tick(Tick::ShardMapRefresh));
        }
        if self.members.mode() == MembershipMode::Swim {
            // Gossip deployments only (same byte-identical rule): no
            // heartbeats will arrive, so pull digests instead.
            ctx.set_timer(self.costs.heartbeat_interval, Msg::Tick(Tick::MembersRefresh));
        }
        self.pull_next_op(ctx);
    }

    /// Process one delivered message or fired timer.
    pub fn handle_message(&mut self, from: NodeId, msg: Msg, ctx: &mut impl Transport) {
        if self.members.on_pull(from, &msg, ctx) {
            return;
        }
        match msg {
            Msg::Tick(Tick::NextOp) => {
                // Think finished, or we were waiting for providers.
                if matches!(self.phase(), Some(Phase::Thinking)) {
                    self.complete_op(ctx, None, 0, None);
                } else {
                    self.pull_next_op(ctx);
                }
            }
            Msg::Tick(Tick::AppendRetry) => {
                if self.op.is_some() {
                    self.refresh_for_append(ctx);
                }
            }
            Msg::Tick(Tick::CommitBeginRetry) => {
                if matches!(self.phase(), Some(Phase::Committing(_))) {
                    self.issue_commit_begin(ctx);
                }
            }
            Msg::Tick(Tick::RpcTimeout(req)) => self.on_timeout(ctx, req),
            Msg::Tick(Tick::RpcResend(req)) => self.on_resend(ctx, req),
            Msg::Tick(Tick::OpDeadline(gen)) => {
                // Only the op that armed this deadline may be killed by
                // it; a successor op bumps `op_gen`.
                if self.op.is_some() && gen == self.op_gen {
                    ctx.metrics().count("client.deadline_exceeded", 1);
                    self.complete_op(ctx, Some(Error::DeadlineExceeded), 0, None);
                }
            }
            Msg::Tick(Tick::BackupDeadline(req)) => self.on_backup_deadline(ctx, req),
            Msg::Tick(Tick::ShardMapRefresh) => {
                if !self.ns_shards.is_empty() {
                    // Fire-and-forget: no pending entry, the periodic
                    // timer is its own retry.
                    let req = self.fresh_req();
                    let to = self.ns_route(0);
                    ctx.send(to, Msg::ShardMapQuery { req });
                    ctx.set_timer(
                        self.costs.heartbeat_interval,
                        Msg::Tick(Tick::ShardMapRefresh),
                    );
                }
            }
            Msg::Tick(_) => {}
            Msg::ShardMapR { rows, .. } => {
                if !rows.is_empty() && !self.ns_shards.is_empty() {
                    let rows = rows
                        .into_iter()
                        .map(|(_, primary, standby)| crate::nsmap::ShardInfo { primary, standby })
                        .collect();
                    // A promoted standby now appears as its shard's
                    // primary, so the sticky flips reset.
                    self.set_ns_shards(crate::nsmap::NsShardMap::from_rows(rows));
                }
            }
            Msg::BackupQueryR { req, version, .. } => {
                if let Some((_, Pending::Backup { hits, .. })) = self.pending.get_mut(&req) {
                    hits.push((from, version));
                }
            }
            other => {
                if let Some(req) = reply_req(&other) {
                    self.on_reply(ctx, from, req, other);
                }
            }
        }
    }
}

impl Node<Msg> for SorrentoClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.handle_start(ctx)
    }

    fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        self.handle_message(from, msg, ctx)
    }
}

/// The correlation id of a reply message, if it is one.
fn reply_req(msg: &Msg) -> Option<ReqId> {
    match msg {
        Msg::NsLookupR { req, .. }
        | Msg::NsCreateR { req, .. }
        | Msg::NsMkdirR { req, .. }
        | Msg::NsRenameR { req, .. }
        | Msg::NsRemoveR { req, .. }
        | Msg::NsListR { req, .. }
        | Msg::NsCommitBeginR { req, .. }
        | Msg::NsCommitEndR { req, .. }
        | Msg::LocQueryR { req, .. }
        | Msg::ReadSegR { req, .. }
        | Msg::CreateShadowR { req, .. }
        | Msg::WriteShadowR { req, .. }
        | Msg::ReadShadowR { req, .. }
        | Msg::PrepareR { req, .. }
        | Msg::CommitR { req, .. }
        | Msg::DirectWriteR { req, .. }
        | Msg::DeleteSegR { req, .. }
        | Msg::SyncDone { req, .. } => Some(*req),
        _ => None,
    }
}
