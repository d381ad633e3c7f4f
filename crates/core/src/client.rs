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

use std::collections::{HashMap, VecDeque};

use rand::seq::SliceRandom;
use rand::Rng;
use sorrento_sim::{Ctx, Dur, Node, NodeId, SimTime, SpanId, TelemetryEvent};

use crate::transport::Transport;

use crate::costs::CostModel;
use crate::layout::{Extent, IndexSegment, WritePlan, WriteViews};
use crate::placement::{candidates_from_view, select_provider};
use crate::proto::{decode_index, encode_index, FileEntry, Msg, ReadReply, ReqId, Tick};
use crate::provider::membership::Membership;
use crate::swim::MembershipMode;
use crate::store::{SegMeta, ShadowId, WritePayload};
use crate::types::{Error, FileId, FileOptions, PlacementPolicy, SegId, Version};

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
#[derive(Debug, Clone)]
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
    Backup { seg: SegId },
    Delete,
    EagerSync,
    /// Degraded EC read: locating shard `shard` (data-then-parity index).
    EcLoc { shard: usize },
    /// Degraded EC read: fetching shard `shard` in full.
    EcShard { shard: usize },
}

/// Per-shard state of an in-flight degraded erasure-coded read
/// (data shards first, then parity, matching codec order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShardState {
    /// Locate/fetch still in flight.
    Pending,
    /// Full shard bytes in hand.
    Fetched,
    /// No live owner: must be reconstructed (data shards only).
    Lost,
    /// Unavailable parity shard (nothing to reconstruct into the read).
    Failed,
}

/// An in-flight degraded read: the client is fetching whole shards of
/// an erasure-coded file to reconstruct extents whose data shards have
/// no live owner (§3.4.2 failover, EC variant). Lives beside the
/// regular `Phase::Reading` state — healthy extents keep streaming
/// while the reconstruction gathers its k survivors.
#[derive(Debug)]
struct EcRead {
    /// Per-shard progress, `k` data shards then `m` parity shards.
    states: Vec<ShardState>,
    /// Fetched shard bytes (pre-padding), same order as `states`.
    bufs: Vec<Option<Vec<u8>>>,
    /// Shards fetched so far; `k` of them complete the reconstruction.
    fetched: usize,
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
        /// back by [`READ_PIECES_MAX`]; first in, first out.
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
        entry: Option<FileEntry>,
        index: Option<IndexSegment>,
        /// Segments whose owners still need resolving.
        to_locate: Vec<SegId>,
        /// (seg, owner) pairs to delete.
        deletes: Vec<(SegId, NodeId)>,
        outstanding: usize,
    },
    /// Think timer running.
    Thinking,
}

/// Progress of one extent of a read. Without bulk pipelining an extent
/// is a single `ReadSeg`. With it ([`SorrentoClient::write_chunk`]) an
/// extent longer than the chunk is requested chunk by chunk, at most
/// [`SorrentoClient::write_window`] requests in flight — the mirror of
/// [`ChunkWrite`] — so each reply is a small frame that is copied into
/// the result and dropped at once, and neither side ever buffers a
/// whole segment.
#[derive(Debug, Clone, Default)]
struct ExtentRead {
    /// Offset within the extent of the first byte not yet requested.
    next: u64,
    /// Requests in flight.
    inflight: usize,
    /// `(offset, len)` of requests an owner failed: to be sent again.
    redo: Vec<(u64, u64)>,
    /// Whether the extent sits in `Phase::Reading::waiting`.
    parked: bool,
}

/// Most `ReadSeg`s one pipelined read keeps in flight over all its
/// extents. The per-extent window bounds bytes per segment; this bounds
/// a read of many small extents (a striped file is 64 KiB stripe units,
/// 2,048 of them in 128 MiB) to a quarter of the 256 frames a mesh
/// queues per peer before it drops, wherever the segments live.
const READ_PIECES_MAX: usize = 64;

/// Where a `WriteShadow` of the current op lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ShadowTarget {
    /// Extent `i` of the write in progress.
    Extent(usize),
    /// Parity shard `r` of an erasure-coded commit.
    Parity(usize),
    /// The index segment of a commit.
    Index,
}

/// Progress of one pipelined chunked shadow write: the full payload (a
/// shared view, so chunk slices are O(1)) bound for offset `at` of
/// `seg`'s shadow, and the offset in it of the first byte not yet sent.
/// In-flight chunks are counted with the stage's other shadow writes.
#[derive(Debug)]
struct ChunkWrite {
    seg: SegId,
    at: u64,
    data: bytes::Bytes,
    next: u64,
}

/// Sub-stages of the commit flow (Figure 6 steps 6–12).
#[derive(Debug)]
enum CommitStage {
    /// Erasure-coded files only: shipping the m parity shards (shadow
    /// create + full-content write each) before the index shadow.
    Parity {
        /// Parity shadows not yet created plus `WriteShadow`s in flight.
        outstanding: usize,
        /// The shards' contents, in `index.parity` order.
        parity: Vec<WritePayload>,
        /// Pipelined chunked shard writes, as `Phase::Writing::chunked`.
        chunked: HashMap<ShadowTarget, ChunkWrite>,
    },
    /// Creating the shadow of the index segment (step 6).
    IndexShadow,
    /// Writing the new index contents into its shadow.
    IndexWrite,
    /// Namespace approval (step 7).
    Begin,
    /// 2PC prepare (step 8).
    Prepare { outstanding: usize, failed: bool },
    /// 2PC commit (step 8).
    Commit { outstanding: usize },
    /// Namespace completion (step 9).
    End,
    /// Eager propagation: waiting for replica syncs (§3.6 synchronous
    /// commitment).
    Eager { outstanding: usize },
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
    /// Backup-query responders for the request id that triggered it.
    backup_hits: HashMap<ReqId, Vec<(NodeId, Version)>>,
    next_req: ReqId,
    seg_counter: u64,
    my_machine: u32,
    /// Remaining atomic-append retries for the current op.
    append_retries: u32,
    /// Pending append payload being retried.
    append_payload: Option<WritePayload>,
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
            backup_hits: HashMap::new(),
            next_req: 1,
            seg_counter: 0,
            my_machine: 0,
            append_retries: 0,
            append_payload: None,
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
        for (k, row) in self.ns_shards.iter() {
            let k = k as usize;
            let using_standby = self.ns_use_standby.get(k).copied().unwrap_or(false);
            let current = if using_standby {
                row.standby.unwrap_or(row.primary)
            } else {
                row.primary
            };
            if current == target {
                if let Some(f) = self.ns_use_standby.get_mut(k) {
                    *f = !using_standby && row.standby.is_some();
                }
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

    /// Issue an RPC with a timeout guard.
    fn rpc(&mut self, ctx: &mut impl Transport, to: NodeId, msg: Msg, pending: Pending) -> ReqId {
        let req = match &msg {
            Msg::NsLookup { req, .. }
            | Msg::NsCreate { req, .. }
            | Msg::NsMkdir { req, .. }
            | Msg::NsRename { req, .. }
            | Msg::NsRemove { req, .. }
            | Msg::NsList { req, .. }
            | Msg::NsCommitBegin { req, .. }
            | Msg::NsCommitEnd { req, .. }
            | Msg::LocQuery { req, .. }
            | Msg::ReadSeg { req, .. }
            | Msg::CreateShadow { req, .. }
            | Msg::WriteShadow { req, .. }
            | Msg::ReadShadow { req, .. }
            | Msg::Prepare { req, .. }
            | Msg::Commit { req, .. }
            | Msg::DirectWrite { req, .. }
            | Msg::DeleteSeg { req, .. }
            | Msg::SyncRequest { req, .. } => *req,
            _ => unreachable!("rpc() called with a non-request message"),
        };
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
        req
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

    /// Providers already holding (or assigned, or being asked for) any
    /// *other* shard of the open erasure-coded file. Placement excludes
    /// them so the k+m shards land on distinct providers — a single
    /// crash must cost at most one shard of each code group. Empty for
    /// non-EC files: their placement is unconstrained.
    fn ec_sibling_providers(&self, seg: SegId) -> Vec<NodeId> {
        let Some(f) = &self.file else {
            return Vec::new();
        };
        if f.entry.options.ec.is_none() {
            return Vec::new();
        }
        let index_seg = f.entry.file.index_segment();
        let mut out: Vec<NodeId> = Vec::new();
        for (&s, sref) in &f.shadows {
            if s != seg && s != index_seg && !out.contains(&sref.provider) {
                out.push(sref.provider);
            }
        }
        for (&s, owners) in &f.owners {
            if s == seg || s == index_seg {
                continue;
            }
            for (id, _) in owners {
                if !out.contains(id) {
                    out.push(*id);
                }
            }
        }
        // Placements still in flight: their shadows aren't recorded yet.
        for (_, p) in self.pending.values() {
            if let Pending::ShadowCreate { seg: s, provider, .. } = p {
                if *s != seg && *s != index_seg && !out.contains(provider) {
                    out.push(*provider);
                }
            }
        }
        out
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

    /// Data-read requests awaiting a reply, counted per extent of the
    /// read in progress (diagnostics: what the bulk window bounds).
    pub fn reads_in_flight(&self) -> HashMap<usize, usize> {
        let mut per_extent = HashMap::new();
        for (_, p) in self.pending.values() {
            if let Pending::DataRead { extent, .. } = p {
                *per_extent.entry(*extent).or_insert(0) += 1;
            }
        }
        per_extent
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
                let req = self.fresh_req();
                let to = self.ns_for(&path);
                self.rpc(ctx, to, Msg::NsMkdir { req, path }, Pending::Ns);
            }
            ClientOp::Rename { src, dst } => {
                let req = self.fresh_req();
                let to = self.ns_for(&src);
                self.rpc(ctx, to, Msg::NsRename { req, src, dst }, Pending::Ns);
            }
            ClientOp::Stat { path } => {
                let req = self.fresh_req();
                let to = self.ns_for(&path);
                self.rpc(ctx, to, Msg::NsLookup { req, path }, Pending::Ns);
            }
            ClientOp::List { path } => {
                let req = self.fresh_req();
                // `ls` goes to the shard holding the directory's
                // children, not the one holding the directory's entry.
                let to = self.ns_for_dir(&path);
                self.rpc(ctx, to, Msg::NsList { req, path }, Pending::Ns);
            }
            ClientOp::Create { path } => {
                let options = self.default_options;
                self.start_create(ctx, path, options);
            }
            ClientOp::CreateWith { path, options } => {
                self.start_create(ctx, path, options);
            }
            ClientOp::Open { path, .. } => {
                let req = self.fresh_req();
                let to = self.ns_for(&path);
                self.rpc(ctx, to, Msg::NsLookup { req, path }, Pending::Ns);
            }
            ClientOp::Read { offset, len } => self.start_read(ctx, offset, len),
            ClientOp::Write { offset, payload } => self.start_write(ctx, offset, payload),
            ClientOp::Append { payload } => {
                let offset = self.file.as_ref().map(|f| f.index.size).unwrap_or(0);
                self.start_write(ctx, offset, payload);
            }
            ClientOp::AtomicAppend { payload } => {
                self.append_payload = Some(payload.clone());
                let offset = self.file.as_ref().map(|f| f.index.size).unwrap_or(0);
                self.start_write(ctx, offset, payload);
            }
            ClientOp::Sync | ClientOp::Close => self.start_commit(ctx),
            ClientOp::Unlink { path } => {
                if let Some((_, _, phase, _)) = &mut self.op {
                    *phase = Phase::Unlinking {
                        entry: None,
                        index: None,
                        to_locate: Vec::new(),
                        deletes: Vec::new(),
                        outstanding: 0,
                    };
                }
                let req = self.fresh_req();
                let to = self.ns_for(&path);
                self.rpc(ctx, to, Msg::NsRemove { req, path }, Pending::Ns);
            }
            ClientOp::Think { .. } => {}
        }
    }

    fn start_create(&mut self, ctx: &mut impl Transport, path: String, options: FileOptions) {
        let file: FileId = self.fresh_seg(ctx).into();
        let req = self.fresh_req();
        let to = self.ns_for(&path);
        self.rpc(
            ctx,
            to,
            Msg::NsCreate {
                req,
                path,
                file,
                options,
            },
            Pending::Ns,
        );
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
        if let Some((_, _, phase, _)) = &mut self.op {
            *phase = Phase::NsSimple;
        }
        self.dispatch_stage(ctx);
    }

    // ------------------------------------------------------------------
    // Open flow
    // ------------------------------------------------------------------

    fn on_entry_resolved(&mut self, ctx: &mut impl Transport, entry: FileEntry) {
        let Some((op, _, phase, _)) = &mut self.op else {
            return;
        };
        let (writable, is_create) = match op {
            ClientOp::Create { .. } | ClientOp::CreateWith { .. } => (true, true),
            ClientOp::Open { write, .. } => (*write, false),
            _ => (false, false),
        };
        let path = match op {
            ClientOp::Create { path }
            | ClientOp::CreateWith { path, .. }
            | ClientOp::Open { path, .. } => path.clone(),
            _ => String::new(),
        };
        if is_create || entry.version == Version::INITIAL {
            // Nothing committed yet: fresh index, no segment reads. A
            // freshly created file is born dirty so that close commits
            // its (possibly empty) index segment — creation is not
            // durable in the data plane until that first commit.
            self.file = Some(OpenFile {
                path,
                index: IndexSegment::new(entry.file, entry.options),
                entry,
                writable,
                dirty: is_create,
                owners: HashMap::new(),
                shadows: HashMap::new(),
                index_owner: None,
                commit_target: None,
                attached_buf: Vec::new(),
                synthetic: false,
                ec_views: WriteViews::default(),
                opened_size: 0,
            });
            self.complete_op(ctx, None, 0, None);
            return;
        }
        // Read the index segment via its home host (Figure 7 step 2).
        *phase = Phase::OpenIndex;
        self.file = Some(OpenFile {
            path,
            index: IndexSegment::new(entry.file, entry.options),
            entry: entry.clone(),
            writable,
            dirty: false,
            owners: HashMap::new(),
            shadows: HashMap::new(),
            index_owner: None,
            commit_target: None,
            attached_buf: Vec::new(),
            synthetic: false,
            ec_views: WriteViews::default(),
            opened_size: 0,
        });
        self.read_index_segment(ctx, entry.file.index_segment(), entry.version);
    }

    fn read_index_segment(&mut self, ctx: &mut impl Transport, seg: SegId, version: Version) {
        let Some(home) = self.members.home(seg) else {
            self.retry_or_fail(ctx, Error::Timeout);
            return;
        };
        let req = self.fresh_req();
        self.rpc(
            ctx,
            home,
            Msg::ReadSeg {
                req,
                seg,
                offset: 0,
                len: u64::MAX,
                min_version: Some(version),
                allow_redirect: true,
            },
            Pending::IndexRead { owner_known: false },
        );
    }

    fn on_index_read(&mut self, ctx: &mut impl Transport, from: NodeId, reply: ReadReply, owner_known: bool) {
        match reply {
            ReadReply::Data { data, .. } => {
                let Some(bytes) = data else {
                    self.retry_or_fail(ctx, Error::NoSuchSegment);
                    return;
                };
                let ix = match decode_index(&bytes) {
                    Ok(ix) => ix,
                    Err(e) => {
                        ctx.metrics().count_labeled("index_decode_error", e.label(), 1);
                        self.retry_or_fail(ctx, Error::NoSuchSegment);
                        return;
                    }
                };
                if let Some(f) = &mut self.file {
                    f.attached_buf = ix.attached.clone().unwrap_or_default();
                    f.synthetic = ix.is_attached && ix.attached.is_none() && ix.size > 0;
                    f.opened_size = ix.size;
                    f.index = ix;
                    f.index_owner = Some(from);
                }
                self.complete_op(ctx, None, 0, None);
            }
            ReadReply::Redirect(owners) => {
                let seg = self
                    .file
                    .as_ref()
                    .map(|f| f.entry.file.index_segment())
                    .expect("open flow has a file");
                let version = self.file.as_ref().map(|f| f.entry.version);
                let Some(owner) = self.choose_owner(&owners, version, ctx.rng())
                else {
                    self.retry_or_fail(ctx, Error::NoSuchSegment);
                    return;
                };
                let req = self.fresh_req();
                self.rpc(
                    ctx,
                    owner,
                    Msg::ReadSeg {
                        req,
                        seg,
                        offset: 0,
                        len: u64::MAX,
                        min_version: version,
                        allow_redirect: false,
                    },
                    Pending::IndexRead { owner_known: true },
                );
            }
            ReadReply::Err(_) if !owner_known => {
                // Base scheme failed: fall back to the multicast backup
                // query (§3.4.2).
                let seg = self
                    .file
                    .as_ref()
                    .map(|f| f.entry.file.index_segment())
                    .expect("open flow has a file");
                self.start_backup_query(ctx, seg);
            }
            ReadReply::Err(e) => {
                self.retry_or_fail(ctx, e);
            }
        }
    }

    fn start_backup_query(&mut self, ctx: &mut impl Transport, seg: SegId) {
        let req = self.fresh_req();
        self.pending.insert(req, (ctx.id(), Pending::Backup { seg }));
        self.backup_hits.insert(req, Vec::new());
        ctx.record(TelemetryEvent::BackupQuery {
            span: self.cur_span,
            seg: seg.0,
        });
        ctx.multicast(Msg::BackupQuery { req, seg });
        ctx.set_timer(
            self.costs.backup_query_wait,
            Msg::Tick(Tick::BackupDeadline(req)),
        );
        ctx.metrics().count("client.backup_queries", 1);
    }

    fn on_backup_deadline(&mut self, ctx: &mut impl Transport, req: ReqId) {
        let Some((_, Pending::Backup { seg })) = self.pending.remove(&req) else {
            return;
        };
        let hits = self.backup_hits.remove(&req).unwrap_or_default();
        if hits.is_empty() {
            // The segment is genuinely gone cluster-wide. For a read of
            // an erasure-coded file this is not fatal: fall into the
            // degraded path and reconstruct from k surviving shards.
            if self.try_ec_degraded(ctx, seg) {
                return;
            }
            self.retry_or_fail(ctx, Error::NoSuchSegment);
            return;
        }
        // Record owners and resume whatever stage needed them.
        if let Some(f) = &mut self.file {
            f.owners.insert(seg, hits.clone());
        }
        match self.op.as_ref().map(|(_, _, p, _)| p) {
            Some(Phase::OpenIndex) => {
                let version = self.file.as_ref().map(|f| f.entry.version);
                let owner = self
                    .choose_owner(&hits, version, ctx.rng())
                    .expect("hits nonempty");
                let req2 = self.fresh_req();
                self.rpc(
                    ctx,
                    owner,
                    Msg::ReadSeg {
                        req: req2,
                        seg,
                        offset: 0,
                        len: u64::MAX,
                        min_version: version,
                        allow_redirect: false,
                    },
                    Pending::IndexRead { owner_known: true },
                );
            }
            Some(Phase::Reading { .. }) => self.continue_read(ctx),
            Some(Phase::Writing { .. }) => {
                let direct = self
                    .file
                    .as_ref()
                    .map(|f| f.entry.options.versioning_off)
                    .unwrap_or(false);
                if direct {
                    self.continue_direct_write(ctx);
                } else {
                    self.continue_write(ctx);
                }
            }
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Read flow
    // ------------------------------------------------------------------

    fn start_read(&mut self, ctx: &mut impl Transport, offset: u64, len: u64) {
        self.scatter_bytes = len.min(512 << 20);
        let Some(f) = &self.file else {
            self.complete_op(ctx, Some(Error::NotFound), 0, None);
            return;
        };
        // Attached small files were fetched with the index at open time.
        if f.index.is_attached {
            let end = (offset + len).min(f.index.size);
            let covered = end.saturating_sub(offset);
            let data = if f.synthetic {
                None
            } else {
                let s = offset.min(f.attached_buf.len() as u64) as usize;
                let e = end.min(f.attached_buf.len() as u64) as usize;
                let mut out = vec![0u8; covered as usize];
                out[..e - s].copy_from_slice(&f.attached_buf[s..e]);
                Some(out.into())
            };
            self.complete_op(ctx, None, covered, data);
            return;
        }
        let extents = f.index.locate(offset, len);
        if extents.is_empty() {
            self.complete_op(ctx, None, 0, Some(bytes::Bytes::new()));
            return;
        }
        let covered: u64 = extents.iter().map(|e| e.len).sum();
        let real = !f.synthetic;
        if let Some((_, _, phase, _)) = &mut self.op {
            *phase = Phase::Reading {
                unresolved: (0..extents.len()).collect(),
                progress: vec![ExtentRead::default(); extents.len()],
                extents,
                // Zeroed by the allocator, not by a fill: a result above
                // its mmap threshold is untouched pages until a reply
                // lands on them, and short replies leave holes as zeros.
                buf: real.then(|| vec![0u8; covered as usize]),
                direct: None,
                req_offset: offset,
                outstanding: 0,
                waiting: VecDeque::new(),
                bytes: 0,
            };
        }
        self.continue_read(ctx);
    }

    /// Drive the read: resolve owners for unresolved extents, issue data
    /// fetches for resolved ones.
    fn continue_read(&mut self, ctx: &mut impl Transport) {
        let (extents, unresolved_now) = match &mut self.op {
            Some((_, _, Phase::Reading { extents, unresolved, .. }, _)) => {
                (extents.clone(), std::mem::take(unresolved))
            }
            _ => return,
        };
        let mut still_unresolved = Vec::new();
        let mut to_fetch: Vec<usize> = Vec::new();
        let mut to_query: Vec<SegId> = Vec::new();
        {
            let f = self.file.as_ref().expect("read has open file");
            for &i in &unresolved_now {
                if f.owners.contains_key(&extents[i].seg) {
                    to_fetch.push(i);
                } else {
                    still_unresolved.push(i);
                    if !to_query.contains(&extents[i].seg) {
                        to_query.push(extents[i].seg);
                    }
                }
            }
        }
        if let Some((_, _, Phase::Reading { unresolved, .. }, _)) = &mut self.op {
            *unresolved = still_unresolved;
        }
        // Owner-known extents: fetch in parallel.
        for i in to_fetch {
            self.issue_extent_read(ctx, i);
        }
        // Unknown segments: one LocQuery per segment to its home host,
        // skipping segments with a query already in flight.
        let inflight: Vec<SegId> = self
            .pending
            .values()
            .filter_map(|(_, p)| match p {
                Pending::LocQuery { seg } => Some(*seg),
                _ => None,
            })
            .collect();
        for seg in to_query {
            if inflight.contains(&seg) {
                continue;
            }
            let Some(home) = self.members.home(seg) else {
                continue;
            };
            let req = self.fresh_req();
            self.rpc(ctx, home, Msg::LocQuery { req, seg }, Pending::LocQuery { seg });
        }
        self.maybe_finish_read(ctx);
    }

    /// Put requests for extent `i` on the wire until its window is full
    /// or nothing is left to request: the whole extent as one `ReadSeg`,
    /// or, with bulk pipelining on, `write_chunk`-sized pieces of it, at
    /// most `write_window` in flight. Called when the extent's owner is
    /// known and again after every reply, which holds the in-flight
    /// count at the window.
    fn issue_extent_read(&mut self, ctx: &mut impl Transport, i: usize) {
        let chunk = self.write_chunk.filter(|&c| c > 0);
        let window = self.write_window.max(1);
        loop {
            let (seg, seg_offset, version, offset, len) = {
                let Some((
                    _,
                    _,
                    Phase::Reading { extents, progress, outstanding, waiting, .. },
                    _,
                )) = &mut self.op
                else {
                    return;
                };
                let (e, p) = (&extents[i], &mut progress[i]);
                if p.inflight >= window {
                    return;
                }
                let (offset, len) = match p.redo.last() {
                    Some(&piece) => piece,
                    None if p.next < e.len => {
                        let rest = e.len - p.next;
                        (p.next, chunk.map_or(rest, |c| c.min(rest)))
                    }
                    None => return,
                };
                if chunk.is_some() && *outstanding >= READ_PIECES_MAX {
                    if !p.parked {
                        p.parked = true;
                        waiting.push_back(i);
                    }
                    return;
                }
                (e.seg, e.seg_offset, e.version, offset, len)
            };
            let owners = self.file.as_ref().and_then(|f| f.owners.get(&seg));
            let owners = owners.map_or(&[][..], Vec::as_slice);
            let choice = self.choose_owner(owners, Some(version), ctx.rng());
            let Some(owner) = choice else {
                // Every cached owner is gone: the extent goes back to the
                // unresolved set (losing it here would let the read
                // "complete" with an unfilled buffer) and a backup query
                // refreshes the owner list.
                if let Some(f) = &mut self.file {
                    f.owners.remove(&seg);
                }
                if let Some((_, _, Phase::Reading { unresolved, .. }, _)) = &mut self.op {
                    if !unresolved.contains(&i) {
                        unresolved.push(i);
                    }
                }
                self.start_backup_query(ctx, seg);
                return;
            };
            if let Some((_, _, Phase::Reading { progress, outstanding, .. }, _)) = &mut self.op {
                let p = &mut progress[i];
                if p.redo.pop().is_none() {
                    p.next = offset + len;
                }
                p.inflight += 1;
                *outstanding += 1;
            }
            let req = self.fresh_req();
            self.rpc(
                ctx,
                owner,
                Msg::ReadSeg {
                    req,
                    seg,
                    offset: seg_offset + offset,
                    len,
                    min_version: Some(version),
                    allow_redirect: false,
                },
                Pending::DataRead { extent: i, offset, len },
            );
        }
    }

    /// A request of the read completed: let waiting extents use the
    /// room under [`READ_PIECES_MAX`].
    fn issue_waiting_reads(&mut self, ctx: &mut impl Transport) {
        loop {
            let Some((_, _, Phase::Reading { progress, outstanding, waiting, .. }, _)) =
                &mut self.op
            else {
                return;
            };
            if *outstanding >= READ_PIECES_MAX {
                return;
            }
            let Some(i) = waiting.pop_front() else {
                return;
            };
            progress[i].parked = false;
            self.issue_extent_read(ctx, i);
        }
    }

    /// A reply to the `ReadSeg` for `[offset, offset+len)` of extent `i`.
    fn on_data_read(
        &mut self,
        ctx: &mut impl Transport,
        i: usize,
        offset: u64,
        len: u64,
        from: NodeId,
        reply: ReadReply,
    ) {
        let seg = {
            let Some((_, _, Phase::Reading { extents, progress, outstanding, .. }, _)) =
                &mut self.op
            else {
                return;
            };
            *outstanding -= 1;
            progress[i].inflight -= 1;
            extents[i].seg
        };
        match reply {
            ReadReply::Data { len: got, data, .. } => {
                let Some((_, _, Phase::Reading { extents, buf, direct, req_offset, bytes, .. }, _)) =
                    &mut self.op
                else {
                    return;
                };
                *bytes += got;
                if let (Some(buf), Some(d)) = (buf.as_mut(), data) {
                    let start = (extents[i].file_offset - *req_offset + offset) as usize;
                    if extents.len() == 1 && start == 0 && d.len() == buf.len() {
                        // Whole request answered by one reply: hand the
                        // wire payload through without copying.
                        *direct = Some(d);
                    } else {
                        // Copied into place and dropped here, so the
                        // buffer the reply landed in is free for the next.
                        let n = d.len().min(buf.len() - start);
                        buf[start..start + n].copy_from_slice(&d[..n]);
                    }
                }
                // A finished piece frees a slot in the extent's window.
                self.issue_extent_read(ctx, i);
                self.issue_waiting_reads(ctx);
                self.maybe_finish_read(ctx);
            }
            ReadReply::Redirect(owners) => {
                // Shouldn't happen with allow_redirect=false, but handle:
                // cache and retry.
                if let Some(f) = &mut self.file {
                    f.owners.insert(seg, owners);
                }
                if let Some((_, _, Phase::Reading { progress, .. }, _)) = &mut self.op {
                    progress[i].redo.push((offset, len));
                }
                self.issue_extent_read(ctx, i);
                self.issue_waiting_reads(ctx);
            }
            ReadReply::Err(_) => {
                // Owner lost the segment (or is stale): drop it from the
                // cache and re-resolve this extent.
                if let Some(f) = &mut self.file {
                    if let Some(list) = f.owners.get_mut(&seg) {
                        list.retain(|(id, _)| *id != from);
                        if list.is_empty() {
                            f.owners.remove(&seg);
                        }
                    }
                }
                if let Some((_, _, Phase::Reading { progress, unresolved, .. }, _)) = &mut self.op {
                    progress[i].redo.push((offset, len));
                    if !unresolved.contains(&i) {
                        unresolved.push(i);
                    }
                }
                self.issue_waiting_reads(ctx);
                self.continue_read(ctx);
            }
        }
    }

    fn maybe_finish_read(&mut self, ctx: &mut impl Transport) {
        let Some((
            _,
            _,
            Phase::Reading { unresolved, outstanding, waiting, bytes, buf, direct, .. },
            _,
        )) = &mut self.op
        else {
            return;
        };
        if *outstanding == 0
            && unresolved.is_empty()
            && waiting.is_empty()
            && self.pending.is_empty()
        {
            let bytes = *bytes;
            // The result leaves by move: the op is over, nobody else
            // needs the assembly buffer.
            let data = direct.take().or_else(|| buf.take().map(bytes::Bytes::from));
            self.complete_op(ctx, None, bytes, data);
        }
    }

    // ------------------------------------------------------------------
    // Degraded erasure-coded reads
    // ------------------------------------------------------------------

    /// A segment of the current read has no live owner cluster-wide. If
    /// the open file is erasure-coded and `seg` is one of its shards,
    /// switch that shard to the degraded path: fetch any k shards of
    /// the code group in full and reconstruct the lost ones inline.
    /// Returns whether the degraded path took over.
    fn try_ec_degraded(&mut self, ctx: &mut impl Transport, seg: SegId) -> bool {
        if !matches!(
            self.op.as_ref().map(|(_, _, p, _)| p),
            Some(Phase::Reading { .. })
        ) {
            return false;
        }
        let (shard, total) = {
            let Some(f) = &self.file else {
                return false;
            };
            let Some(p) = f.entry.options.ec else {
                return false;
            };
            // Without a full shard set committed there is no code group
            // to decode (e.g. the file never reached its first commit).
            if f.index.segments.len() != p.k as usize
                || f.index.parity.len() != p.m as usize
            {
                return false;
            }
            let Some(shard) = f
                .index
                .segments
                .iter()
                .chain(f.index.parity.iter())
                .position(|e| e.seg == seg)
            else {
                return false;
            };
            (shard, p.shards())
        };
        if self.ec_read.is_none() {
            self.ec_read = Some(EcRead {
                states: vec![ShardState::Pending; total],
                bufs: (0..total).map(|_| None).collect(),
                fetched: 0,
            });
            ctx.metrics().count("client.ec_degraded_reads", 1);
            // Every other shard joins the gather; the triggering one is
            // marked lost below.
            for i in 0..total {
                if i != shard {
                    self.issue_ec_shard(ctx, i);
                }
            }
        }
        self.ec_shard_failed(ctx, shard);
        true
    }

    /// The index entry backing shard `i` (data-then-parity order).
    fn ec_entry(f: &OpenFile, shard: usize) -> crate::layout::SegEntry {
        let k = f.index.segments.len();
        if shard < k {
            f.index.segments[shard]
        } else {
            f.index.parity[shard - k]
        }
    }

    /// Fetch shard `shard` in full: straight from a cached owner, or
    /// resolve one through the shard's home host first.
    fn issue_ec_shard(&mut self, ctx: &mut impl Transport, shard: usize) {
        let (seg, version, owners) = {
            let Some(f) = &self.file else {
                return;
            };
            let e = Self::ec_entry(f, shard);
            (e.seg, e.version, f.owners.get(&e.seg).cloned())
        };
        if let Some(owners) = owners {
            if let Some(owner) = self.choose_owner(&owners, Some(version), ctx.rng()) {
                let req = self.fresh_req();
                self.rpc(
                    ctx,
                    owner,
                    Msg::ReadSeg {
                        req,
                        seg,
                        offset: 0,
                        len: u64::MAX,
                        min_version: Some(version),
                        allow_redirect: false,
                    },
                    Pending::EcShard { shard },
                );
                return;
            }
            // Cached owners are all dead; re-resolve below.
            if let Some(f) = &mut self.file {
                f.owners.remove(&seg);
            }
        }
        let Some(home) = self.members.home(seg) else {
            self.ec_shard_failed(ctx, shard);
            return;
        };
        let req = self.fresh_req();
        self.rpc(ctx, home, Msg::LocQuery { req, seg }, Pending::EcLoc { shard });
    }

    /// One shard of the degraded read arrived in full.
    fn on_ec_shard_read(&mut self, ctx: &mut impl Transport, shard: usize, reply: ReadReply) {
        match reply {
            ReadReply::Data { data, .. } => {
                let Some(er) = &mut self.ec_read else {
                    return;
                };
                if er.states[shard] != ShardState::Pending {
                    return;
                }
                er.states[shard] = ShardState::Fetched;
                er.bufs[shard] = data.map(|d| d.to_vec());
                er.fetched += 1;
                self.maybe_finish_ec_read(ctx);
            }
            // allow_redirect is false, so a redirect means the owner
            // table moved under us; treat like any other shard failure —
            // the code tolerates it.
            ReadReply::Redirect(_) | ReadReply::Err(_) => {
                self.ec_shard_failed(ctx, shard);
            }
        }
    }

    /// A shard of the degraded read cannot be fetched. Data shards
    /// become reconstruction targets; parity shards are simply dropped
    /// from the gather. More than m total losses sinks the read.
    fn ec_shard_failed(&mut self, ctx: &mut impl Transport, shard: usize) {
        let (k, m) = match self.file.as_ref().and_then(|f| f.entry.options.ec) {
            Some(p) => (p.k as usize, p.m as usize),
            None => return,
        };
        {
            let Some(er) = &mut self.ec_read else {
                return;
            };
            if er.states[shard] != ShardState::Pending {
                return;
            }
            er.states[shard] = if shard < k {
                ShardState::Lost
            } else {
                ShardState::Failed
            };
            let down = er
                .states
                .iter()
                .filter(|s| matches!(s, ShardState::Lost | ShardState::Failed))
                .count();
            if down > m {
                // More losses than parity: the code cannot recover.
                self.clear_ec_pending();
                self.ec_read = None;
                self.retry_or_fail(ctx, Error::NoSuchSegment);
                return;
            }
        }
        self.maybe_finish_ec_read(ctx);
    }

    fn maybe_finish_ec_read(&mut self, ctx: &mut impl Transport) {
        let (fetched, k) = match (&self.ec_read, self.file.as_ref().and_then(|f| f.entry.options.ec)) {
            (Some(er), Some(p)) => (er.fetched, p.k as usize),
            _ => return,
        };
        if fetched >= k {
            self.finish_ec_read(ctx);
        }
    }

    /// k shards are in hand: reconstruct the rest, fill every extent
    /// the regular read path could not resolve, and resume the read.
    fn finish_ec_read(&mut self, ctx: &mut impl Transport) {
        // Outstanding shard requests beyond the k survivors are moot.
        self.clear_ec_pending();
        let Some(er) = self.ec_read.take() else {
            return;
        };
        let (k, m, shard_len, synthetic, data_segs, file_bits) = {
            let f = self.file.as_ref().expect("read has open file");
            let p = f.entry.options.ec.expect("degraded read has params");
            (
                p.k as usize,
                p.m as usize,
                f.index.ec_shard_len() as usize,
                f.synthetic,
                f.index.segments.iter().map(|e| e.seg).collect::<Vec<SegId>>(),
                f.entry.file.index_segment().0,
            )
        };
        let lost = (er.states.len() - er.fetched) as u8;
        let mut shards: Vec<Option<Vec<u8>>> = vec![None; k + m];
        if !synthetic {
            for (i, b) in er.bufs.into_iter().enumerate() {
                // Shards travel at their stored length; the code works
                // on the padded width.
                shards[i] = b.map(|mut v| {
                    v.resize(shard_len, 0);
                    v
                });
            }
            let decoded = sorrento_ec::ReedSolomon::new(k, m)
                .and_then(|rs| rs.reconstruct(&mut shards));
            if decoded.is_err() {
                self.retry_or_fail(ctx, Error::NoSuchSegment);
                return;
            }
        }
        ctx.record(TelemetryEvent::EcReconstruct {
            span: self.cur_span,
            file: file_bits,
            lost,
        });
        let Some((
            _,
            _,
            Phase::Reading { extents, progress, buf, req_offset, unresolved, bytes, .. },
            _,
        )) = &mut self.op
        else {
            return;
        };
        let req_off = *req_offset;
        for i in unresolved.drain(..) {
            let e = &extents[i];
            // The reconstruction fills the whole extent: nothing of it
            // is left to request.
            progress[i].next = e.len;
            progress[i].redo.clear();
            *bytes += e.len;
            if let Some(buf) = buf.as_mut() {
                let Some(sidx) = data_segs.iter().position(|&s| s == e.seg) else {
                    continue;
                };
                if let Some(Some(shard)) = shards.get(sidx) {
                    let start = (e.file_offset - req_off) as usize;
                    let s = e.seg_offset as usize;
                    let n = e.len as usize;
                    buf[start..start + n].copy_from_slice(&shard[s..s + n]);
                }
            }
        }
        self.maybe_finish_read(ctx);
    }

    /// Drop every in-flight degraded-read request (their late replies
    /// and timers become stale no-ops).
    fn clear_ec_pending(&mut self) {
        let stale: Vec<ReqId> = self
            .pending
            .iter()
            .filter(|(_, (_, p))| matches!(p, Pending::EcLoc { .. } | Pending::EcShard { .. }))
            .map(|(r, _)| *r)
            .collect();
        for r in stale {
            self.pending.remove(&r);
            self.resends.remove(&r);
        }
    }

    // ------------------------------------------------------------------
    // Write flow
    // ------------------------------------------------------------------

    fn start_write(&mut self, ctx: &mut impl Transport, offset: u64, payload: WritePayload) {
        self.scatter_bytes = payload.len();
        let Some(f) = &mut self.file else {
            self.complete_op(ctx, Some(Error::NotFound), 0, None);
            return;
        };
        if !f.writable {
            self.complete_op(ctx, Some(Error::InvalidMode), 0, None);
            return;
        }
        let len = payload.len();
        if matches!(payload, WritePayload::Synthetic { .. }) {
            f.synthetic = true;
        }
        // Erasure-coded files: keep a view of the payload (no copy) so
        // commit can encode parity without reading the shards back.
        if f.entry.options.ec.is_some() {
            if let WritePayload::Real(data) = &payload {
                f.ec_views.put(offset, data.clone());
            }
        }
        // Plan against the layout.
        let mut counter_seed = (self.seg_counter, ctx.id().index() as u32);
        let mut entropy: u64 = ctx.rng().gen();
        let plan = f.index.plan_write(offset, len, || {
            counter_seed.0 += 1;
            entropy = entropy.wrapping_mul(6364136223846793005).wrapping_add(1);
            SegId::derive(counter_seed.1, counter_seed.0, entropy)
        });
        self.seg_counter = counter_seed.0;
        match plan {
            WritePlan::Attached => {
                // Inline write: lands with the index commit.
                if let WritePayload::Real(data) = &payload {
                    let end = offset as usize + data.len();
                    if f.attached_buf.len() < end {
                        f.attached_buf.resize(end, 0);
                    }
                    f.attached_buf[offset as usize..end].copy_from_slice(data);
                    f.index.attached = Some(f.attached_buf.clone());
                }
                f.index.apply_write(offset, len);
                f.dirty = true;
                if matches!(
                    self.op.as_ref().map(|(o, ..)| o),
                    Some(ClientOp::AtomicAppend { .. })
                ) {
                    // Atomic append commits immediately, even inline.
                    self.start_commit(ctx);
                } else {
                    self.complete_op(ctx, None, len, None);
                }
            }
            WritePlan::Extents {
                detach_bytes,
                extents,
            } => {
                f.index.attached = None;
                let direct = f.entry.options.versioning_off;
                if let Some((_, _, phase, _)) = &mut self.op {
                    *phase = Phase::Writing {
                        todo: (0..extents.len()).collect(),
                        extents,
                        outstanding: 0,
                        detach_bytes,
                        write_offset: offset,
                        write_len: len,
                        chunked: HashMap::new(),
                    };
                }
                if direct {
                    self.continue_direct_write(ctx);
                } else {
                    self.continue_write(ctx);
                }
            }
        }
    }

    /// Drive the write: for each extent ensure we have a shadow on some
    /// owner, then issue the shadow writes in parallel.
    fn continue_write(&mut self, ctx: &mut impl Transport) {
        let Some((_, _, Phase::Writing { extents, todo, .. }, _)) = &self.op else {
            return;
        };
        let extents = extents.clone();
        let todo = todo.clone();
        // Requests already in flight must not be re-issued: a duplicate
        // CreateShadow would replace a shadow that has already absorbed
        // writes with a fresh empty one.
        let mut inflight_shadow: Vec<SegId> = Vec::new();
        let mut inflight_query: Vec<SegId> = Vec::new();
        for (_, p) in self.pending.values() {
            match p {
                Pending::ShadowCreate { seg, .. } => inflight_shadow.push(*seg),
                Pending::LocQuery { seg } => inflight_query.push(*seg),
                _ => {}
            }
        }
        let mut ready: Vec<usize> = Vec::new();
        let mut need_shadow: Vec<usize> = Vec::new();
        let mut need_owner: Vec<usize> = Vec::new();
        {
            let f = self.file.as_ref().expect("write has open file");
            for &i in &todo {
                let e = &extents[i];
                if f.shadows.contains_key(&e.seg) {
                    ready.push(i);
                } else if inflight_shadow.contains(&e.seg) {
                    // wait for the in-flight CreateShadow
                } else if e.new_segment || f.owners.contains_key(&e.seg) {
                    need_shadow.push(i);
                } else if !inflight_query.contains(&e.seg) {
                    need_owner.push(i);
                }
            }
        }
        // Create missing shadows (one request per distinct segment).
        let mut issued_segs: Vec<SegId> = Vec::new();
        for i in need_shadow {
            let e = extents[i];
            if issued_segs.contains(&e.seg) {
                continue;
            }
            issued_segs.push(e.seg);
            self.issue_shadow_create(ctx, e);
        }
        // Resolve owners for existing segments we don't know yet.
        let mut queried: Vec<SegId> = Vec::new();
        for i in need_owner {
            let seg = extents[i].seg;
            if queried.contains(&seg) {
                continue;
            }
            queried.push(seg);
            let Some(home) = self.members.home(seg) else {
                continue;
            };
            let req = self.fresh_req();
            self.rpc(ctx, home, Msg::LocQuery { req, seg }, Pending::LocQuery { seg });
        }
        // Extents whose shadows exist: write now.
        for i in ready {
            self.issue_shadow_write(ctx, i);
        }
        self.maybe_finish_write(ctx);
    }

    /// Versioning-off path (§3.5): writes go straight to the segments,
    /// no shadows, no 2PC. New segments are placed like any other; their
    /// index entries jump to version 1 immediately.
    fn continue_direct_write(&mut self, ctx: &mut impl Transport) {
        let (extents, todo) = match &self.op {
            Some((_, _, Phase::Writing { extents, todo, .. }, _)) => {
                (extents.clone(), todo.clone())
            }
            _ => return,
        };
        let mut inflight_query: Vec<SegId> = Vec::new();
        for (_, p) in self.pending.values() {
            if let Pending::LocQuery { seg } = p {
                inflight_query.push(*seg);
            }
        }
        let mut ready: Vec<usize> = Vec::new();
        let mut need_owner: Vec<SegId> = Vec::new();
        {
            let f = self.file.as_ref().expect("write has open file");
            for &i in &todo {
                let e = &extents[i];
                if e.new_segment || f.owners.contains_key(&e.seg) {
                    ready.push(i);
                } else if !inflight_query.contains(&e.seg) && !need_owner.contains(&e.seg) {
                    need_owner.push(e.seg);
                }
            }
        }
        for seg in need_owner {
            let Some(home) = self.members.home(seg) else {
                continue;
            };
            let req = self.fresh_req();
            self.rpc(ctx, home, Msg::LocQuery { req, seg }, Pending::LocQuery { seg });
        }
        for i in ready {
            self.issue_direct_write(ctx, i);
        }
        self.maybe_finish_write(ctx);
    }

    fn issue_direct_write(&mut self, ctx: &mut impl Transport, i: usize) {
        let Some((_, _, Phase::Writing { extents, todo, outstanding, .. }, _)) = &mut self.op
        else {
            return;
        };
        let e = extents[i];
        todo.retain(|&x| x != i);
        *outstanding += 1;
        let (opts, synthetic, owners) = {
            let f = self.file.as_ref().expect("write has open file");
            (
                f.entry.options,
                f.synthetic,
                f.owners.get(&e.seg).cloned().unwrap_or_default(),
            )
        };
        // Versioning-off disables replication (§3.5), so exactly one
        // owner exists per segment.
        let meta = {
            let mut m = SegMeta::from_options(&opts, synthetic);
            m.replication = 1;
            m
        };
        let provider = if e.new_segment && owners.is_empty() {
            let size_hint = crate::layout::linear_segment_size(e.seg_index as u64).min(64 << 20);
            match self.place_segment(ctx, e.seg, size_hint, opts.alpha, opts.placement, &[]) {
                Some(p) => p,
                None => {
                    self.retry_or_fail(ctx, Error::OutOfSpace);
                    return;
                }
            }
        } else {
            match self.choose_owner(&owners, None, ctx.rng()) {
                Some(p) => p,
                None => {
                    // Put the extent back (it was popped from `todo`
                    // above); the backup query will repopulate owners.
                    if let Some(f) = &mut self.file {
                        f.owners.remove(&e.seg);
                    }
                    if let Some((_, _, Phase::Writing { todo, outstanding, .. }, _)) =
                        &mut self.op
                    {
                        if !todo.contains(&i) {
                            todo.push(i);
                        }
                        *outstanding -= 1;
                    }
                    self.start_backup_query(ctx, e.seg);
                    return;
                }
            }
        };
        // Remember the placement so later extents reuse the same owner.
        if let Some(f) = &mut self.file {
            f.owners
                .entry(e.seg)
                .or_insert_with(|| vec![(provider, Version(1))]);
            if e.version == Version::INITIAL {
                // The index changed (a segment came into existence):
                // close must commit the new index. Writes into existing
                // segments leave the index untouched, so concurrent
                // byte-range writers (BTIO's pattern) never conflict.
                f.index.set_segment_version(e.seg, Version(1));
                f.dirty = true;
            }
        }
        let payload = self.extent_payload(&e);
        let req = self.fresh_req();
        self.rpc(
            ctx,
            provider,
            Msg::DirectWrite {
                req,
                seg: e.seg,
                offset: e.seg_offset,
                payload,
                meta,
            },
            Pending::DirectWrite,
        );
    }

    /// The bytes an extent of the current write op carries (shared by the
    /// shadow and direct paths).
    fn extent_payload(&self, e: &Extent) -> WritePayload {
        let Some((_, _, Phase::Writing { detach_bytes, write_offset, .. }, _)) = &self.op else {
            return WritePayload::Synthetic { len: e.len };
        };
        let detach = *detach_bytes;
        let woff = *write_offset;
        let f = self.file.as_ref().expect("write has open file");
        if f.synthetic {
            return WritePayload::Synthetic { len: e.len };
        }
        let ext_start = e.file_offset;
        let ext_end = e.file_offset + e.len;
        // Zero-copy fast path: the extent lies entirely inside the op's
        // payload, so a sub-view of the caller's buffer is the payload —
        // no per-extent allocation, no copy.
        if let Some((
            ClientOp::Write { payload: WritePayload::Real(data), .. }
            | ClientOp::Append { payload: WritePayload::Real(data) }
            | ClientOp::AtomicAppend { payload: WritePayload::Real(data) },
            ..,
        )) = &self.op
        {
            let wend = woff + data.len() as u64;
            if ext_start >= woff && ext_end <= wend {
                let s = (ext_start - woff) as usize;
                return WritePayload::Real(data.slice(s..s + e.len as usize));
            }
        }
        let mut out = vec![0u8; e.len as usize];
        if ext_start < detach {
            let s = ext_start as usize;
            let eidx = ext_end.min(detach) as usize;
            let avail = f.attached_buf.len().min(eidx);
            if s < avail {
                out[..avail - s].copy_from_slice(&f.attached_buf[s..avail]);
            }
        }
        if let Some((
            ClientOp::Write { payload: WritePayload::Real(data), .. }
            | ClientOp::Append { payload: WritePayload::Real(data) }
            | ClientOp::AtomicAppend { payload: WritePayload::Real(data) },
            ..,
        )) = &self.op
        {
            let wend = woff + data.len() as u64;
            let s = ext_start.max(woff);
            let en = ext_end.min(wend);
            if s < en {
                let dst = (s - ext_start) as usize;
                let src = (s - woff) as usize;
                let n = (en - s) as usize;
                out[dst..dst + n].copy_from_slice(&data[src..src + n]);
            }
        }
        WritePayload::Real(out.into())
    }

    fn issue_shadow_create(&mut self, ctx: &mut impl Transport, e: Extent) {
        let f = self.file.as_ref().expect("write has open file");
        let opts = f.entry.options;
        let synthetic = f.synthetic;
        let meta = self.seg_meta(&opts, synthetic);
        let (provider, base, target) = if e.new_segment {
            let size_hint = crate::layout::linear_segment_size(e.seg_index as u64).min(64 << 20);
            let exclude = self.ec_sibling_providers(e.seg);
            let Some(p) =
                self.place_segment(ctx, e.seg, size_hint, opts.alpha, opts.placement, &exclude)
            else {
                self.retry_or_fail(ctx, Error::OutOfSpace);
                return;
            };
            let entropy: u16 = ctx.rng().gen();
            (p, None, Version::INITIAL.next_entropic(entropy))
        } else {
            let owners = f.owners.get(&e.seg).cloned().unwrap_or_default();
            let entropy: u16 = ctx.rng().gen();
            let Some(p) = self.choose_owner(&owners, Some(e.version), ctx.rng())
            else {
                self.start_backup_query(ctx, e.seg);
                return;
            };
            (p, Some(e.version), e.version.next_entropic(entropy))
        };
        let req = self.fresh_req();
        self.rpc(
            ctx,
            provider,
            Msg::CreateShadow {
                req,
                span: self.cur_span,
                seg: e.seg,
                base,
                meta,
            },
            Pending::ShadowCreate {
                seg: e.seg,
                provider,
                target,
            },
        );
    }

    fn issue_shadow_write(&mut self, ctx: &mut impl Transport, i: usize) {
        let Some((_, _, Phase::Writing { extents, todo, .. }, _)) = &mut self.op else {
            return;
        };
        let e = extents[i];
        todo.retain(|&x| x != i);
        let payload = self.extent_payload(&e);
        self.ship(ctx, ShadowTarget::Extent(i), e.seg, e.seg_offset, payload);
    }

    /// The current stage's pipelined chunked writes and its count of
    /// shadow writes in flight: the data extents' while writing, the
    /// parity shards' while an erasure-coded commit ships them.
    fn shipping(&mut self) -> Option<(&mut HashMap<ShadowTarget, ChunkWrite>, &mut usize)> {
        match &mut self.op.as_mut()?.2 {
            Phase::Writing { chunked, outstanding, .. }
            | Phase::Committing(CommitStage::Parity { chunked, outstanding, .. }) => {
                Some((chunked, outstanding))
            }
            _ => None,
        }
    }

    /// Write `payload` at offset `at` of `seg`'s shadow. Pipelined path:
    /// a real payload larger than [`SorrentoClient::write_chunk`] is
    /// split into chunks and a bounded window of them kept in flight to
    /// the owner, so the transfer overlaps instead of travelling as one
    /// huge frame (or, historically, one-at-a-time round trips).
    /// Otherwise it is one `WriteShadow`.
    fn ship(
        &mut self,
        ctx: &mut impl Transport,
        to: ShadowTarget,
        seg: SegId,
        at: u64,
        payload: WritePayload,
    ) {
        let chunk = self.write_chunk.filter(|&c| c > 0);
        if let (Some(chunk), WritePayload::Real(data)) = (chunk, &payload) {
            if data.len() as u64 > chunk {
                let data = data.clone();
                if let Some((chunked, _)) = self.shipping() {
                    chunked.insert(to, ChunkWrite { seg, at, data, next: 0 });
                }
                for _ in 0..self.write_window.max(1) {
                    if !self.issue_next_chunk(ctx, to) {
                        break;
                    }
                }
                return;
            }
        }
        self.send_shadow_write(ctx, to, seg, at, payload);
    }

    /// Put the next chunk of `to`'s pipelined shadow write on the wire,
    /// if any bytes remain unsent. Returns whether a chunk was issued.
    /// Called `write_window` times up front and then once per completed
    /// chunk, which holds the in-flight count at the window.
    fn issue_next_chunk(&mut self, ctx: &mut impl Transport, to: ShadowTarget) -> bool {
        let Some(chunk_size) = self.write_chunk.filter(|&c| c > 0) else {
            return false;
        };
        let (seg, offset, slice) = {
            let Some(st) = self.shipping().and_then(|(chunked, _)| chunked.get_mut(&to)) else {
                return false;
            };
            if st.next >= st.data.len() as u64 {
                return false;
            }
            let start = st.next;
            let end = (start + chunk_size).min(st.data.len() as u64);
            st.next = end;
            (st.seg, st.at + start, st.data.slice(start as usize..end as usize))
        };
        self.send_shadow_write(ctx, to, seg, offset, WritePayload::Real(slice));
        true
    }

    /// One `WriteShadow` into `seg`'s shadow, counted in flight by the
    /// current stage.
    fn send_shadow_write(
        &mut self,
        ctx: &mut impl Transport,
        to: ShadowTarget,
        seg: SegId,
        offset: u64,
        payload: WritePayload,
    ) {
        if let Some((_, outstanding)) = self.shipping() {
            *outstanding += 1;
        }
        if matches!(to, ShadowTarget::Parity(_)) {
            ctx.metrics().count("client.ec_parity_writes", 1);
        }
        let sref = self.file.as_ref().expect("write has open file").shadows[&seg];
        let req = self.fresh_req();
        self.rpc(
            ctx,
            sref.provider,
            Msg::WriteShadow { req, shadow: sref.shadow, offset, payload, truncate: false },
            Pending::ShadowWrite { to },
        );
    }

    fn maybe_finish_write(&mut self, ctx: &mut impl Transport) {
        let Some((_, _, Phase::Writing { todo, outstanding, write_offset, write_len, .. }, _)) =
            &self.op
        else {
            return;
        };
        if !todo.is_empty() || *outstanding > 0 || !self.pending.is_empty() {
            return;
        }
        let (off, len) = (*write_offset, *write_len);
        if let Some(f) = &mut self.file {
            let grew = off + len > f.index.size;
            f.index.apply_write(off, len);
            // Byte-range (versioning-off) writes land in place: only a
            // structural index change — new segments (flagged in
            // issue_direct_write) or size growth — needs a commit.
            if !f.entry.options.versioning_off || grew {
                f.dirty = true;
            }
        }
        // Atomic append proceeds straight into commit.
        if matches!(self.op.as_ref().map(|(o, ..)| o), Some(ClientOp::AtomicAppend { .. })) {
            self.start_commit(ctx);
        } else {
            self.complete_op(ctx, None, len, None);
        }
    }

    // ------------------------------------------------------------------
    // Commit flow (Figure 6 steps 6–12)
    // ------------------------------------------------------------------

    fn start_commit(&mut self, ctx: &mut impl Transport) {
        let Some(f) = &self.file else {
            self.complete_op(ctx, Some(Error::NotFound), 0, None);
            return;
        };
        if !f.dirty || !f.writable {
            // Close without changes: purely local.
            if matches!(self.op.as_ref().map(|(o, ..)| o), Some(ClientOp::Close)) {
                self.file = None;
            }
            self.complete_op(ctx, None, 0, None);
            return;
        }
        if let Some((_, _, phase, _)) = &mut self.op {
            *phase = Phase::Committing(CommitStage::IndexShadow);
        }
        // One target per commit attempt: retries after partial 2PC
        // failures pick a fresh entropy, so an orphaned partial commit
        // can never collide with (and diverge from) a later successful
        // one at the same version number.
        let entropy: u16 = ctx.rng().gen();
        if let Some(f) = &mut self.file {
            f.commit_target = Some(f.entry.version.next_entropic(entropy));
        }
        // Erasure-coded files with detached data first encode and ship
        // the m parity shards; attached (inline) EC files need none —
        // the replicated index carries the bytes.
        let needs_parity = self
            .file
            .as_ref()
            .map(|f| f.entry.options.ec.is_some() && !f.index.segments.is_empty())
            .unwrap_or(false);
        if needs_parity {
            self.start_parity(ctx);
        } else {
            self.issue_index_shadow(ctx);
        }
    }

    /// Begin the parity leg of an erasure-coded commit: materialize the
    /// m parity entries in the index, encode their contents from the
    /// session's write views, and open one shadow per parity shard on a
    /// provider holding no other shard of this file. The shadows then
    /// ride the same 2PC as the data shards.
    fn start_parity(&mut self, ctx: &mut impl Transport) {
        let (k, m, rewrites_all) = {
            let f = self.file.as_ref().expect("commit has open file");
            let p = f.entry.options.ec.expect("EC commit has params");
            (p.k as usize, p.m as usize, f.synthetic || f.ec_views.cover(f.opened_size))
        };
        if !rewrites_all {
            // Bytes the session did not rewrite stay in the based data
            // shadows, but would enter the parity as zeros: a degraded
            // read would then decode them wrong.
            self.abort_commit(ctx, Error::InvalidMode);
            return;
        }
        // Pre-generate the fresh segment ids ensure_parity may need
        // (fresh_seg borrows self, the index borrows the file).
        let missing = {
            let f = self.file.as_ref().expect("commit has open file");
            m.saturating_sub(f.index.parity.len())
        };
        let ids: Vec<SegId> = (0..missing).map(|_| self.fresh_seg(ctx)).collect();
        let mut ids = ids.into_iter();
        let (parity_entries, shard_len, synthetic, opts) = {
            let f = self.file.as_mut().expect("commit has open file");
            f.index.ensure_parity(|| ids.next().expect("pre-generated id"));
            let shard_len = f.index.ec_shard_len();
            for e in &mut f.index.parity {
                e.len = shard_len;
            }
            (f.index.parity.clone(), shard_len, f.synthetic, f.entry.options)
        };
        let parity = if synthetic {
            vec![WritePayload::Synthetic { len: shard_len }; m]
        } else {
            let f = self.file.as_ref().expect("commit has open file");
            let encoded = sorrento_ec::ReedSolomon::new(k, m)
                .and_then(|rs| f.index.ec_parity(&rs, &f.ec_views));
            let Ok(encoded) = encoded else {
                self.abort_commit(ctx, Error::InvalidMode);
                return;
            };
            ctx.record(TelemetryEvent::EcEncode {
                span: self.cur_span,
                file: f.entry.file.index_segment().0,
                k: k as u8,
                m: m as u8,
                parity_bytes: encoded.iter().map(|p| p.len() as u64).sum(),
            });
            encoded.into_iter().map(|p| WritePayload::Real(p.into())).collect()
        };
        if let Some((_, _, Phase::Committing(stage), _)) = &mut self.op {
            *stage = CommitStage::Parity { outstanding: m, parity, chunked: HashMap::new() };
        }
        // Parity shadows are always full-content rewrites (base: None):
        // every commit re-derives all parity bytes, so there is nothing
        // to copy forward, and no owner resolution is needed. A
        // re-commit may therefore leave the previous parity replica
        // behind on its old provider; the repair scan's uniqueness gate
        // ignores stale versions.
        for entry in parity_entries {
            let exclude = self.ec_sibling_providers(entry.seg);
            let Some(provider) = self.place_segment(
                ctx,
                entry.seg,
                shard_len.max(1),
                opts.alpha,
                opts.placement,
                &exclude,
            ) else {
                self.abort_commit(ctx, Error::OutOfSpace);
                return;
            };
            let entropy: u16 = ctx.rng().gen();
            let target = entry.version.next_entropic(entropy);
            let meta = self.seg_meta(&opts, synthetic);
            let req = self.fresh_req();
            self.rpc(
                ctx,
                provider,
                Msg::CreateShadow {
                    req,
                    span: self.cur_span,
                    seg: entry.seg,
                    base: None,
                    meta,
                },
                Pending::ShadowCreate {
                    seg: entry.seg,
                    provider,
                    target,
                },
            );
        }
    }

    /// A parity shadow exists: ship the shard's full contents into it
    /// from offset 0 like any data extent, tagged with its parity index
    /// so completion is routed back into the Parity stage. The shadow is
    /// fresh, so nothing past the shard needs truncating.
    fn issue_parity_write(&mut self, ctx: &mut impl Transport, seg: SegId) {
        let f = self.file.as_ref().expect("commit has open file");
        let r = f.index.parity.iter().position(|e| e.seg == seg).expect("parity entry exists");
        let Some((_, _, Phase::Committing(CommitStage::Parity { parity, .. }), _)) = &self.op else {
            return;
        };
        let payload = parity[r].clone();
        self.ship(ctx, ShadowTarget::Parity(r), seg, 0, payload);
        // The shard's shadow is created; its writes now count instead.
        if let Some((_, outstanding)) = self.shipping() {
            *outstanding -= 1;
        }
    }

    fn issue_index_shadow(&mut self, ctx: &mut impl Transport) {
        let f = self.file.as_ref().expect("commit has open file");
        let seg = f.entry.file.index_segment();
        let opts = f.entry.options;
        let target = f.commit_target.expect("commit target chosen");
        let (provider, base) = if f.entry.version == Version::INITIAL {
            // First commit: place the index segment (small → home boost).
            let Some(p) = self.place_segment(ctx, seg, 4096, opts.alpha, opts.placement, &[])
            else {
                self.retry_or_fail(ctx, Error::OutOfSpace);
                return;
            };
            (p, None)
        } else {
            let p = f
                .index_owner
                .filter(|&p| self.members.view().is_live(p))
                .unwrap_or_else(|| self.members.home(seg).expect("providers exist"));
            (p, Some(f.entry.version))
        };
        // The index segment of an erasure-coded file carries the (k, m)
        // marker: providers holding it drive EC shard repair from the
        // shard list it contains. It keeps the file's replication — the
        // code protects the shards, replication protects the index.
        let meta = {
            let mut m = SegMeta::from_options(&opts, false);
            m.ec = opts.ec.map(|p| (p.k, p.m));
            m
        };
        let req = self.fresh_req();
        self.rpc(
            ctx,
            provider,
            Msg::CreateShadow {
                req,
                span: self.cur_span,
                seg,
                base,
                meta,
            },
            Pending::ShadowCreate {
                seg,
                provider,
                target,
            },
        );
    }

    fn issue_index_write(&mut self, ctx: &mut impl Transport) {
        // Advance data-segment versions in the index, then ship it.
        let new_file_version;
        let bytes;
        let sref;
        {
            let f = self.file.as_mut().expect("commit has open file");
            new_file_version = f.entry.version.next();
            let shadows: Vec<(SegId, Version)> = f
                .shadows
                .iter()
                .filter(|(&seg, _)| seg != f.entry.file.index_segment())
                .map(|(&seg, s)| (seg, s.target))
                .collect();
            for (seg, v) in shadows {
                f.index.set_segment_version(seg, v);
            }
            if f.index.is_attached && !f.synthetic {
                f.index.attached = Some(f.attached_buf.clone());
            }
            bytes = encode_index(&f.index);
            sref = f.shadows[&f.entry.file.index_segment()];
        }
        let _ = new_file_version;
        let req = self.fresh_req();
        if let Some((_, _, Phase::Committing(stage), _)) = &mut self.op {
            *stage = CommitStage::IndexWrite;
        }
        self.rpc(
            ctx,
            sref.provider,
            Msg::WriteShadow {
                req,
                shadow: sref.shadow,
                offset: 0,
                payload: WritePayload::Real(bytes.into()),
                truncate: true,
            },
            Pending::ShadowWrite { to: ShadowTarget::Index },
        );
    }

    fn issue_commit_begin(&mut self, ctx: &mut impl Transport) {
        let f = self.file.as_ref().expect("commit has open file");
        let (path, base) = (f.path.clone(), f.entry.version);
        if let Some((_, _, Phase::Committing(stage), _)) = &mut self.op {
            *stage = CommitStage::Begin;
        }
        let req = self.fresh_req();
        let to = self.ns_for(&path);
        self.rpc(
            ctx,
            to,
            Msg::NsCommitBegin { req, span: self.cur_span, path, base },
            Pending::CommitBegin,
        );
    }

    fn participants(&self) -> Vec<(NodeId, Vec<(ShadowId, Version)>)> {
        let f = self.file.as_ref().expect("commit has open file");
        let mut map: HashMap<NodeId, Vec<(ShadowId, Version)>> = HashMap::new();
        for sref in f.shadows.values() {
            map.entry(sref.provider)
                .or_default()
                .push((sref.shadow, sref.target));
        }
        let mut v: Vec<(NodeId, Vec<(ShadowId, Version)>)> = map.into_iter().collect();
        v.sort_by_key(|(n, _)| *n);
        for (_, items) in &mut v {
            items.sort(); // deterministic order within each participant
        }
        v
    }

    fn issue_prepare(&mut self, ctx: &mut impl Transport) {
        let parts = self.participants();
        if let Some((_, _, Phase::Committing(stage), _)) = &mut self.op {
            *stage = CommitStage::Prepare {
                outstanding: parts.len(),
                failed: false,
            };
        }
        for (provider, items) in parts {
            let req = self.fresh_req();
            self.rpc(
                ctx,
                provider,
                Msg::Prepare { req, span: self.cur_span, items },
                Pending::Prepare,
            );
        }
    }

    fn issue_commit_phase(&mut self, ctx: &mut impl Transport) {
        let parts = self.participants();
        if let Some((_, _, Phase::Committing(stage), _)) = &mut self.op {
            *stage = CommitStage::Commit {
                outstanding: parts.len(),
            };
        }
        for (provider, items) in parts {
            let req = self.fresh_req();
            self.rpc(
                ctx,
                provider,
                Msg::Commit { req, span: self.cur_span, items },
                Pending::Commit2,
            );
        }
    }

    fn abort_commit(&mut self, ctx: &mut impl Transport, error: Error) {
        // Tell every participant to drop its shadows, release the lease if
        // held, and fail (or retry, for atomic append).
        let parts = self.participants();
        for (provider, items) in parts {
            let shadows: Vec<ShadowId> = items.into_iter().map(|(s, _)| s).collect();
            ctx.send(provider, Msg::Abort { span: self.cur_span, items: shadows });
        }
        let path_base = self
            .file
            .as_ref()
            .map(|f| (f.path.clone(), f.entry.version));
        if let Some((path, base)) = path_base {
            let req = self.fresh_req();
            let to = self.ns_for(&path);
            // Fire-and-forget release (commit=false); no pending entry so
            // the reply is ignored.
            ctx.send(
                to,
                Msg::NsCommitEnd {
                    req,
                    span: self.cur_span,
                    path,
                    commit: false,
                    new_version: base,
                    new_size: 0,
                },
            );
        }
        if let Some(f) = &mut self.file {
            f.shadows.clear();
            f.commit_target = None;
        }
        // Atomic append: refresh and retry the whole cycle.
        let is_append = matches!(
            self.op.as_ref().map(|(o, ..)| o),
            Some(ClientOp::AtomicAppend { .. })
        );
        let retryable = matches!(error, Error::VersionConflict | Error::LeaseHeld);
        if is_append && self.append_retries > 0 && retryable {
            self.append_retries -= 1;
            self.stats.conflicts += 1;
            self.pending.clear();
            // Randomized backoff so contending appenders don't spin their
            // whole retry budget inside one competitor's commit window.
            let max = self.costs.rpc_timeout.as_nanos().max(2) / 2;
            let backoff = Dur::nanos(ctx.rng().gen_range(1..max));
            ctx.set_timer(backoff, Msg::Tick(Tick::AppendRetry));
            return;
        }
        self.complete_op(ctx, Some(error), 0, None);
    }

    /// Atomic-append retry: re-lookup the entry and re-read the index,
    /// then re-run the append write + commit.
    fn refresh_for_append(&mut self, ctx: &mut impl Transport) {
        let Some(f) = &self.file else {
            self.complete_op(ctx, Some(Error::NotFound), 0, None);
            return;
        };
        let path = f.path.clone();
        if let Some((_, _, phase, _)) = &mut self.op {
            *phase = Phase::NsSimple;
        }
        let req = self.fresh_req();
        let to = self.ns_for(&path);
        self.rpc(ctx, to, Msg::NsLookup { req, path }, Pending::Ns);
    }

    fn issue_commit_end(&mut self, ctx: &mut impl Transport) {
        let f = self.file.as_ref().expect("commit has open file");
        let path = f.path.clone();
        let new_version = f.commit_target.expect("commit target chosen");
        let new_size = f.index.size;
        if let Some((_, _, Phase::Committing(stage), _)) = &mut self.op {
            *stage = CommitStage::End;
        }
        let req = self.fresh_req();
        let to = self.ns_for(&path);
        self.rpc(
            ctx,
            to,
            Msg::NsCommitEnd {
                req,
                span: self.cur_span,
                path,
                commit: true,
                new_version,
                new_size,
            },
            Pending::CommitEnd,
        );
    }

    fn finish_commit(&mut self, ctx: &mut impl Transport) {
        // Eager propagation if requested, else done.
        let eager = self
            .file
            .as_ref()
            .map(|f| f.entry.options.eager_commit && f.entry.options.replication > 1)
            .unwrap_or(false);
        if eager {
            let mut outstanding = 0;
            let targets: Vec<(SegId, NodeId, u32, u64)> = {
                let f = self.file.as_ref().expect("commit has open file");
                // A target fetches the segment as committed; its length
                // sizes the target's fetch timeout (the index: its encoding).
                let entries = || f.index.segments.iter().chain(&f.index.parity);
                let committed_len = |seg| match entries().find(|e| e.seg == seg) {
                    Some(e) => e.len,
                    None => encode_index(&f.index).len() as u64,
                };
                let r = f.entry.options.replication;
                let mut t: Vec<(SegId, NodeId, u32, u64)> = f
                    .shadows
                    .iter()
                    .map(|(&seg, sref)| (seg, sref.provider, r, committed_len(seg)))
                    .collect();
                t.sort(); // deterministic eager-sync issue order
                t
            };
            for (seg, source, replication, bytes_hint) in targets {
                // Choose (r-1) extra sites and push synchronously.
                let mut exclude = vec![source];
                for _ in 1..replication {
                    let cands = candidates_from_view(self.members.view());
                    let Some(site) = select_provider(
                        &cands,
                        1,
                        0.5,
                        PlacementPolicy::LoadAware,
                        &exclude,
                        None,
                        ctx.rng(),
                    ) else {
                        break;
                    };
                    exclude.push(site);
                    let req = self.fresh_req();
                    self.rpc(
                        ctx,
                        site,
                        Msg::SyncRequest { req, seg, source, bytes_hint },
                        Pending::EagerSync,
                    );
                    outstanding += 1;
                }
            }
            if outstanding > 0 {
                if let Some((_, _, Phase::Committing(stage), _)) = &mut self.op {
                    *stage = CommitStage::Eager { outstanding };
                }
                return;
            }
        }
        self.conclude_commit(ctx);
    }

    fn conclude_commit(&mut self, ctx: &mut impl Transport) {
        let is_close = matches!(
            self.op.as_ref().map(|(o, ..)| o),
            Some(ClientOp::Close)
        );
        let is_append = matches!(
            self.op.as_ref().map(|(o, ..)| o),
            Some(ClientOp::AtomicAppend { .. })
        );
        let mut bytes = 0;
        if let Some(f) = &mut self.file {
            f.entry.version = f.commit_target.take().expect("commit target chosen");
            f.entry.size = f.index.size;
            // Keep the committed index's segment versions as the new base.
            f.shadows.clear();
            f.dirty = false;
            if is_append {
                bytes = self
                    .append_payload
                    .as_ref()
                    .map(|p| p.len())
                    .unwrap_or(0);
            }
        }
        if is_close {
            self.file = None;
        }
        self.complete_op(ctx, None, bytes, None);
    }

    // ------------------------------------------------------------------
    // Unlink flow
    // ------------------------------------------------------------------

    fn continue_unlink(&mut self, ctx: &mut impl Transport) {
        let Some((_, _, Phase::Unlinking { to_locate, deletes, outstanding, .. }, _)) = &mut self.op
        else {
            return;
        };
        if let Some(seg) = to_locate.pop() {
            let Some(home) = self.members.home(seg) else {
                self.continue_unlink(ctx);
                return;
            };
            let req = self.fresh_req();
            self.rpc(ctx, home, Msg::LocQuery { req, seg }, Pending::LocQuery { seg });
            return;
        }
        if let Some((seg, owner)) = deletes.pop() {
            // Replica removal is eager and serialized, which is why the
            // paper's unlink time grows with the replication degree
            // (Figure 9: 32.4 ms at r=1 vs 44.3 ms at r=2).
            *outstanding = 1;
            let req = self.fresh_req();
            self.rpc(ctx, owner, Msg::DeleteSeg { req, seg }, Pending::Delete);
            return;
        }
        if *outstanding == 0 {
            self.complete_op(ctx, None, 0, None);
        }
    }

    // ------------------------------------------------------------------
    // Reply dispatch
    // ------------------------------------------------------------------

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
        match (pending, msg) {
            // ---- namespace replies ----
            (Pending::Ns, Msg::NsMkdirR { result, .. })
            | (Pending::Ns, Msg::NsRenameR { result, .. }) => {
                self.complete_op(ctx, result.err(), 0, None);
            }
            (Pending::Ns, Msg::NsListR { result, .. }) => match result {
                Ok(names) => {
                    let blob = names.join("\n").into_bytes();
                    let n = names.len() as u64;
                    self.complete_op(ctx, None, n, Some(blob.into()));
                }
                Err(e) => self.complete_op(ctx, Some(e), 0, None),
            },
            (Pending::Ns, Msg::NsLookupR { result, .. }) => {
                let is_stat = matches!(
                    self.op.as_ref().map(|(o, ..)| o),
                    Some(ClientOp::Stat { .. })
                );
                match result {
                    Ok(entry) => {
                        if is_stat {
                            let size = entry.size;
                            self.complete_op(ctx, None, size, None);
                        } else if matches!(
                            self.op.as_ref().map(|(o, ..)| o),
                            Some(ClientOp::AtomicAppend { .. })
                        ) {
                            // Append retry path: refresh entry, re-read
                            // index, then redo the write.
                            if let Some(f) = &mut self.file {
                                f.entry = entry.clone();
                                f.owners.clear();
                                f.shadows.clear();
                            }
                            if entry.version == Version::INITIAL {
                                self.redo_append_write(ctx);
                            } else {
                                if let Some((_, _, phase, _)) = &mut self.op {
                                    *phase = Phase::OpenIndex;
                                }
                                self.read_index_segment(
                                    ctx,
                                    entry.file.index_segment(),
                                    entry.version,
                                );
                            }
                        } else {
                            self.on_entry_resolved(ctx, entry);
                        }
                    }
                    Err(e) => self.complete_op(ctx, Some(e), 0, None),
                }
            }
            (Pending::Ns, Msg::NsCreateR { result, .. }) => match result {
                Ok(entry) => self.on_entry_resolved(ctx, entry),
                Err(e) => self.complete_op(ctx, Some(e), 0, None),
            },
            (Pending::Ns, Msg::NsRemoveR { result, .. }) => match result {
                Ok(entry) => {
                    if entry.version == Version::INITIAL {
                        // Never committed: no segments to clean up.
                        self.complete_op(ctx, None, 0, None);
                        return;
                    }
                    // Read the index to learn the data segments, then
                    // delete everything eagerly.
                    let seg = entry.file.index_segment();
                    if let Some((_, _, Phase::Unlinking { entry: e, to_locate, .. }, _)) =
                        &mut self.op
                    {
                        *e = Some(entry.clone());
                        to_locate.push(seg);
                    }
                    let Some(home) = self.members.home(seg) else {
                        self.complete_op(ctx, None, 0, None);
                        return;
                    };
                    let req2 = self.fresh_req();
                    self.rpc(
                        ctx,
                        home,
                        Msg::ReadSeg {
                            req: req2,
                            seg,
                            offset: 0,
                            len: u64::MAX,
                            min_version: None,
                            allow_redirect: true,
                        },
                        Pending::IndexRead { owner_known: false },
                    );
                }
                Err(e) => self.complete_op(ctx, Some(e), 0, None),
            },

            // ---- index reads ----
            (Pending::IndexRead { owner_known }, Msg::ReadSegR { reply, .. }) => {
                if matches!(self.op.as_ref().map(|(_, _, p, _)| p), Some(Phase::Unlinking { .. })) {
                    self.on_unlink_index(ctx, reply, owner_known);
                } else if matches!(
                    self.op.as_ref().map(|(o, ..)| o),
                    Some(ClientOp::AtomicAppend { .. })
                ) {
                    // Append retry: index refreshed, redo the write.
                    let decoded = match &reply {
                        ReadReply::Data { data: Some(bytes), .. } => decode_index(bytes).ok(),
                        _ => None,
                    };
                    if let Some(ix) = decoded {
                        if let Some(f) = &mut self.file {
                            f.attached_buf = ix.attached.clone().unwrap_or_default();
                            f.index = ix;
                            f.index_owner = Some(from);
                        }
                        self.redo_append_write(ctx);
                        return;
                    }
                    self.on_index_read(ctx, from, reply, owner_known);
                } else {
                    self.on_index_read(ctx, from, reply, owner_known);
                }
            }

            // ---- owner resolution ----
            (Pending::LocQuery { seg }, Msg::LocQueryR { owners, .. }) => {
                match self.op.as_ref().map(|(_, _, p, _)| p) {
                    Some(Phase::Unlinking { .. }) => {
                        if let Some((_, _, Phase::Unlinking { deletes, .. }, _)) = &mut self.op {
                            for (owner, _) in &owners {
                                deletes.push((seg, *owner));
                            }
                        }
                        self.continue_unlink(ctx);
                    }
                    _ => {
                        if owners.is_empty() {
                            self.start_backup_query(ctx, seg);
                            return;
                        }
                        if let Some(f) = &mut self.file {
                            f.owners.insert(seg, owners);
                        }
                        let direct = self
                            .file
                            .as_ref()
                            .map(|f| f.entry.options.versioning_off)
                            .unwrap_or(false);
                        match self.op.as_ref().map(|(_, _, p, _)| p) {
                            Some(Phase::Reading { .. }) => self.continue_read(ctx),
                            Some(Phase::Writing { .. }) if direct => {
                                self.continue_direct_write(ctx)
                            }
                            Some(Phase::Writing { .. }) => self.continue_write(ctx),
                            _ => {}
                        }
                    }
                }
            }

            // ---- data reads ----
            (Pending::DataRead { extent, offset, len }, Msg::ReadSegR { reply, .. }) => {
                self.on_data_read(ctx, extent, offset, len, from, reply);
            }

            // ---- degraded erasure-coded reads ----
            (Pending::EcLoc { shard }, Msg::LocQueryR { owners, .. }) => {
                if owners.is_empty() {
                    self.ec_shard_failed(ctx, shard);
                } else {
                    let seg = self
                        .file
                        .as_ref()
                        .map(|f| Self::ec_entry(f, shard).seg);
                    if let (Some(f), Some(seg)) = (&mut self.file, seg) {
                        f.owners.insert(seg, owners);
                    }
                    self.issue_ec_shard(ctx, shard);
                }
            }
            (Pending::EcShard { shard }, Msg::ReadSegR { reply, .. }) => {
                self.on_ec_shard_read(ctx, shard, reply);
            }

            // ---- shadows ----
            (
                Pending::ShadowCreate {
                    seg,
                    provider,
                    target,
                },
                Msg::CreateShadowR { result, .. },
            ) => match result {
                Ok(shadow) => {
                    if let Some(f) = &mut self.file {
                        f.shadows.insert(
                            seg,
                            ShadowRef {
                                provider,
                                shadow,
                                target,
                            },
                        );
                        if seg == f.entry.file.index_segment() {
                            f.index_owner = Some(provider);
                        }
                    }
                    match self.op.as_ref().map(|(_, _, p, _)| p) {
                        Some(Phase::Writing { .. }) => self.continue_write(ctx),
                        Some(Phase::Committing(CommitStage::Parity { .. })) => {
                            self.issue_parity_write(ctx, seg)
                        }
                        Some(Phase::Committing(CommitStage::IndexShadow)) => {
                            self.issue_index_write(ctx)
                        }
                        _ => {}
                    }
                }
                Err(e) => {
                    // Owner may have lost the base version (stale cache):
                    // clear and retry.
                    if let Some(f) = &mut self.file {
                        f.owners.remove(&seg);
                    }
                    if matches!(
                        self.op.as_ref().map(|(_, _, p, _)| p),
                        Some(Phase::Committing(_))
                    ) {
                        self.abort_commit(ctx, e);
                    } else {
                        self.retry_or_fail(ctx, e);
                    }
                }
            },
            (Pending::ShadowWrite { to }, Msg::WriteShadowR { result, .. }) => match (result, to) {
                // Index write inside the commit flow.
                (Ok(()), ShadowTarget::Index) => self.issue_commit_begin(ctx),
                (Ok(()), _) => {
                    if let Some((_, outstanding)) = self.shipping() {
                        *outstanding -= 1;
                    }
                    // A finished chunk frees a slot in its pipeline
                    // window; refill it.
                    self.issue_next_chunk(ctx, to);
                    if let Some((_, _, Phase::Committing(stage), _)) = &mut self.op {
                        if matches!(stage, CommitStage::Parity { outstanding: 0, .. }) {
                            // Every parity shard is written: on to the index leg.
                            *stage = CommitStage::IndexShadow;
                            self.issue_index_shadow(ctx);
                        }
                    }
                    self.maybe_finish_write(ctx);
                }
                (Err(e), _) => {
                    if matches!(
                        self.op.as_ref().map(|(_, _, p, _)| p),
                        Some(Phase::Committing(_))
                    ) {
                        self.abort_commit(ctx, e);
                    } else {
                        self.retry_or_fail(ctx, e);
                    }
                }
            },

            // ---- 2PC ----
            (Pending::CommitBegin, Msg::NsCommitBeginR { result, .. }) => match result {
                Ok(()) => self.issue_prepare(ctx),
                Err(Error::LeaseHeld) => {
                    // Another client is mid-commit: our shadows are still
                    // valid, so just retry approval after a backoff.
                    let budget = if let Some((_, _, _, attempts)) = &mut self.op {
                        *attempts += 1;
                        *attempts < 3 * MAX_ATTEMPTS
                    } else {
                        false
                    };
                    if budget {
                        let max = self.costs.rpc_timeout.as_nanos().max(2) / 4;
                        let backoff = Dur::nanos(ctx.rng().gen_range(1..max));
                        ctx.set_timer(backoff, Msg::Tick(Tick::CommitBeginRetry));
                    } else {
                        self.abort_commit(ctx, Error::LeaseHeld);
                    }
                }
                Err(e) => self.abort_commit(ctx, e),
            },
            (Pending::Prepare, Msg::PrepareR { result, .. }) => {
                let Some((_, _, Phase::Committing(CommitStage::Prepare { outstanding, failed }), _)) =
                    &mut self.op
                else {
                    return;
                };
                *outstanding -= 1;
                if result.is_err() {
                    *failed = true;
                }
                if *outstanding == 0 {
                    let failed = *failed;
                    if failed {
                        self.abort_commit(ctx, result.err().unwrap_or(Error::VersionConflict));
                    } else {
                        self.issue_commit_phase(ctx);
                    }
                }
            }
            (Pending::Commit2, Msg::CommitR { .. }) => {
                let Some((_, _, Phase::Committing(CommitStage::Commit { outstanding }), _)) =
                    &mut self.op
                else {
                    return;
                };
                *outstanding -= 1;
                if *outstanding == 0 {
                    self.issue_commit_end(ctx);
                }
            }
            (Pending::CommitEnd, Msg::NsCommitEndR { result, .. }) => match result {
                Ok(()) => self.finish_commit(ctx),
                Err(e) => self.complete_op(ctx, Some(e), 0, None),
            },
            (Pending::EagerSync, Msg::SyncDone { .. }) => {
                let Some((_, _, Phase::Committing(CommitStage::Eager { outstanding }), _)) =
                    &mut self.op
                else {
                    return;
                };
                *outstanding -= 1;
                if *outstanding == 0 {
                    self.conclude_commit(ctx);
                }
            }

            // ---- versioning-off writes ----
            (Pending::DirectWrite, Msg::DirectWriteR { result, .. }) => match result {
                Ok(()) => {
                    if let Some((_, _, Phase::Writing { outstanding, .. }, _)) = &mut self.op {
                        *outstanding -= 1;
                    }
                    self.maybe_finish_write(ctx);
                }
                Err(e) => self.retry_or_fail(ctx, e),
            },

            // ---- deletes ----
            (Pending::Delete, Msg::DeleteSegR { .. }) => {
                if let Some((_, _, Phase::Unlinking { outstanding, .. }, _)) = &mut self.op {
                    *outstanding = 0;
                }
                self.continue_unlink(ctx);
            }

            // Type mismatch (shouldn't happen): drop.
            _ => {}
        }
    }

    /// Append retry: after refreshing entry + index, redo the write.
    fn redo_append_write(&mut self, ctx: &mut impl Transport) {
        let payload = self
            .append_payload
            .clone()
            .expect("append retry has payload");
        let offset = self.file.as_ref().map(|f| f.index.size).unwrap_or(0);
        self.start_write(ctx, offset, payload);
    }

    /// Unlink: index segment read resolved.
    fn on_unlink_index(&mut self, ctx: &mut impl Transport, reply: ReadReply, owner_known: bool) {
        match reply {
            ReadReply::Data { data, .. } => {
                let segs: Vec<SegId> = data
                    .as_deref()
                    .and_then(|b| decode_index(b).ok())
                    .map(|ix| {
                        ix.segments
                            .iter()
                            .chain(ix.parity.iter()) // EC parity shards too
                            .map(|e| e.seg)
                            .collect()
                    })
                    .unwrap_or_default();
                if let Some((_, _, Phase::Unlinking { index, to_locate, .. }, _)) = &mut self.op {
                    *index = None;
                    to_locate.extend(segs);
                }
                self.continue_unlink(ctx);
            }
            ReadReply::Redirect(owners) => {
                let seg = {
                    let Some((_, _, Phase::Unlinking { entry, .. }, _)) = &self.op else {
                        return;
                    };
                    entry
                        .as_ref()
                        .map(|e| e.file.index_segment())
                        .expect("unlink entry known")
                };
                let Some(owner) = self.choose_owner(&owners, None, ctx.rng()) else {
                    self.continue_unlink(ctx);
                    return;
                };
                let req = self.fresh_req();
                self.rpc(
                    ctx,
                    owner,
                    Msg::ReadSeg {
                        req,
                        seg,
                        offset: 0,
                        len: u64::MAX,
                        min_version: None,
                        allow_redirect: false,
                    },
                    Pending::IndexRead { owner_known: true },
                );
            }
            ReadReply::Err(_) => {
                let _ = owner_known;
                // Cannot read the index: delete what we can (the index
                // segment's own owners will age out of location tables).
                self.continue_unlink(ctx);
            }
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
            Pending::EagerSync => {
                if let Some((_, _, Phase::Committing(CommitStage::Eager { outstanding }), _)) =
                    &mut self.op
                {
                    *outstanding -= 1;
                    if *outstanding == 0 {
                        self.conclude_commit(ctx);
                    }
                }
            }
            Pending::Delete => {
                if let Some((_, _, Phase::Unlinking { outstanding, .. }, _)) = &mut self.op {
                    *outstanding = 0;
                }
                self.continue_unlink(ctx);
            }
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
                if matches!(
                    self.op.as_ref().map(|(_, _, p, _)| p),
                    Some(Phase::Thinking)
                ) {
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
                if matches!(
                    self.op.as_ref().map(|(_, _, p, _)| p),
                    Some(Phase::Committing(_))
                ) {
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
                if let Some(hits) = self.backup_hits.get_mut(&req) {
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
