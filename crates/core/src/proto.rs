//! The wire protocol: every message exchanged between Sorrento clients,
//! storage providers, and namespace servers, plus the local timer kinds.
//!
//! Wire sizes are modeled per variant so the simulated NICs charge
//! realistic byte counts: bulk payloads dominate data-path messages,
//! small RPCs cost roughly a header.

use sorrento_sim::{NodeId, Payload, SpanId};

use crate::layout::IndexSegment;
use crate::membership::Heartbeat;
use crate::store::{SegMeta, ShadowId, Transfer, WritePayload};
use crate::types::{Error, FileId, FileOptions, SegId, Version};

/// Request correlation id (unique per issuing node).
pub type ReqId = u64;

/// Fixed modeled overhead of any RPC (headers, framing).
pub const RPC_HEADER: u64 = 120;

/// A namespace entry as returned to clients ("the inode equivalent in
/// Sorrento", §3.1).
#[derive(Debug, Clone, PartialEq)]
pub struct FileEntry {
    /// Persistent location-independent file id.
    pub file: FileId,
    /// Latest committed version.
    pub version: Version,
    /// Logical size at that version.
    pub size: u64,
    /// Whether this entry is a directory.
    pub is_dir: bool,
    /// Creation timestamp (ns of virtual time).
    pub created_ns: u64,
    /// Last-commit timestamp (ns of virtual time).
    pub modified_ns: u64,
    /// The file's creation-time options.
    pub options: FileOptions,
}

/// Reply to a read against a provider.
#[derive(Debug, Clone)]
pub enum ReadReply {
    /// The provider owns the segment and served the bytes.
    Data {
        /// Bytes covered (clamped to segment length).
        len: u64,
        /// The bytes when the segment carries real data.
        data: Option<bytes::Bytes>,
        /// Version served.
        version: Version,
        /// CRC-32 of `data`, when known without a pass over it: the
        /// writer's, kept with the stored piece, or the one the decoder
        /// verified. `None` leaves it to the encoder.
        crc: Option<u32>,
    },
    /// The provider is the segment's home host but not an owner: go ask
    /// one of these owners (§3.4, Figure 7 step 3).
    Redirect(Vec<(NodeId, Version)>),
    /// Neither owner nor informed home host.
    Err(Error),
}

/// Local timer kinds (delivered to self; never on the wire: the frame
/// codec has no table for them and refuses a timer that arrives).
#[derive(Debug, Clone, PartialEq)]
pub enum Tick {
    /// Provider: announce heartbeat + expire membership.
    Heartbeat,
    /// Provider: periodic location-table content refresh (§3.4.1 ev. 1).
    LocationRefresh,
    /// Provider: delayed refresh toward one newly joined provider
    /// (§3.4.1 event 2).
    JoinRefresh(NodeId),
    /// Provider: purge aged location-table garbage + expired shadows.
    Gc,
    /// Provider: home-host repair scan (discrepancy sync + degree
    /// repair).
    RepairScan,
    /// Provider: migration decision point (once per minute, §3.7.1).
    Migration,
    /// Provider: continue the active migration process with its next
    /// segment (paced).
    MigrationContinue,
    /// Client: RPC timeout for the given request.
    RpcTimeout(ReqId),
    /// Client: stop waiting for backup-query replies.
    BackupDeadline(ReqId),
    /// Client: membership bookkeeping (view expiry).
    Membership,
    /// Client: think-time elapsed; issue the next workload op.
    NextOp,
    /// Client: backoff elapsed; retry an atomic append.
    AppendRetry,
    /// Client: backoff elapsed; retry commit approval (lease contention).
    CommitBeginRetry,
    /// Namespace: lease expiry sweep.
    LeaseSweep,
    /// Client: per-operation deadline elapsed (`op_deadline` set; real
    /// runtime only). Carries the op generation it was armed for, so a
    /// deadline outliving its op cannot fail a later one.
    OpDeadline(u64),
    /// Client: resend backoff elapsed; re-issue the pending request with
    /// this id to the same target (real runtime, `rpc_resends` > 0).
    RpcResend(ReqId),
    /// Namespace primary: drain the WAL-shipping outbox to the hot
    /// standby (an empty ship doubles as a liveness beacon).
    NsShip,
    /// Namespace standby: check whether the primary's ships stopped
    /// arriving; promote when the grace window has elapsed.
    StandbyCheck,
    /// Client: periodic shard-map refresh (armed only when a shard
    /// routing table is installed, so unsharded runs stay untouched).
    ShardMapRefresh,
    /// Namespace shard: a cross-shard handshake request timed out;
    /// fail the held-up client op with `Unavailable`.
    XShardTimeout(ReqId),
    /// Provider (SWIM mode): start the next probe round.
    SwimProbe,
    /// Provider (SWIM mode): the direct-ack window for probe `seq`
    /// elapsed; fall back to indirect probes via k peers.
    SwimAckTimeout(u64),
    /// Provider (SWIM mode): the whole probe window for `seq` elapsed
    /// with no ack (direct or forwarded); suspect the target.
    SwimProbeTimeout(u64),
    /// Provider (SWIM mode): the suspicion window for `(node,
    /// incarnation)` elapsed unrefuted; confirm the node dead.
    SwimSuspectTimeout(NodeId, u64),
    /// Provider (SWIM mode): periodic anti-entropy — pull a full
    /// membership digest from one random peer.
    SwimSync,
    /// Provider (SWIM mode): export the periodic gauges that the
    /// heartbeat tick used to carry (`nN.segments`, `nN.stored_bytes`,
    /// ...). Armed only when gossip replaces the heartbeat tick, so
    /// heartbeat-mode event streams are untouched.
    GaugeExport,
    /// Client (SWIM mode): refresh the provider view by pulling a
    /// membership digest (providers no longer multicast heartbeats).
    MembersRefresh,
}

/// Every Sorrento message.
// Variant fields are self-describing wire-protocol parameters
// (req/path/offset/len/...); each variant itself is documented.
#[allow(missing_docs)]
#[derive(Debug, Clone)]
pub enum Msg {
    /// Local timer.
    Tick(Tick),

    // ---- membership (§3.3) ----
    /// Multicast provider announcement.
    Heartbeat(Heartbeat),

    // ---- namespace RPCs (§3.1) ----
    /// Resolve a path to its entry.
    NsLookup { req: ReqId, path: String },
    /// Lookup reply.
    NsLookupR { req: ReqId, result: Result<FileEntry, Error> },
    /// Create a file entry (the client supplies the FileId it generated).
    NsCreate { req: ReqId, path: String, file: FileId, options: FileOptions },
    /// Create reply.
    NsCreateR { req: ReqId, result: Result<FileEntry, Error> },
    /// Create a directory.
    NsMkdir { req: ReqId, path: String },
    /// Mkdir reply.
    NsMkdirR { req: ReqId, result: Result<(), Error> },
    /// Remove a file entry (or empty directory); returns the removed
    /// entry so the client can garbage-collect segments.
    NsRemove { req: ReqId, path: String },
    /// Remove reply.
    NsRemoveR { req: ReqId, result: Result<FileEntry, Error> },
    /// List the names under a directory.
    NsList { req: ReqId, path: String },
    /// List reply.
    NsListR { req: ReqId, result: Result<Vec<String>, Error> },
    /// Commit approval (Figure 6 step 7): verify `base` is still the
    /// latest version and take the commit lock. `span` is the issuing
    /// client op's trace span (0 = none); spans ride in the modeled RPC
    /// header, so they do not change wire sizes.
    NsCommitBegin { req: ReqId, span: SpanId, path: String, base: Version },
    /// Commit-begin reply.
    NsCommitBeginR { req: ReqId, result: Result<(), Error> },
    /// Commit completion (Figure 6 step 9) or release-on-abort.
    NsCommitEnd {
        req: ReqId,
        span: SpanId,
        path: String,
        commit: bool,
        new_version: Version,
        new_size: u64,
    },
    /// Commit-end reply.
    NsCommitEndR { req: ReqId, result: Result<(), Error> },

    // ---- location (§3.4) ----
    /// Ask a home host for a segment's owners.
    LocQuery { req: ReqId, seg: SegId },
    /// Owners (empty when the home host has no entry).
    LocQueryR { req: ReqId, seg: SegId, owners: Vec<(NodeId, Version)> },
    /// Owner → home fast-path update (§3.4.1 event 4). `bytes` is the
    /// segment's stored size (sizes inform repair-transfer budgeting and
    /// placement).
    LocUpsert {
        seg: SegId,
        owner: NodeId,
        version: Version,
        replication: u32,
        bytes: u64,
        deleted: bool,
    },
    /// Owner → home batched refresh (§3.4.1 events 1–3); entries are
    /// `(segment, version, replication, stored bytes)`.
    LocRefresh {
        owner: NodeId,
        entries: Vec<(SegId, Version, u32, u64)>,
    },
    /// Multicast fallback when the base scheme misses (§3.4.2).
    BackupQuery { req: ReqId, seg: SegId },
    /// Reply from each owner that actually stores the segment.
    BackupQueryR { req: ReqId, seg: SegId, version: Version },

    // ---- data path (client ↔ provider) ----
    /// Read from a segment. Sent first to the home host, which serves
    /// the data if it is also an owner, or redirects.
    ReadSeg {
        req: ReqId,
        seg: SegId,
        offset: u64,
        len: u64,
        /// Require at least this version (reject stale replicas).
        min_version: Option<Version>,
        /// If false, the provider must not redirect (the client already
        /// holds the owner list).
        allow_redirect: bool,
    },
    /// Read reply.
    ReadSegR { req: ReqId, reply: ReadReply },
    /// Open a shadow copy on an owner (base = None creates a fresh
    /// segment on this provider).
    CreateShadow {
        req: ReqId,
        span: SpanId,
        seg: SegId,
        base: Option<Version>,
        meta: SegMeta,
    },
    /// Create-shadow reply.
    CreateShadowR { req: ReqId, result: Result<ShadowId, Error> },
    /// Write into a shadow. With `truncate`, the shadow is cut to end
    /// exactly at `offset + payload.len()` (whole-content replacement,
    /// used for index segments).
    WriteShadow {
        req: ReqId,
        shadow: ShadowId,
        offset: u64,
        payload: WritePayload,
        truncate: bool,
    },
    /// Write reply.
    WriteShadowR { req: ReqId, result: Result<(), Error> },
    /// Read through a shadow (read-your-writes).
    ReadShadow { req: ReqId, shadow: ShadowId, offset: u64, len: u64 },
    /// Shadow-read reply.
    ReadShadowR { req: ReqId, reply: ReadReply },
    /// Reset a shadow's expiration timer.
    RenewShadow { shadow: ShadowId },

    // ---- two-phase commit (§3.5) ----
    /// Phase 1: pin shadows to their target versions.
    Prepare { req: ReqId, span: SpanId, items: Vec<(ShadowId, Version)> },
    /// Prepare vote.
    PrepareR { req: ReqId, result: Result<(), Error> },
    /// Phase 2: commit prepared shadows.
    Commit { req: ReqId, span: SpanId, items: Vec<(ShadowId, Version)> },
    /// Commit ack.
    CommitR { req: ReqId, result: Result<(), Error> },
    /// Abort shadows (no reply needed).
    Abort { span: SpanId, items: Vec<ShadowId> },

    // ---- versioning-off byte-range mode (§3.5) ----
    /// Direct in-place write.
    DirectWrite {
        req: ReqId,
        seg: SegId,
        offset: u64,
        payload: WritePayload,
        meta: SegMeta,
    },
    /// Direct-write ack.
    DirectWriteR { req: ReqId, result: Result<(), Error> },

    // ---- segment lifecycle ----
    /// Remove all local versions of a segment (eager replica removal on
    /// unlink, §4.1.1).
    DeleteSeg { req: ReqId, seg: SegId },
    /// Delete ack.
    DeleteSegR { req: ReqId, existed: bool },

    // ---- replication & migration (provider ↔ provider) ----
    /// Fetch a materialized replica of a segment's latest version.
    FetchSeg { req: ReqId, seg: SegId },
    /// Replica image and its piece table (bulk transfer).
    FetchSegR { req: ReqId, result: Result<Box<Transfer>, Error> },
    /// Instruct `to` to synchronize/acquire `seg` from `source`
    /// (home-host-driven lazy propagation and degree repair, §3.6; also
    /// the client's eager-commit push). `bytes_hint` sizes the fetch
    /// timeout. Replied with `SyncDone` when `req != 0`.
    SyncRequest { req: ReqId, seg: SegId, source: NodeId, bytes_hint: u64 },
    /// Ack that the target now holds `seg` at `version`.
    SyncDone { req: ReqId, seg: SegId, version: Version, result: Result<(), Error> },
    /// Source-driven migration: ask `dest` to pull the segment; source
    /// erases its copy on `MigrateDone` (§3.7.1: migration = new replica
    /// + erase local copy).
    MigrateTo { seg: SegId, source: NodeId, bytes_hint: u64 },
    /// Migration pull finished (or failed).
    MigrateDone { seg: SegId, ok: bool },

    // ---- erasure-coded repair (provider ↔ provider) ----
    /// Install a reconstructed erasure-coded shard onto a fresh
    /// provider. Sent by the index segment's home host after it decodes
    /// a lost shard from `k` survivors; unlike [`Msg::SyncRequest`]
    /// there is no live source holding the bytes, so the image travels
    /// in the message itself (bulk transfer, like [`Msg::FetchSegR`]).
    EcInstall { req: ReqId, xfer: Box<Transfer> },
    /// Install ack; carries the shard id so the repairer can update its
    /// location table without correlating through request state.
    EcInstallR { req: ReqId, seg: SegId, result: Result<(), Error> },

    // ---- runtime introspection ----
    /// Ask a live daemon for its telemetry/metrics registry as JSON
    /// (`sorrentoctl stats`). Answered by the real-process runtime
    /// itself rather than the state machine; never sent inside the
    /// simulator, so adding it cannot perturb seeded event streams.
    StatsQuery { req: ReqId },
    /// The daemon's metrics registry, JSON-encoded.
    StatsR { req: ReqId, json: String },
    /// Install (or clear, with all-zero rates) the mesh's deterministic
    /// fault-injection rules on a live daemon. Like [`Msg::StatsQuery`],
    /// this is answered by the real-process runtime loop itself — the
    /// state machines never see it and the simulator never sends it, so
    /// adding it cannot perturb seeded event streams.
    ChaosCtl {
        req: ReqId,
        /// Base seed for the per-link fault streams; the same seed
        /// reproduces the same drop/delay/duplicate pattern.
        seed: u64,
        /// Per-frame drop probability, in permille (0–1000).
        drop_permille: u32,
        /// Per-frame duplicate probability, in permille.
        dup_permille: u32,
        /// Per-frame delay probability, in permille.
        delay_permille: u32,
        /// Extra latency added to a delayed frame, in microseconds.
        delay_us: u64,
        /// Peers this node must not exchange frames with (partition
        /// set); empty means no partition.
        partition: Vec<NodeId>,
    },
    /// Chaos-control acknowledgement.
    ChaosCtlR { req: ReqId },
    /// Ask a live daemon for its flight-recorder events belonging to
    /// `span` (`sorrentoctl trace`); `span == 0` requests the entire
    /// retained ring (an on-demand flight dump). Answered by the
    /// real-process runtime loop itself — the state machines never see
    /// it and the simulator never sends it.
    TraceQuery { req: ReqId, span: SpanId },
    /// The matching events, JSON-encoded (`{"v":1,"node":..,"role":..,
    /// "epoch_unix_ns":..,"events":[..]}`); event timestamps are
    /// monotonic ns since process start, so `epoch_unix_ns + at_ns`
    /// places them on the shared wall clock.
    TraceR { req: ReqId, json: String },

    // ---- namespace sharding & hot standby ----
    /// Rename a file entry. Routed to the source's shard; same-shard
    /// renames are local, cross-shard ones ride a
    /// [`Msg::NsShardInstall`] handshake to the destination's shard.
    /// Directories are refused (their children live on another shard).
    NsRename { req: ReqId, src: String, dst: String },
    /// Rename reply.
    NsRenameR { req: ReqId, result: Result<(), Error> },
    /// Shard → shard: install an entry on the receiving shard. With
    /// `xfer` false this installs a directory *stub* (mkdir publishing
    /// the new directory onto the shard that owns its children); with
    /// `xfer` true it is a rename transfer (the destination must be
    /// free and its parent present).
    NsShardInstall { req: ReqId, path: String, entry: FileEntry, xfer: bool },
    /// Install ack.
    NsShardInstallR { req: ReqId, result: Result<(), Error> },
    /// Shard → shard: drop `path`'s directory stub. With `check_empty`
    /// the receiver first verifies no children exist locally (the
    /// remove-directory handshake).
    NsShardDrop { req: ReqId, path: String, check_empty: bool },
    /// Drop ack.
    NsShardDropR { req: ReqId, result: Result<(), Error> },
    /// Ask a namespace server (or standby) for the shard rows it knows.
    /// Clients refresh their routing table with this, like the §3.4
    /// location tables.
    ShardMapQuery { req: ReqId },
    /// The responder's shard rows: `(shard, primary, standby)`.
    ShardMapR { req: ReqId, rows: Vec<(u32, NodeId, Option<NodeId>)> },
    /// Primary → standby WAL shipping: every record the primary's
    /// database appended since the last ship, in order. `seq` numbers
    /// ships so the standby detects gaps; `ckpt` (when present)
    /// replaces the standby's base image and resets its tail. An empty
    /// ship is a liveness beacon.
    NsWalShip {
        shard: u32,
        seq: u64,
        ckpt: Option<bytes::Bytes>,
        recs: Vec<bytes::Bytes>,
    },
    /// Standby → primary: a ship-sequence gap was detected (or the
    /// standby booted mid-stream); the primary answers with a full
    /// checkpoint image in its next ship.
    NsCatchup { shard: u32, have_seq: u64 },

    // ---- SWIM gossip membership ----
    /// Direct or indirect probe. `origin` is the node whose probe round
    /// this is (equal to the sender for direct probes; the requester
    /// for probes relayed through a [`Msg::SwimPingReq`] intermediary).
    /// `updates` piggybacks pending membership rumors.
    SwimPing { seq: u64, origin: NodeId, updates: Vec<crate::swim::SwimUpdate> },
    /// Probe acknowledgement, sent to the pinging node. An intermediary
    /// receiving an ack whose `origin` is not itself forwards it to
    /// `origin`, completing the indirect path.
    SwimAck { seq: u64, origin: NodeId, updates: Vec<crate::swim::SwimUpdate> },
    /// Ask the receiver to probe `target` on `origin`'s behalf (the
    /// indirect-probe leg that routes around a failed direct path).
    SwimPingReq {
        seq: u64,
        target: NodeId,
        origin: NodeId,
        updates: Vec<crate::swim::SwimUpdate>,
    },
    /// Pull the responder's full membership table (anti-entropy sync
    /// between providers; the client's provider-discovery path when
    /// gossip replaces multicast heartbeats).
    MembersPull { req: ReqId },
    /// Full-table reply to [`Msg::MembersPull`]: one update per known
    /// member, payloads included where known.
    MembersDigest { req: ReqId, updates: Vec<crate::swim::SwimUpdate> },
    /// Ask a node for its membership table as JSON
    /// (`sorrentoctl members`). Answered by the state machine from its
    /// live view; never sent inside default-mode sims.
    MembersQuery { req: ReqId },
    /// The membership table, JSON-encoded (`{"v":1,"mode":..,
    /// "members":[..]}`).
    MembersR { req: ReqId, json: String },
}

/// Short label of a message variant (diagnostics and static metric
/// labels: every variant maps to a fixed `&'static str`, so counters
/// keyed by message kind never allocate).
pub fn dbg_kind(msg: &Msg) -> &'static str {
    match msg {
        Msg::Tick(_) => "tick",
        Msg::Heartbeat(_) => "heartbeat",
        Msg::NsLookup { .. } => "ns_lookup",
        Msg::NsLookupR { .. } => "ns_lookup_r",
        Msg::NsCreate { .. } => "ns_create",
        Msg::NsCreateR { .. } => "ns_create_r",
        Msg::NsMkdir { .. } => "ns_mkdir",
        Msg::NsMkdirR { .. } => "ns_mkdir_r",
        Msg::NsRemove { .. } => "ns_remove",
        Msg::NsRemoveR { .. } => "ns_remove_r",
        Msg::NsList { .. } => "ns_list",
        Msg::NsListR { .. } => "ns_list_r",
        Msg::NsCommitBegin { .. } => "commit_begin",
        Msg::NsCommitBeginR { .. } => "commit_begin_r",
        Msg::NsCommitEnd { .. } => "commit_end",
        Msg::NsCommitEndR { .. } => "commit_end_r",
        Msg::LocQuery { .. } => "loc_query",
        Msg::LocQueryR { .. } => "loc_query_r",
        Msg::LocUpsert { .. } => "loc_upsert",
        Msg::LocRefresh { .. } => "loc_refresh",
        Msg::BackupQuery { .. } => "backup_query",
        Msg::BackupQueryR { .. } => "backup_query_r",
        Msg::ReadSeg { .. } => "read_seg",
        Msg::ReadSegR { .. } => "read_seg_r",
        Msg::CreateShadow { .. } => "create_shadow",
        Msg::CreateShadowR { .. } => "create_shadow_r",
        Msg::WriteShadow { .. } => "write_shadow",
        Msg::WriteShadowR { .. } => "write_shadow_r",
        Msg::ReadShadow { .. } => "read_shadow",
        Msg::ReadShadowR { .. } => "read_shadow_r",
        Msg::RenewShadow { .. } => "renew_shadow",
        Msg::Prepare { .. } => "prepare",
        Msg::PrepareR { .. } => "prepare_r",
        Msg::Commit { .. } => "commit",
        Msg::CommitR { .. } => "commit_r",
        Msg::Abort { .. } => "abort",
        Msg::DirectWrite { .. } => "direct_write",
        Msg::DirectWriteR { .. } => "direct_write_r",
        Msg::DeleteSeg { .. } => "delete_seg",
        Msg::DeleteSegR { .. } => "delete_seg_r",
        Msg::FetchSeg { .. } => "fetch_seg",
        Msg::FetchSegR { .. } => "fetch_seg_r",
        Msg::SyncRequest { .. } => "sync_request",
        Msg::SyncDone { .. } => "sync_done",
        Msg::MigrateTo { .. } => "migrate_to",
        Msg::MigrateDone { .. } => "migrate_done",
        Msg::EcInstall { .. } => "ec_install",
        Msg::EcInstallR { .. } => "ec_install_r",
        Msg::StatsQuery { .. } => "stats_query",
        Msg::StatsR { .. } => "stats_r",
        Msg::ChaosCtl { .. } => "chaos_ctl",
        Msg::ChaosCtlR { .. } => "chaos_ctl_r",
        Msg::TraceQuery { .. } => "trace_query",
        Msg::TraceR { .. } => "trace_r",
        Msg::NsRename { .. } => "ns_rename",
        Msg::NsRenameR { .. } => "ns_rename_r",
        Msg::NsShardInstall { .. } => "ns_shard_install",
        Msg::NsShardInstallR { .. } => "ns_shard_install_r",
        Msg::NsShardDrop { .. } => "ns_shard_drop",
        Msg::NsShardDropR { .. } => "ns_shard_drop_r",
        Msg::ShardMapQuery { .. } => "shard_map_query",
        Msg::ShardMapR { .. } => "shard_map_r",
        Msg::NsWalShip { .. } => "ns_wal_ship",
        Msg::NsCatchup { .. } => "ns_catchup",
        Msg::SwimPing { .. } => "swim_ping",
        Msg::SwimAck { .. } => "swim_ack",
        Msg::SwimPingReq { .. } => "swim_ping_req",
        Msg::MembersPull { .. } => "members_pull",
        Msg::MembersDigest { .. } => "members_digest",
        Msg::MembersQuery { .. } => "members_query",
        Msg::MembersR { .. } => "members_r",
    }
}

/// The trace span a message carries, `0` when the variant has none.
/// Used by the real runtime to tag mesh send/receive telemetry with the
/// owning client operation.
pub fn span_of(msg: &Msg) -> SpanId {
    match msg {
        Msg::NsCommitBegin { span, .. }
        | Msg::NsCommitEnd { span, .. }
        | Msg::CreateShadow { span, .. }
        | Msg::Prepare { span, .. }
        | Msg::Commit { span, .. }
        | Msg::Abort { span, .. } => *span,
        _ => 0,
    }
}

/// Serialize an [`IndexSegment`] into segment bytes.
pub fn encode_index(ix: &IndexSegment) -> Vec<u8> {
    crate::codec::index_to_json(ix).encode().into_bytes()
}

/// Parse segment bytes back into an [`IndexSegment`]. The error names
/// what was wrong with the bytes (non-UTF-8, bad JSON, or the exact
/// missing/invalid field).
pub fn decode_index(bytes: &[u8]) -> Result<IndexSegment, crate::codec::CodecError> {
    let text = std::str::from_utf8(bytes).map_err(|_| crate::codec::CodecError::NotUtf8)?;
    let j = sorrento_json::Json::parse(text).map_err(|_| crate::codec::CodecError::BadJson)?;
    crate::codec::index_from_json(&j)
}

fn payload_size(p: &WritePayload) -> u64 {
    p.len()
}

impl Payload for Msg {
    fn wire_size(&self) -> u64 {
        let body = match self {
            Msg::Tick(_) => 0,
            Msg::Heartbeat(_) => 64,
            Msg::NsLookup { path, .. }
            | Msg::NsMkdir { path, .. }
            | Msg::NsRemove { path, .. }
            | Msg::NsList { path, .. } => path.len() as u64,
            Msg::NsCreate { path, .. } => path.len() as u64 + 64,
            Msg::NsLookupR { .. } | Msg::NsCreateR { .. } | Msg::NsRemoveR { .. } => 128,
            Msg::NsMkdirR { .. } => 16,
            Msg::NsListR { result, .. } => result
                .as_ref()
                .map(|names| names.iter().map(|n| n.len() as u64 + 8).sum())
                .unwrap_or(16),
            Msg::NsCommitBegin { path, .. } | Msg::NsCommitEnd { path, .. } => {
                path.len() as u64 + 24
            }
            Msg::NsCommitBeginR { .. } | Msg::NsCommitEndR { .. } => 16,
            Msg::LocQuery { .. } => 24,
            Msg::LocQueryR { owners, .. } => 24 + owners.len() as u64 * 16,
            Msg::LocUpsert { .. } => 56,
            Msg::LocRefresh { entries, .. } => 16 + entries.len() as u64 * 36,
            Msg::BackupQuery { .. } => 24,
            Msg::BackupQueryR { .. } => 32,
            Msg::ReadSeg { .. } => 48,
            Msg::ReadSegR { reply, .. } | Msg::ReadShadowR { reply, .. } => match reply {
                ReadReply::Data { len, .. } => 32 + len,
                ReadReply::Redirect(owners) => 16 + owners.len() as u64 * 16,
                ReadReply::Err(_) => 16,
            },
            Msg::CreateShadow { .. } => 72,
            Msg::CreateShadowR { .. } => 24,
            Msg::WriteShadow { payload, .. } => 32 + payload_size(payload),
            Msg::WriteShadowR { .. } => 16,
            Msg::ReadShadow { .. } => 40,
            Msg::RenewShadow { .. } => 16,
            Msg::Prepare { items, .. } | Msg::Commit { items, .. } => {
                16 + items.len() as u64 * 24
            }
            Msg::PrepareR { .. } | Msg::CommitR { .. } => 16,
            Msg::Abort { items, .. } => 16 + items.len() as u64 * 8,
            Msg::DirectWrite { payload, .. } => 72 + payload_size(payload),
            Msg::DirectWriteR { .. } => 16,
            Msg::DeleteSeg { .. } => 24,
            Msg::DeleteSegR { .. } => 16,
            Msg::FetchSeg { .. } => 24,
            Msg::FetchSegR { result, .. } => match result {
                Ok(xfer) => 64 + xfer.image.len,
                Err(_) => 16,
            },
            Msg::SyncRequest { .. } => 40,
            Msg::SyncDone { .. } => 32,
            Msg::MigrateTo { .. } => 24,
            Msg::MigrateDone { .. } => 24,
            Msg::EcInstall { xfer, .. } => 64 + xfer.image.len,
            Msg::EcInstallR { .. } => 32,
            Msg::StatsQuery { .. } => 8,
            Msg::StatsR { json, .. } => 8 + json.len() as u64,
            Msg::ChaosCtl { partition, .. } => 40 + partition.len() as u64 * 4,
            Msg::ChaosCtlR { .. } => 8,
            Msg::TraceQuery { .. } => 16,
            Msg::TraceR { json, .. } => 8 + json.len() as u64,
            Msg::NsRename { src, dst, .. } => src.len() as u64 + dst.len() as u64 + 8,
            Msg::NsRenameR { .. } => 16,
            Msg::NsShardInstall { path, .. } => path.len() as u64 + 128,
            Msg::NsShardInstallR { .. } => 16,
            Msg::NsShardDrop { path, .. } => path.len() as u64 + 8,
            Msg::NsShardDropR { .. } => 16,
            Msg::ShardMapQuery { .. } => 8,
            Msg::ShardMapR { rows, .. } => 8 + rows.len() as u64 * 16,
            Msg::NsWalShip { ckpt, recs, .. } => {
                24 + ckpt.as_ref().map_or(0, |c| c.len() as u64)
                    + recs.iter().map(|r| r.len() as u64 + 4).sum::<u64>()
            }
            Msg::NsCatchup { .. } => 16,
            // One SwimUpdate ≈ node + state + incarnation + beat +
            // optional heartbeat payload.
            Msg::SwimPing { updates, .. } | Msg::SwimAck { updates, .. } => {
                24 + updates.len() as u64 * 56
            }
            Msg::SwimPingReq { updates, .. } => 32 + updates.len() as u64 * 56,
            Msg::MembersPull { .. } => 8,
            Msg::MembersDigest { updates, .. } => 8 + updates.len() as u64 * 56,
            Msg::MembersQuery { .. } => 8,
            Msg::MembersR { json, .. } => 8 + json.len() as u64,
        };
        RPC_HEADER + body
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Organization;

    #[test]
    fn bulk_messages_charge_payload_bytes() {
        let small = Msg::ReadSeg {
            req: 1,
            seg: SegId(1),
            offset: 0,
            len: 4_000_000,
            min_version: None,
            allow_redirect: true,
        };
        assert!(small.wire_size() < 512);
        let reply = Msg::ReadSegR {
            req: 1,
            reply: ReadReply::Data {
                len: 4_000_000,
                data: None,
                version: Version(1),
                crc: None,
            },
        };
        assert!(reply.wire_size() > 4_000_000);
        let w = Msg::WriteShadow {
            req: 2,
            shadow: 1,
            offset: 0,
            payload: WritePayload::Synthetic { len: 1_000_000 },
            truncate: false,
        };
        assert!(w.wire_size() > 1_000_000);
    }

    #[test]
    fn ticks_are_free() {
        assert_eq!(Msg::Tick(Tick::Heartbeat).wire_size(), RPC_HEADER);
    }

    #[test]
    fn index_segment_round_trips_through_bytes() {
        let mut ix = IndexSegment::new(
            FileId(42),
            FileOptions {
                organization: Organization::Hybrid { group_stripes: 2 },
                replication: 3,
                ..FileOptions::default()
            },
        );
        let mut n = 0u64;
        ix.plan_write(0, 5 << 20, || {
            n += 1;
            SegId::derive(1, n, 7)
        });
        ix.apply_write(0, 5 << 20);
        let bytes = encode_index(&ix);
        let back = decode_index(&bytes).unwrap();
        assert_eq!(back, ix);
        assert!(decode_index(b"garbage").is_err());
    }
}
