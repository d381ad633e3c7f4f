//! The namespace server (§3.1): one per volume, holding the hierarchical
//! directory tree and per-file entries (FileID, latest version,
//! timestamps) — but **not** segment locations, which would make it a
//! bottleneck under migration.
//!
//! The directory tree lives in [`sorrento_kvdb`] (the Berkeley DB
//! substitute), giving WAL + checkpoint durability: on a crash the node
//! drops its in-memory state and recovers from the backend image on
//! restart. Commit approval implements the §3.5 optimistic check — a
//! commit with a stale base version is refused — plus short write-lock
//! leases between commit-begin and commit-end so two cooperative writers
//! never interleave 2PC windows.
//!
//! # Sharding (metadata plane)
//!
//! The namespace can be partitioned over several servers with the
//! rendezvous partition function in [`crate::nsmap`]: the entry for path
//! `p` lives on `shard_of_dir(parent(p))`, so `ls`, create-in-dir and
//! the §3.5 commit check stay single-shard. A directory `d` additionally
//! keeps a *stub* entry on `shard_of_dir(d)` — the shard holding its
//! children — so a child's parent-existence check is local too. Only
//! `mkdir`, directory `remove`, and cross-shard `rename` pay a
//! two-shard handshake ([`Msg::NsShardInstall`] / [`Msg::NsShardDrop`]),
//! driven by a pending table with resend-safe idempotent targets. With
//! one shard every handshake degenerates to a local put and the server
//! behaves byte-for-byte like the unsharded original.
//!
//! # Hot standby ("cheap recovery")
//!
//! A shard primary can ship its WAL to a hot standby: every
//! [`CostModel::ns_ship_interval`] it drains the kvdb shipping tap into
//! a [`Msg::NsWalShip`] (empty shipments double as liveness beacons).
//! The standby *stores* the latest checkpoint image plus the record
//! tail without applying them; when shipments fall silent for
//! [`CostModel::ns_standby_grace`] it assembles the shipped state and
//! replays the tail — takeover time is therefore bounded by the
//! primary's uncheckpointed WAL tail, which the
//! [`DbConfig::checkpoint_every_batches`] knob caps.

use std::collections::HashMap;

use sorrento_kvdb::{assemble_shipped, Db, DbConfig, MemBackend};
use sorrento_sim::{Ctx, DiskAccess, Node, NodeId, SimTime, TelemetryEvent};

use crate::transport::Transport;

use crate::costs::CostModel;
use crate::dedup::{ReplyCache, DEFAULT_REPLY_CACHE};
use crate::proto::{FileEntry, Msg, ReqId, Tick};
use crate::types::{Error, FileId, FileOptions, Version};

/// Key prefix for namespace entries.
const KEY_PREFIX: &str = "ns:";

fn key_of(path: &str) -> Vec<u8> {
    let mut k = Vec::with_capacity(KEY_PREFIX.len() + path.len());
    k.extend_from_slice(KEY_PREFIX.as_bytes());
    k.extend_from_slice(path.as_bytes());
    k
}

fn parent_of(path: &str) -> Option<&str> {
    if path == "/" {
        return None;
    }
    match path.rfind('/') {
        Some(0) => Some("/"),
        Some(i) => Some(&path[..i]),
        None => None,
    }
}

fn encode_entry(e: &FileEntry) -> Vec<u8> {
    crate::codec::entry_to_json(e).encode().into_bytes()
}

fn decode_entry(bytes: &[u8]) -> Result<FileEntry, crate::codec::CodecError> {
    let text = std::str::from_utf8(bytes).map_err(|_| crate::codec::CodecError::NotUtf8)?;
    let j = sorrento_json::Json::parse(text).map_err(|_| crate::codec::CodecError::BadJson)?;
    crate::codec::entry_from_json(&j)
}

/// An active commit lease.
#[derive(Debug, Clone, Copy)]
struct Lease {
    holder: NodeId,
    expires: SimTime,
}

/// A two-shard handshake awaiting the peer shard's reply.
#[derive(Debug, Clone)]
struct Pending {
    /// The client whose operation is suspended on this handshake.
    client: NodeId,
    /// The client's original request id (the final reply carries it).
    req: ReqId,
    op: PendingOp,
}

/// What to complete once the peer shard confirms.
#[derive(Debug, Clone)]
enum PendingOp {
    /// Cross-shard `mkdir`: stub installed remotely → put the real
    /// entry locally and reply.
    Mkdir { path: String, entry: FileEntry },
    /// Cross-shard directory remove: the children's shard confirmed
    /// empty and dropped the stub → drop the real entry and reply.
    RemoveDir { path: String, entry: FileEntry },
    /// Cross-shard rename: destination installed → drop the source
    /// entry and reply.
    Rename { src: String },
}

fn root_entry() -> FileEntry {
    FileEntry {
        file: FileId(0),
        version: Version::INITIAL,
        size: 0,
        is_dir: true,
        created_ns: 0,
        modified_ns: 0,
        options: FileOptions::default(),
    }
}

/// The namespace server node: a shard primary (possibly the only
/// shard), or a hot standby that promotes itself when its primary's
/// WAL shipments fall silent.
pub struct NamespaceServer {
    costs: CostModel,
    /// `None` transiently across a crash (state is parked in
    /// `parked_backend`) and on a standby before promotion.
    db: Option<Db<MemBackend>>,
    parked_backend: Option<MemBackend>,
    db_config: DbConfig,
    /// Commit locks: path → lease.
    leases: HashMap<String, Lease>,
    /// Operations served (observability).
    pub ops_served: u64,
    /// Number of WAL batches replayed at the last recovery.
    pub recovered_batches: usize,
    /// Replies to recent mutations, replayed verbatim when a resilient
    /// client re-sends a request whose reply was lost.
    replies: ReplyCache,
    // ---- sharding ----
    shard: u32,
    nshards: u32,
    shard_map: crate::nsmap::NsShardMap,
    /// In-flight two-shard handshakes, keyed by the internal request id
    /// used on the shard-to-shard RPC.
    pending: HashMap<ReqId, Pending>,
    next_xreq: ReqId,
    // ---- hot standby (primary side) ----
    standby: Option<NodeId>,
    ship_seq: u64,
    // ---- hot standby (standby side) ----
    standby_mode: bool,
    shipped_ckpt: Option<Vec<u8>>,
    shipped_recs: Vec<Vec<u8>>,
    have_seq: u64,
    /// Promote when `now` passes this without a shipment.
    ship_deadline: SimTime,
    /// WAL batches replayed at the last standby takeover (the measured
    /// failover tail).
    pub failover_replayed: usize,
}

impl NamespaceServer {
    /// A fresh unsharded namespace server with the root pre-created —
    /// the classic single-server deployment.
    pub fn new(costs: CostModel) -> NamespaceServer {
        NamespaceServer::new_sharded(costs, 0, 1)
    }

    /// Shard `shard` of an `nshards`-way partitioned namespace. The root
    /// directory is pre-created on every shard so top-level parent
    /// checks never cross shards.
    pub fn new_sharded(costs: CostModel, shard: u32, nshards: u32) -> NamespaceServer {
        let db_config = DbConfig::default();
        let mut db = Db::open(MemBackend::new(), db_config).expect("mem backend");
        db.put(key_of("/"), encode_entry(&root_entry())).expect("mem io");
        NamespaceServer {
            costs,
            db: Some(db),
            parked_backend: None,
            db_config,
            leases: HashMap::new(),
            ops_served: 0,
            recovered_batches: 0,
            replies: ReplyCache::new(DEFAULT_REPLY_CACHE),
            shard,
            nshards: nshards.max(1),
            shard_map: crate::nsmap::NsShardMap::default(),
            pending: HashMap::new(),
            // Internal handshake ids live far above any client's
            // request counter so a target's reply can never be
            // mistaken for a client reply.
            next_xreq: 1 << 48,
            standby: None,
            ship_seq: 0,
            standby_mode: false,
            shipped_ckpt: None,
            shipped_recs: Vec::new(),
            have_seq: 0,
            ship_deadline: SimTime::ZERO,
            failover_replayed: 0,
        }
    }

    /// A hot standby for shard `shard`: stores shipped WAL state and
    /// serves nothing until its primary's shipments fall silent.
    pub fn new_standby(costs: CostModel, shard: u32, nshards: u32) -> NamespaceServer {
        let mut ns = NamespaceServer::new_sharded(costs, shard, nshards);
        ns.db = None;
        ns.standby_mode = true;
        ns
    }

    /// Install the volume's shard map (used to route the two-shard
    /// handshakes and answer [`Msg::ShardMapQuery`]).
    pub fn set_shard_map(&mut self, map: crate::nsmap::NsShardMap) {
        self.shard_map = map;
    }

    /// Configure WAL shipping to a hot standby (primary side; takes
    /// effect at the next start).
    pub fn set_standby(&mut self, standby: NodeId) {
        self.standby = Some(standby);
    }

    /// Bound the WAL replay tail — and therefore failover time — to at
    /// most `every` batches between checkpoints.
    pub fn set_checkpoint_every_batches(&mut self, every: Option<u64>) {
        self.db_config.checkpoint_every_batches = every;
        if let Some(db) = self.db.as_mut() {
            db.set_checkpoint_every_batches(every);
        }
    }

    /// Whether this node is an unpromoted standby.
    pub fn is_standby(&self) -> bool {
        self.standby_mode
    }

    /// This server's shard index.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// Bytes currently in the WAL tail (0 on an unpromoted standby).
    pub fn wal_tail_bytes(&self) -> usize {
        self.db.as_ref().map_or(0, Db::wal_bytes)
    }

    /// Bulk-load one entry straight into the backend — no WAL record, no
    /// shipping, no checkpoint trigger. Test seeding only: it lets a
    /// scaling test stand up a large tree in O(n) time instead of
    /// replaying n client creates. The caller owns routing — insert each
    /// path on the shard that owns its parent directory, and give a
    /// directory a stub copy on the shard that owns its children (see the
    /// module docs).
    pub fn preseed(&mut self, path: &str, file: FileId, is_dir: bool) {
        let entry = FileEntry {
            file,
            version: Version::INITIAL,
            size: 0,
            is_dir,
            created_ns: 0,
            modified_ns: 0,
            options: FileOptions::default(),
        };
        self.db_mut().load_unlogged(key_of(path), encode_entry(&entry));
    }

    fn db(&self) -> &Db<MemBackend> {
        self.db.as_ref().expect("namespace db open")
    }

    fn db_mut(&mut self) -> &mut Db<MemBackend> {
        self.db.as_mut().expect("namespace db open")
    }

    fn get(&self, path: &str) -> Option<FileEntry> {
        // A corrupt entry is treated as absent here; the caller maps it
        // to `Error::NotFound` like any other missing path.
        self.db().get(key_of(path)).and_then(|b| decode_entry(b).ok())
    }

    fn put(&mut self, path: &str, entry: &FileEntry) {
        let bytes = encode_entry(entry);
        self.db_mut().put(key_of(path), bytes).expect("mem io");
    }

    /// Number of namespace entries (including the root).
    pub fn entry_count(&self) -> usize {
        self.db().len()
    }

    // ---- operations ----

    fn lookup(&self, path: &str) -> Result<FileEntry, Error> {
        self.get(path).ok_or(Error::NotFound)
    }

    fn create(
        &mut self,
        path: &str,
        file: FileId,
        options: FileOptions,
        now: SimTime,
    ) -> Result<FileEntry, Error> {
        if self.get(path).is_some() {
            return Err(Error::AlreadyExists);
        }
        let parent = parent_of(path).ok_or(Error::NotFound)?;
        let pentry = self.get(parent).ok_or(Error::NotFound)?;
        if !pentry.is_dir {
            return Err(Error::NotADirectory);
        }
        let entry = FileEntry {
            file,
            version: Version::INITIAL,
            size: 0,
            is_dir: false,
            created_ns: now.nanos(),
            modified_ns: now.nanos(),
            options,
        };
        self.put(path, &entry);
        Ok(entry)
    }

    fn mkdir(&mut self, path: &str, now: SimTime) -> Result<(), Error> {
        if self.get(path).is_some() {
            return Err(Error::AlreadyExists);
        }
        let parent = parent_of(path).ok_or(Error::NotFound)?;
        let pentry = self.get(parent).ok_or(Error::NotFound)?;
        if !pentry.is_dir {
            return Err(Error::NotADirectory);
        }
        let entry = FileEntry {
            file: FileId(0),
            version: Version::INITIAL,
            size: 0,
            is_dir: true,
            created_ns: now.nanos(),
            modified_ns: now.nanos(),
            options: FileOptions::default(),
        };
        self.put(path, &entry);
        Ok(())
    }

    fn list(&self, path: &str) -> Result<Vec<String>, Error> {
        let entry = self.get(path).ok_or(Error::NotFound)?;
        if !entry.is_dir {
            return Err(Error::NotADirectory);
        }
        let prefix_str = if path == "/" {
            "/".to_string()
        } else {
            format!("{path}/")
        };
        let prefix = key_of(&prefix_str);
        let mut names = Vec::new();
        for (k, _) in self.db().scan_prefix(&prefix) {
            let full = std::str::from_utf8(&k[KEY_PREFIX.len()..]).unwrap_or("");
            let rest = &full[prefix_str.len()..];
            if !rest.is_empty() && !rest.contains('/') {
                names.push(rest.to_string());
            }
        }
        Ok(names)
    }

    fn remove(&mut self, path: &str, client: NodeId) -> Result<FileEntry, Error> {
        let entry = self.get(path).ok_or(Error::NotFound)?;
        if entry.is_dir && !self.list(path)?.is_empty() {
            return Err(Error::NotEmpty);
        }
        if let Some(lease) = self.leases.get(path) {
            if lease.holder != client {
                return Err(Error::LeaseHeld);
            }
        }
        self.db_mut().delete(key_of(path)).expect("mem io");
        self.leases.remove(path);
        Ok(entry)
    }

    fn commit_begin(
        &mut self,
        path: &str,
        base: Version,
        client: NodeId,
        now: SimTime,
    ) -> Result<(), Error> {
        let entry = self.get(path).ok_or(Error::NotFound)?;
        // Optimistic concurrency check (§3.5): a base older than the
        // stored latest means another writer committed first.
        if entry.version != base {
            return Err(Error::VersionConflict);
        }
        match self.leases.get(path) {
            Some(l) if l.holder != client && l.expires > now => Err(Error::LeaseHeld),
            _ => {
                self.leases.insert(
                    path.to_string(),
                    Lease {
                        holder: client,
                        expires: now + self.costs.commit_lease,
                    },
                );
                Ok(())
            }
        }
    }

    fn commit_end(
        &mut self,
        path: &str,
        commit: bool,
        new_version: Version,
        new_size: u64,
        client: NodeId,
        now: SimTime,
    ) -> Result<(), Error> {
        match self.leases.get(path) {
            Some(l) if l.holder == client => {
                self.leases.remove(path);
            }
            Some(_) => return Err(Error::LeaseHeld),
            None if commit => return Err(Error::VersionConflict), // lease lost
            None => return Ok(()),
        }
        if commit {
            let mut entry = self.get(path).ok_or(Error::NotFound)?;
            entry.version = new_version;
            entry.size = new_size;
            entry.modified_ns = now.nanos();
            self.put(path, &entry);
        }
        Ok(())
    }

    // ---- sharded operations ----

    /// The shard holding `dir`'s children (and its stub).
    fn child_shard(&self, dir: &str) -> u32 {
        crate::nsmap::shard_of_dir(dir, self.nshards)
    }

    /// True when a handshake for this `(client, req)` is already in
    /// flight (the client resent while we wait on the peer shard).
    fn handshake_in_flight(&self, client: NodeId, req: ReqId) -> bool {
        self.pending.values().any(|p| p.client == client && p.req == req)
    }

    fn alloc_xreq(&mut self) -> ReqId {
        let x = self.next_xreq;
        self.next_xreq += 1;
        x
    }

    /// Start a two-shard handshake: send `msg` to shard `target`'s
    /// primary and park the suspended operation. Returns `false` when
    /// the target shard is unknown (no map installed).
    fn start_handshake(
        &mut self,
        target: u32,
        xreq: ReqId,
        msg_of: impl FnOnce(ReqId) -> Msg,
        pending: Pending,
        ctx: &mut impl Transport,
    ) -> bool {
        let Some(primary) = self.shard_map.get(target as usize).map(|s| s.primary) else {
            return false;
        };
        ctx.send(primary, msg_of(xreq));
        ctx.set_timer(self.costs.rpc_timeout, Msg::Tick(Tick::XShardTimeout(xreq)));
        self.pending.insert(xreq, pending);
        true
    }

    /// `mkdir` with the directory's children on another shard: validate
    /// locally, install the stub remotely, put the real entry when the
    /// peer confirms. Returns `None` when suspended on the handshake.
    fn mkdir_sharded(
        &mut self,
        path: &str,
        client: NodeId,
        req: ReqId,
        now: SimTime,
        ctx: &mut impl Transport,
    ) -> Option<Result<(), Error>> {
        if self.get(path).is_some() {
            return Some(Err(Error::AlreadyExists));
        }
        let Some(parent) = parent_of(path) else {
            return Some(Err(Error::NotFound));
        };
        let Some(pentry) = self.get(parent) else {
            return Some(Err(Error::NotFound));
        };
        if !pentry.is_dir {
            return Some(Err(Error::NotADirectory));
        }
        let entry = FileEntry {
            file: FileId(0),
            version: Version::INITIAL,
            size: 0,
            is_dir: true,
            created_ns: now.nanos(),
            modified_ns: now.nanos(),
            options: FileOptions::default(),
        };
        let child_shard = self.child_shard(path);
        if child_shard == self.shard {
            // The real entry doubles as the stub: one local put.
            self.put(path, &entry);
            return Some(Ok(()));
        }
        if self.handshake_in_flight(client, req) {
            return None; // client resend; first handshake still pending
        }
        let xreq = self.alloc_xreq();
        let p = path.to_string();
        let e = entry.clone();
        let started = self.start_handshake(
            child_shard,
            xreq,
            |x| Msg::NsShardInstall { req: x, path: p, entry: e, xfer: false },
            Pending {
                client,
                req,
                op: PendingOp::Mkdir { path: path.to_string(), entry },
            },
            ctx,
        );
        if started {
            None
        } else {
            Some(Err(Error::Unavailable))
        }
    }

    /// `remove` routed shard-aware: files and same-shard directories are
    /// local; a directory whose children live elsewhere needs the peer
    /// to confirm-empty and drop the stub first.
    fn remove_sharded(
        &mut self,
        path: &str,
        client: NodeId,
        req: ReqId,
        ctx: &mut impl Transport,
    ) -> Option<Result<FileEntry, Error>> {
        let Some(entry) = self.get(path) else {
            return Some(Err(Error::NotFound));
        };
        if let Some(lease) = self.leases.get(path) {
            if lease.holder != client {
                return Some(Err(Error::LeaseHeld));
            }
        }
        let child_shard = self.child_shard(path);
        if !entry.is_dir || child_shard == self.shard {
            return Some(self.remove(path, client));
        }
        if self.handshake_in_flight(client, req) {
            return None;
        }
        let xreq = self.alloc_xreq();
        let p = path.to_string();
        let started = self.start_handshake(
            child_shard,
            xreq,
            |x| Msg::NsShardDrop { req: x, path: p, check_empty: true },
            Pending {
                client,
                req,
                op: PendingOp::RemoveDir { path: path.to_string(), entry },
            },
            ctx,
        );
        if started {
            None
        } else {
            Some(Err(Error::Unavailable))
        }
    }

    /// File-only `rename`, routed to the source's shard. A same-shard
    /// destination is one local transaction; otherwise the destination
    /// shard installs the entry first and the source is dropped on its
    /// confirmation.
    fn rename_sharded(
        &mut self,
        src: &str,
        dst: &str,
        client: NodeId,
        req: ReqId,
        ctx: &mut impl Transport,
    ) -> Option<Result<(), Error>> {
        let Some(entry) = self.get(src) else {
            return Some(Err(Error::NotFound));
        };
        if entry.is_dir {
            // Directory renames would re-home every descendant's shard;
            // refused (same stance as mode-illegal operations).
            return Some(Err(Error::InvalidMode));
        }
        if let Some(lease) = self.leases.get(src) {
            if lease.holder != client {
                return Some(Err(Error::LeaseHeld));
            }
        }
        let dst_shard = crate::nsmap::shard_of_path(dst, self.nshards);
        if dst_shard == self.shard {
            if self.get(dst).is_some() {
                return Some(Err(Error::AlreadyExists));
            }
            let Some(parent) = parent_of(dst) else {
                return Some(Err(Error::NotFound));
            };
            let Some(pentry) = self.get(parent) else {
                return Some(Err(Error::NotFound));
            };
            if !pentry.is_dir {
                return Some(Err(Error::NotADirectory));
            }
            self.put(dst, &entry);
            self.db_mut().delete(key_of(src)).expect("mem io");
            self.leases.remove(src);
            return Some(Ok(()));
        }
        if self.handshake_in_flight(client, req) {
            return None;
        }
        let xreq = self.alloc_xreq();
        let d = dst.to_string();
        let e = entry.clone();
        let started = self.start_handshake(
            dst_shard,
            xreq,
            |x| Msg::NsShardInstall { req: x, path: d, entry: e, xfer: true },
            Pending {
                client,
                req,
                op: PendingOp::Rename { src: src.to_string() },
            },
            ctx,
        );
        if started {
            None
        } else {
            Some(Err(Error::Unavailable))
        }
    }

    /// Peer-shard side of the handshakes: install a directory stub
    /// (`xfer: false`, unconditional — idempotent under resends) or a
    /// transferred rename destination (`xfer: true`, with local
    /// destination checks).
    fn shard_install(&mut self, path: &str, entry: &FileEntry, xfer: bool) -> Result<(), Error> {
        if !xfer {
            self.put(path, entry);
            return Ok(());
        }
        if let Some(existing) = self.get(path) {
            // An identical entry means this is a resend of a handshake
            // we already completed: confirm instead of conflicting.
            return if existing == *entry { Ok(()) } else { Err(Error::AlreadyExists) };
        }
        let parent = parent_of(path).ok_or(Error::NotFound)?;
        let pentry = self.get(parent).ok_or(Error::NotFound)?;
        if !pentry.is_dir {
            return Err(Error::NotADirectory);
        }
        self.put(path, entry);
        Ok(())
    }

    /// Peer-shard side of directory removal: confirm the directory has
    /// no children here, then drop its stub. A missing stub is a
    /// completed resend → confirm.
    fn shard_drop(&mut self, path: &str, check_empty: bool) -> Result<(), Error> {
        if self.get(path).is_none() {
            return Ok(());
        }
        if check_empty && !self.list(path)?.is_empty() {
            return Err(Error::NotEmpty);
        }
        self.db_mut().delete(key_of(path)).expect("mem io");
        Ok(())
    }

    /// Complete a suspended operation when the peer shard's reply
    /// arrives: apply the local half (on success) and release the
    /// client's reply.
    fn complete_handshake(
        &mut self,
        xreq: ReqId,
        result: Result<(), Error>,
        ctx: &mut impl Transport,
    ) {
        let Some(p) = self.pending.remove(&xreq) else {
            return; // timed out and retried, or a duplicate reply
        };
        let reply = match p.op {
            PendingOp::Mkdir { path, entry } => {
                let result = result.map(|()| self.put(&path, &entry));
                Msg::NsMkdirR { req: p.req, result }
            }
            PendingOp::RemoveDir { path, entry } => {
                let result = result.map(|()| {
                    self.db_mut().delete(key_of(&path)).expect("mem io");
                    self.leases.remove(&path);
                    entry
                });
                Msg::NsRemoveR { req: p.req, result }
            }
            PendingOp::Rename { src } => {
                let result = result.map(|()| {
                    self.db_mut().delete(key_of(&src)).expect("mem io");
                    self.leases.remove(&src);
                });
                Msg::NsRenameR { req: p.req, result }
            }
        };
        self.replies.put(p.client, p.req, reply.clone());
        let done = ctx.cpu(self.costs.ns_op_cpu);
        let disk_done = ctx.disk_submit(256, DiskAccess::Sequential);
        ctx.send_at(done.max(disk_done), p.client, reply);
    }

    // ---- hot standby ----

    /// Export this shard's heartbeat gauges (entries, ops, WAL tail,
    /// failover tail).
    pub fn export_gauges(&mut self, ctx: &mut impl Transport) {
        let k = self.shard;
        if let Some(db) = self.db.as_ref() {
            ctx.metrics().gauge_set(&format!("ns{k}.entries"), db.len() as f64);
            ctx.metrics()
                .gauge_set(&format!("ns{k}.wal_tail_bytes"), db.wal_bytes() as f64);
        }
        ctx.metrics().gauge_set(&format!("ns{k}.ops"), self.ops_served as f64);
        ctx.metrics().gauge_set(
            &format!("ns{k}.failover_replayed"),
            self.failover_replayed as f64,
        );
    }

    /// Drain the shipping tap to the standby. Runs on every
    /// [`Tick::NsShip`]; an empty shipment is still sent as a liveness
    /// beacon.
    fn ship_wal(&mut self, ctx: &mut impl Transport) {
        let Some(standby) = self.standby else { return };
        let Some(db) = self.db.as_mut() else { return };
        let s = db.take_shipment();
        self.ship_seq += 1;
        ctx.send(
            standby,
            Msg::NsWalShip {
                shard: self.shard,
                seq: self.ship_seq,
                ckpt: s.ckpt.map(bytes::Bytes::from),
                recs: s.recs.into_iter().map(bytes::Bytes::from).collect(),
            },
        );
        ctx.set_timer(self.costs.ns_ship_interval, Msg::Tick(Tick::NsShip));
    }

    /// Standby side: store a shipment without applying it. A sequence
    /// gap (lost shipment or primary restart) triggers a catch-up
    /// request for a fresh full image.
    fn ingest_shipment(
        &mut self,
        from: NodeId,
        seq: u64,
        ckpt: Option<Vec<u8>>,
        recs: Vec<Vec<u8>>,
        ctx: &mut impl Transport,
    ) {
        if !self.standby_mode {
            return; // already promoted; a straggler ship is stale
        }
        self.ship_deadline = ctx.now() + self.costs.ns_standby_grace;
        if let Some(img) = ckpt {
            // A full image subsumes everything stored so far and
            // resynchronizes the sequence unconditionally.
            self.shipped_ckpt = Some(img);
            self.shipped_recs = recs;
            self.have_seq = seq;
        } else if seq == self.have_seq + 1 {
            self.have_seq = seq;
            self.shipped_recs.extend(recs);
        } else {
            ctx.send(
                from,
                Msg::NsCatchup { shard: self.shard, have_seq: self.have_seq },
            );
        }
    }

    /// Promote this standby: assemble the shipped checkpoint + tail,
    /// replay the tail, and start serving as the shard primary. The
    /// replayed-batch count is the measured failover tail.
    fn promote(&mut self, ctx: &mut impl Transport) {
        let backend = assemble_shipped(self.shipped_ckpt.as_deref(), &self.shipped_recs);
        let mut db = Db::open(backend, self.db_config).expect("standby promote");
        if !db.contains(key_of("/")) {
            // Nothing was ever shipped: come up as an empty shard.
            db.put(key_of("/"), encode_entry(&root_entry())).expect("mem io");
        }
        self.failover_replayed = db.recovered_batches();
        self.recovered_batches = db.recovered_batches();
        self.db = Some(db);
        self.standby_mode = false;
        self.shipped_ckpt = None;
        self.shipped_recs = Vec::new();
        // Serve as this shard's primary from now on (the map row is
        // updated so ShardMapQuery answers point clients here).
        if self.shard_map.get(self.shard as usize).is_some() {
            self.shard_map.set_primary(self.shard as usize, ctx.id());
        }
        ctx.metrics().count("ns.failovers", 1);
        ctx.metrics().gauge_set(
            &format!("ns{}.failover_replayed", self.shard),
            self.failover_replayed as f64,
        );
        ctx.set_timer(self.costs.commit_lease, Msg::Tick(Tick::LeaseSweep));
    }
}

/// Runtime entry points: shared by the simulator (via the thin [`Node`]
/// impl below) and the real-process runtime.
impl NamespaceServer {
    /// Bring the server online: recover the metadata db, arm the lease
    /// sweep (primaries) or the ship-silence watchdog (standbys).
    pub fn handle_start(&mut self, ctx: &mut impl Transport) {
        if self.standby_mode {
            self.ship_deadline = ctx.now() + self.costs.ns_standby_grace;
            ctx.set_timer(self.costs.ns_standby_grace, Msg::Tick(Tick::StandbyCheck));
            return;
        }
        // Recover from the parked backend after a crash.
        if let Some(backend) = self.parked_backend.take() {
            let db = Db::open(backend, self.db_config).expect("recovery");
            self.recovered_batches = db.recovered_batches();
            self.db = Some(db);
            self.leases.clear();
        }
        if self.standby.is_some() {
            // Prime the shipping tap with a full image so the standby
            // starts from a complete base (also after our own restart).
            let db = self.db_mut();
            db.enable_shipping();
            db.checkpoint().expect("mem io");
            ctx.set_timer(self.costs.ns_ship_interval, Msg::Tick(Tick::NsShip));
        }
        ctx.set_timer(self.costs.commit_lease, Msg::Tick(Tick::LeaseSweep));
    }

    /// Crash handling: in-memory state dies; the kvdb backend ("disk")
    /// survives.
    pub fn handle_crash(&mut self) {
        // In-memory state dies; the kvdb backend ("disk") survives.
        if let Some(db) = self.db.take() {
            self.parked_backend = Some(db.into_backend());
        }
        self.leases.clear();
        self.replies.clear();
        self.pending.clear();
    }

    /// Process one delivered message or fired timer.
    pub fn handle_message(&mut self, from: NodeId, msg: Msg, ctx: &mut impl Transport) {
        let now = ctx.now();
        match msg {
            Msg::Tick(Tick::LeaseSweep) => {
                self.leases.retain(|_, l| l.expires > now);
                self.export_gauges(ctx);
                ctx.set_timer(self.costs.commit_lease, Msg::Tick(Tick::LeaseSweep));
                return;
            }
            Msg::Tick(Tick::NsShip) => {
                self.ship_wal(ctx);
                return;
            }
            Msg::Tick(Tick::StandbyCheck) => {
                if self.standby_mode {
                    if now >= self.ship_deadline {
                        self.promote(ctx);
                    } else {
                        ctx.set_timer(
                            self.costs.ns_standby_grace,
                            Msg::Tick(Tick::StandbyCheck),
                        );
                    }
                }
                return;
            }
            Msg::Tick(Tick::XShardTimeout(xreq)) => {
                // Abandon the handshake: the client's own resend will
                // start a fresh one (targets are idempotent).
                self.pending.remove(&xreq);
                return;
            }
            Msg::SwimPing { seq, origin, .. } => {
                // Namespace nodes are not gossip members (they carry no
                // load/capacity payload), but they answer probes so a
                // SWIM deployment can seed every daemon with every peer
                // without role bookkeeping.
                ctx.send(from, Msg::SwimAck { seq, origin, updates: Vec::new() });
                return;
            }
            Msg::Tick(_) | Msg::Heartbeat(_) => return,
            Msg::NsWalShip { seq, ckpt, recs, .. } => {
                self.ingest_shipment(
                    from,
                    seq,
                    ckpt.map(|b| b.to_vec()),
                    recs.into_iter().map(|b| b.to_vec()).collect(),
                    ctx,
                );
                return;
            }
            Msg::NsCatchup { .. } => {
                // The standby fell behind the shipped tail: force-ship a
                // full image (which resynchronizes its sequence).
                if self.standby.is_some() && self.db.is_some() {
                    let db = self.db_mut();
                    let _ = db.take_shipment(); // subsumed by the image
                    let img = db.checkpoint_image();
                    self.ship_seq += 1;
                    ctx.send(
                        from,
                        Msg::NsWalShip {
                            shard: self.shard,
                            seq: self.ship_seq,
                            ckpt: Some(bytes::Bytes::from(img)),
                            recs: Vec::new(),
                        },
                    );
                }
                return;
            }
            Msg::NsShardInstallR { req, result } | Msg::NsShardDropR { req, result } => {
                self.complete_handshake(req, result, ctx);
                return;
            }
            _ => {}
        }
        if self.standby_mode {
            // Not promoted: a client that failed over here too eagerly
            // gets silence and will retry its primary.
            return;
        }
        // Replayed mutation (same-request resend after a lost reply)?
        // Answer from the cache without executing twice: the first
        // execution may have succeeded, and re-running would turn that
        // success into a spurious AlreadyExists/VersionConflict.
        let dedup_req = dedup_key(&msg);
        if let Some(req) = dedup_req {
            if let Some(cached) = self.replies.get(from, req) {
                let reply = cached.clone();
                ctx.metrics().count("ns.dedup_replays", 1);
                ctx.record(TelemetryEvent::DedupHit {
                    span: crate::proto::span_of(&msg),
                    kind: crate::proto::dbg_kind(&msg),
                });
                let done = ctx.cpu(self.costs.ns_op_cpu);
                ctx.send_at(done, from, reply);
                return;
            }
        }
        self.ops_served += 1;
        let cpu_done = ctx.cpu(self.costs.ns_op_cpu);
        let reply = match msg {
            Msg::NsLookup { req, path } => Msg::NsLookupR {
                req,
                result: self.lookup(&path),
            },
            Msg::NsCreate {
                req,
                path,
                file,
                options,
            } => {
                let result = self.create(&path, file, options, now);
                Msg::NsCreateR { req, result }
            }
            Msg::NsMkdir { req, path } => {
                if self.nshards > 1 {
                    match self.mkdir_sharded(&path, from, req, now, ctx) {
                        Some(result) => Msg::NsMkdirR { req, result },
                        None => return, // suspended on a two-shard handshake
                    }
                } else {
                    Msg::NsMkdirR { req, result: self.mkdir(&path, now) }
                }
            }
            Msg::NsRemove { req, path } => {
                if self.nshards > 1 {
                    match self.remove_sharded(&path, from, req, ctx) {
                        Some(result) => Msg::NsRemoveR { req, result },
                        None => return,
                    }
                } else {
                    Msg::NsRemoveR { req, result: self.remove(&path, from) }
                }
            }
            Msg::NsRename { req, src, dst } => {
                match self.rename_sharded(&src, &dst, from, req, ctx) {
                    Some(result) => Msg::NsRenameR { req, result },
                    None => return,
                }
            }
            Msg::NsShardInstall { req, path, entry, xfer } => Msg::NsShardInstallR {
                req,
                result: self.shard_install(&path, &entry, xfer),
            },
            Msg::NsShardDrop { req, path, check_empty } => Msg::NsShardDropR {
                req,
                result: self.shard_drop(&path, check_empty),
            },
            Msg::ShardMapQuery { req } => Msg::ShardMapR {
                req,
                rows: self
                    .shard_map
                    .iter()
                    .map(|(k, s)| (k, s.primary, s.standby))
                    .collect(),
            },
            Msg::NsList { req, path } => Msg::NsListR {
                req,
                result: self.list(&path),
            },
            Msg::NsCommitBegin { req, span, path, base } => {
                let file = self.get(&path).map(|e| e.file.0).unwrap_or(0);
                let result = self.commit_begin(&path, base, from, now);
                // The §3.5 optimistic check, traced: a failed check is the
                // decisive hop in any version-conflict causal chain.
                ctx.record(TelemetryEvent::VersionCheck {
                    span,
                    file,
                    version: base.0,
                    ok: result.is_ok(),
                });
                Msg::NsCommitBeginR { req, result }
            }
            Msg::NsCommitEnd {
                req,
                span,
                path,
                commit,
                new_version,
                new_size,
            } => {
                let result = self.commit_end(&path, commit, new_version, new_size, from, now);
                if commit {
                    ctx.record(TelemetryEvent::VersionCheck {
                        span,
                        file: self.get(&path).map(|e| e.file.0).unwrap_or(0),
                        version: new_version.0,
                        ok: result.is_ok(),
                    });
                }
                Msg::NsCommitEndR { req, result }
            }
            _ => return, // not a namespace message
        };
        // Mutations pay a WAL append: sequential like Berkeley DB's log
        // (group commit keeps the platter sync off the per-op path),
        // which is what lets one namespace server sustain the ~1300
        // ops/s measured in §4.1.2. Reads are memory + CPU.
        let mutating = matches!(
            reply,
            Msg::NsCreateR { .. }
                | Msg::NsMkdirR { .. }
                | Msg::NsRemoveR { .. }
                | Msg::NsCommitEndR { .. }
                | Msg::NsRenameR { .. }
                | Msg::NsShardInstallR { .. }
                | Msg::NsShardDropR { .. }
        );
        let done = if mutating {
            let disk_done = ctx.disk_submit(256, DiskAccess::Sequential);
            cpu_done.max(disk_done)
        } else {
            cpu_done
        };
        if let Some(req) = dedup_req {
            self.replies.put(from, req, reply.clone());
        }
        ctx.send_at(done, from, reply);
    }
}

/// The request id of a namespace message that must not execute twice
/// (`None` for idempotent reads, which are cheaper to re-run than to
/// cache).
fn dedup_key(msg: &Msg) -> Option<ReqId> {
    match msg {
        Msg::NsCreate { req, .. }
        | Msg::NsMkdir { req, .. }
        | Msg::NsRemove { req, .. }
        | Msg::NsRename { req, .. }
        | Msg::NsCommitBegin { req, .. }
        | Msg::NsCommitEnd { req, .. } => Some(*req),
        _ => None,
    }
}

impl Node<Msg> for NamespaceServer {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.handle_start(ctx)
    }

    fn on_crash(&mut self) {
        self.handle_crash()
    }

    fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        self.handle_message(from, msg, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sorrento_sim::Dur;

    fn ns() -> NamespaceServer {
        NamespaceServer::new(CostModel::fast_test())
    }

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + Dur::secs(s)
    }

    fn node(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    fn opts() -> FileOptions {
        FileOptions::default()
    }

    #[test]
    fn create_lookup_remove() {
        let mut n = ns();
        let entry = n.create("/a", FileId(1), opts(), t(0)).unwrap();
        assert_eq!(entry.file, FileId(1));
        assert_eq!(entry.version, Version::INITIAL);
        assert_eq!(n.lookup("/a").unwrap().file, FileId(1));
        assert_eq!(n.create("/a", FileId(2), opts(), t(0)), Err(Error::AlreadyExists));
        assert_eq!(n.lookup("/missing"), Err(Error::NotFound));
        let removed = n.remove("/a", node(1)).unwrap();
        assert_eq!(removed.file, FileId(1));
        assert_eq!(n.lookup("/a"), Err(Error::NotFound));
    }

    #[test]
    fn nested_paths_require_parent_dirs() {
        let mut n = ns();
        assert_eq!(
            n.create("/d/x", FileId(1), opts(), t(0)),
            Err(Error::NotFound)
        );
        n.mkdir("/d", t(0)).unwrap();
        n.create("/d/x", FileId(1), opts(), t(0)).unwrap();
        // A file is not a directory.
        assert_eq!(
            n.create("/d/x/y", FileId(2), opts(), t(0)),
            Err(Error::NotADirectory)
        );
    }

    #[test]
    fn list_direct_children_only() {
        let mut n = ns();
        n.mkdir("/d", t(0)).unwrap();
        n.mkdir("/d/sub", t(0)).unwrap();
        n.create("/d/a", FileId(1), opts(), t(0)).unwrap();
        n.create("/d/sub/deep", FileId(2), opts(), t(0)).unwrap();
        n.create("/da", FileId(3), opts(), t(0)).unwrap(); // sibling prefix
        let mut names = n.list("/d").unwrap();
        names.sort();
        assert_eq!(names, vec!["a", "sub"]);
        let mut root = n.list("/").unwrap();
        root.sort();
        assert_eq!(root, vec!["d", "da"]);
    }

    #[test]
    fn remove_nonempty_dir_refused() {
        let mut n = ns();
        n.mkdir("/d", t(0)).unwrap();
        n.create("/d/a", FileId(1), opts(), t(0)).unwrap();
        assert_eq!(n.remove("/d", node(1)), Err(Error::NotEmpty));
        n.remove("/d/a", node(1)).unwrap();
        n.remove("/d", node(1)).unwrap();
    }

    #[test]
    fn commit_flow_advances_version() {
        let mut n = ns();
        n.create("/f", FileId(1), opts(), t(0)).unwrap();
        n.commit_begin("/f", Version::INITIAL, node(1), t(1)).unwrap();
        n.commit_end("/f", true, Version(1), 4096, node(1), t(1))
            .unwrap();
        let e = n.lookup("/f").unwrap();
        assert_eq!(e.version, Version(1));
        assert_eq!(e.size, 4096);
    }

    #[test]
    fn stale_base_is_refused() {
        let mut n = ns();
        n.create("/f", FileId(1), opts(), t(0)).unwrap();
        n.commit_begin("/f", Version::INITIAL, node(1), t(1)).unwrap();
        n.commit_end("/f", true, Version(1), 10, node(1), t(1))
            .unwrap();
        // A second writer based on v0 must conflict.
        assert_eq!(
            n.commit_begin("/f", Version::INITIAL, node(2), t(2)),
            Err(Error::VersionConflict)
        );
        // Based on v1 it goes through.
        n.commit_begin("/f", Version(1), node(2), t(2)).unwrap();
    }

    #[test]
    fn concurrent_commit_lease_blocks_second_writer() {
        let mut n = ns();
        n.create("/f", FileId(1), opts(), t(0)).unwrap();
        n.commit_begin("/f", Version::INITIAL, node(1), t(1)).unwrap();
        assert_eq!(
            n.commit_begin("/f", Version::INITIAL, node(2), t(2)),
            Err(Error::LeaseHeld)
        );
        // Abort releases the lease.
        n.commit_end("/f", false, Version::INITIAL, 0, node(1), t(3))
            .unwrap();
        n.commit_begin("/f", Version::INITIAL, node(2), t(3)).unwrap();
    }

    #[test]
    fn expired_lease_can_be_stolen() {
        let mut n = ns();
        n.create("/f", FileId(1), opts(), t(0)).unwrap();
        n.commit_begin("/f", Version::INITIAL, node(1), t(0)).unwrap();
        // fast_test lease = 10 s.
        assert_eq!(
            n.commit_begin("/f", Version::INITIAL, node(2), t(5)),
            Err(Error::LeaseHeld)
        );
        n.commit_begin("/f", Version::INITIAL, node(2), t(11)).unwrap();
        // The original holder lost its lease: its commit-end fails.
        assert_eq!(
            n.commit_end("/f", true, Version(1), 10, node(1), t(12)),
            Err(Error::LeaseHeld)
        );
    }

    #[test]
    fn shard_install_stub_is_idempotent() {
        let mut n = ns();
        let mut stub = root_entry();
        stub.created_ns = 1;
        n.shard_install("/d", &stub, false).unwrap();
        n.shard_install("/d", &stub, false).unwrap(); // resend: still Ok
        assert!(n.lookup("/d").unwrap().is_dir);
    }

    #[test]
    fn shard_install_transfer_checks_destination() {
        let mut n = ns();
        n.mkdir("/d", t(0)).unwrap();
        let fe = n.create("/seed", FileId(5), opts(), t(0)).unwrap();
        n.remove("/seed", node(1)).unwrap();
        n.shard_install("/d/f", &fe, true).unwrap();
        // Identical resend confirms; a different entry conflicts.
        n.shard_install("/d/f", &fe, true).unwrap();
        let mut other = fe.clone();
        other.file = FileId(6);
        assert_eq!(n.shard_install("/d/f", &other, true), Err(Error::AlreadyExists));
        // Missing destination parent is refused.
        assert_eq!(n.shard_install("/nodir/f", &fe, true), Err(Error::NotFound));
    }

    #[test]
    fn shard_drop_confirms_empty_and_tolerates_resends() {
        let mut n = ns();
        n.mkdir("/d", t(0)).unwrap();
        n.create("/d/f", FileId(1), opts(), t(0)).unwrap();
        assert_eq!(n.shard_drop("/d", true), Err(Error::NotEmpty));
        n.remove("/d/f", node(1)).unwrap();
        n.shard_drop("/d", true).unwrap();
        n.shard_drop("/d", true).unwrap(); // stub already gone: confirm
        assert_eq!(n.lookup("/d"), Err(Error::NotFound));
    }

    #[test]
    fn state_survives_crash_via_backend() {
        let mut n = ns();
        n.create("/f", FileId(7), opts(), t(0)).unwrap();
        n.commit_begin("/f", Version::INITIAL, node(1), t(1)).unwrap();
        n.commit_end("/f", true, Version(1), 99, node(1), t(1))
            .unwrap();
        // Crash: park the backend (what Node::on_crash does).
        n.on_crash();
        assert!(n.db.is_none());
        // Recover (what on_start does).
        let db = Db::open(n.parked_backend.take().unwrap(), DbConfig::default()).unwrap();
        n.db = Some(db);
        let e = n.lookup("/f").unwrap();
        assert_eq!(e.version, Version(1));
        assert_eq!(e.size, 99);
    }
}
