//! The owner role (§3.3, §3.5): serves the segments in this node's
//! store — reads, shadow copies and their two-phase commit, byte-range
//! writes, deletes, replica exports and installs — logs who reads them,
//! and tells each segment's home host when its copy here changes.

use sorrento_sim::{DiskAccess, Dur, NodeId, SimTime, TelemetryEvent};

use super::access::AccessLog;
use super::home::HomeHost;
use super::membership::Membership;
use crate::costs::CostModel;
use crate::dedup::{ReplyCache, DEFAULT_REPLY_CACHE};
use crate::membership::{Ewma, Heartbeat};
use crate::proto::{span_of, Msg, ReadReply, ReqId};
use crate::store::{LocalStore, ReplicaImage, Transfer};
use crate::transport::Transport;
use crate::types::{Error, SegId, Version};

/// The owner's soft state. The store it serves is the router's: it is
/// the disk, the one thing that outlives a crash.
pub(crate) struct Owner {
    costs: CostModel,
    /// Replies to recent non-idempotent requests (shadow creation, 2PC
    /// votes, direct writes, shard installs), replayed verbatim when a
    /// resilient client re-sends a request whose reply was lost.
    replies: ReplyCache,
    load_ewma: Ewma,
    /// Disk bytes currently accounted to the simulator's disk model.
    disk_accounted: u64,
}

impl Owner {
    pub(crate) fn new(costs: CostModel) -> Owner {
        Owner {
            costs,
            replies: ReplyCache::new(DEFAULT_REPLY_CACHE),
            load_ewma: Ewma::new(costs.load_ewma_alpha),
            disk_accounted: 0,
        }
    }

    /// Current smoothed I/O-wait load.
    pub(crate) fn load(&self) -> f64 {
        self.load_ewma.get()
    }

    /// Reconcile disk accounting at boot: shadows died with a crash;
    /// committed segments survived on disk.
    pub(crate) fn start(&mut self, ctx: &mut impl Transport, store: &LocalStore) {
        self.disk_accounted = ctx.disk().used();
        self.sync_disk(ctx, store);
    }

    /// Reconcile the store's physical bytes with the simulated disk.
    fn sync_disk(&mut self, ctx: &mut impl Transport, store: &LocalStore) {
        let target = store.total_stored_bytes();
        if target > self.disk_accounted {
            // Over-commit is clamped: the explicit space check in
            // write paths keeps us under capacity in normal operation.
            let _ = ctx.disk().alloc(target - self.disk_accounted);
        } else {
            ctx.disk().free(self.disk_accounted - target);
        }
        self.disk_accounted = target;
    }

    /// This node's announcement: a fresh load sample and the disk's
    /// space.
    pub(crate) fn heartbeat(&mut self, ctx: &mut impl Transport, rack: u32) -> Heartbeat {
        let now = ctx.now();
        let io_wait = ctx.disk().sample_io_wait(now);
        let load = self.load_ewma.update(io_wait);
        Heartbeat {
            load,
            available: ctx.disk().available(),
            capacity: ctx.disk().capacity(),
            machine: ctx.machine_of(ctx.id()),
            rack,
        }
    }

    /// Expired shadows give their space back.
    pub(crate) fn expire_shadows(&mut self, ctx: &mut impl Transport, store: &mut LocalStore) {
        store.expire_shadows(ctx.now());
        self.sync_disk(ctx, store);
    }

    /// An outgoing migration landed: the copy here goes.
    pub(crate) fn migrated_away(
        &mut self,
        ctx: &mut impl Transport,
        store: &mut LocalStore,
        home: &mut HomeHost,
        members: &mut Membership,
        seg: SegId,
    ) {
        store.delete_segment(seg);
        self.sync_disk(ctx, store);
        home.upsert_own(ctx, members, store, seg, None);
    }

    /// Install a replica pulled or pushed here; `Ok(false)` means this
    /// node already holds that version or newer. A repair's arrival is
    /// recorded when `repair` is set.
    pub(crate) fn install(
        &mut self,
        ctx: &mut impl Transport,
        store: &mut LocalStore,
        home: &mut HomeHost,
        members: &mut Membership,
        xfer: Transfer,
        repair: bool,
    ) -> Result<bool, Error> {
        let ReplicaImage { seg, version, len, .. } = xfer.image;
        if len > ctx.disk().available().saturating_add(store.stored_bytes(seg)) {
            return Err(Error::OutOfSpace);
        }
        if !store.install_replica(xfer, ctx.now())? {
            return Ok(false);
        }
        if repair {
            ctx.record(TelemetryEvent::RepairDone { seg: seg.0, to: ctx.id() });
        }
        self.sync_disk(ctx, store);
        ctx.disk_submit(len, DiskAccess::Sequential);
        let replication = store.meta(seg).map(|m| m.replication).unwrap_or(1);
        home.upsert_own(ctx, members, store, seg, Some((version, replication)));
        Ok(true)
    }

    /// A `ReadSeg`: served from the store, which logs each read served
    /// (the store for temperature, `access` for locality); or redirected
    /// via the location table (this node may be the segment's home host);
    /// or failed.
    pub(crate) fn read(
        &self,
        from: NodeId,
        msg: Msg,
        ctx: &mut impl Transport,
        store: &mut LocalStore,
        access: &mut AccessLog,
        home: &HomeHost,
    ) {
        let Msg::ReadSeg { req, seg, offset, len, min_version, allow_redirect } = msg else {
            return;
        };
        // Serve the exact requested version when we hold it (the open
        // pinned it); otherwise our latest, provided it is not older than
        // requested. Exactness matters: a divergent orphan from a failed
        // 2PC can share a sequence number with the real commit, and only
        // the full (entropy-carrying) version identifies the right bytes.
        let serve_version = match (store.latest(seg), min_version) {
            (Some(_), Some(min)) if store.has_version(seg, min) => Some(Some(min)),
            (Some(v), Some(min)) if v >= min => Some(None),
            (Some(_), None) => Some(None),
            _ => None,
        };
        let reply = match serve_version.map(|v| store.read(seg, v, offset, len)) {
            Some(Ok(out)) => {
                store.touch(seg, ctx.now());
                if let Some(meta) = store.meta(seg) {
                    access.record(seg, meta.policy, ctx.machine_of(from), out.len);
                }
                ReadReply::Data { len: out.len, data: out.data, version: out.version, crc: out.crc }
            }
            Some(Err(e)) => ReadReply::Err(e),
            None => match home.owners(seg) {
                owners if allow_redirect && !owners.is_empty() => ReadReply::Redirect(owners),
                _ => ReadReply::Err(Error::NoSuchSegment),
            },
        };
        let done = done_after_read(ctx, self.costs.provider_op_cpu, &reply);
        ctx.send_at(done, from, Msg::ReadSegR { req, reply });
    }

    /// The data path's other messages. Returns whether a replica was
    /// installed.
    pub(crate) fn handle(
        &mut self,
        from: NodeId,
        msg: Msg,
        ctx: &mut impl Transport,
        store: &mut LocalStore,
        home: &mut HomeHost,
        members: &mut Membership,
    ) -> bool {
        let now = ctx.now();
        // Replayed non-idempotent request (same-request resend after a
        // lost reply)? Answer from the cache without executing twice: a
        // re-run Commit on an already-consumed shadow would return
        // `ShadowExpired` for a write that actually succeeded.
        if let Some(cached) = dedup_key(&msg).and_then(|req| self.replies.get(from, req)) {
            let reply = cached.clone();
            ctx.metrics().count("provider.dedup_replays", 1);
            ctx.record(TelemetryEvent::DedupHit {
                span: span_of(&msg),
                kind: crate::proto::dbg_kind(&msg),
            });
            let done = ctx.cpu(self.costs.provider_op_cpu);
            ctx.send_at(done, from, reply);
            return false;
        }
        let op_cpu = self.costs.provider_op_cpu;
        match msg {
            Msg::BackupQuery { req, seg } => {
                ctx.metrics().count_labeled("loc.query", "backup", 1);
                if let Some(version) = store.latest(seg) {
                    let done = ctx.cpu(op_cpu);
                    ctx.send_at(done, from, Msg::BackupQueryR { req, seg, version });
                }
            }
            Msg::CreateShadow { req, span, seg, base, meta } => {
                let fresh = base.is_none();
                let result = match base {
                    Some(v) => store.open_shadow(seg, v, now, self.costs.shadow_ttl),
                    None => Ok(store.open_fresh_shadow(seg, meta, now, self.costs.shadow_ttl)),
                };
                if fresh && result.is_ok() {
                    ctx.record(TelemetryEvent::SegCreate { span, seg: seg.0, on: ctx.id() });
                }
                let done = ctx.cpu(op_cpu);
                self.reply(ctx, from, req, done, Msg::CreateShadowR { req, result });
            }
            Msg::WriteShadow { req, shadow, offset, payload, truncate } => {
                let bytes = payload.len();
                let result = if bytes > ctx.disk().available() {
                    Err(Error::OutOfSpace)
                } else {
                    let r = store.write_shadow(shadow, offset, payload);
                    if r.is_ok() && truncate {
                        let _ = store.truncate_shadow(shadow, offset + bytes);
                    }
                    r
                };
                self.sync_disk(ctx, store);
                let cpu_done = ctx.cpu(op_cpu);
                let disk_done = ctx.disk_submit(bytes, DiskAccess::Sequential);
                ctx.send_at(cpu_done.max(disk_done), from, Msg::WriteShadowR { req, result });
            }
            Msg::ReadShadow { req, shadow, offset, len } => {
                let reply = match store.read_shadow(shadow, offset, len) {
                    Ok(out) => ReadReply::Data {
                        len: out.len,
                        data: out.data,
                        version: out.version,
                        crc: out.crc,
                    },
                    Err(e) => ReadReply::Err(e),
                };
                let done = done_after_read(ctx, op_cpu, &reply);
                ctx.send_at(done, from, Msg::ReadShadowR { req, reply });
            }
            Msg::RenewShadow { shadow } => {
                let _ = store.renew_shadow(shadow, now, self.costs.shadow_ttl);
            }
            Msg::Prepare { req, span, items } => {
                let mut result = Ok(());
                for &(shadow, target) in &items {
                    let seg = store.shadow_segment(shadow).map(|s| s.0).unwrap_or(0);
                    result = store.prepare_shadow(shadow, target);
                    ctx.record(TelemetryEvent::TwoPcPrepare { span, seg, ok: result.is_ok() });
                    if result.is_err() {
                        break;
                    }
                }
                let done = ctx.cpu(op_cpu).max(ctx.disk_submit(512, DiskAccess::Sync));
                self.reply(ctx, from, req, done, Msg::PrepareR { req, result });
            }
            Msg::Commit { req, span, items } => {
                let mut result = Ok(());
                let mut committed: Vec<(SegId, Version, u32)> = Vec::new();
                for &(shadow, target) in &items {
                    let Some(seg) = store.shadow_segment(shadow) else {
                        result = Err(Error::ShadowExpired);
                        continue;
                    };
                    match store.commit_shadow(shadow, target, now) {
                        Ok(()) => {
                            ctx.record(TelemetryEvent::SegCommit {
                                span,
                                seg: seg.0,
                                version: target.0,
                            });
                            ctx.record(TelemetryEvent::TwoPcCommit { span, seg: seg.0 });
                            let replication = store.meta(seg).map(|m| m.replication).unwrap_or(1);
                            committed.push((seg, target, replication));
                        }
                        Err(e) => result = Err(e),
                    }
                }
                self.sync_disk(ctx, store);
                // Fast-path location updates (Figure 6 step 10): owners
                // tell home hosts about the version advance, which kicks
                // lazy propagation to stale replicas.
                for (seg, version, replication) in committed {
                    home.upsert_own(ctx, members, store, seg, Some((version, replication)));
                }
                let done = ctx.cpu(op_cpu).max(ctx.disk_submit(512, DiskAccess::Sync));
                self.reply(ctx, from, req, done, Msg::CommitR { req, result });
            }
            Msg::Abort { span, items } => {
                for shadow in items {
                    let seg = store.shadow_segment(shadow).map(|s| s.0).unwrap_or(0);
                    ctx.record(TelemetryEvent::TwoPcAbort { span, seg, reason: "client_abort" });
                    store.abort_shadow(shadow);
                }
                self.sync_disk(ctx, store);
            }
            Msg::DirectWrite { req, seg, offset, payload, meta } => {
                let bytes = payload.len();
                let existed = store.has_segment(seg);
                let result = if bytes > ctx.disk().available() {
                    Err(Error::OutOfSpace)
                } else {
                    store.direct_write(seg, offset, payload, meta, now)
                };
                self.sync_disk(ctx, store);
                if !existed && result.is_ok() {
                    home.upsert_own(ctx, members, store, seg, Some((Version(1), meta.replication)));
                }
                let done = ctx.cpu(op_cpu).max(ctx.disk_submit(bytes, DiskAccess::Sequential));
                self.reply(ctx, from, req, done, Msg::DirectWriteR { req, result });
            }
            Msg::DeleteSeg { req, seg } => {
                let existed = store.delete_segment(seg);
                self.sync_disk(ctx, store);
                if existed {
                    home.upsert_own(ctx, members, store, seg, None);
                }
                let done = ctx.cpu(op_cpu).max(ctx.disk_submit(128, DiskAccess::Sync));
                ctx.send_at(done, from, Msg::DeleteSegR { req, existed });
            }
            Msg::FetchSeg { req, seg } => {
                let result = store.export_transfer(seg, None).map(Box::new);
                let cpu_done = ctx.cpu(op_cpu);
                let done = match &result {
                    Ok(xfer) => {
                        cpu_done.max(ctx.disk_submit(xfer.image.len, DiskAccess::Sequential))
                    }
                    Err(_) => cpu_done,
                };
                ctx.send_at(done, from, Msg::FetchSegR { req, result });
            }
            Msg::EcInstall { req, xfer } => {
                let seg = xfer.image.seg;
                // `Ok(false)`: this node already holds that version or
                // newer — the repair goal is met either way.
                let installed = self.install(ctx, store, home, members, *xfer, true);
                let done = ctx.cpu(op_cpu).max(ctx.disk_submit(512, DiskAccess::Sync));
                let result = installed.clone().map(|_| ());
                self.reply(ctx, from, req, done, Msg::EcInstallR { req, seg, result });
                return installed == Ok(true);
            }
            _ => {}
        }
        false
    }

    /// Send a non-idempotent request's reply at `at`, and keep it for a
    /// replay.
    fn reply(&mut self, ctx: &mut impl Transport, to: NodeId, req: ReqId, at: SimTime, reply: Msg) {
        self.replies.put(to, req, reply.clone());
        ctx.send_at(at, to, reply);
    }
}

/// The request id of a provider message that must not execute twice
/// (`None` for idempotent requests: reads, and shadow writes — which
/// place the same bytes at the same offset on replay).
fn dedup_key(msg: &Msg) -> Option<ReqId> {
    match msg {
        Msg::CreateShadow { req, .. }
        | Msg::Prepare { req, .. }
        | Msg::Commit { req, .. }
        | Msg::DirectWrite { req, .. }
        | Msg::EcInstall { req, .. } => Some(*req),
        _ => None,
    }
}

/// When a read's reply may leave: after the CPU, and after the disk
/// when it carries data.
fn done_after_read(ctx: &mut impl Transport, op_cpu: Dur, reply: &ReadReply) -> SimTime {
    let cpu_done = ctx.cpu(op_cpu);
    match reply {
        ReadReply::Data { len, .. } => cpu_done.max(ctx.disk_submit(*len, DiskAccess::Random)),
        _ => cpu_done,
    }
}
