//! The open flow (Figure 7): resolve the path, then read the file's
//! index segment through its home host, which serves it or redirects to
//! an owner; when the home host cannot help, the multicast backup query
//! (§3.4.2) finds the owners. Unlink reads the index the same way to
//! learn the segments it deletes. The location queries every flow sends
//! for segments whose owners it does not know live here too.

use std::collections::HashMap;

use sorrento_sim::{NodeId, TelemetryEvent};

use super::{ClientOp, OpenFile, Pending, Phase, SorrentoClient};
use crate::layout::{IndexSegment, WriteViews};
use crate::proto::{decode_index, FileEntry, Msg, ReadReply, ReqId, Tick};
use crate::transport::Transport;
use crate::types::{Error, SegId, Version};

impl SorrentoClient {
    /// The path resolved to `entry` (an open's lookup, or a create):
    /// open the file, and read its index unless nothing is committed.
    pub(super) fn on_entry_resolved(&mut self, ctx: &mut impl Transport, entry: FileEntry) {
        let Some(op) = self.op() else {
            return;
        };
        let (path, writable, is_create) = match op {
            ClientOp::Create { path } | ClientOp::CreateWith { path, .. } => {
                (path.clone(), true, true)
            }
            ClientOp::Open { path, write } => (path.clone(), *write, false),
            _ => (String::new(), false, false),
        };
        let (seg, version) = (entry.file.index_segment(), entry.version);
        // Nothing committed yet: fresh index, no segment reads. A
        // freshly created file is born dirty so that close commits
        // its (possibly empty) index segment — creation is not
        // durable in the data plane until that first commit.
        let fresh = is_create || version == Version::INITIAL;
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
        if fresh {
            self.complete_op(ctx, None, 0, None);
            return;
        }
        // Read the index segment via its home host (Figure 7 step 2).
        self.set_phase(Phase::OpenIndex);
        self.read_index_segment(ctx, seg, version);
    }

    pub(super) fn read_index_segment(
        &mut self,
        ctx: &mut impl Transport,
        seg: SegId,
        version: Version,
    ) {
        let Some(home) = self.members.home(seg) else {
            self.retry_or_fail(ctx, Error::Timeout);
            return;
        };
        let pending = Pending::IndexRead { owner_known: false };
        self.fetch_segment(ctx, home, seg, Some(version), pending);
    }

    /// Read all of `seg` from `to`: an index segment through its home
    /// host (`IndexRead { owner_known: false }`, the one read that may
    /// be redirected) or from an owner, or a shard of a degraded read.
    pub(super) fn fetch_segment(
        &mut self,
        ctx: &mut impl Transport,
        to: NodeId,
        seg: SegId,
        min_version: Option<Version>,
        pending: Pending,
    ) {
        let allow_redirect = matches!(pending, Pending::IndexRead { owner_known: false });
        self.rpc(ctx, to, pending, |req| Msg::ReadSeg {
            req,
            seg,
            offset: 0,
            len: u64::MAX,
            min_version,
            allow_redirect,
        });
    }

    /// Read index segment `seg` from one of `owners` (a home host's
    /// redirect, or the backup query's hits). With no live owner among
    /// them, an open retries and an unlink deletes what it knows.
    fn read_index_from(
        &mut self,
        ctx: &mut impl Transport,
        seg: SegId,
        owners: &[(NodeId, Version)],
        min_version: Option<Version>,
    ) {
        let Some(owner) = self.choose_owner(owners, min_version, ctx.rng()) else {
            if matches!(self.phase(), Some(Phase::Unlinking { .. })) {
                self.continue_unlink(ctx);
            } else {
                self.retry_or_fail(ctx, Error::NoSuchSegment);
            }
            return;
        };
        self.fetch_segment(ctx, owner, seg, min_version, Pending::IndexRead { owner_known: true });
    }

    /// A reply to a request of the open or unlink flow, or to any
    /// flow's location query.
    pub(super) fn on_open_reply(
        &mut self,
        ctx: &mut impl Transport,
        from: NodeId,
        pending: Pending,
        msg: Msg,
    ) {
        let unlinking = matches!(self.phase(), Some(Phase::Unlinking { .. }));
        match (pending, msg) {
            (Pending::IndexRead { .. }, Msg::ReadSegR { reply, .. }) if unlinking => {
                self.on_unlink_index(ctx, reply);
            }
            (Pending::IndexRead { owner_known }, Msg::ReadSegR { reply, .. }) => {
                self.on_index_read(ctx, from, reply, owner_known);
            }
            (Pending::LocQuery { seg }, Msg::LocQueryR { owners, .. }) if unlinking => {
                if let Some((_, _, Phase::Unlinking { deletes, .. }, _)) = &mut self.op {
                    for (owner, _) in &owners {
                        deletes.push((seg, *owner));
                    }
                }
                self.continue_unlink(ctx);
            }
            (Pending::LocQuery { seg }, Msg::LocQueryR { owners, .. }) => {
                if owners.is_empty() {
                    self.start_backup_query(ctx, seg);
                    return;
                }
                if let Some(f) = &mut self.file {
                    f.owners.insert(seg, owners);
                }
                self.resume_located(ctx);
            }
            (Pending::Delete, Msg::DeleteSegR { .. }) => self.on_deleted(ctx),
            _ => {}
        }
    }

    /// The open's (or an atomic append's refresh's) index read was
    /// answered.
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
                if matches!(self.op(), Some(ClientOp::AtomicAppend { .. })) {
                    // Append retry: index refreshed, redo the write.
                    self.dispatch_stage(ctx);
                } else {
                    self.complete_op(ctx, None, 0, None);
                }
            }
            ReadReply::Redirect(owners) => {
                let (seg, version) = self.index_of_open_file();
                self.read_index_from(ctx, seg, &owners, Some(version));
            }
            ReadReply::Err(_) if !owner_known => {
                // Base scheme failed: fall back to the multicast backup
                // query (§3.4.2).
                let (seg, _) = self.index_of_open_file();
                self.start_backup_query(ctx, seg);
            }
            ReadReply::Err(e) => {
                self.retry_or_fail(ctx, e);
            }
        }
    }

    /// The open file's index segment and committed version.
    fn index_of_open_file(&self) -> (SegId, Version) {
        let f = self.file.as_ref().expect("open flow has a file");
        (f.entry.file.index_segment(), f.entry.version)
    }

    /// Ask the home host of each of `segs` for its owners: one
    /// `LocQuery` per segment, none for a segment with a query in flight
    /// or no home host.
    pub(super) fn locate(&mut self, ctx: &mut impl Transport, segs: Vec<SegId>) {
        let mut asked: Vec<SegId> = self
            .pending
            .values()
            .filter_map(|(_, p)| match p {
                Pending::LocQuery { seg } => Some(*seg),
                _ => None,
            })
            .collect();
        for seg in segs {
            if asked.contains(&seg) {
                continue;
            }
            asked.push(seg);
            let Some(home) = self.members.home(seg) else {
                continue;
            };
            self.rpc(ctx, home, Pending::LocQuery { seg }, |req| Msg::LocQuery { req, seg });
        }
    }

    /// Owners the read or write in progress waited on are known: go on.
    fn resume_located(&mut self, ctx: &mut impl Transport) {
        match self.phase() {
            Some(Phase::Reading { .. }) => self.continue_read(ctx),
            Some(Phase::Writing { .. }) => self.continue_write(ctx),
            _ => {}
        }
    }

    pub(super) fn start_backup_query(&mut self, ctx: &mut impl Transport, seg: SegId) {
        let req = self.fresh_req();
        self.pending.insert(req, (ctx.id(), Pending::Backup { seg, hits: Vec::new() }));
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

    pub(super) fn on_backup_deadline(&mut self, ctx: &mut impl Transport, req: ReqId) {
        let Some((_, Pending::Backup { seg, hits })) = self.pending.remove(&req) else {
            return;
        };
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
        if matches!(self.phase(), Some(Phase::OpenIndex)) {
            let version = self.file.as_ref().map(|f| f.entry.version);
            self.read_index_from(ctx, seg, &hits, version);
        } else {
            self.resume_located(ctx);
        }
    }

    // ------------------------------------------------------------------
    // Unlink flow
    // ------------------------------------------------------------------

    /// The namespace removed the file's entry.
    pub(super) fn on_removed(&mut self, ctx: &mut impl Transport, entry: FileEntry) {
        if entry.version == Version::INITIAL {
            // Never committed: no segments to clean up.
            self.complete_op(ctx, None, 0, None);
            return;
        }
        // Read the index to learn the data segments, then delete
        // everything eagerly.
        let seg = entry.file.index_segment();
        self.set_phase(Phase::Unlinking {
            index: seg,
            to_locate: vec![seg],
            deletes: Vec::new(),
            outstanding: 0,
        });
        let Some(home) = self.members.home(seg) else {
            self.complete_op(ctx, None, 0, None);
            return;
        };
        self.fetch_segment(ctx, home, seg, None, Pending::IndexRead { owner_known: false });
    }

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
            self.rpc(ctx, home, Pending::LocQuery { seg }, |req| Msg::LocQuery { req, seg });
            return;
        }
        if let Some((seg, owner)) = deletes.pop() {
            // Replica removal is eager and serialized, which is why the
            // paper's unlink time grows with the replication degree
            // (Figure 9: 32.4 ms at r=1 vs 44.3 ms at r=2).
            *outstanding = 1;
            self.rpc(ctx, owner, Pending::Delete, |req| Msg::DeleteSeg { req, seg });
            return;
        }
        if *outstanding == 0 {
            self.complete_op(ctx, None, 0, None);
        }
    }

    /// Unlink: index segment read resolved.
    fn on_unlink_index(&mut self, ctx: &mut impl Transport, reply: ReadReply) {
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
                if let Some((_, _, Phase::Unlinking { to_locate, .. }, _)) = &mut self.op {
                    to_locate.extend(segs);
                }
                self.continue_unlink(ctx);
            }
            ReadReply::Redirect(owners) => {
                let Some(&Phase::Unlinking { index, .. }) = self.phase() else {
                    return;
                };
                self.read_index_from(ctx, index, &owners, None);
            }
            ReadReply::Err(_) => {
                // Cannot read the index: delete what we can (the index
                // segment's own owners will age out of location tables).
                self.continue_unlink(ctx);
            }
        }
    }

    /// A delete was answered, or timed out: on to the next.
    pub(super) fn on_deleted(&mut self, ctx: &mut impl Transport) {
        if let Some((_, _, Phase::Unlinking { outstanding, .. }, _)) = &mut self.op {
            *outstanding = 0;
        }
        self.continue_unlink(ctx);
    }
}
