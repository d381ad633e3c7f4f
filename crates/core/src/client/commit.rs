//! The commit flow (Figure 6 steps 6–12): an erasure-coded file's
//! parity shards first, then the index shadow, namespace approval, the
//! two-phase commit over every shadow's owner, namespace completion and,
//! with eager commitment, the replica syncs (§3.6). An atomic append
//! that loses a version race refreshes the file and runs again.

use std::collections::HashMap;

use rand::Rng;
use sorrento_sim::{Dur, NodeId, TelemetryEvent};

use super::{ClientOp, Pending, Phase, SorrentoClient};
use super::write::{ChunkWrite, ShadowTarget};
use crate::placement::{candidates_from_view, select_provider};
use crate::proto::{encode_index, FileEntry, Msg, Tick};
use crate::store::{SegMeta, ShadowId, WritePayload};
use crate::transport::Transport;
use crate::types::{Error, PlacementPolicy, SegId, Version};

/// Sub-stages of the commit flow (Figure 6 steps 6–12).
#[derive(Debug)]
pub(super) enum CommitStage {
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

impl SorrentoClient {
    pub(super) fn start_commit(&mut self, ctx: &mut impl Transport) {
        let Some(f) = &self.file else {
            self.complete_op(ctx, Some(Error::NotFound), 0, None);
            return;
        };
        if !f.dirty || !f.writable {
            // Close without changes: purely local.
            if matches!(self.op(), Some(ClientOp::Close)) {
                self.file = None;
            }
            self.complete_op(ctx, None, 0, None);
            return;
        }
        self.set_phase(Phase::Committing(CommitStage::IndexShadow));
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
        self.set_stage(CommitStage::Parity { outstanding: m, parity, chunked: HashMap::new() });
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
            self.create_shadow(ctx, provider, entry.seg, None, meta, target);
        }
    }

    /// A parity shadow exists: ship the shard's full contents into it
    /// from offset 0 like any data extent, tagged with its parity index
    /// so completion is routed back into the Parity stage. The shadow is
    /// fresh, so nothing past the shard needs truncating.
    pub(super) fn issue_parity_write(&mut self, ctx: &mut impl Transport, seg: SegId) {
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

    pub(super) fn issue_index_shadow(&mut self, ctx: &mut impl Transport) {
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
            // The provider the index was read from, or else its home host.
            let owner = f.index_owner.filter(|&p| self.members.view().is_live(p));
            let Some(p) = owner.or_else(|| self.members.home(seg)) else {
                // Every provider has left the view.
                self.retry_or_fail(ctx, Error::Timeout);
                return;
            };
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
        self.create_shadow(ctx, provider, seg, base, meta, target);
    }

    pub(super) fn issue_index_write(&mut self, ctx: &mut impl Transport) {
        // Advance data-segment versions in the index, then ship it.
        let (bytes, sref) = {
            let f = self.file.as_mut().expect("commit has open file");
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
            (encode_index(&f.index), f.shadows[&f.entry.file.index_segment()])
        };
        self.set_stage(CommitStage::IndexWrite);
        self.rpc(ctx, sref.provider, Pending::ShadowWrite { to: ShadowTarget::Index }, |req| {
            Msg::WriteShadow {
                req,
                shadow: sref.shadow,
                offset: 0,
                payload: WritePayload::Real(bytes.into()),
                truncate: true,
            }
        });
    }

    pub(super) fn issue_commit_begin(&mut self, ctx: &mut impl Transport) {
        let f = self.file.as_ref().expect("commit has open file");
        let (path, base, span) = (f.path.clone(), f.entry.version, self.cur_span);
        self.set_stage(CommitStage::Begin);
        let to = self.ns_for(&path);
        self.rpc(ctx, to, Pending::CommitBegin, |req| Msg::NsCommitBegin { req, span, path, base });
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
        self.set_stage(CommitStage::Prepare {
            outstanding: parts.len(),
            failed: false,
        });
        let span = self.cur_span;
        for (provider, items) in parts {
            self.rpc(ctx, provider, Pending::Prepare, |req| Msg::Prepare { req, span, items });
        }
    }

    fn issue_commit_phase(&mut self, ctx: &mut impl Transport) {
        let parts = self.participants();
        self.set_stage(CommitStage::Commit {
            outstanding: parts.len(),
        });
        let span = self.cur_span;
        for (provider, items) in parts {
            self.rpc(ctx, provider, Pending::Commit2, |req| Msg::Commit { req, span, items });
        }
    }

    pub(super) fn abort_commit(&mut self, ctx: &mut impl Transport, error: Error) {
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
        let is_append = matches!(self.op(), Some(ClientOp::AtomicAppend { .. }));
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
    pub(super) fn refresh_for_append(&mut self, ctx: &mut impl Transport) {
        let Some(f) = &self.file else {
            self.complete_op(ctx, Some(Error::NotFound), 0, None);
            return;
        };
        let path = f.path.clone();
        self.set_phase(Phase::NsSimple);
        let to = self.ns_for(&path);
        self.rpc(ctx, to, Pending::Ns, |req| Msg::NsLookup { req, path });
    }

    /// The atomic append's entry, looked up again: refresh it, re-read
    /// the index unless nothing is committed, then redo the write.
    pub(super) fn on_append_entry(&mut self, ctx: &mut impl Transport, entry: FileEntry) {
        let (seg, version) = (entry.file.index_segment(), entry.version);
        if let Some(f) = &mut self.file {
            f.entry = entry;
            f.owners.clear();
            f.shadows.clear();
        }
        if version == Version::INITIAL {
            self.dispatch_stage(ctx);
        } else {
            self.set_phase(Phase::OpenIndex);
            self.read_index_segment(ctx, seg, version);
        }
    }

    fn issue_commit_end(&mut self, ctx: &mut impl Transport) {
        let f = self.file.as_ref().expect("commit has open file");
        let path = f.path.clone();
        let new_version = f.commit_target.expect("commit target chosen");
        let new_size = f.index.size;
        self.set_stage(CommitStage::End);
        let span = self.cur_span;
        let to = self.ns_for(&path);
        self.rpc(ctx, to, Pending::CommitEnd, |req| Msg::NsCommitEnd {
            req,
            span,
            path,
            commit: true,
            new_version,
            new_size,
        });
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
                    self.rpc(ctx, site, Pending::EagerSync, |req| Msg::SyncRequest {
                        req,
                        seg,
                        source,
                        bytes_hint,
                    });
                    outstanding += 1;
                }
            }
            if outstanding > 0 {
                self.set_stage(CommitStage::Eager { outstanding });
                return;
            }
        }
        self.conclude_commit(ctx);
    }

    fn conclude_commit(&mut self, ctx: &mut impl Transport) {
        let is_close = matches!(self.op(), Some(ClientOp::Close));
        let bytes = match self.op() {
            Some(ClientOp::AtomicAppend { payload }) => payload.len(),
            _ => 0,
        };
        if let Some(f) = &mut self.file {
            f.entry.version = f.commit_target.take().expect("commit target chosen");
            f.entry.size = f.index.size;
            // Keep the committed index's segment versions as the new base.
            f.shadows.clear();
            f.dirty = false;
        }
        if is_close {
            self.file = None;
        }
        self.complete_op(ctx, None, bytes, None);
    }

    /// Move the commit in progress to `to`.
    fn set_stage(&mut self, to: CommitStage) {
        if let Some((_, _, Phase::Committing(stage), _)) = &mut self.op {
            *stage = to;
        }
    }

    /// A reply to one of the commit flow's requests.
    pub(super) fn on_commit_reply(&mut self, ctx: &mut impl Transport, pending: Pending, msg: Msg) {
        match (pending, msg) {
            (Pending::CommitBegin, Msg::NsCommitBeginR { result, .. }) => match result {
                Ok(()) => self.issue_prepare(ctx),
                Err(Error::LeaseHeld) => {
                    // Another client is mid-commit: our shadows are still
                    // valid, so just retry approval after a backoff.
                    let budget = if let Some((_, _, _, attempts)) = &mut self.op {
                        *attempts += 1;
                        *attempts < 3 * super::MAX_ATTEMPTS
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
            (Pending::EagerSync, Msg::SyncDone { .. }) => self.on_synced(ctx),
            _ => {}
        }
    }

    /// A replica sync of an eager commit was answered, or timed out.
    pub(super) fn on_synced(&mut self, ctx: &mut impl Transport) {
        let Some((_, _, Phase::Committing(CommitStage::Eager { outstanding }), _)) = &mut self.op
        else {
            return;
        };
        *outstanding -= 1;
        if *outstanding == 0 {
            self.conclude_commit(ctx);
        }
    }
}
