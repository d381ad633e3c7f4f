//! The write flow: plan the write against the file's layout, find the
//! owners of the segments it touches, and write each extent into a
//! shadow copy on its owner (§3.5), which the commit flow later turns
//! into a version; a file with versioning off is written in place.
//! Payloads larger than the bulk chunk are pipelined to their shadow.

use std::collections::HashMap;

use rand::Rng;
use sorrento_sim::NodeId;

use super::{ClientOp, CommitStage, Pending, Phase, ShadowRef, SorrentoClient};
use crate::layout::{Extent, WritePlan};
use crate::proto::Msg;
use crate::store::{SegMeta, WritePayload};
use crate::transport::Transport;
use crate::types::{Error, SegId, Version};

/// Where a `WriteShadow` of the current op lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(super) enum ShadowTarget {
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
pub(super) struct ChunkWrite {
    seg: SegId,
    at: u64,
    data: bytes::Bytes,
    next: u64,
}

impl SorrentoClient {
    /// Providers already holding (or assigned, or being asked for) any
    /// *other* shard of the open erasure-coded file. Placement excludes
    /// them so the k+m shards land on distinct providers — a single
    /// crash must cost at most one shard of each code group. Empty for
    /// non-EC files: their placement is unconstrained.
    pub(super) fn ec_sibling_providers(&self, seg: SegId) -> Vec<NodeId> {
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

    pub(super) fn start_write(
        &mut self,
        ctx: &mut impl Transport,
        offset: u64,
        payload: WritePayload,
    ) {
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
                if matches!(self.op(), Some(ClientOp::AtomicAppend { .. })) {
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
                self.set_phase(Phase::Writing {
                    todo: (0..extents.len()).collect(),
                    extents,
                    outstanding: 0,
                    detach_bytes,
                    write_offset: offset,
                    write_len: len,
                    chunked: HashMap::new(),
                });
                self.continue_write(ctx);
            }
        }
    }

    /// Drive the write: for each extent ensure we have a shadow on some
    /// owner, then issue the shadow writes in parallel. With versioning
    /// off (§3.5) there are no shadows and no 2PC: an extent is written
    /// in place as soon as its owner is known, and a new segment is
    /// placed like any other, its index entry at version 1 at once.
    pub(super) fn continue_write(&mut self, ctx: &mut impl Transport) {
        let Some((_, _, Phase::Writing { extents, todo, .. }, _)) = &self.op else {
            return;
        };
        let extents = extents.clone();
        let todo = todo.clone();
        // Requests already in flight must not be re-issued: a duplicate
        // CreateShadow would replace a shadow that has already absorbed
        // writes with a fresh empty one.
        let mut inflight_shadow: Vec<SegId> = Vec::new();
        for (_, p) in self.pending.values() {
            if let Pending::ShadowCreate { seg, .. } = p {
                inflight_shadow.push(*seg);
            }
        }
        let mut ready: Vec<usize> = Vec::new();
        let mut need_shadow: Vec<usize> = Vec::new();
        let mut need_owner: Vec<SegId> = Vec::new();
        let f = self.file.as_ref().expect("write has open file");
        let direct = f.entry.options.versioning_off;
        for &i in &todo {
            let e = &extents[i];
            if f.shadows.contains_key(&e.seg) {
                ready.push(i);
            } else if inflight_shadow.contains(&e.seg) {
                // wait for the in-flight CreateShadow
            } else if e.new_segment || f.owners.contains_key(&e.seg) {
                if direct {
                    ready.push(i);
                } else {
                    need_shadow.push(i);
                }
            } else {
                need_owner.push(e.seg);
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
        self.locate(ctx, need_owner);
        // Extents whose shadows exist, or that need none: write now.
        for i in ready {
            if direct {
                self.issue_direct_write(ctx, i);
            } else {
                self.issue_shadow_write(ctx, i);
            }
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
        self.rpc(ctx, provider, Pending::DirectWrite, |req| Msg::DirectWrite {
            req,
            seg: e.seg,
            offset: e.seg_offset,
            payload,
            meta,
        });
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
        let data = match self.op() {
            Some(
                ClientOp::Write { payload: WritePayload::Real(data), .. }
                | ClientOp::Append { payload: WritePayload::Real(data) }
                | ClientOp::AtomicAppend { payload: WritePayload::Real(data) },
            ) => Some(data),
            _ => None,
        };
        // Zero-copy fast path: the extent lies entirely inside the op's
        // payload, so a sub-view of the caller's buffer is the payload —
        // no per-extent allocation, no copy.
        if let Some(data) = data {
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
        if let Some(data) = data {
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
        self.create_shadow(ctx, provider, e.seg, base, meta, target);
    }

    /// Open a shadow of `seg` on `provider`, a copy of version `base` or
    /// an empty fresh segment, to be committed as version `target`.
    pub(super) fn create_shadow(
        &mut self,
        ctx: &mut impl Transport,
        provider: NodeId,
        seg: SegId,
        base: Option<Version>,
        meta: SegMeta,
        target: Version,
    ) {
        let span = self.cur_span;
        self.rpc(
            ctx,
            provider,
            Pending::ShadowCreate {
                seg,
                provider,
                target,
            },
            |req| Msg::CreateShadow {
                req,
                span,
                seg,
                base,
                meta,
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
    pub(super) fn shipping(
        &mut self,
    ) -> Option<(&mut HashMap<ShadowTarget, ChunkWrite>, &mut usize)> {
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
    pub(super) fn ship(
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
        self.rpc(ctx, sref.provider, Pending::ShadowWrite { to }, |req| Msg::WriteShadow {
            req,
            shadow: sref.shadow,
            offset,
            payload,
            truncate: false,
        });
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
        if matches!(self.op(), Some(ClientOp::AtomicAppend { .. })) {
            self.start_commit(ctx);
        } else {
            self.complete_op(ctx, None, len, None);
        }
    }

    /// A reply to one of the write flow's requests: a shadow created or
    /// written (for a write, or for a commit's parity and index), or a
    /// direct write done.
    pub(super) fn on_write_reply(&mut self, ctx: &mut impl Transport, pending: Pending, msg: Msg) {
        match (pending, msg) {
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
                    match self.phase() {
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
                    self.shadow_failed(ctx, e);
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
                (Err(e), _) => self.shadow_failed(ctx, e),
            },
            (Pending::DirectWrite, Msg::DirectWriteR { result, .. }) => match result {
                Ok(()) => {
                    if let Some((_, _, Phase::Writing { outstanding, .. }, _)) = &mut self.op {
                        *outstanding -= 1;
                    }
                    self.maybe_finish_write(ctx);
                }
                Err(e) => self.retry_or_fail(ctx, e),
            },
            _ => {}
        }
    }

    /// A shadow could not be created or written: a commit aborts, a
    /// write retries.
    fn shadow_failed(&mut self, ctx: &mut impl Transport, e: Error) {
        if matches!(self.phase(), Some(Phase::Committing(_))) {
            self.abort_commit(ctx, e);
        } else {
            self.retry_or_fail(ctx, e);
        }
    }
}
