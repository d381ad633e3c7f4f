//! The read flow: map the request onto the file's extents, find each
//! segment's owners, and fetch the extents in parallel (pipelined in
//! chunks for bulk reads). An erasure-coded file whose data shard has
//! no live owner is read degraded: any k shards are fetched whole and
//! the lost ones reconstructed.

use std::collections::{HashMap, VecDeque};

use sorrento_sim::{NodeId, TelemetryEvent};

use super::{OpenFile, Pending, Phase, SorrentoClient};
use crate::proto::{Msg, ReadReply, ReqId};
use crate::transport::Transport;
use crate::types::{Error, SegId};

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
pub(super) struct EcRead {
    /// Per-shard progress, `k` data shards then `m` parity shards.
    states: Vec<ShardState>,
    /// Fetched shard bytes (pre-padding), same order as `states`.
    bufs: Vec<Option<Vec<u8>>>,
    /// Shards fetched so far; `k` of them complete the reconstruction.
    fetched: usize,
}

/// Progress of one extent of a read. Without bulk pipelining an extent
/// is a single `ReadSeg`. With it ([`SorrentoClient::write_chunk`]) an
/// extent longer than the chunk is requested chunk by chunk, at most
/// [`SorrentoClient::write_window`] requests in flight — the mirror of
/// `ChunkWrite` — so each reply is a small frame that is copied into
/// the result and dropped at once, and neither side ever buffers a
/// whole segment.
#[derive(Debug, Clone, Default)]
pub(super) struct ExtentRead {
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
pub(super) const READ_PIECES_MAX: usize = 64;

impl SorrentoClient {
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

    pub(super) fn start_read(&mut self, ctx: &mut impl Transport, offset: u64, len: u64) {
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
        self.set_phase(Phase::Reading {
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
        });
        self.continue_read(ctx);
    }

    /// Drive the read: resolve owners for unresolved extents, issue data
    /// fetches for resolved ones.
    pub(super) fn continue_read(&mut self, ctx: &mut impl Transport) {
        let (extents, unresolved_now) = match &mut self.op {
            Some((_, _, Phase::Reading { extents, unresolved, .. }, _)) => {
                (extents.clone(), std::mem::take(unresolved))
            }
            _ => return,
        };
        let f = self.file.as_ref().expect("read has open file");
        let (to_fetch, still_unresolved): (Vec<usize>, Vec<usize>) =
            unresolved_now.into_iter().partition(|&i| f.owners.contains_key(&extents[i].seg));
        let to_query = still_unresolved.iter().map(|&i| extents[i].seg).collect();
        if let Some((_, _, Phase::Reading { unresolved, .. }, _)) = &mut self.op {
            *unresolved = still_unresolved;
        }
        // Owner-known extents: fetch in parallel.
        for i in to_fetch {
            self.issue_extent_read(ctx, i);
        }
        // Unknown segments: ask their home hosts.
        self.locate(ctx, to_query);
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
            self.rpc(ctx, owner, Pending::DataRead { extent: i, offset, len }, |req| Msg::ReadSeg {
                req,
                seg,
                offset: seg_offset + offset,
                len,
                min_version: Some(version),
                allow_redirect: false,
            });
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
    pub(super) fn try_ec_degraded(&mut self, ctx: &mut impl Transport, seg: SegId) -> bool {
        if !matches!(self.phase(), Some(Phase::Reading { .. })) {
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
                self.fetch_segment(ctx, owner, seg, Some(version), Pending::EcShard { shard });
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
        self.rpc(ctx, home, Pending::EcLoc { shard }, |req| Msg::LocQuery { req, seg });
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
    pub(super) fn ec_shard_failed(&mut self, ctx: &mut impl Transport, shard: usize) {
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

    /// A reply to one of the read flow's requests.
    pub(super) fn on_read_reply(
        &mut self,
        ctx: &mut impl Transport,
        from: NodeId,
        pending: Pending,
        msg: Msg,
    ) {
        match (pending, msg) {
            (Pending::DataRead { extent, offset, len }, Msg::ReadSegR { reply, .. }) => {
                self.on_data_read(ctx, extent, offset, len, from, reply);
            }
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
            _ => {}
        }
    }
}
