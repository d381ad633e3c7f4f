//! The local segment store run by every storage provider (§3.2, §3.5).
//!
//! Segments live "in their entirety on native file systems"; here the
//! native file system is modeled and the store keeps, per segment, a
//! chain of committed versions plus any open shadow copies:
//!
//! * **Committed versions** are immutable. Each holds the bytes written
//!   *at* that version (its delta) plus a [`RegionIndex`] telling which
//!   version physically holds every byte — the standard copy-on-write
//!   technique of §3.5. Commit *freezes* the delta ([`FrozenBuffer`]):
//!   a read of bytes that one stored extent holds is a view of that
//!   extent, not a copy, and stays valid whatever the store does next.
//! * **Shadow copies** are created blank and "truncated to the same size
//!   as the base segment"; unmodified regions resolve into the base
//!   chain, modified regions into the shadow's own delta. Shadows carry
//!   an expiration time so crashed clients cannot leak them.
//! * **Version consolidation** keeps only the most recent
//!   [`LocalStore::keep_versions`] versions, materializing the oldest
//!   survivor so dropped ancestors are safe to free.
//!
//! Segment payloads are either real bytes (integration tests verify exact
//! round-trips) or synthetic lengths (multi-GB experiments without the
//! RAM); the choice is per segment via [`SegMeta::synthetic`].
//!
//! At rest, a provider keeps each segment's latest version as one
//! [`Transfer`] behind a [`SegmentDisk`]. The store knows no disk: once
//! [`LocalStore::track_changes`] is on, it names the segments whose
//! committed state changed, and the provider writes those.

mod region;
mod sparse;

pub use region::RegionIndex;
pub use sparse::{FrozenBuffer, SparseBuffer};

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io;
use std::ops::Range;

use bytes::Bytes;
use sorrento_kvdb::crc32_combine;
use sorrento_sim::SimTime;

use crate::types::{Error, FileOptions, PlacementPolicy, Result, SegId, Version};

/// Identifier of an open shadow copy on one provider.
pub type ShadowId = u64;

/// Bytes handed to a write: real data or a modeled length.
#[derive(Debug, Clone)]
pub enum WritePayload {
    /// Actual bytes (stored and readable back), no CRC computed yet. A
    /// [`Bytes`] view, so forwarding a payload between layers never
    /// copies it.
    Real(Bytes),
    /// Actual bytes with the CRC-32 their writer computed, verified on
    /// arrival: what the wire decoder makes of a real payload. The store
    /// keeps the CRC with the piece, so a read of exactly that piece is
    /// served with it instead of a fresh pass over the bytes.
    Checked {
        /// The bytes.
        data: Bytes,
        /// CRC-32 of `data`.
        crc: u32,
    },
    /// Modeled bytes (only the length is tracked).
    Synthetic {
        /// Modeled write length.
        len: u64,
    },
}

impl WritePayload {
    /// Length of the write in bytes.
    pub fn len(&self) -> u64 {
        match self {
            WritePayload::Real(d) | WritePayload::Checked { data: d, .. } => d.len() as u64,
            WritePayload::Synthetic { len } => *len,
        }
    }

    /// Whether the write carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Per-segment management metadata, set at creation from [`FileOptions`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegMeta {
    /// Desired replication degree.
    pub replication: u32,
    /// Placement favoritism α.
    pub alpha: f64,
    /// Placement policy governing this segment.
    pub policy: PlacementPolicy,
    /// Whether payloads are synthetic (lengths only).
    pub synthetic: bool,
    /// Set **only on the index segment** of an erasure-coded file:
    /// `(k, m)` of the file's Reed-Solomon code. Providers holding such
    /// a segment drive EC shard repair from it (the index lists every
    /// shard); data/parity shards themselves carry `None` so repair
    /// scans don't false-positive on them.
    pub ec: Option<(u8, u8)>,
}

impl SegMeta {
    /// Derive segment metadata from the owning file's options. The EC
    /// marker is *not* copied here — only index segments carry it, and
    /// the commit path sets it explicitly.
    pub fn from_options(opts: &FileOptions, synthetic: bool) -> SegMeta {
        SegMeta {
            replication: opts.replication,
            alpha: opts.alpha,
            policy: opts.placement,
            synthetic,
            ec: None,
        }
    }
}

impl Default for SegMeta {
    fn default() -> Self {
        SegMeta {
            replication: 1,
            alpha: 0.5,
            policy: PlacementPolicy::LoadAware,
            synthetic: false,
            ec: None,
        }
    }
}

/// Physical storage of one version's delta.
#[derive(Debug, Clone)]
enum Delta {
    /// Mutable extents: an open shadow, or a version that
    /// [`LocalStore::direct_write`] changes in place.
    Open(SparseBuffer),
    /// What `commit_shadow` and `install_replica` leave behind: extents
    /// that can no longer change and are therefore served as views.
    Frozen(FrozenBuffer),
    Synthetic { stored: u64 },
}

impl Delta {
    fn new(synthetic: bool) -> Delta {
        if synthetic {
            Delta::Synthetic { stored: 0 }
        } else {
            Delta::Open(SparseBuffer::new())
        }
    }

    fn stored_bytes(&self) -> u64 {
        match self {
            Delta::Open(b) => b.stored_bytes(),
            Delta::Frozen(b) => b.stored_bytes(),
            Delta::Synthetic { stored } => *stored,
        }
    }

    /// The delta as a committed version keeps it: extents moved, not
    /// copied, into their immutable form.
    fn freeze(self) -> Delta {
        match self {
            Delta::Open(b) => Delta::Frozen(b.freeze()),
            other => other,
        }
    }

    /// Apply a write of `payload` at `offset`. `already` tells a
    /// synthetic delta how many of those bytes it accounts for already.
    fn write(&mut self, offset: u64, payload: WritePayload, already: impl FnOnce() -> u64) {
        if let Delta::Frozen(frozen) = self {
            // Copy-on-write: views already handed to readers keep the
            // frozen bytes, this version continues on a copy.
            *self = Delta::Open(frozen.thaw());
        }
        match self {
            Delta::Open(buf) => match payload {
                WritePayload::Real(data) | WritePayload::Checked { data, .. } => {
                    buf.write(offset, &data)
                }
                // Tests may mix: fill with zeros of the modeled length.
                WritePayload::Synthetic { len } => buf.write(offset, &vec![0u8; len as usize]),
            },
            // Account newly covered bytes only.
            Delta::Synthetic { stored } => *stored += payload.len() - already(),
            Delta::Frozen(_) => unreachable!("thawed above"),
        }
    }

    /// Append `[offset, offset+len)` of this delta to `out` (zeros where
    /// it holds nothing, and for synthetic deltas).
    fn append_to(&self, offset: u64, len: u64, out: &mut Vec<u8>) {
        match self {
            Delta::Open(b) => b.append_to(offset, len, out),
            Delta::Frozen(b) => b.append_to(offset, len, out),
            Delta::Synthetic { .. } => out.resize(out.len() + len as usize, 0),
        }
    }
}

/// The whole pieces written into a shadow or version with a known CRC,
/// `start → (len, crc)`. Pieces never overlap, and one lives only as long
/// as every byte of it is still the piece's: a write over any of them, or
/// a cut into it, drops it.
#[derive(Debug, Clone, Default)]
struct Pieces(BTreeMap<u64, (u64, u32)>);

impl Pieces {
    /// Record a write at `offset`: the pieces it overlaps are gone, and a
    /// checked payload becomes a piece.
    fn write(&mut self, offset: u64, payload: &WritePayload) {
        self.drop_overlapping(offset, offset + payload.len());
        if let WritePayload::Checked { data, crc } = payload {
            self.0.insert(offset, (data.len() as u64, *crc));
        }
    }

    /// Drop every piece past a cut at `len`.
    fn truncate(&mut self, len: u64) {
        self.drop_overlapping(len, u64::MAX);
    }

    /// Drop every piece with a byte in `[start, end)`.
    fn drop_overlapping(&mut self, start: u64, end: u64) {
        if let Some((&s, &(len, _))) = self.0.range(..start).next_back() {
            if s + len > start {
                self.0.remove(&s);
            }
        }
        while let Some((&s, _)) = self.0.range(start..end).next() {
            self.0.remove(&s);
        }
    }

    /// The CRC of `[offset, offset + len)` when that range is a run of
    /// whole pieces, back to back: their stored CRCs combined, no byte read.
    fn crc(&self, offset: u64, len: u64) -> Option<u32> {
        let (mut pos, mut crc) = (offset, 0);
        for (&start, &(l, c)) in self.0.range(offset..offset + len) {
            if start != pos {
                return None;
            }
            crc = crc32_combine(crc, c, l);
            pos = start + l;
        }
        (pos == offset + len).then_some(crc)
    }
}

/// Source marker inside a shadow's region index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShadowSrc {
    /// Bytes live in the committed chain at this version.
    Committed(Version),
    /// Bytes written into this shadow.
    Fresh,
}

/// One committed, immutable version of a segment.
#[derive(Debug, Clone)]
struct VersionData {
    len: u64,
    index: RegionIndex<Version>,
    delta: Delta,
    pieces: Pieces,
}

/// Everything the provider stores for one segment.
#[derive(Debug)]
struct SegmentState {
    versions: BTreeMap<Version, VersionData>,
    meta: SegMeta,
    last_access: SimTime,
}

impl SegmentState {
    fn new(meta: SegMeta, now: SimTime) -> SegmentState {
        SegmentState { versions: BTreeMap::new(), meta, last_access: now }
    }

    /// Bytes its kept versions' deltas hold.
    fn stored_bytes(&self) -> u64 {
        self.versions.values().map(|v| v.delta.stored_bytes()).sum()
    }
}

/// An open shadow copy (pre-commit mutable view of a segment).
#[derive(Debug)]
struct Shadow {
    seg: SegId,
    base: Option<Version>,
    len: u64,
    index: RegionIndex<ShadowSrc>,
    delta: Delta,
    pieces: Pieces,
    expires_at: SimTime,
    meta: SegMeta,
    /// Set by 2PC prepare: shadow may no longer expire and is pinned to
    /// this target version until commit or abort.
    prepared_as: Option<Version>,
}

/// Outcome of a read.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadOut {
    /// Bytes actually covered (clamped at segment length).
    pub len: u64,
    /// The bytes, when the segment stores real data.
    pub data: Option<Bytes>,
    /// Version served.
    pub version: Version,
    /// CRC-32 of `data` as its writers computed it, when the range served
    /// is a run of whole pieces written with a known CRC.
    pub crc: Option<u32>,
}

/// A materialized replica image for transfer between providers.
#[derive(Debug, Clone)]
pub struct ReplicaImage {
    /// Segment identity.
    pub seg: SegId,
    /// Version captured.
    pub version: Version,
    /// Logical segment length.
    pub len: u64,
    /// Full contents when real; `None` when synthetic.
    pub data: Option<Bytes>,
    /// Management metadata.
    pub meta: SegMeta,
}

/// A replica image with its version's piece table: what `FetchSegR` and
/// `EcInstall` carry and what a provider keeps under `seg/` at rest, so
/// the target, and the provider after a reboot, keep the writers' CRCs.
#[derive(Debug, Clone)]
pub struct Transfer {
    /// The image.
    pub image: ReplicaImage,
    /// `(start, len, crc)` of each piece with its writer's CRC, ascending.
    pub pieces: Vec<(u64, u64, u32)>,
}

impl From<ReplicaImage> for Transfer {
    /// An image that knows no pieces (a rebuilt shard).
    fn from(image: ReplicaImage) -> Transfer {
        Transfer { image, pieces: Vec::new() }
    }
}

/// A provider's segments at rest (§3.2: each segment "in its entirety on
/// native file systems"): the latest version of each, as a [`Transfer`].
/// A provider with one attached reloads from it at every start.
pub trait SegmentDisk {
    /// Every image kept; in place of one that does not load (torn,
    /// foreign, unreadable), what it was kept under and why.
    fn load(&self) -> Vec<std::result::Result<Transfer, String>>;
    /// Keep `images`, each replacing what its segment had, and drop what
    /// the segments in `gone` had.
    fn write(&mut self, images: &[Transfer], gone: &[SegId]) -> io::Result<()>;
    /// Compact what was written so far (a clean stop's last step).
    fn checkpoint(&mut self) -> io::Result<()>;
}

/// The per-provider segment store.
#[derive(Debug)]
pub struct LocalStore {
    segments: HashMap<SegId, SegmentState>,
    shadows: HashMap<ShadowId, Shadow>,
    next_shadow: ShadowId,
    /// Segments whose committed state changed since the last
    /// [`LocalStore::take_changed`]; `None` while nothing asks.
    changed: Option<BTreeSet<SegId>>,
    /// Committed versions retained per segment ("one or a few latest
    /// stable versions", §3.5 — older ones double as backups).
    pub keep_versions: usize,
}

impl Default for LocalStore {
    fn default() -> Self {
        LocalStore::new(1)
    }
}

impl LocalStore {
    /// Create a store keeping `keep_versions` committed versions per
    /// segment (≥ 1).
    pub fn new(keep_versions: usize) -> LocalStore {
        LocalStore {
            segments: HashMap::new(),
            shadows: HashMap::new(),
            next_shadow: 1,
            changed: None,
            keep_versions: keep_versions.max(1),
        }
    }

    /// Start naming the segments whose committed state changes (a
    /// commit, an install, a direct write, a delete).
    pub fn track_changes(&mut self) {
        self.changed.get_or_insert_with(BTreeSet::new);
    }

    /// The segments changed since the last call, ascending; none unless
    /// [`LocalStore::track_changes`] is on.
    pub fn take_changed(&mut self) -> Vec<SegId> {
        self.changed.as_mut().map(|c| std::mem::take(c).into_iter().collect()).unwrap_or_default()
    }

    fn mark_changed(&mut self, seg: SegId) {
        if let Some(changed) = &mut self.changed {
            changed.insert(seg);
        }
    }

    // ------------------------------------------------------------------
    // Shadows
    // ------------------------------------------------------------------

    /// Open a shadow over `base` of an existing segment. Fails if the
    /// base version is not locally stored.
    pub fn open_shadow(
        &mut self,
        seg: SegId,
        base: Version,
        now: SimTime,
        ttl: sorrento_sim::Dur,
    ) -> Result<ShadowId> {
        let (state, _, vd) = self.version(seg, Some(base))?;
        let (len, meta) = (vd.len, state.meta);
        Ok(self.alloc_shadow(seg, Some((base, len)), meta, now + ttl))
    }

    /// Open a shadow for a brand-new segment (no committed base yet).
    pub fn open_fresh_shadow(
        &mut self,
        seg: SegId,
        meta: SegMeta,
        now: SimTime,
        ttl: sorrento_sim::Dur,
    ) -> ShadowId {
        self.alloc_shadow(seg, None, meta, now + ttl)
    }

    /// Open a shadow over `base`, a version and its length, if any.
    fn alloc_shadow(
        &mut self,
        seg: SegId,
        base: Option<(Version, u64)>,
        meta: SegMeta,
        expires_at: SimTime,
    ) -> ShadowId {
        // "create a blank segment and truncate it to the same size as the
        // base segment": every byte initially resolves into the base.
        let len = base.map_or(0, |(_, len)| len);
        let index = RegionIndex::full(len, base.map(|(v, _)| ShadowSrc::Committed(v)));
        let shadow = Shadow {
            seg,
            base: base.map(|(v, _)| v),
            len,
            index,
            delta: Delta::new(meta.synthetic),
            pieces: Pieces::default(),
            expires_at,
            meta,
            prepared_as: None,
        };
        let id = self.next_shadow;
        self.next_shadow += 1;
        self.shadows.insert(id, shadow);
        id
    }

    /// Write into a shadow. Extends the shadow length on append.
    pub fn write_shadow(&mut self, id: ShadowId, offset: u64, payload: WritePayload) -> Result<()> {
        let sh = self.shadows.get_mut(&id).ok_or(Error::ShadowExpired)?;
        let len = payload.len();
        if len == 0 {
            return Ok(());
        }
        let end = offset + len;
        sh.pieces.write(offset, &payload);
        let index = &sh.index;
        sh.delta.write(offset, payload, || {
            covered_bytes(index, offset, end, |s| s == Some(ShadowSrc::Fresh))
        });
        sh.index.overlay(offset, end, Some(ShadowSrc::Fresh));
        sh.len = sh.len.max(end);
        Ok(())
    }

    /// Truncate a shadow to `len`.
    pub fn truncate_shadow(&mut self, id: ShadowId, len: u64) -> Result<()> {
        let sh = self.shadows.get_mut(&id).ok_or(Error::ShadowExpired)?;
        sh.index.set_len(len);
        if let Delta::Open(buf) = &mut sh.delta {
            buf.truncate(len);
        }
        sh.pieces.truncate(len);
        sh.len = len;
        Ok(())
    }

    /// Read through a shadow (read-your-writes before commit).
    pub fn read_shadow(&self, id: ShadowId, offset: u64, len: u64) -> Result<ReadOut> {
        let sh = self.shadows.get(&id).ok_or(Error::ShadowExpired)?;
        let version = sh.base.unwrap_or(Version::INITIAL);
        let end = (offset + len).min(sh.len);
        let covered = end.saturating_sub(offset);
        if sh.meta.synthetic {
            return Ok(ReadOut { len: covered, data: None, version, crc: None });
        }
        let mut out = Vec::with_capacity(covered as usize);
        for (range, src) in sh.index.resolve(offset, end) {
            let n = range.end - range.start;
            match src {
                Some(ShadowSrc::Fresh) => sh.delta.append_to(range.start, n, &mut out),
                Some(ShadowSrc::Committed(v)) => {
                    let state = self.segments.get(&sh.seg).ok_or(Error::NoSuchSegment)?;
                    let vd = state.versions.get(&v).ok_or(Error::NoSuchSegment)?;
                    gather(state, &vd.index.resolve(range.start, range.end), &mut out)?;
                }
                None => out.resize(out.len() + n as usize, 0), // hole: zeros
            }
        }
        Ok(ReadOut { len: covered, data: Some(out.into()), version, crc: None })
    }

    /// Renew a shadow's expiration (the client "must either commit a
    /// shadow segment before its expiration, or reset the expiration
    /// timer", §3.5).
    pub fn renew_shadow(&mut self, id: ShadowId, now: SimTime, ttl: sorrento_sim::Dur) -> Result<()> {
        let sh = self.shadows.get_mut(&id).ok_or(Error::ShadowExpired)?;
        sh.expires_at = now + ttl;
        Ok(())
    }

    /// 2PC prepare: pin the shadow to a target version; it can no longer
    /// expire. Fails if the target does not advance the latest committed
    /// version.
    pub fn prepare_shadow(&mut self, id: ShadowId, target: Version) -> Result<()> {
        let sh = self.shadows.get_mut(&id).ok_or(Error::ShadowExpired)?;
        let latest = self.segments.get(&sh.seg).and_then(|st| st.versions.keys().next_back());
        // A based shadow must stand on the latest committed version
        // (stale-base lost-update guard). A fresh shadow carries the
        // complete replacement content, so existing history is simply
        // superseded — EC parity rewrites rely on this: parity is
        // re-derived whole on every commit and may land on the provider
        // holding the previous version.
        if latest.is_some_and(|&l| target <= l || sh.base.is_some_and(|b| b != l)) {
            return Err(Error::VersionConflict);
        }
        sh.prepared_as = Some(target);
        Ok(())
    }

    /// 2PC commit (or direct single-segment commit): the shadow becomes
    /// committed version `target`.
    pub fn commit_shadow(&mut self, id: ShadowId, target: Version, now: SimTime) -> Result<()> {
        let sh = self.shadows.remove(&id).ok_or(Error::ShadowExpired)?;
        // Compose the committed index *transitively*: a shadow's
        // unmodified ranges point at its base version, but the base's
        // bytes may physically live in even older deltas — the committed
        // index must name the version whose delta actually holds each
        // byte, or deep version chains would read zeros.
        let index = match sh.base {
            Some(base) => {
                let mut ix = self
                    .segments
                    .get(&sh.seg)
                    .and_then(|st| st.versions.get(&base))
                    .map(|vd| vd.index.clone())
                    .unwrap_or_else(|| RegionIndex::full(0, None));
                ix.set_len(sh.len);
                // A hole stays one: a truncate, then a write past the cut,
                // leaves zeros where the base had bytes.
                for (range, src) in sh.index.resolve(0, sh.len) {
                    if !matches!(src, Some(ShadowSrc::Committed(_))) {
                        ix.overlay(range.start, range.end, src.map(|_| target));
                    }
                }
                ix
            }
            None => sh.index.map_sources(|s| match s {
                ShadowSrc::Fresh => target,
                ShadowSrc::Committed(v) => v,
            }),
        };
        let vd = VersionData {
            len: sh.len,
            index,
            delta: sh.delta.freeze(),
            pieces: sh.pieces,
        };
        let state = self.segments.entry(sh.seg).or_insert_with(|| SegmentState::new(sh.meta, now));
        state.versions.insert(target, vd);
        state.last_access = now;
        let seg = sh.seg;
        self.consolidate(seg);
        self.mark_changed(seg);
        Ok(())
    }

    /// 2PC abort: drop the shadow.
    pub fn abort_shadow(&mut self, id: ShadowId) {
        self.shadows.remove(&id);
    }

    /// Drop expired, unprepared shadows; returns how many were reaped.
    pub fn expire_shadows(&mut self, now: SimTime) -> usize {
        let before = self.shadows.len();
        self.shadows
            .retain(|_, s| s.prepared_as.is_some() || s.expires_at >= now);
        before - self.shadows.len()
    }

    /// Drop every shadow (crash: in-memory shadow state dies with the
    /// daemon; committed segments survive on disk).
    pub fn expire_all_shadows(&mut self) {
        self.shadows.clear();
    }

    /// Which segment a shadow belongs to.
    pub fn shadow_segment(&self, id: ShadowId) -> Option<SegId> {
        self.shadows.get(&id).map(|s| s.seg)
    }

    // ------------------------------------------------------------------
    // Committed reads & direct (versioning-off) writes
    // ------------------------------------------------------------------

    /// Committed `version` (or the latest) of `seg`, with its segment.
    fn version(
        &self,
        seg: SegId,
        version: Option<Version>,
    ) -> Result<(&SegmentState, Version, &VersionData)> {
        let state = self.segments.get(&seg).ok_or(Error::NoSuchSegment)?;
        let (&v, vd) = match version {
            Some(v) => state.versions.get_key_value(&v),
            None => state.versions.iter().next_back(),
        }
        .ok_or(Error::NoSuchSegment)?;
        Ok((state, v, vd))
    }

    /// Read `len` bytes at `offset` from `version` (or the latest).
    pub fn read(
        &self,
        seg: SegId,
        version: Option<Version>,
        offset: u64,
        len: u64,
    ) -> Result<ReadOut> {
        let (state, v, vd) = self.version(seg, version)?;
        let end = offset.saturating_add(len).min(vd.len);
        let covered = end.saturating_sub(offset);
        let data = if state.meta.synthetic {
            None
        } else {
            Some(version_bytes(state, vd, offset, end)?)
        };
        let crc = data.as_ref().and_then(|_| vd.pieces.crc(offset, covered));
        Ok(ReadOut {
            len: covered,
            data,
            version: v,
            crc,
        })
    }

    /// Versioning-off write path (§3.5): apply directly to the latest
    /// committed version in place. Creates version 1 on first write.
    pub fn direct_write(
        &mut self,
        seg: SegId,
        offset: u64,
        payload: WritePayload,
        meta: SegMeta,
        now: SimTime,
    ) -> Result<()> {
        let wlen = payload.len();
        let end = offset + wlen;
        self.mark_changed(seg);
        let state = self.segments.entry(seg).or_insert_with(|| SegmentState::new(meta, now));
        if state.versions.is_empty() {
            state.versions.insert(
                Version(1),
                VersionData {
                    len: 0,
                    index: RegionIndex::full(0, None),
                    delta: Delta::new(meta.synthetic),
                    pieces: Pieces::default(),
                },
            );
        }
        if wlen == 0 {
            return Ok(());
        }
        let (&v, vd) = state.versions.iter_mut().next_back().expect("non-empty");
        vd.pieces.write(offset, &payload);
        let index = &vd.index;
        vd.delta
            .write(offset, payload, || covered_bytes(index, offset, end, |s| s.is_some()));
        vd.index.overlay(offset, end, Some(v));
        vd.len = vd.len.max(end);
        state.last_access = now;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Replication / migration support
    // ------------------------------------------------------------------

    /// Materialize the given (or latest) version for transfer.
    pub fn export(&self, seg: SegId, version: Option<Version>) -> Result<ReplicaImage> {
        self.export_transfer(seg, version).map(|t| t.image)
    }

    /// [`LocalStore::export`] with the version's piece table beside it.
    pub fn export_transfer(&self, seg: SegId, version: Option<Version>) -> Result<Transfer> {
        let (state, v, vd) = self.version(seg, version)?;
        let data = if state.meta.synthetic {
            None
        } else {
            Some(version_bytes(state, vd, 0, vd.len)?)
        };
        let image = ReplicaImage { seg, version: v, len: vd.len, data, meta: state.meta };
        let pieces = vd.pieces.0.iter().map(|(&start, &(len, crc))| (start, len, crc)).collect();
        Ok(Transfer { image, pieces })
    }

    /// Install a replica fetched from another owner, keeping the piece
    /// table it arrived with. Replaces any older local versions (they are
    /// now stale); ignored if a strictly newer version is already held.
    pub fn install_replica(&mut self, xfer: Transfer, now: SimTime) -> Result<bool> {
        let Transfer { image, pieces } = xfer;
        if self.latest(image.seg).is_some_and(|latest| latest >= image.version) {
            return Ok(false);
        }
        let delta = match image.data {
            // The image becomes the version's one extent as it arrived.
            Some(bytes) => Delta::Frozen(FrozenBuffer::whole(bytes)),
            None => Delta::Synthetic { stored: image.len },
        };
        let vd = VersionData {
            len: image.len,
            index: RegionIndex::full(image.len, Some(image.version)),
            delta,
            pieces: Pieces(pieces.into_iter().map(|(start, len, crc)| (start, (len, crc))).collect()),
        };
        self.mark_changed(image.seg);
        let state =
            self.segments.entry(image.seg).or_insert_with(|| SegmentState::new(image.meta, now));
        // Older versions are stale relative to a synced replica.
        state.versions.clear();
        state.versions.insert(image.version, vd);
        Ok(true)
    }

    /// Remove a segment entirely; returns whether it existed.
    pub fn delete_segment(&mut self, seg: SegId) -> bool {
        let existed = self.segments.remove(&seg).is_some();
        if existed {
            self.mark_changed(seg);
        }
        existed
    }

    // ------------------------------------------------------------------
    // Introspection & temperature
    // ------------------------------------------------------------------

    /// Whether the exact committed version is held locally.
    pub fn has_version(&self, seg: SegId, version: Version) -> bool {
        self.version(seg, Some(version)).is_ok()
    }

    /// Latest committed version of a segment.
    pub fn latest(&self, seg: SegId) -> Option<Version> {
        self.version(seg, None).ok().map(|(_, v, _)| v)
    }

    /// Whether the segment has any committed version.
    pub fn has_segment(&self, seg: SegId) -> bool {
        self.segments.contains_key(&seg)
    }

    /// Segment management metadata.
    pub fn meta(&self, seg: SegId) -> Option<SegMeta> {
        self.segments.get(&seg).map(|s| s.meta)
    }

    /// Logical length of a segment's latest version.
    pub fn seg_len(&self, seg: SegId) -> Option<u64> {
        self.version(seg, None).ok().map(|(_, _, vd)| vd.len)
    }

    /// All locally stored segments with their latest versions.
    pub fn list_segments(&self) -> Vec<(SegId, Version)> {
        let mut v: Vec<(SegId, Version)> = self
            .segments
            .iter()
            .filter_map(|(&s, st)| st.versions.keys().next_back().map(|&ver| (s, ver)))
            .collect();
        v.sort();
        v
    }

    /// Physically stored bytes for one segment (all kept versions).
    pub fn stored_bytes(&self, seg: SegId) -> u64 {
        self.segments.get(&seg).map_or(0, SegmentState::stored_bytes)
    }

    /// Physically stored bytes across all segments and shadows.
    pub fn total_stored_bytes(&self) -> u64 {
        let committed: u64 = self.segments.values().map(SegmentState::stored_bytes).sum();
        let shadows: u64 = self.shadows.values().map(|s| s.delta.stored_bytes()).sum();
        committed + shadows
    }

    /// Record an access for temperature (LAT), as a file's atime.
    pub fn touch(&mut self, seg: SegId, now: SimTime) {
        if let Some(state) = self.segments.get_mut(&seg) {
            state.last_access = now;
        }
    }

    /// Last access time (the temperature measure of §3.7.1).
    pub fn last_access(&self, seg: SegId) -> Option<SimTime> {
        self.segments.get(&seg).map(|s| s.last_access)
    }

    /// Segments sorted by last-access time, oldest (coldest) first.
    pub fn segments_by_temperature(&self) -> Vec<(SegId, SimTime, u64)> {
        let mut v: Vec<(SegId, SimTime, u64)> =
            self.segments.iter().map(|(&s, st)| (s, st.last_access, st.stored_bytes())).collect();
        v.sort_by_key(|&(s, t, _)| (t, s));
        v
    }

    // ------------------------------------------------------------------
    // Consolidation
    // ------------------------------------------------------------------

    /// Enforce the version retention policy for `seg`: keep the
    /// `keep_versions` most recent versions, materializing any survivor
    /// whose copy-on-write index still references a version about to be
    /// dropped.
    ///
    /// Materialization (rather than reference remapping) is required for
    /// correctness: with entropy-disambiguated versions, a survivor's
    /// dangling reference may name a *sibling* orphan rather than an
    /// ancestor, so no retained version can stand in for the dropped
    /// bytes — they must be copied out while the chain is still intact.
    fn consolidate(&mut self, seg: SegId) {
        let Some(state) = self.segments.get_mut(&seg) else {
            return;
        };
        if state.versions.len() <= self.keep_versions {
            return;
        }
        let retained: Vec<Version> =
            state.versions.keys().rev().take(self.keep_versions).copied().collect();
        let dangling = |v: &&Version| {
            state.versions[*v].index.sources().iter().any(|src| !retained.contains(src))
        };
        let copies: Vec<(Version, VersionData)> = retained
            .iter()
            .filter(dangling)
            .filter_map(|&v| Some((v, materialized_copy(state, v).ok()?)))
            .collect();
        state.versions.extend(copies);
        state.versions.retain(|v, _| retained.contains(v));
    }
}

/// A self-contained (single-delta, self-referential-index) copy of
/// `version`, gathered while the chain it references is still intact.
fn materialized_copy(state: &SegmentState, version: Version) -> Result<VersionData> {
    let vd = state.versions.get(&version).ok_or(Error::NoSuchSegment)?;
    let delta = if state.meta.synthetic {
        Delta::Synthetic { stored: vd.len }
    } else {
        // Always a copy, never a view: the point is to stop depending on
        // (and pinning) the ancestors' allocations.
        let mut out = Vec::with_capacity(vd.len as usize);
        gather(state, &vd.index.resolve(0, vd.len), &mut out)?;
        Delta::Frozen(FrozenBuffer::whole(out.into()))
    };
    Ok(VersionData {
        len: vd.len,
        index: RegionIndex::full(vd.len, Some(version)),
        delta,
        pieces: vd.pieces.clone(),
    })
}

/// Bytes of `[start, end)` whose source in `index` satisfies `pred`.
fn covered_bytes<S: Copy + Eq + std::fmt::Debug>(
    index: &RegionIndex<S>,
    start: u64,
    end: u64,
    pred: impl Fn(Option<S>) -> bool,
) -> u64 {
    let parts = index.resolve(start, end);
    parts.iter().filter(|(_, s)| pred(*s)).map(|(r, _)| r.end - r.start).sum()
}

/// Append the bytes of `parts` (consecutive regions of one version's
/// index) to `out`, each from the delta of the version that holds it.
fn gather(
    state: &SegmentState,
    parts: &[(Range<u64>, Option<Version>)],
    out: &mut Vec<u8>,
) -> Result<()> {
    for (range, src) in parts {
        let n = range.end - range.start;
        match src {
            Some(v) => {
                let holder = state.versions.get(v).ok_or(Error::NoSuchSegment)?;
                holder.delta.append_to(range.start, n, out);
            }
            None => out.resize(out.len() + n as usize, 0),
        }
    }
    Ok(())
}

/// Bytes `[offset, end)` of committed version `vd`: a view of the stored
/// extent when one frozen extent holds them all (a segment written and
/// committed, or installed, and read in place — the common case), else
/// gathered in offset order into a buffer that was never zero-filled.
fn version_bytes(state: &SegmentState, vd: &VersionData, offset: u64, end: u64) -> Result<Bytes> {
    if offset >= end {
        return Ok(Bytes::new());
    }
    let parts = vd.index.resolve(offset, end);
    // Regions written by separate chunks stay separate in the index
    // though one coalesced extent holds them: judge by the source.
    if let Some((_, Some(src))) = parts.first() {
        if parts.iter().all(|(_, s)| *s == Some(*src)) {
            let holder = state.versions.get(src).ok_or(Error::NoSuchSegment)?;
            if let Delta::Frozen(buf) = &holder.delta {
                if let Some(view) = buf.view(offset, end - offset) {
                    return Ok(view);
                }
            }
        }
    }
    let mut out = Vec::with_capacity((end - offset) as usize);
    gather(state, &parts, &mut out)?;
    debug_assert_eq!(out.len() as u64, end - offset);
    Ok(out.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::AccessLog;
    use sorrento_kvdb::{crc32, crc32_pieces};
    use sorrento_sim::Dur;

    const TTL: Dur = Dur::nanos(60_000_000_000);

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + Dur::secs(s)
    }

    fn seg(n: u64) -> SegId {
        SegId::derive(1, n, 0)
    }

    fn real_meta() -> SegMeta {
        SegMeta::default()
    }

    fn commit_fresh(store: &mut LocalStore, s: SegId, data: &[u8]) -> Version {
        let sh = store.open_fresh_shadow(s, real_meta(), t(0), TTL);
        store
            .write_shadow(sh, 0, WritePayload::Real(data.to_vec().into()))
            .unwrap();
        store.commit_shadow(sh, Version(1), t(0)).unwrap();
        Version(1)
    }

    #[test]
    fn fresh_commit_and_read_back() {
        let mut st = LocalStore::new(2);
        let s = seg(1);
        commit_fresh(&mut st, s, b"hello world");
        let out = st.read(s, None, 0, 100).unwrap();
        assert_eq!(out.len, 11);
        assert_eq!(out.data.unwrap(), b"hello world");
        assert_eq!(out.version, Version(1));
        assert_eq!(st.seg_len(s), Some(11));
    }

    #[test]
    fn cow_shadow_reads_through_base() {
        let mut st = LocalStore::new(3);
        let s = seg(1);
        commit_fresh(&mut st, s, b"aaaaaaaaaa");
        let sh = st.open_shadow(s, Version(1), t(1), TTL).unwrap();
        st.write_shadow(sh, 3, WritePayload::Real(b"BBB".to_vec().into()))
            .unwrap();
        // Read-your-writes through the shadow.
        let pre = st.read_shadow(sh, 0, 10).unwrap();
        assert_eq!(pre.data.unwrap(), b"aaaBBBaaaa");
        // Base version unchanged.
        let base = st.read(s, Some(Version(1)), 0, 10).unwrap();
        assert_eq!(base.data.unwrap(), b"aaaaaaaaaa");
        // Commit: v2 visible, v1 still intact (keep_versions = 3).
        st.commit_shadow(sh, Version(2), t(2)).unwrap();
        let v2 = st.read(s, None, 0, 10).unwrap();
        assert_eq!(v2.version, Version(2));
        assert_eq!(v2.data.unwrap(), b"aaaBBBaaaa");
        let v1 = st.read(s, Some(Version(1)), 0, 10).unwrap();
        assert_eq!(v1.data.unwrap(), b"aaaaaaaaaa");
        // COW: v2's delta only stores the 3 modified bytes.
        assert_eq!(st.stored_bytes(s), 10 + 3);
    }

    #[test]
    fn shadow_append_extends_segment() {
        let mut st = LocalStore::new(2);
        let s = seg(1);
        commit_fresh(&mut st, s, b"base");
        let sh = st.open_shadow(s, Version(1), t(1), TTL).unwrap();
        st.write_shadow(sh, 4, WritePayload::Real(b"+more".to_vec().into()))
            .unwrap();
        st.commit_shadow(sh, Version(2), t(1)).unwrap();
        let out = st.read(s, None, 0, 100).unwrap();
        assert_eq!(out.data.unwrap(), b"base+more");
    }

    #[test]
    fn consolidation_materializes_oldest_survivor() {
        let mut st = LocalStore::new(1);
        let s = seg(1);
        commit_fresh(&mut st, s, b"0000000000");
        for (v, ch) in [(2u64, b'1'), (3, b'2')] {
            let sh = st.open_shadow(s, Version(v - 1), t(v), TTL).unwrap();
            st.write_shadow(sh, v, WritePayload::Real(vec![ch; 2].into()))
                .unwrap();
            st.commit_shadow(sh, Version(v), t(v)).unwrap();
        }
        // Only v3 survives, fully materialized and readable.
        assert_eq!(st.latest(s), Some(Version(3)));
        let out = st.read(s, Some(Version(1)), 0, 10);
        assert_eq!(out.unwrap_err(), Error::NoSuchSegment);
        let v3 = st.read(s, None, 0, 10).unwrap();
        assert_eq!(v3.data.unwrap(), b"0012200000");
    }

    #[test]
    fn prepare_detects_version_conflict() {
        let mut st = LocalStore::new(2);
        let s = seg(1);
        commit_fresh(&mut st, s, b"x");
        let sh1 = st.open_shadow(s, Version(1), t(1), TTL).unwrap();
        let sh2 = st.open_shadow(s, Version(1), t(1), TTL).unwrap();
        st.prepare_shadow(sh1, Version(2)).unwrap();
        st.commit_shadow(sh1, Version(2), t(2)).unwrap();
        // sh2's base (v1) is no longer the latest: conflict.
        assert_eq!(
            st.prepare_shadow(sh2, Version(2)).unwrap_err(),
            Error::VersionConflict
        );
    }

    #[test]
    fn expired_shadows_are_reaped_unless_prepared() {
        let mut st = LocalStore::new(2);
        let s = seg(1);
        commit_fresh(&mut st, s, b"x");
        let sh1 = st.open_shadow(s, Version(1), t(1), Dur::secs(5)).unwrap();
        let sh2 = st.open_shadow(s, Version(1), t(1), Dur::secs(5)).unwrap();
        st.prepare_shadow(sh2, Version(2)).unwrap();
        assert_eq!(st.expire_shadows(t(10)), 1);
        assert!(st.read_shadow(sh1, 0, 1).is_err());
        assert!(st.read_shadow(sh2, 0, 1).is_ok());
    }

    #[test]
    fn renew_extends_shadow_life() {
        let mut st = LocalStore::new(2);
        let s = seg(1);
        commit_fresh(&mut st, s, b"x");
        let sh = st.open_shadow(s, Version(1), t(1), Dur::secs(5)).unwrap();
        st.renew_shadow(sh, t(5), Dur::secs(10)).unwrap();
        assert_eq!(st.expire_shadows(t(10)), 0);
        assert_eq!(st.expire_shadows(t(20)), 1);
    }

    #[test]
    fn export_install_round_trip() {
        let mut st1 = LocalStore::new(2);
        let mut st2 = LocalStore::new(2);
        let s = seg(1);
        commit_fresh(&mut st1, s, b"replicate me");
        let img = st1.export(s, None).unwrap();
        assert!(st2.install_replica(img.into(), t(3)).unwrap());
        let out = st2.read(s, None, 0, 100).unwrap();
        assert_eq!(out.data.unwrap(), b"replicate me");
        assert_eq!(out.version, Version(1));
    }

    #[test]
    fn install_ignores_stale_image() {
        let mut st = LocalStore::new(2);
        let s = seg(1);
        commit_fresh(&mut st, s, b"v1");
        let sh = st.open_shadow(s, Version(1), t(1), TTL).unwrap();
        st.write_shadow(sh, 0, WritePayload::Real(b"v2".to_vec().into()))
            .unwrap();
        st.commit_shadow(sh, Version(2), t(1)).unwrap();
        let stale = ReplicaImage {
            seg: s,
            version: Version(1),
            len: 2,
            data: Some(b"v1".to_vec().into()),
            meta: real_meta(),
        };
        assert!(!st.install_replica(stale.into(), t(2)).unwrap());
        assert_eq!(st.latest(s), Some(Version(2)));
    }

    #[test]
    fn synthetic_segments_track_sizes_only() {
        let mut st = LocalStore::new(2);
        let s = seg(1);
        let meta = SegMeta {
            synthetic: true,
            ..SegMeta::default()
        };
        let sh = st.open_fresh_shadow(s, meta, t(0), TTL);
        st.write_shadow(sh, 0, WritePayload::Synthetic { len: 4_000_000 })
            .unwrap();
        // Overlapping rewrite must not double-count.
        st.write_shadow(sh, 1_000_000, WritePayload::Synthetic { len: 4_000_000 })
            .unwrap();
        st.commit_shadow(sh, Version(1), t(0)).unwrap();
        assert_eq!(st.seg_len(s), Some(5_000_000));
        assert_eq!(st.stored_bytes(s), 5_000_000);
        let out = st.read(s, None, 0, 1_000_000).unwrap();
        assert_eq!(out.len, 1_000_000);
        assert!(out.data.is_none());
    }

    #[test]
    fn direct_write_versioning_off() {
        let mut st = LocalStore::new(2);
        let s = seg(1);
        st.direct_write(s, 0, WritePayload::Real(b"abcdef".to_vec().into()), real_meta(), t(0))
            .unwrap();
        st.direct_write(s, 2, WritePayload::Real(b"XY".to_vec().into()), real_meta(), t(1))
            .unwrap();
        let out = st.read(s, None, 0, 10).unwrap();
        assert_eq!(out.data.unwrap(), b"abXYef");
        // Still version 1: no version advance on direct writes.
        assert_eq!(st.latest(s), Some(Version(1)));
    }

    #[test]
    fn temperature_and_locality_tracking() {
        let mut st = LocalStore::new(2);
        let s = seg(1);
        let meta = SegMeta {
            policy: PlacementPolicy::LocalityDriven { threshold: 0.6 },
            ..SegMeta::default()
        };
        let sh = st.open_fresh_shadow(s, meta, t(0), TTL);
        st.write_shadow(sh, 0, WritePayload::Real(b"x".to_vec().into()))
            .unwrap();
        st.commit_shadow(sh, Version(1), t(0)).unwrap();
        commit_fresh(&mut st, seg(2), b"y");
        // What a provider's owner does on every read served: the store
        // keeps the temperature, the access log beside it the locality.
        let mut log = AccessLog::default();
        for (at, machine, bytes) in [(5, 7, 100), (6, 7, 100), (7, 9, 50)] {
            st.touch(s, t(at));
            log.record(s, meta.policy, machine, bytes);
        }
        assert_eq!(st.last_access(s), Some(t(7)));
        let shares = log.traffic_shares(s);
        assert_eq!(shares[0].0, 7);
        assert!((shares[0].1 - 0.8).abs() < 1e-9);
        let by_temp = st.segments_by_temperature();
        assert_eq!(by_temp.iter().map(|e| e.0).collect::<Vec<_>>(), vec![seg(2), s]);
        // A load-aware segment is read as often and leaves no history.
        log.record(seg(2), SegMeta::default().policy, 7, 100);
        assert!(log.traffic_shares(seg(2)).is_empty());
    }

    #[test]
    fn delete_segment_frees_state() {
        let mut st = LocalStore::new(2);
        let s = seg(1);
        commit_fresh(&mut st, s, b"x");
        assert!(st.delete_segment(s));
        assert!(!st.delete_segment(s));
        assert!(st.read(s, None, 0, 1).is_err());
        assert_eq!(st.total_stored_bytes(), 0);
    }

    #[test]
    fn list_segments_reports_latest_versions() {
        let mut st = LocalStore::new(2);
        let (a, b) = (seg(1), seg(2));
        commit_fresh(&mut st, a, b"a");
        commit_fresh(&mut st, b, b"b");
        let sh = st.open_shadow(a, Version(1), t(1), TTL).unwrap();
        st.write_shadow(sh, 0, WritePayload::Real(b"A".to_vec().into()))
            .unwrap();
        st.commit_shadow(sh, Version(2), t(1)).unwrap();
        let mut listed = st.list_segments();
        listed.sort();
        assert_eq!(listed, vec![(a, Version(2)), (b, Version(1))]);
    }

    // ------------------------------------------------------------------
    // Views and the flat reference model
    // ------------------------------------------------------------------

    #[test]
    fn committed_reads_and_exports_are_views_of_one_allocation() {
        let mut st = LocalStore::new(2);
        let s = seg(1);
        // Adjacent chunked writes coalesce into one extent, as a
        // pipelined segment write does.
        let sh = st.open_fresh_shadow(s, real_meta(), t(0), TTL);
        for c in 0..4u64 {
            st.write_shadow(sh, c * 100, WritePayload::Real(vec![c as u8; 100].into()))
                .unwrap();
        }
        st.commit_shadow(sh, Version(1), t(0)).unwrap();
        let a = st.read(s, None, 50, 300).unwrap().data.unwrap();
        let b = st.read(s, Some(Version(1)), 50, 300).unwrap().data.unwrap();
        assert_eq!(a.as_ptr(), b.as_ptr(), "two reads of one range must share the stored bytes");
        let whole = st.read(s, None, 0, u64::MAX).unwrap().data.unwrap();
        assert_eq!(whole.as_ptr().wrapping_add(50), a.as_ptr());
        let img = st.export(s, None).unwrap();
        assert_eq!(img.data.as_ref().unwrap().as_ptr(), whole.as_ptr());
        // An installed image is kept as it arrived and served the same way.
        let mut replica = LocalStore::new(2);
        assert!(replica.install_replica(img.into(), t(1)).unwrap());
        let r = replica.read(s, None, 0, 400).unwrap().data.unwrap();
        assert_eq!(r.as_ptr(), whole.as_ptr());
        assert_eq!(replica.stored_bytes(s), 400);
        // A range no single extent holds is gathered, zeros in the hole.
        let sh = st.open_shadow(s, Version(1), t(2), TTL).unwrap();
        st.write_shadow(sh, 450, WritePayload::Real(vec![9u8; 10].into())).unwrap();
        st.commit_shadow(sh, Version(2), t(2)).unwrap();
        let mixed = st.read(s, None, 390, 70).unwrap().data.unwrap();
        assert_eq!(&mixed[..10], &[3u8; 10]);
        assert_eq!(&mixed[10..60], &[0u8; 50]);
        assert_eq!(&mixed[60..], &[9u8; 10]);
    }

    #[test]
    fn direct_write_leaves_earlier_views_unchanged() {
        let mut st = LocalStore::new(2);
        let s = seg(1);
        commit_fresh(&mut st, s, b"0123456789");
        let view = st.read(s, None, 2, 6).unwrap().data.unwrap();
        st.direct_write(s, 4, WritePayload::Real(b"XY".to_vec().into()), real_meta(), t(1))
            .unwrap();
        assert_eq!(view, b"234567", "a view handed out must never change under its reader");
        assert_eq!(st.read(s, None, 0, 10).unwrap().data.unwrap(), b"0123XY6789");
        assert_eq!(st.stored_bytes(s), 10);
    }

    /// One committed version of the flat model: its bytes, and for every
    /// byte the version whose delta physically holds it (`None`: a hole).
    #[derive(Clone, Default)]
    struct ModelVersion {
        data: Vec<u8>,
        src: Vec<Option<u64>>,
    }

    /// Bytes version `v`'s own delta stores: the store's accounting,
    /// restated on the flat model.
    fn model_stored(versions: &BTreeMap<u64, ModelVersion>) -> u64 {
        versions
            .iter()
            .map(|(v, m)| m.src.iter().filter(|s| **s == Some(*v)).count() as u64)
            .sum()
    }

    /// Retention on the flat model: keep the `keep` newest versions; a
    /// survivor that references a dropped one is made self-contained.
    fn model_consolidate(versions: &mut BTreeMap<u64, ModelVersion>, keep: usize) {
        if versions.len() <= keep {
            return;
        }
        let retained: Vec<u64> = versions.keys().rev().take(keep).copied().collect();
        versions.retain(|v, _| retained.contains(v));
        for (v, m) in versions.iter_mut() {
            if m.src.iter().flatten().any(|s| !retained.contains(s)) {
                m.src = vec![Some(*v); m.data.len()];
            }
        }
    }

    /// Read every range in `ranges` from every version held: a read that
    /// comes back with a CRC must carry the CRC of the bytes it came back
    /// with. Returns how many did.
    fn check_crcs(
        st: &LocalStore,
        s: SegId,
        versions: &BTreeMap<u64, ModelVersion>,
        ranges: &[(u64, u64)],
    ) -> usize {
        let mut served = 0;
        for &v in versions.keys() {
            for &(off, len) in ranges {
                let out = st.read(s, Some(Version(v)), off, len).unwrap();
                if let Some(crc) = out.crc {
                    let data = out.data.expect("a CRC comes with bytes");
                    assert_eq!(crc, crc32(&data), "v{v} [{off}, +{len})");
                    served += 1;
                }
            }
        }
        served
    }

    /// `data` as a write, checked half the time (its range noted in
    /// `ranges` for [`check_crcs`]).
    fn arb_write(
        rng: &mut rand::rngs::SmallRng,
        off: usize,
        data: &[u8],
        ranges: &mut Vec<(u64, u64)>,
    ) -> WritePayload {
        use rand::Rng;
        if rng.gen() {
            ranges.push((off as u64, data.len() as u64));
            checked(data)
        } else {
            WritePayload::Real(data.to_vec().into())
        }
    }

    fn check_against_model(st: &LocalStore, s: SegId, versions: &BTreeMap<u64, ModelVersion>) {
        for (&v, m) in versions {
            let out = st.read(s, Some(Version(v)), 0, u64::MAX).unwrap();
            assert_eq!(out.len, m.data.len() as u64, "length of v{v}");
            assert_eq!(out.data.unwrap(), m.data, "contents of v{v}");
        }
        assert_eq!(st.list_segments().len(), usize::from(!versions.is_empty()));
        assert_eq!(st.stored_bytes(s), model_stored(versions), "stored_bytes");
    }

    /// Reference-model check of the whole store against flat `Vec<u8>`s:
    /// seeded random shadow sessions (writes, a closing truncate),
    /// commits with consolidation, in-place `direct_write`s and replica
    /// installs over a chain of versions, keeping one version or two.
    /// Contents, lengths and the stored-bytes accounting must match after
    /// every step, and no view taken along the way may ever change. Half
    /// the writes carry their CRC: every read of a range written so that
    /// comes back with a CRC must carry the CRC of what it returned.
    #[test]
    fn matches_flat_model() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(17);
        let mut served_with_crc = 0;
        for round in 0..20u64 {
            let keep = 1 + (round % 2) as usize;
            let mut st = LocalStore::new(keep);
            let mut replica = LocalStore::new(keep);
            let s = seg(round);
            let mut versions: BTreeMap<u64, ModelVersion> = BTreeMap::new();
            // (view, the bytes it showed when taken)
            let mut views: Vec<(Bytes, Vec<u8>)> = Vec::new();
            // Ranges written with a CRC.
            let mut checked_ranges: Vec<(u64, u64)> = Vec::new();
            let mut next_v = 1u64;
            for step in 0..40u64 {
                let latest = versions.keys().next_back().copied();
                match rng.gen_range(0..10u32) {
                    // A shadow session on the latest version, committed.
                    0..=5 => {
                        let base = latest.map(|b| versions[&b].clone()).unwrap_or_default();
                        let sh = match latest {
                            Some(b) => st.open_shadow(s, Version(b), t(step), TTL).unwrap(),
                            None => st.open_fresh_shadow(s, real_meta(), t(step), TTL),
                        };
                        let mut m = base.clone();
                        for _ in 0..rng.gen_range(1..6u32) {
                            // Sessions may cut the tail, as index and
                            // parity rewrites do, and write on past the cut.
                            if rng.gen_bool(0.2) {
                                let len = rng.gen_range(0..=m.data.len());
                                st.truncate_shadow(sh, len as u64).unwrap();
                                m.data.truncate(len);
                                m.src.truncate(len);
                                continue;
                            }
                            let off = rng.gen_range(0..300usize);
                            let data: Vec<u8> =
                                (0..rng.gen_range(0..80usize)).map(|_| rng.gen()).collect();
                            let payload = arb_write(&mut rng, off, &data, &mut checked_ranges);
                            st.write_shadow(sh, off as u64, payload).unwrap();
                            if data.is_empty() {
                                continue;
                            }
                            let end = off + data.len();
                            if m.data.len() < end {
                                m.data.resize(end, 0);
                                m.src.resize(end, None);
                            }
                            m.data[off..end].copy_from_slice(&data);
                            m.src[off..end].fill(Some(next_v));
                        }
                        // Or end with a cut.
                        if rng.gen_bool(0.3) {
                            let len = rng.gen_range(0..=m.data.len());
                            st.truncate_shadow(sh, len as u64).unwrap();
                            m.data.truncate(len);
                            m.src.truncate(len);
                        }
                        let pre = st.read_shadow(sh, 0, u64::MAX >> 1).unwrap();
                        assert_eq!(pre.data.unwrap(), m.data, "read-your-writes");
                        let fresh = m.src.iter().filter(|s| **s == Some(next_v)).count() as u64;
                        assert_eq!(
                            st.total_stored_bytes(),
                            model_stored(&versions) + fresh,
                            "open shadows count toward the total"
                        );
                        st.prepare_shadow(sh, Version(next_v)).unwrap();
                        st.commit_shadow(sh, Version(next_v), t(step)).unwrap();
                        versions.insert(next_v, m);
                        model_consolidate(&mut versions, keep);
                        next_v += 1;
                    }
                    // Versioning-off write into the latest version, in place.
                    6..=7 => {
                        let off = rng.gen_range(0..300usize);
                        let data: Vec<u8> =
                            (0..rng.gen_range(1..80usize)).map(|_| rng.gen()).collect();
                        let v = latest.unwrap_or(1);
                        let payload = arb_write(&mut rng, off, &data, &mut checked_ranges);
                        st.direct_write(s, off as u64, payload, real_meta(), t(step)).unwrap();
                        next_v = next_v.max(v + 1);
                        let m = versions.entry(v).or_default();
                        let end = off + data.len();
                        if m.data.len() < end {
                            m.data.resize(end, 0);
                            m.src.resize(end, None);
                        }
                        m.data[off..end].copy_from_slice(&data);
                        m.src[off..end].fill(Some(v));
                    }
                    // The latest version travels to a replica with its
                    // piece table; the replica serves it (and exports it
                    // again) without a copy, with its writers' CRCs.
                    8 => {
                        let Some(v) = latest else { continue };
                        let xfer = st.export_transfer(s, None).unwrap();
                        let img = xfer.image.clone();
                        assert_eq!(img.version, Version(v));
                        assert_eq!(img.data.as_ref().unwrap(), &versions[&v].data);
                        let data = img.data.as_deref().unwrap();
                        assert_eq!(crc32_pieces(data, &xfer.pieces), Some(crc32(data)));
                        let fresh = replica.latest(s).is_none_or(|have| have < Version(v));
                        assert_eq!(replica.install_replica(xfer, t(step)).unwrap(), fresh);
                        // (A replica that already holds `v` keeps its
                        // copy, which in-place writes may have left behind.)
                        if fresh {
                            let got = replica.read(s, None, 0, u64::MAX).unwrap().data.unwrap();
                            assert_eq!(got, versions[&v].data);
                            assert_eq!(replica.stored_bytes(s), got.len() as u64);
                            if !got.is_empty() {
                                assert_eq!(got.as_ptr(), img.data.as_ref().unwrap().as_ptr());
                                let again = replica.export(s, None).unwrap().data.unwrap();
                                assert_eq!(again.as_ptr(), got.as_ptr());
                            }
                            let held = BTreeMap::from([(v, versions[&v].clone())]);
                            served_with_crc += check_crcs(&replica, s, &held, &checked_ranges);
                        }
                    }
                    // A newer image arrives from elsewhere: it replaces
                    // every version held.
                    _ => {
                        let data: Vec<u8> =
                            (0..rng.gen_range(0..300usize)).map(|_| rng.gen()).collect();
                        let img = ReplicaImage {
                            seg: s,
                            version: Version(next_v),
                            len: data.len() as u64,
                            data: Some(data.clone().into()),
                            meta: real_meta(),
                        };
                        assert!(st.install_replica(img.into(), t(step)).unwrap());
                        versions.clear();
                        let src = vec![Some(next_v); data.len()];
                        versions.insert(next_v, ModelVersion { data, src });
                        next_v += 1;
                    }
                }
                check_against_model(&st, s, &versions);
                served_with_crc += check_crcs(&st, s, &versions, &checked_ranges);
                assert_eq!(st.total_stored_bytes(), model_stored(&versions));
                // Take a view of a random range of a random version; all
                // views taken so far must still show what they showed.
                if let Some((&v, m)) = versions.iter().nth(rng.gen_range(0..versions.len().max(1))) {
                    if !m.data.is_empty() {
                        let a = rng.gen_range(0..m.data.len());
                        let b = rng.gen_range(a..=m.data.len());
                        let view = st
                            .read(s, Some(Version(v)), a as u64, (b - a) as u64)
                            .unwrap()
                            .data
                            .unwrap();
                        views.push((view, m.data[a..b].to_vec()));
                    }
                }
                for (view, expect) in &views {
                    assert_eq!(view, expect, "a view changed under its reader");
                }
            }
        }
        assert!(served_with_crc > 100, "only {served_with_crc} reads came back with a CRC");
    }

    fn checked(data: &[u8]) -> WritePayload {
        WritePayload::Checked { data: data.to_vec().into(), crc: crc32(data) }
    }

    #[test]
    fn a_read_of_exactly_one_stored_piece_carries_its_crc() {
        let mut st = LocalStore::new(2);
        let s = seg(1);
        let sh = st.open_fresh_shadow(s, real_meta(), t(0), TTL);
        st.write_shadow(sh, 0, checked(b"first piece")).unwrap();
        st.write_shadow(sh, 11, checked(b"second")).unwrap();
        st.commit_shadow(sh, Version(1), t(0)).unwrap();
        let second = Some(crc32(b"second"));
        assert_eq!(st.read(s, None, 11, 6).unwrap().crc, second);
        assert_eq!(st.read(s, None, 11, 100).unwrap().crc, second, "clamped to the piece");
        assert_eq!(st.read(s, None, 1, 10).unwrap().crc, None, "part of one");
        // A replica installed with the piece table serves the same CRCs;
        // one installed from a bare image knows no pieces.
        let mut replica = LocalStore::new(2);
        replica.install_replica(st.export_transfer(s, None).unwrap(), t(1)).unwrap();
        assert_eq!(replica.read(s, None, 11, 6).unwrap().crc, second);
        let mut bare = LocalStore::new(2);
        bare.install_replica(st.export(s, None).unwrap().into(), t(1)).unwrap();
        assert_eq!(bare.read(s, None, 11, 6).unwrap().crc, None);
    }

    #[test]
    fn a_read_of_a_run_of_whole_pieces_carries_their_combined_crc() {
        let mut st = LocalStore::new(2);
        let s = seg(1);
        let sh = st.open_fresh_shadow(s, real_meta(), t(0), TTL);
        for (at, piece) in [(0, &b"first "[..]), (6, b"second "), (13, b"third")] {
            st.write_shadow(sh, at, checked(piece)).unwrap();
        }
        st.write_shadow(sh, 30, checked(b"apart")).unwrap();
        st.commit_shadow(sh, Version(1), t(0)).unwrap();
        for (off, len) in [(0, 18), (6, 12), (0, 13), (30, 5)] {
            let out = st.read(s, None, off, len).unwrap();
            assert_eq!(out.crc, Some(crc32(&out.data.unwrap())), "[{off}, +{len})");
        }
        assert_eq!(st.read(s, None, 0, 35).unwrap().crc, None, "a gap between pieces");
        assert_eq!(st.read(s, None, 0, 17).unwrap().crc, None, "the last piece cut");
    }

    #[test]
    fn a_truncated_based_shadow_written_past_the_cut_commits_zeros_in_the_gap() {
        let mut st = LocalStore::new(2);
        let s = seg(1);
        commit_fresh(&mut st, s, &[0x07; 100]);
        let sh = st.open_shadow(s, Version(1), t(1), TTL).unwrap();
        st.truncate_shadow(sh, 50).unwrap();
        st.write_shadow(sh, 80, WritePayload::Real(vec![0x09; 10].into())).unwrap();
        let mut want = vec![0x07; 50];
        want.resize(80, 0);
        want.resize(90, 0x09);
        assert_eq!(st.read_shadow(sh, 0, 100).unwrap().data.unwrap(), want);
        st.commit_shadow(sh, Version(2), t(1)).unwrap();
        assert_eq!(st.read(s, None, 0, 100).unwrap().data.unwrap(), want);
    }

    #[test]
    fn a_piece_half_overwritten_has_no_crc() {
        let mut st = LocalStore::new(2);
        let s = seg(1);
        let sh = st.open_fresh_shadow(s, real_meta(), t(0), TTL);
        st.write_shadow(sh, 0, checked(b"0123456789")).unwrap();
        st.commit_shadow(sh, Version(1), t(0)).unwrap();
        let sh = st.open_shadow(s, Version(1), t(1), TTL).unwrap();
        st.write_shadow(sh, 5, checked(b"abcde")).unwrap();
        st.commit_shadow(sh, Version(2), t(1)).unwrap();
        assert_eq!(st.read(s, None, 0, 10).unwrap().crc, None, "the old piece, half gone");
        assert_eq!(st.read(s, None, 5, 5).unwrap().crc, Some(crc32(b"abcde")));
        assert_eq!(st.read(s, Some(Version(1)), 0, 10).unwrap().crc, Some(crc32(b"0123456789")));
        // In place, the same.
        st.direct_write(s, 4, WritePayload::Real(b"XY".to_vec().into()), real_meta(), t(2))
            .unwrap();
        assert_eq!(st.read(s, None, 5, 5).unwrap().crc, None, "its first byte rewritten");
    }

    #[test]
    fn a_truncate_into_a_piece_drops_its_crc() {
        let mut st = LocalStore::new(2);
        let s = seg(1);
        let sh = st.open_fresh_shadow(s, real_meta(), t(0), TTL);
        st.write_shadow(sh, 0, checked(b"0123456789")).unwrap();
        st.write_shadow(sh, 10, checked(b"abcdefghij")).unwrap();
        st.truncate_shadow(sh, 15).unwrap();
        st.commit_shadow(sh, Version(1), t(0)).unwrap();
        assert_eq!(st.read(s, None, 0, 10).unwrap().crc, Some(crc32(b"0123456789")));
        assert_eq!(st.read(s, None, 10, 10).unwrap().crc, None);
        assert_eq!(st.read(s, None, 10, 5).unwrap().crc, None);
    }
}
