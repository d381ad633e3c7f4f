//! File data organization (§3.2, Figure 3): a logical file is a linear
//! byte array assembled from variable-length data segments according to
//! an *index segment*, in one of three modes — Linear, Striped, Hybrid.
//!
//! Segment sizing follows the paper exactly: the i-th Linear segment is
//! `min{512, 8^⌊i/8⌋}` MB; in Hybrid mode the segments of the i-th group
//! (of `j` stripes) are `min{512, 8^⌊i·j/8⌋}` MB. Small files up to
//! [`ATTACH_MAX`] bytes are *attached* inside the index segment so one
//! transfer serves both metadata and data.

use std::collections::BTreeMap;

use bytes::Bytes;
use sorrento_ec::{EcError, ReedSolomon};

use crate::types::{EcParams, FileId, FileOptions, Organization, SegId, Version};

/// Maximum attachable file size: "Currently, the maximum attachable file
/// size is set to 60KB to fit in a UDP packet." (§3.2)
pub const ATTACH_MAX: u64 = 60 * 1024;

/// Default stripe unit ("fixed block" cell size in Figure 3).
pub const STRIPE_UNIT: u64 = 64 * 1024;

const MB: u64 = 1024 * 1024;
/// Cap on any single segment's size (512 MB).
pub const MAX_SEGMENT: u64 = 512 * MB;

/// Size of the `i`-th segment in Linear mode: `min{512, 8^⌊i/8⌋}` MB.
pub fn linear_segment_size(i: u64) -> u64 {
    let exp = i / 8;
    if exp >= 3 {
        return MAX_SEGMENT;
    }
    (8u64.pow(exp as u32) * MB).min(MAX_SEGMENT)
}

/// Size of each segment in the `i`-th Hybrid group of `j` stripes:
/// `min{512, 8^⌊i·j/8⌋}` MB.
pub fn hybrid_segment_size(group: u64, group_stripes: u64) -> u64 {
    let exp = group * group_stripes / 8;
    if exp >= 3 {
        return MAX_SEGMENT;
    }
    (8u64.pow(exp as u32) * MB).min(MAX_SEGMENT)
}

/// One data segment as recorded in an index segment: identity, the
/// version belonging to the current file version (§3.5), and current
/// length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegEntry {
    /// Location-independent segment id.
    pub seg: SegId,
    /// This file version's version of the segment.
    pub version: Version,
    /// Bytes currently stored in the segment.
    pub len: u64,
}

/// A contiguous piece of a file request mapped onto one data segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// Target data segment.
    pub seg: SegId,
    /// Segment's version for reads ([`Version::INITIAL`] for segments
    /// that do not exist yet).
    pub version: Version,
    /// Index of the segment in the flat segment list.
    pub seg_index: usize,
    /// Offset within the data segment.
    pub seg_offset: u64,
    /// Length of this piece.
    pub len: u64,
    /// Offset within the logical file.
    pub file_offset: u64,
    /// Whether the segment must be created as part of this write.
    pub new_segment: bool,
}

/// How a write lands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WritePlan {
    /// The file stays attached: write inline into the index segment.
    Attached,
    /// The write maps onto data segments; if `detach_bytes > 0`, the
    /// previously attached bytes `[0, detach_bytes)` must first be
    /// rewritten at file offset 0 through the same planning call.
    Extents {
        /// Previously attached bytes to spill into data segments.
        detach_bytes: u64,
        /// The extents covering (detached bytes ∪ requested write).
        extents: Vec<Extent>,
    },
}

/// The index segment: everything needed to assemble the byte array
/// (§3.2), plus the file's management options, and inline data for small
/// files.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexSegment {
    /// Owning file (the index segment's own SegId).
    pub file: FileId,
    /// File options fixed at creation.
    pub options: FileOptions,
    /// Logical file size in bytes.
    pub size: u64,
    /// Flat list of data segments (grouping is implied by the mode).
    pub segments: Vec<SegEntry>,
    /// Parity segments for erasure-coded files (`options.ec`): `m`
    /// entries, each holding the Reed-Solomon parity of the `k` data
    /// segments (which double as the code's data shards — the striped
    /// round-robin mapping makes segment `i` exactly shard `i`). Empty
    /// for replicated files.
    pub parity: Vec<SegEntry>,
    /// Inline contents for attached small files (`None` once detached or
    /// when synthetic).
    pub attached: Option<Vec<u8>>,
    /// Whether the file is attached (size tracked even when synthetic).
    pub is_attached: bool,
}

impl IndexSegment {
    /// A fresh, empty file.
    pub fn new(file: FileId, options: FileOptions) -> IndexSegment {
        IndexSegment {
            file,
            options,
            size: 0,
            segments: Vec::new(),
            parity: Vec::new(),
            attached: None,
            is_attached: true,
        }
    }

    /// Map a read onto the data segments (attached files return no
    /// extents; callers read inline data instead). Clamped to file size.
    pub fn locate(&self, offset: u64, len: u64) -> Vec<Extent> {
        let end = (offset + len).min(self.size);
        if self.is_attached || offset >= end {
            return Vec::new();
        }
        self.map_range(offset, end, false)
    }

    /// Plan a write of `[offset, offset+len)`. May switch the file from
    /// attached to segmented; in that case the plan also covers spilling
    /// the previously attached bytes.
    pub fn plan_write(
        &mut self,
        offset: u64,
        len: u64,
        mut fresh_seg: impl FnMut() -> SegId,
    ) -> WritePlan {
        let end = offset + len;
        if self.is_attached && end <= ATTACH_MAX && !matches!(
            self.options.organization,
            Organization::Striped { .. }
        ) {
            // Stays inline. (Striped files are never attached: their
            // creation declares parallel-I/O intent.)
            return WritePlan::Attached;
        }
        let detach_bytes = if self.is_attached { self.size } else { 0 };
        self.is_attached = false;
        let plan_start = if detach_bytes > 0 { 0 } else { offset };
        let plan_end = end.max(detach_bytes);
        // Grow the segment list to cover plan_end.
        self.ensure_segments(plan_end, &mut fresh_seg);
        let extents = self.map_range(plan_start, plan_end, true);
        WritePlan::Extents {
            detach_bytes,
            extents,
        }
    }

    /// Record a write's effect on file size and segment lengths (called
    /// after the write is planned/executed).
    pub fn apply_write(&mut self, offset: u64, len: u64) {
        let end = offset + len;
        self.size = self.size.max(end);
        if self.is_attached {
            return;
        }
        for e in self.map_range(offset, end, false) {
            let entry = &mut self.segments[e.seg_index];
            entry.len = entry.len.max(e.seg_offset + e.len);
        }
    }

    /// Update a data segment's version after commit (§3.5: "If part of a
    /// file is changed, only the modified segments and the index segment
    /// will have their version numbers advanced").
    pub fn set_segment_version(&mut self, seg: SegId, version: Version) {
        for entry in self.segments.iter_mut().chain(self.parity.iter_mut()) {
            if entry.seg == seg {
                entry.version = version;
            }
        }
    }

    /// Number of data segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Estimated wire size of this index segment (for NIC charging).
    pub fn wire_size(&self) -> u64 {
        96 + 40 * (self.segments.len() + self.parity.len()) as u64
            + self.attached.as_ref().map(|d| d.len() as u64).unwrap_or(0)
            + if self.is_attached && self.attached.is_none() {
                self.size // synthetic attached payload still travels
            } else {
                0
            }
    }

    // ------------------------------------------------------------------
    // Erasure coding (EC files are Striped with k stripes; segment i IS
    // data shard i of the systematic code, so healthy reads never touch
    // the codec).
    // ------------------------------------------------------------------

    /// The file's EC parameters, if it is erasure-coded.
    pub fn ec_params(&self) -> Option<EcParams> {
        self.options.ec
    }

    /// Padded shard length for the code: every shard (data and parity)
    /// is treated as this many bytes, zero-padding data shards whose
    /// stored length is shorter. Shard 0 always holds the most stripe
    /// units under round-robin, so its span is the pad width.
    pub fn ec_shard_len(&self) -> u64 {
        let Some(p) = self.options.ec else { return 0 };
        ec_padded_shard_len(self.size, p.k as u64)
    }

    /// Make sure the `m` parity entries exist (first EC commit creates
    /// them with the same fresh-SegId discipline as data segments).
    pub fn ensure_parity(&mut self, mut fresh_seg: impl FnMut() -> SegId) {
        let Some(p) = self.options.ec else { return };
        while self.parity.len() < p.m as usize {
            self.parity.push(SegEntry {
                seg: fresh_seg(),
                version: Version::INITIAL,
                len: 0,
            });
        }
    }

    /// The `rs.parity_shards()` parity shards of a file whose bytes are
    /// `views` and zeros everywhere else, each
    /// [`IndexSegment::ec_shard_len`] long. The code is linear, so every
    /// view is folded into the parity where the data shards hold it:
    /// [`IndexSegment::locate`]'s `seg_index` is the shard and
    /// `seg_offset` the offset in it. No image of the file or of its
    /// data shards is built.
    pub fn ec_parity(&self, rs: &ReedSolomon, views: &WriteViews) -> Result<Vec<Vec<u8>>, EcError> {
        let len = self.ec_shard_len() as usize;
        let mut parity: Vec<Vec<u8>> = (0..rs.parity_shards()).map(|_| vec![0; len]).collect();
        for (&at, bytes) in &views.0 {
            for e in self.locate(at, bytes.len() as u64) {
                let piece = &bytes[(e.file_offset - at) as usize..][..e.len as usize];
                rs.encode_acc(e.seg_index, piece, e.seg_offset as usize, &mut parity)?;
            }
        }
        Ok(parity)
    }

    fn ensure_segments(&mut self, end: u64, fresh_seg: &mut impl FnMut() -> SegId) {
        match self.options.organization {
            Organization::Striped { stripes, .. } => {
                while self.segments.len() < stripes as usize {
                    self.segments.push(SegEntry {
                        seg: fresh_seg(),
                        version: Version::INITIAL,
                        len: 0,
                    });
                }
            }
            Organization::Linear => {
                while self.linear_capacity() < end {
                    let i = self.segments.len() as u64;
                    let _cap = linear_segment_size(i);
                    self.segments.push(SegEntry {
                        seg: fresh_seg(),
                        version: Version::INITIAL,
                        len: 0,
                    });
                }
            }
            Organization::Hybrid { group_stripes } => {
                while self.hybrid_capacity(group_stripes) < end {
                    // Add one full group at a time.
                    for _ in 0..group_stripes {
                        self.segments.push(SegEntry {
                            seg: fresh_seg(),
                            version: Version::INITIAL,
                            len: 0,
                        });
                    }
                }
            }
        }
    }

    fn linear_capacity(&self) -> u64 {
        (0..self.segments.len() as u64).map(linear_segment_size).sum()
    }

    fn hybrid_capacity(&self, group_stripes: u32) -> u64 {
        let groups = self.segments.len() as u64 / group_stripes as u64;
        (0..groups)
            .map(|g| hybrid_segment_size(g, group_stripes as u64) * group_stripes as u64)
            .sum()
    }

    /// Map `[start, end)` of the file onto segment extents. When
    /// `for_write` is set, segments beyond their current length are fair
    /// game (marked `new_segment` when len == 0 and version INITIAL).
    fn map_range(&self, start: u64, end: u64, for_write: bool) -> Vec<Extent> {
        let mut out = Vec::new();
        match self.options.organization {
            Organization::Linear => {
                let mut seg_base = 0u64;
                for (i, entry) in self.segments.iter().enumerate() {
                    let cap = linear_segment_size(i as u64);
                    let seg_end = seg_base + cap;
                    let s = start.max(seg_base);
                    let e = end.min(seg_end);
                    if s < e {
                        out.push(Extent {
                            seg: entry.seg,
                            version: entry.version,
                            seg_index: i,
                            seg_offset: s - seg_base,
                            len: e - s,
                            file_offset: s,
                            new_segment: for_write && entry.version == Version::INITIAL,
                        });
                    }
                    seg_base = seg_end;
                    if seg_base >= end {
                        break;
                    }
                }
            }
            Organization::Striped { stripes, .. } => {
                self.map_striped(&mut out, start, end, 0, stripes as u64, 0, for_write);
            }
            Organization::Hybrid { group_stripes } => {
                let j = group_stripes as u64;
                let mut group_base = 0u64;
                let groups = self.segments.len() as u64 / j;
                for g in 0..groups {
                    let per_seg = hybrid_segment_size(g, j);
                    let group_cap = per_seg * j;
                    let group_end = group_base + group_cap;
                    let s = start.max(group_base);
                    let e = end.min(group_end);
                    if s < e {
                        self.map_striped(
                            &mut out,
                            s - group_base,
                            e - group_base,
                            (g * j) as usize,
                            j,
                            group_base,
                            for_write,
                        );
                    }
                    group_base = group_end;
                    if group_base >= end {
                        break;
                    }
                }
            }
        }
        out
    }

    /// Round-robin block mapping over `nstripes` segments starting at
    /// flat index `first`, for group-relative range `[start, end)` whose
    /// file-absolute base is `file_base`.
    #[allow(clippy::too_many_arguments)]
    fn map_striped(
        &self,
        out: &mut Vec<Extent>,
        start: u64,
        end: u64,
        first: usize,
        nstripes: u64,
        file_base: u64,
        for_write: bool,
    ) {
        let mut pos = start;
        while pos < end {
            let block = pos / STRIPE_UNIT;
            let within = pos % STRIPE_UNIT;
            let stripe = (block % nstripes) as usize;
            let stripe_block = block / nstripes;
            let take = (STRIPE_UNIT - within).min(end - pos);
            let entry = &self.segments[first + stripe];
            out.push(Extent {
                seg: entry.seg,
                version: entry.version,
                seg_index: first + stripe,
                seg_offset: stripe_block * STRIPE_UNIT + within,
                len: take,
                file_offset: file_base + pos,
                new_segment: for_write && entry.version == Version::INITIAL,
            });
            pos += take;
        }
    }
}

/// The bytes a write session put into a file: views of the callers'
/// payloads by file offset. Views never overlap — a later write trims
/// the ones it covers, so the last writer wins — and no byte is copied.
#[derive(Debug, Clone, Default)]
pub struct WriteViews(BTreeMap<u64, Bytes>);

impl WriteViews {
    /// Record `data` written at file offset `at`.
    pub fn put(&mut self, at: u64, data: Bytes) {
        if data.is_empty() {
            return;
        }
        let end = at + data.len() as u64;
        let before = self.0.range(..at).next_back();
        let first = before.filter(|(&s, v)| s + v.len() as u64 > at).map_or(at, |(&s, _)| s);
        let hit: Vec<u64> = self.0.range(first..end).map(|(&start, _)| start).collect();
        // Of a view the write reaches into, what lies outside it stays.
        for start in hit {
            let view = self.0.remove(&start).expect("view present");
            if start < at {
                self.0.insert(start, view.slice(..(at - start) as usize));
            }
            if start + view.len() as u64 > end {
                self.0.insert(end, view.slice((end - start) as usize..));
            }
        }
        self.0.insert(at, data);
    }

    /// Whether every byte of `[0, len)` was written.
    pub fn cover(&self, len: u64) -> bool {
        let mut views = self.0.range(..len);
        let end = views.try_fold(0, |end, (&at, v)| (at <= end).then_some(at + v.len() as u64));
        end.is_some_and(|end| end >= len)
    }
}

/// Padded per-shard length for a `size`-byte file striped over `k`
/// shards in [`STRIPE_UNIT`] blocks: the span of shard 0 (which always
/// holds the most blocks under round-robin), rounded up to whole
/// blocks. All shards of the code are padded to this width.
pub fn ec_padded_shard_len(size: u64, k: u64) -> u64 {
    if size == 0 || k == 0 {
        return 0;
    }
    let total_blocks = size.div_ceil(STRIPE_UNIT);
    total_blocks.div_ceil(k) * STRIPE_UNIT
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Error;

    fn fresh_gen() -> impl FnMut() -> SegId {
        let mut n = 0u64;
        move || {
            n += 1;
            SegId::derive(9, n, 0)
        }
    }

    fn opts(org: Organization) -> FileOptions {
        FileOptions {
            organization: org,
            ..FileOptions::default()
        }
    }

    #[test]
    fn linear_sizing_formula_matches_paper() {
        // min{512, 8^⌊i/8⌋} MB
        assert_eq!(linear_segment_size(0), MB);
        assert_eq!(linear_segment_size(7), MB);
        assert_eq!(linear_segment_size(8), 8 * MB);
        assert_eq!(linear_segment_size(15), 8 * MB);
        assert_eq!(linear_segment_size(16), 64 * MB);
        assert_eq!(linear_segment_size(24), 512 * MB);
        assert_eq!(linear_segment_size(100), 512 * MB);
    }

    #[test]
    fn hybrid_sizing_formula_matches_paper() {
        // min{512, 8^⌊i·j/8⌋} MB with j = 4
        assert_eq!(hybrid_segment_size(0, 4), MB);
        assert_eq!(hybrid_segment_size(1, 4), MB);
        assert_eq!(hybrid_segment_size(2, 4), 8 * MB);
        assert_eq!(hybrid_segment_size(4, 4), 64 * MB);
        assert_eq!(hybrid_segment_size(6, 4), 512 * MB);
        assert_eq!(hybrid_segment_size(99, 4), 512 * MB);
    }

    #[test]
    fn small_files_stay_attached() {
        let mut ix = IndexSegment::new(FileId(1), opts(Organization::Linear));
        let plan = ix.plan_write(0, ATTACH_MAX, fresh_gen());
        assert_eq!(plan, WritePlan::Attached);
        ix.apply_write(0, ATTACH_MAX);
        assert_eq!(ix.size, ATTACH_MAX);
        assert!(ix.is_attached);
        assert_eq!(ix.segment_count(), 0);
        assert!(ix.locate(0, 100).is_empty());
    }

    #[test]
    fn growth_past_attach_max_detaches() {
        let mut ix = IndexSegment::new(FileId(1), opts(Organization::Linear));
        assert_eq!(ix.plan_write(0, 1000, fresh_gen()), WritePlan::Attached);
        ix.apply_write(0, 1000);
        let plan = ix.plan_write(1000, ATTACH_MAX, fresh_gen());
        match plan {
            WritePlan::Extents {
                detach_bytes,
                extents,
            } => {
                assert_eq!(detach_bytes, 1000);
                // One extent covering [0, 1000+ATTACH_MAX) in segment 0.
                assert_eq!(extents.len(), 1);
                assert_eq!(extents[0].file_offset, 0);
                assert_eq!(extents[0].len, 1000 + ATTACH_MAX);
                assert!(extents[0].new_segment);
            }
            _ => panic!("expected detach"),
        }
        ix.apply_write(1000, ATTACH_MAX);
        assert!(!ix.is_attached);
        assert_eq!(ix.segment_count(), 1);
    }

    #[test]
    fn linear_write_spans_segment_boundary() {
        let mut ix = IndexSegment::new(FileId(1), opts(Organization::Linear));
        // Write 1.5 MB at offset 0.75 MB: [768K, 2304K) spans the three
        // 1 MB segments 0, 1 and 2.
        let plan = ix.plan_write(768 * 1024, 1536 * 1024, fresh_gen());
        let WritePlan::Extents { extents, .. } = plan else {
            panic!("expected extents");
        };
        assert_eq!(extents.len(), 3);
        assert_eq!(extents[0].seg_index, 0);
        assert_eq!(extents[0].seg_offset, 768 * 1024);
        assert_eq!(extents[0].len, 256 * 1024);
        assert_eq!(extents[1].seg_index, 1);
        assert_eq!(extents[1].seg_offset, 0);
        assert_eq!(extents[1].len, MB);
        assert_eq!(extents[2].seg_index, 2);
        assert_eq!(extents[2].len, 256 * 1024);
        ix.apply_write(768 * 1024, 1536 * 1024);
        assert_eq!(ix.size, 2304 * 1024);
        assert_eq!(ix.segments[0].len, MB);
        assert_eq!(ix.segments[1].len, MB);
        assert_eq!(ix.segments[2].len, 256 * 1024);
    }

    #[test]
    fn striped_round_robin_mapping() {
        let mut ix = IndexSegment::new(
            FileId(1),
            opts(Organization::Striped {
                stripes: 4,
                max_size: 16 * MB,
            }),
        );
        let plan = ix.plan_write(0, 4 * STRIPE_UNIT + 100, fresh_gen());
        let WritePlan::Extents { extents, .. } = plan else {
            panic!("expected extents");
        };
        // Stripes are created eagerly: all 4 segments exist.
        assert_eq!(ix.segment_count(), 4);
        // Blocks 0..4 round-robin, then 100 bytes into block 4 (stripe 0).
        assert_eq!(extents.len(), 5);
        assert_eq!(extents[0].seg_index, 0);
        assert_eq!(extents[1].seg_index, 1);
        assert_eq!(extents[2].seg_index, 2);
        assert_eq!(extents[3].seg_index, 3);
        assert_eq!(extents[4].seg_index, 0);
        assert_eq!(extents[4].seg_offset, STRIPE_UNIT);
        assert_eq!(extents[4].len, 100);
    }

    #[test]
    fn striped_mid_block_read() {
        let mut ix = IndexSegment::new(
            FileId(1),
            opts(Organization::Striped {
                stripes: 2,
                max_size: 4 * MB,
            }),
        );
        ix.plan_write(0, 4 * STRIPE_UNIT, fresh_gen());
        ix.apply_write(0, 4 * STRIPE_UNIT);
        for e in &mut ix.segments {
            e.version = Version(1);
        }
        // Read 10 bytes straddling the end of block 1 (stripe 1).
        let ext = ix.locate(2 * STRIPE_UNIT - 5, 10);
        assert_eq!(ext.len(), 2);
        assert_eq!(ext[0].seg_index, 1);
        assert_eq!(ext[0].seg_offset, STRIPE_UNIT - 5);
        assert_eq!(ext[0].len, 5);
        assert_eq!(ext[1].seg_index, 0);
        assert_eq!(ext[1].seg_offset, STRIPE_UNIT);
        assert_eq!(ext[1].len, 5);
    }

    #[test]
    fn hybrid_groups_concatenate() {
        let j = 2u32;
        let mut ix = IndexSegment::new(FileId(1), opts(Organization::Hybrid { group_stripes: j }));
        // Group 0: 2 segments × 1 MB = 2 MB. Write 3 MB: needs group 1.
        let plan = ix.plan_write(0, 3 * MB, fresh_gen());
        let WritePlan::Extents { extents, .. } = plan else {
            panic!("expected extents");
        };
        assert_eq!(ix.segment_count(), 4);
        // Group 1 segments are also 1 MB (8^⌊1·2/8⌋ = 8^0).
        let in_group1: u64 = extents
            .iter()
            .filter(|e| e.seg_index >= 2)
            .map(|e| e.len)
            .sum();
        assert_eq!(in_group1, MB);
        let total: u64 = extents.iter().map(|e| e.len).sum();
        assert_eq!(total, 3 * MB);
        // Every extent's file_offset is consistent and within bounds.
        for e in &extents {
            assert!(e.file_offset + e.len <= 3 * MB);
        }
    }

    #[test]
    fn locate_clamps_to_file_size() {
        let mut ix = IndexSegment::new(FileId(1), opts(Organization::Linear));
        ix.plan_write(0, 100 * 1024, fresh_gen());
        ix.apply_write(0, 100 * 1024);
        let ext = ix.locate(90 * 1024, 100 * 1024);
        let total: u64 = ext.iter().map(|e| e.len).sum();
        assert_eq!(total, 10 * 1024);
        assert!(ix.locate(200 * 1024, 10).is_empty());
    }

    #[test]
    fn set_segment_version_updates_entries() {
        let mut ix = IndexSegment::new(FileId(1), opts(Organization::Linear));
        let plan = ix.plan_write(0, 2 * MB, fresh_gen());
        let WritePlan::Extents { extents, .. } = plan else {
            panic!()
        };
        let target = extents[0].seg;
        ix.set_segment_version(target, Version(5));
        assert_eq!(ix.segments[0].version, Version(5));
        assert_eq!(ix.segments[1].version, Version::INITIAL);
    }

    #[test]
    fn offsets_partition_exactly() {
        // Property-style: any write plan's extents tile the request
        // exactly, with no overlap, across all three modes.
        let orgs = [
            Organization::Linear,
            Organization::Striped {
                stripes: 3,
                max_size: 64 * MB,
            },
            Organization::Hybrid { group_stripes: 3 },
        ];
        for org in orgs {
            let mut ix = IndexSegment::new(FileId(1), opts(org));
            let (off, len) = (123_456u64, 9 * MB + 777);
            let plan = ix.plan_write(off, len, fresh_gen());
            let WritePlan::Extents { extents, .. } = plan else {
                panic!()
            };
            let mut cursor = off;
            for e in &extents {
                assert_eq!(e.file_offset, cursor, "{org:?}");
                cursor += e.len;
            }
            assert_eq!(cursor, off + len, "{org:?}");
        }
        let _ = Error::NotFound; // silence unused import in cfg(test)
    }

    /// Random writes — overlapping, leaving holes, past the end, off a
    /// stripe boundary — into both `views` and a flat `image`.
    fn random_writes(rng: &mut rand::rngs::SmallRng, views: &mut WriteViews, image: &mut Vec<u8>) {
        use rand::Rng;
        for _ in 0..rng.gen_range(1..5) {
            let (at, len) = (
                rng.gen_range(0..600_000usize),
                rng.gen_range(0..300_000usize),
            );
            let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            if image.len() < at + len {
                image.resize(at + len, 0);
            }
            image[at..at + len].copy_from_slice(&data);
            views.put(at as u64, data.into());
        }
    }

    #[test]
    fn write_views_keep_the_last_writer_and_know_their_holes() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
        for _ in 0..50 {
            let (mut views, mut image) = (WriteViews::default(), Vec::new());
            random_writes(&mut rng, &mut views, &mut image);
            let mut flat = vec![0u8; image.len()];
            let mut written = vec![false; image.len()];
            let mut end = 0;
            for (&at, view) in &views.0 {
                let at = at as usize;
                assert!(at >= end, "views overlap");
                flat[at..at + view.len()].copy_from_slice(view);
                written[at..at + view.len()].fill(true);
                end = at + view.len();
            }
            assert_eq!(flat, image);
            let hole = written.iter().position(|&w| !w).unwrap_or(image.len()) as u64;
            assert!(views.cover(hole) && !views.cover(hole + 1));
        }
    }

    #[test]
    fn ec_shard_split_matches_striped_mapping() {
        // The parity folded from write views equals a flat oracle: the
        // written image split into k stripes by hand, then encoded.
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(9);
        for (k, m) in [(2u8, 1u8), (3, 2), (4, 2)] {
            for _ in 0..8 {
                let (mut views, mut image) = (WriteViews::default(), Vec::new());
                random_writes(&mut rng, &mut views, &mut image);
                let size = image.len() as u64;
                let mut ix =
                    IndexSegment::new(FileId(1), FileOptions::erasure_coded(k, m, 64 * MB));
                ix.plan_write(0, size, fresh_gen());
                ix.apply_write(0, size);
                let unit = STRIPE_UNIT as usize;
                let pad = ix.ec_shard_len() as usize;
                assert_eq!(pad, image.len().div_ceil(unit).div_ceil(k as usize) * unit);
                let mut shards = vec![vec![0u8; pad]; k as usize];
                for (block, bytes) in image.chunks(unit).enumerate() {
                    let at = block / k as usize * unit;
                    shards[block % k as usize][at..at + bytes.len()].copy_from_slice(bytes);
                }
                // The striped extent mapping puts every byte where the
                // split does.
                for e in ix.locate(0, size) {
                    let got = &shards[e.seg_index][e.seg_offset as usize..][..e.len as usize];
                    assert_eq!(got, &image[e.file_offset as usize..][..e.len as usize]);
                }
                let rs = ReedSolomon::new(k as usize, m as usize).unwrap();
                let want = rs.encode(&shards).unwrap();
                assert!(ix.ec_parity(&rs, &views).unwrap() == want, "EC({k},{m}), {size} bytes");
            }
        }
    }

    #[test]
    fn ec_padded_shard_len_formula() {
        assert_eq!(ec_padded_shard_len(0, 4), 0);
        assert_eq!(ec_padded_shard_len(1, 4), STRIPE_UNIT);
        assert_eq!(ec_padded_shard_len(4 * STRIPE_UNIT, 4), STRIPE_UNIT);
        assert_eq!(ec_padded_shard_len(4 * STRIPE_UNIT + 1, 4), 2 * STRIPE_UNIT);
        assert_eq!(ec_padded_shard_len(9 * STRIPE_UNIT, 4), 3 * STRIPE_UNIT);
    }

    #[test]
    fn wire_size_tracks_contents() {
        let mut ix = IndexSegment::new(FileId(1), opts(Organization::Linear));
        let empty = ix.wire_size();
        ix.plan_write(0, 10 * MB, fresh_gen());
        assert!(ix.wire_size() > empty);
    }
}
