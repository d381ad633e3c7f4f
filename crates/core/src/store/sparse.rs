//! Sparse byte buffers: the physical storage behind a version's delta
//! when the segment carries real bytes. Only written extents are held,
//! so a 4 MB write at offset 400 MB costs 4 MB, not 404 MB.
//!
//! A delta has two lives (§3.5). While its shadow is open it changes
//! with every write: [`SparseBuffer`] keeps each extent in a `Vec<u8>`
//! it can trim, extend and coalesce. At commit the version becomes
//! immutable, and [`SparseBuffer::freeze`] *moves* every extent into a
//! shared [`Bytes`]: a [`FrozenBuffer`] has no mutating method at all,
//! so a read can hand out a view of an extent ([`FrozenBuffer::view`])
//! instead of a copy, and the view stays valid whatever happens to the
//! store afterwards.

use std::collections::BTreeMap;

use bytes::Bytes;

/// Non-overlapping written extents, keyed by start offset. `C` is what
/// holds one extent's bytes and decides what the buffer can do: see
/// [`SparseBuffer`] and [`FrozenBuffer`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Sparse<C> {
    chunks: BTreeMap<u64, C>,
}

/// The mutable form: a shadow's delta.
pub type SparseBuffer = Sparse<Vec<u8>>;

/// The immutable form: a committed version's delta.
pub type FrozenBuffer = Sparse<Bytes>;

impl<C: AsRef<[u8]>> Sparse<C> {
    /// Append exactly the `len` bytes at `[offset, offset+len)` to
    /// `out`, holes as zeros. Appending in offset order is what lets a
    /// caller gather a range into a buffer it never zero-filled.
    pub fn append_to(&self, offset: u64, len: u64, out: &mut Vec<u8>) {
        let end = offset + len;
        let mut pos = offset;
        // Possible partial overlap from a chunk starting before `offset`.
        let before = self.chunks.range(..offset).next_back();
        for (&cs, chunk) in before.into_iter().chain(self.chunks.range(offset..end)) {
            let chunk = chunk.as_ref();
            let s = cs.max(pos);
            let e = (cs + chunk.len() as u64).min(end);
            if s < e {
                out.resize(out.len() + (s - pos) as usize, 0);
                out.extend_from_slice(&chunk[(s - cs) as usize..(e - cs) as usize]);
                pos = e;
            }
        }
        out.resize(out.len() + (end - pos) as usize, 0);
    }

    /// Bytes physically stored.
    pub fn stored_bytes(&self) -> u64 {
        self.chunks.values().map(|c| c.as_ref().len() as u64).sum()
    }

    /// Number of distinct extents (diagnostics).
    pub fn extent_count(&self) -> usize {
        self.chunks.len()
    }
}

impl FrozenBuffer {
    /// A buffer whose one extent is `data` at offset 0 (a replica image
    /// as it arrived: nothing is copied).
    pub fn whole(data: Bytes) -> FrozenBuffer {
        let mut chunks = BTreeMap::new();
        if !data.is_empty() {
            chunks.insert(0, data);
        }
        Sparse { chunks }
    }

    /// `[offset, offset+len)` as a view sharing the extent's allocation,
    /// when a single extent holds the whole range.
    pub fn view(&self, offset: u64, len: u64) -> Option<Bytes> {
        let (&cs, chunk) = self.chunks.range(..=offset).next_back()?;
        let s = (offset - cs) as usize;
        let e = s.checked_add(len as usize)?;
        (e <= chunk.len()).then(|| chunk.slice(s..e))
    }

    /// A mutable copy. Views handed out earlier keep the frozen bytes.
    pub fn thaw(&self) -> SparseBuffer {
        Sparse { chunks: self.chunks.iter().map(|(&k, c)| (k, c.to_vec())).collect() }
    }
}

impl SparseBuffer {
    /// Empty buffer.
    pub fn new() -> SparseBuffer {
        SparseBuffer::default()
    }

    /// Make the buffer immutable. Every extent moves into a shared
    /// [`Bytes`] — an allocation hand-over, not a copy.
    pub fn freeze(self) -> FrozenBuffer {
        Sparse { chunks: self.chunks.into_iter().map(|(k, c)| (k, Bytes::from(c))).collect() }
    }

    /// Write `data` at `offset`, overwriting any overlapped bytes.
    pub fn write(&mut self, offset: u64, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        let end = offset + data.len() as u64;
        // Trim a chunk that starts before `offset` and overlaps it.
        if let Some((&cs, _)) = self.chunks.range(..offset).next_back() {
            let clen = self.chunks[&cs].len() as u64;
            let ce = cs + clen;
            if ce > offset {
                let keep_front = (offset - cs) as usize;
                let tail: Vec<u8> = if ce > end {
                    self.chunks[&cs][(end - cs) as usize..].to_vec()
                } else {
                    Vec::new()
                };
                let chunk = self.chunks.get_mut(&cs).expect("chunk present");
                chunk.truncate(keep_front);
                if !tail.is_empty() {
                    self.chunks.insert(end, tail);
                }
            }
        }
        // Handle chunks starting within [offset, end).
        let inside: Vec<u64> = self.chunks.range(offset..end).map(|(&k, _)| k).collect();
        for cs in inside {
            let chunk = self.chunks.remove(&cs).expect("chunk present");
            let ce = cs + chunk.len() as u64;
            if ce > end {
                // Keep the tail beyond the new write.
                self.chunks
                    .insert(end, chunk[(end - cs) as usize..].to_vec());
            }
        }
        self.chunks.insert(offset, data.to_vec());
        self.coalesce_around(offset);
    }

    /// Drop bytes at or beyond `len` (truncate).
    pub fn truncate(&mut self, len: u64) {
        if let Some((&cs, _)) = self.chunks.range(..len).next_back() {
            let clen = self.chunks[&cs].len() as u64;
            if cs + clen > len {
                self.chunks
                    .get_mut(&cs)
                    .expect("chunk present")
                    .truncate((len - cs) as usize);
            }
        }
        let beyond: Vec<u64> = self.chunks.range(len..).map(|(&k, _)| k).collect();
        for k in beyond {
            self.chunks.remove(&k);
        }
        self.chunks.retain(|_, c| !c.is_empty());
    }

    /// Merge physically adjacent chunks touching the chunk at `at`,
    /// bounding fragmentation under append-heavy workloads.
    fn coalesce_around(&mut self, at: u64) {
        // Merge with predecessor if contiguous.
        let mut start = at;
        if let Some((&ps, _)) = self.chunks.range(..at).next_back() {
            if ps + self.chunks[&ps].len() as u64 == at {
                let cur = self.chunks.remove(&at).expect("chunk present");
                self.chunks
                    .get_mut(&ps)
                    .expect("chunk present")
                    .extend_from_slice(&cur);
                start = ps;
            }
        }
        // Merge with successor if contiguous.
        let end = start + self.chunks[&start].len() as u64;
        if let Some(next) = self.chunks.remove(&end) {
            self.chunks
                .get_mut(&start)
                .expect("chunk present")
                .extend_from_slice(&next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read<C: AsRef<[u8]>>(buf: &Sparse<C>, offset: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::new();
        buf.append_to(offset, len as u64, &mut out);
        assert_eq!(out.len(), len);
        out
    }

    #[test]
    fn write_then_read_back() {
        let mut b = SparseBuffer::new();
        b.write(10, b"hello");
        assert_eq!(read(&b, 10, 5), b"hello");
        assert_eq!(read(&b, 8, 9), b"\0\0hello\0\0");
    }

    #[test]
    fn overwrite_middle() {
        let mut b = SparseBuffer::new();
        b.write(0, b"aaaaaaaaaa");
        b.write(3, b"BBB");
        assert_eq!(read(&b, 0, 10), b"aaaBBBaaaa");
    }

    #[test]
    fn overwrite_spanning_chunks() {
        let mut b = SparseBuffer::new();
        b.write(0, b"aaaa");
        b.write(8, b"cccc");
        b.write(2, b"BBBBBBBB");
        assert_eq!(read(&b, 0, 12), b"aaBBBBBBBBcc");
    }

    #[test]
    fn adjacent_appends_coalesce() {
        let mut b = SparseBuffer::new();
        b.write(0, b"aa");
        b.write(2, b"bb");
        b.write(4, b"cc");
        assert_eq!(b.extent_count(), 1);
        assert_eq!(read(&b, 0, 6), b"aabbcc");
    }

    #[test]
    fn stored_bytes_counts_physical() {
        let mut b = SparseBuffer::new();
        b.write(0, b"aaaa");
        b.write(100, b"bbbb");
        assert_eq!(b.stored_bytes(), 8);
        b.write(2, b"XXXX"); // overlaps 2 bytes, extends 2
        assert_eq!(b.stored_bytes(), 10);
    }

    #[test]
    fn truncate_trims_and_drops() {
        let mut b = SparseBuffer::new();
        b.write(0, b"aaaa");
        b.write(10, b"bbbb");
        b.truncate(12);
        assert_eq!(read(&b, 10, 4), b"bb\0\0");
        b.truncate(2);
        assert_eq!(b.stored_bytes(), 2);
        b.truncate(0);
        assert_eq!(b.stored_bytes(), 0);
    }

    #[test]
    fn empty_write_is_noop() {
        let mut b = SparseBuffer::new();
        b.write(5, b"");
        assert_eq!(b.stored_bytes(), 0);
    }

    /// Reference-model check against a flat Vec<u8>.
    #[test]
    fn matches_flat_model() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(11);
        for _ in 0..30 {
            let mut b = SparseBuffer::new();
            let mut model = vec![0u8; 256];
            for _ in 0..60 {
                let off = rng.gen_range(0..200u64);
                let len = rng.gen_range(0..40usize);
                let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
                b.write(off, &data);
                model[off as usize..off as usize + len].copy_from_slice(&data);
            }
            assert_eq!(read(&b, 0, 256), model);
            // Freezing moves the extents; reads and accounting agree,
            // and a thawed copy is the same buffer again.
            let (stored, extents) = (b.stored_bytes(), b.extent_count());
            let frozen = b.clone().freeze();
            assert_eq!(read(&frozen, 0, 256), model);
            assert_eq!((frozen.stored_bytes(), frozen.extent_count()), (stored, extents));
            assert_eq!(frozen.thaw(), b);
        }
    }

    #[test]
    fn append_to_appends_and_zero_fills_holes() {
        let mut b = SparseBuffer::new();
        b.write(2, b"ab");
        b.write(6, b"cd");
        let mut out = b"..".to_vec();
        b.append_to(0, 10, &mut out);
        assert_eq!(out, b"..\0\0ab\0\0cd\0\0");
        b.append_to(3, 4, &mut out);
        assert_eq!(&out[12..], b"b\0\0c");
    }

    #[test]
    fn freeze_moves_extents_and_views_share_them() {
        let mut b = SparseBuffer::new();
        b.write(100, &[7u8; 64]);
        let ptr = b.chunks[&100].as_ptr();
        let frozen = b.freeze();
        let whole = frozen.view(100, 64).expect("one extent holds the range");
        assert_eq!(whole.as_ptr(), ptr, "freeze must not copy");
        let part = frozen.view(110, 10).expect("inside the extent");
        assert_eq!(part.as_ptr(), ptr.wrapping_add(10));
        assert_eq!(part, [7u8; 10]);
        // Ranges that leave the extent, or start in a hole, have no view.
        assert!(frozen.view(99, 2).is_none());
        assert!(frozen.view(160, 8).is_none());
        assert!(frozen.view(0, 1).is_none());
        assert!(frozen.view(500, 1).is_none());
    }

    #[test]
    fn whole_wraps_an_image_without_copying() {
        let data = Bytes::from(vec![1u8, 2, 3]);
        let frozen = FrozenBuffer::whole(data.clone());
        assert_eq!(frozen.view(0, 3).unwrap().as_ptr(), data.as_ptr());
        assert_eq!(frozen.stored_bytes(), 3);
        assert_eq!(FrozenBuffer::whole(Bytes::new()).extent_count(), 0);
    }
}
