//! Interval map used by the copy-on-write shadow machinery (§3.5).
//!
//! "We use an index structure to maintain the mapping from region ranges
//! to physical segments where the valid data for the shadow copy can be
//! located." — [`RegionIndex`] is that structure: it maps every byte of a
//! segment's address space to the *source* holding the byte (an earlier
//! committed version, the shadow itself, or a hole reading as zeros).

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::ops::Range;

/// Maps `[0, len)` to `Option<S>` sources. `None` is a hole (zero-filled,
/// e.g. from truncating a blank shadow up to the base segment's size
/// before any write lands).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionIndex<S: Copy + Eq + Debug> {
    len: u64,
    /// start → (end, source); entries tile `[0, len)` exactly.
    map: BTreeMap<u64, (u64, Option<S>)>,
}

impl<S: Copy + Eq + Debug> RegionIndex<S> {
    /// A region index of `len` bytes, all mapped to `source`.
    pub fn full(len: u64, source: Option<S>) -> RegionIndex<S> {
        let mut map = BTreeMap::new();
        if len > 0 {
            map.insert(0, (len, source));
        }
        RegionIndex { len, map }
    }

    /// Current address-space length.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the address space is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Point every byte of `[start, end)` at `source`, splitting whatever
    /// regions it overlaps. Extends the address space if `end > len`
    /// (appends): the gap `[len, start)`, if any, becomes a hole.
    pub fn overlay(&mut self, start: u64, end: u64, source: Option<S>) {
        if start >= end {
            return;
        }
        if end > self.len {
            let old = self.len;
            self.len = end;
            if start > old {
                self.map.insert(old, (start, None));
            }
        }
        // Split the region containing `start`.
        if let Some((&ks, &(ke, kv))) = self.map.range(..=start).next_back() {
            if ks < start && ke > start {
                self.map.insert(ks, (start, kv));
                self.map.insert(start, (ke, kv));
            }
        }
        // Split the region containing `end`.
        if let Some((&ks, &(ke, kv))) = self.map.range(..end).next_back() {
            if ks < end && ke > end {
                self.map.insert(ks, (end, kv));
                self.map.insert(end, (ke, kv));
            }
        }
        // Drop every region now fully inside [start, end) and insert.
        let covered: Vec<u64> = self.map.range(start..end).map(|(&k, _)| k).collect();
        for k in covered {
            self.map.remove(&k);
        }
        self.map.insert(start, (end, source));
    }

    /// The regions covering `[start, end)` (clamped to the address
    /// space), in offset order.
    pub fn resolve(&self, start: u64, end: u64) -> Vec<(Range<u64>, Option<S>)> {
        let end = end.min(self.len);
        if start >= end {
            return Vec::new();
        }
        let mut out = Vec::new();
        // Find the region containing `start` (there is always one, since
        // the map tiles [0, len) and start < len).
        let first = self
            .map
            .range(..=start)
            .next_back()
            .map(|(&k, _)| k)
            .expect("region index must tile its address space");
        for (&ks, &(ke, kv)) in self.map.range(first..end) {
            let s = ks.max(start);
            let e = ke.min(end);
            if s < e {
                out.push((s..e, kv));
            }
        }
        out
    }

    /// Shrink or grow the address space. Growth adds a hole; shrinkage
    /// trims or drops regions beyond the new length.
    pub fn set_len(&mut self, new_len: u64) {
        use std::cmp::Ordering::*;
        match new_len.cmp(&self.len) {
            Equal => {}
            Greater => {
                self.map.insert(self.len, (new_len, None));
                self.len = new_len;
            }
            Less => {
                // Trim the region containing new_len, drop later ones.
                if let Some((&ks, &(ke, kv))) = self.map.range(..=new_len).next_back() {
                    if ks < new_len && ke > new_len {
                        self.map.insert(ks, (new_len, kv));
                    }
                }
                let beyond: Vec<u64> =
                    self.map.range(new_len..).map(|(&k, _)| k).collect();
                for k in beyond {
                    self.map.remove(&k);
                }
                self.len = new_len;
            }
        }
    }

    /// Transform every source (e.g. turning shadow-self markers into the
    /// newly assigned committed version at commit time).
    pub fn map_sources<T: Copy + Eq + Debug>(&self, f: impl Fn(S) -> T) -> RegionIndex<T> {
        RegionIndex {
            len: self.len,
            map: self
                .map
                .iter()
                .map(|(&k, &(e, v))| (k, (e, v.map(&f))))
                .collect(),
        }
    }

    /// Total bytes whose source satisfies `pred`.
    pub fn bytes_matching(&self, pred: impl Fn(Option<S>) -> bool) -> u64 {
        self.map
            .iter()
            .filter(|(_, &(_, v))| pred(v))
            .map(|(&k, &(e, _))| e - k)
            .sum()
    }

    /// The distinct non-hole sources referenced anywhere in the index.
    pub fn sources(&self) -> Vec<S> {
        let mut out: Vec<S> = Vec::new();
        for &(_, v) in self.map.values() {
            if let Some(s) = v {
                if !out.contains(&s) {
                    out.push(s);
                }
            }
        }
        out
    }

    #[cfg(test)]
    fn check_invariants(&self) {
        let mut expect = 0;
        for (&k, &(e, _)) in &self.map {
            assert_eq!(k, expect, "regions must tile without gaps");
            assert!(e > k, "regions must be non-empty");
            expect = e;
        }
        assert_eq!(expect, self.len, "regions must cover the full length");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Ix = RegionIndex<u32>;

    #[test]
    fn full_index_resolves_whole_range() {
        let ix = Ix::full(100, Some(1));
        assert_eq!(ix.resolve(0, 100), vec![(0..100, Some(1))]);
        assert_eq!(ix.resolve(10, 20), vec![(10..20, Some(1))]);
    }

    #[test]
    fn overlay_splits_middle() {
        let mut ix = Ix::full(100, Some(1));
        ix.overlay(30, 60, Some(2));
        ix.check_invariants();
        assert_eq!(
            ix.resolve(0, 100),
            vec![(0..30, Some(1)), (30..60, Some(2)), (60..100, Some(1))]
        );
    }

    #[test]
    fn overlay_at_edges() {
        let mut ix = Ix::full(100, Some(1));
        ix.overlay(0, 10, Some(2));
        ix.overlay(90, 100, Some(3));
        ix.check_invariants();
        assert_eq!(
            ix.resolve(0, 100),
            vec![(0..10, Some(2)), (10..90, Some(1)), (90..100, Some(3))]
        );
    }

    #[test]
    fn overlay_swallows_covered_regions() {
        let mut ix = Ix::full(100, Some(1));
        ix.overlay(10, 20, Some(2));
        ix.overlay(30, 40, Some(3));
        ix.overlay(5, 95, Some(4));
        ix.check_invariants();
        assert_eq!(
            ix.resolve(0, 100),
            vec![(0..5, Some(1)), (5..95, Some(4)), (95..100, Some(1))]
        );
    }

    #[test]
    fn overlay_extends_for_append() {
        let mut ix = Ix::full(10, Some(1));
        ix.overlay(10, 25, Some(2));
        ix.check_invariants();
        assert_eq!(ix.len(), 25);
        assert_eq!(
            ix.resolve(0, 25),
            vec![(0..10, Some(1)), (10..25, Some(2))]
        );
    }

    #[test]
    fn overlay_past_end_creates_hole_gap() {
        let mut ix = Ix::full(10, Some(1));
        ix.overlay(20, 30, Some(2));
        ix.check_invariants();
        assert_eq!(
            ix.resolve(0, 30),
            vec![(0..10, Some(1)), (10..20, None), (20..30, Some(2))]
        );
    }

    #[test]
    fn empty_overlay_is_noop() {
        let mut ix = Ix::full(10, Some(1));
        ix.overlay(5, 5, Some(2));
        ix.check_invariants();
        assert_eq!(ix.resolve(0, 10), vec![(0..10, Some(1))]);
    }

    #[test]
    fn resolve_clamps_to_length() {
        let ix = Ix::full(10, Some(1));
        assert_eq!(ix.resolve(5, 100), vec![(5..10, Some(1))]);
        assert!(ix.resolve(10, 20).is_empty());
        assert!(ix.resolve(50, 60).is_empty());
    }

    #[test]
    fn set_len_grow_and_shrink() {
        let mut ix = Ix::full(10, Some(1));
        ix.set_len(20);
        ix.check_invariants();
        assert_eq!(ix.resolve(0, 20), vec![(0..10, Some(1)), (10..20, None)]);
        ix.overlay(12, 18, Some(2));
        ix.set_len(15);
        ix.check_invariants();
        assert_eq!(
            ix.resolve(0, 15),
            vec![(0..10, Some(1)), (10..12, None), (12..15, Some(2))]
        );
        ix.set_len(0);
        ix.check_invariants();
        assert!(ix.is_empty());
    }

    #[test]
    fn map_sources_transforms() {
        let mut ix = Ix::full(10, Some(1));
        ix.overlay(3, 6, Some(2));
        let mapped = ix.map_sources(|v| v * 10);
        assert_eq!(
            mapped.resolve(0, 10),
            vec![(0..3, Some(10)), (3..6, Some(20)), (6..10, Some(10))]
        );
    }

    #[test]
    fn bytes_matching_and_sources() {
        let mut ix = Ix::full(100, Some(1));
        ix.overlay(20, 50, Some(2));
        assert_eq!(ix.bytes_matching(|v| v == Some(2)), 30);
        assert_eq!(ix.bytes_matching(|v| v == Some(1)), 70);
        let mut srcs = ix.sources();
        srcs.sort();
        assert_eq!(srcs, vec![1, 2]);
    }

    #[test]
    fn zero_length_index() {
        let ix = Ix::full(0, Some(1));
        assert!(ix.is_empty());
        assert!(ix.resolve(0, 10).is_empty());
    }

    /// Reference-model check: apply random overlays to both the index and
    /// a plain byte-per-slot array; resolve() must agree everywhere.
    #[test]
    fn matches_naive_model_on_random_ops() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        for _ in 0..50 {
            let len = rng.gen_range(1u64..200);
            let mut ix = Ix::full(len, None);
            let mut model: Vec<Option<u32>> = vec![None; len as usize];
            for step in 0..40u32 {
                let a = rng.gen_range(0..=len);
                let b = rng.gen_range(0..=len);
                let (s, e) = (a.min(b), a.max(b));
                ix.overlay(s, e, Some(step));
                for slot in &mut model[s as usize..e as usize] {
                    *slot = Some(step);
                }
                ix.check_invariants();
            }
            for (range, src) in ix.resolve(0, len) {
                for off in range {
                    assert_eq!(model[off as usize], src, "mismatch at {off}");
                }
            }
        }
    }
}
