//! The access log (§3.7.2): who read this node's locality-driven
//! segments, and how much. The owner writes it on every read it serves,
//! the mover reads it to pick a locality migration. It is a signal, not
//! stored state: the router keeps it beside the store, so a simulated
//! crash keeps it too, and a restarted daemon starts it empty.

use std::collections::{HashMap, VecDeque};

use crate::types::{PlacementPolicy, SegId};

/// "We also limit the memory consumption by only keeping the latest one
/// thousand accesses for the most recently accessed one thousand
/// segments." (§3.7.2)
pub(crate) const ACCESS_HISTORY_CAP: usize = 1000;
/// Cap on how many segments keep an access history at once.
pub(crate) const TRACKED_SEGMENTS_CAP: usize = 1000;

/// Recent reads per locality-driven segment, bounded by both caps.
#[derive(Debug, Default)]
pub(crate) struct AccessLog {
    /// Per segment: the read that touched it last, on `reads`' count, and
    /// `(machine, bytes)` per read, newest at the back.
    segs: HashMap<SegId, (u64, VecDeque<(u32, u64)>)>,
    /// Reads logged so far.
    reads: u64,
}

impl AccessLog {
    /// Log a read of `bytes` of `seg` by `machine`; only a
    /// locality-driven segment keeps a history. Past
    /// [`TRACKED_SEGMENTS_CAP`], a segment new to the log displaces the
    /// one read longest ago.
    pub(crate) fn record(&mut self, seg: SegId, policy: PlacementPolicy, machine: u32, bytes: u64) {
        if !matches!(policy, PlacementPolicy::LocalityDriven { .. }) {
            return;
        }
        self.reads += 1;
        if self.segs.len() >= TRACKED_SEGMENTS_CAP && !self.segs.contains_key(&seg) {
            let coldest = self.segs.iter().min_by_key(|(_, (last, _))| *last).map(|(&s, _)| s);
            self.segs.remove(&coldest.expect("the log is full"));
        }
        let (last, reads) = self.segs.entry(seg).or_default();
        *last = self.reads;
        reads.push_back((machine, bytes));
        if reads.len() > ACCESS_HISTORY_CAP {
            reads.pop_front();
        }
    }

    /// The segment left this node: its history goes with it.
    pub(crate) fn forget(&mut self, seg: SegId) {
        self.segs.remove(&seg);
    }

    /// Traffic share per machine over the logged reads:
    /// `(machine, fraction_of_bytes)` sorted descending.
    pub(crate) fn traffic_shares(&self, seg: SegId) -> Vec<(u32, f64)> {
        let Some((_, reads)) = self.segs.get(&seg) else {
            return Vec::new();
        };
        let total: u64 = reads.iter().map(|(_, b)| *b).sum();
        if total == 0 {
            return Vec::new();
        }
        let mut per: HashMap<u32, u64> = HashMap::new();
        for &(m, b) in reads {
            *per.entry(m).or_default() += b;
        }
        let mut out: Vec<(u32, f64)> =
            per.into_iter().map(|(m, b)| (m, b as f64 / total as f64)).collect();
        // Deterministic order: fraction descending, machine id tiebreak.
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite fractions").then(a.0.cmp(&b.0)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOCAL: PlacementPolicy = PlacementPolicy::LocalityDriven { threshold: 0.6 };

    #[test]
    fn access_history_is_bounded() {
        let mut log = AccessLog::default();
        let s = SegId(1);
        for i in 0..(ACCESS_HISTORY_CAP as u64 + 500) {
            log.record(s, LOCAL, (i % 3) as u32, 1);
        }
        let total: f64 = log.traffic_shares(s).iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(log.segs[&s].1.len(), ACCESS_HISTORY_CAP);
    }

    #[test]
    fn past_the_segment_cap_the_segment_read_longest_ago_is_dropped() {
        let mut log = AccessLog::default();
        let cap = TRACKED_SEGMENTS_CAP as u128;
        for s in 0..cap {
            log.record(SegId(s), LOCAL, 1, 10);
        }
        // Segment 0 is read again, so segment 1 is now the coldest.
        log.record(SegId(0), LOCAL, 2, 10);
        log.record(SegId(cap), LOCAL, 1, 10);
        assert_eq!(log.segs.len(), TRACKED_SEGMENTS_CAP);
        assert!(log.traffic_shares(SegId(1)).is_empty(), "the coldest segment kept its history");
        assert_eq!(log.traffic_shares(SegId(0)), vec![(1, 0.5), (2, 0.5)]);
        assert_eq!(log.traffic_shares(SegId(cap)), vec![(1, 1.0)]);
        // A segment already tracked displaces nobody.
        log.record(SegId(2), LOCAL, 1, 10);
        assert_eq!(log.segs.len(), TRACKED_SEGMENTS_CAP);
        assert!(!log.traffic_shares(SegId(3)).is_empty());
    }
}
