//! The soft-state location table (§3.4.1) kept by every provider in its
//! role as *home host*: SegID → the owners storing the segment and the
//! version each one holds.
//!
//! Entries are refreshed by the four event types of §3.4.1 (periodic
//! content refresh, node join, node departure, segment create/delete) and
//! garbage entries — left behind when a newly joined provider takes over
//! as home — are purged by age, since valid entries keep being refreshed
//! while garbage never is.

use std::collections::BTreeMap;

use sorrento_sim::{Dur, NodeId, SimTime};

use crate::types::{SegId, Version};

/// What the home host tracks per owner of a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OwnerInfo {
    /// Latest version this owner reported holding.
    pub version: Version,
    /// When this owner last refreshed.
    pub refreshed: SimTime,
}

/// One location-table entry.
#[derive(Debug, Clone, Default)]
pub struct LocEntry {
    /// Owners and the versions they hold.
    pub owners: BTreeMap<NodeId, OwnerInfo>,
    /// Desired replication degree, as reported by owners.
    pub replication: u32,
    /// Stored size in bytes (largest reported; transfer budgeting).
    pub bytes: u64,
}

impl LocEntry {
    /// Highest version any owner holds.
    pub fn latest_version(&self) -> Option<Version> {
        self.owners.values().map(|o| o.version).max()
    }

    /// Owners holding the latest version.
    pub fn up_to_date_owners(&self) -> Vec<NodeId> {
        let Some(latest) = self.latest_version() else {
            return Vec::new();
        };
        self.owners
            .iter()
            .filter(|(_, o)| o.version == latest)
            .map(|(&id, _)| id)
            .collect()
    }

    /// Owners holding an older version than the latest.
    pub fn stale_owners(&self) -> Vec<NodeId> {
        let Some(latest) = self.latest_version() else {
            return Vec::new();
        };
        self.owners
            .iter()
            .filter(|(_, o)| o.version < latest)
            .map(|(&id, _)| id)
            .collect()
    }
}

/// The location table of one provider (in its home-host role).
/// Ordered so iteration (repair scans, refresh batches) is deterministic.
#[derive(Debug, Default)]
pub struct LocationTable {
    entries: BTreeMap<SegId, LocEntry>,
}

impl LocationTable {
    /// Empty table.
    pub fn new() -> LocationTable {
        LocationTable::default()
    }

    /// Record that `owner` holds `seg` at `version` (segment-creation
    /// fast path and refresh path). Updates the entry's refresh time.
    pub fn upsert(
        &mut self,
        seg: SegId,
        owner: NodeId,
        version: Version,
        replication: u32,
        bytes: u64,
        now: SimTime,
    ) -> &LocEntry {
        let entry = self.entries.entry(seg).or_default();
        entry.replication = entry.replication.max(replication);
        entry.bytes = entry.bytes.max(bytes);
        entry.owners.insert(
            owner,
            OwnerInfo {
                version,
                refreshed: now,
            },
        );
        entry
    }

    /// Remove one owner of a segment (deletion fast path). Drops the
    /// entry when the last owner disappears. Returns whether the entry is
    /// now gone.
    pub fn remove_owner(&mut self, seg: SegId, owner: NodeId) -> bool {
        if let Some(entry) = self.entries.get_mut(&seg) {
            entry.owners.remove(&owner);
            if entry.owners.is_empty() {
                self.entries.remove(&seg);
                return true;
            }
            return false;
        }
        true
    }

    /// Node-departure event: remove `provider` from every entry, and
    /// report the segments it owned (the home host will want to check
    /// their replication degree).
    pub fn remove_provider(&mut self, provider: NodeId) -> Vec<SegId> {
        let mut affected = Vec::new();
        self.entries.retain(|&seg, entry| {
            if entry.owners.remove(&provider).is_some() {
                affected.push(seg);
            }
            !entry.owners.is_empty()
        });
        affected.sort();
        affected
    }

    /// Purge entries not refreshed within `max_age` ("garbage entries
    /// will never be refreshed, the latter can be identified based on
    /// their ages and eventually be purged"). Returns how many entries
    /// were dropped.
    pub fn purge_stale(&mut self, now: SimTime, max_age: Dur) -> usize {
        let before = self.entries.len();
        self.entries.retain(|_, entry| {
            entry
                .owners
                .values()
                .any(|o| now.since(o.refreshed) <= max_age)
        });
        before - self.entries.len()
    }

    /// Look up a segment's owners.
    pub fn lookup(&self, seg: SegId) -> Option<&LocEntry> {
        self.entries.get(&seg)
    }

    /// Number of tracked segments.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate all entries (for repair scans).
    pub fn iter(&self) -> impl Iterator<Item = (SegId, &LocEntry)> {
        self.entries.iter().map(|(&s, e)| (s, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + Dur::secs(s)
    }
    fn node(i: usize) -> NodeId {
        NodeId::from_index(i)
    }
    fn seg(n: u64) -> SegId {
        SegId::derive(0, n, 0)
    }

    #[test]
    fn upsert_and_lookup() {
        let mut lt = LocationTable::new();
        lt.upsert(seg(1), node(1), Version(1), 2, 100, t(0));
        lt.upsert(seg(1), node(2), Version(1), 2, 100, t(0));
        let e = lt.lookup(seg(1)).unwrap();
        assert_eq!(e.owners.len(), 2);
        assert_eq!(e.replication, 2);
        assert_eq!(e.latest_version(), Some(Version(1)));
        assert_eq!(e.stale_owners(), Vec::<NodeId>::new());
    }

    #[test]
    fn version_discrepancy_detection() {
        let mut lt = LocationTable::new();
        lt.upsert(seg(1), node(1), Version(2), 2, 100, t(1));
        lt.upsert(seg(1), node(2), Version(1), 2, 100, t(1));
        let e = lt.lookup(seg(1)).unwrap();
        assert_eq!(e.latest_version(), Some(Version(2)));
        assert_eq!(e.up_to_date_owners(), vec![node(1)]);
        assert_eq!(e.stale_owners(), vec![node(2)]);
    }

    #[test]
    fn remove_owner_drops_empty_entries() {
        let mut lt = LocationTable::new();
        lt.upsert(seg(1), node(1), Version(1), 1, 100, t(0));
        lt.upsert(seg(1), node(2), Version(1), 1, 100, t(0));
        assert!(!lt.remove_owner(seg(1), node(1)));
        assert!(lt.remove_owner(seg(1), node(2)));
        assert!(lt.lookup(seg(1)).is_none());
        // Removing from a missing entry reports gone.
        assert!(lt.remove_owner(seg(9), node(1)));
    }

    #[test]
    fn remove_provider_reports_affected_segments() {
        let mut lt = LocationTable::new();
        lt.upsert(seg(1), node(1), Version(1), 2, 100, t(0));
        lt.upsert(seg(1), node(2), Version(1), 2, 100, t(0));
        lt.upsert(seg(2), node(1), Version(1), 2, 100, t(0));
        lt.upsert(seg(3), node(3), Version(1), 2, 100, t(0));
        let affected = lt.remove_provider(node(1));
        assert_eq!(affected, vec![seg(1), seg(2)]);
        assert!(lt.lookup(seg(2)).is_none()); // sole owner removed
        assert!(lt.lookup(seg(1)).is_some());
        assert_eq!(lt.len(), 2);
    }

    #[test]
    fn purge_drops_only_unrefreshed() {
        let mut lt = LocationTable::new();
        lt.upsert(seg(1), node(1), Version(1), 1, 100, t(0));
        lt.upsert(seg(2), node(2), Version(1), 1, 100, t(100));
        let dropped = lt.purge_stale(t(200), Dur::secs(150));
        assert_eq!(dropped, 1);
        assert!(lt.lookup(seg(1)).is_none());
        assert!(lt.lookup(seg(2)).is_some());
    }

    #[test]
    fn refresh_keeps_entries_alive() {
        let mut lt = LocationTable::new();
        lt.upsert(seg(1), node(1), Version(1), 1, 100, t(0));
        lt.upsert(seg(1), node(1), Version(1), 1, 100, t(100));
        assert_eq!(lt.purge_stale(t(150), Dur::secs(60)), 0);
    }
}
