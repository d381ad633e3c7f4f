//! Consistent hashing (§3.4.1): maps every SegID to its *home host*, the
//! provider responsible for tracking the segment's owners.
//!
//! Unlike Chord, "a Sorrento client has the complete view of all the
//! storage providers and can directly determine the home host of a
//! certain SegID" — so this is a plain hash ring rebuilt locally from the
//! membership view, with virtual nodes for balance. All nodes with the
//! same live set compute the same ring; transient disagreement is
//! absorbed by the backup multicast query (§3.4.2).

use sorrento_sim::NodeId;

use crate::types::SegId;

/// Virtual nodes per provider: enough for good balance at LAN scales
/// without making ring rebuilds costly.
pub const VNODES: u32 = 64;

/// A consistent-hash ring over the live providers.
#[derive(Debug, Clone, Default)]
pub struct HashRing {
    /// Sorted `(point, provider)` pairs.
    points: Vec<(u64, NodeId)>,
}

/// 64-bit mix (splitmix64 finalizer): cheap, well-distributed, and
/// deterministic across nodes.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A SegID's point on the ring.
pub fn hash_segid(seg: SegId) -> u64 {
    mix(seg.0 as u64 ^ mix((seg.0 >> 64) as u64))
}

/// Rendezvous (highest-random-weight) choice: every `(salt, candidate)`
/// scores `mix(key_hash ^ mix(salt))` and the highest score wins. `mix`
/// is a bijection, so distinct salts never tie. The namespace shard
/// partition (`nsmap`) routes by it, and the placement-ablation test
/// measures it as a segment-home scheme beside the ring.
pub fn hrw<T>(key_hash: u64, candidates: impl IntoIterator<Item = (u64, T)>) -> Option<T> {
    candidates
        .into_iter()
        .max_by_key(|(salt, _)| mix(key_hash ^ mix(*salt)))
        .map(|(_, candidate)| candidate)
}

fn hash_vnode(provider: NodeId, vnode: u32) -> u64 {
    mix(((provider.index() as u64) << 32) | vnode as u64)
}

impl HashRing {
    /// Build the ring for a set of live providers.
    pub fn build(providers: impl IntoIterator<Item = NodeId>) -> HashRing {
        HashRing::build_with_vnodes(providers, VNODES)
    }

    /// Build with an explicit virtual-node count (balance/ablation
    /// studies; the protocol always uses [`VNODES`]).
    pub fn build_with_vnodes(
        providers: impl IntoIterator<Item = NodeId>,
        vnodes: u32,
    ) -> HashRing {
        let mut points = Vec::new();
        for p in providers {
            for v in 0..vnodes {
                points.push((hash_vnode(p, v), p));
            }
        }
        points.sort_unstable();
        points.dedup_by_key(|(h, _)| *h);
        HashRing { points }
    }

    /// The home host for a SegID: the first virtual node at or after the
    /// segment's hash point (wrapping). `None` on an empty ring.
    pub fn home(&self, seg: SegId) -> Option<NodeId> {
        if self.points.is_empty() {
            return None;
        }
        let h = hash_segid(seg);
        let idx = self.points.partition_point(|&(p, _)| p < h);
        let (_, provider) = self.points[idx % self.points.len()];
        Some(provider)
    }

    /// Number of distinct providers on the ring.
    pub fn provider_count(&self) -> usize {
        let mut ps: Vec<NodeId> = self.points.iter().map(|&(_, p)| p).collect();
        ps.sort_unstable();
        ps.dedup();
        ps.len()
    }

    /// Whether the ring has no providers.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Number of hash points (virtual nodes) on the ring.
    pub fn point_count(&self) -> usize {
        self.points.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    fn segs(n: u64) -> Vec<SegId> {
        (0..n).map(|i| SegId::derive(3, i, i ^ 0xABCD)).collect()
    }

    #[test]
    fn empty_ring_has_no_home() {
        let ring = HashRing::build([]);
        assert!(ring.is_empty());
        assert_eq!(ring.home(SegId(1)), None);
    }

    #[test]
    fn single_provider_owns_everything() {
        let ring = HashRing::build([node(5)]);
        for s in segs(100) {
            assert_eq!(ring.home(s), Some(node(5)));
        }
    }

    #[test]
    fn deterministic_across_builds() {
        let a = HashRing::build((0..8).map(node));
        let b = HashRing::build((0..8).map(node));
        for s in segs(200) {
            assert_eq!(a.home(s), b.home(s));
        }
    }

    #[test]
    fn order_of_providers_does_not_matter() {
        let a = HashRing::build((0..8).map(node));
        let b = HashRing::build((0..8).rev().map(node));
        for s in segs(200) {
            assert_eq!(a.home(s), b.home(s));
        }
    }

    #[test]
    fn load_is_roughly_balanced() {
        let n = 10usize;
        let ring = HashRing::build((0..n).map(node));
        let mut counts = vec![0usize; n];
        let total = 10_000;
        for s in segs(total) {
            counts[ring.home(s).unwrap().index()] += 1;
        }
        let expect = total as f64 / n as f64;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64) > expect * 0.5 && (c as f64) < expect * 1.7,
                "provider {i} got {c} of {total}"
            );
        }
    }

    #[test]
    fn removal_only_moves_departed_providers_keys() {
        // Consistent hashing's defining property: removing one provider
        // relocates only the keys that homed on it.
        let ring_full = HashRing::build((0..10).map(node));
        let ring_less = HashRing::build((0..9).map(node)); // node 9 gone
        let mut moved = 0;
        let mut total = 0;
        for s in segs(5_000) {
            let before = ring_full.home(s).unwrap();
            let after = ring_less.home(s).unwrap();
            total += 1;
            if before != after {
                moved += 1;
                assert_eq!(before, node(9), "a surviving provider's key moved");
            }
        }
        // Roughly 1/10 of keys should move.
        assert!(moved > total / 20 && moved < total / 5, "moved {moved}");
    }

    #[test]
    fn addition_only_steals_keys_for_new_provider() {
        let before = HashRing::build((0..9).map(node));
        let after = HashRing::build((0..10).map(node));
        for s in segs(5_000) {
            let b = before.home(s).unwrap();
            let a = after.home(s).unwrap();
            if a != b {
                assert_eq!(a, node(9));
            }
        }
    }

    /// Every SegID → home route of the ring, folded into one digest:
    /// 40,000 homes over four provider sets. The digest was computed by
    /// the commit that still reached the ring through a pluggable
    /// locator, so dropping that layer moved no home.
    #[test]
    fn ring_routes_are_pinned() {
        let fold = |h: u64, v: u64| (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for n in [1usize, 3, 10, 64] {
            let ring = HashRing::build((0..n).map(|i| node(i * 3 + 1)));
            for i in 0..10_000u64 {
                let seg = SegId::derive(7, i, i ^ 0x5EED);
                h = fold(h, ring.home(seg).unwrap().index() as u64);
            }
        }
        assert_eq!(h, 0x0fc4_f45e_4a30_afbc, "a segment changed home");
    }

    #[test]
    fn provider_count() {
        let ring = HashRing::build((0..7).map(node));
        assert_eq!(ring.provider_count(), 7);
    }
}
