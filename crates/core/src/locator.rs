//! Pluggable SegID → home-host location schemes (ROADMAP item 4).
//!
//! The paper fixes location on a consistent-hash ring (§3.4.1,
//! [`crate::ring`]). At four-digit provider counts the scheme choice
//! starts to matter — placement uniformity decides capacity headroom,
//! lookup cost sits on every data-path op, and data movement on
//! membership change decides how much repair traffic a join or a death
//! triggers. ASURA (PAPERS.md) names those three as *the* deciding
//! metrics, so this module makes the scheme a knob and `bench-membership`
//! measures all three at 100/500/1000 providers:
//!
//! * [`LocationScheme::Ring`] — the existing [`HashRing`], unchanged
//!   and still the default (seeded sims stay byte-identical).
//! * [`LocationScheme::Rendezvous`] — highest-random-weight hashing,
//!   the same family already sharding the namespace
//!   ([`crate::nsmap::shard_of_dir`]): perfectly minimal movement, O(n)
//!   lookup.
//! * [`LocationScheme::Asura`] — an ASURA-style seeded random walk over
//!   a slot table: every provider claims the same number of slots
//!   (near-perfect uniformity), a lookup draws table indices from a
//!   per-key RNG until it lands on a claimed slot (O(1) expected), and
//!   membership changes move only the keys whose walk crossed the
//!   affected slots.
//!
//! All three are deterministic functions of the live set, so every node
//! with the same membership view computes the same homes — the property
//! the backup multicast query (§3.4.2) papers over during transient
//! disagreement.

use sorrento_sim::NodeId;

use crate::ring::{hash_segid, hrw, mix, HashRing};
use crate::types::SegId;

/// Slots claimed by each provider in the ASURA table (uniformity is
/// exact per slot, so a handful per node suffices).
const ASURA_SLOTS_PER_NODE: usize = 8;
/// Bounded walk length before falling back to a linear scan; at ≤ 50%
/// table density the expected walk is ~2 draws, so 128 makes the
/// fallback astronomically rare.
const ASURA_MAX_DRAWS: u32 = 128;

/// Which location scheme maps SegIDs to home hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LocationScheme {
    /// Consistent-hash ring with virtual nodes (the paper's design and
    /// the default).
    #[default]
    Ring,
    /// Rendezvous (highest-random-weight) hashing.
    Rendezvous,
    /// ASURA-style random-walk over an evenly claimed slot table.
    Asura,
}

impl LocationScheme {
    /// Parse a config-file value (`"ring" | "rendezvous" | "asura"`).
    pub fn parse(s: &str) -> Option<LocationScheme> {
        match s {
            "ring" => Some(LocationScheme::Ring),
            "rendezvous" => Some(LocationScheme::Rendezvous),
            "asura" => Some(LocationScheme::Asura),
            _ => None,
        }
    }

    /// The config-file spelling of this scheme.
    pub fn name(self) -> &'static str {
        match self {
            LocationScheme::Ring => "ring",
            LocationScheme::Rendezvous => "rendezvous",
            LocationScheme::Asura => "asura",
        }
    }
}

/// ASURA-style slot table: every provider claims
/// `ASURA_SLOTS_PER_NODE` slots in a power-of-two table kept at most
/// half full; a lookup walks per-key seeded random draws until it hits
/// a claimed slot. Claims are placed by linear probing from a
/// node-derived hash, so the table is a pure function of the live set
/// (every node computes the same one) and a membership change disturbs
/// only the departed/arrived node's own slots plus the rare probe
/// chains that crossed them.
#[derive(Debug, Clone, Default)]
pub struct AsuraTable {
    slots: Vec<Option<NodeId>>,
    nodes: usize,
}

impl AsuraTable {
    fn build(mut providers: Vec<NodeId>) -> AsuraTable {
        providers.sort_unstable();
        providers.dedup();
        if providers.is_empty() {
            return AsuraTable::default();
        }
        let cap = (providers.len() * ASURA_SLOTS_PER_NODE * 2).next_power_of_two();
        let mut slots = vec![None; cap];
        for &p in &providers {
            for j in 0..ASURA_SLOTS_PER_NODE {
                let start = mix((p.index() as u64) << 8 | j as u64) as usize & (cap - 1);
                let mut i = start;
                while slots[i].is_some() {
                    i = (i + 1) & (cap - 1);
                }
                slots[i] = Some(p);
            }
        }
        AsuraTable { slots, nodes: providers.len() }
    }

    /// The walk: draw slot indices from a SegID-seeded sequence until
    /// one is claimed. Returns the home and the number of draws spent
    /// (the scheme's lookup cost, measured by `bench-membership`).
    fn home_cost(&self, seg: SegId) -> (Option<NodeId>, u32) {
        if self.slots.is_empty() {
            return (None, 0);
        }
        let mask = self.slots.len() as u64 - 1;
        let mut x = hash_segid(seg);
        for draw in 1..=ASURA_MAX_DRAWS {
            let i = (x & mask) as usize;
            if let Some(p) = self.slots[i] {
                return (Some(p), draw);
            }
            x = mix(x);
        }
        // Unclaimed-walk fallback: scan forward from the last draw.
        let mut i = (x & mask) as usize;
        loop {
            if let Some(p) = self.slots[i] {
                return (Some(p), ASURA_MAX_DRAWS);
            }
            i = (i + 1) & mask as usize;
        }
    }
}

/// A home-host locator under one of the [`LocationScheme`]s, presenting
/// the same `home`/`provider_count` surface the raw [`HashRing`] did.
#[derive(Debug, Clone)]
pub struct Locator {
    scheme: LocationScheme,
    inner: Inner,
}

#[derive(Debug, Clone)]
enum Inner {
    Ring(HashRing),
    Rendezvous(Vec<NodeId>),
    Asura(AsuraTable),
}

impl Default for Locator {
    fn default() -> Locator {
        Locator { scheme: LocationScheme::Ring, inner: Inner::Ring(HashRing::default()) }
    }
}

impl Locator {
    /// Build a locator over the live providers.
    pub fn build(
        scheme: LocationScheme,
        providers: impl IntoIterator<Item = NodeId>,
    ) -> Locator {
        let inner = match scheme {
            LocationScheme::Ring => Inner::Ring(HashRing::build(providers)),
            LocationScheme::Rendezvous => {
                let mut nodes: Vec<NodeId> = providers.into_iter().collect();
                nodes.sort_unstable();
                nodes.dedup();
                Inner::Rendezvous(nodes)
            }
            LocationScheme::Asura => {
                Inner::Asura(AsuraTable::build(providers.into_iter().collect()))
            }
        };
        Locator { scheme, inner }
    }

    /// The scheme this locator was built under.
    pub fn scheme(&self) -> LocationScheme {
        self.scheme
    }

    /// The home host for a SegID; `None` when no providers are known.
    pub fn home(&self, seg: SegId) -> Option<NodeId> {
        self.home_cost(seg).0
    }

    /// The home host plus the scheme's abstract lookup cost: hash-point
    /// comparisons (ring), candidate hashes (rendezvous), or walk draws
    /// (ASURA).
    pub fn home_cost(&self, seg: SegId) -> (Option<NodeId>, u32) {
        match &self.inner {
            Inner::Ring(ring) => {
                // A sorted-array ring lookup is one binary search.
                let cost = usize::BITS - ring.point_count().leading_zeros();
                (ring.home(seg), cost)
            }
            Inner::Rendezvous(nodes) => {
                // A provider's salt is its complemented index, apart from
                // the shard indices `nsmap` salts with.
                let best = hrw(hash_segid(seg), nodes.iter().map(|&n| (!(n.index() as u64), n)));
                (best, nodes.len() as u32)
            }
            Inner::Asura(table) => table.home_cost(seg),
        }
    }

    /// Number of distinct providers the locator maps onto.
    pub fn provider_count(&self) -> usize {
        match &self.inner {
            Inner::Ring(ring) => ring.provider_count(),
            Inner::Rendezvous(nodes) => nodes.len(),
            Inner::Asura(table) => table.nodes,
        }
    }

    /// Whether no providers are known.
    pub fn is_empty(&self) -> bool {
        self.provider_count() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    fn segs(n: u64) -> Vec<SegId> {
        (0..n).map(|i| SegId::derive(7, i, i ^ 0x5EED)).collect()
    }

    #[test]
    fn ring_locator_matches_raw_ring() {
        let raw = HashRing::build((0..8).map(node));
        let loc = Locator::build(LocationScheme::Ring, (0..8).map(node));
        for s in segs(500) {
            assert_eq!(loc.home(s), raw.home(s));
        }
        assert_eq!(loc.provider_count(), 8);
    }

    #[test]
    fn every_scheme_is_deterministic_and_order_independent() {
        for scheme in [LocationScheme::Ring, LocationScheme::Rendezvous, LocationScheme::Asura] {
            let a = Locator::build(scheme, (0..10).map(node));
            let b = Locator::build(scheme, (0..10).rev().map(node));
            for s in segs(300) {
                assert_eq!(a.home(s), b.home(s), "{scheme:?} disagrees across orders");
            }
        }
    }

    #[test]
    fn empty_locators_have_no_home() {
        for scheme in [LocationScheme::Ring, LocationScheme::Rendezvous, LocationScheme::Asura] {
            let loc = Locator::build(scheme, []);
            assert!(loc.is_empty());
            assert_eq!(loc.home(SegId(1)), None);
        }
    }

    #[test]
    fn rendezvous_removal_moves_only_departed_keys() {
        let full = Locator::build(LocationScheme::Rendezvous, (0..10).map(node));
        let less = Locator::build(LocationScheme::Rendezvous, (0..9).map(node));
        for s in segs(3_000) {
            let before = full.home(s).unwrap();
            let after = less.home(s).unwrap();
            if before != after {
                assert_eq!(before, node(9), "a surviving provider's key moved");
            }
        }
    }

    /// Both rendezvous users route as they did before they shared
    /// `ring::hrw`: the digests were computed by the commit that still
    /// had a private `mix` and argmax loop in `nsmap` and a second argmax
    /// here — 50,000 directory routes and 40,000 segment homes.
    #[test]
    fn rendezvous_routes_are_pinned() {
        let fold = |h: u64, v: u64| (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for nshards in [2u32, 3, 4, 8, 16] {
            for i in 0..10_000 {
                let dir = format!("/dir{i}/sub{}", i % 7);
                h = fold(h, u64::from(crate::nsmap::shard_of_dir(&dir, nshards)));
            }
        }
        assert_eq!(h, 0x0700_9a64_3ae1_7734, "a directory changed shard");
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for n in [1usize, 3, 10, 64] {
            let loc = Locator::build(LocationScheme::Rendezvous, (0..n).map(|i| node(i * 3 + 1)));
            for s in segs(10_000) {
                h = fold(h, loc.home(s).unwrap().index() as u64);
            }
        }
        assert_eq!(h, 0x6b76_9a3f_7720_5d42, "a segment changed home");
    }

    #[test]
    fn asura_balances_and_moves_little_on_leave() {
        let n = 10usize;
        let full = Locator::build(LocationScheme::Asura, (0..n).map(node));
        let less = Locator::build(LocationScheme::Asura, (0..n - 1).map(node));
        let total = 10_000u64;
        let mut counts = vec![0usize; n];
        let mut moved = 0u64;
        for s in segs(total) {
            let before = full.home(s).unwrap();
            counts[before.index()] += 1;
            if less.home(s).unwrap() != before {
                moved += 1;
            }
        }
        let expect = total as f64 / n as f64;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64) > expect * 0.6 && (c as f64) < expect * 1.5,
                "provider {i} got {c} of {total}"
            );
        }
        // ~1/10 of keys should belong to the removed node; claims are
        // probe-chain stable so little else moves.
        assert!(
            moved < total / 5,
            "leave moved {moved} of {total} keys"
        );
    }

    #[test]
    fn asura_lookup_cost_is_constant_expected() {
        let loc = Locator::build(LocationScheme::Asura, (0..100).map(node));
        let mut draws = 0u64;
        let total = 5_000u64;
        for s in segs(total) {
            draws += u64::from(loc.home_cost(s).1);
        }
        // Table density is 50%, so the expected walk is 2 draws.
        assert!(draws < total * 4, "mean draws {}", draws as f64 / total as f64);
    }

    #[test]
    fn scheme_names_round_trip() {
        for scheme in [LocationScheme::Ring, LocationScheme::Rendezvous, LocationScheme::Asura] {
            assert_eq!(LocationScheme::parse(scheme.name()), Some(scheme));
        }
        assert_eq!(LocationScheme::parse("chord"), None);
    }
}
