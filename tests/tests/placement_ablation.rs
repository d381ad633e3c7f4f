//! The location ablation: three SegID → home-host schemes compared on
//! placement uniformity and on data movement when one provider leaves
//! or joins.
//!
//! * the paper's consistent-hash ring (§3.4.1, the one the system runs);
//! * rendezvous (HRW) hashing, the family that shards the namespace;
//! * an ASURA-style random walk over a claimed slot table (PAPERS.md).
//!
//! Rendezvous and ASURA live only here: adopting one means swapping it
//! in for `ring::HashRing` in the client and the provider, which moves
//! every seeded byte. Each cell prints its figures, wall-clock lookup
//! cost included (`cargo test -p sorrento-tests --test
//! placement_ablation -- --nocapture`); only the uniformity and
//! movement bounds are asserted. EXPERIMENTS.md has the last full
//! 200,000-key table.

use std::time::Instant;

use sorrento::ring::{hash_segid, hrw, mix, HashRing};
use sorrento::types::SegId;
use sorrento_sim::NodeId;

/// A SegID → home-host scheme under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scheme {
    /// The paper's consistent-hash ring with virtual nodes.
    Ring,
    /// Highest-random-weight hashing, the family that already shards
    /// the namespace (`nsmap`): minimal movement, O(n) lookup.
    Rendezvous,
    /// A seeded random walk over an evenly claimed slot table: near-exact
    /// uniformity, O(1) expected lookup.
    Asura,
}

const SCHEMES: &[Scheme] = &[Scheme::Ring, Scheme::Rendezvous, Scheme::Asura];

/// Slots claimed by each provider in the ASURA table (uniformity is
/// exact per slot, so a handful per node suffices).
const ASURA_SLOTS_PER_NODE: usize = 8;
/// Bounded walk length before falling back to a linear scan; at ≤ 50%
/// table density the expected walk is ~2 draws, so 128 makes the
/// fallback astronomically rare.
const ASURA_MAX_DRAWS: u32 = 128;

/// ASURA-style slot table: every provider claims `ASURA_SLOTS_PER_NODE`
/// slots in a power-of-two table kept at most half full; a lookup walks
/// per-key seeded random draws until it hits a claimed slot. Claims are
/// placed by linear probing from a node-derived hash, so the table is a
/// pure function of the live set and a membership change disturbs only
/// the departed or arrived node's own slots plus the rare probe chains
/// that crossed them.
#[derive(Debug, Clone, Default)]
struct AsuraTable {
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
    /// one is claimed. Returns the home and the number of draws spent.
    fn home_cost(&self, seg: SegId) -> (Option<NodeId>, u32) {
        if self.slots.is_empty() {
            return (None, 0);
        }
        let mask = self.slots.len() as u64 - 1;
        let mut x = hash_segid(seg);
        for draw in 1..=ASURA_MAX_DRAWS {
            if let Some(p) = self.slots[(x & mask) as usize] {
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

/// One scheme built over a live set: every node with the same set
/// computes the same homes.
enum Placement {
    Ring(HashRing),
    Rendezvous(Vec<NodeId>),
    Asura(AsuraTable),
}

impl Placement {
    fn build(scheme: Scheme, providers: impl IntoIterator<Item = NodeId>) -> Placement {
        match scheme {
            Scheme::Ring => Placement::Ring(HashRing::build(providers)),
            Scheme::Rendezvous => {
                let mut nodes: Vec<NodeId> = providers.into_iter().collect();
                nodes.sort_unstable();
                nodes.dedup();
                Placement::Rendezvous(nodes)
            }
            Scheme::Asura => Placement::Asura(AsuraTable::build(providers.into_iter().collect())),
        }
    }

    fn home(&self, seg: SegId) -> Option<NodeId> {
        self.home_cost(seg).0
    }

    /// The home plus the scheme's abstract lookup cost: hash-point
    /// comparisons (ring), candidate hashes (rendezvous), or walk draws
    /// (ASURA).
    fn home_cost(&self, seg: SegId) -> (Option<NodeId>, u32) {
        match self {
            // A sorted-array ring lookup is one binary search.
            Placement::Ring(ring) => {
                (ring.home(seg), usize::BITS - ring.point_count().leading_zeros())
            }
            Placement::Rendezvous(nodes) => {
                // A provider's salt is its complemented index, apart from
                // the shard indices `nsmap` salts with.
                let best = hrw(hash_segid(seg), nodes.iter().map(|&n| (!(n.index() as u64), n)));
                (best, nodes.len() as u32)
            }
            Placement::Asura(table) => table.home_cost(seg),
        }
    }

    fn provider_count(&self) -> usize {
        match self {
            Placement::Ring(ring) => ring.provider_count(),
            Placement::Rendezvous(nodes) => nodes.len(),
            Placement::Asura(table) => table.nodes,
        }
    }
}

/// Deterministic key stream: a splitmix-style counter walk gives every
/// scheme the same well-spread SegIds without pulling in an RNG.
fn key(i: u64) -> SegId {
    let mut x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0x243F_6A88_85A3_08D3);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    SegId(u128::from(x) << 64 | u128::from(x.wrapping_mul(0x94D0_49BB_1331_11EB)))
}

const ABLATION_KEYS: u64 = 20_000;

/// One ablation cell: uniformity, lookup cost and leave/join movement
/// for `scheme` over `n` synthetic providers, asserted against the
/// bounds every scheme must meet.
fn check_ablation(scheme: Scheme, n: usize) {
    let keys = ABLATION_KEYS;
    // Provider ids start at 1: node 0 is conventionally the namespace.
    let providers: Vec<NodeId> = (1..=n).map(NodeId::from_index).collect();
    let loc = Placement::build(scheme, providers.iter().copied());
    assert_eq!(loc.provider_count(), n);

    let mut counts: Vec<u64> = vec![0; n + 2];
    let mut draws = 0u64;
    let t0 = Instant::now();
    let homes: Vec<NodeId> = (0..keys)
        .map(|i| {
            let (home, cost) = loc.home_cost(key(i));
            let home = home.expect("non-empty placement");
            counts[home.index()] += 1;
            draws += u64::from(cost);
            home
        })
        .collect();
    let lookup_ns = t0.elapsed().as_nanos() as f64 / keys as f64;
    let mean = keys as f64 / n as f64;
    let occupied: Vec<u64> = providers.iter().map(|p| counts[p.index()]).collect();
    let var = occupied.iter().map(|&c| (c as f64 - mean).powi(2)).sum::<f64>() / n as f64;
    let stddev_over_mean = var.sqrt() / mean;
    let max_over_mean = *occupied.iter().max().unwrap() as f64 / mean;

    // Fraction of keys whose home differs under `after`.
    let moved = |after: &Placement| {
        let m = (0..keys).filter(|&i| after.home(key(i)) != Some(homes[i as usize])).count();
        m as f64 / keys as f64
    };
    // Leave: rebuild over n-1 (what a provider does on member.leave).
    // The optimum is exactly the keys that lived on the departed node —
    // everything else moving is overhead.
    let gone = providers[n / 2];
    let after_leave = Placement::build(scheme, providers.iter().copied().filter(|&p| p != gone));
    let leave_moved = moved(&after_leave);
    let leave_optimal = counts[gone.index()] as f64 / keys as f64;
    // Join: rebuild over n+1. The optimum is exactly the keys the joiner
    // now homes.
    let joiner = NodeId::from_index(n + 1);
    let after_join =
        Placement::build(scheme, providers.iter().copied().chain(std::iter::once(joiner)));
    let join_moved = moved(&after_join);
    let join_optimal =
        (0..keys).filter(|&i| after_join.home(key(i)) == Some(joiner)).count() as f64 / keys as f64;

    println!(
        "  {:<10} n={n:<5} stddev/mean {stddev_over_mean:.3}, max/mean {max_over_mean:.2}, \
         {:.1} draws / {lookup_ns:.0} ns per lookup, leave moved {:.3}% (optimal {:.3}%), \
         join moved {:.3}% (optimal {:.3}%)",
        format!("{scheme:?}"),
        draws as f64 / keys as f64,
        100.0 * leave_moved,
        100.0 * leave_optimal,
        100.0 * join_moved,
        100.0 * join_optimal,
    );
    assert!(stddev_over_mean <= 1.0, "{scheme:?}/n={n}: placement badly skewed");
    assert!(max_over_mean <= 5.0, "{scheme:?}/n={n}: hottest node > 5x the mean");
    // A scheme earns its keep by moving close to the optimum — a mod-N
    // style remap would move ~(n-1)/n of all keys and fail this bound at
    // every n >= 100.
    for (what, moved, optimal) in
        [("leave", leave_moved, leave_optimal), ("join", join_moved, join_optimal)]
    {
        assert!(
            moved <= 5.0 * optimal + 0.02,
            "{scheme:?}/n={n}: {what} moved {moved:.4}, optimum {optimal:.4}"
        );
    }
}

#[test]
fn every_scheme_balances_and_moves_little() {
    for n in [100, 500] {
        for &scheme in SCHEMES {
            check_ablation(scheme, n);
        }
    }
}

fn node(i: usize) -> NodeId {
    NodeId::from_index(i)
}

fn segs(n: u64) -> Vec<SegId> {
    (0..n).map(|i| SegId::derive(7, i, i ^ 0x5EED)).collect()
}

/// The ablation's ring row measures the ring the system runs.
#[test]
fn ring_locator_matches_raw_ring() {
    let raw = HashRing::build((0..8).map(node));
    let loc = Placement::build(Scheme::Ring, (0..8).map(node));
    for s in segs(500) {
        assert_eq!(loc.home(s), raw.home(s));
    }
    assert_eq!(loc.provider_count(), 8);
}

#[test]
fn every_scheme_is_deterministic_and_order_independent() {
    for &scheme in SCHEMES {
        let a = Placement::build(scheme, (0..10).map(node));
        let b = Placement::build(scheme, (0..10).rev().map(node));
        for s in segs(300) {
            assert_eq!(a.home(s), b.home(s), "{scheme:?} disagrees across orders");
        }
    }
}

#[test]
fn empty_locators_have_no_home() {
    for &scheme in SCHEMES {
        let loc = Placement::build(scheme, []);
        assert_eq!(loc.provider_count(), 0);
        assert_eq!(loc.home(SegId(1)), None);
    }
}

#[test]
fn rendezvous_removal_moves_only_departed_keys() {
    let full = Placement::build(Scheme::Rendezvous, (0..10).map(node));
    let less = Placement::build(Scheme::Rendezvous, (0..9).map(node));
    for s in segs(3_000) {
        let before = full.home(s).unwrap();
        if less.home(s).unwrap() != before {
            assert_eq!(before, node(9), "a surviving provider's key moved");
        }
    }
}

/// Rendezvous segment homes as they were when the scheme was still a
/// location knob of the client and the provider (40,000 homes), so the
/// ablation measures the scheme the system could run.
#[test]
fn rendezvous_routes_are_pinned() {
    let fold = |h: u64, v: u64| (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for n in [1usize, 3, 10, 64] {
        let loc = Placement::build(Scheme::Rendezvous, (0..n).map(|i| node(i * 3 + 1)));
        for s in segs(10_000) {
            h = fold(h, loc.home(s).unwrap().index() as u64);
        }
    }
    assert_eq!(h, 0x6b76_9a3f_7720_5d42, "a segment changed home");
}

#[test]
fn asura_balances_and_moves_little_on_leave() {
    let n = 10usize;
    let full = Placement::build(Scheme::Asura, (0..n).map(node));
    let less = Placement::build(Scheme::Asura, (0..n - 1).map(node));
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
    // ~1/10 of keys belong to the removed node; claims are
    // probe-chain stable so little else moves.
    assert!(moved < total / 5, "leave moved {moved} of {total} keys");
}

#[test]
fn asura_lookup_cost_is_constant_expected() {
    let loc = Placement::build(Scheme::Asura, (0..100).map(node));
    let total = 5_000u64;
    let draws: u64 = segs(total).into_iter().map(|s| u64::from(loc.home_cost(s).1)).sum();
    // Table density is 50%, so the expected walk is 2 draws.
    assert!(draws < total * 4, "mean draws {}", draws as f64 / total as f64);
}
