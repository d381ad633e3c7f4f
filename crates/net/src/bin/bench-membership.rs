//! **bench-membership** — the gossip failure detector and the location
//! ablation, one results file.
//!
//! Two experiments:
//!
//! * **Detection** (deterministic simulator): a SWIM-gossip cluster of
//!   providers under seeded 10% wire loss; one provider is crashed and
//!   every survivor's virtual time to the `member.leave` verdict is
//!   measured, swept over the indirect-probe fan-out `k`. Also counted:
//!   suspicions raised against *live* nodes (loss-induced) and the
//!   refutations that cancelled them — a run is only acceptance-clean
//!   when no live node is ever evicted (`false_leaves == 0`).
//! * **Location ablation** (pure computation): three SegID → home-host
//!   [`Scheme`]s — the paper's consistent-hash ring (§3.4.1, the one the
//!   system runs), rendezvous (HRW) and an ASURA-style random walk
//!   (PAPERS.md) — compared at 100/500/1000 providers on placement
//!   uniformity (stddev/mean and max/mean of per-node key counts),
//!   lookup cost (scheme-abstract draws and wall-clock ns), and data
//!   movement when one provider leaves or joins (fraction of keys whose
//!   home changes vs the 1/n optimum). Rendezvous and ASURA live only
//!   here: adopting one means swapping it in for `ring::HashRing` in the
//!   client and the provider, which moves every seeded byte.
//!
//! Usage: `bench-membership [--smoke] [--out PATH] [--validate PATH]`
//!
//! `--smoke` shrinks both experiments to CI size. `--validate` parses
//! an existing results file and re-checks its schema and bounds without
//! running anything — the `make membership-smoke` guard for the
//! committed `results/BENCH_membership.json`.

use std::process::ExitCode;
use std::time::Instant;

use sorrento::cluster::{Cluster, ClusterBuilder};
use sorrento::costs::CostModel;
use sorrento::ring::{hash_segid, hrw, mix, HashRing};
use sorrento::swim::MembershipMode;
use sorrento::types::SegId;
use sorrento_json::Json;
use sorrento_sim::{Dur, NodeId, TelemetryEvent};

// ---------------------------------------------------------------------
// Part 1: detection latency (simulator)
// ---------------------------------------------------------------------

struct DetectKnobs {
    providers: usize,
    fanouts: &'static [usize],
    loss_permille: u32,
    /// Virtual time to keep running after the crash; every survivor
    /// must reach its verdict within this window.
    window: Dur,
}

fn full_detect() -> DetectKnobs {
    DetectKnobs {
        providers: 32,
        fanouts: &[1, 2, 4],
        loss_permille: 100,
        window: Dur::secs(30),
    }
}

fn smoke_detect() -> DetectKnobs {
    DetectKnobs { providers: 12, fanouts: &[2], loss_permille: 100, window: Dur::secs(30) }
}

/// One detection run: crash one provider, measure each survivor's
/// virtual time to `member.leave`, and audit the suspicion traffic.
fn run_detect(fanout: usize, k: &DetectKnobs) -> Json {
    let mut costs = CostModel::fast_test();
    costs.swim_indirect_k = fanout;
    let mut c: Cluster = ClusterBuilder::new()
        .providers(k.providers)
        .seed(7200 + fanout as u64)
        .costs(costs)
        .membership(MembershipMode::Swim)
        .loss(k.loss_permille, 0xDEC0DE + fanout as u64)
        .warmup(Dur::secs(5))
        .build();

    let victim = c.providers()[k.providers / 2];
    let t_kill = c.now();
    c.crash_provider_at(t_kill, victim);
    c.run_for(k.window);

    let survivors: Vec<NodeId> =
        c.providers().iter().copied().filter(|&p| p != victim).collect();
    let mut latencies_ms: Vec<f64> = Vec::new();
    let mut suspects = 0u64;
    let mut refutes = 0u64;
    let mut false_leaves = 0u64;
    for &p in &survivors {
        let mut detected = None;
        for rec in c.sim.events(p).iter() {
            if rec.at < t_kill {
                continue;
            }
            match rec.ev {
                TelemetryEvent::MemberLeave { of } if of == victim => {
                    detected.get_or_insert(rec.at);
                }
                TelemetryEvent::MemberLeave { of } if of != victim => false_leaves += 1,
                TelemetryEvent::SwimSuspect { of, .. } if of != victim => suspects += 1,
                TelemetryEvent::SwimRefute { .. } => refutes += 1,
                _ => {}
            }
        }
        let at = detected.unwrap_or_else(|| {
            panic!("survivor {p} never declared the victim dead (fanout {fanout})")
        });
        latencies_ms.push((at.nanos() - t_kill.nanos()) as f64 / 1e6);
    }
    latencies_ms.sort_by(|a, b| a.total_cmp(b));
    let p50 = latencies_ms[latencies_ms.len() / 2];
    let max = *latencies_ms.last().unwrap();
    println!(
        "  k={fanout}: {} survivors, detect p50 {p50:.0} ms, max {max:.0} ms, \
         {suspects} live-node suspicions / {refutes} refutations, {false_leaves} false evictions",
        survivors.len()
    );
    Json::obj()
        .with("fanout_k", fanout as u64)
        .with("providers", k.providers as u64)
        .with("loss_permille", u64::from(k.loss_permille))
        .with("detect_p50_ms", p50)
        .with("detect_max_ms", max)
        .with("live_suspects", suspects)
        .with("refutes", refutes)
        .with("false_leaves", false_leaves)
}

// ---------------------------------------------------------------------
// Part 2: location-scheme ablation (pure computation)
// ---------------------------------------------------------------------

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

impl Scheme {
    fn name(self) -> &'static str {
        match self {
            Scheme::Ring => "ring",
            Scheme::Rendezvous => "rendezvous",
            Scheme::Asura => "asura",
        }
    }
}

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

/// One ablation cell: uniformity, lookup cost and leave/join movement
/// for `scheme` over `n` synthetic providers.
fn run_ablation(scheme: Scheme, n: usize, keys: u64) -> Json {
    // Provider ids start at 1: node 0 is conventionally the namespace.
    let providers: Vec<NodeId> = (1..=n).map(NodeId::from_index).collect();
    let loc = Placement::build(scheme, providers.iter().copied());
    assert_eq!(loc.provider_count(), n);

    let mut counts: Vec<u64> = vec![0; n + 2];
    let mut draws = 0u64;
    let t0 = Instant::now();
    for i in 0..keys {
        let (home, cost) = loc.home_cost(key(i));
        counts[home.expect("non-empty placement").index()] += 1;
        draws += u64::from(cost);
    }
    let lookup_ns = t0.elapsed().as_nanos() as f64 / keys as f64;
    let mean = keys as f64 / n as f64;
    let occupied: Vec<u64> =
        providers.iter().map(|p| counts[p.index()]).collect();
    let var = occupied
        .iter()
        .map(|&c| (c as f64 - mean).powi(2))
        .sum::<f64>()
        / n as f64;
    let stddev_over_mean = var.sqrt() / mean;
    let max_over_mean = *occupied.iter().max().unwrap() as f64 / mean;

    // Leave: rebuild over n-1 (what a provider does on member.leave)
    // and count remapped keys. The optimum is exactly the keys that
    // lived on the departed node — everything else moving is overhead.
    let gone = providers[n / 2];
    let after_leave =
        Placement::build(scheme, providers.iter().copied().filter(|&p| p != gone));
    let mut moved_leave = 0u64;
    for i in 0..keys {
        if loc.home(key(i)) != after_leave.home(key(i)) {
            moved_leave += 1;
        }
    }
    let optimal_leave = counts[gone.index()];

    // Join: rebuild over n+1. The optimum is ~keys/(n+1).
    let joiner = NodeId::from_index(n + 1);
    let after_join = Placement::build(
        scheme,
        providers.iter().copied().chain(std::iter::once(joiner)),
    );
    let mut moved_join = 0u64;
    for i in 0..keys {
        if loc.home(key(i)) != after_join.home(key(i)) {
            moved_join += 1;
        }
    }

    println!(
        "  {:<10} n={n:<5} stddev/mean {stddev_over_mean:.3}, max/mean {max_over_mean:.2}, \
         {:.1} draws / {lookup_ns:.0} ns per lookup, leave moved {:.3}% (optimal {:.3}%), \
         join moved {:.3}%",
        scheme.name(),
        draws as f64 / keys as f64,
        100.0 * moved_leave as f64 / keys as f64,
        100.0 * optimal_leave as f64 / keys as f64,
        100.0 * moved_join as f64 / keys as f64,
    );
    Json::obj()
        .with("scheme", scheme.name())
        .with("providers", n as u64)
        .with("keys", keys)
        .with("stddev_over_mean", stddev_over_mean)
        .with("max_over_mean", max_over_mean)
        .with("lookup_draws_mean", draws as f64 / keys as f64)
        .with("lookup_ns_mean", lookup_ns)
        .with("leave_moved_fraction", moved_leave as f64 / keys as f64)
        .with("leave_optimal_fraction", optimal_leave as f64 / keys as f64)
        .with("join_moved_fraction", moved_join as f64 / keys as f64)
}

// ---------------------------------------------------------------------
// Validation (shared by the generating run and `--validate`)
// ---------------------------------------------------------------------

fn validate(doc: &Json) -> Result<(), String> {
    let detection = doc
        .get("detection")
        .and_then(Json::as_arr)
        .ok_or("missing `detection` array")?;
    if detection.is_empty() {
        return Err("`detection` is empty".into());
    }
    for row in detection {
        let k = row
            .get("fanout_k")
            .and_then(Json::as_u64)
            .ok_or("`detection[].fanout_k` missing")?;
        match row.get("detect_max_ms").and_then(Json::as_f64) {
            // fast_test probes every 200 ms with an 800 ms suspect
            // timeout; cluster-wide convergence must land well inside
            // the bench's 30 s post-crash window.
            Some(x) if x > 0.0 && x < 30_000.0 => {}
            _ => return Err(format!("`detect_max_ms` out of range for k={k}")),
        }
        match row.get("detect_p50_ms").and_then(Json::as_f64) {
            Some(x) if x > 0.0 && x < 30_000.0 => {}
            _ => return Err(format!("`detect_p50_ms` out of range for k={k}")),
        }
        if row.get("false_leaves").and_then(Json::as_u64) != Some(0) {
            return Err(format!("k={k}: a live node was evicted (false_leaves != 0)"));
        }
    }

    let ablation = doc
        .get("ablation")
        .and_then(Json::as_arr)
        .ok_or("missing `ablation` array")?;
    for scheme in ["ring", "rendezvous", "asura"] {
        let rows: Vec<&Json> = ablation
            .iter()
            .filter(|r| r.get("scheme").and_then(Json::as_str) == Some(scheme))
            .collect();
        if rows.len() < 2 {
            return Err(format!("`ablation` needs >= 2 provider counts for {scheme}"));
        }
        for row in rows {
            let n = row.get("providers").and_then(Json::as_u64).unwrap_or(0);
            let f = |k: &str| -> Result<f64, String> {
                row.get(k)
                    .and_then(Json::as_f64)
                    .filter(|x| x.is_finite() && *x >= 0.0)
                    .ok_or(format!("`ablation[].{k}` missing for {scheme}/n={n}"))
            };
            if f("stddev_over_mean")? > 1.0 {
                return Err(format!("{scheme}/n={n}: placement badly skewed"));
            }
            if f("max_over_mean")? > 5.0 {
                return Err(format!("{scheme}/n={n}: hottest node > 5x the mean"));
            }
            let moved = f("leave_moved_fraction")?;
            let optimal = f("leave_optimal_fraction")?;
            // A scheme earns its keep by moving close to the optimum on
            // a leave — a mod-N style remap would move ~(n-1)/n of all
            // keys and fail this bound at every n >= 100.
            if moved > 5.0 * optimal + 0.02 {
                return Err(format!(
                    "{scheme}/n={n}: leave moved {moved:.3}, optimum {optimal:.3}"
                ));
            }
            f("join_moved_fraction")?;
            f("lookup_draws_mean")?;
        }
    }
    if doc.get("mode").and_then(|m| m.as_str()) == Some("full") {
        let has_n = |n: u64| {
            ablation
                .iter()
                .any(|r| r.get("providers").and_then(Json::as_u64) == Some(n))
        };
        for n in [100, 500, 1000] {
            if !has_n(n) {
                return Err(format!("full results need an n={n} ablation row"));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let flag_value = |name: &str| {
        args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
    };
    let out_path =
        flag_value("--out").unwrap_or_else(|| "results/BENCH_membership.json".into());

    if let Some(path) = flag_value("--validate") {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("bench-membership: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let doc = match Json::parse(&text) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("bench-membership: {path}: parse error: {e:?}");
                return ExitCode::FAILURE;
            }
        };
        return match validate(&doc) {
            Ok(()) => {
                println!("bench-membership: {path} validates");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("bench-membership: {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let knobs = if smoke { smoke_detect() } else { full_detect() };
    let (sizes, keys): (&[usize], u64) =
        if smoke { (&[100, 500], 20_000) } else { (&[100, 500, 1000], 200_000) };

    println!(
        "== detection latency ({} providers, {}% loss) ==",
        knobs.providers,
        knobs.loss_permille / 10
    );
    let mut detection = Json::arr();
    for &fanout in knobs.fanouts {
        detection.push(run_detect(fanout, &knobs));
    }

    println!("== location ablation ({keys} keys) ==");
    let mut ablation = Json::arr();
    for &n in sizes {
        for &scheme in SCHEMES {
            ablation.push(run_ablation(scheme, n, keys));
        }
    }

    let doc = Json::obj()
        .with("bench", "swim membership + location ablation")
        .with("mode", if smoke { "smoke" } else { "full" })
        .with(
            "setup",
            Json::obj()
                .with("costs", "fast_test")
                .with("detect_providers", knobs.providers as u64)
                .with("loss_permille", u64::from(knobs.loss_permille))
                .with("ablation_keys", keys),
        )
        .with("detection", detection)
        .with("ablation", ablation);

    if let Err(e) = validate(&doc) {
        eprintln!("bench-membership: generated results fail validation: {e}");
        return ExitCode::FAILURE;
    }
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&out_path, doc.encode()).expect("write results json");
    println!("wrote {out_path}");
    ExitCode::SUCCESS
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
    /// location knob of the client and the provider (40,000 homes), so
    /// the committed ablation measures the scheme the system could run.
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
}
