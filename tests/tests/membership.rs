//! Gossip-membership integration tests: SWIM failure detection in the
//! deterministic simulator.
//!
//! These exercise the properties §9.9 of DESIGN.md promises: no false
//! positives under sustained packet loss, incarnation refutation when a
//! live node is wrongly suspected, bounded detection latency at scale,
//! and bounded dissemination (every survivor converges on the verdict).

use sorrento::cluster::{Cluster, ClusterBuilder};
use sorrento::costs::CostModel;
use sorrento::swim::MembershipMode;
use sorrento_sim::{Dur, NodeId, SimTime, TelemetryEvent};

fn swim_builder(providers: usize, seed: u64, costs: CostModel, warmup: Dur) -> ClusterBuilder {
    ClusterBuilder::new()
        .providers(providers)
        .seed(seed)
        .costs(costs)
        .membership(MembershipMode::Swim)
        .warmup(warmup)
}

fn swim_cluster(providers: usize, seed: u64, loss_permille: u32, warmup: Dur) -> Cluster {
    let mut b = swim_builder(providers, seed, CostModel::fast_test(), warmup);
    if loss_permille > 0 {
        b = b.loss(loss_permille, seed ^ 0x10551);
    }
    b.build()
}

/// Count telemetry events of interest across all providers, after `t0`.
struct Tally {
    suspects: u64,
    refutes: u64,
    leaves: u64,
    deaths: u64,
}

fn tally(c: &Cluster, after: SimTime) -> Tally {
    let mut t = Tally { suspects: 0, refutes: 0, leaves: 0, deaths: 0 };
    for &p in c.providers() {
        for rec in c.sim.events(p).iter() {
            if rec.at < after {
                continue;
            }
            match rec.ev {
                TelemetryEvent::SwimSuspect { .. } => t.suspects += 1,
                TelemetryEvent::SwimRefute { .. } => t.refutes += 1,
                TelemetryEvent::MemberLeave { .. } => t.leaves += 1,
                TelemetryEvent::DeathDeclared { .. } => t.deaths += 1,
                _ => {}
            }
        }
    }
    t
}

/// Crash provider `i`, run for `window`, and return the crash instant
/// and every survivor's virtual time (ns, ascending) until it evicted
/// the victim. Panics if a survivor never does.
fn crash_and_detect(c: &mut Cluster, i: usize, window: Dur) -> (SimTime, Vec<u64>) {
    let victim = c.providers()[i];
    let t_kill = c.now();
    c.crash_provider_at(t_kill, victim);
    c.run_for(window);
    let evicted = |p: NodeId| {
        let leave = |ev| matches!(ev, TelemetryEvent::MemberLeave { of } if of == victim);
        let rec = c.sim.events(p).iter().find(|r| r.at >= t_kill && leave(r.ev));
        rec.unwrap_or_else(|| panic!("survivor {p} never evicted the crashed victim")).at
    };
    let mut ns: Vec<u64> = c
        .providers()
        .iter()
        .filter(|&&p| p != victim)
        .map(|&p| evicted(p).nanos() - t_kill.nanos())
        .collect();
    ns.sort_unstable();
    (t_kill, ns)
}

/// 16 providers gossiping for 30 virtual seconds under 10% packet loss:
/// suspicions may form, but nobody healthy may ever be evicted.
#[test]
fn no_false_positives_under_ten_percent_loss() {
    let mut c = swim_cluster(16, 911, 100, Dur::secs(5));
    let t0 = c.now();
    c.run_for(Dur::secs(30));
    let t = tally(&c, t0);
    assert_eq!(t.leaves, 0, "a live node was evicted from some view");
    assert_eq!(t.deaths, 0, "a live node was declared dead");
    // The loss rate is high enough that at least one probe window must
    // have gone silent; the refutation machinery is what kept the view
    // clean, so prove it actually ran.
    assert!(t.suspects > 0, "30 s at 10% loss produced no suspicion at all");
    assert!(t.refutes > 0, "suspicions formed but nobody refuted");
}

/// A live-but-unreachable node (total loss window shorter than the
/// suspicion timeout) is suspected, then refutes by incarnation bump
/// once packets flow again — and is never evicted.
#[test]
fn slow_node_refutes_suspicion() {
    let mut c = swim_cluster(8, 417, 0, Dur::secs(5));
    let t0 = c.now();
    // Black out the network long enough for probe windows to expire
    // (ack_timeout·3 = 180 ms at fast_test) but well short of the
    // 1.6 s suspicion window, then restore it.
    c.sim.set_loss(1000, 99);
    c.run_for(Dur::millis(600));
    c.sim.set_loss(0, 99);
    c.run_for(Dur::secs(10));
    let t = tally(&c, t0);
    assert!(t.suspects > 0, "a 600 ms blackout formed no suspicion");
    assert!(t.refutes > 0, "no node refuted its suspicion after the blackout");
    assert_eq!(t.leaves, 0, "a refutable suspicion still led to eviction");
    assert_eq!(t.deaths, 0);
}

/// Crash one of 500 providers: every survivor detects the death within
/// a bounded number of suspicion windows, lossless case.
#[test]
fn detection_latency_bounded_at_500_providers() {
    let n = 500;
    // Warm up until every view has admitted every provider: payload
    // knowledge spreads by anti-entropy pulls, ~log2(n) rounds of 2 s.
    let mut c = swim_cluster(n, 2026, 0, Dur::secs(30));
    let (t_kill, detections) = crash_and_detect(&mut c, n / 2, Dur::secs(20));
    // Budget: up to one probe interval until someone probes the victim,
    // a full probe window, the 1.6 s suspicion window plus the
    // last-chance grace, then ~log₂(500) ≈ 9 gossip rounds to spread
    // the confirmation. ~4.5 s at fast_test timings; allow 2× slack.
    let bound = Dur::secs(9);
    let worst = Dur::nanos(*detections.last().unwrap());
    assert!(
        worst <= bound,
        "slowest survivor took {} ms, bound {} ms",
        worst.as_nanos() / 1_000_000,
        bound.as_nanos() / 1_000_000
    );
    let t = tally(&c, t_kill);
    assert_eq!(t.leaves, (n - 1) as u64, "exactly one eviction per survivor");
}

/// Dissemination is bounded: once the first survivor confirms the
/// death, the verdict reaches every other survivor within a bounded
/// number of gossip rounds (it must not trickle via anti-entropy).
#[test]
fn gossip_convergence_within_bounded_rounds() {
    let n = 100;
    let mut c = swim_cluster(n, 3141, 0, Dur::secs(30));
    let (_, detections) = crash_and_detect(&mut c, n / 3, Dur::secs(20));
    let spread_ms = (detections[detections.len() - 1] - detections[0]) / 1_000_000;
    // log₂(100) ≈ 6.6 rounds of 200 ms ≈ 1.3 s; independent suspicion
    // timers add at most one more window. Allow 2× slack over that.
    assert!(spread_ms <= 6_000, "dissemination took {spread_ms} ms first-to-last");
}

/// Crash one of 32 providers under 10% loss, once per indirect-probe
/// fan-out k: every survivor still evicts the victim within the
/// 500-provider test's 9 s bound, and no live node is evicted.
#[test]
fn crash_is_detected_under_ten_percent_loss_at_every_fanout() {
    let n = 32;
    for k in [1usize, 2, 4] {
        let mut costs = CostModel::fast_test();
        costs.swim_indirect_k = k;
        let mut c = swim_builder(n, 7200 + k as u64, costs, Dur::secs(5))
            .loss(100, 0xDEC0DE + k as u64)
            .build();
        let (t_kill, ns) = crash_and_detect(&mut c, n / 2, Dur::secs(30));
        let (p50, max) = (ns[ns.len() / 2] / 1_000_000, ns[ns.len() - 1] / 1_000_000);
        let t = tally(&c, t_kill);
        println!(
            "k={k}: detect p50 {p50} ms, max {max} ms, {} suspicions / {} refutations",
            t.suspects, t.refutes
        );
        assert!(ns[0] > 0 && max < 9_000, "k={k}: detections took {ns:?} ns");
        assert_eq!(t.leaves, (n - 1) as u64, "k={k}: a live node was evicted");
    }
}
