//! Replication integration tests: home-host-driven lazy propagation and
//! degree repair (§3.6), eager commitment, and recovery after failures.

use sorrento::client::{ClientOp, SorrentoClient};
use sorrento::cluster::{Cluster, ClusterBuilder, ScriptedWorkload};
use sorrento::costs::CostModel;
use sorrento::namespace::NamespaceServer;
use sorrento::proto::Msg;
use sorrento::provider::StorageProvider;
use sorrento::types::{FileOptions, SegId, Version};
use sorrento_sim::{Ctx, Dur, Node, NodeConfig, NodeId, Simulation};

fn cluster(providers: usize, replication: u32, seed: u64) -> Cluster {
    ClusterBuilder::new()
        .providers(providers)
        .replication(replication)
        .seed(seed)
        .costs(CostModel::fast_test())
        .build()
}

fn patterned(len: usize, seed: u8) -> Vec<u8> {
    (0..len).map(|i| (i as u8).wrapping_mul(13) ^ seed).collect()
}

/// Every segment eventually reaches its replication degree through the
/// home hosts' repair path, with replicas on distinct providers.
#[test]
fn lazy_repair_reaches_degree() {
    let mut c = cluster(5, 3, 21);
    let id = c.add_client(ScriptedWorkload::new(vec![
        ClientOp::Create { path: "/r3".into() },
        ClientOp::write_bytes(0, patterned(300_000, 1)),
        ClientOp::Close,
    ]));
    c.run_for(Dur::secs(60));
    assert_eq!(c.client_stats(id).unwrap().failed_ops, 0);
    let ownership = c.segment_ownership();
    assert!(!ownership.is_empty());
    for (seg, owners) in &ownership {
        assert_eq!(owners.len(), 3, "{seg:?} has owners {owners:?}");
        // All replicas at the same (latest) version.
        let versions: Vec<Version> = owners.iter().map(|(_, v)| *v).collect();
        assert!(versions.windows(2).all(|w| w[0] == w[1]), "{versions:?}");
        // Replica sites are distinct providers.
        let mut sites: Vec<_> = owners.iter().map(|(p, _)| *p).collect();
        sites.sort();
        sites.dedup();
        assert_eq!(sites.len(), 3);
    }
}

/// After a new commit, stale replicas are lazily synchronized to the new
/// version by the home host.
#[test]
fn stale_replicas_catch_up_after_commit() {
    let mut c = cluster(4, 2, 22);
    let id = c.add_client(ScriptedWorkload::new(vec![
        ClientOp::Create { path: "/f".into() },
        ClientOp::write_bytes(0, patterned(200_000, 1)),
        ClientOp::Close,
        // Let replication settle, then advance the version.
        ClientOp::Think { dur: Dur::secs(30) },
        ClientOp::Open { path: "/f".into(), write: true },
        ClientOp::write_bytes(0, patterned(200_000, 9)),
        ClientOp::Close,
    ]));
    c.run_for(Dur::secs(120));
    assert_eq!(c.client_stats(id).unwrap().failed_ops, 0);
    for (seg, owners) in c.segment_ownership() {
        assert_eq!(owners.len(), 2, "{seg:?}: {owners:?}");
        let max = owners.iter().map(|(_, v)| *v).max().unwrap();
        for (p, v) in owners {
            assert_eq!(v, max, "stale replica on {p:?} for {seg:?}");
        }
    }
}

/// Eager (synchronous) commitment returns only after the replicas exist:
/// immediately after close, the degree is already met.
#[test]
fn eager_commit_replicates_synchronously() {
    let mut c = cluster(4, 1, 23);
    let options = FileOptions {
        replication: 2,
        eager_commit: true,
        ..FileOptions::default()
    };
    let id = c.add_client(ScriptedWorkload::new(vec![
        ClientOp::CreateWith { path: "/eager".into(), options },
        ClientOp::write_bytes(0, patterned(150_000, 2)),
        ClientOp::Close,
    ]));
    // Run only until the client finishes, not long enough for lazy repair
    // scans to matter (fast_test scan = 1 s, but eager should not need it).
    loop {
        c.run_for(Dur::millis(200));
        if c.client_stats(id).unwrap().finished_at.is_some() {
            break;
        }
        assert!(c.now().as_secs_f64() < 200.0, "client never finished");
    }
    assert_eq!(c.client_stats(id).unwrap().failed_ops, 0);
    for (seg, owners) in c.segment_ownership() {
        assert!(owners.len() >= 2, "{seg:?} under-replicated: {owners:?}");
    }
}

/// At r = 3 on three providers the client's eager pushes and the home
/// host's own repair requests name the same (segment, site) pairs. The
/// later request must ride on the fetch already queued — one fetch, every
/// requester answered — not be dropped with its ack, which left `close`
/// waiting out `rpc_timeout`.
#[test]
fn eager_commit_acks_survive_fetch_dedup() {
    let mut c = cluster(3, 1, 25);
    let options = FileOptions { replication: 3, eager_commit: true, ..FileOptions::default() };
    let id = c.add_client(ScriptedWorkload::new(vec![
        ClientOp::CreateWith { path: "/eager3".into(), options },
        ClientOp::write_bytes(0, patterned(150_000, 5)),
        ClientOp::Close,
    ]));
    // Long enough for the repair scans to have had their say as well.
    c.run_for(Dur::secs(10));
    let stats = c.client_stats(id).unwrap();
    assert_eq!((stats.completed_ops, stats.failed_ops), (3, 0), "{:?}", stats.last_error);
    let (_, close) = stats.latencies.iter().find(|(kind, _)| *kind == "close").unwrap();
    assert!(*close < c.costs().rpc_timeout, "close took {close:?}");
    assert_eq!(c.metrics().counter_labeled("client.timeout", "eager_sync"), 0);
    let ownership = c.segment_ownership();
    assert!(!ownership.is_empty());
    for (seg, owners) in &ownership {
        assert_eq!(owners.len(), 3, "{seg:?}: {owners:?}");
    }
    // Two extra sites per segment, each installed by exactly one fetch.
    let installs: u64 =
        c.providers().iter().map(|&p| c.provider_ref(p).unwrap().installs_done).sum();
    assert_eq!(installs, 2 * ownership.len() as u64);
}

/// A provider that notes the size hint of every eager-sync request a
/// client sends it (`req` 0 is a home host's repair, not a client's).
struct SyncSpy {
    inner: StorageProvider,
    hints: Vec<(SegId, u64)>,
}

impl Node<Msg> for SyncSpy {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.inner.on_start(ctx)
    }

    fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        if let Msg::SyncRequest { req, seg, bytes_hint, .. } = &msg {
            if *req != 0 {
                self.hints.push((*seg, *bytes_hint));
            }
        }
        self.inner.on_message(from, msg, ctx)
    }

    fn on_crash(&mut self) {
        self.inner.on_crash()
    }
}

/// An eager push names what the target will fetch: the segment as
/// committed. The hint sizes the target's fetch timeout, and its fetches
/// run one at a time, so a 64 MiB hint for a 150 KB file let one lost
/// `FetchSeg` hold that queue for `4 × rpc_timeout + 64 MiB ÷ 250 KB/s`.
#[test]
fn eager_sync_hints_are_the_committed_segment_lengths() {
    let costs = CostModel::fast_test();
    let mut sim = Simulation::new(28);
    let ns = sim.add_node(NamespaceServer::new(costs), NodeConfig::default());
    let providers: Vec<NodeId> = (0..3u32)
        .map(|i| {
            let inner = StorageProvider::new(costs, 2).with_rack(i);
            sim.add_node(SyncSpy { inner, hints: Vec::new() }, NodeConfig::default().on_machine(i))
        })
        .collect();
    sim.run_for(Dur::secs(5));
    let options = FileOptions { replication: 2, eager_commit: true, ..FileOptions::default() };
    let ops = vec![
        ClientOp::CreateWith { path: "/hinted".into(), options },
        ClientOp::write_bytes(0, patterned(150_000, 8)),
        ClientOp::Close,
    ];
    let client = SorrentoClient::new(ns, costs, Box::new(ScriptedWorkload::new(ops)));
    let id = sim.add_node(client, NodeConfig::default());
    sim.run_for(Dur::secs(10));
    let stats = &sim.node_ref::<SorrentoClient>(id).unwrap().stats;
    assert_eq!((stats.completed_ops, stats.failed_ops), (3, 0), "{:?}", stats.last_error);

    let spies: Vec<&SyncSpy> = providers.iter().map(|&p| sim.node_ref(p).unwrap()).collect();
    let hints: Vec<(SegId, u64)> = spies.iter().flat_map(|s| s.hints.iter().copied()).collect();
    assert!(!hints.is_empty(), "no eager push was sent");
    for (seg, hint) in hints {
        let committed = spies.iter().find_map(|s| s.inner.store.seg_len(seg));
        assert_eq!(Some(hint), committed, "hint for {seg:?}");
    }
}

/// Losing a provider must re-create the lost replicas elsewhere (the
/// Figure 13 recovery path) while reads keep succeeding.
#[test]
fn provider_failure_restores_replication_degree() {
    let mut c = cluster(5, 2, 24);
    let writer = c.add_client(ScriptedWorkload::new(vec![
        ClientOp::Create { path: "/a".into() },
        ClientOp::write_bytes(0, patterned(400_000, 3)),
        ClientOp::Close,
        ClientOp::Create { path: "/b".into() },
        ClientOp::write_bytes(0, patterned(400_000, 4)),
        ClientOp::Close,
    ]));
    c.run_for(Dur::secs(60)); // fully replicated now
    assert_eq!(c.client_stats(writer).unwrap().failed_ops, 0);
    let before = c.segment_ownership();
    for owners in before.values() {
        assert_eq!(owners.len(), 2);
    }
    // Kill the provider holding the most segments.
    let victim = {
        let mut counts = std::collections::HashMap::new();
        for owners in before.values() {
            for (p, _) in owners {
                *counts.entry(*p).or_insert(0usize) += 1;
            }
        }
        *counts.iter().max_by_key(|(_, n)| **n).unwrap().0
    };
    c.crash_provider_at(c.now(), victim);
    // Reads during the outage must still succeed (other replica serves).
    let reader = c.add_client(ScriptedWorkload::new(vec![
        ClientOp::Open { path: "/a".into(), write: false },
        ClientOp::Read { offset: 0, len: 400_000 },
        ClientOp::Close,
    ]));
    c.run_for(Dur::secs(90));
    let rs = c.client_stats(reader).unwrap();
    assert_eq!(rs.failed_ops, 0, "read during outage failed: {:?}", rs.last_error);
    assert_eq!(rs.last_read.as_deref(), Some(&patterned(400_000, 3)[..]));
    // Degree restored on the survivors.
    for (seg, owners) in c.segment_ownership() {
        assert!(owners.len() >= 2, "{seg:?} not re-replicated: {owners:?}");
        assert!(owners.iter().all(|(p, _)| *p != victim));
    }
}

/// A provider that restarts with stale on-disk data is brought back up to
/// date (the §2.2 "repair and reconnect" scenario: the system determines
/// what data are current and what are outdated).
#[test]
fn restarted_provider_with_stale_data_syncs() {
    let mut c = cluster(4, 2, 25);
    let writer = c.add_client(ScriptedWorkload::new(vec![
        ClientOp::Create { path: "/f".into() },
        ClientOp::write_bytes(0, patterned(250_000, 5)),
        ClientOp::Close,
        // Crash window, then a new version while the victim is down.
        ClientOp::Think { dur: Dur::secs(40) },
        ClientOp::Open { path: "/f".into(), write: true },
        ClientOp::write_bytes(1000, patterned(250_000, 6)),
        ClientOp::Close,
    ]));
    c.run_for(Dur::secs(30)); // replicated at v1
    let before = c.segment_ownership();
    let victim = before.values().next().unwrap()[0].0;
    let crash_at = c.now();
    c.crash_provider_at(crash_at, victim);
    c.run_for(Dur::secs(60)); // v2 committed while victim down
    c.restart_provider_at(c.now(), victim);
    c.run_for(Dur::secs(120));
    assert_eq!(c.client_stats(writer).unwrap().failed_ops, 0);
    // Every replica everywhere converged to the same latest version.
    for (seg, owners) in c.segment_ownership() {
        let max = owners.iter().map(|(_, v)| *v).max().unwrap();
        for (p, v) in owners {
            assert_eq!(v, max, "{seg:?} stale on {p:?}");
        }
    }
    // And the data is correct when read back.
    let mut expect = patterned(250_000, 5);
    let tail = patterned(250_000, 6);
    expect.resize(1000 + 250_000, 0);
    expect[1000..].copy_from_slice(&tail);
    let reader = c.add_client(ScriptedWorkload::new(vec![
        ClientOp::Open { path: "/f".into(), write: false },
        ClientOp::Read { offset: 0, len: expect.len() as u64 },
        ClientOp::Close,
    ]));
    c.run_for(Dur::secs(30));
    let rs = c.client_stats(reader).unwrap();
    assert_eq!(rs.failed_ops, 0);
    assert_eq!(rs.last_read.as_deref(), Some(&expect[..]));
}

/// Replication degree 1 means exactly one owner per segment — the repair
/// path must not over-replicate.
#[test]
fn degree_one_never_over_replicates() {
    let mut c = cluster(4, 1, 26);
    let id = c.add_client(ScriptedWorkload::new(vec![
        ClientOp::Create { path: "/single".into() },
        ClientOp::write_bytes(0, patterned(300_000, 7)),
        ClientOp::Close,
    ]));
    c.run_for(Dur::secs(60));
    assert_eq!(c.client_stats(id).unwrap().failed_ops, 0);
    for (seg, owners) in c.segment_ownership() {
        assert_eq!(owners.len(), 1, "{seg:?} over-replicated: {owners:?}");
    }
}

/// Rack-aware replica placement (the §3.7.2 planned GoogleFS-style
/// extension): with providers spread over racks, repair places replicas
/// on distinct racks whenever possible.
#[test]
fn replicas_spread_across_racks() {
    let mut c = ClusterBuilder::new()
        .providers(6)
        .replication(2)
        .racks(3) // providers 0..6 → racks 0,1,2,0,1,2
        .seed(27)
        .costs(CostModel::fast_test())
        .build();
    let mut ops = Vec::new();
    for i in 0..10 {
        ops.push(ClientOp::Create { path: format!("/r{i}") });
        ops.push(ClientOp::write_bytes(0, patterned(150_000, i as u8)));
        ops.push(ClientOp::Close);
    }
    let w = c.add_client(ScriptedWorkload::new(ops));
    c.run_for(Dur::secs(90));
    assert_eq!(c.client_stats(w).unwrap().failed_ops, 0);
    let rack_of = |p: sorrento_sim::NodeId| -> u32 {
        let idx = c.providers().iter().position(|&q| q == p).unwrap();
        (idx % 3) as u32
    };
    let mut cross_rack = 0;
    let mut total = 0;
    for (seg, owners) in c.segment_ownership() {
        assert_eq!(owners.len(), 2, "{seg:?}: {owners:?}");
        total += 1;
        let r0 = rack_of(owners[0].0);
        let r1 = rack_of(owners[1].0);
        if r0 != r1 {
            cross_rack += 1;
        }
    }
    // The original (first) replica is placed without rack knowledge, but
    // every repair-created second replica must land on a different rack.
    assert_eq!(
        cross_rack, total,
        "{cross_rack}/{total} segment pairs span racks"
    );
}
