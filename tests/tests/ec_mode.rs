//! Erasure-coding integration tests: striped EC commit with parity,
//! degraded reads through Reed-Solomon reconstruction, and shard repair
//! after provider loss — first in the seeded simulator, then as a
//! loopback TCP chaos drill (`make ec-smoke`).

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use sorrento::api::FsScript;
use sorrento::client::ClientOp;
use sorrento::cluster::{Cluster, ClusterBuilder, ScriptedWorkload};
use sorrento::costs::CostModel;
use sorrento::types::{Error, FileOptions, SegId};
use sorrento_json::Json;
use sorrento_net::chaos::ChaosConfig;
use sorrento_net::testkit::{created, payload, read_until, run_until, LoopbackCluster, Snapshot};
use sorrento_sim::{Dur, NodeId};

fn cluster(providers: usize, seed: u64) -> Cluster {
    ClusterBuilder::new()
        .providers(providers)
        .replication(2) // applies to the index segment only for EC files
        .seed(seed)
        .costs(CostModel::fast_test())
        .build()
}

fn patterned(len: usize, seed: u8) -> Vec<u8> {
    (0..len).map(|i| (i as u8).wrapping_mul(13) ^ seed).collect()
}

/// EC options with a replicated index segment (`FileOptions::replication`
/// governs the index alone for EC files; the shards are singly stored).
fn ec_options(k: u8, m: u8) -> FileOptions {
    FileOptions {
        replication: 2,
        ..FileOptions::erasure_coded(k, m, 4 << 20)
    }
}

/// Segments with exactly one owner are the EC shards (the index segment
/// is replicated); returns `(seg, owner)` pairs.
fn shard_sites(c: &Cluster) -> Vec<(SegId, NodeId)> {
    let mut v: Vec<(SegId, NodeId)> = c
        .segment_ownership()
        .into_iter()
        .filter(|(_, owners)| owners.len() == 1)
        .map(|(seg, owners)| (seg, owners[0].0))
        .collect();
    v.sort();
    v
}

/// Up to `n` providers that own shards but no replica of the index
/// segment — safe crash victims: killing them severs shards without
/// severing the file's index (which both degraded reads and the repair
/// scan need; shard loss with the index intact is exactly the failure
/// EC is specified to survive).
fn shard_only_victims(c: &Cluster, n: usize) -> Vec<NodeId> {
    let index_owners: Vec<NodeId> = c
        .segment_ownership()
        .into_iter()
        .filter(|(_, owners)| owners.len() > 1)
        .flat_map(|(_, owners)| owners.into_iter().map(|(p, _)| p))
        .collect();
    let mut victims: Vec<NodeId> = shard_sites(c)
        .iter()
        .map(|&(_, p)| p)
        .filter(|p| !index_owners.contains(p))
        .collect();
    victims.sort();
    victims.dedup();
    victims.truncate(n);
    victims
}

/// An EC(2,1) file written and read back through the normal path equals
/// the bytes written, and the commit materializes exactly k data + m
/// parity shards on distinct providers, each singly stored.
#[test]
fn ec_write_read_roundtrip_with_parity() {
    let mut c = cluster(5, 11);
    let data = patterned(300_000, 1);
    let options = ec_options(2, 1);
    let id = c.add_client(ScriptedWorkload::new(vec![
        ClientOp::CreateWith { path: "/ec".into(), options },
        ClientOp::write_bytes(0, data.clone()),
        ClientOp::Close,
        ClientOp::Open { path: "/ec".into(), write: false },
        ClientOp::Read { offset: 0, len: data.len() as u64 },
        ClientOp::Close,
    ]));
    c.run_for(Dur::secs(60));
    let st = c.client_stats(id).unwrap();
    assert_eq!(st.failed_ops, 0, "EC roundtrip failed: {:?}", st.last_error);
    assert_eq!(st.last_read.as_deref(), Some(&data[..]));
    // k + m = 3 singly-stored shards, all on distinct providers.
    let shards = shard_sites(&c);
    assert_eq!(shards.len(), 3, "expected 3 shards: {shards:?}");
    let mut sites: Vec<NodeId> = shards.iter().map(|&(_, p)| p).collect();
    sites.sort();
    sites.dedup();
    assert_eq!(sites.len(), 3, "shards share a provider: {shards:?}");
}

/// Rewriting an EC file re-encodes parity: the read after the second
/// commit sees the second contents.
#[test]
fn ec_rewrite_reencodes_parity() {
    let mut c = cluster(6, 12);
    let first = patterned(200_000, 3);
    let second = patterned(260_000, 7);
    let options = ec_options(3, 2);
    let id = c.add_client(ScriptedWorkload::new(vec![
        ClientOp::CreateWith { path: "/ec2".into(), options },
        ClientOp::write_bytes(0, first),
        ClientOp::Close,
        ClientOp::Open { path: "/ec2".into(), write: true },
        ClientOp::write_bytes(0, second.clone()),
        ClientOp::Close,
        ClientOp::Open { path: "/ec2".into(), write: false },
        ClientOp::Read { offset: 0, len: second.len() as u64 },
        ClientOp::Close,
    ]));
    c.run_for(Dur::secs(90));
    let st = c.client_stats(id).unwrap();
    if st.failed_ops > 0 {
        for &(span, kind) in &st.failed_spans {
            eprintln!("failed op kind={kind}\n{}", c.trace_op(span));
        }
    }
    assert_eq!(st.failed_ops, 0, "EC rewrite failed: {:?}", st.last_error);
    assert_eq!(st.last_read.as_deref(), Some(&second[..]));
}

/// With shard holders dead (up to m of them), reads reconstruct the
/// missing shards inline from the k survivors.
#[test]
fn ec_degraded_read_survives_m_failures() {
    let mut c = cluster(8, 13);
    let data = patterned(500_000, 5);
    let options = ec_options(4, 2);
    let writer = c.add_client(ScriptedWorkload::new(vec![
        ClientOp::CreateWith { path: "/big".into(), options },
        ClientOp::write_bytes(0, data.clone()),
        ClientOp::Close,
    ]));
    c.run_for(Dur::secs(30));
    assert_eq!(c.client_stats(writer).unwrap().failed_ops, 0);
    let shards = shard_sites(&c);
    assert_eq!(shards.len(), 6);
    // Kill two shard holders (m = 2 losses), keeping the index alive.
    let victims = shard_only_victims(&c, 2);
    assert_eq!(victims.len(), 2, "shards under-spread: {shards:?}");
    for &v in &victims {
        c.crash_provider_at(c.now(), v);
    }
    let reader = c.add_client(ScriptedWorkload::new(vec![
        ClientOp::Open { path: "/big".into(), write: false },
        ClientOp::Read { offset: 0, len: data.len() as u64 },
        ClientOp::Close,
    ]));
    c.run_for(Dur::secs(60));
    let st = c.client_stats(reader).unwrap();
    assert_eq!(st.failed_ops, 0, "degraded read failed: {:?}", st.last_error);
    assert_eq!(st.last_read.as_deref(), Some(&data[..]));
}

/// A session over a committed EC file that leaves some of its bytes
/// unwritten is refused at close: those bytes stay in the data shards,
/// so parity encoded from the session's writes alone would decode them
/// as zeros once the shards holding them are lost. Nothing of the
/// session is committed, and the previous version reads back, healthy
/// and degraded.
#[test]
fn ec_partial_rewrite_is_refused_and_the_committed_file_survives() {
    let mut c = cluster(8, 21);
    let data = patterned(512 * 1024, 4);
    let writer = c.add_client(ScriptedWorkload::new(vec![
        ClientOp::CreateWith { path: "/part".into(), options: ec_options(4, 2) },
        ClientOp::write_bytes(0, data.clone()),
        ClientOp::Close,
        ClientOp::Open { path: "/part".into(), write: true },
        ClientOp::write_bytes(0, vec![0xEE; 100]),
        ClientOp::Close,
    ]));
    c.run_for(Dur::secs(30));
    let st = c.client_stats(writer).unwrap();
    assert_eq!(st.failed_ops, 1, "the partial rewrite was committed");
    assert_eq!(st.last_error, Some(Error::InvalidMode));
    let read = || {
        ScriptedWorkload::new(vec![
            ClientOp::Open { path: "/part".into(), write: false },
            ClientOp::Read { offset: 0, len: data.len() as u64 },
            ClientOp::Close,
        ])
    };
    let healthy = c.add_client(read());
    c.run_for(Dur::secs(30));
    let st = c.client_stats(healthy).unwrap();
    assert_eq!(st.failed_ops, 0, "healthy read failed: {:?}", st.last_error);
    assert!(st.last_read.as_deref() == Some(&data[..]), "healthy read differs");
    let victims = shard_only_victims(&c, 2);
    assert_eq!(victims.len(), 2, "shards under-spread");
    for &v in &victims {
        c.crash_provider_at(c.now(), v);
    }
    let degraded = c.add_client(read());
    c.run_for(Dur::secs(60));
    let st = c.client_stats(degraded).unwrap();
    assert_eq!(st.failed_ops, 0, "degraded read failed: {:?}", st.last_error);
    assert!(st.last_read.as_deref() == Some(&data[..]), "degraded read differs");
}

/// After shard loss, the index holder reconstructs the lost shards from
/// survivors and installs them on fresh providers: the full k + m shard
/// count returns, on distinct live providers, and the data still reads
/// back exactly.
#[test]
fn ec_repair_restores_full_shard_count() {
    let mut c = cluster(9, 14);
    let data = patterned(400_000, 9);
    let options = ec_options(4, 2);
    let writer = c.add_client(ScriptedWorkload::new(vec![
        ClientOp::CreateWith { path: "/heal".into(), options },
        ClientOp::write_bytes(0, data.clone()),
        ClientOp::Close,
    ]));
    c.run_for(Dur::secs(30));
    assert_eq!(c.client_stats(writer).unwrap().failed_ops, 0);
    let before = shard_sites(&c);
    assert_eq!(before.len(), 6);
    let victims = shard_only_victims(&c, 2);
    assert_eq!(victims.len(), 2, "shards under-spread: {before:?}");
    for &v in &victims {
        c.crash_provider_at(c.now(), v);
    }
    // Death declaration + repair scan + reconstruct + install.
    c.run_for(Dur::secs(120));
    let after = shard_sites(&c);
    let before_segs: Vec<SegId> = before.iter().map(|&(s, _)| s).collect();
    let after_segs: Vec<SegId> = after.iter().map(|&(s, _)| s).collect();
    let counters = [
        "provider.ec_repairs",
        "provider.ec_repair_aborts",
        "provider.ec_repair_timeouts",
        "provider.ec_unrecoverable",
    ]
    .map(|k| (k, c.metrics().counter(k)));
    assert_eq!(
        after_segs, before_segs,
        "repair did not restore every shard: {after:?} ({counters:?})"
    );
    for &(seg, p) in &after {
        assert!(!victims.contains(&p), "{seg:?} still on dead {p:?}");
    }
    let repaired: u64 = c
        .providers()
        .iter()
        .filter_map(|&p| c.provider_ref(p))
        .map(|prov| prov.ec_repairs_done)
        .sum();
    assert!(repaired >= 2, "no provider drove the EC repair");
    // The healed file reads back without reconstruction pressure.
    let reader = c.add_client(ScriptedWorkload::new(vec![
        ClientOp::Open { path: "/heal".into(), write: false },
        ClientOp::Read { offset: 0, len: data.len() as u64 },
        ClientOp::Close,
    ]));
    c.run_for(Dur::secs(60));
    let st = c.client_stats(reader).unwrap();
    assert_eq!(st.failed_ops, 0, "post-repair read failed: {:?}", st.last_error);
    assert_eq!(st.last_read.as_deref(), Some(&data[..]));
}

/// Losing more than m shard holders is unrecoverable — the repair path
/// must recognize that and not thrash (no hang, no bogus installs).
#[test]
fn ec_more_than_m_losses_is_detected_not_thrashed() {
    let mut c = cluster(9, 15);
    let options = ec_options(4, 2);
    let writer = c.add_client(ScriptedWorkload::new(vec![
        ClientOp::CreateWith { path: "/gone".into(), options },
        ClientOp::write_bytes(0, patterned(300_000, 2)),
        ClientOp::Close,
    ]));
    c.run_for(Dur::secs(30));
    assert_eq!(c.client_stats(writer).unwrap().failed_ops, 0);
    let shards = shard_sites(&c);
    let victims = shard_only_victims(&c, 3); // m + 1 losses
    // Only meaningful when the shards actually spread over ≥ 3 nodes.
    assert!(victims.len() >= 3, "shards under-spread: {shards:?}");
    for &v in &victims {
        c.crash_provider_at(c.now(), v);
    }
    c.run_for(Dur::secs(120));
    assert!(
        c.metrics().counter("provider.ec_unrecoverable") >= 1,
        "unrecoverable loss never classified"
    );
    assert_eq!(
        c.metrics().counter("provider.ec_repairs"),
        0,
        "repair installed shards it could not have reconstructed"
    );
}

// ---------------------------------------------------------------------
// Loopback TCP drill (`make ec-smoke`): a real 8-provider cluster under
// deterministic frame chaos writes an EC(4,2) file, two shard holders
// are killed abruptly, reads must reconstruct through the loss, and the
// repair scan must restore the full k + m shard count on live disks —
// with no client ever hanging.
// ---------------------------------------------------------------------

const DRILL_DEADLINE: Duration = Duration::from_secs(90);
/// The fixed drill seeds (`make ec-smoke` runs exactly these).
const DRILL_SEEDS: [u64; 2] = [21, 1105];
const PROVIDERS: usize = 10;

/// `fast_test` timing with a much shorter location-refresh cycle: the
/// drill restarts the whole fleet (wiping every soft-state location
/// table), and repair decisions should run against warm tables rather
/// than burn the drill deadline waiting out a 30 s refresh stagger.
fn drill_costs() -> CostModel {
    CostModel {
        refresh_interval: sorrento_sim::Dur::secs(3),
        join_refresh_delay_max: sorrento_sim::Dur::secs(1),
        location_gc_age: sorrento_sim::Dur::secs(20),
        ..CostModel::fast_test()
    }
}

/// Whether every running provider has been up for at least `age`: what
/// a provider's timers do a fixed time after boot (the first full
/// location refresh, staggered over one `refresh_interval`; a repair
/// scan every `repair_scan_interval`) has then happened on all of them.
fn up_for(cluster: &LoopbackCluster, s: &Snapshot, age: Dur) -> bool {
    let old_enough = |doc: &Json| {
        doc.get("uptime_ms").and_then(Json::as_u64).is_some_and(|ms| ms * 1_000_000 >= age.as_nanos())
    };
    cluster.providers().filter_map(|i| s.node(i)).all(old_enough)
}

fn run_ec_drill(seed: u64) {
    let base = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("ec-drill-{seed}"));
    let _ = std::fs::remove_dir_all(&base);

    // Node 0 is the namespace server; every provider persists under
    // `base`.
    let mut cluster = LoopbackCluster::builder(PROVIDERS)
        .data_root(&base)
        .each_daemon(|i, cfg| {
            cfg.seed = 300 + i as u64;
            cfg.costs = drill_costs();
        })
        .boot()
        .expect("boot loopback cluster");
    let mut cfg = cluster.ctl();
    cfg.replication = 2;
    cfg.rpc_resends = 2;
    cfg.op_deadline_ms = Some(20_000);

    // Mild deterministic chaos on every daemon: the EC commit is a wide
    // 2PC (k + m shards plus the index), so the drop rate is kept low
    // enough that convergence loops, not luck, absorb the loss.
    for i in cluster.nodes() {
        let chaos = ChaosConfig {
            seed: seed ^ i as u64,
            drop_permille: 30,
            dup_permille: 30,
            delay_permille: 20,
            delay: Duration::from_millis(2),
            partition: Vec::new(),
        };
        cluster.chaos(i, &chaos).expect("install chaos rules");
    }

    // Create the EC(4,2) file (index replicated ×2), then write 256 KiB
    // — 64 KiB per data shard once striped over k = 4.
    let data = payload(256 * 1024);
    let options = FileOptions { replication: 2, ..FileOptions::erasure_coded(4, 2, 64 << 20) };
    let create = |fs: &mut FsScript| {
        let h = fs.create_with("/ec-drill", options).unwrap();
        fs.close(h).unwrap();
    };
    let what = format!("seed {seed}: EC create under chaos");
    run_until(&cfg, PROVIDERS, DRILL_DEADLINE, &what, create, created).unwrap();
    let write = |fs: &mut FsScript| {
        let h = fs.open("/ec-drill", true).unwrap();
        fs.write(h, 0, data.clone()).unwrap();
        fs.close(h).unwrap();
    };
    let what = format!("seed {seed}: EC write under chaos");
    run_until(&cfg, PROVIDERS, DRILL_DEADLINE, &what, write, |out| out.stats.failed_ops == 0)
        .unwrap();
    read_until(&cfg, "/ec-drill", &data, PROVIDERS, DRILL_DEADLINE, "EC read under chaos").unwrap();

    // Stop every provider cleanly (each stop persists its segments) and
    // classify the disks: segments held by ≥ 2 disks are the replicated
    // index segment; single-copy segments are EC shards. A chaos-dropped
    // index write is topped up asynchronously by the repair scan, so the
    // settled layout — six single-copy shards plus one replicated index
    // — may lag the successful read: cycle the fleet until the disks
    // show it. Victims must hold a shard and no index replica — shard
    // loss with the index intact is exactly the failure EC(4,2) is
    // specified to survive.
    let disk_segs = |cluster: &LoopbackCluster, i: usize| -> BTreeSet<SegId> {
        cluster.disk_images(i).expect("provider disk").iter().map(|x| x.image.seg).collect()
    };
    let deadline = Instant::now() + DRILL_DEADLINE;
    let (per_dir, copies) = loop {
        for i in cluster.providers() {
            cluster.stop(i).expect("clean stop");
        }
        let per_dir: BTreeMap<usize, BTreeSet<SegId>> =
            cluster.providers().map(|i| (i, disk_segs(&cluster, i))).collect();
        let mut copies: BTreeMap<SegId, usize> = BTreeMap::new();
        for seg in per_dir.values().flatten() {
            *copies.entry(*seg).or_insert(0) += 1;
        }
        let shards = copies.values().filter(|&&c| c == 1).count();
        let replicated = copies.values().filter(|&&c| c >= 2).count();
        if shards == 6 && replicated == 1 {
            break (per_dir, copies);
        }
        assert!(
            Instant::now() < deadline,
            "seed {seed}: EC layout never settled on disk: {copies:?}"
        );
        for i in cluster.providers() {
            cluster.restart(i).expect("restart provider while layout settles");
        }
        // Before the next audit: every provider's staggered location
        // refresh, a repair-scan round against the refreshed tables, and
        // the replica count that round should restore (six shards, two
        // index copies) — or the six seconds this always got.
        let settle = cfg.costs.refresh_interval + cfg.costs.repair_scan_interval;
        let _ = cluster.wait("a refresh, a repair scan and 8 replicas", Duration::from_secs(6), |s| {
            up_for(&cluster, s, settle) && s.replicas_held() >= 8.0
        });
    };
    let victims: Vec<usize> = per_dir
        .iter()
        .filter(|(_, segs)| !segs.is_empty() && segs.iter().all(|seg| copies[seg] == 1))
        .map(|(&node, _)| node)
        .take(2)
        .collect();
    assert_eq!(victims.len(), 2, "seed {seed}: no shard-only victims: {copies:?}");

    // Restart the full cluster on the same addresses, prove it serves,
    // then abruptly kill the two victims mid-run — no final persistence
    // sweep, no goodbye.
    for i in cluster.providers() {
        cluster.restart(i).expect("restart provider");
    }
    read_until(&cfg, "/ec-drill", &data, PROVIDERS, DRILL_DEADLINE, "EC read after restart").unwrap();
    // Let every provider's staggered location refresh fire once, so the
    // repair scan later classifies loss against warm tables instead of
    // mistaking a cold table for a dead shard.
    let _ = cluster.wait("every provider's first location refresh", Duration::from_secs(7), |s| {
        up_for(&cluster, s, cfg.costs.refresh_interval)
    });
    for &v in &victims {
        cluster.kill(v).expect("abrupt kill");
    }
    let survivors: Vec<usize> = cluster.providers().filter(|i| !victims.contains(i)).collect();

    // Degraded read: two shards are gone, so the bytes must come back
    // through Reed-Solomon reconstruction from the four survivors.
    let read = |what: &str| {
        read_until(&cfg, "/ec-drill", &data, survivors.len(), DRILL_DEADLINE, what).unwrap()
    };
    read("EC degraded read");

    // Repair, first pass: the live fleet's replica count returns to at
    // least 8 (6 shards + 2 index copies). The gauge can over-count — a
    // scan racing cold location tables may install a harmless extra copy
    // before the true losses are declared dead — so this is a cheap
    // wait, not the verdict.
    let mut held = 0.0;
    cluster
        .wait("EC repair restoring the shard count", DRILL_DEADLINE, |s| {
            held = s.replicas_held();
            held >= 8.0
        })
        .unwrap_or_else(|e| panic!("seed {seed}: {e} ({held} replicas held)"));
    read("EC read after repair");

    // Repair, ground truth: every segment of the file — all six shards
    // and the index — must end up on a live (non-victim) provider's
    // disk. Stop the survivors cleanly (persisting their stores), audit
    // the disks, and cycle them back up until the audit passes: each
    // cycle gives the repair scan a fresh round against a settled view.
    let deadline = Instant::now() + DRILL_DEADLINE;
    loop {
        // Nothing a daemon exports says *which* shard an `ec.repair`
        // rebuilt: an extra copy of a shard that was never lost counts
        // like a repair, in the event counters and in the segments gauges
        // alike. So there is no sound event to cut this pause short on,
        // and a failed audit is expensive (the survivors come back cold).
        std::thread::sleep(Duration::from_secs(2));
        for &i in &survivors {
            cluster.stop(i).expect("clean shutdown");
        }
        let live: BTreeSet<SegId> =
            survivors.iter().flat_map(|&i| disk_segs(&cluster, i)).collect();
        let missing: Vec<&SegId> = copies.keys().filter(|seg| !live.contains(seg)).collect();
        if missing.is_empty() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "seed {seed}: EC repair never restored {missing:?} onto a live disk"
        );
        for &i in &survivors {
            cluster.restart(i).expect("restart survivor");
        }
        // The survivors come back with cold location tables, and EC
        // repair holds off until their homes have heard the owners' join
        // refreshes: give them a refresh and a repair scan, as the layout
        // loop above does, before the next pause and audit.
        let settle = cfg.costs.refresh_interval + cfg.costs.repair_scan_interval;
        let _ = cluster.wait("a refresh and a repair scan", Duration::from_secs(6), |s| {
            up_for(&cluster, s, settle)
        });
    }
    cluster.shutdown().expect("namespace shutdown");
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn ec_loopback_drill_converges_for_fixed_seeds() {
    for seed in DRILL_SEEDS {
        run_ec_drill(seed);
    }
}
