//! Metadata-plane integration tests: namespace sharding and the
//! WAL-shipped hot standby, end to end through the simulated cluster.
//!
//! The partition function is pure arithmetic, so tests *compute* which
//! directories land on which shard and then build paths that force
//! same-shard and cross-shard variants of every metadata operation.
//! Two tests are also experiments, and print their figures under
//! `--nocapture`: shard scaling and the standby's replay tail.

use rand::Rng;
use sorrento::client::ClientOp;
use sorrento::cluster::{Cluster, ClusterBuilder, FnWorkload, ScriptedWorkload};
use sorrento::costs::CostModel;
use sorrento::namespace::NamespaceServer;
use sorrento::nsmap::{shard_of_dir, shard_of_path};
use sorrento::types::FileId;
use sorrento_sim::{Dur, NodeId};

fn sharded_cluster(seed: u64, shards: u32) -> Cluster {
    ClusterBuilder::new()
        .providers(4)
        .seed(seed)
        .costs(CostModel::fast_test())
        .ns_shards(shards)
        .build()
}

fn run_script(cluster: &mut Cluster, ops: Vec<ClientOp>) -> sorrento::client::ClientStats {
    let id = cluster.add_client(ScriptedWorkload::new(ops));
    cluster.run_for(Dur::secs(300));
    cluster.client_stats(id).unwrap().clone()
}

/// Let at least one WAL shipment drain to the standby, crash shard
/// `k`'s primary, and give the standby time to miss its shipment
/// deadline.
fn crash_primary(cluster: &mut Cluster, k: usize) {
    cluster.run_for(Dur::secs(2));
    let primary = cluster.ns_shard_nodes()[k];
    let at = cluster.now() + Dur::millis(1);
    cluster.sim.crash_at(at, primary);
    cluster.run_for(Dur::secs(5));
}

/// A root-level directory name whose *own* shard (where its children
/// live) is `k`, under `n` shards.
fn dir_on_shard(k: u32, n: u32) -> String {
    (0..)
        .map(|i| format!("/d{i}"))
        .find(|d| shard_of_dir(d, n) == k)
        .unwrap()
}

#[test]
fn sharded_namespace_serves_the_full_metadata_vocabulary() {
    let mut cluster = sharded_cluster(21, 4);
    let mut ops = Vec::new();
    // One directory homed on every shard, with a file in each: exercises
    // mkdir stubs, create-in-dir, stat, ls and unlink on all four shards.
    for k in 0..4 {
        let d = dir_on_shard(k, 4);
        ops.push(ClientOp::Mkdir { path: d.clone() });
        ops.push(ClientOp::Create { path: format!("{d}/f") });
        ops.push(ClientOp::write_bytes(0, vec![k as u8; 256]));
        ops.push(ClientOp::Close);
        ops.push(ClientOp::Stat { path: format!("{d}/f") });
        ops.push(ClientOp::List { path: d.clone() });
    }
    let stats = run_script(&mut cluster, ops);
    assert_eq!(stats.failed_ops, 0, "last error: {:?}", stats.last_error);
    // Every shard holds at least its pre-created root; the directories
    // and files must have spread beyond one shard.
    let counts: Vec<usize> = (0..4)
        .map(|k| cluster.namespace_ref_of(k).unwrap().entry_count())
        .collect();
    assert!(counts.iter().all(|&c| c >= 1), "shard entry counts: {counts:?}");
    assert!(counts.iter().filter(|&&c| c > 1).count() >= 2, "no spread: {counts:?}");
}

#[test]
fn cross_shard_mkdir_rename_and_remove() {
    let n = 2;
    let mut cluster = sharded_cluster(22, n);
    // src dir and dst dir on *different* shards forces the rename
    // transfer handshake; a directory whose stub lives off-shard forces
    // the mkdir/remove handshakes.
    let d0 = dir_on_shard(0, n);
    let d1 = dir_on_shard(1, n);
    assert_ne!(shard_of_dir(&d0, n), shard_of_dir(&d1, n));
    // Root-level entries all live on shard_of_dir("/"); each directory's
    // children live on its own shard — so at least one of d0/d1 has its
    // entry and its child-set on different shards (cross-shard mkdir).
    let root_shard = shard_of_path(&d0, n);
    assert!(shard_of_dir(&d0, n) != root_shard || shard_of_dir(&d1, n) != root_shard);
    let stats = run_script(
        &mut cluster,
        vec![
            ClientOp::Mkdir { path: d0.clone() },
            ClientOp::Mkdir { path: d1.clone() },
            ClientOp::Create { path: format!("{d0}/f") },
            ClientOp::write_bytes(0, b"cross-shard".to_vec()),
            ClientOp::Close,
            // Cross-shard rename: the entry moves from d0's shard to d1's.
            ClientOp::Rename { src: format!("{d0}/f"), dst: format!("{d1}/g") },
            ClientOp::Stat { path: format!("{d1}/g") },
            // Data survives the metadata move.
            ClientOp::Open { path: format!("{d1}/g"), write: false },
            ClientOp::Read { offset: 0, len: 11 },
            ClientOp::Close,
            // Source is gone; source dir is now empty and removable
            // (check-empty + stub-drop handshake).
            ClientOp::Unlink { path: format!("{d1}/g") },
            ClientOp::Unlink { path: d0.clone() },
            ClientOp::Unlink { path: d1.clone() },
        ],
        );
    assert_eq!(stats.failed_ops, 0, "last error: {:?}", stats.last_error);
    assert_eq!(stats.last_read.as_deref(), Some(&b"cross-shard"[..]));
    // Everything except the pre-created roots is cleaned up again.
    for k in 0..n as usize {
        assert_eq!(cluster.namespace_ref_of(k).unwrap().entry_count(), 1);
    }
}

#[test]
fn stat_of_renamed_source_fails_and_dirs_refuse_rename() {
    let n = 2;
    let mut cluster = sharded_cluster(23, n);
    let d0 = dir_on_shard(0, n);
    let d1 = dir_on_shard(1, n);
    let stats = run_script(
        &mut cluster,
        vec![
            ClientOp::Mkdir { path: d0.clone() },
            ClientOp::Mkdir { path: d1.clone() },
            ClientOp::Create { path: format!("{d0}/f") },
            ClientOp::Close,
            ClientOp::Rename { src: format!("{d0}/f"), dst: format!("{d1}/g") },
            ClientOp::Stat { path: format!("{d0}/f") }, // gone from source shard
            ClientOp::Rename { src: d0.clone(), dst: format!("{d1}/sub") }, // dirs refuse
        ],
    );
    // Exactly the two deliberate failures.
    assert_eq!(stats.failed_ops, 2, "last error: {:?}", stats.last_error);
    assert_eq!(stats.completed_ops, 5);
}

/// The `ns_shards(1)` knob (and the absent knob) must be byte-identical:
/// same seed, same workload, same virtual-time event stream.
#[test]
fn single_shard_knob_is_byte_identical_to_default() {
    let run = |sharded_knob: bool| {
        let mut b = ClusterBuilder::new().providers(4).seed(77).costs(CostModel::fast_test());
        if sharded_knob {
            b = b.ns_shards(1);
        }
        let mut cluster = b.build();
        let ops = vec![
            ClientOp::Mkdir { path: "/w".into() },
            ClientOp::Create { path: "/w/a".into() },
            ClientOp::write_bytes(0, vec![7u8; 4096]),
            ClientOp::Close,
            ClientOp::Open { path: "/w/a".into(), write: false },
            ClientOp::Read { offset: 0, len: 4096 },
            ClientOp::Close,
            ClientOp::List { path: "/w".into() },
        ];
        let id = cluster.add_client(ScriptedWorkload::new(ops));
        cluster.run_for(Dur::secs(120));
        let stats = cluster.client_stats(id).unwrap();
        assert_eq!(stats.failed_ops, 0, "last error: {:?}", stats.last_error);
        let events: Vec<String> = cluster
            .sim
            .merged_events()
            .into_iter()
            .map(|(node, rec)| format!("{node} {} {}", rec.at.nanos(), rec.ev))
            .collect();
        (stats.clone().latencies, events)
    };
    let (lat_a, ev_a) = run(false);
    let (lat_b, ev_b) = run(true);
    assert_eq!(lat_a, lat_b);
    assert_eq!(ev_a, ev_b);
}

/// Kill a primary with an uncheckpointed WAL tail and fail over to its
/// standby, once per checkpoint interval. The standby replays at most
/// one interval of batches, and a coarser interval leaves a tail at
/// least as long.
#[test]
fn standby_takes_over_after_primary_crash() {
    // (checkpoint interval, extra files created after the seed script).
    // The seed script writes five WAL batches and every extra create +
    // close two more, so each run leaves a tail at the kill: 1 batch of
    // 4, 21 of 32, and 125 of 256.
    let mut replayed = Vec::new();
    for (every, extra) in [(4u64, 0usize), (32, 8), (256, 60)] {
        let mut cluster = ClusterBuilder::new()
            .providers(4)
            .seed(31)
            .costs(CostModel::fast_test())
            .ns_shards(1)
            .ns_standby(true)
            .ns_checkpoint_every(every)
            .build();
        // Seed some namespace state through the primary.
        let mut ops = vec![
            ClientOp::Mkdir { path: "/live".into() },
            ClientOp::Create { path: "/live/a".into() },
            ClientOp::write_bytes(0, b"survives failover".to_vec()),
            ClientOp::Close,
            ClientOp::Create { path: "/live/b".into() },
            ClientOp::Close,
        ];
        for m in 0..extra {
            ops.push(ClientOp::Create { path: format!("/live/m{m}") });
            ops.push(ClientOp::Close);
        }
        let stats = run_script(&mut cluster, ops);
        assert_eq!(stats.failed_ops, 0, "seed phase: {:?}", stats.last_error);
        crash_primary(&mut cluster, 0);
        // The standby noticed the missed shipment deadline and promoted.
        let standby = cluster.ns_standby_ref_of(0).unwrap();
        assert!(!standby.is_standby(), "standby never promoted");
        assert!(standby.entry_count() >= 4, "promoted with {} entries", standby.entry_count());
        assert!(
            (1..=every).contains(&(standby.failover_replayed as u64)),
            "checkpoint every {every}: replayed {} batches",
            standby.failover_replayed
        );
        println!("checkpoint every {every}: replayed {} WAL batches", standby.failover_replayed);
        replayed.push(standby.failover_replayed);
        assert_eq!(cluster.metrics().counter("ns.failovers"), 1);
        // A fresh client times out against the dead primary, flips its
        // route to the standby, and reads the pre-crash namespace and
        // data back.
        let stats = run_script(
            &mut cluster,
            vec![
                ClientOp::Stat { path: "/live/b".into() },
                ClientOp::Open { path: "/live/a".into(), write: false },
                ClientOp::Read { offset: 0, len: 17 },
                ClientOp::Close,
                ClientOp::Create { path: "/live/c".into() },
                ClientOp::Close,
            ],
        );
        assert_eq!(stats.failed_ops, 0, "post-failover: {:?}", stats.last_error);
        assert_eq!(stats.last_read.as_deref(), Some(&b"survives failover"[..]));
    }
    assert!(replayed.windows(2).all(|w| w[0] <= w[1]), "tail shrank: {replayed:?}");
}

#[test]
fn sharded_plane_with_standbys_survives_one_shard_loss() {
    let n = 2;
    let mut cluster = ClusterBuilder::new()
        .providers(4)
        .seed(33)
        .costs(CostModel::fast_test())
        .ns_shards(n)
        .ns_standby(true)
        .ns_checkpoint_every(8)
        .build();
    let d0 = dir_on_shard(0, n);
    let d1 = dir_on_shard(1, n);
    let stats = run_script(
        &mut cluster,
        vec![
            ClientOp::Mkdir { path: d0.clone() },
            ClientOp::Mkdir { path: d1.clone() },
            ClientOp::Create { path: format!("{d0}/f") },
            ClientOp::Close,
            ClientOp::Create { path: format!("{d1}/f") },
            ClientOp::Close,
        ],
    );
    assert_eq!(stats.failed_ops, 0, "seed phase: {:?}", stats.last_error);
    crash_primary(&mut cluster, 0); // shard 1 is untouched
    assert!(!cluster.ns_standby_ref_of(0).unwrap().is_standby());
    let stats = run_script(
        &mut cluster,
        vec![
            ClientOp::Stat { path: format!("{d0}/f") }, // failed-over shard
            ClientOp::Stat { path: format!("{d1}/f") }, // healthy shard
            ClientOp::Create { path: format!("{d0}/g") },
            ClientOp::Close,
        ],
    );
    assert_eq!(stats.failed_ops, 0, "post-failover: {:?}", stats.last_error);
}

fn shard_primary(c: &mut Cluster, k: usize) -> &mut NamespaceServer {
    let node = c.ns_shard_nodes()[k];
    c.sim.node_mut::<NamespaceServer>(node).expect("shard primary")
}

/// Metadata ops/s served by `shards` namespace shards: a preseeded
/// tree, 48 closed-loop clients on a 7/8 stat : 1/8 mkdir mix, a 1 s
/// ramp, then a 4 s virtual window. Panics on any failed op.
fn metadata_ops_per_sec(shards: u32) -> f64 {
    const DIRS: usize = 256;
    const FILES_PER_DIR: usize = 16;
    const CLIENTS: usize = 48;
    let window = Dur::secs(4);
    let mut c: Cluster = ClusterBuilder::new()
        .providers(8)
        .seed(9100 + u64::from(shards))
        .costs(CostModel::fast_test())
        .warmup(Dur::secs(1))
        .ns_shards(shards)
        .build();
    // Bulk-load `/dir{i}/f{j}` straight into the shard backends, each
    // entry on the shard that owns it. A directory also gets its stub
    // copy on its children's shard, as a real `mkdir` would install.
    let root_shard = shard_of_dir("/", shards) as usize;
    let mut next = 1u128 << 64; // far above any runtime-allocated id
    for i in 0..DIRS {
        let dir = format!("/dir{i}");
        let children = shard_of_dir(&dir, shards) as usize;
        shard_primary(&mut c, root_shard).preseed(&dir, FileId(next), true);
        if children != root_shard {
            shard_primary(&mut c, children).preseed(&dir, FileId(next), true);
        }
        let srv = shard_primary(&mut c, children);
        for j in 0..FILES_PER_DIR {
            next += 1;
            srv.preseed(&format!("{dir}/f{j}"), FileId(next), false);
        }
        next += 1;
    }

    // Closed-loop clients, spread over provider machines so no single
    // NIC serializes the whole offered load. The mkdir is a mutation
    // that hits the WAL and, cross-shard, the handshake path.
    let nprov = c.providers().len();
    let ids: Vec<NodeId> = (0..CLIENTS)
        .map(|ci| {
            let mut n = 0u64;
            let w = FnWorkload(move |_now, rng: &mut rand::rngs::SmallRng| {
                let i = rng.gen_range(0..DIRS);
                if rng.gen_range(0..8) == 0 {
                    n += 1;
                    Some(ClientOp::Mkdir { path: format!("/dir{i}/c{ci}n{n}") })
                } else {
                    let j = rng.gen_range(0..FILES_PER_DIR);
                    Some(ClientOp::Stat { path: format!("/dir{i}/f{j}") })
                }
            });
            c.add_client_on_provider(w, ci % nprov)
        })
        .collect();

    let done = |c: &Cluster| -> (u64, u64) {
        ids.iter().fold((0, 0), |(ok, bad), &id| {
            let s = c.client_stats(id).expect("client stats");
            (ok + s.completed_ops, bad + s.failed_ops)
        })
    };
    c.run_for(Dur::secs(1));
    let (before, _) = done(&c);
    c.run_for(window);
    let (after, failed) = done(&c);
    assert_eq!(failed, 0, "{shards}-shard run had failed metadata ops");
    let ops_per_sec = (after - before) as f64 / (window.as_nanos() as f64 / 1e9);
    println!("{shards} shard(s): {ops_per_sec:.0} metadata ops/s");
    ops_per_sec
}

/// Sharding the namespace scales metadata throughput: ops/s rises with
/// the shard count, and 4 shards serve at least 2.5× one server.
#[test]
fn sharding_scales_metadata_throughput() {
    let rates: Vec<f64> = [1, 2, 4].into_iter().map(metadata_ops_per_sec).collect();
    let rising = rates[0] > 0.0 && rates.windows(2).all(|w| w[0] < w[1]);
    assert!(rising, "ops/s by shard count: {rates:?}");
    let speedup = rates[2] / rates[0];
    assert!(speedup >= 2.5, "4-shard speedup {speedup:.2} < 2.5x");
}
