//! Real-loopback metadata-plane drill: a 2-shard namespace with hot
//! standbys over actual TCP daemons. Kill one shard's primary, assert
//! the standby notices the stalled WAL shipments, promotes itself, and
//! serves correct reads — the game-day script from RUNBOOK.md, as a
//! test (and the backing check for `make ns-smoke`).

use std::time::Duration;

use sorrento::api::FsScript;
use sorrento::nsmap::shard_of_dir;
use sorrento_json::Json;
use sorrento_net::ctl;
use sorrento_net::testkit::{payload, LoopbackCluster};

const DEADLINE: Duration = Duration::from_secs(60);
const NSHARDS: u32 = 2;

/// A root-level directory whose children live on shard `k`.
fn dir_on_shard(k: u32) -> String {
    (0..)
        .map(|i| format!("/d{i}"))
        .find(|d| shard_of_dir(d, NSHARDS) == k)
        .unwrap()
}

#[test]
fn sharded_namespace_fails_over_to_the_standby() {
    // Nodes 0..NSHARDS are the shard primaries, the next NSHARDS their
    // standbys, the last two the providers.
    let mut cluster = LoopbackCluster::builder(2)
        .sharded_namespace(NSHARDS as usize)
        .each_daemon(|_, cfg| cfg.ns_checkpoint_batches = Some(8))
        .boot()
        .expect("boot the sharded cluster");
    let cfg = cluster.ctl();
    let d0 = dir_on_shard(0);
    let d1 = dir_on_shard(1);
    let data = payload(16 * 1024);

    // Seed state on both shards through the primaries.
    let mut fs = FsScript::new();
    fs.mkdir(&d0).unwrap();
    fs.mkdir(&d1).unwrap();
    for (d, name) in [(&d0, "a"), (&d0, "b"), (&d1, "c")] {
        let h = fs.create(format!("{d}/{name}")).unwrap();
        fs.write(h, 0, data.clone()).unwrap();
        fs.close(h).unwrap();
    }
    let out = ctl::run_script(&cfg, fs.into_ops(), 2, DEADLINE).expect("seed script");
    assert_eq!(out.stats.failed_ops, 0, "seed failed: {:?}", out.stats.last_error);

    // Cross-shard rename while both primaries are up.
    let mut fs = FsScript::new();
    fs.rename(format!("{d0}/b"), format!("{d1}/b2")).unwrap();
    fs.stat(format!("{d1}/b2")).unwrap();
    let out = ctl::run_script(&cfg, fs.into_ops(), 1, DEADLINE).expect("rename script");
    assert_eq!(out.stats.failed_ops, 0, "rename failed: {:?}", out.stats.last_error);

    // Give the WAL shipper a couple of intervals to drain, then kill
    // shard 0's primary the way a crash would (no clean shutdown).
    std::thread::sleep(Duration::from_millis(300));
    cluster.kill(0).expect("kill primary");

    // The standby promotes after its grace period; ops against shard 0
    // time out at the dead primary, flip to the standby, and succeed.
    let mut fs = FsScript::new();
    fs.stat(format!("{d0}/a")).unwrap();
    let h = fs.open(format!("{d0}/a"), false).unwrap();
    fs.read(h, 0, data.len() as u64).unwrap();
    fs.close(h).unwrap();
    fs.stat(format!("{d1}/c")).unwrap(); // untouched shard still serves
    let h = fs.create(format!("{d0}/post-failover")).unwrap();
    fs.close(h).unwrap();
    let out = ctl::run_script(&cfg, fs.into_ops(), 2, DEADLINE).expect("failover script");
    assert_eq!(out.stats.failed_ops, 0, "post-failover ops failed: {:?}", out.stats.last_error);
    assert_eq!(out.stats.last_read.as_deref(), Some(&data[..]), "readback mismatch");

    // The promoted standby's snapshot says so: it serves shard 0, its
    // failover counter ticked, and the replayed-tail gauge is present.
    let sb = NSHARDS as usize;
    let snap = cluster.snapshot().expect("standby stats");
    let stats = snap.node(sb).expect("the standby runs");
    assert_eq!(stats.get("shard").and_then(Json::as_u64), Some(0));
    assert_eq!(snap.counter(sb, "ns.failovers"), 1, "snapshot: {}", stats.encode());
    assert!(
        snap.gauge(sb, "ns0.failover_replayed").is_some(),
        "missing failover_replayed gauge: {}",
        stats.encode()
    );

    cluster.shutdown().expect("clean shutdown");
}
