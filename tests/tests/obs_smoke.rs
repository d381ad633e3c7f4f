//! The observability smoke drill behind `make obs-smoke`: boot a
//! 1-namespace + 2-provider loopback cluster with the periodic metrics
//! writer on, scrape every node the way `sorrentoctl top` does, kill a
//! provider, and hold the artifacts the runtime leaves behind — the
//! crash node's flight dump and the `metrics.jsonl` snapshots — to the
//! schema checkers in `sorrento_tests`. This is the freshness guarantee
//! for the on-disk observability contract: rename a field and this
//! fails before any dashboard goes dark.

use std::time::{Duration, Instant};

use sorrento::api::FsScript;
use sorrento_json::Json;
use sorrento_net::ctl;
use sorrento_net::testkit::LoopbackCluster;
use sorrento_sim::NodeId;
use sorrento_tests::{check_flight_dump, check_stats_snapshot, STATS_SCHEMA_V};

const DEADLINE: Duration = Duration::from_secs(60);

#[test]
fn obs_smoke() {
    let base = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("obs-smoke");
    let _ = std::fs::remove_dir_all(&base);

    // Boot 1 namespace + 2 providers; providers persist to disk and
    // append a stats snapshot to metrics.jsonl every 100 ms.
    let mut cluster = LoopbackCluster::builder(2)
        .data_root(&base)
        .each_daemon(|_, cfg| cfg.metrics_interval_ms = Some(100))
        .boot()
        .expect("boot loopback cluster");
    let mut cfg = cluster.ctl();
    cfg.replication = 2;

    // Put some real traffic through so the scrape sees a working
    // cluster, not three idle processes.
    let mut fs = FsScript::new();
    let h = fs.create("/smoke").unwrap();
    fs.write(h, 0, (0..32 * 1024).map(|i| (i % 251) as u8).collect::<Vec<u8>>()).unwrap();
    fs.close(h).unwrap();
    let out = ctl::run_script(&cfg, fs.into_ops(), 2, DEADLINE).expect("write script");
    assert_eq!(out.stats.failed_ops, 0, "write failed: {:?}", out.stats.last_error);

    // Scrape every node once, exactly as `sorrentoctl top` does, and
    // hold each versioned snapshot to the schema.
    for i in cluster.nodes() {
        let json = ctl::fetch_stats(&cfg, NodeId::from_index(i), DEADLINE)
            .unwrap_or_else(|e| panic!("top scrape of n{i}: {e}"));
        check_stats_snapshot(&json).unwrap_or_else(|e| panic!("n{i} snapshot: {e}"));
        let snap = Json::parse(&json).unwrap();
        assert_eq!(snap.get("v").and_then(Json::as_u64), Some(STATS_SCHEMA_V));
        assert_eq!(snap.get("node").and_then(Json::as_u64), Some(i as u64));
    }

    // The periodic writer appends every 100 ms, and everything above can
    // be over in less (discovery is instant when the providers' boot
    // heartbeats reach the session): let it write once before the kill,
    // which — being a crash — writes nothing on the way out.
    let crash_dir = cluster.data_dir(2).expect("providers persist").to_path_buf();
    let metrics_path = crash_dir.join("metrics.jsonl");
    let deadline = Instant::now() + Duration::from_secs(10);
    while std::fs::read_to_string(&metrics_path).unwrap_or_default().is_empty() {
        assert!(Instant::now() < deadline, "no metrics.jsonl snapshot appeared");
        std::thread::sleep(Duration::from_millis(20));
    }

    // Kill provider 2: the abrupt path must still leave the black box.
    cluster.kill(2).expect("abrupt kill");

    let dump = std::fs::read_dir(&crash_dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .find(|e| e.file_name().to_string_lossy().starts_with("flight_"))
        .expect("killed provider left no flight_*.json");
    let text = std::fs::read_to_string(dump.path()).unwrap();
    check_flight_dump(&text).expect("killed provider's flight dump");

    // Every line the periodic writer appended must validate, not just
    // the first.
    let text = std::fs::read_to_string(&metrics_path).unwrap();
    for (n, line) in text.lines().enumerate() {
        check_stats_snapshot(line)
            .unwrap_or_else(|e| panic!("metrics.jsonl line {}: {e}", n + 1));
    }

    cluster.shutdown().expect("clean shutdown");
}
