//! The observability smoke drill behind `make obs-smoke`: boot a
//! 1-namespace + 2-provider loopback cluster with the periodic metrics
//! writer on, scrape every node the way `sorrentoctl top` does, kill a
//! provider, and hold the artifacts the runtime leaves behind — the
//! crash node's flight dump and the `metrics.jsonl` snapshots — to the
//! schema checkers in `sorrento_tests`. This is the freshness guarantee
//! for the on-disk observability contract: rename a field and this
//! fails before any dashboard goes dark.

use std::net::TcpListener;
use std::time::{Duration, Instant};

use sorrento::api::FsScript;
use sorrento::costs::CostModel;
use sorrento_json::Json;
use sorrento::locator::LocationScheme;
use sorrento::swim::MembershipMode;
use sorrento_net::config::{CtlConfig, DaemonConfig, PeerSpec, Role};
use sorrento_net::ctl;
use sorrento_net::daemon;
use sorrento_sim::NodeId;
use sorrento_tests::{check_flight_dump, check_stats_snapshot, STATS_SCHEMA_V};

const DEADLINE: Duration = Duration::from_secs(60);

#[test]
fn obs_smoke() {
    let base = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("obs-smoke");
    let _ = std::fs::remove_dir_all(&base);
    let dirs: Vec<std::path::PathBuf> = (1..=2).map(|i| base.join(format!("p{i}"))).collect();
    for d in &dirs {
        std::fs::create_dir_all(d).unwrap();
    }

    // Boot 1 namespace + 2 providers; providers persist to disk and
    // append a stats snapshot to metrics.jsonl every 100 ms.
    let listeners: Vec<TcpListener> =
        (0..3).map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback")).collect();
    let all_peers: Vec<PeerSpec> = listeners
        .iter()
        .enumerate()
        .map(|(i, l)| PeerSpec {
            id: NodeId::from_index(i),
            addr: l.local_addr().unwrap().to_string(),
            machine: i as u32,
        })
        .collect();
    let mut handles: Vec<daemon::DaemonHandle> = listeners
        .into_iter()
        .enumerate()
        .map(|(i, listener)| {
            let cfg = DaemonConfig {
                node_id: NodeId::from_index(i),
                role: if i == 0 { Role::Namespace } else { Role::Provider },
                listen: all_peers[i].addr.clone(),
                data_dir: if i == 0 { None } else { Some(dirs[i - 1].clone()) },
                seed: 100 + i as u64,
                capacity: 1 << 30,
                machine: i as u32,
                rack: i as u32,
                costs: CostModel::fast_test(),
                chaos: Default::default(),
                metrics_interval_ms: if i == 0 { None } else { Some(100) },
                shard: 0,
                ns_shards: 1,
                ns_map: Vec::new(),
                ns_checkpoint_batches: None,
                membership: MembershipMode::Heartbeat,
                location: LocationScheme::Ring,
                peers: all_peers
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, p)| p.clone())
                    .collect(),
            };
            daemon::spawn_with_listener(cfg, listener).expect("spawn daemon")
        })
        .collect();
    let cfg = CtlConfig {
        ctl_id: NodeId::from_index(1000),
        namespace: NodeId::from_index(0),
        seed: 7,
        replication: 2,
        costs: CostModel::fast_test(),
        write_chunk: None,
        write_window: 4,
        rpc_resends: 0,
        op_deadline_ms: None,
        ns_map: Vec::new(),
        membership: MembershipMode::Heartbeat,
        location: LocationScheme::Ring,
        peers: all_peers,
    };

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
    for i in 0..3 {
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
    let metrics_path = dirs[1].join("metrics.jsonl");
    let deadline = Instant::now() + Duration::from_secs(10);
    while std::fs::read_to_string(&metrics_path).unwrap_or_default().is_empty() {
        assert!(Instant::now() < deadline, "no metrics.jsonl snapshot appeared");
        std::thread::sleep(Duration::from_millis(20));
    }

    // Kill provider 2: the abrupt path must still leave the black box.
    handles.pop().unwrap().kill().expect("abrupt kill");

    let dump = std::fs::read_dir(&dirs[1])
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

    for h in handles {
        h.stop().expect("clean shutdown");
    }
}
