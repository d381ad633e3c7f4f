//! The loopback kit itself, on one namespace server and three persisting
//! providers: a stopped or killed node comes back on its address with
//! what its `data_dir` held (less, and counted, a `seg/` value that is no
//! image), `disk_images` reads what a clean stop persisted, `wait` names
//! what it gave up on, and a shutdown leaves no thread behind.
//!
//! One test, because the thread census at its end is process-wide.

use std::time::Duration;

use sorrento::api::FsScript;
use sorrento::types::FileOptions;
use sorrento_kvdb::{Db, DbConfig, FileBackend};
use sorrento_net::ctl;
use sorrento_net::testkit::{self, LoopbackCluster};

const DEADLINE: Duration = Duration::from_secs(60);
const FILES: usize = 4;

/// Threads of any daemon or mesh in this process (`sorrento-node-<i>`,
/// `sorrento-net-<i>`, `sorrento-dial-<i>`).
fn sorrento_threads() -> usize {
    let tasks = std::fs::read_dir("/proc/self/task").expect("thread census needs /proc");
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("sorrento-"))
        .count()
}

fn body(i: usize) -> Vec<u8> {
    (0..8 * 1024).map(|b| (b * 31 + i) as u8).collect()
}

#[test]
fn kill_restart_scrape_wait_and_shutdown() {
    let root = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("testkit");
    let _ = std::fs::remove_dir_all(&root);
    let baseline = sorrento_threads();
    let mut cluster = LoopbackCluster::builder(3).data_root(&root).boot().expect("boot 1 + 3");
    assert_eq!((cluster.nodes(), cluster.providers()), (0..4, 1..4));
    let cfg = cluster.ctl();

    // Unreplicated small files: each is one segment on one provider, so
    // nothing but that provider's own disk can bring it back.
    let mut fs = FsScript::new();
    for i in 0..FILES {
        let h = fs
            .create_with(format!("/f{i}"), FileOptions { replication: 1, ..FileOptions::default() })
            .unwrap();
        fs.write(h, 0, body(i)).unwrap();
        fs.close(h).unwrap();
    }
    let out = ctl::run_script(&cfg, fs.into_ops(), 3, DEADLINE).expect("write script");
    assert_eq!(out.stats.failed_ops, 0, "write failed: {:?}", out.stats.last_error);
    let snap = cluster
        .wait("every file counted in a segments gauge", DEADLINE, |s| {
            s.replicas_held() == FILES as f64
        })
        .expect("gauges settle");
    // The victim is whichever provider holds the most.
    let segments = |s: &testkit::Snapshot, i: usize| s.gauge(i, &format!("n{i}.segments"));
    let victim = cluster.providers().max_by_key(|&i| segments(&snap, i).map(|n| n as u64)).unwrap();
    let held = segments(&snap, victim).expect("every provider exports its gauge");
    assert!(held >= 2.0, "{FILES} files on three providers, yet the fullest holds {held}");

    // A clean stop persists everything; the kit reads it back.
    cluster.stop(victim).expect("clean stop");
    assert!(cluster.snapshot().expect("scrape without the victim").node(victim).is_none());
    let images = cluster.disk_images(victim).expect("stopped node's disk");
    assert_eq!(images.len() as f64, held, "disk disagrees with the gauge");
    let other = cluster.providers().find(|&i| i != victim).unwrap();
    assert!(cluster.disk_images(other).is_err(), "a running node's disk was opened");
    assert!(cluster.kill(victim).is_err(), "killed a node that was down");

    // A value that is no image (torn, foreign) costs that one segment,
    // visibly: every restart below counts it and installs the rest.
    let dir = cluster.data_dir(victim).unwrap().to_path_buf();
    let mut db = Db::open(FileBackend::open(dir).unwrap(), DbConfig::default()).unwrap();
    db.put(b"seg/garbage", b"not an image").expect("plant the garbage");
    drop(db);

    // Stopped or crashed, the node returns on its address with its data.
    for crash in [false, true] {
        if crash {
            cluster.kill(victim).expect("abrupt kill");
        }
        cluster.restart(victim).expect("restart on the old address");
        assert!(cluster.restart(victim).is_err(), "restarted a running node");
        cluster
            .wait("the victim serving its segments again", DEADLINE, |s| {
                segments(s, victim) == Some(held)
            })
            .expect("restart re-reads the data_dir");
        let recovered = cluster.snapshot().expect("scrape the restarted victim");
        assert_eq!(recovered.counter(victim, "recovery.images_installed"), held as u64);
        assert_eq!(recovered.counter(victim, "recovery.images_skipped"), 1);
        for i in 0..FILES {
            testkit::read_until(&cfg, &format!("/f{i}"), &body(i), 3, DEADLINE, "read after restart")
                .unwrap();
        }
    }

    let late = cluster
        .wait("a gauge nobody sets", Duration::from_millis(300), |s| s.gauge(0, "no.such").is_some())
        .err()
        .expect("the wait cannot succeed");
    assert_eq!(late.kind(), std::io::ErrorKind::TimedOut);
    assert!(late.to_string().contains("a gauge nobody sets"), "{late}");

    assert!(sorrento_threads() > baseline);
    cluster.shutdown().expect("clean shutdown");
    assert_eq!(sorrento_threads(), baseline, "a daemon or mesh thread outlived shutdown");
    let _ = std::fs::remove_dir_all(&root);
}
