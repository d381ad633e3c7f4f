//! The chaos game-day drill, as a test: a real loopback cluster runs
//! under deterministic fault injection (10% frame loss, plus duplicates
//! and delays), a provider is killed abruptly mid-run and restarted on
//! its surviving `data_dir`, and the cluster must converge — every
//! write and read completes correctly, no client ever hangs, and the
//! file's replication degree is restored on disk.
//!
//! The whole scenario runs once per fixed seed. Chaos decisions are a
//! pure function of (seed, link, frame index), so a failing seed
//! reproduces the same drop/duplicate/delay pattern on every rerun —
//! that is what makes a network-failure bug from this test debuggable.

use std::time::Duration;

use sorrento::api::FsScript;
use sorrento::types::FileOptions;
use sorrento_net::chaos::ChaosConfig;
use sorrento_net::testkit::{created, payload, read_until, run_until, LoopbackCluster};

const DEADLINE: Duration = Duration::from_secs(60);
/// The three fixed drill seeds (`make chaos-smoke` runs exactly these).
const SEEDS: [u64; 3] = [11, 42, 1337];

fn run_drill(seed: u64) {
    let base = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("chaos-{seed}"));
    let _ = std::fs::remove_dir_all(&base);

    // Node 0 is the namespace server; providers 1..=3 each persist to a
    // `data_dir` under `base`.
    let mut cluster =
        LoopbackCluster::builder(3).data_root(&base).boot().expect("boot loopback cluster");

    // The resilient client: same-request resends with backoff, a whole-
    // op deadline so nothing can hang, reply dedup doing the rest.
    let mut cfg = cluster.ctl();
    cfg.replication = 2;
    cfg.rpc_resends = 2;
    cfg.op_deadline_ms = Some(20_000);

    // Install fault injection on every daemon: 10% drop, 5% duplicate,
    // 3% delayed by 2 ms — on every frame each daemon sends.
    for i in cluster.nodes() {
        let chaos = ChaosConfig {
            seed: seed ^ i as u64,
            drop_permille: 100,
            dup_permille: 50,
            delay_permille: 30,
            delay: Duration::from_millis(2),
            partition: Vec::new(),
        };
        cluster.chaos(i, &chaos).expect("install chaos rules");
    }

    // Write through the lossy mesh. 96 KiB detaches into a real data
    // segment; replication 2 with eager commit places two replicas.
    // Like every step under chaos, the write converges rather than
    // succeeding in one shot: an attempt may exhaust its retry budget
    // and fail with a *typed* error, and the next attempt (a fresh
    // session with a fresh request-id range) runs it again.
    let data = payload(96 * 1024);
    let eager = FileOptions { replication: 2, eager_commit: true, ..FileOptions::default() };
    let create = |fs: &mut FsScript| {
        let h = fs.create_with("/drill", eager).unwrap();
        fs.close(h).unwrap();
    };
    // AlreadyExists means a previous attempt created it before dying.
    run_until(&cfg, 3, DEADLINE, &format!("seed {seed}: create under chaos"), create, created)
        .unwrap();
    let write = |fs: &mut FsScript| {
        let h = fs.open("/drill", true).unwrap();
        fs.write(h, 0, data.clone()).unwrap();
        fs.close(h).unwrap();
    };
    run_until(&cfg, 3, DEADLINE, &format!("seed {seed}: write under chaos"), write, |out| {
        out.stats.failed_ops == 0
    })
    .unwrap();

    read_until(&cfg, "/drill", &data, 3, DEADLINE, "read under chaos").unwrap();

    // Eager commit is best-effort under loss: a dropped sync can leave a
    // segment at replication 1, or a replica at the version before the
    // write, until the repair scan re-replicates or syncs it. Wait for
    // the full degree at the latest version — two segments (index +
    // data) at replication 2, no home host knowing of a stale or
    // missing replica — so that killing *any* provider leaves a live
    // replica of everything. The two replicas are required. The homes'
    // view is waited for but not required: a home can go on counting a
    // synced replica as stale until that owner's next 30 s refresh.
    let (mut held, mut short) = (0.0, 0.0);
    let full = cluster.wait("repair restoring replication", DEADLINE, |s| {
        (held, short) = (s.replicas_held(), s.under_replicated());
        held >= 4.0 && short == 0.0
    });
    if let Err(e) = full {
        assert!(held >= 4.0, "seed {seed}: {e} ({held} replicas held, {short} short)");
    }

    // Crash a provider: abrupt exit, no final persistence sweep — its
    // disk holds whatever the continuous 200 ms sweeps captured.
    cluster.kill(3).expect("abrupt kill");

    // The cluster still serves the file from the surviving replica set,
    // with the frame loss still on (retrying while the survivors notice
    // the death and expire stale locations).
    read_until(&cfg, "/drill", &data, 2, DEADLINE, "read after kill").unwrap();

    // Restart the victim on the same address and data_dir: boot
    // reinstalls its persisted segments, heartbeats re-admit it.
    cluster.restart(3).expect("restart victim");

    // Convergence: all three providers discoverable again, bytes intact.
    read_until(&cfg, "/drill", &data, 3, DEADLINE, "read after restart").unwrap();

    // Let repair finish restoring the replication degree — two providers
    // whose `stored_bytes` gauge has room for the data segment — or give
    // it the two seconds it always had, then stop cleanly (each stop
    // persists that provider's current segments). The disks decide.
    let holds_data = |s: &sorrento_net::testkit::Snapshot, i: usize| {
        s.gauge(i, &format!("n{i}.stored_bytes")).is_some_and(|b| b >= data.len() as f64)
    };
    let _ = cluster.wait("two providers holding the data segment", Duration::from_secs(2), |s| {
        cluster.providers().filter(|&i| holds_data(s, i)).count() >= 2
    });
    for i in cluster.nodes() {
        cluster.stop(i).expect("clean shutdown");
    }

    // All replicas restored: the data segment must exist, bytes intact,
    // on at least `replication` provider disks.
    let copies = cluster
        .providers()
        .filter(|&i| {
            let images = cluster.disk_images(i).expect("provider disk");
            images.iter().any(|x| x.image.data.as_deref() == Some(&data[..]))
        })
        .count();
    assert!(copies >= 2, "seed {seed}: only {copies} on-disk replicas carry the data");

    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn chaos_drill_converges_for_fixed_seeds() {
    for seed in SEEDS {
        run_drill(seed);
    }
}
