//! **bench-ns** — the metadata plane under pressure: namespace-sharding
//! scaling ablation plus the hot-standby failover drill.
//!
//! Two experiments, one results file:
//!
//! * **Scaling** (deterministic simulator): a tree of a couple million
//!   preseeded entries is served by 1/2/4/8 namespace shards; a pool of
//!   closed-loop clients hammers it with a stat-heavy metadata mix
//!   (1-in-8 ops is a `mkdir`, so the WAL and the occasional two-shard
//!   handshake stay in the picture). Reported: metadata ops/s per shard
//!   count, and the 4-shard speedup over the single-server baseline —
//!   the number the ISSUE acceptance gate reads (must be ≥ 2.5×).
//! * **Failover** (real TCP loopback daemons): a 2-shard plane with hot
//!   standbys, swept over checkpoint intervals. Seed a known WAL tail,
//!   SIGKILL shard 0's primary, and measure wall-clock time until a
//!   client's ops succeed again plus the standby's replayed-batch count
//!   — recovery cost as a function of
//!   [`sorrento_kvdb::DbConfig::checkpoint_every_batches`].
//!
//! Usage: `bench-ns [--smoke] [--out PATH] [--validate PATH]`
//!
//! `--smoke` shrinks both experiments to CI size (and skips the
//! full-run speedup gate). `--validate` parses an existing results file
//! and re-checks its schema and bounds without running anything — the
//! `make ns-smoke` guard for the committed `results/BENCH_ns.json`.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use sorrento::api::FsScript;
use sorrento::client::ClientOp;
use sorrento::cluster::{Cluster, ClusterBuilder, FnWorkload};
use sorrento::costs::CostModel;
use sorrento::namespace::NamespaceServer;
use sorrento::nsmap::shard_of_dir;
use sorrento::types::FileId;
use rand::Rng;
use sorrento_json::Json;
use sorrento_net::ctl;
use sorrento_net::testkit::LoopbackCluster;
use sorrento_sim::{Dur, NodeId};

const DEADLINE: Duration = Duration::from_secs(120);

// ---------------------------------------------------------------------
// Part 1: scaling ablation (simulator)
// ---------------------------------------------------------------------

struct ScalingKnobs {
    shard_counts: &'static [u32],
    dirs: usize,
    files_per_dir: usize,
    clients: usize,
    ramp: Dur,
    window: Dur,
}

fn full_scaling() -> ScalingKnobs {
    ScalingKnobs {
        shard_counts: &[1, 2, 4, 8],
        dirs: 2048,
        files_per_dir: 1024, // 2048 × 1024 ≈ 2.1M files
        clients: 48,
        ramp: Dur::secs(2),
        window: Dur::secs(10),
    }
}

fn smoke_scaling() -> ScalingKnobs {
    ScalingKnobs {
        shard_counts: &[1, 2],
        dirs: 64,
        files_per_dir: 16,
        clients: 8,
        ramp: Dur::millis(500),
        window: Dur::secs(2),
    }
}

/// Bulk-load the benchmark tree straight into the shard backends:
/// `/dir{i}/f{j}`, each entry on the shard that owns it (directories get
/// their stub copy on the children's shard, mirroring what a real
/// `mkdir` would have installed).
fn preseed_tree(c: &mut Cluster, shards: u32, dirs: usize, files_per_dir: usize) {
    let ns_nodes: Vec<NodeId> = c.ns_shard_nodes().to_vec();
    let mut next_file: u128 = 1 << 64; // far above any runtime-allocated id
    for i in 0..dirs {
        let dir = format!("/dir{i}");
        let owner = shard_of_dir("/", shards) as usize;
        let children = shard_of_dir(&dir, shards) as usize;
        let id = FileId(next_file);
        next_file += 1;
        c.sim
            .node_mut::<NamespaceServer>(ns_nodes[owner])
            .expect("shard primary")
            .preseed(&dir, id, true);
        if children != owner {
            c.sim
                .node_mut::<NamespaceServer>(ns_nodes[children])
                .expect("shard primary")
                .preseed(&dir, id, true); // the dir-stub copy
        }
        let srv = c
            .sim
            .node_mut::<NamespaceServer>(ns_nodes[children])
            .expect("shard primary");
        for j in 0..files_per_dir {
            srv.preseed(&format!("{dir}/f{j}"), FileId(next_file), false);
            next_file += 1;
        }
    }
}

/// One scaling run: preseed, ramp, measure a fixed virtual-time window.
fn run_scaling(shards: u32, k: &ScalingKnobs) -> Json {
    let mut c: Cluster = ClusterBuilder::new()
        .providers(8)
        .seed(9100 + u64::from(shards))
        .costs(CostModel::fast_test())
        .warmup(Dur::secs(1))
        .ns_shards(shards)
        .build();

    let t0 = Instant::now();
    preseed_tree(&mut c, shards, k.dirs, k.files_per_dir);
    let preseed_s = t0.elapsed().as_secs_f64();
    let entries: u64 = (0..shards as usize)
        .map(|s| c.namespace_ref_of(s).expect("shard ref").entry_count() as u64)
        .sum();

    // Closed-loop clients, spread over provider machines so no single
    // NIC serializes the whole offered load. Mix: 7-in-8 stat of a
    // preseeded file, 1-in-8 mkdir of a fresh unique directory (a
    // mutation that hits the WAL and, cross-shard, the handshake path).
    let nprov = c.providers().len();
    let mut ids = Vec::with_capacity(k.clients);
    for ci in 0..k.clients {
        let (dirs, fpd) = (k.dirs, k.files_per_dir);
        let mut n = 0u64;
        let w = FnWorkload(move |_now, rng: &mut rand::rngs::SmallRng| {
            let i = rng.gen_range(0..dirs);
            if rng.gen_range(0..8) == 0 {
                n += 1;
                Some(ClientOp::Mkdir { path: format!("/dir{i}/c{ci}n{n}") })
            } else {
                let j = rng.gen_range(0..fpd);
                Some(ClientOp::Stat { path: format!("/dir{i}/f{j}") })
            }
        });
        ids.push(c.add_client_on_provider(w, ci % nprov));
    }

    c.run_for(k.ramp);
    let done = |c: &Cluster| -> (u64, u64) {
        ids.iter().fold((0, 0), |(ok, bad), &id| {
            let s = c.client_stats(id).expect("client stats");
            (ok + s.completed_ops, bad + s.failed_ops)
        })
    };
    let (before, _) = done(&c);
    c.run_for(k.window);
    let (after, failed) = done(&c);
    assert_eq!(failed, 0, "{shards}-shard run had failed metadata ops");

    let window_s = k.window.as_nanos() as f64 / 1e9;
    let ops = after - before;
    let served: Vec<u64> = (0..shards as usize)
        .map(|s| c.namespace_ref_of(s).expect("shard ref").ops_served)
        .collect();
    let (lo, hi) = (
        served.iter().copied().min().unwrap_or(0),
        served.iter().copied().max().unwrap_or(0),
    );
    println!(
        "  {shards} shard(s): {entries} entries, {ops} ops in {window_s:.0}s virtual \
         -> {:.0} ops/s (preseed {preseed_s:.1}s, shard balance {lo}..{hi})",
        ops as f64 / window_s
    );
    Json::obj()
        .with("shards", shards)
        .with("entries", entries)
        .with("clients", k.clients as u64)
        .with("window_s", window_s)
        .with("ops", ops)
        .with("ops_per_sec", ops as f64 / window_s)
        .with("shard_ops_min", lo)
        .with("shard_ops_max", hi)
        .with("preseed_s", preseed_s)
}

// ---------------------------------------------------------------------
// Part 2: failover drill (real TCP loopback)
// ---------------------------------------------------------------------

const NSHARDS: u32 = 2;

/// A root-level directory whose children live on shard `k`.
fn dir_on_shard(k: u32) -> String {
    (0..)
        .map(|i| format!("/d{i}"))
        .find(|d| shard_of_dir(d, NSHARDS) == k)
        .unwrap()
}

/// One drill: seed `mutations` metadata batches past the last
/// checkpoint, kill shard 0's primary, measure wall-clock time until a
/// client's ops succeed again and how many WAL batches the promoted
/// standby had to replay.
fn run_failover(checkpoint_every: u64, mutations: usize) -> Json {
    // Node layout (the `ns_failover` test's and the RUNBOOK game-day
    // drill's): 0..NSHARDS shard primaries, then their standbys, then
    // two providers.
    let mut cluster = LoopbackCluster::builder(2)
        .sharded_namespace(NSHARDS as usize)
        .each_daemon(move |_, cfg| cfg.ns_checkpoint_batches = Some(checkpoint_every))
        .boot()
        .expect("boot the sharded cluster");
    let cfg = cluster.ctl();
    let d0 = dir_on_shard(0);

    let mut fs = FsScript::new();
    fs.mkdir(&d0).unwrap();
    for m in 0..mutations {
        let h = fs.create(format!("{d0}/m{m}")).unwrap();
        fs.close(h).unwrap();
    }
    let out = ctl::run_script(&cfg, fs.into_ops(), 1, DEADLINE).expect("seed script");
    assert_eq!(out.stats.failed_ops, 0, "seed failed: {:?}", out.stats.last_error);

    // Let the WAL shipper drain (fast_test ships every 50ms), then kill
    // the primary the way a crash would.
    std::thread::sleep(Duration::from_millis(300));
    cluster.kill(0).expect("kill primary");

    // Recovery clock: from the kill until a stat + create against the
    // lost shard succeed again (client times out at the dead primary,
    // flips to the standby, which promotes after its grace period).
    let t0 = Instant::now();
    let mut fs = FsScript::new();
    fs.stat(format!("{d0}/m0")).unwrap();
    let h = fs.create(format!("{d0}/post-failover")).unwrap();
    fs.close(h).unwrap();
    let out = ctl::run_script(&cfg, fs.into_ops(), 1, DEADLINE).expect("failover script");
    assert_eq!(
        out.stats.failed_ops, 0,
        "post-failover ops failed: {:?}",
        out.stats.last_error
    );
    let recovery_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Gauges ride the server's periodic export tick: wait until the
    // promoted standby has published its replayed-tail gauge.
    let (sb, gauge) = (NSHARDS as usize, "ns0.failover_replayed");
    let snap = cluster
        .wait("the promoted standby's replayed-tail gauge", Duration::from_secs(10), |s| {
            s.gauge(sb, gauge).is_some()
        })
        .expect("failover_replayed gauge never exported");
    let replayed = snap.gauge(sb, gauge).unwrap_or_default() as u64;
    let failovers = snap.counter(sb, "ns.failovers");
    assert_eq!(failovers, 1, "standby promoted {failovers} times");

    cluster.shutdown().expect("clean shutdown");
    println!(
        "  checkpoint every {checkpoint_every}: {mutations} mutations, \
         recovered in {recovery_ms:.0} ms, replayed {replayed} WAL batches"
    );
    Json::obj()
        .with("checkpoint_every", checkpoint_every)
        .with("mutations", mutations as u64)
        .with("recovery_ms", recovery_ms)
        .with("replayed_batches", replayed)
}

// ---------------------------------------------------------------------
// Validation (shared by the generating run and `--validate`)
// ---------------------------------------------------------------------

fn validate(doc: &Json) -> Result<(), String> {
    let scaling = doc
        .get("scaling")
        .and_then(Json::as_arr)
        .ok_or("missing `scaling` array")?;
    if scaling.len() < 2 {
        return Err("`scaling` needs at least 2 shard counts".into());
    }
    let ops_at = |want: u64| -> Option<f64> {
        scaling
            .iter()
            .find(|r| r.get("shards").and_then(Json::as_u64) == Some(want))
            .and_then(|r| r.get("ops_per_sec"))
            .and_then(Json::as_f64)
    };
    for row in scaling {
        match row.get("ops_per_sec").and_then(Json::as_f64) {
            Some(x) if x.is_finite() && x > 0.0 => {}
            _ => return Err("`scaling[].ops_per_sec` is not a positive number".into()),
        }
    }
    let base = ops_at(1).ok_or("`scaling` has no 1-shard baseline row")?;
    let full = doc.get("mode").and_then(|m| m.as_str()) == Some("full");
    if full {
        let four = ops_at(4).ok_or("full results need a 4-shard row")?;
        let speedup = four / base;
        let claimed = doc
            .get("summary")
            .and_then(|s| s.get("speedup_4_shards"))
            .and_then(Json::as_f64)
            .ok_or("missing `summary.speedup_4_shards`")?;
        if (claimed - speedup).abs() > 0.05 {
            return Err(format!(
                "summary.speedup_4_shards {claimed:.2} disagrees with rows ({speedup:.2})"
            ));
        }
        if speedup < 2.5 {
            return Err(format!("4-shard speedup {speedup:.2} < 2.5x acceptance bound"));
        }
    }

    let failover = doc
        .get("failover")
        .and_then(Json::as_arr)
        .ok_or("missing `failover` array")?;
    if failover.len() < 3 {
        return Err("`failover` needs at least 3 checkpoint intervals".into());
    }
    let mut intervals = Vec::new();
    for row in failover {
        let every = row
            .get("checkpoint_every")
            .and_then(Json::as_u64)
            .ok_or("`failover[].checkpoint_every` missing")?;
        intervals.push(every);
        match row.get("recovery_ms").and_then(Json::as_f64) {
            Some(x) if x > 0.0 && x < 120_000.0 => {}
            _ => return Err("`failover[].recovery_ms` out of range".into()),
        }
        if row.get("replayed_batches").and_then(Json::as_u64).is_none() {
            return Err("`failover[].replayed_batches` missing".into());
        }
    }
    let mut sorted = intervals.clone();
    sorted.sort_unstable();
    sorted.dedup();
    if sorted.len() != intervals.len() {
        return Err("`failover` intervals are not distinct".into());
    }
    // The whole point of the knob: a coarser checkpoint interval leaves
    // a longer tail for the standby to replay.
    let replayed = |i: usize| {
        failover[i].get("replayed_batches").and_then(Json::as_u64).unwrap_or(0)
    };
    if failover.len() >= 2 && replayed(failover.len() - 1) < replayed(0) {
        return Err("replayed tail shrank as the checkpoint interval grew".into());
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
    let out_path = flag_value("--out").unwrap_or_else(|| "results/BENCH_ns.json".into());

    if let Some(path) = flag_value("--validate") {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("bench-ns: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let doc = match Json::parse(&text) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("bench-ns: {path}: parse error: {e:?}");
                return ExitCode::FAILURE;
            }
        };
        return match validate(&doc) {
            Ok(()) => {
                println!("bench-ns: {path} validates");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("bench-ns: {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let knobs = if smoke { smoke_scaling() } else { full_scaling() };
    // Each seeded file costs two WAL batches (create + commit), so the
    // mutation counts are chosen to leave an uncheckpointed tail of
    // roughly half an interval at kill time — the replayed-batch column
    // then visibly grows with the checkpoint interval.
    let drills: &[(u64, usize)] =
        if smoke { &[(2, 5), (4, 11), (8, 22)] } else { &[(4, 11), (32, 85), (256, 700)] };

    println!("== scaling ablation ({} files) ==", knobs.dirs * knobs.files_per_dir);
    let mut scaling = Json::arr();
    let mut by_shards = Vec::new();
    for &s in knobs.shard_counts {
        let row = run_scaling(s, &knobs);
        let ops = row.get("ops_per_sec").and_then(Json::as_f64).unwrap();
        by_shards.push((s, ops));
        scaling.push(row);
    }
    let base = by_shards.iter().find(|&&(s, _)| s == 1).map(|&(_, o)| o).unwrap();
    let speedup_4 = by_shards.iter().find(|&&(s, _)| s == 4).map(|&(_, o)| o / base);

    println!("== failover drill (2 shards + standbys over loopback TCP) ==");
    let mut failover = Json::arr();
    for &(every, muts) in drills {
        failover.push(run_failover(every, muts));
    }

    let mut summary = Json::obj()
        .with("ops_per_sec_1_shard", base)
        .with("wal_ship_interval_ms", 50u64)
        .with("standby_grace_ms", 400u64);
    if let Some(s) = speedup_4 {
        println!("4-shard speedup over single server: {s:.2}x");
        summary = summary.with("speedup_4_shards", s);
        if !smoke {
            assert!(s >= 2.5, "4-shard speedup {s:.2} below the 2.5x acceptance bound");
        }
    }
    let doc = Json::obj()
        .with("bench", "namespace sharding + hot standby")
        .with("mode", if smoke { "smoke" } else { "full" })
        .with(
            "setup",
            Json::obj()
                .with("dirs", knobs.dirs as u64)
                .with("files_per_dir", knobs.files_per_dir as u64)
                .with("clients", knobs.clients as u64)
                .with("costs", "fast_test")
                .with("failover_shards", u64::from(NSHARDS)),
        )
        .with("summary", summary)
        .with("scaling", scaling)
        .with("failover", failover);

    if !smoke {
        if let Err(e) = validate(&doc) {
            eprintln!("bench-ns: generated results fail validation: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let body = doc.encode();
    std::fs::write(&out_path, &body).expect("write results json");
    println!("wrote {out_path}");
    ExitCode::SUCCESS
}
