//! Erasure coding vs replication-3, head to head, in the seeded simulator.
//!
//! Two clusters store the same logical dataset, one with replication-3
//! (the paper's durable mode) and one with EC(4,2) (k = 4 data + m = 2
//! parity shards, index replicated ×2). Both then lose two data-holding
//! providers. Measured per mode:
//!
//! * **storage overhead** — physical bytes on provider disks over
//!   logical file bytes, after propagation settles;
//! * **read latency** — per-op `read` p50/p95 healthy, and again with
//!   the two providers dead (EC reads reconstruct inline; replicated
//!   reads fail over to surviving copies);
//! * **repair traffic** — bytes installed onto live disks to restore
//!   redundancy, plus the bytes fetched to feed the rebuild
//!   (reconstruction reads k survivors; re-replication reads one copy).
//!
//! Every figure is pinned at the precision EXPERIMENTS.md prints it:
//! any change to the simulator's EC write, placement or repair shows
//! here. `cargo test -p sorrento-tests --test ec_cost -- --nocapture`
//! prints the table.

use std::collections::BTreeSet;

use sorrento::client::ClientOp;
use sorrento::cluster::{Cluster, ClusterBuilder, ScriptedWorkload};
use sorrento::costs::CostModel;
use sorrento::types::FileOptions;
use sorrento_sim::{Dur, NodeId};

const PROVIDERS: usize = 10;
const FILES: usize = 4;
const FILE_BYTES: usize = 1 << 20; // 1 MiB per file
const KILLS: usize = 2;

/// Physical bytes stored across providers, skipping `dead` ones.
fn stored_bytes(c: &Cluster, dead: &[NodeId]) -> u64 {
    c.providers()
        .iter()
        .filter(|p| !dead.contains(p))
        .filter_map(|&p| c.provider_ref(p))
        .flat_map(|prov| {
            prov.store.list_segments().into_iter().map(|(seg, _)| prov.store.stored_bytes(seg))
        })
        .sum()
}

/// A reader client's `read` latency p50 and p95, in ms to the µs (a
/// percentile is the nearest rank).
fn read_p50_p95(c: &Cluster, id: NodeId) -> [String; 2] {
    let stats = c.client_stats(id).unwrap();
    assert_eq!(stats.failed_ops, 0, "reads failed: {:?}", stats.last_error);
    let mut ms: Vec<f64> = stats
        .latencies
        .iter()
        .filter(|(k, _)| *k == "read")
        .map(|(_, d)| d.as_secs_f64() * 1e3)
        .collect();
    ms.sort_by(f64::total_cmp);
    [0.5, 0.95].map(|p| format!("{:.3}", ms[((ms.len() - 1) as f64 * p).round() as usize]))
}

/// Run one cluster through populate → settle → healthy reads → kill 2 →
/// degraded reads → heal. Returns, at the precision EXPERIMENTS.md
/// prints them: storage overhead, healthy read p50/p95 ms, degraded
/// read p50/p95 ms, repair bytes installed/fetched, heal seconds.
fn run_mode(options: FileOptions, seed: u64) -> [String; 8] {
    let mut c: Cluster = ClusterBuilder::new()
        .providers(PROVIDERS)
        .replication(options.replication)
        .seed(seed)
        .costs(CostModel::fast_test())
        .build();
    let paths: Vec<String> = (0..FILES).map(|i| format!("/f{i}")).collect();

    let mut script = Vec::new();
    for (i, p) in paths.iter().enumerate() {
        script.push(ClientOp::CreateWith { path: p.clone(), options });
        let bytes: Vec<u8> = (0..FILE_BYTES).map(|b| (b as u8).wrapping_mul(29) ^ i as u8).collect();
        script.push(ClientOp::write_bytes(0, bytes));
        script.push(ClientOp::Close);
    }
    let writer = c.add_client(ScriptedWorkload::new(script));
    while c.client_stats(writer).unwrap().finished_at.is_none() {
        assert!(c.now().as_secs_f64() < 600.0, "populate stalled");
        c.run_for(Dur::secs(5));
    }
    assert_eq!(c.client_stats(writer).unwrap().failed_ops, 0, "populate failed");

    // Let lazy propagation finish: every segment at its target degree
    // (data degree for replication; index ×2 + single shards for EC).
    let is_ec = options.ec.is_some();
    let want = if is_ec { 1 } else { options.replication as usize };
    for _ in 0..120 {
        c.run_for(Dur::secs(5));
        let owners = c.segment_ownership();
        let settled = owners.values().all(|o| o.len() >= want)
            && (!is_ec || owners.values().filter(|o| o.len() >= 2).count() >= FILES);
        if settled {
            break;
        }
    }
    let overhead = stored_bytes(&c, &[]) as f64 / (FILES * FILE_BYTES) as f64;

    // Healthy reads.
    let mut rs = Vec::new();
    for p in &paths {
        rs.push(ClientOp::Open { path: p.clone(), write: false });
        rs.push(ClientOp::Read { offset: 0, len: FILE_BYTES as u64 });
        rs.push(ClientOp::Close);
    }
    let healthy = c.add_client(ScriptedWorkload::new(rs.clone()));
    c.run_for(Dur::secs(60));
    let [healthy_p50, healthy_p95] = read_p50_p95(&c, healthy);

    // Kill two providers that hold data but (for EC) no index replica,
    // so loss lands on shards/replicas rather than the file's map.
    let ownership = c.segment_ownership();
    let multi_owners: BTreeSet<NodeId> = ownership
        .values()
        .filter(|o| o.len() > 1)
        .flat_map(|o| o.iter().map(|&(p, _)| p))
        .collect();
    let mut victims: Vec<NodeId> = if is_ec {
        ownership
            .values()
            .filter(|o| o.len() == 1)
            .map(|o| o[0].0)
            .filter(|p| !multi_owners.contains(p))
            .collect()
    } else {
        ownership.values().flat_map(|o| o.iter().map(|&(p, _)| p)).collect()
    };
    victims.sort();
    victims.dedup();
    victims.truncate(KILLS);
    assert_eq!(victims.len(), KILLS, "not enough data holders to kill");
    for &v in &victims {
        c.crash_provider_at(c.now(), v);
    }
    let live_before_heal = stored_bytes(&c, &victims);
    let killed_at = c.now().as_secs_f64();

    // Degraded / failover reads while the loss is outstanding.
    let degraded = c.add_client(ScriptedWorkload::new(rs));
    c.run_for(Dur::secs(60));
    let [degraded_p50, degraded_p95] = read_p50_p95(&c, degraded);

    // Heal: every segment back to full degree on live providers.
    let live = |o: &Vec<(NodeId, _)>| o.iter().filter(|(p, _)| !victims.contains(p)).count();
    let heal_secs = (0..240)
        .find_map(|_| {
            c.run_for(Dur::secs(5));
            let healed = c.segment_ownership().values().all(|o| live(o) >= want);
            healed.then(|| c.now().as_secs_f64() - killed_at)
        })
        .expect("repair never converged");
    let installed = stored_bytes(&c, &victims).saturating_sub(live_before_heal);
    // Feeding the rebuild: EC reconstruction reads k full shards per
    // repaired file; re-replication reads each lost replica once.
    let fetched = match options.ec {
        Some(ec) => {
            let k = ec.k as u64;
            let shard = (FILE_BYTES as u64).div_ceil(k);
            // one reconstruct per file that lost ≥1 shard; count via installs
            (installed / shard).min(FILES as u64) * k * shard
        }
        None => installed,
    };
    let figures = [
        format!("{overhead:.4}"),
        healthy_p50,
        healthy_p95,
        degraded_p50,
        degraded_p95,
        installed.to_string(),
        fetched.to_string(),
        format!("{heal_secs:.1}"),
    ];
    println!("seed {seed}: {figures:?}");
    figures
}

#[test]
fn replication_3_costs_are_pinned() {
    let r3 = run_mode(FileOptions { replication: 3, ..FileOptions::default() }, 7301);
    let want = ["3.0009", "123.253", "123.253", "123.253", "623.249", "4194624", "4194624", "65.0"];
    assert_eq!(r3, want);
}

#[test]
fn ec_4_2_costs_are_pinned() {
    let options = FileOptions { replication: 2, ..FileOptions::erasure_coded(4, 2, 64 << 20) };
    let ec = run_mode(options, 7302);
    let overhead: f64 = ec[0].parse().unwrap();
    assert!(overhead <= 1.6, "EC(4,2) storage overhead {overhead} exceeds 1.6x");
    let want = ["1.5014", "111.857", "111.857", "618.379", "618.380", "1310720", "4194304", "65.0"];
    assert_eq!(ec, want);
}
