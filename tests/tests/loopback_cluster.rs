//! End-to-end tests against a *real* loopback cluster: namespace and
//! provider daemons on ephemeral TCP ports, driven through the
//! `sorrentoctl` library entry points. Same state machines as the
//! simulator tests — but over actual sockets, threads, and wall-clock
//! timers.

use std::net::TcpListener;
use std::time::{Duration, Instant};

use sorrento::api::FsScript;
use sorrento::costs::CostModel;
use sorrento::proto::{decode_index, Msg};
use sorrento::store::Transfer;
use sorrento::types::{FileOptions, Organization, SegId};
use sorrento_kvdb::crc32;
use sorrento_net::config::CtlConfig;
use sorrento_net::ctl;
use sorrento_net::tcp::{Mesh, MeshConfig};
use sorrento_net::testkit::{payload, LoopbackCluster};
use sorrento_sim::NodeId;

const DEADLINE: Duration = Duration::from_secs(60);

/// One namespace daemon (node 0) and `providers` provider daemons
/// (nodes 1..=providers), with the client config that reaches them.
fn boot(providers: usize) -> (LoopbackCluster, CtlConfig) {
    let cluster = LoopbackCluster::builder(providers).boot().expect("boot loopback cluster");
    let cfg = cluster.ctl();
    (cluster, cfg)
}

#[test]
fn loopback_cluster_survives_a_provider_failure() {
    let (mut cluster, cfg) = boot(3);
    let data = payload(32 * 1024);

    // Create and write with two replicas, committed eagerly so both
    // replicas exist by the time close returns.
    let mut fs = FsScript::new();
    fs.mkdir("/d").unwrap();
    let h = fs
        .create_with(
            "/d/report",
            FileOptions { replication: 2, eager_commit: true, ..FileOptions::default() },
        )
        .unwrap();
    fs.write(h, 0, data.clone()).unwrap();
    fs.close(h).unwrap();
    let out = ctl::run_script(&cfg, fs.into_ops(), 3, DEADLINE).expect("write script");
    assert_eq!(out.stats.failed_ops, 0, "write failed: {:?}", out.stats.last_error);

    // Read it back through a fresh client session.
    let mut fs = FsScript::new();
    let h = fs.open("/d/report", false).unwrap();
    fs.read(h, 0, data.len() as u64).unwrap();
    fs.close(h).unwrap();
    let out = ctl::run_script(&cfg, fs.into_ops(), 3, DEADLINE).expect("read script");
    assert_eq!(out.stats.failed_ops, 0, "read failed: {:?}", out.stats.last_error);
    assert_eq!(out.stats.last_read.as_deref(), Some(&data[..]), "readback mismatch");

    // Stats are served live by the namespace daemon, as JSON.
    let json = ctl::fetch_stats(&cfg, NodeId::from_index(0), DEADLINE).expect("stats");
    let parsed = sorrento_json::Json::parse(&json).expect("stats JSON parses");
    let gauges = parsed.get("gauges").expect("stats JSON has a gauges section");
    assert!(gauges.get("net_sent").is_some(), "stats JSON missing mesh counters: {json}");

    // Kill one provider. With two replicas on three providers, at least
    // one replica survives whichever daemon dies; the client recovers
    // through its RPC timeout and owner-retry path.
    cluster.stop(3).expect("clean provider shutdown");

    let mut fs = FsScript::new();
    let h = fs.open("/d/report", false).unwrap();
    fs.read(h, 0, data.len() as u64).unwrap();
    fs.close(h).unwrap();
    let out = ctl::run_script(&cfg, fs.into_ops(), 2, DEADLINE).expect("read after kill");
    assert_eq!(
        out.stats.failed_ops, 0,
        "read after provider death failed: {:?}",
        out.stats.last_error
    );
    assert_eq!(out.stats.last_read.as_deref(), Some(&data[..]), "post-failure readback mismatch");

    // Remove the file and confirm it is gone.
    let mut fs = FsScript::new();
    fs.unlink("/d/report").unwrap();
    let out = ctl::run_script(&cfg, fs.into_ops(), 2, DEADLINE).expect("rm script");
    assert_eq!(out.stats.failed_ops, 0, "rm failed: {:?}", out.stats.last_error);

    let mut fs = FsScript::new();
    fs.stat("/d/report").unwrap();
    let out = ctl::run_script(&cfg, fs.into_ops(), 2, DEADLINE).expect("stat script");
    assert_eq!(out.stats.failed_ops, 1, "stat of a removed file should fail");

    cluster.shutdown().expect("clean shutdown");
}

/// The guard against a loop that polls: between two ops of a script the
/// client waits for the next op's slot on ctl's 1.5 ms schedule and for
/// nothing else. 200 small-file sessions (the paper's §4.1 path: ≤ 60 KB
/// rides in the index segment) must leave no more than a slot (and a
/// timer wake-up) per op unaccounted for by op latency — a
/// `recv_timeout(5 ms)` between ops leaves five milliseconds — and must
/// not run ahead of the schedule.
#[test]
fn small_file_sessions_leave_no_gap_between_ops() {
    let (cluster, cfg) = boot(3);
    let data = payload(12 * 1024);
    let mut fs = FsScript::new();
    for i in 0..200 {
        let h = fs.create(format!("/f{i}")).unwrap();
        fs.write(h, 0, data.clone()).unwrap();
        fs.close(h).unwrap();
    }
    let stats = ctl::run_script(&cfg, fs.into_ops(), 3, DEADLINE).expect("script").stats;
    assert_eq!((stats.completed_ops, stats.failed_ops), (600, 0), "{:?}", stats.last_error);
    let wall = stats.finished_at.unwrap().since(stats.started_at.unwrap()).as_nanos();
    let busy: u64 = stats.latencies.iter().map(|(_, d)| d.as_nanos()).sum();
    let gap_us = wall.saturating_sub(busy) / stats.completed_ops / 1_000;
    assert!(gap_us < 2_000, "{gap_us} us between ops ({wall} ns wall, {busy} ns in ops)");
    // 600 slots, less the four a late session may make up back to back.
    assert!(wall >= 595 * 1_500_000, "600 ops in {wall} ns: ahead of the schedule");
    cluster.shutdown().expect("clean shutdown");
}

/// Write `data` to `path` through a client configured from `cfg`, then
/// read it back through a plain (unchunked) client and return the bytes.
fn write_then_read(
    cfg: &CtlConfig,
    read_cfg: &CtlConfig,
    path: &str,
    data: &[u8],
    min_providers: usize,
) -> Vec<u8> {
    let mut fs = FsScript::new();
    let h = fs
        .create_with(
            path,
            FileOptions { replication: 2, eager_commit: true, ..FileOptions::default() },
        )
        .unwrap();
    fs.write(h, 0, data.to_vec()).unwrap();
    fs.close(h).unwrap();
    let out = ctl::run_script(cfg, fs.into_ops(), min_providers, DEADLINE).expect("write script");
    assert_eq!(out.stats.failed_ops, 0, "write of {path} failed: {:?}", out.stats.last_error);

    let mut fs = FsScript::new();
    let h = fs.open(path, false).unwrap();
    fs.read(h, 0, data.len() as u64).unwrap();
    fs.close(h).unwrap();
    let out =
        ctl::run_script(read_cfg, fs.into_ops(), min_providers, DEADLINE).expect("read script");
    assert_eq!(out.stats.failed_ops, 0, "read of {path} failed: {:?}", out.stats.last_error);
    out.stats.last_read.as_deref().unwrap_or_default().to_vec()
}

#[test]
fn pipelined_chunked_writes_match_unchunked_writes() {
    let (cluster, plain) = boot(3);
    // Large enough to detach into real extents and split into many
    // chunks: 768 KiB at a 32 KiB chunk is 24 chunks per extent write.
    let data = payload(768 * 1024);

    // Distinct seeds: each run_script builds a fresh client, and two
    // clients with the same seed would allocate colliding segment ids
    // for different files.
    let mut serial = plain.clone();
    serial.seed = 8;
    serial.write_chunk = Some(32 * 1024);
    serial.write_window = 1;
    let mut windowed = plain.clone();
    windowed.seed = 9;
    windowed.write_chunk = Some(32 * 1024);
    windowed.write_window = 4;

    // Same payload through three client configurations. Every readback
    // (done by an unchunked control client) must be byte-identical.
    let got_plain = write_then_read(&plain, &plain, "/pipe-plain", &data, 3);
    let got_serial = write_then_read(&serial, &plain, "/pipe-serial", &data, 3);
    let got_windowed = write_then_read(&windowed, &plain, "/pipe-windowed", &data, 3);
    assert_eq!(got_plain, data, "unchunked control readback mismatch");
    assert_eq!(got_serial, data, "window=1 chunked readback mismatch");
    assert_eq!(got_windowed, data, "window=4 chunked readback mismatch");

    // All three commit the same file shape: stat sizes must agree.
    let mut fs = FsScript::new();
    fs.stat("/pipe-plain").unwrap();
    fs.stat("/pipe-serial").unwrap();
    fs.stat("/pipe-windowed").unwrap();
    let out = ctl::run_script(&plain, fs.into_ops(), 3, DEADLINE).expect("stat script");
    assert_eq!(out.stats.failed_ops, 0, "stat failed: {:?}", out.stats.last_error);
    let sizes: Vec<u64> = out.records.iter().map(|r| r.bytes).collect();
    assert_eq!(sizes, vec![data.len() as u64; 3], "committed sizes diverge");

    cluster.shutdown().expect("clean shutdown");
}

#[test]
fn pipelined_write_survives_provider_death_mid_window() {
    let (mut cluster, plain) = boot(4);
    let mut cfg = plain.clone();
    cfg.write_chunk = Some(8 * 1024);
    cfg.write_window = 2;
    // 2 MiB at 8 KiB chunks: hundreds of in-flight round trips, so the
    // concurrent kill lands while the window is open.
    let data = payload(2 << 20);

    // Kill one provider shortly after the write script starts. With
    // replication 2 on four providers the client rides out the death via
    // its RPC-timeout retry path, whether the chunks targeting the
    // victim were already acknowledged or die with it.
    let got = std::thread::scope(|s| {
        let killer = s.spawn(|| {
            std::thread::sleep(Duration::from_millis(1500));
            cluster.stop(4)
        });
        let got = write_then_read(&cfg, &plain, "/pipe-churn", &data, 3);
        killer.join().expect("killer thread").expect("clean provider shutdown");
        got
    });
    assert_eq!(got, data, "chunked write corrupted by provider death");

    cluster.shutdown().expect("clean shutdown");
}

/// A big striped file read back in one op: 128 MiB over 4 stripes is
/// 2,048 stripe-unit extents, and a mesh queues 256 frames per peer
/// before it drops. The pipelined read path keeps a bounded number of
/// requests in flight, so no node may drop a frame — a dropped reply
/// would only show as a 1.5 s RPC timeout and a quietly retried read.
#[test]
fn big_striped_read_drops_no_frame() {
    const LEN: usize = 128 << 20;
    const PIECE: usize = 8 << 20;
    let (cluster, mut cfg) = boot(3);
    cfg.write_chunk = Some(256 * 1024);
    let data = payload(LEN);

    let mut fs = FsScript::new();
    let striped = Organization::Striped { stripes: 4, max_size: LEN as u64 };
    let h = fs
        .create_with("/striped", FileOptions { organization: striped, ..FileOptions::default() })
        .unwrap();
    for at in (0..LEN).step_by(PIECE) {
        fs.write(h, at as u64, data[at..at + PIECE].to_vec()).unwrap();
    }
    fs.close(h).unwrap();
    let out = ctl::run_script(&cfg, fs.into_ops(), 3, DEADLINE).expect("write script");
    assert_eq!(out.stats.failed_ops, 0, "write failed: {:?}", out.stats.last_error);

    let mut fs = FsScript::new();
    let h = fs.open("/striped", false).unwrap();
    fs.read(h, 0, LEN as u64).unwrap();
    fs.close(h).unwrap();
    let out = ctl::run_script(&cfg, fs.into_ops(), 3, DEADLINE).expect("read script");
    assert_eq!(out.stats.failed_ops, 0, "read failed: {:?}", out.stats.last_error);
    assert!(out.stats.last_read.as_deref() == Some(&data[..]), "readback mismatch");

    let snap = cluster.snapshot().expect("stats");
    for node in cluster.nodes() {
        assert_eq!(snap.gauge(node, "net_send_failures"), Some(0.0), "node {node}");
    }
    cluster.shutdown().expect("clean shutdown");
}

#[test]
fn provider_persists_segments_for_restart() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("sorrento-persist");
    let _ = std::fs::remove_dir_all(&dir);

    let mut cluster =
        LoopbackCluster::builder(1).data_root(&dir).boot().expect("boot loopback cluster");
    let cfg = cluster.ctl();
    // Past ATTACH_MAX so the bytes detach into a real data segment
    // instead of riding inline in the index segment's JSON.
    let data = payload(96 * 1024);

    let mut fs = FsScript::new();
    let h = fs.create("/keep").unwrap();
    fs.write(h, 0, data.clone()).unwrap();
    fs.close(h).unwrap();
    let out = ctl::run_script(&cfg, fs.into_ops(), 1, DEADLINE).expect("write script");
    assert_eq!(out.stats.failed_ops, 0, "write failed: {:?}", out.stats.last_error);

    // A clean stop persists every dirty segment and checkpoints the db.
    // Read the provider's disk offline: the images must decode, and one
    // of them must carry the file's bytes.
    cluster.stop(1).expect("clean shutdown");
    let images = cluster.disk_images(1).expect("persisted images decode");
    assert!(images.len() >= 2, "expected an index and a data segment, got {}", images.len());
    assert!(
        images.iter().any(|x| x.image.data.as_deref() == Some(&data[..])),
        "no persisted segment carries the written bytes"
    );

    // The boot path installs these images back into a segment store —
    // prove the persisted form is installable, not just decodable.
    let mut prov = sorrento::provider::StorageProvider::new(CostModel::fast_test(), 2);
    let now = sorrento_sim::SimTime::from_nanos(0);
    for xfer in images {
        let (seg, version) = (xfer.image.seg, xfer.image.version);
        prov.store.install_replica(xfer, now).expect("image installs");
        let round = prov.store.export(seg, Some(version)).expect("installed segment exports");
        assert_eq!(round.version, version);
    }
}

/// Send `msg` to node `to` over a bare mesh and return the first reply
/// `pick` accepts.
fn ask<T>(mesh: &mut Mesh, to: usize, msg: &Msg, pick: impl Fn(Msg) -> Option<T>) -> T {
    mesh.send(NodeId::from_index(to), msg);
    let until = Instant::now() + Duration::from_secs(10);
    while let Some(left) = until.checked_duration_since(Instant::now()) {
        if let Some(found) = mesh.recv_timeout(left).and_then(|(_, reply)| pick(reply)) {
            return found;
        }
    }
    panic!("node {to} never answered {msg:?}");
}

/// `seg` as provider `p` hands it to a fetching replica.
fn fetch(mesh: &mut Mesh, p: usize, seg: SegId) -> Transfer {
    let req = 7 + p as u64;
    ask(mesh, p, &Msg::FetchSeg { req, seg }, |m| match m {
        Msg::FetchSegR { req: r, result: Ok(xfer) } if r == req => Some(*xfer),
        _ => None,
    })
}

/// An eagerly committed file's extra sites fetch each segment with its
/// piece table, and keep it. Every reply carries a CRC on the wire, so
/// what shows that a replica serves its writer's CRCs is the table it
/// hands on: each of the three sites, the writer's and the two installed
/// by sync, names every 256 KiB chunk with the CRC the client computed.
#[test]
fn replicas_installed_by_eager_sync_serve_their_writers_crcs() {
    sites_hand_on_the_writers_pieces(boot(3).0, |_| {});
}

/// The same after every provider is stopped and booted again from its
/// `data_dir`: a segment at rest keeps its piece table, so a reboot
/// serves the writers' CRCs, not ones computed over the disk's bytes.
#[test]
fn rebooted_replicas_serve_their_writers_crcs() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("sorrento-reboot-crcs");
    let _ = std::fs::remove_dir_all(&dir);
    let cluster =
        LoopbackCluster::builder(3).data_root(&dir).boot().expect("boot loopback cluster");
    sites_hand_on_the_writers_pieces(cluster, |cluster| {
        // All down before any comes back, so no site can refetch a
        // segment from a peer that still holds the table in memory.
        for p in cluster.providers() {
            cluster.stop(p).expect("clean stop");
        }
        for p in cluster.providers() {
            cluster.restart(p).expect("restart from data_dir");
        }
    });
}

/// Write a 1 MiB file, replication 3 with eager commit, in 256 KiB
/// chunks; run `between`; then fetch its data segment from every
/// provider, which must hand on the bytes with the client's pieces.
fn sites_hand_on_the_writers_pieces(
    mut cluster: LoopbackCluster,
    between: impl FnOnce(&mut LoopbackCluster),
) {
    const CHUNK: u64 = 256 << 10;
    let mut cfg = cluster.ctl();
    cfg.write_chunk = Some(CHUNK);
    let data = payload(4 * CHUNK as usize);
    let mut fs = FsScript::new();
    let options = FileOptions { replication: 3, eager_commit: true, ..FileOptions::default() };
    let h = fs.create_with("/r3", options).unwrap();
    fs.write(h, 0, data.clone()).unwrap();
    fs.close(h).unwrap();
    let out = ctl::run_script(&cfg, fs.into_ops(), 3, DEADLINE).expect("write script");
    assert_eq!(out.stats.failed_ops, 0, "write failed: {:?}", out.stats.last_error);
    between(&mut cluster);

    let peers = cfg.peers.iter().map(|p| (p.id, p.addr.parse().expect("peer address")));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let mut mesh =
        Mesh::start(NodeId::from_index(901), listener, peers.collect(), MeshConfig)
            .expect("start a bare mesh");
    mesh.hello_all();
    let lookup = Msg::NsLookup { req: 1, path: "/r3".into() };
    let entry = ask(&mut mesh, 0, &lookup, |m| match m {
        Msg::NsLookupR { req: 1, result: Ok(entry) } => Some(entry),
        _ => None,
    });
    let index = fetch(&mut mesh, 1, entry.file.index_segment()).image.data.expect("real bytes");
    let index = decode_index(&index).expect("the index decodes");
    let [seg] = index.segments[..] else { panic!("{} data segments", index.segments.len()) };
    let written: Vec<(u64, u64, u32)> = (0..4)
        .map(|i| (i * CHUNK, CHUNK, crc32(&data[(i * CHUNK) as usize..((i + 1) * CHUNK) as usize])))
        .collect();
    for p in cluster.providers() {
        let xfer = fetch(&mut mesh, p, seg.seg);
        assert!(xfer.image.data.as_deref() == Some(&data[..]), "provider {p}: the bytes");
        assert_eq!(xfer.pieces, written, "provider {p}: the writer's pieces");
    }
    cluster.shutdown().expect("clean shutdown");
}
