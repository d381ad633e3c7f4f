//! Per-layer probes: each times one layer's public functions in a loop,
//! from outside, with nothing else running. They need no workload and
//! report the same names on every `--trace 1` run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::hint::black_box;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use bytes::Bytes;
use sorrento::proto::Msg;
use sorrento::store::{LocalStore, ReplicaImage, SegMeta, WritePayload};
use sorrento::types::{SegId, Version};
use sorrento_ec::ReedSolomon;
use sorrento_kvdb::{Db, DbConfig, FileBackend, MemBackend};
use sorrento_net::frame::{self, Frame, StreamDecoder};
use sorrento_net::pool::BufPool;
use sorrento_net::tcp::Mesh;
use sorrento_sim::{Dur, NodeId, SimTime};

use crate::cluster::{raw_mesh, round_trip, Cluster};
use crate::e2e::TempDir;
use crate::stats;
use crate::workloads::{Rng, LARGE_FILE, SMALL_FILE};

/// `(metric name, value)` pairs a probe produced.
pub type Values = Vec<(&'static str, f64)>;

const CHUNK: usize = 256 * 1024;
const MIB: f64 = (1u64 << 20) as f64;

/// Counts heap allocations while switched on, so the codec probes can
/// report an exact allocations-per-frame figure. Off (one relaxed load
/// per allocation) during everything else.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter has no bearing on
// the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(l) }
    }

    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        // SAFETY: `p` came from `System` through this allocator with `l`.
        unsafe { System.dealloc(p, l) }
    }

    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's obligations are exactly `System.realloc`'s.
        unsafe { System.realloc(p, l, n) }
    }
}

/// Allocations `f` makes, with the wall seconds it took. Exact only
/// while no other thread allocates, which holds for the codec probes.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, f64, T) {
    let a0 = ALLOCS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let t0 = Instant::now();
    let out = f();
    let secs = t0.elapsed().as_secs_f64();
    COUNTING.store(false, Ordering::Relaxed);
    (ALLOCS.load(Ordering::Relaxed) - a0, secs, out)
}

fn seeded_bytes(len: usize, seed: u64) -> Bytes {
    let mut rng = Rng::new(seed, 0xB17E5);
    let mut v = Vec::with_capacity(len + 8);
    while v.len() < len {
        v.extend_from_slice(&rng.next().to_le_bytes());
    }
    v.truncate(len);
    v.into()
}

fn bulk_msg(req: u64) -> Msg {
    Msg::WriteShadow {
        req,
        shadow: 9,
        offset: 0,
        payload: WritePayload::Real(seeded_bytes(CHUNK, 1)),
        truncate: false,
    }
}

fn encode_loop(pool: &BufPool, msg: &Msg, iters: u64) -> u64 {
    let mut bytes = 0;
    for _ in 0..iters {
        let mut buf = pool.check_out();
        frame::encode_msg_into(&mut buf, NodeId::from_index(7), black_box(msg));
        bytes += black_box(&buf).len() as u64;
    }
    bytes
}

fn decode_loop(wire: &[u8], iters: u64) {
    let mut dec = StreamDecoder::new();
    let mut out = Vec::with_capacity(1);
    for _ in 0..iters {
        dec.feed(black_box(wire), &mut out)
            .expect("probe frame decodes");
        assert!(matches!(out.pop(), Some((_, Frame::Msg(_)))));
    }
}

/// `frame` layer: the wire codec with pooled buffers, small and bulk.
pub fn frame_probe(scale: u64) -> Values {
    let pool = BufPool::new();
    let small = Msg::NsLookup {
        req: 42,
        path: "/c0-70768a15da1c".into(),
    };
    let bulk = bulk_msg(42);
    let (small_iters, bulk_iters) = (20_000 * scale, 100 * scale);
    encode_loop(&pool, &small, 256);
    encode_loop(&pool, &bulk, 8);

    let (_, enc_small_s, _) = counted(|| encode_loop(&pool, &small, small_iters));
    let (enc_allocs, enc_bulk_s, enc_bytes) = counted(|| encode_loop(&pool, &bulk, bulk_iters));
    let small_wire = frame::encode_msg(NodeId::from_index(7), &small);
    let bulk_wire = frame::encode_msg(NodeId::from_index(7), &bulk);
    let (_, dec_small_s, ()) = counted(|| decode_loop(&small_wire, small_iters));
    let (dec_allocs, dec_bulk_s, ()) = counted(|| decode_loop(&bulk_wire, bulk_iters));

    // What a provider's persistence sweep encodes per small file.
    let image = ReplicaImage {
        seg: SegId(77),
        version: Version::INITIAL.next(),
        len: SMALL_FILE as u64,
        data: Some(seeded_bytes(SMALL_FILE, 2)),
        meta: SegMeta::default(),
    };
    let image_iters = 2_000 * scale;
    let t0 = Instant::now();
    for _ in 0..image_iters {
        black_box(frame::encode_image_bytes(black_box(&image)));
    }
    let image_s = t0.elapsed().as_secs_f64();

    vec![
        (
            "frame.encode_small_ns",
            enc_small_s * 1e9 / small_iters as f64,
        ),
        (
            "frame.decode_small_ns",
            dec_small_s * 1e9 / small_iters as f64,
        ),
        (
            "frame.encode_bulk_mb_s",
            enc_bytes as f64 / MIB / enc_bulk_s,
        ),
        (
            "frame.decode_bulk_mb_s",
            (bulk_wire.len() as u64 * bulk_iters) as f64 / MIB / dec_bulk_s,
        ),
        ("frame.encode_allocs", enc_allocs as f64 / bulk_iters as f64),
        ("frame.decode_allocs", dec_allocs as f64 / bulk_iters as f64),
        (
            "frame.image_encode_mb_s",
            (SMALL_FILE as u64 * image_iters) as f64 / MIB / image_s,
        ),
    ]
}

/// `n` timed round trips (after 20 untimed ones) of `make(req)` against
/// `peer`; ascending µs.
fn round_trips(
    mesh: &mut Mesh,
    peer: NodeId,
    n: u64,
    make: impl Fn(u64) -> Msg,
    is_reply: impl Fn(&Msg, u64) -> bool,
) -> io::Result<Vec<f64>> {
    let mut us = Vec::with_capacity(n as usize);
    for req in 0..n + 20 {
        let t0 = Instant::now();
        round_trip(mesh, peer, &make(req), |m| is_reply(m, req))?;
        if req >= 20 {
            us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    Ok(stats::sorted(&us))
}

/// Sets the flag when dropped: however a scope is left, its helper
/// thread is told to stop.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// `mesh` layer: two bare meshes and an echo thread — the floor under
/// every RPC, and the bulk rate with four 256 KiB frames in flight.
pub fn mesh_probe(scale: u64) -> io::Result<Values> {
    let b_id = NodeId::from_index(2);
    let mut b = raw_mesh(2, HashMap::new())?;
    let mut a = raw_mesh(1, HashMap::from([(b_id, b.listen_addr())]))?;
    a.hello_all();
    let stop = &AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                match b.recv_timeout(Duration::from_millis(20)) {
                    // Bulk frames are acknowledged, not bounced.
                    Some((from, Msg::WriteShadow { req, .. })) => b.send(
                        from,
                        &Msg::WriteShadowR {
                            req,
                            result: Ok(()),
                        },
                    ),
                    Some((from, msg)) => b.send(from, &msg),
                    None => {}
                }
            }
        });
        let _stop_echo = SetOnDrop(stop);
        let rtt = round_trips(
            &mut a,
            b_id,
            1_000 * scale,
            |req| Msg::StatsQuery { req },
            |m, req| matches!(m, Msg::StatsQuery { req: r } if *r == req),
        )?;
        let frames = 200 * scale;
        let msg = bulk_msg(0);
        let t0 = Instant::now();
        let (mut sent, mut acked) = (0, 0);
        while acked < frames {
            while sent < frames && sent - acked < 4 {
                a.send(b_id, &msg);
                sent += 1;
            }
            if a.recv_timeout(Duration::from_secs(10)).is_none() {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "bulk frame never acknowledged",
                ));
            }
            acked += 1;
        }
        let bulk_s = t0.elapsed().as_secs_f64();
        Ok(vec![
            ("mesh.rtt_p50_us", stats::percentile(&rtt, 0.50)),
            ("mesh.rtt_p95_us", stats::percentile(&rtt, 0.95)),
            (
                "mesh.bulk_mb_s",
                (frames as usize * CHUNK) as f64 / MIB / bulk_s,
            ),
        ])
    })
}

/// `daemon` layer: a raw mesh against a live provider daemon. A
/// `TraceQuery` for an unknown span is answered by the daemon loop
/// itself, so echo − mesh RTT is what the loop adds to every message.
pub fn daemon_probe(scale: u64, mesh_rtt_p50_us: f64) -> io::Result<Values> {
    let cluster = Cluster::boot(1, None)?;
    let provider = NodeId::from_index(1);
    let mut mesh = raw_mesh(2000, HashMap::from([(provider, cluster.addr(1))]))?;
    mesh.hello_all();
    let echo = round_trips(
        &mut mesh,
        provider,
        500 * scale,
        |req| Msg::TraceQuery {
            req,
            span: u64::MAX,
        },
        |m, req| matches!(m, Msg::TraceR { req: r, .. } if *r == req),
    )?;
    let stats_q = round_trips(
        &mut mesh,
        provider,
        100 * scale,
        |req| Msg::StatsQuery { req },
        |m, req| matches!(m, Msg::StatsR { req: r, .. } if *r == req),
    )?;
    drop(mesh);
    cluster.stop()?;
    let p50 = stats::percentile(&echo, 0.50);
    Ok(vec![
        ("daemon.echo_p50_us", p50),
        ("daemon.echo_p95_us", stats::percentile(&echo, 0.95)),
        ("daemon.loop_overhead_us", p50 - mesh_rtt_p50_us),
        ("daemon.stats_query_us", stats::percentile(&stats_q, 0.50)),
    ])
}

/// `store` layer: the in-memory segment store under a provider.
pub fn store_probe(scale: u64) -> Values {
    let now = SimTime::from_nanos(1);
    let ttl = Dur::minutes(5);
    let chunk = seeded_bytes(CHUNK, 3);
    let chunks = LARGE_FILE / CHUNK;
    let files = 2 * scale;
    let mut store = LocalStore::new(2);

    let t0 = Instant::now();
    for f in 0..files {
        let shadow =
            store.open_fresh_shadow(SegId(1000 + u128::from(f)), SegMeta::default(), now, ttl);
        for c in 0..chunks {
            store
                .write_shadow(
                    shadow,
                    (c * CHUNK) as u64,
                    WritePayload::Real(chunk.clone()),
                )
                .expect("probe shadow write");
        }
        let v = Version::INITIAL.next();
        store.prepare_shadow(shadow, v).expect("probe prepare");
        store.commit_shadow(shadow, v, now).expect("probe commit");
    }
    let write_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    for f in 0..files {
        for c in 0..chunks {
            let out = store.read(
                SegId(1000 + u128::from(f)),
                None,
                (c * CHUNK) as u64,
                CHUNK as u64,
            );
            assert_eq!(black_box(out).expect("probe read").len, CHUNK as u64);
        }
    }
    let read_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    for f in 0..files {
        black_box(
            store
                .export(SegId(1000 + u128::from(f)), None)
                .expect("probe export"),
        );
    }
    let export_s = t0.elapsed().as_secs_f64();

    // What each persistence sweep walks on a provider holding 10k files.
    let mut many = LocalStore::new(2);
    let tiny = seeded_bytes(64, 4);
    for s in 0..10_000u128 {
        many.direct_write(
            SegId(s),
            0,
            WritePayload::Real(tiny.clone()),
            SegMeta::default(),
            now,
        )
        .expect("probe direct write");
    }
    let walks = 20 * scale;
    let t0 = Instant::now();
    for _ in 0..walks {
        assert_eq!(black_box(many.list_segments()).len(), 10_000);
    }
    let list_s = t0.elapsed().as_secs_f64();

    let mb = (files as usize * LARGE_FILE) as f64 / MIB;
    vec![
        ("store.write_mb_s", mb / write_s),
        ("store.read_mb_s", mb / read_s),
        ("store.export_mb_s", mb / export_s),
        ("store.list_segments_us", list_s * 1e6 / walks as f64),
    ]
}

/// `kvdb` layer: the file-backed database a durable provider persists
/// into, and the in-memory one under the namespace.
pub fn kvdb_probe(scale: u64) -> io::Result<Values> {
    let tmp = TempDir::new("kvdb-probe")?;
    // Never checkpoint on its own: the probe measures the WAL, then the
    // checkpoint, separately.
    let config = DbConfig {
        checkpoint_wal_bytes: usize::MAX,
        ..DbConfig::default()
    };
    let mut db = Db::open(FileBackend::open(tmp.path().join("small"))?, config)?;
    let value = seeded_bytes(SMALL_FILE, 5);
    let puts = 300 * scale;
    let mut us = Vec::with_capacity(puts as usize);
    for i in 0..puts {
        let t0 = Instant::now();
        db.put(format!("seg/{i:032x}"), &value)?;
        us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let us = stats::sorted(&us);
    let wal_per_user = db.wal_bytes() as f64 / (puts as usize * SMALL_FILE) as f64;

    let big = seeded_bytes(1 << 20, 6);
    let big_puts = 16 * scale;
    let t0 = Instant::now();
    for i in 0..big_puts {
        db.put(format!("big/{i:032x}"), &big)?;
    }
    let big_s = t0.elapsed().as_secs_f64();
    drop(db);

    // 10k keys of 1 KiB: checkpoint them, then time crash recovery from
    // that checkpoint plus a WAL tail.
    let dir = tmp.path().join("many");
    let mut db = Db::open(FileBackend::open(&dir)?, config)?;
    let kib = seeded_bytes(1024, 7);
    let mut batch = sorrento_kvdb::Batch::new();
    for i in 0..10_000 {
        batch.put(format!("seg/{i:032x}"), &kib);
    }
    db.apply(batch)?;
    let t0 = Instant::now();
    db.checkpoint()?;
    let checkpoint_ms = t0.elapsed().as_secs_f64() * 1e3;
    for i in 0..100 {
        db.put(format!("tail/{i:032x}"), &kib)?;
    }
    drop(db);
    let t0 = Instant::now();
    let db = Db::open(FileBackend::open(&dir)?, config)?;
    let recover_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(db.len(), 10_100);
    drop(db);

    // The namespace's map: path-sized keys, entry-sized values.
    let mut mem = Db::open(MemBackend::new(), config)?;
    let entry = seeded_bytes(96, 8);
    let n = 20_000 * scale;
    let t0 = Instant::now();
    for i in 0..n {
        mem.put(format!("/m0/d{:012x}/f{i:012x}", i / 16), &entry)?;
    }
    let put_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    for i in 0..n {
        assert!(black_box(mem.get(format!("/m0/d{:012x}/f{i:012x}", i / 16))).is_some());
    }
    let get_s = t0.elapsed().as_secs_f64();

    Ok(vec![
        ("kvdb.file_put_p50_us", stats::percentile(&us, 0.50)),
        ("kvdb.file_put_p95_us", stats::percentile(&us, 0.95)),
        ("kvdb.file_put_mb_s", big_puts as f64 / big_s),
        ("kvdb.wal_bytes_per_user_byte", wal_per_user),
        ("kvdb.checkpoint_ms", checkpoint_ms),
        ("kvdb.recover_ms", recover_ms),
        ("kvdb.mem_put_ns", put_s * 1e9 / n as f64),
        ("kvdb.mem_get_ns", get_s * 1e9 / n as f64),
    ])
}

/// `ec` layer: Reed-Solomon (4, 2) over one 32 MiB file.
pub fn ec_probe(scale: u64) -> Values {
    let rs = ReedSolomon::new(4, 2).expect("(4,2) is a valid code");
    let file = seeded_bytes(LARGE_FILE, 9);
    let shard = LARGE_FILE / 4;
    let data: Vec<&[u8]> = (0..4).map(|i| &file[i * shard..(i + 1) * shard]).collect();
    let t0 = Instant::now();
    let mut parity = Vec::new();
    for _ in 0..scale {
        parity = rs.encode(black_box(&data)).expect("probe encode");
    }
    let encode_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    for _ in 0..scale {
        // Lose two data shards: the worst case a read can repair.
        let mut shards: Vec<Option<Vec<u8>>> = data.iter().map(|d| Some(d.to_vec())).collect();
        shards.extend(parity.iter().cloned().map(Some));
        shards[0] = None;
        shards[2] = None;
        rs.reconstruct(&mut shards).expect("probe reconstruct");
        assert_eq!(shards[2].as_deref(), Some(data[2]));
    }
    let reconstruct_s = t0.elapsed().as_secs_f64();
    let mb = scale as f64 * LARGE_FILE as f64 / MIB;
    vec![
        ("ec.encode_mb_s", mb / encode_s),
        ("ec.reconstruct_mb_s", mb / reconstruct_s),
    ]
}

/// Every probe, in an order that keeps the allocation counts exact (the
/// codec runs before any other thread exists).
pub fn run_all(scale: u64) -> io::Result<Values> {
    let mut out = frame_probe(scale);
    out.extend(store_probe(scale));
    out.extend(kvdb_probe(scale)?);
    out.extend(ec_probe(scale));
    let mesh = mesh_probe(scale)?;
    let rtt_p50 = mesh
        .iter()
        .find(|(k, _)| *k == "mesh.rtt_p50_us")
        .map_or(0.0, |(_, v)| *v);
    out.extend(mesh);
    out.extend(daemon_probe(scale, rtt_p50)?);
    Ok(out)
}
