//! Simulator-level tests for the pipelined chunked read path, the
//! mirror of `pipelined_write.rs`: cutting a read extent into a window
//! of in-flight `ReadSeg`s must return exactly the bytes the
//! one-request-per-extent path returns — for any chunk and window, any
//! layout, unaligned ranges, segment boundaries, EOF and sparse holes —
//! must never hold more requests in flight than the window allows, and
//! must survive the death of an owner in mid-window.

use std::cell::RefCell;
use std::rc::Rc;

use sorrento::client::{ClientOp, OpResult, SorrentoClient, Workload};
use sorrento::cluster::{Cluster, ClusterBuilder};
use sorrento::costs::CostModel;
use sorrento::types::{FileOptions, Organization};
use sorrento_sim::{Dur, SimTime};

const KIB: u64 = 1024;
const MIB: u64 = 1024 * KIB;
/// Written range, with `HOLE` left out: the file is sparse inside a
/// segment, and inside a stripe unit of the striped layouts.
const FILE_LEN: u64 = 3 * MIB + 300 * KIB + 7;
const HOLE: std::ops::Range<u64> = (MIB + 200 * KIB + 3)..(MIB + 500 * KIB);

fn patterned(len: u64) -> Vec<u8> {
    (0..len).map(|i| (i * 31 % 251) as u8 + 1).collect()
}

/// What the file reads back as: the pattern, zeros in the hole.
fn expected() -> Vec<u8> {
    let mut data = patterned(FILE_LEN);
    data[HOLE.start as usize..HOLE.end as usize].fill(0);
    data
}

/// `(offset, len)` of every read issued, chosen to hit the cases the
/// chunking arithmetic can get wrong.
const READS: [(u64, u64); 8] = [
    (0, FILE_LEN),                  // everything: every segment, the hole
    (1, 100_000),                   // unaligned start, inside one segment
    (MIB - 70_001, 140_003),        // across a segment boundary
    (MIB + 100 * KIB, 600 * KIB),   // into, across and out of the hole
    (65_537, 262_145),              // one byte more than a 256 KiB chunk
    (2 * MIB, 64 * KIB),            // exactly one stripe unit
    (FILE_LEN - 1000, MIB),         // past EOF: clamped
    (FILE_LEN + 5, 10),             // wholly past EOF: empty
];

/// `(bytes, data)` of every read, in script order.
type ReadLog = Vec<(u64, Option<Vec<u8>>)>;

/// A scripted workload that keeps what every read returned.
struct Recording {
    ops: std::vec::IntoIter<ClientOp>,
    reads: Rc<RefCell<ReadLog>>,
}

impl Workload for Recording {
    fn next_op(&mut self, _: SimTime, _: &mut rand::rngs::SmallRng) -> Option<ClientOp> {
        self.ops.next()
    }

    fn on_result(&mut self, op: &ClientOp, result: &OpResult, _: SimTime) {
        if matches!(op, ClientOp::Read { .. }) {
            let data = result.data.as_ref().map(|b| b.to_vec());
            self.reads.borrow_mut().push((result.bytes, data));
        }
    }
}

struct Run {
    failed_ops: u64,
    ops_failed_metric: u64,
    rpc_timeouts: u64,
    reads: ReadLog,
    /// Most data reads ever in flight at once for one extent.
    max_in_flight: usize,
}

/// Write the sparse file, then open it and issue `reads`, with the
/// given bulk-pipelining knobs. `kill_mid_read` crashes an owner of a
/// replicated segment once the first read has requests in flight.
fn run(
    options: FileOptions,
    providers: usize,
    chunking: Option<(u64, usize)>,
    reads: &[(u64, u64)],
    kill_mid_read: bool,
) -> Run {
    let mut c: Cluster = ClusterBuilder::new()
        .providers(providers)
        .seed(7)
        .costs(CostModel::fast_test())
        .build();
    let data = patterned(FILE_LEN);
    let mut ops = vec![
        ClientOp::CreateWith { path: "/f".into(), options },
        ClientOp::write_bytes(0, data[..HOLE.start as usize].to_vec()),
        ClientOp::write_bytes(HOLE.end, data[HOLE.end as usize..].to_vec()),
        ClientOp::Close,
        ClientOp::Open { path: "/f".into(), write: false },
    ];
    ops.extend(reads.iter().map(|&(offset, len)| ClientOp::Read { offset, len }));
    ops.push(ClientOp::Close);
    let recorded = Rc::new(RefCell::new(Vec::new()));
    let id = c.add_client(Recording { ops: ops.into_iter(), reads: Rc::clone(&recorded) });
    if let Some((chunk, window)) = chunking {
        let client = c.sim.node_mut::<SorrentoClient>(id).expect("client node");
        client.write_chunk = Some(chunk);
        client.write_window = window;
    }
    let mut max_in_flight = 0;
    let mut killed = !kill_mid_read;
    let give_up = c.now() + Dur::secs(600);
    while c.client_stats(id).unwrap().finished_at.is_none() {
        assert!(c.sim.step() && c.now() < give_up, "script did not finish");
        let client = c.sim.node_ref::<SorrentoClient>(id).expect("client node");
        let in_flight = client.reads_in_flight();
        max_in_flight = max_in_flight.max(in_flight.values().copied().max().unwrap_or(0));
        if !killed && !in_flight.is_empty() && recorded.borrow().is_empty() {
            // A window of the first read is on the wire: kill an owner.
            let owners = c.segment_ownership();
            let victim = owners
                .values()
                .find(|o| o.len() >= 2)
                .map(|o| o[0].0)
                .expect("a replicated segment");
            c.crash_provider_at(c.now(), victim);
            killed = true;
        }
    }
    let stats = c.client_stats(id).unwrap();
    let reads = recorded.borrow().clone();
    Run {
        failed_ops: stats.failed_ops,
        ops_failed_metric: c.metrics().counter("client.ops_failed"),
        rpc_timeouts: c.metrics().counter("client.rpc_timeouts"),
        reads,
        max_in_flight,
    }
}

fn layouts() -> Vec<(&'static str, FileOptions, usize)> {
    vec![
        ("linear", FileOptions::default(), 4),
        (
            "striped",
            FileOptions {
                organization: Organization::Striped { stripes: 3, max_size: 8 * MIB },
                ..FileOptions::default()
            },
            4,
        ),
        (
            "hybrid",
            FileOptions {
                organization: Organization::Hybrid { group_stripes: 2 },
                ..FileOptions::default()
            },
            4,
        ),
        ("ec(4,2)", FileOptions::erasure_coded(4, 2, 8 * MIB), 6),
    ]
}

#[test]
fn chunked_reads_return_what_unchunked_reads_return() {
    let want = expected();
    for (name, options, providers) in layouts() {
        let control = run(options, providers, None, &READS, false);
        assert_eq!(control.failed_ops, 0, "{name}: unchunked control failed");
        assert_eq!(control.reads.len(), READS.len());
        // The control itself must match the flat model.
        for (&(offset, len), (bytes, data)) in READS.iter().zip(&control.reads) {
            let s = offset.min(FILE_LEN) as usize;
            let e = (offset + len).min(FILE_LEN) as usize;
            assert_eq!(*bytes, (e - s) as u64, "{name}: read({offset}, {len}) byte count");
            assert_eq!(
                data.as_deref(),
                Some(&want[s..e]),
                "{name}: read({offset}, {len}) differs from what was written"
            );
        }
        for chunk in [64 * KIB, 256 * KIB, MIB] {
            for window in [1usize, 4, 16] {
                let got = run(options, providers, Some((chunk, window)), &READS, false);
                let what = format!("{name}, chunk {chunk}, window {window}");
                assert_eq!(got.failed_ops, 0, "{what}: an op failed");
                assert_eq!(got.ops_failed_metric, 0, "{what}: client.ops_failed");
                assert!(got.reads == control.reads, "{what}: reads differ from the unchunked run");
                assert!(
                    got.max_in_flight <= window,
                    "{what}: {} ReadSegs in flight for one extent",
                    got.max_in_flight
                );
            }
        }
    }
}

#[test]
fn the_window_is_used_and_never_exceeded() {
    // A 1 MiB segment in 64 KiB chunks is 16 requests: a window of 4
    // must fill and hold, not trickle one request at a time.
    let got = run(FileOptions::default(), 4, Some((64 * KIB, 4)), &[(0, MIB)], false);
    assert_eq!(got.failed_ops, 0);
    assert_eq!(got.max_in_flight, 4);
    // Unchunked, an extent is one request.
    let got = run(FileOptions::default(), 4, None, &[(0, FILE_LEN)], false);
    assert_eq!(got.max_in_flight, 1);
}

#[test]
fn a_chunked_read_survives_its_owner_dying_mid_window() {
    let want = expected();
    let options = FileOptions { replication: 2, eager_commit: true, ..FileOptions::default() };
    for window in [1usize, 4, 16] {
        let got = run(options, 4, Some((64 * KIB, window)), &[(0, FILE_LEN)], true);
        assert_eq!(got.failed_ops, 0, "window {window}: the read failed");
        assert_eq!(got.ops_failed_metric, 0, "window {window}: client.ops_failed");
        assert!(got.rpc_timeouts > 0, "window {window}: the kill hit no request in flight");
        assert!(got.max_in_flight <= window);
        let (bytes, data) = &got.reads[0];
        // Every chunk present, and counted, exactly once.
        assert_eq!(*bytes, FILE_LEN, "window {window}: bytes counted");
        assert!(data.as_deref() == Some(&want[..]), "window {window}: readback mismatch");
    }
}
