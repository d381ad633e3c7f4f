//! The allocation budgets of a bulk read and of an erasure-coded write,
//! counted process-wide.
//!
//! One namespace and three providers in-process on loopback, one 32 MiB
//! file written and read back over the pipelined path (256 KiB chunks,
//! window 4). While the read runs, a counting global allocator — this
//! file is its own test binary, so it may install one — watches every
//! thread of every node: the read may allocate the result and one
//! landing buffer per reply frame, and nothing else of any size. The
//! same allocator watches one 32 MiB EC(4,2) write session on six
//! providers from open to close. These are counts, so they repeat
//! exactly; they fail the day someone re-adds a copy (DESIGN.md §9.5
//! has the ledger). Last, a provider serves one 8 MiB replica fetch to a
//! bare socket, and no node may allocate a copy of it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use sorrento::api::FsScript;
use sorrento::proto::Msg;
use sorrento::store::{SegMeta, WritePayload};
use sorrento::types::{FileOptions, SegId, Version};
use sorrento_net::ctl;
use sorrento_net::frame::{self, Frame, HEADER_LEN};
use sorrento_net::pool::BufPool;
use sorrento_net::testkit::{payload, LoopbackCluster};
use sorrento_sim::NodeId;

const FILE_LEN: usize = 32 << 20;
const MIB: f64 = (1 << 20) as f64;

/// Live bytes since process start; may dip below zero only transiently.
static LIVE: AtomicI64 = AtomicI64::new(0);
/// Set by the test: the next allocation of `FILE_LEN` or more — the
/// read's result — opens the window.
static ARMED: AtomicBool = AtomicBool::new(false);
static IN_WINDOW: AtomicBool = AtomicBool::new(false);
/// `LIVE` when the window opened (the result itself not yet counted).
static BASE: AtomicI64 = AtomicI64::new(0);
/// Highest `LIVE` seen inside the window.
static PEAK: AtomicI64 = AtomicI64::new(0);
/// Bytes allocated inside the window, the result included.
static ALLOCATED: AtomicU64 = AtomicU64::new(0);
/// Largest single allocation inside the window other than the result.
static LARGEST: AtomicU64 = AtomicU64::new(0);
/// Every allocation since process start, window or not.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated inside the window by threads with `ON_CLIENT` set.
static CLIENT_ALLOCATED: AtomicU64 = AtomicU64::new(0);
/// The counters are process-wide: one test at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

thread_local! {
    /// Set on the thread that runs a script: the client's node loop.
    static ON_CLIENT: Cell<bool> = const { Cell::new(false) };
}

/// One test at a time, even after another has failed.
fn alone() -> MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner)
}

struct Counting;

impl Counting {
    fn on_alloc(size: usize) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let before = LIVE.fetch_add(size as i64, Ordering::Relaxed);
        if IN_WINDOW.load(Ordering::Relaxed) {
            LARGEST.fetch_max(size as u64, Ordering::Relaxed);
        } else if size >= FILE_LEN && ARMED.swap(false, Ordering::Relaxed) {
            BASE.store(before, Ordering::Relaxed);
            IN_WINDOW.store(true, Ordering::Relaxed);
        } else {
            return;
        }
        ALLOCATED.fetch_add(size as u64, Ordering::Relaxed);
        if ON_CLIENT.try_with(Cell::get).unwrap_or(false) {
            CLIENT_ALLOCATED.fetch_add(size as u64, Ordering::Relaxed);
        }
        PEAK.fetch_max(before + size as i64, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters beside it are atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        Counting::on_alloc(l.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(l) }
    }

    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        Counting::on_alloc(l.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(l) }
    }

    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        LIVE.fetch_sub(l.size() as i64, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.dealloc(p, l) }
    }

    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        // Counted as if it always moved: `n` fresh bytes.
        LIVE.fetch_sub(l.size() as i64, Ordering::Relaxed);
        Counting::on_alloc(n);
        // SAFETY: as above.
        unsafe { System.realloc(p, l, n) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Zero the window's counters. `arm` makes the next allocation of
/// `FILE_LEN` or more open the window; otherwise it opens now.
fn reset_window(arm: bool) {
    ALLOCATED.store(0, Ordering::Relaxed);
    CLIENT_ALLOCATED.store(0, Ordering::Relaxed);
    LARGEST.store(0, Ordering::Relaxed);
    let live = LIVE.load(Ordering::Relaxed);
    BASE.store(live, Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    ARMED.store(arm, Ordering::Relaxed);
    IN_WINDOW.store(!arm, Ordering::Relaxed);
}

#[test]
fn a_pooled_bulk_encode_allocates_once_per_frame() {
    let _alone = alone();
    let pool = BufPool::new();
    let sender = NodeId::from_index(7);
    let msg = Msg::WriteShadow {
        req: 42,
        shadow: 9,
        offset: 0,
        payload: WritePayload::Real(payload(64 * 1024).into()),
        truncate: false,
    };
    let encode_once = || {
        let mut buf = pool.check_out();
        frame::encode_msg_into(&mut buf, sender, &msg);
        drop(Arc::new(buf)); // the mesh's shared queue item
    };
    // Warm the pool: steady state starts once a buffer has grown to size.
    (0..256).for_each(|_| encode_once());
    let frames = 2_000;
    let before = ALLOCS.load(Ordering::Relaxed);
    (0..frames).for_each(|_| encode_once());
    let per_frame = (ALLOCS.load(Ordering::Relaxed) - before) as f64 / frames as f64;
    assert!(per_frame <= 1.0, "{per_frame} allocations per pooled 64 KiB WriteShadow encode");
}

#[test]
fn a_32_mib_read_allocates_the_result_and_its_landing_buffers() {
    let _alone = alone();
    let cluster = LoopbackCluster::builder(3).boot().expect("boot 1 + 3");
    let mut ctl_cfg = cluster.ctl();
    ctl_cfg.write_chunk = Some(256 * 1024);
    let deadline = Duration::from_secs(60);

    let data = bytes::Bytes::from(payload(FILE_LEN));
    let mut fs = FsScript::new();
    let h = fs.create("/big").unwrap();
    fs.write(h, 0, data.clone()).unwrap();
    fs.close(h).unwrap();
    let out = ctl::run_script(&ctl_cfg, fs.into_ops(), 3, deadline).expect("write script");
    assert_eq!(out.stats.failed_ops, 0, "write failed: {:?}", out.stats.last_error);
    drop(out);

    let mut fs = FsScript::new();
    let h = fs.open("/big", false).unwrap();
    fs.read(h, 0, FILE_LEN as u64).unwrap();
    fs.close(h).unwrap();
    let ops = fs.into_ops();
    reset_window(true);
    let out = ctl::run_script(&ctl_cfg, ops, 3, deadline).expect("read script");
    IN_WINDOW.store(false, Ordering::Relaxed);
    let kept = (LIVE.load(Ordering::Relaxed) - BASE.load(Ordering::Relaxed)) as f64 / MIB;
    assert_eq!(out.stats.failed_ops, 0, "read failed: {:?}", out.stats.last_error);
    assert!(out.stats.last_read.as_deref() == Some(&data[..]), "readback mismatch");
    assert!(!ARMED.load(Ordering::Relaxed), "the read never allocated its result");

    let allocated = ALLOCATED.load(Ordering::Relaxed) as f64 / MIB;
    let above = (PEAK.load(Ordering::Relaxed) - BASE.load(Ordering::Relaxed)) as f64 / MIB;
    let largest = LARGEST.load(Ordering::Relaxed) as f64 / MIB;
    eprintln!(
        "32 MiB read: {allocated:.1} MiB allocated ({:.2} x), live at most {above:.1} MiB above \
         the level before it and {kept:.1} MiB after, largest allocation beside the result \
         {largest:.2} MiB",
        allocated / 32.0
    );
    // The result, one landing buffer per reply frame, and small change:
    // a provider's reply is spliced from its store, so no encode buffer
    // holds a copy of it.
    assert!(allocated <= 2.05 * 32.0, "{allocated:.1} MiB allocated during one 32 MiB read");
    // The result plus the landing buffers of the replies in flight. The
    // peak is the windows' first burst, when every extent's pieces are
    // asked for at once: 8–16 landed replies on a 2-core VM.
    assert!(above <= 32.0 + 5.0, "live bytes rose {above:.1} MiB during one 32 MiB read");
    // Nothing outlives the read but its result: no copy of a reply stays
    // in a queue or a pool.
    assert!(kept <= 32.0 + 1.0, "{kept:.1} MiB still live after one 32 MiB read");
    // Nothing segment-sized: every frame is a chunk.
    assert!(largest <= 1.0, "a {largest:.2} MiB allocation beside the result");

    cluster.shutdown().expect("clean daemon shutdown");
}

#[test]
fn a_32_mib_ec_write_allocates_its_parity_and_no_file_copy() {
    let _alone = alone();
    let cluster = LoopbackCluster::builder(6).boot().expect("boot 1 + 6");
    let mut ctl_cfg = cluster.ctl();
    ctl_cfg.write_chunk = Some(256 * 1024);
    let deadline = Duration::from_secs(60);

    let data = bytes::Bytes::from(payload(FILE_LEN));
    let mut fs = FsScript::new();
    let h = fs.create_with("/ec", FileOptions::erasure_coded(4, 2, FILE_LEN as u64)).unwrap();
    fs.write(h, 0, data.clone()).unwrap();
    fs.close(h).unwrap();
    let ops = fs.into_ops();
    reset_window(false);
    ON_CLIENT.set(true);
    let out = ctl::run_script(&ctl_cfg, ops, 6, deadline).expect("write script");
    ON_CLIENT.set(false);
    IN_WINDOW.store(false, Ordering::Relaxed);
    assert_eq!(out.stats.failed_ops, 0, "EC write failed: {:?}", out.stats.last_error);
    drop(out);
    let allocated = ALLOCATED.load(Ordering::Relaxed) as f64 / MIB;
    let client = CLIENT_ALLOCATED.load(Ordering::Relaxed) as f64 / MIB;
    let largest = LARGEST.load(Ordering::Relaxed) as f64 / MIB;
    eprintln!(
        "32 MiB EC(4,2) write session: {allocated:.1} MiB allocated ({:.2} x), {client:.1} MiB \
         of it by the client's node loop ({:.2} x), largest allocation {largest:.2} MiB",
        allocated / 32.0,
        client / 32.0
    );

    let mut fs = FsScript::new();
    let h = fs.open("/ec", false).unwrap();
    fs.read(h, 0, FILE_LEN as u64).unwrap();
    fs.close(h).unwrap();
    let out = ctl::run_script(&ctl_cfg, fs.into_ops(), 6, deadline).expect("read script");
    assert_eq!(out.stats.failed_ops, 0, "read failed: {:?}", out.stats.last_error);
    assert!(out.stats.last_read.as_deref() == Some(&data[..]), "readback mismatch");

    // The client's node loop allocates the m parity shards (16 MiB) and
    // small change: no copy of the file, whole or split into shards.
    assert!(client <= 0.5 * 32.0 + 4.0, "the client allocated {client:.1} MiB for 32 MiB of EC");
    // Nothing larger than one parity shard (8 MiB), on any node.
    assert!(largest <= 8.0, "a {largest:.2} MiB allocation during one 32 MiB EC write");
    // The rest is the providers': a landing buffer per frame and the
    // stored extents their bytes are appended to (DESIGN.md §9.5).
    assert!(allocated <= 5.25 * 32.0, "{allocated:.1} MiB allocated during one 32 MiB EC write");

    cluster.shutdown().expect("clean daemon shutdown");
}

/// A node id no config lists: the bare socket's.
const STRANGER: usize = 777;

/// A peer that is only a socket: it encodes and decodes outside the
/// window, and inside it reads into buffers that already exist.
struct BareSocket {
    sock: TcpStream,
    /// Bytes read and not yet consumed; never grows past its capacity.
    buf: Vec<u8>,
    chunk: Vec<u8>,
}

impl BareSocket {
    fn connect(cluster: &LoopbackCluster, i: usize) -> BareSocket {
        let mut sock = TcpStream::connect(cluster.addr(i)).expect("connect");
        let hello = frame::encode_hello(NodeId::from_index(STRANGER), "nowhere");
        sock.write_all(&hello).expect("hello");
        BareSocket { sock, buf: Vec::with_capacity(16 << 20), chunk: vec![0; 64 << 10] }
    }

    fn send(&mut self, msg: &Msg) {
        let wire = frame::encode_msg(NodeId::from_index(STRANGER), msg);
        self.sock.write_all(&wire).expect("send");
    }

    /// Read until a whole frame carrying message `tag` is in `buf`, and
    /// return its length there (it starts at 0). Frames before it (the
    /// daemon's multicasts) are dropped. Allocates nothing.
    fn read_frame(&mut self, tag: u8) -> usize {
        loop {
            while self.buf.len() >= HEADER_LEN {
                let len = u32::from_le_bytes(self.buf[10..14].try_into().unwrap()) as usize;
                let end = HEADER_LEN + len;
                if self.buf.len() < end {
                    break;
                }
                if len > 0 && self.buf[HEADER_LEN] == tag {
                    return end;
                }
                self.buf.drain(..end);
            }
            let n = self.sock.read(&mut self.chunk).expect("read");
            assert!(n > 0, "the daemon hung up");
            assert!(self.buf.len() + n <= self.buf.capacity(), "the read buffer would grow");
            self.buf.extend_from_slice(&self.chunk[..n]);
        }
    }

    /// Send `msg` and return the first reply with message tag `tag`.
    fn call(&mut self, msg: &Msg, tag: u8) -> Msg {
        self.send(msg);
        let end = self.read_frame(tag);
        let decoded = frame::decode_frame(&self.buf[..end]).expect("the reply decodes");
        self.buf.drain(..end);
        match decoded {
            (_, Frame::Msg(reply)) => reply,
            (_, other) => panic!("not a message: {other:?}"),
        }
    }
}

#[test]
fn serving_an_8_mib_fetch_allocates_no_copy_of_it() {
    const SEG_LEN: usize = 8 << 20;
    const CHUNK: usize = 256 << 10;
    let _alone = alone();
    let cluster = LoopbackCluster::builder(1).boot().expect("boot 1 + 1");
    let mut peer = BareSocket::connect(&cluster, 1);

    // One segment, written in checked chunks and committed, as a
    // pipelined client leaves it.
    let seg = SegId(0xFE7C);
    let create = Msg::CreateShadow { req: 1, span: 0, seg, base: None, meta: SegMeta::default() };
    let Msg::CreateShadowR { result: Ok(shadow), .. } = peer.call(&create, 25) else {
        panic!("no shadow");
    };
    let data = payload(SEG_LEN);
    for (i, chunk) in data.chunks(CHUNK).enumerate() {
        let payload = WritePayload::Real(bytes::Bytes::copy_from_slice(chunk));
        let (req, offset) = (2 + i as u64, (i * CHUNK) as u64);
        let write = Msg::WriteShadow { req, shadow, offset, payload, truncate: false };
        assert!(matches!(peer.call(&write, 27), Msg::WriteShadowR { result: Ok(()), .. }));
    }
    let commit = Msg::Commit { req: 100, span: 0, items: vec![(shadow, Version(1))] };
    assert!(matches!(peer.call(&commit, 34), Msg::CommitR { result: Ok(()), .. }));

    let fetch = frame::encode_msg(NodeId::from_index(STRANGER), &Msg::FetchSeg { req: 101, seg });
    reset_window(false);
    peer.sock.write_all(&fetch).expect("send the fetch");
    let end = peer.read_frame(41);
    IN_WINDOW.store(false, Ordering::Relaxed);
    let allocated = ALLOCATED.load(Ordering::Relaxed) as f64 / MIB;
    let largest = LARGEST.load(Ordering::Relaxed);
    eprintln!(
        "8 MiB replica fetch: {allocated:.2} MiB allocated on every node, largest allocation \
         {largest} B"
    );

    let (_, Frame::Msg(Msg::FetchSegR { result: Ok(xfer), .. })) =
        frame::decode_frame(&peer.buf[..end]).expect("the reply decodes")
    else {
        panic!("no replica image");
    };
    assert!(xfer.image.data.as_deref() == Some(&data[..]), "the image is not what was written");
    assert_eq!(xfer.pieces.len(), SEG_LEN / CHUNK, "the writer's pieces travel with it");
    // The source exports a view of its extent and splices it into the
    // socket write: no buffer of a segment's size, or of a chunk's.
    assert!(largest <= 64 << 10, "a {largest} B allocation while serving one fetch");

    cluster.shutdown().expect("clean daemon shutdown");
}
