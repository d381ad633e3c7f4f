//! A std-only, readiness-driven TCP mesh for Sorrento daemons.
//!
//! One event-loop thread per node owns *every* connection — the
//! listening socket, all inbound connections, and all outbound
//! connections — multiplexed through the in-repo [`epoll`] shim
//! (raw `epoll_create1`/`epoll_ctl`/`epoll_wait` on Linux). A second,
//! fixed thread dials outbound connections (blocking
//! `connect_timeout` must not stall the loop). That is the whole
//! census: **O(1) threads regardless of peer or connection count**,
//! which is what lets one node hold tens of thousands of client
//! sessions where the previous thread-per-connection design ran
//! 2+ threads per peer.
//!
//! Receive path: sockets are nonblocking; on `EPOLLIN` the loop reads
//! whatever bytes the kernel has into a per-connection
//! [`frame::StreamDecoder`], which reassembles frames across arbitrary
//! read boundaries (zero-copy: payload bytes land in the allocation
//! that becomes the frame's shared `Bytes`). Complete messages go to a
//! bounded inbox; `Hello` frames register the sender's listen address,
//! so a node only needs a seed peer list — everyone it has ever heard
//! from becomes routable.
//!
//! Send path: `send` encodes the frame once into a buffer checked out
//! of a [`BufPool`] — every byte but a checked blob's (a write's payload,
//! a read reply's, a transfer's: see [`frame`]), which stays where it lies, a
//! view of the store's extent or of the caller's payload, and is spliced
//! into the socket write at its position. An `Arc` of the pair goes onto
//! the peer's bounded queue (a multicast shares one encoded frame across
//! every queue), then the loop is kicked through an eventfd waker. A
//! queued bulk frame therefore holds a view, not a copy, however far
//! ahead of the socket its sender runs. The loop drains each queue into
//! vectored writes of ≤32 frames or ≈1 MiB; when the socket's buffer
//! fills it subscribes `EPOLLOUT` (counted — the backpressure gauge)
//! and resumes exactly where the partial write stopped. Replies
//! prefer the live inbound connection a peer's frames arrived on, so
//! a client does not need its own listener to be answered.
//!
//! Delivery semantics deliberately mirror the simulator's lossy
//! network: a send to a dead or unreachable peer gets one redial after
//! a short backoff and is then dropped silently; a full queue drops
//! the frame. The protocol already treats message loss as normal (RPC
//! timeouts, repair scans), so the transport never surfaces
//! per-message errors.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use epoll::{Interest, Poller, Token, Waker};
use sorrento::proto::Msg;
use sorrento_sim::{NodeId, TelemetryEvent};

use crate::chaos::{Chaos, ChaosConfig, Fault};
use crate::flight::FlightRecorder;
use crate::frame::{self, Frame, FrameError, StreamDecoder};
use crate::pool::{BufPool, PooledBuf};

/// Most frames folded into one vectored write.
const COALESCE_MAX: usize = 32;
/// Bytes past which a write batch takes no further frame: a socket
/// accepts a few MiB at most.
const COALESCE_BYTES: usize = 1 << 20;

/// Consecutive queue-full drops to one peer before its connection is
/// evicted (closed and redialed on the next send). A healthy peer never
/// gets close; a wedged one is torn down within one queue's worth of
/// traffic so its socket is reclaimed.
const EVICT_AFTER_FULL: u32 = 64;

/// Reads drained from one connection per readiness event before the
/// loop moves on — fairness under a firehose from one peer
/// (level-triggered epoll re-arms anything left).
const READS_PER_EVENT: usize = 256;

/// Bound on the parting flush at shutdown: frames enqueued just before
/// `shutdown()` (a daemon's final replies) get this long to reach the
/// kernel; whatever a wedged peer still holds after it is dropped, so
/// the thread join stays bounded.
const FLUSH_ON_SHUTDOWN: Duration = Duration::from_millis(100);

/// Waker token.
const TOK_WAKER: Token = 0;
/// Listener token.
const TOK_LISTENER: Token = 1;
/// First connection token (= slot index + TOK_CONN0).
const TOK_CONN0: Token = 2;

/// Transport tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct MeshConfig {
    /// Outbound connection establishment budget (dialer thread).
    pub connect_timeout: Duration,
    /// Upper bound on one event-loop sleep (shutdown responsiveness
    /// backstop; the waker normally interrupts sleeps immediately).
    pub read_timeout: Duration,
    /// Wait before the single redial attempt after a connect failure.
    pub retry_backoff: Duration,
    /// Bounded inbox depth; senders beyond it are dropped, not blocked.
    pub inbox_capacity: usize,
    /// Per-peer outbound queue depth; frames beyond it are dropped, not
    /// blocked — one slow peer must never apply backpressure to the
    /// daemon loop.
    pub outbound_queue: usize,
}

impl Default for MeshConfig {
    fn default() -> MeshConfig {
        MeshConfig {
            connect_timeout: Duration::from_millis(500),
            read_timeout: Duration::from_millis(100),
            retry_backoff: Duration::from_millis(50),
            inbox_capacity: 1024,
            outbound_queue: 256,
        }
    }
}

/// Counters the mesh keeps about itself (drained into the node's
/// metrics registry by the daemon loop). Atomics, because the event
/// loop and the daemon thread bump them concurrently.
#[derive(Debug, Default)]
struct MeshCounters {
    sent: AtomicU64,
    send_failures: AtomicU64,
    dropped_inbox_full: AtomicU64,
    decode_errors: AtomicU64,
    checksum_errors: AtomicU64,
    chaos_dropped: AtomicU64,
    chaos_duplicated: AtomicU64,
    chaos_delayed: AtomicU64,
    epollout_waits: AtomicU64,
    conns: AtomicU64,
}

/// A point-in-time copy of the mesh counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct MeshStats {
    /// Frames written to a socket successfully.
    pub sent: u64,
    /// Frames dropped: peer unreachable after redial, queue full, or
    /// connection lost mid-write.
    pub send_failures: u64,
    /// Inbound messages dropped because the inbox was full.
    pub dropped_inbox_full: u64,
    /// Connections dropped for undecodable bytes.
    pub decode_errors: u64,
    /// Frames dropped by injected chaos (random loss + partitions).
    pub chaos_dropped: u64,
    /// Frames duplicated by injected chaos.
    pub chaos_duplicated: u64,
    /// Frames delayed by injected chaos.
    pub chaos_delayed: u64,
    /// Times a socket write filled the kernel buffer and the loop had
    /// to wait for `EPOLLOUT` — the write-backpressure gauge.
    pub epollout_waits: u64,
    /// Live connections (inbound + outbound) owned by the event loop.
    pub conns: u64,
}

/// An encoded frame: the pooled buffer holds every byte but a checked
/// blob's, and the blob, if the message has one, goes at its position in
/// the buffer when the socket write gathers the frame.
struct Encoded {
    head: PooledBuf,
    blob: Option<(usize, Bytes)>,
}

impl Encoded {
    fn len(&self) -> usize {
        self.head.len() + self.blob.as_ref().map_or(0, |(_, b)| b.len())
    }

    /// The frame from byte `skip` on, as at most three slices.
    fn slices<'a>(&'a self, mut skip: usize, out: &mut Vec<IoSlice<'a>>) {
        let (at, blob): (usize, &[u8]) = match &self.blob {
            Some((at, b)) => (*at, b),
            None => (self.head.len(), &[]),
        };
        for part in [&self.head[..at], blob, &self.head[at..]] {
            if skip < part.len() {
                out.push(IoSlice::new(&part[skip..]));
            }
            skip = skip.saturating_sub(part.len());
        }
    }
}

/// One queued outbound frame (shared across a multicast's queues) plus
/// the earliest instant it may hit the wire (chaos delay; `None` = now).
struct QItem {
    out: Arc<Encoded>,
    deliver_at: Option<Instant>,
}

/// State the daemon thread and the event loop agree on for one peer's
/// outbound traffic. `kicked` lives under the queue mutex so the
/// "queue drained, allow a new kick" / "frame pushed, kick needed"
/// handoff has no lost-wakeup window.
struct QueueInner {
    q: VecDeque<QItem>,
    kicked: bool,
}

struct PeerQueue {
    inner: Mutex<QueueInner>,
    depth: AtomicU64,
}

impl PeerQueue {
    fn new() -> PeerQueue {
        PeerQueue {
            inner: Mutex::new(QueueInner { q: VecDeque::new(), kicked: false }),
            depth: AtomicU64::new(0),
        }
    }
}

struct Shared {
    /// NodeId → listen address, learned from config and `Hello` frames.
    peers: Mutex<HashMap<NodeId, SocketAddr>>,
    /// Per-peer bounded outbound queues (created on first send).
    queues: Mutex<HashMap<NodeId, Arc<PeerQueue>>>,
    counters: MeshCounters,
    shutdown: AtomicBool,
}

/// Daemon-thread → event-loop commands (paired with a waker kick).
enum Cmd {
    /// Peer has queued frames to drain.
    Kick(NodeId),
    /// Connect (and send our `Hello`) if not already connected.
    Ensure(NodeId),
    /// Tear down the peer's connection and queued frames (wedged link).
    Evict(NodeId),
}

/// The node's connection fabric.
pub struct Mesh {
    me: NodeId,
    listen_addr: SocketAddr,
    cfg: MeshConfig,
    shared: Arc<Shared>,
    inbox: Receiver<(NodeId, Msg)>,
    pool: BufPool,
    cmd_tx: Sender<Cmd>,
    waker: Arc<Waker>,
    /// Consecutive queue-full drops per peer (eviction trigger).
    full_strikes: HashMap<NodeId, u32>,
    /// Installed fault-injection rules, if any (see [`crate::chaos`]).
    chaos: Option<Chaos>,
    /// Flight recorder for chaos-injection telemetry (chaos verdicts
    /// happen here at the enqueue boundary, on the daemon thread).
    flight: Option<FlightRecorder>,
    loop_thread: Option<JoinHandle<()>>,
    dial_thread: Option<JoinHandle<()>>,
}

impl Mesh {
    /// Start the mesh on an already-bound listener with a seed peer
    /// list. The listener is taken over by the event-loop thread.
    pub fn start(
        me: NodeId,
        listener: TcpListener,
        seed_peers: HashMap<NodeId, SocketAddr>,
        cfg: MeshConfig,
    ) -> std::io::Result<Mesh> {
        let listen_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let (inbox_tx, inbox_rx) = mpsc::sync_channel(cfg.inbox_capacity);
        let (cmd_tx, cmd_rx) = mpsc::channel();
        let (dial_req_tx, dial_req_rx) = mpsc::channel::<DialReq>();
        let (dial_res_tx, dial_res_rx) = mpsc::channel::<DialRes>();
        let waker = Arc::new(Waker::new()?);
        let shared = Arc::new(Shared {
            peers: Mutex::new(seed_peers),
            queues: Mutex::new(HashMap::new()),
            counters: MeshCounters::default(),
            shutdown: AtomicBool::new(false),
        });

        let dial_shared = Arc::clone(&shared);
        let dial_waker = Arc::clone(&waker);
        let dial_thread = std::thread::Builder::new()
            .name(format!("sorrento-dial-{}", me.index()))
            .spawn(move || {
                dial_loop(dial_req_rx, dial_res_tx, dial_waker, dial_shared, cfg, me, listen_addr)
            })?;

        let mut el = EventLoop {
            poller: Poller::new()?,
            waker: Arc::clone(&waker),
            listener,
            shared: Arc::clone(&shared),
            cfg,
            inbox: inbox_tx,
            cmd_rx,
            dial_req: dial_req_tx,
            dial_res: dial_res_rx,
            conns: Vec::new(),
            free: Vec::new(),
            free_pending: Vec::new(),
            route: HashMap::new(),
            dialing: HashMap::new(),
            timers: Vec::new(),
        };
        el.poller.add(waker.fd(), TOK_WAKER, Interest::READABLE)?;
        el.poller.add(el.listener.as_raw_fd(), TOK_LISTENER, Interest::READABLE)?;
        let loop_thread = std::thread::Builder::new()
            .name(format!("sorrento-net-{}", me.index()))
            .spawn(move || el.run())?;

        Ok(Mesh {
            me,
            listen_addr,
            cfg,
            shared,
            inbox: inbox_rx,
            pool: BufPool::new(),
            cmd_tx,
            waker,
            full_strikes: HashMap::new(),
            chaos: None,
            flight: None,
            loop_thread: Some(loop_thread),
            dial_thread: Some(dial_thread),
        })
    }

    /// The bound listen address (useful with port 0).
    pub fn listen_addr(&self) -> SocketAddr {
        self.listen_addr
    }

    /// Register (or update) a peer's listen address.
    pub fn add_peer(&self, id: NodeId, addr: SocketAddr) {
        self.shared.peers.lock().unwrap().insert(id, addr);
    }

    /// Every peer currently known (never includes this node).
    pub fn known_peers(&self) -> Vec<NodeId> {
        let peers = self.shared.peers.lock().unwrap();
        peers.keys().copied().filter(|&p| p != self.me).collect()
    }

    /// Blocking receive with a timeout; `None` on timeout or shutdown.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<(NodeId, Msg)> {
        self.inbox.recv_timeout(timeout).ok()
    }

    /// The next message already queued, without blocking.
    pub fn try_recv(&self) -> Option<(NodeId, Msg)> {
        self.inbox.try_recv().ok()
    }

    /// Send to one peer: best-effort, one redial after backoff, then the
    /// message is dropped (the peer's death shows up as RPC timeouts,
    /// exactly as in the simulator). Never blocks the caller: the frame
    /// is encoded into a pooled buffer and queued; a full queue drops
    /// the frame.
    pub fn send(&mut self, to: NodeId, msg: &Msg) {
        let frame = self.encode(msg);
        self.enqueue(to, frame);
    }

    /// Fan a message out to every known peer, encoding it exactly once.
    pub fn multicast(&mut self, msg: &Msg) {
        let peers = self.known_peers();
        if peers.is_empty() {
            return;
        }
        let shared_frame = self.encode(msg);
        for peer in peers {
            self.enqueue(peer, Arc::clone(&shared_frame));
        }
    }

    fn encode(&self, msg: &Msg) -> Arc<Encoded> {
        let mut head = self.pool.check_out();
        let blob = frame::encode_msg_spliced(&mut head, self.me, msg);
        Arc::new(Encoded { head, blob })
    }

    /// Install (or clear, with `None` / an inactive config) deterministic
    /// fault injection on every outbound link. Applies from the next
    /// frame on; see [`crate::chaos`] for the semantics.
    pub fn set_chaos(&mut self, cfg: Option<ChaosConfig>) {
        self.chaos = match cfg {
            Some(c) if c.is_active() => Some(Chaos::new(self.me, c)),
            _ => None,
        };
    }

    /// Attach the node's flight recorder so chaos injections show up in
    /// the event ring alongside the counters.
    pub fn set_flight(&mut self, rec: FlightRecorder) {
        self.flight = Some(rec);
    }

    fn enqueue(&mut self, to: NodeId, frame: Arc<Encoded>) {
        // Chaos verdict first (daemon thread, frame order: the decision
        // stream is deterministic for a given seed and link).
        let mut delay = None;
        let mut copies = 1u32;
        if let Some(chaos) = &mut self.chaos {
            let fault = chaos.decide(to);
            let label = match fault {
                Fault::Deliver => None,
                Fault::Drop | Fault::Partitioned => Some("drop"),
                Fault::Duplicate => Some("duplicate"),
                Fault::Delay(_) => Some("delay"),
            };
            if let (Some(fault), Some(rec)) = (label, &self.flight) {
                rec.record_now(TelemetryEvent::ChaosInject { fault, to });
            }
            match fault {
                Fault::Deliver => {}
                Fault::Drop | Fault::Partitioned => {
                    self.shared.counters.chaos_dropped.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                Fault::Duplicate => {
                    copies = 2;
                    self.shared.counters.chaos_duplicated.fetch_add(1, Ordering::Relaxed);
                }
                Fault::Delay(d) => {
                    delay = Some(Instant::now() + d);
                    self.shared.counters.chaos_delayed.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let pq = {
            let mut queues = self.shared.queues.lock().unwrap();
            Arc::clone(queues.entry(to).or_insert_with(|| Arc::new(PeerQueue::new())))
        };
        for _ in 0..copies {
            let need_kick = {
                let mut g = pq.inner.lock().unwrap();
                if g.q.len() >= self.cfg.outbound_queue {
                    drop(g);
                    self.shared.counters.send_failures.fetch_add(1, Ordering::Relaxed);
                    // A queue that stays full means the peer's connection
                    // is wedged (TCP window exhausted by a non-reader, or
                    // a blackholed route): after enough consecutive
                    // strikes, evict — the loop closes the socket and
                    // drops the backlog — so a later send starts over on
                    // a fresh connection instead of feeding a dead one.
                    let strikes = self.full_strikes.entry(to).or_insert(0);
                    *strikes += 1;
                    if *strikes >= EVICT_AFTER_FULL {
                        self.full_strikes.remove(&to);
                        let _ = self.cmd_tx.send(Cmd::Evict(to));
                        self.waker.wake();
                    }
                    continue;
                }
                g.q.push_back(QItem { out: Arc::clone(&frame), deliver_at: delay });
                self.full_strikes.remove(&to);
                let kick = !g.kicked;
                g.kicked = true;
                kick
            };
            pq.depth.fetch_add(1, Ordering::Relaxed);
            if need_kick {
                let _ = self.cmd_tx.send(Cmd::Kick(to));
                self.waker.wake();
            }
        }
    }

    /// Open a connection (which carries our `Hello`) to every known
    /// peer. A joining node calls this so daemons learn its listen
    /// address — and start multicasting to it — before it sends any
    /// protocol traffic. Safe to call repeatedly (a boot-retry loop):
    /// peers that are already connected are left untouched.
    pub fn hello_all(&mut self) {
        for peer in self.known_peers() {
            let _ = self.cmd_tx.send(Cmd::Ensure(peer));
        }
        self.waker.wake();
    }

    /// Per-peer sender-queue depth: frames enqueued but not yet written
    /// to (or dropped from) the peer's connection.
    pub fn queue_depths(&self) -> Vec<(NodeId, u64)> {
        let queues = self.shared.queues.lock().unwrap();
        let mut depths: Vec<(NodeId, u64)> =
            queues.iter().map(|(&peer, q)| (peer, q.depth.load(Ordering::Relaxed))).collect();
        depths.sort_by_key(|&(peer, _)| peer.index());
        depths
    }

    /// A snapshot of the mesh counters.
    pub fn stats(&self) -> MeshStats {
        let c = &self.shared.counters;
        MeshStats {
            sent: c.sent.load(Ordering::Relaxed),
            send_failures: c.send_failures.load(Ordering::Relaxed),
            dropped_inbox_full: c.dropped_inbox_full.load(Ordering::Relaxed),
            decode_errors: c.decode_errors.load(Ordering::Relaxed),
            chaos_dropped: c.chaos_dropped.load(Ordering::Relaxed),
            chaos_duplicated: c.chaos_duplicated.load(Ordering::Relaxed),
            chaos_delayed: c.chaos_delayed.load(Ordering::Relaxed),
            epollout_waits: c.epollout_waits.load(Ordering::Relaxed),
            conns: c.conns.load(Ordering::Relaxed),
        }
    }

    /// Flush mesh counters into labeled metrics, including one
    /// `net_queue_depth_<peer>` gauge per live peer queue, the
    /// live-connection gauge (`net_conns` — "mesh.conns" in DESIGN
    /// terms) and the `EPOLLOUT` backpressure counter.
    pub fn export_metrics(&self, metrics: &mut sorrento_sim::Metrics) {
        let s = self.stats();
        metrics.gauge_set("net_sent", s.sent as f64);
        metrics.gauge_set("net_send_failures", s.send_failures as f64);
        metrics.gauge_set("net_dropped_inbox_full", s.dropped_inbox_full as f64);
        metrics.gauge_set("net_decode_errors", s.decode_errors as f64);
        let checksum_errors = self.shared.counters.checksum_errors.load(Ordering::Relaxed);
        metrics.gauge_set("net_checksum_errors", checksum_errors as f64);
        metrics.gauge_set("net_chaos_dropped", s.chaos_dropped as f64);
        metrics.gauge_set("net_chaos_duplicated", s.chaos_duplicated as f64);
        metrics.gauge_set("net_chaos_delayed", s.chaos_delayed as f64);
        metrics.gauge_set("net_epollout_waits", s.epollout_waits as f64);
        metrics.gauge_set("net_conns", s.conns as f64);
        let mut max_depth = 0u64;
        for (peer, depth) in self.queue_depths() {
            max_depth = max_depth.max(depth);
            metrics.gauge_set(&format!("net_queue_depth_{}", peer.index()), depth as f64);
        }
        metrics.gauge_set("net_queue_depth_max", max_depth as f64);
    }

    /// Stop and *join* the event-loop and dialer threads. Frames
    /// already queued to connected peers get one bounded parting
    /// flush (100 ms) so a reply sent just before the
    /// stop is not silently stranded; every socket the loop owns is
    /// nonblocking and the dialer's connect is timeout-bounded, so
    /// the join is bounded too.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.waker.wake();
        if let Some(t) = self.loop_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.dial_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Mesh {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ------------------------------------------------------------ dial thread

struct DialReq {
    peer: NodeId,
    addr: SocketAddr,
}

struct DialRes {
    peer: NodeId,
    stream: Option<TcpStream>,
}

/// The one fixed dialer thread: blocking (timeout-bounded) connects and
/// the `Hello` handshake happen here so the event loop never stalls on
/// a dead address. Established streams are handed to the loop already
/// nonblocking.
fn dial_loop(
    req_rx: Receiver<DialReq>,
    res_tx: Sender<DialRes>,
    waker: Arc<Waker>,
    shared: Arc<Shared>,
    cfg: MeshConfig,
    me: NodeId,
    listen_addr: SocketAddr,
) {
    // The loop exiting drops `req_rx`'s sender, ending this thread.
    while let Ok(req) = req_rx.recv() {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let stream = connect_hello(req.addr, cfg, me, listen_addr);
        let lost = res_tx.send(DialRes { peer: req.peer, stream }).is_err();
        waker.wake();
        if lost {
            return;
        }
    }
}

/// Connect, introduce ourselves, and switch to nonblocking. Any failure
/// yields `None` — the loop decides whether to retry.
fn connect_hello(
    addr: SocketAddr,
    cfg: MeshConfig,
    me: NodeId,
    listen_addr: SocketAddr,
) -> Option<TcpStream> {
    let mut stream = TcpStream::connect_timeout(&addr, cfg.connect_timeout).ok()?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(cfg.connect_timeout));
    // Introduce ourselves so the peer can route replies and multicasts
    // back without prior configuration.
    let hello = frame::encode_hello(me, &listen_addr.to_string());
    stream.write_all(&hello).ok()?;
    stream.set_nonblocking(true).ok()?;
    Some(stream)
}

// ------------------------------------------------------------ event loop

/// One live connection owned by the event loop.
struct Conn {
    stream: TcpStream,
    decoder: StreamDecoder,
    /// The node on the other end: the dial target, or the sender of the
    /// first frame received (inbound connections are anonymous until
    /// their `Hello` arrives).
    peer: Option<NodeId>,
    /// Frames mid-write: front may be partially written (`front_off`).
    batch: VecDeque<Arc<Encoded>>,
    front_off: usize,
    /// `EPOLLOUT` currently subscribed.
    want_write: bool,
}

/// Loop-local timers (chaos-delayed frames, redial backoff).
enum Timer {
    Kick(NodeId),
    Redial(NodeId),
}

struct EventLoop {
    poller: Poller,
    waker: Arc<Waker>,
    listener: TcpListener,
    shared: Arc<Shared>,
    cfg: MeshConfig,
    inbox: SyncSender<(NodeId, Msg)>,
    cmd_rx: Receiver<Cmd>,
    dial_req: Sender<DialReq>,
    dial_res: Receiver<DialRes>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Slots freed during the current event batch; recycled only after
    /// the batch so a stale event cannot hit a fresh connection.
    free_pending: Vec<usize>,
    /// Preferred connection for sending to a peer. Inbound connections
    /// registered here on their `Hello` let replies flow back without a
    /// reverse dial — a client does not need a listener of its own.
    route: HashMap<NodeId, usize>,
    /// Outstanding dial attempt count per peer (1 = first, 2 = redial).
    dialing: HashMap<NodeId, u32>,
    timers: Vec<(Instant, Timer)>,
}

impl EventLoop {
    fn run(&mut self) {
        let mut events: Vec<epoll::Event> = Vec::new();
        let mut iter: u32 = 0;
        while !self.shared.shutdown.load(Ordering::SeqCst) {
            self.drain_channels();
            self.fire_timers();
            let timeout = self.next_timeout();
            if self.poller.wait(&mut events, Some(timeout)).is_err() {
                break;
            }
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            for ev in &events {
                match ev.token {
                    TOK_WAKER => self.waker.drain(),
                    TOK_LISTENER => self.accept_ready(),
                    tok => {
                        let idx = (tok - TOK_CONN0) as usize;
                        if ev.readable || ev.error {
                            self.conn_readable(idx);
                        }
                        if ev.writable {
                            self.conn_writable(idx);
                        }
                    }
                }
            }
            self.free.append(&mut self.free_pending);
            // Backstop sweep: any queue left non-empty with no kick in
            // flight (a race lost at a quiescence edge, a registration
            // failure) would otherwise wedge forever — its owner skips
            // further kicks while `kicked` is set. Sweeping on idle
            // ticks (and periodically under sustained load) bounds any
            // such stall at roughly one `read_timeout`.
            iter = iter.wrapping_add(1);
            if events.is_empty() || iter.is_multiple_of(64) {
                self.sweep_queues();
            }
        }
        // Unregister before dropping so the poll(2) fallback stays tidy.
        // The listener and waker go first so the parting flush only
        // sees connection events (no new accepts on the way out).
        let _ = self.poller.remove(self.listener.as_raw_fd());
        let _ = self.poller.remove(self.waker.fd());
        self.flush_before_close(&mut events);
        for idx in 0..self.conns.len() {
            if self.conns[idx].is_some() {
                self.close_conn(idx);
            }
        }
    }

    /// Best-effort parting flush: a frame enqueued just before
    /// `shutdown()` — a daemon's final reply — gets one bounded window
    /// to reach the kernel instead of being silently stranded by
    /// teardown. Only peers with a live connection are pumped (no
    /// fresh dials on the way out), and a blocked socket is waited on
    /// only until the deadline, so a wedged peer cannot hold the
    /// thread join hostage. Whatever is still queued afterwards is
    /// dropped exactly as before — lossy semantics unchanged.
    fn flush_before_close(&mut self, events: &mut Vec<epoll::Event>) {
        let deadline = Instant::now() + FLUSH_ON_SHUTDOWN;
        loop {
            let routed: Vec<NodeId> = {
                let queues = self.shared.queues.lock().unwrap();
                queues
                    .iter()
                    .filter(|(p, q)| {
                        q.depth.load(Ordering::Relaxed) > 0 && self.route.contains_key(p)
                    })
                    .map(|(p, _)| *p)
                    .collect()
            };
            for peer in &routed {
                self.pump_peer(*peer);
            }
            let unflushed = self.conns.iter().flatten().any(|c| !c.batch.is_empty());
            if !unflushed {
                break;
            }
            let now = Instant::now();
            if now >= deadline || self.poller.wait(events, Some(deadline - now)).is_err() {
                break;
            }
            for ev in events.iter() {
                if ev.token >= TOK_CONN0 && ev.writable {
                    self.conn_writable((ev.token - TOK_CONN0) as usize);
                }
            }
            self.free.append(&mut self.free_pending);
        }
    }

    /// Pump every peer whose queue has frames waiting (see `run`).
    fn sweep_queues(&mut self) {
        let pending: Vec<NodeId> = {
            let queues = self.shared.queues.lock().unwrap();
            queues
                .iter()
                .filter(|(_, q)| q.depth.load(Ordering::Relaxed) > 0)
                .map(|(p, _)| *p)
                .collect()
        };
        for peer in pending {
            self.pump_peer(peer);
        }
    }

    /// Commands from the daemon thread and results from the dialer.
    fn drain_channels(&mut self) {
        while let Ok(cmd) = self.cmd_rx.try_recv() {
            match cmd {
                Cmd::Kick(peer) => self.pump_peer(peer),
                Cmd::Ensure(peer) => {
                    if !self.connected(peer) && !self.dialing.contains_key(&peer) {
                        self.start_dial(peer, 1);
                    }
                }
                Cmd::Evict(peer) => self.evict(peer),
            }
        }
        while let Ok(res) = self.dial_res.try_recv() {
            self.dial_finished(res);
        }
    }

    fn connected(&self, peer: NodeId) -> bool {
        self.route.get(&peer).is_some_and(|&i| {
            self.conns.get(i).is_some_and(|c| {
                c.as_ref().is_some_and(|c| c.peer == Some(peer))
            })
        })
    }

    fn fire_timers(&mut self) {
        let now = Instant::now();
        let mut due = Vec::new();
        self.timers.retain(|(at, t)| {
            if *at <= now {
                due.push(match t {
                    Timer::Kick(p) => Timer::Kick(*p),
                    Timer::Redial(p) => Timer::Redial(*p),
                });
                false
            } else {
                true
            }
        });
        for t in due {
            match t {
                Timer::Kick(peer) => self.pump_peer(peer),
                Timer::Redial(peer) => {
                    if let Some(addr) = self.addr_of(peer) {
                        let _ = self.dial_req.send(DialReq { peer, addr });
                    } else {
                        self.dialing.remove(&peer);
                        self.drop_backlog(peer);
                    }
                }
            }
        }
    }

    fn next_timeout(&self) -> Duration {
        let mut t = self.cfg.read_timeout;
        let now = Instant::now();
        for (at, _) in &self.timers {
            t = t.min(at.saturating_duration_since(now).max(Duration::from_millis(1)));
        }
        t
    }

    fn addr_of(&self, peer: NodeId) -> Option<SocketAddr> {
        self.shared.peers.lock().unwrap().get(&peer).copied()
    }

    // ---------------------------------------------------------- accept

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.register_conn(stream, None).is_err() {
                        continue;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // Transient (ECONNABORTED etc.): the next readiness
                // event retries.
                Err(_) => break,
            }
        }
    }

    fn register_conn(&mut self, stream: TcpStream, peer: Option<NodeId>) -> std::io::Result<usize> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        let idx = match self.free.pop() {
            Some(i) => i,
            None => {
                self.conns.push(None);
                self.conns.len() - 1
            }
        };
        let tok = TOK_CONN0 + idx as Token;
        if let Err(e) = self.poller.add(stream.as_raw_fd(), tok, Interest::READABLE) {
            self.free.push(idx);
            return Err(e);
        }
        self.conns[idx] = Some(Conn {
            stream,
            decoder: StreamDecoder::new(),
            peer,
            batch: VecDeque::new(),
            front_off: 0,
            want_write: false,
        });
        if let Some(p) = peer {
            self.route.insert(p, idx);
        }
        self.shared.counters.conns.fetch_add(1, Ordering::Relaxed);
        Ok(idx)
    }

    fn close_conn(&mut self, idx: usize) {
        let Some(conn) = self.conns[idx].take() else { return };
        let _ = self.poller.remove(conn.stream.as_raw_fd());
        if !conn.batch.is_empty() {
            self.shared
                .counters
                .send_failures
                .fetch_add(conn.batch.len() as u64, Ordering::Relaxed);
        }
        if let Some(p) = conn.peer {
            if self.route.get(&p) == Some(&idx) {
                self.route.remove(&p);
            }
        }
        self.free_pending.push(idx);
        self.shared.counters.conns.fetch_sub(1, Ordering::Relaxed);
        // Frames may still be queued for this peer: redial so they are
        // either delivered on a fresh connection or dropped by the
        // dial-failure path (lossy semantics, bounded retry).
        if let Some(p) = conn.peer {
            if self.backlog_pending(p) && !self.dialing.contains_key(&p) {
                self.start_dial(p, 1);
            }
        }
    }

    // ------------------------------------------------------------ read

    fn conn_readable(&mut self, idx: usize) {
        for _ in 0..READS_PER_EVENT {
            let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else { return };
            let spare = conn.decoder.spare();
            if spare.is_empty() {
                self.close_conn(idx);
                return;
            }
            match conn.stream.read(spare) {
                Ok(0) => {
                    self.close_conn(idx);
                    return;
                }
                Ok(n) => match conn.decoder.advance(n) {
                    Ok(Some((sender, frame))) => self.on_frame(idx, sender, frame),
                    Ok(None) => {}
                    Err(why) => {
                        // The stream is out of sync; there is no resync
                        // point in a byte stream, so drop the connection.
                        // A failed checksum is counted apart: it is damage
                        // to a peer's bytes, not a stranger's protocol.
                        // (First, so no export shows the total without it.)
                        let counters = &self.shared.counters;
                        if why == FrameError::ChecksumMismatch {
                            counters.checksum_errors.fetch_add(1, Ordering::Relaxed);
                        }
                        counters.decode_errors.fetch_add(1, Ordering::Relaxed);
                        let peer = conn.peer.map_or("unidentified".into(), |p| p.to_string());
                        let addr = conn.stream.peer_addr().map_or("?".into(), |a| a.to_string());
                        eprintln!("sorrento mesh: closed connection from {peer} at {addr}: {why}");
                        self.close_conn(idx);
                        return;
                    }
                },
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(idx);
                    return;
                }
            }
        }
    }

    fn on_frame(&mut self, idx: usize, sender: NodeId, frame: Frame) {
        // First frame pins the connection's peer identity; the
        // connection becomes the preferred reply route if none exists
        // (so listener-less clients can be answered over their own
        // connection).
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else { return };
        if conn.peer.is_none() {
            conn.peer = Some(sender);
        }
        match frame {
            Frame::Hello { listen_addr } => {
                if let Ok(addr) = listen_addr.parse() {
                    let prev = self.shared.peers.lock().unwrap().insert(sender, addr);
                    if prev.is_some_and(|p| p != addr) {
                        // The peer's listen address changed: a cached
                        // outbound connection points at a dead
                        // incarnation and must not swallow more frames.
                        if let Some(&old) = self.route.get(&sender) {
                            if old != idx {
                                self.close_conn(old);
                            }
                        }
                    }
                }
                // A Hello is a deliberate introduction: prefer this
                // connection for replies from now on.
                self.route.insert(sender, idx);
                self.pump_peer(sender);
            }
            Frame::Msg(msg) => {
                self.route.entry(sender).or_insert(idx);
                match self.inbox.try_send((sender, msg)) {
                    Ok(()) => {}
                    Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                        self.shared.counters.dropped_inbox_full.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
    }

    // ----------------------------------------------------------- write

    fn queue_of(&self, peer: NodeId) -> Option<Arc<PeerQueue>> {
        self.shared.queues.lock().unwrap().get(&peer).cloned()
    }

    fn backlog_pending(&self, peer: NodeId) -> bool {
        self.queue_of(peer)
            .is_some_and(|q| !q.inner.lock().unwrap().q.is_empty())
    }

    /// Drop every queued frame for `peer` (unreachable after redial, or
    /// evicted), counting them as send failures, and re-arm kicks.
    fn drop_backlog(&mut self, peer: NodeId) {
        let Some(pq) = self.queue_of(peer) else { return };
        let mut g = pq.inner.lock().unwrap();
        let n = g.q.len() as u64;
        g.q.clear();
        g.kicked = false;
        drop(g);
        if n > 0 {
            pq.depth.fetch_sub(n, Ordering::Relaxed);
            self.shared.counters.send_failures.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Move queued frames for `peer` toward the wire: ensure a
    /// connection (dialing if needed), refill the write batch, write
    /// until done or the socket blocks.
    fn pump_peer(&mut self, peer: NodeId) {
        let Some(&idx) = self.route.get(&peer) else {
            // No live connection: dial unless one is in progress.
            if self.backlog_pending(peer) && !self.dialing.contains_key(&peer) {
                self.start_dial(peer, 1);
            }
            return;
        };
        self.pump_conn(idx, peer);
    }

    fn pump_conn(&mut self, idx: usize, peer: NodeId) {
        let Some(pq) = self.queue_of(peer) else { return };
        loop {
            // Refill the batch from the queue (chaos-delayed frames hold
            // the link — FIFO order is preserved, like queueing delay on
            // a real NIC).
            let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else { return };
            let now = Instant::now();
            let mut bytes: usize = conn.batch.iter().map(|b| b.len()).sum();
            let mut g = pq.inner.lock().unwrap();
            loop {
                match g.q.front() {
                    None => {
                        if conn.batch.is_empty() {
                            // Fully drained: the next enqueue must kick again.
                            g.kicked = false;
                        }
                        break;
                    }
                    Some(_) if conn.batch.len() >= COALESCE_MAX || bytes >= COALESCE_BYTES => break,
                    Some(QItem { deliver_at: Some(at), .. }) if *at > now => {
                        self.timers.push((*at, Timer::Kick(peer)));
                        break;
                    }
                    Some(_) => {}
                }
                let item = g.q.pop_front().expect("front just checked");
                pq.depth.fetch_sub(1, Ordering::Relaxed);
                bytes += item.out.len();
                conn.batch.push_back(item.out);
            }
            drop(g);
            if conn.batch.is_empty() {
                self.set_want_write(idx, false);
                return;
            }
            match self.write_batch(idx) {
                WriteOutcome::Drained => continue,
                WriteOutcome::Blocked => {
                    self.set_want_write(idx, true);
                    return;
                }
                WriteOutcome::Closed => {
                    self.close_conn(idx);
                    return;
                }
            }
        }
    }

    fn conn_writable(&mut self, idx: usize) {
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else { return };
        let Some(peer) = conn.peer else { return };
        self.pump_conn(idx, peer);
    }

    /// Write the connection's batch with as few syscalls as possible,
    /// resuming mid-frame. Any hard write error invalidates the
    /// connection (a partial frame cannot be resumed on a byte stream —
    /// the receiver resyncs by dropping the connection).
    fn write_batch(&mut self, idx: usize) -> WriteOutcome {
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
            return WriteOutcome::Closed;
        };
        while !conn.batch.is_empty() {
            let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(3 * conn.batch.len());
            let mut skip = conn.front_off;
            for frame in &conn.batch {
                frame.slices(skip, &mut slices);
                skip = 0;
            }
            match conn.stream.write_vectored(&slices) {
                Ok(0) => return WriteOutcome::Closed,
                Ok(mut n) => {
                    while n > 0 {
                        let front_len = conn.batch.front().expect("batch nonempty").len();
                        let rem = front_len - conn.front_off;
                        if n >= rem {
                            n -= rem;
                            conn.batch.pop_front();
                            conn.front_off = 0;
                            self.shared.counters.sent.fetch_add(1, Ordering::Relaxed);
                        } else {
                            conn.front_off += n;
                            n = 0;
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e)
                    if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut =>
                {
                    return WriteOutcome::Blocked;
                }
                Err(_) => return WriteOutcome::Closed,
            }
        }
        WriteOutcome::Drained
    }

    fn set_want_write(&mut self, idx: usize, want: bool) {
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else { return };
        if conn.want_write == want {
            return;
        }
        conn.want_write = want;
        let interest = if want { Interest::BOTH } else { Interest::READABLE };
        if want {
            // The write-backpressure counter: each transition into an
            // EPOLLOUT wait is one instance of "the kernel buffer is
            // full and the peer is not draining fast enough".
            self.shared.counters.epollout_waits.fetch_add(1, Ordering::Relaxed);
        }
        let tok = TOK_CONN0 + idx as Token;
        let _ = self.poller.modify(conn.stream.as_raw_fd(), tok, interest);
    }

    // ------------------------------------------------------------ dial

    fn start_dial(&mut self, peer: NodeId, attempt: u32) {
        let Some(addr) = self.addr_of(peer) else {
            // Unroutable: nothing to dial, nothing will drain the queue.
            self.drop_backlog(peer);
            return;
        };
        self.dialing.insert(peer, attempt);
        let _ = self.dial_req.send(DialReq { peer, addr });
    }

    fn dial_finished(&mut self, res: DialRes) {
        let attempt = self.dialing.remove(&res.peer).unwrap_or(1);
        match res.stream {
            Some(stream) => match self.register_conn(stream, Some(res.peer)) {
                Ok(idx) => self.pump_conn(idx, res.peer),
                // Registration failure (fd exhaustion): without a
                // connection nothing will ever drain the backlog.
                Err(_) => self.drop_backlog(res.peer),
            },
            None => {
                if attempt == 1 {
                    // One redial after a short backoff, then the backlog
                    // is dropped (lossy-network semantics).
                    self.dialing.insert(res.peer, 2);
                    self.timers
                        .push((Instant::now() + self.cfg.retry_backoff, Timer::Redial(res.peer)));
                } else {
                    self.drop_backlog(res.peer);
                }
            }
        }
    }

    fn evict(&mut self, peer: NodeId) {
        if let Some(&idx) = self.route.get(&peer) {
            self.close_conn(idx);
        }
        self.drop_backlog(peer);
    }
}

enum WriteOutcome {
    Drained,
    Blocked,
    Closed,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Count live threads owned by `me`'s mesh: the event loop
    /// (`sorrento-net-<idx>`) and the dialer (`sorrento-dial-<idx>`).
    /// `/proc` thread names are truncated to 15 bytes, so the census is
    /// exact as long as tests use distinct single-digit node indices.
    #[cfg(target_os = "linux")]
    fn mesh_threads_of(me: NodeId) -> usize {
        let prefixes = [format!("sorrento-net-{}", me.index()), format!("sorrento-dial-{}", me.index())];
        let prefixes: Vec<&str> = prefixes.iter().map(|p| &p[..p.len().min(15)]).collect();
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return 0 };
        tasks
            .flatten()
            .filter_map(|t| std::fs::read_to_string(t.path().join("comm")).ok())
            .filter(|comm| prefixes.contains(&comm.trim_end()))
            .count()
    }

    #[test]
    fn two_nodes_exchange_messages() {
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let a0 = l0.local_addr().unwrap();
        let a1 = l1.local_addr().unwrap();
        let n0 = NodeId::from_index(0);
        let n1 = NodeId::from_index(1);
        let mut m0 = Mesh::start(
            n0,
            l0,
            HashMap::from([(n1, a1)]),
            MeshConfig::default(),
        )
        .unwrap();
        let m1 = Mesh::start(n1, l1, HashMap::from([(n0, a0)]), MeshConfig::default()).unwrap();

        m0.send(n1, &Msg::StatsQuery { req: 42 });
        let (from, msg) = m1.recv_timeout(Duration::from_secs(5)).expect("delivery");
        assert_eq!(from, n0);
        assert!(matches!(msg, Msg::StatsQuery { req: 42 }));
    }

    #[test]
    fn send_to_dead_peer_drops_silently() {
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let dead: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let n0 = NodeId::from_index(0);
        let n1 = NodeId::from_index(1);
        let mut m0 =
            Mesh::start(n0, l0, HashMap::from([(n1, dead)]), MeshConfig::default()).unwrap();
        m0.send(n1, &Msg::StatsQuery { req: 1 });
        // The failure is recorded by the event loop after the dialer's
        // connect + one retry, so poll for it.
        let deadline = Instant::now() + Duration::from_secs(10);
        while m0.stats().send_failures == 0 {
            assert!(Instant::now() < deadline, "send failure never counted");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(m0.stats().send_failures, 1);
        assert_eq!(m0.stats().sent, 0);
    }

    /// One peer that accepts but never reads must not delay delivery to
    /// a healthy peer: its frames pile into its own queue (and
    /// eventually drop) while the event loop keeps the healthy peer's
    /// connection flowing — a blocked socket costs an `EPOLLOUT`
    /// subscription, never a stalled loop.
    ///
    /// The shutdown half pins the thread-join guarantee: dropping the
    /// mesh joins the event loop and the dialer even while a socket is
    /// wedged against the never-reading peer, leaving no thread growth
    /// behind.
    #[test]
    fn slow_peer_does_not_stall_other_sends() {
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l_fast = TcpListener::bind("127.0.0.1:0").unwrap();
        let a_fast = l_fast.local_addr().unwrap();
        // The slow peer: a raw listener whose accept loop deliberately
        // never reads, so the sender's TCP window fills and its writes
        // would block.
        let l_slow = TcpListener::bind("127.0.0.1:0").unwrap();
        let a_slow = l_slow.local_addr().unwrap();
        let slow_guard = std::thread::spawn(move || {
            let conns: Vec<TcpStream> =
                (0..1).filter_map(|_| l_slow.accept().ok().map(|(s, _)| s)).collect();
            std::thread::sleep(Duration::from_secs(3));
            drop(conns);
        });

        // Node index 9 is unique to this test, so the /proc thread-name
        // census below cannot race other tests' meshes.
        let n0 = NodeId::from_index(9);
        let n_fast = NodeId::from_index(1);
        let n_slow = NodeId::from_index(2);
        let cfg = MeshConfig { outbound_queue: 8, ..MeshConfig::default() };
        let mut m0 = Mesh::start(
            n0,
            l0,
            HashMap::from([(n_fast, a_fast), (n_slow, a_slow)]),
            cfg,
        )
        .unwrap();
        let m_fast = Mesh::start(n_fast, l_fast, HashMap::new(), MeshConfig::default()).unwrap();

        // Flood the slow peer with large frames until both the TCP
        // buffers and its bounded queue are saturated.
        let big = Msg::StatsR { req: 0, json: "x".repeat(1 << 20) };
        for _ in 0..64 {
            m0.send(n_slow, &big);
        }
        // A send to the healthy peer must still go through promptly.
        let t0 = Instant::now();
        m0.send(n_fast, &Msg::StatsQuery { req: 7 });
        let (from, msg) = m_fast.recv_timeout(Duration::from_secs(2)).expect("fast peer starved");
        assert_eq!(from, n0);
        assert!(matches!(msg, Msg::StatsQuery { req: 7 }));
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "healthy-peer delivery took {:?}",
            t0.elapsed()
        );
        // The whole mesh — two live connections, one of them wedged —
        // runs on exactly two threads.
        #[cfg(target_os = "linux")]
        expect_census(n0, 2, "mesh must run O(1) threads");
        drop(m0);
        // Shutdown joins both threads, so the census is zero right
        // after the drop.
        #[cfg(target_os = "linux")]
        expect_census(n0, 0, "mesh threads leaked past shutdown");
        let _ = slow_guard.join();
    }

    /// Poll until the census reaches `expected` (threads name
    /// themselves after spawn, so a fresh mesh needs a beat).
    #[cfg(target_os = "linux")]
    fn expect_census(me: NodeId, expected: usize, what: &str) {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let n = mesh_threads_of(me);
            if n == expected {
                return;
            }
            assert!(Instant::now() < deadline, "{what}: census {n}, expected {expected}");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Forty 256 KiB replies to a peer that reads late: every queued
    /// frame holds its reply's bytes as a view, so no pooled buffer grows
    /// past a few KiB, and every reply still arrives, whole and in order.
    #[test]
    fn bulk_replies_to_a_late_reader_are_spliced_not_copied() {
        use sorrento::proto::ReadReply;
        const FRAMES: u64 = 40;
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let (n0, n1) = (NodeId::from_index(0), NodeId::from_index(1));
        let peers = HashMap::from([(n1, l1.local_addr().unwrap())]);
        let mut m0 = Mesh::start(n0, l0, peers, MeshConfig::default()).unwrap();
        for req in 0..FRAMES {
            let data = Some(vec![req as u8; 256 * 1024].into());
            let reply =
                ReadReply::Data { len: 256 * 1024, data, version: Default::default(), crc: None };
            m0.send(n1, &Msg::ReadSegR { req, reply });
        }
        std::thread::sleep(Duration::from_millis(200));
        let (mut stream, _) = l1.accept().unwrap();
        let mut decoder = StreamDecoder::new();
        let mut next = 0;
        while next < FRAMES {
            let n = stream.read(decoder.spare()).unwrap();
            assert!(n > 0, "connection closed after {next} replies");
            match decoder.advance(n).expect("well-formed frames").map(|(_, frame)| frame) {
                Some(Frame::Msg(Msg::ReadSegR { req, reply: ReadReply::Data { data, .. } })) => {
                    assert_eq!(req, next);
                    assert!(data.unwrap().iter().all(|&b| b == req as u8));
                    next += 1;
                }
                Some(Frame::Hello { .. }) | None => {}
                Some(other) => panic!("unexpected {other:?}"),
            }
        }
        assert!(m0.pool.idle() >= 1, "the replies' buffers never came back to the pool");
        let largest = m0.pool.largest_idle();
        assert!(largest <= 4096, "a pooled buffer grew to {largest} bytes");
    }

    /// The thread census is independent of how many peers the mesh
    /// talks to: 2 threads with zero peers, 2 threads with three live
    /// connections (under the old design this was 1 + peers·2).
    #[test]
    fn thread_count_is_constant_in_peer_count() {
        let hub_id = NodeId::from_index(5);
        let l_hub = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut hub = Mesh::start(hub_id, l_hub, HashMap::new(), MeshConfig::default()).unwrap();
        #[cfg(target_os = "linux")]
        expect_census(hub_id, 2, "census with zero peers");

        let peers: Vec<Mesh> = (6..9)
            .map(|i| {
                let l = TcpListener::bind("127.0.0.1:0").unwrap();
                let id = NodeId::from_index(i);
                hub.add_peer(id, l.local_addr().unwrap());
                Mesh::start(id, l, HashMap::new(), MeshConfig::default()).unwrap()
            })
            .collect();
        for (i, peer) in peers.iter().enumerate() {
            hub.send(NodeId::from_index(6 + i), &Msg::StatsQuery { req: i as u64 });
            let (from, _) = peer.recv_timeout(Duration::from_secs(5)).expect("delivery");
            assert_eq!(from, hub_id);
        }
        assert!(hub.stats().conns >= 3, "expected 3 live connections");
        #[cfg(target_os = "linux")]
        expect_census(hub_id, 2, "census must not grow with connections");
        drop(hub);
        #[cfg(target_os = "linux")]
        expect_census(hub_id, 0, "mesh threads leaked past shutdown");
    }

    /// A listener-less client (raw socket, `Hello` with an empty listen
    /// address) must still be answerable: replies route over the live
    /// inbound connection its frames arrived on. This is what lets
    /// thousands of storm sessions hammer one daemon without a reverse
    /// dial per session.
    #[test]
    fn replies_flow_over_the_inbound_connection() {
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let a1 = l1.local_addr().unwrap();
        let n1 = NodeId::from_index(8);
        let client = NodeId::from_index(100);
        let mut m1 = Mesh::start(n1, l1, HashMap::new(), MeshConfig::default()).unwrap();

        let mut c = TcpStream::connect(a1).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        c.write_all(&frame::encode_hello(client, "")).unwrap();
        c.write_all(&frame::encode_msg(client, &Msg::StatsQuery { req: 5 })).unwrap();

        let (from, msg) = m1.recv_timeout(Duration::from_secs(5)).expect("request");
        assert_eq!(from, client);
        assert!(matches!(msg, Msg::StatsQuery { req: 5 }));

        m1.send(client, &Msg::StatsR { req: 5, json: "ok".into() });
        let mut dec = StreamDecoder::new();
        loop {
            let n = c.read(dec.spare()).expect("reply bytes");
            assert_ne!(n, 0, "daemon closed the connection instead of replying");
            if let Some((sender, Frame::Msg(msg))) = dec.advance(n).expect("clean frame") {
                assert_eq!(sender, n1);
                assert!(matches!(msg, Msg::StatsR { req: 5, .. }));
                break;
            }
        }
        assert_eq!(m1.stats().send_failures, 0, "reply must not need a reverse dial");
    }

    /// Chaos at 100% drop suppresses every frame (counted, nothing
    /// delivered); at 100% duplicate each send lands twice; uninstalling
    /// chaos restores clean delivery.
    #[test]
    fn chaos_rules_apply_at_the_enqueue_boundary() {
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let a1 = l1.local_addr().unwrap();
        let n0 = NodeId::from_index(3);
        let n1 = NodeId::from_index(4);
        let mut m0 =
            Mesh::start(n0, l0, HashMap::from([(n1, a1)]), MeshConfig::default()).unwrap();
        let m1 = Mesh::start(n1, l1, HashMap::new(), MeshConfig::default()).unwrap();

        m0.set_chaos(Some(ChaosConfig {
            seed: 1,
            drop_permille: 1000,
            ..ChaosConfig::default()
        }));
        m0.send(n1, &Msg::StatsQuery { req: 1 });
        assert!(m1.recv_timeout(Duration::from_millis(300)).is_none(), "dropped frame arrived");
        assert_eq!(m0.stats().chaos_dropped, 1);

        m0.set_chaos(Some(ChaosConfig {
            seed: 1,
            dup_permille: 1000,
            ..ChaosConfig::default()
        }));
        m0.send(n1, &Msg::StatsQuery { req: 2 });
        for _ in 0..2 {
            let (_, msg) = m1.recv_timeout(Duration::from_secs(5)).expect("duplicate copy");
            assert!(matches!(msg, Msg::StatsQuery { req: 2 }));
        }
        assert_eq!(m0.stats().chaos_duplicated, 1);

        m0.set_chaos(None);
        m0.send(n1, &Msg::StatsQuery { req: 3 });
        let (_, msg) = m1.recv_timeout(Duration::from_secs(5)).expect("clean delivery");
        assert!(matches!(msg, Msg::StatsQuery { req: 3 }));
        assert!(m1.recv_timeout(Duration::from_millis(200)).is_none());
    }

    /// A multicast encodes the frame once and shares it; every peer
    /// still gets a complete copy.
    #[test]
    fn multicast_reaches_all_peers() {
        let mk = || TcpListener::bind("127.0.0.1:0").unwrap();
        let (l0, l1, l2) = (mk(), mk(), mk());
        let (a1, a2) = (l1.local_addr().unwrap(), l2.local_addr().unwrap());
        let n0 = NodeId::from_index(0);
        let n1 = NodeId::from_index(1);
        let n2 = NodeId::from_index(2);
        let mut m0 = Mesh::start(
            n0,
            l0,
            HashMap::from([(n1, a1), (n2, a2)]),
            MeshConfig::default(),
        )
        .unwrap();
        let m1 = Mesh::start(n1, l1, HashMap::new(), MeshConfig::default()).unwrap();
        let m2 = Mesh::start(n2, l2, HashMap::new(), MeshConfig::default()).unwrap();
        m0.multicast(&Msg::StatsQuery { req: 9 });
        for m in [&m1, &m2] {
            let (from, msg) = m.recv_timeout(Duration::from_secs(5)).expect("delivery");
            assert_eq!(from, n0);
            assert!(matches!(msg, Msg::StatsQuery { req: 9 }));
        }
    }
}
