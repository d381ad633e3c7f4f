//! A std-only, readiness-driven TCP mesh for Sorrento daemons.
//!
//! The mesh runs on its owner's thread and starts none of its own. The
//! listener and every connection are registered in one [`epoll`]
//! poller, and [`Mesh::recv_timeout`] and [`Mesh::try_recv`] wait in it
//! on the calling thread (a node's `runtime::Driver` turn, a ctl
//! session, a test, a probe), accepting, finishing connects, reading,
//! writing what is queued and firing the mesh's own deadlines (a chaos
//! delay, a connect timeout, a redial backoff) while they wait. A dial
//! is a nonblocking connect ([`epoll::connect`]) whose socket waits in
//! the same poller, its `Hello` the first frame it writes, so a peer
//! that never answers costs its own frames a timeout and delays no
//! other dial. A node is one thread, however many peers it has.
//!
//! Receive path: sockets are nonblocking; on `EPOLLIN` the poll reads
//! whatever bytes the kernel has into a per-connection
//! [`frame::StreamDecoder`], which reassembles frames across arbitrary
//! read boundaries (zero-copy: payload bytes land in the allocation
//! that becomes the frame's shared `Bytes`). Decoded messages wait for
//! the caller in a list of at most one [`BATCH`]; while that list is
//! full no socket is read, and level-triggered epoll leaves the rest in
//! the kernel. An overloaded node therefore shows up as TCP
//! backpressure — its senders' queues and latency grow — never as a
//! dropped frame. `Hello` frames register the sender's listen address,
//! so a node only needs a seed peer list: everyone it hears from becomes
//! routable. A peer known only from its `Hello` stays routable while the
//! connection it introduced itself on is open, and is taught again by
//! its next `Hello`.
//!
//! Send path: `send` encodes the frame once into a buffer checked out
//! of a [`BufPool`] — every byte but a checked blob's (a write's payload,
//! a read reply's, a transfer's: see [`frame`]), which stays where it lies, a
//! view of the store's extent or of the caller's payload, and is spliced
//! into the socket write at its position. An `Arc` of the pair goes onto
//! the peer's bounded queue (a multicast shares one encoded frame across
//! every queue), and when the peer's connection has nothing ahead of it
//! the same call writes it. A queued bulk frame therefore holds a view,
//! not a copy, however far ahead of the socket its sender runs. Queues
//! drain in vectored writes of ≤32 frames or ≈1 MiB; only a short write
//! subscribes `EPOLLOUT` (counted — the backpressure gauge), and the
//! next poll resumes exactly where it stopped. Replies prefer the live
//! inbound connection a peer's frames arrived on, so a client does not
//! need its own listener to be answered.
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
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use epoll::{Interest, Poller, Token};
use sorrento::proto::Msg;
use sorrento_sim::{NodeId, TelemetryEvent};

use crate::chaos::{Chaos, ChaosConfig, Fault};
use crate::flight::FlightRecorder;
use crate::frame::{self, Frame, FrameError, StreamDecoder};
use crate::pool::{BufPool, PooledBuf};
use crate::runtime::BATCH;

/// How long a dial may wait for its handshake before it counts as
/// failed.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);
/// Wait before the single redial attempt after a connect failure.
const RETRY_BACKOFF: Duration = Duration::from_millis(50);
/// Per-peer outbound queue depth; frames beyond it are dropped, not
/// blocked — one slow peer must never apply backpressure to the node.
const OUTBOUND_QUEUE: usize = 256;

/// Most frames folded into one vectored write.
const COALESCE_MAX: usize = 32;
/// Bytes past which a write takes no further frame: a socket accepts a
/// few MiB at most.
const COALESCE_BYTES: usize = 1 << 20;

/// Consecutive queue-full drops to one peer before its connection is
/// evicted (closed and redialed on the next send). A healthy peer never
/// gets close; a wedged one is torn down within one queue's worth of
/// traffic so its socket is reclaimed.
const EVICT_AFTER_FULL: u32 = 64;

/// Bytes read ahead of the caller past which no socket is read while a
/// decoded message waits: a batch of 256 KiB replies would otherwise
/// hold 8 MiB of landing buffers nobody has looked at yet.
const READ_AHEAD_BYTES: usize = 1 << 20;

/// Bound on the parting flush at shutdown: frames queued just before
/// `shutdown()` (a daemon's final replies) get this long to reach the
/// kernel; whatever a wedged peer still holds after it is dropped, so
/// shutdown stays bounded.
const FLUSH_ON_SHUTDOWN: Duration = Duration::from_millis(100);

/// Listener token.
const TOK_LISTENER: Token = 0;
/// First connection token (= slot index + TOK_CONN0).
const TOK_CONN0: Token = 1;

/// What [`Mesh::start`] takes. The mesh has no settable values: its
/// timeouts and bounds are constants of this module.
#[derive(Debug, Clone, Copy, Default)]
pub struct MeshConfig;

/// A point-in-time copy of the mesh counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct MeshStats {
    /// Frames written to a socket successfully.
    pub sent: u64,
    /// Frames dropped, whatever the cause: the sum of the three
    /// `dropped_*` counters below.
    pub send_failures: u64,
    /// Frames refused because the peer's outbound queue was full.
    pub dropped_queue_full: u64,
    /// Frames lost half-written when their connection closed.
    pub dropped_mid_write: u64,
    /// Queued frames dropped unsent: the peer stayed unreachable after
    /// redial, or its wedged connection was evicted.
    pub dropped_backlog: u64,
    /// Connections dropped for undecodable bytes.
    pub decode_errors: u64,
    /// Of those, connections dropped for a frame that failed its
    /// checksum (damage to a peer's bytes, not a stranger's protocol).
    pub checksum_errors: u64,
    /// Frames dropped by injected chaos (random loss + partitions).
    pub chaos_dropped: u64,
    /// Frames duplicated by injected chaos.
    pub chaos_duplicated: u64,
    /// Frames delayed by injected chaos.
    pub chaos_delayed: u64,
    /// Times a socket write filled the kernel buffer and the mesh had
    /// to wait for `EPOLLOUT` — the write-backpressure gauge.
    pub epollout_waits: u64,
    /// Live connections (inbound + outbound), not counting dials whose
    /// connect has not finished.
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

/// One live connection.
struct Conn {
    stream: TcpStream,
    decoder: StreamDecoder,
    /// The node on the other end: the dial target, or the sender of the
    /// first frame received (inbound connections are anonymous until
    /// their `Hello` arrives).
    peer: Option<NodeId>,
    /// The frame a short write left half-sent, and how much of it went:
    /// it must finish on this connection, whatever the route says now.
    /// A dialed connection starts with its `Hello` here, so the
    /// introduction precedes every queued frame.
    partial: Option<(Arc<Encoded>, usize)>,
    /// `partial` is this end's `Hello`, which counts in neither `sent`
    /// nor `send_failures`.
    hello: bool,
    /// Dialed, and the connect has not finished: the socket waits for
    /// its first writable event under a [`Timer::Connect`] deadline.
    connecting: bool,
    /// `EPOLLOUT` currently subscribed.
    want_write: bool,
}

/// The mesh's own deadlines.
#[derive(Clone, Copy, PartialEq)]
enum Timer {
    /// A chaos-delayed frame heads the peer's queue.
    Kick(NodeId),
    /// The peer's one redial after a failed connect.
    Redial(NodeId),
    /// The handshake deadline of the dial in this connection slot.
    Connect(usize),
}

/// The node's connection fabric.
pub struct Mesh {
    me: NodeId,
    listen_addr: SocketAddr,
    listener: TcpListener,
    poller: Poller,
    events: Vec<epoll::Event>,
    /// Set by [`Mesh::shutdown`]: nothing is dialed after it.
    shut: bool,
    /// NodeId → listen address, learned from config and `Hello` frames.
    peers: HashMap<NodeId, SocketAddr>,
    /// Peers known only from a `Hello`, with the connection that
    /// carried it: closing that connection forgets the peer.
    introduced: HashMap<NodeId, usize>,
    /// Per-peer bounded outbound queues (created on first send).
    queues: HashMap<NodeId, VecDeque<QItem>>,
    /// Connection slots; a token is `TOK_CONN0` + slot. A slot freed
    /// and reused within one poll may get its old socket's event, which
    /// is harmless: every socket is nonblocking, so a stale readiness
    /// reads or writes nothing.
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Preferred connection for sending to a peer. Inbound connections
    /// registered here on their `Hello` let replies flow back without a
    /// reverse dial — a client does not need a listener of its own.
    route: HashMap<NodeId, usize>,
    /// Outstanding dial attempt per peer (1 = first, 2 = redial).
    dialing: HashMap<NodeId, u32>,
    timers: Vec<(Instant, Timer)>,
    /// Decoded messages not yet taken by the caller: at most [`BATCH`].
    ready: VecDeque<(NodeId, Msg)>,
    /// Bytes read since `ready` was last empty.
    read_ahead: usize,
    stats: MeshStats,
    pool: BufPool,
    /// Consecutive queue-full drops per peer (eviction trigger).
    full_strikes: HashMap<NodeId, u32>,
    /// `dropped_backlog` per peer: which peers were dialed in vain.
    backlog_drops: HashMap<NodeId, u64>,
    /// Installed fault-injection rules, if any (see [`crate::chaos`]).
    chaos: Option<Chaos>,
    /// Flight recorder for chaos-injection telemetry.
    flight: Option<FlightRecorder>,
}

impl Mesh {
    /// Start the mesh on an already-bound listener with a seed peer
    /// list. It starts no thread: everything happens in the caller's
    /// [`Mesh::recv_timeout`] and [`Mesh::try_recv`].
    pub fn start(
        me: NodeId,
        listener: TcpListener,
        seed_peers: HashMap<NodeId, SocketAddr>,
        _cfg: MeshConfig,
    ) -> std::io::Result<Mesh> {
        let listen_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let mut poller = Poller::new()?;
        poller.add(listener.as_raw_fd(), TOK_LISTENER, Interest::READABLE)?;
        Ok(Mesh {
            me,
            listen_addr,
            listener,
            poller,
            events: Vec::new(),
            shut: false,
            peers: seed_peers,
            introduced: HashMap::new(),
            queues: HashMap::new(),
            conns: Vec::new(),
            free: Vec::new(),
            route: HashMap::new(),
            dialing: HashMap::new(),
            timers: Vec::new(),
            ready: VecDeque::with_capacity(BATCH),
            read_ahead: 0,
            stats: MeshStats::default(),
            pool: BufPool::new(),
            full_strikes: HashMap::new(),
            backlog_drops: HashMap::new(),
            chaos: None,
            flight: None,
        })
    }

    /// The bound listen address (useful with port 0).
    pub fn listen_addr(&self) -> SocketAddr {
        self.listen_addr
    }

    /// Register (or update) a peer's listen address.
    pub fn add_peer(&mut self, id: NodeId, addr: SocketAddr) {
        self.peers.insert(id, addr);
        self.introduced.remove(&id);
    }

    /// Every peer currently known (never includes this node).
    pub fn known_peers(&self) -> Vec<NodeId> {
        self.peers.keys().copied().filter(|&p| p != self.me).collect()
    }

    /// Wait up to `timeout` for a message, doing the mesh's work on this
    /// thread meanwhile; `None` on timeout.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Option<(NodeId, Msg)> {
        let until = Instant::now() + timeout;
        loop {
            if !self.ready.is_empty() {
                return self.take();
            }
            self.poll(until.saturating_duration_since(Instant::now()));
            if self.ready.is_empty() && Instant::now() >= until {
                return None;
            }
        }
    }

    /// The next message the kernel already holds, without blocking.
    pub fn try_recv(&mut self) -> Option<(NodeId, Msg)> {
        if self.ready.is_empty() {
            self.poll(Duration::ZERO);
        }
        self.take()
    }

    fn take(&mut self) -> Option<(NodeId, Msg)> {
        let got = self.ready.pop_front();
        if self.ready.is_empty() {
            self.read_ahead = 0;
        }
        got
    }

    /// Send to one peer: best-effort, one redial after backoff, then the
    /// message is dropped (the peer's death shows up as RPC timeouts,
    /// exactly as in the simulator). Never blocks the caller: the frame
    /// is encoded into a pooled buffer, queued, and written now if the
    /// peer's connection has nothing ahead of it; a full queue drops
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
        // Chaos verdict first, in send order: the decision stream is
        // deterministic for a given seed and link.
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
                    self.stats.chaos_dropped += 1;
                    return;
                }
                Fault::Duplicate => {
                    copies = 2;
                    self.stats.chaos_duplicated += 1;
                }
                Fault::Delay(d) => {
                    delay = Some(Instant::now() + d);
                    self.stats.chaos_delayed += 1;
                }
            }
        }
        let queue = self.queues.entry(to).or_default();
        for _ in 0..copies {
            if queue.len() < OUTBOUND_QUEUE {
                queue.push_back(QItem { out: Arc::clone(&frame), deliver_at: delay });
                self.full_strikes.remove(&to);
                continue;
            }
            self.stats.dropped_queue_full += 1;
            // A queue that stays full means the peer's connection is
            // wedged (TCP window exhausted by a non-reader, or a
            // blackholed route): after enough consecutive strikes, evict
            // — close the socket and drop the backlog — so a later send
            // starts over on a fresh connection instead of feeding a
            // dead one.
            let strikes = self.full_strikes.entry(to).or_insert(0);
            *strikes += 1;
            if *strikes >= EVICT_AFTER_FULL {
                self.full_strikes.remove(&to);
                self.drop_backlog(to);
                if let Some(&idx) = self.route.get(&to) {
                    self.close_conn(idx);
                }
                return;
            }
        }
        self.pump_peer(to);
    }

    /// Open a connection (which carries our `Hello`) to every known
    /// peer. A joining node calls this so daemons learn its listen
    /// address — and start multicasting to it — before it sends any
    /// protocol traffic. Safe to call repeatedly (a boot-retry loop):
    /// peers that are already connected or being dialed are left
    /// untouched.
    pub fn hello_all(&mut self) {
        for peer in self.known_peers() {
            if !self.route.contains_key(&peer) && !self.dialing.contains_key(&peer) {
                self.start_dial(peer, 1);
            }
        }
    }

    /// Per-peer sender-queue depth: frames queued but not yet written
    /// to (or dropped from) the peer's connection.
    pub fn queue_depths(&self) -> Vec<(NodeId, u64)> {
        let mut depths: Vec<(NodeId, u64)> =
            self.queues.iter().map(|(&peer, q)| (peer, q.len() as u64)).collect();
        depths.sort_by_key(|&(peer, _)| peer.index());
        depths
    }

    /// A snapshot of the mesh counters.
    pub fn stats(&self) -> MeshStats {
        let conns = self.conns.iter().flatten().filter(|c| !c.connecting).count();
        let s = self.stats;
        let send_failures = s.dropped_queue_full + s.dropped_mid_write + s.dropped_backlog;
        MeshStats { conns: conns as u64, send_failures, ..s }
    }

    /// Flush mesh counters into labeled metrics, including one
    /// `net_queue_depth_<peer>` gauge per live peer queue, one
    /// `net_dropped_backlog_<peer>` gauge per peer dialed in vain, the
    /// live-connection gauge (`net_conns` — "mesh.conns" in DESIGN
    /// terms) and the `EPOLLOUT` backpressure counter.
    pub fn export_metrics(&self, metrics: &mut sorrento_sim::Metrics) {
        let s = self.stats();
        metrics.gauge_set("net_sent", s.sent as f64);
        metrics.gauge_set("net_send_failures", s.send_failures as f64);
        metrics.gauge_set("net_dropped_queue_full", s.dropped_queue_full as f64);
        metrics.gauge_set("net_dropped_mid_write", s.dropped_mid_write as f64);
        metrics.gauge_set("net_dropped_backlog", s.dropped_backlog as f64);
        metrics.gauge_set("net_decode_errors", s.decode_errors as f64);
        metrics.gauge_set("net_checksum_errors", s.checksum_errors as f64);
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
        for (peer, &n) in &self.backlog_drops {
            metrics.gauge_set(&format!("net_dropped_backlog_{}", peer.index()), n as f64);
        }
    }

    /// Close every connection. Frames already queued to connected peers,
    /// or to a dial in flight, get one bounded parting flush (100 ms) so
    /// a reply sent just before the stop is not silently stranded; every
    /// socket is nonblocking, so shutdown is bounded too. Idempotent.
    pub fn shutdown(&mut self) {
        // Once shut, nothing is redialed on the way out.
        if std::mem::replace(&mut self.shut, true) {
            return;
        }
        let _ = self.poller.remove(self.listener.as_raw_fd());
        self.flush_before_close();
        for idx in 0..self.conns.len() {
            self.close_conn(idx);
        }
    }

    /// Best-effort parting flush: a frame queued just before
    /// `shutdown()` — a daemon's final reply — gets one bounded window
    /// to reach the kernel instead of being silently stranded by
    /// teardown. Only peers with a live connection are pumped, and a
    /// blocked socket is waited on only until the deadline, so a wedged
    /// peer cannot hold shutdown hostage. Whatever is still queued
    /// afterwards is dropped — lossy semantics unchanged.
    fn flush_before_close(&mut self) {
        let deadline = Instant::now() + FLUSH_ON_SHUTDOWN;
        let routed: Vec<NodeId> = self.route.keys().copied().collect();
        for peer in routed {
            self.pump_peer(peer);
        }
        while self.conns.iter().flatten().any(|c| c.want_write) {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            self.poll(deadline - now);
        }
    }

    // ------------------------------------------------------------ poll

    /// One `epoll_wait` of at most `wait` (less if a mesh deadline comes
    /// sooner), then everything it reported, then every due deadline.
    fn poll(&mut self, wait: Duration) {
        let now = Instant::now();
        let wait = self
            .timers
            .iter()
            .map(|(at, _)| at.saturating_duration_since(now))
            .fold(wait, Duration::min);
        let mut events = std::mem::take(&mut self.events);
        if self.poller.wait(&mut events, Some(wait)).is_ok() {
            for ev in &events {
                match ev.token {
                    TOK_LISTENER => self.accept_ready(),
                    tok => {
                        let idx = (tok - TOK_CONN0) as usize;
                        if self.still_dialing(idx) {
                            continue;
                        }
                        if ev.writable {
                            self.pump(idx);
                        }
                        if ev.readable || ev.error {
                            self.conn_readable(idx);
                        }
                    }
                }
            }
        }
        self.events = events;
        self.fire_timers();
    }

    fn fire_timers(&mut self) {
        let now = Instant::now();
        let due: Vec<_> = self.timers.extract_if(.., |(at, _)| *at <= now).collect();
        for (_, t) in due {
            match t {
                Timer::Kick(peer) => self.pump_peer(peer),
                Timer::Redial(peer) => {
                    self.dialing.remove(&peer);
                    self.start_dial(peer, 2);
                }
                Timer::Connect(idx) => self.close_conn(idx),
            }
        }
    }

    /// Arm `timer` for `at`, or move it earlier if it is armed already.
    fn arm(&mut self, at: Instant, timer: Timer) {
        match self.timers.iter_mut().find(|(_, t)| *t == timer) {
            Some(armed) => armed.0 = armed.0.min(at),
            None => self.timers.push((at, timer)),
        }
    }

    fn disarm(&mut self, timer: Timer) {
        self.timers.retain(|&(_, t)| t != timer);
    }

    // ---------------------------------------------------------- accept

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let _ = self.register_conn(stream, None);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // WouldBlock, or transient (ECONNABORTED etc.): the next
                // readiness event retries.
                Err(_) => break,
            }
        }
    }

    /// Give `stream` a slot and a poller registration. A `peer` is given
    /// only for a socket this node dialed: it starts connecting, waits
    /// for its first writable event, and writes its `Hello` first.
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
        let dial = peer.is_some();
        let interest = if dial { Interest::BOTH } else { Interest::READABLE };
        if let Err(e) = self.poller.add(stream.as_raw_fd(), tok, interest) {
            self.free.push(idx);
            return Err(e);
        }
        self.conns[idx] = Some(Conn {
            stream,
            decoder: StreamDecoder::new(),
            peer,
            partial: peer.map(|_| (self.hello(), 0)),
            hello: dial,
            connecting: dial,
            want_write: dial,
        });
        // A dial becomes the peer's route unless a live connection
        // already is one.
        if let Some(p) = peer {
            self.route.entry(p).or_insert(idx);
        }
        Ok(idx)
    }

    /// This node's introduction, the first frame on every connection it
    /// dials: the peer learns this node's listen address from it and can
    /// route replies and multicasts back without prior configuration.
    fn hello(&self) -> Arc<Encoded> {
        let mut head = self.pool.check_out();
        frame::encode_hello_into(&mut head, self.me, &self.listen_addr.to_string());
        Arc::new(Encoded { head, blob: None })
    }

    fn close_conn(&mut self, idx: usize) {
        let Some(conn) = self.conns[idx].take() else { return };
        let _ = self.poller.remove(conn.stream.as_raw_fd());
        if conn.partial.is_some() && !conn.hello {
            self.stats.dropped_mid_write += 1;
        }
        self.free.push(idx);
        if conn.connecting {
            self.disarm(Timer::Connect(idx));
        }
        // Frames may still be queued for this peer: redial so they are
        // either delivered on a fresh connection or dropped by the
        // dial-failure path (lossy semantics, bounded retry). A dial
        // closed before it connected is that failure.
        if let Some(p) = conn.peer {
            if self.route.get(&p) == Some(&idx) {
                self.route.remove(&p);
            }
            if self.introduced.get(&p) == Some(&idx) {
                // A peer that left: without an address, whatever is
                // still queued for it is dropped at once.
                self.introduced.remove(&p);
                self.peers.remove(&p);
            }
            if conn.connecting {
                self.dial_failed(p);
            } else {
                self.pump_peer(p);
            }
        }
    }

    // ------------------------------------------------------------ read

    fn conn_readable(&mut self, idx: usize) {
        loop {
            // A full batch waits for the caller; the kernel keeps the rest.
            let full = self.ready.len() >= BATCH || self.read_ahead >= READ_AHEAD_BYTES;
            if full && !self.ready.is_empty() {
                return;
            }
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
                Ok(n) => {
                    self.read_ahead += n;
                    match conn.decoder.advance(n) {
                        Ok(Some((sender, frame))) => self.on_frame(idx, sender, frame),
                        Ok(None) => {}
                        Err(why) => {
                            // The stream is out of sync; there is no resync
                            // point in a byte stream, so drop the
                            // connection. A failed checksum is counted
                            // apart: it is damage to a peer's bytes, not a
                            // stranger's protocol.
                            if why == FrameError::ChecksumMismatch {
                                self.stats.checksum_errors += 1;
                            }
                            self.stats.decode_errors += 1;
                            let peer = conn.peer.map_or("unidentified".into(), |p| p.to_string());
                            let addr =
                                conn.stream.peer_addr().map_or("?".into(), |a| a.to_string());
                            eprintln!(
                                "sorrento mesh: closed connection from {peer} at {addr}: {why}"
                            );
                            self.close_conn(idx);
                            return;
                        }
                    }
                }
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
                    let prev = self.peers.insert(sender, addr);
                    if prev.is_none() || self.introduced.contains_key(&sender) {
                        self.introduced.insert(sender, idx);
                    }
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
                self.ready.push_back((sender, msg));
            }
        }
    }

    // ----------------------------------------------------------- write

    /// Drop every queued frame for `peer` (unreachable after redial, or
    /// evicted), counting them as send failures.
    fn drop_backlog(&mut self, peer: NodeId) {
        if let Some(q) = self.queues.get_mut(&peer).filter(|q| !q.is_empty()) {
            self.stats.dropped_backlog += q.len() as u64;
            *self.backlog_drops.entry(peer).or_default() += q.len() as u64;
            q.clear();
        }
    }

    /// Move queued frames for `peer` toward the wire: dial if it has no
    /// connection, write now if its connection is not waiting for
    /// `EPOLLOUT` (that wait's event does the write instead).
    fn pump_peer(&mut self, peer: NodeId) {
        match self.route.get(&peer) {
            Some(&idx) => {
                if self.conns.get(idx).and_then(Option::as_ref).is_some_and(|c| !c.want_write) {
                    self.pump(idx);
                }
            }
            None => {
                let backlog = self.queues.get(&peer).is_some_and(|q| !q.is_empty());
                if backlog && !self.dialing.contains_key(&peer) {
                    self.start_dial(peer, 1);
                }
            }
        }
    }

    /// Write connection `idx`'s half-sent frame, then — if it is its
    /// peer's route — the peer's queue, with as few syscalls as
    /// possible, until everything due is written or the socket is full.
    /// A chaos-delayed frame holds the link (FIFO order is kept, like
    /// queueing delay on a real NIC) and arms a kick for its instant.
    /// Any hard write error closes the connection: a partial frame
    /// cannot be resumed on another byte stream.
    fn pump(&mut self, idx: usize) {
        loop {
            let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else { return };
            let routed = conn.peer.filter(|p| self.route.get(p) == Some(&idx));
            let mut queue = routed.and_then(|p| self.queues.get_mut(&p));
            let now = Instant::now();
            let mut held = None;
            let mut slices: Vec<IoSlice<'_>> = Vec::new();
            let mut total = 0;
            if let Some((frame, off)) = &conn.partial {
                frame.slices(*off, &mut slices);
                total += frame.len() - off;
            }
            for (n, item) in queue.iter().flat_map(|q| q.iter()).enumerate() {
                if n >= COALESCE_MAX || total >= COALESCE_BYTES {
                    break;
                }
                if let Some(at) = item.deliver_at.filter(|&at| at > now) {
                    held = Some(at);
                    break;
                }
                item.out.slices(0, &mut slices);
                total += item.out.len();
            }
            if slices.is_empty() {
                if let (Some(at), Some(peer)) = (held, routed) {
                    self.arm(at, Timer::Kick(peer));
                }
                self.set_want_write(idx, false);
                return;
            }
            let wrote = conn.stream.write_vectored(&slices);
            drop(slices);
            match wrote {
                Ok(0) => {
                    self.close_conn(idx);
                    return;
                }
                Ok(n) => {
                    let mut left = n;
                    if let Some((frame, off)) = &mut conn.partial {
                        let rem = frame.len() - *off;
                        if left < rem {
                            *off += left;
                            left = 0;
                        } else {
                            left -= rem;
                            conn.partial = None;
                            if conn.hello {
                                conn.hello = false;
                            } else {
                                self.stats.sent += 1;
                            }
                        }
                    }
                    while left > 0 {
                        let q = queue.as_mut().expect("bytes past the partial came from the queue");
                        let item = q.pop_front().expect("written bytes were queued");
                        let len = item.out.len();
                        if left < len {
                            conn.partial = Some((item.out, left));
                            left = 0;
                        } else {
                            left -= len;
                            self.stats.sent += 1;
                        }
                    }
                    if n < total {
                        // A short write: the socket buffer is full.
                        self.set_want_write(idx, true);
                        return;
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    self.set_want_write(idx, true);
                    return;
                }
                Err(_) => {
                    self.close_conn(idx);
                    return;
                }
            }
        }
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
            self.stats.epollout_waits += 1;
        }
        let tok = TOK_CONN0 + idx as Token;
        let _ = self.poller.modify(conn.stream.as_raw_fd(), tok, interest);
    }

    // ------------------------------------------------------------ dial

    /// Dial `peer`: a nonblocking connect whose socket waits in the
    /// poller, with [`CONNECT_TIMEOUT`] to finish its handshake.
    fn start_dial(&mut self, peer: NodeId, attempt: u32) {
        let addr = match self.peers.get(&peer) {
            Some(&addr) if !self.shut => addr,
            // Unroutable, or shut down: nothing will drain the queue.
            _ => return self.drop_backlog(peer),
        };
        self.dialing.insert(peer, attempt);
        match epoll::connect(addr).and_then(|stream| self.register_conn(stream, Some(peer))) {
            Ok(idx) => self.arm(Instant::now() + CONNECT_TIMEOUT, Timer::Connect(idx)),
            Err(_) => self.dial_failed(peer),
        }
    }

    /// Whether slot `idx` holds a dial still connecting after a readiness
    /// event. A dialed socket's first event ends its connect, and
    /// `take_error` says how: success, or a failure that closes the
    /// connection. A socket with no error and no peer yet is still
    /// connecting: the event was a stale one for the slot's previous
    /// socket.
    fn still_dialing(&mut self, idx: usize) -> bool {
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else { return false };
        if !conn.connecting {
            return false;
        }
        match conn.stream.take_error() {
            Ok(None) if conn.stream.peer_addr().is_err() => true,
            Ok(None) => {
                conn.connecting = false;
                if let Some(peer) = conn.peer {
                    self.dialing.remove(&peer);
                }
                self.disarm(Timer::Connect(idx));
                // The connect's own `EPOLLOUT` wait ends here; the event's
                // pump subscribes again, and counts, if the socket fills.
                self.set_want_write(idx, false);
                false
            }
            _ => {
                self.close_conn(idx);
                true
            }
        }
    }

    /// A dial to `peer` failed: refused, unreachable, or unanswered for
    /// [`CONNECT_TIMEOUT`]. The first failure arms one redial after
    /// [`RETRY_BACKOFF`]; the second drops the backlog (lossy-network
    /// semantics).
    fn dial_failed(&mut self, peer: NodeId) {
        if self.dialing.remove(&peer) == Some(1) {
            self.dialing.insert(peer, 2);
            self.arm(Instant::now() + RETRY_BACKOFF, Timer::Redial(peer));
        } else {
            self.drop_backlog(peer);
        }
    }
}

impl Drop for Mesh {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sorrento::store::{SegMeta, WritePayload};
    use sorrento::types::SegId;

    fn start(i: usize, peers: HashMap<NodeId, SocketAddr>) -> (Mesh, NodeId) {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let id = NodeId::from_index(i);
        (Mesh::start(id, l, peers, MeshConfig).unwrap(), id)
    }

    /// Wait up to 5 s for a message at `to` while polling `from`, whose
    /// dials finish and queued frames move only when its owner polls.
    fn recv_driving(to: &mut Mesh, from: &mut Mesh) -> Option<(NodeId, Msg)> {
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            assert!(from.try_recv().is_none(), "the sender got a message");
            if let Some(got) = to.recv_timeout(Duration::from_millis(1)) {
                return Some(got);
            }
        }
        None
    }

    /// Poll `m` until `done` holds (5 s at most).
    fn drive_until(m: &mut Mesh, what: &str, done: impl Fn(&Mesh) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !done(m) {
            assert!(Instant::now() < deadline, "{what}: {:?}", m.stats());
            assert!(m.recv_timeout(Duration::from_millis(1)).is_none(), "{what}: a message arrived");
        }
    }

    /// Count live threads named for `me`'s mesh: a dialer
    /// (`sorrento-dial-<idx>`) or an event-loop thread
    /// (`sorrento-net-<idx>`), of which there must be none — the mesh
    /// runs on its caller's thread. `/proc` thread names are truncated to
    /// 15 bytes, so the census is exact as long as tests use distinct
    /// single-digit node indices.
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
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let n1 = NodeId::from_index(1);
        let (mut m0, n0) = start(0, HashMap::from([(n1, l1.local_addr().unwrap())]));
        let mut m1 = Mesh::start(n1, l1, HashMap::new(), MeshConfig).unwrap();

        m0.send(n1, &Msg::StatsQuery { req: 42 });
        let (from, msg) = recv_driving(&mut m1, &mut m0).expect("delivery");
        assert_eq!(from, n0);
        assert!(matches!(msg, Msg::StatsQuery { req: 42 }));
    }

    #[test]
    fn send_to_dead_peer_drops_silently() {
        let dead: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let n1 = NodeId::from_index(1);
        let (mut m0, _) = start(0, HashMap::from([(n1, dead)]));
        m0.send(n1, &Msg::StatsQuery { req: 1 });
        // The refused connect and its one redial each end in a poll; the
        // frame is then dropped and counted, and the `Hello` each dial
        // carried counts in neither `sent` nor `send_failures`.
        drive_until(&mut m0, "send failure never counted", |m| m.stats().send_failures > 0);
        assert_eq!(m0.stats().send_failures, 1);
        assert_eq!(m0.stats().dropped_backlog, 1, "{:?}", m0.stats());
        assert_eq!(m0.stats().sent, 0);
    }

    #[test]
    fn backlog_drops_are_counted_per_peer() {
        let (mut m0, _) = start(0, HashMap::new());
        // n7 has no address: its frames are dropped at the dial.
        m0.send(NodeId::from_index(7), &Msg::StatsQuery { req: 1 });
        m0.send(NodeId::from_index(7), &Msg::StatsQuery { req: 2 });
        assert_eq!(m0.stats().dropped_backlog, 2);
        let mut metrics = sorrento_sim::Metrics::default();
        m0.export_metrics(&mut metrics);
        assert_eq!(metrics.gauge("net_dropped_backlog_7"), Some(2.0));
        assert_eq!(metrics.gauge("net_dropped_backlog_1"), None, "a peer with no drops");
    }

    /// One peer that accepts but never reads must not delay delivery to
    /// a healthy peer: its frames pile into its own queue (and, past
    /// the queue's bound, drop) while the healthy peer's connection
    /// keeps flowing — a blocked socket costs an `EPOLLOUT`
    /// subscription, never a stalled node.
    ///
    /// The census half pins that the mesh owns no thread, with a socket
    /// wedged against the never-reading peer and after the drop.
    #[test]
    fn slow_peer_does_not_stall_other_sends() {
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
        let n_fast = NodeId::from_index(1);
        let n_slow = NodeId::from_index(2);
        let (mut m0, n0) = start(9, HashMap::from([(n_fast, a_fast), (n_slow, a_slow)]));
        let mut m_fast = Mesh::start(n_fast, l_fast, HashMap::new(), MeshConfig).unwrap();

        // Flood the slow peer with 1 MiB frames (views of one payload)
        // until its TCP buffers are full, then past its queue's bound.
        let payload = Bytes::from(vec![0x5a; 1 << 20]);
        let big = Msg::DirectWrite {
            req: 0,
            seg: SegId(1),
            offset: 0,
            payload: WritePayload::Real(payload),
            meta: SegMeta::default(),
        };
        for _ in 0..16 {
            m0.send(n_slow, &big);
        }
        drive_until(&mut m0, "the slow peer's socket never filled", |m| m.stats().epollout_waits > 0);
        for _ in 0..OUTBOUND_QUEUE + 8 {
            m0.send(n_slow, &big);
        }
        assert_eq!(m0.queue_depths(), vec![(n_slow, OUTBOUND_QUEUE as u64)]);
        assert!(m0.stats().send_failures >= 8, "{:?}", m0.stats());
        assert!(m0.stats().dropped_queue_full >= 8, "{:?}", m0.stats());
        // A send to the healthy peer must still go through promptly.
        let t0 = Instant::now();
        m0.send(n_fast, &Msg::StatsQuery { req: 7 });
        let (from, msg) = recv_driving(&mut m_fast, &mut m0).expect("fast peer starved");
        assert_eq!(from, n0);
        assert!(matches!(msg, Msg::StatsQuery { req: 7 }));
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "healthy-peer delivery took {:?}",
            t0.elapsed()
        );
        // The whole mesh — two live connections, one of them wedged —
        // owns no thread.
        #[cfg(target_os = "linux")]
        assert_eq!(mesh_threads_of(n0), 0, "the mesh owns a thread");
        drop(m0);
        #[cfg(target_os = "linux")]
        assert_eq!(mesh_threads_of(n0), 0, "a mesh thread outlived shutdown");
        let _ = slow_guard.join();
    }

    /// Forty 256 KiB replies to a peer that reads late: every queued
    /// frame holds its reply's bytes as a view, so no pooled buffer grows
    /// past a few KiB, and every reply still arrives, whole and in order.
    #[test]
    fn bulk_replies_to_a_late_reader_are_spliced_not_copied() {
        use sorrento::proto::ReadReply;
        const FRAMES: u64 = 40;
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let n1 = NodeId::from_index(1);
        let (mut m0, _) = start(0, HashMap::from([(n1, l1.local_addr().unwrap())]));
        for req in 0..FRAMES {
            let data = Some(vec![req as u8; 256 * 1024].into());
            let reply =
                ReadReply::Data { len: 256 * 1024, data, version: Default::default(), crc: None };
            m0.send(n1, &Msg::ReadSegR { req, reply });
        }
        let reader = std::thread::spawn(move || {
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
        });
        drive_until(&mut m0, "replies never all written", |m| m.stats().sent == FRAMES);
        reader.join().unwrap();
        assert!(m0.pool.idle() >= 1, "the replies' buffers never came back to the pool");
        let largest = m0.pool.largest_idle();
        assert!(largest <= 4096, "a pooled buffer grew to {largest} bytes");
    }

    /// The thread census is independent of how many peers the mesh
    /// talks to: no mesh thread with zero peers, none with three live
    /// connections.
    #[test]
    fn thread_count_is_constant_in_peer_count() {
        let (mut hub, hub_id) = start(5, HashMap::new());
        #[cfg(target_os = "linux")]
        assert_eq!(mesh_threads_of(hub_id), 0, "census with zero peers");

        let mut peers: Vec<Mesh> = (6..9)
            .map(|i| {
                let (peer, id) = start(i, HashMap::new());
                hub.add_peer(id, peer.listen_addr());
                peer
            })
            .collect();
        for (i, peer) in peers.iter_mut().enumerate() {
            hub.send(NodeId::from_index(6 + i), &Msg::StatsQuery { req: i as u64 });
            let (from, _) = recv_driving(peer, &mut hub).expect("delivery");
            assert_eq!(from, hub_id);
        }
        assert!(hub.stats().conns >= 3, "expected 3 live connections");
        #[cfg(target_os = "linux")]
        assert_eq!(mesh_threads_of(hub_id), 0, "census must not grow with connections");
        drop(hub);
        #[cfg(target_os = "linux")]
        assert_eq!(mesh_threads_of(hub_id), 0, "a mesh thread outlived shutdown");
    }

    /// Connect to `addr` until a connect goes unanswered: the listener's
    /// accept queue is then full, and the kernel drops every further SYN
    /// to it, so a dial there stays pending until its own timeout. The
    /// returned streams hold the queue full.
    #[cfg(target_os = "linux")]
    fn fill_accept_queue(addr: SocketAddr) -> Vec<TcpStream> {
        let mut held = Vec::new();
        while let Ok(s) = TcpStream::connect_timeout(&addr, Duration::from_millis(50)) {
            held.push(s);
            assert!(held.len() < 4096, "the accept queue never filled");
        }
        held
    }

    /// A peer whose SYNs go unanswered delays no other dial: a frame to a
    /// live peer sent right after one to the black-holed peer arrives
    /// well inside [`CONNECT_TIMEOUT`], no wait on the sender overruns by
    /// anything like a connect's stall, and the black-holed frame is
    /// counted as a failure once the dial and its one redial have timed
    /// out. (A plain 10 ms `epoll_wait` on an idle 2-vCPU VM overran by
    /// up to 12 ms in 100 tries, so the overrun bound is 50 ms: a tenth
    /// of the stall a blocking connect would add.)
    #[cfg(target_os = "linux")]
    #[test]
    fn an_unanswered_connect_delays_no_other_dial() {
        const POLL: Duration = Duration::from_millis(10);
        let hole = TcpListener::bind("127.0.0.1:0").unwrap();
        let _queued = fill_accept_queue(hole.local_addr().unwrap());
        let (n_hole, n_live) = (NodeId::from_index(1), NodeId::from_index(2));
        let (mut live, _) = start(2, HashMap::new());
        let peers = [(n_hole, hole.local_addr().unwrap()), (n_live, live.listen_addr())];
        let (mut m0, n0) = start(0, HashMap::from(peers));

        let t0 = Instant::now();
        m0.send(n_hole, &Msg::StatsQuery { req: 1 });
        m0.send(n_live, &Msg::StatsQuery { req: 2 });
        let mut overrun = Duration::ZERO;
        let mut arrived = None;
        let both_dials = CONNECT_TIMEOUT + RETRY_BACKOFF + CONNECT_TIMEOUT;
        let give_up = both_dials + Duration::from_millis(500);
        while t0.elapsed() < give_up && (arrived.is_none() || m0.stats().send_failures == 0) {
            let t = Instant::now();
            assert!(m0.recv_timeout(POLL).is_none(), "the sender got a message");
            overrun = overrun.max(t.elapsed().saturating_sub(POLL));
            if let Some((from, msg)) = live.try_recv() {
                assert_eq!(from, n0);
                assert!(matches!(msg, Msg::StatsQuery { req: 2 }));
                arrived = Some(t0.elapsed());
            }
        }
        let arrived = arrived.expect("the live peer's frame never arrived");
        assert!(arrived < Duration::from_millis(100), "the live peer's frame took {arrived:?}");
        assert!(overrun < Duration::from_millis(50), "a {POLL:?} wait overran by {overrun:?}");
        let failed = t0.elapsed();
        assert!(failed >= both_dials, "the black-holed frame failed at {failed:?}");
        assert_eq!(m0.stats().send_failures, 1, "{:?}", m0.stats());
        assert_eq!(m0.stats().dropped_backlog, 1, "{:?}", m0.stats());
        assert_eq!(m0.queue_depths(), vec![(n_hole, 0), (n_live, 0)]);
    }

    /// A listener-less client (raw socket, `Hello` with an empty listen
    /// address) must still be answerable: replies route over the live
    /// inbound connection its frames arrived on. This is what lets
    /// thousands of storm sessions hammer one daemon without a reverse
    /// dial per session.
    #[test]
    fn replies_flow_over_the_inbound_connection() {
        let (mut m1, n1) = start(8, HashMap::new());
        let client = NodeId::from_index(100);

        let mut c = TcpStream::connect(m1.listen_addr()).unwrap();
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
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let n1 = NodeId::from_index(4);
        let (mut m0, _) = start(3, HashMap::from([(n1, l1.local_addr().unwrap())]));
        let mut m1 = Mesh::start(n1, l1, HashMap::new(), MeshConfig).unwrap();

        m0.set_chaos(Some(ChaosConfig {
            seed: 1,
            drop_permille: 1000,
            ..ChaosConfig::default()
        }));
        m0.send(n1, &Msg::StatsQuery { req: 1 });
        assert!(m0.try_recv().is_none());
        assert!(m1.recv_timeout(Duration::from_millis(300)).is_none(), "dropped frame arrived");
        assert_eq!(m0.stats().chaos_dropped, 1);

        m0.set_chaos(Some(ChaosConfig {
            seed: 1,
            dup_permille: 1000,
            ..ChaosConfig::default()
        }));
        m0.send(n1, &Msg::StatsQuery { req: 2 });
        for _ in 0..2 {
            let (_, msg) = recv_driving(&mut m1, &mut m0).expect("duplicate copy");
            assert!(matches!(msg, Msg::StatsQuery { req: 2 }));
        }
        assert_eq!(m0.stats().chaos_duplicated, 1);

        m0.set_chaos(None);
        m0.send(n1, &Msg::StatsQuery { req: 3 });
        let (_, msg) = recv_driving(&mut m1, &mut m0).expect("clean delivery");
        assert!(matches!(msg, Msg::StatsQuery { req: 3 }));
        assert!(m0.try_recv().is_none());
        assert!(m1.recv_timeout(Duration::from_millis(200)).is_none());
    }

    /// A peer known only from its `Hello` (the benchmark's stats scraper,
    /// a one-shot tool) is forgotten when the connection it introduced
    /// itself on closes, so later multicasts do not dial it in vain; a
    /// configured peer is kept.
    #[test]
    fn a_peer_known_only_from_its_hello_is_forgotten_when_it_leaves() {
        let (ghost, seed) = (NodeId::from_index(9), NodeId::from_index(8));
        let seed_addr = TcpListener::bind("127.0.0.1:0").unwrap();
        let (mut hub, _) = start(5, HashMap::from([(seed, seed_addr.local_addr().unwrap())]));
        let mut raw = TcpStream::connect(hub.listen_addr()).unwrap();
        raw.write_all(&frame::encode_hello(ghost, "127.0.0.1:1")).unwrap();
        drive_until(&mut hub, "the ghost never said hello", |m| m.known_peers().contains(&ghost));
        drop(raw);
        drive_until(&mut hub, "the ghost's connection never closed", |m| m.stats().conns == 0);
        assert_eq!(hub.known_peers(), vec![seed]);

        drop(seed_addr); // the multicast's one dial fails at the seed alone
        hub.multicast(&Msg::StatsQuery { req: 1 });
        assert_eq!(hub.queue_depths(), vec![(seed, 1)], "the ghost got a queue");
        drive_until(&mut hub, "the seed's frame never dropped", |m| m.stats().send_failures > 0);
        let deadline = Instant::now() + Duration::from_millis(200);
        while Instant::now() < deadline {
            assert!(hub.recv_timeout(Duration::from_millis(5)).is_none());
        }
        assert_eq!(hub.stats().send_failures, 1, "{:?}", hub.stats());
    }

    /// A multicast encodes the frame once and shares it; every peer
    /// still gets a complete copy.
    #[test]
    fn multicast_reaches_all_peers() {
        let mk = || TcpListener::bind("127.0.0.1:0").unwrap();
        let (l1, l2) = (mk(), mk());
        let n1 = NodeId::from_index(1);
        let n2 = NodeId::from_index(2);
        let peers = HashMap::from([(n1, l1.local_addr().unwrap()), (n2, l2.local_addr().unwrap())]);
        let (mut m0, n0) = start(0, peers);
        let mut m1 = Mesh::start(n1, l1, HashMap::new(), MeshConfig).unwrap();
        let mut m2 = Mesh::start(n2, l2, HashMap::new(), MeshConfig).unwrap();
        m0.multicast(&Msg::StatsQuery { req: 9 });
        for m in [&mut m1, &mut m2] {
            let (from, msg) = recv_driving(m, &mut m0).expect("delivery");
            assert_eq!(from, n0);
            assert!(matches!(msg, Msg::StatsQuery { req: 9 }));
        }
    }
}
