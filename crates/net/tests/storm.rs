//! The many-session storm: hundreds of raw-socket client sessions, all
//! driven by one epoll poller on this thread, each hammering one
//! provider daemon with small `DirectWrite` / `ReadSeg` rounds. A lost
//! frame is re-sent under the same request id after a per-op timeout
//! (the provider's reply cache makes the resend idempotent), so the test
//! can hold the daemon to *zero hung sessions, zero dropped ops and an
//! inbox that never overflowed*. That the daemon serves them all from
//! O(1) threads is `thread_census.rs`'s job.
//!
//! 256 sessions fit the default `ulimit -n`; RUNBOOK.md §storm says what
//! to raise before scaling `SESSIONS` up on a real box.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use sorrento::proto::{Msg, ReadReply};
use sorrento::store::{SegMeta, WritePayload};
use sorrento::types::{PlacementPolicy, SegId};
use sorrento_net::frame::{self, Frame, StreamDecoder};
use sorrento_net::testkit::{payload, LoopbackCluster};
use sorrento_sim::NodeId;

const SESSIONS: usize = 256;
/// Write-then-read rounds per session.
const ROUNDS: u64 = 4;
/// What one session writes per round.
const BODY: usize = 512;
/// Re-send the current request if unanswered this long (the transport
/// is lossy by design: a full daemon inbox silently drops frames).
const RESEND: Duration = Duration::from_secs(1);
const DEADLINE: Duration = Duration::from_secs(120);
const PROVIDER: usize = 1;

#[derive(PartialEq)]
enum Phase {
    AwaitWriteR,
    AwaitReadR,
    Done,
}

struct Session {
    stream: TcpStream,
    dec: StreamDecoder,
    /// Encoded bytes of the in-flight request, kept for resend.
    pending: Vec<u8>,
    id: NodeId,
    req: u64,
    round: u64,
    phase: Phase,
    last_send: Instant,
}

impl Session {
    fn connect(addr: SocketAddr, id: NodeId) -> Session {
        let mut stream = TcpStream::connect(addr).expect("storm connect");
        // No listen address: replies must come back over this socket.
        stream.write_all(&frame::encode_hello(id, "")).expect("hello");
        stream.set_nodelay(true).expect("nodelay");
        stream.set_nonblocking(true).expect("nonblocking");
        Session {
            stream,
            dec: StreamDecoder::new(),
            pending: Vec::new(),
            id,
            req: 0,
            round: 0,
            phase: Phase::AwaitWriteR,
            last_send: Instant::now(),
        }
    }

    fn seg(&self) -> SegId {
        SegId(((self.id.index() as u128) << 64) | self.round as u128)
    }

    fn request(&mut self, msg: &Msg, then: Phase) {
        self.pending = frame::encode_msg(self.id, msg);
        self.phase = then;
        self.send();
    }

    /// (Re-)send the in-flight request. A session has one small request
    /// outstanding, so the socket's send buffer always has room for it.
    fn send(&mut self) {
        self.stream.write_all(&self.pending).expect("request fits the send buffer");
        self.last_send = Instant::now();
    }

    fn start_write(&mut self, body: &[u8]) {
        self.req += 1;
        let msg = Msg::DirectWrite {
            req: self.req,
            seg: self.seg(),
            offset: 0,
            payload: WritePayload::Real(body.to_vec().into()),
            meta: SegMeta {
                replication: 1,
                alpha: 1.0,
                policy: PlacementPolicy::Random,
                synthetic: false,
                ec: None,
            },
        };
        self.request(&msg, Phase::AwaitWriteR);
    }

    fn start_read(&mut self) {
        self.req += 1;
        let msg = Msg::ReadSeg {
            req: self.req,
            seg: self.seg(),
            offset: 0,
            len: BODY as u64,
            min_version: None,
            allow_redirect: false,
        };
        self.request(&msg, Phase::AwaitReadR);
    }

    /// Handle one reply; returns the ops it completed (0 for the stale
    /// reply to a request that was re-sent and has since been answered).
    fn on_msg(&mut self, msg: Msg, body: &[u8]) -> u64 {
        let me = self.id.index();
        match (&self.phase, msg) {
            (Phase::AwaitWriteR, Msg::DirectWriteR { req, result }) if req == self.req => {
                result.unwrap_or_else(|e| panic!("session {me}: write failed: {e:?}"));
                self.start_read();
                1
            }
            (Phase::AwaitReadR, Msg::ReadSegR { req, reply }) if req == self.req => {
                match reply {
                    ReadReply::Data { len, data, .. } => {
                        assert_eq!(len, BODY as u64, "session {me}: read came back short");
                        assert_eq!(data.as_deref(), Some(body), "session {me}: read corrupt");
                    }
                    other => panic!("session {me}: read failed: {other:?}"),
                }
                self.round += 1;
                if self.round == ROUNDS {
                    self.phase = Phase::Done;
                    self.pending.clear();
                } else {
                    self.start_write(body);
                }
                1
            }
            _ => 0,
        }
    }

    /// Read and handle every reply the socket holds; returns ops completed.
    fn drain(&mut self, body: &[u8]) -> u64 {
        let me = self.id.index();
        let mut completed = 0;
        loop {
            let spare = self.dec.spare();
            assert!(!spare.is_empty(), "session {me}: decoder poisoned");
            match self.stream.read(spare) {
                Ok(0) => panic!("session {me}: daemon closed the connection"),
                Ok(n) => {
                    if let Some((from, Frame::Msg(msg))) = self.dec.advance(n).expect("decode") {
                        assert_eq!(from, NodeId::from_index(PROVIDER));
                        completed += self.on_msg(msg, body);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return completed,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => panic!("session {me}: read error: {e}"),
            }
        }
    }
}

#[test]
fn a_session_storm_hangs_nothing_and_drops_nothing() {
    let cluster = LoopbackCluster::builder(1).boot().expect("boot 1 + 1");
    let body = payload(BODY);

    let mut poller = epoll::Poller::new().expect("storm poller");
    let mut all: Vec<Session> = Vec::with_capacity(SESSIONS);
    for i in 0..SESSIONS {
        let mut s = Session::connect(cluster.addr(PROVIDER), NodeId::from_index(10_000 + i));
        s.start_write(&body);
        poller
            .add(s.stream.as_raw_fd(), i as epoll::Token, epoll::Interest::READABLE)
            .expect("register session");
        all.push(s);
    }

    let expected_ops = SESSIONS as u64 * ROUNDS * 2;
    let mut completed = 0u64;
    let mut done = 0usize;
    let deadline = Instant::now() + DEADLINE;
    let mut events: Vec<epoll::Event> = Vec::new();
    while done < SESSIONS {
        assert!(
            Instant::now() < deadline,
            "storm hung: {done}/{SESSIONS} sessions done, {completed}/{expected_ops} ops"
        );
        poller.wait(&mut events, Some(Duration::from_millis(100))).expect("storm wait");
        for ev in &events {
            let s = &mut all[ev.token as usize];
            let was_done = s.phase == Phase::Done;
            completed += s.drain(&body);
            if !was_done && s.phase == Phase::Done {
                done += 1;
            }
        }
        // Anything unanswered past the timeout is re-sent as it was.
        let now = Instant::now();
        for s in all.iter_mut() {
            if s.phase != Phase::Done && now.duration_since(s.last_send) >= RESEND {
                s.send();
            }
        }
    }
    assert_eq!(completed, expected_ops, "storm dropped ops");

    // Still connected, every session: the daemon's inbox took it all.
    let snap = cluster.snapshot().expect("scrape after the storm");
    assert_eq!(snap.gauge(PROVIDER, "net_dropped_inbox_full"), Some(0.0));
    drop(all);
    cluster.shutdown().expect("clean shutdown");
}
