//! The loop contract of `runtime::Driver`, checked on real loopback
//! meshes: waits end at the next deadline (no fixed poll), queued
//! messages are handled a batch at a time with one flush per batch, a
//! flood cannot starve a timer, an idle daemon stops within the idle
//! backstop — and the mesh needs no thread of its own: its deadlines
//! fire inside a turn's wait, a reply is on the wire when the turn that
//! made it returns, and a node too busy to turn costs its senders
//! latency, never a frame.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use sorrento::proto::{Msg, Tick};
use sorrento::Transport;
use sorrento_net::chaos::ChaosConfig;
use sorrento_net::frame::{self, Frame, StreamDecoder};
use sorrento_net::runtime::{Driver, Node, RealCtx, BATCH, IDLE_BACKSTOP};
use sorrento_net::tcp::{Mesh, MeshConfig};
use sorrento_net::testkit::LoopbackCluster;
use sorrento_sim::{Dur, NodeId};

const A: usize = 700;
const B: usize = 701;

fn mesh(i: usize) -> Mesh {
    let l = TcpListener::bind("127.0.0.1:0").unwrap();
    Mesh::start(NodeId::from_index(i), l, HashMap::new(), MeshConfig).unwrap()
}

fn driver(i: usize) -> Driver {
    let ctx = RealCtx::new(NodeId::from_index(i), 1, 1 << 30, HashMap::new());
    Driver::new(ctx, mesh(i))
}

/// Bounces every query back to its sender; notes when its tick fired
/// and how many queries it had bounced by then.
#[derive(Default)]
struct Echo {
    handled: usize,
    /// Set a zero-delay timer while handling the first query.
    arm_on_first: bool,
    tick: Option<(Instant, usize)>,
}

impl Node for Echo {
    fn handle(&mut self, from: NodeId, msg: Msg, ctx: &mut RealCtx) {
        match msg {
            Msg::Tick(_) => self.tick = Some((Instant::now(), self.handled)),
            msg => {
                self.handled += 1;
                if self.arm_on_first && self.handled == 1 {
                    ctx.set_timer(Dur::ZERO, Msg::Tick(Tick::Gc));
                }
                ctx.send(from, msg);
            }
        }
    }
}

/// Notes the request id of every query, in arrival order.
#[derive(Default)]
struct Record(Vec<u64>);

impl Node for Record {
    fn handle(&mut self, _: NodeId, msg: Msg, _: &mut RealCtx) {
        if let Msg::StatsQuery { req } = msg {
            self.0.push(req);
        }
    }
}

/// `n` queries from a fresh mesh B to `a`, all written to the kernel
/// (and, a moment later, readable on `a`'s socket) on return. B's dial
/// finishes and its queue drains only while B is polled, so the flood
/// polls it.
fn flood(a: &Driver, n: u64) -> Mesh {
    let mut b = mesh(B);
    b.add_peer(NodeId::from_index(A), a.mesh.listen_addr());
    for req in 0..n {
        b.send(NodeId::from_index(A), &Msg::StatsQuery { req });
    }
    let t0 = Instant::now();
    while b.stats().sent < n {
        assert!(t0.elapsed() < Duration::from_secs(10), "flood never left: {:?}", b.stats());
        assert!(b.recv_timeout(Duration::from_millis(1)).is_none(), "B got a message");
    }
    std::thread::sleep(Duration::from_millis(20));
    b
}

#[test]
fn a_timer_on_an_idle_loop_fires_at_its_deadline() {
    let mut d = driver(A);
    let mut node = Echo::default();
    d.ctx.set_timer(Dur::millis(1), Msg::Tick(Tick::Gc));
    let t0 = Instant::now();
    let mut turns = 0;
    while node.tick.is_none() {
        d.turn(&mut node, None);
        turns += 1;
    }
    let late = node.tick.unwrap().0 - t0;
    assert!(late >= Duration::from_millis(1), "fired early: {late:?}");
    // A turn that ignored the due timer would wait out the whole backstop;
    // anything short of it is scheduling noise on a loaded host.
    assert!(late < IDLE_BACKSTOP, "a 1 ms timer fired after {late:?}");
    // One turn slept until the deadline, the next fired it: no spinning.
    assert!(turns <= 3, "{turns} turns for one timer");
}

#[test]
fn an_idle_turn_ends_at_the_callers_deadline() {
    let mut d = driver(A);
    let t0 = Instant::now();
    d.turn(&mut Echo::default(), Some(t0 + Duration::from_millis(2)));
    let took = t0.elapsed();
    assert!(took >= Duration::from_millis(2) && took < IDLE_BACKSTOP, "{took:?}");
    let t0 = Instant::now();
    d.turn(&mut Echo::default(), None);
    assert!(t0.elapsed() >= IDLE_BACKSTOP);
}

#[test]
fn a_queued_batch_is_flushed_once() {
    let mut d = driver(A);
    let n = 10;
    let mut b = flood(&d, n);
    let mut node = Echo::default();
    d.turn(&mut node, None);
    assert_eq!((node.handled, d.flushes), (n as usize, 1));
    for _ in 0..n {
        assert!(b.recv_timeout(Duration::from_secs(5)).is_some(), "a reply went missing");
    }
}

#[test]
fn a_flood_delays_a_due_timer_by_at_most_one_batch() {
    let mut d = driver(A);
    let n = 6 * BATCH;
    let _b = flood(&d, n as u64);
    let mut node = Echo { arm_on_first: true, ..Echo::default() };
    let t0 = Instant::now();
    while node.handled < n {
        assert!(t0.elapsed() < Duration::from_secs(10), "stuck at {}", node.handled);
        d.turn(&mut node, None);
    }
    let (_, handled_at_tick) = node.tick.expect("the timer fired during the flood");
    assert!(handled_at_tick <= BATCH, "timer waited for {handled_at_tick} messages");
    // One flush per batch, not per message.
    assert!(d.flushes <= (n / BATCH + 2) as u64, "{} flushes", d.flushes);
}

#[test]
fn an_idle_daemon_stops_within_the_backstop() {
    for kill in [false, true] {
        let mut cluster = LoopbackCluster::builder(1).boot().unwrap();
        std::thread::sleep(Duration::from_millis(30)); // booted and asleep
        let t0 = Instant::now();
        if kill { cluster.kill(1) } else { cluster.stop(1) }.unwrap();
        let took = t0.elapsed();
        assert!(took < 2 * IDLE_BACKSTOP, "kill={kill}: {took:?}");
    }
}

/// A node too busy to turn holds its senders back through TCP, and
/// drops nothing: 4,096 queries sent while the receiving driver is not
/// turned all arrive, in order, once it resumes. The sender paces on
/// its own queue depth, so its bounded queue never drops either; the
/// overload shows only as the time the sender spends waiting.
#[test]
fn overload_is_latency_not_loss() {
    const N: u64 = 4096;
    const PACE: u64 = 64;
    let mut d = driver(A);
    let a_id = NodeId::from_index(A);
    let a_addr = d.mesh.listen_addr();
    let (sent_tx, sent_rx) = std::sync::mpsc::channel();
    let sender = std::thread::spawn(move || {
        let mut b = mesh(B);
        b.add_peer(a_id, a_addr);
        let depth = |b: &Mesh| b.queue_depths().iter().map(|&(_, d)| d).sum::<u64>();
        let t0 = Instant::now();
        for req in 0..N {
            while depth(&b) >= PACE {
                assert!(t0.elapsed() < Duration::from_secs(60), "sender stuck at {req}");
                let _ = b.recv_timeout(Duration::from_millis(1));
            }
            b.send(a_id, &Msg::StatsQuery { req });
        }
        while b.stats().sent < N {
            assert!(t0.elapsed() < Duration::from_secs(60), "flood never left: {:?}", b.stats());
            let _ = b.recv_timeout(Duration::from_millis(1));
        }
        let _ = sent_tx.send(());
        b.stats()
    });
    // Busy: not turned until every query is written, or for a second
    // if the kernel's buffers hold fewer than all of them.
    let _ = sent_rx.recv_timeout(Duration::from_secs(1));
    let mut node = Record::default();
    let t0 = Instant::now();
    while (node.0.len() as u64) < N && t0.elapsed() < Duration::from_secs(20) {
        d.turn(&mut node, None);
    }
    let sender = sender.join().expect("sender thread");
    assert_eq!(node.0.len() as u64, N, "frames lost; the sender's stats: {sender:?}");
    assert!(node.0.iter().copied().eq(0..N), "frames out of order");
    assert_eq!(sender.send_failures, 0, "the sender's own queue dropped");
}

/// The mesh's deadlines fire inside a turn's wait: on an idle node with
/// no timers, a frame held 20 ms by a chaos delay is written when its
/// delay is up, not when the turn's [`IDLE_BACKSTOP`] ends.
#[test]
fn a_chaos_delay_fires_inside_an_idle_turn() {
    const DELAY: Duration = Duration::from_millis(20);
    const SLACK: Duration = Duration::from_millis(10);
    let mut d = driver(A);
    let peer = NodeId::from_index(B);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    d.mesh.add_peer(peer, listener.local_addr().unwrap());
    d.mesh.hello_all();
    let (mut raw, _) = listener.accept().unwrap();
    // The dial's connect finishes in a turn; then the link is up.
    while d.mesh.stats().conns == 0 {
        d.turn(&mut Echo::default(), Some(Instant::now() + Duration::from_millis(5)));
    }
    d.mesh.set_chaos(Some(ChaosConfig {
        seed: 1,
        delay_permille: 1000,
        delay: DELAY,
        ..ChaosConfig::default()
    }));
    let reader = std::thread::spawn(move || (read_msg(&mut raw).1, Instant::now()));
    let t0 = Instant::now();
    d.mesh.send(peer, &Msg::StatsQuery { req: 1 });
    d.turn(&mut Echo::default(), None);
    let (msg, arrived) = reader.join().expect("reader thread");
    assert!(matches!(msg, Msg::StatsQuery { req: 1 }));
    let took = arrived - t0;
    assert!(took >= DELAY, "the delay was skipped: {took:?}");
    assert!(took < DELAY + SLACK, "a {DELAY:?} delay took {took:?} on an idle node");
}

/// A reply is on the wire when the turn that made it returns: a raw
/// client reads it with nobody polling the replier again.
#[test]
fn a_reply_is_written_before_the_turn_returns() {
    let mut d = driver(A);
    let client = NodeId::from_index(B);
    let mut raw = TcpStream::connect(d.mesh.listen_addr()).unwrap();
    raw.write_all(&frame::encode_hello(client, "")).unwrap();
    raw.write_all(&frame::encode_msg(client, &Msg::StatsQuery { req: 3 })).unwrap();
    let mut node = Echo::default();
    let t0 = Instant::now();
    while node.handled == 0 {
        assert!(t0.elapsed() < Duration::from_secs(5), "the query never arrived");
        d.turn(&mut node, None);
    }
    // From here on the replier is never turned or polled.
    let (from, msg) = read_msg(&mut raw);
    assert_eq!(from, NodeId::from_index(A));
    assert!(matches!(msg, Msg::StatsQuery { req: 3 }));
}

/// The next message on a raw socket, within 5 s.
fn read_msg(raw: &mut TcpStream) -> (NodeId, Msg) {
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut dec = StreamDecoder::new();
    loop {
        let n = raw.read(dec.spare()).expect("a message within 5 s");
        assert_ne!(n, 0, "the node hung up");
        if let Some((from, Frame::Msg(msg))) = dec.advance(n).expect("clean frame") {
            return (from, msg);
        }
    }
}
