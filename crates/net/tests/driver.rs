//! The loop contract of `runtime::Driver`, checked on real loopback
//! meshes: waits end at the next deadline (no fixed poll), queued
//! messages are handled a batch at a time with one flush per batch, a
//! flood cannot starve a timer, and an idle daemon stops within the idle
//! backstop.

use std::collections::HashMap;
use std::net::TcpListener;
use std::time::{Duration, Instant};

use sorrento::proto::{Msg, Tick};
use sorrento::Transport;
use sorrento_net::runtime::{Driver, Node, RealCtx, BATCH, IDLE_BACKSTOP};
use sorrento_net::tcp::{Mesh, MeshConfig};
use sorrento_net::testkit::LoopbackCluster;
use sorrento_sim::{Dur, NodeId};

const A: usize = 700;
const B: usize = 701;

fn mesh(i: usize) -> Mesh {
    let l = TcpListener::bind("127.0.0.1:0").unwrap();
    Mesh::start(NodeId::from_index(i), l, HashMap::new(), MeshConfig::default()).unwrap()
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

/// `n` queries from a fresh mesh B to `a`, all written to the kernel
/// (and, a moment later, queued in `a`'s inbox) on return.
fn flood(a: &Driver, n: u64) -> Mesh {
    let mut b = mesh(B);
    b.add_peer(NodeId::from_index(A), a.mesh.listen_addr());
    for req in 0..n {
        b.send(NodeId::from_index(A), &Msg::StatsQuery { req });
    }
    let t0 = Instant::now();
    while b.stats().sent < n {
        assert!(t0.elapsed() < Duration::from_secs(10), "flood never left: {:?}", b.stats());
        std::thread::sleep(Duration::from_millis(1));
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
    assert!(late < Duration::from_millis(3), "a 1 ms timer fired after {late:?}");
    // One turn slept until the deadline, the next fired it: no spinning.
    assert!(turns <= 3, "{turns} turns for one timer");
}

#[test]
fn an_idle_turn_ends_at_the_callers_deadline() {
    let mut d = driver(A);
    let t0 = Instant::now();
    d.turn(&mut Echo::default(), Some(t0 + Duration::from_millis(2)));
    let took = t0.elapsed();
    assert!(took >= Duration::from_millis(2) && took < Duration::from_millis(5), "{took:?}");
    let t0 = Instant::now();
    d.turn(&mut Echo::default(), None);
    assert!(t0.elapsed() >= IDLE_BACKSTOP);
}

#[test]
fn a_queued_batch_is_flushed_once() {
    let mut d = driver(A);
    let n = 10;
    let b = flood(&d, n);
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
