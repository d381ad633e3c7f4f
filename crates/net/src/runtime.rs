//! [`RealCtx`], the wall-clock [`Transport`] implementation, and
//! [`Driver`], the one loop every real node runs it under.
//!
//! The state machines see the same trait surface as under the
//! simulator; here `now()` is monotonic nanoseconds since process
//! start, timers live in a local ordered map the loop drains, and
//! sends accumulate in an outbox the loop flushes through the TCP
//! mesh. `SimTime` stays the time type in both worlds — it is just a
//! nanosecond counter, so membership views, location-table aging and
//! shadow TTLs behave identically on virtual and real clocks.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sorrento::proto::{self, Msg};
use sorrento::Transport;
use sorrento_sim::{
    DiskAccess, DiskConfig, DiskState, Dur, Metrics, NodeId, SimTime, TelemetryEvent, TimerId,
};

use crate::flight::FlightRecorder;
use crate::tcp::Mesh;

/// An outbound delivery the daemon loop must perform.
#[derive(Debug)]
pub enum Out {
    /// Send to one node (possibly this node: loopback).
    Unicast(NodeId, Msg),
    /// Fan out to every known peer.
    Multicast(Msg),
}

/// Wall-clock transport state for one node.
pub struct RealCtx {
    me: NodeId,
    epoch: Instant,
    rng: SmallRng,
    metrics: Metrics,
    flight: FlightRecorder,
    disk: DiskState,
    /// NodeId → physical machine, from the cluster config.
    machines: HashMap<NodeId, u32>,
    next_timer: u64,
    /// Live timers by `(deadline ns, timer id)`: the first key is the
    /// next deadline, and a cancelled timer is really gone.
    timers: BTreeMap<(u64, u64), Msg>,
    /// Timer id → its deadline, so `cancel_timer` can find the key.
    timer_at: HashMap<u64, u64>,
    outbox: Vec<Out>,
}

impl RealCtx {
    /// Default flight-recorder capacity (records, not bytes): enough
    /// for minutes of steady-state traffic at a few KiB/record overhead.
    pub const FLIGHT_CAP: usize = 4096;

    /// A fresh context for node `me` with the given RNG seed, disk
    /// capacity, and machine map. The flight recorder's unix epoch is
    /// captured here, at the same moment as the monotonic epoch, so
    /// `epoch_unix_ns + now()` is the wall clock.
    pub fn new(me: NodeId, seed: u64, capacity: u64, machines: HashMap<NodeId, u32>) -> RealCtx {
        RealCtx {
            me,
            epoch: Instant::now(),
            rng: SmallRng::seed_from_u64(seed),
            metrics: Metrics::new(),
            flight: FlightRecorder::new(me, Self::FLIGHT_CAP),
            disk: DiskState::new(DiskConfig::scsi_10krpm(capacity)),
            machines,
            next_timer: 1,
            timers: BTreeMap::new(),
            timer_at: HashMap::new(),
            outbox: Vec::new(),
        }
    }

    /// Take everything queued for delivery.
    pub fn drain_outbox(&mut self) -> Vec<Out> {
        std::mem::take(&mut self.outbox)
    }

    /// Pop every timer whose deadline has passed, in deadline order
    /// (ties broken by creation order, as in the simulator).
    pub fn due_timers(&mut self) -> Vec<Msg> {
        let now = self.now().nanos();
        let mut due = Vec::new();
        while let Some(entry) = self.timers.first_entry() {
            let &(at, id) = entry.key();
            if at > now {
                break;
            }
            self.timer_at.remove(&id);
            due.push(entry.remove());
        }
        due
    }

    /// When the next live timer fires, in nanoseconds on this context's
    /// clock (None if no timers).
    pub fn next_deadline(&self) -> Option<u64> {
        self.timers.first_key_value().map(|(&(at, _), _)| at)
    }

    /// Immutable metrics access (JSON export without `&mut`).
    pub fn metrics_ref(&self) -> &Metrics {
        &self.metrics
    }

    /// The node's flight recorder (cheap clone: shared ring). Threads
    /// that outlive or run beside the daemon loop — crash hooks, the
    /// mesh — record and dump through clones of this handle.
    pub fn flight(&self) -> FlightRecorder {
        self.flight.clone()
    }
}

impl Transport<Msg> for RealCtx {
    fn id(&self) -> NodeId {
        self.me
    }

    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }

    fn send(&mut self, dst: NodeId, msg: Msg) {
        self.outbox.push(Out::Unicast(dst, msg));
    }

    fn send_at(&mut self, _at: SimTime, dst: NodeId, msg: Msg) {
        // Modeled CPU/disk completions already happened in real time by
        // the time this executes; ship immediately.
        self.outbox.push(Out::Unicast(dst, msg));
    }

    fn multicast(&mut self, msg: Msg) {
        self.outbox.push(Out::Multicast(msg));
    }

    fn set_timer(&mut self, delay: Dur, msg: Msg) -> TimerId {
        let id = self.next_timer;
        self.next_timer += 1;
        let at = self.now().nanos().saturating_add(delay.as_nanos());
        self.timers.insert((at, id), msg);
        self.timer_at.insert(id, at);
        TimerId::from_raw(id)
    }

    fn cancel_timer(&mut self, id: TimerId) {
        if let Some(at) = self.timer_at.remove(&id.raw()) {
            self.timers.remove(&(at, id.raw()));
        }
    }

    fn cpu(&mut self, _service: Dur) -> SimTime {
        // Real CPU time is spent, not modeled.
        self.now()
    }

    fn disk_submit(&mut self, bytes: u64, access: DiskAccess) -> SimTime {
        // Keep the disk model's accounting (capacity, io-wait sampling)
        // but let real I/O pace itself.
        let now = self.now();
        self.disk.submit(now, bytes, access)
    }

    fn disk(&mut self) -> &mut DiskState {
        &mut self.disk
    }

    fn machine_of(&self, id: NodeId) -> u32 {
        self.machines.get(&id).copied().unwrap_or(id.index() as u32)
    }

    fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    fn metrics(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    fn record(&mut self, ev: TelemetryEvent) {
        let now = self.now();
        self.metrics.count_labeled("event", ev.kind(), 1);
        self.flight.record(now, ev);
    }
}

/// Longest a loop sleeps with nothing due. Only the flags nobody can
/// wake the loop for — a daemon's shutdown request — wait this long.
pub const IDLE_BACKSTOP: Duration = Duration::from_millis(50);

/// Most queued messages handled before the outbox is flushed and the
/// timers are looked at again.
pub const BATCH: usize = 32;

/// What a [`Driver`] feeds. `handle` is the state machine; a node that
/// answers some frames or ticks from the loop itself (a daemon's stats
/// queries, its gauge refresh) overrides the other two.
pub trait Node {
    /// Feed one message to the state machine. Sends the node addressed
    /// to itself come back through here.
    fn handle(&mut self, from: NodeId, msg: Msg, ctx: &mut RealCtx);

    /// A frame off the mesh.
    fn inbound(&mut self, from: NodeId, msg: Msg, ctx: &mut RealCtx, _mesh: &mut Mesh) {
        self.handle(from, msg, ctx);
    }

    /// A timer of this node came due.
    fn timer(&mut self, msg: Msg, ctx: &mut RealCtx, _mesh: &mut Mesh) {
        self.handle(ctx.id(), msg, ctx);
    }
}

/// A bare handler is a node with nothing to answer from the loop.
impl<F: FnMut(NodeId, Msg, &mut RealCtx)> Node for F {
    fn handle(&mut self, from: NodeId, msg: Msg, ctx: &mut RealCtx) {
        self(from, msg, ctx);
    }
}

/// The deadline-driven loop body shared by `sorrento-node` daemons and
/// `sorrentoctl` sessions: one context, one mesh, one turn at a time.
pub struct Driver {
    /// The node's transport state.
    pub ctx: RealCtx,
    /// The node's connections.
    pub mesh: Mesh,
    /// Outbox flushes that had something to deliver.
    pub flushes: u64,
}

impl Driver {
    /// A loop over `ctx` and `mesh`.
    pub fn new(ctx: RealCtx, mesh: Mesh) -> Driver {
        Driver { ctx, mesh, flushes: 0 }
    }

    /// One turn: fire due timers; if none were due, block on the inbox
    /// until the next timer, `wake_at` (the caller's next housekeeping
    /// deadline) or [`IDLE_BACKSTOP`], whichever is first; then handle
    /// what is queued — at most [`BATCH`] messages — and flush once. The
    /// caller does its housekeeping and checks its stop condition
    /// between turns.
    pub fn turn(&mut self, node: &mut impl Node, wake_at: Option<Instant>) {
        let due = self.ctx.due_timers();
        // A turn that fired timers only polls the inbox: what they did
        // (a finished script, say) is for the caller to see first.
        let mut wait = if due.is_empty() { IDLE_BACKSTOP } else { Duration::ZERO };
        for msg in due {
            node.timer(msg, &mut self.ctx, &mut self.mesh);
        }
        self.flush(node);

        if let Some(at) = self.ctx.next_deadline() {
            wait = wait.min(Duration::from_nanos(at.saturating_sub(self.ctx.now().nanos())));
        }
        if let Some(at) = wake_at {
            wait = wait.min(at.saturating_duration_since(Instant::now()));
        }
        if let Some((from, msg)) = self.mesh.recv_timeout(wait) {
            node.inbound(from, msg, &mut self.ctx, &mut self.mesh);
            for _ in 1..BATCH {
                let Some((from, msg)) = self.mesh.try_recv() else { break };
                node.inbound(from, msg, &mut self.ctx, &mut self.mesh);
            }
        }
        self.flush(node);
    }

    /// Deliver everything queued: sends to this node re-enter the state
    /// machine (which may queue more), the rest go out the mesh, each
    /// recorded as a `msg.send` flight event — a multicast once per
    /// peer, matching what hits the wire.
    fn flush(&mut self, node: &mut impl Node) {
        let me = self.ctx.id();
        let mut outs = self.ctx.drain_outbox();
        if !outs.is_empty() {
            self.flushes += 1;
        }
        while !outs.is_empty() {
            for out in outs {
                match out {
                    Out::Unicast(dst, msg) if dst == me => node.handle(me, msg, &mut self.ctx),
                    Out::Unicast(dst, msg) => {
                        self.ctx.record(TelemetryEvent::MsgSend {
                            span: proto::span_of(&msg),
                            kind: proto::dbg_kind(&msg),
                            to: dst,
                        });
                        self.mesh.send(dst, &msg);
                    }
                    Out::Multicast(msg) => {
                        let (span, kind) = (proto::span_of(&msg), proto::dbg_kind(&msg));
                        for peer in self.mesh.known_peers() {
                            self.ctx.record(TelemetryEvent::MsgSend { span, kind, to: peer });
                        }
                        self.mesh.multicast(&msg);
                    }
                }
            }
            outs = self.ctx.drain_outbox();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sorrento::proto::Tick;

    #[test]
    fn timers_fire_in_order_and_respect_cancellation() {
        let mut ctx = RealCtx::new(NodeId::from_index(0), 1, 1 << 30, HashMap::new());
        let _a = ctx.set_timer(Dur::ZERO, Msg::Tick(Tick::Gc));
        let b = ctx.set_timer(Dur::ZERO, Msg::Tick(Tick::Membership));
        let _c = ctx.set_timer(Dur::ZERO, Msg::Tick(Tick::NextOp));
        ctx.cancel_timer(b);
        std::thread::sleep(std::time::Duration::from_millis(1));
        let due = ctx.due_timers();
        assert_eq!(due.len(), 2);
        assert!(matches!(due[0], Msg::Tick(Tick::Gc)));
        assert!(matches!(due[1], Msg::Tick(Tick::NextOp)));
        // Far-future timer does not fire.
        ctx.set_timer(Dur::minutes(10), Msg::Tick(Tick::Gc));
        assert!(ctx.due_timers().is_empty());
        assert!(ctx.next_deadline().is_some());
    }

    #[test]
    fn next_deadline_skips_cancelled_timers_and_the_store_empties() {
        let mut ctx = RealCtx::new(NodeId::from_index(0), 1, 1 << 30, HashMap::new());
        assert_eq!(ctx.next_deadline(), None);
        // The only timer, cancelled: nothing to wait for.
        let only = ctx.set_timer(Dur::secs(5), Msg::Tick(Tick::Gc));
        ctx.cancel_timer(only);
        assert_eq!(ctx.next_deadline(), None);
        // A cancelled head gives way to the next live timer.
        let head = ctx.set_timer(Dur::secs(1), Msg::Tick(Tick::Gc));
        ctx.set_timer(Dur::secs(2), Msg::Tick(Tick::Membership));
        let live_at = ctx.next_deadline().expect("head is live") + 1_000_000_000;
        ctx.cancel_timer(head);
        let next = ctx.next_deadline().expect("one live timer");
        assert!(next.abs_diff(live_at) < 100_000_000, "{next} vs {live_at}");
        // 10 k stale timers ahead of it change nothing, and leave nothing.
        let stale: Vec<TimerId> =
            (0..10_000).map(|_| ctx.set_timer(Dur::millis(500), Msg::Tick(Tick::NextOp))).collect();
        assert_eq!(ctx.timers.len(), 10_001);
        for id in stale {
            ctx.cancel_timer(id);
        }
        assert_eq!(ctx.next_deadline(), Some(next));
        assert_eq!((ctx.timers.len(), ctx.timer_at.len()), (1, 1));
        // Fired timers are gone too: back to the baseline once due.
        for _ in 0..1_000 {
            ctx.set_timer(Dur::micros(100), Msg::Tick(Tick::NextOp));
        }
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(ctx.due_timers().len(), 1_000);
        assert_eq!((ctx.timers.len(), ctx.timer_at.len()), (1, 1));
    }

    #[test]
    fn sends_accumulate_in_outbox() {
        let mut ctx = RealCtx::new(NodeId::from_index(0), 1, 1 << 30, HashMap::new());
        ctx.send(NodeId::from_index(1), Msg::StatsQuery { req: 1 });
        ctx.multicast(Msg::StatsQuery { req: 2 });
        let out = ctx.drain_outbox();
        assert_eq!(out.len(), 2);
        assert!(ctx.drain_outbox().is_empty());
    }
}
