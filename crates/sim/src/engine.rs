//! The discrete-event engine: event queue, node lifecycle, and the
//! network/disk/CPU charging machinery shared by all nodes.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::disk::{DiskConfig, DiskState};
use crate::net::{NetConfig, Nic};
use crate::node::{Ctx, Node, NodeId, Payload, TimerId};
use crate::telemetry::{EventLog, EventRecord, SpanId};
use crate::time::{Dur, SimTime};
use crate::Metrics;

/// Per-node hardware description.
#[derive(Debug, Clone, Copy)]
pub struct NodeConfig {
    /// NIC parameters (defaults to Fast Ethernet).
    pub net: NetConfig,
    /// Disk parameters (defaults to a 72 GB 10K rpm SCSI drive).
    pub disk: DiskConfig,
    /// Physical machine this daemon runs on. Daemons sharing a machine
    /// (e.g. a Sorrento client co-located with a storage provider, as in
    /// the paper's PSM deployment) exchange messages over loopback:
    /// negligible latency and no NIC charge. `None` gives the node a
    /// machine of its own.
    pub machine: Option<u32>,
    /// Capacity (in records) of this node's telemetry ring buffer
    /// ([`crate::EventLog`]); `0` disables event recording on the node.
    pub event_log_cap: usize,
}

impl Default for NodeConfig {
    fn default() -> NodeConfig {
        NodeConfig {
            net: NetConfig::default(),
            disk: DiskConfig::default(),
            machine: None,
            event_log_cap: EventLog::DEFAULT_CAP,
        }
    }
}

impl NodeConfig {
    /// A node of the paper's *cluster A* (Figure 8): dual P-II 400 MHz,
    /// Fast Ethernet, ~21 GB of exported 7.2–10K rpm SCSI storage.
    pub fn cluster_a() -> NodeConfig {
        NodeConfig {
            net: NetConfig::fast_ethernet(),
            disk: DiskConfig::scsi_10krpm(21_000_000_000),
            ..NodeConfig::default()
        }
    }

    /// A node of the paper's *cluster B* (Figure 8): P-III/Xeon, Fast
    /// Ethernet to the hosts, each exporting a 3-disk software RAID-0 of
    /// 10K rpm SCSI drives (~172 GB, ~3× the single-disk streaming rate).
    pub fn cluster_b() -> NodeConfig {
        let mut disk = DiskConfig::scsi_10krpm(172_000_000_000);
        disk.transfer_rate *= 3.0; // RAID-0 over three spindles
        NodeConfig {
            net: NetConfig::fast_ethernet(),
            disk,
            ..NodeConfig::default()
        }
    }

    /// Override the disk capacity, keeping other disk parameters.
    pub fn with_capacity(mut self, bytes: u64) -> NodeConfig {
        self.disk.capacity = bytes;
        self
    }

    /// Place this daemon on an explicit machine (for co-location).
    pub fn on_machine(mut self, machine: u32) -> NodeConfig {
        self.machine = Some(machine);
        self
    }
}

/// Loopback delivery latency between co-located daemons.
const LOOPBACK_LATENCY: Dur = Dur::nanos(20_000);

pub(crate) struct Slot<M: Payload> {
    node: Option<Box<dyn Node<M>>>,
    alive: bool,
    nic: Nic,
    pub(crate) disk: DiskState,
    cpu_free: SimTime,
    machine: u32,
    pub(crate) events: EventLog,
}

enum Ev<M> {
    Deliver { from: NodeId, dst: NodeId, msg: M },
    Timer { node: NodeId, id: TimerId, msg: M },
    Start(NodeId),
    Crash(NodeId),
    Restart(NodeId),
}

struct Entry<M> {
    at: SimTime,
    seq: u64,
    ev: Ev<M>,
}

impl<M> PartialEq for Entry<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Entry<M> {}
impl<M> PartialOrd for Entry<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Entry<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Engine internals, shared with [`Ctx`] during callbacks.
pub(crate) struct EngineState<M: Payload> {
    pub(crate) now: SimTime,
    pub(crate) slots: Vec<Slot<M>>,
    queue: BinaryHeap<Reverse<Entry<M>>>,
    cancelled: HashSet<u64>,
    next_timer: u64,
    next_seq: u64,
    pub(crate) rng: SmallRng,
    pub(crate) metrics: Metrics,
    /// Seeded wire-loss injection: `(permille, dedicated RNG)`. `None`
    /// (the default) draws nothing, so lossless seeded runs are
    /// byte-identical to builds without the feature. Loopback delivery
    /// (same node or machine) is never lossy.
    loss: Option<(u32, SmallRng)>,
}

impl<M: Payload> EngineState<M> {
    fn push(&mut self, at: SimTime, ev: Ev<M>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Reverse(Entry { at, seq, ev }));
    }

    fn drop_on_wire(&mut self) -> bool {
        match &mut self.loss {
            Some((permille, rng)) => rng.gen_range(0..1000u32) < *permille,
            None => false,
        }
    }

    pub(crate) fn unicast(&mut self, at: SimTime, from: NodeId, dst: NodeId, msg: M) {
        // Co-located daemons (and self-sends) use loopback: no NIC charge.
        if from == dst || self.slots[from.index()].machine == self.slots[dst.index()].machine {
            self.push(at + LOOPBACK_LATENCY, Ev::Deliver { from, dst, msg });
            return;
        }
        let size = msg.wire_size();
        let tx_end = self.slots[from.index()].nic.transmit(at, size);
        if self.drop_on_wire() {
            // The sender still spent its NIC time; the bytes just never
            // arrive.
            return;
        }
        let latency = self.slots[from.index()].nic.config.latency;
        let deliver = self.slots[dst.index()].nic.receive(at, tx_end + latency, size);
        self.push(deliver, Ev::Deliver { from, dst, msg });
    }

    pub(crate) fn multicast(&mut self, at: SimTime, from: NodeId, msg: M) {
        let size = msg.wire_size();
        let tx_end = self.slots[from.index()].nic.transmit(at, size);
        let latency = self.slots[from.index()].nic.config.latency;
        let targets: Vec<NodeId> = (0..self.slots.len())
            .map(NodeId::from_index)
            .filter(|&n| n != from && self.slots[n.index()].alive)
            .collect();
        for dst in targets {
            if self.drop_on_wire() {
                continue;
            }
            let deliver = self.slots[dst.index()]
                .nic
                .receive(at, tx_end + latency, size);
            self.push(
                deliver,
                Ev::Deliver {
                    from,
                    dst,
                    msg: msg.clone(),
                },
            );
        }
    }

    pub(crate) fn set_timer(&mut self, node: NodeId, delay: Dur, msg: M) -> TimerId {
        let id = TimerId(self.next_timer);
        self.next_timer += 1;
        self.push(self.now + delay, Ev::Timer { node, id, msg });
        id
    }

    pub(crate) fn cancel_timer(&mut self, id: TimerId) {
        self.cancelled.insert(id.0);
    }

    pub(crate) fn machine_of(&self, id: NodeId) -> u32 {
        self.slots[id.index()].machine
    }

    pub(crate) fn cpu(&mut self, node: NodeId, service: Dur) -> SimTime {
        let slot = &mut self.slots[node.index()];
        slot.cpu_free = slot.cpu_free.max(self.now) + service;
        slot.cpu_free
    }
}

/// A deterministic discrete-event simulation of one cluster.
pub struct Simulation<M: Payload> {
    state: EngineState<M>,
}

impl<M: Payload> Simulation<M> {
    /// Create an empty simulation driven by `seed`.
    pub fn new(seed: u64) -> Simulation<M> {
        Simulation {
            state: EngineState {
                now: SimTime::ZERO,
                slots: Vec::new(),
                queue: BinaryHeap::new(),
                cancelled: HashSet::new(),
                next_timer: 0,
                next_seq: 0,
                rng: SmallRng::seed_from_u64(seed),
                metrics: Metrics::new(),
                loss: None,
            },
        }
    }

    /// Drop `permille`/1000 of wire messages (unicast and multicast;
    /// never loopback) using a dedicated RNG seeded with `seed`, so the
    /// loss pattern is reproducible and independent of protocol RNG
    /// draws. `permille = 0` restores lossless delivery.
    pub fn set_loss(&mut self, permille: u32, seed: u64) {
        self.state.loss = (permille > 0)
            .then(|| (permille.min(1000), SmallRng::seed_from_u64(seed)));
    }

    /// Add a node that comes online immediately (its
    /// [`Node::on_start`] runs at the current virtual time).
    pub fn add_node<N: Node<M>>(&mut self, node: N, config: NodeConfig) -> NodeId {
        let id = self.add_node_offline(node, config);
        self.state.push(self.state.now, Ev::Start(id));
        self.state.slots[id.index()].alive = true;
        id
    }

    /// Add a node that stays offline until [`Simulation::start_at`] brings
    /// it up (models a machine added to the rack later).
    pub fn add_node_offline<N: Node<M>>(&mut self, node: N, config: NodeConfig) -> NodeId {
        let id = NodeId(self.state.slots.len() as u32);
        // Machines are numbered from a high base when auto-assigned so they
        // cannot collide with explicitly chosen machine ids.
        let machine = config.machine.unwrap_or(1_000_000 + id.0);
        self.state.slots.push(Slot {
            node: Some(Box::new(node)),
            alive: false,
            nic: Nic::new(config.net),
            disk: DiskState::new(config.disk),
            cpu_free: SimTime::ZERO,
            machine,
            events: EventLog::new(config.event_log_cap),
        });
        id
    }

    /// The physical machine a node runs on.
    pub fn machine_of(&self, id: NodeId) -> u32 {
        self.state.slots[id.index()].machine
    }

    /// Bring an offline node online at virtual time `at`.
    pub fn start_at(&mut self, at: SimTime, id: NodeId) {
        self.state.push(at, Ev::Start(id));
    }

    /// Crash node `id` at virtual time `at`: it stops receiving messages
    /// and its volatile state is dropped via [`Node::on_crash`]. Its disk
    /// contents survive.
    pub fn crash_at(&mut self, at: SimTime, id: NodeId) {
        self.state.push(at, Ev::Crash(id));
    }

    /// Restart a crashed node at virtual time `at` (its
    /// [`Node::on_start`] runs again).
    pub fn restart_at(&mut self, at: SimTime, id: NodeId) {
        self.state.push(at, Ev::Restart(id));
    }

    /// Inject a message from "outside the cluster" (the harness), delivered
    /// to `dst` at the current virtual time without NIC charging.
    pub fn inject(&mut self, dst: NodeId, msg: M) {
        let now = self.state.now;
        self.state.push(now, Ev::Deliver { from: dst, dst, msg });
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.state.now
    }

    /// Whether `id` is currently online.
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.state.slots[id.index()].alive
    }

    /// Run-wide metrics (read-only).
    pub fn metrics(&self) -> &Metrics {
        &self.state.metrics
    }

    /// A node's telemetry event log.
    pub fn events(&self, id: NodeId) -> &EventLog {
        &self.state.slots[id.index()].events
    }

    /// All nodes' telemetry events merged into one stream, ordered by
    /// virtual time (ties broken by node id, then recording order —
    /// fully deterministic for a given seed).
    pub fn merged_events(&self) -> Vec<(NodeId, EventRecord)> {
        let mut all: Vec<(NodeId, EventRecord)> = Vec::new();
        for (i, slot) in self.state.slots.iter().enumerate() {
            let id = NodeId::from_index(i);
            all.extend(slot.events.iter().map(|&rec| (id, rec)));
        }
        // Per-node logs are already time-ordered, so a stable sort on
        // time keeps (node, recording-order) as the tie-break.
        all.sort_by_key(|(_, rec)| rec.at);
        all
    }

    /// The merged event stream filtered to one operation's span: the
    /// causal chain of that operation across every node it touched.
    pub fn events_for_span(&self, span: SpanId) -> Vec<(NodeId, EventRecord)> {
        let mut chain = self.merged_events();
        chain.retain(|(_, rec)| rec.ev.span() == Some(span));
        chain
    }

    /// Inspect a node's concrete state (post-run analysis in the
    /// experiment harness and tests).
    pub fn node_ref<N: Node<M>>(&self, id: NodeId) -> Option<&N> {
        let node = self.state.slots[id.index()].node.as_deref()?;
        (node as &dyn Any).downcast_ref::<N>()
    }

    /// Mutable variant of [`Simulation::node_ref`].
    pub fn node_mut<N: Node<M>>(&mut self, id: NodeId) -> Option<&mut N> {
        let node = self.state.slots[id.index()].node.as_deref_mut()?;
        (node as &mut dyn Any).downcast_mut::<N>()
    }

    /// Bytes used on a node's disk (harness-side reporting).
    pub fn disk_used(&self, id: NodeId) -> u64 {
        self.state.slots[id.index()].disk.used()
    }

    /// Disk capacity of a node (harness-side reporting).
    pub fn disk_capacity(&self, id: NodeId) -> u64 {
        self.state.slots[id.index()].disk.capacity()
    }

    /// Process a single event if one is pending. Returns `false` when the
    /// queue is empty.
    pub fn step(&mut self) -> bool {
        let Reverse(entry) = match self.state.queue.pop() {
            Some(e) => e,
            None => return false,
        };
        debug_assert!(entry.at >= self.state.now, "time went backwards");
        self.state.now = entry.at;
        match entry.ev {
            Ev::Deliver { from, dst, msg } => {
                if self.state.slots[dst.index()].alive {
                    self.with_node(dst, |node, ctx| node.on_message(from, msg, ctx));
                } else {
                    self.state.metrics.count("net.dropped_to_dead", 1);
                }
            }
            Ev::Timer { node, id, msg } => {
                if self.state.cancelled.remove(&id.0) {
                    // cancelled before firing
                } else if self.state.slots[node.index()].alive {
                    self.with_node(node, |n, ctx| n.on_message(ctx.id(), msg, ctx));
                }
            }
            Ev::Start(id) => {
                self.state.slots[id.index()].alive = true;
                self.with_node(id, |n, ctx| n.on_start(ctx));
            }
            Ev::Crash(id) => {
                let slot = &mut self.state.slots[id.index()];
                if slot.alive {
                    slot.alive = false;
                    if let Some(n) = slot.node.as_deref_mut() {
                        n.on_crash();
                    }
                }
            }
            Ev::Restart(id) => {
                let slot = &mut self.state.slots[id.index()];
                if !slot.alive {
                    slot.alive = true;
                    self.with_node(id, |n, ctx| n.on_start(ctx));
                }
            }
        }
        true
    }

    /// Run every event up to and including virtual time `until`; the clock
    /// ends at `until` even if the queue drains earlier.
    pub fn run_until(&mut self, until: SimTime) {
        while let Some(Reverse(top)) = self.state.queue.peek() {
            if top.at > until {
                break;
            }
            self.step();
        }
        self.state.now = self.state.now.max(until);
    }

    /// Run for `d` of virtual time from the current clock.
    pub fn run_for(&mut self, d: Dur) {
        let until = self.state.now + d;
        self.run_until(until);
    }

    fn with_node(&mut self, id: NodeId, f: impl FnOnce(&mut dyn Node<M>, &mut Ctx<'_, M>)) {
        let mut node = self.state.slots[id.index()]
            .node
            .take()
            .expect("node re-entered during its own callback");
        let mut ctx = Ctx {
            id,
            engine: &mut self.state,
        };
        f(node.as_mut(), &mut ctx);
        self.state.slots[id.index()].node = Some(node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    enum M {
        Ping(u32),
        Pong(u32),
        Tick,
        Big(u64),
    }

    impl Payload for M {
        fn wire_size(&self) -> u64 {
            match self {
                M::Big(n) => *n,
                _ => 64,
            }
        }
    }

    /// Replies to every Ping with a Pong carrying the same tag.
    struct Echo;
    impl Node<M> for Echo {
        fn on_message(&mut self, from: NodeId, msg: M, ctx: &mut Ctx<'_, M>) {
            if let M::Ping(tag) = msg {
                ctx.send(from, M::Pong(tag));
            }
        }
    }

    /// Sends pings and records replies + reply times.
    struct Pinger {
        peer: NodeId,
        to_send: u32,
        replies: Vec<(u32, SimTime)>,
    }
    impl Node<M> for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
            for tag in 0..self.to_send {
                ctx.send(self.peer, M::Ping(tag));
            }
        }
        fn on_message(&mut self, _from: NodeId, msg: M, ctx: &mut Ctx<'_, M>) {
            if let M::Pong(tag) = msg {
                self.replies.push((tag, ctx.now()));
            }
        }
    }

    fn two_node_sim() -> (Simulation<M>, NodeId, NodeId) {
        let mut sim = Simulation::new(1);
        let echo = sim.add_node(Echo, NodeConfig::default());
        let pinger = sim.add_node(
            Pinger {
                peer: echo,
                to_send: 3,
                replies: Vec::new(),
            },
            NodeConfig::default(),
        );
        (sim, echo, pinger)
    }

    #[test]
    fn request_reply_round_trips() {
        let (mut sim, _echo, pinger) = two_node_sim();
        sim.run_for(Dur::secs(1));
        let p: &Pinger = sim.node_ref(pinger).unwrap();
        let tags: Vec<u32> = p.replies.iter().map(|(t, _)| *t).collect();
        assert_eq!(tags, vec![0, 1, 2]);
        // Each RTT ≥ 2 × latency.
        assert!(p.replies[0].1 >= SimTime::ZERO + Dur::micros(300));
    }

    #[test]
    fn messages_to_dead_nodes_are_dropped() {
        let (mut sim, echo, pinger) = two_node_sim();
        sim.crash_at(SimTime::ZERO, echo);
        sim.run_for(Dur::secs(1));
        let p: &Pinger = sim.node_ref(pinger).unwrap();
        assert!(p.replies.is_empty());
        assert_eq!(sim.metrics().counter("net.dropped_to_dead"), 3);
    }

    #[test]
    fn restart_brings_node_back() {
        let (mut sim, echo, pinger) = two_node_sim();
        sim.crash_at(SimTime::ZERO, echo);
        sim.restart_at(SimTime::ZERO + Dur::millis(500), echo);
        sim.run_for(Dur::secs(1));
        // Initial pings lost; re-ping after restart succeeds.
        sim.inject(pinger, M::Tick); // no-op for Pinger
        assert!(sim.is_alive(echo));
    }

    struct TickCounter {
        fired: u32,
        cancel_second: bool,
    }
    impl Node<M> for TickCounter {
        fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
            ctx.set_timer(Dur::millis(10), M::Tick);
            let second = ctx.set_timer(Dur::millis(20), M::Tick);
            if self.cancel_second {
                ctx.cancel_timer(second);
            }
        }
        fn on_message(&mut self, from: NodeId, msg: M, ctx: &mut Ctx<'_, M>) {
            if from == ctx.id() && msg == M::Tick {
                self.fired += 1;
            }
        }
    }

    #[test]
    fn timers_fire_and_cancel() {
        let mut sim = Simulation::new(7);
        let a = sim.add_node(
            TickCounter {
                fired: 0,
                cancel_second: false,
            },
            NodeConfig::default(),
        );
        let b = sim.add_node(
            TickCounter {
                fired: 0,
                cancel_second: true,
            },
            NodeConfig::default(),
        );
        sim.run_for(Dur::secs(1));
        assert_eq!(sim.node_ref::<TickCounter>(a).unwrap().fired, 2);
        assert_eq!(sim.node_ref::<TickCounter>(b).unwrap().fired, 1);
    }

    struct Mute;
    impl Node<M> for Mute {
        fn on_message(&mut self, _from: NodeId, _msg: M, _ctx: &mut Ctx<'_, M>) {}
    }

    struct Caster {
        n: u64,
    }
    impl Node<M> for Caster {
        fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
            ctx.multicast(M::Big(self.n));
        }
        fn on_message(&mut self, _from: NodeId, _msg: M, _ctx: &mut Ctx<'_, M>) {}
    }

    #[test]
    fn multicast_reaches_all_live_nodes() {
        #[derive(Default)]
        struct Sink {
            got: u32,
        }
        impl Node<M> for Sink {
            fn on_message(&mut self, _from: NodeId, _msg: M, _ctx: &mut Ctx<'_, M>) {
                self.got += 1;
            }
        }
        let mut sim = Simulation::new(3);
        let s1 = sim.add_node(Sink::default(), NodeConfig::default());
        let s2 = sim.add_node(Sink::default(), NodeConfig::default());
        let s3 = sim.add_node(Sink::default(), NodeConfig::default());
        sim.crash_at(SimTime::ZERO, s3);
        sim.run_until(SimTime::ZERO + Dur::millis(1));
        sim.add_node(Caster { n: 100 }, NodeConfig::default());
        sim.run_for(Dur::secs(1));
        assert_eq!(sim.node_ref::<Sink>(s1).unwrap().got, 1);
        assert_eq!(sim.node_ref::<Sink>(s2).unwrap().got, 1);
        assert_eq!(sim.node_ref::<Sink>(s3).unwrap().got, 0);
    }

    #[test]
    fn large_transfers_respect_bandwidth() {
        // 12.5 MB over Fast Ethernet takes ~1 s one way.
        let mut sim = Simulation::new(9);
        let sink = sim.add_node(Mute, NodeConfig::default());
        struct Sender {
            dst: NodeId,
        }
        impl Node<M> for Sender {
            fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
                ctx.send(self.dst, M::Big(12_500_000));
            }
            fn on_message(&mut self, _f: NodeId, _m: M, _c: &mut Ctx<'_, M>) {}
        }
        sim.add_node(Sender { dst: sink }, NodeConfig::default());
        // After 0.9 s the delivery has not happened yet; after 1.1 s it has.
        sim.run_until(SimTime::ZERO + Dur::millis(900));
        assert_eq!(sim.metrics().counter("net.dropped_to_dead"), 0);
        sim.crash_at(sim.now(), sink);
        sim.run_for(Dur::millis(300));
        assert_eq!(sim.metrics().counter("net.dropped_to_dead"), 1);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed| {
            let (mut sim, _e, p) = {
                let mut sim = Simulation::new(seed);
                let echo = sim.add_node(Echo, NodeConfig::default());
                let pinger = sim.add_node(
                    Pinger {
                        peer: echo,
                        to_send: 10,
                        replies: Vec::new(),
                    },
                    NodeConfig::default(),
                );
                (sim, echo, pinger)
            };
            sim.run_for(Dur::secs(2));
            sim.node_ref::<Pinger>(p).unwrap().replies.clone()
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn clock_advances_to_run_until_target() {
        let mut sim: Simulation<M> = Simulation::new(0);
        sim.run_until(SimTime::ZERO + Dur::secs(5));
        assert_eq!(sim.now(), SimTime::ZERO + Dur::secs(5));
    }

    #[test]
    fn hardware_presets_match_figure8() {
        let a = NodeConfig::cluster_a();
        let b = NodeConfig::cluster_b();
        assert_eq!(a.net.bandwidth, 12.5e6); // Fast Ethernet everywhere
        assert_eq!(b.net.bandwidth, 12.5e6);
        assert!(b.disk.capacity > a.disk.capacity);
        assert!(b.disk.transfer_rate > a.disk.transfer_rate); // RAID-0
    }

    #[test]
    fn loopback_skips_the_nic() {
        // Two co-located daemons exchange a huge message instantly; the
        // same transfer between machines takes ~1 s of NIC time.
        struct Recv {
            at: Option<SimTime>,
        }
        impl Node<M> for Recv {
            fn on_message(&mut self, _f: NodeId, _m: M, ctx: &mut Ctx<'_, M>) {
                self.at = Some(ctx.now());
            }
        }
        struct Send {
            dst: NodeId,
        }
        impl Node<M> for Send {
            fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
                ctx.send(self.dst, M::Big(12_500_000));
            }
            fn on_message(&mut self, _f: NodeId, _m: M, _c: &mut Ctx<'_, M>) {}
        }
        let mut sim = Simulation::new(1);
        let local_rx = sim.add_node(Recv { at: None }, NodeConfig::default().on_machine(7));
        sim.add_node(Send { dst: local_rx }, NodeConfig::default().on_machine(7));
        let remote_rx = sim.add_node(Recv { at: None }, NodeConfig::default().on_machine(8));
        sim.add_node(Send { dst: remote_rx }, NodeConfig::default().on_machine(9));
        sim.run_for(Dur::secs(5));
        let local = sim.node_ref::<Recv>(local_rx).unwrap().at.unwrap();
        let remote = sim.node_ref::<Recv>(remote_rx).unwrap().at.unwrap();
        assert!(local < SimTime::ZERO + Dur::millis(1), "loopback {local:?}");
        assert!(remote >= SimTime::ZERO + Dur::secs(1), "wire {remote:?}");
    }

    #[test]
    fn cpu_queue_serializes() {
        struct Busy {
            completions: Vec<SimTime>,
        }
        impl Node<M> for Busy {
            fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
                let a = ctx.cpu(Dur::millis(10));
                let b = ctx.cpu(Dur::millis(10));
                self.completions = vec![a, b];
            }
            fn on_message(&mut self, _f: NodeId, _m: M, _c: &mut Ctx<'_, M>) {}
        }
        let mut sim = Simulation::new(0);
        let id = sim.add_node(
            Busy {
                completions: vec![],
            },
            NodeConfig::default(),
        );
        sim.run_for(Dur::secs(1));
        let b: &Busy = sim.node_ref(id).unwrap();
        assert_eq!(b.completions[0], SimTime::ZERO + Dur::millis(10));
        assert_eq!(b.completions[1], SimTime::ZERO + Dur::millis(20));
    }
}
