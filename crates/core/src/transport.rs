//! The transport abstraction shared by the simulator and the real
//! runtime.
//!
//! Every Sorrento state machine (storage provider, namespace server,
//! client) is written against [`Transport`] instead of the simulator's
//! concrete [`Ctx`] handle. The trait mirrors the `Ctx` surface
//! exactly, so:
//!
//! * In the simulator, `Ctx<'_, M>` implements `Transport<M>` by plain
//!   delegation — the generic protocol code monomorphizes to the same
//!   calls it made before the trait existed, and seeded event streams
//!   stay bit-for-bit identical.
//! * In the real-process runtime (`sorrento-net`), a wall-clock context
//!   implements the same trait over TCP sockets, OS timers and a real
//!   metrics registry, and the *same* protocol code runs unchanged.
//!
//! Time is `SimTime` in both worlds: a plain nanosecond counter. The
//! simulator advances it through the event queue; the real runtime
//! feeds it nanoseconds elapsed since daemon start, so soft-state types
//! keyed on `SimTime` (membership views, location tables, shadow TTLs)
//! work identically.

use rand::rngs::SmallRng;
use sorrento_sim::{Ctx, DiskAccess, DiskState, Dur, Metrics, NodeId, Payload, SimTime, TelemetryEvent, TimerId};

use crate::proto::Msg;

/// The environment a Sorrento state machine runs in: identity, clock,
/// message delivery, timers, local disk, RNG, metrics and telemetry.
///
/// Defaults to the Sorrento wire protocol ([`Msg`]); the parameter
/// exists so the trait stays usable for auxiliary machines with their
/// own message enums.
pub trait Transport<M: Payload = Msg> {
    /// This node's id.
    fn id(&self) -> NodeId;

    /// Current time (virtual in the simulator, monotonic nanoseconds
    /// since start in the real runtime).
    fn now(&self) -> SimTime;

    /// Send `msg` to `dst` now. Delivery is best-effort: a dead or
    /// unreachable destination drops the message silently, and the
    /// sender learns about it only through its own timeouts.
    fn send(&mut self, dst: NodeId, msg: M);

    /// Send `msg` to `dst`, handing it to the network at `at` (≥ now).
    /// Used to emit a reply after a modeled CPU or disk completion; the
    /// real runtime sends immediately (the work already took real time).
    fn send_at(&mut self, at: SimTime, dst: NodeId, msg: M);

    /// Deliver `msg` to every known live peer except this node
    /// (Ethernet multicast in the simulator, peer-list fan-out in the
    /// real runtime).
    fn multicast(&mut self, msg: M);

    /// Deliver `msg` back to this node after `delay`.
    fn set_timer(&mut self, delay: Dur, msg: M) -> TimerId;

    /// Cancel a pending timer (no-op if already fired).
    fn cancel_timer(&mut self, id: TimerId);

    /// Charge `service` of CPU time; returns the completion instant
    /// (pass to [`Transport::send_at`]). The real runtime returns `now`.
    fn cpu(&mut self, service: Dur) -> SimTime;

    /// Submit a disk request; returns its completion time.
    fn disk_submit(&mut self, bytes: u64, access: DiskAccess) -> SimTime;

    /// This node's disk state (capacity accounting, load sampling).
    fn disk(&mut self) -> &mut DiskState;

    /// The physical machine `id` runs on (infrastructure knowledge,
    /// like an IP address; drives locality placement).
    fn machine_of(&self, id: NodeId) -> u32;

    /// The deterministic RNG (seeded per run in the simulator, per
    /// process in the real runtime).
    fn rng(&mut self) -> &mut SmallRng;

    /// The metrics sink.
    fn metrics(&mut self) -> &mut Metrics;

    /// Record a telemetry event into this node's bounded event log.
    fn record(&mut self, ev: TelemetryEvent);
}

impl<M: Payload> Transport<M> for Ctx<'_, M> {
    fn id(&self) -> NodeId {
        Ctx::id(self)
    }
    fn now(&self) -> SimTime {
        Ctx::now(self)
    }
    fn send(&mut self, dst: NodeId, msg: M) {
        Ctx::send(self, dst, msg)
    }
    fn send_at(&mut self, at: SimTime, dst: NodeId, msg: M) {
        Ctx::send_at(self, at, dst, msg)
    }
    fn multicast(&mut self, msg: M) {
        Ctx::multicast(self, msg)
    }
    fn set_timer(&mut self, delay: Dur, msg: M) -> TimerId {
        Ctx::set_timer(self, delay, msg)
    }
    fn cancel_timer(&mut self, id: TimerId) {
        Ctx::cancel_timer(self, id)
    }
    fn cpu(&mut self, service: Dur) -> SimTime {
        Ctx::cpu(self, service)
    }
    fn disk_submit(&mut self, bytes: u64, access: DiskAccess) -> SimTime {
        Ctx::disk_submit(self, bytes, access)
    }
    fn disk(&mut self) -> &mut DiskState {
        Ctx::disk(self)
    }
    fn machine_of(&self, id: NodeId) -> u32 {
        Ctx::machine_of(self, id)
    }
    fn rng(&mut self) -> &mut SmallRng {
        Ctx::rng(self)
    }
    fn metrics(&mut self) -> &mut Metrics {
        Ctx::metrics(self)
    }
    fn record(&mut self, ev: TelemetryEvent) {
        Ctx::record(self, ev)
    }
}

/// A [`Transport`] that delivers nothing and records everything a state
/// machine emits, in order: what role unit tests assert on.
#[cfg(test)]
pub(crate) mod recording {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use sorrento_sim::{
        DiskAccess, DiskConfig, DiskState, Dur, Metrics, NodeId, SimTime, TelemetryEvent, TimerId,
    };

    use super::Transport;
    use crate::proto::Msg;

    /// One emission. Tests that compare whole logs read every field
    /// through `Debug`.
    #[allow(dead_code)]
    #[derive(Debug)]
    pub(crate) enum Out {
        /// `send` or `send_at` (the instant is not kept: the recorder's
        /// CPU and disk finish at once).
        Send(NodeId, Msg),
        Multicast(Msg),
        Timer(Dur, Msg),
        Record(TelemetryEvent),
    }

    /// The recorder: node `me` at time `now`, every node on its own
    /// machine, a fixed RNG seed.
    pub(crate) struct Recorder {
        me: NodeId,
        pub(crate) now: SimTime,
        pub(crate) out: Vec<Out>,
        disk: DiskState,
        rng: SmallRng,
        metrics: Metrics,
        timers: u64,
    }

    impl Recorder {
        pub(crate) fn new(me: NodeId) -> Recorder {
            Recorder {
                me,
                now: SimTime::ZERO,
                out: Vec::new(),
                disk: DiskState::new(DiskConfig::scsi_10krpm(1 << 30)),
                rng: SmallRng::seed_from_u64(7),
                metrics: Metrics::new(),
                timers: 0,
            }
        }

        /// Take what was emitted so far.
        pub(crate) fn drain(&mut self) -> Vec<Out> {
            std::mem::take(&mut self.out)
        }

        /// The unicasts emitted so far, taken.
        pub(crate) fn sends(&mut self) -> Vec<(NodeId, Msg)> {
            let (sends, rest) = self.drain().into_iter().partition(|o| matches!(o, Out::Send(..)));
            self.out = rest;
            sends
                .into_iter()
                .map(|o| match o {
                    Out::Send(to, msg) => (to, msg),
                    _ => unreachable!("partitioned"),
                })
                .collect()
        }
    }

    impl Transport for Recorder {
        fn id(&self) -> NodeId {
            self.me
        }
        fn now(&self) -> SimTime {
            self.now
        }
        fn send(&mut self, dst: NodeId, msg: Msg) {
            self.out.push(Out::Send(dst, msg));
        }
        fn send_at(&mut self, _at: SimTime, dst: NodeId, msg: Msg) {
            self.out.push(Out::Send(dst, msg));
        }
        fn multicast(&mut self, msg: Msg) {
            self.out.push(Out::Multicast(msg));
        }
        fn set_timer(&mut self, delay: Dur, msg: Msg) -> TimerId {
            self.out.push(Out::Timer(delay, msg));
            self.timers += 1;
            TimerId::from_raw(self.timers)
        }
        fn cancel_timer(&mut self, _id: TimerId) {}
        fn cpu(&mut self, _service: Dur) -> SimTime {
            self.now
        }
        fn disk_submit(&mut self, _bytes: u64, _access: DiskAccess) -> SimTime {
            self.now
        }
        fn disk(&mut self) -> &mut DiskState {
            &mut self.disk
        }
        fn machine_of(&self, id: NodeId) -> u32 {
            id.index() as u32
        }
        fn rng(&mut self) -> &mut SmallRng {
            &mut self.rng
        }
        fn metrics(&mut self) -> &mut Metrics {
            &mut self.metrics
        }
        fn record(&mut self, ev: TelemetryEvent) {
            self.out.push(Out::Record(ev));
        }
    }
}
