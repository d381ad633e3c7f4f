//! The membership role: which providers are live (§3.3), and the
//! consistent-hashing ring over them that names every segment's home
//! host (§3.4).
//!
//! A provider runs it in *push* form: it announces itself — by
//! multicast heartbeat, or through the SWIM detector in
//! [`MembershipMode::Swim`] — and turns what it hears into
//! [`MembershipEvent`]s for the home host. A client runs it in *pull*
//! form: it only listens to heartbeats, or pulls digests from the
//! gossiping providers round-robin, and never announces anything.

use sorrento_sim::{Dur, NodeId, SimTime, TelemetryEvent};

use crate::costs::CostModel;
use crate::membership::{Heartbeat, MembershipEvent, MembershipView};
use crate::proto::{Msg, ReqId, Tick};
use crate::ring::HashRing;
use crate::swim::{MembershipMode, SwimDetector, SwimEvent, SwimState, SwimUpdate};
use crate::transport::Transport;
use crate::types::SegId;

/// One node's membership: the live view, the ring built from it, and
/// the mechanism that keeps the view current.
pub(crate) struct Membership {
    costs: CostModel,
    /// How liveness is tracked. Fixed at construction; seeded sims stay
    /// byte-identical because no SWIM timer is armed in heartbeat mode.
    mode: MembershipMode,
    /// The peers assumed alive at boot in [`MembershipMode::Swim`]: the
    /// detector's bootstrap set (push form) or the digest sources (pull
    /// form).
    seeds: Vec<NodeId>,
    view: MembershipView,
    ring: HashRing,
    /// The ring lags `view` after joins; rebuilt lazily at first use so
    /// a join storm (SWIM convergence at scale) costs one rebuild, not
    /// one per member.
    ring_dirty: bool,
    /// The SWIM detector: present only in push form in
    /// [`MembershipMode::Swim`], once started.
    swim: Option<SwimDetector>,
    /// Heartbeat sequence (telemetry only).
    hb_seq: u64,
    /// Pull form: the next seed to pull a digest from, and the last
    /// request id used.
    pull_next: usize,
    pull_req: ReqId,
}

impl Membership {
    pub(crate) fn new(costs: CostModel, mode: MembershipMode, seeds: Vec<NodeId>) -> Membership {
        Membership {
            costs,
            mode,
            seeds,
            view: MembershipView::new(),
            ring: HashRing::default(),
            ring_dirty: false,
            swim: None,
            hb_seq: 0,
            pull_next: 0,
            pull_req: 0,
        }
    }

    /// The same membership after a crash: configuration kept, everything
    /// learned forgotten.
    pub(crate) fn restarted(&self) -> Membership {
        Membership::new(self.costs, self.mode, self.seeds.clone())
    }

    pub(crate) fn mode(&self) -> MembershipMode {
        self.mode
    }

    pub(crate) fn view(&self) -> &MembershipView {
        &self.view
    }

    /// The placement ring, rebuilt first if a join made it stale.
    fn ring(&mut self) -> &HashRing {
        if self.ring_dirty {
            self.ring = HashRing::build(self.view.live());
            self.ring_dirty = false;
        }
        &self.ring
    }

    /// `seg`'s home host.
    pub(crate) fn home(&mut self, seg: SegId) -> Option<NodeId> {
        self.ring().home(seg)
    }

    /// A heartbeat (or gossiped payload) from `from`. A join only marks
    /// the ring stale.
    pub(crate) fn observe(
        &mut self,
        from: NodeId,
        hb: Heartbeat,
        now: SimTime,
    ) -> Option<MembershipEvent> {
        let joined = self.view.observe(from, hb, now);
        self.ring_dirty |= joined.is_some();
        joined
    }

    /// Drop `node` from the view, the ring with it at its next use
    /// (pull form: a client that timed out on `node`).
    pub(crate) fn remove(&mut self, node: NodeId) {
        self.ring_dirty |= self.view.remove(node);
    }

    /// A departure the push form reacts to: rebuild the ring now, and
    /// return the ring it replaces (brought up to date first if a join
    /// had left it stale).
    pub(crate) fn reshape(&mut self) -> HashRing {
        self.ring();
        std::mem::replace(&mut self.ring, HashRing::build(self.view.live()))
    }

    // ---- push form (providers) ----

    /// Announce this node and arm the mechanism's timers.
    pub(crate) fn start(&mut self, ctx: &mut impl Transport, hb: Heartbeat) {
        self.view.observe(ctx.id(), hb, ctx.now());
        self.ring = HashRing::build(self.view.live());
        self.ring_dirty = false;
        match self.mode {
            MembershipMode::Heartbeat => {
                self.announce(ctx, hb);
                ctx.set_timer(self.costs.heartbeat_interval, Msg::Tick(Tick::Heartbeat));
            }
            MembershipMode::Swim => {
                let mut swim =
                    SwimDetector::new(ctx.id(), self.seeds.iter().copied(), self.costs.swim());
                swim.set_self_payload(hb);
                swim.start(ctx);
                self.swim = Some(swim);
                // Heartbeat-mode gauges ride the heartbeat tick; gossip
                // mode keeps them on a dedicated timer so observability
                // does not die with the multicast.
                ctx.set_timer(self.costs.heartbeat_interval, Msg::Tick(Tick::GaugeExport));
            }
        }
    }

    fn announce(&mut self, ctx: &mut impl Transport, hb: Heartbeat) {
        self.hb_seq += 1;
        ctx.record(TelemetryEvent::HeartbeatSend { seq: self.hb_seq });
        ctx.multicast(Msg::Heartbeat(hb));
    }

    /// The heartbeat tick: announce, note peers going silent, and return
    /// the ones past the death deadline.
    pub(crate) fn on_heartbeat_tick(
        &mut self,
        ctx: &mut impl Transport,
        hb: Heartbeat,
    ) -> Vec<MembershipEvent> {
        let now = ctx.now();
        self.view.observe(ctx.id(), hb, now);
        self.announce(ctx, hb);
        // Surface providers that are going silent *before* the death
        // deadline: failure-detection latency is visible in the event
        // stream, not just its outcome.
        let interval = self.costs.heartbeat_interval.as_nanos().max(1);
        let me = ctx.id();
        let misses: Vec<(NodeId, u32)> = self
            .view
            .entries()
            .filter(|&(id, _)| id != me)
            .filter_map(|(id, info)| {
                let missed = (now.since(info.last_seen).as_nanos() / interval) as u32;
                (missed >= 2).then_some((id, missed))
            })
            .collect();
        for (of, missed) in misses {
            ctx.record(TelemetryEvent::HeartbeatMiss { of, missed });
        }
        self.view.expire(now, self.costs.heartbeat_interval)
    }

    /// Whether the SWIM detector runs (push form in gossip mode).
    pub(crate) fn gossiping(&self) -> bool {
        self.swim.is_some()
    }

    /// One SWIM probe round, carrying this node's fresh payload.
    pub(crate) fn on_probe_tick(&mut self, ctx: &mut impl Transport, hb: Heartbeat) {
        let Some(swim) = self.swim.as_mut() else { return };
        swim.set_self_payload(hb);
        self.view.observe(ctx.id(), hb, ctx.now());
        swim.on_probe_tick(ctx);
    }

    /// A SWIM message or timer other than the probe tick. Returns what
    /// the detector learned, for [`Membership::fold`].
    pub(crate) fn on_swim(
        &mut self,
        from: NodeId,
        msg: Msg,
        ctx: &mut impl Transport,
    ) -> Vec<SwimEvent> {
        let Some(swim) = self.swim.as_mut() else { return Vec::new() };
        match msg {
            Msg::Tick(Tick::SwimProbeTimeout(seq)) => swim.on_probe_timeout(seq, ctx),
            Msg::Tick(Tick::SwimSuspectTimeout(node, incarnation)) => {
                swim.on_suspect_timeout(node, incarnation, ctx)
            }
            Msg::SwimPing { seq, origin, updates } => {
                swim.on_ping(from, seq, origin, &updates, ctx)
            }
            Msg::SwimAck { seq, origin, updates } => swim.on_ack(seq, origin, &updates, ctx),
            Msg::SwimPingReq { seq, target, origin, updates } => {
                swim.on_ping_req(seq, target, origin, &updates, ctx)
            }
            Msg::MembersDigest { updates, .. } => swim.on_digest(&updates, ctx),
            Msg::Tick(Tick::SwimAckTimeout(seq)) => {
                swim.on_ack_timeout(seq, ctx);
                Vec::new()
            }
            Msg::Tick(Tick::SwimSync) => {
                swim.on_sync_tick(ctx);
                Vec::new()
            }
            Msg::MembersPull { req } => {
                swim.on_members_pull(from, req, ctx);
                Vec::new()
            }
            _ => Vec::new(),
        }
    }

    /// Fold one thing the SWIM detector learned into the view, so every
    /// downstream consumer (ring, placement, repair, migration) sees
    /// exactly the events the heartbeat path would have produced.
    pub(crate) fn fold(
        &mut self,
        ctx: &mut impl Transport,
        ev: SwimEvent,
    ) -> Option<MembershipEvent> {
        match ev {
            SwimEvent::Alive { node, payload } => self.observe(node, payload, ctx.now()),
            SwimEvent::Suspect { node, incarnation } => {
                ctx.record(TelemetryEvent::SwimSuspect { of: node, incarnation });
                None
            }
            SwimEvent::Refuted { incarnation } => {
                ctx.record(TelemetryEvent::SwimRefute { incarnation });
                None
            }
            SwimEvent::Dead { node } => {
                self.view.remove(node).then_some(MembershipEvent::Departed(node))
            }
        }
    }

    /// The `sorrentoctl members` report: the SWIM table (with states and
    /// incarnations) in gossip mode, the heartbeat view otherwise.
    pub(crate) fn members_json(&self, me: NodeId) -> String {
        use sorrento_json::Json;
        let rows: Vec<(NodeId, SwimState, Option<u64>, Option<Heartbeat>)> = match &self.swim {
            Some(swim) => swim
                .snapshot()
                .into_iter()
                .map(|u| (u.node, u.state, Some(u.incarnation), u.payload))
                .collect(),
            None => self
                .view
                .entries()
                .map(|(id, i)| (id, SwimState::Alive, None, Some(i.heartbeat)))
                .collect(),
        };
        let mut members = Json::arr();
        for (node, state, incarnation, payload) in rows {
            let mut m = Json::obj()
                .with("node", node.index())
                .with("state", format!("{state:?}").to_lowercase());
            if let Some(incarnation) = incarnation {
                m = m.with("incarnation", incarnation);
            }
            if let Some(hb) = payload {
                m = m
                    .with("load", hb.load)
                    .with("available", hb.available)
                    .with("capacity", hb.capacity);
            }
            members.push(m);
        }
        Json::obj()
            .with("node", me.index())
            .with("mode", if self.swim.is_some() { "swim" } else { "heartbeat" })
            .with("live", self.view.len())
            .with("members", members)
            .encode()
    }

    // ---- pull form (clients) ----

    /// The pull form's messages and timers; `false` for anything else.
    pub(crate) fn on_pull(&mut self, from: NodeId, msg: &Msg, ctx: &mut impl Transport) -> bool {
        let every: Dur = self.costs.heartbeat_interval;
        match msg {
            Msg::Heartbeat(hb) => {
                self.observe(from, *hb, ctx.now());
            }
            Msg::Tick(Tick::Membership) => {
                self.ring_dirty |= !self.view.expire(ctx.now(), every).is_empty();
                ctx.set_timer(every, Msg::Tick(Tick::Membership));
            }
            Msg::Tick(Tick::MembersRefresh) => {
                // Pull a digest from the next seed (skipping none — dead
                // ones simply don't answer and the next round moves on).
                if !self.seeds.is_empty() {
                    let peer = self.seeds[self.pull_next % self.seeds.len()];
                    self.pull_next += 1;
                    self.pull_req += 1;
                    ctx.send(peer, Msg::MembersPull { req: self.pull_req });
                }
                ctx.set_timer(every, Msg::Tick(Tick::MembersRefresh));
            }
            Msg::MembersDigest { updates, .. } => self.fold_digest(ctx.now(), updates),
            _ => return false,
        }
        true
    }

    /// Fold a gossiper's table into the view: alive members with
    /// payloads refresh it, dead ones leave it. Suspects stay (they may
    /// yet refute). Kept apart from [`Membership::fold`]: a digest is a
    /// whole table to copy, not a stream of detector events to react to.
    fn fold_digest(&mut self, now: SimTime, updates: &[SwimUpdate]) {
        for u in updates {
            match (u.state, u.payload) {
                (SwimState::Dead, _) => self.remove(u.node),
                (_, Some(hb)) => {
                    self.observe(u.node, hb, now);
                }
                (_, None) => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_join_leaves_the_ring_stale_until_its_first_use() {
        let n = NodeId::from_index;
        let hb = Heartbeat { load: 0.0, available: 1, capacity: 1, machine: 0, rack: 0 };
        let mut m = Membership::new(CostModel::fast_test(), MembershipMode::Heartbeat, Vec::new());
        assert_eq!(m.observe(n(1), hb, SimTime::ZERO), Some(MembershipEvent::Joined(n(1))));
        assert!(m.ring_dirty && m.ring.is_empty());
        assert_eq!(m.home(SegId(3)), Some(n(1)));
        assert!(!m.ring_dirty);
        assert_eq!(m.observe(n(1), hb, SimTime::ZERO), None);
        assert!(!m.ring_dirty, "a heartbeat from a known member is no join");
        // A departure in the push form rebuilds at once and hands back
        // the ring it replaces; the pull form's waits for its next use.
        m.view.remove(n(1));
        assert_eq!(m.reshape().provider_count(), 1);
        assert!(m.ring.is_empty());
        m.observe(n(2), hb, SimTime::ZERO);
        m.remove(n(2));
        assert!(m.ring_dirty);
        assert_eq!(m.home(SegId(3)), None);
    }
}
