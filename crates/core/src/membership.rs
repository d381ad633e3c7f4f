//! Membership management and load monitoring (§3.3).
//!
//! Every node runs a membership manager that maintains the set of live
//! storage providers as *soft state*: providers announce themselves with
//! periodic heartbeats on a multicast channel, carrying their load and
//! storage availability; a provider missing [`HEARTBEAT_MISSES`]
//! consecutive announcement intervals is removed from the live set.

use std::collections::BTreeMap;

use sorrento_sim::{Dur, NodeId, SimTime};

/// "If a process fails to receive heartbeat packets from a provider for a
/// prolonged period (five times the heartbeat announcement interval), the
/// membership manager will remove that provider from its membership set."
pub const HEARTBEAT_MISSES: u32 = 5;

/// The payload of one heartbeat announcement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Heartbeat {
    /// CPU + I/O-wait load `l ∈ [0, 1]` (EWMA-smoothed by the sender).
    pub load: f64,
    /// Bytes of storage still available.
    pub available: u64,
    /// Total storage capacity in bytes.
    pub capacity: u64,
    /// Physical machine hosting the provider (for locality placement).
    pub machine: u32,
    /// Rack the machine sits in (for failure-domain-aware replica
    /// placement, the paper's planned GoogleFS-style extension, §3.7.2).
    pub rack: u32,
}

/// What the membership manager knows about one live provider.
#[derive(Debug, Clone, Copy)]
pub struct ProviderInfo {
    /// Latest heartbeat payload.
    pub heartbeat: Heartbeat,
    /// When the latest heartbeat arrived.
    pub last_seen: SimTime,
    /// When this provider last joined the view.
    pub since: SimTime,
}

/// Membership change reported by [`MembershipView::expire`] /
/// [`MembershipView::observe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MembershipEvent {
    /// A provider not previously in the live set announced itself.
    Joined(NodeId),
    /// A provider stopped announcing and was dropped.
    Departed(NodeId),
}

/// The soft-state set of live providers, as seen from one node.
#[derive(Debug, Default)]
pub struct MembershipView {
    providers: BTreeMap<NodeId, ProviderInfo>,
}

impl MembershipView {
    /// Empty view.
    pub fn new() -> MembershipView {
        MembershipView::default()
    }

    /// Record a heartbeat; returns `Some(Joined)` if this provider was
    /// not previously live.
    pub fn observe(
        &mut self,
        from: NodeId,
        hb: Heartbeat,
        now: SimTime,
    ) -> Option<MembershipEvent> {
        let known = self.providers.get(&from).map(|info| info.since);
        self.providers.insert(
            from,
            ProviderInfo {
                heartbeat: hb,
                last_seen: now,
                since: known.unwrap_or(now),
            },
        );
        known.is_none().then_some(MembershipEvent::Joined(from))
    }

    /// Drop providers whose last heartbeat is older than
    /// `HEARTBEAT_MISSES × interval`; returns the departures.
    pub fn expire(&mut self, now: SimTime, interval: Dur) -> Vec<MembershipEvent> {
        let deadline = interval * HEARTBEAT_MISSES as u64;
        let dead: Vec<NodeId> = self
            .providers
            .iter()
            .filter(|(_, info)| now.since(info.last_seen) > deadline)
            .map(|(&id, _)| id)
            .collect();
        for id in &dead {
            self.providers.remove(id);
        }
        dead.into_iter().map(MembershipEvent::Departed).collect()
    }

    /// Forcibly remove a provider (e.g. after a hard send failure).
    pub fn remove(&mut self, id: NodeId) -> bool {
        self.providers.remove(&id).is_some()
    }

    /// The live providers in id order.
    pub fn live(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.providers.keys().copied()
    }

    /// Live providers with their latest info.
    pub fn entries(&self) -> impl Iterator<Item = (NodeId, &ProviderInfo)> + '_ {
        self.providers.iter().map(|(&id, info)| (id, info))
    }

    /// Info for one provider.
    pub fn info(&self, id: NodeId) -> Option<&ProviderInfo> {
        self.providers.get(&id)
    }

    /// Whether the provider is currently considered live.
    pub fn is_live(&self, id: NodeId) -> bool {
        self.providers.contains_key(&id)
    }

    /// Number of live providers.
    pub fn len(&self) -> usize {
        self.providers.len()
    }

    /// Whether no providers are known.
    pub fn is_empty(&self) -> bool {
        self.providers.is_empty()
    }

    /// The provider co-located with `machine`, if any.
    pub fn provider_on_machine(&self, machine: u32) -> Option<NodeId> {
        self.providers
            .iter()
            .find(|(_, info)| info.heartbeat.machine == machine)
            .map(|(&id, _)| id)
    }

    /// Cluster-wide load statistics `(mean, std_dev)` over live
    /// providers' reported loads — the inputs to the ±3σ migration
    /// trigger (§3.7.1).
    pub fn load_stats(&self) -> (f64, f64) {
        stats(self.providers.values().map(|p| p.heartbeat.load))
    }

    /// Cluster-wide storage-utilization statistics `(mean, std_dev)`.
    pub fn storage_stats(&self) -> (f64, f64) {
        stats(self.providers.values().map(|p| {
            let hb = p.heartbeat;
            if hb.capacity == 0 {
                0.0
            } else {
                1.0 - hb.available as f64 / hb.capacity as f64
            }
        }))
    }

    /// Rank of `value` among live providers under `key` (0 = highest).
    /// Used for the "among the highest 10%" migration condition.
    pub fn rank_descending(&self, value: f64, key: impl Fn(&Heartbeat) -> f64) -> usize {
        self.providers
            .values()
            .filter(|p| key(&p.heartbeat) > value)
            .count()
    }
}

fn stats(values: impl Iterator<Item = f64>) -> (f64, f64) {
    let v: Vec<f64> = values.collect();
    if v.is_empty() {
        return (0.0, 0.0);
    }
    let mean = v.iter().sum::<f64>() / v.len() as f64;
    let var = v.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / v.len() as f64;
    (mean, var.sqrt())
}

/// Exponentially weighted moving average, used to smooth a provider's
/// I/O-wait load (§3.7.1: "we measure a provider's I/O load using the
/// EWMA of the I/O wait percentage").
#[derive(Debug, Clone, Copy)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Smoothing factor `alpha ∈ (0, 1]`: weight of each new sample.
    pub fn new(alpha: f64) -> Ewma {
        assert!(alpha > 0.0 && alpha <= 1.0);
        Ewma { alpha, value: None }
    }

    /// Fold in a sample and return the new average.
    pub fn update(&mut self, sample: f64) -> f64 {
        let next = match self.value {
            None => sample,
            Some(v) => v + self.alpha * (sample - v),
        };
        self.value = Some(next);
        next
    }

    /// Current average (0 before any sample).
    pub fn get(&self) -> f64 {
        self.value.unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hb(load: f64, available: u64) -> Heartbeat {
        Heartbeat {
            load,
            available,
            capacity: 100,
            machine: 0,
            rack: 0,
        }
    }

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + Dur::secs(s)
    }

    fn node(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn join_is_reported_once() {
        let mut view = MembershipView::new();
        assert_eq!(
            view.observe(node(1), hb(0.5, 50), t(0)),
            Some(MembershipEvent::Joined(node(1)))
        );
        assert_eq!(view.observe(node(1), hb(0.6, 40), t(1)), None);
        assert_eq!(view.len(), 1);
        assert!((view.info(node(1)).unwrap().heartbeat.load - 0.6).abs() < 1e-12);
    }

    #[test]
    fn since_is_the_latest_join() {
        let mut view = MembershipView::new();
        view.observe(node(1), hb(0.5, 50), t(2));
        view.observe(node(1), hb(0.5, 50), t(5));
        let info = view.info(node(1)).unwrap();
        assert_eq!((info.since, info.last_seen), (t(2), t(5)));
        // A departure ends the membership; the next heartbeat is a new join.
        view.remove(node(1));
        view.observe(node(1), hb(0.5, 50), t(9));
        assert_eq!(view.info(node(1)).unwrap().since, t(9));
    }

    #[test]
    fn expiry_after_five_missed_intervals() {
        let mut view = MembershipView::new();
        view.observe(node(1), hb(0.1, 50), t(0));
        view.observe(node(2), hb(0.2, 50), t(8));
        // Heartbeat interval 2 s → deadline 10 s.
        assert!(view.expire(t(10), Dur::secs(2)).is_empty());
        let gone = view.expire(t(11), Dur::secs(2));
        assert_eq!(gone, vec![MembershipEvent::Departed(node(1))]);
        assert!(!view.is_live(node(1)));
        assert!(view.is_live(node(2)));
    }

    #[test]
    fn fresh_heartbeat_resets_expiry() {
        let mut view = MembershipView::new();
        view.observe(node(1), hb(0.1, 50), t(0));
        view.observe(node(1), hb(0.1, 50), t(9));
        assert!(view.expire(t(12), Dur::secs(2)).is_empty());
    }

    #[test]
    fn stats_over_live_set() {
        let mut view = MembershipView::new();
        view.observe(node(1), hb(0.2, 80), t(0));
        view.observe(node(2), hb(0.4, 60), t(0));
        view.observe(node(3), hb(0.6, 40), t(0));
        let (mean, sd) = view.load_stats();
        assert!((mean - 0.4).abs() < 1e-12);
        assert!((sd - 0.1632993).abs() < 1e-6);
        let (smean, _) = view.storage_stats();
        assert!((smean - 0.4).abs() < 1e-12); // utilizations 0.2/0.4/0.6
    }

    #[test]
    fn rank_descending_counts_strictly_higher() {
        let mut view = MembershipView::new();
        view.observe(node(1), hb(0.2, 0), t(0));
        view.observe(node(2), hb(0.4, 0), t(0));
        view.observe(node(3), hb(0.9, 0), t(0));
        assert_eq!(view.rank_descending(0.9, |h| h.load), 0);
        assert_eq!(view.rank_descending(0.4, |h| h.load), 1);
        assert_eq!(view.rank_descending(0.1, |h| h.load), 3);
    }

    #[test]
    fn provider_on_machine_lookup() {
        let mut view = MembershipView::new();
        let mut h = hb(0.1, 10);
        h.machine = 7;
        view.observe(node(4), h, t(0));
        assert_eq!(view.provider_on_machine(7), Some(node(4)));
        assert_eq!(view.provider_on_machine(8), None);
    }

    #[test]
    fn ewma_smoothing() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.get(), 0.0);
        assert_eq!(e.update(1.0), 1.0); // first sample adopted directly
        assert_eq!(e.update(0.0), 0.5);
        assert_eq!(e.update(0.0), 0.25);
    }

    #[test]
    fn empty_view_stats_are_zero() {
        let view = MembershipView::new();
        assert_eq!(view.load_stats(), (0.0, 0.0));
        assert!(view.is_empty());
    }
}
