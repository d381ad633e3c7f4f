//! Cluster assembly: wires a Sorrento volume — storage providers, a
//! namespace server, and client processes — onto the deterministic
//! simulator, mirroring the paper's `Sorrento-(n, r)` deployments.

use sorrento_sim::{Dur, Metrics, NodeConfig, NodeId, SimTime, Simulation};

use crate::client::{ClientOp, ClientStats, OpResult, SorrentoClient, Workload};
use crate::costs::CostModel;
use crate::namespace::NamespaceServer;
use crate::nsmap::NsShardMap;
use crate::proto::Msg;
use crate::provider::StorageProvider;
use crate::swim::MembershipMode;

/// Builder for a Sorrento deployment.
pub struct ClusterBuilder {
    providers: usize,
    replication: u32,
    seed: u64,
    costs: CostModel,
    node_config: NodeConfig,
    capacity: u64,
    keep_versions: usize,
    warmup: Dur,
    racks: Option<usize>,
    ns_shards: u32,
    ns_standby: bool,
    ns_checkpoint_every: Option<u64>,
    membership: MembershipMode,
    loss: Option<(u32, u64)>,
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        ClusterBuilder {
            providers: 8,
            replication: 1,
            seed: 1,
            costs: CostModel::default(),
            node_config: NodeConfig::default(),
            capacity: 72 * 1_000_000_000,
            keep_versions: 2,
            warmup: Dur::secs(5),
            racks: None,
            ns_shards: 1,
            ns_standby: false,
            ns_checkpoint_every: None,
            membership: MembershipMode::Heartbeat,
            loss: None,
        }
    }
}

impl ClusterBuilder {
    /// Start from defaults: `Sorrento-(8, 1)` on Fast Ethernet.
    pub fn new() -> ClusterBuilder {
        ClusterBuilder::default()
    }

    /// Number of storage providers (the `n` of `Sorrento-(n, r)`).
    pub fn providers(mut self, n: usize) -> Self {
        self.providers = n;
        self
    }

    /// Default replication degree (the `r` of `Sorrento-(n, r)`). Applied
    /// by [`Cluster::add_client`] to files created with default options.
    pub fn replication(mut self, r: u32) -> Self {
        self.replication = r.max(1);
        self
    }

    /// RNG seed: every run with the same seed is identical.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the cost model.
    pub fn costs(mut self, costs: CostModel) -> Self {
        self.costs = costs;
        self
    }

    /// Per-provider disk capacity in bytes.
    pub fn capacity(mut self, bytes: u64) -> Self {
        self.capacity = bytes;
        self
    }

    /// Committed versions retained per segment.
    pub fn keep_versions(mut self, k: usize) -> Self {
        self.keep_versions = k;
        self
    }

    /// Hardware description for all nodes.
    pub fn node_config(mut self, cfg: NodeConfig) -> Self {
        self.node_config = cfg;
        self
    }

    /// Virtual time to run before clients may start (heartbeat discovery).
    pub fn warmup(mut self, d: Dur) -> Self {
        self.warmup = d;
        self
    }

    /// Spread providers round-robin over `n` racks; replica repair then
    /// prefers sites on racks without a copy. Default: every provider is
    /// its own rack (degenerates to distinct-provider spreading).
    pub fn racks(mut self, n: usize) -> Self {
        self.racks = Some(n.max(1));
        self
    }

    /// Shard the namespace over `n` primaries (default 1: the classic
    /// single-server metadata plane, byte-identical to older builds).
    pub fn ns_shards(mut self, n: u32) -> Self {
        self.ns_shards = n.max(1);
        self
    }

    /// Deploy a WAL-shipped hot standby behind every namespace shard.
    pub fn ns_standby(mut self, yes: bool) -> Self {
        self.ns_standby = yes;
        self
    }

    /// Checkpoint the namespace kvdb every `n` applied batches (bounds
    /// the WAL tail a standby must replay at failover).
    pub fn ns_checkpoint_every(mut self, n: u64) -> Self {
        self.ns_checkpoint_every = Some(n);
        self
    }

    /// Membership mechanism: multicast heartbeats (default) or SWIM
    /// gossip. Gossip deployments seed every provider and client with
    /// the full provider list.
    pub fn membership(mut self, mode: MembershipMode) -> Self {
        self.membership = mode;
        self
    }

    /// Drop `permille`/1000 of wire messages at random (seeded
    /// independently of the protocol RNGs). Default: lossless.
    pub fn loss(mut self, permille: u32, seed: u64) -> Self {
        self.loss = Some((permille, seed));
        self
    }

    /// Build the cluster and run the warmup period.
    pub fn build(self) -> Cluster {
        let mut sim = Simulation::new(self.seed);
        if let Some((permille, seed)) = self.loss {
            sim.set_loss(permille, seed);
        }
        let ns_cfg = self.node_config; // namespace gets its own machine
        let nshards = self.ns_shards.max(1);
        let sharded = nshards > 1 || self.ns_standby;
        let (ns, ns_nodes, ns_standbys, ns_map) = if !sharded {
            let ns = sim.add_node(NamespaceServer::new(self.costs), ns_cfg);
            (ns, vec![ns], Vec::new(), None)
        } else {
            // Each shard primary (and standby) gets its own machine, in a
            // range that cannot collide with provider machines.
            let mut primaries = Vec::with_capacity(nshards as usize);
            for k in 0..nshards {
                let cfg = ns_cfg.on_machine(2_000_000 + k);
                primaries.push(
                    sim.add_node(NamespaceServer::new_sharded(self.costs, k, nshards), cfg),
                );
            }
            let mut standbys = Vec::new();
            if self.ns_standby {
                for k in 0..nshards {
                    let cfg = ns_cfg.on_machine(3_000_000 + k);
                    standbys.push(
                        sim.add_node(NamespaceServer::new_standby(self.costs, k, nshards), cfg),
                    );
                }
            }
            let mut map = NsShardMap::new(primaries.clone());
            for (k, &s) in standbys.iter().enumerate() {
                map.set_standby(k, s);
            }
            for (k, &p) in primaries.iter().enumerate() {
                let srv = sim.node_mut::<NamespaceServer>(p).expect("ns shard");
                srv.set_shard_map(map.clone());
                if let Some(&s) = standbys.get(k) {
                    srv.set_standby(s);
                }
                if let Some(n) = self.ns_checkpoint_every {
                    srv.set_checkpoint_every_batches(Some(n));
                }
            }
            for &s in &standbys {
                let srv = sim.node_mut::<NamespaceServer>(s).expect("ns standby");
                srv.set_shard_map(map.clone());
                if let Some(n) = self.ns_checkpoint_every {
                    srv.set_checkpoint_every_batches(Some(n));
                }
            }
            (primaries[0], primaries, standbys, Some(map))
        };
        let mut providers = Vec::with_capacity(self.providers);
        for i in 0..self.providers {
            let cfg = self.node_config.with_capacity(self.capacity).on_machine(i as u32);
            let rack = match self.racks {
                Some(n) => (i % n) as u32,
                None => i as u32, // one rack per provider
            };
            providers.push(sim.add_node(
                StorageProvider::new(self.costs, self.keep_versions).with_rack(rack),
                cfg,
            ));
        }
        if self.membership == MembershipMode::Swim {
            // Every provider bootstraps from the full provider list; the
            // start events queued above have not run yet, so this lands
            // before any handle_start.
            for &p in &providers {
                let prov = sim.node_mut::<StorageProvider>(p).expect("provider");
                prov.set_membership(MembershipMode::Swim, providers.clone());
            }
        }
        let mut cluster = Cluster {
            sim,
            ns,
            ns_nodes,
            ns_standbys,
            ns_map,
            providers,
            clients: Vec::new(),
            costs: self.costs,
            replication: self.replication,
            node_config: self.node_config,
            membership: self.membership,
        };
        cluster.run_for(self.warmup);
        cluster
    }
}

/// A running Sorrento deployment.
pub struct Cluster {
    /// The underlying simulation (exposed for advanced harness control).
    pub sim: Simulation<Msg>,
    ns: NodeId,
    ns_nodes: Vec<NodeId>,
    ns_standbys: Vec<NodeId>,
    ns_map: Option<NsShardMap>,
    providers: Vec<NodeId>,
    clients: Vec<NodeId>,
    costs: CostModel,
    replication: u32,
    node_config: NodeConfig,
    membership: MembershipMode,
}

impl Cluster {
    /// The namespace server's node id (shard 0's primary when sharded).
    pub fn namespace(&self) -> NodeId {
        self.ns
    }

    /// Every namespace shard primary, in shard order.
    pub fn ns_shard_nodes(&self) -> &[NodeId] {
        &self.ns_nodes
    }

    /// The storage providers' node ids.
    pub fn providers(&self) -> &[NodeId] {
        &self.providers
    }

    /// The client node ids added so far.
    pub fn clients(&self) -> &[NodeId] {
        &self.clients
    }

    /// The cluster's cost model.
    pub fn costs(&self) -> CostModel {
        self.costs
    }

    /// Add a client on its own machine.
    pub fn add_client<W: Workload>(&mut self, workload: W) -> NodeId {
        let cfg = self.node_config;
        self.add_client_with(workload, cfg)
    }

    /// Add a client co-located with provider `i` (same machine: loopback
    /// traffic, as in the paper's PSM deployment).
    pub fn add_client_on_provider<W: Workload>(&mut self, workload: W, i: usize) -> NodeId {
        let cfg = self.node_config.on_machine(i as u32);
        self.add_client_with(workload, cfg)
    }

    fn add_client_with<W: Workload>(&mut self, workload: W, cfg: NodeConfig) -> NodeId {
        let mut client = SorrentoClient::new(self.ns, self.costs, Box::new(workload));
        client.default_options.replication = self.replication;
        self.configure_client(&mut client);
        let id = self.sim.add_node(client, cfg);
        self.clients.push(id);
        id
    }

    /// Apply the cluster-wide routing knobs (shard map, membership
    /// mechanism) to a client before it starts.
    fn configure_client(&self, client: &mut SorrentoClient) {
        if let Some(map) = &self.ns_map {
            client.set_ns_shards(map.clone());
        }
        if self.membership == MembershipMode::Swim {
            client.set_membership(MembershipMode::Swim, self.providers.clone());
        }
    }

    /// Add a client co-located with provider `i`, with explicit default
    /// file options.
    pub fn add_client_on_provider_with_options<W: Workload>(
        &mut self,
        workload: W,
        i: usize,
        options: crate::types::FileOptions,
    ) -> NodeId {
        let cfg = self.node_config.on_machine(i as u32);
        let mut client = SorrentoClient::new(self.ns, self.costs, Box::new(workload));
        client.default_options = options;
        self.configure_client(&mut client);
        let id = self.sim.add_node(client, cfg);
        self.clients.push(id);
        id
    }

    /// Add a client with explicit default file options.
    pub fn add_client_with_options<W: Workload>(
        &mut self,
        workload: W,
        options: crate::types::FileOptions,
    ) -> NodeId {
        let cfg = self.node_config;
        let mut client = SorrentoClient::new(self.ns, self.costs, Box::new(workload));
        client.default_options = options;
        self.configure_client(&mut client);
        let id = self.sim.add_node(client, cfg);
        self.clients.push(id);
        id
    }

    /// Add a storage provider that comes online at virtual time `at`
    /// (incremental expansion, §2.2).
    pub fn add_provider_at(&mut self, at: SimTime, capacity: u64) -> NodeId {
        let machine = 1000 + self.providers.len() as u32;
        let cfg = self.node_config.with_capacity(capacity).on_machine(machine);
        let mut prov = StorageProvider::new(self.costs, 2);
        if self.membership == MembershipMode::Swim {
            // The newcomer bootstraps from the existing providers; they
            // learn about it from its own probes' piggybacked self-update.
            prov.set_membership(MembershipMode::Swim, self.providers.clone());
        }
        let id = self.sim.add_node_offline(prov, cfg);
        self.sim.start_at(at, id);
        self.providers.push(id);
        id
    }

    /// Crash a provider at virtual time `at` (its disk contents survive a
    /// later [`Cluster::restart_provider_at`]).
    pub fn crash_provider_at(&mut self, at: SimTime, id: NodeId) {
        self.sim.crash_at(at, id);
    }

    /// Restart a crashed provider at virtual time `at`.
    pub fn restart_provider_at(&mut self, at: SimTime, id: NodeId) {
        self.sim.restart_at(at, id);
    }

    /// Run for `d` of virtual time.
    pub fn run_for(&mut self, d: Dur) {
        self.sim.run_for(d);
    }

    /// Run until virtual time `t`.
    pub fn run_until(&mut self, t: SimTime) {
        self.sim.run_until(t);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Statistics of a client added earlier.
    pub fn client_stats(&self, id: NodeId) -> Option<&ClientStats> {
        self.sim
            .node_ref::<SorrentoClient>(id)
            .map(|c| &c.stats)
    }

    /// Inspect a provider's state.
    pub fn provider_ref(&self, id: NodeId) -> Option<&StorageProvider> {
        self.sim.node_ref::<StorageProvider>(id)
    }

    /// Inspect the namespace server.
    pub fn namespace_ref(&self) -> Option<&NamespaceServer> {
        self.sim.node_ref::<NamespaceServer>(self.ns)
    }

    /// Inspect shard `k`'s primary namespace server.
    pub fn namespace_ref_of(&self, k: usize) -> Option<&NamespaceServer> {
        self.sim.node_ref::<NamespaceServer>(*self.ns_nodes.get(k)?)
    }

    /// Inspect shard `k`'s hot standby.
    pub fn ns_standby_ref_of(&self, k: usize) -> Option<&NamespaceServer> {
        self.sim.node_ref::<NamespaceServer>(*self.ns_standbys.get(k)?)
    }

    /// Bytes stored on each provider's disk (storage-balance reporting,
    /// Figure 14).
    pub fn provider_disk_usage(&self) -> Vec<(NodeId, u64, u64)> {
        self.providers
            .iter()
            .map(|&p| (p, self.sim.disk_used(p), self.sim.disk_capacity(p)))
            .collect()
    }

    /// Run-wide metrics.
    pub fn metrics(&self) -> &Metrics {
        self.sim.metrics()
    }

    /// Human-readable role of a node in this cluster (`ns`, `provider#i`,
    /// `client#i`), for trace rendering.
    pub fn role_of(&self, id: NodeId) -> String {
        if self.ns_nodes.len() > 1 || !self.ns_standbys.is_empty() {
            if let Some(k) = self.ns_nodes.iter().position(|&n| n == id) {
                return format!("ns#{k}");
            }
            if let Some(k) = self.ns_standbys.iter().position(|&n| n == id) {
                return format!("ns#{k}-sb");
            }
        }
        if id == self.ns {
            return "ns".to_string();
        }
        if let Some(i) = self.providers.iter().position(|&p| p == id) {
            return format!("provider#{i}");
        }
        if let Some(i) = self.clients.iter().position(|&c| c == id) {
            return format!("client#{i}");
        }
        format!("{id}")
    }

    /// Render the causal chain of one operation: every telemetry event
    /// carrying `span`, across all nodes, in virtual-time order. This is
    /// the primary debugging tool for a failed op — feed it the span from
    /// [`ClientStats::failed_spans`] (or `last_span`) and read the chain
    /// from client request through namespace version check to per-owner
    /// 2PC prepare/commit.
    pub fn trace_op(&self, span: sorrento_sim::SpanId) -> String {
        let chain = self.sim.events_for_span(span);
        if chain.is_empty() {
            return format!("span {span:#x}: no recorded events\n");
        }
        let mut out = String::new();
        out.push_str(&format!("=== trace for span {span:#x} ===\n"));
        for (node, rec) in chain {
            out.push_str(&format!(
                "{:>12} ns  {:<11} {}\n",
                rec.at.nanos(),
                self.role_of(node),
                rec.ev
            ));
        }
        out
    }

    /// Ground-truth segment ownership across live providers: segment →
    /// `(provider, latest version)` list. Harness/test observability; the
    /// protocol itself only ever uses the soft-state location tables.
    pub fn segment_ownership(
        &self,
    ) -> std::collections::HashMap<crate::types::SegId, Vec<(NodeId, crate::types::Version)>> {
        let mut map: std::collections::HashMap<_, Vec<(NodeId, crate::types::Version)>> =
            std::collections::HashMap::new();
        for &p in &self.providers {
            if !self.sim.is_alive(p) {
                continue;
            }
            if let Some(prov) = self.sim.node_ref::<StorageProvider>(p) {
                for (seg, version) in prov.store.list_segments() {
                    map.entry(seg).or_default().push((p, version));
                }
            }
        }
        map
    }
}

/// A workload that replays a fixed list of operations, then stops.
pub struct ScriptedWorkload {
    ops: std::vec::IntoIter<ClientOp>,
    /// Stop on the first failed op when set (default: keep going).
    pub stop_on_error: bool,
    failed: bool,
}

impl ScriptedWorkload {
    /// Run these ops in order.
    pub fn new(ops: Vec<ClientOp>) -> ScriptedWorkload {
        ScriptedWorkload {
            ops: ops.into_iter(),
            stop_on_error: false,
            failed: false,
        }
    }
}

impl Workload for ScriptedWorkload {
    fn next_op(&mut self, _now: SimTime, _rng: &mut rand::rngs::SmallRng) -> Option<ClientOp> {
        if self.failed && self.stop_on_error {
            return None;
        }
        self.ops.next()
    }

    fn on_result(&mut self, _op: &ClientOp, result: &OpResult, _now: SimTime) {
        if !result.is_ok() {
            self.failed = true;
        }
    }
}

/// A workload built from a closure (ad-hoc dynamic workloads).
pub struct FnWorkload<F>(pub F);

impl<F> Workload for FnWorkload<F>
where
    F: FnMut(SimTime, &mut rand::rngs::SmallRng) -> Option<ClientOp> + 'static,
{
    fn next_op(&mut self, now: SimTime, rng: &mut rand::rngs::SmallRng) -> Option<ClientOp> {
        (self.0)(now, rng)
    }
}
