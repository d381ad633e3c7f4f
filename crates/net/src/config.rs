//! The node config file: a small JSON document describing one daemon
//! and its peer list.
//!
//! ```json
//! {
//!   "node_id": 1,
//!   "role": "provider",
//!   "listen": "127.0.0.1:7401",
//!   "data_dir": "/var/tmp/sorrento/p1",
//!   "seed": 42,
//!   "capacity": 1073741824,
//!   "machine": 1,
//!   "rack": 1,
//!   "costs": "default",
//!   "peers": [
//!     { "id": 0, "addr": "127.0.0.1:7400", "machine": 0 }
//!   ]
//! }
//! ```
//!
//! Only `node_id`, `role` and `listen` are required; everything else
//! has workable defaults. The peer list replaces the simulator's
//! multicast domain — it only needs to seed connectivity, because
//! `Hello` frames teach nodes about everyone else at runtime.
//!
//! Every default is stated once, in [`DaemonConfig::new`] and
//! [`CtlConfig::new`]: the parsers start from those and overwrite what
//! the document sets. A key the parsers do not know — at top level, in a
//! `peers` or `ns_map` row, or under `chaos` — is an error that names it,
//! so a misspelt knob cannot boot a node that quietly runs the default.
//! Both structs are `#[non_exhaustive]`: code outside this crate builds
//! them with `new` (or `parse`) and writes the fields it means to change,
//! so adding a field touches this file and nothing else.

use std::path::PathBuf;
use std::time::Duration;

use crate::chaos::ChaosConfig;
use sorrento::costs::CostModel;
use sorrento::nsmap::ShardInfo;
use sorrento::swim::MembershipMode;
use sorrento_json::Json;
use sorrento_sim::NodeId;

/// What a daemon does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Namespace server (pathname → entry, commit approval). With a
    /// shard map it serves one shard of the partitioned namespace.
    Namespace,
    /// Hot standby for one namespace shard: applies shipped WAL and
    /// promotes itself when the primary's shipments stop.
    Standby,
    /// Storage provider (segments, shadows, replication).
    Provider,
}

/// One peer in the seed list.
#[derive(Debug, Clone)]
pub struct PeerSpec {
    /// The peer's node id.
    pub id: NodeId,
    /// Its `host:port` listen address.
    pub addr: String,
    /// Physical machine it runs on (locality placement input).
    pub machine: u32,
}

/// A daemon's full boot configuration.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct DaemonConfig {
    /// This node's cluster-unique id.
    pub node_id: NodeId,
    /// Namespace server or storage provider.
    pub role: Role,
    /// `host:port` to listen on (`:0` picks an ephemeral port).
    pub listen: String,
    /// Where segment images persist; `None` keeps the store volatile.
    pub data_dir: Option<PathBuf>,
    /// RNG seed for placement decisions.
    pub seed: u64,
    /// Advertised disk capacity in bytes.
    pub capacity: u64,
    /// Physical machine id of this node.
    pub machine: u32,
    /// Rack id (failure-domain-aware replica spreading).
    pub rack: u32,
    /// Protocol cost model (timer intervals, timeouts).
    pub costs: CostModel,
    /// Fault-injection rules installed into the mesh at boot (all-zero
    /// default = chaos off). Also togglable at runtime via
    /// `Msg::ChaosCtl`.
    pub chaos: ChaosConfig,
    /// Append a versioned metrics snapshot to `data_dir/metrics.jsonl`
    /// every this many milliseconds (`None` = off). Benches and chaos
    /// drills get post-hoc time series for free.
    pub metrics_interval_ms: Option<u64>,
    /// The namespace shard map: per-shard primary and optional standby
    /// node ids, in shard order, one row per shard. Empty means
    /// unsharded. A namespace node serves the shard whose primary it is,
    /// a standby the shard whose standby it is.
    pub ns_map: Vec<ShardInfo>,
    /// Checkpoint the namespace kvdb every this many applied batches
    /// (bounds the WAL tail a standby replays at failover).
    pub ns_checkpoint_batches: Option<u64>,
    /// How providers learn about each other: `"heartbeat"` (default,
    /// periodic multicast) or `"swim"` (gossip failure detector with
    /// indirect probes and suspect/confirm).
    pub membership: MembershipMode,
    /// Seed peers.
    pub peers: Vec<PeerSpec>,
}

/// Why a config failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The file is not valid JSON.
    BadJson,
    /// A required field is absent.
    Missing(&'static str),
    /// A field has the wrong type or an unknown value.
    Invalid(&'static str),
    /// A key no parser reads, by its path in the document
    /// (`"write_chunks"`, `"peers[].adr"`, `"chaos.drop"`).
    Unknown(String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::BadJson => f.write_str("config is not valid JSON"),
            ConfigError::Missing(name) => write!(f, "config missing field `{name}`"),
            ConfigError::Invalid(name) => write!(f, "config field `{name}` is invalid"),
            ConfigError::Unknown(name) => write!(f, "config has unknown key `{name}`"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// The keys of a daemon document, one per [`DaemonConfig`] field.
const DAEMON_KEYS: &[&str] = &[
    "node_id", "role", "listen", "data_dir", "seed", "capacity", "machine", "rack", "costs",
    "chaos", "metrics_interval_ms", "ns_map", "ns_checkpoint_batches",
    "membership", "peers",
];
/// The keys of a cluster document, one per [`CtlConfig`] field.
const CTL_KEYS: &[&str] = &[
    "ctl_id", "namespace", "seed", "replication", "costs", "write_chunk", "write_window",
    "rpc_resends", "op_deadline_ms", "ns_map", "membership", "peers",
];
const PEER_KEYS: &[&str] = &["id", "addr", "machine"];
const NS_MAP_KEYS: &[&str] = &["primary", "standby"];
const CHAOS_KEYS: &[&str] =
    &["seed", "drop_permille", "dup_permille", "delay_permille", "delay_us", "partition"];

impl DaemonConfig {
    /// The configuration of a daemon whose document sets nothing but the
    /// three required keys. Every default lives here.
    pub fn new(node_id: NodeId, role: Role, listen: impl Into<String>) -> DaemonConfig {
        DaemonConfig {
            node_id,
            role,
            listen: listen.into(),
            data_dir: None,
            seed: 1,
            capacity: 8 << 30,
            machine: node_id.index() as u32,
            rack: node_id.index() as u32,
            costs: CostModel::default(),
            chaos: ChaosConfig::default(),
            metrics_interval_ms: None,
            ns_map: Vec::new(),
            ns_checkpoint_batches: None,
            membership: MembershipMode::Heartbeat,
            peers: Vec::new(),
        }
    }

    /// Parse a config document.
    pub fn parse(text: &str) -> Result<DaemonConfig, ConfigError> {
        let j = Json::parse(text).map_err(|_| ConfigError::BadJson)?;
        known_keys(&j, "", DAEMON_KEYS)?;
        let node_id = req_id(&j, "node_id")?;
        let role = match req_str(&j, "role")? {
            "namespace" => Role::Namespace,
            "standby" => Role::Standby,
            "provider" => Role::Provider,
            _ => return Err(ConfigError::Invalid("role")),
        };
        let mut cfg = DaemonConfig::new(node_id, role, req_str(&j, "listen")?);
        cfg.data_dir = opt_str(&j, "data_dir")?.map(PathBuf::from);
        overwrite(&mut cfg.seed, opt_u64(&j, "seed")?);
        overwrite(&mut cfg.capacity, opt_u64(&j, "capacity")?);
        overwrite(&mut cfg.machine, opt_int(&j, "machine")?);
        overwrite(&mut cfg.rack, opt_int(&j, "rack")?);
        overwrite(&mut cfg.costs, parse_costs(&j)?);
        overwrite(&mut cfg.chaos, parse_chaos(&j)?);
        cfg.metrics_interval_ms = opt_u64(&j, "metrics_interval_ms")?;
        overwrite(&mut cfg.ns_map, parse_ns_map(&j)?);
        cfg.ns_checkpoint_batches = opt_u64(&j, "ns_checkpoint_batches")?;
        overwrite(&mut cfg.membership, parse_membership(&j)?);
        overwrite(&mut cfg.peers, parse_peers(&j)?);
        // A namespace node the map leaves out would serve no shard.
        if cfg.role != Role::Provider && cfg.shard().is_none() {
            return Err(ConfigError::Invalid("ns_map"));
        }
        Ok(cfg)
    }

    /// The namespace shard this node serves and the shard count, both
    /// worked out from `ns_map`: the row whose primary (a namespace
    /// node) or standby (a standby) this node is. Shard 0 of 1 without a
    /// map; `None` for any other node the map leaves out.
    pub(crate) fn shard(&self) -> Option<(u32, u32)> {
        if self.ns_map.is_empty() {
            return Some((0, 1));
        }
        let row = self.ns_map.iter().position(|r| match self.role {
            Role::Namespace => r.primary == self.node_id,
            Role::Standby => r.standby == Some(self.node_id),
            Role::Provider => false,
        })?;
        Some((row as u32, self.ns_map.len() as u32))
    }
}

/// Replace a default with what the document set, if it set anything.
fn overwrite<T>(slot: &mut T, parsed: Option<T>) {
    if let Some(v) = parsed {
        *slot = v;
    }
}

/// Refuse any key of object `j` that is not in `known`; `at` is the path
/// prefix the error names the key under.
fn known_keys(j: &Json, at: &str, known: &[&str]) -> Result<(), ConfigError> {
    match j.as_obj().and_then(|o| o.iter().find(|(k, _)| !known.contains(&k.as_str()))) {
        Some((key, _)) => Err(ConfigError::Unknown(format!("{at}{key}"))),
        None => Ok(()),
    }
}

/// Parse the optional `"peers"` array.
fn parse_peers(j: &Json) -> Result<Option<Vec<PeerSpec>>, ConfigError> {
    let Some(arr) = j.get("peers") else { return Ok(None) };
    let mut peers = Vec::new();
    for p in arr.as_arr().ok_or(ConfigError::Invalid("peers"))? {
        known_keys(p, "peers[].", PEER_KEYS)?;
        peers.push(PeerSpec {
            id: req_id(p, "id")?,
            addr: req_str(p, "addr")?.to_string(),
            machine: opt_int(p, "machine")?.unwrap_or(0),
        });
    }
    Ok(Some(peers))
}

/// Parse the optional `"costs"` knob (`"default"` | `"fast_test"`).
fn parse_costs(j: &Json) -> Result<Option<CostModel>, ConfigError> {
    let Some(v) = j.get("costs") else { return Ok(None) };
    match v.as_str().ok_or(ConfigError::Invalid("costs"))? {
        "default" => Ok(Some(CostModel::default())),
        "fast_test" => Ok(Some(CostModel::fast_test())),
        _ => Err(ConfigError::Invalid("costs")),
    }
}

/// Parse the optional `"membership"` knob (`"heartbeat"` | `"swim"`).
fn parse_membership(j: &Json) -> Result<Option<MembershipMode>, ConfigError> {
    match opt_str(j, "membership")? {
        None => Ok(None),
        Some("heartbeat") => Ok(Some(MembershipMode::Heartbeat)),
        Some("swim") => Ok(Some(MembershipMode::Swim)),
        Some(_) => Err(ConfigError::Invalid("membership")),
    }
}

/// Parse an optional `"ns_map"` array — the namespace shard map, one
/// row per shard in shard order:
///
/// ```json
/// { "ns_map": [ { "primary": 0, "standby": 5 }, { "primary": 1 } ] }
/// ```
fn parse_ns_map(j: &Json) -> Result<Option<Vec<ShardInfo>>, ConfigError> {
    let Some(arr) = j.get("ns_map") else { return Ok(None) };
    let mut rows = Vec::new();
    for row in arr.as_arr().ok_or(ConfigError::Invalid("ns_map"))? {
        known_keys(row, "ns_map[].", NS_MAP_KEYS)?;
        let standby = match row.get("standby") {
            None | Some(Json::Null) => None,
            Some(v) => Some(id_of(v, "ns_map.standby")?),
        };
        rows.push(ShardInfo {
            primary: req_id(row, "primary")?,
            standby,
        });
    }
    Ok(Some(rows))
}

/// Parse an optional `"chaos"` object:
///
/// ```json
/// { "chaos": { "seed": 42, "drop_permille": 100, "dup_permille": 20,
///              "delay_permille": 50, "delay_us": 2000,
///              "partition": [3] } }
/// ```
///
/// Absent means no fault injection; every field inside defaults to 0 /
/// empty. The same knobs ride on `Msg::ChaosCtl` for runtime toggling.
fn parse_chaos(j: &Json) -> Result<Option<ChaosConfig>, ConfigError> {
    let c = match j.get("chaos") {
        None | Some(Json::Null) => return Ok(None),
        Some(c) => c,
    };
    known_keys(c, "chaos.", CHAOS_KEYS)?;
    let mut chaos = ChaosConfig::default();
    if let Some(arr) = c.get("partition") {
        for id in arr.as_arr().ok_or(ConfigError::Invalid("chaos.partition"))? {
            chaos.partition.push(id_of(id, "chaos.partition")?);
        }
    }
    overwrite(&mut chaos.seed, opt_u64(c, "seed")?);
    overwrite(&mut chaos.drop_permille, opt_int(c, "drop_permille")?);
    overwrite(&mut chaos.dup_permille, opt_int(c, "dup_permille")?);
    overwrite(&mut chaos.delay_permille, opt_int(c, "delay_permille")?);
    overwrite(&mut chaos.delay, opt_u64(c, "delay_us")?.map(Duration::from_micros));
    Ok(Some(chaos))
}

/// What `sorrentoctl` needs to talk to a cluster: where the daemons
/// are and which one is the namespace server.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct CtlConfig {
    /// The node id the control client joins the mesh as (must not
    /// collide with any daemon id).
    pub ctl_id: NodeId,
    /// The namespace server's node id.
    pub namespace: NodeId,
    /// RNG seed for placement decisions made client-side.
    pub seed: u64,
    /// Default replication degree for files the client creates.
    pub replication: u32,
    /// Protocol cost model (drives client RPC timeouts).
    pub costs: CostModel,
    /// Bulk pipelining, both directions: write — and read — an extent
    /// longer than this many bytes as chunks of this size (`None` keeps
    /// the one-message-per-extent path).
    pub write_chunk: Option<u64>,
    /// How many chunks may be in flight per extent, written or read,
    /// when chunking is on.
    pub write_window: usize,
    /// Extra same-request resends per RPC before the client suspects
    /// the target (0 keeps the classic timeout-then-failover path).
    /// Resent requests carry the same request id, so receivers
    /// deduplicate replays.
    pub rpc_resends: u32,
    /// Whole-operation deadline in milliseconds; an op that cannot
    /// finish in time fails with `Error::DeadlineExceeded` instead of
    /// retrying forever (`None` = no deadline).
    pub op_deadline_ms: Option<u64>,
    /// The namespace shard map (same `"ns_map"` shape as the daemon
    /// config). Empty means unsharded: route everything to `namespace`.
    pub ns_map: Vec<ShardInfo>,
    /// Cluster membership mode — must match the daemons' `membership`
    /// knob so the client refreshes its provider view the same way.
    pub membership: MembershipMode,
    /// All daemons in the cluster.
    pub peers: Vec<PeerSpec>,
}

impl CtlConfig {
    /// The configuration of a client whose document sets nothing but the
    /// two required keys. Every default lives here.
    pub fn new(namespace: NodeId, peers: Vec<PeerSpec>) -> CtlConfig {
        CtlConfig {
            ctl_id: NodeId::from_index(1000),
            namespace,
            seed: 1,
            replication: 1,
            costs: CostModel::default(),
            write_chunk: None,
            write_window: 4,
            rpc_resends: 0,
            op_deadline_ms: None,
            ns_map: Vec::new(),
            membership: MembershipMode::Heartbeat,
            peers,
        }
    }

    /// Parse a cluster-description document:
    ///
    /// ```json
    /// {
    ///   "namespace": 0,
    ///   "replication": 2,
    ///   "costs": "default",
    ///   "peers": [
    ///     { "id": 0, "addr": "127.0.0.1:7400" },
    ///     { "id": 1, "addr": "127.0.0.1:7401" }
    ///   ]
    /// }
    /// ```
    pub fn parse(text: &str) -> Result<CtlConfig, ConfigError> {
        let j = Json::parse(text).map_err(|_| ConfigError::BadJson)?;
        known_keys(&j, "", CTL_KEYS)?;
        let peers = parse_peers(&j)?.ok_or(ConfigError::Missing("peers"))?;
        let mut cfg = CtlConfig::new(req_id(&j, "namespace")?, peers);
        overwrite(&mut cfg.ctl_id, j.get("ctl_id").map(|v| id_of(v, "ctl_id")).transpose()?);
        overwrite(&mut cfg.seed, opt_u64(&j, "seed")?);
        overwrite(&mut cfg.replication, opt_int(&j, "replication")?);
        overwrite(&mut cfg.costs, parse_costs(&j)?);
        cfg.write_chunk = opt_u64(&j, "write_chunk")?;
        overwrite(&mut cfg.write_window, opt_int(&j, "write_window")?);
        overwrite(&mut cfg.rpc_resends, opt_int(&j, "rpc_resends")?);
        cfg.op_deadline_ms = opt_u64(&j, "op_deadline_ms")?;
        overwrite(&mut cfg.ns_map, parse_ns_map(&j)?);
        overwrite(&mut cfg.membership, parse_membership(&j)?);
        Ok(cfg)
    }
}

fn req_str<'a>(j: &'a Json, name: &'static str) -> Result<&'a str, ConfigError> {
    j.get(name)
        .ok_or(ConfigError::Missing(name))?
        .as_str()
        .ok_or(ConfigError::Invalid(name))
}

/// An optional string; `null` reads as absent.
fn opt_str<'a>(j: &'a Json, name: &'static str) -> Result<Option<&'a str>, ConfigError> {
    match j.get(name) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v.as_str().map(Some).ok_or(ConfigError::Invalid(name)),
    }
}

fn opt_u64(j: &Json, name: &'static str) -> Result<Option<u64>, ConfigError> {
    match j.get(name) {
        None => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or(ConfigError::Invalid(name)),
    }
}

/// An optional integer field narrower than `u64`: a value that does not
/// fit is refused by name, not wrapped (`4294967298` is no replication
/// degree of 2).
fn opt_int<T: TryFrom<u64>>(j: &Json, name: &'static str) -> Result<Option<T>, ConfigError> {
    opt_u64(j, name)?.map(|v| T::try_from(v).map_err(|_| ConfigError::Invalid(name))).transpose()
}

/// A required node id.
fn req_id(j: &Json, name: &'static str) -> Result<NodeId, ConfigError> {
    id_of(j.get(name).ok_or(ConfigError::Missing(name))?, name)
}

/// A node id: an integer that fits one, so an out-of-range id is refused
/// rather than aliasing another node.
fn id_of(v: &Json, name: &'static str) -> Result<NodeId, ConfigError> {
    let id = v.as_u64().and_then(|v| u32::try_from(v).ok()).ok_or(ConfigError::Invalid(name))?;
    Ok(NodeId::from_index(id as usize))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A daemon document with `extra` added to the three required keys.
    fn daemon(role: &str, extra: &str) -> Result<DaemonConfig, ConfigError> {
        DaemonConfig::parse(&format!(r#"{{"node_id": 1, "role": "{role}", "listen": "x"{extra}}}"#))
    }

    /// A client document with `extra` added to the required keys.
    fn ctl(extra: &str) -> Result<CtlConfig, ConfigError> {
        let peers = r#"[{"id": 0, "addr": "y"}]"#;
        CtlConfig::parse(&format!(r#"{{"namespace": 0, "peers": {peers}{extra}}}"#))
    }

    #[test]
    fn parses_a_minimal_provider_config() {
        let cfg = DaemonConfig::parse(
            r#"{"node_id": 2, "role": "provider", "listen": "127.0.0.1:0",
                "costs": "fast_test",
                "peers": [{"id": 0, "addr": "127.0.0.1:7400"}]}"#,
        )
        .unwrap();
        assert_eq!(cfg.node_id, NodeId::from_index(2));
        assert_eq!(cfg.role, Role::Provider);
        assert_eq!(cfg.peers.len(), 1);
        assert_eq!(cfg.machine, 2);
        assert!(cfg.data_dir.is_none());
    }

    #[test]
    fn parses_chaos_and_resilience_knobs() {
        let chaos = r#", "chaos": {"seed": 9, "drop_permille": 100, "delay_us": 2000,
                                   "partition": [3, 4]}"#;
        let cfg = daemon("provider", chaos).unwrap();
        assert_eq!(cfg.chaos.seed, 9);
        assert_eq!(cfg.chaos.drop_permille, 100);
        assert_eq!(cfg.chaos.delay, Duration::from_micros(2000));
        assert_eq!(cfg.chaos.partition, vec![NodeId::from_index(3), NodeId::from_index(4)]);
        assert!(cfg.chaos.is_active());
        assert!(!daemon("provider", "").unwrap().chaos.is_active());

        let cfg = ctl(r#", "rpc_resends": 2, "op_deadline_ms": 1500"#).unwrap();
        assert_eq!((cfg.rpc_resends, cfg.op_deadline_ms), (2, Some(1500)));
        // Both default to off.
        let cfg = ctl("").unwrap();
        assert_eq!((cfg.rpc_resends, cfg.op_deadline_ms), (0, None));
    }

    #[test]
    fn parses_metadata_plane_knobs() {
        let cfg = DaemonConfig::parse(
            r#"{"node_id": 5, "role": "standby", "listen": "127.0.0.1:0",
                "ns_checkpoint_batches": 256,
                "ns_map": [{"primary": 0, "standby": 4}, {"primary": 1, "standby": 5}]}"#,
        )
        .unwrap();
        assert_eq!(cfg.role, Role::Standby);
        assert_eq!(cfg.shard(), Some((1, 2)));
        assert_eq!(cfg.ns_checkpoint_batches, Some(256));
        assert_eq!(cfg.ns_map.len(), 2);
        assert_eq!(cfg.ns_map[1].primary, NodeId::from_index(1));
        assert_eq!(cfg.ns_map[1].standby, Some(NodeId::from_index(5)));

        // Defaults keep the classic unsharded deployment.
        let cfg = daemon("namespace", "").unwrap();
        assert_eq!(cfg.shard(), Some((0, 1)));
        assert!(cfg.ns_map.is_empty());
        assert_eq!(cfg.ns_checkpoint_batches, None);

        let cfg = ctl(r#", "ns_map": [{"primary": 0}, {"primary": 1}]"#).unwrap();
        assert_eq!(cfg.ns_map.len(), 2);
        assert_eq!(cfg.ns_map[0].standby, None);
    }

    #[test]
    fn parses_membership_and_location_knobs() {
        // A node's shard and the shard count come from `ns_map` alone, so
        // neither is a knob any more: they are refused by name.
        for key in ["shard", "ns_shards"] {
            let extra = format!(r#", "{key}": 1"#);
            assert_eq!(daemon("namespace", &extra).unwrap_err(), ConfigError::Unknown(key.into()));
        }

        let swim = r#", "membership": "swim""#;
        assert_eq!(daemon("provider", swim).unwrap().membership, MembershipMode::Swim);
        assert_eq!(ctl(swim).unwrap().membership, MembershipMode::Swim);
        // Defaults keep the classic heartbeat deployment.
        assert_eq!(daemon("provider", "").unwrap().membership, MembershipMode::Heartbeat);
        assert_eq!(ctl("").unwrap().membership, MembershipMode::Heartbeat);

        // The hash ring is the only SegID -> home-host map, so `location`
        // is no knob any more: any value of it is refused by name.
        let unknown = ConfigError::Unknown("location".to_string());
        for scheme in ["ring", "rendezvous", "asura"] {
            let extra = format!(r#", "location": "{scheme}""#);
            assert_eq!(daemon("provider", &extra).unwrap_err(), unknown, "{scheme}");
            assert_eq!(ctl(&extra).unwrap_err(), unknown, "{scheme}");
        }
    }

    #[test]
    fn errors_name_the_field() {
        use ConfigError::{BadJson, Invalid, Missing};
        for (text, want) in [
            ("not json", BadJson),
            (r#"{"role": "provider", "listen": "x"}"#, Missing("node_id")),
            (r#"{"node_id": 1, "role": "president", "listen": "x"}"#, Invalid("role")),
        ] {
            assert_eq!(DaemonConfig::parse(text).unwrap_err(), want, "{text}");
        }
        for (extra, want) in [
            (r#", "membership": "carrier-pigeon""#, Invalid("membership")),
            (r#", "costs": "cheap""#, Invalid("costs")),
            (r#", "seed": "one""#, Invalid("seed")),
            (r#", "chaos": {"partition": ["a"]}"#, Invalid("chaos.partition")),
            (r#", "ns_map": [{"standby": 1}]"#, Missing("primary")),
            // An integer that does not fit its field is refused, not
            // wrapped: 2^32 + 1 would alias node 1, 2^32 shard 0.
            (r#", "machine": 4294967296"#, Invalid("machine")),
            (r#", "rack": 4294967296"#, Invalid("rack")),
            (r#", "peers": [{"id": 4294967296, "addr": "y"}]"#, Invalid("id")),
            (r#", "peers": [{"id": 0, "addr": "y", "machine": 4294967296}]"#, Invalid("machine")),
            (r#", "ns_map": [{"primary": 4294967296}]"#, Invalid("primary")),
            (r#", "ns_map": [{"primary": 0, "standby": 4294967296}]"#, Invalid("ns_map.standby")),
            (r#", "chaos": {"partition": [4294967296]}"#, Invalid("chaos.partition")),
            (r#", "chaos": {"drop_permille": 4294967296}"#, Invalid("drop_permille")),
        ] {
            assert_eq!(daemon("provider", extra).unwrap_err(), want, "{extra}");
        }
        let doc = r#"{"node_id": 4294967297, "role": "provider", "listen": "x"}"#;
        assert_eq!(DaemonConfig::parse(doc).unwrap_err(), Invalid("node_id"));
        assert_eq!(CtlConfig::parse(r#"{"namespace": 0}"#).unwrap_err(), Missing("peers"));
        for (extra, want) in [
            (r#", "membership": "smoke""#, Invalid("membership")),
            (r#", "ctl_id": 4294967296"#, Invalid("ctl_id")),
            (r#", "replication": 4294967298"#, Invalid("replication")),
            (r#", "rpc_resends": 4294967296"#, Invalid("rpc_resends")),
        ] {
            assert_eq!(ctl(extra).unwrap_err(), want, "{extra}");
        }
        let doc = r#"{"namespace": 4294967296, "peers": []}"#;
        assert_eq!(CtlConfig::parse(doc).unwrap_err(), Invalid("namespace"));
        // The largest id that fits still parses as itself.
        let cfg = ctl(r#", "ctl_id": 4294967295"#).unwrap();
        assert_eq!(cfg.ctl_id, NodeId::from_index(u32::MAX as usize));
    }

    #[test]
    fn a_namespace_node_serves_its_row_of_ns_map() {
        let map = r#", "ns_map": [{"primary": 0, "standby": 3}, {"primary": 1, "standby": 4}]"#;
        let node = |id: u32, role: &str| {
            let doc = format!(r#"{{"node_id": {id}, "role": "{role}", "listen": "x"{map}}}"#);
            DaemonConfig::parse(&doc).map(|cfg| cfg.shard())
        };
        assert_eq!(node(1, "namespace"), Ok(Some((1, 2))));
        assert_eq!(node(3, "standby"), Ok(Some((0, 2))));
        // A node the map leaves out, or names in the other column, would
        // serve no shard.
        for (id, role) in [(2, "namespace"), (3, "namespace"), (1, "standby")] {
            assert_eq!(node(id, role), Err(ConfigError::Invalid("ns_map")), "n{id} {role}");
        }
        // A provider serves no shard: the map only routes its clients.
        assert_eq!(node(2, "provider"), Ok(None));
    }

    #[test]
    fn new_is_parse_of_the_minimal_document() {
        // `Debug` prints every field, so equal strings are equal configs.
        let parsed =
            DaemonConfig::parse(r#"{"node_id": 3, "role": "standby", "listen": "127.0.0.1:0"}"#)
                .unwrap();
        let built = DaemonConfig::new(NodeId::from_index(3), Role::Standby, "127.0.0.1:0");
        assert_eq!(format!("{built:?}"), format!("{parsed:?}"));

        let parsed = CtlConfig::parse(r#"{"namespace": 2, "peers": []}"#).unwrap();
        let built = CtlConfig::new(NodeId::from_index(2), Vec::new());
        assert_eq!(format!("{built:?}"), format!("{parsed:?}"));
    }

    /// `{:?}` of `CostModel::fast_test()` as the commit before the
    /// constructors printed it.
    const FAST_TEST: &str = "CostModel { heartbeat_interval: 500.00ms, swim_probe_interval: 200.00ms, \
        swim_ack_timeout: 60.00ms, swim_suspect_timeout: 1.600s, swim_indirect_k: 3, \
        swim_sync_interval: 2.000s, refresh_interval: 30.000s, join_refresh_delay_max: 2.000s, \
        location_gc_age: 90.000s, shadow_ttl: 30.000s, commit_lease: 10.000s, \
        migration_interval: 5.000s, migration_pacing: 300.00ms, migration_alpha_hot: 0.8, \
        migration_alpha_cold: 0.3, migration_top_fraction: 0.1, load_ewma_alpha: 0.3, \
        home_boost: true, ns_op_cpu: 770.0us, provider_op_cpu: 4.50ms, client_op_cpu: 150.0us, \
        rpc_header_bytes: 120, rpc_timeout: 1.500s, backup_query_wait: 500.00ms, \
        ns_ship_interval: 50.00ms, ns_standby_grace: 400.00ms, repair_scan_interval: 1.000s }";

    /// The four documents `benchmark/src/cluster.rs` generates (a daemon
    /// with and without `data_dir`, a client with and without the
    /// pipelining knobs) parse to what they parsed to before the
    /// constructors existed: the expected strings were printed by the
    /// parent commit's parsers, so no default drifted on the way into
    /// `new`.
    #[test]
    fn the_benchmarks_documents_parse_as_they_did_at_the_parent() {
        const PEERS: &str = r#"[{"id":0,"addr":"127.0.0.1:7400","machine":0},{"id":1,"addr":"127.0.0.1:7401","machine":1}]"#;
        const PEERS_DBG: &str = "[PeerSpec { id: n0, addr: \"127.0.0.1:7400\", machine: 0 }, \
            PeerSpec { id: n1, addr: \"127.0.0.1:7401\", machine: 1 }]";
        for (doc_dir, dbg_dir) in [("", "None"), (r#","data_dir":"/tmp/p2""#, "Some(\"/tmp/p2\")")] {
            let doc = format!(
                r#"{{"node_id":2,"role":"provider","listen":"127.0.0.1:7402","seed":902,"capacity":8589934592,"costs":"fast_test","peers":{PEERS}{doc_dir}}}"#
            );
            let want = format!(
                "DaemonConfig {{ node_id: n2, role: Provider, listen: \"127.0.0.1:7402\", \
                 data_dir: {dbg_dir}, seed: 902, capacity: 8589934592, machine: 2, rack: 2, \
                 costs: {FAST_TEST}, chaos: ChaosConfig {{ seed: 0, drop_permille: 0, \
                 dup_permille: 0, delay_permille: 0, delay: 0ns, partition: [] }}, \
                 metrics_interval_ms: None, ns_map: [], \
                 ns_checkpoint_batches: None, membership: Heartbeat, \
                 peers: {PEERS_DBG} }}"
            );
            assert_eq!(format!("{:?}", DaemonConfig::parse(&doc).unwrap()), want);
        }
        for (doc_chunk, dbg_chunk) in
            [("", "None"), (r#","write_chunk":262144,"write_window":4"#, "Some(262144)")]
        {
            let doc = format!(
                r#"{{"namespace":0,"ctl_id":1001,"seed":5,"replication":3,"costs":"fast_test","peers":{PEERS}{doc_chunk}}}"#
            );
            let want = format!(
                "CtlConfig {{ ctl_id: n1001, namespace: n0, seed: 5, replication: 3, \
                 costs: {FAST_TEST}, write_chunk: {dbg_chunk}, write_window: 4, rpc_resends: 0, \
                 op_deadline_ms: None, ns_map: [], membership: Heartbeat, \
                 peers: {PEERS_DBG} }}"
            );
            assert_eq!(format!("{:?}", CtlConfig::parse(&doc).unwrap()), want);
        }
    }

    #[test]
    fn every_known_key_still_parses() {
        let daemon = r#"{"node_id": 4, "role": "standby", "listen": "h:1", "data_dir": "/d",
            "seed": 2, "capacity": 3, "machine": 5, "rack": 6, "costs": "fast_test",
            "chaos": {"seed": 7, "drop_permille": 8, "dup_permille": 9, "delay_permille": 10,
                      "delay_us": 11, "partition": [12, 17]},
            "metrics_interval_ms": 13,
            "ns_map": [{"primary": 0, "standby": null}, {"primary": 14, "standby": 4}],
            "ns_checkpoint_batches": 15, "membership": "swim",
            "peers": [{"id": 0, "addr": "h:0", "machine": 16}]}"#;
        let keys = |doc: &str| Json::parse(doc).unwrap().as_obj().unwrap().len();
        let n = NodeId::from_index;
        assert_eq!(keys(daemon), DAEMON_KEYS.len());
        let cfg = DaemonConfig::parse(daemon).unwrap();
        assert_eq!((cfg.node_id, cfg.role, cfg.listen.as_str()), (n(4), Role::Standby, "h:1"));
        assert_eq!((cfg.seed, cfg.capacity, cfg.machine, cfg.rack), (2, 3, 5, 6));
        assert_eq!(cfg.data_dir, Some(PathBuf::from("/d")));
        assert_eq!(cfg.costs.heartbeat_interval, CostModel::fast_test().heartbeat_interval);
        let c = &cfg.chaos;
        assert_eq!((c.seed, c.drop_permille, c.dup_permille, c.delay_permille), (7, 8, 9, 10));
        assert_eq!((c.delay, c.partition.clone()), (Duration::from_micros(11), vec![n(12), n(17)]));
        assert!(c.is_active());
        assert_eq!((cfg.metrics_interval_ms, cfg.ns_checkpoint_batches), (Some(13), Some(15)));
        assert_eq!(cfg.shard(), Some((1, 2)));
        assert_eq!((cfg.ns_map[0].primary, cfg.ns_map[0].standby), (n(0), None));
        assert_eq!((cfg.ns_map[1].primary, cfg.ns_map[1].standby), (n(14), Some(n(4))));
        assert_eq!(cfg.membership, MembershipMode::Swim);
        let peer = &cfg.peers[0];
        assert_eq!((peer.id, peer.addr.as_str(), peer.machine), (n(0), "h:0", 16));

        let ctl = r#"{"ctl_id": 1001, "namespace": 3, "seed": 2, "replication": 3,
            "costs": "fast_test", "write_chunk": 4, "write_window": 5, "rpc_resends": 6,
            "op_deadline_ms": 7, "ns_map": [{"primary": 0}], "membership": "swim",
            "peers": [{"id": 0, "addr": "h:0"}]}"#;
        assert_eq!(keys(ctl), CTL_KEYS.len());
        let cfg = CtlConfig::parse(ctl).unwrap();
        assert_eq!((cfg.ctl_id, cfg.namespace, cfg.seed, cfg.replication), (n(1001), n(3), 2, 3));
        assert_eq!(cfg.costs.heartbeat_interval, CostModel::fast_test().heartbeat_interval);
        assert_eq!((cfg.write_chunk, cfg.write_window), (Some(4), 5));
        assert_eq!((cfg.rpc_resends, cfg.op_deadline_ms), (6, Some(7)));
        assert_eq!((cfg.ns_map[0].primary, cfg.ns_map[0].standby), (n(0), None));
        assert_eq!(cfg.membership, MembershipMode::Swim);
        assert_eq!((cfg.peers[0].id, cfg.peers[0].machine), (n(0), 0));
    }

    #[test]
    fn an_unknown_key_is_refused_by_name_at_every_level() {
        let unknown = |key: &str| ConfigError::Unknown(key.to_string());
        for (extra, key) in [
            (r#", "membrship": "swim""#, "membrship"),
            (r#", "peers": [{"id": 0, "addr": "y", "rack": 1}]"#, "peers[].rack"),
            (r#", "ns_map": [{"primary": 0, "stanby": 1}]"#, "ns_map[].stanby"),
            (r#", "chaos": {"drop": 100}"#, "chaos.drop"),
            // A client knob in a daemon document is as unknown as a typo.
            (r#", "write_chunk": 262144"#, "write_chunk"),
            // Not a knob: the hash ring is the only SegID → home-host map.
            (r#", "location": "ring""#, "location"),
        ] {
            assert_eq!(daemon("provider", extra).unwrap_err(), unknown(key));
        }
        for (extra, key) in [
            (r#", "write_chunks": 262144"#, "write_chunks"),
            (r#", "location": "ring""#, "location"),
            (r#", "rack": 1"#, "rack"),
        ] {
            assert_eq!(ctl(extra).unwrap_err(), unknown(key));
        }
        let ctl = CtlConfig::parse(r#"{"namespace": 0, "peers": [{"id": 0, "adr": "y"}]}"#);
        assert_eq!(ctl.unwrap_err(), unknown("peers[].adr"));
        assert_eq!(unknown("chaos.drop").to_string(), "config has unknown key `chaos.drop`");
    }

    /// Every config document the docs show an operator: the `json` blocks
    /// of this file's own comments and the here-documents README.md and
    /// RUNBOOK.md feed to `cat`. A fragment (`{"chaos": …}`) is tried as
    /// part of a minimal daemon document.
    #[test]
    fn every_documented_config_parses() {
        fn parse_doc(doc: &str, from: &str) {
            let j = Json::parse(doc).unwrap_or_else(|e| panic!("{from}: {e:?} in {doc}"));
            let result = if j.get("namespace").is_some() {
                CtlConfig::parse(doc).map(drop)
            } else if j.get("node_id").is_some() {
                DaemonConfig::parse(doc).map(drop)
            } else {
                let mut full =
                    Json::obj().with("node_id", 1u64).with("role", "provider").with("listen", "x");
                for (k, v) in j.as_obj().expect("a fragment is an object") {
                    full.set(k, v.clone());
                }
                DaemonConfig::parse(&full.encode()).map(drop)
            };
            result.unwrap_or_else(|e| panic!("{from}: {e} in {doc}"));
        }
        /// The text between each line holding `open` and the next
        /// `close` line.
        fn blocks(text: &str, open: &str, close: &str) -> Vec<String> {
            let mut found = Vec::new();
            let mut lines = text.lines();
            while lines.any(|l| l.contains(open)) {
                let body: Vec<&str> = lines.by_ref().take_while(|l| l.trim() != close).collect();
                found.push(body.join("\n"));
            }
            found
        }

        let fence = "`".repeat(3);
        let comments: String = include_str!("config.rs")
            .lines()
            .filter_map(|l| l.trim_start().strip_prefix("//").map(|c| c.trim_start_matches(['/', '!'])))
            .collect::<Vec<_>>()
            .join("\n");
        let in_comments = blocks(&comments, &format!("{fence}json"), &fence);
        assert_eq!(in_comments.len(), 4, "config.rs documents four JSON shapes");
        for doc in in_comments {
            parse_doc(&doc, "config.rs");
        }

        let mut heredocs = 0;
        for (name, text) in [
            ("README.md", include_str!("../../../README.md")),
            ("RUNBOOK.md", include_str!("../../../RUNBOOK.md")),
        ] {
            for doc in blocks(text, &format!("{fence}json"), &fence) {
                parse_doc(&doc, name);
            }
            for doc in blocks(text, "<<", "EOF") {
                // The shell loops fill these in per node.
                let doc = doc.replace("$i", "1").replace("$role", "provider").replace("$dir", "null");
                parse_doc(&doc, name);
                heredocs += 1;
            }
        }
        assert_eq!(heredocs, 4, "README and RUNBOOK each boot a daemon and a client");
    }
}
