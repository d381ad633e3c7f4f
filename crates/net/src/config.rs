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

use std::path::PathBuf;
use std::time::Duration;

use crate::chaos::ChaosConfig;
use sorrento::costs::CostModel;
use sorrento::locator::LocationScheme;
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
    /// Which namespace shard this node serves (namespace/standby roles).
    pub shard: u32,
    /// Total namespace shard count (1 = classic unsharded deployment).
    pub ns_shards: u32,
    /// The namespace shard map: per-shard primary and optional standby
    /// node ids, in shard order. Empty means unsharded.
    pub ns_map: Vec<ShardInfo>,
    /// Checkpoint the namespace kvdb every this many applied batches
    /// (bounds the WAL tail a standby replays at failover).
    pub ns_checkpoint_batches: Option<u64>,
    /// How providers learn about each other: `"heartbeat"` (default,
    /// periodic multicast) or `"swim"` (gossip failure detector with
    /// indirect probes and suspect/confirm).
    pub membership: MembershipMode,
    /// Segment-home location strategy: `"ring"` (default, consistent
    /// hashing), `"rendezvous"` (highest random weight) or `"asura"`
    /// (seeded random walk over a slot table).
    pub location: LocationScheme,
    /// Seed peers.
    pub peers: Vec<PeerSpec>,
}

/// Why a config failed to parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// The file is not valid JSON.
    BadJson,
    /// A required field is absent.
    Missing(&'static str),
    /// A field has the wrong type or an unknown value.
    Invalid(&'static str),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::BadJson => f.write_str("config is not valid JSON"),
            ConfigError::Missing(name) => write!(f, "config missing field `{name}`"),
            ConfigError::Invalid(name) => write!(f, "config field `{name}` is invalid"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl DaemonConfig {
    /// Parse a config document.
    pub fn parse(text: &str) -> Result<DaemonConfig, ConfigError> {
        let j = Json::parse(text).map_err(|_| ConfigError::BadJson)?;
        let node_id = req_u64(&j, "node_id")? as usize;
        let role = match req_str(&j, "role")? {
            "namespace" => Role::Namespace,
            "standby" => Role::Standby,
            "provider" => Role::Provider,
            _ => return Err(ConfigError::Invalid("role")),
        };
        let listen = req_str(&j, "listen")?.to_string();
        let data_dir = match j.get("data_dir") {
            None | Some(Json::Null) => None,
            Some(v) => Some(PathBuf::from(
                v.as_str().ok_or(ConfigError::Invalid("data_dir"))?,
            )),
        };
        let costs = match j.get("costs") {
            None => CostModel::default(),
            Some(v) => match v.as_str().ok_or(ConfigError::Invalid("costs"))? {
                "default" => CostModel::default(),
                "fast_test" => CostModel::fast_test(),
                _ => return Err(ConfigError::Invalid("costs")),
            },
        };
        let mut peers = Vec::new();
        if let Some(arr) = j.get("peers") {
            for p in arr.as_arr().ok_or(ConfigError::Invalid("peers"))? {
                peers.push(PeerSpec {
                    id: NodeId::from_index(req_u64(p, "id")? as usize),
                    addr: req_str(p, "addr")?.to_string(),
                    machine: opt_u64(p, "machine")?.unwrap_or(0) as u32,
                });
            }
        }
        let chaos = parse_chaos(&j)?;
        let ns_map = parse_ns_map(&j)?;
        Ok(DaemonConfig {
            node_id: NodeId::from_index(node_id),
            role,
            listen,
            data_dir,
            seed: opt_u64(&j, "seed")?.unwrap_or(1),
            capacity: opt_u64(&j, "capacity")?.unwrap_or(8 << 30),
            machine: opt_u64(&j, "machine")?.unwrap_or(node_id as u64) as u32,
            rack: opt_u64(&j, "rack")?.unwrap_or(node_id as u64) as u32,
            costs,
            chaos,
            metrics_interval_ms: opt_u64(&j, "metrics_interval_ms")?,
            shard: opt_u64(&j, "shard")?.unwrap_or(0) as u32,
            ns_shards: opt_u64(&j, "ns_shards")?.unwrap_or(1).max(1) as u32,
            ns_map,
            ns_checkpoint_batches: opt_u64(&j, "ns_checkpoint_batches")?,
            membership: parse_membership(&j)?,
            location: parse_location(&j)?,
            peers,
        })
    }
}

/// Parse the optional `"membership"` knob (`"heartbeat"` | `"swim"`).
fn parse_membership(j: &Json) -> Result<MembershipMode, ConfigError> {
    match j.get("membership") {
        None | Some(Json::Null) => Ok(MembershipMode::Heartbeat),
        Some(v) => match v.as_str().ok_or(ConfigError::Invalid("membership"))? {
            "heartbeat" => Ok(MembershipMode::Heartbeat),
            "swim" => Ok(MembershipMode::Swim),
            _ => Err(ConfigError::Invalid("membership")),
        },
    }
}

/// Parse the optional `"location"` knob (`"ring"` | `"rendezvous"` |
/// `"asura"`).
fn parse_location(j: &Json) -> Result<LocationScheme, ConfigError> {
    match j.get("location") {
        None | Some(Json::Null) => Ok(LocationScheme::Ring),
        Some(v) => LocationScheme::parse(v.as_str().ok_or(ConfigError::Invalid("location"))?)
            .ok_or(ConfigError::Invalid("location")),
    }
}

/// Parse an optional `"ns_map"` array — the namespace shard map, one
/// row per shard in shard order:
///
/// ```json
/// { "ns_map": [ { "primary": 0, "standby": 5 }, { "primary": 1 } ] }
/// ```
fn parse_ns_map(j: &Json) -> Result<Vec<ShardInfo>, ConfigError> {
    let Some(arr) = j.get("ns_map") else { return Ok(Vec::new()) };
    let mut rows = Vec::new();
    for row in arr.as_arr().ok_or(ConfigError::Invalid("ns_map"))? {
        let standby = match row.get("standby") {
            None | Some(Json::Null) => None,
            Some(v) => Some(NodeId::from_index(
                v.as_u64().ok_or(ConfigError::Invalid("ns_map.standby"))? as usize,
            )),
        };
        rows.push(ShardInfo {
            primary: NodeId::from_index(req_u64(row, "primary")? as usize),
            standby,
        });
    }
    Ok(rows)
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
fn parse_chaos(j: &Json) -> Result<ChaosConfig, ConfigError> {
    let Some(c) = j.get("chaos") else { return Ok(ChaosConfig::default()) };
    if matches!(c, Json::Null) {
        return Ok(ChaosConfig::default());
    }
    let mut partition = Vec::new();
    if let Some(arr) = c.get("partition") {
        for id in arr.as_arr().ok_or(ConfigError::Invalid("chaos.partition"))? {
            partition.push(NodeId::from_index(
                id.as_u64().ok_or(ConfigError::Invalid("chaos.partition"))? as usize,
            ));
        }
    }
    Ok(ChaosConfig {
        seed: opt_u64(c, "seed")?.unwrap_or(0),
        drop_permille: opt_u64(c, "drop_permille")?.unwrap_or(0) as u32,
        dup_permille: opt_u64(c, "dup_permille")?.unwrap_or(0) as u32,
        delay_permille: opt_u64(c, "delay_permille")?.unwrap_or(0) as u32,
        delay: Duration::from_micros(opt_u64(c, "delay_us")?.unwrap_or(0)),
        partition,
    })
}

/// What `sorrentoctl` needs to talk to a cluster: where the daemons
/// are and which one is the namespace server.
#[derive(Debug, Clone)]
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
    /// Cluster location strategy — must match the daemons' `location`
    /// knob so client-side segment homing agrees with the providers.
    pub location: LocationScheme,
    /// All daemons in the cluster.
    pub peers: Vec<PeerSpec>,
}

impl CtlConfig {
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
        let mut peers = Vec::new();
        for p in j
            .get("peers")
            .ok_or(ConfigError::Missing("peers"))?
            .as_arr()
            .ok_or(ConfigError::Invalid("peers"))?
        {
            peers.push(PeerSpec {
                id: NodeId::from_index(req_u64(p, "id")? as usize),
                addr: req_str(p, "addr")?.to_string(),
                machine: opt_u64(p, "machine")?.unwrap_or(0) as u32,
            });
        }
        let costs = match j.get("costs") {
            None => CostModel::default(),
            Some(v) => match v.as_str().ok_or(ConfigError::Invalid("costs"))? {
                "default" => CostModel::default(),
                "fast_test" => CostModel::fast_test(),
                _ => return Err(ConfigError::Invalid("costs")),
            },
        };
        Ok(CtlConfig {
            ctl_id: NodeId::from_index(opt_u64(&j, "ctl_id")?.unwrap_or(1000) as usize),
            namespace: NodeId::from_index(req_u64(&j, "namespace")? as usize),
            seed: opt_u64(&j, "seed")?.unwrap_or(1),
            replication: opt_u64(&j, "replication")?.unwrap_or(1) as u32,
            costs,
            write_chunk: opt_u64(&j, "write_chunk")?,
            write_window: opt_u64(&j, "write_window")?.unwrap_or(4) as usize,
            rpc_resends: opt_u64(&j, "rpc_resends")?.unwrap_or(0) as u32,
            op_deadline_ms: opt_u64(&j, "op_deadline_ms")?,
            ns_map: parse_ns_map(&j)?,
            membership: parse_membership(&j)?,
            location: parse_location(&j)?,
            peers,
        })
    }
}

fn req_str<'a>(j: &'a Json, name: &'static str) -> Result<&'a str, ConfigError> {
    j.get(name)
        .ok_or(ConfigError::Missing(name))?
        .as_str()
        .ok_or(ConfigError::Invalid(name))
}

fn req_u64(j: &Json, name: &'static str) -> Result<u64, ConfigError> {
    j.get(name)
        .ok_or(ConfigError::Missing(name))?
        .as_u64()
        .ok_or(ConfigError::Invalid(name))
}

fn opt_u64(j: &Json, name: &'static str) -> Result<Option<u64>, ConfigError> {
    match j.get(name) {
        None => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or(ConfigError::Invalid(name)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let cfg = DaemonConfig::parse(
            r#"{"node_id": 2, "role": "provider", "listen": "127.0.0.1:0",
                "chaos": {"seed": 9, "drop_permille": 100, "delay_us": 2000,
                          "partition": [3, 4]}}"#,
        )
        .unwrap();
        assert_eq!(cfg.chaos.seed, 9);
        assert_eq!(cfg.chaos.drop_permille, 100);
        assert_eq!(cfg.chaos.delay, Duration::from_micros(2000));
        assert_eq!(cfg.chaos.partition, vec![NodeId::from_index(3), NodeId::from_index(4)]);
        assert!(cfg.chaos.is_active());

        let ctl = CtlConfig::parse(
            r#"{"namespace": 0, "rpc_resends": 2, "op_deadline_ms": 1500,
                "peers": [{"id": 0, "addr": "127.0.0.1:7400"}]}"#,
        )
        .unwrap();
        assert_eq!(ctl.rpc_resends, 2);
        assert_eq!(ctl.op_deadline_ms, Some(1500));
        // Both default to off.
        let ctl = CtlConfig::parse(
            r#"{"namespace": 0, "peers": [{"id": 0, "addr": "x"}]}"#,
        )
        .unwrap();
        assert_eq!(ctl.rpc_resends, 0);
        assert_eq!(ctl.op_deadline_ms, None);
    }

    #[test]
    fn parses_metadata_plane_knobs() {
        let cfg = DaemonConfig::parse(
            r#"{"node_id": 5, "role": "standby", "listen": "127.0.0.1:0",
                "shard": 1, "ns_shards": 2, "ns_checkpoint_batches": 256,
                "ns_map": [{"primary": 0, "standby": 4}, {"primary": 1, "standby": 5}]}"#,
        )
        .unwrap();
        assert_eq!(cfg.role, Role::Standby);
        assert_eq!((cfg.shard, cfg.ns_shards), (1, 2));
        assert_eq!(cfg.ns_checkpoint_batches, Some(256));
        assert_eq!(cfg.ns_map.len(), 2);
        assert_eq!(cfg.ns_map[1].primary, NodeId::from_index(1));
        assert_eq!(cfg.ns_map[1].standby, Some(NodeId::from_index(5)));

        // Defaults keep the classic unsharded deployment.
        let cfg = DaemonConfig::parse(
            r#"{"node_id": 0, "role": "namespace", "listen": "127.0.0.1:0"}"#,
        )
        .unwrap();
        assert_eq!((cfg.shard, cfg.ns_shards), (0, 1));
        assert!(cfg.ns_map.is_empty());
        assert_eq!(cfg.ns_checkpoint_batches, None);

        let ctl = CtlConfig::parse(
            r#"{"namespace": 0, "ns_map": [{"primary": 0}, {"primary": 1}],
                "peers": [{"id": 0, "addr": "x"}, {"id": 1, "addr": "y"}]}"#,
        )
        .unwrap();
        assert_eq!(ctl.ns_map.len(), 2);
        assert_eq!(ctl.ns_map[0].standby, None);
    }

    #[test]
    fn parses_membership_and_location_knobs() {
        let cfg = DaemonConfig::parse(
            r#"{"node_id": 2, "role": "provider", "listen": "127.0.0.1:0",
                "membership": "swim", "location": "rendezvous"}"#,
        )
        .unwrap();
        assert_eq!(cfg.membership, MembershipMode::Swim);
        assert_eq!(cfg.location, LocationScheme::Rendezvous);

        // Defaults keep the classic heartbeat + ring deployment.
        let cfg = DaemonConfig::parse(
            r#"{"node_id": 2, "role": "provider", "listen": "127.0.0.1:0"}"#,
        )
        .unwrap();
        assert_eq!(cfg.membership, MembershipMode::Heartbeat);
        assert_eq!(cfg.location, LocationScheme::Ring);

        let ctl = CtlConfig::parse(
            r#"{"namespace": 0, "membership": "swim", "location": "asura",
                "peers": [{"id": 0, "addr": "x"}]}"#,
        )
        .unwrap();
        assert_eq!(ctl.membership, MembershipMode::Swim);
        assert_eq!(ctl.location, LocationScheme::Asura);

        assert_eq!(
            DaemonConfig::parse(
                r#"{"node_id": 2, "role": "provider", "listen": "x",
                    "membership": "carrier-pigeon"}"#,
            )
            .unwrap_err(),
            ConfigError::Invalid("membership")
        );
        assert_eq!(
            DaemonConfig::parse(
                r#"{"node_id": 2, "role": "provider", "listen": "x",
                    "location": "phonebook"}"#,
            )
            .unwrap_err(),
            ConfigError::Invalid("location")
        );
    }

    #[test]
    fn errors_name_the_field() {
        assert_eq!(
            DaemonConfig::parse(r#"{"role": "provider", "listen": "x"}"#).unwrap_err(),
            ConfigError::Missing("node_id")
        );
        assert_eq!(
            DaemonConfig::parse(r#"{"node_id": 1, "role": "president", "listen": "x"}"#)
                .unwrap_err(),
            ConfigError::Invalid("role")
        );
        assert_eq!(DaemonConfig::parse("not json").unwrap_err(), ConfigError::BadJson);
    }
}
