//! Boot, scrape, kill and reboot a loopback cluster of real in-process
//! daemons.
//!
//! Every config is built by `DaemonConfig::parse` / `CtlConfig::parse`
//! on JSON text and then adjusted through pub fields, never by a struct
//! literal, so a new config knob cannot break the benchmark.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use sorrento::costs::CostModel;
use sorrento::proto::Msg;
use sorrento_json::Json;
use sorrento_net::config::{CtlConfig, DaemonConfig};
use sorrento_net::daemon::{self, DaemonHandle};
use sorrento_net::tcp::{Mesh, MeshConfig};
use sorrento_sim::{Dur, NodeId};

/// The cost model every daemon and client runs: `fast_test` timers with
/// the migration decision pushed out of any run's reach, so background
/// migration never fires inside a measured phase.
pub const COSTS: &str = "fast_test";
const MIGRATION_INTERVAL: Dur = Dur::nanos(3_600_000_000_000);

/// The cost model as a client or daemon parses it, for code that builds
/// the state machines itself (the traced replay).
pub fn cost_model() -> CostModel {
    let doc = Json::obj()
        .with("namespace", 0u64)
        .with("costs", COSTS)
        .with("peers", Json::arr());
    let mut costs = CtlConfig::parse(&doc.encode())
        .expect("generated ctl config parses")
        .costs;
    costs.migration_interval = MIGRATION_INTERVAL;
    costs
}

/// First node id handed to clients; daemons are 0 (namespace) and
/// 1..=providers.
const CTL_ID_BASE: u64 = 1000;
/// Node id the scraping mesh joins as.
const SCRAPER_ID: usize = 1900;

/// Client-side knobs a workload chooses.
#[derive(Debug, Clone, Copy)]
pub struct ClientOpts {
    /// Default replication degree of created files.
    pub replication: u32,
    /// Pipelined bulk-write path on (`write_chunk` 256 KiB, window 4).
    pub pipelined: bool,
}

/// A running loopback cluster: node 0 is the namespace server, nodes
/// `1..=providers` are storage providers.
pub struct Cluster {
    addrs: Vec<SocketAddr>,
    handles: Vec<Option<DaemonHandle>>,
    /// Root under which provider `i` persists to `p<i>`; `None` keeps
    /// every store volatile.
    data_root: Option<PathBuf>,
}

impl Cluster {
    /// Bind ephemeral loopback ports and start every daemon.
    pub fn boot(providers: usize, data_root: Option<&Path>) -> io::Result<Cluster> {
        let listeners: Vec<TcpListener> = (0..=providers)
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<io::Result<_>>()?;
        let addrs = listeners
            .iter()
            .map(TcpListener::local_addr)
            .collect::<io::Result<_>>()?;
        let mut cluster = Cluster {
            addrs,
            handles: Vec::new(),
            data_root: data_root.map(Path::to_path_buf),
        };
        for (i, listener) in listeners.into_iter().enumerate() {
            let handle = daemon::spawn_with_listener(cluster.daemon_config(i)?, listener)?;
            cluster.handles.push(Some(handle));
        }
        Ok(cluster)
    }

    /// The address daemon `node` listens on.
    pub fn addr(&self, node: usize) -> SocketAddr {
        self.addrs[node]
    }

    fn peers_json(&self, except: Option<usize>) -> Json {
        let mut peers = Json::arr();
        for (i, addr) in self.addrs.iter().enumerate() {
            if Some(i) != except {
                peers.push(
                    Json::obj()
                        .with("id", i as u64)
                        .with("addr", addr.to_string().as_str())
                        .with("machine", i as u64),
                );
            }
        }
        peers
    }

    fn daemon_config(&self, i: usize) -> io::Result<DaemonConfig> {
        let mut doc = Json::obj()
            .with("node_id", i as u64)
            .with("role", if i == 0 { "namespace" } else { "provider" })
            .with("listen", self.addrs[i].to_string().as_str())
            .with("seed", 900 + i as u64)
            .with("capacity", 8u64 << 30)
            .with("costs", COSTS)
            .with("peers", self.peers_json(Some(i)));
        if let (Some(root), true) = (&self.data_root, i > 0) {
            let dir = root.join(format!("p{i}"));
            std::fs::create_dir_all(&dir)?;
            doc.set("data_dir", dir.to_string_lossy().as_ref());
        }
        let mut cfg = DaemonConfig::parse(&doc.encode())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        cfg.costs.migration_interval = MIGRATION_INTERVAL;
        Ok(cfg)
    }

    /// The config client number `client` (0-based) joins the mesh with.
    pub fn ctl_config(&self, client: usize, seed: u64, opts: ClientOpts) -> CtlConfig {
        let mut doc = Json::obj()
            .with("namespace", 0u64)
            .with("ctl_id", CTL_ID_BASE + client as u64)
            .with("seed", seed)
            .with("replication", u64::from(opts.replication))
            .with("costs", COSTS)
            .with("peers", self.peers_json(None));
        if opts.pipelined {
            doc.set("write_chunk", 256u64 * 1024);
            doc.set("write_window", 4u64);
        }
        let mut cfg = CtlConfig::parse(&doc.encode()).expect("generated ctl config parses");
        cfg.costs.migration_interval = MIGRATION_INTERVAL;
        cfg
    }

    /// Every daemon's `StatsQuery` snapshot, through one raw mesh session
    /// (a `ctl::fetch_stats` per daemon would pay a dial and, usually, a
    /// 300 ms re-send each).
    pub fn snapshot(&self) -> io::Result<Snapshot> {
        let nodes = (0..self.addrs.len()).map(NodeId::from_index);
        let mut mesh = raw_mesh(
            SCRAPER_ID,
            nodes.clone().zip(self.addrs.iter().copied()).collect(),
        )?;
        mesh.hello_all();
        let mut snaps = Vec::new();
        for (req, node) in nodes.enumerate() {
            let req = req as u64;
            let is_reply = |m: &Msg| matches!(m, Msg::StatsR { req: r, .. } if *r == req);
            let Msg::StatsR { json, .. } =
                round_trip(&mut mesh, node, &Msg::StatsQuery { req }, is_reply)?
            else {
                unreachable!("round_trip returns only what is_reply accepted");
            };
            snaps.push(
                Json::parse(&json).map_err(|_| io::Error::other("stats snapshot is not JSON"))?,
            );
        }
        Ok(Snapshot(snaps))
    }

    /// Σ of the providers' `stored_bytes` gauges once they have settled:
    /// a provider refreshes the gauge on its heartbeat tick, so snapshots
    /// are taken until two in a row agree.
    pub fn stored_bytes(&self) -> io::Result<u64> {
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut last = self.snapshot()?.stored_bytes();
        loop {
            std::thread::sleep(Duration::from_millis(300));
            let now = self.snapshot()?.stored_bytes();
            if now == last || Instant::now() > deadline {
                return Ok(now);
            }
            last = now;
        }
    }

    /// Crash every provider (no final persistence sweep), as `SIGKILL`
    /// would.
    pub fn kill_providers(&mut self) -> io::Result<()> {
        for h in self.handles.iter_mut().skip(1) {
            if let Some(h) = h.take() {
                h.kill()?;
            }
        }
        Ok(())
    }

    /// Restart every provider on its old address and data directory.
    pub fn reboot_providers(&mut self) -> io::Result<()> {
        for i in 1..self.addrs.len() {
            let listener = bind_retry(self.addrs[i])?;
            self.handles[i] = Some(daemon::spawn_with_listener(
                self.daemon_config(i)?,
                listener,
            )?);
        }
        Ok(())
    }

    /// Stop every daemon and join its threads.
    pub fn stop(mut self) -> io::Result<()> {
        for h in self.handles.iter_mut() {
            if let Some(h) = h.take() {
                h.stop()?;
            }
        }
        Ok(())
    }
}

/// One `StatsQuery` snapshot per daemon, indexed by node.
pub struct Snapshot(Vec<Json>);

impl Snapshot {
    /// Sum over every daemon of one labeled counter
    /// (`labeled.<name>.<label>`).
    pub fn labeled_total(&self, name: &str, label: &str) -> u64 {
        self.0
            .iter()
            .filter_map(|s| s.get("labeled")?.get(name)?.get(label)?.as_u64())
            .sum()
    }

    fn gauge_total(&self, name: impl Fn(usize) -> String) -> u64 {
        let gauge = |(i, s): (usize, &Json)| s.get("gauges")?.get(&name(i))?.as_f64();
        self.0.iter().enumerate().filter_map(gauge).sum::<f64>() as u64
    }

    /// `[send_failures, dropped_inbox_full, epollout_waits]` summed over
    /// every daemon's mesh.
    pub fn mesh_counters(&self) -> [u64; 3] {
        [
            "net_send_failures",
            "net_dropped_inbox_full",
            "net_epollout_waits",
        ]
        .map(|name| self.gauge_total(|_| name.to_string()))
    }

    /// Sum of the providers' `stored_bytes` gauges.
    pub fn stored_bytes(&self) -> u64 {
        self.gauge_total(|i| format!("n{i}.stored_bytes"))
    }
}

/// A bare mesh on an ephemeral loopback port: how probes and scrapes
/// talk to daemons without a client state machine.
pub fn raw_mesh(id: usize, peers: HashMap<NodeId, SocketAddr>) -> io::Result<Mesh> {
    Mesh::start(
        NodeId::from_index(id),
        TcpListener::bind("127.0.0.1:0")?,
        peers,
        MeshConfig::default(),
    )
}

/// How long to wait for one reply before re-sending: the transport is
/// lossy by design (a frame sent while the connection is still being
/// dialled can be dropped).
const RESEND_EVERY: Duration = Duration::from_millis(300);

/// Send `msg` to `peer` and block until `is_reply` accepts an inbound
/// message, which is returned; re-sends on silence. Anything else that
/// arrives meanwhile (a daemon's heartbeats) is discarded.
pub fn round_trip(
    mesh: &mut Mesh,
    peer: NodeId,
    msg: &Msg,
    is_reply: impl Fn(&Msg) -> bool,
) -> io::Result<Msg> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        mesh.send(peer, msg);
        let resend_at = Instant::now() + RESEND_EVERY;
        while Instant::now() < resend_at {
            match mesh.recv_timeout(Duration::from_millis(50)) {
                Some((_, reply)) if is_reply(&reply) => return Ok(reply),
                _ => {}
            }
        }
        if Instant::now() > deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "peer never answered",
            ));
        }
    }
}

/// Rebind an address a just-joined daemon thread released.
fn bind_retry(addr: SocketAddr) -> io::Result<TcpListener> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match TcpListener::bind(addr) {
            Ok(l) => return Ok(l),
            Err(e) if Instant::now() > deadline => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}
