//! A loopback cluster of real in-process daemons, for every test, drill
//! and bench that needs one.
//!
//! [`LoopbackCluster`] hides what each of them used to spell out: binding
//! every listener *before* any daemon boots (so every peer list carries
//! real addresses), building each node's peer list, rebinding a stopped
//! node's address until the kernel lets go of it, the raw-mesh session a
//! stats scrape rides on, and where a provider's `data_dir` is (what is
//! in it, [`crate::disk::KvDisk`] alone knows).
//!
//! The builder has methods only for what changes the cluster's *shape*
//! (how many providers, whether they persist, how the namespace is
//! sharded). Everything else is a field of [`DaemonConfig`], written
//! through the one [`Builder::each_daemon`] hook — a new config field
//! needs no change here.
//!
//! ```no_run
//! use sorrento_net::testkit::LoopbackCluster;
//! let mut cluster = LoopbackCluster::builder(3).boot()?;
//! let ctl = cluster.ctl();       // run scripts with `ctl::run_script(&ctl, …)`
//! cluster.kill(2)?;              // crash provider 2 …
//! cluster.restart(2)?;           // … and bring it back on the same address
//! cluster.shutdown()?;
//! # Ok::<(), std::io::Error>(())
//! ```

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use sorrento::api::FsScript;
use sorrento::costs::CostModel;
use sorrento::nsmap::ShardInfo;
use sorrento::proto::Msg;
use sorrento::store::{SegmentDisk, Transfer};
use sorrento::types::Error;
use sorrento_json::Json;
use sorrento_sim::NodeId;

use crate::chaos::ChaosConfig;
use crate::config::{CtlConfig, DaemonConfig, PeerSpec, Role};
use crate::ctl::{self, CtlError, ScriptOutcome};
use crate::daemon::{self, DaemonHandle};
use crate::disk::KvDisk;
use crate::tcp::{Mesh, MeshConfig};

/// Node id the scraping mesh joins as (clear of daemons and of
/// [`CtlConfig::ctl_id`]).
const SCRAPER_ID: usize = 1900;
/// How long one query waits for its reply before it is re-sent: the
/// transport is lossy by design (a frame sent while the connection is
/// still being dialled can be dropped, and drills inject loss on top).
const RESEND_EVERY: Duration = Duration::from_millis(300);
/// How long one query is re-sent before the node is given up on.
const QUERY_TIMEOUT: Duration = Duration::from_secs(10);
/// Pause between the snapshots a [`LoopbackCluster::wait`] takes.
const WAIT_POLL: Duration = Duration::from_millis(100);
/// How long a stopped daemon's address may stay unbindable.
const REBIND_TIMEOUT: Duration = Duration::from_secs(10);
/// Deadline of one attempt inside [`run_until`]; a drill's ops carry
/// their own, shorter one, so an attempt still running by then has hung.
const ATTEMPT: Duration = Duration::from_secs(25);

type DaemonHook = Box<dyn Fn(usize, &mut DaemonConfig)>;

/// What shape of cluster to boot; see [`LoopbackCluster::builder`].
pub struct Builder {
    providers: usize,
    shards: usize,
    data_root: Option<PathBuf>,
    hook: Option<DaemonHook>,
}

impl Builder {
    /// Give provider node `i` the persistent `data_dir` `root/p<i>`
    /// (created if missing; what is already there is kept, which is what
    /// lets a restart find it). Namespace nodes stay volatile.
    pub fn data_root(mut self, root: impl Into<PathBuf>) -> Builder {
        self.data_root = Some(root.into());
        self
    }

    /// Partition the namespace over `shards` primaries, each with a hot
    /// standby: nodes `0..shards` are the primaries, `shards..2*shards`
    /// their standbys, and the providers follow.
    pub fn sharded_namespace(mut self, shards: usize) -> Builder {
        self.shards = shards;
        self
    }

    /// Adjust every daemon's config before it boots: `hook(i, cfg)` runs
    /// once per node with the kit's config for node `i` (`fast_test`
    /// costs, seed `100 + i`, 1 GiB capacity, role, shard map and peer
    /// list filled in) and may write any field. The config is kept, so a
    /// [`LoopbackCluster::restart`] boots the same one.
    pub fn each_daemon(mut self, hook: impl Fn(usize, &mut DaemonConfig) + 'static) -> Builder {
        self.hook = Some(Box::new(hook));
        self
    }

    /// Bind an ephemeral loopback port per node, then start every daemon.
    pub fn boot(self) -> io::Result<LoopbackCluster> {
        let ns_nodes = if self.shards == 0 { 1 } else { 2 * self.shards };
        let listeners: Vec<TcpListener> = (0..ns_nodes + self.providers)
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<io::Result<_>>()?;
        let addrs: Vec<SocketAddr> =
            listeners.iter().map(TcpListener::local_addr).collect::<io::Result<_>>()?;
        let peers: Vec<PeerSpec> = addrs
            .iter()
            .enumerate()
            .map(|(i, a)| PeerSpec {
                id: NodeId::from_index(i),
                addr: a.to_string(),
                machine: i as u32,
            })
            .collect();
        let ns_map: Vec<ShardInfo> = (0..self.shards)
            .map(|k| ShardInfo {
                primary: NodeId::from_index(k),
                standby: Some(NodeId::from_index(self.shards + k)),
            })
            .collect();

        let mut configs = Vec::with_capacity(peers.len());
        for (i, me) in peers.iter().enumerate() {
            let role = match i {
                i if i >= ns_nodes => Role::Provider,
                i if i >= self.shards.max(1) => Role::Standby,
                _ => Role::Namespace,
            };
            let mut cfg = DaemonConfig::new(me.id, role, me.addr.clone());
            cfg.seed = 100 + i as u64;
            cfg.capacity = 1 << 30;
            cfg.costs = CostModel::fast_test();
            cfg.ns_map = ns_map.clone();
            cfg.peers = peers.iter().filter(|p| p.id != me.id).cloned().collect();
            if let (Role::Provider, Some(root)) = (role, &self.data_root) {
                let dir = root.join(format!("p{i}"));
                std::fs::create_dir_all(&dir)?;
                cfg.data_dir = Some(dir);
            }
            if let Some(hook) = &self.hook {
                hook(i, &mut cfg);
            }
            configs.push(cfg);
        }

        let mut handles = Vec::with_capacity(configs.len());
        for (cfg, listener) in configs.iter().zip(listeners) {
            handles.push(Some(daemon::spawn_with_listener(cfg.clone(), listener)?));
        }
        let providers = ns_nodes..addrs.len();
        Ok(LoopbackCluster { addrs, peers, configs, handles, providers })
    }
}

/// A running loopback cluster. Unsharded, node 0 is the namespace server
/// and nodes `1..=providers` are the storage providers; see
/// [`Builder::sharded_namespace`] for the other layout. Dropping it
/// stops whatever still runs.
pub struct LoopbackCluster {
    addrs: Vec<SocketAddr>,
    peers: Vec<PeerSpec>,
    configs: Vec<DaemonConfig>,
    /// `None` while a node is down.
    handles: Vec<Option<DaemonHandle>>,
    providers: Range<usize>,
}

impl LoopbackCluster {
    /// A cluster of one namespace server and `providers` volatile storage
    /// providers, unless the builder's methods say otherwise.
    pub fn builder(providers: usize) -> Builder {
        Builder { providers, shards: 0, data_root: None, hook: None }
    }

    /// The node indices of every daemon, running or not.
    pub fn nodes(&self) -> Range<usize> {
        0..self.addrs.len()
    }

    /// The node indices of the storage providers.
    pub fn providers(&self) -> Range<usize> {
        self.providers.clone()
    }

    /// The address daemon `i` listens on, before and after a restart.
    pub fn addr(&self, i: usize) -> SocketAddr {
        self.addrs[i]
    }

    /// Daemon `i`'s `data_dir`, where its flight dump and `metrics.jsonl`
    /// land; for the segments in it see [`LoopbackCluster::disk_images`].
    pub fn data_dir(&self, i: usize) -> Option<&Path> {
        self.configs[i].data_dir.as_deref()
    }

    /// A client config over every daemon, agreeing with them on cost
    /// model, membership mode and shard map. Callers write the
    /// client-side fields (`replication`, `rpc_resends`, …) they care
    /// about.
    pub fn ctl(&self) -> CtlConfig {
        let mut ctl = CtlConfig::new(NodeId::from_index(0), self.peers.clone());
        // Daemons are expected to agree on these; a provider's say wins.
        let like = &self.configs[self.configs.len() - 1];
        ctl.costs = like.costs;
        ctl.membership = like.membership;
        ctl.ns_map = like.ns_map.clone();
        ctl
    }

    fn take(&mut self, i: usize) -> io::Result<DaemonHandle> {
        let down = || io::Error::new(io::ErrorKind::InvalidInput, format!("node {i} is not running"));
        self.handles[i].take().ok_or_else(down)
    }

    /// Crash daemon `i` as `SIGKILL` would: no final persist.
    pub fn kill(&mut self, i: usize) -> io::Result<()> {
        self.take(i)?.kill()
    }

    /// Stop daemon `i` cleanly (final persist and checkpoint
    /// included) and join its threads.
    pub fn stop(&mut self, i: usize) -> io::Result<()> {
        self.take(i)?.stop()
    }

    /// Boot daemon `i` again on its old address, config and `data_dir`.
    pub fn restart(&mut self, i: usize) -> io::Result<()> {
        if self.handles[i].is_some() {
            let up = format!("node {i} is still running");
            return Err(io::Error::new(io::ErrorKind::InvalidInput, up));
        }
        // The address is free once the old daemon's threads are joined,
        // but the kernel may take a moment to agree.
        let until = Instant::now() + REBIND_TIMEOUT;
        let listener = loop {
            match TcpListener::bind(self.addrs[i]) {
                Ok(l) => break l,
                Err(e) if Instant::now() > until => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        };
        self.handles[i] = Some(daemon::spawn_with_listener(self.configs[i].clone(), listener)?);
        Ok(())
    }

    /// Stop every running daemon cleanly and join its threads.
    pub fn shutdown(mut self) -> io::Result<()> {
        for i in self.nodes() {
            if self.handles[i].is_some() {
                self.stop(i)?;
            }
        }
        Ok(())
    }

    /// Install fault-injection rules on running daemon `i` (they shape the
    /// frames it *sends*); an all-zero `rules` uninstalls them. A restart
    /// boots without them.
    pub fn chaos(&self, i: usize, rules: &ChaosConfig) -> io::Result<()> {
        ctl::set_chaos(&self.ctl(), NodeId::from_index(i), rules, QUERY_TIMEOUT)
            .map_err(|e| io::Error::other(format!("chaos rules for node {i}: {e}")))
    }

    /// Every running daemon's `StatsQuery` snapshot, over one raw mesh
    /// session (a `ctl::fetch_stats` per daemon would pay a dial and,
    /// usually, a re-send each).
    pub fn snapshot(&self) -> io::Result<Snapshot> {
        Scraper::open(self)?.scrape(self)
    }

    /// Take snapshots until `done` accepts one, which is returned. Past
    /// `deadline` the result is a `TimedOut` error that says `what` was
    /// being waited for.
    pub fn wait(
        &self,
        what: &str,
        deadline: Duration,
        mut done: impl FnMut(&Snapshot) -> bool,
    ) -> io::Result<Snapshot> {
        let until = Instant::now() + deadline;
        let mut scraper = Scraper::open(self)?;
        loop {
            let snap = scraper.scrape(self)?;
            if done(&snap) {
                return Ok(snap);
            }
            if Instant::now() >= until {
                let late = format!("{what}: not seen within {deadline:?}");
                return Err(io::Error::new(io::ErrorKind::TimedOut, late));
            }
            std::thread::sleep(WAIT_POLL);
        }
    }

    /// The segment images, each with its piece table, that stopped
    /// provider `i` left in its `data_dir`, as its [`KvDisk`] loads them;
    /// a value that is no image is an `InvalidData` error.
    /// Only a stopped node's directory may be opened: opening replays
    /// and may truncate the log a running daemon is appending to.
    pub fn disk_images(&self, i: usize) -> io::Result<Vec<Transfer>> {
        let invalid = |why: String| io::Error::new(io::ErrorKind::InvalidInput, why);
        if self.handles[i].is_some() {
            return Err(invalid(format!("node {i} is still running")));
        }
        let dir = self.data_dir(i).ok_or_else(|| invalid(format!("node {i} has no data_dir")))?;
        let images = KvDisk::open(dir)?.load().into_iter();
        images.map(|x| x.map_err(|why| io::Error::new(io::ErrorKind::InvalidData, why))).collect()
    }
}

/// A bare mesh that asks daemons what their loops answer themselves.
struct Scraper {
    mesh: Mesh,
    next_req: u64,
}

impl Scraper {
    fn open(cluster: &LoopbackCluster) -> io::Result<Scraper> {
        let peers = cluster.peers.iter().map(|p| p.id).zip(cluster.addrs.iter().copied()).collect();
        let mut mesh = Mesh::start(
            NodeId::from_index(SCRAPER_ID),
            TcpListener::bind("127.0.0.1:0")?,
            peers,
            MeshConfig,
        )?;
        mesh.hello_all();
        Ok(Scraper { mesh, next_req: 0 })
    }

    /// One `StatsQuery` round trip per running daemon, re-sent on silence;
    /// whatever else arrives meanwhile (heartbeats) is discarded.
    fn scrape(&mut self, cluster: &LoopbackCluster) -> io::Result<Snapshot> {
        let running = cluster.handles.iter().enumerate();
        let snaps = running.map(|(i, h)| h.as_ref().map(|_| self.stats_of(i)).transpose());
        Ok(Snapshot(snaps.collect::<io::Result<_>>()?))
    }

    fn stats_of(&mut self, i: usize) -> io::Result<Json> {
        self.next_req += 1;
        let req = self.next_req;
        let until = Instant::now() + QUERY_TIMEOUT;
        while Instant::now() < until {
            self.mesh.send(NodeId::from_index(i), &Msg::StatsQuery { req });
            let resend_at = Instant::now() + RESEND_EVERY;
            while let Some(left) = resend_at.checked_duration_since(Instant::now()) {
                match self.mesh.recv_timeout(left) {
                    Some((_, Msg::StatsR { req: r, json })) if r == req => {
                        return Json::parse(&json)
                            .map_err(|_| io::Error::other(format!("node {i}: stats are not JSON")));
                    }
                    _ => {}
                }
            }
        }
        Err(io::Error::new(io::ErrorKind::TimedOut, format!("node {i} never answered a StatsQuery")))
    }
}

/// One `StatsQuery` snapshot per daemon, indexed by node; a node that was
/// down has none.
pub struct Snapshot(Vec<Option<Json>>);

impl Snapshot {
    /// Node `i`'s whole snapshot document (`None` if it was down).
    pub fn node(&self, i: usize) -> Option<&Json> {
        self.0.get(i)?.as_ref()
    }

    /// Node `i`'s gauge `name`.
    pub fn gauge(&self, i: usize, name: &str) -> Option<f64> {
        self.node(i)?.get("gauges")?.get(name)?.as_f64()
    }

    /// Node `i`'s counter `name`; 0 when it never ticked or the node was
    /// down.
    pub fn counter(&self, i: usize, name: &str) -> u64 {
        let read = |s: &Json| s.get("counters")?.get(name)?.as_u64();
        self.node(i).and_then(read).unwrap_or(0)
    }

    /// Segment replicas held across the running providers: the sum of
    /// their `n<i>.segments` gauges (refreshed on each heartbeat tick).
    pub fn replicas_held(&self) -> f64 {
        (0..self.0.len()).filter_map(|i| self.gauge(i, &format!("n{i}.segments"))).sum()
    }

    /// Segments some running home host knows to have fewer replicas at
    /// their latest version than their degree: the sum of the
    /// `n<i>.under_replicated` gauges. A stale replica counts in
    /// [`Snapshot::replicas_held`] but not here.
    pub fn under_replicated(&self) -> f64 {
        (0..self.0.len()).filter_map(|i| self.gauge(i, &format!("n{i}.under_replicated"))).sum()
    }
}

/// Run the script `build` writes — each attempt a fresh client session
/// configured by `cfg` — until an attempt's outcome satisfies `ok`, and
/// return that outcome. This is how a drill does anything under fault
/// injection: an attempt may exhaust its retry budget and fail with a
/// *typed* error (`Unavailable`, `DeadlineExceeded`, `NoSuchSegment`
/// while locations are stale), and the next attempt runs it again. An
/// error is returned when `deadline` passes first and — at once — when a
/// client *hangs* (its script unfinished long after every op's own
/// deadline). `what` names the step in the error.
pub fn run_until(
    cfg: &CtlConfig,
    min_providers: usize,
    deadline: Duration,
    what: &str,
    mut build: impl FnMut(&mut FsScript),
    ok: impl Fn(&ScriptOutcome) -> bool,
) -> io::Result<ScriptOutcome> {
    let until = Instant::now() + deadline;
    loop {
        let mut fs = FsScript::new();
        build(&mut fs);
        let err = match ctl::run_script(cfg, fs.into_ops(), min_providers, ATTEMPT) {
            Ok(out) if ok(&out) => return Ok(out),
            Ok(out) => format!("{:?}", out.stats.last_error),
            Err(CtlError::Deadline(stats)) => {
                let hung = format!("{what}: client hung ({} ops done): {stats:?}", stats.completed_ops);
                return Err(io::Error::other(hung));
            }
            Err(e) => e.to_string(),
        };
        if Instant::now() >= until {
            let late = format!("{what}: no convergence within {deadline:?} (last error: {err})");
            return Err(io::Error::new(io::ErrorKind::TimedOut, late));
        }
        std::thread::sleep(Duration::from_millis(200));
    }
}

/// [`run_until`] a read of `path` succeeds; an error, too, if the bytes
/// that come back are not `want`.
pub fn read_until(
    cfg: &CtlConfig,
    path: &str,
    want: &[u8],
    min_providers: usize,
    deadline: Duration,
    what: &str,
) -> io::Result<()> {
    let read = |fs: &mut FsScript| {
        let h = fs.open(path, false).expect("open in a fresh script");
        fs.read(h, 0, want.len() as u64).expect("read of an open handle");
        fs.close(h).expect("close of an open handle");
    };
    let out = run_until(cfg, min_providers, deadline, what, read, |out| out.stats.failed_ops == 0)?;
    match out.stats.last_read.as_deref() == Some(want) {
        true => Ok(()),
        false => Err(io::Error::new(io::ErrorKind::InvalidData, format!("{what}: bytes differ"))),
    }
}

/// Whether a create-then-close script's create took, in this attempt or
/// in an earlier one that died before its reply (`AlreadyExists`). The
/// outcome's `last_error` cannot tell: the close after a refused create
/// has no open file and fails `NotFound`.
pub fn created(out: &ScriptOutcome) -> bool {
    matches!(out.records.first().map(|r| &r.error), Some(None | Some(Error::AlreadyExists)))
}

/// `len` bytes of a pattern no offset-by-a-block copy reproduces.
pub fn payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31 % 251) as u8).collect()
}
