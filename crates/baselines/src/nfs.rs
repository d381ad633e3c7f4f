//! NFS-like baseline: one kernel-integrated file server.
//!
//! The paper's NFS rows behave like this: tiny per-operation latency
//! (create 0.67 ms, 12 KB write 2.42 ms) because a single optimized
//! kernel server does one RPC per op with asynchronous metadata — but
//! aggregate throughput caps early (≈ 700 small-file sessions/s,
//! ≈ 8 MB/s bulk) because every byte funnels through that one server's
//! CPU, NIC and disk path.

use std::collections::HashMap;

use sorrento::client::{ClientOp, ClientStats, OpResult, Workload};
use sorrento::store::{SparseBuffer, WritePayload};
use sorrento::types::Error;
use sorrento_sim::{
    Ctx, DiskAccess, DiskConfig, Dur, Node, NodeConfig, NodeId, Payload, SimTime, Simulation,
};

/// Cost model for the NFS deployment, calibrated in EXPERIMENTS.md
/// against Figure 9's NFS row.
#[derive(Debug, Clone, Copy)]
pub struct NfsCosts {
    /// Kernel server CPU per request.
    pub op_cpu: Dur,
    /// Effective server data-path rate (kernel single-threaded NFS I/O
    /// path; the reason NFS plateaus near 8 MB/s in Figure 11).
    pub data_rate: f64,
    /// Positioning cost per data request (journaled/cached: small).
    pub positioning: Dur,
    /// Client RPC timeout.
    pub rpc_timeout: Dur,
}

impl Default for NfsCosts {
    fn default() -> Self {
        NfsCosts {
            op_cpu: Dur::micros(400),
            data_rate: 8.5e6,
            positioning: Dur::micros(100),
            rpc_timeout: Dur::secs(3),
        }
    }
}

/// One stored file.
#[derive(Debug)]
enum NfsFile {
    Dir,
    Real(SparseBuffer),
    Synthetic { len: u64 },
}

impl NfsFile {
    fn len(&self) -> u64 {
        match self {
            NfsFile::Dir => 0,
            NfsFile::Real(b) => b.stored_bytes(),
            NfsFile::Synthetic { len } => *len,
        }
    }
}

/// NFS wire messages.
// Variant fields are self-describing wire-protocol parameters
// (req/path/offset/len/...); each variant itself is documented.
#[allow(missing_docs)]
#[derive(Debug, Clone)]
pub enum NfsMsg {
    /// Client timer.
    Timeout(u64),
    /// Client: issue next op.
    NextOp,
    /// Lookup / getattr.
    Lookup { req: u64, path: String },
    /// Lookup reply: `(exists, size)`.
    LookupR { req: u64, result: Result<u64, Error> },
    /// Create a file.
    Create { req: u64, path: String },
    /// Create reply.
    CreateR { req: u64, result: Result<(), Error> },
    /// Create a directory.
    Mkdir { req: u64, path: String },
    /// Mkdir reply.
    MkdirR { req: u64, result: Result<(), Error> },
    /// Remove a file.
    Remove { req: u64, path: String },
    /// Remove reply.
    RemoveR { req: u64, result: Result<(), Error> },
    /// Read a byte range.
    Read { req: u64, path: String, offset: u64, len: u64 },
    /// Read reply.
    ReadR { req: u64, result: Result<(u64, Option<Vec<u8>>), Error> },
    /// Write a byte range.
    Write { req: u64, path: String, offset: u64, payload: WritePayload },
    /// Write reply.
    WriteR { req: u64, result: Result<u64, Error> },
}

impl Payload for NfsMsg {
    fn wire_size(&self) -> u64 {
        let body = match self {
            NfsMsg::Timeout(_) | NfsMsg::NextOp => 0,
            NfsMsg::Lookup { path, .. }
            | NfsMsg::Create { path, .. }
            | NfsMsg::Mkdir { path, .. }
            | NfsMsg::Remove { path, .. } => path.len() as u64,
            NfsMsg::Read { path, .. } => path.len() as u64 + 16,
            NfsMsg::ReadR { result, .. } => match result {
                Ok((len, _)) => 16 + len,
                Err(_) => 8,
            },
            NfsMsg::Write { path, payload, .. } => path.len() as u64 + 16 + payload.len(),
            _ => 16,
        };
        120 + body
    }
}

/// The NFS server node.
pub struct NfsServer {
    costs: NfsCosts,
    files: HashMap<String, NfsFile>,
    /// Operations served (observability).
    pub ops_served: u64,
}

impl NfsServer {
    fn new(costs: NfsCosts) -> NfsServer {
        let mut files = HashMap::new();
        files.insert("/".to_string(), NfsFile::Dir);
        NfsServer {
            costs,
            files,
            ops_served: 0,
        }
    }

    fn parent_exists(&self, path: &str) -> bool {
        match path.rfind('/') {
            Some(0) => true,
            Some(i) => matches!(self.files.get(&path[..i]), Some(NfsFile::Dir)),
            None => false,
        }
    }
}

impl Node<NfsMsg> for NfsServer {
    fn on_message(&mut self, from: NodeId, msg: NfsMsg, ctx: &mut Ctx<'_, NfsMsg>) {
        self.ops_served += 1;
        let cpu_done = ctx.cpu(self.costs.op_cpu);
        let (reply, disk_bytes) = match msg {
            NfsMsg::Lookup { req, path } => (
                NfsMsg::LookupR {
                    req,
                    result: self.files.get(&path).map(|f| f.len()).ok_or(Error::NotFound),
                },
                0,
            ),
            NfsMsg::Create { req, path } => {
                let result = if self.files.contains_key(&path) {
                    Err(Error::AlreadyExists)
                } else if !self.parent_exists(&path) {
                    Err(Error::NotFound)
                } else {
                    self.files.insert(path, NfsFile::Real(SparseBuffer::new()));
                    Ok(())
                };
                (NfsMsg::CreateR { req, result }, 0)
            }
            NfsMsg::Mkdir { req, path } => {
                let result = if self.files.contains_key(&path) {
                    Err(Error::AlreadyExists)
                } else if !self.parent_exists(&path) {
                    Err(Error::NotFound)
                } else {
                    self.files.insert(path, NfsFile::Dir);
                    Ok(())
                };
                (NfsMsg::MkdirR { req, result }, 0)
            }
            NfsMsg::Remove { req, path } => {
                let result = self.files.remove(&path).map(|_| ()).ok_or(Error::NotFound);
                (NfsMsg::RemoveR { req, result }, 0)
            }
            NfsMsg::Read { req, path, offset, len } => {
                let result = match self.files.get(&path) {
                    Some(NfsFile::Real(buf)) => {
                        let flen = buf.stored_bytes();
                        let end = (offset + len).min(flen);
                        let n = end.saturating_sub(offset);
                        let mut out = Vec::with_capacity(n as usize);
                        buf.append_to(offset, n, &mut out);
                        Ok((n, Some(out)))
                    }
                    Some(NfsFile::Synthetic { len: flen }) => {
                        let end = (offset + len).min(*flen);
                        Ok((end.saturating_sub(offset), None))
                    }
                    Some(NfsFile::Dir) => Err(Error::NotADirectory),
                    None => Err(Error::NotFound),
                };
                let bytes = result.as_ref().map(|(n, _)| *n).unwrap_or(0);
                (NfsMsg::ReadR { req, result }, bytes)
            }
            NfsMsg::Write { req, path, offset, payload } => {
                let wlen = payload.len();
                let result = match self.files.get_mut(&path) {
                    Some(NfsFile::Dir) => Err(Error::NotADirectory),
                    None => Err(Error::NotFound),
                    Some(file) => {
                        match (&mut *file, payload) {
                            (
                                NfsFile::Real(buf),
                                WritePayload::Real(data) | WritePayload::Checked { data, .. },
                            ) => buf.write(offset, &data),
                            (f @ NfsFile::Real(_), WritePayload::Synthetic { len }) => {
                                // First synthetic write switches tracking.
                                *f = NfsFile::Synthetic { len: offset + len };
                            }
                            (NfsFile::Synthetic { len }, p) => {
                                *len = (*len).max(offset + p.len());
                            }
                            (NfsFile::Dir, _) => unreachable!("matched above"),
                        }
                        Ok(wlen)
                    }
                };
                (NfsMsg::WriteR { req, result }, wlen)
            }
            _ => return,
        };
        let done = if disk_bytes > 0 {
            // Data ops go through the server's single-threaded kernel I/O
            // path: positioning + bytes at the effective data rate,
            // serialized on the server (this is what caps NFS near
            // 8 MB/s in Figure 11). Modeled on the CPU queue; the disk
            // model still accumulates busy time for completeness.
            ctx.disk_submit(disk_bytes, DiskAccess::Sequential);
            let service =
                self.costs.positioning + Dur::for_bytes(disk_bytes, self.costs.data_rate);
            ctx.cpu(service).max(cpu_done)
        } else {
            cpu_done
        };
        ctx.send_at(done, from, reply);
    }
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// The NFS client stub: one RPC per operation.
pub struct NfsClient {
    server: NodeId,
    costs: NfsCosts,
    workload: Box<dyn Workload>,
    /// Aggregate statistics (same shape as the Sorrento client's).
    pub stats: ClientStats,
    current: Option<(ClientOp, SimTime)>,
    pending_req: Option<u64>,
    next_req: u64,
    open_path: Option<String>,
    open_size: u64,
    pending_write_end: Option<u64>,
}

impl NfsClient {
    fn new(server: NodeId, costs: NfsCosts, workload: Box<dyn Workload>) -> NfsClient {
        NfsClient {
            server,
            costs,
            workload,
            stats: ClientStats::default(),
            current: None,
            pending_req: None,
            next_req: 1,
            open_path: None,
            open_size: 0,
            pending_write_end: None,
        }
    }

    fn rpc(&mut self, ctx: &mut Ctx<'_, NfsMsg>, msg: NfsMsg) -> u64 {
        let req = self.next_req;
        self.next_req += 1;
        self.pending_req = Some(req);
        // Bulk transfers get proportionally longer timeouts (1 MB/s floor).
        let transfer = match &msg {
            NfsMsg::Write { payload, .. } => payload.len(),
            NfsMsg::Read { len, .. } => (*len).min(512 << 20),
            _ => 0,
        };
        let timeout = self.costs.rpc_timeout + Dur::for_bytes(transfer, 2.0e5);
        ctx.send(self.server, msg);
        ctx.set_timer(timeout, NfsMsg::Timeout(req));
        req
    }

    fn pull_next(&mut self, ctx: &mut Ctx<'_, NfsMsg>) {
        let Some(op) = self.workload.next_op(ctx.now(), ctx.rng()) else {
            if self.stats.finished_at.is_none() {
                self.stats.finished_at = Some(ctx.now());
            }
            return;
        };
        let started = ctx.now();
        if self.stats.started_at.is_none() {
            self.stats.started_at = Some(started);
        }
        self.current = Some((op.clone(), started));
        let req = self.next_req;
        match op {
            ClientOp::Mkdir { path } => {
                self.rpc(ctx, NfsMsg::Mkdir { req, path });
            }
            ClientOp::Create { path } | ClientOp::CreateWith { path, .. } => {
                self.open_path = Some(path.clone());
                self.open_size = 0;
                self.rpc(ctx, NfsMsg::Create { req, path });
            }
            ClientOp::Open { path, .. } => {
                self.open_path = Some(path.clone());
                self.rpc(ctx, NfsMsg::Lookup { req, path });
            }
            ClientOp::Read { offset, len } => {
                let path = self.open_path.clone().unwrap_or_default();
                self.rpc(ctx, NfsMsg::Read { req, path, offset, len });
            }
            ClientOp::Write { offset, payload } => {
                let path = self.open_path.clone().unwrap_or_default();
                self.pending_write_end = Some(offset + payload.len());
                self.rpc(ctx, NfsMsg::Write { req, path, offset, payload });
            }
            ClientOp::Append { payload } | ClientOp::AtomicAppend { payload } => {
                let path = self.open_path.clone().unwrap_or_default();
                let offset = self.open_size;
                self.pending_write_end = Some(offset + payload.len());
                self.rpc(ctx, NfsMsg::Write { req, path, offset, payload });
            }
            ClientOp::Unlink { path } => {
                self.rpc(ctx, NfsMsg::Remove { req, path });
            }
            ClientOp::Stat { path } | ClientOp::List { path } => {
                self.rpc(ctx, NfsMsg::Lookup { req, path });
            }
            ClientOp::Sync | ClientOp::Close => {
                // Client-side for NFS: complete immediately.
                if matches!(op, ClientOp::Close) {
                    self.open_path = None;
                }
                self.finish(ctx, None, 0, None);
            }
            ClientOp::Rename { .. } => {
                // Not in the NFS baseline's vocabulary.
                self.finish(ctx, Some(Error::InvalidMode), 0, None);
            }
            ClientOp::Think { dur } => {
                ctx.set_timer(dur, NfsMsg::NextOp);
            }
        }
    }

    fn finish(
        &mut self,
        ctx: &mut Ctx<'_, NfsMsg>,
        error: Option<Error>,
        bytes: u64,
        data: Option<bytes::Bytes>,
    ) {
        let Some((op, started)) = self.current.take() else {
            return;
        };
        self.pending_req = None;
        let latency = ctx.now().since(started);
        let result = OpResult {
            error: error.clone(),
            span: 0,
            bytes,
            latency,
            data: data.clone(),
        };
        match &error {
            None => {
                self.stats.completed_ops += 1;
                self.stats.latencies.push((op.kind(), latency));
                match op {
                    ClientOp::Read { .. } => {
                        self.stats.bytes_read += bytes;
                        if data.is_some() {
                            self.stats.last_read = data;
                        }
                    }
                    ClientOp::Write { .. } | ClientOp::Append { .. } | ClientOp::AtomicAppend { .. } => {
                        self.stats.bytes_written += bytes;
                        if let Some(end) = self.pending_write_end.take() {
                            self.open_size = self.open_size.max(end);
                        }
                    }
                    _ => {}
                }
            }
            Some(e) => {
                self.stats.failed_ops += 1;
                self.stats.last_error = Some(e.clone());
            }
        }
        self.workload.on_result(&op, &result, ctx.now());
        // Defer via timer: RPC-free ops (close/sync) must not recurse.
        ctx.set_timer(Dur::micros(150), NfsMsg::NextOp);
    }
}

impl Node<NfsMsg> for NfsClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_, NfsMsg>) {
        self.pull_next(ctx);
    }

    fn on_message(&mut self, _from: NodeId, msg: NfsMsg, ctx: &mut Ctx<'_, NfsMsg>) {
        match msg {
            NfsMsg::NextOp => {
                if self.current.is_some() {
                    // Think finished.
                    self.finish(ctx, None, 0, None);
                } else {
                    self.pull_next(ctx);
                }
            }
            NfsMsg::Timeout(req)
                if self.pending_req == Some(req) => {
                    self.finish(ctx, Some(Error::Timeout), 0, None);
                }
            NfsMsg::LookupR { req, result } => {
                if self.pending_req != Some(req) {
                    return;
                }
                match result {
                    Ok(size) => {
                        self.open_size = size;
                        self.finish(ctx, None, size, None);
                    }
                    Err(e) => self.finish(ctx, Some(e), 0, None),
                }
            }
            NfsMsg::CreateR { req, result }
            | NfsMsg::MkdirR { req, result }
            | NfsMsg::RemoveR { req, result } => {
                if self.pending_req != Some(req) {
                    return;
                }
                self.finish(ctx, result.err(), 0, None);
            }
            NfsMsg::ReadR { req, result } => {
                if self.pending_req != Some(req) {
                    return;
                }
                match result {
                    Ok((n, data)) => {
                        let data = data.map(bytes::Bytes::from);
                        self.finish(ctx, None, n, data)
                    }
                    Err(e) => self.finish(ctx, Some(e), 0, None),
                }
            }
            NfsMsg::WriteR { req, result } => {
                if self.pending_req != Some(req) {
                    return;
                }
                match result {
                    Ok(n) => self.finish(ctx, None, n, None),
                    Err(e) => self.finish(ctx, Some(e), 0, None),
                }
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------
// Cluster wrapper
// ---------------------------------------------------------------------

/// A one-server NFS deployment with attached clients.
pub struct NfsCluster {
    /// The underlying simulation.
    pub sim: Simulation<NfsMsg>,
    server: NodeId,
    clients: Vec<NodeId>,
    costs: NfsCosts,
}

impl NfsCluster {
    /// Build the deployment.
    pub fn new(seed: u64, costs: NfsCosts) -> NfsCluster {
        let mut sim = Simulation::new(seed);
        let server_cfg = NodeConfig {
            disk: DiskConfig::scsi_10krpm(72 * 1_000_000_000),
            ..NodeConfig::default()
        };
        let server = sim.add_node(NfsServer::new(costs), server_cfg);
        NfsCluster {
            sim,
            server,
            clients: Vec::new(),
            costs,
        }
    }

    /// The server's node id.
    pub fn server(&self) -> NodeId {
        self.server
    }

    /// Attach a client driven by `workload`.
    pub fn add_client<W: Workload>(&mut self, workload: W) -> NodeId {
        let client = NfsClient::new(self.server, self.costs, Box::new(workload));
        let id = self.sim.add_node(client, NodeConfig::default());
        self.clients.push(id);
        id
    }

    /// Statistics of an attached client.
    pub fn client_stats(&self, id: NodeId) -> Option<&ClientStats> {
        self.sim.node_ref::<NfsClient>(id).map(|c| &c.stats)
    }

    /// Run for `d` of virtual time.
    pub fn run_for(&mut self, d: Dur) {
        self.sim.run_for(d);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sorrento::cluster::ScriptedWorkload;

    #[test]
    fn nfs_roundtrip() {
        let mut c = NfsCluster::new(1, NfsCosts::default());
        let id = c.add_client(ScriptedWorkload::new(vec![
            ClientOp::Create { path: "/f".into() },
            ClientOp::write_bytes(0, b"nfs data".to_vec()),
            ClientOp::Close,
            ClientOp::Open { path: "/f".into(), write: false },
            ClientOp::Read { offset: 0, len: 8 },
            ClientOp::Close,
        ]));
        c.run_for(Dur::secs(10));
        let s = c.client_stats(id).unwrap();
        assert_eq!(s.failed_ops, 0, "{:?}", s.last_error);
        assert_eq!(s.last_read.as_deref(), Some(&b"nfs data"[..]));
    }

    #[test]
    fn nfs_small_op_latency_matches_figure9_band() {
        // Figure 9: NFS create 0.67 ms, 12 KB write 2.42 ms, read 2.93 ms.
        let mut c = NfsCluster::new(2, NfsCosts::default());
        let id = c.add_client(ScriptedWorkload::new(vec![
            ClientOp::Create { path: "/lat".into() },
            ClientOp::Close,
            ClientOp::Open { path: "/lat".into(), write: true },
            ClientOp::write_bytes(0, vec![1; 12 * 1024]),
            ClientOp::Close,
            ClientOp::Open { path: "/lat".into(), write: false },
            ClientOp::Read { offset: 0, len: 12 * 1024 },
            ClientOp::Close,
        ]));
        c.run_for(Dur::secs(10));
        let s = c.client_stats(id).unwrap();
        assert_eq!(s.failed_ops, 0);
        let lat = |kind: &str| {
            s.latencies
                .iter()
                .find(|(k, _)| *k == kind)
                .map(|(_, d)| d.as_millis_f64())
                .unwrap()
        };
        let create = lat("create");
        let write = lat("write");
        let read = lat("read");
        assert!(create < 2.0, "create {create} ms");
        assert!(write > 1.0 && write < 6.0, "write {write} ms");
        assert!(read > 1.0 && read < 6.0, "read {read} ms");
    }

    #[test]
    fn nfs_errors() {
        let mut c = NfsCluster::new(3, NfsCosts::default());
        let id = c.add_client(ScriptedWorkload::new(vec![
            ClientOp::Open { path: "/missing".into(), write: false },
            ClientOp::Create { path: "/nodir/f".into() },
            ClientOp::Unlink { path: "/missing".into() },
        ]));
        c.run_for(Dur::secs(10));
        assert_eq!(c.client_stats(id).unwrap().failed_ops, 3);
    }

    #[test]
    fn nfs_synthetic_files() {
        let mut c = NfsCluster::new(4, NfsCosts::default());
        let id = c.add_client(ScriptedWorkload::new(vec![
            ClientOp::Create { path: "/s".into() },
            ClientOp::write_synth(0, 4_000_000),
            ClientOp::Read { offset: 0, len: 4_000_000 },
            ClientOp::Close,
        ]));
        c.run_for(Dur::secs(30));
        let s = c.client_stats(id).unwrap();
        assert_eq!(s.failed_ops, 0);
        assert_eq!(s.bytes_read, 4_000_000);
    }
}
