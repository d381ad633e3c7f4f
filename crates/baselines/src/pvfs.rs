//! PVFS-like baseline: one metadata manager + N I/O daemons (iods), file
//! data striped in 64 KB units across all iods, no replication, writes in
//! place.
//!
//! The behaviours the paper measures come from two modeling choices:
//!
//! * The manager represents "each inode using a small file" (§4.1.1), so
//!   every metadata operation costs one or more *random* disk accesses on
//!   the manager's single disk — that serialized disk is why PVFS
//!   saturates at ~64 small-file sessions/s in Figure 10 while its
//!   striped data path scales beautifully in Figure 11.
//! * Data transfers go client ↔ iod directly and in parallel, with no
//!   versioning or replication overhead — which is why PVFS outruns
//!   `Sorrento-(8,2)` by ~2× on bulk writes (Figure 11: Sorrento pays for
//!   the second replica).

use std::collections::HashMap;

use sorrento::client::{ClientOp, ClientStats, OpResult, Workload};
use sorrento::store::{SparseBuffer, WritePayload};
use sorrento::types::Error;
use sorrento_sim::{
    Ctx, DiskAccess, Dur, Node, NodeConfig, NodeId, Payload, SimTime, Simulation,
};

/// Stripe unit, matching PVFS's default of 64 KB.
pub const STRIPE_UNIT: u64 = 64 * 1024;

/// Cost model for the PVFS deployment (calibrated in EXPERIMENTS.md
/// against Figure 9's PVFS rows).
#[derive(Debug, Clone, Copy)]
pub struct PvfsCosts {
    /// Manager CPU per metadata request.
    pub mgr_cpu: Dur,
    /// Random disk accesses the manager performs per *create* (inode
    /// file creation + directory update + attribute write).
    pub mgr_create_disk_ops: u32,
    /// Random disk accesses per lookup/open.
    pub mgr_lookup_disk_ops: u32,
    /// Random disk accesses per close (size/attribute update).
    pub mgr_close_disk_ops: u32,
    /// Random disk accesses per remove.
    pub mgr_remove_disk_ops: u32,
    /// Positioning cost of one manager metadata disk access.
    pub mgr_disk_positioning: Dur,
    /// Iod CPU per request.
    pub iod_cpu: Dur,
    /// Client RPC timeout.
    pub rpc_timeout: Dur,
}

impl Default for PvfsCosts {
    fn default() -> Self {
        PvfsCosts {
            mgr_cpu: Dur::micros(800),
            mgr_create_disk_ops: 3,
            mgr_lookup_disk_ops: 2,
            mgr_close_disk_ops: 1,
            mgr_remove_disk_ops: 1,
            mgr_disk_positioning: Dur::millis(14),
            iod_cpu: Dur::micros(900),
            rpc_timeout: Dur::secs(3),
        }
    }
}

/// File metadata held by the manager.
#[derive(Debug, Clone, Copy)]
pub struct PvfsMeta {
    /// Internal file id.
    pub fid: u64,
    /// Current size.
    pub size: u64,
    /// Whether the entry is a directory.
    pub is_dir: bool,
}

/// PVFS wire messages.
// Variant fields are self-describing wire-protocol parameters
// (req/path/offset/len/...); each variant itself is documented.
#[allow(missing_docs)]
#[derive(Debug, Clone)]
pub enum PvfsMsg {
    /// Client timer.
    Timeout(u64),
    /// Client: issue next op.
    NextOp,
    /// Manager: create a file.
    MgrCreate { req: u64, path: String },
    /// Reply with the new file's metadata.
    MgrCreateR { req: u64, result: Result<PvfsMeta, Error> },
    /// Manager: mkdir.
    MgrMkdir { req: u64, path: String },
    /// Mkdir reply.
    MgrMkdirR { req: u64, result: Result<(), Error> },
    /// Manager: lookup/open.
    MgrLookup { req: u64, path: String },
    /// Lookup reply.
    MgrLookupR { req: u64, result: Result<PvfsMeta, Error> },
    /// Manager: record the new size at close.
    MgrClose { req: u64, path: String, size: u64 },
    /// Close reply.
    MgrCloseR { req: u64, result: Result<(), Error> },
    /// Manager: remove a file; returns its fid so the client can purge
    /// iods.
    MgrRemove { req: u64, path: String },
    /// Remove reply.
    MgrRemoveR { req: u64, result: Result<PvfsMeta, Error> },
    /// Iod: write a range of one stripe file.
    IodWrite { req: u64, fid: u64, offset: u64, payload: WritePayload },
    /// Iod write ack.
    IodWriteR { req: u64, result: Result<u64, Error> },
    /// Iod: read a range of one stripe file.
    IodRead { req: u64, fid: u64, offset: u64, len: u64 },
    /// Iod read reply.
    IodReadR { req: u64, result: Result<(u64, Option<Vec<u8>>), Error> },
    /// Iod: drop all stripes of a file.
    IodPurge { req: u64, fid: u64 },
    /// Purge ack.
    IodPurgeR { req: u64 },
}

impl Payload for PvfsMsg {
    fn wire_size(&self) -> u64 {
        let body = match self {
            PvfsMsg::Timeout(_) | PvfsMsg::NextOp => 0,
            PvfsMsg::MgrCreate { path, .. }
            | PvfsMsg::MgrMkdir { path, .. }
            | PvfsMsg::MgrLookup { path, .. }
            | PvfsMsg::MgrRemove { path, .. } => path.len() as u64,
            PvfsMsg::MgrClose { path, .. } => path.len() as u64 + 8,
            PvfsMsg::IodWrite { payload, .. } => 24 + payload.len(),
            PvfsMsg::IodReadR { result, .. } => match result {
                Ok((len, _)) => 16 + len,
                Err(_) => 8,
            },
            _ => 32,
        };
        120 + body
    }
}

// ---------------------------------------------------------------------
// Manager
// ---------------------------------------------------------------------

/// The PVFS metadata manager.
pub struct PvfsMgr {
    costs: PvfsCosts,
    entries: HashMap<String, PvfsMeta>,
    next_fid: u64,
    /// Recently touched inode files (the manager's host fs caches them,
    /// so repeat lookups of hot paths skip the metadata disk).
    hot_inodes: std::collections::VecDeque<String>,
    /// Operations served (observability).
    pub ops_served: u64,
}

/// How many hot inode files the manager's page cache holds. Small, as
/// on the real manager: a working set that cycles through more paths
/// than this (e.g. the Figure 9 microbenchmarks) always misses, while a
/// service that hammers a fixed small set (PSM's 24 partitions) hits.
const INODE_CACHE_CAP: usize = 32;

impl PvfsMgr {
    fn new(costs: PvfsCosts) -> PvfsMgr {
        let mut entries = HashMap::new();
        entries.insert(
            "/".to_string(),
            PvfsMeta {
                fid: 0,
                size: 0,
                is_dir: true,
            },
        );
        PvfsMgr {
            costs,
            entries,
            next_fid: 1,
            hot_inodes: std::collections::VecDeque::new(),
            ops_served: 0,
        }
    }

    /// Mark a path's inode file hot; returns whether it already was.
    fn touch_inode(&mut self, path: &str) -> bool {
        if let Some(pos) = self.hot_inodes.iter().position(|p| p == path) {
            self.hot_inodes.remove(pos);
            self.hot_inodes.push_back(path.to_string());
            return true;
        }
        self.hot_inodes.push_back(path.to_string());
        while self.hot_inodes.len() > INODE_CACHE_CAP {
            self.hot_inodes.pop_front();
        }
        false
    }

    fn parent_exists(&self, path: &str) -> bool {
        match path.rfind('/') {
            Some(0) => true,
            Some(i) => self.entries.get(&path[..i]).is_some_and(|m| m.is_dir),
            None => false,
        }
    }

    /// Charge `ops` random metadata-disk accesses; returns completion.
    fn meta_disk(&self, ctx: &mut Ctx<'_, PvfsMsg>, ops: u32) -> sorrento_sim::SimTime {
        let mut done = ctx.now();
        for _ in 0..ops {
            done = ctx.disk_submit(512, DiskAccess::Random);
        }
        done
    }
}

impl Node<PvfsMsg> for PvfsMgr {
    fn on_message(&mut self, from: NodeId, msg: PvfsMsg, ctx: &mut Ctx<'_, PvfsMsg>) {
        self.ops_served += 1;
        let cpu_done = ctx.cpu(self.costs.mgr_cpu);
        let (reply, disk_ops) = match msg {
            PvfsMsg::MgrCreate { req, path } => {
                let result = if self.entries.contains_key(&path) {
                    Err(Error::AlreadyExists)
                } else if !self.parent_exists(&path) {
                    Err(Error::NotFound)
                } else {
                    let meta = PvfsMeta {
                        fid: self.next_fid,
                        size: 0,
                        is_dir: false,
                    };
                    self.next_fid += 1;
                    self.entries.insert(path, meta);
                    Ok(meta)
                };
                (
                    PvfsMsg::MgrCreateR { req, result },
                    self.costs.mgr_create_disk_ops,
                )
            }
            PvfsMsg::MgrMkdir { req, path } => {
                let result = if self.entries.contains_key(&path) {
                    Err(Error::AlreadyExists)
                } else if !self.parent_exists(&path) {
                    Err(Error::NotFound)
                } else {
                    let meta = PvfsMeta {
                        fid: self.next_fid,
                        size: 0,
                        is_dir: true,
                    };
                    self.next_fid += 1;
                    self.entries.insert(path, meta);
                    Ok(())
                };
                (
                    PvfsMsg::MgrMkdirR { req, result },
                    self.costs.mgr_create_disk_ops,
                )
            }
            PvfsMsg::MgrLookup { req, path } => {
                // Repeat lookups of a hot inode file hit the page cache.
                let cached = self.touch_inode(&path);
                let ops = if cached { 0 } else { self.costs.mgr_lookup_disk_ops };
                (
                    PvfsMsg::MgrLookupR {
                        req,
                        result: self.entries.get(&path).copied().ok_or(Error::NotFound),
                    },
                    ops,
                )
            }
            PvfsMsg::MgrClose { req, path, size } => {
                let result = match self.entries.get_mut(&path) {
                    Some(meta) => {
                        meta.size = meta.size.max(size);
                        Ok(())
                    }
                    None => Err(Error::NotFound),
                };
                (
                    PvfsMsg::MgrCloseR { req, result },
                    self.costs.mgr_close_disk_ops,
                )
            }
            PvfsMsg::MgrRemove { req, path } => {
                let result = self.entries.remove(&path).ok_or(Error::NotFound);
                (
                    PvfsMsg::MgrRemoveR { req, result },
                    self.costs.mgr_remove_disk_ops,
                )
            }
            _ => return,
        };
        let disk_done = self.meta_disk(ctx, disk_ops);
        ctx.send_at(cpu_done.max(disk_done), from, reply);
    }
}

// ---------------------------------------------------------------------
// Iod
// ---------------------------------------------------------------------

/// Stripe-file storage on one iod.
#[derive(Debug)]
enum StripeData {
    Real(SparseBuffer),
    Synthetic { len: u64 },
}

/// One PVFS I/O daemon.
pub struct PvfsIod {
    costs: PvfsCosts,
    stripes: HashMap<u64, StripeData>,
    /// Bytes served (observability).
    pub bytes_in: u64,
    /// Bytes served (observability).
    pub bytes_out: u64,
}

impl PvfsIod {
    fn new(costs: PvfsCosts) -> PvfsIod {
        PvfsIod {
            costs,
            stripes: HashMap::new(),
            bytes_in: 0,
            bytes_out: 0,
        }
    }
}

impl Node<PvfsMsg> for PvfsIod {
    fn on_message(&mut self, from: NodeId, msg: PvfsMsg, ctx: &mut Ctx<'_, PvfsMsg>) {
        let cpu_done = ctx.cpu(self.costs.iod_cpu);
        match msg {
            PvfsMsg::IodWrite {
                req,
                fid,
                offset,
                payload,
            } => {
                let wlen = payload.len();
                self.bytes_in += wlen;
                let entry = self
                    .stripes
                    .entry(fid)
                    .or_insert_with(|| match &payload {
                        WritePayload::Real(_) | WritePayload::Checked { .. } => {
                            StripeData::Real(SparseBuffer::new())
                        }
                        WritePayload::Synthetic { .. } => StripeData::Synthetic { len: 0 },
                    });
                match (entry, payload) {
                    (
                        StripeData::Real(buf),
                        WritePayload::Real(data) | WritePayload::Checked { data, .. },
                    ) => buf.write(offset, &data),
                    (e @ StripeData::Real(_), WritePayload::Synthetic { len }) => {
                        *e = StripeData::Synthetic { len: offset + len };
                    }
                    (StripeData::Synthetic { len }, p) => {
                        *len = (*len).max(offset + p.len());
                    }
                }
                let _ = ctx.disk().alloc(wlen);
                let disk_done = ctx.disk_submit(wlen, DiskAccess::Sequential);
                ctx.send_at(
                    cpu_done.max(disk_done),
                    from,
                    PvfsMsg::IodWriteR {
                        req,
                        result: Ok(wlen),
                    },
                );
            }
            PvfsMsg::IodRead {
                req,
                fid,
                offset,
                len,
            } => {
                let result = match self.stripes.get(&fid) {
                    Some(StripeData::Real(buf)) => {
                        let mut out = Vec::with_capacity(len as usize);
                        buf.append_to(offset, len, &mut out);
                        Ok((len, Some(out)))
                    }
                    Some(StripeData::Synthetic { .. }) => Ok((len, None)),
                    None => Err(Error::NoSuchSegment),
                };
                let bytes = result.as_ref().map(|(n, _)| *n).unwrap_or(0);
                self.bytes_out += bytes;
                let disk_done = ctx.disk_submit(bytes, DiskAccess::Random);
                ctx.send_at(cpu_done.max(disk_done), from, PvfsMsg::IodReadR { req, result });
            }
            PvfsMsg::IodPurge { req, fid } => {
                self.stripes.remove(&fid);
                let disk_done = ctx.disk_submit(128, DiskAccess::Random);
                ctx.send_at(cpu_done.max(disk_done), from, PvfsMsg::IodPurgeR { req });
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// Map a file byte range onto per-iod stripe-local extents:
/// `(iod index, stripe-local offset, len, file offset)`.
pub fn stripe_extents(offset: u64, len: u64, niods: u64) -> Vec<(usize, u64, u64, u64)> {
    let mut out = Vec::new();
    let mut pos = offset;
    let end = offset + len;
    while pos < end {
        let block = pos / STRIPE_UNIT;
        let within = pos % STRIPE_UNIT;
        let iod = (block % niods) as usize;
        let local = (block / niods) * STRIPE_UNIT + within;
        let take = (STRIPE_UNIT - within).min(end - pos);
        out.push((iod, local, take, pos));
        pos += take;
    }
    out
}

/// The PVFS client stub.
pub struct PvfsClient {
    mgr: NodeId,
    iods: Vec<NodeId>,
    costs: PvfsCosts,
    workload: Box<dyn Workload>,
    /// Aggregate statistics.
    pub stats: ClientStats,
    current: Option<(ClientOp, SimTime)>,
    /// Outstanding requests of the current op: req → file-relative base
    /// offset of the extent (reads) or 0.
    pending: HashMap<u64, u64>,
    next_req: u64,
    open: Option<(String, PvfsMeta)>,
    read_buf: Option<Vec<u8>>,
    read_base: u64,
    acc_bytes: u64,
    failed: Option<Error>,
    /// For unlink: remaining purge acks.
    purge_left: usize,
    /// Total bytes of the in-progress scatter (timeout budgeting).
    scatter_bytes: u64,
}

impl PvfsClient {
    fn new(
        mgr: NodeId,
        iods: Vec<NodeId>,
        costs: PvfsCosts,
        workload: Box<dyn Workload>,
    ) -> PvfsClient {
        PvfsClient {
            mgr,
            iods,
            costs,
            workload,
            stats: ClientStats::default(),
            current: None,
            pending: HashMap::new(),
            next_req: 1,
            open: None,
            read_buf: None,
            read_base: 0,
            acc_bytes: 0,
            failed: None,
            purge_left: 0,
            scatter_bytes: 0,
        }
    }

    fn send_rpc(&mut self, ctx: &mut Ctx<'_, PvfsMsg>, to: NodeId, msg: PvfsMsg, tag: u64) -> u64 {
        let req = match &msg {
            PvfsMsg::MgrCreate { req, .. }
            | PvfsMsg::MgrMkdir { req, .. }
            | PvfsMsg::MgrLookup { req, .. }
            | PvfsMsg::MgrClose { req, .. }
            | PvfsMsg::MgrRemove { req, .. }
            | PvfsMsg::IodWrite { req, .. }
            | PvfsMsg::IodRead { req, .. }
            | PvfsMsg::IodPurge { req, .. } => *req,
            _ => unreachable!(),
        };
        // Bulk transfers get proportionally longer timeouts; scatters
        // queue behind each other, so budget the whole op's volume
        // (1 MB/s floor) on every piece.
        let transfer = match &msg {
            PvfsMsg::IodWrite { .. } | PvfsMsg::IodRead { .. } => self.scatter_bytes,
            _ => 0,
        };
        let timeout = self.costs.rpc_timeout + Dur::for_bytes(transfer, 2.0e5);
        self.pending.insert(req, tag);
        ctx.send(to, msg);
        ctx.set_timer(timeout, PvfsMsg::Timeout(req));
        req
    }

    fn fresh(&mut self) -> u64 {
        let r = self.next_req;
        self.next_req += 1;
        r
    }

    fn pull_next(&mut self, ctx: &mut Ctx<'_, PvfsMsg>) {
        let Some(op) = self.workload.next_op(ctx.now(), ctx.rng()) else {
            if self.stats.finished_at.is_none() {
                self.stats.finished_at = Some(ctx.now());
            }
            return;
        };
        if self.stats.started_at.is_none() {
            self.stats.started_at = Some(ctx.now());
        }
        self.current = Some((op.clone(), ctx.now()));
        self.acc_bytes = 0;
        self.failed = None;
        self.read_buf = None;
        match op {
            ClientOp::Mkdir { path } => {
                let req = self.fresh();
                self.send_rpc(ctx, self.mgr, PvfsMsg::MgrMkdir { req, path }, 0);
            }
            ClientOp::Create { path } | ClientOp::CreateWith { path, .. } => {
                let req = self.fresh();
                self.send_rpc(ctx, self.mgr, PvfsMsg::MgrCreate { req, path }, 0);
            }
            ClientOp::Open { path, .. } | ClientOp::Stat { path } | ClientOp::List { path } => {
                let req = self.fresh();
                self.send_rpc(ctx, self.mgr, PvfsMsg::MgrLookup { req, path }, 0);
            }
            ClientOp::Read { offset, len } => self.start_read(ctx, offset, len),
            ClientOp::Write { offset, payload } => self.start_write(ctx, offset, payload),
            ClientOp::Append { payload } | ClientOp::AtomicAppend { payload } => {
                let offset = self.open.as_ref().map(|(_, m)| m.size).unwrap_or(0);
                self.start_write(ctx, offset, payload);
            }
            ClientOp::Sync => self.finish(ctx, None, 0, None),
            ClientOp::Close => {
                match self.open.clone() {
                    Some((path, meta)) => {
                        let req = self.fresh();
                        self.send_rpc(
                            ctx,
                            self.mgr,
                            PvfsMsg::MgrClose {
                                req,
                                path,
                                size: meta.size,
                            },
                            0,
                        );
                    }
                    None => self.finish(ctx, None, 0, None),
                }
            }
            ClientOp::Unlink { path } => {
                let req = self.fresh();
                self.send_rpc(ctx, self.mgr, PvfsMsg::MgrRemove { req, path }, 0);
            }
            ClientOp::Rename { .. } => {
                // Not in the PVFS baseline's vocabulary.
                self.finish(ctx, Some(Error::InvalidMode), 0, None);
            }
            ClientOp::Think { dur } => {
                ctx.set_timer(dur, PvfsMsg::NextOp);
            }
        }
    }

    fn start_read(&mut self, ctx: &mut Ctx<'_, PvfsMsg>, offset: u64, len: u64) {
        let Some((_, meta)) = self.open else {
            self.finish(ctx, Some(Error::NotFound), 0, None);
            return;
        };
        let end = (offset + len).min(meta.size);
        if offset >= end {
            self.finish(ctx, None, 0, Some(bytes::Bytes::new()));
            return;
        }
        let covered = end - offset;
        self.read_base = offset;
        self.scatter_bytes = covered;
        self.read_buf = Some(vec![0u8; covered as usize]);
        for (iod, local, elen, fpos) in stripe_extents(offset, covered, self.iods.len() as u64) {
            let req = self.fresh();
            let target = self.iods[iod];
            self.send_rpc(
                ctx,
                target,
                PvfsMsg::IodRead {
                    req,
                    fid: meta.fid,
                    offset: local,
                    len: elen,
                },
                fpos,
            );
        }
    }

    fn start_write(&mut self, ctx: &mut Ctx<'_, PvfsMsg>, offset: u64, payload: WritePayload) {
        let Some((_, meta)) = &mut self.open else {
            self.finish(ctx, Some(Error::NotFound), 0, None);
            return;
        };
        let len = payload.len();
        meta.size = meta.size.max(offset + len);
        self.scatter_bytes = len;
        let fid = meta.fid;
        let niods = self.iods.len() as u64;
        for (iod, local, elen, fpos) in stripe_extents(offset, len, niods) {
            let piece = match &payload {
                WritePayload::Real(data) | WritePayload::Checked { data, .. } => {
                    let s = (fpos - offset) as usize;
                    // Zero-copy stripe view into the caller's payload.
                    WritePayload::Real(data.slice(s..s + elen as usize))
                }
                WritePayload::Synthetic { .. } => WritePayload::Synthetic { len: elen },
            };
            let req = self.fresh();
            let target = self.iods[iod];
            self.send_rpc(
                ctx,
                target,
                PvfsMsg::IodWrite {
                    req,
                    fid,
                    offset: local,
                    payload: piece,
                },
                fpos,
            );
        }
    }

    fn finish(
        &mut self,
        ctx: &mut Ctx<'_, PvfsMsg>,
        error: Option<Error>,
        bytes: u64,
        data: Option<bytes::Bytes>,
    ) {
        let Some((op, started)) = self.current.take() else {
            return;
        };
        self.pending.clear();
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
        // Defer via timer: RPC-free ops (sync) must not recurse.
        ctx.set_timer(Dur::micros(150), PvfsMsg::NextOp);
    }

    fn scatter_done(&mut self, ctx: &mut Ctx<'_, PvfsMsg>) {
        if !self.pending.is_empty() {
            return;
        }
        if self.purge_left > 0 {
            return;
        }
        let error = self.failed.clone();
        let bytes = self.acc_bytes;
        let data = self.read_buf.take().map(bytes::Bytes::from);
        self.finish(ctx, error, bytes, data);
    }
}

impl Node<PvfsMsg> for PvfsClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_, PvfsMsg>) {
        self.pull_next(ctx);
    }

    fn on_message(&mut self, _from: NodeId, msg: PvfsMsg, ctx: &mut Ctx<'_, PvfsMsg>) {
        match msg {
            PvfsMsg::NextOp => {
                if self.current.is_some() {
                    self.finish(ctx, None, 0, None);
                } else {
                    self.pull_next(ctx);
                }
            }
            PvfsMsg::Timeout(req)
                if self.pending.remove(&req).is_some() => {
                    self.failed = Some(Error::Timeout);
                    self.scatter_done(ctx);
                }
            PvfsMsg::MgrCreateR { req, result } => {
                if self.pending.remove(&req).is_none() {
                    return;
                }
                match result {
                    Ok(meta) => {
                        let path = match self.current.as_ref().map(|(o, _)| o) {
                            Some(ClientOp::Create { path })
                            | Some(ClientOp::CreateWith { path, .. }) => path.clone(),
                            _ => String::new(),
                        };
                        self.open = Some((path, meta));
                        self.finish(ctx, None, 0, None);
                    }
                    Err(e) => self.finish(ctx, Some(e), 0, None),
                }
            }
            PvfsMsg::MgrMkdirR { req, result } | PvfsMsg::MgrCloseR { req, result } => {
                if self.pending.remove(&req).is_none() {
                    return;
                }
                if matches!(self.current.as_ref().map(|(o, _)| o), Some(ClientOp::Close)) {
                    self.open = None;
                }
                self.finish(ctx, result.err(), 0, None);
            }
            PvfsMsg::MgrLookupR { req, result } => {
                if self.pending.remove(&req).is_none() {
                    return;
                }
                match result {
                    Ok(meta) => {
                        if matches!(
                            self.current.as_ref().map(|(o, _)| o),
                            Some(ClientOp::Open { .. })
                        ) {
                            let path = match self.current.as_ref().map(|(o, _)| o) {
                                Some(ClientOp::Open { path, .. }) => path.clone(),
                                _ => String::new(),
                            };
                            self.open = Some((path, meta));
                        }
                        self.finish(ctx, None, meta.size, None);
                    }
                    Err(e) => self.finish(ctx, Some(e), 0, None),
                }
            }
            PvfsMsg::MgrRemoveR { req, result } => {
                if self.pending.remove(&req).is_none() {
                    return;
                }
                match result {
                    Ok(meta) if !meta.is_dir && meta.size > 0 => {
                        // Purge all iods in parallel.
                        self.purge_left = self.iods.len();
                        for i in 0..self.iods.len() {
                            let req2 = self.fresh();
                            let target = self.iods[i];
                            self.send_rpc(
                                ctx,
                                target,
                                PvfsMsg::IodPurge {
                                    req: req2,
                                    fid: meta.fid,
                                },
                                0,
                            );
                        }
                    }
                    Ok(_) => self.finish(ctx, None, 0, None),
                    Err(e) => self.finish(ctx, Some(e), 0, None),
                }
            }
            PvfsMsg::IodPurgeR { req } => {
                if self.pending.remove(&req).is_none() {
                    return;
                }
                self.purge_left = self.purge_left.saturating_sub(1);
                if self.purge_left == 0 {
                    self.finish(ctx, None, 0, None);
                }
            }
            PvfsMsg::IodWriteR { req, result } => {
                let Some(_) = self.pending.remove(&req) else {
                    return;
                };
                match result {
                    Ok(n) => self.acc_bytes += n,
                    Err(e) => self.failed = Some(e),
                }
                self.scatter_done(ctx);
            }
            PvfsMsg::IodReadR { req, result } => {
                let Some(fpos) = self.pending.remove(&req) else {
                    return;
                };
                match result {
                    Ok((n, data)) => {
                        self.acc_bytes += n;
                        if let (Some(buf), Some(d)) = (self.read_buf.as_mut(), data) {
                            let start = (fpos - self.read_base) as usize;
                            let end = (start + d.len()).min(buf.len());
                            buf[start..end].copy_from_slice(&d[..end - start]);
                        }
                    }
                    Err(e) => self.failed = Some(e),
                }
                self.scatter_done(ctx);
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------
// Cluster wrapper
// ---------------------------------------------------------------------

/// A PVFS deployment: one manager + N iods.
pub struct PvfsCluster {
    /// The underlying simulation.
    pub sim: Simulation<PvfsMsg>,
    mgr: NodeId,
    iods: Vec<NodeId>,
    costs: PvfsCosts,
}

impl PvfsCluster {
    /// Build `PVFS-n` (n iods).
    pub fn new(niods: usize, seed: u64, costs: PvfsCosts) -> PvfsCluster {
        let mut sim = Simulation::new(seed);
        // The manager's metadata disk uses the model's positioning knob
        // (inode-file + directory updates are all random accesses).
        let mut mgr_cfg = NodeConfig::default();
        mgr_cfg.disk.positioning = costs.mgr_disk_positioning;
        let mgr = sim.add_node(PvfsMgr::new(costs), mgr_cfg);
        let iods: Vec<NodeId> = (0..niods)
            .map(|_| sim.add_node(PvfsIod::new(costs), NodeConfig::default()))
            .collect();
        PvfsCluster {
            sim,
            mgr,
            iods,
            costs,
        }
    }

    /// The manager node id.
    pub fn manager(&self) -> NodeId {
        self.mgr
    }

    /// Attach a client.
    pub fn add_client<W: Workload>(&mut self, workload: W) -> NodeId {
        let client = PvfsClient::new(self.mgr, self.iods.clone(), self.costs, Box::new(workload));
        self.sim.add_node(client, NodeConfig::default())
    }

    /// Statistics of an attached client.
    pub fn client_stats(&self, id: NodeId) -> Option<&ClientStats> {
        self.sim.node_ref::<PvfsClient>(id).map(|c| &c.stats)
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
    fn stripe_mapping_round_robin() {
        // 3 full blocks over 2 iods starting at block 0.
        let ext = stripe_extents(0, 3 * STRIPE_UNIT, 2);
        assert_eq!(ext.len(), 3);
        assert_eq!(ext[0], (0, 0, STRIPE_UNIT, 0));
        assert_eq!(ext[1], (1, 0, STRIPE_UNIT, STRIPE_UNIT));
        assert_eq!(ext[2], (0, STRIPE_UNIT, STRIPE_UNIT, 2 * STRIPE_UNIT));
        // Mid-block start.
        let ext = stripe_extents(STRIPE_UNIT / 2, STRIPE_UNIT, 2);
        assert_eq!(ext.len(), 2);
        assert_eq!(ext[0].0, 0);
        assert_eq!(ext[0].2, STRIPE_UNIT / 2);
        assert_eq!(ext[1].0, 1);
    }

    #[test]
    fn pvfs_roundtrip() {
        let mut c = PvfsCluster::new(4, 1, PvfsCosts::default());
        let data: Vec<u8> = (0..300_000u32).map(|i| (i % 251) as u8).collect();
        let id = c.add_client(ScriptedWorkload::new(vec![
            ClientOp::Create { path: "/f".into() },
            ClientOp::write_bytes(0, data.clone()),
            ClientOp::Close,
            ClientOp::Open { path: "/f".into(), write: false },
            ClientOp::Read { offset: 0, len: 300_000 },
            ClientOp::Close,
        ]));
        c.run_for(Dur::secs(30));
        let s = c.client_stats(id).unwrap();
        assert_eq!(s.failed_ops, 0, "{:?}", s.last_error);
        assert_eq!(s.last_read.as_deref(), Some(&data[..]));
    }

    #[test]
    fn pvfs_metadata_latency_dominated_by_mgr_disk() {
        // Figure 9: PVFS-8 create ≈ 60 ms vs NFS 0.67 ms: the manager's
        // random metadata-disk accesses dominate.
        let mut c = PvfsCluster::new(8, 2, PvfsCosts::default());
        let id = c.add_client(ScriptedWorkload::new(vec![
            ClientOp::Create { path: "/lat".into() },
            ClientOp::Close,
        ]));
        c.run_for(Dur::secs(10));
        let s = c.client_stats(id).unwrap();
        assert_eq!(s.failed_ops, 0);
        let create_ms = s
            .latencies
            .iter()
            .find(|(k, _)| *k == "create")
            .map(|(_, d)| d.as_millis_f64())
            .unwrap();
        assert!(create_ms > 20.0 && create_ms < 120.0, "create {create_ms} ms");
    }

    #[test]
    fn pvfs_unlink_purges_iods() {
        let mut c = PvfsCluster::new(3, 3, PvfsCosts::default());
        let id = c.add_client(ScriptedWorkload::new(vec![
            ClientOp::Create { path: "/gone".into() },
            ClientOp::write_synth(0, 1_000_000),
            ClientOp::Close,
            ClientOp::Unlink { path: "/gone".into() },
            ClientOp::Stat { path: "/gone".into() },
        ]));
        c.run_for(Dur::secs(30));
        let s = c.client_stats(id).unwrap();
        assert_eq!(s.failed_ops, 1); // only the final stat
        assert_eq!(s.last_error, Some(Error::NotFound));
    }

    #[test]
    fn pvfs_synthetic_bulk() {
        let mut c = PvfsCluster::new(8, 4, PvfsCosts::default());
        let id = c.add_client(ScriptedWorkload::new(vec![
            ClientOp::Create { path: "/bulk".into() },
            ClientOp::write_synth(0, 64 << 20),
            ClientOp::Close,
            ClientOp::Open { path: "/bulk".into(), write: false },
            ClientOp::Read { offset: 0, len: 64 << 20 },
            ClientOp::Close,
        ]));
        c.run_for(Dur::secs(120));
        let s = c.client_stats(id).unwrap();
        assert_eq!(s.failed_ops, 0, "{:?}", s.last_error);
        assert_eq!(s.bytes_read, 64 << 20);
        assert_eq!(s.bytes_written, 64 << 20);
    }
}
