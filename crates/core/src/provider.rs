//! The storage provider daemon (§2.2, §3.3–3.7): manages the node's
//! locally attached disk through the segment store, participates in the
//! soft-state location protocol as a *home host*, repairs replication
//! lazily, and runs the migration daemon.
//!
//! All behaviour is event-driven: heartbeats, the four location-table
//! update events, repair scans, and once-a-minute migration decisions are
//! all timers; everything else reacts to RPCs.

use std::collections::{BTreeMap, HashMap, VecDeque};

use rand::Rng;
use sorrento_sim::{Ctx, DiskAccess, Dur, Node, NodeId, SimTime, TelemetryEvent};

use crate::transport::Transport;

use crate::costs::CostModel;
use crate::dedup::{ReplyCache, DEFAULT_REPLY_CACHE};
use crate::layout::IndexSegment;
use crate::location::{LocEntry, LocationTable};
use crate::membership::{Ewma, Heartbeat, MembershipEvent, MembershipView};
use crate::placement::{candidates_from_view, select_provider, Candidate};
use crate::proto::{decode_index, Msg, ReadReply, ReqId, Tick};
use crate::ring::HashRing;
use crate::store::{LocalStore, ReplicaImage, SegMeta};
use crate::swim::{MembershipMode, SwimDetector, SwimEvent};
use crate::types::{Error, PlacementPolicy, SegId, Version};

/// Why a replica fetch was queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FetchReason {
    /// Home-host-driven sync/repair.
    Sync,
    /// Migration pull; ack `MigrateDone` to the source.
    Migration,
}

#[derive(Debug)]
struct FetchJob {
    seg: SegId,
    source: NodeId,
    reason: FetchReason,
    /// Everyone owed a `SyncDone` when this fetch ends: the requester,
    /// if it asked for an ack (req != 0), and every requester of the
    /// same `(seg, source)` that arrived while this job was queued or
    /// in flight. One fetch answers them all.
    waiters: Vec<(NodeId, ReqId)>,
    /// Expected transfer size (sizes the fetch timeout; 512 MB segments
    /// take ~40 s on Fast Ethernet and must not be declared dead at 12 s).
    bytes_hint: u64,
}

/// One in-flight erasure-coded shard repair, driven by a provider that
/// holds the EC file's *index* segment (the index names every shard of
/// the code, so the index holder is the only node that can tell which
/// shards a dead provider took with it). Phases run strictly in order;
/// any surprise — a version skew, a read failure, the job deadline —
/// aborts the whole job, and the next repair scan retries from scratch.
struct EcRepairJob {
    /// The EC file's index segment (held locally).
    index_seg: SegId,
    /// Job deadline guard: `Tick::RpcTimeout(guard_req)` aborts the job
    /// so a lost reply can never wedge the (single) repair slot.
    guard_req: ReqId,
    phase: EcPhase,
}

enum EcPhase {
    /// Waiting for the index segment's owner list from its home host:
    /// only the lowest-id live owner drives the repair, so the index
    /// replica holders don't race each other into duplicate installs.
    Gate {
        req: ReqId,
        ix: Box<IndexSegment>,
    },
    /// Waiting for each shard's owner list from its home host (slots
    /// are data shards then parity shards, matching the code layout).
    Locate {
        ix: Box<IndexSegment>,
        /// Outstanding `(request, shard slot)` queries.
        pending: Vec<(ReqId, usize)>,
        /// Owner lists as they arrive, one per slot.
        owners: Vec<Option<Vec<NodeId>>>,
    },
    /// Waiting for `k` survivor shards' bytes.
    Fetch {
        ix: Box<IndexSegment>,
        /// Slots with no live owner (what we must rebuild).
        lost: Vec<usize>,
        /// Live owners per slot (the placement exclude set).
        owners: Vec<Vec<NodeId>>,
        /// Outstanding `(request, shard slot)` reads.
        pending: Vec<(ReqId, usize)>,
        /// Fetched shard bytes by slot (`k + m` entries).
        shards: Vec<Option<Vec<u8>>>,
        fetched: usize,
        /// Whether replies carried synthetic (length-only) payloads.
        /// Set by the first reply; a mismatch aborts.
        synthetic: Option<bool>,
    },
    /// Waiting for install acks from the fresh shard sites.
    Install { pending: Vec<ReqId> },
}

/// The storage provider node.
pub struct StorageProvider {
    costs: CostModel,
    /// The local segment store ("disk contents": survives crashes).
    pub store: LocalStore,
    // ---- soft state (dropped on crash) ----
    view: MembershipView,
    ring: HashRing,
    /// The ring lags `view` after joins; rebuilt lazily at first use so
    /// a join storm (SWIM convergence at scale) costs one rebuild, not
    /// one per member.
    ring_dirty: bool,
    loc: LocationTable,
    /// How liveness is tracked: multicast heartbeats (default) or SWIM
    /// gossip. Fixed at construction; seeded sims stay byte-identical
    /// because no SWIM timer is armed in heartbeat mode.
    membership_mode: MembershipMode,
    /// The SWIM detector, present only in [`MembershipMode::Swim`] while
    /// the provider is up (rebuilt from `swim_seeds` on restart).
    swim: Option<SwimDetector>,
    /// Bootstrap peer set for the SWIM detector.
    swim_seeds: Vec<NodeId>,
    load_ewma: Ewma,
    /// Replica fetches are serialized: at most one in flight, the rest
    /// queued (the paper's one-active-migration-per-node rule, applied to
    /// all background transfers so recovery traffic cannot swamp a node).
    fetch_queue: VecDeque<FetchJob>,
    fetch_inflight: Option<(ReqId, FetchJob)>,
    /// One outgoing migration at a time (§3.7.1).
    migration_inflight: Option<SegId>,
    /// Repair dedupe: (segment, target) → when last issued.
    repairs_issued: HashMap<(SegId, NodeId), SimTime>,
    /// Active erasure-coded repair (one at a time, like fetches).
    ec_repair: Option<EcRepairJob>,
    /// EC scan cooldown: index segments checked recently.
    ec_scan_done: HashMap<SegId, SimTime>,
    /// Join-refresh already scheduled for these providers.
    join_refresh_pending: Vec<NodeId>,
    next_req: ReqId,
    /// Disk bytes currently accounted to the simulator's disk model.
    disk_accounted: u64,
    my_machine: u32,
    /// Failure domain announced in heartbeats; repair prefers replica
    /// sites on racks that do not already hold a copy.
    pub rack: u32,
    // ---- observability ----
    /// Completed outbound migrations.
    pub migrations_done: u64,
    /// Replica installs performed (sync/repair/migration pulls).
    pub installs_done: u64,
    /// Reconstructed EC shards this node installed onto fresh sites
    /// (counted on the repairing index holder, at install ack).
    pub ec_repairs_done: u64,
    /// Monotonic heartbeat sequence (telemetry only).
    hb_seq: u64,
    /// Replies to recent non-idempotent requests (shadow creation, 2PC
    /// votes, direct writes), replayed verbatim when a resilient client
    /// re-sends a request whose reply was lost.
    replies: ReplyCache,
}

impl StorageProvider {
    /// A provider that keeps `keep_versions` committed versions per
    /// segment.
    pub fn new(costs: CostModel, keep_versions: usize) -> StorageProvider {
        StorageProvider {
            costs,
            store: LocalStore::new(keep_versions),
            view: MembershipView::new(),
            ring: HashRing::default(),
            ring_dirty: false,
            loc: LocationTable::new(),
            membership_mode: MembershipMode::Heartbeat,
            swim: None,
            swim_seeds: Vec::new(),
            load_ewma: Ewma::new(costs.load_ewma_alpha),
            fetch_queue: VecDeque::new(),
            fetch_inflight: None,
            migration_inflight: None,
            repairs_issued: HashMap::new(),
            ec_repair: None,
            ec_scan_done: HashMap::new(),
            join_refresh_pending: Vec::new(),
            next_req: 1,
            disk_accounted: 0,
            my_machine: 0,
            rack: 0,
            migrations_done: 0,
            installs_done: 0,
            ec_repairs_done: 0,
            hb_seq: 0,
            replies: ReplyCache::new(DEFAULT_REPLY_CACHE),
        }
    }

    /// Set the provider's rack (failure domain) before it starts.
    pub fn with_rack(mut self, rack: u32) -> StorageProvider {
        self.rack = rack;
        self
    }

    /// Choose the membership mechanism before the provider starts. In
    /// [`MembershipMode::Swim`], `seeds` are the peers assumed alive at
    /// boot (typically every configured provider).
    pub fn with_membership(
        mut self,
        mode: MembershipMode,
        seeds: impl IntoIterator<Item = NodeId>,
    ) -> StorageProvider {
        self.membership_mode = mode;
        self.swim_seeds = seeds.into_iter().collect();
        self
    }

    /// Setter form of [`StorageProvider::with_membership`], for nodes
    /// already handed to the simulator but not yet started.
    pub fn set_membership(&mut self, mode: MembershipMode, seeds: Vec<NodeId>) {
        self.membership_mode = mode;
        self.swim_seeds = seeds;
    }

    fn fresh_req(&mut self) -> ReqId {
        let r = self.next_req;
        self.next_req += 1;
        r
    }

    /// Current smoothed I/O-wait load.
    pub fn load(&self) -> f64 {
        self.load_ewma.get()
    }

    /// Location-table entries with fewer owners at the latest version
    /// than their replication degree: what repair has yet to restore,
    /// as far as this home host knows (home-host role).
    pub fn under_replicated(&self) -> usize {
        let short = |e: &LocEntry| (e.up_to_date_owners().len() as u32) < e.replication;
        self.loc.iter().filter(|(_, e)| short(e)).count()
    }

    /// Reconcile the store's physical bytes with the simulated disk.
    fn sync_disk(&mut self, ctx: &mut impl Transport) {
        let target = self.store.total_stored_bytes();
        if target > self.disk_accounted {
            // Over-commit is clamped: the explicit space check in
            // write paths keeps us under capacity in normal operation.
            let _ = ctx.disk().alloc(target - self.disk_accounted);
        } else {
            ctx.disk().free(self.disk_accounted - target);
        }
        self.disk_accounted = target;
    }

    fn heartbeat_payload(&mut self, ctx: &mut impl Transport) -> Heartbeat {
        let now = ctx.now();
        let io_wait = ctx.disk().sample_io_wait(now);
        let load = self.load_ewma.update(io_wait);
        Heartbeat {
            load,
            available: ctx.disk().available(),
            capacity: ctx.disk().capacity(),
            machine: self.my_machine,
            rack: self.rack,
        }
    }

    fn rebuild_ring(&mut self) {
        self.ring = HashRing::build(self.view.live());
        self.ring_dirty = false;
    }

    /// The placement ring, rebuilt first if membership changed since the
    /// last use.
    fn ring(&mut self) -> &HashRing {
        if self.ring_dirty {
            self.rebuild_ring();
        }
        &self.ring
    }

    /// Send a location update for one of our segments to its home host
    /// (applying locally when we are the home).
    fn upsert_location(
        &mut self,
        ctx: &mut impl Transport,
        seg: SegId,
        version: Version,
        replication: u32,
        deleted: bool,
    ) {
        let me = ctx.id();
        let bytes = self.store.stored_bytes(seg);
        let Some(home) = self.ring().home(seg) else {
            return;
        };
        if home == me {
            if deleted {
                self.loc.remove_owner(seg, me);
            } else {
                self.loc.upsert(seg, me, version, replication, bytes, ctx.now());
                self.check_entry_repairs(ctx, seg);
            }
        } else {
            ctx.send(
                home,
                Msg::LocUpsert {
                    seg,
                    owner: me,
                    version,
                    replication,
                    bytes,
                    deleted,
                },
            );
        }
    }

    /// Batch-refresh our stored segments to their home hosts. When
    /// `only_home` is set, refresh just the segments homed there.
    fn refresh_locations(&mut self, ctx: &mut impl Transport, only_home: Option<NodeId>) {
        let me = ctx.id();
        // BTreeMap: refresh messages go out in deterministic home order.
        let mut per_home: BTreeMap<NodeId, Vec<(SegId, Version, u32, u64)>> = BTreeMap::new();
        for (seg, version) in self.store.list_segments() {
            let Some(home) = self.ring().home(seg) else {
                continue;
            };
            if let Some(h) = only_home {
                if home != h {
                    continue;
                }
            }
            let replication = self.store.meta(seg).map(|m| m.replication).unwrap_or(1);
            let bytes = self.store.stored_bytes(seg);
            per_home
                .entry(home)
                .or_default()
                .push((seg, version, replication, bytes));
        }
        for (home, entries) in per_home {
            if home == me {
                for (seg, version, replication, bytes) in entries {
                    self.loc.upsert(seg, me, version, replication, bytes, ctx.now());
                }
            } else {
                ctx.send(home, Msg::LocRefresh { owner: me, entries });
            }
        }
    }

    /// Home-host role: react to a change in one location entry — notify
    /// stale owners to sync and repair under-replication (§3.6).
    fn check_entry_repairs(&mut self, ctx: &mut impl Transport, seg: SegId) {
        let now = ctx.now();
        let cooldown = self.costs.repair_scan_interval * 6;
        let Some(entry) = self.loc.lookup(seg) else {
            return;
        };
        let Some(latest) = entry.latest_version() else {
            return;
        };
        let up_to_date = entry.up_to_date_owners();
        let bytes_hint = entry.bytes;
        let Some(&source) = up_to_date.first() else {
            return;
        };
        let stale = entry.stale_owners();
        let all_owners: Vec<NodeId> = entry.owners.keys().copied().collect();
        // Repairs already issued and still within the cooldown count as
        // pending owners: without this, two triggers arriving before the
        // first new replica registers would each pick a site and
        // over-replicate.
        let pending_new: Vec<NodeId> = self
            .repairs_issued
            .iter()
            .filter(|((s, t), &at)| {
                *s == seg && now.since(at) < cooldown && !all_owners.contains(t)
            })
            .map(|((_, t), _)| *t)
            .collect();
        // Stale owners are being synced (below), so they still count
        // toward the degree; only genuinely missing replicas get new
        // sites ("fewer replicas than the specified degree", §3.6).
        let missing = entry
            .replication
            .saturating_sub(entry.owners.len() as u32 + pending_new.len() as u32);
        // Version-discrepancy sync (lazy propagation tail).
        for target in stale {
            if !self.view.is_live(target) {
                continue;
            }
            let key = (seg, target);
            if self
                .repairs_issued
                .get(&key)
                .is_some_and(|&t| now.since(t) < cooldown)
            {
                continue;
            }
            self.repairs_issued.insert(key, now);
            ctx.record(TelemetryEvent::RepairStart { seg: seg.0, to: target });
            ctx.send(target, Msg::SyncRequest { req: 0, seg, source, bytes_hint });
        }
        // Replication-degree repair: choose fresh sites, excluding every
        // current owner (§3.7.2: replicas on distinct providers) and —
        // when other racks have room — every provider sharing a rack
        // with an existing replica (the paper's planned GoogleFS-style
        // rack spreading).
        let mut exclude = all_owners;
        exclude.extend(pending_new);
        for _ in 0..missing {
            let cands = candidates_from_view(&self.view);
            let owner_racks: Vec<u32> = exclude
                .iter()
                .filter_map(|o| self.view.info(*o).map(|i| i.heartbeat.rack))
                .collect();
            let mut rack_exclude = exclude.clone();
            for (id, info) in self.view.entries() {
                if owner_racks.contains(&info.heartbeat.rack) && !rack_exclude.contains(&id) {
                    rack_exclude.push(id);
                }
            }
            // Fall back to provider-level spreading when every rack is
            // already represented.
            let effective: &[NodeId] =
                if cands.iter().any(|c| !rack_exclude.contains(&c.id)) {
                    &rack_exclude
                } else {
                    &exclude
                };
            let size = 0; // unknown remotely; treat as small for fitting
            let pick = select_provider(
                &cands,
                size.max(1),
                0.5,
                PlacementPolicy::LoadAware,
                effective,
                None,
                ctx.rng(),
            );
            let Some(target) = pick else {
                break;
            };
            let key = (seg, target);
            if self
                .repairs_issued
                .get(&key)
                .is_some_and(|&t| now.since(t) < cooldown)
            {
                exclude.push(target);
                continue;
            }
            self.repairs_issued.insert(key, now);
            ctx.record(TelemetryEvent::RepairStart { seg: seg.0, to: target });
            ctx.send(target, Msg::SyncRequest { req: 0, seg, source, bytes_hint });
            exclude.push(target);
        }
        let _ = latest;
    }

    fn repair_scan(&mut self, ctx: &mut impl Transport) {
        let segs: Vec<SegId> = self.loc.iter().map(|(s, _)| s).collect();
        for seg in segs {
            self.check_entry_repairs(ctx, seg);
        }
        // Trim the dedupe map so it cannot grow without bound.
        let horizon = self.costs.repair_scan_interval * 12;
        let now = ctx.now();
        self.repairs_issued
            .retain(|_, &mut t| now.since(t) < horizon);
        self.ec_repair_scan(ctx);
    }

    // ---- erasure-coded shard repair ----
    //
    // Replication repair (above) cannot rebuild an EC shard: the shard
    // has replication 1, so when its only owner dies there is no source
    // to copy from. Instead, any provider holding the file's *index*
    // segment (marked with `SegMeta::ec`) periodically checks every
    // shard's liveness and, as the lowest-id live index holder, decodes
    // the lost shards from `k` survivors and installs them on fresh
    // providers.

    /// Start at most one EC repair job per scan. Touches neither the
    /// RNG nor the network unless an EC-marked index segment is stored
    /// locally, so seeded runs without EC files are unperturbed.
    fn ec_repair_scan(&mut self, ctx: &mut impl Transport) {
        if self.ec_repair.is_some() {
            return;
        }
        let now = ctx.now();
        let cooldown = self.costs.repair_scan_interval * 2;
        self.ec_scan_done.retain(|_, &mut t| now.since(t) < cooldown);
        let candidate = self
            .store
            .list_segments()
            .into_iter()
            .map(|(s, _)| s)
            .find(|&s| {
                !self.ec_scan_done.contains_key(&s)
                    && self.store.meta(s).is_some_and(|m| m.ec.is_some())
            });
        let Some(index_seg) = candidate else {
            return;
        };
        self.ec_scan_done.insert(index_seg, now);
        // Decode the locally held index: it names every shard.
        let ix = match self.store.read(index_seg, None, 0, u64::MAX) {
            Ok(out) => match out.data.as_deref().map(decode_index) {
                Some(Ok(ix)) => ix,
                _ => return,
            },
            Err(_) => return,
        };
        let Some(p) = ix.ec_params() else { return };
        // A file that never committed its full stripe set (or a stale
        // pre-EC index) cannot be repaired from this index version.
        if ix.segments.len() != p.k as usize || ix.parity.len() != p.m as usize {
            return;
        }
        let Some(home) = self.ring().home(index_seg) else {
            return;
        };
        let guard_req = self.fresh_req();
        // Deadline sized for the whole job: a couple of RPC rounds plus
        // moving up to k+m shard-widths of data.
        let stripe_bytes = ix.ec_shard_len() * (p.k as u64 + p.m as u64);
        let deadline = self.costs.rpc_timeout * 8 + Dur::for_bytes(stripe_bytes, 2.5e5);
        ctx.set_timer(deadline, Msg::Tick(Tick::RpcTimeout(guard_req)));
        let me = ctx.id();
        if home == me {
            // We are the index's home host: answer the gate locally.
            let owners: Vec<NodeId> = self
                .loc
                .lookup(index_seg)
                .map(|e| e.owners.keys().copied().collect())
                .unwrap_or_default();
            self.ec_repair = Some(EcRepairJob {
                index_seg,
                guard_req,
                phase: EcPhase::Gate { req: 0, ix: Box::new(ix) },
            });
            self.ec_gate_decide(ctx, owners);
        } else {
            let req = self.fresh_req();
            self.ec_repair = Some(EcRepairJob {
                index_seg,
                guard_req,
                phase: EcPhase::Gate { req, ix: Box::new(ix) },
            });
            ctx.send(home, Msg::LocQuery { req, seg: index_seg });
        }
    }

    /// Gate on the index segment's owner list: proceed only when no
    /// lower-id live owner exists (they would run the identical job).
    fn ec_gate_decide(&mut self, ctx: &mut impl Transport, owners: Vec<NodeId>) {
        let Some(job) = self.ec_repair.take() else {
            return;
        };
        let EcPhase::Gate { ix, .. } = job.phase else {
            self.ec_repair = Some(job);
            return;
        };
        let me = ctx.id();
        let low = owners
            .iter()
            .copied()
            .filter(|&id| self.view.is_live(id))
            .min();
        if low.is_some_and(|l| l < me) {
            return; // a lower-id index holder owns this repair
        }
        self.ec_start_locate(ctx, job.index_seg, job.guard_req, ix);
    }

    /// Ask every shard's home host who owns it (answering locally for
    /// shards homed here).
    fn ec_start_locate(
        &mut self,
        ctx: &mut impl Transport,
        index_seg: SegId,
        guard_req: ReqId,
        ix: Box<IndexSegment>,
    ) {
        let me = ctx.id();
        let slots: Vec<SegId> = ix
            .segments
            .iter()
            .chain(ix.parity.iter())
            .map(|e| e.seg)
            .collect();
        let mut pending: Vec<(ReqId, usize)> = Vec::new();
        let mut owners: Vec<Option<Vec<NodeId>>> = vec![None; slots.len()];
        for (slot, &seg) in slots.iter().enumerate() {
            let Some(home) = self.ring().home(seg) else {
                owners[slot] = Some(Vec::new());
                continue;
            };
            if home == me {
                owners[slot] = Some(
                    self.loc
                        .lookup(seg)
                        .map(|e| e.owners.keys().copied().collect())
                        .unwrap_or_default(),
                );
            } else {
                let req = self.fresh_req();
                pending.push((req, slot));
                ctx.send(home, Msg::LocQuery { req, seg });
            }
        }
        self.ec_repair = Some(EcRepairJob {
            index_seg,
            guard_req,
            phase: EcPhase::Locate { ix, pending, owners },
        });
        self.ec_maybe_locate_done(ctx);
    }

    /// A `LocQueryR` arrived; route it to the gate or locate phase.
    fn on_ec_loc_reply(
        &mut self,
        ctx: &mut impl Transport,
        req: ReqId,
        seg: SegId,
        reply_owners: Vec<(NodeId, Version)>,
    ) {
        let mut gate_owners: Option<Vec<NodeId>> = None;
        let mut locate_progress = false;
        {
            let Some(job) = self.ec_repair.as_mut() else {
                return;
            };
            match &mut job.phase {
                EcPhase::Gate { req: r, .. } if *r == req && seg == job.index_seg => {
                    gate_owners = Some(reply_owners.iter().map(|&(id, _)| id).collect());
                }
                EcPhase::Locate { pending, owners, .. } => {
                    if let Some(pos) = pending.iter().position(|&(r, _)| r == req) {
                        let (_, slot) = pending.swap_remove(pos);
                        owners[slot] = Some(reply_owners.iter().map(|&(id, _)| id).collect());
                        locate_progress = true;
                    }
                }
                _ => {}
            }
        }
        if let Some(owners) = gate_owners {
            self.ec_gate_decide(ctx, owners);
        } else if locate_progress {
            self.ec_maybe_locate_done(ctx);
        }
    }

    /// Once every shard's owner list is in, classify lost shards and
    /// either finish (healthy / unrecoverable) or fetch `k` survivors.
    fn ec_maybe_locate_done(&mut self, ctx: &mut impl Transport) {
        let complete = matches!(
            &self.ec_repair,
            Some(j) if matches!(
                &j.phase,
                EcPhase::Locate { owners, .. } if owners.iter().all(|o| o.is_some())
            )
        );
        if !complete {
            return;
        }
        let Some(job) = self.ec_repair.take() else {
            return;
        };
        let EcPhase::Locate { ix, owners, .. } = job.phase else {
            self.ec_repair = Some(job);
            return;
        };
        // Only live owners count: the location table lags death
        // declarations by at most one refresh, and installing onto a
        // site that later proves alive is merely an extra copy.
        let owners: Vec<Vec<NodeId>> = owners
            .into_iter()
            .map(|o| {
                o.expect("checked complete")
                    .into_iter()
                    .filter(|&id| self.view.is_live(id))
                    .collect()
            })
            .collect();
        let p = ix.ec_params().expect("scan checked params");
        let (k, m) = (p.k as usize, p.m as usize);
        let lost: Vec<usize> = owners
            .iter()
            .enumerate()
            .filter(|(_, o)| o.is_empty())
            .map(|(i, _)| i)
            .collect();
        if lost.is_empty() {
            return; // all shards alive — nothing to do
        }
        // A home that joined the view moments ago answers from a table
        // its owners have not yet refreshed (§3.4.1 event 2: each does so
        // within `join_refresh_delay_max` of seeing the join), so "no
        // owner" there is not yet "lost" (after a fleet restart every
        // shard would look lost and get an extra copy). The next scan
        // asks again.
        let warm = self.costs.heartbeat_interval * 2 + self.costs.join_refresh_delay_max;
        let now = ctx.now();
        let entries = ix.segments.iter().chain(ix.parity.iter());
        let homes: Vec<Option<NodeId>> = entries.map(|e| self.ring().home(e.seg)).collect();
        let cold = |slot: &usize| {
            let info = homes[*slot].and_then(|h| self.view.info(h));
            info.is_none_or(|i| now.since(i.since) < warm)
        };
        if lost.iter().any(cold) {
            return;
        }
        if lost.len() > m {
            ctx.metrics().count("provider.ec_unrecoverable", 1);
            return; // more failures than the code tolerates
        }
        // Fetch the first k survivors, each from its lowest-id owner.
        let entries: Vec<crate::layout::SegEntry> = ix
            .segments
            .iter()
            .chain(ix.parity.iter())
            .copied()
            .collect();
        let mut pending: Vec<(ReqId, usize)> = Vec::new();
        for (slot, own) in owners.iter().enumerate() {
            if own.is_empty() || pending.len() >= k {
                continue;
            }
            let source = *own.iter().min().expect("non-empty");
            let e = entries[slot];
            let req = self.fresh_req();
            pending.push((req, slot));
            ctx.send(
                source,
                Msg::ReadSeg {
                    req,
                    seg: e.seg,
                    offset: 0,
                    len: u64::MAX,
                    min_version: Some(e.version),
                    allow_redirect: false,
                },
            );
        }
        let total = entries.len();
        self.ec_repair = Some(EcRepairJob {
            index_seg: job.index_seg,
            guard_req: job.guard_req,
            phase: EcPhase::Fetch {
                ix,
                lost,
                owners,
                pending,
                shards: vec![None; total],
                fetched: 0,
                synthetic: None,
            },
        });
    }

    /// A survivor shard read came back.
    fn on_ec_read_reply(&mut self, ctx: &mut impl Transport, req: ReqId, reply: ReadReply) {
        enum Next {
            Wait,
            Abort,
            Reconstruct,
        }
        let next = {
            let Some(job) = self.ec_repair.as_mut() else {
                return;
            };
            let EcPhase::Fetch {
                ix,
                pending,
                shards,
                fetched,
                synthetic,
                ..
            } = &mut job.phase
            else {
                return;
            };
            let Some(pos) = pending.iter().position(|&(r, _)| r == req) else {
                return;
            };
            let (_, slot) = pending.swap_remove(pos);
            match reply {
                ReadReply::Data { data, version, .. } => {
                    // Reconstruction needs a *consistent* stripe. A
                    // version other than the one our index names means
                    // a newer commit landed (or our index replica is
                    // stale): that index's holders will repair.
                    let expected = ix
                        .segments
                        .iter()
                        .chain(ix.parity.iter())
                        .nth(slot)
                        .map(|e| e.version);
                    let is_synth = data.is_none();
                    if expected != Some(version)
                        || synthetic.is_some_and(|s| s != is_synth)
                    {
                        Next::Abort
                    } else {
                        *synthetic = Some(is_synth);
                        shards[slot] = data.map(|b| b.to_vec()).or(Some(Vec::new()));
                        *fetched += 1;
                        let k = ix.ec_params().expect("scan checked params").k as usize;
                        if *fetched >= k {
                            Next::Reconstruct
                        } else {
                            Next::Wait
                        }
                    }
                }
                // A survivor refused: abort, rescan later.
                _ => Next::Abort,
            }
        };
        match next {
            Next::Wait => {}
            Next::Abort => {
                self.ec_repair = None;
                ctx.metrics().count("provider.ec_repair_aborts", 1);
            }
            Next::Reconstruct => self.ec_reconstruct_and_install(ctx),
        }
    }

    /// All `k` survivors are in: rebuild the lost shards and push each
    /// onto a fresh provider holding no other shard of this file.
    fn ec_reconstruct_and_install(&mut self, ctx: &mut impl Transport) {
        let Some(job) = self.ec_repair.take() else {
            return;
        };
        let EcPhase::Fetch {
            ix,
            lost,
            owners,
            shards,
            synthetic,
            ..
        } = job.phase
        else {
            self.ec_repair = Some(job);
            return;
        };
        let now = ctx.now();
        let me = ctx.id();
        let p = ix.ec_params().expect("scan checked params");
        let shard_len = ix.ec_shard_len() as usize;
        let synthetic = synthetic.unwrap_or(false);
        let entries: Vec<crate::layout::SegEntry> = ix
            .segments
            .iter()
            .chain(ix.parity.iter())
            .copied()
            .collect();
        // Decode the lost shards (synthetic payloads are length-only,
        // so "reconstruction" is just re-materializing the lengths).
        let mut decoded: Vec<Option<Vec<u8>>> = vec![None; entries.len()];
        if !synthetic {
            let mut work: Vec<Option<Vec<u8>>> = shards
                .into_iter()
                .map(|s| {
                    s.map(|mut v| {
                        v.resize(shard_len, 0); // stored lengths are unpadded
                        v
                    })
                })
                .collect();
            let ok = sorrento_ec::ReedSolomon::new(p.k as usize, p.m as usize)
                .and_then(|rs| rs.reconstruct(&mut work))
                .is_ok();
            if !ok {
                ctx.metrics().count("provider.ec_repair_aborts", 1);
                return;
            }
            decoded = work;
        }
        // Place each rebuilt shard on a provider holding no shard of
        // this file (and not this node: the index holder stays a pure
        // coordinator so repair traffic spreads).
        let owner_sites: Vec<NodeId> = owners.iter().flatten().copied().collect();
        let mut picked: Vec<NodeId> = Vec::new();
        let mut pending: Vec<ReqId> = Vec::new();
        for &slot in &lost {
            let e = entries[slot];
            let cands = candidates_from_view(&self.view);
            let mut exclude: Vec<NodeId> = owner_sites.clone();
            exclude.push(me);
            exclude.extend(picked.iter().copied());
            let target = select_provider(
                &cands,
                (shard_len as u64).max(1),
                0.5,
                PlacementPolicy::LoadAware,
                &exclude,
                None,
                ctx.rng(),
            )
            .or_else(|| {
                // Distinct-site placement starves when every survivor
                // already hosts a shard (or is this coordinator).
                // Restoring decodability beats preserving perfect
                // failure independence: fall back to excluding only
                // this node and targets picked this round, and let a
                // later migration restore the spread.
                ctx.metrics().count("provider.ec_repair_relaxed", 1);
                let mut minimal = vec![me];
                minimal.extend(picked.iter().copied());
                select_provider(
                    &cands,
                    (shard_len as u64).max(1),
                    0.5,
                    PlacementPolicy::LoadAware,
                    &minimal,
                    None,
                    ctx.rng(),
                )
            });
            let Some(target) = target else {
                break; // cluster too small even relaxed; retry later
            };
            picked.push(target);
            let mut meta = SegMeta::from_options(&ix.options, synthetic);
            meta.replication = 1; // shards are singly stored by design
            let data = if synthetic {
                None
            } else {
                let mut bytes = decoded[slot].clone().expect("reconstruct filled");
                bytes.truncate(e.len as usize); // stored lengths are unpadded
                Some(bytes.into())
            };
            let image = ReplicaImage {
                seg: e.seg,
                version: e.version,
                len: e.len,
                data,
                meta,
            };
            let req = self.fresh_req();
            pending.push(req);
            self.repairs_issued.insert((e.seg, target), now);
            ctx.record(TelemetryEvent::EcRepair { seg: e.seg.0, to: target });
            ctx.metrics().count("provider.ec_repairs", 1);
            ctx.send(target, Msg::EcInstall { req, xfer: Box::new(image.into()) });
        }
        if pending.is_empty() {
            return;
        }
        self.ec_repair = Some(EcRepairJob {
            index_seg: job.index_seg,
            guard_req: job.guard_req,
            phase: EcPhase::Install { pending },
        });
    }

    /// An install ack arrived from a fresh shard site.
    fn on_ec_install_reply(&mut self, req: ReqId, result: Result<(), Error>) {
        let Some(job) = self.ec_repair.as_mut() else {
            return;
        };
        let EcPhase::Install { pending } = &mut job.phase else {
            return;
        };
        let Some(pos) = pending.iter().position(|&r| r == req) else {
            return;
        };
        pending.swap_remove(pos);
        if result.is_ok() {
            self.ec_repairs_done += 1;
        }
        if self
            .ec_repair
            .as_ref()
            .is_some_and(|j| matches!(&j.phase, EcPhase::Install { pending } if pending.is_empty()))
        {
            self.ec_repair = None;
        }
    }

    fn enqueue_fetch(&mut self, ctx: &mut impl Transport, job: FetchJob) {
        // A fetch of the same segment from the same source is already
        // queued or in flight: ride along instead of fetching twice.
        let same = self
            .fetch_inflight
            .iter_mut()
            .map(|(_, j)| j)
            .chain(self.fetch_queue.iter_mut())
            .find(|j| j.seg == job.seg && j.source == job.source);
        if let Some(running) = same {
            running.waiters.extend(job.waiters);
            return;
        }
        self.fetch_queue.push_back(job);
        self.kick_fetch(ctx);
    }

    fn kick_fetch(&mut self, ctx: &mut impl Transport) {
        if self.fetch_inflight.is_some() {
            return;
        }
        let Some(job) = self.fetch_queue.pop_front() else {
            return;
        };
        let req = self.fresh_req();
        ctx.send(job.source, Msg::FetchSeg { req, seg: job.seg });
        let timeout = self.costs.rpc_timeout * 4 + Dur::for_bytes(job.bytes_hint, 2.5e5);
        ctx.set_timer(timeout, Msg::Tick(Tick::RpcTimeout(req)));
        self.fetch_inflight = Some((req, job));
    }

    fn finish_fetch(&mut self, ctx: &mut impl Transport, job: FetchJob, installed: Option<Version>) {
        for (to, req) in job.waiters {
            ctx.send(
                to,
                Msg::SyncDone {
                    req,
                    seg: job.seg,
                    version: installed.unwrap_or(Version::INITIAL),
                    result: installed.map(|_| ()).ok_or(Error::NoSuchSegment),
                },
            );
        }
        if job.reason == FetchReason::Migration {
            ctx.send(job.source, Msg::MigrateDone { seg: job.seg, ok: installed.is_some() });
        }
        self.kick_fetch(ctx);
    }

    // ---- migration daemon (§3.7) ----

    fn migration_tick(&mut self, ctx: &mut impl Transport) {
        if self.migration_inflight.is_some() || self.view.len() < 2 {
            return;
        }
        if self.try_locality_migration(ctx) {
            return;
        }
        self.try_balance_migration(ctx);
    }

    /// Locality-driven policy (§3.7.2): migrate a segment to the provider
    /// co-located with the machine generating most of its traffic.
    fn try_locality_migration(&mut self, ctx: &mut impl Transport) -> bool {
        let me = ctx.id();
        let segs = self.store.list_segments();
        for (seg, _) in segs {
            let Some(meta) = self.store.meta(seg) else {
                continue;
            };
            let PlacementPolicy::LocalityDriven { threshold } = meta.policy else {
                continue;
            };
            let shares = self.store.traffic_shares(seg);
            let Some(&(machine, share)) = shares.first() else {
                continue;
            };
            if machine == self.my_machine || share <= threshold.max(0.5) {
                continue;
            }
            let Some(dest) = self.view.provider_on_machine(machine) else {
                continue;
            };
            if dest == me {
                continue;
            }
            self.start_migration(ctx, seg, dest, "locality");
            return true;
        }
        false
    }

    /// Load/storage-balance policy (§3.7.1): move hot segments off
    /// I/O-loaded nodes (α = 0.8) and cold segments off full nodes
    /// (α = 0.3) when this node is in the top 10% and above mean + 3σ.
    /// Returns whether a migration was started.
    fn try_balance_migration(&mut self, ctx: &mut impl Transport) -> bool {
        let me = ctx.id();
        let n = self.view.len();
        let top_slots = ((n as f64 * self.costs.migration_top_fraction).ceil() as usize).max(1);
        // Use our own *heartbeat* values so ranking against the view
        // compares identically-computed numbers (deriving my_util from
        // the raw disk state differs in the last float ulp and can make
        // a node spuriously outrank itself).
        let util_of = |h: &Heartbeat| {
            if h.capacity == 0 {
                0.0
            } else {
                1.0 - h.available as f64 / h.capacity as f64
            }
        };
        let me_info = self.view.info(ctx.id());
        let my_load = me_info.map(|i| i.heartbeat.load).unwrap_or(0.0);
        let my_util = me_info.map(|i| util_of(&i.heartbeat)).unwrap_or(0.0);
        let (load_mean, load_sd) = self.view.load_stats();
        let (util_mean, util_sd) = self.view.storage_stats();
        // The paper's trigger is "among the highest 10% AND above
        // mean + 3σ". With a population of n nodes the maximum possible
        // z-score is √(n−1) — exactly 3.0 at the paper's own n = 10 — so
        // the literal condition is unreachable in practice, yet Figure 14
        // shows migration firing. We therefore add a relative-imbalance
        // fallback (>1.2× the mean with a significant absolute excess),
        // which preserves the intent — only the top-ranked clear outlier
        // migrates, one paced transfer at a time, so there is no
        // oscillation — while letting the balance converge to the
        // paper's observed band.
        let outlier = |value: f64, mean: f64, sd: f64, abs_gap: f64| {
            (sd > 0.0 && value > mean + 3.0 * sd)
                || (value > 1.2 * mean && value - mean > abs_gap)
        };
        let io_trigger = self.view.rank_descending(my_load, |h| h.load) < top_slots
            && outlier(my_load, load_mean, load_sd, 0.15);
        let util_trigger = self.view.rank_descending(my_util, |h| util_of(h)) < top_slots
            && outlier(my_util, util_mean, util_sd, 0.04);
        let (pick_hot, alpha) = if io_trigger {
            (true, self.costs.migration_alpha_hot)
        } else if util_trigger {
            (false, self.costs.migration_alpha_cold)
        } else {
            return false;
        };
        let by_temp = self.store.segments_by_temperature();
        let candidate_seg = if pick_hot {
            by_temp.iter().rev().find(|&&(_, _, bytes)| bytes > 0)
        } else {
            // Storage rebalancing wants cold data *and* meaningful volume:
            // among the coldest quartile, move the biggest segment.
            let quarter = (by_temp.len() / 4).max(1).min(by_temp.len());
            by_temp[..quarter]
                .iter()
                .filter(|&&(_, _, bytes)| bytes > 0)
                .max_by_key(|&&(seg, _, bytes)| (bytes, seg))
                .or_else(|| by_temp.iter().find(|&&(_, _, bytes)| bytes > 0))
        };
        let Some(&(seg, _, bytes)) = candidate_seg else {
            return false;
        };
        let cands: Vec<Candidate> = candidates_from_view(&self.view);
        // Never migrate *into* a node that is itself above average on the
        // dimension being balanced — the weighted draw alone discriminates
        // too weakly once the log factor saturates.
        let mut exclude = vec![me];
        for (id, info) in self.view.entries() {
            let over = if pick_hot {
                info.heartbeat.load >= load_mean
            } else {
                util_of(&info.heartbeat) >= util_mean
            };
            if over && id != me {
                exclude.push(id);
            }
        }
        let Some(dest) = select_provider(
            &cands,
            bytes,
            alpha,
            PlacementPolicy::LoadAware,
            &exclude,
            None,
            ctx.rng(),
        ) else {
            return false;
        };
        self.start_migration(ctx, seg, dest, if pick_hot { "load" } else { "capacity" });
        true
    }

    fn start_migration(
        &mut self,
        ctx: &mut impl Transport,
        seg: SegId,
        dest: NodeId,
        reason: &'static str,
    ) {
        let me = ctx.id();
        let bytes_hint = self.store.stored_bytes(seg);
        self.migration_inflight = Some(seg);
        ctx.record(TelemetryEvent::Migration { seg: seg.0, from: me, to: dest, reason });
        ctx.send(dest, Msg::MigrateTo { seg, source: me, bytes_hint });
        ctx.metrics().count("sorrento.migrations_started", 1);
        ctx.metrics().count_labeled("sorrento.migration", reason, 1);
    }

    fn on_membership_events(&mut self, ctx: &mut impl Transport, events: Vec<MembershipEvent>) {
        for ev in events {
            match ev {
                MembershipEvent::Joined(p) => {
                    ctx.record(TelemetryEvent::MemberJoin { of: p });
                    // Joins shift homes toward p; the delayed refresh
                    // below covers them, so the rebuild can wait.
                    self.ring_dirty = true;
                    if p != ctx.id() && !self.join_refresh_pending.contains(&p) {
                        self.join_refresh_pending.push(p);
                        // "the refreshing event is scheduled after a short
                        // random delay" (§3.4.1 event 2).
                        let max = self.costs.join_refresh_delay_max.as_nanos().max(1);
                        let delay = Dur::nanos(ctx.rng().gen_range(0..max));
                        ctx.set_timer(delay, Msg::Tick(Tick::JoinRefresh(p)));
                    }
                }
                MembershipEvent::Departed(p) => {
                    ctx.record(TelemetryEvent::DeathDeclared { of: p });
                    ctx.record(TelemetryEvent::MemberLeave { of: p });
                    let old_ring = self.ring().clone();
                    self.rebuild_ring();
                    self.join_refresh_pending.retain(|&x| x != p);
                    // Event 3: drop the departed owner everywhere; the
                    // affected entries get repair-checked.
                    let affected = self.loc.remove_provider(p);
                    ctx.record(TelemetryEvent::LocPurge {
                        of: p,
                        removed: affected.len() as u64,
                    });
                    for seg in affected {
                        self.check_entry_repairs(ctx, seg);
                    }
                    // Re-home our segments whose home was p.
                    let me = ctx.id();
                    let mut per_home: BTreeMap<NodeId, Vec<(SegId, Version, u32, u64)>> =
                        BTreeMap::new();
                    for (seg, version) in self.store.list_segments() {
                        if old_ring.home(seg) != Some(p) {
                            continue;
                        }
                        let Some(new_home) = self.ring().home(seg) else {
                            continue;
                        };
                        let replication =
                            self.store.meta(seg).map(|m| m.replication).unwrap_or(1);
                        let bytes = self.store.stored_bytes(seg);
                        per_home
                            .entry(new_home)
                            .or_default()
                            .push((seg, version, replication, bytes));
                    }
                    for (home, entries) in per_home {
                        if home == me {
                            for (seg, version, replication, bytes) in entries {
                                self.loc.upsert(seg, me, version, replication, bytes, ctx.now());
                                self.check_entry_repairs(ctx, seg);
                            }
                        } else {
                            ctx.send(home, Msg::LocRefresh { owner: me, entries });
                        }
                    }
                }
            }
        }
    }

    /// Export the provider's health gauges. Heartbeat mode calls this
    /// from the heartbeat tick; gossip mode from its own
    /// [`Tick::GaugeExport`] timer (same gauges, same order).
    fn export_gauges(&mut self, ctx: &mut impl Transport) {
        let me = ctx.id();
        ctx.metrics()
            .gauge_set(&format!("{me}.live_providers"), self.view.len() as f64);
        ctx.metrics()
            .gauge_set(&format!("{me}.loc_entries"), self.loc.len() as f64);
        ctx.metrics()
            .gauge_set(&format!("{me}.fetch_queue"), self.fetch_queue.len() as f64);
        ctx.metrics()
            .gauge_set(&format!("{me}.segments"), self.store.list_segments().len() as f64);
        ctx.metrics()
            .gauge_set(&format!("{me}.stored_bytes"), self.store.total_stored_bytes() as f64);
    }

    /// Fold what the SWIM detector learned into the membership view, so
    /// every downstream consumer (ring, placement, repair, migration)
    /// sees exactly the events the heartbeat path would have produced.
    fn fold_swim_events(&mut self, ctx: &mut impl Transport, events: Vec<SwimEvent>) {
        for ev in events {
            match ev {
                SwimEvent::Alive { node, payload } => {
                    let joined = self.view.observe(node, payload, ctx.now());
                    self.on_membership_events(ctx, joined.into_iter().collect());
                }
                SwimEvent::Suspect { node, incarnation } => {
                    ctx.record(TelemetryEvent::SwimSuspect { of: node, incarnation });
                }
                SwimEvent::Refuted { incarnation } => {
                    ctx.record(TelemetryEvent::SwimRefute { incarnation });
                }
                SwimEvent::Dead { node } => {
                    if self.view.remove(node) {
                        self.on_membership_events(
                            ctx,
                            vec![MembershipEvent::Departed(node)],
                        );
                    }
                }
            }
        }
    }

    /// The `sorrentoctl members` report: this node's membership view —
    /// the SWIM table (with states and incarnations) in gossip mode, the
    /// heartbeat view otherwise.
    fn members_json(&self, ctx: &mut impl Transport) -> String {
        use sorrento_json::Json;
        let mut members = Json::arr();
        match &self.swim {
            Some(swim) => {
                for u in swim.snapshot() {
                    let state = match u.state {
                        crate::swim::SwimState::Alive => "alive",
                        crate::swim::SwimState::Suspect => "suspect",
                        crate::swim::SwimState::Dead => "dead",
                    };
                    let mut m = Json::obj()
                        .with("node", u.node.index())
                        .with("state", state)
                        .with("incarnation", u.incarnation);
                    if let Some(hb) = u.payload {
                        m = m
                            .with("load", hb.load)
                            .with("available", hb.available)
                            .with("capacity", hb.capacity);
                    }
                    members.push(m);
                }
            }
            None => {
                for (id, info) in self.view.entries() {
                    members.push(
                        Json::obj()
                            .with("node", id.index())
                            .with("state", "alive")
                            .with("load", info.heartbeat.load)
                            .with("available", info.heartbeat.available)
                            .with("capacity", info.heartbeat.capacity),
                    );
                }
            }
        }
        Json::obj()
            .with("node", ctx.id().index())
            .with(
                "mode",
                if self.swim.is_some() { "swim" } else { "heartbeat" },
            )
            .with("live", self.view.len())
            .with("members", members)
            .encode()
    }

    /// Serve a read against the local store, or redirect via the
    /// location table (home-host role), or fail.
    #[allow(clippy::too_many_arguments)]
    fn serve_read(
        &mut self,
        ctx: &mut impl Transport,
        from: NodeId,
        seg: SegId,
        offset: u64,
        len: u64,
        min_version: Option<Version>,
        allow_redirect: bool,
    ) -> ReadReply {
        // Serve the exact requested version when we hold it (the open
        // pinned it); otherwise our latest, provided it is not older than
        // requested. Exactness matters: a divergent orphan from a failed
        // 2PC can share a sequence number with the real commit, and only
        // the full (entropy-carrying) version identifies the right bytes.
        let serve_version = match (self.store.latest(seg), min_version) {
            (Some(_), Some(min)) if self.store.has_version(seg, min) => Some(Some(min)),
            (Some(v), Some(min)) if v >= min => Some(None),
            (Some(_), None) => Some(None),
            _ => None,
        };
        if let Some(version_sel) = serve_version {
            match self.store.read(seg, version_sel, offset, len) {
                Ok(out) => {
                    self.store
                        .touch(seg, ctx.now(), ctx.machine_of(from), out.len);
                    return ReadReply::Data {
                        len: out.len,
                        data: out.data,
                        version: out.version,
                        crc: out.crc,
                    };
                }
                Err(e) => return ReadReply::Err(e),
            }
        }
        if allow_redirect {
            if let Some(entry) = self.loc.lookup(seg) {
                let owners: Vec<(NodeId, Version)> = entry
                    .owners
                    .iter()
                    .map(|(&id, info)| (id, info.version))
                    .collect();
                if !owners.is_empty() {
                    return ReadReply::Redirect(owners);
                }
            }
        }
        ReadReply::Err(Error::NoSuchSegment)
    }
}

/// Runtime entry points: the same handlers drive the provider in the
/// simulator (via the thin [`Node`] impl below) and in the real-process
/// runtime (which calls them directly with its own [`Transport`]).
impl StorageProvider {
    /// Bring the provider online: reconcile disk accounting, announce
    /// membership, arm the maintenance timers.
    pub fn handle_start(&mut self, ctx: &mut impl Transport) {
        self.my_machine = ctx.machine_of(ctx.id());
        // Reconcile disk accounting (shadows died with a crash; committed
        // segments survived on disk).
        self.disk_accounted = ctx.disk().used();
        self.sync_disk(ctx);
        // Announce immediately, then periodically.
        let hb = self.heartbeat_payload(ctx);
        self.view.observe(ctx.id(), hb, ctx.now());
        self.rebuild_ring();
        match self.membership_mode {
            MembershipMode::Heartbeat => {
                self.hb_seq += 1;
                ctx.record(TelemetryEvent::HeartbeatSend { seq: self.hb_seq });
                ctx.multicast(Msg::Heartbeat(hb));
                ctx.set_timer(self.costs.heartbeat_interval, Msg::Tick(Tick::Heartbeat));
            }
            MembershipMode::Swim => {
                let mut swim =
                    SwimDetector::new(ctx.id(), self.swim_seeds.iter().copied(), self.costs.swim());
                swim.set_self_payload(hb);
                swim.start(ctx);
                self.swim = Some(swim);
                // Heartbeat-mode gauges ride the heartbeat tick; gossip
                // mode keeps them on a dedicated timer so observability
                // does not die with the multicast.
                ctx.set_timer(self.costs.heartbeat_interval, Msg::Tick(Tick::GaugeExport));
            }
        }
        // Stagger the first full refresh so a cold cluster doesn't refresh
        // in lockstep.
        let stagger =
            Dur::nanos(ctx.rng().gen_range(0..self.costs.refresh_interval.as_nanos().max(1)));
        ctx.set_timer(stagger, Msg::Tick(Tick::LocationRefresh));
        ctx.set_timer(self.costs.repair_scan_interval, Msg::Tick(Tick::RepairScan));
        ctx.set_timer(self.costs.migration_interval, Msg::Tick(Tick::Migration));
        ctx.set_timer(self.costs.location_gc_age, Msg::Tick(Tick::Gc));
    }

    /// Crash handling: soft state dies with the process; the store
    /// ("disk") survives into a later [`StorageProvider::handle_start`].
    pub fn handle_crash(&mut self) {
        // Soft state dies with the process; the store ("disk") survives.
        self.view = MembershipView::new();
        self.ring = HashRing::default();
        self.ring_dirty = false;
        self.swim = None;
        self.loc.clear();
        self.fetch_queue.clear();
        self.fetch_inflight = None;
        self.migration_inflight = None;
        self.repairs_issued.clear();
        self.ec_repair = None;
        self.ec_scan_done.clear();
        self.join_refresh_pending.clear();
        self.replies.clear();
        self.store.expire_all_shadows();
    }

    /// Process one delivered message or fired timer.
    pub fn handle_message(&mut self, from: NodeId, msg: Msg, ctx: &mut impl Transport) {
        let now = ctx.now();
        // Replayed non-idempotent request (same-request resend after a
        // lost reply)? Answer from the cache without executing twice: a
        // re-run Commit on an already-consumed shadow would return
        // `ShadowExpired` for a write that actually succeeded.
        if let Some(req) = dedup_key(&msg) {
            if let Some(cached) = self.replies.get(from, req) {
                let reply = cached.clone();
                ctx.metrics().count("provider.dedup_replays", 1);
                ctx.record(TelemetryEvent::DedupHit {
                    span: crate::proto::span_of(&msg),
                    kind: crate::proto::dbg_kind(&msg),
                });
                let done = ctx.cpu(self.costs.provider_op_cpu);
                ctx.send_at(done, from, reply);
                return;
            }
        }
        match msg {
            // ---------------- timers ----------------
            Msg::Tick(Tick::Heartbeat) => {
                let hb = self.heartbeat_payload(ctx);
                self.view.observe(ctx.id(), hb, now);
                self.hb_seq += 1;
                ctx.record(TelemetryEvent::HeartbeatSend { seq: self.hb_seq });
                ctx.multicast(Msg::Heartbeat(hb));
                // Surface providers that are going silent *before* the
                // death deadline: failure-detection latency is visible in
                // the event stream, not just its outcome.
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
                let departed = self.view.expire(now, self.costs.heartbeat_interval);
                self.on_membership_events(ctx, departed);
                self.export_gauges(ctx);
                ctx.set_timer(self.costs.heartbeat_interval, Msg::Tick(Tick::Heartbeat));
            }
            Msg::Tick(Tick::GaugeExport) => {
                // Gossip mode's stand-in for the gauge export that rides
                // the heartbeat tick: same gauges, own timer.
                self.export_gauges(ctx);
                ctx.set_timer(self.costs.heartbeat_interval, Msg::Tick(Tick::GaugeExport));
            }
            Msg::Tick(Tick::SwimProbe) => {
                let Some(mut swim) = self.swim.take() else { return };
                let hb = self.heartbeat_payload(ctx);
                swim.set_self_payload(hb);
                self.view.observe(ctx.id(), hb, now);
                swim.on_probe_tick(ctx);
                self.swim = Some(swim);
            }
            Msg::Tick(Tick::SwimAckTimeout(seq)) => {
                let Some(mut swim) = self.swim.take() else { return };
                swim.on_ack_timeout(seq, ctx);
                self.swim = Some(swim);
            }
            Msg::Tick(Tick::SwimProbeTimeout(seq)) => {
                let Some(mut swim) = self.swim.take() else { return };
                let events = swim.on_probe_timeout(seq, ctx);
                self.swim = Some(swim);
                self.fold_swim_events(ctx, events);
            }
            Msg::Tick(Tick::SwimSuspectTimeout(node, incarnation)) => {
                let Some(mut swim) = self.swim.take() else { return };
                let events = swim.on_suspect_timeout(node, incarnation, ctx);
                self.swim = Some(swim);
                self.fold_swim_events(ctx, events);
            }
            Msg::Tick(Tick::SwimSync) => {
                let Some(mut swim) = self.swim.take() else { return };
                swim.on_sync_tick(ctx);
                self.swim = Some(swim);
            }
            Msg::Tick(Tick::LocationRefresh) => {
                self.refresh_locations(ctx, None);
                ctx.set_timer(self.costs.refresh_interval, Msg::Tick(Tick::LocationRefresh));
            }
            Msg::Tick(Tick::JoinRefresh(p)) => {
                self.join_refresh_pending.retain(|&x| x != p);
                if self.view.is_live(p) {
                    self.refresh_locations(ctx, Some(p));
                }
            }
            Msg::Tick(Tick::Gc) => {
                self.loc.purge_stale(now, self.costs.location_gc_age);
                self.store.expire_shadows(now);
                self.sync_disk(ctx);
                ctx.set_timer(self.costs.location_gc_age, Msg::Tick(Tick::Gc));
            }
            Msg::Tick(Tick::RepairScan) => {
                self.repair_scan(ctx);
                ctx.set_timer(self.costs.repair_scan_interval, Msg::Tick(Tick::RepairScan));
            }
            Msg::Tick(Tick::Migration) => {
                self.migration_tick(ctx);
                ctx.set_timer(self.costs.migration_interval, Msg::Tick(Tick::Migration));
            }
            Msg::Tick(Tick::MigrationContinue)
                // The active migration process streams: locality moves
                // first, then balance moves while the trigger still holds.
                if self.migration_inflight.is_none() && self.view.len() >= 2
                    && !self.try_locality_migration(ctx) => {
                        self.try_balance_migration(ctx);
                    }
            Msg::Tick(Tick::RpcTimeout(req)) => {
                // Provider-side fetches and EC repair jobs set this timer.
                if let Some((_, job)) = self.fetch_inflight.take_if(|(inflight, _)| *inflight == req) {
                    self.finish_fetch(ctx, job, None);
                }
                if self.ec_repair.as_ref().is_some_and(|j| j.guard_req == req) {
                    self.ec_repair = None;
                    ctx.metrics().count("provider.ec_repair_timeouts", 1);
                }
            }
            Msg::Tick(_) => {}

            // ---------------- membership ----------------
            Msg::Heartbeat(hb) => {
                let joined = self.view.observe(from, hb, now);
                self.on_membership_events(ctx, joined.into_iter().collect());
            }
            Msg::SwimPing { seq, origin, updates } => {
                let Some(mut swim) = self.swim.take() else { return };
                let events = swim.on_ping(from, seq, origin, &updates, ctx);
                self.swim = Some(swim);
                self.fold_swim_events(ctx, events);
            }
            Msg::SwimAck { seq, origin, updates } => {
                let Some(mut swim) = self.swim.take() else { return };
                let events = swim.on_ack(seq, origin, &updates, ctx);
                self.swim = Some(swim);
                self.fold_swim_events(ctx, events);
            }
            Msg::SwimPingReq { seq, target, origin, updates } => {
                let Some(mut swim) = self.swim.take() else { return };
                let events = swim.on_ping_req(seq, target, origin, &updates, ctx);
                self.swim = Some(swim);
                self.fold_swim_events(ctx, events);
            }
            Msg::MembersPull { req } => {
                if let Some(mut swim) = self.swim.take() {
                    swim.on_members_pull(from, req, ctx);
                    self.swim = Some(swim);
                }
            }
            Msg::MembersDigest { req: _, updates } => {
                let Some(mut swim) = self.swim.take() else { return };
                let events = swim.on_digest(&updates, ctx);
                self.swim = Some(swim);
                self.fold_swim_events(ctx, events);
            }
            Msg::MembersQuery { req } => {
                let json = self.members_json(ctx);
                ctx.send(from, Msg::MembersR { req, json });
            }

            // ---------------- location protocol ----------------
            Msg::LocQuery { req, seg } => {
                let owners: Vec<(NodeId, Version)> = self
                    .loc
                    .lookup(seg)
                    .map(|e| e.owners.iter().map(|(&id, o)| (id, o.version)).collect())
                    .unwrap_or_default();
                let label = if owners.is_empty() { "miss" } else { "hit" };
                ctx.metrics().count_labeled("loc.query", label, 1);
                let done = ctx.cpu(self.costs.provider_op_cpu);
                ctx.send_at(done, from, Msg::LocQueryR { req, seg, owners });
            }
            Msg::LocUpsert {
                seg,
                owner,
                version,
                replication,
                bytes,
                deleted,
            } => {
                if deleted {
                    self.loc.remove_owner(seg, owner);
                } else {
                    self.loc.upsert(seg, owner, version, replication, bytes, now);
                    self.check_entry_repairs(ctx, seg);
                }
            }
            Msg::LocRefresh { owner, entries } => {
                let added = entries.len() as u64;
                for (seg, version, replication, bytes) in entries {
                    self.loc.upsert(seg, owner, version, replication, bytes, now);
                }
                ctx.record(TelemetryEvent::LocRefresh { added, total: self.loc.len() as u64 });
            }
            Msg::BackupQuery { req, seg } => {
                ctx.metrics().count_labeled("loc.query", "backup", 1);
                if let Some(version) = self.store.latest(seg) {
                    let done = ctx.cpu(self.costs.provider_op_cpu);
                    ctx.send_at(done, from, Msg::BackupQueryR { req, seg, version });
                }
            }

            // ---------------- data path ----------------
            Msg::ReadSeg {
                req,
                seg,
                offset,
                len,
                min_version,
                allow_redirect,
            } => {
                let reply = self.serve_read(ctx, from, seg, offset, len, min_version, allow_redirect);
                let cpu_done = ctx.cpu(self.costs.provider_op_cpu);
                let done = if let ReadReply::Data { len, .. } = &reply {
                    let disk_done = ctx.disk_submit(*len, DiskAccess::Random);
                    cpu_done.max(disk_done)
                } else {
                    cpu_done
                };
                ctx.send_at(done, from, Msg::ReadSegR { req, reply });
            }
            Msg::CreateShadow {
                req,
                span,
                seg,
                base,
                meta,
            } => {
                let fresh = base.is_none();
                let result = match base {
                    Some(v) => self.store.open_shadow(seg, v, now, self.costs.shadow_ttl),
                    None => Ok(self
                        .store
                        .open_fresh_shadow(seg, meta, now, self.costs.shadow_ttl)),
                };
                if fresh && result.is_ok() {
                    ctx.record(TelemetryEvent::SegCreate { span, seg: seg.0, on: ctx.id() });
                }
                let done = ctx.cpu(self.costs.provider_op_cpu);
                let reply = Msg::CreateShadowR { req, result };
                self.replies.put(from, req, reply.clone());
                ctx.send_at(done, from, reply);
            }
            Msg::WriteShadow {
                req,
                shadow,
                offset,
                payload,
                truncate,
            } => {
                let bytes = payload.len();
                let result = if bytes > ctx.disk().available() {
                    Err(Error::OutOfSpace)
                } else {
                    let r = self.store.write_shadow(shadow, offset, payload);
                    if r.is_ok() && truncate {
                        let _ = self.store.truncate_shadow(shadow, offset + bytes);
                    }
                    r
                };
                self.sync_disk(ctx);
                let cpu_done = ctx.cpu(self.costs.provider_op_cpu);
                let disk_done = ctx.disk_submit(bytes, DiskAccess::Sequential);
                ctx.send_at(cpu_done.max(disk_done), from, Msg::WriteShadowR { req, result });
            }
            Msg::ReadShadow {
                req,
                shadow,
                offset,
                len,
            } => {
                let reply = match self.store.read_shadow(shadow, offset, len) {
                    Ok(out) => ReadReply::Data {
                        len: out.len,
                        data: out.data,
                        version: out.version,
                        crc: out.crc,
                    },
                    Err(e) => ReadReply::Err(e),
                };
                let cpu_done = ctx.cpu(self.costs.provider_op_cpu);
                let done = if let ReadReply::Data { len, .. } = &reply {
                    let disk_done = ctx.disk_submit(*len, DiskAccess::Random);
                    cpu_done.max(disk_done)
                } else {
                    cpu_done
                };
                ctx.send_at(done, from, Msg::ReadShadowR { req, reply });
            }
            Msg::RenewShadow { shadow } => {
                let _ = self.store.renew_shadow(shadow, now, self.costs.shadow_ttl);
            }

            // ---------------- 2PC ----------------
            Msg::Prepare { req, span, items } => {
                let mut result = Ok(());
                for &(shadow, target) in &items {
                    let seg = self.store.shadow_segment(shadow).map(|s| s.0).unwrap_or(0);
                    let ok = match self.store.prepare_shadow(shadow, target) {
                        Ok(()) => true,
                        Err(e) => {
                            result = Err(e);
                            false
                        }
                    };
                    ctx.record(TelemetryEvent::TwoPcPrepare { span, seg, ok });
                    if !ok {
                        break;
                    }
                }
                let cpu_done = ctx.cpu(self.costs.provider_op_cpu);
                let disk_done = ctx.disk_submit(512, DiskAccess::Sync);
                let reply = Msg::PrepareR { req, result };
                self.replies.put(from, req, reply.clone());
                ctx.send_at(cpu_done.max(disk_done), from, reply);
            }
            Msg::Commit { req, span, items } => {
                let mut result = Ok(());
                let mut committed: Vec<(SegId, Version, u32)> = Vec::new();
                for &(shadow, target) in &items {
                    match self.store.shadow_segment(shadow) {
                        Some(seg) => match self.store.commit_shadow(shadow, target, now) {
                            Ok(()) => {
                                ctx.record(TelemetryEvent::SegCommit {
                                    span,
                                    seg: seg.0,
                                    version: target.0,
                                });
                                ctx.record(TelemetryEvent::TwoPcCommit { span, seg: seg.0 });
                                let replication =
                                    self.store.meta(seg).map(|m| m.replication).unwrap_or(1);
                                committed.push((seg, target, replication));
                            }
                            Err(e) => result = Err(e),
                        },
                        None => result = Err(Error::ShadowExpired),
                    }
                }
                self.sync_disk(ctx);
                // Fast-path location updates (Figure 6 step 10): owners
                // tell home hosts about the version advance, which kicks
                // lazy propagation to stale replicas.
                for (seg, version, replication) in committed {
                    self.upsert_location(ctx, seg, version, replication, false);
                }
                let cpu_done = ctx.cpu(self.costs.provider_op_cpu);
                let disk_done = ctx.disk_submit(512, DiskAccess::Sync);
                let reply = Msg::CommitR { req, result };
                self.replies.put(from, req, reply.clone());
                ctx.send_at(cpu_done.max(disk_done), from, reply);
            }
            Msg::Abort { span, items } => {
                for shadow in items {
                    let seg = self.store.shadow_segment(shadow).map(|s| s.0).unwrap_or(0);
                    ctx.record(TelemetryEvent::TwoPcAbort { span, seg, reason: "client_abort" });
                    self.store.abort_shadow(shadow);
                }
                self.sync_disk(ctx);
            }

            // ---------------- byte-range mode ----------------
            Msg::DirectWrite {
                req,
                seg,
                offset,
                payload,
                meta,
            } => {
                let bytes = payload.len();
                let existed = self.store.has_segment(seg);
                let result = if bytes > ctx.disk().available() {
                    Err(Error::OutOfSpace)
                } else {
                    self.store.direct_write(seg, offset, payload, meta, now)
                };
                self.sync_disk(ctx);
                if !existed && result.is_ok() {
                    self.upsert_location(ctx, seg, Version(1), meta.replication, false);
                }
                let cpu_done = ctx.cpu(self.costs.provider_op_cpu);
                let disk_done = ctx.disk_submit(bytes, DiskAccess::Sequential);
                let reply = Msg::DirectWriteR { req, result };
                self.replies.put(from, req, reply.clone());
                ctx.send_at(cpu_done.max(disk_done), from, reply);
            }

            // ---------------- lifecycle ----------------
            Msg::DeleteSeg { req, seg } => {
                let existed = self.store.delete_segment(seg);
                self.sync_disk(ctx);
                if existed {
                    self.upsert_location(ctx, seg, Version::INITIAL, 0, true);
                }
                let cpu_done = ctx.cpu(self.costs.provider_op_cpu);
                let disk_done = ctx.disk_submit(128, DiskAccess::Sync);
                ctx.send_at(cpu_done.max(disk_done), from, Msg::DeleteSegR { req, existed });
            }

            // ---------------- replication & migration ----------------
            Msg::FetchSeg { req, seg } => {
                let result = self.store.export_transfer(seg, None).map(Box::new);
                let cpu_done = ctx.cpu(self.costs.provider_op_cpu);
                let done = match &result {
                    Ok(xfer) => {
                        let disk_done = ctx.disk_submit(xfer.image.len, DiskAccess::Sequential);
                        cpu_done.max(disk_done)
                    }
                    Err(_) => cpu_done,
                };
                ctx.send_at(done, from, Msg::FetchSegR { req, result });
            }
            Msg::FetchSegR { req, result } => {
                let Some((_, job)) = self.fetch_inflight.take_if(|(inflight, _)| *inflight == req)
                else {
                    return;
                };
                let installed = match result {
                    Ok(xfer) => {
                        let version = xfer.image.version;
                        let len = xfer.image.len;
                        let fits = len <= ctx.disk().available().saturating_add(self.store.stored_bytes(job.seg));
                        if fits && self.store.install_replica(*xfer, now).unwrap_or(false) {
                            self.installs_done += 1;
                            if job.reason == FetchReason::Sync {
                                ctx.record(TelemetryEvent::RepairDone {
                                    seg: job.seg.0,
                                    to: ctx.id(),
                                });
                            }
                            self.sync_disk(ctx);
                            ctx.disk_submit(len, DiskAccess::Sequential);
                            let replication =
                                self.store.meta(job.seg).map(|m| m.replication).unwrap_or(1);
                            self.upsert_location(ctx, job.seg, version, replication, false);
                            Some(version)
                        } else {
                            None
                        }
                    }
                    Err(_) => None,
                };
                self.finish_fetch(ctx, job, installed);
            }
            Msg::SyncRequest { req, seg, source, bytes_hint } => {
                self.enqueue_fetch(
                    ctx,
                    FetchJob {
                        seg,
                        source,
                        reason: FetchReason::Sync,
                        // req 0: a home host's repair, which needs no
                        // ack (its LocUpsert bookkeeping does the job).
                        waiters: if req != 0 { vec![(from, req)] } else { Vec::new() },
                        bytes_hint,
                    },
                );
            }
            Msg::MigrateTo { seg, source, bytes_hint } => {
                self.enqueue_fetch(
                    ctx,
                    FetchJob {
                        seg,
                        source,
                        reason: FetchReason::Migration,
                        waiters: Vec::new(),
                        bytes_hint,
                    },
                );
            }
            Msg::MigrateDone { seg, ok }
                if self.migration_inflight == Some(seg) => {
                    self.migration_inflight = None;
                    if ok {
                        self.migrations_done += 1;
                        self.store.delete_segment(seg);
                        self.sync_disk(ctx);
                        self.upsert_location(ctx, seg, Version::INITIAL, 0, true);
                        ctx.metrics().count("sorrento.migrations_done", 1);
                    }
                    // The migration *process* keeps draining qualifying
                    // segments (§3.7.1 allows one active migration per
                    // node; decisions are per minute but an active
                    // process streams until done), paced so it cannot
                    // monopolize the network.
                    ctx.set_timer(
                        self.costs.migration_pacing,
                        Msg::Tick(Tick::MigrationContinue),
                    );
                }
            Msg::SyncDone { .. } => {
                // Sync acks with req == 0 land here (home-host-initiated
                // repairs need no bookkeeping: the LocUpsert from the
                // target already updated the table).
            }

            // ---------------- erasure-coded repair ----------------
            // Providers only issue LocQuery/ReadSeg as EC repairers, so
            // these replies route straight to the active job (stale ones
            // fall through harmlessly on the request-id check).
            Msg::LocQueryR { req, seg, owners } => {
                self.on_ec_loc_reply(ctx, req, seg, owners);
            }
            Msg::ReadSegR { req, reply } => {
                self.on_ec_read_reply(ctx, req, reply);
            }
            Msg::EcInstall { req, xfer } => {
                let ReplicaImage { seg, version, len, .. } = xfer.image;
                let fits = len
                    <= ctx
                        .disk()
                        .available()
                        .saturating_add(self.store.stored_bytes(seg));
                let result = if !fits {
                    Err(Error::OutOfSpace)
                } else {
                    match self.store.install_replica(*xfer, now) {
                        // `false` means we already hold this version or
                        // newer — the repair goal is met either way.
                        Ok(installed) => {
                            if installed {
                                self.installs_done += 1;
                                self.sync_disk(ctx);
                                ctx.disk_submit(len, DiskAccess::Sequential);
                                let replication = self
                                    .store
                                    .meta(seg)
                                    .map(|m| m.replication)
                                    .unwrap_or(1);
                                ctx.record(TelemetryEvent::RepairDone { seg: seg.0, to: ctx.id() });
                                self.upsert_location(ctx, seg, version, replication, false);
                            }
                            Ok(())
                        }
                        Err(e) => Err(e),
                    }
                };
                let cpu_done = ctx.cpu(self.costs.provider_op_cpu);
                let disk_done = ctx.disk_submit(512, DiskAccess::Sync);
                let reply = Msg::EcInstallR { req, seg, result };
                self.replies.put(from, req, reply.clone());
                ctx.send_at(cpu_done.max(disk_done), from, reply);
            }
            Msg::EcInstallR { req, result, .. } => {
                self.on_ec_install_reply(req, result);
            }

            _ => {}
        }
    }
}

/// The request id of a provider message that must not execute twice
/// (`None` for idempotent requests: reads, and shadow writes — which
/// place the same bytes at the same offset on replay).
fn dedup_key(msg: &Msg) -> Option<ReqId> {
    match msg {
        Msg::CreateShadow { req, .. }
        | Msg::Prepare { req, .. }
        | Msg::Commit { req, .. }
        | Msg::DirectWrite { req, .. }
        | Msg::EcInstall { req, .. } => Some(*req),
        _ => None,
    }
}

impl Node<Msg> for StorageProvider {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.handle_start(ctx)
    }

    fn on_crash(&mut self) {
        self.handle_crash()
    }

    fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        self.handle_message(from, msg, ctx)
    }
}
