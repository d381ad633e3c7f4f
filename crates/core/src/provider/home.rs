//! The home-host role (§3.4, §3.6): the location table for the
//! segments the ring homes here, the four events that keep it current,
//! and the repairs it drives — version-discrepancy sync,
//! replication-degree repair, and erasure-coded shard repair.

use std::collections::{BTreeMap, HashMap};

use rand::Rng;
use sorrento_sim::{Dur, NodeId, SimTime, TelemetryEvent};

use super::fresh_req;
use super::membership::Membership;
use crate::costs::CostModel;
use crate::layout::{IndexSegment, SegEntry};
use crate::location::LocationTable;
use crate::membership::{MembershipEvent, MembershipView};
use crate::placement::{candidates_from_view, select_provider};
use crate::proto::{decode_index, Msg, ReadReply, ReqId, Tick};
use crate::store::{LocalStore, ReplicaImage, SegMeta};
use crate::transport::Transport;
use crate::types::{Error, PlacementPolicy, SegId, Version};

/// The home host's soft state.
pub(crate) struct HomeHost {
    costs: CostModel,
    loc: LocationTable,
    /// Repair dedupe: (segment, target) → when last issued.
    repairs_issued: HashMap<(SegId, NodeId), SimTime>,
    /// Active erasure-coded repair (one at a time, like fetches).
    ec_repair: Option<EcRepairJob>,
    /// EC scan cooldown: index segments checked recently.
    ec_scan_done: HashMap<SegId, SimTime>,
    /// Join-refresh already scheduled for these providers.
    join_refresh_pending: Vec<NodeId>,
}

impl HomeHost {
    pub(crate) fn new(costs: CostModel) -> HomeHost {
        HomeHost {
            costs,
            loc: LocationTable::new(),
            repairs_issued: HashMap::new(),
            ec_repair: None,
            ec_scan_done: HashMap::new(),
            join_refresh_pending: Vec::new(),
        }
    }

    /// Entries in the location table (a gauge).
    pub(crate) fn entries(&self) -> usize {
        self.loc.len()
    }

    /// Entries with fewer owners at the latest version than their
    /// replication degree: what repair has yet to restore, as far as
    /// this home host knows.
    pub(crate) fn under_replicated(&self) -> usize {
        let short =
            |e: &crate::location::LocEntry| (e.up_to_date_owners().len() as u32) < e.replication;
        self.loc.iter().filter(|(_, e)| short(e)).count()
    }

    /// `seg`'s owners with their versions, as the table lists them.
    pub(crate) fn owners(&self, seg: SegId) -> Vec<(NodeId, Version)> {
        self.loc
            .lookup(seg)
            .map(|e| e.owners.iter().map(|(&id, o)| (id, o.version)).collect())
            .unwrap_or_default()
    }

    /// The location protocol's messages and timers. Returns whether an
    /// erasure-coded shard repair was confirmed installed.
    pub(crate) fn handle(
        &mut self,
        from: NodeId,
        msg: Msg,
        ctx: &mut impl Transport,
        members: &mut Membership,
        store: &LocalStore,
        next_req: &mut ReqId,
    ) -> bool {
        let now = ctx.now();
        match msg {
            Msg::LocQuery { req, seg } => {
                let owners = self.owners(seg);
                let label = if owners.is_empty() { "miss" } else { "hit" };
                ctx.metrics().count_labeled("loc.query", label, 1);
                let done = ctx.cpu(self.costs.provider_op_cpu);
                ctx.send_at(done, from, Msg::LocQueryR { req, seg, owners });
            }
            upsert @ Msg::LocUpsert { .. } => self.on_upsert(ctx, members.view(), upsert),
            Msg::LocRefresh { owner, entries } => {
                let added = entries.len() as u64;
                for (seg, version, replication, bytes) in entries {
                    self.loc.upsert(seg, owner, version, replication, bytes, now);
                }
                ctx.record(TelemetryEvent::LocRefresh { added, total: self.loc.len() as u64 });
            }
            Msg::Tick(Tick::LocationRefresh) => {
                self.refresh_homes(ctx, members, store, |_, _| true, false);
                ctx.set_timer(self.costs.refresh_interval, Msg::Tick(Tick::LocationRefresh));
            }
            Msg::Tick(Tick::JoinRefresh(p)) => {
                self.join_refresh_pending.retain(|&x| x != p);
                if members.view().is_live(p) {
                    self.refresh_homes(ctx, members, store, |_, home| home == p, false);
                }
            }
            Msg::Tick(Tick::RepairScan) => {
                let segs: Vec<SegId> = self.loc.iter().map(|(s, _)| s).collect();
                for seg in segs {
                    self.check_entry_repairs(ctx, members.view(), seg);
                }
                // Trim the dedupe map so it cannot grow without bound.
                let horizon = self.costs.repair_scan_interval * 12;
                self.repairs_issued.retain(|_, &mut t| now.since(t) < horizon);
                self.ec_repair_scan(ctx, members, store, next_req);
                ctx.set_timer(self.costs.repair_scan_interval, Msg::Tick(Tick::RepairScan));
            }
            // Providers only issue LocQuery/ReadSeg as EC repairers, so
            // these replies route straight to the active job (stale ones
            // fall through harmlessly on the request-id check).
            Msg::LocQueryR { req, seg, owners } => {
                self.on_ec_loc_reply(ctx, members, req, seg, owners, next_req);
            }
            Msg::ReadSegR { req, reply } => {
                self.on_ec_read_reply(ctx, members.view(), req, reply, next_req)
            }
            Msg::EcInstallR { req, result, .. } => return self.on_ec_install_reply(req, result),
            _ => {}
        }
        false
    }

    /// A request deadline passed: if it guards the EC repair job, the
    /// job is abandoned (the next scan starts over).
    pub(crate) fn on_timeout(&mut self, ctx: &mut impl Transport, req: ReqId) {
        if self.ec_repair.take_if(|j| j.guard_req == req).is_some() {
            ctx.metrics().count("provider.ec_repair_timeouts", 1);
        }
    }

    /// Aged garbage leaves the table ("garbage entries", §3.4.1).
    pub(crate) fn purge(&mut self, now: SimTime) {
        self.loc.purge_stale(now, self.costs.location_gc_age);
    }

    /// Apply a `LocUpsert`, received or this node's own.
    fn on_upsert(&mut self, ctx: &mut impl Transport, view: &MembershipView, upsert: Msg) {
        let Msg::LocUpsert { seg, owner, version, replication, bytes, deleted } = upsert else {
            return;
        };
        if deleted {
            self.loc.remove_owner(seg, owner);
        } else {
            self.loc.upsert(seg, owner, version, replication, bytes, ctx.now());
            self.check_entry_repairs(ctx, view, seg);
        }
    }

    /// This node's copy of `seg` changed: tell its home host, which may
    /// be this node. `held` is the version and replication degree now
    /// stored, `None` once the copy is gone.
    pub(crate) fn upsert_own(
        &mut self,
        ctx: &mut impl Transport,
        members: &mut Membership,
        store: &LocalStore,
        seg: SegId,
        held: Option<(Version, u32)>,
    ) {
        let me = ctx.id();
        let bytes = store.stored_bytes(seg);
        let Some(home) = members.home(seg) else {
            return;
        };
        let (version, replication) = held.unwrap_or((Version::INITIAL, 0));
        let upsert =
            Msg::LocUpsert { seg, owner: me, version, replication, bytes, deleted: held.is_none() };
        if home == me {
            self.on_upsert(ctx, members.view(), upsert);
        } else {
            ctx.send(home, upsert);
        }
    }

    /// Batch-refresh the stored segments `keep` selects (given the
    /// segment and its home) to their home hosts, in home order. Entries
    /// homed here are upserted directly, and repair-checked when
    /// `repair` is set: a departure can leave them short, a periodic
    /// refresh cannot.
    fn refresh_homes(
        &mut self,
        ctx: &mut impl Transport,
        members: &mut Membership,
        store: &LocalStore,
        keep: impl Fn(SegId, NodeId) -> bool,
        repair: bool,
    ) {
        let me = ctx.id();
        // BTreeMap: refresh messages go out in deterministic home order.
        let mut per_home: BTreeMap<NodeId, Vec<(SegId, Version, u32, u64)>> = BTreeMap::new();
        for (seg, version) in store.list_segments() {
            let Some(home) = members.home(seg).filter(|&h| keep(seg, h)) else {
                continue;
            };
            let replication = store.meta(seg).map(|m| m.replication).unwrap_or(1);
            per_home.entry(home).or_default().push((
                seg,
                version,
                replication,
                store.stored_bytes(seg),
            ));
        }
        for (home, entries) in per_home {
            if home != me {
                ctx.send(home, Msg::LocRefresh { owner: me, entries });
                continue;
            }
            for (seg, version, replication, bytes) in entries {
                self.loc.upsert(seg, me, version, replication, bytes, ctx.now());
                if repair {
                    self.check_entry_repairs(ctx, members.view(), seg);
                }
            }
        }
    }

    /// A provider joined or departed (§3.4.1 events 2 and 3).
    pub(crate) fn on_membership_event(
        &mut self,
        ctx: &mut impl Transport,
        members: &mut Membership,
        store: &LocalStore,
        ev: MembershipEvent,
    ) {
        match ev {
            MembershipEvent::Joined(p) => {
                ctx.record(TelemetryEvent::MemberJoin { of: p });
                // Joins shift homes toward p; the delayed refresh covers
                // them, so the ring rebuild waits for its first use.
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
                let old_ring = members.reshape();
                self.join_refresh_pending.retain(|&x| x != p);
                // Event 3: drop the departed owner everywhere; the
                // affected entries get repair-checked.
                let affected = self.loc.remove_provider(p);
                ctx.record(TelemetryEvent::LocPurge { of: p, removed: affected.len() as u64 });
                for seg in affected {
                    self.check_entry_repairs(ctx, members.view(), seg);
                }
                // Re-home our segments whose home was p.
                self.refresh_homes(
                    ctx,
                    members,
                    store,
                    |seg, _| old_ring.home(seg) == Some(p),
                    true,
                );
            }
        }
    }

    /// React to a change in one location entry — notify stale owners to
    /// sync and repair under-replication (§3.6).
    fn check_entry_repairs(&mut self, ctx: &mut impl Transport, view: &MembershipView, seg: SegId) {
        let now = ctx.now();
        let cooldown = self.costs.repair_scan_interval * 6;
        let Some(entry) = self.loc.lookup(seg) else {
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
        let missing =
            entry.replication.saturating_sub(entry.owners.len() as u32 + pending_new.len() as u32);
        let recent = |issued: &HashMap<(SegId, NodeId), SimTime>, target: NodeId| {
            issued.get(&(seg, target)).is_some_and(|&t| now.since(t) < cooldown)
        };
        // Version-discrepancy sync (lazy propagation tail).
        for target in stale {
            if !view.is_live(target) || recent(&self.repairs_issued, target) {
                continue;
            }
            self.repairs_issued.insert((seg, target), now);
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
            let cands = candidates_from_view(view);
            let owner_racks: Vec<u32> =
                exclude.iter().filter_map(|o| view.info(*o).map(|i| i.heartbeat.rack)).collect();
            let mut rack_exclude = exclude.clone();
            for (id, info) in view.entries() {
                if owner_racks.contains(&info.heartbeat.rack) && !rack_exclude.contains(&id) {
                    rack_exclude.push(id);
                }
            }
            // Fall back to provider-level spreading when every rack is
            // already represented.
            let effective: &[NodeId] = if cands.iter().any(|c| !rack_exclude.contains(&c.id)) {
                &rack_exclude
            } else {
                &exclude
            };
            // The size is unknown here; fit it as a small segment.
            let pick = select_provider(
                &cands,
                1,
                0.5,
                PlacementPolicy::LoadAware,
                effective,
                None,
                ctx.rng(),
            );
            let Some(target) = pick else {
                break;
            };
            exclude.push(target);
            if recent(&self.repairs_issued, target) {
                continue;
            }
            self.repairs_issued.insert((seg, target), now);
            ctx.record(TelemetryEvent::RepairStart { seg: seg.0, to: target });
            ctx.send(target, Msg::SyncRequest { req: 0, seg, source, bytes_hint });
        }
    }

    // ---- erasure-coded shard repair ----
    //
    // Replication repair cannot rebuild an EC shard: the shard has
    // replication 1, so when its only owner dies there is no source to copy
    // from. Instead, any provider holding the file's *index* segment (marked
    // with `SegMeta::ec`) periodically checks every shard's liveness and, as
    // the lowest-id live index holder, decodes the lost shards from `k`
    // survivors and installs them on fresh providers.

    /// Start at most one EC repair job per scan. Touches neither the
    /// RNG nor the network unless an EC-marked index segment is stored
    /// locally, so seeded runs without EC files are unperturbed.
    fn ec_repair_scan(
        &mut self,
        ctx: &mut impl Transport,
        members: &mut Membership,
        store: &LocalStore,
        next_req: &mut ReqId,
    ) {
        if self.ec_repair.is_some() {
            return;
        }
        let now = ctx.now();
        let cooldown = self.costs.repair_scan_interval * 2;
        self.ec_scan_done.retain(|_, &mut t| now.since(t) < cooldown);
        let candidate = store.list_segments().into_iter().map(|(s, _)| s).find(|&s| {
            !self.ec_scan_done.contains_key(&s) && store.meta(s).is_some_and(|m| m.ec.is_some())
        });
        let Some(index_seg) = candidate else {
            return;
        };
        self.ec_scan_done.insert(index_seg, now);
        // Decode the locally held index: it names every shard.
        let ix = match store.read(index_seg, None, 0, u64::MAX) {
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
        let Some(home) = members.home(index_seg) else {
            return;
        };
        let guard_req = fresh_req(next_req);
        // Deadline sized for the whole job: a couple of RPC rounds plus
        // moving up to k+m shard-widths of data.
        let stripe_bytes = ix.ec_shard_len() * (p.k as u64 + p.m as u64);
        let deadline = self.costs.rpc_timeout * 8 + Dur::for_bytes(stripe_bytes, 2.5e5);
        ctx.set_timer(deadline, Msg::Tick(Tick::RpcTimeout(guard_req)));
        let ix = Box::new(ix);
        if home == ctx.id() {
            // We are the index's home host: answer the gate locally.
            let owners: Vec<NodeId> =
                self.owners(index_seg).into_iter().map(|(id, _)| id).collect();
            self.ec_repair =
                Some(EcRepairJob { index_seg, guard_req, phase: EcPhase::Gate { req: 0, ix } });
            self.ec_gate_decide(ctx, members, owners, next_req);
        } else {
            let req = fresh_req(next_req);
            self.ec_repair =
                Some(EcRepairJob { index_seg, guard_req, phase: EcPhase::Gate { req, ix } });
            ctx.send(home, Msg::LocQuery { req, seg: index_seg });
        }
    }

    /// Gate on the index segment's owner list: proceed only when no
    /// lower-id live owner exists (they would run the identical job).
    fn ec_gate_decide(
        &mut self,
        ctx: &mut impl Transport,
        members: &mut Membership,
        owners: Vec<NodeId>,
        next_req: &mut ReqId,
    ) {
        let Some(job) = self.ec_repair.take_if(|j| matches!(j.phase, EcPhase::Gate { .. })) else {
            return;
        };
        let EcPhase::Gate { ix, .. } = job.phase else { unreachable!("taken in this phase") };
        let me = ctx.id();
        let low = owners.iter().copied().filter(|&id| members.view().is_live(id)).min();
        if low.is_some_and(|l| l < me) {
            return; // a lower-id index holder owns this repair
        }
        // Ask every shard's home host who owns it (answering locally for
        // shards homed here).
        let slots = slots(&ix);
        let mut pending: Vec<(ReqId, usize)> = Vec::new();
        let mut owners: Vec<Option<Vec<NodeId>>> = vec![None; slots.len()];
        for (slot, e) in slots.iter().enumerate() {
            let Some(home) = members.home(e.seg) else {
                owners[slot] = Some(Vec::new());
                continue;
            };
            if home == me {
                owners[slot] = Some(self.owners(e.seg).into_iter().map(|(id, _)| id).collect());
            } else {
                let req = fresh_req(next_req);
                pending.push((req, slot));
                ctx.send(home, Msg::LocQuery { req, seg: e.seg });
            }
        }
        self.ec_repair = Some(EcRepairJob {
            index_seg: job.index_seg,
            guard_req: job.guard_req,
            phase: EcPhase::Locate { ix, pending, owners },
        });
        self.ec_maybe_locate_done(ctx, members, next_req);
    }

    /// A `LocQueryR` arrived; route it to the gate or locate phase.
    fn on_ec_loc_reply(
        &mut self,
        ctx: &mut impl Transport,
        members: &mut Membership,
        req: ReqId,
        seg: SegId,
        reply_owners: Vec<(NodeId, Version)>,
        next_req: &mut ReqId,
    ) {
        let Some(job) = self.ec_repair.as_mut() else {
            return;
        };
        let ids = || reply_owners.iter().map(|&(id, _)| id).collect::<Vec<NodeId>>();
        match &mut job.phase {
            EcPhase::Gate { req: r, .. } if *r == req && seg == job.index_seg => {
                self.ec_gate_decide(ctx, members, ids(), next_req);
            }
            EcPhase::Locate { pending, owners, .. } => {
                if let Some(pos) = pending.iter().position(|&(r, _)| r == req) {
                    let (_, slot) = pending.swap_remove(pos);
                    owners[slot] = Some(ids());
                    self.ec_maybe_locate_done(ctx, members, next_req);
                }
            }
            _ => {}
        }
    }

    /// Once every shard's owner list is in, classify lost shards and
    /// either finish (healthy / unrecoverable) or fetch `k` survivors.
    fn ec_maybe_locate_done(
        &mut self,
        ctx: &mut impl Transport,
        members: &mut Membership,
        next_req: &mut ReqId,
    ) {
        let complete = |j: &mut EcRepairJob| matches!(&j.phase, EcPhase::Locate { owners, .. } if owners.iter().all(Option::is_some));
        let Some(job) = self.ec_repair.take_if(complete) else {
            return;
        };
        let EcPhase::Locate { ix, owners, .. } = job.phase else {
            unreachable!("taken in this phase")
        };
        // Only live owners count: the location table lags death
        // declarations by at most one refresh, and installing onto a
        // site that later proves alive is merely an extra copy.
        let view = members.view();
        let owners: Vec<Vec<NodeId>> = owners
            .into_iter()
            .map(|o| {
                o.expect("checked complete").into_iter().filter(|&id| view.is_live(id)).collect()
            })
            .collect();
        let p = ix.ec_params().expect("scan checked params");
        let (k, m) = (p.k as usize, p.m as usize);
        let lost: Vec<usize> =
            owners.iter().enumerate().filter(|(_, o)| o.is_empty()).map(|(i, _)| i).collect();
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
        let entries = slots(&ix);
        let homes: Vec<Option<NodeId>> = entries.iter().map(|e| members.home(e.seg)).collect();
        let view = members.view();
        let cold = |slot: &usize| {
            let info = homes[*slot].and_then(|h| view.info(h));
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
        let mut pending: Vec<(ReqId, usize)> = Vec::new();
        for (slot, own) in owners.iter().enumerate() {
            if own.is_empty() || pending.len() >= k {
                continue;
            }
            let source = *own.iter().min().expect("non-empty");
            let e = entries[slot];
            let req = fresh_req(next_req);
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
        self.ec_repair = Some(EcRepairJob {
            index_seg: job.index_seg,
            guard_req: job.guard_req,
            phase: EcPhase::Fetch {
                ix,
                lost,
                owners,
                pending,
                shards: vec![None; entries.len()],
                fetched: 0,
                synthetic: None,
            },
        });
    }

    /// A survivor shard read came back.
    fn on_ec_read_reply(
        &mut self,
        ctx: &mut impl Transport,
        view: &MembershipView,
        req: ReqId,
        reply: ReadReply,
        next_req: &mut ReqId,
    ) {
        let Some(job) = self.ec_repair.as_mut() else {
            return;
        };
        let EcPhase::Fetch { ix, pending, shards, fetched, synthetic, .. } = &mut job.phase else {
            return;
        };
        let Some(pos) = pending.iter().position(|&(r, _)| r == req) else {
            return;
        };
        let (_, slot) = pending.swap_remove(pos);
        // Reconstruction needs a *consistent* stripe. A version other
        // than the one our index names means a newer commit landed (or
        // our index replica is stale): that index's holders will repair.
        // A survivor that refused aborts too; the next scan retries.
        let accepted = match reply {
            ReadReply::Data { data, version, .. } => {
                let expected = slots(ix).get(slot).map(|e| e.version);
                let is_synth = data.is_none();
                let ok = expected == Some(version) && synthetic.is_none_or(|s| s == is_synth);
                if ok {
                    *synthetic = Some(is_synth);
                    shards[slot] = data.map(|b| b.to_vec()).or(Some(Vec::new()));
                    *fetched += 1;
                }
                ok
            }
            _ => false,
        };
        if !accepted {
            self.ec_repair = None;
            ctx.metrics().count("provider.ec_repair_aborts", 1);
        } else if *fetched >= ix.ec_params().expect("scan checked params").k as usize {
            self.ec_reconstruct_and_install(ctx, view, next_req);
        }
    }

    /// All `k` survivors are in: rebuild the lost shards and push each
    /// onto a fresh provider holding no other shard of this file.
    fn ec_reconstruct_and_install(
        &mut self,
        ctx: &mut impl Transport,
        view: &MembershipView,
        next_req: &mut ReqId,
    ) {
        let Some(job) = self.ec_repair.take_if(|j| matches!(j.phase, EcPhase::Fetch { .. })) else {
            return;
        };
        let EcPhase::Fetch { ix, lost, owners, shards, synthetic, .. } = job.phase else {
            unreachable!("taken in this phase")
        };
        let now = ctx.now();
        let me = ctx.id();
        let p = ix.ec_params().expect("scan checked params");
        let shard_len = ix.ec_shard_len() as usize;
        let synthetic = synthetic.unwrap_or(false);
        let entries = slots(&ix);
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
            let cands = candidates_from_view(view);
            let mut exclude: Vec<NodeId> = owner_sites.clone();
            exclude.push(me);
            exclude.extend(picked.iter().copied());
            let size = (shard_len as u64).max(1);
            let target = select_provider(
                &cands,
                size,
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
                    size,
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
            let image = ReplicaImage { seg: e.seg, version: e.version, len: e.len, data, meta };
            let req = fresh_req(next_req);
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

    /// An install ack arrived from a fresh shard site. Returns whether
    /// it confirms a shard installed.
    fn on_ec_install_reply(&mut self, req: ReqId, result: Result<(), Error>) -> bool {
        let Some(job) = self.ec_repair.as_mut() else {
            return false;
        };
        let EcPhase::Install { pending } = &mut job.phase else {
            return false;
        };
        let Some(pos) = pending.iter().position(|&r| r == req) else {
            return false;
        };
        pending.swap_remove(pos);
        if pending.is_empty() {
            self.ec_repair = None;
        }
        result.is_ok()
    }
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
    Gate { req: ReqId, ix: Box<IndexSegment> },
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

/// Every shard of the code, data shards then parity shards.
fn slots(ix: &IndexSegment) -> Vec<SegEntry> {
    ix.segments.iter().chain(ix.parity.iter()).copied().collect()
}
