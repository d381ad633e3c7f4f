//! The mover role: every replica transfer this node pulls — a home
//! host's sync or repair, or an incoming migration — runs through one
//! queue, one fetch at a time; and the migration daemon (§3.7) starts at
//! most one outgoing migration at a time.

use std::collections::VecDeque;

use sorrento_sim::{Dur, NodeId, TelemetryEvent};

use super::access::AccessLog;
use super::fresh_req;
use crate::costs::CostModel;
use crate::membership::{Heartbeat, MembershipView};
use crate::placement::{candidates_from_view, select_provider, Candidate};
use crate::proto::{Msg, ReqId, Tick};
use crate::store::LocalStore;
use crate::transport::Transport;
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
pub(crate) struct FetchJob {
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

impl FetchJob {
    /// Whether the fetch repairs a replica (a home host asked for it),
    /// rather than pulling a migrating segment.
    pub(crate) fn is_repair(&self) -> bool {
        self.reason == FetchReason::Sync
    }
}

/// The mover's soft state.
pub(crate) struct Mover {
    costs: CostModel,
    /// Replica fetches are serialized: at most one in flight, the rest
    /// queued (the paper's one-active-migration-per-node rule, applied to
    /// all background transfers so recovery traffic cannot swamp a node).
    fetch_queue: VecDeque<FetchJob>,
    fetch_inflight: Option<(ReqId, FetchJob)>,
    /// One outgoing migration at a time (§3.7.1).
    migration_inflight: Option<SegId>,
}

impl Mover {
    pub(crate) fn new(costs: CostModel) -> Mover {
        Mover {
            costs,
            fetch_queue: VecDeque::new(),
            fetch_inflight: None,
            migration_inflight: None,
        }
    }

    /// Fetches waiting behind the one in flight (a gauge).
    pub(crate) fn queued(&self) -> usize {
        self.fetch_queue.len()
    }

    /// A request to pull a replica: `SyncRequest` or `MigrateTo`.
    pub(crate) fn handle(
        &mut self,
        from: NodeId,
        msg: Msg,
        ctx: &mut impl Transport,
        next_req: &mut ReqId,
    ) {
        let job = match msg {
            // req 0: a home host's repair, which needs no ack (its
            // LocUpsert bookkeeping does the job).
            Msg::SyncRequest { req, seg, source, bytes_hint } => {
                let waiters = if req != 0 { vec![(from, req)] } else { Vec::new() };
                FetchJob { seg, source, reason: FetchReason::Sync, waiters, bytes_hint }
            }
            Msg::MigrateTo { seg, source, bytes_hint } => FetchJob {
                seg,
                source,
                reason: FetchReason::Migration,
                waiters: Vec::new(),
                bytes_hint,
            },
            _ => return,
        };
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
        self.kick(ctx, next_req);
    }

    fn kick(&mut self, ctx: &mut impl Transport, next_req: &mut ReqId) {
        if self.fetch_inflight.is_some() {
            return;
        }
        let Some(job) = self.fetch_queue.pop_front() else {
            return;
        };
        let req = fresh_req(next_req);
        ctx.send(job.source, Msg::FetchSeg { req, seg: job.seg });
        let timeout = self.costs.rpc_timeout * 4 + Dur::for_bytes(job.bytes_hint, 2.5e5);
        ctx.set_timer(timeout, Msg::Tick(Tick::RpcTimeout(req)));
        self.fetch_inflight = Some((req, job));
    }

    /// The fetch in flight under `req`, taken out (its reply arrived or
    /// its deadline passed).
    pub(crate) fn take(&mut self, req: ReqId) -> Option<FetchJob> {
        self.fetch_inflight.take_if(|(inflight, _)| *inflight == req).map(|(_, job)| job)
    }

    /// A fetch ended, with the version installed if it succeeded: answer
    /// its waiters and start the next one.
    pub(crate) fn finish(
        &mut self,
        ctx: &mut impl Transport,
        job: FetchJob,
        installed: Option<Version>,
        next_req: &mut ReqId,
    ) {
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
        self.kick(ctx, next_req);
    }

    // ---- migration daemon (§3.7) ----

    /// Whether `seg` is the outgoing migration in flight; if so it ends
    /// here.
    pub(crate) fn end_migration(&mut self, seg: SegId) -> bool {
        self.migration_inflight.take_if(|s| *s == seg).is_some()
    }

    /// Schedule the next migration decision after one ended: the
    /// migration *process* keeps draining qualifying segments (§3.7.1
    /// allows one active migration per node; decisions are per minute but
    /// an active process streams until done), paced so it cannot
    /// monopolize the network.
    pub(crate) fn pace(&self, ctx: &mut impl Transport) {
        ctx.set_timer(self.costs.migration_pacing, Msg::Tick(Tick::MigrationContinue));
    }

    /// A migration decision: locality moves first, then balance moves.
    pub(crate) fn migrate(
        &mut self,
        ctx: &mut impl Transport,
        store: &LocalStore,
        access: &AccessLog,
        view: &MembershipView,
    ) {
        if self.migration_inflight.is_some() || view.len() < 2 {
            return;
        }
        if !self.try_locality_migration(ctx, store, access, view) {
            self.try_balance_migration(ctx, store, view);
        }
    }

    /// Locality-driven policy (§3.7.2): migrate a segment to the provider
    /// co-located with the machine generating most of its traffic.
    fn try_locality_migration(
        &mut self,
        ctx: &mut impl Transport,
        store: &LocalStore,
        access: &AccessLog,
        view: &MembershipView,
    ) -> bool {
        let me = ctx.id();
        let my_machine = ctx.machine_of(me);
        for (seg, _) in store.list_segments() {
            let Some(meta) = store.meta(seg) else {
                continue;
            };
            let PlacementPolicy::LocalityDriven { threshold } = meta.policy else {
                continue;
            };
            let shares = access.traffic_shares(seg);
            let Some(&(machine, share)) = shares.first() else {
                continue;
            };
            if machine == my_machine || share <= threshold.max(0.5) {
                continue;
            }
            let Some(dest) = view.provider_on_machine(machine) else {
                continue;
            };
            if dest == me {
                continue;
            }
            self.start_migration(ctx, store, seg, dest, "locality");
            return true;
        }
        false
    }

    /// Load/storage-balance policy (§3.7.1): move hot segments off
    /// I/O-loaded nodes (α = 0.8) and cold segments off full nodes
    /// (α = 0.3) when this node is in the top 10% and above mean + 3σ.
    fn try_balance_migration(
        &mut self,
        ctx: &mut impl Transport,
        store: &LocalStore,
        view: &MembershipView,
    ) {
        let me = ctx.id();
        let n = view.len();
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
        let me_info = view.info(me);
        let my_load = me_info.map(|i| i.heartbeat.load).unwrap_or(0.0);
        let my_util = me_info.map(|i| util_of(&i.heartbeat)).unwrap_or(0.0);
        let (load_mean, load_sd) = view.load_stats();
        let (util_mean, util_sd) = view.storage_stats();
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
            (sd > 0.0 && value > mean + 3.0 * sd) || (value > 1.2 * mean && value - mean > abs_gap)
        };
        let io_trigger = view.rank_descending(my_load, |h| h.load) < top_slots
            && outlier(my_load, load_mean, load_sd, 0.15);
        let util_trigger = view.rank_descending(my_util, |h| util_of(h)) < top_slots
            && outlier(my_util, util_mean, util_sd, 0.04);
        let (pick_hot, alpha) = if io_trigger {
            (true, self.costs.migration_alpha_hot)
        } else if util_trigger {
            (false, self.costs.migration_alpha_cold)
        } else {
            return;
        };
        let by_temp = store.segments_by_temperature();
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
            return;
        };
        let cands: Vec<Candidate> = candidates_from_view(view);
        // Never migrate *into* a node that is itself above average on the
        // dimension being balanced — the weighted draw alone discriminates
        // too weakly once the log factor saturates.
        let mut exclude = vec![me];
        for (id, info) in view.entries() {
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
            return;
        };
        self.start_migration(ctx, store, seg, dest, if pick_hot { "load" } else { "capacity" });
    }

    fn start_migration(
        &mut self,
        ctx: &mut impl Transport,
        store: &LocalStore,
        seg: SegId,
        dest: NodeId,
        reason: &'static str,
    ) {
        let me = ctx.id();
        let bytes_hint = store.stored_bytes(seg);
        self.migration_inflight = Some(seg);
        ctx.record(TelemetryEvent::Migration { seg: seg.0, from: me, to: dest, reason });
        ctx.send(dest, Msg::MigrateTo { seg, source: me, bytes_hint });
        ctx.metrics().count("sorrento.migrations_started", 1);
        ctx.metrics().count_labeled("sorrento.migration", reason, 1);
    }
}
