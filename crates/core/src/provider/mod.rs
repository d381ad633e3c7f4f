//! The storage provider daemon (§2.2, §3.3–3.7): a router over the four
//! roles the paper gives a provider. Each role owns its soft state and
//! handles its own messages over the same [`Transport`]; two roles on
//! one node call each other directly, never by message.
//!
//! | role | state | handles |
//! |---|---|---|
//! | owner (`owner.rs`) | reply cache, load average, disk accounting; writes the access log | `ReadSeg`, `BackupQuery`, `CreateShadow`, `WriteShadow`, `ReadShadow`, `RenewShadow`, `Prepare`, `Commit`, `Abort`, `DirectWrite`, `DeleteSeg`, `FetchSeg`, `EcInstall` |
//! | home host (`home.rs`) | location table, repair dedupe, the EC repair job and its scan cooldown, pending join refreshes | `LocQuery`, `LocUpsert`, `LocRefresh`, `LocQueryR`, `ReadSegR`, `EcInstallR`; `Tick::LocationRefresh`, `JoinRefresh`, `RepairScan` |
//! | mover (`mover.rs`) | fetch queue, the fetch in flight, the outgoing migration; reads the access log | `SyncRequest`, `MigrateTo`, `FetchSegR`, `MigrateDone`; `Tick::Migration`, `MigrationContinue` |
//! | membership (`membership.rs`) | live view, ring, mode, SWIM detector, seeds, heartbeat sequence | `Heartbeat`, `SwimPing`, `SwimAck`, `SwimPingReq`, `MembersPull`, `MembersDigest`, `MembersQuery`; `Tick::Heartbeat`, `GaugeExport`, `SwimProbe`, `SwimAckTimeout`, `SwimProbeTimeout`, `SwimSuspectTimeout`, `SwimSync` |
//!
//! The router itself keeps what outlives a crash: the store, the access
//! log (`access.rs`) beside it, the configuration, the lifetime counters
//! and the request-id sequence. A crash rebuilds every role empty;
//! `Tick::Gc` and `Tick::RpcTimeout` reach two roles each.
//!
//! With a [`SegmentDisk`] attached, the router owns the store's copy at
//! rest: every start installs what it holds, [`StorageProvider::persist`]
//! writes what changed since, and a crash loses what was not yet written.
//!
//! All behaviour is event-driven: heartbeats, the four location-table
//! update events, repair scans, and once-a-minute migration decisions are
//! all timers; everything else reacts to RPCs.

mod access;
mod home;
pub(crate) mod membership;
mod mover;
mod owner;
#[cfg(test)]
mod tests;

use std::io;

use rand::Rng;
use sorrento_sim::{Ctx, Dur, Node, NodeId};

use crate::costs::CostModel;
use crate::membership::MembershipEvent;
use crate::proto::{Msg, ReqId, Tick};
use crate::store::{LocalStore, SegmentDisk};
use crate::swim::{MembershipMode, SwimEvent};
use crate::transport::Transport;

pub(crate) use access::AccessLog;
use home::HomeHost;
use membership::Membership;
use mover::Mover;
use owner::Owner;

/// Draw the next id from a node's request-id sequence.
fn fresh_req(next: &mut ReqId) -> ReqId {
    let r = *next;
    *next += 1;
    r
}

/// The storage provider node.
pub struct StorageProvider {
    costs: CostModel,
    /// The local segment store: survives a crash, or is reloaded from
    /// the attached disk.
    pub store: LocalStore,
    /// Who read which locality-driven segment, and how much.
    access: AccessLog,
    /// Where the store's committed segments are kept at rest, if anywhere.
    disk: Option<Box<dyn SegmentDisk>>,
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
    /// Ids for the requests this node starts (fetches, EC repair). One
    /// sequence for every role, kept across a crash: a timeout names its
    /// request by id alone, and peers' reply caches key on it.
    next_req: ReqId,
    owner: Owner,
    home: HomeHost,
    mover: Mover,
    members: Membership,
}

impl StorageProvider {
    /// A provider that keeps `keep_versions` committed versions per
    /// segment.
    pub fn new(costs: CostModel, keep_versions: usize) -> StorageProvider {
        StorageProvider {
            costs,
            store: LocalStore::new(keep_versions),
            access: AccessLog::default(),
            disk: None,
            rack: 0,
            migrations_done: 0,
            installs_done: 0,
            ec_repairs_done: 0,
            next_req: 1,
            owner: Owner::new(costs),
            home: HomeHost::new(costs),
            mover: Mover::new(costs),
            members: Membership::new(costs, MembershipMode::Heartbeat, Vec::new()),
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
    pub fn set_membership(&mut self, mode: MembershipMode, seeds: Vec<NodeId>) {
        self.members = Membership::new(self.costs, mode, seeds);
    }

    /// Keep the store's committed segments on `disk`: every start
    /// installs what it holds, and [`StorageProvider::persist`] writes
    /// what changed since.
    pub fn attach_disk(&mut self, disk: Box<dyn SegmentDisk>) {
        self.store.track_changes();
        self.disk = Some(disk);
    }

    /// Write every segment whose committed state changed since the last
    /// persist (or start) to the attached disk, and drop the deleted
    /// ones. A no-op without a disk. After an error the disk may lag the
    /// store until the next start: the daemon stops on one.
    pub fn persist(&mut self) -> io::Result<()> {
        let Some(disk) = &mut self.disk else {
            return Ok(());
        };
        let (mut images, mut gone) = (Vec::new(), Vec::new());
        for seg in self.store.take_changed() {
            match self.store.export_transfer(seg, None) {
                Ok(xfer) => images.push(xfer),
                Err(_) => gone.push(seg),
            }
        }
        disk.write(&images, &gone)
    }

    /// Compact the attached disk (a clean stop, after its last persist).
    pub fn checkpoint(&mut self) -> io::Result<()> {
        self.disk.as_mut().map_or(Ok(()), |disk| disk.checkpoint())
    }

    /// Install every image the attached disk holds (counted in
    /// `recovery.images_installed`, or `images_skipped` when one does not
    /// load). They are on disk already: no persist writes them again.
    fn reload(&mut self, ctx: &mut impl Transport) {
        let Some(disk) = &self.disk else {
            return;
        };
        let now = ctx.now();
        for image in disk.load() {
            let installed = image
                .and_then(|xfer| self.store.install_replica(xfer, now).map_err(|e| e.to_string()));
            let counter = match installed {
                Ok(_) => "recovery.images_installed",
                Err(_) => "recovery.images_skipped",
            };
            ctx.metrics().count(counter, 1);
        }
        self.store.take_changed();
    }

    /// Current smoothed I/O-wait load.
    pub fn load(&self) -> f64 {
        self.owner.load()
    }

    /// Location-table entries with fewer owners at the latest version
    /// than their replication degree: what repair has yet to restore,
    /// as far as this home host knows (home-host role).
    pub fn under_replicated(&self) -> usize {
        self.home.under_replicated()
    }

    /// Export the provider's health gauges. Heartbeat mode calls this
    /// from the heartbeat tick; gossip mode from its own
    /// [`Tick::GaugeExport`] timer (same gauges, same order).
    fn export_gauges(&mut self, ctx: &mut impl Transport) {
        let me = ctx.id();
        let gauges = [
            ("live_providers", self.members.view().len() as f64),
            ("loc_entries", self.home.entries() as f64),
            ("fetch_queue", self.mover.queued() as f64),
            ("segments", self.store.list_segments().len() as f64),
            ("stored_bytes", self.store.total_stored_bytes() as f64),
        ];
        for (name, value) in gauges {
            ctx.metrics().gauge_set(&format!("{me}.{name}"), value);
        }
    }

    fn on_membership_events(
        &mut self,
        ctx: &mut impl Transport,
        events: impl IntoIterator<Item = MembershipEvent>,
    ) {
        for ev in events {
            self.home.on_membership_event(ctx, &mut self.members, &self.store, ev);
        }
    }

    fn fold_swim_events(&mut self, ctx: &mut impl Transport, events: Vec<SwimEvent>) {
        for ev in events {
            let joined_or_left = self.members.fold(ctx, ev);
            self.on_membership_events(ctx, joined_or_left);
        }
    }
}

/// Runtime entry points: the same handlers drive the provider in the
/// simulator (via the thin [`Node`] impl below) and in the real-process
/// runtime (which calls them directly with its own [`Transport`]).
impl StorageProvider {
    /// Bring the provider online: install what the attached disk holds,
    /// reconcile disk accounting, announce membership, arm the
    /// maintenance timers.
    pub fn handle_start(&mut self, ctx: &mut impl Transport) {
        self.reload(ctx);
        self.owner.start(ctx, &self.store);
        let hb = self.owner.heartbeat(ctx, self.rack);
        self.members.start(ctx, hb);
        // Stagger the first full refresh so a cold cluster doesn't refresh
        // in lockstep.
        let stagger =
            Dur::nanos(ctx.rng().gen_range(0..self.costs.refresh_interval.as_nanos().max(1)));
        ctx.set_timer(stagger, Msg::Tick(Tick::LocationRefresh));
        ctx.set_timer(self.costs.repair_scan_interval, Msg::Tick(Tick::RepairScan));
        ctx.set_timer(self.costs.migration_interval, Msg::Tick(Tick::Migration));
        ctx.set_timer(self.costs.location_gc_age, Msg::Tick(Tick::Gc));
    }

    /// Crash handling: every role's soft state dies with the process and
    /// is rebuilt empty. The store survives into a later
    /// [`StorageProvider::handle_start`] less its shadows or, with a disk
    /// attached, is emptied for that start to reload from the disk.
    pub fn handle_crash(&mut self) {
        if self.disk.is_some() {
            self.store = LocalStore::new(self.store.keep_versions);
            self.store.track_changes();
        } else {
            self.store.expire_all_shadows();
        }
        self.owner = Owner::new(self.costs);
        self.home = HomeHost::new(self.costs);
        self.mover = Mover::new(self.costs);
        self.members = self.members.restarted();
    }

    /// Process one delivered message or fired timer: route it to the
    /// role that handles it.
    pub fn handle_message(&mut self, from: NodeId, msg: Msg, ctx: &mut impl Transport) {
        match msg {
            // ---------------- membership ----------------
            Msg::Tick(Tick::Heartbeat) => {
                let hb = self.owner.heartbeat(ctx, self.rack);
                let departed = self.members.on_heartbeat_tick(ctx, hb);
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
            Msg::Tick(Tick::SwimProbe) if self.members.gossiping() => {
                let hb = self.owner.heartbeat(ctx, self.rack);
                self.members.on_probe_tick(ctx, hb);
            }
            Msg::Heartbeat(hb) => {
                let joined = self.members.observe(from, hb, ctx.now());
                self.on_membership_events(ctx, joined);
            }
            Msg::MembersQuery { req } => {
                let json = self.members.members_json(ctx.id());
                ctx.send(from, Msg::MembersR { req, json });
            }
            swim @ (Msg::Tick(
                Tick::SwimAckTimeout(_)
                | Tick::SwimProbeTimeout(_)
                | Tick::SwimSuspectTimeout(..)
                | Tick::SwimSync,
            )
            | Msg::SwimPing { .. }
            | Msg::SwimAck { .. }
            | Msg::SwimPingReq { .. }
            | Msg::MembersPull { .. }
            | Msg::MembersDigest { .. }) => {
                let events = self.members.on_swim(from, swim, ctx);
                self.fold_swim_events(ctx, events);
            }

            // ---------------- home host ----------------
            loc @ (Msg::LocQuery { .. }
            | Msg::LocUpsert { .. }
            | Msg::LocRefresh { .. }
            | Msg::LocQueryR { .. }
            | Msg::ReadSegR { .. }
            | Msg::EcInstallR { .. }
            | Msg::Tick(Tick::LocationRefresh | Tick::JoinRefresh(_) | Tick::RepairScan)) => {
                let repaired = self.home.handle(
                    from,
                    loc,
                    ctx,
                    &mut self.members,
                    &self.store,
                    &mut self.next_req,
                );
                self.ec_repairs_done += u64::from(repaired);
            }

            // ---------------- mover ----------------
            pull @ (Msg::SyncRequest { .. } | Msg::MigrateTo { .. }) => {
                self.mover.handle(from, pull, ctx, &mut self.next_req);
            }
            Msg::FetchSegR { req, result } => {
                let Some(job) = self.mover.take(req) else {
                    return;
                };
                let installed = match result {
                    Ok(xfer) => {
                        let version = xfer.image.version;
                        let (store, home, members) =
                            (&mut self.store, &mut self.home, &mut self.members);
                        let done =
                            self.owner.install(ctx, store, home, members, *xfer, job.is_repair());
                        (done == Ok(true)).then_some(version)
                    }
                    Err(_) => None,
                };
                self.installs_done += u64::from(installed.is_some());
                self.mover.finish(ctx, job, installed, &mut self.next_req);
            }
            Msg::MigrateDone { seg, ok } => {
                if !self.mover.end_migration(seg) {
                    return;
                }
                if ok {
                    self.migrations_done += 1;
                    self.access.forget(seg);
                    self.owner.migrated_away(
                        ctx,
                        &mut self.store,
                        &mut self.home,
                        &mut self.members,
                        seg,
                    );
                    ctx.metrics().count("sorrento.migrations_done", 1);
                }
                self.mover.pace(ctx);
            }
            Msg::Tick(Tick::Migration) => {
                self.mover.migrate(ctx, &self.store, &self.access, self.members.view());
                ctx.set_timer(self.costs.migration_interval, Msg::Tick(Tick::Migration));
            }
            Msg::Tick(Tick::MigrationContinue) => {
                self.mover.migrate(ctx, &self.store, &self.access, self.members.view())
            }

            // ---------------- owner ----------------
            read @ Msg::ReadSeg { .. } => {
                self.owner.read(from, read, ctx, &mut self.store, &mut self.access, &self.home);
            }
            data @ (Msg::BackupQuery { .. }
            | Msg::CreateShadow { .. }
            | Msg::WriteShadow { .. }
            | Msg::ReadShadow { .. }
            | Msg::RenewShadow { .. }
            | Msg::Prepare { .. }
            | Msg::Commit { .. }
            | Msg::Abort { .. }
            | Msg::DirectWrite { .. }
            | Msg::DeleteSeg { .. }
            | Msg::FetchSeg { .. }
            | Msg::EcInstall { .. }) => {
                if let Msg::DeleteSeg { seg, .. } = data {
                    self.access.forget(seg);
                }
                let installed = self.owner.handle(
                    from,
                    data,
                    ctx,
                    &mut self.store,
                    &mut self.home,
                    &mut self.members,
                );
                self.installs_done += u64::from(installed);
            }

            // ---------------- two roles ----------------
            Msg::Tick(Tick::Gc) => {
                self.home.purge(ctx.now());
                self.owner.expire_shadows(ctx, &mut self.store);
                ctx.set_timer(self.costs.location_gc_age, Msg::Tick(Tick::Gc));
            }
            Msg::Tick(Tick::RpcTimeout(req)) => {
                // Provider-side fetches and EC repair jobs set this timer.
                if let Some(job) = self.mover.take(req) {
                    self.mover.finish(ctx, job, None, &mut self.next_req);
                }
                self.home.on_timeout(ctx, req);
            }

            // `SyncDone` with req 0 acks a home host's repair, which
            // needs no bookkeeping: the target's `LocUpsert` already
            // updated the table.
            _ => {}
        }
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
