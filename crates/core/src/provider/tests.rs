//! Role unit tests: each role is fed scripted messages over a recording
//! transport, with no simulator, and its sends, timers and records are
//! asserted.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io;
use std::rc::Rc;

use sorrento_kvdb::crc32;
use sorrento_sim::{Dur, NodeId, SimTime, TelemetryEvent};

use super::home::HomeHost;
use super::membership::Membership;
use super::mover::Mover;
use super::StorageProvider;
use crate::costs::CostModel;
use crate::membership::{Heartbeat, MembershipEvent};
use crate::proto::{Msg, ReadReply, Tick};
use crate::store::{LocalStore, SegMeta, SegmentDisk, Transfer, WritePayload};
use crate::swim::{MembershipMode, SwimEvent};
use crate::transport::recording::{Out, Recorder};
use crate::transport::Transport;
use crate::types::{Error, SegId, Version};

fn n(i: usize) -> NodeId {
    NodeId::from_index(i)
}

const SEG: SegId = SegId(77);

fn costs() -> CostModel {
    CostModel::fast_test()
}

fn hb(rack: u32) -> Heartbeat {
    Heartbeat { load: 0.0, available: 1 << 30, capacity: 1 << 30, machine: 0, rack }
}

/// A membership that has heard from `(node, rack)` each.
fn members_of(live: &[(usize, u32)]) -> Membership {
    let mut m = Membership::new(costs(), MembershipMode::Heartbeat, Vec::new());
    for &(i, rack) in live {
        m.observe(n(i), hb(rack), SimTime::ZERO);
    }
    m
}

fn upsert(owner: usize, version: u64, replication: u32) -> Msg {
    let (owner, version) = (n(owner), Version(version));
    Msg::LocUpsert { seg: SEG, owner, version, replication, bytes: 4096, deleted: false }
}

/// A home host on n0 that has heard from `(node, rack)` each.
struct Home {
    ctx: Recorder,
    home: HomeHost,
    members: Membership,
}

impl Home {
    fn new(live: &[(usize, u32)]) -> Home {
        Home { ctx: Recorder::new(n(0)), home: HomeHost::new(costs()), members: members_of(live) }
    }

    /// Hand `msg` from `from` to the home host.
    fn gets(&mut self, from: usize, msg: Msg) {
        let store = LocalStore::new(2);
        self.home.handle(n(from), msg, &mut self.ctx, &mut self.members, &store, &mut 1);
    }

    /// `owner` lists `SEG` at `version` (replication 2) by a refresh,
    /// which checks no repair.
    fn refresh(&mut self, owner: usize, version: u64) {
        let entries = vec![(SEG, Version(version), 2, 4096)];
        self.gets(owner, Msg::LocRefresh { owner: n(owner), entries });
    }

    /// The repairs sent so far, taken, as `(target, source)`.
    fn sync_requests(&mut self) -> Vec<(NodeId, NodeId)> {
        let sends = self.ctx.sends().into_iter();
        sends
            .map(|(to, msg)| match msg {
                Msg::SyncRequest { req: 0, seg: SEG, source, .. } => (to, source),
                other => panic!("unexpected send to {to}: {other:?}"),
            })
            .collect()
    }
}

#[test]
fn home_host_sends_a_stale_owner_a_sync_request() {
    let mut h = Home::new(&[(0, 0), (1, 1), (2, 2)]);
    h.refresh(1, 1);
    h.refresh(2, 1);
    h.ctx.drain();
    // n1 commits version 2: n2 is stale, and the degree is met.
    h.gets(1, upsert(1, 2, 2));
    assert_eq!(h.sync_requests(), vec![(n(2), n(1))]);
    let out = h.ctx.drain();
    assert!(matches!(out[..], [Out::Record(TelemetryEvent::RepairStart { to, .. })] if to == n(2)));
}

#[test]
fn home_host_repairs_a_short_entry_off_rack_once_per_cooldown() {
    // n1 holds the only copy of two; n3 is the one provider off its rack.
    let mut h = Home::new(&[(0, 1), (1, 1), (2, 1), (3, 2)]);
    h.gets(1, upsert(1, 1, 2));
    assert_eq!(h.sync_requests(), vec![(n(3), n(1))]);
    // A second trigger inside the cooldown counts n3 as pending.
    h.ctx.now += Dur::secs(1);
    h.ctx.drain();
    h.gets(1, upsert(1, 1, 2));
    assert!(h.ctx.drain().is_empty(), "a repair within the cooldown was issued again");
}

#[test]
fn home_host_purges_a_departed_owner_and_rechecks_its_entries() {
    let mut h = Home::new(&[(0, 1), (1, 1), (2, 2), (3, 3)]);
    h.refresh(1, 1);
    h.refresh(2, 1);
    h.ctx.drain();
    // n2 leaves the view; n3 is the one site off the survivor's rack.
    h.members.remove(n(2));
    let store = LocalStore::new(2);
    h.home.on_membership_event(&mut h.ctx, &mut h.members, &store, MembershipEvent::Departed(n(2)));
    assert_eq!(h.home.owners(SEG), vec![(n(1), Version(1))]);
    assert_eq!(h.sync_requests(), vec![(n(3), n(1))]);
    let purged = h.ctx.drain().into_iter().any(
        |o| matches!(o, Out::Record(TelemetryEvent::LocPurge { of, removed: 1 }) if of == n(2)),
    );
    assert!(purged, "no LocPurge for n2");
}

#[test]
fn mover_shares_one_fetch_and_a_timeout_answers_every_waiter() {
    let (mut ctx, mut mover, mut next_req) = (Recorder::new(n(0)), Mover::new(costs()), 1);
    let sync = |req| Msg::SyncRequest { req, seg: SEG, source: n(5), bytes_hint: 4096 };
    mover.handle(n(1), sync(11), &mut ctx, &mut next_req);
    let first = ctx.drain();
    assert!(
        matches!(&first[..], [
        Out::Send(to, Msg::FetchSeg { req: 1, seg: SEG }),
        Out::Timer(_, Msg::Tick(Tick::RpcTimeout(1))),
    ] if *to == n(5)),
        "{first:?}"
    );
    // The same (segment, source) from two more requesters: no second fetch.
    mover.handle(n(2), sync(22), &mut ctx, &mut next_req);
    mover.handle(n(3), sync(0), &mut ctx, &mut next_req);
    assert!(ctx.drain().is_empty());
    // The deadline passes: every requester that asked for an ack hears.
    let job = mover.take(1).expect("the fetch is in flight");
    mover.finish(&mut ctx, job, None, &mut next_req);
    let acks: Vec<(NodeId, u64, bool)> = ctx
        .sends()
        .into_iter()
        .map(|(to, msg)| match msg {
            Msg::SyncDone { req, result, .. } => (to, req, result.is_ok()),
            other => panic!("{other:?}"),
        })
        .collect();
    assert_eq!(acks, vec![(n(1), 11, false), (n(2), 22, false)]);
    assert!(mover.take(1).is_none());
}

#[test]
fn membership_turns_swim_dead_into_departed() {
    let mut ctx = Recorder::new(n(0));
    let mut members = members_of(&[(0, 0), (3, 0)]);
    assert_eq!(
        members.fold(&mut ctx, SwimEvent::Dead { node: n(3) }),
        Some(MembershipEvent::Departed(n(3)))
    );
    assert!(!members.view().is_live(n(3)));
    assert_eq!(members.fold(&mut ctx, SwimEvent::Dead { node: n(3) }), None, "already gone");
    assert_eq!(members.fold(&mut ctx, SwimEvent::Suspect { node: n(1), incarnation: 2 }), None);
    assert!(matches!(
        ctx.drain()[..],
        [Out::Record(TelemetryEvent::SwimSuspect { incarnation: 2, .. })]
    ));
    let alive = SwimEvent::Alive { node: n(5), payload: hb(0) };
    assert_eq!(members.fold(&mut ctx, alive), Some(MembershipEvent::Joined(n(5))));
}

/// A provider over a store holding two committed segments.
fn stocked(mode: MembershipMode) -> StorageProvider {
    let mut p = StorageProvider::new(costs(), 2);
    p.set_membership(mode, (0..4).map(n).collect());
    for s in [SegId(1), SegId(2)] {
        let bytes = WritePayload::Real(vec![7u8; 1000].into());
        p.store.direct_write(s, 0, bytes, SegMeta::default(), SimTime::ZERO).expect("stock write");
    }
    p
}

/// Inputs touching three roles: peers heard and a SWIM probe answered
/// (membership), a location entry listed and queried (home host), a
/// shadow opened and its reply cached (owner).
fn script(p: &mut StorageProvider, ctx: &mut Recorder) {
    for i in 1..4 {
        p.handle_message(n(i), Msg::Heartbeat(hb(i as u32)), ctx);
    }
    p.handle_message(n(2), upsert(2, 3, 2), ctx);
    let create =
        Msg::CreateShadow { req: 5, span: 0, seg: SegId(9), base: None, meta: SegMeta::default() };
    p.handle_message(n(1), create, ctx);
    p.handle_message(n(1), Msg::LocQuery { req: 6, seg: SEG }, ctx);
    p.handle_message(n(3), Msg::SwimPing { seq: 1, origin: n(3), updates: Vec::new() }, ctx);
    p.handle_message(n(1), Msg::Tick(Tick::Heartbeat), ctx);
}

/// A restart is a fresh provider over the same store: after a crash, a
/// provider emits exactly what one built new over its store emits for
/// the same inputs — whatever it knew or had in flight before, the
/// mover's fetch included. (Nothing after the restart draws a request
/// id: that sequence alone outlives a crash.)
#[test]
fn a_restarted_provider_emits_what_a_fresh_one_does() {
    for mode in [MembershipMode::Heartbeat, MembershipMode::Swim] {
        let before = |p: &mut StorageProvider| {
            let mut ctx = Recorder::new(n(0));
            p.handle_start(&mut ctx);
            script(p, &mut ctx);
            p.handle_message(
                n(1),
                Msg::SyncRequest { req: 8, seg: SegId(4), source: n(1), bytes_hint: 1 },
                &mut ctx,
            );
            p.handle_crash();
        };
        let mut restarted = stocked(mode);
        before(&mut restarted);
        let mut twin = stocked(mode);
        before(&mut twin);
        let mut fresh = stocked(mode);
        fresh.store = std::mem::replace(&mut twin.store, LocalStore::new(2));

        let after = |p: &mut StorageProvider| {
            let mut ctx = Recorder::new(n(0));
            ctx.now = SimTime::ZERO + Dur::secs(60);
            p.handle_start(&mut ctx);
            script(p, &mut ctx);
            // The reply to the fetch started before the crash: nobody
            // waits for it any more.
            p.handle_message(
                n(1),
                Msg::FetchSegR { req: 1, result: Err(crate::types::Error::Timeout) },
                &mut ctx,
            );
            format!("{:#?}", ctx.drain())
        };
        let (got, want) = (after(&mut restarted), after(&mut fresh));
        assert!(got.contains("CreateShadowR"), "{mode:?}: the script ran: {got}");
        assert_eq!(got, want, "{mode:?}: a restarted provider differs from a fresh one");
    }
}

#[test]
fn a_remembered_reply_is_what_a_restart_forgets() {
    // The guard above has teeth: without the crash, the same script
    // replays the cached shadow reply instead of opening a new shadow.
    let mut p = stocked(MembershipMode::Heartbeat);
    let mut ctx = Recorder::new(n(0));
    p.handle_start(&mut ctx);
    script(&mut p, &mut ctx);
    ctx.drain();
    script(&mut p, &mut ctx);
    let replays = ctx
        .drain()
        .into_iter()
        .filter(|o| matches!(o, Out::Record(TelemetryEvent::DedupHit { .. })));
    assert_eq!(replays.count(), 1);
}

/// An in-memory disk the test keeps a handle on: each segment's image,
/// and how many images were written in all.
#[derive(Clone, Default)]
struct FakeDisk(Rc<RefCell<(BTreeMap<SegId, Transfer>, usize)>>);

impl FakeDisk {
    fn written(&self) -> usize {
        self.0.borrow().1
    }

    fn holds(&self, seg: SegId) -> bool {
        self.0.borrow().0.contains_key(&seg)
    }
}

impl SegmentDisk for FakeDisk {
    fn load(&self) -> Vec<Result<Transfer, String>> {
        self.0.borrow().0.values().cloned().map(Ok).collect()
    }

    fn write(&mut self, images: &[Transfer], gone: &[SegId]) -> io::Result<()> {
        let (held, written) = &mut *self.0.borrow_mut();
        for xfer in images {
            held.insert(xfer.image.seg, xfer.clone());
        }
        for seg in gone {
            held.remove(seg);
        }
        *written += images.len();
        Ok(())
    }

    fn checkpoint(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Commit `pieces`, each written with its CRC, as version 1 of a fresh
/// `seg` through the owner's two-phase path (requests numbered from
/// `req`).
fn commit(p: &mut StorageProvider, ctx: &mut Recorder, seg: SegId, req: u64, pieces: &[&[u8]]) {
    let meta = SegMeta::default();
    p.handle_message(n(1), Msg::CreateShadow { req, span: 0, seg, base: None, meta }, ctx);
    let shadow = ctx.sends().into_iter().find_map(|(_, msg)| match msg {
        Msg::CreateShadowR { result: Ok(shadow), .. } => Some(shadow),
        _ => None,
    });
    let shadow = shadow.expect("a fresh shadow");
    let mut offset = 0;
    for (i, piece) in pieces.iter().enumerate() {
        let payload = WritePayload::Checked { data: piece.to_vec().into(), crc: crc32(piece) };
        let req = req + 1 + i as u64;
        let write = Msg::WriteShadow { req, shadow, offset, payload, truncate: false };
        p.handle_message(n(1), write, ctx);
        offset += piece.len() as u64;
    }
    let items = vec![(shadow, Version(1))];
    p.handle_message(n(1), Msg::Commit { req: req + 10, span: 0, items }, ctx);
    ctx.drain();
}

/// What a read of `[offset, offset + len)` of `seg` is answered with.
fn read(p: &mut StorageProvider, ctx: &mut Recorder, seg: SegId, at: u64, len: u64) -> ReadReply {
    let msg =
        Msg::ReadSeg { req: 99, seg, offset: at, len, min_version: None, allow_redirect: false };
    p.handle_message(n(1), msg, ctx);
    let reply = ctx.sends().into_iter().find_map(|(_, msg)| match msg {
        Msg::ReadSegR { reply, .. } => Some(reply),
        _ => None,
    });
    reply.expect("a read is answered")
}

/// With a disk attached, a crash keeps what the last persist wrote and
/// no more: the segments come back from the disk, pieces and all, and
/// what they came back with is not written again.
#[test]
fn a_crashed_provider_restarts_from_what_it_last_persisted() {
    let disk = FakeDisk::default();
    let mut p = StorageProvider::new(costs(), 2);
    p.attach_disk(Box::new(disk.clone()));
    let mut ctx = Recorder::new(n(0));
    p.handle_start(&mut ctx);
    let (kept, lost) = (SegId(1), SegId(2));
    commit(&mut p, &mut ctx, kept, 10, &[b"first piece", b"second"]);
    p.persist().expect("persist");
    assert_eq!(disk.written(), 1);
    // Committed after the last persist: inside the write-behind window.
    commit(&mut p, &mut ctx, lost, 30, &[b"lost"]);

    p.handle_crash();
    let mut ctx = Recorder::new(n(0));
    p.handle_start(&mut ctx);
    assert_eq!(ctx.metrics().counter("recovery.images_installed"), 1);
    assert_eq!(ctx.metrics().counter("recovery.images_skipped"), 0);
    let whole = b"first piecesecond";
    for (offset, want) in [(0, &whole[..]), (11, b"second")] {
        match read(&mut p, &mut ctx, kept, offset, want.len() as u64) {
            ReadReply::Data { data, crc, version, .. } => {
                assert_eq!(data.as_deref(), Some(want));
                assert_eq!(crc, Some(crc32(want)), "served without its writers' CRC");
                assert_eq!(version, Version(1));
            }
            other => panic!("{other:?}"),
        }
    }
    assert!(matches!(read(&mut p, &mut ctx, lost, 0, 4), ReadReply::Err(Error::NoSuchSegment)));

    p.persist().expect("persist");
    assert_eq!(disk.written(), 1, "an image installed at boot was written again");
    assert!(disk.holds(kept) && !disk.holds(lost));
}
