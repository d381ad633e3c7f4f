//! Flow unit tests: a client is handed scripted replies over a recording
//! transport, with no simulator, and what each flow sends is asserted.

use std::collections::VecDeque;

use rand::rngs::SmallRng;
use sorrento_sim::{NodeId, SimTime};

use super::{ClientOp, SorrentoClient, Workload, MAX_ATTEMPTS};
use crate::costs::CostModel;
use crate::layout::{IndexSegment, WritePlan, STRIPE_UNIT};
use crate::membership::Heartbeat;
use crate::proto::{encode_index, FileEntry, Msg, ReadReply, ReqId, Tick};
use crate::transport::recording::{Out, Recorder};
use crate::types::{Error, FileId, FileOptions, Organization, SegId, Version};

fn n(i: usize) -> NodeId {
    NodeId::from_index(i)
}

/// The namespace server.
const NS: usize = 0;
/// The client itself.
const ME: usize = 9;
const PATH: &str = "/f";

/// Hands the client its ops in order.
struct Script(VecDeque<ClientOp>);

impl Workload for Script {
    fn next_op(&mut self, _now: SimTime, _rng: &mut SmallRng) -> Option<ClientOp> {
        self.0.pop_front()
    }
}

fn v1() -> Version {
    Version::INITIAL.next()
}

/// A committed file at version 1 (or a fresh one at `Version::INITIAL`).
fn entry(file: FileId, version: Version, options: FileOptions) -> FileEntry {
    FileEntry {
        file,
        version,
        size: 0,
        is_dir: false,
        created_ns: 0,
        modified_ns: 0,
        options,
    }
}

/// The request id of a request the client sent.
fn req_of(msg: &Msg) -> ReqId {
    match msg {
        Msg::NsLookup { req, .. }
        | Msg::NsCreate { req, .. }
        | Msg::NsRemove { req, .. }
        | Msg::ReadSeg { req, .. }
        | Msg::LocQuery { req, .. }
        | Msg::CreateShadow { req, .. }
        | Msg::WriteShadow { req, .. }
        | Msg::DirectWrite { req, .. }
        | Msg::DeleteSeg { req, .. } => *req,
        other => panic!("not a request: {other:?}"),
    }
}

/// A client on n9 of the volume whose namespace server is n0.
struct Client {
    ctx: Recorder,
    c: SorrentoClient,
}

impl Client {
    /// A client that has heard from the providers `live`, started with
    /// `ops` to run (the first is issued at once).
    fn new(live: &[usize], ops: Vec<ClientOp>) -> Client {
        let script = Box::new(Script(ops.into()));
        let mut c = Client {
            ctx: Recorder::new(n(ME)),
            c: SorrentoClient::new(n(NS), CostModel::fast_test(), script),
        };
        let hb = Heartbeat {
            load: 0.0,
            available: 1 << 30,
            capacity: 1 << 30,
            machine: 0,
            rack: 0,
        };
        for &i in live {
            c.gets(i, Msg::Heartbeat(hb));
        }
        c.c.handle_start(&mut c.ctx);
        c
    }

    fn gets(&mut self, from: usize, msg: Msg) {
        self.c.handle_message(n(from), msg, &mut self.ctx);
    }

    /// The timer that issues the next op fires.
    fn next_op(&mut self) {
        self.gets(ME, Msg::Tick(Tick::NextOp));
    }

    /// The one unicast sent since the last look, taken.
    fn sent(&mut self) -> (NodeId, Msg) {
        let mut sends = self.ctx.sends();
        assert_eq!(sends.len(), 1, "expected one send, got {sends:?}");
        sends.pop().expect("one send")
    }

    /// Answer `msg`, sent to `to`, with `reply(req)`.
    fn answer(&mut self, to: NodeId, msg: &Msg, reply: impl FnOnce(ReqId) -> Msg) {
        self.gets(to.index(), reply(req_of(msg)));
    }

    /// The backup query multicast since the last look, taken.
    fn backup_query(&mut self) -> (ReqId, SegId) {
        let out = self.ctx.drain();
        let queries: Vec<(ReqId, SegId)> = out
            .iter()
            .filter_map(|o| match o {
                Out::Multicast(Msg::BackupQuery { req, seg }) => Some((*req, *seg)),
                _ => None,
            })
            .collect();
        assert_eq!(queries.len(), 1, "expected one backup query, got {out:?}");
        queries[0]
    }

    /// Resolve `PATH` to `e` and answer the index read the open sends
    /// with `ix`, from whichever provider it went to. Returns it.
    fn open(&mut self, e: &FileEntry, ix: &IndexSegment) -> NodeId {
        let (to, lookup) = self.sent();
        assert!(matches!(&lookup, Msg::NsLookup { path, .. } if path == PATH), "{lookup:?}");
        let e = e.clone();
        self.answer(to, &lookup, |req| Msg::NsLookupR { req, result: Ok(e) });
        let (home, read) = self.sent();
        let data = Some(encode_index(ix).into());
        let reply = ReadReply::Data { len: 0, data, version: v1(), crc: None };
        self.answer(home, &read, |req| Msg::ReadSegR { req, reply });
        assert_eq!(self.c.stats.completed_ops, 1, "the open did not complete");
        home
    }

    fn failed_with(&self) -> Option<Error> {
        assert_eq!(self.c.stats.failed_ops, 1, "the op did not fail");
        self.c.stats.last_error.clone()
    }
}

fn open(write: bool) -> ClientOp {
    ClientOp::Open { path: PATH.into(), write }
}

const FILE: FileId = FileId(0xF11E);

/// A file striped over two segments, 256 KiB of it written and
/// committed at version 1: four stripe units, two in each segment.
fn striped() -> (FileEntry, IndexSegment) {
    let organization = Organization::Striped { stripes: 2, max_size: 1 << 20 };
    let options = FileOptions { organization, ..FileOptions::default() };
    let mut ix = IndexSegment::new(FILE, options);
    let mut next = 0;
    let plan = ix.plan_write(0, 4 * STRIPE_UNIT, || {
        next += 1;
        SegId(next)
    });
    assert!(matches!(plan, WritePlan::Extents { .. }));
    ix.apply_write(0, 4 * STRIPE_UNIT);
    for seg in [SegId(1), SegId(2)] {
        ix.set_segment_version(seg, v1());
    }
    (entry(FILE, v1(), options), ix)
}

#[test]
fn an_open_redirected_by_the_home_reads_the_owner_without_redirect() {
    let mut c = Client::new(&[1, 2, 3], vec![open(false)]);
    let (to, lookup) = c.sent();
    assert_eq!(to, n(NS));
    let e = entry(FILE, v1(), FileOptions::default());
    c.answer(to, &lookup, |req| Msg::NsLookupR { req, result: Ok(e) });
    let (home, read) = c.sent();
    let seg = FILE.index_segment();
    let Msg::ReadSeg { seg: s, offset: 0, len: u64::MAX, min_version, allow_redirect, .. } = read
    else {
        panic!("expected a whole-segment read, got {read:?}");
    };
    assert_eq!((s, min_version, allow_redirect), (seg, Some(v1()), true));
    let owner = (1..=3).map(n).find(|&p| p != home).expect("another provider");
    let owners = vec![(owner, v1())];
    c.answer(home, &read, |req| Msg::ReadSegR { req, reply: ReadReply::Redirect(owners) });
    let (to, read) = c.sent();
    assert_eq!(to, owner);
    let Msg::ReadSeg { seg: s, offset: 0, len: u64::MAX, min_version, allow_redirect, .. } = read
    else {
        panic!("expected a whole-segment read, got {read:?}");
    };
    assert_eq!((s, min_version, allow_redirect), (seg, Some(v1()), false));
}

#[test]
fn an_open_the_home_cannot_serve_multicasts_a_backup_query() {
    let mut c = Client::new(&[1, 2, 3], vec![open(false)]);
    let (to, lookup) = c.sent();
    let e = entry(FILE, v1(), FileOptions::default());
    c.answer(to, &lookup, |req| Msg::NsLookupR { req, result: Ok(e) });
    let (home, read) = c.sent();
    let reply = ReadReply::Err(Error::NoSuchSegment);
    c.answer(home, &read, |req| Msg::ReadSegR { req, reply });
    let (req, seg) = c.backup_query();
    assert_eq!(seg, FILE.index_segment());
    // One owner answers; at the deadline the open reads from it.
    c.gets(2, Msg::BackupQueryR { req, seg, version: v1() });
    c.gets(ME, Msg::Tick(Tick::BackupDeadline(req)));
    let (to, read) = c.sent();
    assert_eq!(to, n(2));
    assert!(matches!(read, Msg::ReadSeg { allow_redirect: false, len: u64::MAX, .. }), "{read:?}");
}

#[test]
fn a_backup_hit_outside_the_view_fails_the_open_with_a_typed_error() {
    // n7 answers the backup query but has never sent a heartbeat, so
    // no owner the client may choose is left.
    let mut c = Client::new(&[1, 2, 3], vec![open(false)]);
    for _ in 0..MAX_ATTEMPTS {
        let (to, lookup) = c.sent();
        let e = entry(FILE, v1(), FileOptions::default());
        c.answer(to, &lookup, |req| Msg::NsLookupR { req, result: Ok(e) });
        let (home, read) = c.sent();
        let reply = ReadReply::Err(Error::NoSuchSegment);
        c.answer(home, &read, |req| Msg::ReadSegR { req, reply });
        let (req, seg) = c.backup_query();
        c.gets(7, Msg::BackupQueryR { req, seg, version: v1() });
        c.gets(ME, Msg::Tick(Tick::BackupDeadline(req)));
    }
    assert_eq!(c.failed_with(), Some(Error::NoSuchSegment));
}

#[test]
fn an_index_owner_timing_out_with_no_provider_left_fails_the_close_with_a_typed_error() {
    let ops = vec![open(true), ClientOp::write_bytes(0, b"hi".to_vec()), ClientOp::Close];
    let mut c = Client::new(&[1], ops);
    let ix = IndexSegment::new(FILE, FileOptions::default());
    c.open(&entry(FILE, v1(), FileOptions::default()), &ix);
    c.next_op(); // the write stays inline: nothing is sent
    assert!(c.ctx.sends().is_empty());
    c.next_op(); // the close commits the index through its owner
    let (to, create) = c.sent();
    assert_eq!(to, n(1));
    assert!(matches!(create, Msg::CreateShadow { base: Some(_), .. }), "{create:?}");
    // The owner times out: it leaves the view, and the view is empty.
    c.gets(ME, Msg::Tick(Tick::RpcTimeout(req_of(&create))));
    assert_eq!(c.c.known_providers(), 0);
    assert_eq!(c.failed_with(), Some(Error::Timeout));
}

#[test]
fn unlink_deletes_on_without_a_backup_query_when_the_index_read_fails() {
    let mut c = Client::new(&[1, 2, 3], vec![ClientOp::Unlink { path: PATH.into() }]);
    let (to, remove) = c.sent();
    assert!(matches!(remove, Msg::NsRemove { .. }), "{remove:?}");
    let e = entry(FILE, v1(), FileOptions::default());
    c.answer(to, &remove, |req| Msg::NsRemoveR { req, result: Ok(e) });
    let (home, read) = c.sent();
    let seg = FILE.index_segment();
    let Msg::ReadSeg { seg: s, min_version, allow_redirect, .. } = read else {
        panic!("expected a read, got {read:?}");
    };
    assert_eq!((s, min_version, allow_redirect), (seg, None, true));
    let reply = ReadReply::Err(Error::NoSuchSegment);
    c.answer(home, &read, |req| Msg::ReadSegR { req, reply });
    let out = c.ctx.drain();
    assert!(!out.iter().any(|o| matches!(o, Out::Multicast(_))), "{out:?}");
    // The index segment itself is still located and deleted.
    let query = out.into_iter().find_map(|o| match o {
        Out::Send(to, msg @ Msg::LocQuery { .. }) => Some((to, msg)),
        _ => None,
    });
    let (to, query) = query.expect("a location query");
    assert!(matches!(query, Msg::LocQuery { seg: s, .. } if s == seg), "{query:?}");
    let owners = vec![(n(2), v1())];
    c.answer(to, &query, |req| Msg::LocQueryR { req, seg, owners });
    let (to, delete) = c.sent();
    assert_eq!(to, n(2));
    assert!(matches!(delete, Msg::DeleteSeg { seg: s, .. } if s == seg), "{delete:?}");
    c.answer(to, &delete, |req| Msg::DeleteSegR { req, existed: true });
    assert_eq!(c.c.stats.completed_ops, 1);
}

#[test]
fn two_extents_of_one_unknown_segment_send_one_loc_query() {
    let (e, ix) = striped();
    let len = 4 * STRIPE_UNIT;
    let versioned = ClientOp::write_synth(0, len);
    for (write, op) in [(false, ClientOp::Read { offset: 0, len }), (true, versioned)] {
        let mut c = Client::new(&[1, 2, 3], vec![open(write), op]);
        c.open(&e, &ix);
        c.next_op();
        let mut segs: Vec<SegId> = c
            .ctx
            .sends()
            .into_iter()
            .map(|(_, msg)| match msg {
                Msg::LocQuery { seg, .. } => seg,
                other => panic!("expected only location queries, got {other:?}"),
            })
            .collect();
        segs.sort();
        assert_eq!(segs, vec![SegId(1), SegId(2)], "write: {write}");
    }
}

fn create(options: FileOptions) -> ClientOp {
    ClientOp::CreateWith { path: PATH.into(), options }
}

/// Run the create of a client started with `create(options)` to its
/// end, the file fresh, and issue the next op.
fn created(c: &mut Client, options: FileOptions) {
    let (to, msg) = c.sent();
    let Msg::NsCreate { file, .. } = msg else {
        panic!("expected a create, got {msg:?}");
    };
    let e = entry(file, Version::INITIAL, options);
    c.answer(to, &msg, |req| Msg::NsCreateR { req, result: Ok(e) });
    assert_eq!(c.c.stats.completed_ops, 1);
    c.next_op();
}

#[test]
fn a_versioning_off_write_sends_direct_writes_and_no_shadow() {
    let options = FileOptions { versioning_off: true, ..FileOptions::default() };
    let mut c = Client::new(&[1, 2, 3], vec![create(options), ClientOp::write_synth(0, 128 << 10)]);
    created(&mut c, options);
    let sends = c.ctx.sends();
    assert!(!sends.is_empty());
    for (_, msg) in &sends {
        assert!(matches!(msg, Msg::DirectWrite { .. }), "{msg:?}");
    }
}

#[test]
fn a_versioned_write_creates_a_shadow_and_then_writes_it() {
    let options = FileOptions::default();
    let mut c = Client::new(&[1, 2, 3], vec![create(options), ClientOp::write_synth(0, 128 << 10)]);
    created(&mut c, options);
    let (to, create) = c.sent();
    let Msg::CreateShadow { base: None, .. } = create else {
        panic!("expected a fresh shadow, got {create:?}");
    };
    c.answer(to, &create, |req| Msg::CreateShadowR { req, result: Ok(41) });
    let (to2, write) = c.sent();
    assert_eq!(to2, to);
    assert!(matches!(write, Msg::WriteShadow { shadow: 41, offset: 0, .. }), "{write:?}");
    c.answer(to, &write, |req| Msg::WriteShadowR { req, result: Ok(()) });
    assert_eq!(c.c.stats.completed_ops, 2);
}
