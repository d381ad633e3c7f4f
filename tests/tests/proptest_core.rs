//! Property-based tests over the core data structures: the file layout
//! mapping, the versioned segment store, and the hash ring under churn.

use std::collections::HashMap;

use proptest::prelude::*;
use sorrento::layout::{IndexSegment, WritePlan};
use sorrento::ring::HashRing;
use sorrento::store::{LocalStore, SegMeta, WritePayload};
use sorrento::types::{FileOptions, Organization, SegId, Version};
use sorrento_sim::{Dur, NodeId, SimTime};

fn organizations() -> impl Strategy<Value = Organization> {
    prop_oneof![
        Just(Organization::Linear),
        (1u32..6, 1u64..64).prop_map(|(stripes, mb)| Organization::Striped {
            stripes,
            max_size: mb << 20,
        }),
        (1u32..5).prop_map(|group_stripes| Organization::Hybrid { group_stripes }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever the organization mode, a write plan's extents tile the
    /// requested range exactly: consecutive, non-overlapping, and
    /// summing to the request length; and each extent stays within its
    /// segment's capacity for that mode.
    #[test]
    fn write_plans_tile_requests(
        org in organizations(),
        offset in 0u64..(8 << 20),
        len in 1u64..(16 << 20),
    ) {
        // Striped mode cannot exceed its declared max size.
        let (offset, len) = match org {
            Organization::Striped { max_size, .. } => {
                let off = offset.min(max_size.saturating_sub(1));
                (off, len.min(max_size - off).max(1))
            }
            _ => (offset, len),
        };
        let options = FileOptions { organization: org, ..FileOptions::default() };
        let mut ix = IndexSegment::new(sorrento::types::FileId(1), options);
        let mut n = 0u64;
        let plan = ix.plan_write(offset, len, || {
            n += 1;
            SegId::derive(1, n, 0)
        });
        match plan {
            WritePlan::Attached => {
                prop_assert!(offset + len <= sorrento::layout::ATTACH_MAX);
            }
            WritePlan::Extents { detach_bytes, extents } => {
                prop_assert_eq!(detach_bytes, 0); // fresh file: nothing attached
                let mut cursor = offset;
                for e in &extents {
                    prop_assert_eq!(e.file_offset, cursor);
                    prop_assert!(e.len > 0);
                    cursor += e.len;
                }
                prop_assert_eq!(cursor, offset + len);
            }
        }
    }

    /// After writing and applying, locate() maps any sub-range onto
    /// extents that tile it, referencing only segments the plan created.
    #[test]
    fn locate_is_consistent_with_plan(
        org in organizations(),
        len in 1u64..(8 << 20),
        probe_off in 0u64..(8 << 20),
        probe_len in 1u64..(4 << 20),
    ) {
        let len = match org {
            Organization::Striped { max_size, .. } => len.min(max_size),
            _ => len,
        };
        let options = FileOptions { organization: org, ..FileOptions::default() };
        let mut ix = IndexSegment::new(sorrento::types::FileId(1), options);
        let mut n = 0u64;
        ix.plan_write(0, len, || {
            n += 1;
            SegId::derive(1, n, 0)
        });
        ix.apply_write(0, len);
        let known: Vec<SegId> = ix.segments.iter().map(|e| e.seg).collect();
        let extents = ix.locate(probe_off, probe_len);
        let end = (probe_off + probe_len).min(ix.size);
        if ix.is_attached || probe_off >= end {
            prop_assert!(extents.is_empty());
        } else {
            let mut cursor = probe_off;
            for e in &extents {
                prop_assert_eq!(e.file_offset, cursor);
                prop_assert!(known.contains(&e.seg));
                cursor += e.len;
            }
            prop_assert_eq!(cursor, end);
        }
    }

    /// The store behaves like a flat byte array across arbitrary
    /// write/commit interleavings (shadow COW + consolidation must never
    /// corrupt visible data).
    #[test]
    fn store_matches_flat_model(
        keep in 1usize..4,
        batches in prop::collection::vec(
            prop::collection::vec((0u64..4096, 1u64..512), 1..4),
            1..8,
        ),
    ) {
        let mut store = LocalStore::new(keep);
        let seg = SegId::derive(9, 1, 0);
        let mut model: Vec<u8> = Vec::new();
        let mut version = Version::INITIAL;
        let now = SimTime::ZERO;
        for (b, writes) in batches.iter().enumerate() {
            let shadow = if version == Version::INITIAL {
                store.open_fresh_shadow(seg, SegMeta::default(), now, Dur::secs(60))
            } else {
                store.open_shadow(seg, version, now, Dur::secs(60)).unwrap()
            };
            for (i, &(off, len)) in writes.iter().enumerate() {
                let fill = (b * 16 + i + 1) as u8;
                let data = vec![fill; len as usize];
                store.write_shadow(shadow, off, WritePayload::Real(data.clone().into())).unwrap();
                if model.len() < (off + len) as usize {
                    model.resize((off + len) as usize, 0);
                }
                model[off as usize..(off + len) as usize].copy_from_slice(&data);
            }
            version = version.next();
            store.commit_shadow(shadow, version, now).unwrap();
            // The latest version always matches the model exactly.
            let out = store.read(seg, None, 0, model.len() as u64 + 64).unwrap();
            prop_assert_eq!(out.version, version);
            prop_assert_eq!(out.data.as_deref().unwrap(), &model[..]);
        }
    }

    /// Hash ring: every key has a home; across any membership change the
    /// keys that keep both endpoints alive move only if their old home
    /// departed or a new node claimed them.
    #[test]
    fn ring_minimal_disruption(
        providers in prop::collection::btree_set(0usize..64, 2..20),
        removed_idx in any::<prop::sample::Index>(),
        keys in prop::collection::vec(any::<u64>(), 50),
    ) {
        let providers: Vec<NodeId> = providers.into_iter().map(NodeId::from_index).collect();
        let removed = providers[removed_idx.index(providers.len())];
        let after: Vec<NodeId> = providers.iter().copied().filter(|&p| p != removed).collect();
        let ring_before = HashRing::build(providers.clone());
        let ring_after = HashRing::build(after);
        let mut moved: HashMap<NodeId, u32> = HashMap::new();
        for &k in &keys {
            let seg = SegId::derive(2, k, k);
            let b = ring_before.home(seg).unwrap();
            let a = ring_after.home(seg).unwrap();
            prop_assert_ne!(a, removed);
            if a != b {
                // Only keys homed on the removed node may move.
                prop_assert_eq!(b, removed);
                *moved.entry(a).or_default() += 1;
            }
        }
    }
}

// ---------------------------------------------------------------------
// At-least-once delivery: a resilient client re-sends a mutation until
// it sees the reply, so servers must treat a replayed `(client,
// request-id)` as the *same* request — answer it from the reply cache,
// never apply it twice. The properties below deliver arbitrary mutation
// programs once and with every message duplicated, and require both the
// replies and the final server state to be identical.
// ---------------------------------------------------------------------

use sorrento::costs::CostModel;
use sorrento::namespace::NamespaceServer;
use sorrento::provider::StorageProvider;
use sorrento::proto::{Msg, ReqId};
use sorrento::types::FileId;
use sorrento_net::runtime::{Out, RealCtx};

const CLIENT: usize = 9;

fn ctx_for(node: usize) -> RealCtx {
    let mut machines = HashMap::new();
    machines.insert(NodeId::from_index(node), 0);
    machines.insert(NodeId::from_index(CLIENT), 1);
    RealCtx::new(NodeId::from_index(node), 1, 1 << 30, machines)
}

/// Render a message for comparison across two runs: `Debug`, with
/// wall-clock fields (`created_ns`/`modified_ns`, stamped from the real
/// clock and so never equal between runs) blanked out. Within one run
/// replies are compared verbatim — a cached replay includes the
/// original timestamps.
fn scrub(msg: &Msg) -> String {
    let s = format!("{msg:?}");
    let mut out = String::with_capacity(s.len());
    let mut rest = s.as_str();
    while let Some(pos) = rest.find("_ns: ") {
        let (head, tail) = rest.split_at(pos + 5);
        out.push_str(head);
        out.push('_');
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// Replies the context queued for the client, keyed by request id and
/// rendered through [`scrub`]. Every replay of one request id must
/// repeat the first reply verbatim — the exact property reply caching
/// provides.
fn reply_map(
    ctx: &mut RealCtx,
    req_of: impl Fn(&Msg) -> Option<ReqId>,
) -> HashMap<ReqId, String> {
    let mut verbatim: HashMap<ReqId, String> = HashMap::new();
    let mut map: HashMap<ReqId, String> = HashMap::new();
    for out in ctx.drain_outbox() {
        let Out::Unicast(dst, msg) = out else { continue };
        if dst != NodeId::from_index(CLIENT) {
            continue;
        }
        let Some(req) = req_of(&msg) else { continue };
        let rendered = format!("{msg:?}");
        match verbatim.get(&req) {
            Some(first) => assert_eq!(first, &rendered, "replayed req {req} got a different reply"),
            None => {
                verbatim.insert(req, rendered);
                map.insert(req, scrub(&msg));
            }
        }
    }
    map
}

fn ns_req_of(msg: &Msg) -> Option<ReqId> {
    match msg {
        Msg::NsCreateR { req, .. } | Msg::NsMkdirR { req, .. } | Msg::NsRemoveR { req, .. } => {
            Some(*req)
        }
        _ => None,
    }
}

/// One namespace mutation over a tiny path pool (collisions intended:
/// create-after-create and remove-after-remove exercise the error
/// replies, which must be cached too).
#[derive(Debug, Clone)]
enum NsMut {
    Create(&'static str),
    Mkdir(&'static str),
    Remove(&'static str),
}

fn ns_paths() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just("/a"), Just("/b"), Just("/d"), Just("/d/x")]
}

fn ns_muts() -> impl Strategy<Value = Vec<(NsMut, u8)>> {
    prop::collection::vec(
        (
            prop_oneof![
                ns_paths().prop_map(NsMut::Create),
                ns_paths().prop_map(NsMut::Mkdir),
                ns_paths().prop_map(NsMut::Remove),
            ],
            1u8..4, // delivery count: 1 = exactly-once baseline behavior
        ),
        1..12,
    )
}

fn ns_msg(i: usize, m: &NsMut) -> Msg {
    let req = i as ReqId + 1;
    match m {
        NsMut::Create(p) => Msg::NsCreate {
            req,
            path: (*p).to_owned(),
            file: FileId(i as u128 + 1),
            options: FileOptions::default(),
        },
        NsMut::Mkdir(p) => Msg::NsMkdir { req, path: (*p).to_owned() },
        NsMut::Remove(p) => Msg::NsRemove { req, path: (*p).to_owned() },
    }
}

/// Drive a fresh namespace server, delivering message `i` of the
/// program `dups[i]` times (1 = once). Returns (replies, state probe).
fn ns_run(program: &[(NsMut, u8)], dup: bool) -> (HashMap<ReqId, String>, Vec<String>, usize) {
    let mut ctx = ctx_for(0);
    let mut ns = NamespaceServer::new(CostModel::fast_test());
    let client = NodeId::from_index(CLIENT);
    for (i, (m, dups)) in program.iter().enumerate() {
        let n = if dup { *dups } else { 1 };
        for _ in 0..n {
            ns.handle_message(client, ns_msg(i, m), &mut ctx);
        }
    }
    let replies = reply_map(&mut ctx, ns_req_of);
    // Probe the tree through the protocol itself (fresh req ids).
    for (j, p) in ["/", "/a", "/b", "/d", "/d/x"].iter().enumerate() {
        let req = 10_000 + j as ReqId;
        ns.handle_message(client, Msg::NsList { req, path: (*p).to_owned() }, &mut ctx);
        ns.handle_message(client, Msg::NsLookup { req: req + 100, path: (*p).to_owned() }, &mut ctx);
    }
    let probe: Vec<String> = ctx
        .drain_outbox()
        .into_iter()
        .filter_map(|o| match o {
            Out::Unicast(dst, m) if dst == client => Some(scrub(&m)),
            _ => None,
        })
        .collect();
    (replies, probe, ns.entry_count())
}

fn prov_req_of(msg: &Msg) -> Option<ReqId> {
    match msg {
        Msg::DirectWriteR { req, .. } => Some(*req),
        _ => None,
    }
}

/// Drive a fresh provider through direct writes, each delivered
/// `dups[i]` times. Returns (replies, per-segment latest version +
/// bytes).
type SegSnapshot = Vec<(Option<Version>, Option<Vec<u8>>)>;

fn prov_run(program: &[(u8, u16, u16, u8)], dup: bool) -> (HashMap<ReqId, String>, SegSnapshot) {
    let mut ctx = ctx_for(1);
    let mut prov = StorageProvider::new(CostModel::fast_test(), 2);
    let client = NodeId::from_index(CLIENT);
    let segs: Vec<SegId> = (0..3).map(|n| SegId::derive(7, n, 0)).collect();
    for (i, &(s, offset, len, dups)) in program.iter().enumerate() {
        let seg = segs[s as usize % segs.len()];
        let fill = (i as u8).wrapping_mul(37).wrapping_add(s);
        let payload = WritePayload::Real(bytes::Bytes::from(vec![fill; len as usize]));
        let msg = Msg::DirectWrite {
            req: i as ReqId + 1,
            seg,
            offset: offset as u64,
            payload,
            meta: SegMeta::from_options(&FileOptions::default(), false),
        };
        let n = if dup { dups } else { 1 };
        for _ in 0..n {
            prov.handle_message(client, msg.clone(), &mut ctx);
        }
    }
    let replies = reply_map(&mut ctx, prov_req_of);
    let snap: SegSnapshot = segs
        .iter()
        .map(|&seg| {
            let v = prov.store.latest(seg);
            let d = prov
                .store
                .export(seg, None)
                .ok()
                .and_then(|img| img.data.map(|b| b.as_ref().to_vec()));
            (v, d)
        })
        .collect();
    (replies, snap)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Namespace mutations are idempotent under replay: delivering each
    /// message N times yields the same replies (success *and* error)
    /// and the same tree as delivering each exactly once.
    #[test]
    fn ns_replay_equals_once(program in ns_muts()) {
        let (once_replies, once_probe, once_count) = ns_run(&program, false);
        let (dup_replies, dup_probe, dup_count) = ns_run(&program, true);
        prop_assert_eq!(once_replies, dup_replies);
        prop_assert_eq!(once_probe, dup_probe);
        prop_assert_eq!(once_count, dup_count);
    }

    /// Provider direct writes are idempotent under replay: versions
    /// advance once per *distinct* request, and the stored bytes match
    /// exactly-once delivery.
    #[test]
    fn provider_replay_equals_once(
        program in prop::collection::vec((0u8..3, 0u16..512, 1u16..256, 1u8..4), 1..10),
    ) {
        let (once_replies, once_snap) = prov_run(&program, false);
        let (dup_replies, dup_snap) = prov_run(&program, true);
        prop_assert_eq!(once_replies, dup_replies);
        prop_assert_eq!(once_snap, dup_snap);
    }
}
