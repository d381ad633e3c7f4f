//! Property tests for the binary wire format in `sorrento-net`.
//!
//! `Msg` does not implement `PartialEq` (it carries floats and big
//! blobs), so roundtripping is checked byte-exactly: encode, decode,
//! re-encode, and require the two byte strings to match. Corruption
//! properties assert the decoder returns a typed [`FrameError`] — never
//! panics — for every truncation and for bit flips anywhere in the
//! header or payload. Every property draws its tags from the codec's own
//! table (`MSG_TAGS`). The last section pins the bytes themselves against
//! the committed `data/wire_v5.txt`.

use std::collections::BTreeSet;

use proptest::prelude::*;
use proptest::TestRng;
use rand::{Rng, SeedableRng};
use sorrento::membership::Heartbeat;
use sorrento::proto::{FileEntry, Msg, ReadReply};
use sorrento::store::{ReplicaImage, SegMeta, Transfer, WritePayload};
use sorrento::swim::{SwimState, SwimUpdate};
use sorrento::types::{
    EcParams, Error, FileId, FileOptions, Organization, PlacementPolicy, SegId, Version,
};
use sorrento_kvdb::crc32;
use sorrento_net::frame::{
    decode_frame, decode_transfer_bytes, encode_hello, encode_msg, encode_transfer_bytes,
    encode_msg_into, encode_msg_spliced, reference_encode_msg, Frame, FrameError, StreamDecoder,
    HEADER_LEN, MSG_TAGS,
};
use sorrento_net::pool::BufPool;
use sorrento_sim::NodeId;

fn arb_u128(rng: &mut TestRng) -> u128 {
    ((rng.gen::<u64>() as u128) << 64) | rng.gen::<u64>() as u128
}

fn arb_f64(rng: &mut TestRng) -> f64 {
    // Any bit pattern, NaNs included: the wire carries raw IEEE bits.
    f64::from_bits(rng.gen())
}

fn arb_node(rng: &mut TestRng) -> NodeId {
    NodeId::from_index(rng.gen_range(0..4096usize))
}

fn arb_string(rng: &mut TestRng) -> String {
    let n = rng.gen_range(0..24usize);
    (0..n).map(|_| char::from(rng.gen_range(32u8..127))).collect()
}

fn arb_bytes(rng: &mut TestRng) -> Vec<u8> {
    let n = rng.gen_range(0..48usize);
    (0..n).map(|_| rng.gen()).collect()
}

fn arb_error(rng: &mut TestRng) -> Error {
    match rng.gen_range(0..13u8) {
        0 => Error::NotFound,
        1 => Error::AlreadyExists,
        2 => Error::VersionConflict,
        3 => Error::NoSuchSegment,
        4 => Error::Timeout,
        5 => Error::OutOfSpace,
        6 => Error::LeaseHeld,
        7 => Error::InvalidMode,
        8 => Error::NotADirectory,
        9 => Error::NotEmpty,
        10 => Error::ShadowExpired,
        11 => Error::Unavailable,
        _ => Error::DeadlineExceeded,
    }
}

fn arb_result<T>(rng: &mut TestRng, f: impl FnOnce(&mut TestRng) -> T) -> Result<T, Error> {
    if rng.gen() {
        Ok(f(rng))
    } else {
        Err(arb_error(rng))
    }
}

fn arb_organization(rng: &mut TestRng) -> Organization {
    match rng.gen_range(0..3u8) {
        0 => Organization::Linear,
        1 => Organization::Striped { stripes: rng.gen(), max_size: rng.gen() },
        _ => Organization::Hybrid { group_stripes: rng.gen() },
    }
}

fn arb_placement(rng: &mut TestRng) -> PlacementPolicy {
    match rng.gen_range(0..3u8) {
        0 => PlacementPolicy::Random,
        1 => PlacementPolicy::LoadAware,
        _ => PlacementPolicy::LocalityDriven { threshold: arb_f64(rng) },
    }
}

fn arb_ec(rng: &mut TestRng) -> Option<EcParams> {
    if rng.gen() {
        Some(EcParams { k: rng.gen(), m: rng.gen() })
    } else {
        None
    }
}

fn arb_options(rng: &mut TestRng) -> FileOptions {
    FileOptions {
        replication: rng.gen(),
        alpha: arb_f64(rng),
        organization: arb_organization(rng),
        placement: arb_placement(rng),
        versioning_off: rng.gen(),
        eager_commit: rng.gen(),
        ec: arb_ec(rng),
    }
}

fn arb_entry(rng: &mut TestRng) -> FileEntry {
    FileEntry {
        file: FileId(arb_u128(rng)),
        version: Version(rng.gen()),
        size: rng.gen(),
        is_dir: rng.gen(),
        created_ns: rng.gen(),
        modified_ns: rng.gen(),
        options: arb_options(rng),
    }
}

fn arb_owners(rng: &mut TestRng) -> Vec<(NodeId, Version)> {
    let n = rng.gen_range(0..5usize);
    (0..n).map(|_| (arb_node(rng), Version(rng.gen()))).collect()
}

/// Bytes and, half the time, their CRC as a store would carry it.
fn arb_checked(rng: &mut TestRng) -> (bytes::Bytes, Option<u32>) {
    let data = arb_bytes(rng);
    let crc = if rng.gen() { Some(crc32(&data)) } else { None };
    (data.into(), crc)
}

fn arb_reply(rng: &mut TestRng) -> ReadReply {
    match rng.gen_range(0..3u8) {
        0 => {
            let len = rng.gen();
            let (data, crc) = if rng.gen() {
                let (data, crc) = arb_checked(rng);
                (Some(data), crc)
            } else {
                (None, None)
            };
            ReadReply::Data { len, data, version: Version(rng.gen()), crc }
        }
        1 => ReadReply::Redirect(arb_owners(rng)),
        _ => ReadReply::Err(arb_error(rng)),
    }
}

fn arb_payload(rng: &mut TestRng) -> WritePayload {
    if rng.gen() {
        match arb_checked(rng) {
            (data, Some(crc)) => WritePayload::Checked { data, crc },
            (data, None) => WritePayload::Real(data),
        }
    } else {
        WritePayload::Synthetic { len: rng.gen() }
    }
}

fn arb_meta(rng: &mut TestRng) -> SegMeta {
    SegMeta {
        replication: rng.gen(),
        alpha: arb_f64(rng),
        policy: arb_placement(rng),
        synthetic: rng.gen(),
        ec: if rng.gen() { Some((rng.gen(), rng.gen())) } else { None },
    }
}

fn arb_image(rng: &mut TestRng) -> ReplicaImage {
    ReplicaImage {
        seg: SegId(arb_u128(rng)),
        version: Version(rng.gen()),
        len: rng.gen(),
        data: if rng.gen() { Some(arb_bytes(rng).into()) } else { None },
        meta: arb_meta(rng),
    }
}

/// An image and a piece table that describes its bytes: some pieces,
/// cut at random, with gaps between them.
fn arb_transfer(rng: &mut TestRng) -> Transfer {
    let image = arb_image(rng);
    let mut pieces = Vec::new();
    if let Some(data) = &image.data {
        let mut at = 0;
        while at < data.len() {
            let len = rng.gen_range(1..=data.len() - at);
            if rng.gen() {
                pieces.push((at as u64, len as u64, crc32(&data[at..at + len])));
            }
            at += len;
        }
    }
    Transfer { image, pieces }
}

fn arb_heartbeat(rng: &mut TestRng) -> Heartbeat {
    Heartbeat {
        load: arb_f64(rng),
        available: rng.gen(),
        capacity: rng.gen(),
        machine: rng.gen(),
        rack: rng.gen(),
    }
}

fn arb_updates(rng: &mut TestRng) -> Vec<SwimUpdate> {
    let n = rng.gen_range(0..4usize);
    (0..n)
        .map(|_| SwimUpdate {
            node: arb_node(rng),
            state: [SwimState::Alive, SwimState::Suspect, SwimState::Dead]
                [rng.gen_range(0..3usize)],
            incarnation: rng.gen(),
            beat: rng.gen(),
            payload: if rng.gen() { Some(arb_heartbeat(rng)) } else { None },
        })
        .collect()
}

fn arb_shadow_items(rng: &mut TestRng) -> Vec<(u64, Version)> {
    let n = rng.gen_range(0..5usize);
    (0..n).map(|_| (rng.gen(), Version(rng.gen()))).collect()
}

/// One of the codec's on-wire `Msg` tags.
fn arb_tag(rng: &mut TestRng) -> u8 {
    MSG_TAGS[rng.gen_range(0..MSG_TAGS.len())]
}

/// A random instance of the `Msg` variant with the given wire tag.
fn arb_msg(tag: u8, rng: &mut TestRng) -> Msg {
    match tag {
        1 => Msg::Heartbeat(arb_heartbeat(rng)),
        2 => Msg::NsLookup { req: rng.gen(), path: arb_string(rng) },
        3 => Msg::NsLookupR { req: rng.gen(), result: arb_result(rng, arb_entry) },
        4 => Msg::NsCreate {
            req: rng.gen(),
            path: arb_string(rng),
            file: FileId(arb_u128(rng)),
            options: arb_options(rng),
        },
        5 => Msg::NsCreateR { req: rng.gen(), result: arb_result(rng, arb_entry) },
        6 => Msg::NsMkdir { req: rng.gen(), path: arb_string(rng) },
        7 => Msg::NsMkdirR { req: rng.gen(), result: arb_result(rng, |_| ()) },
        8 => Msg::NsRemove { req: rng.gen(), path: arb_string(rng) },
        9 => Msg::NsRemoveR { req: rng.gen(), result: arb_result(rng, arb_entry) },
        10 => Msg::NsList { req: rng.gen(), path: arb_string(rng) },
        11 => Msg::NsListR {
            req: rng.gen(),
            result: arb_result(rng, |rng| {
                let n = rng.gen_range(0..4usize);
                (0..n).map(|_| arb_string(rng)).collect()
            }),
        },
        12 => Msg::NsCommitBegin {
            req: rng.gen(),
            span: rng.gen(),
            path: arb_string(rng),
            base: Version(rng.gen()),
        },
        13 => Msg::NsCommitBeginR { req: rng.gen(), result: arb_result(rng, |_| ()) },
        14 => Msg::NsCommitEnd {
            req: rng.gen(),
            span: rng.gen(),
            path: arb_string(rng),
            commit: rng.gen(),
            new_version: Version(rng.gen()),
            new_size: rng.gen(),
        },
        15 => Msg::NsCommitEndR { req: rng.gen(), result: arb_result(rng, |_| ()) },
        16 => Msg::LocQuery { req: rng.gen(), seg: SegId(arb_u128(rng)) },
        17 => Msg::LocQueryR {
            req: rng.gen(),
            seg: SegId(arb_u128(rng)),
            owners: arb_owners(rng),
        },
        18 => Msg::LocUpsert {
            seg: SegId(arb_u128(rng)),
            owner: arb_node(rng),
            version: Version(rng.gen()),
            replication: rng.gen(),
            bytes: rng.gen(),
            deleted: rng.gen(),
        },
        19 => Msg::LocRefresh {
            owner: arb_node(rng),
            entries: {
                let n = rng.gen_range(0..4usize);
                (0..n)
                    .map(|_| (SegId(arb_u128(rng)), Version(rng.gen()), rng.gen(), rng.gen()))
                    .collect()
            },
        },
        20 => Msg::BackupQuery { req: rng.gen(), seg: SegId(arb_u128(rng)) },
        21 => Msg::BackupQueryR {
            req: rng.gen(),
            seg: SegId(arb_u128(rng)),
            version: Version(rng.gen()),
        },
        22 => Msg::ReadSeg {
            req: rng.gen(),
            seg: SegId(arb_u128(rng)),
            offset: rng.gen(),
            len: rng.gen(),
            min_version: if rng.gen() { Some(Version(rng.gen())) } else { None },
            allow_redirect: rng.gen(),
        },
        23 => Msg::ReadSegR { req: rng.gen(), reply: arb_reply(rng) },
        24 => Msg::CreateShadow {
            req: rng.gen(),
            span: rng.gen(),
            seg: SegId(arb_u128(rng)),
            base: if rng.gen() { Some(Version(rng.gen())) } else { None },
            meta: arb_meta(rng),
        },
        25 => Msg::CreateShadowR { req: rng.gen(), result: arb_result(rng, |rng| rng.gen()) },
        26 => Msg::WriteShadow {
            req: rng.gen(),
            shadow: rng.gen(),
            offset: rng.gen(),
            payload: arb_payload(rng),
            truncate: rng.gen(),
        },
        27 => Msg::WriteShadowR { req: rng.gen(), result: arb_result(rng, |_| ()) },
        28 => Msg::ReadShadow {
            req: rng.gen(),
            shadow: rng.gen(),
            offset: rng.gen(),
            len: rng.gen(),
        },
        29 => Msg::ReadShadowR { req: rng.gen(), reply: arb_reply(rng) },
        30 => Msg::RenewShadow { shadow: rng.gen() },
        31 => Msg::Prepare { req: rng.gen(), span: rng.gen(), items: arb_shadow_items(rng) },
        32 => Msg::PrepareR { req: rng.gen(), result: arb_result(rng, |_| ()) },
        33 => Msg::Commit { req: rng.gen(), span: rng.gen(), items: arb_shadow_items(rng) },
        34 => Msg::CommitR { req: rng.gen(), result: arb_result(rng, |_| ()) },
        35 => Msg::Abort {
            span: rng.gen(),
            items: {
                let n = rng.gen_range(0..5usize);
                (0..n).map(|_| rng.gen()).collect()
            },
        },
        36 => Msg::DirectWrite {
            req: rng.gen(),
            seg: SegId(arb_u128(rng)),
            offset: rng.gen(),
            payload: arb_payload(rng),
            meta: arb_meta(rng),
        },
        37 => Msg::DirectWriteR { req: rng.gen(), result: arb_result(rng, |_| ()) },
        38 => Msg::DeleteSeg { req: rng.gen(), seg: SegId(arb_u128(rng)) },
        39 => Msg::DeleteSegR { req: rng.gen(), existed: rng.gen() },
        40 => Msg::FetchSeg { req: rng.gen(), seg: SegId(arb_u128(rng)) },
        41 => Msg::FetchSegR {
            req: rng.gen(),
            result: arb_result(rng, |rng| Box::new(arb_transfer(rng))),
        },
        42 => Msg::SyncRequest {
            req: rng.gen(),
            seg: SegId(arb_u128(rng)),
            source: arb_node(rng),
            bytes_hint: rng.gen(),
        },
        43 => Msg::SyncDone {
            req: rng.gen(),
            seg: SegId(arb_u128(rng)),
            version: Version(rng.gen()),
            result: arb_result(rng, |_| ()),
        },
        44 => Msg::MigrateTo {
            seg: SegId(arb_u128(rng)),
            source: arb_node(rng),
            bytes_hint: rng.gen(),
        },
        45 => Msg::MigrateDone { seg: SegId(arb_u128(rng)), ok: rng.gen() },
        46 => Msg::StatsQuery { req: rng.gen() },
        47 => Msg::StatsR { req: rng.gen(), json: arb_string(rng) },
        48 => Msg::ChaosCtl {
            req: rng.gen(),
            seed: rng.gen(),
            drop_permille: rng.gen(),
            dup_permille: rng.gen(),
            delay_permille: rng.gen(),
            delay_us: rng.gen(),
            partition: {
                let n = rng.gen_range(0..5usize);
                (0..n).map(|_| arb_node(rng)).collect()
            },
        },
        49 => Msg::ChaosCtlR { req: rng.gen() },
        50 => Msg::TraceQuery { req: rng.gen(), span: rng.gen() },
        51 => Msg::TraceR { req: rng.gen(), json: arb_string(rng) },
        52 => Msg::EcInstall { req: rng.gen(), xfer: Box::new(arb_transfer(rng)) },
        53 => Msg::EcInstallR {
            req: rng.gen(),
            seg: SegId(arb_u128(rng)),
            result: arb_result(rng, |_| ()),
        },
        54 => Msg::NsRename { req: rng.gen(), src: arb_string(rng), dst: arb_string(rng) },
        55 => Msg::NsRenameR { req: rng.gen(), result: arb_result(rng, |_| ()) },
        56 => Msg::NsShardInstall {
            req: rng.gen(),
            path: arb_string(rng),
            entry: arb_entry(rng),
            xfer: rng.gen(),
        },
        57 => Msg::NsShardInstallR { req: rng.gen(), result: arb_result(rng, |_| ()) },
        58 => Msg::NsShardDrop {
            req: rng.gen(),
            path: arb_string(rng),
            check_empty: rng.gen(),
        },
        59 => Msg::NsShardDropR { req: rng.gen(), result: arb_result(rng, |_| ()) },
        60 => Msg::ShardMapQuery { req: rng.gen() },
        61 => Msg::ShardMapR {
            req: rng.gen(),
            rows: {
                let n = rng.gen_range(0..5usize);
                (0..n)
                    .map(|i| {
                        let standby = if rng.gen() { Some(arb_node(rng)) } else { None };
                        (i as u32, arb_node(rng), standby)
                    })
                    .collect()
            },
        },
        62 => Msg::NsWalShip {
            shard: rng.gen(),
            seq: rng.gen(),
            ckpt: if rng.gen() { Some(arb_bytes(rng).into()) } else { None },
            recs: {
                let n = rng.gen_range(0..4usize);
                (0..n).map(|_| arb_bytes(rng).into()).collect()
            },
        },
        63 => Msg::NsCatchup { shard: rng.gen(), have_seq: rng.gen() },
        64 => Msg::SwimPing { seq: rng.gen(), origin: arb_node(rng), updates: arb_updates(rng) },
        65 => Msg::SwimAck { seq: rng.gen(), origin: arb_node(rng), updates: arb_updates(rng) },
        66 => Msg::SwimPingReq {
            seq: rng.gen(),
            target: arb_node(rng),
            origin: arb_node(rng),
            updates: arb_updates(rng),
        },
        67 => Msg::MembersPull { req: rng.gen() },
        68 => Msg::MembersDigest { req: rng.gen(), updates: arb_updates(rng) },
        69 => Msg::MembersQuery { req: rng.gen() },
        70 => Msg::MembersR { req: rng.gen(), json: arb_string(rng) },
        _ => unreachable!("wire tag {tag} has a codec row but no generator here"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_msg_variant_roundtrips_byte_exactly(seed in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(seed);
        for &tag in MSG_TAGS {
            let msg = arb_msg(tag, &mut rng);
            let sender = arb_node(&mut rng);
            let bytes = encode_msg(sender, &msg);
            // The single-pass streaming-CRC encoder must match the
            // retired two-pass encoder byte for byte.
            prop_assert_eq!(
                &bytes, &reference_encode_msg(sender, &msg),
                "tag {} single-pass encode differs from reference", tag
            );
            let (from, frame) =
                decode_frame(&bytes).unwrap_or_else(|e| panic!("tag {tag}: decode failed: {e}"));
            prop_assert_eq!(from, sender);
            let Frame::Msg(decoded) = frame else {
                panic!("tag {tag}: decoded as a Hello frame");
            };
            prop_assert_eq!(encode_msg(sender, &decoded), bytes, "tag {} re-encode differs", tag);
        }
    }

    #[test]
    fn pooled_encode_is_identical_to_fresh_encode(seed in any::<u64>()) {
        // One reused pooled buffer cycled through every variant: stale
        // capacity or leftover bytes from the previous frame must never
        // leak into the next one.
        let mut rng = TestRng::seed_from_u64(seed);
        let pool = BufPool::new();
        for &tag in MSG_TAGS {
            let msg = arb_msg(tag, &mut rng);
            let sender = arb_node(&mut rng);
            let mut buf = pool.check_out();
            encode_msg_into(&mut buf, sender, &msg);
            prop_assert_eq!(
                &buf[..], &encode_msg(sender, &msg)[..],
                "tag {} pooled encode differs from fresh encode", tag
            );
        }
    }

    #[test]
    fn spliced_encoding_flattened_is_encode_msg(seed in any::<u64>()) {
        // What the mesh writes — the pooled buffer with the checked blob
        // gathered in at its position — is the contiguous encoding.
        let mut rng = TestRng::seed_from_u64(seed);
        let pool = BufPool::new();
        for &tag in MSG_TAGS {
            let msg = arb_msg(tag, &mut rng);
            let sender = arb_node(&mut rng);
            let mut head = pool.check_out();
            let flat = match encode_msg_spliced(&mut head, sender, &msg) {
                Some((at, blob)) => [&head[..at], &blob[..], &head[at..]].concat(),
                None => head.to_vec(),
            };
            prop_assert_eq!(flat, encode_msg(sender, &msg), "tag {} spliced encode differs", tag);
        }
    }

    #[test]
    fn hello_roundtrips(seed in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(seed);
        let addr = arb_string(&mut rng);
        let sender = arb_node(&mut rng);
        let bytes = encode_hello(sender, &addr);
        let (from, frame) = decode_frame(&bytes).unwrap();
        prop_assert_eq!(from, sender);
        let Frame::Hello { listen_addr } = frame else {
            panic!("decoded as a Msg frame");
        };
        prop_assert_eq!(listen_addr, addr);
    }

    #[test]
    fn replica_image_roundtrips_byte_exactly(seed in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(seed);
        let xfer = arb_transfer(&mut rng);
        let bytes = encode_transfer_bytes(&xfer);
        let decoded = decode_transfer_bytes(&bytes).unwrap();
        prop_assert_eq!(&decoded.pieces, &xfer.pieces);
        prop_assert_eq!(&encode_transfer_bytes(&decoded), &bytes);
        // The bytes come last: one changed at rest is refused, not served
        // later under its writer's CRC.
        if xfer.image.data.is_some_and(|d| !d.is_empty()) {
            let mut rotten = bytes;
            *rotten.last_mut().unwrap() ^= 1;
            prop_assert_eq!(decode_transfer_bytes(&rotten).unwrap_err(), FrameError::ChecksumMismatch);
        }
    }

    #[test]
    fn every_truncation_is_a_typed_error(seed in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(seed);
        let tag = arb_tag(&mut rng);
        let msg = arb_msg(tag, &mut rng);
        let bytes = encode_msg(arb_node(&mut rng), &msg);
        for cut in 0..bytes.len() {
            // Short header and short payload both report Truncated; the
            // point is the decoder returns instead of panicking.
            prop_assert!(
                matches!(decode_frame(&bytes[..cut]), Err(FrameError::Truncated)),
                "tag {} cut {} did not report Truncated", tag, cut
            );
        }
    }

    #[test]
    fn payload_bit_flips_fail_the_checksum(seed in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(seed);
        let tag = arb_tag(&mut rng);
        let msg = arb_msg(tag, &mut rng);
        let mut bytes = encode_msg(arb_node(&mut rng), &msg);
        let at = rng.gen_range(HEADER_LEN..bytes.len());
        let bit = 1u8 << rng.gen_range(0..8u8);
        bytes[at] ^= bit;
        prop_assert!(
            matches!(decode_frame(&bytes), Err(FrameError::ChecksumMismatch)),
            "tag {} flip at {} slipped past the checksum", tag, at
        );
    }

    #[test]
    fn header_corruption_is_a_typed_error(seed in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(seed);
        let tag = arb_tag(&mut rng);
        let msg = arb_msg(tag, &mut rng);
        let mut bytes = encode_msg(arb_node(&mut rng), &msg);
        // Corrupt magic, version, payload length, or crc. The sender and
        // kind bytes are skipped: a sender flip yields a valid frame from
        // a different node, which is the checksum's documented non-goal.
        let targets = [0usize, 1, 2, 3, 4, 10, 11, 12, 13, 14, 15, 16, 17];
        let at = targets[rng.gen_range(0..targets.len())];
        bytes[at] ^= 1u8 << rng.gen_range(0..8u8);
        prop_assert!(
            decode_frame(&bytes).is_err(),
            "tag {} header corruption at byte {} decoded successfully", tag, at
        );
    }

    #[test]
    fn random_garbage_never_panics(junk in prop::collection::vec(any::<u8>(), 0..64)) {
        // Whatever the bytes, decoding must return — a panic fails the test.
        let _ = decode_frame(&junk);
    }
}

/// A write, a read reply and two replica transfers, each with a 64-byte
/// checked blob: the write as a client sends it (CRC computed by the
/// encoder), the reply and the fetched replica as a provider does (CRC
/// carried from the store, or combined from the transfer's piece table),
/// and a rebuilt EC shard, which has no table, so its blob's CRC is its
/// only check.
fn frames_with_a_checked_blob() -> [(&'static str, Vec<u8>); 4] {
    let blob = bytes::Bytes::from((0..64u8).collect::<Vec<u8>>());
    let write = Msg::WriteShadow {
        req: 3,
        shadow: 4,
        offset: 0,
        payload: WritePayload::Real(blob.clone()),
        truncate: false,
    };
    let crc = Some(crc32(&blob));
    let read = Msg::ReadSegR {
        req: 5,
        reply: ReadReply::Data { len: 64, data: Some(blob.clone()), version: Version(2), crc },
    };
    let fetched = Msg::FetchSegR { req: 6, result: Ok(Box::new(transfer_of(blob.clone()))) };
    let shard = Transfer { pieces: Vec::new(), ..transfer_of(blob) };
    let rebuilt = Msg::EcInstall { req: 7, xfer: Box::new(shard) };
    let sender = NodeId::from_index(1);
    [
        ("WriteShadow", encode_msg(sender, &write)),
        ("ReadSegR", encode_msg(sender, &read)),
        ("FetchSegR", encode_msg(sender, &fetched)),
        ("EcInstall", encode_msg(sender, &rebuilt)),
    ]
}

/// `data` as a replica transfer whose table knows two pieces of it, with
/// a gap between them and after the second.
fn transfer_of(data: bytes::Bytes) -> Transfer {
    let n = data.len() as u64;
    let piece = |s: u64, l: u64| (s, l, crc32(&data[s as usize..(s + l) as usize]));
    let pieces = vec![piece(0, n / 4), piece(n / 2, n / 4)];
    let image =
        ReplicaImage { seg: SegId(5), version: Version(2), len: n, data: Some(data), meta: SegMeta::default() };
    Transfer { image, pieces }
}

/// A transfer whose piece table does not describe its bytes is damage,
/// refused with a typed error and never a panic: a forged CRC, pieces
/// out of order, overlapping or past the blob, and a table that does not
/// combine to the blob's CRC though the blob itself is intact.
#[test]
fn a_transfer_whose_piece_table_does_not_describe_its_bytes_is_refused() {
    let data = bytes::Bytes::from((0..=255u8).collect::<Vec<u8>>());
    let sender = NodeId::from_index(1);
    let piece = |s: u64, l: u64| (s, l, crc32(&data[s as usize..(s + l) as usize]));
    let wire = |pieces: Vec<(u64, u64, u32)>| {
        let xfer = Transfer { pieces, ..transfer_of(data.clone()) };
        encode_msg(sender, &Msg::FetchSegR { req: 1, result: Ok(Box::new(xfer)) })
    };
    assert!(decode_frame(&wire(vec![piece(0, 100), piece(100, 156)])).is_ok());
    assert!(decode_frame(&wire(Vec::new())).is_ok(), "no table: the bytes are read");
    let refused = [
        ("forged", vec![(0, 100, piece(0, 100).2 ^ 1), piece(100, 156)]),
        ("descending", vec![piece(100, 156), piece(0, 100)]),
        ("overlapping", vec![piece(0, 100), piece(50, 100)]),
        ("past the blob", vec![piece(0, 100), (200, 100, 0)]),
        ("overflowing", vec![(u64::MAX, 2, 0)]),
    ];
    for (what, pieces) in refused {
        assert_eq!(decode_frame(&wire(pieces)).map(|_| ()), Err(FrameError::ChecksumMismatch), "{what}");
    }
    // A table that disagrees with an intact blob: the first piece's CRC
    // changed on a frame whose own CRC is then made right again, so only
    // the table check stands between it and a replica serving a wrong CRC.
    let good = wire(vec![piece(0, 100), piece(100, 156)]);
    let mut bad = good.clone();
    let at = (0..bad.len() - 4).find(|&i| bad[i..i + 4] == piece(0, 100).2.to_le_bytes()).unwrap();
    bad[at] ^= 1;
    let head_end = bad.len() - data.len();
    let frame_crc = crc32(&bad[HEADER_LEN..head_end]);
    bad[14..18].copy_from_slice(&frame_crc.to_le_bytes());
    assert_eq!(decode_frame(&bad).map(|_| ()), Err(FrameError::ChecksumMismatch));
}

/// Every single-bit flip of the payload — the fields around the blob, its
/// `len` and `crc`, its bytes — is refused as damage.
#[test]
fn every_bit_flip_around_and_inside_a_checked_blob_is_refused() {
    for (what, wire) in frames_with_a_checked_blob() {
        assert!(decode_frame(&wire).is_ok(), "{what} as sent");
        for bit in HEADER_LEN * 8..wire.len() * 8 {
            let mut bad = wire.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let got = decode_frame(&bad).map(|_| ());
            assert_eq!(got, Err(FrameError::ChecksumMismatch), "{what}: payload bit {bit}");
        }
    }
}

/// A provider whose stored bytes changed after their CRC was kept sends
/// the old CRC with the new bytes: the reader refuses the reply.
#[test]
fn a_reply_whose_bytes_changed_since_their_crc_was_kept_is_refused() {
    let kept = crc32(&[7u8; 64]);
    let reply = ReadReply::Data {
        len: 64,
        data: Some(vec![7u8 ^ 0x10; 64].into()),
        version: Version(1),
        crc: Some(kept),
    };
    let wire = encode_msg(NodeId::from_index(1), &Msg::ReadSegR { req: 1, reply });
    assert_eq!(decode_frame(&wire).map(|_| ()), Err(FrameError::ChecksumMismatch));
}

/// Split `bytes` into nonempty chunks at boundaries chosen by `rng`.
fn random_chunks(rng: &mut TestRng, bytes: &[u8]) -> Vec<Vec<u8>> {
    let mut chunks = Vec::new();
    let mut at = 0;
    while at < bytes.len() {
        let take = rng.gen_range(1..=(bytes.len() - at).min(96));
        chunks.push(bytes[at..at + take].to_vec());
        at += take;
    }
    chunks
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The incremental decoder, fed the whole corpus — every `Msg`
    /// variant plus a `Hello` — as one byte stream cut at arbitrary
    /// boundaries, must produce exactly the frames a one-shot decode of
    /// each encoding produces, byte-identically (checked by re-encode),
    /// in order. This is the property the event loop relies on: the
    /// kernel hands it arbitrary prefixes, never whole frames.
    #[test]
    fn stream_decoder_matches_one_shot_at_any_split(seed in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(seed);
        let mut stream = Vec::new();
        let mut expected: Vec<(NodeId, Vec<u8>)> = Vec::new();
        for &tag in MSG_TAGS {
            let msg = arb_msg(tag, &mut rng);
            let sender = arb_node(&mut rng);
            let bytes = encode_msg(sender, &msg);
            stream.extend_from_slice(&bytes);
            expected.push((sender, bytes));
        }
        let hello_sender = arb_node(&mut rng);
        let hello = encode_hello(hello_sender, &arb_string(&mut rng));
        stream.extend_from_slice(&hello);
        expected.push((hello_sender, hello));

        let mut dec = StreamDecoder::new();
        let mut got: Vec<(NodeId, Frame)> = Vec::new();
        for chunk in random_chunks(&mut rng, &stream) {
            dec.feed(&chunk, &mut got).unwrap_or_else(|e| panic!("clean stream errored: {e}"));
        }
        prop_assert!(dec.is_at_boundary(), "leftover bytes after the last frame");
        prop_assert_eq!(got.len(), expected.len(), "frame count mismatch");
        for (i, ((sender, frame), (want_sender, want_bytes))) in
            got.into_iter().zip(expected).enumerate()
        {
            prop_assert_eq!(sender, want_sender, "frame {} sender", i);
            let reencoded = match frame {
                Frame::Msg(msg) => encode_msg(sender, &msg),
                Frame::Hello { listen_addr } => encode_hello(sender, &listen_addr),
            };
            prop_assert_eq!(reencoded, want_bytes, "frame {} differs from one-shot decode", i);
        }
    }

    /// A truncated tail is not an error — it is an incomplete frame the
    /// decoder keeps waiting for. No frame is emitted and the decoder
    /// reports mid-frame state for every cut except the empty one.
    #[test]
    fn stream_decoder_truncation_is_incomplete_not_an_error(seed in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(seed);
        let tag = arb_tag(&mut rng);
        let bytes = encode_msg(arb_node(&mut rng), &arb_msg(tag, &mut rng));
        let cut = rng.gen_range(0..bytes.len());
        let mut dec = StreamDecoder::new();
        let mut got = Vec::new();
        for chunk in random_chunks(&mut rng, &bytes[..cut]) {
            dec.feed(&chunk, &mut got)
                .unwrap_or_else(|e| panic!("tag {tag} cut {cut}: truncation errored: {e}"));
        }
        prop_assert!(got.is_empty(), "tag {} cut {} emitted a frame", tag, cut);
        prop_assert_eq!(dec.is_at_boundary(), cut == 0);
        // Completing the stream later yields the frame after all.
        dec.feed(&bytes[cut..], &mut got).unwrap();
        prop_assert_eq!(got.len(), 1);
        prop_assert!(dec.is_at_boundary());
    }

    /// Corruption anywhere surfaces as the same typed error the one-shot
    /// decoder reports, regardless of how the bytes were chunked, and
    /// poisons the decoder: a byte stream has no resync point, so every
    /// subsequent feed must keep failing instead of emitting garbage.
    #[test]
    fn stream_decoder_corruption_is_a_typed_error(seed in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(seed);
        let tag = arb_tag(&mut rng);
        let mut bytes = encode_msg(arb_node(&mut rng), &arb_msg(tag, &mut rng));
        let at = rng.gen_range(HEADER_LEN..bytes.len());
        bytes[at] ^= 1u8 << rng.gen_range(0..8u8);
        let mut dec = StreamDecoder::new();
        let mut got = Vec::new();
        let mut failed = None;
        for chunk in random_chunks(&mut rng, &bytes) {
            if let Err(e) = dec.feed(&chunk, &mut got) {
                failed = Some(e);
                break;
            }
        }
        prop_assert!(
            matches!(failed, Some(FrameError::ChecksumMismatch)),
            "tag {} flip at {} reported {:?}", tag, at, failed
        );
        prop_assert!(got.is_empty());
        prop_assert!(dec.feed(&[0u8], &mut got).is_err(), "poisoned decoder accepted bytes");
    }

    /// Arbitrary garbage through the streaming decoder returns typed
    /// errors or waits for more bytes — it never panics and never
    /// fabricates a frame from a stream whose one-shot decode fails.
    #[test]
    fn stream_decoder_never_panics_on_garbage(junk in prop::collection::vec(any::<u8>(), 0..96)) {
        let mut dec = StreamDecoder::new();
        let mut got = Vec::new();
        for chunk in junk.chunks(7) {
            if dec.feed(chunk, &mut got).is_err() {
                break;
            }
        }
        if !junk.is_empty() && decode_frame(&junk).is_err() {
            prop_assert!(got.is_empty(), "garbage yielded a frame");
        }
    }
}

// ------------------------------------------------------ pinned v5 bytes

/// Frames and `seg/` values as the version-5 encoder wrote them. The
/// properties above only say the codec agrees with itself; this says it
/// agrees with every peer and every `data_dir` written in this format.
const FIXTURE: &str = include_str!("data/wire_v5.txt");
/// Seeds per tag (and images) in the fixture.
const FIXTURE_SEEDS: u64 = 3;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex")).collect()
}

/// Every committed line decodes and re-encodes to exactly itself, and
/// the lines cover exactly the codec's tag list. Uses no generator and
/// no rng: what it checks is the file.
#[test]
fn committed_v5_bytes_decode_and_reencode_unchanged() {
    let mut seen = BTreeSet::new();
    for line in FIXTURE.lines().filter(|l| !l.starts_with('#')) {
        let (what, bytes) = line.split_once(' ').expect("`<tag|image> <hex>`");
        let bytes = unhex(bytes);
        let again = if what == "image" {
            let xfer = decode_transfer_bytes(&bytes).unwrap_or_else(|e| panic!("image: {e}"));
            encode_transfer_bytes(&xfer)
        } else {
            let tag: u8 = what.parse().expect("tag");
            assert_eq!(bytes[HEADER_LEN], tag, "line labelled {tag} carries another tag");
            seen.insert(tag);
            match decode_frame(&bytes).unwrap_or_else(|e| panic!("tag {tag}: {e}")) {
                (sender, Frame::Msg(msg)) => encode_msg(sender, &msg),
                (_, other) => panic!("tag {tag} decoded as {other:?}"),
            }
        };
        if let Some(at) = (0..again.len().max(bytes.len())).find(|&i| again.get(i) != bytes.get(i)) {
            panic!("{what}: byte {at} is {:?} in the file, {:?} re-encoded", bytes.get(at), again.get(at));
        }
    }
    let tags: BTreeSet<u8> = MSG_TAGS.iter().copied().collect();
    assert_eq!(seen, tags, "fixture tags (left) are not the codec's tag list (right)");
}

/// Rewrites the fixture from this tree's encoder: run it only when the
/// bytes are meant to change (`cargo test -p sorrento-tests --test
/// frame_codec -- --ignored`), and then follow the file's header.
#[test]
#[ignore = "regenerates tests/tests/data/wire_v5.txt"]
fn regenerate_the_v5_fixture() {
    let mut out: String =
        FIXTURE.lines().filter(|l| l.starts_with('#')).map(|l| format!("{l}\n")).collect();
    for &tag in MSG_TAGS {
        for seed in 0..FIXTURE_SEEDS {
            let mut rng = TestRng::seed_from_u64(seed << 8 | u64::from(tag));
            let msg = arb_msg(tag, &mut rng);
            out += &format!("{tag} {}\n", hex(&encode_msg(arb_node(&mut rng), &msg)));
        }
    }
    for seed in 0..FIXTURE_SEEDS {
        let xfer = arb_transfer(&mut TestRng::seed_from_u64(seed));
        out += &format!("image {}\n", hex(&encode_transfer_bytes(&xfer)));
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/wire_v5.txt");
    std::fs::write(path, out).expect("write the fixture");
}
