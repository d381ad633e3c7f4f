//! The parity an erasure-coded commit leaves on the providers, pinned
//! against a flat oracle: lay every write of the file into one image
//! (last writer wins, holes zero), split the image into the k striped
//! data shards, and `ReedSolomon::encode` them. Random write sets per
//! (k, m) run end to end in the seeded simulator, and the k + m shards
//! the providers hold, zero-padded to `ec_shard_len`, must also pass
//! `ReedSolomon::verify`.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sorrento::client::{ClientOp, SorrentoClient};
use sorrento::cluster::{Cluster, ClusterBuilder, ScriptedWorkload};
use sorrento::costs::CostModel;
use sorrento::layout::{IndexSegment, SegEntry, STRIPE_UNIT};
use sorrento::proto::decode_index;
use sorrento::types::{FileOptions, Version};
use sorrento_ec::ReedSolomon;
use sorrento_sim::Dur;

const KIB: u64 = 1024;
/// Random cases per (k, m).
const CASES: u64 = 8;

/// One session's writes, `(offset, bytes)` in issue order.
type Writes = Vec<(u64, Vec<u8>)>;

fn patterned(len: u64, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(29).wrapping_add(seed) | 1)
        .collect()
}

/// A fresh file's session: 1–4 writes that overlap, leave holes, end
/// off a stripe boundary and reach past the previous end. Half the
/// cases add a second session that rewrites every byte the first left
/// and then writes again, some of it past the old end.
fn random_sessions(rng: &mut SmallRng) -> Vec<Writes> {
    let mut seed = 0u8;
    let mut write = |offset: u64, len: u64| {
        seed = seed.wrapping_add(37);
        (offset, patterned(len, seed))
    };
    let first: Writes = (0..rng.gen_range(1..5u32))
        .map(|_| write(rng.gen_range(0..600 * KIB), rng.gen_range(1..300 * KIB)))
        .collect();
    let mut sessions = vec![first];
    if rng.gen_bool(0.5) {
        let size = end_of(&sessions);
        let mut second = vec![write(0, size + rng.gen_range(0..100 * KIB))];
        for _ in 0..rng.gen_range(0..4u32) {
            second.push(write(
                rng.gen_range(0..size + 200 * KIB),
                rng.gen_range(1..200 * KIB),
            ));
        }
        sessions.push(second);
    }
    sessions
}

/// The file size after `sessions`.
fn end_of(sessions: &[Writes]) -> u64 {
    sessions
        .iter()
        .flatten()
        .map(|(o, d)| o + d.len() as u64)
        .max()
        .unwrap_or(0)
}

/// The oracle: the whole-file image striped into k shards of
/// `shard_len` bytes, then encoded.
fn oracle(sessions: &[Writes], k: usize, m: usize, shard_len: usize) -> Vec<Vec<u8>> {
    let mut image = vec![0u8; end_of(sessions) as usize];
    for (offset, data) in sessions.iter().flatten() {
        image[*offset as usize..*offset as usize + data.len()].copy_from_slice(data);
    }
    let unit = STRIPE_UNIT as usize;
    let mut shards = vec![vec![0u8; shard_len]; k];
    for (block, bytes) in image.chunks(unit).enumerate() {
        let at = block / k * unit;
        shards[block % k][at..at + bytes.len()].copy_from_slice(bytes);
    }
    let parity = ReedSolomon::new(k, m).unwrap().encode(&shards).unwrap();
    shards.into_iter().chain(parity).collect()
}

/// Run `sessions` against a fresh EC(k, m) file.
fn run(sessions: &[Writes], k: u8, m: u8, seed: u64, write_chunk: Option<u64>) -> Cluster {
    let mut c = ClusterBuilder::new()
        .providers(k as usize + m as usize + 2)
        .replication(2)
        .seed(seed)
        .costs(CostModel::fast_test())
        .build();
    let options = FileOptions {
        replication: 2,
        ..FileOptions::erasure_coded(k, m, 8 << 20)
    };
    let mut ops = Vec::new();
    for (i, writes) in sessions.iter().enumerate() {
        ops.push(if i == 0 {
            ClientOp::CreateWith {
                path: "/ec".into(),
                options,
            }
        } else {
            ClientOp::Open {
                path: "/ec".into(),
                write: true,
            }
        });
        ops.extend(
            writes
                .iter()
                .map(|(offset, data)| ClientOp::write_bytes(*offset, data.clone())),
        );
        ops.push(ClientOp::Close);
    }
    let id = c.add_client(ScriptedWorkload::new(ops));
    c.sim
        .node_mut::<SorrentoClient>(id)
        .expect("client node")
        .write_chunk = write_chunk;
    while c.client_stats(id).unwrap().finished_at.is_none() {
        assert!(c.now().as_secs_f64() < 600.0, "script did not finish");
        c.run_for(Dur::secs(1));
    }
    let st = c.client_stats(id).unwrap();
    assert_eq!(
        st.failed_ops, 0,
        "seed {seed}: an op failed: {:?}",
        st.last_error
    );
    c
}

/// The file's latest committed index (a lazily synced replica may
/// still hold an older one).
fn committed_index(c: &Cluster) -> IndexSegment {
    let (prov, seg, _) = c
        .providers()
        .iter()
        .filter_map(|&p| c.provider_ref(p))
        .flat_map(|prov| {
            let ec_index = |&(seg, _): &_| prov.store.meta(seg).is_some_and(|m| m.ec.is_some());
            prov.store
                .list_segments()
                .into_iter()
                .filter(ec_index)
                .map(move |(s, v)| (prov, s, v))
        })
        .max_by_key(|&(_, _, version)| version)
        .expect("a provider holds the index");
    let bytes = prov
        .store
        .read(seg, None, 0, u64::MAX)
        .unwrap()
        .data
        .unwrap();
    decode_index(&bytes).expect("index decodes")
}

/// The bytes of one shard at its indexed version, zero-padded (a data
/// shard no write reached was never created: all zeros).
fn shard_bytes(c: &Cluster, entry: &SegEntry, shard_len: usize) -> Vec<u8> {
    if entry.version == Version::INITIAL {
        return vec![0; shard_len];
    }
    let mut out = c
        .providers()
        .iter()
        .filter_map(|&p| c.provider_ref(p))
        .find_map(|prov| {
            let read = prov
                .store
                .read(entry.seg, Some(entry.version), 0, u64::MAX)
                .ok()?;
            Some(read.data?.to_vec())
        })
        .unwrap_or_else(|| panic!("no provider holds {:?} at {:?}", entry.seg, entry.version));
    assert!(
        out.len() <= shard_len,
        "a shard longer than the padded width"
    );
    out.resize(shard_len, 0);
    out
}

/// Every shard of the committed file: data then parity.
fn held_shards(c: &Cluster) -> (IndexSegment, Vec<Vec<u8>>) {
    let ix = committed_index(c);
    let shard_len = ix.ec_shard_len() as usize;
    let shards = ix
        .segments
        .iter()
        .chain(&ix.parity)
        .map(|e| shard_bytes(c, e, shard_len))
        .collect();
    (ix, shards)
}

#[test]
fn committed_parity_matches_a_flat_encode_of_the_written_image() {
    for (k, m) in [(2u8, 1u8), (3, 2), (4, 2)] {
        let mut rng = SmallRng::seed_from_u64(100 * k as u64 + m as u64);
        for case in 0..CASES {
            let sessions = random_sessions(&mut rng);
            let seed = 40 + case;
            let what = format!("EC({k},{m}) case {case}: {} session(s)", sessions.len());
            let c = run(&sessions, k, m, seed, None);
            let (ix, held) = held_shards(&c);
            assert_eq!(ix.size, end_of(&sessions), "{what}: file size");
            assert_eq!(held.len(), (k + m) as usize, "{what}: shard count");
            let rs = ReedSolomon::new(k as usize, m as usize).unwrap();
            assert!(
                rs.verify(&held).unwrap(),
                "{what}: the held shards do not verify"
            );
            let want = oracle(
                &sessions,
                k as usize,
                m as usize,
                ix.ec_shard_len() as usize,
            );
            for (i, (got, want)) in held.iter().zip(&want).enumerate() {
                assert!(
                    got == want,
                    "{what}: shard {i} differs from the flat oracle"
                );
            }
        }
    }
}

/// The same sessions over the pipelined path (`write_chunk` 64 KiB,
/// window 4): what the providers hold is still one consistent code.
#[test]
fn pipelined_sessions_leave_shards_that_verify() {
    for (k, m) in [(2u8, 1u8), (3, 2), (4, 2)] {
        let mut rng = SmallRng::seed_from_u64(100 * k as u64 + m as u64);
        for case in 0..CASES {
            let sessions = random_sessions(&mut rng);
            let c = run(&sessions, k, m, 40 + case, Some(64 * KIB));
            let (ix, held) = held_shards(&c);
            let rs = ReedSolomon::new(k as usize, m as usize).unwrap();
            assert!(
                rs.verify(&held).unwrap(),
                "EC({k},{m}) case {case}: shards do not verify"
            );
            let want = oracle(
                &sessions,
                k as usize,
                m as usize,
                ix.ec_shard_len() as usize,
            );
            assert!(
                held == want,
                "EC({k},{m}) case {case}: shards differ from the flat oracle"
            );
        }
    }
}

/// Parity ships through the pipeline data extents use: with
/// `write_chunk` 256 KiB (window 4) a 4 MiB EC(4,2) file's two 1 MiB
/// parity shards go out as `write_chunk` pieces, and unchunked as one
/// `WriteShadow` each. Either way a read that has lost two data shards
/// decodes the bytes written.
#[test]
fn parity_ships_in_write_chunk_pieces_and_decodes_after_loss() {
    let data = patterned(4 << 20, 9);
    let sessions = vec![vec![(0, data.clone())]];
    for chunk in [None, Some(256 * KIB)] {
        let mut c = run(&sessions, 4, 2, 21, chunk);
        let (ix, held) = held_shards(&c);
        assert!(
            ReedSolomon::new(4, 2).unwrap().verify(&held).unwrap(),
            "{chunk:?}: no code"
        );
        let per_shard = chunk.map_or(1, |chunk| ix.ec_shard_len().div_ceil(chunk));
        assert_eq!(
            c.metrics().counter("client.ec_parity_writes"),
            2 * per_shard,
            "{chunk:?}: parity WriteShadows for {} B shards",
            ix.ec_shard_len()
        );
        // Crash two providers holding a data shard and no index copy.
        let owners = c.segment_ownership();
        let index_holders: Vec<_> = owners[&ix.file.index_segment()]
            .iter()
            .map(|&(p, _)| p)
            .collect();
        let mut victims: Vec<_> = ix
            .segments
            .iter()
            .flat_map(|e| owners[&e.seg].iter().map(|&(p, _)| p))
            .filter(|p| !index_holders.contains(p))
            .collect();
        victims.sort();
        victims.dedup();
        assert!(victims.len() >= 2, "{chunk:?}: data shards under-spread");
        for &v in &victims[..2] {
            c.crash_provider_at(c.now(), v);
        }
        let reader = c.add_client(ScriptedWorkload::new(vec![
            ClientOp::Open {
                path: "/ec".into(),
                write: false,
            },
            ClientOp::Read {
                offset: 0,
                len: data.len() as u64,
            },
            ClientOp::Close,
        ]));
        c.run_for(Dur::secs(60));
        let st = c.client_stats(reader).unwrap();
        assert_eq!(
            st.failed_ops, 0,
            "{chunk:?}: degraded read failed: {:?}",
            st.last_error
        );
        assert!(
            st.last_read.as_deref() == Some(&data[..]),
            "{chunk:?}: degraded read differs"
        );
        assert!(
            c.metrics().counter("client.ec_degraded_reads") > 0,
            "{chunk:?}: no reconstruction"
        );
    }
}
