//! Write-ahead-log record encoding.
//!
//! One WAL record carries one atomic batch. Layout:
//!
//! ```text
//! [body_len: u32 LE] [crc32(body): u32 LE] [body]
//! body := op*          (concatenated)
//! op   := 0x01 [klen u32][key][vlen u32][val]    -- put
//!       | 0x02 [klen u32][key]                   -- delete
//! ```
//!
//! A record whose length field runs past the end of the file, or whose CRC
//! does not match, is a torn tail: recovery stops there and discards it
//! (the batch never committed).

use crate::crc::crc32;
use crate::db::Op;

const OP_PUT: u8 = 0x01;
const OP_DELETE: u8 = 0x02;

/// Serialize a batch body (without the length/crc header).
fn encode_body(ops: &[Op], out: &mut Vec<u8>) {
    for op in ops {
        match op {
            Op::Put(k, v) => {
                out.push(OP_PUT);
                out.extend_from_slice(&(k.len() as u32).to_le_bytes());
                out.extend_from_slice(k);
                out.extend_from_slice(&(v.len() as u32).to_le_bytes());
                out.extend_from_slice(v);
            }
            Op::Delete(k) => {
                out.push(OP_DELETE);
                out.extend_from_slice(&(k.len() as u32).to_le_bytes());
                out.extend_from_slice(k);
            }
        }
    }
}

/// Serialize one full record (header + body) for appending to the WAL.
pub(crate) fn encode_record(ops: &[Op]) -> Vec<u8> {
    let mut body = Vec::new();
    encode_body(ops, &mut body);
    let mut rec = Vec::with_capacity(8 + body.len());
    rec.extend_from_slice(&(body.len() as u32).to_le_bytes());
    rec.extend_from_slice(&crc32(&body).to_le_bytes());
    rec.extend_from_slice(&body);
    rec
}

fn read_u32(buf: &[u8], pos: &mut usize) -> Option<u32> {
    let bytes = buf.get(*pos..*pos + 4)?;
    *pos += 4;
    Some(u32::from_le_bytes(bytes.try_into().unwrap()))
}

fn read_slice<'a>(buf: &'a [u8], pos: &mut usize, len: usize) -> Option<&'a [u8]> {
    let s = buf.get(*pos..*pos + len)?;
    *pos += len;
    Some(s)
}

/// Decode a record body into ops. `None` on any malformed structure.
fn decode_body(body: &[u8]) -> Option<Vec<Op>> {
    let mut ops = Vec::new();
    let mut pos = 0;
    while pos < body.len() {
        let tag = body[pos];
        pos += 1;
        let klen = read_u32(body, &mut pos)? as usize;
        let key = read_slice(body, &mut pos, klen)?.to_vec();
        match tag {
            OP_PUT => {
                let vlen = read_u32(body, &mut pos)? as usize;
                let val = read_slice(body, &mut pos, vlen)?.to_vec();
                ops.push(Op::Put(key, val));
            }
            OP_DELETE => ops.push(Op::Delete(key)),
            _ => return None,
        }
    }
    Some(ops)
}

/// Iterate over all intact records in a WAL image, stopping silently at
/// the first torn or corrupt record (everything after it never committed).
pub(crate) fn replay(wal: &[u8]) -> Vec<Vec<Op>> {
    let mut batches = Vec::new();
    let mut pos = 0;
    loop {
        let mut p = pos;
        let Some(len) = read_u32(wal, &mut p) else {
            break;
        };
        let Some(crc) = read_u32(wal, &mut p) else {
            break;
        };
        let Some(body) = read_slice(wal, &mut p, len as usize) else {
            break; // torn tail
        };
        if crc32(body) != crc {
            break; // corrupt tail
        }
        let Some(ops) = decode_body(body) else {
            break;
        };
        batches.push(ops);
        pos = p;
    }
    batches
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch1() -> Vec<Op> {
        vec![
            Op::Put(b"alpha".to_vec(), b"1".to_vec()),
            Op::Delete(b"beta".to_vec()),
        ]
    }

    #[test]
    fn round_trip_one_record() {
        let rec = encode_record(&batch1());
        let out = replay(&rec);
        assert_eq!(out, vec![batch1()]);
    }

    #[test]
    fn a_record_written_by_an_earlier_build_still_replays() {
        // `encode_record(&batch1())` as the byte-at-a-time CRC kernel
        // wrote it: a WAL on disk outlives the code that appended it.
        const ON_DISK: &[u8] = b"\x18\x00\x00\x00\xbd\xf8\xe3\x35\
            \x01\x05\x00\x00\x00alpha\x01\x00\x00\x001\
            \x02\x04\x00\x00\x00beta";
        assert_eq!(replay(ON_DISK), vec![batch1()]);
        assert_eq!(encode_record(&batch1()), ON_DISK);
    }

    #[test]
    fn round_trip_many_records() {
        let mut wal = Vec::new();
        for i in 0..10u8 {
            wal.extend(encode_record(&[Op::Put(vec![i], vec![i, i])]));
        }
        let out = replay(&wal);
        assert_eq!(out.len(), 10);
        assert_eq!(out[7], vec![Op::Put(vec![7], vec![7, 7])]);
    }

    #[test]
    fn torn_tail_is_dropped_everywhere() {
        let mut wal = encode_record(&batch1());
        wal.extend(encode_record(&[Op::Put(b"gamma".to_vec(), b"2".to_vec())]));
        let full = replay(&wal).len();
        assert_eq!(full, 2);
        // Chop at every position inside the second record: first record
        // must always survive, second must always be dropped.
        let first_len = encode_record(&batch1()).len();
        for cut in first_len..wal.len() {
            let out = replay(&wal[..cut]);
            assert_eq!(out.len(), 1, "cut at {cut}");
            assert_eq!(out[0], batch1());
        }
    }

    #[test]
    fn corrupt_crc_stops_replay() {
        let mut wal = encode_record(&batch1());
        let n = wal.len();
        wal[n - 1] ^= 0xFF; // flip last body byte
        assert!(replay(&wal).is_empty());
    }

    #[test]
    fn empty_and_garbage_input() {
        assert!(replay(&[]).is_empty());
        assert!(replay(&[1, 2, 3]).is_empty());
    }

    #[test]
    fn empty_batch_round_trips() {
        let rec = encode_record(&[]);
        assert_eq!(replay(&rec), vec![Vec::<Op>::new()]);
    }
}
