//! CRC-32 (IEEE 802.3: polynomial `0xEDB88320` reflected, initial value
//! and final xor `!0` — zlib's), slicing-by-16 in three interleaved
//! lanes.
//!
//! Guards every WAL record, so recovery can detect a torn or corrupted
//! tail, and every frame `sorrento-net` puts on a socket: a bulk byte is
//! checksummed once where it is encoded and once where it is decoded, so
//! this kernel's rate bounds the data path's.
//!
//! The one-byte step `c = T[0][(c ^ b) & 0xFF] ^ (c >> 8)` is a chain:
//! each lookup waits for the one before it. Sixteen tables, `T[k][b]`
//! being the CRC of byte `b` followed by `k` zero bytes, turn sixteen
//! input bytes into sixteen *independent* lookups xored together, which a
//! superscalar core overlaps. Sixteen and not thirty-two because 16 KiB
//! of tables leave half of a 32 KiB L1 data cache to the bytes being
//! checksummed, and thirty-two would fill it. The tables are computed at
//! compile time, so there is no initialisation to guard.
//!
//! Sixteen bytes still wait on the sixteen before them. So a whole
//! [`STRIDE`] is checksummed as three [`LANE`]-byte chains advanced in
//! one loop, the second and third from a zero state, whose lookups the
//! core overlaps too. The CRC is linear: the lanes join as
//! `c₀·x^(8·2·LANE) + c₁·x^(8·LANE) + c₂`, two [`multmodp`] calls by
//! compile-time powers ([`crc32_combine`]'s shift). Inputs shorter than
//! a stride, and a stride's tail, take the sixteen-byte step, and what
//! is left of that the one-byte step.
//!
//! The values are part of the on-disk and on-wire formats. The tests pin
//! them against zlib's at every block and stride boundary and check the
//! kernel against the one-byte definition at every alignment, length and
//! split.

const POLY: u32 = 0xEDB8_8320;

static T: [[u32; 256]; 16] = tables();

const fn tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut b = 0;
    while b < 256 {
        let mut c = b as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][b] = c;
        b += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            b += 1;
        }
        k += 1;
    }
    t
}

/// Bytes per lane of a stride.
const LANE: usize = 4_096;

/// Bytes [`Crc32::update`] checksums as three interleaved lanes.
const STRIDE: usize = 3 * LANE;

/// The state `c` advanced over one 16-byte block.
#[inline(always)]
fn step16(c: u32, block: &[u8]) -> u32 {
    let word = |i: usize| u32::from_le_bytes([block[i], block[i + 1], block[i + 2], block[i + 3]]);
    // Byte j of the block, the state folded into the first four, is
    // followed by 15 - j more bytes of this block.
    let lookup = |k: usize, w: u32| {
        T[k][w as u8 as usize]
            ^ T[k - 1][(w >> 8) as u8 as usize]
            ^ T[k - 2][(w >> 16) as u8 as usize]
            ^ T[k - 3][(w >> 24) as usize]
    };
    lookup(15, word(0) ^ c) ^ lookup(11, word(4)) ^ lookup(7, word(8)) ^ lookup(3, word(12))
}

/// CRC-32 checksum of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finalize()
}

/// Streaming CRC-32: feed bytes incrementally, then [`finalize`].
/// Lets an encoder fold checksumming into its single append pass
/// instead of re-scanning the finished buffer.
///
/// [`finalize`]: Crc32::finalize
#[derive(Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Fresh checksum state.
    pub fn new() -> Crc32 {
        Crc32 { state: !0u32 }
    }

    /// Absorb more bytes.
    pub fn update(&mut self, data: &[u8]) {
        let mut c = self.state;
        let mut strides = data.chunks_exact(STRIDE);
        for stride in &mut strides {
            let lane = |i: usize| stride[i * LANE..(i + 1) * LANE].chunks_exact(16);
            let (mut ca, mut cb, mut cz) = (c, 0, 0);
            for ((a, b), z) in lane(0).zip(lane(1)).zip(lane(2)) {
                ca = step16(ca, a);
                cb = step16(cb, b);
                cz = step16(cz, z);
            }
            // Shifted past the lanes after them: two, one and none.
            let (x_2lane, x_lane) = const { (x8nmodp(2 * LANE as u64), x8nmodp(LANE as u64)) };
            c = multmodp(x_2lane, ca) ^ multmodp(x_lane, cb) ^ cz;
        }
        let mut blocks = strides.remainder().chunks_exact(16);
        for block in &mut blocks {
            c = step16(c, block);
        }
        for &b in blocks.remainder() {
            c = T[0][(c as u8 ^ b) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// The checksum of everything absorbed so far. The state is not
    /// consumed: more `update` calls may follow.
    pub fn finalize(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Crc32 {
        Crc32::new()
    }
}

/// `a·b mod P` over GF(2), in the CRC's reflected bit order (bit 31 is
/// `x^0`): zlib's `multmodp`.
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut p = 0;
    let mut bit = 32;
    while bit > 0 {
        bit -= 1;
        p ^= b & (a >> bit & 1).wrapping_neg();
        b = (b >> 1) ^ (POLY & (b & 1).wrapping_neg());
    }
    p
}

/// `x^(8·n) mod P`, the shift past `n` bytes, by square-and-multiply.
const fn x8nmodp(mut n: u64) -> u32 {
    let (mut shift, mut square) = (1u32 << 31, 1u32 << 23); // x^0, x^8
    while n != 0 {
        if n & 1 != 0 {
            shift = multmodp(square, shift);
        }
        square = multmodp(square, square);
        n >>= 1;
    }
    shift
}

/// CRC-32 of `a ‖ b` from `crc32(a)`, `crc32(b)` and `b.len()`, without
/// the bytes (zlib's `crc32_combine`): `crc_a·x^(8·len_b) + crc_b`.
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    if crc_a == 0 {
        return crc_b; // nothing to shift: a run's first piece costs nothing
    }
    multmodp(x8nmodp(len_b), crc_a) ^ crc_b
}

/// CRC-32 of `data` given the CRCs of some of its pieces, `(start, len,
/// crc)` ascending: only the bytes no piece covers are read. `None` when
/// the pieces are out of order, overlap, or run past `data`.
pub fn crc32_pieces(data: &[u8], pieces: &[(u64, u64, u32)]) -> Option<u32> {
    let (mut c, mut pos) = (Crc32::new(), 0);
    for &(start, len, crc) in pieces {
        let end = start.checked_add(len).filter(|&e| start >= pos && e <= data.len() as u64)?;
        c.update(&data[pos as usize..start as usize]);
        c.state = !crc32_combine(c.finalize(), crc, len);
        pos = end;
    }
    c.update(&data[pos as usize..]);
    Some(c.finalize())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    /// The definition the kernel must equal: one table, one byte a step.
    fn bytewise(data: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in data {
            c = T[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    fn seeded(len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        SmallRng::seed_from_u64(0x5EED).fill(&mut buf);
        buf
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// `b[i] = (i·31 + 7) as u8`: every byte value, no period under 256.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 + 7) as u8).collect()
    }

    #[test]
    fn pinned_values_across_block_boundaries() {
        // zlib's values, confirmed against the byte-at-a-time kernel
        // this one replaced. A WAL or a frame written by any earlier
        // build must keep verifying, so these never change.
        const PINNED: [(usize, u32); 17] = [
            (0, 0x0000_0000),
            (1, 0x4c66_7a2e),
            (15, 0x8f77_fabb),
            (16, 0x0636_a895),
            (17, 0x71b8_d951),
            (31, 0x45d6_9b08),
            (32, 0x4923_fba6),
            (33, 0xd390_bd70),
            (255, 0x50a2_2b05),
            (4_096, 0x5d1c_4ee3),
            (65_537, 0x97a6_5d31),
            (262_181, 0x6667_433f),
            // Around one, two and three strides of three lanes.
            (12_287, 0x5b81_0e52),
            (12_288, 0xf9ed_3411),
            (12_289, 0x262f_b7e8),
            (24_591, 0xc92a_0bec),
            (36_863, 0x533e_5c97),
        ];
        assert_eq!(STRIDE, 12_288, "the stride pins above are at 12,288");
        for (len, want) in PINNED {
            assert_eq!(crc32(&pattern(len)), want, "len {len}");
        }
    }

    #[test]
    fn equals_the_bytewise_definition_at_every_alignment_and_length() {
        let buf = seeded(300 << 10);
        for start in 0..16 {
            let around = |n: usize| n - 33..=n + 33;
            let lens = (0..=1_100).chain(around(STRIDE)).chain(around(2 * STRIDE));
            for len in lens.chain([4_096, 65_537, 262_181]) {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), bytewise(data), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = seeded(600);
        for split in 0..=data.len() {
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finalize(), bytewise(&data), "split {split}");
        }
    }

    #[test]
    fn streaming_splits_inside_a_stride_match_one_shot() {
        let data = seeded(3 * STRIDE + 100);
        let want = bytewise(&data);
        // One cut anywhere in the first two strides, a lane's edges
        // included, then a second cut inside the next stride.
        let edges = [1, 16, LANE - 1, LANE, LANE + 1, 2 * LANE + 5, STRIDE - 1];
        let cuts = (0..2 * STRIDE).step_by(97).chain(edges);
        let cuts = cuts.chain(edges.map(|e| STRIDE + e));
        for cut in cuts {
            let second = cut + STRIDE / 2 + 3;
            let mut c = Crc32::new();
            c.update(&data[..cut]);
            c.update(&data[cut..second]);
            c.update(&data[second..]);
            assert_eq!(c.finalize(), want, "cuts {cut}, {second}");
        }
    }

    proptest! {
        #[test]
        fn any_split_of_any_length_matches_one_shot(
            seed in any::<u64>(),
            len in 0usize..=70_000,
            cuts in prop::collection::vec(any::<prop::sample::Index>(), 2..=5),
        ) {
            let mut data = vec![0u8; len];
            SmallRng::seed_from_u64(seed).fill(&mut data);
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c.index(len + 1)).collect();
            cuts.sort_unstable();
            let mut c = Crc32::new();
            let mut from = 0;
            for to in cuts.into_iter().chain([len]) {
                c.update(&data[from..to]);
                from = to;
            }
            prop_assert_eq!(c.finalize(), bytewise(&data));
        }
    }

    proptest! {
        #[test]
        fn combined_and_pieced_crcs_equal_the_crc_of_the_bytes(
            seed in any::<u64>(),
            len in 0usize..=70_000,
            cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..=8),
            known in any::<u8>(),
        ) {
            let mut data = vec![0u8; len];
            SmallRng::seed_from_u64(seed).fill(&mut data);
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c.index(len + 1)).collect();
            cuts.sort_unstable();
            let bounds: Vec<usize> = [0].into_iter().chain(cuts).chain([len]).collect();
            // Consecutive parts, empty ones included: their CRCs combine
            // to the whole's.
            let mut crc = 0;
            for w in bounds.windows(2) {
                let part = &data[w[0]..w[1]];
                crc = crc32_combine(crc, crc32(part), part.len() as u64);
            }
            prop_assert_eq!(crc, bytewise(&data));
            // Some parts known by their CRC, the rest gaps to be read.
            let pieces: Vec<(u64, u64, u32)> = bounds
                .windows(2)
                .enumerate()
                .filter(|(i, _)| known >> (i % 8) & 1 == 1)
                .map(|(_, w)| (w[0] as u64, (w[1] - w[0]) as u64, crc32(&data[w[0]..w[1]])))
                .collect();
            prop_assert_eq!(crc32_pieces(&data, &pieces), Some(bytewise(&data)));
        }
    }

    #[test]
    fn pieces_out_of_order_overlapping_or_past_the_end_are_refused() {
        let data = seeded(100);
        let c = |s: usize, l: usize| (s as u64, l as u64, crc32(&data[s..s + l]));
        assert_eq!(crc32_pieces(&data, &[c(0, 10), c(10, 90)]), Some(crc32(&data)));
        assert_eq!(crc32_pieces(&data, &[c(10, 5), c(0, 5)]), None, "descending");
        assert_eq!(crc32_pieces(&data, &[c(0, 10), c(5, 10)]), None, "overlapping");
        assert_eq!(crc32_pieces(&data, &[(95, 10, 0)]), None, "past the end");
        assert_eq!(crc32_pieces(&data, &[(u64::MAX, 2, 0)]), None, "overflowing");
        // A piece whose CRC is not its bytes' makes a different whole.
        assert_ne!(crc32_pieces(&data, &[(0, 10, 1)]), Some(crc32(&data)));
    }

    #[test]
    fn detects_single_bit_flip() {
        // 16-byte blocks 0..4, then a 7-byte tail: one bit in the first
        // block, in an interior block and in the tail.
        let data = seeded(4 * 16 + 7);
        for at in [3, 37, 4 * 16 + 5] {
            let mut flipped = data.clone();
            flipped[at] ^= 0x10;
            assert_ne!(crc32(&flipped), crc32(&data), "byte {at}");
        }
    }
}
