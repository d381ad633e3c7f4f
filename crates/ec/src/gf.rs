//! GF(2⁸) arithmetic with the AES-adjacent reducing polynomial
//! x⁸ + x⁴ + x³ + x² + 1 (0x11d, the polynomial used by most storage
//! erasure codes). Multiplying two elements goes through log/exp tables
//! built at compile time.
//!
//! The bulk kernel, `dst ^= c · src` over whole slices, looks nothing
//! up. A byte `x = Σ xᵢ·2ⁱ` times `c` is `Σ xᵢ·(c·2ⁱ)`, so it works on
//! 64-bit words: eight masks, each spreading bit `i` of every byte over
//! that byte, are ANDed with `c·2ⁱ` broadcast to every byte and XORed,
//! which gives eight products per word with no gather and no dependence
//! from one word to the next. The masks depend on the source alone:
//! [`mul_rows_acc`] builds them once per word and folds the word into
//! every output row, which is what a Reed–Solomon encode or repair does
//! with each source shard.

/// The reducing polynomial (x⁸ is implicit).
pub const POLY: u16 = 0x11d;

/// `(LOG, EXP)`: `EXP[i] = g^i` for generator g = 2, doubled to 510
/// entries so `EXP[log a + log b]` never needs a modulo; `LOG[x]` is the
/// discrete log of x (LOG[0] is unused).
const TABLES: ([u8; 256], [u8; 512]) = build_tables();

const fn build_tables() -> ([u8; 256], [u8; 512]) {
    let mut log = [0u8; 256];
    let mut exp = [0u8; 512];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        exp[i + 255] = x as u8;
        log[x as usize] = i as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= POLY;
        }
        i += 1;
    }
    (log, exp)
}

/// Discrete log of `x` (undefined for 0 — callers must special-case).
#[inline]
pub fn log(x: u8) -> u8 {
    TABLES.0[x as usize]
}

/// `g^i` for the field generator g = 2, valid for `i < 510`.
#[inline]
pub fn exp(i: usize) -> u8 {
    TABLES.1[i]
}

/// Addition (= subtraction) in GF(256) is XOR.
#[inline]
pub fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Field multiplication.
#[inline]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        TABLES.1[TABLES.0[a as usize] as usize + TABLES.0[b as usize] as usize]
    }
}

/// Field division `a / b`. Panics on division by zero, like integer `/`.
#[inline]
pub fn div(a: u8, b: u8) -> u8 {
    assert!(b != 0, "GF(256) division by zero");
    if a == 0 {
        0
    } else {
        TABLES.1[TABLES.0[a as usize] as usize + 255 - TABLES.0[b as usize] as usize]
    }
}

/// Multiplicative inverse. Panics on 0.
#[inline]
pub fn inv(a: u8) -> u8 {
    div(1, a)
}

/// `0x01` in every byte of a word.
const LOW: u64 = 0x0101_0101_0101_0101;

/// Output rows one pass over the source folds into (the files here use
/// 2 parity rows); a code with more takes more passes.
const ROWS: usize = 4;

/// Source bytes one step of [`fold`] turns into products: eight words,
/// which the compiler computes side by side.
const BLOCK: usize = 64;

/// `dst[i] ^= c · src[i]` — the Reed-Solomon inner loop; `c == 0` is a
/// no-op.
pub fn mul_slice_acc(c: u8, src: &[u8], dst: &mut [u8]) {
    debug_assert_eq!(src.len(), dst.len());
    mul_rows_acc(|_| c, src, &mut [dst], 0);
}

/// `rows[r][at + i] ^= coef(r) · src[i]` for every row `r` and every
/// byte of `src`: the source is read once per four rows, and each of
/// its words is split into masks once for all of them. Panics if a row
/// ends before `at + src.len()`.
pub fn mul_rows_acc<R: AsMut<[u8]>>(
    coef: impl Fn(usize) -> u8,
    src: &[u8],
    rows: &mut [R],
    at: usize,
) {
    for (g, group) in rows.chunks_mut(ROWS).enumerate() {
        // Per row, `c·2ⁱ` broadcast to every byte for each bit `i`.
        let mut bcast = [[0u64; 8]; ROWS];
        let mut outs: [&mut [u8]; ROWS] = Default::default();
        let n = group.len();
        for (t, row) in group.iter_mut().enumerate() {
            let c = coef(g * ROWS + t);
            bcast[t] = std::array::from_fn(|i| mul(c, 1 << i) as u64 * LOW);
            outs[t] = &mut row.as_mut()[at..at + src.len()];
        }
        // The row count is a constant in each copy, so the loops over
        // rows unroll.
        match n {
            1 => fold::<1>(&bcast, src, &mut outs),
            2 => fold::<2>(&bcast, src, &mut outs),
            3 => fold::<3>(&bcast, src, &mut outs),
            _ => fold::<ROWS>(&bcast, src, &mut outs),
        }
    }
}

/// `outs[r] ^= c_r · src` for the first `N` rows, `bcast[r]` being
/// `c_r`'s broadcast bit products.
fn fold<const N: usize>(bcast: &[[u64; 8]; ROWS], src: &[u8], outs: &mut [&mut [u8]; ROWS]) {
    let mut blocks = src.chunks_exact(BLOCK);
    let mut o = 0;
    for block in &mut blocks {
        let mut acc = [[0u64; BLOCK / 8]; N];
        for (w, x) in block.chunks_exact(8).enumerate() {
            let x = u64::from_le_bytes(x.try_into().unwrap());
            for i in 0..8 {
                // Byte j of the mask is 0xFF if bit i of byte j of x is set.
                let m = (x >> i) & LOW;
                let mask = (m << 8).wrapping_sub(m);
                for (acc, b) in acc.iter_mut().zip(bcast) {
                    acc[w] ^= mask & b[i];
                }
            }
        }
        for (out, acc) in outs.iter_mut().zip(&acc) {
            for (d, p) in out[o..o + BLOCK].chunks_exact_mut(8).zip(acc) {
                let d: &mut [u8; 8] = d.try_into().unwrap();
                *d = (u64::from_le_bytes(*d) ^ p).to_le_bytes();
            }
        }
        o += BLOCK;
    }
    // The tail, a byte at a time: `bcast[r][0]`'s bytes are `c_r`.
    for (out, b) in outs[..N].iter_mut().zip(bcast) {
        for (d, &s) in out[o..].iter_mut().zip(blocks.remainder()) {
            *d ^= mul(b[0] as u8, s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_are_consistent() {
        // exp/log are inverse bijections over the nonzero elements.
        for x in 1..=255u8 {
            assert_eq!(exp(log(x) as usize), x);
        }
        for i in 0..255usize {
            assert_eq!(log(exp(i)) as usize, i);
        }
    }

    /// Bit-by-bit carryless multiply + reduction, as an oracle.
    fn slow_mul(mut a: u8, mut b: u8) -> u8 {
        let mut r = 0u8;
        while b != 0 {
            if b & 1 == 1 {
                r ^= a;
            }
            let hi = a & 0x80 != 0;
            a <<= 1;
            if hi {
                a ^= (POLY & 0xff) as u8;
            }
            b >>= 1;
        }
        r
    }

    #[test]
    fn mul_matches_slow_oracle_exhaustively() {
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(mul(a, b), slow_mul(a, b), "{a} * {b}");
            }
        }
    }

    #[test]
    fn div_inverts_mul() {
        for a in 0..=255u8 {
            for b in 1..=255u8 {
                assert_eq!(div(mul(a, b), b), a);
            }
        }
    }

    #[test]
    fn inverses() {
        for a in 1..=255u8 {
            assert_eq!(mul(a, inv(a)), 1);
        }
    }

    /// `dst ^ c·src` byte by byte, through the log/exp `mul`.
    fn oracle(c: u8, src: &[u8], dst: &[u8]) -> Vec<u8> {
        src.iter().zip(dst).map(|(&s, &d)| d ^ mul(c, s)).collect()
    }

    #[test]
    fn mul_slice_acc_matches_scalar() {
        // Every byte value, then a tail that is not a whole word.
        let src: Vec<u8> = (0..=255).chain(0..13).collect();
        let dst: Vec<u8> = src.iter().map(|&s| s.wrapping_mul(151) ^ 0xA5).collect();
        for c in 0..=255u8 {
            let mut out = dst.clone();
            mul_slice_acc(c, &src, &mut out);
            assert_eq!(out, oracle(c, &src, &dst), "c {c}");
        }
    }

    #[test]
    fn fused_rows_match_mul_for_every_coefficient_and_byte() {
        let src: Vec<u8> = (0..=255).rev().collect();
        for n in 1..=ROWS + 1 {
            for c in 0..=255u8 {
                // Row r's coefficient and initial bytes differ per row.
                let coef = |r: usize| c.wrapping_add((r as u8).wrapping_mul(67));
                let init = |r: usize| vec![(r as u8).wrapping_mul(29) ^ c; 256 + 3];
                let mut rows: Vec<Vec<u8>> = (0..n).map(init).collect();
                mul_rows_acc(coef, &src, &mut rows, 3);
                for (r, row) in rows.iter().enumerate() {
                    assert_eq!(row[..3], init(r)[..3], "n {n} c {c} row {r}: before `at`");
                    let want = oracle(coef(r), &src, &init(r)[3..]);
                    assert_eq!(row[3..], want, "n {n} c {c} row {r}");
                }
            }
        }
    }

    #[test]
    fn every_length_and_alignment_covers_the_word_and_block_tails() {
        let buf: Vec<u8> = (0..200u32).map(|i| (i * 31 + 3) as u8).collect();
        for n in 1..=ROWS {
            for start in 0..8 {
                for len in (0..=64).chain([BLOCK + 1, 2 * BLOCK - 1, 2 * BLOCK + 7]) {
                    let src = &buf[start..start + len];
                    let coef = |r: usize| [0x8e, 0x01, 0x00, 0xd3][r];
                    let init = |r: usize| buf[r..r + len + start].to_vec();
                    let mut rows: Vec<Vec<u8>> = (0..n).map(init).collect();
                    mul_rows_acc(coef, src, &mut rows, start);
                    for (r, row) in rows.iter().enumerate() {
                        let want = oracle(coef(r), src, &init(r)[start..]);
                        assert_eq!(row[start..], want, "n {n} start {start} len {len} row {r}");
                    }
                }
            }
        }
    }
}
