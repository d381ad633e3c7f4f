//! GF(2⁸) arithmetic with the AES-adjacent reducing polynomial
//! x⁸ + x⁴ + x³ + x² + 1 (0x11d, the polynomial used by most storage
//! erasure codes). Multiplication goes through log/exp tables built at
//! compile time; bulk slice operations go through a per-coefficient
//! 256-entry product table so the inner loop is a plain indexed gather
//! the compiler can unroll and vectorize.

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

/// The 256-entry product table for a fixed coefficient `c`:
/// `table[x] = c · x`. Bulk kernels index this instead of the log/exp
/// pair — one gather per byte, no branches.
#[inline]
pub fn mul_table(c: u8) -> [u8; 256] {
    let mut t = [0u8; 256];
    if c == 0 {
        return t;
    }
    let lc = TABLES.0[c as usize] as usize;
    let mut x = 1usize;
    while x < 256 {
        t[x] = TABLES.1[lc + TABLES.0[x] as usize];
        x += 1;
    }
    t
}

/// `dst[i] ^= c · src[i]` — the Reed-Solomon inner loop. `c == 0` is a
/// no-op; `c == 1` degenerates to pure XOR (no table gather).
pub fn mul_slice_acc(c: u8, src: &[u8], dst: &mut [u8]) {
    debug_assert_eq!(src.len(), dst.len());
    match c {
        0 => {}
        1 => {
            for (d, s) in dst.iter_mut().zip(src) {
                *d ^= *s;
            }
        }
        _ => {
            let t = mul_table(c);
            for (d, s) in dst.iter_mut().zip(src) {
                *d ^= t[*s as usize];
            }
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

    #[test]
    fn mul_slice_acc_matches_scalar() {
        let src: Vec<u8> = (0..=255).collect();
        for c in [0u8, 1, 2, 29, 142, 255] {
            let mut dst = vec![0xAAu8; 256];
            mul_slice_acc(c, &src, &mut dst);
            for (i, &s) in src.iter().enumerate() {
                assert_eq!(dst[i], 0xAA ^ mul(c, s));
            }
        }
    }
}
