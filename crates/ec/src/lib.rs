//! Erasure coding for Sorrento: a from-scratch GF(256) field and a
//! systematic Reed-Solomon (k, m) codec, with no external dependencies
//! (the build environment has no crates.io access — same hermetic
//! discipline as the `shims/` crates).
//!
//! The code is *systematic*: the first `k` shards are the data itself,
//! so a healthy read never touches the codec. The `m` parity shards are
//! linear combinations of the data shards over GF(256), chosen (via a
//! Vandermonde-derived generator matrix) so that **any** `k` of the
//! `k + m` shards suffice to reconstruct the rest. Up to `m`
//! simultaneous losses are survivable at `(k + m) / k`× storage
//! overhead, versus `(m + 1)`× for replication with the same fault
//! tolerance.

#![warn(missing_docs)]

pub mod gf;

use gf::{mul, mul_rows_acc};

/// Errors from codec construction, encoding, or reconstruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EcError {
    /// Invalid (k, m): both must be ≥ 1 and k + m ≤ 255.
    BadParams,
    /// Shards passed to encode/reconstruct have differing lengths.
    LengthMismatch,
    /// Fewer than k shards survive — the data is unrecoverable.
    TooFewShards,
}

impl std::fmt::Display for EcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EcError::BadParams => write!(f, "invalid (k, m) parameters"),
            EcError::LengthMismatch => write!(f, "shard lengths differ"),
            EcError::TooFewShards => write!(f, "fewer than k shards survive"),
        }
    }
}

impl std::error::Error for EcError {}

/// A systematic Reed-Solomon (k, m) codec over GF(256).
///
/// The generator matrix is the (k+m)×k product `V · V_top⁻¹` of a
/// Vandermonde matrix over distinct field points, so its top k rows are
/// the identity (systematic) and *every* k-row submatrix is invertible
/// (any k rows of V form a Vandermonde matrix over distinct points).
#[derive(Debug, Clone)]
pub struct ReedSolomon {
    k: usize,
    m: usize,
    /// (k+m) rows × k columns; rows 0..k are the identity.
    matrix: Vec<Vec<u8>>,
}

impl ReedSolomon {
    /// Build a codec for `k` data shards and `m` parity shards.
    pub fn new(k: usize, m: usize) -> Result<ReedSolomon, EcError> {
        if k == 0 || m == 0 || k + m > 255 {
            return Err(EcError::BadParams);
        }
        // Vandermonde rows at distinct points x = 0, 1, ..., k+m-1:
        // V[i][j] = x_i^j  (with 0^0 = 1).
        let n = k + m;
        let vand: Vec<Vec<u8>> = (0..n)
            .map(|i| {
                let mut row = vec![0u8; k];
                let mut p = 1u8;
                for cell in row.iter_mut() {
                    *cell = p;
                    p = mul(p, i as u8);
                }
                row
            })
            .collect();
        // M = V · V_top⁻¹ makes the top k rows the identity without
        // disturbing the any-k-rows-invertible property.
        let top_inv = invert(&vand[..k])
            .expect("top k Vandermonde rows are invertible");
        let matrix = vand
            .iter()
            .map(|row| matmul_row(row, &top_inv, k))
            .collect();
        Ok(ReedSolomon { k, m, matrix })
    }

    /// Parity shard count.
    pub fn parity_shards(&self) -> usize {
        self.m
    }

    /// Encode: compute the `m` parity shards from the `k` data shards.
    /// All data shards must be the same length.
    pub fn encode(&self, data: &[impl AsRef<[u8]>]) -> Result<Vec<Vec<u8>>, EcError> {
        if data.len() != self.k {
            return Err(EcError::BadParams);
        }
        let len = data[0].as_ref().len();
        if data.iter().any(|d| d.as_ref().len() != len) {
            return Err(EcError::LengthMismatch);
        }
        let mut parity: Vec<Vec<u8>> = (0..self.m).map(|_| vec![0u8; len]).collect();
        for (j, d) in data.iter().enumerate() {
            self.encode_acc(j, d.as_ref(), 0, &mut parity)?;
        }
        Ok(parity)
    }

    /// Fold `piece`, bytes of data shard `shard` from offset `at`, into
    /// the `m` parity shards. The code is linear: folding every piece of
    /// the data shards once, in any order, into zeroed parity gives
    /// [`ReedSolomon::encode`]'s result, bytes never folded counting as
    /// zeros. Each word of `piece` is folded into all `m` outputs at
    /// once, so `piece` is read once.
    pub fn encode_acc(
        &self,
        shard: usize,
        piece: &[u8],
        at: usize,
        parity: &mut [Vec<u8>],
    ) -> Result<(), EcError> {
        if shard >= self.k || parity.len() != self.m {
            return Err(EcError::BadParams);
        }
        if parity.iter().any(|p| p.len() < at.saturating_add(piece.len())) {
            return Err(EcError::LengthMismatch);
        }
        let rows = &self.matrix[self.k..];
        mul_rows_acc(|r| rows[r][shard], piece, parity, at);
        Ok(())
    }

    /// Reconstruct every missing shard in place. `shards` must hold
    /// `k + m` slots ordered data-then-parity; `None` marks a loss. Any
    /// `k` survivors suffice; with more than `m` losses this returns
    /// [`EcError::TooFewShards`] and changes nothing.
    pub fn reconstruct(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), EcError> {
        if shards.len() != self.k + self.m {
            return Err(EcError::BadParams);
        }
        let present: Vec<usize> = (0..shards.len()).filter(|&i| shards[i].is_some()).collect();
        if present.len() < self.k {
            return Err(EcError::TooFewShards);
        }
        let len = shards[present[0]].as_ref().unwrap().len();
        if present.iter().any(|&i| shards[i].as_ref().unwrap().len() != len) {
            return Err(EcError::LengthMismatch);
        }
        if present.len() == shards.len() {
            return Ok(()); // nothing missing
        }
        // Decode matrix: rows of M for the first k survivors, inverted.
        let rows: Vec<Vec<u8>> = present[..self.k]
            .iter()
            .map(|&i| self.matrix[i].clone())
            .collect();
        let dec = invert(&rows).expect("any k rows of the generator matrix are invertible");
        // Shard i = M[i] · dec · survivors, data and parity alike: one
        // pass over each survivor folds it into every lost shard.
        let lost: Vec<usize> = (0..shards.len()).filter(|&i| shards[i].is_none()).collect();
        let coefs: Vec<Vec<u8>> =
            lost.iter().map(|&i| matmul_row(&self.matrix[i], &dec, self.k)).collect();
        let mut out = vec![vec![0u8; len]; lost.len()];
        for (r, &src) in present[..self.k].iter().enumerate() {
            mul_rows_acc(|t| coefs[t][r], shards[src].as_ref().unwrap(), &mut out, 0);
        }
        for (i, shard) in lost.into_iter().zip(out) {
            shards[i] = Some(shard);
        }
        Ok(())
    }

    /// Check that the parity shards match the data shards (all k+m
    /// present, data-then-parity order).
    pub fn verify(&self, shards: &[impl AsRef<[u8]>]) -> Result<bool, EcError> {
        if shards.len() != self.k + self.m {
            return Err(EcError::BadParams);
        }
        let parity = self.encode(&shards[..self.k])?;
        Ok(parity.iter().zip(&shards[self.k..]).all(|(p, s)| s.as_ref() == &p[..]))
    }
}

/// `row · m` where `m` is k×k: out[j] = Σ_i row[i] · m[i][j].
fn matmul_row(row: &[u8], m: &[Vec<u8>], k: usize) -> Vec<u8> {
    let mut out = vec![0u8; k];
    for (i, &c) in row.iter().enumerate() {
        if c == 0 {
            continue;
        }
        for (j, cell) in out.iter_mut().enumerate() {
            *cell ^= mul(c, m[i][j]);
        }
    }
    out
}

/// Invert a square matrix over GF(256) by Gauss–Jordan elimination.
/// Returns `None` if singular.
fn invert(m: &[Vec<u8>]) -> Option<Vec<Vec<u8>>> {
    let n = m.len();
    let mut a: Vec<Vec<u8>> = m.to_vec();
    let mut out: Vec<Vec<u8>> = (0..n)
        .map(|i| {
            let mut row = vec![0u8; n];
            row[i] = 1;
            row
        })
        .collect();
    for col in 0..n {
        // Find a pivot.
        let pivot = (col..n).find(|&r| a[r][col] != 0)?;
        a.swap(col, pivot);
        out.swap(col, pivot);
        // Normalize the pivot row.
        let p = gf::inv(a[col][col]);
        for j in 0..n {
            a[col][j] = mul(a[col][j], p);
            out[col][j] = mul(out[col][j], p);
        }
        // Eliminate the column from every other row.
        for r in 0..n {
            if r == col || a[r][col] == 0 {
                continue;
            }
            let f = a[r][col];
            for j in 0..n {
                let x = mul(f, a[col][j]);
                a[r][j] ^= x;
                let y = mul(f, out[col][j]);
                out[r][j] ^= y;
            }
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_identity_various_params() {
        // (3, 5) loses more shards than one pass of the kernel folds.
        for &(k, m) in &[(1usize, 1usize), (2, 1), (4, 2), (6, 3), (10, 4), (3, 5)] {
            let rs = ReedSolomon::new(k, m).unwrap();
            let data: Vec<Vec<u8>> = (0..k)
                .map(|i| (0..64).map(|j| ((i * 131 + j * 17) % 256) as u8).collect())
                .collect();
            let parity = rs.encode(&data).unwrap();
            assert_eq!(parity.len(), m);
            let mut shards: Vec<Option<Vec<u8>>> =
                data.iter().cloned().map(Some).chain(parity.iter().cloned().map(Some)).collect();
            // Drop the worst case: the m shards including data shard 0.
            for i in 0..m {
                shards[i % (k + m)] = None;
            }
            rs.reconstruct(&mut shards).unwrap();
            for (i, d) in data.iter().enumerate() {
                assert_eq!(shards[i].as_ref().unwrap(), d, "k={k} m={m} shard {i}");
            }
            for (i, p) in parity.iter().enumerate() {
                assert_eq!(shards[k + i].as_ref().unwrap(), p);
            }
        }
    }

    #[test]
    fn parity_is_pinned() {
        // `ec_parity` checks parity against `encode` itself, so only a
        // pinned value shows a kernel that is wrong the same way in
        // both. The CRCs were computed by the table-driven kernel.
        let rs = ReedSolomon::new(4, 2).unwrap();
        let data: Vec<Vec<u8>> = (0..4)
            .map(|j| (0..65_537).map(|i| (i * 31 + j * 7 + 3) as u8).collect())
            .collect();
        let parity = rs.encode(&data).unwrap();
        let crcs: Vec<u32> = parity.iter().map(|p| sorrento_kvdb::crc32(p)).collect();
        assert_eq!(crcs, [0x8ad6_ffe5, 0x80de_3d78]);
        // Reconstruct rebuilds two lost shards of either kind in one pass.
        let full: Vec<Option<Vec<u8>>> = data.into_iter().chain(parity).map(Some).collect();
        for lost in [[0, 2], [1, 4], [4, 5]] {
            let mut shards = full.clone();
            for i in lost {
                shards[i] = None;
            }
            rs.reconstruct(&mut shards).unwrap();
            assert!(shards == full, "lost {lost:?}");
        }
    }

    #[test]
    fn folding_pieces_in_any_order_equals_encode() {
        let (len, rs) = (50_000, ReedSolomon::new(3, 2).unwrap());
        let data: Vec<Vec<u8>> = (0..3)
            .map(|i| (0..len).map(|j| ((i * 97 + j * 13) % 256) as u8).collect())
            .collect();
        let want = rs.encode(&data).unwrap();
        let mut parity = vec![vec![0u8; len]; 2];
        // Uneven pieces, across block boundaries, shards interleaved.
        let pieces = [
            (2, 0..len),
            (0, 30_000..len),
            (1, 0..1),
            (0, 0..30_000),
            (1, 1..len),
        ];
        for (shard, range) in pieces {
            rs.encode_acc(shard, &data[shard][range.clone()], range.start, &mut parity)
                .unwrap();
        }
        assert_eq!(parity, want);
        assert_eq!(
            rs.encode_acc(3, &[1], 0, &mut parity),
            Err(EcError::BadParams)
        );
        assert_eq!(
            rs.encode_acc(0, &[1; 2], len - 1, &mut parity),
            Err(EcError::LengthMismatch)
        );
    }

    #[test]
    fn too_many_losses_is_typed_error() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let data: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8; 16]).collect();
        let parity = rs.encode(&data).unwrap();
        let mut shards: Vec<Option<Vec<u8>>> =
            data.into_iter().map(Some).chain(parity.into_iter().map(Some)).collect();
        shards[0] = None;
        shards[2] = None;
        shards[4] = None;
        assert_eq!(rs.reconstruct(&mut shards), Err(EcError::TooFewShards));
    }

    #[test]
    fn bad_params_rejected() {
        assert_eq!(ReedSolomon::new(0, 2).unwrap_err(), EcError::BadParams);
        assert_eq!(ReedSolomon::new(2, 0).unwrap_err(), EcError::BadParams);
        assert_eq!(ReedSolomon::new(200, 56).unwrap_err(), EcError::BadParams);
        assert!(ReedSolomon::new(200, 55).is_ok());
    }

    #[test]
    fn mismatched_lengths_rejected() {
        let rs = ReedSolomon::new(2, 1).unwrap();
        assert_eq!(
            rs.encode(&[vec![1u8; 4], vec![2u8; 5]]).unwrap_err(),
            EcError::LengthMismatch
        );
    }

    #[test]
    fn verify_detects_corruption() {
        let rs = ReedSolomon::new(3, 2).unwrap();
        let data: Vec<Vec<u8>> = (0..3).map(|i| vec![(i * 7) as u8; 32]).collect();
        let parity = rs.encode(&data).unwrap();
        let mut shards: Vec<Vec<u8>> = data.into_iter().chain(parity).collect();
        assert!(rs.verify(&shards).unwrap());
        shards[1][5] ^= 0x40;
        assert!(!rs.verify(&shards).unwrap());
    }

    #[test]
    fn every_k_subset_reconstructs() {
        // Exhaustively drop every possible ≤m subset for (4, 2).
        let (k, m) = (4usize, 2usize);
        let rs = ReedSolomon::new(k, m).unwrap();
        let data: Vec<Vec<u8>> = (0..k).map(|i| (0..40).map(|j| (i * 59 + j) as u8).collect()).collect();
        let parity = rs.encode(&data).unwrap();
        let full: Vec<Vec<u8>> = data.clone().into_iter().chain(parity).collect();
        let n = k + m;
        for a in 0..n {
            for b in a..n {
                let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
                shards[a] = None;
                shards[b] = None;
                rs.reconstruct(&mut shards).unwrap();
                for (i, s) in shards.iter().enumerate() {
                    assert_eq!(s.as_ref().unwrap(), &full[i], "drop ({a},{b}) shard {i}");
                }
            }
        }
    }
}
