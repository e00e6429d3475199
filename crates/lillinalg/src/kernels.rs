//! Dense numeric kernels.
//!
//! Two matrix multiplies reproduce Table 8's axis: the naive triple loop
//! [`matmul_naive`] (standing in for GSL's reference BLAS) and one packed,
//! register-tiled GEMM (standing in for Eigen / netlib-backed breeze) with
//! two entry points: [`matmul`] (`C += A·B`, the DSL's `%*%`) and
//! [`matmul_at_b`] (`C += AᵀB`, the `'*` operator and with it every Gram
//! matrix). All kernels operate on raw `&[f64]` row-major buffers, so they
//! run equally well over page-resident `PcVec<f64>` data and driver-side
//! `DenseMatrix` storage, and none skips a zero operand: `0 × ∞` is NaN in
//! each of them, as IEEE 754 and the naive loop have it.
//!
//! The two entry points differ only in how `A(i, l)` (row `i` of `C`,
//! shared index `l`) is addressed: `a[i * k + l]` for `A·B`, `a[l * m + i]`
//! for `AᵀB` (`ASlice`). The GEMM walks the shared dimension in panels
//! of `KC` rows, GotoBLAS-style. Per panel it copies `A` into `MR`-wide
//! strips of `C`'s rows (the only step the addressing changes) and `B`
//! into `NR`-wide column strips, both contiguous and zero-padded, then
//! computes each `MR×NR` tile of `C` in an accumulator that stays in
//! registers for the whole panel and is added into `C` once, clipped at
//! ragged edges: `C` moves through memory once per panel instead of once
//! per shared index.
//!
//! One generic body is compiled twice: a portable instantiation, and on
//! x86-64 an AVX2 one chosen at run time. Both use a plain multiply then
//! an add (never `mul_add`, and Rust does not contract the two into an
//! FMA), and each element of `C` sums each panel's products in shared-index
//! order from zero, so only `KC` fixes the rounding: every CPU path gives
//! the same bits.
//!
//! Two small shapes keep a streaming loop instead, decided by the shape
//! alone:
//! - `AᵀB` with fewer shared rows than one tile (`m < MR`). That is the
//!   row-RDD baseline's Gram (`m = 1` per row, mllib's `dspr` rank-1
//!   update), so the baseline keeps the loop mllib itself runs and Table 2
//!   compares PC's block kernels with it rather than with a tiled kernel it
//!   never calls.
//! - `A·B` with fewer rows of `C` than one tile (`m < MR`). The zero-padded
//!   `A` strip would make every tile do `MR / m` times the useful work: one
//!   output row ran 3× slower tiled, and the two broke even at 3 rows.

/// Naive row-major triple loop: `C[m×n] += A[m×k] · B[k×n]`.
/// Reference-BLAS-like ("GSL" in Table 8).
pub fn matmul_naive(a: &[f64], b: &[f64], c: &mut [f64], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for l in 0..k {
                acc += a[i * k + l] * b[l * n + j];
            }
            c[i * n + j] += acc;
        }
    }
}

/// `C[m×n] += A[m×k] · B[k×n]` on the packed GEMM (the "Eigen/breeze"
/// kernel of Table 8). Calls with fewer than `MR` (4) rows of `C` stream;
/// see the module doc.
pub fn matmul(a: &[f64], b: &[f64], c: &mut [f64], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    // An empty `C` (n zero) has no strips to pack.
    if m < MR || n == 0 {
        streaming(ASlice::RowMajor(a), b, c, m, k, n);
    } else {
        tiled_dispatch(ASlice::RowMajor(a), b, c, m, k, n);
    }
}

/// `C[k×n] += Aᵀ[k×m] · B[m×n]` where `a` is stored `m×k` (transpose-
/// multiply, the `'*` operator — used without materializing Aᵀ).
///
/// Calls with at least one tile's rows (4) take the packed,
/// register-tiled path; shorter ones (the row-RDD baseline's `m = 1`
/// rank-1 update) keep the streaming loop, which has no packing to
/// amortize. See the module doc.
pub fn matmul_at_b(a: &[f64], b: &[f64], c: &mut [f64], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), m * n);
    debug_assert_eq!(c.len(), k * n);
    // An empty `C` (k or n zero) has no strips to pack.
    if m < MR || k == 0 || n == 0 {
        streaming(ASlice::Transposed(a), b, c, k, m, n);
    } else {
        tiled_dispatch(ASlice::Transposed(a), b, c, k, m, n);
    }
}

/// The left factor of `C[m×n] += A[m×k] · B[k×n]` (the names every
/// function below uses), by how `A(i, l)` is addressed.
#[derive(Clone, Copy)]
enum ASlice<'a> {
    /// `a` is `A`, `m×k`: `A(i, l) = a[i * k + l]`.
    RowMajor(&'a [f64]),
    /// `a` is `Aᵀ`, `k×m`: `A(i, l) = a[l * m + i]`.
    Transposed(&'a [f64]),
}

/// One pass over all of `C` per shared index: a rank-1 update each.
fn streaming(a: ASlice, b: &[f64], c: &mut [f64], m: usize, k: usize, n: usize) {
    for l in 0..k {
        let brow = &b[l * n..(l + 1) * n];
        for i in 0..m {
            let av = match a {
                ASlice::RowMajor(a) => a[i * k + l],
                ASlice::Transposed(a) => a[l * m + i],
            };
            let crow = &mut c[i * n..(i + 1) * n];
            for (cv, bv) in crow.iter_mut().zip(brow) {
                *cv += av * bv;
            }
        }
    }
}

/// Rows of `C` per register tile.
const MR: usize = 4;
/// Columns of `C` per register tile.
const NR: usize = 8;
/// Shared indices per packed panel. Every element of `C` sums each
/// panel's products in order from zero and then adds that into `C`, so
/// `KC` alone fixes the rounding.
const KC: usize = 256;

/// Picks the widest instantiation of `tiled` the CPU runs. Both give
/// the same bits: neither contracts a multiply and an add into an FMA,
/// and the sum order does not depend on the vector width.
fn tiled_dispatch(a: ASlice, b: &[f64], c: &mut [f64], m: usize, k: usize, n: usize) {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        // SAFETY: `tiled_avx2` requires AVX2, which the CPU was just
        // checked for. It is an `unsafe fn` only because safe
        // `#[target_feature]` functions need Rust 1.86, past the MSRV.
        return unsafe { tiled_avx2(a, b, c, m, k, n) };
    }
    tiled_portable(a, b, c, m, k, n);
}

fn tiled_portable(a: ASlice, b: &[f64], c: &mut [f64], m: usize, k: usize, n: usize) {
    tiled(a, b, c, m, k, n);
}

/// `tiled` compiled with 256-bit vectors.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tiled_avx2(a: ASlice, b: &[f64], c: &mut [f64], m: usize, k: usize, n: usize) {
    tiled(a, b, c, m, k, n);
}

/// GotoBLAS-style `C += A·B`: per `KC`-deep panel, copy `A`'s `MR`-row
/// strips and `B`'s `NR`-wide column strips into zero-padded contiguous
/// scratch, then sweep every `MR×NR` tile of `C` through `tile`.
#[inline(always)]
fn tiled(a: ASlice, b: &[f64], c: &mut [f64], m: usize, k: usize, n: usize) {
    let (a_strips, b_strips) = (m.div_ceil(MR), n.div_ceil(NR));
    let depth = k.min(KC);
    let mut pa = vec![0.0; a_strips * depth * MR];
    let mut pb = vec![0.0; b_strips * depth * NR];
    for p0 in (0..k).step_by(KC) {
        let kc = KC.min(k - p0);
        match a {
            ASlice::RowMajor(a) => pack_rows(a, k, p0, kc, depth, &mut pa),
            ASlice::Transposed(a) => pack::<MR>(&a[p0 * m..(p0 + kc) * m], m, depth, &mut pa),
        }
        pack::<NR>(&b[p0 * n..(p0 + kc) * n], n, depth, &mut pb);
        for (is, pa_strip) in pa.chunks_exact(depth * MR).enumerate() {
            let i0 = is * MR;
            for (js, pb_strip) in pb.chunks_exact(depth * NR).enumerate() {
                let j0 = js * NR;
                let acc = tile(&pa_strip[..kc * MR], &pb_strip[..kc * NR]);
                for (ii, acc_row) in acc.iter().enumerate().take(m - i0) {
                    let crow = &mut c[(i0 + ii) * n + j0..(i0 + ii + 1) * n];
                    for (cv, av) in crow.iter_mut().zip(acc_row) {
                        *cv += av;
                    }
                }
            }
        }
    }
}

/// Copies the rows of row-major `src` (`cols` wide) into `W`-wide column
/// strips of `dst`, strip `s` holding row `r` at `(s * rows + r) * W`;
/// the last strip is zero-padded.
#[inline(always)]
fn pack<const W: usize>(src: &[f64], cols: usize, rows: usize, dst: &mut [f64]) {
    for (r, srow) in src.chunks_exact(cols).enumerate() {
        for (s, chunk) in srow.chunks(W).enumerate() {
            let d = &mut dst[(s * rows + r) * W..(s * rows + r + 1) * W];
            d[..chunk.len()].copy_from_slice(chunk);
            d[chunk.len()..].fill(0.0);
        }
    }
}

/// `pack::<MR>` of the transpose of columns `p0..p0 + kc` of row-major
/// `a` (`cols` wide): row `i` of `a` is lane `i % MR` of strip `i / MR`,
/// its column `p0 + r` at `((i / MR) * rows + r) * MR + i % MR`. Lanes
/// past `a`'s last row are never written, so they keep `dst`'s zeroes.
#[inline(always)]
fn pack_rows(a: &[f64], cols: usize, p0: usize, kc: usize, rows: usize, dst: &mut [f64]) {
    for (i, arow) in a.chunks_exact(cols).enumerate() {
        let strip = &mut dst[(i / MR) * rows * MR..(i / MR + 1) * rows * MR];
        for (r, &v) in arow[p0..p0 + kc].iter().enumerate() {
            strip[r * MR + i % MR] = v;
        }
    }
}

/// The register tile: `Σ_r pa[r]ᵀ · pb[r]` over one panel's packed rows,
/// summed in row order from zero.
#[inline(always)]
fn tile(pa: &[f64], pb: &[f64]) -> [[f64; NR]; MR] {
    let mut acc = [[0.0; NR]; MR];
    for (ar, br) in pa.chunks_exact(MR).zip(pb.chunks_exact(NR)) {
        for (acc_row, &av) in acc.iter_mut().zip(ar) {
            for (cv, &bv) in acc_row.iter_mut().zip(br) {
                *cv += av * bv;
            }
        }
    }
    acc
}

/// Out-of-place transpose: `B[n×m] = Aᵀ` for `A[m×n]`.
pub fn transpose(a: &[f64], b: &mut [f64], m: usize, n: usize) {
    for i in 0..m {
        for j in 0..n {
            b[j * m + i] = a[i * n + j];
        }
    }
}

/// A small driver-side dense matrix (row-major).
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    pub rows: usize,
    pub cols: usize,
    pub data: Vec<f64>,
}

impl DenseMatrix {
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    pub fn from_rows(rows: Vec<Vec<f64>>) -> Self {
        let r = rows.len();
        let c = rows.first().map(|x| x.len()).unwrap_or(0);
        DenseMatrix {
            rows: r,
            cols: c,
            data: rows.into_iter().flatten().collect(),
        }
    }

    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.cols + j]
    }

    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.cols + j] = v;
    }

    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    pub fn matmul(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.cols, other.rows);
        let mut c = DenseMatrix::zeros(self.rows, other.cols);
        matmul(
            &self.data,
            &other.data,
            &mut c.data,
            self.rows,
            self.cols,
            other.cols,
        );
        c
    }

    pub fn transposed(&self) -> DenseMatrix {
        let mut t = DenseMatrix::zeros(self.cols, self.rows);
        transpose(&self.data, &mut t.data, self.rows, self.cols);
        t
    }

    /// Gauss-Jordan inversion with partial pivoting. Errors on singular
    /// input. Used driver-side for the normal-equation solve (`^-1` in the
    /// DSL is only valid on small gathered matrices, as in SystemML's
    /// local-mode solves).
    pub fn inverse(&self) -> Result<DenseMatrix, String> {
        assert_eq!(self.rows, self.cols, "inverse of a non-square matrix");
        let n = self.rows;
        let mut a = self.clone();
        let mut inv = DenseMatrix::identity(n);
        for col in 0..n {
            // Pivot.
            let mut pivot = col;
            let mut best = a.at(col, col).abs();
            for r in (col + 1)..n {
                let v = a.at(r, col).abs();
                if v > best {
                    best = v;
                    pivot = r;
                }
            }
            if best < 1e-12 {
                return Err(format!("matrix is singular at column {col}"));
            }
            if pivot != col {
                for j in 0..n {
                    let (x, y) = (a.at(col, j), a.at(pivot, j));
                    a.set(col, j, y);
                    a.set(pivot, j, x);
                    let (x, y) = (inv.at(col, j), inv.at(pivot, j));
                    inv.set(col, j, y);
                    inv.set(pivot, j, x);
                }
            }
            // Normalize and eliminate.
            let d = a.at(col, col);
            for j in 0..n {
                a.set(col, j, a.at(col, j) / d);
                inv.set(col, j, inv.at(col, j) / d);
            }
            for r in 0..n {
                if r == col {
                    continue;
                }
                let f = a.at(r, col);
                if f == 0.0 {
                    continue;
                }
                for j in 0..n {
                    a.set(r, j, a.at(r, j) - f * a.at(col, j));
                    inv.set(r, j, inv.at(r, j) - f * inv.at(col, j));
                }
            }
        }
        Ok(inv)
    }

    pub fn max_abs_diff(&self, other: &DenseMatrix) -> f64 {
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_mat(r: usize, c: usize, seed: u64) -> DenseMatrix {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 500.0 - 1.0
        };
        let data = (0..r * c).map(|_| next()).collect();
        DenseMatrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Both entry points over every ragged edge of the tile and the
    /// panel, from a non-zero `C` (the `+=` contract). `matmul_at_b(A, B)`
    /// and `matmul(Aᵀ, B)` compute the same product with the shared
    /// dimension `m`, so one sweep drives both: each must be within
    /// 1e-12·m of the naive kernel on the explicit transpose, and, on the
    /// tiled path, bit-identical to the portable instantiation (on an AVX2
    /// host the dispatch picks the other one, so this compares the two).
    /// `k` (the rows of `C`) and `m` each take 1, `MR - 1` and `MR`, so both
    /// streaming rules are crossed.
    #[test]
    fn packed_entry_points_match_naive() {
        let dims = [1, MR - 1, MR, MR + 1, NR - 1, NR + 1, 513];
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for m in [0, 1, MR - 1, MR, KC - 1, KC + 1, 2 * KC + 3] {
            for k in dims {
                for n in dims {
                    // 513 × 513 at every panel count would take most of
                    // a debug test run; one count covers both edges.
                    if k == 513 && n == 513 && m > MR {
                        continue;
                    }
                    let a = rand_mat(m, k, 3);
                    let at = a.transposed();
                    let b = rand_mat(m, n, 4);
                    let c0 = rand_mat(k, n, 5).data;
                    let mut want = c0.clone();
                    matmul_naive(&at.data, &b.data, &mut want, k, m, n);
                    let tol = 1e-12 * m.max(1) as f64;
                    let runs = [
                        ("at_b", ASlice::Transposed(&a.data), m >= MR),
                        ("matmul", ASlice::RowMajor(&at.data), k >= MR),
                    ];
                    for (name, slice, is_tiled) in runs {
                        let mut got = c0.clone();
                        match slice {
                            ASlice::Transposed(a) => matmul_at_b(a, &b.data, &mut got, m, k, n),
                            ASlice::RowMajor(a) => matmul(a, &b.data, &mut got, k, m, n),
                        }
                        for (x, y) in got.iter().zip(&want) {
                            assert!(
                                (x - y).abs() <= tol * y.abs().max(1.0),
                                "{name} m={m} k={k} n={n}: {x} vs {y}"
                            );
                        }
                        if is_tiled {
                            let mut portable = c0.clone();
                            tiled_portable(slice, &b.data, &mut portable, k, m, n);
                            assert_eq!(bits(&got), bits(&portable), "{name} m={m} k={k} n={n}");
                        }
                    }
                }
            }
        }
    }

    /// `0 × ∞` is NaN in every kernel, on the streaming (`m = 1`) and the
    /// tiled (`m = MR`) path of both entry points, as in the naive triple
    /// loop: no kernel may skip a zero operand.
    #[test]
    fn zero_times_infinity_is_nan_in_every_kernel() {
        let same = |x: &[f64], y: &[f64]| {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|(p, q)| p == q || (p.is_nan() && q.is_nan()))
        };
        for m in [1, MR] {
            // A[m×2] has a zero where B[m×2] has an infinity.
            let mut a = vec![1.0; m * 2];
            let mut b = vec![1.0; m * 2];
            a[0] = 0.0;
            b[0] = f64::INFINITY;
            let mut at = vec![0.0; m * 2];
            transpose(&a, &mut at, m, 2);
            let mut want = vec![0.0; 4];
            matmul_naive(&at, &b, &mut want, 2, m, 2);
            assert!(want[0].is_nan());
            let mut got = vec![0.0; 4];
            matmul_at_b(&a, &b, &mut got, m, 2, 2);
            assert!(same(&got, &want), "at_b m={m}: {got:?} vs {want:?}");
            // A[m×2] · B[2×2] with the infinity under A's zero.
            let b = [f64::INFINITY, 1.0, 1.0, 1.0];
            let mut want = vec![0.0; m * 2];
            matmul_naive(&a, &b, &mut want, m, 2, 2);
            assert!(want[0].is_nan());
            let mut got = vec![0.0; m * 2];
            matmul(&a, &b, &mut got, m, 2, 2);
            assert!(same(&got, &want), "matmul m={m}: {got:?} vs {want:?}");
        }
    }

    #[test]
    fn inverse_times_self_is_identity() {
        let mut a = rand_mat(12, 12, 5);
        for i in 0..12 {
            a.set(i, i, a.at(i, i) + 6.0); // diagonally dominant → invertible
        }
        let inv = a.inverse().unwrap();
        let prod = a.matmul(&inv);
        assert!(prod.max_abs_diff(&DenseMatrix::identity(12)) < 1e-8);
    }

    #[test]
    fn singular_matrix_is_rejected() {
        let a = DenseMatrix::from_rows(vec![vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(a.inverse().is_err());
    }
}
