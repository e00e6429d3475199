//! Distributed matrices: `MatrixBlock` PC objects plus the client-side
//! operations that compile to PC computation graphs.

use crate::kernels::{self, DenseMatrix};
use pc_core::prelude::*;
use pc_object::PcValue;
use std::sync::atomic::{AtomicU64, Ordering};

pc_object! {
    /// A contiguous sub-matrix chunk (§6.1's example class): grid position,
    /// chunk dimensions, and a page-resident row-major value vector.
    pub struct MatrixBlock / MatrixBlockView {
        (chunk_row, set_chunk_row): i64,
        (chunk_col, set_chunk_col): i64,
        (height, set_height): i64,
        (width, set_width): i64,
        (values, set_values): Handle<PcVec<f64>>,
    }
}

/// Builds a `MatrixBlock` on the active allocation block with its
/// `height × width` values zeroed on the page, for a kernel to write in
/// place (§6.1: kernels address page memory).
fn zeroed_matrix_block(
    chunk_row: i64,
    chunk_col: i64,
    height: usize,
    width: usize,
) -> PcResult<Handle<MatrixBlock>> {
    let blk = make_object::<MatrixBlock>()?;
    blk.v().set_chunk_row(chunk_row)?;
    blk.v().set_chunk_col(chunk_col)?;
    blk.v().set_height(height as i64)?;
    blk.v().set_width(width as i64)?;
    let vals = make_object::<PcVec<f64>>()?;
    vals.extend_zeroed(height * width)?;
    blk.v().set_values(vals)?;
    Ok(blk)
}

/// Builds a `MatrixBlock` holding a copy of `data` on the active
/// allocation block.
pub fn make_matrix_block(
    chunk_row: i64,
    chunk_col: i64,
    height: usize,
    width: usize,
    data: &[f64],
) -> PcResult<Handle<MatrixBlock>> {
    let blk = zeroed_matrix_block(chunk_row, chunk_col, height, width)?;
    blk.v().values().as_mut_slice().copy_from_slice(data);
    Ok(blk)
}

static NEXT_TMP: AtomicU64 = AtomicU64::new(0);

fn tmp_set() -> String {
    format!("__la_tmp_{}", NEXT_TMP.fetch_add(1, Ordering::Relaxed))
}

/// A handle to a distributed matrix: a stored set of `MatrixBlock`s plus
/// shape metadata.
#[derive(Clone)]
pub struct DistMatrix {
    pub client: PcClient,
    pub db: String,
    pub set: String,
    pub rows: usize,
    pub cols: usize,
    pub block_rows: usize,
    pub block_cols: usize,
}

/// The aggregation summing partial product blocks
/// (the paper's `LAMultiplyAggregate`). Values are packed page vectors
/// `[h, w, data...]` folded in place on the aggregation map pages.
struct SumPartials;

impl AggregateSpec for SumPartials {
    type In = MatrixBlock;
    type Key = (i32, i32);
    type Val = Handle<PcVec<f64>>;
    type Out = MatrixBlock;

    fn key_of(&self, rec: &Handle<MatrixBlock>) -> PcResult<(i32, i32)> {
        Ok((rec.v().chunk_row() as i32, rec.v().chunk_col() as i32))
    }

    fn init(&self, b: &BlockRef, rec: &Handle<MatrixBlock>) -> PcResult<Handle<PcVec<f64>>> {
        let src = rec.v().values();
        let v = b.make_object::<PcVec<f64>>()?;
        v.reserve(2 + src.len())?;
        v.extend_from_slice(&[rec.v().height() as f64, rec.v().width() as f64])?;
        v.extend_from_slice(src.as_slice())?;
        Ok(v)
    }

    fn combine(&self, b: &BlockRef, slot: u32, rec: &Handle<MatrixBlock>) -> PcResult<()> {
        let acc = <Handle<PcVec<f64>> as PcValue>::load(b, slot);
        let dst = acc.as_mut_slice();
        let src = rec.v().values();
        for (d, s) in dst[2..].iter_mut().zip(src.as_slice()) {
            *d += s;
        }
        Ok(())
    }

    fn merge(&self, dst: &BlockRef, dst_slot: u32, src: &BlockRef, src_slot: u32) -> PcResult<()> {
        let acc = <Handle<PcVec<f64>> as PcValue>::load(dst, dst_slot);
        let part = <Handle<PcVec<f64>> as PcValue>::load(src, src_slot);
        let d = acc.as_mut_slice();
        let s = part.as_slice();
        for (x, y) in d[2..].iter_mut().zip(&s[2..]) {
            *x += y;
        }
        Ok(())
    }

    fn finalize(&self, key: &(i32, i32), b: &BlockRef, slot: u32) -> PcResult<Handle<MatrixBlock>> {
        let acc = <Handle<PcVec<f64>> as PcValue>::load(b, slot);
        let s = acc.as_slice();
        let (h, w) = (s[0] as usize, s[1] as usize);
        make_matrix_block(key.0 as i64, key.1 as i64, h, w, &s[2..])
    }
}

impl DistMatrix {
    /// Chops a dense matrix into blocks and ships it into the cluster.
    pub fn from_dense(
        client: &PcClient,
        db: &str,
        set: &str,
        dense: &DenseMatrix,
        block_rows: usize,
        block_cols: usize,
    ) -> PcResult<DistMatrix> {
        if block_rows == 0 || block_cols == 0 {
            return Err(PcError::Catalog(format!(
                "from_dense: {block_rows}×{block_cols} blocks must be at least 1×1"
            )));
        }
        client.create_or_clear_set(db, set)?;
        let grid_cols = dense.cols.div_ceil(block_cols);
        let total = dense.rows.div_ceil(block_rows) * grid_cols;
        client.store(db, set, total, |i| {
            let (br, bc) = (i / grid_cols, i % grid_cols);
            let (r0, c0) = (br * block_rows, bc * block_cols);
            let h = block_rows.min(dense.rows - r0);
            let w = block_cols.min(dense.cols - c0);
            let blk = zeroed_matrix_block(br as i64, bc as i64, h, w)?;
            let vals = blk.v().values();
            for (i, row) in vals.as_mut_slice().chunks_exact_mut(w).enumerate() {
                row.copy_from_slice(&dense.data[(r0 + i) * dense.cols + c0..][..w]);
            }
            Ok(blk.erase())
        })?;
        Ok(DistMatrix {
            client: client.clone(),
            db: db.to_string(),
            set: set.to_string(),
            rows: dense.rows,
            cols: dense.cols,
            block_rows,
            block_cols,
        })
    }

    /// Gathers the distributed matrix back to a driver-side dense matrix.
    pub fn to_dense(&self) -> PcResult<DenseMatrix> {
        let mut out = DenseMatrix::zeros(self.rows, self.cols);
        for blk in self.blocks().collect()? {
            let r0 = blk.v().chunk_row() as usize * self.block_rows;
            let c0 = blk.v().chunk_col() as usize * self.block_cols;
            let (h, w) = (blk.v().height() as usize, blk.v().width() as usize);
            let vals = blk.v().values();
            let s = vals.as_slice();
            for i in 0..h {
                for j in 0..w {
                    out.set(r0 + i, c0 + j, s[i * w + j]);
                }
            }
        }
        Ok(out)
    }

    fn result(&self, set: String, rows: usize, cols: usize, br: usize, bc: usize) -> DistMatrix {
        DistMatrix {
            client: self.client.clone(),
            db: self.db.clone(),
            set,
            rows,
            cols,
            block_rows: br,
            block_cols: bc,
        }
    }

    /// `(rows, rows per block)`. A block taller than the matrix splits it
    /// as one exactly as tall would, so it counts as that.
    fn row_split(&self) -> (usize, usize) {
        (self.rows, self.block_rows.min(self.rows))
    }

    /// `(columns, columns per block)`, as `row_split`.
    fn col_split(&self) -> (usize, usize) {
        (self.cols, self.block_cols.min(self.cols))
    }

    /// Errors unless `ok`: `op`'s operands' shapes or block grids differ
    /// along an axis the operation pairs, so their blocks would not line
    /// up.
    fn conform(&self, other: &DistMatrix, op: &str, ok: bool) -> PcResult<()> {
        ok.then_some(()).ok_or_else(|| {
            let grid = |m: &DistMatrix| {
                let (r, c, br, bc) = (m.rows, m.cols, m.block_rows, m.block_cols);
                format!("{r}×{c} in {br}×{bc} blocks")
            };
            PcError::Catalog(format!(
                "{op}: {} and {} do not line up",
                grid(self),
                grid(other)
            ))
        })
    }

    /// The typed dataset over this matrix's stored blocks.
    fn blocks(&self) -> pc_core::Dataset<MatrixBlock> {
        self.client.set::<MatrixBlock>(&self.db, &self.set)
    }

    /// Distributed multiply `self · other` — a join on the inner block
    /// index feeding an aggregation, exactly the paper's
    /// `LAMultiplyJoin` + `LAMultiplyAggregate` pair.
    pub fn multiply(&self, other: &DistMatrix) -> PcResult<DistMatrix> {
        self.conform(other, "%*%", self.col_split() == other.row_split())?;
        let out = tmp_set();
        self.blocks()
            .join(
                &other.blocks(),
                |a, b| {
                    a.member("chunkCol", |m| m.v().chunk_col())
                        .eq(b.member("chunkRow", |m| m.v().chunk_row()))
                },
                "blockMultiply",
                |x, y| {
                    let (m, k) = (x.v().height() as usize, x.v().width() as usize);
                    let n = y.v().width() as usize;
                    debug_assert_eq!(k, y.v().height() as usize);
                    let out = zeroed_matrix_block(x.v().chunk_row(), y.v().chunk_col(), m, n)?;
                    let xv = x.v().values();
                    let yv = y.v().values();
                    let ov = out.v().values();
                    // Numeric work happens directly on page memory (the
                    // c_ptr trick).
                    kernels::matmul(xv.as_slice(), yv.as_slice(), ov.as_mut_slice(), m, k, n);
                    Ok(out)
                },
            )
            .aggregate(SumPartials)
            .write_to(&self.db, &out)
            .run(&self.client)?;
        Ok(self.result(
            out,
            self.rows,
            other.cols,
            self.block_rows,
            other.block_cols,
        ))
    }

    /// Distributed transpose-multiply `selfᵀ · other` (the DSL's `'*`):
    /// joins on the *row* block index, so a Gram matrix is a self-join.
    pub fn transpose_multiply(&self, other: &DistMatrix) -> PcResult<DistMatrix> {
        self.conform(other, "'*", self.row_split() == other.row_split())?;
        let out = tmp_set();
        self.blocks()
            .join(
                &other.blocks(),
                |a, b| {
                    a.member("chunkRow", |m| m.v().chunk_row())
                        .eq(b.member("chunkRow", |m| m.v().chunk_row()))
                },
                "blockAtB",
                |x, y| {
                    let (m, k) = (x.v().height() as usize, x.v().width() as usize);
                    let n = y.v().width() as usize;
                    debug_assert_eq!(m, y.v().height() as usize);
                    let out = zeroed_matrix_block(x.v().chunk_col(), y.v().chunk_col(), k, n)?;
                    let xv = x.v().values();
                    let yv = y.v().values();
                    let ov = out.v().values();
                    kernels::matmul_at_b(xv.as_slice(), yv.as_slice(), ov.as_mut_slice(), m, k, n);
                    Ok(out)
                },
            )
            .aggregate(SumPartials)
            .write_to(&self.db, &out)
            .run(&self.client)?;
        Ok(self.result(
            out,
            self.cols,
            other.cols,
            self.block_cols,
            other.block_cols,
        ))
    }

    /// Block-wise binary op (`+` / `-`): a join on the grid position.
    fn zip_with(
        &self,
        other: &DistMatrix,
        label: &str,
        f: fn(f64, f64) -> f64,
    ) -> PcResult<DistMatrix> {
        let same = (self.row_split(), self.col_split()) == (other.row_split(), other.col_split());
        self.conform(other, label, same)?;
        let out = tmp_set();
        let grid = |m: &Handle<MatrixBlock>| m.v().chunk_row() * 1_000_003 + m.v().chunk_col();
        self.blocks()
            .join(
                &other.blocks(),
                |a, b| a.method("gridKey", grid).eq(b.method("gridKey", grid)),
                label,
                move |x, y| {
                    let (h, w) = (x.v().height() as usize, x.v().width() as usize);
                    let out = zeroed_matrix_block(x.v().chunk_row(), x.v().chunk_col(), h, w)?;
                    let xs = x.v().values();
                    let ys = y.v().values();
                    let ov = out.v().values();
                    let o = ov.as_mut_slice();
                    for ((o, a), b) in o.iter_mut().zip(xs.as_slice()).zip(ys.as_slice()) {
                        *o = f(*a, *b);
                    }
                    Ok(out)
                },
            )
            .write_to(&self.db, &out)
            .run(&self.client)?;
        Ok(self.result(out, self.rows, self.cols, self.block_rows, self.block_cols))
    }

    pub fn add(&self, other: &DistMatrix) -> PcResult<DistMatrix> {
        self.zip_with(other, "blockAdd", |a, b| a + b)
    }

    pub fn subtract(&self, other: &DistMatrix) -> PcResult<DistMatrix> {
        self.zip_with(other, "blockSub", |a, b| a - b)
    }

    /// Element-wise scaling (a `SelectionComp`).
    pub fn scale(&self, alpha: f64) -> PcResult<DistMatrix> {
        let out = tmp_set();
        self.blocks()
            .select("blockScale", move |x| {
                let (h, w) = (x.v().height() as usize, x.v().width() as usize);
                let out = zeroed_matrix_block(x.v().chunk_row(), x.v().chunk_col(), h, w)?;
                let xs = x.v().values();
                let ov = out.v().values();
                for (o, v) in ov.as_mut_slice().iter_mut().zip(xs.as_slice()) {
                    *o = v * alpha;
                }
                Ok(out)
            })
            .write_to(&self.db, &out)
            .run(&self.client)?;
        Ok(self.result(out, self.rows, self.cols, self.block_rows, self.block_cols))
    }

    /// Distributed transpose (a `SelectionComp` swapping grid indices and
    /// transposing each chunk in place on the output page).
    pub fn transpose(&self) -> PcResult<DistMatrix> {
        let out = tmp_set();
        self.blocks()
            .select("blockTranspose", |x| {
                let (h, w) = (x.v().height() as usize, x.v().width() as usize);
                let out = zeroed_matrix_block(x.v().chunk_col(), x.v().chunk_row(), w, h)?;
                let xs = x.v().values();
                let ov = out.v().values();
                kernels::transpose(xs.as_slice(), ov.as_mut_slice(), h, w);
                Ok(out)
            })
            .write_to(&self.db, &out)
            .run(&self.client)?;
        Ok(self.result(out, self.cols, self.rows, self.block_cols, self.block_rows))
    }

    /// Per-row sums as an n×1 distributed matrix: a `SelectionComp`
    /// producing per-chunk row sums followed by an `AggregateComp` summing
    /// across column chunks.
    pub fn row_sum(&self) -> PcResult<DistMatrix> {
        let out = tmp_set();
        self.blocks()
            .select("chunkRowSum", |x| {
                let (h, w) = (x.v().height() as usize, x.v().width() as usize);
                let out = zeroed_matrix_block(x.v().chunk_row(), 0, h, 1)?;
                let xs = x.v().values();
                let s = xs.as_slice();
                let ov = out.v().values();
                let o = ov.as_mut_slice();
                for (r, o) in o.iter_mut().enumerate() {
                    *o = s[r * w..(r + 1) * w].iter().sum();
                }
                Ok(out)
            })
            .aggregate(SumPartials)
            .write_to(&self.db, &out)
            .run(&self.client)?;
        Ok(self.result(out, self.rows, 1, self.block_rows, 1))
    }

    /// Per-column sums as a 1×n distributed matrix.
    pub fn col_sum(&self) -> PcResult<DistMatrix> {
        self.transpose()?.row_sum()
    }

    /// The minimum element (gathered reduction over the blocks).
    pub fn min_element(&self) -> PcResult<f64> {
        self.fold_elements(f64::INFINITY, f64::min)
    }

    /// The maximum element.
    pub fn max_element(&self) -> PcResult<f64> {
        self.fold_elements(f64::NEG_INFINITY, f64::max)
    }

    fn fold_elements(&self, init: f64, f: fn(f64, f64) -> f64) -> PcResult<f64> {
        let mut acc = init;
        for blk in self.blocks().collect()? {
            let vals = blk.v().values();
            for v in vals.as_slice() {
                acc = f(acc, *v);
            }
        }
        Ok(acc)
    }

    /// Gathers, inverts on the driver (valid for small matrices, like the
    /// normal-equation solve), and redistributes.
    pub fn inverse(&self) -> PcResult<DistMatrix> {
        let dense = self.to_dense()?;
        let inv = dense.inverse().map_err(PcError::Catalog)?;
        let out = tmp_set();
        DistMatrix::from_dense(
            &self.client,
            &self.db,
            &out,
            &inv,
            self.block_rows,
            self.block_cols,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_dense(r: usize, c: usize, seed: u64) -> DenseMatrix {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 500.0 - 1.0
        };
        DenseMatrix {
            rows: r,
            cols: c,
            data: (0..r * c).map(|_| next()).collect(),
        }
    }

    #[test]
    fn distributed_multiply_matches_dense() {
        let client = PcClient::local_small().unwrap();
        let a = rand_dense(30, 20, 1);
        let b = rand_dense(20, 25, 2);
        let da = DistMatrix::from_dense(&client, "la", "a", &a, 8, 8).unwrap();
        let db = DistMatrix::from_dense(&client, "la", "b", &b, 8, 8).unwrap();
        let dc = da.multiply(&db).unwrap();
        let got = dc.to_dense().unwrap();
        let want = a.matmul(&b);
        assert!(
            got.max_abs_diff(&want) < 1e-9,
            "diff {}",
            got.max_abs_diff(&want)
        );
    }

    #[test]
    fn gram_matrix_via_transpose_multiply() {
        let client = PcClient::local_small().unwrap();
        let x = rand_dense(40, 6, 3);
        let dx = DistMatrix::from_dense(&client, "la", "x", &x, 16, 6).unwrap();
        let gram = dx.transpose_multiply(&dx).unwrap().to_dense().unwrap();
        let want = x.transposed().matmul(&x);
        assert!(gram.max_abs_diff(&want) < 1e-9);
    }

    #[test]
    fn row_and_col_sums_match_dense() {
        let client = PcClient::local_small().unwrap();
        let a = rand_dense(22, 13, 8);
        let da = DistMatrix::from_dense(&client, "la", "sums", &a, 7, 5).unwrap();
        let rs = da.row_sum().unwrap().to_dense().unwrap();
        for i in 0..22 {
            let want: f64 = (0..13).map(|j| a.at(i, j)).sum();
            assert!((rs.at(i, 0) - want).abs() < 1e-9, "row {i}");
        }
        let cs = da.col_sum().unwrap().to_dense().unwrap();
        for j in 0..13 {
            let want: f64 = (0..22).map(|i| a.at(i, j)).sum();
            assert!((cs.at(j, 0) - want).abs() < 1e-9, "col {j}");
        }
        let mn = da.min_element().unwrap();
        let mx = da.max_element().unwrap();
        assert_eq!(mn, a.data.iter().cloned().fold(f64::INFINITY, f64::min));
        assert_eq!(mx, a.data.iter().cloned().fold(f64::NEG_INFINITY, f64::max));
    }

    #[test]
    fn add_scale_transpose_roundtrip() {
        let client = PcClient::local_small().unwrap();
        let a = rand_dense(15, 9, 4);
        let da = DistMatrix::from_dense(&client, "la", "aa", &a, 4, 4).unwrap();
        let doubled = da.add(&da).unwrap().to_dense().unwrap();
        let scaled = da.scale(2.0).unwrap().to_dense().unwrap();
        assert!(doubled.max_abs_diff(&scaled) < 1e-12);
        let t = da.transpose().unwrap().to_dense().unwrap();
        assert_eq!(t, a.transposed());
    }

    /// A zero block dimension never advanced the chunking loop.
    #[test]
    fn empty_blocks_are_an_error() {
        let client = PcClient::local_small().unwrap();
        let a = rand_dense(3, 3, 6);
        for (br, bc) in [(0, 2), (2, 0), (0, 0)] {
            assert!(DistMatrix::from_dense(&client, "la", "z", &a, br, bc).is_err());
        }
    }
}
