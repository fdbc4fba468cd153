//! Packed symmetric distance matrix.
//!
//! This is the paper's Figure 2: an object-by-object structure where only
//! entries below the diagonal are stored because `d[i][j] = d[j][i]` and
//! `d[i][i] = 0`. The `m·(m−1)/2` entries are kept in a single contiguous
//! vector in row-major lower-triangular order.

use serde::{Deserialize, Serialize};

use crate::error::ClusterError;

/// Below this many elements the parallel reductions run sequentially:
/// thread spawn latency dwarfs the loop itself for small matrices.
const MIN_PARALLEL_LEN: usize = 1 << 14;

/// Contiguous partition lengths for splitting `len` elements across
/// `threads` workers: the deterministic split every parallel reduction in
/// this module uses, so partition boundaries (and thus combine order) never
/// depend on scheduling. Returns a single partition when parallelism is not
/// worth it.
fn partition_sizes(len: usize, threads: usize) -> Vec<usize> {
    let workers = threads.min(len / (MIN_PARALLEL_LEN / 2)).max(1);
    if workers < 2 || len < MIN_PARALLEL_LEN {
        return vec![len];
    }
    let base = len / workers;
    let extra = len % workers;
    (0..workers)
        .map(|i| base + usize::from(i < extra))
        .collect()
}

/// A condensed (lower-triangular, zero-diagonal) distance matrix over `n`
/// objects.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CondensedDistanceMatrix {
    n: usize,
    /// Entry `(i, j)` with `i > j` lives at `i·(i−1)/2 + j`.
    values: Vec<f64>,
}

impl CondensedDistanceMatrix {
    /// Creates an all-zero matrix over `n` objects.
    pub fn zeros(n: usize) -> Self {
        CondensedDistanceMatrix {
            n,
            values: vec![0.0; n * (n.saturating_sub(1)) / 2],
        }
    }

    /// Creates a matrix from the packed lower-triangular values.
    pub fn from_condensed(n: usize, values: Vec<f64>) -> Result<Self, ClusterError> {
        let expected = n * n.saturating_sub(1) / 2;
        if values.len() != expected {
            return Err(ClusterError::DimensionMismatch {
                expected,
                got: values.len(),
            });
        }
        Ok(CondensedDistanceMatrix { n, values })
    }

    /// Creates a matrix by evaluating `f(i, j)` for every pair `i > j`.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(n: usize, mut f: F) -> Self {
        let mut m = CondensedDistanceMatrix::zeros(n);
        for i in 1..n {
            for j in 0..i {
                let v = f(i, j);
                m.set(i, j, v);
            }
        }
        m
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix covers zero objects.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The packed values (row-major lower triangle).
    pub fn condensed_values(&self) -> &[f64] {
        &self.values
    }

    #[inline]
    fn offset(&self, i: usize, j: usize) -> usize {
        debug_assert!(i != j && i < self.n && j < self.n);
        let (hi, lo) = if i > j { (i, j) } else { (j, i) };
        hi * (hi - 1) / 2 + lo
    }

    /// Distance between objects `i` and `j` (0 when `i == j`).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "index out of bounds");
        if i == j {
            0.0
        } else {
            self.values[self.offset(i, j)]
        }
    }

    /// Checked variant of [`get`](Self::get).
    pub fn try_get(&self, i: usize, j: usize) -> Result<f64, ClusterError> {
        if i >= self.n {
            return Err(ClusterError::IndexOutOfBounds {
                index: i,
                size: self.n,
            });
        }
        if j >= self.n {
            return Err(ClusterError::IndexOutOfBounds {
                index: j,
                size: self.n,
            });
        }
        Ok(self.get(i, j))
    }

    /// Sets the distance between `i` and `j` (`i != j`).
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        assert!(i < self.n && j < self.n, "index out of bounds");
        assert!(i != j, "diagonal entries are fixed at zero");
        let off = self.offset(i, j);
        self.values[off] = value;
    }

    /// Largest stored distance (0 for matrices with fewer than two objects).
    pub fn max_value(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }

    /// [`max_value`](Self::max_value) computed by `threads` scoped workers
    /// over contiguous partitions of the condensed vector.
    ///
    /// Bit-identical to the sequential fold: each partition folds
    /// left-to-right from `0.0` exactly as the sequential loop does, and the
    /// per-partition maxima are combined in partition order. Because `max`
    /// over (NaN-free) floats is associative and the sequential fold also
    /// starts at `0.0`, regrouping the fold at partition boundaries selects
    /// the same value. Distances here are non-negative protocol outputs, so
    /// the NaN/`-0.0` caveats of IEEE `maxNum` never arise.
    pub fn max_value_parallel(&self, threads: usize) -> f64 {
        let partitions = partition_sizes(self.values.len(), threads);
        if partitions.len() < 2 {
            return self.max_value();
        }
        let mut maxima = vec![0.0f64; partitions.len()];
        std::thread::scope(|scope| {
            let mut rest = &self.values[..];
            for (&size, out) in partitions.iter().zip(&mut maxima) {
                let (part, tail) = rest.split_at(size);
                rest = tail;
                scope.spawn(move || *out = part.iter().copied().fold(0.0, f64::max));
            }
        });
        maxima.into_iter().fold(0.0, f64::max)
    }

    /// Smallest stored distance between distinct objects.
    pub fn min_value(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Divides every entry by the maximum, scaling distances into `[0, 1]`.
    ///
    /// This is the paper's normalisation step (§5 step 4); matrices whose
    /// maximum is zero are left untouched.
    pub fn normalize_max(&mut self) {
        let max = self.max_value();
        if max > 0.0 {
            for v in &mut self.values {
                *v /= max;
            }
        }
    }

    /// Adds `scale · other` element-wise into `self` without allocating.
    ///
    /// This is the building block of the paper's §5 merge: callers fold
    /// `weight / max` of each per-attribute matrix straight into one
    /// accumulator, so neither a normalised copy of the attribute matrix nor
    /// an intermediate weighted matrix is ever materialised.
    pub fn accumulate_scaled(
        &mut self,
        other: &CondensedDistanceMatrix,
        scale: f64,
    ) -> Result<(), ClusterError> {
        if other.n != self.n {
            return Err(ClusterError::DimensionMismatch {
                expected: self.n,
                got: other.n,
            });
        }
        if scale < 0.0 || !scale.is_finite() {
            return Err(ClusterError::InvalidParameter(format!(
                "accumulation scale must be finite and non-negative, got {scale}"
            )));
        }
        for (o, &v) in self.values.iter_mut().zip(&other.values) {
            *o += scale * v;
        }
        Ok(())
    }

    /// [`accumulate_scaled`](Self::accumulate_scaled) with the element loop
    /// split across `threads` scoped workers on contiguous index ranges.
    ///
    /// `*o += scale · v` touches each element independently, so any
    /// partitioning performs exactly the sequential per-element operations —
    /// the result is bit-identical regardless of thread count.
    pub fn accumulate_scaled_parallel(
        &mut self,
        other: &CondensedDistanceMatrix,
        scale: f64,
        threads: usize,
    ) -> Result<(), ClusterError> {
        if other.n != self.n {
            return Err(ClusterError::DimensionMismatch {
                expected: self.n,
                got: other.n,
            });
        }
        if scale < 0.0 || !scale.is_finite() {
            return Err(ClusterError::InvalidParameter(format!(
                "accumulation scale must be finite and non-negative, got {scale}"
            )));
        }
        let partitions = partition_sizes(self.values.len(), threads);
        if partitions.len() < 2 {
            for (o, &v) in self.values.iter_mut().zip(&other.values) {
                *o += scale * v;
            }
            return Ok(());
        }
        std::thread::scope(|scope| {
            let mut acc_rest = &mut self.values[..];
            let mut src_rest = &other.values[..];
            for &size in &partitions {
                let (acc, acc_tail) = acc_rest.split_at_mut(size);
                let (src, src_tail) = src_rest.split_at(size);
                acc_rest = acc_tail;
                src_rest = src_tail;
                scope.spawn(move || {
                    for (o, &v) in acc.iter_mut().zip(src) {
                        *o += scale * v;
                    }
                });
            }
        });
        Ok(())
    }

    /// Returns a weighted element-wise combination of per-attribute
    /// matrices: `Σ w_a · d_a`, the paper's merge of per-attribute
    /// dissimilarity matrices under a weight vector.
    pub fn weighted_merge(
        matrices: &[CondensedDistanceMatrix],
        weights: &[f64],
    ) -> Result<CondensedDistanceMatrix, ClusterError> {
        if matrices.is_empty() {
            return Err(ClusterError::EmptyInput);
        }
        if matrices.len() != weights.len() {
            return Err(ClusterError::DimensionMismatch {
                expected: matrices.len(),
                got: weights.len(),
            });
        }
        let n = matrices[0].n;
        for m in matrices {
            if m.n != n {
                return Err(ClusterError::DimensionMismatch {
                    expected: n,
                    got: m.n,
                });
            }
        }
        let mut out = CondensedDistanceMatrix::zeros(n);
        for (m, &w) in matrices.iter().zip(weights) {
            if w < 0.0 {
                return Err(ClusterError::InvalidParameter(format!(
                    "negative attribute weight {w}"
                )));
            }
            for (o, &v) in out.values.iter_mut().zip(&m.values) {
                *o += w * v;
            }
        }
        Ok(out)
    }

    /// Scatters a rectangular cross-block of distances into the condensed
    /// triangle: entry `(row_offset + m, col_offset + n)` takes
    /// `values[m · cols + n]`.
    ///
    /// This is the incremental counterpart of merging a whole
    /// `rows × cols` pairwise block at the end: the chunked protocol
    /// streams deliver a few rows at a time (`row_offset` advancing with
    /// each chunk) and the accumulator absorbs them as they arrive. The
    /// block must sit strictly below the diagonal
    /// (`col_offset + cols ≤ row_offset`).
    pub fn set_block(
        &mut self,
        row_offset: usize,
        col_offset: usize,
        cols: usize,
        values: &[f64],
    ) -> Result<(), ClusterError> {
        if cols == 0 {
            return Ok(());
        }
        if !values.len().is_multiple_of(cols) {
            return Err(ClusterError::DimensionMismatch {
                expected: cols,
                got: values.len(),
            });
        }
        let rows = values.len() / cols;
        if col_offset + cols > row_offset {
            return Err(ClusterError::InvalidParameter(format!(
                "block columns {}..{} overlap rows starting at {row_offset}",
                col_offset,
                col_offset + cols
            )));
        }
        if row_offset + rows > self.n {
            return Err(ClusterError::IndexOutOfBounds {
                index: row_offset + rows,
                size: self.n,
            });
        }
        for (m, row) in values.chunks_exact(cols).enumerate() {
            let i = row_offset + m;
            let base = i * (i - 1) / 2 + col_offset;
            self.values[base..base + cols].copy_from_slice(row);
        }
        Ok(())
    }

    /// Copies a whole smaller matrix onto the diagonal block that starts at
    /// object `offset`: entry `(offset + i, offset + j)` takes
    /// `local.get(i, j)`. Row `i` of the local triangle is contiguous in
    /// both layouts, so each row is one slice copy.
    pub fn set_triangle(
        &mut self,
        offset: usize,
        local: &CondensedDistanceMatrix,
    ) -> Result<(), ClusterError> {
        if offset + local.n > self.n {
            return Err(ClusterError::IndexOutOfBounds {
                index: offset + local.n,
                size: self.n,
            });
        }
        for i in 1..local.n {
            let from = i * (i - 1) / 2;
            let row = offset + i;
            let to = row * (row - 1) / 2 + offset;
            self.values[to..to + i].copy_from_slice(&local.values[from..from + i]);
        }
        Ok(())
    }

    /// Maximum absolute element-wise difference to another matrix of the
    /// same size (∞ if sizes differ). Used by the accuracy experiments to
    /// show the privacy-preserving matrix equals the centralized one.
    pub fn max_abs_difference(&self, other: &CondensedDistanceMatrix) -> f64 {
        if self.n != other.n {
            return f64::INFINITY;
        }
        self.values
            .iter()
            .zip(&other.values)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

/// Incrementally merges normalised, weighted per-attribute matrices into
/// one final matrix.
///
/// The whole-matrix path collects every per-attribute matrix and merges
/// them at the end; a streaming session instead folds each attribute in as
/// soon as it completes and then drops it, so at most one per-attribute
/// matrix is alive alongside the accumulator. Pushing
/// `(weight / max) · d_a` here performs exactly the same float operations
/// in the same order as the batch merge, so the two paths produce
/// bit-identical results.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeAccumulator {
    acc: CondensedDistanceMatrix,
    attributes: usize,
}

impl MergeAccumulator {
    /// Creates an empty accumulator over `n` objects.
    pub fn new(n: usize) -> Self {
        MergeAccumulator {
            acc: CondensedDistanceMatrix::zeros(n),
            attributes: 0,
        }
    }

    /// Folds one completed attribute matrix in under `weight`, normalising
    /// by the matrix's maximum (the paper's §5 step 4, without a copy).
    pub fn push_normalized(
        &mut self,
        matrix: &CondensedDistanceMatrix,
        weight: f64,
    ) -> Result<(), ClusterError> {
        let max = matrix.max_value();
        let scale = if max > 0.0 { weight / max } else { weight };
        self.acc.accumulate_scaled(matrix, scale)?;
        self.attributes += 1;
        Ok(())
    }

    /// [`push_normalized`](Self::push_normalized) with both the maximum
    /// reduction and the scaled accumulation split across `threads` scoped
    /// workers. Bit-identical to the sequential fold for any thread count
    /// (see [`CondensedDistanceMatrix::max_value_parallel`] and
    /// [`CondensedDistanceMatrix::accumulate_scaled_parallel`]); small
    /// matrices fall back to the sequential loops rather than paying thread
    /// spawn latency.
    pub fn push_normalized_parallel(
        &mut self,
        matrix: &CondensedDistanceMatrix,
        weight: f64,
        threads: usize,
    ) -> Result<(), ClusterError> {
        let max = matrix.max_value_parallel(threads);
        let scale = if max > 0.0 { weight / max } else { weight };
        self.acc
            .accumulate_scaled_parallel(matrix, scale, threads)?;
        self.attributes += 1;
        Ok(())
    }

    /// Number of attributes folded so far.
    pub fn attributes(&self) -> usize {
        self.attributes
    }

    /// Consumes the accumulator, yielding the merged matrix.
    pub fn finish(self) -> CondensedDistanceMatrix {
        self.acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_indexing() {
        let mut m = CondensedDistanceMatrix::zeros(4);
        assert_eq!(m.len(), 4);
        assert_eq!(m.condensed_values().len(), 6);
        m.set(2, 0, 1.5);
        assert_eq!(m.get(2, 0), 1.5);
        assert_eq!(m.get(0, 2), 1.5); // symmetry
        assert_eq!(m.get(1, 1), 0.0); // diagonal
        assert_eq!(m.get(3, 1), 0.0);
    }

    #[test]
    #[should_panic(expected = "diagonal")]
    fn setting_diagonal_panics() {
        let mut m = CondensedDistanceMatrix::zeros(3);
        m.set(1, 1, 2.0);
    }

    #[test]
    fn try_get_bounds_checks() {
        let m = CondensedDistanceMatrix::zeros(3);
        assert!(m.try_get(0, 2).is_ok());
        assert!(m.try_get(3, 0).is_err());
        assert!(m.try_get(0, 3).is_err());
    }

    #[test]
    fn from_condensed_validates_length() {
        assert!(CondensedDistanceMatrix::from_condensed(3, vec![1.0, 2.0, 3.0]).is_ok());
        assert!(CondensedDistanceMatrix::from_condensed(3, vec![1.0]).is_err());
        assert!(CondensedDistanceMatrix::from_condensed(0, vec![]).is_ok());
        assert!(CondensedDistanceMatrix::from_condensed(1, vec![]).is_ok());
    }

    #[test]
    fn from_fn_fills_all_pairs_symmetrically() {
        let m = CondensedDistanceMatrix::from_fn(4, |i, j| (i + j) as f64);
        assert_eq!(m.get(3, 1), 4.0);
        assert_eq!(m.get(1, 3), 4.0);
        assert_eq!(m.get(1, 0), 1.0);
    }

    #[test]
    fn normalize_scales_to_unit_interval() {
        let mut m = CondensedDistanceMatrix::from_fn(4, |i, j| (i * 10 + j) as f64);
        m.normalize_max();
        assert!((m.max_value() - 1.0).abs() < 1e-12);
        assert!(m.min_value() >= 0.0);
        // Normalising an all-zero matrix is a no-op.
        let mut z = CondensedDistanceMatrix::zeros(3);
        z.normalize_max();
        assert_eq!(z.max_value(), 0.0);
    }

    #[test]
    fn weighted_merge_combines_attributes() {
        let a = CondensedDistanceMatrix::from_fn(3, |_, _| 1.0);
        let b = CondensedDistanceMatrix::from_fn(3, |_, _| 2.0);
        let merged = CondensedDistanceMatrix::weighted_merge(&[a, b], &[0.25, 0.5]).unwrap();
        assert!((merged.get(2, 1) - (0.25 + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn weighted_merge_validates_inputs() {
        let a = CondensedDistanceMatrix::zeros(3);
        let b = CondensedDistanceMatrix::zeros(4);
        assert!(CondensedDistanceMatrix::weighted_merge(&[], &[]).is_err());
        assert!(
            CondensedDistanceMatrix::weighted_merge(std::slice::from_ref(&a), &[0.5, 0.5]).is_err()
        );
        assert!(CondensedDistanceMatrix::weighted_merge(&[a.clone(), b], &[1.0, 1.0]).is_err());
        assert!(CondensedDistanceMatrix::weighted_merge(&[a], &[-1.0]).is_err());
    }

    #[test]
    fn set_block_scatters_chunked_rows() {
        // Sites of sizes 2 and 3: the cross block is 3×2 at (2, 0).
        let mut whole = CondensedDistanceMatrix::zeros(5);
        let block: Vec<f64> = (0..6).map(|v| v as f64 + 1.0).collect();
        for (m, row) in block.chunks_exact(2).enumerate() {
            for (n, &d) in row.iter().enumerate() {
                whole.set(2 + m, n, d);
            }
        }
        // Deliver the same block as a 2-row chunk followed by a 1-row chunk.
        let mut chunked = CondensedDistanceMatrix::zeros(5);
        chunked.set_block(2, 0, 2, &block[..4]).unwrap();
        chunked.set_block(4, 0, 2, &block[4..]).unwrap();
        assert_eq!(whole, chunked);
    }

    #[test]
    fn set_triangle_equals_setting_every_entry() {
        for (n, offset, k) in [(9, 3, 5), (9, 0, 9), (6, 5, 1), (6, 6, 0), (7, 2, 2)] {
            let local = CondensedDistanceMatrix::from_fn(k, |i, j| (i * 10 + j) as f64 + 0.5);
            let mut fast = CondensedDistanceMatrix::from_fn(n, |i, j| -((i * n + j) as f64));
            let mut slow = fast.clone();
            fast.set_triangle(offset, &local).unwrap();
            for i in 1..k {
                for j in 0..i {
                    slow.set(offset + i, offset + j, local.get(i, j));
                }
            }
            assert_eq!(fast, slow, "n={n} offset={offset} k={k}");
        }
        let mut m = CondensedDistanceMatrix::zeros(4);
        assert!(m
            .set_triangle(2, &CondensedDistanceMatrix::zeros(3))
            .is_err());
    }

    #[test]
    fn set_block_validates_shape_and_bounds() {
        let mut m = CondensedDistanceMatrix::zeros(5);
        // Ragged value count.
        assert!(m.set_block(2, 0, 2, &[1.0, 2.0, 3.0]).is_err());
        // Block reaching onto/above the diagonal.
        assert!(m.set_block(1, 0, 2, &[1.0, 2.0]).is_err());
        // Rows past the end of the matrix.
        assert!(m.set_block(4, 0, 2, &[1.0, 2.0, 3.0, 4.0]).is_err());
        // Zero columns is a no-op.
        assert!(m.set_block(2, 0, 0, &[]).is_ok());
    }

    #[test]
    fn merge_accumulator_matches_batch_weighted_merge() {
        let a = CondensedDistanceMatrix::from_fn(4, |i, j| (i * 3 + j) as f64);
        let b = CondensedDistanceMatrix::from_fn(4, |i, j| (10 + i + j) as f64);
        // Batch path: normalise by max, then weight (the DissimilarityMatrix
        // merge semantics).
        let mut batch = CondensedDistanceMatrix::zeros(4);
        for (m, w) in [(&a, 0.25), (&b, 0.75)] {
            batch.accumulate_scaled(m, w / m.max_value()).unwrap();
        }
        // Streaming path: one attribute at a time.
        let mut acc = MergeAccumulator::new(4);
        acc.push_normalized(&a, 0.25).unwrap();
        acc.push_normalized(&b, 0.75).unwrap();
        assert_eq!(acc.attributes(), 2);
        let streamed = acc.finish();
        assert_eq!(batch, streamed);
        // All-zero attribute matrices contribute nothing but still count.
        let mut acc = MergeAccumulator::new(4);
        acc.push_normalized(&CondensedDistanceMatrix::zeros(4), 1.0)
            .unwrap();
        assert_eq!(acc.finish().max_value(), 0.0);
        // Size mismatches are rejected.
        let mut acc = MergeAccumulator::new(3);
        assert!(acc.push_normalized(&a, 1.0).is_err());
    }

    /// Deterministic pseudo-random distance matrix big enough that
    /// `partition_sizes` actually splits it (n = 200 ⇒ 19 900 entries, above
    /// `MIN_PARALLEL_LEN`).
    fn large_matrix(seed: u64) -> CondensedDistanceMatrix {
        let mut state = seed
            .wrapping_mul(2862933555777941757)
            .wrapping_add(3037000493);
        CondensedDistanceMatrix::from_fn(200, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * 997.0
        })
    }

    #[test]
    fn parallel_max_is_bit_identical_at_all_thread_counts() {
        for seed in [1u64, 7, 42] {
            let m = large_matrix(seed);
            let expected = m.max_value().to_bits();
            for threads in [1usize, 2, 4, 16] {
                assert_eq!(m.max_value_parallel(threads).to_bits(), expected);
            }
        }
        // Small matrices take the sequential fallback but stay identical.
        let small = CondensedDistanceMatrix::from_fn(5, |i, j| (i * j) as f64);
        assert_eq!(small.max_value_parallel(4), small.max_value());
        assert_eq!(CondensedDistanceMatrix::zeros(0).max_value_parallel(4), 0.0);
    }

    #[test]
    fn parallel_accumulate_is_bit_identical_at_all_thread_counts() {
        let src = large_matrix(3);
        let mut sequential = large_matrix(9);
        sequential.accumulate_scaled(&src, 0.375).unwrap();
        for threads in [1usize, 2, 4] {
            let mut parallel = large_matrix(9);
            parallel
                .accumulate_scaled_parallel(&src, 0.375, threads)
                .unwrap();
            let bits_match = parallel
                .condensed_values()
                .iter()
                .zip(sequential.condensed_values())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(bits_match, "accumulate diverged at {threads} threads");
        }
        // Shares the sequential path's validation.
        let mut wrong = CondensedDistanceMatrix::zeros(3);
        assert!(wrong.accumulate_scaled_parallel(&src, 1.0, 4).is_err());
        let mut ok = large_matrix(9);
        assert!(ok.accumulate_scaled_parallel(&src, -1.0, 4).is_err());
        assert!(ok.accumulate_scaled_parallel(&src, f64::NAN, 4).is_err());
    }

    #[test]
    fn parallel_push_normalized_is_bit_identical_at_all_thread_counts() {
        let attrs = [large_matrix(11), large_matrix(12), large_matrix(13)];
        let weights = [0.5, 0.25, 0.25];
        let mut sequential = MergeAccumulator::new(200);
        for (m, &w) in attrs.iter().zip(&weights) {
            sequential.push_normalized(m, w).unwrap();
        }
        let expected = sequential.finish();
        for threads in [1usize, 2, 4] {
            let mut acc = MergeAccumulator::new(200);
            for (m, &w) in attrs.iter().zip(&weights) {
                acc.push_normalized_parallel(m, w, threads).unwrap();
            }
            assert_eq!(acc.attributes(), 3);
            let merged = acc.finish();
            let bits_match = merged
                .condensed_values()
                .iter()
                .zip(expected.condensed_values())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(bits_match, "merge diverged at {threads} threads");
        }
    }

    #[test]
    fn max_abs_difference_detects_mismatch() {
        let a = CondensedDistanceMatrix::from_fn(3, |i, j| (i + j) as f64);
        let mut b = a.clone();
        assert_eq!(a.max_abs_difference(&b), 0.0);
        b.set(2, 1, 100.0);
        assert!(a.max_abs_difference(&b) > 90.0);
        let c = CondensedDistanceMatrix::zeros(4);
        assert!(a.max_abs_difference(&c).is_infinite());
    }
}
