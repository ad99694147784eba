//! Multithreaded fused CSR pattern kernel with a deterministic
//! reduction tree.
//!
//! The work decomposition is *canonical*: the matrix's rows are split
//! into a fixed number of contiguous blocks (default
//! [`CANONICAL_BLOCKS`]), each block gets its own accumulator, and the
//! main thread folds the block partials in ascending block order.
//! Threads claim contiguous runs of blocks, so the set of per-block
//! partial sums — and the order they are combined in — depends only on
//! the matrix shape and the block count, never on how many threads ran
//! or how the OS scheduled them. That is what makes the result
//! **bit-identical across thread counts**, the property
//! `tests/executor_equivalence.rs` locks in.
//!
//! With a single block the kernel degenerates to the single-threaded
//! fused pass and is bit-identical to [`super::fused_pattern_csr`].

use super::{pattern_epilogue, KernelExecutor};
use fusedml_matrix::CsrMatrix;

/// Default block count for the canonical row partition. Chosen larger
/// than typical core counts so threads load-balance, and fixed so the
/// reduction tree (and therefore the bits) never varies with hardware.
pub const CANONICAL_BLOCKS: usize = 8;

/// Preallocated per-block accumulators, so repeated kernel invocations
/// (warm-up + timed repeats) run allocation-free.
pub struct MtWorkspace {
    partials: Vec<Vec<f64>>,
}

impl MtWorkspace {
    /// Workspace for a matrix with `cols` columns and `blocks` canonical
    /// blocks (use the same value the [`MtFused`] was configured with).
    pub fn new(cols: usize, blocks: usize) -> Self {
        MtWorkspace {
            partials: vec![vec![0.0; cols]; blocks.max(1)],
        }
    }
}

/// Multithreaded fused evaluator for the Equation-1 pattern on CSR
/// input, layering `std::thread::scope` row-block parallelism over any
/// [`KernelExecutor`]'s single-pass row kernel.
pub struct MtFused<'e> {
    exec: &'e dyn KernelExecutor,
    threads: usize,
    blocks: usize,
    row_map: Option<&'e [u32]>,
}

impl<'e> MtFused<'e> {
    /// Fused evaluator running `threads` worker threads over the default
    /// canonical partition.
    pub fn new(exec: &'e dyn KernelExecutor, threads: usize) -> Self {
        MtFused {
            exec,
            threads: threads.max(1),
            blocks: CANONICAL_BLOCKS,
            row_map: None,
        }
    }

    /// Override the canonical block count (tests use this to exercise
    /// non-dividing partitions). Different block counts produce
    /// different — each internally deterministic — reduction trees.
    pub fn with_blocks(mut self, blocks: usize) -> Self {
        self.blocks = blocks.max(1);
        self
    }

    /// Evaluate over a matrix whose stored row `i` is original row
    /// `row_map[i]` (`None`: the original order), with each block's map a
    /// permutation of that block's rows — what
    /// `CsrMatrix::group_rows_by_length` gives for [`Self::block_rows`].
    /// `v` stays indexed by original row. Every block then sums the same
    /// rows as in the original order, so the fold is unchanged and the
    /// result is still bit-identical across thread counts; only the
    /// scatter order inside a block differs.
    pub fn with_row_map(mut self, row_map: Option<&'e [u32]>) -> Self {
        self.row_map = row_map;
        self
    }

    /// Rows per canonical block of a `rows`-row matrix: block `b` is rows
    /// `b * block_rows .. (b + 1) * block_rows`, clipped to the matrix.
    pub fn block_rows(&self, rows: usize) -> usize {
        rows.div_ceil(self.blocks.min(rows.max(1))).max(1)
    }

    /// Worker thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Canonical block count.
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// The executor each worker runs row kernels through.
    pub fn executor(&self) -> &'e dyn KernelExecutor {
        self.exec
    }

    /// Fused `w = alpha * X^T (v ⊙ (X y)) + beta * z`, allocating its
    /// workspace internally. See [`Self::pattern_csr_with`].
    #[allow(clippy::too_many_arguments)]
    pub fn pattern_csr(
        &self,
        alpha: f64,
        x: &CsrMatrix,
        v: Option<&[f64]>,
        y: &[f64],
        beta: f64,
        z: Option<&[f64]>,
        w: &mut [f64],
    ) {
        let mut ws = MtWorkspace::new(x.cols(), self.blocks);
        self.pattern_csr_with(&mut ws, alpha, x, v, y, beta, z, w);
    }

    /// Fused pattern evaluation into `w` using a caller-provided
    /// workspace (no allocation — what wall-clock measurement calls).
    ///
    /// Each worker computes whole blocks with the executor's
    /// [`KernelExecutor::fused_pattern_rows_csr_mapped`] single pass; the main
    /// thread then folds block partials in ascending block index.
    #[allow(clippy::too_many_arguments)]
    pub fn pattern_csr_with(
        &self,
        ws: &mut MtWorkspace,
        alpha: f64,
        x: &CsrMatrix,
        v: Option<&[f64]>,
        y: &[f64],
        beta: f64,
        z: Option<&[f64]>,
        w: &mut [f64],
    ) {
        let rows = x.rows();
        let cols = x.cols();
        assert_eq!(y.len(), cols, "dimension mismatch in fused pattern");
        assert_eq!(w.len(), cols, "output length mismatch in fused pattern");
        if let Some(v) = v {
            assert_eq!(v.len(), rows, "v length mismatch in fused pattern");
        }

        let nblocks = self.blocks.min(rows.max(1));
        let block_rows = self.block_rows(rows);
        assert!(
            ws.partials.len() >= nblocks && ws.partials.iter().all(|p| p.len() == cols),
            "workspace shaped for a different matrix or block count"
        );
        let partials = &mut ws.partials[..nblocks];
        for p in partials.iter_mut() {
            p.fill(0.0);
        }

        // Trailing blocks past the last row get the empty range `rows..rows`.
        let block_range = |b: usize| (b * block_rows).min(rows)..((b + 1) * block_rows).min(rows);

        let threads = self.threads.min(nblocks);
        if threads <= 1 {
            for (b, acc) in partials.iter_mut().enumerate() {
                self.exec
                    .fused_pattern_rows_csr_mapped(x, self.row_map, v, y, block_range(b), acc);
            }
        } else {
            let per_thread = nblocks.div_ceil(threads);
            let (exec, row_map) = (self.exec, self.row_map);
            std::thread::scope(|s| {
                for (ti, chunk) in partials.chunks_mut(per_thread).enumerate() {
                    s.spawn(move || {
                        for (bi, acc) in chunk.iter_mut().enumerate() {
                            let range = block_range(ti * per_thread + bi);
                            exec.fused_pattern_rows_csr_mapped(x, row_map, v, y, range, acc);
                        }
                    });
                }
            });
        }

        // Canonical fold: ascending block index, independent of which
        // thread produced which partial.
        w.copy_from_slice(&partials[0]);
        for p in &partials[1..] {
            for (wi, pi) in w.iter_mut().zip(p.iter()) {
                *wi += pi;
            }
        }
        pattern_epilogue(self.exec, alpha, beta, z, w);
    }

    /// Fused `q = X^T (X p)` — the LR-CG hot-loop instantiation.
    pub fn xtxp(&self, x: &CsrMatrix, p: &[f64], q: &mut [f64]) {
        self.pattern_csr(1.0, x, None, p, 0.0, None, q);
    }

    /// Allocation-free [`Self::xtxp`].
    pub fn xtxp_with(&self, ws: &mut MtWorkspace, x: &CsrMatrix, p: &[f64], q: &mut [f64]) {
        self.pattern_csr_with(ws, 1.0, x, None, p, 0.0, None, q);
    }
}

#[cfg(test)]
mod tests {
    use super::super::{fused_pattern_csr, scalar_executor};
    use super::*;
    use fusedml_matrix::gen::{random_vector, uniform_sparse};

    fn bits_eq(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        let exec = scalar_executor();
        // 53 rows over 8 blocks: the last block is short, and with 3
        // threads the block-to-thread assignment is non-uniform too.
        let x = uniform_sparse(53, 37, 0.2, 40);
        let y = random_vector(37, 41);
        let v = random_vector(53, 42);
        let z = random_vector(37, 43);

        let mut base = vec![0.0; 37];
        MtFused::new(exec, 1).pattern_csr(1.25, &x, Some(&v), &y, 0.5, Some(&z), &mut base);
        for threads in [2, 3, 4, 16] {
            let mut w = vec![0.0; 37];
            MtFused::new(exec, threads).pattern_csr(1.25, &x, Some(&v), &y, 0.5, Some(&z), &mut w);
            assert!(bits_eq(&w, &base), "{threads} threads diverged");
        }
    }

    #[test]
    fn single_block_matches_single_threaded_fused_bit_for_bit() {
        let exec = scalar_executor();
        let x = uniform_sparse(31, 23, 0.25, 50);
        let y = random_vector(23, 51);

        let mut st = vec![0.0; 23];
        fused_pattern_csr(exec, 1.0, &x, None, &y, 0.0, None, &mut st);
        let mut mt = vec![0.0; 23];
        MtFused::new(exec, 4).with_blocks(1).xtxp(&x, &y, &mut mt);
        assert!(bits_eq(&mt, &st));
    }

    #[test]
    fn non_dividing_partitions_stay_deterministic() {
        let exec = scalar_executor();
        let x = uniform_sparse(50, 30, 0.15, 60);
        let y = random_vector(30, 61);
        for blocks in [3, 7, 50, 64] {
            let mut a = vec![0.0; 30];
            let mut b = vec![0.0; 30];
            MtFused::new(exec, 1)
                .with_blocks(blocks)
                .xtxp(&x, &y, &mut a);
            MtFused::new(exec, 4)
                .with_blocks(blocks)
                .xtxp(&x, &y, &mut b);
            assert!(bits_eq(&a, &b), "blocks={blocks}");
        }
    }

    #[test]
    fn workspace_reuse_is_bit_stable() {
        let exec = scalar_executor();
        let x = uniform_sparse(40, 28, 0.2, 70);
        let y = random_vector(28, 71);
        let mt = MtFused::new(exec, 2);
        let mut ws = MtWorkspace::new(28, mt.blocks());
        let mut first = vec![0.0; 28];
        mt.xtxp_with(&mut ws, &x, &y, &mut first);
        for _ in 0..3 {
            let mut again = vec![f64::NAN; 28];
            mt.xtxp_with(&mut ws, &x, &y, &mut again);
            assert!(bits_eq(&again, &first));
        }
    }

    #[test]
    fn degenerate_shapes_do_not_panic() {
        let exec = scalar_executor();
        // Fewer rows than blocks, and a single-row matrix.
        for rows in [1usize, 3] {
            let x = uniform_sparse(rows, 5, 0.9, 80 + rows as u64);
            let y = random_vector(5, 81);
            let mut w = vec![0.0; 5];
            MtFused::new(exec, 4).xtxp(&x, &y, &mut w);
            let mut st = vec![0.0; 5];
            fused_pattern_csr(exec, 1.0, &x, None, &y, 0.0, None, &mut st);
            // rows <= blocks means every block holds at most one row, so
            // the fold is a plain left-to-right sum — same as scalar.
            assert!(bits_eq(&w, &st));
        }
    }
}
