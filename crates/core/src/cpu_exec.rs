//! Host-CPU fused pattern execution.
//!
//! [`CpuFusedPattern`] is the [`PatternSpec`]-level entry point over the
//! real CPU kernels in `fusedml_blas::exec`: runtime-dispatched SIMD
//! (scalar or AVX2) plus the deterministic multithreaded fused CSR kernel.
//! It gives the CPU tier the same "one pass over the matrix" execution
//! shape the fused device kernels have, instead of the two-scan
//! operator-by-operator reference path — which is what makes a fused CPU
//! rung viable inside the runtime's recovery ladder
//! (`fusedml_ml::CpuBackend::with_fused_execution` wires it in).
//!
//! Determinism contract: for a fixed executor, results are bit-identical
//! across thread counts (the fused kernel folds canonical row-block
//! partials in a fixed order — see `fusedml_blas::exec::fused_mt`).

use crate::pattern::PatternSpec;
use fusedml_blas::exec::{
    active_executor, executor_named, fused_pattern_dense, KernelExecutor, MtFused, MtWorkspace,
};
use fusedml_matrix::{CsrMatrix, DenseMatrix};

/// Fused Equation-1 evaluation on the host CPU for a chosen executor and
/// thread count.
#[derive(Clone, Copy)]
pub struct CpuFusedPattern {
    exec: &'static dyn KernelExecutor,
    threads: usize,
}

impl CpuFusedPattern {
    /// Fused evaluator over the runtime-dispatched executor (AVX2 when
    /// the host supports it and `FUSEDML_FORCE_SCALAR` is unset).
    pub fn new(threads: usize) -> Self {
        CpuFusedPattern {
            exec: active_executor(),
            threads: threads.max(1),
        }
    }

    /// Pin a specific executor by report name ("scalar", "avx2");
    /// `None` if this host can't run it.
    pub fn with_executor_name(name: &str, threads: usize) -> Option<Self> {
        Some(CpuFusedPattern {
            exec: executor_named(name)?,
            threads: threads.max(1),
        })
    }

    /// Report name of the executor in use.
    pub fn executor_name(&self) -> &'static str {
        self.exec.name()
    }

    /// The executor the fused kernels run on, for the operator-level
    /// kernels (`csr_mv`, `ewmul`, ...) of a fused CPU tier.
    pub fn executor(&self) -> &'static dyn KernelExecutor {
        self.exec
    }

    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Preallocate the per-block accumulators for repeated sparse
    /// evaluations over matrices with `cols` columns.
    pub fn workspace(&self, cols: usize) -> MtWorkspace {
        MtWorkspace::new(cols, self.mt().blocks())
    }

    /// Regroup `x` in place into length-grouped row order inside this
    /// evaluator's canonical row blocks (see
    /// `CsrMatrix::group_rows_by_length`), returning the row map to pass
    /// to [`Self::pattern_csr_with`] and the executor's `*_mapped`
    /// kernels. Each block keeps its rows, so results stay bit-identical
    /// across thread counts.
    pub fn group_rows(&self, x: &mut CsrMatrix) -> Vec<u32> {
        x.group_rows_by_length(self.mt().block_rows(x.rows()))
    }

    fn mt(&self) -> MtFused<'static> {
        MtFused::new(self.exec, self.threads)
    }

    /// Fused `w = alpha * X^T (v ⊙ (X y)) + beta * z` on CSR input, one
    /// pass over the matrix. `v`/`z` presence must match the spec.
    pub fn pattern_csr(
        &self,
        spec: PatternSpec,
        x: &CsrMatrix,
        v: Option<&[f64]>,
        y: &[f64],
        z: Option<&[f64]>,
        w: &mut [f64],
    ) {
        assert_eq!(spec.with_v, v.is_some(), "spec/v operand mismatch");
        assert_eq!(spec.with_z, z.is_some(), "spec/z operand mismatch");
        self.mt().pattern_csr(spec.alpha, x, v, y, spec.beta, z, w);
    }

    /// Allocation-free [`Self::pattern_csr`] with a caller-held
    /// [`MtWorkspace`] (see [`Self::workspace`]), over `x` in the row
    /// order `row_map` describes (`None`: the original order; see
    /// [`Self::group_rows`]).
    // Equation 1's operands plus the workspace and row map, in equation order.
    #[allow(clippy::too_many_arguments)]
    pub fn pattern_csr_with(
        &self,
        ws: &mut MtWorkspace,
        spec: PatternSpec,
        x: &CsrMatrix,
        row_map: Option<&[u32]>,
        v: Option<&[f64]>,
        y: &[f64],
        z: Option<&[f64]>,
        w: &mut [f64],
    ) {
        assert_eq!(spec.with_v, v.is_some(), "spec/v operand mismatch");
        assert_eq!(spec.with_z, z.is_some(), "spec/z operand mismatch");
        self.mt()
            .with_row_map(row_map)
            .pattern_csr_with(ws, spec.alpha, x, v, y, spec.beta, z, w);
    }

    /// Fused pattern on dense row-major input: single-threaded one-pass
    /// (dot + axpy per row) through the executor's SIMD primitives.
    pub fn pattern_dense(
        &self,
        spec: PatternSpec,
        x: &DenseMatrix,
        v: Option<&[f64]>,
        y: &[f64],
        z: Option<&[f64]>,
        w: &mut [f64],
    ) {
        assert_eq!(spec.with_v, v.is_some(), "spec/v operand mismatch");
        assert_eq!(spec.with_z, z.is_some(), "spec/z operand mismatch");
        fused_pattern_dense(self.exec, spec.alpha, x, v, y, spec.beta, z, w);
    }
}

impl std::fmt::Debug for CpuFusedPattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CpuFusedPattern")
            .field("executor", &self.exec.name())
            .field("threads", &self.threads)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedml_matrix::gen::{random_vector, uniform_sparse};
    use fusedml_matrix::reference;

    #[test]
    fn spec_entry_matches_reference_for_all_instantiations() {
        let x = uniform_sparse(70, 45, 0.15, 100);
        let y = random_vector(45, 101);
        let v = random_vector(70, 102);
        let z = random_vector(45, 103);
        let cpu = CpuFusedPattern::with_executor_name("scalar", 2).expect("scalar always exists");

        for (spec, vv, zz) in [
            (PatternSpec::xtxy(), None, None),
            (PatternSpec::xtvxy(), Some(&v), None),
            (PatternSpec::xtxy_plus_bz(-0.5), None, Some(&z)),
            (PatternSpec::full(1.5, 0.25), Some(&v), Some(&z)),
        ] {
            let mut w = vec![0.0; 45];
            cpu.pattern_csr(
                spec,
                &x,
                vv.map(|v| v.as_slice()),
                &y,
                zz.map(|z| z.as_slice()),
                &mut w,
            );
            let expect = reference::pattern_csr(
                spec.alpha,
                &x,
                vv.map(|v| v.as_slice()),
                &y,
                spec.beta,
                zz.map(|z| z.as_slice()),
            );
            assert!(
                reference::rel_l2_error(&w, &expect) < 1e-13,
                "{:?}",
                spec.instance()
            );

            let mut wd = vec![0.0; 45];
            cpu.pattern_dense(
                spec,
                &x.to_dense(),
                vv.map(|v| v.as_slice()),
                &y,
                zz.map(|z| z.as_slice()),
                &mut wd,
            );
            assert!(reference::rel_l2_error(&wd, &expect) < 1e-12);
        }
    }

    #[test]
    fn thread_count_does_not_change_bits() {
        let x = uniform_sparse(90, 50, 0.1, 110);
        let y = random_vector(50, 111);
        let spec = PatternSpec::xtxy();
        let mut base = vec![0.0; 50];
        CpuFusedPattern::with_executor_name("scalar", 1)
            .expect("scalar always exists")
            .pattern_csr(spec, &x, None, &y, None, &mut base);
        for threads in [2, 4] {
            let mut w = vec![0.0; 50];
            CpuFusedPattern::with_executor_name("scalar", threads)
                .expect("scalar always exists")
                .pattern_csr(spec, &x, None, &y, None, &mut w);
            assert!(w.iter().zip(&base).all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn unknown_executor_name_is_none() {
        assert!(CpuFusedPattern::with_executor_name("sse9", 1).is_none());
        assert!(CpuFusedPattern::new(1).threads() == 1);
    }
}
