//! Real CPU kernel execution behind a runtime-dispatched trait.
//!
//! Everything else in this crate *models* kernels on a simulated device;
//! this module actually runs them on the host, as fast as the machine
//! allows. The design follows the `KernelExecutor` dispatch idiom of
//! LaurenzV's cpu-sparse-experiments: one trait describing the kernel
//! surface, a portable [`ScalarExecutor`] reference implementation, and a
//! SIMD implementation ([`Avx2Executor`] on x86-64) selected at runtime
//! with `is_x86_feature_detected!`. A multithreaded fused kernel
//! ([`fused_mt::MtFused`]) layers deterministic row-block parallelism on
//! top of whichever executor is active.
//!
//! The unit an executor overrides is a BLAS-1 primitive or a whole CSR
//! row-range kernel, never a single row: the sparse kernels loop over
//! the CSR slices themselves, so an override would cross its
//! `target_feature` boundary once per row block. That matters for
//! short-row matrices, where a per-row call costs more than the row's
//! arithmetic. [`Avx2Executor`] overrides only the primitives; every
//! executor runs the scalar CSR kernels.
//!
//! Numerical contract, relied on by `tests/executor_equivalence.rs`:
//!
//! * [`ScalarExecutor`] (and every trait *default* method) reproduces the
//!   `fusedml_matrix::reference` implementations **bit for bit** — same
//!   accumulation order, same zero-skip in the transposed scatter.
//! * [`Avx2Executor`] re-associates the dense `dot` reduction into 4-wide
//!   lanes, so its dense results may differ from scalar by a bounded reduction error (a few
//!   ULPs per element; no FMA is used, so every elementary product rounds
//!   identically). Cross-executor tests therefore compare with a tight
//!   relative tolerance rather than bit equality.
//! * [`fused_mt::MtFused`] is bit-identical *across thread counts* for a
//!   fixed block count, because its reduction tree is a function of the
//!   matrix partition only — never of the thread count or schedule.
//! * Over a matrix in **length-grouped row order**
//!   (`CsrMatrix::group_rows_by_length`, rows stably sorted by length
//!   inside each canonical block, plus a row map to the original rows),
//!   the `*_mapped` CSR kernels index row-indexed vectors through the
//!   map. `csr_mv_mapped` stays bit-identical to the reference, since
//!   each row's dot product keeps its order; `csr_tmv_mapped` and the
//!   fused pattern add each column's products in the grouped row order,
//!   so they match the reference within a re-ordering tolerance, and
//!   `MtFused` stays bit-identical across thread counts because every
//!   block keeps its own rows.

#[cfg(target_arch = "x86_64")]
pub mod avx2;
pub mod fused_mt;
pub mod scalar;

#[cfg(target_arch = "x86_64")]
pub use avx2::Avx2Executor;
pub use fused_mt::{MtFused, MtWorkspace, CANONICAL_BLOCKS};
pub use scalar::ScalarExecutor;

use fusedml_matrix::{CsrMatrix, DenseMatrix};
use std::ops::Range;
use std::sync::OnceLock;

/// The CPU kernel surface: operator-level BLAS pieces plus the fused
/// single-pass building blocks of the paper's pattern
/// `w = alpha * X^T (v ⊙ (X y)) + beta * z`.
///
/// Every method has a portable default implementation with scalar
/// reference semantics. The unit an executor overrides is either a
/// BLAS-1 primitive (dot products, axpy-shaped loops), which the dense
/// composites inherit, or a whole CSR row-range kernel: the sparse
/// kernels run as one call per row range, looping directly over the
/// `row_off`/`col_idx`/`values` slices, so a SIMD override pays its
/// call (and its `target_feature` boundary) once per row block rather
/// than once per row.
pub trait KernelExecutor: Sync {
    /// Stable name for reports ("scalar", "avx2").
    fn name(&self) -> &'static str;

    // ---- BLAS-1 primitives ----

    /// Dot product, sequential accumulation order in the scalar default.
    fn dot(&self, a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), b.len());
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    /// `y += a * x`.
    fn axpy(&self, a: f64, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), y.len());
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += a * xi;
        }
    }

    /// `x *= a`.
    fn scal(&self, a: f64, x: &mut [f64]) {
        for xi in x.iter_mut() {
            *xi *= a;
        }
    }

    /// `out[i] = x[i] * y[i]`.
    fn ewmul(&self, x: &[f64], y: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), y.len());
        assert_eq!(x.len(), out.len());
        for ((o, a), b) in out.iter_mut().zip(x).zip(y) {
            *o = a * b;
        }
    }

    // ---- operator-level kernels ----

    /// `out = X * y` (CSR), bit-identical to `reference::csr_mv_into`.
    fn csr_mv(&self, x: &CsrMatrix, y: &[f64], out: &mut [f64]) {
        self.csr_mv_mapped(x, None, y, out);
    }

    /// [`Self::csr_mv`] over a matrix whose stored row `i` is original
    /// row `row_map[i]` (`None`: stored order is the original order):
    /// `out` is indexed by original row. Each row's dot product keeps its
    /// order, so the result is bit-identical to the reference on the
    /// original matrix for every row map.
    fn csr_mv_mapped(&self, x: &CsrMatrix, row_map: Option<&[u32]>, y: &[f64], out: &mut [f64]) {
        match checked(x, row_map) {
            None => csr_mv_rows(x, Identity, y, out),
            Some(map) => csr_mv_rows(x, map, y, out),
        }
    }

    /// `w = X^T * p` (CSR row-wise scatter; `w` overwritten),
    /// bit-identical to `reference::csr_tmv_into`.
    fn csr_tmv(&self, x: &CsrMatrix, p: &[f64], w: &mut [f64]) {
        self.csr_tmv_mapped(x, None, p, w);
    }

    /// [`Self::csr_tmv`] over a row-mapped matrix (see
    /// [`Self::csr_mv_mapped`]): `p` is indexed by original row. The
    /// scatter adds the rows in stored order, so a non-identity map
    /// re-orders each `w[c]`'s sum.
    fn csr_tmv_mapped(&self, x: &CsrMatrix, row_map: Option<&[u32]>, p: &[f64], w: &mut [f64]) {
        match checked(x, row_map) {
            None => csr_tmv_rows(x, Identity, p, w),
            Some(map) => csr_tmv_rows(x, map, p, w),
        }
    }

    /// `out = X * y` (dense row-major).
    fn dense_mv(&self, x: &DenseMatrix, y: &[f64], out: &mut [f64]) {
        assert_eq!(y.len(), x.cols(), "dimension mismatch in X*y");
        assert_eq!(out.len(), x.rows(), "output length mismatch in X*y");
        for (r, o) in out.iter_mut().enumerate() {
            *o = self.dot(x.row(r), y);
        }
    }

    /// `w = X^T * p` (dense; `w` overwritten). Runs as one axpy per row,
    /// so SIMD executors accelerate it by overriding [`Self::axpy`].
    fn dense_tmv(&self, x: &DenseMatrix, p: &[f64], w: &mut [f64]) {
        assert_eq!(p.len(), x.rows(), "dimension mismatch in X^T*p");
        assert_eq!(w.len(), x.cols(), "output length mismatch in X^T*p");
        w.fill(0.0);
        for (r, &pr) in p.iter().enumerate() {
            self.axpy(pr, x.row(r), w);
        }
    }

    // ---- fused single-pass building blocks ----

    /// Accumulate the *un-scaled* pattern core `X^T (v ⊙ (X y))` for the
    /// row range `rows` (`start <= end <= x.rows()`, else a panic) into
    /// `acc` (length `cols`, NOT zeroed): each row is read exactly once,
    /// its dot product with `y` stays in a register, and the scatter
    /// back into `acc` reuses the same row entries — the CPU analog of
    /// the paper's fused kernel, with the tiling/locality argument of
    /// "Improving Locality in Sparse and Dense Matrix Multiplications"
    /// applied at row-block granularity.
    ///
    /// The zero-skip mirrors [`Self::csr_tmv`] so a single full-range
    /// call is bit-identical to the unfused two-pass composition.
    fn fused_pattern_rows_csr(
        &self,
        x: &CsrMatrix,
        v: Option<&[f64]>,
        y: &[f64],
        rows: Range<usize>,
        acc: &mut [f64],
    ) {
        self.fused_pattern_rows_csr_mapped(x, None, v, y, rows, acc);
    }

    /// [`Self::fused_pattern_rows_csr`] over a row-mapped matrix (see
    /// [`Self::csr_mv_mapped`]): `rows` are stored rows, and `v` is
    /// indexed by original row. Each row's scaled dot product is the same
    /// as in the original order; the scatter into `acc` follows the
    /// stored order.
    ///
    /// This is the unit a sparse SIMD override would replace: the whole
    /// range runs as one call, so the per-row cost is the loop body only.
    fn fused_pattern_rows_csr_mapped(
        &self,
        x: &CsrMatrix,
        row_map: Option<&[u32]>,
        v: Option<&[f64]>,
        y: &[f64],
        rows: Range<usize>,
        acc: &mut [f64],
    ) {
        match checked(x, row_map) {
            None => pattern_rows(x, Identity, v, y, rows, acc),
            Some(map) => pattern_rows(x, map, v, y, rows, acc),
        }
    }

    /// Dense counterpart of [`Self::fused_pattern_rows_csr`]: one pass
    /// over the row-major matrix, dot + axpy per row.
    fn fused_pattern_rows_dense(
        &self,
        x: &DenseMatrix,
        v: Option<&[f64]>,
        y: &[f64],
        rows: Range<usize>,
        acc: &mut [f64],
    ) {
        assert_eq!(y.len(), x.cols());
        assert_eq!(acc.len(), x.cols());
        for r in rows {
            let mut t = self.dot(x.row(r), y);
            if let Some(v) = v {
                t *= v[r];
            }
            self.axpy(t, x.row(r), acc);
        }
    }
}

/// The original row of each stored CSR row. The CSR kernels are generic
/// over it, so one loop body serves a matrix in its original order
/// ([`Identity`], which compiles to the plain row loop) and one regrouped
/// by `CsrMatrix::group_rows_by_length` (its `&[u32]` row map).
trait RowMap: Copy {
    fn row(self, stored: usize) -> usize;
}

#[derive(Clone, Copy)]
struct Identity;

impl RowMap for Identity {
    #[inline(always)]
    fn row(self, stored: usize) -> usize {
        stored
    }
}

impl RowMap for &[u32] {
    #[inline(always)]
    fn row(self, stored: usize) -> usize {
        self[stored] as usize
    }
}

/// `row_map`, after checking it has one entry per stored row.
fn checked<'m>(x: &CsrMatrix, row_map: Option<&'m [u32]>) -> Option<&'m [u32]> {
    if let Some(map) = row_map {
        assert_eq!(map.len(), x.rows(), "row map length mismatch");
    }
    row_map
}

fn csr_mv_rows(x: &CsrMatrix, map: impl RowMap, y: &[f64], out: &mut [f64]) {
    assert_eq!(y.len(), x.cols(), "dimension mismatch in X*y");
    assert_eq!(out.len(), x.rows(), "output length mismatch in X*y");
    let (cols, vals) = (x.col_idx(), x.values());
    for (i, span) in x.row_off().windows(2).enumerate() {
        let (c, a) = (&cols[span[0]..span[1]], &vals[span[0]..span[1]]);
        out[map.row(i)] = a.iter().zip(c).map(|(v, &c)| v * y[c as usize]).sum();
    }
}

fn csr_tmv_rows(x: &CsrMatrix, map: impl RowMap, p: &[f64], w: &mut [f64]) {
    assert_eq!(p.len(), x.rows(), "dimension mismatch in X^T*p");
    assert_eq!(w.len(), x.cols(), "output length mismatch in X^T*p");
    w.fill(0.0);
    let (cols, vals) = (x.col_idx(), x.values());
    for (i, span) in x.row_off().windows(2).enumerate() {
        let pr = p[map.row(i)];
        if pr != 0.0 {
            for (&c, v) in cols[span[0]..span[1]].iter().zip(&vals[span[0]..span[1]]) {
                w[c as usize] += v * pr;
            }
        }
    }
}

fn pattern_rows(
    x: &CsrMatrix,
    map: impl RowMap,
    v: Option<&[f64]>,
    y: &[f64],
    rows: Range<usize>,
    acc: &mut [f64],
) {
    assert_eq!(y.len(), x.cols());
    assert_eq!(acc.len(), x.cols());
    let (cols, vals) = (x.col_idx(), x.values());
    let spans = x.row_off()[rows.start..=rows.end].windows(2);
    for (i, span) in rows.zip(spans) {
        let (c, a) = (&cols[span[0]..span[1]], &vals[span[0]..span[1]]);
        let mut t: f64 = a.iter().zip(c).map(|(v, &c)| v * y[c as usize]).sum();
        if let Some(v) = v {
            t *= v[map.row(i)];
        }
        if t != 0.0 {
            for (&c, val) in c.iter().zip(a) {
                acc[c as usize] += val * t;
            }
        }
    }
}

/// Scale-and-shift epilogue shared by the fused entry points:
/// `w = alpha * w + beta * z`, matching the operation order (and thus the
/// rounding) of `fusedml_matrix::reference::pattern_csr`.
pub(crate) fn pattern_epilogue(
    exec: &dyn KernelExecutor,
    alpha: f64,
    beta: f64,
    z: Option<&[f64]>,
    w: &mut [f64],
) {
    if alpha != 1.0 {
        exec.scal(alpha, w);
    }
    if let Some(z) = z {
        assert_eq!(z.len(), w.len());
        exec.axpy(beta, z, w);
    }
}

/// Single-threaded fused evaluation of the full Equation-1 pattern
/// `w = alpha * X^T (v ⊙ (X y)) + beta * z` on CSR input: one pass over
/// the matrix, intermediates in registers. With [`ScalarExecutor`] this
/// is bit-identical to `reference::pattern_csr`.
// The eight parameters are Equation 1's operands, in equation order.
#[allow(clippy::too_many_arguments)]
pub fn fused_pattern_csr(
    exec: &dyn KernelExecutor,
    alpha: f64,
    x: &CsrMatrix,
    v: Option<&[f64]>,
    y: &[f64],
    beta: f64,
    z: Option<&[f64]>,
    w: &mut [f64],
) {
    if let Some(v) = v {
        assert_eq!(v.len(), x.rows());
    }
    w.fill(0.0);
    exec.fused_pattern_rows_csr(x, v, y, 0..x.rows(), w);
    pattern_epilogue(exec, alpha, beta, z, w);
}

/// Dense counterpart of [`fused_pattern_csr`].
#[allow(clippy::too_many_arguments)]
pub fn fused_pattern_dense(
    exec: &dyn KernelExecutor,
    alpha: f64,
    x: &DenseMatrix,
    v: Option<&[f64]>,
    y: &[f64],
    beta: f64,
    z: Option<&[f64]>,
    w: &mut [f64],
) {
    if let Some(v) = v {
        assert_eq!(v.len(), x.rows());
    }
    w.fill(0.0);
    exec.fused_pattern_rows_dense(x, v, y, 0..x.rows(), w);
    pattern_epilogue(exec, alpha, beta, z, w);
}

/// Fused `q = X^T (X p)` — the LR-CG hot loop's pattern instantiation —
/// in one pass over the CSR matrix.
pub fn fused_xtxp_csr(exec: &dyn KernelExecutor, x: &CsrMatrix, p: &[f64], q: &mut [f64]) {
    fused_pattern_csr(exec, 1.0, x, None, p, 0.0, None, q);
}

// ---------------------------------------------------------------------
// Runtime dispatch
// ---------------------------------------------------------------------

static SCALAR: ScalarExecutor = ScalarExecutor;

/// The portable reference executor.
pub fn scalar_executor() -> &'static ScalarExecutor {
    &SCALAR
}

/// The AVX2 executor, when this host supports it (`None` elsewhere).
/// Detection runs once; the returned instance upholds the safety
/// invariant that its SIMD code paths only execute on AVX2 hardware.
pub fn avx2_executor() -> Option<&'static dyn KernelExecutor> {
    #[cfg(target_arch = "x86_64")]
    {
        static AVX2: OnceLock<Option<Avx2Executor>> = OnceLock::new();
        AVX2.get_or_init(Avx2Executor::detect)
            .as_ref()
            .map(|e| e as &dyn KernelExecutor)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        None
    }
}

/// True when the `FUSEDML_FORCE_SCALAR` environment variable pins
/// dispatch to the scalar executor (read once per process; the CI
/// `cpu-bench` job uses it to keep the scalar path covered on SIMD
/// runners).
pub fn scalar_forced() -> bool {
    static FORCED: OnceLock<bool> = OnceLock::new();
    *FORCED.get_or_init(|| {
        std::env::var("FUSEDML_FORCE_SCALAR")
            .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
            .unwrap_or(false)
    })
}

/// The executor runtime dispatch selects on this host: AVX2 when the CPU
/// supports it and `FUSEDML_FORCE_SCALAR` is not set, scalar otherwise.
pub fn active_executor() -> &'static dyn KernelExecutor {
    if scalar_forced() {
        return &SCALAR;
    }
    avx2_executor().unwrap_or(&SCALAR)
}

/// Look an executor up by its report name. `Some` for "scalar" always,
/// and for "avx2" when the host supports it.
pub fn executor_named(name: &str) -> Option<&'static dyn KernelExecutor> {
    match name {
        "scalar" => Some(&SCALAR),
        "avx2" => avx2_executor(),
        _ => None,
    }
}

/// Every executor this host can run, scalar first — what the benchmark
/// sweeps (honoring [`scalar_forced`]).
pub fn available_executors() -> Vec<&'static dyn KernelExecutor> {
    let mut v: Vec<&'static dyn KernelExecutor> = vec![&SCALAR];
    if !scalar_forced() {
        if let Some(a) = avx2_executor() {
            v.push(a);
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedml_matrix::gen::{dense_random, random_vector, uniform_sparse};
    use fusedml_matrix::reference;

    fn bits_eq(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn scalar_kernels_match_reference_bit_for_bit() {
        let exec = scalar_executor();
        let x = uniform_sparse(57, 33, 0.15, 7);
        let y = random_vector(33, 8);
        let p = random_vector(57, 9);

        let mut mv = vec![0.0; 57];
        exec.csr_mv(&x, &y, &mut mv);
        assert!(bits_eq(&mv, &reference::csr_mv(&x, &y)));

        let mut tmv = vec![0.0; 33];
        exec.csr_tmv(&x, &p, &mut tmv);
        assert!(bits_eq(&tmv, &reference::csr_tmv(&x, &p)));

        let xd = dense_random(21, 13, 10);
        let yd = random_vector(13, 11);
        let pd = random_vector(21, 12);
        let mut dm = vec![0.0; 21];
        exec.dense_mv(&xd, &yd, &mut dm);
        assert!(bits_eq(&dm, &reference::dense_mv(&xd, &yd)));
        let mut dt = vec![0.0; 13];
        exec.dense_tmv(&xd, &pd, &mut dt);
        assert!(bits_eq(&dt, &reference::dense_tmv(&xd, &pd)));
    }

    #[test]
    fn scalar_fused_pattern_matches_unfused_reference_bit_for_bit() {
        let exec = scalar_executor();
        let x = uniform_sparse(48, 29, 0.2, 20);
        let y = random_vector(29, 21);
        let v = random_vector(48, 22);
        let z = random_vector(29, 23);

        let mut w = vec![0.0; 29];
        fused_pattern_csr(exec, 1.75, &x, Some(&v), &y, -0.5, Some(&z), &mut w);
        let expect = reference::pattern_csr(1.75, &x, Some(&v), &y, -0.5, Some(&z));
        assert!(bits_eq(&w, &expect));

        // The dense path too, and the bare X^T(Xp) instantiation.
        let xd = x.to_dense();
        let mut wd = vec![0.0; 29];
        fused_pattern_dense(exec, 1.75, &xd, Some(&v), &y, -0.5, Some(&z), &mut wd);
        assert!(bits_eq(
            &wd,
            &reference::pattern_dense(1.75, &xd, Some(&v), &y, -0.5, Some(&z))
        ));

        let mut q = vec![0.0; 29];
        fused_xtxp_csr(exec, &x, &y, &mut q);
        assert!(bits_eq(
            &q,
            &reference::csr_tmv(&x, &reference::csr_mv(&x, &y))
        ));
    }

    #[test]
    fn dispatch_always_yields_a_working_executor() {
        let exec = active_executor();
        assert!(!exec.name().is_empty());
        let d = exec.dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]);
        assert_eq!(d, 32.0);

        assert_eq!(executor_named("scalar").map(|e| e.name()), Some("scalar"));
        assert!(executor_named("riscv-vector").is_none());
        let avail = available_executors();
        assert_eq!(avail[0].name(), "scalar");
    }
}
