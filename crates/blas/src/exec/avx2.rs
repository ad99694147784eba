//! AVX2 kernel executor for x86-64 hosts.
//!
//! The override surface is the BLAS-1 primitives only — dense dot and
//! axpy/scal/ewmul — which the dense composites (`dense_mv`,
//! `dense_tmv`, the dense fused rows) inherit through the trait
//! defaults. The CSR row-range kernels (`csr_mv`, `csr_tmv`, the fused
//! CSR pattern rows) keep the scalar defaults: at a few non-zeros per
//! row a 4-wide gather does not beat the scalar loop, so there is no
//! sparse override to keep in step with the reference.
//!
//! Numerics: the element-wise kernels (`axpy`, `scal`, `ewmul`) perform
//! exactly one rounding per element in the same order as scalar code, so
//! they are bit-identical to [`super::ScalarExecutor`]. The one reduction,
//! `dot`, re-associates the sum into four SIMD lanes folded in a fixed
//! order, so it may differ from the scalar result by a small bounded
//! reduction error; multiplication deliberately avoids FMA so every
//! elementary product still rounds identically to scalar. Cross-executor
//! tests compare with a tight relative tolerance.
//!
//! Safety model: [`Avx2Executor`] can only be constructed through
//! [`Avx2Executor::detect`], which gates on
//! `is_x86_feature_detected!("avx2")` — so by the time any of the
//! `#[target_feature]` functions below run, the CPU is known to support
//! them. The intrinsics stay `unsafe fn` (not safe `target_feature`
//! calls) to keep the crate building on the 1.76 MSRV toolchain.

use super::KernelExecutor;
use std::arch::x86_64::*;

/// AVX2-accelerated kernel executor. Construct via [`Avx2Executor::detect`]
/// (or borrow the shared instance from [`super::avx2_executor`]).
#[derive(Debug, Clone, Copy)]
pub struct Avx2Executor {
    _proof_of_detection: (),
}

impl Avx2Executor {
    /// Returns the executor iff this CPU supports AVX2.
    pub fn detect() -> Option<Self> {
        if is_x86_feature_detected!("avx2") {
            Some(Avx2Executor {
                _proof_of_detection: (),
            })
        } else {
            None
        }
    }
}

impl KernelExecutor for Avx2Executor {
    fn name(&self) -> &'static str {
        "avx2"
    }

    fn dot(&self, a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), b.len());
        // SAFETY: `detect` proved AVX2 support; slices are equal-length.
        unsafe { dot_avx2(a, b) }
    }

    fn axpy(&self, a: f64, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), y.len());
        // SAFETY: `detect` proved AVX2 support; slices are equal-length.
        unsafe { axpy_avx2(a, x, y) }
    }

    fn scal(&self, a: f64, x: &mut [f64]) {
        // SAFETY: `detect` proved AVX2 support.
        unsafe { scal_avx2(a, x) }
    }

    fn ewmul(&self, x: &[f64], y: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), y.len());
        assert_eq!(x.len(), out.len());
        // SAFETY: `detect` proved AVX2 support; slices are equal-length.
        unsafe { ewmul_avx2(x, y, out) }
    }
}

/// Fixed-order horizontal sum: `((lane0 + lane1) + lane2) + lane3`, so
/// the reduction tree is the same on every call.
#[target_feature(enable = "avx2")]
unsafe fn hsum(v: __m256d) -> f64 {
    let mut buf = [0.0f64; 4];
    _mm256_storeu_pd(buf.as_mut_ptr(), v);
    ((buf[0] + buf[1]) + buf[2]) + buf[3]
}

#[target_feature(enable = "avx2")]
unsafe fn dot_avx2(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len();
    let chunks = n / 4;
    let mut acc = _mm256_setzero_pd();
    for i in 0..chunks {
        let av = _mm256_loadu_pd(a.as_ptr().add(4 * i));
        let bv = _mm256_loadu_pd(b.as_ptr().add(4 * i));
        // mul + add, not FMA: each product rounds exactly like scalar.
        acc = _mm256_add_pd(acc, _mm256_mul_pd(av, bv));
    }
    let mut sum = hsum(acc);
    for i in 4 * chunks..n {
        sum += a[i] * b[i];
    }
    sum
}

#[target_feature(enable = "avx2")]
unsafe fn axpy_avx2(a: f64, x: &[f64], y: &mut [f64]) {
    let n = x.len();
    let chunks = n / 4;
    let av = _mm256_set1_pd(a);
    for i in 0..chunks {
        let xv = _mm256_loadu_pd(x.as_ptr().add(4 * i));
        let yv = _mm256_loadu_pd(y.as_ptr().add(4 * i));
        let r = _mm256_add_pd(yv, _mm256_mul_pd(av, xv));
        _mm256_storeu_pd(y.as_mut_ptr().add(4 * i), r);
    }
    for i in 4 * chunks..n {
        y[i] += a * x[i];
    }
}

#[target_feature(enable = "avx2")]
unsafe fn scal_avx2(a: f64, x: &mut [f64]) {
    let n = x.len();
    let chunks = n / 4;
    let av = _mm256_set1_pd(a);
    for i in 0..chunks {
        let xv = _mm256_loadu_pd(x.as_ptr().add(4 * i));
        _mm256_storeu_pd(x.as_mut_ptr().add(4 * i), _mm256_mul_pd(xv, av));
    }
    for xi in &mut x[4 * chunks..] {
        *xi *= a;
    }
}

#[target_feature(enable = "avx2")]
unsafe fn ewmul_avx2(x: &[f64], y: &[f64], out: &mut [f64]) {
    let n = x.len();
    let chunks = n / 4;
    for i in 0..chunks {
        let xv = _mm256_loadu_pd(x.as_ptr().add(4 * i));
        let yv = _mm256_loadu_pd(y.as_ptr().add(4 * i));
        _mm256_storeu_pd(out.as_mut_ptr().add(4 * i), _mm256_mul_pd(xv, yv));
    }
    for i in 4 * chunks..n {
        out[i] = x[i] * y[i];
    }
}

#[cfg(test)]
mod tests {
    use super::super::scalar_executor;
    use super::*;
    use fusedml_matrix::gen::{random_vector, uniform_sparse};
    use fusedml_matrix::reference;

    #[test]
    fn elementwise_kernels_are_bit_identical_to_scalar() {
        let Some(avx) = Avx2Executor::detect() else {
            return; // nothing to test on non-AVX2 hosts
        };
        let sc = scalar_executor();
        let x = random_vector(103, 1); // odd length exercises the tails
        let y = random_vector(103, 2);

        let (mut ya, mut ys) = (y.clone(), y.clone());
        avx.axpy(1.5, &x, &mut ya);
        sc.axpy(1.5, &x, &mut ys);
        assert!(ya.iter().zip(&ys).all(|(a, b)| a.to_bits() == b.to_bits()));

        let (mut xa, mut xs) = (x.clone(), x.clone());
        avx.scal(-0.75, &mut xa);
        sc.scal(-0.75, &mut xs);
        assert!(xa.iter().zip(&xs).all(|(a, b)| a.to_bits() == b.to_bits()));

        let (mut ea, mut es) = (vec![0.0; 103], vec![0.0; 103]);
        avx.ewmul(&x, &y, &mut ea);
        sc.ewmul(&x, &y, &mut es);
        assert!(ea.iter().zip(&es).all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn reductions_match_scalar_within_reduction_tolerance() {
        let Some(avx) = Avx2Executor::detect() else {
            return;
        };
        let sc = scalar_executor();
        let a = random_vector(517, 3);
        let b = random_vector(517, 4);
        let d_avx = avx.dot(&a, &b);
        let d_sc = sc.dot(&a, &b);
        assert!(
            (d_avx - d_sc).abs() <= 1e-13 * d_sc.abs().max(1.0),
            "{d_avx} vs {d_sc}"
        );

        let x = uniform_sparse(64, 41, 0.3, 5);
        let y = random_vector(41, 6);
        let mut out = vec![0.0; 64];
        avx.csr_mv(&x, &y, &mut out);
        let expect = reference::csr_mv(&x, &y);
        assert!(reference::rel_l2_error(&out, &expect) < 1e-13);
    }
}
