//! The traced run's span source: a [`Backend`] that delegates every call
//! to another backend and records, per call, its wall time and the
//! modeled milliseconds it added to the inner backend's `stats().sim_ms`.
//!
//! Only the required `try_*` methods are implemented; the trait's
//! provided infallible forms route through them.

use fusedml_core::PatternSpec;
use fusedml_gpu_sim::DeviceError;
use fusedml_ml::{Backend, BackendStats, BaselineBackend, CpuBackend, DagBackend, FusedBackend};
use fusedml_runtime::streaming::StreamReport;
use fusedml_runtime::StreamedBackend;
use std::cell::RefCell;
use std::time::{Duration, Instant};

/// Kernel class of one backend call (the paper's Table 2 split).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Equation 1: `alpha * X^T (v ⊙ (X y)) + beta * z`.
    Pattern,
    /// `X y` and `alpha * X^T u`.
    Spmv,
    /// axpy / scal / copy / dot / nrm2.
    Blas1,
    /// Element-wise multiply and map.
    Ewise,
    /// Host <-> backend vector traffic: from_host / zeros / to_host.
    Xfer,
}

impl Class {
    pub const ALL: [Class; 5] = [
        Class::Pattern,
        Class::Spmv,
        Class::Blas1,
        Class::Ewise,
        Class::Xfer,
    ];

    /// Names of the class's `calls`, `wall_ms` and `modeled_ms` metrics.
    pub fn metric_names(self) -> [&'static str; 3] {
        match self {
            Class::Pattern => [
                "ml.backend.pattern.calls",
                "ml.backend.pattern.wall_ms",
                "ml.backend.pattern.modeled_ms",
            ],
            Class::Spmv => [
                "ml.backend.spmv.calls",
                "ml.backend.spmv.wall_ms",
                "ml.backend.spmv.modeled_ms",
            ],
            Class::Blas1 => [
                "ml.backend.blas1.calls",
                "ml.backend.blas1.wall_ms",
                "ml.backend.blas1.modeled_ms",
            ],
            Class::Ewise => [
                "ml.backend.ewise.calls",
                "ml.backend.ewise.wall_ms",
                "ml.backend.ewise.modeled_ms",
            ],
            Class::Xfer => [
                "ml.backend.xfer.calls",
                "ml.backend.xfer.wall_ms",
                "ml.backend.xfer.modeled_ms",
            ],
        }
    }
}

/// One recorded backend call.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub class: Class,
    pub wall: Duration,
    pub modeled_ms: f64,
}

/// Read access to the streaming report of a backend's last matrix
/// product; every backend but the streamed one has none.
pub trait StreamProbe {
    fn stream_report(&self) -> Option<StreamReport> {
        None
    }
}

impl StreamProbe for FusedBackend<'_> {}
impl StreamProbe for DagBackend<'_> {}
impl StreamProbe for BaselineBackend<'_> {}
impl StreamProbe for CpuBackend {}

impl StreamProbe for StreamedBackend<'_> {
    fn stream_report(&self) -> Option<StreamReport> {
        self.last_report().cloned()
    }
}

/// What a [`Timed`] backend recorded over its lifetime.
#[derive(Debug, Default)]
pub struct Spans {
    pub calls: Vec<Call>,
    /// Streaming report of every successful matrix product, in call order.
    pub stream: Vec<StreamReport>,
}

pub struct Timed<B> {
    inner: B,
    spans: RefCell<Spans>,
}

impl<B: Backend + StreamProbe> Timed<B> {
    pub fn new(inner: B) -> Self {
        Timed {
            inner,
            spans: RefCell::new(Spans::default()),
        }
    }

    pub fn into_parts(self) -> (B, Spans) {
        (self.inner, self.spans.into_inner())
    }

    /// Run `f` on the inner backend as one span of `class`.
    fn span<R>(&mut self, class: Class, f: impl FnOnce(&mut B) -> R) -> R {
        let start = self.open();
        let out = f(&mut self.inner);
        self.close(class, start);
        out
    }

    /// A span's start: the inner backend's modeled total, then the clock.
    /// The `stats()` reads of [`Timed::open`] and [`Timed::close`] sit
    /// outside the timed window.
    fn open(&self) -> (f64, Instant) {
        (self.inner.stats().sim_ms, Instant::now())
    }

    fn close(&self, class: Class, (before_ms, t0): (f64, Instant)) {
        let wall = t0.elapsed();
        let modeled_ms = self.inner.stats().sim_ms - before_ms;
        self.spans.borrow_mut().calls.push(Call {
            class,
            wall,
            modeled_ms,
        });
    }

    /// A matrix product: a span plus the streaming report it produced.
    fn product(
        &mut self,
        class: Class,
        f: impl FnOnce(&mut B) -> Result<(), DeviceError>,
    ) -> Result<(), DeviceError> {
        let res = self.span(class, f);
        if res.is_ok() {
            if let Some(report) = self.inner.stream_report() {
                self.spans.get_mut().stream.push(report);
            }
        }
        res
    }
}

impl<B: Backend + StreamProbe> Backend for Timed<B> {
    type Vector = B::Vector;

    fn rows(&self) -> usize {
        self.inner.rows()
    }

    fn cols(&self) -> usize {
        self.inner.cols()
    }

    fn try_from_host(&mut self, name: &str, data: &[f64]) -> Result<B::Vector, DeviceError> {
        self.span(Class::Xfer, |b| b.try_from_host(name, data))
    }

    fn try_zeros(&mut self, name: &str, len: usize) -> Result<B::Vector, DeviceError> {
        self.span(Class::Xfer, |b| b.try_zeros(name, len))
    }

    fn to_host(&self, v: &B::Vector) -> Vec<f64> {
        let start = self.open();
        let out = self.inner.to_host(v);
        self.close(Class::Xfer, start);
        out
    }

    fn try_pattern(
        &mut self,
        spec: PatternSpec,
        v: Option<&B::Vector>,
        y: &B::Vector,
        z: Option<&B::Vector>,
        w: &mut B::Vector,
    ) -> Result<(), DeviceError> {
        self.product(Class::Pattern, |b| b.try_pattern(spec, v, y, z, w))
    }

    fn try_mv(&mut self, y: &B::Vector, out: &mut B::Vector) -> Result<(), DeviceError> {
        self.product(Class::Spmv, |b| b.try_mv(y, out))
    }

    fn try_tmv(
        &mut self,
        alpha: f64,
        u: &B::Vector,
        out: &mut B::Vector,
    ) -> Result<(), DeviceError> {
        self.product(Class::Spmv, |b| b.try_tmv(alpha, u, out))
    }

    fn try_axpy(&mut self, a: f64, x: &B::Vector, y: &mut B::Vector) -> Result<(), DeviceError> {
        self.span(Class::Blas1, |b| b.try_axpy(a, x, y))
    }

    fn try_scal(&mut self, a: f64, x: &mut B::Vector) -> Result<(), DeviceError> {
        self.span(Class::Blas1, |b| b.try_scal(a, x))
    }

    fn try_copy(&mut self, src: &B::Vector, dst: &mut B::Vector) -> Result<(), DeviceError> {
        self.span(Class::Blas1, |b| b.try_copy(src, dst))
    }

    fn try_ewmul(
        &mut self,
        x: &B::Vector,
        y: &B::Vector,
        out: &mut B::Vector,
    ) -> Result<(), DeviceError> {
        self.span(Class::Ewise, |b| b.try_ewmul(x, y, out))
    }

    fn try_dot(&mut self, x: &B::Vector, y: &B::Vector) -> Result<f64, DeviceError> {
        self.span(Class::Blas1, |b| b.try_dot(x, y))
    }

    fn try_nrm2_sq(&mut self, x: &B::Vector) -> Result<f64, DeviceError> {
        self.span(Class::Blas1, |b| b.try_nrm2_sq(x))
    }

    fn try_map2(
        &mut self,
        x: &B::Vector,
        y: &B::Vector,
        out: &mut B::Vector,
        f: &(dyn Fn(f64, f64) -> f64 + Sync),
    ) -> Result<(), DeviceError> {
        self.span(Class::Ewise, |b| b.try_map2(x, y, out, f))
    }

    fn stats(&self) -> BackendStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedml_gpu_sim::{DeviceSpec, Gpu};
    use fusedml_matrix::gen::{random_vector, uniform_sparse};
    use fusedml_ml::{try_lr_cg, LrCgOptions};
    use fusedml_runtime::{StreamConfig, TransferModel};

    #[test]
    fn spans_account_for_every_modeled_millisecond() {
        let x = uniform_sparse(200, 40, 0.1, 1);
        let labels = random_vector(200, 2);
        let mut t = Timed::new(CpuBackend::new_sparse(x));
        let opts = LrCgOptions {
            max_iterations: 5,
            tolerance: 0.0,
            ..Default::default()
        };
        let r = try_lr_cg(&mut t, &labels, opts).unwrap();
        let total = t.stats().sim_ms;
        let (_, spans) = t.into_parts();
        let sum: f64 = spans.calls.iter().map(|c| c.modeled_ms).sum();
        assert!(total > 0.0 && (sum - total).abs() <= 1e-12 * total);
        let patterns = spans.calls.iter().filter(|c| c.class == Class::Pattern);
        assert_eq!(patterns.count(), r.iterations);
        assert!(spans.stream.is_empty());
    }

    #[test]
    fn each_streamed_product_leaves_its_report() {
        let gpu = Gpu::new(DeviceSpec::gtx_titan());
        let x = uniform_sparse(256, 32, 0.1, 3);
        let cfg = StreamConfig::fixed(64, 2);
        let b = StreamedBackend::try_new_sparse(&gpu, &x, TransferModel::native(), cfg).unwrap();
        let mut t = Timed::new(b);
        let y = t.from_host("y", &random_vector(32, 4));
        let mut p = t.zeros("p", 256);
        t.mv(&y, &mut p);
        let mut w = t.zeros("w", 32);
        t.tmv(1.0, &p, &mut w);
        let (_, spans) = t.into_parts();
        assert_eq!(spans.stream.len(), 2);
        assert!(spans
            .stream
            .iter()
            .all(|r| r.chunks == 4 && r.h2d_bytes > 0));
        let classes: Vec<Class> = spans.calls.iter().map(|c| c.class).collect();
        use Class::{Spmv, Xfer};
        assert_eq!(classes, [Xfer, Xfer, Spmv, Xfer, Spmv]);
    }
}
