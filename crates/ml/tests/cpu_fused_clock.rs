//! Golden values for the fused `CpuBackend`'s modeled clock.
//!
//! The fused CPU tier (`CpuBackend::with_fused_execution`) charges the
//! analytical `CpuEngine` for every operation it runs. Faster host
//! kernels must not move those charges: the modeled milliseconds and the
//! pattern-instance counts of a solve are pinned here bit for bit, for
//! LR-CG and LogReg on sparse (uniform and power-law) and dense inputs.
//! The values do not depend on the dispatched executor or thread count.

use fusedml_matrix::gen::{dense_random, powerlaw_sparse, random_vector, uniform_sparse};
use fusedml_ml::{logreg, lr_cg, Backend, CpuBackend, LogRegOptions, LrCgOptions};

/// One solve's modeled clock: `sim_ms` bits, iteration counts and the
/// pattern-instance counts in formula order.
type Clock = (u64, usize, usize, Vec<(&'static str, usize)>);

fn clock(b: &CpuBackend, iterations: usize, inner: usize) -> Clock {
    let s = b.stats();
    let counts = s.pattern_counts.into_iter().collect();
    (s.sim_ms.to_bits(), iterations, inner, counts)
}

fn backends() -> Vec<(&'static str, CpuBackend)> {
    vec![
        (
            "uniform",
            CpuBackend::new_sparse(uniform_sparse(600, 90, 0.08, 11)),
        ),
        (
            "powerlaw",
            CpuBackend::new_sparse(powerlaw_sparse(900, 120, 6.0, 0.8, 12)),
        ),
        ("dense", CpuBackend::new_dense(dense_random(300, 40, 13))),
    ]
}

fn run_all(threads: usize) -> Vec<(&'static str, &'static str, Clock)> {
    let mut out = Vec::new();
    for (name, b) in backends() {
        let mut b = b.with_fused_execution(threads);
        let labels = random_vector(b.rows(), 21);
        let r = lr_cg(
            &mut b,
            &labels,
            LrCgOptions {
                eps: 0.001,
                tolerance: 0.0,
                max_iterations: 12,
            },
        );
        out.push((name, "lr_cg", clock(&b, r.iterations, 0)));

        b.reset_stats();
        let labels: Vec<f64> = labels
            .iter()
            .map(|&l| if l >= 0.0 { 1.0 } else { -1.0 })
            .collect();
        let r = logreg(
            &mut b,
            &labels,
            LogRegOptions {
                max_outer: 4,
                max_inner_cg: 6,
                grad_tol: 0.0,
                ..Default::default()
            },
        );
        out.push((name, "logreg", clock(&b, r.iterations, r.cg_iterations)));
    }
    out
}

#[test]
fn fused_cpu_backend_modeled_clock_is_pinned() {
    const LR_CG: &str = "X^T x (X x y) + b * z";
    const NEWTON: &str = "X^T x (v . (X x y)) + b * z";
    const GRAD: &str = "a * X^T x y";
    let lr = |bits| (bits, 12, 0, vec![(LR_CG, 12), (GRAD, 1)]);
    let lg = |bits, cg| (bits, 4, cg, vec![(NEWTON, cg), (GRAD, 4)]);
    let expect = vec![
        ("uniform", "lr_cg", lr(4605028434099602538)),
        ("uniform", "logreg", lg(4611899199898158285, 24)),
        ("powerlaw", "lr_cg", lr(4604874848557992083)),
        ("powerlaw", "logreg", lg(4611813421678437425, 24)),
        ("dense", "lr_cg", lr(4604984268116893208)),
        ("dense", "logreg", lg(4610920856850697632, 20)),
    ];
    assert_eq!(run_all(2), expect);
}

#[test]
fn modeled_clock_does_not_depend_on_thread_count() {
    assert_eq!(run_all(1), run_all(3));
}
