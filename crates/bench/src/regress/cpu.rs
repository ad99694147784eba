//! `fusedml-bench cpu` — the *real wall-clock* CPU benchmark.
//!
//! Everything else in the bench suite reports modeled device time; this
//! module actually runs the CPU kernels behind
//! `fusedml_blas::exec::KernelExecutor` (scalar / AVX2 / multithreaded
//! fused) on the host and measures them, then reports the analytical
//! [`CpuEngine`] roofline's predicted-vs-measured ratio per kernel — the
//! first point where the repo's CPU model is validated against reality.
//!
//! Methodology (the fix this subsystem exists to hold onto):
//! * every buffer is preallocated outside the timed regions,
//! * each timing takes the **minimum over `repeats`** timed runs after
//!   one untimed warm-up run,
//! * numerical equivalence between executors is verified **before** any
//!   timing and is a hard failure (exit 1 from the CLI); wall-clock
//!   numbers themselves are never gated — CI runners are too noisy.

use super::json::Json;
use super::suite::Mode;
use fusedml_blas::exec::{
    available_executors, fused_xtxp_csr, scalar_executor, scalar_forced, MtFused, MtWorkspace,
};
use fusedml_blas::CpuEngine;
use fusedml_matrix::gen::{dense_random, powerlaw_sparse, random_vector, uniform_sparse};
use fusedml_matrix::{reference, CsrMatrix, DenseMatrix};
use std::time::Instant;

/// Schema version of the `CPU_fusion.json` report. Version 2 adds the
/// sparse workloads' length-grouped legs (`<executor>+mt+grouped`),
/// `regroup_ms` and `equivalence.grouped_rel_l2`.
pub const CPU_SCHEMA_VERSION: u64 = 2;

/// Shape of a `fusedml-bench cpu` run.
#[derive(Debug, Clone)]
pub struct CpuBenchOptions {
    pub mode: Mode,
    /// Row-count multiplier in (0, 1].
    pub scale: f64,
    pub seed: u64,
    /// Timed repeats per kernel (min is reported); must be > 0.
    pub repeats: usize,
    /// Thread counts for the multithreaded fused kernel.
    pub threads: Vec<usize>,
}

impl Default for CpuBenchOptions {
    fn default() -> Self {
        CpuBenchOptions {
            mode: Mode::Quick,
            scale: 1.0,
            seed: 0x5eed,
            repeats: 5,
            threads: vec![1, 2, 4],
        }
    }
}

/// Maximum relative-L2 divergence tolerated between a SIMD executor and
/// the scalar reference on the fused kernel: the 4-lane reduction
/// re-association error, orders of magnitude above what mul+add (no FMA)
/// can accumulate at these sizes. The same bound holds the multithreaded
/// and length-grouped fused passes, which re-order the scatter's sums.
pub const SIMD_REL_L2_TOL: f64 = 1e-12;

/// One untimed warm-up, then the minimum over `repeats` timed runs.
fn min_ms(repeats: usize, mut kernel: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for rep in 0..=repeats {
        let t = Instant::now();
        kernel();
        let dt = t.elapsed().as_secs_f64() * 1e3;
        if rep > 0 {
            best = best.min(dt);
        }
    }
    best
}

fn leg_json(
    executor: &str,
    threads: usize,
    measured_ms: f64,
    predicted_ms: f64,
    unfused_ms: f64,
) -> Json {
    Json::obj(vec![
        ("executor", Json::str(executor)),
        ("threads", Json::u64(threads as u64)),
        ("measured_ms", Json::num(measured_ms)),
        ("predicted_ms", Json::num(predicted_ms)),
        (
            "predicted_over_measured",
            Json::num(predicted_ms / measured_ms.max(1e-9)),
        ),
        (
            "speedup_vs_unfused",
            Json::num(unfused_ms / measured_ms.max(1e-9)),
        ),
    ])
}

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Measured fused-vs-unfused `q = X^T (X p)` on one sparse matrix;
/// `kind` names its row-length distribution in the report id. The
/// `+grouped` legs time the multithreaded fused pass over the matrix in
/// length-grouped row order, the layout the fused `CpuBackend` tier runs.
fn sparse_workload(kind: &str, x: &CsrMatrix, opts: &CpuBenchOptions) -> Result<Json, String> {
    let (m, n) = (x.rows(), x.cols());
    let p = random_vector(n, opts.seed + 1);
    let execs = available_executors();

    // ---- equivalence gate (before any timing) ----
    let mut tmp = vec![0.0; m];
    let mut unfused = vec![0.0; n];
    reference::csr_mv_into(x, &p, &mut tmp);
    reference::csr_tmv_into(x, &tmp, &mut unfused);

    let mut q_scalar = vec![0.0; n];
    fused_xtxp_csr(scalar_executor(), x, &p, &mut q_scalar);
    if !bits_eq(&q_scalar, &unfused) {
        return Err(
            "equivalence violation: scalar fused kernel is not bit-identical to the \
                    unfused reference"
                .to_string(),
        );
    }
    let mut simd_rel_l2 = 0.0f64;
    for exec in &execs {
        let mut q = vec![0.0; n];
        fused_xtxp_csr(*exec, x, &p, &mut q);
        let err = reference::rel_l2_error(&q, &q_scalar);
        simd_rel_l2 = simd_rel_l2.max(err);
        if err > SIMD_REL_L2_TOL {
            return Err(format!(
                "equivalence violation: executor '{}' diverges from scalar by rel_l2 {err:e} \
                 (tolerance {SIMD_REL_L2_TOL:e})",
                exec.name()
            ));
        }
    }
    // Multithreaded fused: bit-identical across every thread count, per
    // executor, and within SIMD tolerance of the unfused reference.
    for exec in &execs {
        let mt_ref = {
            let mt = MtFused::new(*exec, 1);
            let mut q = vec![0.0; n];
            mt.xtxp(x, &p, &mut q);
            q
        };
        if reference::rel_l2_error(&mt_ref, &unfused) > SIMD_REL_L2_TOL {
            return Err(format!(
                "equivalence violation: multithreaded fused ('{}') diverges from the unfused \
                 reference",
                exec.name()
            ));
        }
        for &t in &opts.threads {
            let mut q = vec![0.0; n];
            MtFused::new(*exec, t).xtxp(x, &p, &mut q);
            if !bits_eq(&q, &mt_ref) {
                return Err(format!(
                    "determinism violation: multithreaded fused ('{}', {t} threads) is not \
                     bit-identical to its single-thread result",
                    exec.name()
                ));
            }
        }
    }

    // Length-grouped row order: `mv` through the row map bit-identical to
    // the reference, the fused pass within tolerance of it and
    // bit-identical across every thread count, per executor.
    let mut grouped = x.clone();
    let t = Instant::now();
    let row_map = grouped.group_rows_by_length(MtFused::new(scalar_executor(), 1).block_rows(m));
    let regroup_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut grouped_rel_l2 = 0.0f64;
    for exec in &execs {
        let mut mv = vec![0.0; m];
        exec.csr_mv_mapped(&grouped, Some(&row_map), &p, &mut mv);
        if !bits_eq(&mv, &tmp) {
            return Err(format!(
                "equivalence violation: grouped csr_mv ('{}') is not bit-identical to the \
                 reference",
                exec.name()
            ));
        }
        let run = |threads: usize| {
            let mut q = vec![0.0; n];
            MtFused::new(*exec, threads)
                .with_row_map(Some(&row_map))
                .xtxp(&grouped, &p, &mut q);
            q
        };
        let g_ref = run(1);
        let err = reference::rel_l2_error(&g_ref, &unfused);
        grouped_rel_l2 = grouped_rel_l2.max(err);
        if err > SIMD_REL_L2_TOL {
            return Err(format!(
                "equivalence violation: grouped fused ('{}') diverges from the unfused \
                 reference by rel_l2 {err:e} (tolerance {SIMD_REL_L2_TOL:e})",
                exec.name()
            ));
        }
        for &t in &opts.threads {
            if !bits_eq(&run(t), &g_ref) {
                return Err(format!(
                    "determinism violation: grouped fused ('{}', {t} threads) is not \
                     bit-identical to its single-thread result",
                    exec.name()
                ));
            }
        }
    }

    // ---- roofline predictions ----
    let mut clock = CpuEngine::mkl_8threads();
    let unfused_pred = clock.csrmv_ms(x.nnz(), m) + clock.csrmv_t_ms(x.nnz(), m, n);
    let fused_pred = clock.pattern_sparse_fused_ms(m, n, x.nnz(), false, false, false);

    // ---- timings (preallocated buffers, warm-up, min-over-repeats) ----
    let mut q = vec![0.0; n];
    let unfused_ms = min_ms(opts.repeats, || {
        reference::csr_mv_into(x, &p, &mut tmp);
        reference::csr_tmv_into(x, &tmp, &mut q);
        std::hint::black_box(&q);
    });

    let mut legs = Vec::new();
    for exec in &execs {
        let fused_ms = min_ms(opts.repeats, || {
            fused_xtxp_csr(*exec, x, &p, &mut q);
            std::hint::black_box(&q);
        });
        legs.push(leg_json(exec.name(), 1, fused_ms, fused_pred, unfused_ms));

        let layouts = [
            ("+mt", x, None),
            ("+mt+grouped", &grouped, Some(row_map.as_slice())),
        ];
        for (layout, xm, map) in layouts {
            for &t in &opts.threads {
                let mt = MtFused::new(*exec, t).with_row_map(map);
                let mut ws = MtWorkspace::new(n, mt.blocks());
                let mt_ms = min_ms(opts.repeats, || {
                    mt.xtxp_with(&mut ws, xm, &p, &mut q);
                    std::hint::black_box(&q);
                });
                legs.push(leg_json(
                    &format!("{}{layout}", exec.name()),
                    t,
                    mt_ms,
                    fused_pred,
                    unfused_ms,
                ));
            }
        }
    }

    Ok(Json::obj(vec![
        ("id", Json::str(format!("xtxp/{kind}/{m}x{n}"))),
        ("rows", Json::u64(m as u64)),
        ("cols", Json::u64(n as u64)),
        ("nnz", Json::u64(x.nnz() as u64)),
        ("regroup_ms", Json::num(regroup_ms)),
        (
            "unfused",
            Json::obj(vec![
                ("measured_ms", Json::num(unfused_ms)),
                ("predicted_ms", Json::num(unfused_pred)),
                (
                    "predicted_over_measured",
                    Json::num(unfused_pred / unfused_ms.max(1e-9)),
                ),
            ]),
        ),
        ("fused", Json::Arr(legs)),
        (
            "equivalence",
            Json::obj(vec![
                ("scalar_bit_identical", Json::Bool(true)),
                ("simd_rel_l2", Json::num(simd_rel_l2)),
                ("grouped_rel_l2", Json::num(grouped_rel_l2)),
                (
                    "mt_bit_identical_threads",
                    Json::Arr(opts.threads.iter().map(|&t| Json::u64(t as u64)).collect()),
                ),
            ]),
        ),
    ]))
}

/// Measured fused-vs-unfused pattern on one dense matrix (single-threaded
/// legs only: the dense fused pass is dot+axpy per row through each
/// executor's SIMD primitives).
fn dense_workload(x: &DenseMatrix, opts: &CpuBenchOptions) -> Result<Json, String> {
    let (m, n) = (x.rows(), x.cols());
    let p = random_vector(n, opts.seed + 2);
    let execs = available_executors();

    let mut tmp = vec![0.0; m];
    let mut unfused = vec![0.0; n];
    reference::dense_mv_into(x, &p, &mut tmp);
    reference::dense_tmv_into(x, &tmp, &mut unfused);

    let mut simd_rel_l2 = 0.0f64;
    for exec in &execs {
        let mut w = vec![0.0; n];
        fusedml_blas::exec::fused_pattern_dense(*exec, 1.0, x, None, &p, 0.0, None, &mut w);
        let err = reference::rel_l2_error(&w, &unfused);
        simd_rel_l2 = simd_rel_l2.max(err);
        if err > SIMD_REL_L2_TOL {
            return Err(format!(
                "equivalence violation: dense fused ('{}') diverges from the unfused reference \
                 by rel_l2 {err:e}",
                exec.name()
            ));
        }
    }

    let mut clock = CpuEngine::mkl_8threads();
    let unfused_pred = clock.gemv_ms(m, n) + clock.gemv_t_ms(m, n);
    let fused_pred = clock.pattern_dense_fused_ms(m, n, false, false, false);

    let mut w = vec![0.0; n];
    let unfused_ms = min_ms(opts.repeats, || {
        reference::dense_mv_into(x, &p, &mut tmp);
        reference::dense_tmv_into(x, &tmp, &mut w);
        std::hint::black_box(&w);
    });

    let mut legs = Vec::new();
    for exec in &execs {
        let fused_ms = min_ms(opts.repeats, || {
            fusedml_blas::exec::fused_pattern_dense(*exec, 1.0, x, None, &p, 0.0, None, &mut w);
            std::hint::black_box(&w);
        });
        legs.push(leg_json(exec.name(), 1, fused_ms, fused_pred, unfused_ms));
    }

    Ok(Json::obj(vec![
        ("id", Json::str(format!("pattern/dense/{m}x{n}"))),
        ("rows", Json::u64(m as u64)),
        ("cols", Json::u64(n as u64)),
        (
            "unfused",
            Json::obj(vec![
                ("measured_ms", Json::num(unfused_ms)),
                ("predicted_ms", Json::num(unfused_pred)),
                (
                    "predicted_over_measured",
                    Json::num(unfused_pred / unfused_ms.max(1e-9)),
                ),
            ]),
        ),
        ("fused", Json::Arr(legs)),
        (
            "equivalence",
            Json::obj(vec![
                ("scalar_bit_identical", Json::Bool(true)),
                ("simd_rel_l2", Json::num(simd_rel_l2)),
            ]),
        ),
    ]))
}

/// Run the measured CPU benchmark and produce the schema-versioned JSON
/// report. `Err` means an equivalence/determinism invariant failed or the
/// options are unusable (`repeats == 0`) — the CLI exits 1 on it.
pub fn run_cpu_bench(opts: &CpuBenchOptions) -> Result<Json, String> {
    if opts.repeats == 0 {
        return Err(
            "cpu bench needs --repeats >= 1 (one untimed warm-up plus timed runs)".to_string(),
        );
    }
    if opts.threads.is_empty() || opts.threads.contains(&0) {
        return Err("cpu bench thread list must be non-empty positive counts".to_string());
    }

    let (sp_rows, sp_cols, density) = match opts.mode {
        Mode::Quick => (4_000usize, 384usize, 0.02),
        Mode::Full => (30_000, 1024, 0.01),
    };
    let (d_rows, d_cols) = match opts.mode {
        Mode::Quick => (800usize, 128usize),
        Mode::Full => (6_000, 256),
    };
    let scale = |rows: usize| ((rows as f64 * opts.scale).round() as usize).max(64);

    let x_sparse = uniform_sparse(scale(sp_rows), sp_cols, density, opts.seed);
    // Short, skewed rows (about 4 non-zeros per row on average, many
    // rows of 1-3): here the per-row cost, not bandwidth, bounds the
    // fused pass.
    let x_powerlaw = powerlaw_sparse(scale(2 * sp_rows), 4 * sp_cols, 16.0, 0.8, opts.seed + 3);
    let x_dense = dense_random(scale(d_rows), d_cols, opts.seed + 7);

    let workloads = vec![
        sparse_workload("csr", &x_sparse, opts)?,
        sparse_workload("csr-powerlaw", &x_powerlaw, opts)?,
        dense_workload(&x_dense, opts)?,
    ];

    Ok(Json::obj(vec![
        ("schema_version", Json::u64(CPU_SCHEMA_VERSION)),
        ("kind", Json::str("cpu-bench")),
        ("mode", Json::str(opts.mode.as_str())),
        ("scale", Json::num(opts.scale)),
        ("seed", Json::str(format!("{:#x}", opts.seed))),
        ("repeats", Json::u64(opts.repeats as u64)),
        (
            "host",
            Json::obj(vec![
                (
                    "active_executor",
                    Json::str(fusedml_blas::exec::active_executor().name()),
                ),
                (
                    "avx2_detected",
                    Json::Bool(fusedml_blas::exec::avx2_executor().is_some()),
                ),
                ("forced_scalar", Json::Bool(scalar_forced())),
                (
                    "available_parallelism",
                    Json::u64(
                        std::thread::available_parallelism()
                            .map(|n| n.get() as u64)
                            .unwrap_or(1),
                    ),
                ),
            ]),
        ),
        ("workloads", Json::Arr(workloads)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> CpuBenchOptions {
        CpuBenchOptions {
            scale: 0.02,
            repeats: 1,
            threads: vec![1, 2],
            ..Default::default()
        }
    }

    #[test]
    fn report_has_schema_and_round_trips() {
        let report = run_cpu_bench(&tiny_opts()).expect("equivalence must hold");
        assert_eq!(
            report.field_u64("schema_version").unwrap(),
            CPU_SCHEMA_VERSION
        );
        assert_eq!(report.field_str("kind").unwrap(), "cpu-bench");
        let text = report.render();
        let back = Json::parse(&text).expect("report parses");
        assert_eq!(back, report, "report must round-trip bit-exactly");

        let wls = report.field("workloads").unwrap().as_arr().unwrap();
        assert_eq!(wls.len(), 3);
        for wl in wls {
            let unfused = wl.field("unfused").unwrap();
            assert!(unfused.field_f64("measured_ms").unwrap() >= 0.0);
            assert!(unfused.field_f64("predicted_over_measured").unwrap() > 0.0);
            let legs = wl.field("fused").unwrap().as_arr().unwrap();
            assert!(!legs.is_empty());
            if wl.field_str("id").unwrap().starts_with("xtxp/") {
                assert!(wl.field_f64("regroup_ms").unwrap() >= 0.0);
                assert!(legs
                    .iter()
                    .any(|l| l.field_str("executor").unwrap().ends_with("+mt+grouped")));
            }
            for leg in legs {
                assert!(leg.field_f64("measured_ms").unwrap() >= 0.0);
                assert!(leg.field_f64("speedup_vs_unfused").unwrap() > 0.0);
            }
        }
    }

    #[test]
    fn zero_repeats_is_an_error() {
        let mut opts = tiny_opts();
        opts.repeats = 0;
        assert!(run_cpu_bench(&opts).is_err());
    }

    #[test]
    fn zero_threads_is_an_error() {
        let mut opts = tiny_opts();
        opts.threads = vec![1, 0];
        assert!(run_cpu_bench(&opts).is_err());
    }

    #[test]
    fn host_block_reports_dispatch_state() {
        let report = run_cpu_bench(&tiny_opts()).expect("equivalence must hold");
        let host = report.field("host").unwrap();
        let active = host.field_str("active_executor").unwrap();
        assert!(active == "scalar" || active == "avx2");
        host.field("avx2_detected").unwrap();
        host.field("forced_scalar").unwrap();
        assert!(host.field_u64("available_parallelism").unwrap() >= 1);
    }
}
