//! Seeded property tests on the CPU `KernelExecutor` backends, written as
//! plain `#[test]`s over a hand-rolled SplitMix64 generator so they run in
//! offline builds where `proptest` is a compile-surface stub (same idiom
//! as `dag_fusion_properties.rs`).
//!
//! The equivalence contract the executor layer must uphold:
//!
//! 1. **Scalar fused == unfused reference, bit for bit**: the fused
//!    one-pass pattern kernel only changes *where* the per-row
//!    intermediate lives (a register instead of a vector), never the
//!    arithmetic order.
//! 2. **AVX2 tracks scalar**: element-wise kernels are bit-identical
//!    (one rounding per element, same order); reductions re-associate
//!    into four lanes and must stay within a documented relative-L2
//!    tolerance.
//! 3. **Multithreaded fused is schedule-free**: for a fixed block count,
//!    the result is bit-identical across thread counts 1/2/4 and across
//!    partitions that do not divide the row count — the reduction tree is
//!    a function of matrix shape and block count only.
//! 4. **`_into` variants == allocating forms, bit for bit**, even into
//!    NaN-poisoned output buffers.
//! 5. **Row-range kernels == the per-row composition, bit for bit**: the
//!    CSR kernels run one call per row range, and every executor's result
//!    equals one row dot per row followed by the `v` scale, zero-skip and
//!    scatter — on empty rows, every row length 0–9, power-law rows, `v`
//!    holding `0.0`/`-0.0`, and sub-ranges that start past row 0.
//! 6. **Length-grouped row order changes only the scatter order**: on the
//!    same short-row inputs regrouped by `CsrMatrix::group_rows_by_length`,
//!    `csr_mv` through the row map is bit-identical to the reference (each
//!    row's dot product keeps its order), the pattern and `csr_tmv` stay
//!    within a re-ordering tolerance of it, and the grouped fused
//!    `CpuBackend` tier is bit-identical across thread counts.

use fusedml_blas::{
    available_executors, avx2_executor, fused_pattern_csr, fused_pattern_dense, scalar_executor,
    KernelExecutor, MtFused, MtWorkspace,
};
use fusedml_core::PatternSpec;
use fusedml_matrix::gen::{dense_random, powerlaw_sparse, random_vector, uniform_sparse};
use fusedml_matrix::{reference, CsrMatrix};
use fusedml_ml::{Backend, CpuBackend};
use std::ops::Range;

/// SIMD reductions re-associate; everything else must be exact.
const REDUCTION_REL_L2_TOL: f64 = 1e-13;

/// Length-grouped row order adds each output's products in another row
/// order: a few roundings per element (measured at most 1.8e-16 on these
/// inputs and below 1e-15 on a 200000-row power-law matrix).
const REORDER_REL_L2_TOL: f64 = 1e-13;

/// SplitMix64: tiny, seedable, and good enough to sweep shape space.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One random pattern instantiation: shape, sparsity, and which of the
/// optional `v`/`z` operands (and non-trivial `alpha`/`beta`) are present.
struct Case {
    x: fusedml_matrix::CsrMatrix,
    alpha: f64,
    v: Option<Vec<f64>>,
    y: Vec<f64>,
    beta: f64,
    z: Option<Vec<f64>>,
}

fn random_case(rng: &mut Rng) -> Case {
    let rows = 1 + rng.below(160);
    let cols = 1 + rng.below(96);
    let density = 0.02 + rng.f64() * 0.2;
    let seed = rng.next();
    let x = uniform_sparse(rows, cols, density, seed);
    let alpha = if rng.below(2) == 0 {
        1.0
    } else {
        0.25 + rng.f64()
    };
    let v = (rng.below(2) == 0).then(|| random_vector(rows, seed ^ 0x11));
    let y = random_vector(cols, seed ^ 0x22);
    let z = (rng.below(2) == 0).then(|| random_vector(cols, seed ^ 0x33));
    let beta = if z.is_some() { -0.5 + rng.f64() } else { 0.0 };
    Case {
        x,
        alpha,
        v,
        y,
        beta,
        z,
    }
}

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn run_fused(exec: &dyn KernelExecutor, c: &Case) -> Vec<f64> {
    let mut w = vec![f64::NAN; c.x.cols()];
    fused_pattern_csr(
        exec,
        c.alpha,
        &c.x,
        c.v.as_deref(),
        &c.y,
        c.beta,
        c.z.as_deref(),
        &mut w,
    );
    w
}

#[test]
fn scalar_fused_pattern_is_bit_identical_to_unfused_reference() {
    let mut rng = Rng::new(0xa11ce);
    for case_no in 0..32 {
        let c = random_case(&mut rng);
        let unfused =
            reference::pattern_csr(c.alpha, &c.x, c.v.as_deref(), &c.y, c.beta, c.z.as_deref());
        let fused = run_fused(scalar_executor(), &c);
        assert!(
            bits_eq(&fused, &unfused),
            "case {case_no} ({}x{}, v={}, z={}): scalar fused diverged from unfused reference",
            c.x.rows(),
            c.x.cols(),
            c.v.is_some(),
            c.z.is_some()
        );
    }
}

#[test]
fn scalar_fused_dense_pattern_is_bit_identical_to_unfused_reference() {
    let mut rng = Rng::new(0xd15c0);
    for case_no in 0..16 {
        let rows = 1 + rng.below(96);
        let cols = 1 + rng.below(64);
        let seed = rng.next();
        let x = dense_random(rows, cols, seed);
        let y = random_vector(cols, seed ^ 0x22);
        let v = (rng.below(2) == 0).then(|| random_vector(rows, seed ^ 0x11));
        let z = (rng.below(2) == 0).then(|| random_vector(cols, seed ^ 0x33));
        let (alpha, beta) = (0.5 + rng.f64(), -0.25 + rng.f64());
        let unfused = reference::pattern_dense(alpha, &x, v.as_deref(), &y, beta, z.as_deref());
        let mut fused = vec![f64::NAN; cols];
        fused_pattern_dense(
            scalar_executor(),
            alpha,
            &x,
            v.as_deref(),
            &y,
            beta,
            z.as_deref(),
            &mut fused,
        );
        assert!(
            bits_eq(&fused, &unfused),
            "case {case_no} ({rows}x{cols}): scalar dense fused diverged"
        );
    }
}

#[test]
fn avx2_elementwise_kernels_are_bit_identical_to_scalar() {
    let Some(avx2) = avx2_executor() else {
        eprintln!("host has no AVX2; skipping");
        return;
    };
    let scalar = scalar_executor();
    let mut rng = Rng::new(0xe1e);
    // Lengths straddle the 4-lane width so remainders get exercised.
    for _ in 0..24 {
        let n = 1 + rng.below(203);
        let seed = rng.next();
        let x = random_vector(n, seed);
        let a = -1.0 + 2.0 * rng.f64();

        let mut ys = random_vector(n, seed ^ 0x44);
        let mut yv = ys.clone();
        scalar.axpy(a, &x, &mut ys);
        avx2.axpy(a, &x, &mut yv);
        assert!(bits_eq(&ys, &yv), "axpy(len {n}) diverged");

        let mut ss = x.clone();
        let mut sv = x.clone();
        scalar.scal(a, &mut ss);
        avx2.scal(a, &mut sv);
        assert!(bits_eq(&ss, &sv), "scal(len {n}) diverged");

        let m = random_vector(n, seed ^ 0x55);
        let mut es = vec![f64::NAN; n];
        let mut ev = vec![f64::NAN; n];
        scalar.ewmul(&x, &m, &mut es);
        avx2.ewmul(&x, &m, &mut ev);
        assert!(bits_eq(&es, &ev), "ewmul(len {n}) diverged");
    }
}

#[test]
fn avx2_fused_pattern_tracks_scalar_within_reduction_tolerance() {
    let Some(avx2) = avx2_executor() else {
        eprintln!("host has no AVX2; skipping");
        return;
    };
    let mut rng = Rng::new(0xf00d);
    for case_no in 0..32 {
        let c = random_case(&mut rng);
        let scalar = run_fused(scalar_executor(), &c);
        let simd = run_fused(avx2, &c);
        let err = reference::rel_l2_error(&simd, &scalar);
        assert!(
            err <= REDUCTION_REL_L2_TOL,
            "case {case_no} ({}x{}): avx2 rel_l2 {err:e} exceeds {REDUCTION_REL_L2_TOL:e}",
            c.x.rows(),
            c.x.cols()
        );
    }
}

#[test]
fn mt_fused_is_bit_identical_across_thread_counts() {
    let mut rng = Rng::new(0x7ead);
    for case_no in 0..12 {
        let c = random_case(&mut rng);
        for exec in available_executors() {
            let baseline = {
                let mt = MtFused::new(exec, 1);
                let mut w = vec![f64::NAN; c.x.cols()];
                mt.pattern_csr(
                    c.alpha,
                    &c.x,
                    c.v.as_deref(),
                    &c.y,
                    c.beta,
                    c.z.as_deref(),
                    &mut w,
                );
                w
            };
            for threads in [2, 4] {
                let mt = MtFused::new(exec, threads);
                let mut w = vec![f64::NAN; c.x.cols()];
                mt.pattern_csr(
                    c.alpha,
                    &c.x,
                    c.v.as_deref(),
                    &c.y,
                    c.beta,
                    c.z.as_deref(),
                    &mut w,
                );
                assert!(
                    bits_eq(&w, &baseline),
                    "case {case_no} ('{}', {threads} threads, {} rows): result depends on \
                     thread count",
                    exec.name(),
                    c.x.rows()
                );
            }
        }
    }
}

#[test]
fn mt_fused_is_bit_identical_across_non_dividing_partitions() {
    let mut rng = Rng::new(0xb10c);
    let exec = scalar_executor();
    for case_no in 0..8 {
        let c = random_case(&mut rng);
        // Block counts that do not divide the row count (and exceed it):
        // for a FIXED block count the result must not depend on how many
        // threads claim the blocks. Different block counts may legally
        // differ (the reduction tree changes) — that is why the baseline
        // is re-derived per block count.
        for blocks in [1, 3, 7, 50, 64] {
            let baseline = {
                let mt = MtFused::new(exec, 1).with_blocks(blocks);
                let mut w = vec![f64::NAN; c.x.cols()];
                mt.xtxp(&c.x, &c.y, &mut w);
                w
            };
            for threads in [2, 3, 16] {
                let mt = MtFused::new(exec, threads).with_blocks(blocks);
                let mut ws = MtWorkspace::new(c.x.cols(), mt.blocks());
                let mut w = vec![f64::NAN; c.x.cols()];
                mt.xtxp_with(&mut ws, &c.x, &c.y, &mut w);
                assert!(
                    bits_eq(&w, &baseline),
                    "case {case_no} ({} rows, {blocks} blocks, {threads} threads): \
                     partition-dependent result",
                    c.x.rows()
                );
            }
        }
    }
}

#[test]
fn mt_fused_full_pattern_stays_within_tolerance_of_reference() {
    let mut rng = Rng::new(0x5eed5);
    for case_no in 0..12 {
        let c = random_case(&mut rng);
        let unfused =
            reference::pattern_csr(c.alpha, &c.x, c.v.as_deref(), &c.y, c.beta, c.z.as_deref());
        for exec in available_executors() {
            let mt = MtFused::new(exec, 4);
            let mut w = vec![f64::NAN; c.x.cols()];
            mt.pattern_csr(
                c.alpha,
                &c.x,
                c.v.as_deref(),
                &c.y,
                c.beta,
                c.z.as_deref(),
                &mut w,
            );
            let err = reference::rel_l2_error(&w, &unfused);
            assert!(
                err <= REDUCTION_REL_L2_TOL,
                "case {case_no} ('{}'): mt fused rel_l2 {err:e} vs unfused reference",
                exec.name()
            );
        }
    }
}

#[test]
fn into_variants_match_allocating_forms_bit_for_bit() {
    let mut rng = Rng::new(0x1a70);
    for _ in 0..12 {
        let rows = 1 + rng.below(120);
        let cols = 1 + rng.below(80);
        let seed = rng.next();
        let x = uniform_sparse(rows, cols, 0.05 + rng.f64() * 0.15, seed);
        let d = dense_random(rows, cols, seed ^ 0x9);
        let y = random_vector(cols, seed ^ 0x22);
        let p = random_vector(rows, seed ^ 0x44);

        // NaN poison proves every output element is written, not merely
        // accumulated into.
        let mut out_r = vec![f64::NAN; rows];
        let mut out_c = vec![f64::NAN; cols];

        reference::csr_mv_into(&x, &y, &mut out_r);
        assert!(bits_eq(&out_r, &reference::csr_mv(&x, &y)));
        reference::csr_tmv_into(&x, &p, &mut out_c);
        assert!(bits_eq(&out_c, &reference::csr_tmv(&x, &p)));

        out_r.fill(f64::NAN);
        out_c.fill(f64::NAN);
        reference::dense_mv_into(&d, &y, &mut out_r);
        assert!(bits_eq(&out_r, &reference::dense_mv(&d, &y)));
        reference::dense_tmv_into(&d, &p, &mut out_c);
        assert!(bits_eq(&out_c, &reference::dense_tmv(&d, &p)));
    }
}

/// A matrix whose first rows cycle through every length 0–9 (empty rows
/// included), followed by rows with a heavy-tailed length distribution.
fn short_row_matrix(rng: &mut Rng) -> CsrMatrix {
    let cols = 10 + rng.below(60);
    let rows = 20 + rng.below(140);
    let mut row_off = vec![0];
    let (mut col_idx, mut values) = (Vec::new(), Vec::new());
    for r in 0..rows {
        let len = if r < 30 {
            r % 10
        } else {
            ((1.0 / (0.03 + rng.f64())) as usize).min(cols)
        };
        let mut picked: Vec<u32> = Vec::with_capacity(len);
        while picked.len() < len {
            let c = rng.below(cols) as u32;
            if !picked.contains(&c) {
                picked.push(c);
            }
        }
        picked.sort_unstable();
        for c in picked {
            col_idx.push(c);
            values.push(-1.0 + 2.0 * rng.f64());
        }
        row_off.push(col_idx.len());
    }
    CsrMatrix::from_parts(rows, cols, row_off, col_idx, values)
}

/// The row-range kernels' inputs: short-row and power-law matrices, and a
/// `v` in which about half the entries are `0.0` or `-0.0`.
fn row_range_cases() -> Vec<(CsrMatrix, Vec<f64>, Vec<f64>)> {
    let mut rng = Rng::new(0x5407);
    let mut out = Vec::new();
    for i in 0..24 {
        let x = if i % 3 == 2 {
            powerlaw_sparse(
                50 + rng.below(200),
                8 + rng.below(120),
                3.0,
                0.8,
                rng.next(),
            )
        } else {
            short_row_matrix(&mut rng)
        };
        let y = random_vector(x.cols(), rng.next());
        let mut v = random_vector(x.rows(), rng.next());
        for vi in &mut v {
            match rng.below(4) {
                0 => *vi = 0.0,
                1 => *vi = -0.0,
                _ => {}
            }
        }
        out.push((x, y, v));
    }
    out
}

/// The per-row composition the row-range kernels replaced: one row's dot
/// product with `y`, scaled by `v`, skipped if zero, and scattered into
/// `acc`.
fn per_row_fused(x: &CsrMatrix, v: Option<&[f64]>, y: &[f64], rows: Range<usize>, acc: &mut [f64]) {
    for r in rows {
        let mut t: f64 = x.row_entries(r).map(|(c, a)| a * y[c as usize]).sum();
        if let Some(v) = v {
            t *= v[r];
        }
        if t != 0.0 {
            for (c, val) in x.row_entries(r) {
                acc[c as usize] += val * t;
            }
        }
    }
}

/// Sub-ranges of `0..rows`, most of them starting past row 0.
fn sub_ranges(rows: usize) -> Vec<Range<usize>> {
    let third = rows / 3;
    vec![
        0..rows,
        third..rows,
        third..2 * third,
        rows - 1..rows,
        third..third,
    ]
}

#[test]
fn scalar_fused_rows_match_reference_bit_for_bit() {
    let exec = scalar_executor();
    for (i, (x, y, v)) in row_range_cases().iter().enumerate() {
        for rows in sub_ranges(x.rows()) {
            let sub = x.slice_rows(rows.start, rows.end);
            let vs = &v[rows.clone()];
            let mut acc = vec![0.0; x.cols()];
            exec.fused_pattern_rows_csr(x, Some(v), y, rows.clone(), &mut acc);
            let expect = reference::pattern_csr(1.0, &sub, Some(vs), y, 0.0, None);
            assert!(bits_eq(&acc, &expect), "case {i} rows {rows:?}: fused rows");
        }
    }
}

#[test]
fn row_range_kernels_equal_the_per_row_composition_bit_for_bit() {
    for (i, (x, y, v)) in row_range_cases().iter().enumerate() {
        // A non-zero `acc` (the kernel adds, it does not overwrite) with
        // some `-0.0` entries, which adding a skipped row's `±0.0`
        // products would turn into `+0.0`.
        let mut init = random_vector(x.cols(), i as u64);
        init.iter_mut().step_by(3).for_each(|a| *a = -0.0);
        for exec in available_executors() {
            for rows in sub_ranges(x.rows()) {
                for v in [None, Some(v.as_slice())] {
                    let mut got = init.clone();
                    exec.fused_pattern_rows_csr(x, v, y, rows.clone(), &mut got);
                    let mut expect = init.clone();
                    per_row_fused(x, v, y, rows.clone(), &mut expect);
                    assert!(
                        bits_eq(&got, &expect),
                        "case {i} '{}' rows {rows:?} v={}: row-range kernel diverged",
                        exec.name(),
                        v.is_some()
                    );
                }
            }
        }
    }
}

#[test]
fn mt_fused_short_rows_are_bit_identical_across_thread_counts() {
    for (i, (x, y, v)) in row_range_cases().iter().enumerate() {
        for exec in available_executors() {
            let run = |threads: usize| {
                let mut w = vec![f64::NAN; x.cols()];
                MtFused::new(exec, threads).pattern_csr(0.5, x, Some(v), y, 0.0, None, &mut w);
                w
            };
            let base = run(1);
            for threads in [2, 3, 4, 16] {
                assert!(
                    bits_eq(&run(threads), &base),
                    "case {i} '{}': {threads} threads diverged",
                    exec.name()
                );
            }
        }
    }
}

/// `x` regrouped into length-grouped row order inside the canonical row
/// blocks, and its row map.
fn grouped(x: &CsrMatrix) -> (CsrMatrix, Vec<u32>) {
    let mut g = x.clone();
    let map = g.group_rows_by_length(MtFused::new(scalar_executor(), 1).block_rows(x.rows()));
    (g, map)
}

#[test]
fn grouped_csr_mv_is_bit_identical_to_reference() {
    for (i, (x, y, _)) in row_range_cases().iter().enumerate() {
        let (g, map) = grouped(x);
        let expect = reference::csr_mv(x, y);
        for exec in available_executors() {
            let mut out = vec![f64::NAN; x.rows()];
            exec.csr_mv_mapped(&g, Some(&map), y, &mut out);
            assert!(
                bits_eq(&out, &expect),
                "case {i} '{}': grouped csr_mv diverged from the reference",
                exec.name()
            );
        }
    }
}

#[test]
fn grouped_pattern_and_tmv_stay_within_reorder_tolerance_of_reference() {
    for (i, (x, y, v)) in row_range_cases().iter().enumerate() {
        let (g, map) = grouped(x);
        let tmv = reference::csr_tmv(x, v);
        let pattern = reference::pattern_csr(0.5, x, Some(v), y, 0.0, None);
        for exec in available_executors() {
            let mut w = vec![f64::NAN; x.cols()];
            exec.csr_tmv_mapped(&g, Some(&map), v, &mut w);
            let err = reference::rel_l2_error(&w, &tmv);
            assert!(
                err <= REORDER_REL_L2_TOL,
                "case {i} '{}': grouped csr_tmv rel_l2 {err:e}",
                exec.name()
            );

            let run = |threads: usize| {
                let mut w = vec![f64::NAN; x.cols()];
                MtFused::new(exec, threads)
                    .with_row_map(Some(&map))
                    .pattern_csr(0.5, &g, Some(v), y, 0.0, None, &mut w);
                w
            };
            let base = run(1);
            let err = reference::rel_l2_error(&base, &pattern);
            assert!(
                err <= REORDER_REL_L2_TOL,
                "case {i} '{}': grouped pattern rel_l2 {err:e}",
                exec.name()
            );
            for threads in [2, 3, 16] {
                assert!(
                    bits_eq(&run(threads), &base),
                    "case {i} '{}': grouped pattern at {threads} threads diverged",
                    exec.name()
                );
            }
        }
    }
}

#[test]
fn grouped_fused_cpu_tier_is_bit_identical_across_thread_counts() {
    for (i, (x, y, v)) in row_range_cases().iter().enumerate() {
        let run = |threads: usize| {
            let mut b = CpuBackend::new_sparse(x.clone()).with_fused_execution(threads);
            let (yv, vv) = (b.from_host("y", y), b.from_host("v", v));
            let mut w = b.zeros("w", x.cols());
            b.pattern(PatternSpec::xtvxy(), Some(&vv), &yv, None, &mut w);
            let mut t = b.zeros("t", x.cols());
            b.tmv(1.0, &vv, &mut t);
            let mut o = b.zeros("o", x.rows());
            b.mv(&yv, &mut o);
            [w, t, o]
        };
        let base = run(1);
        assert!(
            bits_eq(&base[2], &reference::csr_mv(x, y)),
            "case {i}: fused tier mv diverged from the reference"
        );
        let pattern = reference::pattern_csr(1.0, x, Some(v), y, 0.0, None);
        let err = reference::rel_l2_error(&base[0], &pattern);
        assert!(
            err <= REORDER_REL_L2_TOL,
            "case {i}: fused tier pattern rel_l2 {err:e}"
        );
        let err = reference::rel_l2_error(&base[1], &reference::csr_tmv(x, v));
        assert!(
            err <= REORDER_REL_L2_TOL,
            "case {i}: fused tier tmv rel_l2 {err:e}"
        );
        for threads in [2, 3, 16] {
            let got = run(threads);
            for (k, name) in ["pattern", "tmv", "mv"].iter().enumerate() {
                assert!(
                    bits_eq(&got[k], &base[k]),
                    "case {i}: fused tier {name} at {threads} threads diverged"
                );
            }
        }
    }
}
