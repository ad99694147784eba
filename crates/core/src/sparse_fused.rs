//! The sparse fused kernels — Algorithms 1 and 2 of the paper, in the
//! shared-memory (small `n`) configuration.
//!
//! One kernel evaluates the entire pattern: every CSR row is scanned by a
//! *vector* of `VS` cooperating threads; the dot product `X[r,:] x y`
//! reduces in registers (warp shuffles), is scaled by `v[r]`, and the row is
//! immediately re-scanned — now cache-resident (temporal locality) — to
//! scatter partial results of `w` into a shared-memory accumulator
//! (inter-vector aggregation). After a single barrier, each block flushes
//! its accumulator to global `w` with one atomic per column (inter-block
//! aggregation). The `beta * z` term is folded in as an atomic
//! initialization pass, exactly as Algorithm 2 lines 3-4 discuss.

use crate::pattern::PatternSpec;
use crate::tuner::SparsePlan;
use fusedml_blas::GpuCsr;
use fusedml_gpu_sim::{
    BlockCtx, DeviceError, Gpu, GpuBuffer, LaunchConfig, LaunchStats, Shared, WarpCtx, WARP_LANES,
};

/// Zero the shared accumulator (Algorithm 1 line 6), block-stride.
pub(crate) fn zero_shared(blk: &mut BlockCtx, sd: Shared, n: usize) {
    let bs = blk.block_dim();
    blk.each_warp(|wc| {
        let mut base = wc.tid(0);
        while base < n {
            wc.shared_store(sd, |lane| (base + lane < n).then_some((base + lane, 0.0)));
            base += bs;
        }
    });
}

/// The `beta * z` initialization (Algorithm 2 lines 3-4): grid-stride
/// atomic adds into global `w`, which CUDA's lack of inter-block barriers
/// forces to be atomic.
pub(crate) fn beta_z_init(blk: &mut BlockCtx, w: &GpuBuffer, z: &GpuBuffer, beta: f64, n: usize) {
    let grid_threads = blk.grid_dim() * blk.block_dim();
    blk.each_warp(|wc| {
        let mut base = wc.gtid(0);
        while base < n {
            let zs = wc.load_f64(z, |lane| (base + lane < n).then_some(base + lane));
            wc.flops((n - base).min(WARP_LANES) as u64);
            wc.atomic_add_f64(w, |lane| {
                (base + lane < n).then(|| (base + lane, beta * zs[lane]))
            });
            base += grid_threads;
        }
    });
}

/// Final inter-block aggregation (Algorithm 1 lines 15-16 / Algorithm 2
/// lines 17-18): `w[i] += alpha * SD[i]`, block-stride, one global atomic
/// per column per block.
pub(crate) fn flush_shared(blk: &mut BlockCtx, sd: Shared, w: &GpuBuffer, alpha: f64, n: usize) {
    let bs = blk.block_dim();
    blk.each_warp(|wc| {
        let mut base = wc.tid(0);
        while base < n {
            let s = wc.shared_load(sd, |lane| (base + lane < n).then_some(base + lane));
            wc.flops((n - base).min(WARP_LANES) as u64);
            wc.atomic_add_f64(w, |lane| {
                (base + lane < n).then(|| (base + lane, alpha * s[lane]))
            });
            base += bs;
        }
    });
}

/// `(tid / vs, tid % vs)` for the warp's 32 consecutive thread ids from
/// `tid0`: one division for the warp, then a carry per lane. Kernels call
/// this once per warp so their lane loops do no integer division.
#[inline]
pub(crate) fn lane_divmod(tid0: usize, vs: usize) -> [(usize, usize); WARP_LANES] {
    let (mut q, mut r) = (tid0 / vs, tid0 % vs);
    std::array::from_fn(|_| {
        let qr = (q, r);
        r += 1;
        if r == vs {
            r = 0;
            q += 1;
        }
        qr
    })
}

/// The rows a warp's lanes process, per the paper's schedule
/// `row = block_ID x NV + vid`, advancing by `gridSize / VS` each
/// coarsening step. The per-lane vector ids are computed once per warp.
pub(crate) struct WarpRows {
    first: [usize; WARP_LANES],
    stride: usize,
    m: usize,
    /// Threads per vector.
    pub(crate) vs: usize,
    /// `lane % vs`: each lane's position within its vector.
    lane_in_vector: [usize; WARP_LANES],
}

impl WarpRows {
    pub(crate) fn new(
        block_id: usize,
        nv: usize,
        total_vectors: usize,
        vs: usize,
        tid0: usize,
        m: usize,
    ) -> Self {
        let vids = lane_divmod(tid0, vs);
        let lanes = lane_divmod(0, vs);
        WarpRows {
            first: std::array::from_fn(|lane| block_id * nv + vids[lane].0),
            stride: total_vectors,
            m,
            vs,
            lane_in_vector: std::array::from_fn(|lane| lanes[lane].1),
        }
    }

    /// Each lane's row at coarsening step `ci` (`None` past the last
    /// row), or `None` when no lane has a row left.
    #[inline]
    pub(crate) fn step(&self, ci: usize) -> Option<[Option<usize>; WARP_LANES]> {
        let rows = std::array::from_fn(|lane| {
            let row = self.first[lane] + ci * self.stride;
            (row < self.m).then_some(row)
        });
        rows.iter().any(Option::is_some).then_some(rows)
    }

    /// Issue the two `row_off` loads (row starts, then row ends) for the
    /// lanes' `rows` and set up their strip-mined scan.
    pub(crate) fn scan(
        &self,
        wc: &mut WarpCtx,
        x: &GpuCsr,
        rows: &[Option<usize>; WARP_LANES],
    ) -> RowScan {
        let start = wc.load_u32(&x.row_off, |l| rows[l]);
        let end = wc.load_u32(&x.row_off, |l| rows[l].map(|r| r + 1));
        RowScan {
            first: std::array::from_fn(|l| start[l] as usize + self.lane_in_vector[l]),
            end: std::array::from_fn(|l| rows[l].map_or(0, |_| end[l] as usize)),
            vs: self.vs,
        }
    }
}

/// A warp's strip-mined scan over its lanes' CSR rows: in strip `k`, lane
/// `l` reads element `row_off[row] + l % VS + k * VS` while that is before
/// the row's end.
pub(crate) struct RowScan {
    first: [usize; WARP_LANES],
    /// Row end per lane; 0 for lanes without a row.
    end: [usize; WARP_LANES],
    vs: usize,
}

impl RowScan {
    /// Per-strip element indices (`None` = lane done) and active-lane
    /// count, until a strip has no active lane.
    pub(crate) fn strips(&self) -> impl Iterator<Item = ([Option<usize>; WARP_LANES], u64)> + '_ {
        (0..).map_while(move |k: usize| {
            let mut active = 0u64;
            let idx = std::array::from_fn(|l| {
                let i = self.first[l] + k * self.vs;
                let on = i < self.end[l];
                active += u64::from(on);
                on.then_some(i)
            });
            (active > 0).then_some((idx, active))
        })
    }
}

/// One coarsening step of the fused computation for one warp: dot product
/// with `y`, intra-vector shuffle reduction, optional `v[row]` scaling, and
/// the scatter of `X[r,:]^T * p[r]` into the aggregation target.
///
/// With `persist_p`, the first lane of each vector also stores its row's
/// `p[r]` there before the scatter (the sharded kernel's epilogue input).
///
/// `scatter` receives `(warp, col_of_lane, contribution_of_lane)` triples
/// once per strip so both the shared-memory and global-memory variants can
/// reuse the scan.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fused_row_step<S>(
    wc: &mut WarpCtx,
    x: &GpuCsr,
    y: &GpuBuffer,
    v: Option<&GpuBuffer>,
    persist_p: Option<&GpuBuffer>,
    schedule: &WarpRows,
    rows: &[Option<usize>; WARP_LANES],
    mut scatter: S,
) where
    S: FnMut(&mut WarpCtx, &[Option<usize>; WARP_LANES], &[u32; WARP_LANES], &[f64; WARP_LANES]),
{
    let vs = schedule.vs;
    let scan = schedule.scan(wc, x, rows);

    // ---- pass 1: p[r] = X[r,:] . y, reduced in registers ----
    let mut sum = [0.0f64; WARP_LANES];
    for (idx, active) in scan.strips() {
        let cols = wc.load_u32(&x.col_idx, |l| idx[l]);
        let vals = wc.load_f64(&x.values, |l| idx[l]);
        let ys = wc.load_f64_tex(y, |l| idx[l].map(|_| cols[l] as usize));
        for lane in 0..WARP_LANES {
            if idx[lane].is_some() {
                sum[lane] += vals[lane] * ys[lane];
            }
        }
        wc.flops(2 * active);
    }
    wc.shuffle_reduce_sum(&mut sum, vs);

    // ---- v[row] scaling (Algorithm 2 line 12) ----
    let p_r = if let Some(v) = v {
        let vr = wc.load_f64_tex(v, |l| rows[l]);
        let mut p = [0.0f64; WARP_LANES];
        for lane in 0..WARP_LANES {
            p[lane] = sum[lane] * vr[lane];
        }
        wc.flops(WARP_LANES as u64 / vs as u64);
        p
    } else {
        sum
    };

    if let Some(u) = persist_p {
        wc.store_f64(u, |lane| {
            rows[lane]
                .filter(|_| schedule.lane_in_vector[lane] == 0)
                .map(|r| (r, p_r[lane]))
        });
    }

    // ---- pass 2: scatter X[r,:]^T * p[r]; row now cache-resident ----
    for (idx, active) in scan.strips() {
        let cols = wc.load_u32(&x.col_idx, |l| idx[l]);
        let vals = wc.load_f64(&x.values, |l| idx[l]);
        let mut contrib = [0.0f64; WARP_LANES];
        for lane in 0..WARP_LANES {
            if idx[lane].is_some() {
                contrib[lane] = vals[lane] * p_r[lane];
            }
        }
        wc.flops(2 * active);
        scatter(wc, &idx, &cols, &contrib);
    }
}

/// Algorithm 2 (and, with `y` of row dimension, Algorithm 1): the complete
/// fused pattern with shared-memory inter-vector aggregation. Requires
/// `plan.use_shared_w`.
///
/// `w` must be zeroed by the caller (the executor charges a `fill`).
#[allow(clippy::too_many_arguments)] // mirrors the CUDA kernel signature
pub fn try_fused_pattern_shared(
    gpu: &Gpu,
    plan: &SparsePlan,
    spec: PatternSpec,
    x: &GpuCsr,
    v: Option<&GpuBuffer>,
    y: &GpuBuffer,
    z: Option<&GpuBuffer>,
    w: &GpuBuffer,
) -> Result<LaunchStats, DeviceError> {
    assert!(plan.use_shared_w, "plan is for the global-memory variant");
    assert_eq!(spec.with_v, v.is_some(), "v presence mismatch");
    assert_eq!(spec.with_z, z.is_some(), "z presence mismatch");
    assert_eq!(y.len(), x.cols, "y length mismatch");
    assert_eq!(w.len(), x.cols, "w length mismatch");
    let (m, n) = (x.rows, x.cols);
    let (vs, c) = (plan.vs, plan.c);
    let nv = plan.vectors_per_block();
    let total_vectors = plan.total_vectors();
    let cfg = LaunchConfig::new(plan.grid, plan.bs)
        .with_regs(plan.regs)
        .with_shared_bytes(plan.shared_bytes);
    let alpha = spec.alpha;
    let beta = spec.beta;

    gpu.try_launch("fused_sparse_shared", cfg, |blk| {
        let sd = blk.shared_f64(n);
        zero_shared(blk, sd, n);
        if let Some(z) = z {
            beta_z_init(blk, w, z, beta, n);
        }
        blk.sync();

        let block_id = blk.block_id();
        blk.each_warp(|wc| {
            let schedule = WarpRows::new(block_id, nv, total_vectors, vs, wc.tid(0), m);
            for ci in 0..c {
                let Some(rows) = schedule.step(ci) else {
                    break;
                };
                fused_row_step(
                    wc,
                    x,
                    y,
                    v,
                    None,
                    &schedule,
                    &rows,
                    |wc, idx, cols, contrib| {
                        wc.shared_atomic_add(sd, |lane| {
                            idx[lane].map(|_| (cols[lane] as usize, contrib[lane]))
                        });
                    },
                );
            }
        });

        blk.sync();
        flush_shared(blk, sd, w, alpha, n);
    })
}

/// Infallible [`try_fused_pattern_shared`]; panics on device faults.
#[allow(clippy::too_many_arguments)]
pub fn fused_pattern_shared(
    gpu: &Gpu,
    plan: &SparsePlan,
    spec: PatternSpec,
    x: &GpuCsr,
    v: Option<&GpuBuffer>,
    y: &GpuBuffer,
    z: Option<&GpuBuffer>,
    w: &GpuBuffer,
) -> LaunchStats {
    try_fused_pattern_shared(gpu, plan, spec, x, v, y, z, w).unwrap_or_else(|e| panic!("{e}"))
}

/// Algorithm 1: `w += alpha * X^T * p` with shared-memory aggregation.
/// `p` has row dimension (`m`); this is the `alpha * X^T y` instantiation
/// of Table 1 that Fig. 2 measures. `w` must be zeroed by the caller.
pub fn try_fused_xt_p_shared(
    gpu: &Gpu,
    plan: &SparsePlan,
    alpha: f64,
    x: &GpuCsr,
    p: &GpuBuffer,
    w: &GpuBuffer,
) -> Result<LaunchStats, DeviceError> {
    assert!(plan.use_shared_w, "plan is for the global-memory variant");
    assert_eq!(p.len(), x.rows, "p length mismatch");
    assert_eq!(w.len(), x.cols, "w length mismatch");
    let (m, n) = (x.rows, x.cols);
    let (vs, c) = (plan.vs, plan.c);
    let nv = plan.vectors_per_block();
    let total_vectors = plan.total_vectors();
    let cfg = LaunchConfig::new(plan.grid, plan.bs)
        .with_regs(32)
        .with_shared_bytes(plan.shared_bytes);

    gpu.try_launch("fused_xt_p_shared", cfg, |blk| {
        let sd = blk.shared_f64(n);
        zero_shared(blk, sd, n);
        blk.sync();

        let block_id = blk.block_id();
        blk.each_warp(|wc| {
            let schedule = WarpRows::new(block_id, nv, total_vectors, vs, wc.tid(0), m);
            for ci in 0..c {
                let Some(rows) = schedule.step(ci) else {
                    break;
                };
                let scan = schedule.scan(wc, x, &rows);
                let pr = wc.load_f64_tex(p, |l| rows[l]);
                for (idx, active) in scan.strips() {
                    let cols = wc.load_u32(&x.col_idx, |l| idx[l]);
                    let vals = wc.load_f64(&x.values, |l| idx[l]);
                    wc.flops(2 * active);
                    wc.shared_atomic_add(sd, |lane| {
                        idx[lane].map(|_| (cols[lane] as usize, vals[lane] * pr[lane]))
                    });
                }
            }
        });

        blk.sync();
        flush_shared(blk, sd, w, alpha, n);
    })
}

/// Infallible [`try_fused_xt_p_shared`]; panics on device faults.
#[allow(clippy::too_many_arguments)]
pub fn fused_xt_p_shared(
    gpu: &Gpu,
    plan: &SparsePlan,
    alpha: f64,
    x: &GpuCsr,
    p: &GpuBuffer,
    w: &GpuBuffer,
) -> LaunchStats {
    try_fused_xt_p_shared(gpu, plan, alpha, x, p, w).unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuner::plan_sparse;
    use fusedml_gpu_sim::DeviceSpec;
    use fusedml_matrix::gen::{random_vector, uniform_sparse};
    use fusedml_matrix::reference;

    fn gpu() -> Gpu {
        Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1)
    }

    #[test]
    fn fused_xt_p_matches_reference() {
        let g = gpu();
        let x = uniform_sparse(400, 150, 0.06, 51);
        let p = random_vector(400, 1);
        let xd = GpuCsr::upload(&g, "x", &x);
        let pd = g.upload_f64("p", &p);
        let wd = g.alloc_f64("w", 150);
        let plan = plan_sparse(g.spec(), 400, 150, x.mean_nnz_per_row());
        fused_xt_p_shared(&g, &plan, 2.0, &xd, &pd, &wd);
        let mut expect = reference::csr_tmv(&x, &p);
        reference::scal(2.0, &mut expect);
        assert!(reference::rel_l2_error(&wd.to_vec_f64(), &expect) < 1e-12);
    }

    #[test]
    fn fused_full_pattern_matches_reference() {
        let g = gpu();
        let x = uniform_sparse(350, 200, 0.05, 52);
        let y = random_vector(200, 2);
        let v = random_vector(350, 3);
        let z = random_vector(200, 4);
        let xd = GpuCsr::upload(&g, "x", &x);
        let yd = g.upload_f64("y", &y);
        let vd = g.upload_f64("v", &v);
        let zd = g.upload_f64("z", &z);
        let wd = g.alloc_f64("w", 200);
        let plan = plan_sparse(g.spec(), 350, 200, x.mean_nnz_per_row());
        let spec = PatternSpec::full(1.25, -0.5);
        fused_pattern_shared(&g, &plan, spec, &xd, Some(&vd), &yd, Some(&zd), &wd);
        let expect = reference::pattern_csr(1.25, &x, Some(&v), &y, -0.5, Some(&z));
        assert!(reference::rel_l2_error(&wd.to_vec_f64(), &expect) < 1e-12);
    }

    #[test]
    fn fused_xtxy_without_v_z() {
        let g = gpu();
        let x = uniform_sparse(300, 128, 0.08, 53);
        let y = random_vector(128, 5);
        let xd = GpuCsr::upload(&g, "x", &x);
        let yd = g.upload_f64("y", &y);
        let wd = g.alloc_f64("w", 128);
        let plan = plan_sparse(g.spec(), 300, 128, x.mean_nnz_per_row());
        fused_pattern_shared(&g, &plan, PatternSpec::xtxy(), &xd, None, &yd, None, &wd);
        let expect = reference::pattern_csr(1.0, &x, None, &y, 0.0, None);
        assert!(reference::rel_l2_error(&wd.to_vec_f64(), &expect) < 1e-12);
    }

    #[test]
    fn second_scan_hits_cache() {
        let g = gpu();
        // Rows short enough to stay resident between the two scans; the
        // matrix is large enough that per-SM replication of y and w is
        // noise against the X traffic.
        let x = uniform_sparse(8000, 512, 0.02, 54);
        let y = random_vector(512, 6);
        let xd = GpuCsr::upload(&g, "x", &x);
        let yd = g.upload_f64("y", &y);
        let wd = g.alloc_f64("w", 512);
        let plan = plan_sparse(g.spec(), 8000, 512, x.mean_nnz_per_row());
        g.flush_caches();
        let stats = fused_pattern_shared(&g, &plan, PatternSpec::xtxy(), &xd, None, &yd, None, &wd);
        // The second scan re-reads values+col_idx; if temporal locality
        // works, DRAM traffic is much closer to one scan than two.
        let one_scan_bytes = (x.nnz() * 12) as u64;
        assert!(
            stats.counters.dram_read_bytes < (one_scan_bytes * 3) / 2,
            "dram {} vs one-scan {}",
            stats.counters.dram_read_bytes,
            one_scan_bytes
        );
        assert!(stats.counters.l2_read_bytes > one_scan_bytes / 2);
    }

    #[test]
    fn global_atomics_bounded_by_blocks_times_columns() {
        let g = gpu();
        let x = uniform_sparse(1000, 100, 0.1, 55);
        let y = random_vector(100, 7);
        let xd = GpuCsr::upload(&g, "x", &x);
        let yd = g.upload_f64("y", &y);
        let wd = g.alloc_f64("w", 100);
        let plan = plan_sparse(g.spec(), 1000, 100, x.mean_nnz_per_row());
        let stats = fused_pattern_shared(&g, &plan, PatternSpec::xtxy(), &xd, None, &yd, None, &wd);
        // Hierarchical aggregation: global atomics only in the final flush
        // (grid * n), never per non-zero.
        assert_eq!(
            stats.counters.global_atomics,
            (plan.grid * 100) as u64,
            "plan {plan:?}"
        );
        assert!(stats.counters.shared_atomics >= x.nnz() as u64);
    }

    #[test]
    #[should_panic(expected = "global-memory variant")]
    fn shared_kernel_rejects_global_plan() {
        let g = gpu();
        let x = uniform_sparse(10, 5, 0.5, 1);
        let xd = GpuCsr::upload(&g, "x", &x);
        let pd = g.upload_f64("p", &random_vector(10, 1));
        let wd = g.alloc_f64("w", 5);
        let mut plan = plan_sparse(g.spec(), 10, 5, 2.0);
        plan.use_shared_w = false;
        fused_xt_p_shared(&g, &plan, 1.0, &xd, &pd, &wd);
    }
}
