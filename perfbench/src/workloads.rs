//! The four workloads: how their inputs are generated from the seed, which
//! paths every solve runs on, and one solve on one path.

use crate::host::Stopwatch;
use crate::timed::{Spans, StreamProbe, Timed};
use fusedml_core::{select_plan, CpuFusedPattern, Dag, MatrixShape, PatternSpec};
use fusedml_gpu_sim::{DevicePool, DeviceSpec, Gpu};
use fusedml_matrix::gen::{
    dense_random, powerlaw_sparse, random_labels, random_vector, uniform_sparse,
};
use fusedml_matrix::{reference, Coo, CsrMatrix, DenseMatrix};
use fusedml_ml::{
    inv_out_degrees, try_glm, try_hits, try_logreg, try_lr_cg, try_pagerank, try_pagerank_backend,
    try_svm, Backend, BackendStats, BaselineBackend, CpuBackend, DagBackend, FusedBackend,
    GlmOptions, HitsOptions, LogRegOptions, LrCgOptions, PagerankOptions, PagerankPlan, SvmOptions,
};
use fusedml_runtime::{StreamConfig, StreamedBackend, TransferModel};
use std::sync::Arc;
use std::time::Duration;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SimSparseSolvers,
    SimDenseDag,
    CpuReal,
    SimOutOfCore,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SimSparseSolvers,
        Workload::SimDenseDag,
        Workload::CpuReal,
        Workload::SimOutOfCore,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SimSparseSolvers => "sim-sparse-solvers",
            Workload::SimDenseDag => "sim-dense-dag",
            Workload::CpuReal => "cpu-real",
            Workload::SimOutOfCore => "sim-out-of-core",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Every path a round runs each solve on; the first is the product
    /// path the end-to-end metrics time.
    pub fn paths(self) -> &'static [Path] {
        match self {
            Workload::CpuReal => &[Path::Fused, Path::Unfused, Path::FusedOneThread],
            _ => &[Path::Fused, Path::Unfused],
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Path {
    /// The product path: fused kernels on the simulated device, or fused
    /// CPU execution on every available thread.
    Fused,
    /// The comparator: the cuLibs-style operator baseline (PageRank: the
    /// unfused plan of the same DAG), or the unfused CPU reference path.
    Unfused,
    /// `cpu-real` only: fused CPU execution on one thread.
    FusedOneThread,
}

impl Path {
    pub fn name(self) -> &'static str {
        match self {
            Path::Fused => "fused",
            Path::Unfused => "unfused",
            Path::FusedOneThread => "fused-1t",
        }
    }
}

/// Solver and its fixed work: every iteration cap is reached (convergence
/// tolerances are 0), so the work per solve is a constant of the inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Solver {
    LrCg,
    LogReg,
    Svm,
    Glm,
    Hits,
    PageRank,
}

impl Solver {
    fn name(self) -> &'static str {
        match self {
            Solver::LrCg => "lr_cg",
            Solver::LogReg => "logreg",
            Solver::Svm => "svm",
            Solver::Glm => "glm",
            Solver::Hits => "hits",
            Solver::PageRank => "pagerank",
        }
    }
}

const LR_CG_ITERS: usize = 8;
const NEWTON_OUTER: usize = 2;
const NEWTON_INNER_CG: usize = 4;
const POWER_ITERS: usize = 10;

#[derive(Clone)]
pub enum Matrix {
    Sparse(Arc<CsrMatrix>),
    Dense(Arc<DenseMatrix>),
}

impl Matrix {
    fn nnz(&self) -> u64 {
        match self {
            Matrix::Sparse(x) => x.nnz() as u64,
            Matrix::Dense(x) => (x.rows() * x.cols()) as u64,
        }
    }

    fn bytes(&self) -> u64 {
        match self {
            Matrix::Sparse(x) => x.size_bytes(),
            Matrix::Dense(x) => x.size_bytes(),
        }
    }

    fn shape(&self) -> MatrixShape {
        match self {
            Matrix::Sparse(x) => MatrixShape {
                rows: x.rows(),
                cols: x.cols(),
                nnz: x.nnz() as u64,
                dense: false,
            },
            Matrix::Dense(x) => MatrixShape {
                rows: x.rows(),
                cols: x.cols(),
                nnz: (x.rows() * x.cols()) as u64,
                dense: true,
            },
        }
    }

    fn label(&self, kind: &str) -> String {
        let s = self.shape();
        format!("{kind}/{}x{}", s.rows, s.cols)
    }
}

/// One solve the benchmark repeats every round.
pub struct Case {
    pub name: String,
    pub solver: Solver,
    pub matrix: Matrix,
    /// Targets / labels, or reciprocal out-degrees for PageRank; empty for
    /// HITS.
    pub aux: Vec<f64>,
}

/// A DAG the fused path compiles, and the shape it is planned against.
pub struct Compilation {
    pub dag: Dag,
    pub shape: MatrixShape,
}

/// Everything a run's rounds need, built by [`setup`].
pub struct Inputs {
    pub cases: Vec<Case>,
    pub compilations: Vec<Compilation>,
    /// Distinct input matrices: total stored non-zeros and bytes.
    pub nnz: u64,
    pub bytes: u64,
    /// Data generation and format conversion, CPU seconds.
    pub gen_s: f64,
}

/// Shared run state: the simulated device and the buffer pool every
/// solve's device draws from.
pub struct Ctx {
    pub spec: Arc<DeviceSpec>,
    pub pool: DevicePool,
    pub nproc: usize,
    pub transfer: TransferModel,
}

impl Ctx {
    pub fn new(nproc: usize) -> Self {
        Ctx {
            spec: Arc::new(DeviceSpec::gtx_titan()),
            pool: DevicePool::new(),
            nproc,
            transfer: TransferModel::native(),
        }
    }

    /// A fresh simulated device on the run's pool, at the simulator's
    /// default host-thread count.
    fn gpu(&self) -> Gpu {
        Gpu::new(self.spec.clone()).with_shared_pool(&self.pool)
    }
}

/// Copy-engine queues of the out-of-core streaming configuration.
pub const STREAM_QUEUES: usize = 2;

/// Residency budget of the out-of-core workload: half the matrix, so the
/// budget holds some chunks and every pass streams the rest.
pub fn residency_cap(x: &CsrMatrix) -> u64 {
    csr_bytes(x) / 2
}

/// CSR bytes as the streaming layer counts them (8-byte value and 4-byte
/// column per non-zero, 4-byte row offsets).
fn csr_bytes(x: &CsrMatrix) -> u64 {
    x.nnz() as u64 * 12 + (x.rows() as u64 + 1) * 4
}

fn stream_config(x: &CsrMatrix) -> StreamConfig {
    StreamConfig::auto()
        .with_queues(STREAM_QUEUES)
        .with_residency(residency_cap(x))
}

/// Distinct stream of generator seeds per input of one run.
fn derive(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(k)
}

/// `base` plus a seed-derived offset below `base / 64`. Modeled times of
/// dense and fixed-row-length inputs depend on the shape alone, so the
/// row counts of those inputs vary with the seed to make them differ
/// between seeds.
fn seeded_len(base: usize, seed: u64) -> usize {
    base + (derive(seed, 3) % (base as u64 / 64)) as usize
}

/// Square 0/1 link matrix with the non-zero pattern of a uniform sparse
/// matrix (every edge has weight 1, so out-degrees are edge counts).
fn link_matrix(n: usize, density: f64, seed: u64) -> CsrMatrix {
    let pattern = uniform_sparse(n, n, density, seed);
    let mut coo = Coo::with_capacity(n, n, pattern.nnz());
    for r in 0..n {
        for (c, _) in pattern.row_entries(r) {
            coo.push(r, c as usize, 1.0);
        }
    }
    CsrMatrix::from_coo(&coo)
}

fn case(solver: Solver, matrix: &Matrix, kind: &str, seed: u64) -> Case {
    let rows = matrix.shape().rows;
    let cols = matrix.shape().cols;
    let mv = |w: &[f64]| match matrix {
        Matrix::Sparse(x) => reference::csr_mv(x, w),
        Matrix::Dense(x) => reference::dense_mv(x, w),
    };
    let aux = match solver {
        Solver::LrCg => mv(&random_vector(cols, derive(seed, 10))),
        Solver::Glm => mv(&random_vector(cols, derive(seed, 10)))
            .iter()
            .map(|t| t.clamp(-3.0, 3.0).exp())
            .collect(),
        Solver::LogReg | Solver::Svm => random_labels(rows, derive(seed, 11)),
        Solver::Hits => Vec::new(),
        Solver::PageRank => match matrix {
            Matrix::Sparse(x) => inv_out_degrees(x),
            Matrix::Dense(_) => unreachable!("PageRank runs on a sparse link matrix"),
        },
    };
    Case {
        name: format!("{}/{}", solver.name(), matrix.label(kind)),
        solver,
        matrix: matrix.clone(),
        aux,
    }
}

/// The DAGs `DagBackend` compiles for an LR-CG solve: the `-X^T y`
/// initial residual and the `X^T(Xp) + eps p` iteration.
fn lr_cg_compilations(matrix: &Matrix) -> [Compilation; 2] {
    let shape = matrix.shape();
    [
        Compilation {
            dag: Dag::xt_y(-1.0),
            shape,
        },
        Compilation {
            dag: Dag::equation1(PatternSpec::xtxy_plus_bz(lr_cg_options().eps)),
            shape,
        },
    ]
}

/// Generate the workload's inputs from `seed`, then construct every
/// product-path backend once, on a fresh buffer pool as a first solve
/// would, and compile each DAG's first plan.
pub fn setup(w: Workload, seed: u64, nproc: usize) -> Result<Inputs, String> {
    let clock = Stopwatch::start();
    let mut cases = Vec::new();
    let mut compilations = Vec::new();
    let mut matrices = Vec::new();
    match w {
        Workload::SimSparseSolvers => {
            let uniform = Matrix::Sparse(Arc::new(uniform_sparse(4000, 512, 0.01, seed)));
            let powerlaw = Matrix::Sparse(Arc::new(powerlaw_sparse(
                4000,
                512,
                10.0,
                0.8,
                derive(seed, 1),
            )));
            for (m, kind) in [(&uniform, "csr-uniform"), (&powerlaw, "csr-powerlaw")] {
                for solver in [
                    Solver::LrCg,
                    Solver::Glm,
                    Solver::LogReg,
                    Solver::Svm,
                    Solver::Hits,
                ] {
                    cases.push(case(solver, m, kind, seed));
                }
                compilations.extend(lr_cg_compilations(m));
            }
            matrices = vec![uniform, powerlaw];
        }
        Workload::SimDenseDag => {
            let tall = Matrix::Dense(Arc::new(dense_random(seeded_len(4096, seed), 64, seed)));
            let square = Matrix::Dense(Arc::new(dense_random(
                seeded_len(512, seed),
                512,
                derive(seed, 1),
            )));
            let links = Matrix::Sparse(Arc::new(link_matrix(
                seeded_len(4000, seed),
                0.002,
                derive(seed, 2),
            )));
            for m in [&tall, &square] {
                cases.push(case(Solver::LrCg, m, "dense", seed));
                compilations.extend(lr_cg_compilations(m));
            }
            cases.push(case(Solver::PageRank, &links, "links", seed));
            compilations.push(Compilation {
                dag: Dag::pagerank(),
                shape: links.shape(),
            });
            matrices = vec![tall, square, links];
        }
        Workload::CpuReal => {
            let sparse = Matrix::Sparse(Arc::new(powerlaw_sparse(200_000, 4096, 16.0, 0.8, seed)));
            let dense = Matrix::Dense(Arc::new(dense_random(2000, 1000, derive(seed, 1))));
            for (m, kind) in [(&sparse, "csr-powerlaw"), (&dense, "dense")] {
                for solver in [Solver::LrCg, Solver::LogReg] {
                    cases.push(case(solver, m, kind, seed));
                }
            }
            matrices = vec![sparse, dense];
        }
        Workload::SimOutOfCore => {
            let x = Matrix::Sparse(Arc::new(uniform_sparse(
                seeded_len(16_000, seed),
                1024,
                0.004,
                seed,
            )));
            for solver in [Solver::LrCg, Solver::LogReg] {
                cases.push(case(solver, &x, "csr-uniform", seed));
            }
            matrices.push(x);
        }
    }
    let gen_s = clock.read().1.as_secs_f64();

    // Upload / backend construction of the product path, and the first
    // plan of every DAG it compiles.
    let ctx = &Ctx::new(nproc);
    for c in &cases {
        construct_product_backend(w, c, ctx)?;
    }
    for c in &compilations {
        select_plan(&ctx.spec, &c.dag, c.shape).map_err(|e| format!("select_plan: {e}"))?;
    }
    Ok(Inputs {
        cases,
        compilations,
        nnz: matrices.iter().map(Matrix::nnz).sum(),
        bytes: matrices.iter().map(Matrix::bytes).sum(),
        gen_s,
    })
}

/// Something to do with the backend a path runs a case on; the
/// backend's type differs per path, so this is a trait with a generic
/// method rather than a closure.
trait WithBackend {
    type Out;
    fn call<B: Backend + StreamProbe>(self, b: B) -> Self::Out;
}

/// Construct the backend `path` runs `c` on, on a fresh simulated device
/// for `sim-*` workloads, and hand it to `f`. PageRank has none: it runs
/// on the DAG executor directly.
fn with_backend<F: WithBackend>(
    w: Workload,
    c: &Case,
    path: Path,
    ctx: &Ctx,
    f: F,
) -> Result<F::Out, String> {
    let err = |e: fusedml_gpu_sim::DeviceError| e.to_string();
    if w == Workload::CpuReal {
        let b = unfused_cpu_backend(&c.matrix);
        return Ok(f.call(match path {
            Path::Fused => b.with_fused_execution(ctx.nproc),
            Path::FusedOneThread => b.with_fused_execution(1),
            Path::Unfused => b,
        }));
    }
    let gpu = ctx.gpu();
    let fused = path == Path::Fused;
    match &c.matrix {
        _ if c.solver == Solver::PageRank => Err("PageRank runs without a backend".into()),
        Matrix::Sparse(x) if w == Workload::SimOutOfCore && fused => {
            StreamedBackend::try_new_sparse(&gpu, x, ctx.transfer.clone(), stream_config(x))
                .map(|b| f.call(b))
                .map_err(|e| e.to_string())
        }
        Matrix::Sparse(x) if fused && c.solver == Solver::LrCg => {
            DagBackend::try_new_sparse(&gpu, x)
                .map(|b| f.call(b))
                .map_err(err)
        }
        Matrix::Dense(x) if fused && c.solver == Solver::LrCg => DagBackend::try_new_dense(&gpu, x)
            .map(|b| f.call(b))
            .map_err(err),
        Matrix::Sparse(x) if fused => FusedBackend::try_new_sparse(&gpu, x)
            .map(|b| f.call(b))
            .map_err(err),
        Matrix::Dense(x) if fused => FusedBackend::try_new_dense(&gpu, x)
            .map(|b| f.call(b))
            .map_err(err),
        Matrix::Sparse(x) => BaselineBackend::try_new_sparse(&gpu, x)
            .map(|b| f.call(b))
            .map_err(err),
        Matrix::Dense(x) => BaselineBackend::try_new_dense(&gpu, x)
            .map(|b| f.call(b))
            .map_err(err),
    }
}

/// Set-up's "construct and upload": build the product-path backend once.
fn construct_product_backend(w: Workload, c: &Case, ctx: &Ctx) -> Result<(), String> {
    struct Construct;
    impl WithBackend for Construct {
        type Out = ();
        fn call<B: Backend + StreamProbe>(self, b: B) {
            drop(b);
        }
    }
    match &c.matrix {
        Matrix::Sparse(links) if c.solver == Solver::PageRank => {
            fusedml_blas::GpuCsr::try_upload(&ctx.gpu(), "L", links)
                .map(drop)
                .map_err(|e| e.to_string())
        }
        _ => with_backend(w, c, Path::Fused, ctx, Construct),
    }
}

fn unfused_cpu_backend(m: &Matrix) -> CpuBackend {
    match m {
        Matrix::Sparse(x) => CpuBackend::new_sparse(CsrMatrix::clone(x)),
        Matrix::Dense(x) => CpuBackend::new_dense(DenseMatrix::clone(x)),
    }
}

fn lr_cg_options() -> LrCgOptions {
    LrCgOptions {
        eps: 0.001,
        tolerance: 0.0,
        max_iterations: LR_CG_ITERS,
    }
}

fn pagerank_options(plan: PagerankPlan) -> PagerankOptions {
    PagerankOptions {
        damping: 0.85,
        max_iterations: POWER_ITERS,
        tolerance: 0.0,
        plan,
    }
}

/// Run the case's solver on `b`: the result vector the reference check
/// compares, and the iterations done (outer plus inner CG for the Newton
/// solvers).
fn solve<B: Backend>(b: &mut B, c: &Case) -> Result<(Vec<f64>, usize), String> {
    let err = |e: fusedml_ml::SolverError| e.to_string();
    match c.solver {
        Solver::LrCg => try_lr_cg(b, &c.aux, lr_cg_options())
            .map(|r| (r.weights, r.iterations))
            .map_err(err),
        Solver::LogReg => try_logreg(
            b,
            &c.aux,
            LogRegOptions {
                max_outer: NEWTON_OUTER,
                max_inner_cg: NEWTON_INNER_CG,
                grad_tol: 0.0,
                ..Default::default()
            },
        )
        .map(|r| (r.weights, r.iterations + r.cg_iterations))
        .map_err(err),
        Solver::Svm => try_svm(
            b,
            &c.aux,
            SvmOptions {
                max_outer: NEWTON_OUTER,
                max_inner_cg: NEWTON_INNER_CG,
                grad_tol: 0.0,
                ..Default::default()
            },
        )
        .map(|r| (r.weights, r.iterations + r.cg_iterations))
        .map_err(err),
        Solver::Glm => try_glm(
            b,
            &c.aux,
            GlmOptions {
                max_outer: NEWTON_OUTER,
                max_inner_cg: NEWTON_INNER_CG,
                grad_tol: 0.0,
                ..Default::default()
            },
        )
        .map(|r| (r.weights, r.iterations + r.cg_iterations))
        .map_err(err),
        Solver::Hits => try_hits(
            b,
            HitsOptions {
                max_iterations: POWER_ITERS,
                tolerance: 0.0,
            },
        )
        .map(|r| ([r.authorities, r.hubs].concat(), r.iterations))
        .map_err(err),
        Solver::PageRank => {
            try_pagerank_backend(b, &c.aux, pagerank_options(PagerankPlan::Selected))
                .map(|r| (r.ranks, r.iterations))
                .map_err(err)
        }
    }
}

/// The case's result on the unfused CPU reference path.
pub fn reference_result(c: &Case) -> Result<Vec<f64>, String> {
    solve(&mut unfused_cpu_backend(&c.matrix), c).map(|(v, _)| v)
}

/// The outcome of one timed solve.
pub struct Solve {
    pub result: Result<Vec<f64>, String>,
    pub iterations: usize,
    /// Wall and process-CPU time of the solver call alone (construction
    /// and upload excluded).
    pub wall: Duration,
    pub cpu: Duration,
    /// Backend statistics of the solve; `sim_ms` is its modeled time.
    pub stats: BackendStats,
    /// Backend-call spans, when traced.
    pub spans: Option<Spans>,
    /// Whether the whole solve ran as one DAG-executor call (PageRank),
    /// outside the `Backend` trait.
    pub dag_solve: bool,
}

impl Solve {
    fn failed(why: String) -> Self {
        Solve {
            result: Err(why),
            iterations: 0,
            wall: Duration::ZERO,
            cpu: Duration::ZERO,
            stats: BackendStats::default(),
            spans: None,
            dag_solve: false,
        }
    }
}

fn drive<B: Backend + StreamProbe>(b: B, c: &Case, traced: bool) -> Solve {
    let (res, (wall, cpu), stats, spans) = if traced {
        let mut t = Timed::new(b);
        let clock = Stopwatch::start();
        let res = solve(&mut t, c);
        let elapsed = clock.read();
        let stats = t.stats();
        (res, elapsed, stats, Some(t.into_parts().1))
    } else {
        let mut b = b;
        let clock = Stopwatch::start();
        let res = solve(&mut b, c);
        let elapsed = clock.read();
        (res, elapsed, b.stats(), None)
    };
    let (result, iterations) = match res {
        Ok((v, it)) => (Ok(v), it),
        Err(e) => (Err(e), 0),
    };
    Solve {
        result,
        iterations,
        wall,
        cpu,
        stats,
        spans,
        dag_solve: false,
    }
}

/// PageRank through the DAG compiler: the cost-selected plan (`Fused`)
/// or the unfused plan of the same DAG (`Unfused`).
fn pagerank_solve(ctx: &Ctx, links: &CsrMatrix, path: Path) -> Solve {
    let gpu = ctx.gpu();
    let plan = match path {
        Path::Unfused => PagerankPlan::Unfused,
        _ => PagerankPlan::Selected,
    };
    let pool_base = gpu.pool_stats();
    let clock = Stopwatch::start();
    let res = try_pagerank(&gpu, links, pagerank_options(plan));
    let (wall, cpu) = clock.read();
    match res {
        Ok(r) => Solve {
            iterations: r.iterations,
            wall,
            cpu,
            stats: BackendStats {
                sim_ms: r.sim_ms,
                launches: r.launches,
                occupancy_ms: r.occupancy * r.sim_ms,
                counters: r.counters,
                plan: r.plan_stats,
                pool: gpu.pool_stats().delta_since(&pool_base),
                ..BackendStats::default()
            },
            result: Ok(r.ranks),
            spans: None,
            dag_solve: true,
        },
        Err(e) => Solve::failed(e.to_string()),
    }
}

/// One solve of `c` on `path`, on a freshly constructed backend.
pub fn run(w: Workload, c: &Case, path: Path, ctx: &Ctx, traced: bool) -> Solve {
    struct Drive<'c> {
        case: &'c Case,
        traced: bool,
    }
    impl WithBackend for Drive<'_> {
        type Out = Solve;
        fn call<B: Backend + StreamProbe>(self, b: B) -> Solve {
            drive(b, self.case, self.traced)
        }
    }
    if let (Matrix::Sparse(links), Solver::PageRank) = (&c.matrix, c.solver) {
        return pagerank_solve(ctx, links, path);
    }
    let mut s =
        with_backend(w, c, path, ctx, Drive { case: c, traced }).unwrap_or_else(Solve::failed);
    if let (Workload::SimOutOfCore, Path::Unfused, Matrix::Sparse(x)) = (w, path, &c.matrix) {
        // The in-core operator baseline pays one upload of the whole
        // matrix over the same PCIe link the streamed path uses.
        s.stats.sim_ms += ctx.transfer.h2d_ms(csr_bytes(x), false);
    }
    s
}

/// Name of the dispatched CPU kernel executor at `threads` threads.
pub fn executor_name(threads: usize) -> &'static str {
    CpuFusedPattern::new(threads).executor_name()
}
