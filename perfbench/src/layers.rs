//! Metrics: the end-to-end figures of the untraced rounds, the per-layer
//! figures of the traced rounds with their reconciliation checks, and the
//! result line.

use crate::check::Tally;
use crate::stats::{geomean, median, quantile, ratio};
use crate::timed::Class;
use crate::workloads::{residency_cap, Ctx, Inputs, Matrix, Path, Solve, Workload, STREAM_QUEUES};
use crate::Record;
use fusedml_core::{select_plan, unfused_plan};
use fusedml_gpu_sim::CopyEngineSpec;
use fusedml_runtime::choose_stream_plan;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// (name, unit, value).
pub type Metric = (&'static str, &'static str, f64);

/// Relative tolerance of the traced run's modeled-ms reconciliation where
/// the simulation is deterministic.
const RECONCILE_TOL: f64 = 1e-9;

/// Timed repetitions of each planner call in the traced run.
const PLAN_REPS: usize = 5;

/// Totals of one round's records.
#[derive(Default)]
struct RoundSums {
    fused_cpu: f64,
    unfused_cpu: f64,
    fused_wall: f64,
    one_thread_wall: f64,
    fused_modeled: f64,
    unfused_modeled: f64,
    fused_iters: usize,
    /// Per case: unfused modeled ms / fused modeled ms.
    speedups: Vec<f64>,
}

fn sums(records: &[Record]) -> RoundSums {
    let mut s = RoundSums::default();
    let mut per_case: BTreeMap<usize, (f64, f64)> = BTreeMap::new();
    for r in records {
        let entry = per_case.entry(r.case).or_default();
        match r.path {
            Path::Fused => {
                s.fused_cpu += r.cpu_s;
                s.fused_wall += r.wall_s;
                s.fused_modeled += r.modeled_ms;
                s.fused_iters += r.iterations;
                entry.0 = r.modeled_ms;
            }
            Path::Unfused => {
                s.unfused_cpu += r.cpu_s;
                s.unfused_modeled += r.modeled_ms;
                entry.1 = r.modeled_ms;
            }
            Path::FusedOneThread => s.one_thread_wall += r.wall_s,
        }
    }
    s.speedups = per_case.values().map(|&(f, u)| ratio(u, f)).collect();
    s
}

/// Medians over the untraced rounds.
pub struct EndToEnd {
    pub iters_per_cpu_s: f64,
    pub iters_per_wall_s: f64,
    pub modeled_ms: f64,
    pub modeled_speedup: f64,
    pub measured_speedup: f64,
    pub baseline_modeled_ms: f64,
    pub thread_scaling: f64,
    pub fused_cpu_s: f64,
    /// Largest relative spread of one (case, path)'s modeled ms across
    /// rounds.
    pub modeled_drift: f64,
    /// Per case: median modeled ms of the product path.
    pub case_modeled_ms: Vec<f64>,
    /// Cases whose fused modeled ms exceeds the comparator's.
    pub plans_losing: usize,
}

impl EndToEnd {
    pub fn from_rounds(inputs: &Inputs, rounds: &[Vec<Record>]) -> Self {
        let all: Vec<RoundSums> = rounds.iter().map(|r| sums(r)).collect();
        let med = |f: &dyn Fn(&RoundSums) -> f64| median(&all.iter().map(f).collect::<Vec<_>>());
        let mut modeled: BTreeMap<(usize, Path), Vec<f64>> = BTreeMap::new();
        for r in rounds.iter().flatten() {
            modeled
                .entry((r.case, r.path))
                .or_default()
                .push(r.modeled_ms);
        }
        let modeled_drift = modeled
            .values()
            .map(|v| {
                let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                ratio(hi - lo, lo)
            })
            .fold(0.0, f64::max);
        let case_median =
            |case: usize, path: Path| modeled.get(&(case, path)).map_or(0.0, |v| median(v));
        let plans_losing = (0..inputs.cases.len())
            .filter(|&i| case_median(i, Path::Fused) > case_median(i, Path::Unfused))
            .count();
        EndToEnd {
            iters_per_cpu_s: med(&|s| ratio(s.fused_iters as f64, s.fused_cpu)),
            iters_per_wall_s: med(&|s| ratio(s.fused_iters as f64, s.fused_wall)),
            modeled_ms: med(&|s| s.fused_modeled),
            modeled_speedup: med(&|s| geomean(&s.speedups)),
            measured_speedup: med(&|s| ratio(s.unfused_cpu, s.fused_cpu)),
            baseline_modeled_ms: med(&|s| s.unfused_modeled),
            // 0 where no one-thread path runs.
            thread_scaling: med(&|s| ratio(s.one_thread_wall, s.fused_wall)),
            fused_cpu_s: med(&|s| s.fused_cpu),
            modeled_drift,
            case_modeled_ms: (0..inputs.cases.len())
                .map(|i| case_median(i, Path::Fused))
                .collect(),
            plans_losing,
        }
    }

    pub fn metrics(&self, setup_s: &[f64], tally: &Tally, peak_rss_bytes: u64) -> Vec<Metric> {
        vec![
            ("setup_s", "s", median(setup_s)),
            ("iters_per_cpu_s", "1/s", self.iters_per_cpu_s),
            ("modeled_ms", "ms", self.modeled_ms),
            ("modeled_speedup", "x", self.modeled_speedup),
            ("measured_speedup", "x", self.measured_speedup),
            ("success_rate", "ratio", 1.0 - tally.error_rate()),
            (
                "peak_rss_mib",
                "MiB",
                peak_rss_bytes as f64 / (1024.0 * 1024.0),
            ),
        ]
    }
}

/// Per-case medians over the untraced rounds, for the human-readable
/// report.
pub fn print_cases(w: Workload, inputs: &Inputs, rounds: &[Vec<Record>]) {
    println!(
        "{:<34} {:>8} {:>10} {:>10} {:>12} {:>10} {:>10}",
        "case [median over rounds]",
        "path",
        "wall_ms",
        "cpu_ms",
        "modeled_ms",
        "iterations",
        "modeled_x"
    );
    for (i, c) in inputs.cases.iter().enumerate() {
        let of = |path: Path, f: &dyn Fn(&Record) -> f64| {
            median(
                &rounds
                    .iter()
                    .flatten()
                    .filter(|r| r.case == i && r.path == path)
                    .map(f)
                    .collect::<Vec<_>>(),
            )
        };
        let fused_ms = of(Path::Fused, &|r| r.modeled_ms);
        for &path in w.paths() {
            let ms = of(path, &|r| r.modeled_ms);
            println!(
                "{:<34} {:>8} {:>10.3} {:>10.3} {:>12.6} {:>10} {:>10.4}",
                c.name,
                path.name(),
                of(path, &|r| r.wall_s * 1e3),
                of(path, &|r| r.cpu_s * 1e3),
                ms,
                of(path, &|r| r.iterations as f64),
                ratio(ms, fused_ms)
            );
        }
    }
}

/// Sums over the traced rounds' product-path solves.
#[derive(Default)]
struct Traced {
    calls: [u64; 5],
    wall: [Duration; 5],
    modeled: [f64; 5],
    pattern_walls_ms: Vec<f64>,
    dag_calls: u64,
    dag_wall: Duration,
    dag_modeled: f64,
    solve_wall: Duration,
    /// Σ `stats().sim_ms` of the solves, the denominator of occupancy.
    backend_sim_ms: f64,
    iterations: usize,
    launches: u64,
    dram_bytes: u64,
    global_atomic_ops: u64,
    occupancy_ms: f64,
    pool_hits: u64,
    pool_lookups: u64,
    plan_hits: u64,
    plan_lookups: u64,
    h2d_bytes: u64,
    transfer_ms: f64,
    kernel_ms: f64,
    bubble_ms: f64,
    residency_hits: u64,
    chunks: u64,
    cold_ms: Vec<f64>,
    warm_ms: Vec<f64>,
}

impl Traced {
    /// Fold one traced solve in and return the modeled ms its spans
    /// account for; fails if its backend-call spans do not nest inside the
    /// solve's span.
    fn add(&mut self, s: &Solve) -> Result<f64, String> {
        self.solve_wall += s.wall;
        self.backend_sim_ms += s.stats.sim_ms;
        self.iterations += s.iterations;
        self.launches += s.stats.launches as u64;
        self.dram_bytes += s.stats.counters.dram_bytes();
        self.global_atomic_ops += s.stats.aggregation_breakdown().global_atomic_ops;
        self.occupancy_ms += s.stats.occupancy_ms;
        self.pool_hits += s.stats.pool.hits;
        self.pool_lookups += s.stats.pool.hits + s.stats.pool.misses;
        self.plan_hits += s.stats.plan.hits;
        self.plan_lookups += s.stats.plan.hits + s.stats.plan.plans_computed();
        if s.dag_solve {
            self.dag_calls += 1;
            self.dag_wall += s.wall;
            self.dag_modeled += s.stats.sim_ms;
            return Ok(s.stats.sim_ms);
        }
        let spans = s.spans.as_ref().ok_or("traced solve without spans")?;
        let mut inside = Duration::ZERO;
        let mut modeled = 0.0;
        for call in &spans.calls {
            let k = call.class as usize;
            self.calls[k] += 1;
            self.wall[k] += call.wall;
            self.modeled[k] += call.modeled_ms;
            inside += call.wall;
            modeled += call.modeled_ms;
            if call.class == Class::Pattern {
                self.pattern_walls_ms.push(call.wall.as_secs_f64() * 1e3);
            }
        }
        if inside > s.wall {
            return Err(format!(
                "backend calls took {inside:?}, longer than their solve's {:?}",
                s.wall
            ));
        }
        for r in &spans.stream {
            self.h2d_bytes += r.h2d_bytes;
            self.transfer_ms += r.transfer_ms;
            self.kernel_ms += r.kernel_ms;
            self.bubble_ms += r.bubble_ms;
            self.residency_hits += r.residency_hits;
            self.chunks += r.chunks as u64;
            if r.residency_hits == 0 {
                self.cold_ms.push(r.overlapped_ms);
            } else {
                self.warm_ms.push(r.overlapped_ms);
            }
        }
        Ok(modeled)
    }

    fn calls_wall(&self) -> Duration {
        self.wall.iter().sum::<Duration>() + self.dag_wall
    }
}

pub struct LayerMetrics {
    pub metrics: Vec<Metric>,
    pub reconciled: Result<(), String>,
}

/// Median wall microseconds of `f` over [`PLAN_REPS`] calls.
fn time_us(mut f: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let mut us = Vec::new();
    for _ in 0..PLAN_REPS {
        let t0 = Instant::now();
        f()?;
        us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    Ok(median(&us))
}

/// The per-layer metrics of a traced run.
pub fn per_layer(
    w: Workload,
    inputs: &Inputs,
    ctx: &Ctx,
    traced_rounds: &[Vec<Record>],
    traced: &[Vec<Solve>],
    e2e: &EndToEnd,
    gen_s: &[f64],
) -> Result<LayerMetrics, String> {
    // Each traced solve's spans must account for the modeled ms an
    // untraced solve of the same case reports: exactly where the
    // simulation is deterministic, else within twice the largest drift the
    // untraced rounds showed.
    let tol = RECONCILE_TOL + 2.0 * e2e.modeled_drift;
    let mut t = Traced::default();
    let mut reconciled = Ok(());
    for round in traced {
        // A traced round holds one product-path solve per case, in order.
        for (s, (case, &untraced)) in round.iter().zip(e2e.case_modeled_ms.iter().enumerate()) {
            let checked = t.add(s).and_then(|spans_ms| {
                if (spans_ms - untraced).abs() <= tol * untraced.abs() {
                    Ok(())
                } else {
                    Err(format!(
                        "{}: traced spans account for {spans_ms} modeled ms, \
                         untraced solves report {untraced}",
                        inputs.cases[case].name
                    ))
                }
            });
            reconciled = reconciled.and(checked);
        }
    }
    let n = traced.len().max(1) as f64;

    // Planner layers, timed from outside.
    let select_plan_us = if inputs.compilations.is_empty() {
        0.0
    } else {
        time_us(|| {
            for c in &inputs.compilations {
                select_plan(&ctx.spec, &c.dag, c.shape).map_err(|e| e.to_string())?;
            }
            Ok(())
        })?
    };
    let mut cost_ratios = Vec::new();
    for c in &inputs.compilations {
        let selected = select_plan(&ctx.spec, &c.dag, c.shape).map_err(|e| e.to_string())?;
        let unfused = unfused_plan(&ctx.spec, &c.dag, c.shape).map_err(|e| e.to_string())?;
        cost_ratios.push(ratio(selected.modeled_ms, unfused.modeled_ms));
    }
    let stream_plan_us = match (w, inputs.cases.first().map(|c| &c.matrix)) {
        (Workload::SimOutOfCore, Some(Matrix::Sparse(x))) => {
            let engine = CopyEngineSpec::new(STREAM_QUEUES, ctx.transfer.pcie.clone());
            time_us(|| {
                choose_stream_plan(
                    &ctx.spec,
                    x.rows(),
                    x.cols(),
                    x.nnz() as u64,
                    &engine,
                    residency_cap(x),
                );
                Ok(())
            })?
        }
        _ => 0.0,
    };

    let traced_cpu: Vec<f64> = traced_rounds.iter().map(|r| sums(r).fused_cpu).collect();
    let ms = |d: Duration| d.as_secs_f64() * 1e3 / n;
    let k = |c: Class| c as usize;

    let mut m: Vec<Metric> = vec![
        ("matrix.gen_s", "s", median(gen_s)),
        ("matrix.nnz", "count", inputs.nnz as f64),
        ("matrix.bytes", "bytes", inputs.bytes as f64),
        ("gpu_sim.launches", "count", t.launches as f64 / n),
        (
            "gpu_sim.host_us_per_launch",
            "us",
            ratio(t.calls_wall().as_secs_f64() * 1e6, t.launches as f64),
        ),
        ("gpu_sim.dram_bytes", "bytes", t.dram_bytes as f64 / n),
        (
            "gpu_sim.global_atomic_ops",
            "count",
            t.global_atomic_ops as f64 / n,
        ),
        (
            "gpu_sim.occupancy",
            "ratio",
            ratio(t.occupancy_ms, t.backend_sim_ms),
        ),
        (
            "gpu_sim.pool_hit_ratio",
            "ratio",
            ratio(t.pool_hits as f64, t.pool_lookups as f64),
        ),
        ("gpu_sim.modeled_drift", "ratio", e2e.modeled_drift),
        ("core.select_plan_us", "us", select_plan_us),
        ("core.plan_cost_ratio", "ratio", geomean(&cost_ratios)),
        (
            "core.plans_losing_to_baseline",
            "count",
            e2e.plans_losing as f64,
        ),
        (
            "core.plan_cache_hit_ratio",
            "ratio",
            ratio(t.plan_hits as f64, t.plan_lookups as f64),
        ),
        ("core.dag_solve.calls", "count", t.dag_calls as f64 / n),
        ("core.dag_solve.wall_ms", "ms", ms(t.dag_wall)),
        ("core.dag_solve.modeled_ms", "ms", t.dag_modeled / n),
        ("blas.baseline_modeled_ms", "ms", e2e.baseline_modeled_ms),
        (
            "blas.exec.roofline_ratio",
            "ratio",
            // The CPU tier's analytical clock against its measured kernels;
            // on the simulated tiers the modeled clock is not host time.
            if w == Workload::CpuReal {
                ratio(
                    t.modeled[k(Class::Pattern)],
                    t.wall[k(Class::Pattern)].as_secs_f64() * 1e3,
                )
            } else {
                0.0
            },
        ),
        ("blas.exec.thread_scaling", "x", e2e.thread_scaling),
    ];
    for c in Class::ALL {
        let [calls, wall, modeled] = c.metric_names();
        m.push((calls, "count", t.calls[k(c)] as f64 / n));
        m.push((wall, "ms", ms(t.wall[k(c)])));
        m.push((modeled, "ms", t.modeled[k(c)] / n));
    }
    m.extend([
        (
            "ml.backend.pattern.wall_ms_p50",
            "ms",
            quantile(&t.pattern_walls_ms, 0.5),
        ),
        (
            "ml.backend.pattern.wall_ms_p99",
            "ms",
            quantile(&t.pattern_walls_ms, 0.99),
        ),
        (
            "ml.solver_self_ms",
            "ms",
            ms(t.solve_wall.saturating_sub(t.calls_wall())),
        ),
        ("ml.iterations", "count", t.iterations as f64 / n),
        ("runtime.h2d_bytes", "bytes", t.h2d_bytes as f64 / n),
        ("runtime.transfer_ms", "ms", t.transfer_ms / n),
        ("runtime.kernel_ms", "ms", t.kernel_ms / n),
        ("runtime.bubble_ms", "ms", t.bubble_ms / n),
        (
            "runtime.residency_hit_ratio",
            "ratio",
            ratio(t.residency_hits as f64, t.chunks as f64),
        ),
        ("runtime.cold_pass_ms", "ms", mean(&t.cold_ms)),
        ("runtime.warm_pass_ms", "ms", mean(&t.warm_ms)),
        ("runtime.stream_plan_us", "us", stream_plan_us),
        (
            "bench.trace_overhead",
            "ratio",
            ratio(median(&traced_cpu), e2e.fused_cpu_s) - 1.0,
        ),
        ("bench.iters_per_wall_s", "1/s", e2e.iters_per_wall_s),
    ]);
    Ok(LayerMetrics {
        metrics: m,
        reconciled,
    })
}

fn mean(xs: &[f64]) -> f64 {
    ratio(xs.iter().sum(), xs.len() as f64)
}

/// The result line: `correct`, `attempted`, `failed` and every metric.
pub fn result_json(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}
