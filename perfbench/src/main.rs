//! fusedml repository benchmark.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Runs one of four workloads (see `README.md`) for `--seconds` of timed
//! rounds after set-up, checks every solve against the unfused CPU
//! reference, prints a human-readable report, and ends with one JSON line:
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics of a
//! traced run (`--trace 1`).

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads the process clocks of 64-bit Linux");

mod check;
mod host;
mod layers;
mod stats;
mod timed;
mod workloads;

use check::{check, self_test, Tally};
use std::process::ExitCode;
use std::time::Duration;
use workloads::{Ctx, Path, Workload};

/// Set-up repeats between the rounds: before each of the first
/// [`SETUP_MIN_REPS`] rounds, and whenever set-up has used less than this
/// share of the CPU time spent since the rounds began. `setup_s` is the
/// median of the repetitions' CPU times, so it is read over the same
/// stretch of the run as the rounds, not off one burst at its start.
const SETUP_SHARE: f64 = 0.1;
const SETUP_MIN_REPS: usize = 9;
/// Fewest untraced rounds a run measures, however long they take.
const MIN_ROUNDS: usize = 3;

const USAGE: &str = "usage: perfbench --workload <sim-sparse-solvers|sim-dense-dag|cpu-real|\
                     sim-out-of-core> [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload '{value}'"))?);
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// One solve's figures, kept per round.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    pub case: usize,
    pub path: Path,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub modeled_ms: f64,
    pub iterations: usize,
}

/// Run every case on every path of the workload once, checking each
/// result against its case's reference. A traced round traces the product
/// path and returns its solves.
fn round(
    w: Workload,
    inputs: &workloads::Inputs,
    references: &[Vec<f64>],
    ctx: &Ctx,
    tally: &mut Tally,
    traced: bool,
) -> (Vec<Record>, Vec<workloads::Solve>) {
    let mut records = Vec::new();
    let mut solves = Vec::new();
    for (i, c) in inputs.cases.iter().enumerate() {
        for &path in w.paths() {
            let s = workloads::run(w, c, path, ctx, traced && path == Path::Fused);
            tally.record(
                &format!("{} [{}]", c.name, path.name()),
                check(&s.result, &references[i]),
            );
            records.push(Record {
                case: i,
                path,
                wall_s: s.wall.as_secs_f64(),
                cpu_s: s.cpu.as_secs_f64(),
                modeled_ms: s.stats.sim_ms,
                iterations: s.iterations,
            });
            if traced && path == Path::Fused {
                solves.push(s);
            }
        }
    }
    (records, solves)
}

fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let nproc = host::nproc();
    let (l2, l3) = host::cache_sizes();
    let ctx = Ctx::new(nproc);
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host: nproc={nproc} L2={} L3={} cpu-executor={}",
        mib(l2),
        mib(l3),
        workloads::executor_name(nproc)
    );

    let mut setups = Setups::default();
    let mut inputs = setups.rep(w, args.seed, nproc, None)?;
    println!(
        "inputs: {} solves, nnz={} bytes={} ({}; L2 {}, L3 {})",
        inputs.cases.len(),
        inputs.nnz,
        inputs.bytes,
        mib(inputs.bytes),
        mib(l2),
        mib(l3)
    );

    let references = inputs
        .cases
        .iter()
        .map(|c| {
            workloads::reference_result(c)
                .map_err(|e| format!("reference solve of {} failed: {e}", c.name))
        })
        .collect::<Result<Vec<_>, _>>()?;
    self_test(&references[0]).map_err(|e| format!("correctness-check self-test failed: {e}"))?;

    let mut tally = Tally::default();
    // Warm-up: first touches of the buffer pool, page faults and lazily
    // built executor state land here, not in the measured rounds.
    round(w, &inputs, &references, &ctx, &mut tally, false);
    let budget = Duration::from_secs(args.seconds);
    let clock = host::Stopwatch::start();
    let mut rounds = Vec::new();
    let mut traced_rounds = Vec::new();
    let mut traced = Vec::new();
    // A traced run alternates untraced and traced rounds, so drift in the
    // machine's speed reaches both halves alike.
    while rounds.len() < MIN_ROUNDS
        || setups.cpu_s.len() < SETUP_MIN_REPS
        || clock.read().0 < budget
    {
        // Each repetition replaces the inputs with identical ones, so only
        // one input set is alive at a time and the next round checks the
        // rebuilt set against the references.
        while setups.cpu_s.len() < (rounds.len() + 1).min(SETUP_MIN_REPS)
            || setups.cpu_s.iter().sum::<f64>() < SETUP_SHARE * clock.read().1.as_secs_f64()
        {
            inputs = setups.rep(w, args.seed, nproc, Some(inputs))?;
        }
        rounds.push(round(w, &inputs, &references, &ctx, &mut tally, false).0);
        if args.trace {
            let (records, solves) = round(w, &inputs, &references, &ctx, &mut tally, true);
            traced_rounds.push(records);
            traced.push(solves);
        }
    }
    println!("setup: {} repetitions", setups.cpu_s.len());
    let e2e = layers::EndToEnd::from_rounds(&inputs, &rounds);
    layers::print_cases(w, &inputs, &rounds);

    let (metrics, reconciled) = if args.trace {
        println!("rounds: {} untraced, {} traced", rounds.len(), traced.len());
        let mut lm = layers::per_layer(
            w,
            &inputs,
            &ctx,
            &traced_rounds,
            &traced,
            &e2e,
            &setups.gen_s,
        )?;
        lm.metrics
            .push(("bench.error_rate", "ratio", tally.error_rate()));
        (lm.metrics, lm.reconciled)
    } else {
        println!("rounds: {} untraced", rounds.len());
        let rss = host::peak_rss_bytes()?;
        (e2e.metrics(&setups.cpu_s, &tally, rss), Ok(()))
    };

    println!(
        "solves checked: {}, failed: {} (error_rate {})",
        tally.attempted,
        tally.failed,
        tally.error_rate()
    );
    for f in &tally.first_failures {
        println!("  FAILED {f}");
    }
    if let Err(why) = &reconciled {
        println!("  RECONCILIATION FAILED: {why}");
    }
    for (name, unit, value) in &metrics {
        println!("  {name} = {value} {unit}");
    }
    let non_finite: Vec<_> = metrics
        .iter()
        .filter(|(_, _, v)| !v.is_finite())
        .map(|(name, _, _)| *name)
        .collect();
    if !non_finite.is_empty() {
        println!("  NON-FINITE METRICS: {non_finite:?}");
    }
    let correct = tally.failed == 0 && reconciled.is_ok() && non_finite.is_empty();
    println!("{}", layers::result_json(correct, &tally, &metrics));
    Ok(correct)
}

/// The CPU times of a run's set-up repetitions.
#[derive(Default)]
struct Setups {
    cpu_s: Vec<f64>,
    /// Data generation and format conversion alone.
    gen_s: Vec<f64>,
}

impl Setups {
    /// One timed set-up; `previous` inputs are dropped before it starts.
    fn rep(
        &mut self,
        w: Workload,
        seed: u64,
        nproc: usize,
        previous: Option<workloads::Inputs>,
    ) -> Result<workloads::Inputs, String> {
        drop(previous);
        let clock = host::Stopwatch::start();
        let built = workloads::setup(w, seed, nproc)?;
        self.cpu_s.push(clock.read().1.as_secs_f64());
        self.gen_s.push(built.gen_s);
        Ok(built)
    }
}

fn mib(bytes: u64) -> String {
    format!("{:.1} MiB", bytes as f64 / (1024.0 * 1024.0))
}
