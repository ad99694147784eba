//! Fault recovery: bounded retry with exponential backoff for transient
//! device faults, and a graceful-degradation ladder
//! `Fused -> Baseline -> Cpu` for everything retries cannot fix.
//!
//! Retrying re-builds the backend from host data, so a watchdog-killed
//! kernel (whose output buffers are undefined) never leaks garbage into
//! the next attempt. Every retry and every degradation decision is
//! recorded as a [`RecoveryEvent`] so the session report can show *why*
//! a run ended on the tier it did.
//!
//! One driver, `run_ladder`, runs every ladder in the crate: this
//! single-device one, the shard ladder ([`crate::shard_recovery`]) and
//! the per-request serve ladder ([`crate::serve`](mod@crate::serve)).
//! Each ladder supplies only its tier order and retry rule
//! ([`RecoveryTier`]), an attempt closure, and where its trace instants
//! go.

use crate::session::DataSet;
use fusedml_gpu_sim::Gpu;
use fusedml_ml::ops::TransposePolicy;
use fusedml_ml::{
    try_lr_cg_ckpt, Backend, BackendStats, BaselineBackend, CheckpointHandle, CpuBackend,
    FusedBackend, LrCgOptions, LrCgResult, SolverError,
};
use fusedml_trace::ArgValue;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A rung of some degradation ladder. The ladder bookkeeping types
/// ([`RecoveryEvent`], [`LadderOutcome`], [`LadderError`]) are generic
/// over the tier so the single-device ladder (`Fused -> Baseline -> Cpu`),
/// the multi-device shard ladder (`ShardRetry -> Reshard -> SingleDevice
/// -> Cpu`, see [`crate::shard_recovery`]) and the serve ladder
/// (`Fused -> Streamed -> Cpu`) share one driver and one event trail
/// format.
pub trait RecoveryTier: Copy {
    /// Stable name for reports.
    fn name(&self) -> &'static str;

    /// The next, more conservative tier; `None` from the last rung.
    fn degrade(&self) -> Option<Self>;

    /// Whether a failed attempt is worth repeating on the same tier
    /// (retries left permitting). Transient faults by default.
    fn retryable(&self, e: &SolverError) -> bool {
        e.is_transient()
    }
}

/// Execution tier of the degradation ladder, fastest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BackendTier {
    /// The paper's fused kernels.
    Fused,
    /// cuBLAS/cuSPARSE-style operator composition.
    Baseline,
    /// Host execution — the tier of last resort; never faults.
    Cpu,
}

impl RecoveryTier for BackendTier {
    fn name(&self) -> &'static str {
        match self {
            BackendTier::Fused => "fused",
            BackendTier::Baseline => "baseline",
            BackendTier::Cpu => "cpu",
        }
    }

    fn degrade(&self) -> Option<BackendTier> {
        match self {
            BackendTier::Fused => Some(BackendTier::Baseline),
            BackendTier::Baseline => Some(BackendTier::Cpu),
            BackendTier::Cpu => None,
        }
    }
}

/// What the policy decided after a failed attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecoveryAction {
    /// Same tier again after backoff (transient fault, retries left).
    Retry,
    /// Move down the ladder (retries exhausted or fault not transient).
    Degrade,
    /// Give up (degradation disabled, or the ladder is exhausted).
    Abort,
}

/// One recovery decision, recorded in order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryEvent<T = BackendTier> {
    /// Tier the failed attempt ran on.
    pub tier: T,
    /// 1-based attempt number within that tier.
    pub attempt: usize,
    /// Stable error class (`DeviceError::kind` / `"numerical-breakdown"`).
    pub error_kind: String,
    /// Full error message.
    pub detail: String,
    /// What the policy decided.
    pub action: RecoveryAction,
    /// Simulated backoff delay charged before the retry (0 otherwise).
    pub backoff_ms: f64,
}

/// Retry/degradation policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoveryPolicy {
    /// Retries per tier *after* the first attempt, for transient faults.
    pub max_retries: usize,
    /// Backoff before the first retry (simulated milliseconds).
    pub backoff_ms: f64,
    /// Multiplier applied to the backoff per additional retry.
    pub backoff_multiplier: f64,
    /// When false, a tier's failure aborts instead of degrading.
    pub allow_degradation: bool,
    /// Snapshot solver state every this many iterations so retries and
    /// tier degrades resume from the last good iterate instead of
    /// iteration 0. `0` (the default) disables checkpointing and keeps
    /// every attempt bit-identical to the pre-checkpoint behaviour.
    pub checkpoint_every: usize,
    /// Worker threads for the Cpu tier's fused single-pass pattern
    /// kernels (SIMD-dispatched, deterministic across thread counts).
    /// `0` (the default) keeps the Cpu tier on the unfused reference
    /// path, bit-identical to earlier releases.
    #[serde(default)]
    pub cpu_fused_threads: usize,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 2,
            backoff_ms: 5.0,
            backoff_multiplier: 2.0,
            allow_degradation: true,
            checkpoint_every: 0,
            cpu_fused_threads: 0,
        }
    }
}

impl RecoveryPolicy {
    /// Backoff before retry number `retry` (1-based), exponential.
    pub fn backoff_for(&self, retry: usize) -> f64 {
        self.backoff_ms * self.backoff_multiplier.powi(retry.saturating_sub(1) as i32)
    }

    /// The snapshot handle every attempt of one ladder run shares;
    /// `None` with checkpointing off.
    pub(crate) fn checkpoint_handle(&self) -> Option<CheckpointHandle> {
        (self.checkpoint_every > 0).then(|| CheckpointHandle::new(self.checkpoint_every))
    }

    /// The Cpu tier's backend over `b`'s matrix: the fused single-pass
    /// kernels on `cpu_fused_threads` workers when that is set, the
    /// unfused reference path otherwise. Every ladder's Cpu tier is
    /// built here.
    pub(crate) fn cpu_tier(&self, b: CpuBackend) -> CpuBackend {
        if self.cpu_fused_threads > 0 {
            b.with_fused_execution(self.cpu_fused_threads)
        } else {
            b
        }
    }
}

/// Where the ladder landed, with the full decision trail.
#[derive(Debug, Clone, PartialEq)]
pub struct LadderOutcome<T = BackendTier> {
    /// Tier that completed the run.
    pub tier: T,
    /// Total attempts across all tiers (>= 1).
    pub attempts: usize,
    /// Simulated milliseconds spent backing off before retries.
    pub retry_backoff_ms: f64,
    /// Every retry/degradation decision, in order.
    pub events: Vec<RecoveryEvent<T>>,
    /// Solver result of the successful attempt.
    pub result: LrCgResult,
    /// Backend stats of the successful attempt (failed attempts' partial
    /// compute is absorbed into the shared `Gpu` clock, not shown here).
    pub stats: BackendStats,
    /// Iteration the successful attempt resumed from, when checkpointing
    /// was enabled and a prior failed attempt left a snapshot behind
    /// (`None` when the run started from iteration 0).
    pub resumed_at: Option<usize>,
}

/// The ladder gave up: every usable tier failed. Carries the *last*
/// error seen on each tier, in the order the tiers were attempted, plus
/// the full decision trail — so an abort report can show not just the
/// final CPU-tier error but also what killed the faster tiers.
#[derive(Debug, Clone, PartialEq)]
pub struct LadderError<T = BackendTier> {
    /// `(tier, last error on that tier)` in attempt order; never empty.
    pub tier_errors: Vec<(T, SolverError)>,
    /// Total attempts across all tiers.
    pub attempts: usize,
    /// Every retry/degradation/abort decision, in order.
    pub events: Vec<RecoveryEvent<T>>,
}

impl<T> LadderError<T> {
    /// The error that ended the run: the last tier's last error.
    pub fn final_error(&self) -> &SolverError {
        match self.tier_errors.last() {
            Some((_, e)) => e,
            // `tier_errors` is never empty by construction; keep a
            // diagnosable panic rather than unwrap for the impossible arm.
            None => unreachable!("LadderError built without any tier error"),
        }
    }

    /// Delegates to the final error (matches [`SolverError::is_transient`]).
    pub fn is_transient(&self) -> bool {
        self.final_error().is_transient()
    }

    /// Stable class tag of the final error.
    pub fn kind(&self) -> &'static str {
        self.final_error().kind()
    }
}

impl<T: Copy> LadderError<T> {
    /// The ladder gave up before its first attempt on `start`: no
    /// attempts, one `Abort` event, and `error` as the only tier error.
    pub(crate) fn unstarted(start: T, error: SolverError) -> Self {
        LadderError {
            events: vec![RecoveryEvent {
                tier: start,
                attempt: 0,
                error_kind: error.kind().to_string(),
                detail: error.to_string(),
                action: RecoveryAction::Abort,
                backoff_ms: 0.0,
            }],
            tier_errors: vec![(start, error)],
            attempts: 0,
        }
    }
}

impl<T: RecoveryTier> fmt::Display for LadderError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "recovery ladder exhausted after {} attempts: ",
            self.attempts
        )?;
        for (i, (tier, e)) in self.tier_errors.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{} tier: {e}", tier.name())?;
        }
        Ok(())
    }
}

impl<T: RecoveryTier + fmt::Debug> std::error::Error for LadderError<T> {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(self.final_error())
    }
}

/// Where a ladder's trace instants go: the category and track each one
/// is recorded on, and the args that lead each instant's own.
pub(crate) struct LadderTrace<'a, T> {
    pub category: &'a str,
    pub track: &'a str,
    pub lead: &'a [(&'a str, ArgValue)],
    pub before_degrade: Option<DegradeHook<'a, T>>,
}

/// Records extra instants just before a `degrade` instant; called with
/// the tier being degraded to, only while tracing is on.
pub(crate) type DegradeHook<'a, T> = &'a dyn Fn(T, &SolverError);

impl<T> LadderTrace<'_, T> {
    /// The session and shard ladders' scope: category `recovery`, track
    /// `host`, no leading args.
    pub(crate) fn host() -> Self {
        LadderTrace {
            category: "recovery",
            track: "host",
            lead: &[],
            before_degrade: None,
        }
    }

    fn instant(&self, name: &str, args: impl FnOnce() -> Vec<(&'static str, ArgValue)>) {
        if fusedml_trace::is_enabled() {
            let mut all = self.lead.to_vec();
            all.extend(args());
            fusedml_trace::instant(self.category, name, self.track, &all);
        }
    }
}

/// What the driver hands each attempt.
pub(crate) struct Attempt<T> {
    pub tier: T,
    /// 1-based attempt number across every tier.
    pub number: usize,
    /// Backoff charged just before this attempt: 0 unless it is a retry.
    pub backoff_ms: f64,
}

/// A ladder run that succeeded: the successful attempt's tier and value,
/// and the trail that led there.
pub(crate) struct Landed<T, R> {
    pub tier: T,
    pub attempts: usize,
    pub retry_backoff_ms: f64,
    pub events: Vec<RecoveryEvent<T>>,
    pub value: R,
}

/// An LR-CG solve's result and the backend stats of the run.
pub(crate) type Solved = (LrCgResult, BackendStats);

impl<T> Landed<T, Solved> {
    /// The public outcome of an LR-CG ladder that shared `ckpt` across
    /// its attempts.
    pub(crate) fn into_outcome(self, ckpt: Option<&CheckpointHandle>) -> LadderOutcome<T> {
        let (result, stats) = self.value;
        LadderOutcome {
            tier: self.tier,
            attempts: self.attempts,
            retry_backoff_ms: self.retry_backoff_ms,
            events: self.events,
            result,
            stats,
            resumed_at: ckpt.and_then(|h| h.last_resume()),
        }
    }
}

/// Record a `resume` instant when the next attempt, on `to`, will pick
/// up a snapshot, so the trace shows where the resumed run restarts.
fn trace_resume<T: RecoveryTier>(
    trace: &LadderTrace<'_, T>,
    ckpt: Option<&CheckpointHandle>,
    to: T,
) {
    if !fusedml_trace::is_enabled() {
        return;
    }
    if let Some(snap) = ckpt.and_then(|h| h.latest()) {
        trace.instant("resume", || {
            vec![
                ("tier", to.name().into()),
                ("iteration", snap.iteration().into()),
                ("solver", snap.solver().into()),
            ]
        });
    }
}

/// The one recovery-ladder driver. Runs `attempt` on `start`; a failure
/// the tier calls retryable is retried on the same tier, up to
/// `policy.max_retries` times, after `policy.backoff_for` backoff;
/// anything else degrades to the next tier, or aborts when the ladder is
/// exhausted or degradation is off. Every decision is recorded as a
/// [`RecoveryEvent`] and a trace instant (`retry`, `degrade`, `abort`,
/// plus `resume` whenever `ckpt` holds a snapshot for the next attempt).
pub(crate) fn run_ladder<T: RecoveryTier, R>(
    start: T,
    policy: &RecoveryPolicy,
    ckpt: Option<&CheckpointHandle>,
    trace: &LadderTrace<'_, T>,
    mut attempt: impl FnMut(Attempt<T>) -> Result<R, SolverError>,
) -> Result<Landed<T, R>, LadderError<T>> {
    let mut events = Vec::new();
    let mut tier_errors = Vec::new();
    let mut attempts = 0usize;
    let mut retry_backoff_ms = 0.0f64;
    let mut tier = start;
    let mut tier_attempt = 0usize;
    let mut backoff_ms = 0.0f64;

    loop {
        tier_attempt += 1;
        attempts += 1;
        let error = match attempt(Attempt {
            tier,
            number: attempts,
            backoff_ms,
        }) {
            Ok(value) => {
                return Ok(Landed {
                    tier,
                    attempts,
                    retry_backoff_ms,
                    events,
                    value,
                })
            }
            Err(e) => e,
        };
        let event = |action, backoff_ms| RecoveryEvent {
            tier,
            attempt: tier_attempt,
            error_kind: error.kind().to_string(),
            detail: error.to_string(),
            action,
            backoff_ms,
        };

        if tier.retryable(&error) && tier_attempt <= policy.max_retries {
            backoff_ms = policy.backoff_for(tier_attempt);
            retry_backoff_ms += backoff_ms;
            trace.instant("retry", || {
                vec![
                    ("tier", tier.name().into()),
                    ("attempt", tier_attempt.into()),
                    ("error", error.kind().into()),
                    ("backoff_ms", backoff_ms.into()),
                ]
            });
            events.push(event(RecoveryAction::Retry, backoff_ms));
            trace_resume(trace, ckpt, tier);
            continue;
        }
        backoff_ms = 0.0;

        match tier.degrade().filter(|_| policy.allow_degradation) {
            Some(next) => {
                if let Some(hook) = trace.before_degrade.filter(|_| fusedml_trace::is_enabled()) {
                    hook(next, &error);
                }
                trace.instant("degrade", || {
                    vec![
                        ("from", tier.name().into()),
                        ("to", next.name().into()),
                        ("error", error.kind().into()),
                    ]
                });
                events.push(event(RecoveryAction::Degrade, 0.0));
                tier_errors.push((tier, error));
                trace_resume(trace, ckpt, next);
                tier = next;
                tier_attempt = 0;
            }
            None => {
                trace.instant("abort", || {
                    vec![("tier", tier.name().into()), ("error", error.kind().into())]
                });
                events.push(event(RecoveryAction::Abort, 0.0));
                tier_errors.push((tier, error));
                return Err(LadderError {
                    tier_errors,
                    attempts,
                    events,
                });
            }
        }
    }
}

/// Run LR-CG on `b` and return the result with the backend's stats: the
/// one solve every LR-CG tier of the session and shard ladders shares.
pub(crate) fn solve_lr_cg<B: Backend>(
    b: &mut B,
    labels: &[f64],
    opts: LrCgOptions,
    ckpt: Option<&CheckpointHandle>,
) -> Result<Solved, SolverError> {
    let result = try_lr_cg_ckpt(b, labels, opts, ckpt)?;
    Ok((result, b.stats()))
}

/// One LR-CG attempt on a fresh backend of `tier` over `data` (the
/// device tiers upload the matrix to `gpu` first).
#[allow(clippy::too_many_arguments)]
pub(crate) fn solve_on_tier(
    gpu: &Gpu,
    tier: BackendTier,
    data: &DataSet,
    labels: &[f64],
    opts: LrCgOptions,
    transpose_policy: TransposePolicy,
    policy: &RecoveryPolicy,
    ckpt: Option<&CheckpointHandle>,
) -> Result<Solved, SolverError> {
    match tier {
        BackendTier::Fused => {
            let mut b = FusedBackend::try_from_matrix(gpu, data.try_upload(gpu)?)?;
            solve_lr_cg(&mut b, labels, opts, ckpt)
        }
        BackendTier::Baseline => {
            let mut b = BaselineBackend::try_from_matrix(gpu, data.try_upload(gpu)?)?
                .with_transpose_policy(transpose_policy);
            solve_lr_cg(&mut b, labels, opts, ckpt)
        }
        BackendTier::Cpu => solve_lr_cg(
            &mut policy.cpu_tier(data.host_backend()),
            labels,
            opts,
            ckpt,
        ),
    }
}

/// Run LR-CG under the recovery policy, starting at the fused tier.
///
/// Transient faults are retried on the same tier (fresh backend each
/// time) up to `policy.max_retries` times with exponential backoff;
/// anything else — or exhausted retries — degrades down the ladder.
/// With `policy.checkpoint_every > 0` the solver snapshots its CG state
/// at that cadence and every retry or degraded attempt resumes from the
/// last snapshot instead of iteration 0 — the snapshot lives on the
/// host, so it survives the switch to a fresh backend on a lower tier.
/// `Err` means every usable tier failed — with `allow_degradation:
/// false`, or when even the CPU tier (which never faults) breaks down
/// numerically, e.g. on NaN labels — and carries the last error seen on
/// every tier attempted.
pub fn run_lr_cg_with_recovery(
    gpu: &Gpu,
    data: &DataSet,
    labels: &[f64],
    opts: LrCgOptions,
    transpose_policy: TransposePolicy,
    policy: &RecoveryPolicy,
) -> Result<LadderOutcome, LadderError> {
    let ckpt = policy.checkpoint_handle();
    let ckpt = ckpt.as_ref();
    run_ladder(
        BackendTier::Fused,
        policy,
        ckpt,
        &LadderTrace::host(),
        |a| {
            solve_on_tier(
                gpu,
                a.tier,
                data,
                labels,
                opts,
                transpose_policy,
                policy,
                ckpt,
            )
        },
    )
    .map(|landed| landed.into_outcome(ckpt))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_order_and_names() {
        assert_eq!(BackendTier::Fused.degrade(), Some(BackendTier::Baseline));
        assert_eq!(BackendTier::Baseline.degrade(), Some(BackendTier::Cpu));
        assert_eq!(BackendTier::Cpu.degrade(), None);
        assert_eq!(BackendTier::Fused.name(), "fused");
    }

    #[test]
    fn backoff_grows_exponentially() {
        let p = RecoveryPolicy::default();
        assert_eq!(p.backoff_for(1), 5.0);
        assert_eq!(p.backoff_for(2), 10.0);
        assert_eq!(p.backoff_for(3), 20.0);
    }
}
