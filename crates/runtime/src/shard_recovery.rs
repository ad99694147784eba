//! Multi-device fault recovery: the shard ladder
//! `ShardRetry -> Reshard -> SingleDevice -> Cpu`.
//!
//! * **ShardRetry** — rebuild the sharded job on every alive device and
//!   retry transient faults with backoff (same-tier retries, like the
//!   single-device ladder).
//! * **Reshard** — after a device loss (non-transient), redistribute the
//!   lost device's rows across the survivors and resume from the last
//!   [`fusedml_ml::SolverCheckpoint`] snapshot — never iteration 0.
//! * **SingleDevice** — pin the job to the first surviving device, still
//!   through the sharded executor (one shard), so the canonical reduction
//!   keeps the numerics bit-identical to the multi-device run.
//! * **Cpu** — host execution, the tier of last resort; never faults.
//!
//! The ladder runs on the one recovery driver in [`crate::recovery`]:
//! every decision is a
//! [`RecoveryEvent<ShardTier>`](crate::recovery::RecoveryEvent) and an
//! exhausted ladder returns [`LadderError<ShardTier>`] carrying the last
//! error seen on every tier — the same trail format as the single-device
//! ladder.

use crate::recovery::{
    run_ladder, solve_lr_cg, LadderError, LadderOutcome, LadderTrace, RecoveryPolicy, RecoveryTier,
};
use fusedml_gpu_sim::DeviceGroup;
use fusedml_matrix::CsrMatrix;
use fusedml_ml::{CpuBackend, LrCgOptions, ShardedBackend, SolverError};
use serde::{Deserialize, Serialize};

/// Rung of the multi-device degradation ladder, fastest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShardTier {
    /// All alive devices; transient faults retried in place.
    ShardRetry,
    /// Redistribute lost rows across the survivors, resume from the last
    /// checkpoint.
    Reshard,
    /// One surviving device carries the whole matrix (still the sharded
    /// executor, so numerics stay bit-identical).
    SingleDevice,
    /// Host execution; never faults.
    Cpu,
}

impl RecoveryTier for ShardTier {
    fn name(&self) -> &'static str {
        match self {
            ShardTier::ShardRetry => "shard-retry",
            ShardTier::Reshard => "reshard",
            ShardTier::SingleDevice => "single-device",
            ShardTier::Cpu => "cpu",
        }
    }

    fn degrade(&self) -> Option<ShardTier> {
        match self {
            ShardTier::ShardRetry => Some(ShardTier::Reshard),
            ShardTier::Reshard => Some(ShardTier::SingleDevice),
            ShardTier::SingleDevice => Some(ShardTier::Cpu),
            ShardTier::Cpu => None,
        }
    }
}

/// A [`LadderOutcome`] plus the sharding facts the multi-device report
/// needs.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedOutcome {
    /// The generic ladder outcome (tier, attempts, events, result, stats).
    pub ladder: LadderOutcome<ShardTier>,
    /// Devices that held a shard in the successful attempt (0 on the CPU
    /// tier).
    pub devices_used: usize,
    /// Shards that missed the straggler deadline, summed over every device
    /// attempt (successful or not).
    pub stragglers_detected: usize,
    /// Speculative re-executions launched, summed likewise.
    pub speculative_reexecs: usize,
}

/// Run LR-CG sharded across `group` under the shard recovery ladder.
///
/// Transient faults retry on the same tier with exponential backoff; a
/// device loss is non-transient and degrades `ShardRetry -> Reshard`,
/// which rebuilds the sharding over the survivors. With
/// `policy.checkpoint_every > 0` the resharded attempt resumes from the
/// last host-side snapshot (`resumed_at > 0` in the outcome) instead of
/// iteration 0. Because the sharded executor's reduction is canonical,
/// the final weights are bit-identical whatever tier finishes the run —
/// including `SingleDevice` — except `Cpu`, which has its own (reference)
/// summation order.
pub fn run_lr_cg_sharded_with_recovery(
    group: &DeviceGroup,
    x: &CsrMatrix,
    labels: &[f64],
    opts: LrCgOptions,
    straggler_factor: f64,
    policy: &RecoveryPolicy,
) -> Result<ShardedOutcome, LadderError<ShardTier>> {
    let ckpt = policy.checkpoint_handle();
    let ckpt = ckpt.as_ref();
    // Stragglers and speculative re-executions count over every device
    // attempt, failed ones included.
    let mut stragglers = 0usize;
    let mut reexecs = 0usize;
    let mut devices_used = 0usize;

    // The headline instant of this ladder: the shard layout is about to
    // change.
    let reshard = |next: ShardTier, error: &SolverError| {
        if next == ShardTier::Reshard {
            fusedml_trace::instant(
                "recovery",
                "reshard",
                "host",
                &[
                    ("survivors", group.alive_count().into()),
                    ("of", group.len().into()),
                    ("error", error.kind().into()),
                ],
            );
        }
    };
    let trace = LadderTrace {
        before_degrade: Some(&reshard),
        ..LadderTrace::host()
    };

    let landed = run_ladder(ShardTier::ShardRetry, policy, ckpt, &trace, |a| {
        let ordinals = match a.tier {
            ShardTier::Cpu => {
                devices_used = 0;
                let mut b = policy.cpu_tier(CpuBackend::new_sparse(x.clone()));
                return solve_lr_cg(&mut b, labels, opts, ckpt);
            }
            ShardTier::ShardRetry | ShardTier::Reshard => group.alive_ordinals(),
            ShardTier::SingleDevice => match group.alive_ordinals().first() {
                Some(&o) => vec![o],
                None => {
                    // No survivors at all: fail fast with a typed loss so
                    // the ladder falls through to the CPU tier.
                    return Err(fusedml_gpu_sim::DeviceError::DeviceLost {
                        device: group.len().saturating_sub(1),
                        fault_index: 0,
                    }
                    .into());
                }
            },
        };
        let mut b = ShardedBackend::try_new_sparse_on(group, x, &ordinals)?
            .with_straggler_policy(straggler_factor, true);
        devices_used = b.shard_count();
        let solved = solve_lr_cg(&mut b, labels, opts, ckpt);
        stragglers += b.stragglers_detected();
        reexecs += b.speculative_reexecs();
        solved
    })?;
    Ok(ShardedOutcome {
        ladder: landed.into_outcome(ckpt),
        devices_used,
        stragglers_detected: stragglers,
        speculative_reexecs: reexecs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedml_gpu_sim::{DeviceSpec, FaultProfile, InterconnectSpec};
    use fusedml_matrix::gen::{random_vector, uniform_sparse};

    fn opts() -> LrCgOptions {
        LrCgOptions {
            eps: 0.001,
            tolerance: 0.0,
            max_iterations: 30,
        }
    }

    fn group(n: usize, profile: FaultProfile) -> DeviceGroup {
        DeviceGroup::new(
            DeviceSpec::gtx_titan(),
            n,
            InterconnectSpec::pcie_gen3_x16(),
            &profile,
        )
    }

    #[test]
    fn shard_ladder_order_and_names() {
        assert_eq!(ShardTier::ShardRetry.degrade(), Some(ShardTier::Reshard));
        assert_eq!(ShardTier::Reshard.degrade(), Some(ShardTier::SingleDevice));
        assert_eq!(ShardTier::SingleDevice.degrade(), Some(ShardTier::Cpu));
        assert_eq!(ShardTier::Cpu.degrade(), None);
        assert_eq!(ShardTier::Reshard.name(), "reshard");
        assert_eq!(ShardTier::SingleDevice.name(), "single-device");
    }

    #[test]
    fn clean_group_finishes_on_shard_retry() {
        let x = uniform_sparse(120, 16, 0.2, 7);
        let labels = random_vector(120, 8);
        let g = group(3, FaultProfile::disabled());
        let out = run_lr_cg_sharded_with_recovery(
            &g,
            &x,
            &labels,
            opts(),
            3.0,
            &RecoveryPolicy::default(),
        )
        .unwrap();
        assert_eq!(out.ladder.tier, ShardTier::ShardRetry);
        assert_eq!(out.ladder.attempts, 1);
        assert_eq!(out.devices_used, 3);
        assert!(out.ladder.events.is_empty());
        assert_eq!(out.ladder.resumed_at, None);
    }

    #[test]
    fn device_loss_reshards_resumes_and_stays_bit_identical() {
        let x = uniform_sparse(160, 24, 0.15, 9);
        let labels = random_vector(160, 10);
        let policy = RecoveryPolicy {
            checkpoint_every: 2,
            ..RecoveryPolicy::default()
        };

        // Baseline: unfaulted single device through the same executor.
        let clean = {
            let g = group(1, FaultProfile::disabled());
            run_lr_cg_sharded_with_recovery(&g, &x, &labels, opts(), 3.0, &policy).unwrap()
        };
        assert_eq!(clean.ladder.tier, ShardTier::ShardRetry);

        // Seeded device loss mid-solve: found by scanning seeds offline;
        // this one kills exactly one of three devices within 30 iterations.
        let mut hit = None;
        for seed in 0..64u64 {
            let g = group(3, FaultProfile::seeded(seed).with_device_loss_rate(0.0015));
            let out =
                run_lr_cg_sharded_with_recovery(&g, &x, &labels, opts(), 3.0, &policy).unwrap();
            if out.ladder.tier == ShardTier::Reshard && g.alive_count() == 2 {
                hit = Some((out, seed));
                break;
            }
        }
        let (out, seed) = hit.expect("no seed in 0..64 lost exactly one device mid-solve");

        // The loss trail: shard-retry failed with a device loss, resharded,
        // resumed past iteration 0.
        assert!(
            out.ladder
                .events
                .iter()
                .any(|e| e.error_kind == "device-lost"),
            "seed {seed}: no device-lost event in the trail"
        );
        assert_eq!(out.devices_used, 2, "seed {seed}");
        let resumed = out.ladder.resumed_at.unwrap_or(0);
        assert!(resumed > 0, "seed {seed}: resumed at iteration 0");

        // And the survivors' result is bit-identical to the unfaulted run.
        let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&out.ladder.result.weights),
            bits(&clean.ladder.result.weights),
            "seed {seed}: reshard changed the numerics"
        );
    }

    #[test]
    fn dead_group_falls_through_to_cpu_with_full_trail() {
        let x = uniform_sparse(80, 12, 0.25, 11);
        let labels = random_vector(80, 12);
        let g = group(2, FaultProfile::disabled());
        g.mark_lost(0);
        g.mark_lost(1);
        let out = run_lr_cg_sharded_with_recovery(
            &g,
            &x,
            &labels,
            opts(),
            3.0,
            &RecoveryPolicy::default(),
        )
        .unwrap();
        assert_eq!(out.ladder.tier, ShardTier::Cpu);
        assert_eq!(out.devices_used, 0);
        // Every device tier left a device-lost event in the trail.
        let tiers: Vec<&str> = out.ladder.events.iter().map(|e| e.tier.name()).collect();
        assert_eq!(tiers, vec!["shard-retry", "reshard", "single-device"]);
        assert!(out
            .ladder
            .events
            .iter()
            .all(|e| e.error_kind == "device-lost"));
    }

    #[test]
    fn cpu_tier_runs_the_fused_kernels_when_asked() {
        let x = uniform_sparse(200, 24, 0.2, 21);
        let labels = random_vector(200, 22);
        let g = group(2, FaultProfile::disabled());
        g.mark_lost(0);
        g.mark_lost(1);
        let policy = RecoveryPolicy {
            cpu_fused_threads: 2,
            ..RecoveryPolicy::default()
        };
        let out = run_lr_cg_sharded_with_recovery(&g, &x, &labels, opts(), 3.0, &policy).unwrap();
        assert_eq!(out.ladder.tier, ShardTier::Cpu);

        let direct = |mut b: CpuBackend| {
            use fusedml_ml::Backend;
            let r = fusedml_ml::try_lr_cg(&mut b, &labels, opts()).unwrap();
            (r.weights, b.stats().sim_ms)
        };
        let (_, fused_ms) = direct(CpuBackend::new_sparse(x.clone()).with_fused_execution(2));
        let (reference, unfused_ms) = direct(CpuBackend::new_sparse(x.clone()));
        let sim_ms = out.ladder.stats.sim_ms;
        assert_eq!(sim_ms.to_bits(), fused_ms.to_bits());
        assert_ne!(sim_ms.to_bits(), unfused_ms.to_bits());
        let err = fusedml_matrix::reference::rel_l2_error(&out.ladder.result.weights, &reference);
        assert!(err < 1e-6, "fused cpu tier off by {err}");
    }

    #[test]
    fn degradation_disabled_aborts_with_tier_errors() {
        let x = uniform_sparse(40, 8, 0.3, 13);
        let labels = random_vector(40, 14);
        let g = group(2, FaultProfile::seeded(1).with_device_loss_rate(1.0));
        let policy = RecoveryPolicy {
            allow_degradation: false,
            ..RecoveryPolicy::default()
        };
        let err =
            run_lr_cg_sharded_with_recovery(&g, &x, &labels, opts(), 3.0, &policy).unwrap_err();
        assert_eq!(err.kind(), "device-lost");
        assert_eq!(err.tier_errors.len(), 1);
        assert_eq!(err.tier_errors[0].0, ShardTier::ShardRetry);
        assert!(err.to_string().contains("shard-retry tier"));
    }
}
