//! The trace instants every recovery ladder emits — name, category,
//! track, args and order — for the single-device session ladder, the
//! shard ladder and the serve ladder.
//!
//! The trace collector is process-global, so this file holds exactly one
//! `#[test]`: it runs in its own process and sees only its own events.

use fusedml_gpu_sim::{DeviceGroup, DeviceSpec, FaultProfile, Gpu, InterconnectSpec};
use fusedml_matrix::gen::{random_vector, uniform_sparse};
use fusedml_ml::ops::TransposePolicy;
use fusedml_ml::LrCgOptions;
use fusedml_runtime::{
    run_lr_cg_sharded_with_recovery, run_lr_cg_with_recovery, serve, DataSet, RecoveryPolicy,
    ServeConfig, ServeRequest, TenantSpec, WorkloadClass,
};
use fusedml_trace::{ArgValue, EventKind};

/// Drain the collector and render its ladder instants (categories
/// `recovery` and `serve`) as `cat/name@track k=v,...`, in order.
fn ladder_instants() -> Vec<String> {
    fusedml_trace::take()
        .into_iter()
        .filter(|e| e.kind == EventKind::Instant && (e.cat == "recovery" || e.cat == "serve"))
        .map(|e| {
            let args: Vec<String> = e
                .args
                .iter()
                .map(|(k, v)| match v {
                    ArgValue::F64(x) => format!("{k}={x:?}"),
                    ArgValue::U64(x) => format!("{k}={x}"),
                    ArgValue::Str(s) => format!("{k}={s}"),
                    ArgValue::Bool(b) => format!("{k}={b}"),
                })
                .collect();
            format!("{}/{}@{} {}", e.cat, e.name, e.track, args.join(","))
        })
        .collect()
}

fn check(scenario: &str, expected: &[&str]) {
    let got = ladder_instants();
    assert_eq!(
        got, expected,
        "{scenario}: ladder instants differ; got {got:#?}"
    );
}

fn opts() -> LrCgOptions {
    LrCgOptions {
        eps: 0.001,
        tolerance: 0.0,
        max_iterations: 12,
    }
}

fn faulty_gpu(profile: FaultProfile) -> Gpu {
    Gpu::with_host_threads(DeviceSpec::gtx_titan(), 1).with_fault_profile(profile)
}

#[test]
fn ladder_trace_instants() {
    let x = uniform_sparse(400, 64, 0.05, 311);
    let labels = random_vector(400, 312);
    let data = DataSet::Sparse(x.clone());
    fusedml_trace::enable();

    // Session ladder: retry -> resume -> degrade -> resume, twice, then
    // the run finishes on the Cpu tier from the last snapshot.
    let policy = RecoveryPolicy {
        max_retries: 1,
        checkpoint_every: 2,
        ..RecoveryPolicy::default()
    };
    let gpu = faulty_gpu(FaultProfile::seeded(0).with_kernel_fault_rate(0.01));
    let out = run_lr_cg_with_recovery(
        &gpu,
        &data,
        &labels,
        opts(),
        TransposePolicy::PerCall,
        &policy,
    )
    .expect("the Cpu tier finishes");
    assert_eq!(out.resumed_at, Some(6));
    check(
        "session retry/resume/degrade",
        &[
            "recovery/retry@host tier=fused,attempt=1,error=transient-fault,backoff_ms=5.0",
            "recovery/resume@host tier=fused,iteration=4,solver=lr_cg",
            "recovery/degrade@host from=fused,to=baseline,error=transient-fault",
            "recovery/resume@host tier=baseline,iteration=4,solver=lr_cg",
            "recovery/retry@host tier=baseline,attempt=1,error=transient-fault,backoff_ms=5.0",
            "recovery/resume@host tier=baseline,iteration=4,solver=lr_cg",
            "recovery/degrade@host from=baseline,to=cpu,error=transient-fault",
            "recovery/resume@host tier=cpu,iteration=6,solver=lr_cg",
        ],
    );

    // Session ladder: NaN labels break every tier, down to an abort.
    let mut nan_labels = labels.clone();
    nan_labels[3] = f64::NAN;
    let gpu = faulty_gpu(FaultProfile::disabled());
    run_lr_cg_with_recovery(
        &gpu,
        &data,
        &nan_labels,
        opts(),
        TransposePolicy::PerCall,
        &policy,
    )
    .expect_err("NaN labels break every tier");
    check(
        "session abort",
        &[
            "recovery/degrade@host from=fused,to=baseline,error=numerical-breakdown",
            "recovery/degrade@host from=baseline,to=cpu,error=numerical-breakdown",
            "recovery/abort@host tier=cpu,error=numerical-breakdown",
        ],
    );

    // Session ladder without degradation: retry, then abort in place.
    let gpu = faulty_gpu(FaultProfile::seeded(9).with_kernel_fault_rate(1.0));
    let no_degrade = RecoveryPolicy {
        allow_degradation: false,
        ..policy
    };
    run_lr_cg_with_recovery(
        &gpu,
        &data,
        &labels,
        opts(),
        TransposePolicy::PerCall,
        &no_degrade,
    )
    .expect_err("every kernel faults");
    check(
        "session no-degrade abort",
        &[
            "recovery/retry@host tier=fused,attempt=1,error=transient-fault,backoff_ms=5.0",
            "recovery/abort@host tier=fused,error=transient-fault",
        ],
    );

    // Shard ladder: a device loss mid-solve; `reshard` precedes the
    // `degrade` onto the Reshard tier, and each degrade resumes.
    let group = DeviceGroup::new(
        DeviceSpec::gtx_titan(),
        3,
        InterconnectSpec::pcie_gen3_x16(),
        &FaultProfile::seeded(8).with_device_loss_rate(0.0015),
    );
    run_lr_cg_sharded_with_recovery(&group, &x, &labels, opts(), 3.0, &policy)
        .expect("the survivors finish");
    check(
        "shard reshard/resume",
        &[
            "recovery/reshard@host survivors=2,of=3,error=device-lost",
            "recovery/degrade@host from=shard-retry,to=reshard,error=device-lost",
            "recovery/resume@host tier=reshard,iteration=6,solver=lr_cg",
            "recovery/degrade@host from=reshard,to=single-device,error=device-lost",
            "recovery/resume@host tier=single-device,iteration=10,solver=lr_cg",
        ],
    );

    // Shard ladder: a dead group walks every device tier down to Cpu.
    let dead = DeviceGroup::new(
        DeviceSpec::gtx_titan(),
        2,
        InterconnectSpec::pcie_gen3_x16(),
        &FaultProfile::disabled(),
    );
    dead.mark_lost(0);
    dead.mark_lost(1);
    run_lr_cg_sharded_with_recovery(&dead, &x, &labels, opts(), 3.0, &policy)
        .expect("the Cpu tier finishes");
    check(
        "shard dead group",
        &[
            "recovery/reshard@host survivors=0,of=2,error=device-lost",
            "recovery/degrade@host from=shard-retry,to=reshard,error=device-lost",
            "recovery/degrade@host from=reshard,to=single-device,error=device-lost",
            "recovery/degrade@host from=single-device,to=cpu,error=device-lost",
        ],
    );

    // Serve ladder: instants go on the tenant's track and lead with the
    // workload class, and it records `resume` and `abort` like the others.
    let cfg = ServeConfig {
        policy,
        ..ServeConfig::default()
    };
    let reqs = [ServeRequest::new(0, WorkloadClass::LrCg, 0.0)];
    let tenant =
        |profile: FaultProfile| vec![TenantSpec::new("t0", 2, 64 << 20).with_faults(profile)];
    let rep = serve(
        &tenant(FaultProfile::seeded(0).with_kernel_fault_rate(0.05)),
        &reqs,
        &cfg,
    )
    .expect("valid config");
    assert!(rep.outcomes[0].status.is_completed());
    check(
        "serve retry/degrade",
        &[
            "serve/retry@t0 class=lr_cg,tier=fused,attempt=1,error=transient-fault,backoff_ms=5.0",
            "serve/degrade@t0 class=lr_cg,from=fused,to=streamed,error=transient-fault",
            "serve/resume@t0 class=lr_cg,tier=streamed,iteration=4,solver=lr_cg",
            "serve/retry@t0 class=lr_cg,tier=streamed,attempt=1,error=transient-fault,backoff_ms=5.0",
            "serve/resume@t0 class=lr_cg,tier=streamed,iteration=4,solver=lr_cg",
            "serve/degrade@t0 class=lr_cg,from=streamed,to=cpu,error=transient-fault",
            "serve/resume@t0 class=lr_cg,tier=cpu,iteration=4,solver=lr_cg",
        ],
    );

    // Serve ladder: device loss is retried on a replacement device.
    let rep = serve(
        &tenant(FaultProfile::seeded(7).with_device_loss_rate(0.03)),
        &reqs,
        &cfg,
    )
    .expect("valid config");
    assert!(rep.outcomes[0].status.is_completed());
    check(
        "serve device-loss retry",
        &[
            "serve/retry@t0 class=lr_cg,tier=fused,attempt=1,error=device-lost,backoff_ms=5.0",
            "serve/resume@t0 class=lr_cg,tier=fused,iteration=2,solver=lr_cg",
        ],
    );

    // Serve ladder without degradation: the request fails in place.
    let cfg = ServeConfig {
        policy: no_degrade,
        ..cfg
    };
    let rep = serve(
        &tenant(FaultProfile::seeded(1).with_kernel_fault_rate(1.0)),
        &reqs,
        &cfg,
    )
    .expect("valid config");
    assert_eq!(rep.failed(), 1);
    check(
        "serve abort",
        &[
            "serve/retry@t0 class=lr_cg,tier=fused,attempt=1,error=transient-fault,backoff_ms=5.0",
            "serve/abort@t0 class=lr_cg,tier=fused,error=transient-fault",
        ],
    );
}
