//! Ablation benches for the reproduction's main design choices:
//!
//! * sub-checkpoint subdivision on/off (`A_D_S` vs `A_D`) — the paper's
//!   core mechanism;
//! * `num_SCP` optimizer: paper closed form vs exact recursion;
//! * DVS on/off (`A_D_S` vs fixed-speed `adapchp-SCP`);
//! * fault model: analysis-faithful vs physical (faults during overhead).
//!
//! Each payload runs a small Monte-Carlo batch and asserts outcome sanity
//! so the comparison cannot silently degenerate. Outcome-level ablation
//! values (P/E differences) come from `sweep --kind optimizer` and
//! `sweep --kind store-compare-ratio`.

use criterion::{criterion_group, criterion_main, Criterion};
use eacp_core::analysis::OptimizeMethod;
use eacp_core::policies::Adaptive;
use eacp_energy::DvsConfig;
use eacp_exec::{Job, LocalRunner, Runner};
use eacp_faults::PoissonProcess;
use eacp_sim::{CheckpointCosts, ExecutorOptions, Scenario, Summary, TaskSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

const LAMBDA: f64 = 1.4e-3;
const REPS: u64 = 200;

fn scenario() -> Scenario {
    Scenario::new(
        TaskSpec::from_utilization(0.76, 1.0, 10_000.0),
        CheckpointCosts::paper_scp_variant(),
        DvsConfig::paper_default(),
    )
}

fn batch(make: impl Fn() -> Adaptive + Send + Sync + 'static, options: ExecutorOptions) -> Summary {
    let job = Job::from_parts(
        "ablation",
        scenario(),
        options,
        REPS,
        9,
        move |_seed| Box::new(make()),
        |seed| Box::new(PoissonProcess::new(LAMBDA, StdRng::seed_from_u64(seed))),
    )
    .expect("valid ablation job");
    let summary = LocalRunner::default().run(&job).expect("ablation job runs");
    assert_eq!(summary.anomalies, 0);
    summary
}

fn bench_ablations(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablations");
    group.sample_size(10);

    group.bench_function("subdivision_on_a_d_s", |b| {
        b.iter(|| batch(|| Adaptive::dvs_scp(LAMBDA, 5), ExecutorOptions::default()))
    });
    group.bench_function("subdivision_off_a_d", |b| {
        b.iter(|| batch(|| Adaptive::adt_dvs(LAMBDA, 5), ExecutorOptions::default()))
    });

    group.bench_function("optimizer_paper_closed_form", |b| {
        b.iter(|| {
            batch(
                || Adaptive::dvs_scp(LAMBDA, 5).with_optimizer(OptimizeMethod::PaperClosedForm),
                ExecutorOptions::default(),
            )
        })
    });
    group.bench_function("optimizer_exact_recursion", |b| {
        b.iter(|| {
            batch(
                || Adaptive::dvs_scp(LAMBDA, 5).with_optimizer(OptimizeMethod::ExactRecursion),
                ExecutorOptions::default(),
            )
        })
    });

    group.bench_function("dvs_on", |b| {
        b.iter(|| batch(|| Adaptive::dvs_scp(LAMBDA, 5), ExecutorOptions::default()))
    });
    group.bench_function("dvs_off_fixed_fast", |b| {
        b.iter(|| batch(|| Adaptive::scp(LAMBDA, 5, 1), ExecutorOptions::default()))
    });

    group.bench_function("fault_model_analysis", |b| {
        b.iter(|| {
            batch(
                || Adaptive::dvs_scp(LAMBDA, 5),
                ExecutorOptions {
                    faults_during_overhead: false,
                    ..ExecutorOptions::default()
                },
            )
        })
    });
    group.bench_function("fault_model_physical", |b| {
        b.iter(|| batch(|| Adaptive::dvs_scp(LAMBDA, 5), ExecutorOptions::default()))
    });

    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
