//! Property-based tests of the EDF executive's scheduling invariants.

use eacp_core::policies::Adaptive;
use eacp_energy::DvsConfig;
use eacp_faults::PoissonProcess;
use eacp_rtsched::executive::{run_executive_stream, ExecutiveParams, ExecutiveReport};
use eacp_rtsched::{PeriodicTask, TaskSet};
use eacp_sim::{CheckpointCosts, ExecutorOptions, NoopObserver};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `hyperperiods` of `set` under a global Poisson stream seeded with
/// `seed`, every job running a fresh `Adaptive::dvs_scp(lambda, 2)`.
fn run_poisson(set: &TaskSet, lambda: f64, hyperperiods: u32, seed: u64) -> ExecutiveReport {
    let params = ExecutiveParams {
        set,
        costs: CheckpointCosts::paper_scp_variant(),
        dvs: DvsConfig::paper_default(),
        hyperperiods,
        options: ExecutorOptions::default(),
    };
    let mut faults = PoissonProcess::new(lambda, StdRng::seed_from_u64(seed));
    run_executive_stream(
        &params,
        &mut faults,
        |_| Box::new(Adaptive::dvs_scp(lambda, 2)),
        &mut NoopObserver,
    )
}

/// Strategy: 1–3 periodic tasks with light-to-moderate utilization.
fn taskset_strategy() -> impl Strategy<Value = TaskSet> {
    proptest::collection::vec(
        (50.0f64..800.0, 1u64..=4).prop_map(|(wcet, scale)| {
            let period = 4_000 * scale;
            PeriodicTask::new(format!("t{scale}-{wcet:.0}"), wcet, period, period)
        }),
        1..4,
    )
    .prop_map(TaskSet::new)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Executive invariants: one record per release, execution windows
    /// never overlap, every job starts at or after its release, records
    /// come out sorted, and the miss ratio is a probability.
    #[test]
    fn executive_scheduling_invariants(
        set in taskset_strategy(),
        lambda in 0.0f64..1e-3,
        seed in 0u64..500,
    ) {
        let report = run_poisson(&set, lambda, 2, seed);

        // One record per release over the horizon.
        let horizon = set.hyperperiod() * 2;
        let expected: usize = set
            .tasks()
            .iter()
            .map(|t| (horizon / t.period) as usize)
            .sum();
        prop_assert_eq!(report.jobs.len(), expected);

        // Records sorted by (release, task); starts respect releases.
        for w in report.jobs.windows(2) {
            prop_assert!(
                w[0].release < w[1].release
                    || (w[0].release == w[1].release && w[0].task <= w[1].task)
            );
        }
        for j in &report.jobs {
            prop_assert!(j.started >= j.release - 1e-9);
            prop_assert!(j.finished >= j.started - 1e-9);
        }

        // Non-preemptive single-pair executive: execution windows of jobs
        // that actually ran must not overlap.
        let mut windows: Vec<(f64, f64)> = report
            .jobs
            .iter()
            .filter(|j| j.finished > j.started)
            .map(|j| (j.started, j.finished))
            .collect();
        windows.sort_by(|a, b| a.0.total_cmp(&b.0));
        for w in windows.windows(2) {
            prop_assert!(
                w[0].1 <= w[1].0 + 1e-9,
                "overlap: {:?} vs {:?}",
                w[0],
                w[1]
            );
        }

        // Aggregates are consistent.
        prop_assert!((0.0..=1.0).contains(&report.miss_ratio()));
        let energy_sum: f64 = report.jobs.iter().map(|j| j.energy).sum();
        prop_assert!((report.total_energy - energy_sum).abs() < 1e-6);
        prop_assert_eq!(
            report.deadline_misses,
            report.jobs.iter().filter(|j| !j.timely).count()
        );
    }

    /// Fault-free light task sets never miss, and energy scales with the
    /// number of simulated hyperperiods.
    #[test]
    fn fault_free_light_sets_never_miss(seed in 0u64..100) {
        let set = TaskSet::new(vec![
            PeriodicTask::new("a", 400.0, 4_000, 4_000),
            PeriodicTask::new("b", 900.0, 8_000, 8_000),
        ]);
        let run = |hp: u32| run_poisson(&set, 0.0, hp, seed);
        let one = run(1);
        let three = run(3);
        prop_assert_eq!(one.deadline_misses, 0);
        prop_assert_eq!(three.deadline_misses, 0);
        prop_assert!((three.total_energy - 3.0 * one.total_energy).abs() < 1e-6);
    }
}
