//! Conformance suite for the spec-driven EDF executive: determinism
//! (same spec + seed ⇒ byte-identical report), consistency with the
//! single-job Monte-Carlo path, and invariance of the aggregates.

use eacp_exec::{
    run_executive, ExecutiveJob, Job, LocalRunner, QueueRunner, Replicate, Runner, Workload,
};
use eacp_rtsched::executive::JobRecord;
use eacp_sim::{replication_seed, NoopObserver};
use eacp_spec::{
    CostsSpec, DvsSpec, ExecSpec, ExecutiveMcSpec, ExecutiveSpec, ExecutiveSweepSpec,
    ExperimentSpec, FaultSpec, McSpec, PolicyAssignment, PolicySpec, ScenarioSpec, TaskSetSpec,
    WorkSpec,
};
use eacp_spec::{FromJson, Json, ToJson};

fn duo_spec() -> ExecutiveSpec {
    let lambda = 8e-4;
    let mut spec = ExecutiveSpec::new(
        "conformance-duo",
        TaskSetSpec::implicit([("sensor", 600.0, 4_000), ("control", 1_300.0, 8_000)]),
    );
    spec.faults = FaultSpec::Poisson { lambda };
    spec.policy = PolicyAssignment::Shared(PolicySpec::from_tag("a_d_s", lambda, 2, 0).unwrap());
    spec.hyperperiods = 3;
    spec.seed = 99;
    spec
}

/// Same spec + seed ⇒ byte-identical `ExecutiveRunReport` JSON, including
/// through a serialize/parse cycle of the spec itself.
#[test]
fn executive_report_is_deterministic() {
    let spec = duo_spec();
    let (_, first) = run_executive(&spec).unwrap();
    let (_, second) = run_executive(&spec).unwrap();
    assert_eq!(first.to_json_string(), second.to_json_string());

    // The document round-trip drives the identical run.
    let reparsed = ExecutiveSpec::from_json_str(&spec.to_json_string()).unwrap();
    let (_, third) = run_executive(&reparsed).unwrap();
    assert_eq!(first.to_json_string(), third.to_json_string());

    // A different seed changes the fault stream (and, with λ > 0 over a
    // long horizon, almost surely the report).
    let mut reseeded = spec.clone();
    reseeded.seed = 100;
    let (_, fourth) = run_executive(&reseeded).unwrap();
    assert_ne!(first.to_json_string(), fourth.to_json_string());
}

/// A single-task executive over one hyperperiod is the same computation
/// as one replication of the equivalent single-job Monte-Carlo
/// experiment: same scenario, same policy, same fault stream.
#[test]
fn single_task_executive_matches_single_job_run() {
    for lambda in [0.0, 1.4e-3, 4e-3] {
        let wcet = 5_200.0;
        let deadline = 10_000u64;
        let mc_seed = 77;

        let experiment = ExperimentSpec {
            name: "single-job".into(),
            scenario: ScenarioSpec {
                work: WorkSpec::Cycles {
                    work_cycles: wcet,
                    deadline: deadline as f64,
                },
                costs: CostsSpec::PaperScp,
                dvs: DvsSpec::PaperDefault,
                processors: 2,
            },
            faults: FaultSpec::Poisson { lambda },
            policy: PolicySpec::from_tag("a_d_s", lambda, 5, 0).unwrap(),
            mc: McSpec {
                replications: 1,
                seed: mc_seed,
                threads: 1,
            },
            // The executive runs jobs under the physical default
            // semantics; the experiment must match.
            executor: ExecSpec::default(),
        };
        let job = Job::from_spec(&experiment).unwrap();
        let out = job.run_replication(0, &mut NoopObserver);

        let mut executive = ExecutiveSpec::new(
            "single-task",
            TaskSetSpec::implicit([("solo", wcet, deadline)]),
        );
        executive.faults = FaultSpec::Poisson { lambda };
        executive.policy = PolicyAssignment::Shared(experiment.policy);
        executive.hyperperiods = 1;
        // The Monte-Carlo path seeds replication i's fault stream with
        // replication_seed(base, i); hand the executive replication 0's
        // stream so both consume identical fault arrivals.
        executive.seed = replication_seed(mc_seed, 0);

        let (raw, report) = run_executive(&executive).unwrap();
        assert_eq!(raw.jobs.len(), 1, "λ={lambda}");
        let j = &raw.jobs[0];
        assert_eq!(j.timely, out.timely, "λ={lambda}");
        assert_eq!(j.faults, out.faults, "λ={lambda}");
        assert_eq!(j.rollbacks, out.rollbacks, "λ={lambda}");
        assert_eq!(j.store_checkpoints, out.store_checkpoints, "λ={lambda}");
        assert_eq!(j.compare_checkpoints, out.compare_checkpoints, "λ={lambda}");
        assert_eq!(
            j.compare_store_checkpoints, out.compare_store_checkpoints,
            "λ={lambda}"
        );
        assert_eq!(j.energy, out.energy, "λ={lambda}");
        assert_eq!(j.finished - j.started, out.finish_time, "λ={lambda}");
        assert_eq!(report.summary.total_energy, out.energy, "λ={lambda}");
        assert_eq!(
            report.summary.deadline_misses,
            u64::from(!out.timely),
            "λ={lambda}"
        );
    }
}

/// The serializable aggregates are a pure fold of the raw per-job
/// records — totals match, per-task rows sum to the summary.
#[test]
fn aggregates_are_consistent_with_raw_records() {
    let (raw, report) = run_executive(&duo_spec()).unwrap();
    assert_eq!(report.summary.jobs as usize, raw.jobs.len());
    assert_eq!(report.summary.deadline_misses as usize, raw.deadline_misses);
    let energy: f64 = raw.jobs.iter().map(|j| j.energy).sum();
    assert!((report.summary.total_energy - energy).abs() < 1e-9);
    let faults: u64 = raw.jobs.iter().map(|j| u64::from(j.faults)).sum();
    assert_eq!(report.summary.faults, faults);
    let per_task_jobs: u64 = report.tasks.iter().map(|t| t.jobs).sum();
    assert_eq!(per_task_jobs, report.summary.jobs);
    let per_task_cp: u64 = report.tasks.iter().map(|t| t.checkpoints.total()).sum();
    assert_eq!(per_task_cp, report.summary.checkpoints.total());
    // Worst response per task really is the max over that task's jobs.
    for (idx, t) in report.tasks.iter().enumerate() {
        let worst = raw
            .jobs_of(idx)
            .map(|j| j.finished - j.release)
            .fold(0.0f64, f64::max);
        assert_eq!(t.worst_response, worst);
    }
}

/// The executive Monte-Carlo reduction is runner-invariant: every thread
/// count, every worker count and any retry budget produce a summary that
/// serializes byte-identically to the single-thread reference — the
/// property the sharded sweeps, the queue path and the result store's
/// cache hits all rest on.
#[test]
fn executive_summary_is_byte_identical_across_threads_and_workers() {
    let mut spec = duo_spec();
    spec.mc = Some(ExecutiveMcSpec {
        replications: 24,
        threads: 1,
        queue: None,
    });
    let job = ExecutiveJob::from_spec(&spec).unwrap();
    let reference = LocalRunner::new(1)
        .run_executive(&job)
        .unwrap()
        .to_json()
        .pretty();
    for threads in [2usize, 4, 8] {
        let summary = LocalRunner::new(threads).run_executive(&job).unwrap();
        assert_eq!(summary.to_json().pretty(), reference, "threads = {threads}");
    }
    for workers in [1usize, 3, 16] {
        let summary = QueueRunner::new(workers).run_executive(&job).unwrap();
        assert_eq!(summary.to_json().pretty(), reference, "workers = {workers}");
    }
}

/// Per-task assignments really drive different policies per task.
#[test]
fn per_task_policies_are_applied_per_task() {
    let mut spec = duo_spec();
    spec.policy = PolicyAssignment::PerTask(vec![
        PolicySpec::from_tag("a_d_s", 8e-4, 2, 0).unwrap(),
        PolicySpec::from_tag("kft", 8e-4, 3, 0).unwrap(),
    ]);
    let (_, report) = run_executive(&spec).unwrap();
    assert_eq!(
        report.policy_names,
        vec!["A_D_S".to_owned(), "k-f-t".into()]
    );

    // The shared-assignment run differs (k-f-t schedules differently).
    let (_, shared) = run_executive(&duo_spec()).unwrap();
    assert_ne!(
        report.tasks[1].checkpoints, shared.tasks[1].checkpoints,
        "k-f-t and A_D_S should place different checkpoints on the control task"
    );
}

/// Bit-level equality of two job logs: `JobRecord`'s `PartialEq` compares
/// floats with `==`, which would accept `0.0` for `-0.0`.
fn assert_jobs_bit_identical(pooled: &[JobRecord], fresh: &[JobRecord], what: &str) {
    assert_eq!(pooled, fresh, "{what}");
    for (a, b) in pooled.iter().zip(fresh) {
        for (x, y) in [
            (a.release, b.release),
            (a.absolute_deadline, b.absolute_deadline),
            (a.started, b.started),
            (a.finished, b.finished),
            (a.energy, b.energy),
        ] {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: {a:?} vs {b:?}");
        }
    }
}

/// Runs `horizons` seeded horizons of `spec` through one pooled replicator
/// (one fault-free memo across all of them, as a runner block keeps it)
/// and checks every horizon's job log against the memo-free observed path
/// with freshly boxed policies. Returns the replicator's memo (hits,
/// misses) and the number of jobs that saw a fault.
fn pooled_matches_fresh(spec: &ExecutiveSpec, horizons: u64) -> ((u64, u64), u64) {
    let job = ExecutiveJob::from_spec(spec).unwrap();
    let mut rep = job.replicator();
    let mut acc = job.empty_acc();
    let mut faulted = 0u64;
    for h in 0..horizons {
        rep.run_one(h, &mut acc);
        let mut one = spec.clone();
        one.seed = replication_seed(spec.seed, h);
        one.mc = None;
        let (fresh, _) = run_executive(&one).unwrap();
        assert_jobs_bit_identical(rep.jobs(), &fresh.jobs, &format!("{} h{h}", spec.name));
        faulted += fresh.jobs.iter().filter(|j| j.faults > 0).count() as u64;
    }
    (rep.memo_stats(), faulted)
}

/// The fault-free job memo never changes a record: across the avionics
/// grid's λ × hyperperiod axis, every pooled horizon (memo on) equals the
/// observed path (memo off, fresh boxed policies) bit for bit, and every
/// branch — memo hit, memo miss, faulted job — runs on every λ.
#[test]
fn fault_free_memo_is_bit_identical_to_fresh_policies() {
    let sweep = ExecutiveSweepSpec::from_json(
        &Json::parse(include_str!("../../../specs/avionics-trio-sweep.json")).unwrap(),
    )
    .unwrap();
    let points = sweep.expand().unwrap();
    assert_eq!(
        points.len(),
        6,
        "λ {{2e-4, 5e-4, 1e-3}} × hyperperiods {{1, 2}}"
    );
    for spec in &points {
        let ((hits, misses), faulted) = pooled_matches_fresh(spec, 64);
        assert!(hits > 0, "{}: no memo hits", spec.name);
        assert!(misses > 0, "{}: no memo misses", spec.name);
        assert!(faulted > 0, "{}: no faulted job", spec.name);
    }
}

/// The memo's exactness rests on every spec-built policy being
/// deterministic and fully reset between jobs: check it for every scheme
/// under every fault-process family.
#[test]
fn fault_free_memo_holds_for_every_scheme_and_fault_process() {
    let lambda = 1.4e-3;
    let faults = [
        FaultSpec::Poisson { lambda },
        FaultSpec::Weibull {
            shape: 0.7,
            scale: 700.0,
        },
        FaultSpec::Burst {
            quiet_rate: 1e-4,
            burst_rate: 2e-2,
            mean_quiet_dwell: 5_000.0,
            mean_burst_dwell: 500.0,
        },
        FaultSpec::Phased {
            phases: vec![(4_000.0, 5e-4), (1_000.0, 5e-3)],
            repeat: true,
        },
    ];
    for tag in PolicySpec::TAGS {
        for fault in &faults {
            let mut spec = ExecutiveSpec::new(
                format!("memo-{tag}"),
                TaskSetSpec::implicit([
                    ("a", 900.0, 4_000),
                    ("b", 2_100.0, 8_000),
                    ("c", 700.0, 2_000),
                ]),
            );
            spec.faults = fault.clone();
            spec.policy =
                PolicyAssignment::Shared(PolicySpec::from_tag(tag, lambda, 3, 0).unwrap());
            spec.hyperperiods = 2;
            spec.seed = 31;
            let ((hits, _), faulted) = pooled_matches_fresh(&spec, 32);
            assert!(hits > 0 && faulted > 0, "{tag} × {fault:?}");
        }
    }
}

/// Both halves of the memo key matter. In a tight set, the second job of
/// a busy period starts later whenever the first one faults, and with less
/// slack it runs differently even when it sees no fault itself. With
/// constrained deadlines, two tasks of different WCET meet the same
/// relative deadline whenever one is released alone. Serving either from
/// the other's run would change its record.
#[test]
fn fault_free_memo_keys_on_task_and_relative_deadline() {
    let lambda = 1e-3;
    let tight = TaskSetSpec::implicit([("first", 900.0, 2_500), ("second", 900.0, 2_500)]);
    let mut constrained = TaskSetSpec::implicit([("slow", 900.0, 3_000), ("fast", 1_300.0, 2_000)]);
    constrained.tasks[0].deadline = 2_000;
    for (name, tasks) in [
        ("memo-tight-duo", tight),
        ("memo-shared-deadline", constrained),
    ] {
        let mut spec = ExecutiveSpec::new(name, tasks);
        spec.faults = FaultSpec::Poisson { lambda };
        spec.policy =
            PolicyAssignment::Shared(PolicySpec::from_tag("a_d_s", lambda, 2, 0).unwrap());
        spec.hyperperiods = 4;
        spec.seed = 5;
        let ((hits, misses), faulted) = pooled_matches_fresh(&spec, 64);
        assert!(hits > 0 && misses > 0 && faulted > 0, "{name}");
    }
}

/// The memo's reuse boundary is `first arrival >= memoized finish`: an
/// arrival exactly at the finish is never consumed by the engine (it
/// consumes arrivals strictly before an interval's end) nor carried to the
/// next job (only arrivals strictly after the finish are), so the job is
/// served from the memo. One ulp earlier the job must run and fault.
#[test]
fn memo_boundary_is_an_arrival_exactly_at_the_memoized_finish() {
    let mut spec = eacp_spec::executive_preset("avionics-trio").expect("avionics-trio preset");
    spec.faults = FaultSpec::Deterministic { times: Vec::new() };
    spec.mc = None;
    let (clean, _) = run_executive(&spec).unwrap();
    // The first dispatched job: released at 0, started at 0.
    let finish = clean
        .jobs
        .iter()
        .find(|j| j.started == 0.0)
        .expect("a job starts at t = 0")
        .finished;
    // The fixed schedule replays every horizon: horizon 0 fills the memo,
    // horizon 1 probes it with the same arrival.
    spec.mc = Some(ExecutiveMcSpec {
        replications: 2,
        threads: 1,
        queue: None,
    });
    let ((clean_hits, _), clean_faulted) = pooled_matches_fresh(&spec, 2);
    assert!(clean_hits > 0 && clean_faulted == 0);

    spec.faults = FaultSpec::Deterministic {
        times: vec![finish],
    };
    let ((hits, _), faulted) = pooled_matches_fresh(&spec, 2);
    assert_eq!((hits, faulted), (clean_hits, 0), "arrival at the finish");

    spec.faults = FaultSpec::Deterministic {
        times: vec![f64::from_bits(finish.to_bits() - 1)],
    };
    let ((hits, _), faulted) = pooled_matches_fresh(&spec, 2);
    assert_eq!(faulted, 2, "the struck job faults in both horizons");
    assert!(hits < clean_hits, "one ulp before the finish: {hits} hits");
}
