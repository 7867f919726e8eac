//! End-to-end semantic checks of the paper's procedures across crates:
//! exact rollback targets, DVS decisions, abort behaviour and the
//! SCP-vs-CCP detection trade-off, all with deterministic fault schedules.

use eacp::core::policies::{Adaptive, KFaultTolerant, PoissonArrival, PolicyKind};
use eacp::energy::DvsConfig;
use eacp::faults::DeterministicFaults;
use eacp::sim::{
    CheckpointCosts, CheckpointKind, Directive, Executor, ExecutorOptions, Observer, PlanContext,
    Policy, RunOutcome, Scenario, TaskSpec, TraceEvent, TraceRecorder,
};

fn scp_scenario(n: f64, d: f64) -> Scenario {
    Scenario::new(
        TaskSpec::new(n, d),
        CheckpointCosts::paper_scp_variant(),
        DvsConfig::paper_default(),
    )
}

fn ccp_scenario(n: f64, d: f64) -> Scenario {
    Scenario::new(
        TaskSpec::new(n, d),
        CheckpointCosts::paper_ccp_variant(),
        DvsConfig::paper_default(),
    )
}

#[test]
fn scp_scheme_rolls_back_to_clean_scp_not_interval_start() {
    // Fixed-speed adaptive SCP scheme with a fault mid-interval: the trace
    // must show a rollback to an SCP position strictly inside the interval
    // (paper Fig. 1), not to position 0.
    let s = scp_scenario(600.0, 50_000.0);
    let mut p = Adaptive::scp(2.5e-3, 5, 0);
    let mut f = DeterministicFaults::new(vec![260.0]);
    let mut rec = TraceRecorder::new();
    let out = Executor::new(&s).run_observed(&mut p, &mut f, &mut rec);
    assert!(out.completed && out.rollbacks == 1);
    let rollback_pos = rec
        .events()
        .iter()
        .find_map(|e| match e {
            TraceEvent::Rollback { to_position, .. } => Some(*to_position),
            _ => None,
        })
        .expect("one rollback");
    assert!(
        rollback_pos > 0.0,
        "SCP scheme must not lose the whole interval"
    );
    // And the rollback target is an SCP position: some Store checkpoint
    // was recorded at exactly that position before the rollback.
    let stored_positions: Vec<f64> = rec
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Checkpoint {
                kind: CheckpointKind::Store,
                position,
                ..
            } => Some(*position),
            _ => None,
        })
        .collect();
    assert!(
        stored_positions
            .iter()
            .any(|p| (p - rollback_pos).abs() < 1e-9),
        "rollback target {rollback_pos} not among SCP positions {stored_positions:?}"
    );
}

#[test]
fn ccp_scheme_detects_early_but_rolls_back_to_interval_start() {
    let s = ccp_scenario(600.0, 50_000.0);
    let mut p = Adaptive::ccp(2.5e-3, 5, 0);
    let mut f = DeterministicFaults::new(vec![260.0]);
    let mut rec = TraceRecorder::new();
    let out = Executor::new(&s).run_observed(&mut p, &mut f, &mut rec);
    assert!(out.completed && out.rollbacks == 1);
    let (detect_time, rollback_pos) = rec
        .events()
        .iter()
        .find_map(|e| match e {
            TraceEvent::Rollback {
                from, to_position, ..
            } => Some((*from, *to_position)),
            _ => None,
        })
        .expect("one rollback");
    // Early detection: the mismatch fires at the first comparison after
    // t = 260, well before the interval would end.
    assert!(detect_time < 600.0, "CCP detection at {detect_time}");
    // But nothing inside the interval is stored (paper Fig. 5): back to a
    // CSCP boundary, which for the first interval is position 0.
    let cscp_positions: Vec<f64> = rec
        .events()
        .iter()
        .filter(|e| {
            matches!(
                e,
                TraceEvent::Checkpoint {
                    kind: CheckpointKind::CompareStore,
                    mismatch: false,
                    ..
                }
            )
        })
        .filter_map(|e| match e {
            TraceEvent::Checkpoint { position, to, .. } if *to <= detect_time => Some(*position),
            _ => None,
        })
        .collect();
    let last_commit = cscp_positions.iter().copied().fold(0.0, f64::max);
    assert!(
        (rollback_pos - last_commit).abs() < 1e-9,
        "CCP rollback to {rollback_pos}, last committed CSCP at {last_commit}"
    );
}

#[test]
fn dvs_upshifts_then_downshifts_with_slack() {
    // Tight start (t_est(f1) > Rd) forces f2; a fault replan later in the
    // task finds enough slack to return to f1 (paper Fig. 6 line 15).
    let s = scp_scenario(7_600.0, 10_000.0);
    let mut p = Adaptive::dvs_scp(1.4e-3, 5);
    let mut f = DeterministicFaults::new(vec![2_500.0]);
    let mut rec = TraceRecorder::new();
    let out = Executor::new(&s).run_observed(&mut p, &mut f, &mut rec);
    assert!(out.timely);
    let switches: Vec<(usize, usize)> = rec
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::SpeedChange { from, to, .. } => Some((*from, *to)),
            _ => None,
        })
        .collect();
    assert!(
        switches.contains(&(0, 1)),
        "must upshift at start: {switches:?}"
    );
    assert!(
        switches.contains(&(1, 0)),
        "must downshift after the fault replan: {switches:?}"
    );
}

#[test]
fn adaptive_aborts_exactly_when_rt_exceeds_rd() {
    // Feasible at f2 only by a hair: N/2 <= D. Make N/2 > D so line 6 of
    // the paper's procedure fires immediately.
    let s = scp_scenario(20_002.0, 10_000.0);
    let mut p = Adaptive::dvs_scp(1e-4, 5);
    let out = Executor::new(&s).run(&mut p, &mut DeterministicFaults::none());
    assert!(out.aborted);
    assert_eq!(out.segments, 0, "abort before any work");

    // One cycle less of work at the boundary: runs (and completes).
    let s = scp_scenario(19_000.0, 10_000.0);
    let mut p = Adaptive::dvs_scp(1e-4, 5);
    let out = Executor::new(&s).run(&mut p, &mut DeterministicFaults::none());
    assert!(!out.aborted && out.completed);
}

#[test]
fn repeated_faults_exhaust_budget_but_execution_continues() {
    // More faults than k: Rf saturates at 0 and the interval procedure
    // falls back to its Poisson/deadline branches; the run still finishes
    // if time permits.
    let s = scp_scenario(4_000.0, 30_000.0);
    let mut p = Adaptive::dvs_scp(1e-3, 2);
    let faults: Vec<f64> = (1..=6).map(|i| 500.0 * i as f64).collect();
    let out = Executor::new(&s).run(&mut p, &mut DeterministicFaults::new(faults));
    assert!(out.completed);
    assert_eq!(out.rollbacks, 6);
    assert_eq!(p.errors_seen(), 6);
    assert_eq!(p.remaining_fault_budget(), 0.0);
}

#[test]
fn scp_and_ccp_waste_profiles_differ_as_in_figures() {
    // Same fault instant, same subdivision geometry (one interval of 1000
    // split in m = 5): the SCP scheme pays (detection latency to the
    // interval-ending CSCP) but re-executes only from the last clean SCP;
    // the CCP scheme detects at the next comparison but re-executes from
    // the interval start. A late fault favours SCP, an early fault CCP.
    use eacp::sim::{Directive, PlanContext, Policy};
    struct Static {
        sub: f64,
        m: u32,
        seg: u32,
        kind: CheckpointKind,
    }
    impl Policy for Static {
        fn name(&self) -> &'static str {
            "static"
        }
        fn plan(&mut self, _ctx: &PlanContext<'_>) -> Directive {
            let kind = if (self.seg + 1).is_multiple_of(self.m) {
                CheckpointKind::CompareStore
            } else {
                self.kind
            };
            self.seg += 1;
            Directive::run(0, self.sub, kind)
        }
        fn on_compare(&mut self, ctx: &PlanContext<'_>, _k: CheckpointKind, mismatch: bool) {
            if mismatch {
                self.seg = (ctx.position_cycles / self.sub).round() as u32 % self.m;
            }
        }
    }
    let run = |kind: CheckpointKind, fault_at: f64| -> f64 {
        let s = Scenario::new(
            TaskSpec::new(1_000.0, 1e9),
            CheckpointCosts::new(2.0, 2.0, 0.0),
            DvsConfig::paper_default(),
        );
        let mut p = Static {
            sub: 200.0,
            m: 5,
            seg: 0,
            kind,
        };
        let mut f = DeterministicFaults::new(vec![fault_at]);
        let out = Executor::new(&s).run(&mut p, &mut f);
        assert!(out.completed);
        out.finish_time
    };
    // Late fault (segment 4 of 5): SCP's local rollback beats CCP restart.
    let scp_late = run(CheckpointKind::Store, 780.0);
    let ccp_late = run(CheckpointKind::Compare, 780.0);
    assert!(
        scp_late < ccp_late,
        "late fault: SCP {scp_late} vs CCP {ccp_late}"
    );
    // Early fault (segment 1 of 5): CCP's early detection wins.
    let scp_early = run(CheckpointKind::Store, 20.0);
    let ccp_early = run(CheckpointKind::Compare, 20.0);
    assert!(
        ccp_early < scp_early,
        "early fault: CCP {ccp_early} vs SCP {scp_early}"
    );
}

/// A policy that never publishes a commit window, so every segment goes
/// through `plan()`: the reference the window path must reproduce.
struct PlanOnly(PolicyKind);

impl Policy for PlanOnly {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn plan(&mut self, ctx: &PlanContext<'_>) -> Directive {
        self.0.plan(ctx)
    }
    fn on_compare(&mut self, ctx: &PlanContext<'_>, kind: CheckpointKind, mismatch: bool) {
        self.0.on_compare(ctx, kind, mismatch)
    }
}

/// Every shipped scheme, planning with fault rate `lambda`.
fn every_scheme(lambda: f64) -> Vec<PolicyKind> {
    vec![
        PolicyKind::Poisson(PoissonArrival::new(lambda, 0)),
        PolicyKind::KFaultTolerant(KFaultTolerant::new(5, 0)),
        PolicyKind::Adaptive(Adaptive::adt_dvs(lambda, 5)),
        PolicyKind::Adaptive(Adaptive::dvs_scp(lambda, 5)),
        PolicyKind::Adaptive(Adaptive::dvs_ccp(lambda, 5)),
        PolicyKind::Adaptive(Adaptive::scp(lambda, 5, 0)),
        PolicyKind::Adaptive(Adaptive::ccp(lambda, 5, 0)),
        PolicyKind::Adaptive(Adaptive::cscp(lambda, 5, 0)),
    ]
}

/// Poisson arrivals of rate `lambda` up to `horizon`, from a fixed
/// xorshift stream (no RNG crate: the stream only has to be reproducible).
fn poisson_arrivals(lambda: f64, seed: u64, horizon: f64) -> Vec<f64> {
    let mut arrivals = Vec::new();
    if lambda == 0.0 {
        return arrivals;
    }
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut t = 0.0;
    loop {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let u = ((state >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
        t += -u.ln() / lambda;
        if t > horizon {
            return arrivals;
        }
        arrivals.push(t);
    }
}

/// Start and end instants of every timed event, in trace order.
fn boundaries(events: &[TraceEvent]) -> Vec<f64> {
    events
        .iter()
        .flat_map(|e| match *e {
            TraceEvent::Segment { from, to, .. }
            | TraceEvent::Checkpoint { from, to, .. }
            | TraceEvent::Rollback { from, to, .. } => vec![from, to],
            _ => Vec::new(),
        })
        .collect()
}

/// Outcome fields with every float as its bit pattern: floats, counters,
/// flags and the anomaly.
type OutcomeBits = ([u64; 4], [u64; 7], [bool; 3], String);

fn outcome_bits(o: &RunOutcome) -> OutcomeBits {
    (
        [
            o.finish_time.to_bits(),
            o.energy.to_bits(),
            o.cycles_at_fastest.to_bits(),
            o.total_cycles.to_bits(),
        ],
        [
            o.faults.into(),
            o.rollbacks.into(),
            o.store_checkpoints.into(),
            o.compare_checkpoints.into(),
            o.compare_store_checkpoints.into(),
            o.segments.into(),
            o.speed_switches,
        ],
        [o.completed, o.timely, o.aborted],
        format!("{:?}", o.anomaly),
    )
}

/// Every observer callback in order: the [`TraceRecorder`] event stream
/// plus the energy samples and the deadline miss it does not keep. Floats
/// are rendered by `Debug`, which round-trips their bits.
#[derive(Default)]
struct Log {
    rec: TraceRecorder,
    lines: Vec<String>,
}

impl Observer for Log {
    fn on_event(&mut self, event: &TraceEvent) {
        self.lines.push(format!("{event:?}"));
        self.rec.on_event(event);
    }
    fn on_deadline_miss(&mut self, at: f64) {
        self.lines.push(format!("deadline miss at {at:?}"));
    }
    fn on_energy_sample(&mut self, at: f64, cumulative_energy: f64) {
        self.lines
            .push(format!("energy {cumulative_energy:?} at {at:?}"));
    }
}

/// Runs `policy` over `arrivals`, returning the outcome bits and the log.
fn logged(
    s: &Scenario,
    opts: ExecutorOptions,
    policy: &mut dyn Policy,
    arrivals: &[f64],
) -> (OutcomeBits, Log) {
    let mut log = Log::default();
    let mut faults = DeterministicFaults::new(arrivals.to_vec());
    let out = Executor::new(s)
        .with_options(opts)
        .run_observed(policy, &mut faults, &mut log);
    (outcome_bits(&out), log)
}

#[test]
fn commit_window_path_equals_plan_path() {
    // Each case runs a scheme twice over one fault stream: once as
    // shipped (commit windows taken wherever the executor's guards admit
    // them) and once through a shim that declines every window. Outcome
    // and observer log must agree bit for bit, with faults inside windows, on
    // segment and operation boundaries, during overheads and rollbacks.
    let mut cases = 0;
    let mut with_rollbacks = 0;
    for (ts, tcp, tr) in [
        (2.0, 20.0, 0.0),
        (20.0, 2.0, 0.0),
        (2.0, 20.0, 10.0),
        (20.0, 2.0, 10.0),
    ] {
        for util in [0.76, 0.95] {
            let s = Scenario::new(
                TaskSpec::from_utilization(util, 1.0, 10_000.0),
                CheckpointCosts::new(ts, tcp, tr),
                DvsConfig::paper_default(),
            );
            for lambda in [0.0, 1e-4, 1e-3, 5e-3] {
                for faults_during_overhead in [true, false] {
                    let opts = ExecutorOptions {
                        faults_during_overhead,
                        ..ExecutorOptions::default()
                    };
                    for (i, scheme) in every_scheme(lambda).into_iter().enumerate() {
                        let run = |windows: bool, arrivals: &[f64]| {
                            if windows {
                                logged(&s, opts, &mut scheme.clone(), arrivals)
                            } else {
                                logged(&s, opts, &mut PlanOnly(scheme.clone()), arrivals)
                            }
                        };
                        let mut streams: Vec<Vec<f64>> = (0..2)
                            .map(|seed| poisson_arrivals(lambda, seed * 8 + i as u64, 30_000.0))
                            .collect();
                        // Faults placed one at a time, each exactly on a
                        // boundary of the run the previous ones produced.
                        let mut on_boundaries: Vec<f64> = Vec::new();
                        for stride in [0usize, 3, 8, 5, 13, 2] {
                            let (_, log) = run(true, &on_boundaries);
                            let last = on_boundaries.last().copied().unwrap_or(-1.0);
                            let next = boundaries(log.rec.events())
                                .into_iter()
                                .filter(|&t| t > last)
                                .nth(stride);
                            match next {
                                Some(t) => on_boundaries.push(t),
                                None => break,
                            }
                        }
                        streams.push(on_boundaries);
                        for arrivals in &streams {
                            let (plan_out, plan_log) = run(false, arrivals);
                            let (window_out, window_log) = run(true, arrivals);
                            let what = format!(
                                "{} U={util} λ={lambda} costs=({ts},{tcp},{tr}) \
                                 overhead-faults={faults_during_overhead} arrivals={arrivals:?}",
                                scheme.name()
                            );
                            assert_eq!(window_out, plan_out, "outcome differs: {what}");
                            assert_eq!(window_log.lines, plan_log.lines, "log differs: {what}");
                            cases += 1;
                            with_rollbacks += usize::from(plan_out.1[1] > 0);
                        }
                    }
                }
            }
        }
    }
    assert_eq!(cases, 4 * 2 * 4 * 2 * 8 * 3);
    // The cases exercise detected faults, not only fault-free windows.
    assert!(with_rollbacks > cases / 4, "{with_rollbacks} of {cases}");
}
