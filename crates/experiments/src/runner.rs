//! Monte-Carlo driver for table cells.
//!
//! Since the `eacp-spec` redesign this module no longer hand-builds
//! scenarios and policies: every cell is first *described* as an
//! [`ExperimentSpec`] ([`cell_experiment_exec`]) and then executed through
//! [`eacp_exec::run`] (the `Job`/`Runner` path). The same spec,
//! serialized to JSON and fed to `eacp mc --spec`, reproduces any cell of
//! any table bit for bit.

use crate::paper::{paper_cell, PaperCell};
use crate::tables::{CellSpec, SchemeId, TableConfig, TableId};
use eacp_core::policies::SubCheckpointKind;
use eacp_sim::Summary;
use eacp_spec::{
    CostsSpec, DvsSpec, ExecSpec, ExperimentSpec, FaultSpec, McSpec, PolicySpec, ScenarioSpec,
    SpecError, SummaryReport, WorkSpec,
};

/// Result of one scheme at one operating point.
#[derive(Debug, Clone)]
pub struct SchemeResult {
    /// Which scheme.
    pub scheme: SchemeId,
    /// Display name ("Poisson", "k-f-t", "A_D", "A_D_S"/"A_D_C").
    pub name: String,
    /// Monte-Carlo aggregate.
    pub summary: Summary,
    /// The spec that produced `summary` (serialize it to reproduce the
    /// number outside this harness).
    pub spec: ExperimentSpec,
}

impl SchemeResult {
    /// The serializable mirror of [`Self::summary`].
    pub fn summary_report(&self) -> SummaryReport {
        SummaryReport::from_summary(&self.summary)
    }
}

/// All four schemes at one operating point, plus the paper's numbers.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The operating point.
    pub spec: CellSpec,
    /// Results in [`SchemeId::ALL`] column order.
    pub schemes: Vec<SchemeResult>,
    /// The paper's reported values for this cell, when available.
    pub paper: Option<PaperCell>,
}

impl CellResult {
    /// The result for one scheme.
    pub fn scheme(&self, id: SchemeId) -> &SchemeResult {
        self.schemes
            .iter()
            .find(|s| s.scheme == id)
            // audit:allow(panic): run_table iterates SchemeId::ALL, so every
            // id is present by construction.
            .expect("all schemes are always run")
    }
}

/// A fully regenerated table.
#[derive(Debug, Clone)]
pub struct TableResult {
    /// Which table.
    pub id: TableId,
    /// The configuration that produced it.
    pub config: TableConfig,
    /// Row results in configuration order.
    pub cells: Vec<CellResult>,
    /// Replications per scheme per cell.
    pub replications: u64,
}

/// The scenario description for one cell of a table.
pub fn cell_scenario_spec(config: &TableConfig, spec: &CellSpec) -> ScenarioSpec {
    ScenarioSpec {
        work: WorkSpec::Utilization {
            utilization: spec.utilization,
            speed: config.util_speed,
            deadline: config.deadline,
        },
        costs: CostsSpec::from_costs(&config.costs),
        dvs: DvsSpec::PaperDefault,
        processors: 2,
    }
}

/// The policy description for one scheme at one cell.
pub fn scheme_policy_spec(config: &TableConfig, spec: &CellSpec, scheme: SchemeId) -> PolicySpec {
    match scheme {
        SchemeId::Poisson => PolicySpec::Poisson {
            lambda: spec.lambda,
            speed: config.baseline_speed,
        },
        SchemeId::KFaultTolerant => PolicySpec::KFaultTolerant {
            k: spec.k,
            speed: config.baseline_speed,
        },
        SchemeId::AdtDvs => PolicySpec::AdtDvs {
            lambda: spec.lambda,
            k: spec.k,
            optimizer: Default::default(),
        },
        SchemeId::Proposed => match config.sub_kind {
            SubCheckpointKind::Store => PolicySpec::DvsScp {
                lambda: spec.lambda,
                k: spec.k,
                optimizer: Default::default(),
            },
            SubCheckpointKind::Compare => PolicySpec::DvsCcp {
                lambda: spec.lambda,
                k: spec.k,
                optimizer: Default::default(),
            },
        },
    }
}

/// The complete experiment description for one scheme at one cell — the
/// single source of truth [`run_cell`] executes, and the document
/// `eacp mc --spec` accepts. `executor` carries the engine semantics and
/// the execution-layer scheduling choice ([`eacp_spec::QueueSpec`]).
pub fn cell_experiment_exec(
    config: &TableConfig,
    spec: &CellSpec,
    scheme: SchemeId,
    replications: u64,
    seed: u64,
    executor: ExecSpec,
) -> ExperimentSpec {
    let policy = scheme_policy_spec(config, spec, scheme);
    ExperimentSpec {
        name: format!(
            "table{}{}-u{}-l{}-k{}-{}",
            config.id.number(),
            spec.part,
            spec.utilization,
            spec.lambda,
            spec.k,
            policy.tag()
        ),
        scenario: cell_scenario_spec(config, spec),
        faults: FaultSpec::Poisson {
            lambda: spec.lambda,
        },
        policy,
        mc: McSpec {
            replications,
            seed,
            threads: 0,
        },
        executor,
    }
}

/// Runs all four schemes at one operating point.
///
/// `executor` selects executor semantics — notably
/// [`ExecSpec::faults_during_overhead`], which distinguishes the physical
/// fault model (faults can strike during checkpoint operations; the
/// default) from the analysis-faithful model the paper's renewal
/// equations assume ([`ExecSpec::paper`]: faults only during useful
/// computation). With a [`eacp_spec::QueueSpec`] present the cell's
/// replications are scheduled through the work-queue runner
/// (`eacp_exec::run` dispatches on it) — summaries are bit-identical
/// either way.
///
/// # Errors
///
/// Returns the [`SpecError`] of a cell spec that does not validate — a
/// zero `replications`, or an `executor` the engine rejects.
pub fn run_cell(
    config: &TableConfig,
    spec: &CellSpec,
    replications: u64,
    seed: u64,
    executor: ExecSpec,
) -> Result<CellResult, SpecError> {
    let schemes = SchemeId::ALL
        .iter()
        .map(|&scheme| {
            let experiment =
                cell_experiment_exec(config, spec, scheme, replications, seed, executor.clone());
            let (summary, report) = eacp_exec::run(&experiment)?;
            debug_assert_eq!(summary.anomalies, 0, "policy anomaly in {scheme:?}");
            Ok(SchemeResult {
                scheme,
                name: report.policy_name,
                summary,
                spec: experiment,
            })
        })
        .collect::<Result<_, SpecError>>()?;
    Ok(CellResult {
        spec: *spec,
        schemes,
        paper: paper_cell(config.id, spec.part, spec.utilization, spec.lambda),
    })
}

/// Regenerates one full table at the given replication count (the paper
/// uses 10,000; lower counts are useful for quick looks and CI) under
/// `executor` (see [`run_cell`]).
///
/// # Errors
///
/// Returns the first cell's [`SpecError`] (see [`run_cell`]).
pub fn run_table(
    id: TableId,
    replications: u64,
    seed: u64,
    executor: ExecSpec,
) -> Result<TableResult, SpecError> {
    let config = crate::tables::table_config(id);
    let cells = config
        .cells
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            run_cell(
                &config,
                spec,
                replications,
                seed.wrapping_add(i as u64),
                executor.clone(),
            )
        })
        .collect::<Result<_, SpecError>>()?;
    Ok(TableResult {
        id,
        config,
        cells,
        replications,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::{table_config, TablePart};
    use eacp_sim::Policy;

    #[test]
    fn cell_scenario_scales_work_with_util_speed() {
        let t1 = table_config(TableId::Table1);
        let t2 = table_config(TableId::Table2);
        let spec = t1.cells[0];
        let scenario = |cfg, cell| cell_scenario_spec(cfg, cell).build().unwrap();
        assert_eq!(scenario(&t1, &spec).task.work_cycles, 7600.0);
        assert_eq!(scenario(&t2, &t2.cells[0]).task.work_cycles, 15_200.0);
    }

    #[test]
    fn policies_have_expected_names() {
        let cfg = table_config(TableId::Table3);
        let spec = cfg.cells[0];
        let make_policy = |scheme| scheme_policy_spec(&cfg, &spec, scheme).build().unwrap();
        assert_eq!(make_policy(SchemeId::Poisson).name(), "Poisson");
        assert_eq!(make_policy(SchemeId::KFaultTolerant).name(), "k-f-t");
        assert_eq!(make_policy(SchemeId::AdtDvs).name(), "A_D");
        assert_eq!(make_policy(SchemeId::Proposed).name(), "A_D_C");
    }

    #[test]
    fn smoke_cell_runs_all_schemes() {
        let cfg = table_config(TableId::Table1);
        let spec = cfg.cells[0]; // U = 0.76, λ = 1.4e-3, k = 5
        let cell = run_cell(&cfg, &spec, 60, 1, ExecSpec::default()).unwrap();
        assert_eq!(cell.schemes.len(), 4);
        assert!(cell.paper.is_some());
        for s in &cell.schemes {
            assert_eq!(s.summary.replications, 60);
            assert_eq!(s.summary.anomalies, 0, "{}", s.name);
        }
        // Coarse shape even at 60 reps: adaptive schemes nearly always
        // finish, baselines rarely do at this operating point.
        let p_prop = cell.scheme(SchemeId::Proposed).summary.p_timely();
        let p_poisson = cell.scheme(SchemeId::Poisson).summary.p_timely();
        assert!(p_prop > 0.9, "P(A_D_S) = {p_prop}");
        assert!(p_poisson < 0.5, "P(Poisson) = {p_poisson}");
    }

    #[test]
    fn impossible_utilization_gives_zero_p_and_nan_e() {
        // U = 1.00, k = 1 (Table 1(b)): the baselines can never finish by D.
        let cfg = table_config(TableId::Table1);
        let spec = *cfg
            .cells
            .iter()
            .find(|c| c.part == TablePart::B && (c.utilization - 1.0).abs() < 1e-9)
            .unwrap();
        let cell = run_cell(&cfg, &spec, 40, 2, ExecSpec::default()).unwrap();
        let poisson = &cell.scheme(SchemeId::Poisson).summary;
        assert_eq!(poisson.p_timely(), 0.0);
        assert!(poisson.mean_energy_timely().is_nan());
    }

    #[test]
    fn cell_experiment_round_trips_and_reproduces_the_cell() {
        // The acceptance contract of the spec redesign: the embedded spec,
        // serialized to JSON and re-run elsewhere, gives the same Summary.
        let cfg = table_config(TableId::Table1);
        let spec = cfg.cells[0];
        let cell = run_cell(&cfg, &spec, 50, 3, ExecSpec::default()).unwrap();
        for s in &cell.schemes {
            let json = s.spec.to_json_string();
            let reread = ExperimentSpec::from_json_str(&json).unwrap();
            assert_eq!(reread, s.spec);
            let (summary, _) = eacp_exec::run(&reread).unwrap();
            assert_eq!(summary, s.summary, "scheme {}", s.name);
        }
    }

    #[test]
    fn queued_cell_is_bit_identical_to_the_plain_cell() {
        let cfg = table_config(TableId::Table1);
        let spec = cfg.cells[0];
        let plain = run_cell(&cfg, &spec, 40, 6, ExecSpec::default()).unwrap();
        let queued = run_cell(
            &cfg,
            &spec,
            40,
            6,
            ExecSpec::default().with_queue(eacp_spec::QueueSpec {
                workers: 3,
                ..Default::default()
            }),
        )
        .unwrap();
        for (a, b) in plain.schemes.iter().zip(&queued.schemes) {
            assert_eq!(a.summary, b.summary, "scheme {}", a.name);
            assert!(b.spec.executor.queue.is_some());
        }
    }

    #[test]
    fn scheme_result_report_matches_summary() {
        let cfg = table_config(TableId::Table1);
        let cell = run_cell(&cfg, &cfg.cells[0], 30, 1, ExecSpec::default()).unwrap();
        let s = cell.scheme(SchemeId::Proposed);
        let report = s.summary_report();
        assert_eq!(report.replications, 30);
        assert_eq!(report.p_timely, s.summary.p_timely());
    }
}
