//! The executive point kind of the sweep pipeline: [`ExecutiveSpec`]
//! implements [`SweepPoint`], so executive grids
//! ([`eacp_spec::ExecutiveSweepSpec`]) run, shard, merge, cover and cache
//! through the same generic functions as single-task grids.
//!
//! What stays here is what is executive-specific: the
//! [`ExecutiveMcReport`] document with its codec, the per-point unit of
//! work [`run_executive_point`], and the CSV renderer with its
//! distribution columns.

use crate::csv::cell;
use crate::executive_mc::{ExecutiveJob, ExecutiveSummary};
use crate::runner::Runner;
use crate::shard::SweepPoint;
use eacp_spec::{ExecutiveSpec, FromJson, Json, SpecError, ToJson};
use std::path::PathBuf;

/// One executive Monte-Carlo result: the spec that produced it, the
/// resolved per-task policy names, and the exact mergeable summary.
///
/// The embedded [`ExecutiveSummary`] serializes losslessly (raw
/// accumulator state), so a loaded report compares equal to — and
/// re-serializes byte-identical with — its recomputation.
#[derive(Debug, Clone)]
pub struct ExecutiveMcReport {
    /// The validated spec the run was built from (provenance).
    pub spec: ExecutiveSpec,
    /// Resolved policy names, one per task.
    pub policy_names: Vec<String>,
    /// The exact Monte-Carlo aggregate.
    pub summary: ExecutiveSummary,
    /// Where this report was read from: a store entry or a report
    /// document (`None` when freshly computed). Never serialized.
    pub source: Option<PathBuf>,
}

// Provenance is where the report came from, not part of the result, so a
// loaded report compares equal to its recomputation.
impl PartialEq for ExecutiveMcReport {
    fn eq(&self, other: &Self) -> bool {
        self.spec == other.spec
            && self.policy_names == other.policy_names
            && self.summary == other.summary
    }
}

impl ToJson for ExecutiveMcReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("spec", self.spec.to_json()),
            (
                "policy_names",
                Json::Array(
                    self.policy_names
                        .iter()
                        .map(|n| Json::from(n.as_str()))
                        .collect(),
                ),
            ),
            ("summary", self.summary.to_json()),
        ])
    }
}

impl FromJson for ExecutiveMcReport {
    fn from_json(json: &Json) -> Result<Self, SpecError> {
        Ok(Self {
            spec: ExecutiveSpec::from_json(json.req("spec")?)?,
            policy_names: json
                .req("policy_names")?
                .as_array()?
                .iter()
                .map(|n| Ok(n.as_str()?.to_owned()))
                .collect::<Result<_, SpecError>>()?,
            summary: ExecutiveSummary::from_json(json.req("summary")?)?,
            source: None,
        })
    }
}

/// Runs one executive spec on a [`Runner`], wrapping the summary as an
/// [`ExecutiveMcReport`] — the per-cell unit of work the sweep executors
/// loop over.
pub fn run_executive_point(
    runner: &dyn Runner,
    spec: &ExecutiveSpec,
) -> Result<ExecutiveMcReport, SpecError> {
    let job = ExecutiveJob::from_spec(spec)?;
    let summary = runner.run_executive(&job)?;
    Ok(ExecutiveMcReport {
        spec: spec.clone(),
        policy_names: job.policy_names(),
        summary,
        source: None,
    })
}

/// The executive point: `mc.replications` seeded hyperperiod horizons
/// reduced into an [`ExecutiveSummary`]. Executive horizons have no
/// closed-form tier, so `analytic` is ignored.
impl SweepPoint for ExecutiveSpec {
    type Report = ExecutiveMcReport;
    type Acc = ExecutiveSummary;
    const DOCUMENT: &'static str = "executive sweep report";

    fn runner(&self) -> Result<Box<dyn Runner>, SpecError> {
        let mc = self.mc_or_default();
        crate::runner_for(mc.queue.as_ref(), mc.threads)
    }

    fn compute(
        &self,
        runner: &dyn Runner,
        _analytic: bool,
    ) -> Result<(ExecutiveSummary, ExecutiveMcReport), SpecError> {
        let report = run_executive_point(runner, self)?;
        Ok((report.summary.clone(), report))
    }

    fn report_spec(report: &ExecutiveMcReport) -> &Self {
        &report.spec
    }

    fn report_source(report: &mut ExecutiveMcReport) -> &mut Option<PathBuf> {
        &mut report.source
    }
}

/// The executive CSV header row (no trailing newline): per-point counters
/// plus the distribution columns (mean / standard deviation / min / max of
/// the per-horizon miss ratio and energy).
pub const EXECUTIVE_CSV_HEADER: &str = "index,experiment,policies,horizons,jobs,\
deadline_misses,faults,rollbacks,checkpoints,total_energy,\
miss_ratio_mean,miss_ratio_sd,miss_ratio_min,miss_ratio_max,\
energy_mean,energy_sd,energy_min,energy_max";

fn distribution_cells(s: &eacp_numerics::OnlineStats, precision: usize) -> String {
    let (count, _, _, min, max) = s.raw_parts();
    let (min, max) = if count == 0 {
        (f64::NAN, f64::NAN)
    } else {
        (min, max)
    };
    format!(
        "{},{},{},{}",
        cell(s.mean(), precision),
        cell(s.population_variance().sqrt(), precision),
        cell(min, precision),
        cell(max, precision),
    )
}

/// Renders executive reports as a CSV matrix, one row per report: grid
/// points (indexed, ascending) and standalone reports (no grid index).
pub fn render_executive_csv(rows: &[(Option<usize>, ExecutiveMcReport)]) -> String {
    let mut out = String::from(EXECUTIVE_CSV_HEADER);
    out.push('\n');
    for (index, report) in rows {
        let s = &report.summary;
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{}\n",
            index.map_or_else(String::new, |i| i.to_string()),
            report.spec.name,
            report.policy_names.join("+"),
            s.horizons,
            s.jobs,
            s.deadline_misses,
            s.faults,
            s.rollbacks,
            s.checkpoints.total(),
            cell(s.total_energy, 1),
            distribution_cells(&s.miss_ratio, 4),
            distribution_cells(&s.energy, 1),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::tests::{
        assert_json_round_trip, assert_merge_reassembles, assert_shards_tile, run,
    };
    use crate::shard::{coverage_dir, merge_dir};
    use eacp_spec::{
        ExecutiveMcSpec, ExecutiveSweepAxis, ExecutiveSweepSpec, FaultSpec, PolicyAssignment,
        PolicySpec, TaskSetSpec,
    };

    fn small_sweep() -> ExecutiveSweepSpec {
        let mut base = ExecutiveSpec::new(
            "exec-grid",
            TaskSetSpec::implicit([("sensor", 500.0, 4_000), ("control", 1_200.0, 8_000)]),
        );
        base.faults = FaultSpec::Poisson { lambda: 5e-4 };
        base.policy = PolicyAssignment::Shared(PolicySpec::from_tag("a_d_s", 5e-4, 2, 0).unwrap());
        base.hyperperiods = 2;
        base.seed = 11;
        base.mc = Some(ExecutiveMcSpec {
            replications: 20,
            threads: 1,
            queue: None,
        });
        ExecutiveSweepSpec {
            base,
            axes: vec![
                ExecutiveSweepAxis::Lambda(vec![2e-4, 1e-3]),
                ExecutiveSweepAxis::K(vec![1, 3]),
            ],
        }
    }

    #[test]
    fn sharded_executive_points_equal_unsharded_points() {
        assert_shards_tile(&small_sweep());
    }

    #[test]
    fn executive_merge_reassembles_bit_identically() {
        let base = std::env::temp_dir().join(format!("eacp-exec-exshard-{}", std::process::id()));
        let dir = base.join("sharded");
        let _ = std::fs::remove_dir_all(&base);
        assert_merge_reassembles(&small_sweep(), &dir);

        // Withheld shard → loud failure; coverage reports it calmly.
        std::fs::remove_file(dir.join("shard-1-of-3.json")).unwrap();
        let err = merge_dir::<ExecutiveSpec>(&dir).unwrap_err();
        assert!(err.to_string().contains("missing"), "{err}");
        let cov = coverage_dir::<ExecutiveSpec>(&dir).unwrap();
        assert_eq!(cov.sweep_name, "exec-grid");
        assert_eq!(cov.total_points, 4);
        assert!(!cov.complete());
        assert_eq!(cov.missing, vec![2]);

        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn executive_grid_round_trips_through_json() {
        assert_json_round_trip(&small_sweep());
    }

    #[test]
    fn executive_csv_has_header_and_distribution_columns() {
        let sweep = small_sweep();
        let full = run(&sweep, None);
        let rows: Vec<_> = full
            .points
            .iter()
            .map(|p| (Some(p.index), p.report.clone()))
            .collect();
        let csv = render_executive_csv(&rows);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], EXECUTIVE_CSV_HEADER);
        assert_eq!(lines.len(), 1 + full.points.len());
        let cols: Vec<&str> = lines[1].split(',').collect();
        assert_eq!(cols.len(), EXECUTIVE_CSV_HEADER.split(',').count());
        assert!(lines[1].starts_with("0,exec-grid-l0.0002-k1,A_D_S+A_D_S,20,"));
        // Distribution cells are populated (20 horizons pushed).
        assert!(!cols[10].is_empty() && !cols[14].is_empty(), "{}", lines[1]);
    }
}
