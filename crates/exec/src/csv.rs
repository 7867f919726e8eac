//! CSV renderer over sweep report documents — the first half of the
//! ROADMAP's renderer item (the HTML table is the second).
//!
//! One row per grid point: scheme, `P` with its 95% Wilson interval, `E`,
//! and — where a paper-value lookup recognizes the operating point —
//! the paper's `P`/`E` and the measured-minus-paper deltas. The lookup is
//! injected as a closure so this crate stays independent of
//! `eacp-experiments` (which owns the transcribed paper tables); the CLI
//! wires the two together.

use eacp_spec::RunReport;

/// The paper's reported values for one (operating point, scheme) cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperRef {
    /// Probability of timely completion.
    pub p: f64,
    /// Mean energy over timely runs (`NaN` where the paper prints `NaN`).
    pub e: f64,
}

/// Formats a float cell; `NaN` renders as an empty cell (the CSV mirror of
/// the paper's `NaN` energy entries).
pub(crate) fn cell(v: f64, precision: usize) -> String {
    if v.is_nan() {
        String::new()
    } else {
        format!("{v:.precision$}")
    }
}

/// The CSV header row (no trailing newline).
pub const CSV_HEADER: &str = "index,experiment,scheme,replications,p,p_ci_lo,p_ci_hi,\
e_timely,e_all,paper_p,delta_p,paper_e,delta_e";

/// Renders one report as a CSV row (no trailing newline).
fn row(index: Option<usize>, report: &RunReport, paper: Option<PaperRef>) -> String {
    let s = &report.summary;
    let (ci_lo, ci_hi) = s.p_timely_ci95;
    let (paper_p, delta_p, paper_e, delta_e) = match paper {
        Some(pr) => (
            cell(pr.p, 4),
            cell(s.p_timely - pr.p, 4),
            cell(pr.e, 1),
            cell(s.energy_timely.mean - pr.e, 1),
        ),
        None => Default::default(),
    };
    format!(
        "{},{},{},{},{},{},{},{},{},{paper_p},{delta_p},{paper_e},{delta_e}",
        index.map_or_else(String::new, |i| i.to_string()),
        report.spec.name,
        report.policy_name,
        s.replications,
        cell(s.p_timely, 4),
        cell(ci_lo, 4),
        cell(ci_hi, 4),
        cell(s.energy_timely.mean, 1),
        cell(s.energy_all.mean, 1),
    )
}

/// Renders reports as a CSV matrix, one row per report: grid points
/// (indexed, ascending) and standalone run reports (no grid index).
/// `paper` maps a report to the paper's reference values where the
/// operating point matches a transcribed table cell.
pub fn render_rows(
    rows: &[(Option<usize>, RunReport)],
    paper: &dyn Fn(&RunReport) -> Option<PaperRef>,
) -> String {
    let mut out = String::from(CSV_HEADER);
    out.push('\n');
    for (index, report) in rows {
        out.push_str(&row(*index, report, paper(report)));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::LocalRunner;
    use crate::shard::run_sweep_tiered;
    use eacp_spec::{ExperimentSpec, McSpec, SweepAxis, SweepSpec};

    fn points() -> Vec<(Option<usize>, RunReport)> {
        let mut base = ExperimentSpec::paper_nominal();
        base.name = "csv".into();
        base.mc = McSpec {
            replications: 30,
            seed: 3,
            threads: 1,
        };
        let sweep = SweepSpec {
            base,
            axes: vec![SweepAxis::Lambda(vec![1e-4, 1.4e-3])],
        };
        rows(&sweep)
    }

    fn rows(sweep: &SweepSpec) -> Vec<(Option<usize>, RunReport)> {
        let grid = run_sweep_tiered(sweep, None, &LocalRunner::new(1), true).unwrap();
        grid.points
            .into_iter()
            .map(|p| (Some(p.index), p.report))
            .collect()
    }

    #[test]
    fn csv_has_header_and_one_row_per_point() {
        let pts = points();
        let csv = render_rows(&pts, &|_| None);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], CSV_HEADER);
        assert_eq!(lines.len(), 1 + pts.len());
        // Paper columns are empty without a lookup hit.
        assert!(lines[1].ends_with(",,,,"), "{}", lines[1]);
        assert!(
            lines[1].starts_with("0,csv-l0.0001,A_D_S,30,"),
            "{}",
            lines[1]
        );
    }

    #[test]
    fn paper_deltas_are_rendered_when_the_lookup_hits() {
        let pts = points();
        let csv = render_rows(&pts, &|r| {
            Some(PaperRef {
                p: r.summary.p_timely,
                e: f64::NAN,
            })
        });
        let line = csv.lines().nth(1).unwrap();
        // delta_p is exactly 0.0000; NaN paper E renders empty.
        let cols: Vec<&str> = line.split(',').collect();
        assert_eq!(cols[10], "0.0000", "{line}");
        assert_eq!(cols[11], "", "{line}");
        assert_eq!(cols[12], "", "{line}");
    }

    #[test]
    fn nan_energy_renders_as_empty_cell() {
        // An impossible deadline gives P = 0 and NaN E(timely).
        let mut spec = ExperimentSpec::paper_nominal();
        spec.name = "impossible".into();
        spec.scenario.work = eacp_spec::WorkSpec::Utilization {
            utilization: 5.0,
            speed: 1.0,
            deadline: 1_000.0,
        };
        spec.mc.replications = 10;
        let sweep = SweepSpec {
            base: spec,
            axes: vec![SweepAxis::K(vec![5])],
        };
        let pts = rows(&sweep);
        let csv = render_rows(&pts, &|_| None);
        let cols: Vec<&str> = csv.lines().nth(1).unwrap().split(',').collect();
        assert_eq!(cols[4], "0.0000"); // P
        assert_eq!(cols[7], ""); // E(timely) is NaN
    }
}
