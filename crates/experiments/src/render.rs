//! Rendering of regenerated tables: plain text (side-by-side with the
//! paper's numbers) and JSON.

use crate::runner::TableResult;
use crate::tables::{SchemeId, TablePart};

fn fmt_p(p: f64) -> String {
    if p.is_nan() {
        "NaN".to_owned()
    } else {
        format!("{p:.4}")
    }
}

fn fmt_e(e: f64) -> String {
    if e.is_nan() {
        "NaN".to_owned()
    } else {
        format!("{e:.0}")
    }
}

/// Renders a table as aligned plain text, one block per part, with the
/// paper's value in parentheses next to each measured value.
pub fn to_text(result: &TableResult) -> String {
    let mut out = String::new();
    let cfg = &result.config;
    out.push_str(&format!(
        "{} — {} variant (ts={}, tcp={}), baselines at f{}, {} replications/cell\n",
        result.id,
        cfg.proposed_name(),
        cfg.costs.store_cycles,
        cfg.costs.compare_cycles,
        cfg.baseline_speed + 1,
        result.replications,
    ));
    for part in [TablePart::A, TablePart::B] {
        let rows: Vec<_> = result
            .cells
            .iter()
            .filter(|c| c.spec.part == part)
            .collect();
        if rows.is_empty() {
            continue;
        }
        let k = rows[0].spec.k;
        out.push_str(&format!("\n({part}) k = {k}   [measured (paper)]\n"));
        out.push_str(&format!(
            "{:<6} {:<9} {:<3} {:<24} {:<24} {:<24} {:<24}\n",
            "U",
            "lambda",
            "",
            "Poisson",
            "k-f-t",
            "A_D",
            cfg.proposed_name()
        ));
        for cell in rows {
            let mut pline = format!(
                "{:<6} {:<9} {:<3} ",
                cell.spec.utilization,
                format!("{:.1e}", cell.spec.lambda),
                "P"
            );
            let mut eline = format!("{:<6} {:<9} {:<3} ", "", "", "E");
            for scheme in SchemeId::ALL {
                let s = cell.scheme(scheme);
                let (pp, pe) = cell
                    .paper
                    .map(|p| (p.p_of(scheme), p.e_of(scheme)))
                    .unwrap_or((f64::NAN, f64::NAN));
                pline.push_str(&format!(
                    "{:<24} ",
                    format!("{} ({})", fmt_p(s.summary.p_timely()), fmt_p(pp))
                ));
                eline.push_str(&format!(
                    "{:<24} ",
                    format!("{} ({})", fmt_e(s.summary.mean_energy_timely()), fmt_e(pe))
                ));
            }
            out.push_str(pline.trim_end());
            out.push('\n');
            out.push_str(eline.trim_end());
            out.push('\n');
        }
    }
    out
}

/// Renders a table as a JSON document: the cell grid with, per scheme, the
/// full serializable [`SummaryReport`](eacp_spec::SummaryReport), the spec
/// that produced it, and the paper's reference values. This is the
/// machine-readable counterpart of [`to_text`] — the report schema sweeps,
/// dashboards and CI gates consume.
pub fn to_json(result: &TableResult) -> String {
    use eacp_spec::{Json, ToJson};
    let cells = result
        .cells
        .iter()
        .map(|cell| {
            let schemes = cell
                .schemes
                .iter()
                .map(|s| {
                    Json::obj([
                        ("scheme", s.name.as_str().into()),
                        ("spec", s.spec.to_json()),
                        ("summary", s.summary_report().to_json()),
                    ])
                })
                .collect();
            let mut fields = vec![
                ("part".to_owned(), Json::Str(cell.spec.part.to_string())),
                ("utilization".to_owned(), Json::Float(cell.spec.utilization)),
                ("lambda".to_owned(), Json::Float(cell.spec.lambda)),
                ("k".to_owned(), Json::Int(cell.spec.k as i128)),
                ("schemes".to_owned(), Json::Array(schemes)),
            ];
            if let Some(p) = cell.paper {
                let paper = Json::Array(
                    SchemeId::ALL
                        .iter()
                        .map(|&id| Json::obj([("p", p.p_of(id).into()), ("e", p.e_of(id).into())]))
                        .collect(),
                );
                fields.push(("paper".to_owned(), paper));
            }
            Json::Object(fields)
        })
        .collect();
    Json::obj([
        ("table", result.id.number().into()),
        ("replications", result.replications.into()),
        ("cells", Json::Array(cells)),
    ])
    .pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_table;
    use crate::tables::TableId;

    fn small_table() -> TableResult {
        run_table(TableId::Table1, 30, 7, eacp_spec::ExecSpec::default()).unwrap()
    }

    #[test]
    fn json_report_parses_and_covers_all_cells() {
        use eacp_spec::Json;
        let r = small_table();
        let text = to_json(&r);
        let doc = Json::parse(&text).unwrap();
        assert_eq!(doc.req("table").unwrap().as_u64().unwrap(), 1);
        let cells = doc.req("cells").unwrap().as_array().unwrap();
        assert_eq!(cells.len(), 14);
        let first = &cells[0];
        assert_eq!(first.req("schemes").unwrap().as_array().unwrap().len(), 4);
        // Every scheme entry embeds a re-runnable spec.
        let spec_json = first.req("schemes").unwrap().as_array().unwrap()[0]
            .req("spec")
            .unwrap();
        assert!(spec_json.get("policy").is_some());
    }

    #[test]
    fn text_contains_all_sections_and_schemes() {
        let r = small_table();
        let t = to_text(&r);
        assert!(t.contains("Table 1"));
        assert!(t.contains("(a) k = 5"));
        assert!(t.contains("(b) k = 1"));
        assert!(t.contains("Poisson"));
        assert!(t.contains("A_D_S"));
        // One P-line and one E-line per row.
        assert_eq!(t.matches(" P ").count() + t.matches(" P\n").count(), 14);
    }
}
