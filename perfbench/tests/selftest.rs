//! Benchmark self-tests at toy size: every workload runs in both modes,
//! prints exactly the metric names `BENCHMARK.json` declares, and an
//! injected result mismatch fails the command.

use eacp_perfbench::layers::PER_LAYER;
use eacp_perfbench::workloads::{Size, WORKLOADS};
use eacp_perfbench::{execute, END_TO_END};
use eacp_spec::Json;
use std::path::Path;

/// The repository root: the benchmark package sits one level below it.
fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package lives inside the repository")
}

fn argv(workload: &str, trace: bool) -> Vec<String> {
    let trace = if trace { "1" } else { "0" };
    [
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "0",
        "--trace",
        trace,
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// Runs one invocation and returns (exit code, parsed result line, the
/// detail line's text).
fn invoke(workload: &str, trace: bool, inject: bool) -> (i32, Json, String) {
    let (code, lines) = execute(&argv(workload, trace), Size::toy(), inject, root());
    let last = lines.last().expect("a result line");
    let result = Json::parse(last).expect("the result line is JSON");
    let detail = lines
        .iter()
        .find(|l| l.starts_with("{\"detail\""))
        .cloned()
        .unwrap_or_default();
    (code, result, detail)
}

fn keys(json: &Json) -> Vec<String> {
    match json {
        Json::Object(fields) => fields.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("expected an object, got {}", other.type_name()),
    }
}

/// (name, unit, better) of every entry of one `BENCHMARK.json` section;
/// absent fields read as empty.
fn declared(section: &str) -> Vec<(String, String, String)> {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.req(section)
        .and_then(Json::as_array)
        .expect("section is an array")
        .iter()
        .map(|m| {
            let field = |key| m.get(key).map_or("", |v| v.as_str().expect("a string"));
            (
                field("name").to_owned(),
                field("unit").to_owned(),
                field("better").to_owned(),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_declares_what_the_program_prints() {
    let owned = |list: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
        list.iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), owned(&END_TO_END));
    assert_eq!(declared("per_layer"), owned(&PER_LAYER));
    // The gated workloads are a subset: the others stay runnable by name.
    for (name, _, _) in declared("workloads") {
        assert!(WORKLOADS.contains(&name.as_str()), "{name}");
    }
}

#[test]
fn every_workload_runs_and_prints_the_declared_metrics() {
    let names = |section| -> Vec<String> { declared(section).into_iter().map(|d| d.0).collect() };
    let (e2e, layers) = (names("end_to_end"), names("per_layer"));
    for workload in WORKLOADS {
        for (trace, names) in [(false, &e2e), (true, &layers)] {
            let (code, result, detail) = invoke(workload, trace, false);
            assert_eq!(code, 0, "{workload} trace={trace}: {detail}");
            assert_eq!(result.req("correct").and_then(Json::as_bool), Ok(true));
            assert_eq!(result.req("failed").and_then(Json::as_u64), Ok(0));
            assert!(
                result
                    .req("attempted")
                    .and_then(Json::as_u64)
                    .expect("attempted")
                    > 0
            );
            let metrics = result.req("metrics").expect("metrics");
            assert_eq!(&keys(metrics), names, "{workload} trace={trace}");
            for name in names {
                let value = metrics
                    .req(name)
                    .and_then(|m| m.req("value"))
                    .expect("value");
                assert!(
                    value.as_f64().expect("numeric").is_finite(),
                    "{workload} {name}"
                );
            }
        }
    }
}

#[test]
fn an_injected_mismatch_fails_the_command_on_every_workload() {
    for workload in WORKLOADS {
        let (code, result, detail) = invoke(workload, false, true);
        assert_eq!(code, 1, "{workload}");
        assert_eq!(result.req("correct").and_then(Json::as_bool), Ok(false));
        assert!(result.req("failed").and_then(Json::as_u64).expect("failed") > 0);
        let ratio = Json::parse(&detail)
            .and_then(|d| d.req("detail")?.req("failed_ratio")?.as_f64())
            .expect("failed_ratio in the detail line");
        assert!(ratio > 0.0, "{workload}: failed_ratio {ratio}");
    }
}

#[test]
fn bad_arguments_exit_without_a_result() {
    for args in [
        vec!["--workload", "nope"],
        vec!["--workload", "paper_tables", "--trace", "2"],
        vec!["--seed", "1"],
    ] {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let (code, lines) = execute(&argv, Size::toy(), false, root());
        assert_eq!(code, 2);
        assert!(lines.is_empty());
    }
}
