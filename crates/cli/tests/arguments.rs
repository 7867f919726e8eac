//! Command-line robustness: each command takes a fixed number of
//! positional arguments and names any extra one; integer flags parse as
//! integers; no flag is silently ignored (`table` names a flag it does not
//! read, a grid with a seed axis rejects `--seed`); bad table input and
//! replication counts past 2^53 are errors, not panics or aborts; spec documents nested past the JSON depth limit are
//! typed errors, not stack overflows; and a reader that closes stdout
//! early ends the binary quietly.

use eacp_cli::dispatch;
use std::path::{Path, PathBuf};

fn args(s: &str) -> Vec<String> {
    s.split_whitespace().map(str::to_owned).collect()
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eacp-args-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn assert_rejects(line: &str, extra: &str) {
    let err = dispatch(args(line)).expect_err(line);
    assert!(
        err.contains(&format!("unexpected argument {extra:?}")),
        "{line}: {err}"
    );
}

#[test]
fn commands_without_positionals_name_a_stray_argument() {
    // The reproduced bug: this ran the paper-nominal spec and exited 0.
    assert_rejects("mc nonexistent.json --reps 50", "nonexistent.json");
    assert_rejects("run spec.json", "spec.json");
    assert_rejects("sweep --spec specs/table1a-sweep.json extra", "extra");
    assert_rejects("executive --preset avionics-trio extra", "extra");
    assert_rejects("serve --listen 127.0.0.1:0 extra", "extra");
    assert_rejects("analyze extra", "extra");
    assert_rejects("feasibility --tasks a:100:1000 extra", "extra");
    assert_rejects("presets extra", "extra");
    let err = dispatch(args("mc stray")).unwrap_err();
    assert!(err.contains("takes no positional arguments"), "{err}");
    let err = dispatch(args("bench")).unwrap_err();
    assert!(err.contains("unknown command \"bench\""), "{err}");
}

#[test]
fn commands_with_positionals_name_one_too_many() {
    assert_rejects("merge dir other", "other");
    assert_rejects("csv dir other", "other");
    assert_rejects("queue status dir other", "other");
    assert_rejects("store status other --store dir", "other");
    assert_rejects("table 1 2", "2");
    let err = dispatch(args("queue status a b")).unwrap_err();
    assert!(err.contains("takes at most 2"), "{err}");
}

#[test]
fn accepted_positional_forms_still_run() {
    let dir = tmp("accepted");
    let d = dir.to_str().unwrap();
    let spec = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../specs/table1a-sweep.json"
    );
    let out = dispatch(args(&format!(
        "sweep --spec {spec} --reps 10 --shard 0/1 --out {d}/grid"
    )))
    .unwrap();
    assert!(out.contains("wrote"), "{out}");
    assert!(dispatch(args(&format!("merge {d}/grid"))).is_ok());
    assert!(dispatch(args(&format!("csv {d}/grid"))).is_ok());
    assert!(dispatch(args(&format!("queue status {d}/grid"))).is_ok());
    assert!(dispatch(args(&format!("store status --store {d}/store"))).is_ok());
    assert!(dispatch(args("table 1 --reps 10")).is_ok());
    assert!(dispatch(args("mc --reps 20")).is_ok());
    assert!(dispatch(args("run")).is_ok());
    assert!(dispatch(args("analyze")).is_ok());
    assert!(dispatch(args("presets")).is_ok());
    assert!(dispatch(args("executive --preset avionics-trio")).is_ok());
    // `serve` with no positional reaches its own flag check.
    let err = dispatch(args("serve")).unwrap_err();
    assert!(err.contains("--listen"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn deeply_nested_spec_files_are_depth_errors() {
    let dir = tmp("deep");
    let path = dir.join("deep.json");
    std::fs::write(&path, "[".repeat(200_000)).unwrap();
    let p = path.to_str().unwrap();
    for line in [
        format!("mc --spec {p}"),
        format!("sweep --spec {p}"),
        format!("executive --spec {p}"),
        format!("executive --sweep {p}"),
    ] {
        let err = dispatch(args(&line)).unwrap_err();
        assert!(err.contains("depth limit of 128 levels"), "{line}: {err}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

fn spec_path(file: &str) -> String {
    format!("{}/../../specs/{file}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn integer_flags_parse_as_integers() {
    // A seed above 2^53 survives exactly instead of rounding to a float.
    let out = dispatch(args("mc --seed 9007199254740993 --reps 3 --emit-spec")).unwrap();
    let spec = eacp_spec::ExperimentSpec::from_json_str(&out).unwrap();
    assert_eq!(spec.mc.seed, 9_007_199_254_740_993);
    assert_eq!(spec.mc.replications, 3);
    // Fractions and negatives are errors that name the flag, not
    // truncations (`--workers -3` used to become 0, which means auto).
    for (line, flag) in [
        ("mc --reps 2.9 --emit-spec", "--reps"),
        ("mc --seed -5 --emit-spec", "--seed"),
        ("mc --k 1.7 --emit-spec", "--k"),
        ("mc --queue --workers -3 --emit-spec", "--workers"),
    ] {
        let err = dispatch(args(line)).expect_err(line);
        assert!(err.contains(&format!("bad {flag} ")), "{line}: {err}");
    }
}

#[test]
fn table_reports_bad_replications_as_an_error() {
    let err = dispatch(args("table 1 --reps 0")).unwrap_err();
    assert!(err.contains("replications must be positive"), "{err}");
}

#[test]
fn huge_replication_counts_are_spec_errors() {
    // Past 2^53 replications the f64 statistics no longer count exactly,
    // so each spec kind rejects the count, naming the field, before a
    // runner lays out any block schedule.
    use std::process::Command;
    for line in ["mc", "table 1", "executive --preset avionics-trio --mc"] {
        let out = Command::new(env!("CARGO_BIN_EXE_eacp"))
            .args(args(line))
            .args(["--reps", "18446744073709551615"])
            .output()
            .expect("run eacp");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{line}: {stderr}");
        assert!(stderr.starts_with("eacp:"), "{line}: {stderr}");
        assert!(
            stderr.contains("replications must be at most 2^53"),
            "{line}: {stderr}"
        );
    }
}

#[test]
fn table_rejects_flags_it_does_not_read() {
    for (line, flag) in [
        (
            "table 1 --reps 1 --spec missing.json --store /tmp/x --queue --endpoints 1.2.3.4:1",
            "--spec",
        ),
        ("table 1 --reps 1 --store /tmp/x", "--store"),
        ("table 1 --reps 1 --queue", "--queue"),
        ("table 1 --reps 1 --threads 2", "--threads"),
        ("table 1 --reps 1 --emit-spec", "--emit-spec"),
    ] {
        let err = dispatch(args(line)).expect_err(line);
        assert!(
            err.contains(&format!("{flag} does not apply")),
            "{line}: {err}"
        );
    }
}

#[test]
fn seed_flag_is_rejected_on_a_grid_with_a_seed_axis() {
    let dir = tmp("seed-axis");
    let d = dir.to_str().unwrap();
    // An executive grid with a seed axis, built from the committed one.
    let mut grid =
        eacp_spec::ExecutiveSweepSpec::load(Path::new(&spec_path("avionics-trio-sweep.json")))
            .unwrap();
    grid.axes.push(eacp_spec::ExecutiveSweepAxis::Seed(vec![3]));
    let executive = format!("{d}/executive-sweep.json");
    std::fs::write(&executive, grid.to_json_string()).unwrap();
    let ablation = spec_path("ablation/lambda-a_d_s.json");
    for line in [
        format!("sweep --spec {ablation} --seed 5 --emit-spec"),
        format!("executive --sweep {executive} --seed 5 --emit-spec"),
        format!("store status --store {d}/store --spec {ablation} --seed 5"),
    ] {
        let err = dispatch(args(&line)).expect_err(&line);
        assert!(err.contains("--seed cannot override"), "{line}: {err}");
    }
    // Without a seed axis, --seed still sets the base seed.
    let table1a = spec_path("table1a-sweep.json");
    let out = dispatch(args(&format!(
        "sweep --spec {table1a} --seed 5 --emit-spec"
    )))
    .unwrap();
    assert!(out.contains("\"seed\": 5,"), "{out}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn closed_stdout_ends_quietly() {
    use std::io::BufRead;
    use std::process::{Command, Stdio};
    // About 169 KB of JSON: more than a pipe buffer holds.
    let mut child = Command::new(env!("CARGO_BIN_EXE_eacp"))
        .args(["table", "1", "--reps", "30", "--json"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn eacp");
    // Read the first line, then close the pipe while output is still owed.
    let mut stdout = std::io::BufReader::new(child.stdout.take().unwrap());
    let mut first = String::new();
    stdout.read_line(&mut first).unwrap();
    assert_eq!(first, "{\n");
    drop(stdout);
    let out = child.wait_with_output().expect("wait for eacp");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
