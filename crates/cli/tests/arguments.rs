//! Command-line robustness: each command takes a fixed number of
//! positional arguments and names any extra one, and spec documents
//! nested past the JSON depth limit are typed errors, not stack overflows.

use eacp_cli::dispatch;
use std::path::PathBuf;

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
