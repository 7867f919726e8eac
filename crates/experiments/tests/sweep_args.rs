//! The `sweep` binary rejects a bad command line with a message and exit
//! status 2, never a panic.

use std::process::Command;

fn assert_usage_error(args: &[&str], needle: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(args)
        .output()
        .expect("spawn sweep");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
    assert!(
        !stdout.contains("panicked") && !stderr.contains("panicked"),
        "{args:?}: {stderr}"
    );
}

#[test]
fn bad_values_exit_2_with_a_message() {
    assert_usage_error(&["--reps", "abc"], "bad --reps \"abc\"");
    assert_usage_error(&["--seed", "-1"], "bad --seed");
    assert_usage_error(&["--kind"], "missing value for --kind");
    assert_usage_error(&["--kind", "lambda", "--reps"], "missing value for --reps");
    assert_usage_error(&["--kind", "nope"], "unknown kind \"nope\"");
    assert_usage_error(&["--spec", "grid.json"], "unknown flag \"--spec\"");
}
