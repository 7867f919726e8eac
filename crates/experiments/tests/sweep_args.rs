//! The `sweep` binary rejects a bad command line with a message and exit
//! status 2, and ends quietly when its reader closes stdout — never a
//! panic.

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

#[test]
fn closed_stdout_ends_quietly() {
    use std::io::BufRead;
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(["--kind", "optimizer", "--reps", "400"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sweep");
    // Read the header, then close the pipe while rows are still owed.
    let mut stdout = std::io::BufReader::new(child.stdout.take().unwrap());
    let mut header = String::new();
    stdout.read_line(&mut header).unwrap();
    assert!(header.starts_with("lambda,method"), "{header}");
    drop(stdout);
    let out = child.wait_with_output().expect("wait for sweep");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
