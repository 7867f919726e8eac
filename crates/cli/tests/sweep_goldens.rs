//! Golden byte pins for both sweep kinds, end to end through the CLI.
//!
//! For a small single-task grid (`specs/table1a-sweep.json`) and a small
//! executive grid (`specs/avionics-trio-sweep.json`) the whole collection
//! workflow is pinned byte for byte against files under `golden/`:
//! `--out` → `grid.json`, two `--shard i/2` documents → `merge` → `csv`,
//! `--json`, the text table, `queue status` and `store status --spec`.
//! Queued and store-backed runs must reproduce the same bytes. A diff here
//! means a result, a document schema or a rendered table changed; all of
//! those must be deliberate (regenerate with the commands below, run from
//! the repository root; `eacp` appends one newline to what it prints).
//!
//! ```text
//! eacp executive --sweep specs/avionics-trio-sweep.json --reps 8 --out DIR
//! eacp sweep --spec specs/table1a-sweep.json --reps 20 --out DIR
//! ```

use std::path::{Path, PathBuf};

fn args(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| (*s).to_owned()).collect()
}

fn run(parts: &[&str]) -> String {
    eacp_cli::dispatch(args(parts)).unwrap_or_else(|e| panic!("{parts:?}: {e}"))
}

fn repo_file(rel: &str) -> String {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .join(rel)
        .to_str()
        .unwrap()
        .to_owned()
}

fn golden(kind: &str, name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(kind)
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Compares printed output (which `eacp` terminates with one newline).
fn assert_printed(kind: &str, name: &str, out: &str) {
    assert_eq!(
        format!("{out}\n"),
        golden(kind, name),
        "{kind}/{name} drifted"
    );
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eacp-goldens-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One sweep kind's command line: the subcommand and flag that select the
/// grid document, the document itself and its replication override.
struct Kind {
    golden: &'static str,
    command: &'static str,
    flag: &'static str,
    spec: String,
    reps: &'static str,
}

impl Kind {
    fn sweep(&self, extra: &[&str]) -> String {
        let mut parts = vec![self.command, self.flag, &self.spec, "--reps", self.reps];
        parts.extend_from_slice(extra);
        run(&parts)
    }
}

fn pin_workflow(kind: &Kind) {
    let base = tmp(kind.golden);
    let s = |p: &Path| p.to_str().unwrap().to_owned();
    let (full, shards, store, queued) = (
        s(&base.join("full")),
        s(&base.join("shards")),
        s(&base.join("store")),
        s(&base.join("queued")),
    );

    // The unsharded grid document.
    kind.sweep(&["--out", &full]);
    let grid = std::fs::read_to_string(Path::new(&full).join("grid.json")).unwrap();
    assert_eq!(grid, golden(kind.golden, "grid.json"), "grid.json drifted");

    // Two shards (the first recorded into a store), merged and rendered.
    kind.sweep(&["--shard", "0/2", "--out", &shards, "--store", &store]);
    kind.sweep(&["--shard", "1/2", "--out", &shards]);
    let merged = run(&["merge", &shards]);
    assert_eq!(merged, grid, "merged shards must equal the unsharded grid");
    assert_printed(kind.golden, "merged.json", &merged);
    assert_printed(kind.golden, "grid.csv", &run(&["csv", &shards]));
    assert_printed(
        kind.golden,
        "queue-status.txt",
        &run(&["queue", "status", &shards]),
    );
    let status = run(&[
        "store", "status", "--store", &store, "--spec", &kind.spec, "--reps", kind.reps,
    ])
    .replace(&store, "<STORE>");
    assert_printed(kind.golden, "store-status.txt", &status);

    // Printed forms.
    let json = kind.sweep(&["--json"]);
    assert_printed(kind.golden, "points.json", &json);
    assert_printed(kind.golden, "table.txt", &kind.sweep(&[]));

    // Queued and store-served runs reproduce the same bytes.
    assert_eq!(kind.sweep(&["--json", "--queue", "--workers", "2"]), json);
    assert_eq!(kind.sweep(&["--json", "--store", &store]), json);
    kind.sweep(&["--queue", "--workers", "2", "--out", &queued]);
    assert_eq!(
        std::fs::read_to_string(Path::new(&queued).join("grid.json")).unwrap(),
        grid
    );

    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn single_task_sweep_workflow_matches_goldens() {
    pin_workflow(&Kind {
        golden: "sweep",
        command: "sweep",
        flag: "--spec",
        spec: repo_file("specs/table1a-sweep.json"),
        reps: "20",
    });
}

#[test]
fn executive_sweep_workflow_matches_goldens() {
    pin_workflow(&Kind {
        golden: "executive-sweep",
        command: "executive",
        flag: "--sweep",
        spec: repo_file("specs/avionics-trio-sweep.json"),
        reps: "8",
    });
}
