//! The EACP repository benchmark: four closed-loop user-journey workloads
//! driven through the workspace crates' public functions, with every
//! result checked in the same run, plus a separate traced run that
//! attributes cost to each layer from outside the crates.
//!
//! See `perfbench/README.md` for the workloads, metrics and how to run.

#![forbid(unsafe_code)]
// The repository's clippy.toml bans wall-clock reads (and HashMap) to keep
// the simulation deterministic; timing is this package's whole job, and
// nothing it measures feeds back into a result.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

pub mod layers;
pub mod stats;
pub mod trace;
pub mod workloads;

use stats::{median, percentile, Pct};
use std::path::Path;
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{CellOut, Size, Workload, WORKLOADS};

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// Every end-to-end metric: name, unit, direction. Untraced runs print
/// exactly these, in this order, on every workload.
pub const END_TO_END: [(&str, &str, &str); 6] = [
    ("setup_s", "s", "lower"),
    ("reps_per_s", "1/s", "higher"),
    ("cells_per_s", "1/s", "higher"),
    ("cell_ms_p50", "ms", "lower"),
    ("cell_ms_p95", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds (untraced runs).
    pub seconds: u64,
    /// Traced (per-layer) run instead of the end-to-end one.
    pub trace: bool,
}

/// Parses `--workload NAME --seed N --seconds N --trace 0|1`.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: &String| v.parse::<u64>().map_err(|e| format!("{flag} {v:?}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = number(value()?)?,
            "--seconds" => seconds = number(value()?)?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One pass over every cell of a workload.
pub struct PassResult {
    /// Per-cell wall time, ms (cells that returned an error included).
    pub lat_ms: Vec<f64>,
    /// Digested results; `None` where the cell call failed.
    pub outs: Vec<Option<CellOut>>,
    /// Cell calls that returned an error.
    pub errors: Vec<(usize, String)>,
}

/// Runs every cell once, one at a time; with a tracer, each cell is a
/// `cell` span and the parent of the spans its calls open.
pub fn run_pass(w: &mut dyn Workload, tracer: Option<&Tracer>) -> Result<PassResult, String> {
    w.begin_pass()?;
    settle();
    let n = w.cells();
    let mut pass = PassResult {
        lat_ms: Vec::with_capacity(n),
        outs: Vec::with_capacity(n),
        errors: Vec::new(),
    };
    for i in 0..n {
        let span = tracer.map(|t| {
            t.set_cell(i as u64);
            t.enter("cell")
        });
        let start = Instant::now();
        let raw = w.run_cell(i);
        let elapsed = start.elapsed();
        if let (Some(t), Some(span)) = (tracer, span) {
            t.end(span);
        }
        pass.lat_ms.push(elapsed.as_secs_f64() * 1e3);
        match raw {
            Ok(raw) => pass.outs.push(Some(CellOut::of(&raw))),
            Err(e) => {
                pass.errors.push((i, e));
                pass.outs.push(None);
            }
        }
    }
    Ok(pass)
}

/// Counts the distinct cells that failed in one pass, by call error or by
/// check, and keeps the first few reasons.
pub fn failed_cells(
    errors: &[(usize, String)],
    checks: &[(usize, String)],
    label: &str,
    reasons: &mut Vec<String>,
) -> u64 {
    for (i, why) in errors.iter().chain(checks) {
        if reasons.len() < 8 {
            reasons.push(format!("{label}cell {i}: {why}"));
        }
    }
    let mut bad: Vec<usize> = errors.iter().chain(checks).map(|(i, _)| *i).collect();
    bad.sort_unstable();
    bad.dedup();
    bad.len() as u64
}

/// One cell's samples across the passes of a timed run.
#[derive(Default)]
struct CellSamples {
    ms: Vec<f64>,
    reps: u64,
    hit: Option<bool>,
}

/// What a run reports.
pub struct Outcome {
    /// Cells attempted.
    pub attempted: u64,
    /// Cells whose call failed or whose result failed a check.
    pub failed: u64,
    /// The metrics of this mode.
    pub metrics: Vec<Metric>,
    /// Informational JSON lines printed before the result line.
    pub info: Vec<String>,
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn pct_json(p: Pct) -> String {
    format!(
        "{{\"value\": {}, \"samples\": {}, \"beyond\": {}}}",
        num(p.value),
        p.samples,
        p.beyond
    )
}

/// The result line: the last line of standard output.
pub fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0 && o.attempted > 0,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "none".to_owned())
}

/// SHA-256 over the workspace sources the benchmark links, so runs of
/// different code are told apart where no git metadata exists.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, out);
                }
            } else if path.extension().is_some_and(|e| e == "rs")
                || path.file_name().is_some_and(|n| n == "Cargo.toml")
            {
                out.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    walk(&root.join("vendor"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.push(0);
        bytes.extend(std::fs::read(&f).unwrap_or_default());
    }
    eacp_store::sha256(&bytes)
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

fn fingerprint(
    args: &Args,
    root: &Path,
    w: &dyn Workload,
    cells: u64,
    reps: u64,
    passes: u64,
) -> String {
    let (threads, workers, endpoints) = w.parallelism();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    format!(
        "{{\"fingerprint\": {{\"workload\": \"{}\", \"seed\": {}, \"mode\": \"{}\", \
         \"nproc\": {nproc}, \"threads\": {threads}, \"workers\": {workers}, \
         \"endpoints\": {endpoints}, \"cpu_model\": \"{}\", \"rustc\": \"{}\", \
         \"git_commit\": \"{}\", \"source_sha256\": \"{}\", \"cells_per_pass\": {}, \
         \"passes\": {passes}, \"cells\": {cells}, \"replications\": {reps}}}}}",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        esc(&cpu),
        esc(&command_line("rustc", &["--version"])),
        esc(&command_line("git", &["rev-parse", "HEAD"])),
        source_digest(root),
        w.cells(),
    )
}

/// Flushes dirty pages and pending deletions (`sync`) so that neither a
/// set-up nor a timed run pays for writeback an earlier one left behind;
/// never timed.
fn settle() {
    let _ = std::process::Command::new("sync").status();
}

/// Runs one benchmark invocation rooted at `root` (the checkout).
pub fn run(args: &Args, size: Size, inject_mismatch: bool, root: &Path) -> Result<Outcome, String> {
    static RUNS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let out_dir = root.join(".perfbench");
    let run_no = RUNS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let work = out_dir.join(format!("work-{}-{run_no}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let result = run_in(args, size, inject_mismatch, root, &work, &out_dir);
    let _ = std::fs::remove_dir_all(&work);
    settle();
    result
}

fn run_in(
    args: &Args,
    size: Size,
    inject_mismatch: bool,
    root: &Path,
    work: &Path,
    out_dir: &Path,
) -> Result<Outcome, String> {
    // Set up several times; each set-up replaces the previous one.
    let mut setup_s = Vec::new();
    let mut workload: Option<Box<dyn Workload>> = None;
    for _ in 0..size.setup_repeats.max(1) {
        drop(workload.take());
        settle();
        let start = Instant::now();
        workload = Some(workloads::setup(
            &args.workload,
            args.seed,
            size,
            &work.join("store"),
            inject_mismatch,
        )?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("at least one set-up ran");
    settle();

    if args.trace {
        let spans_file = out_dir.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
        let t = layers::traced_run(&mut *w, work, &spans_file)?;
        let self_ms: Vec<String> = t
            .self_ms
            .iter()
            .map(|(name, ms)| format!("\"{name}\": {}", num(*ms)))
            .collect();
        let detail =
            format!(
            "{{\"detail\": {{\"spans_file\": \"{}\", \"self_ms\": {{{}}}, \"failures\": [{}]}}}}",
            esc(&t.spans_file),
            self_ms.join(", "),
            t.failures.iter().map(|f| format!("\"{}\"", esc(f))).collect::<Vec<_>>().join(", ")
        );
        return Ok(Outcome {
            attempted: t.attempted,
            failed: t.failed,
            metrics: t.metrics,
            info: vec![fingerprint(args, root, &*w, t.attempted, t.reps, 3), detail],
        });
    }

    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let (mut attempted, mut failed, mut reps, mut ok_cells, mut passes) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut per_cell: Vec<CellSamples> = Vec::new();
    let mut pass_rates = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut fidelity = None;
    loop {
        let pass = run_pass(&mut *w, None)?;
        let checks = w.check_pass(&pass.outs);
        let label = format!("pass {passes} ");
        failed += failed_cells(&pass.errors, &checks, &label, &mut failures);
        attempted += pass.outs.len() as u64;
        if fidelity.is_none() {
            fidelity = Some(layers::paper_fidelity(&*w, &pass.outs));
        }
        let pass_reps: u64 = pass.outs.iter().flatten().map(|o| o.reps).sum();
        pass_rates.push(pass_reps as f64 / (pass.lat_ms.iter().sum::<f64>() / 1e3));
        per_cell.resize_with(pass.outs.len(), Default::default);
        for ((ms, out), cell) in pass.lat_ms.iter().zip(&pass.outs).zip(&mut per_cell) {
            let Some(out) = out else { continue };
            cell.ms.push(*ms);
            cell.reps = out.reps;
            cell.hit = out.hit;
            ok_cells += 1;
            reps += out.reps;
        }
        passes += 1;
        if start.elapsed() >= budget && passes >= size.min_passes {
            break;
        }
    }
    // Every timing is taken over a *typical pass*: each cell's median
    // latency across passes. A shared host's speed can move by 10-20 %
    // from one few-second stretch to the next; a cell's median ignores the
    // pass a burst hit, so the figures follow the code rather than the host.
    let typical: Vec<(f64, &CellSamples)> = per_cell
        .iter()
        .filter(|c| !c.ms.is_empty())
        .map(|c| (median(&c.ms), c))
        .collect();
    let typical_s = typical.iter().map(|(ms, _)| ms).sum::<f64>() / 1e3;
    let pass_reps: u64 = typical.iter().map(|(_, c)| c.reps).sum();
    let medians = |keep: &dyn Fn(&CellSamples) -> bool| -> Vec<f64> {
        typical
            .iter()
            .filter(|(_, c)| keep(c))
            .map(|(ms, _)| *ms)
            .collect()
    };
    let all = medians(&|_| true);
    let (p50, p95) = (percentile(&all, 0.5), percentile(&all, 0.95));
    let values = [
        median(&setup_s),
        pass_reps as f64 / typical_s,
        typical.len() as f64 / typical_s,
        p50.value,
        p95.value,
        peak_rss_mb(),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, _), value)| Metric { name, unit, value })
        .collect();
    let (paper_cells, paper_dp) = fidelity.unwrap_or((0, 0.0));
    let mut detail = vec![
        format!("\"passes\": {passes}"),
        format!(
            "\"pass_reps_per_s\": [{}]",
            pass_rates
                .iter()
                .map(|r| num(*r))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        format!(
            "\"failed_ratio\": {}",
            num(stats::ratio(failed as f64, attempted as f64))
        ),
        format!("\"cell_ms_p50\": {}", pct_json(p50)),
        format!("\"cell_ms_p95\": {}", pct_json(p95)),
        format!(
            "\"setup_s_samples\": [{}]",
            setup_s
                .iter()
                .map(|s| num(*s))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    ];
    if typical.iter().any(|(_, c)| c.hit.is_some()) {
        for (name, hit) in [("hit_ms", true), ("miss_ms", false)] {
            let v = medians(&|c| c.hit == Some(hit));
            detail.push(format!("\"{name}_p50\": {}", pct_json(percentile(&v, 0.5))));
            detail.push(format!(
                "\"{name}_p95\": {}",
                pct_json(percentile(&v, 0.95))
            ));
        }
    }
    if paper_cells > 0 {
        detail.push(format!("\"paper_cells\": {paper_cells}"));
        detail.push(format!("\"paper_mean_abs_dp\": {}", num(paper_dp)));
    }
    detail.push(format!(
        "\"failures\": [{}]",
        failures
            .iter()
            .map(|f| format!("\"{}\"", esc(f)))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        info: vec![
            fingerprint(args, root, &*w, ok_cells, reps, passes),
            format!("{{\"detail\": {{{}}}}}", detail.join(", ")),
        ],
    })
}

/// Parses, runs and renders one invocation: (exit code, stdout lines).
/// The result line comes last; a failed check exits 1, bad arguments or
/// a set-up error exit 2 without a result line.
pub fn execute(
    argv: &[String],
    size: Size,
    inject_mismatch: bool,
    root: &Path,
) -> (i32, Vec<String>) {
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return (2, Vec::new());
        }
    };
    match run(&args, size, inject_mismatch, root) {
        Ok(outcome) => {
            let mut lines = outcome.info.clone();
            lines.push(result_line(&outcome));
            let code = if outcome.failed == 0 && outcome.attempted > 0 {
                0
            } else {
                1
            };
            (code, lines)
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            (2, Vec::new())
        }
    }
}
