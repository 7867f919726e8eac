//! Regenerates the paper's Tables 1–4 and checks the reproduction shape.
//!
//! ```text
//! gen-tables [--table 1|2|3|4] [--reps N] [--seed S]
//!            [--format text|markdown|csv] [--out DIR] [--no-shape]
//!            [--physical-fault-model] [--queue-workers N]
//! ```
//!
//! Defaults: all four tables, 10,000 replications per cell (the paper's
//! count), text output to stdout, shape checks on, and the paper's fault
//! model (faults strike only during useful computation — matching the
//! renewal analysis; calibration against the paper's reported values
//! confirms this is what the authors simulated). With
//! `--physical-fault-model` checkpoint/rollback operations are also
//! exposed to faults. With `--out DIR`, text, markdown and CSV renderings
//! are also written to files.

#![forbid(unsafe_code)]

use eacp_experiments::compare::render_comparison;
use eacp_experiments::shape::{check_table, tally};
use eacp_experiments::{render, TableId};
use eacp_sim::ExecutorOptions;
use std::io::Write;

struct Args {
    tables: Vec<TableId>,
    reps: u64,
    seed: u64,
    format: String,
    out_dir: Option<String>,
    shape: bool,
    physical_fault_model: bool,
    queue_workers: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        tables: TableId::ALL.to_vec(),
        reps: eacp_experiments::tables::PAPER_REPLICATIONS,
        seed: 2006,
        format: "text".to_owned(),
        out_dir: None,
        shape: true,
        physical_fault_model: false,
        queue_workers: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--table" => {
                let v = value("--table")?;
                let id = match v.as_str() {
                    "1" => TableId::Table1,
                    "2" => TableId::Table2,
                    "3" => TableId::Table3,
                    "4" => TableId::Table4,
                    other => return Err(format!("unknown table {other:?} (use 1..4)")),
                };
                args.tables = vec![id];
            }
            "--reps" => {
                args.reps = value("--reps")?
                    .parse()
                    .map_err(|e| format!("bad --reps: {e}"))?;
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--format" => {
                let v = value("--format")?;
                if !["text", "markdown", "csv"].contains(&v.as_str()) {
                    return Err(format!("unknown format {v:?}"));
                }
                args.format = v;
            }
            "--out" => args.out_dir = Some(value("--out")?),
            "--no-shape" => args.shape = false,
            "--physical-fault-model" => args.physical_fault_model = true,
            "--queue-workers" => {
                args.queue_workers = Some(
                    value("--queue-workers")?
                        .parse()
                        .map_err(|e| format!("bad --queue-workers: {e}"))?,
                );
            }
            "--help" | "-h" => {
                println!(
                    "usage: gen-tables [--table 1|2|3|4] [--reps N] [--seed S] \
                     [--format text|markdown|csv] [--out DIR] [--no-shape] \
                     [--physical-fault-model] [--queue-workers N]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gen-tables: {e}");
            std::process::exit(2);
        }
    };

    let options = ExecutorOptions {
        faults_during_overhead: args.physical_fault_model,
        ..ExecutorOptions::default()
    };
    // The scheduling choice rides on the executor spec; summaries are
    // bit-identical with or without the queue.
    let mut executor = eacp_spec::ExecSpec::from_options(&options);
    if let Some(workers) = args.queue_workers {
        executor = executor.with_queue(eacp_spec::QueueSpec {
            workers,
            ..Default::default()
        });
    }
    let mut any_shape_failure = false;
    for &id in &args.tables {
        // Progress timing for the operator; outside the R1 determinism
        // scope (see clippy.toml).
        #[allow(clippy::disallowed_types)]
        let t0 = std::time::Instant::now();
        let result = eacp_experiments::run_table(id, args.reps, args.seed, executor.clone());
        let elapsed = t0.elapsed();
        match args.format.as_str() {
            "markdown" => println!("{}", render::to_markdown(&result)),
            "csv" => println!("{}", render::to_csv(&result)),
            _ => println!("{}", render::to_text(&result)),
        }
        eprintln!(
            "# {} regenerated in {:.1}s ({} replications/cell)",
            id,
            elapsed.as_secs_f64(),
            args.reps
        );

        if let Some(dir) = &args.out_dir {
            std::fs::create_dir_all(dir).expect("create output directory");
            let base = format!("{dir}/table{}", id.number());
            for (ext, body) in [
                ("txt", render::to_text(&result)),
                ("md", render::to_markdown(&result)),
                ("csv", render::to_csv(&result)),
            ] {
                let mut f =
                    std::fs::File::create(format!("{base}.{ext}")).expect("create output file");
                f.write_all(body.as_bytes()).expect("write output file");
            }
        }

        eprintln!("{}", render_comparison(&result));

        if args.shape {
            let findings = check_table(&result);
            let (passed, failed) = tally(&findings);
            eprintln!("# shape: {passed} criteria passed, {failed} failed");
            for f in findings.iter().filter(|f| !f.passed) {
                eprintln!("#   FAIL {}: {}", f.criterion, f.detail);
                any_shape_failure = true;
            }
        }
    }
    if any_shape_failure {
        std::process::exit(1);
    }
}
