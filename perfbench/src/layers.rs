//! The traced run: one untraced pass, one pass through the wrappers, an
//! exact event-count pass, and direct timed calls into each layer.
//!
//! Rule for every per-layer metric: a *cost* (a time, a size) is taken on
//! the workload's own inputs where the workload drives that layer, and on
//! a fixed probe input otherwise; a *count* (or a ratio of counts) is the
//! workload's own and reads 0 where the workload never enters the layer.

use crate::stats::{mean, median, percentile, ratio};
use crate::trace::{self_times_ms, write_spans, EventCounts, TimedStore, Tracer};
use crate::workloads::{CellOut, Instruments, Specs, Workload, PARALLELISM};
use crate::{failed_cells, run_pass, Metric};
use eacp_core::analysis::{
    checkpoint_interval, choose_speed, num_ccp, num_scp, IntervalInputs, OptimizeMethod,
    RenewalParams,
};
use eacp_energy::DvsConfig;
use eacp_exec::remote::{answer_request, run_block_request};
use eacp_exec::{
    BlockAssignment, ExecutiveJob, ExecutiveSummary, InProcessWorker, Job, LocalRunner,
    RemoteServer, RemoteWorker, Replicate, Runner, Summary, Worker, Workload as _,
};
use eacp_experiments::{table_config, TableId};
use eacp_faults::FaultProcess;
use eacp_sim::{replication_seed, NoopObserver};
use eacp_spec::{ExecutiveSpec, ExperimentSpec, FaultSpec, FromJson, Json, SummaryReport, ToJson};
use eacp_store::{CellEntry, CellId, FsBackend, StoreBackend};
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Every per-layer metric: name, unit, direction. The traced run prints
/// exactly these, in this order.
pub const PER_LAYER: [(&str, &str, &str); 51] = [
    ("spec.expand_ms", "ms", "lower"),
    ("spec.encode_us", "us", "lower"),
    ("spec.parse_us", "us", "lower"),
    ("spec.doc_bytes", "bytes", "lower"),
    ("store.get_count", "count", "lower"),
    ("store.get_us_p50", "us", "lower"),
    ("store.get_us_p95", "us", "lower"),
    ("store.put_count", "count", "lower"),
    ("store.put_us_p50", "us", "lower"),
    ("store.put_us_p95", "us", "lower"),
    ("store.hit_ratio", "ratio", "higher"),
    ("store.quarantined", "count", "lower"),
    ("store.entry_bytes", "bytes", "lower"),
    ("store.hash_us", "us", "lower"),
    ("exec.run_ms_p50", "ms", "lower"),
    ("exec.parallel_efficiency", "ratio", "higher"),
    ("exec.lease_count", "count", "lower"),
    ("exec.retry_count", "count", "lower"),
    ("exec.expiry_count", "count", "lower"),
    ("exec.lease_gap_us_p50", "us", "lower"),
    ("exec.analytic_ratio", "ratio", "higher"),
    ("remote.block_rtt_us_p50", "us", "lower"),
    ("remote.block_rtt_us_p95", "us", "lower"),
    ("remote.overhead_us_per_block", "us", "lower"),
    ("remote.request_bytes", "bytes", "lower"),
    ("remote.response_bytes", "bytes", "lower"),
    ("remote.answer_us", "us", "lower"),
    ("remote.fallback_count", "count", "lower"),
    ("sim.rep_us", "us", "lower"),
    ("sim.segments_per_rep", "count/rep", "lower"),
    ("sim.checkpoints_per_rep", "count/rep", "lower"),
    ("sim.rollbacks_per_rep", "count/rep", "lower"),
    ("sim.speed_changes_per_rep", "count/rep", "lower"),
    ("sim.deadline_miss_ratio", "ratio", "lower"),
    ("sim.merge_ns", "ns", "lower"),
    ("faults.per_rep", "count/rep", "lower"),
    ("faults.draw_ns", "ns", "lower"),
    ("core.num_scp_ns", "ns", "lower"),
    ("core.num_ccp_ns", "ns", "lower"),
    ("core.interval_ns", "ns", "lower"),
    ("core.choose_speed_ns", "ns", "lower"),
    ("rtsched.horizon_us", "us", "lower"),
    ("rtsched.faults_per_horizon", "count/horizon", "lower"),
    ("fidelity.paper_cells", "count", "higher"),
    ("fidelity.paper_mean_abs_dp", "probability", "lower"),
    ("account.measured_ms", "ms", "lower"),
    ("account.explained_ms", "ms", "lower"),
    ("account.explained_ratio", "ratio", "higher"),
    ("account.residual_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
];

/// What the traced run produced.
pub struct TraceOutcome {
    /// Per-layer metrics in [`PER_LAYER`] order.
    pub metrics: Vec<Metric>,
    /// Cells run across the warm-up, untraced and traced passes.
    pub attempted: u64,
    /// Cells whose checks failed.
    pub failed: u64,
    /// Replications (horizons) those cells covered.
    pub reps: u64,
    /// Failure reasons (first few).
    pub failures: Vec<String>,
    /// Self time per span name, ms.
    pub self_ms: Vec<(&'static str, f64)>,
    /// Where the spans went.
    pub spans_file: String,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Mean nanoseconds per call of `f` over `calls` calls, timed as one loop.
fn ns_per_call(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..calls {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / calls.max(1) as f64
}

/// Mean |P − P_paper| over cells with a paper value, and their count.
pub fn paper_fidelity(w: &dyn Workload, outs: &[Option<CellOut>]) -> (usize, f64) {
    let dps: Vec<f64> = outs
        .iter()
        .enumerate()
        .filter_map(|(i, o)| Some((w.paper_p(i)?, o.as_ref()?.p_timely?)))
        .map(|(paper, p)| (p - paper).abs())
        .collect();
    (dps.len(), mean(&dps))
}

/// The canonical block partition the runners use (replication count only).
fn blocks_of(reps: u64) -> Vec<BlockAssignment> {
    let block = reps.div_ceil(64).clamp(16, 8192);
    (0..reps.div_ceil(block))
        .map(|b| BlockAssignment {
            block: b,
            lo: b * block,
            hi: ((b + 1) * block).min(reps),
        })
        .collect()
}

fn probe_spec(reps: u64) -> ExperimentSpec {
    let mut spec = ExperimentSpec::paper_nominal();
    spec.mc.replications = reps;
    spec
}

fn probe_executive() -> Result<ExecutiveSpec, String> {
    let mut spec = eacp_spec::executive_preset("avionics-trio").ok_or("no avionics-trio preset")?;
    spec.mc = Some(eacp_spec::ExecutiveMcSpec {
        replications: 256,
        threads: 1,
        queue: None,
    });
    Ok(spec)
}

/// Single-thread µs per replication over up to `cap` replications of each
/// spec, and the implied sequential time (ms) of all their replications.
fn sim_rep_cost(specs: &[&ExperimentSpec], cap: u64) -> Result<(f64, f64), String> {
    let (mut ns, mut n, mut seq_ms) = (0f64, 0u64, 0f64);
    for spec in specs {
        let job = Job::from_spec(spec).map_err(err)?;
        let mut rep = job.replicator();
        let take = job.replications().min(cap);
        let t = Instant::now();
        for r in 0..take {
            black_box(rep.run_replication(r, &mut NoopObserver));
        }
        let cell_ns = t.elapsed().as_nanos() as f64;
        ns += cell_ns;
        n += take;
        seq_ms += cell_ns / take.max(1) as f64 * job.replications() as f64 / 1e6;
    }
    Ok((ratio(ns, n as f64) / 1e3, seq_ms))
}

/// Single-thread µs per executive horizon, and the implied sequential
/// time (ms) of every horizon of the given points.
fn horizon_cost(specs: &[ExecutiveSpec], cap: u64) -> Result<(f64, f64), String> {
    let (mut ns, mut n, mut seq_ms) = (0f64, 0u64, 0f64);
    for spec in specs {
        let job = ExecutiveJob::from_spec(spec).map_err(err)?;
        let mut rep = job.replicator();
        let mut acc = job.empty_acc();
        let take = job.replications().min(cap);
        let t = Instant::now();
        for h in 0..take {
            rep.run_one(h, &mut acc);
        }
        black_box(&acc);
        let cell_ns = t.elapsed().as_nanos() as f64;
        ns += cell_ns;
        n += take;
        seq_ms += cell_ns / take.max(1) as f64 * job.replications() as f64 / 1e6;
    }
    Ok((ratio(ns, n as f64) / 1e3, seq_ms))
}

/// `ToJson` and `Json::parse` + `FromJson` cost over the given specs.
fn codec_cost<T: ToJson + FromJson>(specs: &[T]) -> Result<(f64, f64, f64), String> {
    let sample: Vec<&T> = specs.iter().take(256).collect();
    let rounds = (2048 / sample.len().max(1)).max(1);
    let mut texts = Vec::new();
    let t = Instant::now();
    for _ in 0..rounds {
        texts.clear();
        texts.extend(sample.iter().map(|s| black_box(s.to_json().pretty())));
    }
    let encode_us = t.elapsed().as_nanos() as f64 / (rounds * sample.len()).max(1) as f64 / 1e3;
    let t = Instant::now();
    for _ in 0..rounds {
        for text in &texts {
            let json = Json::parse(text).map_err(err)?;
            black_box(T::from_json(&json).map_err(err)?);
        }
    }
    let parse_us = t.elapsed().as_nanos() as f64 / (rounds * texts.len()).max(1) as f64 / 1e3;
    let bytes = mean(&texts.iter().map(|t| t.len() as f64).collect::<Vec<_>>());
    Ok((encode_us, parse_us, bytes))
}

/// Direct calls into the core analysis kernels at every table cell's
/// (U, λ, k, costs): ns per `num_SCP`, `num_CCP`, Fig. 4 interval and
/// speed choice.
fn core_costs() -> (f64, f64, f64, f64) {
    let dvs = DvsConfig::paper_default();
    let mut points = Vec::new();
    for id in TableId::ALL {
        let config = table_config(id);
        for cell in &config.cells {
            let f = dvs.level(config.baseline_speed).frequency;
            let cycles = cell.utilization * config.util_speed * config.deadline;
            let c = config.costs.cscp_cycles();
            let inputs = IntervalInputs {
                rd: config.deadline,
                rt: cycles / f,
                c: c / f,
                rf: f64::from(cell.k),
                lambda: cell.lambda,
            };
            let params = RenewalParams::new(
                config.costs.store_cycles / f,
                config.costs.compare_cycles / f,
                config.costs.rollback_cycles / f,
                cell.lambda,
            );
            points.push((cycles, c, cell.lambda, inputs, params));
        }
    }
    let calls = points.len() * 400;
    let at = |i: usize| &points[i % points.len()];
    let speed = ns_per_call(calls, |i| {
        let (cycles, c, lambda, inputs, _) = at(i);
        black_box(choose_speed(*cycles, inputs.rd, *c, *lambda, &dvs));
    });
    let interval = ns_per_call(calls, |i| {
        black_box(checkpoint_interval(black_box(at(i).3)));
    });
    let intervals: Vec<f64> = points.iter().map(|p| checkpoint_interval(p.3)).collect();
    let scp = ns_per_call(calls, |i| {
        let t = intervals[i % intervals.len()];
        black_box(num_scp(t, &at(i).4, OptimizeMethod::PaperClosedForm));
    });
    let ccp = ns_per_call(calls, |i| {
        let t = intervals[i % intervals.len()];
        black_box(num_ccp(t, &at(i).4, OptimizeMethod::PaperClosedForm));
    });
    (scp, ccp, interval, speed)
}

/// ns per arrival drawn through `FaultProcess` at each distinct fault spec.
fn fault_draw_cost(faults: &[&FaultSpec]) -> Result<f64, String> {
    let mut seen: Vec<String> = Vec::new();
    let (mut ns, mut draws) = (0f64, 0u64);
    for (k, spec) in faults.iter().enumerate() {
        let key = spec.to_json().pretty();
        if seen.contains(&key) {
            continue;
        }
        seen.push(key);
        let mut process = spec.build(replication_seed(7, k as u64)).map_err(err)?;
        let t = Instant::now();
        let mut n = 0u64;
        while n < 20_000 {
            n += 1;
            if !black_box(process.next_fault()).is_finite() {
                break;
            }
        }
        ns += t.elapsed().as_nanos() as f64;
        draws += n;
    }
    Ok(ratio(ns, draws as f64))
}

/// One timed round trip per block to an in-process server, and the same
/// blocks run in-process: (rtt µs samples, mean overhead µs).
fn remote_probe(spec: &ExperimentSpec) -> Result<(Vec<f64>, f64), String> {
    let server = RemoteServer::bind("127.0.0.1:0").map_err(err)?;
    let worker = RemoteWorker::new(vec![server.endpoint().to_owned()], 10_000);
    let job = Job::from_spec(spec).map_err(err)?;
    let (mut rtts, mut overheads) = (Vec::new(), Vec::new());
    for a in blocks_of(job.replications()).into_iter().take(48) {
        let t = Instant::now();
        black_box(worker.run_assignment(&job, a, 1).map_err(err)?);
        let rtt = t.elapsed().as_nanos() as f64 / 1e3;
        let t = Instant::now();
        black_box(InProcessWorker.run_assignment(&job, a, 1).map_err(err)?);
        overheads.push(rtt - t.elapsed().as_nanos() as f64 / 1e3);
        rtts.push(rtt);
    }
    Ok((rtts, mean(&overheads)))
}

/// (request bytes, response bytes, µs per `answer_request`) over blocks.
fn frame_costs(blocks: &[(ExperimentSpec, BlockAssignment)]) -> (f64, f64, f64) {
    let (mut req, mut resp, mut us) = (Vec::new(), Vec::new(), Vec::new());
    for (spec, a) in blocks {
        let mut spec = spec.clone();
        spec.executor.queue = None;
        let request = run_block_request(&spec, a.lo, a.hi);
        let t = Instant::now();
        let response = answer_request(&request);
        us.push(t.elapsed().as_nanos() as f64 / 1e3);
        req.push(request.len() as f64);
        resp.push(response.len() as f64);
    }
    (mean(&req), mean(&resp), mean(&us))
}

/// Put then get each entry through a timed wrapper on a scratch store:
/// (get µs samples, put µs samples, mean entry bytes).
fn store_probe(dir: &Path, entries: &[CellEntry]) -> Result<(Vec<f64>, Vec<f64>, f64), String> {
    let _ = std::fs::remove_dir_all(dir);
    let tracer = Arc::new(Tracer::default());
    let sizes = Arc::new(Mutex::new(Vec::new()));
    let store = TimedStore {
        inner: FsBackend::open(dir).map_err(err)?,
        tracer: Arc::clone(&tracer),
        entry_bytes: Arc::clone(&sizes),
    };
    for e in entries {
        store.put(e).map_err(err)?;
    }
    for e in entries {
        black_box(store.get(&e.cell).map_err(err)?);
    }
    let _ = std::fs::remove_dir_all(dir);
    let us = |name| {
        tracer
            .durations(name)
            .iter()
            .map(|ns| ns / 1e3)
            .collect::<Vec<_>>()
    };
    let bytes = mean(&sizes.lock().expect("size log poisoned"));
    Ok((us("store.get"), us("store.put"), bytes))
}

/// Runs the traced measurement of one workload.
pub fn traced_run(
    w: &mut dyn Workload,
    work: &Path,
    spans_file: &Path,
) -> Result<TraceOutcome, String> {
    let mut failures: Vec<String> = Vec::new();
    let mut failed = 0u64;

    // A warm-up pass, then untraced and traced passes: the difference is
    // the tracing overhead.
    let inst = Instruments::new();
    let mut passes = Vec::new();
    for (label, traced) in [("warm-up ", false), ("untraced ", false), ("traced ", true)] {
        if traced {
            w.instrument(&inst)?;
        }
        let pass = run_pass(w, traced.then_some(&*inst.tracer))?;
        let checks = w.check_pass(&pass.outs);
        failed += failed_cells(&pass.errors, &checks, label, &mut failures);
        passes.push(pass);
    }
    let attempted = passes.iter().map(|p| p.outs.len() as u64).sum();
    let reps = passes
        .iter()
        .flat_map(|p| p.outs.iter().flatten())
        .map(|o| o.reps)
        .sum();
    let (plain, traced) = (&passes[1], &passes[2]);
    let plain_ms: f64 = plain.lat_ms.iter().sum();
    let traced_ms: f64 = traced.lat_ms.iter().sum();

    let spans = inst.tracer.spans();
    let self_ms = self_times_ms(&spans);
    write_spans(spans_file, &spans).map_err(|e| format!("{}: {e}", spans_file.display()))?;
    let run_spans_ms: Vec<f64> = inst
        .tracer
        .durations("exec.run")
        .iter()
        .map(|n| n / 1e6)
        .collect();

    // Exact event counts through the Observer hook, on the sequential
    // observed path; every cell it reruns must match the traced pass (the
    // latest pass: store misses carry per-pass seeds).
    let mut counts = EventCounts::default();
    let mut counted_reps = 0u64;
    let mut summaries: Vec<(usize, Summary)> = Vec::new();
    let mut extra = Vec::new();
    let (single, executive): (Vec<&ExperimentSpec>, Vec<ExecutiveSpec>) = match w.specs() {
        Specs::Single(s) => (s.iter().collect(), Vec::new()),
        Specs::Executive(e) => (Vec::new(), e.to_vec()),
    };
    // Cells whose result came from running the engine (store hits and
    // closed-form cells did not).
    let engine_cells: Vec<usize> = traced
        .outs
        .iter()
        .enumerate()
        .filter(|(_, o)| matches!(o, Some(o) if !o.analytic && o.hit != Some(true)))
        .map(|(i, _)| i)
        .collect();
    for &i in engine_cells.iter().filter(|_| !single.is_empty()) {
        let job = Job::from_spec(single[i]).map_err(err)?;
        let summary = LocalRunner::new(PARALLELISM)
            .run_observed(&job, &mut counts)
            .map_err(err)?;
        counted_reps += job.replications();
        let out = traced.outs[i].as_ref().expect("engine cells have results");
        let digest = if out.hit.is_some() {
            summary.to_json().pretty()
        } else {
            SummaryReport::from_summary(&summary).to_json().pretty()
        };
        if digest != out.digest {
            extra.push((i, "differs from the sequential observed pass".to_owned()));
        }
        summaries.push((i, summary));
    }
    let mut exec_horizons = 0u64;
    for spec in &executive {
        for h in 0..8 {
            let mut one = spec.clone();
            one.seed = replication_seed(spec.seed, h);
            one.mc = None;
            eacp_exec::run_executive_observed(&one, &mut counts).map_err(err)?;
            exec_horizons += 1;
        }
    }
    failed += failed_cells(&[], &extra, "observed ", &mut failures);
    let per_rep = |n: u64| ratio(n as f64, (counted_reps + exec_horizons) as f64);

    // Single-thread replication and horizon costs.
    let engine_specs: Vec<&ExperimentSpec> = engine_cells
        .iter()
        .filter(|_| !single.is_empty())
        .map(|&i| single[i])
        .collect();
    let probe = probe_spec(2_000);
    let (rep_us, rep_seq_ms) = if engine_specs.is_empty() {
        (sim_rep_cost(&[&probe], 2_000)?.0, 0.0)
    } else {
        sim_rep_cost(&engine_specs, 512)?
    };
    let (horizon_us, horizon_seq_ms) = if executive.is_empty() {
        (horizon_cost(&[probe_executive()?], 256)?.0, 0.0)
    } else {
        horizon_cost(&executive, 1024)?
    };
    let seq_ms = rep_seq_ms + horizon_seq_ms;
    let run_total_ms: f64 = run_spans_ms.iter().sum();
    let parallel_efficiency = ratio(seq_ms, PARALLELISM as f64 * run_total_ms);

    // Spec layer on the workload's own inputs.
    let expand_ms = median(
        &(0..5)
            .map(|_| {
                let t = Instant::now();
                w.expand().map(|_| t.elapsed().as_secs_f64() * 1e3)
            })
            .collect::<Result<Vec<_>, _>>()?,
    );
    let (encode_us, parse_us, doc_bytes) = if single.is_empty() {
        codec_cost(&executive)?
    } else {
        codec_cost(&single.iter().map(|s| (*s).clone()).collect::<Vec<_>>())?
    };
    let hash_us = if single.is_empty() {
        ns_per_call(executive.len() * 64, |i| {
            black_box(CellId::for_executive(&executive[i % executive.len()]));
        }) / 1e3
    } else {
        let n = single.len().min(256);
        ns_per_call(n * 8, |i| {
            black_box(CellId::for_spec(single[i % n]));
        }) / 1e3
    };

    // Store layer.
    let get_spans: Vec<f64> = inst
        .tracer
        .durations("store.get")
        .iter()
        .map(|n| n / 1e3)
        .collect();
    let put_spans: Vec<f64> = inst
        .tracer
        .durations("store.put")
        .iter()
        .map(|n| n / 1e3)
        .collect();
    let (get_count, put_count) = (get_spans.len(), put_spans.len());
    let workload_bytes = inst.entry_bytes.lock().expect("size log poisoned").clone();
    let (get_us, put_us, entry_bytes) = if get_count >= 20 && put_count >= 20 {
        (get_spans, put_spans, mean(&workload_bytes))
    } else {
        let entries: Vec<CellEntry> = if single.is_empty() {
            plain
                .outs
                .iter()
                .zip(&executive)
                .filter_map(|(o, spec)| {
                    let s = ExecutiveSummary::from_json(&Json::parse(&o.as_ref()?.digest).ok()?)
                        .ok()?;
                    Some(CellEntry::executive(spec, &s))
                })
                .collect()
        } else {
            summaries
                .iter()
                .take(200)
                .map(|(i, s)| CellEntry::summary(single[*i], s))
                .collect()
        };
        store_probe(&work.join("probe-store"), &entries)?
    };

    // Remote layer.
    let blocks = inst.blocks.lock().expect("block log poisoned").clone();
    let (rtt_us, overhead_us, frame_blocks) = if blocks.is_empty() {
        let spec = engine_specs.first().map_or(&probe, |s| *s);
        let (rtts, overhead) = remote_probe(spec)?;
        let job_blocks = blocks_of(spec.mc.replications);
        let frames = job_blocks
            .into_iter()
            .take(16)
            .map(|a| (spec.clone(), a))
            .collect();
        (rtts, overhead, frames)
    } else {
        let step = (blocks.len() / 400).max(1);
        let mut jobs: Vec<Option<Job>> = (0..single.len()).map(|_| None).collect();
        let mut overheads = Vec::new();
        let mut frames = Vec::new();
        for b in blocks.iter().step_by(step) {
            let cell = b.cell as usize;
            if jobs[cell].is_none() {
                jobs[cell] = Some(Job::from_spec(single[cell]).map_err(err)?);
            }
            let job = jobs[cell].as_ref().expect("built above");
            let t = Instant::now();
            black_box(
                InProcessWorker
                    .run_assignment(job, b.assignment, 1)
                    .map_err(err)?,
            );
            overheads.push(b.rtt_ns as f64 / 1e3 - t.elapsed().as_nanos() as f64 / 1e3);
            if frames.len() < 64 {
                frames.push((single[cell].clone(), b.assignment));
            }
        }
        let rtts = blocks.iter().map(|b| b.rtt_ns as f64 / 1e3).collect();
        (rtts, mean(&overheads), frames)
    };
    let (request_bytes, response_bytes, answer_us) = frame_costs(&frame_blocks);

    // Reduction, fault sampling and core kernels.
    let merge_parts: Vec<Summary> = if summaries.is_empty() {
        vec![LocalRunner::new(1)
            .run(&Job::from_spec(&probe).map_err(err)?)
            .map_err(err)?]
    } else {
        summaries.iter().map(|(_, s)| s.clone()).collect()
    };
    let mut acc = Summary::empty();
    let merge_ns = ns_per_call(20_000, |i| {
        acc.merge(black_box(&merge_parts[i % merge_parts.len()]));
    });
    black_box(&acc);
    let fault_specs: Vec<&FaultSpec> = if single.is_empty() {
        executive.iter().map(|s| &s.faults).collect()
    } else {
        single.iter().map(|s| &s.faults).collect()
    };
    let draw_ns = fault_draw_cost(&fault_specs)?;
    let (scp_ns, ccp_ns, interval_ns, speed_ns) = core_costs();

    // Counts the workload itself produced.
    let cells_with_result: Vec<&CellOut> = traced.outs.iter().flatten().collect();
    let analytic = cells_with_result.iter().filter(|o| o.analytic).count();
    let horizons: u64 = plain
        .outs
        .iter()
        .flatten()
        .filter(|_| !executive.is_empty())
        .map(|o| o.reps)
        .sum();
    let exec_faults: u64 = plain.outs.iter().flatten().map(|o| o.faults).sum();
    let store = &inst.store;
    let gets = store.hits() + store.misses() + store.quarantined();
    let (paper_cells, paper_dp) = paper_fidelity(w, &plain.outs);
    let gaps_us: Vec<f64> = inst.queue.gaps_ns().iter().map(|n| n / 1e3).collect();

    // Accounting: Σ(layer cost × layer count) against the measured cell
    // time of the untraced pass. The engine runs on PARALLELISM threads;
    // remote overhead (spec codec, framing, loopback) on as many workers;
    // store calls and hashing run serially on the calling thread.
    let merges: usize = engine_specs
        .iter()
        .map(|s| blocks_of(s.mc.replications).len())
        .sum();
    let store_cells = if get_count > 0 { plain.outs.len() } else { 0 };
    let explained_ms = seq_ms / PARALLELISM as f64
        + (get_count as f64 * percentile(&get_us, 0.5).value
            + put_count as f64 * percentile(&put_us, 0.5).value
            + store_cells as f64 * hash_us)
            / 1e3
        + blocks.len() as f64 * overhead_us / PARALLELISM as f64 / 1e3
        + merges as f64 * merge_ns / 1e6;

    let values: Vec<f64> = vec![
        expand_ms,
        encode_us,
        parse_us,
        doc_bytes,
        get_count as f64,
        percentile(&get_us, 0.5).value,
        percentile(&get_us, 0.95).value,
        put_count as f64,
        percentile(&put_us, 0.5).value,
        percentile(&put_us, 0.95).value,
        ratio(store.hits() as f64, gets as f64),
        store.quarantined() as f64,
        entry_bytes,
        hash_us,
        percentile(&run_spans_ms, 0.5).value,
        parallel_efficiency,
        inst.queue.leases.load(Ordering::Relaxed) as f64,
        inst.queue.retries.load(Ordering::Relaxed) as f64,
        inst.queue.expiries.load(Ordering::Relaxed) as f64,
        percentile(&gaps_us, 0.5).value,
        ratio(analytic as f64, cells_with_result.len() as f64),
        percentile(&rtt_us, 0.5).value,
        percentile(&rtt_us, 0.95).value,
        overhead_us,
        request_bytes,
        response_bytes,
        answer_us,
        inst.fallbacks.load(Ordering::Relaxed) as f64,
        rep_us,
        per_rep(counts.segments),
        per_rep(counts.checkpoints),
        per_rep(counts.rollbacks),
        per_rep(counts.speed_changes),
        ratio(counts.deadline_misses as f64, counted_reps as f64),
        merge_ns,
        per_rep(counts.faults),
        draw_ns,
        scp_ns,
        ccp_ns,
        interval_ns,
        speed_ns,
        horizon_us,
        ratio(exec_faults as f64, horizons as f64),
        paper_cells as f64,
        paper_dp,
        plain_ms,
        explained_ms,
        ratio(explained_ms, plain_ms),
        plain_ms - explained_ms,
        ratio(traced_ms, plain_ms) - 1.0,
        spans.len() as f64,
    ];
    let metrics = PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit, _), value)| Metric { name, unit, value })
        .collect();
    Ok(TraceOutcome {
        metrics,
        attempted,
        failed,
        reps,
        failures,
        self_ms,
        spans_file: spans_file.display().to_string(),
    })
}
