//! The four closed-loop workloads.
//!
//! Each workload turns the benchmark seed into its inputs (specs only —
//! the library never sees the seed), runs one cell at a time through the
//! same per-cell function the repository's own drivers loop over, and
//! checks every cell it ran.

use crate::trace::{
    BlockRecord, ObservedQueue, QueueTrace, TimedRunner, TimedStore, TimedWorker, Tracer,
};
use eacp_exec::{
    run_executive_point, run_point_tiered, ExecutiveMcReport, Job, LocalRunner, QueueRunner,
    RemoteServer, RemoteWorker, Runner,
};
use eacp_experiments::paper::paper_cell;
use eacp_experiments::{cell_experiment_exec, table_config, SchemeId, TableId};
use eacp_sim::replication_seed;
use eacp_spec::{
    ExecSpec, ExecutiveSpec, ExecutiveSweepAxis, ExecutiveSweepSpec, ExperimentSpec, FromJson,
    Json, QueueSpec, RunReport, ServeTier, SweepAxis, SweepSpec, ToJson,
};
use eacp_store::{
    run_cached_with_tiered, CacheMode, CacheOutcome, CachedRun, FsBackend, NoopStoreObserver,
    StoreBackend, StoreCounters,
};
use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};

/// Workload names, in documentation order.
pub const WORKLOADS: [&str; 4] = [
    "paper_tables",
    "fleet_sweep",
    "store_resume",
    "executive_sweep",
];

/// Threads, queue workers and loopback endpoints: never more than the
/// 2 busy threads of a 2-core host.
pub const PARALLELISM: usize = 2;

const TABLE1A_SWEEP: &str = include_str!("../inputs/table1a-sweep.json");
const AVIONICS_SWEEP: &str = include_str!("../inputs/avionics-trio-sweep.json");

/// Input sizes. [`Size::full`] is the benchmark; [`Size::toy`] is for the
/// self-tests.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Replications per paper-table experiment.
    pub paper_reps: u64,
    /// Replications per fleet grid point.
    pub fleet_reps: u64,
    /// Values on the fleet grid's seed axis (× 8 table-1(a) points).
    pub fleet_seeds: u64,
    /// Replications per store cell.
    pub store_reps: u64,
    /// Values on the store grid's seed axis (× 8 table-1(a) points).
    pub store_seeds: u64,
    /// Horizons per one-hyperperiod executive cell.
    pub exec_horizons: u64,
    /// Values on the executive grid's seed axis (× 6 avionics points).
    pub exec_seeds: u64,
    /// Passes a timed run makes at least, so every cell has a median.
    pub min_passes: u64,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_repeats: usize,
}

impl Size {
    /// The benchmark's sizes.
    pub fn full() -> Self {
        Self {
            paper_reps: 10_000,
            fleet_reps: 2_000,
            fleet_seeds: 26,
            store_reps: 64,
            store_seeds: 54,
            exec_horizons: 1_000,
            exec_seeds: 34,
            min_passes: 3,
            setup_repeats: 5,
        }
    }

    /// Seconds-long sizes for the self-tests.
    pub fn toy() -> Self {
        Self {
            paper_reps: 32,
            fleet_reps: 96,
            fleet_seeds: 1,
            store_reps: 16,
            store_seeds: 2,
            exec_horizons: 24,
            exec_seeds: 1,
            min_passes: 1,
            setup_repeats: 1,
        }
    }
}

/// What one cell call returned, before digesting (digests are computed
/// outside the timed region).
pub enum Raw {
    /// A `run_point_tiered` report.
    Report(RunReport),
    /// A `run_cached_with_tiered` result.
    Cached(Box<CachedRun>),
    /// A `run_executive_point` report.
    Exec(ExecutiveMcReport),
}

/// A digested cell result.
#[derive(Debug, Clone)]
pub struct CellOut {
    /// The result's canonical JSON text (lossless where the call returns
    /// the exact aggregate).
    pub digest: String,
    /// Replications (horizons) the result covers.
    pub reps: u64,
    /// Store outcome, for cache-or-compute cells.
    pub hit: Option<bool>,
    /// Whether the closed-form tier answered the cell.
    pub analytic: bool,
    /// Policy anomalies in the aggregate.
    pub anomalies: u64,
    /// Probability of timely completion (single-task cells).
    pub p_timely: Option<f64>,
    /// Fault arrivals in the aggregate (executive cells).
    pub faults: u64,
}

impl CellOut {
    /// Digests a raw cell result.
    pub fn of(raw: &Raw) -> Self {
        match raw {
            Raw::Report(r) => Self {
                digest: r.summary.to_json().pretty(),
                reps: r.summary.replications,
                hit: None,
                analytic: r.served == ServeTier::Analytic,
                anomalies: r.summary.anomalies,
                p_timely: Some(r.summary.p_timely),
                faults: 0,
            },
            Raw::Cached(c) => Self {
                digest: c.summary.to_json().pretty(),
                reps: c.summary.replications,
                hit: Some(c.cache == CacheOutcome::Hit),
                analytic: c.report.served == ServeTier::Analytic,
                anomalies: c.summary.anomalies,
                p_timely: Some(c.summary.p_timely()),
                faults: 0,
            },
            Raw::Exec(e) => Self {
                digest: e.summary.to_json().pretty(),
                reps: e.summary.horizons,
                hit: None,
                analytic: false,
                anomalies: 0,
                p_timely: None,
                faults: e.summary.faults,
            },
        }
    }
}

/// The workload's cell inputs.
pub enum Specs<'a> {
    /// Single-task Monte-Carlo experiments.
    Single(&'a [ExperimentSpec]),
    /// Executive (periodic task-set) Monte-Carlo points.
    Executive(&'a [ExecutiveSpec]),
}

/// The traced run's shared instruments.
#[derive(Clone)]
pub struct Instruments {
    /// Span sink.
    pub tracer: Arc<Tracer>,
    /// Work-queue telemetry.
    pub queue: Arc<QueueTrace>,
    /// Remote blocks served by the in-process fallback.
    pub fallbacks: Arc<AtomicU64>,
    /// Every remote block.
    pub blocks: Arc<Mutex<Vec<BlockRecord>>>,
    /// Store hit/miss/record/quarantine counts.
    pub store: Arc<StoreCounters>,
    /// Canonical bytes of store entries read.
    pub entry_bytes: Arc<Mutex<Vec<f64>>>,
}

impl Instruments {
    /// Fresh, empty instruments.
    pub fn new() -> Self {
        let tracer = Arc::new(Tracer::default());
        Self {
            queue: Arc::new(QueueTrace::new(Arc::clone(&tracer))),
            tracer,
            fallbacks: Arc::new(AtomicU64::new(0)),
            blocks: Arc::new(Mutex::new(Vec::new())),
            store: Arc::new(StoreCounters::new()),
            entry_bytes: Arc::new(Mutex::new(Vec::new())),
        }
    }
}

impl Default for Instruments {
    fn default() -> Self {
        Self::new()
    }
}

/// One closed-loop workload.
pub trait Workload {
    /// Cells per pass.
    fn cells(&self) -> usize;
    /// The cell inputs, in cell order.
    fn specs(&self) -> Specs<'_>;
    /// (threads per cell, queue workers, loopback endpoints).
    fn parallelism(&self) -> (usize, usize, usize);
    /// Swaps the runner (and store) for traced wrappers.
    fn instrument(&mut self, inst: &Instruments) -> Result<(), String>;
    /// Untimed preparation before each pass.
    fn begin_pass(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// Runs cell `i`: the timed call.
    fn run_cell(&self, i: usize) -> Result<Raw, String>;
    /// Checks one pass's results; returns `(cell, reason)` per failure.
    fn check_pass(&mut self, outs: &[Option<CellOut>]) -> Vec<(usize, String)>;
    /// Regenerates the cell inputs from scratch (the `spec.expand_ms`
    /// probe); returns the cell count.
    fn expand(&self) -> Result<usize, String>;
    /// The paper's `P` for cell `i`, where the paper reports one.
    fn paper_p(&self, _i: usize) -> Option<f64> {
        None
    }
}

/// Pass-over-pass determinism plus fixed reference digests.
struct Checker {
    reference: Vec<(usize, String)>,
    first: Option<Vec<Option<String>>>,
    repeat: bool,
}

impl Checker {
    fn with_reference(reference: Vec<(usize, String)>, inject_mismatch: bool) -> Self {
        let mut check = Self {
            reference,
            first: None,
            repeat: true,
        };
        if inject_mismatch {
            if let Some((_, digest)) = check.reference.first_mut() {
                digest.push_str("\n(injected mismatch)");
            }
        }
        check
    }

    /// For workloads whose inputs change from pass to pass.
    fn without_repeat_check(mut self) -> Self {
        self.repeat = false;
        self
    }

    fn check(&mut self, outs: &[Option<CellOut>]) -> Vec<(usize, String)> {
        let mut failures = Vec::new();
        for (i, out) in outs.iter().enumerate() {
            if let Some(o) = out {
                if o.anomalies != 0 {
                    failures.push((i, format!("{} policy anomalies", o.anomalies)));
                }
            }
        }
        for (i, want) in &self.reference {
            if let Some(o) = &outs[*i] {
                if &o.digest != want {
                    failures.push((*i, "result differs from the reference computation".into()));
                }
            }
        }
        match &self.first {
            _ if !self.repeat => {}
            None => {
                self.first = Some(
                    outs.iter()
                        .map(|o| o.as_ref().map(|o| o.digest.clone()))
                        .collect(),
                )
            }
            Some(first) => {
                for (i, (o, f)) in outs.iter().zip(first).enumerate() {
                    if let (Some(o), Some(f)) = (o, f) {
                        if &o.digest != f {
                            failures.push((i, "result differs from the first pass".into()));
                        }
                    }
                }
            }
        }
        failures
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn report_digest(summary: &eacp_exec::Summary) -> String {
    eacp_spec::SummaryReport::from_summary(summary)
        .to_json()
        .pretty()
}

/// Builds the named workload.
pub fn setup(
    name: &str,
    seed: u64,
    size: Size,
    work: &std::path::Path,
    inject_mismatch: bool,
) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "paper_tables" => Box::new(PaperTables::setup(seed, size, inject_mismatch)?),
        "fleet_sweep" => Box::new(FleetSweep::setup(seed, size, inject_mismatch)?),
        "store_resume" => Box::new(StoreResume::setup(seed, size, work, inject_mismatch)?),
        "executive_sweep" => Box::new(ExecutiveSweep::setup(seed, size, inject_mismatch)?),
        other => {
            return Err(format!(
                "unknown workload {other:?} (expected one of {WORKLOADS:?})"
            ))
        }
    })
}

// ---------------------------------------------------------------- paper_tables

/// All 208 (cell × scheme) experiments of Tables 1–4.
pub struct PaperTables {
    seed: u64,
    size: Size,
    specs: Vec<ExperimentSpec>,
    paper: Vec<Option<f64>>,
    runner: Box<dyn Runner>,
    check: Checker,
}

fn paper_specs(seed: u64, reps: u64) -> (Vec<ExperimentSpec>, Vec<Option<f64>>) {
    let mut specs = Vec::new();
    let mut paper = Vec::new();
    for id in TableId::ALL {
        let config = table_config(id);
        for cell in &config.cells {
            let row = paper_cell(id, cell.part, cell.utilization, cell.lambda);
            for scheme in SchemeId::ALL {
                let mc_seed = replication_seed(seed, specs.len() as u64);
                specs.push(cell_experiment_exec(
                    &config,
                    cell,
                    scheme,
                    reps,
                    mc_seed,
                    ExecSpec::default(),
                ));
                paper.push(row.map(|r| r.p_of(scheme)));
            }
        }
    }
    (specs, paper)
}

impl PaperTables {
    fn setup(seed: u64, size: Size, inject_mismatch: bool) -> Result<Self, String> {
        let (specs, paper) = paper_specs(seed, size.paper_reps);
        // The reference is the sequential observed path (the traced run's
        // path) on eight fixed cells spread over tables and schemes.
        let mut reference = Vec::new();
        for k in 0..8 {
            let i = (k * 26 + k % 4) % specs.len();
            let job = Job::from_spec(&specs[i]).map_err(err)?;
            let summary = LocalRunner::new(PARALLELISM)
                .run_observed(&job, &mut eacp_sim::NoopObserver)
                .map_err(err)?;
            reference.push((i, report_digest(&summary)));
        }
        Ok(Self {
            seed,
            size,
            specs,
            paper,
            runner: Box::new(LocalRunner::new(PARALLELISM)),
            check: Checker::with_reference(reference, inject_mismatch),
        })
    }
}

impl Workload for PaperTables {
    fn cells(&self) -> usize {
        self.specs.len()
    }

    fn specs(&self) -> Specs<'_> {
        Specs::Single(&self.specs)
    }

    fn parallelism(&self) -> (usize, usize, usize) {
        (PARALLELISM, 0, 0)
    }

    fn instrument(&mut self, inst: &Instruments) -> Result<(), String> {
        self.runner = Box::new(TimedRunner {
            inner: LocalRunner::new(PARALLELISM),
            tracer: Arc::clone(&inst.tracer),
        });
        Ok(())
    }

    fn run_cell(&self, i: usize) -> Result<Raw, String> {
        run_point_tiered(&*self.runner, &self.specs[i], true)
            .map(Raw::Report)
            .map_err(err)
    }

    fn check_pass(&mut self, outs: &[Option<CellOut>]) -> Vec<(usize, String)> {
        self.check.check(outs)
    }

    fn expand(&self) -> Result<usize, String> {
        Ok(paper_specs(self.seed, self.size.paper_reps).0.len())
    }

    fn paper_p(&self, i: usize) -> Option<f64> {
        self.paper[i]
    }
}

// ----------------------------------------------------------------- fleet_sweep

fn table1a_grid(seed: u64, reps: u64, seeds: u64, salt: u64) -> Result<SweepSpec, String> {
    let mut sweep = SweepSpec::from_json(&Json::parse(TABLE1A_SWEEP).map_err(err)?).map_err(err)?;
    sweep.base.mc.replications = reps;
    sweep.axes.push(SweepAxis::Seed(
        (0..seeds)
            .map(|j| replication_seed(seed ^ salt, j))
            .collect(),
    ));
    Ok(sweep)
}

/// A table-1(a) grid × a seed axis through `QueueRunner(2)` +
/// `RemoteWorker` to two in-process block servers.
pub struct FleetSweep {
    sweep: SweepSpec,
    specs: Vec<ExperimentSpec>,
    queue: QueueSpec,
    runner: Box<dyn Runner>,
    check: Checker,
    // Declared last: dropped after the runner that talks to them.
    _servers: Vec<RemoteServer>,
}

fn fleet_queue(servers: &[RemoteServer]) -> QueueSpec {
    QueueSpec {
        workers: PARALLELISM,
        endpoints: servers.iter().map(|s| s.endpoint().to_owned()).collect(),
        ..Default::default()
    }
}

impl FleetSweep {
    fn setup(seed: u64, size: Size, inject_mismatch: bool) -> Result<Self, String> {
        let sweep = table1a_grid(seed, size.fleet_reps, size.fleet_seeds, 0xF1EE7)?;
        let specs = sweep.expand().map_err(err)?;
        let servers = (0..PARALLELISM)
            .map(|_| RemoteServer::bind("127.0.0.1:0"))
            .collect::<Result<Vec<_>, _>>()
            .map_err(err)?;
        let queue = fleet_queue(&servers);
        queue.validate().map_err(err)?;
        // The same points run locally give the reference for every cell.
        let local = LocalRunner::new(PARALLELISM);
        let reference = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                run_point_tiered(&local, spec, true).map(|r| (i, r.summary.to_json().pretty()))
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(err)?;
        // The `eacp sweep --queue --endpoints` wiring (`eacp_exec::run_tiered`).
        let worker = RemoteWorker::from_queue_spec(&queue);
        let lease_timeout = worker.lease_timeout();
        let runner = QueueRunner::new(queue.workers)
            .with_max_attempts(queue.max_attempts)
            .with_worker(worker)
            .with_lease_timeout(lease_timeout);
        Ok(Self {
            sweep,
            specs,
            queue,
            runner: Box::new(runner),
            check: Checker::with_reference(reference, inject_mismatch),
            _servers: servers,
        })
    }
}

impl Workload for FleetSweep {
    fn cells(&self) -> usize {
        self.specs.len()
    }

    fn specs(&self) -> Specs<'_> {
        Specs::Single(&self.specs)
    }

    fn parallelism(&self) -> (usize, usize, usize) {
        (PARALLELISM, self.queue.workers, self.queue.endpoints.len())
    }

    fn instrument(&mut self, inst: &Instruments) -> Result<(), String> {
        let remote = RemoteWorker::from_queue_spec(&self.queue);
        let lease_timeout = remote.lease_timeout();
        let worker = TimedWorker {
            inner: remote,
            tracer: Arc::clone(&inst.tracer),
            fallback_attempt: self.queue.max_attempts.max(1),
            fallbacks: Arc::clone(&inst.fallbacks),
            blocks: Arc::clone(&inst.blocks),
        };
        let queue = QueueRunner::new(self.queue.workers)
            .with_max_attempts(self.queue.max_attempts)
            .with_worker(worker)
            .with_lease_timeout(lease_timeout);
        self.runner = Box::new(TimedRunner {
            inner: ObservedQueue {
                inner: queue,
                obs: Arc::clone(&inst.queue),
            },
            tracer: Arc::clone(&inst.tracer),
        });
        Ok(())
    }

    fn run_cell(&self, i: usize) -> Result<Raw, String> {
        run_point_tiered(&*self.runner, &self.specs[i], true)
            .map(Raw::Report)
            .map_err(err)
    }

    fn check_pass(&mut self, outs: &[Option<CellOut>]) -> Vec<(usize, String)> {
        self.check.check(outs)
    }

    fn expand(&self) -> Result<usize, String> {
        self.sweep.expand().map(|s| s.len()).map_err(err)
    }
}

// ---------------------------------------------------------------- store_resume

/// A resumed sweep against an `FsBackend` that set-up filled with an
/// index-determined two thirds of the grid. Every pass resumes the same
/// grid: the filled cells are hits, and the remaining third carry fresh
/// per-pass seeds, so they are misses in every pass without the store
/// being emptied and refilled between passes.
pub struct StoreResume {
    sweep: SweepSpec,
    specs: Vec<ExperimentSpec>,
    filled: Vec<bool>,
    seed: u64,
    dir: PathBuf,
    work: PathBuf,
    pass: u64,
    store: Box<dyn StoreBackend>,
    counters: Option<Arc<StoreCounters>>,
    runner: Box<dyn Runner>,
    check: Checker,
}

/// Cell `i` is stored by set-up when this holds. Two thirds rather than
/// half: with the uniform latency metrics, p50 then reads the hit path
/// and p95 the miss path instead of the gap between them.
fn prefilled(i: usize) -> bool {
    i % 3 != 2
}

impl StoreResume {
    fn setup(
        seed: u64,
        size: Size,
        work: &std::path::Path,
        inject_mismatch: bool,
    ) -> Result<Self, String> {
        let sweep = table1a_grid(seed, size.store_reps, size.store_seeds, 0x5707E)?;
        let specs = sweep.expand().map_err(err)?;
        let filled: Vec<bool> = (0..specs.len()).map(prefilled).collect();
        let _ = std::fs::remove_dir_all(work);
        let dir = work.join("cells");
        let fs = FsBackend::open(&dir).map_err(err)?;
        let local = LocalRunner::new(PARALLELISM);
        let mut reference = Vec::new();
        for (i, spec) in specs.iter().enumerate().filter(|(i, _)| filled[*i]) {
            let run = run_cached_with_tiered(
                spec,
                &local,
                &fs,
                CacheMode::ReadWrite,
                &NoopStoreObserver,
                true,
            )
            .map_err(err)?;
            reference.push((i, run.summary.to_json().pretty()));
        }
        Ok(Self {
            sweep,
            specs,
            filled,
            seed,
            dir,
            work: work.to_path_buf(),
            pass: 0,
            store: Box::new(fs),
            counters: None,
            runner: Box::new(local),
            check: Checker::with_reference(reference, inject_mismatch).without_repeat_check(),
        })
    }

    /// Compares cell `i`'s result with a fresh single-thread computation.
    fn recompute(&self, i: usize, out: &CellOut) -> Option<(usize, String)> {
        let fresh = Job::from_spec(&self.specs[i])
            .and_then(|job| LocalRunner::new(1).run(&job))
            .map(|s| s.to_json().pretty());
        (fresh.as_deref() != Ok(out.digest.as_str())).then(|| {
            (
                i,
                "stored or computed cell differs from recomputation".to_owned(),
            )
        })
    }
}

impl Drop for StoreResume {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.work);
    }
}

impl Workload for StoreResume {
    fn cells(&self) -> usize {
        self.specs.len()
    }

    fn specs(&self) -> Specs<'_> {
        Specs::Single(&self.specs)
    }

    fn parallelism(&self) -> (usize, usize, usize) {
        (PARALLELISM, 0, 0)
    }

    fn instrument(&mut self, inst: &Instruments) -> Result<(), String> {
        self.runner = Box::new(TimedRunner {
            inner: LocalRunner::new(PARALLELISM),
            tracer: Arc::clone(&inst.tracer),
        });
        self.store = Box::new(TimedStore {
            inner: FsBackend::open(&self.dir).map_err(err)?,
            tracer: Arc::clone(&inst.tracer),
            entry_bytes: Arc::clone(&inst.entry_bytes),
        });
        self.counters = Some(Arc::clone(&inst.store));
        Ok(())
    }

    fn begin_pass(&mut self) -> Result<(), String> {
        self.pass += 1;
        let n = self.specs.len() as u64;
        for (i, spec) in self.specs.iter_mut().enumerate() {
            if !self.filled[i] {
                spec.mc.seed = replication_seed(self.seed ^ 0x3155, self.pass * n + i as u64);
            }
        }
        Ok(())
    }

    fn run_cell(&self, i: usize) -> Result<Raw, String> {
        let spec = &self.specs[i];
        let store = &*self.store;
        let run = match &self.counters {
            Some(c) => {
                run_cached_with_tiered(spec, &*self.runner, store, CacheMode::ReadWrite, &**c, true)
            }
            None => run_cached_with_tiered(
                spec,
                &*self.runner,
                store,
                CacheMode::ReadWrite,
                &NoopStoreObserver,
                true,
            ),
        };
        run.map(|r| Raw::Cached(Box::new(r))).map_err(err)
    }

    fn check_pass(&mut self, outs: &[Option<CellOut>]) -> Vec<(usize, String)> {
        let mut failures = self.check.check(outs);
        for (i, out) in outs.iter().enumerate() {
            if let Some(o) = out {
                if o.hit != Some(self.filled[i]) {
                    let want = if self.filled[i] { "hit" } else { "miss" };
                    failures.push((
                        i,
                        format!("expected a store {want}, setup coverage says so"),
                    ));
                }
            }
        }
        // A fixed sample of hits and misses on the first pass, and one
        // rotating miss on every later pass, must equal a fresh
        // single-thread recomputation.
        let n = self.specs.len();
        let sample: Vec<usize> = if self.pass == 1 {
            (0..8).map(|k| (k * n / 8 + k % 3) % n).collect()
        } else {
            vec![3 * (self.pass as usize % (n / 3).max(1)) + 2]
        };
        for i in sample.into_iter().filter(|&i| i < n) {
            if let Some(o) = &outs[i] {
                failures.extend(self.recompute(i, o));
            }
        }
        failures
    }

    fn expand(&self) -> Result<usize, String> {
        self.sweep.expand().map(|s| s.len()).map_err(err)
    }
}

// ------------------------------------------------------------- executive_sweep

/// The avionics-trio executive grid × a seed axis, with raised horizon
/// counts.
pub struct ExecutiveSweep {
    sweep: ExecutiveSweepSpec,
    specs: Vec<ExecutiveSpec>,
    runner: Box<dyn Runner>,
    check: Checker,
}

fn avionics_grid(seed: u64, horizons: u64, seeds: u64) -> Result<ExecutiveSweepSpec, String> {
    let mut sweep =
        ExecutiveSweepSpec::from_json(&Json::parse(AVIONICS_SWEEP).map_err(err)?).map_err(err)?;
    sweep.axes.push(ExecutiveSweepAxis::Seed(
        (0..seeds)
            .map(|j| replication_seed(seed ^ 0xE4EC, j))
            .collect(),
    ));
    let mc = sweep
        .base
        .mc
        .as_mut()
        .ok_or("the executive grid input has no mc block")?;
    mc.replications = horizons;
    mc.threads = PARALLELISM;
    Ok(sweep)
}

/// The grid's points with horizons scaled so every point simulates the
/// same number of hyperperiods: cells then cost about the same, and the
/// latency percentiles fall inside one distribution rather than between
/// the 1- and 2-hyperperiod groups.
fn executive_points(sweep: &ExecutiveSweepSpec) -> Result<Vec<ExecutiveSpec>, String> {
    let mut specs = sweep.expand().map_err(err)?;
    for spec in &mut specs {
        let hyperperiods = u64::from(spec.hyperperiods.max(1));
        if let Some(mc) = spec.mc.as_mut() {
            mc.replications = (mc.replications / hyperperiods).max(1);
        }
    }
    Ok(specs)
}

impl ExecutiveSweep {
    fn setup(seed: u64, size: Size, inject_mismatch: bool) -> Result<Self, String> {
        let sweep = avionics_grid(seed, size.exec_horizons, size.exec_seeds)?;
        let specs = executive_points(&sweep)?;
        // Six points, index-determined by the seed, run at 1 thread:
        // every pass's 2-thread results must equal them.
        let n = specs.len();
        let mut reference = Vec::new();
        for k in (0..6).map(|k| (k * n / 6 + seed as usize) % n) {
            let one = run_executive_point(&LocalRunner::new(1), &specs[k]).map_err(err)?;
            reference.push((k, one.summary.to_json().pretty()));
        }
        Ok(Self {
            sweep,
            specs,
            runner: Box::new(LocalRunner::new(PARALLELISM)),
            check: Checker::with_reference(reference, inject_mismatch),
        })
    }
}

impl Workload for ExecutiveSweep {
    fn cells(&self) -> usize {
        self.specs.len()
    }

    fn specs(&self) -> Specs<'_> {
        Specs::Executive(&self.specs)
    }

    fn parallelism(&self) -> (usize, usize, usize) {
        (PARALLELISM, 0, 0)
    }

    fn instrument(&mut self, inst: &Instruments) -> Result<(), String> {
        self.runner = Box::new(TimedRunner {
            inner: LocalRunner::new(PARALLELISM),
            tracer: Arc::clone(&inst.tracer),
        });
        Ok(())
    }

    fn run_cell(&self, i: usize) -> Result<Raw, String> {
        run_executive_point(&*self.runner, &self.specs[i])
            .map(Raw::Exec)
            .map_err(err)
    }

    fn check_pass(&mut self, outs: &[Option<CellOut>]) -> Vec<(usize, String)> {
        self.check.check(outs)
    }

    fn expand(&self) -> Result<usize, String> {
        executive_points(&self.sweep).map(|s| s.len())
    }
}
