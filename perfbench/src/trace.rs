//! The traced run's instruments: an in-memory span recorder and wrappers
//! around the workspace's public seams (`Runner`, `Worker`,
//! `StoreBackend`, `QueueObserver`, `eacp_sim::Observer`).
//!
//! Untraced runs never construct any of these; the traced run swaps them
//! in around the same calls, so a layer's cost is the span the wrapper
//! records and its count is what the observer saw.

use eacp_exec::{
    BlockAssignment, ExecutiveJob, ExecutiveSummary, Job, QueueObserver, QueueRunner, QueueStatus,
    Runner, Summary, Worker,
};
use eacp_sim::{Observer, RunOutcome, TraceEvent};
use eacp_spec::SpecError;
use eacp_store::StoreHealth;
use eacp_store::{CellEntry, CellId, EvictionReport, Lookup, RetentionPolicy, StoreBackend};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Parent id of a span with no parent.
pub const ROOT: u64 = 0;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (1-based).
    pub id: u64,
    /// Causing span, or [`ROOT`].
    pub parent: u64,
    /// Layer boundary name, e.g. `exec.run`.
    pub name: &'static str,
    /// Workload cell index the span belongs to (`u64::MAX` outside any cell).
    pub cell: u64,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span that has been opened but not yet recorded.
pub struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    entered: Option<u64>,
}

/// In-memory span store shared by every wrapper of one traced run.
///
/// The benchmark drives one cell at a time, so a single "current span"
/// slot is enough to give spans opened on pool threads (remote blocks)
/// the right parent.
pub struct Tracer {
    epoch: Instant,
    next: AtomicU64,
    current: AtomicU64,
    cell: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            current: AtomicU64::new(ROOT),
            cell: AtomicU64::new(u64::MAX),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sets the cell index stamped on spans opened from now on.
    pub fn set_cell(&self, cell: u64) {
        self.cell.store(cell, Ordering::Relaxed);
    }

    /// The cell index currently being driven.
    pub fn cell(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    /// Opens a leaf span under the current span.
    pub fn begin(&self, name: &'static str) -> Open {
        Open {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent: self.current.load(Ordering::Relaxed),
            name,
            start_ns: self.now(),
            entered: None,
        }
    }

    /// Opens a span and makes it the parent of spans opened until it ends.
    pub fn enter(&self, name: &'static str) -> Open {
        let mut open = self.begin(name);
        open.entered = Some(self.current.swap(open.id, Ordering::Relaxed));
        open
    }

    /// Closes and records a span; returns its duration in nanoseconds.
    pub fn end(&self, open: Open) -> u64 {
        let end_ns = self.now();
        if let Some(previous) = open.entered {
            self.current.store(previous, Ordering::Relaxed);
        }
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            cell: self.cell(),
            start_ns: open.start_ns,
            end_ns,
        };
        let ns = span.ns();
        self.spans
            .lock()
            .expect("span store poisoned by a panicking wrapper")
            .push(span);
        ns
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking wrapper")
            .clone()
    }

    /// Durations (ns) of every span with this name.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking wrapper")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }
}

/// Self time per span name in milliseconds: each span's duration minus
/// the union of its children's intervals (children on parallel pool
/// threads may overlap each other).
pub fn self_times_ms(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut children: std::collections::BTreeMap<u64, Vec<(u64, u64)>> = Default::default();
    for s in spans {
        if s.parent != ROOT {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut totals: Vec<(&'static str, f64)> = Vec::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let (mut lo, mut hi) = (0u64, 0u64);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                if a > hi {
                    covered += hi - lo;
                    lo = a;
                    hi = b;
                } else {
                    hi = hi.max(b);
                }
            }
            covered += hi - lo;
        }
        let own = s.ns().saturating_sub(covered) as f64 / 1e6;
        match totals.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, t)) => *t += own,
            None => totals.push((s.name, own)),
        }
    }
    totals
}

/// Writes spans as one JSON document.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let file = std::fs::File::create(path)?;
    let mut out = std::io::BufWriter::new(file);
    writeln!(out, "[")?;
    for (i, s) in spans.iter().enumerate() {
        let cell = if s.cell == u64::MAX {
            "null".to_owned()
        } else {
            s.cell.to_string()
        };
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"cell\":{},\"start_ns\":{},\"end_ns\":{}}}{}",
            s.id,
            s.parent,
            s.name,
            cell,
            s.start_ns,
            s.end_ns,
            if i + 1 < spans.len() { "," } else { "" }
        )?;
    }
    writeln!(out, "]")?;
    out.flush()
}

/// Times every `Runner` entry point as an `exec.run` span.
pub struct TimedRunner<R> {
    /// The wrapped runner.
    pub inner: R,
    /// Span sink.
    pub tracer: Arc<Tracer>,
}

impl<R: Runner> Runner for TimedRunner<R> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run(&self, job: &Job) -> Result<Summary, SpecError> {
        let span = self.tracer.enter("exec.run");
        let out = self.inner.run(job);
        self.tracer.end(span);
        out
    }

    fn run_observed(&self, job: &Job, obs: &mut dyn Observer) -> Result<Summary, SpecError> {
        let span = self.tracer.enter("exec.run");
        let out = self.inner.run_observed(job, obs);
        self.tracer.end(span);
        out
    }

    fn run_executive(&self, job: &ExecutiveJob) -> Result<ExecutiveSummary, SpecError> {
        let span = self.tracer.enter("exec.run");
        let out = self.inner.run_executive(job);
        self.tracer.end(span);
        out
    }
}

/// A `QueueRunner` whose fast path streams scheduler events into a
/// [`QueueTrace`] (`Runner::run` on a plain queue runner reports to a
/// no-op observer).
pub struct ObservedQueue<W: Worker> {
    /// The queue runner.
    pub inner: QueueRunner<W>,
    /// Scheduler telemetry sink.
    pub obs: Arc<QueueTrace>,
}

impl<W: Worker> Runner for ObservedQueue<W> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run(&self, job: &Job) -> Result<Summary, SpecError> {
        self.obs.new_run();
        self.inner.run_with(job, &*self.obs)
    }

    fn run_observed(&self, job: &Job, obs: &mut dyn Observer) -> Result<Summary, SpecError> {
        self.inner.run_observed(job, obs)
    }

    fn run_executive(&self, job: &ExecutiveJob) -> Result<ExecutiveSummary, SpecError> {
        self.inner.run_executive(job)
    }
}

/// Lease/retry/expiry counts and per-worker idle gaps from a work queue.
pub struct QueueTrace {
    tracer: Arc<Tracer>,
    /// Leases granted.
    pub leases: AtomicU64,
    /// Failed, abandoned or expired leases put back on the queue.
    pub retries: AtomicU64,
    /// The subset of `retries` that were lease-deadline expiries.
    pub expiries: AtomicU64,
    last_complete: Mutex<Vec<Option<u64>>>,
    gaps_ns: Mutex<Vec<f64>>,
}

impl QueueTrace {
    /// A fresh sink stamping times from `tracer`'s clock.
    pub fn new(tracer: Arc<Tracer>) -> Self {
        Self {
            tracer,
            leases: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            expiries: AtomicU64::new(0),
            last_complete: Mutex::new(Vec::new()),
            gaps_ns: Mutex::new(Vec::new()),
        }
    }

    /// Forgets per-worker completion times: a gap never spans two runs.
    fn new_run(&self) {
        self.last_complete
            .lock()
            .expect("queue trace poisoned")
            .clear();
    }

    /// Idle gaps (ns) between a worker's completion and its next lease.
    pub fn gaps_ns(&self) -> Vec<f64> {
        self.gaps_ns.lock().expect("queue trace poisoned").clone()
    }
}

impl QueueObserver for QueueTrace {
    fn on_lease(&self, worker: usize, _index: usize, _attempt: u32, _status: QueueStatus) {
        let now = self.tracer.now();
        self.leases.fetch_add(1, Ordering::Relaxed);
        let mut last = self.last_complete.lock().expect("queue trace poisoned");
        if let Some(Some(done)) = last.get_mut(worker).map(Option::take) {
            self.gaps_ns
                .lock()
                .expect("queue trace poisoned")
                .push(now.saturating_sub(done) as f64);
        }
    }

    fn on_complete(&self, worker: usize, _index: usize, _status: QueueStatus) {
        let now = self.tracer.now();
        let mut last = self.last_complete.lock().expect("queue trace poisoned");
        if last.len() <= worker {
            last.resize(worker + 1, None);
        }
        last[worker] = Some(now);
    }

    fn on_retry(
        &self,
        _worker: usize,
        _index: usize,
        _attempt: u32,
        error: &SpecError,
        _status: QueueStatus,
    ) {
        self.retries.fetch_add(1, Ordering::Relaxed);
        if error.to_string().contains("lease deadline exceeded") {
            self.expiries.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// One remote block as the worker wrapper saw it.
#[derive(Debug, Clone, Copy)]
pub struct BlockRecord {
    /// Workload cell the block belongs to.
    pub cell: u64,
    /// The leased replication range.
    pub assignment: BlockAssignment,
    /// Round-trip time, nanoseconds.
    pub rtt_ns: u64,
}

/// Times every leased block as a `remote.block` span and counts blocks
/// that ran on the in-process fallback attempt.
pub struct TimedWorker<W> {
    /// The wrapped worker.
    pub inner: W,
    /// Span sink.
    pub tracer: Arc<Tracer>,
    /// Lease attempt from which the wrapped worker runs in-process.
    pub fallback_attempt: u32,
    /// Blocks served by the in-process fallback.
    pub fallbacks: Arc<AtomicU64>,
    /// Every block, for the overhead replay.
    pub blocks: Arc<Mutex<Vec<BlockRecord>>>,
}

impl<W: Worker> Worker for TimedWorker<W> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run_assignment(
        &self,
        job: &Job,
        assignment: BlockAssignment,
        attempt: u32,
    ) -> Result<Summary, SpecError> {
        let span = self.tracer.begin("remote.block");
        let out = self.inner.run_assignment(job, assignment, attempt);
        let rtt_ns = self.tracer.end(span);
        if self.fallback_attempt != 0 && attempt >= self.fallback_attempt {
            self.fallbacks.fetch_add(1, Ordering::Relaxed);
        }
        self.blocks
            .lock()
            .expect("block log poisoned")
            .push(BlockRecord {
                cell: self.tracer.cell(),
                assignment,
                rtt_ns,
            });
        out
    }
}

/// Times `get`/`put` as `store.get`/`store.put` spans and records the
/// size of every entry read.
pub struct TimedStore<S> {
    /// The wrapped backend.
    pub inner: S,
    /// Span sink.
    pub tracer: Arc<Tracer>,
    /// Canonical bytes of every entry read.
    pub entry_bytes: Arc<Mutex<Vec<f64>>>,
}

impl<S: StoreBackend> StoreBackend for TimedStore<S> {
    fn get(&self, id: &CellId) -> Result<Lookup, SpecError> {
        let span = self.tracer.begin("store.get");
        let out = self.inner.get(id);
        self.tracer.end(span);
        if let Ok(Lookup::Hit { text, .. }) = &out {
            self.entry_bytes
                .lock()
                .expect("size log poisoned")
                .push(text.len() as f64);
        }
        out
    }

    fn put(&self, entry: &CellEntry) -> Result<(), SpecError> {
        let span = self.tracer.begin("store.put");
        let out = self.inner.put(entry);
        self.tracer.end(span);
        out
    }

    fn list(&self) -> Result<Vec<CellId>, SpecError> {
        self.inner.list()
    }

    fn health(&self) -> Result<StoreHealth, SpecError> {
        self.inner.health()
    }

    fn evict(&self, policy: &RetentionPolicy) -> Result<EvictionReport, SpecError> {
        self.inner.evict(policy)
    }
}

/// Exact engine-event counts through the `eacp_sim::Observer` hook.
#[derive(Debug, Default, Clone, Copy)]
pub struct EventCounts {
    /// Replications (or executive jobs) started.
    pub reps: u64,
    /// Computation segments.
    pub segments: u64,
    /// Checkpoint operations.
    pub checkpoints: u64,
    /// Rollbacks.
    pub rollbacks: u64,
    /// Speed changes.
    pub speed_changes: u64,
    /// Fault arrivals.
    pub faults: u64,
    /// Deadline misses.
    pub deadline_misses: u64,
}

impl Observer for EventCounts {
    fn on_replication_start(&mut self, _replication: u64, _seed: u64) {
        self.reps += 1;
    }

    fn on_replication_end(&mut self, _replication: u64, _outcome: &RunOutcome) {}

    fn on_event(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::Segment { .. } => self.segments += 1,
            TraceEvent::Checkpoint { .. } => self.checkpoints += 1,
            TraceEvent::Fault { .. } => self.faults += 1,
            TraceEvent::Rollback { .. } => self.rollbacks += 1,
            TraceEvent::SpeedChange { .. } => self.speed_changes += 1,
            TraceEvent::Complete { .. } | TraceEvent::Abort { .. } => {}
        }
    }

    fn on_deadline_miss(&mut self, _at: f64) {
        self.deadline_misses += 1;
    }
}
