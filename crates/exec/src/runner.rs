//! The [`Runner`] trait and the local multi-threaded implementation.
//!
//! # Determinism contract
//!
//! A runner's result must be a pure function of the job — never of the
//! machine it ran on. [`LocalRunner`] achieves this with *canonical block
//! reduction*: replications are split into fixed-size blocks whose size
//! depends only on the replication count, each block is reduced
//! sequentially into a partial [`Summary`], and the partials are merged in
//! ascending block order. Thread count only changes which worker picks up
//! which block, so the merged result is bit-identical for 1 thread, 64
//! threads, or the sequential observed path.

use crate::job::Job;
use crate::queue::BlockAssignment;
use eacp_sim::{Observer, Summary};
use eacp_spec::SpecError;

/// Executes a [`Job`] into a [`Summary`].
///
/// Implementations decide *where* replications run (local threads today;
/// the ROADMAP's batch/remote executors later) but must all preserve the
/// per-replication seeding contract, so every runner produces the same
/// per-replication outcomes.
pub trait Runner {
    /// Short implementation name for logs and reports.
    fn name(&self) -> &'static str;

    /// Runs the whole job on the fast (unobserved) path.
    fn run(&self, job: &Job) -> Result<Summary, SpecError>;

    /// Runs the whole job, streaming every replication bracket and engine
    /// event into `obs`.
    ///
    /// Observation imposes an ordering on the event stream, so runners may
    /// fall back to a sequential schedule here; the aggregate is still
    /// bit-identical to [`Runner::run`].
    fn run_observed(&self, job: &Job, obs: &mut dyn Observer) -> Result<Summary, SpecError>;

    /// Runs an executive Monte-Carlo workload: N seeded hyperperiod
    /// horizons reduced into an [`ExecutiveSummary`]
    /// ([`crate::ExecutiveSummary`]).
    ///
    /// The default is the sequential canonical reduction; implementations
    /// override it to parallelize, and the determinism contract carries
    /// over unchanged — same canonical blocks, same ascending merge, so
    /// the summary is bit-identical on every runner and pool size.
    ///
    /// [`ExecutiveSummary`]: crate::ExecutiveSummary
    ///
    /// # Errors
    ///
    /// Scheduling failures only (e.g. a work queue exhausting its retry
    /// budget); the workload itself cannot fail after validation.
    fn run_executive(
        &self,
        job: &crate::ExecutiveJob,
    ) -> Result<crate::ExecutiveSummary, SpecError> {
        Ok(crate::workload::run_workload_local(job, 1, 0))
    }
}

/// Multi-threaded in-process runner (std scoped threads, no work queues).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalRunner {
    threads: usize,
    block_size: u64,
}

impl Default for LocalRunner {
    fn default() -> Self {
        Self::new(0)
    }
}

impl LocalRunner {
    /// Creates a runner with the given worker count (0 = available
    /// parallelism).
    pub fn new(threads: usize) -> Self {
        Self {
            threads,
            block_size: 0,
        }
    }

    /// Overrides the reduction block size (0 = derive from the replication
    /// count). Changing the block size may change float rounding in the
    /// last ulp; keeping it fixed guarantees bit-identical results across
    /// thread counts.
    pub fn with_block_size(mut self, block_size: u64) -> Self {
        self.block_size = block_size;
        self
    }

    /// The reduction block size for a job of `replications`.
    ///
    /// Depends only on the replication count (never on the thread count):
    /// that is what makes the reduction canonical.
    #[cfg(test)]
    fn effective_block(&self, replications: u64) -> u64 {
        canonical_block_size(self.block_size, replications)
    }
}

/// The canonical reduction block size for a job of `replications`
/// (`override_size` wins when positive).
///
/// It depends only on the replication count, never on the thread or
/// worker count. Merging the per-block partials of [`canonical_blocks`]
/// in ascending block order is therefore bit-identical no matter which
/// runner, schedule or pool size produced them.
fn canonical_block_size(override_size: u64, replications: u64) -> u64 {
    if override_size > 0 {
        override_size
    } else {
        // ~64 blocks for large jobs (ample parallelism), bounded below
        // so tiny jobs don't degenerate into per-replication merges.
        replications.div_ceil(64).clamp(16, 8192)
    }
}

/// The canonical block schedule of a job of `replications`: contiguous
/// [`BlockAssignment`]s of [`canonical_block_size`] replications in
/// ascending block order.
///
/// Every runner path partitions through this one function — the local
/// thread pool, the sequential observed path and both work-queue paths —
/// so their partials are the same blocks and merge bit-identically.
pub(crate) fn canonical_blocks(
    override_size: u64,
    replications: u64,
) -> impl Iterator<Item = BlockAssignment> {
    let block = canonical_block_size(override_size, replications);
    (0..replications.div_ceil(block)).map(move |b| BlockAssignment {
        block: b,
        lo: b * block,
        hi: ((b + 1) * block).min(replications),
    })
}

/// Runs the whole job sequentially over its canonical blocks, streaming
/// replication brackets and engine events into `obs`.
///
/// This is the shared observed path of every runner: a shared observer
/// imposes a replication order, so runners fall back to this sequential
/// schedule — over the same canonical blocks — and the aggregate stays
/// bit-identical to their parallel fast paths. One [`Job::replicator`]
/// serves each block: executor, engine scratch and (for spec jobs) the
/// policy/fault instances are built once per block and reset, not
/// reallocated, for every replication.
pub(crate) fn run_sequential_observed<O: Observer + ?Sized>(
    job: &Job,
    block_size_override: u64,
    obs: &mut O,
) -> Summary {
    let mut total = Summary::empty();
    for block in canonical_blocks(block_size_override, job.replications()) {
        let mut replicator = job.replicator();
        let mut partial = Summary::empty();
        for rep in block.lo..block.hi {
            partial.absorb(&replicator.run_replication(rep, obs));
        }
        total.merge(&partial);
    }
    total
}

impl Runner for LocalRunner {
    fn name(&self) -> &'static str {
        "local"
    }

    /// The fast path routes through the generic [`Workload`] reduction
    /// ([`crate::workload::run_workload_local`]): the [`Job`] impl of the
    /// trait drives the same pooled [`crate::Replicator`] over the same
    /// canonical blocks, so this is the pre-refactor reduction verbatim —
    /// the golden-identity tests pin it bit for bit.
    ///
    /// [`Workload`]: crate::workload::Workload
    fn run(&self, job: &Job) -> Result<Summary, SpecError> {
        Ok(crate::workload::run_workload_local(
            job,
            self.threads,
            self.block_size,
        ))
    }

    fn run_observed(&self, job: &Job, obs: &mut dyn Observer) -> Result<Summary, SpecError> {
        // A shared observer imposes a replication order; run sequentially
        // over the same canonical blocks so the aggregate stays
        // bit-identical to the parallel fast path.
        Ok(run_sequential_observed(job, self.block_size, obs))
    }

    fn run_executive(
        &self,
        job: &crate::ExecutiveJob,
    ) -> Result<crate::ExecutiveSummary, SpecError> {
        Ok(crate::workload::run_workload_local(
            job,
            self.threads,
            self.block_size,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eacp_spec::{ExperimentSpec, McSpec};

    fn spec(reps: u64) -> ExperimentSpec {
        let mut spec = ExperimentSpec::paper_nominal();
        spec.mc = McSpec {
            replications: reps,
            seed: 42,
            threads: 0,
        };
        spec
    }

    #[test]
    fn thread_count_never_changes_the_summary() {
        let job = Job::from_spec(&spec(400)).unwrap();
        let one = LocalRunner::new(1).run(&job).unwrap();
        for threads in [2, 3, 7, 16] {
            let many = LocalRunner::new(threads).run(&job).unwrap();
            assert_eq!(one, many, "threads = {threads}");
        }
    }

    #[test]
    fn observed_run_matches_the_fast_path_bit_for_bit() {
        let job = Job::from_spec(&spec(300)).unwrap();
        let fast = LocalRunner::new(4).run(&job).unwrap();
        let mut counter = CountingObserver::default();
        let observed = LocalRunner::new(4)
            .run_observed(&job, &mut counter)
            .unwrap();
        assert_eq!(fast, observed);
        assert_eq!(counter.started, 300);
        assert_eq!(counter.finished, 300);
        assert!(counter.events > 0);
    }

    #[derive(Default)]
    struct CountingObserver {
        started: u64,
        finished: u64,
        events: u64,
    }
    impl Observer for CountingObserver {
        fn on_replication_start(&mut self, _rep: u64, _seed: u64) {
            self.started += 1;
        }
        fn on_replication_end(&mut self, _rep: u64, _out: &eacp_sim::RunOutcome) {
            self.finished += 1;
        }
        fn on_event(&mut self, _event: &eacp_sim::TraceEvent) {
            self.events += 1;
        }
    }

    #[test]
    fn block_size_depends_only_on_replications() {
        let r = LocalRunner::new(0);
        assert_eq!(r.effective_block(10), 16);
        assert_eq!(r.effective_block(10_000), 157);
        assert_eq!(r.effective_block(1_000_000), 8192);
        assert_eq!(
            LocalRunner::new(0).with_block_size(64).effective_block(10),
            64
        );
    }

    #[test]
    fn more_threads_than_blocks_is_fine() {
        let job = Job::from_spec(&spec(20)).unwrap();
        let wide = LocalRunner::new(64).run(&job).unwrap();
        let narrow = LocalRunner::new(1).run(&job).unwrap();
        assert_eq!(wide, narrow);
        assert_eq!(wide.replications, 20);
    }
}
