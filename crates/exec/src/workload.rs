//! The [`Workload`] trait: what a runner actually replicates.
//!
//! The execution core used to be welded to one replication unit — a
//! single-task [`Job`] reduced into a [`Summary`]. This module abstracts
//! the unit out: a [`Workload`] is anything that can run replication `i`
//! (seeded by the workspace contract) into a mergeable accumulator, and
//! the canonical fixed-block reduction — the partition rule that makes
//! results bit-identical across thread and worker counts — is written
//! once, generically: [`run_workload_local`] here, and the work-queue
//! lease body behind [`crate::QueueRunner`].
//!
//! Two implementations ship:
//!
//! * [`Job`] (accumulator [`Summary`]) — the existing single-task
//!   replication path. [`crate::LocalRunner::run`] routes through the
//!   generic reduction, and the golden-identity tests pin it bit-identical
//!   to the pre-refactor behavior.
//! * [`crate::ExecutiveJob`] (accumulator [`crate::ExecutiveSummary`]) —
//!   one replication is one seeded EDF-executive hyperperiod horizon.
//!
//! # Determinism contract
//!
//! The reduction never depends on thread or worker count: blocks come
//! from [`canonical_blocks`] (a function of the replication count
//! alone), each block is reduced sequentially by a pooled
//! [`Workload::Rep`] driver, and the per-block partials merge in
//! ascending block order. A driver's caches are exact-key, so which
//! blocks one driver served never shows in a result.

use crate::queue::BlockAssignment;
use crate::runner::canonical_blocks;
use eacp_sim::{NoopObserver, Summary};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// A replication unit a runner can reduce: build a pooled driver, run
/// seeded replications through it, merge the partials.
pub trait Workload: Sync {
    /// The mergeable accumulator replications absorb into.
    type Acc: Send;
    /// The pooled replication driver — built once per local worker or per
    /// leased queue block ([`Workload::replicator`]), then reset per
    /// replication, so the replication loop itself allocates nothing.
    type Rep<'w>: Replicate<Acc = Self::Acc>
    where
        Self: 'w;

    /// Number of replications the workload plans.
    fn replications(&self) -> u64;

    /// A fresh accumulator: the identity element of [`Workload::merge_acc`].
    fn empty_acc(&self) -> Self::Acc;

    /// Merges a partial into the running total. Callers merge partials in
    /// ascending block order, which is what makes float moments
    /// bit-identical across schedules.
    fn merge_acc(into: &mut Self::Acc, part: &Self::Acc);

    /// Builds a pooled driver (setup, may allocate). A driver may serve
    /// any number of blocks of this workload, in any order.
    fn replicator(&self) -> Self::Rep<'_>;
}

/// Runs one seeded replication of a [`Workload`] into its accumulator.
pub trait Replicate {
    /// The accumulator type (matches the owning workload's).
    type Acc;

    /// Runs replication `replication` under the workspace seeding
    /// contract and absorbs its outcome into `acc`.
    fn run_one(&mut self, replication: u64, acc: &mut Self::Acc);
}

/// [`Workload`] for the single-task Monte-Carlo [`Job`]: one replication
/// is one engine run, accumulated into a [`Summary`]. The pooled driver is
/// the existing [`crate::Replicator`] — the zero-allocation hot path the
/// `alloc-count` witness pins.
impl Workload for crate::job::Job {
    type Acc = Summary;
    type Rep<'w> = JobReplicate<'w>;

    fn replications(&self) -> u64 {
        crate::job::Job::replications(self)
    }

    fn empty_acc(&self) -> Summary {
        Summary::empty()
    }

    fn merge_acc(into: &mut Summary, part: &Summary) {
        into.merge(part);
    }

    fn replicator(&self) -> JobReplicate<'_> {
        JobReplicate(crate::job::Job::replicator(self))
    }
}

/// The [`Job`] driver: wraps the pooled [`crate::Replicator`] on the blind
/// fast path (the observed paths stay on [`crate::Runner::run_observed`]).
///
/// [`Job`]: crate::job::Job
pub struct JobReplicate<'w>(crate::job::Replicator<'w>);

impl Replicate for JobReplicate<'_> {
    type Acc = Summary;

    fn run_one(&mut self, replication: u64, acc: &mut Summary) {
        let out = self.0.run_replication(replication, &mut NoopObserver);
        acc.absorb(&out);
    }
}

/// Reduces one contiguous block `[lo, hi)` of a workload sequentially:
/// one pooled driver serves the whole block.
// audit:setup: per-block orchestration — builds the pooled driver and the
// empty accumulator once; the replication loop itself is `run_one`, which
// stays under the hot-path allocation rule.
pub(crate) fn run_workload_block<W: Workload + ?Sized>(workload: &W, lo: u64, hi: u64) -> W::Acc {
    let mut driver = workload.replicator();
    let mut partial = workload.empty_acc();
    for rep in lo..hi {
        driver.run_one(rep, &mut partial);
    }
    partial
}

/// What the workers of [`run_workload_local`] share: the canonical block
/// schedule, handed out in ascending order, and the running total, which
/// absorbs each partial as soon as every earlier block is absorbed.
struct Reduction<B, A> {
    blocks: B,
    next_merge: u64,
    total: A,
    /// Partials that finished while an earlier block was still running.
    waiting: BTreeMap<u64, A>,
}

/// One worker of [`run_workload_local`]: builds its pooled driver once,
/// then reduces blocks from the shared schedule until it runs dry.
fn drain<W, B>(workload: &W, shared: &Mutex<Reduction<B, W::Acc>>)
where
    W: Workload,
    B: Iterator<Item = BlockAssignment>,
{
    // audit:allow(panic): the lock is poisoned only by a panic inside
    // `merge_acc`; this re-raises it instead of merging into a half-updated
    // total.
    let lock = || shared.lock().expect("reduction lock poisoned by a panic");
    let mut driver = workload.replicator();
    loop {
        let Some(block) = lock().blocks.next() else {
            return;
        };
        let mut partial = workload.empty_acc();
        for rep in block.lo..block.hi {
            driver.run_one(rep, &mut partial);
        }
        let state = &mut *lock();
        state.waiting.insert(block.block, partial);
        while let Some(ready) = state.waiting.remove(&state.next_merge) {
            W::merge_acc(&mut state.total, &ready);
            state.next_merge += 1;
        }
    }
}

/// The canonical in-process reduction of any [`Workload`]: fixed-size
/// blocks handed to a work-stealing pool of `threads` workers (the caller
/// is one of them), partials merged in ascending block order.
/// Bit-identical for any `threads` value.
///
/// The block schedule is streamed, never collected, and a partial waits
/// only while an earlier block is still running, so memory does not grow
/// with the replication count. Each worker reuses one pooled driver for
/// every block it takes: the plan, argmin and fault-free memo caches it
/// carries across blocks are exact-key, so reuse never moves a bit.
// audit:setup: per-run orchestration — the shared schedule and the worker
// threads are set up once per run; the replication loop is `run_one`.
pub fn run_workload_local<W: Workload>(
    workload: &W,
    threads: usize,
    block_size_override: u64,
) -> W::Acc {
    let blocks = canonical_blocks(block_size_override, workload.replications());
    // 0 threads = available parallelism; never more workers than blocks.
    let threads = match threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        t => t,
    }
    .clamp(1, blocks.size_hint().0.max(1));
    let shared = Mutex::new(Reduction {
        blocks,
        next_merge: 0,
        total: workload.empty_acc(),
        waiting: BTreeMap::new(),
    });
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(|| drain(workload, &shared));
        }
        drain(workload, &shared);
    });
    // audit:allow(panic): a worker's panic resurfaced when the scope
    // joined, so the lock cannot be poisoned here.
    let state = shared.into_inner().expect("every worker joined cleanly");
    debug_assert!(state.waiting.is_empty(), "every block merged in order");
    state.total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;
    use crate::queue::QueueRunner;
    use crate::runner::{LocalRunner, Runner};
    use eacp_spec::{ExperimentSpec, McSpec};

    fn job(reps: u64) -> Job {
        let mut spec = ExperimentSpec::paper_nominal();
        spec.mc = McSpec {
            replications: reps,
            seed: 42,
            threads: 0,
        };
        Job::from_spec(&spec).unwrap()
    }

    #[test]
    fn generic_local_reduction_matches_the_runner_bit_for_bit() {
        let job = job(300);
        let reference = LocalRunner::new(1).run(&job).unwrap();
        for threads in [1usize, 2, 5] {
            assert_eq!(
                run_workload_local(&job, threads, 0),
                reference,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn generic_queued_reduction_matches_local_for_any_worker_count() {
        let job = job(250);
        let reference = run_workload_local(&job, 1, 0);
        for workers in [1usize, 3, 16] {
            let queued = QueueRunner::new(workers)
                .with_max_attempts(3)
                .run(&job)
                .unwrap();
            assert_eq!(queued, reference, "workers = {workers}");
        }
    }
}
