//! Store-backed sweeps: serve finished grid cells, schedule only the rest.
//!
//! A sweep expansion derives each grid point's spec (and per-point seed)
//! deterministically from the grid index, so every point *is* a cell. A
//! store-backed sweep is therefore resumable for free: kill it anywhere,
//! rerun with the same store, and the finished prefix is served as cache
//! hits while only the uncovered cells go through the runner. The
//! resulting [`GridReport`] is byte-identical to an uninterrupted run —
//! hits reconstruct the exact summary from the lossless entry payload.

use crate::backend::{Lookup, StoreBackend};
use crate::observe::StoreObserver;
use crate::{run_cached_with_tiered, CacheMode, StorePoint};
use eacp_exec::{run_grid, GridReport, Runner, ShardId};
use eacp_spec::{SpecError, Sweep};

/// How much of a sweep's grid the store already covers — the store-side
/// analogue of the execution layer's `SweepCoverage` over report files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreCoverage {
    /// The sweep's base experiment name.
    pub sweep_name: String,
    /// Total grid points in the full sweep.
    pub total_points: usize,
    /// Grid indices with no intact store entry, ascending.
    pub missing: Vec<usize>,
}

impl StoreCoverage {
    /// Points already covered by intact entries.
    pub fn covered(&self) -> usize {
        self.total_points - self.missing.len()
    }

    /// Whether a store-backed sweep would be served entirely from cache.
    pub fn complete(&self) -> bool {
        self.missing.is_empty()
    }
}

/// Inspects how much of `sweep`'s grid (either point kind) the store
/// already holds.
///
/// Corrupt entries encountered along the way are quarantined by the
/// backend and counted as missing — exactly what a subsequent
/// [`run_sweep_cached_tiered`] would recompute.
pub fn store_coverage<P: StorePoint>(
    store: &dyn StoreBackend,
    sweep: &Sweep<P>,
) -> Result<StoreCoverage, SpecError> {
    let specs = sweep.expand()?;
    let mut missing = Vec::new();
    for (index, spec) in specs.iter().enumerate() {
        if !matches!(store.get(&spec.cell_id())?, Lookup::Hit { .. }) {
            missing.push(index);
        }
    }
    Ok(StoreCoverage {
        sweep_name: sweep.base.name().to_owned(),
        total_points: specs.len(),
        missing,
    })
}

/// Runs a sweep shard (either point kind) against a store: covered cells are
/// served, uncovered cells are scheduled onto `runner` and recorded;
/// `analytic = false` (the CLI's `--no-analytic`) disables the
/// closed-form serve tier.
///
/// Drop-in replacement for `eacp_exec::run_sweep_tiered` — same shard
/// semantics, same report document, byte-identical output (a point's
/// report never depends on whether it was computed or served).
#[allow(clippy::too_many_arguments)]
pub fn run_sweep_cached_tiered<P: StorePoint>(
    sweep: &Sweep<P>,
    shard: Option<ShardId>,
    runner: &dyn Runner,
    store: &dyn StoreBackend,
    mode: CacheMode,
    observer: &dyn StoreObserver,
    analytic: bool,
) -> Result<GridReport<P>, SpecError> {
    run_grid(sweep, shard, |spec| {
        run_cached_with_tiered(spec, runner, store, mode, observer, analytic).map(|c| c.report)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CacheOutcome, MemBackend, NoopStoreObserver, StoreCounters};
    use eacp_exec::{run_sweep_tiered, LocalRunner};
    use eacp_spec::{ExecutiveSweepSpec, ExperimentSpec, McSpec, SweepAxis, SweepSpec, ToJson};

    fn small_sweep() -> SweepSpec {
        let mut base = ExperimentSpec::paper_nominal();
        base.name = "grid".into();
        base.mc = McSpec {
            replications: 40,
            seed: 5,
            threads: 1,
        };
        SweepSpec {
            base,
            axes: vec![
                SweepAxis::Lambda(vec![1.0e-4, 1.4e-3]),
                SweepAxis::K(vec![1, 5]),
            ],
        }
    }

    /// One store-backed shard (`None` = the whole grid) on one thread.
    fn cached<P: StorePoint>(
        sweep: &Sweep<P>,
        shard: Option<ShardId>,
        store: &MemBackend,
        observer: &dyn StoreObserver,
    ) -> GridReport<P> {
        let runner = LocalRunner::new(1);
        run_sweep_cached_tiered(
            sweep,
            shard,
            &runner,
            store,
            CacheMode::ReadWrite,
            observer,
            true,
        )
        .unwrap()
    }

    /// "Killed at the shard boundary": only shard 0 of 2 lands in the
    /// store. Resuming over the full grid serves the finished half, computes
    /// the rest, and equals an uninterrupted run byte for byte.
    fn assert_resumes<P: StorePoint>(sweep: &Sweep<P>, name: &str, missing: Vec<usize>) {
        let store = MemBackend::new();
        cached(
            sweep,
            Some(ShardId::new(0, 2).unwrap()),
            &store,
            &NoopStoreObserver,
        );

        let coverage = store_coverage(&store, sweep).unwrap();
        let total = sweep.expand().unwrap().len();
        assert_eq!(coverage.sweep_name, name);
        assert_eq!(coverage.total_points, total);
        assert_eq!(coverage.covered(), total - missing.len());
        assert_eq!(coverage.missing, missing);
        assert!(!coverage.complete());

        let counters = StoreCounters::new();
        let resumed = cached(sweep, None, &store, &counters);
        let served = (total - missing.len()) as u64;
        assert_eq!(
            (counters.hits(), counters.misses()),
            (served, missing.len() as u64)
        );
        let plain = run_sweep_tiered(sweep, None, &LocalRunner::new(1), true).unwrap();
        assert_eq!(resumed, plain);
        assert_eq!(resumed.to_json().pretty(), plain.to_json().pretty());
        assert!(store_coverage(&store, sweep).unwrap().complete());
    }

    #[test]
    fn cached_sweep_matches_plain_sweep_byte_for_byte() {
        let sweep = small_sweep();
        let store = MemBackend::new();
        let counters = StoreCounters::new();

        let plain = run_sweep_tiered(&sweep, None, &LocalRunner::new(1), true).unwrap();
        let cold = cached(&sweep, None, &store, &counters);
        assert_eq!(cold, plain);
        assert_eq!(cold.to_json().pretty(), plain.to_json().pretty());
        assert_eq!((counters.hits(), counters.misses()), (0, 4));

        // Warm rerun: all four points served, still byte-identical.
        let warm = cached(&sweep, None, &store, &counters);
        assert_eq!(warm.to_json().pretty(), plain.to_json().pretty());
        assert_eq!((counters.hits(), counters.misses()), (4, 4));
    }

    #[test]
    fn interrupted_sweep_resumes_from_the_store() {
        assert_resumes(&small_sweep(), "grid", vec![2, 3]);
    }

    #[test]
    fn per_point_seed_axes_key_distinct_cells() {
        // A seed axis gives grid points identical canonical specs that
        // differ only in mc.seed — the cell key must keep them apart.
        let mut sweep = small_sweep();
        sweep.axes = vec![SweepAxis::Seed(vec![1, 2, 3])];
        let store = MemBackend::new();
        let report = cached(&sweep, None, &store, &NoopStoreObserver);
        assert_eq!(report.points.len(), 3);
        assert_eq!(store.health().unwrap().entries, 3);
    }

    #[test]
    fn hits_carry_no_stale_spec() {
        // A hit's report embeds the *caller's* expansion spec (name, mc
        // and all), not a reconstruction from the canonical document —
        // otherwise merged grids would lose their names.
        let sweep = small_sweep();
        let store = MemBackend::new();
        cached(&sweep, None, &store, &NoopStoreObserver);
        let warm = cached(&sweep, None, &store, &NoopStoreObserver);
        let expected = sweep.expand().unwrap();
        for point in &warm.points {
            assert_eq!(point.report.spec, expected[point.index]);
        }
    }

    fn executive_sweep() -> ExecutiveSweepSpec {
        use eacp_spec::{
            ExecutiveMcSpec, ExecutiveSpec, ExecutiveSweepAxis, FaultSpec, PolicyAssignment,
            PolicySpec, TaskSetSpec,
        };
        let mut base = ExecutiveSpec::new(
            "exec-grid",
            TaskSetSpec::implicit([("sensor", 500.0, 4_000), ("control", 1_200.0, 8_000)]),
        );
        base.faults = FaultSpec::Poisson { lambda: 5e-4 };
        base.policy = PolicyAssignment::Shared(PolicySpec::from_tag("a_d_s", 5e-4, 2, 0).unwrap());
        base.hyperperiods = 2;
        base.seed = 13;
        base.mc = Some(ExecutiveMcSpec {
            replications: 12,
            threads: 1,
            queue: None,
        });
        ExecutiveSweepSpec {
            base,
            axes: vec![ExecutiveSweepAxis::Lambda(vec![2e-4, 1e-3])],
        }
    }

    #[test]
    fn cached_executive_sweep_resumes_byte_identically() {
        assert_resumes(&executive_sweep(), "exec-grid", vec![1]);
    }

    #[test]
    fn single_point_cache_outcome_is_visible() {
        let sweep = small_sweep();
        let store = MemBackend::new();
        let spec = &sweep.expand().unwrap()[0];
        let runner = LocalRunner::new(1);
        let first = run_cached_with_tiered(
            spec,
            &runner,
            &store,
            CacheMode::ReadWrite,
            &NoopStoreObserver,
            true,
        )
        .unwrap();
        assert_eq!(first.cache, CacheOutcome::Miss);
        let second = run_cached_with_tiered(
            spec,
            &runner,
            &store,
            CacheMode::ReadWrite,
            &NoopStoreObserver,
            true,
        )
        .unwrap();
        assert_eq!(second.cache, CacheOutcome::Hit);
        assert!(second.report.source.is_none(), "memory backend has no path");
        assert_eq!(second.summary, first.summary);
    }
}
