//! Content-addressed persistent result store for EACP experiments.
//!
//! The simulator is deterministic: a result is a pure function of the
//! canonical experiment spec, the Monte-Carlo seed and the replication
//! count. That triple is a [`CellId`] — the spec part content-addressed by
//! a SHA-256 [`SpecHash`] over the canonical JSON text — and this crate
//! caches results by cell so repeated runs, resumed sweeps and CI jobs
//! serve finished cells from storage instead of recomputing them.
//!
//! The determinism contract is what makes the cache *sound*: a hit is
//! byte-identical to a recomputation (entries persist the lossless
//! accumulator state, not the rounded report schema), and `eacp store
//! verify` can prove it at any time by re-running a cell and comparing
//! bytes. Storage is pluggable behind [`StoreBackend`]: [`FsBackend`]
//! persists one JSON file per cell with atomic write-rename and
//! quarantine-on-corruption; [`MemBackend`] is the in-memory reference.
//!
//! Entry points:
//!
//! * [`run_cached_tiered`] — cache-or-compute for one Monte-Carlo point of
//!   either kind (`eacp mc`, `eacp executive --mc`), generic over
//!   [`StorePoint`];
//! * [`run_cached_single`] — the same for one raw-seed execution
//!   (`eacp run`), keyed with the `replications == 0` sentinel;
//! * [`run_sweep_cached_tiered`] — a resumable sweep of either point kind:
//!   only uncovered grid cells are scheduled onto the runner;
//! * [`verify_store`] / [`verify_cell`] — recompute stored cells and fail
//!   on any byte mismatch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod cell;
pub mod fs;
pub mod hash;
pub mod observe;
pub mod sweep;

pub use backend::{EvictionReport, Lookup, MemBackend, RetentionPolicy, StoreBackend, StoreHealth};
pub use cell::{CellEntry, CellId, CellPayload};
pub use fs::{FsBackend, STORE_ENV_VAR};
pub use hash::{
    cell_spec_json, executive_cell_spec_json, executive_spec_hash, sha256, spec_hash, SpecHash,
};
pub use observe::{NoopStoreObserver, StoreCounters, StoreObserver};
pub use sweep::{run_sweep_cached_tiered, store_coverage, StoreCoverage};

use eacp_exec::{
    ExecutiveJob, ExecutiveMcReport, ExecutiveSummary, Job, LocalRunner, Runner, SweepPoint,
};
use eacp_sim::{RunOutcome, Summary};
use eacp_spec::{ExecutiveSpec, ExperimentSpec, RunReport, ServeTier, SpecError, SummaryReport};

/// How the cache participates in a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// Serve hits, record misses — the default.
    ReadWrite,
    /// Ignore any existing entry, recompute, and overwrite (`--refresh`).
    Refresh,
}

/// Where a result came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the store without computing.
    Hit,
    /// Computed (no intact entry existed) and recorded.
    Miss,
    /// Recomputed and overwritten under [`CacheMode::Refresh`].
    Refreshed,
}

impl std::fmt::Display for CacheOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Refreshed => "refreshed",
        })
    }
}

/// A [`SweepPoint`] kind the store can key, record and serve:
/// [`ExperimentSpec`] cells hold a lossless [`Summary`],
/// [`ExecutiveSpec`] cells a lossless [`ExecutiveSummary`].
pub trait StorePoint: SweepPoint {
    /// The cell this point's result lands in.
    fn cell_id(&self) -> CellId;

    /// The entry recording a computed result.
    fn cell_entry(&self, acc: &Self::Acc, report: &Self::Report) -> CellEntry;

    /// Rebuilds the exact aggregate and the report from a stored entry;
    /// the report embeds this (the caller's) spec and names the entry as
    /// its source.
    fn replay(&self, entry: CellEntry) -> Result<(Self::Acc, Self::Report), SpecError>;
}

impl StorePoint for ExperimentSpec {
    fn cell_id(&self) -> CellId {
        CellId::for_spec(self)
    }

    fn cell_entry(&self, summary: &Summary, report: &RunReport) -> CellEntry {
        CellEntry::summary_tiered(self, summary, report.served)
    }

    fn replay(&self, entry: CellEntry) -> Result<(Summary, RunReport), SpecError> {
        let summary = entry.as_summary()?.clone();
        let report = RunReport {
            spec: self.clone(),
            policy_name: entry.policy,
            summary: SummaryReport::from_summary(&summary),
            served: entry.served,
            source: entry.source,
        };
        Ok((summary, report))
    }
}

impl StorePoint for ExecutiveSpec {
    fn cell_id(&self) -> CellId {
        CellId::for_executive(self)
    }

    fn cell_entry(&self, summary: &ExecutiveSummary, _report: &ExecutiveMcReport) -> CellEntry {
        CellEntry::executive(self, summary)
    }

    fn replay(&self, entry: CellEntry) -> Result<(ExecutiveSummary, ExecutiveMcReport), SpecError> {
        let summary = entry.as_executive()?.clone();
        let report = ExecutiveMcReport {
            spec: self.clone(),
            policy_names: self.policy.policy_names(self.tasks.len()),
            summary: summary.clone(),
            source: entry.source,
        };
        Ok((summary, report))
    }
}

/// The result of a cache-or-compute run of one point.
#[derive(Debug, Clone)]
pub struct CachedRun<P: StorePoint = ExperimentSpec> {
    /// The cell the run landed in.
    pub id: CellId,
    /// The exact in-memory aggregate (bit-identical on hit and miss).
    pub summary: P::Acc,
    /// The serializable report; on a hit its `source` names the store
    /// entry the result was served from.
    pub report: P::Report,
    /// Hit, miss, or refresh.
    pub cache: CacheOutcome,
}

/// Cache-or-compute for one point (`eacp mc`, `eacp executive --mc`),
/// with the closed-form serve tier enabled or disabled (`analytic =
/// false` is the CLI's `--no-analytic`).
///
/// The compute side matches `eacp_exec::run` exactly: the spec's own
/// scheduling section picks the runner ([`eacp_exec::runner_for`]).
/// Every runner gives a bit-identical aggregate (the canonical-reduction
/// contract), which is why the scheduling choice is not part of the cell
/// key.
pub fn run_cached_tiered<P: StorePoint>(
    spec: &P,
    store: &dyn StoreBackend,
    mode: CacheMode,
    observer: &dyn StoreObserver,
    analytic: bool,
) -> Result<CachedRun<P>, SpecError> {
    run_cached_with_tiered(spec, &*spec.runner()?, store, mode, observer, analytic)
}

/// [`run_cached_tiered`] on an explicit [`Runner`] — the seam the
/// resumable sweep shares with the single-point path.
///
/// Cells record the tier that computed them, and a hit serves whatever
/// tier the recording run used (the marker travels in the report), so one
/// store can hold a mix of analytic and forced-Monte-Carlo cells and
/// `store verify` re-derives each through its own tier.
pub fn run_cached_with_tiered<P: StorePoint>(
    spec: &P,
    runner: &dyn Runner,
    store: &dyn StoreBackend,
    mode: CacheMode,
    observer: &dyn StoreObserver,
    analytic: bool,
) -> Result<CachedRun<P>, SpecError> {
    let id = spec.cell_id();
    let ((summary, report), cache) = cache_or_compute(
        &id,
        store,
        mode,
        observer,
        |entry| spec.replay(entry),
        || {
            let (summary, report) = spec.compute(runner, analytic)?;
            let entry = spec.cell_entry(&summary, &report);
            Ok(((summary, report), Some(entry)))
        },
    )?;
    Ok(CachedRun {
        id,
        summary,
        report,
        cache,
    })
}

/// The cache-or-compute core: serve an intact entry for `id` (unless
/// refreshing), otherwise compute and record the entry the computation
/// returns (`None` = do not record).
fn cache_or_compute<T>(
    id: &CellId,
    store: &dyn StoreBackend,
    mode: CacheMode,
    observer: &dyn StoreObserver,
    replay: impl FnOnce(CellEntry) -> Result<T, SpecError>,
    compute: impl FnOnce() -> Result<(T, Option<CellEntry>), SpecError>,
) -> Result<(T, CacheOutcome), SpecError> {
    if mode == CacheMode::ReadWrite {
        match store.get(id)? {
            Lookup::Hit { entry, .. } => {
                observer.on_hit(id);
                return Ok((replay(entry)?, CacheOutcome::Hit));
            }
            Lookup::Quarantined { detail } => observer.on_quarantine(id, &detail),
            Lookup::Miss => {}
        }
        observer.on_miss(id);
    }
    let (value, entry) = compute()?;
    if let Some(entry) = entry {
        store.put(&entry)?;
        observer.on_record(id);
    }
    let cache = match mode {
        CacheMode::ReadWrite => CacheOutcome::Miss,
        CacheMode::Refresh => CacheOutcome::Refreshed,
    };
    Ok((value, cache))
}

/// The result of a cache-or-compute single execution.
#[derive(Debug, Clone)]
pub struct CachedSingle {
    /// The cell (always the `replications == 0` sentinel).
    pub id: CellId,
    /// The run's outcome (bit-identical on hit and miss).
    pub outcome: RunOutcome,
    /// On a hit, the store entry the result was served from.
    pub source: Option<std::path::PathBuf>,
    /// Hit, miss, or refresh.
    pub cache: CacheOutcome,
}

/// Cache-or-compute for one raw-seed execution (the `eacp run` path).
///
/// Single executions run one replication directly with `mc.seed` — a
/// different computation from a 1-replication Monte-Carlo cell, so they
/// are keyed with the `replications == 0` sentinel. Anomalous outcomes
/// (policy bugs) are returned but never recorded.
pub fn run_cached_single(
    spec: &ExperimentSpec,
    store: &dyn StoreBackend,
    mode: CacheMode,
    observer: &dyn StoreObserver,
) -> Result<CachedSingle, SpecError> {
    let id = CellId::for_single(spec);
    let ((outcome, source), cache) = cache_or_compute(
        &id,
        store,
        mode,
        observer,
        |entry| Ok((entry.as_outcome()?.clone(), entry.source)),
        || {
            let outcome = run_single(spec)?;
            let entry = outcome
                .anomaly
                .is_none()
                .then(|| CellEntry::outcome(spec, &outcome));
            Ok(((outcome, None), entry))
        },
    )?;
    Ok(CachedSingle {
        id,
        outcome,
        source,
        cache,
    })
}

/// One raw-seed execution of a spec — the computation `eacp run` performs,
/// reproduced here so `verify_cell` can re-derive single-execution cells.
fn run_single(spec: &ExperimentSpec) -> Result<RunOutcome, SpecError> {
    let scenario = spec.scenario.build()?;
    let mut policy = spec.policy.build()?;
    let mut faults = spec.faults.build(spec.mc.seed)?;
    let options = spec.executor.build()?;
    Ok(eacp_sim::Executor::new(&scenario)
        .with_options(options)
        .run(&mut policy, &mut faults))
}

/// Recomputes one stored cell and fails unless the stored bytes equal the
/// recomputation's canonical bytes exactly.
///
/// The error names the entry's provenance path (filesystem backends), so a
/// mismatched artifact is identifiable without bisecting the store.
pub fn verify_cell(store: &dyn StoreBackend, id: &CellId) -> Result<(), SpecError> {
    let (entry, text) = match store.get(id)? {
        Lookup::Hit { entry, text } => (entry, text),
        Lookup::Miss => return Err(SpecError::invalid(format!("cell {id} is not in the store"))),
        Lookup::Quarantined { detail } => {
            return Err(SpecError::invalid(format!(
                "cell {id} failed integrity checks and was quarantined: {detail}"
            )))
        }
    };
    let recomputed = match &entry.payload {
        CellPayload::Outcome(_) => {
            let spec = entry.experiment_spec()?;
            CellEntry::outcome(&spec, &run_single(&spec)?)
        }
        CellPayload::Summary(_) => {
            let spec = entry.experiment_spec()?;
            let job = Job::from_spec(&spec)?;
            // Re-derive through the tier that recorded the cell: an
            // analytic cell must reproduce analytically (a Monte-Carlo
            // recomputation of the same aggregate can differ in the last
            // ulp of the merged accumulators).
            let summary = match entry.served {
                ServeTier::Analytic => eacp_exec::serve_closed_form(&job).ok_or_else(|| {
                    SpecError::invalid(format!(
                        "cell {id}: marked analytic but its spec is not \
                         replication-invariant — tampered entry"
                    ))
                })?,
                ServeTier::Mc => LocalRunner::new(0).run(&job)?,
            };
            CellEntry::summary_tiered(&spec, &summary, entry.served)
        }
        CellPayload::Executive(_) => {
            let spec = entry.executive_spec()?;
            let job = ExecutiveJob::from_spec(&spec)?;
            CellEntry::executive(&spec, &LocalRunner::new(0).run_executive(&job)?)
        }
    };
    if recomputed.canonical_text() != text {
        let origin = entry
            .source
            .as_ref()
            .map_or_else(|| "in-memory entry".to_owned(), |p| p.display().to_string());
        return Err(SpecError::invalid(format!(
            "cell {id} ({origin}): stored bytes differ from recomputation — \
             corrupt entry or non-reproducible result"
        )));
    }
    Ok(())
}

/// What [`verify_store`] checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyReport {
    /// Live entries in the store.
    pub entries: u64,
    /// Entries recomputed and byte-compared.
    pub checked: u64,
}

/// Recomputes a deterministic sample of the store's cells (`sample == 0`
/// means every cell) and fails on the first byte mismatch.
///
/// The sample is an even stride over the sorted cell ids — deterministic
/// by construction, so repeated verification of an unchanged store checks
/// the same cells.
pub fn verify_store(store: &dyn StoreBackend, sample: usize) -> Result<VerifyReport, SpecError> {
    let ids = store.list()?;
    let n = ids.len();
    let take = if sample == 0 { n } else { sample.min(n) };
    for k in 0..take {
        verify_cell(store, &ids[k * n / take])?;
    }
    Ok(VerifyReport {
        entries: n as u64,
        checked: take as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eacp_spec::{McSpec, ToJson};

    fn small_spec(seed: u64) -> ExperimentSpec {
        let mut spec = ExperimentSpec::paper_nominal();
        spec.mc = McSpec {
            replications: 60,
            seed,
            threads: 1,
        };
        spec
    }

    #[test]
    fn hit_is_byte_identical_to_recomputation() {
        let store = MemBackend::new();
        let counters = StoreCounters::new();
        let spec = small_spec(3);

        let miss = run_cached_tiered(&spec, &store, CacheMode::ReadWrite, &counters, true).unwrap();
        assert_eq!(miss.cache, CacheOutcome::Miss);
        let hit = run_cached_tiered(&spec, &store, CacheMode::ReadWrite, &counters, true).unwrap();
        assert_eq!(hit.cache, CacheOutcome::Hit);

        let (direct_summary, direct_report) = eacp_exec::run(&spec).unwrap();
        assert_eq!(hit.summary, direct_summary, "hit must be bit-identical");
        assert_eq!(
            hit.report.to_json().pretty(),
            direct_report.to_json().pretty(),
            "hit report must serialize byte-identically"
        );
        assert_eq!((counters.hits(), counters.misses()), (1, 1));
        assert_eq!(counters.records(), 1);
    }

    #[test]
    fn refresh_recomputes_and_overwrites() {
        let store = MemBackend::new();
        let spec = small_spec(4);
        run_cached_tiered(
            &spec,
            &store,
            CacheMode::ReadWrite,
            &NoopStoreObserver,
            true,
        )
        .unwrap();
        let refreshed =
            run_cached_tiered(&spec, &store, CacheMode::Refresh, &NoopStoreObserver, true).unwrap();
        assert_eq!(refreshed.cache, CacheOutcome::Refreshed);
        // The overwrite is idempotent: the next lookup still hits.
        let hit = run_cached_tiered(
            &spec,
            &store,
            CacheMode::ReadWrite,
            &NoopStoreObserver,
            true,
        )
        .unwrap();
        assert_eq!(hit.cache, CacheOutcome::Hit);
        assert_eq!(hit.summary, refreshed.summary);
    }

    #[test]
    fn single_executions_cache_under_the_sentinel() {
        let store = MemBackend::new();
        let spec = small_spec(5);
        let miss =
            run_cached_single(&spec, &store, CacheMode::ReadWrite, &NoopStoreObserver).unwrap();
        assert_eq!(miss.cache, CacheOutcome::Miss);
        assert_eq!(miss.id.replications, 0);
        let hit =
            run_cached_single(&spec, &store, CacheMode::ReadWrite, &NoopStoreObserver).unwrap();
        assert_eq!(hit.cache, CacheOutcome::Hit);
        assert_eq!(hit.outcome, miss.outcome, "hit must be bit-identical");
        // The sentinel cell never collides with a Monte-Carlo cell of the
        // same spec and seed.
        let mc = run_cached_tiered(
            &spec,
            &store,
            CacheMode::ReadWrite,
            &NoopStoreObserver,
            true,
        )
        .unwrap();
        assert_ne!(mc.id, hit.id);
        assert_eq!(store.health().unwrap().entries, 2);
    }

    #[test]
    fn verify_passes_on_intact_stores_and_names_tampered_cells() {
        let store = MemBackend::new();
        for seed in 0..3 {
            run_cached_tiered(
                &small_spec(seed),
                &store,
                CacheMode::ReadWrite,
                &NoopStoreObserver,
                true,
            )
            .unwrap();
        }
        run_cached_single(
            &small_spec(9),
            &store,
            CacheMode::ReadWrite,
            &NoopStoreObserver,
        )
        .unwrap();
        let report = verify_store(&store, 0).unwrap();
        assert_eq!(report.entries, 4);
        assert_eq!(report.checked, 4);
        // Sampling checks fewer cells but still passes deterministically.
        let report = verify_store(&store, 2).unwrap();
        assert_eq!(report.checked, 2);

        // Tamper with a payload value. The count is not covered by the
        // spec hash and stays internally consistent, so the entry passes
        // integrity checks — only the byte comparison against an actual
        // recomputation can catch it.
        let ids = store.list().unwrap();
        let Lookup::Hit { mut entry, .. } = store.get(&ids[0]).unwrap() else {
            panic!("expected hit");
        };
        match &mut entry.payload {
            CellPayload::Summary(s) => s.timely = s.timely.wrapping_sub(1),
            CellPayload::Outcome(o) => o.faults += 1,
            CellPayload::Executive(s) => s.jobs = s.jobs.wrapping_add(1),
        }
        store.put(&entry).unwrap();
        let err = verify_store(&store, 0).unwrap_err();
        assert!(err.to_string().contains("differ"), "{err}");
    }

    fn executive_spec(seed: u64) -> ExecutiveSpec {
        use eacp_spec::{ExecutiveMcSpec, FaultSpec, PolicyAssignment, PolicySpec, TaskSetSpec};
        let mut spec = ExecutiveSpec::new(
            "exec-store-test",
            TaskSetSpec::implicit([("sensor", 500.0, 4_000), ("control", 1_200.0, 8_000)]),
        );
        spec.faults = FaultSpec::Poisson { lambda: 8e-4 };
        spec.policy = PolicyAssignment::Shared(PolicySpec::from_tag("a_d_s", 8e-4, 2, 0).unwrap());
        spec.hyperperiods = 2;
        spec.seed = seed;
        spec.mc = Some(ExecutiveMcSpec {
            replications: 10,
            threads: 1,
            queue: None,
        });
        spec
    }

    #[test]
    fn executive_hit_is_byte_identical_and_verifies() {
        let store = MemBackend::new();
        let counters = StoreCounters::new();
        let spec = executive_spec(7);

        let miss = run_cached_tiered(&spec, &store, CacheMode::ReadWrite, &counters, true).unwrap();
        assert_eq!(miss.cache, CacheOutcome::Miss);
        assert_eq!(miss.id.seed, 7);
        assert_eq!(miss.id.replications, 10);
        let hit = run_cached_tiered(&spec, &store, CacheMode::ReadWrite, &counters, true).unwrap();
        assert_eq!(hit.cache, CacheOutcome::Hit);
        assert_eq!(hit.summary, miss.summary, "hit must be bit-identical");
        assert_eq!(
            hit.report.to_json().pretty(),
            miss.report.to_json().pretty(),
            "hit report must serialize byte-identically"
        );

        // The stored entry re-verifies: recomputation is byte-identical.
        verify_store(&store, 0).unwrap();

        // Tampering is caught by the byte comparison.
        let ids = store.list().unwrap();
        let Lookup::Hit { mut entry, .. } = store.get(&ids[0]).unwrap() else {
            panic!("expected hit");
        };
        match &mut entry.payload {
            CellPayload::Executive(s) => s.jobs = s.jobs.wrapping_add(1),
            _ => panic!("expected executive payload"),
        }
        store.put(&entry).unwrap();
        let err = verify_store(&store, 0).unwrap_err();
        assert!(err.to_string().contains("differ"), "{err}");
    }

    #[test]
    fn executive_cells_never_collide_with_single_task_cells() {
        let store = MemBackend::new();
        let exec_spec = executive_spec(3);
        let mc_spec = small_spec(3);
        let a = run_cached_tiered(
            &exec_spec,
            &store,
            CacheMode::ReadWrite,
            &NoopStoreObserver,
            true,
        )
        .unwrap();
        let b = run_cached_tiered(
            &mc_spec,
            &store,
            CacheMode::ReadWrite,
            &NoopStoreObserver,
            true,
        )
        .unwrap();
        assert_ne!(a.id, b.id);
        assert_eq!(store.health().unwrap().entries, 2);
        // Asking an executive cell for a single-task summary is an error,
        // not a silent reinterpretation.
        let Lookup::Hit { entry, .. } = store.get(&a.id).unwrap() else {
            panic!("expected hit");
        };
        assert!(entry.as_summary().is_err());
        assert!(entry.as_executive().is_ok());
    }

    #[test]
    fn executive_hash_ignores_name_seed_and_scheduling() {
        let base = executive_spec(1);
        let mut renamed = base.clone();
        renamed.name = "something-else".into();
        let mut reseeded = base.clone();
        reseeded.seed = 99;
        let mut rescheduled = base.clone();
        rescheduled.mc = Some(eacp_spec::ExecutiveMcSpec {
            replications: 500,
            threads: 8,
            queue: Some(eacp_spec::QueueSpec {
                workers: 4,
                max_attempts: 2,
                ..Default::default()
            }),
        });
        for variant in [&renamed, &reseeded, &rescheduled] {
            assert_eq!(executive_spec_hash(&base), executive_spec_hash(variant));
        }
        let mut retasked = base.clone();
        retasked.hyperperiods = 5;
        assert_ne!(executive_spec_hash(&base), executive_spec_hash(&retasked));
    }

    #[test]
    fn missing_cells_are_verify_errors() {
        let store = MemBackend::new();
        let id = CellId::for_spec(&small_spec(1));
        let err = verify_cell(&store, &id).unwrap_err();
        assert!(err.to_string().contains("not in the store"), "{err}");
    }
}
