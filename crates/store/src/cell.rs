//! Store cells: what a result is keyed by and what an entry holds.
//!
//! A **cell** is one reproducible unit of computation: a canonical cell
//! spec (content-addressed by [`SpecHash`]) plus the Monte-Carlo seed and
//! replication count. Every field of the key is an exact input to the
//! deterministic simulator, so a cell's result never goes stale — the only
//! way to get a different answer is to ask a different cell.
//!
//! `replications == 0` is the **single-execution sentinel**: `eacp run`
//! executes one replication directly with the raw base seed (no
//! per-replication seed derivation), which is a different computation from
//! a 1-replication Monte-Carlo cell. The sentinel is unambiguous because
//! `McSpec::validate` rejects `replications == 0` for real Monte-Carlo
//! runs. Summary cells carry a [`CellPayload::Summary`]; single-execution
//! cells carry a [`CellPayload::Outcome`].
//!
//! Payload serialization is **lossless**, not the report schema: the
//! report layer's `StatsReport` stores `variance = m2 / count`, which
//! cannot reconstruct the accumulator bit-exactly. Entries instead persist
//! each [`eacp_numerics::OnlineStats`] via its raw
//! `(count, mean, m2, min, max)` state, which round-trips bit-for-bit
//! through the spec layer's shortest-round-trip float formatting — the
//! property that makes a cache hit byte-identical to recomputation.

use crate::hash::{
    cell_spec_json, executive_cell_spec_json, executive_spec_hash, sha256, spec_hash, SpecHash,
};
use eacp_exec::ExecutiveSummary;
use eacp_sim::{RunOutcome, Summary};
use eacp_spec::{
    ExecutiveMcSpec, ExecutiveSpec, ExperimentSpec, FromJson, Json, ServeTier, SpecError, ToJson,
};
use std::path::PathBuf;

/// The key of one stored result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CellId {
    /// Content address of the canonical cell spec.
    pub spec_hash: SpecHash,
    /// Monte-Carlo base seed.
    pub seed: u64,
    /// Replication count; `0` denotes a single raw-seed execution.
    pub replications: u64,
}

impl CellId {
    /// The cell a Monte-Carlo run of `spec` lands in.
    pub fn for_spec(spec: &ExperimentSpec) -> Self {
        Self {
            spec_hash: spec_hash(spec),
            seed: spec.mc.seed,
            replications: spec.mc.replications,
        }
    }

    /// The cell a single raw-seed execution of `spec` lands in.
    pub fn for_single(spec: &ExperimentSpec) -> Self {
        Self {
            spec_hash: spec_hash(spec),
            seed: spec.mc.seed,
            replications: 0,
        }
    }

    /// The cell an executive Monte-Carlo run of `spec` lands in. The seed
    /// is the spec's top-level seed; the replication count is the horizon
    /// count from the spec's `mc` section (its default when absent).
    pub fn for_executive(spec: &ExecutiveSpec) -> Self {
        Self {
            spec_hash: executive_spec_hash(spec),
            seed: spec.seed,
            replications: spec.mc_or_default().replications,
        }
    }
}

impl std::fmt::Display for CellId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:s{}:r{}",
            self.spec_hash, self.seed, self.replications
        )
    }
}

/// What a cell holds: the aggregate of a Monte-Carlo run, or the outcome
/// of one single execution.
// Summary outweighs RunOutcome, but payloads are built once per recorded
// cell (cold path); boxing would complicate every accessor for nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum CellPayload {
    /// Monte-Carlo aggregate (`replications >= 1`).
    Summary(Summary),
    /// One raw-seed execution (`replications == 0`).
    Outcome(RunOutcome),
    /// Executive Monte-Carlo aggregate: N seeded hyperperiod horizons
    /// (`replications >= 1`, over an executive cell spec).
    Executive(ExecutiveSummary),
}

/// One stored result: key, canonical spec document, and payload.
#[derive(Debug, Clone)]
pub struct CellEntry {
    /// The cell this entry fills.
    pub cell: CellId,
    /// The `Policy::name()` of the scheme that ran.
    pub policy: String,
    /// The canonical cell-spec document ([`cell_spec_json`]) — embedded so
    /// an entry is self-describing and re-verifiable without the original
    /// spec file.
    pub spec: Json,
    /// The result.
    pub payload: CellPayload,
    /// Which execution tier produced the payload. `ServeTier::Analytic`
    /// marks summaries answered by the closed-form tier (replication-
    /// invariant cells); `eacp store verify` re-derives such cells through
    /// the same tier, so the byte-comparison stays meaningful. Serialized
    /// only when analytic — Monte-Carlo entries keep their historical
    /// bytes.
    pub served: ServeTier,
    /// Where this entry was loaded from (`None` for freshly computed
    /// entries). Never serialized — diagnostics provenance, so `eacp store
    /// verify` failures can name the offending artifact.
    pub source: Option<PathBuf>,
}

// Like `RunReport`: provenance is where the entry came from, not part of
// the result, so a loaded entry compares equal to its recomputation.
impl PartialEq for CellEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cell == other.cell
            && self.policy == other.policy
            && self.spec == other.spec
            && self.payload == other.payload
            && self.served == other.served
    }
}

impl CellEntry {
    /// Builds the entry recording a Monte-Carlo run of `spec`.
    pub fn summary(spec: &ExperimentSpec, summary: &Summary) -> Self {
        Self::summary_tiered(spec, summary, ServeTier::Mc)
    }

    /// [`CellEntry::summary`] carrying the tier that produced the
    /// aggregate — `ServeTier::Analytic` for closed-form-served cells.
    pub fn summary_tiered(spec: &ExperimentSpec, summary: &Summary, served: ServeTier) -> Self {
        Self {
            cell: CellId::for_spec(spec),
            policy: spec.policy.policy_name().to_owned(),
            spec: cell_spec_json(spec),
            payload: CellPayload::Summary(summary.clone()),
            served,
            source: None,
        }
    }

    /// Builds the entry recording a single raw-seed execution of `spec`.
    pub fn outcome(spec: &ExperimentSpec, outcome: &RunOutcome) -> Self {
        Self {
            cell: CellId::for_single(spec),
            policy: spec.policy.policy_name().to_owned(),
            spec: cell_spec_json(spec),
            payload: CellPayload::Outcome(outcome.clone()),
            served: ServeTier::Mc,
            source: None,
        }
    }

    /// Builds the entry recording an executive Monte-Carlo run of `spec`.
    /// The policy column holds the per-task names joined with `+`.
    pub fn executive(spec: &ExecutiveSpec, summary: &ExecutiveSummary) -> Self {
        Self {
            cell: CellId::for_executive(spec),
            policy: spec.policy.policy_names(spec.tasks.len()).join("+"),
            spec: executive_cell_spec_json(spec),
            payload: CellPayload::Executive(summary.clone()),
            served: ServeTier::Mc,
            source: None,
        }
    }

    /// The Monte-Carlo aggregate, for summary cells.
    pub fn as_summary(&self) -> Result<&Summary, SpecError> {
        match &self.payload {
            CellPayload::Summary(s) => Ok(s),
            _ => Err(SpecError::invalid(format!(
                "cell {} does not hold a single-task Monte-Carlo summary",
                self.cell
            ))),
        }
    }

    /// The single-execution outcome, for `replications == 0` cells.
    pub fn as_outcome(&self) -> Result<&RunOutcome, SpecError> {
        match &self.payload {
            CellPayload::Outcome(o) => Ok(o),
            _ => Err(SpecError::invalid(format!(
                "cell {} does not hold a single-execution outcome",
                self.cell
            ))),
        }
    }

    /// The executive Monte-Carlo aggregate, for executive cells.
    pub fn as_executive(&self) -> Result<&ExecutiveSummary, SpecError> {
        match &self.payload {
            CellPayload::Executive(s) => Ok(s),
            _ => Err(SpecError::invalid(format!(
                "cell {} does not hold an executive Monte-Carlo summary",
                self.cell
            ))),
        }
    }

    /// Reconstructs a runnable [`ExperimentSpec`] from the embedded
    /// canonical document plus this entry's key — the spec `eacp store
    /// verify` re-executes. The canonical document carries no `name` or
    /// `mc` section, so the name defaults and the seed/replications come
    /// from the cell id (`threads = 0`, which cannot change the result).
    pub fn experiment_spec(&self) -> Result<ExperimentSpec, SpecError> {
        let mut spec = ExperimentSpec::from_json(&self.spec)?;
        spec.mc.seed = self.cell.seed;
        spec.mc.replications = self.cell.replications.max(1);
        spec.mc.threads = 0;
        Ok(spec)
    }

    /// Reconstructs a runnable [`ExecutiveSpec`] from the embedded
    /// canonical document plus this entry's key — what `eacp store verify`
    /// re-executes for executive cells. The canonical document carries no
    /// `name`, `seed` or `mc`, so the name defaults, the seed comes from
    /// the cell id and the horizon count from the cell's replications
    /// (`threads = 0`, which cannot change the result).
    pub fn executive_spec(&self) -> Result<ExecutiveSpec, SpecError> {
        let mut spec = ExecutiveSpec::from_json(&self.spec)?;
        spec.seed = self.cell.seed;
        spec.mc = Some(ExecutiveMcSpec {
            replications: self.cell.replications.max(1),
            threads: 0,
            queue: None,
        });
        Ok(spec)
    }

    /// Internal-consistency check: the embedded spec re-hashes to the
    /// cell's address, and the payload kind, replication count and anomaly
    /// discipline match the key. Backends run this on every read so a
    /// corrupt or tampered entry surfaces as a quarantine, never as a
    /// silently wrong cache hit.
    pub fn validate(&self) -> Result<(), SpecError> {
        let rehashed = SpecHash(sha256(self.spec.pretty().as_bytes()));
        if rehashed != self.cell.spec_hash {
            return Err(SpecError::invalid(format!(
                "cell {}: embedded spec re-hashes to {rehashed}",
                self.cell
            )));
        }
        if self.served == ServeTier::Analytic && !matches!(self.payload, CellPayload::Summary(_)) {
            return Err(SpecError::invalid(format!(
                "cell {}: only Monte-Carlo summaries can be served analytically",
                self.cell
            )));
        }
        match &self.payload {
            CellPayload::Summary(s) => {
                if self.cell.replications == 0 {
                    return Err(SpecError::invalid(format!(
                        "cell {}: summary payload in a single-execution cell",
                        self.cell
                    )));
                }
                if s.replications != self.cell.replications {
                    return Err(SpecError::invalid(format!(
                        "cell {}: summary covers {} replications",
                        self.cell, s.replications
                    )));
                }
            }
            CellPayload::Outcome(o) => {
                if self.cell.replications != 0 {
                    return Err(SpecError::invalid(format!(
                        "cell {}: single-execution payload in a Monte-Carlo cell",
                        self.cell
                    )));
                }
                if o.anomaly.is_some() {
                    return Err(SpecError::invalid(format!(
                        "cell {}: anomalous outcomes are never recorded",
                        self.cell
                    )));
                }
            }
            CellPayload::Executive(s) => {
                if self.cell.replications == 0 {
                    return Err(SpecError::invalid(format!(
                        "cell {}: executive payload in a single-execution cell",
                        self.cell
                    )));
                }
                if s.horizons != self.cell.replications {
                    return Err(SpecError::invalid(format!(
                        "cell {}: executive summary covers {} horizons",
                        self.cell, s.horizons
                    )));
                }
            }
        }
        Ok(())
    }

    /// The canonical serialized bytes of this entry — exactly what a
    /// backend persists, and what `eacp store verify` compares against a
    /// recomputation.
    pub fn canonical_text(&self) -> String {
        self.to_json().pretty()
    }
}

impl ToJson for CellEntry {
    fn to_json(&self) -> Json {
        let (kind, payload) = match &self.payload {
            CellPayload::Summary(s) => ("summary", s.to_json()),
            CellPayload::Outcome(o) => ("outcome", outcome_to_json(o)),
            // ExecutiveSummary's own ToJson is already lossless (raw
            // accumulator state), so the entry embeds it verbatim.
            CellPayload::Executive(s) => ("executive", s.to_json()),
        };
        let mut fields: Vec<(&'static str, Json)> = vec![
            ("spec_hash", self.cell.spec_hash.to_string().into()),
            ("seed", self.cell.seed.into()),
            ("replications", self.cell.replications.into()),
            ("policy", self.policy.as_str().into()),
        ];
        // Emitted only for analytic cells: Monte-Carlo entries keep their
        // historical canonical bytes.
        if self.served != ServeTier::Mc {
            fields.push(("served", self.served.as_str().into()));
        }
        fields.extend([
            ("spec", self.spec.clone()),
            ("kind", kind.into()),
            ("payload", payload),
        ]);
        Json::obj(fields)
    }
}

impl FromJson for CellEntry {
    fn from_json(json: &Json) -> Result<Self, SpecError> {
        let cell = CellId {
            spec_hash: SpecHash::from_hex(json.req("spec_hash")?.as_str()?)?,
            seed: json.req("seed")?.as_u64()?,
            replications: json.req("replications")?.as_u64()?,
        };
        let payload = match json.req("kind")?.as_str()? {
            "summary" => CellPayload::Summary(Summary::from_json(json.req("payload")?)?),
            "outcome" => CellPayload::Outcome(outcome_from_json(json.req("payload")?)?),
            "executive" => {
                CellPayload::Executive(ExecutiveSummary::from_json(json.req("payload")?)?)
            }
            other => {
                return Err(SpecError::invalid(format!(
                    "unknown cell payload kind {other:?} \
                     (expected summary, outcome or executive)"
                )))
            }
        };
        Ok(Self {
            cell,
            policy: json.req("policy")?.as_str()?.to_owned(),
            spec: json.req("spec")?.clone(),
            payload,
            served: match json.get("served") {
                None => ServeTier::Mc,
                Some(s) => ServeTier::parse(s.as_str()?)?,
            },
            source: None,
        })
    }
}

// Summary/OnlineStats cells persist through the spec layer's lossless
// `ToJson`/`FromJson` impls (raw accumulator state, same wire shape as
// the remote execution transport) — see `eacp_spec::report`.

/// Anomalous runs are never recorded (they indicate policy bugs, and the
/// store must not launder one into a cache hit), so the serialized outcome
/// has no anomaly field and deserialization always yields `anomaly: None`.
fn outcome_to_json(o: &RunOutcome) -> Json {
    Json::obj([
        ("completed", o.completed.into()),
        ("timely", o.timely.into()),
        ("finish_time", o.finish_time.into()),
        ("energy", o.energy.into()),
        ("faults", o.faults.into()),
        ("rollbacks", o.rollbacks.into()),
        ("store_checkpoints", o.store_checkpoints.into()),
        ("compare_checkpoints", o.compare_checkpoints.into()),
        (
            "compare_store_checkpoints",
            o.compare_store_checkpoints.into(),
        ),
        ("segments", o.segments.into()),
        ("speed_switches", o.speed_switches.into()),
        ("cycles_at_fastest", o.cycles_at_fastest.into()),
        ("total_cycles", o.total_cycles.into()),
        ("aborted", o.aborted.into()),
    ])
}

fn outcome_from_json(json: &Json) -> Result<RunOutcome, SpecError> {
    Ok(RunOutcome {
        completed: json.req("completed")?.as_bool()?,
        timely: json.req("timely")?.as_bool()?,
        finish_time: json.req("finish_time")?.as_f64()?,
        energy: json.req("energy")?.as_f64()?,
        faults: json.req("faults")?.as_u32()?,
        rollbacks: json.req("rollbacks")?.as_u32()?,
        store_checkpoints: json.req("store_checkpoints")?.as_u32()?,
        compare_checkpoints: json.req("compare_checkpoints")?.as_u32()?,
        compare_store_checkpoints: json.req("compare_store_checkpoints")?.as_u32()?,
        segments: json.req("segments")?.as_u32()?,
        speed_switches: json.req("speed_switches")?.as_u64()?,
        cycles_at_fastest: json.req("cycles_at_fastest")?.as_f64()?,
        total_cycles: json.req("total_cycles")?.as_f64()?,
        aborted: json.req("aborted")?.as_bool()?,
        anomaly: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eacp_exec::run;
    use eacp_spec::McSpec;

    fn small_spec() -> ExperimentSpec {
        let mut spec = ExperimentSpec::paper_nominal();
        spec.mc = McSpec {
            replications: 80,
            seed: 11,
            threads: 1,
        };
        spec
    }

    #[test]
    fn summary_entry_round_trips_bit_exactly() {
        let spec = small_spec();
        let (summary, _) = run(&spec).unwrap();
        let entry = CellEntry::summary(&spec, &summary);
        entry.validate().unwrap();
        let text = entry.canonical_text();
        let back = CellEntry::from_json(&Json::parse(&text).unwrap()).unwrap();
        back.validate().unwrap();
        assert_eq!(back, entry);
        assert_eq!(back.canonical_text(), text);
        // The payload round-trip is lossless to the bit, not just to the
        // serialized text: the reconstructed Summary equals the original.
        assert_eq!(back.as_summary().unwrap(), &summary);
    }

    #[test]
    fn outcome_entry_round_trips_and_uses_the_sentinel() {
        let spec = small_spec();
        let scenario = spec.scenario.build().unwrap();
        let mut policy = spec.policy.build().unwrap();
        let mut faults = spec.faults.build(spec.mc.seed).unwrap();
        let options = spec.executor.build().unwrap();
        let out = eacp_sim::Executor::new(&scenario)
            .with_options(options)
            .run(&mut policy, &mut faults);
        let entry = CellEntry::outcome(&spec, &out);
        assert_eq!(entry.cell.replications, 0);
        entry.validate().unwrap();
        let back = CellEntry::from_json(&Json::parse(&entry.canonical_text()).unwrap()).unwrap();
        assert_eq!(back.as_outcome().unwrap(), &out);
        assert!(back.as_summary().is_err());
    }

    #[test]
    fn validate_rejects_mismatched_entries() {
        let spec = small_spec();
        let (summary, _) = run(&spec).unwrap();
        let entry = CellEntry::summary(&spec, &summary);

        let mut wrong_hash = entry.clone();
        wrong_hash.cell.spec_hash = SpecHash([0u8; 32]);
        assert!(wrong_hash.validate().is_err());

        let mut wrong_reps = entry.clone();
        wrong_reps.cell.replications += 1;
        assert!(wrong_reps.validate().is_err());

        let mut sentinel_summary = entry.clone();
        sentinel_summary.cell.replications = 0;
        assert!(sentinel_summary.validate().is_err());
    }

    #[test]
    fn experiment_spec_reconstruction_lands_in_the_same_cell() {
        let spec = small_spec();
        let (summary, _) = run(&spec).unwrap();
        let entry = CellEntry::summary(&spec, &summary);
        let rebuilt = entry.experiment_spec().unwrap();
        assert_eq!(CellId::for_spec(&rebuilt), entry.cell);
        // Re-running the reconstructed spec reproduces the payload.
        let (again, _) = run(&rebuilt).unwrap();
        assert_eq!(&again, entry.as_summary().unwrap());
    }
}
