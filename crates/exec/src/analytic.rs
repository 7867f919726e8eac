//! The closed-form serve tier: exact answers for replication-invariant
//! cells, without running the full Monte-Carlo loop.
//!
//! The renewal-analysis literature (Duda 1983; Aupy et al.) gives closed
//! forms for checkpointed completion time exactly where the process is
//! degenerate or memoryless; the strongest — and only bit-safe — case is
//! the **degenerate** one: when the fault stream is the same for every
//! replication seed (Poisson `λ = 0`, or a deterministic fault schedule)
//! and the policy is deterministic given what it observes (every in-repo
//! scheme is), the outcome distribution is a point mass. A 10 000-rep
//! Monte-Carlo run of such a cell simulates the identical execution
//! 10 000 times; this tier simulates it **once** and derives the aggregate
//! exactly, marking the result `served: analytic` so reports and store
//! cells record which tier answered.
//!
//! Anything short of a point mass (λ > 0, Weibull, burst, phased, or a
//! factory-built job that may hide a randomized policy) falls back to the
//! full Monte-Carlo loop — eligibility is [`Job::replication_invariant`],
//! which errs on the side of simulating.
//!
//! The tier sits at the orchestration layer (`eacp_exec::run`, the sweep
//! executors, the store's cache-or-compute path), never inside
//! [`crate::Runner::run`]: runners keep their honest per-replication
//! semantics, which is what the conformance test checks the tier
//! against.

use crate::job::Job;
use eacp_sim::{NoopObserver, Summary};

/// Serves a replication-invariant job from one simulated replication, or
/// returns `None` when the job needs the full Monte-Carlo loop.
///
/// The aggregate is built by absorbing the single outcome once per planned
/// replication — the same accumulation the sequential Monte-Carlo path
/// performs on its identical per-replication outcomes, so counts, means
/// and extrema are exact (the point-mass distribution has zero variance).
/// The conformance test pins this against a real Monte-Carlo run of the
/// same cell within Wilson bounds.
pub fn serve_closed_form(job: &Job) -> Option<Summary> {
    if !job.replication_invariant() {
        return None;
    }
    // Replication 0's outcome *is* the distribution; its seed is derived
    // but unused (invariance is exactly seed-independence).
    let out = job.run_replication(0, &mut NoopObserver);
    let mut summary = Summary::empty();
    for _ in 0..job.replications() {
        summary.absorb(&out);
    }
    Some(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eacp_spec::{ExperimentSpec, FaultSpec, McSpec};

    fn spec(faults: FaultSpec, reps: u64) -> ExperimentSpec {
        let mut spec = ExperimentSpec::paper_nominal();
        spec.faults = faults;
        spec.mc = McSpec {
            replications: reps,
            seed: 7,
            threads: 1,
        };
        spec
    }

    #[test]
    fn eligibility_is_exactly_seed_invariance() {
        let invariant = [
            FaultSpec::Poisson { lambda: 0.0 },
            FaultSpec::Deterministic { times: vec![] },
            FaultSpec::Deterministic {
                times: vec![500.0, 3000.0],
            },
        ];
        for faults in invariant {
            let job = Job::from_spec(&spec(faults.clone(), 10)).unwrap();
            assert!(job.replication_invariant(), "{faults:?}");
            assert!(serve_closed_form(&job).is_some(), "{faults:?}");
        }
        let sampled = [
            FaultSpec::Poisson { lambda: 1.4e-3 },
            FaultSpec::Weibull {
                shape: 0.7,
                scale: 700.0,
            },
        ];
        for faults in sampled {
            let job = Job::from_spec(&spec(faults.clone(), 10)).unwrap();
            assert!(!job.replication_invariant(), "{faults:?}");
            assert!(serve_closed_form(&job).is_none(), "{faults:?}");
        }
    }

    #[test]
    fn factory_jobs_are_never_served_analytically() {
        // `from_spec_boxed` routes the very same experiment through the
        // factory escape hatch, which may hide randomized policies.
        let s = spec(FaultSpec::Poisson { lambda: 0.0 }, 10);
        let boxed = Job::from_spec_boxed(&s).unwrap();
        assert!(!boxed.replication_invariant());
        assert!(serve_closed_form(&boxed).is_none());
    }

    #[test]
    fn closed_form_aggregate_is_a_point_mass() {
        let s = spec(
            FaultSpec::Deterministic {
                times: vec![500.0, 3000.0],
            },
            250,
        );
        let job = Job::from_spec(&s).unwrap();
        let summary = serve_closed_form(&job).unwrap();
        let out = job.run_replication(0, &mut eacp_sim::NoopObserver);
        assert_eq!(summary.replications, 250);
        assert_eq!(summary.timely, if out.timely { 250 } else { 0 });
        assert_eq!(summary.faults.mean(), f64::from(out.faults));
        assert_eq!(summary.faults.population_variance(), 0.0);
        assert_eq!(summary.energy_all.min(), summary.energy_all.max());
    }
}
