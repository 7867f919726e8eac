//! The paper's analytical machinery.
//!
//! Every display equation in the available paper text is corrupted by PDF
//! extraction; the formulas here were re-derived from first principles and
//! validated against the limiting cases the paper states in prose and
//! against Monte-Carlo simulation (see the `analysis_vs_simulation`
//! integration tests).

mod dvs;
mod intervals;
mod prediction;
mod renewal;

pub use dvs::{choose_speed, estimated_completion_time};
pub use intervals::{
    checkpoint_interval, checkpoint_interval_with_branch, deadline_interval, k_fault_interval,
    k_fault_threshold, poisson_interval, poisson_threshold, IntervalBranch, IntervalInputs,
};
pub use prediction::{static_scheme_completion, CompletionEstimate};
pub use renewal::{
    ccp_interval_mean_exact, ccp_interval_mean_time, num_ccp, num_scp, scp_interval_mean_exact,
    scp_interval_mean_time, OptimizeMethod, RenewalParams,
};
