//! Transient-fault arrival processes for the EACP workspace.
//!
//! The DATE 2006 paper injects faults into the DMR pair as a *Poisson process
//! with rate `λ`* (faults per unit wall-clock time at the normalized minimum
//! processor speed). This crate provides that process plus several
//! alternatives used by robustness experiments and tests:
//!
//! * [`PoissonProcess`] — the paper's model; memoryless, rate `λ`.
//! * [`DeterministicFaults`] — a fixed schedule of fault instants, used by
//!   unit tests to exercise exact rollback scenarios.
//! * [`WeibullRenewal`] — renewal process with Weibull inter-arrivals
//!   (burstier than Poisson for shape < 1), a robustness extension.
//! * [`BurstProcess`] — two-state Markov-modulated Poisson process capturing
//!   radiation bursts (e.g. solar events for the paper's airborne/space
//!   scenarios).
//!
//! All processes implement [`FaultProcess`]: an infinite nondecreasing stream
//! of absolute fault times, pulled one at a time by the simulator. Processes
//! are deterministic given their RNG seed, which is what makes every
//! experiment in this workspace reproducible.
//!
//! Monte-Carlo drivers hold one [`FaultKind`] per block and
//! [`reset`](FaultKind::reset) it per replication; each arrival is drawn
//! on demand from the process's own RNG. Sampling is a few percent of a
//! replication, so no layer buffers arrivals ahead of the simulator.
//!
//! # Examples
//!
//! ```
//! use eacp_faults::{FaultProcess, PoissonProcess};
//! use rand::SeedableRng;
//!
//! let rng = rand::rngs::StdRng::seed_from_u64(7);
//! let mut p = PoissonProcess::new(0.01, rng);
//! let t1 = p.next_fault();
//! let t2 = p.next_fault();
//! assert!(0.0 < t1 && t1 < t2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub mod sampling;

pub use sampling::{sample_exponential, sample_weibull};

/// An infinite, nondecreasing stream of absolute fault arrival times.
///
/// Implementations return [`f64::INFINITY`] once (and forever after) the
/// process produces no further faults; the simulator treats that as
/// "fault-free from here on".
pub trait FaultProcess {
    /// Returns the next fault arrival time.
    ///
    /// Successive calls return a nondecreasing sequence.
    fn next_fault(&mut self) -> f64;

    /// The long-run average fault rate (faults per unit time), if defined.
    ///
    /// Used for diagnostics only; adaptive policies receive the *nominal*
    /// rate `λ` through their own configuration, mirroring the paper where
    /// the policy's assumed rate and the injected rate coincide.
    fn mean_rate(&self) -> Option<f64> {
        None
    }
}

impl<T: FaultProcess + ?Sized> FaultProcess for Box<T> {
    fn next_fault(&mut self) -> f64 {
        (**self).next_fault()
    }

    fn mean_rate(&self) -> Option<f64> {
        (**self).mean_rate()
    }
}

/// The closed set of fault processes, as one concrete type.
///
/// `Box<dyn FaultProcess>` pays a heap allocation per construction and a
/// virtual call per arrival; Monte-Carlo loops construct one process per
/// *block* as a `FaultKind` and [`reset`](FaultKind::reset) it per
/// replication instead. The enum match is a perfectly-predicted branch
/// (one variant per job) and lets each process's sampler inline into the
/// simulation loop. Custom processes outside this set keep using the boxed
/// trait object — the open, slower path.
#[derive(Debug, Clone)]
#[allow(missing_docs)]
pub enum FaultKind {
    Poisson(PoissonProcess<StdRng>),
    Deterministic(DeterministicFaults),
    Weibull(WeibullRenewal<StdRng>),
    Burst(BurstProcess<StdRng>),
    Phased(PhasedPoisson<StdRng>),
}

impl FaultKind {
    /// Rewinds the process to time zero, re-seeded — **exactly** the
    /// stream a fresh construction from the same parameters with
    /// `StdRng::seed_from_u64(seed)` would produce.
    ///
    /// This is the pooling contract replication loops rely on: one
    /// instance per block, `reset(seed)` per replication, bit-identical
    /// arrivals to building from scratch.
    pub fn reset(&mut self, seed: u64) {
        match self {
            FaultKind::Poisson(p) => p.restart(StdRng::seed_from_u64(seed)),
            FaultKind::Deterministic(d) => d.restart(),
            FaultKind::Weibull(w) => w.restart(StdRng::seed_from_u64(seed)),
            FaultKind::Burst(b) => b.restart(StdRng::seed_from_u64(seed)),
            FaultKind::Phased(p) => p.restart(StdRng::seed_from_u64(seed)),
        }
    }
}

impl FaultProcess for FaultKind {
    #[inline]
    fn next_fault(&mut self) -> f64 {
        match self {
            FaultKind::Poisson(p) => p.next_fault(),
            FaultKind::Deterministic(d) => d.next_fault(),
            FaultKind::Weibull(w) => w.next_fault(),
            FaultKind::Burst(b) => b.next_fault(),
            FaultKind::Phased(p) => p.next_fault(),
        }
    }

    fn mean_rate(&self) -> Option<f64> {
        match self {
            FaultKind::Poisson(p) => p.mean_rate(),
            FaultKind::Deterministic(d) => d.mean_rate(),
            FaultKind::Weibull(w) => w.mean_rate(),
            FaultKind::Burst(b) => b.mean_rate(),
            FaultKind::Phased(p) => p.mean_rate(),
        }
    }
}

/// Homogeneous Poisson fault arrivals with rate `λ` — the paper's model.
///
/// Inter-arrival times are i.i.d. `Exp(λ)`. A non-positive rate yields a
/// fault-free stream.
#[derive(Debug, Clone)]
pub struct PoissonProcess<R = StdRng> {
    rate: f64,
    now: f64,
    rng: R,
}

impl<R: Rng> PoissonProcess<R> {
    /// Creates a Poisson process with the given rate and RNG.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is NaN.
    pub fn new(rate: f64, rng: R) -> Self {
        assert!(!rate.is_nan(), "fault rate must not be NaN");
        Self {
            rate,
            now: 0.0,
            rng,
        }
    }

    /// The configured arrival rate `λ`.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Rewinds the process to time zero with a fresh RNG — exactly
    /// equivalent to `PoissonProcess::new(self.rate(), rng)`.
    pub fn restart(&mut self, rng: R) {
        self.now = 0.0;
        self.rng = rng;
    }
}

impl<R: Rng> FaultProcess for PoissonProcess<R> {
    #[inline]
    fn next_fault(&mut self) -> f64 {
        if self.rate <= 0.0 {
            return f64::INFINITY;
        }
        self.now += sample_exponential(&mut self.rng, self.rate);
        self.now
    }

    fn mean_rate(&self) -> Option<f64> {
        Some(self.rate.max(0.0))
    }
}

/// A fixed, pre-sorted schedule of fault instants.
///
/// Once the schedule is exhausted the stream returns [`f64::INFINITY`].
/// This is the workhorse of the deterministic unit tests: place a fault at
/// an exact position inside a checkpoint interval and assert the rollback
/// target, wasted work and energy to the last ulp.
#[derive(Debug, Clone, Default)]
pub struct DeterministicFaults {
    times: Vec<f64>,
    next: usize,
}

impl DeterministicFaults {
    /// Creates a schedule from fault instants, sorting them ascending.
    ///
    /// # Panics
    ///
    /// Panics if any instant is NaN or negative.
    pub fn new(mut times: Vec<f64>) -> Self {
        assert!(
            times.iter().all(|t| t.is_finite() && *t >= 0.0),
            "fault instants must be finite and non-negative"
        );
        // Total order: the assert above rules out NaN, and for the
        // remaining finite non-negative values `total_cmp` agrees with
        // `partial_cmp` — same ordering, no panic path at all.
        times.sort_by(f64::total_cmp);
        Self { times, next: 0 }
    }

    /// A schedule with no faults at all.
    pub fn none() -> Self {
        Self::default()
    }

    /// An empty schedule whose buffer can hold `capacity` instants before
    /// [`reload`](Self::reload) has to grow it. Pooled replication loops
    /// use this so the window buffer is sized in setup rather than by the
    /// densest window the fault process happens to produce mid-run.
    // audit:setup: sizes a pooled schedule's buffer once, before any
    // replication runs.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            times: Vec::with_capacity(capacity),
            next: 0,
        }
    }

    /// Remaining (not yet emitted) fault instants.
    pub fn remaining(&self) -> &[f64] {
        &self.times[self.next.min(self.times.len())..]
    }

    /// Rewinds the schedule to its first instant — equivalent to
    /// rebuilding from the same times, without re-sorting or reallocating.
    pub fn restart(&mut self) {
        self.next = 0;
    }

    /// Replaces the schedule in place with `times` (sorted ascending) and
    /// rewinds to the first instant — exactly equivalent to
    /// `*self = DeterministicFaults::new(times.to_vec())`, but reusing the
    /// existing buffer. Replication loops that feed each run a fresh fault
    /// window through one pooled schedule stop allocating once the buffer's
    /// capacity reaches the largest window the workload produces.
    ///
    /// # Panics
    ///
    /// Panics if any instant is NaN or negative.
    pub fn reload(&mut self, times: &[f64]) {
        assert!(
            times.iter().all(|t| t.is_finite() && *t >= 0.0),
            "fault instants must be finite and non-negative"
        );
        self.times.clear();
        self.times.extend_from_slice(times);
        // Same total-order argument as `new`; `sort_unstable_by` is
        // bit-identical to the stable sort for f64 keys, because
        // `total_cmp`-equal values have identical bit patterns.
        self.times.sort_unstable_by(f64::total_cmp);
        self.next = 0;
    }
}

impl FaultProcess for DeterministicFaults {
    #[inline]
    fn next_fault(&mut self) -> f64 {
        match self.times.get(self.next) {
            Some(&t) => {
                self.next += 1;
                t
            }
            None => f64::INFINITY,
        }
    }
}

impl FromIterator<f64> for DeterministicFaults {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Self::new(iter.into_iter().collect())
    }
}

/// Renewal process with Weibull(shape, scale) inter-arrival times.
///
/// * `shape < 1`: clustered ("infant-mortality") arrivals — bursty.
/// * `shape = 1`: reduces exactly to [`PoissonProcess`] with `λ = 1/scale`.
/// * `shape > 1`: regular, quasi-periodic arrivals.
///
/// Mean inter-arrival time is `scale · Γ(1 + 1/shape)`.
#[derive(Debug, Clone)]
pub struct WeibullRenewal<R = StdRng> {
    shape: f64,
    scale: f64,
    now: f64,
    rng: R,
}

impl<R: Rng> WeibullRenewal<R> {
    /// Creates a Weibull renewal process.
    ///
    /// # Panics
    ///
    /// Panics unless `shape > 0` and `scale > 0`.
    pub fn new(shape: f64, scale: f64, rng: R) -> Self {
        assert!(shape > 0.0, "Weibull shape must be positive");
        assert!(scale > 0.0, "Weibull scale must be positive");
        Self {
            shape,
            scale,
            now: 0.0,
            rng,
        }
    }

    /// The shape parameter.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// The scale parameter.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Rewinds the process to time zero with a fresh RNG — exactly
    /// equivalent to `WeibullRenewal::new(shape, scale, rng)`.
    pub fn restart(&mut self, rng: R) {
        self.now = 0.0;
        self.rng = rng;
    }
}

impl<R: Rng> FaultProcess for WeibullRenewal<R> {
    #[inline]
    fn next_fault(&mut self) -> f64 {
        self.now += sample_weibull(&mut self.rng, self.shape, self.scale);
        self.now
    }

    fn mean_rate(&self) -> Option<f64> {
        // 1 / (scale * Γ(1 + 1/shape)) via Lanczos-free Stirling series is
        // overkill here; use the exact values for common shapes and a
        // numerically adequate Lanczos approximation otherwise.
        Some(1.0 / (self.scale * gamma(1.0 + 1.0 / self.shape)))
    }
}

/// Two-state Markov-modulated Poisson process ("quiet" / "burst").
///
/// The environment alternates between a quiet state with fault rate
/// `quiet_rate` and a burst state with `burst_rate`; dwell times in each
/// state are exponential with means `mean_quiet_dwell` and
/// `mean_burst_dwell`. This models radiation bursts for the harsh-environment
/// scenarios motivating the paper (autonomous airborne / space systems).
#[derive(Debug, Clone)]
pub struct BurstProcess<R = StdRng> {
    quiet_rate: f64,
    burst_rate: f64,
    quiet_leave_rate: f64,
    burst_leave_rate: f64,
    in_burst: bool,
    now: f64,
    rng: R,
}

impl<R: Rng> BurstProcess<R> {
    /// Creates a burst process starting in the quiet state at time zero.
    ///
    /// # Panics
    ///
    /// Panics if any rate/dwell is not positive and finite (except
    /// `quiet_rate`, which may be zero for "no faults outside bursts").
    pub fn new(
        quiet_rate: f64,
        burst_rate: f64,
        mean_quiet_dwell: f64,
        mean_burst_dwell: f64,
        rng: R,
    ) -> Self {
        assert!(
            quiet_rate >= 0.0 && quiet_rate.is_finite(),
            "quiet rate must be non-negative and finite"
        );
        assert!(
            burst_rate > 0.0 && burst_rate.is_finite(),
            "burst rate must be positive and finite"
        );
        assert!(
            mean_quiet_dwell > 0.0 && mean_quiet_dwell.is_finite(),
            "quiet dwell must be positive and finite"
        );
        assert!(
            mean_burst_dwell > 0.0 && mean_burst_dwell.is_finite(),
            "burst dwell must be positive and finite"
        );
        Self {
            quiet_rate,
            burst_rate,
            quiet_leave_rate: 1.0 / mean_quiet_dwell,
            burst_leave_rate: 1.0 / mean_burst_dwell,
            in_burst: false,
            now: 0.0,
            rng,
        }
    }

    /// Whether the process is currently in the burst state.
    pub fn in_burst(&self) -> bool {
        self.in_burst
    }

    /// Rewinds to the quiet state at time zero with a fresh RNG — exactly
    /// equivalent to rebuilding with the same rates and dwells.
    pub fn restart(&mut self, rng: R) {
        self.in_burst = false;
        self.now = 0.0;
        self.rng = rng;
    }
}

impl<R: Rng> FaultProcess for BurstProcess<R> {
    #[inline]
    fn next_fault(&mut self) -> f64 {
        // Competing exponentials: in each state, the sooner of (next fault,
        // state switch) wins; iterate until a fault fires.
        loop {
            let (fault_rate, leave_rate) = if self.in_burst {
                (self.burst_rate, self.burst_leave_rate)
            } else {
                (self.quiet_rate, self.quiet_leave_rate)
            };
            let to_switch = sample_exponential(&mut self.rng, leave_rate);
            let to_fault = if fault_rate > 0.0 {
                sample_exponential(&mut self.rng, fault_rate)
            } else {
                f64::INFINITY
            };
            if to_fault < to_switch {
                self.now += to_fault;
                return self.now;
            }
            self.now += to_switch;
            self.in_burst = !self.in_burst;
        }
    }

    fn mean_rate(&self) -> Option<f64> {
        // Stationary distribution of the two-state chain weights the rates.
        let pi_burst = self.quiet_leave_rate / (self.quiet_leave_rate + self.burst_leave_rate);
        Some(pi_burst * self.burst_rate + (1.0 - pi_burst) * self.quiet_rate)
    }
}

/// Lanczos approximation of the gamma function, adequate for `x in (1, 2]`
/// as used by [`WeibullRenewal::mean_rate`].
fn gamma(x: f64) -> f64 {
    // g = 7, n = 9 Lanczos coefficients.
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        std::f64::consts::PI / ((std::f64::consts::PI * x).sin() * gamma(1.0 - x))
    } else {
        let x = x - 1.0;
        let mut a = COEF[0];
        let t = x + G + 0.5;
        for (i, &c) in COEF.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        (2.0 * std::f64::consts::PI).sqrt() * t.powf(x + 0.5) * (-t).exp() * a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn poisson_stream_is_increasing() {
        let mut p = PoissonProcess::new(0.05, rng(1));
        let mut last = 0.0;
        for _ in 0..1000 {
            let t = p.next_fault();
            assert!(t > last);
            last = t;
        }
    }

    #[test]
    fn poisson_empirical_rate_matches() {
        let lambda = 0.01;
        let mut p = PoissonProcess::new(lambda, rng(42));
        let n = 200_000;
        let mut last = 0.0;
        for _ in 0..n {
            last = p.next_fault();
        }
        let empirical = n as f64 / last;
        assert!(
            (empirical - lambda).abs() / lambda < 0.02,
            "empirical rate {empirical} vs {lambda}"
        );
    }

    #[test]
    fn poisson_zero_rate_is_fault_free() {
        let mut p = PoissonProcess::new(0.0, rng(3));
        assert_eq!(p.next_fault(), f64::INFINITY);
        assert_eq!(p.mean_rate(), Some(0.0));
    }

    #[test]
    fn deterministic_schedule_sorted_and_exhausts() {
        let mut d = DeterministicFaults::new(vec![5.0, 1.0, 3.0]);
        assert_eq!(d.next_fault(), 1.0);
        assert_eq!(d.next_fault(), 3.0);
        assert_eq!(d.remaining(), &[5.0]);
        assert_eq!(d.next_fault(), 5.0);
        assert_eq!(d.next_fault(), f64::INFINITY);
        assert_eq!(d.next_fault(), f64::INFINITY);
    }

    #[test]
    fn deterministic_none_is_fault_free() {
        let mut d = DeterministicFaults::none();
        assert_eq!(d.next_fault(), f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn deterministic_rejects_negative() {
        DeterministicFaults::new(vec![-1.0]);
    }

    #[test]
    fn deterministic_reload_equals_rebuild() {
        let mut pooled = DeterministicFaults::new(vec![9.0, 2.0]);
        pooled.next_fault();
        for times in [vec![5.0, 1.0, 3.0], vec![], vec![0.0, 0.0, 7.5]] {
            pooled.reload(&times);
            let mut fresh = DeterministicFaults::new(times);
            for _ in 0..4 {
                assert_eq!(pooled.next_fault().to_bits(), fresh.next_fault().to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn deterministic_reload_rejects_nan() {
        DeterministicFaults::none().reload(&[f64::NAN]);
    }

    #[test]
    fn weibull_shape_one_matches_poisson_rate() {
        let scale = 100.0;
        let mut w = WeibullRenewal::new(1.0, scale, rng(9));
        let n = 100_000;
        let mut last = 0.0;
        for _ in 0..n {
            last = w.next_fault();
        }
        let empirical_mean = last / n as f64;
        assert!(
            (empirical_mean - scale).abs() / scale < 0.02,
            "mean inter-arrival {empirical_mean} vs {scale}"
        );
        let rate = w.mean_rate().unwrap();
        assert!((rate - 1.0 / scale).abs() / (1.0 / scale) < 1e-6);
    }

    #[test]
    fn weibull_mean_rate_uses_gamma() {
        // shape 2 ⇒ mean = scale·Γ(1.5) = scale·(√π/2).
        let w = WeibullRenewal::new(2.0, 10.0, rng(5));
        let expected = 1.0 / (10.0 * (std::f64::consts::PI.sqrt() / 2.0));
        assert!((w.mean_rate().unwrap() - expected).abs() < 1e-9);
    }

    #[test]
    fn burst_process_rate_between_extremes() {
        let mut b = BurstProcess::new(0.001, 0.1, 1000.0, 100.0, rng(11));
        let n = 50_000;
        let mut last = 0.0;
        for _ in 0..n {
            let t = b.next_fault();
            assert!(t >= last);
            last = t;
        }
        let empirical = n as f64 / last;
        let stationary = b.mean_rate().unwrap();
        assert!(empirical > 0.001 && empirical < 0.1);
        assert!(
            (empirical - stationary).abs() / stationary < 0.1,
            "empirical {empirical} vs stationary {stationary}"
        );
    }

    #[test]
    fn boxed_process_delegates() {
        let mut b: Box<dyn FaultProcess> = Box::new(DeterministicFaults::new(vec![2.0]));
        assert_eq!(b.next_fault(), 2.0);
        assert_eq!(b.next_fault(), f64::INFINITY);
    }

    /// One of each kind, seeded with `seed`, plus two finite streams: a
    /// short schedule that runs out and a zero-rate Poisson stream.
    fn kinds(seed: u64) -> Vec<FaultKind> {
        vec![
            FaultKind::Poisson(PoissonProcess::new(1.4e-3, rng(seed))),
            FaultKind::Poisson(PoissonProcess::new(0.0, rng(seed))),
            FaultKind::Deterministic(DeterministicFaults::new(vec![3.0, 40.0, 41.5, 900.0])),
            FaultKind::Deterministic(DeterministicFaults::new(vec![1.0, 2.0])),
            FaultKind::Weibull(WeibullRenewal::new(0.7, 600.0, rng(seed))),
            FaultKind::Burst(BurstProcess::new(1e-4, 5e-2, 2_000.0, 150.0, rng(seed))),
            FaultKind::Phased(PhasedPoisson::new(
                vec![(900.0, 1e-4), (100.0, 2e-2)],
                true,
                rng(seed),
            )),
        ]
    }

    #[test]
    fn reset_replays_a_fresh_build() {
        for (mut pooled, mut fresh) in kinds(0).into_iter().zip(kinds(5)) {
            // Draw a prefix (past the end of the short schedule), re-seed,
            // and demand the stream a fresh build with that seed produces.
            for _ in 0..7 {
                pooled.next_fault();
            }
            pooled.reset(5);
            let replay: Vec<u64> = (0..12).map(|_| pooled.next_fault().to_bits()).collect();
            let built: Vec<u64> = (0..12).map(|_| fresh.next_fault().to_bits()).collect();
            assert_eq!(replay, built, "{fresh:?}");
            // A finished schedule and a zero-rate stream stay fault-free.
            if fresh.mean_rate() == Some(0.0) || matches!(fresh, FaultKind::Deterministic(_)) {
                assert_eq!(f64::from_bits(replay[11]), f64::INFINITY, "{fresh:?}");
            }
        }
    }

    #[test]
    fn gamma_spot_values() {
        assert!((gamma(1.0) - 1.0).abs() < 1e-10);
        assert!((gamma(2.0) - 1.0).abs() < 1e-10);
        assert!((gamma(1.5) - std::f64::consts::PI.sqrt() / 2.0).abs() < 1e-10);
        assert!((gamma(5.0) - 24.0).abs() < 1e-7);
    }
}

/// Non-homogeneous Poisson process with a piecewise-constant rate profile
/// ("mission phases": e.g. launch → cruise → radiation-belt transit).
///
/// The profile is a sequence of `(duration, rate)` phases. When `repeat`
/// is true the profile cycles forever (orbital periods); otherwise the
/// last phase's rate holds for all later times.
///
/// Sampling uses the inversion method on the integrated rate, which is
/// exact for piecewise-constant profiles.
#[derive(Debug, Clone)]
pub struct PhasedPoisson<R = StdRng> {
    phases: Vec<(f64, f64)>,
    repeat: bool,
    now: f64,
    rng: R,
}

impl<R: Rng> PhasedPoisson<R> {
    /// Creates a phased process starting at phase 0, time 0.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty, any duration is not positive/finite,
    /// or any rate is negative/non-finite.
    pub fn new(phases: Vec<(f64, f64)>, repeat: bool, rng: R) -> Self {
        assert!(!phases.is_empty(), "at least one phase is required");
        for &(d, r) in &phases {
            assert!(
                d > 0.0 && d.is_finite(),
                "phase durations must be positive and finite"
            );
            assert!(
                r >= 0.0 && r.is_finite(),
                "phase rates must be non-negative and finite"
            );
        }
        Self {
            phases,
            repeat,
            now: 0.0,
            rng,
        }
    }

    /// The instantaneous rate at absolute time `t`.
    pub fn rate_at(&self, t: f64) -> f64 {
        let cycle: f64 = self.phases.iter().map(|(d, _)| d).sum();
        let mut pos = if self.repeat {
            t % cycle
        } else if t >= cycle {
            // audit:allow(panic): the constructor rejects empty profiles.
            return self.phases.last().expect("non-empty").1;
        } else {
            t
        };
        for &(d, r) in &self.phases {
            if pos < d {
                return r;
            }
            pos -= d;
        }
        // audit:allow(panic): the constructor rejects empty profiles.
        self.phases.last().expect("non-empty").1
    }

    /// Rewinds to phase 0 at time zero with a fresh RNG — exactly
    /// equivalent to rebuilding with the same profile.
    pub fn restart(&mut self, rng: R) {
        self.now = 0.0;
        self.rng = rng;
    }
}

impl<R: Rng> FaultProcess for PhasedPoisson<R> {
    #[inline]
    fn next_fault(&mut self) -> f64 {
        // Inversion: find t with ∫_{now}^{t} λ(s) ds = E, E ~ Exp(1).
        let mut target = sample_exponential(&mut self.rng, 1.0);
        let cycle: f64 = self.phases.iter().map(|(d, _)| d).sum();
        // Guard: a repeating all-zero profile (or trailing zero rate when
        // not repeating) never produces another fault.
        let cycle_mass: f64 = self.phases.iter().map(|(d, r)| d * r).sum();
        loop {
            // Position inside the profile.
            let pos = if self.repeat {
                self.now % cycle
            } else {
                self.now
            };
            if !self.repeat && pos >= cycle {
                // audit:allow(panic): the constructor rejects empty
                // profiles.
                let tail_rate = self.phases.last().expect("non-empty").1;
                if tail_rate <= 0.0 {
                    return f64::INFINITY;
                }
                self.now += target / tail_rate;
                return self.now;
            }
            if self.repeat && cycle_mass <= 0.0 {
                return f64::INFINITY;
            }
            // Walk phases from `pos`.
            let mut acc = 0.0;
            let mut advanced = false;
            for &(d, r) in &self.phases {
                if pos >= acc + d {
                    acc += d;
                    continue;
                }
                let offset = pos - acc;
                let remaining = d - offset;
                let mass = remaining * r;
                if mass >= target && r > 0.0 {
                    self.now += target / r;
                    return self.now;
                }
                target -= mass;
                self.now += remaining;
                advanced = true;
                break;
            }
            if !advanced {
                // pos was exactly at the profile end; loop re-normalizes.
                self.now += f64::EPSILON.max(self.now * 1e-15);
            }
        }
    }

    fn mean_rate(&self) -> Option<f64> {
        let cycle: f64 = self.phases.iter().map(|(d, _)| d).sum();
        let mass: f64 = self.phases.iter().map(|(d, r)| d * r).sum();
        if self.repeat {
            Some(mass / cycle)
        } else {
            // audit:allow(panic): the constructor rejects empty profiles.
            Some(self.phases.last().expect("non-empty").1)
        }
    }
}

#[cfg(test)]
mod phased_tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn single_phase_matches_poisson_rate() {
        let rate = 5e-3;
        let mut p = PhasedPoisson::new(vec![(1e9, rate)], false, rng(4));
        let n = 100_000;
        let mut last = 0.0;
        for _ in 0..n {
            last = p.next_fault();
        }
        let empirical = n as f64 / last;
        assert!((empirical - rate).abs() / rate < 0.02, "rate {empirical}");
    }

    #[test]
    fn zero_rate_phase_is_fault_free_inside() {
        // Quiet for 1000, hot afterwards (non-repeating).
        let mut p = PhasedPoisson::new(vec![(1_000.0, 0.0), (1.0, 1.0)], false, rng(7));
        for _ in 0..100 {
            let t = p.next_fault();
            assert!(t > 1_000.0, "fault at {t} inside the quiet phase");
        }
    }

    #[test]
    fn repeating_profile_concentrates_faults_in_hot_windows() {
        // 900 quiet / 100 hot per cycle of 1000.
        let mut p = PhasedPoisson::new(vec![(900.0, 0.0), (100.0, 0.05)], true, rng(11));
        let mut in_hot = 0;
        let n = 5_000;
        for _ in 0..n {
            let t = p.next_fault();
            let pos = t % 1_000.0;
            if pos >= 900.0 {
                in_hot += 1;
            }
        }
        assert_eq!(in_hot, n, "all faults must land in the hot window");
    }

    #[test]
    fn mean_rate_is_time_average() {
        let p = PhasedPoisson::new(vec![(900.0, 0.0), (100.0, 0.05)], true, rng(1));
        let expected = 100.0 * 0.05 / 1_000.0;
        assert!((p.mean_rate().unwrap() - expected).abs() < 1e-12);
    }

    #[test]
    fn rate_at_reports_profile() {
        let p = PhasedPoisson::new(vec![(10.0, 1.0), (10.0, 2.0)], true, rng(1));
        assert_eq!(p.rate_at(5.0), 1.0);
        assert_eq!(p.rate_at(15.0), 2.0);
        assert_eq!(p.rate_at(25.0), 1.0); // wrapped
        let q = PhasedPoisson::new(vec![(10.0, 1.0), (10.0, 2.0)], false, rng(1));
        assert_eq!(q.rate_at(100.0), 2.0); // held
    }

    #[test]
    fn all_zero_repeating_profile_is_fault_free() {
        let mut p = PhasedPoisson::new(vec![(10.0, 0.0)], true, rng(2));
        assert_eq!(p.next_fault(), f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn rejects_empty_profile() {
        PhasedPoisson::new(vec![], true, rng(0));
    }
}
