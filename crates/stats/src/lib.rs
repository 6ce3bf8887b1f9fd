//! `bf-stats` — statistics substrate for the `bigger-fish` reproduction.
//!
//! Every quantitative claim in the paper is backed by a statistic computed
//! here: trace correlations (Fig. 4, Pearson's *r*), attack-accuracy
//! significance (§4.2, Welch's two-sample *t*-test), interrupt-gap
//! distributions (Fig. 6, histograms), and the deterministic random number
//! machinery used to seed every synthetic workload.
//!
//! The crate depends on nothing but `std`: all special functions
//! (log-gamma, regularized incomplete beta for the *t* distribution CDF) and
//! all samplers (normal, log-normal, exponential, Poisson, Pareto) are
//! implemented from scratch on top of [`SeedRng`]'s xoshiro256++ uniform
//! source.
//!
//! # Example
//!
//! ```
//! use bf_stats::{describe::Summary, corr::pearson};
//!
//! let xs = [1.0, 2.0, 3.0, 4.0];
//! let ys = [2.1, 3.9, 6.2, 8.1];
//! let r = pearson(&xs, &ys).unwrap();
//! assert!(r > 0.99);
//! let s = Summary::of(&xs);
//! assert_eq!(s.mean, 2.5);
//! ```

pub mod corr;
pub mod describe;
pub mod hist;
pub mod normalize;
pub mod rng;
pub mod samplers;
pub mod series;
pub mod special;
pub mod ttest;

pub use corr::pearson;
pub use describe::Summary;
pub use hist::Histogram;
pub use rng::{NormalSlot, NormalSlots, SeedRng};
pub use samplers::Zipf;
pub use series::{StepCursor, StepSeries};
pub use ttest::{welch_t_test, TTestResult};

/// Errors produced by statistics routines in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatsError {
    /// The input slice was empty but the statistic needs at least one sample.
    Empty,
    /// Two paired inputs had different lengths.
    LengthMismatch {
        /// Length of the first input.
        left: usize,
        /// Length of the second input.
        right: usize,
    },
    /// The statistic is undefined for the given input (e.g. zero variance
    /// in a correlation, or fewer than two samples for a variance).
    Undefined(&'static str),
    /// A parameter was out of its valid domain.
    InvalidParameter(&'static str),
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::Empty => write!(f, "input is empty"),
            StatsError::LengthMismatch { left, right } => {
                write!(f, "paired inputs have different lengths ({left} vs {right})")
            }
            StatsError::Undefined(what) => write!(f, "statistic undefined: {what}"),
            StatsError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
        }
    }
}

impl std::error::Error for StatsError {}

/// Convenient crate-wide result alias.
pub type Result<T> = std::result::Result<T, StatsError>;
