//! Experiment sizing.

/// How big to run an experiment.
///
/// The paper's full protocol (100 sites × 100 traces, 3 000-sample traces,
/// 10-fold CV, 256-filter CNN+LSTM) is hours of single-core compute per
/// table cell; every runner therefore takes a scale:
///
/// * [`ExperimentScale::Smoke`] — seconds; wired into `cargo test`.
/// * [`ExperimentScale::Default`] — minutes per table; the scale the
///   committed EXPERIMENTS.md numbers were produced at.
/// * [`ExperimentScale::Paper`] — the full published protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExperimentScale {
    /// Tiny: smoke tests and CI.
    Smoke,
    /// Medium: the committed reference results.
    #[default]
    Default,
    /// The paper's full protocol.
    Paper,
}

impl ExperimentScale {
    /// Parse from a `BF_SCALE` environment value. Unset → `Default`; an
    /// unknown value also falls back to `Default`, but is reported once
    /// via `bf_obs::error!` naming the accepted set (a typo'd scale
    /// silently running the wrong protocol wastes hours).
    pub fn from_env() -> Self {
        match std::env::var("BF_SCALE").as_deref() {
            Err(_) => ExperimentScale::Default,
            Ok("smoke") => ExperimentScale::Smoke,
            Ok("default") => ExperimentScale::Default,
            Ok("paper") => ExperimentScale::Paper,
            Ok(other) => {
                bf_obs::env::warn_invalid("BF_SCALE", other, "smoke|default|paper");
                ExperimentScale::Default
            }
        }
    }

    /// Number of closed-world websites.
    pub fn n_sites(self) -> usize {
        match self {
            ExperimentScale::Smoke => 6,
            ExperimentScale::Default => 20,
            ExperimentScale::Paper => 100,
        }
    }

    /// Traces collected per website.
    pub fn traces_per_site(self) -> usize {
        match self {
            ExperimentScale::Smoke => 8,
            ExperimentScale::Default => 32,
            ExperimentScale::Paper => 100,
        }
    }

    /// Additional one-shot open-world traces.
    pub fn open_world_traces(self) -> usize {
        match self {
            ExperimentScale::Smoke => 48,
            ExperimentScale::Default => 256,
            ExperimentScale::Paper => 5_000,
        }
    }

    /// Downsampling factor applied to raw 5 ms-period traces before
    /// classification (adjacent-period averaging; cancels timer
    /// quantization noise). Paper scale feeds the raw traces.
    pub fn downsample(self) -> usize {
        match self {
            ExperimentScale::Smoke => 10,
            // 600-sample traces give the CNN+LSTM 3 recurrent steps.
            ExperimentScale::Default => 5,
            ExperimentScale::Paper => 1,
        }
    }

    /// Cross-validation folds (paper: 10).
    pub fn folds(self) -> usize {
        match self {
            ExperimentScale::Smoke => 2,
            ExperimentScale::Default => 3,
            ExperimentScale::Paper => 10,
        }
    }

    /// CNN filter count (paper: 256).
    pub fn conv_filters(self) -> usize {
        match self {
            ExperimentScale::Smoke => 8,
            ExperimentScale::Default => 16,
            ExperimentScale::Paper => 256,
        }
    }

    /// Whether to use the CNN+LSTM (otherwise the centroid baseline, used
    /// only at smoke scale where training would dominate runtime).
    pub fn use_cnn(self) -> bool {
        !matches!(self, ExperimentScale::Smoke)
    }

    /// Human-readable label recorded in reports.
    pub fn label(self) -> &'static str {
        match self {
            ExperimentScale::Smoke => "smoke",
            ExperimentScale::Default => "default",
            ExperimentScale::Paper => "paper",
        }
    }
}

impl std::fmt::Display for ExperimentScale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_matches_protocol() {
        let p = ExperimentScale::Paper;
        assert_eq!(p.n_sites(), 100);
        assert_eq!(p.traces_per_site(), 100);
        assert_eq!(p.open_world_traces(), 5_000);
        assert_eq!(p.folds(), 10);
        assert_eq!(p.conv_filters(), 256);
        assert_eq!(p.downsample(), 1);
        assert!(p.use_cnn());
    }

    #[test]
    fn smaller_scales_shrink_monotonically() {
        let s = ExperimentScale::Smoke;
        let d = ExperimentScale::Default;
        let p = ExperimentScale::Paper;
        assert!(s.n_sites() <= d.n_sites() && d.n_sites() <= p.n_sites());
        assert!(s.traces_per_site() <= d.traces_per_site());
        assert!(d.conv_filters() <= p.conv_filters());
    }

    #[test]
    fn labels_distinct() {
        assert_ne!(ExperimentScale::Smoke.label(), ExperimentScale::Paper.label());
    }

    #[test]
    fn unknown_scale_warns_once_and_defaults() {
        // Serialized via a dedicated env key guard: no other bf-core test
        // sets BF_SCALE, and from_env is only called here and in bins.
        std::env::set_var("BF_SCALE", "small");
        bf_obs::env::reset_warnings();
        bf_obs::begin_capture();
        assert_eq!(ExperimentScale::from_env(), ExperimentScale::Default);
        assert_eq!(ExperimentScale::from_env(), ExperimentScale::Default);
        let lines = bf_obs::end_capture();
        let warnings: Vec<_> = lines.iter().filter(|l| l.contains("BF_SCALE")).collect();
        assert_eq!(warnings.len(), 1, "{lines:?}");
        assert!(warnings[0].contains("`small`"), "{warnings:?}");
        assert!(warnings[0].contains("smoke|default|paper"), "{warnings:?}");

        std::env::set_var("BF_SCALE", "paper");
        assert_eq!(ExperimentScale::from_env(), ExperimentScale::Paper);
        std::env::remove_var("BF_SCALE");
        assert_eq!(ExperimentScale::from_env(), ExperimentScale::Default);
        bf_obs::env::reset_warnings();
    }
}
