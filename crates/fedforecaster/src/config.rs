//! Engine configuration.

use crate::budget::Budget;
use crate::{EngineError, Result};
use ff_fl::robust::{AggregationStrategy, GuardPolicy};
use ff_fl::runtime::RoundPolicy;
use ff_trace::{ExpoConfig, FlightRecorder, RecorderConfig, Tracer};

/// Observability switch for a run. Disabled (the default) costs one
/// branch per instrumentation point — no locks, clocks, or allocations —
/// and leaves engine output bit-identical to an uninstrumented build.
/// Enabled, the engine records the full span tree (`run → phase.* →
/// trial/fl.round → gp.*`), counters, gauges, and byte histograms, and
/// attaches a [`crate::report::RunTelemetry`] to the
/// [`crate::engine::RunResult`].
///
/// On top of the base switch, three live-observability features opt in
/// independently (all off by default, all zero-cost when off):
/// - [`TraceConfig::with_profile`] — self-time attribution and
///   critical-path analysis over the span tree, attached to the
///   telemetry and rendered in the human summary;
/// - [`TraceConfig::with_recorder`] — a bounded flight recorder that
///   keeps the last N per-round frames and dumps them as deterministic
///   JSON lines when a distress trigger (quarantine, quorum failure,
///   guard rejection, non-finite loss) fires;
/// - [`TraceConfig::with_expo`] — a std-only TCP listener serving
///   Prometheus text-format snapshots (`/metrics`) and a round-liveness
///   probe (`/healthz`) for the duration of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceConfig {
    enabled: bool,
    profile: bool,
    recorder: Option<RecorderConfig>,
    expo: Option<ExpoConfig>,
}

impl TraceConfig {
    /// Tracing on.
    pub fn enabled() -> TraceConfig {
        TraceConfig {
            enabled: true,
            ..TraceConfig::default()
        }
    }

    /// Tracing off (the default).
    pub fn disabled() -> TraceConfig {
        TraceConfig::default()
    }

    /// Whether tracing is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Enables span profiling (self-time table, critical path, folded
    /// stacks). Implies nothing unless tracing itself is enabled.
    pub fn with_profile(mut self) -> TraceConfig {
        self.profile = true;
        self
    }

    /// Enables the per-round flight recorder with the given bounds.
    pub fn with_recorder(mut self, cfg: RecorderConfig) -> TraceConfig {
        self.recorder = Some(cfg);
        self
    }

    /// Enables the metrics exposition endpoint for the run's duration.
    pub fn with_expo(mut self, cfg: ExpoConfig) -> TraceConfig {
        self.expo = Some(cfg);
        self
    }

    /// Whether the profiler is on (only meaningful when tracing is on).
    pub fn profile_enabled(&self) -> bool {
        self.enabled && self.profile
    }

    /// The flight-recorder bounds, when the recorder is enabled.
    pub fn recorder_config(&self) -> Option<RecorderConfig> {
        if self.enabled {
            self.recorder
        } else {
            None
        }
    }

    /// The exposition-endpoint config, when the endpoint is enabled.
    pub fn expo_config(&self) -> Option<ExpoConfig> {
        if self.enabled {
            self.expo
        } else {
            None
        }
    }

    /// A fresh tracer honoring this config.
    pub fn tracer(&self) -> Tracer {
        if self.enabled {
            Tracer::enabled()
        } else {
            Tracer::disabled()
        }
    }

    /// A fresh flight recorder honoring this config (disabled — and
    /// allocation-free — unless both tracing and the recorder are on).
    pub fn recorder(&self) -> FlightRecorder {
        match self.recorder_config() {
            Some(cfg) => FlightRecorder::enabled(cfg),
            None => FlightRecorder::disabled(),
        }
    }
}

/// Durable checkpointing of a run (see DESIGN.md §16). When set on
/// [`EngineConfig::checkpoint`], the engine appends a CRC-framed record
/// to a write-ahead log at every commit point — run start, phase
/// completion, each completed trial (with a runtime snapshot), run
/// completion — and
/// [`crate::engine::FedForecaster::resume_on`] replays that log to continue a
/// killed run to a bit-identical result. `None` (the default) costs
/// nothing: no file, no bytes, no allocations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CkptConfig {
    /// Path of the write-ahead log file. Created (or truncated) on a
    /// fresh run; read and appended to on resume.
    pub path: std::path::PathBuf,
    /// Crash-injection point for the recovery test harness. `None` in
    /// production.
    pub crash: Option<ff_ckpt::CrashPoint>,
}

impl CkptConfig {
    /// Checkpointing to `path` with no crash injection. Every appended
    /// record is fsynced.
    pub fn at(path: impl Into<std::path::PathBuf>) -> CkptConfig {
        CkptConfig {
            path: path.into(),
            crash: None,
        }
    }
}

/// How tree-ensemble winners are aggregated in phase IV (§4.4). Linear
/// models always aggregate by FedAvg over standardized coefficients.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TreeAggregation {
    /// Evaluate both deployment modes on the validation split and deploy
    /// whichever is better (the default). Tree unions cannot extrapolate
    /// across client levels, so on trending non-IID federations the union
    /// is systematically biased — this mode detects that from validation
    /// data alone.
    #[default]
    Auto,
    /// Serialize every client's fitted ensemble and deploy the weighted
    /// union: `ŷ(x) = Σ αⱼ fⱼ(x)` — the faithful reading of "the server
    /// aggregates the local models".
    EnsembleUnion,
    /// Keep each client's locally fitted model (personalized deployment
    /// with globally tuned hyperparameters); the global loss is the
    /// weighted average of local losses.
    PerClient,
}

/// Configuration of a [`crate::FedForecaster`] run. Defaults mirror §5.1:
/// K = 3 recommendations, EI acquisition over a GP surrogate, and a
/// modest iteration budget suitable for tests (pass
/// `Budget::Time(Duration::from_secs(300))` for the paper's 5 minutes).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of algorithms the meta-model recommends (paper: K = 3).
    pub top_k: usize,
    /// Optimization budget.
    pub budget: Budget,
    /// Fraction of each client's data held out for validation.
    pub valid_fraction: f64,
    /// Fraction of each client's data held out for final testing.
    pub test_fraction: f64,
    /// Maximum lag features (cap on the globally agreed lag count).
    pub max_lags: usize,
    /// Maximum seasonal components in the feature set (§4.2.1(4) top-N).
    pub max_seasonal_components: usize,
    /// Cumulative feature-importance threshold for selection (§4.2.2).
    pub importance_threshold: f64,
    /// RNG seed.
    pub seed: u64,
    /// Disable the feature-engineering stage (ablation: raw lags only).
    pub disable_feature_engineering: bool,
    /// Disable the meta-model warm start (ablation: cold BO over all six
    /// algorithms).
    pub disable_warm_start: bool,
    /// Tree-ensemble aggregation mode for phase IV.
    pub tree_aggregation: TreeAggregation,
    /// Fault-tolerance policy applied to every federated round (deadline,
    /// response quorum, retries). The engine proceeds with whichever
    /// healthy subset replies in time; only a round below
    /// `round_policy.min_responses` fails (and in the tuning loop that
    /// fails the trial, not the run).
    pub round_policy: RoundPolicy,
    /// Explicit algorithm portfolio. `Some(kinds)` bypasses the meta-model
    /// recommendation (and `disable_warm_start`) and searches exactly these
    /// algorithms — useful for forcing a single algorithm or running an
    /// ablation. It must be non-empty. `None` (the default) uses the
    /// meta-model recommendation.
    pub portfolio: Option<Vec<ff_models::zoo::AlgorithmKind>>,
    /// Pipeline structures to search jointly with the algorithm portfolio.
    /// `Some(structures)` switches phase III to the composed search space:
    /// BO selects a pipeline structure, its node hyperparameters, an
    /// algorithm, and the algorithm's hyperparameters in one conditional
    /// space, and phase IV finalizes the winner by ensemble union of
    /// blob-v3 members. `None` (the default) keeps the flat
    /// algorithm-only search.
    pub pipelines: Option<Vec<ff_models::pipeline::PipelineId>>,
    /// Observability: disabled by default (zero-cost); enable to collect
    /// spans, metrics, and a [`crate::report::RunTelemetry`] on the result.
    pub trace: TraceConfig,
    /// Server-side aggregation rule. The default
    /// [`AggregationStrategy::FedAvg`] is bit-identical to the
    /// pre-robustness engine; any robust variant additionally screens
    /// every reply through an [`ff_fl::robust::UpdateGuard`], reports
    /// rejections per round, and escalates repeat offenders to quarantine.
    pub aggregation: AggregationStrategy,
    /// Thresholds of the pre-aggregation screen (used only when
    /// `aggregation` is robust).
    pub guard: GuardPolicy,
    /// Pairwise-masked (Bonawitz-style) summation for the final-fit
    /// aggregation of linear winners: the server only ever sees masked
    /// sums, never an individual client's coefficients. Only valid with
    /// `aggregation: FedAvg` — robust aggregators need each client's
    /// plaintext update, so [`EngineConfig::validate`] rejects the
    /// combination (see DESIGN.md §11 for the trade-off).
    pub secure_aggregation: bool,
    /// Durable crash-tolerance: `Some` writes a write-ahead checkpoint
    /// log at every commit point and enables
    /// [`crate::engine::FedForecaster::resume_on`]. `None` (the default) is
    /// exactly the pre-checkpoint engine: zero file I/O, zero
    /// allocations on the checkpoint path.
    pub checkpoint: Option<CkptConfig>,
}

impl EngineConfig {
    /// Validates cross-field invariants before a run: robust-rule knobs
    /// in range, no robust aggregation over masked sums (the guard and
    /// the robust estimators are definitionally incompatible with a
    /// server that cannot see per-client updates), non-empty `pipelines`
    /// and `portfolio` lists, and no entry named twice in either.
    pub fn validate(&self) -> Result<()> {
        self.aggregation
            .validate()
            .map_err(EngineError::Federation)?;
        if self.secure_aggregation && !self.aggregation.compatible_with_masking() {
            return Err(EngineError::InvalidData(format!(
                "secure_aggregation is incompatible with {}: masked sums hide the \
                 per-client updates robust aggregators and the update guard must \
                 inspect; use FedAvg with masking, or a robust rule in plaintext",
                self.aggregation.name()
            )));
        }
        if let Some(pipes) = &self.pipelines {
            if pipes.is_empty() {
                return Err(EngineError::InvalidData(
                    "pipelines: Some([]) selects nothing; use None for the flat search".into(),
                ));
            }
            if let Some(p) = first_repeat(pipes) {
                return Err(EngineError::InvalidData(format!(
                    "pipelines lists {} twice",
                    p.name()
                )));
            }
        }
        if let Some(algos) = &self.portfolio {
            if algos.is_empty() {
                return Err(EngineError::InvalidData(
                    "portfolio: Some([]) selects nothing; use None for the meta-model".into(),
                ));
            }
            if let Some(a) = first_repeat(algos) {
                return Err(EngineError::InvalidData(format!(
                    "portfolio lists {} twice",
                    a.name()
                )));
            }
        }
        Ok(())
    }
}

/// The first entry that appears again later in `items`. A repeated
/// algorithm or structure would add its search dimensions twice.
fn first_repeat<T: PartialEq>(items: &[T]) -> Option<&T> {
    items
        .iter()
        .enumerate()
        .find(|&(i, item)| items[i + 1..].contains(item))
        .map(|(_, item)| item)
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            top_k: 3,
            budget: Budget::Iterations(15),
            valid_fraction: 0.15,
            test_fraction: 0.15,
            max_lags: 10,
            max_seasonal_components: 3,
            importance_threshold: 0.95,
            seed: 42,
            disable_feature_engineering: false,
            disable_warm_start: false,
            tree_aggregation: TreeAggregation::default(),
            round_policy: RoundPolicy::default(),
            portfolio: None,
            pipelines: None,
            trace: TraceConfig::default(),
            aggregation: AggregationStrategy::default(),
            guard: GuardPolicy::default(),
            secure_aggregation: false,
            checkpoint: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_settings() {
        let c = EngineConfig::default();
        assert_eq!(c.top_k, 3);
        assert!((c.importance_threshold - 0.95).abs() < 1e-12);
        assert!(!c.disable_feature_engineering);
        assert_eq!(c.tree_aggregation, TreeAggregation::Auto);
        assert_eq!(c.round_policy, RoundPolicy::default());
        assert!(c.portfolio.is_none());
        assert!(c.pipelines.is_none());
        assert!(!c.trace.is_enabled());
        assert_eq!(c.aggregation, AggregationStrategy::FedAvg);
        assert!(!c.secure_aggregation);
        assert!(c.checkpoint.is_none());
        assert!(c.validate().is_ok());
    }

    #[test]
    fn secure_masking_plus_robust_aggregation_is_rejected() {
        let ok = EngineConfig {
            secure_aggregation: true,
            ..Default::default()
        };
        assert!(ok.validate().is_ok(), "FedAvg + masking is fine");
        let bad = EngineConfig {
            secure_aggregation: true,
            aggregation: AggregationStrategy::CoordinateMedian,
            ..Default::default()
        };
        let err = bad.validate().unwrap_err().to_string();
        assert!(err.contains("incompatible"), "error was: {err}");
        // Bad robust knobs are caught here too, not mid-run.
        let bad_knob = EngineConfig {
            aggregation: AggregationStrategy::TrimmedMean { trim_ratio: 0.7 },
            ..Default::default()
        };
        assert!(bad_knob.validate().is_err());
    }

    #[test]
    fn empty_pipeline_list_is_rejected() {
        let bad = EngineConfig {
            pipelines: Some(vec![]),
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let ok = EngineConfig {
            pipelines: Some(ff_models::pipeline::PipelineId::builtin().to_vec()),
            ..Default::default()
        };
        assert!(ok.validate().is_ok());
        // An empty portfolio is refused before a run writes its checkpoint
        // header or asks clients for meta-features.
        let no_algorithms = EngineConfig {
            portfolio: Some(vec![]),
            ..Default::default()
        };
        assert!(matches!(
            no_algorithms.validate(),
            Err(EngineError::InvalidData(_))
        ));
        // A repeated structure or algorithm would add its dimensions to
        // the search space twice.
        use ff_models::pipeline::PipelineId;
        use ff_models::zoo::AlgorithmKind;
        let repeated_pipeline = EngineConfig {
            pipelines: Some(vec![PipelineId::LAGGED, PipelineId::LAGGED]),
            ..Default::default()
        };
        assert!(matches!(
            repeated_pipeline.validate(),
            Err(EngineError::InvalidData(_))
        ));
        let repeated_algorithm = EngineConfig {
            portfolio: Some(vec![AlgorithmKind::LASSO, AlgorithmKind::LASSO]),
            ..Default::default()
        };
        assert!(matches!(
            repeated_algorithm.validate(),
            Err(EngineError::InvalidData(_))
        ));
        let distinct = EngineConfig {
            portfolio: Some(vec![AlgorithmKind::LASSO, AlgorithmKind::XGB_REGRESSOR]),
            ..Default::default()
        };
        assert!(distinct.validate().is_ok());
    }

    #[test]
    fn trace_config_gates_the_tracer() {
        assert!(!TraceConfig::disabled().tracer().is_enabled());
        assert!(TraceConfig::enabled().tracer().is_enabled());
        assert_eq!(TraceConfig::default(), TraceConfig::disabled());
    }

    #[test]
    fn observability_features_require_the_base_switch() {
        use ff_trace::{ExpoConfig, RecorderConfig};
        // Features stacked on a disabled base are inert.
        let off = TraceConfig::disabled()
            .with_profile()
            .with_recorder(RecorderConfig::default())
            .with_expo(ExpoConfig::default());
        assert!(!off.profile_enabled());
        assert!(off.recorder_config().is_none());
        assert!(off.expo_config().is_none());
        assert!(!off.recorder().is_enabled());
        // On an enabled base they activate independently.
        let on = TraceConfig::enabled().with_recorder(RecorderConfig {
            capacity: 4,
            ..RecorderConfig::default()
        });
        assert!(!on.profile_enabled());
        assert_eq!(on.recorder_config().map(|c| c.capacity), Some(4));
        assert!(on.expo_config().is_none());
        assert!(on.recorder().is_enabled());
        assert!(TraceConfig::enabled().with_profile().profile_enabled());
    }
}
