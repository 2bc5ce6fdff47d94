//! Phases I–III prep: meta-feature collection and aggregation, the
//! federated weighted periodogram, lag-count agreement, and federated
//! feature engineering (§4.2).
//!
//! The recommendation feeds both search flavors: it is the whole space
//! for the flat Table 2 search, and the algorithm axis of the composed
//! pipeline space (`EngineConfig::pipelines`).

use super::rounds::{
    fit_error, require_quorum, strict_policy, tolerant_round, unexpected, usable_round,
};
use crate::client::OP;
use crate::feature_engineering::{select_features, GlobalFeatureSpec};
use crate::Result;
use ff_fl::config::{ConfigMap, ConfigMapExt};
use ff_fl::message::{Instruction, Reply};
use ff_fl::runtime::{FederatedRuntime, RoundPolicy};
use ff_metalearn::aggregate::GlobalMetaFeatures;
use ff_metalearn::features::ClientMetaFeatures;
use ff_par::ParConfig;
use ff_timeseries::periodogram;

/// Phase I: collect per-client meta-features and aggregate them.
/// Returns the global vector and the longest client length. Runs
/// [`collect_global_meta_tolerant`] under the strict round policy: every
/// client must reply usably.
pub fn collect_global_meta(rt: &FederatedRuntime) -> Result<(GlobalMetaFeatures, usize)> {
    collect_global_meta_tolerant(rt, ParConfig::auto(), &strict_policy(rt), &mut Vec::new())
}

/// §4.2.1(4): the federated weighted periodogram. Clients return spectral
/// summaries on a shared log-period grid; the server sums them and picks
/// the top-N peaks. Runs [`federated_seasonal_periods_tolerant`] under
/// the strict round policy.
pub fn federated_seasonal_periods(
    rt: &FederatedRuntime,
    max_len: usize,
    max_components: usize,
) -> Result<Vec<f64>> {
    federated_seasonal_periods_tolerant(
        rt,
        ParConfig::auto(),
        max_len,
        max_components,
        &strict_policy(rt),
        &mut Vec::new(),
    )
}

/// Element-wise sum of client spectra through [`ff_par::par_reduce`]: the
/// combine tree's shape depends only on the spectrum count, so the
/// aggregate is bit-identical at every thread count.
fn sum_spectra(specs: &[&[f64]]) -> Vec<f64> {
    ff_par::par_reduce(
        specs.len(),
        |i| specs[i].to_vec(),
        |mut a, b| {
            for (x, y) in a.iter_mut().zip(&b) {
                *x += y;
            }
            a
        },
    )
    .unwrap_or_default()
}

/// Derives the globally agreed lag count (§4.2.1(3)): the maximum count of
/// significant pACF lags across clients, clamped to `[3, max_lags]`.
pub fn derive_lag_count(global: &GlobalMetaFeatures, max_lags: usize) -> usize {
    let raw = global.get("n_sig_lags_max").unwrap_or(3.0);
    (raw.round() as usize).clamp(3, max_lags.max(3))
}

/// Phase III prep: broadcast the feature spec, collect importances, select
/// features (§4.2.2), and broadcast the selection. Returns the kept column
/// indices. Runs [`run_feature_engineering_tolerant`] under the strict
/// round policy.
pub fn run_feature_engineering(
    rt: &FederatedRuntime,
    spec: &GlobalFeatureSpec,
    threshold: f64,
) -> Result<Vec<usize>> {
    run_feature_engineering_tolerant(
        rt,
        ParConfig::auto(),
        spec,
        threshold,
        &strict_policy(rt),
        &mut Vec::new(),
    )
}

/// Fault-tolerant [`collect_global_meta`]: aggregates the meta-features of
/// whichever clients replied usably; malformed or error replies are
/// recorded per client instead of failing the run.
pub fn collect_global_meta_tolerant(
    rt: &FederatedRuntime,
    par: ParConfig,
    policy: &RoundPolicy,
    rounds: &mut Vec<crate::report::RoundReport>,
) -> Result<(GlobalMetaFeatures, usize)> {
    par.scope(|| {
        let ins = Instruction::GetProperties(ConfigMap::new().with_str(OP, "meta_features"));
        let (metas, idx) = usable_round(rt, "meta_features", &ins, policy, rounds, |r| match r {
            Reply::Properties(props) => props
                .get("meta_features")
                .and_then(|v| v.as_float_vec())
                .and_then(ClientMetaFeatures::from_vec)
                .map(|mf| (mf, props.int_or("n_total", 0) as usize))
                .ok_or_else(|| "missing or malformed meta-features".to_string()),
            other => Err(unexpected(other)),
        })?;
        require_quorum(rounds, idx, metas.len(), policy)?;
        let max_len = metas.iter().map(|(_, (_, len))| *len).max().unwrap_or(0);
        let metas: Vec<ClientMetaFeatures> = metas.into_iter().map(|(_, (mf, _))| mf).collect();
        Ok((GlobalMetaFeatures::aggregate(&metas), max_len))
    })
}

/// Fault-tolerant [`federated_seasonal_periods`]: spectra from responsive
/// clients are aggregated; if nobody returns a usable spectrum the engine
/// degrades gracefully to no seasonality features rather than failing.
pub fn federated_seasonal_periods_tolerant(
    rt: &FederatedRuntime,
    par: ParConfig,
    max_len: usize,
    max_components: usize,
    policy: &RoundPolicy,
    rounds: &mut Vec<crate::report::RoundReport>,
) -> Result<Vec<f64>> {
    if max_len < 16 {
        return Ok(vec![]);
    }
    par.scope(|| {
        let grid = periodogram::log_period_grid(max_len as f64 / 2.0);
        let ins = Instruction::GetProperties(
            ConfigMap::new()
                .with_str(OP, "spectrum")
                .with_floats("grid_periods", grid.clone()),
        );
        let (specs, _) = usable_round(rt, "meta_features", &ins, policy, rounds, |r| {
            match r {
                Reply::Properties(p) => p
                    .get("spectrum")
                    .and_then(|v| v.as_float_vec())
                    .filter(|spec| spec.len() == grid.len())
                    .map(<[f64]>::to_vec),
                _ => None,
            }
            .ok_or_else(|| "missing or mis-sized spectrum".to_string())
        })?;
        let specs: Vec<&[f64]> = specs.iter().map(|(_, spec)| spec.as_slice()).collect();
        if specs.is_empty() {
            return Ok(vec![]);
        }
        let agg = sum_spectra(&specs);
        let peaks = periodogram::peaks_on_grid(&grid, &agg, max_components, 5.0, max_len);
        Ok(peaks.into_iter().map(|s| s.period).collect())
    })
}

/// Fault-tolerant [`run_feature_engineering`]: importances are collected
/// from the responsive subset and the selection is broadcast the same way.
/// Clients that miss the selection round keep their full feature set and
/// surface as application errors in later rounds.
pub fn run_feature_engineering_tolerant(
    rt: &FederatedRuntime,
    par: ParConfig,
    spec: &GlobalFeatureSpec,
    threshold: f64,
    policy: &RoundPolicy,
    rounds: &mut Vec<crate::report::RoundReport>,
) -> Result<Vec<usize>> {
    par.scope(|| {
        let ins = Instruction::Fit {
            params: vec![],
            config: spec.to_config_map().with_str(OP, "feature_engineering"),
        };
        let (usable, idx) =
            usable_round(
                rt,
                "feature_engineering",
                &ins,
                policy,
                rounds,
                |r| match r {
                    Reply::FitRes {
                        num_examples,
                        metrics,
                        ..
                    } => match fit_error(&metrics) {
                        Some(err) => Err(err),
                        None => (metrics.get("importances").and_then(|v| v.as_float_vec()))
                            .map(|imp| (imp.to_vec(), num_examples as f64))
                            .ok_or_else(|| "client sent no importances".to_string()),
                    },
                    other => Err(unexpected(other)),
                },
            )?;
        require_quorum(rounds, idx, usable.len(), policy)?;
        let (importances, weights): (Vec<Vec<f64>>, Vec<f64>) =
            usable.into_iter().map(|(_, v)| v).unzip();
        let keep = select_features(&importances, &weights, threshold);
        let keep_f: Vec<f64> = keep.iter().map(|&j| j as f64).collect();
        let apply = Instruction::Fit {
            params: vec![],
            config: ConfigMap::new()
                .with_str(OP, "apply_selection")
                .with_floats("keep", keep_f),
        };
        tolerant_round(rt, "feature_engineering", &apply, policy, rounds)?;
        Ok(keep)
    })
}
