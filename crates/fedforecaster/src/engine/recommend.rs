//! Phases I–III prep: meta-feature collection and aggregation, the
//! federated feature spec (lag-count agreement and the sum of the
//! clients' spectra), and federated feature engineering (§4.2).
//!
//! The recommendation feeds both search flavors: it is the whole space
//! for the flat Table 2 search, and the algorithm axis of the composed
//! pipeline space (`EngineConfig::pipelines`).

use super::rounds::{fit_error, unexpected, RoundCtx};
use crate::client::OP;
use crate::config::EngineConfig;
use crate::feature_engineering::{select_features, GlobalFeatureSpec};
use crate::Result;
use ff_fl::config::{ConfigMap, ConfigMapExt};
use ff_fl::message::{Instruction, Reply};
use ff_metalearn::aggregate::GlobalMetaFeatures;
use ff_metalearn::features::ClientMetaFeatures;
use ff_timeseries::periodogram;

/// Phase I: collect per-client meta-features and aggregate them.
/// Returns the global vector and the longest client length. Aggregates
/// whichever clients replied usably; malformed or error replies are
/// recorded per client instead of failing the run.
pub fn collect_global_meta(ctx: &mut RoundCtx) -> Result<(GlobalMetaFeatures, usize)> {
    let ins = Instruction::GetProperties(ConfigMap::new().with_str(OP, "meta_features"));
    let (metas, idx) = ctx.usable_round("meta_features", &ins, |r| match r {
        Reply::Properties(props) => props
            .get("meta_features")
            .and_then(|v| v.as_float_vec())
            .and_then(ClientMetaFeatures::from_vec)
            .map(|mf| (mf, props.int_or("n_total", 0) as usize))
            .ok_or_else(|| "missing or malformed meta-features".to_string()),
        other => Err(unexpected(other)),
    })?;
    ctx.require_quorum(idx, metas.len())?;
    let max_len = metas.iter().map(|(_, (_, len))| *len).max().unwrap_or(0);
    let metas: Vec<ClientMetaFeatures> = metas.into_iter().map(|(_, (mf, _))| mf).collect();
    Ok((GlobalMetaFeatures::aggregate(&metas), max_len))
}

/// The globally agreed feature spec (§4.2.1): lags `1..=L` with `L` the
/// aggregated pACF lag count (§4.2.1(3)), plus — unless
/// [`EngineConfig::disable_feature_engineering`] asks for raw lags only —
/// trend and time features and the seasonal periods of the clients'
/// spectra, summed with equal weight (§4.2.1(4); DESIGN.md §4 on the
/// paper's size weights).
pub fn feature_spec(
    ctx: &mut RoundCtx,
    global: &GlobalMetaFeatures,
    max_len: usize,
    cfg: &EngineConfig,
) -> Result<GlobalFeatureSpec> {
    let lags = derive_lag_count(global, cfg.max_lags);
    if cfg.disable_feature_engineering {
        return Ok(GlobalFeatureSpec::lags_only(lags));
    }
    Ok(GlobalFeatureSpec {
        lags: (1..=lags).collect(),
        seasonal_periods: seasonal_periods(ctx, max_len, cfg.max_seasonal_components)?,
        use_trend: true,
        use_time: true,
    })
}

/// The maximum count of significant pACF lags across clients, clamped to
/// `[3, max_lags]`.
pub(super) fn derive_lag_count(global: &GlobalMetaFeatures, max_lags: usize) -> usize {
    let raw = global.get("n_sig_lags_max").unwrap_or(3.0);
    (raw.round() as usize).clamp(3, max_lags.max(3))
}

/// §4.2.1(4): the federated periodogram. Clients return spectral
/// summaries on a shared log-period grid, each normalized to unit total
/// power; the server sums them with equal weight and picks the top-N
/// peaks. The paper weights client `j` by |D_j|/|D|; the two agree when
/// every client holds the same number of samples, and otherwise a small
/// client moves the periods as much as the largest (DESIGN.md §4).
/// If nobody returns a usable spectrum the spec degrades to no
/// seasonality features rather than failing.
fn seasonal_periods(ctx: &mut RoundCtx, max_len: usize, max_components: usize) -> Result<Vec<f64>> {
    if max_len < 16 {
        return Ok(vec![]);
    }
    let grid = periodogram::log_period_grid(max_len as f64 / 2.0);
    let ins = Instruction::GetProperties(
        ConfigMap::new()
            .with_str(OP, "spectrum")
            .with_floats("grid_periods", grid.clone()),
    );
    let (specs, _) = ctx.usable_round("meta_features", &ins, |r| {
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

/// Phase III prep: broadcast the feature spec, collect importances from
/// the responsive clients, select features (§4.2.2), and broadcast the
/// selection. Returns the kept column indices. Clients that miss the
/// selection round keep their full feature set and surface as
/// application errors in later rounds.
pub fn run_feature_engineering(
    ctx: &mut RoundCtx,
    spec: &GlobalFeatureSpec,
    threshold: f64,
) -> Result<Vec<usize>> {
    let ins = Instruction::Fit {
        params: vec![],
        config: spec.to_config_map().with_str(OP, "feature_engineering"),
    };
    let (usable, idx) = ctx.usable_round("feature_engineering", &ins, |r| match r {
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
    })?;
    ctx.require_quorum(idx, usable.len())?;
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
    ctx.round("feature_engineering", &apply)?;
    Ok(keep)
}
