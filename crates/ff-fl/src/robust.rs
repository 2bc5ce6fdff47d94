//! Byzantine-robust aggregation: survive corrupted updates, not just
//! missing ones.
//!
//! [`fedavg`](crate::strategy::fedavg) assumes every surviving client is
//! honest — a single NaN-laden or adversarially scaled update poisons the
//! global model even when the round itself looks healthy. This module adds
//! the server-side defenses:
//!
//! - [`AggregationStrategy`], the config-level selector threaded through
//!   the engine: FedAvg, coordinate median, trimmed mean, norm clipping
//!   and Krum / Multi-Krum (Blanchard et al., NeurIPS 2017), each a batch
//!   rule over one round's updates,
//! - an [`UpdateGuard`] that screens every round's replies *before*
//!   aggregation (dimension check, non-finite rejection, update-norm /
//!   loss outlier screens against a running per-round median), and
//! - a weighted-median variant of the Equation-1 global loss so a single
//!   lying client cannot skew the BO objective.
//!
//! Robust aggregators need the per-client updates in plaintext; they are
//! therefore incompatible with the pairwise-masked sums of
//! [`secure`](crate::secure) — callers must pick one or the other at
//! config-validation time (you can have FedAvg-over-masked-sums or a
//! robust aggregator over plaintext, never both).

use std::collections::VecDeque;

use crate::strategy::aggregate_loss;
use crate::{FlError, Result};

// ---------------------------------------------------------------------------
// Weighted median
// ---------------------------------------------------------------------------

/// Weighted median of `(value, weight)` pairs: the smallest value whose
/// cumulative weight exceeds half the total. When the cumulative weight
/// lands exactly on half, the midpoint with the next value is returned
/// (so the unweighted even-count case matches the textbook median).
///
/// Non-finite values and non-positive weights are rejected — screen
/// first, then aggregate.
pub fn weighted_median(pairs: &[(f64, f64)]) -> Result<f64> {
    let mut sorted: Vec<(f64, f64)> = Vec::with_capacity(pairs.len());
    for &(v, w) in pairs {
        if !v.is_finite() || !w.is_finite() {
            return Err(FlError::Client(format!(
                "non-finite entry in weighted median: ({v}, {w})"
            )));
        }
        if w <= 0.0 {
            return Err(FlError::Client(format!("non-positive weight {w}")));
        }
        sorted.push((v, w));
    }
    if sorted.is_empty() {
        return Err(FlError::Client("no values for weighted median".into()));
    }
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: f64 = sorted.iter().map(|(_, w)| w).sum();
    let half = total / 2.0;
    let mut acc = 0.0;
    for (i, &(v, w)) in sorted.iter().enumerate() {
        acc += w;
        if acc > half {
            return Ok(v);
        }
        if acc == half {
            // Exactly half the mass is at or below v: average with the
            // next value, as in the unweighted even-count median.
            let next = sorted.get(i + 1).map_or(v, |&(v2, _)| v2);
            return Ok((v + next) / 2.0);
        }
    }
    Ok(sorted[sorted.len() - 1].0)
}

/// Robust variant of the Equation-1 global loss: the `num_examples`-
/// weighted **median** of client losses instead of the weighted mean, so
/// one lying client cannot drag the BO objective arbitrarily far.
///
/// Keeps [`aggregate_loss`]'s error
/// contract: non-finite losses and zero total examples are errors (the
/// [`UpdateGuard`] screens those out before aggregation).
pub fn robust_aggregate_loss(losses: &[(f64, u64)]) -> Result<f64> {
    let total: u64 = losses.iter().map(|(_, n)| n).sum();
    if total == 0 {
        return Err(FlError::Client("zero total examples".into()));
    }
    for &(loss, _) in losses {
        if !loss.is_finite() {
            return Err(FlError::Client(format!("non-finite client loss {loss}")));
        }
    }
    let pairs: Vec<(f64, f64)> = losses
        .iter()
        .filter(|(_, n)| *n > 0)
        .map(|&(l, n)| (l, n as f64))
        .collect();
    weighted_median(&pairs)
}

// ---------------------------------------------------------------------------
// Batch rules
// ---------------------------------------------------------------------------

/// One `(client_id, params, num_examples)` update.
type Update = (usize, Vec<f64>, u64);

/// `(params-slice, weight)` views of the finite updates, plus the count
/// of non-finite updates dropped on the way.
type FiniteUpdates<'a> = (Vec<(&'a [f64], f64)>, usize);

/// Keeps `(params-slice, weight)` views of the finite, non-empty updates
/// and checks that they share one dimension. Empty updates are skipped
/// (clients whose results travel in metrics). A non-finite update fails
/// with [`FlError::NonFiniteUpdate`] naming its sender when `strict` (the
/// mean rules: one NaN poisons an average) and is dropped and counted
/// otherwise.
fn finite_updates(updates: &[Update], strict: bool) -> Result<FiniteUpdates<'_>> {
    let mut dropped = 0usize;
    let mut keep: Vec<(&[f64], f64)> = Vec::new();
    for (id, p, w) in updates {
        if p.is_empty() {
            continue;
        }
        if p.iter().all(|v| v.is_finite()) {
            keep.push((p.as_slice(), *w as f64));
        } else if strict {
            return Err(FlError::NonFiniteUpdate { client: *id });
        } else {
            dropped += 1;
        }
    }
    if keep.is_empty() {
        return Err(FlError::Client(
            "no finite parameter updates to aggregate".into(),
        ));
    }
    let dim = keep[0].0.len();
    for (p, _) in &keep {
        if p.len() != dim {
            return Err(FlError::Client(format!(
                "parameter length mismatch: {} vs {dim}",
                p.len()
            )));
        }
    }
    Ok((keep, dropped))
}

/// Weighted mean `Σ wᵢθᵢ / Σ wᵢ` of `(params, weight)` views, in order —
/// the crate's one weighted-mean loop, shared by FedAvg, norm clipping,
/// the untrimmed trimmed mean and Multi-Krum, so they agree bit for bit
/// on identical inputs. Each weight joins the total first, then `w·θ`
/// joins each coordinate; with `max_norm`, an update longer than it is
/// rescaled per coordinate to that norm (no clipped copy is allocated).
fn weighted_mean(keep: &[(&[f64], f64)], max_norm: Option<f64>) -> Result<Vec<f64>> {
    let mut acc = vec![0.0; keep.first().map_or(0, |(p, _)| p.len())];
    let mut total_w = 0.0;
    for &(p, w) in keep {
        total_w += w;
        let scale = max_norm.and_then(|max_norm| {
            let norm = p.iter().map(|v| v * v).sum::<f64>().sqrt();
            (norm > max_norm).then(|| max_norm / norm)
        });
        match scale {
            Some(scale) => {
                for (a, &v) in acc.iter_mut().zip(p) {
                    *a += w * (v * scale);
                }
            }
            None => {
                for (a, &v) in acc.iter_mut().zip(p) {
                    *a += w * v;
                }
            }
        }
    }
    if total_w <= 0.0 {
        return Err(FlError::Client("zero total weight".into()));
    }
    for a in acc.iter_mut() {
        *a /= total_w;
    }
    Ok(acc)
}

/// Applies `rule` to each coordinate's `(value, weight)` column.
fn per_coordinate(
    keep: &[(&[f64], f64)],
    mut rule: impl FnMut(&mut [(f64, f64)]) -> Result<f64>,
) -> Result<Vec<f64>> {
    let mut col: Vec<(f64, f64)> = Vec::with_capacity(keep.len());
    (0..keep[0].0.len())
        .map(|j| {
            col.clear();
            col.extend(keep.iter().map(|(p, w)| (p[j], *w)));
            rule(&mut col)
        })
        .collect()
}

/// Exact per-coordinate weighted median over the finite updates.
/// Tolerates any minority (by weight) of arbitrarily corrupted updates
/// per coordinate.
fn coordinate_median(updates: &[Update]) -> Result<Vec<f64>> {
    per_coordinate(&finite_updates(updates, false)?.0, |col| {
        weighted_median(col)
    })
}

/// Exact per-coordinate trimmed weighted mean over the finite updates:
/// sort each coordinate's values, drop `⌊trim_ratio · n⌋` entries from
/// each end, and take the weighted mean of the rest. `trim_ratio = 0` is
/// exactly FedAvg (bit-for-bit).
fn trimmed_mean(updates: &[Update], trim_ratio: f64) -> Result<Vec<f64>> {
    let (keep, _) = finite_updates(updates, false)?;
    let k = (trim_ratio * keep.len() as f64).floor() as usize;
    if k == 0 {
        return weighted_mean(&keep, None);
    }
    per_coordinate(&keep, |col| {
        col.sort_by(|a, b| a.0.total_cmp(&b.0));
        let kept = &col[k..col.len() - k];
        let total: f64 = kept.iter().map(|(_, w)| w).sum();
        if total <= 0.0 {
            return Err(FlError::Client("zero total weight after trim".into()));
        }
        Ok(kept.iter().map(|(v, w)| v * w).sum::<f64>() / total)
    })
}

/// Krum / Multi-Krum (Blanchard et al., NeurIPS 2017): score each update
/// by the sum of squared distances to its `n − f − 2` nearest neighbours
/// and keep the `m` lowest-scoring updates (`m = 1` is classic Krum —
/// the selected update is returned verbatim; `m > 1` averages the
/// selection). Requires `n ≥ 2f + 3` whenever `f > 0`; non-finite updates
/// are dropped and count against the attacker budget `f`.
fn krum(updates: &[Update], f: usize, m: usize) -> Result<Vec<f64>> {
    let (keep, dropped) = finite_updates(updates, false)?;
    // Non-finite updates were definitionally adversarial and already
    // dropped, so they count against the assumed attacker budget.
    let f = f.saturating_sub(dropped);
    let n = keep.len();
    if n == 1 {
        return Ok(keep[0].0.to_vec());
    }
    if f > 0 && n < 2 * f + 3 {
        return Err(FlError::Client(format!(
            "Krum needs n ≥ 2f + 3 surviving updates (n = {n}, f = {f})"
        )));
    }
    let neighbours = n.saturating_sub(f + 2).max(1);
    let mut scores: Vec<(f64, usize)> = Vec::with_capacity(n);
    for i in 0..n {
        let mut dists: Vec<f64> = (0..n)
            .filter(|&j| j != i)
            .map(|j| {
                keep[i]
                    .0
                    .iter()
                    .zip(keep[j].0)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
            })
            .collect();
        dists.sort_by(f64::total_cmp);
        scores.push((dists.iter().take(neighbours).sum(), i));
    }
    // Lowest score wins; ties break on the smaller index so the
    // selection is deterministic.
    scores.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let m = m.min(n);
    if m == 1 {
        return Ok(keep[scores[0].1].0.to_vec());
    }
    let selected: Vec<(&[f64], f64)> = scores[..m].iter().map(|&(_, i)| keep[i]).collect();
    weighted_mean(&selected, None)
}

// ---------------------------------------------------------------------------
// AggregationStrategy: the config-level selector
// ---------------------------------------------------------------------------

/// Which aggregation rule the server runs. [`AggregationStrategy::FedAvg`]
/// is the default and is bit-identical to the pre-robustness behaviour;
/// every other variant screens updates through the [`UpdateGuard`] and
/// aggregates losses with [`robust_aggregate_loss`].
///
/// [`NormClippedFedAvg`](AggregationStrategy::NormClippedFedAvg) rescales
/// any update with ‖θ‖₂ > `max_norm` to the boundary before averaging,
/// bounding the influence of a scaled (but direction-preserving)
/// attacker.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum AggregationStrategy {
    /// Weighted mean (Equation 1 semantics). No Byzantine tolerance.
    #[default]
    FedAvg,
    /// Per-coordinate weighted median.
    CoordinateMedian,
    /// Per-coordinate trimmed weighted mean.
    TrimmedMean {
        /// Fraction trimmed from each end, in `[0, 0.5)`.
        trim_ratio: f64,
    },
    /// FedAvg over norm-clipped updates.
    NormClippedFedAvg {
        /// Clipping radius.
        max_norm: f64,
    },
    /// Classic Krum: select the single most central update.
    Krum {
        /// Assumed upper bound on adversarial clients.
        f: usize,
    },
    /// Multi-Krum: average the `m` most central updates.
    MultiKrum {
        /// Assumed upper bound on adversarial clients.
        f: usize,
        /// Number of selected updates.
        m: usize,
    },
}

impl AggregationStrategy {
    /// Rule name for reports and errors.
    pub fn name(&self) -> &'static str {
        match self {
            AggregationStrategy::FedAvg => "fedavg",
            AggregationStrategy::CoordinateMedian => "coordinate_median",
            AggregationStrategy::TrimmedMean { .. } => "trimmed_mean",
            AggregationStrategy::NormClippedFedAvg { .. } => "norm_clipped_fedavg",
            AggregationStrategy::Krum { .. } => "krum",
            AggregationStrategy::MultiKrum { .. } => "multi_krum",
        }
    }

    /// `true` for every rule except plain FedAvg. Robust rules activate
    /// the guard pipeline and are incompatible with masked sums.
    pub fn is_robust(&self) -> bool {
        !matches!(self, AggregationStrategy::FedAvg)
    }

    /// Validates rule parameters without aggregating anything, so bad
    /// configs fail at startup rather than mid-run.
    pub fn validate(&self) -> Result<()> {
        match *self {
            AggregationStrategy::TrimmedMean { trim_ratio }
                if !(0.0..0.5).contains(&trim_ratio) =>
            {
                Err(FlError::Client(format!(
                    "trim_ratio must be in [0, 0.5), got {trim_ratio}"
                )))
            }
            AggregationStrategy::NormClippedFedAvg { max_norm }
                if !(max_norm.is_finite() && max_norm > 0.0) =>
            {
                Err(FlError::Client(format!(
                    "max_norm must be positive and finite, got {max_norm}"
                )))
            }
            AggregationStrategy::MultiKrum { m: 0, .. } => {
                Err(FlError::Client("Multi-Krum needs m ≥ 1".into()))
            }
            _ => Ok(()),
        }
    }

    /// Aggregates `(client_id, params, num_examples)` updates under this
    /// rule, after [`validate`](Self::validate). Empty updates are
    /// skipped and the rest must share one dimension. A non-finite update
    /// under FedAvg or norm clipping fails with
    /// [`FlError::NonFiniteUpdate`] naming its client id; the rank rules
    /// and Krum drop non-finite updates.
    pub fn aggregate(
        &self,
        updates: impl IntoIterator<Item = (usize, Vec<f64>, u64)>,
    ) -> Result<Vec<f64>> {
        self.validate()?;
        let updates: Vec<Update> = updates.into_iter().collect();
        match *self {
            AggregationStrategy::FedAvg => weighted_mean(&finite_updates(&updates, true)?.0, None),
            AggregationStrategy::NormClippedFedAvg { max_norm } => {
                weighted_mean(&finite_updates(&updates, true)?.0, Some(max_norm))
            }
            AggregationStrategy::CoordinateMedian => coordinate_median(&updates),
            AggregationStrategy::TrimmedMean { trim_ratio } => trimmed_mean(&updates, trim_ratio),
            AggregationStrategy::Krum { f } => krum(&updates, f, 1),
            AggregationStrategy::MultiKrum { f, m } => krum(&updates, f, m),
        }
    }

    /// Aggregates client losses: Equation-1 weighted mean under FedAvg,
    /// the weighted median otherwise.
    pub fn aggregate_loss(&self, losses: &[(f64, u64)]) -> Result<f64> {
        if self.is_robust() {
            robust_aggregate_loss(losses)
        } else {
            aggregate_loss(losses)
        }
    }

    /// Whether this rule can run over pairwise-masked sums
    /// ([`secure`](crate::secure)). Only FedAvg can — robust rules need
    /// each client's plaintext update.
    pub fn compatible_with_masking(&self) -> bool {
        !self.is_robust()
    }
}

// ---------------------------------------------------------------------------
// UpdateGuard: pre-aggregation screening
// ---------------------------------------------------------------------------

/// Thresholds of the [`UpdateGuard`] outlier screens.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardPolicy {
    /// Reject an update whose L2 norm exceeds `norm_ratio ×` the running
    /// median norm.
    pub norm_ratio: f64,
    /// Reject a loss exceeding `loss_ratio ×` the running median loss.
    /// Looser than `norm_ratio`: honest losses vary much more across
    /// heterogeneous clients than honest parameter norms do.
    pub loss_ratio: f64,
    /// Rounds of median history folded into the screen, so a round where
    /// attackers outnumber honest replies cannot recenter the median on
    /// itself.
    pub history: usize,
}

impl Default for GuardPolicy {
    fn default() -> Self {
        GuardPolicy {
            norm_ratio: 10.0,
            loss_ratio: 100.0,
            history: 32,
        }
    }
}

/// Why the guard rejected one reply.
#[derive(Debug, Clone, PartialEq)]
pub enum RejectReason {
    /// Parameter vector length disagrees with the round majority.
    DimensionMismatch {
        /// Length the client sent.
        got: usize,
        /// Majority length this round.
        expected: usize,
    },
    /// Update or loss contains NaN/±inf.
    NonFinite,
    /// Update norm exceeds `norm_ratio ×` the running median.
    NormOutlier {
        /// The offending norm.
        norm: f64,
        /// The running median it was screened against.
        median: f64,
    },
    /// Loss exceeds `loss_ratio ×` the running median.
    LossOutlier {
        /// The offending loss.
        loss: f64,
        /// The running median it was screened against.
        median: f64,
    },
    /// Negative loss (the engine's losses are MSE-family, always ≥ 0).
    NegativeLoss {
        /// The offending loss.
        loss: f64,
    },
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::DimensionMismatch { got, expected } => {
                write!(f, "dim {got} != expected {expected}")
            }
            RejectReason::NonFinite => write!(f, "non-finite update"),
            RejectReason::NormOutlier { norm, median } => {
                write!(f, "norm {norm:.3e} vs median {median:.3e}")
            }
            RejectReason::LossOutlier { loss, median } => {
                write!(f, "loss {loss:.3e} vs median {median:.3e}")
            }
            RejectReason::NegativeLoss { loss } => write!(f, "negative loss {loss:.3e}"),
        }
    }
}

/// Screening outcome: the replies that survive, plus `(client_id,
/// reason)` for every rejection.
#[derive(Debug, Clone)]
pub struct Screened<T> {
    /// Replies that passed every screen, in input order.
    pub accepted: Vec<T>,
    /// `(client_id, reason)` per rejected reply, in input order.
    pub rejected: Vec<(usize, RejectReason)>,
}

/// Server-side validator run on every round's replies before a robust
/// aggregator sees them. Stateful: it keeps a bounded history of
/// per-round medians so the outlier screens compare against what honest
/// clients have looked like recently, not just against the current
/// (possibly majority-corrupt) round.
#[derive(Debug, Clone)]
pub struct UpdateGuard {
    policy: GuardPolicy,
    norm_medians: VecDeque<f64>,
    loss_medians: VecDeque<f64>,
}

/// The per-reply half of the fit screen: dimension against `expected`
/// (when known) and finiteness. `Ok` carries the update's L2 norm for the
/// outlier screen.
fn check_update(params: &[f64], expected: Option<usize>) -> std::result::Result<f64, RejectReason> {
    if let Some(expected) = expected.filter(|&d| d != params.len()) {
        return Err(RejectReason::DimensionMismatch {
            got: params.len(),
            expected,
        });
    }
    if params.iter().any(|v| !v.is_finite()) {
        return Err(RejectReason::NonFinite);
    }
    Ok(params.iter().map(|v| v * v).sum::<f64>().sqrt())
}

/// The per-reply half of the loss screen: finite and non-negative (the
/// engine's losses are MSE-family).
fn check_loss(loss: f64) -> std::result::Result<(), RejectReason> {
    if !loss.is_finite() {
        return Err(RejectReason::NonFinite);
    }
    if loss < 0.0 {
        return Err(RejectReason::NegativeLoss { loss });
    }
    Ok(())
}

/// Floor for the running medians so an all-zero honest round does not
/// make the ratio screens vacuous (anything × 0 = 0).
const MEDIAN_FLOOR: f64 = 1e-12;

fn plain_median(values: &mut [f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    Some(if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    })
}

impl UpdateGuard {
    /// A guard with the given thresholds and empty history.
    pub fn new(policy: GuardPolicy) -> UpdateGuard {
        UpdateGuard {
            policy,
            norm_medians: VecDeque::new(),
            loss_medians: VecDeque::new(),
        }
    }

    fn remember(history: &mut VecDeque<f64>, cap: usize, median: f64) {
        history.push_back(median);
        while history.len() > cap.max(1) {
            history.pop_front();
        }
    }

    /// Screening median: this round's values pooled with the remembered
    /// per-round medians of *accepted* values, floored at
    /// [`MEDIAN_FLOOR`]. Uses the lower median (no midpoint averaging):
    /// averaging an honest history entry with an attacker's 1e6 norm
    /// would recenter the screen on the attacker.
    fn running_median(history: &VecDeque<f64>, current: &[f64]) -> f64 {
        let mut pool: Vec<f64> = history
            .iter()
            .copied()
            .chain(current.iter().copied())
            .collect();
        if pool.is_empty() {
            return MEDIAN_FLOOR;
        }
        pool.sort_by(f64::total_cmp);
        pool[(pool.len() - 1) / 2].max(MEDIAN_FLOOR)
    }

    /// Screens `(client_id, params, num_examples)` fit updates: dimension
    /// check against the round's majority length, non-finite rejection,
    /// and the norm-outlier screen. Empty parameter vectors pass through
    /// unscreened (ops that carry results in metrics, not params).
    pub fn screen_updates(
        &mut self,
        updates: Vec<(usize, Vec<f64>, u64)>,
    ) -> Screened<(usize, Vec<f64>, u64)> {
        // Majority dimension over non-empty updates; ties break on the
        // smaller length for determinism.
        let mut dim_counts: Vec<(usize, usize)> = Vec::new();
        for (_, p, _) in updates.iter().filter(|(_, p, _)| !p.is_empty()) {
            match dim_counts.iter_mut().find(|(d, _)| *d == p.len()) {
                Some((_, c)) => *c += 1,
                None => dim_counts.push((p.len(), 1)),
            }
        }
        let expected = dim_counts
            .iter()
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .map(|&(d, _)| d);

        let mut screened = Screened {
            accepted: Vec::with_capacity(updates.len()),
            rejected: Vec::new(),
        };
        let mut survivors = Vec::new();
        for (id, p, n) in updates {
            if p.is_empty() {
                screened.accepted.push((id, p, n));
                continue;
            }
            match check_update(&p, expected) {
                Ok(norm) => survivors.push(((id, p, n), id, norm)),
                Err(reason) => screened.rejected.push((id, reason)),
            }
        }
        let (history, ratio) = (self.policy.history, self.policy.norm_ratio);
        Self::split_outliers(
            &mut self.norm_medians,
            history,
            ratio,
            survivors,
            &mut screened,
            |norm, median| RejectReason::NormOutlier { norm, median },
        );
        screened
    }

    /// Screens `(client_id, loss, num_examples)` replies: non-finite and
    /// negative losses are rejected outright, and losses far above the
    /// running median are rejected as outliers.
    pub fn screen_losses(&mut self, losses: Vec<(usize, f64, u64)>) -> Screened<(usize, f64, u64)> {
        let mut screened = Screened {
            accepted: Vec::with_capacity(losses.len()),
            rejected: Vec::new(),
        };
        let mut survivors = Vec::new();
        for (id, loss, n) in losses {
            match check_loss(loss) {
                Ok(()) => survivors.push(((id, loss, n), id, loss)),
                Err(reason) => screened.rejected.push((id, reason)),
            }
        }
        let (history, ratio) = (self.policy.history, self.policy.loss_ratio);
        Self::split_outliers(
            &mut self.loss_medians,
            history,
            ratio,
            survivors,
            &mut screened,
            |loss, median| RejectReason::LossOutlier { loss, median },
        );
        screened
    }

    /// The outlier half of a batch screen: each `(reply, id, value)`
    /// survivor is checked against `ratio ×` the running median of
    /// `medians` pooled with the survivors' values. Only accepted values
    /// join the history — a round where attackers reply alone must not
    /// recenter the screen on themselves.
    fn split_outliers<T>(
        medians: &mut VecDeque<f64>,
        history: usize,
        ratio: f64,
        survivors: Vec<(T, usize, f64)>,
        screened: &mut Screened<T>,
        outlier: impl Fn(f64, f64) -> RejectReason,
    ) {
        let values: Vec<f64> = survivors.iter().map(|s| s.2).collect();
        let median = Self::running_median(medians, &values);
        let mut accepted = Vec::new();
        for (reply, id, value) in survivors {
            if value > ratio * median {
                screened.rejected.push((id, outlier(value, median)));
            } else {
                accepted.push(value);
                screened.accepted.push(reply);
            }
        }
        if let Some(m) = plain_median(&mut accepted) {
            Self::remember(medians, history, m);
        }
    }

    /// Exports the remembered per-round medians,
    /// `(norm_medians, loss_medians)` oldest-first, for durable
    /// checkpointing.
    pub fn history(&self) -> (Vec<f64>, Vec<f64>) {
        (
            self.norm_medians.iter().copied().collect(),
            self.loss_medians.iter().copied().collect(),
        )
    }

    /// Overwrites the median history with previously exported values
    /// (oldest-first), truncating each to the policy's bounded window so
    /// a restored guard screens future rounds exactly like the original.
    pub fn restore_history(&mut self, norms: &[f64], losses: &[f64]) {
        let window = |vals: &[f64]| -> VecDeque<f64> {
            let skip = vals.len().saturating_sub(self.policy.history);
            vals[skip..].iter().copied().collect()
        };
        self.norm_medians = window(norms);
        self.loss_medians = window(losses);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::fedavg;

    fn eq1(updates: &[(Vec<f64>, u64)]) -> Vec<f64> {
        fedavg(updates).unwrap()
    }

    /// `strategy` over positional updates.
    fn exact(strategy: AggregationStrategy, updates: &[(Vec<f64>, u64)]) -> Result<Vec<f64>> {
        strategy.aggregate(
            updates
                .iter()
                .cloned()
                .enumerate()
                .map(|(i, (p, n))| (i, p, n)),
        )
    }

    fn clipped(max_norm: f64, updates: &[(Vec<f64>, u64)]) -> Vec<f64> {
        exact(AggregationStrategy::NormClippedFedAvg { max_norm }, updates).unwrap()
    }

    #[test]
    fn weighted_median_unweighted_matches_textbook() {
        let odd: Vec<(f64, f64)> = [3.0, 1.0, 2.0].iter().map(|&v| (v, 1.0)).collect();
        assert_eq!(weighted_median(&odd).unwrap(), 2.0);
        let even: Vec<(f64, f64)> = [4.0, 1.0, 3.0, 2.0].iter().map(|&v| (v, 1.0)).collect();
        assert_eq!(weighted_median(&even).unwrap(), 2.5);
    }

    #[test]
    fn weighted_median_respects_weights() {
        // Client with weight 5 at value 10 dominates two weight-1 clients.
        let m = weighted_median(&[(0.0, 1.0), (1.0, 1.0), (10.0, 5.0)]).unwrap();
        assert_eq!(m, 10.0);
    }

    #[test]
    fn weighted_median_rejects_bad_input() {
        assert!(weighted_median(&[]).is_err());
        assert!(weighted_median(&[(f64::NAN, 1.0)]).is_err());
        assert!(weighted_median(&[(1.0, 0.0)]).is_err());
    }

    #[test]
    fn robust_loss_ignores_one_huge_liar() {
        let honest = [(1.0, 10u64), (1.2, 10), (0.9, 10), (1.1, 10)];
        let mut with_liar = honest.to_vec();
        with_liar.push((1e18, 10));
        let l = robust_aggregate_loss(&with_liar).unwrap();
        assert!((0.9..=1.2).contains(&l), "median dragged to {l}");
        // The weighted mean would have exploded.
        assert!(aggregate_loss(&with_liar).unwrap() > 1e17);
    }

    #[test]
    fn robust_loss_keeps_strict_error_contract() {
        assert!(robust_aggregate_loss(&[(f64::NAN, 1)]).is_err());
        assert!(robust_aggregate_loss(&[]).is_err());
        assert!(robust_aggregate_loss(&[(1.0, 0)]).is_err());
    }

    #[test]
    fn coordinate_median_shrugs_off_scaled_attacker() {
        let updates = vec![
            (vec![1.0, -1.0], 1u64),
            (vec![1.1, -0.9], 1),
            (vec![0.9, -1.1], 1),
            (vec![1e9, -1e9], 1), // attacker
        ];
        let agg = exact(AggregationStrategy::CoordinateMedian, &updates).unwrap();
        assert!((1.0..=1.1).contains(&agg[0]), "got {agg:?}");
        assert!((-1.1..=-0.9).contains(&agg[1]), "got {agg:?}");
    }

    #[test]
    fn coordinate_median_drops_nan_updates() {
        let updates = vec![(vec![1.0], 1u64), (vec![f64::NAN], 1), (vec![3.0], 1)];
        let agg = exact(AggregationStrategy::CoordinateMedian, &updates).unwrap();
        assert_eq!(agg, vec![2.0]);
    }

    #[test]
    fn trimmed_mean_zero_ratio_is_fedavg() {
        let updates = vec![(vec![1.0, 2.0], 3u64), (vec![-0.5, 0.25], 7)];
        let tm = exact(
            AggregationStrategy::TrimmedMean { trim_ratio: 0.0 },
            &updates,
        )
        .unwrap();
        let fa = eq1(&updates);
        let tm_bits: Vec<u64> = tm.iter().map(|v| v.to_bits()).collect();
        let fa_bits: Vec<u64> = fa.iter().map(|v| v.to_bits()).collect();
        assert_eq!(tm_bits, fa_bits);
    }

    #[test]
    fn trimmed_mean_removes_extremes() {
        let updates = vec![
            (vec![1.0], 1u64),
            (vec![2.0], 1),
            (vec![3.0], 1),
            (vec![1e12], 1), // attacker
        ];
        let agg = exact(
            AggregationStrategy::TrimmedMean { trim_ratio: 0.25 },
            &updates,
        )
        .unwrap();
        // One entry trimmed per end: mean of {2, 3}.
        assert!((agg[0] - 2.5).abs() < 1e-12, "got {agg:?}");
    }

    #[test]
    fn trimmed_mean_rejects_bad_ratio() {
        let u = vec![(vec![1.0], 1u64)];
        for trim_ratio in [0.5, -0.1] {
            assert!(exact(AggregationStrategy::TrimmedMean { trim_ratio }, &u).is_err());
        }
    }

    #[test]
    fn norm_clipping_bounds_attacker_influence() {
        let updates = vec![
            (vec![1.0, 0.0], 1u64),
            (vec![0.0, 1.0], 1),
            (vec![1e9, 0.0], 1), // attacker, clipped to norm 2
        ];
        let agg = clipped(2.0, &updates);
        assert!(agg[0] <= 1.0 + 1e-12, "attacker still dominates: {agg:?}");
        let norm = agg.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(norm <= 2.0 + 1e-12);
    }

    #[test]
    fn norm_clipping_is_identity_within_radius() {
        let updates = vec![(vec![0.3, 0.4], 2u64), (vec![-0.3, 0.4], 2)];
        let agg = clipped(10.0, &updates);
        assert_eq!(agg, eq1(&updates));
    }

    #[test]
    fn krum_selects_a_central_honest_update() {
        let mut updates: Vec<(Vec<f64>, u64)> = (0..5)
            .map(|i| (vec![1.0 + i as f64 * 0.01, -1.0], 1u64))
            .collect();
        updates.push((vec![1e9, 1e9], 1)); // attacker
        updates.push((vec![-1e9, 1e9], 1)); // attacker
        let agg = exact(AggregationStrategy::Krum { f: 2 }, &updates).unwrap();
        // The winner is one of the honest clusters, never an attacker.
        assert!(agg[0] < 2.0, "krum picked an attacker: {agg:?}");
        assert!(updates[..5].iter().any(|(p, _)| *p == agg));
    }

    #[test]
    fn multi_krum_averages_selection() {
        let updates = vec![
            (vec![1.0], 1u64),
            (vec![2.0], 1),
            (vec![3.0], 1),
            (vec![4.0], 1),
            (vec![5.0], 1),
        ];
        let agg = exact(AggregationStrategy::MultiKrum { f: 0, m: 5 }, &updates).unwrap();
        assert!((agg[0] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn krum_enforces_population_bound() {
        let updates = vec![(vec![1.0], 1u64), (vec![2.0], 1), (vec![3.0], 1)];
        assert!(exact(AggregationStrategy::Krum { f: 1 }, &updates).is_err());
        assert!(exact(AggregationStrategy::Krum { f: 0 }, &updates).is_ok());
    }

    #[test]
    fn krum_single_update_is_identity() {
        let agg = exact(AggregationStrategy::Krum { f: 0 }, &[(vec![7.0], 3)]).unwrap();
        assert_eq!(agg, vec![7.0]);
    }

    /// Textbook weighted mean, written independently of
    /// [`weighted_mean`]: weights totalled first, then `w·θ` per
    /// coordinate, each update rescaled to `max_norm` first when longer.
    fn reference_mean(updates: &[(Vec<f64>, u64)], max_norm: Option<f64>) -> Vec<f64> {
        let mut acc = vec![0.0; updates[0].0.len()];
        let mut total = 0.0;
        for (p, w) in updates {
            let wf = *w as f64;
            total += wf;
            let norm = p.iter().map(|v| v * v).sum::<f64>().sqrt();
            let scale = max_norm.filter(|&m| norm > m).map(|m| m / norm);
            for (a, &v) in acc.iter_mut().zip(p) {
                *a += match scale {
                    Some(s) => wf * (v * s),
                    None => wf * v,
                };
            }
        }
        acc.iter().map(|a| a / total).collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `n` updates of dimension `dim` with coordinates in `[-10, 10)` and
    /// weights in `1..=9`, from a fixed LCG.
    fn synth_updates(n: usize, dim: usize, seed: u64) -> Vec<(Vec<f64>, u64)> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| {
                let p: Vec<f64> = (0..dim).map(|_| (next() - 0.5) * 20.0).collect();
                let w = 1 + (next() * 9.0) as u64;
                (p, w)
            })
            .collect()
    }

    #[test]
    fn fedavg_is_bit_identical_to_the_textbook_loop() {
        let updates = synth_updates(37, 8, 3);
        let agg = exact(AggregationStrategy::FedAvg, &updates).unwrap();
        assert_eq!(bits(&agg), bits(&reference_mean(&updates, None)));
    }

    #[test]
    fn clipped_fedavg_is_bit_identical_to_the_textbook_loop() {
        let mut updates = synth_updates(20, 6, 9);
        updates.push((vec![1e9; 6], 2)); // must be clipped
        let agg = clipped(5.0, &updates);
        assert_eq!(bits(&agg), bits(&reference_mean(&updates, Some(5.0))));
    }

    #[test]
    fn empty_params_are_skipped_and_dim_mismatch_rejected() {
        // The empty update's 100 examples join no total.
        let agg = exact(
            AggregationStrategy::FedAvg,
            &[(vec![], 100), (vec![2.0], 1)],
        );
        assert_eq!(agg, Ok(vec![2.0]));
        let mismatched = [(vec![], 100), (vec![2.0], 1), (vec![1.0, 2.0], 1)];
        assert!(exact(AggregationStrategy::FedAvg, &mismatched).is_err());
    }

    #[test]
    fn non_finite_handling_per_rule_family() {
        // Mean rules: error, naming the sender rather than its position.
        let updates = vec![
            (3, vec![1.0], 1u64),
            (7, vec![f64::NAN], 1),
            (5, vec![3.0], 1),
        ];
        for strategy in [
            AggregationStrategy::FedAvg,
            AggregationStrategy::NormClippedFedAvg { max_norm: 5.0 },
        ] {
            assert_eq!(
                strategy.aggregate(updates.clone()),
                Err(FlError::NonFiniteUpdate { client: 7 }),
                "{}",
                strategy.name()
            );
        }
        // Rank rules and Krum: drop the update and aggregate the rest.
        for strategy in [
            AggregationStrategy::CoordinateMedian,
            AggregationStrategy::TrimmedMean { trim_ratio: 0.0 },
            AggregationStrategy::MultiKrum { f: 0, m: 2 },
        ] {
            assert_eq!(
                strategy.aggregate(updates.clone()),
                Ok(vec![2.0]),
                "{}",
                strategy.name()
            );
        }
    }

    #[test]
    fn strategy_aggregation_names_the_non_finite_sender() {
        let updates = vec![(4, vec![1.0], 1u64), (9, vec![f64::NAN], 1)];
        assert_eq!(
            AggregationStrategy::FedAvg.aggregate(updates.clone()),
            Err(FlError::NonFiniteUpdate { client: 9 })
        );
        // Rank rules drop the NaN update instead.
        assert_eq!(
            AggregationStrategy::CoordinateMedian.aggregate(updates),
            Ok(vec![1.0])
        );
    }

    #[test]
    fn strategy_validation_catches_bad_knobs() {
        assert!(AggregationStrategy::TrimmedMean { trim_ratio: 0.6 }
            .validate()
            .is_err());
        assert!(AggregationStrategy::NormClippedFedAvg { max_norm: 0.0 }
            .validate()
            .is_err());
        assert!(AggregationStrategy::MultiKrum { f: 1, m: 0 }
            .validate()
            .is_err());
        assert!(AggregationStrategy::default().validate().is_ok());
        assert!(!AggregationStrategy::FedAvg.is_robust());
        assert!(AggregationStrategy::CoordinateMedian.is_robust());
        assert!(AggregationStrategy::FedAvg.compatible_with_masking());
        assert!(!AggregationStrategy::Krum { f: 1 }.compatible_with_masking());
    }

    #[test]
    fn strategy_loss_aggregation_switches_rule() {
        let losses = [(1.0, 1u64), (1.0, 1), (100.0, 1)];
        let mean = AggregationStrategy::FedAvg.aggregate_loss(&losses).unwrap();
        let median = AggregationStrategy::CoordinateMedian
            .aggregate_loss(&losses)
            .unwrap();
        assert!(mean > 30.0);
        assert_eq!(median, 1.0);
    }

    #[test]
    fn guard_rejects_dim_mismatch_and_nan() {
        let mut guard = UpdateGuard::new(GuardPolicy::default());
        let screened = guard.screen_updates(vec![
            (0, vec![1.0, 2.0], 1),
            (1, vec![1.0], 1),
            (2, vec![f64::NAN, 2.0], 1),
            (3, vec![1.1, 1.9], 1),
        ]);
        assert_eq!(
            screened.accepted.iter().map(|u| u.0).collect::<Vec<_>>(),
            vec![0, 3]
        );
        assert_eq!(screened.rejected.len(), 2);
        assert!(matches!(
            screened.rejected[0],
            (
                1,
                RejectReason::DimensionMismatch {
                    got: 1,
                    expected: 2
                }
            )
        ));
        assert!(matches!(screened.rejected[1], (2, RejectReason::NonFinite)));
    }

    #[test]
    fn guard_screens_norm_outliers_against_running_median() {
        let mut guard = UpdateGuard::new(GuardPolicy {
            norm_ratio: 10.0,
            ..GuardPolicy::default()
        });
        let screened = guard.screen_updates(vec![
            (0, vec![1.0], 1),
            (1, vec![1.2], 1),
            (2, vec![0.8], 1),
            (3, vec![1e6], 1), // attacker
        ]);
        assert_eq!(screened.rejected.len(), 1);
        assert!(matches!(
            screened.rejected[0],
            (3, RejectReason::NormOutlier { .. })
        ));
        // History now pins the median near 1: a later round where the
        // attacker replies alone still gets screened.
        let later = guard.screen_updates(vec![(3, vec![1e6], 1)]);
        assert!(later.accepted.is_empty(), "history forgot the honest norm");
        assert!(matches!(
            later.rejected[0],
            (3, RejectReason::NormOutlier { .. })
        ));
    }

    #[test]
    fn guard_passes_empty_params_unscreened() {
        let mut guard = UpdateGuard::new(GuardPolicy::default());
        let screened = guard.screen_updates(vec![(0, vec![], 5), (1, vec![1.0], 1)]);
        assert_eq!(screened.accepted.len(), 2);
        assert!(screened.rejected.is_empty());
    }

    #[test]
    fn guard_screens_losses() {
        let mut guard = UpdateGuard::new(GuardPolicy {
            loss_ratio: 100.0,
            ..GuardPolicy::default()
        });
        let screened = guard.screen_losses(vec![
            (0, 1.0, 10),
            (1, f64::NAN, 10),
            (2, -3.0, 10),
            (3, 1e9, 10), // attacker
            (4, 1.5, 10),
        ]);
        assert_eq!(
            screened.accepted.iter().map(|l| l.0).collect::<Vec<_>>(),
            vec![0, 4]
        );
        let reasons: Vec<&RejectReason> = screened.rejected.iter().map(|(_, r)| r).collect();
        assert!(matches!(reasons[0], RejectReason::NonFinite));
        assert!(matches!(reasons[1], RejectReason::NegativeLoss { .. }));
        assert!(matches!(reasons[2], RejectReason::LossOutlier { .. }));
    }

    #[test]
    fn guard_history_round_trips_and_screens_identically() {
        let mut guard = UpdateGuard::new(GuardPolicy::default());
        for round in 1..6 {
            let scale = round as f64;
            let _ = guard.screen_updates(vec![
                (0, vec![scale, 0.0], 10),
                (1, vec![0.0, scale * 1.1], 10),
            ]);
            let _ = guard.screen_losses(vec![(0, scale, 10), (1, scale * 0.9, 10)]);
        }
        let (norms, losses) = guard.history();
        assert_eq!(norms.len(), 5);
        let mut restored = UpdateGuard::new(GuardPolicy::default());
        restored.restore_history(&norms, &losses);
        assert_eq!(restored.history(), guard.history());
        // Same future round, same verdicts — including the outlier.
        let round = vec![(0, vec![3.0, 0.0], 10), (1, vec![1e9, 0.0], 10)];
        let a = guard.screen_updates(round.clone());
        let b = restored.screen_updates(round);
        assert_eq!(a.accepted, b.accepted);
        assert_eq!(a.rejected.len(), b.rejected.len());
        assert_eq!(a.rejected[0].0, b.rejected[0].0);
    }

    #[test]
    fn guard_restore_truncates_to_the_policy_window() {
        let mut guard = UpdateGuard::new(GuardPolicy {
            history: 3,
            ..GuardPolicy::default()
        });
        let long: Vec<f64> = (1..=10).map(|v| v as f64).collect();
        guard.restore_history(&long, &long);
        let (norms, losses) = guard.history();
        assert_eq!(norms, vec![8.0, 9.0, 10.0], "oldest entries must drop");
        assert_eq!(losses, vec![8.0, 9.0, 10.0]);
    }

    #[test]
    fn reject_reasons_render() {
        let r = RejectReason::LossOutlier {
            loss: 1e9,
            median: 1.0,
        };
        let s = r.to_string();
        assert!(s.contains("loss"), "{s}");
        assert!(RejectReason::NonFinite.to_string().contains("non-finite"));
    }
}
