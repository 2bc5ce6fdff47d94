//! Streaming robust aggregation: server memory O(model), not
//! O(clients × model).
//!
//! [`StreamAgg`] is the crate's one aggregation path. Updates **fold** in
//! as they arrive and are dropped immediately, partials **merge** in a
//! fixed order, and `finalize` produces the global vector. The runtime's
//! fold rounds ([`FederatedRuntime::run_fit_round`]) keep one partial per
//! host thread; the batch entry point
//! ([`AggregationStrategy::aggregate`]) is a single partial with an
//! unbounded exact buffer. Krum and Multi-Krum are the only batch-only
//! rules.
//!
//! Per rule:
//!
//! - **FedAvg / NormClippedFedAvg** fold exactly through `MeanAcc`, the
//!   crate's only weighted-mean loop: the running `(Σ wᵢθᵢ, Σ wᵢ)`
//!   accumulator. Clipping happens inline per coordinate; no clipped copy
//!   of the update is ever allocated.
//! - **CoordinateMedian / TrimmedMean** are rank statistics and have no
//!   exact bounded-memory form. They run in two phases: an **exact
//!   buffer** of up to `exact_cap` updates (finalizing from the buffer
//!   runs the rank rule over the buffered updates — bit-identical to an
//!   unbounded buffer), and on overflow a **spill** into one signed
//!   weighted [`QuantileSketch`] per coordinate, after which memory is
//!   O(model × occupied buckets) regardless of cohort size. Sketch answers
//!   carry the documented error bound below.
//! - **Krum / Multi-Krum** need all pairwise update distances and are
//!   rejected at construction — they are inherently O(clients × model).
//!
//! [`FederatedRuntime::run_fit_round`]: crate::runtime::FederatedRuntime::run_fit_round
//!
//! # Error bounds (spilled phase)
//!
//! Let `ε =` [`QuantileSketch::RELATIVE_ERROR`] (≈ 2.19%).
//!
//! - **Median**: per coordinate, the spilled result `m̂` vs the exact
//!   weighted median `m` of the same updates satisfies
//!   `|m̂ − m| ≤ ε·|m|` — the sketch picks a bucket containing a true
//!   weighted median point and returns its geometric midpoint. (The
//!   exact rule's midpoint-averaging of exact weight ties can move `m`
//!   to a neighbouring value; the bound still holds against either tie
//!   endpoint.)
//! - **Trimmed mean**: the exact rule trims a *count* (`⌊trim·n⌋`
//!   updates per tail) while the sketch trims *weight mass*
//!   (`trim·Σw` per tail). For equal weights these differ by at most
//!   one update per tail, so per coordinate
//!   `|t̂ − t| ≤ ε·max|v| + 2·range/(n·(1 − 2·trim))` where `range` is
//!   the coordinate's value spread and `n` the update count. The crate's
//!   property tests assert exactly this bound.
//!
//! Determinism: folds and merges are floating-point accumulations, so
//! results are bit-deterministic for a fixed fold/merge order. The
//! runtime fixes that order structurally (each partial folds its clients
//! in id order, partials merge in id order), which is what makes a round
//! bit-identical across `FF_THREADS` settings.

use crate::robust::{coordinate_median, trimmed_mean, AggregationStrategy};
use crate::{FlError, Result};
use ff_trace::QuantileSketch;

/// Running weighted mean `Σ wᵢθᵢ / Σ wᵢ` — the crate's one weighted-mean
/// loop, shared by FedAvg, norm clipping, the untrimmed trimmed mean and
/// Multi-Krum, so they agree bit for bit on identical inputs. The weight
/// total accumulates first, then `w·θ` per coordinate.
#[derive(Debug, Clone, Default)]
pub(crate) struct MeanAcc {
    acc: Vec<f64>,
    total_w: f64,
}

impl MeanAcc {
    /// Adds `w·θ`, rescaling each coordinate by `scale` first when the
    /// update is clipped.
    pub(crate) fn add(&mut self, params: &[f64], w: f64, scale: Option<f64>) {
        if self.acc.is_empty() {
            self.acc = vec![0.0; params.len()];
        }
        self.total_w += w;
        match scale {
            Some(scale) => {
                for (a, &v) in self.acc.iter_mut().zip(params) {
                    *a += w * (v * scale);
                }
            }
            None => {
                for (a, &v) in self.acc.iter_mut().zip(params) {
                    *a += w * v;
                }
            }
        }
    }

    fn merge(&mut self, other: MeanAcc) {
        if self.acc.is_empty() {
            *self = other;
        } else {
            self.total_w += other.total_w;
            for (a, b) in self.acc.iter_mut().zip(&other.acc) {
                *a += b;
            }
        }
    }

    /// The weighted mean of `(params, weight)` views, in order.
    pub(crate) fn mean_of<'a>(
        updates: impl IntoIterator<Item = (&'a [f64], f64)>,
    ) -> Result<Vec<f64>> {
        let mut mean = MeanAcc::default();
        for (p, w) in updates {
            mean.add(p, w, None);
        }
        mean.finish()
    }

    /// The weighted mean; errors when no weight was added.
    pub(crate) fn finish(self) -> Result<Vec<f64>> {
        if self.total_w <= 0.0 {
            return Err(FlError::Client("zero total weight".into()));
        }
        let mut acc = self.acc;
        for a in acc.iter_mut() {
            *a /= self.total_w;
        }
        Ok(acc)
    }
}

/// Incremental aggregation state for one round. See the module docs for
/// the memory model and error bounds.
#[derive(Debug, Clone)]
pub struct StreamAgg {
    /// Any rule but Krum.
    rule: AggregationStrategy,
    exact_cap: usize,
    dim: Option<usize>,
    /// Mean-family state.
    mean: MeanAcc,
    /// Rank-family exact phase: buffered updates, ≤ `exact_cap`.
    buffer: Vec<(Vec<f64>, u64)>,
    /// Bytes held by `buffer`, kept current so `state_bytes` is cheap.
    buffer_bytes: usize,
    /// Rank-family spilled phase: one sketch per coordinate.
    sketches: Vec<QuantileSketch>,
    /// Non-finite updates dropped by the rank-family rules (the
    /// mean-family rules error instead, matching their batch forms).
    dropped_non_finite: usize,
    folded: usize,
    peak_bytes: usize,
}

impl StreamAgg {
    /// Builds the streaming form of `strategy`. `exact_cap` bounds the
    /// rank-family exact buffer (clamped to ≥ 1); within it, `finalize`
    /// is exact. Krum and Multi-Krum are refused — they need every
    /// pairwise update distance and cannot stream.
    pub fn new(strategy: &AggregationStrategy, exact_cap: usize) -> Result<StreamAgg> {
        strategy.validate()?;
        if let AggregationStrategy::Krum { .. } | AggregationStrategy::MultiKrum { .. } = strategy {
            return Err(FlError::Client(
                "Krum cannot stream: it needs all pairwise update distances \
                 (O(clients × model) memory); aggregate it in batch"
                    .into(),
            ));
        }
        Ok(StreamAgg {
            rule: *strategy,
            exact_cap: exact_cap.max(1),
            dim: None,
            mean: MeanAcc::default(),
            buffer: Vec::new(),
            buffer_bytes: 0,
            sketches: Vec::new(),
            dropped_non_finite: 0,
            folded: 0,
            peak_bytes: 0,
        })
    }

    /// Number of updates folded in (including merged partials, excluding
    /// dropped non-finite and empty ones).
    pub fn count(&self) -> usize {
        self.folded
    }

    /// Non-finite updates dropped by the rank-family rules.
    pub fn dropped_non_finite(&self) -> usize {
        self.dropped_non_finite
    }

    /// Whether the rank-family state has spilled from the exact buffer
    /// into sketches. Mean-family rules never spill (they are exact).
    pub fn spilled(&self) -> bool {
        !self.sketches.is_empty()
    }

    /// Approximate bytes of live aggregation state right now.
    pub fn state_bytes(&self) -> usize {
        let base = std::mem::size_of::<StreamAgg>();
        let acc = self.mean.acc.capacity() * 8;
        let sk: usize = self.sketches.iter().map(QuantileSketch::state_bytes).sum();
        base + acc + self.buffer_bytes + sk
    }

    /// High-water mark of [`state_bytes`](Self::state_bytes) across the
    /// folds and merges so far.
    pub fn peak_state_bytes(&self) -> usize {
        self.peak_bytes.max(self.state_bytes())
    }

    fn note_peak(&mut self) {
        let now = self.state_bytes();
        if now > self.peak_bytes {
            self.peak_bytes = now;
        }
    }

    fn check_dim(&mut self, len: usize) -> Result<()> {
        match self.dim {
            None => {
                self.dim = Some(len);
                Ok(())
            }
            Some(d) if d == len => Ok(()),
            Some(d) => Err(FlError::Client(format!(
                "parameter length mismatch: {len} vs {d}"
            ))),
        }
    }

    /// Moves the exact buffer into per-coordinate sketches.
    fn spill(&mut self) {
        let dim = self.dim.unwrap_or(0);
        if self.sketches.is_empty() {
            self.sketches = vec![QuantileSketch::new(); dim];
        }
        self.buffer_bytes = 0;
        for (p, w) in self.buffer.drain(..) {
            let wf = w as f64;
            for (sk, &v) in self.sketches.iter_mut().zip(&p) {
                sk.add(v, wf);
            }
        }
    }

    /// Folds one update in. Empty parameter vectors are skipped (clients
    /// whose results travel in metrics). Non-finite updates: the
    /// mean-family rules error with [`FlError::NonFiniteUpdate`] (an
    /// average over NaN is meaningless); the rank-family rules drop them
    /// (counted).
    pub fn fold(&mut self, params: Vec<f64>, num_examples: u64) -> Result<()> {
        if params.is_empty() {
            return Ok(());
        }
        let finite = params.iter().all(|v| v.is_finite());
        match self.rule {
            AggregationStrategy::FedAvg | AggregationStrategy::NormClippedFedAvg { .. } => {
                if !finite {
                    return Err(FlError::NonFiniteUpdate {
                        client: self.folded,
                    });
                }
                self.check_dim(params.len())?;
                let scale = match self.rule {
                    AggregationStrategy::NormClippedFedAvg { max_norm } => {
                        let norm = params.iter().map(|v| v * v).sum::<f64>().sqrt();
                        (norm > max_norm).then(|| max_norm / norm)
                    }
                    _ => None,
                };
                self.mean.add(&params, num_examples as f64, scale);
            }
            _ => {
                if !finite {
                    self.dropped_non_finite += 1;
                    return Ok(());
                }
                self.check_dim(params.len())?;
                if self.spilled() {
                    let wf = num_examples as f64;
                    for (sk, &v) in self.sketches.iter_mut().zip(&params) {
                        sk.add(v, wf);
                    }
                } else {
                    self.buffer_bytes += params.capacity() * 8 + 32;
                    self.buffer.push((params, num_examples));
                    if self.buffer.len() > self.exact_cap {
                        self.spill();
                    }
                }
            }
        }
        self.folded += 1;
        self.note_peak();
        Ok(())
    }

    /// [`fold`](Self::fold) for an update sent by `client`: a non-finite
    /// error names that client instead of the update's fold position.
    pub(crate) fn fold_from(
        &mut self,
        client: usize,
        params: Vec<f64>,
        num_examples: u64,
    ) -> Result<()> {
        self.fold(params, num_examples).map_err(|e| match e {
            FlError::NonFiniteUpdate { .. } => FlError::NonFiniteUpdate { client },
            other => other,
        })
    }

    /// Merges a partial into this state. Mean-family partials add their
    /// accumulators; rank-family partials concatenate exact buffers while
    /// the combined count fits in `exact_cap`, otherwise this state
    /// spills and absorbs the partial's buffer or sketches. Callers must
    /// merge partials in a fixed order for deterministic results.
    pub fn merge(&mut self, other: StreamAgg) -> Result<()> {
        if self.rule != other.rule {
            return Err(FlError::Client("merging mismatched stream rules".into()));
        }
        if other.folded == 0 && other.dropped_non_finite == 0 {
            return Ok(());
        }
        if let Some(d) = other.dim {
            self.check_dim(d)?;
        }
        let (other_dropped, other_folded, other_peak) =
            (other.dropped_non_finite, other.folded, other.peak_bytes);
        match self.rule {
            AggregationStrategy::FedAvg | AggregationStrategy::NormClippedFedAvg { .. } => {
                self.mean.merge(other.mean)
            }
            _ => {
                let both_exact = !self.spilled() && !other.spilled();
                let fits = self.buffer.len() + other.buffer.len() <= self.exact_cap;
                self.buffer_bytes += other.buffer_bytes;
                self.buffer.extend(other.buffer);
                if !(both_exact && fits) {
                    // An exact partial's updates go straight into this
                    // state's sketches; a spilled one's sketches merge.
                    self.spill();
                    for (a, b) in self.sketches.iter_mut().zip(&other.sketches) {
                        a.merge(b);
                    }
                }
            }
        }
        self.dropped_non_finite += other_dropped;
        self.folded += other_folded;
        self.peak_bytes = self.peak_bytes.max(other_peak);
        self.note_peak();
        Ok(())
    }

    /// Produces the aggregate. Mean-family: the exact weighted mean.
    /// Rank-family: the rank rule over the exact buffer when it never
    /// spilled (exact), or per-coordinate sketch queries otherwise
    /// (documented error bound).
    pub fn finalize(self) -> Result<Vec<f64>> {
        let trim = match self.rule {
            AggregationStrategy::CoordinateMedian => None,
            AggregationStrategy::TrimmedMean { trim_ratio } => Some(trim_ratio),
            _ => return self.mean.finish(),
        };
        if !self.spilled() {
            return match trim {
                None => coordinate_median(&self.buffer),
                Some(trim_ratio) => trimmed_mean(&self.buffer, trim_ratio),
            };
        }
        (self.sketches.iter())
            .map(|sk| match trim {
                None => sk.median(),
                Some(trim_ratio) => sk.trimmed_mean(trim_ratio),
            })
            .map(|q| q.ok_or_else(|| FlError::Client("no updates to aggregate".into())))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Textbook weighted mean, written independently of [`MeanAcc`]:
    /// weights totalled first, then `w·θ` per coordinate.
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
    fn fedavg_fold_is_bit_identical_to_the_textbook_loop() {
        let updates = synth_updates(37, 8, 3);
        let mut agg = StreamAgg::new(&AggregationStrategy::FedAvg, 4).unwrap();
        for (p, w) in &updates {
            agg.fold(p.clone(), *w).unwrap();
        }
        let stream = agg.finalize().unwrap();
        assert_eq!(bits(&stream), bits(&reference_mean(&updates, None)));
    }

    #[test]
    fn clipped_fold_is_bit_identical_to_the_textbook_loop() {
        let mut updates = synth_updates(20, 6, 9);
        updates.push((vec![1e9; 6], 2)); // must be clipped
        let strategy = AggregationStrategy::NormClippedFedAvg { max_norm: 5.0 };
        let mut agg = StreamAgg::new(&strategy, 4).unwrap();
        for (p, w) in &updates {
            agg.fold(p.clone(), *w).unwrap();
        }
        let stream = agg.finalize().unwrap();
        assert_eq!(bits(&stream), bits(&reference_mean(&updates, Some(5.0))));
    }

    #[test]
    fn median_within_exact_cap_is_bit_identical_to_batch() {
        let updates = synth_updates(16, 5, 11);
        let mut agg = StreamAgg::new(&AggregationStrategy::CoordinateMedian, 16).unwrap();
        for (p, w) in &updates {
            agg.fold(p.clone(), *w).unwrap();
        }
        assert!(!agg.spilled());
        let stream = agg.finalize().unwrap();
        let batch = coordinate_median(&updates).unwrap();
        assert_eq!(bits(&stream), bits(&batch));
    }

    #[test]
    fn spilled_median_is_within_documented_bound() {
        let updates = synth_updates(200, 4, 17);
        let mut agg = StreamAgg::new(&AggregationStrategy::CoordinateMedian, 8).unwrap();
        for (p, w) in &updates {
            agg.fold(p.clone(), *w).unwrap();
        }
        assert!(agg.spilled());
        let stream = agg.finalize().unwrap();
        // The documented bound is against a true weighted-median *point*.
        // The batch rule midpoint-averages exact weight ties, which can
        // place its answer between two update values; per the module
        // docs the bound holds against either tie endpoint, so compare
        // against both.
        for (j, s) in stream.iter().enumerate() {
            let mut col: Vec<(f64, u64)> = updates.iter().map(|(p, w)| (p[j], *w)).collect();
            col.sort_by(|a, b| a.0.total_cmp(&b.0));
            let total: u64 = col.iter().map(|&(_, w)| w).sum();
            let half = total as f64 / 2.0;
            let mut cum = 0.0;
            let mut lo = col[0].0;
            let mut hi = col[col.len() - 1].0;
            let mut found_lo = false;
            for &(v, w) in &col {
                cum += w as f64;
                if !found_lo && cum >= half {
                    lo = v;
                    found_lo = true;
                }
                if cum > half {
                    hi = v;
                    break;
                }
            }
            let ok = [lo, hi]
                .iter()
                .any(|m| (s - m).abs() <= QuantileSketch::RELATIVE_ERROR * m.abs() + 1e-9);
            assert!(
                ok,
                "coord {j}: spilled {s} vs median endpoints [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn spilled_trimmed_mean_is_within_documented_bound() {
        // Equal weights so the count-trim vs mass-trim correspondence in
        // the documented bound applies directly.
        let updates: Vec<(Vec<f64>, u64)> = synth_updates(100, 3, 23)
            .into_iter()
            .map(|(p, _)| (p, 1))
            .collect();
        let trim = 0.1;
        let strategy = AggregationStrategy::TrimmedMean { trim_ratio: trim };
        let mut agg = StreamAgg::new(&strategy, 8).unwrap();
        for (p, w) in &updates {
            agg.fold(p.clone(), *w).unwrap();
        }
        assert!(agg.spilled());
        let stream = agg.finalize().unwrap();
        let batch = trimmed_mean(&updates, trim).unwrap();
        let n = updates.len() as f64;
        for j in 0..3 {
            let col: Vec<f64> = updates.iter().map(|(p, _)| p[j]).collect();
            let max_abs = col.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            let range = col.iter().fold(f64::MIN, |m, &v| m.max(v))
                - col.iter().fold(f64::MAX, |m, &v| m.min(v));
            let bound =
                QuantileSketch::RELATIVE_ERROR * max_abs + 2.0 * range / (n * (1.0 - 2.0 * trim));
            assert!(
                (stream[j] - batch[j]).abs() <= bound,
                "coord {j}: stream {} vs batch {} (bound {bound})",
                stream[j],
                batch[j]
            );
        }
    }

    #[test]
    fn sharded_merge_matches_sequential_fold_for_mean_family() {
        // Two shards merged in order — not necessarily bit-identical to
        // a single fold (different FP grouping), but must be exact in
        // value terms and deterministic: merging the same partials twice
        // gives bit-identical results.
        let updates = synth_updates(30, 4, 5);
        let build = || {
            let mut parts: Vec<StreamAgg> = (0..3)
                .map(|_| StreamAgg::new(&AggregationStrategy::FedAvg, 4).unwrap())
                .collect();
            for (i, (p, w)) in updates.iter().enumerate() {
                parts[i % 3].fold(p.clone(), *w).unwrap();
            }
            let mut it = parts.into_iter();
            let mut merged = it.next().unwrap();
            for part in it {
                merged.merge(part).unwrap();
            }
            merged.finalize().unwrap()
        };
        let a = build();
        let b = build();
        assert_eq!(bits(&a), bits(&b));
        for (x, y) in a.iter().zip(&reference_mean(&updates, None)) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn rank_merge_stays_exact_when_combined_fits() {
        let updates = synth_updates(10, 3, 7);
        let mut left = StreamAgg::new(&AggregationStrategy::CoordinateMedian, 16).unwrap();
        let mut right = left.clone();
        for (p, w) in &updates[..5] {
            left.fold(p.clone(), *w).unwrap();
        }
        for (p, w) in &updates[5..] {
            right.fold(p.clone(), *w).unwrap();
        }
        left.merge(right).unwrap();
        assert!(!left.spilled());
        let stream = left.finalize().unwrap();
        let batch = coordinate_median(&updates).unwrap();
        assert_eq!(bits(&stream), bits(&batch));
    }

    #[test]
    fn state_stays_bounded_after_spill() {
        let mut agg = StreamAgg::new(&AggregationStrategy::CoordinateMedian, 8).unwrap();
        let mut sizes = Vec::new();
        for (p, w) in synth_updates(2000, 16, 31) {
            agg.fold(p, w).unwrap();
            sizes.push(agg.state_bytes());
        }
        assert!(agg.spilled());
        // Memory is O(model × occupied buckets), not O(count). Occupied
        // buckets still fill in logarithmically as smaller magnitudes
        // land in new doublings, so assert sub-linearity, not a flat
        // line: 4× the folds (500 → 2000) must cost well under 2× the
        // state, and the final state must be a fraction of what
        // buffering every update would cost.
        let at_500 = sizes[499];
        let final_size = *sizes.last().unwrap();
        assert!(
            final_size < at_500 * 2,
            "state grew linearly with count: {at_500} -> {final_size}"
        );
        let naive = 2000 * (16 * 8 + 32);
        assert!(
            final_size * 2 < naive,
            "state {final_size} is not far below the O(count) cost {naive}"
        );
        assert!(agg.peak_state_bytes() >= final_size);
    }

    #[test]
    fn non_finite_handling_per_rule_family() {
        // Mean family: error, naming the sender when folded with an id.
        let mut agg = StreamAgg::new(&AggregationStrategy::FedAvg, 4).unwrap();
        agg.fold(vec![1.0], 1).unwrap();
        assert!(matches!(
            agg.fold(vec![f64::NAN], 1),
            Err(FlError::NonFiniteUpdate { .. })
        ));
        assert_eq!(
            agg.fold_from(7, vec![f64::NAN], 1),
            Err(FlError::NonFiniteUpdate { client: 7 })
        );
        // Rank family: drop and count.
        let mut agg = StreamAgg::new(&AggregationStrategy::CoordinateMedian, 4).unwrap();
        agg.fold(vec![1.0], 1).unwrap();
        agg.fold(vec![f64::NAN], 1).unwrap();
        agg.fold(vec![3.0], 1).unwrap();
        assert_eq!(agg.dropped_non_finite(), 1);
        assert_eq!(agg.finalize().unwrap(), vec![2.0]);
    }

    #[test]
    fn krum_is_refused() {
        assert!(StreamAgg::new(&AggregationStrategy::Krum { f: 1 }, 4).is_err());
        assert!(StreamAgg::new(&AggregationStrategy::MultiKrum { f: 1, m: 2 }, 4).is_err());
    }

    #[test]
    fn empty_params_are_skipped_and_dim_mismatch_rejected() {
        let mut agg = StreamAgg::new(&AggregationStrategy::FedAvg, 4).unwrap();
        agg.fold(vec![], 100).unwrap();
        agg.fold(vec![2.0], 1).unwrap();
        assert_eq!(agg.count(), 1);
        assert!(agg.fold(vec![1.0, 2.0], 1).is_err());
    }
}
