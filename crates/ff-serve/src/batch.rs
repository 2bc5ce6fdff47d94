//! The batcher: coalesced multi-series prediction on the [`ff_par`]
//! pool, with the fleet runtime's shard discipline.
//!
//! A batch of `n` requests is split into contiguous shards sized by
//! [`ff_par::shard_len`] — a pure function of `n`, never of the live
//! thread count — and each shard is served sequentially on a pool
//! worker. Shard results come back in shard index order and are
//! concatenated, so the response vector is bit-identical at any
//! `FF_THREADS` setting; threads change wall-clock, never bytes.

use crate::error::ServeError;
use crate::store::ModelStore;
use ff_trace::Histogram;
use std::time::Instant;

/// One forecast request: predict indices `start..end` of the named
/// tenant's series, given the series history `values`.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictRequest {
    /// Tenant the model belongs to (admission is per tenant).
    pub tenant: String,
    /// Series key within the tenant.
    pub series: String,
    /// The series history; predictions at index `t` read `values[..t]`.
    pub values: Vec<f64>,
    /// First index to predict.
    pub start: usize,
    /// One past the last index to predict.
    pub end: usize,
}

/// A request's outcome: the forecast values, or a typed refusal.
pub type ForecastResult = Result<Vec<f64>, ServeError>;

/// Most shards a batch is split into.
const MAX_SHARDS: usize = 64;

/// Fewest requests per shard, so per-shard overhead never dominates a
/// tiny batch.
const MIN_SHARD: usize = 4;

/// What one batch produced: per-request outcomes in request order, the
/// per-shard latency partials (shard index order), and the shard shape.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Per-request outcomes, aligned with the input batch.
    pub forecasts: Vec<ForecastResult>,
    /// Per-request service latencies in microseconds, aligned with the
    /// input batch (shed/deadline-missed requests record 0).
    pub latency_us: Vec<u64>,
    /// Per-shard latency histograms, in shard index order.
    pub shard_latency: Vec<Histogram>,
    /// The shard length the batch was partitioned with.
    pub shard_len: usize,
}

impl BatchOutcome {
    /// The batch's latency histogram: the per-shard partials merged in
    /// shard index order (equal, bucket for bucket, to recording every
    /// observation into one histogram — pinned by the contract suite).
    pub fn latency_histogram(&self) -> Histogram {
        Histogram::merge_all(&self.shard_latency)
    }
}

/// Coalesces predict requests and drives them through the pool.
#[derive(Debug, Clone, Default)]
pub struct Batcher;

impl Batcher {
    /// A batcher.
    pub fn new() -> Batcher {
        Batcher
    }

    /// Serves a batch against the store. Each request resolves its
    /// ensemble once (so a concurrent hot-swap can never tear a single
    /// response) and forecasts independently; outcomes return in
    /// request order.
    pub fn run(&self, store: &ModelStore, requests: &[PredictRequest]) -> BatchOutcome {
        self.run_with_deadline(store, requests, None)
    }

    /// [`Batcher::run`] with an optional wall-clock cutoff: requests
    /// reached after `deadline` are refused with
    /// [`ServeError::DeadlineExceeded`] instead of served late. The
    /// cutoff is inherently non-deterministic; pass `None` for the
    /// bit-identical path.
    pub fn run_with_deadline(
        &self,
        store: &ModelStore,
        requests: &[PredictRequest],
        deadline: Option<(Instant, std::time::Duration)>,
    ) -> BatchOutcome {
        let shard_len = ff_par::shard_len(requests.len(), MAX_SHARDS, MIN_SHARD);
        // Shards run on the pool; each returns (outcomes, latencies,
        // histogram) and par_chunks_map hands them back in shard index
        // order — the merge below is deterministic by construction.
        let shards = ff_par::par_chunks_map(requests, shard_len, |_, shard| {
            let mut outcomes = Vec::with_capacity(shard.len());
            let mut lat = Vec::with_capacity(shard.len());
            let mut hist = Histogram::new();
            for req in shard {
                if let Some((cutoff, budget)) = deadline {
                    if Instant::now() >= cutoff {
                        outcomes.push(Err(ServeError::DeadlineExceeded { budget }));
                        lat.push(0);
                        continue;
                    }
                }
                let t0 = Instant::now();
                let outcome = store
                    .resolve(&req.tenant, &req.series)
                    .and_then(|ensemble| ensemble.forecast(&req.values, req.start, req.end));
                let us = t0.elapsed().as_micros() as u64;
                hist.record(us as f64);
                outcomes.push(outcome);
                lat.push(us);
            }
            (outcomes, lat, hist)
        });
        let mut forecasts = Vec::with_capacity(requests.len());
        let mut latency_us = Vec::with_capacity(requests.len());
        let mut shard_latency = Vec::with_capacity(shards.len());
        for (outcomes, lat, hist) in shards {
            forecasts.extend(outcomes);
            latency_us.extend(lat);
            shard_latency.push(hist);
        }
        BatchOutcome {
            forecasts,
            latency_us,
            shard_latency,
            shard_len,
        }
    }
}
