//! Latency accounting (satellite 3): the per-shard histogram partials,
//! merged in shard index order, must equal one histogram fed every
//! observation — bucket for bucket, percentile for percentile. The
//! batcher's p50/p95/p99 are only trustworthy if sharding is invisible
//! to the numbers. A replay over a multi-tenant store must also keep its
//! p99 under a fixed ceiling.

mod common;

use common::{series, v3_artifact, FIT_END, SERIES_LEN};
use ff_serve::{Batcher, ModelStore, PredictRequest};
use ff_trace::Histogram;
use proptest::prelude::*;
use std::sync::Arc;

fn assert_hist_eq(merged: &Histogram, single: &Histogram) {
    assert_eq!(merged.count(), single.count(), "count");
    assert_eq!(merged.min(), single.min(), "min");
    assert_eq!(merged.max(), single.max(), "max");
    assert_eq!(
        merged.buckets().collect::<Vec<_>>(),
        single.buckets().collect::<Vec<_>>(),
        "buckets"
    );
    for q in [0.0, 0.25, 0.5, 0.90, 0.95, 0.99, 1.0] {
        assert_eq!(merged.percentile(q), single.percentile(q), "p{q}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn merged_shard_partials_equal_one_histogram(
        values in prop::collection::vec(0.0f64..1.0e7, 1..400),
        chunk in 1usize..64,
    ) {
        let mut single = Histogram::new();
        for &v in &values {
            single.record(v);
        }
        let shards: Vec<Histogram> = values
            .chunks(chunk)
            .map(|c| {
                let mut h = Histogram::new();
                for &v in c {
                    h.record(v);
                }
                h
            })
            .collect();
        assert_hist_eq(&Histogram::merge_all(&shards), &single);
    }
}

#[test]
fn the_batcher_accounts_every_served_request_exactly_once() {
    let store = Arc::new(ModelStore::new());
    store.publish("acme", "load", v3_artifact(21));
    let values = series(21, SERIES_LEN);
    let mut requests: Vec<PredictRequest> = (0..37usize)
        .map(|i| PredictRequest {
            tenant: "acme".into(),
            series: "load".into(),
            values: values.clone(),
            start: 120 + (i % 10),
            end: 131 + (i % 10),
        })
        .collect();
    // One failing request: an unknown model still burns measured time
    // and must still be accounted.
    requests.push(PredictRequest {
        tenant: "acme".into(),
        series: "nope".into(),
        values: values.clone(),
        start: 120,
        end: 121,
    });
    let outcome = ff_par::with_threads(4, || Batcher::new().run(&store, &requests));
    assert_eq!(outcome.latency_us.len(), requests.len());
    let merged = outcome.latency_histogram();
    assert_eq!(merged.count(), requests.len() as u64);
    let per_shard: u64 = outcome.shard_latency.iter().map(|h| h.count()).sum();
    assert_eq!(per_shard, requests.len() as u64);
    // The merged histogram is exactly the shard partials re-recorded.
    let mut single = Histogram::new();
    for &us in &outcome.latency_us {
        single.record(us as f64);
    }
    assert_hist_eq(&merged, &single);
}

/// The tail-latency ceiling: 2,048 requests with varying forecast windows
/// over 64 published models (16 tenants × 4 series), replayed after one
/// warm-up pass so lazy decode is not billed, keep p99 within 250 ms at
/// one worker and at four.
#[test]
fn replay_p99_stays_under_the_latency_ceiling() {
    const P99_CEILING_MS: f64 = 250.0;
    const TENANTS: usize = 16;
    const MODELS: usize = 64;
    let per_tenant = MODELS / TENANTS;
    let key = |k: usize| {
        (
            format!("tenant-{}", k / per_tenant),
            format!("series-{}", k % per_tenant),
        )
    };
    let store = ModelStore::new();
    for k in 0..MODELS {
        let (tenant, series_id) = key(k);
        store.publish(&tenant, &series_id, v3_artifact(k as u64));
    }
    let requests: Vec<PredictRequest> = (0..2048usize)
        .map(|i| {
            let k = i % MODELS;
            let (tenant, series_id) = key(k);
            let start = FIT_END + (i * 3) % 30;
            PredictRequest {
                tenant,
                series: series_id,
                values: series(k as u64, SERIES_LEN),
                start,
                end: start + 1 + i % 8,
            }
        })
        .collect();
    for threads in [1, 4] {
        let outcome = ff_par::with_threads(threads, || {
            let batcher = Batcher::new();
            let _warm = batcher.run(&store, &requests);
            batcher.run(&store, &requests)
        });
        assert!(outcome.forecasts.iter().all(Result::is_ok));
        let p99_ms = outcome.latency_histogram().percentile(0.99).unwrap() / 1000.0;
        assert!(
            p99_ms <= P99_CEILING_MS,
            "p99 {p99_ms:.3} ms at {threads} workers exceeds the {P99_CEILING_MS} ms ceiling"
        );
    }
}
