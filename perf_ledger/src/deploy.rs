//! The set-up every workload starts from: a trained meta-model for new
//! federated training jobs, and a model store serving sealed artifacts
//! behind `ServeRuntime`. `setup_s` times this whole stand-up; the
//! benchmark's own checks (direct folds, decode probes) run outside it.

use crate::workloads::Sizes;
use crate::{ServeSample, TrainSample};
use fedforecaster::ckpt::run_fingerprint;
use fedforecaster::prelude::*;
use ff_metalearn::kb::KnowledgeBase;
use ff_metalearn::metamodel::{MetaClassifierKind, MetaModel};
use ff_models::pipeline::{decode_member_blob, PipelineId, RevivedMember};
use ff_serve::{Artifact, Ensemble, ModelStore, PredictRequest, ServeConfig, ServeRuntime};
use ff_timeseries::TimeSeries;
use ff_trace::Tracer;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Datasets whose federations train the served artifacts, one each.
const SERVED_DATASETS: [&str; 3] = [
    "USBirthsDaily",
    "nasdaq_Brazil_Saving_Deposits1",
    "Energy Select Sector ETF",
];
/// The served models are trained on fixed data, so every seed serves
/// the same models and the workload seed drives only the traffic.
const DEPLOY_SEED: u64 = 0;
/// The engine's default test fraction: the served windows and the
/// naive baseline both live in the last 15% of each client series.
const TEST_FRACTION: f64 = 0.15;
/// Requests per serve call (one caller, closed loop).
pub const CALL_BATCH: usize = 32;
/// Direct `Ensemble::decode` timings taken per artifact.
const DECODE_PROBES: usize = 16;

/// How the deployment publishes its artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Tenants; each holds `series_per_tenant` keys.
    pub tenants: usize,
    /// Keys per tenant.
    pub series_per_tenant: usize,
    /// Decoded ensembles the store keeps live.
    pub revive_capacity: usize,
}

impl Layout {
    /// Number of published keys.
    pub fn keys(&self) -> usize {
        self.tenants * self.series_per_tenant
    }
}

/// A per-run scratch directory beside the executable (inside the build
/// directory, so runs write nothing elsewhere); removed on drop.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    /// Creates the directory.
    pub fn create() -> Result<Scratch, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let parent = exe.parent().ok_or("executable has no parent directory")?;
        let dir = parent.join(format!("perf_ledger-scratch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch { dir })
    }

    /// The checkpoint log every engine run of this process writes (a
    /// fresh run truncates it).
    pub fn wal(&self) -> PathBuf {
        self.dir.join("run.wal")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// An engine configuration with checkpointing on (fsync per record).
pub fn engine_config(
    trials: usize,
    seed: u64,
    pipelines: Option<Vec<PipelineId>>,
    portfolio: Option<Vec<AlgorithmKind>>,
    wal: &Path,
    traced: bool,
) -> EngineConfig {
    EngineConfig {
        budget: Budget::Iterations(trials),
        seed,
        pipelines,
        portfolio,
        checkpoint: Some(CkptConfig::at(wal)),
        trace: if traced {
            TraceConfig::enabled().with_profile()
        } else {
            TraceConfig::disabled()
        },
        ..Default::default()
    }
}

/// Runs one engine job and records what the ledger reads from it.
pub fn train(
    meta: &MetaModel,
    clients: &[TimeSeries],
    cfg: EngineConfig,
    into: &mut TrainSample,
) -> Result<RunResult, String> {
    let wal = cfg.checkpoint.as_ref().map(|c| c.path.clone());
    let r = FedForecaster::new(cfg, meta)
        .run(clients)
        .map_err(|e| format!("engine run failed: {e}"))?;
    if !r.test_mse.is_finite() {
        return Err(format!("engine run produced test MSE {}", r.test_mse));
    }
    into.fingerprints.push(run_fingerprint(&r));
    into.bytes += (r.bytes_to_clients + r.bytes_to_server) as u64;
    into.trials += r.evaluations as u64;
    into.failed_trials += r.failed_trials as u64;
    if let Some(path) = wal {
        into.wal_bytes += std::fs::metadata(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .len();
    }
    if let Some(t) = &r.telemetry {
        into.telemetry.push(t.clone());
    }
    Ok(r)
}

/// Index of the first test point of a client series of length `n`,
/// as the engine's client computes it.
pub fn test_start(n: usize) -> usize {
    (((n as f64) * (1.0 - TEST_FRACTION)).round() as usize).clamp(2, n.saturating_sub(1).max(2))
}

/// Sum of squared errors and point count of the naive last-value
/// forecast over every client's test points.
pub fn naive_sse(clients: &[TimeSeries]) -> (f64, usize) {
    let mut sse = 0.0;
    let mut n = 0;
    for c in clients {
        let v = c.values();
        for t in test_start(v.len())..v.len() {
            let e = v[t] - v[t - 1];
            if e.is_finite() {
                sse += e * e;
                n += 1;
            }
        }
    }
    (sse, n)
}

/// One served artifact with the data it serves.
pub struct Served {
    /// Sealed bytes, the form a deploy ships.
    pub sealed: Vec<u8>,
    /// The opened artifact.
    pub artifact: Artifact,
    /// Client series histories the artifact forecasts.
    pub series: Vec<Vec<f64>>,
}

/// One published key.
#[derive(Debug, Clone)]
pub struct Key {
    /// Tenant name.
    pub tenant: String,
    /// Series name within the tenant.
    pub series: String,
    /// Index into [`Deployment::served`].
    pub artifact: usize,
    /// Index into that artifact's `series`.
    pub client: usize,
}

/// The stood-up deployment.
pub struct Deployment {
    /// The meta-model new training jobs use.
    pub meta: MetaModel,
    /// The served artifacts.
    pub served: Vec<Served>,
    /// The store holding every key.
    pub store: Arc<ModelStore>,
    /// Every published key, in publish order.
    pub keys: Vec<Key>,
}

impl Deployment {
    /// A request for `keys[key]` forecasting `start..end` of its series.
    pub fn request(&self, key: usize, start: usize, end: usize) -> PredictRequest {
        let k = &self.keys[key];
        PredictRequest {
            tenant: k.tenant.clone(),
            series: k.series.clone(),
            values: self.served[k.artifact].series[k.client].clone(),
            start,
            end,
        }
    }

    /// Opens `keys[key]`'s sealed artifact and publishes it: the deploy
    /// step, timed by callers as `store.publish_us`.
    pub fn publish(&self, key: usize) -> Result<(), String> {
        let k = &self.keys[key];
        let artifact = Artifact::open(&self.served[k.artifact].sealed)
            .map_err(|e| format!("sealed artifact does not open: {e}"))?;
        self.store.publish(&k.tenant, &k.series, artifact);
        Ok(())
    }

    /// The forecast the deployed ensemble must serve for `req`, folded
    /// directly from the member blobs: each member predicts the range,
    /// predictions accumulate in member order with normalized weights —
    /// the engine's own deployment evaluation, with no ff-serve code.
    pub fn direct_forecast(
        members: &[(f64, RevivedMember)],
        req: &PredictRequest,
    ) -> Result<Vec<f64>, String> {
        let wsum: f64 = members.iter().map(|(w, _)| *w).sum();
        let mut agg = vec![0.0; req.end - req.start];
        for (w, m) in members {
            let pred = m.predict_series(&req.values, req.start, req.end)?;
            for (a, p) in agg.iter_mut().zip(pred) {
                *a += (w / wsum) * p;
            }
        }
        Ok(agg)
    }

    /// Every artifact's members, decoded once for [`Self::direct_forecast`].
    pub fn decoded_members(&self) -> Result<Vec<Vec<(f64, RevivedMember)>>, String> {
        self.served
            .iter()
            .map(|s| {
                s.artifact
                    .members
                    .iter()
                    .map(|(w, blob)| decode_member_blob(blob).map(|m| (*w, m)))
                    .collect()
            })
            .collect()
    }
}

/// What one set-up measured.
pub struct SetupReport {
    /// Wall time of the whole set-up.
    pub total_s: f64,
    /// Knowledge-base build.
    pub kb_build_s: f64,
    /// Meta-model training.
    pub meta_train_s: f64,
    /// Training, sealing and reopening the served artifacts.
    pub artifacts_s: f64,
    /// The artifact training runs.
    pub engine: TrainSample,
    /// Publishing every key and the warm-up call per key.
    pub serve: ServeSample,
    /// Warm-up `(key, request, response)`s, for verification.
    pub warm: Vec<(usize, PredictRequest, Vec<f64>)>,
    /// The warm-up runtime's tracer (enabled when traced).
    pub tracer: Tracer,
    /// Direct `Ensemble::decode` timings, µs (benchmark probe, outside
    /// `total_s`).
    pub decode_us: Vec<f64>,
}

/// Stands up the deployment. With `traced`, the artifact runs record
/// profiles and the warm-up runtime carries an enabled tracer.
pub fn setup(
    layout: Layout,
    sizes: &Sizes,
    scratch: &Scratch,
    traced: bool,
) -> Result<(Deployment, SetupReport), String> {
    let started = Instant::now();
    let t = Instant::now();
    let kb = KnowledgeBase::build(
        &ff_metalearn::synth::synthetic_kb(sizes.kb_datasets),
        sizes.kb_clients,
        60,
    );
    let kb_build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let meta = MetaModel::train(&kb, MetaClassifierKind::RandomForest, 7)
        .map_err(|e| format!("meta-model training failed: {e}"))?;
    let meta_train_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let all = ff_datasets::benchmark_datasets();
    let mut engine = TrainSample::default();
    let mut served = Vec::new();
    for name in SERVED_DATASETS {
        let ds = all
            .iter()
            .find(|d| d.name == name)
            .ok_or_else(|| format!("unknown dataset {name}"))?;
        let clients = ds.generate_federation(DEPLOY_SEED, sizes.artifact_scale);
        let cfg = engine_config(
            sizes.artifact_trials,
            DEPLOY_SEED,
            Some(PipelineId::builtin().to_vec()),
            None,
            &scratch.wal(),
            traced,
        );
        let r = train(&meta, &clients, cfg, &mut engine)?;
        let sealed = r
            .export_artifact()
            .ok_or_else(|| format!("{name}: the pipeline-search run exported no artifact"))?
            .seal();
        let artifact =
            Artifact::open(&sealed).map_err(|e| format!("{name}: sealed artifact: {e}"))?;
        served.push(Served {
            sealed,
            artifact,
            series: clients.iter().map(|c| c.values().to_vec()).collect(),
        });
    }
    let artifacts_s = t.elapsed().as_secs_f64();

    let store = Arc::new(ModelStore::with_revive_capacity(layout.revive_capacity));
    let keys: Vec<Key> = (0..layout.keys())
        .map(|i| {
            let artifact = i % served.len();
            Key {
                tenant: format!("tenant-{}", i / layout.series_per_tenant),
                series: format!("series-{}", i % layout.series_per_tenant),
                artifact,
                client: (i / served.len()) % served[artifact].series.len(),
            }
        })
        .collect();
    let dep = Deployment {
        meta,
        served,
        store,
        keys,
    };
    let mut serve = ServeSample::default();
    for key in 0..dep.keys.len() {
        let t = Instant::now();
        dep.publish(key)?;
        serve.publish_us.push(t.elapsed().as_secs_f64() * 1e6);
    }

    // Warm-up: one call per 32 keys, each key forecasting its first test
    // point — the deployment answers before it counts as stood up.
    let tracer = if traced {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };
    let rt = ServeRuntime::new(Arc::clone(&dep.store), ServeConfig::default())
        .with_tracer(tracer.clone());
    let requests: Vec<PredictRequest> = (0..dep.keys.len())
        .map(|key| {
            let k = &dep.keys[key];
            let start = test_start(dep.served[k.artifact].series[k.client].len());
            dep.request(key, start, start + 1)
        })
        .collect();
    let mut warm = Vec::with_capacity(requests.len());
    let (hits0, misses0) = dep.store.cache_stats();
    for (c, call) in requests.chunks(CALL_BATCH).enumerate() {
        let t = Instant::now();
        let results = rt.serve(call);
        serve.record_call(t.elapsed().as_secs_f64(), call.len());
        for (i, (req, res)) in call.iter().zip(results).enumerate() {
            let forecast = res.map_err(|e| format!("warm-up request failed: {e}"))?;
            warm.push((c * CALL_BATCH + i, req.clone(), forecast));
        }
    }
    let (hits1, misses1) = dep.store.cache_stats();
    serve.hits = hits1 - hits0;
    serve.misses = misses1 - misses0;
    let total_s = started.elapsed().as_secs_f64();

    let mut decode_us = Vec::new();
    for s in &dep.served {
        for _ in 0..DECODE_PROBES {
            let t = Instant::now();
            let e = Ensemble::decode(&s.artifact).map_err(|e| format!("decode: {e}"))?;
            decode_us.push(t.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(e);
        }
    }
    let report = SetupReport {
        total_s,
        kb_build_s,
        meta_train_s,
        artifacts_s,
        engine,
        serve,
        warm,
        tracer,
        decode_us,
    };
    Ok((dep, report))
}

/// Checks every warm-up response bit for bit against the direct fold.
pub fn verify_warmup(dep: &Deployment, report: &SetupReport) -> Result<(), String> {
    let members = dep.decoded_members()?;
    for (key, req, got) in &report.warm {
        let want = Deployment::direct_forecast(&members[dep.keys[*key].artifact], req)?;
        if !bits_equal(got, &want) {
            return Err(format!(
                "warm-up forecast for {}/{} differs from the direct member fold",
                req.tenant, req.series
            ));
        }
    }
    Ok(())
}

/// Bit-for-bit equality of two forecasts.
pub fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
