//! The four workloads: how each makes its inputs from the seed, what
//! one measured pass is, and the correctness gates every pass passes.

use crate::deploy::{self, Deployment, Layout, Scratch, SetupReport, CALL_BATCH};
use crate::layers::{self, TracedPass};
use crate::{
    geo_mean, median, percentile, Metric, Outcome, Probe, ServeSample, TrainSample, PROBE_QUANTILE,
};
use fedforecaster::prelude::AlgorithmKind;
use ff_models::pipeline::PipelineId;
use ff_serve::{PredictRequest, ServeConfig, ServeRuntime};
use ff_timeseries::TimeSeries;
use ff_trace::{Profile, Tracer};
use std::sync::Arc;
use std::time::Instant;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Algorithm 1 with the flat Table 2 search over three simulators.
    TrainFlat,
    /// Many-trial pipeline search on one small federation.
    TrainSearch,
    /// Cached serving: every key fits the revive cache.
    ServeHot,
    /// Uncached serving with hot-swaps: 16× more keys than the cache.
    ServeCold,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::TrainFlat,
        Workload::TrainSearch,
        Workload::ServeHot,
        Workload::ServeCold,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainFlat => "train_flat",
            Workload::TrainSearch => "train_search",
            Workload::ServeHot => "serve_hot",
            Workload::ServeCold => "serve_cold",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn layout(self) -> Layout {
        match self {
            Workload::ServeCold => Layout {
                tenants: 256,
                series_per_tenant: 4,
                revive_capacity: 64,
            },
            _ => Layout {
                tenants: 64,
                series_per_tenant: 4,
                revive_capacity: 256,
            },
        }
    }
}

/// Problem sizes; [`FULL`] is the benchmark, [`SMOKE`] a seconds-long
/// check that every metric is produced.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Synthetic knowledge-base datasets.
    pub kb_datasets: usize,
    /// Client counts each KB dataset is labelled at.
    pub kb_clients: &'static [usize],
    /// Trials of each served artifact's pipeline search.
    pub artifact_trials: usize,
    /// Simulator scale of the served artifacts' federations.
    pub artifact_scale: f64,
    /// Trials of each `train_flat` engine run.
    pub flat_trials: usize,
    /// Simulator scale of `train_flat`'s federations.
    pub flat_scale: f64,
    /// Seeded federations per dataset in one `train_flat` pass.
    pub flat_seeds: u64,
    /// Trials of each `train_search` run.
    pub search_trials: usize,
    /// Requests in a serve workload's pool (one pass).
    pub pool: usize,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setup_repeats: usize,
}

/// The benchmark's sizes.
pub const FULL: Sizes = Sizes {
    kb_datasets: 16,
    kb_clients: &[5, 10, 15, 20],
    artifact_trials: 12,
    artifact_scale: 0.15,
    flat_trials: 16,
    flat_scale: 0.15,
    flat_seeds: 4,
    search_trials: 192,
    pool: 8192,
    setup_repeats: 5,
};

/// Tiny sizes for the smoke test.
pub const SMOKE: Sizes = Sizes {
    kb_datasets: 4,
    kb_clients: &[5],
    // Enough trials past the warm starts that every run fits the GP.
    artifact_trials: 11,
    artifact_scale: 0.05,
    flat_trials: 8,
    flat_scale: 0.05,
    flat_seeds: 1,
    search_trials: 10,
    pool: 256,
    setup_repeats: 2,
};

/// `train_flat`'s simulators: paper §5.2 datasets with 20, 5 and 10
/// clients, one of them a per-client-series basket.
const FLAT_DATASETS: [&str; 3] = ["BOE-XUDLERD", "USBirthsDaily", "Energy Select Sector ETF"];
/// `train_search`'s federation: 812 points over 5 clients, cheap enough
/// per trial that the surrogate dominates.
const SEARCH_DATASET: &str = "nasdaq_Brazil_Saving_Deposits1";
/// `serve_cold` re-publishes one key every this many calls.
const SWAP_EVERY: u64 = 8;
/// Largest forecast horizon a request asks for.
const MAX_HORIZON: usize = 8;
/// Fewest measured passes, however long they take.
const MIN_PASSES: usize = 3;
/// `run_s` is this quantile of the pass times.
const RUN_QUANTILE: f64 = 0.1;

/// How one run measures.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Report per-layer metrics from a traced pass instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Use [`SMOKE`] sizes.
    pub smoke: bool,
}

/// A finished run.
pub struct Report {
    /// Counts and metrics.
    pub outcome: Outcome,
    /// The traced pass's self-time tables (traced runs).
    pub profile_table: String,
    /// The traced pass's folded stacks (traced runs).
    pub folded: String,
}

/// What the measured passes produced.
struct Measured {
    /// Wall time of each pass.
    pass_s: Vec<f64>,
    rel_mse: f64,
    attempted: u64,
    failed: u64,
    serve: Option<ServeSample>,
}

/// What the traced pass produced.
struct Traced {
    wall_s: f64,
    engine: Option<TrainSample>,
    serve_tracer: Option<Tracer>,
    par_tasks: u64,
    par_idle_us: u64,
}

/// Runs one workload. An `Err` is a failed gate or a failed operation;
/// the caller prints no metric for it.
pub fn run(w: Workload, opts: &Opts) -> Result<Report, String> {
    let sizes = if opts.smoke { &SMOKE } else { &FULL };
    let scratch = Scratch::create()?;
    let mut probe = Probe::default();
    let repeats = if opts.trace { 1 } else { sizes.setup_repeats };
    let mut setup_s = Vec::with_capacity(repeats);
    let mut stood_up: Option<(Deployment, SetupReport)> = None;
    for _ in 0..repeats {
        // Free the previous deployment before standing up the next.
        drop(stood_up.take());
        probe.tick();
        let (dep, report) = deploy::setup(w.layout(), sizes, &scratch, opts.trace)?;
        setup_s.push(report.total_s);
        stood_up = Some((dep, report));
    }
    let (dep, setup) = stood_up.ok_or("no set-up ran")?;
    deploy::verify_warmup(&dep, &setup)?;

    let (measured, traced) = match w {
        Workload::TrainFlat | Workload::TrainSearch => {
            train(w, &dep, sizes, opts, &scratch, &mut probe)?
        }
        Workload::ServeHot | Workload::ServeCold => serve(w, &dep, sizes, opts, &mut probe)?,
    };

    let mut report = Report {
        outcome: Outcome {
            workload: w.name(),
            attempted: measured.attempted,
            failed: measured.failed,
            probe_ms: percentile(&probe.samples, PROBE_QUANTILE) * 1e3,
            metrics: Vec::new(),
        },
        profile_table: String::new(),
        folded: String::new(),
    };
    match traced {
        None => {
            report.outcome.metrics = vec![
                probe.time("setup_s", &setup_s, 0.5),
                probe.time("run_s", &measured.pass_s, RUN_QUANTILE),
                Metric::one("rel_mse", "ratio", measured.rel_mse),
                Metric::one("peak_rss_mb", "MB", peak_rss_mb()?),
            ];
        }
        Some(t) => {
            let overhead_pct = (t.wall_s / median(&measured.pass_s) - 1.0) * 100.0;
            report.outcome.metrics = layers::per_layer(
                &setup,
                &TracedPass {
                    engine: t.engine.as_ref(),
                    serve: measured.serve.as_ref(),
                    serve_tracer: t.serve_tracer.as_ref(),
                    par_tasks: t.par_tasks,
                    par_idle_us: t.par_idle_us,
                    overhead_pct,
                },
            )?;
            if let Some(engine) = &t.engine {
                for tel in &engine.telemetry {
                    if let Some(p) = &tel.profile {
                        report.profile_table.push_str(&p.render_table(12));
                    }
                    report.folded.push_str(&tel.folded_stacks());
                }
            }
            if let Some(tracer) = &t.serve_tracer {
                let snapshot = tracer.snapshot();
                report
                    .profile_table
                    .push_str(&Profile::build(&snapshot).render_table(12));
                report.folded.push_str(&ff_trace::folded_stacks(&snapshot));
            }
        }
    }
    Ok(report)
}

/// Runs passes until `seconds` have elapsed and at least
/// [`MIN_PASSES`] ran; returns each pass's time.
fn measure_passes(
    seconds: f64,
    mut pass: impl FnMut() -> Result<f64, String>,
) -> Result<Vec<f64>, String> {
    let started = Instant::now();
    let mut times = Vec::new();
    while times.len() < MIN_PASSES || started.elapsed().as_secs_f64() < seconds {
        times.push(pass()?);
    }
    Ok(times)
}

/// The train workloads. A pass trains one federation per dataset for
/// each of the seeds `seed·1000 + j` (the engine seed too), the same
/// federations every pass; its time is the sum of its engine runs, with
/// the host probe between them.
fn train(
    w: Workload,
    dep: &Deployment,
    sizes: &Sizes,
    opts: &Opts,
    scratch: &Scratch,
    probe: &mut Probe,
) -> Result<(Measured, Option<Traced>), String> {
    let (datasets, scale, trials, seeds, pipelines, portfolio) = match w {
        Workload::TrainFlat => (
            &FLAT_DATASETS[..],
            sizes.flat_scale,
            sizes.flat_trials,
            sizes.flat_seeds,
            None,
            None,
        ),
        _ => (
            &[SEARCH_DATASET][..],
            1.0,
            sizes.search_trials,
            1,
            Some(PipelineId::builtin().to_vec()),
            Some(vec![AlgorithmKind::LASSO]),
        ),
    };
    let all = ff_datasets::benchmark_datasets();
    let mut feds: Vec<(u64, Vec<TimeSeries>)> = Vec::new();
    for j in 0..seeds {
        let sub = opts.seed.wrapping_mul(1000).wrapping_add(j);
        for name in datasets {
            let ds = all
                .iter()
                .find(|d| d.name == *name)
                .ok_or_else(|| format!("unknown dataset {name}"))?;
            feds.push((sub, ds.generate_federation(sub, scale)));
        }
    }
    let pass = |traced: bool,
                sample: &mut TrainSample,
                probe: &mut Probe|
     -> Result<(f64, Vec<f64>), String> {
        let mut busy = 0.0;
        let mut mse = Vec::with_capacity(feds.len());
        for (sub, clients) in &feds {
            let cfg = deploy::engine_config(
                trials,
                *sub,
                pipelines.clone(),
                portfolio.clone(),
                &scratch.wal(),
                traced,
            );
            probe.tick();
            let t = Instant::now();
            mse.push(deploy::train(&dep.meta, clients, cfg, sample)?.test_mse);
            busy += t.elapsed().as_secs_f64();
        }
        Ok((busy, mse))
    };

    // The first pass fixes the reference fingerprints and the forecast
    // quality; every later pass must reproduce them bit for bit. It is
    // measured too: the fast-decile statistic ignores its cold start.
    let mut first = TrainSample::default();
    let (first_s, mse) = pass(false, &mut first, probe)?;
    let mut attempted = first.trials;
    let mut failed = first.failed_trials;
    let rel: Vec<f64> = feds
        .iter()
        .zip(&mse)
        .map(|((_, clients), m)| {
            let (sse, n) = deploy::naive_sse(clients);
            m / (sse / n as f64)
        })
        .collect();
    let gate = |sample: &TrainSample| -> Result<(), String> {
        if sample.fingerprints == first.fingerprints {
            Ok(())
        } else {
            Err(format!(
                "run fingerprints {:x?} differ from the first pass's {:x?}",
                sample.fingerprints, first.fingerprints
            ))
        }
    };
    let mut pass_s = vec![first_s];
    pass_s.extend(measure_passes(opts.seconds - first_s, || {
        let mut s = TrainSample::default();
        let (busy, _) = pass(false, &mut s, probe)?;
        gate(&s)?;
        attempted += s.trials;
        failed += s.failed_trials;
        Ok(busy)
    })?);

    let traced = if opts.trace {
        let par0 = ff_par::stats();
        let mut s = TrainSample::default();
        let (wall_s, _) = pass(true, &mut s, probe)?;
        let par1 = ff_par::stats();
        gate(&s)?;
        Some(Traced {
            wall_s,
            engine: Some(s),
            serve_tracer: None,
            par_tasks: par1.tasks - par0.tasks,
            par_idle_us: par1.idle_us - par0.idle_us,
        })
    } else {
        None
    };
    Ok((
        Measured {
            pass_s,
            rel_mse: geo_mean(&rel),
            attempted,
            failed,
            serve: None,
        },
        traced,
    ))
}

/// A seeded SplitMix64 stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Key popularity: uniform for `serve_hot`; Zipf(1.0) over a seeded
/// permutation of the keys for `serve_cold`.
struct Popularity {
    cdf: Vec<f64>,
    keys: Vec<usize>,
}

impl Popularity {
    fn new(w: Workload, n: usize, rng: &mut Rng) -> Popularity {
        let mut keys: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            keys.swap(i, rng.below(i + 1));
        }
        let mut acc = 0.0;
        let cdf = (0..n)
            .map(|r| {
                acc += match w {
                    Workload::ServeCold => 1.0 / (r + 1) as f64,
                    _ => 1.0,
                };
                acc
            })
            .collect();
        Popularity { cdf, keys }
    }

    fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit() * self.cdf[self.cdf.len() - 1];
        let rank = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.keys.len() - 1);
        self.keys[rank]
    }
}

/// The serve workloads. The seed draws a pool of requests — key by
/// popularity, horizon 1..=8, window inside the series' test region —
/// and `serve_cold`'s hot-swap keys; a pass sends the pool once, in
/// closed-loop calls of 32.
fn serve(
    w: Workload,
    dep: &Deployment,
    sizes: &Sizes,
    opts: &Opts,
    probe: &mut Probe,
) -> Result<(Measured, Option<Traced>), String> {
    let mut rng = Rng(opts.seed);
    let popularity = Popularity::new(w, dep.keys.len(), &mut rng);
    let mut pool_keys = Vec::with_capacity(sizes.pool);
    let pool: Vec<PredictRequest> = (0..sizes.pool)
        .map(|_| {
            let key = popularity.sample(&mut rng);
            let k = &dep.keys[key];
            let n = dep.served[k.artifact].series[k.client].len();
            let first = deploy::test_start(n);
            let horizon = (1 + rng.below(MAX_HORIZON)).min(n - first);
            let start = first + rng.below(n - first - horizon + 1);
            pool_keys.push(key);
            dep.request(key, start, start + horizon)
        })
        .collect();
    let swaps: Vec<usize> = (0..sizes.pool)
        .map(|_| popularity.sample(&mut rng))
        .collect();

    // Expected answers, folded directly from the member blobs before any
    // timing; the pool's forecast quality against the naive forecast.
    let members = dep.decoded_members()?;
    let mut expected = Vec::with_capacity(pool.len());
    let mut sse = vec![(0.0, 0.0); dep.served.len()];
    for (req, &key) in pool.iter().zip(&pool_keys) {
        let a = dep.keys[key].artifact;
        let f = Deployment::direct_forecast(&members[a], req)?;
        for (t, p) in (req.start..req.end).zip(&f) {
            let y = req.values[t];
            sse[a].0 += (p - y) * (p - y);
            sse[a].1 += (req.values[t - 1] - y) * (req.values[t - 1] - y);
        }
        expected.push(f);
    }
    let rel: Vec<f64> = sse
        .iter()
        .filter(|(_, naive)| *naive > 0.0)
        .map(|(model, naive)| model / naive)
        .collect();

    let mut calls = 0u64;
    let mut pass =
        |rt: &ServeRuntime, sample: &mut ServeSample, probe: &mut Probe| -> Result<f64, String> {
            let mut busy = 0.0;
            for (c, call) in pool.chunks(CALL_BATCH).enumerate() {
                probe.tick();
                calls += 1;
                if w == Workload::ServeCold && calls.is_multiple_of(SWAP_EVERY) {
                    let key = swaps[(calls / SWAP_EVERY) as usize % swaps.len()];
                    let t = Instant::now();
                    dep.publish(key)?;
                    let dt = t.elapsed().as_secs_f64();
                    sample.publish_us.push(dt * 1e6);
                    busy += dt;
                }
                let t = Instant::now();
                let results = rt.serve(call);
                let dt = t.elapsed().as_secs_f64();
                sample.record_call(dt, call.len());
                busy += dt;
                for (i, res) in results.iter().enumerate() {
                    let want = &expected[c * CALL_BATCH + i];
                    match res {
                        Ok(got) if deploy::bits_equal(got, want) => {}
                        Ok(_) => {
                            return Err(format!(
                                "served forecast for {}/{} differs from the direct member fold",
                                call[i].tenant, call[i].series
                            ))
                        }
                        Err(_) => sample.failed += 1,
                    }
                }
            }
            Ok(busy)
        };

    let rt = ServeRuntime::new(Arc::clone(&dep.store), ServeConfig::default());
    // One unmeasured pass fills the revive cache.
    pass(&rt, &mut ServeSample::default(), probe)?;
    let mut sample = ServeSample::default();
    let (hits0, misses0) = dep.store.cache_stats();
    let pass_s = measure_passes(opts.seconds, || pass(&rt, &mut sample, probe))?;
    let (hits1, misses1) = dep.store.cache_stats();
    sample.hits = hits1 - hits0;
    sample.misses = misses1 - misses0;

    let traced = if opts.trace {
        let tracer = Tracer::enabled();
        let traced_rt = ServeRuntime::new(Arc::clone(&dep.store), ServeConfig::default())
            .with_tracer(tracer.clone());
        let par0 = ff_par::stats();
        let wall_s = pass(&traced_rt, &mut ServeSample::default(), probe)?;
        let par1 = ff_par::stats();
        Some(Traced {
            wall_s,
            engine: None,
            serve_tracer: Some(tracer),
            par_tasks: par1.tasks - par0.tasks,
            par_idle_us: par1.idle_us - par0.idle_us,
        })
    } else {
        None
    };
    Ok((
        Measured {
            pass_s,
            rel_mse: geo_mean(&rel),
            attempted: sample.requests,
            failed: sample.failed,
            serve: Some(sample),
        },
        traced,
    ))
}

/// Peak resident set size (`VmHWM`) in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}
