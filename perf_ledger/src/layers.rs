//! Per-layer metrics of a traced run. Each layer is read where the
//! workload exercises it: the traced pass when the pass runs the layer,
//! otherwise the traced set-up (the serve workloads' passes run no
//! engine; the train workloads' passes serve nothing).

use crate::deploy::SetupReport;
use crate::{percentile, Metric, ServeSample, TrainSample};
use ff_trace::{ExpoConfig, ExpoServer, Profile, Tracer};
use std::io::{Read as _, Write as _};
use std::time::Instant;

/// `/metrics` scrapes timed for `expo.scrape_us_p50`.
const SCRAPES: usize = 16;
/// `gp.fit.tail_us` is the mean of this many last fits.
const GP_TAIL: usize = 16;

/// What the traced pass measured, beside the set-up.
pub struct TracedPass<'a> {
    /// The pass's engine runs (train workloads).
    pub engine: Option<&'a TrainSample>,
    /// The measured passes' serve calls (serve workloads).
    pub serve: Option<&'a ServeSample>,
    /// The traced pass's serving runtime tracer (serve workloads).
    pub serve_tracer: Option<&'a Tracer>,
    /// ff-par tasks run during the traced pass.
    pub par_tasks: u64,
    /// ff-par worker tail-idle time during the traced pass, µs.
    pub par_idle_us: u64,
    /// Traced pass wall time over the untraced median, minus one, in %.
    pub overhead_pct: f64,
}

/// Sums of the profile rows named `name` (optionally within `phase`).
fn rows(profiles: &[&Profile], name: &str, phase: Option<&str>) -> (u64, u64, usize) {
    let mut self_us = 0;
    let mut total_us = 0;
    let mut calls = 0;
    for p in profiles {
        for r in &p.rows {
            if r.name == name && phase.is_none_or(|ph| r.phase == ph) {
                self_us += r.self_us;
                total_us += r.total_us;
                calls += r.calls;
            }
        }
    }
    (self_us, total_us, calls)
}

fn ms(us: u64) -> f64 {
    us as f64 / 1e3
}

/// Every per-layer metric `BENCHMARK.json` lists, in its order.
pub fn per_layer(setup: &SetupReport, pass: &TracedPass) -> Result<Vec<Metric>, String> {
    let engine = pass.engine.unwrap_or(&setup.engine);
    let profiles: Vec<&Profile> = engine
        .telemetry
        .iter()
        .map(|t| t.profile.as_ref().ok_or("traced run without a profile"))
        .collect::<Result<_, _>>()?;
    if profiles.is_empty() {
        return Err("no traced engine run to attribute".into());
    }
    let total_self = profiles
        .iter()
        .map(|p| p.total_self_us())
        .sum::<u64>()
        .max(1);
    let (fl_self, _, fl_calls) = rows(&profiles, "fl.round", None);
    let (fit_self, _, fit_calls) = rows(&profiles, "gp.fit", None);
    let (acq_self, _, _) = rows(&profiles, "gp.acquire", None);
    let phase_ms = |name: &str| ms(rows(&profiles, name, None).1);
    let fl_in = |phase: &str| ms(rows(&profiles, "fl.round", Some(phase)).0);
    // The run with the most fits shows the per-fit cost at its largest
    // observation count.
    let tail = engine
        .telemetry
        .iter()
        .map(|t| t.trace.durations_us("gp.fit"))
        .max_by_key(Vec::len)
        .unwrap_or_default();
    let tail = &tail[tail.len().saturating_sub(GP_TAIL)..];
    let tail_mean = tail.iter().sum::<u64>() as f64 / tail.len() as f64;

    let serve = pass.serve.unwrap_or(&setup.serve);
    let publishes = if serve.publish_us.is_empty() {
        &setup.serve.publish_us
    } else {
        &serve.publish_us
    };
    let lookups = serve.hits + serve.misses;
    let tracer = pass.serve_tracer.unwrap_or(&setup.tracer);
    let snapshot = tracer.snapshot();
    // The histogram's quantiles are bucket midpoints that repeat run
    // after run; its mean is exact.
    let request_mean = snapshot
        .histogram_merged("serve.latency_us")
        .and_then(|h| h.mean())
        .ok_or("the traced serving runtime recorded no request latency")?;

    Ok(vec![
        Metric::one("metalearn.kb_build_s", "s", setup.kb_build_s),
        Metric::one("metalearn.train_s", "s", setup.meta_train_s),
        Metric::one("setup.artifacts_s", "s", setup.artifacts_s),
        Metric::one(
            "phase.meta_features_ms",
            "ms",
            phase_ms("phase.meta_features"),
        ),
        Metric::one(
            "phase.feature_engineering_ms",
            "ms",
            phase_ms("phase.feature_engineering"),
        ),
        Metric::one(
            "phase.optimization_ms",
            "ms",
            phase_ms("phase.optimization"),
        ),
        Metric::one(
            "phase.finalization_ms",
            "ms",
            phase_ms("phase.finalization"),
        ),
        Metric::one("fl.round.self_ms", "ms", ms(fl_self)),
        Metric::one(
            "fl.round.fe_self_ms",
            "ms",
            fl_in("phase.feature_engineering"),
        ),
        Metric::one("fl.round.opt_self_ms", "ms", fl_in("phase.optimization")),
        Metric::one(
            "fl.round.share_pct",
            "%",
            fl_self as f64 * 100.0 / total_self as f64,
        ),
        Metric::one("fl.rounds", "count", fl_calls as f64),
        Metric::one("fl.bytes", "count", engine.bytes as f64),
        Metric::one("gp.fit.self_ms", "ms", ms(fit_self)),
        Metric::one("gp.fit.calls", "count", fit_calls as f64),
        Metric::one("gp.fit.tail_us", "us", tail_mean),
        Metric::one("gp.acquire.self_ms", "ms", ms(acq_self)),
        Metric::one(
            "gp.share_pct",
            "%",
            (fit_self + acq_self) as f64 * 100.0 / total_self as f64,
        ),
        Metric::one("trial.self_ms", "ms", ms(rows(&profiles, "trial", None).0)),
        Metric::one("ckpt.wal_bytes", "count", engine.wal_bytes as f64),
        Metric::one("par.tasks", "count", pass.par_tasks as f64),
        Metric::one("par.idle_ms", "ms", pass.par_idle_us as f64 / 1e3),
        Metric::one(
            "store.hit_ratio",
            "ratio",
            if lookups == 0 {
                0.0
            } else {
                serve.hits as f64 / lookups as f64
            },
        ),
        Metric::over("store.decode_us", "us", &setup.decode_us),
        Metric::over("store.publish_us", "us", publishes),
        Metric::one("batch.request_us_mean", "us", request_mean),
        Metric::over("serve.call_p50_us", "us", &serve.call_us),
        Metric::one("serve.call_p99_us", "us", percentile(&serve.call_us, 0.99)),
        Metric::one(
            "serve.forecasts_per_s",
            "1/s",
            serve.requests as f64 / serve.busy_s,
        ),
        Metric::one("trace.overhead_pct", "%", pass.overhead_pct),
        Metric::over("expo.scrape_us_p50", "us", &scrape_us(tracer)?),
    ])
}

/// Times `/metrics` scrapes of an exposition endpoint over `tracer`.
fn scrape_us(tracer: &Tracer) -> Result<Vec<f64>, String> {
    let server = ExpoServer::start(tracer.clone(), ExpoConfig::default())
        .map_err(|e| format!("exposition endpoint: {e}"))?;
    let addr = server.addr();
    let mut out = Vec::with_capacity(SCRAPES);
    for _ in 0..SCRAPES {
        let t = Instant::now();
        let mut s = std::net::TcpStream::connect(addr).map_err(|e| format!("scrape: {e}"))?;
        write!(s, "GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n")
            .map_err(|e| format!("scrape: {e}"))?;
        let mut body = String::new();
        s.read_to_string(&mut body)
            .map_err(|e| format!("scrape: {e}"))?;
        out.push(t.elapsed().as_secs_f64() * 1e6);
        if !body.starts_with("HTTP/1.") || !body.contains(" 200 ") {
            return Err(format!(
                "scrape answered {:?}",
                body.lines().next().unwrap_or("")
            ));
        }
    }
    drop(server);
    Ok(out)
}
