//! # perf_ledger — the repository's benchmark
//!
//! One command times the system end to end and attributes the time to
//! its layers:
//!
//! ```text
//! cargo run --release --offline --manifest-path perf_ledger/Cargo.toml --bin perf_ledger -- \
//!     --workload train_flat|train_search|serve_hot|serve_cold|all \
//!     [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
//! ```
//!
//! It prints one `workload metric value unit` line per metric and, last,
//! one JSON line `{"correct", "attempted", "failed", "metrics"}`. `--out`
//! also writes a ledger record (medians, quartiles, sample counts and
//! the run's host metadata); `--workload all` runs each workload in a
//! child process of its own, so each reports its own peak memory, and
//! merges their entries into one record. Everything is measured from
//! outside: timed calls into the crates' public functions plus the spans
//! `ff-trace` already records. The benchmark is a package and workspace
//! of its own that builds the repository's crates from source.
//!
//! ## Set-up
//!
//! Every workload starts from the same deployment, and `setup_s` times
//! standing it up: a knowledge base of 16 synthetic datasets labelled at
//! 5, 10, 15 and 20 clients and its random-forest meta-model; three
//! pipeline-search runs (12 trials, checkpointing on) over
//! USBirthsDaily, nasdaq_Brazil_Saving_Deposits1 and Energy Select
//! Sector ETF at scale 0.15, each exported, sealed and reopened; every
//! key opened from the sealed bytes and published to a `ModelStore`
//! (64 tenants × 4 series, revive capacity 256; `serve_cold`: 256 × 4,
//! capacity 64); and one warm-up request per key through
//! `ServeRuntime`. The served models are trained on fixed data, so
//! every seed serves the same models.
//!
//! ## Workloads
//!
//! Load comes from this one process. ff-par runs `min(nproc, 4)`
//! workers. Serving is a closed loop: one caller thread sends calls of
//! 32 requests and waits for each.
//!
//! - `train_flat` — Algorithm 1 as in paper §5.2: a pass trains twelve
//!   federations (BOE-XUDLERD with 20 clients, USBirthsDaily with 5 and
//!   the 10-series Energy Select Sector ETF basket, each from four
//!   seeds) at scale 0.15 with the flat Table 2 search, the meta-model's
//!   recommendations, 16 trials and checkpointing with fsync. Client
//!   work dominates (`fl.round` is most of the traced self-time, feature
//!   engineering a large part of it); the surrogate is a few percent. A
//!   change to the federated rounds should move this workload; a change
//!   to Bayesian optimisation should leave it alone.
//! - `train_search` — pipeline search over all 7 builtin structures with
//!   the portfolio {Lasso} on nasdaq_Brazil_Saving_Deposits1 (812
//!   points, 5 clients, scale 1.0), 192 trials, checkpointing on. Client
//!   fits are cheap, so `gp.fit` and `gp.acquire` take most of the
//!   self-time: the workload for surrogate refit cost. It also makes 192
//!   fsync'd log appends per pass.
//! - `serve_hot` — the pool of 8192 requests, keys uniform over the 256
//!   published keys, horizons 1–8 inside each series' test region. After
//!   warm-up every lookup hits the revive cache, so time goes to
//!   admission, the batcher and member prediction; no decode runs.
//! - `serve_cold` — the same artifacts on 1024 keys with a revive
//!   capacity of 64, keys drawn from a seeded Zipf(1.0), and one
//!   hot-swap (open a sealed artifact, publish it) every 8 calls on the
//!   caller thread. The working set is 16× the cache, so misses run
//!   `Ensemble::decode` and writes sit beside reads. `serve_hot` is its
//!   bypass: a decode or store change should move `serve_cold` and leave
//!   `serve_hot` alone.
//!
//! `--seed` makes the inputs: the train workloads' federations (seeds
//! `seed·1000 + j`, also the engine seeds), the serve workloads' request
//! pool and swap keys. The same seed gives the same inputs. Develop on
//! seeds 0–9 and confirm a claim on the held-out seed 99.
//!
//! ## Correctness gates
//!
//! A run prints no metric unless every gate passed; a failed gate ends
//! it with exit status 1. Every warm-up response and every served
//! response is bit-equal to the forecast folded directly from the
//! artifact's member blobs with `decode_member_blob`, computed before
//! timing. Every train pass — untraced repeats and the traced pass —
//! reproduces the first pass's `run_fingerprint` of every engine run.
//! Checkpointing fsyncs every record throughout.
//!
//! ## End-to-end metrics (`--trace 0`)
//!
//! | metric | what |
//! |---|---|
//! | `setup_s` | median of 5 set-ups |
//! | `run_s` | 10th percentile of the measured pass times: a train pass is the summed wall time of its engine runs, a serve pass that of its calls and swaps over the request pool |
//! | `rel_mse` | geometric mean over the pass's federations (train) or served artifacts (serve) of the forecast MSE over the naive last-value forecast's MSE on the same test points |
//! | `peak_rss_mb` | the process's `VmHWM` |
//!
//! Failed trials and refused requests are the result line's `failed`
//! out of `attempted`. Times are in reference-host seconds: this shared
//! host's speed moves by up to 1.6× over minutes as neighbours come and
//! go, so every run times a fixed kernel (the [`Probe`]) between the
//! operations of its passes and scales `setup_s` and `run_s` by the
//! reference over the probe's 10th percentile. Measured on this host
//! against raw wall time, the scaled fast decile cut the drift between
//! two back-to-back sets of ten seeded runs from 21–35% to 4–11%.
//!
//! ## Per-layer metrics (`--trace 1`)
//!
//! A traced run stands the deployment up once with tracing on
//! (`TraceConfig::enabled().with_profile()` on the engine,
//! `Tracer::enabled()` on `ServeRuntime`), measures untraced passes for
//! `--seconds`, then runs one traced pass. Each layer is read where the
//! workload exercises it: the traced pass if it runs the layer, else
//! the traced set-up (serve passes run no engine; train passes serve
//! nothing). Each metric and the end-to-end metric it should move:
//!
//! | metrics | layer | should move |
//! |---|---|---|
//! | `metalearn.kb_build_s`, `metalearn.train_s` | ff-metalearn (set-up, timed per call) | `setup_s`, all workloads |
//! | `setup.artifacts_s` | engine + ff-serve sealing in set-up | `setup_s`, all workloads |
//! | `phase.*_ms` | engine phases (span wall time) | `run_s` on the train workloads |
//! | `fl.round.self_ms`, `fl.round.fe_self_ms`, `fl.round.opt_self_ms`, `fl.round.share_pct`, `fl.rounds`, `fl.bytes` | ff-fl rounds: self-time overall, in feature engineering, in optimisation; share of traced self-time; round count; client↔server bytes | `run_s`, mostly on `train_flat` |
//! | `gp.fit.self_ms`, `gp.fit.calls`, `gp.fit.tail_us`, `gp.acquire.self_ms`, `gp.share_pct` | ff-bayesopt and ff-linalg: fit self-time, fit count, mean of the last 16 fits, acquisition self-time, their share | `run_s` on `train_search`; no change predicted on `train_flat` |
//! | `trial.self_ms`, `ckpt.wal_bytes` | the trial loop and ff-ckpt | `run_s` on `train_search` |
//! | `par.tasks`, `par.idle_ms` | ff-par tasks and worker tail-idle time in the traced pass | `run_s` on the train workloads |
//! | `store.hit_ratio`, `store.decode_us`, `store.publish_us` | ff-serve store: revive-cache hits per lookup in the measured passes, `Ensemble::decode` timed directly on each artifact, open-and-publish per key | `run_s` on `serve_cold`; no change predicted on `serve_hot` |
//! | `batch.request_us_mean`, `serve.call_p50_us`, `serve.call_p99_us`, `serve.forecasts_per_s` | ff-serve batcher and front door: mean request latency from the `serve.latency_us` histogram, per-call latency and throughput of the measured passes | `run_s` on `serve_hot` |
//! | `trace.overhead_pct`, `expo.scrape_us_p50` | ff-trace: traced pass over the untraced median; `/metrics` scrape latency | not gated |
//!
//! Per-layer times are raw wall-clock. The request-latency histogram's
//! quantiles are bucket midpoints that repeat run after run, hence its
//! exact mean instead.
//!
//! ## Reading the per-layer table
//!
//! A traced run also prints `Profile::render_table` for every engine run
//! of the traced pass (serve workloads: for the traced serving runtime).
//! A row aggregates every span with one name inside one phase: `self`
//! is the time the spans spent outside their direct children, `total`
//! includes the children, `self%` is the row's share of all self-time;
//! rows are sorted by self-time, so the top rows are where the pass
//! went. The last line is the critical path, the chain of heaviest
//! spans. With `--out FILE` the pass's folded stacks (flamegraph input)
//! are written beside it as `FILE-stem.<workload>.folded`.
//!
//! ## Comparing two commits
//!
//! Build and run both commits on one host with the same seed, then
//! compare the records:
//!
//! ```text
//! cargo run --release --offline --manifest-path perf_ledger/Cargo.toml --bin perf_ledger -- \
//!     --workload all --seed 0 --out base.json      # on the parent
//! cargo run --release --offline --manifest-path perf_ledger/Cargo.toml --bin perf_ledger -- \
//!     --workload all --seed 0 --out head.json      # on the change
//! cargo run --release --offline --manifest-path perf_ledger/Cargo.toml --bin ledger_compare -- \
//!     --base base.json --head head.json
//! ```
//!
//! `ledger_compare` reads each metric's direction and bound from
//! `BENCHMARK.json` (a metric it does not list: lower is better for
//! `*_s`, `*_ms`, `*_us`, `*_mb`, `failed_frac`, `bytes_per_run`,
//! `test_mse_geo` and `rel_mse`) and prints one row per workload ×
//! metric: `better` or `WORSE` past the bound, `same` within it,
//! `unresolved` when either side's quartile spread exceeds the bound,
//! `info` for unbounded per-layer metrics, and `NO BASELINE` for a
//! workload or metric the base lacks. It exits 1 on a worse row, a
//! missing baseline, a metric the head dropped, or records from
//! different hosts (`host_cpus`, `par_workers`, `FF_THREADS`). One pair
//! of records is a first look, not a claim: a claimed gain needs ten or
//! more alternating pairs of runs on both commits.
#![warn(missing_docs)]

pub mod compare;
pub mod deploy;
pub mod json;
pub mod layers;
pub mod workloads;

use fedforecaster::RunTelemetry;
use ff_trace::{push_json_f64, push_json_str};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// A named measurement: its reported value with the samples' quartiles.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The reported value: the samples' median unless the metric's
    /// documentation names another statistic.
    pub value: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

impl Metric {
    /// A single measured value.
    pub fn one(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// The median and quartiles of `samples` (NaN when empty).
    pub fn over(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
        let (q1, q3) = quartiles(samples);
        Metric {
            name,
            unit,
            value: median(samples),
            q1,
            q3,
            n: samples.len(),
        }
    }
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median (NaN when empty).
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the exclusive method of Python's
/// `statistics.quantiles(v, n=4)`; a single sample is its own quartiles.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let s = sorted(v);
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let q = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// The `q` quantile by nearest rank (NaN when empty).
pub fn percentile(v: &[f64], q: f64) -> f64 {
    let s = sorted(v);
    if s.is_empty() {
        return f64::NAN;
    }
    s[((q * s.len() as f64).ceil() as usize).clamp(1, s.len()) - 1]
}

/// The geometric mean of positive values (NaN when empty).
pub fn geo_mean(v: &[f64]) -> f64 {
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// The probe's time on the reference host: about its 10th percentile
/// on the 2-vCPU Intel Xeon VM the benchmark was calibrated on, where
/// the scaled times read close to plain wall seconds.
pub const PROBE_REFERENCE_S: f64 = 0.015;
/// The probe quantile times are scaled by: the host's fast state.
pub const PROBE_QUANTILE: f64 = 0.1;
/// Least time between two probes.
const PROBE_EVERY: Duration = Duration::from_millis(250);
/// Spawn-and-join rounds per probe, as ff-par spawns a pool per call.
const PROBE_ROUNDS: usize = 8;
/// Words of the probe's buffer (1 MiB), allocated once per run.
const PROBE_WORDS: usize = 1 << 17;

/// Host-speed probe. The shared host this benchmark runs on changes
/// speed by up to 1.6× over minutes as neighbours come and go, which
/// moves every wall-clock time together. The probe times a fixed kernel
/// between the operations of set-ups and passes — on the run's ff-par
/// worker count, threads spawned and joined in rounds, arithmetic plus
/// a sweep over a buffer — and scaling a time by `PROBE_REFERENCE_S`
/// over the probe's 10th percentile reports it in reference-host
/// seconds, which track the code rather than the neighbours.
#[derive(Debug)]
pub struct Probe {
    /// Every probe time taken, s.
    pub samples: Vec<f64>,
    last: Option<Instant>,
    /// Allocated once so probing churns no heap memory, which would
    /// show up in `peak_rss_mb`.
    buf: Vec<f64>,
}

impl Default for Probe {
    fn default() -> Probe {
        Probe {
            samples: Vec::new(),
            last: None,
            buf: vec![0.0; PROBE_WORDS],
        }
    }
}

impl Probe {
    /// Times the kernel unless the last probe was under 250 ms ago.
    pub fn tick(&mut self) {
        if self.last.is_some_and(|t| t.elapsed() < PROBE_EVERY) {
            return;
        }
        let part = PROBE_WORDS.div_ceil(ff_par::effective_threads().max(1));
        let t = Instant::now();
        for round in 0..PROBE_ROUNDS {
            std::thread::scope(|s| {
                for (k, words) in self.buf.chunks_mut(part).enumerate() {
                    s.spawn(move || {
                        let mut x = (round * 64 + k) as u64 + 1;
                        let mut acc = 0.0f64;
                        for i in 0..400_000u64 {
                            x = x
                                .wrapping_mul(6_364_136_223_846_793_005)
                                .wrapping_add(1_442_695_040_888_963_407);
                            acc += ((x >> 33) as f64).sqrt() * (i & 7) as f64;
                        }
                        for (i, w) in words.iter_mut().enumerate() {
                            *w = *w * 0.5 + (i as f64 * acc.fract()).sin();
                        }
                    });
                }
            });
        }
        std::hint::black_box(&self.buf);
        self.samples.push(t.elapsed().as_secs_f64());
        self.last = Some(Instant::now());
    }

    /// The `q` quantile of `samples` (seconds) in reference-host
    /// seconds: scaled, with its quartiles, by the reference over the
    /// probe's [`PROBE_QUANTILE`].
    pub fn time(&self, name: &'static str, samples: &[f64], q: f64) -> Metric {
        let k = PROBE_REFERENCE_S / percentile(&self.samples, PROBE_QUANTILE);
        let (q1, q3) = quartiles(samples);
        Metric {
            name,
            unit: "s",
            value: percentile(samples, q) * k,
            q1: q1 * k,
            q3: q3 * k,
            n: samples.len(),
        }
    }
}

/// What the engine runs of one phase (a pass, or the set-up) produced.
#[derive(Debug, Clone, Default)]
pub struct TrainSample {
    /// `run_fingerprint` of every run, in run order.
    pub fingerprints: Vec<u64>,
    /// Client↔server bytes.
    pub bytes: u64,
    /// Trials evaluated.
    pub trials: u64,
    /// Trials abandoned for an unmet quorum.
    pub failed_trials: u64,
    /// Checkpoint log bytes written.
    pub wal_bytes: u64,
    /// Telemetry of traced runs.
    pub telemetry: Vec<RunTelemetry>,
}

/// What the serve calls of one phase (the measured passes, or the
/// set-up) produced, timed from the caller.
#[derive(Debug, Clone, Default)]
pub struct ServeSample {
    /// Wall time of each `ServeRuntime::serve` call, µs.
    pub call_us: Vec<f64>,
    /// Requests sent.
    pub requests: u64,
    /// Requests refused with an error.
    pub failed: u64,
    /// Summed call wall time, s.
    pub busy_s: f64,
    /// Revive-cache hits.
    pub hits: u64,
    /// Revive-cache misses.
    pub misses: u64,
    /// Open-and-publish time of each deploy, µs.
    pub publish_us: Vec<f64>,
}

impl ServeSample {
    /// Records one serve call of `requests` requests taking `secs`.
    pub fn record_call(&mut self, secs: f64, requests: usize) {
        self.call_us.push(secs * 1e6);
        self.busy_s += secs;
        self.requests += requests as u64;
    }
}

/// The host a record was measured on. Records whose hosts differ are
/// never compared silently.
#[derive(Debug)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub cpus: usize,
    /// ff-par workers the run used: `min(cpus, 4)`.
    pub par_workers: usize,
    /// The `FF_THREADS` environment variable, when set.
    pub ff_threads: Option<String>,
    /// The checkout's git revision, or `unknown`.
    pub git_rev: String,
}

impl Host {
    /// Reads the current host.
    pub fn current() -> Host {
        let cpus = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Host {
            cpus,
            par_workers: cpus.min(4),
            ff_threads: std::env::var("FF_THREADS").ok(),
            git_rev: git_rev().unwrap_or_else(|| "unknown".into()),
        }
    }
}

/// The revision `.git/HEAD` names, read without running git.
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        l.strip_suffix(reference)?
            .strip_suffix(' ')
            .map(str::to_string)
    })
}

/// One workload's result: the gates' counts and its metrics.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Operations attempted: trials for training, requests for serving.
    pub attempted: u64,
    /// Operations that failed: abandoned trials, refused requests.
    pub failed: u64,
    /// The run's host-speed probe time, 10th percentile, ms (record
    /// only: it describes the host, not the system).
    pub probe_ms: f64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The final output line: `correct`, `attempted`,
    /// `failed` and every metric's value and unit. Only a run whose
    /// gates all passed produces an `Outcome`, so `correct` is true.
    pub fn result_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            push_json_str(&mut s, m.name);
            s.push_str(": {\"value\": ");
            push_json_f64(&mut s, m.value);
            s.push_str(", \"unit\": ");
            push_json_str(&mut s, m.unit);
            s.push('}');
        }
        s.push_str("}}");
        s
    }

    /// The workload's entry in a ledger record, with quartiles and
    /// sample counts.
    pub fn record_entry(&self) -> String {
        let mut s = String::new();
        push_json_str(&mut s, self.workload);
        let _ = write!(
            s,
            ": {{\"attempted\": {}, \"failed\": {}, \"probe_ms\": ",
            self.attempted, self.failed
        );
        push_json_f64(&mut s, self.probe_ms);
        s.push_str(", \"metrics\": {");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            push_json_str(&mut s, m.name);
            s.push_str(": {\"value\": ");
            push_json_f64(&mut s, m.value);
            s.push_str(", \"q1\": ");
            push_json_f64(&mut s, m.q1);
            s.push_str(", \"q3\": ");
            push_json_f64(&mut s, m.q3);
            let _ = write!(s, ", \"n\": {}, \"unit\": ", m.n);
            push_json_str(&mut s, m.unit);
            s.push('}');
        }
        s.push_str("}}");
        s
    }
}

/// A ledger record: run metadata plus one entry per workload.
pub fn record(host: &Host, seed: u64, seconds: f64, trace: bool, entries: &[String]) -> String {
    let mut s = String::from("{\n  \"bench\": \"perf_ledger\",\n");
    let _ = writeln!(s, "  \"seed\": {seed},");
    s.push_str("  \"seconds\": ");
    push_json_f64(&mut s, seconds);
    let _ = writeln!(s, ",\n  \"trace\": {},", u8::from(trace));
    let _ = writeln!(s, "  \"host_cpus\": {},", host.cpus);
    let _ = writeln!(s, "  \"par_workers\": {},", host.par_workers);
    s.push_str("  \"ff_threads\": ");
    match &host.ff_threads {
        Some(v) => push_json_str(&mut s, v),
        None => s.push_str("null"),
    }
    s.push_str(",\n  \"git_rev\": ");
    push_json_str(&mut s, &host.git_rev);
    s.push_str(",\n  \"workloads\": {\n    ");
    s.push_str(&entries.join(",\n    "));
    s.push_str("\n  }\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }

    #[test]
    fn result_line_has_the_documented_shape() {
        let o = Outcome {
            workload: "w",
            attempted: 3,
            failed: 0,
            probe_ms: 12.0,
            metrics: vec![Metric::one("run_s", "s", 0.25)],
        };
        let v = json::Json::parse(&o.result_line()).unwrap();
        assert_eq!(v.get("correct"), Some(&json::Json::Bool(true)));
        assert_eq!(v.get("attempted").and_then(json::Json::num), Some(3.0));
        let m = v.get("metrics").and_then(|m| m.get("run_s")).unwrap();
        assert_eq!(m.get("value").and_then(json::Json::num), Some(0.25));
        assert_eq!(m.get("unit").and_then(json::Json::str), Some("s"));
    }
}
