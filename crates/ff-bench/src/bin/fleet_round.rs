//! **Fleet round benchmark** — rounds/sec and peak memory for the
//! runtime's fold rounds across fleet sizes {100, 1k, 10k} ×
//! participation {1%, 10%}, at one ff-par worker vs `--threads`, written
//! to `BENCH_pr6.json`. Every configuration runs the same chaotic fleet
//! (1% Byzantine + 2% flaky links via [`ChaosConfig::fleet_profile`])
//! under coordinate-median aggregation, so the numbers include the full
//! screen → fold → merge → health pipeline, not a happy-path broadcast.
//!
//! ```text
//! cargo run -p ff-bench --release --bin fleet_round -- \
//!     [--threads 4] [--rounds 10] [--dim 64] [--out BENCH_pr6.json] \
//!     [--assert-rss-mb 512]
//! ```
//!
//! Two memory columns are reported: `agg_peak_bytes` is the runtime's
//! own high-water mark of live aggregation state (the O(model × hosts)
//! contract, measured exactly), and `rss_hwm_mb` is the process-wide
//! `VmHWM` after the run — monotone across configurations by nature, so
//! only the final value (and the `--assert-rss-mb` ceiling CI applies to
//! it) is meaningful in absolute terms.

use ff_bench::{rss_hwm_mb, Args, UnitClient};
use ff_fl::chaos::{ChaosClient, ChaosConfig};
use ff_fl::client::FlClient;
use ff_fl::config::ConfigMap;
use ff_fl::log::Retention;
use ff_fl::robust::{AggregationStrategy, GuardPolicy};
use ff_fl::runtime::{FederatedRuntime, RoundPolicy};
use ff_trace::push_json_f64;
use std::fmt::Write as _;
use std::time::Instant;

fn build_fleet(n: usize, dim: usize, fraction: f64) -> FederatedRuntime {
    let clients: Vec<Box<dyn FlClient>> = (0..n)
        .map(|id| {
            let profile = ChaosConfig::fleet_profile(0, id, 0.01, 0.02);
            Box::new(ChaosClient::new(Box::new(UnitClient(dim)), profile)) as Box<dyn FlClient>
        })
        .collect();
    let fleet = FederatedRuntime::new(clients)
        .with_cohort(fraction, 42)
        .and_then(|rt| {
            rt.with_strategy(
                AggregationStrategy::CoordinateMedian,
                GuardPolicy::default(),
            )
        })
        .expect("fleet construction");
    // Byte totals only: retained payloads serve leak checks, not fleets.
    fleet.log().set_retention(Retention::Counting { window: 0 });
    fleet
}

/// Runs `rounds` fit rounds and returns (rounds/sec, scheduler agg peak
/// bytes). Building the fleet inside keeps each measurement independent
/// of the previous configuration's client state. A quorum failure — a
/// tiny cohort whose only members were flaky this round — still counts
/// as an attempted round; any other error is a bug.
fn measure(n: usize, dim: usize, fraction: f64, rounds: usize, threads: usize) -> (f64, usize) {
    ff_par::with_threads(threads, || {
        let fleet = build_fleet(n, dim, fraction);
        let policy = RoundPolicy {
            deadline: None,
            min_responses: 1,
            retries: 1,
            backoff: std::time::Duration::ZERO,
        };
        let t = Instant::now();
        let mut agg_peak = 0;
        for _ in 0..rounds {
            match fleet.run_fit_round(vec![0.0; dim], ConfigMap::new(), &policy) {
                Ok(out) => {
                    assert_eq!(out.global.len(), dim);
                    agg_peak = agg_peak.max(out.agg_state_peak_bytes);
                }
                Err(ff_fl::FlError::Quorum { .. }) => {}
                Err(e) => panic!("fleet round failed: {e}"),
            }
        }
        let elapsed = t.elapsed().as_secs_f64();
        (rounds as f64 / elapsed.max(1e-9), agg_peak)
    })
}

fn main() {
    let args = Args::parse();
    let threads = args.usize("threads", 4);
    let rounds = args.usize("rounds", 10);
    let dim = args.usize("dim", 64);
    let out_path = args.string("out", "BENCH_pr6.json");
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let fleets = [100usize, 1_000, 10_000];
    let participation = [0.01f64, 0.10];

    let mut json = String::from("{\n  \"bench\": \"fleet_round\",\n");
    let _ = writeln!(json, "  \"host_cpus\": {host_cpus},");
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(json, "  \"rounds\": {rounds},");
    let _ = writeln!(json, "  \"dim\": {dim},");
    json.push_str("  \"configs\": [\n");

    let total = fleets.len() * participation.len();
    let mut i = 0;
    for &n in &fleets {
        for &frac in &participation {
            let (seq_rps, _) = measure(n, dim, frac, rounds, 1);
            let (par_rps, agg_peak) = measure(n, dim, frac, rounds, threads);
            let cohort = ((n as f64 * frac).round() as usize).clamp(1, n);
            let hwm = rss_hwm_mb();
            println!(
                "fleet {n:>6} × {:>4.0}% (cohort {cohort:>5}): \
                 seq {seq_rps:8.1} rps  par({threads}) {par_rps:8.1} rps  \
                 agg peak {agg_peak:>8} B  rss hwm {hwm:.1} MiB",
                frac * 100.0
            );
            let _ = write!(
                json,
                "    {{\"fleet\": {n}, \"participation\": {frac}, \"cohort\": {cohort}, \
                 \"seq_rounds_per_s\": "
            );
            push_json_f64(&mut json, seq_rps);
            json.push_str(", \"par_rounds_per_s\": ");
            push_json_f64(&mut json, par_rps);
            let _ = write!(json, ", \"agg_peak_bytes\": {agg_peak}, \"rss_hwm_mb\": ");
            push_json_f64(&mut json, hwm);
            json.push('}');
            i += 1;
            json.push_str(if i < total { ",\n" } else { "\n" });
        }
    }
    json.push_str("  ],\n");
    let final_hwm = rss_hwm_mb();
    json.push_str("  \"final_rss_hwm_mb\": ");
    push_json_f64(&mut json, final_hwm);
    json.push_str("\n}\n");
    std::fs::write(&out_path, &json).expect("write bench json");
    println!("wrote {out_path} (host_cpus = {host_cpus})");

    if args.has("assert-rss-mb") {
        let budget = args.usize("assert-rss-mb", 512) as f64;
        if final_hwm > budget {
            eprintln!("peak RSS {final_hwm:.1} MiB exceeds the {budget:.0} MiB budget");
            std::process::exit(1);
        }
        println!("peak RSS {final_hwm:.1} MiB within the {budget:.0} MiB budget");
    }
}
