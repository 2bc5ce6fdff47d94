//! **Exposition smoke test** — the CI step validating the live
//! observability path end to end: a chaos fleet with one known Byzantine
//! client runs fit rounds under a robust rule while an exposition
//! endpoint serves the tracer; the scrape must be well-formed Prometheus
//! text whose counters match the final in-process snapshot, `/healthz`
//! must report a live run, and the flight recorder must have captured
//! the quarantine in a forensic dump naming the attacker.
//!
//! ```text
//! cargo run -p ff-bench --release --bin expo_smoke -- \
//!     [--clients 400] [--rounds 6] [--dim 16]
//! ```
//!
//! Exit status: 0 on success; 1 with a diagnostic on any mismatch.

use ff_bench::{Args, UnitClient};
use ff_fl::chaos::{AdversarialMode, ChaosClient};
use ff_fl::client::FlClient;
use ff_fl::config::ConfigMap;
use ff_fl::robust::{AggregationStrategy, GuardPolicy};
use ff_fl::runtime::{FederatedRuntime, RoundPolicy};
use ff_trace::{sample_value, validate_exposition, ExpoConfig, ExpoServer};
use ff_trace::{FlightRecorder, RecorderConfig, Tracer};
use std::io::{Read as _, Write as _};

const BYZANTINE_ID: usize = 5;

fn fail(msg: &str) -> ! {
    eprintln!("expo_smoke: FAIL — {msg}");
    std::process::exit(1);
}

/// Minimal HTTP GET; returns (status line, body).
fn get(addr: &str, path: &str) -> (String, String) {
    let mut s = std::net::TcpStream::connect(addr).expect("connect");
    let _ = write!(s, "GET {path} HTTP/1.0\r\nHost: localhost\r\n\r\n");
    let _ = s.shutdown(std::net::Shutdown::Write);
    let mut buf = String::new();
    s.read_to_string(&mut buf).expect("read response");
    let status = buf.lines().next().unwrap_or_default().to_string();
    let body = match buf.split_once("\r\n\r\n") {
        Some((_, b)) => b.to_string(),
        None => String::new(),
    };
    (status, body)
}

fn main() {
    let args = Args::parse();
    let n_clients = args.usize("clients", 400);
    let rounds = args.usize("rounds", 6);
    let dim = args.usize("dim", 16);

    // One persistent Byzantine client among honest peers; full
    // participation so it is screened (and eventually quarantined) every
    // round.
    let clients: Vec<Box<dyn FlClient>> = (0..n_clients)
        .map(|id| {
            if id == BYZANTINE_ID {
                Box::new(ChaosClient::adversarial(
                    Box::new(UnitClient(dim)),
                    AdversarialMode::ScaleBy(1e9),
                    7,
                )) as Box<dyn FlClient>
            } else {
                Box::new(UnitClient(dim)) as Box<dyn FlClient>
            }
        })
        .collect();
    let fleet = FederatedRuntime::new(clients)
        .with_strategy(
            AggregationStrategy::CoordinateMedian,
            GuardPolicy::default(),
        )
        .expect("fleet");

    let tracer = Tracer::enabled();
    fleet.set_tracer(tracer.clone());
    let recorder = FlightRecorder::enabled(RecorderConfig::default());
    fleet.set_recorder(recorder.clone());
    let server = ExpoServer::start(tracer.clone(), ExpoConfig::default()).expect("bind");
    let addr = server.addr().to_string();
    println!("exposition endpoint: http://{addr}/metrics");

    let policy = RoundPolicy {
        deadline: None,
        min_responses: 1,
        retries: 0,
        backoff: std::time::Duration::ZERO,
    };
    for _ in 0..rounds {
        fleet
            .run_fit_round(vec![0.0; dim], ConfigMap::new(), &policy)
            .expect("fit round");
    }

    // 1. The scrape must be parseable Prometheus text format.
    let (status, body) = get(&addr, "/metrics");
    if !status.contains("200") {
        fail(&format!("/metrics returned {status:?}"));
    }
    if let Err(e) = validate_exposition(&body) {
        fail(&format!("exposition format invalid: {e}"));
    }

    // 2. Scraped counters must match the final in-process snapshot.
    let snapshot = tracer.snapshot();
    for (name, metric) in [
        ("fl.rounds", "ff_fl_rounds_total"),
        ("fl.updates_rejected", "ff_fl_updates_rejected_total"),
        ("fl.quarantines", "ff_fl_quarantines_total"),
    ] {
        let expect = snapshot.counter(name) as f64;
        match sample_value(&body, metric) {
            Some(v) if v == expect => {}
            Some(v) => fail(&format!("{metric}: scraped {v}, snapshot has {expect}")),
            None => fail(&format!("{metric} missing from scrape")),
        }
    }
    if snapshot.counter("fl.rounds") != rounds as u64 {
        fail(&format!(
            "fl.rounds counter is {}, ran {rounds} rounds",
            snapshot.counter("fl.rounds")
        ));
    }

    // 3. The liveness probe must report a live (recently active) run.
    let (status, health) = get(&addr, "/healthz");
    if !status.contains("200") || !health.starts_with("ok") {
        fail(&format!("/healthz: {status:?} body {health:?}"));
    }

    // 4. The robust rule must have screened the attacker, and the flight
    //    recorder must have dumped forensics naming it.
    if snapshot.counter("fl.updates_rejected") == 0 {
        fail("Byzantine update was never rejected");
    }
    let dumps = recorder.dumps();
    if dumps.is_empty() {
        fail("no forensic dump despite guard rejections");
    }
    let named = dumps.iter().any(|d| {
        d.frames.iter().any(|f| {
            f.rejected.iter().any(|(id, _)| *id == BYZANTINE_ID as u64)
                || f.quarantined.contains(&(BYZANTINE_ID as u64))
        })
    });
    if !named {
        fail(&format!(
            "no dump names the Byzantine client {BYZANTINE_ID}"
        ));
    }
    for d in &dumps {
        println!(
            "dump: trigger={} round={} frames={}",
            d.trigger,
            d.round,
            d.frames.len()
        );
    }
    println!(
        "expo_smoke: OK — {} rounds, {} scrape bytes, {} dumps, client {BYZANTINE_ID} on record",
        rounds,
        body.len(),
        dumps.len()
    );
}
