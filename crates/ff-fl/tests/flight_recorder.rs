//! End-to-end forensics: a fleet under Byzantine attack must leave a
//! deterministic flight-recorder trail — a dump naming the quarantined
//! client and its round, bit-identical across thread counts — and the
//! live exposition endpoint must serve a scrape whose counters match the
//! in-process snapshot.

use ff_fl::chaos::{AdversarialMode, ChaosClient};
use ff_fl::client::{EvalOutput, FitOutput, FlClient};
use ff_fl::config::ConfigMap;
use ff_fl::health::ClientState;
use ff_fl::robust::{AggregationStrategy, GuardPolicy, RejectReason};
use ff_fl::runtime::{FederatedRuntime, RoundPolicy};
use ff_fl::FlError;
use ff_trace::{FlightRecorder, RecorderConfig, Tracer, Trigger};

const FLEET: usize = 200;
const DIM: usize = 8;
const BYZANTINE_ID: usize = 5;

/// Honest client: constant unit parameters, one example.
struct Honest;

impl FlClient for Honest {
    fn get_properties(&mut self, _config: &ConfigMap) -> ConfigMap {
        ConfigMap::new()
    }
    fn fit(&mut self, _params: &[f64], _config: &ConfigMap) -> FitOutput {
        FitOutput {
            params: vec![1.0; DIM],
            num_examples: 1,
            metrics: ConfigMap::new(),
        }
    }
    fn evaluate(&mut self, params: &[f64], _config: &ConfigMap) -> EvalOutput {
        let center = params.first().copied().unwrap_or(0.0);
        EvalOutput {
            loss: (1.0 - center).abs(),
            num_examples: 1,
            metrics: ConfigMap::new(),
        }
    }
}

/// Full-participation fleet with exactly one persistent attacker.
fn fleet_with_one_attacker() -> FederatedRuntime {
    let clients: Vec<Box<dyn FlClient>> = (0..FLEET)
        .map(|id| {
            if id == BYZANTINE_ID {
                Box::new(ChaosClient::adversarial(
                    Box::new(Honest),
                    AdversarialMode::ScaleBy(1e9),
                    7,
                )) as Box<dyn FlClient>
            } else {
                Box::new(Honest) as Box<dyn FlClient>
            }
        })
        .collect();
    FederatedRuntime::new(clients)
        .with_strategy(
            AggregationStrategy::CoordinateMedian,
            GuardPolicy::default(),
        )
        .unwrap()
}

fn policy() -> RoundPolicy {
    RoundPolicy {
        deadline: None,
        min_responses: 1,
        retries: 0,
        backoff: std::time::Duration::ZERO,
    }
}

/// Runs `rounds` fit rounds with a fresh recorder; returns the recorder.
fn run_recorded(rounds: usize) -> FlightRecorder {
    let fleet = fleet_with_one_attacker();
    let recorder = FlightRecorder::enabled(RecorderConfig::default());
    fleet.set_recorder(recorder.clone());
    for _ in 0..rounds {
        fleet
            .run_fit_round(vec![0.0; DIM], ConfigMap::new(), &policy())
            .unwrap();
    }
    recorder
}

/// The headline forensic guarantee: the quarantine of the attacker fires
/// a dump whose triggering frame names the client and the round it
/// happened in.
#[test]
fn byzantine_quarantine_dump_names_the_client_and_round() {
    let recorder = run_recorded(6);
    let dumps = recorder.dumps();
    assert!(!dumps.is_empty(), "attack produced no forensic dump");
    let quarantine_dump = dumps
        .iter()
        .find(|d| d.trigger == Trigger::Quarantine)
        .expect("no quarantine-triggered dump");
    // The triggering frame is the dump's last: it must name the attacker
    // and carry the dump's round number.
    let last = quarantine_dump.frames.last().unwrap();
    assert_eq!(last.round, quarantine_dump.round);
    assert!(
        last.quarantined.contains(&(BYZANTINE_ID as u64)),
        "quarantine frame {:?} does not name client {BYZANTINE_ID}",
        last.quarantined
    );
    // The ring history leading up to it shows the guard rejecting the
    // same client in earlier rounds.
    let rejected_earlier = quarantine_dump
        .frames
        .iter()
        .any(|f| f.rejected.iter().any(|(id, _)| *id == BYZANTINE_ID as u64));
    assert!(
        rejected_earlier,
        "dump history shows no guard rejection of the attacker"
    );
    // The JSON-lines export names the client too (string-level check so
    // the serialized forensics are useful without this crate).
    let text = quarantine_dump.to_json_lines();
    assert!(text.contains("\"trigger\":\"quarantine\""));
    assert!(text.contains(&format!("\"quarantined\":[{BYZANTINE_ID}]")));
}

/// Forensic dumps carry no wall-clock data, so the full serialized dump
/// set is bit-identical whether the fleet ran on one worker or four.
#[test]
fn forensic_dumps_are_bit_identical_across_thread_counts() {
    let dump_text = |threads: usize| {
        ff_par::with_threads(threads, || {
            run_recorded(6)
                .dumps()
                .iter()
                .map(|d| d.to_json_lines())
                .collect::<Vec<String>>()
        })
    };
    let one = dump_text(1);
    let four = dump_text(4);
    assert!(!one.is_empty());
    assert_eq!(one, four, "dumps differ across FF_THREADS 1 vs 4");
}

/// Minimal HTTP/1.0 GET against the exposition endpoint; returns the
/// status line and the body.
fn get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    use std::io::{Read as _, Write as _};
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    write!(s, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
    s.shutdown(std::net::Shutdown::Write).unwrap();
    let mut response = String::new();
    s.read_to_string(&mut response).unwrap();
    let (head, body) = response.split_once("\r\n\r\n").unwrap();
    let status = head.lines().next().unwrap_or_default().to_string();
    (status, body.to_string())
}

/// A live scrape taken mid-run is parseable Prometheus text whose
/// counters match the tracer snapshot taken at the same moment, and the
/// liveness probe reports the run as live.
#[test]
fn live_scrape_matches_the_snapshot() {
    const ROUNDS: usize = 6;
    let fleet = fleet_with_one_attacker();
    let tracer = Tracer::enabled();
    fleet.set_tracer(tracer.clone());
    let server = ff_trace::ExpoServer::start(tracer.clone(), ff_trace::ExpoConfig::default())
        .expect("bind exposition endpoint");
    for _ in 0..ROUNDS {
        fleet
            .run_fit_round(vec![0.0; DIM], ConfigMap::new(), &policy())
            .unwrap();
    }
    let (status, body) = get(server.addr(), "/metrics");
    assert!(status.contains("200"), "/metrics answered {status:?}");
    ff_trace::validate_exposition(&body).expect("invalid exposition format");
    // No round ran between the scrape and this snapshot, so the scraped
    // counters must agree exactly.
    let snapshot = tracer.snapshot();
    assert_eq!(snapshot.counter("fl.rounds"), ROUNDS as u64);
    for (name, metric) in [
        ("fl.rounds", "ff_fl_rounds_total"),
        ("fl.updates_rejected", "ff_fl_updates_rejected_total"),
        ("fl.quarantines", "ff_fl_quarantines_total"),
    ] {
        let expect = snapshot.counter(name);
        assert!(expect > 0, "{name} never incremented");
        assert_eq!(
            ff_trace::sample_value(&body, metric),
            Some(expect as f64),
            "scraped {metric} disagrees with the snapshot"
        );
    }
    let (status, body) = get(server.addr(), "/healthz");
    assert!(
        status.contains("200") && body.starts_with("ok"),
        "/healthz answered {status:?} with {body:?}"
    );
}

/// Client that ships NaN parameters from every fit.
struct NanUpdate;

impl FlClient for NanUpdate {
    fn get_properties(&mut self, _config: &ConfigMap) -> ConfigMap {
        ConfigMap::new()
    }
    fn fit(&mut self, _params: &[f64], _config: &ConfigMap) -> FitOutput {
        FitOutput {
            params: vec![f64::NAN; DIM],
            num_examples: 1,
            metrics: ConfigMap::new(),
        }
    }
    fn evaluate(&mut self, _params: &[f64], _config: &ConfigMap) -> EvalOutput {
        EvalOutput {
            loss: 0.0,
            num_examples: 1,
            metrics: ConfigMap::new(),
        }
    }
}

/// A NaN update fails a plain FedAvg fold round — but only after the
/// round is booked: the sender's rejection escalates its health and the
/// round's frame is committed with `non_finite` set, so every round that
/// samples the client leaves a trail instead of failing silently.
#[test]
fn non_finite_fedavg_update_is_penalised_and_recorded_before_the_error() {
    let clients: Vec<Box<dyn FlClient>> = (0..8)
        .map(|id| {
            if id == 3 {
                Box::new(NanUpdate) as Box<dyn FlClient>
            } else {
                Box::new(Honest)
            }
        })
        .collect();
    let fleet = FederatedRuntime::new(clients);
    let recorder = FlightRecorder::enabled(RecorderConfig::default());
    fleet.set_recorder(recorder.clone());
    let err = fleet
        .run_fit_round(vec![0.0; DIM], ConfigMap::new(), &policy())
        .unwrap_err();
    assert_eq!(err, FlError::NonFiniteUpdate { client: 3 });
    assert_eq!(
        fleet.client_state(3),
        Some(ClientState::Suspect),
        "the sender was not penalised"
    );
    assert_eq!(fleet.health_report().clients[3].byzantine, 1);
    let frames = recorder.frames();
    assert_eq!(frames.len(), 1, "the failed round committed no frame");
    assert!(frames[0].non_finite);
    assert_eq!(
        frames[0].rejected,
        vec![(3, RejectReason::NonFinite.to_string())]
    );
    // A second strike quarantines the sender like any repeat offender.
    let _ = fleet.run_fit_round(vec![0.0; DIM], ConfigMap::new(), &policy());
    assert_eq!(fleet.client_state(3), Some(ClientState::Quarantined));
}
