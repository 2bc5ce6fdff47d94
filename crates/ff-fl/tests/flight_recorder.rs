//! End-to-end forensics: a fleet with one crashing and one Byzantine
//! client must leave a deterministic flight-recorder trail — a dump
//! naming the quarantined crasher and its round, bit-identical across
//! thread counts — and the live exposition endpoint must serve a scrape
//! whose counters match the in-process snapshot. Each round runs through
//! `run_round` and is then screened and aggregated the way the engine's
//! `RoundCtx` does it.

use ff_fl::chaos::{AdversarialMode, ChaosClient};
use ff_fl::client::{EvalOutput, FitOutput, FlClient};
use ff_fl::config::ConfigMap;
use ff_fl::health::ClientState;
use ff_fl::message::Instruction;
use ff_fl::robust::{AggregationStrategy, GuardPolicy, UpdateGuard};
use ff_fl::runtime::{FederatedRuntime, RoundPolicy};
use ff_fl::strategy::fit_updates;
use ff_trace::{FlightRecorder, RecorderConfig, Tracer, Trigger};

const FLEET: usize = 200;
const DIM: usize = 8;
const BYZANTINE_ID: usize = 5;
const CRASHER_ID: usize = 9;

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

/// Full-participation fleet with one persistent attacker and one client
/// that panics on every call.
fn fleet_with_two_faults() -> FederatedRuntime {
    let clients: Vec<Box<dyn FlClient>> = (0..FLEET)
        .map(|id| match id {
            BYZANTINE_ID => Box::new(ChaosClient::adversarial(
                Box::new(Honest),
                AdversarialMode::ScaleBy(1e9),
                7,
            )) as Box<dyn FlClient>,
            CRASHER_ID => Box::new(ChaosClient::panicking(Box::new(Honest))),
            _ => Box::new(Honest),
        })
        .collect();
    FederatedRuntime::new(clients)
}

fn policy() -> RoundPolicy {
    RoundPolicy {
        deadline: None,
        min_responses: 1,
        retries: 0,
        backoff: std::time::Duration::ZERO,
    }
}

/// One coordinate-median fit round, screened and aggregated the way the
/// engine's `RoundCtx` does it: screen the updates, book each verdict
/// with the runtime, aggregate the survivors.
fn fit_round(fleet: &FederatedRuntime, guard: &mut UpdateGuard) {
    let fit = Instruction::Fit {
        params: vec![0.0; DIM],
        config: ConfigMap::new(),
    };
    let out = fleet.run_round(&fit, &policy()).unwrap();
    let screened = guard.screen_updates(fit_updates(out.replies).unwrap());
    for (id, _) in &screened.rejected {
        fleet.record_update_rejected(*id);
    }
    for (id, _, _) in &screened.accepted {
        fleet.record_update_accepted(*id);
    }
    let global = AggregationStrategy::CoordinateMedian
        .aggregate(screened.accepted)
        .unwrap();
    assert_eq!(global, vec![1.0; DIM]);
}

/// Runs `rounds` fit rounds with a fresh recorder; returns the recorder.
fn run_recorded(rounds: usize) -> FlightRecorder {
    let fleet = fleet_with_two_faults();
    let recorder = FlightRecorder::enabled(RecorderConfig::default());
    fleet.set_recorder(recorder.clone());
    let mut guard = UpdateGuard::new(GuardPolicy::default());
    for _ in 0..rounds {
        fit_round(&fleet, &mut guard);
    }
    assert_eq!(
        fleet.client_state(CRASHER_ID),
        Some(ClientState::Quarantined)
    );
    recorder
}

/// The headline forensic guarantee: the quarantine of the crasher, booked
/// inside the round after its second consecutive crash, fires a dump
/// whose triggering frame names the client and the round it happened in.
#[test]
fn crash_quarantine_dump_names_the_client_and_round() {
    let recorder = run_recorded(6);
    let dumps = recorder.dumps();
    assert!(!dumps.is_empty(), "the crashes produced no forensic dump");
    let quarantine_dump = dumps
        .iter()
        .find(|d| d.trigger == Trigger::Quarantine)
        .expect("no quarantine-triggered dump");
    // The triggering frame is the dump's last: it must name the crasher
    // and carry the dump's round number.
    let last = quarantine_dump.frames.last().unwrap();
    assert_eq!(last.round, quarantine_dump.round);
    assert!(
        last.quarantined.contains(&(CRASHER_ID as u64)),
        "quarantine frame {:?} does not name client {CRASHER_ID}",
        last.quarantined
    );
    // The ring history leading up to it shows the same client dropping
    // out of an earlier round.
    let dropped_earlier = quarantine_dump.frames.iter().any(|f| {
        f.round < quarantine_dump.round && f.dropouts.iter().any(|(id, _)| *id == CRASHER_ID as u64)
    });
    assert!(
        dropped_earlier,
        "dump history shows no earlier dropout of the crasher"
    );
    // The JSON-lines export names the client too (string-level check so
    // the serialized forensics are useful without this crate).
    let text = quarantine_dump.to_json_lines();
    assert!(text.contains("\"trigger\":\"quarantine\""));
    assert!(text.contains(&format!("\"quarantined\":[{CRASHER_ID}]")));
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
    let fleet = fleet_with_two_faults();
    let tracer = Tracer::enabled();
    fleet.set_tracer(tracer.clone());
    let server = ff_trace::ExpoServer::start(tracer.clone(), ff_trace::ExpoConfig::default())
        .expect("bind exposition endpoint");
    let mut guard = UpdateGuard::new(GuardPolicy::default());
    for _ in 0..ROUNDS {
        fit_round(&fleet, &mut guard);
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
