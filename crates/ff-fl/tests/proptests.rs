//! Property tests: codec round-trips, aggregation invariants, and
//! liveness of the health state machine.

use ff_fl::config::{ConfigMap, ConfigValue};
use ff_fl::health::{ClientState, HealthPolicy, HealthRegistry};
use ff_fl::message::{Instruction, Reply};
use ff_fl::strategy::{aggregate_loss, fedavg};
use proptest::prelude::*;

fn config_value() -> impl Strategy<Value = ConfigValue> {
    prop_oneof![
        (-1e6f64..1e6).prop_map(ConfigValue::Float),
        any::<i64>().prop_map(ConfigValue::Int),
        "[a-z0-9 ]{0,20}".prop_map(ConfigValue::Str),
        prop::collection::vec(any::<u8>(), 0..64).prop_map(ConfigValue::Bytes),
        prop::collection::vec(-1e6f64..1e6, 0..16).prop_map(ConfigValue::FloatVec),
    ]
}

fn config_map() -> impl Strategy<Value = ConfigMap> {
    prop::collection::btree_map("[a-z_]{1,12}", config_value(), 0..8)
}

proptest! {
    #[test]
    fn instruction_encode_decode_roundtrip(
        params in prop::collection::vec(-1e6f64..1e6, 0..32),
        cfg in config_map(),
    ) {
        for ins in [
            Instruction::GetProperties(cfg.clone()),
            Instruction::Fit { params: params.clone(), config: cfg.clone() },
            Instruction::Evaluate { params: params.clone(), config: cfg.clone() },
        ] {
            let decoded = Instruction::decode(ins.encode()).unwrap();
            prop_assert_eq!(ins, decoded);
        }
    }

    #[test]
    fn reply_encode_decode_roundtrip(
        params in prop::collection::vec(-1e6f64..1e6, 0..32),
        cfg in config_map(),
        loss in -1e9f64..1e9,
        n in 0u64..1_000_000,
    ) {
        for reply in [
            Reply::Properties(cfg.clone()),
            Reply::FitRes { params: params.clone(), num_examples: n, metrics: cfg.clone() },
            Reply::EvaluateRes { loss, num_examples: n, metrics: cfg.clone() },
            Reply::Error("boom".into()),
            Reply::Panicked("index out of bounds".into()),
        ] {
            let decoded = Reply::decode(reply.encode()).unwrap();
            prop_assert_eq!(reply, decoded);
        }
    }

    #[test]
    fn fedavg_result_in_convex_hull(
        a in prop::collection::vec(-100.0f64..100.0, 4),
        b in prop::collection::vec(-100.0f64..100.0, 4),
        wa in 1u64..1000,
        wb in 1u64..1000,
    ) {
        let agg = fedavg(&[(a.clone(), wa), (b.clone(), wb)]).unwrap();
        for ((&x, &y), &z) in a.iter().zip(&b).zip(&agg) {
            let lo = x.min(y) - 1e-9;
            let hi = x.max(y) + 1e-9;
            prop_assert!(z >= lo && z <= hi, "{z} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn fedavg_weights_on_simplex_scale_invariance(
        p in prop::collection::vec(-10.0f64..10.0, 3),
        w in 1u64..100,
        k in 1u64..10,
    ) {
        // Scaling all weights by k must not change the average.
        let a = fedavg(&[(p.clone(), w), (p.clone(), w * 2)]).unwrap();
        let b = fedavg(&[(p.clone(), w * k), (p.clone(), w * 2 * k)]).unwrap();
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn aggregate_loss_between_min_and_max(
        losses in prop::collection::vec((0.0f64..100.0, 1u64..1000), 1..8),
    ) {
        let agg = aggregate_loss(&losses).unwrap();
        let lo = losses.iter().map(|(l, _)| *l).fold(f64::INFINITY, f64::min);
        let hi = losses.iter().map(|(l, _)| *l).fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(agg >= lo - 1e-9 && agg <= hi + 1e-9);
    }

    /// Quarantine plus probe backoff never starves a recovered client:
    /// whatever the policy and however long the client misbehaved, once it
    /// starts succeeding it is probed, re-admitted, and back to `Healthy`
    /// within a bounded number of rounds (the probe backoff is capped at
    /// `probe_max`).
    #[test]
    fn quarantine_never_starves_a_recovered_client(
        quarantine_after in 1u32..5,
        probe_base in 1u64..6,
        probe_max in 1u64..24,
        fail_rounds in 1u64..40,
    ) {
        let policy = HealthPolicy { quarantine_after, probe_base, probe_max };
        let mut reg = HealthRegistry::new(1, policy);
        // Phase 1: the client fails every round it participates in.
        for _ in 0..fail_rounds {
            let round = reg.begin_round();
            if reg.is_admitted(0, round) {
                let _ = reg.record_failure(0);
            }
        }
        // Phase 2: the client has recovered and succeeds whenever probed.
        // It must reach Healthy within probe_max + 1 further rounds.
        let mut healthy_after = None;
        for extra in 1..=(probe_max + 1) {
            let round = reg.begin_round();
            if reg.is_admitted(0, round) {
                reg.record_success(0);
            }
            if reg.state(0) == Some(ClientState::Healthy) {
                healthy_after = Some(extra);
                break;
            }
        }
        prop_assert!(
            healthy_after.is_some(),
            "client still {:?} after {} recovery rounds",
            reg.state(0),
            probe_max + 1
        );
    }
}
