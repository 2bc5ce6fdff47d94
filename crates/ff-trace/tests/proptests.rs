//! Property tests: histogram merge is order-invariant (commutative and
//! associative on everything but the floating-point `sum`), percentile
//! estimates bound the true quantile within one bucket, and span nesting
//! always closes LIFO — even when the enclosing scope unwinds through
//! `catch_unwind`, as the FL runtime's client threads do.

use ff_trace::{Histogram, Tracer};
use proptest::prelude::*;

fn record_all(values: &[f64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

fn buckets(h: &Histogram) -> Vec<(i32, u64)> {
    h.buckets().collect()
}

proptest! {
    #[test]
    fn merge_is_commutative(
        a in prop::collection::vec(-1e6f64..1e9, 0..200),
        b in prop::collection::vec(1e-9f64..1e12, 0..200),
    ) {
        let (ha, hb) = (record_all(&a), record_all(&b));
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(buckets(&ab), buckets(&ba));
        prop_assert_eq!(ab.count(), ba.count());
        prop_assert_eq!(ab.min(), ba.min());
        prop_assert_eq!(ab.max(), ba.max());
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            prop_assert_eq!(ab.quantile_bucket(q), ba.quantile_bucket(q));
            prop_assert_eq!(ab.percentile(q), ba.percentile(q));
        }
    }

    #[test]
    fn merge_is_associative(
        a in prop::collection::vec(0.0f64..1e9, 0..100),
        b in prop::collection::vec(0.0f64..1e9, 0..100),
        c in prop::collection::vec(0.0f64..1e9, 0..100),
    ) {
        let (ha, hb, hc) = (record_all(&a), record_all(&b), record_all(&c));
        // (a ⊕ b) ⊕ c
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        // a ⊕ (b ⊕ c)
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);
        prop_assert_eq!(buckets(&left), buckets(&right));
        prop_assert_eq!(left.count(), right.count());
        for q in [0.25, 0.5, 0.75, 0.95] {
            prop_assert_eq!(left.quantile_bucket(q), right.quantile_bucket(q));
        }
    }

    #[test]
    fn percentile_bounds_the_true_quantile_within_one_bucket(
        values in prop::collection::vec(1e-6f64..1e12, 1..300),
        q in 0.0f64..1.0,
    ) {
        let h = record_all(&values);
        // Exact quantile: rank ceil(q·n) clamped to [1, n] over the sorted
        // values — the same rank definition the histogram uses.
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len() as u64;
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let exact = sorted[(rank - 1) as usize];
        // The estimate's bucket must be the bucket containing the exact
        // quantile (compared by index: no float tolerance needed).
        let est_bucket = h.quantile_bucket(q).unwrap();
        prop_assert_eq!(Some(est_bucket), Histogram::bucket_of(exact));
        // And therefore the reported percentile overshoots the exact
        // quantile by at most one bucket width (2^(1/4) relative).
        let est = h.percentile(q).unwrap();
        prop_assert!(est >= exact * (1.0 - 1e-12));
        prop_assert!(est <= exact * 2f64.powf(0.25) * (1.0 + 1e-12));
    }

    #[test]
    fn span_nesting_closes_lifo_across_catch_unwind(
        depth in 1usize..20,
        panic_at in 0usize..20,
    ) {
        let t = Tracer::enabled();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // Guards live in a stack; a panic unwinds them innermost-first.
            fn recurse(t: &Tracer, level: usize, depth: usize, panic_at: usize) {
                if level == depth {
                    return;
                }
                let _g = t.span("nested");
                if level == panic_at {
                    panic!("unwind through open spans");
                }
                recurse(t, level + 1, depth, panic_at);
            }
            recurse(&t, 0, depth, panic_at);
        }));
        prop_assert_eq!(result.is_err(), panic_at < depth);
        // Whatever happened, every span closed and closed LIFO: each
        // child's end time is within its parent's window.
        prop_assert_eq!(t.open_spans_on_this_thread(), 0);
        let snap = t.snapshot();
        for s in &snap.spans {
            prop_assert!(s.end_us.is_some());
            if let Some(parent) = s.parent.and_then(|p| snap.span_by_id(p)) {
                prop_assert!(parent.start_us <= s.start_us);
                prop_assert!(s.end_us.unwrap() <= parent.end_us.unwrap());
            }
        }
    }
}

// --- flight recorder ---------------------------------------------------

fn arb_frame(round: u64, distress: u8) -> ff_trace::RoundFrame {
    let mut f = ff_trace::RoundFrame {
        round,
        phase: "fleet.fit",
        cohort: 100,
        admitted: 90,
        accepted: 80,
        ..ff_trace::RoundFrame::default()
    };
    match distress % 5 {
        1 => f.quarantined = vec![round % 7],
        2 => f.quorum_met = false,
        3 => f.rejected = vec![(round % 7, "norm blew up".into())],
        4 => f.non_finite = true,
        _ => {}
    }
    f
}

proptest! {
    #[test]
    fn recorder_ring_never_exceeds_capacity(
        capacity in 1usize..32,
        distress in prop::collection::vec(0u8..5, 1..200),
    ) {
        let r = ff_trace::FlightRecorder::enabled(ff_trace::RecorderConfig {
            capacity,
            max_dumps: 4,
        });
        for (i, d) in distress.iter().enumerate() {
            r.commit_with(|| arb_frame(i as u64 + 1, *d));
            prop_assert!(r.len() <= capacity, "ring grew past capacity");
        }
        // The ring holds the *newest* frames, contiguous and in order.
        let frames = r.frames();
        prop_assert_eq!(frames.len(), distress.len().min(capacity));
        let first = distress.len() - frames.len();
        for (j, f) in frames.iter().enumerate() {
            prop_assert_eq!(f.round, (first + j) as u64 + 1);
        }
        // Every dump ends at a frame that actually carries distress, and
        // dump count respects the cap while triggers keep counting.
        let dumps = r.dumps();
        prop_assert!(dumps.len() <= 4);
        prop_assert!(r.triggers_fired() >= dumps.len() as u64);
        for d in &dumps {
            let last = d.frames.last().unwrap();
            prop_assert_eq!(last.round, d.round);
            prop_assert!(d.frames.len() <= capacity);
        }
    }

    #[test]
    fn recorder_dumps_are_reproducible(
        capacity in 1usize..16,
        distress in prop::collection::vec(0u8..5, 1..64),
    ) {
        let run = || {
            let r = ff_trace::FlightRecorder::enabled(ff_trace::RecorderConfig {
                capacity,
                ..Default::default()
            });
            for (i, d) in distress.iter().enumerate() {
                r.commit_with(|| arb_frame(i as u64 + 1, *d));
            }
            r.dumps()
                .iter()
                .map(|d| d.to_json_lines())
                .collect::<Vec<_>>()
        };
        // Frames carry no wall-clock data, so two identical round
        // sequences serialize byte-identically.
        prop_assert_eq!(run(), run());
    }
}
