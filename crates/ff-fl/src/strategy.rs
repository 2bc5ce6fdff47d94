//! Aggregation strategies: FedAvg parameter averaging and the weighted
//! global loss of Equation 1.

use crate::message::Reply;
use crate::robust::AggregationStrategy;
use crate::{FlError, Result};

/// Weighted average of flat parameter vectors:
/// `Σ wᵢ θᵢ / Σ wᵢ` with `wᵢ = num_examples` — McMahan et al.'s FedAvg,
/// i.e. [`AggregationStrategy::FedAvg`] over positional updates. A
/// non-finite update fails with [`FlError::NonFiniteUpdate`] naming its
/// input position.
///
/// # Examples
///
/// ```
/// use ff_fl::strategy::fedavg;
///
/// // A client with 3× the data pulls the average 3× harder.
/// let agg = fedavg(&[(vec![0.0], 1), (vec![4.0], 3)]).unwrap();
/// assert_eq!(agg, vec![3.0]);
/// ```
pub fn fedavg(params: &[(Vec<f64>, u64)]) -> Result<Vec<f64>> {
    let updates = params.iter().cloned().enumerate();
    AggregationStrategy::FedAvg.aggregate(updates.map(|(i, (p, n))| (i, p, n)))
}

/// Weighted global loss `Σ αⱼ Lⱼ` with `αⱼ = nⱼ / Σ n` (Equation 1).
/// Non-finite client losses are treated as failures and propagated.
pub fn aggregate_loss(losses: &[(f64, u64)]) -> Result<f64> {
    let total: u64 = losses.iter().map(|(_, n)| n).sum();
    if total == 0 {
        return Err(FlError::Client("zero total examples".into()));
    }
    let mut acc = 0.0;
    for &(loss, n) in losses {
        if !loss.is_finite() {
            return Err(FlError::Client(format!("non-finite client loss {loss}")));
        }
        acc += loss * n as f64 / total as f64;
    }
    Ok(acc)
}

/// Extracts `(client_id, params, num_examples)` triples from fit
/// replies, preserving client ids so pre-aggregation screening (the
/// [`robust`](crate::robust) guard) and aggregation errors can attribute
/// them; client errors propagate.
pub fn fit_updates(replies: Vec<(usize, Reply)>) -> Result<Vec<(usize, Vec<f64>, u64)>> {
    replies
        .into_iter()
        .map(|(id, r)| match r {
            Reply::FitRes {
                params,
                num_examples,
                ..
            } => Ok((id, params, num_examples)),
            Reply::Error(e) => Err(FlError::Client(e)),
            Reply::Panicked(m) => Err(FlError::Client(format!("client panicked: {m}"))),
            other => Err(FlError::Codec(format!("unexpected reply {other:?}"))),
        })
        .collect()
}

/// [`fit_updates`] without the client ids.
pub fn unwrap_fit_replies(replies: Vec<(usize, Reply)>) -> Result<Vec<(Vec<f64>, u64)>> {
    Ok(fit_updates(replies)?
        .into_iter()
        .map(|(_, params, n)| (params, n))
        .collect())
}

/// Extracts `(loss, num_examples)` pairs from evaluate replies.
pub fn unwrap_eval_replies(replies: Vec<(usize, Reply)>) -> Result<Vec<(f64, u64)>> {
    replies
        .into_iter()
        .map(|(_, r)| match r {
            Reply::EvaluateRes {
                loss, num_examples, ..
            } => Ok((loss, num_examples)),
            Reply::Error(e) => Err(FlError::Client(e)),
            Reply::Panicked(m) => Err(FlError::Client(format!("client panicked: {m}"))),
            other => Err(FlError::Codec(format!("unexpected reply {other:?}"))),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fedavg_weighted_mean() {
        let agg = fedavg(&[(vec![1.0, 0.0], 1), (vec![4.0, 3.0], 3)]).unwrap();
        assert!((agg[0] - 3.25).abs() < 1e-12);
        assert!((agg[1] - 2.25).abs() < 1e-12);
    }

    #[test]
    fn fedavg_single_client_is_identity() {
        let p = vec![0.5, -1.5, 3.0];
        let agg = fedavg(&[(p.clone(), 10)]).unwrap();
        assert_eq!(agg, p);
    }

    #[test]
    fn fedavg_skips_empty_params() {
        let agg = fedavg(&[(vec![], 100), (vec![2.0], 1)]).unwrap();
        assert_eq!(agg, vec![2.0]);
    }

    #[test]
    fn fedavg_rejects_mismatched_dims() {
        assert!(fedavg(&[(vec![1.0], 1), (vec![1.0, 2.0], 1)]).is_err());
    }

    #[test]
    fn fedavg_rejects_empty_input() {
        assert!(fedavg(&[]).is_err());
    }

    #[test]
    fn loss_aggregation_matches_equation_one() {
        // α = (0.25, 0.75).
        let l = aggregate_loss(&[(4.0, 1), (8.0, 3)]).unwrap();
        assert!((l - 7.0).abs() < 1e-12);
    }

    #[test]
    fn loss_aggregation_rejects_nan() {
        assert!(aggregate_loss(&[(f64::NAN, 1)]).is_err());
        assert!(aggregate_loss(&[]).is_err());
    }

    #[test]
    fn fedavg_rejects_non_finite_params_naming_the_client() {
        let params = vec![(vec![1.0], 2u64), (vec![f64::NAN], 3), (vec![2.0], 1)];
        match fedavg(&params) {
            Err(FlError::NonFiniteUpdate { client }) => assert_eq!(client, 1),
            other => panic!("expected NonFiniteUpdate, got {other:?}"),
        }
        assert!(fedavg(&[(vec![f64::INFINITY], 1)]).is_err());
    }

    #[test]
    fn fit_updates_preserves_client_ids() {
        let replies = vec![
            (
                4usize,
                Reply::FitRes {
                    params: vec![1.0, 2.0],
                    num_examples: 7,
                    metrics: crate::config::ConfigMap::new(),
                },
            ),
            (
                9usize,
                Reply::FitRes {
                    params: vec![],
                    num_examples: 3,
                    metrics: crate::config::ConfigMap::new(),
                },
            ),
        ];
        let updates = fit_updates(replies).unwrap();
        assert_eq!(updates[0], (4, vec![1.0, 2.0], 7));
        assert_eq!(updates[1], (9, vec![], 3));
    }

    #[test]
    fn unwrap_helpers_propagate_errors() {
        let replies = vec![(0usize, Reply::Error("bad".into()))];
        assert!(unwrap_fit_replies(replies.clone()).is_err());
        assert!(unwrap_eval_replies(replies).is_err());
    }
}
