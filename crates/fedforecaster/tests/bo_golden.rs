//! Golden pin of the optimizer's ask sequence over many observations.
//!
//! The engine pins run a handful of trials, so they never reach a
//! model-guided ask made from more than a few observations. This test
//! drives `BayesOpt` on the pipeline-search space of the `train_search`
//! workload — the Lasso portfolio over every builtin structure, with the
//! engine's warm starts — for 200 asks against a fixed synthetic loss of
//! the encoded point, and pins a hash of every asked configuration and
//! loss plus the final incumbent's loss bits. The constants were recorded
//! before the surrogate became incremental and must not move: the
//! incremental fit is bit-identical to refitting from scratch. Each value
//! is checked at one worker and at four.

use fedforecaster::ckpt::trial_config_fingerprint;
use fedforecaster::search_space::{pipeline_space, warm_start_pipeline_configs};
use ff_bayesopt::optimizer::BayesOpt;
use ff_models::pipeline::PipelineId;
use ff_models::zoo::AlgorithmKind;

const ASKS: usize = 200;

/// A smooth bowl with a ripple over the encoded point, minimised away
/// from the corners so that the surrogate has structure to model.
fn synthetic_loss(z: &[f64]) -> f64 {
    z.iter()
        .enumerate()
        .map(|(k, &v)| {
            let centre = 0.2 + 0.6 * ((k as f64 * 0.618_033_988_75).fract());
            (v - centre) * (v - centre) + 0.05 * (7.0 * v + k as f64).sin()
        })
        .sum()
}

/// FNV-1a over the ask sequence: each configuration's fingerprint, then
/// its loss bits.
fn fold(hash: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(hash of the ask sequence, bits of the final incumbent loss)`.
fn run() -> (u64, u64) {
    let algorithms = [AlgorithmKind::LASSO];
    let pipelines = PipelineId::builtin();
    let mut bo = BayesOpt::new(pipeline_space(&algorithms, &pipelines), 0).unwrap();
    bo.warm_start(warm_start_pipeline_configs(&algorithms, &pipelines));
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for _ in 0..ASKS {
        let config = bo.ask().unwrap();
        let loss = synthetic_loss(&bo.space().encode(&config));
        hash = fold(
            fold(hash, trial_config_fingerprint(&config)),
            loss.to_bits(),
        );
        bo.tell(&config, loss).unwrap();
    }
    (hash, bo.best().unwrap().1.to_bits())
}

#[test]
fn two_hundred_ask_sequence_is_pinned() {
    for threads in [1usize, 4] {
        let got = ff_par::with_threads(threads, run);
        assert_eq!(
            got,
            (0xf868_df4d_3413_a3de, 0x4007_4b9c_6dd9_bfd6),
            "ask-sequence pin moved at {threads} thread(s): got {got:#x?}"
        );
    }
}
