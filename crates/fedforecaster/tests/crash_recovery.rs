//! Kill-at-any-point crash tolerance: for every [`CrashPoint`] in the
//! taxonomy, a run killed there and resumed via
//! [`FedForecaster::resume`] must produce a [`RunResult`] bit-identical
//! (by [`run_fingerprint`]) to the uninterrupted run — including across
//! thread counts, and after the crash's WAL tail has been further
//! truncated, bit-flipped, or buried under garbage.

use fedforecaster::ckpt::{run_fingerprint, Record};
use fedforecaster::prelude::*;
use fedforecaster::EngineError;
use ff_ckpt::{corrupt, read_wal, CkptError, CrashPoint};
use ff_metalearn::kb::KnowledgeBase;
use ff_metalearn::metamodel::{MetaClassifierKind, MetaModel};
use ff_timeseries::synthesis::{generate, SeasonSpec, SynthesisSpec, TrendSpec};
use ff_timeseries::TimeSeries;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

const BUDGET: usize = 5;

fn train_meta() -> MetaModel {
    let kb = KnowledgeBase::build(&ff_metalearn::synth::synthetic_kb(8), &[2], 50);
    MetaModel::train(&kb, MetaClassifierKind::RandomForest, 0).unwrap()
}

fn federation() -> Vec<TimeSeries> {
    let s = generate(
        &SynthesisSpec {
            n: 800,
            trend: TrendSpec::Linear(0.01),
            seasons: vec![SeasonSpec {
                period: 12.0,
                amplitude: 2.0,
            }],
            snr: Some(20.0),
            ..Default::default()
        },
        9,
    );
    s.split_clients(3)
}

/// A log path, not yet written, in a fresh directory of its own; see
/// [`clean_up`].
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ff-crash-recovery-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("log.wal")
}

/// Removes the directory [`scratch`] made for `path`.
fn clean_up(path: &Path) {
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

/// The run's config; also sets the process-wide worker count the run
/// will use to `threads`.
fn cfg(checkpoint: Option<CkptConfig>, threads: usize) -> EngineConfig {
    ff_par::set_global_threads(threads);
    EngineConfig {
        budget: Budget::Iterations(BUDGET),
        seed: 123,
        checkpoint,
        ..Default::default()
    }
}

/// The uninterrupted, checkpoint-free reference fingerprint (computed
/// once; every test compares against it).
fn baseline_fp() -> u64 {
    static FP: OnceLock<u64> = OnceLock::new();
    *FP.get_or_init(|| {
        let result = FedForecaster::new(cfg(None, 1), &train_meta())
            .run(&federation())
            .unwrap();
        run_fingerprint(&result)
    })
}

fn expect_injected_crash(result: Result<RunResult, EngineError>, what: &str) {
    match result {
        Err(EngineError::Checkpoint(CkptError::Crash(_))) => {}
        Err(e) => panic!("{what}: expected an injected crash, got error {e}"),
        Ok(_) => panic!("{what}: expected an injected crash, run completed"),
    }
}

/// Crashes a run logging to `path` at `point`, then resumes with the
/// crash disarmed and returns the resumed result's fingerprint.
fn crash_then_resume(path: &Path, point: CrashPoint, threads: usize) -> u64 {
    let mut ck = CkptConfig::at(path);
    ck.crash = Some(point);
    let crashed = FedForecaster::new(cfg(Some(ck), threads), &train_meta()).run(&federation());
    expect_injected_crash(crashed, &format!("{point:?}"));
    let resumed = FedForecaster::new(cfg(Some(CkptConfig::at(path)), threads), &train_meta())
        .resume(&federation())
        .unwrap();
    run_fingerprint(&resumed)
}

#[test]
fn checkpointed_run_matches_uncheckpointed_baseline() {
    let path = scratch("clean");
    let result = FedForecaster::new(cfg(Some(CkptConfig::at(&path)), 1), &train_meta())
        .run(&federation())
        .unwrap();
    let fp = run_fingerprint(&result);
    assert_eq!(fp, baseline_fp(), "checkpointing changed the result");
    // The log closed cleanly: header, two phases, one TrialDone per
    // trial, and a footer whose fingerprint matches.
    let read = read_wal(&path).unwrap();
    assert!(!read.is_torn());
    let records: Vec<Record> = read
        .records
        .iter()
        .map(|p| Record::decode(p))
        .collect::<Result<_, _>>()
        .unwrap();
    assert!(matches!(records[0], Record::RunStart { n_clients: 3, .. }));
    let trials = records
        .iter()
        .filter(|r| matches!(r, Record::TrialDone { .. }))
        .count();
    assert_eq!(trials, BUDGET);
    match records.last().unwrap() {
        Record::RunDone { result_fp } => assert_eq!(*result_fp, fp),
        other => panic!("log should end with RunDone, got {other:?}"),
    }
    clean_up(&path);
}

#[test]
fn kill_after_each_trial_resumes_bit_identical() {
    for n in 1..=BUDGET as u32 {
        let path = scratch(&format!("trial{n}"));
        let fp = crash_then_resume(&path, CrashPoint::AfterTrial(n), 1);
        assert_eq!(fp, baseline_fp(), "resume after trial {n} diverged");
        clean_up(&path);
    }
}

#[test]
fn kill_after_record_resumes_bit_identical() {
    // Record 1 is the run header; 2–3 the phase commits; 4+ the trials.
    for n in [1u32, 2, 3, 4, 6] {
        let path = scratch(&format!("record{n}"));
        let fp = crash_then_resume(&path, CrashPoint::AfterRecord(n), 1);
        assert_eq!(fp, baseline_fp(), "resume after record {n} diverged");
        clean_up(&path);
    }
}

#[test]
fn kill_mid_record_leaves_torn_tail_and_resumes_bit_identical() {
    for n in [1u32, 3, 5] {
        let name = format!("midrecord{n}");
        let path = scratch(&name);
        let mut ck = CkptConfig::at(&path);
        ck.crash = Some(CrashPoint::MidRecord(n));
        let crashed = FedForecaster::new(cfg(Some(ck), 1), &train_meta()).run(&federation());
        expect_injected_crash(crashed, &name);
        assert!(
            read_wal(&path).unwrap().is_torn(),
            "mid-record crash {n} should leave a torn tail"
        );
        let resumed = FedForecaster::new(cfg(Some(CkptConfig::at(&path)), 1), &train_meta())
            .resume(&federation())
            .unwrap();
        assert_eq!(
            run_fingerprint(&resumed),
            baseline_fp(),
            "resume over torn record {n} diverged"
        );
        clean_up(&path);
    }
}

#[test]
fn resume_is_bit_identical_across_thread_counts() {
    // Crash single-threaded, resume on four workers — and vice versa.
    // The checkpoint fingerprint deliberately excludes the thread policy;
    // PR 5/6's determinism contract makes the results interchangeable.
    let path = scratch("threads14");
    let fp_1_to_4 = {
        let mut ck = CkptConfig::at(&path);
        ck.crash = Some(CrashPoint::AfterTrial(3));
        expect_injected_crash(
            FedForecaster::new(cfg(Some(ck), 1), &train_meta()).run(&federation()),
            "threads14",
        );
        let resumed = FedForecaster::new(cfg(Some(CkptConfig::at(&path)), 4), &train_meta())
            .resume(&federation())
            .unwrap();
        run_fingerprint(&resumed)
    };
    assert_eq!(fp_1_to_4, baseline_fp(), "1-thread crash → 4-thread resume");
    clean_up(&path);
    let path = scratch("threads41");
    let fp_4_to_1 = crash_then_resume(&path, CrashPoint::AfterTrial(2), 4);
    assert_eq!(fp_4_to_1, baseline_fp(), "4-thread crash → 1-thread resume");
    clean_up(&path);
}

#[test]
fn corrupted_tail_after_crash_still_resumes_bit_identical() {
    // Each corruption lands on the log a real crash left behind; recovery
    // must fall back to the last valid record and re-execute the rest.
    type Corruption = fn(&std::path::Path);
    let corruptions: [(&str, Corruption); 3] = [
        ("truncated", |p| corrupt::truncate_tail(p, 7).unwrap()),
        ("bitflipped", |p| {
            let len = std::fs::metadata(p).unwrap().len();
            corrupt::flip_bit(p, len - 9, 3).unwrap();
        }),
        ("garbage", |p| {
            corrupt::append_garbage(p, 64, 0xC0FFEE).unwrap()
        }),
    ];
    for (what, corrupt_fn) in corruptions {
        let name = format!("corrupt-{what}");
        let path = scratch(&name);
        let mut ck = CkptConfig::at(&path);
        ck.crash = Some(CrashPoint::AfterTrial(3));
        expect_injected_crash(
            FedForecaster::new(cfg(Some(ck), 1), &train_meta()).run(&federation()),
            &name,
        );
        corrupt_fn(&path);
        let resumed = FedForecaster::new(cfg(Some(CkptConfig::at(&path)), 1), &train_meta())
            .resume(&federation())
            .unwrap();
        assert_eq!(
            run_fingerprint(&resumed),
            baseline_fp(),
            "resume after {what} tail diverged"
        );
        clean_up(&path);
    }
}

#[test]
fn resume_over_a_completed_log_reproduces_the_result() {
    let path = scratch("completed");
    let engine_cfg = cfg(Some(CkptConfig::at(&path)), 1);
    let first = FedForecaster::new(engine_cfg.clone(), &train_meta())
        .run(&federation())
        .unwrap();
    let again = FedForecaster::new(engine_cfg, &train_meta())
        .resume(&federation())
        .unwrap();
    assert_eq!(run_fingerprint(&again), run_fingerprint(&first));
    // Resume cut the first footer and the rerun committed its own: the
    // log holds one run, not a run with a second tail appended.
    let read = read_wal(&path).unwrap();
    assert!(!read.is_torn());
    let kinds: Vec<&str> = read
        .records
        .iter()
        .map(|p| match Record::decode(p).unwrap() {
            Record::RunStart { .. } => "start",
            Record::PhaseDone { .. } => "phase",
            Record::TrialDone { .. } => "trial",
            Record::RunDone { .. } => "done",
        })
        .collect();
    let mut expected = vec!["start", "phase", "phase"];
    expected.extend(std::iter::repeat_n("trial", first.evaluations));
    expected.push("done");
    assert_eq!(kinds, expected);
    clean_up(&path);
}

#[test]
fn resume_on_a_missing_log_degrades_to_a_fresh_run() {
    let path = scratch("never-written");
    let result = FedForecaster::new(cfg(Some(CkptConfig::at(&path)), 1), &train_meta())
        .resume(&federation())
        .unwrap();
    assert_eq!(run_fingerprint(&result), baseline_fp());
    assert!(path.exists(), "the fresh run should have started a new log");
    clean_up(&path);
}

#[test]
fn resume_without_checkpoint_config_is_refused() {
    let err = FedForecaster::new(cfg(None, 1), &train_meta())
        .resume(&federation())
        .unwrap_err();
    assert!(matches!(err, EngineError::InvalidData(_)), "got {err}");
}

#[test]
fn log_from_a_different_run_is_refused() {
    let path = scratch("foreign");
    let mut ck = CkptConfig::at(&path);
    ck.crash = Some(CrashPoint::AfterTrial(2));
    expect_injected_crash(
        FedForecaster::new(cfg(Some(ck), 1), &train_meta()).run(&federation()),
        "foreign",
    );
    // Different seed ⇒ different run: the header check must refuse it.
    let mut other = cfg(Some(CkptConfig::at(&path)), 1);
    other.seed = 124;
    let err = FedForecaster::new(other, &train_meta())
        .resume(&federation())
        .unwrap_err();
    assert!(
        matches!(err, EngineError::Checkpoint(CkptError::Corrupt(_))),
        "got {err}"
    );
    // A different budget changes the config fingerprint too.
    let mut other = cfg(Some(CkptConfig::at(&path)), 1);
    other.budget = Budget::Iterations(BUDGET + 1);
    assert!(FedForecaster::new(other, &train_meta())
        .resume(&federation())
        .is_err());
    clean_up(&path);
}

#[test]
fn a_file_that_was_never_a_log_is_a_clean_error() {
    let path = scratch("nonsense");
    std::fs::write(&path, b"this was never a checkpoint log").unwrap();
    let err = FedForecaster::new(cfg(Some(CkptConfig::at(&path)), 1), &train_meta())
        .resume(&federation())
        .unwrap_err();
    assert!(
        matches!(err, EngineError::Checkpoint(CkptError::Corrupt(_))),
        "got {err}"
    );
    clean_up(&path);
}
