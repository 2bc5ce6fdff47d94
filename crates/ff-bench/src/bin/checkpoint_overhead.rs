//! **Checkpoint overhead benchmark** — the cost of crash tolerance,
//! written as JSON to `--out`:
//!
//! - `overhead_pct`: wall-clock overhead of a checkpointed engine run
//!   (fsync-per-trial) over the identical uncheckpointed run — the
//!   acceptance budget is < 5%, and the bin exits non-zero past it;
//! - `wal.records_per_s` / `wal.bytes_per_record`: framing + CRC + write
//!   throughput of the log itself (fsync off, so the number measures the
//!   codec, not the disk);
//! - `wal.fsync_append_us`: median durable-append latency (fsync on);
//! - `bytes_per_trial`: log growth per committed trial on the real
//!   engine workload;
//! - `resume.recovery_ms`: time to read, verify, truncate-to-resume-point,
//!   and build the replay from a crashed run's log.
//!
//! ```text
//! cargo run -p ff-bench --release --bin checkpoint_overhead -- \
//!     [--iters 10] [--out checkpoint_overhead.json]
//! ```
//!
//! The logs are written under a per-process temporary directory, which
//! is removed before the bin exits.

use fedforecaster::ckpt::{config_fingerprint, run_fingerprint, CkptSink};
use fedforecaster::prelude::*;
use ff_bench::Args;
use ff_ckpt::{read_wal, CrashPoint, Wal};
use ff_metalearn::kb::KnowledgeBase;
use ff_metalearn::metamodel::{MetaClassifierKind, MetaModel};
use ff_timeseries::synthesis::{generate, SeasonSpec, SynthesisSpec, TrendSpec};
use ff_timeseries::TimeSeries;
use ff_trace::push_json_f64;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// A realistically-sized federation: per-trial training cost must be in
/// production territory, or the one fsync per trial dominates and the
/// overhead number says nothing about real deployments.
fn federation(n: usize, clients: usize) -> Vec<TimeSeries> {
    let s = generate(
        &SynthesisSpec {
            n,
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
    s.split_clients(clients)
}

fn train_meta() -> MetaModel {
    let kb = KnowledgeBase::build(&ff_metalearn::synth::synthetic_kb(8), &[2], 50);
    MetaModel::train(&kb, MetaClassifierKind::RandomForest, 0).expect("meta-model")
}

fn cfg(iters: usize, checkpoint: Option<CkptConfig>) -> EngineConfig {
    EngineConfig {
        budget: Budget::Iterations(iters),
        seed: 123,
        checkpoint,
        ..Default::default()
    }
}

fn scratch_dir() -> PathBuf {
    std::env::temp_dir().join(format!("ff-ckpt-bench-{}", std::process::id()))
}

fn scratch(name: &str) -> PathBuf {
    let dir = scratch_dir();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

fn main() {
    let args = Args::parse();
    let iters = args.usize("iters", 10);
    let out = args.string("out", "checkpoint_overhead.json");
    let meta = train_meta();
    let n = args.usize("n", 4000);
    let clients = federation(n, args.usize("clients", 4));

    // Engine overhead: identical seeded runs, checkpointing off vs on
    // (fsync-per-trial, the production default). Each variant repeats
    // `reps` times and keeps the minimum — a single short run is at the
    // mercy of scheduler jitter, and the minimum is the least-disturbed
    // observation of the same deterministic work.
    let reps = args.usize("reps", 7);
    let _ = FedForecaster::new(cfg(iters, None), &meta).run(&clients);
    let mut plain_s = f64::INFINITY;
    let mut plain_fp = 0u64;
    for _ in 0..reps {
        let t = Instant::now();
        let r = FedForecaster::new(cfg(iters, None), &meta)
            .run(&clients)
            .expect("plain run");
        plain_s = plain_s.min(t.elapsed().as_secs_f64());
        plain_fp = run_fingerprint(&r);
    }
    let wal = scratch("overhead.wal");
    let mut ckpt_s = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        let r = FedForecaster::new(cfg(iters, Some(CkptConfig::at(&wal))), &meta)
            .run(&clients)
            .expect("checkpointed run");
        ckpt_s = ckpt_s.min(t.elapsed().as_secs_f64());
        assert_eq!(
            plain_fp,
            run_fingerprint(&r),
            "checkpointing changed the result"
        );
    }
    let overhead_pct = (ckpt_s / plain_s - 1.0) * 100.0;
    let log_bytes = std::fs::metadata(&wal).expect("wal metadata").len();
    let bytes_per_trial = log_bytes as f64 / iters as f64;

    // WAL micro-benchmarks on a representative 384-byte record.
    let payload = vec![0xA5u8; 384];
    let micro = scratch("micro.wal");
    let mut w = Wal::create(&micro).expect("wal create");
    w.set_fsync(false);
    let n = 20_000u32;
    let t = Instant::now();
    for _ in 0..n {
        w.append(&payload).expect("append");
    }
    let records_per_s = n as f64 / t.elapsed().as_secs_f64();
    let bytes_per_record = w.bytes() as f64 / w.records() as f64;
    let durable = scratch("durable.wal");
    let mut w = Wal::create(&durable).expect("wal create");
    let n_sync = 64u32;
    let t = Instant::now();
    for _ in 0..n_sync {
        w.append(&payload).expect("durable append");
    }
    let fsync_append_us = t.elapsed().as_secs_f64() * 1e6 / n_sync as f64;

    // Recovery latency: crash mid-run, then time only the log-recovery
    // step (read + header verify + truncate to the resume point + replay
    // construction) — the rest of a resume is ordinary re-execution.
    let crashed = scratch("crashed.wal");
    let mut ck = CkptConfig::at(&crashed);
    ck.crash = Some(CrashPoint::AfterTrial((iters / 2).max(1) as u32));
    let crash_cfg = cfg(iters, Some(ck));
    assert!(
        FedForecaster::new(crash_cfg.clone(), &meta)
            .run(&clients)
            .is_err(),
        "injected crash must fire"
    );
    let fp = config_fingerprint(&crash_cfg);
    let t = Instant::now();
    let (_sink, replay) = CkptSink::resume(
        &CkptConfig::at(&crashed),
        crash_cfg.seed,
        fp,
        clients.len() as u32,
        ff_trace::Tracer::disabled(),
    )
    .expect("log recovery");
    let recovery_ms = t.elapsed().as_secs_f64() * 1e3;
    let replayed_trials = replay.map(|r| r.trials.len()).unwrap_or(0);
    let log_records = read_wal(&crashed).expect("read crashed wal").records.len();
    let _ = std::fs::remove_dir_all(scratch_dir());

    let mut json = String::from("{\n  \"bench\": \"checkpoint_overhead\",\n");
    let _ = write!(json, "  \"iters\": {iters},\n  \"overhead_pct\": ");
    push_json_f64(&mut json, overhead_pct);
    let _ = write!(json, ",\n  \"plain_s\": ");
    push_json_f64(&mut json, plain_s);
    let _ = write!(json, ",\n  \"checkpointed_s\": ");
    push_json_f64(&mut json, ckpt_s);
    let _ = write!(json, ",\n  \"bytes_per_trial\": ");
    push_json_f64(&mut json, bytes_per_trial);
    let _ = write!(json, ",\n  \"wal\": {{\"records_per_s\": ");
    push_json_f64(&mut json, records_per_s);
    let _ = write!(json, ", \"bytes_per_record\": ");
    push_json_f64(&mut json, bytes_per_record);
    let _ = write!(json, ", \"fsync_append_us\": ");
    push_json_f64(&mut json, fsync_append_us);
    let _ = write!(json, "}},\n  \"resume\": {{\"recovery_ms\": ");
    push_json_f64(&mut json, recovery_ms);
    let _ = write!(
        json,
        ", \"replayed_trials\": {replayed_trials}, \"log_records\": {log_records}}}\n}}\n"
    );
    std::fs::write(&out, &json).expect("write bench json");
    print!("{json}");
    println!("wrote {out}");

    if overhead_pct >= 5.0 {
        eprintln!("checkpoint overhead {overhead_pct:.2}% breaches the 5% budget");
        std::process::exit(1);
    }
}
