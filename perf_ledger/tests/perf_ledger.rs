//! Runs every workload at smoke size, untraced and traced, and checks
//! that each metric `BENCHMARK.json` lists for the mode is printed once
//! as `workload metric value unit`, with its unit and a finite value,
//! and that the result line carries exactly the same metrics.

use perf_ledger::json::Json;
use perf_ledger::workloads::Workload;
use std::process::Command;

fn benchmark() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn run(workload: &str, trace: &str, extra: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perf_ledger"))
        .args(["--workload", workload, "--smoke", "--seconds", "0.5"])
        .args(["--trace", trace])
        .args(extra)
        .output()
        .expect("run perf_ledger");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn check(workload: &str) {
    let bench = benchmark();
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let stdout = run(workload, trace, &[]);
        let lines: Vec<&str> = stdout.lines().collect();
        let result = Json::parse(lines.last().expect("output")).expect("result line parses");
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
        assert!(result.get("attempted").and_then(Json::num).unwrap() >= 1.0);
        let reported = result.get("metrics").expect("metrics");
        let listed = bench.get(list).expect("metric list").items();
        assert_eq!(reported.fields().len(), listed.len(), "{workload} {list}");
        for m in listed {
            let name = m.get("name").and_then(Json::str).unwrap();
            let unit = m.get("unit").and_then(Json::str).unwrap();
            let printed: Vec<Vec<&str>> = lines
                .iter()
                .map(|l| l.split(' ').collect::<Vec<_>>())
                .filter(|f| f.len() == 4 && f[0] == workload && f[1] == name)
                .collect();
            assert_eq!(printed.len(), 1, "{workload}: {name} printed once");
            let value: f64 = printed[0][2].parse().expect("numeric value");
            assert!(value.is_finite(), "{workload}: {name} = {value}");
            assert_eq!(printed[0][3], unit, "{workload}: {name} unit");
            let r = reported.get(name).expect("metric in the result line");
            assert_eq!(r.get("value").and_then(Json::num), Some(value));
            assert_eq!(r.get("unit").and_then(Json::str), Some(unit));
        }
    }
}

#[test]
fn train_flat_prints_every_metric() {
    check("train_flat");
}

#[test]
fn train_search_prints_every_metric() {
    check("train_search");
}

#[test]
fn serve_hot_prints_every_metric() {
    check("serve_hot");
}

#[test]
fn serve_cold_prints_every_metric() {
    check("serve_cold");
}

#[test]
fn benchmark_lists_exactly_the_workloads() {
    let listed: Vec<String> = benchmark()
        .get("workloads")
        .unwrap()
        .items()
        .iter()
        .map(|w| w.get("name").and_then(Json::str).unwrap().to_string())
        .collect();
    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(listed, known);
}

#[test]
fn the_record_carries_run_metadata() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("ledger-record");
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("ledger.json");
    run(
        "serve_hot",
        "0",
        &["--seed", "3", "--out", out.to_str().unwrap()],
    );
    let record = Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    assert_eq!(record.get("bench").and_then(Json::str), Some("perf_ledger"));
    assert_eq!(record.get("seed").and_then(Json::num), Some(3.0));
    for field in ["host_cpus", "par_workers"] {
        assert!(
            record.get(field).and_then(Json::num).unwrap() >= 1.0,
            "{field}"
        );
    }
    assert!(record.get("ff_threads").is_some());
    assert!(!record
        .get("git_rev")
        .and_then(Json::str)
        .unwrap()
        .is_empty());
    let run_s = record
        .get("workloads")
        .and_then(|w| w.get("serve_hot"))
        .and_then(|w| w.get("metrics"))
        .and_then(|m| m.get("run_s"))
        .expect("serve_hot run_s in the record");
    for field in ["value", "q1", "q3", "n"] {
        assert!(run_s.get(field).and_then(Json::num).is_some(), "{field}");
    }
}
