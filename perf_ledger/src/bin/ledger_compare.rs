//! `ledger_compare`: one row per workload × metric between two
//! `perf_ledger --out` records, judged by `BENCHMARK.json`.
//!
//! ```text
//! ledger_compare --base A.json --head B.json [--benchmark BENCHMARK.json]
//! ```
//!
//! Exits 1 when a bounded metric got worse, when the base lacks a
//! workload or metric the head reports (no baseline), when the head
//! lacks one the base reports, or when the records come from different
//! hosts; 2 on unusable input.

use perf_ledger::compare::{compare, host_mismatches, render};
use perf_ledger::json::Json;
use std::process::exit;

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("ledger_compare: {path}: {e}");
        exit(2)
    });
    Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("ledger_compare: {path}: {e}");
        exit(2)
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let (Some(base), Some(head)) = (arg("--base"), arg("--head")) else {
        eprintln!("usage: ledger_compare --base A.json --head B.json [--benchmark BENCHMARK.json]");
        exit(2)
    };
    let benchmark = load(&arg("--benchmark").unwrap_or_else(|| "BENCHMARK.json".into()));
    let (base, head) = (load(&base), load(&head));

    let mismatches = host_mismatches(&base, &head);
    for m in &mismatches {
        println!("HOST MISMATCH {m}: these records are not comparable");
    }
    let rows = compare(&benchmark, &base, &head);
    print!("{}", render(&rows));
    let failing = rows.iter().filter(|r| r.verdict.fails()).count();
    println!(
        "{} rows, {failing} failing, {} host mismatches",
        rows.len(),
        mismatches.len()
    );
    if failing > 0 || !mismatches.is_empty() {
        exit(1);
    }
}
