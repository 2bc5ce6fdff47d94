//! `perf_ledger`: runs one workload (or each in its own child process)
//! and prints its metrics. See the library docs for the workloads, the
//! metrics and how to compare two records.

use perf_ledger::json::Json;
use perf_ledger::workloads::{self, Opts, Workload};
use perf_ledger::Host;
use std::path::{Path, PathBuf};
use std::process::{exit, Command};

const USAGE: &str =
    "usage: perf_ledger --workload train_flat|train_search|serve_hot|serve_cold|all \
[--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]";

struct Args {
    workload: Option<Workload>,
    opts: Opts,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: 0,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            opts.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" if value == "all" => workload = None,
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !args.iter().any(|a| a == "--workload") {
        return Err("--workload is required".into());
    }
    Ok(Args {
        workload,
        opts,
        out,
    })
}

/// `dir/stem.<workload>.<ext>` beside `out`.
fn beside(out: &Path, workload: &str, ext: &str) -> PathBuf {
    let stem = out.file_stem().and_then(|s| s.to_str()).unwrap_or("ledger");
    out.with_file_name(format!("{stem}.{workload}.{ext}"))
}

fn write(path: &Path, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("perf_ledger: {}: {e}", path.display());
        exit(1);
    }
}

fn run_one(w: Workload, args: &Args, host: &Host) {
    let report = match workloads::run(w, &args.opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perf_ledger: {}: {e}", w.name());
            exit(1);
        }
    };
    print!("{}", report.profile_table);
    for m in &report.outcome.metrics {
        println!("{} {} {} {}", w.name(), m.name, m.value, m.unit);
    }
    if let Some(out) = &args.out {
        let o = &args.opts;
        let entry = report.outcome.record_entry();
        write(
            out,
            &perf_ledger::record(host, o.seed, o.seconds, o.trace, &[entry]),
        );
        if o.trace {
            write(&beside(out, w.name(), "folded"), &report.folded);
        }
    }
    println!("{}", report.outcome.result_line());
}

/// Runs every workload in its own child process, so each reports its
/// own peak RSS, and merges their records into `--out`.
fn run_all(args: &Args, raw: &[String], host: &Host) {
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("perf_ledger: current_exe: {e}");
        exit(1)
    });
    let mut entries = Vec::new();
    let mut failed = false;
    for w in Workload::ALL {
        let mut child_args: Vec<String> = Vec::new();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--smoke" => child_args.push(a.clone()),
                "--workload" | "--out" => {
                    it.next();
                }
                _ => child_args.extend([a.clone(), it.next().cloned().unwrap_or_default()]),
            }
        }
        child_args.extend(["--workload".into(), w.name().into()]);
        let part = args.out.as_ref().map(|out| beside(out, w.name(), "json"));
        if let Some(p) = &part {
            child_args.extend(["--out".into(), p.display().to_string()]);
        }
        let status = Command::new(&exe).args(&child_args).status();
        if !matches!(status, Ok(s) if s.success()) {
            eprintln!("perf_ledger: {} failed ({status:?})", w.name());
            failed = true;
            continue;
        }
        if let Some(p) = part {
            let text = std::fs::read_to_string(&p).unwrap_or_default();
            let _ = std::fs::remove_file(&p);
            match Json::parse(&text) {
                Ok(doc) => {
                    for (name, entry) in doc.get("workloads").map(Json::fields).unwrap_or(&[]) {
                        entries.push(format!("{}: {entry}", Json::Str(name.clone())));
                    }
                }
                Err(e) => {
                    eprintln!("perf_ledger: {}: {e}", p.display());
                    failed = true;
                }
            }
        }
    }
    if let Some(out) = &args.out {
        let o = &args.opts;
        write(
            out,
            &perf_ledger::record(host, o.seed, o.seconds, o.trace, &entries),
        );
    }
    if failed {
        exit(1);
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = parse(&raw).unwrap_or_else(|e| {
        eprintln!("perf_ledger: {e}\n{USAGE}");
        exit(2)
    });
    let host = Host::current();
    ff_par::set_global_threads(host.par_workers);
    match args.workload {
        Some(w) => run_one(w, &args, &host),
        None => run_all(&args, &raw, &host),
    }
}
