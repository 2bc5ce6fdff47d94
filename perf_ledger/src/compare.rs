//! Compares two ledger records, metric by metric, against the bounds in
//! `BENCHMARK.json`. Used by the `ledger_compare` binary.

use crate::json::Json;

/// Record fields that identify the host; records differing in any are
/// not comparable.
const HOST_FIELDS: [&str; 3] = ["host_cpus", "par_workers", "ff_threads"];

/// The judgement on one workload × metric row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the bound.
    Better,
    /// Within the bound.
    Same,
    /// Worse by more than the bound.
    Worse,
    /// A side's quartile spread exceeds the bound: the runs cannot tell.
    Unresolved,
    /// The metric has no bound (per-layer metrics): shown, not judged.
    Info,
    /// The base record lacks this workload or metric.
    NoBaseline,
    /// The head record lacks a metric the base has.
    Missing,
}

impl Verdict {
    /// Whether the row fails the comparison.
    pub fn fails(self) -> bool {
        matches!(
            self,
            Verdict::Worse | Verdict::NoBaseline | Verdict::Missing
        )
    }

    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "info",
            Verdict::NoBaseline => "NO BASELINE",
            Verdict::Missing => "MISSING IN HEAD",
        }
    }
}

/// Direction and regression bound of a metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rule {
    /// True when a lower value is better.
    pub lower_is_better: bool,
    /// Share of the base value by which the metric may worsen; `None`
    /// for metrics `BENCHMARK.json` gives no bound.
    pub bound: Option<f64>,
}

/// The direction a metric's name implies when `BENCHMARK.json` does not
/// list it: times, sizes, failures, bytes and forecast error are lower
/// is better; anything else (rates such as `*_per_s`, ratios, counts of
/// work) higher.
pub fn lower_is_better_by_name(name: &str) -> bool {
    let time_or_size = ["_s", "_ms", "_us", "_mb"]
        .iter()
        .any(|s| name.ends_with(s));
    (time_or_size && !name.contains("_per_"))
        || ["failed_frac", "bytes_per_run", "test_mse_geo", "rel_mse"].contains(&name)
}

/// The rule for `name` from `BENCHMARK.json`'s `end_to_end` (bounded)
/// and `per_layer` (unbounded) lists, else from its name.
pub fn rule(benchmark: &Json, name: &str) -> Rule {
    for (list, bounded) in [("end_to_end", true), ("per_layer", false)] {
        let listed = benchmark
            .get(list)
            .map(Json::items)
            .unwrap_or(&[])
            .iter()
            .find(|m| m.get("name").and_then(Json::str) == Some(name));
        if let Some(m) = listed {
            return Rule {
                lower_is_better: m.get("better").and_then(Json::str) == Some("lower"),
                bound: if bounded {
                    m.get("bound").and_then(Json::num)
                } else {
                    None
                },
            };
        }
    }
    Rule {
        lower_is_better: lower_is_better_by_name(name),
        bound: None,
    }
}

/// One compared row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Base median, when present.
    pub base: Option<f64>,
    /// Head median, when present.
    pub head: Option<f64>,
    /// Relative change toward worse (positive = worse), when both exist.
    pub worse_by: Option<f64>,
    /// The judgement.
    pub verdict: Verdict,
}

/// Quartile spread of a record metric as a share of its median.
fn spread(m: &Json) -> f64 {
    let v = m.get("value").and_then(Json::num).unwrap_or(f64::NAN);
    let q1 = m.get("q1").and_then(Json::num).unwrap_or(v);
    let q3 = m.get("q3").and_then(Json::num).unwrap_or(v);
    if v == 0.0 {
        0.0
    } else {
        ((q3 - q1) / v).abs()
    }
}

/// Judges one metric present on both sides.
pub fn judge(base: &Json, head: &Json, rule: Rule) -> (f64, Verdict) {
    let b = base.get("value").and_then(Json::num).unwrap_or(f64::NAN);
    let h = head.get("value").and_then(Json::num).unwrap_or(f64::NAN);
    let change = if b == 0.0 { h - b } else { (h - b) / b.abs() };
    let worse_by = if rule.lower_is_better {
        change
    } else {
        -change
    };
    let Some(bound) = rule.bound else {
        return (worse_by, Verdict::Info);
    };
    let verdict = if spread(base).max(spread(head)) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (worse_by, verdict)
}

/// Host fields that differ between the records, as `field: base vs head`.
pub fn host_mismatches(base: &Json, head: &Json) -> Vec<String> {
    HOST_FIELDS
        .iter()
        .filter_map(|f| {
            let (b, h) = (base.get(f), head.get(f));
            (b != h).then(|| {
                let show = |v: Option<&Json>| v.map_or("absent".into(), |v| v.to_string());
                format!("{f}: {} vs {}", show(b), show(h))
            })
        })
        .collect()
}

/// Every workload × metric row of `head`, plus the base metrics head
/// lacks.
pub fn compare(benchmark: &Json, base: &Json, head: &Json) -> Vec<Row> {
    let empty = Json::Obj(Vec::new());
    let base_w = base.get("workloads").unwrap_or(&empty);
    let mut rows = Vec::new();
    for (workload, hw) in head.get("workloads").map(Json::fields).unwrap_or(&[]) {
        let bw = base_w.get(workload);
        let base_metrics = bw.and_then(|b| b.get("metrics")).unwrap_or(&empty);
        let head_metrics = hw.get("metrics").unwrap_or(&empty);
        for (metric, hm) in head_metrics.fields() {
            let value = |m: &Json| m.get("value").and_then(Json::num);
            let mut row = Row {
                workload: workload.clone(),
                metric: metric.clone(),
                base: None,
                head: value(hm),
                worse_by: None,
                verdict: Verdict::NoBaseline,
            };
            if let Some(bm) = base_metrics.get(metric) {
                let (worse_by, verdict) = judge(bm, hm, rule(benchmark, metric));
                row.base = value(bm);
                row.worse_by = Some(worse_by);
                row.verdict = verdict;
            }
            rows.push(row);
        }
        for (metric, bm) in base_metrics.fields() {
            if head_metrics.get(metric).is_none() {
                rows.push(Row {
                    workload: workload.clone(),
                    metric: metric.clone(),
                    base: bm.get("value").and_then(Json::num),
                    head: None,
                    worse_by: None,
                    verdict: Verdict::Missing,
                });
            }
        }
    }
    rows
}

/// The rows as an aligned table.
pub fn render(rows: &[Row]) -> String {
    let num = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.6}"));
    let mut out = format!(
        "{:<13} {:<30} {:>16} {:>16} {:>9}  verdict\n",
        "workload", "metric", "base", "head", "worse by"
    );
    for r in rows {
        let worse = r
            .worse_by
            .map_or("-".to_string(), |w| format!("{:+.1}%", w * 100.0));
        out.push_str(&format!(
            "{:<13} {:<30} {:>16} {:>16} {:>9}  {}\n",
            r.workload,
            r.metric,
            num(r.base),
            num(r.head),
            worse,
            r.verdict.label()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark() -> Json {
        Json::parse(
            r#"{"end_to_end": [
                {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.1},
                {"name": "rel_mse", "unit": "ratio", "better": "lower", "bound": 0.05}],
              "per_layer": [{"name": "par.tasks", "unit": "count", "better": "higher"}]}"#,
        )
        .unwrap()
    }

    fn record(workloads: &str) -> Json {
        Json::parse(&format!(
            r#"{{"bench": "perf_ledger", "host_cpus": 2, "par_workers": 2,
                "ff_threads": null, "workloads": {{{workloads}}}}}"#
        ))
        .unwrap()
    }

    fn metric(value: f64, q1: f64, q3: f64) -> String {
        format!(r#"{{"value": {value}, "q1": {q1}, "q3": {q3}, "n": 10, "unit": "s"}}"#)
    }

    fn verdict_of(base: &str, head: &str) -> Verdict {
        let base = record(&format!(r#""w": {{"metrics": {{"run_s": {base}}}}}"#));
        let head = record(&format!(r#""w": {{"metrics": {{"run_s": {head}}}}}"#));
        let rows = compare(&benchmark(), &base, &head);
        assert_eq!(rows.len(), 1);
        rows[0].verdict
    }

    #[test]
    fn a_drop_beyond_the_bound_is_better() {
        assert_eq!(
            verdict_of(&metric(1.0, 0.99, 1.01), &metric(0.8, 0.79, 0.81)),
            Verdict::Better
        );
    }

    #[test]
    fn a_change_within_the_bound_is_same() {
        assert_eq!(
            verdict_of(&metric(1.0, 0.99, 1.01), &metric(1.05, 1.04, 1.06)),
            Verdict::Same
        );
    }

    #[test]
    fn a_rise_beyond_the_bound_is_worse() {
        let v = verdict_of(&metric(1.0, 0.99, 1.01), &metric(1.2, 1.19, 1.21));
        assert_eq!(v, Verdict::Worse);
        assert!(v.fails());
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        assert_eq!(
            verdict_of(&metric(1.0, 0.9, 1.1), &metric(1.2, 1.19, 1.21)),
            Verdict::Unresolved
        );
        assert!(!Verdict::Unresolved.fails());
    }

    #[test]
    fn missing_baselines_fail_instead_of_passing_silently() {
        let base = record(r#""w": {"metrics": {}}"#);
        let head = record(&format!(
            r#""w": {{"metrics": {{"run_s": {}}}}}, "v": {{"metrics": {{"run_s": {}}}}}"#,
            metric(1.0, 1.0, 1.0),
            metric(1.0, 1.0, 1.0)
        ));
        let rows = compare(&benchmark(), &base, &head);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.verdict == Verdict::NoBaseline));
        assert!(rows.iter().all(|r| r.verdict.fails()));
        assert!(render(&rows).contains("NO BASELINE"));
    }

    #[test]
    fn a_metric_dropped_from_head_fails() {
        let base = record(&format!(
            r#""w": {{"metrics": {{"run_s": {}}}}}"#,
            metric(1.0, 1.0, 1.0)
        ));
        let head = record(r#""w": {"metrics": {}}"#);
        let rows = compare(&benchmark(), &base, &head);
        assert_eq!(rows[0].verdict, Verdict::Missing);
        assert!(rows[0].verdict.fails());
    }

    #[test]
    fn directions_come_from_the_benchmark_then_the_name() {
        let b = benchmark();
        assert!(rule(&b, "run_s").lower_is_better);
        assert_eq!(rule(&b, "run_s").bound, Some(0.1));
        let layer = rule(&b, "par.tasks");
        assert!(!layer.lower_is_better);
        assert_eq!(layer.bound, None);
        for lower in [
            "x_s",
            "x_ms",
            "x_us",
            "peak_rss_mb",
            "failed_frac",
            "bytes_per_run",
            "test_mse_geo",
        ] {
            assert!(rule(&b, lower).lower_is_better, "{lower}");
        }
        assert!(!rule(&b, "forecasts_per_s").lower_is_better);
        // A higher-is-better metric that fell is worse.
        let (worse_by, v) = judge(
            &Json::parse(r#"{"value": 100}"#).unwrap(),
            &Json::parse(r#"{"value": 50}"#).unwrap(),
            Rule {
                lower_is_better: false,
                bound: Some(0.25),
            },
        );
        assert_eq!((worse_by, v), (0.5, Verdict::Worse));
    }

    #[test]
    fn unbounded_metrics_are_shown_not_judged() {
        let (_, v) = judge(
            &Json::parse(r#"{"value": 1}"#).unwrap(),
            &Json::parse(r#"{"value": 9}"#).unwrap(),
            rule(&benchmark(), "par.tasks"),
        );
        assert_eq!(v, Verdict::Info);
        assert!(!v.fails());
    }

    #[test]
    fn differing_hosts_are_reported() {
        let a = record("");
        let mut b = record("");
        if let Json::Obj(fields) = &mut b {
            for (k, v) in fields.iter_mut() {
                if k == "host_cpus" {
                    *v = Json::Num(8.0);
                }
            }
        }
        assert!(host_mismatches(&a, &a).is_empty());
        assert_eq!(
            host_mismatches(&a, &b),
            vec!["host_cpus: 2 vs 8".to_string()]
        );
    }
}
