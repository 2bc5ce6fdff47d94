//! Live metrics exposition: a tiny std-only TCP listener serving
//! Prometheus text-format snapshots plus a `/healthz` round-liveness
//! probe.
//!
//! Deliberately bounded: one named thread, sequential connection
//! handling (the accept loop *is* the handler, so concurrency is exactly
//! one), a request-size cap, a read timeout, and snapshot-on-scrape —
//! each `/metrics` hit takes one fresh [`Telemetry`] snapshot and
//! renders it, so a scrape can never observe torn state. Off by
//! default: nothing listens unless the engine was configured with an
//! exposition port.

use crate::hist::Histogram;
use crate::tracer::{MetricId, Telemetry, Tracer};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Exposition-endpoint configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpoConfig {
    /// Port to bind on 127.0.0.1 (0 picks an ephemeral port; read it
    /// back from [`ExpoServer::addr`]).
    pub port: u16,
    /// Request-line cap; longer requests get `414` and a closed socket.
    pub max_request_bytes: usize,
    /// Per-connection read timeout.
    pub read_timeout: Duration,
    /// `/healthz` staleness window: the probe reports `503` when the
    /// newest span/event activity is older than this at scrape time.
    pub liveness_window: Duration,
}

impl Default for ExpoConfig {
    fn default() -> Self {
        ExpoConfig {
            port: 0,
            max_request_bytes: 4096,
            read_timeout: Duration::from_millis(500),
            liveness_window: Duration::from_secs(30),
        }
    }
}

/// The running exposition server. Dropping it stops the listener thread:
/// it raises the stop flag and connects once to wake the blocked
/// `accept`, then joins the thread if that connection went through.
#[derive(Debug)]
pub struct ExpoServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    served: Arc<AtomicU64>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ExpoServer {
    /// Binds 127.0.0.1:`cfg.port` and serves scrapes of `tracer` until
    /// dropped. The tracer may be disabled — scrapes then see an empty
    /// snapshot (and `/healthz` reports stale), but the listener itself
    /// works, so a probe can distinguish "process up, tracing off" from
    /// "process gone".
    pub fn start(tracer: Tracer, cfg: ExpoConfig) -> std::io::Result<ExpoServer> {
        let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let served = Arc::new(AtomicU64::new(0));
        let (stop2, served2) = (Arc::clone(&stop), Arc::clone(&served));
        let handle = std::thread::Builder::new()
            .name("ff-expo".into())
            .spawn(move || {
                // `accept` blocks, so the flag is read after it returns:
                // `Drop` raises the flag, then connects once to wake it.
                for conn in listener.incoming() {
                    if stop2.load(Ordering::Acquire) {
                        break;
                    }
                    match conn {
                        // Sequential by construction: the accept loop is
                        // the handler, so at most one connection is ever
                        // in flight.
                        Ok(stream) => {
                            if handle_conn(stream, &tracer, &cfg).is_ok() {
                                served2.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(10)),
                    }
                }
            })?;
        Ok(ExpoServer {
            addr,
            stop,
            served,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections served so far.
    pub fn requests_served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }
}

impl Drop for ExpoServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if TcpStream::connect(self.addr).is_ok() {
            if let Some(h) = self.handle.take() {
                let _ = h.join();
            }
        }
    }
}

fn handle_conn(mut stream: TcpStream, tracer: &Tracer, cfg: &ExpoConfig) -> std::io::Result<()> {
    stream.set_read_timeout(Some(cfg.read_timeout))?;
    stream.set_nodelay(true).ok();
    let mut buf = vec![0u8; cfg.max_request_bytes];
    let mut len = 0usize;
    // Read until the end of the request head (blank line) or the cap.
    loop {
        match stream.read(&mut buf[len..]) {
            Ok(0) => break,
            Ok(n) => {
                len += n;
                if buf[..len].windows(4).any(|w| w == b"\r\n\r\n")
                    || buf[..len].windows(2).any(|w| w == b"\n\n")
                {
                    break;
                }
                if len == buf.len() {
                    let r = respond(&mut stream, 414, "text/plain", "request too large\n");
                    // Drain what the client already sent (bounded by the
                    // read timeout and a byte cap) so closing with unread
                    // data does not RST the response away.
                    let mut sink = [0u8; 1024];
                    let mut drained = 0usize;
                    while drained < (1 << 20) {
                        match stream.read(&mut sink) {
                            Ok(0) | Err(_) => break,
                            Ok(n) => drained += n,
                        }
                    }
                    return r;
                }
            }
            Err(_) => break,
        }
    }
    let head = String::from_utf8_lossy(&buf[..len]);
    let mut parts = head.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method != "GET" {
        return respond(&mut stream, 405, "text/plain", "method not allowed\n");
    }
    match path {
        "/metrics" => {
            let body = render_prometheus(&tracer.snapshot());
            respond(
                &mut stream,
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
            )
        }
        "/healthz" => {
            let snap = tracer.snapshot();
            let (alive, detail) = liveness(&snap, cfg.liveness_window);
            let rounds = snap.counter("fleet.rounds") + snap.counter("fl.rounds");
            let body = format!(
                "{}\nrounds: {}\n{}\n",
                if alive { "ok" } else { "stale" },
                rounds,
                detail
            );
            respond(
                &mut stream,
                if alive { 200 } else { 503 },
                "text/plain",
                &body,
            )
        }
        _ => respond(&mut stream, 404, "text/plain", "not found\n"),
    }
}

fn respond(stream: &mut TcpStream, code: u16, ctype: &str, body: &str) -> std::io::Result<()> {
    let reason = match code {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        414 => "URI Too Long",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Round liveness judged from the snapshot itself: the newest span
/// start/end or event timestamp, compared against the capture instant.
/// No side channel between the fleet loop and the server is needed —
/// an active run keeps producing spans, a hung one stops.
fn liveness(t: &Telemetry, window: Duration) -> (bool, String) {
    let mut last: Option<u64> = None;
    for s in &t.spans {
        last = last.max(Some(s.end_us.unwrap_or(s.start_us)));
    }
    for e in &t.events {
        last = last.max(Some(e.at_us));
    }
    match last {
        None => (false, "no activity recorded".into()),
        Some(l) => {
            let idle_us = t.captured_us.saturating_sub(l);
            (
                idle_us <= window.as_micros() as u64,
                format!("idle_us: {idle_us}"),
            )
        }
    }
}

/// Sanitizes a metric name into the Prometheus charset, prefixed `ff_`.
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 3);
    out.push_str("ff_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".into()
    } else if v == f64::INFINITY {
        "+Inf".into()
    } else if v == f64::NEG_INFINITY {
        "-Inf".into()
    } else {
        format!("{v}")
    }
}

fn label_suffix(id: &MetricId) -> String {
    match id.label {
        Some(l) => format!("{{label=\"{l}\"}}"),
        None => String::new(),
    }
}

/// Renders one snapshot in the Prometheus text exposition format
/// (version 0.0.4): counters (`_total`-suffixed), gauges, and log-bucket
/// histograms as cumulative `le` series with `_sum`/`_count`.
pub fn render_prometheus(t: &Telemetry) -> String {
    let mut out = String::new();
    // Counters are sorted by MetricId, so equal names are consecutive:
    // emit one TYPE line per family.
    let mut prev: Option<&str> = None;
    for (id, v) in &t.counters {
        let fam = sanitize(id.name);
        if prev != Some(id.name) {
            out.push_str(&format!("# TYPE {fam}_total counter\n"));
            prev = Some(id.name);
        }
        out.push_str(&format!("{fam}_total{} {v}\n", label_suffix(id)));
    }
    prev = None;
    for (id, v) in &t.gauges {
        let fam = sanitize(id.name);
        if prev != Some(id.name) {
            out.push_str(&format!("# TYPE {fam} gauge\n"));
            prev = Some(id.name);
        }
        out.push_str(&format!("{fam}{} {}\n", label_suffix(id), fmt_value(*v)));
    }
    prev = None;
    for (id, h) in &t.histograms {
        let fam = sanitize(id.name);
        if prev != Some(id.name) {
            out.push_str(&format!("# TYPE {fam} histogram\n"));
            prev = Some(id.name);
        }
        push_histogram(&mut out, &fam, id, h);
    }
    out
}

fn push_histogram(out: &mut String, fam: &str, id: &MetricId, h: &Histogram) {
    let extra_label = id.label.map(|l| format!("label=\"{l}\""));
    let mut cumulative = 0u64;
    for (idx, count) in h.buckets() {
        cumulative += count;
        let (_, hi) = Histogram::bucket_bounds(idx);
        let le = if hi.is_finite() {
            format!("{hi}")
        } else {
            "+Inf".into()
        };
        push_hist_sample(
            out,
            fam,
            "_bucket",
            &extra_label,
            Some(&le),
            cumulative as f64,
        );
    }
    push_hist_sample(
        out,
        fam,
        "_bucket",
        &extra_label,
        Some("+Inf"),
        h.count() as f64,
    );
    push_hist_sample(out, fam, "_sum", &extra_label, None, h.sum());
    push_hist_sample(out, fam, "_count", &extra_label, None, h.count() as f64);
}

fn push_hist_sample(
    out: &mut String,
    fam: &str,
    suffix: &str,
    extra_label: &Option<String>,
    le: Option<&str>,
    value: f64,
) {
    out.push_str(fam);
    out.push_str(suffix);
    let mut labels: Vec<String> = Vec::new();
    if let Some(l) = extra_label {
        labels.push(l.clone());
    }
    if let Some(le) = le {
        labels.push(format!("le=\"{le}\""));
    }
    if !labels.is_empty() {
        out.push('{');
        out.push_str(&labels.join(","));
        out.push('}');
    }
    out.push(' ');
    out.push_str(&fmt_value(value));
    out.push('\n');
}

/// Structural validation of a Prometheus text exposition: every sample
/// line parses, every family has a `# TYPE` line *before* its first
/// sample, names are in the legal charset, and histogram samples only
/// use the declared suffixes. Used by the CI smoke step and tests.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    let mut types: Vec<(String, String)> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let (name, kind) = (
                it.next().ok_or(format!("line {n}: TYPE without name"))?,
                it.next().ok_or(format!("line {n}: TYPE without kind"))?,
            );
            if !matches!(
                kind,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return Err(format!("line {n}: unknown TYPE kind {kind}"));
            }
            types.push((name.to_string(), kind.to_string()));
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let name_end = line
            .find(['{', ' '])
            .ok_or(format!("line {n}: no value separator"))?;
        let name = &line[..name_end];
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
            || name.starts_with(|c: char| c.is_ascii_digit())
        {
            return Err(format!("line {n}: illegal metric name {name:?}"));
        }
        // The family must have been declared before its first sample.
        let declared = types.iter().any(|(t, kind)| {
            name == t
                || (kind == "histogram"
                    && [
                        format!("{t}_bucket"),
                        format!("{t}_sum"),
                        format!("{t}_count"),
                    ]
                    .contains(&name.to_string()))
        });
        if !declared {
            return Err(format!("line {n}: sample {name} precedes its TYPE line"));
        }
        // Labels, if present, must close before the value.
        let rest = &line[name_end..];
        let value_part = if let Some(stripped) = rest.strip_prefix('{') {
            let close = stripped
                .find('}')
                .ok_or(format!("line {n}: unclosed label set"))?;
            stripped[close + 1..].trim_start()
        } else {
            rest.trim_start()
        };
        let value = value_part
            .split_whitespace()
            .next()
            .ok_or(format!("line {n}: missing value"))?;
        let ok = matches!(value, "NaN" | "+Inf" | "-Inf") || value.parse::<f64>().is_ok();
        if !ok {
            return Err(format!("line {n}: unparseable value {value:?}"));
        }
    }
    Ok(())
}

/// The value of the first unlabeled sample named exactly `name`. Test
/// and smoke-step helper.
pub fn sample_value(text: &str, name: &str) -> Option<f64> {
    for line in text.lines() {
        if line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix(name) {
            if let Some(value) = rest.strip_prefix(' ') {
                return value.split_whitespace().next()?.parse().ok();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::Tracer;

    fn scrape(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut resp = String::new();
        s.read_to_string(&mut resp).unwrap();
        let code: u16 = resp.split_whitespace().nth(1).unwrap().parse().unwrap();
        let body = resp
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (code, body)
    }

    fn sample_tracer() -> Tracer {
        let t = Tracer::enabled();
        t.counter_add("fleet.rounds", 4);
        t.counter_add_labeled("client.bytes", 2, 128);
        t.gauge_set("bo.incumbent_loss", 0.5);
        t.gauge_set("engine.budget_remaining", f64::INFINITY);
        t.record("trial.latency_us", 1500.0);
        t.record("trial.latency_us", 90.0);
        t
    }

    #[test]
    fn exposition_is_valid_and_carries_all_metric_kinds() {
        let text = render_prometheus(&sample_tracer().snapshot());
        validate_exposition(&text).unwrap();
        assert!(text.contains("# TYPE ff_fleet_rounds_total counter"));
        assert!(text.contains("ff_fleet_rounds_total 4"));
        assert!(text.contains("ff_client_bytes_total{label=\"2\"} 128"));
        assert!(text.contains("# TYPE ff_bo_incumbent_loss gauge"));
        assert!(text.contains("ff_engine_budget_remaining +Inf"));
        assert!(text.contains("# TYPE ff_trial_latency_us histogram"));
        assert!(text.contains("le=\"+Inf\"} 2"));
        assert!(text.contains("ff_trial_latency_us_count 2"));
        assert_eq!(sample_value(&text, "ff_fleet_rounds_total"), Some(4.0));
        // Cumulative buckets are monotone.
        let mut prev = 0.0;
        for line in text.lines().filter(|l| l.contains("_bucket")) {
            let v: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= prev, "bucket series must be cumulative: {line}");
            prev = v;
        }
    }

    #[test]
    fn validator_rejects_malformed_expositions() {
        assert!(validate_exposition("metric_without_type 1\n").is_err());
        assert!(validate_exposition("# TYPE m counter\nm 1\n").is_ok());
        assert!(validate_exposition("# TYPE m counter\nm not_a_number\n").is_err());
        assert!(validate_exposition("# TYPE m counter\n9bad 1\n").is_err());
        assert!(validate_exposition("# TYPE m counter\nm{le=\"x\" 1\n").is_err());
        assert!(validate_exposition(
            "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n"
        )
        .is_ok());
    }

    #[test]
    fn server_serves_metrics_healthz_and_404() {
        let tracer = sample_tracer();
        let server = ExpoServer::start(tracer.clone(), ExpoConfig::default()).unwrap();
        let (code, body) = scrape(server.addr(), "/metrics");
        assert_eq!(code, 200);
        validate_exposition(&body).unwrap();
        assert_eq!(sample_value(&body, "ff_fleet_rounds_total"), Some(4.0));
        // Liveness: activity was seconds ago at most — alive.
        let (code, body) = scrape(server.addr(), "/healthz");
        assert_eq!(code, 200, "healthz said: {body}");
        assert!(body.contains("rounds: 4"));
        let (code, _) = scrape(server.addr(), "/nope");
        assert_eq!(code, 404);
        assert!(server.requests_served() >= 3);
    }

    #[test]
    fn back_to_back_scrapes_do_not_wait_for_a_poll() {
        let server = ExpoServer::start(sample_tracer(), ExpoConfig::default()).unwrap();
        let t = std::time::Instant::now();
        for _ in 0..20 {
            assert_eq!(scrape(server.addr(), "/metrics").0, 200);
        }
        let elapsed = t.elapsed();
        assert!(
            elapsed < Duration::from_millis(100),
            "20 scrapes took {elapsed:?}"
        );
    }

    #[test]
    fn healthz_reports_stale_without_recent_activity() {
        // A tracer with no activity at all: stale by definition.
        let server = ExpoServer::start(Tracer::enabled(), ExpoConfig::default()).unwrap();
        let (code, body) = scrape(server.addr(), "/healthz");
        assert_eq!(code, 503);
        assert!(body.contains("stale"));
        // A tight liveness window ages out old activity.
        let t = Tracer::enabled();
        t.counter_add("fleet.rounds", 1);
        t.gauge_set("x", 1.0);
        std::thread::sleep(Duration::from_millis(20));
        let server = ExpoServer::start(
            t,
            ExpoConfig {
                liveness_window: Duration::from_millis(1),
                ..Default::default()
            },
        )
        .unwrap();
        let (code, _) = scrape(server.addr(), "/healthz");
        assert_eq!(code, 503);
    }

    #[test]
    fn oversized_and_non_get_requests_are_bounded() {
        let server = ExpoServer::start(Tracer::disabled(), ExpoConfig::default()).unwrap();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.write_all(b"POST /metrics HTTP/1.1\r\n\r\n").unwrap();
        let mut resp = String::new();
        s.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.1 405"));
        let mut s = TcpStream::connect(server.addr()).unwrap();
        let huge = vec![b'a'; 8192];
        s.write_all(b"GET /").unwrap();
        s.write_all(&huge).unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let mut resp = String::new();
        s.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.1 414"), "got: {resp}");
    }
}
