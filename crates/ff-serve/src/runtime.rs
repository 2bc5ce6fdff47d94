//! The serving front door: per-tenant admission, deadlines, and
//! end-to-end observability over the batcher.
//!
//! Admission is a bounded per-tenant in-flight counter — the "queue"
//! of a synchronous serving layer. A request past the limit is shed at
//! the door with [`ServeError::Overloaded`]: the caller always learns
//! it was refused, and a refused request never consumes model time, so
//! queue depth stays bounded under any burst. Sheds and deadline
//! misses commit flight-recorder frames (the recorder's rejection
//! trigger freezes a forensic dump of the surrounding traffic), and
//! every answered request lands in the `serve.latency_us` histogram
//! scraped through the exposition endpoint.

use crate::batch::{Batcher, ForecastResult, PredictRequest};
use crate::error::ServeError;
use crate::store::ModelStore;
use ff_trace::{ExpoConfig, ExpoServer, FlightRecorder, RoundFrame, Tracer};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Front-door configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Per-tenant in-flight request limit; admission sheds past it.
    pub tenant_inflight_limit: usize,
    /// Wall-clock budget per serve call (`None` = unbounded, the
    /// deterministic path).
    pub deadline: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            tenant_inflight_limit: 64,
            deadline: None,
        }
    }
}

/// Per-tenant admission state.
#[derive(Default)]
struct TenantGate {
    in_flight: AtomicUsize,
    peak: AtomicUsize,
    shed: AtomicU64,
}

/// The serving runtime. Cheap to share behind an [`Arc`]; `serve` is
/// `&self` and safe to call from many threads at once.
pub struct ServeRuntime {
    store: Arc<ModelStore>,
    cfg: ServeConfig,
    tracer: Tracer,
    recorder: FlightRecorder,
    tenants: Mutex<HashMap<String, Arc<TenantGate>>>,
    calls: AtomicU64,
}

impl ServeRuntime {
    /// A runtime over `store` with tracing and forensics disabled.
    pub fn new(store: Arc<ModelStore>, cfg: ServeConfig) -> ServeRuntime {
        ServeRuntime {
            store,
            cfg,
            tracer: Tracer::disabled(),
            recorder: FlightRecorder::disabled(),
            tenants: Mutex::new(HashMap::new()),
            calls: AtomicU64::new(0),
        }
    }

    /// Attaches a tracer (`serve.request` spans, counters, latency
    /// histogram).
    pub fn with_tracer(mut self, tracer: Tracer) -> ServeRuntime {
        self.tracer = tracer;
        self
    }

    /// Attaches a flight recorder (frames on shed / deadline miss).
    pub fn with_recorder(mut self, recorder: FlightRecorder) -> ServeRuntime {
        self.recorder = recorder;
        self
    }

    /// The underlying store (for publishing while serving).
    pub fn store(&self) -> &Arc<ModelStore> {
        &self.store
    }

    /// The attached tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The attached flight recorder.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Starts a `/metrics` + `/healthz` exposition endpoint over the
    /// runtime's tracer — the same server the engine exposes runs on.
    pub fn expose(&self, cfg: ExpoConfig) -> std::io::Result<ExpoServer> {
        ExpoServer::start(self.tracer.clone(), cfg)
    }

    /// Highest concurrent in-flight count a tenant ever reached —
    /// the overload suite's bounded-queue witness.
    pub fn peak_in_flight(&self, tenant: &str) -> usize {
        self.tenants
            .lock()
            .get(tenant)
            .map(|g| g.peak.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Requests shed at admission for a tenant since construction.
    pub fn shed_total(&self, tenant: &str) -> u64 {
        self.tenants
            .lock()
            .get(tenant)
            .map(|g| g.shed.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    fn gate(&self, tenant: &str) -> Arc<TenantGate> {
        let mut tenants = self.tenants.lock();
        Arc::clone(tenants.entry(tenant.to_string()).or_default())
    }

    /// Serves one request batch: admission → batcher → bookkeeping.
    /// Outcomes align with `requests`; a shed or deadline-missed
    /// request gets its typed error, never a silently wrong forecast.
    pub fn serve(&self, requests: &[PredictRequest]) -> Vec<ForecastResult> {
        let _span = self.tracer.span("serve.request");
        let call = self.calls.fetch_add(1, Ordering::Relaxed) + 1;
        let started = Instant::now();

        // Admission: acquire one in-flight permit per request, in
        // request order. `fetch_update` sheds without ever exceeding
        // the limit, so the bound holds under any concurrent burst.
        let limit = self.cfg.tenant_inflight_limit.max(1);
        let mut admitted: Vec<usize> = Vec::with_capacity(requests.len());
        let mut gates: Vec<Option<Arc<TenantGate>>> = Vec::with_capacity(requests.len());
        let mut results: Vec<Option<ForecastResult>> = Vec::with_capacity(requests.len());
        for (i, req) in requests.iter().enumerate() {
            let gate = self.gate(&req.tenant);
            let got = gate
                .in_flight
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |cur| {
                    (cur < limit).then_some(cur + 1)
                });
            match got {
                Ok(prev) => {
                    gate.peak.fetch_max(prev + 1, Ordering::Relaxed);
                    admitted.push(i);
                    gates.push(Some(gate));
                    results.push(None);
                }
                Err(_) => {
                    gate.shed.fetch_add(1, Ordering::Relaxed);
                    gates.push(None);
                    results.push(Some(Err(ServeError::Overloaded {
                        tenant: req.tenant.clone(),
                        limit,
                    })));
                }
            }
        }
        let shed = requests.len() - admitted.len();
        if shed > 0 {
            self.tracer.counter_add("serve.shed", shed as u64);
            self.commit_frame(call, requests, &results, "overloaded");
        }

        // The batch itself, over the admitted subset.
        let subset: Vec<PredictRequest> = admitted.iter().map(|&i| requests[i].clone()).collect();
        let deadline = self.cfg.deadline.map(|d| (started + d, d));
        let outcome = Batcher::new().run_with_deadline(&self.store, &subset, deadline);
        for gate in gates.iter().flatten() {
            gate.in_flight.fetch_sub(1, Ordering::AcqRel);
        }

        // Bookkeeping: latency histogram (request order — deterministic
        // merge), counters, and a forensic frame on any deadline miss.
        let mut missed = 0u64;
        for (slot, forecast) in admitted.iter().zip(outcome.forecasts) {
            if matches!(forecast, Err(ServeError::DeadlineExceeded { .. })) {
                missed += 1;
            }
            results[*slot] = Some(forecast);
        }
        if self.tracer.is_enabled() {
            for &us in &outcome.latency_us {
                self.tracer.record("serve.latency_us", us as f64);
            }
            self.tracer
                .counter_add("serve.requests", requests.len() as u64);
            self.tracer
                .gauge_set("serve.models", self.store.len() as f64);
            let (hits, misses) = self.store.cache_stats();
            self.tracer.gauge_set("serve.revive_hits", hits as f64);
            self.tracer.gauge_set("serve.revive_misses", misses as f64);
        }
        let results: Vec<ForecastResult> = results
            .into_iter()
            .map(|r| r.expect("every request slot is filled"))
            .collect();
        if missed > 0 {
            self.tracer.counter_add("serve.deadline_miss", missed);
            self.commit_frame(
                call,
                requests,
                &results.iter().map(|r| Some(r.clone())).collect::<Vec<_>>(),
                "deadline",
            );
        }
        results
    }

    /// Commits one flight-recorder frame describing a distressed serve
    /// call. Refused requests ride the frame's `rejected` list, which
    /// trips the recorder's rejection trigger and freezes a dump.
    fn commit_frame(
        &self,
        call: u64,
        requests: &[PredictRequest],
        results: &[Option<ForecastResult>],
        why: &str,
    ) {
        self.recorder.commit_with(|| {
            let rejected: Vec<(u64, String)> = results
                .iter()
                .enumerate()
                .filter_map(|(i, r)| match r {
                    Some(Err(ServeError::Overloaded { tenant, .. })) => {
                        Some((i as u64, format!("overloaded:{tenant}")))
                    }
                    Some(Err(ServeError::DeadlineExceeded { .. })) => {
                        Some((i as u64, "deadline-miss".to_string()))
                    }
                    _ => None,
                })
                .collect();
            let accepted = requests.len() as u64 - rejected.len() as u64;
            RoundFrame {
                round: call,
                phase: if why == "deadline" {
                    "serve.deadline"
                } else {
                    "serve.admission"
                },
                cohort: requests.len() as u64,
                admitted: accepted,
                accepted,
                rejected,
                ..RoundFrame::default()
            }
        });
    }
}
