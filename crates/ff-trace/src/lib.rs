//! `ff-trace` — zero-dependency structured tracing and metrics for the
//! FedForecaster stack.
//!
//! The paper's Algorithm 1 spends a hard time budget across four
//! federated phases; this crate is the measurement substrate that tells
//! you where that budget went. It provides:
//!
//! - **Hierarchical spans** ([`Tracer::span`]): `run → phase.tune →
//!   trial → gp.fit`, recorded with microsecond wall-clock offsets and
//!   per-thread parentage. Guards close spans on drop, LIFO even across
//!   `catch_unwind`.
//! - **Metrics** ([`Tracer::counter_add`], [`Tracer::gauge_set`],
//!   [`Tracer::record`]): counters, gauges (with the full update
//!   trajectory mirrored into the event stream), and mergeable
//!   log-bucketed [`Histogram`]s whose rank statistics are invariant
//!   under merge order — per-client histograms aggregate at the server
//!   exactly like model updates do.
//! - **Two sinks**: [`to_json_lines`] (one JSON object per line, written
//!   without any JSON dependency) and [`render_summary`] (aligned text:
//!   per-phase time table, per-client comms/dropout table, BO trial
//!   latency percentiles).
//!
//! A disabled [`Tracer`] (the default) is a `None` — every call is a
//! branch-and-return with no locking, no clock reads, and **no
//! allocation**, so instrumentation can stay in hot paths permanently.
//!
//! # Span taxonomy
//!
//! | span | children | label |
//! |------|----------|-------|
//! | `run` | the four phases | — |
//! | `phase.meta_features` | `fl.round` | — |
//! | `phase.feature_engineering` | `fl.round` | — |
//! | `phase.optimization` | `trial` | — |
//! | `phase.finalization` | `fl.round` | — |
//! | `trial` | `gp.fit`, `gp.acquire`, `fl.round` | trial index |
//! | `fl.round` | — | round number |
//! | `gp.fit` / `gp.acquire` | — | — |

#![warn(missing_docs)]

mod hist;
mod json;
mod summary;
mod tracer;

pub mod expo;
pub mod profile;
pub mod recorder;

pub use expo::{render_prometheus, sample_value, validate_exposition, ExpoConfig, ExpoServer};
pub use hist::{Histogram, BUCKETS_PER_DOUBLING, ZERO_BUCKET};
pub use json::{push_json_f64, push_json_str, to_json_lines};
pub use profile::{folded_stacks, CriticalHop, Profile, SelfTimeRow};
pub use recorder::{FlightRecorder, ForensicDump, RecorderConfig, RoundFrame, Trigger};
pub use summary::{fmt_bytes, fmt_us, render_summary, ClientCommsRow};
pub use tracer::{EventRecord, MetricId, PhaseTotal, SpanGuard, SpanRecord, Telemetry, Tracer};
