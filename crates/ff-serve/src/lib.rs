//! Forecast serving: train once, serve millions.
//!
//! The engine's Algorithm 1 ends at a finalized federated ensemble —
//! blob-v2/v3 members plus per-member weights. This crate is the other
//! half of the deployment story: turning that member set into answered
//! forecast requests, at fleet scale, without giving up the workspace's
//! determinism discipline.
//!
//! - [`Artifact`]: the sealed on-disk/wire form of a finalized run — a
//!   versioned, CRC-guarded frame around the member blobs, their
//!   weights, and the (optional) lag recipe flat members need. Opening
//!   is defensive end to end: truncation, bit flips, and garbage tails
//!   are typed [`ArtifactError`]s, never panics, and never unbounded
//!   allocations (every length prefix is capped before allocation).
//! - [`ModelStore`]: an in-memory store keyed by `(tenant, series)`.
//!   Publishing is an atomic slot swap — in-flight requests keep the
//!   ensemble they resolved, so a response is always entirely old-model
//!   or entirely new-model. Decoding is lazy with a bounded LRU revive
//!   cache: cold artifacts cost bytes, not decoded models.
//! - [`Batcher`]: coalesces multi-series predict requests and drives
//!   them through the [`ff_par`] pool with the same shard-in-index-order
//!   discipline as the fleet runtime ([`ff_par::shard_len`] sizes shards
//!   from the batch alone), so forecasts are bit-identical across
//!   `FF_THREADS` settings.
//! - [`ServeRuntime`]: the front door — per-tenant admission with a
//!   bounded in-flight limit (overload is a typed
//!   [`ServeError::Overloaded`], never a silently wrong forecast), an
//!   optional wall-clock deadline, `serve.request` spans and latency
//!   histograms through [`ff_trace`], `/metrics` exposition via the
//!   existing [`ff_trace::ExpoServer`], and flight-recorder frames on
//!   shed and deadline-miss.
//!
//! # Determinism contract
//!
//! With no deadline configured, serving is a pure function of the store
//! contents and the request batch: shard partitioning depends only on
//! the batch size, every member folds in member index order, and shard
//! results merge in shard index order. A wall-clock deadline is
//! supported but inherently non-deterministic; the contract suite pins
//! the deadline-free path bit-for-bit at `FF_THREADS` 1 and 4.

#![warn(missing_docs)]

mod artifact;
mod batch;
mod error;
mod runtime;
mod store;

pub use artifact::{crc32, Artifact, ARTIFACT_MAGIC, ARTIFACT_VERSION};
pub use batch::{BatchOutcome, Batcher, ForecastResult, PredictRequest};
pub use error::{ArtifactError, ServeError};
pub use runtime::{ServeConfig, ServeRuntime};
pub use store::{Ensemble, ModelStore};
