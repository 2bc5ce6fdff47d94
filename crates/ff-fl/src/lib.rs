//! Flower-style federated learning simulation substrate.
//!
//! The paper implements FedForecaster on the Flower framework (reference
//! \[4\] of the paper); this
//! crate is the Rust stand-in. It reproduces Flower's execution model:
//!
//! - [`client::FlClient`]: the client-side trait (`get_properties`, `fit`,
//!   `evaluate`) with free-form typed config maps.
//! - [`message`]: the instruction/reply protocol with a hand-rolled binary
//!   wire codec over [`bytes`] — every message crosses a real
//!   serialization boundary, exactly like a networked deployment, so the
//!   privacy surface (what leaves a client) is explicit and auditable.
//! - [`runtime::FederatedRuntime`]: the in-process simulation engine and
//!   its one round loop, from eight clients to a 10,000-client fleet:
//!   clients run on at most 64 host threads the runtime owns, rounds can
//!   sample a seeded cohort ([`runtime::CohortSampler`]), and every round
//!   returns its healthy replies in client order, bit-identically across
//!   thread counts.
//! - [`strategy`]: FedAvg weighted parameter averaging and weighted loss
//!   aggregation (`α_j = |D_j| / |D|`, Equation 1 of the paper).
//! - [`robust::AggregationStrategy::aggregate`]: the one aggregation
//!   path — the caller screens a round's replies, then every rule
//!   aggregates the survivors in one batch.
//! - [`log::MessageLog`]: exact message and byte counters of every
//!   transmission, in total and per client. It keeps no payloads; the
//!   test suite checks that no raw time-series samples ever leave a
//!   client by reading each reply at [`client::FlClient::wire_transform`].
//!
//! # Fault tolerance
//!
//! Stragglers, crashed devices, and flaky links are the normal operating
//! condition of a real FL deployment, so the runtime treats partial
//! participation as the default rather than the exception:
//!
//! - [`runtime::RoundPolicy`] bounds every collect with a deadline and a
//!   response quorum; [`runtime::FederatedRuntime::run_round`] completes a
//!   round with whichever healthy subset replied in time and reports the
//!   rest as structured dropouts ([`FlError::Timeout`],
//!   [`FlError::ClientPanicked`], [`FlError::Codec`]).
//! - Hosts wrap handler dispatch in `catch_unwind`, so a panicked
//!   client answers with [`message::Reply::Panicked`] instead of poisoning
//!   its channel and killing the federation.
//! - [`health::HealthRegistry`] tracks per-client Healthy → Suspect →
//!   Quarantined state across rounds, with exponential-backoff re-admission
//!   probes so recovered clients rejoin without starving.
//! - [`chaos::ChaosClient`] deterministically injects panics, delays,
//!   dropped replies, and corrupted payloads into any inner client — the
//!   test substrate for all of the above.
//!
//! # Byzantine robustness
//!
//! Availability faults are only half the threat model: a client can also
//! reply *on time with garbage* — NaN floods, sign-flipped or scaled
//! gradients, stuck constants. [`robust`] adds the integrity half:
//! pre-aggregation screening ([`robust::UpdateGuard`]), robust
//! aggregation rules ([`robust::AggregationStrategy`] — coordinate
//! median, trimmed mean, norm clipping, Krum/Multi-Krum), and guard
//! rejections feeding the same [`health::HealthRegistry`] escalation as
//! crash faults ([`health::HealthRegistry::record_rejection`]).
//! [`chaos::AdversarialMode`] injects the matching attacks.

pub mod chaos;
pub mod client;
pub mod compress;
pub mod config;
pub mod health;
pub mod log;
pub mod message;
pub mod robust;
pub mod runtime;
pub mod secure;
pub mod strategy;

/// Errors produced by the federated runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlError {
    /// Decoding a wire message failed.
    Codec(String),
    /// A client thread has died or disconnected.
    ClientUnavailable(usize),
    /// A client returned an application error.
    Client(String),
    /// A client did not reply before the round deadline.
    Timeout(usize),
    /// A client panicked while handling an instruction.
    ClientPanicked(usize),
    /// Fewer healthy replies than the round policy requires.
    Quorum {
        /// Healthy replies collected.
        healthy: usize,
        /// Replies the policy required.
        required: usize,
    },
    /// A client submitted NaN/±inf parameters to an aggregation that
    /// requires finite values.
    NonFiniteUpdate {
        /// Id of the client that sent the update (the input position for
        /// positional updates, as in [`strategy::fedavg`]).
        client: usize,
    },
}

impl std::fmt::Display for FlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlError::Codec(m) => write!(f, "codec error: {m}"),
            FlError::ClientUnavailable(id) => write!(f, "client {id} unavailable"),
            FlError::Client(m) => write!(f, "client error: {m}"),
            FlError::Timeout(id) => write!(f, "client {id} timed out"),
            FlError::ClientPanicked(id) => write!(f, "client {id} panicked"),
            FlError::Quorum { healthy, required } => {
                write!(
                    f,
                    "quorum unmet: {healthy} healthy replies, {required} required"
                )
            }
            FlError::NonFiniteUpdate { client } => {
                write!(f, "client {client} submitted a non-finite parameter update")
            }
        }
    }
}

impl std::error::Error for FlError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, FlError>;
