//! Exact traffic accounting for every message that crossed the client
//! boundary: message and byte totals in each direction, per client, and
//! (with a tracer attached) per-message byte histograms.
//!
//! The log keeps no payloads. Its counters are part of the checkpointed
//! run state ([`LogTotals`]) and feed the communication reports. The
//! privacy claim of the paper — only statistics, losses, and model
//! parameters leave a client — is checked at the wire instead: the
//! integration suite wraps each client and scans every reply at
//! [`crate::client::FlClient::wire_transform`].

use ff_trace::Tracer;
use parking_lot::Mutex;
use std::sync::Arc;

/// Direction of a logged message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Server → client.
    ToClient,
    /// Client → server.
    ToServer,
}

/// Exact per-client traffic totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientComms {
    /// Bytes sent server → this client.
    pub bytes_to_client: usize,
    /// Bytes sent this client → server.
    pub bytes_to_server: usize,
    /// Messages in either direction.
    pub messages: usize,
}

/// Durable snapshot of a [`MessageLog`]'s exact counters, as exported by
/// [`MessageLog::export_totals`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LogTotals {
    /// Messages recorded in either direction.
    pub recorded: usize,
    /// Total bytes sent server → clients.
    pub to_client_bytes: usize,
    /// Total bytes sent clients → server.
    pub to_server_bytes: usize,
    /// Exact per-client totals, sorted by client id.
    pub per_client: Vec<(usize, ClientComms)>,
}

#[derive(Debug, Default)]
struct LogState {
    recorded: usize,
    to_client_bytes: usize,
    to_server_bytes: usize,
    /// Indexed by client id; ids never messaged stay all-zero.
    per_client: Vec<ClientComms>,
    tracer: Tracer,
}

/// Shared, thread-safe message log.
#[derive(Debug, Clone, Default)]
pub struct MessageLog {
    inner: Arc<Mutex<LogState>>,
}

impl MessageLog {
    /// Creates an empty log.
    pub fn new() -> MessageLog {
        MessageLog::default()
    }

    /// Attaches a tracer: subsequent messages feed the
    /// `fl.msg_bytes_to_client` / `fl.msg_bytes_to_server` histograms.
    pub fn set_tracer(&self, tracer: Tracer) {
        self.inner.lock().tracer = tracer;
    }

    /// Records a transmission.
    pub fn record(&self, client_id: usize, direction: Direction, payload: &[u8]) {
        self.record_all(direction, [(client_id, payload)]);
    }

    /// Records several transmissions in one direction under one lock.
    pub fn record_all<'a>(
        &self,
        direction: Direction,
        messages: impl IntoIterator<Item = (usize, &'a [u8])>,
    ) {
        let mut s = self.inner.lock();
        for (client_id, payload) in messages {
            s.recorded += 1;
            if s.per_client.len() <= client_id {
                s.per_client.resize(client_id + 1, ClientComms::default());
            }
            let comms = &mut s.per_client[client_id];
            comms.messages += 1;
            match direction {
                Direction::ToClient => {
                    comms.bytes_to_client += payload.len();
                    s.to_client_bytes += payload.len();
                }
                Direction::ToServer => {
                    comms.bytes_to_server += payload.len();
                    s.to_server_bytes += payload.len();
                }
            }
            if s.tracer.is_enabled() {
                let name = match direction {
                    Direction::ToClient => "fl.msg_bytes_to_client",
                    Direction::ToServer => "fl.msg_bytes_to_server",
                };
                s.tracer
                    .record_labeled(name, client_id as u64, payload.len() as f64);
            }
        }
    }

    /// Total bytes sent in each direction: `(to_clients, to_server)`.
    pub fn byte_totals(&self) -> (usize, usize) {
        let s = self.inner.lock();
        (s.to_client_bytes, s.to_server_bytes)
    }

    /// Exact per-client byte/message totals, sorted by client id.
    pub fn client_totals(&self) -> Vec<(usize, ClientComms)> {
        let s = self.inner.lock();
        per_client_totals(&s)
    }

    /// Number of messages recorded.
    pub fn len(&self) -> usize {
        self.inner.lock().recorded
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().recorded == 0
    }

    /// Exports the exact traffic totals for durable checkpointing.
    pub fn export_totals(&self) -> LogTotals {
        let s = self.inner.lock();
        LogTotals {
            recorded: s.recorded,
            to_client_bytes: s.to_client_bytes,
            to_server_bytes: s.to_server_bytes,
            per_client: per_client_totals(&s),
        }
    }

    /// Overwrites the totals with a previously exported snapshot. Used on
    /// resume to fast-forward counters past replayed work; the tracer is
    /// untouched.
    pub fn restore_totals(&self, totals: &LogTotals) {
        let mut s = self.inner.lock();
        s.recorded = totals.recorded;
        s.to_client_bytes = totals.to_client_bytes;
        s.to_server_bytes = totals.to_server_bytes;
        s.per_client.clear();
        for &(id, comms) in &totals.per_client {
            if s.per_client.len() <= id {
                s.per_client.resize(id + 1, ClientComms::default());
            }
            s.per_client[id] = comms;
        }
    }
}

/// `(id, totals)` of every client that was messaged, by id.
fn per_client_totals(s: &LogState) -> Vec<(usize, ClientComms)> {
    (s.per_client.iter().enumerate())
        .filter(|(_, c)| c.messages > 0)
        .map(|(id, &c)| (id, c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_counts() {
        let log = MessageLog::new();
        log.record(0, Direction::ToClient, &[1, 2, 3]);
        log.record(0, Direction::ToServer, &[4, 5]);
        assert_eq!(log.len(), 2);
        assert_eq!(log.byte_totals(), (3, 2));
    }

    #[test]
    fn clone_shares_state() {
        let log = MessageLog::new();
        let log2 = log.clone();
        log.record(1, Direction::ToServer, &[9]);
        assert_eq!(log2.len(), 1);
    }

    #[test]
    fn totals_are_exact_per_client() {
        let log = MessageLog::new();
        for i in 0..100usize {
            log.record(i % 3, Direction::ToServer, &[0u8; 10]);
        }
        assert_eq!(log.len(), 100);
        assert_eq!(log.byte_totals(), (0, 1000));
        let totals = log.client_totals();
        assert_eq!(totals.len(), 3);
        let sum: usize = totals.iter().map(|(_, c)| c.bytes_to_server).sum();
        assert_eq!(sum, 1000);
        assert_eq!(totals[0].0, 0);
        assert_eq!(totals[0].1.messages, 34);
    }

    #[test]
    fn totals_round_trip_without_payloads() {
        let log = MessageLog::new();
        for i in 0..20usize {
            log.record(i % 3, Direction::ToServer, &[0u8; 7]);
            log.record(i % 3, Direction::ToClient, &[0u8; 11]);
        }
        let totals = log.export_totals();
        let fresh = MessageLog::new();
        fresh.restore_totals(&totals);
        assert_eq!(fresh.len(), log.len());
        assert_eq!(fresh.byte_totals(), log.byte_totals());
        assert_eq!(fresh.client_totals(), log.client_totals());
        // Counters keep advancing correctly after the restore.
        fresh.record(9, Direction::ToServer, &[0u8; 5]);
        assert_eq!(fresh.len(), 41);
        assert_eq!(fresh.byte_totals(), (220, 145));
    }

    #[test]
    fn tracer_sees_per_message_byte_histograms() {
        let tracer = Tracer::enabled();
        let log = MessageLog::new();
        log.set_tracer(tracer.clone());
        log.record(0, Direction::ToClient, &[0u8; 100]);
        log.record(0, Direction::ToServer, &[0u8; 50]);
        log.record(1, Direction::ToServer, &[0u8; 25]);
        let snap = tracer.snapshot();
        let to_server: u64 = snap
            .histograms
            .iter()
            .filter(|(id, _)| id.name == "fl.msg_bytes_to_server")
            .map(|(_, h)| h.count())
            .sum();
        assert_eq!(to_server, 2);
        let to_client = snap
            .histograms
            .iter()
            .find(|(id, _)| id.name == "fl.msg_bytes_to_client")
            .map(|(_, h)| h.sum())
            .unwrap();
        assert_eq!(to_client, 100.0);
    }
}
