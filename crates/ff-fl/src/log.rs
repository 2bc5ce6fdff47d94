//! A transcript of every message that crossed the client boundary.
//!
//! The privacy claim of the paper — only statistics, losses, and model
//! parameters leave a client — becomes a testable property here: the
//! integration suite replays the log and asserts no raw sample sequences
//! appear in any payload.
//!
//! Retaining every payload forever is the original sin of this module:
//! a long tuning run clones megabytes of model blobs per round into the
//! log and never frees them. [`Retention`] fixes that — the default
//! [`Retention::Full`] keeps the historical behavior for tests, while
//! [`Retention::Counting`] (what the engine uses) keeps exact per-client
//! byte/message totals plus only a bounded window of recent payloads so
//! leak checks still have material to scan.

use ff_trace::Tracer;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

/// Direction of a logged message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Server → client.
    ToClient,
    /// Client → server.
    ToServer,
}

/// One logged transmission.
#[derive(Debug, Clone)]
pub struct LogEntry {
    /// Client involved.
    pub client_id: usize,
    /// Direction of travel.
    pub direction: Direction,
    /// The full encoded payload.
    pub payload: Vec<u8>,
}

/// How much payload history the log retains. Byte and message *totals*
/// are always exact regardless of mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Retention {
    /// Keep every payload (unbounded memory — only for short runs and
    /// the privacy test, which must scan all traffic).
    Full,
    /// Keep only the most recent `window` payloads; older ones are
    /// dropped after their bytes are counted.
    Counting {
        /// Number of recent payloads retained for leak checks.
        window: usize,
    },
}

impl Retention {
    /// The counting mode with the default leak-check window.
    pub fn counting_default() -> Retention {
        Retention::Counting { window: 256 }
    }
}

/// Exact per-client traffic totals, maintained in every retention mode.
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
/// [`MessageLog::export_totals`]. Payloads are not part of it.
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
    retention: Option<Retention>, // None = Full
    window: VecDeque<LogEntry>,
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
    /// Creates an empty log with [`Retention::Full`].
    pub fn new() -> MessageLog {
        MessageLog::default()
    }

    /// Creates an empty log with the given retention mode.
    pub fn with_retention(retention: Retention) -> MessageLog {
        let log = MessageLog::new();
        log.set_retention(retention);
        log
    }

    /// Switches retention mode. Moving to `Counting` trims the retained
    /// window immediately; totals are unaffected.
    pub fn set_retention(&self, retention: Retention) {
        let mut s = self.inner.lock();
        s.retention = match retention {
            Retention::Full => None,
            r => Some(r),
        };
        trim(&mut s);
    }

    /// The current retention mode.
    pub fn retention(&self) -> Retention {
        self.inner.lock().retention.unwrap_or(Retention::Full)
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
            // An empty counting window retains nothing: skip the copy.
            if s.retention != Some(Retention::Counting { window: 0 }) {
                s.window.push_back(LogEntry {
                    client_id,
                    direction,
                    payload: payload.to_vec(),
                });
                trim(&mut s);
            }
        }
    }

    /// Snapshot of the retained entries (all of them under
    /// [`Retention::Full`], the recent window under
    /// [`Retention::Counting`]).
    pub fn entries(&self) -> Vec<LogEntry> {
        self.inner.lock().window.iter().cloned().collect()
    }

    /// Total bytes sent in each direction: `(to_clients, to_server)`.
    /// Exact in every retention mode.
    pub fn byte_totals(&self) -> (usize, usize) {
        let s = self.inner.lock();
        (s.to_client_bytes, s.to_server_bytes)
    }

    /// Exact per-client byte/message totals, sorted by client id.
    pub fn client_totals(&self) -> Vec<(usize, ClientComms)> {
        let s = self.inner.lock();
        per_client_totals(&s)
    }

    /// Number of messages recorded (not merely retained). Exact in every
    /// retention mode.
    pub fn len(&self) -> usize {
        self.inner.lock().recorded
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().recorded == 0
    }

    /// Number of payloads currently held in memory.
    pub fn retained(&self) -> usize {
        self.inner.lock().window.len()
    }

    /// Exports the exact traffic totals for durable checkpointing. The
    /// retained payload window is deliberately excluded — it exists only
    /// for leak checks on live traffic and is not part of resume state.
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
    /// resume to fast-forward counters past replayed work; the payload
    /// window and retention mode are untouched.
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

    /// Searches retained client→server payloads for a run of consecutive
    /// f64 values equal to `needle` (a fragment of raw client data). Used
    /// by the privacy test: if a client leaked its raw series, the exact
    /// little-endian byte pattern of `needle` would appear in some
    /// payload. Under [`Retention::Counting`] only the recent window is
    /// scanned — the privacy test opts into [`Retention::Full`].
    pub fn leaks_float_run(&self, needle: &[f64]) -> bool {
        if needle.is_empty() {
            return false;
        }
        let pattern: Vec<u8> = needle.iter().flat_map(|v| v.to_le_bytes()).collect();
        let s = self.inner.lock();
        s.window
            .iter()
            .filter(|e| e.direction == Direction::ToServer)
            .any(|e| {
                e.payload
                    .windows(pattern.len())
                    .any(|w| w == pattern.as_slice())
            })
    }
}

/// `(id, totals)` of every client that was messaged, by id.
fn per_client_totals(s: &LogState) -> Vec<(usize, ClientComms)> {
    (s.per_client.iter().enumerate())
        .filter(|(_, c)| c.messages > 0)
        .map(|(id, &c)| (id, c))
        .collect()
}

fn trim(s: &mut LogState) {
    if let Some(Retention::Counting { window }) = s.retention {
        while s.window.len() > window {
            s.window.pop_front();
        }
    }
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
    fn detects_leaked_float_runs() {
        let log = MessageLog::new();
        let secret = [1.5f64, -2.25, 3.125];
        let mut payload = vec![0xABu8; 4];
        payload.extend(secret.iter().flat_map(|v| v.to_le_bytes()));
        log.record(0, Direction::ToServer, &payload);
        assert!(log.leaks_float_run(&secret));
        assert!(!log.leaks_float_run(&[9.0, 9.0, 9.0]));
    }

    #[test]
    fn to_client_payloads_do_not_count_as_leaks() {
        let log = MessageLog::new();
        let secret = [7.0f64, 8.0];
        let payload: Vec<u8> = secret.iter().flat_map(|v| v.to_le_bytes()).collect();
        log.record(0, Direction::ToClient, &payload);
        assert!(!log.leaks_float_run(&secret));
    }

    #[test]
    fn counting_mode_bounds_memory_but_keeps_exact_totals() {
        let log = MessageLog::with_retention(Retention::Counting { window: 4 });
        for i in 0..100usize {
            log.record(i % 3, Direction::ToServer, &[0u8; 10]);
        }
        assert_eq!(log.len(), 100);
        assert_eq!(log.retained(), 4);
        assert_eq!(log.byte_totals(), (0, 1000));
        let totals = log.client_totals();
        assert_eq!(totals.len(), 3);
        let sum: usize = totals.iter().map(|(_, c)| c.bytes_to_server).sum();
        assert_eq!(sum, 1000);
        assert_eq!(totals[0].0, 0);
        assert_eq!(totals[0].1.messages, 34);
    }

    #[test]
    fn counting_window_still_catches_recent_leaks() {
        let log = MessageLog::with_retention(Retention::Counting { window: 8 });
        let secret = [4.75f64, -1.5];
        for _ in 0..50 {
            log.record(0, Direction::ToServer, &[0u8; 16]);
        }
        let payload: Vec<u8> = secret.iter().flat_map(|v| v.to_le_bytes()).collect();
        log.record(1, Direction::ToServer, &payload);
        assert!(log.leaks_float_run(&secret));
    }

    #[test]
    fn switching_to_counting_trims_immediately() {
        let log = MessageLog::new();
        for _ in 0..10 {
            log.record(0, Direction::ToClient, &[1u8; 4]);
        }
        assert_eq!(log.retained(), 10);
        log.set_retention(Retention::Counting { window: 2 });
        assert_eq!(log.retained(), 2);
        assert_eq!(log.len(), 10);
        assert_eq!(log.byte_totals(), (40, 0));
    }

    #[test]
    fn totals_round_trip_without_payloads() {
        let log = MessageLog::with_retention(Retention::Counting { window: 2 });
        for i in 0..20usize {
            log.record(i % 3, Direction::ToServer, &[0u8; 7]);
            log.record(i % 3, Direction::ToClient, &[0u8; 11]);
        }
        let totals = log.export_totals();
        let fresh = MessageLog::with_retention(Retention::Counting { window: 2 });
        fresh.restore_totals(&totals);
        assert_eq!(fresh.len(), log.len());
        assert_eq!(fresh.byte_totals(), log.byte_totals());
        assert_eq!(fresh.client_totals(), log.client_totals());
        assert_eq!(fresh.retained(), 0, "payloads must not be restored");
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
