//! Flight recorder: a bounded ring buffer of per-round frames with
//! dump-on-trigger forensics.
//!
//! The fleet runtime (and the engine's tuning loop) commits one
//! [`RoundFrame`] per federated round. The recorder keeps only the last
//! `capacity` frames — O(capacity) memory regardless of run length — and
//! when a committed frame carries a distress signal (a quarantine, a
//! quorum failure, a guard rejection, a non-finite loss) it freezes the
//! current ring into a [`ForensicDump`]: the black-box record of what
//! led up to the incident.
//!
//! Frames deliberately carry **no wall-clock fields**, so a dump is a
//! pure function of the round sequence: bit-identical across
//! `FF_THREADS` settings and across reruns. Disabled (the default), a
//! recorder is a `None` — `commit_with` never calls its closure, so the
//! disabled path performs zero allocations.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// Flight-recorder configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecorderConfig {
    /// Ring capacity in frames; older frames are evicted. Must be ≥ 1
    /// (a zero is treated as 1).
    pub capacity: usize,
    /// Maximum forensic dumps retained per run; later triggers are
    /// counted but their dumps dropped (the first incidents matter most).
    pub max_dumps: usize,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            capacity: 64,
            max_dumps: 8,
        }
    }
}

/// Why a dump was taken, in priority order (a frame carrying several
/// signals reports the most severe).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// A client was newly quarantined this round.
    Quarantine,
    /// The round failed its response quorum.
    QuorumFailure,
    /// A reply was screened out for a non-finite loss.
    NonFiniteLoss,
    /// The update guard rejected at least one reply.
    GuardRejection,
}

impl fmt::Display for Trigger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Trigger::Quarantine => "quarantine",
            Trigger::QuorumFailure => "quorum_failure",
            Trigger::NonFiniteLoss => "non_finite_loss",
            Trigger::GuardRejection => "guard_rejection",
        };
        f.write_str(s)
    }
}

/// One federated round as the flight recorder sees it. No wall-clock
/// fields: a frame (and hence a dump) is bit-identical across thread
/// counts and reruns of the same seeded scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundFrame {
    /// Round number (1-based, shared with the health registry).
    pub round: u64,
    /// Phase the round belongs to (`fleet.fit`, `fleet.eval`,
    /// `optimization`, …).
    pub phase: &'static str,
    /// Cohort size sampled for the round.
    pub cohort: u64,
    /// Clients admitted after health screening.
    pub admitted: u64,
    /// Replies accepted into the aggregate.
    pub accepted: u64,
    /// Quarantine probes piggybacked on the round.
    pub probes: u64,
    /// Guard rejections: `(client_id, reason)`.
    pub rejected: Vec<(u64, String)>,
    /// Transport dropouts: `(client_id, reason)`.
    pub dropouts: Vec<(u64, String)>,
    /// Clients newly quarantined by this round's bookkeeping (sorted).
    pub quarantined: Vec<u64>,
    /// Round loss, when the round produced one.
    pub loss: Option<f64>,
    /// Whether the round met its response quorum.
    pub quorum_met: bool,
    /// Whether any reply was screened out for a non-finite loss.
    pub non_finite: bool,
    /// Per-round counter deltas worth keeping (`(name, delta)`).
    pub counters: Vec<(&'static str, u64)>,
}

impl Default for RoundFrame {
    fn default() -> Self {
        RoundFrame {
            round: 0,
            phase: "",
            cohort: 0,
            admitted: 0,
            accepted: 0,
            probes: 0,
            rejected: Vec::new(),
            dropouts: Vec::new(),
            quarantined: Vec::new(),
            loss: None,
            quorum_met: true,
            non_finite: false,
            counters: Vec::new(),
        }
    }
}

impl RoundFrame {
    /// The most severe trigger this frame carries, if any.
    fn trigger(&self) -> Option<Trigger> {
        if !self.quarantined.is_empty() {
            return Some(Trigger::Quarantine);
        }
        if !self.quorum_met {
            return Some(Trigger::QuorumFailure);
        }
        if self.non_finite || self.loss.is_some_and(|l| !l.is_finite()) {
            return Some(Trigger::NonFiniteLoss);
        }
        if !self.rejected.is_empty() {
            return Some(Trigger::GuardRejection);
        }
        None
    }

    fn push_json(&self, out: &mut String) {
        use crate::json::{push_json_f64, push_json_str};
        out.push_str("{\"kind\":\"frame\",\"round\":");
        out.push_str(&self.round.to_string());
        out.push_str(",\"phase\":");
        push_json_str(out, self.phase);
        out.push_str(",\"cohort\":");
        out.push_str(&self.cohort.to_string());
        out.push_str(",\"admitted\":");
        out.push_str(&self.admitted.to_string());
        out.push_str(",\"accepted\":");
        out.push_str(&self.accepted.to_string());
        out.push_str(",\"probes\":");
        out.push_str(&self.probes.to_string());
        out.push_str(",\"quorum_met\":");
        out.push_str(if self.quorum_met { "true" } else { "false" });
        out.push_str(",\"non_finite\":");
        out.push_str(if self.non_finite { "true" } else { "false" });
        out.push_str(",\"loss\":");
        match self.loss {
            Some(l) => push_json_f64(out, l),
            None => out.push_str("null"),
        }
        out.push_str(",\"quarantined\":[");
        for (i, id) in self.quarantined.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&id.to_string());
        }
        out.push_str("],\"rejected\":[");
        for (i, (id, why)) in self.rejected.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"client\":");
            out.push_str(&id.to_string());
            out.push_str(",\"reason\":");
            push_json_str(out, why);
            out.push('}');
        }
        out.push_str("],\"dropouts\":[");
        for (i, (id, why)) in self.dropouts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"client\":");
            out.push_str(&id.to_string());
            out.push_str(",\"reason\":");
            push_json_str(out, why);
            out.push('}');
        }
        out.push_str("],\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(out, name);
            out.push(':');
            out.push_str(&v.to_string());
        }
        out.push_str("}}");
    }
}

/// A frozen copy of the ring at trigger time: the frames leading up to
/// (and including) the incident round.
#[derive(Debug, Clone, PartialEq)]
pub struct ForensicDump {
    /// What fired.
    pub trigger: Trigger,
    /// Round of the triggering frame.
    pub round: u64,
    /// The ring contents, oldest first; the last frame is the trigger.
    pub frames: Vec<RoundFrame>,
}

impl ForensicDump {
    /// Deterministic JSON-lines export: one header object, then one
    /// object per frame. Contains no wall-clock data, so two dumps of
    /// the same round sequence are byte-identical.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"kind\":\"dump\",\"trigger\":\"");
        let _ = fmt::write(&mut out, format_args!("{}", self.trigger));
        out.push_str("\",\"round\":");
        out.push_str(&self.round.to_string());
        out.push_str(",\"frames\":");
        out.push_str(&self.frames.len().to_string());
        out.push_str("}\n");
        for f in &self.frames {
            f.push_json(&mut out);
            out.push('\n');
        }
        out
    }
}

#[derive(Debug)]
struct RecInner {
    cfg: RecorderConfig,
    ring: VecDeque<RoundFrame>,
    dumps: Vec<ForensicDump>,
    triggers_fired: u64,
}

/// The flight-recorder handle. Cheap to clone (an `Arc`, or nothing when
/// disabled); the default is disabled.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    inner: Option<Arc<Mutex<RecInner>>>,
}

impl FlightRecorder {
    /// A disabled recorder: `commit_with` never calls its closure, so
    /// the disabled path performs no allocation at all.
    pub fn disabled() -> FlightRecorder {
        FlightRecorder { inner: None }
    }

    /// An enabled recorder with the given ring capacity and dump cap.
    pub fn enabled(cfg: RecorderConfig) -> FlightRecorder {
        let cfg = RecorderConfig {
            capacity: cfg.capacity.max(1),
            ..cfg
        };
        FlightRecorder {
            inner: Some(Arc::new(Mutex::new(RecInner {
                cfg,
                ring: VecDeque::with_capacity(cfg.capacity),
                dumps: Vec::new(),
                triggers_fired: 0,
            }))),
        }
    }

    /// Whether this recorder records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Commits one round frame, building it lazily: when the recorder is
    /// disabled the closure is never called (the whole call is a branch).
    /// Returns the trigger the frame fired, if any.
    pub fn commit_with(&self, make: impl FnOnce() -> RoundFrame) -> Option<Trigger> {
        let inner = self.inner.as_ref()?;
        let frame = make();
        let mut s = inner.lock();
        let trigger = frame.trigger();
        if s.ring.len() == s.cfg.capacity {
            s.ring.pop_front();
        }
        s.ring.push_back(frame);
        if let Some(t) = trigger {
            s.triggers_fired += 1;
            if s.dumps.len() < s.cfg.max_dumps {
                let round = s.ring.back().map(|f| f.round).unwrap_or(0);
                let frames: Vec<RoundFrame> = s.ring.iter().cloned().collect();
                s.dumps.push(ForensicDump {
                    trigger: t,
                    round,
                    frames,
                });
            }
        }
        trigger
    }

    /// The current ring contents, oldest first (empty when disabled).
    pub fn frames(&self) -> Vec<RoundFrame> {
        match &self.inner {
            Some(inner) => inner.lock().ring.iter().cloned().collect(),
            None => Vec::new(),
        }
    }

    /// All forensic dumps taken so far (empty when disabled).
    pub fn dumps(&self) -> Vec<ForensicDump> {
        match &self.inner {
            Some(inner) => inner.lock().dumps.clone(),
            None => Vec::new(),
        }
    }

    /// Total triggers fired, including those past the dump cap.
    pub fn triggers_fired(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.lock().triggers_fired,
            None => 0,
        }
    }

    /// Frames currently held (≤ capacity; 0 when disabled).
    pub fn len(&self) -> usize {
        match &self.inner {
            Some(inner) => inner.lock().ring.len(),
            None => 0,
        }
    }

    /// Whether the ring holds no frames.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ring capacity (0 when disabled).
    pub fn capacity(&self) -> usize {
        match &self.inner {
            Some(inner) => inner.lock().cfg.capacity,
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(round: u64) -> RoundFrame {
        RoundFrame {
            round,
            phase: "fleet.fit",
            cohort: 10,
            admitted: 9,
            accepted: 8,
            ..RoundFrame::default()
        }
    }

    #[test]
    fn disabled_recorder_never_builds_frames() {
        let r = FlightRecorder::disabled();
        let fired = r.commit_with(|| panic!("closure must not run when disabled"));
        assert!(fired.is_none());
        assert!(r.frames().is_empty());
        assert!(r.dumps().is_empty());
        assert!(!r.is_enabled());
        assert_eq!(r.capacity(), 0);
    }

    #[test]
    fn ring_evicts_oldest_beyond_capacity() {
        let r = FlightRecorder::enabled(RecorderConfig {
            capacity: 3,
            ..Default::default()
        });
        for round in 1..=10 {
            r.commit_with(|| frame(round));
        }
        let frames = r.frames();
        assert_eq!(frames.len(), 3);
        let rounds: Vec<u64> = frames.iter().map(|f| f.round).collect();
        assert_eq!(rounds, vec![8, 9, 10]);
    }

    #[test]
    fn triggers_fire_by_severity_and_cap_dumps() {
        let r = FlightRecorder::enabled(RecorderConfig {
            capacity: 4,
            max_dumps: 1,
        });
        assert_eq!(r.commit_with(|| frame(1)), None);
        // Rejection + quarantine in one frame: quarantine wins.
        let fired = r.commit_with(|| RoundFrame {
            rejected: vec![(5, "norm blew up".into())],
            quarantined: vec![5],
            ..frame(2)
        });
        assert_eq!(fired, Some(Trigger::Quarantine));
        // A second trigger is counted, but the dump cap holds at 1.
        let fired2 = r.commit_with(|| RoundFrame {
            quorum_met: false,
            ..frame(3)
        });
        assert_eq!(fired2, Some(Trigger::QuorumFailure));
        assert_eq!(r.triggers_fired(), 2);
        let dumps = r.dumps();
        assert_eq!(dumps.len(), 1);
        assert_eq!(dumps[0].trigger, Trigger::Quarantine);
        assert_eq!(dumps[0].round, 2);
        // The dump ends at the triggering round and contains its events.
        let last = dumps[0].frames.last().unwrap();
        assert_eq!(last.round, 2);
        assert_eq!(last.quarantined, vec![5]);
        assert_eq!(last.rejected[0].0, 5);
    }

    #[test]
    fn non_finite_loss_triggers() {
        let r = FlightRecorder::enabled(RecorderConfig::default());
        let fired = r.commit_with(|| RoundFrame {
            loss: Some(f64::NAN),
            ..frame(1)
        });
        assert_eq!(fired, Some(Trigger::NonFiniteLoss));
        let fired2 = r.commit_with(|| RoundFrame {
            non_finite: true,
            ..frame(2)
        });
        assert_eq!(fired2, Some(Trigger::NonFiniteLoss));
    }

    #[test]
    fn dump_json_is_deterministic_and_structured() {
        let build = || {
            let r = FlightRecorder::enabled(RecorderConfig {
                capacity: 2,
                ..Default::default()
            });
            r.commit_with(|| frame(1));
            r.commit_with(|| RoundFrame {
                quarantined: vec![3],
                dropouts: vec![(3, "client 3 timed out".into())],
                loss: Some(0.25),
                counters: vec![("fleet.retries", 1)],
                ..frame(2)
            });
            r.dumps()[0].to_json_lines()
        };
        let (a, b) = (build(), build());
        assert_eq!(a, b, "dumps of the same sequence must be byte-identical");
        assert!(a.starts_with("{\"kind\":\"dump\",\"trigger\":\"quarantine\",\"round\":2"));
        assert_eq!(a.lines().count(), 3);
        assert!(a.contains("\"quarantined\":[3]"));
        assert!(a.contains("\"reason\":\"client 3 timed out\""));
        assert!(a.contains("\"fleet.retries\":1"));
        // NaN losses serialize as null, keeping the dump valid JSON.
        let r = FlightRecorder::enabled(RecorderConfig::default());
        r.commit_with(|| RoundFrame {
            loss: Some(f64::INFINITY),
            ..frame(9)
        });
        assert!(r.dumps()[0].to_json_lines().contains("\"loss\":null"));
    }
}
