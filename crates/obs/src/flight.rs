//! Always-on flight recorder: a fixed-capacity, lock-free ring of
//! recent structured events.
//!
//! # Design
//!
//! The recorder answers one question after an incident: *what were the
//! last few thousand things this process did?* A [`FlightRecorder`]
//! keeps the most recent events in `SHARDS` per-thread rings of
//! [`CAPACITY`] fixed-size slots each. Recording an event is a handful
//! of **relaxed atomic stores** into those rings — no locks, no
//! allocation, no branches beyond the ring-index mask — so it rides
//! along on the training hot path without breaking the zero-allocation
//! steady-state contract.
//!
//! A recording thread picks its ring with the same [`thread_ordinal`]
//! used by the metric shards; up to [`SHARDS`] concurrent recorders
//! never share a cache line. Each ring has its own monotone write head
//! (`fetch_add`), so two threads that do land on the same ring still
//! claim distinct slots.
//!
//! The process-wide black box is one `static` recorder behind the free
//! functions [`record`], [`snapshot`], [`render_jsonl`] and
//! [`dump_to_dir`]; the engine, sampler, scheduler and watchdog all
//! write to it. It has no reset: other threads may be writing to it at
//! any time. A recorder is `const`-constructible, so code that needs
//! a private event log (a test counting exactly its own events, say)
//! owns one in a `static` of its own and calls the same methods on it.
//!
//! # Consistency
//!
//! Slots are plain word-sized atomics, not seqlocks: a snapshot taken
//! while writers are mid-store can observe a torn event (fields from
//! two different writes). The sequence word is written *last*, events
//! carry their own timestamps, and a snapshot drops events whose
//! sequence word lags the rest of the ring by a full lap, which bounds
//! the damage to at most one garbled event per actively-writing thread
//! — an explicitly accepted trade for a recorder that costs O(1)
//! relaxed stores per event. Dumps are taken on anomaly or on demand,
//! when writers are quiescent or nearly so.
//!
//! # Event schema
//!
//! An event is `(ts_ns, kind, code, value)`:
//!
//! | kind      | code                    | value                    |
//! |-----------|-------------------------|--------------------------|
//! | `stage`   | stage index (0..7)      | duration in ns           |
//! | `iter`    | 0                       | iteration number         |
//! | `loss`    | iteration (low 32 bits) | `f64::to_bits` of loss   |
//! | `points`  | 0 moved / 1 add / 2 drop| point count              |
//! | `rebuild` | 0                       | rebuild duration in ns   |
//! | `slice`   | job id (low 32 bits)    | iteration at boundary    |
//! | `anomaly` | anomaly kind code       | detector-specific datum  |
//!
//! Timestamps come from [`crate::trace::now_ns`], the same epoch the
//! span tracer uses, so flight events and spans interleave correctly.
//!
//! # JSONL dumps
//!
//! [`render_jsonl`] serialises a snapshot in the run-telemetry JSONL
//! dialect: a `{"type":"meta",...}` first line followed by one
//! `{"type":"flight",...}` line per event, so `validate_telemetry` and
//! `run_report` consume dumps with the machinery they already have.
//! [`dump_to_dir`] writes one into a directory (`SGM_FLIGHT_DIR` by
//! convention; see [`flight_dir`]).

use crate::metrics::{thread_ordinal, SHARDS};
use crate::trace::now_ns;
use sgm_json::{obj, Value};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Events retained per ring (power of two). With [`SHARDS`] rings a
/// recorder holds up to `SHARDS * CAPACITY` recent events — 8192 at the
/// current sizes, ~256 KiB of storage.
pub const CAPACITY: usize = 1024;

/// What an event describes. Stored as a single byte in the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A training-stage timing (`code` = stage index, `value` = ns).
    Stage = 1,
    /// An iteration boundary (`value` = iteration).
    Iter = 2,
    /// A recorded training loss (`value` = `f64::to_bits`).
    Loss = 3,
    /// Sampler adapt churn (`code` = 0 moved / 1 added / 2 dropped).
    Points = 4,
    /// A background graph rebuild completed (`value` = ns).
    Rebuild = 5,
    /// A scheduler slice boundary (`code` = job id, `value` = iter).
    Slice = 6,
    /// A watchdog anomaly (`code` = anomaly kind code).
    Anomaly = 7,
}

impl EventKind {
    /// Stable lower-case name used in JSONL dumps.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Stage => "stage",
            EventKind::Iter => "iter",
            EventKind::Loss => "loss",
            EventKind::Points => "points",
            EventKind::Rebuild => "rebuild",
            EventKind::Slice => "slice",
            EventKind::Anomaly => "anomaly",
        }
    }

    /// Inverse of [`EventKind::name`] (used by dump readers).
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "stage" => EventKind::Stage,
            "iter" => EventKind::Iter,
            "loss" => EventKind::Loss,
            "points" => EventKind::Points,
            "rebuild" => EventKind::Rebuild,
            "slice" => EventKind::Slice,
            "anomaly" => EventKind::Anomaly,
            _ => return None,
        })
    }

    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            1 => EventKind::Stage,
            2 => EventKind::Iter,
            3 => EventKind::Loss,
            4 => EventKind::Points,
            5 => EventKind::Rebuild,
            6 => EventKind::Slice,
            7 => EventKind::Anomaly,
            _ => return None,
        })
    }
}

/// One slot: four word-sized atomics. `seq` (the ring's write index
/// plus one; 0 = never written) is stored last so a fully-zero slot is
/// unambiguously empty.
struct Slot {
    seq: AtomicU64,
    ts_ns: AtomicU64,
    packed: AtomicU64, // kind in bits 32.., code in bits 0..32
    value: AtomicU64,
}

#[repr(align(64))]
struct Ring {
    head: AtomicU64,
    slots: [Slot; CAPACITY],
}

/// A set of [`SHARDS`] event rings. Construct it in a `static` (it is
/// ~256 KiB): the process-wide recorder behind the free functions is
/// one, and a test that must see only its own events owns another.
pub struct FlightRecorder {
    rings: [Ring; SHARDS],
}

/// The process-wide recorder that [`record`] writes and [`snapshot`],
/// [`render_jsonl`] and [`dump_to_dir`] read.
static RECORDER: FlightRecorder = FlightRecorder::new();

impl FlightRecorder {
    /// An empty recorder.
    pub const fn new() -> Self {
        FlightRecorder {
            rings: [const {
                Ring {
                    head: AtomicU64::new(0),
                    slots: [const {
                        Slot {
                            seq: AtomicU64::new(0),
                            ts_ns: AtomicU64::new(0),
                            packed: AtomicU64::new(0),
                            value: AtomicU64::new(0),
                        }
                    }; CAPACITY],
                }
            }; SHARDS],
        }
    }

    /// Records one event: one relaxed `fetch_add` plus four relaxed
    /// stores. Never locks, never allocates.
    #[inline]
    pub fn record(&self, kind: EventKind, code: u32, value: u64) {
        let ring = &self.rings[thread_ordinal() & (SHARDS - 1)];
        let idx = ring.head.fetch_add(1, Ordering::Relaxed);
        let slot = &ring.slots[(idx as usize) & (CAPACITY - 1)];
        slot.ts_ns.store(now_ns(), Ordering::Relaxed);
        slot.packed
            .store(((kind as u64) << 32) | code as u64, Ordering::Relaxed);
        slot.value.store(value, Ordering::Relaxed);
        slot.seq.store(idx + 1, Ordering::Relaxed);
    }

    /// Decodes every live slot, ordered by timestamp (ties by ring then
    /// sequence). Torn or overwritten-in-flight slots (sequence a full
    /// lap behind the ring head, or an invalid kind byte) are skipped.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        let mut out = Vec::new();
        for (tid, ring) in self.rings.iter().enumerate() {
            let head = ring.head.load(Ordering::Relaxed);
            for slot in &ring.slots {
                let seq = slot.seq.load(Ordering::Relaxed);
                if seq == 0 || seq + (CAPACITY as u64) < head {
                    continue;
                }
                let packed = slot.packed.load(Ordering::Relaxed);
                let Some(kind) = EventKind::from_u8((packed >> 32) as u8) else {
                    continue;
                };
                out.push(FlightEvent {
                    tid,
                    seq,
                    ts_ns: slot.ts_ns.load(Ordering::Relaxed),
                    kind,
                    code: packed as u32,
                    value: slot.value.load(Ordering::Relaxed),
                });
            }
        }
        out.sort_by_key(|e| (e.ts_ns, e.tid, e.seq));
        out
    }

    /// Empties every ring. Call it only while nothing records into this
    /// recorder; the process-wide one therefore has no such entry point.
    pub fn reset(&self) {
        for ring in &self.rings {
            ring.head.store(0, Ordering::Relaxed);
            for slot in &ring.slots {
                slot.seq.store(0, Ordering::Relaxed);
            }
        }
    }

    /// Renders a snapshot as run-telemetry JSONL: one meta line, then
    /// one `flight` line per event, oldest first. `extra_lines` (already
    /// serialised JSON objects, e.g. an anomaly record) are appended.
    pub fn render_jsonl(&self, run: &str, extra_lines: &[Value]) -> String {
        let events = self.snapshot();
        let mut out = String::new();
        let meta = obj([
            ("type", Value::Str("meta".into())),
            ("run", Value::Str(run.into())),
            ("source", Value::Str("flight_recorder".into())),
            ("events", Value::Num(events.len() as f64)),
            ("capacity", Value::Num((SHARDS * CAPACITY) as f64)),
        ]);
        out.push_str(&meta.to_string_compact());
        out.push('\n');
        for e in &events {
            out.push_str(&event_value(e).to_string_compact());
            out.push('\n');
        }
        for line in extra_lines {
            out.push_str(&line.to_string_compact());
            out.push('\n');
        }
        out
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

/// Records one event into the process-wide recorder (see
/// [`FlightRecorder::record`]).
#[inline]
pub fn record(kind: EventKind, code: u32, value: u64) {
    RECORDER.record(kind, code, value);
}

/// One decoded flight-recorder event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Ring (thread shard) the event was recorded on.
    pub tid: usize,
    /// Monotone per-ring write index (1-based; gaps mean overwritten).
    pub seq: u64,
    /// Nanoseconds since the telemetry epoch.
    pub ts_ns: u64,
    /// Event kind.
    pub kind: EventKind,
    /// Kind-specific discriminator (stage index, job id, …).
    pub code: u32,
    /// Kind-specific payload (ns, iteration, `f64` bits, …).
    pub value: u64,
}

impl FlightEvent {
    /// For `loss` events, the payload reinterpreted as the `f64` it is.
    pub fn value_f64(&self) -> f64 {
        f64::from_bits(self.value)
    }
}

/// Snapshot of the process-wide recorder (see
/// [`FlightRecorder::snapshot`]).
pub fn snapshot() -> Vec<FlightEvent> {
    RECORDER.snapshot()
}

/// JSON object for one event (a `{"type":"flight",...}` JSONL line).
pub fn event_value(e: &FlightEvent) -> Value {
    let mut fields = vec![
        ("type", Value::Str("flight".into())),
        ("tid", Value::Num(e.tid as f64)),
        ("seq", Value::Num(e.seq as f64)),
        ("ts_ns", Value::Num(e.ts_ns as f64)),
        ("kind", Value::Str(e.kind.name().into())),
        ("code", Value::Num(e.code as f64)),
        ("value", Value::Num(e.value as f64)),
    ];
    if e.kind == EventKind::Loss {
        let loss = e.value_f64();
        // JSON has no NaN/∞; encode non-finite losses as null.
        fields.push((
            "loss",
            if loss.is_finite() {
                Value::Num(loss)
            } else {
                Value::Null
            },
        ));
    }
    obj(fields)
}

/// The process-wide recorder as run-telemetry JSONL (see
/// [`FlightRecorder::render_jsonl`]).
pub fn render_jsonl(run: &str, extra_lines: &[Value]) -> String {
    RECORDER.render_jsonl(run, extra_lines)
}

/// The flight-dump directory from `SGM_FLIGHT_DIR`, if set and
/// non-empty.
pub fn flight_dir() -> Option<PathBuf> {
    match std::env::var("SGM_FLIGHT_DIR") {
        Ok(d) if !d.is_empty() => Some(PathBuf::from(d)),
        _ => None,
    }
}

static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Writes a dump (see [`render_jsonl`]) into `dir`, creating it if
/// needed. File names are `flight_<label>_<pid>_<n>.jsonl` so repeated
/// dumps from one process (and concurrent processes sharing a dir)
/// never collide. Returns the path written.
pub fn dump_to_dir(dir: &Path, label: &str, extra_lines: &[Value]) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let n = DUMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!(
        "flight_{label}_{pid}_{n}.jsonl",
        pid = std::process::id()
    ));
    std::fs::write(&path, render_jsonl(label, extra_lines))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each test below owns its recorder: the process-wide one is written
    // by every other test in this binary that trains, rebuilds or fires
    // a watchdog anomaly, so its event counts are not this test's own.

    #[test]
    fn record_snapshot_roundtrip() {
        static REC: FlightRecorder = FlightRecorder::new();
        REC.record(EventKind::Stage, 3, 1_234);
        REC.record(EventKind::Loss, 7, 0.5f64.to_bits());
        REC.record(EventKind::Slice, 42, 10);
        let snap = REC.snapshot();
        assert_eq!(snap.len(), 3);
        assert!(snap.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        let loss = snap.iter().find(|e| e.kind == EventKind::Loss).unwrap();
        assert_eq!(loss.code, 7);
        assert_eq!(loss.value_f64(), 0.5);
        REC.reset();
        assert!(REC.snapshot().is_empty());
    }

    #[test]
    fn ring_keeps_most_recent_events_on_wrap() {
        static REC: FlightRecorder = FlightRecorder::new();
        let total = CAPACITY + 100;
        for i in 0..total {
            REC.record(EventKind::Iter, 0, i as u64);
        }
        let snap = REC.snapshot();
        assert_eq!(snap.len(), CAPACITY);
        let min = snap.iter().map(|e| e.value).min().unwrap();
        let max = snap.iter().map(|e| e.value).max().unwrap();
        assert_eq!(max, total as u64 - 1);
        assert_eq!(min, (total - CAPACITY) as u64);
    }

    #[test]
    fn jsonl_dump_has_meta_first_and_one_line_per_event() {
        static REC: FlightRecorder = FlightRecorder::new();
        REC.record(EventKind::Rebuild, 0, 999);
        REC.record(EventKind::Loss, 1, f64::NAN.to_bits());
        let text = REC.render_jsonl("test", &[]);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"type\":\"meta\""));
        assert!(lines[0].contains("\"source\":\"flight_recorder\""));
        assert!(lines[1].contains("\"type\":\"flight\""));
        // Non-finite loss must stay valid JSON.
        assert!(lines[2].contains("\"loss\":null"));
    }

    #[test]
    fn kind_names_roundtrip() {
        for k in [
            EventKind::Stage,
            EventKind::Iter,
            EventKind::Loss,
            EventKind::Points,
            EventKind::Rebuild,
            EventKind::Slice,
            EventKind::Anomaly,
        ] {
            assert_eq!(EventKind::from_name(k.name()), Some(k));
            assert_eq!(EventKind::from_u8(k as u8), Some(k));
        }
        assert_eq!(EventKind::from_name("nope"), None);
    }
}
