//! Span-based tracer with an env-gated runtime switch.
//!
//! # Levels
//!
//! `SGM_TRACE` selects one of three levels, cached in a process-global
//! atomic after the first read:
//!
//! * `off` (default) — every [`span`] call is a single relaxed atomic
//!   load returning an inert guard; no clock reads, no locks, no
//!   allocation. This is what the `obs_overhead` bench pins within
//!   noise of the uninstrumented baseline.
//! * `stages` — coarse spans only: engine stages, sampler refresh /
//!   rebuild, graph builds.
//! * `full` — adds sampler internals, per-task pool worker spans, and
//!   everything else tagged [`TraceLevel::Full`].
//!
//! # Parenting
//!
//! Finished spans go to a process-global collector and carry a parent
//! span id. Parenting is implicit within a thread (a thread-local
//! "current span" cell maintained by the [`Span`] guard) and explicit
//! across threads: capture [`current_context`] on the requesting side,
//! ship it through your channel, and open the remote span with
//! [`span_with_parent`]. The Chrome export draws flow arrows for
//! cross-thread edges so rebuild work lines up under the refresh that
//! requested it.
//!
//! Timestamps are nanoseconds from a process-global epoch
//! ([`Instant`]-based, so they are monotonic but not wall-clock), and
//! thread ids are the same dense ordinals the metrics shards use.

use crate::metrics::thread_ordinal;
use sgm_json::{obj, Value};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Verbosity at which a span becomes active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum TraceLevel {
    /// Tracing disabled.
    Off = 0,
    /// Coarse spans: engine stages, sampler refresh/rebuild.
    Stages = 1,
    /// Everything, including per-task pool worker spans.
    Full = 2,
}

impl TraceLevel {
    fn from_env(s: &str) -> TraceLevel {
        match s.trim().to_ascii_lowercase().as_str() {
            "stages" | "1" => TraceLevel::Stages,
            "full" | "2" => TraceLevel::Full,
            _ => TraceLevel::Off,
        }
    }
}

const LEVEL_UNSET: u8 = u8::MAX;
static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNSET);

/// The active trace level (reads `SGM_TRACE` once, then one relaxed
/// atomic load per call).
#[inline]
pub fn level() -> TraceLevel {
    let v = LEVEL.load(Ordering::Relaxed);
    if v != LEVEL_UNSET {
        // Values only ever come from `TraceLevel as u8` stores.
        return match v {
            1 => TraceLevel::Stages,
            2 => TraceLevel::Full,
            _ => TraceLevel::Off,
        };
    }
    init_level()
}

#[cold]
fn init_level() -> TraceLevel {
    let lv = std::env::var("SGM_TRACE")
        .map(|s| TraceLevel::from_env(&s))
        .unwrap_or(TraceLevel::Off);
    LEVEL.store(lv as u8, Ordering::Relaxed);
    lv
}

/// Overrides the trace level at runtime (tests, harnesses that trace
/// one run out of several).
pub fn set_level(lv: TraceLevel) {
    LEVEL.store(lv as u8, Ordering::Relaxed);
}

/// Whether a span tagged `lv` would currently record.
#[inline]
pub fn enabled(lv: TraceLevel) -> bool {
    lv != TraceLevel::Off && level() >= lv
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide telemetry epoch (lazily pinned on
/// first use). Spans and flight-recorder events share this clock, so
/// their timestamps interleave correctly in merged views.
#[inline]
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos().min(u64::MAX as u128) as u64
}

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Innermost active span id on this thread (0 = none).
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

/// A finished span, as stored in the collector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name (static so recording never allocates).
    pub name: &'static str,
    /// Category (crate/subsystem: `"engine"`, `"sampler"`, `"graph"`, `"par"`).
    pub cat: &'static str,
    /// Dense thread ordinal the span ran on.
    pub tid: u64,
    /// Unique span id (process-global, never 0).
    pub id: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Start, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

static COLLECTOR: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());

/// A handle to a (possibly remote) span, safe to send across threads
/// and cheap to copy. [`SpanContext::none`] parents to the root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanContext {
    id: u64,
}

impl SpanContext {
    /// A context with no span (children become roots).
    pub const fn none() -> SpanContext {
        SpanContext { id: 0 }
    }

    /// Whether this context refers to an actual span.
    pub fn is_some(&self) -> bool {
        self.id != 0
    }
}

/// The innermost active span on this thread, for shipping to another
/// thread as an explicit parent.
pub fn current_context() -> SpanContext {
    SpanContext {
        id: CURRENT.with(|c| c.get()),
    }
}

/// RAII guard: records a [`TraceEvent`] on drop (or nothing, when the
/// span's level is not enabled).
pub struct Span {
    /// `None` when disabled — the entire guard is inert.
    live: Option<LiveSpan>,
}

struct LiveSpan {
    name: &'static str,
    cat: &'static str,
    id: u64,
    parent: u64,
    prev_current: u64,
    start_ns: u64,
}

impl Span {
    /// Context of this span for explicit cross-thread parenting
    /// ([`SpanContext::none`] when the span is disabled).
    pub fn context(&self) -> SpanContext {
        SpanContext {
            id: self.live.as_ref().map_or(0, |l| l.id),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(l) = self.live.take() {
            let dur_ns = now_ns().saturating_sub(l.start_ns);
            CURRENT.with(|c| c.set(l.prev_current));
            let ev = TraceEvent {
                name: l.name,
                cat: l.cat,
                tid: thread_ordinal() as u64,
                id: l.id,
                parent: l.parent,
                start_ns: l.start_ns,
                dur_ns,
            };
            if let Ok(mut col) = COLLECTOR.lock() {
                col.push(ev);
            }
        }
    }
}

fn open(lv: TraceLevel, cat: &'static str, name: &'static str, parent: u64) -> Span {
    if !enabled(lv) {
        return Span { live: None };
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let prev_current = CURRENT.with(|c| c.replace(id));
    Span {
        live: Some(LiveSpan {
            name,
            cat,
            id,
            parent,
            prev_current,
            start_ns: now_ns(),
        }),
    }
}

/// Opens a span parented to this thread's innermost active span.
#[inline]
pub fn span(lv: TraceLevel, cat: &'static str, name: &'static str) -> Span {
    if !enabled(lv) {
        return Span { live: None };
    }
    let parent = CURRENT.with(|c| c.get());
    open(lv, cat, name, parent)
}

/// Opens a span with an explicit parent (cross-thread parenting: the
/// requesting side captures [`current_context`], ships it over a
/// channel, the worker opens its span with it).
#[inline]
pub fn span_with_parent(
    lv: TraceLevel,
    cat: &'static str,
    name: &'static str,
    parent: SpanContext,
) -> Span {
    if !enabled(lv) {
        return Span { live: None };
    }
    open(lv, cat, name, parent.id)
}

/// Copies all collected spans (collection keeps accumulating).
pub fn snapshot() -> Vec<TraceEvent> {
    COLLECTOR.lock().expect("trace collector poisoned").clone()
}

/// Takes all collected spans, leaving the collector empty (per-run
/// isolation in multi-run processes).
pub fn drain() -> Vec<TraceEvent> {
    std::mem::take(&mut *COLLECTOR.lock().expect("trace collector poisoned"))
}

/// JSON object for one span, shared by the JSONL run log and tests.
pub fn span_value(ev: &TraceEvent) -> Value {
    obj([
        ("type", Value::Str("span".into())),
        ("name", Value::Str(ev.name.into())),
        ("cat", Value::Str(ev.cat.into())),
        ("tid", Value::Num(ev.tid as f64)),
        ("id", Value::Num(ev.id as f64)),
        ("parent", Value::Num(ev.parent as f64)),
        ("start_ns", Value::Num(ev.start_ns as f64)),
        ("dur_ns", Value::Num(ev.dur_ns as f64)),
    ])
}

/// Renders spans as a Chrome `trace_event` JSON document (load in
/// `chrome://tracing` or Perfetto). Spans become `"X"` complete
/// events; cross-thread parent edges become `"s"`/`"f"` flow pairs.
pub fn chrome_trace_json(events: &[TraceEvent]) -> Value {
    let mut out: Vec<Value> = Vec::with_capacity(events.len());
    // tid of every span id, to detect cross-thread parent edges.
    let mut tid_of: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    let mut start_of: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for ev in events {
        tid_of.insert(ev.id, ev.tid);
        start_of.insert(ev.id, ev.start_ns);
    }
    for ev in events {
        let ts_us = ev.start_ns as f64 / 1_000.0;
        out.push(obj([
            ("name", Value::Str(ev.name.into())),
            ("cat", Value::Str(ev.cat.into())),
            ("ph", Value::Str("X".into())),
            ("pid", Value::Num(1.0)),
            ("tid", Value::Num(ev.tid as f64)),
            ("ts", Value::Num(ts_us)),
            ("dur", Value::Num(ev.dur_ns as f64 / 1_000.0)),
        ]));
        if ev.parent != 0 {
            if let Some(&ptid) = tid_of.get(&ev.parent) {
                if ptid != ev.tid {
                    // Flow arrow from the parent's timeline to ours.
                    let pstart = start_of.get(&ev.parent).copied().unwrap_or(ev.start_ns);
                    out.push(obj([
                        ("name", Value::Str("parent".into())),
                        ("cat", Value::Str("flow".into())),
                        ("ph", Value::Str("s".into())),
                        ("pid", Value::Num(1.0)),
                        ("tid", Value::Num(ptid as f64)),
                        ("ts", Value::Num(pstart as f64 / 1_000.0)),
                        ("id", Value::Num(ev.id as f64)),
                    ]));
                    out.push(obj([
                        ("name", Value::Str("parent".into())),
                        ("cat", Value::Str("flow".into())),
                        ("ph", Value::Str("f".into())),
                        ("bp", Value::Str("e".into())),
                        ("pid", Value::Num(1.0)),
                        ("tid", Value::Num(ev.tid as f64)),
                        ("ts", Value::Num(ts_us)),
                        ("id", Value::Num(ev.id as f64)),
                    ]));
                }
            }
        }
    }
    obj([("traceEvents", Value::Arr(out))])
}

/// Writes [`chrome_trace_json`] of `events` to `path`.
pub fn write_chrome_trace(path: &str, events: &[TraceEvent]) -> std::io::Result<()> {
    std::fs::write(path, chrome_trace_json(events).to_string_compact())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Held for each test's whole body: the trace level and the span
    /// collector are process-wide, so one test's `set_level` or `drain`
    /// would otherwise land inside another's window. A failed test
    /// leaves nothing the next one relies on (each sets the level and
    /// drains first), so a poisoned lock is taken over, not propagated.
    static TRACE_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn spans_nest_and_parent_implicitly() {
        let _guard = lock();
        set_level(TraceLevel::Full);
        drain();
        {
            let outer = span(TraceLevel::Stages, "test", "outer");
            assert!(outer.context().is_some());
            {
                let _inner = span(TraceLevel::Full, "test", "inner");
            }
        }
        let evs = drain();
        set_level(TraceLevel::Off);
        assert_eq!(evs.len(), 2);
        // Inner finishes (and is pushed) first.
        let inner = evs.iter().find(|e| e.name == "inner").unwrap();
        let outer = evs.iter().find(|e| e.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
    }

    #[test]
    fn off_level_records_nothing() {
        let _guard = lock();
        set_level(TraceLevel::Off);
        drain();
        {
            let s = span(TraceLevel::Stages, "test", "ghost");
            assert!(!s.context().is_some());
        }
        assert!(drain().is_empty());
    }

    #[test]
    fn explicit_parenting_carries_across() {
        let _guard = lock();
        set_level(TraceLevel::Stages);
        drain();
        let ctx;
        {
            let req = span(TraceLevel::Stages, "test", "request");
            ctx = req.context();
        }
        {
            let _worker = span_with_parent(TraceLevel::Stages, "test", "worker", ctx);
        }
        let evs = drain();
        set_level(TraceLevel::Off);
        let req = evs.iter().find(|e| e.name == "request").unwrap();
        let worker = evs.iter().find(|e| e.name == "worker").unwrap();
        assert_eq!(worker.parent, req.id);
    }

    #[test]
    fn chrome_export_is_valid_json() {
        let _guard = lock();
        set_level(TraceLevel::Stages);
        drain();
        {
            let _s = span(TraceLevel::Stages, "test", "chrome");
        }
        let evs = drain();
        set_level(TraceLevel::Off);
        let doc = chrome_trace_json(&evs);
        let text = doc.to_string_compact();
        let back = Value::parse(&text).expect("chrome trace parses");
        assert!(back.get("traceEvents").is_some());
    }
}
