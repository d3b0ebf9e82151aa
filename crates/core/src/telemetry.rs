//! Zero-dependency observability: nested timed spans, deterministic
//! counters, and three sinks (stderr summary table, stable-schema JSON
//! profile, Chrome trace-event file).
//!
//! The workspace is offline — there is no `tracing` crate — so this is a
//! hand-rolled substrate with one hard invariant, enforced by the
//! determinism test suite:
//!
//! **Counters and timings never mix.** The recorder keeps three strictly
//! separate streams:
//!
//! - the **counter stream** ([`Telemetry::counter`]): values that are a
//!   pure function of the analysed program and the configured budgets.
//!   The stream (names, values *and order*) is byte-identical across
//!   repeated runs.
//! - the **metric stream** ([`Telemetry::metric`]): deterministic
//!   engine values (worklist drains, successor visits and skips) that
//!   describe how the solver scheduled its work rather than what it
//!   derived. Byte-identical across repeated runs, but kept apart so a
//!   scheduling change never moves the counter stream.
//! - **spans and instants** ([`Telemetry::span`]): wall-clock
//!   measurements. Never compared across runs; they exist for the human
//!   and for Perfetto.
//!
//! Timestamps are microseconds since the recorder was created. Chrome
//! trace lanes (`tid`) are: lane 0 = the coordinating thread (spans nest
//! there via RAII guards); other lanes carry whole spans recorded with
//! [`Telemetry::complete_span`] (the daemon's per-connection lanes).
//! [`validate_chrome_trace`] is the in-tree
//! schema checker CI runs against emitted traces: balanced B/E events per
//! lane, globally monotone timestamps, finite (non-NaN) numbers.

use std::fmt::Write as _;
use std::sync::Arc;
use std::sync::Mutex;
use std::time::Instant;

use crate::json;
use crate::json::escape as json_string;

/// The Chrome-trace lane (`tid`) of the coordinating thread.
pub const COORDINATOR_LANE: u32 = 0;

/// A completed timed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Phase name, e.g. `solve` or `project`.
    pub name: String,
    /// Trace lane (Chrome `tid`): 0 = coordinator.
    pub lane: u32,
    /// Start, microseconds since the recorder's origin.
    pub start_us: u64,
    /// End, microseconds since the recorder's origin.
    pub end_us: u64,
    /// Nesting depth within the lane at open time (0 = top level).
    pub depth: u32,
    /// Key/value annotations, emitted into the trace `args` object.
    pub args: Vec<(String, String)>,
    start_seq: u64,
    end_seq: u64,
}

impl SpanRecord {
    /// Span duration in microseconds.
    pub fn dur_us(&self) -> u64 {
        self.end_us - self.start_us
    }
}

/// A point event (ladder degrade, watchdog fire, cancellation, …).
#[derive(Debug, Clone, PartialEq)]
pub struct InstantRecord {
    /// Event name.
    pub name: String,
    /// Trace lane.
    pub lane: u32,
    /// Timestamp, microseconds since the recorder's origin.
    pub at_us: u64,
    /// Key/value annotations.
    pub args: Vec<(String, String)>,
    seq: u64,
}

/// A Chrome counter-track sample (`ph:"C"`): a value plotted over time.
/// Trace-only — wall-clock tied, so never part of a deterministic stream.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackSample {
    /// Track name, e.g. `contexts`.
    pub track: String,
    /// Timestamp, microseconds since the recorder's origin.
    pub at_us: u64,
    /// Sampled value.
    pub value: u64,
    seq: u64,
}

#[derive(Debug)]
struct OpenSpan {
    name: String,
    start_us: u64,
    start_seq: u64,
    depth: u32,
    args: Vec<(String, String)>,
}

#[derive(Debug, Default)]
struct Inner {
    seq: u64,
    /// RAII stack for lane 0 — the coordinating thread's nested phases.
    open: Vec<OpenSpan>,
    spans: Vec<SpanRecord>,
    instants: Vec<InstantRecord>,
    samples: Vec<TrackSample>,
    counters: Vec<(String, u64)>,
    metrics: Vec<(String, u64)>,
    /// Custom lane names (first registration wins); lanes without one get
    /// the default `coordinator` / `lane-N` labels.
    lane_labels: Vec<(u32, String)>,
}

/// The telemetry recorder. Cheap to share (`Arc<Telemetry>`); all
/// recording methods take `&self`. Interior mutability is a single
/// mutex — hot loops must not record per-derivation, only per-phase,
/// per-rung and per-request (the granularity every hook in this crate
/// uses), so contention is negligible.
#[derive(Debug)]
pub struct Telemetry {
    origin: Instant,
    inner: Mutex<Inner>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

/// An optional shared telemetry handle — the shape carried by
/// `SolverConfig` and threaded through every layer.
pub type TelemetryHandle = Option<Arc<Telemetry>>;

/// Opens a lane-0 span on an optional handle; `None` records nothing.
pub fn span_opt<'a>(tele: &'a TelemetryHandle, name: &str) -> Option<SpanGuard<'a>> {
    tele.as_deref().map(|t| t.span(name))
}

impl Telemetry {
    /// A fresh recorder; timestamps are measured from this call.
    pub fn new() -> Telemetry {
        Telemetry {
            origin: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Microseconds elapsed since the recorder was created. Lock-free —
    /// safe to call from any thread without contention.
    pub fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned mutex only means a panicking thread held it;
        // telemetry is diagnostics, so keep recording.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Opens a nested span on the coordinator lane; the returned guard
    /// closes it on drop. Spans must nest (RAII enforces this at every
    /// call site in the crate).
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        let now = self.now_us();
        let mut inner = self.lock();
        let seq = inner.seq;
        inner.seq += 1;
        let depth = inner.open.len() as u32;
        inner.open.push(OpenSpan {
            name: name.to_owned(),
            start_us: now,
            start_seq: seq,
            depth,
            args: Vec::new(),
        });
        SpanGuard { tele: self }
    }

    fn close_span(&self) {
        let now = self.now_us();
        let mut inner = self.lock();
        let seq = inner.seq;
        inner.seq += 1;
        if let Some(open) = inner.open.pop() {
            inner.spans.push(SpanRecord {
                name: open.name,
                lane: COORDINATOR_LANE,
                start_us: open.start_us,
                end_us: now.max(open.start_us),
                depth: open.depth,
                args: open.args,
                start_seq: open.start_seq,
                end_seq: seq,
            });
        }
    }

    /// Records a whole span on an arbitrary lane (used by the daemon to
    /// record each connection's phases on that connection's lane).
    pub fn complete_span(
        &self,
        lane: u32,
        name: &str,
        start_us: u64,
        end_us: u64,
        args: Vec<(String, String)>,
    ) {
        let mut inner = self.lock();
        let seq = inner.seq;
        inner.seq += 2;
        inner.spans.push(SpanRecord {
            name: name.to_owned(),
            lane,
            start_us,
            end_us: end_us.max(start_us),
            depth: 0,
            args,
            start_seq: seq,
            end_seq: seq + 1,
        });
    }

    /// Records a point event (rung degrade, watchdog fire, …).
    pub fn instant(&self, name: &str, args: Vec<(String, String)>) {
        let now = self.now_us();
        let mut inner = self.lock();
        let seq = inner.seq;
        inner.seq += 1;
        inner.instants.push(InstantRecord {
            name: name.to_owned(),
            lane: COORDINATOR_LANE,
            at_us: now,
            args,
            seq,
        });
    }

    /// Appends to the **deterministic counter stream**: byte-identical
    /// across repeated runs. Only record values that are pure functions of
    /// the program and the configured budgets.
    pub fn counter(&self, name: &str, value: u64) {
        self.lock().counters.push((name.to_owned(), value));
    }

    /// Appends to the **engine metric stream**: reproducible across
    /// repeated runs, but describing how the engine scheduled its work.
    pub fn metric(&self, name: &str, value: u64) {
        self.lock().metrics.push((name.to_owned(), value));
    }

    /// Names a trace lane (Chrome `thread_name` metadata). The service
    /// layer uses this to label per-connection lanes `conn-N`; lanes
    /// without a registered label keep the default `coordinator` /
    /// `lane-N` naming. First registration wins.
    pub fn set_lane_label(&self, lane: u32, label: &str) {
        let mut inner = self.lock();
        if !inner.lane_labels.iter().any(|(l, _)| *l == lane) {
            inner.lane_labels.push((lane, label.to_owned()));
        }
    }

    /// Samples a Chrome counter track (`ph:"C"`) at the current time.
    pub fn sample(&self, track: &str, value: u64) {
        let now = self.now_us();
        let mut inner = self.lock();
        let seq = inner.seq;
        inner.seq += 1;
        inner.samples.push(TrackSample {
            track: track.to_owned(),
            at_us: now,
            value,
            seq,
        });
    }

    /// Completed spans, in completion order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.lock().spans.clone()
    }

    /// Recorded instants, in order.
    pub fn instants(&self) -> Vec<InstantRecord> {
        self.lock().instants.clone()
    }

    /// The engine metric stream, in record order.
    pub fn metric_stream(&self) -> Vec<(String, u64)> {
        self.lock().metrics.clone()
    }

    /// The counter stream as one `name=value` line per entry — the byte
    /// form the determinism suite compares across runs.
    pub fn counter_stream_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.lock().counters {
            let _ = writeln!(out, "{name}={value}");
        }
        out
    }

    /// The metric stream in the same one-line-per-entry byte form.
    pub fn metric_stream_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.lock().metrics {
            let _ = writeln!(out, "{name}={value}");
        }
        out
    }

    /// The Chrome trace-event document (`chrome://tracing` / Perfetto):
    /// a `{"traceEvents":[...]}` object with thread-name metadata, `B`/`E`
    /// span pairs, `i` instants and `C` counter tracks, sorted by
    /// timestamp so the file satisfies [`validate_chrome_trace`].
    pub fn chrome_trace(&self) -> String {
        let inner = self.lock();
        // (ts, seq, rendered event). Sorting by (ts, seq) preserves stack
        // discipline for equal timestamps: a parent opens before (smaller
        // seq) and closes after (larger seq) its children.
        let mut events: Vec<(u64, u64, String)> = Vec::new();
        let mut lanes: Vec<u32> = vec![COORDINATOR_LANE];
        for span in &inner.spans {
            if !lanes.contains(&span.lane) {
                lanes.push(span.lane);
            }
            let args = render_args_json(&span.args);
            events.push((
                span.start_us,
                span.start_seq,
                format!(
                    "{{\"name\":{},\"cat\":\"rudoop\",\"ph\":\"B\",\"ts\":{},\"pid\":1,\"tid\":{},\"args\":{}}}",
                    json_string(&span.name),
                    span.start_us,
                    span.lane,
                    args
                ),
            ));
            events.push((
                span.end_us,
                span.end_seq,
                format!(
                    "{{\"name\":{},\"cat\":\"rudoop\",\"ph\":\"E\",\"ts\":{},\"pid\":1,\"tid\":{}}}",
                    json_string(&span.name),
                    span.end_us,
                    span.lane
                ),
            ));
        }
        for inst in &inner.instants {
            events.push((
                inst.at_us,
                inst.seq,
                format!(
                    "{{\"name\":{},\"cat\":\"rudoop\",\"ph\":\"i\",\"ts\":{},\"pid\":1,\"tid\":{},\"s\":\"t\",\"args\":{}}}",
                    json_string(&inst.name),
                    inst.at_us,
                    inst.lane,
                    render_args_json(&inst.args)
                ),
            ));
        }
        for sample in &inner.samples {
            events.push((
                sample.at_us,
                sample.seq,
                format!(
                    "{{\"name\":{},\"cat\":\"rudoop\",\"ph\":\"C\",\"ts\":{},\"pid\":1,\"tid\":0,\"args\":{{{}:{}}}}}",
                    json_string(&sample.track),
                    sample.at_us,
                    json_string(&sample.track),
                    sample.value
                ),
            ));
        }
        events.sort_by_key(|a| (a.0, a.1));

        let mut out = String::from("{\"traceEvents\":[\n");
        let mut first = true;
        let mut push = |out: &mut String, ev: &str| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(ev);
        };
        push(
            &mut out,
            "{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,\"tid\":0,\"args\":{\"name\":\"rudoop\"}}",
        );
        lanes.sort_unstable();
        for lane in lanes {
            let label = inner
                .lane_labels
                .iter()
                .find(|(l, _)| *l == lane)
                .map(|(_, name)| name.clone())
                .unwrap_or_else(|| {
                    if lane == COORDINATOR_LANE {
                        "coordinator".to_owned()
                    } else {
                        format!("lane-{lane}")
                    }
                });
            push(
                &mut out,
                &format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,\"tid\":{lane},\"args\":{{\"name\":{}}}}}",
                    json_string(&label)
                ),
            );
        }
        for (_, _, ev) in &events {
            push(&mut out, ev);
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }

    /// The stable-schema JSON profile: spans with durations, instants,
    /// and the two deterministic streams. Schema changes are additive
    /// (`"schema"` names the version).
    pub fn profile_json(&self) -> String {
        let inner = self.lock();
        let mut out = String::from("{\n  \"schema\": \"rudoop-profile-v1\",\n  \"spans\": [\n");
        for (i, span) in inner.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"name\": {}, \"lane\": {}, \"depth\": {}, \"start_us\": {}, \"dur_us\": {}, \"args\": {}}}{}",
                json_string(&span.name),
                span.lane,
                span.depth,
                span.start_us,
                span.dur_us(),
                render_args_json(&span.args),
                if i + 1 < inner.spans.len() { "," } else { "" }
            );
        }
        out.push_str("  ],\n  \"instants\": [\n");
        for (i, inst) in inner.instants.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"name\": {}, \"at_us\": {}, \"args\": {}}}{}",
                json_string(&inst.name),
                inst.at_us,
                render_args_json(&inst.args),
                if i + 1 < inner.instants.len() {
                    ","
                } else {
                    ""
                }
            );
        }
        out.push_str("  ],\n  \"counters\": [\n");
        for (i, (name, value)) in inner.counters.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"name\": {}, \"value\": {}}}{}",
                json_string(name),
                value,
                if i + 1 < inner.counters.len() {
                    ","
                } else {
                    ""
                }
            );
        }
        out.push_str("  ],\n  \"metrics\": [\n");
        for (i, (name, value)) in inner.metrics.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"name\": {}, \"value\": {}}}{}",
                json_string(name),
                value,
                if i + 1 < inner.metrics.len() { "," } else { "" }
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// The human-readable summary table (printed to stderr by the CLIs):
    /// spans aggregated by name in first-completion order, then the
    /// deterministic counters.
    pub fn summary(&self) -> String {
        let inner = self.lock();
        let mut order: Vec<&str> = Vec::new();
        let mut agg: std::collections::HashMap<&str, (u64, u64)> = std::collections::HashMap::new();
        for span in &inner.spans {
            let entry = agg.entry(span.name.as_str()).or_insert_with(|| {
                order.push(span.name.as_str());
                (0, 0)
            });
            entry.0 += 1;
            entry.1 += span.dur_us();
        }
        let mut out = String::from("telemetry summary:\n");
        let _ = writeln!(
            out,
            "  {:<28} {:>6} {:>12} {:>12}",
            "span", "calls", "total", "mean"
        );
        for name in order {
            let (calls, total_us) = agg[name];
            let _ = writeln!(
                out,
                "  {:<28} {:>6} {:>12} {:>12}",
                name,
                calls,
                format_us(total_us),
                format_us(total_us / calls.max(1)),
            );
        }
        if !inner.instants.is_empty() {
            out.push_str("  events:\n");
            for inst in &inner.instants {
                let _ = writeln!(
                    out,
                    "    @{:>10} {}{}",
                    format_us(inst.at_us),
                    inst.name,
                    render_args_text(&inst.args)
                );
            }
        }
        if !inner.counters.is_empty() {
            out.push_str("  counters (deterministic):\n");
            for (name, value) in &inner.counters {
                let _ = writeln!(out, "    {name} = {value}");
            }
        }
        if !inner.metrics.is_empty() {
            let _ = writeln!(
                out,
                "  engine metrics: {} entries (see --profile for the full stream)",
                inner.metrics.len()
            );
        }
        out
    }
}

/// RAII guard returned by [`Telemetry::span`]; closes the span on drop.
#[must_use = "dropping the guard immediately closes the span"]
#[derive(Debug)]
pub struct SpanGuard<'a> {
    tele: &'a Telemetry,
}

impl SpanGuard<'_> {
    /// Attaches a key/value annotation to the span (applied at close).
    pub fn arg(&self, key: &str, value: impl ToString) {
        let mut inner = self.tele.lock();
        if let Some(open) = inner.open.last_mut() {
            open.args.push((key.to_owned(), value.to_string()));
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.tele.close_span();
    }
}

fn format_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.1}ms", us as f64 / 1e3)
    } else {
        format!("{us}us")
    }
}

fn render_args_json(args: &[(String, String)]) -> String {
    let mut out = String::from("{");
    for (i, (key, value)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_string(key));
        out.push(':');
        // Bare integers render as numbers so Perfetto can aggregate them.
        if !value.is_empty() && value.bytes().all(|b| b.is_ascii_digit()) && value.len() <= 19 {
            out.push_str(value);
        } else {
            out.push_str(&json_string(value));
        }
    }
    out.push('}');
    out
}

fn render_args_text(args: &[(String, String)]) -> String {
    let mut out = String::new();
    for (key, value) in args {
        let _ = write!(out, " {key}={value}");
    }
    out
}

// ---------------------------------------------------------------------------
// Chrome-trace schema checker (in-tree; CI's trace smoke job runs it).
// ---------------------------------------------------------------------------

/// What [`validate_chrome_trace`] found in a well-formed trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceCheck {
    /// Total events, metadata included.
    pub events: usize,
    /// Balanced `B`/`E` pairs.
    pub spans: usize,
    /// `i` instant events.
    pub instants: usize,
    /// `C` counter samples.
    pub samples: usize,
    /// Distinct `B`-event names (phase coverage assertions key off this).
    pub span_names: std::collections::BTreeSet<String>,
    /// Largest timestamp seen, microseconds.
    pub max_ts_us: u64,
}

/// Validates a Chrome trace-event JSON document: parses it with the
/// in-tree JSON reader (rejecting `NaN`/`Infinity`, which are not JSON),
/// then checks the trace contract — a `traceEvents` array whose events
/// carry `name`/`ph`/`pid`/`tid`, non-metadata events carry a finite
/// non-negative `ts`, timestamps are globally monotone in file order, and
/// `B`/`E` events are balanced per lane with stack discipline (every `E`
/// matches the innermost open `B` of its `(pid, tid)`).
pub fn validate_chrome_trace(text: &str) -> Result<TraceCheck, String> {
    let doc = json::parse(text).map_err(|e| malformed_json_report(text, e))?;
    let root = doc.as_object().ok_or("root is not an object")?;
    let events = root
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .map(|(_, v)| v)
        .ok_or("missing traceEvents")?
        .as_array()
        .ok_or("traceEvents is not an array")?;

    let mut check = TraceCheck {
        events: events.len(),
        ..TraceCheck::default()
    };
    let mut last_ts: Option<f64> = None;
    let mut stacks: std::collections::HashMap<(u64, u64), Vec<String>> =
        std::collections::HashMap::new();
    for (i, event) in events.iter().enumerate() {
        let obj = event
            .as_object()
            .ok_or_else(|| format!("event {i}: not an object"))?;
        let field = |name: &str| obj.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        let name = field("name")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("event {i}: missing name"))?
            .to_owned();
        let ph = field("ph")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("event {i}: missing ph"))?
            .to_owned();
        let pid = field("pid")
            .and_then(|v| v.as_number())
            .ok_or_else(|| format!("event {i}: missing pid"))?;
        let tid = field("tid")
            .and_then(|v| v.as_number())
            .ok_or_else(|| format!("event {i}: missing tid"))?;
        if ph == "M" {
            continue; // metadata carries no meaningful timestamp
        }
        let ts = field("ts")
            .and_then(|v| v.as_number())
            .ok_or_else(|| format!("event {i} ({name}): missing ts"))?;
        if !ts.is_finite() || ts < 0.0 {
            return Err(format!("event {i} ({name}): non-finite or negative ts"));
        }
        if let Some(prev) = last_ts {
            if ts < prev {
                return Err(format!(
                    "event {i} ({name}): timestamp {ts} goes backwards (prev {prev})"
                ));
            }
        }
        last_ts = Some(ts);
        check.max_ts_us = check.max_ts_us.max(ts as u64);
        if let Some(dur) = field("dur").and_then(|v| v.as_number()) {
            if !dur.is_finite() || dur < 0.0 {
                return Err(format!("event {i} ({name}): non-finite or negative dur"));
            }
        }
        let lane = (pid as u64, tid as u64);
        match ph.as_str() {
            "B" => {
                check.span_names.insert(name.clone());
                stacks.entry(lane).or_default().push(name);
            }
            "E" => {
                let open =
                    stacks.entry(lane).or_default().pop().ok_or_else(|| {
                        format!("event {i} ({name}): E without open B on {lane:?}")
                    })?;
                if open != name {
                    return Err(format!(
                        "event {i}: E({name}) closes B({open}) on lane {lane:?}"
                    ));
                }
                check.spans += 1;
            }
            "i" | "I" => check.instants += 1,
            "C" => check.samples += 1,
            "X" => check.spans += 1,
            other => return Err(format!("event {i} ({name}): unknown phase {other:?}")),
        }
    }
    for (lane, stack) in stacks {
        if let Some(open) = stack.last() {
            return Err(format!(
                "unbalanced trace: B({open}) never closed on {lane:?}"
            ));
        }
    }
    Ok(check)
}

/// Maps a whole-document JSON parse failure onto a per-record diagnostic.
///
/// The trace writer emits one event record per line, so a malformed file
/// almost always means one corrupted record: re-parse each record line on
/// its own and name the first one that fails, with its line number and a
/// snippet. When every record parses individually (the damage is
/// structural — a missing bracket, truncation between records), the
/// original document-level error is reported instead.
fn malformed_json_report(text: &str, document_error: String) -> String {
    let mut record = 0usize;
    for (i, line) in text.lines().enumerate() {
        let body = line.trim();
        // Header (`{"traceEvents":[`), footer (`],...}`), blank lines.
        if body.is_empty() || body.ends_with('[') || body.starts_with(']') {
            continue;
        }
        record += 1;
        let body = body.strip_suffix(',').unwrap_or(body);
        if let Err(e) = json::parse(body) {
            let snippet: String = body.chars().take(60).collect();
            let ellipsis = if body.chars().count() > 60 { "…" } else { "" };
            return format!(
                "record {record} (line {}) is not valid JSON: {e}: {snippet}{ellipsis}",
                i + 1
            );
        }
    }
    document_error
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_close_in_raii_order() {
        let tele = Telemetry::new();
        {
            let outer = tele.span("outer");
            outer.arg("k", 7);
            let _inner = tele.span("inner");
        }
        let spans = tele.spans();
        assert_eq!(spans.len(), 2);
        // Inner closes first.
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].depth, 1);
        assert_eq!(spans[1].name, "outer");
        assert_eq!(spans[1].depth, 0);
        assert_eq!(spans[1].args, vec![("k".to_owned(), "7".to_owned())]);
        assert!(spans[0].start_us >= spans[1].start_us);
        assert!(spans[0].end_us <= spans[1].end_us);
    }

    #[test]
    fn counter_and_metric_streams_stay_separate() {
        let tele = Telemetry::new();
        tele.counter("solver.derivations", 42);
        tele.metric("seq.worklist_drains", 7);
        tele.counter("taint.leaks", 1);
        assert_eq!(
            tele.counter_stream_text(),
            "solver.derivations=42\ntaint.leaks=1\n"
        );
        assert_eq!(tele.metric_stream_text(), "seq.worklist_drains=7\n");
    }

    #[test]
    fn chrome_trace_validates_and_carries_all_event_kinds() {
        let tele = Telemetry::new();
        {
            let _solve = tele.span("solve");
            tele.complete_span(1, "drain", 1, 5, vec![("work".into(), "9".into())]);
            tele.instant("degrade", vec![("rung".into(), "2objH".into())]);
            tele.sample("contexts", 123);
        }
        let trace = tele.chrome_trace();
        let check = validate_chrome_trace(&trace).expect("trace validates");
        assert_eq!(check.spans, 2);
        assert_eq!(check.instants, 1);
        assert_eq!(check.samples, 1);
        assert!(check.span_names.contains("solve"));
        assert!(check.span_names.contains("drain"));
    }

    #[test]
    fn profile_json_is_parseable_and_stable_schema() {
        let tele = Telemetry::new();
        {
            let _s = tele.span("phase \"quoted\"");
        }
        tele.counter("c", 1);
        tele.metric("m", 2);
        let profile = tele.profile_json();
        let doc = json::parse(&profile).expect("profile parses");
        let root = doc.as_object().unwrap();
        let keys: Vec<&str> = root.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["schema", "spans", "instants", "counters", "metrics"]);
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        // Unbalanced: E without B.
        let bad = r#"{"traceEvents":[
            {"name":"x","ph":"E","ts":1,"pid":1,"tid":0}
        ]}"#;
        assert!(validate_chrome_trace(bad).is_err());
        // Backwards timestamps.
        let bad = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":5,"pid":1,"tid":0},
            {"name":"a","ph":"E","ts":3,"pid":1,"tid":0}
        ]}"#;
        assert!(validate_chrome_trace(bad).is_err());
        // Mismatched nesting.
        let bad = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":1,"pid":1,"tid":0},
            {"name":"b","ph":"E","ts":2,"pid":1,"tid":0}
        ]}"#;
        assert!(validate_chrome_trace(bad).is_err());
        // NaN is not a JSON token.
        let bad = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":NaN,"pid":1,"tid":0}
        ]}"#;
        assert!(validate_chrome_trace(bad).is_err());
        // Never-closed B.
        let bad = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":1,"pid":1,"tid":0}
        ]}"#;
        assert!(validate_chrome_trace(bad).is_err());
    }

    #[test]
    fn malformed_record_is_reported_by_line_and_record_number() {
        // Record 2 (file line 3) is truncated mid-object.
        let bad = "{\"traceEvents\":[\n\
                   {\"name\":\"a\",\"ph\":\"B\",\"ts\":1,\"pid\":1,\"tid\":0},\n\
                   {\"name\":\"a\",\"ph\":\"E\",\"ts\":2,\n\
                   ]}\n";
        let err = validate_chrome_trace(bad).unwrap_err();
        assert!(err.contains("record 2"), "{err}");
        assert!(err.contains("line 3"), "{err}");
        assert!(err.contains("not valid JSON"), "{err}");
        // Structural damage with individually well-formed records falls
        // back to the document-level error.
        let bad = "{\"traceEvents\":[\n\
                   {\"name\":\"a\",\"ph\":\"B\",\"ts\":1,\"pid\":1,\"tid\":0}\n\
                   {\"name\":\"a\",\"ph\":\"E\",\"ts\":2,\"pid\":1,\"tid\":0}\n\
                   ]}\n";
        let err = validate_chrome_trace(bad).unwrap_err();
        assert!(!err.contains("record"), "{err}");
        assert!(err.contains("expected"), "{err}");
    }

    #[test]
    fn summary_renders_aggregates_and_counters() {
        let tele = Telemetry::new();
        {
            let _a = tele.span("solve");
        }
        {
            let _b = tele.span("solve");
        }
        tele.counter("solver.derivations", 10);
        let summary = tele.summary();
        assert!(summary.contains("telemetry summary:"), "{summary}");
        assert!(summary.contains("solve"), "{summary}");
        assert!(summary.contains("solver.derivations = 10"), "{summary}");
    }

    #[test]
    fn json_reader_handles_escapes_and_rejects_garbage() {
        let v = json::parse(r#"{"a":"q\"\nA","b":[1,2.5,-3e2],"c":null}"#).unwrap();
        let obj = v.as_object().unwrap();
        assert_eq!(obj[0].1.as_str(), Some("q\"\nA"));
        assert_eq!(obj[1].1.as_array().unwrap()[2].as_number(), Some(-300.0));
        assert!(json::parse("{").is_err());
        assert!(json::parse("[1,]").is_err());
        assert!(json::parse("007a").is_err());
    }
}
