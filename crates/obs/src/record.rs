//! Spans and events: the two record-emitting instrumentation primitives.
//!
//! Both are gated on the global enable flag: a disabled [`span`] reads no
//! clock and allocates nothing, a disabled [`event`] returns after one
//! relaxed load. Record serialization happens at emission time on the
//! emitting thread; only the final line write takes the sink lock.

use crate::json::{push_str, push_value, Value};
use crate::{emit_line, enabled, offset_secs};
use std::time::Instant;

/// The opening of every record: the schema version `"v"` (bump it when a
/// record's required keys or their meaning change), then the `kind` key.
const RECORD_HEAD: &str = "{\"v\":1,\"kind\":";

/// Keys every record writes ahead of its fields. A field under one of them
/// would be a duplicate key, which JSON parsers resolve to the last value.
const RESERVED_KEYS: [&str; 5] = ["v", "kind", "name", "elapsed", "at"];

/// Debug-build check that a span or event field does not reuse a
/// reserved record key.
fn debug_assert_field_key(key: &str) {
    debug_assert!(
        !RESERVED_KEYS.contains(&key),
        "trace field `{key}` collides with a reserved record key"
    );
}

/// Serializes and writes one record line with the required `v`, `kind`,
/// `name`, `elapsed` prefix followed by `extra` fields.
fn emit_record(
    kind: &str,
    name: &str,
    elapsed: f64,
    head: &[(&'static str, f64)],
    fields: &[(&'static str, Value)],
) {
    let mut line = String::with_capacity(96);
    line.push_str(RECORD_HEAD);
    push_str(&mut line, kind);
    line.push_str(",\"name\":");
    push_str(&mut line, name);
    line.push_str(",\"elapsed\":");
    crate::json::push_f64(&mut line, elapsed);
    for (key, v) in head {
        line.push(',');
        push_str(&mut line, key);
        line.push(':');
        crate::json::push_f64(&mut line, *v);
    }
    for (key, v) in fields {
        line.push(',');
        push_str(&mut line, key);
        line.push(':');
        push_value(&mut line, v);
    }
    line.push('}');
    emit_line(&line);
}

/// A scoped wall-clock timer. Created by [`span`]; emits one
/// `{"kind":"span",...}` record when dropped, with `elapsed` = duration
/// in seconds and `at` = start offset from the sink epoch. Inert (no
/// clock read, no allocation, no record) when tracing was disabled at
/// creation.
#[derive(Debug)]
#[must_use = "a span measures the scope it is bound to; bind it to a variable"]
pub struct Span {
    name: &'static str,
    /// `Some` iff tracing was enabled when the span was created.
    start: Option<(Instant, f64)>,
    fields: Vec<(&'static str, Value)>,
}

/// Opens a span named `name`. The single instrumentation-point cost when
/// tracing is disabled is the [`enabled`] check.
#[inline]
pub fn span(name: &'static str) -> Span {
    let start = if enabled() {
        Some((Instant::now(), offset_secs()))
    } else {
        None
    };
    Span {
        name,
        start,
        fields: Vec::new(),
    }
}

impl Span {
    /// `true` when the span will emit a record (tracing was enabled at
    /// creation). Guard expensive field construction on this.
    pub fn active(&self) -> bool {
        self.start.is_some()
    }

    /// Attaches a typed field (builder style). No-op when inactive.
    pub fn with(mut self, key: &'static str, value: impl Into<Value>) -> Span {
        self.record(key, value);
        self
    }

    /// Attaches a typed field to an already-bound span. No-op when
    /// inactive.
    pub fn record(&mut self, key: &'static str, value: impl Into<Value>) {
        debug_assert_field_key(key);
        if self.start.is_some() {
            self.fields.push((key, value.into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((start, at)) = self.start {
            let elapsed = start.elapsed().as_secs_f64();
            emit_record("span", self.name, elapsed, &[("at", at)], &self.fields);
        }
    }
}

/// Emits one `{"kind":"event",...}` record with `elapsed` = offset from
/// the sink epoch. Returns after one relaxed load when tracing is
/// disabled — but note the `fields` slice is built by the caller first,
/// so hot paths with non-trivial fields should guard on [`enabled`].
pub fn event(name: &'static str, fields: &[(&'static str, Value)]) {
    for (key, _) in fields {
        debug_assert_field_key(key);
    }
    if !enabled() {
        return;
    }
    emit_record("event", name, offset_secs(), &[], fields);
}

/// Emits one `{"kind":"counter",...}` snapshot record (used by
/// [`crate::flush_counters`]).
pub(crate) fn emit_counter(name: &'static str, value: u64) {
    emit_record(
        "counter",
        name,
        offset_secs(),
        &[],
        &[("value", Value::U64(value))],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{serial, SharedBuf};
    use crate::{install_writer, shutdown};

    #[test]
    fn disabled_span_is_inert() {
        let _gate = serial();
        shutdown();
        let s = span("quiet").with("k", 1u64);
        assert!(!s.active());
        drop(s); // must not emit or panic
    }

    #[test]
    fn span_record_carries_duration_and_fields() {
        let _gate = serial();
        let buf = SharedBuf::default();
        install_writer(Box::new(buf.clone()));
        {
            let mut s = span("timed").with("n", 3u64);
            assert!(s.active());
            s.record("flag", false);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        shutdown();
        let text = buf.contents();
        let line = text.lines().next().expect("one record");
        assert!(line.contains("\"kind\":\"span\""));
        assert!(line.contains("\"name\":\"timed\""));
        assert!(line.contains("\"n\":3"));
        assert!(line.contains("\"flag\":false"));
        assert!(line.contains("\"at\":"));
        let elapsed: f64 = line
            .split("\"elapsed\":")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .and_then(|tok| tok.parse().ok())
            .expect("parse elapsed");
        assert!(elapsed >= 0.002, "span slept 2ms, recorded {elapsed}");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "collides with a reserved record key")]
    fn span_field_named_kind_is_rejected() {
        let _ = span("clash").with("kind", 1u64);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "collides with a reserved record key")]
    fn event_field_named_at_is_rejected() {
        event("clash", &[("at", Value::U64(1))]);
    }

    #[test]
    fn event_requires_enabled() {
        let _gate = serial();
        shutdown();
        event("dropped", &[("x", Value::U64(1))]); // silently discarded
        let buf = SharedBuf::default();
        install_writer(Box::new(buf.clone()));
        event("kept", &[("x", Value::U64(1))]);
        shutdown();
        let text = buf.contents();
        assert!(!text.contains("dropped"));
        assert!(text.contains("\"name\":\"kept\""));
    }
}
