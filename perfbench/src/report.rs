//! A run's results: metrics with units and sample counts, the run
//! environment, the human-readable table and the machine-readable lines.

use std::fmt::Write as _;

/// A JSON value as the benchmark writes it.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, written with all its digits (non-finite values as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An object, keys in insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Renders compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Value::Num(_) => out.push_str("null"),
            Value::Str(s) => out.push_str(&json_str(s)),
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&json_str(k));
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// `s` as a quoted, escaped JSON string.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, e.g. `ms`, `s`, `1/s`, `MiB`, `count`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// How many samples the value summarizes (1 for a single reading).
    pub samples: usize,
    /// What exactly was measured, for the table.
    pub note: String,
}

impl Metric {
    /// A metric with a note.
    pub fn new(
        name: &'static str,
        unit: &'static str,
        value: f64,
        samples: usize,
        note: impl Into<String>,
    ) -> Metric {
        Metric {
            name,
            unit,
            value,
            samples,
            note: note.into(),
        }
    }
}

/// Everything one run produces.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted: requests, deltas, builds, removal levels and
    /// oracle comparisons.
    pub attempted: u64,
    /// Operations that failed: wire errors, query errors, refused requests
    /// and oracle mismatches.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// End-to-end metrics (reported by every workload).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Workload-specific end-to-end figures printed beside the table.
    pub extras: Vec<Metric>,
    /// Input sizes.
    pub inputs: Vec<(&'static str, Value)>,
    /// Self time per span label in milliseconds (traced runs only).
    pub self_times: Option<Value>,
}

impl Report {
    /// Counts one operation; `Err` counts it as failed and keeps the
    /// message.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(msg);
            }
        }
    }

    /// Failed operations as a share of those attempted.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line, printed last: `correct`, `attempted`, `failed` and the
    /// metrics of this kind of run (end-to-end, or per-layer when traced).
    pub fn result_line(&self, traced: bool) -> String {
        let metrics = if traced { &self.layers } else { &self.e2e };
        Value::Obj(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::Num(self.attempted as f64)),
            ("failed".into(), Value::Num(self.failed as f64)),
            ("metrics".into(), metrics_obj(metrics, false)),
        ])
        .render()
    }

    /// The full record written beside the run: environment, inputs, every
    /// metric with its sample count and note, and the self-time table.
    pub fn document(&self, header: Vec<(&'static str, Value)>) -> Value {
        let mut fields: Vec<(String, Value)> = header
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        fields.push(("correct".into(), Value::Bool(self.correct())));
        fields.push(("attempted".into(), Value::Num(self.attempted as f64)));
        fields.push(("failed".into(), Value::Num(self.failed as f64)));
        fields.push(("failed_frac".into(), Value::Num(self.failed_frac())));
        fields.push((
            "failures".into(),
            Value::Obj(
                self.failures
                    .iter()
                    .enumerate()
                    .map(|(i, m)| (i.to_string(), Value::Str(m.clone())))
                    .collect(),
            ),
        ));
        fields.push((
            "inputs".into(),
            Value::Obj(
                self.inputs
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            ),
        ));
        fields.push(("end_to_end".into(), metrics_obj(&self.e2e, true)));
        fields.push(("extras".into(), metrics_obj(&self.extras, true)));
        fields.push(("per_layer".into(), metrics_obj(&self.layers, true)));
        fields.push((
            "self_time_ms".into(),
            self.self_times.clone().unwrap_or(Value::Null),
        ));
        Value::Obj(fields)
    }

    /// The human-readable table.
    pub fn table(&self, traced: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "correct={} attempted={} failed={} failed_frac={}",
            self.correct(),
            self.attempted,
            self.failed,
            self.failed_frac()
        );
        for msg in &self.failures {
            let _ = writeln!(out, "  failure: {msg}");
        }
        let inputs: Vec<String> = self
            .inputs
            .iter()
            .map(|(k, v)| format!("{k}={}", v.render()))
            .collect();
        let _ = writeln!(out, "inputs: {}", inputs.join(" "));
        let mut section = |title: &str, ms: &[Metric]| {
            if ms.is_empty() {
                return;
            }
            let _ = writeln!(out, "{title}:");
            for m in ms {
                let _ = writeln!(
                    out,
                    "  {:<40} {:>16.4} {:<6} n={:<6} {}",
                    m.name, m.value, m.unit, m.samples, m.note
                );
            }
        };
        section("end-to-end", &self.e2e);
        section("workload figures", &self.extras);
        if traced {
            section("per-layer (traced run)", &self.layers);
        }
        out
    }
}

fn metrics_obj(metrics: &[Metric], detailed: bool) -> Value {
    Value::Obj(
        metrics
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("value".to_string(), Value::Num(m.value)),
                    ("unit".to_string(), Value::Str(m.unit.to_string())),
                ];
                if detailed {
                    fields.push(("samples".to_string(), Value::Num(m.samples as f64)));
                    fields.push(("note".to_string(), Value::Str(m.note.clone())));
                }
                (m.name.to_string(), Value::Obj(fields))
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use omnet_serve::wire::{parse_json, Json};

    fn num(j: &Json) -> f64 {
        match j {
            Json::Num(raw) => raw.parse().unwrap(),
            other => panic!("expected a number, got {other:?}"),
        }
    }

    fn sample_report() -> Report {
        let mut r = Report::default();
        r.check(Ok(()));
        r.check(Err("slot 3 diverged: \"path\"\n".to_string()));
        r.e2e.push(Metric::new(
            "op_p50_ms",
            "ms",
            87.912_345_678_9,
            412,
            "request round trip",
        ));
        r.e2e
            .push(Metric::new("setup_s", "s", 1.0e-7, 3, "median of 3"));
        r.layers
            .push(Metric::new("serve.wire.req_bytes", "B", 1234.0, 412, ""));
        r.inputs.push(("nodes", Value::Num(4078.0)));
        r
    }

    #[test]
    fn result_line_round_trips_through_a_json_parser() {
        let r = sample_report();
        for traced in [false, true] {
            let line = r.result_line(traced);
            let j = parse_json(line.as_bytes()).unwrap();
            assert_eq!(j.get("correct"), Some(&Json::Bool(false)));
            assert_eq!(num(j.get("attempted").unwrap()), 2.0);
            assert_eq!(num(j.get("failed").unwrap()), 1.0);
            let Some(Json::Obj(metrics)) = j.get("metrics") else {
                panic!("metrics must be an object");
            };
            let want = if traced { &r.layers } else { &r.e2e };
            assert_eq!(metrics.len(), want.len());
            for (m, (key, val)) in want.iter().zip(metrics) {
                assert_eq!(key, m.name);
                assert_eq!(
                    num(val.get("value").unwrap()),
                    m.value,
                    "all digits survive"
                );
                assert_eq!(val.get("unit"), Some(&Json::Str(m.unit.to_string())));
                let Json::Obj(fields) = val else {
                    unreachable!()
                };
                assert_eq!(fields.len(), 2, "exactly value and unit");
            }
        }
    }

    #[test]
    fn document_round_trips_through_a_json_parser() {
        let r = sample_report();
        let doc = r.document(vec![("workload", Value::Str("serve_read".into()))]);
        let text = doc.render();
        let j = parse_json(text.as_bytes()).unwrap();
        assert_eq!(j.get("workload"), Some(&Json::Str("serve_read".into())));
        let failures = j.get("failures").unwrap();
        assert_eq!(
            failures.get("0"),
            Some(&Json::Str("slot 3 diverged: \"path\"\n".into()))
        );
        let e2e = j.get("end_to_end").unwrap();
        let op = e2e.get("op_p50_ms").unwrap();
        assert_eq!(num(op.get("samples").unwrap()), 412.0);
        assert_eq!(
            num(e2e.get("setup_s").unwrap().get("value").unwrap()),
            1.0e-7
        );
        assert_eq!(j.get("self_time_ms"), Some(&Json::Null));
        assert_eq!(num(j.get("inputs").unwrap().get("nodes").unwrap()), 4078.0);
        // Non-finite values never leak into the output as bare tokens.
        assert_eq!(Value::Num(f64::NAN).render(), "null");
    }
}
