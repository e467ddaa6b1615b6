//! In-memory spans recorded around calls into each layer, written out at
//! the end as Chrome `trace_event` JSON, with self time per span name.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Microseconds since the recorder's origin.
    pub start_us: f64,
    pub end_us: f64,
    /// Lane the span ran on (the client thread for gateway requests).
    pub tid: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Counts recorded at the boundary (events, pending, request id, ...).
    pub args: Vec<(&'static str, f64)>,
}

#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(origin: Instant) -> Self {
        Spans {
            origin,
            spans: Vec::new(),
        }
    }

    fn us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Records a finished span and returns its index (for children).
    pub fn record(
        &mut self,
        name: &'static str,
        (start, end): (Instant, Instant),
        tid: u64,
        parent: Option<usize>,
        args: Vec<(&'static str, f64)>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_us: self.us(start),
            end_us: self.us(end),
            tid,
            parent,
            args,
        });
        self.spans.len() - 1
    }

    /// Opens a root span whose children are recorded before it ends.
    pub fn open(&mut self, name: &'static str, start: Instant) -> usize {
        self.record(name, (start, start), 0, None, Vec::new())
    }

    /// Sets the end of a span opened with [`Spans::open`].
    pub fn close(&mut self, idx: usize, end: Instant) {
        self.spans[idx].end_us = self.us(end);
    }

    /// Duration minus the part of it covered by the span's children, per
    /// span; children of one parent never overlap here.
    pub fn self_us(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.end_us - s.start_us).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let covered = s.end_us.min(parent.end_us) - s.start_us.max(parent.start_us);
                own[p] -= covered.max(0.0);
            }
        }
        own
    }

    /// Self time summed by span name, `(name, total ms, count)`, largest
    /// first.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, f64, usize)> {
        let mut rows: Vec<(&'static str, f64, usize)> = Vec::new();
        for (s, own) in self.spans.iter().zip(self.self_us()) {
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += own / 1e3;
                    r.2 += 1;
                }
                None => rows.push((s.name, own / 1e3, 1)),
            }
        }
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        rows
    }

    /// Chrome `trace_event` JSON (complete events, microsecond stamps);
    /// load it in Perfetto or `chrome://tracing`. Written directly rather
    /// than through a value tree: a gateway run has ~10^5 spans.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let args: Vec<String> = s.args.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"benchmark\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":1,\"tid\":{},\"args\":{{{}}}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.start_us,
                s.end_us - s.start_us,
                s.tid,
                args.join(","),
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_groups_by_name() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut spans = Spans::new(t0);
        let root = spans.record("request", (at(0), at(10)), 1, None, vec![("req", 7.0)]);
        spans.record("connect", (at(0), at(2)), 1, Some(root), vec![("req", 7.0)]);
        spans.record("stream", (at(2), at(9)), 1, Some(root), vec![("req", 7.0)]);
        spans.record("connect", (at(20), at(23)), 2, None, Vec::new());
        let own = spans.self_us();
        assert!((own[0] - 1_000.0).abs() < 1e-6, "{own:?}");
        let rows = spans.self_time_by_name();
        assert_eq!(rows[0].0, "stream");
        let connect = rows.iter().find(|r| r.0 == "connect").expect("connect row");
        assert!((connect.1 - 5.0).abs() < 1e-6);
        assert_eq!(connect.2, 2);
        let json: Value = serde_json::from_str(&spans.chrome_json()).expect("valid JSON");
        let events = json["traceEvents"].as_array().expect("event list");
        assert_eq!(events.len(), 4);
        assert_eq!(events[1]["args"]["req"].as_f64(), Some(7.0));
        assert_eq!(events[2]["ph"].as_str(), Some("X"));
    }
}
