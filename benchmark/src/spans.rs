//! The benchmark's own spans, recorded around each call into the
//! program (build, every slot step, metrics publication, analysis,
//! replays). They are kept in memory, tagged with the run id, and
//! written out as Chrome `trace_event` JSON when the run ends.

use std::io::{self, Write};
use std::time::Instant;

struct Span {
    name: &'static str,
    slot: u64,
    start_ns: u64,
    dur_ns: u64,
}

pub struct SpanLog {
    /// `None` when tracing is off: `span` then only calls through.
    epoch: Option<Instant>,
    run_id: String,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn disabled() -> SpanLog {
        SpanLog {
            epoch: None,
            run_id: String::new(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(run_id: String) -> SpanLog {
        SpanLog {
            epoch: Some(Instant::now()),
            run_id,
            spans: Vec::new(),
        }
    }

    /// Run `f`, recording it as span `name` when tracing is on.
    pub fn span<T>(&mut self, name: &'static str, slot: u64, f: impl FnOnce() -> T) -> T {
        let Some(epoch) = self.epoch else {
            return f();
        };
        let start = Instant::now();
        let out = f();
        self.spans.push(Span {
            name,
            slot,
            start_ns: start.duration_since(epoch).as_nanos() as u64,
            dur_ns: start.elapsed().as_nanos() as u64,
        });
        out
    }

    pub fn write_chrome_trace<W: Write>(&self, w: &mut W) -> io::Result<()> {
        writeln!(w, "{{\"traceEvents\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"name\":\"{}\",\"cat\":\"benchmark\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"run\":\"{}\",\"slot\":{}}}}}{comma}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                self.run_id,
                s.slot,
            )?;
        }
        writeln!(w, "],\"otherData\":{{\"run\":\"{}\"}}}}", self.run_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::disabled();
        assert_eq!(log.span("x", 0, || 5), 5);
        assert!(log.spans.is_empty());
    }

    #[test]
    fn chrome_export_is_valid_json_with_run_id() {
        let mut log = SpanLog::enabled("full_ul-s1".to_string());
        log.span("build", 0, || ());
        log.span("slot_step", 1, || ());
        let mut out = Vec::new();
        log.write_chrome_trace(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let json = crate::spec::Json::parse(&text).expect("valid JSON");
        let events = json.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(events.len(), 2);
        assert!(text.contains("\"run\":\"full_ul-s1\""));
    }
}
