//! Chrome trace-event JSON export (loadable in `ui.perfetto.dev`) and a
//! dependency-free validator for the exported format.
//!
//! Layout: each simulated actor (cn0, wire, mn0, ...) becomes a Perfetto
//! *process*; each traced op becomes a *thread* lane inside the actors it
//! visited, so one op's stage slices read left-to-right across actor
//! groups. Because an op's spans tile a single timeline, the `B`/`E`
//! events inside any `(pid, tid)` lane are strictly sequential — balanced
//! and properly nested by construction. Retry links are exported as flow
//! (`s`/`f`) events so NACK/timeout recoveries render as arrows from the
//! failed attempt to its replacement.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use clio_sim::SimTime;

use crate::span::{OpTrace, Track};

/// Formats a sim instant as Chrome's microsecond timestamp (3 decimals).
fn ts_us(t: SimTime) -> String {
    let ns = t.as_nanos();
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

#[allow(clippy::too_many_arguments)] // one JSON field per argument
fn push_event(
    out: &mut String,
    name: &str,
    cat: &str,
    ph: &str,
    ts: SimTime,
    pid: u64,
    tid: u64,
    extra: &str,
) {
    let _ = writeln!(
        out,
        "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"{ph}\",\"ts\":{},\"pid\":{pid},\"tid\":{tid}{extra}}},",
        ts_us(ts)
    );
}

/// Renders finished traces as a Chrome trace-event JSON document.
///
/// The result validates under [`validate_chrome_trace`] and loads in
/// `ui.perfetto.dev` / `chrome://tracing`.
pub fn perfetto_json(traces: &[OpTrace]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    // Process metadata: one per actor track seen anywhere.
    let mut actors: BTreeMap<u64, Track> = BTreeMap::new();
    for t in traces {
        for s in &t.spans {
            actors.entry(s.track.tid()).or_insert(s.track);
        }
    }
    for (pid, track) in &actors {
        let _ = writeln!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":\"{}\"}}}},",
            track.name()
        );
    }
    for t in traces {
        // Thread metadata: this op's lane inside every actor it visited.
        let mut lanes: BTreeMap<u64, ()> = BTreeMap::new();
        for s in &t.spans {
            lanes.entry(s.track.tid()).or_insert(());
        }
        for pid in lanes.keys() {
            let _ = writeln!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":{pid},\"tid\":{},\"args\":{{\"name\":\"op {} {}\"}}}},",
                t.id, t.id, t.label
            );
        }
        for s in &t.spans {
            let cat = if s.stage.is_queueing() { "queueing" } else { "stage" };
            let args = format!(",\"args\":{{\"attempt\":{}}}", s.attempt);
            push_event(&mut out, s.stage.name(), cat, "B", s.start, s.track.tid(), t.id, &args);
            push_event(&mut out, s.stage.name(), cat, "E", s.end, s.track.tid(), t.id, "");
        }
        // Retry flows: failed attempt -> replacement, on the op's home lane.
        let home = t.spans.first().map(|s| s.track.tid()).unwrap_or(1);
        for l in &t.links {
            let extra = format!(",\"id\":{}", t.id * 1000 + l.from as u64);
            push_event(&mut out, "retry", "retry", "s", l.at, home, t.id, &extra);
            push_event(&mut out, "retry", "retry", "f", l.at, home, t.id, &extra);
        }
    }
    // Strip the trailing ",\n" and close.
    if out.ends_with(",\n") {
        out.truncate(out.len() - 2);
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

// ---------------------------------------------------------------------------
// Minimal JSON model + parser (no external dependencies).
// ---------------------------------------------------------------------------

/// A minimal parsed-JSON value, just rich enough to validate trace files.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (key order preserved).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser { bytes: s.as_bytes(), pos: 0 }
    }

    fn err(&self, msg: &str) -> String {
        format!("json parse error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b't') => self.parse_lit("true", Json::Bool(true)),
            Some(b'f') => self.parse_lit("false", Json::Bool(false)),
            Some(b'n') => self.parse_lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn parse_lit(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn parse_number(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        text.parse::<f64>().map(Json::Num).map_err(|_| self.err("bad number"))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let Some(&c) = self.bytes.get(self.pos) else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(s),
                b'\\' => {
                    let Some(&e) = self.bytes.get(self.pos) else {
                        return Err(self.err("bad escape"));
                    };
                    self.pos += 1;
                    match e {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b't' => s.push('\t'),
                        b'r' => s.push('\r'),
                        b'b' | b'f' => s.push(' '),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err(self.err("bad \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => s.push(c as char),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.expect(b':')?;
            let value = self.parse_value()?;
            pairs.push((key, value));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parses a JSON document (minimal grammar, sufficient for trace files).
pub fn parse_json(s: &str) -> Result<Json, String> {
    let mut p = Parser::new(s);
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

/// Counts gathered while validating an exported trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExportStats {
    /// `B` (slice begin) events.
    pub begins: u64,
    /// `E` (slice end) events.
    pub ends: u64,
    /// Metadata (`M`) events.
    pub metadata: u64,
    /// Flow (`s`/`f`) events.
    pub flows: u64,
    /// Instant (`i`) events — point-in-time system marks.
    pub instants: u64,
    /// Distinct `(pid, tid)` lanes carrying slices.
    pub lanes: u64,
}

/// Validates a Chrome trace-event JSON document:
///
/// * well-formed JSON with a non-empty `traceEvents` array;
/// * every event has `name`, `ph`, `pid`, `tid` (and `ts` for non-`M`);
/// * per `(pid, tid)` lane, `B`/`E` events (in timestamp order) balance as
///   a stack — names match, no `E` without a `B`, nothing left open;
/// * flow events pair up: every flow step has a start and an end.
///
/// Returns event counts for the caller's own assertions.
pub fn validate_chrome_trace(doc: &str) -> Result<ExportStats, String> {
    let root = parse_json(doc)?;
    let events = root.get("traceEvents").ok_or("missing traceEvents key")?.clone();
    let Json::Arr(events) = events else {
        return Err("traceEvents is not an array".into());
    };
    if events.is_empty() {
        return Err("traceEvents is empty".into());
    }

    let mut stats = ExportStats::default();
    // (pid, tid) -> [(name, ts)] open-slice stack; events arrive in file
    // order, which the exporter keeps time-sorted per lane.
    let mut stacks: BTreeMap<(u64, u64), Vec<(String, f64)>> = BTreeMap::new();
    let mut flow_balance: i64 = 0;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?
            .to_string();
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing name"))?
            .to_string();
        let pid =
            ev.get("pid").and_then(Json::as_num).ok_or_else(|| format!("event {i}: missing pid"))?
                as u64;
        let tid =
            ev.get("tid").and_then(Json::as_num).ok_or_else(|| format!("event {i}: missing tid"))?
                as u64;
        if ph == "M" {
            stats.metadata += 1;
            continue;
        }
        let ts =
            ev.get("ts").and_then(Json::as_num).ok_or_else(|| format!("event {i}: missing ts"))?;
        match ph.as_str() {
            "B" => {
                stats.begins += 1;
                let stack = stacks.entry((pid, tid)).or_default();
                if let Some((_, open_ts)) = stack.last() {
                    if ts < *open_ts {
                        return Err(format!(
                            "event {i}: B at {ts} before enclosing B at {open_ts}"
                        ));
                    }
                }
                stack.push((name, ts));
            }
            "E" => {
                stats.ends += 1;
                let stack = stacks.entry((pid, tid)).or_default();
                let Some((open_name, open_ts)) = stack.pop() else {
                    return Err(format!("event {i}: E '{name}' with no open B on ({pid},{tid})"));
                };
                if open_name != name {
                    return Err(format!(
                        "event {i}: E '{name}' closes B '{open_name}' on ({pid},{tid})"
                    ));
                }
                if ts < open_ts {
                    return Err(format!("event {i}: E at {ts} before its B at {open_ts}"));
                }
            }
            "s" => {
                stats.flows += 1;
                flow_balance += 1;
            }
            "f" => {
                stats.flows += 1;
                flow_balance -= 1;
            }
            "i" => stats.instants += 1,
            other => return Err(format!("event {i}: unexpected ph '{other}'")),
        }
    }
    for ((pid, tid), stack) in &stacks {
        if let Some((name, _)) = stack.last() {
            return Err(format!("unbalanced: B '{name}' never closed on ({pid},{tid})"));
        }
    }
    if flow_balance != 0 {
        return Err(format!("unbalanced flow events (s - f = {flow_balance})"));
    }
    stats.lanes = stacks.len() as u64;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Stage;
    use crate::Tracer;
    use clio_sim::SimTime;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn sample_traces() -> Vec<OpTrace> {
        let tr = Tracer::enabled(1);
        let a = tr.begin("read", t(0)).unwrap();
        tr.stitch(a.into(), Track::Cn(0), Stage::Submit, t(10));
        tr.stitch(a.into(), Track::Wire, Stage::Wire, t(40));
        tr.stitch(a.into(), Track::Mn(0), Stage::Dram, t(90));
        let b = tr.begin("faa", t(5)).unwrap();
        tr.stitch(b.into(), Track::Cn(0), Stage::Submit, t(20));
        tr.stitch(b.into(), Track::Cn(0), Stage::NicSerialize, t(30));
        let b2 = tr.retry(b.into(), t(80)).unwrap();
        tr.stitch(b2.into(), Track::Cn(0), Stage::TimeoutWait, t(80));
        tr.finish(a.into(), Track::Cn(0), t(120));
        tr.finish(b2.into(), Track::Cn(0), t(140));
        tr.finished()
    }

    #[test]
    fn export_validates() {
        let json = perfetto_json(&sample_traces());
        let stats = validate_chrome_trace(&json).expect("valid trace json");
        assert!(stats.begins >= 6);
        assert_eq!(stats.begins, stats.ends);
        assert_eq!(stats.flows, 2, "one retry link = one s + one f");
        assert!(stats.metadata >= 4, "process + thread names");
        assert!(stats.lanes >= 3, "two ops across three actors");
    }

    #[test]
    fn ts_formats_as_fractional_micros() {
        assert_eq!(ts_us(t(1500)), "1.500");
        assert_eq!(ts_us(t(999)), "0.999");
        assert_eq!(ts_us(t(2_000_000)), "2000.000");
    }

    #[test]
    fn parser_roundtrips_basics() {
        let v = parse_json(r#"{"a":[1,2.5,-3],"b":"x\ny","c":true,"d":null}"#).unwrap();
        assert_eq!(
            v.get("a").unwrap(),
            &Json::Arr(vec![Json::Num(1.0), Json::Num(2.5), Json::Num(-3.0)])
        );
        assert_eq!(v.get("b").and_then(Json::as_str), Some("x\ny"));
        assert_eq!(v.get("c"), Some(&Json::Bool(true)));
        assert_eq!(v.get("d"), Some(&Json::Null));
        assert!(parse_json("{").is_err());
        assert!(parse_json("{} trailing").is_err());
    }

    #[test]
    fn validator_rejects_malformed() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace(r#"{"traceEvents":[]}"#).is_err());
        // E without B.
        let bad = r#"{"traceEvents":[{"name":"x","ph":"E","ts":1,"pid":1,"tid":1}]}"#;
        assert!(validate_chrome_trace(bad).unwrap_err().contains("no open B"));
        // Unclosed B.
        let open = r#"{"traceEvents":[{"name":"x","ph":"B","ts":1,"pid":1,"tid":1}]}"#;
        assert!(validate_chrome_trace(open).unwrap_err().contains("never closed"));
        // Mismatched close.
        let cross = r#"{"traceEvents":[
            {"name":"x","ph":"B","ts":1,"pid":1,"tid":1},
            {"name":"y","ph":"E","ts":2,"pid":1,"tid":1}]}"#;
        assert!(validate_chrome_trace(cross).unwrap_err().contains("closes B"));
    }
}
