//! Structural diffing of virtual-clock trace files — the regression gate
//! behind `trace_diff` and `ci.sh`.
//!
//! A Chrome trace-event file from [`crate::Recorder::chrome_trace_json`]
//! mixes two processes: the deterministic virtual clock ([`crate::VIRTUAL_PID`])
//! and wall-clock worker spans ([`crate::WALL_PID`]). `summarize` parses a
//! trace with a built-in minimal JSON reader (objects, arrays, strings,
//! unsigned integers, booleans, null — exactly what our emitter produces;
//! phases `M`, `X`, `i`, and the `s`/`f` flow endpoints), keeps only the
//! virtual process, and reduces it to:
//!
//! * per-event-name totals (count + total span duration),
//! * the virtual track names (`thread_name` metadata),
//! * a canonical line-per-event re-emission for byte-level comparison.
//!
//! [`diff`] compares two summaries exactly: a deliberate change re-blesses
//! the golden (`tests/golden/README.md`). Wall-clock tracks never
//! participate — they are non-deterministic by construction.

use std::collections::BTreeMap;

use crate::VIRTUAL_PID;

/// Aggregate of all virtual events sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameStats {
    pub count: u64,
    /// Summed span durations (instants contribute 0).
    pub total_dur_us: u64,
}

/// The structural reduction of one trace file's virtual process.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Per-event-name totals, sorted by name.
    pub per_name: BTreeMap<String, NameStats>,
    /// Named virtual tracks: tid → thread name.
    pub tracks: BTreeMap<u64, String>,
    /// Number of virtual (non-metadata) events.
    pub virtual_events: u64,
    /// One canonical line per virtual event, in file order — empty for
    /// summaries parsed back from [`TraceSummary::render`] output.
    pub canonical: String,
}

impl TraceSummary {
    /// Stable textual form, suitable for checking in as a golden file.
    pub fn render(&self) -> String {
        let mut out = String::from("# trace_diff summary v1\n");
        for (tid, name) in &self.tracks {
            out.push_str(&format!("track\t{tid}\t{name}\n"));
        }
        for (name, s) in &self.per_name {
            out.push_str(&format!("event\t{name}\t{}\t{}\n", s.count, s.total_dur_us));
        }
        out
    }

    /// Parse [`TraceSummary::render`] output back into a summary (with no
    /// canonical event block, so only structural comparisons apply).
    pub fn parse_rendered(text: &str) -> Result<TraceSummary, String> {
        let mut out = TraceSummary::default();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split('\t').collect();
            let bad = |what: &str| format!("summary line {}: {what}: {line}", lineno + 1);
            match fields.as_slice() {
                ["track", tid, name] => {
                    let tid = tid.parse::<u64>().map_err(|_| bad("bad tid"))?;
                    out.tracks.insert(tid, (*name).to_owned());
                }
                ["event", name, count, dur] => {
                    let count = count.parse::<u64>().map_err(|_| bad("bad count"))?;
                    let total_dur_us = dur.parse::<u64>().map_err(|_| bad("bad dur"))?;
                    out.per_name.insert(
                        (*name).to_owned(),
                        NameStats {
                            count,
                            total_dur_us,
                        },
                    );
                    out.virtual_events += count;
                }
                _ => return Err(bad("unrecognized summary line")),
            }
        }
        Ok(out)
    }
}

/// Parse a Chrome trace-event JSON file and reduce its virtual process.
pub(crate) fn summarize(text: &str) -> Result<TraceSummary, String> {
    let root = parse_json(text)?;
    let Json::Arr(events) = root else {
        return Err("trace root is not a JSON array".to_owned());
    };
    let mut out = TraceSummary::default();
    for (i, ev) in events.iter().enumerate() {
        let Json::Obj(fields) = ev else {
            return Err(format!("trace event {i} is not a JSON object"));
        };
        let get = |k: &str| fields.iter().find(|(key, _)| key == k).map(|(_, v)| v);
        let str_field = |k: &str| -> Result<&str, String> {
            match get(k) {
                Some(Json::Str(s)) => Ok(s),
                _ => Err(format!("trace event {i}: missing string field {k:?}")),
            }
        };
        let num_field = |k: &str| -> Result<u64, String> {
            match get(k) {
                Some(Json::Num(n)) => Ok(*n),
                _ => Err(format!("trace event {i}: missing numeric field {k:?}")),
            }
        };
        let ph = str_field("ph")?;
        let pid = num_field("pid")?;
        if pid != VIRTUAL_PID as u64 {
            continue; // wall-clock process: excluded by design
        }
        let tid = num_field("tid")?;
        // Field errors past this point carry the offending track: declared
        // name when the metadata event already passed, coordinates either way.
        let track_ctx = match out.tracks.get(&tid) {
            Some(name) => format!(" (pid {pid}, tid {tid}, track {name:?})"),
            None => format!(" (pid {pid}, tid {tid}, undeclared track)"),
        };
        match ph {
            "M" => {
                if str_field("name").map_err(|e| format!("{e}{track_ctx}"))? == "thread_name" {
                    if let Some(Json::Obj(args)) = get("args") {
                        if let Some((_, Json::Str(n))) = args.iter().find(|(k, _)| k == "name") {
                            out.tracks.insert(tid, n.clone());
                        }
                    }
                }
            }
            "X" | "i" | "s" | "f" => {
                let name = str_field("name").map_err(|e| format!("{e}{track_ctx}"))?;
                let ts = num_field("ts").map_err(|e| format!("{e}{track_ctx}"))?;
                let dur = if ph == "X" {
                    num_field("dur").map_err(|e| format!("{e}{track_ctx}"))?
                } else {
                    0
                };
                let cat = str_field("cat").map_err(|e| format!("{e}{track_ctx}"))?;
                // Flow endpoints must carry their pairing id; it leads the
                // canonical args column so re-pairings are byte-visible.
                let mut args = render_args(get("args"));
                if ph == "s" || ph == "f" {
                    let id = num_field("id").map_err(|e| format!("{e}{track_ctx}"))?;
                    args = format!("id={id},{args}");
                }
                let stats = out.per_name.entry(name.to_owned()).or_default();
                stats.count += 1;
                stats.total_dur_us += dur;
                out.virtual_events += 1;
                out.canonical.push_str(&format!(
                    "{ph}\t{tid}\t{ts}\t{dur}\t{cat}\t{name}\t{args}\n"
                ));
            }
            other => {
                return Err(format!(
                    "trace event {i}: unknown phase {other:?}{track_ctx}"
                ))
            }
        }
    }
    Ok(out)
}

/// `summarize`, additionally rejecting traces with no virtual events —
/// what a silently broken recorder would produce.
pub fn validate(text: &str) -> Result<TraceSummary, String> {
    let summary = summarize(text)?;
    if summary.virtual_events == 0 {
        return Err("trace parses but contains no virtual-clock events".to_owned());
    }
    Ok(summary)
}

fn render_args(args: Option<&Json>) -> String {
    let mut out = String::new();
    if let Some(Json::Obj(pairs)) = args {
        for (k, v) in pairs {
            if let Json::Num(n) = v {
                out.push_str(&format!("{k}={n},"));
            }
        }
    }
    out
}

/// Compare two summaries. Returns one human-readable message per drift;
/// empty means the virtual traces are structurally identical. When both
/// summaries carry canonical event blocks, a final byte-level pass catches
/// reorderings and timestamp shifts that leave per-name totals intact.
pub fn diff(a: &TraceSummary, b: &TraceSummary) -> Vec<String> {
    let mut msgs = Vec::new();
    let names: std::collections::BTreeSet<&String> =
        a.per_name.keys().chain(b.per_name.keys()).collect();
    for name in names {
        let sa = a.per_name.get(name).copied().unwrap_or_default();
        let sb = b.per_name.get(name).copied().unwrap_or_default();
        if sa.count != sb.count {
            msgs.push(format!(
                "event {name:?}: count {} -> {}",
                sa.count, sb.count
            ));
        }
        if sa.total_dur_us != sb.total_dur_us {
            msgs.push(format!(
                "event {name:?}: total duration {}us -> {}us",
                sa.total_dur_us, sb.total_dur_us
            ));
        }
    }
    let tids: std::collections::BTreeSet<&u64> = a.tracks.keys().chain(b.tracks.keys()).collect();
    for tid in tids {
        let ta = a.tracks.get(tid).map(String::as_str).unwrap_or("<absent>");
        let tb = b.tracks.get(tid).map(String::as_str).unwrap_or("<absent>");
        if ta != tb {
            msgs.push(format!("track {tid}: name {ta:?} -> {tb:?}"));
        }
    }
    if msgs.is_empty()
        && !a.canonical.is_empty()
        && !b.canonical.is_empty()
        && a.canonical != b.canonical
    {
        msgs.push(
            "virtual events differ in order, timestamps, or args \
             (per-name totals match)"
                .to_owned(),
        );
    }
    msgs
}

// --- minimal JSON reader -----------------------------------------------
// Covers exactly the grammar our own emitter produces (plus booleans/null
// for safety): no floats, no negative numbers. Foreign files that use more
// of JSON fail with a position-stamped error, which is the right behavior
// for a validation gate. Nesting is bounded too, so a file of a million `[`
// is an error, not a stack overflow.

/// A parsed JSON value (integers only — our traces carry no floats).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    Obj(Vec<(String, Json)>),
    Arr(Vec<Json>),
    Str(String),
    Num(u64),
    Bool(bool),
    Null,
}

/// Deepest nesting of arrays and objects [`parse_json`] accepts; a trace
/// nests fewer than 10 levels.
const MAX_DEPTH: usize = 64;

/// Parse one JSON document (trailing whitespace allowed, nothing else).
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        b: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.b.len() {
        return Err(p.err("trailing data after JSON document"));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", c as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.b[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') => self.nested(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'0'..=b'9') => self.number(),
            Some(b't') if self.eat_literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat_literal("null") => Ok(Json::Null),
            _ => Err(self.err("expected a JSON value (floats/negatives unsupported)")),
        }
    }

    /// An array or object, one level deeper than the value around it.
    fn nested(&mut self) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nested deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = if self.peek() == Some(b'{') {
            self.object()
        } else {
            self.array()
        };
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .b
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(hex)
                                    .ok_or_else(|| self.err("bad \\u code point"))?,
                            );
                        }
                        _ => return Err(self.err("unsupported escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so byte
                    // boundaries are trustworthy).
                    let rest = &self.b[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(self.err("floating-point numbers unsupported"));
        }
        let s = std::str::from_utf8(&self.b[start..self.pos]).unwrap();
        s.parse::<u64>()
            .map(Json::Num)
            .map_err(|_| self.err("integer out of u64 range"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{wall, Recorder, Track};

    /// A small recorder with both virtual and wall events.
    fn sample_recorder(span_name: &'static str) -> Recorder {
        let mut r = Recorder::enabled();
        r.span(
            Track::virt(1000),
            "query",
            span_name,
            10,
            40,
            &[("reads", 3)],
        );
        r.span(
            Track::virt(1000),
            "query",
            span_name,
            50,
            70,
            &[("reads", 1)],
        );
        r.instant(Track::virt(0), "server", "server.arrive", 5, &[("q", 0)]);
        r.absorb_wall(vec![wall::Record::Task(wall::WallTask {
            label: "nn.train",
            worker: 0,
            item: 0,
            req: 0,
            start_us: 1234, // wall time: must never reach the summary
            dur_us: 99,
        })]);
        r
    }

    #[test]
    fn summarize_reduces_virtual_process_only() {
        let s = summarize(&sample_recorder("query.replay").chrome_trace_json()).unwrap();
        assert_eq!(s.virtual_events, 3);
        assert_eq!(
            s.per_name.get("query.replay"),
            Some(&NameStats {
                count: 2,
                total_dur_us: 50
            })
        );
        assert_eq!(
            s.per_name.get("server.arrive"),
            Some(&NameStats {
                count: 1,
                total_dur_us: 0
            })
        );
        assert!(!s.per_name.contains_key("nn.train"), "wall events excluded");
        assert_eq!(s.tracks.get(&1000).map(String::as_str), Some("query-0"));
        assert!(!s.tracks.values().any(|n| n.contains("nn-worker")));
    }

    #[test]
    fn identical_traces_have_zero_drift() {
        let a = summarize(&sample_recorder("query.replay").chrome_trace_json()).unwrap();
        let b = summarize(&sample_recorder("query.replay").chrome_trace_json()).unwrap();
        assert_eq!(diff(&a, &b), Vec::<String>::new());
    }

    #[test]
    fn a_deliberate_span_rename_fails_the_gate() {
        let a = summarize(&sample_recorder("query.replay").chrome_trace_json()).unwrap();
        let b = summarize(&sample_recorder("query.replay.T18").chrome_trace_json()).unwrap();
        let drift = diff(&a, &b);
        assert!(
            drift.iter().any(|m| m.contains("query.replay")),
            "rename must be reported: {drift:?}"
        );
    }

    #[test]
    fn timestamp_shift_is_caught_at_the_byte_level() {
        let mut shifted = Recorder::enabled();
        // Same names, counts, and total durations as sample_recorder, but
        // the second span starts one microsecond later.
        shifted.span(
            Track::virt(1000),
            "query",
            "query.replay",
            10,
            40,
            &[("reads", 3)],
        );
        shifted.span(
            Track::virt(1000),
            "query",
            "query.replay",
            51,
            71,
            &[("reads", 1)],
        );
        shifted.instant(Track::virt(0), "server", "server.arrive", 5, &[("q", 0)]);
        let a = summarize(&sample_recorder("query.replay").chrome_trace_json()).unwrap();
        let b = summarize(&shifted.chrome_trace_json()).unwrap();
        let drift = diff(&a, &b);
        assert_eq!(drift.len(), 1, "{drift:?}");
        assert!(drift[0].contains("differ in order, timestamps, or args"));
    }

    #[test]
    fn flow_endpoints_summarize_and_pin_their_id() {
        use crate::FlowDir;
        let mut r = Recorder::enabled();
        r.flow(
            Track::virt(0),
            "request",
            "request.flow",
            5,
            42,
            FlowDir::Start,
        );
        r.flow(
            Track::virt(1000),
            "request",
            "request.flow",
            9,
            42,
            FlowDir::Finish,
        );
        let s = summarize(&r.chrome_trace_json()).unwrap();
        assert_eq!(s.virtual_events, 2);
        assert_eq!(
            s.per_name.get("request.flow"),
            Some(&NameStats {
                count: 2,
                total_dur_us: 0
            })
        );
        assert!(s
            .canonical
            .contains("s\t0\t5\t0\trequest\trequest.flow\tid=42,\n"));
        assert!(s
            .canonical
            .contains("f\t1000\t9\t0\trequest\trequest.flow\tid=42,\n"));
        // Re-pairing the arrow (same names/counts) is byte-visible.
        let mut repaired = Recorder::enabled();
        repaired.flow(
            Track::virt(0),
            "request",
            "request.flow",
            5,
            43,
            FlowDir::Start,
        );
        repaired.flow(
            Track::virt(1000),
            "request",
            "request.flow",
            9,
            43,
            FlowDir::Finish,
        );
        let s2 = summarize(&repaired.chrome_trace_json()).unwrap();
        let drift = diff(&s, &s2);
        assert_eq!(drift.len(), 1, "{drift:?}");
        assert!(drift[0].contains("differ in order, timestamps, or args"));
        // A flow endpoint missing its id is a malformed trace.
        let bad = "[{\"ph\":\"s\",\"pid\":1,\"tid\":0,\"ts\":1,\"cat\":\"c\",\"name\":\"x\"}]";
        let err = summarize(bad).unwrap_err();
        assert!(err.contains("missing numeric field \"id\""), "{err}");
    }

    #[test]
    fn validate_rejects_empty_and_invalid_traces() {
        assert!(validate("").is_err(), "empty file");
        assert!(validate("not json").is_err(), "invalid JSON");
        assert!(validate("{}").is_err(), "not an array");
        assert!(
            validate("[\n]\n").is_err(),
            "valid array but no virtual events"
        );
        let wall_only = {
            let mut r = Recorder::enabled();
            r.absorb_wall(vec![wall::Record::Task(wall::WallTask {
                label: "nn.train",
                worker: 0,
                item: 0,
                req: 0,
                start_us: 0,
                dur_us: 1,
            })]);
            r.chrome_trace_json()
        };
        assert!(validate(&wall_only).is_err(), "wall-only trace");
        assert!(validate(&sample_recorder("query.replay").chrome_trace_json()).is_ok());
    }

    #[test]
    fn validation_errors_name_the_offending_track() {
        // Declared track, then an event on it missing its "name" field.
        let bad = concat!(
            "[\n",
            "{\"ph\":\"M\",\"pid\":1,\"tid\":7,\"name\":\"thread_name\",",
            "\"args\":{\"name\":\"query-7 T18\"}},\n",
            "{\"ph\":\"X\",\"pid\":1,\"tid\":7,\"ts\":1,\"dur\":2,\"cat\":\"q\"}\n",
            "]\n"
        );
        let err = summarize(bad).unwrap_err();
        assert!(err.contains("trace event 1"), "{err}");
        assert!(err.contains("missing string field \"name\""), "{err}");
        assert!(err.contains("pid 1, tid 7, track \"query-7 T18\""), "{err}");
        // Unknown phase on a track with no metadata: coordinates still named.
        let bad = "[{\"ph\":\"B\",\"pid\":1,\"tid\":3,\"ts\":0,\"name\":\"x\",\"cat\":\"c\"}]";
        let err = summarize(bad).unwrap_err();
        assert!(err.contains("unknown phase \"B\""), "{err}");
        assert!(err.contains("pid 1, tid 3, undeclared track"), "{err}");
    }

    #[test]
    fn rendered_summary_round_trips_structurally() {
        let s = summarize(&sample_recorder("query.replay").chrome_trace_json()).unwrap();
        let rendered = s.render();
        let back = TraceSummary::parse_rendered(&rendered).unwrap();
        assert_eq!(back.per_name, s.per_name);
        assert_eq!(back.tracks, s.tracks);
        assert_eq!(back.virtual_events, s.virtual_events);
        assert!(back.canonical.is_empty());
        // A golden comparison (no canonical block) still catches drift.
        let renamed = summarize(&sample_recorder("query.other").chrome_trace_json()).unwrap();
        assert!(!diff(&back, &renamed).is_empty());
        assert_eq!(diff(&back, &s), Vec::<String>::new());
    }

    #[test]
    fn json_parser_handles_escapes_and_rejects_floats() {
        let v = parse_json(r#"{"a\n\"b":[1,2,{"c":true,"d":null}],"e":"A"}"#).unwrap();
        let Json::Obj(pairs) = v else { panic!() };
        assert_eq!(pairs[0].0, "a\n\"b");
        assert_eq!(pairs[1], ("e".to_owned(), Json::Str("A".to_owned())));
        let full = parse_json("[0,18446744073709551615]").unwrap();
        assert_eq!(full, Json::Arr(vec![Json::Num(0), Json::Num(u64::MAX)]));
        assert_eq!(
            parse_json(r#""\u0001""#).unwrap(),
            Json::Str("\u{1}".into())
        );
        assert!(parse_json("1.5").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("[1] trailing").is_err());
    }

    #[test]
    fn json_parser_bounds_nesting() {
        let deep = "[".repeat(100_000);
        let err = parse_json(&deep).unwrap_err();
        assert!(err.contains("nested deeper"), "{err}");
        let at_bound = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse_json(&at_bound).is_ok());
        let past = format!("{{\"a\":{at_bound}}}");
        assert!(parse_json(&past).is_err());
    }
}
