//! Chrome trace-event JSON emission.
//!
//! The output is the Trace Event Format's "JSON Array Format": a `[` line,
//! one event object per line (comma-terminated except the last), and a `]`
//! line. Perfetto (<https://ui.perfetto.dev>) and `chrome://tracing` both
//! load it directly, and the one-event-per-line layout keeps traces
//! line-diffable — the determinism guarantee is checked by comparing the
//! emitted bytes of two same-seed runs.
//!
//! Emitted phases:
//!
//! * `M` — metadata (`process_name`, `thread_name`) for every declared track;
//! * `X` — complete spans (`ts` + `dur`);
//! * `i` — instant events (thread scope);
//! * `s` / `f` — flow arrows linking tracks (`id` pairs the endpoints; the
//!   finish end carries `"bp":"e"` so it binds to the enclosing slice).

use crate::snapshot::escape_into;
use crate::{Event, FlowDir, Track, VIRTUAL_PID, WALL_PID};

fn push_args(out: &mut String, args: &[(&'static str, u64)]) {
    out.push('{');
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_into(out, k);
        out.push_str("\":");
        out.push_str(&v.to_string());
    }
    out.push('}');
}

fn push_meta(lines: &mut Vec<String>, track: Track, key: &str, name: &str) {
    let mut s = String::new();
    s.push_str("{\"ph\":\"M\",\"pid\":");
    s.push_str(&track.pid.to_string());
    s.push_str(",\"tid\":");
    s.push_str(&track.tid.to_string());
    s.push_str(",\"name\":\"");
    s.push_str(key);
    s.push_str("\",\"args\":{\"name\":\"");
    escape_into(&mut s, name);
    s.push_str("\"}}");
    lines.push(s);
}

fn process_name(pid: u32) -> &'static str {
    match pid {
        VIRTUAL_PID => "pythia-virtual (sim time)",
        WALL_PID => "pythia-wall (host time)",
        _ => "pythia",
    }
}

/// Render `events` (+ track name metadata) as Chrome trace-event JSON.
/// `pid_filter` restricts the output to one process (used to export the
/// deterministic virtual-time trace on its own). Both inputs are iterators
/// so a wrapped ring and its bounded name table render in place.
pub fn trace_json<'a>(
    events: impl Iterator<Item = &'a Event> + Clone,
    tracks: impl Iterator<Item = &'a (Track, String)> + Clone,
    pid_filter: Option<u32>,
) -> String {
    let keep = |pid: u32| pid_filter.map(|f| f == pid).unwrap_or(true);
    let mut lines: Vec<String> = Vec::new();

    // Process metadata for every pid that appears, in pid order.
    let mut pids: Vec<u32> = tracks
        .clone()
        .map(|(t, _)| t.pid)
        .chain(events.clone().map(|e| e.track.pid))
        .filter(|&p| keep(p))
        .collect();
    pids.sort_unstable();
    pids.dedup();
    for pid in pids {
        push_meta(
            &mut lines,
            Track { pid, tid: 0 },
            "process_name",
            process_name(pid),
        );
    }
    for (track, name) in tracks {
        if keep(track.pid) {
            push_meta(&mut lines, *track, "thread_name", name);
        }
    }

    for e in events {
        if !keep(e.track.pid) {
            continue;
        }
        let mut s = String::new();
        s.push_str("{\"ph\":\"");
        s.push_str(match (e.flow, e.dur_us) {
            (Some((_, FlowDir::Start)), _) => "s",
            (Some((_, FlowDir::Finish)), _) => "f",
            (None, Some(_)) => "X",
            (None, None) => "i",
        });
        s.push('"');
        if let Some((_, FlowDir::Finish)) = e.flow {
            s.push_str(",\"bp\":\"e\"");
        }
        s.push_str(",\"pid\":");
        s.push_str(&e.track.pid.to_string());
        s.push_str(",\"tid\":");
        s.push_str(&e.track.tid.to_string());
        s.push_str(",\"ts\":");
        s.push_str(&e.ts_us.to_string());
        if let Some((id, _)) = e.flow {
            s.push_str(",\"id\":");
            s.push_str(&id.to_string());
        } else if let Some(dur) = e.dur_us {
            s.push_str(",\"dur\":");
            s.push_str(&dur.to_string());
        } else {
            s.push_str(",\"s\":\"t\"");
        }
        s.push_str(",\"cat\":\"");
        escape_into(&mut s, e.cat);
        s.push_str("\",\"name\":\"");
        escape_into(&mut s, e.name);
        s.push_str("\",\"args\":");
        push_args(&mut s, &e.args);
        s.push('}');
        lines.push(s);
    }

    let mut out = String::with_capacity(lines.iter().map(|l| l.len() + 2).sum::<usize>() + 4);
    out.push_str("[\n");
    let n = lines.len();
    for (i, line) in lines.into_iter().enumerate() {
        out.push_str(&line);
        if i + 1 < n {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Args;

    fn ev(tid: u32, name: &'static str, ts: u64, dur: Option<u64>) -> Event {
        Event {
            track: Track::virt(tid),
            cat: "test",
            name,
            ts_us: ts,
            dur_us: dur,
            flow: None,
            args: Args::new(&[("k", 7)]),
        }
    }

    #[test]
    fn empty_trace_is_a_valid_array() {
        assert_eq!(trace_json([].iter(), [].iter(), None), "[\n]\n");
    }

    #[test]
    fn span_and_instant_shapes() {
        let events = [ev(3, "s", 10, Some(5)), ev(3, "i", 12, None)];
        let tracks = [(Track::virt(3), "q0".to_owned())];
        let json = trace_json(events.iter(), tracks.iter(), None);
        assert!(json.contains(
            "{\"ph\":\"X\",\"pid\":1,\"tid\":3,\"ts\":10,\"dur\":5,\"cat\":\"test\",\"name\":\"s\",\"args\":{\"k\":7}}"
        ));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"s\":\"t\""));
        assert!(json.contains("thread_name"));
        assert!(json.contains("process_name"));
        // Valid array: every line but the last ends with a comma.
        let lines: Vec<&str> = json.lines().collect();
        assert_eq!(lines.first(), Some(&"["));
        assert_eq!(lines.last(), Some(&"]"));
        for l in &lines[1..lines.len() - 2] {
            assert!(l.ends_with(','), "line must be comma-terminated: {l}");
        }
        assert!(!lines[lines.len() - 2].ends_with(','));
    }

    #[test]
    fn flow_event_shapes() {
        let mut start = ev(3, "request.flow", 10, None);
        start.flow = Some((42, FlowDir::Start));
        start.args = Args::new(&[]);
        let mut finish = ev(5, "request.flow", 12, None);
        finish.flow = Some((42, FlowDir::Finish));
        finish.args = Args::new(&[]);
        let json = trace_json([start, finish].iter(), [].iter(), None);
        assert!(
            json.contains(
                "{\"ph\":\"s\",\"pid\":1,\"tid\":3,\"ts\":10,\"id\":42,\"cat\":\"test\",\"name\":\"request.flow\",\"args\":{}}"
            ),
            "{json}"
        );
        assert!(
            json.contains(
                "{\"ph\":\"f\",\"bp\":\"e\",\"pid\":1,\"tid\":5,\"ts\":12,\"id\":42,\"cat\":\"test\",\"name\":\"request.flow\",\"args\":{}}"
            ),
            "{json}"
        );
        // Flow events carry no "s":"t" scope and no "dur".
        assert!(!json.contains("\"s\":\"t\""), "{json}");
        assert!(!json.contains("\"dur\""), "{json}");
    }

    #[test]
    fn pid_filter_drops_other_processes() {
        let mut wall = ev(1, "w", 0, Some(1));
        wall.track = Track::wall(1);
        let events = [ev(1, "v", 0, Some(1)), wall];
        let json = trace_json(events.iter(), [].iter(), Some(VIRTUAL_PID));
        assert!(json.contains("\"name\":\"v\""));
        assert!(!json.contains("\"name\":\"w\""));
        assert!(!json.contains("pythia-wall"));
    }

    #[test]
    fn escaping_is_applied() {
        let tracks = [(Track::virt(1), "a\"b\\c\nd".to_owned())];
        let json = trace_json([].iter(), tracks.iter(), None);
        assert!(json.contains("a\\\"b\\\\c\\nd"));
    }
}
