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
//! * `M` — metadata: a `process_name` for every process and a `thread_name`
//!   for every track that has an event in what is rendered, in (pid, tid)
//!   order, named by `tid::name`;
//! * `X` — complete spans (`ts` + `dur`);
//! * `i` — instant events (thread scope);
//! * `s` / `f` — flow arrows linking tracks (`id` pairs the endpoints; the
//!   finish end carries `"bp":"e"` so it binds to the enclosing slice).

use std::collections::BTreeSet;

use crate::snapshot::escape_into;
use crate::{tid, Event, FlowDir, Track, VIRTUAL_PID, WALL_PID};

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

/// Render `events` (+ process and track name metadata) as Chrome
/// trace-event JSON. `pid_filter` restricts the output to one process (used
/// to export the deterministic virtual-time trace on its own). The input is
/// an iterator so a wrapped ring renders in place.
pub(crate) fn trace_json(
    events: impl Iterator<Item = Event> + Clone,
    pid_filter: Option<u32>,
) -> String {
    let keep = |pid: u32| pid_filter.map(|f| f == pid).unwrap_or(true);
    let mut lines: Vec<String> = Vec::new();

    // Every track with an event, in (pid, tid) order; process names first,
    // in pid order.
    let tracks: BTreeSet<Track> = events
        .clone()
        .map(|e| e.track)
        .filter(|t| keep(t.pid))
        .collect();
    let mut pids: Vec<u32> = tracks.iter().map(|t| t.pid).collect();
    pids.dedup();
    for pid in pids {
        push_meta(
            &mut lines,
            Track { pid, tid: 0 },
            "process_name",
            process_name(pid),
        );
    }
    for track in tracks {
        push_meta(&mut lines, track, "thread_name", &tid::name(track));
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
        assert_eq!(trace_json([].into_iter(), None), "[\n]\n");
    }

    #[test]
    fn span_and_instant_shapes() {
        let events = [ev(3, "s", 10, Some(5)), ev(3, "i", 12, None)];
        let json = trace_json(events.into_iter(), None);
        assert!(json.contains(
            "{\"ph\":\"X\",\"pid\":1,\"tid\":3,\"ts\":10,\"dur\":5,\"cat\":\"test\",\"name\":\"s\",\"args\":{\"k\":7}}"
        ));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"s\":\"t\""));
        assert!(json.contains(
            "{\"ph\":\"M\",\"pid\":1,\"tid\":3,\"name\":\"thread_name\",\"args\":{\"name\":\"flight-recorder\"}}"
        ));
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
        let json = trace_json([start, finish].into_iter(), None);
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
        let json = trace_json(events.into_iter(), Some(VIRTUAL_PID));
        assert!(json.contains("\"name\":\"v\""));
        assert!(!json.contains("\"name\":\"w\""));
        assert!(!json.contains("pythia-wall"));
    }

    #[test]
    fn escaping_is_applied() {
        let json = trace_json([ev(1, "a\"b\\c\nd", 0, None)].into_iter(), None);
        assert!(json.contains("\"name\":\"a\\\"b\\\\c\\nd\""), "{json}");
    }

    /// Names come from the tracks with events, whatever order they arrive
    /// in, one line each; a filtered-out process names none.
    #[test]
    fn tracks_with_events_are_named_once_in_pid_tid_order() {
        let mut wall = ev(1, "w", 0, Some(1));
        wall.track = Track::wall(1);
        let events = [
            wall,
            ev(1_005, "a", 0, None),
            ev(0, "b", 1, None),
            ev(1_005, "c", 2, None),
        ];
        let names: Vec<String> = trace_json(events.into_iter(), None)
            .lines()
            .filter(|l| l.contains("\"ph\":\"M\""))
            .map(str::to_owned)
            .collect();
        assert_eq!(
            names,
            [
                r#"{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"pythia-virtual (sim time)"}},"#,
                r#"{"ph":"M","pid":2,"tid":0,"name":"process_name","args":{"name":"pythia-wall (host time)"}},"#,
                r#"{"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"serving-loop"}},"#,
                r#"{"ph":"M","pid":1,"tid":1005,"name":"thread_name","args":{"name":"query-5"}},"#,
                r#"{"ph":"M","pid":2,"tid":1,"name":"thread_name","args":{"name":"nn-worker-1"}},"#,
            ]
        );
        let virt = trace_json(events.into_iter(), Some(VIRTUAL_PID));
        assert!(!virt.contains("nn-worker") && !virt.contains("pythia-wall"));
    }
}
