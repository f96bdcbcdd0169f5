//! The live metrics endpoint: a route table over [`crate::http`].
//!
//! [`MetricsServer`] answers `GET /metrics` with the latest published
//! [`MetricsSnapshot`] rendered as Prometheus text exposition
//! ([`MetricsSnapshot::to_prometheus`]). The serving loop publishes through a
//! [`SharedSnapshot`] — a mutex-guarded cell the recorder's owner overwrites
//! at convenient points (per admission wave), so scrapes never contend with
//! the hot recording path.
//!
//! Started via [`MetricsServer::start_with_debug`], the same listener also
//! serves the postmortem surface: `GET /debug/flight` returns the latest
//! anomaly-triggered flight-recorder dump (Chrome-trace JSON from a
//! [`crate::flight::SharedFlight`]; `404` until a trigger fires) and
//! `GET /debug/slow` the live top-K slow-request log (a
//! [`crate::request::SharedSlowLog`]).

use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};

use crate::http::{self, Head, Listener};
use crate::lock;
use crate::snapshot::MetricsSnapshot;

/// The cell a serving loop publishes snapshots into and the endpoint reads
/// from. Cheap to clone (an `Arc`); cloning shares the cell.
#[derive(Debug, Clone, Default)]
pub struct SharedSnapshot {
    pub(crate) cell: Arc<Mutex<MetricsSnapshot>>,
}

impl SharedSnapshot {
    /// A fresh cell holding an empty snapshot.
    pub fn new() -> SharedSnapshot {
        SharedSnapshot::default()
    }

    /// Replace the published snapshot.
    pub fn publish(&self, snap: MetricsSnapshot) {
        *lock(&self.cell) = snap;
    }

    /// The most recently published snapshot (cloned out of the cell).
    pub fn get(&self) -> MetricsSnapshot {
        lock(&self.cell).clone()
    }
}

/// The debug-surface cells a [`MetricsServer`] can additionally serve:
/// `/debug/flight` (latest flight dump) and `/debug/slow` (top-K slow
/// requests). Cheap to clone; clones share the underlying cells.
#[derive(Debug, Clone, Default)]
pub struct DebugEndpoints {
    /// Latest anomaly-triggered flight-recorder dump.
    pub flight: crate::flight::SharedFlight,
    /// Live top-K slow-request log.
    pub slow: crate::request::SharedSlowLog,
}

/// A listener serving `GET /metrics` from a [`SharedSnapshot`].
#[derive(Debug)]
pub struct MetricsServer {
    listener: Listener,
}

impl MetricsServer {
    /// Bind `addr` (e.g. `127.0.0.1:9184`, or port `0` for an ephemeral
    /// port) and start answering scrapes. The bound address is available via
    /// [`MetricsServer::addr`].
    pub fn start(addr: &str, shared: SharedSnapshot) -> std::io::Result<MetricsServer> {
        MetricsServer::spawn(addr, shared, None)
    }

    /// [`MetricsServer::start`], additionally serving the `/debug/flight`
    /// and `/debug/slow` postmortem routes from `debug`'s shared cells.
    pub fn start_with_debug(
        addr: &str,
        shared: SharedSnapshot,
        debug: DebugEndpoints,
    ) -> std::io::Result<MetricsServer> {
        MetricsServer::spawn(addr, shared, Some(debug))
    }

    fn spawn(
        addr: &str,
        shared: SharedSnapshot,
        debug: Option<DebugEndpoints>,
    ) -> std::io::Result<MetricsServer> {
        let listener = Listener::start(addr, "pythia-metrics", move |stream| {
            answer(stream, &shared, debug.as_ref())
        })?;
        Ok(MetricsServer { listener })
    }

    /// The address the listener actually bound (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.listener.addr()
    }

    /// Stop the listener thread and wait for it to exit.
    pub fn shutdown(self) {
        self.listener.shutdown();
    }
}

/// Answer one scrape. Any I/O error, or a head that does not arrive in time,
/// just drops the connection — a scraper retries, and the endpoint is
/// diagnostic.
fn answer(mut stream: TcpStream, shared: &SharedSnapshot, debug: Option<&DebugEndpoints>) {
    // The 0.0.4 text exposition content type Prometheus expects.
    const PROM: &str = "text/plain; version=0.0.4; charset=utf-8";
    const JSON: &str = "application/json";
    let path = match http::read_head(&mut stream, http::READ_DEADLINE) {
        Ok(Head::Get(path)) => path,
        Ok(Head::Malformed) => String::new(), // no route: the 404 below
        Ok(Head::TimedOut) | Err(_) => return,
    };
    let (status, content_type, body) = match (path.as_str(), debug) {
        ("/metrics", _) => ("200 OK", PROM, shared.get().to_prometheus()),
        ("/metrics.json", _) => ("200 OK", JSON, shared.get().to_json()),
        ("/debug/slow", Some(debug)) => ("200 OK", JSON, debug.slow.to_json()),
        ("/debug/flight", Some(debug)) => match debug.flight.get() {
            Some(dump) => ("200 OK", JSON, dump.trace_json),
            None => (
                "404 Not Found",
                PROM,
                String::from("no flight dump captured yet (no anomaly trigger has fired)\n"),
            ),
        },
        _ => (
            "404 Not Found",
            PROM,
            String::from("try /metrics, /metrics.json, /debug/slow or /debug/flight\n"),
        ),
    };
    let _ = http::respond(&mut stream, status, content_type, &body, None);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;
    use std::io::{Read, Write};

    fn scrape(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect to metrics endpoint");
        let req = format!("GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
        stream.write_all(req.as_bytes()).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_published_snapshot_as_prometheus_text() {
        let shared = SharedSnapshot::new();
        let server = MetricsServer::start("127.0.0.1:0", shared.clone()).expect("bind");

        let mut h = Histogram::new();
        h.record(100);
        h.record(200);
        shared.publish(MetricsSnapshot {
            counters: vec![("reads.hit".into(), 41)],
            hists: vec![("server.admission_wait_us".into(), h.summary())],
            labeled: vec![(
                "frontend.accepted".into(),
                vec![("tenant".into(), "0".into())],
                5,
            )],
        });

        let resp = scrape(server.addr(), "/metrics");
        assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "{resp}");
        assert!(resp.contains("text/plain; version=0.0.4"));
        assert!(resp.contains("pythia_reads_hit 41\n"));
        assert!(resp.contains("pythia_frontend_accepted{tenant=\"0\"} 5\n"));
        assert!(resp.contains("pythia_server_admission_wait_us_count 2\n"));
        assert!(resp.contains("pythia_server_admission_wait_us{quantile=\"0.95\"}"));

        // Publishing again replaces what the next scrape sees.
        shared.publish(MetricsSnapshot {
            counters: vec![("reads.hit".into(), 42)],
            hists: vec![],
            labeled: vec![],
        });
        let resp = scrape(server.addr(), "/metrics");
        assert!(resp.contains("pythia_reads_hit 42\n"));

        let json = scrape(server.addr(), "/metrics.json");
        assert!(json.contains("application/json"));
        assert!(json.contains("{\"counters\":{\"reads.hit\":42}"));

        let missing = scrape(server.addr(), "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

        // Debug routes are absent unless started with them.
        let no_debug = scrape(server.addr(), "/debug/slow");
        assert!(no_debug.starts_with("HTTP/1.1 404"), "{no_debug}");

        server.shutdown();
    }

    #[test]
    fn serves_debug_flight_and_slow_routes() {
        use crate::flight::FlightDump;
        use crate::request::RequestBreakdown;

        let shared = SharedSnapshot::new();
        let debug = DebugEndpoints::default();
        let server =
            MetricsServer::start_with_debug("127.0.0.1:0", shared, debug.clone()).expect("bind");

        // No anomaly yet: /debug/flight is an explicit 404, /debug/slow an
        // empty log.
        let flight = scrape(server.addr(), "/debug/flight");
        assert!(flight.starts_with("HTTP/1.1 404"), "{flight}");
        assert!(flight.contains("no flight dump captured yet"), "{flight}");
        let slow = scrape(server.addr(), "/debug/slow");
        assert!(slow.starts_with("HTTP/1.1 200 OK"), "{slow}");
        assert!(slow.contains("\"count\":0"), "{slow}");

        debug.slow.offer(RequestBreakdown {
            request: 3,
            replay_us: 500,
            ..RequestBreakdown::default()
        });
        debug.flight.publish(FlightDump {
            reason: "drift.alert".to_owned(),
            trace_json: "[\n{\"ph\":\"i\",\"pid\":1,\"tid\":0,\"ts\":1,\"s\":\"t\",\"cat\":\"c\",\"name\":\"e\",\"args\":{}}\n]\n".to_owned(),
            trigger_seq: 1,
        });
        let flight = scrape(server.addr(), "/debug/flight");
        assert!(flight.starts_with("HTTP/1.1 200 OK"), "{flight}");
        assert!(flight.contains("application/json"), "{flight}");
        assert!(flight.contains("\"name\":\"e\""), "{flight}");
        let slow = scrape(server.addr(), "/debug/slow");
        assert!(slow.contains("\"request\":3"), "{slow}");
        assert!(slow.contains("\"latency_us\":500"), "{slow}");

        server.shutdown();
    }

    /// One scraper trickling its head must not hold `/metrics` for the next
    /// (no head is read on the accept thread), and a head written a line at
    /// a time is read to its end before the answer closes the socket.
    #[test]
    fn slow_and_line_by_line_scrapers_are_served() {
        let shared = SharedSnapshot::new();
        shared.publish(MetricsSnapshot {
            counters: vec![("reads.hit".into(), 7)],
            hists: vec![],
            labeled: vec![],
        });
        let server = MetricsServer::start("127.0.0.1:0", shared).expect("bind");

        let mut trickler = TcpStream::connect(server.addr()).expect("connect trickler");
        trickler.write_all(b"GET /met").unwrap(); // ...and then nothing
        let started = std::time::Instant::now();
        let resp = scrape(server.addr(), "/metrics");
        assert!(resp.contains("pythia_reads_hit 7\n"), "{resp}");
        assert!(
            started.elapsed() < std::time::Duration::from_millis(250),
            "/metrics waited {:?} behind a trickling scraper",
            started.elapsed()
        );

        let resp = crate::http::tests::get_line_by_line(server.addr(), "/metrics");
        assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "{resp}");
        assert!(resp.contains("pythia_reads_hit 7\n"), "{resp}");

        drop(trickler);
        server.shutdown();
    }

    /// A thread that panicked while holding a cell's lock must not take the
    /// pump (publish/offer) or the metrics handler (get/to_json) down with it.
    #[test]
    fn poisoned_cells_keep_publishing_and_reading() {
        use crate::flight::FlightDump;
        use crate::request::RequestBreakdown;

        fn poison<T: Send + 'static>(cell: &Arc<Mutex<T>>) {
            let held = Arc::clone(cell);
            let died = std::thread::spawn(move || {
                let _guard = held.lock().unwrap();
                panic!("poisoning the cell on purpose");
            })
            .join();
            assert!(died.is_err() && cell.is_poisoned());
        }

        let snap = SharedSnapshot::new();
        let debug = DebugEndpoints::default();
        poison(&snap.cell);
        poison(&debug.flight.cell);
        poison(&debug.slow.cell);

        let mut published = MetricsSnapshot::default();
        published.counters.push(("reads.hit".to_owned(), 42));
        snap.publish(published);
        assert_eq!(snap.get().counter("reads.hit"), 42);

        debug.flight.publish(FlightDump {
            reason: "slow.request".to_owned(),
            trace_json: "[\n]\n".to_owned(),
            trigger_seq: 7,
        });
        assert_eq!(debug.flight.get().map(|d| d.trigger_seq), Some(7));

        debug.slow.offer(RequestBreakdown {
            request: 3,
            replay_us: 500,
            ..RequestBreakdown::default()
        });
        assert!(debug.slow.to_json().contains("\"request\":3"));
        assert_eq!(debug.slow.get().to_json(), debug.slow.to_json());
    }
}
