//! A zero-dependency TCP front-end for the serving loop.
//!
//! [`Frontend`] is a route table over the wire layer ([`pythia_obs::http`]:
//! listener, request-head reader, response writer), the one socket of the
//! live process. It translates wire requests into [`Arrival`] events on a
//! bounded queue, and serves the process's metrics and postmortem routes:
//!
//! - `GET /query/<idx>` — enqueue catalog query `idx`. The connection stays
//!   open; whoever drains the queue submits the query to a
//!   [`ServeSession`](crate::server::ServeSession) and, when its completion
//!   is polled, answers through
//!   the arrival's [`Responder`] with the virtual-time outcome as JSON
//!   ([`outcome_json`]). When the queue is already at the configured depth
//!   target the request is **load-shed** instead: an immediate
//!   `503 Service Unavailable` with a `Retry-After` header, and the queue
//!   never grows past the bound (backpressure by rejection, the only kind a
//!   connectionless-budget front can apply).
//! - `GET /t/<tenant>/query/<idx>` — the same, attributed to a tenant in
//!   `0..tenants` ([`FrontendConfig::tenants`]); the arrival carries the
//!   tenant id so the serving loop can apply per-tenant quotas and route to
//!   the tenant's registry fleet. Unprefixed routes are tenant 0.
//! - `GET /healthz` — liveness probe, answered inline.
//! - `GET /stats` — accepted/shed/rejected counters and current depth, JSON.
//!   `GET /t/<tenant>/stats` scopes the same counters to one tenant.
//! - `GET /t/<tenant>/health` — the tenant's quality snapshot
//!   ([`crate::quality::QualityTracker::health_json`] of its server's
//!   tracker, with the registry fleet's live model version); `404` while no
//!   body is published, which for a tenant whose server keeps no tracker is
//!   always.
//! - `GET /metrics` — the first tenant's recorder snapshot as Prometheus text
//!   exposition; `GET /metrics.json` the same snapshot as JSON.
//! - `GET /debug/slow` — the top-K slowest answered requests with their
//!   latency breakdowns; `GET /debug/flight` — the latest anomaly-triggered
//!   flight-recorder dump (Chrome-trace JSON), `404` until a trigger fires.
//!   These four are unprefixed only.
//! - `GET /shutdown` — acknowledge and set a flag the serving loop can poll
//!   ([`Frontend::shutdown_requested`]) for a clean drain-then-exit.
//!   [`Frontend::shutdown`] then closes the queue and answers anything still
//!   in it with `503`; a connection that finishes its request head later
//!   still finds the queue closed and is answered `503` too, so no client is
//!   left hanging until its own timeout.
//!
//! [`pump`] fills the cells `/t/<tenant>/health`, `/metrics`, `/debug/slow`
//! and `/debug/flight` read; a handler thread only copies a cell out, so no
//! route waits on the serving loop or reaches into a server.
//!
//! Anything else (unknown path, non-GET, unparsable index, index outside the
//! catalog) gets `400`/`404`. Each connection has a short-lived handler
//! thread, so an idle or byte-trickling client never stalls other requests
//! (`/healthz` included); a connection that has not delivered its request
//! head within [`FrontendConfig::read_deadline`] is answered `408` and
//! closed, which also bounds every handler thread's lifetime.
//!
//! The wall-clock side (sockets, thread wakeups) never feeds back into the
//! virtual clock as a timestamp: arrivals carry none, and a request arrives
//! at the session's clock when the pump submits it. What the network does
//! decide is the *order* in which the pump sees requests and which of them
//! it finds queued together — so virtual-time outcomes are bit-identical
//! for the same order and grouping, which a client that waits for each
//! answer before its next request fixes by itself, and which concurrent
//! clients do not.
//!
//! [`pump`] is the other half — the one loop that drains this queue into
//! serving sessions and answers them, behind every socket in the repository.
//! `examples/serve_demo.rs` decides what stands around it (flags, fixtures,
//! training, the listen address, which recorders are bounded);
//! `EXPERIMENTS.md` has the curl recipe.

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use pythia_obs::http::{self, Head, Listener};
use pythia_obs::lock;
use pythia_obs::request::SlowLog;
use pythia_obs::snapshot::MetricsSnapshot;

use crate::server::{PrefetchServer, QueryOutcome, ServerRequest};

/// Front-end configuration.
#[derive(Debug, Clone, Copy)]
pub struct FrontendConfig {
    /// Number of queries in the catalog: `/query/<idx>` accepts `idx` in
    /// `0..catalog` and rejects the rest with `400`.
    pub catalog: usize,
    /// Queue depth target: a `/query` request that finds this many arrivals
    /// already queued is shed with `503` instead of enqueued, so the queue
    /// never holds more than `shed_depth` entries.
    pub shed_depth: usize,
    /// Total time a connection gets to deliver its request head. A client
    /// that stays idle or trickles bytes past this deadline is answered
    /// `408 Request Timeout` and closed. This bounds the lifetime of each
    /// per-connection handler thread.
    pub read_deadline: Duration,
    /// Number of tenants: `/t/<tenant>/...` accepts ids in `0..tenants` and
    /// rejects the rest with `400`. Values below 1 behave as 1 (tenant 0 —
    /// the unprefixed legacy routes — always exists).
    pub tenants: usize,
}

impl FrontendConfig {
    /// Config for a single-tenant `catalog`-query workload with the default
    /// depth target and the wire layer's request-head deadline (2s).
    pub fn new(catalog: usize) -> Self {
        FrontendConfig {
            catalog,
            shed_depth: 64,
            read_deadline: http::READ_DEADLINE,
            tenants: 1,
        }
    }
}

/// Monotonic front-end counters plus the instantaneous queue depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FrontendStats {
    /// Requests enqueued as arrivals.
    pub accepted: u64,
    /// Requests load-shed with `503` at the depth target.
    pub shed: u64,
    /// Malformed requests answered `400` (bad path, bad index).
    pub rejected: u64,
    /// Arrivals currently queued.
    pub depth: usize,
}

impl FrontendStats {
    /// JSON rendering (the `/stats` endpoint body).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"accepted\":{},\"shed\":{},\"rejected\":{},\"depth\":{}}}\n",
            self.accepted, self.shed, self.rejected, self.depth
        )
    }
}

/// The deferred half of an accepted connection: answer it once the query has
/// been served (or refuse it if serving is impossible). Dropping a responder
/// unanswered just closes the socket.
#[derive(Debug)]
pub struct Responder {
    stream: TcpStream,
}

impl Responder {
    /// Answer `200 OK` with a JSON body. Write errors are ignored — the
    /// client may have gone away, which does not concern the serving loop.
    pub fn ok_json(mut self, body: &str) {
        let _ = http::respond(&mut self.stream, "200 OK", "application/json", body, None);
    }

    /// Answer an error status with a plain-text body.
    pub fn error(mut self, status: &str, body: &str) {
        let _ = http::respond(&mut self.stream, status, "text/plain", body, None);
    }
}

/// One accepted wire request, waiting in the queue for the serving loop.
#[derive(Debug)]
pub struct Arrival {
    /// Catalog index of the requested query.
    pub query: usize,
    /// Tenant the request was routed under (0 for unprefixed paths).
    pub tenant: u32,
    /// End-to-end trace id, minted at ingestion
    /// ([`pythia_obs::request::mint`] — wall-ordered, never 0). The serving
    /// loop threads it through [`crate::server::ServerRequest::with_request`]
    /// so the `request.*` span tree and the `/debug/slow` log name the same
    /// id the front-end accepted.
    pub request: u64,
    /// The connection to answer once served.
    pub responder: Responder,
}

/// One front-end counter: the total and its per-tenant slices, indexed by
/// tenant id. A request that never named a valid tenant (malformed line, bad
/// tenant id) counts in the total only.
struct Counter {
    total: AtomicU64,
    tenants: Vec<AtomicU64>,
}

impl Counter {
    fn new(tenants: usize) -> Counter {
        Counter {
            total: AtomicU64::new(0),
            tenants: (0..tenants).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn bump(&self, tenant: Option<u32>) {
        self.total.fetch_add(1, Ordering::Relaxed);
        if let Some(slice) = tenant.and_then(|t| self.tenants.get(t as usize)) {
            slice.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The total, or one tenant's slice (0 for a tenant out of range).
    fn get(&self, tenant: Option<u32>) -> u64 {
        match tenant {
            None => self.total.load(Ordering::Relaxed),
            Some(t) => self
                .tenants
                .get(t as usize)
                .map_or(0, |slice| slice.load(Ordering::Relaxed)),
        }
    }
}

/// The arrivals awaiting the serving loop. `closed` is under the same lock
/// as the arrivals, so a handler either enqueues before [`Frontend::shutdown`]
/// drains or sees the queue closed.
#[derive(Default)]
struct Queue {
    arrivals: VecDeque<Arrival>,
    closed: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    ready: Condvar,
    accepted: Counter,
    shed: Counter,
    rejected: Counter,
    shutdown_req: AtomicBool,
    // What `/t/<tenant>/health` (one cell per tenant), `/metrics`,
    // `/debug/slow` and `/debug/flight` serve, as the pump last left them.
    health: Vec<pythia_obs::Shared<Option<String>>>,
    metrics: pythia_obs::Shared<MetricsSnapshot>,
    slow: pythia_obs::Shared<SlowLog>,
    flight: pythia_obs::Shared<Option<String>>,
}

impl Shared {
    /// Counters and queue depth: the totals, or one tenant's slice of each.
    fn stats(&self, tenant: Option<u32>) -> FrontendStats {
        let queue = lock(&self.queue);
        FrontendStats {
            accepted: self.accepted.get(tenant),
            shed: self.shed.get(tenant),
            rejected: self.rejected.get(tenant),
            depth: match tenant {
                None => queue.arrivals.len(),
                Some(t) => queue.arrivals.iter().filter(|a| a.tenant == t).count(),
            },
        }
    }
}

/// The listening front: bounded queue, shed-above-target.
pub struct Frontend {
    listener: Listener,
    shared: Arc<Shared>,
}

impl Frontend {
    /// Bind `addr` (e.g. `127.0.0.1:7878`, or port `0` for an ephemeral
    /// port) and start accepting. The bound address is available via
    /// [`Frontend::addr`].
    pub fn start(addr: &str, cfg: FrontendConfig) -> std::io::Result<Frontend> {
        let tenants = cfg.tenants.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::default(),
            ready: Condvar::new(),
            accepted: Counter::new(tenants),
            shed: Counter::new(tenants),
            rejected: Counter::new(tenants),
            shutdown_req: AtomicBool::new(false),
            health: (0..tenants).map(|_| Default::default()).collect(),
            metrics: Default::default(),
            slow: Default::default(),
            flight: Default::default(),
        });
        let shared_conn = Arc::clone(&shared);
        let listener = Listener::start(addr, "pythia-frontend", move |stream| {
            handle(stream, &shared_conn, &cfg)
        })?;
        Ok(Frontend { listener, shared })
    }

    /// The address the listener actually bound (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.listener.addr()
    }

    /// Counter snapshot plus current depth.
    pub fn stats(&self) -> FrontendStats {
        self.shared.stats(None)
    }

    /// The latest flight dump `/debug/flight` serves, if a trigger has fired.
    pub fn flight_dump(&self) -> Option<String> {
        self.shared.flight.get()
    }

    /// True once a client has requested `/shutdown`; the serving loop polls
    /// this for a clean drain-then-exit.
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown_req.load(Ordering::Relaxed)
    }

    /// Wait up to `wait` for the queue to be non-empty, then drain
    /// *everything* queued at that instant — the opportunistic batch the
    /// serving loop re-batches inference over. Returns an empty vec on
    /// timeout.
    pub fn drain_batch(&self, wait: Duration) -> Vec<Arrival> {
        let mut queue = lock(&self.shared.queue);
        if queue.arrivals.is_empty() {
            // A poisoned queue is still a queue (see `pythia_obs::lock`).
            queue = match self.shared.ready.wait_timeout(queue, wait) {
                Ok((guard, _)) => guard,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
        queue.arrivals.drain(..).collect()
    }

    /// Stop the accept thread, wait for it to exit, then close the queue and
    /// answer every arrival still in it with `503 Service Unavailable` — an
    /// accepted client whose query will never be served must not hang until
    /// its own timeout waiting on a response that cannot come. A detached
    /// handler still reading its request head finds the queue closed when it
    /// gets there and answers `503` itself.
    pub fn shutdown(self) {
        self.listener.shutdown();
        let drained: Vec<Arrival> = {
            let mut queue = lock(&self.shared.queue);
            queue.closed = true;
            queue.arrivals.drain(..).collect()
        };
        for a in drained {
            a.responder
                .error("503 Service Unavailable", "shutting down\n");
        }
    }
}

/// Render a served query's virtual-time outcome as the response body,
/// including its trace id and the queue/admission/inference/replay latency
/// breakdown (the same partition the `request.*` trace spans draw).
pub fn outcome_json(query: usize, q: &QueryOutcome) -> String {
    let b = q.breakdown();
    format!(
        "{{\"query\":{query},\"request\":{},\"arrival_us\":{},\"admitted_us\":{},\"start_us\":{},\
         \"end_us\":{},\"wait_us\":{},\"latency_us\":{},\"queue_us\":{},\"admission_us\":{},\
         \"infer_us\":{},\"replay_us\":{},\"admission\":{}}}\n",
        q.request,
        q.arrival.as_micros(),
        q.admitted.as_micros(),
        q.start.as_micros(),
        q.end.as_micros(),
        q.admission_wait().as_micros(),
        q.latency().as_micros(),
        b.queue_us,
        b.admission_us,
        b.infer_us,
        b.replay_us,
        q.wave
    )
}

/// One tenant behind [`pump`]: the server over its database, and what
/// `/t/<tenant>/query/<idx>` submits to it — entry `idx`, under the id the
/// front minted for the connection. An entry's `arrival` counts from the
/// pump's start, so `ZERO` arrives the moment it is submitted.
pub struct Tenant<'d> {
    pub server: PrefetchServer<'d>,
    pub catalog: Vec<ServerRequest<'d>>,
}

/// Newly shed requests between two drains that count as an anomaly.
const SHED_BURST: u64 = 8;
/// How long an idle pump blocks on the queue before it looks at `/shutdown`.
const IDLE_WAIT: Duration = Duration::from_millis(50);

/// The live path: serve `fe`'s arrivals until `/shutdown`, one
/// [`ServeSession`](crate::server::ServeSession) per tenant for the life of
/// the call. Each turn drains the queue (blocking only when nothing is
/// replaying), submits every arrival to its tenant's session — `404` for a
/// tenant or query this pump was not given — and polls each session for one
/// completion, answered at once with [`outcome_json`]: no tenant waits on
/// another's backlog, no request on a later one's replay.
/// `on_answer(tenant, query, outcome)` runs before the answer is
/// written, so what it records is there for the client's next request.
///
/// The pump also fills the cells the front's other routes serve: every
/// tenant's recorder dumps its flight triggers to `/debug/flight`, and each
/// answer's breakdown goes to the `/debug/slow` log before it is written.
/// A tenant's own cells — `/t/<tenant>/health` from its server's quality
/// tracker, and for the first tenant `/metrics` from its recorder — are
/// published at the start, before each of that tenant's answers and once
/// more after the sessions finish.
///
/// `SHED_BURST` (eight) newly shed requests between two drains fire the first
/// tenant's flight recorder. Once everything accepted before `/shutdown` is
/// answered, every session is finished and the pump returns; what arrives
/// later is for the caller's [`Frontend::shutdown`] to refuse.
pub fn pump(
    fe: &Frontend,
    tenants: &mut [Tenant<'_>],
    mut on_answer: impl FnMut(usize, usize, &QueryOutcome),
) {
    let cells = &fe.shared;
    let publish = |t: usize, server: &PrefetchServer<'_>| {
        if let (Some(cell), Some(quality)) = (cells.health.get(t), server.quality()) {
            cell.set(Some(quality.health_json(t as u32, server.model_version())));
        }
        if t == 0 {
            cells.metrics.set(server.recorder().snapshot());
        }
    };
    for (t, tenant) in tenants.iter_mut().enumerate() {
        tenant
            .server
            .recorder_mut()
            .set_flight_publisher(cells.flight.clone());
        publish(t, &tenant.server);
    }
    let mut sessions: Vec<_> = tenants.iter_mut().map(|t| t.server.session()).collect();
    // The connections waiting on a completion, by (tenant, ticket).
    let mut waiting: HashMap<(usize, u64), (usize, Responder)> = HashMap::new();
    let mut last_shed = 0u64;
    loop {
        // Read before the drain: the turn that sees the request to stop has
        // also drained every arrival that preceded it.
        let stopping = fe.shutdown_requested();
        let idle = waiting.is_empty() && !stopping;
        for a in fe.drain_batch(if idle { IDLE_WAIT } else { Duration::ZERO }) {
            // Look both up: the wire's indices are not ours to trust.
            let t = a.tenant as usize;
            let request = tenants
                .get(t)
                .and_then(|tenant| tenant.catalog.get(a.query));
            let (Some(request), Some(session)) = (request, sessions.get_mut(t)) else {
                a.responder
                    .error("404 Not Found", "no such tenant or query\n");
                continue;
            };
            let ticket = session.submit(request.with_request(a.request));
            waiting.insert((t, ticket), (a.query, a.responder));
        }
        let shed = fe.stats().shed;
        if shed.saturating_sub(last_shed) >= SHED_BURST {
            if let (Some(tenant), Some(session)) = (tenants.first_mut(), sessions.first()) {
                let rec = tenant.server.recorder_mut();
                rec.trigger_flight("shed.burst", session.clock().as_micros());
            }
        }
        last_shed = shed;
        if stopping && waiting.is_empty() {
            break;
        }
        for (t, (tenant, session)) in tenants.iter_mut().zip(&mut sessions).enumerate() {
            let Some((ticket, outcome)) = session.poll_completion(&mut tenant.server) else {
                continue;
            };
            // Nobody here reads the admission intervals; taking them keeps
            // the session from collecting them.
            session.take_intervals();
            let Some((query, responder)) = waiting.remove(&(t, ticket)) else {
                continue;
            };
            on_answer(t, query, &outcome);
            cells.slow.with(|log| log.offer(outcome.breakdown()));
            publish(t, &tenant.server);
            responder.ok_json(&outcome_json(query, &outcome));
        }
    }
    // Settle once: the prefetch-waste write-off, the tail interval into the
    // quality tracker.
    for (t, (tenant, session)) in tenants.iter_mut().zip(sessions).enumerate() {
        session.finish(&mut tenant.server);
        publish(t, &tenant.server);
    }
}

/// What a route answers with; [`handle`] is the one place that writes it.
struct Reply {
    status: &'static str,
    content_type: &'static str,
    body: String,
    extra_header: Option<&'static str>,
}

impl Reply {
    fn text(status: &'static str, body: impl Into<String>) -> Reply {
        Reply {
            status,
            content_type: "text/plain",
            body: body.into(),
            extra_header: None,
        }
    }

    fn json(body: String) -> Reply {
        Reply {
            status: "200 OK",
            content_type: "application/json",
            body,
            extra_header: None,
        }
    }

    /// Plain text under the 0.0.4 exposition content type Prometheus expects.
    fn prom(status: &'static str, body: impl Into<String>) -> Reply {
        Reply {
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            ..Reply::text(status, body)
        }
    }
}

/// What [`route`] makes of a request.
enum Routed {
    /// Answer inline.
    Answer(Reply),
    /// The client's mistake (`400`, `408`): answer inline and count the
    /// request `rejected`, against the tenant too when it named a valid one.
    Reject(Option<u32>, Reply),
    /// A query of the catalog: queue the connection, or shed it at the depth
    /// target.
    Query { tenant: u32, query: usize },
}

/// Serve one accepted connection: read the head, route it, then write the
/// reply — or leave the connection in the queue for the serving loop to
/// answer.
fn handle(mut stream: TcpStream, shared: &Shared, cfg: &FrontendConfig) {
    let routed = match http::read_head(&mut stream, cfg.read_deadline) {
        Ok(Head::Get(path)) => route(&path, shared, cfg),
        Ok(Head::Malformed) => Routed::Reject(
            None,
            Reply::text("400 Bad Request", "expected GET <path>\n"),
        ),
        Ok(Head::TimedOut) => Routed::Reject(
            None,
            Reply::text(
                "408 Request Timeout",
                "no complete request line before the deadline\n",
            ),
        ),
        Err(_) => return,
    };
    let reply = match routed {
        Routed::Answer(reply) => reply,
        Routed::Reject(tenant, reply) => {
            shared.rejected.bump(tenant);
            reply
        }
        Routed::Query { tenant, query } => {
            let mut queue = lock(&shared.queue);
            if !queue.closed && queue.arrivals.len() < cfg.shed_depth {
                queue.arrivals.push_back(Arrival {
                    query,
                    tenant,
                    request: pythia_obs::request::mint(),
                    responder: Responder { stream },
                });
                drop(queue);
                shared.accepted.bump(Some(tenant));
                shared.ready.notify_one();
                return; // answered by the serving loop, through the responder
            }
            let closed = queue.closed;
            drop(queue);
            if closed {
                // Nobody will drain again: refused here, not dropped.
                Reply::text("503 Service Unavailable", "shutting down\n")
            } else {
                shared.shed.bump(Some(tenant));
                Reply {
                    extra_header: Some("Retry-After: 1"),
                    ..Reply::text("503 Service Unavailable", "queue full, retry later\n")
                }
            }
        }
    };
    let _ = http::respond(
        &mut stream,
        reply.status,
        reply.content_type,
        &reply.body,
        reply.extra_header,
    );
}

/// The route table. `/t/<tenant>/<route>` scopes a route to a tenant;
/// unprefixed routes act as tenant 0, with the global (unscoped) `/stats`.
fn route(path: &str, shared: &Shared, cfg: &FrontendConfig) -> Routed {
    use Routed::{Answer, Query, Reject};
    let bad_request = |body: String| Reply::text("400 Bad Request", body);
    let tenants = cfg.tenants.max(1);
    let (tenant, route) = match path.strip_prefix("/t/") {
        None => (None, path),
        Some(rest) => match rest.split_once('/') {
            Some((id, _)) => match id.parse::<u32>() {
                Ok(t) if (t as usize) < tenants => (Some(t), &rest[id.len()..]),
                _ => {
                    let body = format!("bad tenant id; this front serves {tenants} tenants\n");
                    return Reject(None, bad_request(body));
                }
            },
            None => {
                let body = "expected /t/<tenant>/<route>\n".to_owned();
                return Reject(None, bad_request(body));
            }
        },
    };
    match (route, tenant) {
        ("/healthz", _) => Answer(Reply::text("200 OK", "ok\n")),
        ("/stats", _) => Answer(Reply::json(shared.stats(tenant).to_json())),
        ("/health", Some(t)) => Answer(match shared.health[t as usize].get() {
            Some(body) => Reply::json(body),
            None => Reply::text(
                "404 Not Found",
                "no quality tracker reports on this tenant\n",
            ),
        }),
        ("/shutdown", _) => {
            shared.shutdown_req.store(true, Ordering::Relaxed);
            Answer(Reply::text("200 OK", "shutting down\n"))
        }
        ("/metrics", None) => Answer(Reply::prom(
            "200 OK",
            shared.metrics.with(|m| m.to_prometheus()),
        )),
        ("/metrics.json", None) => Answer(Reply::json(shared.metrics.with(|m| m.to_json()))),
        ("/debug/slow", None) => Answer(Reply::json(shared.slow.with(|s| s.to_json()))),
        ("/debug/flight", None) => Answer(match shared.flight.get() {
            Some(dump) => Reply::json(dump),
            None => Reply::prom(
                "404 Not Found",
                "no flight dump captured yet (no anomaly trigger has fired)\n",
            ),
        }),
        _ => match route.strip_prefix("/query/").map(str::parse::<usize>) {
            Some(Ok(query)) if query < cfg.catalog => Query {
                tenant: tenant.unwrap_or(0),
                query,
            },
            Some(_) => {
                let body = format!("bad query index; catalog has {} queries\n", cfg.catalog);
                Reject(Some(tenant.unwrap_or(0)), bad_request(body))
            }
            None => Answer(Reply::text(
                "404 Not Found",
                "try /query/<idx>, /t/<tenant>/query/<idx>, /t/<tenant>/health, /healthz, /stats, \
                 /metrics, /metrics.json, /debug/slow, /debug/flight or /shutdown\n",
            )),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PythiaConfig;
    use crate::predictor::train_workload;
    use crate::quality::QualityTracker;
    use crate::registry::TenantFleet;
    use crate::server::{InferenceCharge, ServerConfig};
    use pythia_db::catalog::Database;
    use pythia_db::plan::PlanNode;
    use pythia_db::runtime::RunConfig;
    use pythia_db::trace::{AccessKind, Trace, TraceEvent};
    use pythia_db::types::Schema;
    use pythia_sim::{FileId, PageId, SimDuration};
    use std::io::{Read, Write};

    /// Connect and write `bytes`; the connection stays open.
    fn send(addr: SocketAddr, bytes: &[u8]) -> TcpStream {
        let mut stream = TcpStream::connect(addr).expect("connect to frontend");
        stream.write_all(bytes).unwrap();
        stream
    }

    /// Everything the front writes before it closes the connection.
    fn read_response(mut stream: TcpStream) -> String {
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    /// Write a GET for `path`; the connection stays open.
    fn get(addr: SocketAddr, path: &str) -> TcpStream {
        let req = format!("GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
        send(addr, req.as_bytes())
    }

    /// Blocking one-shot HTTP GET against the front.
    fn http_get(addr: SocketAddr, path: &str) -> String {
        read_response(get(addr, path))
    }

    /// Send a query and hold its connection open, returning once the front
    /// holds `depth` arrivals: handlers run on per-connection threads, so
    /// waiting for each request to land pins the queue order.
    fn queue_request(fe: &Frontend, path: &str, depth: usize) -> TcpStream {
        let stream = get(fe.addr(), path);
        wait_for(|| fe.stats().depth == depth);
        stream
    }

    /// The one arrival queued, taken without waiting.
    fn only(fe: &Frontend) -> Arrival {
        let batch = fe.drain_batch(Duration::ZERO);
        let [a]: [Arrival; 1] = batch.try_into().expect("exactly one arrival queued");
        a
    }

    /// Spin until `cond` holds (bounded) — accept-thread effects are async.
    fn wait_for(mut cond: impl FnMut() -> bool) {
        for _ in 0..500 {
            if cond() {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        panic!("condition not reached within 1s");
    }

    #[test]
    fn healthz_stats_and_unknown_paths() {
        let fe = Frontend::start("127.0.0.1:0", FrontendConfig::new(4)).expect("bind");
        let ok = http_get(fe.addr(), "/healthz");
        assert!(ok.starts_with("HTTP/1.1 200 OK\r\n"), "{ok}");
        assert!(ok.ends_with("ok\n"), "{ok}");

        let stats = http_get(fe.addr(), "/stats");
        assert!(stats.contains("\"accepted\":0"), "{stats}");
        assert!(stats.contains("\"depth\":0"), "{stats}");

        let missing = http_get(fe.addr(), "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

        // Bad query indices and malformed request lines are 400s.
        let bad = http_get(fe.addr(), "/query/99");
        assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");
        let worse = http_get(fe.addr(), "/query/banana");
        assert!(worse.starts_with("HTTP/1.1 400"), "{worse}");
        let out = read_response(send(fe.addr(), b"BLAH\r\n\r\n"));
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");
        wait_for(|| fe.stats().rejected == 3);
        fe.shutdown();
    }

    #[test]
    fn queue_bounds_and_load_shedding() {
        // Depth target 2: the first two requests queue (responses deferred),
        // the third is shed with 503 + Retry-After while the queue is full.
        let cfg = FrontendConfig {
            shed_depth: 2,
            ..FrontendConfig::new(8)
        };
        let fe = Frontend::start("127.0.0.1:0", cfg).expect("bind");

        let open = [
            queue_request(&fe, "/query/0", 1),
            queue_request(&fe, "/query/1", 2),
        ];

        let shed = http_get(fe.addr(), "/query/2");
        assert!(shed.starts_with("HTTP/1.1 503"), "{shed}");
        assert!(shed.contains("Retry-After: 1"), "{shed}");
        assert_eq!(fe.stats().shed, 1);
        assert_eq!(fe.stats().accepted, 2);
        assert_eq!(fe.stats().depth, 2, "shed request must not grow the queue");

        // Drain and answer the two queued arrivals; their clients get the
        // deferred responses.
        let batch = fe.drain_batch(Duration::ZERO);
        let queries: Vec<usize> = batch.iter().map(|a| a.query).collect();
        assert_eq!(queries, [0, 1], "FIFO queue order");
        for (want, a) in batch.into_iter().enumerate() {
            a.responder.ok_json(&format!("{{\"query\":{want}}}\n"));
        }
        assert!(fe.drain_batch(Duration::ZERO).is_empty());
        for (i, s) in open.into_iter().enumerate() {
            let out = read_response(s);
            assert!(out.starts_with("HTTP/1.1 200 OK"), "{out}");
            assert!(out.contains(&format!("\"query\":{i}")), "{out}");
        }

        // Capacity freed: the next request is accepted again.
        let s = queue_request(&fe, "/query/3", 1);
        only(&fe)
            .responder
            .error("500 Internal Server Error", "sorry\n");
        let out = read_response(s);
        assert!(out.starts_with("HTTP/1.1 500"), "{out}");

        fe.shutdown();
    }

    #[test]
    fn idle_connections_do_not_stall_other_requests() {
        // Open several connections that never send a byte. With per-
        // connection handler threads, /healthz must still answer promptly;
        // the old serial accept loop would stall 500ms per read per idle
        // connection (≥2s here).
        let fe = Frontend::start("127.0.0.1:0", FrontendConfig::new(4)).expect("bind");
        let idlers: Vec<TcpStream> = (0..4)
            .map(|_| TcpStream::connect(fe.addr()).expect("connect idler"))
            .collect();
        let started = std::time::Instant::now();
        let ok = http_get(fe.addr(), "/healthz");
        assert!(ok.starts_with("HTTP/1.1 200 OK\r\n"), "{ok}");
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "healthz stalled {:?} behind idle connections",
            started.elapsed()
        );
        drop(idlers);
        fe.shutdown();
    }

    #[test]
    fn slow_clients_get_request_timeout() {
        // A client that trickles a partial request line and then stalls must
        // be answered 408 once the configured deadline expires (and counted
        // as rejected), rather than holding its handler thread forever.
        let cfg = FrontendConfig {
            read_deadline: Duration::from_millis(300),
            ..FrontendConfig::new(4)
        };
        let fe = Frontend::start("127.0.0.1:0", cfg).expect("bind");
        let out = read_response(send(fe.addr(), b"GET /heal")); // no CRLF, then silence
        assert!(out.starts_with("HTTP/1.1 408"), "{out}");
        wait_for(|| fe.stats().rejected == 1);
        fe.shutdown();
    }

    #[test]
    fn each_refusal_counts_once_and_a_404_never() {
        let cfg = FrontendConfig {
            tenants: 2,
            read_deadline: Duration::from_millis(200),
            ..FrontendConfig::new(4)
        };
        let fe = Frontend::start("127.0.0.1:0", cfg).expect("bind");
        // The count moves before the response is written, so each client
        // that has its answer can read the counters without waiting.
        let mut want = 0;
        for (what, status) in [
            (&b"BLAH\r\n\r\n"[..], "400"),
            (b"POST /query/0 HTTP/1.1\r\n\r\n", "400"),
            (b"GET /heal", "408"), // stalls past the deadline
        ] {
            let out = read_response(send(fe.addr(), what));
            assert!(out.starts_with(&format!("HTTP/1.1 {status}")), "{out}");
            want += 1;
            assert_eq!(fe.stats().rejected, want, "{out}");
        }
        // Ids that do not fit their integer are bad ids, not panics.
        for path in [
            "/t/4294967296/query/0",
            "/t/-1/stats",
            "/t/2/healthz",
            "/query/18446744073709551616",
            "/t/1/query/4",
            "/t/1/query/",
        ] {
            let out = http_get(fe.addr(), path);
            assert!(out.starts_with("HTTP/1.1 400"), "{path}: {out}");
            want += 1;
            assert_eq!(fe.stats().rejected, want, "{path}");
        }
        // Only a bad index gets as far as naming a tenant.
        assert_eq!(fe.shared.stats(Some(0)).rejected, 1);
        assert_eq!(fe.shared.stats(Some(1)).rejected, 2);
        let out = http_get(fe.addr(), "/t/2/stats");
        assert!(out.ends_with("this front serves 2 tenants\n"), "{out}");
        want += 1;
        for path in ["/nope", "/t/1/nope", "/health", "/query", "/t/0/health"] {
            let out = http_get(fe.addr(), path);
            assert!(out.starts_with("HTTP/1.1 404"), "{path}: {out}");
        }
        for path in ["/healthz", "/t/1/healthz", "/stats", "/t/1/stats"] {
            let out = http_get(fe.addr(), path);
            assert!(out.starts_with("HTTP/1.1 200"), "{path}: {out}");
        }
        assert_eq!(fe.stats().rejected, want, "a 404 or a 200 counted");
        assert_eq!((fe.stats().accepted, fe.stats().shed), (0, 0));
        fe.shutdown();

        // No tenants configured still serves tenant 0, and says so.
        let cfg = FrontendConfig {
            tenants: 0,
            ..FrontendConfig::new(4)
        };
        let fe = Frontend::start("127.0.0.1:0", cfg).expect("bind");
        let out = http_get(fe.addr(), "/t/0/stats");
        assert!(out.starts_with("HTTP/1.1 200"), "{out}");
        let out = http_get(fe.addr(), "/t/1/stats");
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");
        assert!(out.ends_with("this front serves 1 tenants\n"), "{out}");
        assert_eq!(fe.stats().rejected, 1);
        fe.shutdown();
    }

    #[test]
    fn a_head_written_line_by_line_is_answered() {
        // Answering on the request line alone would close the socket under
        // the client's later lines (bash's printf writes a line per write).
        let fe = Frontend::start("127.0.0.1:0", FrontendConfig::new(4)).expect("bind");
        let mut stream = TcpStream::connect(fe.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        for line in [
            "GET /healthz HTTP/1.1\r\n",
            "Host: ci\r\n",
            "Connection: close\r\n",
            "\r\n",
        ] {
            stream
                .write_all(line.as_bytes())
                .expect("no reset mid-head");
            std::thread::sleep(Duration::from_millis(5));
        }
        let out = read_response(stream);
        assert!(out.starts_with("HTTP/1.1 200 OK\r\n"), "{out}");
        assert!(out.ends_with("ok\n"), "{out}");
        fe.shutdown();
    }

    #[test]
    fn a_poisoned_queue_does_not_take_the_front_down() {
        let fe = Frontend::start("127.0.0.1:0", FrontendConfig::new(4)).expect("bind");
        fe.shared.health[0].set(Some("{\"tenant\":0}\n".to_owned()));
        let shared = Arc::clone(&fe.shared);
        let died = std::thread::spawn(move || {
            let _queue = shared.queue.lock().unwrap();
            shared.health[0].with(|_| {
                shared.metrics.with(|_| {
                    shared.slow.with(|_| {
                        shared
                            .flight
                            .with(|_| panic!("poisoning the queue and every cell on purpose"))
                    })
                })
            });
        })
        .join();
        assert!(died.is_err());
        assert!(fe.shared.queue.is_poisoned());

        for path in [
            "/healthz",
            "/stats",
            "/t/0/stats",
            "/t/0/health",
            "/metrics",
            "/metrics.json",
            "/debug/slow",
        ] {
            let out = http_get(fe.addr(), path);
            assert!(out.starts_with("HTTP/1.1 200 OK"), "{path}: {out}");
        }
        let flight = http_get(fe.addr(), "/debug/flight");
        assert!(flight.starts_with("HTTP/1.1 404"), "{flight}");
        fe.shared.flight.set(Some("[\n]\n".to_owned()));
        let flight = http_get(fe.addr(), "/debug/flight");
        assert!(flight.starts_with("HTTP/1.1 200 OK"), "{flight}");
        assert!(fe.drain_batch(Duration::from_millis(10)).is_empty());

        // A query still queues, drains and is answered...
        let served = queue_request(&fe, "/query/0", 1);
        let mut batch = fe.drain_batch(Duration::from_millis(10));
        assert_eq!(batch.len(), 1);
        batch.pop().unwrap().responder.ok_json("{\"query\":0}\n");
        let out = read_response(served);
        assert!(out.starts_with("HTTP/1.1 200 OK"), "{out}");

        // ...a drain without waiting pops, and shutdown answers what is left
        // queued.
        let _popped = queue_request(&fe, "/query/1", 1);
        assert_eq!(only(&fe).query, 1);
        let queued = queue_request(&fe, "/query/2", 1);
        fe.shutdown();
        let out = read_response(queued);
        assert!(out.starts_with("HTTP/1.1 503"), "{out}");
    }

    #[test]
    fn serves_published_snapshot_as_prometheus_text() {
        let fe = Frontend::start("127.0.0.1:0", FrontendConfig::new(4)).expect("bind");

        let mut h = pythia_obs::hist::Histogram::new();
        h.record(100);
        h.record(200);
        fe.shared.metrics.set(MetricsSnapshot {
            counters: vec![("reads.hit".into(), 41)],
            hists: vec![("server.admission_wait_us".into(), h.summary())],
        });

        let resp = http_get(fe.addr(), "/metrics");
        assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "{resp}");
        assert!(resp.contains("text/plain; version=0.0.4"));
        assert!(resp.contains("pythia_reads_hit 41\n"));
        assert!(resp.contains("pythia_server_admission_wait_us_count 2\n"));
        assert!(resp.contains("pythia_server_admission_wait_us{quantile=\"0.95\"}"));

        // Publishing again replaces what the next scrape sees.
        fe.shared.metrics.set(MetricsSnapshot {
            counters: vec![("reads.hit".into(), 42)],
            hists: vec![],
        });
        let resp = http_get(fe.addr(), "/metrics");
        assert!(resp.contains("pythia_reads_hit 42\n"));

        let json = http_get(fe.addr(), "/metrics.json");
        assert!(json.contains("application/json"));
        assert!(json.contains("{\"counters\":{\"reads.hit\":42}"));

        let missing = http_get(fe.addr(), "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
        // The process's routes are not a tenant's.
        let scoped = http_get(fe.addr(), "/t/0/metrics");
        assert!(scoped.starts_with("HTTP/1.1 404"), "{scoped}");

        // Default debug cells: /debug/slow answers an empty log and
        // /debug/flight the 404 it gives before any trigger.
        let slow = http_get(fe.addr(), "/debug/slow");
        assert!(slow.starts_with("HTTP/1.1 200 OK"), "{slow}");
        assert!(slow.contains("\"count\":0"), "{slow}");
        let flight = http_get(fe.addr(), "/debug/flight");
        assert!(flight.starts_with("HTTP/1.1 404"), "{flight}");
        assert!(flight.contains("no flight dump captured yet"), "{flight}");

        fe.shutdown();
    }

    #[test]
    fn serves_debug_flight_and_slow_routes() {
        use pythia_obs::request::RequestBreakdown;

        let fe = Frontend::start("127.0.0.1:0", FrontendConfig::new(4)).expect("bind");

        fe.shared.slow.with(|log| {
            log.offer(RequestBreakdown {
                request: 3,
                replay_us: 500,
                ..RequestBreakdown::default()
            })
        });
        fe.shared.flight.set(Some(
            "[\n{\"ph\":\"i\",\"pid\":1,\"tid\":0,\"ts\":1,\"s\":\"t\",\"cat\":\"c\",\"name\":\"e\",\"args\":{}}\n]\n".to_owned(),
        ));
        let flight = http_get(fe.addr(), "/debug/flight");
        assert!(flight.starts_with("HTTP/1.1 200 OK"), "{flight}");
        assert!(flight.contains("application/json"), "{flight}");
        assert!(flight.contains("\"name\":\"e\""), "{flight}");
        let slow = http_get(fe.addr(), "/debug/slow");
        assert!(slow.contains("\"request\":3"), "{slow}");
        assert!(slow.contains("\"latency_us\":500"), "{slow}");

        fe.shutdown();
    }

    #[test]
    fn shutdown_answers_in_queue_requests_with_503() {
        // A request still sitting in the queue when the front shuts down must
        // get an answer, not a silently dropped connection.
        let fe = Frontend::start("127.0.0.1:0", FrontendConfig::new(4)).expect("bind");
        let queued = queue_request(&fe, "/query/1", 1);
        fe.shutdown();
        let out = read_response(queued);
        assert!(out.starts_with("HTTP/1.1 503"), "{out}");
        assert!(out.contains("shutting down"), "{out}");
    }

    #[test]
    fn tenant_routes_attribute_queries_and_scope_stats() {
        let cfg = FrontendConfig {
            tenants: 2,
            ..FrontendConfig::new(8)
        };
        let fe = Frontend::start("127.0.0.1:0", cfg).expect("bind");

        // Legacy unprefixed routes act as tenant 0; /t/1/... routes to
        // tenant 1. Hold the streams open so the arrivals stay queued.
        let open = [
            queue_request(&fe, "/query/1", 1),
            queue_request(&fe, "/t/1/query/2", 2),
        ];

        let batch = fe.drain_batch(Duration::ZERO);
        let routed: Vec<(usize, u32)> = batch.iter().map(|a| (a.query, a.tenant)).collect();
        assert_eq!(routed, [(1, 0), (2, 1)], "FIFO queue order");
        for a in batch {
            a.responder.ok_json("{}\n");
        }
        drop(open);

        // Scoped stats slice the per-tenant counters; the global /stats keeps
        // the totals.
        let t0 = http_get(fe.addr(), "/t/0/stats");
        assert!(t0.contains("\"accepted\":1"), "{t0}");
        let t1 = http_get(fe.addr(), "/t/1/stats");
        assert!(t1.contains("\"accepted\":1"), "{t1}");
        let all = http_get(fe.addr(), "/stats");
        assert!(all.contains("\"accepted\":2"), "{all}");
        assert_eq!(fe.shared.stats(Some(0)).accepted, 1);
        assert_eq!(fe.shared.stats(Some(1)).accepted, 1);

        // Out-of-range or malformed tenant ids are 400s.
        let bad = http_get(fe.addr(), "/t/9/query/1");
        assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");
        let worse = http_get(fe.addr(), "/t/x/stats");
        assert!(worse.starts_with("HTTP/1.1 400"), "{worse}");
        let trunc = http_get(fe.addr(), "/t/1");
        assert!(trunc.starts_with("HTTP/1.1 400"), "{trunc}");
        wait_for(|| fe.stats().rejected == 3);

        // A bad query index on a tenant route is attributed to that tenant.
        let badq = http_get(fe.addr(), "/t/1/query/99");
        assert!(badq.starts_with("HTTP/1.1 400"), "{badq}");
        wait_for(|| fe.shared.stats(Some(1)).rejected == 1);

        fe.shutdown();
    }

    #[test]
    fn a_head_finished_after_shutdown_is_refused_not_dropped() {
        // Handler threads are detached: one can still be reading its head
        // when `shutdown` drains the queue. Its query must find the queue
        // closed and be answered, not queued for a pump that has gone.
        let fe = Frontend::start("127.0.0.1:0", FrontendConfig::new(4)).expect("bind");
        let mut late = send(fe.addr(), b"GET /query/1 HT");
        // Accepts are in connection order: once a later connection has its
        // answer, a handler holds `late`.
        let ok = http_get(fe.addr(), "/healthz");
        assert!(ok.starts_with("HTTP/1.1 200 OK"), "{ok}");
        fe.shutdown();
        late.write_all(b"TP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let out = read_response(late);
        assert!(out.starts_with("HTTP/1.1 503"), "{out:?}");
        assert!(out.contains("shutting down"), "{out}");
    }

    /// A table big enough for the traces below, and a plan to name in
    /// requests (no predictor reads it).
    fn socket_db() -> (Database, PlanNode) {
        let mut db = Database::new();
        let t = db.create_table("t", Schema::ints(&["a"]));
        for i in 0..20_000i64 {
            db.insert(t, &Database::row([i]));
        }
        let plan = PlanNode::SeqScan {
            table: t,
            pred: None,
        };
        (db, plan)
    }

    /// `n` scattered heap reads: 2 000 make a whale, 5 a minnow.
    fn reads(n: u32) -> Trace {
        (0..n)
            .map(|i| TraceEvent::Read {
                obj: pythia_db::catalog::ObjectId(0),
                page: PageId::new(FileId(0), (i * 37) % 10_000),
                kind: AccessKind::HeapFetch,
            })
            .collect()
    }

    /// Tenant `id`: a predictor-less server with two replay slots over `db`,
    /// and one catalog entry per trace.
    fn tenant<'d>(
        db: &'d Database,
        plan: &'d PlanNode,
        traces: &'d [Trace],
        id: u32,
    ) -> Tenant<'d> {
        let cfg = ServerConfig {
            concurrency: 2,
            charge: InferenceCharge::Fixed(SimDuration::ZERO),
            ..ServerConfig::default()
        };
        Tenant {
            server: PrefetchServer::new(db, &RunConfig::default(), cfg),
            catalog: traces
                .iter()
                .map(|t| ServerRequest::new(plan, t, SimDuration::ZERO).with_tenant(id))
                .collect(),
        }
    }

    /// Start a front, queue `paths` on it in order, ask it to stop, and pump
    /// `tenants` on this thread: the first turn reads the flag, then drains,
    /// so everything queued is served before the pump returns. Yields the
    /// front, the `(tenant, query)` pairs in the order `on_answer` saw them,
    /// and each client's response.
    fn pump_queued(
        cfg: FrontendConfig,
        tenants: &mut [Tenant<'_>],
        paths: &[&str],
    ) -> (Frontend, Vec<(usize, usize)>, Vec<String>) {
        let fe = Frontend::start("127.0.0.1:0", cfg).expect("bind");
        let clients: Vec<TcpStream> = (paths.iter().zip(1..))
            .map(|(path, depth)| queue_request(&fe, path, depth))
            .collect();
        http_get(fe.addr(), "/shutdown");
        let mut answered = Vec::new();
        pump(&fe, tenants, |t, query, _| answered.push((t, query)));
        let bodies = clients.into_iter().map(read_response).collect();
        (fe, answered, bodies)
    }

    fn statuses(bodies: &[String]) -> Vec<&str> {
        bodies
            .iter()
            .map(|b| &b["HTTP/1.1 ".len()..][..3])
            .collect()
    }

    /// A numeric field of an [`outcome_json`] body.
    fn field(resp: &str, name: &str) -> u64 {
        let rest = &resp[resp.find(name).expect("field") + name.len()..];
        rest[..rest.find([',', '}']).expect("delimiter")]
            .parse()
            .expect("number")
    }

    #[test]
    fn end_to_end_socket_serving_through_one_session() {
        // A real (tiny) catalog served over the socket: request → queue →
        // drain_batch → submit → poll_completion → JSON outcome on the wire.
        let (db, plan) = socket_db();
        let traces: Vec<Trace> = (0..3)
            .map(|_| pythia_db::exec::execute(&plan, &db).1)
            .collect();

        let fe = Frontend::start("127.0.0.1:0", FrontendConfig::new(traces.len())).expect("bind");
        let addr = fe.addr();
        std::thread::scope(|scope| {
            // A closed-loop client needs the pump running beside it; a
            // server stays on the thread that built it.
            let pump = scope.spawn(|| {
                let mut answered = Vec::new();
                let mut tenants = [tenant(&db, &plan, &traces, 0)];
                pump(&fe, &mut tenants, |_, query, _| answered.push(query));
                answered
            });

            let resp = http_get(addr, "/query/1");
            assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
            assert!(resp.contains("application/json"), "{resp}");
            assert!(resp.contains("\"query\":1"), "{resp}");
            assert!(resp.contains("\"latency_us\":"), "{resp}");
            assert!(resp.contains("\"admission\":0"), "{resp}");
            // The outcome carries the front-end-minted trace id and the
            // queue/admission/inference/replay breakdown.
            assert!(resp.contains("\"request\":"), "{resp}");
            assert!(
                !resp.contains("\"request\":0,"),
                "minted id is never 0: {resp}"
            );
            for field in [
                "\"queue_us\":",
                "\"admission_us\":",
                "\"infer_us\":",
                "\"replay_us\":",
            ] {
                assert!(resp.contains(field), "missing {field} in {resp}");
            }
            // The session outlives the request: the next one is its second
            // admission and arrives where the first one ended.
            let next = http_get(addr, "/query/2");
            assert!(next.contains("\"admission\":1"), "{next}");
            assert_eq!(field(&next, "\"arrival_us\":"), field(&resp, "\"end_us\":"));

            let bye = http_get(addr, "/shutdown");
            assert!(bye.starts_with("HTTP/1.1 200"), "{bye}");
            assert_eq!(pump.join().expect("pump"), [1, 2]);
        });
        assert_eq!(fe.stats().accepted, 2);
        fe.shutdown();
    }

    #[test]
    fn a_minnow_queued_behind_a_whale_is_answered_first() {
        // Two clients, the whale's request ahead of the minnow's in the
        // queue. Both are submitted to the one session, the minnow replays in
        // the second slot and its client hears back first. (Served as one
        // closed batch, neither was answered before the whale had finished.)
        let (db, plan) = socket_db();
        let traces = [reads(2_000), reads(5)];
        let mut tenants = [tenant(&db, &plan, &traces, 0)];
        let (fe, answered, bodies) = pump_queued(
            FrontendConfig::new(2),
            &mut tenants,
            &["/query/0", "/query/1"],
        );
        assert_eq!(answered, [(0, 1), (0, 0)], "the minnow was answered first");
        assert_eq!(statuses(&bodies), ["200", "200"]);
        assert!(bodies[0].contains("\"query\":0") && bodies[1].contains("\"query\":1"));
        fe.shutdown();
    }

    #[test]
    fn a_tenants_backlog_delays_no_other_tenants_answer() {
        // Tenant 0 has a whale and a minnow queued, tenant 1 a minnow behind
        // both. A turn answers one completion per tenant: tenant 1's minnow
        // goes out in the first, with tenant 0's — not after tenant 0's
        // backlog. Each session counts its own admissions and keeps its own
        // clock: tenant 1's first is ordinal 0, waited for nobody, and ended
        // long before the whale did.
        let (db, plan) = socket_db();
        let traces = [reads(2_000), reads(5)];
        let mut tenants = [0, 1].map(|id| tenant(&db, &plan, &traces, id));
        tenants[0]
            .server
            .set_recorder(pythia_obs::Recorder::bounded());
        let cfg = FrontendConfig {
            tenants: 2,
            ..FrontendConfig::new(2)
        };
        let paths = ["/t/0/query/0", "/t/0/query/1", "/t/1/query/1"];
        let (fe, answered, bodies) = pump_queued(cfg, &mut tenants, &paths);
        assert_eq!(answered, [(0, 1), (1, 1), (0, 0)]);
        assert_eq!(statuses(&bodies), ["200", "200", "200"]);
        let [whale, minnow0, minnow1] = &bodies[..] else {
            unreachable!()
        };
        assert!(whale.contains("\"admission\":0"), "{whale}");
        assert!(minnow0.contains("\"admission\":1"), "{minnow0}");
        assert!(minnow1.contains("\"admission\":0"), "{minnow1}");
        assert_eq!(field(minnow1, "\"queue_us\":"), 0, "{minnow1}");
        assert!(field(minnow1, "\"end_us\":") < field(whale, "\"end_us\":"));
        // Every answer reached the slow log, whichever tenant gave it...
        let slow = http_get(fe.addr(), "/debug/slow");
        assert!(slow.contains("\"count\":3"), "{slow}");
        for body in &bodies {
            let id = field(body, "\"request\":");
            assert!(slow.contains(&format!("\"request\":{id},")), "{id}: {slow}");
        }
        // ...and /metrics is the first tenant's recorder: its two answers.
        let metrics = http_get(fe.addr(), "/metrics");
        assert!(
            metrics.contains("\npythia_server_completions 2\n"),
            "{metrics}"
        );
        fe.shutdown();
    }

    #[test]
    fn shutdown_serves_what_was_accepted_settles_and_refuses_the_rest() {
        let (db, plan) = socket_db();
        let traces = [reads(50), reads(5), reads(20)];
        let mut tenants = [tenant(&db, &plan, &traces, 0)];
        let paths = ["/query/0", "/query/1", "/query/2"];
        let (fe, mut answered, bodies) = pump_queued(FrontendConfig::new(3), &mut tenants, &paths);
        // Accepted before `/shutdown`: served, each exactly once.
        answered.sort_unstable();
        assert_eq!(answered, [(0, 0), (0, 1), (0, 2)]);
        assert_eq!(statuses(&bodies), ["200", "200", "200"]);
        // Every session was finished: that is what moves the stack's clock
        // past the last completion.
        let last_end = bodies.iter().map(|b| field(b, "\"end_us\":")).max();
        assert!(tenants[0].server.runtime().now().as_micros() >= last_end.unwrap());
        assert!(last_end > Some(0));

        // The pump is gone; what arrives now is `Frontend::shutdown`'s.
        let late = queue_request(&fe, "/query/0", 1);
        fe.shutdown();
        assert_eq!(statuses(&[read_response(late)]), ["503"]);
    }

    #[test]
    fn the_pump_looks_up_what_the_wire_names() {
        // The front admits `/t/<0..2>/query/<0..3>`; the pump was given one
        // tenant with two queries. What it cannot find is a 404 — not an
        // index out of bounds — and the next request is served.
        let (db, plan) = socket_db();
        let traces = [reads(5), reads(5)];
        let mut tenants = [tenant(&db, &plan, &traces, 0)];
        let cfg = FrontendConfig {
            tenants: 2,
            ..FrontendConfig::new(3)
        };
        let paths = ["/query/2", "/query/1", "/t/1/query/0", "/t/0/query/0"];
        let (fe, answered, bodies) = pump_queued(cfg, &mut tenants, &paths);
        assert_eq!(statuses(&bodies), ["404", "200", "404", "200"]);
        assert_eq!(answered, [(0, 1), (0, 0)]);
        assert_eq!(fe.stats().accepted, 4, "the front had accepted all four");
        fe.shutdown();

        // No tenants at all: nothing to serve, and `/shutdown` still ends it.
        let (fe, answered, bodies) = pump_queued(cfg, &mut [], &["/query/0"]);
        assert_eq!((answered, statuses(&bodies)), (vec![], vec!["404"]));
        fe.shutdown();
    }

    #[test]
    fn a_shed_burst_fires_the_first_tenants_flight_recorder() {
        let (db, plan) = socket_db();
        let traces = [reads(5)];
        for (sheds, triggers) in [(7, 0), (8, 1)] {
            let mut tenants = [tenant(&db, &plan, &traces, 0)];
            tenants[0]
                .server
                .set_recorder(pythia_obs::Recorder::bounded());
            let cfg = FrontendConfig {
                shed_depth: 1,
                ..FrontendConfig::new(1)
            };
            let fe = Frontend::start("127.0.0.1:0", cfg).expect("bind");
            // One request fills the queue; the rest are shed before the
            // pump's first drain.
            let held = queue_request(&fe, "/query/0", 1);
            for _ in 0..sheds {
                let out = http_get(fe.addr(), "/query/0");
                assert!(out.starts_with("HTTP/1.1 503"), "{out}");
            }
            http_get(fe.addr(), "/shutdown");
            pump(&fe, &mut tenants, |_, _, _| {});
            assert!(read_response(held).starts_with("HTTP/1.1 200 OK"));
            assert_eq!(
                tenants[0].server.recorder().counter("flight.triggers"),
                triggers,
                "{sheds} newly shed requests between two drains"
            );
            // The pump gave the recorder the front's flight cell.
            let flight = http_get(fe.addr(), "/debug/flight");
            if triggers == 0 {
                assert!(flight.starts_with("HTTP/1.1 404"), "{flight}");
            } else {
                assert!(flight.starts_with("HTTP/1.1 200 OK"), "{flight}");
                let body = body(&flight);
                assert!(body.starts_with("[\n") && body.ends_with("]\n"), "{body}");
                assert!(body.contains("\"name\":\"flight.trigger\""), "{body}");
            }
            fe.shutdown();
        }
    }

    /// Requests `/shutdown` when dropped; a failure to reach the front is
    /// ignored, since a panic here would abort an unwinding test.
    struct StopOnDrop(SocketAddr);

    impl Drop for StopOnDrop {
        fn drop(&mut self) {
            if let Ok(mut stream) = TcpStream::connect(self.0) {
                let _ = stream.write_all(b"GET /shutdown HTTP/1.1\r\n\r\n");
                let _ = stream.read_to_end(&mut Vec::new());
            }
        }
    }

    /// What follows the head of a response.
    fn body(resp: &str) -> &str {
        &resp[resp.find("\r\n\r\n").expect("head") + 4..]
    }

    #[test]
    fn the_pump_publishes_each_tracked_tenants_health() {
        // Tenant 1 serves from a registry fleet and keeps a quality tracker;
        // tenant 0 keeps none. A twin of tenant 1's server, sent the same
        // requests one at a time, holds the tracker the pump's copy held
        // when it answered each of them.
        let (db, plan) = socket_db();
        let traces = [reads(50), reads(5), reads(20)];
        let fleet = Arc::new(TenantFleet::new());
        let cfg = PythiaConfig {
            epochs: 1,
            ..PythiaConfig::fast()
        };
        let plans = [plan.clone(), plan.clone()];
        let version = fleet.publish(train_workload(
            &db,
            "socket",
            &plans,
            &traces[..2],
            None,
            &cfg,
        ));
        let tracked = || {
            let mut t = tenant(&db, &plan, &traces, 1);
            t.server = (t.server)
                .with_registry(Arc::clone(&fleet))
                .with_quality(QualityTracker::default());
            t
        };
        let expected = |server: &PrefetchServer<'_>| {
            let quality = server.quality().expect("tenant 1 keeps a tracker");
            quality.health_json(1, Some(version))
        };
        let cfg = FrontendConfig {
            tenants: 2,
            ..FrontendConfig::new(traces.len())
        };
        let fe = Frontend::start("127.0.0.1:0", cfg).expect("bind");
        let addr = fe.addr();
        let health = || http_get(addr, "/t/1/health");
        let mut twin = tracked();
        let mut session = twin.server.session();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut tenants = [tenant(&db, &plan, &traces, 0), tracked()];
                pump(&fe, &mut tenants, |_, _, _| {});
            });
            // Stops the pump however this closure ends, so a failed check
            // fails the test instead of leaving the scope waiting on the pump.
            let _stop = StopOnDrop(addr);
            // Published at the start, before any request.
            wait_for(|| health().starts_with("HTTP/1.1 200 OK"));
            assert_eq!(body(&health()), expected(&twin.server));
            for path in [
                "/t/1/query/0",
                "/t/0/query/2",
                "/t/1/query/1",
                "/t/1/query/2",
            ] {
                let resp = http_get(addr, path);
                assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
                if let Some(query) = path.strip_prefix("/t/1/query/") {
                    session.submit(twin.catalog[query.parse::<usize>().unwrap()]);
                    let (_, o) = session.poll_completion(&mut twin.server).expect("served");
                    assert_eq!(field(&resp, "\"end_us\":"), o.end.as_micros());
                }
                let resp = health();
                assert!(resp.contains("application/json"), "{resp}");
                assert_eq!(body(&resp), expected(&twin.server), "after {path}");
            }
            let untracked = http_get(addr, "/t/0/health");
            assert!(untracked.starts_with("HTTP/1.1 404"), "{untracked}");
            let bad = http_get(addr, "/t/9/health");
            assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");
            // `/health` without a tenant prefix is not a route.
            let unscoped = http_get(addr, "/health");
            assert!(unscoped.starts_with("HTTP/1.1 404"), "{unscoped}");
            assert!(unscoped.contains("/t/<tenant>/health"), "{unscoped}");
        });
        // Published once more after the sessions finish: the tail interval
        // is the third observation.
        session.finish(&mut twin.server);
        let last = health();
        assert_eq!(body(&last), expected(&twin.server));
        assert!(last.contains("\"observations\":3,"), "{last}");
        fe.shutdown();
    }
}
