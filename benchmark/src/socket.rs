//! The two socket workloads: the real composition root (`serve_demo`) as a
//! child process, driven by one closed-loop client over fresh connections.
//!
//! One client, not two: this container's two vCPUs do not run in parallel at
//! a steady rate (two busy processes each drop to about a quarter speed, and
//! now and then they do not), so anything concurrent measures the host's
//! mood. A single client and the child take turns on the CPU.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use pythia::obs::diff::{parse_json, Json};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::procfs;
use crate::spans::{Span, Tracer};
use crate::stats;

/// How long any single wait on the child may take before the run fails.
const CHILD_TIMEOUT: Duration = Duration::from_secs(60);

/// Which `serve_demo` a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flavor {
    pub train: bool,
    pub tenants: usize,
}

impl Flavor {
    /// `socket_trained`: one tenant with a trained predictor.
    pub const TRAINED: Flavor = Flavor {
        train: true,
        tenants: 1,
    };
    /// `socket_dflt`: two tenants, no predictor.
    pub const DFLT: Flavor = Flavor {
        train: false,
        tenants: 2,
    };

    /// The same tenants with the predictor switched the other way: the
    /// reference the virtual-time speedup is taken against.
    pub fn reference(self) -> Flavor {
        Flavor {
            train: !self.train,
            ..self
        }
    }
}

/// `serve_demo` sits next to this executable (both are bins of one package).
pub fn serve_demo_path() -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let path = exe.with_file_name("serve_demo");
    if path.is_file() {
        Ok(path)
    } else {
        Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("{} not found; build with benchmark/run.sh", path.display()),
        ))
    }
}

/// A running `serve_demo`. Dropping it kills and reaps the process.
pub struct Demo {
    child: Child,
    pub addr: SocketAddr,
    /// Queries in each tenant's catalog (from the child's banner).
    pub catalog: usize,
    /// Spawn → `listening on` line.
    pub startup_s: f64,
    lines: mpsc::Receiver<String>,
    reader: Option<std::thread::JoinHandle<()>>,
}

fn bad(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

impl Demo {
    pub fn spawn(exe: &Path, flavor: Flavor) -> std::io::Result<Demo> {
        let mut cmd = Command::new(exe);
        cmd.args(["--tenants", &flavor.tenants.to_string()]);
        if flavor.train {
            cmd.arg("--train");
        }
        // The demo logs one line per served batch to stderr; nobody reads it.
        cmd.stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        let t0 = Instant::now();
        let mut child = cmd.spawn()?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let (tx, lines) = mpsc::channel();
        // Ends when the child closes its stdout, i.e. when it exits.
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                let _ = tx.send(line);
            }
        });
        // Owned from here on, so that an early return below still kills and
        // reaps the child (see `Drop`); address and catalog follow.
        let mut demo = Demo {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            catalog: 0,
            startup_s: 0.0,
            lines,
            reader: Some(reader),
        };
        let listening = demo.wait_line("serve_demo listening on http://")?;
        demo.startup_s = t0.elapsed().as_secs_f64();
        demo.addr = listening
            .rsplit("http://")
            .next()
            .and_then(|a| a.trim().parse().ok())
            .ok_or_else(|| bad(format!("no address in {listening:?}")))?;
        let banner = demo.wait_line("catalog: ")?;
        demo.catalog = banner
            .trim()
            .strip_prefix("catalog: ")
            .and_then(|r| r.split_whitespace().next())
            .and_then(|n| n.parse().ok())
            .filter(|&n| n > 0)
            .ok_or_else(|| bad(format!("no catalog size in {banner:?}")))?;
        Ok(demo)
    }

    /// Next stdout line containing `needle`.
    fn wait_line(&mut self, needle: &str) -> std::io::Result<String> {
        let deadline = Instant::now() + CHILD_TIMEOUT;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.lines.recv_timeout(left) {
                Ok(line) if line.contains(needle) => return Ok(line),
                Ok(_) => {}
                Err(_) => return Err(bad(format!("serve_demo never printed {needle:?}"))),
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `GET /shutdown`, wait for a clean exit, and return the `accepted`
    /// count the demo prints on its way out.
    pub fn shutdown(mut self) -> std::io::Result<u64> {
        let reply = http_get(self.addr, "/shutdown")?;
        if reply.status != 200 {
            return Err(bad(format!("/shutdown answered {}", reply.status)));
        }
        let done = self.wait_line("serve_demo done: accepted ")?;
        let accepted = done
            .split_whitespace()
            .nth(3)
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| bad(format!("no accepted count in {done:?}")))?;
        let deadline = Instant::now() + CHILD_TIMEOUT;
        loop {
            match self.child.try_wait()? {
                Some(status) if status.success() => return Ok(accepted),
                Some(status) => return Err(bad(format!("serve_demo exited with {status}"))),
                None if Instant::now() > deadline => {
                    return Err(bad("serve_demo did not exit after /shutdown".to_owned()))
                }
                None => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }
}

impl Drop for Demo {
    fn drop(&mut self) {
        // Already reaped after a clean shutdown; otherwise make sure nothing
        // outlives the benchmark.
        if matches!(self.child.try_wait(), Ok(None) | Err(_)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// One HTTP/1.0 exchange over a fresh connection, with its wall-clock marks.
pub struct Reply {
    pub status: u16,
    pub body: String,
    /// connect start, connected, request written, first byte, last byte.
    pub marks: [Instant; 5],
}

pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<Reply> {
    let t0 = Instant::now();
    let mut stream = TcpStream::connect_timeout(&addr, CHILD_TIMEOUT)?;
    stream.set_read_timeout(Some(CHILD_TIMEOUT))?;
    stream.set_nodelay(true)?;
    let t1 = Instant::now();
    stream.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())?;
    let t2 = Instant::now();
    let mut raw = Vec::with_capacity(512);
    let mut first = [0u8; 1];
    stream.read_exact(&mut first)?;
    let t3 = Instant::now();
    raw.push(first[0]);
    stream.read_to_end(&mut raw)?;
    let t4 = Instant::now();
    let text = String::from_utf8_lossy(&raw);
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(format!("no status line in {:?}", text.lines().next())))?;
    let body = text
        .split_once("\r\n\r\n")
        .map_or("", |(_, b)| b)
        .to_owned();
    Ok(Reply {
        status,
        body,
        marks: [t0, t1, t2, t3, t4],
    })
}

fn json_u64(obj: &Json, key: &str) -> Option<u64> {
    match obj {
        Json::Obj(fields) => fields.iter().find_map(|(k, v)| match v {
            Json::Num(n) if k == key => Some(*n),
            _ => None,
        }),
        _ => None,
    }
}

/// One request of a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    pub tenant: usize,
    pub query: usize,
}

impl Request {
    fn path(&self, flavor: Flavor) -> String {
        if flavor.tenants > 1 {
            format!("/t/{}/query/{}", self.tenant, self.query)
        } else {
            format!("/query/{}", self.query)
        }
    }
}

/// The seeded request sequence of one pass: tenants alternate, queries are
/// drawn uniformly from the catalog.
pub fn request_sequence(n: usize, flavor: Flavor, catalog: usize, seed: u64) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| Request {
            tenant: i % flavor.tenants,
            query: rng.gen_range(0..catalog),
        })
        .collect()
}

/// What one pass against one child measured.
pub struct Pass {
    pub startup_s: f64,
    pub wall_s: f64,
    pub sent: usize,
    /// Non-200, socket error, unparsable body or wrong `query` echoed.
    pub failed: usize,
    /// Wall latency connect → last byte of each good request, in request
    /// order (`NaN` where the request failed).
    pub latency_ms: Vec<f64>,
    /// Virtual latency the response reported, same indexing.
    pub virt_latency_ms: Vec<f64>,
    pub rss_start_kb: u64,
    pub rss_end_kb: u64,
    pub peak_rss_kb: u64,
    pub threads_peak: u64,
    /// `accepted` the child reported at exit.
    pub accepted: u64,
    pub spans: Vec<Span>,
}

impl Pass {
    pub fn good(xs: &[f64]) -> Vec<f64> {
        xs.iter().copied().filter(|x| !x.is_nan()).collect()
    }

    pub fn qps(&self) -> f64 {
        (self.sent - self.failed) as f64 / self.wall_s
    }
}

/// Requests between two looks at the child's thread count.
const THREAD_SAMPLE_EVERY: usize = 64;

/// Spawn a child, send it `requests` one after another (a closed loop of
/// one client: the next request leaves when the reply is in), shut it down.
/// With `trace` on, every request leaves a `request` span with
/// `client.connect/write/wait/read` children.
pub fn run_pass(
    exe: &Path,
    flavor: Flavor,
    requests: &dyn Fn(usize) -> Vec<Request>,
    trace: Option<Instant>,
) -> std::io::Result<Pass> {
    let demo = Demo::spawn(exe, flavor)?;
    let requests = requests(demo.catalog);
    let (addr, pid) = (demo.addr, demo.pid());
    let rss_start_kb = procfs::status_of(pid)?.vm_rss_kb;

    let n = requests.len();
    let mut latency_ms = vec![f64::NAN; n];
    let mut virt_latency_ms = vec![f64::NAN; n];
    let mut threads_peak = 0;
    let started = Instant::now();
    let origin = trace.unwrap_or(started);
    let mut tracer = Tracer::new(origin, 1, trace.is_some());
    for (i, req) in requests.iter().enumerate() {
        if i % THREAD_SAMPLE_EVERY == 0 {
            threads_peak = threads_peak.max(procfs::status_of(pid)?.threads);
        }
        let ok = http_get(addr, &req.path(flavor)).ok().and_then(|r| {
            let body = parse_json(r.body.trim()).ok()?;
            let virt_us = json_u64(&body, "latency_us")?;
            (r.status == 200 && json_u64(&body, "query") == Some(req.query as u64))
                .then_some((r.marks, virt_us))
        });
        if let Some((m, virt_us)) = ok {
            let ns = |t: Instant| t.duration_since(origin).as_nanos() as u64;
            let id = i as u64 + 1;
            let parent = tracer.push("request", ns(m[0]), ns(m[4]), None, id);
            tracer.push("client.connect", ns(m[0]), ns(m[1]), parent, id);
            tracer.push("client.write", ns(m[1]), ns(m[2]), parent, id);
            tracer.push("client.wait", ns(m[2]), ns(m[3]), parent, id);
            tracer.push("client.read", ns(m[3]), ns(m[4]), parent, id);
            latency_ms[i] = m[4].duration_since(m[0]).as_secs_f64() * 1e3;
            virt_latency_ms[i] = virt_us as f64 / 1e3;
        }
    }
    let wall_s = started.elapsed().as_secs_f64();

    let status = procfs::status_of(pid)?;
    let startup_s = demo.startup_s;
    let accepted = demo.shutdown()?;
    Ok(Pass {
        startup_s,
        wall_s,
        sent: n,
        failed: latency_ms.iter().filter(|x| x.is_nan()).count(),
        latency_ms,
        virt_latency_ms,
        rss_start_kb,
        rss_end_kb: status.vm_rss_kb,
        peak_rss_kb: status.vm_hwm_kb,
        threads_peak,
        accepted,
        spans: tracer.into_spans(),
    })
}

/// Everything one `socket_*` run measured.
pub struct SocketResult {
    pub passes: Vec<Pass>,
    pub reference: Pass,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub virt_latency_speedup: f64,
}

impl SocketResult {
    /// One value per pass.
    pub fn per_pass(&self, f: impl Fn(&Pass) -> f64) -> Vec<f64> {
        self.passes.iter().map(f).collect()
    }

    /// One per-request series of every pass, good requests only, pooled.
    pub fn pooled(&self, series: impl Fn(&Pass) -> &Vec<f64>) -> Vec<f64> {
        self.passes
            .iter()
            .flat_map(|p| Pass::good(series(p)))
            .collect()
    }
}

/// Run one `socket_*` workload: fresh child per pass (a child's memory
/// grows with every request it has served, so a pass is a fixed request
/// count), passes until `seconds` are used, then a short reference pass
/// against the opposite kind of child for the virtual-time speedup.
pub fn run(
    exe: &Path,
    flavor: Flavor,
    per_pass: usize,
    reference_requests: usize,
    seed: u64,
    seconds: f64,
    min_passes: usize,
) -> std::io::Result<SocketResult> {
    let mut problems = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    let started = Instant::now();
    while passes.len() < min_passes || started.elapsed().as_secs_f64() < seconds {
        let pass_seed = seed ^ ((passes.len() as u64 + 1) << 40);
        let pass = run_pass(
            exe,
            flavor,
            &|catalog| request_sequence(per_pass, flavor, catalog, pass_seed),
            None,
        )?;
        if pass.accepted != pass.sent as u64 {
            problems.push(format!(
                "pass {}: child accepted {} of {} requests sent",
                passes.len(),
                pass.accepted,
                pass.sent
            ));
        }
        passes.push(pass);
    }

    // The reference child replays the head of pass 0's sequence.
    let ref_seed = seed ^ (1 << 40);
    let n_ref = reference_requests.min(per_pass);
    let reference = run_pass(
        exe,
        flavor.reference(),
        &|catalog| request_sequence(per_pass, flavor, catalog, ref_seed)[..n_ref].to_vec(),
        None,
    )?;
    if reference.accepted != reference.sent as u64 {
        problems.push(format!(
            "reference pass: child accepted {} of {} requests sent",
            reference.accepted, reference.sent
        ));
    }
    let head = stats::mean(&Pass::good(&passes[0].virt_latency_ms[..n_ref]));
    let other = stats::mean(&Pass::good(&reference.virt_latency_ms));
    let (dflt, trained) = if flavor.train {
        (other, head)
    } else {
        (head, other)
    };

    let attempted = passes
        .iter()
        .chain([&reference])
        .map(|p| p.sent as u64)
        .sum();
    let failed = passes
        .iter()
        .chain([&reference])
        .map(|p| p.failed as u64)
        .sum();
    Ok(SocketResult {
        virt_latency_speedup: dflt / trained,
        passes,
        reference,
        attempted,
        failed,
        problems,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_sequences_repeat_alternate_tenants_and_stay_in_the_catalog() {
        let a = request_sequence(500, Flavor::DFLT, 12, 9);
        assert_eq!(a, request_sequence(500, Flavor::DFLT, 12, 9));
        assert_ne!(a, request_sequence(500, Flavor::DFLT, 12, 10));
        assert!(a
            .iter()
            .enumerate()
            .all(|(i, r)| r.tenant == i % 2 && r.query < 12));
        assert!(
            (0..12).all(|q| a.iter().any(|r| r.query == q)),
            "every query is asked for"
        );
        assert!(request_sequence(50, Flavor::TRAINED, 12, 9)
            .iter()
            .all(|r| r.tenant == 0));
    }

    #[test]
    fn paths_carry_the_tenant_only_when_there_are_several() {
        let r = Request {
            tenant: 1,
            query: 7,
        };
        assert_eq!(r.path(Flavor::DFLT), "/t/1/query/7");
        assert_eq!(
            Request {
                tenant: 0,
                query: 7
            }
            .path(Flavor::TRAINED),
            "/query/7"
        );
        assert_eq!(
            Flavor::TRAINED.reference(),
            Flavor {
                train: false,
                tenants: 1
            }
        );
        assert_eq!(
            Flavor::DFLT.reference(),
            Flavor {
                train: true,
                tenants: 2
            }
        );
    }

    #[test]
    fn good_drops_the_failed_requests() {
        assert_eq!(Pass::good(&[1.0, f64::NAN, 3.0]), vec![1.0, 3.0]);
    }
}
