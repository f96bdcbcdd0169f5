//! The wire layer: one listener, one request-head reader, one response
//! writer.
//!
//! Both sockets of the live process — the query front
//! (`pythia_core::frontend`) and the metrics endpoint ([`crate::serve`]) —
//! are route tables over this module. The protocol surface is "read one
//! `GET` head, write one `Connection: close` response"; there is no HTTP
//! library and no async runtime, the same stance that keeps the rest of
//! `pythia-obs` dependency-free.
//!
//! * [`Listener`] binds, accepts on a background thread and hands each
//!   connection to a short-lived detached handler thread, so a slow client
//!   holds up nobody else. A handler lives at most one read deadline plus one
//!   response write.
//! * [`read_head`] reads the head **to its blank line** (or EOF) before
//!   anything is answered: closing a socket that still holds unread bytes
//!   resets the connection, and a client that writes its head a line at a
//!   time would lose the response to that reset. One total deadline covers
//!   the whole head, however the bytes are spread over reads; a head that has
//!   not ended after 8 KiB is refused.
//! * [`respond`] writes the response and sets its own write timeout, since
//!   a deferred response is written long after the handler returned.
//!
//! Everything hostile a socket can deliver — oversized or split heads, bare
//! line feeds, non-UTF-8, floods, stalls, half-closes — meets the parser
//! here and nowhere else; the tests below are where that is pinned.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Total wall time a connection gets to deliver its request head: what the
/// metrics endpoint allows and the query front defaults to.
pub const READ_DEADLINE: Duration = Duration::from_secs(2);

/// A head that has not reached its blank line within this many bytes is
/// [`Head::Malformed`].
const MAX_HEAD: usize = 8 * 1024;

const WRITE_TIMEOUT: Duration = Duration::from_millis(500);

/// A bound socket with its accept thread.
#[derive(Debug)]
pub struct Listener {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl Listener {
    /// Bind `addr` (port `0` for an ephemeral port) and run `handler` on a
    /// thread of its own for every accepted connection. `thread_name` names
    /// the accept thread; handler threads get `<thread_name>-conn`.
    pub fn start<H>(addr: &str, thread_name: &str, handler: H) -> std::io::Result<Listener>
    where
        H: Fn(TcpStream) + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handler = Arc::new(handler);
        let conn_name = format!("{thread_name}-conn");
        let accept = std::thread::Builder::new()
            .name(thread_name.to_owned())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop_flag.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = conn else {
                        // Out of descriptors, most likely: they come back as
                        // handlers meet their deadlines. Do not spin meanwhile.
                        std::thread::sleep(Duration::from_millis(10));
                        continue;
                    };
                    // Detached: `shutdown` joins only the accept thread, and
                    // a handler still in flight just answers its own socket.
                    // If spawning fails (thread exhaustion) the closure is
                    // dropped and the connection closes.
                    let handler = Arc::clone(&handler);
                    let _ = std::thread::Builder::new()
                        .name(conn_name.clone())
                        .spawn(move || handler(stream));
                }
            })?;
        Ok(Listener {
            addr,
            stop,
            accept: Some(accept),
        })
    }

    /// The address actually bound (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and wait for the accept thread to exit.
    pub fn shutdown(mut self) {
        self.signal_stop();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }

    fn signal_stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
        // The accept loop sees the flag on its next connection: make one.
        let _ = TcpStream::connect(self.addr);
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        // Best effort: detach rather than block in drop. `shutdown` joins.
        if self.accept.is_some() {
            self.signal_stop();
        }
    }
}

/// What [`read_head`] made of a connection's first bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Head {
    /// A `GET <path> ...` request line, its head read to the end.
    Get(String),
    /// Anything else: another method, no path, a request line that is not
    /// UTF-8, nothing at all, or no blank line within 8 KiB.
    Malformed,
    /// The head had not ended when the deadline passed.
    TimedOut,
}

/// Read one request head, giving the client `deadline` of wall time in total
/// to deliver it. Lines may end in `\r\n` or a bare `\n`; whatever follows
/// the blank line (a pipelined request, a body) is ignored.
pub fn read_head(stream: &mut TcpStream, deadline: Duration) -> std::io::Result<Head> {
    let started = Instant::now();
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        let remaining = deadline.saturating_sub(started.elapsed());
        if remaining.is_zero() {
            return Ok(Head::TimedOut);
        }
        stream.set_read_timeout(Some(remaining))?;
        let n = match stream.read(&mut buf) {
            Ok(0) => break, // closed or half-closed: what arrived is the head
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::TimedOut | ErrorKind::WouldBlock | ErrorKind::Interrupted
                ) =>
            {
                continue; // the deadline check above decides
            }
            Err(e) => return Err(e),
        };
        // A blank line may straddle two reads: look again at the last two
        // bytes of what was there before.
        let seen = head.len().saturating_sub(2);
        head.extend_from_slice(&buf[..n]);
        let tail = &head[seen..];
        if tail.windows(2).any(|w| w == b"\n\n") || tail.windows(3).any(|w| w == b"\n\r\n") {
            break;
        }
        if head.len() >= MAX_HEAD {
            return Ok(Head::Malformed);
        }
    }
    let line = head.split(|&b| b == b'\n').next().unwrap_or_default();
    let mut parts = match std::str::from_utf8(line) {
        Ok(line) => line.split_whitespace(),
        Err(_) => return Ok(Head::Malformed),
    };
    Ok(match (parts.next(), parts.next()) {
        (Some("GET"), Some(path)) => Head::Get(path.to_owned()),
        _ => Head::Malformed,
    })
}

/// Write one `Connection: close` response. `extra_header` is a whole header
/// line without its line end (`Retry-After: 1`).
pub fn respond(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
    extra_header: Option<&str>,
) -> std::io::Result<()> {
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    let extra = extra_header.map(|h| format!("{h}\r\n")).unwrap_or_default();
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n{extra}Connection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::net::Shutdown;
    use std::sync::mpsc;

    /// `GET path` the way a client without an HTTP library writes it (bash's
    /// `printf` does): a line per write. Every write must land — answering
    /// before the head's end would close the socket under the later lines —
    /// and the whole response is returned.
    pub(crate) fn get_line_by_line(addr: SocketAddr, path: &str) -> String {
        let mut client = TcpStream::connect(addr).expect("connect");
        client.set_nodelay(true).unwrap();
        let request_line = format!("GET {path} HTTP/1.1\r\n");
        for line in [
            &request_line,
            "Host: x\r\n",
            "Connection: close\r\n",
            "\r\n",
        ] {
            client
                .write_all(line.as_bytes())
                .expect("no reset mid-head");
            std::thread::sleep(GAP);
        }
        let mut out = String::new();
        client.read_to_string(&mut out).unwrap();
        out
    }

    /// How far past its deadline a read may return, and how soon "at once" is.
    const SLACK: Duration = Duration::from_millis(250);

    /// What the client does once its segments are written.
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Then {
        Close,
        HalfClose,
        Hold,
    }
    use Then::{Close, HalfClose, Hold};

    /// Write `segments` from a client thread, `gap` apart, and read the head
    /// on *this* thread over the connected pair, so a panic in the parser
    /// fails the test. Returns what `read_head` made of it and how long it
    /// took.
    fn parse(
        segments: &[&[u8]],
        gap: Duration,
        then: Then,
        deadline: Duration,
    ) -> (std::io::Result<Head>, Duration) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        client.set_nodelay(true).unwrap();
        let (done, wait) = mpsc::channel::<()>();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let mut client = client;
                for segment in segments {
                    // The reader may have refused the head already.
                    let _ = client.write_all(segment);
                    std::thread::sleep(gap);
                }
                match then {
                    Close => return,
                    HalfClose => client.shutdown(Shutdown::Write).unwrap(),
                    Hold => {}
                }
                let _ = wait.recv(); // until the head has been read
            });
            let started = Instant::now();
            let got = read_head(&mut server, deadline);
            let took = started.elapsed();
            drop(done);
            (got, took)
        })
    }

    const GAP: Duration = Duration::from_millis(5);

    #[test]
    fn request_heads_hostile_and_not() {
        let get = |path: &str| Head::Get(path.to_owned());
        let long_path = [b"GET /", [b'a'; 16 * 1024].as_slice(), b" HTTP/1.1\r\n\r\n"].concat();
        let flood = format!("GET /x HTTP/1.1\r\n{}\r\n", "X-Flood: 1\r\n".repeat(4096));
        let cases: Vec<(&str, Vec<&[u8]>, Then, Head)> = vec![
            (
                "one segment, HTTP/1.0",
                vec![b"GET /healthz HTTP/1.0\r\n\r\n"],
                Hold,
                get("/healthz"),
            ),
            (
                "a head in four segments",
                vec![
                    b"GET /query/3 HTTP/1.1\r\n",
                    b"Host: ci\r\n",
                    b"Connection: close\r\n",
                    b"\r\n",
                ],
                Hold,
                get("/query/3"),
            ),
            (
                "the blank line split over two reads",
                vec![b"GET /a HTTP/1.1\r\n\r", b"\n"],
                Hold,
                get("/a"),
            ),
            (
                "request line, then half-close",
                vec![b"GET /stats HTTP/1.1\r\n"],
                HalfClose,
                get("/stats"),
            ),
            (
                "no line end, then close",
                vec![b"GET /stats"],
                Close,
                get("/stats"),
            ),
            (
                "bare line feeds",
                vec![b"GET /metrics HTTP/1.1\nHost: x\n\n"],
                Hold,
                get("/metrics"),
            ),
            (
                "two pipelined requests",
                vec![b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n"],
                Hold,
                get("/a"),
            ),
            ("not a method", vec![b"BLAH\r\n\r\n"], Hold, Head::Malformed),
            (
                "POST",
                vec![b"POST /query/0 HTTP/1.1\r\nContent-Length: 0\r\n\r\n"],
                Hold,
                Head::Malformed,
            ),
            (
                "lower-case method",
                vec![b"get / HTTP/1.1\r\n\r\n"],
                Hold,
                Head::Malformed,
            ),
            (
                "GET without a path",
                vec![b"GET\r\n\r\n"],
                Hold,
                Head::Malformed,
            ),
            ("nothing at all", vec![], Close, Head::Malformed),
            (
                "blank lines only",
                vec![b"\r\n\r\n\r\n"],
                Hold,
                Head::Malformed,
            ),
            (
                "non-UTF-8 before GET",
                vec![b"\xff\xfe\x80GET / HTTP/1.1\r\n\r\n"],
                Hold,
                Head::Malformed,
            ),
            (
                "non-UTF-8 in the path",
                vec![b"GET /\xff\xfe HTTP/1.1\r\n\r\n"],
                Hold,
                Head::Malformed,
            ),
            ("a 16 KiB path", vec![&long_path], Hold, Head::Malformed),
            (
                "a 4096-header flood",
                vec![flood.as_bytes()],
                Hold,
                Head::Malformed,
            ),
        ];
        for (name, segments, then, want) in cases {
            let (got, took) = parse(&segments, GAP, then, READ_DEADLINE);
            assert_eq!(got.unwrap(), want, "{name}");
            // Decided by what arrived, not by waiting for more.
            assert!(took < READ_DEADLINE / 2, "{name} took {took:?}");
        }
    }

    #[test]
    fn a_head_that_never_ends_times_out_at_the_deadline() {
        let deadline = Duration::from_millis(300);
        let trickle: Vec<&[u8]> = b"GET /healthz HTTP/1.1\r\nHost: a-slow-one\r\n\r\n"
            .chunks(1)
            .collect();
        let cases: [(&str, Vec<&[u8]>, Duration); 4] = [
            ("silence", vec![], GAP),
            ("a stalled partial line", vec![b"GET /heal"], GAP),
            (
                "a whole line, no blank line",
                vec![b"GET /healthz HTTP/1.1\r\n"],
                GAP,
            ),
            // 43 bytes, 20 ms apart: each read succeeds, the head is too late.
            ("a byte at a time", trickle, Duration::from_millis(20)),
        ];
        for (name, segments, gap) in cases {
            let (got, took) = parse(&segments, gap, Hold, deadline);
            assert_eq!(got.unwrap(), Head::TimedOut, "{name}");
            assert!(
                took >= deadline && took < deadline + SLACK,
                "{name} took {took:?}"
            );
        }
    }

    /// Random bytes, cut into random segments, with a random ending: whatever
    /// it is, `read_head` names it or reports an I/O error — no panic (it runs
    /// on this thread), nothing past the deadline.
    #[test]
    fn random_bytes_and_segmentations_are_survived() {
        const WORDS: [&[u8]; 12] = [
            b"GET",
            b"POST",
            b" ",
            b"/",
            b"a",
            b"HTTP/1.1",
            b"\r",
            b"\n",
            b"\r\n",
            b"\r\n\r\n",
            b"\xff",
            b"\0",
        ];
        let deadline = Duration::from_millis(60);
        // Knuth's MMIX LCG; the high bits are the good ones.
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize
        };
        for round in 0..240 {
            let mut bytes = Vec::new();
            for _ in 0..next() % 24 {
                match next() % 4 {
                    0 => bytes.push(next() as u8),
                    _ => bytes.extend_from_slice(WORDS[next() % WORDS.len()]),
                }
            }
            let mut cuts: Vec<usize> = (0..next() % 4)
                .map(|_| next() % (bytes.len() + 1))
                .collect();
            cuts.extend([0, bytes.len()]);
            cuts.sort_unstable();
            let segments: Vec<&[u8]> = cuts.windows(2).map(|w| &bytes[w[0]..w[1]]).collect();
            // A held connection without a blank line costs a whole deadline.
            let then = [
                Close, HalfClose, Close, HalfClose, Close, HalfClose, Close, Hold,
            ][next() % 8];
            let gap = Duration::from_millis((next() % 2) as u64);
            let (got, took) = parse(&segments, gap, then, deadline);
            let what = format!("round {round}: {segments:?} then {then:?} -> {got:?} in {took:?}");
            assert!(took < deadline + SLACK, "{what}");
            match got {
                Ok(Head::Get(path)) => {
                    assert!(
                        !path.is_empty() && !path.contains(char::is_whitespace),
                        "{what}"
                    )
                }
                Ok(Head::TimedOut) => assert_eq!(then, Hold, "{what}"),
                Ok(Head::Malformed) | Err(_) => {}
            }
        }
    }

    #[test]
    fn listener_answers_beside_a_stalled_connection_then_shuts_down() {
        let deadline = Duration::from_millis(400);
        let listener = Listener::start("127.0.0.1:0", "http-test", move |mut stream| {
            let (status, body) = match read_head(&mut stream, deadline) {
                Ok(Head::Get(path)) => ("200 OK", path),
                Ok(Head::Malformed) => ("400 Bad Request", "malformed\n".to_owned()),
                Ok(Head::TimedOut) => ("408 Request Timeout", "too slow\n".to_owned()),
                Err(_) => return,
            };
            let _ = respond(&mut stream, status, "text/plain", &body, Some("X-Test: 1"));
        })
        .expect("bind");
        let addr = listener.addr();

        let mut stalled = TcpStream::connect(addr).unwrap();
        stalled.write_all(b"GET /sta").unwrap();
        let started = Instant::now();

        // The answer must not wait for the stalled connection.
        let out = get_line_by_line(addr, "/a");
        assert_eq!(
            out,
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 2\r\n\
             X-Test: 1\r\nConnection: close\r\n\r\n/a"
        );
        assert!(
            started.elapsed() < SLACK,
            "answered after {:?}",
            started.elapsed()
        );

        let mut out = String::new();
        stalled.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 408 Request Timeout\r\n"), "{out}");
        assert!(
            started.elapsed() < deadline + SLACK,
            "408 after {:?}",
            started.elapsed()
        );

        listener.shutdown();
        assert!(
            TcpStream::connect(addr).is_err(),
            "the port is closed after shutdown"
        );
    }
}
