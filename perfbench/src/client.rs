//! The benchmark's HTTP client: a blocking keep-alive connection for
//! control calls and probes, and the open-loop load generator.
//!
//! Both speak HTTP/1.1 with the benchmark's own framing code, so a codec
//! bug in the program cannot cancel itself out on the client side.
//!
//! The load generator is one process with two threads and two keep-alive
//! connections: a writer that sends each request when it is due
//! (alternating connections, pipelining when replies lag) and a reader
//! that collects replies from both connections through `epoll`. Latency
//! is taken from the due time, so a stalled generator inflates latency
//! instead of hiding it.

use ocular_bytes::net::{Epoll, Interest};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Deadline on every blocking read and write of a control connection.
pub const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// The bytes of one HTTP request.
pub fn format_request(method: &str, path: &str, body: &[u8], keep_alive: bool) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: {}\r\n\r\n",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" }
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// One parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

/// Parses one complete response from the front of `buf`: `Ok(None)` while
/// it is incomplete, `Ok(Some((reply, consumed)))` once whole.
pub fn parse_response(buf: &[u8]) -> Result<Option<(Reply, usize)>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return if buf.len() > 16 * 1024 {
            Err("response head exceeds 16 KiB".into())
        } else {
            Ok(None)
        };
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "response head is not UTF-8")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let mut parts = status_line.split(' ');
    if !parts.next().unwrap_or("").starts_with("HTTP/1.") {
        return Err(format!("bad status line `{status_line}`"));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line `{status_line}`"))?;
    let mut length = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                length = Some(
                    value
                        .trim()
                        .parse::<usize>()
                        .map_err(|_| "bad Content-Length")?,
                );
            }
        }
    }
    let length = length.ok_or("response without Content-Length")?;
    let total = head_end + 4 + length;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some((
        Reply {
            status,
            body: buf[head_end + 4..total].to_vec(),
        },
        total,
    )))
}

/// A blocking keep-alive connection with a deadline on every call.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
        })
    }

    /// Sends one request and waits for its reply.
    pub fn call(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Reply> {
        self.stream
            .write_all(&format_request(method, path, body, true))?;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match parse_response(&self.buf) {
                Ok(Some((reply, used))) => {
                    self.buf.drain(..used);
                    return Ok(reply);
                }
                Ok(None) => {}
                Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e)),
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

/// One open-loop request's client-side span, in nanoseconds from the
/// phase start. Zero means "did not happen".
#[derive(Debug, Clone, Default)]
pub struct Sample {
    pub due_ns: u64,
    pub written_ns: u64,
    pub first_byte_ns: u64,
    pub done_ns: u64,
    /// The reply, or `None` when the request failed on the wire or was
    /// still unanswered at the deadline.
    pub reply: Option<Reply>,
}

impl Sample {
    /// Latency from the due time (what an open-loop user waits).
    pub fn latency_ns(&self) -> Option<u64> {
        self.reply.as_ref()?;
        Some(self.done_ns.saturating_sub(self.due_ns))
    }

    /// Round trip from the write (excludes generator lateness).
    pub fn round_trip_ns(&self) -> Option<u64> {
        self.reply.as_ref()?;
        Some(self.done_ns.saturating_sub(self.written_ns))
    }

    /// How late the generator wrote the request.
    pub fn late_ns(&self) -> Option<u64> {
        (self.written_ns > 0).then(|| self.written_ns.saturating_sub(self.due_ns))
    }
}

/// How often the reader samples the host's steal counter.
const STEAL_EVERY: Duration = Duration::from_millis(20);

/// What an open-loop run returns.
pub struct Driven {
    /// One sample per request sent, in schedule order.
    pub samples: Vec<Sample>,
    /// `(ns from start, steal ticks)` read every [`STEAL_EVERY`]: when the
    /// hypervisor ran other tenants on this machine's CPUs.
    pub steal: Vec<(u64, u64)>,
}

/// Sends `requests[i]` at `start + due_ns[i]`, over two keep-alive
/// connections, and collects every reply until the last due time plus
/// `grace`. Requests unanswered by then are failures. Setting `stop` ends
/// the schedule early: requests not yet due are dropped, not failed.
pub fn open_loop(
    addr: SocketAddr,
    start: Instant,
    due_ns: &[u64],
    requests: &[Vec<u8>],
    grace: Duration,
    stop: Option<&AtomicBool>,
) -> io::Result<Driven> {
    assert_eq!(due_ns.len(), requests.len());
    const CONNS: usize = 2;
    let mut writers = Vec::with_capacity(CONNS);
    let mut readers = Vec::with_capacity(CONNS);
    let epoll = Epoll::new()?;
    for c in 0..CONNS {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        let reader = stream.try_clone()?;
        reader.set_nonblocking(true)?;
        epoll.add(reader.as_raw_fd(), c as u64, Interest::READ)?;
        writers.push(stream);
        readers.push(reader);
    }
    let n = requests.len();
    let written: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let unsent = AtomicU64::new(0);
    // per connection: indices written and not yet answered, in order
    let pending: Vec<Mutex<VecDeque<usize>>> =
        (0..CONNS).map(|_| Mutex::new(VecDeque::new())).collect();
    let last_due = due_ns.last().copied().unwrap_or(0);
    let deadline = Mutex::new(start + Duration::from_nanos(last_due) + grace);
    let since = |t: Instant| t.saturating_duration_since(start).as_nanos() as u64;

    let mut samples: Vec<Sample> = due_ns
        .iter()
        .map(|&d| Sample {
            due_ns: d,
            ..Sample::default()
        })
        .collect();
    let (received, steal, failed_writes, attempted) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut got: Vec<(usize, u64, u64, Reply)> = Vec::with_capacity(n);
            let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); CONNS];
            let mut first: Vec<u64> = vec![0; CONNS];
            let mut open = [true; CONNS];
            let mut events = Vec::new();
            let mut chunk = vec![0u8; 64 * 1024];
            let mut steal = Vec::new();
            let mut next_steal = Instant::now();
            while got.len() + (unsent.load(Ordering::Relaxed) as usize) < n
                && Instant::now() < *deadline.lock().expect("deadline lock")
                && open.iter().any(|&o| o)
            {
                if Instant::now() >= next_steal {
                    if let Some(ticks) = crate::host::steal_ticks() {
                        steal.push((since(Instant::now()), ticks));
                    }
                    next_steal += STEAL_EVERY;
                }
                events.clear();
                if epoll.wait(&mut events, 2).is_err() {
                    break;
                }
                for ev in &events {
                    let c = ev.token as usize;
                    loop {
                        match (&readers[c]).read(&mut chunk) {
                            Ok(0) => {
                                open[c] = false;
                                break;
                            }
                            Ok(k) => {
                                if bufs[c].is_empty() {
                                    first[c] = since(Instant::now());
                                }
                                bufs[c].extend_from_slice(&chunk[..k]);
                            }
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                            Err(_) => {
                                open[c] = false;
                                break;
                            }
                        }
                    }
                    let now = since(Instant::now());
                    let mut used = 0;
                    while let Ok(Some((reply, k))) = parse_response(&bufs[c][used..]) {
                        used += k;
                        let Some(idx) = pending[c].lock().expect("pending queue lock").pop_front()
                        else {
                            break;
                        };
                        got.push((idx, first[c], now, reply));
                        first[c] = now;
                    }
                    bufs[c].drain(..used);
                    if !open[c] {
                        let _ = epoll.delete(readers[c].as_raw_fd());
                    }
                }
            }
            if let Some(ticks) = crate::host::steal_ticks() {
                steal.push((since(Instant::now()), ticks));
            }
            (got, steal)
        });

        let mut failed_writes = Vec::new();
        let mut attempted = n;
        for (i, (&due, req)) in due_ns.iter().zip(requests).enumerate() {
            let at = start + Duration::from_nanos(due);
            if stop.is_some_and(|s| s.load(Ordering::SeqCst)) {
                // the schedule ends here: wait `grace` for what is in flight
                attempted = i;
                unsent.fetch_add((n - i) as u64, Ordering::Relaxed);
                *deadline.lock().expect("deadline lock") = Instant::now() + grace;
                break;
            }
            let now = Instant::now();
            if at > now {
                std::thread::sleep(at - now);
            }
            let c = i % CONNS;
            // queue before writing: the reply can beat the bookkeeping
            pending[c].lock().expect("pending queue lock").push_back(i);
            written[i].store(since(Instant::now()).max(1), Ordering::Relaxed);
            if write_fully(&writers[c], req).is_err() {
                pending[c]
                    .lock()
                    .expect("pending queue lock")
                    .retain(|&j| j != i);
                failed_writes.push(i);
                unsent.fetch_add(1, Ordering::Relaxed);
            }
        }
        let (got, steal) = reader.join().expect("reader thread panicked");
        (got, steal, failed_writes, attempted)
    });
    samples.truncate(attempted);
    for (s, w) in samples.iter_mut().zip(&written) {
        s.written_ns = w.load(Ordering::Relaxed);
    }
    for i in failed_writes {
        samples[i].written_ns = 0;
    }
    for (idx, first, done, reply) in received {
        let s = &mut samples[idx];
        s.first_byte_ns = first.max(s.written_ns);
        s.done_ns = done;
        s.reply = Some(reply);
    }
    Ok(Driven { samples, steal })
}

/// `write_all` for a socket whose file description is non-blocking (the
/// reader half of the same socket set it): retries until the bytes are
/// out or five seconds have passed.
fn write_fully(mut stream: &TcpStream, mut bytes: &[u8]) -> io::Result<()> {
    let give_up = Instant::now() + Duration::from_secs(5);
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(k) => bytes = &bytes[k..],
            Err(e) if e.kind() == io::ErrorKind::WouldBlock && Instant::now() < give_up => {
                std::thread::sleep(Duration::from_micros(50));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Closed loop over two connections for `duration`: each connection sends
/// its next `/recommend` body only after the previous reply, so the server
/// never holds more than two requests. Returns every `(body index, reply)`
/// and the seconds it ran.
pub fn closed_loop(
    addr: SocketAddr,
    bodies: &[String],
    duration: Duration,
) -> io::Result<(Vec<(usize, Reply)>, f64)> {
    let start = Instant::now();
    let end = start + duration;
    let results: Vec<io::Result<Vec<(usize, Reply)>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|c| {
                scope.spawn(move || -> io::Result<Vec<(usize, Reply)>> {
                    let mut conn = Conn::open(addr)?;
                    let mut replies = Vec::new();
                    let mut i = c;
                    while Instant::now() < end {
                        let k = i % bodies.len();
                        replies.push((k, conn.call("POST", "/recommend", bodies[k].as_bytes())?));
                        i += 2;
                    }
                    Ok(replies)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop thread panicked"))
            .collect()
    });
    let secs = start.elapsed().as_secs_f64();
    let mut all = Vec::new();
    for r in results {
        all.extend(r?);
    }
    Ok((all, secs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn parses_pipelined_responses_incrementally() {
        let one = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabc";
        let mut two = one.to_vec();
        two.extend_from_slice(b"HTTP/1.1 429 Too Many Requests\r\ncontent-length: 1\r\n\r\nx");
        let (r, used) = parse_response(&two).unwrap().unwrap();
        assert_eq!(
            (r.status, r.body.as_slice(), used),
            (200, &b"abc"[..], one.len())
        );
        let (r, _) = parse_response(&two[used..]).unwrap().unwrap();
        assert_eq!(r.status, 429);
        assert_eq!(parse_response(&one[..one.len() - 1]).unwrap(), None);
        assert!(parse_response(b"garbage\r\n\r\n").is_err());
    }

    /// A server that answers each request only after `stall`: requests due
    /// during the stall must report the stall in their latency, because
    /// latency runs from the due time, not from the (late) write.
    #[test]
    fn latency_runs_from_the_due_time() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stall = Duration::from_millis(60);
        let server = std::thread::spawn(move || {
            let mut conns: Vec<TcpStream> = (0..2).map(|_| listener.accept().unwrap().0).collect();
            // first request: hold the reply for `stall`, so the client's
            // pipeline backs up behind it
            let mut handled = 0;
            let mut bufs = vec![Vec::new(); 2];
            let mut chunk = [0u8; 4096];
            while handled < 4 {
                for (c, conn) in conns.iter_mut().enumerate() {
                    conn.set_read_timeout(Some(Duration::from_millis(5)))
                        .unwrap();
                    if let Ok(k) = conn.read(&mut chunk) {
                        bufs[c].extend_from_slice(&chunk[..k]);
                    }
                    while let Some(end) = bufs[c].windows(4).position(|w| w == b"\r\n\r\n") {
                        let len: usize = 2; // every test body is `{}`
                        if bufs[c].len() < end + 4 + len {
                            break;
                        }
                        bufs[c].drain(..end + 4 + len);
                        if handled == 0 {
                            std::thread::sleep(stall);
                        }
                        handled += 1;
                        conn.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
                            .unwrap();
                    }
                }
            }
        });
        let req = format_request("POST", "/", b"{}", true);
        // four requests due 1 ms apart; the server stalls on the first
        let due: Vec<u64> = (0..4).map(|i| i * 1_000_000).collect();
        let start = Instant::now();
        let samples = open_loop(
            addr,
            start,
            &due,
            &vec![req; 4],
            Duration::from_secs(2),
            None,
        )
        .unwrap()
        .samples;
        server.join().unwrap();
        for s in &samples {
            let lat = s.latency_ns().expect("answered");
            assert!(s.done_ns >= s.written_ns && s.written_ns >= s.due_ns);
            assert_eq!(lat, s.done_ns - s.due_ns);
        }
        // every request queued behind the stall waited for it
        for s in &samples[1..] {
            assert!(
                s.latency_ns().unwrap() + 3_000_000 >= stall.as_nanos() as u64,
                "latency {} ns hides the stall",
                s.latency_ns().unwrap()
            );
        }
    }

    /// A generator that wakes late sends late: the lateness shows up in
    /// the latency, never in the denominator.
    #[test]
    fn generator_lateness_counts_as_latency() {
        let s = Sample {
            due_ns: 1_000,
            written_ns: 51_000,
            first_byte_ns: 60_000,
            done_ns: 61_000,
            reply: Some(Reply {
                status: 200,
                body: Vec::new(),
            }),
        };
        assert_eq!(s.late_ns(), Some(50_000));
        assert_eq!(s.latency_ns(), Some(60_000));
        assert_eq!(s.round_trip_ns(), Some(10_000));
        let unanswered = Sample {
            reply: None,
            ..s.clone()
        };
        assert_eq!(unanswered.latency_ns(), None);
    }
}
