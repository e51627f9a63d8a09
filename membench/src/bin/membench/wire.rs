//! Load generation over HTTP/1.1 keep-alive connections.
//!
//! The open loop sends each request when it is due, whether or not
//! earlier responses have arrived (requests pipeline on the connection),
//! and times every request from its due time. A stalled server therefore
//! shows up in the latency of every request scheduled behind the stall,
//! instead of silently slowing the generator down (coordinated omission).
//!
//! The generator waits by polling and yielding, never by sleeping or
//! blocking. On a virtual machine a CPU that goes idle must be woken
//! through the hypervisor, which adds 0.1 to 1 ms of host-dependent noise
//! to every request; a yielding client keeps the CPUs awake and gives way
//! to the server's threads whenever they can run.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::trace::Recorder;
use crate::util::fnv1a;

/// Renders one POST request.
pub fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: memsense\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One response parsed off the front of a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Response {
    pub status: u16,
    pub hash: u64,
    pub len: usize,
    /// Buffer bytes the response occupied.
    pub consumed: usize,
}

/// Parses one response from the front of `buf`, keeping its body's hash
/// and length; `Ok(None)` until it is complete.
pub fn parse_response(buf: &[u8]) -> Result<Option<Response>, String> {
    Ok(parse_text_response(buf)?.map(|r| Response {
        status: r.status,
        hash: fnv1a(r.body.as_bytes()),
        len: r.body.len(),
        consumed: r.consumed,
    }))
}

/// What happened to one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    /// Index into the caller's request table.
    pub req: u32,
    /// Position in the caller's schedule (the trace id of its spans).
    pub seq: u32,
    pub due_ns: u64,
    pub sent_ns: u64,
    /// 0 when no response arrived.
    pub done_ns: u64,
    /// 0 when no response arrived.
    pub status: u16,
    pub hash: u64,
    pub len: usize,
}

impl Record {
    pub fn answered(&self) -> bool {
        self.status != 0
    }

    /// Latency from the due time, in milliseconds.
    pub fn due_latency_ms(&self) -> f64 {
        self.done_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }

    /// Latency from the moment the request was written, in milliseconds.
    pub fn service_ms(&self) -> f64 {
        self.done_ns.saturating_sub(self.sent_ns) as f64 / 1e6
    }

    /// How late the generator sent it, in milliseconds.
    pub fn late_ms(&self) -> f64 {
        self.sent_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }
}

/// Response bytes read so far on one connection.
struct Reader {
    buf: Vec<u8>,
    chunk: Vec<u8>,
}

impl Reader {
    fn new() -> Reader {
        Reader {
            buf: Vec::new(),
            chunk: vec![0; 64 * 1024],
        }
    }

    /// One read of `stream` (blocking, non-blocking or timed out alike),
    /// returning every response it completed.
    fn read(&mut self, stream: &mut TcpStream) -> Result<Vec<Response>, String> {
        match stream.read(&mut self.chunk) {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(n) => self.buf.extend_from_slice(&self.chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(format!("read: {e}")),
        }
        let mut done = Vec::new();
        let mut offset = 0;
        while let Some(r) = parse_response(&self.buf[offset..])? {
            offset += r.consumed;
            done.push(r);
        }
        self.buf.drain(..offset);
        Ok(done)
    }
}

fn connect(addr: &str) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    Ok(stream)
}

/// Writes all of `bytes`, waiting out a full send buffer on a
/// non-blocking socket.
fn write_all(stream: &mut TcpStream, mut bytes: &[u8]) -> Result<(), String> {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err("write: connection closed".into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                std::thread::sleep(Duration::from_micros(50));
            }
            Err(e) => return Err(format!("write: {e}")),
        }
    }
    Ok(())
}

/// One complete response parsed off the front of a buffer, with its body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextResponse {
    pub status: u16,
    pub body: String,
    /// Buffer bytes the response occupied.
    pub consumed: usize,
}

fn line_end(buf: &[u8]) -> Option<usize> {
    buf.windows(2).position(|w| w == b"\r\n")
}

/// Parses one `Content-Length` or chunked response from the front of
/// `buf`, dechunking the body; `Ok(None)` until it is complete.
pub fn parse_text_response(buf: &[u8]) -> Result<Option<TextResponse>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 head")?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split_ascii_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or("malformed status line")?;
    let mut length = None;
    let mut chunked = false;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                length = value.trim().parse::<usize>().ok();
            } else if name.trim().eq_ignore_ascii_case("transfer-encoding") {
                chunked = value.trim().eq_ignore_ascii_case("chunked");
            }
        }
    }
    let mut at = head_end + 4;
    let mut body = Vec::new();
    if chunked {
        loop {
            let Some(eol) = line_end(&buf[at..]) else {
                return Ok(None);
            };
            let size_line =
                std::str::from_utf8(&buf[at..at + eol]).map_err(|_| "bad chunk size")?;
            let size_text = size_line.split(';').next().unwrap_or(size_line).trim();
            let size = usize::from_str_radix(size_text, 16).map_err(|_| "bad chunk size")?;
            at += eol + 2;
            if size == 0 {
                // Trailer lines through the blank one.
                loop {
                    let Some(eol) = line_end(&buf[at..]) else {
                        return Ok(None);
                    };
                    at += eol + 2;
                    if eol == 0 {
                        break;
                    }
                }
                break;
            }
            if buf.len() < at + size + 2 {
                return Ok(None);
            }
            body.extend_from_slice(&buf[at..at + size]);
            at += size + 2;
        }
    } else {
        let length = length.ok_or("response without Content-Length")?;
        if buf.len() < at + length {
            return Ok(None);
        }
        body.extend_from_slice(&buf[at..at + length]);
        at += length;
    }
    let body = String::from_utf8(body).map_err(|_| "non-UTF-8 body")?;
    Ok(Some(TextResponse {
        status,
        body,
        consumed: at,
    }))
}

/// A keep-alive client that sends one request at a time and waits for the
/// answer by polling and yielding (see the module note), for
/// `Content-Length` and chunked responses alike.
pub struct PollClient {
    stream: TcpStream,
    reader: Reader,
}

impl PollClient {
    pub fn connect(addr: &str) -> Result<PollClient, String> {
        let stream = connect(addr)?;
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        Ok(PollClient {
            stream,
            reader: Reader::new(),
        })
    }

    /// Sends one request and returns the status and body of its answer.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<(u16, String), String> {
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: memsense\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        write_all(&mut self.stream, request.as_bytes())?;
        let waiting = Instant::now();
        loop {
            if let Some(r) = parse_text_response(&self.reader.buf)? {
                self.reader.buf.drain(..r.consumed);
                return Ok((r.status, r.body));
            }
            match self.stream.read(&mut self.reader.chunk) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => {
                    let Reader { buf, chunk } = &mut self.reader;
                    buf.extend_from_slice(&chunk[..n]);
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                    if waiting.elapsed() >= Duration::from_secs(20) {
                        return Err("no response within 20 s".into());
                    }
                    std::thread::yield_now();
                }
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }
}

fn spans(rec: &mut Recorder, start: Instant, r: &Record) {
    let at = |ns: u64| start + Duration::from_nanos(ns);
    let seq = u64::from(r.seq);
    let root = rec.reserve();
    rec.record(
        seq,
        Some(root),
        "client.wait",
        at(r.due_ns),
        at(r.sent_ns),
        vec![],
    );
    rec.record(
        seq,
        Some(root),
        "client.send_receive",
        at(r.sent_ns),
        at(r.done_ns),
        vec![("bytes", r.len as f64)],
    );
    rec.record_as(
        root,
        seq,
        None,
        "client.request",
        at(r.due_ns),
        at(r.done_ns),
        vec![],
    );
}

/// An open-loop phase: `schedule[i] = (due offset, request index)`,
/// request `i` on connection `i % conns`. Two threads whatever `conns` is:
/// the calling thread sends each request at its due time, and a receiver
/// thread polls every connection and matches responses to requests in
/// order. Returns every record (unanswered ones included),
/// the errors met, and the receiver's spans when `rec` is given.
pub fn open_loop(
    addr: &str,
    requests: &[Vec<u8>],
    schedule: &[(Duration, u32)],
    conns: usize,
    start: Instant,
    deadline: Instant,
    rec: Option<Recorder>,
) -> (Vec<Record>, Vec<String>, Option<Recorder>) {
    let n = schedule.len();
    let mut errors = Vec::new();
    let mut writers = Vec::new();
    let mut readers = Vec::new();
    for _ in 0..conns {
        match connect(addr).and_then(|w| {
            let r = w.try_clone().map_err(|e| e.to_string())?;
            r.set_nonblocking(true).map_err(|e| e.to_string())?;
            Ok((w, r))
        }) {
            Ok((w, r)) => {
                writers.push(w);
                readers.push(r);
            }
            Err(e) => return (Vec::new(), vec![e], rec),
        }
    }
    let sent_ns: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let stop = AtomicBool::new(false);
    let ns = |t: Instant| t.saturating_duration_since(start).as_nanos() as u64;
    let (done, rx_errors, rec) = std::thread::scope(|scope| {
        let sent_ns = &sent_ns;
        let stop = &stop;
        let receiver =
            scope.spawn(move || receive(readers, schedule, sent_ns, stop, start, deadline, rec));
        for (i, &(due, req)) in schedule.iter().enumerate() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let due_at = start + due;
            while Instant::now() < due_at {
                std::thread::yield_now();
            }
            if Instant::now() >= deadline {
                errors.push("sender passed the deadline".to_string());
                break;
            }
            let sent = Instant::now();
            sent_ns[i].store(ns(sent).max(1), Ordering::SeqCst);
            if let Err(e) = write_all(&mut writers[i % conns], &requests[req as usize]) {
                errors.push(e);
                stop.store(true, Ordering::SeqCst);
                break;
            }
        }
        receiver
            .join()
            .unwrap_or_else(|_| (Vec::new(), vec!["receiver panicked".to_string()], None))
    });
    errors.extend(rx_errors);
    let records = schedule
        .iter()
        .enumerate()
        .map(|(i, &(due, req))| {
            let (done_ns, r) = done.get(i).copied().flatten().unwrap_or((
                0,
                Response {
                    status: 0,
                    hash: 0,
                    len: 0,
                    consumed: 0,
                },
            ));
            Record {
                req,
                seq: i as u32,
                due_ns: due.as_nanos() as u64,
                sent_ns: sent_ns[i].load(Ordering::SeqCst),
                done_ns,
                status: r.status,
                hash: r.hash,
                len: r.len,
            }
        })
        .collect();
    (records, errors, rec)
}

type Done = Vec<Option<(u64, Response)>>;

fn receive(
    mut readers: Vec<TcpStream>,
    schedule: &[(Duration, u32)],
    sent_ns: &[AtomicU64],
    stop: &AtomicBool,
    start: Instant,
    deadline: Instant,
    mut rec: Option<Recorder>,
) -> (Done, Vec<String>, Option<Recorder>) {
    let n = schedule.len();
    let conns = readers.len();
    let mut done: Done = vec![None; n];
    let mut errors = Vec::new();
    let mut bufs: Vec<Reader> = (0..conns).map(|_| Reader::new()).collect();
    // Responses matched so far on each connection.
    let mut matched = vec![0usize; conns];
    let mut received = 0;
    while received < n {
        let now = Instant::now();
        if now >= deadline {
            errors.push(format!(
                "{} requests unanswered at the deadline",
                n - received
            ));
            break;
        }
        let mut failed = false;
        let mut idle = true;
        for c in 0..conns {
            let responses = match bufs[c].read(&mut readers[c]) {
                Ok(r) => r,
                Err(e) => {
                    errors.push(e);
                    failed = true;
                    break;
                }
            };
            let at = start.elapsed().as_nanos() as u64;
            idle &= responses.is_empty();
            for r in responses {
                let i = c + matched[c] * conns;
                matched[c] += 1;
                if i >= n || sent_ns[i].load(Ordering::SeqCst) == 0 {
                    errors.push("response without a request".into());
                    failed = true;
                    break;
                }
                done[i] = Some((at, r));
                received += 1;
                if let Some(rec) = rec.as_mut() {
                    let record = Record {
                        req: schedule[i].1,
                        seq: i as u32,
                        due_ns: schedule[i].0.as_nanos() as u64,
                        sent_ns: sent_ns[i].load(Ordering::SeqCst),
                        done_ns: at,
                        status: r.status,
                        hash: r.hash,
                        len: r.len,
                    };
                    spans(rec, start, &record);
                }
            }
        }
        if failed {
            break;
        }
        if idle {
            std::thread::yield_now();
        }
    }
    if received < n {
        stop.store(true, Ordering::SeqCst);
    }
    (done, errors, rec)
}

/// A closed-loop phase on one connection with at most `window` requests
/// outstanding: send until the window is full, wait for an answer, send
/// the next, until `stop` or the schedule runs out. With `window = 1` this
/// is one request at a time; a wider window keeps the server busy instead
/// of measuring the round trip between client and server wake-ups.
/// Reads poll the non-blocking socket, yielding while nothing has arrived.
pub fn closed_loop(
    addr: &str,
    requests: &[Vec<u8>],
    schedule: &[u32],
    window: usize,
    start: Instant,
    stop: Instant,
) -> (Vec<Record>, Option<String>) {
    let mut records: Vec<Record> = Vec::new();
    let ns = |t: Instant| t.saturating_duration_since(start).as_nanos() as u64;
    let mut stream = match connect(addr) {
        Ok(s) => s,
        Err(e) => return (records, Some(e)),
    };
    if let Err(e) = stream.set_nonblocking(true) {
        return (records, Some(e.to_string()));
    }
    let mut reader = Reader::new();
    let mut answered = 0;
    let mut last_answer = Instant::now();
    loop {
        while records.len() - answered < window.max(1) && records.len() < schedule.len() {
            let sent = Instant::now();
            if sent >= stop {
                break;
            }
            let req = schedule[records.len()];
            if let Err(e) = write_all(&mut stream, &requests[req as usize]) {
                return (records, Some(e));
            }
            records.push(Record {
                req,
                seq: records.len() as u32,
                due_ns: ns(sent),
                sent_ns: ns(sent),
                done_ns: 0,
                status: 0,
                hash: 0,
                len: 0,
            });
        }
        if answered == records.len() {
            return (records, None);
        }
        let done = match reader.read(&mut stream) {
            Ok(done) => done,
            Err(e) => return (records, Some(e)),
        };
        if done.is_empty() {
            if last_answer.elapsed() >= Duration::from_secs(20) {
                return (records, Some("no response within 20 s".into()));
            }
            std::thread::yield_now();
            continue;
        }
        last_answer = Instant::now();
        let at = ns(Instant::now());
        for r in done {
            let Some(record) = records.get_mut(answered) else {
                return (records, Some("response without a request".into()));
            };
            record.done_ns = at;
            record.status = r.status;
            record.hash = r.hash;
            record.len = r.len;
            answered += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;
    use std::net::TcpListener;

    #[test]
    fn parses_pipelined_responses_and_waits_for_partial_ones() {
        let one = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi";
        let two = b"HTTP/1.1 503 Service Unavailable\r\ncontent-length: 3\r\n\r\nbye";
        let mut buf = one.to_vec();
        buf.extend_from_slice(two);
        let a = parse_response(&buf).unwrap().unwrap();
        assert_eq!((a.status, a.len, a.consumed), (200, 2, one.len()));
        assert_eq!(a.hash, fnv1a(b"hi"));
        let b = parse_response(&buf[a.consumed..]).unwrap().unwrap();
        assert_eq!((b.status, b.len), (503, 3));
        assert_eq!(parse_response(&one[..one.len() - 1]).unwrap(), None);
        assert_eq!(parse_response(b"HTTP/1.1 200 OK\r\n").unwrap(), None);
        assert!(parse_response(b"HTTP/1.1 200 OK\r\n\r\n").is_err());
        // Chunked bodies (the stream endpoints) are dechunked, with a
        // chunk extension, and complete only after the last chunk.
        let chunked = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n4\r\n{\"a\"\r\n3;x=1\r\n:1}\r\n0\r\n\r\n";
        let mut buf = chunked.to_vec();
        buf.extend_from_slice(one);
        for cut in 0..chunked.len() {
            assert_eq!(parse_text_response(&buf[..cut]).unwrap(), None, "cut {cut}");
        }
        let c = parse_text_response(&buf).unwrap().unwrap();
        assert_eq!(
            (c.status, c.body.as_str(), c.consumed),
            (200, "{\"a\":1}", chunked.len())
        );
        let d = parse_text_response(&buf[c.consumed..]).unwrap().unwrap();
        assert_eq!((d.status, d.body.as_str()), (200, "hi"));
    }

    /// A fake server that answers each request at once, except the
    /// `stall_at`-th, which it holds for `stall` first.
    fn fake_server(stall_at: usize, stall: Duration) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let mut served = 0;
            loop {
                let mut length = 0;
                loop {
                    let mut line = String::new();
                    if reader.read_line(&mut line).unwrap_or(0) == 0 {
                        return;
                    }
                    if line == "\r\n" {
                        break;
                    }
                    if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                        length = v.trim().parse().unwrap();
                    }
                }
                let mut body = vec![0; length];
                reader.read_exact(&mut body).unwrap();
                if served == stall_at {
                    std::thread::sleep(stall);
                }
                served += 1;
                let reply = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";
                if writer.write_all(reply).is_err() {
                    return;
                }
            }
        });
        (addr, handle)
    }

    const GAP_MS: u64 = 5;
    const REQUESTS: u32 = 60;

    fn open_loop_latencies(stall_at: usize, stall: Duration) -> Vec<Record> {
        let (addr, server) = fake_server(stall_at, stall);
        let requests = vec![post("/x", "{}")];
        let gap = Duration::from_millis(GAP_MS);
        let schedule: Vec<(Duration, u32)> = (0..REQUESTS).map(|i| (gap * i, 0)).collect();
        let start = Instant::now();
        let (records, errors, _) = open_loop(
            &addr,
            &requests,
            &schedule,
            1,
            start,
            start + Duration::from_secs(10),
            None,
        );
        assert!(errors.is_empty(), "{errors:?}");
        server.join().unwrap();
        records
    }

    #[test]
    fn a_stalled_server_raises_latency_of_requests_due_during_the_stall() {
        let stall = Duration::from_millis(150);
        let records = open_loop_latencies(5, stall);
        assert_eq!(records.len(), REQUESTS as usize);
        assert!(records
            .iter()
            .all(|r| r.status == 200 && r.hash == fnv1a(b"ok")));
        // The generator kept its schedule: requests were sent on time even
        // while the stalled one was outstanding.
        let late: Vec<f64> = records.iter().map(Record::late_ms).collect();
        assert!(
            late.iter().all(|&l| l < 50.0),
            "generator fell behind: {late:?}"
        );
        // Every request due during the stall waited behind it, and its
        // latency counts that wait from its due time.
        let stalled_at = records[5].due_ns;
        let behind: Vec<&Record> = records
            .iter()
            .filter(|r| r.due_ns > stalled_at && r.due_ns < stalled_at + 120_000_000)
            .collect();
        assert!(
            behind.len() >= 20,
            "{} requests behind the stall",
            behind.len()
        );
        for r in behind {
            let expected = (stalled_at + stall.as_nanos() as u64 - r.due_ns) as f64 / 1e6;
            assert!(
                r.due_latency_ms() >= expected - 1.0,
                "request due {} ms into the stall measured {} ms",
                (r.due_ns - stalled_at) as f64 / 1e6,
                r.due_latency_ms()
            );
        }
        let worst = |rs: &[Record]| rs.iter().map(Record::due_latency_ms).fold(0.0, f64::max);
        assert!(
            worst(&records) >= 150.0,
            "stalled run's worst: {}",
            worst(&records)
        );
        let without = open_loop_latencies(usize::MAX, Duration::ZERO);
        assert!(
            worst(&without) < 75.0,
            "unstalled run's worst: {}",
            worst(&without)
        );
    }

    #[test]
    fn closed_loop_sends_one_request_at_a_time() {
        let (addr, server) = fake_server(usize::MAX, Duration::ZERO);
        let requests = vec![post("/x", "{}")];
        let start = Instant::now();
        let (records, error) = closed_loop(
            &addr,
            &requests,
            &[0; 25],
            1,
            start,
            start + Duration::from_secs(5),
        );
        assert_eq!(error, None);
        assert_eq!(records.len(), 25);
        for w in records.windows(2) {
            assert!(w[1].sent_ns >= w[0].done_ns);
        }
        server.join().unwrap();

        // A window of 4 keeps up to four requests outstanding.
        let (addr, server) = fake_server(usize::MAX, Duration::ZERO);
        let start = Instant::now();
        let (records, error) = closed_loop(
            &addr,
            &requests,
            &[0; 25],
            4,
            start,
            start + Duration::from_secs(5),
        );
        assert_eq!(error, None);
        assert_eq!(records.len(), 25);
        assert!(records.iter().all(|r| r.status == 200));
        for (k, r) in records.iter().enumerate().skip(4) {
            assert!(
                r.sent_ns >= records[k - 4].done_ns,
                "more than 4 outstanding at {k}"
            );
        }
        server.join().unwrap();
    }
}
