//! The line-framed connection state machine: [`LineConn`] owns one
//! nonblocking [`Stream`] plus its read and write buffers, and turns raw
//! readiness into whole protocol lines in and backpressured line writes
//! out.
//!
//! * **Reads** accumulate into an internal buffer until `\n`; a readiness
//!   round returns every complete line it uncovered ([`Drained`]), leaving
//!   a trailing partial line buffered for the next round.  A line that
//!   grows past [`MAX_LINE_BYTES`] without a newline is a protocol
//!   violation and fails the connection before it can exhaust memory.
//! * **Writes** queue whole lines and flush as far as the kernel buffer
//!   allows; [`LineConn::wants_write`] tells the event loop whether to add
//!   writable interest (backpressure) or drop it (all drained).  A slow or
//!   stalled reader therefore costs bounded memory and zero threads.

use crate::net::Stream;
use std::io::{self, Read, Write};

/// Upper bound on one framed line (request or response).  Batch requests
/// carry whole program corpora, so the bound is generous — but it exists,
/// so one malicious newline-free connection cannot grow a buffer forever.
pub const MAX_LINE_BYTES: usize = 64 * 1024 * 1024;

/// How much one readiness round reads per syscall.
const READ_CHUNK: usize = 16 * 1024;

/// Upper bound on bytes one [`LineConn::read_ready`] call consumes before
/// yielding — the fairness valve that keeps one flooding connection from
/// starving an event loop, and the bound on how far a connection's
/// pending work can grow in a single round.
pub const READ_BUDGET: usize = 64 * 1024;

/// What one read-readiness round produced.
#[derive(Debug, Default)]
pub struct Drained {
    /// Complete lines, in arrival order, newline stripped (and `\r\n`
    /// tolerated).  Bytes are decoded lossily: the protocol layer above
    /// rejects non-JSON lines with its own error, so invalid UTF-8 becomes
    /// a well-formed "malformed request" exchange instead of a dead
    /// connection.
    pub lines: Vec<String>,
    /// The peer closed its write side; no further lines will arrive.
    pub eof: bool,
}

/// One nonblocking connection with line framing and write backpressure.
#[derive(Debug)]
pub struct LineConn {
    stream: Stream,
    rbuf: Vec<u8>,
    /// Leading bytes of `rbuf` already searched for `\n` (none found).
    scanned: usize,
    /// Outbound bytes not yet accepted by the kernel, starting at `wpos`.
    wbuf: Vec<u8>,
    wpos: usize,
}

impl LineConn {
    /// Wrap a nonblocking stream with empty buffers.
    pub fn new(stream: Stream) -> LineConn {
        LineConn {
            stream,
            rbuf: Vec::new(),
            scanned: 0,
            wbuf: Vec::new(),
            wpos: 0,
        }
    }

    /// The underlying stream (the event loop registers and deregisters it).
    pub fn stream(&self) -> &Stream {
        &self.stream
    }

    /// Service read readiness: pull what is currently available off the
    /// socket — up to [`READ_BUDGET`] bytes per call, so one firehosing
    /// connection cannot monopolize an event loop serving many — and
    /// return the complete lines it uncovered.  Level-triggered polling
    /// makes the budget safe: unread bytes re-fire readability, and the
    /// loop comes back after giving other connections a turn.
    ///
    /// Returns an error if the connection failed or a single line
    /// overflowed [`MAX_LINE_BYTES`]; the caller should drop the
    /// connection either way.
    pub fn read_ready(&mut self) -> io::Result<Drained> {
        let mut drained = Drained::default();
        let mut chunk = [0u8; READ_CHUNK];
        let mut consumed = 0usize;
        while consumed < READ_BUDGET {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    drained.eof = true;
                    break;
                }
                Ok(n) => {
                    self.rbuf.extend_from_slice(&chunk[..n]);
                    consumed += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        // Split every complete line out of the buffer, keeping the tail.
        // The partial line left by earlier rounds was already searched, so
        // the search resumes at the scan cursor: each byte is examined
        // once, however many rounds a long line spans.
        let mut start = 0;
        let mut from = self.scanned;
        while let Some(offset) = self.rbuf[from..].iter().position(|&b| b == b'\n') {
            let end = from + offset;
            let mut line = &self.rbuf[start..end];
            if line.last() == Some(&b'\r') {
                line = &line[..line.len() - 1];
            }
            drained
                .lines
                .push(String::from_utf8_lossy(line).into_owned());
            start = end + 1;
            from = start;
        }
        if start > 0 {
            self.rbuf.drain(..start);
        }
        self.scanned = self.rbuf.len();
        // Whatever remains is one partial line; bound it.  (Checking after
        // extraction keeps the check O(1) per round while still catching a
        // newline-free flood within one budget of the limit.)
        if self.rbuf.len() > MAX_LINE_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line exceeds {MAX_LINE_BYTES} bytes without a newline"),
            ));
        }
        Ok(drained)
    }

    /// Queue one line (newline appended) for writing and push as much of
    /// the queue as the kernel will take.  Check [`LineConn::wants_write`]
    /// afterwards to decide whether writable interest is needed.
    pub fn enqueue_line(&mut self, line: &str) -> io::Result<()> {
        self.wbuf.extend_from_slice(line.as_bytes());
        self.wbuf.push(b'\n');
        self.write_ready()
    }

    /// Service write readiness: flush queued bytes until the queue empties
    /// or the kernel pushes back.  Returns an error if the connection
    /// failed; the caller should drop it.
    pub fn write_ready(&mut self) -> io::Result<()> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "connection accepted zero bytes",
                    ))
                }
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.wpos >= self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        } else if self.wpos > READ_CHUNK {
            // Reclaim flushed prefix bytes so a long-lived backpressured
            // connection does not keep its whole history buffered.
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
        Ok(())
    }

    /// Whether flushed-but-unaccepted bytes remain (the backpressure
    /// signal: register writable interest exactly while this is true).
    pub fn wants_write(&self) -> bool {
        self.wpos < self.wbuf.len()
    }

    /// Bytes currently queued for write (tests assert backpressure bounds).
    pub fn queued_bytes(&self) -> usize {
        self.wbuf.len() - self.wpos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::net::UnixStream;

    fn pair() -> (UnixStream, LineConn) {
        let (client, server) = UnixStream::pair().unwrap();
        (client, LineConn::new(Stream::from_unix(server).unwrap()))
    }

    #[test]
    fn lines_are_framed_across_arbitrary_chunk_boundaries() {
        let (mut client, mut conn) = pair();
        client.write_all(b"first li").unwrap();
        let drained = conn.read_ready().unwrap();
        assert!(drained.lines.is_empty(), "partial line stays buffered");
        assert!(!drained.eof);

        client.write_all(b"ne\r\nsecond\nthird part").unwrap();
        let drained = conn.read_ready().unwrap();
        assert_eq!(drained.lines, vec!["first line", "second"]);

        client.write_all(b"ial\n").unwrap();
        drop(client);
        let drained = conn.read_ready().unwrap();
        assert_eq!(drained.lines, vec!["third partial"]);
        assert!(drained.eof, "peer close is reported with the final lines");
    }

    #[test]
    fn empty_and_invalid_utf8_lines_survive_framing() {
        let (mut client, mut conn) = pair();
        client.write_all(b"\n\xff\xfe garbage \xff\nok\n").unwrap();
        let drained = conn.read_ready().unwrap();
        assert_eq!(drained.lines.len(), 3);
        assert_eq!(drained.lines[0], "");
        assert!(drained.lines[1].contains('\u{FFFD}'), "lossy decode");
        assert_eq!(drained.lines[2], "ok");
    }

    #[test]
    fn write_backpressure_queues_and_drains() {
        let (mut client, mut conn) = pair();
        // Stuff the kernel buffer until the conn reports backpressure.
        let big = "x".repeat(64 * 1024);
        let mut queued = false;
        for _ in 0..64 {
            conn.enqueue_line(&big).unwrap();
            if conn.wants_write() {
                queued = true;
                break;
            }
        }
        assert!(queued, "a never-reading peer must trigger backpressure");
        let backlog = conn.queued_bytes();
        assert!(backlog > 0);

        // Drain the client side; the conn can then flush the rest.
        let mut sink = vec![0u8; 1 << 20];
        let mut total = 0usize;
        client.set_nonblocking(true).unwrap();
        while conn.wants_write() {
            match client.read(&mut sink) {
                Ok(0) => break,
                Ok(n) => total += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    conn.write_ready().unwrap();
                }
                Err(e) => panic!("{e}"),
            }
        }
        conn.write_ready().unwrap();
        assert!(!conn.wants_write());
        assert!(total > 0);
        assert_eq!(conn.queued_bytes(), 0);
    }

    /// One readiness round consumes at most [`READ_BUDGET`] bytes: a
    /// firehosing peer gets its lines over several calls (level-triggered
    /// polling re-fires for the remainder) instead of monopolizing one.
    #[test]
    fn read_rounds_are_budget_bounded_for_fairness() {
        let (mut client, mut conn) = pair();
        let line = "x".repeat(99); // 100 bytes with the newline
        let lines = 2 * READ_BUDGET / 100;
        let mut flood = String::new();
        for _ in 0..lines {
            flood.push_str(&line);
            flood.push('\n');
        }
        let writer = std::thread::spawn(move || {
            client.write_all(flood.as_bytes()).unwrap();
            client
        });
        let mut total = 0usize;
        let mut rounds = 0usize;
        while total < lines {
            let drained = conn.read_ready().unwrap();
            assert!(
                drained.lines.len() <= READ_BUDGET / 100 + READ_CHUNK / 100 + 2,
                "one round must not exceed its budget by more than a chunk: {}",
                drained.lines.len()
            );
            total += drained.lines.len();
            rounds += 1;
        }
        assert_eq!(total, lines);
        assert!(rounds >= 2, "the flood must take several rounds");
        let _client = writer.join().unwrap();
    }

    /// Framing a long line costs the same per byte as a short one (best
    /// of 3 each, ratio ≤ 8): a round searches only the bytes it read, not
    /// the partial line that earlier rounds buffered.
    #[test]
    fn framing_time_per_byte_is_flat_for_long_lines() {
        fn per_byte(bytes: usize) -> f64 {
            let (mut client, mut conn) = pair();
            let writer = std::thread::spawn(move || {
                let mut line = vec![b'x'; bytes];
                line.push(b'\n');
                client.write_all(&line).unwrap();
                client
            });
            let started = std::time::Instant::now();
            let mut lines = Vec::new();
            while lines.is_empty() {
                lines = conn.read_ready().unwrap().lines;
            }
            let took = started.elapsed();
            assert_eq!(lines[0].len(), bytes);
            let _client = writer.join().unwrap();
            took.as_secs_f64() / bytes as f64
        }
        let best = |bytes| {
            (0..3)
                .map(|_| per_byte(bytes))
                .fold(f64::INFINITY, f64::min)
        };
        let ratio = best(8 << 20) / best(64 << 10);
        assert!(
            ratio <= 8.0,
            "an 8 MiB line frames {ratio:.1}x slower per byte than a 64 KiB one"
        );
    }

    #[test]
    fn oversized_newline_free_input_is_rejected() {
        let (client_half, server_half) = UnixStream::pair().unwrap();
        let mut conn = LineConn::new(Stream::from_unix(server_half).unwrap());
        let mut client = client_half;
        let writer = std::thread::spawn(move || {
            let chunk = vec![b'a'; 1 << 20];
            // Stream > MAX_LINE_BYTES without ever sending a newline; stop
            // when the server drops the connection.
            for _ in 0..(MAX_LINE_BYTES / chunk.len()) + 2 {
                if client.write_all(&chunk).is_err() {
                    return;
                }
            }
        });
        let error = loop {
            match conn.read_ready() {
                Ok(_) => std::thread::sleep(std::time::Duration::from_millis(1)),
                Err(e) => break e,
            }
        };
        assert_eq!(error.kind(), io::ErrorKind::InvalidData);
        drop(conn); // closes the socket so the writer unblocks
        writer.join().unwrap();
    }
}
