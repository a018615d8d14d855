//! Load generation against the daemon: the open loop (Poisson arrivals,
//! one writer thread and one reader thread multiplexing every socket) and
//! the closed loop (one blocking connection per client).
//!
//! Either way the generator uses at most `nproc` threads and `nproc`
//! connections, so it never needs more cores than the machine has.

use crate::stream::{Arrival, ClosedStream, Item};
use silio::{Events, Interest, Poll, Token};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// After the last arrival the reader waits this long for stragglers
/// before counting them unanswered.
const DRAIN: Duration = Duration::from_secs(5);

/// One reply as the generator saw it.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Index of the request in its stream.
    pub index: usize,
    /// Client latency in µs (open loop: from when the request was due).
    pub latency_us: f64,
    /// When the reply arrived, seconds from the start of the loop.
    pub done_s: f64,
    /// The reply line, without its newline.
    pub line: String,
}

/// What one open-loop load point measured.
#[derive(Debug, Clone)]
pub struct OpenPoint {
    pub offered_rps: f64,
    pub sent: usize,
    pub replies: Vec<Reply>,
    /// Per request: how late its write started relative to its schedule.
    pub slip_us: Vec<f64>,
    /// Mean inter-arrival gap of the whole stream, µs.
    pub mean_gap_us: f64,
    /// Requests still unanswered when the last one was sent.
    pub backlog_at_end: usize,
    /// Scheduled length of the point, seconds (last arrival's due time).
    pub schedule_s: f64,
    /// Time from the point's start to its last reply, seconds.
    pub last_reply_s: f64,
}

impl OpenPoint {
    /// Requests the schedule actually offered per second.
    pub fn offered_actual_rps(&self) -> f64 {
        self.sent as f64 / self.schedule_s.max(1e-9)
    }

    pub fn achieved_rps(&self) -> f64 {
        self.replies.len() as f64 / self.last_reply_s.max(self.schedule_s).max(1e-9)
    }
}

fn micros_since(base: Instant) -> f64 {
    base.elapsed().as_nanos() as f64 / 1_000.0
}

/// Write all of `bytes` to a nonblocking socket, waiting out a full send
/// buffer.
fn write_fully(stream: &mut UnixStream, mut bytes: &[u8]) -> std::io::Result<()> {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_micros(20))
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Offer `arrivals` (request `k` is `lines[arrivals[k].rank]`) over
/// `connections` sockets, round-robin.  The calling thread writes on
/// schedule; one spawned thread reads every socket through one poller.
pub fn open_loop(
    socket: &Path,
    connections: usize,
    lines: &[String],
    arrivals: &[Arrival],
    offered_rps: f64,
) -> Result<OpenPoint, String> {
    let mut writers = Vec::with_capacity(connections);
    let mut readers = Vec::with_capacity(connections);
    for _ in 0..connections {
        let stream = UnixStream::connect(socket).map_err(|e| format!("connect: {e}"))?;
        let reader = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        // One open file description: this makes the writer nonblocking too.
        reader
            .set_nonblocking(true)
            .map_err(|e| format!("nonblocking: {e}"))?;
        writers.push(stream);
        readers.push(reader);
    }
    let queues: Vec<Mutex<VecDeque<(usize, f64)>>> = (0..connections)
        .map(|_| Mutex::new(VecDeque::new()))
        .collect();
    let received = AtomicUsize::new(0);
    let done_sending = AtomicBool::new(false);
    let last_reply_us = AtomicU64::new(0);
    // Start slightly in the future so the first arrival is not late.
    let base = Instant::now() + Duration::from_millis(2);
    let mut slip_us = Vec::with_capacity(arrivals.len());
    let mut backlog_at_end = 0;

    let replies = std::thread::scope(|scope| -> Result<Vec<Reply>, String> {
        let reader = scope.spawn(|| {
            read_replies(
                readers,
                &queues,
                base,
                &received,
                &done_sending,
                &last_reply_us,
            )
        });
        let mut failure = None;
        for (k, arrival) in arrivals.iter().enumerate() {
            let due_us = arrival.due * 1e6;
            let now = micros_since(base);
            if due_us > now {
                std::thread::sleep(Duration::from_nanos(((due_us - now) * 1e3) as u64));
            }
            let conn = k % connections;
            queues[conn]
                .lock()
                .expect("queue lock poisoned by a panicking reader")
                .push_back((k, due_us));
            slip_us.push((micros_since(base) - due_us).max(0.0));
            if let Err(e) = write_fully(&mut writers[conn], lines[arrival.rank].as_bytes()) {
                failure = Some(format!("write: {e}"));
                break;
            }
        }
        backlog_at_end = slip_us.len() - received.load(Ordering::SeqCst).min(slip_us.len());
        done_sending.store(true, Ordering::SeqCst);
        let replies = reader.join().expect("reader thread panicked")?;
        match failure {
            Some(e) => Err(e),
            None => Ok(replies),
        }
    })?;

    Ok(OpenPoint {
        offered_rps,
        sent: slip_us.len(),
        replies,
        slip_us,
        mean_gap_us: 1e6 / offered_rps,
        backlog_at_end,
        schedule_s: arrivals.last().map_or(0.0, |a| a.due),
        last_reply_s: last_reply_us.load(Ordering::SeqCst) as f64 / 1e6,
    })
}

fn read_replies(
    mut streams: Vec<UnixStream>,
    queues: &[Mutex<VecDeque<(usize, f64)>>],
    base: Instant,
    received: &AtomicUsize,
    done_sending: &AtomicBool,
    last_reply_us: &AtomicU64,
) -> Result<Vec<Reply>, String> {
    let poll = Poll::new().map_err(|e| format!("poll: {e}"))?;
    for (c, stream) in streams.iter().enumerate() {
        poll.register(stream, Token(c), Interest::READABLE)
            .map_err(|e| format!("register: {e}"))?;
    }
    let mut events = Events::with_capacity(16);
    let mut partial: Vec<Vec<u8>> = vec![Vec::new(); streams.len()];
    let mut chunk = vec![0u8; 64 * 1024];
    let mut replies = Vec::new();
    let mut drain_deadline: Option<Instant> = None;
    loop {
        let outstanding: usize = queues
            .iter()
            .map(|q| q.lock().expect("queue lock poisoned").len())
            .sum();
        if done_sending.load(Ordering::SeqCst) {
            if outstanding == 0 {
                return Ok(replies);
            }
            let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN);
            if Instant::now() > deadline {
                return Ok(replies);
            }
        }
        poll.poll(&mut events, Some(Duration::from_millis(5)))
            .map_err(|e| format!("poll: {e}"))?;
        for event in events.iter() {
            let c = event.token().0;
            loop {
                match streams[c].read(&mut chunk) {
                    Ok(0) => return Err("the daemon closed a connection".to_string()),
                    Ok(n) => partial[c].extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(format!("read: {e}")),
                }
            }
            while let Some(end) = partial[c].iter().position(|&b| b == b'\n') {
                let now = micros_since(base);
                let line: Vec<u8> = partial[c].drain(..=end).collect();
                let (index, due_us) = queues[c]
                    .lock()
                    .expect("queue lock poisoned")
                    .pop_front()
                    .ok_or("a reply arrived for no outstanding request")?;
                replies.push(Reply {
                    index,
                    latency_us: now - due_us,
                    done_s: now / 1e6,
                    line: String::from_utf8_lossy(&line[..line.len() - 1]).into_owned(),
                });
                received.fetch_add(1, Ordering::SeqCst);
                last_reply_us.fetch_max(now as u64, Ordering::SeqCst);
            }
        }
    }
}

/// What a closed-loop run measured.
#[derive(Debug, Clone, Default)]
pub struct ClosedRun {
    pub replies: Vec<Reply>,
    /// Every request sent, with its stream index, in index order.
    pub sent: Vec<(usize, Item)>,
    pub wall_s: f64,
}

/// `clients` callers, each with one connection, each sending stream
/// request `next` and waiting for its reply, until `seconds` pass.  The
/// calling thread is one of the clients.
pub fn closed_loop(
    socket: &Path,
    clients: usize,
    stream: &ClosedStream,
    seconds: f64,
) -> Result<ClosedRun, String> {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let client = || -> Result<ClosedRun, String> {
        let writer = UnixStream::connect(socket).map_err(|e| format!("connect: {e}"))?;
        let mut reader = BufReader::new(writer.try_clone().map_err(|e| format!("clone: {e}"))?);
        let mut writer = writer;
        let mut mine = ClosedRun::default();
        let mut line = String::new();
        while Instant::now() < deadline {
            let index = next.fetch_add(1, Ordering::SeqCst);
            let item = stream.item(index as u64);
            let sent_at = Instant::now();
            line.clear();
            let answered = writer
                .write_all(item.line.as_bytes())
                .and_then(|_| reader.read_line(&mut line));
            let latency_us = sent_at.elapsed().as_nanos() as f64 / 1_000.0;
            mine.sent.push((index, item));
            match answered {
                Ok(n) if n > 0 && line.ends_with('\n') => mine.replies.push(Reply {
                    index,
                    latency_us,
                    done_s: start.elapsed().as_secs_f64(),
                    line: line.trim_end().to_string(),
                }),
                // A request without a reply stays in `sent`, where
                // verification counts it unanswered.
                _ => break,
            }
        }
        Ok(mine)
    };
    let results = std::thread::scope(|scope| {
        let others: Vec<_> = (1..clients).map(|_| scope.spawn(client)).collect();
        let mut results = vec![client()];
        results.extend(
            others
                .into_iter()
                .map(|h| h.join().expect("client thread panicked")),
        );
        results
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut run = ClosedRun {
        wall_s,
        ..ClosedRun::default()
    };
    for result in results {
        let mine = result?;
        run.replies.extend(mine.replies);
        run.sent.extend(mine.sent);
    }
    run.replies.sort_by_key(|r| r.index);
    run.sent.sort_by_key(|(index, _)| *index);
    Ok(run)
}

/// Outcome of probing one offered rate during the knee search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probe {
    pub offered: f64,
    pub passed: bool,
    pub achieved: f64,
}

/// Find the highest passing offered rate: grow geometrically from `start`
/// until a rate fails (or shrink until one passes), then bisect
/// geometrically `refine` times.  Returns the best passing probe, or
/// `None` when no probed rate passed.
pub fn knee_search(
    start: f64,
    growth: f64,
    refine: usize,
    max_growth_steps: usize,
    mut probe: impl FnMut(f64) -> Probe,
) -> (Option<Probe>, Vec<Probe>) {
    let mut probes = Vec::new();
    let mut best: Option<Probe> = None;
    let mut lo: Option<f64> = None;
    let mut hi: Option<f64> = None;
    let mut rate = start;
    for _ in 0..max_growth_steps {
        let p = probe(rate);
        probes.push(p);
        if p.passed {
            best = Some(p);
            lo = Some(rate);
            if hi.is_some() {
                break;
            }
            rate *= growth;
        } else {
            hi = Some(rate);
            if lo.is_some() {
                break;
            }
            rate /= growth;
        }
    }
    if let (Some(mut lo), Some(mut hi)) = (lo, hi) {
        for _ in 0..refine {
            let mid = (lo * hi).sqrt();
            let p = probe(mid);
            probes.push(p);
            if p.passed {
                lo = mid;
                best = Some(p);
            } else {
                hi = mid;
            }
        }
    }
    (best, probes)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic server: passes below its capacity, where it achieves
    /// the offered rate.
    fn server(capacity: f64) -> impl FnMut(f64) -> Probe {
        move |offered| Probe {
            offered,
            passed: offered <= capacity,
            achieved: offered.min(capacity),
        }
    }

    #[test]
    fn knee_search_finds_the_capacity_from_below() {
        let (best, probes) = knee_search(1000.0, 1.5, 5, 12, server(2700.0));
        let best = best.expect("a passing rate exists");
        assert!(best.offered <= 2700.0, "never reports a failing rate");
        assert!(best.offered >= 2700.0 * 0.97, "within 3%: {}", best.offered);
        assert!(probes.len() <= 4 + 5);
    }

    #[test]
    fn knee_search_descends_when_the_start_fails() {
        let (best, _) = knee_search(1000.0, 1.5, 6, 12, server(300.0));
        let best = best.expect("a passing rate exists");
        assert!(best.offered <= 300.0 && best.offered >= 300.0 * 0.95);
    }

    #[test]
    fn knee_search_reports_nothing_when_nothing_passes() {
        let (best, probes) = knee_search(1000.0, 2.0, 3, 4, server(0.0));
        assert!(best.is_none());
        assert_eq!(probes.len(), 4);
    }
}
