//! The load generator: a closed-loop pipelined ingest client and an
//! open-schedule query prober, plus the accounting both report.
//!
//! **Ingest** keeps up to a window of frames in flight on one v2
//! connection. A `Busy` reply re-queues its frame (retries keep the
//! original order), halves the window, and the client then sends
//! nothing until the next reply arrives; with nothing left in flight it
//! sleeps a doubling back-off. Each ack widens the window by one, up to
//! its limit. It never spins, and it does not keep the server decoding
//! frames it must refuse. A frame's latency runs from its *first*
//! send to its ack, so Busy retries count against it. A frame that is
//! answered with an error, or not at all before the read timeout, is a
//! failure; a Busy frame that is later acked is not.
//!
//! **Queries** follow a fixed schedule: query `i` is due at
//! `start + (i + ½)·period`. The prober has one query outstanding at a
//! time, so a stalled reply delays every later query; each latency is
//! timed from the query's due time, not from when it was sent, which
//! charges those delays to the system. How late the prober sent
//! (`lag`) is reported too; a lag that grows through a run means the
//! schedule is faster than the server can answer.

use std::collections::VecDeque;
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use tempstream_serve::wire::{encode_message, Frame, MessageReader, WireError};
use tempstream_trace::miss::MissRecord;
use tempstream_trace::MissClass;

/// First back-off after a Busy reply with nothing in flight.
pub const MIN_BACKOFF: Duration = Duration::from_micros(200);
/// Back-off cap.
pub const MAX_BACKOFF: Duration = Duration::from_millis(5);
/// A reply slower than this counts as a timeout.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// What came back for one request.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// The ingest frame was admitted; payload is the record count.
    Ack(u32),
    /// The ingest frame was refused for backpressure.
    Busy,
    /// Any other frame (a query answer, or an error).
    Other(Frame),
}

/// Why a receive produced no reply.
#[derive(Debug)]
pub enum LinkError {
    /// No reply within [`REPLY_TIMEOUT`].
    Timeout,
    /// The connection failed or sent bytes that do not decode.
    Broken(String),
}

impl std::fmt::Display for LinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkError::Timeout => write!(f, "no reply within {REPLY_TIMEOUT:?}"),
            LinkError::Broken(why) => f.write_str(why),
        }
    }
}

/// One connection's request/reply channel. Replies arrive in request
/// order (the server answers each connection FIFO).
pub trait Link {
    /// Sends frame `idx` of the pass (pre-encoded by the caller).
    fn send(&mut self, idx: usize) -> Result<(), LinkError>;
    /// Blocks for the next reply and the sequence id it echoes.
    fn recv(&mut self) -> Result<(Option<u32>, Reply), LinkError>;
}

/// A v2 connection to the server with a persistent reply decoder.
pub struct Conn {
    stream: TcpStream,
    reader: MessageReader,
    next_seq: u32,
}

impl Conn {
    /// Connects to the loopback server on `port`.
    pub fn connect(port: u16) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(("127.0.0.1", port))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            stream,
            reader: MessageReader::new(),
            next_seq: 1 << 31,
        })
    }

    /// Writes pre-encoded message bytes.
    pub fn send_bytes(&mut self, bytes: &[u8]) -> Result<(), LinkError> {
        self.stream
            .write_all(bytes)
            .map_err(|e| LinkError::Broken(format!("send: {e}")))
    }

    /// Reads the next reply message.
    pub fn recv_frame(&mut self) -> Result<(Option<u32>, Frame), LinkError> {
        match self.reader.next_from(&mut self.stream) {
            Ok(msg) => Ok((msg.seq, msg.frame)),
            Err(WireError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                Err(LinkError::Timeout)
            }
            Err(e) => Err(LinkError::Broken(format!("recv: {e}"))),
        }
    }

    /// One request, one reply (sequence ids above `2^31`, disjoint from
    /// the ingest frame indices).
    pub fn call(&mut self, frame: &Frame) -> Result<Frame, LinkError> {
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1) | (1 << 31);
        let mut bytes = Vec::new();
        encode_message(Some(seq), frame, &mut bytes)
            .map_err(|e| LinkError::Broken(format!("encode: {e}")))?;
        self.send_bytes(&bytes)?;
        let (got, reply) = self.recv_frame()?;
        if got != Some(seq) {
            return Err(LinkError::Broken(format!(
                "reply seq {got:?}, expected {seq}"
            )));
        }
        Ok(reply)
    }
}

/// Ingest frames of one pass, encoded before timing starts. Frame `i`
/// carries sequence id `i` on every send, so a retry needs no
/// re-encoding.
pub struct EncodedFrames {
    bytes: Vec<Vec<u8>>,
    lens: Vec<u32>,
}

impl EncodedFrames {
    /// Splits `records` into frames of `batch` records.
    pub fn new(records: &[MissRecord<MissClass>], batch: usize) -> Self {
        let mut bytes = Vec::new();
        let mut lens = Vec::new();
        for (i, chunk) in records.chunks(batch).enumerate() {
            let mut out = Vec::new();
            encode_message(
                Some(u32::try_from(i).expect("frame count fits u32")),
                &Frame::Ingest(chunk.to_vec()),
                &mut out,
            )
            .expect("ingest frames stay under the frame cap");
            bytes.push(out);
            lens.push(chunk.len() as u32);
        }
        EncodedFrames { bytes, lens }
    }

    /// Frames in the pass.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Records per frame.
    pub fn lens(&self) -> &[u32] {
        &self.lens
    }
}

/// A [`Link`] sending [`EncodedFrames`] over a [`Conn`].
pub struct TcpLink<'a> {
    /// The connection.
    pub conn: &'a mut Conn,
    /// The pass's frames.
    pub frames: &'a EncodedFrames,
}

impl Link for TcpLink<'_> {
    fn send(&mut self, idx: usize) -> Result<(), LinkError> {
        self.conn.send_bytes(&self.frames.bytes[idx])
    }

    fn recv(&mut self) -> Result<(Option<u32>, Reply), LinkError> {
        let (seq, frame) = self.conn.recv_frame()?;
        let reply = match frame {
            Frame::IngestAck(n) => Reply::Ack(n),
            Frame::Busy => Reply::Busy,
            other => Reply::Other(other),
        };
        Ok((seq, reply))
    }
}

/// What one ingest pass did.
#[derive(Debug, Default)]
pub struct PassOutcome {
    /// First send to last reply.
    pub wall: Duration,
    /// Frame indices in the order the server acked them.
    pub ack_order: Vec<usize>,
    /// Per acked frame: first send to ack, in ack order.
    pub latencies: Vec<Duration>,
    /// Busy replies (each later retried).
    pub busy: u64,
    /// Frames never acked (error reply, timeout or broken connection).
    pub failed: u64,
    /// Why the pass stopped early, if it did.
    pub error: Option<String>,
}

/// Streams frames `0..expected.len()` through `link` with up to
/// `max_window` in flight; `expected[i]` is frame `i`'s record count.
pub fn ingest_pass(link: &mut impl Link, expected: &[u32], max_window: usize) -> PassOutcome {
    let n = expected.len();
    let mut out = PassOutcome::default();
    let mut pending: VecDeque<usize> = (0..n).collect();
    let mut retry: VecDeque<usize> = VecDeque::new();
    let mut inflight: VecDeque<usize> = VecDeque::new();
    let mut first_send: Vec<Option<Instant>> = vec![None; n];
    let max_window = max_window.max(1);
    let mut window = max_window;
    let mut blocked = false;
    let mut backoff = MIN_BACKOFF;
    let start = Instant::now();
    let fail = |out: &mut PassOutcome, unacked: u64, why: String| {
        out.failed += unacked;
        out.error = Some(why);
    };
    loop {
        if !blocked {
            while inflight.len() < window {
                let Some(idx) = retry.pop_front().or_else(|| pending.pop_front()) else {
                    break;
                };
                first_send[idx].get_or_insert_with(Instant::now);
                if let Err(e) = link.send(idx) {
                    let unacked = (n - out.ack_order.len()) as u64;
                    fail(&mut out, unacked, e.to_string());
                    out.wall = start.elapsed();
                    return out;
                }
                inflight.push_back(idx);
            }
        }
        let Some(&idx) = inflight.front() else {
            if retry.is_empty() && pending.is_empty() {
                break;
            }
            // Every frame in flight came back Busy: back off, then resend.
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(MAX_BACKOFF);
            blocked = false;
            continue;
        };
        let reply = link.recv();
        let now = Instant::now();
        let unacked = (n - out.ack_order.len()) as u64;
        match reply {
            Ok((seq, _)) if seq != Some(idx as u32) => {
                fail(
                    &mut out,
                    unacked,
                    format!("reply seq {seq:?}, expected {idx}"),
                );
                break;
            }
            Ok((_, Reply::Ack(got))) if got == expected[idx] => {
                inflight.pop_front();
                out.ack_order.push(idx);
                out.latencies
                    .push(now - first_send[idx].expect("sent before acked"));
                blocked = false;
                backoff = MIN_BACKOFF;
                window = (window + 1).min(max_window);
            }
            Ok((_, Reply::Busy)) => {
                inflight.pop_front();
                retry.push_back(idx);
                out.busy += 1;
                window = (window / 2).max(1);
                // Wait for the next reply before sending again.
                blocked = true;
            }
            Ok((_, other)) => {
                fail(
                    &mut out,
                    unacked,
                    format!("frame {idx}: unexpected reply {other:?}"),
                );
                break;
            }
            Err(e) => {
                fail(&mut out, unacked, format!("frame {idx}: {e}"));
                break;
            }
        }
    }
    out.wall = start.elapsed();
    out
}

/// The prober's schedule: query `i` is due `(i + ½)·period` after the
/// start, and is sent at its due time or, if the previous reply is
/// late, as soon as that reply arrives.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Time between due times.
    pub period: Duration,
}

impl Schedule {
    /// Offset of query `i`'s due time from the start.
    pub fn due(&self, i: usize) -> Duration {
        self.period.mul_f64(i as f64 + 0.5)
    }

    /// When query `i` is sent, given when the previous reply arrived
    /// (both as offsets from the start).
    pub fn send_at(&self, i: usize, previous_reply: Duration) -> Duration {
        self.due(i).max(previous_reply)
    }
}

/// One probe's timings, as offsets from the start of the schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probe {
    /// How late the prober sent: send time minus due time.
    pub lag: Duration,
    /// Reply time minus due time.
    pub latency: Duration,
}

/// True when the prober fell further behind as the pass went on: the
/// median lag of the later half of the probes exceeds that of the
/// earlier half by more than one period. Needs at least four probes.
pub fn lag_grows(lags: &[Duration], period: Duration) -> bool {
    let n = lags.len();
    if n < 4 {
        return false;
    }
    let med = |s: &[Duration]| {
        let mut v = s.to_vec();
        v.sort();
        v[v.len() / 2]
    };
    med(&lags[n - n / 2..]) > med(&lags[..n / 2]) + period
}

/// What the prober saw.
#[derive(Debug, Default)]
pub struct ProbeOutcome {
    /// Answered probes, in schedule order.
    pub probes: Vec<Probe>,
    /// Probes that errored or timed out.
    pub failed: u64,
}

/// Runs the schedule on `conn` until `stop` is set, sending `frame`
/// and accepting replies that satisfy `ok`.
pub fn run_prober(
    conn: &mut Conn,
    schedule: Schedule,
    frame: &Frame,
    ok: impl Fn(&Frame) -> bool,
    stop: &std::sync::atomic::AtomicBool,
) -> ProbeOutcome {
    use std::sync::atomic::Ordering;
    let start = Instant::now();
    let mut out = ProbeOutcome::default();
    let mut previous_reply = Duration::ZERO;
    for i in 0.. {
        let send_at = schedule.send_at(i, previous_reply);
        let now = start.elapsed();
        if send_at > now {
            // Sleep in short steps so the end of the ingest pass is seen.
            let mut left = send_at - now;
            while left > Duration::ZERO && !stop.load(Ordering::SeqCst) {
                let step = left.min(Duration::from_millis(2));
                std::thread::sleep(step);
                left = send_at.saturating_sub(start.elapsed());
            }
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let due = schedule.due(i);
        let sent = start.elapsed();
        match conn.call(frame) {
            Ok(reply) if ok(&reply) => {
                previous_reply = start.elapsed();
                out.probes.push(Probe {
                    lag: sent.saturating_sub(due),
                    latency: previous_reply.saturating_sub(due),
                });
            }
            _ => {
                out.failed += 1;
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scripted server: replies in send order, from a fixed script.
    struct FakeLink {
        script: VecDeque<Result<Reply, ()>>,
        sent: VecDeque<usize>,
        log: Vec<usize>,
    }

    impl FakeLink {
        fn new(script: Vec<Result<Reply, ()>>) -> Self {
            FakeLink {
                script: script.into(),
                sent: VecDeque::new(),
                log: Vec::new(),
            }
        }
    }

    impl Link for FakeLink {
        fn send(&mut self, idx: usize) -> Result<(), LinkError> {
            self.sent.push_back(idx);
            self.log.push(idx);
            Ok(())
        }

        fn recv(&mut self) -> Result<(Option<u32>, Reply), LinkError> {
            let idx = self.sent.pop_front().expect("a reply needs a request");
            match self.script.pop_front().expect("script long enough") {
                Ok(r) => Ok((Some(idx as u32), r)),
                Err(()) => Err(LinkError::Timeout),
            }
        }
    }

    #[test]
    fn busy_then_ack_is_not_a_failure() {
        // Frame 0 is refused twice, then acked; frames 1 and 2 are acked.
        let mut link = FakeLink::new(vec![
            Ok(Reply::Busy),
            Ok(Reply::Ack(4)),
            Ok(Reply::Ack(4)),
            Ok(Reply::Busy),
            Ok(Reply::Ack(4)),
        ]);
        let out = ingest_pass(&mut link, &[4, 4, 4], 3);
        assert_eq!(out.failed, 0);
        assert_eq!(out.busy, 2);
        assert!(out.error.is_none());
        // The refused frame is acked after the others: ack order, not
        // send order, is what the verification replays.
        assert_eq!(out.ack_order, vec![1, 2, 0]);
        assert_eq!(link.log, vec![0, 1, 2, 0, 0]);
        assert_eq!(out.latencies.len(), 3);
    }

    #[test]
    fn busy_halves_the_window_and_acks_reopen_it() {
        // Four frames in flight all come back Busy: the window falls to
        // one, the client backs off, resends a single frame, and each
        // ack then lets one more frame out.
        let mut script = vec![Ok(Reply::Busy); 4];
        script.extend(vec![Ok(Reply::Ack(4)); 8]);
        let mut link = FakeLink::new(script);
        let out = ingest_pass(&mut link, &[4; 8], 4);
        assert_eq!(out.failed, 0);
        assert_eq!(out.busy, 4);
        assert_eq!(link.log, vec![0, 1, 2, 3, 0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(out.ack_order, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn busy_latency_runs_from_the_first_send() {
        // A single frame refused three times: nothing is in flight, so
        // the client backs off 200 + 400 + 800 us before the ack.
        let mut link = FakeLink::new(vec![
            Ok(Reply::Busy),
            Ok(Reply::Busy),
            Ok(Reply::Busy),
            Ok(Reply::Ack(1)),
        ]);
        let out = ingest_pass(&mut link, &[1], 4);
        assert_eq!(out.failed, 0);
        assert!(out.latencies[0] >= Duration::from_micros(1400));
    }

    #[test]
    fn error_or_timeout_fails_every_unacked_frame() {
        let mut link = FakeLink::new(vec![
            Ok(Reply::Ack(2)),
            Ok(Reply::Other(Frame::Error {
                code: 2,
                message: "draining".into(),
            })),
        ]);
        let out = ingest_pass(&mut link, &[2, 2, 2], 2);
        assert_eq!(out.ack_order, vec![0]);
        assert_eq!(out.failed, 2);
        assert!(out.error.is_some());

        let mut link = FakeLink::new(vec![Ok(Reply::Busy), Err(())]);
        let out = ingest_pass(&mut link, &[2, 2], 2);
        assert_eq!(out.failed, 2);
        assert_eq!(out.busy, 1);

        // A wrong record count in the ack is a failure too.
        let mut link = FakeLink::new(vec![Ok(Reply::Ack(1))]);
        let out = ingest_pass(&mut link, &[2], 1);
        assert_eq!(out.failed, 1);
    }

    /// Drives the schedule in virtual time: `service[i]` is how long
    /// query `i` takes once sent.
    fn simulate(schedule: Schedule, service: &[Duration]) -> Vec<Probe> {
        let mut previous_reply = Duration::ZERO;
        service
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                let sent = schedule.send_at(i, previous_reply);
                previous_reply = sent + s;
                Probe {
                    lag: sent - schedule.due(i),
                    latency: previous_reply - schedule.due(i),
                }
            })
            .collect()
    }

    #[test]
    fn one_stalled_reply_delays_every_later_due_query() {
        let ms = Duration::from_millis;
        let schedule = Schedule { period: ms(100) };
        // Query 2 stalls for 350 ms; every other query takes 10 ms.
        let mut service = vec![ms(10); 10];
        service[2] = ms(350);
        let probes = simulate(schedule, &service);
        // Query 2 is due at 250 ms and answered at 600 ms.
        assert_eq!(probes[2].latency, ms(350));
        // Queries 3, 4 and 5 were due while it stalled (350, 450, 550 ms):
        // each is sent at 600 ms or later and charged from its due time.
        assert_eq!(probes[3].lag, ms(250));
        assert_eq!(probes[3].latency, ms(260));
        assert_eq!(probes[4].latency, ms(170));
        assert_eq!(probes[5].latency, ms(80));
        // Timing from the send instead would have hidden the stall.
        assert!(probes[3..6].iter().all(|p| p.latency - p.lag == ms(10)));
        // The schedule catches up afterwards.
        assert_eq!(probes[6].lag, Duration::ZERO);
        assert_eq!(probes[9].latency, ms(10));
        assert!(!lag_grows(
            &probes.iter().map(|p| p.lag).collect::<Vec<_>>(),
            schedule.period
        ));
    }

    #[test]
    fn lag_grows_when_the_rate_exceeds_capacity() {
        let ms = Duration::from_millis;
        let schedule = Schedule { period: ms(100) };
        let probes = simulate(schedule, &[ms(150); 12]);
        let lags: Vec<Duration> = probes.iter().map(|p| p.lag).collect();
        assert!(lag_grows(&lags, schedule.period));
        // A pass of five probes at 1.5x capacity is caught too.
        assert!(lag_grows(&lags[..5], schedule.period));
        // Steady service below the period never is.
        let steady: Vec<Duration> = simulate(schedule, &[ms(90); 12])
            .iter()
            .map(|p| p.lag)
            .collect();
        assert!(!lag_grows(&steady, schedule.period));
    }
}
