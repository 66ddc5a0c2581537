//! The serve workloads, `ingest` and `ingest_query`, run against a
//! 2-shard server in a child process.
//!
//! Each repetition starts a fresh server (set-up: spawn, bind, connect,
//! and for `ingest_query` a preloaded history), then times one closed-
//! loop pipelined ingest pass of the run's records on one connection.
//! `ingest_query` adds a second connection that sends
//! `QueryStreamFraction` on a fixed schedule while the pass runs; every
//! such query copies and walks each shard's grammar under all shard
//! locks. After the pass, outside the timed phase, the server's own
//! metrics are read and its final stream counts, coverage and top
//! origins are checked bit-exactly against `serve::offline::Comparator`
//! fed the acked records in ack order (one comparator per shard, on
//! its own thread, merged with the server's merge functions).

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use tempstream_obsv::Json;
use tempstream_serve::offline::{Comparator, Expected};
use tempstream_serve::shard::{
    merge_coverage_counts, merge_stream_counts, merge_top_origins, shard_of, OriginTable,
};
use tempstream_serve::wire::Frame;
use tempstream_serve::ShardConfig;
use tempstream_trace::miss::MissRecord;
use tempstream_trace::MissClass;

use crate::loadgen::{
    ingest_pass, lag_grows, run_prober, Conn, EncodedFrames, PassOutcome, ProbeOutcome, Schedule,
    TcpLink,
};
use crate::procs::Child;

/// Analysis shards of the server under test.
pub const SHARDS: usize = 2;
/// Records per ingest frame.
pub const BATCH: usize = 1024;
/// Ingest frames in flight on the connection.
pub const WINDOW: usize = 16;
/// Records in one timed ingest pass.
pub const PASS_RECORDS: usize = 1 << 20;
/// History ingested before the timed pass of `ingest_query`.
pub const PRELOAD_RECORDS: usize = 512 * 1024;
/// Per-shard retention cap; the records of a repetition stay below it,
/// so every query walks a grammar that grew since the previous one.
pub const MAX_RETAINED: usize = 1 << 20;
/// `QueryStreamFraction` schedule of `ingest_query`, per second: each
/// query takes about a tenth of a second under ingest, so the prober
/// keeps well below saturation.
pub const QUERY_RATE: f64 = 4.0;
/// Fewest queries an `ingest_query` run collects: with 40 to 99
/// samples the reported tail is p75.
pub const MIN_QUERIES: usize = 80;
/// Queries after which an `ingest_query` run stops regardless.
const MAX_QUERIES: usize = 95;
/// Top origins compared in verification.
const TOP_N: u16 = 16;

/// Which serve workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Ingest into a fresh server, no queries.
    Ingest,
    /// Ingest after a preloaded history, with scheduled queries.
    IngestQuery,
}

impl Kind {
    /// Records preloaded before the timed pass.
    pub fn preload(self) -> usize {
        match self {
            Kind::Ingest => 0,
            Kind::IngestQuery => PRELOAD_RECORDS,
        }
    }
}

/// True once a run has measured enough: at least `seconds` of timed
/// passes over at least two repetitions, and for `ingest_query` a query
/// count inside the band that keeps the reported tail percentile fixed.
pub fn enough(kind: Kind, reps: usize, measured: Duration, seconds: u64, queries: usize) -> bool {
    let timed = reps >= 2 && measured >= Duration::from_secs(seconds);
    match kind {
        Kind::Ingest => timed,
        Kind::IngestQuery => (timed && queries >= MIN_QUERIES) || queries >= MAX_QUERIES,
    }
}

/// The records of one run, split into history and timed pass, with
/// their frames encoded before any timing starts.
pub struct Input {
    /// Preloaded history (empty for `ingest`).
    pub preload: Vec<MissRecord<MissClass>>,
    /// The timed pass.
    pub pass: Vec<MissRecord<MissClass>>,
    preload_frames: EncodedFrames,
    pass_frames: EncodedFrames,
}

impl Input {
    /// Splits `records` (at least `preload + PASS_RECORDS` long).
    pub fn new(kind: Kind, records: &[MissRecord<MissClass>]) -> Input {
        let preload = records[..kind.preload()].to_vec();
        let pass = records[kind.preload()..kind.preload() + PASS_RECORDS].to_vec();
        Input {
            preload_frames: EncodedFrames::new(&preload, BATCH),
            pass_frames: EncodedFrames::new(&pass, BATCH),
            preload,
            pass,
        }
    }

    /// Records each shard retains after a repetition.
    pub fn retained_per_shard(&self) -> Vec<u64> {
        let mut n = vec![0u64; SHARDS];
        for r in self.preload.iter().chain(&self.pass) {
            n[shard_of(r.block.raw(), SHARDS)] += 1;
        }
        n
    }
}

/// The server's own counters, read after the timed pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServerCounts {
    /// Ingest frames refused with `Busy`.
    pub busy: u64,
    /// Ingest frames received (accepted or refused).
    pub ingest_frames: u64,
    /// Grammar root walks so far.
    pub grammar_walks: u64,
    /// Deepest any shard lane got, in sub-batches.
    pub lane_max_depth: u64,
}

impl ServerCounts {
    fn from_snapshot(json: &str) -> Result<ServerCounts, String> {
        let snap = Json::parse(json).map_err(|e| format!("metrics snapshot: {e:?}"))?;
        let get = |path: &str| {
            snap.get_path(path)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("metrics snapshot lacks {path}"))
        };
        let received = get("counters/serve/frames/received")?;
        let queries = get("counters/serve/queries")?;
        let mut lane_max_depth = 0;
        for i in 0..SHARDS {
            lane_max_depth =
                lane_max_depth.max(get(&format!("gauges/serve/queue/shard{i}/max_depth"))?);
        }
        Ok(ServerCounts {
            busy: get("counters/serve/frames/busy")?,
            ingest_frames: received - queries,
            grammar_walks: get("gauges/serve/analysis/grammar_walks")?,
            lane_max_depth,
        })
    }
}

/// One repetition's measurements.
#[derive(Debug)]
pub struct Rep {
    /// Spawn, bind, connect and preload.
    pub setup: Duration,
    /// The preload pass (untimed).
    pub preload: Option<PassOutcome>,
    /// The timed pass.
    pub pass: PassOutcome,
    /// The query prober, for `ingest_query`.
    pub probes: Option<ProbeOutcome>,
    /// The prober fell behind more and more during this pass (see
    /// [`run_invalid`]).
    pub lag_grew: bool,
    /// Server counters after the pass.
    pub server: ServerCounts,
    /// What the comparator expects (and the server answered, unless
    /// `mismatches > 0`).
    pub expected: Expected,
    /// Answers that differed from the comparator (of three).
    pub mismatches: u64,
    /// The server process's peak resident set, KiB.
    pub server_rss_kib: u64,
}

/// Checks attempted in one verification.
const CHECKS: u64 = 3;

impl Rep {
    /// Operations attempted: every frame (once, however often it was
    /// retried after Busy), every query sent, and the checks.
    pub fn attempted(&self, input: &Input) -> u64 {
        let frames = (input.preload_frames.len() + input.pass_frames.len()) as u64;
        let probes = self
            .probes
            .as_ref()
            .map_or(0, |p| p.probes.len() as u64 + p.failed);
        frames + probes + CHECKS
    }

    /// Operations that errored, timed out or failed verification.
    pub fn failed(&self) -> u64 {
        let preload = self.preload.as_ref().map_or(0, |p| p.failed);
        let probes = self.probes.as_ref().map_or(0, |p| p.failed);
        preload + self.pass.failed + probes + self.mismatches
    }

    /// Queries answered in this pass.
    pub fn queries(&self) -> usize {
        self.probes.as_ref().map_or(0, |p| p.probes.len())
    }

    /// Acked records of the timed pass per second of its wall time.
    pub fn rec_per_s(&self, input: &Input) -> f64 {
        let acked: usize = self
            .pass
            .ack_order
            .iter()
            .map(|&i| frame(&input.pass, i).len())
            .sum();
        acked as f64 / self.pass.wall.as_secs_f64()
    }
}

/// True when the prober's lag grew in most passes of a run: the query
/// rate is above what the server can answer, so the run is invalid and
/// its queries count as failed. One pass slowed by the host does not
/// make a run invalid.
pub fn run_invalid(reps: &[Rep]) -> bool {
    2 * reps.iter().filter(|r| r.lag_grew).count() > reps.len()
}

/// What the server must answer after acking `preload` and `pass`
/// frames in the given orders. Each shard's comparator gets only that
/// shard's records, in ack order, so the shards verify in parallel.
fn expected(input: &Input, preload_order: &[usize], pass_order: &[usize]) -> Expected {
    let config = ShardConfig {
        max_retained: MAX_RETAINED,
        ..ShardConfig::default()
    };
    let parts: Vec<Expected> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..SHARDS)
            .map(|shard| {
                s.spawn(move || {
                    let mut cmp = Comparator::new(SHARDS, config);
                    let mut mine = Vec::with_capacity(BATCH);
                    let batches = preload_order
                        .iter()
                        .map(|&i| frame(&input.preload, i))
                        .chain(pass_order.iter().map(|&i| frame(&input.pass, i)));
                    for batch in batches {
                        mine.clear();
                        mine.extend(
                            batch
                                .iter()
                                .filter(|r| shard_of(r.block.raw(), SHARDS) == shard),
                        );
                        cmp.push(&mine);
                    }
                    cmp.expected(usize::MAX)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("verifier thread"))
            .collect()
    });
    let tables: Vec<OriginTable> = parts
        .iter()
        .map(|p| {
            let mut t = OriginTable::new();
            for &(function, count) in &p.top_origins {
                t.add(function, count);
            }
            t
        })
        .collect();
    Expected {
        streams: merge_stream_counts(parts.iter().map(|p| p.streams)),
        coverage: merge_coverage_counts(parts.iter().map(|p| p.coverage)),
        top_origins: merge_top_origins(&tables, usize::from(TOP_N)),
    }
}

/// Frame `i` of `records`.
fn frame(records: &[MissRecord<MissClass>], i: usize) -> &[MissRecord<MissClass>] {
    &records[i * BATCH..((i + 1) * BATCH).min(records.len())]
}

fn call(conn: &mut Conn, frame: &Frame) -> Result<Frame, String> {
    conn.call(frame).map_err(|e| format!("{frame:?}: {e}"))
}

/// Runs one repetition. Errors are infrastructure failures (the server
/// would not start or the connection broke outside the measured pass).
pub fn run_rep(kind: Kind, input: &Input) -> Result<Rep, String> {
    let t0 = Instant::now();
    let mut server = Child::spawn(&[
        "child-server".to_string(),
        SHARDS.to_string(),
        MAX_RETAINED.to_string(),
    ])?;
    let port: u16 = server.expect_parse("port")?;
    let mut conn = Conn::connect(port).map_err(|e| format!("connect: {e}"))?;
    let preload = if input.preload.is_empty() {
        None
    } else {
        let mut link = TcpLink {
            conn: &mut conn,
            frames: &input.preload_frames,
        };
        let out = ingest_pass(&mut link, input.preload_frames.lens(), WINDOW);
        // A query waits until every acked record is applied.
        call(&mut conn, &Frame::QueryCoverage)?;
        Some(out)
    };
    let mut probe_conn = match kind {
        Kind::Ingest => None,
        Kind::IngestQuery => Some(Conn::connect(port).map_err(|e| format!("connect: {e}"))?),
    };
    let setup = t0.elapsed();

    let schedule = Schedule {
        period: Duration::from_secs_f64(1.0 / QUERY_RATE),
    };
    let stop = AtomicBool::new(false);
    let (pass, probes) = std::thread::scope(|s| {
        let prober = probe_conn.as_mut().map(|c| {
            let stop = &stop;
            s.spawn(move || {
                run_prober(
                    c,
                    schedule,
                    &Frame::QueryStreamFraction,
                    |f| matches!(f, Frame::StreamFractionReply { .. }),
                    stop,
                )
            })
        });
        let mut link = TcpLink {
            conn: &mut conn,
            frames: &input.pass_frames,
        };
        let pass = ingest_pass(&mut link, input.pass_frames.lens(), WINDOW);
        stop.store(true, Ordering::SeqCst);
        (pass, prober.map(|h| h.join().expect("prober thread")))
    });
    drop(probe_conn);
    let lag_grew = probes.as_ref().is_some_and(|p| {
        let lags: Vec<Duration> = p.probes.iter().map(|q| q.lag).collect();
        lag_grows(&lags, schedule.period)
    });

    // Outside the timed phase: the server's counters, then verification.
    let server_counts = match call(&mut conn, &Frame::QueryMetricsSnapshot)? {
        Frame::MetricsReply(json) => ServerCounts::from_snapshot(&json)?,
        other => return Err(format!("metrics snapshot answered {other:?}")),
    };
    let preload_order = preload.as_ref().map_or(&[][..], |p| &p.ack_order);
    let expected = expected(input, preload_order, &pass.ack_order);
    let mut mismatches = 0;
    let streams = match call(&mut conn, &Frame::QueryStreamFraction)? {
        Frame::StreamFractionReply {
            non_repetitive,
            new_stream,
            recurring_stream,
            distinct_streams,
        } => (
            non_repetitive,
            new_stream,
            recurring_stream,
            distinct_streams,
        ),
        other => return Err(format!("stream query answered {other:?}")),
    };
    let e = expected.streams;
    if streams
        != (
            e.non_repetitive,
            e.new_stream,
            e.recurring_stream,
            e.distinct_streams,
        )
    {
        println!("report: stream counts {streams:?} differ from the comparator's {e:?}");
        mismatches += 1;
    }
    match call(&mut conn, &Frame::QueryCoverage)? {
        Frame::CoverageReply {
            total,
            covered,
            issued,
        } if (total, covered, issued)
            == (
                expected.coverage.total,
                expected.coverage.covered,
                expected.coverage.issued,
            ) => {}
        other => {
            println!(
                "report: coverage {other:?} differs from the comparator's {:?}",
                expected.coverage
            );
            mismatches += 1;
        }
    }
    match call(&mut conn, &Frame::QueryTopOrigins(TOP_N))? {
        Frame::TopOriginsReply(rows) if rows == expected.top_origins => {}
        other => {
            println!("report: top origins {other:?} differ from the comparator's");
            mismatches += 1;
        }
    }
    match call(&mut conn, &Frame::Shutdown)? {
        Frame::ShutdownAck => {}
        other => return Err(format!("shutdown answered {other:?}")),
    }
    let server_rss_kib = server.expect_parse("rss_kib")?;
    server.wait()?;
    Ok(Rep {
        setup,
        preload,
        pass,
        probes,
        lag_grew,
        server: server_counts,
        expected,
        mismatches,
        server_rss_kib,
    })
}

/// The `child-server` mode: binds a loopback server, reports its port,
/// serves until a client shuts it down, then reports its peak memory.
pub fn child_server(args: &[String]) -> Result<(), String> {
    let [shards, max_retained] = args else {
        return Err("child-server <shards> <max_retained>".into());
    };
    let config = tempstream_serve::ServerConfig {
        shards: shards.parse().map_err(|_| "bad shard count")?,
        shard: ShardConfig {
            max_retained: max_retained.parse().map_err(|_| "bad retention cap")?,
            ..ShardConfig::default()
        },
        ..tempstream_serve::ServerConfig::default()
    };
    let server =
        tempstream_serve::Server::bind("127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))?;
    let port = server
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?
        .port();
    println!("port {port}");
    server.run().map_err(|e| format!("server: {e}"))?;
    println!("rss_kib {}", crate::procs::peak_rss_kib());
    Ok(())
}
