//! End-to-end server ingest throughput, loopback TCP.
//!
//! Two shapes, both with a pipelined request window
//! so the wire round trip is off the critical path and the number
//! reflects the server's routing + apply rate:
//!
//! * `ingest/{1,2,4}shard` — one connection streams every record; the
//!   1-shard run is the JSON baseline.
//! * `ingest-mc/{1,4}shard` — four client connections split the same
//!   record set, the shape reader-side routing exists for: on a
//!   multi-core host the 4-shard run should clearly beat 1 shard
//!   (ci.sh gates on it, thresholded by the `host_cores` field the
//!   harness archives in `BENCH_serve.json`).
//!
//! Each sample covers the whole lifecycle — bind, ingest, drain,
//! shutdown — but at 128 Ki records the setup cost is noise, not the
//! measurement (the old 16 Ki/blocking-ack version mostly timed
//! setup and per-frame latency).

use std::collections::VecDeque;
use std::hint::black_box;
use std::net::TcpStream;

use tempstream_bench::harness::{criterion_group, criterion_main, Criterion, Throughput};
use tempstream_serve::wire::{write_message, Frame, MessageReader};
use tempstream_serve::{Server, ServerConfig};
use tempstream_trace::miss::MissRecord;
use tempstream_trace::rng::SplitMix64;
use tempstream_trace::{Block, CpuId, FunctionId, MissClass, ThreadId};

const RECORDS: usize = 131_072;
const BATCH: usize = 1024;
/// In-flight request cap per connection.
const WINDOW: usize = 16;
/// Connections in the multi-connection variant.
const CLIENTS: usize = 4;

fn seeded_records(seed: u64, n: usize) -> Vec<MissRecord<MissClass>> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| MissRecord {
            block: Block::new(rng.next_u64() % 4096),
            cpu: CpuId::new((rng.next_u64() % 4) as u32),
            thread: ThreadId::new((rng.next_u64() % 8) as u32),
            function: FunctionId::new((rng.next_u64() % 64) as u32),
            class: MissClass::Replacement,
        })
        .collect()
}

/// Streams `records` over one connection with up to [`WINDOW`]
/// ingest frames in flight; `Busy` frames are re-queued and retried.
fn ingest_pipelined(conn: &mut TcpStream, records: &[MissRecord<MissClass>]) {
    let batches: Vec<&[MissRecord<MissClass>]> = records.chunks(BATCH).collect();
    let mut reader = MessageReader::new();
    let mut pending: VecDeque<usize> = (0..batches.len()).collect();
    let mut inflight: VecDeque<(u32, usize)> = VecDeque::new();
    let mut seq: u32 = 0;
    loop {
        while inflight.len() < WINDOW {
            let Some(idx) = pending.pop_front() else {
                break;
            };
            write_message(&mut *conn, Some(seq), &Frame::Ingest(batches[idx].to_vec()))
                .expect("send ingest");
            inflight.push_back((seq, idx));
            seq = seq.wrapping_add(1);
        }
        let Some((want_seq, idx)) = inflight.pop_front() else {
            break;
        };
        let msg = reader.next_from(&mut *conn).expect("pipelined reply");
        assert_eq!(msg.seq, Some(want_seq), "replies are FIFO");
        match msg.frame {
            Frame::IngestAck(n) => assert_eq!(n as usize, batches[idx].len()),
            Frame::Busy => {
                pending.push_front(idx);
                std::thread::yield_now();
            }
            other => panic!("unexpected ingest reply: {other:?}"),
        }
    }
}

fn bind_server(
    shards: usize,
) -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let config = ServerConfig {
        shards,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).expect("bind loopback");
    let addr = server.local_addr().expect("local addr");
    (addr, std::thread::spawn(move || server.run()))
}

/// Drains the server and returns the final coverage total so the work
/// cannot be optimized away.
fn finish_server(
    conn: &mut TcpStream,
    handle: std::thread::JoinHandle<std::io::Result<()>>,
) -> u64 {
    let mut reader = MessageReader::new();
    let mut call = |seq: u32, request: &Frame| {
        write_message(&mut *conn, Some(seq), request).expect("send");
        let reply = reader.next_from(&mut *conn).expect("recv");
        assert_eq!(reply.seq, Some(seq), "reply echoes the request seq");
        reply.frame
    };
    let total = match call(1, &Frame::QueryCoverage) {
        Frame::CoverageReply { total, .. } => total,
        other => panic!("unexpected coverage reply: {other:?}"),
    };
    assert_eq!(call(2, &Frame::Shutdown), Frame::ShutdownAck);
    handle.join().expect("server thread").expect("server run");
    total
}

/// One full lifecycle, single connection.
fn ingest_once(records: &[MissRecord<MissClass>], shards: usize) -> u64 {
    let (addr, handle) = bind_server(shards);
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_nodelay(true).ok();
    ingest_pipelined(&mut conn, records);
    finish_server(&mut conn, handle)
}

/// One full lifecycle, [`CLIENTS`] connections splitting the records.
fn ingest_once_mc(records: &[MissRecord<MissClass>], shards: usize) -> u64 {
    let (addr, handle) = bind_server(shards);
    let per_client = records.len().div_ceil(CLIENTS);
    std::thread::scope(|scope| {
        for slice in records.chunks(per_client) {
            scope.spawn(move || {
                let mut conn = TcpStream::connect(addr).expect("connect client");
                conn.set_nodelay(true).ok();
                ingest_pipelined(&mut conn, slice);
            });
        }
    });
    let mut conn = TcpStream::connect(addr).expect("connect finisher");
    conn.set_nodelay(true).ok();
    finish_server(&mut conn, handle)
}

fn serve_ingest(c: &mut Criterion) {
    let records = seeded_records(0x5e7e, RECORDS);
    let mut g = c.benchmark_group("serve");
    g.sample_size(10)
        .throughput(Throughput::Elements(RECORDS as u64))
        .baseline("ingest/1shard");
    for shards in [1usize, 2, 4] {
        g.bench_function(format!("ingest/{shards}shard"), |b| {
            b.iter(|| black_box(ingest_once(&records, shards)));
        });
    }
    for shards in [1usize, 4] {
        g.bench_function(format!("ingest-mc/{shards}shard"), |b| {
            b.iter(|| black_box(ingest_once_mc(&records, shards)));
        });
    }
    g.finish();
}

criterion_group!(benches, serve_ingest);
criterion_main!(benches);
