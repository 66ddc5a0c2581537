//! The traced run: per-layer times measured from outside, by composing
//! the program's public stage functions with a span around each call.
//!
//! * **Batch** (`reproduce_all`): the serial stage composition of every
//!   workload model — emit into a discarding sink, `collect_*`, then per
//!   trace `AnalysisEngine::streams_only` + `push_records`,
//!   `into_grammar`, `StreamAnalysis::of_grammar` and the stride, origin
//!   and function passes. Its results must equal the pipeline's.
//! * **Serve** (`ingest`, `ingest_query`): one thread replays the run's
//!   records through `encode_message`, `MessageAssembler`, `shard_of`,
//!   `ShardQueues::try_push_batches`/`pop` and `ShardState::apply`, and
//!   calls `stream_counts` at each query point. A sweep builds one
//!   engine to 16Ki, 256Ki and 1Mi records and splits a snapshot into
//!   grammar copy (`Sequitur::grammar`) and root walk (`of_grammar`).
//!
//! Each composition (or, for the batch side, one model of it) also runs
//! with recording off; the difference is the tracing overhead.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tempstream_core::engine::EngineConfig;
use tempstream_core::experiment::{IntraChipResults, OffChipResults, StreamResults};
use tempstream_core::report::{IntraClassBreakdown, MissClassBreakdown, StreamFractionReport};
use tempstream_core::stages::{self, PhasedSink, StreamsPartial};
use tempstream_core::{AnalysisEngine, ExperimentConfig, StreamAnalysis, WorkloadResults};
use tempstream_prefetch::{OnlineEvaluator, TemporalPrefetcher};
use tempstream_sequitur::Sequitur;
use tempstream_serve::queue::ShardQueues;
use tempstream_serve::shard::{shard_of, ShardState};
use tempstream_serve::wire::{encode_message, Frame, MessageAssembler};
use tempstream_trace::miss::MissRecord;
use tempstream_trace::sink::AccessSink;
use tempstream_trace::{MemoryAccess, MissClass, SymbolTable};
use tempstream_workloads::Workload;

use crate::serve_wl::{Input, BATCH, SHARDS};
use crate::trace::Tracer;

/// Named per-layer values, in report order.
pub type Layers = Vec<(&'static str, f64)>;

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn per(d: Duration, n: usize, unit_ns: f64) -> f64 {
    if n == 0 {
        0.0
    } else {
        d.as_nanos() as f64 / n as f64 / unit_ns
    }
}

/// Discards accesses, counting them (the emit-only probe's sink).
#[derive(Default)]
struct Discard {
    accesses: u64,
}

impl AccessSink for Discard {
    fn access(&mut self, _access: &MemoryAccess) {
        self.accesses += 1;
    }
}

impl PhasedSink for Discard {
    fn begin_measurement(&mut self) {}
}

/// Span names whose totals the batch metrics read.
const BATCH_SPANS: [&str; 5] = [
    "sequitur.push",
    "streams.root_walk",
    "stride.analyze",
    "origins.analyze",
    "functions.analyze",
];

/// Traced analysis of one (capped) trace; also returns the trace's
/// critical path through the pipeline's analyze jobs: streams, then
/// origins and functions in parallel, beside strides.
fn analyze<C: Copy>(
    t: &mut Tracer,
    records: &[MissRecord<C>],
    num_cpus: u32,
    symbols: &SymbolTable,
    workload: Workload,
) -> (StreamResults, Duration) {
    let clock = Instant::now();
    let engine = t.span("sequitur.push", |_| {
        let mut engine: AnalysisEngine<C> = AnalysisEngine::streams_only(records.len());
        engine.push_records(records);
        engine
    });
    let grammar = t.span("sequitur.into_grammar", |_| engine.into_grammar());
    let analysis = t.span("streams.root_walk", |_| {
        StreamAnalysis::of_grammar(&grammar, records, num_cpus)
    });
    let partial = t.span("streams.reports", |_| {
        let (non, new, rec) = analysis.label_counts();
        StreamsPartial {
            stream_fraction: StreamFractionReport {
                non_repetitive: non,
                new_stream: new,
                recurring_stream: rec,
            },
            labels: Arc::new(analysis.labels().to_vec()),
            length_cdf: analysis.length_cdf(),
            reuse_pdf: analysis.reuse_distance_pdf(),
            distinct_streams: analysis.distinct_streams(),
        }
    });
    let streams_done = clock.elapsed();
    let clock = Instant::now();
    let flags = t.span("stride.analyze", |_| {
        stages::analyze_strides(records, num_cpus)
    });
    let strides = clock.elapsed();
    let clock = Instant::now();
    let origins = t.span("origins.analyze", |_| {
        stages::analyze_origins(records, &partial.labels, symbols, workload)
    });
    let origins_time = clock.elapsed();
    let clock = Instant::now();
    let functions = t.span("functions.analyze", |_| {
        stages::analyze_functions(records, &partial.labels, symbols)
    });
    let functions_time = clock.elapsed();
    let path = (streams_done + origins_time.max(functions_time)).max(strides);
    let results =
        stages::assemble_stream_results(partial, &flags, origins, functions, records.len());
    (results, path)
}

/// What the batch composition measured beyond its spans.
#[derive(Default)]
struct BatchTally {
    accesses: u64,
    symbols: u64,
    critical_path: Duration,
}

/// The serial composition of every stage for one workload model.
fn compose_workload(
    t: &mut Tracer,
    cfg: &ExperimentConfig,
    workload: Workload,
    tally: &mut BatchTally,
) -> WorkloadResults {
    let cap = cfg.max_analysis_misses;
    let scale = stages::scale_for(cfg, workload);
    t.span("workload", |t| {
        // Multi-chip system: emit alone, then fused emit + simulate.
        let mut sink = Discard::default();
        t.span("workloads.emit", |_| {
            stages::emit_workload(workload, cfg.multi_chip.nodes, cfg.seed, scale, &mut sink)
        });
        tally.accesses += sink.accesses;
        let clock = Instant::now();
        let (mut trace, symbols) = t.span("coherence.collect", |_| {
            stages::collect_multi_chip(cfg, workload)
        });
        let breakdown = MissClassBreakdown::of_trace(&trace);
        let total_misses = trace.len();
        trace.truncate(cap);
        let collect = clock.elapsed();
        tally.symbols += trace.len() as u64;
        let (streams, path) = analyze(t, trace.records(), trace.num_cpus(), &symbols, workload);
        tally.critical_path = tally.critical_path.max(collect + path);
        let multi_chip = OffChipResults {
            breakdown,
            streams,
            total_misses,
        };
        drop(trace);

        // Single-chip system: one simulation, two traces.
        let mut sink = Discard::default();
        t.span("workloads.emit", |_| {
            stages::emit_workload(workload, cfg.single_chip.cores, cfg.seed, scale, &mut sink)
        });
        tally.accesses += sink.accesses;
        let clock = Instant::now();
        let (mut traces, symbols) = t.span("coherence.collect", |_| {
            stages::collect_single_chip(cfg, workload)
        });
        let off_breakdown = MissClassBreakdown::of_trace(&traces.off_chip);
        let off_total = traces.off_chip.len();
        let intra_breakdown = IntraClassBreakdown::of_trace(&traces.intra_chip);
        let intra_total = traces.intra_chip.len();
        traces.off_chip.truncate(cap);
        traces.intra_chip.truncate(cap);
        let collect = clock.elapsed();
        tally.symbols += (traces.off_chip.len() + traces.intra_chip.len()) as u64;
        let off = &traces.off_chip;
        let (off_streams, off_path) = analyze(t, off.records(), off.num_cpus(), &symbols, workload);
        let intra = &traces.intra_chip;
        let (intra_streams, intra_path) =
            analyze(t, intra.records(), intra.num_cpus(), &symbols, workload);
        tally.critical_path = tally.critical_path.max(collect + off_path.max(intra_path));
        WorkloadResults {
            workload,
            multi_chip,
            single_chip: OffChipResults {
                breakdown: off_breakdown,
                streams: off_streams,
                total_misses: off_total,
            },
            intra_chip: IntraChipResults {
                breakdown: intra_breakdown,
                streams: intra_streams,
                total_misses: intra_total,
            },
        }
    })
}

/// The batch layers: traces the serial composition of all six models,
/// checks its digest against the pipeline's (`pipeline_digest`, same
/// seed), and measures tracing overhead on the check model.
pub fn batch_layers(
    cfg: &ExperimentConfig,
    pipeline_digest: u64,
    check: Workload,
    utilization: f64,
) -> (Layers, bool) {
    let mut t = Tracer::new(true);
    let mut tally = BatchTally::default();
    let results: Vec<WorkloadResults> = Workload::ALL
        .iter()
        .map(|&w| compose_workload(&mut t, cfg, w, &mut tally))
        .collect();
    let serial_digest = crate::batch_wl::digest(&results);
    drop(results);
    let idx = Workload::ALL
        .iter()
        .position(|&w| w == check)
        .expect("paper workload");
    let traced_check = t.durations("workload")[idx];
    let mut off = Tracer::new(false);
    let clock = Instant::now();
    black_box(compose_workload(
        &mut off,
        cfg,
        check,
        &mut BatchTally::default(),
    ));
    let untraced_check = clock.elapsed();

    let emit = t.total("workloads.emit");
    let collect = t.total("coherence.collect");
    let simulate = collect.saturating_sub(emit);
    let composed = t.total("workload").saturating_sub(emit);
    let [push, walk, stride, origins, functions] = BATCH_SPANS.map(|s| t.total(s));
    let layers = vec![
        ("workloads.emit_s", secs(emit)),
        ("coherence.simulate_s", secs(simulate)),
        (
            "coherence.accesses_per_s",
            tally.accesses as f64 / secs(simulate).max(1e-9),
        ),
        (
            "coherence.emit_simulate_share",
            secs(collect) / secs(composed).max(1e-9),
        ),
        ("sequitur.push_s", secs(push)),
        (
            "sequitur.symbols_per_s",
            tally.symbols as f64 / secs(push).max(1e-9),
        ),
        (
            "sequitur.push_ns_per_sym",
            per(push, tally.symbols as usize, 1.0),
        ),
        ("streams.root_walk_s", secs(walk)),
        ("stride.analyze_s", secs(stride)),
        ("origins.analyze_s", secs(origins)),
        ("functions.analyze_s", secs(functions)),
        ("runtime.utilization", utilization),
        ("runtime.critical_path_s", secs(tally.critical_path)),
        (
            "trace.overhead_s",
            secs(traced_check) - secs(untraced_check),
        ),
    ];
    (layers, serial_digest == pipeline_digest)
}

/// Replays `input` in one thread through the server's layers, with a
/// snapshot of every shard after each pass frame listed in
/// `query_after` (ascending). Returns the wall time of the whole replay
/// and of its pass part (the preloaded history excluded).
fn replay(t: &mut Tracer, input: &Input, query_after: &[usize]) -> (Duration, Duration) {
    let clock = Instant::now();
    let mut pass_start = clock;
    t.span("replay", |t| {
        let queues: ShardQueues<MissRecord<MissClass>> = ShardQueues::new(SHARDS, 64);
        let mut states: Vec<ShardState> = (0..SHARDS)
            .map(|_| {
                ShardState::new(EngineConfig {
                    max_retained: crate::serve_wl::MAX_RETAINED,
                    ..EngineConfig::default()
                })
            })
            .collect();
        let mut asm = MessageAssembler::new();
        let mut scratch: Vec<Vec<MissRecord<MissClass>>> = vec![Vec::new(); SHARDS];
        let mut bytes = Vec::new();
        let mut queries = query_after.iter().peekable();
        let frames = input.preload.chunks(BATCH).map(|c| (c, None));
        let frames = frames.chain(
            input
                .pass
                .chunks(BATCH)
                .enumerate()
                .map(|(i, c)| (c, Some(i))),
        );
        for (seq, (chunk, pass_idx)) in frames.enumerate() {
            if pass_idx == Some(0) {
                pass_start = Instant::now();
            }
            t.span("wire.encode", |_| {
                bytes.clear();
                encode_message(Some(seq as u32), &Frame::Ingest(chunk.to_vec()), &mut bytes)
                    .expect("frame fits");
            });
            let msg = t.span("wire.decode", |_| {
                asm.push_bytes(&bytes);
                asm.next_message().expect("decodes").expect("whole frame")
            });
            let Frame::Ingest(mut records) = msg.frame else {
                unreachable!("encoded an ingest frame");
            };
            t.span("serve.route", |_| {
                for r in records.drain(..) {
                    scratch[shard_of(r.block.raw(), SHARDS)].push(r);
                }
            });
            t.span("queue.admit", |_| {
                queues
                    .try_push_batches(&mut scratch)
                    .expect("lanes are emptied after every frame");
            });
            queues.recycle(records);
            for (lane, state) in states.iter_mut().enumerate() {
                if queues.is_empty(lane) {
                    continue;
                }
                let batch = t.span("queue.pop", |_| queues.pop(lane).expect("non-empty lane"));
                t.span("engine.apply", |_| {
                    for r in &batch {
                        state.apply(r);
                    }
                });
                queues.recycle(batch);
            }
            while pass_idx.is_some() && queries.peek().copied() == pass_idx.as_ref() {
                queries.next();
                t.span("engine.snapshot", |_| {
                    for s in &mut states {
                        black_box(s.stream_counts());
                    }
                });
            }
        }
    });
    (clock.elapsed(), pass_start.elapsed())
}

/// Median of `n` timings of `f`, in milliseconds.
fn median_ms(n: usize, mut f: impl FnMut() -> Duration) -> f64 {
    let mut v: Vec<f64> = (0..n).map(|_| f().as_secs_f64() * 1e3).collect();
    v.sort_by(f64::total_cmp);
    v[n / 2]
}

fn timed(f: impl FnOnce()) -> Duration {
    let clock = Instant::now();
    f();
    clock.elapsed()
}

/// Retained-history sizes of the snapshot sweep, with the metrics each
/// reports: full snapshot, grammar copy and root walk.
const SWEEP: [(usize, [&str; 3]); 3] = [
    (
        16 << 10,
        [
            "engine.snapshot_ms.16Ki",
            "sequitur.grammar_copy_ms.16Ki",
            "streams.root_walk_ms.16Ki",
        ],
    ),
    (
        256 << 10,
        [
            "engine.snapshot_ms.256Ki",
            "sequitur.grammar_copy_ms.256Ki",
            "streams.root_walk_ms.256Ki",
        ],
    ),
    (
        1 << 20,
        [
            "engine.snapshot_ms.1Mi",
            "sequitur.grammar_copy_ms.1Mi",
            "streams.root_walk_ms.1Mi",
        ],
    ),
];
/// Snapshots timed per sweep point.
const SWEEP_REPS: usize = 5;
/// Records the sweep needs.
pub const SWEEP_RECORDS: usize = (1 << 20) + SWEEP_REPS;

/// One engine grown to each sweep point: a full snapshot
/// (`stream_counts` after ingesting one more record), and the same
/// snapshot split into grammar copy and root walk over a `Sequitur`
/// fed the same blocks. Needs [`SWEEP_RECORDS`] records.
fn sweep(records: &[MissRecord<MissClass>]) -> Layers {
    let mut engine: AnalysisEngine<MissClass> = AnalysisEngine::new(EngineConfig {
        max_retained: usize::MAX,
        ..EngineConfig::default()
    });
    let mut seq = Sequitur::new();
    let mut next = 0usize;
    let mut max_cpu = 0u32;
    let mut push = |engine: &mut AnalysisEngine<MissClass>, seq: &mut Sequitur, upto: usize| {
        while next < upto {
            let r = &records[next];
            engine.push_record(r);
            seq.push(r.block.raw());
            max_cpu = max_cpu.max(r.cpu.raw());
            next += 1;
        }
        (next, max_cpu)
    };
    let mut layers = Layers::new();
    for (point, [snapshot_name, copy_name, walk_name]) in SWEEP {
        let (mut len, _) = push(&mut engine, &mut seq, point);
        // Each snapshot follows one more record, so none is memoized.
        let snapshot = median_ms(SWEEP_REPS, || {
            (len, _) = push(&mut engine, &mut seq, len + 1);
            timed(|| {
                black_box(engine.stream_counts());
            })
        });
        let (len, max_cpu) = push(&mut engine, &mut seq, len);
        let copy = median_ms(SWEEP_REPS, || timed(|| drop(black_box(seq.grammar()))));
        let grammar = seq.grammar();
        let walk = median_ms(SWEEP_REPS, || {
            timed(|| {
                black_box(StreamAnalysis::of_grammar(
                    &grammar,
                    &records[..len],
                    max_cpu + 1,
                ));
            })
        });
        layers.extend([
            (snapshot_name, snapshot),
            (copy_name, copy),
            (walk_name, walk),
        ]);
    }
    layers
}

/// The sweep's metrics at zero, for workloads that take no snapshots.
pub fn sweep_zeros() -> Layers {
    SWEEP
        .iter()
        .flat_map(|(_, names)| names.map(|n| (n, 0.0)))
        .collect()
}

/// The serve layers of one run: the traced and untraced replay with
/// `queries` snapshots spread evenly over the pass, isolated SEQUITUR
/// push and prefetch-observe passes over each shard's records, and (if
/// `with_sweep`) the snapshot sweep over `sweep_records`.
pub fn serve_layers(
    input: &Input,
    queries: usize,
    with_sweep: bool,
    sweep_records: &[MissRecord<MissClass>],
) -> Layers {
    let pass_frames = input.pass.len().div_ceil(BATCH);
    let query_after: Vec<usize> = (0..queries)
        .map(|j| ((j as f64 + 0.5) * pass_frames as f64 / queries as f64) as usize)
        .collect();
    // Untraced replays on both sides of the traced one, so warm-up
    // falls on neither side of the overhead alone.
    let (before, _) = replay(&mut Tracer::new(false), input, &query_after);
    let mut t = Tracer::new(true);
    let (traced, pass) = replay(&mut t, input, &query_after);
    let (after, _) = replay(&mut Tracer::new(false), input, &query_after);
    let untraced = (before + after) / 2;

    let records = input.preload.len() + input.pass.len();
    let frames = records.div_ceil(BATCH);
    let mut per_shard: Vec<Vec<MissRecord<MissClass>>> = vec![Vec::new(); SHARDS];
    for r in input.preload.iter().chain(&input.pass) {
        per_shard[shard_of(r.block.raw(), SHARDS)].push(*r);
    }
    let config = EngineConfig::default();
    let clock = Instant::now();
    for shard in &per_shard {
        let mut seq = Sequitur::with_capacity(shard.len());
        for r in shard {
            seq.push(r.block.raw());
        }
        black_box(seq.live_rules());
    }
    let push = clock.elapsed();
    let clock = Instant::now();
    for shard in &per_shard {
        let mut prefetcher = TemporalPrefetcher::adaptive(config.burst, config.max_ahead)
            .with_log_capacity(config.log_capacity);
        let mut eval = OnlineEvaluator::new(config.buffer_capacity);
        for r in shard {
            eval.observe(&mut prefetcher, r.cpu, r.block);
        }
        black_box(eval.snapshot());
    }
    let observe = clock.elapsed();

    let transport = ["wire.decode", "serve.route", "queue.admit", "queue.pop"]
        .iter()
        .map(|s| t.total(s))
        .sum::<Duration>();
    let snapshot = t.total("engine.snapshot");
    let mut layers = vec![
        ("sequitur.push_s", secs(push)),
        (
            "sequitur.symbols_per_s",
            records as f64 / secs(push).max(1e-9),
        ),
        ("sequitur.push_ns_per_sym", per(push, records, 1.0)),
        (
            "wire.encode_us_per_frame",
            per(t.total("wire.encode"), frames, 1e3),
        ),
        (
            "wire.decode_us_per_frame",
            per(t.total("wire.decode"), frames, 1e3),
        ),
        (
            "serve.route_ns_per_rec",
            per(t.total("serve.route"), records, 1.0),
        ),
        (
            "queue.admit_ns_per_frame",
            per(t.total("queue.admit"), frames, 1.0),
        ),
        ("serve.transport_ns_per_rec", per(transport, records, 1.0)),
        (
            "engine.apply_ns_per_rec",
            per(t.total("engine.apply"), records, 1.0),
        ),
        ("prefetch.observe_ns_per_rec", per(observe, records, 1.0)),
        ("engine.snapshot_ms_per_query", per(snapshot, queries, 1e6)),
        (
            "engine.snapshot_share",
            secs(t.self_time("engine.snapshot")) / secs(pass),
        ),
        ("serve.replay_s", secs(untraced)),
        ("trace.overhead_s", secs(traced) - secs(untraced)),
    ];
    if with_sweep {
        layers.extend(sweep(sweep_records));
    } else {
        layers.extend(sweep_zeros());
    }
    layers
}
