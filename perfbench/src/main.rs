//! The repository benchmark: end-to-end and per-layer measurements of
//! the reproduction pipeline and the online server.
//!
//! ```text
//! perfbench --workload <reproduce_all|ingest|ingest_query> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Inputs are generated from the seed before any timing starts. With
//! `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it measures the per-layer metrics instead (see
//! `README.md`). Every run checks the program's outputs outside the
//! timed phase. Report lines go to standard output first; the last line
//! is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`.

mod batch_wl;
mod input;
mod loadgen;
mod procs;
mod serve_wl;
mod stats;
mod trace;
mod traced;

use std::time::{Duration, Instant};

use tempstream_obsv::Json;

use serve_wl::{Input, Kind, Rep};
use traced::Layers;

/// End-to-end metrics and their units, as listed in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("rec_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics and their units, as listed in `BENCHMARK.json`.
/// A layer a workload does not exercise reports 0.
const PER_LAYER: [(&str, &str); 39] = [
    ("workloads.emit_s", "s"),
    ("coherence.simulate_s", "s"),
    ("coherence.accesses_per_s", "1/s"),
    ("coherence.emit_simulate_share", "fraction"),
    ("sequitur.push_s", "s"),
    ("sequitur.symbols_per_s", "1/s"),
    ("sequitur.push_ns_per_sym", "ns"),
    ("streams.root_walk_s", "s"),
    ("stride.analyze_s", "s"),
    ("origins.analyze_s", "s"),
    ("functions.analyze_s", "s"),
    ("runtime.utilization", "fraction"),
    ("runtime.critical_path_s", "s"),
    ("engine.snapshot_ms.16Ki", "ms"),
    ("sequitur.grammar_copy_ms.16Ki", "ms"),
    ("streams.root_walk_ms.16Ki", "ms"),
    ("engine.snapshot_ms.256Ki", "ms"),
    ("sequitur.grammar_copy_ms.256Ki", "ms"),
    ("streams.root_walk_ms.256Ki", "ms"),
    ("engine.snapshot_ms.1Mi", "ms"),
    ("sequitur.grammar_copy_ms.1Mi", "ms"),
    ("streams.root_walk_ms.1Mi", "ms"),
    ("engine.snapshot_ms_per_query", "ms"),
    ("engine.snapshot_share", "fraction"),
    ("wire.encode_us_per_frame", "us"),
    ("wire.decode_us_per_frame", "us"),
    ("serve.route_ns_per_rec", "ns"),
    ("queue.admit_ns_per_frame", "ns"),
    ("serve.transport_ns_per_rec", "ns"),
    ("engine.apply_ns_per_rec", "ns"),
    ("prefetch.observe_ns_per_rec", "ns"),
    ("serve.busy_frac", "fraction"),
    ("serve.lane_max_depth", "count"),
    ("serve.grammar_walks_per_query", "count"),
    ("serve.ack_p99_ms", "ms"),
    ("serve.query_wait_ms", "ms"),
    ("loadgen.lag_tail_ms", "ms"),
    ("serve.replay_s", "s"),
    ("trace.overhead_s", "s"),
];

/// Wall-clock budget after which a run starts no further repetition.
const RUN_BUDGET: Duration = Duration::from_secs(120);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || -> Result<u64, String> {
            value
                .parse()
                .map_err(|_| format!("{flag}: {value:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let usage = "usage: perfbench --workload <reproduce_all|ingest|ingest_query> --seed N --seconds S --trace <0|1>";
    Ok(Args {
        workload: workload.ok_or(usage)?,
        seed: seed.ok_or(usage)?,
        seconds: seconds.ok_or(usage)?,
        trace: trace.ok_or(usage)?,
    })
}

/// What a run prints as its last line.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn new(attempted: u64, failed: u64, values: &[(&'static str, f64)], trace: bool) -> Outcome {
        let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        for (name, _) in values {
            assert!(
                table.iter().any(|(n, _)| n == name),
                "metric {name} is not in the benchmark's list"
            );
        }
        let metrics = table
            .iter()
            .map(|&(name, unit)| {
                let value = values
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |&(_, v)| v);
                (name, value, unit)
            })
            .collect();
        println!(
            "report: attempted {attempted}, failed {failed}, failed_frac {}",
            failed as f64 / attempted.max(1) as f64
        );
        Outcome {
            correct: failed == 0,
            attempted,
            failed,
            metrics,
        }
    }

    fn render(&self) -> String {
        let mut metrics = Json::obj();
        for &(name, value, unit) in &self.metrics {
            let mut m = Json::obj();
            m.set("value", Json::Float(value));
            m.set("unit", Json::Str(unit.to_string()));
            metrics.set(name, m);
        }
        let mut out = Json::obj();
        out.set("correct", Json::Bool(self.correct));
        out.set("attempted", Json::UInt(self.attempted));
        out.set("failed", Json::UInt(self.failed));
        out.set("metrics", metrics);
        out.render()
    }
}

fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.into_iter().collect();
    stats::median(&v).expect("at least one repetition")
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn run_batch(args: &Args) -> Result<Outcome, String> {
    let start = Instant::now();
    if args.trace {
        let run = batch_wl::run(args.seed)?;
        println!(
            "report: pipeline digest {:016x}, wall {:.3} s, serial check of {} {}",
            run.digest,
            run.wall.as_secs_f64(),
            batch_wl::CHECK_WORKLOAD.name(),
            if run.check_ok { "ok" } else { "MISMATCH" }
        );
        let (layers, digest_ok) = traced::batch_layers(
            &batch_wl::config(args.seed),
            run.digest,
            batch_wl::CHECK_WORKLOAD,
            run.utilization,
        );
        println!(
            "report: serial composition of all models {} the pipeline's digest",
            if digest_ok {
                "matches"
            } else {
                "DOES NOT MATCH"
            }
        );
        print_layers(&layers);
        let failed = u64::from(!run.check_ok) + u64::from(!digest_ok);
        return Ok(Outcome::new(2, failed, &layers, true));
    }
    // One reproduction outlasts a run's seconds on its own; another
    // starts only while the run is short of them and within budget.
    let mut runs: Vec<batch_wl::Run> = Vec::new();
    loop {
        let run = batch_wl::run(args.seed)?;
        println!(
            "report: reproduce_all wall {:.3} s, {} misses, digest {:016x}, utilization {:.3}, peak RSS {} KiB, serial check of {} {}",
            run.wall.as_secs_f64(),
            run.misses,
            run.digest,
            run.utilization,
            run.rss_kib,
            batch_wl::CHECK_WORKLOAD.name(),
            if run.check_ok { "ok" } else { "MISMATCH" }
        );
        let next_ends = start.elapsed() + 2 * run.wall;
        runs.push(run);
        if start.elapsed() >= Duration::from_secs(args.seconds) || next_ends >= RUN_BUDGET {
            break;
        }
    }
    let walls: Vec<f64> = runs.iter().map(|r| ms(r.wall)).collect();
    let lat = stats::summarize(&walls).expect("one run at least");
    let values = [
        ("wall_s", median(runs.iter().map(|r| r.wall.as_secs_f64()))),
        (
            "rec_per_s",
            median(runs.iter().map(|r| r.misses as f64 / r.wall.as_secs_f64())),
        ),
        ("p50_ms", lat.p50),
        ("tail_ms", lat.tail),
        (
            "setup_s",
            median(
                runs.iter()
                    .flat_map(|r| r.setups.iter().map(Duration::as_secs_f64)),
            ),
        ),
        (
            "peak_rss_mib",
            median(runs.iter().map(|r| r.rss_kib as f64 / 1024.0)),
        ),
    ];
    let failed = runs.iter().filter(|r| !r.check_ok).count() as u64;
    Ok(Outcome::new(runs.len() as u64, failed, &values, false))
}

fn print_layers(layers: &Layers) {
    for (name, value) in layers {
        println!("layer: {name} = {value}");
    }
}

fn summary_line(what: &str, values: &[f64]) -> Option<stats::Summary> {
    let s = stats::summarize(values)?;
    println!(
        "report: {what}: p50 {:.3} ms, {} {:.3} ms",
        s.p50,
        s.tail_label(),
        s.tail
    );
    Some(s)
}

/// Ack latency summarized per repetition (1024 frames support a p99),
/// then the median over repetitions of the p50 and of the tail, so one
/// repetition disturbed by the host moves neither.
fn ack_latency(reps: &[Rep]) -> Option<(f64, f64)> {
    let per_rep: Vec<stats::Summary> = reps
        .iter()
        .filter_map(|r| {
            let v: Vec<f64> = r.pass.latencies.iter().copied().map(ms).collect();
            stats::summarize(&v)
        })
        .collect();
    let first = per_rep.first()?;
    let p50 = median(per_rep.iter().map(|s| s.p50));
    let tail = median(per_rep.iter().map(|s| s.tail));
    println!(
        "report: ingest ack latency (first send to ack), median over {} repetitions: p50 {p50:.3} ms, {} {tail:.3} ms",
        per_rep.len(),
        first.tail_label()
    );
    Some((p50, tail))
}

/// Reports the input properties of a serve run, from its last
/// repetition.
fn report_input(input: &Input, rep: &Rep) {
    let s = rep.expected.streams;
    let fraction = (s.new_stream + s.recurring_stream) as f64 / s.total().max(1) as f64;
    println!(
        "report: input {} records (digest {:016x}), stream fraction {fraction:.4}, {} distinct streams, retained per shard {:?}",
        input.preload.len() + input.pass.len(),
        input::records_digest(&[input.preload.as_slice(), input.pass.as_slice()].concat()),
        s.distinct_streams,
        input.retained_per_shard()
    );
}

fn run_serve(kind: Kind, args: &Args) -> Result<Outcome, String> {
    let start = Instant::now();
    let needed = kind.preload() + serve_wl::PASS_RECORDS;
    let needed = if args.trace {
        needed.max(traced::SWEEP_RECORDS)
    } else {
        needed
    };
    let records = input::serve_records(args.seed, needed);
    let input = Input::new(kind, &records);
    let mut reps: Vec<Rep> = Vec::new();
    let mut measured = Duration::ZERO;
    let mut queries = 0;
    loop {
        let rep = serve_wl::run_rep(kind, &input)?;
        measured += rep.pass.wall;
        queries += rep.queries();
        if let Some(e) = &rep.pass.error {
            println!("report: pass stopped early: {e}");
        }
        if rep.lag_grew {
            println!("report: prober lag grew through pass {}", reps.len() + 1);
        }
        reps.push(rep);
        // The traced run needs two repetitions for a p99 of ack latency.
        let done = if args.trace {
            reps.len() >= 2
        } else {
            serve_wl::enough(kind, reps.len(), measured, args.seconds, queries)
        };
        if done || start.elapsed() > RUN_BUDGET {
            break;
        }
    }
    let attempted: u64 = reps.iter().map(|r| r.attempted(&input)).sum();
    let mut failed: u64 = reps.iter().map(Rep::failed).sum();
    if serve_wl::run_invalid(&reps) {
        println!("report: prober lag grew in most passes: the query rate exceeds capacity, so every query counts as failed");
        failed += queries as u64;
    }
    let ack = ack_latency(&reps);
    let probes: Vec<&loadgen::Probe> = reps
        .iter()
        .filter_map(|r| r.probes.as_ref())
        .flat_map(|p| &p.probes)
        .collect();
    let queries: Vec<f64> = probes.iter().map(|p| ms(p.latency)).collect();
    let lags: Vec<f64> = probes.iter().map(|p| ms(p.lag)).collect();
    let query = summary_line("query latency (due time to reply)", &queries);
    let lag = summary_line("prober lag (send time minus due time)", &lags);
    let busy: u64 = reps.iter().map(|r| r.server.busy).sum();
    let ingest_frames: u64 = reps.iter().map(|r| r.server.ingest_frames).sum();
    println!(
        "report: {} repetitions, {busy} Busy replies of {ingest_frames} ingest frames",
        reps.len()
    );
    report_input(&input, reps.last().expect("at least one repetition"));

    if args.trace {
        let queries_per_rep = probes.len() / reps.len();
        let mut layers =
            traced::serve_layers(&input, queries_per_rep, kind == Kind::IngestQuery, &records);
        let snapshot_per_query = layers
            .iter()
            .find(|(n, _)| *n == "engine.snapshot_ms_per_query")
            .map_or(0.0, |&(_, v)| v);
        let walks: u64 = reps.iter().map(|r| r.server.grammar_walks).sum();
        layers.extend([
            ("serve.busy_frac", busy as f64 / ingest_frames.max(1) as f64),
            (
                "serve.lane_max_depth",
                reps.iter()
                    .map(|r| r.server.lane_max_depth)
                    .max()
                    .unwrap_or(0) as f64,
            ),
            (
                "serve.grammar_walks_per_query",
                if probes.is_empty() {
                    0.0
                } else {
                    walks as f64 / probes.len() as f64
                },
            ),
            ("serve.ack_p99_ms", ack.map_or(0.0, |(_, tail)| tail)),
            (
                "serve.query_wait_ms",
                query.map_or(0.0, |s| s.p50 - snapshot_per_query),
            ),
            ("loadgen.lag_tail_ms", lag.map_or(0.0, |s| s.tail)),
        ]);
        print_layers(&layers);
        return Ok(Outcome::new(attempted, failed, &layers, true));
    }

    let (p50, tail) = match kind {
        Kind::Ingest => ack,
        Kind::IngestQuery => query.map(|s| (s.p50, s.tail)),
    }
    .ok_or("no latency samples")?;
    let values = [
        (
            "wall_s",
            median(reps.iter().map(|r| r.pass.wall.as_secs_f64())),
        ),
        (
            "rec_per_s",
            median(reps.iter().map(|r| r.rec_per_s(&input))),
        ),
        ("p50_ms", p50),
        ("tail_ms", tail),
        (
            "setup_s",
            median(reps.iter().map(|r| r.setup.as_secs_f64())),
        ),
        (
            "peak_rss_mib",
            median(reps.iter().map(|r| r.server_rss_kib as f64 / 1024.0)),
        ),
    ];
    Ok(Outcome::new(attempted, failed, &values, false))
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "reproduce_all" => run_batch(args),
        "ingest" => run_serve(Kind::Ingest, args),
        "ingest_query" => run_serve(Kind::IngestQuery, args),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("child-server") => {
            procs::exit_with_parent();
            serve_wl::child_server(&args[1..]).map(|()| None)
        }
        Some("child-reproduce") => {
            procs::exit_with_parent();
            batch_wl::child_reproduce(&args[1..]).map(|()| None)
        }
        _ => parse_args(&args).and_then(|a| run(&a)).map(Some),
    };
    match result {
        Ok(Some(outcome)) => println!("{}", outcome.render()),
        Ok(None) => {}
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
