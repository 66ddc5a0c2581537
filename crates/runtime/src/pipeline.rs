//! The reproduction as a DAG of jobs on the work-stealing pool.
//!
//! Per workload × system context, the DAG is:
//!
//! ```text
//! Simulate(context) ──▶ Analyze(Streams) ──▶ Analyze(Origins)
//!        │                    │          └─▶ Analyze(Functions)
//!        │                    └─(labels)
//!        └──────────────────▶ Analyze(Strides)
//! ```
//!
//! and a final **Reduce** merges every partial into
//! [`WorkloadResults`].
//!
//! Each simulate job generates its workload's access stream itself —
//! emit is fused into simulate, the same single-threaded collect the
//! serial runner uses — so no access ever crosses a thread. The
//! concurrency is *across* workloads and contexts, which the pool
//! exploits. A simulate job truncates its trace to the experiment's
//! `max_analysis_misses` and shares it, read-only behind an [`Arc`],
//! with the analysis jobs it spawns; every downstream job is spawned
//! the moment its inputs exist.
//!
//! **Determinism:** every job is a pure function of a trace produced
//! by the deterministic collect stages of `tempstream_core::stages`.
//! Each partial is written once into the slot of its (workload
//! ordinal, [`Context`]) pair, and the reducer drains the slots in
//! ascending ordinal and context order — so the assembled results are
//! bit-identical to the serial runner for any worker count and any
//! scheduling order.

use crate::metrics::{RunMetrics, RunSummary, Stage};
use crate::pool::{self, Worker};
use crate::sync::{thread, Arc, Mutex};
use std::time::Instant;
use tempstream_core::experiment::{
    ExperimentConfig, IntraChipResults, OffChipResults, WorkloadResults,
};
use tempstream_core::report::{IntraClassBreakdown, MissClassBreakdown};
use tempstream_core::stages::{self, StreamsPartial};
use tempstream_core::streams::StreamLabel;
use tempstream_trace::io::TraceClass;
use tempstream_trace::{MissTrace, SymbolTable};
use tempstream_workloads::Workload;

/// One of the three analysis contexts of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Context {
    /// Off-chip misses of the 16-node DSM.
    MultiChip,
    /// Off-chip misses of the 4-core CMP.
    SingleChip,
    /// On-chip-satisfied L1 misses of the CMP.
    IntraChip,
}

impl Context {
    fn index(self) -> usize {
        match self {
            Context::MultiChip => 0,
            Context::SingleChip => 1,
            Context::IntraChip => 2,
        }
    }
}

/// Executor parameters.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Requested worker threads (clamped to at least 1). The pool never
    /// spawns more threads than the host's available parallelism —
    /// oversubscription only costs context switches — so this is an
    /// upper bound, reported as-is in the run summary.
    pub workers: usize,
}

impl RuntimeConfig {
    /// A configuration with `workers` threads.
    pub fn with_workers(workers: usize) -> Self {
        RuntimeConfig {
            workers: workers.max(1),
        }
    }

    /// The host's available parallelism (the `--jobs` default).
    pub fn default_workers() -> usize {
        thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    }
}

/// A write-once slot for one partial result.
struct Cell<T>(Mutex<Option<T>>);

impl<T> Cell<T> {
    fn new() -> Self {
        Cell(Mutex::new(None))
    }

    fn set(&self, value: T) {
        let prev = self.0.lock().replace(value);
        assert!(prev.is_none(), "partial result produced twice");
    }

    fn take(&self) -> T {
        self.0
            .lock()
            .take()
            .expect("partial result missing at reduction")
    }
}

/// The simulate stage's contribution for one context: full-trace class
/// breakdown and the total miss count.
enum BreakdownPartial {
    OffChip(MissClassBreakdown),
    IntraChip(IntraClassBreakdown),
}

struct CollectedPartial {
    breakdown: BreakdownPartial,
    total_misses: usize,
}

/// All partials for one (workload, context) pair, filled in by jobs and
/// drained by the reducer in ordinal and context order.
struct ContextSlot {
    collected: Cell<CollectedPartial>,
    streams: Cell<StreamsPartial>,
    flags: Cell<Vec<bool>>,
    origins: Cell<tempstream_core::origins::OriginTable>,
    functions: Cell<tempstream_core::functions::FunctionTable>,
}

impl ContextSlot {
    fn new() -> Self {
        ContextSlot {
            collected: Cell::new(),
            streams: Cell::new(),
            flags: Cell::new(),
            origins: Cell::new(),
            functions: Cell::new(),
        }
    }
}

struct WorkloadSlots {
    contexts: [ContextSlot; 3],
}

impl WorkloadSlots {
    fn new() -> Self {
        WorkloadSlots {
            contexts: [ContextSlot::new(), ContextSlot::new(), ContextSlot::new()],
        }
    }

    fn context(&self, c: Context) -> &ContextSlot {
        &self.contexts[c.index()]
    }
}

/// Runs `workloads` through the full pipeline on up to `rt.workers`
/// threads (never more than the host's available parallelism).
///
/// Returns the per-workload results **in input order** (bit-identical
/// to [`tempstream_core::Experiment::run_workload`] on each) plus the
/// run's per-stage summary.
///
/// # Panics
///
/// Panics if a workload/simulator stage panics (the first panic is
/// re-raised after the pool drains).
pub fn run_workloads(
    cfg: &ExperimentConfig,
    rt: RuntimeConfig,
    workloads: &[Workload],
) -> (Vec<WorkloadResults>, RunSummary) {
    let start = Instant::now();
    let metrics = RunMetrics::new();
    let slots: Vec<WorkloadSlots> = workloads.iter().map(|_| WorkloadSlots::new()).collect();

    // Oversubscribing the hardware only adds context-switch and
    // cache-eviction cost: pipeline jobs are CPU-bound, so a worker
    // thread beyond the core count has nothing to overlap with. The
    // pool gets at most one thread per available core, whatever was
    // requested; results are bit-identical at any thread count either
    // way.
    let threads = rt.workers.min(RuntimeConfig::default_workers());
    let (injector_depth, deque_depth) = pool::scope(threads, |p| {
        let cfg = *cfg;
        let (slots, metrics) = (&slots, &metrics);
        for (ordinal, &workload) in workloads.iter().enumerate() {
            p.spawn(move |w| simulate_multi_chip(w, &cfg, workload, ordinal, slots, metrics));
            p.spawn(move |w| simulate_single_chip(w, &cfg, workload, ordinal, slots, metrics));
        }
        p.join();
        (p.injector_max_depth(), p.worker_max_depth())
    });

    // Slot-keyed reduction: workloads in ordinal order, contexts in
    // index order; every partial is taken from its slot, never from
    // arrival order.
    let results = metrics.time(Stage::Reduce, || {
        workloads
            .iter()
            .enumerate()
            .map(|(ordinal, &workload)| reduce_workload(workload, &slots[ordinal]))
            .collect::<Vec<_>>()
    });

    let summary = metrics.summarize(rt.workers, start.elapsed(), injector_depth, deque_depth);
    (results, summary)
}

fn simulate_multi_chip<'env>(
    w: &Worker<'_, 'env>,
    cfg: &ExperimentConfig,
    workload: Workload,
    ordinal: usize,
    slots: &'env [WorkloadSlots],
    metrics: &'env RunMetrics,
) {
    let t0 = Instant::now();
    let (mut trace, symbols) = stages::collect_multi_chip(cfg, workload);
    let slot = slots[ordinal].context(Context::MultiChip);
    slot.collected.set(CollectedPartial {
        breakdown: BreakdownPartial::OffChip(MissClassBreakdown::of_trace(&trace)),
        total_misses: trace.len(),
    });
    // Everything downstream reads at most the analysis cap; dropping
    // the excess now (breakdown and total are already banked) shrinks
    // RSS while the analyses run.
    trace.truncate(cfg.max_analysis_misses);
    metrics.record(Stage::Simulate, t0.elapsed());
    spawn_analyses(
        w,
        ordinal,
        Context::MultiChip,
        workload,
        Arc::new(trace),
        Arc::new(symbols),
        slots,
        metrics,
    );
}

fn simulate_single_chip<'env>(
    w: &Worker<'_, 'env>,
    cfg: &ExperimentConfig,
    workload: Workload,
    ordinal: usize,
    slots: &'env [WorkloadSlots],
    metrics: &'env RunMetrics,
) {
    let t0 = Instant::now();
    let (mut traces, symbols) = stages::collect_single_chip(cfg, workload);
    let symbols = Arc::new(symbols);

    let off_slot = slots[ordinal].context(Context::SingleChip);
    off_slot.collected.set(CollectedPartial {
        breakdown: BreakdownPartial::OffChip(MissClassBreakdown::of_trace(&traces.off_chip)),
        total_misses: traces.off_chip.len(),
    });
    let intra_slot = slots[ordinal].context(Context::IntraChip);
    intra_slot.collected.set(CollectedPartial {
        breakdown: BreakdownPartial::IntraChip(IntraClassBreakdown::of_trace(&traces.intra_chip)),
        total_misses: traces.intra_chip.len(),
    });

    // See `simulate_multi_chip`: downstream jobs only read the capped
    // prefix, so shed the excess before sharing.
    traces.off_chip.truncate(cfg.max_analysis_misses);
    traces.intra_chip.truncate(cfg.max_analysis_misses);
    metrics.record(Stage::Simulate, t0.elapsed());

    spawn_analyses(
        w,
        ordinal,
        Context::SingleChip,
        workload,
        Arc::new(traces.off_chip),
        symbols.clone(),
        slots,
        metrics,
    );
    spawn_analyses(
        w,
        ordinal,
        Context::IntraChip,
        workload,
        Arc::new(traces.intra_chip),
        symbols,
        slots,
        metrics,
    );
}

/// Spawns the four analysis jobs for one collected (already capped)
/// context. `Streams` spawns `Origins` and `Functions` the moment the
/// labels exist; `Strides` is independent.
#[allow(clippy::too_many_arguments)]
fn spawn_analyses<'env, C>(
    w: &Worker<'_, 'env>,
    ordinal: usize,
    context: Context,
    workload: Workload,
    trace: Arc<MissTrace<C>>,
    symbols: Arc<SymbolTable>,
    slots: &'env [WorkloadSlots],
    metrics: &'env RunMetrics,
) where
    C: TraceClass + Send + Sync + 'static,
{
    let slot = slots[ordinal].context(context);

    {
        let trace = trace.clone();
        w.spawn(move |w2| {
            metrics.time(Stage::Analyze, || {
                let partial = stages::analyze_streams(trace.records(), trace.num_cpus());
                // The partial shares its label vector behind an Arc, so
                // handing labels to the origin/function jobs is a
                // refcount bump, not a copy of ~10⁶ entries.
                let labels: Arc<Vec<StreamLabel>> = partial.labels.clone();
                slot.streams.set(partial);

                let (tr, sy, lb) = (trace.clone(), symbols.clone(), labels.clone());
                w2.spawn(move |_| {
                    metrics.time(Stage::Analyze, || {
                        slot.origins
                            .set(stages::analyze_origins(tr.records(), &lb, &sy, workload));
                    });
                });
                w2.spawn(move |_| {
                    metrics.time(Stage::Analyze, || {
                        slot.functions.set(stages::analyze_functions(
                            trace.records(),
                            &labels,
                            &symbols,
                        ));
                    });
                });
            });
        });
    }

    w.spawn(move |_| {
        metrics.time(Stage::Analyze, || {
            slot.flags
                .set(stages::analyze_strides(trace.records(), trace.num_cpus()));
        });
    });
}

/// Merges one workload's partials, in ascending context order.
fn reduce_workload(workload: Workload, slots: &WorkloadSlots) -> WorkloadResults {
    let off = |context: Context| {
        let slot = slots.context(context);
        let collected = slot.collected.take();
        let BreakdownPartial::OffChip(breakdown) = collected.breakdown else {
            panic!("off-chip context carried an intra-chip breakdown");
        };
        let streams = slot.streams.take();
        let analyzed = streams.labels.len();
        OffChipResults {
            breakdown,
            total_misses: collected.total_misses,
            streams: stages::assemble_stream_results(
                streams,
                &slot.flags.take(),
                slot.origins.take(),
                slot.functions.take(),
                analyzed,
            ),
        }
    };
    let multi_chip = off(Context::MultiChip);
    let single_chip = off(Context::SingleChip);

    let slot = slots.context(Context::IntraChip);
    let collected = slot.collected.take();
    let BreakdownPartial::IntraChip(breakdown) = collected.breakdown else {
        panic!("intra-chip context carried an off-chip breakdown");
    };
    let streams = slot.streams.take();
    let analyzed = streams.labels.len();
    let intra_chip = IntraChipResults {
        breakdown,
        total_misses: collected.total_misses,
        streams: stages::assemble_stream_results(
            streams,
            &slot.flags.take(),
            slot.origins.take(),
            slot.functions.take(),
            analyzed,
        ),
    };

    WorkloadResults {
        workload,
        multi_chip,
        single_chip,
        intra_chip,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempstream_core::Experiment;

    fn digest(results: &[WorkloadResults]) -> String {
        // Debug formatting round-trips every counter and every f64
        // exactly (shortest-roundtrip), so string equality here is
        // bit-identity of the result structures.
        format!("{results:#?}")
    }

    #[test]
    fn parallel_matches_serial_for_any_worker_count() {
        let cfg = ExperimentConfig::quick();
        let workloads = [Workload::Apache, Workload::DssQ2];
        let serial: Vec<_> = workloads
            .iter()
            .map(|&w| Experiment::new(cfg).run_workload(w))
            .collect();
        let expected = digest(&serial);
        for workers in [1, 2, 4] {
            let (got, summary) =
                run_workloads(&cfg, RuntimeConfig::with_workers(workers), &workloads);
            assert_eq!(
                digest(&got),
                expected,
                "results diverged with {workers} workers"
            );
            assert_eq!(summary.workers, workers);
            assert!(summary.stages[1].jobs > 0, "no analyze jobs recorded");
        }
    }

    #[test]
    fn summary_reports_pipeline_shape() {
        let cfg = ExperimentConfig::quick();
        let (_, summary) = run_workloads(&cfg, RuntimeConfig::with_workers(2), &[Workload::Zeus]);
        // 2 simulate jobs (mc + sc), 12 analyze jobs (3 contexts × 4
        // analyses), 1 reduce call.
        assert_eq!(summary.stages[0].jobs, 2, "simulate jobs");
        assert_eq!(summary.stages[1].jobs, 12, "analyze jobs");
        assert_eq!(summary.stages[2].jobs, 1, "reduce batches");
        assert!(summary.wall.as_nanos() > 0);
    }

    #[test]
    fn fused_emit_records_no_emit_jobs() {
        // Emit is fused into simulate: the summary carries no emit stage,
        // and every trace is produced by one of the 2 simulate jobs.
        let cfg = ExperimentConfig::quick();
        let (_, summary) = run_workloads(&cfg, RuntimeConfig::with_workers(2), &[Workload::Zeus]);
        let names: Vec<&str> = summary.stages.iter().map(|s| s.stage.name()).collect();
        assert_eq!(names, ["simulate", "analyze", "reduce"], "no emit stage");
        assert_eq!(summary.stages[0].jobs, 2, "simulate jobs");
        assert_eq!(summary.stages[1].jobs, 12, "analyze jobs");
        assert_eq!(summary.stages[2].jobs, 1, "reduce batches");
    }
}
