//! Pure pipeline stages of the collect-then-analyze workflow.
//!
//! The paper's experiment decomposes into three stage families:
//!
//! 1. **Emit** — a [`WorkloadSession`] drives warmup and measured
//!    operations into an [`AccessSink`];
//! 2. **Simulate** — a memory-system simulator consumes the access
//!    stream and produces classified miss traces;
//! 3. **Analyze** — pure functions over an immutable trace produce the
//!    stream, stride, origin, and function reports.
//!
//! Every function here is deterministic in its inputs and holds no
//! hidden state, so the serial [`Experiment`](crate::Experiment) runner
//! and the parallel `tempstream-runtime` executor both compose the same
//! stages — which is what makes the parallel results bit-identical to
//! the serial ones regardless of worker count or scheduling order.
//!
//! The emit and simulate stages communicate only through the
//! [`PhasedSink`] trait, which carries the warmup/measurement boundary
//! to the simulator. Both runners collect through the same
//! [`collect_multi_chip`] / [`collect_single_chip`] calls, so they
//! observe the identical access sequence with the identical boundary.

use crate::distribution::{LengthCdf, ReuseDistancePdf};
use crate::experiment::{
    ExperimentConfig, IntraChipResults, OffChipResults, StreamResults, WorkloadResults,
};
use crate::functions::FunctionTable;
use crate::origins::OriginTable;
use crate::report::{
    IntraClassBreakdown, MissClassBreakdown, StreamFractionReport, StrideJointReport,
};
use crate::streams::{StreamAnalysis, StreamLabel};
use crate::stride::StrideDetector;
use std::sync::Arc;
use tempstream_coherence::single_chip::SingleChipTraces;
use tempstream_coherence::{MultiChipSim, SingleChipSim};
use tempstream_trace::miss::MissRecord;
use tempstream_trace::sink::AccessSink;
use tempstream_trace::{IntraChipClass, MissClass, MissTrace, SymbolTable};
use tempstream_workloads::{Scale, Workload, WorkloadSession};

/// An access consumer that distinguishes the warmup phase from the
/// measured phase.
///
/// Simulators flip their recording flag at the boundary; streaming
/// sinks forward a marker so a downstream simulator can do the same.
pub trait PhasedSink: AccessSink {
    /// Called once, after warmup accesses and before measured accesses.
    fn begin_measurement(&mut self);
}

impl PhasedSink for MultiChipSim {
    fn begin_measurement(&mut self) {
        self.set_recording(true);
    }
}

impl PhasedSink for SingleChipSim {
    fn begin_measurement(&mut self) {
        self.set_recording(true);
    }
}

/// Output of the emit stage: measured-phase instruction count and the
/// session's function-name table.
#[derive(Debug)]
pub struct EmitOutput {
    /// Instructions executed during the measured phase (the MPKI
    /// denominator).
    pub instructions: u64,
    /// Function-name table for code-module attribution.
    pub symbols: SymbolTable,
}

/// The measurement scale for `workload` under `cfg`.
pub fn scale_for(cfg: &ExperimentConfig, workload: Workload) -> Scale {
    cfg.scale_override
        .unwrap_or_else(|| workload.default_scale())
}

/// Emit stage: builds the workload deterministically from `seed` and
/// drives its warmup then measured operations into `sink`, announcing
/// the phase boundary via [`PhasedSink::begin_measurement`].
pub fn emit_workload<S: PhasedSink>(
    workload: Workload,
    num_cpus: u32,
    seed: u64,
    scale: Scale,
    sink: &mut S,
) -> EmitOutput {
    tempstream_obsv::global().time("stage/emit", || {
        let mut session = WorkloadSession::new(workload, num_cpus, seed);
        session.run(sink, scale.warmup_ops);
        sink.begin_measurement();
        let stats = session.run(sink, scale.ops);
        EmitOutput {
            instructions: stats.instructions,
            symbols: session.into_symbols(),
        }
    })
}

/// Fused emit+simulate stage for the multi-chip system: collects the
/// off-chip miss trace and symbol table for one workload.
pub fn collect_multi_chip(
    cfg: &ExperimentConfig,
    workload: Workload,
) -> (MissTrace<MissClass>, SymbolTable) {
    tempstream_obsv::global().time("stage/simulate/multi_chip", || {
        let scale = scale_for(cfg, workload);
        let mut sim = MultiChipSim::new(cfg.multi_chip);
        sim.set_recording(false);
        let out = emit_workload(workload, cfg.multi_chip.nodes, cfg.seed, scale, &mut sim);
        sim.export_obsv(
            tempstream_obsv::global(),
            &format!("sim/{}/multi_chip", workload.name()),
        );
        (sim.finish(out.instructions), out.symbols)
    })
}

/// Fused emit+simulate stage for the single-chip system: collects the
/// off-chip and intra-chip traces and the symbol table for one workload.
pub fn collect_single_chip(
    cfg: &ExperimentConfig,
    workload: Workload,
) -> (SingleChipTraces, SymbolTable) {
    tempstream_obsv::global().time("stage/simulate/single_chip", || {
        let scale = scale_for(cfg, workload);
        let mut sim = SingleChipSim::new(cfg.single_chip);
        sim.set_recording(false);
        let out = emit_workload(workload, cfg.single_chip.cores, cfg.seed, scale, &mut sim);
        sim.export_obsv(
            tempstream_obsv::global(),
            &format!("sim/{}/single_chip", workload.name()),
        );
        (sim.finish(out.instructions), out.symbols)
    })
}

/// Truncates `records` to at most `max` entries (the SEQUITUR memory
/// cap); class breakdowns always run over the full trace.
pub fn cap<C>(records: &[MissRecord<C>], max: usize) -> &[MissRecord<C>] {
    &records[..records.len().min(max)]
}

/// Joint repetitive × strided breakdown (Figure 3) from the per-miss
/// stream labels and stride flags.
pub fn joint_breakdown(labels: &[StreamLabel], flags: &[bool]) -> StrideJointReport {
    let mut joint = StrideJointReport::default();
    for (label, &strided) in labels.iter().zip(flags) {
        let repetitive = *label != StreamLabel::NonRepetitive;
        match (repetitive, strided) {
            (false, false) => joint.non_repetitive_non_strided += 1,
            (false, true) => joint.non_repetitive_strided += 1,
            (true, false) => joint.repetitive_non_strided += 1,
            (true, true) => joint.repetitive_strided += 1,
        }
    }
    joint
}

/// Partial result of the SEQUITUR stream-analysis job: everything
/// derived from the stream labels alone.
#[derive(Debug, Clone)]
pub struct StreamsPartial {
    /// Figure 2 segments.
    pub stream_fraction: StreamFractionReport,
    /// Per-miss labels, in trace order (input to the join/origin jobs).
    /// Behind an `Arc` so the parallel executor can hand the label
    /// vector to several analyze jobs without copying ~10⁶ entries.
    pub labels: Arc<Vec<StreamLabel>>,
    /// Figure 4 (left).
    pub length_cdf: LengthCdf,
    /// Figure 4 (right).
    pub reuse_pdf: ReuseDistancePdf,
    /// Distinct streams found by SEQUITUR.
    pub distinct_streams: usize,
}

/// Stream-analysis stage: SEQUITUR labeling plus the label-only reports.
pub fn analyze_streams<C: Copy>(records: &[MissRecord<C>], num_cpus: u32) -> StreamsPartial {
    let analysis = tempstream_obsv::global().time("stage/analyze/streams", || {
        StreamAnalysis::of_records(records, num_cpus)
    });
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
}

/// Stride-analysis stage: per-miss constant-stride flags.
pub fn analyze_strides<C: Copy>(records: &[MissRecord<C>], num_cpus: u32) -> Vec<bool> {
    tempstream_obsv::global().time("stage/analyze/strides", || {
        StrideDetector::of_records(records, num_cpus)
            .flags()
            .to_vec()
    })
}

/// Origin-attribution stage (Tables 3-5).
pub fn analyze_origins<C: Copy>(
    records: &[MissRecord<C>],
    labels: &[StreamLabel],
    symbols: &SymbolTable,
    workload: Workload,
) -> OriginTable {
    tempstream_obsv::global().time("stage/analyze/origins", || {
        OriginTable::build(records, labels, symbols, workload.app_class())
    })
}

/// Per-function attribution stage (§5 narrative).
pub fn analyze_functions<C: Copy>(
    records: &[MissRecord<C>],
    labels: &[StreamLabel],
    symbols: &SymbolTable,
) -> FunctionTable {
    tempstream_obsv::global().time("stage/analyze/functions", || {
        FunctionTable::build(records, labels, symbols)
    })
}

/// Reduction: assembles the full [`StreamResults`] from the stage
/// partials. Pure and order-free — callers may compute the partials in
/// any order, on any thread.
pub fn assemble_stream_results(
    streams: StreamsPartial,
    flags: &[bool],
    origins: OriginTable,
    functions: FunctionTable,
    analyzed_misses: usize,
) -> StreamResults {
    tempstream_obsv::global().time("stage/reduce", || {
        let stride_joint = joint_breakdown(&streams.labels, flags);
        StreamResults {
            stream_fraction: streams.stream_fraction,
            stride_joint,
            length_cdf: streams.length_cdf,
            reuse_pdf: streams.reuse_pdf,
            origins,
            functions,
            distinct_streams: streams.distinct_streams,
            analyzed_misses,
        }
    })
}

/// Composed analyze stage over one (possibly capped) record slice.
pub fn analyze_stream_results<C: Copy>(
    records: &[MissRecord<C>],
    num_cpus: u32,
    symbols: &SymbolTable,
    workload: Workload,
) -> StreamResults {
    let streams = analyze_streams(records, num_cpus);
    let flags = analyze_strides(records, num_cpus);
    let origins = analyze_origins(records, &streams.labels, symbols, workload);
    let functions = analyze_functions(records, &streams.labels, symbols);
    assemble_stream_results(streams, &flags, origins, functions, records.len())
}

/// Full analyze stage for one off-chip trace: class breakdown over the
/// whole trace, stream analyses over the capped prefix.
pub fn analyze_off_chip(
    trace: &MissTrace<MissClass>,
    symbols: &SymbolTable,
    workload: Workload,
    max_analysis_misses: usize,
) -> OffChipResults {
    OffChipResults {
        breakdown: MissClassBreakdown::of_trace(trace),
        total_misses: trace.len(),
        streams: analyze_stream_results(
            cap(trace.records(), max_analysis_misses),
            trace.num_cpus(),
            symbols,
            workload,
        ),
    }
}

/// Full analyze stage for one intra-chip trace.
pub fn analyze_intra_chip(
    trace: &MissTrace<IntraChipClass>,
    symbols: &SymbolTable,
    workload: Workload,
    max_analysis_misses: usize,
) -> IntraChipResults {
    IntraChipResults {
        breakdown: IntraClassBreakdown::of_trace(trace),
        total_misses: trace.len(),
        streams: analyze_stream_results(
            cap(trace.records(), max_analysis_misses),
            trace.num_cpus(),
            symbols,
            workload,
        ),
    }
}

/// Serial composition of every stage for one workload — the reference
/// the parallel executor must match bit-for-bit.
pub fn run_workload_serial(cfg: &ExperimentConfig, workload: Workload) -> WorkloadResults {
    let (mc_trace, mc_symbols) = collect_multi_chip(cfg, workload);
    let multi_chip = analyze_off_chip(&mc_trace, &mc_symbols, workload, cfg.max_analysis_misses);
    drop(mc_trace);

    let (sc_traces, sc_symbols) = collect_single_chip(cfg, workload);
    let single_chip = analyze_off_chip(
        &sc_traces.off_chip,
        &sc_symbols,
        workload,
        cfg.max_analysis_misses,
    );
    let intra_chip = analyze_intra_chip(
        &sc_traces.intra_chip,
        &sc_symbols,
        workload,
        cfg.max_analysis_misses,
    );

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

    #[test]
    fn collect_matches_phased_emit() {
        // The PhasedSink boundary must reproduce the exact recording
        // window the serial simulators used before the refactor.
        let cfg = ExperimentConfig::quick();
        let (trace, _) = collect_multi_chip(&cfg, Workload::Apache);
        assert!(!trace.is_empty(), "no misses recorded");
        assert!(trace.instructions() > 0, "instructions not forwarded");
    }

    #[test]
    fn joint_breakdown_counts_all_pairs() {
        let labels = [
            StreamLabel::NonRepetitive,
            StreamLabel::NewStream,
            StreamLabel::RecurringStream,
            StreamLabel::NonRepetitive,
        ];
        let flags = [true, false, true, false];
        let j = joint_breakdown(&labels, &flags);
        assert_eq!(j.non_repetitive_strided, 1);
        assert_eq!(j.repetitive_non_strided, 1);
        assert_eq!(j.repetitive_strided, 1);
        assert_eq!(j.non_repetitive_non_strided, 1);
        assert_eq!(j.total(), 4);
    }

    #[test]
    fn split_stages_match_composed_analysis() {
        let cfg = ExperimentConfig::quick();
        let (trace, symbols) = collect_multi_chip(&cfg, Workload::Oltp);
        let records = cap(trace.records(), cfg.max_analysis_misses);
        let composed = analyze_stream_results(records, trace.num_cpus(), &symbols, Workload::Oltp);

        let streams = analyze_streams(records, trace.num_cpus());
        let flags = analyze_strides(records, trace.num_cpus());
        let origins = analyze_origins(records, &streams.labels, &symbols, Workload::Oltp);
        let functions = analyze_functions(records, &streams.labels, &symbols);
        let split = assemble_stream_results(streams, &flags, origins, functions, records.len());

        assert_eq!(split.stream_fraction, composed.stream_fraction);
        assert_eq!(split.stride_joint, composed.stride_joint);
        assert_eq!(split.distinct_streams, composed.distinct_streams);
        assert_eq!(split.analyzed_misses, composed.analyzed_misses);
    }
}
