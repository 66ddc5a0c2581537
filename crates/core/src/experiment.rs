//! End-to-end experiment runner: workload × system context → the paper's
//! full characterization.
//!
//! For each workload the runner builds two independent simulations (the
//! 16-node multi-chip system and the 4-core single-chip system), warms
//! them without recording (the paper warms for thousands of transactions
//! before tracing), records the measured phase, and runs the stream,
//! stride, distribution, and origin analyses over the three resulting
//! traces (multi-chip off-chip, single-chip off-chip, intra-chip).
//!
//! The runner itself is a thin serial composition of the pure stage
//! functions in [`crate::stages`]; the `tempstream-runtime` crate
//! composes the same stages into a parallel job DAG and is required to
//! produce bit-identical results.

use crate::distribution::{LengthCdf, ReuseDistancePdf};
use crate::functions::FunctionTable;
use crate::origins::OriginTable;
use crate::report::{
    IntraClassBreakdown, MissClassBreakdown, StreamFractionReport, StrideJointReport,
};
use crate::stages;
use tempstream_coherence::{MultiChipConfig, SingleChipConfig};
use tempstream_trace::{MissTrace, SymbolTable};
use tempstream_workloads::{Scale, Workload};

/// Experiment parameters.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// Workload-generation seed.
    pub seed: u64,
    /// Multi-chip system geometry.
    pub multi_chip: MultiChipConfig,
    /// Single-chip system geometry.
    pub single_chip: SingleChipConfig,
    /// Overrides each workload's default scale when set.
    pub scale_override: Option<Scale>,
    /// Cap on the misses fed to the SEQUITUR analysis (memory bound);
    /// class breakdowns always use the full trace. The parallel
    /// executor truncates each collected trace to this length before
    /// its analyze stages run.
    pub max_analysis_misses: usize,
}

impl ExperimentConfig {
    /// The paper's systems at the default measurement scale.
    pub fn paper() -> Self {
        ExperimentConfig {
            seed: 0x715C_2008,
            multi_chip: MultiChipConfig::paper(),
            single_chip: SingleChipConfig::paper(),
            scale_override: None,
            max_analysis_misses: 1_500_000,
        }
    }

    /// A reduced configuration for tests and doc examples: small caches,
    /// fewer nodes, smoke-scale workloads.
    pub fn quick() -> Self {
        ExperimentConfig {
            seed: 7,
            multi_chip: MultiChipConfig::small(8),
            single_chip: SingleChipConfig::small(4),
            scale_override: Some(Scale {
                warmup_ops: 30,
                ops: 250,
            }),
            max_analysis_misses: 200_000,
        }
    }

    /// Returns `self` with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns `self` with a scale override.
    pub fn with_scale(mut self, scale: Scale) -> Self {
        self.scale_override = Some(scale);
        self
    }
}

/// Stream/stride/origin results shared by all three contexts.
#[derive(Debug, Clone)]
pub struct StreamResults {
    /// Figure 2 segments.
    pub stream_fraction: StreamFractionReport,
    /// Figure 3 joint breakdown.
    pub stride_joint: StrideJointReport,
    /// Figure 4 (left).
    pub length_cdf: LengthCdf,
    /// Figure 4 (right).
    pub reuse_pdf: ReuseDistancePdf,
    /// Tables 3-5 rows.
    pub origins: OriginTable,
    /// Per-function drill-down behind the origin table (§5 narrative).
    pub functions: FunctionTable,
    /// Distinct streams found by SEQUITUR.
    pub distinct_streams: usize,
    /// Misses fed to the stream analysis (may be capped).
    pub analyzed_misses: usize,
}

/// Results for one off-chip context (multi-chip or single-chip).
#[derive(Debug, Clone)]
pub struct OffChipResults {
    /// Figure 1 (left) bars.
    pub breakdown: MissClassBreakdown,
    /// Figure 2/3/4 and the origin table.
    pub streams: StreamResults,
    /// Total recorded misses (before any analysis cap).
    pub total_misses: usize,
}

/// Results for the intra-chip context.
#[derive(Debug, Clone)]
pub struct IntraChipResults {
    /// Figure 1 (right) bars.
    pub breakdown: IntraClassBreakdown,
    /// Figure 2/3/4 and the origin table.
    pub streams: StreamResults,
    /// Total recorded misses.
    pub total_misses: usize,
}

/// All three contexts for one workload.
#[derive(Debug, Clone)]
pub struct WorkloadResults {
    /// The workload analyzed.
    pub workload: Workload,
    /// Off-chip misses of the 16-node DSM.
    pub multi_chip: OffChipResults,
    /// Off-chip misses of the 4-core CMP.
    pub single_chip: OffChipResults,
    /// On-chip-satisfied L1 misses of the CMP.
    pub intra_chip: IntraChipResults,
}

/// The serial experiment runner.
#[derive(Debug, Clone)]
pub struct Experiment {
    config: ExperimentConfig,
}

impl Experiment {
    /// Creates a runner.
    pub fn new(config: ExperimentConfig) -> Self {
        Experiment { config }
    }

    /// The configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Runs one workload through both systems and analyzes all three
    /// contexts.
    pub fn run_workload(&self, workload: Workload) -> WorkloadResults {
        stages::run_workload_serial(&self.config, workload)
    }

    /// Runs every workload.
    pub fn run_all(&self) -> Vec<WorkloadResults> {
        Workload::ALL
            .iter()
            .map(|&w| self.run_workload(w))
            .collect()
    }

    /// Collects the multi-chip trace for one workload (used by the
    /// spatial-analysis command; analyses normally go through
    /// [`Experiment::run_workload`]).
    pub fn collect_multi_chip(
        &self,
        workload: Workload,
    ) -> (MissTrace<tempstream_trace::MissClass>, SymbolTable) {
        stages::collect_multi_chip(&self.config, workload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_experiment_produces_all_contexts() {
        let r = Experiment::new(ExperimentConfig::quick()).run_workload(Workload::Apache);
        assert!(r.multi_chip.total_misses > 0, "multi-chip trace empty");
        assert!(r.single_chip.total_misses > 0, "single-chip trace empty");
        assert!(r.intra_chip.total_misses > 0, "intra-chip trace empty");
        // Intra-chip misses include all off-chip L1 misses, so there are
        // at least as many.
        assert!(r.intra_chip.total_misses >= r.single_chip.total_misses);
        // Labels and counts are internally consistent.
        assert_eq!(
            r.multi_chip.streams.stream_fraction.total() as usize,
            r.multi_chip.streams.analyzed_misses
        );
    }

    #[test]
    fn determinism_across_runs() {
        let cfg = ExperimentConfig::quick();
        let a = Experiment::new(cfg).run_workload(Workload::Oltp);
        let b = Experiment::new(cfg).run_workload(Workload::Oltp);
        assert_eq!(a.multi_chip.total_misses, b.multi_chip.total_misses);
        assert_eq!(
            a.multi_chip.streams.stream_fraction.recurring_stream,
            b.multi_chip.streams.stream_fraction.recurring_stream
        );
        assert_eq!(a.intra_chip.total_misses, b.intra_chip.total_misses);
    }

    #[test]
    fn analysis_cap_is_respected() {
        let mut cfg = ExperimentConfig::quick();
        cfg.max_analysis_misses = 100;
        let r = Experiment::new(cfg).run_workload(Workload::DssQ1);
        assert!(r.multi_chip.streams.analyzed_misses <= 100);
        assert!(r.multi_chip.total_misses >= r.multi_chip.streams.analyzed_misses);
    }

    #[test]
    fn origin_tables_cover_all_misses() {
        let r = Experiment::new(ExperimentConfig::quick()).run_workload(Workload::Zeus);
        let t = &r.multi_chip.streams.origins;
        let sum: u64 = t.rows.iter().map(|row| row.misses).sum();
        assert_eq!(sum, t.total_misses);
    }
}
