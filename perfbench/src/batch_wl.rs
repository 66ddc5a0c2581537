//! The `reproduce_all` workload: `tempstream_runtime::run_workloads`
//! over `ExperimentConfig::paper()` and all six workload models with
//! two workers — what `reproduce all` runs — in a child process.
//!
//! Set-up is the time from spawning the reproduction process until it
//! is ready to run the pipeline. After the timed run, outside the timed
//! phase, the child composes the serial stages for one workload model
//! and checks that its results equal the pipeline's bit for bit; the
//! digest of all results is reported so commits can be compared. The
//! traced run checks the digest of all six models against the serial
//! composition.

use std::hash::Hasher;
use std::time::{Duration, Instant};

use tempstream_core::stages::run_workload_serial;
use tempstream_core::{ExperimentConfig, WorkloadResults};
use tempstream_runtime::{run_workloads, RuntimeConfig};
use tempstream_workloads::Workload;

use crate::procs::Child;

/// Pipeline worker threads.
pub const WORKERS: usize = 2;
/// The model checked serially after every run: the smallest, so the
/// check stays cheap.
pub const CHECK_WORKLOAD: Workload = Workload::DssQ2;
/// Set-up samples per run (process spawn to ready).
const SETUP_SAMPLES: usize = 21;

/// The experiment configuration for benchmark seed `seed`.
pub fn config(seed: u64) -> ExperimentConfig {
    ExperimentConfig::paper().with_seed(seed)
}

/// Digest of a result set: `Debug` output renders every counter and
/// every `f64` exactly, so equal digests mean bit-identical results.
pub fn digest(results: &[WorkloadResults]) -> u64 {
    let mut h = tempstream_fxhash::FxHasher::default();
    h.write(format!("{results:#?}").as_bytes());
    h.finish()
}

/// What one reproduction reported.
#[derive(Debug, Clone)]
pub struct Run {
    /// Spawn to ready, per sample.
    pub setups: Vec<Duration>,
    /// `run_workloads` wall time.
    pub wall: Duration,
    /// Miss records the simulators recorded, over all contexts.
    pub misses: u64,
    /// Digest of all results.
    pub digest: u64,
    /// Pool utilization reported by the run summary.
    pub utilization: f64,
    /// The reproduction process's peak resident set, KiB.
    pub rss_kib: u64,
    /// The serial check of [`CHECK_WORKLOAD`] matched.
    pub check_ok: bool,
}

/// Runs one reproduction in a child process.
pub fn run(seed: u64) -> Result<Run, String> {
    let mut setups = Vec::with_capacity(SETUP_SAMPLES);
    for _ in 1..SETUP_SAMPLES {
        let t0 = Instant::now();
        let mut child =
            Child::spawn(&["child-reproduce".into(), seed.to_string(), "setup".into()])?;
        child.expect("ready")?;
        setups.push(t0.elapsed());
        child.wait()?;
    }
    let t0 = Instant::now();
    let mut child = Child::spawn(&["child-reproduce".into(), seed.to_string(), "run".into()])?;
    child.expect("ready")?;
    setups.push(t0.elapsed());
    let wall = Duration::from_nanos(child.expect_parse("wall_ns")?);
    let misses = child.expect_parse("misses")?;
    let digest =
        u64::from_str_radix(&child.expect("digest")?, 16).map_err(|_| "child digest is not hex")?;
    let utilization = child.expect_parse("utilization")?;
    let rss_kib = child.expect_parse("rss_kib")?;
    let check_ok = child.expect("check")? == "ok";
    child.wait()?;
    Ok(Run {
        setups,
        wall,
        misses,
        digest,
        utilization,
        rss_kib,
        check_ok,
    })
}

/// The `child-reproduce <seed> <setup|run>` mode.
pub fn child_reproduce(args: &[String]) -> Result<(), String> {
    let [seed, mode] = args else {
        return Err("child-reproduce <seed> <setup|run>".into());
    };
    let cfg = config(seed.parse().map_err(|_| "bad seed")?);
    println!("ready -");
    if mode == "setup" {
        return Ok(());
    }
    let t0 = Instant::now();
    let (results, summary) =
        run_workloads(&cfg, RuntimeConfig::with_workers(WORKERS), &Workload::ALL);
    let wall = t0.elapsed();
    let rss_kib = crate::procs::peak_rss_kib();
    let misses: u64 = results
        .iter()
        .map(|r| {
            (r.multi_chip.total_misses + r.single_chip.total_misses + r.intra_chip.total_misses)
                as u64
        })
        .sum();
    println!("wall_ns {}", wall.as_nanos());
    println!("misses {misses}");
    println!("digest {:016x}", digest(&results));
    println!("utilization {}", summary.utilization());
    println!("rss_kib {rss_kib}");
    let idx = Workload::ALL
        .iter()
        .position(|&w| w == CHECK_WORKLOAD)
        .expect("check workload is a paper workload");
    let serial = run_workload_serial(&cfg, CHECK_WORKLOAD);
    let ok = digest(std::slice::from_ref(&serial)) == digest(&results[idx..=idx]);
    println!("check {}", if ok { "ok" } else { "mismatch" });
    Ok(())
}
