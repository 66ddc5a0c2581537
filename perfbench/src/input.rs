//! Seeded benchmark inputs, generated before any timing starts.
//!
//! The serve workloads replay one stream-heavy record sequence built by
//! concatenating quick-configuration DB2 (TPC-C) multi-chip miss traces
//! over consecutive workload seeds. Each piece is a fresh simulation, so
//! the sequence keeps growing new streams and recurring ones; cycling a
//! single trace instead would collapse to a tiny grammar and make every
//! snapshot cheap.

use std::hash::Hasher;

use tempstream_core::stages::collect_multi_chip;
use tempstream_core::ExperimentConfig;
use tempstream_fxhash::FxHasher;
use tempstream_trace::miss::MissRecord;
use tempstream_trace::MissClass;
use tempstream_workloads::Workload;

/// Workload seeds per benchmark seed: benchmark seed `s` uses workload
/// seeds `s * PIECE_STRIDE ..`, so distinct benchmark seeds never share
/// a piece.
const PIECE_STRIDE: u64 = 1 << 20;

/// One piece: the off-chip misses of one quick DB2 multi-chip run.
fn piece(seed: u64, k: u64) -> Vec<MissRecord<MissClass>> {
    let cfg = ExperimentConfig::quick().with_seed(seed.wrapping_mul(PIECE_STRIDE).wrapping_add(k));
    let (trace, _symbols) = collect_multi_chip(&cfg, Workload::Oltp);
    trace.records().to_vec()
}

/// The first `n` records of the serve input for `seed`. Pieces are
/// simulated two at a time (the host's core count bounds the benchmark's
/// threads) and concatenated in piece order, so the result depends on
/// `seed` and `n` alone.
pub fn serve_records(seed: u64, n: usize) -> Vec<MissRecord<MissClass>> {
    let mut out = Vec::with_capacity(n);
    let mut k = 0u64;
    while out.len() < n {
        let (a, b) = std::thread::scope(|s| {
            let second = s.spawn(|| piece(seed, k + 1));
            (
                piece(seed, k),
                second.join().expect("input generator thread"),
            )
        });
        out.extend(a);
        out.extend(b);
        k += 2;
    }
    out.truncate(n);
    out
}

/// A digest of the records' fields (the repository's Fx hash), for
/// determinism checks and for the report.
pub fn records_digest(records: &[MissRecord<MissClass>]) -> u64 {
    let mut h = FxHasher::default();
    for r in records {
        h.write_u64(r.block.raw());
        h.write_u32(r.cpu.raw());
        h.write_u32(r.thread.raw());
        h.write_u32(r.function.raw());
        h.write_u8(r.class as u8);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let a = serve_records(3, 20_000);
        let b = serve_records(3, 20_000);
        assert_eq!(a.len(), 20_000);
        assert_eq!(records_digest(&a), records_digest(&b));
        let other = serve_records(4, 20_000);
        assert_ne!(records_digest(&a), records_digest(&other));
        // A shorter input is a prefix of a longer one.
        let short = serve_records(3, 5_000);
        assert_eq!(records_digest(&short), records_digest(&a[..5_000]));
    }
}
