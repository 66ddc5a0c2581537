//! SEQUITUR core throughput on synthetic inputs with known repetition
//! structure (the analysis's asymptotic cost driver).

use std::hint::black_box;
use tempstream_bench::harness::{criterion_group, criterion_main, Criterion, Throughput};
use tempstream_sequitur::Sequitur;
use tempstream_trace::rng::SmallRng;

/// Miss-trace-like input: repeated bursts (streams) separated by noise.
fn bursty(rng: &mut SmallRng, n: usize) -> Vec<u64> {
    let mut bursty = Vec::with_capacity(n);
    let streams: Vec<Vec<u64>> = (0..32)
        .map(|s| (0..24).map(|i| 1_000_000 + s * 1_000 + i).collect())
        .collect();
    while bursty.len() < n {
        if rng.gen_ratio(3, 5) {
            bursty.extend(&streams[rng.gen_range(0..streams.len())]);
        } else {
            for _ in 0..8 {
                bursty.push(rng.gen_range(0..1_000_000));
            }
        }
    }
    bursty.truncate(n);
    bursty
}

fn inputs() -> Vec<(&'static str, Vec<u64>)> {
    let n = 100_000usize;
    let mut rng = SmallRng::seed_from_u64(17);
    let periodic: Vec<u64> = (0..n).map(|i| (i % 64) as u64).collect();
    let random_small: Vec<u64> = (0..n).map(|_| rng.gen_range(0..256)).collect();
    let random_large: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1_000_000)).collect();
    let bursty_small = bursty(&mut rng, n);
    // The batch pipeline's per-trace cap (`max_analysis_misses`): a
    // grammar this size no longer fits in the host caches, so push cost
    // is bound by memory latency rather than by the algorithm.
    let bursty_large = bursty(&mut rng, 1_500_000);
    vec![
        ("periodic", periodic),
        ("random_small_alphabet", random_small),
        ("random_large_alphabet", random_large),
        ("bursty_streams", bursty_small),
        ("bursty_streams_1.5M", bursty_large),
    ]
}

fn sequitur_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("sequitur");
    g.sample_size(10);
    for (name, input) in inputs() {
        g.throughput(Throughput::Elements(input.len() as u64));
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut s = Sequitur::with_capacity(input.len());
                s.extend(input.iter().copied());
                black_box(s.into_grammar().rule_count())
            });
        });
    }
    g.finish();
}

criterion_group!(benches, sequitur_throughput);
criterion_main!(benches);
