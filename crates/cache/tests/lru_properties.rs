//! Randomized property tests: the set-associative cache against a
//! brute-force LRU reference model.
//!
//! Cases are generated by the in-tree seeded PRNG (deterministic across
//! runs); each property is checked over several hundred random op
//! sequences, which empirically reaches every hit/victim/invalidate path.

use tempstream_cache::{CacheConfig, CacheStats, SetAssocCache};
use tempstream_trace::rng::SmallRng;
use tempstream_trace::Block;

/// Reference model: one plain vector of `(block, payload)` per set, most
/// recent first, with move-to-front on a hit and its own statistics.
struct Reference {
    sets: Vec<Vec<(u64, u64)>>,
    assoc: usize,
    mask: u64,
    stats: CacheStats,
}

impl Reference {
    fn new(num_sets: u64, assoc: usize) -> Self {
        Reference {
            sets: (0..num_sets).map(|_| Vec::new()).collect(),
            assoc,
            mask: num_sets - 1,
            stats: CacheStats::default(),
        }
    }

    fn touch(&mut self, block: u64) -> Option<u64> {
        let set = &mut self.sets[(block & self.mask) as usize];
        if let Some(pos) = set.iter().position(|&(b, _)| b == block) {
            self.stats.hits += 1;
            let line = set.remove(pos);
            set.insert(0, line);
            Some(line.1)
        } else {
            self.stats.misses += 1;
            None
        }
    }

    fn insert(&mut self, block: u64, payload: u64) -> Option<(u64, u64)> {
        let set = &mut self.sets[(block & self.mask) as usize];
        let victim = if set.len() == self.assoc {
            self.stats.evictions += 1;
            set.pop()
        } else {
            None
        };
        set.insert(0, (block, payload));
        victim
    }

    fn invalidate(&mut self, block: u64) -> Option<u64> {
        let set = &mut self.sets[(block & self.mask) as usize];
        let pos = set.iter().position(|&(b, _)| b == block)?;
        self.stats.invalidations += 1;
        Some(set.remove(pos).1)
    }

    fn lines(&self) -> Vec<(u64, u64)> {
        let mut all: Vec<_> = self.sets.iter().flatten().copied().collect();
        all.sort_unstable();
        all
    }
}

/// Operation: 0-4 = touch-or-insert (read), 5 = touch only,
/// 6 = invalidate, 7 = probe.
type Op = (u8, u64);

fn gen_ops(rng: &mut SmallRng, max_len: usize, block_span: u64) -> Vec<Op> {
    let len = rng.gen_range(0..=max_len);
    (0..len)
        .map(|_| (rng.gen_range(0..8u8), rng.gen_range(0..block_span)))
        .collect()
}

fn run_both(config: CacheConfig, ops: &[Op]) {
    let mut cache: SetAssocCache<u64> = SetAssocCache::new(config);
    let mut reference = Reference::new(config.num_sets(), config.associativity as usize);
    for (step, &(kind, raw)) in ops.iter().enumerate() {
        let block = Block::new(raw);
        match kind {
            6 => {
                let c = cache.invalidate(block);
                let r = reference.invalidate(raw);
                assert_eq!(c, r, "invalidate({raw}) mismatch");
            }
            7 => {
                let expect = reference.sets[(raw & reference.mask) as usize]
                    .iter()
                    .find(|&&(b, _)| b == raw)
                    .map(|&(_, p)| p);
                assert_eq!(cache.probe(block).copied(), expect, "probe({raw}) mismatch");
            }
            _ => {
                let c_hit = cache.touch(block).map(|p| *p);
                let r_hit = reference.touch(raw);
                assert_eq!(c_hit, r_hit, "touch({raw}) hit mismatch");
                if c_hit.is_none() && kind != 5 {
                    // A payload distinct per insert, so victims carry theirs.
                    let payload = raw ^ ((step as u64) << 32);
                    let c_victim = cache.insert(block, payload).map(|(b, p)| (b.raw(), p));
                    let r_victim = reference.insert(raw, payload);
                    assert_eq!(c_victim, r_victim, "insert({raw}) victim mismatch");
                }
            }
        }
        assert_eq!(*cache.stats(), reference.stats, "stats after step {step}");
        let mut lines: Vec<_> = cache.iter().map(|(b, &p)| (b.raw(), p)).collect();
        lines.sort_unstable();
        assert_eq!(lines, reference.lines(), "resident lines after step {step}");
        assert_eq!(cache.len(), lines.len());
        assert_eq!(cache.is_empty(), lines.is_empty());
    }
}

/// 2-way (L1 geometry): hits, victims, and sizes match exact LRU.
#[test]
fn two_way_matches_reference() {
    let mut rng = SmallRng::seed_from_u64(0x1a11);
    for _ in 0..256 {
        let ops = gen_ops(&mut rng, 500, 64);
        run_both(CacheConfig::new(8 * 64 * 2, 2), &ops);
    }
}

/// 16-way with a single set (fully associative) to stress replacement
/// ordering.
#[test]
fn fully_associative_matches_reference() {
    let mut rng = SmallRng::seed_from_u64(0xfa11);
    for _ in 0..256 {
        let ops = gen_ops(&mut rng, 500, 40);
        run_both(CacheConfig::new(16 * 64, 16), &ops);
    }
}

/// 16 ways over 8 sets (the L2's associativity): victims, payloads and
/// statistics of the flat line array match the per-set model.
#[test]
fn sixteen_way_multi_set_matches_reference() {
    let mut rng = SmallRng::seed_from_u64(0x16_5e7);
    for _ in 0..48 {
        let ops = gen_ops(&mut rng, 1000, 400);
        run_both(CacheConfig::new(8 * 16 * 64, 16), &ops);
    }
}

/// Occupancy never exceeds capacity, for any op sequence.
#[test]
fn never_over_capacity() {
    let mut rng = SmallRng::seed_from_u64(0xcafe);
    for _ in 0..256 {
        let ops = gen_ops(&mut rng, 400, 1000);
        let config = CacheConfig::new(4 * 64 * 4, 4);
        let mut cache: SetAssocCache<()> = SetAssocCache::new(config);
        for &(kind, raw) in &ops {
            let block = Block::new(raw);
            if kind % 7 == 6 {
                cache.invalidate(block);
            } else if cache.touch(block).is_none() {
                cache.insert(block, ());
            }
            assert!(cache.len() as u64 <= config.num_blocks());
        }
    }
}
