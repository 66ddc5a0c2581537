//! The set-associative, true-LRU cache structure.

use crate::config::CacheConfig;
use crate::stats::CacheStats;
use tempstream_trace::Block;

/// A set-associative cache with true-LRU replacement, generic over a
/// per-line payload `T` (typically a coherence state).
///
/// All sets live in one contiguous `num_sets × ways` line array; set `i`
/// owns slots `i * ways ..` of which the first `lens[i]` are resident,
/// ordered most-recently-used first. With the paper's associativities
/// (2 and 16) move-to-front within the set's slots is both exact LRU and
/// fast, and a lookup touches one or two host cache lines. The slots past
/// a set's length hold `T::default()` fillers.
#[derive(Debug, Clone)]
pub struct SetAssocCache<T> {
    config: CacheConfig,
    set_mask: u64,
    ways: usize,
    lines: Vec<Line<T>>,
    lens: Vec<u32>,
    len: usize,
    stats: CacheStats,
}

#[derive(Debug, Clone)]
struct Line<T> {
    block: Block,
    payload: T,
}

impl<T: Default> SetAssocCache<T> {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let num_sets = config.num_sets();
        let ways = config.associativity as usize;
        SetAssocCache {
            config,
            set_mask: num_sets - 1,
            ways,
            lines: (0..num_sets as usize * ways)
                .map(|_| Line {
                    block: Block::new(0),
                    payload: T::default(),
                })
                .collect(),
            lens: vec![0; num_sets as usize],
            len: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accumulated hit/miss/eviction statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn set_index(&self, block: Block) -> usize {
        (block.raw() & self.set_mask) as usize
    }

    /// The first slot of `set` and its number of resident lines.
    fn span(&self, set: usize) -> (usize, usize) {
        (set * self.ways, self.lens[set] as usize)
    }

    /// The set of `block` and the slot within it holding `block`, if any.
    fn find(&self, block: Block) -> (usize, Option<usize>) {
        let set = self.set_index(block);
        let (base, len) = self.span(set);
        let pos = self.lines[base..base + len]
            .iter()
            .position(|l| l.block == block);
        (set, pos.map(|p| base + p))
    }

    /// Looks up `block` without updating LRU order or statistics.
    pub fn probe(&self, block: Block) -> Option<&T> {
        self.find(block).1.map(|i| &self.lines[i].payload)
    }

    /// Looks up `block`, and on a hit moves it to MRU and returns a mutable
    /// reference to its payload. Records a hit or miss in the statistics.
    pub fn touch(&mut self, block: Block) -> Option<&mut T> {
        let (set, slot) = self.find(block);
        let Some(slot) = slot else {
            self.stats.misses += 1;
            return None;
        };
        self.stats.hits += 1;
        let base = set * self.ways;
        self.lines[base..=slot].rotate_right(1);
        Some(&mut self.lines[base].payload)
    }

    /// Returns a mutable reference to the payload of `block` without
    /// changing LRU order or statistics.
    pub fn peek_mut(&mut self, block: Block) -> Option<&mut T> {
        self.find(block).1.map(|i| &mut self.lines[i].payload)
    }

    /// Inserts `block` at MRU, returning the evicted `(block, payload)` if
    /// the set was full.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `block` is already present (callers must
    /// `touch`/`peek_mut` existing lines instead).
    pub fn insert(&mut self, block: Block, payload: T) -> Option<(Block, T)> {
        let (set, slot) = self.find(block);
        debug_assert!(slot.is_none(), "insert of already-present block {block}");
        let (base, len) = self.span(set);
        let line = Line { block, payload };
        let victim = if len == self.ways {
            self.stats.evictions += 1;
            let lru = std::mem::replace(&mut self.lines[base + len - 1], line);
            Some((lru.block, lru.payload))
        } else {
            self.lines[base + len] = line;
            self.lens[set] += 1;
            self.len += 1;
            None
        };
        let end = base + self.lens[set] as usize;
        self.lines[base..end].rotate_right(1);
        victim
    }

    /// Removes `block`, returning its payload if it was present.
    pub fn invalidate(&mut self, block: Block) -> Option<T> {
        let (set, slot) = self.find(block);
        let slot = slot?;
        self.stats.invalidations += 1;
        let (base, len) = self.span(set);
        self.lines[slot..base + len].rotate_left(1);
        self.lens[set] -= 1;
        self.len -= 1;
        Some(std::mem::take(&mut self.lines[base + len - 1].payload))
    }

    /// Returns `true` if `block` is cached.
    pub fn contains(&self, block: Block) -> bool {
        self.find(block).1.is_some()
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over resident `(block, payload)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (Block, &T)> + '_ {
        self.lines
            .chunks_exact(self.ways)
            .zip(&self.lens)
            .flat_map(|(set, &len)| set[..len as usize].iter().map(|l| (l.block, &l.payload)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache<u32> {
        // 2 sets x 2 ways.
        SetAssocCache::new(CacheConfig::new(4 * 64, 2))
    }

    #[test]
    fn hit_after_insert() {
        let mut c = tiny();
        assert!(c.touch(Block::new(0)).is_none());
        c.insert(Block::new(0), 7);
        assert_eq!(c.touch(Block::new(0)), Some(&mut 7));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Blocks 0, 2, 4 map to set 0 (even block numbers).
        c.insert(Block::new(0), 0);
        c.insert(Block::new(2), 2);
        // Touch 0 so 2 becomes LRU.
        assert!(c.touch(Block::new(0)).is_some());
        let victim = c.insert(Block::new(4), 4);
        assert_eq!(victim, Some((Block::new(2), 2)));
        assert!(c.contains(Block::new(0)));
        assert!(c.contains(Block::new(4)));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn sets_are_independent() {
        let mut c = tiny();
        c.insert(Block::new(0), 0); // set 0
        c.insert(Block::new(1), 1); // set 1
        c.insert(Block::new(2), 2); // set 0
        c.insert(Block::new(3), 3); // set 1
        assert_eq!(c.len(), 4);
        // Filling set 0 further evicts only from set 0.
        let victim = c.insert(Block::new(4), 4);
        assert_eq!(victim, Some((Block::new(0), 0)));
        assert!(c.contains(Block::new(1)));
        assert!(c.contains(Block::new(3)));
    }

    #[test]
    fn invalidate_removes() {
        let mut c = tiny();
        c.insert(Block::new(0), 9);
        assert_eq!(c.invalidate(Block::new(0)), Some(9));
        assert_eq!(c.invalidate(Block::new(0)), None);
        assert!(!c.contains(Block::new(0)));
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut c = tiny();
        c.insert(Block::new(0), 0);
        c.insert(Block::new(2), 2);
        // Probing 0 must NOT protect it from eviction.
        assert_eq!(c.probe(Block::new(0)), Some(&0));
        let victim = c.insert(Block::new(4), 4);
        assert_eq!(victim, Some((Block::new(0), 0)));
    }

    #[test]
    fn peek_mut_updates_payload() {
        let mut c = tiny();
        c.insert(Block::new(0), 1);
        *c.peek_mut(Block::new(0)).unwrap() = 5;
        assert_eq!(c.probe(Block::new(0)), Some(&5));
    }

    #[test]
    fn iter_sees_all_lines() {
        let mut c = tiny();
        c.insert(Block::new(0), 10);
        c.insert(Block::new(1), 11);
        let mut items: Vec<_> = c.iter().map(|(b, &v)| (b.raw(), v)).collect();
        items.sort();
        assert_eq!(items, vec![(0, 10), (1, 11)]);
    }

    #[test]
    fn capacity_respected_under_fill() {
        let mut c: SetAssocCache<()> = SetAssocCache::new(CacheConfig::new(64 * 64, 4));
        for b in 0..10_000u64 {
            if c.touch(Block::new(b)).is_none() {
                c.insert(Block::new(b), ());
            }
        }
        assert!(c.len() <= c.config().num_blocks() as usize);
        assert_eq!(c.len(), 64);
    }
}
