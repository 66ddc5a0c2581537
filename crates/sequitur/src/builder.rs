//! The incremental SEQUITUR builder.
//!
//! The implementation follows the canonical C++ implementation by
//! Nevill-Manning (symbol nodes in doubly-linked rule bodies, one guard node
//! per rule, and a digram hash table), including the subtle re-indexing
//! fix-ups for runs of identical symbols ("triples") in `join`.

use crate::grammar::{Grammar, GrammarSymbol, RuleId};
use std::hash::BuildHasher;
use tempstream_fxhash::{FxBuildHasher, FxHashMap};

type NodeId = u32;
/// Width of a node id inside a link word; the bits above it carry flags.
const ID_BITS: u32 = 30;
const ID_MASK: u32 = (1 << ID_BITS) - 1;
/// The null link: the all-ones id. No node is ever allocated this id.
const NIL: NodeId = ID_MASK;
/// Payload kinds, stored in the top two bits of a node's `prev` word.
const TERMINAL: u32 = 0;
const NON_TERMINAL: u32 = 1;
const GUARD: u32 = 2;
/// The freed flag, stored in the top bit of a node's `next` word.
const FREED: u32 = 1 << 31;

/// The payload of a symbol node, decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Payload {
    /// A terminal input symbol.
    Terminal(u64),
    /// A reference to a rule.
    NonTerminal(u32),
    /// The guard node of a rule's circular body list; `u32` is the rule id.
    Guard(u32),
}

/// A digram hash key: the payloads of two adjacent non-guard symbols.
type DigramKey = (Payload, Payload);

/// A symbol node, packed into 16 bytes: two 30-bit links whose spare
/// bits hold the payload kind (`prev`) and the freed flag (`next`), and
/// the payload value (the terminal, or the rule id).
#[derive(Debug, Clone, Copy)]
struct Node {
    prev: u32,
    next: u32,
    value: u64,
}

const _: () = assert!(std::mem::size_of::<Node>() == 16);

impl Node {
    fn new(payload: Payload) -> Node {
        let (kind, value) = match payload {
            Payload::Terminal(t) => (TERMINAL, t),
            Payload::NonTerminal(r) => (NON_TERMINAL, u64::from(r)),
            Payload::Guard(r) => (GUARD, u64::from(r)),
        };
        Node {
            prev: kind << ID_BITS | NIL,
            next: NIL,
            value,
        }
    }

    fn prev(&self) -> NodeId {
        self.prev & ID_MASK
    }

    fn next(&self) -> NodeId {
        self.next & ID_MASK
    }

    fn set_prev(&mut self, id: NodeId) {
        self.prev = self.prev & !ID_MASK | id;
    }

    fn set_next(&mut self, id: NodeId) {
        self.next = self.next & !ID_MASK | id;
    }

    fn kind(&self) -> u32 {
        self.prev >> ID_BITS
    }

    fn is_guard(&self) -> bool {
        self.kind() == GUARD
    }

    fn alive(&self) -> bool {
        self.next & FREED == 0
    }

    fn payload(&self) -> Payload {
        match self.kind() {
            TERMINAL => Payload::Terminal(self.value),
            NON_TERMINAL => Payload::NonTerminal(self.value as u32),
            _ => Payload::Guard(self.value as u32),
        }
    }

    /// Whether both nodes hold the same payload.
    fn same_symbol(&self, other: &Node) -> bool {
        self.kind() == other.kind() && self.value == other.value
    }
}

/// The id of a node appended to an arena of `len` nodes.
///
/// # Panics
///
/// Panics with "node arena overflow" once the id would reach [`NIL`],
/// i.e. past 2^30 − 1 nodes.
fn node_id(len: usize) -> NodeId {
    match u32::try_from(len) {
        Ok(id) if id < NIL => id,
        _ => panic!("node arena overflow: {len} nodes"),
    }
}

/// The digram key starting at `first`, or `None` if either symbol is a
/// guard.
fn digram_key(nodes: &[Node], first: NodeId) -> Option<DigramKey> {
    let n = &nodes[first as usize];
    debug_assert!(n.alive(), "access to freed node {first}");
    if n.is_guard() {
        return None;
    }
    let second = &nodes[n.next() as usize];
    debug_assert!(second.alive(), "access to freed node {}", n.next());
    if second.is_guard() {
        return None;
    }
    Some((n.payload(), second.payload()))
}

/// One slot of the digram index: the top 32 bits of the key's hash and
/// the node the digram starts at (`NIL` = empty slot).
#[derive(Debug, Clone, Copy)]
struct Slot {
    tag: u32,
    node: NodeId,
}

const EMPTY: Slot = Slot { tag: 0, node: NIL };
const _: () = assert!(std::mem::size_of::<Slot>() == 8);

/// The digram index: an open-addressing, linear-probing table of 8-byte
/// [`Slot`]s that stores no keys. A slot's key is re-derived from the
/// node arena ([`digram_key`] of its node) when a probe meets a matching
/// tag.
///
/// That is sound only under this invariant: **at every index operation,
/// each indexed node's live digram equals the key it was inserted
/// under.** SEQUITUR keeps it by construction — `join` removes a node's
/// digram before relinking the node, and a node is removed before it is
/// freed — and the index `debug_assert!`s it on every slot it inserts,
/// removes or moves. A slot's home position is a function of its tag
/// alone, so growth and backward-shift deletion never read the arena.
///
/// The table holds at most half as many entries as slots and never uses
/// tombstones: deletion shifts the rest of the probe run back.
#[derive(Debug, Clone, Default)]
struct DigramIndex<H> {
    /// Empty, or a power-of-two number of slots (at most 2^32).
    slots: Vec<Slot>,
    len: usize,
    hasher: H,
}

impl<H: BuildHasher> DigramIndex<H> {
    fn tag(&self, key: &DigramKey) -> u32 {
        (self.hasher.hash_one(key) >> 32) as u32
    }

    /// The slot a tag probes first: its top `log2(slots)` bits.
    fn home(&self, tag: u32) -> usize {
        ((u64::from(tag) * self.slots.len() as u64) >> 32) as usize
    }

    /// `Ok(slot)` holding `key`, or `Err(slot)`: the empty slot ending
    /// its probe run. The table must have slots.
    fn find(&self, nodes: &[Node], key: &DigramKey, tag: u32) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut i = self.home(tag);
        loop {
            let slot = self.slots[i];
            if slot.node == NIL {
                return Err(i);
            }
            if slot.tag == tag && digram_key(nodes, slot.node).as_ref() == Some(key) {
                return Ok(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// The node indexed under `key`.
    fn get(&self, nodes: &[Node], key: &DigramKey) -> Option<NodeId> {
        if self.slots.is_empty() {
            return None;
        }
        self.find(nodes, key, self.tag(key))
            .ok()
            .map(|i| self.slots[i].node)
    }

    /// The node indexed under `key`; if there is none, indexes `node`
    /// under it and returns `None`.
    fn get_or_insert(
        &mut self,
        nodes: &[Node],
        key: &DigramKey,
        node: NodeId,
    ) -> Option<&mut NodeId> {
        debug_assert_eq!(
            digram_key(nodes, node).as_ref(),
            Some(key),
            "node {node} indexed under a digram it does not start"
        );
        self.reserve(1);
        let tag = self.tag(key);
        match self.find(nodes, key, tag) {
            Ok(i) => Some(&mut self.slots[i].node),
            Err(i) => {
                self.slots[i] = Slot { tag, node };
                self.len += 1;
                None
            }
        }
    }

    /// Indexes `node` under `key`, replacing any node indexed under it.
    fn insert(&mut self, nodes: &[Node], key: &DigramKey, node: NodeId) {
        if let Some(old) = self.get_or_insert(nodes, key, node) {
            *old = node;
        }
    }

    /// Removes the entry for `key` if it indexes `node`. By the index
    /// invariant `node` can only be indexed under `key`, so this scans
    /// `key`'s probe run for `node` without reading the arena.
    fn remove(&mut self, nodes: &[Node], key: &DigramKey, node: NodeId) {
        if self.slots.is_empty() {
            return;
        }
        let mask = self.slots.len() - 1;
        let tag = self.tag(key);
        let mut i = self.home(tag);
        loop {
            let slot = self.slots[i];
            if slot.node == NIL {
                return;
            }
            if slot.node == node {
                debug_assert_eq!(slot.tag, tag, "node {node} indexed under another key");
                break;
            }
            i = (i + 1) & mask;
        }
        // Backward-shift deletion: move each later slot of the run into
        // the hole unless its home lies cyclically after the hole.
        let mut hole = i;
        let mut j = (i + 1) & mask;
        loop {
            let slot = self.slots[j];
            if slot.node == NIL {
                break;
            }
            debug_assert!(
                digram_key(nodes, slot.node).is_some_and(|k| self.tag(&k) == slot.tag),
                "digram index invariant: node {} no longer holds the digram it was indexed under",
                slot.node
            );
            let home = self.home(slot.tag);
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = slot;
                hole = j;
            }
            j = (j + 1) & mask;
        }
        self.slots[hole] = EMPTY;
        self.len -= 1;
    }

    /// Grows the table so that `additional` more entries keep it at most
    /// half full.
    fn reserve(&mut self, additional: usize) {
        let needed = (self.len + additional) * 2;
        if needed <= self.slots.len() {
            return;
        }
        let cap = needed.next_power_of_two().max(16);
        assert!(cap <= 1 << 32, "digram index overflow");
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; cap]);
        let mask = cap - 1;
        for slot in old.into_iter().filter(|s| s.node != NIL) {
            let mut i = self.home(slot.tag);
            while self.slots[i].node != NIL {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
        }
    }

    /// The indexed nodes, in slot order.
    fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.slots.iter().map(|s| s.node).filter(|&n| n != NIL)
    }
}

#[derive(Debug, Clone)]
struct RuleData {
    guard: NodeId,
    /// Number of non-terminal symbols referencing this rule.
    refcount: u32,
    alive: bool,
}

/// Incremental SEQUITUR grammar builder.
///
/// Feed the input with [`push`](Sequitur::push), then call
/// [`into_grammar`](Sequitur::into_grammar) to obtain the final, immutable
/// [`Grammar`].
///
/// Symbol nodes live in one `Vec` arena with a free list, 16 bytes each:
/// node ids are 30 bits wide, so one builder holds at most 2^30 − 1 nodes
/// (guards included) and panics with "node arena overflow" beyond that.
/// The digram index is an in-tree open-addressing table of 8-byte
/// `(fingerprint, node)` slots that re-derives each key from the arena;
/// see `DigramIndex` for the invariant that makes this sound.
///
/// The index hashes with the in-tree seedless [`FxBuildHasher`] by
/// default: digram keys are simulator-generated integers (never
/// attacker-controlled), the index is probed on every pushed symbol, and
/// a seedless hash keeps index behavior identical across processes. The
/// hasher is a type parameter only so differential tests can pin the
/// grammar against a [`std::collections::hash_map::RandomState`] build —
/// the produced grammar never depends on hash order (see
/// [`with_hasher`](Sequitur::with_hasher)).
#[derive(Debug, Clone, Default)]
pub struct Sequitur<H: BuildHasher = FxBuildHasher> {
    nodes: Vec<Node>,
    free: Vec<NodeId>,
    rules: Vec<RuleData>,
    index: DigramIndex<H>,
    input_len: u64,
}

impl Sequitur {
    /// Creates a builder with an empty root rule.
    pub fn new() -> Self {
        Self::with_hasher()
    }

    /// Creates a builder preallocated for an input of roughly `len`
    /// symbols: room for 1.5 × `len` nodes (an arena can outgrow its
    /// input by the rules' guards and references) and an index for
    /// `len` digrams (miss traces index at most ~0.96 per symbol).
    pub fn with_capacity(len: usize) -> Self {
        let mut s = Self::new();
        s.nodes.reserve(len + len / 2);
        s.index.reserve(len);
        s
    }
}

impl<H: BuildHasher + Default> Sequitur<H> {
    /// Creates a builder whose digram index hashes with `H`.
    ///
    /// The grammar SEQUITUR produces is a function of the input alone —
    /// the index only answers exact-match digram lookups, never drives
    /// iteration — so any two hashers must yield identical grammars.
    /// Differential tests instantiate this with `RandomState` to prove
    /// the default [`FxBuildHasher`] swap changed nothing.
    pub fn with_hasher() -> Self {
        let mut s = Sequitur {
            nodes: Vec::new(),
            free: Vec::new(),
            rules: Vec::new(),
            index: DigramIndex::default(),
            input_len: 0,
        };
        s.new_rule(); // rule 0 = root
        s
    }
}

impl<H: BuildHasher> Sequitur<H> {
    /// Number of symbols pushed so far.
    pub fn input_len(&self) -> u64 {
        self.input_len
    }

    /// Current number of entries in the digram hash index.
    pub fn digram_index_len(&self) -> usize {
        self.index.len
    }

    /// Rules ever created (including the root and rules later deleted
    /// by the utility constraint).
    pub fn rules_created(&self) -> usize {
        self.rules.len()
    }

    /// Rules currently alive (including the root).
    pub fn live_rules(&self) -> usize {
        self.rules.iter().filter(|r| r.alive).count()
    }

    /// Size of the symbol-node arena, live and freed slots together —
    /// the builder's peak memory footprint in nodes.
    pub fn node_arena_len(&self) -> usize {
        self.nodes.len()
    }

    /// Appends one input symbol, restoring both grammar invariants.
    pub fn push(&mut self, symbol: u64) {
        self.input_len += 1;
        let node = self.alloc(Payload::Terminal(symbol));
        let root_guard = self.rules[0].guard;
        let last = self.nodes[root_guard as usize].prev();
        self.insert_after(last, node);
        let prev = self.nodes[node as usize].prev();
        if prev != root_guard {
            self.check(prev);
        }
    }

    /// Appends every symbol of `input`.
    pub fn extend<I: IntoIterator<Item = u64>>(&mut self, input: I) {
        for s in input {
            self.push(s);
        }
    }

    /// Consumes the builder and produces the final immutable grammar with
    /// contiguously renumbered rules (root first).
    pub fn into_grammar(self) -> Grammar {
        self.grammar()
    }

    /// Snapshots the current grammar without consuming the builder, with
    /// contiguously renumbered rules (root first).
    ///
    /// This is what lets `tempstream-serve` answer stream queries from a
    /// live, still-growing builder: the snapshot over the first `n`
    /// pushed symbols is identical to `into_grammar()` on a fresh
    /// builder fed the same `n` symbols, because SEQUITUR is an online
    /// algorithm whose state depends only on the input prefix.
    pub fn grammar(&self) -> Grammar {
        // Map live internal rule ids -> contiguous output ids, root first.
        let mut mapping: Vec<Option<RuleId>> = vec![None; self.rules.len()];
        let mut next = 0usize;
        for (i, r) in self.rules.iter().enumerate() {
            if r.alive {
                mapping[i] = Some(RuleId::new(next));
                next += 1;
            }
        }
        let mut bodies: Vec<Vec<GrammarSymbol>> = Vec::with_capacity(next);
        for (i, r) in self.rules.iter().enumerate() {
            if !r.alive {
                continue;
            }
            let mut body = Vec::new();
            let mut cur = self.nodes[r.guard as usize].next();
            while cur != r.guard {
                let n = &self.nodes[cur as usize];
                body.push(match n.payload() {
                    Payload::Terminal(t) => GrammarSymbol::Terminal(t),
                    Payload::NonTerminal(rid) => {
                        GrammarSymbol::Rule(mapping[rid as usize].expect("reference to dead rule"))
                    }
                    Payload::Guard(_) => unreachable!("guard inside rule body"),
                });
                cur = n.next();
            }
            bodies.push(body);
            debug_assert_eq!(mapping[i], Some(RuleId::new(bodies.len() - 1)));
        }
        Grammar::from_bodies(bodies)
    }

    // --- node & rule management ------------------------------------------

    fn alloc(&mut self, payload: Payload) -> NodeId {
        if let Payload::NonTerminal(r) = payload {
            self.rules[r as usize].refcount += 1;
        }
        if let Some(id) = self.free.pop() {
            self.nodes[id as usize] = Node::new(payload);
            id
        } else {
            let id = node_id(self.nodes.len());
            self.nodes.push(Node::new(payload));
            id
        }
    }

    fn free_node(&mut self, id: NodeId) {
        self.nodes[id as usize].next |= FREED;
        self.free.push(id);
    }

    fn new_rule(&mut self) -> u32 {
        let rule_id = u32::try_from(self.rules.len()).expect("rule id overflow");
        let guard = self.alloc(Payload::Guard(rule_id));
        // The guard closes the circular list on itself while the body is
        // empty.
        self.nodes[guard as usize].set_prev(guard);
        self.nodes[guard as usize].set_next(guard);
        self.rules.push(RuleData {
            guard,
            refcount: 0,
            alive: true,
        });
        rule_id
    }

    fn digram_key(&self, first: NodeId) -> Option<DigramKey> {
        digram_key(&self.nodes, first)
    }

    /// Indexes the digram starting at `first`, if it has one, replacing
    /// any node indexed under the same key.
    fn index_digram(&mut self, first: NodeId) {
        if let Some(key) = self.digram_key(first) {
            self.index.insert(&self.nodes, &key, first);
        }
    }

    /// Removes the digram starting at `first` from the index, if the index
    /// entry points at `first`.
    fn delete_digram(&mut self, first: NodeId) {
        if let Some(key) = self.digram_key(first) {
            self.index.remove(&self.nodes, &key, first);
        }
    }

    /// The payload of the non-guard node `id` if it sits between two
    /// nodes with that payload (the middle of a triple).
    fn triple_middle(&self, id: NodeId) -> Option<Payload> {
        let n = &self.nodes[id as usize];
        let (p, x) = (n.prev(), n.next());
        (p != NIL
            && x != NIL
            && !n.is_guard()
            && self.nodes[p as usize].same_symbol(n)
            && self.nodes[x as usize].same_symbol(n))
        .then(|| n.payload())
    }

    /// Links `left -> right`, removing `left`'s old digram from the index
    /// and re-indexing overlapping digrams in runs of identical symbols.
    fn join(&mut self, left: NodeId, right: NodeId) {
        if self.nodes[left as usize].next() != NIL {
            self.delete_digram(left);

            // Triple fix-ups (see canonical implementation): when digrams
            // overlap in a run of equal symbols only the later one is
            // indexed; on deletion of the later one, restore the earlier.
            if let Some(v) = self.triple_middle(right) {
                self.index.insert(&self.nodes, &(v, v), right);
            }
            if let Some(v) = self.triple_middle(left) {
                let lp = self.nodes[left as usize].prev();
                self.index.insert(&self.nodes, &(v, v), lp);
            }
        }
        self.nodes[left as usize].set_next(right);
        self.nodes[right as usize].set_prev(left);
    }

    /// Inserts `new` immediately after `node`.
    fn insert_after(&mut self, node: NodeId, new: NodeId) {
        let next = self.nodes[node as usize].next();
        self.join(new, next);
        self.join(node, new);
    }

    /// Unlinks and frees `node` (canonical symbol destructor): relinks its
    /// neighbors, removes its digram from the index, and drops a rule
    /// reference if it was a non-terminal.
    fn delete_symbol(&mut self, node: NodeId) {
        let prev = self.nodes[node as usize].prev();
        let next = self.nodes[node as usize].next();
        self.join(prev, next);
        // Own digram removal uses the *old* neighbor, which `join` left
        // intact in this node's link fields.
        self.delete_digram(node);
        if let Payload::NonTerminal(r) = self.nodes[node as usize].payload() {
            self.rules[r as usize].refcount -= 1;
        }
        self.free_node(node);
    }

    /// Checks the digram starting at `first` against the index, performing a
    /// reduction if it already occurs elsewhere. Returns `true` if the
    /// digram was already in the index (at this or another position).
    fn check(&mut self, first: NodeId) -> bool {
        let Some(key) = self.digram_key(first) else {
            return false;
        };
        match self.index.get_or_insert(&self.nodes, &key, first).copied() {
            None => false,
            Some(found) => {
                // Skip self-hits and overlapping occurrences (runs like
                // "aaa", where found's second symbol is our first).
                if found != first && self.nodes[found as usize].next() != first {
                    self.match_digrams(first, found);
                }
                true
            }
        }
    }

    /// Handles a repeated digram: `new_d` just formed, `found` is the
    /// indexed earlier occurrence.
    fn match_digrams(&mut self, new_d: NodeId, found: NodeId) {
        let found_prev = self.nodes[found as usize].prev();
        let found_next = self.nodes[found as usize].next();
        let found_next_next = self.nodes[found_next as usize].next();

        let rule_id;
        if let (Payload::Guard(r1), Payload::Guard(r2)) = (
            self.nodes[found_prev as usize].payload(),
            self.nodes[found_next_next as usize].payload(),
        ) {
            // `found`'s digram is the entire body of an existing rule:
            // reuse it.
            debug_assert_eq!(r1, r2, "rule body bounded by two different guards");
            rule_id = r1;
            self.substitute(new_d, rule_id);
        } else {
            // Create a new rule from the digram and substitute both
            // occurrences.
            rule_id = self.new_rule();
            let guard = self.rules[rule_id as usize].guard;
            let c1 = self.alloc(self.nodes[new_d as usize].payload());
            let second = self.nodes[new_d as usize].next();
            let second_payload = self.nodes[second as usize].payload();
            let last = self.nodes[guard as usize].prev();
            self.insert_after(last, c1);
            let c2 = self.alloc(second_payload);
            let last = self.nodes[guard as usize].prev();
            self.insert_after(last, c2);
            self.substitute(found, rule_id);
            self.substitute(new_d, rule_id);
            // Index the digram inside the new rule body.
            let first_body = self.nodes[guard as usize].next();
            self.index_digram(first_body);
        }

        // Rule utility: if the first symbol of the (re)used rule is a
        // non-terminal whose rule is now referenced only once, inline it.
        if !self.rules[rule_id as usize].alive {
            return;
        }
        let guard = self.rules[rule_id as usize].guard;
        let first_body = self.nodes[guard as usize].next();
        if let Payload::NonTerminal(inner) = self.nodes[first_body as usize].payload() {
            if self.rules[inner as usize].refcount == 1 {
                self.expand(first_body);
            }
        }
    }

    /// Replaces the digram starting at `first` with a non-terminal for
    /// `rule`, then re-checks the digrams formed on either side.
    fn substitute(&mut self, first: NodeId, rule: u32) {
        let prev = self.nodes[first as usize].prev();
        let a = self.nodes[prev as usize].next();
        self.delete_symbol(a);
        let b = self.nodes[prev as usize].next();
        self.delete_symbol(b);
        let nt = self.alloc(Payload::NonTerminal(rule));
        self.insert_after(prev, nt);
        if !self.check(prev) {
            let pn = self.nodes[prev as usize].next();
            self.check(pn);
        }
    }

    /// Rule utility repair: inlines the single-use rule referenced by the
    /// non-terminal `node` into its surrounding body and deletes the rule.
    fn expand(&mut self, node: NodeId) {
        let Payload::NonTerminal(rule) = self.nodes[node as usize].payload() else {
            unreachable!("expand on non-non-terminal");
        };
        let left = self.nodes[node as usize].prev();
        let right = self.nodes[node as usize].next();
        let guard = self.rules[rule as usize].guard;
        let body_first = self.nodes[guard as usize].next();
        let body_last = self.nodes[guard as usize].prev();
        debug_assert_ne!(body_first, guard, "expanding an empty rule");

        // Remove the digram starting at `node`, splice the body in place of
        // `node`, and only then free `node` and the rule's guard (the joins
        // read through the old links, so the frees must come last).
        self.delete_digram(node);
        self.join(left, body_first);
        self.join(body_last, right);
        self.index_digram(body_last);

        self.rules[rule as usize].refcount -= 1;
        debug_assert_eq!(self.rules[rule as usize].refcount, 0);
        self.free_node(node);
        self.free_node(guard);
        self.rules[rule as usize].alive = false;
    }

    // --- verification (testing aid) --------------------------------------

    /// Exhaustively verifies both SEQUITUR invariants plus index/link/
    /// refcount consistency.
    ///
    /// Intended for tests; cost is linear in grammar size.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violated invariant.
    pub fn verify_invariants(&self) {
        let mut digrams_seen: FxHashMap<DigramKey, (usize, usize)> = FxHashMap::default();
        let mut refcounts: Vec<u32> = vec![0; self.rules.len()];

        for (rid, rule) in self.rules.iter().enumerate() {
            if !rule.alive {
                continue;
            }
            // Walk the body; verify links and collect digrams.
            let guard = rule.guard;
            assert!(
                matches!(self.nodes[guard as usize].payload(), Payload::Guard(g) if g as usize == rid),
                "rule {rid}: guard payload mismatch"
            );
            let mut cur = self.nodes[guard as usize].next();
            let mut pos = 0usize;
            let mut body_len = 0usize;
            while cur != guard {
                let n = &self.nodes[cur as usize];
                assert!(n.alive(), "rule {rid}: dead node {cur} in body");
                assert_eq!(
                    self.nodes[n.next() as usize].prev(),
                    cur,
                    "rule {rid}: broken back-link at node {cur}"
                );
                if let Payload::NonTerminal(r) = n.payload() {
                    assert!(
                        self.rules[r as usize].alive,
                        "rule {rid}: reference to dead rule {r}"
                    );
                    refcounts[r as usize] += 1;
                }
                if let Some(key) = self.digram_key(cur) {
                    if let Some(&(orid, opos)) = digrams_seen.get(&key) {
                        // Digram uniqueness allows overlapping repetitions
                        // within a run of identical symbols (aaa): adjacent
                        // positions in the same rule.
                        let overlapping = orid == rid && (pos == opos + 1);
                        assert!(
                            overlapping,
                            "digram uniqueness violated: {key:?} at rule {orid} pos {opos} \
                             and rule {rid} pos {pos}"
                        );
                    } else {
                        digrams_seen.insert(key, (rid, pos));
                    }
                    assert!(
                        self.index.get(&self.nodes, &key).is_some(),
                        "digram {key:?} (rule {rid} pos {pos}) missing from index"
                    );
                }
                cur = n.next();
                pos += 1;
                body_len += 1;
                assert!(
                    body_len <= self.nodes.len(),
                    "cycle without guard in rule {rid}"
                );
            }
            assert!(
                rid == 0 || body_len >= 2,
                "rule {rid} has body length {body_len} < 2"
            );
        }

        for (rid, rule) in self.rules.iter().enumerate() {
            if !rule.alive {
                continue;
            }
            assert_eq!(
                rule.refcount, refcounts[rid],
                "rule {rid}: stored refcount {} != actual {}",
                rule.refcount, refcounts[rid]
            );
            if rid != 0 {
                assert!(
                    rule.refcount >= 2,
                    "rule utility violated: rule {rid} referenced {} time(s)",
                    rule.refcount
                );
            }
        }

        // Every index entry must point at a live node that still starts a
        // digram with the entry's fingerprint, and be the entry a lookup
        // of that digram finds (so no key is indexed twice).
        let mut entries = 0usize;
        for node in self.index.nodes() {
            entries += 1;
            let n = &self.nodes[node as usize];
            assert!(n.alive(), "index entry points at dead node {node}");
            let key = self
                .digram_key(node)
                .unwrap_or_else(|| panic!("index entry at node {node} starts no digram"));
            assert_eq!(
                self.index.get(&self.nodes, &key),
                Some(node),
                "index entry {key:?} at node {node} is shadowed or misplaced"
            );
        }
        assert_eq!(entries, self.index.len, "index length out of sync");
        assert!(
            self.index.len * 2 <= self.index.slots.len(),
            "index over half full"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(input: &[u64]) -> Grammar {
        let mut s = Sequitur::new();
        for &x in input {
            s.push(x);
            s.verify_invariants();
        }
        s.into_grammar()
    }

    #[test]
    fn empty_input() {
        let g = build(&[]);
        assert_eq!(g.reconstruct(), Vec::<u64>::new());
        assert_eq!(g.rule_count(), 1);
    }

    #[test]
    fn no_repetition() {
        let g = build(&[1, 2, 3, 4, 5]);
        assert_eq!(g.reconstruct(), vec![1, 2, 3, 4, 5]);
        assert_eq!(g.rule_count(), 1);
    }

    #[test]
    fn single_repeated_digram() {
        let g = build(&[1, 2, 7, 1, 2]);
        assert_eq!(g.reconstruct(), vec![1, 2, 7, 1, 2]);
        assert_eq!(g.rule_count(), 2);
    }

    #[test]
    fn repeated_triple_forms_hierarchy() {
        // "abcabc" -> root: A A, A -> a b c (via nested digram rules
        // collapsed by utility).
        let g = build(&[1, 2, 3, 1, 2, 3]);
        assert_eq!(g.reconstruct(), vec![1, 2, 3, 1, 2, 3]);
        assert_eq!(g.rule_count(), 2);
        assert_eq!(g.expansion_len(RuleId::new(1)), 3);
    }

    #[test]
    fn run_of_identical_symbols() {
        for n in 2..=40 {
            let input = vec![9u64; n];
            let g = build(&input);
            assert_eq!(g.reconstruct(), input, "aaa-run length {n}");
        }
    }

    #[test]
    fn alternation() {
        let input: Vec<u64> = (0..40).map(|i| (i % 2) as u64).collect();
        let g = build(&input);
        assert_eq!(g.reconstruct(), input);
    }

    #[test]
    fn canonical_paper_example() {
        // From Nevill-Manning & Witten: "abcdbcabcdbc".
        let input: Vec<u64> = "abcdbcabcdbc".bytes().map(u64::from).collect();
        let g = build(&input);
        assert_eq!(g.reconstruct(), input);
        // Rules: root + "bc" + "a bc d bc" (exact count depends on utility
        // collapsing; reconstruction is the hard guarantee).
        assert!(g.rule_count() >= 3);
    }

    #[test]
    fn triple_overlap_stress() {
        // The comment in the canonical source cites "abbbabcbb".
        let input: Vec<u64> = "abbbabcbb".bytes().map(u64::from).collect();
        let g = build(&input);
        assert_eq!(g.reconstruct(), input);
    }

    #[test]
    fn long_periodic_input() {
        let pattern = [3u64, 1, 4, 1, 5, 9, 2, 6];
        let input: Vec<u64> = pattern.iter().cycle().take(800).copied().collect();
        let g = build(&input);
        assert_eq!(g.reconstruct(), input);
        // High compression: few root symbols relative to input.
        assert!(g.rule_body(RuleId::ROOT).len() < 50);
    }

    #[test]
    fn size_accessors_track_construction() {
        let mut s = Sequitur::new();
        assert_eq!(s.digram_index_len(), 0);
        assert_eq!(s.rules_created(), 1);
        assert_eq!(s.live_rules(), 1);
        s.extend([1, 2, 7, 1, 2]);
        assert!(s.digram_index_len() >= 1);
        assert_eq!(s.rules_created(), 2);
        assert_eq!(s.live_rules(), 2);
        assert!(s.node_arena_len() >= 5);
    }

    #[test]
    fn extend_matches_push() {
        let mut a = Sequitur::new();
        a.extend([1, 2, 1, 2, 3]);
        let mut b = Sequitur::new();
        for x in [1, 2, 1, 2, 3] {
            b.push(x);
        }
        assert_eq!(a.input_len(), b.input_len());
        assert_eq!(
            a.into_grammar().reconstruct(),
            b.into_grammar().reconstruct()
        );
    }

    #[test]
    fn packed_nodes_round_trip_extreme_payloads() {
        let payloads = [
            Payload::Terminal(0),
            Payload::Terminal(1 << 63),
            Payload::Terminal(u64::MAX),
            Payload::NonTerminal(0),
            Payload::NonTerminal(u32::MAX),
            Payload::Guard(7),
        ];
        for p in payloads {
            let mut n = Node::new(p);
            assert_eq!((n.prev(), n.next()), (NIL, NIL));
            for id in [0, 1, NIL - 1, NIL] {
                n.set_prev(id);
                n.set_next(id);
                assert_eq!(n.payload(), p);
                assert_eq!((n.prev(), n.next()), (id, id));
                assert!(n.alive());
            }
            n.next |= FREED;
            assert!(!n.alive());
            assert_eq!((n.payload(), n.next()), (p, NIL));
        }
    }

    #[test]
    fn extreme_terminals_mixed_with_rules_round_trip() {
        let (a, b, c) = (0u64, 1u64 << 63, u64::MAX);
        let unit = [a, b, c, c, b, a];
        let mut input = Vec::new();
        for i in 0..12u64 {
            input.extend(unit);
            input.push([a, b, c][i as usize % 3]);
            input.extend([c, a]);
        }
        let g = build(&input);
        assert_eq!(g.reconstruct(), input);
        let mixed = g.rule_ids().any(|r| {
            let body = g.rule_body(r);
            body.iter().any(|s| matches!(s, GrammarSymbol::Rule(_)))
                && body.iter().any(|s| matches!(s, GrammarSymbol::Terminal(_)))
        });
        assert!(mixed, "no rule body mixes terminals and rule references");
        for t in [a, b, c] {
            let found = g
                .rule_ids()
                .any(|r| g.rule_body(r).contains(&GrammarSymbol::Terminal(t)));
            assert!(found, "terminal {t:#x} lost");
        }
    }

    #[test]
    fn node_ids_stop_below_nil() {
        assert_eq!(node_id(0), 0);
        assert_eq!(node_id(NIL as usize - 1), NIL - 1);
    }

    #[test]
    #[should_panic(expected = "node arena overflow")]
    fn node_id_reaching_nil_panics() {
        node_id(NIL as usize);
    }

    #[test]
    #[should_panic(expected = "node arena overflow")]
    fn node_id_past_u32_panics() {
        node_id(u32::MAX as usize + 1);
    }

    /// Fx, except that one key in eight hashes into the top 2^-16 of the
    /// hash space: its home is the index's last slot, so those entries
    /// form a probe run that wraps around to slot 0.
    #[derive(Default)]
    struct WrapHasher(tempstream_fxhash::FxHasher);

    impl std::hash::Hasher for WrapHasher {
        fn write(&mut self, bytes: &[u8]) {
            self.0.write(bytes);
        }
        fn finish(&self) -> u64 {
            let h = self.0.finish();
            if h >> 61 == 0 {
                0xffff << 48 | h >> 16
            } else {
                h
            }
        }
    }

    #[test]
    fn index_growth_and_wrapping_deletions_keep_invariants() {
        type WrapBuild = std::hash::BuildHasherDefault<WrapHasher>;
        let mut rng = tempstream_trace::rng::SmallRng::seed_from_u64(0x1dc5);
        let streams: Vec<Vec<u64>> = (0..12)
            .map(|s| (0..6).map(|i| 1_000 + s * 100 + i).collect())
            .collect();
        let mut input = Vec::new();
        while input.len() < 2_000 {
            if rng.gen_ratio(1, 2) {
                input.extend(&streams[rng.gen_range(0..streams.len())]);
            } else {
                input.push(rng.gen_range(0..400));
            }
        }
        let mut s = Sequitur::<WrapBuild>::with_hasher();
        let mut capacities = vec![0];
        let (mut removed, mut removed_from_wrapping_run) = (0, 0);
        for &x in &input {
            // Indexed nodes before the push, flagged if homed at the last
            // slot (a member of the run that wraps around).
            let last = s.index.slots.len().wrapping_sub(1);
            let before: Vec<(NodeId, bool)> = s
                .index
                .slots
                .iter()
                .filter(|slot| slot.node != NIL)
                .map(|slot| (slot.node, s.index.home(slot.tag) == last))
                .collect();
            s.push(x);
            s.verify_invariants();
            let after: std::collections::HashSet<NodeId> = s.index.nodes().collect();
            for (node, wraps) in before {
                if !after.contains(&node) {
                    removed += 1;
                    removed_from_wrapping_run += usize::from(wraps);
                }
            }
            if capacities.last() != Some(&s.index.slots.len()) {
                capacities.push(s.index.slots.len());
            }
        }
        assert!(capacities.len() >= 6, "index grew only {capacities:?}");
        assert!(
            removed_from_wrapping_run >= 50,
            "{removed_from_wrapping_run} of {removed} removals hit the wrapping run"
        );
        let mut fx = Sequitur::new();
        fx.extend(input.iter().copied());
        let (g, h) = (s.into_grammar(), fx.into_grammar());
        assert_eq!(g.rule_count(), h.rule_count());
        for r in g.rule_ids() {
            assert_eq!(g.rule_body(r), h.rule_body(r), "rule {r}");
        }
        assert_eq!(g.reconstruct(), input);
    }

    #[test]
    fn live_snapshot_matches_fresh_builder_per_prefix() {
        // The serve-crate contract: grammar() over the first n symbols
        // equals into_grammar() of a fresh builder fed the same prefix.
        let pattern = [7u64, 3, 7, 3, 9, 7, 3, 1, 2, 1, 2];
        let input: Vec<u64> = pattern.iter().cycle().take(120).copied().collect();
        let mut live = Sequitur::new();
        for (n, &sym) in input.iter().enumerate() {
            live.push(sym);
            if n % 17 == 0 {
                let snap = live.grammar();
                let mut fresh = Sequitur::new();
                fresh.extend(input[..=n].iter().copied());
                let batch = fresh.into_grammar();
                assert_eq!(snap.reconstruct(), input[..=n]);
                assert_eq!(snap.rule_count(), batch.rule_count(), "prefix {n}");
                for r in 0..snap.rule_count() {
                    assert_eq!(
                        snap.rule_body(RuleId::new(r)),
                        batch.rule_body(RuleId::new(r)),
                        "prefix {n} rule {r}"
                    );
                }
            }
        }
        // And the final snapshot equals the consuming conversion.
        let snap = live.grammar();
        let whole = live.into_grammar();
        assert_eq!(snap.rule_count(), whole.rule_count());
        assert_eq!(snap.reconstruct(), whole.reconstruct());
    }
}
