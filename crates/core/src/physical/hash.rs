//! Hash evaluation of equality predicates (§5.2.2).
//!
//! When a node's predicates include equalities `A.f = B.f` between its two
//! sides, ZStream builds a hash table keyed on the left side's attribute(s)
//! and probes it with each right record instead of scanning the whole left
//! buffer. Multiple equality predicates at one node form a composite key —
//! the paper's "primary and secondary hash tables" collapse into one
//! composite-keyed table with identical semantics.
//!
//! The index lives as long as its node and is maintained incrementally
//! across rounds; see [`HashIndex`] for how it follows the buffer.

use std::borrow::Borrow;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use zstream_events::{HashableValue, Record};
use zstream_lang::ClassId;

use crate::physical::binding::ClassMap;
use crate::physical::buffer::Buffer;

/// One key component: read `field` of the event bound to `class`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyPart {
    /// Class whose event supplies the key.
    pub class: ClassId,
    /// Field index within that class's schema.
    pub field: usize,
}

/// Specification of a hash join at one node.
#[derive(Debug, Clone)]
pub struct HashSpec {
    /// Key extractors on the left (build) side.
    pub left: Vec<KeyPart>,
    /// Key extractors on the right (probe) side, aligned with `left`.
    pub right: Vec<KeyPart>,
    /// Indexes (into the node's predicate list) covered by this hash join;
    /// they are skipped during per-pair predicate evaluation.
    pub covered_preds: Vec<usize>,
}

/// A hash join at one SEQ or CONJ node: the key specification and the
/// indexes probed with it. Nodes hold it boxed, so nodes without a hash
/// join stay small.
#[derive(Debug)]
pub struct HashJoin {
    /// The equality keys on both sides.
    pub spec: HashSpec,
    /// Index over the left child's buffer, probed with right-side keys.
    pub left: HashIndex,
    /// Index over the right child's buffer, probed with left-side keys;
    /// only CONJ, which probes in both directions, has one.
    pub right: Option<Box<HashIndex>>,
}

impl HashJoin {
    /// A join with empty indexes; `both_sides` adds the right-side index.
    pub fn new(spec: HashSpec, both_sides: bool) -> HashJoin {
        HashJoin {
            spec,
            left: HashIndex::new(),
            right: both_sides.then(|| Box::new(HashIndex::new())),
        }
    }

    /// Logical footprint of both indexes.
    pub fn bytes(&self) -> usize {
        self.left.bytes() + self.right.as_ref().map_or(0, |r| r.bytes())
    }
}

/// End of a chain / no link.
const NONE: u64 = u64::MAX;
/// Bucket id of the unkeyed chain.
const UNKEYED: u32 = u32::MAX;

/// An owned key. Single-part keys (the common case) are stored inline, so a
/// key that empties and later returns costs no allocation.
#[derive(Debug, Clone)]
enum Key {
    One(HashableValue),
    Many(Arc<[HashableValue]>),
}

impl Key {
    fn new(parts: &[HashableValue]) -> Key {
        match parts {
            [one] => Key::One(*one),
            many => Key::Many(many.into()),
        }
    }

    fn as_slice(&self) -> &[HashableValue] {
        match self {
            Key::One(v) => std::slice::from_ref(v),
            Key::Many(vs) => vs,
        }
    }
}

// Hash and equality go through the slice so that lookups can borrow a
// `&[HashableValue]` (`Borrow` requires identical hashing).
impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Key {}

impl Borrow<[HashableValue]> for Key {
    fn borrow(&self) -> &[HashableValue] {
        self.as_slice()
    }
}

/// A singly linked list of sequence positions, oldest first.
#[derive(Debug, Clone, Copy)]
struct Chain {
    head: u64,
    tail: u64,
}

impl Default for Chain {
    fn default() -> Chain {
        Chain { head: NONE, tail: NONE }
    }
}

/// The records of one key: the key (to unregister it when the chain
/// empties) and their chain.
#[derive(Debug)]
struct Bucket {
    key: Option<Key>,
    chain: Chain,
}

/// Per indexed record: its bucket and the next position with the same key.
#[derive(Debug, Clone, Copy)]
struct Link {
    bucket: u32,
    next: u64,
}

/// A hash index over a build-side buffer: composite key → the buffer's
/// records with that key, in buffer order.
///
/// Records are tracked by their buffer sequence position
/// ([`Buffer::base`]), so removing records from the buffer's front
/// invalidates nothing: [`HashIndex::sync`] unlinks the positions that fell
/// below the base, and unregisters a key when its last record goes, so the
/// index never outgrows the live records. An interior compaction gives the
/// survivors fresh positions, so the next sync unlinks everything and
/// indexes them again: a full rebuild, and the only one. Steady-state
/// maintenance and probing allocate nothing: a single-part key is read onto
/// the stack, a composite key into reused scratch, lookups borrow it, and
/// an owned key is made only when a key is not in the index.
#[derive(Debug, Default)]
pub struct HashIndex {
    map: HashMap<Key, u32>,
    buckets: Vec<Bucket>,
    /// Ids of emptied buckets, reused before `buckets` grows.
    free: Vec<u32>,
    /// Records whose key could not be extracted (an equality attribute's
    /// class left unbound by a disjunction): they match every probe
    /// vacuously and follow every probe's own candidates.
    unkeyed: Chain,
    /// `links[i]` belongs to the record at position `first + i`.
    links: VecDeque<Link>,
    first: u64,
    /// Composite-key extraction scratch.
    key: Vec<HashableValue>,
}

impl HashIndex {
    /// An empty index.
    pub fn new() -> HashIndex {
        HashIndex::default()
    }

    /// Extracts the composite key of `rec` using `parts` into `out`
    /// (cleared first). Returns `false` when any part's class is unbound —
    /// such records can never satisfy the equality.
    pub fn extract_key(
        rec: &Record,
        map: &ClassMap,
        parts: &[KeyPart],
        out: &mut Vec<HashableValue>,
    ) -> bool {
        out.clear();
        for p in parts {
            let Some(v) = Self::part_value(rec, map, p) else { return false };
            out.push(v);
        }
        true
    }

    /// One key component of `rec`; `None` when its class is unbound.
    fn part_value(rec: &Record, map: &ClassMap, p: &KeyPart) -> Option<HashableValue> {
        let ev = map.slot_of(p.class).and_then(|slot| rec.slot(slot).as_one())?;
        Some(ev.value(p.field).hash_key())
    }

    /// Brings the index up to date with `buffer`: unlinks records the
    /// buffer removed (or renumbered), then indexes records appended since
    /// the last sync. Afterwards probe results are indexes into `buffer`.
    pub fn sync(&mut self, buffer: &Buffer, map: &ClassMap, parts: &[KeyPart]) {
        while self.first < buffer.base() {
            let Some(link) = self.links.pop_front() else {
                self.first = buffer.base();
                break;
            };
            self.unlink_front(link);
            self.first += 1;
        }
        let end = buffer.base() + buffer.len() as u64;
        while self.first + (self.links.len() as u64) < end {
            let pos = self.first + self.links.len() as u64;
            let bucket = self.bucket_of(buffer.get((pos - buffer.base()) as usize), map, parts);
            let chain = match bucket {
                UNKEYED => &mut self.unkeyed,
                b => &mut self.buckets[b as usize].chain,
            };
            match chain.tail {
                NONE => chain.head = pos,
                tail => self.links[(tail - self.first) as usize].next = pos,
            }
            chain.tail = pos;
            self.links.push_back(Link { bucket, next: NONE });
        }
    }

    /// The bucket of `rec`'s key, [`UNKEYED`] when it has none.
    fn bucket_of(&mut self, rec: &Record, map: &ClassMap, parts: &[KeyPart]) -> u32 {
        if let [part] = parts {
            return match Self::part_value(rec, map, part) {
                Some(v) => self.bucket_of_key(std::slice::from_ref(&v)),
                None => UNKEYED,
            };
        }
        let mut key = std::mem::take(&mut self.key);
        let bucket = match Self::extract_key(rec, map, parts, &mut key) {
            true => self.bucket_of_key(&key),
            false => UNKEYED,
        };
        self.key = key;
        bucket
    }

    /// The bucket of `key`, registering the key (and making its one owned
    /// copy) if it is new.
    fn bucket_of_key(&mut self, key: &[HashableValue]) -> u32 {
        if let Some(&b) = self.map.get(key) {
            return b;
        }
        let key = Key::new(key);
        let b = match self.free.pop() {
            Some(b) => {
                self.buckets[b as usize].key = Some(key.clone());
                b
            }
            None => {
                self.buckets.push(Bucket { key: Some(key.clone()), chain: Chain::default() });
                (self.buckets.len() - 1) as u32
            }
        };
        self.map.insert(key, b);
        b
    }

    /// Unlinks the record at position `self.first` (the oldest indexed),
    /// unregistering its key when it was the key's last record.
    fn unlink_front(&mut self, link: Link) {
        let chain = match link.bucket {
            UNKEYED => &mut self.unkeyed,
            b => &mut self.buckets[b as usize].chain,
        };
        debug_assert_eq!(chain.head, self.first, "the oldest record heads its chain");
        chain.head = link.next;
        if link.next == NONE {
            chain.tail = NONE;
            if link.bucket != UNKEYED {
                let bucket = &mut self.buckets[link.bucket as usize];
                if let Some(key) = bucket.key.take() {
                    self.map.remove(key.as_slice());
                }
                self.free.push(link.bucket);
            }
        }
    }

    /// Build-side records matching `key`, in buffer order, followed by the
    /// unkeyed records.
    pub fn probe(&self, key: &[HashableValue]) -> Probe<'_> {
        let head = self.map.get(key).map_or(NONE, |&b| self.buckets[b as usize].chain.head);
        Probe { links: &self.links, first: self.first, next: head, then: self.unkeyed.head }
    }

    /// [`HashIndex::probe`] with the key of `rec` (extracted through
    /// `parts`); `None` when `rec` has no extractable key.
    pub fn probe_record(
        &mut self,
        rec: &Record,
        map: &ClassMap,
        parts: &[KeyPart],
    ) -> Option<Probe<'_>> {
        if let [part] = parts {
            let v = Self::part_value(rec, map, part)?;
            return Some(self.probe(std::slice::from_ref(&v)));
        }
        if !Self::extract_key(rec, map, parts, &mut self.key) {
            return None;
        }
        Some(self.probe(&self.key))
    }

    /// Number of indexed records, keyed or not.
    pub fn entries(&self) -> usize {
        self.links.len()
    }

    /// Number of distinct keys with at least one indexed record.
    pub fn keys(&self) -> usize {
        self.map.len()
    }

    /// Approximate footprint in bytes for the logical memory accounting:
    /// one link per indexed record plus one map entry and bucket per key.
    pub fn bytes(&self) -> usize {
        self.links.len() * std::mem::size_of::<Link>()
            + self.map.len()
                * (std::mem::size_of::<Key>()
                    + std::mem::size_of::<u32>()
                    + std::mem::size_of::<Bucket>())
    }
}

/// Buffer indexes produced by a probe: the key's records in buffer order,
/// then the unkeyed records in buffer order.
#[derive(Debug, Clone)]
pub struct Probe<'a> {
    links: &'a VecDeque<Link>,
    first: u64,
    next: u64,
    then: u64,
}

impl Iterator for Probe<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.next == NONE {
            self.next = std::mem::replace(&mut self.then, NONE);
            if self.next == NONE {
                return None;
            }
        }
        let idx = (self.next - self.first) as usize;
        self.next = self.links[idx].next;
        Some(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zstream_events::{stock, Slot};

    fn buf_with(names: &[(&str, u64)]) -> (Buffer, ClassMap) {
        let mut b = Buffer::new();
        for (name, ts) in names {
            b.push(Record::primitive(stock(*ts, *ts as i64, name, 1.0, 1)));
        }
        (b, ClassMap::new(1, &[0]))
    }

    fn name_key() -> Vec<KeyPart> {
        vec![KeyPart { class: 0, field: 1 }]
    }

    fn owned_key(rec: &Record, map: &ClassMap, parts: &[KeyPart]) -> Vec<HashableValue> {
        let mut key = Vec::new();
        assert!(HashIndex::extract_key(rec, map, parts, &mut key));
        key
    }

    fn probe(idx: &HashIndex, key: &[HashableValue]) -> Vec<usize> {
        idx.probe(key).collect()
    }

    /// Every key's probe result, for comparing two indexes over one buffer.
    fn all_probes(idx: &HashIndex, b: &Buffer, map: &ClassMap) -> Vec<Vec<usize>> {
        b.iter().map(|r| probe(idx, &owned_key(r, map, &name_key()))).collect()
    }

    fn fresh(b: &Buffer, map: &ClassMap, parts: &[KeyPart]) -> HashIndex {
        let mut idx = HashIndex::new();
        idx.sync(b, map, parts);
        idx
    }

    #[test]
    fn probe_returns_matching_indexes_in_order() {
        let (b, map) = buf_with(&[("IBM", 1), ("Sun", 2), ("IBM", 3)]);
        let idx = fresh(&b, &map, &name_key());
        let key = owned_key(b.get(0), &map, &name_key());
        assert_eq!(probe(&idx, &key), [0, 2]);
        assert_eq!((idx.entries(), idx.keys()), (3, 2));
    }

    #[test]
    fn sync_is_incremental() {
        let (mut b, map) = buf_with(&[("IBM", 1)]);
        let mut idx = fresh(&b, &map, &name_key());
        b.push(Record::primitive(stock(5, 5, "IBM", 1.0, 1)));
        idx.sync(&b, &map, &name_key());
        let key = owned_key(b.get(0), &map, &name_key());
        assert_eq!(probe(&idx, &key), [0, 1]);
    }

    #[test]
    fn front_prunes_probe_like_a_fresh_index() {
        let names = ["IBM", "Sun", "IBM", "HP", "Sun", "IBM", "HP", "IBM"];
        let (mut b, map) = buf_with(&[]);
        let mut idx = HashIndex::new();
        let mut ts = 0;
        for round in 0..12u64 {
            for _ in 0..3 {
                ts += 1;
                b.push(Record::primitive(stock(ts, 0, names[ts as usize % 8], 1.0, 1)));
            }
            // Leaf records start where they end: every prune is a front pop.
            b.prune(ts.saturating_sub(5 + round % 3));
            idx.sync(&b, &map, &name_key());
            let rebuilt = fresh(&b, &map, &name_key());
            assert_eq!(all_probes(&idx, &b, &map), all_probes(&rebuilt, &b, &map));
            assert_eq!((idx.entries(), idx.keys()), (rebuilt.entries(), rebuilt.keys()));
        }
        // A gone key probes empty.
        let (gone, _) = buf_with(&[("Oracle", 1)]);
        assert!(probe(&idx, &owned_key(gone.get(0), &map, &name_key())).is_empty());
    }

    #[test]
    fn rebuild_after_prune_fixes_indexes() {
        // Two-class records sorted by end but not by start: pruning removes
        // an interior record, which renumbers the survivors, and the next
        // sync must re-index them rather than trust the old positions.
        let map = ClassMap::new(2, &[0, 1]);
        let parts = vec![KeyPart { class: 1, field: 1 }];
        let pair = |start: u64, end: u64, name: &str| {
            Record::from_slots(vec![
                Slot::One(stock(start, 0, "A", 1.0, 1)),
                Slot::One(stock(end, 1, name, 1.0, 1)),
            ])
        };
        let mut b = Buffer::new();
        b.push(pair(6, 10, "IBM"));
        b.push(pair(1, 11, "IBM"));
        b.push(pair(7, 12, "Sun"));
        b.push(pair(8, 13, "IBM"));
        let mut idx = fresh(&b, &map, &parts);
        let ibm = owned_key(b.get(0), &map, &parts);
        assert_eq!(probe(&idx, &ibm), [0, 1, 3]);
        assert_eq!(b.prune(5), 1); // interior: the (1, 11) record
        idx.sync(&b, &map, &parts);
        assert_eq!(probe(&idx, &ibm), [0, 2]);
        assert_eq!(b.get(2).end_ts(), 13);
        let sun = owned_key(b.get(1), &map, &parts);
        assert_eq!(probe(&idx, &sun), [1]);
        assert_eq!(idx.entries(), 3);
        // Appends after the rebuild index incrementally again.
        b.push(pair(9, 14, "Sun"));
        idx.sync(&b, &map, &parts);
        assert_eq!(probe(&idx, &sun), [1, 3]);
    }

    #[test]
    fn emptied_keys_are_removed() {
        let (mut b, map) = buf_with(&[("IBM", 1), ("Sun", 2), ("IBM", 3)]);
        let mut idx = fresh(&b, &map, &name_key());
        assert_eq!(idx.keys(), 2);
        b.prune(3); // drops IBM@1 and Sun@2
        idx.sync(&b, &map, &name_key());
        assert_eq!((idx.entries(), idx.keys()), (1, 1));
        b.clear();
        idx.sync(&b, &map, &name_key());
        assert_eq!((idx.entries(), idx.keys(), idx.bytes()), (0, 0, 0));
        // A returning key is registered afresh.
        b.push(Record::primitive(stock(9, 9, "Sun", 1.0, 1)));
        idx.sync(&b, &map, &name_key());
        assert_eq!(probe(&idx, &owned_key(b.get(0), &map, &name_key())), [0]);
        assert_eq!(idx.keys(), 1);
    }

    #[test]
    fn records_pruned_before_a_sync_are_never_indexed() {
        let (mut b, map) = buf_with(&[("IBM", 1)]);
        let mut idx = fresh(&b, &map, &name_key());
        b.push(Record::primitive(stock(2, 2, "IBM", 1.0, 1)));
        b.push(Record::primitive(stock(3, 3, "Sun", 1.0, 1)));
        b.prune(3); // both IBM records go before the index saw the second
        b.push(Record::primitive(stock(4, 4, "IBM", 1.0, 1)));
        idx.sync(&b, &map, &name_key());
        assert_eq!(probe(&idx, &owned_key(b.get(1), &map, &name_key())), [1]);
        assert_eq!((idx.entries(), idx.keys()), (2, 2));
    }

    #[test]
    fn unkeyed_records_follow_every_probe() {
        // Class 1 unbound in slot form: records whose key class is `None`.
        let map = ClassMap::new(2, &[0, 1]);
        let parts = vec![KeyPart { class: 1, field: 1 }];
        let rec = |ts: u64, name: Option<&str>| {
            let right = match name {
                Some(n) => Slot::One(stock(ts, 1, n, 1.0, 1)),
                None => Slot::None,
            };
            Record::from_slots_with_span(vec![Slot::One(stock(ts, 0, "A", 1.0, 1)), right], ts, ts)
        };
        let mut b = Buffer::new();
        b.push(rec(1, None));
        b.push(rec(2, Some("IBM")));
        b.push(rec(3, None));
        b.push(rec(4, Some("IBM")));
        let mut idx = fresh(&b, &map, &parts);
        let ibm = owned_key(b.get(1), &map, &parts);
        assert_eq!(probe(&idx, &ibm), [1, 3, 0, 2]);
        assert_eq!(idx.probe_record(b.get(0), &map, &parts).map(Iterator::count), None);
        b.prune(2);
        idx.sync(&b, &map, &parts);
        assert_eq!(probe(&idx, &ibm), [0, 2, 1]);
    }

    #[test]
    fn mixed_type_equality_join_keys_coerce() {
        // Regression (§5.2.2 hashable form): an equality join between an
        // `int` column and a `float` column must treat `Int(v)` and
        // `Float(v as f64)` as the same key — and must NOT collapse large
        // integers that only collide after a lossy f64 cast.
        use std::sync::Arc;
        use zstream_events::{Event, Schema, Value, ValueType};
        let int_schema =
            Arc::new(Schema::builder("IntSide").field("k", ValueType::Int).build().unwrap());
        let float_schema =
            Arc::new(Schema::builder("FloatSide").field("k", ValueType::Float).build().unwrap());
        let big = 1i64 << 53;
        let mut build = Buffer::new();
        for (ts, v) in [(1, 2), (2, big), (3, big + 1)] {
            let e = Event::new(Arc::clone(&int_schema), ts, vec![Value::Int(v)]).unwrap();
            build.push(Record::primitive(e));
        }
        let map = ClassMap::new(2, &[0]);
        let parts = vec![KeyPart { class: 0, field: 0 }];
        let mut idx = fresh(&build, &map, &parts);

        let mut probe_key = |v: f64| -> Vec<usize> {
            let e = Event::new(Arc::clone(&float_schema), 9, vec![Value::Float(v)]).unwrap();
            let rec = Record::primitive(e);
            let pmap = ClassMap::new(2, &[1]);
            idx.probe_record(&rec, &pmap, &[KeyPart { class: 1, field: 0 }]).unwrap().collect()
        };
        // Float(2.0) finds Int(2).
        assert_eq!(probe_key(2.0), [0]);
        // Float(2^53) finds exactly Int(2^53) — not the neighbour that a
        // lossy cast would have merged into the same bucket *and* treated
        // as join-equal.
        assert_eq!(probe_key(big as f64), [1]);
        // Non-integral probe finds nothing.
        assert!(probe_key(2.5).is_empty());
    }

    #[test]
    fn conj_join_probes_both_directions_across_prunes() {
        // `IBM & Sun WHERE IBM.name = Sun.name`-shaped join: class 0 on the
        // left, class 1 on the right, keyed on the name field both ways.
        let spec = HashSpec {
            left: vec![KeyPart { class: 0, field: 1 }],
            right: vec![KeyPart { class: 1, field: 1 }],
            covered_preds: vec![0],
        };
        let mut join = HashJoin::new(spec, true);
        let (lmap, rmap) = (ClassMap::new(2, &[0]), ClassMap::new(2, &[1]));
        let (mut lbuf, mut rbuf) = (Buffer::new(), Buffer::new());
        let names = ["IBM", "Sun", "HP"];
        for ts in 1..=12u64 {
            let (l, r) = (names[ts as usize % 3], names[(ts as usize + 1) % 3]);
            lbuf.push(Record::primitive(stock(ts, 0, l, 1.0, 1)));
            rbuf.push(Record::primitive(stock(ts, 1, r, 1.0, 1)));
            if ts % 4 == 0 {
                lbuf.prune(ts.saturating_sub(5));
                rbuf.prune(ts - 3);
            }
            let right = join.right.as_deref_mut().unwrap();
            join.left.sync(&lbuf, &lmap, &join.spec.left);
            right.sync(&rbuf, &rmap, &join.spec.right);
            // Each side's records probe the other side's index; the result
            // must be exactly the other side's records with the same name.
            let same = |a: &Record, b: &Record| {
                a.slot(0).as_one().unwrap().value(1) == b.slot(0).as_one().unwrap().value(1)
            };
            for lr in lbuf.iter() {
                let got: Vec<usize> =
                    right.probe_record(lr, &lmap, &join.spec.left).unwrap().collect();
                let want: Vec<usize> = (0..rbuf.len()).filter(|&i| same(lr, rbuf.get(i))).collect();
                assert_eq!(got, want, "left record {lr} at ts {ts}");
            }
            for rr in rbuf.iter() {
                let got: Vec<usize> =
                    join.left.probe_record(rr, &rmap, &join.spec.right).unwrap().collect();
                let want: Vec<usize> = (0..lbuf.len()).filter(|&i| same(rr, lbuf.get(i))).collect();
                assert_eq!(got, want, "right record {rr} at ts {ts}");
            }
        }
        assert!(join.bytes() > 0);
    }

    #[test]
    fn composite_keys_distinguish_pairs() {
        // Key on (name, volume).
        let mut b = Buffer::new();
        b.push(Record::primitive(stock(1, 1, "IBM", 1.0, 10)));
        b.push(Record::primitive(stock(2, 2, "IBM", 1.0, 20)));
        b.push(Record::primitive(stock(3, 3, "IBM", 1.0, 10)));
        let map = ClassMap::new(1, &[0]);
        let parts = vec![KeyPart { class: 0, field: 1 }, KeyPart { class: 0, field: 3 }];
        let mut idx = fresh(&b, &map, &parts);
        let k0 = owned_key(b.get(0), &map, &parts);
        let k1 = owned_key(b.get(1), &map, &parts);
        assert_ne!(k0, k1);
        assert_eq!(probe(&idx, &k0), [0, 2]);
        // Composite keys are unregistered like single-part ones.
        b.prune(3);
        idx.sync(&b, &map, &parts);
        assert_eq!(probe(&idx, &k0), [0]);
        assert!(probe(&idx, &k1).is_empty());
        assert_eq!(idx.keys(), 1);
    }
}
