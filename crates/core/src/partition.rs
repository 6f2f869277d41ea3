//! Stream hash partitioning (§4.1, Figures 3 and 4).
//!
//! When every class of a pattern is connected by equality predicates on one
//! attribute (Query 2: `T1.name = T2.name = T3.name`; Query 8: same IP),
//! ZStream hash-partitions the incoming stream on that attribute and
//! evaluates the pattern independently per partition: *"Hash Partitioning
//! is performed on the incoming stock stream to apply the equality
//! predicates on stock.name."*
//!
//! [`PartitionedEngine`] wraps one [`Engine`] per observed key, routing
//! events by their partition attribute. [`can_partition_by`] verifies the
//! soundness condition: the query's equality predicates must connect **all**
//! classes (including negated and closure classes) on the partition field,
//! so that no cross-partition match can exist.

use std::collections::HashMap;
use std::sync::Arc;

use zstream_events::{
    EventBatch, EventRef, HashableValue, Record, Snapshot, SnapshotError, SnapshotReader,
    SnapshotResult, SnapshotWriter,
};
use zstream_lang::{AnalyzedQuery, TypedExpr};

use crate::builder::CompiledQuery;
use crate::engine::Engine;
use crate::error::CoreError;
use crate::intake::{Admission, CompiledIntake, IndexLink, SharedPredIndex};
use crate::metrics::EngineMetrics;
use crate::physical::plan::PlanConfig;

/// True when partitioning the stream on `field` preserves the query's
/// semantics. Two conditions must hold:
///
/// 1. every pair of **non-negated** classes is linked (transitively) by
///    equality predicates on `field` *between non-negated classes* — a chain
///    routed through a negated class does not constrain a match when no
///    negation instance occurs, so it cannot justify partitioning,
/// 2. every **negated** class has a direct equality on `field` to some
///    non-negated class — otherwise an event in another partition could
///    legitimately negate a match and per-partition evaluation would miss
///    it.
pub fn can_partition_by(aq: &AnalyzedQuery, field: &str) -> bool {
    let n = aq.num_classes();
    if n == 0 {
        return false;
    }
    // Resolve the field index per class; every class must have the field.
    let field_idx: Vec<Option<usize>> =
        aq.classes.iter().map(|c| c.schema.field_index(field).ok()).collect();
    if field_idx.iter().any(Option::is_none) {
        return false;
    }
    let negated: Vec<bool> = aq.classes.iter().map(|c| c.negated).collect();
    // Union-find over non-negated classes joined on the partition field.
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let root = find(parent, parent[x]);
            parent[x] = root;
        }
        parent[x]
    }
    let mut neg_anchored = vec![false; n];
    for eq in &aq.equalities {
        let ((c1, f1), (c2, f2)) = (eq.left, eq.right);
        if field_idx[c1] != Some(f1) || field_idx[c2] != Some(f2) {
            continue;
        }
        match (negated[c1], negated[c2]) {
            (false, false) => {
                let (r1, r2) = (find(&mut parent, c1), find(&mut parent, c2));
                parent[r1] = r2;
            }
            (true, false) => neg_anchored[c1] = true,
            (false, true) => neg_anchored[c2] = true,
            (true, true) => {}
        }
    }
    let positives: Vec<usize> = (0..n).filter(|c| !negated[*c]).collect();
    let Some(&first) = positives.first() else { return false };
    let root = find(&mut parent, first);
    positives.iter().all(|c| find(&mut parent, *c) == root)
        && (0..n).filter(|c| negated[*c]).all(|c| neg_anchored[c])
}

/// A pattern engine evaluated independently per partition key.
#[derive(Debug)]
pub struct PartitionedEngine {
    // zlint::allow(snapshot, "restore_snapshot receives the compiled query from the caller; not checkpoint state")
    compiled: CompiledQuery,
    // zlint::allow(snapshot, "restore_snapshot receives the plan config from the caller; not checkpoint state")
    plan_config: PlanConfig,
    /// The query's intake, compiled once and shared by every partition
    /// engine.
    // zlint::allow(snapshot, "restore_snapshot receives the intake predicates from the caller; not checkpoint state")
    intake: Arc<CompiledIntake>,
    // zlint::allow(snapshot, "restore_snapshot receives the batch size from the caller; not checkpoint state")
    batch_size: usize,
    /// Field index of the partition attribute per class schema — all class
    /// schemas must agree on the field name; events are keyed through the
    /// first class's schema (events that match no schema are dropped).
    // zlint::allow(snapshot, "restore_snapshot receives the partition field from the caller; not checkpoint state")
    field: String,
    partitions: HashMap<HashableValue, Engine>,
    /// The predicate index intake kernels read: a caller's shared index,
    /// or a private one. Partition engines never evaluate intake on the
    /// columnar paths — this engine does, once per batch.
    // zlint::allow(snapshot, "wiring re-stamped via set_shared_slots after restore, not checkpoint state")
    index: IndexLink,
    /// Per-batch admission, read by every partition engine.
    // zlint::allow(snapshot, "scratch space: rebuilt empty, repopulated per batch")
    admission: Admission,
    /// Per-batch grouping of rows by key.
    // zlint::allow(snapshot, "scratch space: rebuilt empty, repopulated per batch")
    groups: KeyGroups,
    events_in: u64,
    dropped: u64,
    /// Instrument template cloned into each partition engine (cells are
    /// shared across partitions; see [`PartitionedEngine::set_obs`]).
    // zlint::allow(snapshot, "instruments are process-local handles, re-attached via set_obs after restore")
    obs: Option<crate::obs::EngineObs>,
}

impl PartitionedEngine {
    /// Creates a partitioned engine. Fails when partitioning on `field` is
    /// not sound for this query (see [`can_partition_by`]).
    pub fn new(
        compiled: CompiledQuery,
        plan_config: PlanConfig,
        intake: Vec<Vec<TypedExpr>>,
        batch_size: usize,
        field: impl Into<String>,
    ) -> Result<PartitionedEngine, CoreError> {
        let field = field.into();
        if !can_partition_by(&compiled.aq, &field) {
            return Err(CoreError::UnsupportedPattern(format!(
                "cannot partition on '{field}': equality predicates do not connect \
                 all classes on that field"
            )));
        }
        let intake = Arc::new(CompiledIntake::new(&compiled.aq, intake));
        Ok(PartitionedEngine {
            compiled,
            plan_config,
            intake,
            batch_size,
            field,
            partitions: HashMap::new(),
            index: IndexLink::default(),
            admission: Admission::default(),
            groups: KeyGroups::default(),
            events_in: 0,
            dropped: 0,
            obs: None,
        })
    }

    /// The analyzed query.
    pub fn analyzed(&self) -> &Arc<AnalyzedQuery> {
        &self.compiled.aq
    }

    /// Number of partitions materialized so far.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Subscribes this engine to a [`SharedPredIndex`]; `slots` must come
    /// from registering this query's intake predicates there (see
    /// [`Engine::set_shared_slots`]). [`PartitionedEngine::push_rows_shared`]
    /// given that index then shares kernel bitmaps with every other
    /// subscriber.
    pub fn set_shared_slots(&mut self, slots: Arc<Vec<u32>>) {
        debug_assert_eq!(
            slots.len(),
            self.intake.num_kernels(),
            "subscription arity must match the query's distinct kernels"
        );
        self.index.subscribe(slots);
    }

    /// Pushes one event into its partition; returns completed matches.
    pub fn push(&mut self, event: EventRef) -> Vec<Record> {
        self.events_in += 1;
        let Ok(value) = event.value_by_name(&self.field) else {
            self.dropped += 1;
            return Vec::new();
        };
        let key = value.hash_key();
        self.partition_mut(key).push(event)
    }

    /// Routes a whole batch and forces one evaluation round in every
    /// partition that received events, so no match whose trigger is in
    /// `events` stays buffered past this call. This is the latency/finality
    /// guarantee the scale-out runtime's watermark protocol relies on: after
    /// `push_batch` returns, every future match has an end timestamp no
    /// earlier than the last timestamp of `events`.
    ///
    /// Output is ordered by end timestamp across partitions (ties keep the
    /// first-seen-key partition order), so it is deterministic for a given
    /// input stream.
    pub fn push_batch(&mut self, events: &[EventRef]) -> Vec<Record> {
        self.events_in += events.len() as u64;
        let mut groups = std::mem::take(&mut self.groups);
        let field = &self.field;
        let mut dropped = 0u64;
        groups.group(events.iter().zip(0u32..).filter_map(|(event, i)| {
            match event.value_by_name(field) {
                Ok(value) => Some((i, value.hash_key())),
                Err(_) => {
                    dropped += 1;
                    None
                }
            }
        }));
        self.dropped += dropped;
        let mut out = Vec::new();
        let mut group_events = Vec::new();
        for (g, &key) in groups.keys.iter().enumerate() {
            group_events.clear();
            group_events.extend(groups.rows(g).iter().map(|&i| events[i as usize].clone()));
            out.extend(self.partition_mut(key).push_batch(&group_events));
        }
        self.groups = groups;
        // Stable: ties keep first-seen-key partition order.
        out.sort_by_key(Record::end_ts);
        out
    }

    /// Columnar variant of [`PartitionedEngine::push_batch`]: extracts the
    /// partition key from the routing column (one field resolution per
    /// batch, integer keys throughout) and hands each partition its rows as
    /// cheap handles. Output ordering and round-forcing semantics are
    /// identical to `push_batch` over the same rows.
    pub fn push_columns(&mut self, batch: &EventBatch) -> Vec<Record> {
        self.push_selected(batch, None, None)
    }

    /// Selection-vector variant of [`PartitionedEngine::push_columns`]: the
    /// shard form of columnar intake. `rows` are ascending indices into
    /// `batch` (the subset this engine owns after shard routing); only those
    /// rows are keyed, grouped and evaluated — the batch itself is shared
    /// storage and is never copied. Semantics are identical to
    /// `push_columns` over a batch containing exactly the selected rows.
    pub fn push_rows(&mut self, batch: &EventBatch, rows: &[u32]) -> Vec<Record> {
        self.push_selected(batch, Some(rows), None)
    }

    /// [`PartitionedEngine::push_rows`] through a [`SharedPredIndex`] this
    /// engine subscribed to ([`PartitionedEngine::set_shared_slots`]);
    /// `None`, or an engine that never subscribed, evaluates through the
    /// engine's private index (see [`Engine::push_columns_shared`]).
    pub fn push_rows_shared(
        &mut self,
        batch: &EventBatch,
        rows: &[u32],
        shared: Option<&mut SharedPredIndex>,
    ) -> Vec<Record> {
        self.push_selected(batch, Some(rows), shared)
    }

    /// Shared body of the columnar intake paths over `input` (`None`:
    /// every row). Groups the rows by partition key (first-seen key order,
    /// intra-key stream order), evaluates intake **once** over all of them,
    /// hands each partition its rows to materialize (forcing a round per
    /// receiving partition), and emits in end-timestamp order. Groups hold
    /// 4-byte row indices, not event handles — the batch stays shared
    /// storage all the way into each partition — and, like the admission
    /// bitmaps, live in scratch reused from batch to batch.
    fn push_selected(
        &mut self,
        batch: &EventBatch,
        input: Option<&[u32]>,
        shared: Option<&mut SharedPredIndex>,
    ) -> Vec<Record> {
        let n_input = input.map_or(batch.len(), <[u32]>::len);
        self.events_in += n_input as u64;
        let Ok(field_idx) = batch.schema().field_index(&self.field) else {
            self.dropped += n_input as u64;
            return Vec::new();
        };
        if n_input == 0 {
            return Vec::new();
        }
        let col = batch.column(field_idx);
        let keyed = |row: u32| (row, col.value(row as usize).hash_key());
        let mut groups = std::mem::take(&mut self.groups);
        match input {
            None => groups.group((0..n_input as u32).map(keyed)),
            Some(rows) => groups.group(rows.iter().copied().map(keyed)),
        }
        let (index, slots) = self.index.resolve(shared, &self.intake);
        let cost = self.intake.admit(batch, input, index, slots, &mut self.admission);
        if let Some(obs) = &self.obs {
            obs.kernel_rows_evaluated.add(cost.kernel_rows);
            obs.kernel_fallback_rows.add(cost.fallback_rows);
        }
        let admission = std::mem::take(&mut self.admission);
        let mut out = Vec::new();
        for (g, &key) in groups.keys.iter().enumerate() {
            self.partition_mut(key).push_admitted(batch, groups.rows(g), &admission, &mut out);
        }
        self.admission = admission;
        self.groups = groups;
        out.sort_by_key(Record::end_ts);
        out
    }

    /// The engine owning `key`, created from the compiled template on first
    /// sight.
    fn partition_mut(&mut self, key: HashableValue) -> &mut Engine {
        if !self.partitions.contains_key(&key) {
            let plan = self
                .compiled
                .physical_plan(self.plan_config.clone())
                .expect("template plan was validated at construction");
            let mut engine = Engine::with_intake(
                self.compiled.aq.clone(),
                plan,
                Arc::clone(&self.intake),
                self.batch_size,
            );
            if let Some(obs) = &self.obs {
                engine.set_obs(obs.clone());
            }
            self.partitions.insert(key, engine);
        }
        self.partitions.get_mut(&key).expect("inserted above")
    }

    /// Flushes every partition.
    pub fn flush(&mut self) -> Vec<Record> {
        let mut out = Vec::new();
        for engine in self.partitions.values_mut() {
            out.extend(engine.flush());
        }
        // Global end-ts order across partitions for deterministic output.
        out.sort_by_key(Record::end_ts);
        out
    }

    /// Aggregated metrics: per-partition counters folded together with
    /// [`EngineMetrics::merge`]; `peak_bytes` is the sum of per-partition
    /// peaks (an upper bound on the true simultaneous peak). `events_in`
    /// counts every event offered to this engine, including ones dropped
    /// for lacking the partition attribute. Process-global stats are left
    /// unstamped (see [`EngineMetrics::merge`] — they belong to the final
    /// report, not per-engine snapshots).
    pub fn metrics(&self) -> EngineMetrics {
        let mut m = EngineMetrics::default();
        for e in self.partitions.values() {
            m.merge(&e.metrics());
        }
        m.events_in = self.events_in;
        m
    }

    /// Attaches observability instruments. Every existing and future
    /// partition engine records into clones of the same handles — the
    /// cells are shared, so per-query totals fold across partition keys
    /// without extra registry entries.
    pub fn set_obs(&mut self, obs: crate::obs::EngineObs) {
        for e in self.partitions.values_mut() {
            e.set_obs(obs.clone());
        }
        self.obs = Some(obs);
    }

    /// Signature of a record (delegates to any partition's engine — the
    /// plan layout is identical across partitions).
    pub fn record_signature(&self, rec: &Record) -> Vec<Vec<usize>> {
        self.partitions.values().next().map(|e| e.record_signature(rec)).unwrap_or_default()
    }

    /// Rebuilds a partitioned engine from a [`Snapshot`] stream. The
    /// compiled query, plan configuration, intake predicates, batch size
    /// and partition field must match what the snapshotted engine ran —
    /// checkpoints carry state, not code.
    pub fn restore_snapshot(
        compiled: CompiledQuery,
        plan_config: PlanConfig,
        intake: Vec<Vec<TypedExpr>>,
        batch_size: usize,
        field: impl Into<String>,
        r: &mut SnapshotReader<'_>,
    ) -> SnapshotResult<PartitionedEngine> {
        let mut pe = PartitionedEngine::new(compiled, plan_config, intake, batch_size, field)
            .map_err(|e| SnapshotError::Corrupt(format!("invalid partition template: {e}")))?;
        pe.events_in = r.u64()?;
        pe.dropped = r.u64()?;
        let n = r.len()?;
        for _ in 0..n {
            let key = r.hashable()?;
            let plan = pe
                .compiled
                .physical_plan(pe.plan_config.clone())
                .map_err(|e| SnapshotError::Corrupt(format!("plan rebuild failed: {e}")))?;
            let engine = Engine::restore_snapshot(
                pe.compiled.aq.clone(),
                plan,
                Arc::clone(&pe.intake),
                pe.batch_size,
                r,
            )?;
            if pe.partitions.insert(key, engine).is_some() {
                return Err(SnapshotError::Corrupt(format!("duplicate partition key {key:?}")));
            }
        }
        Ok(pe)
    }
}

impl Snapshot for PartitionedEngine {
    /// Serializes the offered/dropped counters and every partition's engine,
    /// keyed by partition key. Partitions are written in **content-digest
    /// order** — `HashMap` iteration order is process-local, and a
    /// checkpoint taken twice from identical state must be byte-identical.
    fn write_snapshot(&self, w: &mut SnapshotWriter) {
        w.u64(self.events_in);
        w.u64(self.dropped);
        w.len(self.partitions.len());
        let mut keys: Vec<&HashableValue> = self.partitions.keys().collect();
        keys.sort_by_key(|k| k.digest());
        for key in keys {
            w.hashable(key);
            self.partitions[key].write_snapshot(w);
        }
    }
}

/// Rows grouped by partition key, reused from batch to batch: a counting
/// sort of the input into one row vector with a contiguous range per key.
#[derive(Debug, Default)]
struct KeyGroups {
    /// Group of each key seen in the current batch.
    group_of: HashMap<HashableValue, u32>,
    /// The batch's keys in first-seen order; group `g` is `keys[g]`.
    keys: Vec<HashableValue>,
    /// Input rows tagged with their group, in input order.
    tagged: Vec<(u32, u32)>,
    /// End of each group's range in `rows`.
    ends: Vec<u32>,
    /// Input rows grouped by key, input order within each group.
    rows: Vec<u32>,
}

impl KeyGroups {
    /// Groups `(row, key)` pairs, replacing the previous batch's groups.
    fn group(&mut self, input: impl Iterator<Item = (u32, HashableValue)>) {
        self.group_of.clear();
        self.keys.clear();
        self.tagged.clear();
        for (row, key) in input {
            let keys = &mut self.keys;
            let g = *self.group_of.entry(key).or_insert_with(|| {
                keys.push(key);
                (keys.len() - 1) as u32
            });
            self.tagged.push((row, g));
        }
        // Counting sort: sizes, then exclusive prefix sums as write cursors;
        // after the scatter each cursor sits at its group's end.
        self.ends.clear();
        self.ends.resize(self.keys.len(), 0);
        for &(_, g) in &self.tagged {
            self.ends[g as usize] += 1;
        }
        let mut start = 0;
        for end in &mut self.ends {
            let size = *end;
            *end = start;
            start += size;
        }
        self.rows.resize(self.tagged.len(), 0);
        for &(row, g) in &self.tagged {
            let cursor = &mut self.ends[g as usize];
            self.rows[*cursor as usize] = row;
            *cursor += 1;
        }
    }

    /// The rows of group `g`, in input order.
    fn rows(&self, g: usize) -> &[u32] {
        let start = if g == 0 { 0 } else { self.ends[g - 1] as usize };
        &self.rows[start..self.ends[g] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_intake, CompiledQuery};
    use zstream_events::{stock, Schema};
    use zstream_lang::{analyze, Query, SchemaMap};

    fn compiled(src: &str) -> CompiledQuery {
        CompiledQuery::optimize(
            &Query::parse(src).unwrap(),
            &SchemaMap::uniform(Schema::stocks()),
            None,
        )
        .unwrap()
    }

    #[test]
    fn partitionable_when_equalities_connect_all_classes() {
        let aq = analyze(
            &Query::parse("PATTERN A; B; C WHERE A.name = B.name = C.name WITHIN 10").unwrap(),
            &SchemaMap::uniform(Schema::stocks()),
        )
        .unwrap();
        assert!(can_partition_by(&aq, "name"));
        assert!(!can_partition_by(&aq, "price"), "no equalities on price");
        assert!(!can_partition_by(&aq, "missing"), "unknown field");
    }

    #[test]
    fn not_partitionable_with_disconnected_classes() {
        let aq = analyze(
            &Query::parse("PATTERN A; B; C WHERE A.name = B.name WITHIN 10").unwrap(),
            &SchemaMap::uniform(Schema::stocks()),
        )
        .unwrap();
        assert!(!can_partition_by(&aq, "name"), "C is not connected");
    }

    #[test]
    fn construction_rejects_unsound_partitioning() {
        let c = compiled("PATTERN A; B WITHIN 10");
        let intake = build_intake(&c.aq, None).unwrap();
        assert!(matches!(
            PartitionedEngine::new(c, PlanConfig::default(), intake, 4, "name"),
            Err(CoreError::UnsupportedPattern(_))
        ));
    }

    #[test]
    fn partitioned_matches_only_within_keys() {
        let c = compiled("PATTERN A; B WHERE A.name = B.name WITHIN 100");
        let intake = build_intake(&c.aq, None).unwrap();
        let mut pe = PartitionedEngine::new(c, PlanConfig::default(), intake, 1, "name").unwrap();
        let mut matches = Vec::new();
        matches.extend(pe.push(stock(1, 1, "IBM", 1.0, 1)));
        matches.extend(pe.push(stock(2, 2, "Sun", 1.0, 1)));
        matches.extend(pe.push(stock(3, 3, "Sun", 2.0, 1))); // Sun;Sun ✓
        matches.extend(pe.push(stock(4, 4, "IBM", 2.0, 1))); // IBM;IBM ✓
        matches.extend(pe.flush());
        assert_eq!(matches.len(), 2);
        assert_eq!(pe.num_partitions(), 2);
        assert_eq!(pe.metrics().matches_out, 2);
    }

    #[test]
    fn partitioned_equals_unpartitioned() {
        let src = "PATTERN A; B; C WHERE A.name = B.name = C.name WITHIN 50";
        // Small alphabet so partitions receive several events each.
        let names = ["IBM", "Sun", "Oracle"];
        let events: Vec<EventRef> = (0..120u64)
            .map(|i| stock(i + 1, i as i64, names[(i as usize * 7) % 3], i as f64, 1))
            .collect();

        let c = compiled(src);
        let intake = build_intake(&c.aq, None).unwrap();
        let mut pe =
            PartitionedEngine::new(c.clone(), PlanConfig::default(), intake.clone(), 4, "name")
                .unwrap();
        let mut part_out = Vec::new();
        for e in &events {
            part_out.extend(pe.push(e.clone()));
        }
        part_out.extend(pe.flush());
        let mut part_sigs: Vec<_> = part_out.iter().map(|r| pe.record_signature(r)).collect();
        part_sigs.sort();

        let plan = c.physical_plan(PlanConfig::default()).unwrap();
        let mut engine = Engine::new(c.aq.clone(), plan, intake, 4);
        let mut flat_out = Vec::new();
        for e in &events {
            flat_out.extend(engine.push(e.clone()));
        }
        flat_out.extend(engine.flush());
        let mut flat_sigs: Vec<_> = flat_out.iter().map(|r| engine.record_signature(r)).collect();
        flat_sigs.sort();

        assert!(!flat_sigs.is_empty());
        assert_eq!(part_sigs, flat_sigs);
    }

    #[test]
    fn push_batch_equals_per_event_push_and_orders_output() {
        let src = "PATTERN A; B WHERE A.name = B.name WITHIN 100";
        let names = ["IBM", "Sun", "Oracle", "HP"];
        let events: Vec<EventRef> = (0..80u64)
            .map(|i| stock(i + 1, i as i64, names[(i as usize * 5) % 4], i as f64, 1))
            .collect();

        let c = compiled(src);
        let intake = build_intake(&c.aq, None).unwrap();
        let mut batched =
            PartitionedEngine::new(c.clone(), PlanConfig::default(), intake.clone(), 4, "name")
                .unwrap();
        let mut batched_out = Vec::new();
        for chunk in events.chunks(7) {
            let out = batched.push_batch(chunk);
            assert!(
                out.windows(2).all(|w| w[0].end_ts() <= w[1].end_ts()),
                "push_batch output must be end-ts ordered"
            );
            batched_out.extend(out);
        }
        batched_out.extend(batched.flush());

        let mut single =
            PartitionedEngine::new(c, PlanConfig::default(), intake, 4, "name").unwrap();
        let mut single_out = Vec::new();
        for e in &events {
            single_out.extend(single.push(e.clone()));
        }
        single_out.extend(single.flush());

        let mut b_sigs: Vec<_> = batched_out.iter().map(|r| batched.record_signature(r)).collect();
        let mut s_sigs: Vec<_> = single_out.iter().map(|r| single.record_signature(r)).collect();
        b_sigs.sort();
        s_sigs.sort();
        assert!(!b_sigs.is_empty());
        assert_eq!(b_sigs, s_sigs);
        assert_eq!(batched.metrics().events_in, events.len() as u64);
        assert_eq!(batched.metrics().matches_out, single.metrics().matches_out);
    }

    #[test]
    fn push_rows_equals_push_columns_on_the_selected_subset() {
        let src = "PATTERN A; B WHERE A.name = B.name WITHIN 100";
        let names = ["IBM", "Sun", "Oracle", "HP"];
        let events: Vec<EventRef> = (0..60u64)
            .map(|i| stock(i + 1, i as i64, names[(i as usize * 5) % 4], i as f64, 1))
            .collect();
        let batch = EventBatch::from_events(&events).unwrap();
        // Every third row: the kind of selection a shard receives.
        let rows: Vec<u32> = (0..batch.len() as u32).filter(|r| r % 3 == 0).collect();

        let c = compiled(src);
        let intake = build_intake(&c.aq, None).unwrap();
        let mut by_rows =
            PartitionedEngine::new(c.clone(), PlanConfig::default(), intake.clone(), 4, "name")
                .unwrap();
        let mut a = by_rows.push_rows(&batch, &rows);
        a.extend(by_rows.flush());

        let sub = batch.select(&rows);
        let mut by_columns =
            PartitionedEngine::new(c, PlanConfig::default(), intake, 4, "name").unwrap();
        let mut b = by_columns.push_columns(&sub);
        b.extend(by_columns.flush());

        assert!(!a.is_empty());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.start_ts(), y.start_ts());
            assert_eq!(x.end_ts(), y.end_ts());
        }
        assert_eq!(by_rows.metrics().events_in, rows.len() as u64);
    }

    #[test]
    fn push_rows_without_field_drops_and_matches_nothing() {
        let src = "PATTERN A; B WHERE A.name = B.name WITHIN 100";
        let c = compiled(src);
        let intake = build_intake(&c.aq, None).unwrap();
        let mut pe = PartitionedEngine::new(c, PlanConfig::default(), intake, 4, "name").unwrap();
        // A batch whose schema has no `name` field: every selected row is
        // dropped, no partition materializes.
        let mut wb = EventBatch::builder(zstream_events::Schema::weblog(), 2);
        for ts in [1u64, 2] {
            use zstream_events::Value;
            wb.push_row(ts, &[Value::str("1.2.3.4"), Value::str("/a"), Value::str("Course")])
                .unwrap();
        }
        let weblog = wb.finish();
        assert!(pe.push_rows(&weblog, &[0, 1]).is_empty());
        assert_eq!(pe.num_partitions(), 0);
        assert_eq!(pe.metrics().events_in, 2, "dropped rows still count as offered");
    }

    #[test]
    fn partitioned_snapshot_round_trips_with_stable_bytes() {
        let src = "PATTERN A; B WHERE A.name = B.name WITHIN 100";
        let names = ["IBM", "Sun", "Oracle", "HP"];
        let events: Vec<EventRef> = (0..40u64)
            .map(|i| stock(i + 1, i as i64, names[(i as usize * 5) % 4], i as f64, 1))
            .collect();
        let c = compiled(src);
        let intake = build_intake(&c.aq, None).unwrap();
        let mut pe =
            PartitionedEngine::new(c.clone(), PlanConfig::default(), intake.clone(), 4, "name")
                .unwrap();
        let mut head_out = Vec::new();
        for e in &events {
            head_out.extend(pe.push(e.clone()));
        }
        assert!(pe.num_partitions() > 1);

        let snap = |pe: &PartitionedEngine| {
            let mut w = SnapshotWriter::new();
            pe.write_snapshot(&mut w);
            w.into_bytes()
        };
        let bytes = snap(&pe);
        // Digest-sorted partition order: re-snapshotting identical state is
        // byte-identical despite HashMap iteration order.
        assert_eq!(bytes, snap(&pe));

        let mut r = SnapshotReader::new(&bytes);
        let mut restored = PartitionedEngine::restore_snapshot(
            c,
            PlanConfig::default(),
            intake,
            4,
            "name",
            &mut r,
        )
        .unwrap();
        assert!(r.is_exhausted());
        assert_eq!(restored.num_partitions(), pe.num_partitions());
        assert_eq!(restored.metrics().events_in, pe.metrics().events_in);
        assert_eq!(restored.metrics().matches_out, pe.metrics().matches_out);

        // Tail equivalence: both engines see the same continuation and must
        // produce the same spans in the same order.
        let tail: Vec<EventRef> = (40..60u64)
            .map(|i| stock(i + 1, i as i64, names[(i as usize * 5) % 4], i as f64, 1))
            .collect();
        let spans =
            |recs: &[Record]| recs.iter().map(|r| (r.start_ts(), r.end_ts())).collect::<Vec<_>>();
        let mut a = pe.push_batch(&tail);
        a.extend(pe.flush());
        let mut b = restored.push_batch(&tail);
        b.extend(restored.flush());
        assert!(!a.is_empty());
        assert_eq!(spans(&a), spans(&b));
    }

    #[test]
    fn negation_chain_does_not_transfer_connectivity() {
        // `T1.name = T2.name = T3.name` with T2 negated: when no T2 occurs,
        // nothing forces T1.name == T3.name, so partitioning is unsound.
        let aq = analyze(
            &Query::parse("PATTERN T1; !T2; T3 WHERE T1.name = T2.name = T3.name WITHIN 10")
                .unwrap(),
            &SchemaMap::uniform(Schema::stocks()),
        )
        .unwrap();
        assert!(!can_partition_by(&aq, "name"));
    }

    #[test]
    fn negated_class_anchored_directly_is_partitionable() {
        // Query 2 written with a direct T1-T3 equality plus a direct anchor
        // for the negated class: sound to partition.
        let aq = analyze(
            &Query::parse(
                "PATTERN T1; !T2; T3 \
                 WHERE T1.name = T3.name AND T2.name = T1.name WITHIN 10",
            )
            .unwrap(),
            &SchemaMap::uniform(Schema::stocks()),
        )
        .unwrap();
        assert!(can_partition_by(&aq, "name"));
    }

    #[test]
    fn unanchored_negated_class_blocks_partitioning() {
        // T1 and T3 are connected, but a T2 from any partition could negate.
        let aq = analyze(
            &Query::parse("PATTERN T1; !T2; T3 WHERE T1.name = T3.name WITHIN 10").unwrap(),
            &SchemaMap::uniform(Schema::stocks()),
        )
        .unwrap();
        assert!(!can_partition_by(&aq, "name"));
    }
}
