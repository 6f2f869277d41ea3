//! The batch-iterator evaluation engine (§4.3).
//!
//! The engine accumulates primitive events into leaf buffers during **idle
//! rounds** and runs **assembly rounds** only when the pattern's trigger
//! (final) event class has at least one unconsumed instance:
//!
//! 1. a batch of primitive events is routed into leaf buffers (single-class
//!    predicates applied at intake — the §4.1 push-down),
//! 2. if no trigger-class instance is waiting, keep accumulating,
//! 3. otherwise compute the **earliest allowed timestamp** (EAT): the
//!    earliest unconsumed end-timestamp among trigger buffers minus the
//!    window, and push it down to every buffer,
//! 4. assemble events bottom-up, materializing intermediate results in node
//!    buffers and emitting complete composites at the root.

use std::sync::Arc;

use zstream_events::{
    EventBatch, EventRef, Record, Snapshot, SnapshotError, SnapshotReader, SnapshotResult,
    SnapshotWriter, Ts,
};
use zstream_lang::{AnalyzedQuery, TypedExpr};

use crate::intake::{Admission, CompiledIntake, IndexLink, OneClassBinding, SharedPredIndex};
use crate::metrics::EngineMetrics;
use crate::obs::EngineObs;
use crate::physical::plan::PhysicalPlan;

/// A running query: a physical plan plus routing and round bookkeeping.
#[derive(Debug)]
pub struct Engine {
    // zlint::allow(snapshot, "restore_snapshot receives the analyzed query from the caller; the checkpoint carries only round state")
    aq: Arc<AnalyzedQuery>,
    plan: PhysicalPlan,
    /// Per-class intake predicates (analyzed single-class predicates plus
    /// any route-by-field equality added by the builder), compiled once and
    /// shared with sibling partition engines.
    // zlint::allow(snapshot, "restore_snapshot receives the intake predicates from the caller; not checkpoint state")
    intake: Arc<CompiledIntake>,
    /// The predicate index intake kernels read: a caller's shared index, or
    /// a private one.
    // zlint::allow(snapshot, "wiring re-stamped by the caller after restore, not checkpoint state")
    index: IndexLink,
    /// Per-batch admission scratch (see [`Admission`]).
    // zlint::allow(snapshot, "scratch space: rebuilt empty, repopulated per batch")
    admission: Admission,
    /// Events buffered until a full batch is formed (push-one API).
    pending: Vec<EventRef>,
    // zlint::allow(snapshot, "restore_snapshot receives the batch size from the caller; not checkpoint state")
    batch_size: usize,
    watermark: Ts,
    metrics: EngineMetrics,
    /// Per-class counters for the adaptive statistics sampler (§5.3).
    offered: Vec<u64>,
    admitted: Vec<u64>,
    /// Observability instruments; `None` (the default) records nothing.
    // zlint::allow(snapshot, "instruments are process-local handles, re-attached via set_obs after restore")
    obs: Option<EngineObs>,
}

impl Engine {
    /// Creates an engine over an analyzed query, plan, per-class intake
    /// predicates and batch size.
    pub fn new(
        aq: Arc<AnalyzedQuery>,
        plan: PhysicalPlan,
        intake: Vec<Vec<TypedExpr>>,
        batch_size: usize,
    ) -> Engine {
        let intake = Arc::new(CompiledIntake::new(&aq, intake));
        Engine::with_intake(aq, plan, intake, batch_size)
    }

    /// [`Engine::new`] over an already-compiled intake (partition engines
    /// share their query's).
    pub(crate) fn with_intake(
        aq: Arc<AnalyzedQuery>,
        plan: PhysicalPlan,
        intake: Arc<CompiledIntake>,
        batch_size: usize,
    ) -> Engine {
        assert!(batch_size >= 1);
        let n = aq.num_classes();
        Engine {
            aq,
            plan,
            intake,
            index: IndexLink::default(),
            admission: Admission::default(),
            pending: Vec::with_capacity(batch_size),
            batch_size,
            watermark: 0,
            metrics: EngineMetrics::default(),
            offered: vec![0; n],
            admitted: vec![0; n],
            obs: None,
        }
    }

    /// The analyzed query.
    pub fn analyzed(&self) -> &Arc<AnalyzedQuery> {
        &self.aq
    }

    /// The current physical plan.
    pub fn plan(&self) -> &PhysicalPlan {
        &self.plan
    }

    /// Metrics snapshot. Process-global values (symbol-table stats, the
    /// reorder peak) are **not** stamped here — they belong to the scrape
    /// layer (`zstream_obs` gauges / the runtime's report), not to
    /// per-engine counters, so merging engines never double-counts them.
    pub fn metrics(&self) -> EngineMetrics {
        self.metrics
    }

    /// Attaches observability instruments. Per-query counters, the
    /// assembly-round histogram and batch-level trace events flow into
    /// the handles from this point on.
    pub fn set_obs(&mut self, obs: EngineObs) {
        self.obs = Some(obs);
    }

    /// The attached instruments, if any.
    pub fn obs(&self) -> Option<&EngineObs> {
        self.obs.as_ref()
    }

    /// Mutable access to metrics (the adaptive controller records replans).
    pub fn metrics_mut(&mut self) -> &mut EngineMetrics {
        &mut self.metrics
    }

    /// Subscribes this engine to a [`SharedPredIndex`]: `slots` must be the
    /// subscription returned by [`SharedPredIndex::register`] for this
    /// engine's intake predicates (one slot per distinct column kernel).
    /// From then on, [`Engine::push_columns_shared`] given that index
    /// evaluates each distinct kernel at most once per batch *across every
    /// subscribed engine* instead of once per engine.
    pub fn set_shared_slots(&mut self, slots: Arc<Vec<u32>>) {
        debug_assert_eq!(
            slots.len(),
            self.intake.num_kernels(),
            "subscription arity must match the engine's distinct kernels"
        );
        self.index.subscribe(slots);
    }

    /// Latest event timestamp seen.
    pub fn watermark(&self) -> Ts {
        self.watermark
    }

    /// Per-class (offered, admitted) intake counters since engine start.
    pub fn class_counters(&self) -> (&[u64], &[u64]) {
        (&self.offered, &self.admitted)
    }

    /// Pushes a single event; runs a round when a full batch accumulated.
    /// Returns any matches produced.
    pub fn push(&mut self, event: EventRef) -> Vec<Record> {
        self.pending.push(event);
        if self.pending.len() >= self.batch_size {
            let mut batch = std::mem::take(&mut self.pending);
            let out = self.process_batch(&batch);
            // Keep the pending buffer's allocation for the next batch.
            batch.clear();
            self.pending = batch;
            out
        } else {
            Vec::new()
        }
    }

    /// Routes a whole batch and runs one round.
    pub fn push_batch(&mut self, events: &[EventRef]) -> Vec<Record> {
        if !self.pending.is_empty() {
            let mut batch = std::mem::take(&mut self.pending);
            batch.extend_from_slice(events);
            self.process_batch(&batch)
        } else {
            self.process_batch(events)
        }
    }

    /// Routes a whole **columnar** batch and runs one round — the
    /// vectorized intake path. Single-class predicates (§4.1 push-down)
    /// evaluate column-wise over the batch, and only the surviving rows
    /// materialize leaf records; admitted/offered accounting, watermark and
    /// round semantics are identical to [`Engine::push_batch`] over the same
    /// rows.
    pub fn push_columns(&mut self, batch: &EventBatch) -> Vec<Record> {
        self.push_columns_shared(batch, None)
    }

    /// [`Engine::push_columns`] through a [`SharedPredIndex`] this engine
    /// subscribed to ([`Engine::set_shared_slots`]): kernels whose bitmap
    /// is already valid for this batch are reused instead of re-evaluated,
    /// and ones this engine evaluates become valid for later subscribers.
    /// `None`, or an engine that never subscribed, evaluates through the
    /// engine's private index. Match output is identical either way — only
    /// the evaluation count changes.
    pub fn push_columns_shared(
        &mut self,
        batch: &EventBatch,
        shared: Option<&mut SharedPredIndex>,
    ) -> Vec<Record> {
        self.push_selected(batch, None, shared)
    }

    /// Selection-vector variant of [`Engine::push_columns`]: routes only the
    /// given (ascending) `rows` of the shared batch and runs one round. The
    /// batch is shared storage, never copied, and the handles materialized
    /// for surviving rows point into it (identities preserved). Semantics
    /// are identical to `push_columns` over a batch of exactly the selected
    /// rows. Kernels still evaluate whole columns, so a call costs
    /// O(batch); a [`crate::PartitionedEngine`] fans one evaluation out to
    /// all its keys instead.
    pub fn push_rows(&mut self, batch: &EventBatch, rows: &[u32]) -> Vec<Record> {
        self.push_selected(batch, Some(rows), None)
    }

    /// Routes `input` (`None`: every row) of a columnar batch and runs one
    /// round.
    fn push_selected(
        &mut self,
        batch: &EventBatch,
        input: Option<&[u32]>,
        shared: Option<&mut SharedPredIndex>,
    ) -> Vec<Record> {
        self.route_pending();
        self.route_columns(batch, input, shared);
        let mut out = Vec::new();
        self.round(&mut out);
        out
    }

    /// Partition-key intake: routes `rows` (ascending, non-empty) of a
    /// batch whose admission the partitioned engine already evaluated
    /// once for all its keys, then runs one round, appending its matches
    /// to `out`. Costs O(`rows`): each row tests its admission bits.
    pub(crate) fn push_admitted(
        &mut self,
        batch: &EventBatch,
        rows: &[u32],
        admission: &Admission,
        out: &mut Vec<Record>,
    ) {
        self.route_pending();
        self.admit_rows(batch, Some(rows), admission);
        self.round(out);
    }

    /// Routes events left pending by the push-one API ahead of a batch.
    fn route_pending(&mut self) {
        let pending = std::mem::take(&mut self.pending);
        for e in &pending {
            self.route(e);
        }
    }

    /// Flushes any buffered events and forces a final assembly round.
    pub fn flush(&mut self) -> Vec<Record> {
        let batch = std::mem::take(&mut self.pending);
        self.process_batch(&batch)
    }

    fn process_batch(&mut self, events: &[EventRef]) -> Vec<Record> {
        for e in events {
            self.route(e);
        }
        let mut out = Vec::new();
        self.round(&mut out);
        out
    }

    /// Column-wise intake of one batch (§4.1 push-down over columns).
    /// `input` restricts intake to those (ascending) rows of the batch;
    /// `None` means every row. Each distinct kernel evaluates once over its
    /// whole column through the predicate index, class bitmaps AND
    /// together, and only the survivors materialize.
    fn route_columns(
        &mut self,
        batch: &EventBatch,
        input: Option<&[u32]>,
        shared: Option<&mut SharedPredIndex>,
    ) {
        if input.map_or(batch.is_empty(), <[u32]>::is_empty) {
            return;
        }
        let (index, slots) = self.index.resolve(shared, &self.intake);
        let mut admission = std::mem::take(&mut self.admission);
        let cost = self.intake.admit(batch, input, index, slots, &mut admission);
        self.admit_rows(batch, input, &admission);
        self.admission = admission;
        if let Some(obs) = &self.obs {
            obs.kernel_rows_evaluated.add(cost.kernel_rows);
            obs.kernel_fallback_rows.add(cost.fallback_rows);
        }
    }

    /// Routes the non-empty `input` (`None`: every row) of a batch whose
    /// admission is evaluated: checks time order, advances the watermark,
    /// and materializes the admitted rows into their classes' leaf buffers
    /// in the same class-then-row order as the per-event path fills them,
    /// counting offered and admitted rows.
    fn admit_rows(&mut self, batch: &EventBatch, input: Option<&[u32]>, admission: &Admission) {
        let ts_col = batch.ts_column();
        let (first, last, n_input) = match input {
            None => (0, batch.len() - 1, batch.len()),
            Some(rows) => (rows[0] as usize, rows[rows.len() - 1] as usize, rows.len()),
        };
        // Hard check, not a debug assert: arrival-order (unsorted) batches
        // are an ordinary product of the events API now and must never feed
        // an engine directly — they silently corrupt window semantics. The
        // flag is O(1); a reorder stage upstream is the supported path.
        assert!(
            batch.is_sorted() && ts_col[first] >= self.watermark,
            "engine input must be time-ordered: place a reorder stage \
             (events::ColumnarReorder / RuntimeBuilder::slack) in front of \
             disordered streams"
        );
        debug_assert!(
            input.is_none_or(|rows| rows.windows(2).all(|w| w[0] < w[1])),
            "selection must ascend"
        );
        self.metrics.events_in += n_input as u64;
        self.watermark = self.watermark.max(ts_col[last]);
        for &c in &admission.classes {
            let bits = &admission.rows[c];
            let buf = &mut self.plan.nodes[self.plan.leaf_of_class[c]].buf;
            let mut admitted = 0u64;
            let mut admit = |row: usize| {
                buf.push(Record::primitive(batch.event(row)));
                admitted += 1;
            };
            // A selection tests its own rows: the admission may also cover
            // rows routed elsewhere (a partitioned engine's other keys).
            match input {
                None => bits.ones().for_each(&mut admit),
                Some(rows) => {
                    rows.iter().map(|&r| r as usize).filter(|&r| bits.get(r)).for_each(&mut admit)
                }
            }
            self.offered[c] += n_input as u64;
            self.admitted[c] += admitted;
        }
        let admitted_any = match input {
            None => admission.union.count(),
            Some(rows) => rows.iter().filter(|&&r| admission.union.get(r as usize)).count(),
        } as u64;
        self.metrics.events_admitted += admitted_any;
        if let Some(obs) = &self.obs {
            obs.admitted.add(admitted_any);
        }
    }

    /// Routes one event to every class whose schema matches and whose
    /// intake predicates accept it (§4.1: single-class predicates prevent
    /// irrelevant events from entering leaf buffers).
    fn route(&mut self, event: &EventRef) {
        self.metrics.events_in += 1;
        debug_assert!(event.ts() >= self.watermark, "input must be time-ordered");
        self.watermark = self.watermark.max(event.ts());
        let mut admitted_any = false;
        let event_schema = event.schema().name_sym();
        for c in 0..self.aq.num_classes() {
            if self.intake.class_schema[c] != event_schema {
                continue;
            }
            self.offered[c] += 1;
            let binding = OneClassBinding { class: c, event };
            if self.intake.exprs[c]
                .iter()
                .all(|p| matches!(p.eval(&binding), Ok(zstream_events::Value::Bool(true))))
            {
                self.admitted[c] += 1;
                admitted_any = true;
                let leaf = self.plan.leaf_of_class[c];
                self.plan.nodes[leaf].buf.push(Record::primitive(event.clone()));
            }
        }
        if admitted_any {
            self.metrics.events_admitted += 1;
        }
        if let Some(obs) = &self.obs {
            if admitted_any {
                obs.admitted.inc();
            }
            obs.kernel_fallback_rows.inc();
        }
    }

    /// One round: idle if no trigger instance is waiting, otherwise compute
    /// the EAT and assemble, appending the matches to `out`.
    fn round(&mut self, out: &mut Vec<Record>) {
        let Some(earliest) = self.earliest_trigger_end() else {
            self.metrics.idle_rounds += 1;
            return;
        };
        let eat = earliest.saturating_sub(self.plan.window);
        self.metrics.assembly_rounds += 1;
        let start = self.obs.as_ref().map(|_| std::time::Instant::now());
        let before = out.len();
        self.plan.assemble(eat, out);
        let matches = (out.len() - before) as u64;
        self.metrics.matches_out += matches;
        self.metrics.sample_memory(self.plan.total_bytes());
        if let (Some(obs), Some(start)) = (&self.obs, start) {
            let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            obs.record_round(self.watermark, ns, matches);
        }
    }

    /// Earliest unconsumed end timestamp across trigger-class leaf buffers
    /// (the EAT base of §4.3).
    fn earliest_trigger_end(&self) -> Option<Ts> {
        self.plan
            .trigger_classes
            .iter()
            .filter_map(|c| {
                self.plan.nodes[self.plan.leaf_of_class[*c]].buf.earliest_unconsumed_end()
            })
            .min()
    }

    /// Canonical signature of an output record for result comparison: per
    /// pattern class, the identities (Arc pointers) of the bound events.
    /// Unbound classes yield empty lists; negated classes are always empty
    /// (NSEQ carries the negating event in its slot for guard evaluation,
    /// but it is bookkeeping, not part of the match — RETURN excludes it).
    pub fn record_signature(&self, rec: &Record) -> Vec<Vec<usize>> {
        let root = &self.plan.nodes[self.plan.root];
        let mut out = vec![Vec::new(); self.aq.num_classes()];
        for (slot_idx, class) in root.classes.iter().enumerate() {
            if self.aq.classes[*class].negated {
                continue;
            }
            out[*class] =
                rec.slot(slot_idx).events().iter().map(|e| e.identity() as usize).collect();
        }
        out
    }

    /// Formats an output record according to the query's RETURN clause.
    pub fn format_match(&self, rec: &Record) -> String {
        use std::fmt::Write;
        use zstream_lang::TypedReturn;
        let root = &self.plan.nodes[self.plan.root];
        let binding = crate::physical::binding::RecordBinding { rec, map: &root.map };
        let mut s = format!("[{}..{}]", rec.start_ts(), rec.end_ts());
        for r in &self.aq.returns {
            match r {
                TypedReturn::Class(c) => {
                    let ev = root
                        .map
                        .slot_of(*c)
                        .map(|p| rec.slot(p))
                        .map(|slot| match slot.events() {
                            [] => "—".to_string(),
                            [e] => e.to_string(),
                            group => format!("{} events", group.len()),
                        })
                        .unwrap_or_else(|| "—".to_string());
                    let _ = write!(s, " {}={}", self.aq.classes[*c].name, ev);
                }
                TypedReturn::Agg(func, c, field) => {
                    let expr = TypedExpr::Agg { func: *func, class: *c, field: *field };
                    let v = expr
                        .eval(&binding)
                        .map(|v| v.to_string())
                        .unwrap_or_else(|_| "?".to_string());
                    let _ = write!(s, " {func}({})={v}", self.aq.classes[*c].name);
                }
            }
        }
        s
    }

    /// Replaces the physical plan, transplanting leaf buffers. Trigger-class
    /// cursors are preserved (already-consumed final events must not emit
    /// again); every other leaf is rewound so the new plan rebuilds its
    /// intermediate state from retained history — the §5.3 switch protocol.
    pub fn install_plan(&mut self, mut new_plan: PhysicalPlan) {
        let mut leaves = self.plan.take_leaf_buffers();
        for (class, buf) in &mut leaves {
            if !self.plan.trigger_classes.contains(class) {
                buf.rewind();
            }
        }
        new_plan.reset_for_switch(leaves);
        self.plan = new_plan;
        self.metrics.plan_switches += 1;
    }

    /// Rebuilds an engine from a [`Snapshot`] stream (the public form is
    /// [`crate::CompiledParts::restore_engine`]). `aq`, `plan` and `intake`
    /// must come from compiling the same query with the same plan
    /// configuration the snapshotted engine ran (checkpoints carry state,
    /// not code — the caller re-derives the plan and this injects the
    /// buffers, cursors, watermark and counters into it). Hash indexes are
    /// *not* snapshotted: they are derived state and re-sync incrementally
    /// from the restored buffers on the next probe.
    pub(crate) fn restore_snapshot(
        aq: Arc<AnalyzedQuery>,
        plan: PhysicalPlan,
        intake: Arc<CompiledIntake>,
        batch_size: usize,
        r: &mut SnapshotReader<'_>,
    ) -> SnapshotResult<Engine> {
        let mut engine = Engine::with_intake(aq, plan, intake, batch_size);
        engine.watermark = r.u64()?;
        engine.metrics = EngineMetrics::restore_snapshot(r)?;
        let n_classes = engine.aq.num_classes();
        let read_counters = |r: &mut SnapshotReader<'_>| -> SnapshotResult<Vec<u64>> {
            let n = r.len()?;
            if n != n_classes {
                return Err(SnapshotError::Corrupt(format!(
                    "class counter arity {n} does not match query ({n_classes} classes)"
                )));
            }
            (0..n).map(|_| r.u64()).collect()
        };
        engine.offered = read_counters(r)?;
        engine.admitted = read_counters(r)?;
        let n_pending = r.len()?;
        engine.pending = (0..n_pending).map(|_| r.event()).collect::<SnapshotResult<_>>()?;
        let n_nodes = r.len()?;
        if n_nodes != engine.plan.nodes.len() {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot has {n_nodes} plan nodes, compiled plan has {}",
                engine.plan.nodes.len()
            )));
        }
        for node in &mut engine.plan.nodes {
            let n_recs = r.len()?;
            for _ in 0..n_recs {
                node.buf.push(r.record()?);
            }
            let consumed = usize::try_from(r.u64()?)
                .map_err(|_| SnapshotError::Corrupt("consumed cursor exceeds usize".into()))?;
            if consumed > node.buf.len() {
                return Err(SnapshotError::Corrupt(format!(
                    "consumed cursor {consumed} past buffer length {}",
                    node.buf.len()
                )));
            }
            node.buf.set_consumed(consumed);
        }
        Ok(engine)
    }
}

impl Snapshot for Engine {
    /// Serializes the evolving state: watermark, metrics, per-class intake
    /// counters, events pending a full batch, and every node buffer with
    /// its consumed cursor. The query, plan shape and intake predicates are
    /// **not** written — restoring re-derives them from
    /// the compiled query, which also makes the snapshot independent of
    /// process-local symbol ids and compiled-predicate layout.
    fn write_snapshot(&self, w: &mut SnapshotWriter) {
        w.u64(self.watermark);
        self.metrics.write_snapshot(w);
        w.len(self.offered.len());
        for &c in &self.offered {
            w.u64(c);
        }
        w.len(self.admitted.len());
        for &c in &self.admitted {
            w.u64(c);
        }
        w.len(self.pending.len());
        for e in &self.pending {
            w.event(e);
        }
        w.len(self.plan.nodes.len());
        for node in &self.plan.nodes {
            w.len(node.buf.len());
            for rec in node.buf.iter() {
                w.record(rec);
            }
            w.len(node.buf.consumed());
        }
    }
}
