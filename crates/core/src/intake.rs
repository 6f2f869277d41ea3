//! Compiled intake predicates and the predicate index they evaluate
//! through.
//!
//! The §4.1 push-down applies each single-class intake predicate once, as
//! events enter the leaf buffers. `CompiledIntake` compiles a query's
//! per-class predicates once: a comparison of one attribute with a literal
//! becomes a column kernel (`IntakePred`) that evaluates a whole batch
//! column into a bitmap; anything else stays a row predicate, tested only
//! on the rows the kernels before it kept. A query's distinct kernels are
//! deduplicated, so a kernel shared by several classes evaluates once per
//! batch.
//!
//! Every kernel evaluates through a [`SharedPredIndex`]: one per shard in
//! the sharded runtime, shared by every query the shard hosts, or a private
//! one when the caller shares none. The index keys a kernel by
//! `(operator tag, field index, literal)` and keeps one bitmap per key, so
//! each distinct kernel evaluates **once per batch per index** and fans
//! out to every subscriber. Sharing is sound because each bitmap is
//! evaluated over one batch's columns: two kernels with equal keys read the
//! same column of the same batch and decide identically on every row, no
//! matter which query or class asked for them.
//!
//! This module is on the per-batch hot path (zlint `locks` applies): the
//! per-batch work is bitmap AND/popcount plus one `HashMap`-free slot
//! lookup per kernel — registration (the only map access) happens on the
//! cold create/build path.

use std::collections::HashMap;
use std::sync::Arc;

use zstream_events::kernel::{filter_cmp, filter_str_eq, Bitmap, CmpOp};
use zstream_events::{EventBatch, EventRef, HashableValue, Sym, Value};
use zstream_lang::{AnalyzedQuery, BinOp, ClassId, EventBinding, TypedExpr};

/// Binding of a single event to a single class (intake predicates).
pub(crate) struct OneClassBinding<'a> {
    pub(crate) class: ClassId,
    pub(crate) event: &'a EventRef,
}

impl EventBinding for OneClassBinding<'_> {
    fn event(&self, class: ClassId) -> Option<&EventRef> {
        (class == self.class).then_some(self.event)
    }

    fn closure(&self, class: ClassId) -> &[EventRef] {
        if class == self.class {
            std::slice::from_ref(self.event)
        } else {
            &[]
        }
    }
}

/// Index key of a column kernel: `(operator tag, field index, literal)`.
type KernelKey = (u8, usize, HashableValue);

/// One intake predicate compiled to a column kernel. Evaluating it over a
/// column is *exactly* equivalent to evaluating the original [`TypedExpr`]
/// per event — it only skips the expression-tree walk.
#[derive(Debug, Clone)]
pub(crate) enum IntakePred {
    /// `Attr = 'lit'` over a string column: a symbol-id compare per row.
    StrEq {
        /// Field (column) index within the class schema.
        field: usize,
        /// Interned literal.
        sym: Sym,
    },
    /// `Attr op lit` (either operand order, op flipped accordingly),
    /// decided by [`zstream_events::kernel::cmp_value`] semantics.
    CmpLit {
        /// Field (column) index within the class schema.
        field: usize,
        /// Comparison operator, attribute on the left.
        op: CmpOp,
        /// Literal operand.
        lit: Value,
    },
}

impl IntakePred {
    /// Compiles `expr` to a column kernel when it compares one attribute
    /// with a literal; `None` for anything else (a row predicate).
    pub(crate) fn compile(expr: &TypedExpr) -> Option<IntakePred> {
        let TypedExpr::Binary(op, l, r) = expr else { return None };
        let op = match op {
            BinOp::Eq => CmpOp::Eq,
            BinOp::Ne => CmpOp::Ne,
            BinOp::Lt => CmpOp::Lt,
            BinOp::Le => CmpOp::Le,
            BinOp::Gt => CmpOp::Gt,
            BinOp::Ge => CmpOp::Ge,
            _ => return None,
        };
        let (field, op, lit) = match (l.as_ref(), r.as_ref()) {
            (TypedExpr::Attr { field, .. }, TypedExpr::Lit(lit)) => (*field, op, *lit),
            (TypedExpr::Lit(lit), TypedExpr::Attr { field, .. }) => {
                let flipped = match op {
                    CmpOp::Lt => CmpOp::Gt,
                    CmpOp::Le => CmpOp::Ge,
                    CmpOp::Gt => CmpOp::Lt,
                    CmpOp::Ge => CmpOp::Le,
                    symmetric => symmetric,
                };
                (*field, flipped, *lit)
            }
            _ => return None,
        };
        Some(match (op, lit) {
            (CmpOp::Eq, Value::Str(sym)) => IntakePred::StrEq { field, sym },
            _ => IntakePred::CmpLit { field, op, lit },
        })
    }

    /// Index key: two kernels with equal keys decide identically on every
    /// row of any batch (`StrEq` compares interned ids; `CmpLit` literals
    /// canonicalize via [`Value::hash_key`], which agrees exactly with
    /// [`Value::loose_eq`]).
    fn key(&self) -> KernelKey {
        match self {
            IntakePred::StrEq { field, sym } => (0, *field, HashableValue::Str(*sym)),
            IntakePred::CmpLit { field, op, lit } => (1 + *op as u8, *field, lit.hash_key()),
        }
    }

    /// Evaluates the kernel over its whole column into `out`.
    fn eval_column(&self, batch: &EventBatch, out: &mut Bitmap) {
        match self {
            IntakePred::StrEq { field, sym } => filter_str_eq(batch.column(*field), *sym, out),
            IntakePred::CmpLit { field, op, lit } => {
                filter_cmp(batch.column(*field), *op, lit, out);
            }
        }
    }
}

/// How one intake conjunct of a class evaluates.
#[derive(Debug)]
enum Conjunct {
    /// Column kernel: index into the query's distinct kernels.
    Kernel(usize),
    /// Row predicate, tested per surviving row against a one-class binding.
    Row(TypedExpr),
}

/// Compiles a query's per-class intake predicates: per class its conjuncts,
/// plus the query's distinct kernels in first-appearance order (classes in
/// order, predicates in order). The one dedup both [`CompiledIntake::new`]
/// and [`SharedPredIndex::register`] use, so a subscription lines up with
/// the kernels an engine evaluates.
fn compile_conjuncts(intake: &[Vec<TypedExpr>]) -> (Vec<Vec<Conjunct>>, Vec<IntakePred>) {
    let mut kernels = Vec::new();
    let mut seen: HashMap<KernelKey, usize> = HashMap::new();
    let conjuncts = intake
        .iter()
        .map(|preds| {
            preds
                .iter()
                .map(|expr| match IntakePred::compile(expr) {
                    Some(kernel) => {
                        Conjunct::Kernel(*seen.entry(kernel.key()).or_insert_with(|| {
                            kernels.push(kernel);
                            kernels.len() - 1
                        }))
                    }
                    None => Conjunct::Row(expr.clone()),
                })
                .collect()
        })
        .collect();
    (conjuncts, kernels)
}

/// One query's intake predicates, compiled once and shared (`Arc`) by every
/// engine instantiated from them — a partitioned engine's per-key engines
/// included.
#[derive(Debug)]
pub(crate) struct CompiledIntake {
    /// Per class, the predicates as written: the per-event record path
    /// evaluates these.
    pub(crate) exprs: Vec<Vec<TypedExpr>>,
    /// Per class, interned schema name (schema matching is an integer
    /// compare).
    pub(crate) class_schema: Vec<Sym>,
    /// Per class, the same predicates compiled.
    conjuncts: Vec<Vec<Conjunct>>,
    /// The query's distinct kernels; a subscription to a
    /// [`SharedPredIndex`] lists one slot per entry.
    kernels: Vec<IntakePred>,
}

impl CompiledIntake {
    /// Compiles `exprs`, the per-class intake predicates of `aq`.
    pub(crate) fn new(aq: &AnalyzedQuery, exprs: Vec<Vec<TypedExpr>>) -> CompiledIntake {
        let (conjuncts, kernels) = compile_conjuncts(&exprs);
        let class_schema = aq.classes.iter().map(|c| c.schema.name_sym()).collect();
        CompiledIntake { exprs, class_schema, conjuncts, kernels }
    }

    /// Number of distinct kernels: the arity of a subscription.
    pub(crate) fn num_kernels(&self) -> usize {
        self.kernels.len()
    }

    /// Evaluates one batch's admission into `out`: for every class whose
    /// schema matches the batch, the rows of `input` (`None`: every row)
    /// that pass the class's whole conjunction, and their union. Kernels
    /// AND the bitmap `index` holds for them (`slots[k]` is kernel `k`'s
    /// slot); row predicates then test only the surviving rows.
    pub(crate) fn admit(
        &self,
        batch: &EventBatch,
        input: Option<&[u32]>,
        index: &mut SharedPredIndex,
        slots: &[u32],
        out: &mut Admission,
    ) -> IntakeCost {
        let n = batch.len();
        let schema = batch.schema().name_sym();
        let mut cost = IntakeCost::default();
        out.classes.clear();
        out.rows.resize_with(self.conjuncts.len(), Bitmap::new);
        out.union.reset(n, false);
        for (c, conjuncts) in self.conjuncts.iter().enumerate() {
            if self.class_schema[c] != schema {
                continue;
            }
            let acc = &mut out.rows[c];
            match input {
                None => acc.reset(n, true),
                Some(rows) => {
                    acc.reset(n, false);
                    acc.set_rows(rows);
                }
            }
            for conjunct in conjuncts {
                if !acc.any() {
                    break;
                }
                match conjunct {
                    Conjunct::Kernel(k) => {
                        let (bitmap, evaluated) =
                            index.bitmap_for(slots[*k], &self.kernels[*k], batch);
                        if evaluated {
                            cost.kernel_rows += n as u64;
                        }
                        acc.and(bitmap);
                    }
                    Conjunct::Row(expr) => {
                        cost.fallback_rows += acc.count() as u64;
                        acc.retain(|row| {
                            let event = batch.event(row);
                            let binding = OneClassBinding { class: c, event: &event };
                            matches!(expr.eval(&binding), Ok(Value::Bool(true)))
                        });
                    }
                }
            }
            out.union.or(acc);
            out.classes.push(c);
        }
        cost
    }
}

/// One batch's intake decisions for a query (see [`CompiledIntake::admit`]).
/// Bitmaps are reused from batch to batch; contents are meaningful only
/// until the next `admit`.
#[derive(Debug, Default)]
pub(crate) struct Admission {
    /// Classes whose schema matches the batch, in class order.
    pub(crate) classes: Vec<ClassId>,
    /// Per class, the admitted rows (valid for the entries of `classes`).
    pub(crate) rows: Vec<Bitmap>,
    /// Union of the admitted rows over `classes`.
    pub(crate) union: Bitmap,
}

/// Rows one [`CompiledIntake::admit`] call paid for.
#[derive(Debug, Default)]
pub(crate) struct IntakeCost {
    /// Rows covered by kernels this call evaluated (bitmaps another
    /// subscriber already evaluated this batch are free).
    pub(crate) kernel_rows: u64,
    /// Rows a row predicate was tested on.
    pub(crate) fallback_rows: u64,
}

/// Where a query's kernels read their bitmaps: a caller's shared index
/// through the subscription [`SharedPredIndex::register`] returned for the
/// query, or — when the caller passes no index, or the query never
/// subscribed — a private index created on first use.
#[derive(Debug, Default)]
pub(crate) struct IndexLink {
    shared: Option<Arc<Vec<u32>>>,
    private: Option<(SharedPredIndex, Vec<u32>)>,
}

impl IndexLink {
    /// Subscribes to a shared index: `slots` is what registering the
    /// query's intake there returned.
    pub(crate) fn subscribe(&mut self, slots: Arc<Vec<u32>>) {
        self.shared = Some(slots);
    }

    /// The index and subscription to evaluate one batch through. A private
    /// index starts its new batch here; advancing a shared one is its
    /// owner's job ([`SharedPredIndex::begin_batch`]).
    pub(crate) fn resolve<'a>(
        &'a mut self,
        shared: Option<&'a mut SharedPredIndex>,
        intake: &CompiledIntake,
    ) -> (&'a mut SharedPredIndex, &'a [u32]) {
        if let (Some(index), Some(slots)) = (shared, self.shared.as_deref()) {
            return (index, slots);
        }
        let (index, slots) = self.private.get_or_insert_with(|| {
            let mut index = SharedPredIndex::new();
            let slots = index.subscribe(&intake.kernels);
            (index, slots)
        });
        index.begin_batch();
        (index, slots)
    }
}

/// Predicate index: each *distinct* column kernel across every registered
/// query evaluates once per batch into a bitmap that all subscribers AND
/// into their admissions.
///
/// The index stores no predicates — only the map from kernel key to a
/// bitmap slot. The first subscriber that needs a slot in a batch
/// evaluates its own compiled kernel into the bitmap (kernels with equal
/// keys decide identically on every row, so *which* subscriber's copy runs
/// is unobservable); later subscribers reuse the bitmap for free. Callers
/// mark batch boundaries with [`SharedPredIndex::begin_batch`].
///
/// One index serves one evaluation thread (in the sharded runtime: one per
/// shard, owned by the shard loop) — no locking, per the hot-path rule.
#[derive(Debug, Default)]
pub struct SharedPredIndex {
    /// Kernel key → bitmap slot. Touched only at registration.
    slots: HashMap<KernelKey, u32>,
    /// One bitmap per distinct kernel.
    pred: Vec<Bitmap>,
    /// Which bitmaps are valid for the batch currently being evaluated.
    done: Vec<bool>,
}

impl SharedPredIndex {
    /// An empty index.
    pub fn new() -> SharedPredIndex {
        SharedPredIndex::default()
    }

    /// Registers one query's per-class intake predicates and returns the
    /// query's **subscription**: for each of the query's distinct kernels
    /// (classes in order, predicates in order, first appearance of each
    /// key), the bitmap slot to read. Feed the result to
    /// [`crate::Engine::set_shared_slots`] or
    /// [`crate::PartitionedEngine::set_shared_slots`].
    ///
    /// Registration is idempotent per key: queries sharing conjuncts map to
    /// the same slot, which is the whole point. Dropped queries' slots stay
    /// allocated (a slot is one `Bitmap` — negligible; reclaiming would
    /// re-index every live subscription).
    pub fn register(&mut self, intake: &[Vec<TypedExpr>]) -> Vec<u32> {
        self.subscribe(&compile_conjuncts(intake).1)
    }

    /// [`SharedPredIndex::register`] over already-compiled kernels.
    fn subscribe(&mut self, kernels: &[IntakePred]) -> Vec<u32> {
        kernels
            .iter()
            .map(|kernel| {
                let next = self.pred.len() as u32;
                let slot = *self.slots.entry(kernel.key()).or_insert(next);
                if slot == next {
                    self.pred.push(Bitmap::new());
                    self.done.push(false);
                }
                slot
            })
            .collect()
    }

    /// Marks a batch boundary: every bitmap becomes stale and the next
    /// subscriber to need it re-evaluates. Call once per incoming batch,
    /// before any subscriber runs.
    pub fn begin_batch(&mut self) {
        self.done.iter_mut().for_each(|d| *d = false);
    }

    /// Number of distinct kernels registered.
    pub fn num_slots(&self) -> usize {
        self.pred.len()
    }

    /// The bitmap for `slot`, evaluating `pred` into it first if no
    /// subscriber has needed it yet this batch. Returns the bitmap and
    /// whether this call paid the evaluation (for the caller's
    /// rows-evaluated accounting).
    #[inline]
    fn bitmap_for(&mut self, slot: u32, pred: &IntakePred, batch: &EventBatch) -> (&Bitmap, bool) {
        let s = slot as usize;
        let evaluated = if self.done[s] {
            false
        } else {
            pred.eval_column(batch, &mut self.pred[s]);
            self.done[s] = true;
            true
        };
        (&self.pred[s], evaluated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineBuilder;

    fn intake_of(src: &str) -> Vec<Vec<TypedExpr>> {
        let parts = EngineBuilder::parse(src).unwrap().stock_routing().compile().unwrap();
        parts.intake.clone()
    }

    #[test]
    fn overlapping_queries_share_slots() {
        let mut idx = SharedPredIndex::new();
        let a = idx.register(&intake_of("PATTERN IBM; Sun WITHIN 10"));
        let b = idx.register(&intake_of("PATTERN IBM; Oracle WITHIN 10"));
        // Both queries carry the name='IBM' conjunct: the slot is shared.
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 2);
        assert_eq!(a[0], b[0]);
        assert_ne!(a[1], b[1]);
        assert_eq!(idx.num_slots(), 3);
    }

    #[test]
    fn identical_queries_collapse_to_one_slot_set() {
        let mut idx = SharedPredIndex::new();
        let a = idx.register(&intake_of("PATTERN IBM; Sun WITHIN 10"));
        let b = idx.register(&intake_of("PATTERN IBM; Sun WITHIN 10"));
        assert_eq!(a, b);
        assert_eq!(idx.num_slots(), 2);
    }

    #[test]
    fn subscription_matches_engine_dedup_order() {
        // A query whose classes repeat a conjunct (`price > 10` appears in
        // both classes' intake): the subscription has one entry per
        // *distinct* key, in first-appearance order — the same order
        // `CompiledIntake` lists the kernels an engine evaluates.
        let mut idx = SharedPredIndex::new();
        let sub = idx.register(&intake_of(
            "PATTERN IBM; Sun WHERE IBM.price > 10 AND Sun.price > 10 WITHIN 10",
        ));
        // Distinct keys: name='IBM', price>10, name='Sun' — the repeated
        // price conjunct collapses to one subscription entry.
        assert_eq!(sub.len(), 3);
        assert_eq!(idx.num_slots(), 3);
    }
}
