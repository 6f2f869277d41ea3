//! Operator evaluation (§4.4).
//!
//! Each assembly round evaluates every internal node bottom-up (the node
//! arena is built children-first, so ascending index order is correct).
//! Every operator consumes its children in end-timestamp order and emits in
//! end-timestamp order, maintaining the buffer invariant of §4.2:
//!
//! * **SEQ** — Algorithm 1: outer loop over the right child's *new* records,
//!   inner loop over the left child's end-before prefix (or a hash probe,
//!   §5.2.2), then the right input is cleared/consumed,
//! * **NSEQ** — Algorithm 2: for each new right record, scan the negation
//!   buffers backward for the latest qualifying negation instance; emit
//!   `(b, Rr)` or `(NULL, Rr)`,
//! * **CONJ** — Algorithm 3: a sort-merge over both children's cursors,
//!   combining each newly consumed record with all earlier records of the
//!   other side,
//! * **DISJ** — an end-ordered merge of both children, padding slots,
//! * **KSEQ** — Algorithm 4: trinary start/closure/end grouping,
//! * **NEG** — the on-top filter: drop composites with a qualifying
//!   negation instance interleaved between `prev` and `next`.

use zstream_events::{EventRef, Record, Slot, Ts, Value};
use zstream_lang::{eval_binop, ClassId, EventBinding, KleeneKind, TypedExpr};

use crate::physical::binding::{
    pred_passes, ClassMap, PairBinding, RecordBinding, WithEventBinding,
};
use crate::physical::hash::HashJoin;
use crate::physical::plan::{Node, NodeKind, PhysicalPlan, ProbeSide};

/// Per-round evaluation context.
#[derive(Debug, Clone, Copy)]
pub struct EvalCtx {
    /// The query time window.
    pub window: Ts,
    /// Earliest allowed timestamp this round (§4.3).
    pub eat: Ts,
    /// Classes that may be legitimately unbound (disjunction branches).
    pub optional_mask: u64,
}

impl PhysicalPlan {
    /// Runs one assembly round: prunes every buffer against `eat`, evaluates
    /// all internal nodes bottom-up, and drains the root's output onto the
    /// end of `out`.
    pub fn assemble(&mut self, eat: Ts, out: &mut Vec<Record>) {
        let ctx = EvalCtx { window: self.window, eat, optional_mask: self.optional_mask };
        if self.config.eat_pruning {
            // Hash indexes catch up with their buffers when next synced.
            for node in &mut self.nodes {
                node.buf.prune(eat);
            }
        }
        for k in 0..self.nodes.len() {
            if !self.nodes[k].is_leaf() {
                eval_node(&mut self.nodes, k, &ctx, &mut self.split_vals);
            }
        }
        let root = &mut self.nodes[self.root];
        let root_is_leaf = root.is_leaf();
        let buf = &mut root.buf;
        if root_is_leaf {
            // Degenerate single-class pattern: emit unconsumed leaf records.
            out.extend(buf.iter_unconsumed().cloned());
            buf.consume_all();
        } else {
            buf.drain_into(out);
        }
    }

    /// Total logical footprint of all buffers and hash indexes (peak-memory
    /// accounting for Tables 3 and 5).
    pub fn total_bytes(&self) -> usize {
        self.nodes.iter().map(|n| n.buf.bytes() + n.hash.as_ref().map_or(0, |h| h.bytes())).sum()
    }

    /// Resets all dynamic state: internal buffers cleared, leaf buffers
    /// rewound for replay, except classes in `keep_consumed` (the trigger
    /// classes) whose cursor is preserved — the adaptive plan-switch
    /// protocol of §5.3.
    pub fn reset_for_switch(
        &mut self,
        leaf_snapshots: Vec<(ClassId, crate::physical::buffer::Buffer)>,
    ) {
        for (class, buf) in leaf_snapshots {
            let li = self.leaf_of_class[class];
            self.nodes[li].buf = buf;
        }
    }

    /// Extracts the leaf buffers (with their cursors) for transplanting into
    /// a new plan.
    pub fn take_leaf_buffers(&mut self) -> Vec<(ClassId, crate::physical::buffer::Buffer)> {
        let mut out = Vec::new();
        for c in 0..self.num_classes {
            let li = self.leaf_of_class[c];
            out.push((c, std::mem::take(&mut self.nodes[li].buf)));
        }
        out
    }
}

fn eval_node(nodes: &mut [Node], k: usize, ctx: &EvalCtx, split_vals: &mut Vec<Option<Value>>) {
    match nodes[k].kind {
        NodeKind::Leaf { .. } => {}
        NodeKind::Seq { left, right } => eval_seq(nodes, k, left, right, ctx, split_vals),
        NodeKind::Conj { left, right } => eval_conj(nodes, k, left, right, ctx),
        NodeKind::Disj { left, right } => eval_disj(nodes, k, left, right),
        NodeKind::Nseq { .. } => eval_nseq(nodes, k, ctx),
        NodeKind::Kseq { .. } => eval_kseq(nodes, k, ctx),
        NodeKind::NegTop { .. } => eval_negtop(nodes, k, ctx),
    }
}

/// Consumes a child after its new records were processed: internal buffers
/// in drain roles are cleared (Algorithm 1 step 7), everything else keeps
/// records behind the cursor.
fn finish_consume(nodes: &mut [Node], child: usize) {
    if nodes[child].drain {
        nodes[child].buf.clear();
    } else {
        nodes[child].buf.consume_all();
    }
}

/// Checks the NSEQ guards of a SEQ node: every bound negation slot in the
/// right record caps the left record from below (`left.end >= b.ts`,
/// Figure 5's `A.end-ts >= B.timestamp`).
fn guards_pass(
    guards: &[crate::physical::plan::NegGuard],
    rmap: &ClassMap,
    lr: &Record,
    rr: &Record,
) -> bool {
    guards.iter().all(|g| {
        g.neg_classes.iter().all(|nc| match rmap.slot_of(*nc).map(|p| rr.slot(p)) {
            Some(Slot::One(b)) => lr.end_ts() >= b.ts(),
            _ => true,
        })
    })
}

fn eval_seq(
    nodes: &mut [Node],
    k: usize,
    left: usize,
    right: usize,
    ctx: &EvalCtx,
    split_vals: &mut Vec<Option<Value>>,
) {
    let (before, rest) = nodes.split_at_mut(k);
    let node = &mut rest[0];
    let lnode = &before[left];
    let rnode = &before[right];
    let Node { buf: out, preds, split_preds, split_flag, hash, guards, .. } = node;
    // Sync the build-side hash index with the left child's buffer.
    let mut hash = hash.as_deref_mut().map(|HashJoin { spec, left: index, .. }| {
        index.sync(&lnode.buf, &lnode.map, &spec.left);
        (&*spec, index)
    });
    // Split-predicate fast path: sound only when no referenced class can be
    // legitimately unbound (vacuous truth needs the tree-walk semantics).
    let use_split = ctx.optional_mask == 0 && !split_preds.is_empty();
    let has_slow = !use_split || split_flag.iter().any(|f| !f);
    let has_guards = !guards.is_empty();

    for ri in rnode.buf.consumed()..rnode.buf.len() {
        let rr = rnode.buf.get(ri);
        if use_split {
            let rb = RecordBinding { rec: rr, map: &rnode.map };
            split_vals.clear();
            split_vals.extend(split_preds.iter().map(|sp| sp.fixed.eval(&rb).ok()));
        }
        // Candidate left records: hash probe or the end-before prefix.
        let (probe, covered): (_, &[usize]) = match &mut hash {
            Some((spec, index)) => match index.probe_record(rr, &rnode.map, &spec.right) {
                Some(probe) => (Some(probe), &spec.covered_preds),
                None => (None, &[]),
            },
            None => (None, &[]),
        };
        let hash_used = probe.is_some();
        // `$time_check`: hash candidates are unordered in time; the scan
        // path's prefix/window bounds make both time checks vacuous there.
        // A macro (not a closure) so each call site gets a specialized body.
        macro_rules! consider {
            ($li:expr, $time_check:literal) => {{
                let lr = lnode.buf.get($li);
                let rejected = ($time_check
                    && (lr.end_ts() >= rr.start_ts() || rr.end_ts() - lr.start_ts() > ctx.window))
                    || (has_guards && !guards_pass(guards, &rnode.map, lr, rr))
                    || (use_split
                        && !split_preds_pass(
                            split_preds,
                            split_vals,
                            covered,
                            hash_used,
                            lr,
                            &lnode.map,
                        ));
                if !rejected {
                    let slow_pass = !has_slow || {
                        let binding = PairBinding {
                            left: RecordBinding { rec: lr, map: &lnode.map },
                            right: RecordBinding { rec: rr, map: &rnode.map },
                        };
                        preds.iter().enumerate().all(|(i, p)| {
                            (use_split && split_flag[i])
                                || (hash_used && covered.contains(&i))
                                || pred_passes(p, &binding, ctx.optional_mask)
                        })
                    };
                    if slow_pass {
                        out.push(Record::combine(lr, rr));
                    }
                }
            }};
        }
        if let Some(probe) = probe {
            for li in probe {
                consider!(li, true);
            }
        } else {
            // Scan candidates sorted by end: `[lo, hi)` holds exactly the
            // records with `end < rr.start` that can still satisfy the window
            // (`end >= rr.end - window` is necessary since `start <= end`;
            // the per-pair check below covers starts that stretch further).
            let hi = lnode.buf.prefix_end_before(rr.start_ts());
            let lo = lnode.buf.first_end_at_or_after(rr.end_ts().saturating_sub(ctx.window));
            for li in lo..hi {
                let lr = lnode.buf.get(li);
                if rr.end_ts() - lr.start_ts() > ctx.window {
                    continue;
                }
                consider!(li, false);
            }
        }
    }
    finish_consume(nodes, right);
}

/// Evaluates a SEQ node's split predicates against one left candidate, with
/// the fixed sides pre-evaluated in `fixed_vals`. Matches the tree-walk
/// semantics exactly: an unevaluable side fails the predicate (closed), and
/// hash-covered predicates are skipped when the probe came from the index.
#[inline]
fn split_preds_pass(
    split_preds: &[crate::physical::plan::SplitPred],
    fixed_vals: &[Option<zstream_events::Value>],
    covered: &[usize],
    hash_used: bool,
    lr: &Record,
    lmap: &ClassMap,
) -> bool {
    split_preds.iter().zip(fixed_vals).all(|(sp, fv)| {
        if hash_used && covered.contains(&sp.pred) {
            return true;
        }
        let Some(fv) = fv else { return false };
        let pv = match &sp.probe {
            ProbeSide::Slot { slot, field } => match lr.slot(*slot).as_one() {
                Some(ev) => ev.value(*field),
                None => return false,
            },
            ProbeSide::Expr(e) => match e.eval(&RecordBinding { rec: lr, map: lmap }) {
                Ok(v) => v,
                Err(_) => return false,
            },
        };
        let (a, b) = if sp.probe_is_lhs { (&pv, fv) } else { (fv, &pv) };
        matches!(eval_binop(sp.op, a, b), Ok(zstream_events::Value::Bool(true)))
    })
}

fn preds_pass(
    preds: &[TypedExpr],
    skip: &[usize],
    binding: &impl EventBinding,
    optional_mask: u64,
) -> bool {
    preds
        .iter()
        .enumerate()
        .all(|(i, p)| skip.contains(&i) || pred_passes(p, binding, optional_mask))
}

fn eval_conj(nodes: &mut [Node], k: usize, left: usize, right: usize, ctx: &EvalCtx) {
    let (before, rest) = nodes.split_at_mut(k);
    let Node { buf: out, preds, hash, .. } = &mut rest[0];
    let lnode = &before[left];
    let rnode = &before[right];
    let mut hash = hash.as_deref_mut().map(|HashJoin { spec, left: lindex, right: rindex }| {
        let rindex = rindex.as_deref_mut().expect("CONJ hash joins index both sides");
        lindex.sync(&lnode.buf, &lnode.map, &spec.left);
        rindex.sync(&rnode.buf, &rnode.map, &spec.right);
        (&*spec, lindex, rindex)
    });

    let mut lc = lnode.buf.consumed();
    let mut rc = rnode.buf.consumed();

    while lc < lnode.buf.len() || rc < rnode.buf.len() {
        // Algorithm 3 line 5: advance the side with the earlier end
        // timestamp (ties advance the left).
        let take_left = match (lc < lnode.buf.len(), rc < rnode.buf.len()) {
            (true, true) => lnode.buf.get(lc).end_ts() <= rnode.buf.get(rc).end_ts(),
            (l, _) => l,
        };
        let (pr, pr_map, other, other_map, bound) = if take_left {
            let pr = lnode.buf.get(lc);
            lc += 1;
            (pr, &lnode.map, rnode, &rnode.map, rc)
        } else {
            let pr = rnode.buf.get(rc);
            rc += 1;
            (pr, &rnode.map, lnode, &lnode.map, lc)
        };
        // Candidates: records of the other side already consumed — probed
        // from the other side's index with this record's key, or all of
        // them.
        let (probe, covered): (_, &[usize]) = match &mut hash {
            Some((spec, lindex, rindex)) => {
                let probe = if take_left {
                    rindex.probe_record(pr, pr_map, &spec.left)
                } else {
                    lindex.probe_record(pr, pr_map, &spec.right)
                };
                match probe {
                    Some(probe) => (Some(probe), &spec.covered_preds),
                    None => (None, &[]),
                }
            }
            None => (None, &[]),
        };
        let hash_used = probe.is_some();
        let scan = if hash_used { 0..0 } else { 0..bound };
        for bi in probe.into_iter().flatten().filter(|&i| i < bound).chain(scan) {
            let br = other.buf.get(bi);
            let span_start = pr.start_ts().min(br.start_ts());
            let span_end = pr.end_ts().max(br.end_ts());
            if span_end - span_start > ctx.window {
                continue;
            }
            // Positional slots: left-child classes first.
            let (lrec, rrec, lmap2, rmap2) =
                if take_left { (pr, br, pr_map, other_map) } else { (br, pr, other_map, pr_map) };
            let binding = PairBinding {
                left: RecordBinding { rec: lrec, map: lmap2 },
                right: RecordBinding { rec: rrec, map: rmap2 },
            };
            if !preds_pass(preds, covered, &binding, ctx.optional_mask) {
                continue;
            }
            out.push(Record::combine(lrec, rrec));
        }
    }
    before[left].buf.set_consumed(lc);
    before[right].buf.set_consumed(rc);
}

fn eval_disj(nodes: &mut [Node], k: usize, left: usize, right: usize) {
    let (before, rest) = nodes.split_at_mut(k);
    let node = &mut rest[0];
    let lnode = &before[left];
    let rnode = &before[right];
    let lwidth = lnode.classes.len();
    let rwidth = rnode.classes.len();

    let mut lc = lnode.buf.consumed();
    let mut rc = rnode.buf.consumed();
    while lc < lnode.buf.len() || rc < rnode.buf.len() {
        let take_left = match (lc < lnode.buf.len(), rc < rnode.buf.len()) {
            (true, true) => lnode.buf.get(lc).end_ts() <= rnode.buf.get(rc).end_ts(),
            (l, _) => l,
        };
        let mut slots: Vec<Slot> = Vec::with_capacity(lwidth + rwidth);
        let r = if take_left {
            let r = lnode.buf.get(lc);
            lc += 1;
            slots.extend_from_slice(r.slots());
            slots.resize(lwidth + rwidth, Slot::None);
            r
        } else {
            let r = rnode.buf.get(rc);
            rc += 1;
            slots.resize(lwidth, Slot::None);
            slots.extend_from_slice(r.slots());
            r
        };
        let rec = Record::from_slots_with_span(slots, r.start_ts(), r.end_ts());
        node.buf.push(rec);
    }
    finish_consume(nodes, left);
    finish_consume(nodes, right);
}

fn eval_nseq(nodes: &mut [Node], k: usize, ctx: &EvalCtx) {
    let (before, rest) = nodes.split_at_mut(k);
    let Node { kind, buf: out, preds, .. } = &mut rest[0];
    let NodeKind::Nseq { negs, right } = kind else { unreachable!() };
    let right = *right;
    let neg_mask: u64 = negs.iter().map(|ni| before[*ni].mask()).fold(0, |a, b| a | b);
    let rnode = &before[right];

    for ri in rnode.buf.consumed()..rnode.buf.len() {
        let rr = rnode.buf.get(ri);
        // Algorithm 2: scan each negation buffer backward for the latest
        // instance before rr that satisfies the value constraints.
        let mut best: Option<(Ts, ClassId, EventRef)> = None;
        for &ni in negs.iter() {
            let nb = &before[ni];
            let nclass = nb.classes[0];
            let hi = nb.buf.prefix_end_before(rr.start_ts());
            for j in (0..hi).rev() {
                let b = nb.buf.get(j);
                let bts = b.end_ts();
                if best.as_ref().is_some_and(|(bt, _, _)| bts <= *bt) {
                    break; // cannot beat the best found so far
                }
                let Some(ev) = b.slot(0).as_one() else { continue };
                let binding = WithEventBinding {
                    base: RecordBinding { rec: rr, map: &rnode.map },
                    class: nclass,
                    event: ev,
                };
                // Other negation classes stay legitimately unbound while
                // this candidate is tested.
                let optional = ctx.optional_mask | (neg_mask & !(1u64 << nclass));
                if preds_pass(preds, &[], &binding, optional) {
                    best = Some((bts, nclass, ev.clone()));
                    break;
                }
            }
        }
        // Emit (b, Rr) or (NULL, Rr); the span excludes the negation event.
        let mut slots: Vec<Slot> = Vec::with_capacity(negs.len() + rr.slots().len());
        slots.extend(negs.iter().map(|ni| match &best {
            Some((_, c, ev)) if *c == before[*ni].classes[0] => Slot::One(ev.clone()),
            _ => Slot::None,
        }));
        slots.extend_from_slice(rr.slots());
        out.push(Record::from_slots_with_span(slots, rr.start_ts(), rr.end_ts()));
    }
    finish_consume(nodes, right);
}

/// Binding used by KSEQ: optional start and end records plus (optionally) a
/// candidate middle event or a full closure group.
struct KseqBinding<'a> {
    start: Option<RecordBinding<'a>>,
    end: Option<RecordBinding<'a>>,
    closure_class: ClassId,
    mid_event: Option<&'a EventRef>,
    mid_group: &'a [EventRef],
}

impl EventBinding for KseqBinding<'_> {
    fn event(&self, class: ClassId) -> Option<&EventRef> {
        if class == self.closure_class {
            return self.mid_event;
        }
        self.start
            .as_ref()
            .and_then(|b| b.event(class))
            .or_else(|| self.end.as_ref().and_then(|b| b.event(class)))
    }

    fn closure(&self, class: ClassId) -> &[EventRef] {
        if class == self.closure_class {
            if let Some(e) = self.mid_event {
                return std::slice::from_ref(e);
            }
            return self.mid_group;
        }
        &[]
    }
}

fn eval_kseq(nodes: &mut [Node], k: usize, ctx: &EvalCtx) {
    let NodeKind::Kseq { start, closure, kind, end } = nodes[k].kind else { unreachable!() };
    let closure_class = nodes[closure].classes[0];
    let (before, rest) = nodes.split_at_mut(k);
    let node = &mut rest[0];
    let mbuf = &before[closure].buf;

    match end {
        Some(e) => {
            // Algorithm 4: the end buffer drives (outer loop), start inner.
            let enode = &before[e];
            for ei in enode.buf.consumed()..enode.buf.len() {
                let er = enode.buf.get(ei);
                // Start records ending before `er` (one unanchored pass
                // when the closure opens the pattern).
                let n_starts = start.map_or(1, |s| before[s].buf.prefix_end_before(er.start_ts()));
                for si in 0..n_starts {
                    let sr = start.map(|s| before[s].buf.get(si));
                    emit_kseq_groups(
                        node,
                        start.map(|s| &before[s]),
                        sr,
                        mbuf,
                        closure_class,
                        kind,
                        Some((&before[e], er)),
                        ctx,
                    );
                }
            }
            finish_consume(nodes, e);
        }
        None => {
            // Counted closure ends the pattern: each new middle event can
            // complete a group of exactly `cc` qualifying events.
            let KleeneKind::Count(_) = kind else {
                unreachable!("unbounded trailing closures are rejected at plan time")
            };
            for mi in mbuf.consumed()..mbuf.len() {
                let m_end = mbuf.get(mi).end_ts();
                let n_starts = start.map_or(1, |s| before[s].buf.prefix_end_before(m_end));
                for si in 0..n_starts {
                    let sr = start.map(|s| before[s].buf.get(si));
                    emit_trailing_group(
                        node,
                        start.map(|s| &before[s]),
                        sr,
                        mbuf,
                        mi,
                        closure_class,
                        kind,
                        ctx,
                    );
                }
            }
            finish_consume(nodes, closure);
        }
    }
}

/// Collects qualifying middle events strictly between `sr.end` and
/// `er.start` and emits the group(s) per the closure kind.
#[allow(clippy::too_many_arguments)]
fn emit_kseq_groups(
    node: &mut Node,
    snode: Option<&Node>,
    sr: Option<&Record>,
    mbuf: &crate::physical::buffer::Buffer,
    closure_class: ClassId,
    kind: KleeneKind,
    er: Option<(&Node, &Record)>,
    ctx: &EvalCtx,
) {
    let lo_sr = match sr {
        Some(s) => mbuf.first_end_at_or_after(s.end_ts() + 1),
        None => 0,
    };
    // Closure events must fit in the window ending at the end anchor; this
    // bounds the "maximal group" of unanchored closures explicitly (rather
    // than implicitly through EAT pruning, which may be disabled).
    let lo_window = match er {
        Some((_, e)) => mbuf.first_end_at_or_after(e.end_ts().saturating_sub(ctx.window)),
        None => 0,
    };
    let lo = lo_sr.max(lo_window);
    let hi = match er {
        Some((_, e)) => mbuf.prefix_end_before(e.start_ts()),
        None => mbuf.len(),
    };
    let mut qualifying: Vec<EventRef> = Vec::new();
    for j in lo..hi {
        let m = mbuf.get(j);
        let Some(ev) = m.slot(0).as_one() else { continue };
        let binding = KseqBinding {
            start: sr.map(|r| RecordBinding { rec: r, map: &snode.expect("sr bound").map }),
            end: er.map(|(en, r)| RecordBinding { rec: r, map: &en.map }),
            closure_class,
            mid_event: Some(ev),
            mid_group: &[],
        };
        if node.event_preds.iter().all(|p| pred_passes(p, &binding, ctx.optional_mask)) {
            qualifying.push(ev.clone());
        }
    }
    match kind {
        KleeneKind::Star => {
            emit_group(node, snode, sr, &qualifying, closure_class, er, ctx);
        }
        KleeneKind::Plus => {
            if !qualifying.is_empty() {
                emit_group(node, snode, sr, &qualifying, closure_class, er, ctx);
            }
        }
        KleeneKind::Count(cc) => {
            let cc = cc as usize;
            if qualifying.len() >= cc {
                for w in 0..=qualifying.len() - cc {
                    emit_group(node, snode, sr, &qualifying[w..w + cc], closure_class, er, ctx);
                }
            }
        }
    }
}

/// Emits the group of exactly `cc` qualifying events ending at middle-buffer
/// index `mi` (trailing-closure mode).
#[allow(clippy::too_many_arguments)]
fn emit_trailing_group(
    node: &mut Node,
    snode: Option<&Node>,
    sr: Option<&Record>,
    mbuf: &crate::physical::buffer::Buffer,
    mi: usize,
    closure_class: ClassId,
    kind: KleeneKind,
    ctx: &EvalCtx,
) {
    let KleeneKind::Count(cc) = kind else { unreachable!() };
    let cc = cc as usize;
    let lo = match sr {
        Some(s) => mbuf.first_end_at_or_after(s.end_ts() + 1),
        None => 0,
    };
    // Walk backward from mi collecting qualifying events.
    let mut group_rev: Vec<EventRef> = Vec::with_capacity(cc);
    let mut j = mi + 1;
    while j > lo && group_rev.len() < cc {
        j -= 1;
        let m = mbuf.get(j);
        let Some(ev) = m.slot(0).as_one() else { continue };
        let binding = KseqBinding {
            start: sr.map(|r| RecordBinding { rec: r, map: &snode.expect("sr bound").map }),
            end: None,
            closure_class,
            mid_event: Some(ev),
            mid_group: &[],
        };
        if node.event_preds.iter().all(|p| pred_passes(p, &binding, ctx.optional_mask)) {
            group_rev.push(ev.clone());
        } else if j == mi {
            return; // the completing event itself must qualify
        }
    }
    if group_rev.len() < cc {
        return;
    }
    group_rev.reverse();
    emit_group(node, snode, sr, &group_rev, closure_class, None, ctx);
}

fn emit_group(
    node: &mut Node,
    snode: Option<&Node>,
    sr: Option<&Record>,
    group: &[EventRef],
    closure_class: ClassId,
    er: Option<(&Node, &Record)>,
    ctx: &EvalCtx,
) {
    let _ = closure_class;
    let (start_slots, end_slots) =
        (sr.map_or(&[][..], Record::slots), er.map_or(&[][..], |(_, e)| e.slots()));
    let mut slots: Vec<Slot> = Vec::with_capacity(start_slots.len() + 1 + end_slots.len());
    slots.extend_from_slice(start_slots);
    slots.push(Slot::Many(group.to_vec().into()));
    slots.extend_from_slice(end_slots);
    let rec = Record::from_slots(slots);
    if rec.end_ts() - rec.start_ts() > ctx.window {
        return;
    }
    // Group-level predicates (aggregates and start/end predicates).
    let binding = RecordBinding { rec: &rec, map: &node.map };
    let _ = (snode, er);
    if !node.preds.iter().all(|p| pred_passes(p, &binding, ctx.optional_mask)) {
        return;
    }
    node.buf.push(rec);
}

fn eval_negtop(nodes: &mut [Node], k: usize, ctx: &EvalCtx) {
    let (before, rest) = nodes.split_at_mut(k);
    let Node { kind, buf: out, preds, map, .. } = &mut rest[0];
    let NodeKind::NegTop { input, negs, prev, next } = kind else { unreachable!() };
    let (input, prev, next) = (*input, *prev, *next);
    let neg_mask: u64 = negs.iter().map(|ni| before[*ni].mask()).fold(0, |a, b| a | b);
    let inode = &before[input];

    // Record-level predicates touch no negation class; candidate predicates
    // do, and are checked per negation instance of the classes they touch.
    let touches = |p: &TypedExpr, mask: u64| p.class_mask() & mask != 0;

    for ri in inode.buf.consumed()..inode.buf.len() {
        let rr = inode.buf.get(ri);
        let base = RecordBinding { rec: rr, map: &inode.map };
        if !preds
            .iter()
            .filter(|p| !touches(p, neg_mask))
            .all(|p| pred_passes(p, &base, ctx.optional_mask))
        {
            continue;
        }
        let prev_ts = map.slot_of(prev).and_then(|p| rr.slot(p).as_one()).map(|e| e.ts());
        let next_ts = map.slot_of(next).and_then(|p| rr.slot(p).as_one()).map(|e| e.ts());
        let (Some(prev_ts), Some(next_ts)) = (prev_ts, next_ts) else {
            // Defensive: anchors should always be bound for flat sequences.
            out.push(rr.clone());
            continue;
        };
        // A negation instance b interleaves when prev.ts < b.ts < next.ts
        // and its predicates hold.
        let mut negated = false;
        'outer: for &ni in negs.iter() {
            let nb = &before[ni];
            let nclass = nb.classes[0];
            let lo = nb.buf.first_end_at_or_after(prev_ts + 1);
            let hi = nb.buf.prefix_end_before(next_ts);
            for j in lo..hi {
                let Some(ev) = nb.buf.get(j).slot(0).as_one() else { continue };
                let binding = WithEventBinding {
                    base: RecordBinding { rec: rr, map: &inode.map },
                    class: nclass,
                    event: ev,
                };
                let optional = ctx.optional_mask | (neg_mask & !(1u64 << nclass));
                if preds
                    .iter()
                    .filter(|p| touches(p, 1u64 << nclass))
                    .all(|p| pred_passes(p, &binding, optional))
                {
                    negated = true;
                    break 'outer;
                }
            }
        }
        if !negated {
            out.push(rr.clone());
        }
    }
    finish_consume(nodes, input);
}
