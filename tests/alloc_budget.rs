//! Allocation budget of the assembly hot path.
//!
//! This test binary installs its own counting `#[global_allocator]` (the
//! library never does) and drives `PartitionedEngine::push_columns` with a
//! keyed three-class sequence: `A; B; C` joined on `name`, `WITHIN 60`, 64
//! uniform stock names, 1024-row batches. Leaf records are inline, hash
//! keys are probed by borrow, hash indexes survive front pruning and the
//! per-batch grouping is reused, so what remains is mostly the composite
//! records the plan materializes. The budget is a deterministic count, not
//! a timing: two runs over the same input must allocate exactly the same
//! number of times. The shard's own form — a sparse `split_batch_rows`
//! selection through `PartitionedEngine::push_rows_shared` and a
//! `SharedPredIndex` — keeps the same budget.
//!
//! Counting is per thread, so the test harness running tests in parallel
//! does not blur the figures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use zstream::core::{
    CompiledParts, EngineBuilder, EngineConfig, PartitionedEngine, PlanConfig, SharedPredIndex,
};
use zstream::events::{split_batch_rows, EventBatch, Snapshot, SnapshotReader, SnapshotWriter};
use zstream::workload::{StockConfig, StockGenerator};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with` fails only during thread teardown; those go uncounted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counting touches a const-initialized thread-local
// without a destructor, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr`/`layout` come from `System`; the caller guarantees
        // `new_size` is valid for `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made on this thread so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const QUERY: &str = "PATTERN A; B; C WHERE A.name = B.name AND B.name = C.name WITHIN 60";
const EVENTS: usize = 65_536;
const BATCH: usize = 1024;
/// Allocations per input event the keyed sequence may make.
const BUDGET: f64 = 2.0;

fn parts() -> CompiledParts {
    compile(QUERY)
}

fn compile(query: &str) -> CompiledParts {
    EngineBuilder::parse(query)
        .unwrap()
        .config(EngineConfig { batch_size: 256, plan: PlanConfig::default() })
        .compile()
        .unwrap()
}

fn input() -> Vec<EventBatch> {
    let names: Vec<String> = (0..64).map(|i| format!("S{i:02}")).collect();
    let rates: Vec<(&str, f64)> = names.iter().map(|s| (s.as_str(), 1.0)).collect();
    StockGenerator::generate_batches(StockConfig::with_rates(&rates, EVENTS, 7), BATCH)
}

/// Pushes `batches` (and flushes when `flush`); returns (allocations,
/// matches). Dropping the matches happens outside the count.
fn drive(engine: &mut PartitionedEngine, batches: &[EventBatch], flush: bool) -> (u64, usize) {
    let mut matches = Vec::new();
    let before = allocs();
    for b in batches {
        matches.push(engine.push_columns(b));
    }
    if flush {
        matches.push(engine.flush());
    }
    let spent = allocs() - before;
    (spent, matches.iter().map(Vec::len).sum())
}

fn per_event(allocs: u64, batches: &[EventBatch]) -> f64 {
    allocs as f64 / batches.iter().map(EventBatch::len).sum::<usize>() as f64
}

#[test]
fn keyed_sequence_stays_within_the_allocation_budget_and_repeats_exactly() {
    let parts = parts();
    let batches = input();
    let mut counts = Vec::new();
    for _ in 0..2 {
        let mut engine = parts.partitioned_engine("name").unwrap();
        counts.push(drive(&mut engine, &batches, true));
    }
    let (allocs, matches) = counts[0];
    assert!(matches > EVENTS / 4, "the workload must be match-heavy, got {matches} matches");
    let rate = per_event(allocs, &batches);
    assert!(rate <= BUDGET, "{rate:.3} allocations per event (budget {BUDGET}); {allocs} total");
    assert_eq!(counts[0], counts[1], "allocation count must repeat exactly for a fixed input");
}

#[test]
fn restored_engine_keeps_leaf_records_inline_and_the_budget() {
    let parts = parts();
    let batches = input();
    let (head, tail) = batches.split_at(batches.len() / 2);

    // A plain engine's leaf buffers after a snapshot round trip hold the
    // inline one-slot form, exactly like the live engine's.
    let mut live = parts.engine().unwrap();
    for b in head {
        live.push_columns(b);
    }
    let mut w = SnapshotWriter::new();
    live.write_snapshot(&mut w);
    let restored = parts.restore_engine(&mut SnapshotReader::new(w.bytes())).unwrap();
    let plan = restored.plan();
    let mut leaf_records = 0;
    for &leaf in &plan.leaf_of_class {
        for rec in plan.nodes[leaf].buf.iter() {
            assert!(rec.is_inline(), "restored leaf record {rec} is not inline");
            leaf_records += 1;
        }
    }
    assert!(leaf_records > 0, "the snapshot must carry leaf records");

    // A restored partitioned engine continues within the same budget and
    // produces what the uninterrupted one does.
    let mut uninterrupted = parts.partitioned_engine("name").unwrap();
    drive(&mut uninterrupted, head, false);
    let mut w = SnapshotWriter::new();
    uninterrupted.write_snapshot(&mut w);
    let mut resumed =
        parts.restore_partitioned_engine("name", &mut SnapshotReader::new(w.bytes())).unwrap();
    let (_, want) = drive(&mut uninterrupted, tail, true);
    let (allocs, got) = drive(&mut resumed, tail, true);
    assert_eq!(got, want);
    let rate = per_event(allocs, tail);
    assert!(rate <= BUDGET, "{rate:.3} allocations per event after restore (budget {BUDGET})");
}

#[test]
fn shard_form_with_a_shared_index_stays_within_the_budget_and_repeats_exactly() {
    // The keyed sequence plus one kernel conjunct, so the shared index has
    // a bitmap to evaluate and fan out.
    let parts = compile(
        "PATTERN A; B; C WHERE A.name = B.name AND B.name = C.name AND B.volume > 100 WITHIN 60",
    );
    let batches = input();
    // One of four shards' rows, as the runtime's router selects them.
    let selections: Vec<Vec<u32>> =
        batches.iter().map(|b| split_batch_rows(b, "name", 4).shards.swap_remove(0)).collect();
    let events: usize = selections.iter().map(Vec::len).sum();
    let mut counts = Vec::new();
    for _ in 0..2 {
        let mut index = SharedPredIndex::new();
        let mut engine = parts.partitioned_engine("name").unwrap();
        engine.set_shared_slots(Arc::new(index.register(&parts.intake)));
        let mut matches = Vec::new();
        let before = allocs();
        for (batch, rows) in batches.iter().zip(&selections) {
            index.begin_batch();
            matches.push(engine.push_rows_shared(batch, rows, Some(&mut index)));
        }
        matches.push(engine.flush());
        let spent = allocs() - before;
        counts.push((spent, matches.iter().map(Vec::len).sum::<usize>()));
    }
    let (allocs, matches) = counts[0];
    assert!(matches > events / 8, "the workload must be match-heavy, got {matches} matches");
    let rate = allocs as f64 / events as f64;
    assert!(rate <= BUDGET, "{rate:.3} allocations per event (budget {BUDGET}); {allocs} total");
    assert_eq!(counts[0], counts[1], "allocation count must repeat exactly for a fixed input");
}
