//! Kernel-intake differential suite: columnar intake (column kernels
//! evaluated through a predicate index, row predicates on the survivors)
//! must produce **byte-identical** match streams to the per-event record
//! path, which evaluates every intake `TypedExpr` one event at a time and
//! shares no code with the kernels — across stock and weblog workloads,
//! dictionary-encoded vs plain `Sym` columns, 1–8 worker shards
//! (`split_batch_rows` fan-out into partitioned engines), and float edge
//! cases (`NaN`, `0.0 == -0.0`) flowing through `CmpLit` predicates.

mod common;

use common::{compile, compile_stock, rebatch};
use proptest::prelude::*;

use zstream::core::{CompiledParts, EngineBuilder, EngineConfig, PlanConfig};
use zstream::events::{split_batch_rows, DictMode, EventBatch, EventRef, Schema, Value};
use zstream::lang::SchemaMap;
use zstream::workload::{WeblogConfig, WeblogGenerator};

/// Float domain slanted toward the comparison edge cases: signed zeros
/// (`0.0 == -0.0` under the exact semantics) and `NaN` (one class **above**
/// all numbers under the total order both paths must share).
const EDGE_FLOATS: &[f64] = &[0.0, -0.0, f64::NAN, 1.0, -1.5, 2.0, 1e300];

/// Columnar path; unsorted — a single engine's output order is
/// deterministic, so the comparison is byte-for-byte.
fn columnar_lines(parts: &CompiledParts, batches: &[EventBatch]) -> Vec<String> {
    let mut engine = parts.engine().unwrap();
    let mut records = Vec::new();
    for batch in batches {
        records.extend(engine.push_columns(batch));
    }
    records.extend(engine.flush());
    records.iter().map(|r| engine.format_match(r)).collect()
}

/// The oracle: the per-event record path (one event per push, each intake
/// `TypedExpr` evaluated against the event, no columns involved at all).
fn record_lines(parts: &CompiledParts, events: &[EventRef]) -> Vec<String> {
    let mut engine = parts.engine().unwrap();
    let mut records = Vec::new();
    for e in events {
        records.extend(engine.push(e.clone()));
    }
    records.extend(engine.flush());
    records.iter().map(|r| engine.format_match(r)).collect()
}

/// Shard fan-out: `split_batch_rows` selection vectors into `workers`
/// independent flat engines via [`Engine::push_rows`] — kernels over
/// sub-batch selections. Output is sorted (cross-shard order is not
/// defined).
///
/// [`Engine::push_rows`]: zstream::core::Engine::push_rows
fn sharded_lines(
    parts: &CompiledParts,
    batches: &[EventBatch],
    field: &str,
    workers: usize,
) -> Vec<String> {
    let mut engines: Vec<_> = (0..workers).map(|_| parts.engine().unwrap()).collect();
    let mut records = Vec::new();
    for batch in batches {
        let split = split_batch_rows(batch, field, workers);
        for (shard, rows) in split.shards.iter().enumerate() {
            if !rows.is_empty() {
                records.extend(engines[shard].push_rows(batch, rows));
            }
        }
    }
    for engine in &mut engines {
        records.extend(engine.flush());
    }
    sorted_lines(parts, &records)
}

/// The runtime's shard form: `split_batch_rows` selection vectors into
/// `workers` partitioned engines keyed on `field`, via
/// [`PartitionedEngine::push_rows`] — intake evaluates once per batch per
/// shard, and each key's engine materializes its own rows. Sorted.
///
/// [`PartitionedEngine::push_rows`]: zstream::core::PartitionedEngine::push_rows
fn partitioned_sharded_lines(
    parts: &CompiledParts,
    batches: &[EventBatch],
    field: &str,
    workers: usize,
) -> Vec<String> {
    let mut engines: Vec<_> =
        (0..workers).map(|_| parts.partitioned_engine(field).unwrap()).collect();
    let mut records = Vec::new();
    for batch in batches {
        let split = split_batch_rows(batch, field, workers);
        for (engine, rows) in engines.iter_mut().zip(&split.shards) {
            records.extend(engine.push_rows(batch, rows));
        }
    }
    for engine in &mut engines {
        records.extend(engine.flush());
    }
    sorted_lines(parts, &records)
}

fn sorted_lines(parts: &CompiledParts, records: &[zstream::events::Record]) -> Vec<String> {
    let template = parts.engine().unwrap();
    let mut lines: Vec<String> = records.iter().map(|r| template.format_match(r)).collect();
    lines.sort();
    lines
}

/// Rebuilds each batch row-by-row under an explicit dictionary mode, so the
/// same stream can be replayed over dictionary-encoded and plain `Sym`
/// columns.
fn with_dict(batches: &[EventBatch], mode: DictMode) -> Vec<EventBatch> {
    batches
        .iter()
        .map(|batch| {
            let mut b = EventBatch::builder(batch.schema().clone(), batch.len());
            for e in batch.iter() {
                let values: Vec<Value> =
                    (0..batch.schema().fields().len()).map(|f| e.value(f)).collect();
                b.push_row(e.ts(), &values).unwrap();
            }
            b.finish_with(mode)
        })
        .collect()
}

/// A stock stream whose prices come from [`EDGE_FLOATS`], built through one
/// columnar batch so every path shares event identities.
fn edge_stock_stream(max_len: usize) -> impl Strategy<Value = Vec<EventRef>> {
    prop::collection::vec((0u64..3, 0usize..4, 0usize..EDGE_FLOATS.len(), 1i64..4), 1..max_len)
        .prop_map(|rows| {
            let mut ts = 0u64;
            let mut b = EventBatch::builder(Schema::stocks(), rows.len());
            for (i, (gap, name_idx, price_idx, volume)) in rows.into_iter().enumerate() {
                ts += gap;
                let name = ["IBM", "Sun", "Oracle", "HP"][name_idx];
                b.push_row(
                    ts,
                    &[
                        Value::Int(i as i64),
                        Value::str(name),
                        Value::Float(EDGE_FLOATS[price_idx]),
                        Value::Int(volume),
                    ],
                )
                .unwrap();
            }
            b.finish().to_events()
        })
}

/// Queries covering every compiled intake shape against the float edges:
/// `CmpLit` orderings and equality against `0.0` (hit by `-0.0` and `NaN`
/// rows), the `StrEq` symbol route, and the `General` row-wise fallback.
const EDGE_QUERIES: &[(&str, bool)] = &[
    ("PATTERN IBM; Sun WHERE IBM.price > 0.0 WITHIN 6 RETURN IBM, Sun", true),
    ("PATTERN IBM; Sun; Oracle WHERE Sun.price <= 0.0 WITHIN 8 RETURN IBM, Sun, Oracle", true),
    ("PATTERN A; B WHERE A.price = 0.0 AND B.volume < 3 WITHIN 6 RETURN A, B", false),
    ("PATTERN A; B WHERE A.price * 2.0 > 1.0 AND B.price >= 0.0 WITHIN 6 RETURN A, B", false),
];

/// `src` (an [`EDGE_QUERIES`] entry) with its classes chained by `volume`
/// equalities, so the query partitions on `volume` and keeps every intake
/// shape of the original.
fn keyed_on_volume(src: &str) -> String {
    let classes = &src["PATTERN ".len()..src.find(" WHERE").unwrap()];
    let classes: Vec<&str> = classes.split("; ").collect();
    let chain: String =
        classes.windows(2).map(|w| format!("{}.volume = {}.volume AND ", w[0], w[1])).collect();
    src.replacen("WHERE ", &format!("WHERE {chain}"), 1)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// Columnar intake vs the per-event record path, on dictionary-encoded
    /// and plain columns, over the float-edge stream.
    #[test]
    fn kernel_matches_row_oracle_on_float_edges(
        events in edge_stock_stream(40),
        query_idx in 0usize..EDGE_QUERIES.len(),
        sizes in prop::collection::vec(1usize..11, 1..4),
        engine_batch in 1usize..6,
    ) {
        let (src, routed) = EDGE_QUERIES[query_idx];
        let parts =
            if routed { compile_stock(src, engine_batch) } else { compile(src, engine_batch) };
        let batches = rebatch(&events, &sizes);
        let events: Vec<EventRef> = batches.iter().flat_map(EventBatch::iter).collect();

        let oracle = record_lines(&parts, &events);
        for dict in [DictMode::Plain, DictMode::Force] {
            let batches = with_dict(&batches, dict);
            let kernel = columnar_lines(&parts, &batches);
            prop_assert_eq!(&kernel, &oracle, "kernel vs record path ({src}, {dict:?})");
        }
    }

    /// Shard fan-out differential: every edge query, keyed on `volume`,
    /// through partitioned engines fed `split_batch_rows` selections at
    /// 1–8 workers, vs the per-event record path.
    #[test]
    fn kernel_matches_row_oracle_under_shard_fanout(
        events in edge_stock_stream(40),
        query_idx in 0usize..EDGE_QUERIES.len(),
        sizes in prop::collection::vec(1usize..11, 1..4),
        engine_batch in 1usize..6,
        workers in 1usize..=8,
    ) {
        let (src, routed) = EDGE_QUERIES[query_idx];
        let src = keyed_on_volume(src);
        let parts =
            if routed { compile_stock(&src, engine_batch) } else { compile(&src, engine_batch) };
        let batches = rebatch(&events, &sizes);
        let events: Vec<EventRef> = batches.iter().flat_map(EventBatch::iter).collect();
        let mut oracle = record_lines(&parts, &events);
        oracle.sort();
        for dict in [DictMode::Plain, DictMode::Force] {
            let batches = with_dict(&batches, dict);
            let sharded = partitioned_sharded_lines(&parts, &batches, "volume", workers);
            prop_assert_eq!(
                &sharded, &oracle, "{} at {} workers ({:?})", src, workers, dict
            );
        }
    }
}

/// Weblog workload (Query 8 shape): the columnar, partitioned and
/// 1–8-worker sharded paths vs the per-event record path. Deterministic —
/// the generated workload is seeded, and it must actually produce matches.
#[test]
fn weblog_kernel_matches_row_oracle_across_paths_and_workers() {
    let src = "PATTERN Publication; Project; Course \
               WHERE Publication.ip = Project.ip AND Project.ip = Course.ip \
               WITHIN 10 hours RETURN Publication, Project, Course";
    let (batches, _) = WeblogGenerator::generate_batches(&WeblogConfig::scaled(12_000, 13), 128);
    let events: Vec<EventRef> = batches.iter().flat_map(EventBatch::iter).collect();
    let parts = EngineBuilder::parse(src)
        .unwrap()
        .schemas(SchemaMap::uniform(Schema::weblog()))
        .route_by_field("category")
        .config(EngineConfig { batch_size: 64, plan: PlanConfig::default() })
        .compile()
        .unwrap();

    let oracle = record_lines(&parts, &events);
    assert!(!oracle.is_empty(), "workload produced no matches — weak test");
    assert_eq!(columnar_lines(&parts, &batches), oracle, "columnar kernel vs record path");

    let mut sorted_oracle = oracle;
    sorted_oracle.sort();
    let mut pe = parts.partitioned_engine("ip").unwrap();
    let mut records = Vec::new();
    for batch in &batches {
        records.extend(pe.push_columns(batch));
    }
    records.extend(pe.flush());
    assert_eq!(sorted_lines(&parts, &records), sorted_oracle, "partitioned vs record path");

    for workers in 1..=8 {
        let flat = sharded_lines(&parts, &batches, "ip", workers);
        assert_eq!(flat, sorted_oracle, "sharded flat engines vs record path at {workers} workers");
        let keyed = partitioned_sharded_lines(&parts, &batches, "ip", workers);
        assert_eq!(keyed, sorted_oracle, "sharded partitioned vs record path at {workers} workers");
    }
}
