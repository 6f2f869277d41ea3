//! The three served-path workloads: generated inputs, query set-up
//! through `EngineBuilder` → `RuntimeBuilder`, and the single-threaded
//! `Engine` reference each run's match set is gated against.

use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::time::{Duration, Instant};

use zstream_core::{
    CompiledParts, Engine, EngineBuilder, EngineConfig, PlanConfig, SharedPredIndex,
};
use zstream_events::{EventBatch, EventRef, Record, Schema, Ts};
use zstream_lang::SchemaMap;
use zstream_runtime::{LatenessPolicy, Partitioning, Runtime, RuntimeBuilder};
use zstream_workload::{DisorderSpec, StockConfig, StockGenerator, WeblogConfig, WeblogGenerator};

use crate::digest::Tally;

const STOCK_QUERY: &str = "PATTERN A; B; C WHERE A.name = B.name AND B.name = C.name WITHIN 60";
const QUERY8: &str = "PATTERN Publication; Project; Course \
     WHERE Publication.ip = Project.ip AND Project.ip = Course.ip \
     WITHIN 10 hours";
/// `alarm_100q` registrations: the 16-pattern pool replicated to 100.
const ALARM_QUERIES: usize = 100;
/// `weblog_disordered` reorder slack and generator delay bound (seconds of
/// event time).
const WEBLOG_SLACK: Ts = 600;
/// Fraction of weblog events delayed beyond the slack (stragglers).
const WEBLOG_LATE_FRACTION: f64 = 0.001;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `A; B; C` keyed on `name`, 64 uniform names, columnar ingest.
    StockKeyed,
    /// 100 broadcast alarm queries from a 16-pattern pool, columnar ingest.
    Alarm100q,
    /// Query 8 over a disordered web log, record ingest, checkpoints.
    WeblogDisordered,
}

/// How a workload feeds the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `Runtime::ingest_columns`, one call per generated batch.
    Columns,
    /// `Runtime::ingest` over the same rows as event handles.
    Records,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] =
        [Workload::StockKeyed, Workload::Alarm100q, Workload::WeblogDisordered];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StockKeyed => "stock_keyed",
            Workload::Alarm100q => "alarm_100q",
            Workload::WeblogDisordered => "weblog_disordered",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Input events per pass. Fixed per workload (the seed varies the
    /// rows, never the size), so deterministic per-event counters repeat.
    pub fn events(self) -> usize {
        match self {
            Workload::StockKeyed => 300_000,
            Workload::Alarm100q => 1_000_000,
            Workload::WeblogDisordered => 400_000,
        }
    }

    /// Rows per ingest call.
    pub fn chunk(self) -> usize {
        match self {
            Workload::StockKeyed | Workload::WeblogDisordered => 1024,
            Workload::Alarm100q => 4096,
        }
    }

    /// Ingest plane.
    pub fn path(self) -> Path {
        match self {
            Workload::WeblogDisordered => Path::Records,
            _ => Path::Columns,
        }
    }

    /// Fixed input rate of the open-loop (paced) pass, events per second:
    /// about a quarter of the saturated rate measured on a 2-core host.
    pub fn paced_rate(self) -> f64 {
        match self {
            Workload::StockKeyed => 150_000.0,
            Workload::Alarm100q => 500_000.0,
            Workload::WeblogDisordered => 200_000.0,
        }
    }

    /// `weblog_disordered` checkpoints inside every pass — snapshot writes
    /// beside reads are part of that workload. The others take their
    /// checkpoint timings from a dedicated pass (see [`Workload::checkpoint_every`]).
    pub fn checkpoints_in_workload(self) -> bool {
        self == Workload::WeblogDisordered
    }

    /// Ingest calls between two `Runtime::checkpoint` calls in a pass that
    /// checkpoints.
    pub fn checkpoint_every(self) -> usize {
        match self {
            Workload::StockKeyed => 32,
            Workload::Alarm100q => 32,
            Workload::WeblogDisordered => 48,
        }
    }

    fn config() -> EngineConfig {
        EngineConfig { batch_size: 256, plan: PlanConfig::default() }
    }

    /// The registered query texts with their partitioning, in
    /// registration order.
    fn queries(self) -> Vec<(String, Partitioning)> {
        match self {
            Workload::StockKeyed => {
                vec![(STOCK_QUERY.to_string(), Partitioning::Field("name".into()))]
            }
            Workload::Alarm100q => {
                let pool = alarm_pool();
                (0..ALARM_QUERIES)
                    .map(|q| (pool[q % pool.len()].clone(), Partitioning::Broadcast))
                    .collect()
            }
            Workload::WeblogDisordered => {
                vec![(QUERY8.to_string(), Partitioning::Field("ip".into()))]
            }
        }
    }

    fn builder(self, text: &str) -> Result<EngineBuilder, String> {
        let b = EngineBuilder::parse(text).map_err(|e| format!("parse {text:?}: {e}"))?;
        Ok(match self {
            Workload::WeblogDisordered => {
                b.schemas(SchemaMap::uniform(Schema::weblog())).route_by_field("category")
            }
            _ => b,
        }
        .config(Workload::config()))
    }

    fn compile(self, text: &str) -> Result<CompiledParts, String> {
        self.builder(text)?.compile().map_err(|e| format!("compile {text:?}: {e}"))
    }

    fn runtime_builder(self) -> RuntimeBuilder {
        let b = Runtime::builder().workers(1).batch_size(self.chunk()).channel_capacity(4);
        match self {
            Workload::WeblogDisordered => b.slack(WEBLOG_SLACK).lateness(LatenessPolicy::Drop),
            _ => b,
        }
    }

    /// Parses and compiles every query, registers them, and builds the
    /// runtime — the timed set-up. Input generation is not part of it.
    pub fn setup(self) -> Result<Served, String> {
        let queries = self.queries();
        let t0 = Instant::now();
        let mut builders = Vec::with_capacity(queries.len());
        for (text, _) in &queries {
            builders.push(self.builder(text)?);
        }
        let t1 = Instant::now();
        let mut compiled = Vec::with_capacity(queries.len());
        for b in builders {
            compiled.push(b.compile().map_err(|e| format!("compile: {e}"))?);
        }
        let t2 = Instant::now();
        let mut rb = self.runtime_builder();
        for (parts, (_, partitioning)) in compiled.into_iter().zip(queries) {
            // Ids are registration indices on a fresh runtime.
            rb.register(parts, partitioning);
        }
        let runtime = rb.build().map_err(|e| format!("runtime build: {e}"))?;
        let t3 = Instant::now();
        Ok(Served {
            runtime,
            timings: SetupTimings { parse: t1 - t0, compile: t2 - t1, build: t3 - t2 },
        })
    }

    /// Generates the workload's input from `seed`.
    pub fn generate(self, seed: u64) -> Input {
        let n = self.events();
        let chunk = self.chunk();
        let batches = match self {
            Workload::StockKeyed | Workload::Alarm100q => {
                let names: Vec<String> = (0..64).map(|i| format!("S{i:02}")).collect();
                let rates: Vec<(&str, f64)> = names.iter().map(|s| (s.as_str(), 1.0)).collect();
                StockGenerator::generate_batches(StockConfig::with_rates(&rates, n, seed), chunk)
            }
            Workload::WeblogDisordered => {
                let spec = DisorderSpec::bounded(WEBLOG_SLACK, seed ^ 0x5eed_d150_7de4)
                    .late_fraction(WEBLOG_LATE_FRACTION);
                let cfg = WeblogConfig::scaled(n as u64, seed).disordered(spec);
                WeblogGenerator::generate_batches(&cfg, chunk).0
            }
        };
        Input::new(batches, self.path())
    }

    /// Signature engines for the registered queries: one engine per
    /// distinct query text, compiled exactly as set-up compiles it.
    pub fn signer(self) -> Result<Signer, String> {
        let mut texts: Vec<String> = Vec::new();
        let mut of_query = Vec::new();
        for (text, _) in self.queries() {
            let idx = match texts.iter().position(|t| *t == text) {
                Some(i) => i,
                None => {
                    texts.push(text);
                    texts.len() - 1
                }
            };
            of_query.push(idx);
        }
        let engines = texts
            .iter()
            .map(|t| self.compile(t)?.engine().map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        Ok(Signer { engines, of_query })
    }

    /// Computes the expected match set with single-threaded `Engine`s,
    /// outside any measured region.
    pub fn reference(self, input: &Input) -> Result<Reference, String> {
        match self {
            Workload::StockKeyed => {
                let mut engine = self.compile(STOCK_QUERY)?.engine().map_err(|e| e.to_string())?;
                let mut t = Tally::default();
                for b in &input.batches {
                    let out = engine.push_columns(b);
                    tally(&engine, &out, &mut t);
                }
                let out = engine.flush();
                tally(&engine, &out, &mut t);
                Ok(Reference { per_query: vec![t], late: 0 })
            }
            Workload::Alarm100q => {
                // Once per distinct pool member; replicas expect the same.
                let pool = alarm_pool();
                let mut member = Vec::with_capacity(pool.len());
                for src in &pool {
                    let mut engine = self.compile(src)?.engine().map_err(|e| e.to_string())?;
                    let mut t = Tally::default();
                    for b in &input.batches {
                        let out = engine.push_columns(b);
                        tally(&engine, &out, &mut t);
                    }
                    let out = engine.flush();
                    tally(&engine, &out, &mut t);
                    member.push(t);
                }
                let per_query = (0..ALARM_QUERIES).map(|q| member[q % pool.len()]).collect();
                Ok(Reference { per_query, late: 0 })
            }
            Workload::WeblogDisordered => {
                let (sorted, late) = weblog_survivors(input);
                let mut engine = self.compile(QUERY8)?.engine().map_err(|e| e.to_string())?;
                let mut t = Tally::default();
                for c in sorted.chunks(self.chunk()) {
                    let out = engine.push_batch(c);
                    tally(&engine, &out, &mut t);
                }
                let out = engine.flush();
                tally(&engine, &out, &mut t);
                Ok(Reference { per_query: vec![t], late })
            }
        }
    }

    /// The layer ladder's bottom rung: the engines one shard would host,
    /// driven directly on the calling thread over the same input (no
    /// router, channel, reorder or merge). Returns events per second.
    pub fn core_pass(self, input: &Input) -> Result<f64, String> {
        let err = |e: zstream_core::CoreError| e.to_string();
        match self {
            Workload::StockKeyed => {
                let mut engine =
                    self.compile(STOCK_QUERY)?.partitioned_engine("name").map_err(err)?;
                let t0 = Instant::now();
                let mut n = 0usize;
                for b in &input.batches {
                    n += engine.push_columns(b).len();
                }
                n += engine.flush().len();
                std::hint::black_box(n);
                Ok(input.events as f64 / t0.elapsed().as_secs_f64())
            }
            Workload::Alarm100q => {
                // 100 plain engines sharing one predicate index, as the
                // runtime's shard wires its broadcast queries.
                let mut index = SharedPredIndex::new();
                let mut engines = Vec::with_capacity(ALARM_QUERIES);
                for (text, _) in self.queries() {
                    let parts = self.compile(&text)?;
                    let mut e = parts.engine().map_err(err)?;
                    e.set_shared_slots(std::sync::Arc::new(index.register(&parts.intake)));
                    engines.push(e);
                }
                let t0 = Instant::now();
                let mut n = 0usize;
                for b in &input.batches {
                    index.begin_batch();
                    for e in &mut engines {
                        n += e.push_columns_shared(b, Some(&mut index)).len();
                    }
                }
                for e in &mut engines {
                    n += e.flush().len();
                }
                std::hint::black_box(n);
                Ok(input.events as f64 / t0.elapsed().as_secs_f64())
            }
            Workload::WeblogDisordered => {
                // What the shard evaluates after the reorder stage: the
                // time-ordered survivors, per-event record intake.
                let (sorted, _) = weblog_survivors(input);
                let mut engine = self.compile(QUERY8)?.partitioned_engine("ip").map_err(err)?;
                let t0 = Instant::now();
                let mut n = 0usize;
                for c in sorted.chunks(self.chunk()) {
                    n += engine.push_batch(c).len();
                }
                n += engine.flush().len();
                std::hint::black_box(n);
                Ok(input.events as f64 / t0.elapsed().as_secs_f64())
            }
        }
    }
}

fn tally(engine: &Engine, out: &[Record], t: &mut Tally) {
    for rec in out {
        t.add(&content_signature(engine, rec));
    }
}

/// A match's `record_signature` with each bound event's identity replaced
/// by a hash of its content (timestamp and field values).
///
/// Identities alone do not survive the served path: events the reorder
/// stage still holds when `Runtime::shutdown` drains it are re-packed into
/// new batches, so a match completed at shutdown binds copies whose
/// `identity()` differs from the ingested handles' (README, "Correctness
/// gate"). Content is what the copies preserve.
fn content_signature(engine: &Engine, rec: &Record) -> Vec<Vec<u64>> {
    let content = |id: usize| {
        let event =
            rec.slots().iter().flat_map(|s| s.events()).find(|e| e.identity() as usize == id);
        let mut h = DefaultHasher::new();
        match event {
            Some(e) => {
                e.ts().hash(&mut h);
                for i in 0..e.schema().fields().len() {
                    e.value(i).hash_key().hash(&mut h);
                }
            }
            // Unreachable for a signature of this very record; hashed
            // distinctly so it can never pass for a real event.
            None => (u64::MAX, id).hash(&mut h),
        }
        h.finish()
    };
    engine
        .record_signature(rec)
        .into_iter()
        .map(|ids| ids.into_iter().map(content).collect())
        .collect()
}

/// The reorder stage's acceptance rule over one source, applied to the
/// arrival stream: an event is late when its timestamp plus the slack is
/// below the highest timestamp accepted so far. Returns the survivors
/// stably sorted by timestamp (the order the stage releases them in) and
/// the number of late events.
fn weblog_survivors(input: &Input) -> (Vec<EventRef>, u64) {
    let mut hw: Ts = 0;
    let mut late = 0u64;
    let mut survivors = Vec::with_capacity(input.events);
    for e in input.records.iter().flatten() {
        if e.ts().saturating_add(WEBLOG_SLACK) < hw {
            late += 1;
        } else {
            hw = hw.max(e.ts());
            survivors.push(e.clone());
        }
    }
    survivors.sort_by_key(|e| e.ts());
    (survivors, late)
}

/// The `multi_query_scaling` pool: one pattern that fires (selective but
/// satisfiable) and fifteen alarm patterns whose per-class band filters
/// each pass 30–70% of rows and jointly pass none.
fn alarm_pool() -> Vec<String> {
    let mut srcs =
        vec!["PATTERN A; B WHERE A.price > 99.5 AND B.price > 99.5 WITHIN 20".to_string()];
    for i in 0..15u32 {
        let p_hi = 30 + i * 4;
        let v_hi = 150 + i * 55;
        srcs.push(format!(
            "PATTERN A; B WHERE A.price > {p_hi} AND A.price < {} \
             AND B.volume > {v_hi} AND B.volume < {} WITHIN 8",
            p_hi - 5,
            v_hi - 50,
        ));
    }
    srcs
}

/// Computes [`content_signature`]s for matches of registered queries —
/// also for the matches `Runtime::shutdown` returns, when the runtime (and
/// with it `Runtime::record_signature`) is gone. A signature reads only the
/// plan's class layout, which the optimizer derives deterministically from
/// the query text, so an engine compiled from the same text signs the
/// runtime's matches exactly as the runtime's template would.
pub struct Signer {
    engines: Vec<Engine>,
    /// Registration index → engine.
    of_query: Vec<usize>,
}

impl Signer {
    /// The signature of a match of registered query `query`; `None` for an
    /// unknown query.
    pub fn sign(&self, query: usize, rec: &Record) -> Option<Vec<Vec<u64>>> {
        let engine = &self.engines[*self.of_query.get(query)?];
        Some(content_signature(engine, rec))
    }
}

/// Per-phase set-up wall times.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimings {
    /// `EngineBuilder::parse` for every query.
    pub parse: Duration,
    /// `EngineBuilder::compile` (optimizer + intake) for every query.
    pub compile: Duration,
    /// `RuntimeBuilder::register` for every query plus `build`.
    pub build: Duration,
}

impl SetupTimings {
    /// Whole set-up time.
    pub fn total(&self) -> Duration {
        self.parse + self.compile + self.build
    }
}

/// A built runtime.
pub struct Served {
    /// The runtime, shard threads running.
    pub runtime: Runtime,
    /// How long each set-up phase took.
    pub timings: SetupTimings,
}

/// The expected outcome of one pass.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Per registered query (by registration index): match count and
    /// signature digest.
    pub per_query: Vec<Tally>,
    /// Events the reorder stage must reject as late.
    pub late: u64,
}

/// One workload's generated input, in arrival order.
pub struct Input {
    /// One batch per ingest call.
    pub batches: Vec<EventBatch>,
    /// The same rows as event handles, one vector per ingest call (record
    /// path only; empty otherwise).
    pub records: Vec<Vec<EventRef>>,
    /// Total events.
    pub events: usize,
    /// Events before each ingest call: the paced schedule's clock.
    pub events_before: Vec<u64>,
    /// Batch storage id → ingest-call index, to find the call that
    /// delivered a match's last event.
    call_of: HashMap<u64, u32>,
}

impl Input {
    fn new(batches: Vec<EventBatch>, path: Path) -> Input {
        let records = match path {
            Path::Records => batches.iter().map(|b| b.iter().collect()).collect(),
            Path::Columns => Vec::new(),
        };
        let mut events_before = Vec::with_capacity(batches.len());
        let mut events = 0usize;
        for b in &batches {
            events_before.push(events as u64);
            events += b.len();
        }
        let call_of = batches.iter().enumerate().map(|(i, b)| (b.data().id(), i as u32)).collect();
        Input { batches, records, events, events_before, call_of }
    }

    /// Number of ingest calls in one pass.
    pub fn calls(&self) -> usize {
        self.batches.len()
    }

    /// The ingest call that delivered the latest-arriving event of `rec`.
    pub fn last_call_of(&self, rec: &Record) -> Option<u32> {
        rec.slots()
            .iter()
            .flat_map(|s| s.events())
            .filter_map(|e| self.call_of.get(&(e.identity() >> 32)).copied())
            .max()
    }
}
