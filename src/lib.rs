//! # ZStream
//!
//! A cost-based composite event processing (CEP) system, reproducing
//! *"ZStream: A Cost-based Query Processor for Adaptively Detecting Composite
//! Events"* (Mei & Madden, SIGMOD 2009).
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`events`] — event model (timestamps, values, schemas, records),
//! * [`lang`] — the PATTERN/WHERE/WITHIN/RETURN query language,
//! * [`core`] — tree-based plans, the cost model, the dynamic-programming
//!   optimizer, the physical operators and the adaptive engine,
//! * [`nfa`] — the SASE-style NFA baseline used for comparison,
//! * [`obs`] — live observability: the metric registry (counters, gauges,
//!   latency histograms), the batch-level trace ring and the planner
//!   decision log, scraped mid-stream via [`runtime::Runtime::observe`],
//! * [`runtime`] — the sharded, multi-threaded execution runtime (hash-routed
//!   worker shards, ordered match merge, multi-query registry),
//! * [`workload`] — synthetic workload generators for the paper's evaluation.
//!
//! ## Quickstart
//!
//! ```
//! use zstream::prelude::*;
//!
//! // Query 5 of the paper: a pure sequence pattern.
//! let query = Query::parse(
//!     "PATTERN IBM; Sun; Oracle WITHIN 200 RETURN IBM, Sun, Oracle",
//! ).unwrap();
//!
//! // Classes are routed by name: the standard stock schema is implied here.
//! let engine = EngineBuilder::new(query)
//!     .stock_routing()
//!     .build()
//!     .unwrap();
//! # let _ = engine;
//! ```

pub use zstream_core as core;
pub use zstream_events as events;
pub use zstream_lang as lang;
pub use zstream_nfa as nfa;
pub use zstream_obs as obs;
pub use zstream_runtime as runtime;
pub use zstream_workload as workload;

/// One-stop imports for applications.
pub mod prelude {
    /// Compiled artifacts (query + intake + config) ready to fan out to
    /// engines or runtime shards.
    pub use zstream_core::CompiledParts;
    /// A parsed, analyzed and optimized query, ready to instantiate.
    pub use zstream_core::CompiledQuery;
    /// The tree-plan evaluation engine (push events, collect matches).
    pub use zstream_core::Engine;
    /// Fluent constructor: query + routing + config → [`Engine`].
    pub use zstream_core::EngineBuilder;
    /// Engine tuning knobs (batch size, plan options).
    pub use zstream_core::EngineConfig;
    /// The shape of a tree plan (left-deep, right-deep, bushy).
    pub use zstream_core::PlanShape;
    /// Per-class rates and predicate selectivities fed to the optimizer.
    pub use zstream_core::Statistics;
    /// Convenience constructor for stock-schema events.
    pub use zstream_events::stock;
    /// A primitive event: one timestamp plus a row of typed values.
    pub use zstream_events::Event;
    /// A shared, immutable handle to an [`Event`].
    pub use zstream_events::EventRef;
    /// A composite result: event pointers plus a start and an end time.
    pub use zstream_events::Record;
    /// A typed attribute layout for primitive events.
    pub use zstream_events::Schema;
    /// One cell of a [`Record`]: an event, a closure group, or NSEQ's NULL.
    pub use zstream_events::Slot;
    /// A dynamically typed attribute value.
    pub use zstream_events::Value;
    /// A parsed PATTERN/WHERE/WITHIN/RETURN query.
    pub use zstream_lang::Query;
    /// The observability hub: metric registry + trace ring + decision log.
    pub use zstream_obs::Obs;
    /// A point-in-time scrape of the hub (JSON / Prometheus renderable).
    pub use zstream_obs::ObsSnapshot;
    /// Identity of one durable snapshot written by [`Runtime::checkpoint`].
    pub use zstream_runtime::CheckpointId;
    /// What to do with events beyond the reorder slack window
    /// (drop / dead-letter / strict error).
    pub use zstream_runtime::LatenessPolicy;
    /// Shard routing policy of a registered query (auto / forced / broadcast).
    pub use zstream_runtime::Partitioning;
    /// Identifier of a query registered with the runtime.
    pub use zstream_runtime::QueryId;
    /// The sharded, multi-threaded execution runtime.
    pub use zstream_runtime::Runtime;
    /// Fluent constructor: workers + batch size + registered queries → [`Runtime`].
    pub use zstream_runtime::RuntimeBuilder;
    /// One composite match produced by the runtime (query, shard, record).
    pub use zstream_runtime::RuntimeMatch;
    /// Final accounting returned by [`Runtime::shutdown`].
    pub use zstream_runtime::RuntimeReport;
    /// Arrival-order disorder model for generated workload streams.
    pub use zstream_workload::DisorderSpec;
    /// Configuration of a synthetic stock stream (rates, prices, length).
    pub use zstream_workload::StockConfig;
    /// Deterministic generator of synthetic stock-trade events.
    pub use zstream_workload::StockGenerator;
}
