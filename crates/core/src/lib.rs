//! ZStream core: the paper's primary contribution.
//!
//! * [`cost`] — the statistics (Table 1), per-operator cost formulas
//!   (Table 2), and the dynamic-programming optimal-plan search of §5.2.3
//!   (Algorithm 5, including bushy plans),
//! * [`logical`] — rule-based pattern transformations (§5.2.1),
//! * [`physical`] — tree plans with leaf/internal buffers (§4.1–4.2) and the
//!   operator algorithms of §4.4: SEQ, NSEQ, CONJ, DISJ, KSEQ and the
//!   negation-on-top filter,
//! * [`engine`] — the batch-iterator evaluation model of §4.3 (idle and
//!   assembly rounds, EAT push-down),
//! * [`intake`] — compiled intake predicates (§4.1 push-down over columns)
//!   and the [`SharedPredIndex`] every column kernel evaluates through,
//!   once per batch for a whole registry of queries,
//! * [`adaptive`] — runtime statistics sampling and on-the-fly plan
//!   switching (§5.3),
//! * [`metrics`] — throughput and the logical peak-memory accounting used to
//!   reproduce Tables 3 and 5,
//! * [`mod@reference`] — a brute-force oracle matcher used by the test suite to
//!   validate every plan shape and the NFA baseline.

pub mod adaptive;
pub mod builder;
pub mod cost;
pub mod engine;
pub mod error;
pub mod intake;
pub mod logical;
pub mod metrics;
pub mod obs;
pub mod partition;
pub mod physical;
pub mod reference;

pub use adaptive::{AdaptiveConfig, AdaptiveEngine};
pub use builder::{build_intake, CompiledParts, CompiledQuery, EngineBuilder, EngineConfig};
pub use cost::dp::{plan_cost, search_optimal, spec_with_shape, NegStrategy, PlanSpec};
pub use cost::model::{CostModel, OperatorCost};
pub use cost::shape::PlanShape;
pub use cost::stats::Statistics;
pub use engine::Engine;
pub use error::CoreError;
pub use intake::SharedPredIndex;
pub use metrics::EngineMetrics;
pub use obs::EngineObs;
pub use partition::{can_partition_by, PartitionedEngine};
pub use physical::{PhysicalPlan, PlanConfig};
pub use reference::{reference_signatures, Signature};
