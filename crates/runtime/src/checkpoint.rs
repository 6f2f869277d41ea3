//! Durable state: the versioned checkpoint container and configuration
//! fingerprint.
//!
//! A checkpoint captures the full runtime — per-shard engine buffers, the
//! reorder stage's pending tree and per-source high-water marks, the
//! merger's frontier and buffered matches, dead-letter queues, and
//! aggregated metrics — as one self-describing file:
//!
//! ```text
//! "ZSTCKPT\0"  magic            (8 bytes)
//! version      u32 little-endian (currently 2)
//! payload      one zstream_events::Snapshot stream:
//!   checkpoint sequence  u64
//!   CONFIG   fingerprint of the producing configuration (validated on
//!            restore: workers, batch size, heartbeat interval, slack,
//!            sources, lateness policy), the home-shard rotation counter,
//!            and the **live registry**: one entry per registry slot —
//!            tombstones included — carrying the live slots' pause flag,
//!            resolved route, and query shape
//!   RUNTIME  watermark, per-shard sent-watermarks, per-slot dropped
//!            counts, heartbeat phase, per-slot aggregated metrics, dead
//!            letters, per-source last-chunk digests (the
//!            idempotent-replay guard)
//!   MERGE    per-shard frontier watermarks + buffered matches
//!   REORDER  presence flag + pending tree / high-water marks
//!   SHARDS   per shard: alive flag; if alive, emission seq + a
//!            length-prefixed self-contained engine blob
//!   END      closing tag
//! ```
//!
//! ## Corruption vs. drift
//!
//! Restore distinguishes two failure classes. A file that cannot be
//! decoded — truncation, bad tags, out-of-range values — is **corrupt**
//! ([`crate::RuntimeError::Checkpoint`]): re-fetch the file. A file that
//! decodes fine but was written by a *different logical deployment* — a
//! changed scalar knob, or a query set that no longer lines up with what
//! the restoring builder registered — is **drift**
//! ([`crate::RuntimeError::CheckpointDrift`]): fix the configuration, the
//! file is healthy.
//!
//! ## Restore semantics for a changed query set
//!
//! The CONFIG section snapshots the **live registry at checkpoint time**,
//! not the build-time query set: queries added by
//! [`crate::Runtime::create`] are included, queries removed by
//! [`crate::Runtime::drop_query`] appear as tombstones. The restoring
//! builder must register exactly the checkpoint's *live* queries, in slot
//! order (compiled parts in, routes come **from the checkpoint** — a
//! dynamically created query's home shard is rotation state that cannot be
//! re-derived from registration order). Each registered `(parts,
//! partitioning)` pair is validated against its slot's stored route and
//! shape; any disagreement is drift, and the restored runtime re-creates
//! the tombstones so every pre-checkpoint [`crate::QueryId`] keeps its
//! meaning.
//!
//! Checkpoints are **self-contained** (a file restores on its own — no
//! chain of deltas to replay) and incremental in *stream position*: the
//! cost of a checkpoint is proportional to the state the window still
//! holds, O(window), never to the length of the stream already processed.
//!
//! The quiesce protocol is channel FIFO: the control thread sends
//! [`crate::shard::ShardMsg::Snapshot`] down each live shard's bounded
//! input channel, so each shard serializes only after evaluating every
//! batch sent before the marker — no pause flag, no barrier, in-flight
//! `Output` replies are simply folded into the merger (not emitted) while
//! the control thread awaits the snapshot replies.
//!
//! **Observability is deliberately not checkpoint state.** The metric
//! registry, trace ring, and decision log (`zstream_obs`) describe a
//! *process*, not the *stream*: counters answer "what has this runtime
//! done since it started", and resuming them from a checkpoint would
//! conflate two processes' work, double-count the replayed tail (replayed
//! chunks are re-ingested and re-counted), and make scrape deltas
//! nonsensical across the restore boundary. A restored runtime therefore
//! starts a fresh hub with every instrument at zero — exactly what a
//! Prometheus-style collector expects after a process restart (counter
//! resets are its native signal). Only the *report-level* aggregated
//! [`zstream_core::EngineMetrics`] — part of the durable accounting — are
//! carried in the RUNTIME section. The fingerprint hashes nothing from the
//! observability plane for the same reason: two runtimes that differ only
//! in attached instruments are interchangeable for restore. Asserted by
//! `tests/observability.rs::restore_restarts_observability_from_zero`.

// Decode paths must fail with errors, never panic: zlint rule `panic`
// enforces the invariant at lint time, and this clippy layer makes the
// worst offender unrepresentable at compile time too.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::fmt;

use zstream_core::{can_partition_by, CompiledParts};
use zstream_events::{SnapshotError, SnapshotReader, SnapshotResult, SnapshotWriter, Ts};

use crate::error::RuntimeError;
use crate::registry::{Partitioning, QueryDef, QueryState, Route};
use crate::runtime::LatenessPolicy;

/// File magic: identifies a ZStream checkpoint.
pub(crate) const MAGIC: [u8; 8] = *b"ZSTCKPT\0";

/// Current checkpoint format version. Bump on any incompatible layout
/// change; [`crate::RuntimeBuilder::restore`] rejects versions it cannot
/// read. A checked-in golden fixture (`tests/checkpoint_golden.rs`) makes
/// silent format breakage a CI failure.
///
/// v2: the CONFIG section snapshots the live registry (per-slot live
/// flag, pause flag, route) plus the home-shard rotation counter, instead
/// of v1's build-time query list.
pub(crate) const VERSION: u32 = 2;

/// Section tags: cheap structural redundancy so a desynchronized reader
/// fails with "expected section X" instead of decoding garbage.
pub(crate) const TAG_CONFIG: u8 = 1;
pub(crate) const TAG_RUNTIME: u8 = 2;
pub(crate) const TAG_MERGE: u8 = 3;
pub(crate) const TAG_REORDER: u8 = 4;
pub(crate) const TAG_SHARDS: u8 = 5;
pub(crate) const TAG_END: u8 = 6;

/// Identifier of one completed checkpoint: the runtime's monotone
/// checkpoint sequence number. Carried inside the file, so a checkpoint of
/// a restored runtime continues the sequence instead of restarting it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CheckpointId(pub(crate) u64);

impl CheckpointId {
    /// The monotone sequence number of this checkpoint.
    pub fn sequence(self) -> u64 {
        self.0
    }
}

impl fmt::Display for CheckpointId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ckpt-{}", self.0)
    }
}

/// The scalar half of the configuration fingerprint (the per-query half
/// comes from the resolved [`QueryDef`]s).
pub(crate) struct Fingerprint {
    pub workers: usize,
    pub batch_size: usize,
    pub heartbeat_interval: usize,
    pub slack: Option<Ts>,
    pub sources: usize,
    pub lateness: LatenessPolicy,
}

fn lateness_tag(p: LatenessPolicy) -> u8 {
    match p {
        LatenessPolicy::Drop => 0,
        LatenessPolicy::DeadLetter => 1,
        LatenessPolicy::Strict => 2,
    }
}

/// Serializes the configuration fingerprint and the live registry.
/// Everything that shapes what a shard's state *means* is covered — worker
/// count (key → shard mapping), batch size (chunking determinism), the
/// home-shard rotation counter, and per slot the live/pause flags, routing,
/// class count and window — while the knob that only affects scheduling
/// (channel capacity) is deliberately free to differ across restore.
pub(crate) fn write_fingerprint(
    w: &mut SnapshotWriter,
    fp: &Fingerprint,
    homes: usize,
    queries: &[QueryState],
) {
    w.u64(fp.workers as u64);
    w.u64(fp.batch_size as u64);
    w.u64(fp.heartbeat_interval as u64);
    w.opt_u64(fp.slack);
    w.u64(fp.sources as u64);
    w.u8(lateness_tag(fp.lateness));
    w.u64(homes as u64);
    w.len(queries.len());
    for state in queries {
        let Some(def) = state.def.as_deref() else {
            w.u8(0);
            continue;
        };
        w.u8(1);
        w.u8(u8::from(state.paused));
        match &def.route {
            Route::Hash(field) => {
                w.u8(0);
                w.str(field);
            }
            Route::Single(home) => {
                w.u8(1);
                w.u64(*home as u64);
            }
        }
        let aq = def.parts.analyzed();
        w.u64(aq.num_classes() as u64);
        w.u64(aq.window);
    }
}

/// A checkpoint configuration disagreement: the file is healthy but was
/// written by a different logical deployment.
fn drift(msg: String) -> RuntimeError {
    RuntimeError::CheckpointDrift(msg)
}

/// An undecodable flag/tag value: the file itself is damaged.
fn corrupt(msg: String) -> RuntimeError {
    RuntimeError::Checkpoint(msg)
}

/// Validates the restoring configuration against a checkpoint's
/// fingerprint and reconstructs the registry it describes: the builder's
/// registered queries are consumed positionally by the checkpoint's *live*
/// slots (ascending slot order), each validated against its slot's stored
/// route and shape; tombstoned slots restore as tombstones. Returns the
/// home-shard rotation counter and, per slot, the resolved definition plus
/// pause flag (`None` for tombstones).
///
/// Value disagreements are [`RuntimeError::CheckpointDrift`] (fix the
/// configuration); undecodable bytes are [`RuntimeError::Checkpoint`]
/// (re-fetch the file).
#[allow(clippy::type_complexity)]
pub(crate) fn check_fingerprint(
    r: &mut SnapshotReader<'_>,
    fp: &Fingerprint,
    registered: Vec<(CompiledParts, Partitioning)>,
) -> Result<(usize, Vec<Option<(QueryDef, bool)>>), RuntimeError> {
    fn expect<T: PartialEq + fmt::Debug>(
        what: &str,
        stored: T,
        ours: T,
    ) -> Result<(), RuntimeError> {
        if stored == ours {
            Ok(())
        } else {
            Err(RuntimeError::CheckpointDrift(format!(
                "checkpoint has {what} {stored:?}, restoring runtime has {ours:?}"
            )))
        }
    }
    expect("workers", r.u64()?, fp.workers as u64)?;
    expect("batch_size", r.u64()?, fp.batch_size as u64)?;
    expect("heartbeat_interval", r.u64()?, fp.heartbeat_interval as u64)?;
    expect("slack", r.opt_u64()?, fp.slack)?;
    expect("sources", r.u64()?, fp.sources as u64)?;
    expect("lateness policy", r.u8()?, lateness_tag(fp.lateness))?;
    let homes = usize::try_from(r.u64()?)
        .map_err(|_| corrupt("home-shard rotation counter exceeds usize".into()))?;
    let slots = r.len()?;
    let mut registered = registered.into_iter();
    let mut out = Vec::with_capacity(slots);
    for slot in 0..slots {
        match r.u8()? {
            0 => {
                out.push(None);
                continue;
            }
            1 => {}
            flag => return Err(corrupt(format!("slot {slot}: bad live flag {flag}"))),
        }
        let paused = match r.u8()? {
            0 => false,
            1 => true,
            flag => return Err(corrupt(format!("slot {slot}: bad pause flag {flag}"))),
        };
        let route = match r.u8()? {
            0 => Route::Hash(r.str()?),
            1 => {
                let home = usize::try_from(r.u64()?)
                    .ok()
                    .filter(|h| *h < fp.workers)
                    .ok_or_else(|| corrupt(format!("slot {slot}: home shard out of range")))?;
                Route::Single(home)
            }
            tag => return Err(corrupt(format!("slot {slot}: bad route kind {tag}"))),
        };
        let classes = r.u64()?;
        let window = r.u64()?;
        let Some((parts, partitioning)) = registered.next() else {
            return Err(drift(format!(
                "checkpoint has more live queries than the restoring runtime registered \
                 (live slot {slot} has no registered counterpart)"
            )));
        };
        // The route comes from the checkpoint (a created query's home
        // shard is rotation state); the registered partitioning must be
        // able to produce it.
        let compatible = match (&route, &partitioning) {
            (Route::Hash(field), Partitioning::Auto(f) | Partitioning::Field(f)) => {
                f == field && can_partition_by(parts.analyzed(), field)
            }
            (Route::Single(_), Partitioning::Broadcast) => true,
            (Route::Single(_), Partitioning::Auto(f)) => !can_partition_by(parts.analyzed(), f),
            _ => false,
        };
        if !compatible {
            return Err(drift(format!(
                "slot {slot}: checkpoint route {route:?} is incompatible with the registered \
                 partitioning {partitioning:?}"
            )));
        }
        let aq = parts.analyzed();
        expect(&format!("slot {slot} classes"), classes, aq.num_classes() as u64)?;
        expect(&format!("slot {slot} window"), window, aq.window)?;
        out.push(Some((QueryDef { parts, route }, paused)));
    }
    if registered.next().is_some() {
        return Err(drift(format!(
            "restoring runtime registered more queries than the checkpoint's {slots} slots \
             hold live (drop_query before the checkpoint? register only the live set)"
        )));
    }
    Ok((homes, out))
}

/// Reads and checks one section tag.
pub(crate) fn expect_tag(r: &mut SnapshotReader<'_>, tag: u8, name: &str) -> SnapshotResult<()> {
    let got = r.u8()?;
    if got != tag {
        return Err(SnapshotError::Corrupt(format!(
            "expected {name} section (tag {tag}), found tag {got}"
        )));
    }
    Ok(())
}
