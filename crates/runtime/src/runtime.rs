//! The runtime proper: router, worker pool, merger, lifecycle.

use std::collections::HashMap;
use std::sync::mpsc::{channel, sync_channel, Receiver, SyncSender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;

use zstream_core::{CompiledParts, EngineMetrics};
use zstream_events::{
    repack_events, split_batch_rows, split_by_field, ColumnarReorder, EventBatch, EventRef, Record,
    Snapshot, SnapshotReader, SnapshotWriter, Ts,
};
use zstream_obs::{labels, Obs, ObsSnapshot, TraceKind};

use crate::checkpoint::{
    check_fingerprint, expect_tag, write_fingerprint, CheckpointId, Fingerprint, MAGIC, TAG_CONFIG,
    TAG_END, TAG_MERGE, TAG_REORDER, TAG_RUNTIME, TAG_SHARDS, VERSION,
};
use crate::error::RuntimeError;
use crate::instruments::RtInstruments;
use crate::merge::{OrderedMerge, RuntimeMatch};
use crate::registry::{
    next_live_home, resolve_route, resolve_routes, Partitioning, QueryId, QueryState, Route,
};
use crate::shard::{build_engines, restore_engines, run_shard, RowSel, ShardMsg, ShardReply};

/// What to do with an event that arrives beyond the reorder slack window
/// (§4.1: it can no longer be placed in time order).
///
/// Under `Drop` and `DeadLetter`, late events are counted (`late_events`
/// in [`EngineMetrics`] / [`RuntimeReport`]) and the policy decides what
/// else happens. `Strict` rejects the whole ingest call *before* anything
/// reaches the reorder stage, so its rejections surface as
/// [`RuntimeError::TooLate`] errors, not counter increments (the caller
/// may re-ingest the call minus the late rows; counting here would then
/// double-book). Only meaningful together with [`RuntimeBuilder::slack`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum LatenessPolicy {
    /// Discard late events (the default): counted, then dropped.
    #[default]
    Drop,
    /// Keep late events for the caller: counted, then retained in arrival
    /// order until drained with [`Runtime::take_late_events`] — a
    /// dead-letter queue for out-of-band handling.
    DeadLetter,
    /// Fail fast: the ingest call carrying a late event returns
    /// [`RuntimeError::TooLate`] and is rejected **whole** (all-or-nothing);
    /// the runtime itself is not poisoned — subsequent ingest calls work.
    Strict,
}

/// Configures and constructs a [`Runtime`].
///
/// ```
/// use zstream_core::EngineBuilder;
/// use zstream_runtime::{Partitioning, Runtime};
///
/// let mut builder = Runtime::builder().workers(4).batch_size(256);
/// let q = builder.register(
///     EngineBuilder::parse("PATTERN A; B WHERE A.name = B.name WITHIN 10")
///         .unwrap()
///         .compile()
///         .unwrap(),
///     Partitioning::Auto("name".into()),
/// );
/// let runtime = builder.build().unwrap();
/// # let _ = (q, runtime);
/// ```
#[derive(Debug)]
pub struct RuntimeBuilder {
    workers: usize,
    batch_size: usize,
    channel_capacity: usize,
    slack: Option<Ts>,
    lateness: LatenessPolicy,
    sources: usize,
    defs: Vec<(CompiledParts, Partitioning)>,
    obs: Option<Arc<Obs>>,
}

impl Default for RuntimeBuilder {
    fn default() -> Self {
        RuntimeBuilder {
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            batch_size: 512,
            channel_capacity: 4,
            slack: None,
            lateness: LatenessPolicy::Drop,
            sources: 1,
            defs: Vec::new(),
            obs: None,
        }
    }
}

impl RuntimeBuilder {
    /// Starts from the defaults: one worker per available core, batch size
    /// 512, four batches of channel slack per shard.
    pub fn new() -> RuntimeBuilder {
        RuntimeBuilder::default()
    }

    /// Number of worker shards (≥ 1).
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Events per routed batch: each call to [`Runtime::ingest`] is chopped
    /// into chunks of this size. Larger batches amortize messaging; smaller
    /// batches lower match latency (≥ 1). [`Runtime::ingest_columns`] is not
    /// re-chunked — the caller's batch is the unit of work.
    pub fn batch_size(mut self, n: usize) -> Self {
        self.batch_size = n;
        self
    }

    /// Bounded capacity, in batches, of each shard's input channel (≥ 1).
    /// This is the backpressure knob: once a shard falls this many batches
    /// behind, [`Runtime::ingest`] blocks instead of buffering further.
    pub fn channel_capacity(mut self, n: usize) -> Self {
        self.channel_capacity = n;
        self
    }

    /// Enables the §4.1 reordering stage in front of ingest, tolerating
    /// out-of-order arrival up to `slack` time units.
    ///
    /// With slack set, [`Runtime::ingest`] / [`Runtime::ingest_columns`]
    /// accept events in **arrival order** (batches may be unsorted): events
    /// are held back in a bounded buffer, released to the shards in time
    /// order once they fall behind the release frontier
    /// `min(per-source high-water) − slack`, and events arriving more than
    /// `slack` behind their source's high-water mark are *late* — counted
    /// and handled per [`RuntimeBuilder::lateness`]. `slack = 0` means
    /// "strictly in order" (equal timestamps fine, going backwards late).
    ///
    /// The trade-off: larger slack tolerates more disorder but buffers more
    /// rows (`reorder_buffered_peak`) and delays finality by `slack` time
    /// units, since the merge frontier now trails the high-water mark by
    /// exactly the slack. Without this knob the runtime requires perfectly
    /// time-ordered input, as before.
    pub fn slack(mut self, slack: Ts) -> Self {
        self.slack = Some(slack);
        self
    }

    /// What to do with events beyond the slack window (default:
    /// [`LatenessPolicy::Drop`]). Requires [`RuntimeBuilder::slack`].
    pub fn lateness(mut self, policy: LatenessPolicy) -> Self {
        self.lateness = policy;
        self
    }

    /// Number of independent ingest sources (default 1). Each source `s`
    /// feeds [`Runtime::ingest_from`] / [`Runtime::ingest_columns_from`]
    /// and gets its **own** reorder watermark: an event is judged late only
    /// against its own source's high-water mark, while release waits for
    /// every source — so several individually ordered streams merge exactly
    /// no matter the skew between them. Requires [`RuntimeBuilder::slack`]
    /// when > 1.
    pub fn sources(mut self, n: usize) -> Self {
        self.sources = n;
        self
    }

    /// Attaches an observability hub: the runtime registers its pipeline
    /// instruments there and every shard records into it. Pass a shared
    /// hub to aggregate several runtimes into one scrape, or to scrape
    /// from another thread while this one ingests
    /// ([`Runtime::obs_handle`] returns the hub either way). Without this
    /// the runtime creates a private hub — observability is always on;
    /// the hot-path cost is relaxed atomic ops on thread-private cells.
    pub fn obs(mut self, hub: Arc<Obs>) -> Self {
        self.obs = Some(hub);
        self
    }

    /// Registers a compiled query; returns its id (assigned in
    /// registration order). Routing soundness is checked at [`build`].
    ///
    /// [`build`]: RuntimeBuilder::build
    pub fn register(&mut self, parts: CompiledParts, partitioning: Partitioning) -> QueryId {
        let id = QueryId(self.defs.len());
        self.defs.push((parts, partitioning));
        id
    }

    /// The configuration checks shared by [`build`] and [`restore`].
    ///
    /// [`build`]: RuntimeBuilder::build
    /// [`restore`]: RuntimeBuilder::restore
    fn validate(&self) -> Result<(), RuntimeError> {
        if self.workers == 0 {
            return Err(RuntimeError::InvalidConfig("workers must be >= 1".into()));
        }
        if self.batch_size == 0 || self.channel_capacity == 0 {
            return Err(RuntimeError::InvalidConfig(
                "batch_size and channel_capacity must be >= 1".into(),
            ));
        }
        if self.defs.is_empty() {
            return Err(RuntimeError::InvalidConfig("no queries registered".into()));
        }
        if self.sources == 0 {
            return Err(RuntimeError::InvalidConfig("sources must be >= 1".into()));
        }
        if self.slack.is_none() {
            if self.sources > 1 {
                return Err(RuntimeError::InvalidConfig(
                    "multiple sources require the reorder stage: set slack(..) \
                     (per-source watermarks only exist there)"
                        .into(),
                ));
            }
            if self.lateness != LatenessPolicy::Drop {
                return Err(RuntimeError::InvalidConfig(
                    "a lateness policy requires the reorder stage: set slack(..)".into(),
                ));
            }
        }
        Ok(())
    }

    /// Validates the configuration, resolves every query's routing, spawns
    /// the worker shards, and returns the running [`Runtime`].
    pub fn build(self) -> Result<Runtime, RuntimeError> {
        self.validate()?;
        let obs = self.obs.clone().unwrap_or_default();
        let inst = RtInstruments::register(&obs, self.sources, self.workers);
        let (defs, homes) = resolve_routes(self.defs, self.workers)?;
        // One template engine per query stays on the control thread; it
        // never sees events and exists to interpret records (signatures,
        // RETURN formatting) without reaching into worker state.
        let mut queries = Vec::with_capacity(defs.len());
        for def in defs {
            let template = def.parts.engine()?;
            queries.push(QueryState::live(def, template));
        }

        let (reply_tx, replies) = channel::<ShardReply>();
        let mut senders = Vec::with_capacity(self.workers);
        let mut handles = Vec::with_capacity(self.workers);
        for shard in 0..self.workers {
            let (engines, shared) = build_engines(&queries, shard, &obs)?;
            let service_ns = obs
                .metrics
                .histogram("zstream_shard_service_ns", labels(&[("shard", &shard.to_string())]));
            let (tx, rx) = sync_channel::<ShardMsg>(self.channel_capacity);
            let reply_tx = reply_tx.clone();
            let hub = Arc::clone(&obs);
            let handle = std::thread::Builder::new()
                .name(format!("zstream-shard-{shard}"))
                .spawn(move || run_shard(shard, engines, shared, rx, reply_tx, 0, service_ns, hub))
                .map_err(|e| RuntimeError::InvalidConfig(format!("spawn failed: {e}")))?;
            senders.push(tx);
            handles.push(handle);
        }
        let merge = OrderedMerge::new(self.workers);
        let reorder = self.slack.map(|s| ColumnarReorder::with_sources(s, self.sources));
        let runtime = Runtime {
            senders,
            replies,
            handles,
            obs,
            inst,
            queries,
            homes,
            merge,
            batch_size: self.batch_size,
            watermark: 0,
            reorder,
            slack: self.slack,
            sources: self.sources,
            lateness: self.lateness,
            dead_letters: Vec::new(),
            checkpoint_seq: 0,
            last_chunk_digest: vec![None; self.sources],
            replay_guard: vec![None; self.sources],
            snapshot_stash: Vec::new(),
        };
        runtime.publish_queries_live();
        Ok(runtime)
    }

    /// Rebuilds a runtime from a checkpoint written by
    /// [`Runtime::checkpoint`], instead of starting empty.
    ///
    /// The builder must describe **the same logical deployment** that wrote
    /// the checkpoint: same worker count, batch size, slack/sources/lateness, and the checkpoint's **live** queries
    /// registered in slot order with compatible partitioning — queries
    /// added by [`Runtime::create`] included, queries removed by
    /// [`Runtime::drop_query`] omitted (their tombstones are re-created
    /// automatically, so restored [`QueryId`]s keep their meaning). The
    /// fingerprint is validated field by field: any value disagreement is
    /// a [`RuntimeError::CheckpointDrift`] naming the first difference
    /// (fix the configuration), while an undecodable file is a
    /// [`RuntimeError::Checkpoint`] (the file is damaged). A different
    /// `channel_capacity` is allowed: it shapes backpressure, not state.
    /// Shards that had left the pool (worker failure) before the
    /// checkpoint are restored as already-departed: their matches are
    /// final, events routed to them count as dropped.
    ///
    /// After restore the runtime is **replay-armed**: if the first ingest
    /// call a source makes is byte-identical in content to the last chunk
    /// that source ingested before the checkpoint, it is recognized (by
    /// content digest) and skipped, so an at-least-once upstream that
    /// replays its unacknowledged tail does not double-count a chunk whose
    /// effects the checkpoint already captured. Any other first ingest
    /// disarms the guard for that source.
    pub fn restore<R: std::io::Read>(self, input: &mut R) -> Result<Runtime, RuntimeError> {
        let mut data = Vec::new();
        input
            .read_to_end(&mut data)
            .map_err(|e| RuntimeError::Checkpoint(format!("reading checkpoint: {e}")))?;
        if data.len() < MAGIC.len() + 4 || data[..MAGIC.len()] != MAGIC {
            return Err(RuntimeError::Checkpoint("not a ZStream checkpoint (bad magic)".into()));
        }
        let version = data
            .get(MAGIC.len()..MAGIC.len() + 4)
            .and_then(|b| <[u8; 4]>::try_from(b).ok())
            .map(u32::from_le_bytes)
            .ok_or_else(|| RuntimeError::Checkpoint("truncated checkpoint header".into()))?;
        if version != VERSION {
            return Err(RuntimeError::Checkpoint(format!(
                "unsupported checkpoint version {version} (this build reads version {VERSION})"
            )));
        }
        self.validate()?;
        // Fresh hub and instruments: observability is deliberately not
        // checkpoint state, so a restored runtime's counters start from
        // zero (see the checkpoint module docs for why).
        let obs = self.obs.clone().unwrap_or_default();
        let inst = RtInstruments::register(&obs, self.sources, self.workers);
        let workers = self.workers;
        let fp = Fingerprint {
            workers,
            batch_size: self.batch_size,
            slack: self.slack,
            sources: self.sources,
            lateness: self.lateness,
        };

        let mut r = SnapshotReader::new(&data[MAGIC.len() + 4..]);
        let checkpoint_seq = r.u64()?;
        expect_tag(&mut r, TAG_CONFIG, "CONFIG")?;
        // The builder's registered queries map positionally onto the
        // checkpoint's live slots; routes come from the checkpoint and
        // tombstones are re-created, so every pre-checkpoint QueryId keeps
        // its meaning (see the checkpoint module docs).
        let (homes, slots) = check_fingerprint(&mut r, &fp, self.defs)?;
        let mut queries = Vec::with_capacity(slots.len());
        for slot in slots {
            queries.push(match slot {
                Some((def, paused)) => {
                    let template = def.parts.engine()?;
                    let mut state = QueryState::live(def, template);
                    state.paused = paused;
                    state
                }
                None => QueryState::tombstone(),
            });
        }

        expect_tag(&mut r, TAG_RUNTIME, "RUNTIME")?;
        let watermark = r.u64()?;
        // Reserved per-shard slots (see the checkpoint module docs).
        let n = r.len()?;
        if n != workers {
            return Err(RuntimeError::Checkpoint(format!(
                "checkpoint has {n} shard watermarks, expected {workers}"
            )));
        }
        for _ in 0..workers {
            r.u64()?;
        }
        let n = r.len()?;
        if n != queries.len() {
            return Err(RuntimeError::Checkpoint(format!(
                "checkpoint has {n} dropped counters, expected {}",
                queries.len()
            )));
        }
        for state in queries.iter_mut() {
            state.dropped = r.u64()?;
        }
        r.u64()?; // reserved
        let n = r.len()?;
        if n != queries.len() {
            return Err(RuntimeError::Checkpoint(format!(
                "checkpoint has {n} metric sets, expected {}",
                queries.len()
            )));
        }
        for state in queries.iter_mut() {
            state.metrics = EngineMetrics::restore_snapshot(&mut r)?;
        }
        let n = r.len()?;
        let mut dead_letters = Vec::with_capacity(n);
        for _ in 0..n {
            dead_letters.push(r.event()?);
        }
        let n = r.len()?;
        if n != self.sources {
            return Err(RuntimeError::Checkpoint(format!(
                "checkpoint has {n} source digests, expected {}",
                self.sources
            )));
        }
        let mut last_chunk_digest = Vec::with_capacity(self.sources);
        for _ in 0..self.sources {
            last_chunk_digest.push(r.opt_u64()?);
        }

        expect_tag(&mut r, TAG_MERGE, "MERGE")?;
        let merge = OrderedMerge::restore_snapshot(&mut r, |q| {
            queries.get(q).is_some_and(QueryState::is_live)
        })?;
        if merge.num_shards() != workers {
            return Err(RuntimeError::Checkpoint(format!(
                "checkpoint merger tracks {} shards, expected {workers}",
                merge.num_shards()
            )));
        }

        expect_tag(&mut r, TAG_REORDER, "REORDER")?;
        let reorder = match (r.bool()?, self.slack.is_some()) {
            (true, true) => Some(ColumnarReorder::restore_snapshot(&mut r)?),
            (false, false) => None,
            (present, _) => {
                // The fingerprint already pins slack; reaching here means
                // the stream itself is inconsistent.
                return Err(RuntimeError::Checkpoint(format!(
                    "reorder section presence ({present}) contradicts the fingerprint"
                )));
            }
        };
        if let Some(ro) = &reorder {
            if ro.num_sources() != self.sources {
                return Err(RuntimeError::Checkpoint(format!(
                    "restored reorder stage has {} sources, expected {}",
                    ro.num_sources(),
                    self.sources
                )));
            }
        }

        expect_tag(&mut r, TAG_SHARDS, "SHARDS")?;
        let n = r.len()?;
        if n != workers {
            return Err(RuntimeError::Checkpoint(format!(
                "checkpoint has {n} shard entries, expected {workers}"
            )));
        }
        let (reply_tx, replies) = channel::<ShardReply>();
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for shard in 0..workers {
            let alive = r.bool()?;
            if alive == merge.is_finished(shard) {
                return Err(RuntimeError::Checkpoint(format!(
                    "shard {shard}: alive flag contradicts the merger's frontier state"
                )));
            }
            let (tx, rx) = sync_channel::<ShardMsg>(self.channel_capacity);
            // Registered for departed shards too, so the instrument
            // family has one entry per configured shard either way.
            let service_ns = obs
                .metrics
                .histogram("zstream_shard_service_ns", labels(&[("shard", &shard.to_string())]));
            let handle = if alive {
                let seq = r.u64()?;
                let blob = r.blob()?;
                let (engines, shared) = restore_engines(&queries, shard, blob, &obs)?;
                let reply_tx = reply_tx.clone();
                let hub = Arc::clone(&obs);
                std::thread::Builder::new()
                    .name(format!("zstream-shard-{shard}"))
                    .spawn(move || {
                        run_shard(shard, engines, shared, rx, reply_tx, seq, service_ns, hub)
                    })
                    .map_err(|e| RuntimeError::InvalidConfig(format!("spawn failed: {e}")))?
            } else {
                // The shard had left the pool before the checkpoint. Restore
                // it as already-departed: the thread exits immediately, so
                // any (guarded-against) send fails exactly like a send to a
                // failed worker, and handle indices stay shard-aligned.
                std::thread::Builder::new()
                    .name(format!("zstream-shard-{shard}-departed"))
                    .spawn(move || drop(rx))
                    .map_err(|e| RuntimeError::InvalidConfig(format!("spawn failed: {e}")))?
            };
            senders.push(tx);
            handles.push(handle);
        }
        expect_tag(&mut r, TAG_END, "END")?;
        if !r.is_exhausted() {
            return Err(RuntimeError::Checkpoint(format!(
                "checkpoint has {} trailing bytes",
                r.remaining()
            )));
        }
        let runtime = Runtime {
            senders,
            replies,
            handles,
            obs,
            inst,
            queries,
            homes,
            merge,
            batch_size: self.batch_size,
            watermark,
            reorder,
            slack: self.slack,
            sources: self.sources,
            lateness: self.lateness,
            dead_letters,
            checkpoint_seq,
            replay_guard: last_chunk_digest.clone(),
            last_chunk_digest,
            snapshot_stash: Vec::new(),
        };
        runtime.publish_queries_live();
        Ok(runtime)
    }
}

/// Final accounting returned by [`Runtime::shutdown`].
#[derive(Debug)]
pub struct RuntimeReport {
    /// Matches that were still buffered at shutdown, in merge order
    /// (matches already returned by [`Runtime::ingest`] / [`Runtime::poll`]
    /// are not repeated).
    pub matches: Vec<RuntimeMatch>,
    /// Per-query metrics, aggregated across shards with
    /// [`EngineMetrics::merge`], indexed by registry slot
    /// ([`QueryId::index`]). Dropped queries keep their slot: the metrics
    /// they accumulated before the drop stay reported there.
    pub query_metrics: Vec<EngineMetrics>,
    /// Grand total across queries.
    pub metrics: EngineMetrics,
    /// Per-query count of ingested events the **router** could not deliver
    /// (indexed by registry slot, like [`RuntimeReport::query_metrics`]):
    /// their schema lacked the routing field, or their shard had already
    /// been observed leaving the pool after a worker failure. Paused
    /// queries' skipped events are not counted. Best-effort
    /// around failures: events accepted into a shard's bounded channel just
    /// before it died are lost with the shard and are *not* counted here
    /// (the router cannot distinguish evaluated from queued once the
    /// receiver is gone).
    pub dropped: Vec<u64>,
    /// Number of worker shards that ran.
    pub workers: usize,
    /// Events rejected by the reorder stage as beyond the slack window
    /// (0 without [`RuntimeBuilder::slack`]). Also stamped into
    /// [`RuntimeReport::metrics`]. Under [`LatenessPolicy::DeadLetter`],
    /// counts events surfaced through [`Runtime::take_late_events`] too.
    pub late_events: u64,
    /// Peak number of rows the reorder stage held back at once — the
    /// memory cost of the configured slack (0 without a reorder stage).
    pub reorder_buffered_peak: u64,
    /// Late events retained under [`LatenessPolicy::DeadLetter`] that the
    /// caller had not drained with [`Runtime::take_late_events`] before
    /// shutdown, in arrival order — they are surfaced here rather than
    /// silently destroyed. Empty under any other policy.
    pub dead_letters: Vec<EventRef>,
}

/// A sharded, multi-threaded execution runtime for one or more compiled
/// queries.
///
/// See the [crate documentation](crate) for the architecture. Lifecycle:
/// [`RuntimeBuilder::register`] queries, [`RuntimeBuilder::build`], feed
/// time-ordered events — columnar batches through [`ingest_columns`] (the
/// fast path: one routing scan, zero-copy fan-out) or event slices through
/// [`ingest`] — collecting finalized matches as they become safe to emit,
/// and [`shutdown`] to drain in-flight batches, stop the workers, and
/// collect the remaining matches plus aggregated metrics.
///
/// [`ingest`]: Runtime::ingest
/// [`ingest_columns`]: Runtime::ingest_columns
/// [`shutdown`]: Runtime::shutdown
#[derive(Debug)]
pub struct Runtime {
    senders: Vec<SyncSender<ShardMsg>>,
    replies: Receiver<ShardReply>,
    handles: Vec<JoinHandle<()>>,
    /// The observability hub every layer records into — shared with the
    /// shard threads and with any scraping thread
    /// ([`Runtime::obs_handle`]).
    obs: Arc<Obs>,
    /// Pipeline-level instrument handles (per-source ingest counters,
    /// reorder pressure, shard queue depths, merge frontier, checkpoint
    /// accounting), pre-registered so the hot path never touches the
    /// registry.
    inst: RtInstruments,
    /// The registry: one slot per query ever registered or created, in id
    /// order. Slots are never removed or recycled — [`Runtime::drop_query`]
    /// tombstones them — so a slot index *is* a [`QueryId`] and every
    /// slot-indexed message or report stays valid across lifecycle calls.
    queries: Vec<QueryState>,
    /// Home-shard rotation counter, continued by [`Runtime::create`] so
    /// dynamically created single-shard queries keep spreading round-robin
    /// (checkpointed: restore resumes the rotation).
    homes: usize,
    merge: OrderedMerge,
    batch_size: usize,
    watermark: Ts,
    /// The §4.1 reordering stage in front of routing, when
    /// [`RuntimeBuilder::slack`] was set: disordered arrivals buffer here
    /// and the watermark is driven by its release frontier.
    reorder: Option<ColumnarReorder>,
    /// The configured slack ([`RuntimeBuilder::slack`]), kept for the
    /// checkpoint fingerprint.
    slack: Option<Ts>,
    /// The configured ingest source count, kept for the checkpoint
    /// fingerprint and replay-guard sizing.
    sources: usize,
    lateness: LatenessPolicy,
    /// Late events retained under [`LatenessPolicy::DeadLetter`], in
    /// arrival order, until the caller drains them.
    dead_letters: Vec<EventRef>,
    /// Monotone checkpoint counter; carried across restore so checkpoint
    /// ids keep increasing over the runtime's whole (durable) lifetime.
    checkpoint_seq: u64,
    /// Per-source content digest of the last non-empty chunk ingested —
    /// persisted in checkpoints so a restored runtime can recognize an
    /// at-least-once replay of the final pre-checkpoint chunk.
    last_chunk_digest: Vec<Option<u64>>,
    /// One-shot per-source replay guard, armed only by
    /// [`RuntimeBuilder::restore`]: the first post-restore ingest from a
    /// source is skipped iff its content digest equals the persisted
    /// last-chunk digest; any first ingest disarms the source's guard.
    replay_guard: Vec<Option<u64>>,
    /// Snapshot replies picked up outside [`Runtime::checkpoint`]'s own
    /// await loop (a `drain_replies` racing the protocol); the checkpoint
    /// drains this stash before blocking on the reply channel.
    snapshot_stash: Vec<(usize, u64, Vec<u8>)>,
}

impl Runtime {
    /// Starts a builder.
    pub fn builder() -> RuntimeBuilder {
        RuntimeBuilder::new()
    }

    /// Number of worker shards.
    pub fn workers(&self) -> usize {
        self.senders.len()
    }

    /// The observability hub, for sharing with a scraping thread: clone
    /// the `Arc`, move it to the scraper, and call
    /// [`zstream_obs::Obs::snapshot`] there at any time — including while
    /// this thread is blocked in an ingest call. Nothing quiesces.
    pub fn obs_handle(&self) -> Arc<Obs> {
        Arc::clone(&self.obs)
    }

    /// A cheap point-in-time scrape of metrics, trace ring, and decision
    /// log. Safe to call mid-stream: metric cells are read with relaxed
    /// atomic loads and the trace/decision planes each take one short
    /// mutex — no shard is paused, no channel is drained, ingest and
    /// evaluation continue untouched.
    pub fn observe(&self) -> ObsSnapshot {
        self.obs.snapshot()
    }

    /// Number of shards still in the pool (not finished after a worker
    /// failure).
    pub fn live_workers(&self) -> usize {
        self.senders.len() - self.merge.finished_count()
    }

    /// Number of **live** queries (registered or created, not dropped).
    pub fn num_queries(&self) -> usize {
        self.queries.iter().filter(|s| s.is_live()).count()
    }

    /// Number of registry slots ever allocated (live queries plus
    /// tombstones): the length of the slot-ordered report vectors, and the
    /// id the next [`Runtime::create`] will hand out.
    pub fn num_slots(&self) -> usize {
        self.queries.len()
    }

    /// The resolved routing of a live query.
    ///
    /// # Panics
    ///
    /// Panics when the query was dropped (its route no longer exists).
    pub fn route(&self, query: QueryId) -> &Route {
        &self.queries[query.0].def.as_ref().expect("query was dropped").route
    }

    /// Whether a query id refers to a live (not dropped) query. Unknown
    /// ids are not live.
    pub fn is_live(&self, query: QueryId) -> bool {
        self.queries.get(query.0).is_some_and(QueryState::is_live)
    }

    /// Whether a live query is currently paused.
    pub fn is_paused(&self, query: QueryId) -> bool {
        self.queries.get(query.0).is_some_and(|s| s.paused)
    }

    /// The stream watermark: without a reorder stage, the latest event
    /// timestamp ingested; with one ([`RuntimeBuilder::slack`]), the
    /// reorder release frontier `min(per-source high-water) − slack` —
    /// what drives shard watermarks and match finality.
    pub fn watermark(&self) -> Ts {
        self.watermark
    }

    /// Events rejected by the reorder stage as beyond the slack window so
    /// far (0 without [`RuntimeBuilder::slack`]).
    pub fn late_events(&self) -> u64 {
        self.reorder.as_ref().map(ColumnarReorder::late_count).unwrap_or(0)
    }

    /// Rows currently held back by the reorder stage awaiting release.
    pub fn reorder_pending(&self) -> usize {
        self.reorder.as_ref().map(ColumnarReorder::pending_len).unwrap_or(0)
    }

    /// Drains the late events retained under
    /// [`LatenessPolicy::DeadLetter`], in arrival order. Empty under any
    /// other policy.
    pub fn take_late_events(&mut self) -> Vec<EventRef> {
        std::mem::take(&mut self.dead_letters)
    }

    /// Number of matches buffered in the merger, awaiting finality.
    pub fn pending_matches(&self) -> usize {
        self.merge.pending()
    }

    /// Canonical signature of a match record (per pattern class, the
    /// identities of its bound events) — delegates to the query's template
    /// plan; see [`zstream_core::Engine::record_signature`].
    ///
    /// # Panics
    ///
    /// Panics when the query was dropped (its template no longer exists).
    pub fn record_signature(&self, query: QueryId, record: &Record) -> Vec<Vec<usize>> {
        self.queries[query.0].template.as_ref().expect("query was dropped").record_signature(record)
    }

    /// Formats a match record according to the query's RETURN clause.
    ///
    /// # Panics
    ///
    /// Panics when the query was dropped (its template no longer exists).
    pub fn format_match(&self, query: QueryId, record: &Record) -> String {
        self.queries[query.0].template.as_ref().expect("query was dropped").format_match(record)
    }

    /// Registers and starts a new query on the **live** runtime, returning
    /// its stable [`QueryId`] (ids are never recycled).
    ///
    /// Routing is resolved exactly as at build time, except the home-shard
    /// rotation skips shards that have left the pool after a worker
    /// failure — a query homed on a dead shard would silently drop every
    /// event. The new engines are instantiated on each live shard via the
    /// same channel-FIFO quiesce the checkpoint uses: the query sees
    /// exactly the events ingested after this call, and its intake
    /// predicates join each shard's predicate index
    /// ([`zstream_core::SharedPredIndex`]) so overlapping predicates are
    /// still evaluated once per batch.
    pub fn create(
        &mut self,
        parts: CompiledParts,
        partitioning: Partitioning,
    ) -> Result<QueryId, RuntimeError> {
        let id = QueryId(self.queries.len());
        let template = parts.engine()?;
        let workers = self.senders.len();
        let merge = &self.merge;
        let homes = &mut self.homes;
        let mut next = || next_live_home(homes, workers, |s| merge.is_finished(s));
        let def = Arc::new(resolve_route(parts, partitioning, id, &mut next)?);
        self.queries.push(QueryState {
            def: Some(Arc::clone(&def)),
            template: Some(template),
            paused: false,
            dropped: 0,
            metrics: EngineMetrics::default(),
        });
        for shard in 0..workers {
            // A shard that has left the pool never hosts the query; events
            // routed to it count as dropped, like any other traffic to a
            // retired shard.
            let msg = ShardMsg::Create { slot: id.0, def: Arc::clone(&def) };
            let _ = self.send_to_shard(shard, msg)?;
        }
        self.trace_lifecycle(id, "create");
        self.publish_queries_live();
        Ok(id)
    }

    /// Pauses a live query: the router stops delivering its events (they
    /// are skipped, **not** counted as dropped) until [`Runtime::resume`].
    /// Shard-side engine state is untouched, so a resumed query continues
    /// from exactly the window state it had when paused — it simply never
    /// sees the events that streamed past in between. Pausing a paused
    /// query is a no-op.
    pub fn pause(&mut self, query: QueryId) -> Result<(), RuntimeError> {
        self.live_state_mut(query)?.paused = true;
        self.trace_lifecycle(query, "pause");
        Ok(())
    }

    /// Resumes a paused query. Resuming an unpaused query is a no-op.
    pub fn resume(&mut self, query: QueryId) -> Result<(), RuntimeError> {
        self.live_state_mut(query)?.paused = false;
        self.trace_lifecycle(query, "resume");
        Ok(())
    }

    /// Drops a live query mid-stream: its slot becomes a tombstone (the id
    /// is never recycled), its buffered matches are purged from the merger
    /// — a dropped query's matches never surface after this call returns —
    /// and every live shard tears down its engines, replying with the
    /// final metrics so the query's work still appears in
    /// [`RuntimeReport::query_metrics`]. Other queries' ids, routes,
    /// metrics, and match streams are entirely unaffected.
    pub fn drop_query(&mut self, query: QueryId) -> Result<(), RuntimeError> {
        let state = self.live_state_mut(query)?;
        state.def = None;
        state.template = None;
        state.paused = false;
        self.merge.purge_query(query);
        let workers = self.senders.len();
        for shard in 0..workers {
            let _ = self.send_to_shard(shard, ShardMsg::DropQuery { slot: query.0 })?;
        }
        self.trace_lifecycle(query, "drop");
        self.publish_queries_live();
        Ok(())
    }

    /// The slot of a live query, or the lifecycle error naming what is
    /// wrong with the id.
    fn live_state_mut(&mut self, query: QueryId) -> Result<&mut QueryState, RuntimeError> {
        match self.queries.get_mut(query.0) {
            Some(state) if state.is_live() => Ok(state),
            Some(_) => Err(RuntimeError::InvalidConfig(format!("query {query} was dropped"))),
            None => Err(RuntimeError::InvalidConfig(format!("no such query {query}"))),
        }
    }

    /// Publishes the live-query gauge (`zstream_queries_live`).
    fn publish_queries_live(&self) {
        self.inst.queries_live.set(self.num_queries() as u64);
    }

    /// Emits one lifecycle trace event for `query`.
    fn trace_lifecycle(&self, query: QueryId, op: &str) {
        let q = query.to_string();
        self.obs.trace.emit(self.watermark, None, Some(&q), TraceKind::Lifecycle, op.to_string());
    }

    /// Routes one time-ordered **columnar** batch to the worker shards and
    /// returns every match that became final, in deterministic
    /// `(end_ts, shard, seq)` order.
    ///
    /// This is the scale-out fast path: each hash-routed query's key column
    /// is scanned once (memoized symbol digests), shards receive the shared
    /// batch by `Arc` plus a per-query selection vector (no event handles,
    /// no copies), and only shards owning rows get a message — an idle
    /// shard's frontier advances router-side once it has answered all its
    /// traffic. The caller's batch is the unit of work (one evaluation
    /// round per shard); it is not re-chunked to
    /// [`RuntimeBuilder::batch_size`].
    ///
    /// Blocks when a shard's input channel is full — that is the
    /// backpressure contract, not an error. Without a reorder stage
    /// ([`RuntimeBuilder::slack`]), batches must arrive in global time
    /// order across calls; with one, rows may arrive in any order within
    /// the slack window. Either way this produces exactly the match set of
    /// [`Runtime::ingest`] over the same rows.
    pub fn ingest_columns(
        &mut self,
        batch: &EventBatch,
    ) -> Result<Vec<RuntimeMatch>, RuntimeError> {
        self.ingest_columns_from(0, batch)
    }

    /// [`Runtime::ingest_columns`] for one of several registered ingest
    /// sources ([`RuntimeBuilder::sources`]): the batch is judged against
    /// `source`'s own reorder watermark, and rows release to the shards
    /// once **every** source's watermark has passed them — the exact merge
    /// of independently ordered (or mildly disordered) streams.
    pub fn ingest_columns_from(
        &mut self,
        source: usize,
        batch: &EventBatch,
    ) -> Result<Vec<RuntimeMatch>, RuntimeError> {
        let digest = (!batch.is_empty()).then(|| chunk_digest(batch.len(), batch.iter()));
        if self.skip_replayed_chunk(source, digest)? {
            return Ok(self.emit_ready());
        }
        let out = self.ingest_columns_inner(source, batch);
        if out.is_ok() {
            if let Some(d) = digest {
                self.last_chunk_digest[source] = Some(d);
            }
        }
        out
    }

    fn ingest_columns_inner(
        &mut self,
        source: usize,
        batch: &EventBatch,
    ) -> Result<Vec<RuntimeMatch>, RuntimeError> {
        let Some(reorder) = self.reorder.as_mut() else {
            Self::check_source(source, 1)?;
            // Hard check, not a debug assert: arrival-order batches are
            // an ordinary product of the API now (DisorderSpec, unsorted
            // builders) and must never reach the engines without a reorder
            // stage in front.
            if !batch.is_sorted()
                || batch.ts_column().first().is_some_and(|first| *first < self.watermark)
            {
                return Err(RuntimeError::InvalidConfig(
                    "out-of-order columnar ingest requires the reorder stage: \
                     set RuntimeBuilder::slack(..)"
                        .into(),
                ));
            }
            self.record_ingest(source, batch.len());
            self.dispatch_columns(batch)?;
            self.drain_replies()?;
            return Ok(self.emit_ready());
        };
        Self::check_admission(reorder, self.lateness, source, batch.ts_column().iter().copied())?;
        let release = reorder.offer_batch_from(source, batch);
        let frontier = reorder.frontier();
        self.record_ingest(source, batch.len());
        let newest = release.batches.iter().filter_map(EventBatch::last_ts);
        let batches = Some(release.batches.len());
        self.record_release(
            source,
            &release.late,
            release.released_rows(),
            newest,
            frontier,
            batches,
        );
        for released in &release.batches {
            self.dispatch_columns(released)?;
        }
        self.watermark = self.watermark.max(frontier);
        self.publish_reorder();
        self.drain_replies()?;
        Ok(self.emit_ready())
    }

    /// Routes a slice of events to the worker shards (in chunks of the
    /// configured batch size) and returns every match that became final,
    /// in deterministic `(end_ts, shard, seq)` order.
    ///
    /// Prefer [`Runtime::ingest_columns`] when events already live in
    /// columnar batches — this record path re-routes event handles one by
    /// one. Blocks when a shard's input channel is full — that is the
    /// backpressure contract, not an error. Without a reorder stage
    /// ([`RuntimeBuilder::slack`]), events must arrive in global time
    /// order across calls; with one, arrival order may be disordered
    /// within the slack window.
    pub fn ingest(&mut self, events: &[EventRef]) -> Result<Vec<RuntimeMatch>, RuntimeError> {
        self.ingest_from(0, events)
    }

    /// [`Runtime::ingest`] for one of several registered ingest sources —
    /// the record-path twin of [`Runtime::ingest_columns_from`].
    pub fn ingest_from(
        &mut self,
        source: usize,
        events: &[EventRef],
    ) -> Result<Vec<RuntimeMatch>, RuntimeError> {
        let digest =
            (!events.is_empty()).then(|| chunk_digest(events.len(), events.iter().cloned()));
        if self.skip_replayed_chunk(source, digest)? {
            return Ok(self.emit_ready());
        }
        let out = self.ingest_inner(source, events);
        if out.is_ok() {
            if let Some(d) = digest {
                self.last_chunk_digest[source] = Some(d);
            }
        }
        out
    }

    fn ingest_inner(
        &mut self,
        source: usize,
        events: &[EventRef],
    ) -> Result<Vec<RuntimeMatch>, RuntimeError> {
        let mut ready = Vec::new();
        let Some(reorder) = self.reorder.as_mut() else {
            Self::check_source(source, 1)?;
            // Hard check mirroring the columnar path: disordered slices
            // must never reach the engines without a reorder stage.
            let mut last = self.watermark;
            for event in events {
                if event.ts() < last {
                    return Err(RuntimeError::InvalidConfig(
                        "out-of-order ingest requires the reorder stage: \
                         set RuntimeBuilder::slack(..)"
                            .into(),
                    ));
                }
                last = event.ts();
            }
            self.record_ingest(source, events.len());
            for chunk in events.chunks(self.batch_size) {
                self.dispatch(chunk)?;
                self.drain_replies()?;
                ready.append(&mut self.emit_ready());
            }
            return Ok(ready);
        };
        Self::check_admission(reorder, self.lateness, source, events.iter().map(|e| e.ts()))?;
        // Released handles are the caller's own rows: event identity
        // survives the reorder stage on this path.
        let admitted = reorder.admit(source, events.iter().cloned());
        let frontier = reorder.frontier();
        self.record_ingest(source, events.len());
        // One lag observation, for the newest released row.
        let newest = admitted.released.last().map(|e| e.ts());
        self.record_release(
            source,
            &admitted.late,
            admitted.released.len(),
            newest,
            frontier,
            None,
        );
        for chunk in admitted.released.chunks(self.batch_size) {
            self.dispatch(chunk)?;
            self.drain_replies()?;
            ready.append(&mut self.emit_ready());
        }
        self.watermark = self.watermark.max(frontier);
        self.publish_reorder();
        self.drain_replies()?;
        ready.append(&mut self.emit_ready());
        Ok(ready)
    }

    /// Collects any matches that have become final since the last call,
    /// without ingesting anything. Non-blocking: once the caller stops
    /// ingesting, polling until the shards have answered their traffic
    /// finalizes everything the stream watermark allows.
    pub fn poll(&mut self) -> Result<Vec<RuntimeMatch>, RuntimeError> {
        self.drain_replies()?;
        Ok(self.emit_ready())
    }

    /// Failure injection (test/chaos hook): asks a shard to behave exactly
    /// as if one of its engines had panicked — it reports a premature
    /// `Done` (metrics up to the failure) and exits. The runtime then
    /// treats the shard as having left the pool: its buffered matches
    /// finalize, subsequent events routed to it count as dropped, and
    /// [`Runtime::shutdown`] neither signals nor waits for it. Queued
    /// messages ahead of the injection are still processed (channel FIFO).
    pub fn inject_worker_failure(&mut self, shard: usize) -> Result<(), RuntimeError> {
        if shard >= self.senders.len() {
            return Err(RuntimeError::InvalidConfig(format!(
                "no such shard {shard} (workers: {})",
                self.senders.len()
            )));
        }
        // send_to_shard handles every departure race: already finished, or
        // exited (naturally panicked) with the premature `Done` still
        // undrained — both are a graceful no-op, not an error.
        self.send_to_shard(shard, ShardMsg::Fail).map(|_| ())
    }

    /// Writes a consistent snapshot of the full runtime — per-shard engine
    /// state, reorder stage, merger frontier and buffered matches, metrics,
    /// dead letters — to `out`, and returns its [`CheckpointId`]. Restore
    /// with [`RuntimeBuilder::restore`] under the same configuration.
    ///
    /// Consistency comes from channel FIFO, not a global pause: a snapshot
    /// marker is sent down each live shard's input channel, so each shard
    /// serializes exactly after the batches dispatched before the marker.
    /// In-flight match output received while collecting the snapshots is
    /// folded into the merger and **serialized rather than emitted** —
    /// matches not yet returned to the caller at checkpoint time re-emerge
    /// exactly once from the restored runtime. The runtime continues
    /// normally afterwards; checkpointing is not a barrier for ingest
    /// correctness, only a blocking call while shard replies are collected.
    ///
    /// A shard that fails during the protocol degrades exactly like a
    /// worker failure during ingest: it is recorded in the checkpoint as
    /// already-departed.
    pub fn checkpoint<W: std::io::Write>(
        &mut self,
        out: &mut W,
    ) -> Result<CheckpointId, RuntimeError> {
        let start = std::time::Instant::now();
        let workers = self.senders.len();
        let mut blobs: Vec<Option<(u64, Vec<u8>)>> = (0..workers).map(|_| None).collect();
        let mut awaiting = vec![false; workers];
        let mut outstanding = 0usize;
        for (shard, pending) in awaiting.iter_mut().enumerate() {
            if !self.merge.is_finished(shard)
                && self.send_to_shard(shard, ShardMsg::Snapshot)?.is_none()
            {
                *pending = true;
                outstanding += 1;
            }
        }
        while outstanding > 0 {
            if self.snapshot_stash.is_empty() {
                match self.replies.recv() {
                    // Snapshot replies land in the stash; Output from
                    // batches queued ahead of the marker feeds the merger
                    // (buffered, not emitted); a premature Done is a shard
                    // dying mid-protocol — it leaves the pool as usual.
                    Ok(reply) => {
                        let done_shard = match &reply {
                            ShardReply::Done { shard, .. } => Some(*shard),
                            _ => None,
                        };
                        self.handle_reply(reply);
                        if let Some(shard) = done_shard {
                            if std::mem::replace(&mut awaiting[shard], false) {
                                outstanding -= 1;
                            }
                        }
                    }
                    Err(_) => return Err(RuntimeError::ChannelClosed),
                }
            }
            for (shard, seq, bytes) in std::mem::take(&mut self.snapshot_stash) {
                if std::mem::replace(&mut awaiting[shard], false) {
                    outstanding -= 1;
                }
                blobs[shard] = Some((seq, bytes));
            }
        }
        self.checkpoint_seq += 1;
        let mut w = SnapshotWriter::new();
        w.u64(self.checkpoint_seq);
        w.u8(TAG_CONFIG);
        let fp = Fingerprint {
            workers,
            batch_size: self.batch_size,
            slack: self.slack,
            sources: self.sources,
            lateness: self.lateness,
        };
        write_fingerprint(&mut w, &fp, self.homes, &self.queries);
        w.u8(TAG_RUNTIME);
        w.u64(self.watermark);
        // Reserved slots (see the checkpoint module docs).
        w.len(workers);
        for _ in 0..workers {
            w.u64(0);
        }
        w.len(self.queries.len());
        for state in &self.queries {
            w.u64(state.dropped);
        }
        w.u64(0); // reserved
        w.len(self.queries.len());
        for state in &self.queries {
            state.metrics.write_snapshot(&mut w);
        }
        w.len(self.dead_letters.len());
        for e in &self.dead_letters {
            w.event(e);
        }
        w.len(self.last_chunk_digest.len());
        for d in &self.last_chunk_digest {
            w.opt_u64(*d);
        }
        w.u8(TAG_MERGE);
        self.merge.write_snapshot(&mut w);
        w.u8(TAG_REORDER);
        match &self.reorder {
            Some(ro) => {
                w.bool(true);
                ro.write_snapshot(&mut w);
            }
            None => w.bool(false),
        }
        w.u8(TAG_SHARDS);
        w.len(workers);
        for (shard, blob) in blobs.iter().enumerate() {
            match (blob, self.merge.is_finished(shard)) {
                (Some((seq, bytes)), false) => {
                    w.bool(true);
                    w.u64(*seq);
                    w.blob(bytes);
                }
                // No blob (the shard had already left the pool), or the
                // shard died between its snapshot reply and now: persist it
                // as departed either way.
                _ => w.bool(false),
            }
        }
        w.u8(TAG_END);
        let total_bytes = (MAGIC.len() + 4 + w.bytes().len()) as u64;
        out.write_all(&MAGIC)
            .and_then(|()| out.write_all(&VERSION.to_le_bytes()))
            .and_then(|()| out.write_all(w.bytes()))
            .and_then(|()| out.flush())
            .map_err(|e| RuntimeError::Checkpoint(format!("writing checkpoint: {e}")))?;
        self.inst.checkpoints.inc();
        self.inst.checkpoint_bytes.add(total_bytes);
        self.inst.checkpoint_ns.observe(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        self.obs.trace.emit(
            self.watermark,
            None,
            None,
            TraceKind::CheckpointQuiesce,
            format!("id={} bytes={total_bytes}", self.checkpoint_seq),
        );
        Ok(CheckpointId(self.checkpoint_seq))
    }

    /// Validates the source index and applies the one-shot replay guard:
    /// returns `true` when this chunk is a recognized replay of the last
    /// pre-checkpoint chunk and must be skipped. Empty chunks neither
    /// consult nor disarm the guard.
    fn skip_replayed_chunk(
        &mut self,
        source: usize,
        digest: Option<u64>,
    ) -> Result<bool, RuntimeError> {
        Self::check_source(source, self.sources)?;
        let Some(d) = digest else { return Ok(false) };
        Ok(self.replay_guard[source].take() == Some(d))
    }

    /// Drains in-flight batches, flushes every engine, stops the workers,
    /// and returns the remaining matches plus aggregated metrics. Rows
    /// still held back by the reorder stage are released to the shards
    /// first (end of stream: nothing can arrive before them anymore).
    pub fn shutdown(mut self) -> Result<RuntimeReport, RuntimeError> {
        let workers = self.senders.len();
        let tail = match self.reorder.as_mut() {
            Some(reorder) => reorder.flush(),
            None => Vec::new(),
        };
        for batch in &tail {
            self.dispatch_columns(batch)?;
        }
        for (shard, tx) in self.senders.iter().enumerate() {
            if !self.merge.is_finished(shard) {
                // A send failure means the shard just left the pool on the
                // failure path; its premature `Done` is (or will be) in the
                // reply queue and the loop below accounts for it. The final
                // flush answers with one `Output`, like traffic.
                if tx.send(ShardMsg::Shutdown).is_ok() {
                    self.merge.dispatched(shard);
                }
            }
        }
        while self.merge.finished_count() < workers {
            match self.replies.recv() {
                Ok(reply) => self.handle_reply(reply),
                Err(_) => return Err(RuntimeError::ChannelClosed),
            }
        }
        self.senders.clear();
        for (shard, handle) in self.handles.drain(..).enumerate() {
            handle.join().map_err(|_| RuntimeError::WorkerLost(shard))?;
        }
        let matches = self.merge.drain_ready();
        debug_assert_eq!(self.merge.pending(), 0, "all matches final after shutdown");
        let query_metrics: Vec<EngineMetrics> =
            self.queries.iter_mut().map(|s| std::mem::take(&mut s.metrics)).collect();
        let dropped: Vec<u64> = self.queries.iter().map(|s| s.dropped).collect();
        let mut metrics = EngineMetrics::default();
        for m in &query_metrics {
            metrics.merge(m);
        }
        // Report-level stamping, exactly once on the grand total: the
        // symbol-table stats describe one process-global source (live
        // engines keep the fields at zero — the live-queryable forms are
        // the `zstream_symbols_interned` / `zstream_symbol_bytes_saved`
        // gauges), and the reorder stage sits upstream of per-query
        // routing, so its counters also land on the grand total only.
        metrics.stamp_symbol_stats();
        let (late_events, reorder_buffered_peak) = self
            .reorder
            .as_ref()
            .map(|r| (r.late_count(), r.buffered_peak() as u64))
            .unwrap_or((0, 0));
        metrics.late_events += late_events;
        metrics.reorder_buffered_peak = metrics.reorder_buffered_peak.max(reorder_buffered_peak);
        Ok(RuntimeReport {
            matches,
            query_metrics,
            metrics,
            dropped,
            workers,
            late_events,
            reorder_buffered_peak,
            dead_letters: std::mem::take(&mut self.dead_letters),
        })
    }

    /// Records one admitted ingest call on the source's counters plus a
    /// batch-level trace event. Called after source validation (the
    /// per-source handle vectors are indexed by source id) and after a
    /// `Strict` rejection would have returned — rejected calls leave no
    /// ingest footprint, matching their all-or-nothing contract.
    fn record_ingest(&self, source: usize, rows: usize) {
        self.inst.ingest_batches[source].inc();
        self.inst.ingest_events[source].add(rows as u64);
        self.obs.trace.emit(
            self.watermark,
            None,
            None,
            TraceKind::Ingest,
            format!("source={source} rows={rows}"),
        );
    }

    /// Records a reorder-release outcome, the bookkeeping both ingest
    /// paths share: late rows attributed to the delivering source (and
    /// retained under [`LatenessPolicy::DeadLetter`]), released row count,
    /// release lag (frontier minus `newest` — how far behind the frontier
    /// rows leave the buffer; one observation per released batch on the
    /// columnar path, one per call on the record path), and a trace event.
    fn record_release(
        &mut self,
        source: usize,
        late: &[EventRef],
        rows: usize,
        newest: impl IntoIterator<Item = Ts>,
        frontier: Ts,
        batches: Option<usize>,
    ) {
        if !late.is_empty() {
            self.inst.reorder_late[source].add(late.len() as u64);
            if self.lateness == LatenessPolicy::DeadLetter {
                // Compacted into fresh storage first: a retained raw handle
                // would pin its entire source batch (every row, every
                // column) for as long as the dead letter lives, turning a
                // 0.1% straggler rate into a footprint approaching the
                // whole stream.
                self.dead_letters.extend(repack_events(late).iter().flat_map(EventBatch::iter));
            }
        }
        if rows == 0 {
            return;
        }
        self.inst.reorder_released_rows.add(rows as u64);
        for ts in newest {
            self.inst.release_lag.observe(frontier.saturating_sub(ts));
        }
        let detail = match batches {
            Some(n) => format!("rows={rows} batches={n}"),
            None => format!("rows={rows}"),
        };
        self.obs.trace.emit(frontier, None, None, TraceKind::ReorderRelease, detail);
    }

    /// Publishes the reorder stage's pressure gauges from its scrape
    /// surface ([`ColumnarReorder::stats`]). No-op without a stage.
    fn publish_reorder(&self) {
        if let Some(reorder) = &self.reorder {
            let stats = reorder.stats();
            self.inst.reorder_pending.set(stats.pending as u64);
            self.inst.reorder_peak.raise(stats.buffered_peak as u64);
        }
    }

    /// Drains finality-released matches from the merger, publishing the
    /// merge-plane gauges (and a trace event when matches emit) on the
    /// way out — every public path that surfaces matches funnels here.
    fn emit_ready(&mut self) -> Vec<RuntimeMatch> {
        self.merge.advance_idle(self.watermark);
        let out = self.merge.drain_ready();
        self.inst.merge_pending.set(self.merge.pending() as u64);
        let lag = self.merge.frontier().map_or(0, |f| self.watermark.saturating_sub(f));
        self.inst.merge_frontier_lag.set(lag);
        if !out.is_empty() {
            self.obs.trace.emit(
                self.watermark,
                None,
                None,
                TraceKind::MergeEmit,
                format!("matches={}", out.len()),
            );
        }
        out
    }

    /// The admission checks both ingest paths run before the reorder stage
    /// sees a call: the source index, and under [`LatenessPolicy::Strict`]
    /// the all-or-nothing lateness pre-check (associated fn: callable while
    /// the reorder stage is borrowed).
    fn check_admission(
        reorder: &ColumnarReorder,
        lateness: LatenessPolicy,
        source: usize,
        ts: impl IntoIterator<Item = Ts>,
    ) -> Result<(), RuntimeError> {
        Self::check_source(source, reorder.num_sources())?;
        if lateness == LatenessPolicy::Strict {
            if let Some((_, ts, acceptable)) = reorder.first_late_in(source, ts) {
                return Err(RuntimeError::TooLate { source, ts, acceptable });
            }
        }
        Ok(())
    }

    /// Validates an ingest source index against the configured source
    /// count (associated fn: callable while the reorder stage is borrowed).
    fn check_source(source: usize, sources: usize) -> Result<(), RuntimeError> {
        if source >= sources {
            return Err(RuntimeError::InvalidConfig(format!(
                "no such ingest source {source} (sources: {sources})"
            )));
        }
        Ok(())
    }

    /// Routes one columnar chunk: per distinct hash field, **one** scan of
    /// the key column into per-shard selection vectors (shared by `Arc`
    /// among every query hash-routed on that field); per single-home query,
    /// an `All` selection to its home shard. Shards owning no rows of this
    /// chunk receive nothing (see [`OrderedMerge::advance_idle`]).
    fn dispatch_columns(&mut self, batch: &EventBatch) -> Result<(), RuntimeError> {
        if batch.is_empty() {
            return Ok(());
        }
        let last_ts = batch.last_ts().expect("non-empty batch");
        debug_assert!(
            batch.ts_column()[0] >= self.watermark
                && batch.ts_column().windows(2).all(|w| w[0] <= w[1]),
            "ingest must be time-ordered"
        );
        self.watermark = self.watermark.max(last_ts);
        let workers = self.senders.len();
        let nq = self.queries.len();
        // Lazily-allocated per-shard message payloads: only shards that own
        // rows pay for a message this chunk. Slots are registry slots, so
        // tombstoned and paused queries keep their `Skip` entry.
        let mut per_shard: Vec<Option<Vec<RowSel>>> = Vec::new();
        per_shard.resize_with(workers, || None);
        let select =
            |shard: usize, q: usize, sel: RowSel, per_shard: &mut Vec<Option<Vec<RowSel>>>| {
                per_shard[shard].get_or_insert_with(|| {
                    let mut v = Vec::with_capacity(nq);
                    v.resize_with(nq, || RowSel::Skip);
                    v
                })[q] = sel;
            };
        // Key-column scans memoized per field: several queries hash-routed
        // on one field share a single scan and its selection vectors.
        /// Per-shard shared selections plus the field's dropped-row count.
        type FieldSplit = (Vec<Arc<Vec<u32>>>, u64);
        let mut field_splits: HashMap<&str, FieldSplit> = HashMap::new();
        // Dropped rows collected per slot while `field_splits` borrows the
        // defs; folded into the registry after the scan loop.
        let mut drops = vec![0u64; nq];
        for (q, state) in self.queries.iter().enumerate() {
            let Some(def) = state.def.as_deref() else { continue };
            if state.paused {
                continue;
            }
            match &def.route {
                Route::Hash(field) => {
                    let (shards, split_dropped) =
                        field_splits.entry(field.as_str()).or_insert_with(|| {
                            let split = split_batch_rows(batch, field, workers);
                            (split.shards.into_iter().map(Arc::new).collect(), split.dropped)
                        });
                    drops[q] += *split_dropped;
                    for (shard, rows) in shards.iter().enumerate() {
                        if rows.is_empty() {
                            continue;
                        }
                        if self.merge.is_finished(shard) {
                            drops[q] += rows.len() as u64;
                            continue;
                        }
                        select(shard, q, RowSel::Rows(Arc::clone(rows)), &mut per_shard);
                    }
                }
                Route::Single(home) => {
                    if self.merge.is_finished(*home) {
                        drops[q] += batch.len() as u64;
                    } else {
                        select(*home, q, RowSel::All, &mut per_shard);
                    }
                }
            }
        }
        drop(field_splits);
        for (state, d) in self.queries.iter_mut().zip(&drops) {
            state.dropped += d;
        }
        for (shard, payload) in per_shard.into_iter().enumerate() {
            let Some(per_query) = payload else { continue };
            let sel_rows: u64 = per_query
                .iter()
                .map(|sel| match sel {
                    RowSel::Skip => 0,
                    RowSel::All => batch.len() as u64,
                    RowSel::Rows(rows) => rows.len() as u64,
                })
                .sum();
            let msg =
                ShardMsg::Columns { watermark: self.watermark, batch: batch.clone(), per_query };
            match self.send_to_shard(shard, msg)? {
                None => {
                    self.obs.trace.emit(
                        self.watermark,
                        Some(shard as u32),
                        None,
                        TraceKind::ShardDispatch,
                        format!("rows={sel_rows}"),
                    );
                }
                // The shard left the pool mid-chunk: account its rows as
                // dropped, from the returned (undelivered) message.
                Some(ShardMsg::Columns { per_query, .. }) => {
                    for (q, sel) in per_query.iter().enumerate() {
                        self.queries[q].dropped += match sel {
                            RowSel::Skip => 0,
                            RowSel::All => batch.len() as u64,
                            RowSel::Rows(rows) => rows.len() as u64,
                        };
                    }
                }
                Some(_) => unreachable!("send_to_shard returns the message it was given"),
            }
        }
        Ok(())
    }

    /// Routes one record-path chunk: per shard, per query, the events it
    /// owns. Only shards owning events receive a message.
    fn dispatch(&mut self, chunk: &[EventRef]) -> Result<(), RuntimeError> {
        if chunk.is_empty() {
            return Ok(());
        }
        let workers = self.senders.len();
        let nq = self.queries.len();
        for event in chunk {
            debug_assert!(event.ts() >= self.watermark, "ingest must be time-ordered");
            self.watermark = self.watermark.max(event.ts());
        }
        let mut per_shard: Vec<Option<Vec<Vec<EventRef>>>> = Vec::new();
        per_shard.resize_with(workers, || None);
        let merge = &self.merge;
        for (q, state) in self.queries.iter_mut().enumerate() {
            let Some(def) = state.def.as_deref() else { continue };
            if state.paused {
                continue;
            }
            match &def.route {
                Route::Hash(field) => {
                    let split = split_by_field(chunk, field, workers);
                    state.dropped += split.dropped;
                    for (shard, events) in split.shards.into_iter().enumerate() {
                        if events.is_empty() {
                            continue;
                        }
                        if merge.is_finished(shard) {
                            state.dropped += events.len() as u64;
                            continue;
                        }
                        per_shard[shard].get_or_insert_with(|| vec![Vec::new(); nq])[q] = events;
                    }
                }
                Route::Single(home) => {
                    if merge.is_finished(*home) {
                        state.dropped += chunk.len() as u64;
                    } else {
                        per_shard[*home].get_or_insert_with(|| vec![Vec::new(); nq])[q] =
                            chunk.to_vec();
                    }
                }
            }
        }
        for (shard, payload) in per_shard.into_iter().enumerate() {
            let Some(per_query) = payload else { continue };
            let sel_rows: u64 = per_query.iter().map(|events| events.len() as u64).sum();
            let msg = ShardMsg::Batch { watermark: self.watermark, per_query };
            match self.send_to_shard(shard, msg)? {
                None => {
                    self.obs.trace.emit(
                        self.watermark,
                        Some(shard as u32),
                        None,
                        TraceKind::ShardDispatch,
                        format!("rows={sel_rows}"),
                    );
                }
                Some(ShardMsg::Batch { per_query, .. }) => {
                    for (q, events) in per_query.iter().enumerate() {
                        self.queries[q].dropped += events.len() as u64;
                    }
                }
                Some(_) => unreachable!("send_to_shard returns the message it was given"),
            }
        }
        Ok(())
    }

    /// Sends one message to a live shard. `Ok(None)` means delivered;
    /// `Ok(Some(msg))` returns the undelivered message because the shard
    /// has left the pool — either it was already finished, or the send
    /// failed and draining the reply channel confirmed a premature `Done`
    /// (callers derive dropped-row accounting from the returned message
    /// on that rare path, keeping the delivery path allocation-free). A
    /// send failure without a `Done` is a genuinely lost worker.
    fn send_to_shard(
        &mut self,
        shard: usize,
        msg: ShardMsg,
    ) -> Result<Option<ShardMsg>, RuntimeError> {
        if self.merge.is_finished(shard) {
            return Ok(Some(msg));
        }
        // Traffic messages are answered with exactly one `Output`, so the
        // merger's outstanding count and the queue-depth gauge pair this
        // increment with the decrement in `handle_reply`. Snapshot markers
        // answer on another reply arm and are not traffic.
        let traffic = matches!(msg, ShardMsg::Columns { .. } | ShardMsg::Batch { .. });
        let msg = match self.senders[shard].send(msg) {
            Ok(()) => {
                if traffic {
                    self.merge.dispatched(shard);
                    self.inst.queue_depth[shard].add(1);
                }
                return Ok(None);
            }
            Err(undelivered) => undelivered.0,
        };
        self.drain_replies()?;
        if self.merge.is_finished(shard) {
            Ok(Some(msg))
        } else {
            Err(RuntimeError::WorkerLost(shard))
        }
    }

    /// Non-blocking drain of the reply channel into the merger.
    fn drain_replies(&mut self) -> Result<(), RuntimeError> {
        loop {
            match self.replies.try_recv() {
                Ok(reply) => self.handle_reply(reply),
                Err(TryRecvError::Empty) => return Ok(()),
                Err(TryRecvError::Disconnected) => {
                    // Every worker is gone. If each one reported a `Done`
                    // first, this is the fully-degraded-but-valid state the
                    // failure contract documents (every event drops, all
                    // matches are final) — not an error. A disconnect with
                    // a shard unaccounted for is a genuinely lost worker.
                    return if self.merge.finished_count() == self.senders.len() {
                        Ok(())
                    } else {
                        Err(RuntimeError::ChannelClosed)
                    };
                }
            }
        }
    }

    /// The one reply handler shared by [`Runtime::poll`], ingest drains and
    /// [`Runtime::shutdown`]: `Output` feeds the merger; `Done` — terminal
    /// or premature after a worker failure — records the shard's metrics
    /// and retires it from the pool, so a dead shard can never wedge the
    /// watermark frontier.
    fn handle_reply(&mut self, reply: ShardReply) {
        match reply {
            ShardReply::Output { shard, watermark, matches } => {
                self.inst.queue_depth[shard].sub(1);
                for m in matches {
                    // Matches of a query dropped after this batch was
                    // dispatched (channel-FIFO race) must not surface —
                    // the drop purged its buffered matches already.
                    if self.queries.get(m.query.0).is_some_and(QueryState::is_live) {
                        self.merge.offer(m);
                    }
                }
                self.merge.answered(shard, watermark);
            }
            ShardReply::Done { shard, metrics } => {
                // The shard left the pool; whatever was still queued to it
                // will never be evaluated, so its depth gauge reads zero.
                // The metrics vector is slot-aligned to the shard's view of
                // the registry, which trails ours only when the shard died
                // before processing a Create — `zip` truncates safely.
                self.inst.queue_depth[shard].set(0);
                if !self.merge.is_finished(shard) {
                    for (state, m) in self.queries.iter_mut().zip(&metrics) {
                        state.metrics.merge(m);
                    }
                    self.merge.finish(shard);
                }
            }
            ShardReply::Retired { shard, slot, metrics } => {
                // A dropped query's final per-shard metrics: folded into
                // the tombstone so the query's work stays reported.
                if let Some(state) = self.queries.get_mut(slot) {
                    state.metrics.merge(&metrics);
                }
                let q = format!("q{slot}");
                self.obs.trace.emit(
                    self.watermark,
                    Some(shard as u32),
                    Some(&q),
                    TraceKind::Lifecycle,
                    "retired".to_string(),
                );
            }
            ShardReply::Snapshot { shard, seq, bytes } => {
                self.snapshot_stash.push((shard, seq, bytes));
            }
        }
    }
}

impl Drop for Runtime {
    /// Dropping without [`Runtime::shutdown`] still stops the workers:
    /// closing the input channels ends their receive loops, and joining
    /// prevents leaked threads.
    fn drop(&mut self) {
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Folds one u64 into an FNV-1a hash, byte by byte.
fn fnv_mix(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// Content digest of one ingest chunk: length, per-row timestamp, and every
/// field value folded via its canonical [`zstream_events::HashableValue`]
/// digest. Stable across processes — symbol ids never enter, string values
/// fold via content digests — which is what lets a restored runtime
/// recognize a replayed chunk it never saw in this process.
fn chunk_digest(len: usize, events: impl Iterator<Item = EventRef>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    fnv_mix(&mut h, len as u64);
    for e in events {
        fnv_mix(&mut h, e.ts());
        for i in 0..e.schema().fields().len() {
            fnv_mix(&mut h, e.value(i).hash_key().digest());
        }
    }
    h
}
