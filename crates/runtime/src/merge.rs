//! Deterministic ordered merge of per-shard match streams.
//!
//! Shards evaluate independently and report matches asynchronously, so the
//! raw arrival order at the control thread is racy. The merger restores a
//! deterministic total order — `(end timestamp, shard id, per-shard
//! emission sequence)` — using per-shard **watermarks**: after a shard has
//! processed every event up to time `w`, any match it produces later has an
//! end timestamp of at least `w` (shard sub-streams are time-ordered and
//! shards force an evaluation round per batch). A buffered match is
//! therefore final once its end timestamp is strictly below the minimum
//! watermark across live shards.
//!
//! A shard that gets no traffic echoes nothing, so the merger also
//! counts, per shard, the traffic messages it has not yet answered. A shard with none outstanding has evaluated every event sent
//! to it and can produce later matches only from later events, so its
//! watermark may move straight to the stream watermark
//! ([`OrderedMerge::advance_idle`]) — no round trip to an idle shard.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use zstream_events::{Record, SnapshotError, SnapshotReader, SnapshotResult, SnapshotWriter, Ts};

use crate::registry::QueryId;

/// One composite match produced by the runtime.
#[derive(Debug, Clone)]
pub struct RuntimeMatch {
    /// The registered query that matched.
    pub query: QueryId,
    /// The worker shard that produced the match.
    pub shard: usize,
    /// Emission sequence number within the shard (deterministic for a given
    /// stream and configuration; the final tie-breaker of the merge order).
    pub seq: u64,
    /// The composite event.
    pub record: Record,
}

impl RuntimeMatch {
    /// The merge key this match is ordered by.
    pub fn key(&self) -> (Ts, usize, u64) {
        (self.record.end_ts(), self.shard, self.seq)
    }
}

/// Heap entry ordered by the merge key only (records carry no total order).
struct Entry {
    key: (Ts, usize, u64),
    m: RuntimeMatch,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// Buffers per-shard matches and releases them in deterministic order as
/// the shard watermarks advance.
pub(crate) struct OrderedMerge {
    heap: BinaryHeap<Reverse<Entry>>,
    /// Per-shard watermark; `None` once the shard has finished (treated as
    /// an infinite watermark).
    watermarks: Vec<Option<Ts>>,
    /// Per-shard traffic messages sent but not yet answered with an
    /// `Output`.
    // zlint::allow(snapshot, "in-flight traffic only: a restored runtime has none, so restore starts every count at zero")
    outstanding: Vec<u32>,
}

impl std::fmt::Debug for OrderedMerge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrderedMerge")
            .field("pending", &self.heap.len())
            .field("watermarks", &self.watermarks)
            .field("outstanding", &self.outstanding)
            .finish()
    }
}

impl OrderedMerge {
    pub fn new(shards: usize) -> OrderedMerge {
        OrderedMerge {
            heap: BinaryHeap::new(),
            watermarks: vec![Some(0); shards],
            outstanding: vec![0; shards],
        }
    }

    /// Buffers one match.
    pub fn offer(&mut self, m: RuntimeMatch) {
        self.heap.push(Reverse(Entry { key: m.key(), m }));
    }

    /// Advances a shard's watermark (monotone).
    pub fn advance(&mut self, shard: usize, ts: Ts) {
        if let Some(w) = &mut self.watermarks[shard] {
            *w = (*w).max(ts);
        }
    }

    /// Records one traffic message sent to `shard`; the shard answers it
    /// with exactly one `Output` ([`OrderedMerge::answered`]).
    pub fn dispatched(&mut self, shard: usize) {
        self.outstanding[shard] += 1;
    }

    /// Folds one `Output` answer: `shard` has processed every event up to
    /// `ts`.
    pub fn answered(&mut self, shard: usize, ts: Ts) {
        self.outstanding[shard] -= 1;
        self.advance(shard, ts);
    }

    /// Advances every live shard with nothing outstanding to the stream
    /// watermark `ts`. The caller guarantees that every event it sends
    /// from now on is at or after `ts`; a shard that has answered all it
    /// was sent can then only produce matches ending at or after `ts`.
    pub fn advance_idle(&mut self, ts: Ts) {
        for (w, n) in self.watermarks.iter_mut().zip(&self.outstanding) {
            if let (Some(w), 0) = (w, n) {
                *w = (*w).max(ts);
            }
        }
    }

    /// Marks a shard as finished: it will never produce another match.
    pub fn finish(&mut self, shard: usize) {
        self.watermarks[shard] = None;
    }

    /// True when the shard has finished (left the pool). The runtime treats
    /// this as the single source of truth for pool membership: finished
    /// shards receive no further messages and are not waited for at
    /// shutdown.
    pub fn is_finished(&self, shard: usize) -> bool {
        self.watermarks[shard].is_none()
    }

    /// Number of shards the merger tracks (live or finished).
    pub fn num_shards(&self) -> usize {
        self.watermarks.len()
    }

    /// Number of shards that have finished.
    pub fn finished_count(&self) -> usize {
        self.watermarks.iter().filter(|w| w.is_none()).count()
    }

    /// The finality frontier: matches ending strictly before it are safe to
    /// emit. `None` means every shard has finished (everything is final).
    pub fn frontier(&self) -> Option<Ts> {
        self.watermarks.iter().flatten().min().copied()
    }

    /// Number of buffered (not yet final) matches.
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// Discards every buffered match of `query` (the
    /// [`crate::Runtime::drop_query`] path: a dropped query's matches must
    /// not surface after the drop, even ones already evaluated and waiting
    /// on the frontier). Cold path — rebuilds the heap only when the query
    /// actually has buffered matches.
    pub fn purge_query(&mut self, query: QueryId) {
        if self.heap.iter().any(|Reverse(e)| e.m.query == query) {
            let entries = std::mem::take(&mut self.heap);
            self.heap = entries.into_iter().filter(|Reverse(e)| e.m.query != query).collect();
        }
    }

    /// Serializes the frontier state and every buffered match. Entries are
    /// written in merge-key order (the heap's internal order is arbitrary),
    /// so serializing the same state twice is byte-identical.
    pub fn write_snapshot(&self, w: &mut SnapshotWriter) {
        w.len(self.watermarks.len());
        for wm in &self.watermarks {
            w.opt_u64(*wm);
        }
        let mut entries: Vec<&RuntimeMatch> = self.heap.iter().map(|Reverse(e)| &e.m).collect();
        entries.sort_by_key(|m| m.key());
        w.len(entries.len());
        for m in entries {
            w.u64(m.query.0 as u64);
            w.u64(m.shard as u64);
            w.u64(m.seq);
            w.record(&m.record);
        }
    }

    /// Rebuilds a merger from a [`zstream_events::Snapshot`] stream:
    /// buffered matches re-enter the heap and release under the restored
    /// per-shard watermarks exactly once, after restore. `is_live_query`
    /// decides which query ids a buffered match may legally carry — dropped
    /// queries purge their matches before checkpointing, so a tombstoned id
    /// here means the file is corrupt.
    pub fn restore_snapshot(
        r: &mut SnapshotReader<'_>,
        is_live_query: impl Fn(usize) -> bool,
    ) -> SnapshotResult<OrderedMerge> {
        let shards = r.len()?;
        let mut watermarks = Vec::with_capacity(shards);
        for _ in 0..shards {
            watermarks.push(r.opt_u64()?);
        }
        let n = r.len()?;
        let mut heap = BinaryHeap::with_capacity(n);
        for _ in 0..n {
            let query =
                usize::try_from(r.u64()?).ok().filter(|q| is_live_query(*q)).ok_or_else(|| {
                    SnapshotError::Corrupt("buffered match query out of range".into())
                })?;
            let shard =
                usize::try_from(r.u64()?).ok().filter(|s| *s < shards).ok_or_else(|| {
                    SnapshotError::Corrupt("buffered match shard out of range".into())
                })?;
            let seq = r.u64()?;
            let record = r.record()?;
            let m = RuntimeMatch { query: QueryId(query), shard, seq, record };
            heap.push(Reverse(Entry { key: m.key(), m }));
        }
        Ok(OrderedMerge { heap, watermarks, outstanding: vec![0; shards] })
    }

    /// Pops every final match, in `(end_ts, shard, seq)` order.
    pub fn drain_ready(&mut self) -> Vec<RuntimeMatch> {
        let frontier = self.frontier();
        let mut out = Vec::new();
        while let Some(Reverse(top)) = self.heap.peek() {
            if frontier.is_some_and(|f| top.key.0 >= f) {
                break;
            }
            let Reverse(entry) = self.heap.pop().expect("peeked above");
            out.push(entry.m);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zstream_events::{stock, Record};

    fn m(query: usize, shard: usize, seq: u64, end: Ts) -> RuntimeMatch {
        RuntimeMatch {
            query: QueryId(query),
            shard,
            seq,
            record: Record::primitive(stock(end, 0, "IBM", 1.0, 1)),
        }
    }

    #[test]
    fn holds_matches_until_all_shards_pass_them() {
        let mut merge = OrderedMerge::new(2);
        merge.offer(m(0, 0, 0, 5));
        merge.advance(0, 10);
        // Shard 1 is still at 0 — nothing is final.
        assert!(merge.drain_ready().is_empty());
        merge.advance(1, 6);
        let out = merge.drain_ready();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].record.end_ts(), 5);
    }

    #[test]
    fn orders_by_end_ts_then_shard_then_seq() {
        let mut merge = OrderedMerge::new(3);
        merge.offer(m(0, 2, 0, 7));
        merge.offer(m(0, 0, 3, 7));
        merge.offer(m(1, 1, 1, 4));
        merge.offer(m(0, 0, 9, 9));
        for s in 0..3 {
            merge.finish(s);
        }
        let keys: Vec<_> = merge.drain_ready().iter().map(RuntimeMatch::key).collect();
        assert_eq!(keys, vec![(4, 1, 1), (7, 0, 3), (7, 2, 0), (9, 0, 9)]);
    }

    #[test]
    fn equal_end_ts_is_not_final_until_shards_pass_it() {
        // A match ending exactly at the frontier must wait: another shard
        // at watermark w can still produce a match ending at w.
        let mut merge = OrderedMerge::new(2);
        merge.offer(m(0, 0, 0, 10));
        merge.advance(0, 10);
        merge.advance(1, 10);
        assert!(merge.drain_ready().is_empty());
        merge.advance(1, 11);
        merge.advance(0, 11);
        assert_eq!(merge.drain_ready().len(), 1);
    }

    #[test]
    fn finished_shards_do_not_hold_the_frontier() {
        let mut merge = OrderedMerge::new(2);
        merge.offer(m(0, 0, 0, 100));
        merge.finish(1);
        merge.advance(0, 50);
        assert!(merge.drain_ready().is_empty(), "shard 0 could still emit before 100");
        merge.finish(0);
        assert_eq!(merge.frontier(), None);
        assert_eq!(merge.drain_ready().len(), 1);
        assert_eq!(merge.pending(), 0);
    }

    #[test]
    fn purge_discards_only_the_dropped_querys_matches() {
        let mut merge = OrderedMerge::new(1);
        merge.offer(m(0, 0, 0, 5));
        merge.offer(m(1, 0, 1, 6));
        merge.offer(m(0, 0, 2, 7));
        merge.purge_query(QueryId(0));
        assert_eq!(merge.pending(), 1);
        merge.finish(0);
        let out = merge.drain_ready();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].query, QueryId(1));
        // Purging a query with nothing buffered is a no-op.
        merge.purge_query(QueryId(1));
        assert_eq!(merge.pending(), 0);
    }

    #[test]
    fn idle_shard_does_not_hold_the_frontier() {
        let mut merge = OrderedMerge::new(2);
        merge.dispatched(0);
        merge.dispatched(1);
        merge.offer(m(0, 0, 0, 5));
        merge.answered(0, 10);
        merge.advance_idle(10);
        assert!(merge.drain_ready().is_empty(), "shard 1 still owes an answer");
        assert_eq!(merge.frontier(), Some(0));
        // Once its last Output is drained, shard 1 stops holding the
        // frontier at its echoed watermark: nothing outstanding means it
        // can only match later events.
        merge.answered(1, 3);
        merge.advance_idle(10);
        assert_eq!(merge.frontier(), Some(10));
        assert_eq!(merge.drain_ready().len(), 1);
        // A shard with traffic in flight keeps its echoed watermark.
        merge.dispatched(0);
        merge.advance_idle(20);
        assert_eq!(merge.frontier(), Some(10));
    }

    #[test]
    fn tracks_finished_membership() {
        let mut merge = OrderedMerge::new(3);
        assert_eq!(merge.finished_count(), 0);
        assert!(!merge.is_finished(1));
        merge.finish(1);
        assert!(merge.is_finished(1));
        assert_eq!(merge.finished_count(), 1);
        // Finishing is idempotent and advance on a finished shard is a no-op.
        merge.finish(1);
        merge.advance(1, 99);
        assert!(merge.is_finished(1));
        assert_eq!(merge.finished_count(), 1);
    }
}
