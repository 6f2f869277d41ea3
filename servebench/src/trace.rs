//! The traced run's outside-in instrumentation.
//!
//! Nothing inside the program changes. Every layer is measured from the
//! benchmark's side of its public calls:
//!
//! * spans: one per set-up phase, per ingest call (tagged with its call
//!   index), per checkpoint and for `shutdown`, kept in memory and written
//!   out when the run ends;
//! * the obs registry the runtime exports (`Runtime::obs_handle`): gauges
//!   sampled at ingest-call boundaries during the pass; counters and
//!   histograms read once after `shutdown()` has drained every shard, so
//!   they do not drift with where the scrape lands;
//! * `/proc` scheduler accounting: the caller thread's `schedstat` diffed
//!   across the timed region (and across each ingest call), the shard
//!   threads' read before `shutdown()` joins them;
//! * the counting allocator's per-thread totals.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

use zstream_obs::{MetricValue, Obs};
use zstream_runtime::{Runtime, RuntimeReport};

use crate::counting::{self, AllocTotals};
use crate::procfs::{self, OwnSchedStat, SchedStat};

/// Sample the obs gauges every this many ingest calls.
const SAMPLE_EVERY: usize = 8;

/// Per-layer metric values of one pass, by metric name.
pub type Ledger = BTreeMap<&'static str, f64>;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was timed: `setup.parse`, `ingest`, `checkpoint`, …
    pub kind: &'static str,
    /// Pass number within the run (set-up repetitions count as passes).
    pub pass: u32,
    /// Ingest-call index within the pass (set-up: repetition index).
    pub index: u32,
    /// Start, ns since the run began.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
}

/// Collects spans, samples and counters over a traced run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    pass: u32,
    own: OwnSchedStat,
    cur: Option<PassState>,
    /// The first `/proc` read that failed, if any: the run then fails.
    pub error: Option<String>,
}

/// Per-pass accumulation.
struct PassState {
    hub: Arc<Obs>,
    events: usize,
    main0: SchedStat,
    shard0: SchedStat,
    alloc0: AllocTotals,
    call_cpu0: SchedStat,
    call_ns: Vec<u64>,
    call_cpu_ns: u64,
    shard_at_shutdown: SchedStat,
    queue_peak: u64,
    pending_peak: u64,
    frontier_lag_peak: u64,
    live_peak: i64,
    ledger: Ledger,
}

impl Tracer {
    /// A tracer for the calling (caller) thread.
    pub fn new() -> std::io::Result<Tracer> {
        Ok(Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            pass: 0,
            own: OwnSchedStat::open()?,
            cur: None,
            error: None,
        })
    }

    fn note<T: Default>(&mut self, res: std::io::Result<T>) -> T {
        res.unwrap_or_else(|e| {
            self.error.get_or_insert(format!("/proc read: {e}"));
            T::default()
        })
    }

    /// Records a span that ended at `end`.
    pub fn span(&mut self, kind: &'static str, index: usize, start: Instant, end: Instant) {
        let span = Span {
            kind,
            pass: self.pass,
            index: index as u32,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
        };
        counting::uncounted(|| self.spans.push(span));
    }

    /// Records one set-up repetition's phase spans.
    pub fn setup_spans(&mut self, rep: usize, start: Instant, t: &crate::workload::SetupTimings) {
        let p1 = start + t.parse;
        let p2 = p1 + t.compile;
        self.span("setup.parse", rep, start, p1);
        self.span("setup.compile", rep, p1, p2);
        self.span("setup.build", rep, p2, p2 + t.build);
    }

    /// Begins a pass on a freshly built runtime, just before its first
    /// ingest call.
    pub fn pass_start(&mut self, runtime: &Runtime, events: usize) {
        self.pass += 1;
        let (main0, shard0) = counting::uncounted(|| (self.own.read(), procfs::shard_total()));
        let (main0, shard0) = (self.note(main0), self.note(shard0));
        let state = PassState {
            hub: runtime.obs_handle(),
            events,
            main0,
            shard0,
            call_cpu0: main0,
            call_ns: Vec::with_capacity(1 << 12),
            call_cpu_ns: 0,
            shard_at_shutdown: shard0,
            queue_peak: 0,
            pending_peak: 0,
            frontier_lag_peak: 0,
            live_peak: 0,
            ledger: Ledger::new(),
            alloc0: counting::totals(),
        };
        counting::uncounted(|| self.cur = Some(state));
    }

    /// Marks the start of an ingest call (caller CPU time so far).
    pub fn call_start(&mut self) {
        let now = self.own.read();
        let now = self.note(now);
        if let Some(s) = self.cur.as_mut() {
            s.call_cpu0 = now;
        }
    }

    /// Marks the end of ingest call `call`: its span, its CPU time, and
    /// the gauge samples due at this boundary.
    pub fn call_end(&mut self, call: usize, start: Instant, end: Instant) {
        self.span("ingest", call, start, end);
        let cpu = self.own.read();
        let cpu = self.note(cpu);
        counting::uncounted(|| {
            let Some(s) = self.cur.as_mut() else { return };
            s.call_ns.push((end - start).as_nanos() as u64);
            s.call_cpu_ns += cpu.since(&s.call_cpu0).cpu_ns;
            s.live_peak = s.live_peak.max(counting::totals().live_bytes);
            if call.is_multiple_of(SAMPLE_EVERY) {
                s.sample_gauges();
            }
        });
    }

    /// Reads the shard threads' accounting while they still exist.
    pub fn before_shutdown(&mut self) {
        let shard = counting::uncounted(|| {
            if let Some(s) = self.cur.as_mut() {
                s.sample_gauges();
            }
            procfs::shard_total()
        });
        let shard = self.note(shard);
        if let Some(s) = self.cur.as_mut() {
            s.shard_at_shutdown = shard;
        }
    }

    /// Ends the pass: diffs the accounting and reads the drained obs
    /// registry into the pass's ledger.
    pub fn pass_end(&mut self, report: &RuntimeReport, wall: Duration) {
        let main1 = self.own.read();
        let main1 = self.note(main1);
        let alloc = counting::totals();
        counting::uncounted(|| {
            if let Some(s) = self.cur.as_mut() {
                s.finish(report, wall, main1, alloc);
            }
        });
    }

    /// The finished pass's per-layer values.
    pub fn take_ledger(&mut self) -> Ledger {
        self.cur.take().map(|s| s.ledger).unwrap_or_default()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                f,
                "{{\"kind\":\"{}\",\"pass\":{},\"index\":{},\"start_ns\":{},\"dur_ns\":{}}}",
                s.kind, s.pass, s.index, s.start_ns, s.dur_ns
            )?;
        }
        f.flush()
    }
}

impl PassState {
    fn sample_gauges(&mut self) {
        for m in self.hub.metrics.scrape() {
            let MetricValue::Gauge(v) = m.value else { continue };
            match m.name.as_str() {
                "zstream_shard_queue_depth" => self.queue_peak = self.queue_peak.max(v),
                "zstream_merge_pending" => self.pending_peak = self.pending_peak.max(v),
                "zstream_merge_frontier_lag" => {
                    self.frontier_lag_peak = self.frontier_lag_peak.max(v)
                }
                _ => {}
            }
        }
    }

    fn finish(
        &mut self,
        report: &RuntimeReport,
        wall: Duration,
        main1: SchedStat,
        alloc1: AllocTotals,
    ) {
        let ev = self.events.max(1) as f64;
        let wall = wall.as_secs_f64();
        let snap = self.hub.snapshot();
        let hist = |name: &str| {
            snap.histogram_total(name).unwrap_or_else(zstream_obs::HistSnapshot::empty)
        };
        let service = hist("zstream_shard_service_ns");
        let round = hist("zstream_engine_round_ns");
        let release_lag = hist("zstream_reorder_release_lag");
        let service_s = service.sum as f64 / 1e9;
        let round_s = round.sum as f64 / 1e9;
        let admitted = snap.counter_total("zstream_query_admitted_total") as f64;
        let matched = snap.counter_total("zstream_query_matched_total") as f64;
        let checkpoints = snap.counter_total("zstream_checkpoints_total");
        let ckpt_bytes = snap.counter_total("zstream_checkpoint_bytes_total");
        let router = main1.since(&self.main0);
        let shard = self.shard_at_shutdown.since(&self.shard0);
        let alloc = alloc1.since(&self.alloc0);
        let mut calls = self.call_ns.clone();
        calls.sort_unstable();
        let call_total: u64 = calls.iter().sum();
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

        let l = &mut self.ledger;
        l.insert("router.cpu_s", router.cpu_ns as f64 / 1e9);
        l.insert("router.call_p50_us", crate::stats::quantile_sorted(&calls, 0.50) / 1e3);
        l.insert("router.call_p99_us", crate::stats::quantile_sorted(&calls, 0.99) / 1e3);
        l.insert("router.blocked_s", call_total.saturating_sub(self.call_cpu_ns) as f64 / 1e9);
        l.insert("router.allocs_per_event", alloc.caller_allocs as f64 / ev);
        l.insert("shard.cpu_s", shard.cpu_ns as f64 / 1e9);
        l.insert("shard.runq_wait_s", shard.wait_ns as f64 / 1e9);
        l.insert("shard.service_s", service_s);
        l.insert("shard.busy_frac", ratio(service_s, wall));
        l.insert("shard.queue_depth_peak", self.queue_peak as f64);
        l.insert("shard.allocs_per_event", alloc.shard_allocs as f64 / ev);
        l.insert("shard.alloc_bytes_per_event", alloc.shard_bytes as f64 / ev);
        l.insert(
            "intake.kernel_rows_per_event",
            snap.counter_total("zstream_kernel_rows_evaluated_total") as f64 / ev,
        );
        l.insert(
            "intake.fallback_rows_per_event",
            snap.counter_total("zstream_kernel_fallback_rows_total") as f64 / ev,
        );
        l.insert("intake.admitted_per_event", admitted / ev);
        l.insert("intake.outside_rounds_s", service_s - round_s);
        l.insert("engine.round_s", round_s);
        l.insert("engine.round_p99_us", round.percentile(0.99).unwrap_or(0) as f64 / 1e3);
        l.insert("engine.matched_per_admitted", ratio(matched, admitted));
        l.insert("engine.peak_buffer_bytes", report.metrics.peak_bytes as f64);
        l.insert("merge.pending_peak", self.pending_peak as f64);
        l.insert("merge.frontier_lag_peak", self.frontier_lag_peak as f64);
        l.insert("reorder.buffered_peak", report.reorder_buffered_peak as f64);
        l.insert("reorder.late_frac", report.late_events as f64 / ev);
        l.insert("reorder.release_lag_p99", release_lag.percentile(0.99).unwrap_or(0) as f64);
        l.insert("checkpoint.bytes", ratio(ckpt_bytes as f64, checkpoints as f64));
        l.insert("alloc.per_event", (alloc.caller_allocs + alloc.shard_allocs) as f64 / ev);
        l.insert("alloc.bytes_per_event", (alloc.caller_bytes + alloc.shard_bytes) as f64 / ev);
        l.insert("alloc.peak_live_mb", self.live_peak as f64 / (1024.0 * 1024.0));
    }
}
