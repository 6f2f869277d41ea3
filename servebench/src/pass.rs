//! One pass: a freshly built runtime fed the whole input, closed loop (as
//! fast as it accepts) or open loop (each ingest call due on a fixed-rate
//! schedule), then shut down. Every returned match is folded into its
//! query's [`Tally`] for the correctness gate.

use std::time::{Duration, Instant};

use zstream_runtime::{RuntimeError, RuntimeMatch};

use crate::digest::Tally;
use crate::trace::Tracer;
use crate::workload::{Input, Path, Served, Signer, Workload};

/// Longest sleep between two `Runtime::poll` calls while an open-loop pass
/// waits for the next call to fall due.
const POLL_INTERVAL: Duration = Duration::from_micros(200);

/// How a pass drives the runtime.
#[derive(Debug, Clone, Copy)]
pub struct PassOpts {
    /// Open loop at [`Workload::paced_rate`] instead of closed loop.
    pub paced: bool,
    /// Call `Runtime::checkpoint` every [`Workload::checkpoint_every`]
    /// ingest calls.
    pub checkpoints: bool,
}

/// What one pass measured.
#[derive(Debug, Default)]
pub struct PassOutcome {
    /// Wall time from the first ingest call to `shutdown()` returning.
    pub wall: Duration,
    /// Per registered query: the matches the runtime returned.
    pub tallies: Vec<Tally>,
    /// Open loop only: per match, due time of the ingest call holding its
    /// last event → the call that returned it, ns.
    pub latencies_ns: Vec<u64>,
    /// Wall time of each `Runtime::checkpoint` call, ns.
    pub checkpoint_ns: Vec<u64>,
    /// Size of each checkpoint written, bytes.
    pub checkpoint_bytes: Vec<usize>,
    /// Runtime calls made (ingest, poll, checkpoint, shutdown).
    pub ops: u64,
    /// The first runtime call that returned an error, if any.
    pub error: Option<String>,
    /// Events the runtime reported late.
    pub late: u64,
    /// Open loop only: how far behind schedule an ingest call started, at
    /// worst, ns.
    pub gen_lag_max_ns: u64,
}

/// Runs one pass over `input` on the runtime in `served`, consuming it.
pub fn run(
    w: Workload,
    input: &Input,
    served: Served,
    signer: &Signer,
    opts: PassOpts,
    mut tracer: Option<&mut Tracer>,
) -> PassOutcome {
    let Served { mut runtime, .. } = served;
    let mut ckpt_buf: Vec<u8> = Vec::new();
    if let Some(t) = tracer.as_deref_mut() {
        t.pass_start(&runtime, input.events);
    }
    let mut c = Collector {
        signer,
        input,
        t0: Instant::now(),
        rate: opts.paced.then(|| w.paced_rate()),
        uncounted: tracer.is_some(),
        out: PassOutcome {
            tallies: vec![Tally::default(); runtime.num_queries()],
            ..Default::default()
        },
    };

    for call in 0..input.calls() {
        if c.rate.is_some() {
            let due = c.due(call);
            while let Some(left) = due.checked_duration_since(Instant::now()) {
                let polled = runtime.poll();
                if !c.collect(polled, "poll") {
                    break;
                }
                std::thread::sleep(left.min(POLL_INTERVAL));
            }
            let lag = Instant::now().saturating_duration_since(due).as_nanos() as u64;
            c.out.gen_lag_max_ns = c.out.gen_lag_max_ns.max(lag);
        }
        if c.out.error.is_some() {
            break;
        }
        if let Some(t) = tracer.as_deref_mut() {
            t.call_start();
        }
        let start = Instant::now();
        let res = match w.path() {
            Path::Columns => runtime.ingest_columns(&input.batches[call]),
            Path::Records => runtime.ingest(&input.records[call]),
        };
        if let Some(t) = tracer.as_deref_mut() {
            t.call_end(call, start, Instant::now());
        }
        if !c.collect(res, "ingest") {
            break;
        }
        if opts.checkpoints && (call + 1) % w.checkpoint_every() == 0 {
            ckpt_buf.clear();
            let start = Instant::now();
            let res = runtime.checkpoint(&mut ckpt_buf);
            let end = Instant::now();
            c.out.ops += 1;
            if let Some(t) = tracer.as_deref_mut() {
                t.span("checkpoint", call, start, end);
            }
            if let Err(e) = res {
                c.out.error = Some(format!("checkpoint after call {call}: {e}"));
                break;
            }
            c.out.checkpoint_ns.push((end - start).as_nanos() as u64);
            c.out.checkpoint_bytes.push(ckpt_buf.len());
        }
    }

    if let Some(t) = tracer.as_deref_mut() {
        t.before_shutdown();
    }
    let start = Instant::now();
    let res = runtime.shutdown();
    let end = Instant::now();
    c.out.wall = end - c.t0;
    match res {
        Ok(report) => {
            if let Some(t) = tracer {
                t.span("shutdown", input.calls(), start, end);
                t.pass_end(&report, c.out.wall);
            }
            c.out.late = report.late_events;
            c.collect(Ok(report.matches), "shutdown");
        }
        Err(e) => {
            c.collect(Err(e), "shutdown");
        }
    }
    c.out
}

/// Folds what runtime calls return into a [`PassOutcome`].
struct Collector<'a> {
    signer: &'a Signer,
    input: &'a Input,
    /// Start of the timed region: just before the first ingest call.
    t0: Instant,
    /// Open-loop input rate, events per second; `None` in a closed loop.
    rate: Option<f64>,
    /// Keep the digest bookkeeping out of the traced run's allocation
    /// counts.
    uncounted: bool,
    out: PassOutcome,
}

impl Collector<'_> {
    /// When ingest call `call` falls due on the open-loop schedule.
    fn due(&self, call: usize) -> Instant {
        let rate = self.rate.unwrap_or(f64::INFINITY);
        self.t0 + Duration::from_secs_f64(self.input.events_before[call] as f64 / rate)
    }

    /// Counts one runtime call and folds its matches: each into its
    /// query's tally and, in an open loop, its latency from when the call
    /// holding its last event was due. Returns `false` (recording the
    /// error) when the call failed.
    fn collect(&mut self, res: Result<Vec<RuntimeMatch>, RuntimeError>, what: &str) -> bool {
        let now = Instant::now();
        self.out.ops += 1;
        let matches = match res {
            Ok(m) => m,
            Err(e) => {
                self.out.error.get_or_insert(format!("{what}: {e}"));
                return false;
            }
        };
        if self.uncounted {
            crate::counting::uncounted(|| self.fold(&matches, now));
        } else {
            self.fold(&matches, now);
        }
        self.out.error.is_none()
    }

    fn fold(&mut self, matches: &[RuntimeMatch], now: Instant) {
        for m in matches {
            let q = m.query.index();
            match (self.out.tallies.get_mut(q), self.signer.sign(q, &m.record)) {
                (Some(tally), Some(sig)) => tally.add(&sig),
                _ => {
                    self.out.error.get_or_insert(format!("match for unknown query {q}"));
                }
            }
            if self.rate.is_some() {
                if let Some(call) = self.input.last_call_of(&m.record) {
                    let lat = now.saturating_duration_since(self.due(call as usize));
                    self.out.latencies_ns.push(lat.as_nanos() as u64);
                }
            }
        }
    }
}
