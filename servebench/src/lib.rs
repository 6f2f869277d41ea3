//! Served-path benchmark for ZStream.
//!
//! Runs one workload through `Runtime` (built from `EngineBuilder` →
//! `RuntimeBuilder`), checks every pass's match set against a
//! single-threaded `Engine` reference, and prints either the end-to-end
//! metrics (untraced binary) or the per-layer ledger (traced binary), each
//! by name with its unit, then one JSON result line. See `README.md`.

mod affinity;
pub mod counting;
mod digest;
mod pass;
mod procfs;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use pass::{PassOpts, PassOutcome};
use stats::{median, quantile_sorted};
use trace::{Ledger, Tracer};
use workload::{Input, Reference, Signer, Workload};

/// End-to-end metrics (untraced run), with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_eps", "ev/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
    ("checkpoint_p50_ms", "ms"),
];

/// End-to-end metrics the untraced run prints but leaves out of its result
/// line: their run-to-run spread on a shared 2-core host is wider than any
/// bound a regression gate could use (README, "Method notes").
pub const ADVISORY: &[(&str, &str)] = &[("latency_p99_ms", "ms")];

/// Per-layer metrics (traced run), with units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lang.parse_ms", "ms"),
    ("planner.compile_ms", "ms"),
    ("runtime.build_ms", "ms"),
    ("router.cpu_s", "s"),
    ("router.call_p50_us", "us"),
    ("router.call_p99_us", "us"),
    ("router.blocked_s", "s"),
    ("router.allocs_per_event", "count/ev"),
    ("shard.cpu_s", "s"),
    ("shard.runq_wait_s", "s"),
    ("shard.service_s", "s"),
    ("shard.busy_frac", "ratio"),
    ("shard.queue_depth_peak", "count"),
    ("shard.allocs_per_event", "count/ev"),
    ("shard.alloc_bytes_per_event", "B/ev"),
    ("intake.kernel_rows_per_event", "rows/ev"),
    ("intake.fallback_rows_per_event", "rows/ev"),
    ("intake.admitted_per_event", "count/ev"),
    ("intake.outside_rounds_s", "s"),
    ("engine.round_s", "s"),
    ("engine.round_p99_us", "us"),
    ("engine.matched_per_admitted", "ratio"),
    ("engine.peak_buffer_bytes", "B"),
    ("merge.pending_peak", "count"),
    ("merge.frontier_lag_peak", "ts"),
    ("reorder.buffered_peak", "count"),
    ("reorder.late_frac", "ratio"),
    ("reorder.release_lag_p99", "ts"),
    ("checkpoint.bytes", "B"),
    ("alloc.per_event", "count/ev"),
    ("alloc.bytes_per_event", "B/ev"),
    ("alloc.peak_live_mb", "MiB"),
    ("ladder.core_eps", "ev/s"),
    ("ladder.runtime_overhead_ns_per_event", "ns/ev"),
    ("gen.lag_max_ms", "ms"),
    ("latency.samples", "count"),
    ("latency.p99_ms", "ms"),
];

const USAGE: &str = "usage: servebench --workload <stock_keyed|alarm_100q|weblog_disordered> \
--seed <u64> [--seconds <1..=600>] [--trace <0|1>] [--corrupt-reference]";

/// Fewest set-up repetitions and closed-loop passes in a traced run, and
/// fewest rounds in an end-to-end run, whatever `--seconds` says: medians
/// need a few samples.
const MIN_SETUPS: usize = 5;
const MIN_CLOSED_PASSES: usize = 3;
const MIN_ROUNDS: usize = 2;
/// Set-up repetitions (built, then shut down unused) per end-to-end round,
/// besides the set-up of each pass.
const SETUPS_PER_ROUND: usize = 20;

/// Checked command-line arguments.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Flip the expected digest of query 0, to show the gate fails a run.
    corrupt_reference: bool,
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut corrupt_reference = false;
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        if flag == "--corrupt-reference" {
            corrupt_reference = true;
            continue;
        }
        if !matches!(flag.as_str(), "--workload" | "--seed" | "--seconds" | "--trace") {
            return Err(format!("unknown argument {flag:?}"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let dup = || format!("{flag} given twice");
        match flag.as_str() {
            "--workload" => {
                let w =
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?;
                if workload.replace(w).is_some() {
                    return Err(dup());
                }
            }
            "--seed" => {
                let s = value.parse::<u64>().map_err(|e| format!("--seed {value:?}: {e}"))?;
                if seed.replace(s).is_some() {
                    return Err(dup());
                }
            }
            "--seconds" => {
                let s = value.parse::<u64>().map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds {s} outside 1..=600"));
                }
                if seconds.replace(s).is_some() {
                    return Err(dup());
                }
            }
            _ => {
                let t = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?}: expected 0 or 1")),
                };
                if trace.replace(t).is_some() {
                    return Err(dup());
                }
            }
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
        corrupt_reference,
    })
}

/// Entry point shared by both binaries. `traced_binary` says which one is
/// running: only the traced binary runs on the counting allocator, and each
/// refuses the other's mode.
pub fn main(traced_binary: bool) -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.trace != traced_binary {
        eprintln!(
            "servebench: --trace {} runs on the {} binary",
            u8::from(args.trace),
            if args.trace { "servebench_traced" } else { "servebench" }
        );
        return ExitCode::from(2);
    }
    if counting::installed() != traced_binary {
        eprintln!("servebench: counting allocator presence does not match the run mode");
        return ExitCode::from(2);
    }
    match run(&args) {
        Ok(result) => {
            result.print();
            if result.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What a run prints.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    advisory: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("{name:<40} {value:>16.4} {unit}");
        }
        for (name, value, unit) in &self.advisory {
            println!("{name:<40} {value:>16.4} {unit} (advisory, not in the result line)");
        }
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(", ")
        );
    }
}

/// Derives a workload's generator seed from `--seed`, so workloads run on
/// the same seed do not share streams.
fn input_seed(seed: u64, w: Workload) -> u64 {
    let tag = w.name().bytes().fold(0u64, |h, b| h.wrapping_mul(0x100_0000_01b3) ^ u64::from(b));
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ tag
}

/// Accumulates operations and failures across a run.
struct Gate {
    attempted: u64,
    failures: Vec<String>,
}

impl Gate {
    /// Counts a pass's operations and records its error, if any.
    fn ops(&mut self, out: &PassOutcome, what: &str) {
        self.attempted += out.ops;
        if let Some(e) = &out.error {
            self.failures.push(format!("{what}: {e}"));
        }
    }

    /// Compares a pass's match set and late count with the reference.
    fn check(&mut self, r: &Reference, out: &PassOutcome, what: &str) {
        if out.tallies != r.per_query {
            let bad = out.tallies.iter().zip(&r.per_query).position(|(a, b)| a != b);
            self.failures.push(format!(
                "{what}: match set differs from the reference (first differing query: {bad:?}; \
                 got {:?}, expected {:?})",
                bad.map(|q| out.tallies[q]),
                bad.map(|q| r.per_query[q]),
            ));
        }
        if out.late != r.late {
            self.failures
                .push(format!("{what}: {} late events, reference expects {}", out.late, r.late));
        }
    }
}

/// Everything a run's passes share.
struct Bench {
    w: Workload,
    input: Input,
    signer: Signer,
    seed: u64,
    placement: Option<affinity::Placement>,
    clock: Instant,
    seconds: f64,
}

impl Bench {
    fn elapsed(&self) -> f64 {
        self.clock.elapsed().as_secs_f64()
    }

    fn pass(
        &self,
        opts: PassOpts,
        tracer: Option<&mut Tracer>,
    ) -> Result<(PassOutcome, f64), String> {
        let served = self.w.setup()?;
        let setup = served.timings.total().as_secs_f64();
        // A spawned thread names itself once it first runs; wait for that
        // so `/proc` finds it by name.
        let named = Instant::now();
        while procfs::shard_threads().map_err(|e| format!("/proc/self/task: {e}"))?.len()
            < served.runtime.workers()
        {
            if named.elapsed() > Duration::from_secs(5) {
                return Err("shard threads did not appear under their names".into());
            }
            std::thread::sleep(Duration::from_micros(50));
        }
        if let Some(p) = &self.placement {
            p.pin_shards().map_err(|e| format!("pinning shard threads: {e}"))?;
        }
        Ok((pass::run(self.w, &self.input, served, &self.signer, opts, tracer), setup))
    }

    fn closed(&self) -> PassOpts {
        PassOpts { paced: false, checkpoints: self.w.checkpoints_in_workload() }
    }

    fn paced(&self) -> PassOpts {
        PassOpts { paced: true, checkpoints: self.w.checkpoints_in_workload() }
    }
}

fn run(args: &Args) -> Result<RunResult, String> {
    let w = args.workload;
    eprintln!("servebench: {} seed {} — generating input", w.name(), args.seed);
    let input = w.generate(input_seed(args.seed, w));
    let signer = w.signer()?;
    let placement = affinity::Placement::detect().map_err(|e| format!("allowed CPUs: {e}"))?;
    if let Some(p) = &placement {
        p.pin_caller().map_err(|e| format!("pinning the caller thread: {e}"))?;
    }
    let bench = Bench {
        w,
        input,
        signer,
        seed: args.seed,
        placement,
        clock: Instant::now(),
        seconds: args.seconds as f64,
    };
    let mut gate = Gate { attempted: 0, failures: Vec::new() };
    let mut passes: Vec<(String, PassOutcome)> = Vec::new();
    let metrics = if args.trace {
        traced(&bench, &mut gate, &mut passes)?
    } else {
        untraced(&bench, &mut gate, &mut passes)?
    };

    // The reference runs after every measured pass (and after peak RSS was
    // read), outside any timed region.
    let mut reference = w.reference(&bench.input)?;
    if args.corrupt_reference {
        if let Some(t) = reference.per_query.first_mut() {
            t.digest ^= 1;
        }
    }
    if reference.per_query.iter().all(|t| t.count == 0) {
        return Err("the reference matched nothing: the gate would be vacuous".into());
    }
    for (what, out) in &passes {
        gate.check(&reference, out, what);
    }
    for f in &gate.failures {
        eprintln!("servebench: FAILED {f}");
    }
    let mut result = RunResult {
        correct: gate.failures.is_empty(),
        attempted: gate.attempted.max(1),
        failed: gate.failures.len() as u64,
        metrics: Vec::new(),
        advisory: Vec::new(),
    };
    let pick = |table: &[(&'static str, &'static str)]| {
        table
            .iter()
            .map(|&(name, unit)| match metrics.get(name) {
                Some(v) if v.is_finite() => Ok((name, *v, unit)),
                Some(v) => Err(format!("metric {name} is not finite: {v}")),
                None => Err(format!("metric {name} was not measured")),
            })
            .collect::<Result<Vec<_>, String>>()
    };
    if args.trace {
        result.metrics = pick(PER_LAYER)?;
    } else {
        result.metrics = pick(END_TO_END)?;
        result.advisory = pick(ADVISORY)?;
    }
    Ok(result)
}

/// The end-to-end run: system allocator, no instrumentation.
///
/// Host speed on a small shared machine drifts over seconds, so the run
/// is a sequence of rounds — set-ups, one closed-loop pass, one open-loop
/// pass, and (where the workload does not checkpoint itself) one
/// checkpoint pass — repeated until `--seconds` is used up. Every metric
/// then samples the whole run instead of one stretch of it.
fn untraced(
    b: &Bench,
    gate: &mut Gate,
    passes: &mut Vec<(String, PassOutcome)>,
) -> Result<Ledger, String> {
    let mut setups = Vec::new();
    let (mut events, mut wall) = (0usize, 0.0f64);
    let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || b.elapsed() * (rounds + 1) as f64 / rounds as f64 <= b.seconds {
        rounds += 1;
        for _ in 0..SETUPS_PER_ROUND {
            let served = b.w.setup()?;
            setups.push(served.timings.total().as_secs_f64());
            gate.attempted += 2;
            if let Err(e) = served.runtime.shutdown() {
                gate.failures.push(format!("set-up shutdown: {e}"));
            }
        }
        let (out, setup) = b.pass(b.closed(), None)?;
        setups.push(setup);
        events += b.input.events;
        wall += out.wall.as_secs_f64();
        gate.ops(&out, "closed-loop pass");
        passes.push((format!("closed-loop pass {rounds}"), out));

        let (mut out, setup) = b.pass(b.paced(), None)?;
        setups.push(setup);
        out.latencies_ns.sort_unstable();
        p50s.push(quantile_sorted(&out.latencies_ns, 0.50));
        p99s.push(quantile_sorted(&out.latencies_ns, 0.99));
        // Dropped now so the harness's own memory stays flat across rounds.
        out.latencies_ns = Vec::new();
        gate.ops(&out, "open-loop pass");
        passes.push((format!("open-loop pass {rounds}"), out));

        if !b.w.checkpoints_in_workload() {
            let (out, setup) = b.pass(PassOpts { paced: false, checkpoints: true }, None)?;
            setups.push(setup);
            gate.ops(&out, "checkpoint pass");
            passes.push((format!("checkpoint pass {rounds}"), out));
        }
    }
    let peak_rss = procfs::peak_rss_mb().map_err(|e| format!("peak RSS: {e}"))?;
    let ckpt_ns: Vec<f64> =
        passes.iter().flat_map(|(_, o)| &o.checkpoint_ns).map(|&n| n as f64).collect();
    eprintln!(
        "servebench: {rounds} rounds, {} set-ups, {} checkpoints, {:.1} s",
        setups.len(),
        ckpt_ns.len(),
        b.elapsed()
    );
    let mut m = Ledger::new();
    m.insert("throughput_eps", events as f64 / wall);
    m.insert("latency_p50_ms", median(&p50s) / 1e6);
    m.insert("latency_p99_ms", median(&p99s) / 1e6);
    m.insert("peak_rss_mb", peak_rss);
    m.insert("setup_s", median(&setups));
    m.insert("checkpoint_p50_ms", median(&ckpt_ns) / 1e6);
    Ok(m)
}

/// The traced run: counting allocator, spans, obs scrapes, `/proc`.
fn traced(
    b: &Bench,
    gate: &mut Gate,
    passes: &mut Vec<(String, PassOutcome)>,
) -> Result<Ledger, String> {
    let mut tracer = Tracer::new().map_err(|e| format!("/proc/thread-self: {e}"))?;
    let (mut parse, mut compile, mut build) = (Vec::new(), Vec::new(), Vec::new());
    while parse.len() < MIN_SETUPS || (b.elapsed() < b.seconds * 0.05 && parse.len() < 50) {
        let start = Instant::now();
        let served = b.w.setup()?;
        tracer.setup_spans(parse.len(), start, &served.timings);
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        parse.push(ms(served.timings.parse));
        compile.push(ms(served.timings.compile));
        build.push(ms(served.timings.build));
        gate.attempted += 2;
        if let Err(e) = served.runtime.shutdown() {
            gate.failures.push(format!("set-up shutdown: {e}"));
        }
    }

    let mut ledgers = Vec::new();
    let mut eps = Vec::new();
    while ledgers.len() < MIN_CLOSED_PASSES || b.elapsed() < b.seconds * 0.45 {
        let (out, _) = b.pass(b.closed(), Some(&mut tracer))?;
        ledgers.push(tracer.take_ledger());
        eps.push(b.input.events as f64 / out.wall.as_secs_f64());
        gate.ops(&out, "traced closed-loop pass");
        passes.push((format!("traced closed-loop pass {}", eps.len()), out));
    }
    let (mut paced_out, _) = b.pass(b.paced(), Some(&mut tracer))?;
    let paced_ledger = tracer.take_ledger();
    let gen_lag_ms = paced_out.gen_lag_max_ns as f64 / 1e6;
    let latency_samples = paced_out.latencies_ns.len() as f64;
    paced_out.latencies_ns.sort_unstable();
    let latency_p99_ms = quantile_sorted(&paced_out.latencies_ns, 0.99) / 1e6;
    gate.ops(&paced_out, "traced open-loop pass");
    passes.push(("traced open-loop pass".into(), paced_out));
    if !b.w.checkpoints_in_workload() {
        let (out, _) = b.pass(PassOpts { paced: false, checkpoints: true }, Some(&mut tracer))?;
        tracer.take_ledger();
        gate.ops(&out, "traced checkpoint pass");
        passes.push(("traced checkpoint pass".into(), out));
    }
    let mut core = Vec::new();
    while core.len() < MIN_CLOSED_PASSES || (b.elapsed() < b.seconds * 0.9 && core.len() < 10) {
        core.push(b.w.core_pass(&b.input)?);
    }
    if let Some(e) = &tracer.error {
        return Err(e.clone());
    }

    let mut m = Ledger::new();
    for (name, _) in PER_LAYER {
        let vals: Vec<f64> = ledgers.iter().filter_map(|l| l.get(name).copied()).collect();
        if !vals.is_empty() {
            m.insert(name, median(&vals));
        }
    }
    for name in ["merge.pending_peak", "merge.frontier_lag_peak"] {
        if let Some(v) = paced_ledger.get(name) {
            m.insert(name, *v);
        }
    }
    let ckpt_bytes: Vec<f64> =
        passes.iter().flat_map(|(_, o)| &o.checkpoint_bytes).map(|&n| n as f64).collect();
    m.insert("checkpoint.bytes", median(&ckpt_bytes));
    m.insert("lang.parse_ms", median(&parse));
    m.insert("planner.compile_ms", median(&compile));
    m.insert("runtime.build_ms", median(&build));
    let (core_eps, rt_eps) = (median(&core), median(&eps));
    m.insert("ladder.core_eps", core_eps);
    m.insert("ladder.runtime_overhead_ns_per_event", 1e9 / rt_eps - 1e9 / core_eps);
    m.insert("gen.lag_max_ms", gen_lag_ms);
    m.insert("latency.samples", latency_samples);
    m.insert("latency.p99_ms", latency_p99_ms);

    let path = spans_path(b.w, b.seed);
    match tracer.write_spans(&path) {
        Ok(()) => eprintln!("servebench: spans written to {}", path.display()),
        Err(e) => return Err(format!("writing spans to {}: {e}", path.display())),
    }
    Ok(m)
}

/// Where the traced run writes its spans: `out/` beside this package's
/// manifest, inside the checkout the benchmark was built in.
fn spans_path(w: Workload, seed: u64) -> PathBuf {
    let file = format!("spans-{}-seed{seed}.jsonl", w.name());
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out").join(file)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload stock_keyed --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(a.workload, Workload::StockKeyed);
        assert_eq!((a.seed, a.seconds, a.trace, a.corrupt_reference), (7, 10, true, false));
    }

    /// `BENCHMARK.json` at the repository root declares exactly the
    /// metrics this program prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = json.matches("\"name\":").count();
        assert_eq!(declared, Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len());
        for (name, _) in ADVISORY {
            assert!(!json.contains(&format!("\"{name}\"")), "{name} is advisory, not gated");
        }
    }

    #[test]
    fn rejects_what_it_cannot_parse() {
        for bad in [
            "--workload stock_keyed --seed x",
            "--workload stock_keyed --seed -1",
            "--workload nope --seed 1",
            "--workload stock_keyed --seed 1 --trace 2",
            "--workload stock_keyed --seed 1 --seconds 0",
            "--workload stock_keyed --seed 1 --seed 2",
            "--workload stock_keyed --seed 1 --extra",
            "--workload stock_keyed --seed",
            "--seed 1",
        ] {
            assert!(args(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
