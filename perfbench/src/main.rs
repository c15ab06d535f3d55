//! End-to-end and per-layer benchmark of the adaptive-query-parallelization
//! workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <tpch_adaptive|service_hot|service_refresh> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! Untraced runs (`--trace 0`) print the end-to-end metrics; traced runs
//! (`--trace 1`) print the per-layer metrics and write their spans under
//! `.bench_out/`. The last stdout line is the result object; the line before
//! it is the record (host, configuration and commit). The exit code is 1
//! when any output differed from its reference. `perfbench/README.md`
//! defines every metric.

mod layers;
mod selftest;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::io::Write as _;
use std::time::{Duration, Instant};

use apq_engine::{Engine, QueryOutput};

use crate::layers::Counters;
use crate::trace::{median, peak_rss_mb, quantile, ratio, Rng, Tracer};
use crate::workload::{
    converge, engine_phase, headline, nproc, oat_config, service_config, service_phase, set_up,
    start_front, warm_up, with_references, working_set, Adaptive, ClientLoop, Front, Phase,
    Workload, CONVERGE_EPISODES, HOT_THINK, INVALIDATE_EVERY, PASS_LEN, SCALE_FACTOR,
    SERVICE_SEGMENTS, SETUP_REPS,
};

/// The end-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_ms.p50", "ms"),
    ("pass_ms.p90", "ms"),
    ("converge_runs", "count"),
    ("qps", "1/s"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.p90", "ms"),
];

/// Named metric values, in the order they were measured.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.into(), value, unit));
    }
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// TPC-H scale factor; [`SCALE_FACTOR`] except in the self-test.
    pub sf: f64,
    /// Replaces the first reference output, so every run of that plan must
    /// count as failed; set by the self-test only.
    pub corrupt_reference: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} expected, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("workload name"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("number in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        sf: SCALE_FACTOR,
        corrupt_reference: false,
    })
}

/// What one run measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Host, configuration and commit stamp (a JSON object).
    pub record: String,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}

/// Commit of the checkout, read from `.git` without running git.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else {
        return "unknown (not a git checkout)".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

fn record_json(args: &Args, workers: usize, clients: usize, attempted: u64, failed: u64) -> String {
    let service = service_config(workers);
    format!(
        "{{\"record\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"engine_workers\": {}, \"client_threads\": {}, \"scale_factor\": {}, \
         \"setup_reps\": {}, \"result_cache_capacity\": {}, \"plan_cache_capacity\": {}, \
         \"commit\": \"{}\", \"attempted\": {}, \"failed\": {}, \"failed_frac\": {}, \
         \"reference\": \"serial plan on a 1-worker OAT engine; shares kernels with the engine \
         under test\", \"cpu\": \"executor.cpu_ms is process CPU from /proc/self/stat; \
         executor.worker_busy_ms is worker wall time\"}}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        nproc(),
        workers,
        clients,
        args.sf,
        SETUP_REPS,
        service.result_cache_capacity,
        service.plan_cache_capacity,
        git_commit(),
        attempted,
        failed,
        ratio(failed as f64, attempted as f64),
    )
}

/// Runs one workload and measures it.
pub fn run(args: &Args) -> Outcome {
    let workers = nproc();
    let clients = if args.workload == Workload::TpchAdaptive { 1 } else { workers };
    let epoch = Instant::now();
    let mut tracer = Tracer::new(args.trace, epoch, 0);
    let mut rng = Rng::new(args.seed);

    let setup = set_up(args.workload, args.sf, args.seed, workers, SETUP_REPS);
    let catalog = setup.catalog.clone();
    let mut queries = with_references(working_set(args.workload, &catalog, &mut rng), &catalog);
    if args.corrupt_reference {
        queries[0].reference = QueryOutput::Opaque("deliberately corrupted reference".into());
    }
    let fixed = &queries[..PASS_LEN];

    // Every workload converges the 7 TPC-H queries on an OAT engine:
    // tpch_adaptive on its own engine, the service workloads on a separate
    // one that is gone before their service phase starts.
    let own_engine = match &setup.front {
        Front::Engine(_) => None,
        Front::Service(_) => Some(Engine::new(oat_config(workers))),
    };
    let oat = own_engine.as_ref().unwrap_or_else(|| setup.front.engine());
    let episodes: Vec<Adaptive> =
        (0..CONVERGE_EPISODES).map(|_| converge(oat, &catalog, fixed, &mut tracer)).collect();
    let mut attempted: u64 = episodes.iter().map(|e| e.attempted).sum();
    let mut failed: u64 = episodes.iter().map(|e| e.failed).sum();
    let headline = if args.trace {
        let (timings, (a, f)) = headline(oat, &catalog, fixed, &episodes, &mut tracer);
        attempted += a;
        failed += f;
        timings
    } else {
        Vec::new()
    };
    drop(own_engine);
    let mut count = |phase: &Phase| {
        attempted += phase.calls;
        failed += phase.failed;
    };

    // Service workloads time a warm service: service_hot with its whole
    // working set in the result cache, service_refresh with the 7 TPC-H
    // queries run once (typed column caches filled).
    let warm_set = match args.workload {
        Workload::ServiceHot => &queries[..],
        _ => fixed,
    };
    let timed = |front: &Front, seconds: f64, tracer: &mut Tracer, rng: &mut Rng| match front {
        Front::Engine(engine) => {
            let phase = engine_phase(engine, &catalog, &episodes, fixed, seconds, rng, tracer);
            (Phase::new(0, false), phase)
        }
        Front::Service(service) => {
            let warm = warm_up(service, warm_set, tracer);
            let refresh = args.workload == Workload::ServiceRefresh;
            let clients = ClientLoop {
                clients,
                seed: rng.next_u64(),
                invalidate_every: refresh.then_some(INVALIDATE_EVERY),
                think: if refresh { Duration::ZERO } else { HOT_THINK },
            };
            (warm, service_phase(service, &queries, seconds, clients, tracer))
        }
    };

    let mut metrics = Metrics::default();
    if !args.trace {
        // The service workloads time a fresh service in each segment (the
        // first is the set-up's): one instance's hash seeds and heap layout
        // moved the service_hot hit latency between 4.5 and 7.5 us at
        // random. The OAT engine has no such state, and restarting it only
        // grew the heap, so tpch_adaptive runs one segment.
        let segments = match setup.front {
            Front::Engine(_) => 1,
            Front::Service(_) => SERVICE_SEGMENTS,
        };
        let mut phase = Phase::new(rng.next_u64(), false);
        for segment in 0..segments {
            let fresh;
            let front = if segment == 0 {
                &setup.front
            } else {
                fresh = start_front(args.workload, &catalog, workers);
                &fresh
            };
            let (warm, timed_phase) =
                timed(front, args.seconds / segments as f64, &mut tracer, &mut rng);
            count(&warm);
            phase.merge(timed_phase);
        }
        count(&phase);
        let passes = phase.pass_ms.values();
        let latencies = phase.latency_ms.values();
        metrics.put("setup_s", median(&setup.setup_s), "s");
        metrics.put("peak_rss_mb", peak_rss_mb(), "MB");
        metrics.put("pass_ms.p50", median(passes), "ms");
        metrics.put("pass_ms.p90", quantile(passes, 0.9), "ms");
        let runs: Vec<f64> = episodes.iter().map(|e| e.runs() as f64).collect();
        metrics.put("converge_runs", median(&runs), "count");
        metrics.put("qps", ratio(phase.calls as f64, phase.wall_s), "1/s");
        metrics.put("latency_ms.p50", median(latencies), "ms");
        metrics.put("latency_ms.p90", quantile(latencies, 0.9), "ms");
    } else {
        let engine = setup.front.engine();
        let service = match &setup.front {
            Front::Service(service) => Some(service),
            Front::Engine(_) => None,
        };
        let counters = || Counters {
            scheduler: engine.scheduler_stats(),
            sharing: engine.sharing_stats(),
            service: service.map(|s| s.stats()),
        };
        let mut untraced_tracer = Tracer::new(false, epoch, 0);
        let (warm, untraced) =
            timed(&setup.front, args.seconds / 2.0, &mut untraced_tracer, &mut rng);
        count(&warm);
        count(&untraced);
        let before = counters();
        let (warm, traced) = timed(&setup.front, args.seconds / 2.0, &mut tracer, &mut rng);
        let after = counters();
        count(&warm);
        count(&traced);

        let m = &mut metrics;
        layers::columnar(m, &setup);
        layers::operators(m, &catalog, &mut tracer);
        let (replayed, replay_failed) =
            layers::interpreter(m, &catalog, &episodes, fixed, &mut tracer);
        attempted += replayed;
        failed += replay_failed;
        layers::executor(m, &traced, &before, &after);
        layers::sharing(m, &before, &after);
        layers::service(m, &traced, &before, &after);
        layers::core(m, &episodes, &headline);
        layers::trace_overhead(m, &untraced, &traced, tracer.counts());
        write_spans(args, &tracer);
    }
    Outcome {
        attempted,
        failed,
        metrics,
        record: record_json(args, workers, clients, attempted, failed),
    }
}

/// Writes the traced run's spans to `.bench_out/spans-<workload>-<seed>.csv`.
fn write_spans(args: &Args, tracer: &Tracer) {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("spans-{}-{}.csv", args.workload.name(), args.seed));
    let written = std::fs::create_dir_all(dir).and_then(|()| {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        tracer.write_csv(&mut out)?;
        out.flush()
    });
    if let Err(e) = written {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

const USAGE: &str = "usage: perfbench --workload <tpch_adaptive|service_hot|service_refresh> \
                     --seed <n> --seconds <s> --trace <0|1>\n       perfbench --self-test";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--self-test") {
        std::process::exit(selftest::run_self_test());
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = run(&args);
    println!("{}", outcome.record);
    println!("{}", outcome.result_json());
    if outcome.failed > 0 {
        eprintln!(
            "perfbench: {} of {} operations failed or differed from the reference",
            outcome.failed, outcome.attempted
        );
        std::process::exit(1);
    }
}
