//! End-to-end benchmark of the DART reproduction: each workload is run to
//! its verdict, the verdict is checked against ground truth, and the time
//! to it is reported. A traced run splits that time over the engine's
//! layers with spans taken around public calls. See `README.md`.
//!
//! ```text
//! dart-e2ebench run --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]
//! dart-e2ebench work --workload NAME --seed N
//! dart-e2ebench selftest
//! ```
//!
//! `run` prints human-readable lines, then one JSON line with the result.
//! `run.py` beside this package builds it and runs it pinned to one core.

mod calib;
mod replica;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use trace::{median, quantile, secs, Tracer};
use workloads::{Kind, Size, Spec, Truth, Verdict, Work};

/// Setup (compile plus session construction) is repeated for at least
/// this long, and at least `MIN_SETUPS` times, per run; its median is
/// reported.
const SETUP_SECONDS: f64 = 1.0;
const MIN_SETUPS: usize = 15;
/// Set-ups are gauged against the host's speed in batches this long.
const SETUP_BATCH_SECONDS: f64 = 0.2;
/// Fewest timed verdicts in one run, however long each takes.
const MIN_REPS: usize = 3;

/// Per-layer metrics, in output order, with their units.
const LAYER_METRICS: [(&str, &str); 35] = [
    ("minic.compile_s", "s"),
    ("minic.ir_stmts", "count"),
    ("exec.calls", "count"),
    ("exec.busy_s", "s"),
    ("exec.self_s", "s"),
    ("exec.call_p50_us", "us"),
    ("exec.call_p99_us", "us"),
    ("exec.steps", "count"),
    ("exec.ns_per_step", "ns"),
    ("search.calls", "count"),
    ("search.busy_s", "s"),
    ("search.call_p50_us", "us"),
    ("search.call_p99_us", "us"),
    ("solver.queries", "count"),
    ("solver.sat", "count"),
    ("solver.unsat", "count"),
    ("solver.unknown", "count"),
    ("solver.cache_hits", "count"),
    ("solver.cache_hit_ratio", "ratio"),
    ("solver.model_reuse", "count"),
    ("solver.us_per_query", "us"),
    ("driver.runs", "count"),
    ("driver.restarts", "count"),
    ("driver.divergences", "count"),
    ("driver.other_s", "s"),
    ("frontier.peak", "count"),
    ("frontier.dedup_hits", "count"),
    ("frontier.evicted", "count"),
    ("sweep.sessions", "count"),
    ("sweep.session_p50_ms", "ms"),
    ("sweep.session_p95_ms", "ms"),
    ("sweep.session_max_ms", "ms"),
    ("sweep.busy_share", "ratio"),
    ("sweep.exec_s", "s"),
    ("sweep.solve_s", "s"),
];

type Metrics = BTreeMap<&'static str, f64>;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("work") => cmd_work(&args[1..]),
        Some("selftest") => cmd_selftest(),
        _ => Err("usage: dart-e2ebench run|work|selftest ...".into()),
    };
    if let Err(e) = code {
        eprintln!("dart-e2ebench: {e}");
        std::process::exit(1);
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    let raw = flag(args, name).ok_or_else(|| format!("missing {name}"))?;
    raw.parse().map_err(|_| format!("bad {name} `{raw}`"))
}

fn workload_spec(args: &[String]) -> Result<(Spec, u64), String> {
    let name: String = parsed(args, "--workload")?;
    let seed: u64 = parsed(args, "--seed")?;
    let spec = workloads::spec(&name, seed, Size::Full).ok_or_else(|| {
        format!(
            "unknown workload `{name}` (expected one of {:?})",
            workloads::NAMES
        )
    })?;
    Ok((spec, seed))
}

fn compile(spec: &Spec) -> Result<dart_minic::CompiledProgram, String> {
    dart_minic::compile(&spec.source).map_err(|e| format!("{} does not compile: {e}", spec.name))
}

/// `work`: the deterministic work counts of one verdict, as JSON.
fn cmd_work(args: &[String]) -> Result<(), String> {
    let (spec, _) = workload_spec(args)?;
    let compiled = compile(&spec)?;
    let verdict = workloads::run(&spec, &compiled)?;
    workloads::check(&spec, &spec.truth, &compiled, &verdict)?;
    println!("{}", Work::of(&verdict).to_json());
    Ok(())
}

/// Tracks the checks of one run: a failed check fails the result but the
/// run still reports what it measured.
#[derive(Default)]
struct Checks {
    failures: Vec<String>,
}

impl Checks {
    fn note(&mut self, what: &str, r: Result<(), String>) {
        if let Err(e) = r {
            println!("CHECK FAILED ({what}): {e}");
            self.failures.push(e);
        }
    }
}

/// Checks a verdict against ground truth and against the first verdict's
/// work counts (the same code at the same seed must do the same work).
fn check_verdict(
    spec: &Spec,
    compiled: &dart_minic::CompiledProgram,
    verdict: &Verdict,
    work: &mut Option<Work>,
    checks: &mut Checks,
) {
    checks.note(
        "ground truth",
        workloads::check(spec, &spec.truth, compiled, verdict),
    );
    let w = Work::of(verdict);
    match work {
        None => *work = Some(w),
        Some(first) if *first != w => checks.note(
            "determinism",
            Err(format!("work {} then {}", first.to_json(), w.to_json())),
        ),
        Some(_) => {}
    }
}

fn describe(verdict: &Verdict) -> String {
    match verdict {
        Verdict::Session(r) => {
            let first = r.bug().map_or(String::new(), |b| {
                format!(", first at run {} ({})", b.run_index, b.kind)
            });
            let outcome = match &r.outcome {
                dart::Outcome::BugFound(_) => "BugFound".to_string(),
                other => format!("{other:?}"),
            };
            format!(
                "{outcome} after {} runs, {} bugs{first}",
                r.runs,
                r.bugs.len()
            )
        }
        Verdict::Sweep(results) => {
            let crashed = results
                .iter()
                .filter_map(|r| r.report())
                .filter(|r| r.found_bug())
                .count();
            format!("{} sessions, {crashed} crashed", results.len())
        }
    }
}

/// `run`: one measured run of one workload.
fn cmd_run(args: &[String]) -> Result<(), String> {
    let (spec, seed) = workload_spec(args)?;
    let seconds: f64 = parsed(args, "--seconds")?;
    let trace = match flag(args, "--trace") {
        Some("0") | None => false,
        Some("1") => true,
        Some(other) => return Err(format!("bad --trace `{other}`")),
    };
    let threads = match &spec.kind {
        Kind::Sweep { threads, .. } => threads.to_string(),
        Kind::Session { .. } => "n/a".into(),
    };
    println!(
        "workload {} seed {seed} trace {} | {} sweep_threads={threads}",
        spec.name,
        u8::from(trace),
        workloads::effective_defaults()
    );

    let compiled = compile(&spec)?;
    let ir_stmts = compiled.program.stmts.len() as f64;
    let mut checks = Checks::default();
    let mut work = None;
    // One verdict first, untimed, so lazy one-time costs are not timed.
    // The process's peak memory is read right after it: the peak of one
    // verdict, before repeated verdicts fragment the heap and before the
    // sampler thread starts.
    let warm = workloads::run(&spec, &compiled)?;
    check_verdict(&spec, &compiled, &warm, &mut work, &mut checks);
    println!("verdict: {}", describe(&warm));
    drop(warm);
    let peak_rss_mb = peak_rss_mb()?;

    // Times are reported in nominal seconds, gauged by the sampler's
    // readings of the host's speed (see `calib`).
    let sampler = calib::Sampler::start();

    // Setup: compile plus session construction, repeated. A set-up is
    // shorter than the sampler's period, so set-ups are gauged by batch;
    // the median passes over the few that a kernel run interrupted.
    let (mut setup, mut setup_nominal) = (Vec::new(), Vec::new());
    let mut compile_s = Vec::new();
    let started = Instant::now();
    while setup.len() < MIN_SETUPS || secs(started.elapsed()) < SETUP_SECONDS {
        let (batch, batch_started) = (setup.len(), Instant::now());
        while setup.len() == batch || secs(batch_started.elapsed()) < SETUP_BATCH_SECONDS {
            let t = Instant::now();
            let compiled = compile(&spec)?;
            compile_s.push(secs(t.elapsed()));
            workloads::construct_sessions(&spec, &compiled)?;
            setup.push(secs(t.elapsed()));
        }
        let gauge = sampler.window(batch_started, Instant::now());
        setup_nominal.extend(setup[batch..].iter().map(|&s| s * gauge.scale()));
    }

    let mut metrics = if trace {
        drop(sampler);
        let mut m = traced(&spec, &compiled, seconds, args, &mut work, &mut checks)?;
        m.extend([
            ("minic.compile_s", median(&compile_s)),
            ("minic.ir_stmts", ir_stmts),
        ]);
        m
    } else {
        let (mut walls, mut walls_nominal) = (Vec::new(), Vec::new());
        let started = Instant::now();
        while walls.len() < MIN_REPS || secs(started.elapsed()) < seconds {
            let t = Instant::now();
            let verdict = workloads::run(&spec, &compiled)?;
            let wall = secs(t.elapsed());
            walls.push(wall);
            walls_nominal.push(sampler.window(t, Instant::now()).nominal(wall));
            check_verdict(&spec, &compiled, &verdict, &mut work, &mut checks);
        }
        let (readings, kernel_s) = sampler.summary();
        drop(sampler);
        println!(
            "wall_s: {} verdicts, median {:.4} nominal s, quartiles {:.4}-{:.4}; host wall \
             median {:.4} s, quartiles {:.4}-{:.4} s, max {:.4} s; {readings} host-speed \
             readings, kernel median {:.3} ms (nominal {} ms)",
            walls.len(),
            median(&walls_nominal),
            quantile(&walls_nominal, 0.25),
            quantile(&walls_nominal, 0.75),
            median(&walls),
            quantile(&walls, 0.25),
            quantile(&walls, 0.75),
            quantile(&walls, 1.0),
            kernel_s * 1e3,
            calib::NOMINAL_KERNEL_S * 1e3
        );
        Metrics::from([
            ("wall_s", median(&walls_nominal)),
            ("setup_s", median(&setup_nominal)),
            ("peak_rss_mb", peak_rss_mb),
        ])
    };
    println!(
        "setup_s: {} set-ups, median {:.6} nominal s; host median {:.6} s (compile {:.6} s), \
         quartiles {:.6}-{:.6} s",
        setup.len(),
        median(&setup_nominal),
        median(&setup),
        median(&compile_s),
        quantile(&setup, 0.25),
        quantile(&setup, 0.75)
    );

    let w = work.unwrap_or_default();
    let failed_share = w.failed() as f64 / w.attempted() as f64;
    if !trace {
        metrics.insert("ok_share", 1.0 - failed_share);
    }
    println!("work {}", w.to_json());
    println!(
        "failed_share {failed_share} ({} failed of {} operations: solver queries plus sessions)",
        w.failed(),
        w.attempted()
    );
    let units: BTreeMap<&str, &str> = if trace {
        LAYER_METRICS.into_iter().collect()
    } else {
        BTreeMap::from([
            ("wall_s", "s"),
            ("setup_s", "s"),
            ("peak_rss_mb", "MiB"),
            ("ok_share", "ratio"),
        ])
    };
    let body: Vec<String> = units
        .iter()
        .map(|(name, unit)| {
            let value = metrics.get(name).copied().unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failures.is_empty(),
        w.attempted(),
        w.failed(),
        body.join(", ")
    );
    Ok(())
}

/// The process's peak resident memory so far (`VmHWM`) less its resident
/// file-backed pages (`RssFile`: the binary and shared libraries), in MiB.
/// How much of a mapped file is resident depends on the page cache, not
/// on the workload: on `ns_random_d2`, whose heap stays under 1 MiB, it
/// moved the peak by 3% between runs. File-backed pages are only ever
/// added during a run, so the difference never exceeds the true peak of
/// the rest.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = |field: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(field))
            .and_then(|v| v.trim().strip_suffix("kB"))
            .and_then(|kb| kb.trim().parse::<f64>().ok())
            .ok_or_else(|| format!("no {field} in /proc/self/status"))
    };
    Ok((kb("VmHWM:")? - kb("RssFile:")?) / 1024.0)
}

/// The traced run: untraced and traced verdicts alternate for `seconds`.
/// Each traced verdict must reproduce the untraced one exactly; its
/// per-layer metrics are reported as medians over the traced verdicts.
fn traced(
    spec: &Spec,
    compiled: &dart_minic::CompiledProgram,
    seconds: f64,
    args: &[String],
    work: &mut Option<Work>,
    checks: &mut Checks,
) -> Result<Metrics, String> {
    let mut per_rep: Vec<Metrics> = Vec::new();
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut last = Tracer::new();
    let started = Instant::now();
    while per_rep.len() < MIN_REPS || secs(started.elapsed()) < seconds {
        let t = Instant::now();
        let verdict = workloads::run(spec, compiled)?;
        plain_walls.push(secs(t.elapsed()));
        check_verdict(spec, compiled, &verdict, work, checks);

        let mut tracer = Tracer::new();
        let t = Instant::now();
        let traced = trace_once(spec, compiled, &mut tracer)?;
        traced_walls.push(secs(t.elapsed()));
        checks.note("replica", traced.matches(&verdict));
        per_rep.push(traced.layers(&tracer));
        last = tracer;
    }
    let (plain, traced) = (median(&plain_walls), median(&traced_walls));
    println!(
        "tracing overhead: traced wall_s {traced:.4} s - untraced {plain:.4} s = {:+.4} s \
         ({} pairs)",
        traced - plain,
        per_rep.len()
    );
    if let Some(path) = flag(args, "--spans") {
        std::fs::write(path, last.render()).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!(
            "spans of the last traced verdict: {path} ({} spans)",
            last.spans.len()
        );
    }
    let mut out = Metrics::new();
    for (name, _) in LAYER_METRICS {
        let values: Vec<f64> = per_rep
            .iter()
            .filter_map(|m| m.get(name).copied())
            .collect();
        if !values.is_empty() {
            out.insert(name, median(&values));
        }
    }
    for (name, unit) in LAYER_METRICS {
        if let Some(v) = out.get(name) {
            println!("  {name:<24} {v:>16.6} {unit}");
        }
    }
    Ok(out)
}

/// One traced verdict.
enum Traced {
    /// A directed or random session re-driven from outside.
    Replica(replica::Replica),
    /// A generational session under one `driver` span.
    Generational(dart::SessionReport),
    /// The sweep re-driven from outside, one `session` span per function.
    Sweep(Vec<dart::SweepResult>, usize),
}

fn trace_once(
    spec: &Spec,
    compiled: &dart_minic::CompiledProgram,
    tracer: &mut Tracer,
) -> Result<Traced, String> {
    match &spec.kind {
        Kind::Session { toplevel } if spec.config.mode == dart::EngineMode::Generational => {
            let dart = dart::Dart::new(compiled, toplevel, spec.config.clone())
                .map_err(|e| e.to_string())?;
            let root = tracer.open("driver", None);
            let report = dart.run();
            tracer.close(root);
            Ok(Traced::Generational(report))
        }
        Kind::Session { toplevel } => {
            replica::drive(compiled, toplevel, &spec.config, tracer).map(Traced::Replica)
        }
        Kind::Sweep { names, threads } => sweep_traced(spec, compiled, names, *threads, tracer)
            .map(|results| Traced::Sweep(results, *threads)),
    }
}

impl Traced {
    /// The traced verdict must reproduce the untraced one exactly.
    fn matches(&self, verdict: &Verdict) -> Result<(), String> {
        match (self, verdict) {
            (Traced::Replica(r), Verdict::Session(report)) => replica::matches(r, report),
            (Traced::Generational(traced), Verdict::Session(report)) => {
                if scrubbed(traced) == scrubbed(report) {
                    Ok(())
                } else {
                    Err("the traced session's report differs from the untraced one".into())
                }
            }
            (Traced::Sweep(one_by_one, _), Verdict::Sweep(full)) => sweep_matches(one_by_one, full),
            _ => Err("the traced verdict's shape differs from the untraced one".into()),
        }
    }

    fn layers(&self, tracer: &Tracer) -> Metrics {
        match self {
            Traced::Replica(r) => replica_layers(r, tracer),
            Traced::Generational(report) => report_layers(&[report], tracer.busy("driver")),
            Traced::Sweep(results, threads) => sweep_layers(results, *threads, tracer),
        }
    }
}

/// Layers of a re-driven directed or random session (span-sourced).
fn replica_layers(r: &replica::Replica, tracer: &Tracer) -> Metrics {
    let exec_busy = tracer.busy("exec");
    let search_busy = tracer.busy("search");
    let queries = r.solver.sat + r.solver.unsat + r.solver.unknown;
    Metrics::from([
        ("exec.calls", tracer.count("exec") as f64),
        ("exec.busy_s", secs(exec_busy)),
        ("exec.self_s", secs(tracer.self_time("exec"))),
        (
            "exec.call_p50_us",
            quantile(&tracer.durations_us("exec"), 0.5),
        ),
        (
            "exec.call_p99_us",
            quantile(&tracer.durations_us("exec"), 0.99),
        ),
        ("exec.steps", r.steps as f64),
        (
            "exec.ns_per_step",
            ratio(exec_busy.as_nanos() as f64, r.steps),
        ),
        ("search.calls", tracer.count("search") as f64),
        ("search.busy_s", secs(search_busy)),
        (
            "search.call_p50_us",
            quantile(&tracer.durations_us("search"), 0.5),
        ),
        (
            "search.call_p99_us",
            quantile(&tracer.durations_us("search"), 0.99),
        ),
        ("solver.queries", queries as f64),
        ("solver.sat", r.solver.sat as f64),
        ("solver.unsat", r.solver.unsat as f64),
        ("solver.unknown", r.solver.unknown as f64),
        ("solver.cache_hits", r.solver.cache_hits as f64),
        (
            "solver.cache_hit_ratio",
            ratio(r.solver.cache_hits as f64, queries),
        ),
        ("solver.model_reuse", r.solver.cache_model_reuse as f64),
        (
            "solver.us_per_query",
            ratio(search_busy.as_nanos() as f64 / 1e3, queries),
        ),
        ("driver.runs", r.runs as f64),
        ("driver.restarts", r.restarts as f64),
        ("driver.divergences", r.divergences as f64),
        ("driver.other_s", secs(tracer.self_time("driver"))),
    ])
}

/// `num / den`, or 0 when there is nothing to divide by.
fn ratio(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

/// Layer metrics of the report-sourced workloads: exec and solve time come
/// from `SessionReport::{exec_time, solve_time}`, summed over `reports`;
/// `outer` is the time the sessions took in all.
fn report_layers(reports: &[&dart::SessionReport], outer: Duration) -> Metrics {
    let sum = |f: fn(&dart::SessionReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>();
    let exec: Duration = reports.iter().map(|r| r.exec_time).sum();
    let solve: Duration = reports.iter().map(|r| r.solve_time).sum();
    let (runs, steps) = (sum(|r| r.runs), sum(|r| r.steps));
    let queries = sum(|r| r.solver.sat + r.solver.unsat + r.solver.unknown);
    let hits = sum(|r| r.solver.cache_hits);
    Metrics::from([
        ("exec.calls", runs as f64),
        ("exec.busy_s", secs(exec)),
        ("exec.self_s", secs(exec)),
        ("exec.steps", steps as f64),
        ("exec.ns_per_step", ratio(exec.as_nanos() as f64, steps)),
        ("search.busy_s", secs(solve)),
        ("solver.queries", queries as f64),
        ("solver.sat", sum(|r| r.solver.sat) as f64),
        ("solver.unsat", sum(|r| r.solver.unsat) as f64),
        ("solver.unknown", sum(|r| r.solver.unknown) as f64),
        ("solver.cache_hits", hits as f64),
        ("solver.cache_hit_ratio", ratio(hits as f64, queries)),
        (
            "solver.model_reuse",
            sum(|r| r.solver.cache_model_reuse) as f64,
        ),
        (
            "solver.us_per_query",
            ratio(solve.as_nanos() as f64 / 1e3, queries),
        ),
        ("driver.runs", runs as f64),
        ("driver.restarts", sum(|r| r.restarts) as f64),
        ("driver.divergences", sum(|r| r.divergences) as f64),
        ("driver.other_s", secs(outer.saturating_sub(exec + solve))),
        (
            "frontier.peak",
            reports.iter().map(|r| r.frontier_peak).max().unwrap_or(0) as f64,
        ),
        ("frontier.dedup_hits", sum(|r| r.dedup_hits) as f64),
        ("frontier.evicted", sum(|r| r.frontier_evicted) as f64),
    ])
}

/// The sweep, re-driven from outside: the same number of worker threads
/// pull function names in order and run each as a one-name `dart::sweep`
/// (a session's seed depends only on its function name, so each matches
/// its session in the full sweep), with a `session` span around each.
fn sweep_traced(
    spec: &Spec,
    compiled: &dart_minic::CompiledProgram,
    names: &[String],
    threads: usize,
    tracer: &mut Tracer,
) -> Result<Vec<dart::SweepResult>, String> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::new());
    let root = tracer.open("sweep", None);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(name) = names.get(i) else { return };
                let start = Instant::now();
                let result = dart::sweep(compiled, std::slice::from_ref(name), &spec.config, 1);
                let end = Instant::now();
                done.lock()
                    .expect("no worker panics while holding the lock")
                    .push((i, start, end, result));
            });
        }
    });
    tracer.close(root);
    let mut done = done.into_inner().expect("workers have ended");
    done.sort_by_key(|d| d.0);
    let mut results = Vec::with_capacity(done.len());
    for (_, start, end, result) in done {
        tracer.record("session", start, end, Some(root));
        let mut one = result.map_err(|e| e.to_string())?;
        results.push(one.pop().ok_or("a one-name sweep returned nothing")?);
    }
    Ok(results)
}

fn sweep_layers(results: &[dart::SweepResult], threads: usize, tracer: &Tracer) -> Metrics {
    let session_ms: Vec<f64> = tracer
        .durations_us("session")
        .iter()
        .map(|us| us / 1e3)
        .collect();
    let summed = tracer.busy("session");
    let reports: Vec<&dart::SessionReport> = results.iter().filter_map(|r| r.report()).collect();
    let mut m = report_layers(&reports, summed);
    m.extend([
        ("sweep.sessions", results.len() as f64),
        ("sweep.session_p50_ms", quantile(&session_ms, 0.5)),
        ("sweep.session_p95_ms", quantile(&session_ms, 0.95)),
        ("sweep.session_max_ms", quantile(&session_ms, 1.0)),
        (
            "sweep.busy_share",
            secs(summed) / (threads as f64 * secs(tracer.busy("sweep"))),
        ),
        ("sweep.exec_s", m["exec.busy_s"]),
        ("sweep.solve_s", m["search.busy_s"]),
    ]);
    m
}

/// A session report with its scheduling diagnostics and timers cleared.
fn scrubbed(report: &dart::SessionReport) -> dart::SessionReport {
    let mut r = report.clone();
    r.solver.scrub_scheduling();
    r.exec_time = Duration::ZERO;
    r.solve_time = Duration::ZERO;
    r
}

/// Each one-name sweep result must equal the full sweep's result for the
/// same function after `scrub_scheduling`.
fn sweep_matches(
    one_by_one: &[dart::SweepResult],
    full: &[dart::SweepResult],
) -> Result<(), String> {
    if one_by_one.len() != full.len() {
        return Err(format!(
            "{} one-name results, {} in the sweep",
            one_by_one.len(),
            full.len()
        ));
    }
    for (a, b) in one_by_one.iter().zip(full) {
        let same = a.function == b.function
            && match (a.report(), b.report()) {
                (Some(x), Some(y)) => scrubbed(x) == scrubbed(y),
                (None, None) => a.outcome == b.outcome,
                _ => false,
            };
        if !same {
            return Err(format!(
                "{}: the one-name sweep differs from the full sweep",
                a.function
            ));
        }
    }
    Ok(())
}

/// `selftest`: every workload at reduced size, the replica checks, and
/// the oracle rejecting deliberately wrong expectations.
fn cmd_selftest() -> Result<(), String> {
    let mut failures = Vec::new();
    let mut expect = |what: String, ok: bool| {
        println!("{} {what}", if ok { "ok  " } else { "FAIL" });
        if !ok {
            failures.push(what);
        }
    };
    for name in workloads::NAMES {
        let spec = workloads::spec(name, 1, Size::Small).expect("every listed workload exists");
        let compiled = compile(&spec)?;
        let verdict = workloads::run(&spec, &compiled)?;
        let again = workloads::run(&spec, &compiled)?;
        let truth = workloads::check(&spec, &spec.truth, &compiled, &verdict);
        expect(
            format!(
                "{name}: verdict matches ground truth ({})",
                describe(&verdict)
            ),
            truth.is_ok(),
        );
        expect(
            format!(
                "{name}: two verdicts do the same work {}",
                Work::of(&verdict).to_json()
            ),
            Work::of(&verdict) == Work::of(&again),
        );

        // A deliberately wrong expectation must be rejected.
        let wrong = match (&spec.truth, &verdict) {
            (Truth::AttackReplays, Verdict::Session(r)) => Truth::NoBugExactRuns(r.runs),
            (Truth::CompleteNoUnknown, _) => Truth::AttackReplays,
            (Truth::NoBugExactRuns(runs), _) => Truth::NoBugExactRuns(runs + 1),
            (Truth::Osip(planted), Verdict::Sweep(results)) => {
                // Claim that a function which crashed is defect-free.
                let mut planted = planted.clone();
                let crashed = results
                    .iter()
                    .position(|r| r.report().is_some_and(|r| r.found_bug()));
                planted[crashed.unwrap_or(0)].1 = dart_workloads::Planted::None;
                Truth::Osip(planted)
            }
            _ => Truth::AttackReplays,
        };
        let rejected = workloads::check(&spec, &wrong, &compiled, &verdict);
        expect(
            format!("{name}: oracle rejects a wrong expectation ({rejected:?})"),
            rejected.is_err(),
        );

        match (&spec.kind, &verdict) {
            (Kind::Session { toplevel }, Verdict::Session(report))
                if spec.config.mode != dart::EngineMode::Generational =>
            {
                let mut tracer = Tracer::new();
                let r = replica::drive(&compiled, toplevel, &spec.config, &mut tracer)?;
                let same = replica::matches(&r, report);
                expect(
                    format!("{name}: traced loop reproduces Dart::run ({same:?})"),
                    same.is_ok(),
                );
                let mut off = report.clone();
                off.solver.cache_hits += 1;
                expect(
                    format!("{name}: replica check rejects a different session"),
                    replica::matches(&r, &off).is_err(),
                );
            }
            (Kind::Sweep { names, threads }, Verdict::Sweep(results)) => {
                let mut tracer = Tracer::new();
                let one_by_one = sweep_traced(&spec, &compiled, names, *threads, &mut tracer)?;
                let m = sweep_layers(&one_by_one, *threads, &tracer);
                let same = sweep_matches(&one_by_one, results);
                expect(
                    format!("{name}: one-name sweeps match the full sweep ({same:?})"),
                    same.is_ok(),
                );
                expect(
                    format!("{name}: one session span per function"),
                    m.get("sweep.sessions") == Some(&(names.len() as f64)),
                );
            }
            _ => {}
        }
    }

    // The host-speed sampler reads the core's speed during an interval.
    let spec = workloads::spec("ns_dy_d4", 1, Size::Small).expect("a listed workload");
    let sampler = calib::Sampler::start();
    let (from, busy) = (Instant::now(), Duration::from_millis(300));
    while from.elapsed() < busy {
        std::hint::black_box(compile(&spec)?);
    }
    let wall = secs(from.elapsed());
    let gauge = sampler.window(from, Instant::now());
    let nominal = gauge.nominal(wall);
    drop(sampler);
    expect(
        format!(
            "calib: {} readings in {wall:.3} s, kernel {:.3} ms, nominal {nominal:.3} s",
            gauge.readings,
            gauge.kernel_s * 1e3
        ),
        gauge.readings >= 3 && gauge.kernel_s > 0.0 && nominal > 0.0 && nominal.is_finite(),
    );

    if failures.is_empty() {
        println!("selftest passed");
        Ok(())
    } else {
        Err(format!("{} self-test checks failed", failures.len()))
    }
}
