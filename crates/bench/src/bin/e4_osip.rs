//! E4 — §4.3: unit testing an oSIP-like library.
//!
//! Paper: DART crashes 65 % of oSIP's ~600 externally visible functions
//! within 1,000 runs each, almost all via unchecked NULL pointer
//! parameters; and it finds one deep, externally controllable crash — an
//! unchecked `alloca(message_size)` in `osip_message_parse` that returns
//! NULL for messages over ~2.5 MB.
//!
//! This binary sweeps the synthetic library (same defect distribution;
//! see DESIGN.md), prints the crash rate and per-class detection table
//! (including the classes DART is *expected* to miss), and reproduces the
//! parser attack. `--functions N` controls the sweep size;
//! `--shared-cache` shares solver verdicts across the sweep's sessions
//! and `--solve-threads N` fans each session's candidate queries out —
//! both leave every report identical and only change wall-clock.
//! `--scheduler stealing|scoped` picks between the persistent
//! work-stealing pool (shared by every session of the sweep) and the
//! per-walk statically-chunked scope — the pool-vs-scope overhead
//! comparison EXPERIMENTS.md E9 runs. `--engine directed|generational`
//! selects the search engine; under `generational`,
//! `--frontier-order scored|fifo` and `--frontier-budget N` expose the
//! scored frontier's knobs (EXPERIMENTS.md E10) and the sweep line
//! reports the aggregate dedup/eviction/peak counters.
//! `--exec-tier interp|compiled` picks the execution tier (reports
//! unchanged; the compiled tier only improves throughput — see
//! EXPERIMENTS.md E11).

use dart::{Dart, DartConfig, EngineMode, ExecTier, FrontierOrder, SchedulerMode};
use dart_bench::{fmt_dur, header, seed_from_args};
use dart_workloads::{generate_osip, OsipConfig};
use std::collections::BTreeMap;
use std::time::Instant;

fn main() {
    let seed = seed_from_args();
    let args: Vec<String> = std::env::args().collect();
    let num_functions = args
        .iter()
        .position(|a| a == "--functions")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);
    let shared_cache = args.iter().any(|a| a == "--shared-cache");
    let solve_threads: usize = args
        .iter()
        .position(|a| a == "--solve-threads")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1);
    let scheduler = match args
        .iter()
        .position(|a| a == "--scheduler")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
    {
        None | Some("stealing") => SchedulerMode::WorkStealing,
        Some("scoped") => SchedulerMode::StaticScoped,
        Some(other) => {
            eprintln!("unknown --scheduler `{other}` (expected `stealing` or `scoped`)");
            std::process::exit(2);
        }
    };
    let exec_tier = match args
        .iter()
        .position(|a| a == "--exec-tier")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
    {
        // Unset defers to the DartConfig default ($DART_EXEC_TIER).
        None => None,
        Some("interp") => Some(ExecTier::Interp),
        Some("compiled") => Some(ExecTier::Compiled),
        Some(other) => {
            eprintln!("unknown --exec-tier `{other}` (expected `interp` or `compiled`)");
            std::process::exit(2);
        }
    };
    let engine = match args
        .iter()
        .position(|a| a == "--engine")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
    {
        None | Some("directed") => EngineMode::Directed,
        Some("generational") => EngineMode::Generational,
        Some(other) => {
            eprintln!("unknown --engine `{other}` (expected `directed` or `generational`)");
            std::process::exit(2);
        }
    };
    let frontier_order = match args
        .iter()
        .position(|a| a == "--frontier-order")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
    {
        None | Some("scored") => FrontierOrder::Scored,
        Some("fifo") => FrontierOrder::Fifo,
        Some(other) => {
            eprintln!("unknown --frontier-order `{other}` (expected `scored` or `fifo`)");
            std::process::exit(2);
        }
    };
    let frontier_budget: Option<usize> = args
        .iter()
        .position(|a| a == "--frontier-budget")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok());

    let lib = generate_osip(OsipConfig {
        num_functions,
        seed,
    });
    let compiled = dart_minic::compile(&lib.source).expect("library compiles");

    let t = Instant::now();
    let mut crashed = 0usize;
    let mut by_class: BTreeMap<&'static str, (usize, usize)> = BTreeMap::new();
    let mut runs_to_crash: Vec<u64> = Vec::new();
    let names: Vec<String> = lib.functions.iter().map(|f| f.name.clone()).collect();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let results = dart::sweep(
        &compiled,
        &names,
        &{
            let mut config = DartConfig {
                max_runs: 1000, // the paper's per-function cap
                seed,
                shared_cache,
                solve_threads,
                scheduler,
                mode: engine,
                frontier_order,
                frontier_budget,
                ..DartConfig::default()
            };
            if let Some(tier) = exec_tier {
                config.exec_tier = tier;
            }
            config
        },
        threads,
    )
    .expect("all sweep toplevels come from the generated library");
    for (f, result) in lib.functions.iter().zip(&results) {
        let report = result
            .report()
            .expect("no faults are injected in a plain benchmark sweep");
        if report.found_bug() {
            crashed += 1;
            runs_to_crash.push(report.runs);
        }
        let e = by_class.entry(f.planted.label()).or_insert((0, 0));
        e.0 += usize::from(report.found_bug());
        e.1 += 1;
    }
    let elapsed = t.elapsed();

    header(
        "E4: oSIP-like library sweep (paper §4.3)",
        &["metric", "ours", "paper"],
    );
    println!(
        "functions crashed within 1000 runs | {}/{} ({:.0}%) | ~65% of ~600",
        crashed,
        lib.functions.len(),
        100.0 * crashed as f64 / lib.functions.len() as f64,
    );
    runs_to_crash.sort_unstable();
    if !runs_to_crash.is_empty() {
        println!(
            "median runs to first crash | {} | (not reported)",
            runs_to_crash[runs_to_crash.len() / 2]
        );
    }
    println!("sweep time | {} | (not reported)", fmt_dur(elapsed));
    println!(
        "solver sharing | shared-cache {}, solve-threads {}, scheduler {} | (n/a)",
        if shared_cache { "on" } else { "off" },
        solve_threads,
        match scheduler {
            SchedulerMode::WorkStealing => "stealing",
            SchedulerMode::StaticScoped => "scoped",
        },
    );
    if engine == EngineMode::Generational {
        let (dedup, evicted, peak) =
            results
                .iter()
                .filter_map(|r| r.report())
                .fold((0u64, 0u64, 0u64), |(d, e, p), rep| {
                    (
                        d + rep.dedup_hits,
                        e + rep.frontier_evicted,
                        p.max(rep.frontier_peak),
                    )
                });
        println!(
            "generational frontier | order {}, budget {}, dedup hits {}, \
             evicted {}, peak {} | (n/a)",
            match frontier_order {
                FrontierOrder::Scored => "scored",
                FrontierOrder::Fifo => "fifo",
            },
            frontier_budget.map_or("unbounded".to_string(), |b| b.to_string()),
            dedup,
            evicted,
            peak,
        );
    }

    header(
        "E4: detection by defect class (ground truth from the generator)",
        &["class", "found/total"],
    );
    for (class, (found, total)) in by_class {
        println!("{class} | {found}/{total}");
    }

    header(
        "E4b: the osip_message_parse alloca attack",
        &["result", "details"],
    );
    let t = Instant::now();
    let report = Dart::new(
        &compiled,
        "osip_message_parse",
        DartConfig {
            max_runs: 1000,
            seed,
            ..DartConfig::default()
        },
    )
    .expect("parser exists")
    .run();
    match report.bug() {
        Some(bug) => {
            println!(
                "CRASH FOUND | {} in {} runs, {}",
                bug.kind,
                report.runs,
                fmt_dur(t.elapsed())
            );
            let len = bug.inputs.iter().find(|s| s.name.contains("len"));
            if let Some(len) = len {
                println!(
                    "attack message length | {} words (> stack budget, so alloca \
                     returned NULL — the paper's >2.5 MB SIP message)",
                    len.value
                );
            }
        }
        None => println!("no crash | UNEXPECTED — the planted bug was missed"),
    }
}
