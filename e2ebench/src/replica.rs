//! The directed and random engines re-driven run by run from outside,
//! through `dart::run_once_in_tier` and `dart::search::solve_next`, with a
//! span around each call. The loop mirrors `Dart::run` (paper Fig. 2);
//! `matches` checks that it reproduced the engine's own session exactly,
//! so the per-layer split describes the same work the untraced run did.

use crate::trace::Tracer;
use dart::search::solve_next;
use dart::{Bug, BugKind, DartConfig, EngineMode, ExecTier, FaultState, InputTape, Outcome};
use dart::{RunTermination, Scheduler, SessionReport, SolveStats, Strategy};
use dart_minic::CompiledProgram;
use dart_ram::DecodedProgram;
use dart_solver::{QueryCache, Solver};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// What the re-driven session observed.
pub struct Replica {
    pub outcome: Outcome,
    pub runs: u64,
    pub restarts: u64,
    pub divergences: u64,
    pub steps: u64,
    pub bugs: Vec<Bug>,
    pub solver: SolveStats,
}

/// Re-drives a directed or random-only session of `toplevel`. Spans:
/// `driver` (the whole session) with `exec` and `search` children.
pub fn drive(
    compiled: &CompiledProgram,
    toplevel: &str,
    cfg: &DartConfig,
    tracer: &mut Tracer,
) -> Result<Replica, String> {
    if !matches!(cfg.mode, EngineMode::Directed | EngineMode::RandomOnly) {
        return Err(format!("the replica loop does not drive {:?}", cfg.mode));
    }
    let sig = compiled
        .fn_sig(toplevel)
        .cloned()
        .ok_or_else(|| format!("no toplevel `{toplevel}`"))?;
    let decoded =
        (cfg.exec_tier == ExecTier::Compiled).then(|| DecodedProgram::new(&compiled.program));
    let scheduler = match cfg.solve_threads {
        1 => Scheduler::Sequential,
        n => Scheduler::Scoped(n),
    };

    let root = tracer.open("driver", None);
    let solver = Solver::new(cfg.solver);
    let mut cache = QueryCache::new(cfg.solver_cache);
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut faults = FaultState::for_config(cfg);
    let mut r = Replica {
        outcome: Outcome::Exhausted,
        runs: 0,
        restarts: 0,
        divergences: 0,
        steps: 0,
        bugs: Vec::new(),
        solver: SolveStats::default(),
    };

    'outer: loop {
        r.restarts += 1;
        let mut next = (InputTape::new(rng.gen()), Vec::new());
        let mut session_complete = cfg.strategy == Strategy::Dfs;
        loop {
            if r.runs >= cfg.max_runs {
                r.outcome = Outcome::Exhausted;
                break 'outer;
            }
            let (tape, stack) = next;
            let span = tracer.open("exec", Some(root));
            let result = dart::run_once_in_tier(
                compiled,
                &sig,
                cfg.depth,
                cfg.machine,
                tape,
                stack,
                cfg.max_ptr_depth,
                decoded.as_ref(),
            );
            tracer.close(span);
            r.runs += 1;
            r.steps += result.steps;
            let kind = match &result.termination {
                RunTermination::Ok => None,
                RunTermination::Abort(reason) => Some(BugKind::Abort(reason.clone())),
                RunTermination::Crash(fault) => Some(BugKind::Crash(*fault)),
                RunTermination::OutOfSteps if cfg.nontermination_is_bug => {
                    Some(BugKind::NonTermination)
                }
                RunTermination::OutOfMemory if cfg.oom_is_bug => Some(BugKind::OutOfMemory),
                RunTermination::OutOfSteps | RunTermination::OutOfMemory => {
                    session_complete = false;
                    None
                }
            };
            if let Some(kind) = kind {
                let bug = Bug {
                    kind,
                    run_index: r.runs,
                    inputs: result.tape.snapshot(),
                };
                r.bugs.push(bug.clone());
                if cfg.stop_at_first_bug {
                    r.outcome = Outcome::BugFound(bug);
                    break 'outer;
                }
            }
            if !result.flags.holds() || result.init_truncated {
                session_complete = false;
            }
            if result.diverged {
                r.divergences += 1;
                continue 'outer;
            }
            if cfg.mode == EngineMode::RandomOnly {
                continue 'outer;
            }
            let unknown_before = r.solver.unknown;
            let span = tracer.open("search", Some(root));
            let step = solve_next(
                &result.path,
                &result.stack,
                &result.tape,
                &solver,
                &mut cache,
                cfg.strategy,
                &mut rng,
                &mut r.solver,
                &mut faults,
                scheduler,
            );
            tracer.close(span);
            if r.solver.unknown > unknown_before {
                session_complete = false;
            }
            match step {
                Some(step) => {
                    let mut tape = result.tape;
                    tape.apply_model(&step.model);
                    next = (tape, step.stack);
                }
                None if session_complete => {
                    r.outcome = Outcome::Complete;
                    break 'outer;
                }
                None => continue 'outer,
            }
        }
    }
    tracer.close(root);
    Ok(r)
}

/// Checks that the replica reproduced `report` exactly: verdict, runs,
/// restarts, divergences, steps, bugs and solver counts.
pub fn matches(r: &Replica, report: &SessionReport) -> Result<(), String> {
    let mut diffs = Vec::new();
    let mut cmp = |what: &str, ours: u64, engine: u64| {
        if ours != engine {
            diffs.push(format!("{what} {ours} vs {engine}"));
        }
    };
    cmp("runs", r.runs, report.runs);
    cmp("restarts", r.restarts, report.restarts);
    cmp("divergences", r.divergences, report.divergences);
    cmp("steps", r.steps, report.steps);
    cmp("sat", r.solver.sat, report.solver.sat);
    cmp("unsat", r.solver.unsat, report.solver.unsat);
    cmp("unknown", r.solver.unknown, report.solver.unknown);
    cmp("cache_hits", r.solver.cache_hits, report.solver.cache_hits);
    cmp(
        "model_reuse",
        r.solver.cache_model_reuse,
        report.solver.cache_model_reuse,
    );
    if r.outcome != report.outcome {
        diffs.push(format!("outcome {:?} vs {:?}", r.outcome, report.outcome));
    }
    if r.bugs != report.bugs {
        diffs.push("bug lists differ".into());
    }
    if diffs.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "traced loop diverged from Dart::run: {}",
            diffs.join(", ")
        ))
    }
}
