//! Golden numbers for the paper's experiments at seed 1: the run count
//! and verdict of every directed session the E1–E3b experiment binaries
//! report, and the E4 sweep's crash count and per-class detection table,
//! pinned here and cross-checked against the committed
//! `experiments_output.txt`. A change that alters the search (a different
//! run count, a lost or new bug) fails here instead of leaving that file
//! stale. Depth 4 of E3 is pinned by the benchmark's
//! `e2ebench/pinned_work.json` instead; E3b runs depth 4 here.

use std::collections::BTreeMap;

use dart::{Dart, DartConfig, Outcome, SessionReport};
use dart_workloads::{
    generate_osip, needham_schroeder, Intruder, LoweFix, OsipConfig, AC_CONTROLLER,
};

/// The body of `experiments_output.txt`'s section `title`.
fn section(title: &str) -> &'static str {
    let text = include_str!("../experiments_output.txt");
    let start = text
        .find(&format!("== {title}"))
        .unwrap_or_else(|| panic!("experiments_output.txt lacks `{title}`"));
    let section = &text[start + 3..];
    &section[..section.find("\n== ").unwrap_or(section.len())]
}

/// Asserts that `section` holds `line`.
fn recorded(section: &str, line: &str) {
    assert!(
        section.contains(line),
        "experiments_output.txt is stale: no `{line}` in\n{section}"
    );
}

/// One directed session of `toplevel` the way the experiment binaries
/// run it, checked for the expected verdict and no `Unknown`.
fn session(src: &str, toplevel: &str, depth: u32, max_runs: u64, bug: bool) -> SessionReport {
    let compiled = dart_minic::compile(src).expect("workload compiles");
    let report = Dart::new(
        &compiled,
        toplevel,
        DartConfig {
            depth,
            max_runs,
            seed: 1,
            ..DartConfig::default()
        },
    )
    .expect("toplevel exists")
    .run();
    let expected = if bug {
        matches!(report.outcome, Outcome::BugFound(_))
    } else {
        report.outcome == Outcome::Complete
    };
    assert!(expected, "{toplevel} depth {depth}: {:?}", report.outcome);
    assert_eq!(report.solver.unknown, 0, "{toplevel} depth {depth}");
    report
}

/// Runs `toplevel` of `src` at each pinned `(depth, bug found, runs)`
/// and checks the verdict, the run count, and the matching row of
/// `experiments_output.txt`'s section `title` (whose rows read
/// `depth | {mode}yes|no | N runs ...`).
fn pin(
    title: &str,
    mode: &str,
    src: &str,
    toplevel: &str,
    max_runs: u64,
    rows: &[(u32, bool, u64)],
) {
    let section = section(title);
    for &(depth, bug, runs) in rows {
        let report = session(src, toplevel, depth, max_runs, bug);
        assert_eq!(report.runs, runs, "{title} depth {depth}: runs");
        let verdict = if bug { "yes" } else { "no" };
        recorded(section, &format!("{depth} | {mode}{verdict} | {runs} runs"));
    }
}

#[test]
fn e1_ac_controller() {
    let rows = [(1, false, 5), (2, true, 6)];
    pin(
        "E1:",
        "directed | ",
        AC_CONTROLLER,
        "ac_controller",
        100_000,
        &rows,
    );
}

#[test]
fn e2_needham_schroeder_possibilistic() {
    let src = needham_schroeder(Intruder::Possibilistic, LoweFix::Off);
    pin(
        "E2:",
        "",
        &src,
        "deliver",
        1_000_000,
        &[(1, false, 9), (2, true, 36)],
    );
}

#[test]
fn e3_needham_schroeder_dolev_yao() {
    let src = needham_schroeder(Intruder::DolevYao, LoweFix::Off);
    let rows = [(1, false, 1), (2, false, 19), (3, false, 394)];
    pin("E3:", "", &src, "deliver", 2_000_000, &rows);
}

#[test]
fn e3b_lowe_fix() {
    let section = section("E3b:");
    let rows = [
        (
            LoweFix::Incomplete,
            "incomplete fix (the bug DART found)",
            true,
            "yes, ~22 min",
            9012,
        ),
        (LoweFix::Complete, "complete fix", false, "no", 9409),
    ];
    for (fix, label, bug, paper, runs) in rows {
        let src = needham_schroeder(Intruder::DolevYao, fix);
        let report = session(&src, "deliver", 4, 2_000_000, bug);
        assert_eq!(report.runs, runs, "E3b {label}: runs");
        let verdict = if bug { "yes" } else { "no" };
        recorded(
            section,
            &format!("{label} | {verdict} (paper: {paper}) | {runs} runs"),
        );
    }
}

/// The E4 sweep of `e4_osip`: the 201-function library of seed 1, 1,000
/// runs per function.
#[test]
fn e4_osip_detection_by_class() {
    let lib = generate_osip(OsipConfig {
        num_functions: 200,
        seed: 1,
    });
    let compiled = dart_minic::compile(&lib.source).expect("library compiles");
    let names: Vec<String> = lib.functions.iter().map(|f| f.name.clone()).collect();
    let config = DartConfig {
        max_runs: 1000,
        seed: 1,
        ..DartConfig::default()
    };
    let results = dart::sweep(&compiled, &names, &config, 2).expect("toplevels exist");
    let mut by_class: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    for (f, result) in lib.functions.iter().zip(&results) {
        let found = result.report().expect("no injected faults").found_bug();
        let e = by_class.entry(f.planted.label()).or_default();
        e.0 += usize::from(found);
        e.1 += 1;
    }
    let crashed: usize = by_class.values().map(|&(found, _)| found).sum();
    assert_eq!((crashed, lib.functions.len()), (130, 201));
    recorded(
        section("E4: oSIP-like library sweep"),
        "functions crashed within 1000 runs | 130/201 (65%)",
    );
    let table = section("E4: detection by defect class");
    for (class, (found, total)) in by_class {
        recorded(table, &format!("{class} | {found}/{total}"));
    }
}
