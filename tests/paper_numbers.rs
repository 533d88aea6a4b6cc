//! Golden numbers for the paper's experiments E1–E3 at seed 1: the run
//! count and verdict of every directed session the experiment binaries
//! report, pinned here and cross-checked against the committed
//! `experiments_output.txt`. A change that alters the search (a different
//! run count, a lost or new bug) fails here instead of leaving that file
//! stale. Depth 4 of E3 is too slow for a debug build; the benchmark's
//! `e2ebench/pinned_work.json` pins it.

use dart::{Dart, DartConfig, Outcome};
use dart_workloads::{needham_schroeder, Intruder, LoweFix, AC_CONTROLLER};

/// Runs `toplevel` of `src` at each pinned `(depth, bug found, runs)`
/// the way the experiment binaries do, and checks the verdict, the run
/// count, and the matching row of `experiments_output.txt`'s section
/// `title` (whose rows read `depth | {mode}yes|no | N runs ...`).
fn pin(
    title: &str,
    mode: &str,
    src: &str,
    toplevel: &str,
    max_runs: u64,
    rows: &[(u32, bool, u64)],
) {
    let compiled = dart_minic::compile(src).expect("workload compiles");
    let text = include_str!("../experiments_output.txt");
    let start = text
        .find(&format!("== {title}"))
        .unwrap_or_else(|| panic!("experiments_output.txt lacks `{title}`"));
    let section = &text[start + 3..];
    let section = &section[..section.find("\n== ").unwrap_or(section.len())];
    for &(depth, bug, runs) in rows {
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
        assert!(expected, "{title} depth {depth}: {:?}", report.outcome);
        assert_eq!(report.runs, runs, "{title} depth {depth}: runs");
        assert_eq!(report.solver.unknown, 0, "{title} depth {depth}");
        let verdict = if bug { "yes" } else { "no" };
        let line = format!("{depth} | {mode}{verdict} | {runs} runs");
        assert!(
            section.contains(&line),
            "experiments_output.txt is stale: no `{line}` in\n{section}"
        );
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
