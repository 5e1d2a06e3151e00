//! The text of the `tables` binary's deterministic subcommands.
//!
//! Every subcommand here prints a pure function of the code: simulated
//! milliseconds, byte counts and lines of code, never wall-clock time.
//! The binary prints [`report`]'s text verbatim, and the facade's
//! `tests/tables_golden.rs` compares the same text with recorded
//! outputs, so a change that moves a printed digit is seen in review.
//! `warm`, `hotpath`, `faults`, `scaling` and `check` measure real time
//! or write files and stay in the binary.

use std::fmt::Write as _;

use crate::delta_sweep::{render_delta_sweep, run_delta_sweep};
use crate::ext_collections::{render_map_experiment, run_map_experiment};
use crate::manual::loc;
use crate::observations::{check_observations, render_observations, run_all_tables};
use crate::sensitivity::{monotonicity_violations, render_sweep, run_sweep};
use crate::tables::{render, render_comparison, run_table, TableData};
use crate::workload::Scenario;

/// What `tables -- <command>` prints to stdout, for the deterministic
/// subcommands (`all`, `loc`, `checks`, `semantics`, `leak`, `table7`,
/// `delta`, `sweep`, `table1`..`table6`). `compare` renders Tables 1–6
/// beside the paper's values (the default; `--bare` clears it). `None`
/// for any other command.
pub fn report(command: &str, compare: bool) -> Option<String> {
    let mut out = String::new();
    match command {
        "all" => {
            let all = run_all_tables();
            for table in &all.tables {
                let _ = writeln!(out, "{}", render_table(table, compare));
                let _ = writeln!(out);
            }
            let _ = writeln!(out, "{}", render_loc());
            let _ = writeln!(out, "{}", render_observations(&check_observations(&all)));
            let _ = writeln!(
                out,
                "\nextensions: `tables -- semantics | sweep | delta | warm | hotpath | faults | scaling | table7 | leak`"
            );
        }
        "loc" => out.push_str(&render_loc()),
        "checks" => {
            let all = run_all_tables();
            let _ = writeln!(out, "{}", render_observations(&check_observations(&all)));
        }
        "semantics" => {
            let cells = crate::semantics_matrix::run_matrix();
            let _ = writeln!(out, "{}", crate::semantics_matrix::render_matrix(&cells));
        }
        "leak" => {
            let report = crate::leak::run_leak_experiment(64, 8);
            let _ = writeln!(out, "{}", crate::leak::render_leak_report(&report));
        }
        "table7" => {
            let _ = writeln!(out, "{}", render_map_experiment(&run_map_experiment()));
        }
        "delta" => {
            let points = run_delta_sweep(1024);
            let _ = writeln!(out, "{}", render_delta_sweep(1024, &points));
        }
        "sweep" => render_sweeps(&mut out),
        table => {
            let id: usize = table.strip_prefix("table")?.parse().ok()?;
            if !(1..=6).contains(&id) {
                return None;
            }
            let _ = writeln!(out, "{}", render_table(&run_table(id), compare));
        }
    }
    Some(out)
}

fn render_table(table: &TableData, compare: bool) -> String {
    if compare {
        render_comparison(table)
    } else {
        render(table)
    }
}

fn render_loc() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Extra client/server code for manual restore with plain RMI (§5.3.2):"
    );
    let _ = writeln!(
        out,
        "{:<10} {:>14} {:>12} {:>10} {:>8}   NRMI",
        "bench", "return types", "traversal", "shadow", "total"
    );
    for scenario in Scenario::ALL {
        let l = loc(scenario);
        let _ = writeln!(
            out,
            "{:<10} {:>14} {:>12} {:>10} {:>8}   ~0 (implement Restorable)",
            scenario.label(),
            l.return_types,
            l.traversal,
            l.shadow,
            l.total()
        );
    }
    out
}

fn render_sweeps(out: &mut String) {
    for scenario in [Scenario::I, Scenario::III] {
        let cells = run_sweep(scenario, 1024);
        let _ = writeln!(out, "{}", render_sweep(scenario, 1024, &cells));
        let violations = monotonicity_violations(&cells);
        match scenario {
            Scenario::III => {
                if violations.is_empty() {
                    let _ = writeln!(out, "[PASS] scenario III: NRMI's advantage holds/grows with faster machines and slower networks\n");
                } else {
                    let _ = writeln!(out, "[FAIL] scenario III monotonicity violations:");
                    for v in violations {
                        let _ = writeln!(out, "  - {v}");
                    }
                }
            }
            _ => {
                let _ = writeln!(
                    out,
                    "(scenario I note: the manual return-value restore ships fewer bytes than\n NRMI's annotated reply, so on slow networks the ratio converges to the byte\n ratio rather than 1.0 — see nrmi_bench::sensitivity docs)\n"
                );
            }
        }
    }
}
