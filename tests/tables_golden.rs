//! Golden outputs of the `tables` binary's deterministic subcommands.
//!
//! Each file under `tests/golden/` is what `tables -- <command>` printed
//! when it was recorded. The simulated-time model is deterministic
//! (fixed seeds, no wall clock), so any difference is a change to the
//! reproduction's numbers: a moved digit must be explained and the
//! golden re-recorded on purpose, never silently.

use nrmi_bench::report::report;

/// Each pinned subcommand and what it printed when recorded.
const GOLDENS: [(&str, &str); 6] = [
    ("all", include_str!("golden/tables_all.txt")),
    ("delta", include_str!("golden/tables_delta.txt")),
    ("semantics", include_str!("golden/tables_semantics.txt")),
    ("sweep", include_str!("golden/tables_sweep.txt")),
    ("table7", include_str!("golden/tables_table7.txt")),
    ("leak", include_str!("golden/tables_leak.txt")),
];

#[test]
fn deterministic_subcommands_print_their_recorded_output() {
    let mut moved = Vec::new();
    for (command, want) in GOLDENS {
        let text = report(command, true).expect("a deterministic subcommand");
        if text != want {
            let first = text
                .lines()
                .zip(want.lines())
                .position(|(got, want)| got != want)
                .unwrap_or_else(|| text.lines().count().min(want.lines().count()));
            moved.push(format!(
                "`{command}` differs from line {}:\n  got:  {:?}\n  want: {:?}",
                first + 1,
                text.lines().nth(first),
                want.lines().nth(first)
            ));
        }
    }
    assert!(moved.is_empty(), "{}", moved.join("\n"));
}

#[test]
fn only_deterministic_subcommands_have_a_report() {
    for command in [
        "warm", "hotpath", "faults", "scaling", "check", "table0", "table8",
    ] {
        assert!(report(command, true).is_none(), "`{command}`");
    }
    assert!(report("table3", false).is_some());
}
