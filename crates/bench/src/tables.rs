//! Regenerates the paper's Tables 1–6 from the simulated-time model.
//!
//! Every cell runs the *real* middleware — graphs are built, serialized,
//! shipped over the in-process transport, mutated, and restored — while
//! each node counts the work it did. When the session stops, the
//! [`SimEnv`] prices those counts at what they would have cost on the
//! paper's 2003 testbed (750 MHz + 440 MHz hosts, 100 Mbps LAN), beside
//! the link transfers it charged as they happened. The reported
//! value is simulated milliseconds per call, directly comparable to the
//! published numbers in [`paper`](crate::paper).

use nrmi_core::{CallOptions, JdkGeneration, NrmiFlavor, PassMode, RuntimeProfile, Session};
use nrmi_heap::{Heap, Value};
use nrmi_transport::{LinkSpec, MachineSpec, SimEnv};

use crate::manual::manual_restore_call;
use crate::paper::{format_paper_cell, paper_cell, table_title};
use crate::workload::{
    bench_classes, build_workload, mutate_tree, mutation_cost_us_per_node, scenario_service,
    Scenario, TREE_SIZES,
};

/// Deterministic workload seed (the venue's opening date).
pub const SEED: u64 = 2003_0519;

/// One regenerated cell: primary simulated ms, optional secondary value
/// (slow machine / optimized flavor), and whether the run completed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MeasuredCell {
    /// Primary value (ms/call).
    pub primary: f64,
    /// Secondary value for paired cells.
    pub secondary: Option<f64>,
}

impl MeasuredCell {
    fn fmt_value(v: f64) -> String {
        if v < 1.0 {
            "<1".to_owned()
        } else if v < 10.0 {
            format!("{v:.1}")
        } else {
            format!("{v:.0}")
        }
    }

    /// Formats the cell in the paper's style.
    pub fn format(&self) -> String {
        match self.secondary {
            Some(s) => format!("{} / {}", Self::fmt_value(self.primary), Self::fmt_value(s)),
            None => Self::fmt_value(self.primary),
        }
    }
}

/// A regenerated table: rows are scenarios, columns are
/// (JDK 1.3 × sizes) then (JDK 1.4 × sizes).
#[derive(Clone, Debug)]
pub struct TableData {
    /// Table number (1–6).
    pub id: usize,
    /// Cells indexed `[scenario][jdk][size]` with jdk 0 = 1.3, 1 = 1.4.
    pub cells: Vec<Vec<Vec<MeasuredCell>>>,
}

impl TableData {
    /// The measured cell for `(scenario, jdk, size)`.
    pub fn cell(&self, scenario: Scenario, jdk: JdkGeneration, size: usize) -> MeasuredCell {
        let si = Scenario::ALL
            .iter()
            .position(|&s| s == scenario)
            .expect("valid scenario");
        let ji = match jdk {
            JdkGeneration::Jdk13 => 0,
            JdkGeneration::Jdk14 => 1,
        };
        let zi = TREE_SIZES
            .iter()
            .position(|&z| z == size)
            .expect("valid size");
        self.cells[si][ji][zi]
    }
}

const JDKS: [JdkGeneration; 2] = [JdkGeneration::Jdk13, JdkGeneration::Jdk14];

fn profile_for(jdk: JdkGeneration, flavor: NrmiFlavor) -> RuntimeProfile {
    RuntimeProfile { jdk, flavor }
}

/// Table 1 — local execution: the remote method's computation run in
/// one address space, on the fast and the slow machine.
pub fn run_table1() -> TableData {
    build_table(1, |scenario, jdk, size| {
        let classes = bench_classes();
        let mut values = [0.0f64; 2];
        for (i, machine) in [MachineSpec::fast(), MachineSpec::slow()]
            .into_iter()
            .enumerate()
        {
            let env = SimEnv::new();
            let mut heap = Heap::new(classes.registry.clone());
            let w = build_workload(&mut heap, &classes, scenario, size, SEED).expect("workload");
            let report = mutate_tree(&mut heap, w.root, scenario, SEED).expect("mutation");
            env.charge_cpu(
                &machine,
                report.nodes_visited as f64 * mutation_cost_us_per_node(scenario, jdk),
            );
            values[i] = env.report().total_ms();
        }
        MeasuredCell {
            primary: values[0],
            secondary: Some(values[1]),
        }
    })
}

/// Builds a simulated session for one cell and runs `run` against it.
#[allow(clippy::too_many_arguments)]
fn simulated_call(
    scenario: Scenario,
    size: usize,
    jdk: JdkGeneration,
    flavor: NrmiFlavor,
    link: LinkSpec,
    client_machine: MachineSpec,
    server_machine: MachineSpec,
    run: impl FnOnce(&mut Session, nrmi_heap::ObjId, &[nrmi_heap::ObjId]),
) -> f64 {
    let classes = bench_classes();
    let env = SimEnv::new();
    let svc = scenario_service(
        &classes,
        scenario,
        SEED,
        Some(env.clone()),
        server_machine.clone(),
        jdk,
    );
    let mut session = Session::builder(classes.registry.clone())
        .serve("bench", Box::new(svc))
        .simulated(
            env.clone(),
            link,
            client_machine,
            server_machine,
            profile_for(jdk, flavor),
        )
        .build();
    let w = build_workload(session.heap(), &classes, scenario, size, SEED).expect("workload");
    run(&mut session, w.root, &w.aliases);
    session.shutdown().expect("shutdown");
    env.report().total_ms()
}

/// Table 2 — RMI without restore: call-by-copy, one-way payload, the
/// server's changes discarded.
pub fn run_table2() -> TableData {
    build_table(2, |scenario, jdk, size| {
        let ms = simulated_call(
            scenario,
            size,
            jdk,
            NrmiFlavor::Portable,
            LinkSpec::lan_100mbps(),
            MachineSpec::slow(),
            MachineSpec::fast(),
            |session, root, _aliases| {
                session
                    .call_with(
                        "bench",
                        "mutate",
                        &[Value::Ref(root)],
                        CallOptions::forced(PassMode::Copy),
                    )
                    .expect("call");
            },
        );
        MeasuredCell {
            primary: ms,
            secondary: None,
        }
    })
}

/// Table 3 — RMI with manual restore, both JVMs on the one dual-CPU
/// machine (no real network).
pub fn run_table3() -> TableData {
    build_table(3, |scenario, jdk, size| {
        let ms = simulated_call(
            scenario,
            size,
            jdk,
            NrmiFlavor::Portable,
            LinkSpec::same_machine(),
            MachineSpec::fast(),
            MachineSpec::fast(),
            |session, root, aliases| {
                manual_restore_call(session, "bench", scenario, root, aliases).expect("manual");
            },
        );
        MeasuredCell {
            primary: ms,
            secondary: None,
        }
    })
}

/// Table 4 — RMI with manual restore over the LAN: the real competitor
/// to NRMI, with the programmer's hand-written fix-up code.
pub fn run_table4() -> TableData {
    build_table(4, |scenario, jdk, size| {
        let ms = simulated_call(
            scenario,
            size,
            jdk,
            NrmiFlavor::Portable,
            LinkSpec::lan_100mbps(),
            MachineSpec::slow(),
            MachineSpec::fast(),
            |session, root, aliases| {
                manual_restore_call(session, "bench", scenario, root, aliases).expect("manual");
            },
        );
        MeasuredCell {
            primary: ms,
            secondary: None,
        }
    })
}

/// Table 5 — NRMI call-by-copy-restore. JDK 1.3 runs the portable
/// implementation; JDK 1.4 cells report portable / optimized.
pub fn run_table5() -> TableData {
    build_table(5, |scenario, jdk, size| {
        let run_flavor = |flavor| {
            simulated_call(
                scenario,
                size,
                jdk,
                flavor,
                LinkSpec::lan_100mbps(),
                MachineSpec::slow(),
                MachineSpec::fast(),
                |session, root, _aliases| {
                    session
                        .call_with(
                            "bench",
                            "mutate",
                            &[Value::Ref(root)],
                            CallOptions::forced(PassMode::CopyRestore),
                        )
                        .expect("call");
                },
            )
        };
        match jdk {
            JdkGeneration::Jdk13 => MeasuredCell {
                primary: run_flavor(NrmiFlavor::Portable),
                secondary: None,
            },
            JdkGeneration::Jdk14 => MeasuredCell {
                primary: run_flavor(NrmiFlavor::Portable),
                secondary: Some(run_flavor(NrmiFlavor::Optimized)),
            },
        }
    })
}

/// Table 6 — call-by-reference with remote pointers: every field access
/// is a network round trip.
pub fn run_table6() -> TableData {
    build_table(6, |scenario, jdk, size| {
        let ms = simulated_call(
            scenario,
            size,
            jdk,
            NrmiFlavor::Portable,
            LinkSpec::lan_100mbps(),
            MachineSpec::slow(),
            MachineSpec::fast(),
            |session, root, _aliases| {
                session
                    .call_with(
                        "bench",
                        "mutate",
                        &[Value::Ref(root)],
                        CallOptions::forced(PassMode::RemoteRef),
                    )
                    .expect("call");
            },
        );
        MeasuredCell {
            primary: ms,
            secondary: None,
        }
    })
}

/// Runs the given cell function over the full scenario × JDK × size grid.
fn build_table(
    id: usize,
    mut cell: impl FnMut(Scenario, JdkGeneration, usize) -> MeasuredCell,
) -> TableData {
    let cells = Scenario::ALL
        .iter()
        .map(|&scenario| {
            JDKS.iter()
                .map(|&jdk| {
                    TREE_SIZES
                        .iter()
                        .map(|&size| cell(scenario, jdk, size))
                        .collect()
                })
                .collect()
        })
        .collect();
    TableData { id, cells }
}

/// Runs one table by number.
///
/// # Panics
/// Panics for ids outside 1..=6.
pub fn run_table(id: usize) -> TableData {
    match id {
        1 => run_table1(),
        2 => run_table2(),
        3 => run_table3(),
        4 => run_table4(),
        5 => run_table5(),
        6 => run_table6(),
        other => panic!("no such table: {other}"),
    }
}

/// Renders a regenerated table next to the paper's published values.
pub fn render_comparison(table: &TableData) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{}", table_title(table.id));
    let _ = writeln!(
        out,
        "(milliseconds per call; measured = this reproduction, paper = published)"
    );
    let _ = writeln!(
        out,
        "{:<10} {:>6} {:>11} {:>11} {:>7}   jdk",
        "bench", "size", "measured", "paper", "Δ%"
    );
    let _ = writeln!(out, "{}", "-".repeat(72));
    for &scenario in &Scenario::ALL {
        for &jdk in &JDKS {
            for &size in &TREE_SIZES {
                let measured = table.cell(scenario, jdk, size);
                let published = paper_cell(table.id, scenario, jdk, size);
                let jdk_name = match jdk {
                    JdkGeneration::Jdk13 => "1.3",
                    JdkGeneration::Jdk14 => "1.4",
                };
                // Relative error of the primary value, where the paper
                // printed an exact number (skip "<1" and "-" cells).
                let delta = match published.primary {
                    Some(p) if p >= 1.0 => {
                        format!("{:+.0}%", (measured.primary - p) / p * 100.0)
                    }
                    _ => "-".to_owned(),
                };
                let _ = writeln!(
                    out,
                    "{:<10} {:>6} {:>11} {:>11} {:>7}   {}",
                    scenario.label(),
                    size,
                    measured.format(),
                    format_paper_cell(published),
                    delta,
                    jdk_name
                );
            }
        }
    }
    out
}

/// Renders a regenerated table alone, in the paper's grid layout.
pub fn render(table: &TableData) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{}", table_title(table.id));
    let _ = write!(out, "{:<8}", "bench");
    for jdk in ["JDK 1.3", "JDK 1.4"] {
        for &size in &TREE_SIZES {
            let _ = write!(out, "{:>12}", format!("{jdk}/{size}"));
        }
    }
    let _ = writeln!(out);
    for &scenario in &Scenario::ALL {
        let _ = write!(out, "{:<8}", scenario.label());
        for &jdk in &JDKS {
            for &size in &TREE_SIZES {
                let _ = write!(out, "{:>12}", table.cell(scenario, jdk, size).format());
            }
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shape_local_costs() {
        let t = run_table1();
        // Larger trees cost more; III > I; slow machine > fast machine.
        let small = t.cell(Scenario::I, JdkGeneration::Jdk14, 16);
        let large = t.cell(Scenario::I, JdkGeneration::Jdk14, 1024);
        assert!(large.primary > small.primary);
        assert!(
            large.secondary.unwrap() > large.primary,
            "slow machine is slower"
        );
        let iii = t.cell(Scenario::III, JdkGeneration::Jdk14, 1024);
        assert!(iii.primary > large.primary, "III does more work than I");
        // JDK 1.3 slower than 1.4.
        let old = t.cell(Scenario::I, JdkGeneration::Jdk13, 1024);
        assert!(old.primary > large.primary);
    }

    #[test]
    fn table2_one_way_is_cheaper_than_table4_two_way() {
        let t2 = run_table2();
        let t4 = run_table4();
        for &scenario in &Scenario::ALL {
            for &jdk in &JDKS {
                for &size in &TREE_SIZES {
                    let one_way = t2.cell(scenario, jdk, size).primary;
                    let two_way = t4.cell(scenario, jdk, size).primary;
                    assert!(
                        one_way < two_way,
                        "{scenario:?}/{jdk:?}/{size}: {one_way} !< {two_way}"
                    );
                }
            }
        }
    }

    #[test]
    fn nrmi_cost_is_invariant_to_alias_count() {
        // The usability claim quantified: the caller's aliases cost NRMI
        // nothing — no per-alias bookkeeping exists anywhere in the
        // pipeline. Scenario II (2 aliases at size 64) and a variant
        // with 16 aliases must price identically.
        use nrmi_core::{CallOptions, PassMode};
        use nrmi_transport::SimEnv;
        let run_with_aliases = |alias_count: usize| -> f64 {
            let classes = bench_classes();
            let env = SimEnv::new();
            let svc = scenario_service(
                &classes,
                Scenario::II,
                SEED,
                Some(env.clone()),
                MachineSpec::fast(),
                JdkGeneration::Jdk14,
            );
            let mut session = nrmi_core::Session::builder(classes.registry.clone())
                .serve("bench", Box::new(svc))
                .simulated(
                    env.clone(),
                    LinkSpec::lan_100mbps(),
                    MachineSpec::slow(),
                    MachineSpec::fast(),
                    profile_for(JdkGeneration::Jdk14, NrmiFlavor::Optimized),
                )
                .build();
            let w =
                build_workload(session.heap(), &classes, Scenario::II, 64, SEED).expect("workload");
            // Take extra aliases beyond the scenario's default; they are
            // client-side handles and never touch the wire.
            let nodes = nrmi_heap::tree::collect_nodes(session.heap(), w.root).unwrap();
            let _aliases: Vec<_> = nodes.iter().cycle().take(alias_count).collect();
            session
                .call_with(
                    "bench",
                    "mutate",
                    &[nrmi_heap::Value::Ref(w.root)],
                    CallOptions::forced(PassMode::CopyRestore),
                )
                .expect("call");
            session.shutdown().expect("shutdown");
            env.report().total_ms()
        };
        let few = run_with_aliases(2);
        let many = run_with_aliases(64);
        assert!(
            (few - many).abs() < 1e-9,
            "alias count must not affect NRMI cost: {few} vs {many}"
        );
    }

    #[test]
    fn rendering_produces_all_rows() {
        let t = run_table1();
        let grid = render(&t);
        assert!(grid.contains("JDK 1.3/16"));
        let cmp = render_comparison(&t);
        assert!(cmp.contains("measured"));
        assert!(cmp.lines().count() > 24);
    }
}
