//! Extension experiment ("Table 7"): copy-restore on collection
//! workloads.
//!
//! The paper's evaluation uses binary trees, but its motivation names
//! "lists, graphs, trees, hash tables" and its API section shows
//! `RestorableHashMap` (§5.1). This experiment extends the evaluation to
//! that case: a heap-resident `HashMap` of string-keyed records passed
//! to a remote method that updates a fraction of the entries. Compared
//! configurations:
//!
//! * **manual RMI** — call-by-copy, method returns the whole map, caller
//!   reassigns its reference (the scenario-I technique; aliases into the
//!   map would make it scenario III);
//! * **NRMI** — copy-restore, full reply;
//! * **NRMI + delta** — copy-restore with delta replies.
//!
//! The interesting shape: the map's internal structure (buckets, entry
//! chains) dwarfs the changed data, so delta replies win big at low
//! update fractions — the collections case is where §5.2.4's
//! optimization matters most.

use nrmi_core::{
    CallOptions, FnService, JdkGeneration, NrmiError, NrmiFlavor, PassMode, RuntimeProfile, Session,
};
use nrmi_heap::collections::{collection_classes, register_collections, HMap};
use nrmi_heap::{ClassRegistry, SharedRegistry, Value};
use nrmi_transport::{LinkSpec, MachineSpec, SimEnv};

/// One measured configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MapCell {
    /// Map entries.
    pub entries: usize,
    /// Entries the remote method updates.
    pub updates: usize,
    /// Manual-RMI (return + reassign), simulated ms.
    pub manual_ms: f64,
    /// NRMI full reply, simulated ms.
    pub nrmi_ms: f64,
    /// NRMI delta reply, simulated ms.
    pub delta_ms: f64,
}

/// The sizes swept (map entries).
pub const MAP_SIZES: [usize; 3] = [32, 128, 512];

fn map_registry() -> SharedRegistry {
    let mut reg = ClassRegistry::new();
    let _ = register_collections(&mut reg);
    reg.snapshot()
}

#[derive(Clone, Copy)]
enum Config {
    Manual,
    Nrmi,
    NrmiDelta,
}

fn run_config(entries: usize, updates: usize, config: Config) -> f64 {
    let registry = map_registry();
    let env = SimEnv::new();
    let mut session = Session::builder(registry.clone())
        .serve(
            "inventory",
            Box::new(FnService::new(move |method, args, heap| {
                let classes = collection_classes(heap.registry());
                let map = HMap::from_id(
                    args[0].as_ref_id().ok_or_else(|| NrmiError::app("map"))?,
                    classes,
                );
                let updates = args[1].as_int().unwrap_or(0) as usize;
                for i in 0..updates {
                    map.put(heap, &format!("key-{i}"), Value::Int(-(i as i32)))?;
                }
                match method {
                    // NRMI paths: mutations restore automatically.
                    "update" => Ok(Value::Null),
                    // Manual path: ship the whole map back.
                    "update_return" => Ok(args[0].clone()),
                    other => Err(NrmiError::app(format!("no method {other}"))),
                }
            })),
        )
        .simulated(
            env.clone(),
            LinkSpec::lan_100mbps(),
            MachineSpec::slow(),
            MachineSpec::fast(),
            RuntimeProfile {
                jdk: JdkGeneration::Jdk14,
                flavor: NrmiFlavor::Optimized,
            },
        )
        .build();

    // Client-side map.
    let classes = collection_classes(session.heap().registry_handle());
    let map = HMap::new(session.heap(), classes).expect("map");
    for i in 0..entries {
        map.put(session.heap(), &format!("key-{i}"), Value::Int(i as i32))
            .expect("put");
    }

    let args = [Value::Ref(map.id()), Value::Int(updates as i32)];
    match config {
        Config::Manual => {
            let ret = session
                .call_with(
                    "inventory",
                    "update_return",
                    &args,
                    CallOptions::forced(PassMode::Copy),
                )
                .expect("manual call");
            // "Reassign the reference": the returned map replaces the
            // original (checked for effect below).
            let new_map = HMap::from_id(ret.as_ref_id().expect("map return"), classes);
            // key-0 is 0 either way (-0 when updated); presence proves
            // the returned copy is usable after reassignment.
            assert_eq!(
                new_map.get(session.heap(), "key-0").expect("get"),
                Some(Value::Int(0))
            );
        }
        Config::Nrmi => {
            session
                .call_with(
                    "inventory",
                    "update",
                    &args,
                    CallOptions::forced(PassMode::CopyRestore),
                )
                .expect("nrmi call");
        }
        Config::NrmiDelta => {
            session
                .call_with(
                    "inventory",
                    "update",
                    &args,
                    CallOptions::copy_restore_delta(),
                )
                .expect("delta call");
        }
    }
    session.shutdown().expect("shutdown");
    env.report().total_ms()
}

/// Runs the extension experiment: for each map size, update 10% of the
/// entries remotely under the three configurations.
pub fn run_map_experiment() -> Vec<MapCell> {
    MAP_SIZES
        .iter()
        .map(|&entries| {
            let updates = (entries / 10).max(1);
            MapCell {
                entries,
                updates,
                manual_ms: run_config(entries, updates, Config::Manual),
                nrmi_ms: run_config(entries, updates, Config::Nrmi),
                delta_ms: run_config(entries, updates, Config::NrmiDelta),
            }
        })
        .collect()
}

/// Renders the experiment table.
pub fn render_map_experiment(cells: &[MapCell]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 7 (extension): copy-restore on RestorableHashMap workloads"
    );
    let _ = writeln!(
        out,
        "(10% of entries updated remotely; JDK 1.4 optimized; ms per call)\n"
    );
    let _ = writeln!(
        out,
        "{:>8} {:>8} {:>12} {:>10} {:>11}",
        "entries", "updates", "manual RMI", "NRMI", "NRMI delta"
    );
    for c in cells {
        let _ = writeln!(
            out,
            "{:>8} {:>8} {:>12.1} {:>10.1} {:>11.1}",
            c.entries, c.updates, c.manual_ms, c.nrmi_ms, c.delta_ms
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_configs_produce_correct_final_state() {
        // Correctness first: after each configuration, the authoritative
        // map view shows the updates. (run_config asserts the manual
        // path internally; here assert the NRMI path end to end.)
        let registry = map_registry();
        let mut session = Session::builder(registry)
            .serve(
                "inventory",
                Box::new(FnService::new(|_m, args, heap| {
                    let classes = collection_classes(heap.registry());
                    let map = HMap::from_id(args[0].as_ref_id().unwrap(), classes);
                    map.put(heap, "key-3", Value::Int(-3))?;
                    Ok(Value::Null)
                })),
            )
            .build();
        let classes = collection_classes(session.heap().registry_handle());
        let map = HMap::new(session.heap(), classes).unwrap();
        for i in 0..8 {
            map.put(session.heap(), &format!("key-{i}"), Value::Int(i))
                .unwrap();
        }
        session
            .call("inventory", "update", &[Value::Ref(map.id())])
            .unwrap();
        assert_eq!(
            map.get(session.heap(), "key-3").unwrap(),
            Some(Value::Int(-3))
        );
        assert_eq!(
            map.get(session.heap(), "key-5").unwrap(),
            Some(Value::Int(5))
        );
    }

    #[test]
    fn delta_wins_on_sparse_map_updates() {
        let cells = run_map_experiment();
        assert_eq!(cells.len(), MAP_SIZES.len());
        for c in &cells {
            assert!(
                c.delta_ms < c.nrmi_ms,
                "delta must beat the full reply for 10% churn: {c:?}"
            );
            assert!(
                c.delta_ms < c.manual_ms,
                "delta must beat manual return-the-map: {c:?}"
            );
            // Costs grow with map size.
        }
        assert!(cells[2].nrmi_ms > cells[0].nrmi_ms);
    }
}
