//! The benchmark checks itself: `BENCHMARK.json` and the program name the
//! same metrics, exact counts repeat from run to run, the seed moves the
//! inputs, and the client's span partition adds up.
//!
//! Every run here is `--quick` (one round, a twentieth of the counts, 50
//! idle sockets), which is also the only mode a debug build agrees to time.

use std::process::Command;

use nrmi_benchmark::gen;
use nrmi_benchmark::json::Json;
use nrmi_benchmark::metrics::{Def, END_TO_END, PER_LAYER};
use nrmi_benchmark::workloads;
use nrmi_heap::graph::isomorphic;
use nrmi_heap::Heap;

/// Runs one workload in a child process and returns its result line.
fn run(workload: &str, seed: u64, trace: bool) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_nrmi-benchmark"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "1",
            "--trace",
            if trace { "1" } else { "0" },
            "--quick",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert!(
        output.status.success(),
        "{workload} (trace {trace}) failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    let result = Json::parse(stdout.lines().last().expect("a result line")).expect("JSON");
    let keys: Vec<&str> = result.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
    assert_eq!(
        result.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{workload}"
    );
    result
}

fn metric(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("result has no numeric {name}"))
}

/// The metrics of `result` are exactly `defs`' contract metrics, each a
/// finite number carrying its declared unit.
fn assert_metrics(result: &Json, defs: &[Def], what: &str) {
    let expected: Vec<&Def> = defs.iter().filter(|d| d.contract).collect();
    let got = result.get("metrics").expect("metrics").members();
    let names: Vec<&str> = got.iter().map(|(k, _)| k.as_str()).collect();
    let expected_names: Vec<&str> = expected.iter().map(|d| d.name).collect();
    assert_eq!(names, expected_names, "{what}");
    for (def, (_, m)) in expected.iter().zip(got) {
        let value = m.get("value").and_then(Json::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{what}: {} = {value:?}",
            def.name
        );
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(def.unit),
            "{what}: {}",
            def.name
        );
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn str_of<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("entry has no string {key}: {entry:?}"))
}

#[test]
fn benchmark_json_names_what_the_program_defines() {
    let doc = benchmark_json();
    let specs = workloads::specs(false);
    let listed = doc.get("workloads").expect("workloads").elements();
    assert_eq!(listed.len(), specs.len());
    for (entry, spec) in listed.iter().zip(&specs) {
        assert_eq!(str_of(entry, "name"), spec.name);
        assert_eq!(str_of(entry, "why"), spec.why);
        assert!(
            spec.why.len() <= 200,
            "{}: why is {} characters",
            spec.name,
            spec.why.len()
        );
    }
    for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = doc.get(key).expect(key).elements();
        let defs: Vec<&Def> = defs.iter().filter(|d| d.contract).collect();
        assert_eq!(listed.len(), defs.len(), "{key}");
        for (entry, def) in listed.iter().zip(defs) {
            assert_eq!(str_of(entry, "name"), def.name);
            assert_eq!(str_of(entry, "unit"), def.unit, "{}", def.name);
            assert_eq!(str_of(entry, "better"), def.better.word(), "{}", def.name);
            assert_eq!(
                entry.get("bound").and_then(Json::as_f64),
                def.bound,
                "{}",
                def.name
            );
        }
    }
}

/// One test per workload keeps the child processes few: an untraced run,
/// two traced runs with one seed, and what each must satisfy.
fn check_workload(name: &str) {
    assert_metrics(&run(name, 7, false), END_TO_END, name);

    let first = run(name, 7, true);
    let second = run(name, 7, true);
    assert_metrics(&first, PER_LAYER, name);
    assert_eq!(
        first.get("attempted"),
        second.get("attempted"),
        "{name}: calls"
    );
    for exact in [
        "wire.payload_bytes_per_call",
        "transport.frame_bytes_per_call",
        "heap.client_reads_per_call",
        "heap.client_writes_per_call",
    ] {
        assert_eq!(
            metric(&first, exact),
            metric(&second, exact),
            "{name}: {exact}"
        );
    }

    let parts: f64 = [
        "client.marshal_us",
        "client.send_us",
        "client.wait_us",
        "client.apply_us",
    ]
    .iter()
    .map(|part| metric(&first, part))
    .sum();
    let latency = metric(&first, "client.latency_us");
    assert!(
        (parts - latency).abs() <= 0.01 * latency,
        "{name}: the client partition sums to {parts}, the traced latency is {latency}"
    );
}

#[test]
fn echo_rtt() {
    check_workload("echo_rtt");
}

#[test]
fn echo_pipelined() {
    check_workload("echo_pipelined");
}

#[test]
fn fleet_idle() {
    check_workload("fleet_idle");
}

#[test]
fn tree_cold() {
    check_workload("tree_cold");
}

#[test]
fn warm_sparse() {
    check_workload("warm_sparse");
}

#[test]
fn warm_dense() {
    check_workload("warm_dense");
}

#[test]
fn another_seed_is_another_tree_of_the_same_size() {
    let classes = gen::classes();
    let build = |seed| {
        let mut heap = Heap::new(classes.registry.clone());
        let tree = gen::build_tree(&mut heap, &classes, workloads::COLD_NODES, 4, seed).unwrap();
        (heap, tree)
    };
    let ((a, ta), (b, tb), (c, tc)) = (build(7), build(7), build(8));
    assert!(isomorphic(&a, ta.root, &b, tb.root).unwrap());
    assert!(!isomorphic(&a, ta.root, &c, tc.root).unwrap());
    // ...but the same amount of work: node count and encoded size.
    let size = |heap: &Heap, tree: &gen::Tree| {
        nrmi_wire::serialize_graph(heap, &[nrmi_heap::Value::Ref(tree.root)])
            .unwrap()
            .bytes
            .len()
    };
    assert_eq!(size(&a, &ta), size(&c, &tc));
}
