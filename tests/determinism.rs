//! Determinism guarantees: the simulated evaluation is exactly
//! reproducible, run to run and machine to machine — the property that
//! makes the regenerated tables meaningful.

use nrmi::core::{
    CallOptions, JdkGeneration, NrmiFlavor, PassMode, RuntimeProfile, Session, WorkCounts,
};
use nrmi::heap::Value;
use nrmi::transport::{LinkSpec, MachineSpec, SimEnv};
use nrmi_bench::workload::{bench_classes, build_workload, scenario_service, Scenario};

/// One simulated call: what each end counted, the bytes on the link,
/// and the simulated time those price to.
#[derive(Debug, PartialEq)]
struct Measured {
    client: WorkCounts,
    server: WorkCounts,
    bytes_sent: u64,
    total_us: u64,
}

fn measure_once(mode: PassMode) -> Measured {
    let classes = bench_classes();
    let env = SimEnv::new();
    let svc = scenario_service(
        &classes,
        Scenario::III,
        99,
        Some(env.clone()),
        MachineSpec::fast(),
        JdkGeneration::Jdk14,
    );
    let mut session = Session::builder(classes.registry.clone())
        .serve("bench", Box::new(svc))
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
    let w = build_workload(session.heap(), &classes, Scenario::III, 128, 99).unwrap();
    session
        .call_with(
            "bench",
            "mutate",
            &[Value::Ref(w.root)],
            CallOptions::forced(mode),
        )
        .unwrap();
    let client = session.client().state.work;
    let server = session.shutdown().unwrap().state.work;
    let report = env.report();
    Measured {
        client,
        server,
        bytes_sent: report.bytes_sent,
        total_us: report.total_us().to_bits(),
    }
}

#[test]
fn simulated_measurements_are_bit_identical_across_runs() {
    for mode in [
        PassMode::Copy,
        PassMode::CopyRestore,
        PassMode::RemoteRef,
        PassMode::DceRpc,
    ] {
        let first = measure_once(mode);
        assert_eq!(
            first,
            measure_once(mode),
            "{mode:?}: counts, bytes and simulated time must be identical"
        );
        assert!(first.bytes_sent > 0, "{mode:?}: something was measured");
        assert_eq!(first.client.calls, 1, "{mode:?}");
        assert_eq!(first.server.dispatches, 1, "{mode:?}");
    }
}

#[test]
fn workloads_and_mutations_are_identical_across_heaps() {
    // Two independent builds of the same seeded workload, mutated by two
    // independent server runs, end isomorphic — the property the linear
    // map's position matching relies on.
    let classes = bench_classes();
    let build_and_mutate = || {
        let mut heap = nrmi::heap::Heap::new(classes.registry.clone());
        let w = build_workload(&mut heap, &classes, Scenario::III, 96, 5).unwrap();
        nrmi_bench::workload::mutate_tree(&mut heap, w.root, Scenario::III, 5).unwrap();
        (heap, w)
    };
    let (h1, w1) = build_and_mutate();
    let (h2, w2) = build_and_mutate();
    let mut roots1 = vec![w1.root];
    roots1.extend(&w1.aliases);
    let mut roots2 = vec![w2.root];
    roots2.extend(&w2.aliases);
    assert!(nrmi::heap::graph::isomorphic_multi(&h1, &roots1, &h2, &roots2).unwrap());
}
