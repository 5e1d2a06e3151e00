//! Property-based tests on the wire layer and heap invariants, driven
//! through the public facade: serialization round trips, linear-map
//! laws, and delta-encoding correctness on arbitrary graphs.

use proptest::prelude::*;

use nrmi::heap::copy::deep_copy_between;
use nrmi::heap::graph::isomorphic_multi;
use nrmi::heap::{ClassRegistry, Heap, HeapAccess, LinearMap, ObjId, Value};
use nrmi::wire::{apply_delta, deserialize_graph, encode_delta, serialize_graph};

/// Specification of a random graph: node payloads and an edge list.
#[derive(Clone, Debug)]
struct GraphSpec {
    data: Vec<i32>,
    edges: Vec<(usize, bool, usize)>,
}

fn graph_spec() -> impl Strategy<Value = GraphSpec> {
    (1usize..32).prop_flat_map(|n| {
        (
            proptest::collection::vec(any::<i32>(), n..=n),
            proptest::collection::vec((0usize..n, any::<bool>(), 0usize..n), 0..48),
        )
            .prop_map(|(data, edges)| GraphSpec { data, edges })
    })
}

fn build(heap: &mut Heap, spec: &GraphSpec) -> Vec<ObjId> {
    let class = heap.registry_handle().by_name("Node").expect("Node");
    let nodes: Vec<ObjId> = spec
        .data
        .iter()
        .map(|&d| {
            heap.alloc(class, vec![Value::Int(d), Value::Null, Value::Null])
                .unwrap()
        })
        .collect();
    for &(from, left, to) in &spec.edges {
        let side = if left { "left" } else { "right" };
        heap.set_field(nodes[from], side, Value::Ref(nodes[to]))
            .unwrap();
    }
    nodes
}

fn fresh_heap() -> Heap {
    let mut reg = ClassRegistry::new();
    reg.define("Node")
        .field_int("data")
        .field_ref("left")
        .field_ref("right")
        .restorable()
        .register();
    Heap::new(reg.snapshot())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// serialize ∘ deserialize preserves alias structure exactly.
    #[test]
    fn wire_roundtrip_is_isomorphic(spec in graph_spec()) {
        let mut heap = fresh_heap();
        let nodes = build(&mut heap, &spec);
        let root = nodes[0];
        let enc = serialize_graph(&heap, &[Value::Ref(root)]).unwrap();
        let mut dst = Heap::new(heap.registry_handle().clone());
        let dec = deserialize_graph(&enc.bytes, &mut dst).unwrap();
        let root2 = dec.roots[0].as_ref_id().unwrap();
        prop_assert!(isomorphic_multi(&heap, &[root], &dst, &[root2]).unwrap());
        // Object counts agree with the reachable set.
        let map = LinearMap::build(&heap, &[root]).unwrap();
        prop_assert_eq!(enc.object_count(), map.len());
        prop_assert_eq!(dec.object_count(), map.len());
    }

    /// The linear map is deterministic and position-stable across
    /// isomorphic heaps (the property the restore algorithm relies on).
    #[test]
    fn linear_maps_correspond_across_copies(spec in graph_spec()) {
        let mut heap = fresh_heap();
        let nodes = build(&mut heap, &spec);
        let root = nodes[0];
        let mut dst = Heap::new(heap.registry_handle().clone());
        let translation = deep_copy_between(&heap, &[root], &mut dst).unwrap();
        let src_map = LinearMap::build(&heap, &[root]).unwrap();
        let dst_map = LinearMap::build(&dst, &[translation[&root]]).unwrap();
        prop_assert_eq!(src_map.len(), dst_map.len());
        for (pos, id) in src_map.iter() {
            prop_assert_eq!(dst_map.at(pos), Some(translation[&id]),
                "position {} maps to the translated object", pos);
        }
    }

    /// Delta encode/apply reproduces arbitrary post-mutation states.
    #[test]
    fn delta_reproduces_mutations(
        spec in graph_spec(),
        tweaks in proptest::collection::vec((0usize..32, any::<i32>()), 0..8),
        unlink in proptest::collection::vec((0usize..32, any::<bool>()), 0..4)
    ) {
        // Client graph + serialized request.
        let mut client = fresh_heap();
        let nodes = build(&mut client, &spec);
        let root = nodes[0];
        let enc = serialize_graph(&client, &[Value::Ref(root)]).unwrap();

        // Server: decode, mark, mutate, delta of what was written since
        // the mark.
        let mut server = Heap::new(client.registry_handle().clone());
        let dec = deserialize_graph(&enc.bytes, &mut server).unwrap();
        let mark = server.epoch();
        for &(i, v) in &tweaks {
            let target = dec.linear[i % dec.linear.len()];
            server.set_field(target, "data", Value::Int(v)).unwrap();
        }
        for &(i, left) in &unlink {
            let target = dec.linear[i % dec.linear.len()];
            let side = if left { "left" } else { "right" };
            server.set_field(target, side, Value::Null).unwrap();
        }
        let server_root = dec.roots[0].as_ref_id().unwrap();
        let delta = encode_delta(&server, &dec.linear, mark, &[Value::Ref(server_root)]).unwrap();

        // Client: apply; the graphs (over the FULL old set, not just the
        // root) must now be isomorphic to the server's.
        let applied = apply_delta(&delta.bytes, &mut client, &enc.linear).unwrap();
        prop_assert_eq!(applied.roots[0].clone(), Value::Ref(root));
        prop_assert!(
            isomorphic_multi(&server, &dec.linear, &client, &enc.linear).unwrap(),
            "server and client disagree after delta application"
        );
    }

    /// A no-op call's delta is tiny regardless of graph size — the
    /// paper's claimed benefit of the (then future-work) optimization.
    #[test]
    fn noop_delta_is_constant_size(spec in graph_spec()) {
        let mut client = fresh_heap();
        let nodes = build(&mut client, &spec);
        let root = nodes[0];
        let enc = serialize_graph(&client, &[Value::Ref(root)]).unwrap();
        let mut server = Heap::new(client.registry_handle().clone());
        let dec = deserialize_graph(&enc.bytes, &mut server).unwrap();
        let delta = encode_delta(&server, &dec.linear, server.epoch(), &[]).unwrap();
        prop_assert!(delta.bytes.len() < 24, "no-change delta was {} bytes", delta.bytes.len());
    }

    /// Mark-sweep collects exactly the unreachable portion.
    #[test]
    fn mark_sweep_partition(spec in graph_spec(), keep_root in any::<bool>()) {
        let mut heap = fresh_heap();
        let nodes = build(&mut heap, &spec);
        let root = nodes[0];
        let reachable = LinearMap::build(&heap, &[root]).unwrap().len();
        let total = heap.live_count();
        let roots: Vec<ObjId> = if keep_root { vec![root] } else { vec![] };
        let freed = nrmi::heap::gc::mark_sweep(&mut heap, &roots).unwrap();
        if keep_root {
            prop_assert_eq!(freed, total - reachable);
            prop_assert_eq!(heap.live_count(), reachable);
        } else {
            prop_assert_eq!(freed, total);
            prop_assert_eq!(heap.live_count(), 0);
        }
    }
}
