//! Property-based tests on the wire layer and heap invariants, driven
//! through the public facade: serialization round trips, linear-map
//! laws, and delta-encoding correctness on arbitrary graphs.

use std::collections::HashMap;

use proptest::prelude::*;

use nrmi::heap::copy::deep_copy_between;
use nrmi::heap::graph::isomorphic_multi;
use nrmi::heap::traverse::reachable_set;
use nrmi::heap::tree;
use nrmi::heap::{ClassRegistry, Heap, HeapAccess, LinearMap, ObjId, Value};
use nrmi::wire::{
    apply_delta, deserialize_graph, dirty_since, encode_delta, next_sync, serialize_graph,
    DeltaKind,
};

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

/// A client and a server seeded over one random tree, as a warm
/// session's seed call leaves them: one order, in each end's own ids.
fn seeded_tree(size: usize, seed: u64) -> (Heap, Heap, Vec<ObjId>, Vec<ObjId>) {
    let mut reg = ClassRegistry::new();
    let classes = tree::register_tree_classes(&mut reg);
    let mut client = Heap::new(reg.snapshot());
    let root = tree::build_random_tree(&mut client, &classes, size, seed).unwrap();
    let enc = serialize_graph(&client, &[Value::Ref(root)]).unwrap();
    let mut server = Heap::new(client.registry_handle().clone());
    let dec = deserialize_graph(&enc.bytes, &mut server).unwrap();
    (client, server, enc.linear, dec.linear)
}

/// Random edits to a synchronized tree, positions taken modulo its
/// length: subtree frees, `data` writes, and fresh nodes spliced under a
/// position.
#[derive(Clone, Debug)]
struct Edits {
    frees: Vec<usize>,
    writes: Vec<(usize, i32)>,
    splices: Vec<(usize, bool, i32)>,
}

fn edits() -> impl Strategy<Value = Edits> {
    (
        proptest::collection::vec(0usize..64, 0..3),
        proptest::collection::vec((0usize..64, any::<i32>()), 0..6),
        proptest::collection::vec((0usize..64, any::<bool>(), any::<i32>()), 0..3),
    )
        .prop_map(|(frees, writes, splices)| Edits {
            frees,
            writes,
            splices,
        })
}

/// Applies `edits` to `sync`'s objects and returns the freed positions,
/// ascending. A free (only `with_frees`) detaches a non-root subtree and
/// frees all of it; writes and splices then land on live positions.
fn edit(heap: &mut Heap, sync: &[ObjId], edits: &Edits, with_frees: bool) -> Vec<u32> {
    let class = heap.registry_handle().by_name("Tree").unwrap();
    let mut dead = vec![false; sync.len()];
    for &f in edits.frees.iter().filter(|_| with_frees && sync.len() > 1) {
        let victim = sync[1 + f % (sync.len() - 1)];
        if !heap.contains(victim) {
            continue;
        }
        for (i, &parent) in sync.iter().enumerate() {
            for side in ["left", "right"] {
                if !dead[i] && heap.get_ref(parent, side).unwrap() == Some(victim) {
                    heap.set_field(parent, side, Value::Null).unwrap();
                }
            }
        }
        let gone = reachable_set(heap, &[victim]).unwrap();
        for (i, &id) in sync.iter().enumerate() {
            if !dead[i] && gone.contains(id) {
                heap.free(id).unwrap();
                dead[i] = true;
            }
        }
    }
    let live: Vec<ObjId> = (0..sync.len())
        .filter(|&i| !dead[i])
        .map(|i| sync[i])
        .collect();
    for &(p, v) in &edits.writes {
        let target = live[p % live.len()];
        heap.set_field(target, "data", Value::Int(v)).unwrap();
    }
    for &(p, left, v) in &edits.splices {
        let fresh = heap
            .alloc(class, vec![Value::Int(v), Value::Null, Value::Null])
            .unwrap();
        let side = if left { "left" } else { "right" };
        heap.set_field(live[p % live.len()], side, Value::Ref(fresh))
            .unwrap();
    }
    (0..sync.len() as u32)
        .filter(|&i| dead[i as usize])
        .collect()
}

/// The positions of `sync` written after `mark`, the freed ones aside.
fn written(heap: &Heap, sync: &[ObjId], freed: &[u32], mark: u64) -> Vec<u32> {
    (0..sync.len() as u32)
        .filter(|i| freed.binary_search(i).is_err())
        .filter(|&i| {
            heap.version_if_live(sync[i as usize])
                .is_some_and(|v| v > mark)
        })
        .collect()
}

/// Each position's data and the positions its children hold in the same
/// list: two ends with equal views are position-aligned.
fn view(heap: &mut Heap, sync: &[ObjId]) -> Vec<(Value, Option<usize>, Option<usize>)> {
    let at: HashMap<ObjId, usize> = sync.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    let mut out = Vec::with_capacity(sync.len());
    for &id in sync {
        let left = heap.get_ref(id, "left").unwrap().map(|c| at[&c]);
        let right = heap.get_ref(id, "right").unwrap().map(|c| at[&c]);
        out.push((heap.get_field(id, "data").unwrap(), left, right));
    }
    out
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
        let dirty = dirty_since(&server, &dec.linear, mark).unwrap();
        let roots = [Value::Ref(server_root)];
        let delta = encode_delta(DeltaKind::Reply, &server, &dec.linear, &[], &dirty, &roots).unwrap();

        // Client: apply; the graphs (over the FULL old set, not just the
        // root) must now be isomorphic to the server's.
        let applied = apply_delta(DeltaKind::Reply, &delta.bytes, &mut client, &enc.linear, &mut |_| true)
            .unwrap();
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
        let dirty = dirty_since(&server, &dec.linear, server.epoch()).unwrap();
        let delta = encode_delta(DeltaKind::Reply, &server, &dec.linear, &[], &dirty, &[]).unwrap();
        prop_assert!(delta.bytes.len() < 24, "no-change delta was {} bytes", delta.bytes.len());
    }

    /// A warm session's two other deltas on a random tree: the client's
    /// request (subtree frees, writes, splices), then the server's
    /// coherence patch (writes, splices). After each, both ends' next
    /// sync lists are position-aligned with equal data.
    #[test]
    fn request_then_patch_keep_sync_lists_aligned(
        size in 1usize..40,
        seed in any::<u64>(),
        request in edits(),
        patch in edits()
    ) {
        let (mut client, mut server, c_sync, s_sync) = seeded_tree(size, seed);
        let all = &mut |_: u32| true;

        let mark = client.epoch();
        let freed = edit(&mut client, &c_sync, &request, true);
        let dirty = written(&client, &c_sync, &freed, mark);
        let roots = [Value::Ref(c_sync[0])];
        let req = encode_delta(DeltaKind::Request, &client, &c_sync, &freed, &dirty, &roots).unwrap();
        let applied = apply_delta(DeltaKind::Request, &req.bytes, &mut server, &s_sync, all).unwrap();
        prop_assert_eq!(applied.roots, vec![Value::Ref(s_sync[0])]);
        let c_sync = next_sync(&c_sync, &freed, &req.new_objects);
        let s_sync = next_sync(&s_sync, &applied.freed_positions, &applied.new_objects);
        prop_assert_eq!(view(&mut client, &c_sync), view(&mut server, &s_sync));

        let mark = server.epoch();
        edit(&mut server, &s_sync, &patch, false);
        let dirty = written(&server, &s_sync, &[], mark);
        let enc = encode_delta(DeltaKind::Patch, &server, &s_sync, &[], &dirty, &[]).unwrap();
        let applied = apply_delta(DeltaKind::Patch, &enc.bytes, &mut client, &c_sync, all).unwrap();
        let s_sync = next_sync(&s_sync, &[], &enc.new_objects);
        let c_sync = next_sync(&c_sync, &[], &applied.new_objects);
        prop_assert_eq!(view(&mut client, &c_sync), view(&mut server, &s_sync));
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
