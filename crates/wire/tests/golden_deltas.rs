//! Golden delta payloads: the one encoder reproduces, byte for byte, the
//! payloads the three per-kind encoders it replaced produced for the same
//! heaps. Every kind × {clean, sparse dirty, splice with a shared new
//! object, freed positions, roots aliasing old and new objects}; freed
//! positions exist only in requests, and roots only in replies and
//! requests, so the other kinds encode those scenarios without them.

use nrmi_heap::traverse::reachable_set;
use nrmi_heap::tree;
use nrmi_heap::{ClassRegistry, Heap, HeapAccess, LinearMap, ObjId, Value};
use nrmi_wire::{apply_delta, encode_delta, next_sync, DeltaKind};

/// (kind, scenario, payload hex).
const GOLDEN: [(DeltaKind, &str, &str); 15] = [
    (DeltaKind::Reply, "clean", "4e524d44010c00010a00"),
    (DeltaKind::Request, "clean", "4e524d51010c0000010a00"),
    (DeltaKind::Patch, "clean", "4e524d56010c00"),
    (
        DeltaKind::Reply,
        "sparse",
        "4e524d44010c02030303410a040a060703039a010a080a09010a00",
    ),
    (
        DeltaKind::Request,
        "sparse",
        "4e524d51010c0002030303410a040a060703039a010a080a09010a00",
    ),
    (
        DeltaKind::Patch,
        "sparse",
        "4e524d56010c02030303410a040a060703039a010a080a09",
    ),
    (
        DeltaKind::Reply,
        "splice",
        "4e524d44010c03010303b20b0b010303ea070b010303e8070000000a07040303bb02000c00090303120000010a00",
    ),
    (
        DeltaKind::Request,
        "splice",
        "4e524d51010c0003010303b20b0b010303ea070b010303e8070000000a07040303bb02000c00090303120000010a00",
    ),
    (
        DeltaKind::Patch,
        "splice",
        "4e524d56010c03010303b20b0b010303ea070b010303e8070000000a07040303bb02000c00090303120000",
    ),
    (
        DeltaKind::Reply,
        "freed",
        "4e524d44010c020003036a0a010002030304000a03010a00",
    ),
    (
        DeltaKind::Request,
        "freed",
        "4e524d51010c020a0b020003036a0a010002030304000a03010a00",
    ),
    (
        DeltaKind::Patch,
        "freed",
        "4e524d56010c020003036a0a010002030304000a03",
    ),
    (
        DeltaKind::Reply,
        "roots",
        "4e524d44010c01050303e8070b010303b009000000060a020c00030e0b010303b2090c00000a0200",
    ),
    (
        DeltaKind::Request,
        "roots",
        "4e524d51010c0001050303e8070b010303b009000000060a020c00030e0b010303b2090c00000a0200",
    ),
    (
        DeltaKind::Patch,
        "roots",
        "4e524d56010c01050303e8070b010303b009000000",
    ),
];

/// One scenario's sender state: a 12-node tree's order, written after
/// `mark` as the scenario says.
struct Built {
    heap: Heap,
    order: Vec<ObjId>,
    mark: u64,
    freed: Vec<u32>,
    roots: Vec<Value>,
}

/// Builds `scenario` on a fresh heap. Only a request frees: the other
/// kinds' orders must stay live, so there the freed subtree is only
/// unlinked.
fn build(scenario: &str, kind: DeltaKind) -> Built {
    let mut reg = ClassRegistry::new();
    let classes = tree::register_tree_classes(&mut reg);
    let mut heap = Heap::new(reg.snapshot());
    let root = tree::build_random_tree(&mut heap, &classes, 12, 3).unwrap();
    let order = LinearMap::build(&heap, &[root]).unwrap().order().to_vec();
    let mark = heap.epoch();
    let node = |heap: &mut Heap, data: i32, left: Value| {
        heap.alloc(classes.tree, vec![Value::Int(data), left, Value::Null])
            .unwrap()
    };
    let mut freed = Vec::new();
    let mut roots = vec![Value::Ref(order[0])];
    match scenario {
        "clean" => {}
        "sparse" => {
            heap.set_field(order[3], "data", Value::Int(-33)).unwrap();
            heap.set_field(order[7], "data", Value::Int(77)).unwrap();
        }
        "splice" => {
            let leaf = node(&mut heap, 500, Value::Null);
            let shared = node(&mut heap, 501, Value::Ref(leaf));
            heap.set_field(order[1], "left", Value::Ref(shared))
                .unwrap();
            heap.set_field(order[4], "right", Value::Ref(shared))
                .unwrap();
            heap.set_field(order[9], "data", Value::Int(9)).unwrap();
        }
        "freed" => {
            let field = if heap.get_ref(order[0], "right").unwrap().is_some() {
                "right"
            } else {
                "left"
            };
            let victim = heap.get_ref(order[0], field).unwrap().unwrap();
            let gone = reachable_set(&heap, &[victim]).unwrap();
            heap.set_field(order[0], field, Value::Null).unwrap();
            heap.set_field(order[2], "data", Value::Int(2)).unwrap();
            if kind == DeltaKind::Request {
                for (i, &id) in order.iter().enumerate() {
                    if gone.contains(id) {
                        heap.free(id).unwrap();
                        freed.push(i as u32);
                    }
                }
            }
        }
        "roots" => {
            let spliced = node(&mut heap, 600, Value::Null);
            heap.set_field(order[5], "left", Value::Ref(spliced))
                .unwrap();
            let loose = node(&mut heap, 601, Value::Ref(spliced));
            roots = vec![
                Value::Ref(order[2]),
                Value::Ref(spliced),
                Value::Int(7),
                Value::Ref(loose),
                Value::Ref(order[2]),
                Value::Null,
            ];
        }
        other => panic!("unknown scenario {other}"),
    }
    if kind == DeltaKind::Patch {
        roots.clear();
    }
    Built {
        heap,
        order,
        mark,
        freed,
        roots,
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The dirty positions a sender would name: live objects written since
/// the mark.
fn dirty(b: &Built) -> Vec<u32> {
    (0..b.order.len() as u32)
        .filter(|&i| {
            let version = b.heap.version_if_live(b.order[i as usize]);
            version.is_some_and(|v| v > b.mark)
        })
        .collect()
}

#[test]
fn one_encoder_reproduces_every_golden_payload() {
    for (kind, scenario, golden) in GOLDEN {
        let b = build(scenario, kind);
        let enc = encode_delta(kind, &b.heap, &b.order, &b.freed, &dirty(&b), &b.roots).unwrap();
        assert_eq!(hex(&enc.bytes), golden, "{kind:?} {scenario}");
    }
}

/// Every golden payload applies onto a fresh copy of the unwritten
/// order and leaves both ends' next sync lists aligned, position for
/// position, with equal data.
#[test]
fn every_golden_payload_applies_and_keeps_sync_lists_aligned() {
    for (kind, scenario, _) in GOLDEN {
        let mut b = build(scenario, kind);
        let enc = encode_delta(kind, &b.heap, &b.order, &b.freed, &dirty(&b), &b.roots).unwrap();
        let mut to = build("clean", kind);
        let applied = apply_delta(kind, &enc.bytes, &mut to.heap, &to.order, &mut |_| true)
            .unwrap_or_else(|e| panic!("{kind:?} {scenario}: {e}"));
        assert_eq!(applied.freed_positions, b.freed, "{kind:?} {scenario}");
        assert_eq!(applied.roots.len(), b.roots.len(), "{kind:?} {scenario}");
        let from_next = next_sync(&b.order, &b.freed, &enc.new_objects);
        let to_next = next_sync(&to.order, &applied.freed_positions, &applied.new_objects);
        assert_eq!(from_next.len(), to_next.len(), "{kind:?} {scenario}");
        for (&f, &t) in from_next.iter().zip(&to_next) {
            assert_eq!(
                b.heap.slots_of(f).unwrap().len(),
                to.heap.slots_of(t).unwrap().len()
            );
            assert_eq!(
                b.heap.get_field(f, "data").unwrap(),
                to.heap.get_field(t, "data").unwrap(),
                "{kind:?} {scenario}"
            );
        }
    }
}
