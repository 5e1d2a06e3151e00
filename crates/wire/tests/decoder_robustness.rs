//! Decoder robustness: hostile or corrupt payloads must produce errors,
//! never panics, unbounded allocation, or heap corruption.

use proptest::prelude::*;

use nrmi_heap::{ClassRegistry, Heap, HeapSnapshot, Value};
use nrmi_wire::{apply_delta, deserialize_graph, peek_delta, serialize_graph, DeltaKind};

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
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes: decode returns an error or a valid graph —
    /// never a panic — and only live objects remain in the heap.
    #[test]
    fn decoder_never_panics_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut heap = fresh_heap();
        let _ = deserialize_graph(&bytes, &mut heap);
        // Whatever happened, the heap's accounting is intact.
        prop_assert_eq!(heap.live_count() as u64, heap.stats().live());
    }

    /// Arbitrary bytes with a valid magic prefix (deeper penetration
    /// into the decoder) still never panic.
    #[test]
    fn decoder_never_panics_past_the_magic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut payload = b"NRMI\x01".to_vec();
        payload.extend(&bytes);
        let mut heap = fresh_heap();
        let _ = deserialize_graph(&payload, &mut heap);
        prop_assert_eq!(heap.live_count() as u64, heap.stats().live());
    }

    /// Truncating a VALID payload at every prefix length yields clean
    /// errors, never panics or accepted-but-wrong graphs.
    #[test]
    fn truncated_valid_payloads_fail_cleanly(
        n in 1usize..12,
        edges in proptest::collection::vec((0usize..12, any::<bool>(), 0usize..12), 0..16)
    ) {
        use nrmi_heap::HeapAccess;
        let mut src = fresh_heap();
        let class = src.registry_handle().by_name("Node").unwrap();
        let nodes: Vec<_> = (0..n)
            .map(|i| src.alloc(class, vec![Value::Int(i as i32), Value::Null, Value::Null]).unwrap())
            .collect();
        for (a, left, b) in edges {
            let side = if left { "left" } else { "right" };
            src.set_field(nodes[a % n], side, Value::Ref(nodes[b % n])).unwrap();
        }
        let enc = serialize_graph(&src, &[Value::Ref(nodes[0])]).unwrap();
        for cut in 0..enc.bytes.len() {
            let mut heap = fresh_heap();
            prop_assert!(
                deserialize_graph(&enc.bytes[..cut], &mut heap).is_err(),
                "truncation at {cut} of {} accepted", enc.bytes.len()
            );
        }
        // The untruncated payload still decodes.
        let mut heap = fresh_heap();
        prop_assert!(deserialize_graph(&enc.bytes, &mut heap).is_ok());
    }

    /// Arbitrary delta payloads of every kind, against a real order,
    /// through the one applier (with and without a merge veto) and
    /// through `peek_delta`: never a panic; a rejected payload leaves the
    /// heap exactly as it was; and whatever peek rejects, apply rejects.
    #[test]
    fn delta_decoder_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..128),
        kind in prop_oneof![Just(DeltaKind::Reply), Just(DeltaKind::Request), Just(DeltaKind::Patch)],
        with_magic in any::<bool>(),
        veto in any::<bool>()
    ) {
        let mut heap = fresh_heap();
        let class = heap.registry_handle().by_name("Node").unwrap();
        let order: Vec<_> = (0..3)
            .map(|i| heap.alloc(class, vec![Value::Int(i), Value::Null, Value::Null]).unwrap())
            .collect();
        let payload = if with_magic {
            // Magic, version and the right order count: deeper penetration.
            let mut p = kind.magic().to_vec();
            p.extend([1, 3]);
            p.extend(&bytes);
            p
        } else {
            bytes
        };
        let peeked = peek_delta(kind, &payload, &order);
        let before = HeapSnapshot::capture(&heap);
        let applied = apply_delta(kind, &payload, &mut heap, &order, &mut |pos| !veto || pos != 1);
        prop_assert_eq!(heap.live_count() as u64, heap.stats().live());
        if applied.is_err() {
            prop_assert!(before.diff(&HeapSnapshot::capture(&heap)).is_empty());
        }
        prop_assert!(peeked.is_ok() || applied.is_err(), "peek rejected what apply took");
    }
}
