//! A reusable encoding scratch: the [`Codec`].
//!
//! Every encoder in this crate needs the same working state — a
//! position map from objects to traversal indices, a second map for
//! delta-shipped new objects, and a growable payload buffer. Building
//! those fresh per call is exactly the allocation churn the hot path
//! does not want: the position maps are sized by the arena and the
//! buffer by the payload, both of which are stable across the calls of
//! a session.
//!
//! A [`Codec`] owns that state and lends it to the encoders. Position
//! maps are generation-stamped ([`DensePositionMap`]), so "clearing"
//! them between calls is a counter bump; payload buffers come from a
//! small recycle pool fed by [`Codec::recycle`]. In steady state an
//! encode touches no allocator at all for its bookkeeping — the only
//! allocation left is the payload `Vec` itself when the pool is empty.
//! The delta applier's staging of decoded overwrites is pooled here too.
//!
//! The codec is *transparent*: [`Codec::encode_graph`] runs the same code
//! path as [`serialize_graph_with`](crate::ser::serialize_graph_with),
//! and the free delta functions are [`Codec::encode_delta`] and
//! [`Codec::apply_delta`] on a fresh codec, so pooled and fresh output
//! are byte-identical (the differential tests below pin this down).
//!
//! The pooled buffers double as **wire segments** for the transport's
//! scatter-gather path: the payload `Vec` inside an [`EncodedGraph`] or
//! [`EncodedDelta`](crate::delta::EncodedDelta) is handed to `Frame`
//! construction whole, and the vectored write path
//! (`Frame::encode_prefix_into` plus `writev`) references it *in place*
//! as its own iovec entry instead of memmoving it into a contiguous
//! frame body. [`Codec::loan_segment`] is the explicit loan side of that
//! cycle; [`Codec::recycle`] is the return side.

use nrmi_heap::{DensePositionMap, Heap, Value};

use crate::delta::DeltaScratch;
use crate::ser::{EncodedGraph, RemoteHooks, Serializer};
use crate::Result;

/// Payload buffers kept in the recycle pool beyond which [`Codec::recycle`]
/// drops its argument instead of retaining it.
const MAX_POOLED_BUFFERS: usize = 8;

/// Reusable encoder scratch: dense position maps plus a payload-buffer
/// pool. See the [module docs](self) for the design.
#[derive(Debug, Default)]
pub struct Codec {
    /// Traversal-position map for full graph encodes.
    graph_positions: DensePositionMap,
    /// The delta encoder's and applier's scratch.
    pub(crate) delta: DeltaScratch,
    /// Recycled payload buffers (cleared, capacity retained).
    buffers: Vec<Vec<u8>>,
}

impl Codec {
    /// Creates a codec with empty scratch; storage grows on first use
    /// and is retained afterwards.
    pub fn new() -> Self {
        Codec::default()
    }

    /// Returns a finished payload buffer to the pool so a later encode
    /// can reuse its allocation. Callers that keep payloads alive (e.g.
    /// cached seed requests) simply skip this.
    pub fn recycle(&mut self, mut buf: Vec<u8>) {
        if self.buffers.len() < MAX_POOLED_BUFFERS && buf.capacity() > 0 {
            buf.clear();
            self.buffers.push(buf);
        }
    }

    /// Loans a pooled segment (cleared, capacity retained) for a caller
    /// to fill — the buffer every encode writes its payload into, and
    /// the allocation the vectored wire path later references in place
    /// as one iovec entry. Return it with [`Codec::recycle`] once the
    /// bytes have left the process (or keep it alive for caches). Empty
    /// when the pool is dry — the caller's writes grow it, and recycling
    /// teaches the pool the session's payload sizes.
    pub fn loan_segment(&mut self) -> Vec<u8> {
        self.buffers.pop().unwrap_or_default()
    }

    /// As [`serialize_graph_with`](crate::ser::serialize_graph_with),
    /// reusing this codec's scratch. Byte-identical to the free
    /// function.
    ///
    /// # Errors
    /// See [`Serializer::encode_roots`].
    pub fn encode_graph<'a>(
        &mut self,
        heap: &'a Heap,
        roots: &'a [Value],
        old_index: Option<&DensePositionMap>,
        hooks: Option<&mut dyn RemoteHooks>,
    ) -> Result<EncodedGraph> {
        let ser = Serializer::with_scratch(
            heap,
            old_index,
            hooks,
            std::mem::take(&mut self.graph_positions),
            self.loan_segment(),
        );
        let (enc, positions) = ser.encode_roots_reclaim(roots)?;
        self.graph_positions = positions;
        Ok(enc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::{dirty_since, encode_delta, DeltaKind};
    use crate::ser::{serialize_graph, serialize_graph_with};
    use nrmi_heap::tree::{self, TreeClasses};
    use nrmi_heap::{ClassRegistry, HeapAccess, LinearMap};

    fn setup() -> (Heap, TreeClasses) {
        let mut reg = ClassRegistry::new();
        let classes = tree::register_tree_classes(&mut reg);
        (Heap::new(reg.snapshot()), classes)
    }

    #[test]
    fn pooled_graph_encode_is_byte_identical_across_reuse() {
        let (mut heap, classes) = setup();
        let mut codec = Codec::new();
        // Several different graphs through ONE codec: stale scratch from
        // one encode must never leak into the next.
        for seed in 0..4 {
            let root = tree::build_random_tree(&mut heap, &classes, 32, seed).unwrap();
            let fresh = serialize_graph(&heap, &[Value::Ref(root)]).unwrap();
            let pooled = codec
                .encode_graph(&heap, &[Value::Ref(root)], None, None)
                .unwrap();
            assert_eq!(pooled.bytes, fresh.bytes, "seed {seed}");
            assert_eq!(pooled.linear, fresh.linear, "seed {seed}");
            codec.recycle(pooled.bytes);
        }
    }

    #[test]
    fn pooled_graph_encode_with_old_index_matches_fresh() {
        let (mut heap, classes) = setup();
        let root = tree::build_random_tree(&mut heap, &classes, 16, 9).unwrap();
        let map = LinearMap::build(&heap, &[root]).unwrap();
        let fresh =
            serialize_graph_with(&heap, &[Value::Ref(root)], Some(map.position_map()), None)
                .unwrap();
        let mut codec = Codec::new();
        // Warm the scratch on an unrelated encode first.
        let other = tree::build_random_tree(&mut heap, &classes, 8, 10).unwrap();
        let warmup = codec
            .encode_graph(&heap, &[Value::Ref(other)], None, None)
            .unwrap();
        codec.recycle(warmup.bytes);
        let pooled = codec
            .encode_graph(&heap, &[Value::Ref(root)], Some(map.position_map()), None)
            .unwrap();
        assert_eq!(pooled.bytes, fresh.bytes);
    }

    /// One codec encodes every kind, round after round and interleaved
    /// with the others, byte-identically to a fresh one: scratch left by
    /// one delta (position maps, sorted positions, recycled buffers)
    /// never leaks into the next.
    #[test]
    fn pooled_delta_is_byte_identical_for_every_kind() {
        let (mut heap, classes) = setup();
        let root = tree::build_random_tree(&mut heap, &classes, 32, 12).unwrap();
        let sync = LinearMap::build(&heap, &[root]).unwrap().order().to_vec();
        let mark = heap.epoch();
        heap.set_field(sync[3], "data", Value::Int(99)).unwrap();
        let leaf = heap
            .alloc(classes.tree, vec![Value::Int(1), Value::Null, Value::Null])
            .unwrap();
        heap.set_field(sync[0], "left", Value::Ref(leaf)).unwrap();
        let dirty = dirty_since(&heap, &sync, mark).unwrap();
        let roots = [Value::Ref(sync[0])];
        let cases = [
            (DeltaKind::Reply, &[][..], &dirty[..], &roots[..]),
            (DeltaKind::Request, &[30, 31][..], &[3, 0][..], &roots[..]),
            (DeltaKind::Patch, &[][..], &[3, 0, 3][..], &[][..]),
        ];
        let mut codec = Codec::new();
        for round in 0..3 {
            for &(kind, freed, dirty, roots) in &cases {
                let fresh = encode_delta(kind, &heap, &sync, freed, dirty, roots).unwrap();
                let pooled = codec
                    .encode_delta(kind, &heap, &sync, freed, dirty, roots)
                    .unwrap();
                assert_eq!(pooled.bytes, fresh.bytes, "{kind:?} round {round}");
                assert_eq!(pooled.stats, fresh.stats, "{kind:?} round {round}");
                assert_eq!(
                    pooled.new_objects, fresh.new_objects,
                    "{kind:?} round {round}"
                );
                assert_eq!(pooled.bytes[..4], kind.magic());
                codec.recycle(pooled.bytes);
            }
        }
    }

    #[test]
    fn recycled_buffers_are_actually_reused() {
        let (mut heap, classes) = setup();
        let root = tree::build_random_tree(&mut heap, &classes, 8, 13).unwrap();
        let mut codec = Codec::new();
        let enc = codec
            .encode_graph(&heap, &[Value::Ref(root)], None, None)
            .unwrap();
        let cap = enc.bytes.capacity();
        let ptr = enc.bytes.as_ptr();
        codec.recycle(enc.bytes);
        let enc2 = codec
            .encode_graph(&heap, &[Value::Ref(root)], None, None)
            .unwrap();
        assert_eq!(enc2.bytes.as_ptr(), ptr, "same backing allocation");
        assert!(enc2.bytes.capacity() >= cap);
    }
}
