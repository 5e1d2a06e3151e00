//! Delta encoding of post-call state (§5.2.4, optimization 2).
//!
//! Instead of shipping the full post-call object graph back to the
//! caller, the server can send "just a 'delta' structure, encoding the
//! difference between the original data and the data after the execution
//! of the remote routine. In this way, the cost of passing an object
//! by-copy-restore and not making any changes to it is almost identical
//! to the cost of passing it by-copy." The paper leaves this to future
//! work; this module implements it, and the benchmark suite ablates it
//! against the full-reply path.
//!
//! Protocol: when the server has unmarshalled the request it notes the
//! heap epoch, the *mark*. Every heap write stamps the written object
//! with a later version, so after the method runs the changed old
//! objects are exactly those of the request's order stamped above the
//! mark: [`encode_delta`] emits those, plus any new objects they (or the
//! reply roots) reference. Version stamps record writes, not
//! differences, so a write that stores an object's old value ships it.
//! The client applies the delta *in place* with [`apply_delta`]: old
//! objects are patched directly through its own linear map, so the
//! restore needs no temporary copies and no pointer-fixup pass at all —
//! delta application subsumes algorithm steps 4–6.

use nrmi_heap::{DensePositionMap, Heap, ObjId, Value};

use crate::io::{ByteReader, ByteWriter};
use crate::ser::{TAG_DOUBLE, TAG_FALSE, TAG_INT, TAG_LONG, TAG_NULL, TAG_STR, TAG_TRUE};
use crate::{Result, WireError};

/// Magic prefix for delta payloads.
pub const DELTA_MAGIC: [u8; 4] = *b"NRMD";

pub(crate) const DTAG_OLDREF: u8 = 10;
pub(crate) const DTAG_NEWOBJ: u8 = 11;
pub(crate) const DTAG_NEWBACK: u8 = 12;

/// Size accounting for a delta encoding.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Old objects the delta is relative to (the order's length).
    pub old_count: usize,
    /// Old objects written since the mark, re-sent.
    pub changed_count: usize,
    /// New objects shipped in full.
    pub new_count: usize,
    /// Total payload bytes.
    pub bytes: usize,
}

/// An encoded delta plus its statistics.
#[derive(Clone, Debug)]
pub struct EncodedDelta {
    /// The wire payload.
    pub bytes: Vec<u8>,
    /// Size accounting.
    pub stats: DeltaStats,
    /// Sender-side ids of the new objects shipped in full, in emission
    /// order — the order the receiver's [`AppliedDelta::new_objects`]
    /// materializes them in. Warm-call sessions append these to both
    /// sides' synchronized object lists so positions keep corresponding.
    pub new_objects: Vec<ObjId>,
}

pub(crate) struct DeltaEncoder<'h> {
    pub(crate) heap: &'h Heap,
    pub(crate) writer: ByteWriter,
    pub(crate) old_pos: DensePositionMap,
    pub(crate) new_pos: DensePositionMap,
    pub(crate) new_ids: Vec<ObjId>,
}

impl<'h> DeltaEncoder<'h> {
    /// Creates an encoder over recycled scratch. `old_pos` is used as
    /// populated by the caller; `new_pos` is cleared (O(1)) and the
    /// payload buffer's allocation is reused.
    pub(crate) fn with_scratch(
        heap: &'h Heap,
        old_pos: DensePositionMap,
        mut new_pos: DensePositionMap,
        buf: Vec<u8>,
    ) -> Self {
        new_pos.clear();
        DeltaEncoder {
            heap,
            writer: ByteWriter::with_buffer(buf),
            old_pos,
            new_pos,
            new_ids: Vec::new(),
        }
    }

    pub(crate) fn encode_value(&mut self, value: &Value) -> Result<()> {
        match value {
            Value::Null => self.writer.put_u8(TAG_NULL),
            Value::Bool(false) => self.writer.put_u8(TAG_FALSE),
            Value::Bool(true) => self.writer.put_u8(TAG_TRUE),
            Value::Int(i) => {
                self.writer.put_u8(TAG_INT);
                self.writer.put_zigzag(i64::from(*i));
            }
            Value::Long(i) => {
                self.writer.put_u8(TAG_LONG);
                self.writer.put_zigzag(*i);
            }
            Value::Double(d) => {
                self.writer.put_u8(TAG_DOUBLE);
                self.writer.put_f64(*d);
            }
            Value::Str(s) => {
                self.writer.put_u8(TAG_STR);
                self.writer.put_str(s);
            }
            Value::Ref(id) => self.encode_ref(*id)?,
        }
        Ok(())
    }

    fn encode_ref(&mut self, id: ObjId) -> Result<()> {
        if let Some(pos) = self.old_pos.get(id) {
            self.writer.put_u8(DTAG_OLDREF);
            self.writer.put_varint(u64::from(pos));
            return Ok(());
        }
        if let Some(pos) = self.new_pos.get(id) {
            self.writer.put_u8(DTAG_NEWBACK);
            self.writer.put_varint(u64::from(pos));
            return Ok(());
        }
        // A genuinely new object: ship it in full, depth-first. The heap
        // reference is copied out of `self` so the slot borrow stays
        // disjoint from the recursive `&mut self` calls (no clone).
        let heap = self.heap;
        let obj = heap.get(id)?;
        let desc = heap.registry_handle().get(obj.class())?;
        if !desc.flags().serializable {
            return Err(WireError::NotSerializable {
                class: desc.name().to_owned(),
            });
        }
        let pos = self.new_ids.len() as u32;
        self.new_pos.insert(id, pos);
        self.new_ids.push(id);
        self.writer.put_u8(DTAG_NEWOBJ);
        self.writer.put_varint(u64::from(obj.class().index()));
        let slots = obj.body().slots();
        self.writer.put_varint(slots.len() as u64);
        for slot in slots {
            self.encode_value(slot)?;
        }
        Ok(())
    }
}

/// Encodes what the call changed in `order` — the objects stamped above
/// the heap epoch `since` — along with the reply `roots` (e.g. the return
/// value).
///
/// # Errors
/// Fails on dangling references or non-serializable new objects.
pub fn encode_delta(
    heap: &Heap,
    order: &[ObjId],
    since: u64,
    roots: &[Value],
) -> Result<EncodedDelta> {
    let (delta, _, _) = encode_delta_pooled(
        heap,
        order,
        since,
        roots,
        DensePositionMap::new(),
        DensePositionMap::new(),
        Vec::new(),
    )?;
    Ok(delta)
}

/// The pooled workhorse behind [`encode_delta`]: identical output, but
/// the position-map scratch and payload buffer are supplied by the
/// caller and the maps are handed back for reuse.
pub(crate) fn encode_delta_pooled(
    heap: &Heap,
    order: &[ObjId],
    since: u64,
    roots: &[Value],
    mut old_pos: DensePositionMap,
    new_pos: DensePositionMap,
    buf: Vec<u8>,
) -> Result<(EncodedDelta, DensePositionMap, DensePositionMap)> {
    // One pass fills the position map and counts the changed objects
    // (the count precedes them on the wire).
    old_pos.clear();
    let mut changed_count: usize = 0;
    for (i, &id) in order.iter().enumerate() {
        old_pos.insert(id, i as u32);
        if heap.get(id)?.version() > since {
            changed_count += 1;
        }
    }

    let mut enc = DeltaEncoder::with_scratch(heap, old_pos, new_pos, buf);
    enc.writer.put_slice(&DELTA_MAGIC);
    enc.writer.put_u8(crate::FORMAT_VERSION);
    enc.writer.put_varint(order.len() as u64);
    enc.writer.put_varint(changed_count as u64);
    for (i, &id) in order.iter().enumerate() {
        let obj = heap.get(id)?;
        if obj.version() <= since {
            continue;
        }
        let now = obj.body().slots();
        enc.writer.put_varint(i as u64);
        enc.writer.put_varint(now.len() as u64);
        for v in now {
            enc.encode_value(v)?;
        }
    }
    enc.writer.put_varint(roots.len() as u64);
    for root in roots {
        enc.encode_value(root)?;
    }

    let DeltaEncoder {
        writer,
        old_pos,
        new_pos,
        new_ids: new_objects,
        ..
    } = enc;
    let bytes = writer.into_bytes();
    let stats = DeltaStats {
        old_count: order.len(),
        changed_count,
        new_count: new_objects.len(),
        bytes: bytes.len(),
    };
    Ok((
        EncodedDelta {
            bytes,
            stats,
            new_objects,
        },
        old_pos,
        new_pos,
    ))
}

/// The result of applying a delta on the caller side.
#[derive(Clone, Debug, Default)]
pub struct AppliedDelta {
    /// Decoded reply roots (e.g. the return value).
    pub roots: Vec<Value>,
    /// Objects newly materialized in the caller's heap.
    pub new_objects: Vec<ObjId>,
    /// Number of old objects that were patched in place.
    pub changed_count: usize,
}

pub(crate) struct DeltaDecoder<'h, 'b> {
    pub(crate) heap: &'h mut Heap,
    pub(crate) reader: ByteReader<'b>,
    pub(crate) client_linear: &'b [ObjId],
    pub(crate) new_objects: Vec<ObjId>,
}

impl<'h, 'b> DeltaDecoder<'h, 'b> {
    pub(crate) fn decode_value(&mut self) -> Result<Value> {
        let offset = self.reader.position();
        let tag = self.reader.get_u8()?;
        match tag {
            TAG_NULL => Ok(Value::Null),
            TAG_FALSE => Ok(Value::Bool(false)),
            TAG_TRUE => Ok(Value::Bool(true)),
            TAG_INT => Ok(Value::Int(self.reader.get_zigzag()? as i32)),
            TAG_LONG => Ok(Value::Long(self.reader.get_zigzag()?)),
            TAG_DOUBLE => Ok(Value::Double(self.reader.get_f64()?)),
            TAG_STR => Ok(Value::Str(self.reader.get_str()?)),
            DTAG_OLDREF => {
                let idx = self.reader.get_varint_u32()?;
                self.client_linear
                    .get(idx as usize)
                    .map(|&id| Value::Ref(id))
                    .ok_or(WireError::BadOldIndex {
                        index: idx,
                        len: self.client_linear.len() as u32,
                    })
            }
            DTAG_NEWBACK => {
                let pos = self.reader.get_varint_u32()?;
                self.new_objects
                    .get(pos as usize)
                    .map(|&id| Value::Ref(id))
                    .ok_or(WireError::BadBackRef {
                        position: pos,
                        decoded: self.new_objects.len() as u32,
                    })
            }
            DTAG_NEWOBJ => {
                let class = nrmi_heap::ClassId::from_index(self.reader.get_varint_u32()?);
                let slot_count = self.reader.get_count()?;
                let desc = self.heap.registry_handle().get(class)?;
                let id = if desc.flags().array {
                    self.heap.alloc_array(class, Vec::new())?
                } else {
                    self.heap.alloc_default(class)?
                };
                self.new_objects.push(id);
                let mut slots = Vec::with_capacity(slot_count);
                for _ in 0..slot_count {
                    slots.push(self.decode_value()?);
                }
                self.heap.overwrite_slots(id, slots)?;
                Ok(Value::Ref(id))
            }
            other => Err(WireError::UnknownTag { tag: other, offset }),
        }
    }
}

/// Applies a delta payload to the caller's heap: patches changed old
/// objects in place (through `client_linear`, the caller's linear map of
/// the original request) and materializes new objects.
///
/// This *is* the restore: after `apply_delta` returns, every mutation the
/// server made is visible through every caller-side alias, because old
/// objects were overwritten rather than replaced.
///
/// # Errors
/// Fails on malformed payloads or if `client_linear` does not match the
/// old-object count recorded in the delta.
pub fn apply_delta(bytes: &[u8], heap: &mut Heap, client_linear: &[ObjId]) -> Result<AppliedDelta> {
    let mut reader = ByteReader::new(bytes);
    let magic = reader.get_slice(4)?;
    if magic != DELTA_MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = reader.get_u8()?;
    if version != crate::FORMAT_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let old_count = reader.get_varint_u32()? as usize;
    if old_count != client_linear.len() {
        return Err(WireError::BadOldIndex {
            index: old_count as u32,
            len: client_linear.len() as u32,
        });
    }
    let changed_count = reader.get_count()?;

    let mut dec = DeltaDecoder {
        heap,
        reader,
        client_linear,
        new_objects: Vec::new(),
    };
    for _ in 0..changed_count {
        let idx = dec.reader.get_varint_u32()? as usize;
        let target = *client_linear.get(idx).ok_or(WireError::BadOldIndex {
            index: idx as u32,
            len: old_count as u32,
        })?;
        let slot_count = dec.reader.get_count()?;
        let mut slots = Vec::with_capacity(slot_count);
        for _ in 0..slot_count {
            slots.push(dec.decode_value()?);
        }
        dec.heap.overwrite_slots(target, slots)?;
    }
    let root_count = dec.reader.get_count()?;
    let mut roots = Vec::with_capacity(root_count);
    for _ in 0..root_count {
        let v = dec.decode_value()?;
        roots.push(v);
    }
    if !dec.reader.is_exhausted() {
        return Err(WireError::TrailingBytes {
            offset: dec.reader.position(),
            trailing: dec.reader.remaining(),
        });
    }
    Ok(AppliedDelta {
        roots,
        new_objects: dec.new_objects,
        changed_count,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{deserialize_graph, serialize_graph, DecodedGraph, EncodedGraph};
    use nrmi_heap::copy::deep_copy_between;
    use nrmi_heap::graph::isomorphic;
    use nrmi_heap::tree::{self, TreeClasses};
    use nrmi_heap::{ClassRegistry, HeapAccess};

    fn setup() -> (Heap, TreeClasses) {
        let mut reg = ClassRegistry::new();
        let classes = tree::register_tree_classes(&mut reg);
        (Heap::new(reg.snapshot()), classes)
    }

    /// The request half of a call: the client's graph marshalled and
    /// unmarshalled onto a fresh server heap. Returns the request, the
    /// server heap and its decoded copy, and the mark — the server's
    /// epoch right after unmarshal.
    fn request(client: &Heap, root: ObjId) -> (EncodedGraph, Heap, DecodedGraph, u64) {
        let enc = serialize_graph(client, &[Value::Ref(root)]).unwrap();
        let mut server = Heap::new(client.registry_handle().clone());
        let dec = deserialize_graph(&enc.bytes, &mut server).unwrap();
        let mark = server.epoch();
        (enc, server, dec, mark)
    }

    /// Full client/server delta round trip: marshal the request, mutate
    /// server-side, encode the delta since the mark, apply on the client.
    /// Returns the applied delta and the encoder's statistics.
    fn delta_roundtrip(
        client: &mut Heap,
        root: ObjId,
        mutate: impl FnOnce(&mut Heap, ObjId),
    ) -> (AppliedDelta, DeltaStats) {
        let (enc, mut server, dec, mark) = request(client, root);
        let server_root = dec.roots[0].as_ref_id().unwrap();
        mutate(&mut server, server_root);
        let delta = encode_delta(&server, &dec.linear, mark, &[]).unwrap();
        let applied = apply_delta(&delta.bytes, client, &enc.linear).unwrap();
        (applied, delta.stats)
    }

    #[test]
    fn trailing_bytes_rejected() {
        let (mut client, classes) = setup();
        let root = tree::build_random_tree(&mut client, &classes, 8, 5).unwrap();
        let (enc, server, dec, mark) = request(&client, root);
        let mut bytes = encode_delta(&server, &dec.linear, mark, &[]).unwrap().bytes;
        bytes.push(0x7f);
        match apply_delta(&bytes, &mut client, &enc.linear) {
            Err(WireError::TrailingBytes { trailing, .. }) => assert_eq!(trailing, 1),
            other => panic!("expected TrailingBytes, got {other:?}"),
        }
    }

    #[test]
    fn unchanged_graph_produces_near_empty_delta() {
        let (mut client, classes) = setup();
        let root = tree::build_random_tree(&mut client, &classes, 256, 1).unwrap();
        let (applied, stats) = delta_roundtrip(&mut client, root, |_, _| {});
        assert_eq!(applied.changed_count, 0);
        assert_eq!(stats.changed_count, 0);
        assert_eq!(stats.new_count, 0);
        assert!(
            stats.bytes < 32,
            "no-change delta should be tiny, got {} bytes",
            stats.bytes
        );
    }

    #[test]
    fn single_field_change_patches_in_place() {
        let (mut client, classes) = setup();
        let root = tree::build_random_tree(&mut client, &classes, 64, 2).unwrap();
        let (applied, stats) = delta_roundtrip(&mut client, root, |server, r| {
            server.set_field(r, "data", Value::Int(31337)).unwrap();
        });
        assert_eq!(applied.changed_count, 1);
        assert_eq!(stats.new_count, 0);
        assert_eq!(client.get_field(root, "data").unwrap(), Value::Int(31337));
    }

    /// Version stamps record writes, not differences: a service write
    /// that stores an object's own old value ships it, where a diff
    /// against a pre-call copy found nothing to send. The restore stays
    /// exact — the client ends isomorphic to a local twin that ran the
    /// same write.
    #[test]
    fn rewriting_an_old_value_ships_and_restores_exactly() {
        let (mut client, classes) = setup();
        let root = tree::build_random_tree(&mut client, &classes, 32, 7).unwrap();
        let mut twin = Heap::new(client.registry_handle().clone());
        let twin_root = deep_copy_between(&client, &[root], &mut twin).unwrap()[&root];
        let rewrite = |heap: &mut Heap, r: ObjId| {
            let old = heap.get_field(r, "data").unwrap();
            heap.set_field(r, "data", old).unwrap();
        };
        rewrite(&mut twin, twin_root);
        let (applied, stats) = delta_roundtrip(&mut client, root, rewrite);
        assert_eq!(stats.changed_count, 1, "the write ships");
        assert_eq!(applied.changed_count, 1);
        assert!(isomorphic(&client, root, &twin, twin_root).unwrap());
    }

    #[test]
    fn running_example_restored_exactly_via_delta() {
        let (mut client, classes) = setup();
        let ex = tree::build_running_example(&mut client, &classes).unwrap();
        let (applied, stats) = delta_roundtrip(&mut client, ex.root, |server, r| {
            tree::run_foo(server, r).unwrap();
        });
        // foo writes: t (left/right fields), t.left (data), t.right
        // (data + right), t.right.right (data) → 4 changed old objects,
        // 1 new object.
        assert_eq!(stats.changed_count, 4);
        assert_eq!(stats.new_count, 1);
        assert_eq!(applied.new_objects.len(), 1);
        let violations = tree::figure2_violations(&mut client, &ex).unwrap();
        assert!(
            violations.is_empty(),
            "delta restore violated figure 2: {violations:?}"
        );
    }

    #[test]
    fn new_objects_shared_between_changed_entries_materialize_once() {
        let (mut client, classes) = setup();
        let a = client.alloc_default(classes.tree).unwrap();
        let b = client.alloc_default(classes.tree).unwrap();
        let root = client
            .alloc(
                classes.tree,
                vec![Value::Int(0), Value::Ref(a), Value::Ref(b)],
            )
            .unwrap();
        let (applied, stats) = delta_roundtrip(&mut client, root, |server, r| {
            // Both children now point at ONE new node.
            let class = server.class_of(r).unwrap();
            let fresh = server
                .alloc(class, vec![Value::Int(77), Value::Null, Value::Null])
                .unwrap();
            let ca = server.get_ref(r, "left").unwrap().unwrap();
            let cb = server.get_ref(r, "right").unwrap().unwrap();
            server.set_field(ca, "left", Value::Ref(fresh)).unwrap();
            server.set_field(cb, "left", Value::Ref(fresh)).unwrap();
        });
        assert_eq!(stats.new_count, 1, "shared new object shipped once");
        assert_eq!(applied.new_objects.len(), 1);
        let na = client.get_ref(a, "left").unwrap().unwrap();
        let nb = client.get_ref(b, "left").unwrap().unwrap();
        assert_eq!(na, nb, "aliasing of the new object preserved on the client");
        assert_eq!(client.get_field(na, "data").unwrap(), Value::Int(77));
    }

    #[test]
    fn delta_smaller_than_full_reply_for_sparse_changes() {
        let (mut client, classes) = setup();
        let root = tree::build_random_tree(&mut client, &classes, 512, 3).unwrap();
        let enc = serialize_graph(&client, &[Value::Ref(root)]).unwrap();
        let full_reply_size = enc.byte_len();
        let (_, stats) = delta_roundtrip(&mut client, root, |server, r| {
            server.set_field(r, "data", Value::Int(1)).unwrap();
        });
        assert!(
            stats.bytes * 10 < full_reply_size,
            "delta {} should be ≪ full {}",
            stats.bytes,
            full_reply_size
        );
    }

    #[test]
    fn roots_travel_through_delta() {
        let (mut client, classes) = setup();
        let root = tree::build_random_tree(&mut client, &classes, 4, 4).unwrap();
        let (enc, server, dec, mark) = request(&client, root);
        let server_root = dec.roots[0].as_ref_id().unwrap();
        // Return value: an int and the root itself (as an old-ref).
        let roots = [Value::Int(5), Value::Ref(server_root)];
        let delta = encode_delta(&server, &dec.linear, mark, &roots).unwrap();
        let applied = apply_delta(&delta.bytes, &mut client, &enc.linear).unwrap();
        assert_eq!(applied.roots[0], Value::Int(5));
        assert_eq!(
            applied.roots[1],
            Value::Ref(root),
            "old-ref root maps to client original"
        );
    }

    #[test]
    fn mismatched_linear_map_rejected() {
        let (mut client, classes) = setup();
        let root = tree::build_random_tree(&mut client, &classes, 4, 5).unwrap();
        let (enc, server, dec, mark) = request(&client, root);
        let delta = encode_delta(&server, &dec.linear, mark, &[]).unwrap();
        let err = apply_delta(&delta.bytes, &mut client, &enc.linear[..2]).unwrap_err();
        assert!(matches!(err, WireError::BadOldIndex { .. }));
    }

    #[test]
    fn bad_magic_rejected() {
        let (mut client, _) = setup();
        assert!(matches!(
            apply_delta(b"XXXX\x01\x00\x00\x00", &mut client, &[]),
            Err(WireError::BadMagic)
        ));
    }
}
