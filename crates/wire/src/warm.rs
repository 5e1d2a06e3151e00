//! Request deltas for warm calls: the client-to-server twin of [`delta`].
//!
//! A warm-call session keeps the argument graph alive on the server
//! between calls, so a subsequent request need not re-ship the whole
//! graph: it ships only the **request delta** — which synchronized
//! objects the caller freed, which it mutated (with their new slots),
//! and any objects it allocated that the graph now reaches — plus the
//! call's roots, which may freely re-root within the graph.
//!
//! Both sides maintain the same *sync list*: the synchronized objects in
//! a canonical order (initially the seed call's linear map, extended by
//! every delta's new objects in emission order — see [`next_sync`]).
//! Positions into that list are the shared vocabulary: `OLDREF i` on the
//! wire means "the i-th synchronized object", exactly as old-indices do
//! in reply deltas.
//!
//! The caller decides what is freed/dirty (typically via
//! [`Heap::epoch`]-based version stamps); this module only encodes and
//! applies. Decoding is hardened the same way the graph and delta
//! decoders are: every count is validated against the remaining payload
//! before allocation, every position is bounds-checked, and malformed
//! input yields an error, never a panic.
//!
//! [`delta`]: crate::delta

use nrmi_heap::{DensePositionMap, Heap, ObjId, Value};

use crate::delta::{DeltaDecoder, DeltaEncoder, DTAG_NEWBACK, DTAG_NEWOBJ, DTAG_OLDREF};
use crate::io::ByteReader;
use crate::ser::{TAG_DOUBLE, TAG_FALSE, TAG_INT, TAG_LONG, TAG_NULL, TAG_STR, TAG_TRUE};
use crate::{Result, WireError};

/// Magic prefix for request-delta payloads.
pub const REQUEST_DELTA_MAGIC: [u8; 4] = *b"NRMQ";

/// Size accounting for a request delta.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RequestDeltaStats {
    /// Synchronized objects the delta is relative to.
    pub sync_count: usize,
    /// Synchronized objects the caller freed.
    pub freed_count: usize,
    /// Synchronized objects whose slots were re-shipped.
    pub dirty_count: usize,
    /// New objects shipped in full.
    pub new_count: usize,
    /// Total payload bytes.
    pub bytes: usize,
}

/// An encoded request delta plus bookkeeping the sender needs to advance
/// its sync list.
#[derive(Clone, Debug)]
pub struct EncodedRequestDelta {
    /// The wire payload.
    pub bytes: Vec<u8>,
    /// Sender-side ids of the new objects shipped in full, in emission
    /// order (the receiver materializes them in the same order).
    pub new_objects: Vec<ObjId>,
    /// The freed positions actually encoded (sorted, deduplicated).
    pub freed_positions: Vec<u32>,
    /// Size accounting.
    pub stats: RequestDeltaStats,
}

/// Encodes a request delta against `sync`, the sender's synchronized
/// object list. `freed` and `dirty` are positions into `sync` (the
/// caller computes them, e.g. from heap version stamps); `roots` are the
/// call's argument values, re-rooted freely. References to objects
/// outside the live sync list are shipped in full, depth-first, exactly
/// as reply deltas ship server-allocated objects.
///
/// # Errors
/// Fails on out-of-range positions, dangling references, or
/// non-serializable new objects.
pub fn encode_request_delta(
    heap: &Heap,
    sync: &[ObjId],
    freed: &[u32],
    dirty: &[u32],
    roots: &[Value],
) -> Result<EncodedRequestDelta> {
    let (delta, _, _) = encode_request_delta_pooled(
        heap,
        sync,
        freed,
        dirty,
        roots,
        DensePositionMap::new(),
        DensePositionMap::new(),
        Vec::new(),
    )?;
    Ok(delta)
}

/// The pooled workhorse behind [`encode_request_delta`]: identical
/// output, but the position-map scratch and payload buffer are supplied
/// by the caller and the maps are handed back for reuse.
#[allow(clippy::too_many_arguments)]
pub(crate) fn encode_request_delta_pooled(
    heap: &Heap,
    sync: &[ObjId],
    freed: &[u32],
    dirty: &[u32],
    roots: &[Value],
    mut old_pos: DensePositionMap,
    new_pos: DensePositionMap,
    buf: Vec<u8>,
) -> Result<(EncodedRequestDelta, DensePositionMap, DensePositionMap)> {
    let len = sync.len() as u32;
    let mut freed_positions: Vec<u32> = freed.to_vec();
    freed_positions.sort_unstable();
    freed_positions.dedup();
    for &pos in freed_positions.iter().chain(dirty) {
        if pos >= len {
            return Err(WireError::BadOldIndex { index: pos, len });
        }
    }
    let is_freed = |pos: u32| freed_positions.binary_search(&pos).is_ok();

    // Freed entries are not referenceable: leave them out of the
    // position map so a stray reference to one surfaces as an error
    // (the object is gone from the sender's heap) instead of shipping a
    // position the receiver is about to free.
    old_pos.clear();
    for (i, &id) in sync.iter().enumerate() {
        if !is_freed(i as u32) {
            old_pos.insert(id, i as u32);
        }
    }

    let mut enc = DeltaEncoder::with_scratch(heap, old_pos, new_pos, buf);
    enc.writer.put_slice(&REQUEST_DELTA_MAGIC);
    enc.writer.put_u8(crate::FORMAT_VERSION);
    enc.writer.put_varint(u64::from(len));
    enc.writer.put_varint(freed_positions.len() as u64);
    for &pos in &freed_positions {
        enc.writer.put_varint(u64::from(pos));
    }
    enc.writer.put_varint(dirty.len() as u64);
    for &pos in dirty {
        if is_freed(pos) {
            return Err(WireError::BadOldIndex { index: pos, len });
        }
        let slots = heap.get(sync[pos as usize])?.body().slots();
        enc.writer.put_varint(u64::from(pos));
        enc.writer.put_varint(slots.len() as u64);
        for v in slots {
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
    let stats = RequestDeltaStats {
        sync_count: sync.len(),
        freed_count: freed_positions.len(),
        dirty_count: dirty.len(),
        new_count: new_objects.len(),
        bytes: bytes.len(),
    };
    Ok((
        EncodedRequestDelta {
            bytes,
            new_objects,
            freed_positions,
            stats,
        },
        old_pos,
        new_pos,
    ))
}

/// The result of applying a request delta on the receiver.
#[derive(Clone, Debug, Default)]
pub struct AppliedRequestDelta {
    /// Decoded call roots (the arguments).
    pub roots: Vec<Value>,
    /// Objects newly materialized in the receiver's heap, decode order.
    pub new_objects: Vec<ObjId>,
    /// Positions the sender freed (their receiver-side objects have been
    /// freed too).
    pub freed_positions: Vec<u32>,
    /// Synchronized objects patched in place.
    pub changed_count: usize,
}

/// Applies a request delta: patches dirty synchronized objects in place,
/// materializes new objects, decodes the roots, and frees the receiver's
/// copies of objects the sender freed.
///
/// # Errors
/// Fails on malformed payloads, or if `sync` does not match the sync
/// count recorded in the delta (the sessions are out of step — the
/// caller should treat this as a cache miss and fall back to a cold
/// call).
pub fn apply_request_delta(
    bytes: &[u8],
    heap: &mut Heap,
    sync: &[ObjId],
) -> Result<AppliedRequestDelta> {
    let mut reader = ByteReader::new(bytes);
    let magic = reader.get_slice(4)?;
    if magic != REQUEST_DELTA_MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = reader.get_u8()?;
    if version != crate::FORMAT_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let sync_count = reader.get_varint_u32()? as usize;
    if sync_count != sync.len() {
        return Err(WireError::BadOldIndex {
            index: sync_count as u32,
            len: sync.len() as u32,
        });
    }
    let freed_count = reader.get_count()?;
    let mut freed_positions = Vec::with_capacity(freed_count);
    let mut freed_flags = vec![false; sync_count];
    for _ in 0..freed_count {
        let pos = reader.get_varint_u32()? as usize;
        // Out-of-range and duplicate positions are both protocol errors.
        match freed_flags.get_mut(pos) {
            Some(flag @ false) => *flag = true,
            _ => {
                return Err(WireError::BadOldIndex {
                    index: pos as u32,
                    len: sync_count as u32,
                })
            }
        }
        freed_positions.push(pos as u32);
    }
    let dirty_count = reader.get_count()?;

    let mut dec = DeltaDecoder {
        heap,
        reader,
        client_linear: sync,
        new_objects: Vec::new(),
    };
    for _ in 0..dirty_count {
        let pos = dec.reader.get_varint_u32()? as usize;
        if pos >= sync_count || freed_flags[pos] {
            return Err(WireError::BadOldIndex {
                index: pos as u32,
                len: sync_count as u32,
            });
        }
        let target = sync[pos];
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
        roots.push(dec.decode_value()?);
    }
    let new_objects = dec.new_objects;
    if !dec.reader.is_exhausted() {
        return Err(WireError::TrailingBytes {
            offset: dec.reader.position(),
            trailing: dec.reader.remaining(),
        });
    }
    // Free last, after all decoding: freed slots must not be recycled by
    // the new-object allocations above, and a malformed payload errors
    // out before any receiver object is freed.
    for &pos in &freed_positions {
        heap.free(sync[pos as usize])?;
    }
    Ok(AppliedRequestDelta {
        roots,
        new_objects,
        freed_positions,
        changed_count: dirty_count,
    })
}

/// The sync positions a request delta touches, recovered without
/// applying it. Both lists are sorted and unique.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PeekedRequestDelta {
    /// Positions the sender freed.
    pub freed_positions: Vec<u32>,
    /// Positions the sender overwrote.
    pub dirty_positions: Vec<u32>,
}

impl PeekedRequestDelta {
    /// True when the delta frees or overwrites the given sync position.
    pub fn touches(&self, pos: u32) -> bool {
        self.freed_positions.binary_search(&pos).is_ok()
            || self.dirty_positions.binary_search(&pos).is_ok()
    }
}

/// Skips `count` encoded values without decoding them into a heap,
/// validating exactly what [`DeltaDecoder::decode_value`] would reject
/// structurally: tags, old-index bounds, and back-reference bounds.
/// `NEWOBJ` payloads are flattened into the skip count (the stream is
/// depth-first, so stream order equals recursion order), which also
/// bounds the walk by the payload length instead of the stack.
fn skip_values(
    reader: &mut ByteReader,
    count: usize,
    sync_len: usize,
    new_seen: &mut u32,
) -> Result<()> {
    let mut remaining = count as u64;
    while remaining > 0 {
        remaining -= 1;
        let offset = reader.position();
        let tag = reader.get_u8()?;
        match tag {
            TAG_NULL | TAG_FALSE | TAG_TRUE => {}
            TAG_INT | TAG_LONG => {
                reader.get_zigzag()?;
            }
            TAG_DOUBLE => {
                reader.get_f64()?;
            }
            TAG_STR => {
                let len = reader.get_count()?;
                reader.get_slice(len)?;
            }
            DTAG_OLDREF => {
                let idx = reader.get_varint_u32()?;
                if idx as usize >= sync_len {
                    return Err(WireError::BadOldIndex {
                        index: idx,
                        len: sync_len as u32,
                    });
                }
            }
            DTAG_NEWBACK => {
                let pos = reader.get_varint_u32()?;
                if pos >= *new_seen {
                    return Err(WireError::BadBackRef {
                        position: pos,
                        decoded: *new_seen,
                    });
                }
            }
            DTAG_NEWOBJ => {
                reader.get_varint_u32()?; // class id; validated on apply
                let slot_count = reader.get_count()?;
                *new_seen += 1;
                remaining = remaining.saturating_add(slot_count as u64);
            }
            other => return Err(WireError::UnknownTag { tag: other, offset }),
        }
    }
    Ok(())
}

/// Parses a request delta far enough to learn which sync positions it
/// frees or overwrites, without touching any heap.
///
/// This is the server half of the coherence **merge rule**: when a warm
/// entry is dirty (out-of-band writes) *and* a request is in flight, the
/// repair patch must exclude every position the request itself rewrites
/// — the client's write wins at object granularity, because its slots
/// are already on the wire and will overwrite the server's copy when the
/// delta applies. Patching those positions back would silently undo the
/// client's mutation.
///
/// Validation mirrors [`apply_request_delta`] structurally (magic,
/// version, sync count, position bounds and duplicates, value tags,
/// trailing bytes), so any payload this rejects would also fail to
/// apply; the caller can fall through and let the apply path surface the
/// authoritative error. Values are skipped, never decoded — no
/// allocation proportional to the graph, no heap access.
pub fn peek_request_delta(bytes: &[u8], sync_len: usize) -> Result<PeekedRequestDelta> {
    let mut reader = ByteReader::new(bytes);
    if reader.get_slice(4)? != REQUEST_DELTA_MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = reader.get_u8()?;
    if version != crate::FORMAT_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let sync_count = reader.get_varint_u32()? as usize;
    if sync_count != sync_len {
        return Err(WireError::BadOldIndex {
            index: sync_count as u32,
            len: sync_len as u32,
        });
    }
    let freed_count = reader.get_count()?;
    let mut freed_flags = vec![false; sync_count];
    let mut freed_positions = Vec::with_capacity(freed_count);
    for _ in 0..freed_count {
        let pos = reader.get_varint_u32()? as usize;
        match freed_flags.get_mut(pos) {
            Some(flag @ false) => *flag = true,
            _ => {
                return Err(WireError::BadOldIndex {
                    index: pos as u32,
                    len: sync_count as u32,
                })
            }
        }
        freed_positions.push(pos as u32);
    }
    let dirty_count = reader.get_count()?;
    let mut dirty_positions = Vec::with_capacity(dirty_count);
    let mut new_seen = 0u32;
    for _ in 0..dirty_count {
        let pos = reader.get_varint_u32()? as usize;
        if pos >= sync_count || freed_flags[pos] {
            return Err(WireError::BadOldIndex {
                index: pos as u32,
                len: sync_count as u32,
            });
        }
        dirty_positions.push(pos as u32);
        let slot_count = reader.get_count()?;
        skip_values(&mut reader, slot_count, sync_len, &mut new_seen)?;
    }
    let root_count = reader.get_count()?;
    skip_values(&mut reader, root_count, sync_len, &mut new_seen)?;
    if !reader.is_exhausted() {
        return Err(WireError::TrailingBytes {
            offset: reader.position(),
            trailing: reader.remaining(),
        });
    }
    freed_positions.sort_unstable();
    dirty_positions.sort_unstable();
    dirty_positions.dedup();
    Ok(PeekedRequestDelta {
        freed_positions,
        dirty_positions,
    })
}

/// Advances a sync list across one delta exchange: drops the freed
/// positions and appends the delta's new objects. Each side calls this
/// with its *own* object ids (the sender's [`EncodedRequestDelta`] /
/// [`EncodedDelta`](crate::delta::EncodedDelta) ids, the receiver's
/// [`AppliedRequestDelta`] /
/// [`AppliedDelta`](crate::delta::AppliedDelta) ids); because emission
/// and decode order coincide, the two lists stay position-aligned.
///
/// `freed_positions` must be in ascending order, as both
/// [`EncodedRequestDelta::freed_positions`] and
/// [`AppliedRequestDelta::freed_positions`] are — the drop is a single
/// merge walk, with no per-call set construction.
pub fn next_sync(sync: &[ObjId], freed_positions: &[u32], new_objects: &[ObjId]) -> Vec<ObjId> {
    debug_assert!(
        freed_positions.windows(2).all(|w| w[0] < w[1]),
        "freed positions must be sorted and unique"
    );
    let mut out =
        Vec::with_capacity(sync.len().saturating_sub(freed_positions.len()) + new_objects.len());
    let mut freed = freed_positions.iter().peekable();
    for (i, &id) in sync.iter().enumerate() {
        if freed.next_if(|&&pos| pos as usize == i).is_some() {
            continue;
        }
        out.push(id);
    }
    out.extend_from_slice(new_objects);
    out
}

/// Magic prefix for invalidation-patch payloads (server-to-client: the
/// coherence protocol's targeted reseed of a stale warm cache).
pub const INVALIDATION_MAGIC: [u8; 4] = *b"NRMV";

/// Size accounting for an invalidation patch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InvalidationStats {
    /// Synchronized objects the patch is relative to.
    pub sync_count: usize,
    /// Synchronized objects whose slots were re-shipped.
    pub dirty_count: usize,
    /// New objects shipped in full (reached from dirty slots but not in
    /// the sync list — e.g. spliced in by another client's call).
    pub new_count: usize,
    /// Total payload bytes.
    pub bytes: usize,
}

/// An encoded invalidation patch plus the bookkeeping the sender needs
/// to advance its sync list.
#[derive(Clone, Debug)]
pub struct EncodedInvalidation {
    /// The wire payload.
    pub bytes: Vec<u8>,
    /// Sender-side ids of the new objects shipped in full, in emission
    /// order (the receiver materializes them in the same order, so both
    /// sync lists extend identically).
    pub new_objects: Vec<ObjId>,
    /// Size accounting.
    pub stats: InvalidationStats,
}

/// Encodes an invalidation patch against `sync`: the dirty positions'
/// current slots, with references to objects outside the sync list
/// shipped in full, depth-first. This is a request delta with no freed
/// section and no roots — the receiver's graph shape is repaired, not
/// re-rooted — and it travels server-to-client inside
/// `Frame::CacheStale`.
///
/// # Errors
/// Fails on out-of-range positions, dangling references (a sync object
/// freed out from under the cache — the caller must fall back to a full
/// `CacheMiss`), or non-serializable new objects.
pub fn encode_invalidation(
    heap: &Heap,
    sync: &[ObjId],
    dirty: &[u32],
) -> Result<EncodedInvalidation> {
    let len = sync.len() as u32;
    let mut dirty_positions: Vec<u32> = dirty.to_vec();
    dirty_positions.sort_unstable();
    dirty_positions.dedup();
    for &pos in &dirty_positions {
        if pos >= len {
            return Err(WireError::BadOldIndex { index: pos, len });
        }
    }

    let mut old_pos = DensePositionMap::new();
    for (i, &id) in sync.iter().enumerate() {
        old_pos.insert(id, i as u32);
    }

    let mut enc = DeltaEncoder::with_scratch(heap, old_pos, DensePositionMap::new(), Vec::new());
    enc.writer.put_slice(&INVALIDATION_MAGIC);
    enc.writer.put_u8(crate::FORMAT_VERSION);
    enc.writer.put_varint(u64::from(len));
    enc.writer.put_varint(dirty_positions.len() as u64);
    for &pos in &dirty_positions {
        let slots = heap.get(sync[pos as usize])?.body().slots();
        enc.writer.put_varint(u64::from(pos));
        enc.writer.put_varint(slots.len() as u64);
        for v in slots {
            enc.encode_value(v)?;
        }
    }

    let DeltaEncoder {
        writer,
        new_ids: new_objects,
        ..
    } = enc;
    let bytes = writer.into_bytes();
    let stats = InvalidationStats {
        sync_count: sync.len(),
        dirty_count: dirty_positions.len(),
        new_count: new_objects.len(),
        bytes: bytes.len(),
    };
    Ok(EncodedInvalidation {
        bytes,
        new_objects,
        stats,
    })
}

/// The result of applying an invalidation patch on the receiver.
#[derive(Clone, Debug, Default)]
pub struct AppliedInvalidation {
    /// Objects newly materialized in the receiver's heap, decode order
    /// (append to the sync list, exactly like a delta's new objects).
    pub new_objects: Vec<ObjId>,
    /// Positions patched in place, ascending.
    pub dirty_positions: Vec<u32>,
}

/// Applies an invalidation patch: overwrites the dirty positions' slots
/// and materializes any new objects they reference. No objects are
/// freed — a peer's call can splice objects *into* the shared graph,
/// but unlinking only makes them unreachable, and unreachable cached
/// objects are harmless until the entry is evicted.
///
/// # Errors
/// Fails on malformed payloads, or if `sync` does not match the sync
/// count recorded in the patch (sessions out of step — the caller
/// should evict and fall back cold).
pub fn apply_invalidation(
    bytes: &[u8],
    heap: &mut Heap,
    sync: &[ObjId],
) -> Result<AppliedInvalidation> {
    apply_invalidation_filtered(bytes, heap, sync, &mut |_| true)
}

/// [`apply_invalidation`] with a per-position merge predicate: a
/// position is overwritten only when `overwrite(pos)` returns true.
///
/// This is the client half of the coherence merge rule, for *pushed*
/// patches: a patch that arrives over an idle connection may race local
/// writes the client has not shipped yet. Positions the client has
/// dirtied locally must keep the client's slots — they stay dirty, ship
/// with the next request delta, and win on the server — so the caller
/// skips them here instead of letting the patch clobber them.
///
/// Skipped positions still have their wire values decoded (the stream
/// must be consumed, and any new objects they reference are still
/// materialized to keep the two sync lists position-aligned); only the
/// final overwrite is withheld. `dirty_positions` in the result lists
/// the positions actually overwritten.
pub fn apply_invalidation_filtered(
    bytes: &[u8],
    heap: &mut Heap,
    sync: &[ObjId],
    overwrite: &mut dyn FnMut(u32) -> bool,
) -> Result<AppliedInvalidation> {
    let mut reader = ByteReader::new(bytes);
    let magic = reader.get_slice(4)?;
    if magic != INVALIDATION_MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = reader.get_u8()?;
    if version != crate::FORMAT_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let sync_count = reader.get_varint_u32()? as usize;
    if sync_count != sync.len() {
        return Err(WireError::BadOldIndex {
            index: sync_count as u32,
            len: sync.len() as u32,
        });
    }
    let dirty_count = reader.get_count()?;

    let mut dec = DeltaDecoder {
        heap,
        reader,
        client_linear: sync,
        new_objects: Vec::new(),
    };
    let mut dirty_positions = Vec::with_capacity(dirty_count);
    let mut last_pos: Option<u32> = None;
    for _ in 0..dirty_count {
        let pos = dec.reader.get_varint_u32()?;
        // Positions are ascending on the honest path; duplicates and
        // disorder are protocol errors, same as duplicate freed slots.
        if pos as usize >= sync_count || last_pos.is_some_and(|p| p >= pos) {
            return Err(WireError::BadOldIndex {
                index: pos,
                len: sync_count as u32,
            });
        }
        last_pos = Some(pos);
        let target = sync[pos as usize];
        let slot_count = dec.reader.get_count()?;
        let mut slots = Vec::with_capacity(slot_count);
        for _ in 0..slot_count {
            slots.push(dec.decode_value()?);
        }
        if overwrite(pos) {
            dec.heap.overwrite_slots(target, slots)?;
            dirty_positions.push(pos);
        }
    }
    let new_objects = dec.new_objects;
    if !dec.reader.is_exhausted() {
        return Err(WireError::TrailingBytes {
            offset: dec.reader.position(),
            trailing: dec.reader.remaining(),
        });
    }
    Ok(AppliedInvalidation {
        new_objects,
        dirty_positions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::ByteWriter;
    use crate::{deserialize_graph, serialize_graph};
    use nrmi_heap::tree::{self, TreeClasses};
    use nrmi_heap::{ClassRegistry, HeapAccess, LinearMap};

    fn setup() -> (Heap, TreeClasses) {
        let mut reg = ClassRegistry::new();
        let classes = tree::register_tree_classes(&mut reg);
        (Heap::new(reg.snapshot()), classes)
    }

    /// Seeds a client/server pair over one tree and returns the paired
    /// sync lists (identical traversal order, distinct id spaces).
    fn seeded_pair(size: usize, seed: u64) -> (Heap, Heap, Vec<ObjId>, Vec<ObjId>, TreeClasses) {
        let (mut client, classes) = setup();
        let root = tree::build_random_tree(&mut client, &classes, size, seed).unwrap();
        let enc = serialize_graph(&client, &[Value::Ref(root)]).unwrap();
        let mut server = Heap::new(client.registry_handle().clone());
        let dec = deserialize_graph(&enc.bytes, &mut server).unwrap();
        let client_sync = LinearMap::build(&client, &[root]).unwrap().order().to_vec();
        (client, server, client_sync, dec.linear, classes)
    }

    #[test]
    fn trailing_bytes_error_before_any_free() {
        let (client, mut server, c_sync, s_sync, _) = seeded_pair(8, 6);
        let enc =
            encode_request_delta(&client, &c_sync, &[1], &[], &[Value::Ref(c_sync[0])]).unwrap();
        let mut bytes = enc.bytes;
        bytes.push(0x00);
        match apply_request_delta(&bytes, &mut server, &s_sync) {
            Err(WireError::TrailingBytes { trailing, .. }) => assert_eq!(trailing, 1),
            other => panic!("expected TrailingBytes, got {other:?}"),
        }
        // Exhaustion is checked before the free loop runs, so the
        // malformed frame must not have freed the to-be-dropped slot.
        assert!(server.get_field(s_sync[1], "data").is_ok());
    }

    #[test]
    fn peek_reports_touched_positions_without_a_heap() {
        let (mut client, _server, c_sync, _s_sync, classes) = seeded_pair(8, 11);
        // Splice a fresh node under the root (dirty + new object), and
        // free position 2's subtree standing (just the position here —
        // peek never dereferences, so a simple mark suffices).
        let fresh = client
            .alloc(classes.tree, vec![Value::Int(55), Value::Null, Value::Null])
            .unwrap();
        client
            .set_field(c_sync[0], "left", Value::Ref(fresh))
            .unwrap();
        let enc =
            encode_request_delta(&client, &c_sync, &[2], &[0], &[Value::Ref(c_sync[0])]).unwrap();
        let peeked = peek_request_delta(&enc.bytes, c_sync.len()).unwrap();
        assert_eq!(peeked.freed_positions, vec![2]);
        assert_eq!(peeked.dirty_positions, vec![0]);
        assert!(peeked.touches(0) && peeked.touches(2));
        assert!(!peeked.touches(1));
    }

    #[test]
    fn peek_of_clean_delta_touches_nothing() {
        let (client, _server, c_sync, _s_sync, _) = seeded_pair(16, 12);
        let enc =
            encode_request_delta(&client, &c_sync, &[], &[], &[Value::Ref(c_sync[0])]).unwrap();
        let peeked = peek_request_delta(&enc.bytes, c_sync.len()).unwrap();
        assert!(peeked.freed_positions.is_empty());
        assert!(peeked.dirty_positions.is_empty());
    }

    #[test]
    fn peek_rejects_malformed_payloads() {
        let (client, _server, c_sync, _s_sync, _) = seeded_pair(8, 13);
        let enc =
            encode_request_delta(&client, &c_sync, &[1], &[], &[Value::Ref(c_sync[0])]).unwrap();
        // Garbage magic.
        assert!(peek_request_delta(&[0xFF, 0x00, 0x01], c_sync.len()).is_err());
        // Sync-list mismatch.
        assert!(matches!(
            peek_request_delta(&enc.bytes, c_sync.len() + 1),
            Err(WireError::BadOldIndex { .. })
        ));
        // Truncation anywhere must error, never panic.
        for cut in 0..enc.bytes.len() {
            assert!(
                peek_request_delta(&enc.bytes[..cut], c_sync.len()).is_err(),
                "truncated at {cut} must not parse"
            );
        }
        // Trailing garbage.
        let mut bytes = enc.bytes.clone();
        bytes.push(0x00);
        assert!(matches!(
            peek_request_delta(&bytes, c_sync.len()),
            Err(WireError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn filtered_invalidation_apply_skips_vetoed_positions() {
        let (mut server, mut client, s_sync, c_sync, _) = seeded_pair(8, 14);
        // "Server" side dirties two synchronized objects out-of-band.
        server.set_field(s_sync[0], "data", Value::Int(41)).unwrap();
        server.set_field(s_sync[3], "data", Value::Int(43)).unwrap();
        let patch = encode_invalidation(&server, &s_sync, &[0, 3]).unwrap();
        // The client has its own unshipped write at position 0: the
        // merge predicate vetoes the overwrite there.
        client.set_field(c_sync[0], "data", Value::Int(7)).unwrap();
        let applied =
            apply_invalidation_filtered(&patch.bytes, &mut client, &c_sync, &mut |pos| pos != 0)
                .unwrap();
        assert_eq!(applied.dirty_positions, vec![3]);
        assert_eq!(client.get_field(c_sync[0], "data").unwrap(), Value::Int(7));
        assert_eq!(client.get_field(c_sync[3], "data").unwrap(), Value::Int(43));
    }

    #[test]
    fn clean_graph_ships_roots_only() {
        let (client, mut server, c_sync, s_sync, _) = seeded_pair(128, 1);
        let enc =
            encode_request_delta(&client, &c_sync, &[], &[], &[Value::Ref(c_sync[0])]).unwrap();
        assert_eq!(enc.stats.dirty_count, 0);
        assert_eq!(enc.stats.new_count, 0);
        assert!(
            enc.stats.bytes < 32,
            "clean request delta must be tiny: {}",
            enc.stats.bytes
        );
        let applied = apply_request_delta(&enc.bytes, &mut server, &s_sync).unwrap();
        assert_eq!(applied.roots, vec![Value::Ref(s_sync[0])]);
        assert_eq!(applied.changed_count, 0);
    }

    #[test]
    fn dirty_slots_patch_in_place() {
        let (mut client, mut server, c_sync, s_sync, _) = seeded_pair(16, 2);
        client
            .set_field(c_sync[3], "data", Value::Int(777))
            .unwrap();
        let enc =
            encode_request_delta(&client, &c_sync, &[], &[3], &[Value::Ref(c_sync[0])]).unwrap();
        apply_request_delta(&enc.bytes, &mut server, &s_sync).unwrap();
        assert_eq!(
            server.get_field(s_sync[3], "data").unwrap(),
            Value::Int(777)
        );
    }

    #[test]
    fn new_objects_materialize_and_sync_lists_stay_aligned() {
        let (mut client, mut server, c_sync, s_sync, classes) = seeded_pair(8, 3);
        // Client splices a fresh two-node chain under the root.
        let leaf = client
            .alloc(classes.tree, vec![Value::Int(91), Value::Null, Value::Null])
            .unwrap();
        let mid = client
            .alloc(
                classes.tree,
                vec![Value::Int(90), Value::Ref(leaf), Value::Null],
            )
            .unwrap();
        client
            .set_field(c_sync[0], "left", Value::Ref(mid))
            .unwrap();
        let enc =
            encode_request_delta(&client, &c_sync, &[], &[0], &[Value::Ref(c_sync[0])]).unwrap();
        assert_eq!(enc.stats.new_count, 2);
        let applied = apply_request_delta(&enc.bytes, &mut server, &s_sync).unwrap();
        assert_eq!(applied.new_objects.len(), 2);
        let c_next = next_sync(&c_sync, &enc.freed_positions, &enc.new_objects);
        let s_next = next_sync(&s_sync, &applied.freed_positions, &applied.new_objects);
        assert_eq!(c_next.len(), s_next.len());
        // Position-for-position the data matches.
        for (&c_id, &s_id) in c_next.iter().zip(&s_next) {
            assert_eq!(
                client.get_field(c_id, "data").unwrap(),
                server.get_field(s_id, "data").unwrap()
            );
        }
    }

    #[test]
    fn freed_positions_free_the_receivers_copies() {
        let (mut client, mut server, c_sync, s_sync, _) = seeded_pair(8, 4);
        // Detach and free the root's right subtree head (position known
        // from preorder: find it via the heap rather than hardcoding).
        let victim = client.get_ref(c_sync[0], "right").unwrap().unwrap();
        let victim_pos = c_sync.iter().position(|&id| id == victim).unwrap() as u32;
        // The whole subtree below it must go too or refs would dangle;
        // keep the test simple by detaching only a leaf-shaped victim.
        let reachable = nrmi_heap::traverse::reachable_set(&client, &[victim]).unwrap();
        let freed: Vec<u32> = c_sync
            .iter()
            .enumerate()
            .filter(|(_, id)| reachable.contains(**id))
            .map(|(i, _)| i as u32)
            .collect();
        client.set_field(c_sync[0], "right", Value::Null).unwrap();
        for &pos in &freed {
            client.free(c_sync[pos as usize]).unwrap();
        }
        let enc =
            encode_request_delta(&client, &c_sync, &freed, &[0], &[Value::Ref(c_sync[0])]).unwrap();
        let applied = apply_request_delta(&enc.bytes, &mut server, &s_sync).unwrap();
        assert_eq!(applied.freed_positions.len(), freed.len());
        for &pos in &freed {
            assert!(!server.contains(s_sync[pos as usize]), "server copy freed");
        }
        let _ = victim_pos;
        assert!(server.contains(s_sync[0]));
    }

    #[test]
    fn sync_count_mismatch_rejected() {
        let (client, mut server, c_sync, s_sync, _) = seeded_pair(8, 5);
        let enc =
            encode_request_delta(&client, &c_sync, &[], &[], &[Value::Ref(c_sync[0])]).unwrap();
        let err = apply_request_delta(&enc.bytes, &mut server, &s_sync[..4]).unwrap_err();
        assert!(matches!(err, WireError::BadOldIndex { .. }));
    }

    #[test]
    fn hostile_payloads_error_cleanly() {
        let (_, mut server, _, s_sync, _) = seeded_pair(4, 6);
        // Bad magic.
        assert!(matches!(
            apply_request_delta(b"XXXX\x01\x00", &mut server, &s_sync),
            Err(WireError::BadMagic)
        ));
        // Every truncation of a real payload errors, never panics, and
        // never mutates the receiver before the error.
        let (client, mut server2, c_sync, s_sync2, _) = seeded_pair(4, 6);
        let enc =
            encode_request_delta(&client, &c_sync, &[], &[1], &[Value::Ref(c_sync[0])]).unwrap();
        for cut in 0..enc.bytes.len() {
            assert!(
                apply_request_delta(&enc.bytes[..cut], &mut server2, &s_sync2).is_err(),
                "cut at {cut}"
            );
        }
        // Duplicate freed position.
        let mut w = ByteWriter::new();
        w.put_slice(&REQUEST_DELTA_MAGIC);
        w.put_u8(crate::FORMAT_VERSION);
        w.put_varint(s_sync.len() as u64);
        w.put_varint(2); // freed_count
        w.put_varint(1);
        w.put_varint(1); // duplicate
        assert!(matches!(
            apply_request_delta(&w.into_bytes(), &mut server, &s_sync),
            Err(WireError::BadOldIndex { .. })
        ));
        // Freed position out of range.
        let mut oob = ByteWriter::new();
        oob.put_slice(&REQUEST_DELTA_MAGIC);
        oob.put_u8(crate::FORMAT_VERSION);
        oob.put_varint(s_sync.len() as u64);
        oob.put_varint(1);
        oob.put_varint(99);
        assert!(matches!(
            apply_request_delta(&oob.into_bytes(), &mut server, &s_sync),
            Err(WireError::BadOldIndex { .. })
        ));
    }

    #[test]
    fn dirty_entry_for_freed_position_rejected_both_ways() {
        let (client, mut server, c_sync, s_sync, _) = seeded_pair(4, 7);
        // Encoder refuses outright.
        assert!(matches!(
            encode_request_delta(&client, &c_sync, &[2], &[2], &[]),
            Err(WireError::BadOldIndex { .. })
        ));
        // Hand-built payload with a dirty entry naming a freed position.
        let mut w = ByteWriter::new();
        w.put_slice(&REQUEST_DELTA_MAGIC);
        w.put_u8(crate::FORMAT_VERSION);
        w.put_varint(s_sync.len() as u64);
        w.put_varint(1);
        w.put_varint(2); // freed: position 2
        w.put_varint(1); // dirty_count
        w.put_varint(2); // dirty position 2 — contradicts freed
        assert!(matches!(
            apply_request_delta(&w.into_bytes(), &mut server, &s_sync),
            Err(WireError::BadOldIndex { .. })
        ));
    }

    #[test]
    fn invalidation_patches_dirty_slots_in_place() {
        // Server-to-client direction: the server's copy mutated under a
        // peer's call; the patch repairs the client's cache.
        let (mut client, mut server, c_sync, s_sync, _) = seeded_pair(16, 11);
        server
            .set_field(s_sync[5], "data", Value::Int(4242))
            .unwrap();
        let enc = encode_invalidation(&server, &s_sync, &[5]).unwrap();
        assert_eq!(enc.stats.dirty_count, 1);
        assert_eq!(enc.stats.new_count, 0);
        let applied = apply_invalidation(&enc.bytes, &mut client, &c_sync).unwrap();
        assert_eq!(applied.dirty_positions, vec![5]);
        assert_eq!(
            client.get_field(c_sync[5], "data").unwrap(),
            Value::Int(4242)
        );
        let _ = &mut server;
    }

    #[test]
    fn invalidation_ships_spliced_objects_and_lists_stay_aligned() {
        let (mut client, mut server, c_sync, s_sync, classes) = seeded_pair(8, 12);
        // A peer's call spliced a fresh chain under the server's root.
        let leaf = server
            .alloc(classes.tree, vec![Value::Int(61), Value::Null, Value::Null])
            .unwrap();
        let mid = server
            .alloc(
                classes.tree,
                vec![Value::Int(60), Value::Ref(leaf), Value::Null],
            )
            .unwrap();
        server
            .set_field(s_sync[0], "left", Value::Ref(mid))
            .unwrap();
        let enc = encode_invalidation(&server, &s_sync, &[0]).unwrap();
        assert_eq!(enc.stats.new_count, 2);
        let applied = apply_invalidation(&enc.bytes, &mut client, &c_sync).unwrap();
        assert_eq!(applied.new_objects.len(), 2);
        let s_next = next_sync(&s_sync, &[], &enc.new_objects);
        let c_next = next_sync(&c_sync, &[], &applied.new_objects);
        assert_eq!(s_next.len(), c_next.len());
        for (&s_id, &c_id) in s_next.iter().zip(&c_next) {
            assert_eq!(
                server.get_field(s_id, "data").unwrap(),
                client.get_field(c_id, "data").unwrap()
            );
        }
    }

    #[test]
    fn empty_invalidation_is_tiny_and_clean() {
        let (mut client, server, c_sync, s_sync, _) = seeded_pair(64, 13);
        let enc = encode_invalidation(&server, &s_sync, &[]).unwrap();
        assert!(
            enc.stats.bytes < 16,
            "empty patch must be tiny: {}",
            enc.stats.bytes
        );
        let applied = apply_invalidation(&enc.bytes, &mut client, &c_sync).unwrap();
        assert!(applied.dirty_positions.is_empty());
        assert!(applied.new_objects.is_empty());
    }

    #[test]
    fn invalidation_rejects_dangling_sync_object() {
        // A peer freed part of the shared graph: the encoder must error
        // (the serve loop then falls back to a full CacheMiss), never
        // ship garbage.
        let (_, mut server, _, s_sync, _) = seeded_pair(8, 14);
        let victim = *s_sync.last().unwrap();
        let reachable = nrmi_heap::traverse::reachable_set(&server, &[victim]).unwrap();
        for &id in s_sync.iter().rev() {
            if reachable.contains(id) {
                // Detach first so the free is legal on a sanitized heap.
                for (i, parent) in s_sync.iter().enumerate() {
                    if !server.contains(*parent) {
                        continue;
                    }
                    let _ = i;
                    for field in ["left", "right"] {
                        if server.get_ref(*parent, field) == Ok(Some(id)) {
                            server.set_field(*parent, field, Value::Null).unwrap();
                        }
                    }
                }
                server.free(id).unwrap();
            }
        }
        let dirty: Vec<u32> = (0..s_sync.len() as u32).collect();
        assert!(encode_invalidation(&server, &s_sync, &dirty).is_err());
    }

    #[test]
    fn invalidation_hostile_payloads_error_cleanly() {
        let (mut client, mut server, c_sync, s_sync, _) = seeded_pair(4, 15);
        // Bad magic.
        assert!(matches!(
            apply_invalidation(b"XXXX\x01\x00", &mut client, &c_sync),
            Err(WireError::BadMagic)
        ));
        // Sync-count mismatch.
        server.set_field(s_sync[1], "data", Value::Int(9)).unwrap();
        let enc = encode_invalidation(&server, &s_sync, &[1]).unwrap();
        assert!(matches!(
            apply_invalidation(&enc.bytes, &mut client, &c_sync[..2]),
            Err(WireError::BadOldIndex { .. })
        ));
        // Every truncation errors, never panics.
        for cut in 0..enc.bytes.len() {
            assert!(
                apply_invalidation(&enc.bytes[..cut], &mut client, &c_sync).is_err(),
                "cut at {cut}"
            );
        }
        // Trailing garbage after a valid patch.
        let mut padded = enc.bytes.clone();
        padded.push(0x00);
        assert!(matches!(
            apply_invalidation(&padded, &mut client, &c_sync),
            Err(WireError::TrailingBytes { .. })
        ));
        // Duplicate dirty position (disorder is a protocol error). The
        // first entry is well-formed (three null slots match the Node
        // arity), so the duplicate check is what fires.
        let mut w = ByteWriter::new();
        w.put_slice(&INVALIDATION_MAGIC);
        w.put_u8(crate::FORMAT_VERSION);
        w.put_varint(c_sync.len() as u64);
        w.put_varint(2); // dirty_count
        w.put_varint(1);
        w.put_varint(3); // slot_count
        for _ in 0..3 {
            w.put_u8(TAG_NULL);
        }
        w.put_varint(1); // duplicate position
        w.put_varint(0);
        assert!(matches!(
            apply_invalidation(&w.into_bytes(), &mut client, &c_sync),
            Err(WireError::BadOldIndex { .. })
        ));
        // Out-of-range dirty position.
        let mut oob = ByteWriter::new();
        oob.put_slice(&INVALIDATION_MAGIC);
        oob.put_u8(crate::FORMAT_VERSION);
        oob.put_varint(c_sync.len() as u64);
        oob.put_varint(1);
        oob.put_varint(99);
        assert!(matches!(
            apply_invalidation(&oob.into_bytes(), &mut client, &c_sync),
            Err(WireError::BadOldIndex { .. })
        ));
    }

    #[test]
    fn next_sync_drops_and_appends() {
        let ids: Vec<ObjId> = (0..5).map(ObjId::from_index).collect();
        let fresh = [ObjId::from_index(9)];
        let out = next_sync(&ids, &[1, 3], &fresh);
        assert_eq!(
            out,
            vec![
                ObjId::from_index(0),
                ObjId::from_index(2),
                ObjId::from_index(4),
                ObjId::from_index(9)
            ]
        );
    }
}
