//! The one positional delta (§5.2.4, optimization 2, and its warm-call
//! extensions).
//!
//! Instead of shipping a whole object graph, a delta says what changed
//! relative to an object *order* both ends already share: these
//! positions were freed, these were written (here are their slots),
//! these objects are new, here are the roots. The paper proposes it for
//! replies — "the cost of passing an object by-copy-restore and not
//! making any changes to it is almost identical to the cost of passing
//! it by-copy" — and leaves it to future work. This crate ships it in
//! three directions; the magic names the [`DeltaKind`] and decides which
//! sections are present:
//!
//! | kind | magic | carries | freed | dirty | roots |
//! |---|---|---|---|---|---|
//! | [`Reply`](DeltaKind::Reply) | `NRMD` | what a call wrote, server → client | – | ✓ | ✓ |
//! | [`Request`](DeltaKind::Request) | `NRMQ` | a warm call's request, client → server | ✓ | ✓ | ✓ |
//! | [`Patch`](DeltaKind::Patch) | `NRMV` | a coherence repair (`CacheStale`), server → client | – | ✓ | – |
//!
//! The order is a call's linear map (replies) or a warm session's *sync
//! list*: the seed call's linear map, extended by every delta's new
//! objects in emission order ([`next_sync`]). `OLDREF i` on the wire
//! means "the i-th object of the order".
//!
//! The caller decides what is freed and dirty; this module encodes and
//! applies. A reply's dirty positions are the order's objects stamped
//! above the mark the server took after unmarshal ([`dirty_since`]).
//! Version stamps record writes, not differences, so a write that stores
//! an object's old value ships.
//!
//! Applying is all-or-nothing, as a full restore is. Every section is
//! decoded and checked before the first object of the order is
//! overwritten; a payload that fails anywhere leaves the heap as it was,
//! with the new objects it had materialized freed again. Old objects
//! are patched in place, so after an apply every alias sees the writes
//! and no pointer fixup is needed: applying a reply delta *is* restore
//! steps 4–6.

use std::ops::Range;

use nrmi_heap::{ClassId, DensePositionMap, Heap, ObjId, Value};

use crate::codec::Codec;
use crate::io::{ByteReader, ByteWriter};
use crate::ser::{TAG_DOUBLE, TAG_FALSE, TAG_INT, TAG_LONG, TAG_NULL, TAG_STR, TAG_TRUE};
use crate::{Result, WireError, FORMAT_VERSION};

const DTAG_OLDREF: u8 = 10;
const DTAG_NEWOBJ: u8 = 11;
const DTAG_NEWBACK: u8 = 12;

/// Which delta a payload is. Direction of travel is policy; the format
/// is the same mechanism for all three.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaKind {
    /// A call's reply (`NRMD`): dirty positions and the reply roots.
    Reply,
    /// A warm call's request (`NRMQ`): freed and dirty positions and the
    /// call's arguments.
    Request,
    /// A coherence patch (`NRMV`): dirty positions only. The receiver's
    /// graph is repaired, not re-rooted, and nothing is freed.
    Patch,
}

impl DeltaKind {
    /// The magic a payload of this kind starts with.
    pub const fn magic(self) -> [u8; 4] {
        match self {
            DeltaKind::Reply => *b"NRMD",
            DeltaKind::Request => *b"NRMQ",
            DeltaKind::Patch => *b"NRMV",
        }
    }

    fn has_freed(self) -> bool {
        self == DeltaKind::Request
    }

    fn has_roots(self) -> bool {
        self != DeltaKind::Patch
    }
}

/// Size accounting for one delta, on either end.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Objects of the order the delta is relative to.
    pub order_count: usize,
    /// Positions freed.
    pub freed_count: usize,
    /// Positions whose slots were shipped (encode) or overwritten
    /// (apply, after the merge veto).
    pub dirty_count: usize,
    /// New objects shipped in full.
    pub new_count: usize,
    /// Payload bytes.
    pub bytes: usize,
}

/// An encoded delta.
#[derive(Clone, Debug)]
pub struct EncodedDelta {
    /// The wire payload.
    pub bytes: Vec<u8>,
    /// Sender-side ids of the new objects shipped in full, in emission
    /// order — the order the receiver's [`AppliedDelta::new_objects`]
    /// materializes them in, so [`next_sync`] keeps both ends aligned.
    pub new_objects: Vec<ObjId>,
    /// Size accounting.
    pub stats: DeltaStats,
}

/// What applying a delta did.
#[derive(Clone, Debug, Default)]
pub struct AppliedDelta {
    /// Decoded roots: the return value, or a request's arguments. Empty
    /// for a patch.
    pub roots: Vec<Value>,
    /// Objects newly materialized in the receiver's heap, decode order.
    pub new_objects: Vec<ObjId>,
    /// Positions freed, ascending; their receiver-side objects are gone.
    pub freed_positions: Vec<u32>,
    /// Size accounting.
    pub stats: DeltaStats,
}

/// The positions a delta frees and overwrites, read without applying it.
/// Both lists are ascending and unique.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PeekedDelta {
    /// Positions the sender freed.
    pub freed_positions: Vec<u32>,
    /// Positions the sender overwrote.
    pub dirty_positions: Vec<u32>,
}

impl PeekedDelta {
    /// True when the delta frees or overwrites position `pos`.
    pub fn touches(&self, pos: u32) -> bool {
        self.freed_positions.binary_search(&pos).is_ok()
            || self.dirty_positions.binary_search(&pos).is_ok()
    }
}

/// The delta half of a [`Codec`]'s scratch: the encoder's position maps
/// and normalized position lists, and the applier's staged overwrites.
#[derive(Debug, Default)]
pub(crate) struct DeltaScratch {
    old_pos: DensePositionMap,
    new_pos: DensePositionMap,
    freed: Vec<u32>,
    dirty: Vec<u32>,
    staged: Staged,
}

/// Decoded overwrites waiting for the whole payload to check out: each
/// position with the range of `slots` holding its values.
#[derive(Debug, Default)]
struct Staged {
    entries: Vec<(u32, Range<usize>)>,
    slots: Vec<Value>,
}

/// [`Codec::encode_delta`] on a fresh codec.
///
/// # Errors
/// See [`Codec::encode_delta`].
pub fn encode_delta(
    kind: DeltaKind,
    heap: &Heap,
    order: &[ObjId],
    freed: &[u32],
    dirty: &[u32],
    roots: &[Value],
) -> Result<EncodedDelta> {
    Codec::new().encode_delta(kind, heap, order, freed, dirty, roots)
}

/// [`Codec::apply_delta`] on a fresh codec.
///
/// # Errors
/// See [`Codec::apply_delta`].
pub fn apply_delta(
    kind: DeltaKind,
    bytes: &[u8],
    heap: &mut Heap,
    order: &[ObjId],
    overwrite: &mut dyn FnMut(u32) -> bool,
) -> Result<AppliedDelta> {
    Codec::new().apply_delta(kind, bytes, heap, order, overwrite)
}

/// Applies a request delta against `sync`, overwriting every dirty
/// position.
///
/// # Errors
/// See [`Codec::apply_delta`].
pub fn apply_request_delta(bytes: &[u8], heap: &mut Heap, sync: &[ObjId]) -> Result<AppliedDelta> {
    apply_delta(DeltaKind::Request, bytes, heap, sync, &mut |_| true)
}

/// The dirty positions of a reply: those of `order` whose objects were
/// written after the heap epoch `since`, ascending. A server takes
/// `since` once a request is unmarshalled, so these are what the call
/// wrote.
///
/// # Errors
/// Fails if an object of `order` is gone.
pub fn dirty_since(heap: &Heap, order: &[ObjId], since: u64) -> Result<Vec<u32>> {
    let mut dirty = Vec::new();
    for (pos, &id) in order.iter().enumerate() {
        if heap.get(id)?.version() > since {
            dirty.push(pos as u32);
        }
    }
    Ok(dirty)
}

/// Reads which positions a delta frees and overwrites, without a heap.
///
/// This is the server half of the coherence **merge rule**: when a warm
/// entry is dirty (out-of-band writes) *and* a request is in flight, the
/// repair patch must exclude every position the request itself rewrites
/// — the client's slots are already on the wire and win at object
/// granularity.
///
/// It runs the applier's own header and section parser, without
/// materializing anything, so a payload this rejects fails to apply too;
/// the caller can fall through and let the apply path surface the
/// authoritative error.
///
/// # Errors
/// Fails on malformed payloads.
pub fn peek_delta(kind: DeltaKind, bytes: &[u8], order: &[ObjId]) -> Result<PeekedDelta> {
    let mut staged = Staged::default();
    let mut dec = DeltaDecoder::new(None, bytes, order);
    let (freed_positions, _) = dec.sections(kind, &mut |_| true, &mut staged)?;
    Ok(PeekedDelta {
        freed_positions,
        dirty_positions: staged.entries.into_iter().map(|(pos, _)| pos).collect(),
    })
}

/// Advances a sync list across one delta: drops the freed positions and
/// appends the delta's new objects. Each side calls this with its *own*
/// object ids (the sender's [`EncodedDelta::new_objects`], the
/// receiver's [`AppliedDelta::new_objects`]); because emission and
/// decode order coincide, the two lists stay position-aligned.
///
/// `freed_positions` must be ascending, as an applied delta's are: the
/// drop is a single merge walk.
pub fn next_sync(sync: &[ObjId], freed_positions: &[u32], new_objects: &[ObjId]) -> Vec<ObjId> {
    debug_assert!(
        freed_positions.windows(2).all(|w| w[0] < w[1]),
        "freed positions must be sorted and unique"
    );
    let mut out =
        Vec::with_capacity(sync.len().saturating_sub(freed_positions.len()) + new_objects.len());
    let mut freed = freed_positions.iter().peekable();
    for (i, &id) in sync.iter().enumerate() {
        if freed.next_if(|&&pos| pos as usize == i).is_none() {
            out.push(id);
        }
    }
    out.extend_from_slice(new_objects);
    out
}

/// `positions` sorted and deduplicated: in place when they already are,
/// else through `scratch`.
fn ascending<'a>(positions: &'a [u32], scratch: &'a mut Vec<u32>) -> &'a [u32] {
    if positions.windows(2).all(|w| w[0] < w[1]) {
        return positions;
    }
    scratch.clear();
    scratch.extend_from_slice(positions);
    scratch.sort_unstable();
    scratch.dedup();
    scratch
}

impl Codec {
    /// The one delta encoder: a `kind` delta against `order`, the
    /// encoding side's object order.
    ///
    /// `freed` (requests only) and `dirty` are positions into `order`;
    /// they are sorted and deduplicated here, so the payload always obeys
    /// the one position rule. `roots` (replies and requests) are encoded
    /// after the dirty slots. A reference to an object outside the order
    /// ships that object in full, depth-first, once; later references
    /// point back at it.
    ///
    /// # Errors
    /// [`WireError::BadOldIndex`] for a position outside the order or
    /// both freed and dirty; dangling references (including to a freed
    /// position); non-serializable new objects.
    pub fn encode_delta(
        &mut self,
        kind: DeltaKind,
        heap: &Heap,
        order: &[ObjId],
        freed: &[u32],
        dirty: &[u32],
        roots: &[Value],
    ) -> Result<EncodedDelta> {
        debug_assert!(
            kind.has_freed() || freed.is_empty(),
            "{kind:?} frees nothing"
        );
        debug_assert!(
            kind.has_roots() || roots.is_empty(),
            "{kind:?} has no roots"
        );
        let buf = self.loan_segment();
        let scratch = &mut self.delta;
        let freed = ascending(freed, &mut scratch.freed);
        let dirty = ascending(dirty, &mut scratch.dirty);
        let len = order.len() as u32;
        let bad = freed.iter().chain(dirty).find(|&&pos| pos >= len);
        let bad = bad.or_else(|| dirty.iter().find(|pos| freed.binary_search(pos).is_ok()));
        if let Some(&index) = bad {
            return Err(WireError::BadOldIndex { index, len });
        }

        // Freed objects are not referenceable: a stray reference to one
        // fails as dangling instead of shipping a position the receiver
        // is about to free.
        scratch.old_pos.clear();
        for (pos, &id) in (0..len).zip(order) {
            if freed.binary_search(&pos).is_err() {
                scratch.old_pos.insert(id, pos);
            }
        }
        scratch.new_pos.clear();
        let mut enc = DeltaEncoder {
            heap,
            writer: ByteWriter::with_buffer(buf),
            old_pos: &scratch.old_pos,
            new_pos: &mut scratch.new_pos,
            new_objects: Vec::new(),
        };
        enc.writer.put_slice(&kind.magic());
        enc.writer.put_u8(FORMAT_VERSION);
        enc.writer.put_varint(u64::from(len));
        if kind.has_freed() {
            enc.writer.put_varint(freed.len() as u64);
            for &pos in freed {
                enc.writer.put_varint(u64::from(pos));
            }
        }
        enc.writer.put_varint(dirty.len() as u64);
        for &pos in dirty {
            enc.writer.put_varint(u64::from(pos));
            enc.values(heap.get(order[pos as usize])?.body().slots())?;
        }
        if kind.has_roots() {
            enc.values(roots)?;
        }

        let bytes = enc.writer.into_bytes();
        let stats = DeltaStats {
            order_count: order.len(),
            freed_count: freed.len(),
            dirty_count: dirty.len(),
            new_count: enc.new_objects.len(),
            bytes: bytes.len(),
        };
        Ok(EncodedDelta {
            bytes,
            new_objects: enc.new_objects,
            stats,
        })
    }

    /// [`encode_delta`](Self::encode_delta) of a warm call's request
    /// against `sync`, the sender's synchronized object list.
    ///
    /// # Errors
    /// See [`encode_delta`](Self::encode_delta).
    pub fn encode_request_delta(
        &mut self,
        heap: &Heap,
        sync: &[ObjId],
        freed: &[u32],
        dirty: &[u32],
        roots: &[Value],
    ) -> Result<EncodedDelta> {
        self.encode_delta(DeltaKind::Request, heap, sync, freed, dirty, roots)
    }

    /// The one delta applier: applies a `kind` payload against `order`,
    /// the receiving side's object order. Dirty positions are overwritten
    /// in place where `overwrite(pos)` allows, new objects materialized,
    /// roots decoded, and freed positions' objects freed.
    ///
    /// `overwrite` is the client half of the coherence merge rule: a
    /// pushed patch may race local writes the client has not shipped, and
    /// those positions keep the client's slots. A vetoed entry is still
    /// decoded, and the new objects it references still materialized, so
    /// both sync lists stay position-aligned.
    ///
    /// All or nothing: sections are decoded and every overwrite and free
    /// checked first; on any error the objects the decode materialized
    /// are freed and nothing of the order has been touched.
    ///
    /// # Errors
    /// Malformed payloads: the wrong magic for `kind`, an order length
    /// that is not `order.len()` (the ends are out of step), positions
    /// breaking the one position rule (inside the order, strictly
    /// ascending, dirty disjoint from freed), bad tags or back-references,
    /// slot counts that do not fit their object, or trailing bytes.
    pub fn apply_delta(
        &mut self,
        kind: DeltaKind,
        bytes: &[u8],
        heap: &mut Heap,
        order: &[ObjId],
        overwrite: &mut dyn FnMut(u32) -> bool,
    ) -> Result<AppliedDelta> {
        let staged = &mut self.delta.staged;
        staged.entries.clear();
        staged.slots.clear();
        let mut dec = DeltaDecoder::new(Some(&mut *heap), bytes, order);
        let parsed = dec.sections(kind, overwrite, staged);
        let new_objects = dec.new_objects;
        let (freed_positions, roots) = match parsed {
            Ok(parsed) => parsed,
            Err(e) => {
                for &id in &new_objects {
                    let _ = heap.free(id);
                }
                return Err(e);
            }
        };
        let stats = DeltaStats {
            order_count: order.len(),
            freed_count: freed_positions.len(),
            dirty_count: staged.entries.len(),
            new_count: new_objects.len(),
            bytes: bytes.len(),
        };
        // `sections` checked every overwrite and free against the heap,
        // so nothing below fails on payload input.
        for (pos, range) in staged.entries.drain(..) {
            heap.overwrite_from(order[pos as usize], &staged.slots[range])?;
        }
        staged.slots.clear();
        for &pos in &freed_positions {
            heap.free(order[pos as usize])?;
        }
        Ok(AppliedDelta {
            roots,
            new_objects,
            freed_positions,
            stats,
        })
    }
}

struct DeltaEncoder<'a> {
    heap: &'a Heap,
    writer: ByteWriter,
    old_pos: &'a DensePositionMap,
    new_pos: &'a mut DensePositionMap,
    new_objects: Vec<ObjId>,
}

impl DeltaEncoder<'_> {
    /// A counted run of values.
    fn values(&mut self, values: &[Value]) -> Result<()> {
        self.writer.put_varint(values.len() as u64);
        values.iter().try_for_each(|value| self.value(value))
    }

    fn value(&mut self, value: &Value) -> Result<()> {
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
            Value::Ref(id) => return self.reference(*id),
        }
        Ok(())
    }

    fn reference(&mut self, id: ObjId) -> Result<()> {
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
        // A new object: ship it in full, depth-first. The heap reference
        // is copied out of `self` so the slot borrow stays disjoint from
        // the recursive `&mut self` calls.
        let heap = self.heap;
        let obj = heap.get(id)?;
        let desc = heap.registry_handle().get(obj.class())?;
        if !desc.flags().serializable {
            return Err(WireError::NotSerializable {
                class: desc.name().to_owned(),
            });
        }
        self.new_pos.insert(id, self.new_objects.len() as u32);
        self.new_objects.push(id);
        self.writer.put_u8(DTAG_NEWOBJ);
        self.writer.put_varint(u64::from(obj.class().index()));
        self.values(obj.body().slots())
    }
}

/// Reads one delta. With a heap it materializes new objects as it meets
/// them and keeps the values it decodes (apply); without one it checks
/// the same structure and keeps nothing (peek).
struct DeltaDecoder<'a> {
    heap: Option<&'a mut Heap>,
    reader: ByteReader<'a>,
    order: &'a [ObjId],
    new_objects: Vec<ObjId>,
    new_seen: u32,
}

impl<'a> DeltaDecoder<'a> {
    fn new(heap: Option<&'a mut Heap>, bytes: &'a [u8], order: &'a [ObjId]) -> Self {
        DeltaDecoder {
            heap,
            reader: ByteReader::new(bytes),
            order,
            new_objects: Vec::new(),
            new_seen: 0,
        }
    }

    /// The one header and section parser. Returns the freed positions and
    /// the roots, and stages each dirty entry `overwrite` lets through.
    /// With a heap, it also checks that every staged overwrite and every
    /// free will succeed, so committing them cannot fail halfway.
    fn sections(
        &mut self,
        kind: DeltaKind,
        overwrite: &mut dyn FnMut(u32) -> bool,
        staged: &mut Staged,
    ) -> Result<(Vec<u32>, Vec<Value>)> {
        if self.reader.get_slice(4)? != kind.magic() {
            return Err(WireError::BadMagic);
        }
        let version = self.reader.get_u8()?;
        if version != FORMAT_VERSION {
            return Err(WireError::UnsupportedVersion(version));
        }
        let len = self.order.len() as u32;
        let order_count = self.reader.get_varint_u32()?;
        if order_count != len {
            return Err(WireError::BadOldIndex {
                index: order_count,
                len,
            });
        }
        let mut freed = Vec::new();
        if kind.has_freed() {
            let count = self.reader.get_count()?;
            freed.reserve_exact(count);
            for _ in 0..count {
                let pos = self.position(freed.last().copied(), &[])?;
                freed.push(pos);
            }
        }
        let mut last = None;
        for _ in 0..self.reader.get_count()? {
            let pos = self.position(last, &freed)?;
            last = Some(pos);
            let start = staged.slots.len();
            self.values(&mut staged.slots)?;
            if !overwrite(pos) {
                staged.slots.truncate(start);
                continue;
            }
            if let Some(heap) = self.heap.as_deref() {
                let len = staged.slots.len() - start;
                heap.check_overwrite(self.order[pos as usize], len)?;
            }
            staged.entries.push((pos, start..staged.slots.len()));
        }
        let mut roots = Vec::new();
        if kind.has_roots() {
            self.values(&mut roots)?;
        }
        if !self.reader.is_exhausted() {
            return Err(WireError::TrailingBytes {
                offset: self.reader.position(),
                trailing: self.reader.remaining(),
            });
        }
        if let Some(heap) = self.heap.as_deref() {
            for &pos in &freed {
                heap.get(self.order[pos as usize])?;
            }
        }
        Ok((freed, roots))
    }

    /// One position under the one position rule: inside the order,
    /// strictly above its section's previous position, and not freed.
    fn position(&mut self, last: Option<u32>, freed: &[u32]) -> Result<u32> {
        let index = self.reader.get_varint_u32()?;
        let len = self.order.len() as u32;
        if index >= len || last.is_some_and(|l| index <= l) || freed.binary_search(&index).is_ok() {
            return Err(WireError::BadOldIndex { index, len });
        }
        Ok(index)
    }

    /// A counted run of values, appended to `out` only when decoding into
    /// a heap.
    fn values(&mut self, out: &mut Vec<Value>) -> Result<()> {
        let count = self.reader.get_count()?;
        let keep = self.heap.is_some();
        out.reserve(if keep { count } else { 0 });
        for _ in 0..count {
            let value = self.value()?;
            if keep {
                out.push(value);
            }
        }
        Ok(())
    }

    fn value(&mut self) -> Result<Value> {
        let offset = self.reader.position();
        Ok(match self.reader.get_u8()? {
            TAG_NULL => Value::Null,
            TAG_FALSE => Value::Bool(false),
            TAG_TRUE => Value::Bool(true),
            TAG_INT => Value::Int(self.reader.get_zigzag()? as i32),
            TAG_LONG => Value::Long(self.reader.get_zigzag()?),
            TAG_DOUBLE => Value::Double(self.reader.get_f64()?),
            TAG_STR => Value::Str(self.reader.get_str()?),
            DTAG_OLDREF => {
                let index = self.reader.get_varint_u32()?;
                let len = self.order.len() as u32;
                let id = self.order.get(index as usize);
                Value::Ref(*id.ok_or(WireError::BadOldIndex { index, len })?)
            }
            DTAG_NEWBACK => {
                let position = self.reader.get_varint_u32()?;
                if position >= self.new_seen {
                    return Err(WireError::BadBackRef {
                        position,
                        decoded: self.new_seen,
                    });
                }
                let id = self.new_objects.get(position as usize);
                id.map_or(Value::Null, |&id| Value::Ref(id))
            }
            DTAG_NEWOBJ => self.new_object()?,
            tag => return Err(WireError::UnknownTag { tag, offset }),
        })
    }

    /// A new object shipped in full. It is materialized (or, without a
    /// heap, counted) before its slots are read, so back-references among
    /// them resolve.
    fn new_object(&mut self) -> Result<Value> {
        let class = ClassId::from_index(self.reader.get_varint_u32()?);
        self.new_seen += 1;
        let mut slots = Vec::new();
        let Some(heap) = self.heap.as_deref_mut() else {
            self.values(&mut slots)?;
            return Ok(Value::Null);
        };
        let id = if heap.registry_handle().get(class)?.flags().array {
            heap.alloc_array(class, Vec::new())?
        } else {
            heap.alloc_default(class)?
        };
        self.new_objects.push(id);
        self.values(&mut slots)?;
        if let Some(heap) = self.heap.as_deref_mut() {
            heap.overwrite_slots(id, slots)?;
        }
        Ok(Value::Ref(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{deserialize_graph, serialize_graph};
    use nrmi_heap::copy::deep_copy_between;
    use nrmi_heap::graph::isomorphic;
    use nrmi_heap::traverse::reachable_set;
    use nrmi_heap::tree::{self, TreeClasses};
    use nrmi_heap::{ClassRegistry, HeapAccess, HeapSnapshot, LinearMap};

    const KINDS: [DeltaKind; 3] = [DeltaKind::Reply, DeltaKind::Request, DeltaKind::Patch];

    /// A client and a server over one tree, seeded as a call seeds them:
    /// the client's graph marshalled and unmarshalled onto a fresh server
    /// heap. Both ends hold the same order in their own id spaces; `mark`
    /// is the server's epoch right after unmarshal.
    struct Pair {
        client: Heap,
        server: Heap,
        c_sync: Vec<ObjId>,
        s_sync: Vec<ObjId>,
        classes: TreeClasses,
        mark: u64,
    }

    fn seeded_pair(size: usize, seed: u64) -> Pair {
        let mut reg = ClassRegistry::new();
        let classes = tree::register_tree_classes(&mut reg);
        let mut client = Heap::new(reg.snapshot());
        let root = tree::build_random_tree(&mut client, &classes, size, seed).unwrap();
        let enc = serialize_graph(&client, &[Value::Ref(root)]).unwrap();
        let mut server = Heap::new(client.registry_handle().clone());
        let dec = deserialize_graph(&enc.bytes, &mut server).unwrap();
        let c_sync = LinearMap::build(&client, &[root]).unwrap().order().to_vec();
        Pair {
            mark: server.epoch(),
            client,
            server,
            c_sync,
            s_sync: dec.linear,
            classes,
        }
    }

    /// The server's reply: what it wrote since the mark, with `roots`.
    fn reply(p: &Pair, roots: &[Value]) -> EncodedDelta {
        let dirty = dirty_since(&p.server, &p.s_sync, p.mark).unwrap();
        encode_delta(DeltaKind::Reply, &p.server, &p.s_sync, &[], &dirty, roots).unwrap()
    }

    fn apply_all(
        kind: DeltaKind,
        bytes: &[u8],
        heap: &mut Heap,
        order: &[ObjId],
    ) -> Result<AppliedDelta> {
        apply_delta(kind, bytes, heap, order, &mut |_| true)
    }

    /// A hand-built payload over an order of `len`: `freed` (requests
    /// only), then each dirty entry as its position and raw slot bytes
    /// (count included), then no roots.
    fn hand_built(kind: DeltaKind, len: usize, freed: &[u32], dirty: &[(u32, &[u8])]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_slice(&kind.magic());
        w.put_u8(FORMAT_VERSION);
        w.put_varint(len as u64);
        if kind.has_freed() {
            w.put_varint(freed.len() as u64);
            freed.iter().for_each(|&pos| w.put_varint(u64::from(pos)));
        }
        w.put_varint(dirty.len() as u64);
        for &(pos, slots) in dirty {
            w.put_varint(u64::from(pos));
            w.put_slice(slots);
        }
        if kind.has_roots() {
            w.put_varint(0);
        }
        w.into_bytes()
    }

    /// Three null slots: a well-formed `Tree` entry.
    const NULLS: &[u8] = &[3, TAG_NULL, TAG_NULL, TAG_NULL];

    #[test]
    fn unchanged_graph_produces_near_empty_reply() {
        let mut p = seeded_pair(256, 1);
        let delta = reply(&p, &[]);
        assert_eq!(delta.stats.dirty_count, 0);
        assert_eq!(delta.stats.new_count, 0);
        assert!(
            delta.stats.bytes < 32,
            "no-change delta is {} bytes",
            delta.stats.bytes
        );
        let applied = apply_all(DeltaKind::Reply, &delta.bytes, &mut p.client, &p.c_sync).unwrap();
        assert_eq!(applied.stats.dirty_count, 0);
    }

    #[test]
    fn single_field_change_patches_in_place() {
        let mut p = seeded_pair(64, 2);
        p.server
            .set_field(p.s_sync[0], "data", Value::Int(31337))
            .unwrap();
        let delta = reply(&p, &[]);
        assert_eq!(delta.stats.new_count, 0);
        let applied = apply_all(DeltaKind::Reply, &delta.bytes, &mut p.client, &p.c_sync).unwrap();
        assert_eq!(applied.stats.dirty_count, 1);
        assert_eq!(
            p.client.get_field(p.c_sync[0], "data").unwrap(),
            Value::Int(31337)
        );
    }

    /// Version stamps record writes, not differences: a service write
    /// that stores an object's own old value ships it, and the restore
    /// stays exact against a local twin that ran the same write.
    #[test]
    fn rewriting_an_old_value_ships_and_restores_exactly() {
        let mut p = seeded_pair(32, 7);
        let mut twin = Heap::new(p.client.registry_handle().clone());
        let root = p.c_sync[0];
        let twin_root = deep_copy_between(&p.client, &[root], &mut twin).unwrap()[&root];
        let rewrite = |heap: &mut Heap, r: ObjId| {
            let old = heap.get_field(r, "data").unwrap();
            heap.set_field(r, "data", old).unwrap();
        };
        rewrite(&mut twin, twin_root);
        rewrite(&mut p.server, p.s_sync[0]);
        let delta = reply(&p, &[]);
        assert_eq!(delta.stats.dirty_count, 1, "the write ships");
        apply_all(DeltaKind::Reply, &delta.bytes, &mut p.client, &p.c_sync).unwrap();
        assert!(isomorphic(&p.client, root, &twin, twin_root).unwrap());
    }

    #[test]
    fn running_example_restored_exactly_via_delta() {
        let mut reg = ClassRegistry::new();
        let classes = tree::register_tree_classes(&mut reg);
        let mut client = Heap::new(reg.snapshot());
        let ex = tree::build_running_example(&mut client, &classes).unwrap();
        let enc = serialize_graph(&client, &[Value::Ref(ex.root)]).unwrap();
        let mut server = Heap::new(client.registry_handle().clone());
        let dec = deserialize_graph(&enc.bytes, &mut server).unwrap();
        let mark = server.epoch();
        tree::run_foo(&mut server, dec.roots[0].as_ref_id().unwrap()).unwrap();
        let dirty = dirty_since(&server, &dec.linear, mark).unwrap();
        let delta = encode_delta(DeltaKind::Reply, &server, &dec.linear, &[], &dirty, &[]).unwrap();
        // foo writes t (left/right), t.left (data), t.right (data +
        // right) and t.right.right (data), and allocates one node.
        assert_eq!(delta.stats.dirty_count, 4);
        assert_eq!(delta.stats.new_count, 1);
        let applied = apply_all(DeltaKind::Reply, &delta.bytes, &mut client, &enc.linear).unwrap();
        assert_eq!(applied.new_objects.len(), 1);
        let violations = tree::figure2_violations(&mut client, &ex).unwrap();
        assert!(
            violations.is_empty(),
            "delta restore violated figure 2: {violations:?}"
        );
    }

    #[test]
    fn reply_much_smaller_than_full_reply_for_sparse_changes() {
        let mut p = seeded_pair(512, 3);
        let full = serialize_graph(&p.client, &[Value::Ref(p.c_sync[0])]).unwrap();
        p.server
            .set_field(p.s_sync[0], "data", Value::Int(1))
            .unwrap();
        let delta = reply(&p, &[]);
        assert!(delta.stats.bytes * 10 < full.byte_len());
    }

    #[test]
    fn roots_alias_old_and_new_objects() {
        let mut p = seeded_pair(4, 4);
        let fresh = p
            .server
            .alloc(
                p.classes.tree,
                vec![Value::Int(8), Value::Null, Value::Null],
            )
            .unwrap();
        let roots = [
            Value::Int(5),
            Value::Ref(p.s_sync[0]),
            Value::Ref(fresh),
            Value::Ref(fresh),
        ];
        let delta = reply(&p, &roots);
        assert_eq!(delta.new_objects, vec![fresh]);
        let applied = apply_all(DeltaKind::Reply, &delta.bytes, &mut p.client, &p.c_sync).unwrap();
        let new = Value::Ref(applied.new_objects[0]);
        assert_eq!(
            applied.roots,
            vec![Value::Int(5), Value::Ref(p.c_sync[0]), new.clone(), new]
        );
    }

    /// The three kinds share one splice rule: a new object reached from
    /// two dirty entries ships once, materializes once, keeps its
    /// aliasing, and both ends' next sync lists stay aligned.
    #[test]
    fn shared_new_objects_ship_once_and_sync_lists_stay_aligned() {
        for kind in KINDS {
            let mut p = seeded_pair(8, 3);
            let (from, to, from_sync, to_sync) = match kind {
                DeltaKind::Request => (&mut p.client, &mut p.server, &p.c_sync, &p.s_sync),
                _ => (&mut p.server, &mut p.client, &p.s_sync, &p.c_sync),
            };
            let leaf = from
                .alloc(
                    p.classes.tree,
                    vec![Value::Int(91), Value::Null, Value::Null],
                )
                .unwrap();
            let mid = from
                .alloc(
                    p.classes.tree,
                    vec![Value::Int(90), Value::Ref(leaf), Value::Null],
                )
                .unwrap();
            from.set_field(from_sync[0], "left", Value::Ref(mid))
                .unwrap();
            from.set_field(from_sync[3], "right", Value::Ref(mid))
                .unwrap();
            let roots = if kind == DeltaKind::Patch {
                vec![]
            } else {
                vec![Value::Ref(from_sync[0])]
            };
            let enc = encode_delta(kind, from, from_sync, &[], &[3, 0, 3], &roots).unwrap();
            assert_eq!(
                (enc.stats.dirty_count, enc.stats.new_count),
                (2, 2),
                "{kind:?}"
            );
            let applied = apply_all(kind, &enc.bytes, to, to_sync).unwrap();
            assert_eq!(applied.new_objects.len(), 2, "{kind:?}");
            let a = to.get_ref(to_sync[0], "left").unwrap();
            assert_eq!(
                a,
                to.get_ref(to_sync[3], "right").unwrap(),
                "{kind:?} aliasing"
            );
            let from_next = next_sync(from_sync, &[], &enc.new_objects);
            let to_next = next_sync(to_sync, &applied.freed_positions, &applied.new_objects);
            assert_eq!(from_next.len(), to_next.len());
            for (&f, &t) in from_next.iter().zip(&to_next) {
                assert_eq!(
                    from.get_field(f, "data").unwrap(),
                    to.get_field(t, "data").unwrap()
                );
            }
        }
    }

    #[test]
    fn clean_request_ships_roots_only() {
        let mut p = seeded_pair(128, 1);
        let roots = [Value::Ref(p.c_sync[0])];
        let enc = encode_delta(DeltaKind::Request, &p.client, &p.c_sync, &[], &[], &roots).unwrap();
        assert!(
            enc.stats.bytes < 32,
            "clean request delta is {} bytes",
            enc.stats.bytes
        );
        let applied = apply_request_delta(&enc.bytes, &mut p.server, &p.s_sync).unwrap();
        assert_eq!(applied.roots, vec![Value::Ref(p.s_sync[0])]);
        assert_eq!(applied.stats.dirty_count, 0);
    }

    #[test]
    fn freed_positions_free_the_receivers_copies() {
        let mut p = seeded_pair(8, 4);
        let victim = p.client.get_ref(p.c_sync[0], "right").unwrap().unwrap();
        let gone = reachable_set(&p.client, &[victim]).unwrap();
        let freed: Vec<u32> = (0..p.c_sync.len() as u32)
            .filter(|&i| gone.contains(p.c_sync[i as usize]))
            .collect();
        p.client
            .set_field(p.c_sync[0], "right", Value::Null)
            .unwrap();
        for &pos in &freed {
            p.client.free(p.c_sync[pos as usize]).unwrap();
        }
        let roots = [Value::Ref(p.c_sync[0])];
        let enc = encode_delta(
            DeltaKind::Request,
            &p.client,
            &p.c_sync,
            &freed,
            &[0],
            &roots,
        )
        .unwrap();
        let applied = apply_request_delta(&enc.bytes, &mut p.server, &p.s_sync).unwrap();
        assert_eq!(applied.freed_positions, freed);
        for &pos in &freed {
            assert!(
                !p.server.contains(p.s_sync[pos as usize]),
                "server copy freed"
            );
        }
        assert!(p.server.contains(p.s_sync[0]));
    }

    /// Honest inputs in any order and with repeats encode like their
    /// sorted, deduplicated selves.
    #[test]
    fn encoder_normalizes_positions() {
        let mut p = seeded_pair(16, 2);
        p.client
            .set_field(p.c_sync[3], "data", Value::Int(3))
            .unwrap();
        p.client
            .set_field(p.c_sync[9], "data", Value::Int(9))
            .unwrap();
        let enc = |freed: &[u32], dirty: &[u32]| {
            encode_delta(DeltaKind::Request, &p.client, &p.c_sync, freed, dirty, &[])
                .unwrap()
                .bytes
        };
        assert_eq!(enc(&[12, 11, 12], &[9, 3, 9]), enc(&[11, 12], &[3, 9]));
        assert!(matches!(
            encode_delta(DeltaKind::Request, &p.client, &p.c_sync, &[2], &[2], &[]),
            Err(WireError::BadOldIndex { .. })
        ));
        assert!(matches!(
            encode_delta(DeltaKind::Patch, &p.client, &p.c_sync, &[], &[99], &[]),
            Err(WireError::BadOldIndex { .. })
        ));
    }

    #[test]
    fn veto_skips_positions_but_keeps_sync_lists_aligned() {
        let mut p = seeded_pair(8, 14);
        let tree = p.classes.tree;
        let fresh = p
            .server
            .alloc(tree, vec![Value::Int(5), Value::Null, Value::Null])
            .unwrap();
        p.server
            .set_field(p.s_sync[0], "data", Value::Int(41))
            .unwrap();
        p.server
            .set_field(p.s_sync[0], "left", Value::Ref(fresh))
            .unwrap();
        p.server
            .set_field(p.s_sync[3], "data", Value::Int(43))
            .unwrap();
        let patch =
            encode_delta(DeltaKind::Patch, &p.server, &p.s_sync, &[], &[0, 3], &[]).unwrap();
        // The client's own unshipped write at position 0 wins.
        p.client
            .set_field(p.c_sync[0], "data", Value::Int(7))
            .unwrap();
        let applied = apply_delta(
            DeltaKind::Patch,
            &patch.bytes,
            &mut p.client,
            &p.c_sync,
            &mut |pos| pos != 0,
        )
        .unwrap();
        assert_eq!(applied.stats.dirty_count, 1);
        assert_eq!(
            applied.new_objects.len(),
            1,
            "vetoed entries still materialize"
        );
        assert_eq!(
            p.client.get_field(p.c_sync[0], "data").unwrap(),
            Value::Int(7)
        );
        assert_eq!(
            p.client.get_field(p.c_sync[3], "data").unwrap(),
            Value::Int(43)
        );
    }

    #[test]
    fn patch_encode_rejects_dangling_sync_objects() {
        // A peer freed part of the shared graph: the encoder errors (the
        // serve loop then answers CacheMiss) rather than ship garbage.
        let mut p = seeded_pair(8, 14);
        p.server.free(p.s_sync[7]).unwrap();
        let dirty: Vec<u32> = (0..p.s_sync.len() as u32).collect();
        assert!(encode_delta(DeltaKind::Patch, &p.server, &p.s_sync, &[], &dirty, &[]).is_err());
    }

    #[test]
    fn peek_reads_positions_without_a_heap() {
        let mut p = seeded_pair(8, 11);
        let fresh = p
            .client
            .alloc(
                p.classes.tree,
                vec![Value::Int(55), Value::Null, Value::Null],
            )
            .unwrap();
        p.client
            .set_field(p.c_sync[0], "left", Value::Ref(fresh))
            .unwrap();
        let roots = [Value::Ref(p.c_sync[0]), Value::Ref(fresh)];
        let enc = encode_delta(
            DeltaKind::Request,
            &p.client,
            &p.c_sync,
            &[5, 2],
            &[0],
            &roots,
        )
        .unwrap();
        let peeked = peek_delta(DeltaKind::Request, &enc.bytes, &p.s_sync).unwrap();
        assert_eq!(peeked.freed_positions, vec![2, 5]);
        assert_eq!(peeked.dirty_positions, vec![0]);
        assert!(peeked.touches(0) && peeked.touches(2) && !peeked.touches(1));
        let clean = encode_delta(DeltaKind::Request, &p.client, &p.c_sync, &[], &[], &[]).unwrap();
        assert_eq!(
            peek_delta(DeltaKind::Request, &clean.bytes, &p.s_sync).unwrap(),
            PeekedDelta::default()
        );
    }

    /// The one hostile-payload suite, for every kind through the one
    /// applier and `peek_delta`: each payload errors (with the error
    /// named), never panics, and leaves the receiver's heap exactly as it
    /// was.
    #[test]
    fn hostile_payloads_error_cleanly_and_leave_the_heap_untouched() {
        let mut p = seeded_pair(6, 6);
        let (heap, order, len) = (&mut p.client, &p.c_sync, p.c_sync.len());
        let before = HeapSnapshot::capture(heap);
        for kind in KINDS {
            let case = |what, freed: &[u32], dirty: &[(u32, &[u8])]| {
                (what, hand_built(kind, len, freed, dirty))
            };
            let mut cases = vec![
                ("order count", hand_built(kind, len + 1, &[], &[])),
                (
                    "wrong magic",
                    hand_built(KINDS[(kind as usize + 1) % 3], len, &[], &[]),
                ),
                case("dirty out of range", &[], &[(99, NULLS)]),
                case("duplicate dirty", &[], &[(1, NULLS), (1, NULLS)]),
                case("descending dirty", &[], &[(2, NULLS), (1, NULLS)]),
            ];
            if kind.has_freed() {
                cases.push(case("duplicate freed", &[1, 1], &[]));
                cases.push(case("descending freed", &[2, 1], &[]));
                cases.push(case("freed out of range", &[99], &[]));
                cases.push(case("dirty names freed", &[2], &[(2, NULLS)]));
            }
            let (_, mut trailing) = case("trailing", &[], &[(1, NULLS)]);
            trailing.push(0);
            cases.push(("trailing", trailing));
            let (_, valid) = case("valid", &[0], &[(1, NULLS), (4, NULLS)]);
            cases.extend((0..valid.len()).map(|cut| ("truncated", valid[..cut].to_vec())));
            for (what, bytes) in cases {
                let err = apply_all(kind, &bytes, heap, order).unwrap_err();
                let named = match what {
                    "wrong magic" => err == WireError::BadMagic,
                    "trailing" => matches!(err, WireError::TrailingBytes { .. }),
                    "truncated" => true,
                    _ => matches!(err, WireError::BadOldIndex { .. }),
                };
                assert!(named, "{kind:?} {what}: {err:?}");
                assert!(peek_delta(kind, &bytes, order).is_err(), "{kind:?} {what}");
                let diff = before.diff(&HeapSnapshot::capture(heap));
                assert!(diff.is_empty(), "{kind:?} {what}: {diff:?}");
            }
        }
    }

    /// The transactional-apply regression, mirroring the full restore's:
    /// entry 0 is valid and carries real changes (a write and a spliced
    /// new object), entry k=1 does not fit its object. The heap must end
    /// byte-identical — no half-applied entry, no leaked new object, no
    /// freed position gone.
    #[test]
    fn corrupt_entry_at_position_k_leaves_heap_byte_identical() {
        let mut p = seeded_pair(6, 9);
        let mut valid = ByteWriter::new();
        valid.put_varint(3);
        valid.put_u8(TAG_INT);
        valid.put_zigzag(777);
        valid.put_u8(DTAG_NEWOBJ);
        valid.put_varint(u64::from(p.classes.tree.index()));
        valid.put_slice(NULLS);
        valid.put_u8(TAG_NULL);
        let valid = valid.into_bytes();
        let misfit: &[u8] = &[2, TAG_NULL, TAG_NULL];
        for kind in KINDS {
            let bytes = hand_built(kind, p.c_sync.len(), &[5], &[(0, &valid), (1, misfit)]);
            let before = HeapSnapshot::capture(&p.client);
            let live = p.client.live_count();
            assert!(
                apply_all(kind, &bytes, &mut p.client, &p.c_sync).is_err(),
                "{kind:?}"
            );
            let diff = before.diff(&HeapSnapshot::capture(&p.client));
            assert!(diff.is_empty(), "{kind:?} must be all-or-nothing: {diff:?}");
            assert_eq!(p.client.live_count(), live, "{kind:?}");
            // The same payload without the misfit applies.
            let bytes = hand_built(kind, p.c_sync.len(), &[5], &[(0, &valid)]);
            let applied = apply_all(kind, &bytes, &mut p.server, &p.s_sync).unwrap();
            assert_eq!(
                p.server.get_field(p.s_sync[0], "data").unwrap(),
                Value::Int(777)
            );
            assert_eq!(applied.new_objects.len(), 1);
            p = seeded_pair(6, 9);
        }
    }

    #[test]
    fn next_sync_drops_and_appends() {
        let ids: Vec<ObjId> = (0..5).map(ObjId::from_index).collect();
        let out = next_sync(&ids, &[1, 3], &[ObjId::from_index(9)]);
        let want: Vec<ObjId> = [0, 2, 4, 9].into_iter().map(ObjId::from_index).collect();
        assert_eq!(out, want);
    }
}
