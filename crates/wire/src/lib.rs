//! # nrmi-wire — alias-preserving graph serialization
//!
//! The stand-in for Java Serialization in this reproduction. NRMI taps
//! into the serialization traversal to obtain its linear map "almost for
//! free" (§5.2.1 of the paper); this crate does the same: the
//! [`Serializer`] walks the object graph in the exact
//! deterministic order of [`nrmi_heap::LinearMap`], emitting every object
//! once and encoding repeated visits as back-references, so **sharing and
//! cycles survive the wire**. The [`Deserializer`]
//! reconstructs the graph *and the linear map in the same pass* — the
//! paper's first optimization (§5.2.4): the map is never transmitted.
//!
//! The [`delta`] module implements the paper's second optimization
//! (described as future work in §5.2.4): the reply encodes only the
//! difference between the pre-call and post-call states, so passing an
//! object by copy-restore without changing it costs roughly the same as
//! passing it by copy. The same positional delta carries warm calls'
//! requests and coherence patches.
//!
//! ## Example: round-tripping an aliased graph
//!
//! ```
//! use nrmi_heap::{ClassRegistry, Heap, HeapAccess, Value};
//! use nrmi_wire::{deserialize_graph, serialize_graph};
//!
//! # fn main() -> Result<(), nrmi_wire::WireError> {
//! let mut reg = ClassRegistry::new();
//! let pair = reg.define("Pair").field_ref("a").field_ref("b").serializable().register();
//! let mut heap = Heap::new(reg.snapshot());
//! let shared = heap.alloc_default(pair)?;
//! let root = heap.alloc(pair, vec![Value::Ref(shared), Value::Ref(shared)])?;
//!
//! let msg = serialize_graph(&heap, &[Value::Ref(root)])?;
//! let mut heap2 = Heap::new(heap.registry_handle().clone());
//! let decoded = deserialize_graph(&msg.bytes, &mut heap2)?;
//! let root2 = decoded.roots[0].as_ref_id().unwrap();
//! let a = heap2.get_ref(root2, "a")?.unwrap();
//! let b = heap2.get_ref(root2, "b")?.unwrap();
//! assert_eq!(a, b, "aliasing preserved across the wire");
//! # Ok(())
//! # }
//! ```

//! ## Wire format specification
//!
//! A **graph payload** (requests and full replies) is:
//!
//! ```text
//! "NRMI" u8:version varint:root_count root_count × value
//!
//! value :=
//!   0x00                        null
//!   0x01 / 0x02                 false / true
//!   0x03 zigzag                 int (32-bit)
//!   0x04 zigzag                 long (64-bit)
//!   0x05 f64le                  double
//!   0x06 varint:len bytes       string (also enters the intern table)
//!   0x0D varint:index           interned-string reference
//!   0x07 varint:class           object, followed by
//!        varint:old_index+1|0   (its position in the request's linear
//!                                map, or 0 for objects the callee
//!                                allocated — restore step 4's matching)
//!        varint:slot_count
//!        slot_count × value
//!   0x08 varint:position        back-reference to the position-th
//!                               object of THIS payload (sharing/cycles)
//!   0x09 u8:owned_by_sender     remote reference (stub), export key
//!        varint:key             in the owner's table
//! ```
//!
//! Objects appear in deterministic preorder, so the sequence of `0x07`
//! records *is* the linear map.
//!
//! A **delta payload** is relative to an object order both ends already
//! share — a call's linear map, or a warm session's sync list — and says
//! which of its positions were freed and written, which objects are new,
//! and what the roots are (see [`delta`]). One grammar serves three
//! magics:
//!
//! ```text
//! magic u8:version varint:order_count
//!   [varint:freed_count freed_count × varint:position]   freed  (NRMQ)
//!   varint:dirty_count dirty_count × (varint:position slots)
//!   [slots]                                               roots  (NRMD, NRMQ)
//!
//! slots := varint:count count × dvalue
//!
//! dvalue :=
//!   0x00 … 0x06                 null, false/true, int, long, double,
//!                               string: as above, strings not interned
//!   0x0A varint:position        OLDREF: the position-th object of the order
//!   0x0B varint:class slots     NEWOBJ: a new object, in full, depth-first
//!   0x0C varint:n               NEWBACK: the n-th NEWOBJ of this payload
//! ```
//!
//! | magic | kind | carries | freed | dirty | roots |
//! |---|---|---|---|---|---|
//! | `NRMD` | reply | what a call wrote, server → client | – | ✓ | ✓ |
//! | `NRMQ` | request | a warm call's request, client → server | ✓ | ✓ | ✓ |
//! | `NRMV` | patch | a coherence repair, server → client | – | ✓ | – |
//!
//! `order_count` must equal the receiver's order length. One position
//! rule holds in every kind: a section's positions are inside the order
//! and strictly ascending, and no dirty position is freed.
//!
//! All varints are LEB128; counts are validated against the remaining
//! payload before any allocation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod io;

pub mod codec;
pub mod de;
pub mod delta;
pub mod dump;
pub mod ser;

pub use codec::Codec;
pub use de::{deserialize_graph, deserialize_graph_with, DecodedGraph, Deserializer};
pub use delta::{
    apply_delta, apply_request_delta, dirty_since, encode_delta, next_sync, peek_delta,
    AppliedDelta, DeltaKind, DeltaStats, EncodedDelta, PeekedDelta,
};
pub use dump::{dump_graph, DumpStats, GraphDump};
pub use error::WireError;
pub use io::{ByteReader, ByteWriter};
pub use ser::{serialize_graph, serialize_graph_with, EncodedGraph, RemoteHooks, Serializer};

/// Result alias for wire operations.
pub type Result<T> = std::result::Result<T, WireError>;

/// Wire format version byte; bumped on breaking format changes.
pub const FORMAT_VERSION: u8 = 1;

/// Magic prefix identifying an NRMI graph payload.
pub const MAGIC: [u8; 4] = *b"NRMI";
