//! Protocol frames and their codec.
//!
//! One frame type covers the whole NRMI protocol:
//!
//! * `CallRequest`/`CallReply` carry marshalled object graphs (opaque
//!   payloads produced by `nrmi-wire`);
//! * the callback frames (`GetField`, `SetField`, …) implement
//!   call-by-reference through remote pointers — the paper's Figure 3
//!   world, where *every pointer dereference generates network traffic*;
//! * `DgcClean` is the distributed-GC release message (RMI's
//!   `clean` call), whose reference-counting nature is why remote-pointer
//!   cycles leak (Table 6 discussion);
//! * `Lookup` is the registry query (`Naming.lookup`).
//!
//! Frames are encoded with the same varint primitives as the graph wire
//! format, so byte accounting in the simulated network is consistent.

use nrmi_wire::{ByteReader, ByteWriter};

use crate::{Result, TransportError};

/// A scalar-or-remote value, the currency of the remote-pointer callback
/// protocol. Unlike a marshalled graph, an `RVal` never embeds object
/// *contents* — references travel as `(owner, key)` stubs, which is
/// exactly what makes call-by-reference slow and call-by-copy-restore
/// interesting.
#[derive(Clone, Debug, PartialEq)]
pub enum RVal {
    /// Null reference.
    Null,
    /// Boolean.
    Bool(bool),
    /// 32-bit integer.
    Int(i32),
    /// 64-bit integer.
    Long(i64),
    /// 64-bit float.
    Double(f64),
    /// Immutable string.
    Str(String),
    /// A remote reference: `owned_by_sender` is true when the sending
    /// node owns the object, false when the key names an object in the
    /// *receiver's* export table.
    Remote {
        /// Ownership direction, relative to the frame's sender.
        owned_by_sender: bool,
        /// Export-table key at the owning node.
        key: u64,
    },
}

const RV_NULL: u8 = 0;
const RV_FALSE: u8 = 1;
const RV_TRUE: u8 = 2;
const RV_INT: u8 = 3;
const RV_LONG: u8 = 4;
const RV_DOUBLE: u8 = 5;
const RV_STR: u8 = 6;
const RV_REMOTE_MINE: u8 = 7;
const RV_REMOTE_YOURS: u8 = 8;

impl RVal {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            RVal::Null => w.put_u8(RV_NULL),
            RVal::Bool(false) => w.put_u8(RV_FALSE),
            RVal::Bool(true) => w.put_u8(RV_TRUE),
            RVal::Int(i) => {
                w.put_u8(RV_INT);
                w.put_zigzag(i64::from(*i));
            }
            RVal::Long(i) => {
                w.put_u8(RV_LONG);
                w.put_zigzag(*i);
            }
            RVal::Double(d) => {
                w.put_u8(RV_DOUBLE);
                w.put_f64(*d);
            }
            RVal::Str(s) => {
                w.put_u8(RV_STR);
                w.put_str(s);
            }
            RVal::Remote {
                owned_by_sender,
                key,
            } => {
                w.put_u8(if *owned_by_sender {
                    RV_REMOTE_MINE
                } else {
                    RV_REMOTE_YOURS
                });
                w.put_varint(*key);
            }
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        let tag = r.get_u8().map_err(TransportError::Codec)?;
        Ok(match tag {
            RV_NULL => RVal::Null,
            RV_FALSE => RVal::Bool(false),
            RV_TRUE => RVal::Bool(true),
            RV_INT => RVal::Int(r.get_zigzag().map_err(TransportError::Codec)? as i32),
            RV_LONG => RVal::Long(r.get_zigzag().map_err(TransportError::Codec)?),
            RV_DOUBLE => RVal::Double(r.get_f64().map_err(TransportError::Codec)?),
            RV_STR => RVal::Str(r.get_str().map_err(TransportError::Codec)?),
            RV_REMOTE_MINE => RVal::Remote {
                owned_by_sender: true,
                key: r.get_varint().map_err(TransportError::Codec)?,
            },
            RV_REMOTE_YOURS => RVal::Remote {
                owned_by_sender: false,
                key: r.get_varint().map_err(TransportError::Codec)?,
            },
            other => return Err(TransportError::UnknownFrame(other)),
        })
    }

    /// Flips the ownership direction of a remote reference, which is how
    /// an `RVal` is reinterpreted after crossing the link (the sender's
    /// "mine" is the receiver's "yours"). Scalars are unchanged.
    pub fn flipped(self) -> Self {
        match self {
            RVal::Remote {
                owned_by_sender,
                key,
            } => RVal::Remote {
                owned_by_sender: !owned_by_sender,
                key,
            },
            other => other,
        }
    }
}

/// Encodes a list of [`RVal`]s as a payload (used by remote-reference
/// call requests and replies, where arguments travel as handles).
pub fn encode_rvals(values: &[RVal]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_varint(values.len() as u64);
    for v in values {
        v.encode(&mut w);
    }
    w.into_bytes()
}

/// Decodes a payload produced by [`encode_rvals`].
///
/// # Errors
/// Fails on truncated or malformed payloads.
pub fn decode_rvals(bytes: &[u8]) -> Result<Vec<RVal>> {
    let mut r = ByteReader::new(bytes);
    let count = r.get_count().map_err(TransportError::Codec)?;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(RVal::decode(&mut r)?);
    }
    Ok(out)
}

/// A protocol message.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum Frame {
    /// Invoke `method` on the named service. `mode` is the calling
    /// semantics discriminant (defined by `nrmi-core`); `payload` is the
    /// marshalled argument graph (copy modes) or encoded remote handles
    /// (remote-reference mode).
    CallRequest {
        /// Registered service name.
        service: String,
        /// Method name.
        method: String,
        /// Calling-semantics discriminant (opaque at this layer).
        mode: u8,
        /// Marshalled arguments.
        payload: Vec<u8>,
    },
    /// Invoke `method` on an EXPORTED OBJECT (a first-class remote
    /// object, RMI's `UnicastRemoteObject` dispatch): `key` names the
    /// receiver in the callee's export table.
    CallObject {
        /// Export key of the receiver at the server.
        key: u64,
        /// Method name.
        method: String,
        /// Calling-semantics discriminant (opaque at this layer).
        mode: u8,
        /// Marshalled arguments.
        payload: Vec<u8>,
    },
    /// Successful completion; `payload` is the marshalled reply.
    CallReply {
        /// Marshalled reply (return value and/or restore graph).
        payload: Vec<u8>,
    },
    /// The call failed; carries the remote exception message.
    CallError {
        /// Human-readable failure description.
        message: String,
    },
    /// Registry query: does `name` resolve to a service?
    Lookup {
        /// Service name.
        name: String,
    },
    /// Registry answer.
    LookupReply {
        /// Whether the service exists.
        found: bool,
    },
    /// Remote-pointer callback: read field `field` of exported object `key`.
    GetField {
        /// Export key at the receiver.
        key: u64,
        /// Field index.
        field: u32,
    },
    /// Remote-pointer callback: write field `field` of exported object `key`.
    SetField {
        /// Export key at the receiver.
        key: u64,
        /// Field index.
        field: u32,
        /// New value.
        value: RVal,
    },
    /// Remote-pointer callback: read array element.
    GetElement {
        /// Export key at the receiver.
        key: u64,
        /// Element index.
        index: u32,
    },
    /// Remote-pointer callback: write array element.
    SetElement {
        /// Export key at the receiver.
        key: u64,
        /// Element index.
        index: u32,
        /// New value.
        value: RVal,
    },
    /// Remote-pointer callback: number of slots of exported object `key`.
    SlotCount {
        /// Export key at the receiver.
        key: u64,
    },
    /// Remote-pointer callback: class of exported object `key`.
    ClassOf {
        /// Export key at the receiver.
        key: u64,
    },
    /// Reply carrying a single value.
    ValueReply(RVal),
    /// Reply carrying a count.
    CountReply(u64),
    /// Reply carrying a class id.
    ClassReply(u32),
    /// A callback failed at the owner; carries the error message.
    ErrorReply {
        /// Human-readable failure description.
        message: String,
    },
    /// Distributed GC: the sender dropped its last stub for `key` in the
    /// receiver's export table (RMI DGC `clean`).
    DgcClean {
        /// Export key at the receiver.
        key: u64,
    },
    /// Generic acknowledgement.
    Ack,
    /// Orderly shutdown of the serving loop.
    Shutdown,
    /// Warm-session call: like `CallRequest`, but relative to a cached
    /// argument graph. `cache_id` names the session cache (allocated by
    /// the client); `generation` counts completed calls through it.
    /// Generation 0 seeds the cache (`payload` is a full graph),
    /// generation ≥ 1 ships a request delta against the cached state.
    CallRequestWarm {
        /// Registered service name.
        service: String,
        /// Method name.
        method: String,
        /// Calling-semantics discriminant (opaque at this layer).
        mode: u8,
        /// Client-allocated cache identifier.
        cache_id: u64,
        /// Expected cache generation (0 = seed).
        generation: u64,
        /// Full graph (seed) or request delta (warm).
        payload: Vec<u8>,
    },
    /// The server has no cache matching the request's `(cache_id,
    /// generation)` — evicted, never seeded, or invalidated by an
    /// out-of-band mutation. The client must fall back to a cold call.
    CacheMiss,
    /// Client-initiated release of a warm-session cache (fire-and-forget,
    /// like `DgcClean`): the server frees the cached graph.
    CacheEvict {
        /// Cache identifier to drop.
        cache_id: u64,
    },
    /// Reliability envelope around a call frame: `(nonce, seq)` is the
    /// call id — `nonce` identifies the client session (random per
    /// session), `seq` the call within it (monotone). The server
    /// executes the inner call *at most once* per id; a retransmission
    /// of an already-executed id is answered from the reply cache.
    /// Envelopes never nest.
    Tagged {
        /// Per-session random identifier.
        nonce: u64,
        /// Monotone per-session call sequence number.
        seq: u64,
        /// The call frame being stamped (`CallRequest`, `CallObject`,
        /// or `CallRequestWarm`).
        frame: Box<Frame>,
    },
    /// A reply served from the server's duplicate-suppression cache:
    /// the call identified by `(nonce, seq)` already executed and this
    /// is its recorded reply — the call's effect was NOT applied again.
    ReplyCached {
        /// Per-session random identifier, echoed from the request.
        nonce: u64,
        /// Call sequence number, echoed from the request.
        seq: u64,
        /// The recorded reply frame.
        frame: Box<Frame>,
    },
    /// Targeted invalidation of a warm-session cache: another client's
    /// call (or another call on this connection) mutated objects this
    /// cache covers. Unlike `CacheMiss` — which retires the session and
    /// forces a full cold reseed — the payload is an invalidation patch
    /// (`nrmi-wire`'s NRMV format) that repairs only the dirty subgraph;
    /// the client applies it and re-issues the warm call. `version` is
    /// the entry's monotone revalidation counter, which makes a pushed
    /// copy of the same invalidation idempotent.
    CacheStale {
        /// Cache identifier the patch applies to.
        cache_id: u64,
        /// Monotone per-entry revalidation counter (deduplicates a
        /// pushed delta racing the reply-path copy).
        version: u64,
        /// Invalidation patch for the dirty subgraph.
        payload: Vec<u8>,
    },
}

const F_CALL_REQUEST: u8 = 1;
const F_CALL_REPLY: u8 = 2;
const F_CALL_ERROR: u8 = 3;
const F_LOOKUP: u8 = 4;
const F_LOOKUP_REPLY: u8 = 5;
const F_GET_FIELD: u8 = 6;
const F_SET_FIELD: u8 = 7;
const F_GET_ELEMENT: u8 = 8;
const F_SET_ELEMENT: u8 = 9;
const F_SLOT_COUNT: u8 = 10;
const F_CLASS_OF: u8 = 11;
const F_VALUE_REPLY: u8 = 12;
const F_COUNT_REPLY: u8 = 13;
const F_CLASS_REPLY: u8 = 14;
const F_ERROR_REPLY: u8 = 15;
const F_DGC_CLEAN: u8 = 16;
const F_ACK: u8 = 17;
const F_SHUTDOWN: u8 = 18;
const F_CALL_OBJECT: u8 = 19;
const F_CALL_REQUEST_WARM: u8 = 20;
const F_CACHE_MISS: u8 = 21;
const F_CACHE_EVICT: u8 = 22;
const F_TAGGED: u8 = 23;
const F_REPLY_CACHED: u8 = 24;
const F_CACHE_STALE: u8 = 25;

impl Frame {
    /// Encodes the frame to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.encode_into(&mut w);
        w.into_bytes()
    }

    /// Encodes the frame into `w`, appended after whatever `w` already
    /// holds: the prefix ([`Frame::encode_prefix_into`]) followed by the
    /// payload bytes, copied in.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        if let Some(payload) = self.encode_prefix_into(w) {
            w.put_slice(payload);
        }
    }

    /// Encodes everything *except* the trailing payload bytes into `w` —
    /// the tag, the header fields, and the payload's varint length — and
    /// returns the payload slice to be shipped as its own iovec. Every
    /// payload-carrying frame writes its payload as the final field, so
    /// the written prefix concatenated with the returned slice is the
    /// frame's complete encoding. `None` means the frame has no payload
    /// tail and the prefix *is* the complete encoding.
    ///
    /// This is the one place a frame's byte layout is written: the
    /// socket transports hand the returned payload to `writev` in place
    /// (large graph and delta payloads stay in their pooled codec
    /// segments), and [`Frame::encode_into`] copies it after the prefix.
    pub fn encode_prefix_into<'a>(&'a self, w: &mut ByteWriter) -> Option<&'a [u8]> {
        match self {
            Frame::CallRequest {
                service,
                method,
                mode,
                payload,
            } => {
                w.put_u8(F_CALL_REQUEST);
                w.put_str(service);
                w.put_str(method);
                w.put_u8(*mode);
                w.put_varint(payload.len() as u64);
                return Some(payload);
            }
            Frame::CallObject {
                key,
                method,
                mode,
                payload,
            } => {
                w.put_u8(F_CALL_OBJECT);
                w.put_varint(*key);
                w.put_str(method);
                w.put_u8(*mode);
                w.put_varint(payload.len() as u64);
                return Some(payload);
            }
            Frame::CallReply { payload } => {
                w.put_u8(F_CALL_REPLY);
                w.put_varint(payload.len() as u64);
                return Some(payload);
            }
            Frame::CallRequestWarm {
                service,
                method,
                mode,
                cache_id,
                generation,
                payload,
            } => {
                w.put_u8(F_CALL_REQUEST_WARM);
                w.put_str(service);
                w.put_str(method);
                w.put_u8(*mode);
                w.put_varint(*cache_id);
                w.put_varint(*generation);
                w.put_varint(payload.len() as u64);
                return Some(payload);
            }
            Frame::CacheStale {
                cache_id,
                version,
                payload,
            } => {
                w.put_u8(F_CACHE_STALE);
                w.put_varint(*cache_id);
                w.put_varint(*version);
                w.put_varint(payload.len() as u64);
                return Some(payload);
            }
            Frame::Tagged { nonce, seq, frame } => {
                w.put_u8(F_TAGGED);
                w.put_varint(*nonce);
                w.put_varint(*seq);
                return frame.encode_prefix_into(w);
            }
            Frame::ReplyCached { nonce, seq, frame } => {
                w.put_u8(F_REPLY_CACHED);
                w.put_varint(*nonce);
                w.put_varint(*seq);
                return frame.encode_prefix_into(w);
            }
            Frame::CallError { message } => {
                w.put_u8(F_CALL_ERROR);
                w.put_str(message);
            }
            Frame::Lookup { name } => {
                w.put_u8(F_LOOKUP);
                w.put_str(name);
            }
            Frame::LookupReply { found } => {
                w.put_u8(F_LOOKUP_REPLY);
                w.put_u8(u8::from(*found));
            }
            Frame::GetField { key, field } => {
                w.put_u8(F_GET_FIELD);
                w.put_varint(*key);
                w.put_varint(u64::from(*field));
            }
            Frame::SetField { key, field, value } => {
                w.put_u8(F_SET_FIELD);
                w.put_varint(*key);
                w.put_varint(u64::from(*field));
                value.encode(w);
            }
            Frame::GetElement { key, index } => {
                w.put_u8(F_GET_ELEMENT);
                w.put_varint(*key);
                w.put_varint(u64::from(*index));
            }
            Frame::SetElement { key, index, value } => {
                w.put_u8(F_SET_ELEMENT);
                w.put_varint(*key);
                w.put_varint(u64::from(*index));
                value.encode(w);
            }
            Frame::SlotCount { key } => {
                w.put_u8(F_SLOT_COUNT);
                w.put_varint(*key);
            }
            Frame::ClassOf { key } => {
                w.put_u8(F_CLASS_OF);
                w.put_varint(*key);
            }
            Frame::ValueReply(v) => {
                w.put_u8(F_VALUE_REPLY);
                v.encode(w);
            }
            Frame::CountReply(n) => {
                w.put_u8(F_COUNT_REPLY);
                w.put_varint(*n);
            }
            Frame::ClassReply(c) => {
                w.put_u8(F_CLASS_REPLY);
                w.put_varint(u64::from(*c));
            }
            Frame::ErrorReply { message } => {
                w.put_u8(F_ERROR_REPLY);
                w.put_str(message);
            }
            Frame::DgcClean { key } => {
                w.put_u8(F_DGC_CLEAN);
                w.put_varint(*key);
            }
            Frame::Ack => w.put_u8(F_ACK),
            Frame::Shutdown => w.put_u8(F_SHUTDOWN),
            Frame::CacheMiss => w.put_u8(F_CACHE_MISS),
            Frame::CacheEvict { cache_id } => {
                w.put_u8(F_CACHE_EVICT);
                w.put_varint(*cache_id);
            }
        }
        None
    }

    /// Length of the frame's trailing payload (zero when it has none):
    /// the bytes a contiguous encode memmoves into the frame body and
    /// the vectored path references in place.
    pub fn payload_len(&self) -> usize {
        match self {
            Frame::CallRequest { payload, .. }
            | Frame::CallObject { payload, .. }
            | Frame::CallReply { payload }
            | Frame::CallRequestWarm { payload, .. }
            | Frame::CacheStale { payload, .. } => payload.len(),
            Frame::Tagged { frame, .. } | Frame::ReplyCached { frame, .. } => frame.payload_len(),
            _ => 0,
        }
    }

    /// Decodes a frame from bytes.
    ///
    /// # Errors
    /// Fails on truncated payloads or unknown tags.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut r = ByteReader::new(bytes);
        Self::decode_from(&mut r, true)
    }

    /// Decodes one frame from the reader. `allow_envelope` is true only
    /// at the top level: envelope frames (`Tagged`, `ReplyCached`) may
    /// wrap ordinary frames but never each other, so a hostile
    /// deeply-nested envelope is rejected instead of recursing.
    fn decode_from(r: &mut ByteReader<'_>, allow_envelope: bool) -> Result<Self> {
        let wire = |e| TransportError::Codec(e);
        let tag = r.get_u8().map_err(wire)?;
        let frame = match tag {
            F_CALL_REQUEST => {
                let service = r.get_str().map_err(wire)?;
                let method = r.get_str().map_err(wire)?;
                let mode = r.get_u8().map_err(wire)?;
                let len = r.get_varint().map_err(wire)? as usize;
                let payload = r.get_slice(len).map_err(wire)?.to_vec();
                Frame::CallRequest {
                    service,
                    method,
                    mode,
                    payload,
                }
            }
            F_CALL_OBJECT => {
                let key = r.get_varint().map_err(wire)?;
                let method = r.get_str().map_err(wire)?;
                let mode = r.get_u8().map_err(wire)?;
                let len = r.get_varint().map_err(wire)? as usize;
                let payload = r.get_slice(len).map_err(wire)?.to_vec();
                Frame::CallObject {
                    key,
                    method,
                    mode,
                    payload,
                }
            }
            F_CALL_REPLY => {
                let len = r.get_varint().map_err(wire)? as usize;
                let payload = r.get_slice(len).map_err(wire)?.to_vec();
                Frame::CallReply { payload }
            }
            F_CALL_ERROR => Frame::CallError {
                message: r.get_str().map_err(wire)?,
            },
            F_LOOKUP => Frame::Lookup {
                name: r.get_str().map_err(wire)?,
            },
            F_LOOKUP_REPLY => Frame::LookupReply {
                found: r.get_u8().map_err(wire)? != 0,
            },
            F_GET_FIELD => Frame::GetField {
                key: r.get_varint().map_err(wire)?,
                field: r.get_varint().map_err(wire)? as u32,
            },
            F_SET_FIELD => Frame::SetField {
                key: r.get_varint().map_err(wire)?,
                field: r.get_varint().map_err(wire)? as u32,
                value: RVal::decode(r)?,
            },
            F_GET_ELEMENT => Frame::GetElement {
                key: r.get_varint().map_err(wire)?,
                index: r.get_varint().map_err(wire)? as u32,
            },
            F_SET_ELEMENT => Frame::SetElement {
                key: r.get_varint().map_err(wire)?,
                index: r.get_varint().map_err(wire)? as u32,
                value: RVal::decode(r)?,
            },
            F_SLOT_COUNT => Frame::SlotCount {
                key: r.get_varint().map_err(wire)?,
            },
            F_CLASS_OF => Frame::ClassOf {
                key: r.get_varint().map_err(wire)?,
            },
            F_VALUE_REPLY => Frame::ValueReply(RVal::decode(r)?),
            F_COUNT_REPLY => Frame::CountReply(r.get_varint().map_err(wire)?),
            F_CLASS_REPLY => Frame::ClassReply(r.get_varint().map_err(wire)? as u32),
            F_ERROR_REPLY => Frame::ErrorReply {
                message: r.get_str().map_err(wire)?,
            },
            F_DGC_CLEAN => Frame::DgcClean {
                key: r.get_varint().map_err(wire)?,
            },
            F_ACK => Frame::Ack,
            F_SHUTDOWN => Frame::Shutdown,
            F_CALL_REQUEST_WARM => {
                let service = r.get_str().map_err(wire)?;
                let method = r.get_str().map_err(wire)?;
                let mode = r.get_u8().map_err(wire)?;
                let cache_id = r.get_varint().map_err(wire)?;
                let generation = r.get_varint().map_err(wire)?;
                let len = r.get_varint().map_err(wire)? as usize;
                let payload = r.get_slice(len).map_err(wire)?.to_vec();
                Frame::CallRequestWarm {
                    service,
                    method,
                    mode,
                    cache_id,
                    generation,
                    payload,
                }
            }
            F_CACHE_MISS => Frame::CacheMiss,
            F_CACHE_EVICT => Frame::CacheEvict {
                cache_id: r.get_varint().map_err(wire)?,
            },
            F_CACHE_STALE => {
                let cache_id = r.get_varint().map_err(wire)?;
                let version = r.get_varint().map_err(wire)?;
                let len = r.get_varint().map_err(wire)? as usize;
                let payload = r.get_slice(len).map_err(wire)?.to_vec();
                Frame::CacheStale {
                    cache_id,
                    version,
                    payload,
                }
            }
            F_TAGGED | F_REPLY_CACHED => {
                if !allow_envelope {
                    return Err(TransportError::UnknownFrame(tag));
                }
                let nonce = r.get_varint().map_err(wire)?;
                let seq = r.get_varint().map_err(wire)?;
                let inner = Box::new(Self::decode_from(r, false)?);
                if tag == F_TAGGED {
                    Frame::Tagged {
                        nonce,
                        seq,
                        frame: inner,
                    }
                } else {
                    Frame::ReplyCached {
                        nonce,
                        seq,
                        frame: inner,
                    }
                }
            }
            other => return Err(TransportError::UnknownFrame(other)),
        };
        Ok(frame)
    }

    /// Encoded size in bytes (what the simulated network charges).
    pub fn wire_size(&self) -> usize {
        self.encode().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(f: Frame) {
        let bytes = f.encode();
        let back = Frame::decode(&bytes).unwrap();
        assert_eq!(f, back);
        assert_eq!(f.wire_size(), bytes.len());
        // The scatter-gather twin must be byte-identical: prefix ++
        // payload == contiguous encoding, for every frame shape.
        let mut w = ByteWriter::new();
        let payload = f.encode_prefix_into(&mut w);
        let mut split = w.into_bytes();
        let copied = payload.map_or(0, <[u8]>::len);
        if let Some(p) = payload {
            split.extend_from_slice(p);
        }
        assert_eq!(split, bytes, "prefix+payload diverges for {f:?}");
        assert_eq!(f.payload_len(), copied, "payload_len diverges for {f:?}");
    }

    #[test]
    fn all_frames_roundtrip() {
        roundtrip(Frame::CallRequest {
            service: "translator".into(),
            method: "translate".into(),
            mode: 2,
            payload: vec![1, 2, 3],
        });
        roundtrip(Frame::CallObject {
            key: 9,
            method: "deposit".into(),
            mode: 2,
            payload: vec![4, 5],
        });
        roundtrip(Frame::CallReply { payload: vec![] });
        roundtrip(Frame::CallError {
            message: "remote exception: boom".into(),
        });
        roundtrip(Frame::Lookup { name: "svc".into() });
        roundtrip(Frame::LookupReply { found: true });
        roundtrip(Frame::LookupReply { found: false });
        roundtrip(Frame::GetField { key: 7, field: 2 });
        roundtrip(Frame::SetField {
            key: 7,
            field: 2,
            value: RVal::Int(-5),
        });
        roundtrip(Frame::GetElement { key: 1, index: 9 });
        roundtrip(Frame::SetElement {
            key: 1,
            index: 9,
            value: RVal::Str("x".into()),
        });
        roundtrip(Frame::SlotCount { key: 3 });
        roundtrip(Frame::ClassOf { key: 3 });
        roundtrip(Frame::ValueReply(RVal::Remote {
            owned_by_sender: true,
            key: 12,
        }));
        roundtrip(Frame::ValueReply(RVal::Remote {
            owned_by_sender: false,
            key: 12,
        }));
        roundtrip(Frame::ValueReply(RVal::Double(2.5)));
        roundtrip(Frame::ValueReply(RVal::Bool(true)));
        roundtrip(Frame::ValueReply(RVal::Long(i64::MIN)));
        roundtrip(Frame::ValueReply(RVal::Null));
        roundtrip(Frame::CountReply(u64::MAX));
        roundtrip(Frame::ClassReply(42));
        roundtrip(Frame::ErrorReply {
            message: "dangling".into(),
        });
        roundtrip(Frame::DgcClean { key: 99 });
        roundtrip(Frame::Ack);
        roundtrip(Frame::Shutdown);
        roundtrip(Frame::CallRequestWarm {
            service: "translator".into(),
            method: "translate".into(),
            mode: 3,
            cache_id: 7,
            generation: 0,
            payload: vec![1, 2, 3],
        });
        roundtrip(Frame::CallRequestWarm {
            service: "s".into(),
            method: "m".into(),
            mode: 3,
            cache_id: u64::MAX,
            generation: 41,
            payload: vec![],
        });
        roundtrip(Frame::CacheMiss);
        roundtrip(Frame::CacheEvict { cache_id: 55 });
        roundtrip(Frame::CacheStale {
            cache_id: 55,
            version: 3,
            payload: vec![1, 2, 3],
        });
        roundtrip(Frame::CacheStale {
            cache_id: u64::MAX,
            version: u64::MAX,
            payload: vec![],
        });
        roundtrip(Frame::Tagged {
            nonce: 0xdead_beef_cafe,
            seq: 17,
            frame: Box::new(Frame::CallRequest {
                service: "svc".into(),
                method: "m".into(),
                mode: 2,
                payload: vec![1, 2, 3],
            }),
        });
        roundtrip(Frame::Tagged {
            nonce: u64::MAX,
            seq: 0,
            frame: Box::new(Frame::CallRequestWarm {
                service: "svc".into(),
                method: "m".into(),
                mode: 3,
                cache_id: 8,
                generation: 2,
                payload: vec![],
            }),
        });
        roundtrip(Frame::ReplyCached {
            nonce: 42,
            seq: 9,
            frame: Box::new(Frame::CallReply {
                payload: vec![5; 20],
            }),
        });
        roundtrip(Frame::ReplyCached {
            nonce: 1,
            seq: 2,
            frame: Box::new(Frame::CacheMiss),
        });
    }

    #[test]
    fn truncated_envelope_frames_rejected() {
        let full = Frame::Tagged {
            nonce: 300,
            seq: 5,
            frame: Box::new(Frame::CallObject {
                key: 7,
                method: "mm".into(),
                mode: 2,
                payload: vec![9; 8],
            }),
        }
        .encode();
        for cut in 1..full.len() {
            assert!(Frame::decode(&full[..cut]).is_err(), "cut at {cut}");
        }
        let cached = Frame::ReplyCached {
            nonce: 300,
            seq: 5,
            frame: Box::new(Frame::CallError {
                message: "boom".into(),
            }),
        }
        .encode();
        for cut in 1..cached.len() {
            assert!(Frame::decode(&cached[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn nested_envelopes_rejected() {
        // Envelopes never nest on the honest path; a crafted
        // envelope-in-envelope must be rejected, not recursed into.
        let nested = Frame::Tagged {
            nonce: 1,
            seq: 1,
            frame: Box::new(Frame::Tagged {
                nonce: 2,
                seq: 2,
                frame: Box::new(Frame::Ack),
            }),
        }
        .encode();
        assert!(matches!(
            Frame::decode(&nested),
            Err(TransportError::UnknownFrame(_))
        ));
        let cached_in_tagged = Frame::Tagged {
            nonce: 1,
            seq: 1,
            frame: Box::new(Frame::ReplyCached {
                nonce: 1,
                seq: 1,
                frame: Box::new(Frame::Ack),
            }),
        }
        .encode();
        assert!(Frame::decode(&cached_in_tagged).is_err());
        // Depth guard, not stack depth: a long chain of envelope tags
        // fails fast at depth 2 instead of overflowing the stack.
        let mut hostile = Vec::new();
        for _ in 0..10_000 {
            hostile.extend_from_slice(&[23, 0, 0]);
        }
        assert!(Frame::decode(&hostile).is_err());
    }

    #[test]
    fn truncated_warm_frames_rejected() {
        let full = Frame::CallRequestWarm {
            service: "svc".into(),
            method: "mm".into(),
            mode: 3,
            cache_id: 300,
            generation: 12,
            payload: vec![7; 10],
        }
        .encode();
        for cut in 1..full.len() {
            assert!(Frame::decode(&full[..cut]).is_err(), "cut at {cut}");
        }
        let evict = Frame::CacheEvict { cache_id: 300 }.encode();
        for cut in 1..evict.len() {
            assert!(Frame::decode(&evict[..cut]).is_err(), "evict cut at {cut}");
        }
        let stale = Frame::CacheStale {
            cache_id: 300,
            version: 12,
            payload: vec![7; 10],
        }
        .encode();
        for cut in 1..stale.len() {
            assert!(Frame::decode(&stale[..cut]).is_err(), "stale cut at {cut}");
        }
    }

    #[test]
    fn rval_list_roundtrip() {
        let values = vec![
            RVal::Null,
            RVal::Int(-7),
            RVal::Str("arg".into()),
            RVal::Remote {
                owned_by_sender: true,
                key: 3,
            },
            RVal::Double(1.25),
        ];
        let bytes = encode_rvals(&values);
        assert_eq!(decode_rvals(&bytes).unwrap(), values);
        assert_eq!(
            decode_rvals(&encode_rvals(&[])).unwrap(),
            Vec::<RVal>::new()
        );
        // Truncations fail cleanly.
        for cut in 0..bytes.len() {
            assert!(decode_rvals(&bytes[..cut]).is_err() || cut == 0 && bytes[0] == 0);
        }
        // A hostile count never over-allocates: count > remaining is EOF.
        assert!(decode_rvals(&[0xff, 0xff, 0x01]).is_err());
    }

    #[test]
    fn rval_flip() {
        let v = RVal::Remote {
            owned_by_sender: true,
            key: 4,
        };
        assert_eq!(
            v.clone().flipped(),
            RVal::Remote {
                owned_by_sender: false,
                key: 4
            }
        );
        assert_eq!(RVal::Int(1).flipped(), RVal::Int(1));
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(matches!(
            Frame::decode(&[0xEE]),
            Err(TransportError::UnknownFrame(0xEE))
        ));
        assert!(matches!(Frame::decode(&[]), Err(TransportError::Codec(_))));
    }

    #[test]
    fn truncated_frames_rejected() {
        let full = Frame::CallRequest {
            service: "s".into(),
            method: "m".into(),
            mode: 1,
            payload: vec![9; 16],
        }
        .encode();
        for cut in 1..full.len() {
            assert!(Frame::decode(&full[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn callback_frames_are_small() {
        // The remote-pointer protocol's cost is dominated by round-trip
        // latency, not frame size — frames must be tens of bytes, not
        // graph-sized.
        assert!(Frame::GetField { key: 1, field: 1 }.wire_size() < 8);
        assert!(Frame::ValueReply(RVal::Int(5)).wire_size() < 8);
    }
}
