//! Call-by-reference through remote pointers (Figure 3).
//!
//! Two halves of one protocol:
//!
//! * [`RemoteHeapProxy`] — the *server*'s view of the caller's heap
//!   during a remote-reference call. It implements
//!   [`HeapAccess`], so an unmodified service body runs against it; but
//!   every access to a stub-backed object becomes a request/reply
//!   exchange with the object's owner. This is the world the paper
//!   measures in Table 6 and finds "extremely inefficient (as
//!   expected)".
//! * [`handle_callback`] — the *owner*'s side: resolve the export key,
//!   perform the access on the real object, answer.
//!
//! Allocation is local (a `new` in the remote routine creates the object
//! on the server); its fields may hold stubs to caller objects, and
//! caller objects may come to hold stubs to it — the distributed cycles
//! that reference-counting DGC can never reclaim.

use std::collections::HashMap;

use nrmi_heap::{ClassId, HeapAccess, HeapError, ObjId, SharedRegistry, Value};
use nrmi_transport::{Frame, Transport};

use crate::node::NodeState;

/// Statistics from one remote-reference service invocation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProxyStats {
    /// Callback round trips issued (each is two network messages).
    pub callbacks: u64,
    /// Accesses served from the local (server) heap without network.
    pub local_accesses: u64,
}

/// A [`HeapAccess`] implementation that transparently routes accesses to
/// stub-backed objects through the transport to their owner.
pub struct RemoteHeapProxy<'a> {
    node: &'a mut NodeState,
    transport: &'a mut dyn Transport,
    class_cache: HashMap<ObjId, ClassId>,
    stats: ProxyStats,
}

impl std::fmt::Debug for RemoteHeapProxy<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteHeapProxy")
            .field("stats", &self.stats)
            .finish()
    }
}

impl<'a> RemoteHeapProxy<'a> {
    /// Wraps the server's node state and its transport back to the caller.
    pub fn new(node: &'a mut NodeState, transport: &'a mut dyn Transport) -> Self {
        RemoteHeapProxy {
            node,
            transport,
            class_cache: HashMap::new(),
            stats: ProxyStats::default(),
        }
    }

    /// Accounting for the completed invocation.
    pub fn stats(&self) -> ProxyStats {
        self.stats
    }

    fn remote_error(msg: impl std::fmt::Display) -> HeapError {
        HeapError::RemoteAccess(msg.to_string())
    }

    /// Issues one callback round trip and returns the reply frame.
    fn roundtrip(&mut self, request: Frame) -> Result<Frame, HeapError> {
        self.stats.callbacks += 1;
        self.transport.send(&request).map_err(Self::remote_error)?;
        match self.transport.recv().map_err(Self::remote_error)? {
            Frame::ErrorReply { message } => Err(HeapError::RemoteAccess(message)),
            other => Ok(other),
        }
    }

    fn stub_key_of(&self, obj: ObjId) -> Result<Option<u64>, HeapError> {
        self.node.heap.stub_key(obj)
    }

    fn expect_value(&mut self, frame: Frame) -> Result<Value, HeapError> {
        match frame {
            Frame::ValueReply(rv) => self.node.rval_to_value(&rv).map_err(Self::remote_error),
            other => Err(Self::remote_error(format!(
                "expected ValueReply, got {other:?}"
            ))),
        }
    }
}

impl HeapAccess for RemoteHeapProxy<'_> {
    fn get_field_raw(&mut self, obj: ObjId, field: usize) -> Result<Value, HeapError> {
        match self.stub_key_of(obj)? {
            Some(key) => {
                let reply = self.roundtrip(Frame::GetField {
                    key,
                    field: field as u32,
                })?;
                self.expect_value(reply)
            }
            None => {
                self.stats.local_accesses += 1;
                self.node.heap.get_field_raw(obj, field)
            }
        }
    }

    fn set_field_raw(&mut self, obj: ObjId, field: usize, value: Value) -> Result<(), HeapError> {
        match self.stub_key_of(obj)? {
            Some(key) => {
                let rv = self.node.value_to_rval(&value)?;
                let reply = self.roundtrip(Frame::SetField {
                    key,
                    field: field as u32,
                    value: rv,
                })?;
                match reply {
                    Frame::Ack => Ok(()),
                    other => Err(Self::remote_error(format!("expected Ack, got {other:?}"))),
                }
            }
            None => {
                self.stats.local_accesses += 1;
                self.node.heap.set_field_raw(obj, field, value)
            }
        }
    }

    fn alloc_raw(&mut self, class: ClassId, fields: Vec<Value>) -> Result<ObjId, HeapError> {
        // `new` in the remote routine allocates on the server.
        self.stats.local_accesses += 1;
        self.node.heap.alloc_raw(class, fields)
    }

    fn alloc_array_raw(
        &mut self,
        class: ClassId,
        elements: Vec<Value>,
    ) -> Result<ObjId, HeapError> {
        self.stats.local_accesses += 1;
        self.node.heap.alloc_array_raw(class, elements)
    }

    fn class_of(&mut self, obj: ObjId) -> Result<ClassId, HeapError> {
        if let Some(&class) = self.class_cache.get(&obj) {
            return Ok(class);
        }
        let class = match self.stub_key_of(obj)? {
            Some(key) => {
                let reply = self.roundtrip(Frame::ClassOf { key })?;
                match reply {
                    Frame::ClassReply(idx) => ClassId::from_index(idx),
                    other => {
                        return Err(Self::remote_error(format!(
                            "expected ClassReply, got {other:?}"
                        )))
                    }
                }
            }
            None => {
                self.stats.local_accesses += 1;
                self.node.heap.class_of(obj)?
            }
        };
        // Stubs know their remote interface statically in real RMI; one
        // query per object models the stub's type knowledge.
        self.class_cache.insert(obj, class);
        Ok(class)
    }

    fn slot_count(&mut self, obj: ObjId) -> Result<usize, HeapError> {
        match self.stub_key_of(obj)? {
            Some(key) => {
                let reply = self.roundtrip(Frame::SlotCount { key })?;
                match reply {
                    Frame::CountReply(n) => Ok(n as usize),
                    other => Err(Self::remote_error(format!(
                        "expected CountReply, got {other:?}"
                    ))),
                }
            }
            None => {
                self.stats.local_accesses += 1;
                self.node.heap.slot_count(obj)
            }
        }
    }

    fn get_element(&mut self, obj: ObjId, index: usize) -> Result<Value, HeapError> {
        match self.stub_key_of(obj)? {
            Some(key) => {
                let reply = self.roundtrip(Frame::GetElement {
                    key,
                    index: index as u32,
                })?;
                self.expect_value(reply)
            }
            None => {
                self.stats.local_accesses += 1;
                self.node.heap.get_element(obj, index)
            }
        }
    }

    fn set_element(&mut self, obj: ObjId, index: usize, value: Value) -> Result<(), HeapError> {
        match self.stub_key_of(obj)? {
            Some(key) => {
                let rv = self.node.value_to_rval(&value)?;
                let reply = self.roundtrip(Frame::SetElement {
                    key,
                    index: index as u32,
                    value: rv,
                })?;
                match reply {
                    Frame::Ack => Ok(()),
                    other => Err(Self::remote_error(format!("expected Ack, got {other:?}"))),
                }
            }
            None => {
                self.stats.local_accesses += 1;
                self.node.heap.set_element(obj, index, value)
            }
        }
    }

    fn registry(&self) -> &SharedRegistry {
        self.node.heap.registry_handle()
    }
}

/// Serves one callback frame against the owner's node state. Returns the
/// reply to send, or `None` for frames that are not callbacks (the
/// caller's receive loop handles those itself).
pub fn handle_callback(node: &mut NodeState, frame: &Frame) -> Option<Frame> {
    let reply = match frame {
        Frame::GetField { key, field } => with_export(node, *key, |node, obj| {
            let v = node.heap.get_field_raw(obj, *field as usize)?;
            let rv = node.value_to_rval(&v)?;
            Ok(Frame::ValueReply(rv))
        }),
        Frame::SetField { key, field, value } => with_export(node, *key, |node, obj| {
            let v = node
                .rval_to_value(value)
                .map_err(|e| HeapError::RemoteAccess(e.to_string()))?;
            node.heap.set_field_raw(obj, *field as usize, v)?;
            Ok(Frame::Ack)
        }),
        Frame::GetElement { key, index } => with_export(node, *key, |node, obj| {
            let v = node.heap.get_element(obj, *index as usize)?;
            let rv = node.value_to_rval(&v)?;
            Ok(Frame::ValueReply(rv))
        }),
        Frame::SetElement { key, index, value } => with_export(node, *key, |node, obj| {
            let v = node
                .rval_to_value(value)
                .map_err(|e| HeapError::RemoteAccess(e.to_string()))?;
            node.heap.set_element(obj, *index as usize, v)?;
            Ok(Frame::Ack)
        }),
        Frame::SlotCount { key } => with_export(node, *key, |node, obj| {
            Ok(Frame::CountReply(node.heap.slot_count(obj)? as u64))
        }),
        Frame::ClassOf { key } => with_export(node, *key, |node, obj| {
            Ok(Frame::ClassReply(node.heap.class_of(obj)?.index()))
        }),
        Frame::DgcClean { key } => {
            node.exports.clean(*key);
            return Some(Frame::Ack);
        }
        _ => return None,
    };
    node.work.owner_callbacks += 1;
    Some(reply.unwrap_or_else(|e: HeapError| Frame::ErrorReply {
        message: e.to_string(),
    }))
}

fn with_export(
    node: &mut NodeState,
    key: u64,
    f: impl FnOnce(&mut NodeState, ObjId) -> Result<Frame, HeapError>,
) -> Result<Frame, HeapError> {
    let obj = node
        .exports
        .lookup(key)
        .ok_or_else(|| HeapError::RemoteAccess(format!("unknown export key {key}")))?;
    f(node, obj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrmi_heap::tree;
    use nrmi_heap::ClassRegistry;
    use nrmi_transport::{channel_pair, LinkSpec, MachineSpec};
    use std::thread;

    /// Builds a connected (owner, proxy-side) pair of nodes sharing a
    /// registry, with the running example living at the owner.
    fn setup() -> (
        NodeState,
        NodeState,
        tree::RunningExample,
        nrmi_heap::SharedRegistry,
    ) {
        let mut reg = ClassRegistry::new();
        let classes = tree::register_tree_classes(&mut reg);
        let registry = reg.snapshot();
        let mut owner = NodeState::new(registry.clone(), MachineSpec::fast());
        let server = NodeState::new(registry.clone(), MachineSpec::slow());
        let ex = tree::build_running_example(&mut owner.heap, &classes).unwrap();
        (owner, server, ex, registry)
    }

    /// Runs `body` against a proxy while the owner serves callbacks on
    /// the other end of an in-process channel.
    fn with_proxy<R: Send + 'static>(
        owner: &mut NodeState,
        server: &mut NodeState,
        root_key: u64,
        body: impl FnOnce(&mut RemoteHeapProxy<'_>, ObjId) -> R + Send + 'static,
    ) -> (R, ProxyStats) {
        let (mut owner_t, mut server_t) = channel_pair(None, LinkSpec::free());
        thread::scope(|scope| {
            // Owner side: serve callbacks until the proxy side hangs up.
            let owner_loop = scope.spawn(move || {
                while let Ok(frame) = owner_t.recv() {
                    match handle_callback(owner, &frame) {
                        Some(reply) => {
                            if owner_t.send(&reply).is_err() {
                                break;
                            }
                        }
                        None => break,
                    }
                }
            });
            let result = {
                let mut proxy = RemoteHeapProxy::new(server, &mut server_t);
                let stub = proxy.node.stub_for(root_key).unwrap();
                let r = body(&mut proxy, stub);
                let stats = proxy.stats();
                drop(server_t); // hang up so the owner loop exits
                (r, stats)
            };
            owner_loop.join().unwrap();
            result
        })
    }

    #[test]
    fn remote_field_reads_and_writes() {
        let (mut owner, mut server, ex, _) = setup();
        let key = owner.exports.export(ex.root);
        let ((), stats) = with_proxy(&mut owner, &mut server, key, |proxy, root| {
            // Read through the stub.
            let data = proxy.get_field(root, "data").unwrap();
            assert_eq!(data, Value::Int(5));
            // Write through the stub.
            proxy.set_field(root, "data", Value::Int(99)).unwrap();
        });
        assert!(
            stats.callbacks >= 2,
            "reads and writes each cross the network"
        );
        assert_eq!(
            owner.heap.get_field(ex.root, "data").unwrap(),
            Value::Int(99)
        );
    }

    #[test]
    fn run_foo_over_remote_pointers_matches_figure_2() {
        // The paper's invariant: remote references implement
        // call-by-reference, so foo's effects appear directly on the
        // owner's originals — Figure 2 without any restore phase.
        let (mut owner, mut server, ex, _) = setup();
        let key = owner.exports.export(ex.root);
        let ((), stats) = with_proxy(&mut owner, &mut server, key, |proxy, root| {
            tree::run_foo(proxy, root).unwrap();
        });
        // Everything except the new node's locals crossed the network.
        assert!(stats.callbacks > 10, "got {stats:?}");
        // One nuance: under remote pointers the NEW node lives on the
        // SERVER; t.right on the owner is a stub (the paper's Figure 3
        // picture), so the full Figure-2 walk happens across two heaps.
        // Direct mutations on owner objects must all be visible:
        assert_eq!(
            owner.heap.get_field(ex.alias1_target, "data").unwrap(),
            Value::Int(0)
        );
        assert_eq!(
            owner.heap.get_field(ex.alias2_target, "data").unwrap(),
            Value::Int(9)
        );
        assert_eq!(owner.heap.get_field(ex.rr, "data").unwrap(), Value::Int(8));
        assert_eq!(owner.heap.get_ref(ex.root, "left").unwrap(), None);
        assert_eq!(owner.heap.get_ref(ex.alias2_target, "right").unwrap(), None);
        // t.right is a stub for the server-allocated temp node.
        let t_right = owner.heap.get_ref(ex.root, "right").unwrap().unwrap();
        assert!(
            owner.heap.stub_key(t_right).unwrap().is_some(),
            "t.right is a remote stub"
        );
    }

    #[test]
    fn distributed_cycle_pins_exports_on_both_sides() {
        // After run_foo over remote pointers: owner objects reference a
        // server object (temp) and the server object references owner
        // objects (rr). Reference-counting DGC cannot reclaim any of it
        // — the Table 6 leak.
        let (mut owner, mut server, ex, _) = setup();
        let key = owner.exports.export(ex.root);
        let ((), _) = with_proxy(&mut owner, &mut server, key, |proxy, root| {
            tree::run_foo(proxy, root).unwrap();
        });
        assert!(
            !owner.exports.is_empty(),
            "owner objects pinned by server stubs"
        );
        assert!(
            !server.exports.is_empty(),
            "server temp pinned by owner stub"
        );
        // The server-side temp node references owner nodes through stubs.
        let temp_stub = owner.heap.get_ref(ex.root, "right").unwrap().unwrap();
        let temp_key = owner.heap.stub_key(temp_stub).unwrap().unwrap();
        let temp_obj = server.exports.lookup(temp_key).unwrap();
        let temp_left = server.heap.get_ref(temp_obj, "left").unwrap().unwrap();
        assert!(server.heap.stub_key(temp_left).unwrap().is_some());
    }

    #[test]
    fn error_replies_surface_as_remote_access_errors() {
        let (mut owner, mut server, _, _) = setup();
        // Key 999 was never exported.
        let ((), _) = with_proxy(&mut owner, &mut server, 999, |proxy, stub| {
            let err = proxy.get_field_raw(stub, 0).unwrap_err();
            assert!(matches!(err, HeapError::RemoteAccess(_)), "{err}");
        });
    }

    #[test]
    fn class_cache_avoids_repeat_lookups() {
        let (mut owner, mut server, ex, _) = setup();
        let key = owner.exports.export(ex.root);
        let ((), stats) = with_proxy(&mut owner, &mut server, key, |proxy, root| {
            // Two by-name accesses: class is fetched once, cached after.
            let _ = proxy.get_field(root, "data").unwrap();
            let _ = proxy.get_field(root, "data").unwrap();
        });
        // 1 ClassOf + 2 GetField = 3 round trips (not 4).
        assert_eq!(stats.callbacks, 3, "{stats:?}");
    }

    #[test]
    fn dgc_clean_handled() {
        let (mut owner, _, ex, _) = setup();
        let key = owner.exports.export(ex.root);
        assert_eq!(owner.exports.len(), 1);
        let reply = handle_callback(&mut owner, &Frame::DgcClean { key });
        assert_eq!(reply, Some(Frame::Ack));
        assert!(owner.exports.is_empty());
    }

    #[test]
    fn non_callback_frames_pass_through() {
        let (mut owner, _, _, _) = setup();
        assert_eq!(handle_callback(&mut owner, &Frame::Ack), None);
        assert_eq!(handle_callback(&mut owner, &Frame::Shutdown), None);
        assert_eq!(
            handle_callback(&mut owner, &Frame::CallReply { payload: vec![] }),
            None
        );
    }
}
