//! Client and server node state, and their marshalling hooks.

use std::collections::HashMap;

use nrmi_heap::{Heap, ObjId, SharedRegistry, Value};
use nrmi_transport::{MachineSpec, RVal};
use nrmi_wire::{Codec, RemoteHooks, WireError};

use crate::export::ExportTable;
use crate::profile::WorkCounts;
use crate::service::RemoteService;

/// State common to both ends of a connection: a heap, the export table
/// of objects the peer holds references to, and the stub table of peer
/// objects this node holds references to.
#[derive(Debug)]
pub struct NodeState {
    /// The node's object heap.
    pub heap: Heap,
    /// Objects this node has exported to its peer.
    pub exports: ExportTable,
    /// Peer key → local stub object.
    pub stubs: HashMap<u64, ObjId>,
    /// The machine this node models: what a simulated session prices
    /// its [`work`](Self::work) tally on.
    pub machine: MachineSpec,
    /// What this node's middleware has done since it was created, in
    /// the units the cost model prices ([`crate::profile`]).
    pub work: WorkCounts,
    /// Reusable encoder scratch (position maps + payload-buffer pool);
    /// every encode this node performs runs through it so steady-state
    /// calls stop allocating bookkeeping.
    pub codec: Codec,
}

impl NodeState {
    /// Creates a node over a fresh heap bound to `registry`.
    pub fn new(registry: SharedRegistry, machine: MachineSpec) -> Self {
        NodeState {
            heap: Heap::new(registry),
            exports: ExportTable::new(),
            stubs: HashMap::new(),
            machine,
            work: WorkCounts::default(),
            codec: Codec::new(),
        }
    }

    /// Resolves or materializes the local stub for a peer-owned object.
    ///
    /// # Errors
    /// Propagates allocation failures.
    pub fn stub_for(&mut self, key: u64) -> Result<ObjId, nrmi_heap::HeapError> {
        if let Some(&stub) = self.stubs.get(&key) {
            return Ok(stub);
        }
        let stub = self.heap.alloc_stub(key)?;
        self.stubs.insert(key, stub);
        Ok(stub)
    }

    /// Converts a local heap value into its remote-callback wire form:
    /// primitives pass through, references become `(owner, key)` pairs —
    /// never object contents. This is the essence of the remote-pointer
    /// world (Figure 3).
    ///
    /// # Errors
    /// Propagates heap errors (dangling handles).
    pub fn value_to_rval(&mut self, value: &Value) -> Result<RVal, nrmi_heap::HeapError> {
        Ok(match value {
            Value::Null => RVal::Null,
            Value::Bool(b) => RVal::Bool(*b),
            Value::Int(i) => RVal::Int(*i),
            Value::Long(i) => RVal::Long(*i),
            Value::Double(d) => RVal::Double(*d),
            Value::Str(s) => RVal::Str(s.clone()),
            Value::Ref(id) => match self.heap.stub_key(*id)? {
                // A stub: the peer owns it; send their key back.
                Some(key) => RVal::Remote {
                    owned_by_sender: false,
                    key,
                },
                // A local object: export it; the peer gets a stub.
                None => RVal::Remote {
                    owned_by_sender: true,
                    key: self.exports.export(*id),
                },
            },
        })
    }

    /// Converts a received remote-callback value into a local heap value:
    /// peer-owned references become (possibly fresh) local stubs; own
    /// references resolve through the export table.
    ///
    /// # Errors
    /// [`WireError::UnknownExport`] for unresolvable own keys; allocation
    /// failures for stubs.
    pub fn rval_to_value(&mut self, rval: &RVal) -> Result<Value, WireError> {
        Ok(match rval {
            RVal::Null => Value::Null,
            RVal::Bool(b) => Value::Bool(*b),
            RVal::Int(i) => Value::Int(*i),
            RVal::Long(i) => Value::Long(*i),
            RVal::Double(d) => Value::Double(*d),
            RVal::Str(s) => Value::Str(s.clone()),
            RVal::Remote {
                owned_by_sender: true,
                key,
            } => {
                // The sender owns it: we hold a stub.
                Value::Ref(self.stub_for(*key)?)
            }
            RVal::Remote {
                owned_by_sender: false,
                key,
            } => {
                // It is ours: resolve to the original object.
                Value::Ref(
                    self.exports
                        .lookup(*key)
                        .ok_or(WireError::UnknownExport { key: *key })?,
                )
            }
        })
    }
}

/// [`RemoteHooks`] implementation over a node's export and stub tables,
/// used when graphs containing remote-marked objects (or stubs) are
/// marshalled by value.
#[derive(Debug)]
pub struct NodeHooks<'a> {
    exports: &'a mut ExportTable,
    stubs: &'a mut HashMap<u64, ObjId>,
}

impl<'a> NodeHooks<'a> {
    /// Borrows the tables out of split node state.
    pub fn new(exports: &'a mut ExportTable, stubs: &'a mut HashMap<u64, ObjId>) -> Self {
        NodeHooks { exports, stubs }
    }
}

impl RemoteHooks for NodeHooks<'_> {
    fn export(&mut self, _heap: &Heap, obj: ObjId) -> Result<u64, WireError> {
        Ok(self.exports.export(obj))
    }

    fn import(
        &mut self,
        heap: &mut Heap,
        owned_by_sender: bool,
        key: u64,
    ) -> Result<Value, WireError> {
        if owned_by_sender {
            if let Some(&stub) = self.stubs.get(&key) {
                return Ok(Value::Ref(stub));
            }
            let stub = heap.alloc_stub(key)?;
            self.stubs.insert(key, stub);
            Ok(Value::Ref(stub))
        } else {
            self.exports
                .lookup(key)
                .map(Value::Ref)
                .ok_or(WireError::UnknownExport { key })
        }
    }
}

/// Server-side state: node state plus the bound services.
pub struct ServerNode {
    /// Shared node state (heap, tables, work tally).
    pub state: NodeState,
    /// Services by registry name.
    pub services: HashMap<String, Box<dyn RemoteService>>,
    /// Behavior bound per CLASS: invoking a method on an exported object
    /// of that class dispatches here, with the receiver prepended to the
    /// arguments — the `UnicastRemoteObject` dispatch model.
    pub class_services: HashMap<nrmi_heap::ClassId, Box<dyn RemoteService>>,
    /// Duplicate-suppression reply cache: replies to tagged calls are
    /// recorded here so a retransmitted call id replays its reply
    /// instead of re-executing (at-most-once delivery). Shared: every
    /// connection node a [`SharedServer`](crate::server::SharedServer)
    /// mints holds the same cache, so a reconnect's retransmission
    /// finds the reply whichever connection executed the call.
    pub replies: std::sync::Arc<crate::server::ShardedReplyCache>,
    /// Which warm sessions currently cover which heap objects (see
    /// [`crate::warm::LeaseTable`]). Connections serving this node build
    /// their [`WarmCaches`](crate::warm::WarmCaches) with
    /// [`with_leases`](crate::warm::WarmCaches::with_leases) on a clone
    /// of this handle, so an eviction by one connection never frees an
    /// object another connection's warm session still reads.
    pub leases: std::sync::Arc<crate::lockcheck::TrackedMutex<crate::warm::LeaseTable>>,
    /// Set on the connection nodes a
    /// [`SharedServer`](crate::server::SharedServer) mints: there a cold
    /// call's copy dies with the call ([`ServerNode::sweep_call`]). Their
    /// services are shared adapters whose calls already land on
    /// different heaps, so no working program holds a copy across calls.
    /// Exclusive nodes keep call copies until
    /// [`collect_local`](ServerNode::collect_local).
    pub(crate) stateless_calls: bool,
}

impl std::fmt::Debug for ServerNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerNode")
            .field("state", &self.state)
            .field("services", &self.services.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl ServerNode {
    /// Creates a server node over `registry`.
    pub fn new(registry: SharedRegistry, machine: MachineSpec) -> Self {
        ServerNode {
            state: NodeState::new(registry, machine),
            services: HashMap::new(),
            class_services: HashMap::new(),
            replies: std::sync::Arc::default(),
            leases: crate::warm::new_lease_table(),
            stateless_calls: false,
        }
    }

    /// Binds `service` under `name` (the `Naming.rebind` analogue).
    pub fn bind(&mut self, name: impl Into<String>, service: Box<dyn RemoteService>) {
        self.services.insert(name.into(), service);
    }

    /// True if `name` is bound.
    pub fn is_bound(&self, name: &str) -> bool {
        self.services.contains_key(name)
    }

    /// Binds `service` as the behavior of a remote-marked CLASS: method
    /// calls on exported instances dispatch to it, with the receiver
    /// object prepended as `args[0]`.
    pub fn bind_class(&mut self, class: nrmi_heap::ClassId, service: Box<dyn RemoteService>) {
        self.class_services.insert(class, service);
    }

    /// Runs a server-side garbage collection over the node's heap.
    /// Objects exported to clients are GC roots (their stubs pin them —
    /// RMI DGC semantics); pass any additional server-held roots in
    /// `roots`. Returns the number of objects freed.
    ///
    /// # Errors
    /// Propagates heap errors.
    pub fn collect_local(
        &mut self,
        roots: &[nrmi_heap::ObjId],
    ) -> Result<usize, nrmi_heap::HeapError> {
        let mut gc_roots = roots.to_vec();
        gc_roots.extend(self.state.exports.roots());
        nrmi_heap::gc::mark_sweep(&mut self.state.heap, &gc_roots)
    }

    /// Where a cold call starts, for [`sweep_call`](Self::sweep_call):
    /// the heap epoch before it, on nodes whose call copies die with the
    /// call.
    pub(crate) fn call_mark(&self) -> Option<u64> {
        self.stateless_calls.then(|| self.state.heap.epoch())
    }

    /// The end of a cold call that started at `mark`: frees every object
    /// it allocated that the export table, the stub table and the older
    /// graph no longer reach. The older graph holds every leased
    /// warm-session object, and a call can only link a new object into
    /// it by a write, which the sweep follows
    /// ([`sweep_born_since`](nrmi_heap::gc::sweep_born_since)). A call
    /// that allocated nothing costs one comparison.
    pub(crate) fn sweep_call(&mut self, mark: Option<u64>) {
        let Some(mark) = mark else {
            return;
        };
        let NodeState {
            heap,
            exports,
            stubs,
            ..
        } = &mut self.state;
        let roots = exports.objects().chain(stubs.values().copied());
        nrmi_heap::gc::sweep_born_since(heap, mark, roots);
    }
}

/// Client-side state: node state plus the warm-call session caches.
#[derive(Debug)]
pub struct ClientNode {
    /// Shared node state (heap, tables, work tally).
    pub state: NodeState,
    /// Warm-call session caches, one per service
    /// (see [`crate::warm`]).
    pub warm: crate::warm::WarmSessions,
}

impl ClientNode {
    /// Creates a client node over `registry`.
    pub fn new(registry: SharedRegistry, machine: MachineSpec) -> Self {
        ClientNode {
            state: NodeState::new(registry, machine),
            warm: crate::warm::WarmSessions::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrmi_heap::{ClassRegistry, HeapAccess};

    fn node() -> (NodeState, nrmi_heap::ClassId) {
        let mut reg = ClassRegistry::new();
        let tree = nrmi_heap::tree::register_tree_classes(&mut reg).tree;
        (NodeState::new(reg.snapshot(), MachineSpec::fast()), tree)
    }

    #[test]
    fn stub_for_is_idempotent() {
        let (mut n, _) = node();
        let s1 = n.stub_for(7).unwrap();
        let s2 = n.stub_for(7).unwrap();
        assert_eq!(s1, s2, "one stub per peer key (identity preservation)");
        assert_eq!(n.heap.stub_key(s1).unwrap(), Some(7));
    }

    #[test]
    fn value_rval_roundtrip_for_local_object() {
        let (mut n, tree) = node();
        let obj = n.heap.alloc_default(tree).unwrap();
        let rv = n.value_to_rval(&Value::Ref(obj)).unwrap();
        let RVal::Remote {
            owned_by_sender: true,
            key,
        } = rv
        else {
            panic!("local object must export as sender-owned, got {rv:?}");
        };
        // Resolving our own key (as if echoed back by the peer) returns
        // the original object.
        let back = n
            .rval_to_value(&RVal::Remote {
                owned_by_sender: false,
                key,
            })
            .unwrap();
        assert_eq!(back, Value::Ref(obj));
    }

    #[test]
    fn value_rval_roundtrip_for_stub() {
        let (mut n, _) = node();
        let stub = n.stub_for(42).unwrap();
        let rv = n.value_to_rval(&Value::Ref(stub)).unwrap();
        assert_eq!(
            rv,
            RVal::Remote {
                owned_by_sender: false,
                key: 42
            }
        );
    }

    #[test]
    fn primitives_pass_through() {
        let (mut n, _) = node();
        for v in [
            Value::Null,
            Value::Int(1),
            Value::Str("x".into()),
            Value::Bool(true),
        ] {
            let rv = n.value_to_rval(&v).unwrap();
            assert_eq!(n.rval_to_value(&rv).unwrap(), v);
        }
    }

    #[test]
    fn unknown_export_key_rejected() {
        let (mut n, _) = node();
        let err = n
            .rval_to_value(&RVal::Remote {
                owned_by_sender: false,
                key: 99,
            })
            .unwrap_err();
        assert!(matches!(err, WireError::UnknownExport { key: 99 }));
    }

    #[test]
    fn hooks_roundtrip_remote_marked_object_through_graph() {
        // A remote-marked object inside a serializable graph travels as
        // a stub and resolves back to the ORIGINAL when the graph
        // returns — RMI's remote-parameter semantics.
        let mut reg = ClassRegistry::new();
        let svc_class = reg.define("Printer").remote().register();
        let holder = reg
            .define("Holder")
            .field_ref("svc")
            .serializable()
            .register();
        let registry = reg.snapshot();
        let mut a = NodeState::new(registry.clone(), MachineSpec::fast());
        let mut b = NodeState::new(registry, MachineSpec::fast());

        let printer = a.heap.alloc_default(svc_class).unwrap();
        let h = a.heap.alloc(holder, vec![Value::Ref(printer)]).unwrap();

        // a → b
        let mut hooks_a = NodeHooks::new(&mut a.exports, &mut a.stubs);
        let enc =
            nrmi_wire::serialize_graph_with(&a.heap, &[Value::Ref(h)], None, Some(&mut hooks_a))
                .unwrap();
        let mut hooks_b = NodeHooks::new(&mut b.exports, &mut b.stubs);
        let dec = nrmi_wire::deserialize_graph_with(&enc.bytes, &mut b.heap, &mut hooks_b).unwrap();
        let h_b = dec.roots[0].as_ref_id().unwrap();
        let svc_b = b.heap.get_ref(h_b, "svc").unwrap().unwrap();
        assert_eq!(b.heap.stub_key(svc_b).unwrap(), Some(0), "b holds a stub");

        // b → a (echo back)
        let mut hooks_b = NodeHooks::new(&mut b.exports, &mut b.stubs);
        let enc2 =
            nrmi_wire::serialize_graph_with(&b.heap, &[Value::Ref(h_b)], None, Some(&mut hooks_b))
                .unwrap();
        let mut hooks_a = NodeHooks::new(&mut a.exports, &mut a.stubs);
        let dec2 =
            nrmi_wire::deserialize_graph_with(&enc2.bytes, &mut a.heap, &mut hooks_a).unwrap();
        let h_a2 = dec2.roots[0].as_ref_id().unwrap();
        let svc_back = a.heap.get_ref(h_a2, "svc").unwrap().unwrap();
        assert_eq!(
            svc_back, printer,
            "stub resolves back to the original remote object"
        );
    }

    #[test]
    fn server_binding() {
        let mut reg = ClassRegistry::new();
        let _ = nrmi_heap::tree::register_tree_classes(&mut reg);
        let mut server = ServerNode::new(reg.snapshot(), MachineSpec::slow());
        assert!(!server.is_bound("echo"));
        server.bind(
            "echo",
            Box::new(crate::service::FnService::new(|_m, args, _h| {
                Ok(args.first().cloned().unwrap_or(Value::Null))
            })),
        );
        assert!(server.is_bound("echo"));
    }
}
