//! Garbage collection: tracing and reference-counting collectors.
//!
//! Two collectors, matching the two worlds in the paper's evaluation:
//!
//! * [`mark_sweep`] — an ordinary tracing collector for a single heap
//!   (what the JVM gives local objects).
//! * [`RcSpace`] — a reference-counting space modelling RMI's Distributed
//!   Garbage Collector. The paper's Table 6 discussion observes that
//!   call-by-reference through remote pointers creates *distributed
//!   circular garbage* that reference counting cannot reclaim, so the
//!   benchmark's memory grows without bound. `RcSpace` reproduces that
//!   failure mode honestly: it reclaims acyclic garbage promptly and
//!   leaks cycles.

use std::collections::HashMap;

use crate::densemap::DenseObjSet;
use crate::heap_impl::Heap;
use crate::traverse::{reachable_set, LinearMap};
use crate::value::ObjId;
use crate::Result;

/// Runs a mark-sweep collection over `heap`, treating `roots` as the root
/// set. The mark bitmap is a dense bitset (one bit per arena slot), so
/// marking does no hashing and no per-object allocation. Returns the
/// number of objects freed.
///
/// # Errors
/// Propagates dangling-reference errors (a root that was already freed).
pub fn mark_sweep(heap: &mut Heap, roots: &[ObjId]) -> Result<usize> {
    let marked = reachable_set(heap, roots)?;
    let all: Vec<ObjId> = heap.iter().map(|(id, _)| id).collect();
    let mut freed = 0;
    for id in all {
        if !marked.contains(id) {
            heap.free(id)?;
            freed += 1;
        }
    }
    Ok(freed)
}

/// Frees every object born after epoch `mark` (see [`Heap::epoch`])
/// that nothing reaches any more — the per-call reclaim of a stateless
/// server, whose copy of a call's arguments dies with the call.
///
/// The live set of the newer objects is what `roots` reach through them,
/// plus what older objects reach: an object born at or before `mark` can
/// only have come to point at a newer one through a write stamped after
/// `mark`, so those written older objects are roots too and tracing
/// never descends into the older graph. The cost is one scan of the
/// arena plus the newer objects' edges, and nothing at all (not even
/// collecting `roots`) when no object was born since `mark`. Returns the
/// number freed. A root or reference that is no longer live is skipped.
pub fn sweep_born_since(
    heap: &mut Heap,
    mark: u64,
    roots: impl IntoIterator<Item = ObjId>,
) -> usize {
    if heap.last_born() <= mark {
        return 0;
    }
    let mut born = Vec::new();
    let mut stack: Vec<ObjId> = roots.into_iter().collect();
    for (id, obj) in heap.iter() {
        if obj.born() > mark {
            born.push(id);
        } else if obj.version() > mark {
            stack.extend(obj.outgoing_refs());
        }
    }
    if born.is_empty() {
        return 0;
    }
    let mut reached = DenseObjSet::with_capacity(heap.slot_limit());
    while let Some(id) = stack.pop() {
        if heap.born_if_live(id).is_some_and(|b| b > mark) && reached.insert(id) {
            let obj = heap.get(id).expect("probed live just above");
            stack.extend(obj.outgoing_refs());
        }
    }
    let mut freed = 0;
    for id in born {
        if !reached.contains(id) {
            heap.free(id).expect("enumerated live, freed once");
            freed += 1;
        }
    }
    freed
}

/// A reference-counting space over a subset of a heap's objects.
///
/// Counts are per tracked object: one per incoming reference from another
/// *tracked* object, plus one per external pin (a client-held stub, in
/// DGC terms). When a count reaches zero the object is freed and its
/// outgoing references released transitively. Cycles keep each other's
/// counts above zero forever — exactly RMI DGC's limitation.
#[derive(Debug, Default)]
pub struct RcSpace {
    counts: HashMap<ObjId, u32>,
}

impl RcSpace {
    /// Creates an empty space.
    pub fn new() -> Self {
        RcSpace::default()
    }

    /// Tracks the whole subgraph reachable from `root`: every reachable
    /// object gets a count equal to its in-degree within the subgraph,
    /// and `root` additionally receives one external pin.
    ///
    /// # Errors
    /// Propagates dangling-reference errors.
    pub fn track_graph(&mut self, heap: &Heap, root: ObjId) -> Result<()> {
        let map = LinearMap::build(heap, &[root])?;
        for &id in map.order() {
            self.counts.entry(id).or_insert(0);
        }
        for &id in map.order() {
            let obj = heap.get(id)?;
            for target in obj.outgoing_refs() {
                if let Some(c) = self.counts.get_mut(&target) {
                    *c += 1;
                }
            }
        }
        self.pin(root);
        Ok(())
    }

    /// Adds an external pin (e.g. a remote stub was handed out).
    pub fn pin(&mut self, id: ObjId) {
        *self.counts.entry(id).or_insert(0) += 1;
    }

    /// Removes an external pin; frees the object (and releases its
    /// outgoing references transitively) if its count reaches zero.
    /// Returns the number of objects freed.
    ///
    /// # Errors
    /// Propagates dangling-reference errors from the underlying heap.
    pub fn unpin(&mut self, heap: &mut Heap, id: ObjId) -> Result<usize> {
        let mut freed = 0;
        let mut worklist = vec![id];
        while let Some(cur) = worklist.pop() {
            let Some(count) = self.counts.get_mut(&cur) else {
                continue; // not tracked by this space
            };
            debug_assert!(*count > 0, "unbalanced unpin for {cur}");
            *count -= 1;
            if *count == 0 {
                self.counts.remove(&cur);
                let outgoing: Vec<ObjId> = heap.get(cur)?.outgoing_refs().collect();
                heap.free(cur)?;
                freed += 1;
                worklist.extend(outgoing);
            }
        }
        Ok(freed)
    }

    /// Number of objects still tracked (i.e. not yet reclaimed).
    pub fn tracked(&self) -> usize {
        self.counts.len()
    }

    /// The current count for `id`, if tracked.
    pub fn count_of(&self, id: ObjId) -> Option<u32> {
        self.counts.get(&id).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{self, TreeClasses};
    use crate::{ClassRegistry, HeapAccess, Value};

    fn setup() -> (Heap, TreeClasses) {
        let mut reg = ClassRegistry::new();
        let classes = tree::register_tree_classes(&mut reg);
        (Heap::new(reg.snapshot()), classes)
    }

    #[test]
    fn mark_sweep_frees_unreachable_only() {
        let (mut heap, classes) = setup();
        let keep = tree::build_random_tree(&mut heap, &classes, 8, 1).unwrap();
        let _garbage = tree::build_random_tree(&mut heap, &classes, 5, 2).unwrap();
        let freed = mark_sweep(&mut heap, &[keep]).unwrap();
        assert_eq!(freed, 5);
        assert_eq!(heap.live_count(), 8);
        assert!(heap.contains(keep));
    }

    #[test]
    fn mark_sweep_collects_unreachable_cycles() {
        let (mut heap, classes) = setup();
        let a = heap.alloc_default(classes.tree).unwrap();
        let b = heap.alloc_default(classes.tree).unwrap();
        heap.set_field(a, "left", Value::Ref(b)).unwrap();
        heap.set_field(b, "left", Value::Ref(a)).unwrap();
        let keep = heap.alloc_default(classes.tree).unwrap();
        let freed = mark_sweep(&mut heap, &[keep]).unwrap();
        assert_eq!(freed, 2, "tracing GC reclaims the cycle");
        assert_eq!(heap.live_count(), 1);
    }

    #[test]
    fn sweep_born_since_frees_only_unreached_newer_objects() {
        let (mut heap, classes) = setup();
        let old_kept = heap.alloc_default(classes.tree).unwrap();
        let old_garbage = heap.alloc_default(classes.tree).unwrap();
        let mark = heap.epoch();
        // Newer objects: one a root reaches, one an older object was
        // written to point at, a chain hanging off it, and a garbage
        // cycle.
        let rooted = heap.alloc_default(classes.tree).unwrap();
        let linked = heap.alloc_default(classes.tree).unwrap();
        let chained = heap.alloc_default(classes.tree).unwrap();
        heap.set_field(linked, "left", Value::Ref(chained)).unwrap();
        heap.set_field(old_kept, "left", Value::Ref(linked))
            .unwrap();
        let a = heap.alloc_default(classes.tree).unwrap();
        let b = heap.alloc_default(classes.tree).unwrap();
        heap.set_field(a, "left", Value::Ref(b)).unwrap();
        heap.set_field(b, "left", Value::Ref(a)).unwrap();

        let freed = sweep_born_since(&mut heap, mark, [rooted]);
        assert_eq!(freed, 2, "only the newer cycle is garbage");
        for id in [old_kept, old_garbage, rooted, linked, chained] {
            assert!(heap.contains(id), "{id} must survive");
        }
        assert!(!heap.contains(a) && !heap.contains(b));
        let latest = heap.epoch();
        assert_eq!(
            sweep_born_since(&mut heap, latest, []),
            0,
            "nothing born since the latest epoch"
        );
    }

    #[test]
    fn rc_space_reclaims_acyclic_graph() {
        let (mut heap, classes) = setup();
        let root = tree::build_random_tree(&mut heap, &classes, 16, 3).unwrap();
        let mut rc = RcSpace::new();
        rc.track_graph(&heap, root).unwrap();
        assert_eq!(rc.tracked(), 16);
        let freed = rc.unpin(&mut heap, root).unwrap();
        assert_eq!(freed, 16, "acyclic graph fully reclaimed by refcounting");
        assert_eq!(heap.live_count(), 0);
        assert_eq!(rc.tracked(), 0);
    }

    #[test]
    fn rc_space_with_shared_node_needs_both_releases() {
        let (mut heap, classes) = setup();
        let shared = heap.alloc_default(classes.tree).unwrap();
        let root = heap
            .alloc(
                classes.tree,
                vec![Value::Int(0), Value::Ref(shared), Value::Ref(shared)],
            )
            .unwrap();
        let mut rc = RcSpace::new();
        rc.track_graph(&heap, root).unwrap();
        assert_eq!(rc.count_of(shared), Some(2), "in-degree 2");
        let freed = rc.unpin(&mut heap, root).unwrap();
        assert_eq!(
            freed, 2,
            "both root and shared reclaimed (both refs released)"
        );
    }

    #[test]
    fn rc_space_leaks_cycles_like_rmi_dgc() {
        let (mut heap, classes) = setup();
        let a = heap.alloc_default(classes.tree).unwrap();
        let b = heap.alloc_default(classes.tree).unwrap();
        heap.set_field(a, "left", Value::Ref(b)).unwrap();
        heap.set_field(b, "left", Value::Ref(a)).unwrap();
        let mut rc = RcSpace::new();
        rc.track_graph(&heap, a).unwrap();
        // Release the only external pin: the internal cycle keeps both
        // counts at 1, so NOTHING is reclaimed — the Table 6 leak.
        let freed = rc.unpin(&mut heap, a).unwrap();
        assert_eq!(freed, 0, "reference counting cannot reclaim the cycle");
        assert_eq!(heap.live_count(), 2);
        assert_eq!(rc.tracked(), 2);
        // A tracing collection over the same heap reclaims it.
        let traced = mark_sweep(&mut heap, &[]).unwrap();
        assert_eq!(traced, 2);
    }

    #[test]
    fn pin_unpin_balance() {
        let (mut heap, classes) = setup();
        let obj = heap.alloc_default(classes.tree).unwrap();
        let mut rc = RcSpace::new();
        rc.pin(obj);
        rc.pin(obj);
        assert_eq!(rc.count_of(obj), Some(2));
        assert_eq!(rc.unpin(&mut heap, obj).unwrap(), 0);
        assert_eq!(rc.unpin(&mut heap, obj).unwrap(), 1);
        assert!(!heap.contains(obj));
    }
}
