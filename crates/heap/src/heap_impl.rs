//! The managed heap: an arena of objects addressed by stable handles.

use std::fmt;

use crate::class::{ClassId, SharedRegistry};
use crate::error::HeapError;
use crate::object::{Object, ObjectBody};
use crate::value::{ObjId, Value};
use crate::Result;

/// Uniform object access used by server code.
///
/// The paper's server routines run "at full speed" against the local copy
/// under call-by-copy/copy-restore, but under call-by-reference every
/// field access crosses the network (Figure 3). Writing services against
/// this trait lets the *same* service body run in both worlds: [`Heap`]
/// implements it with direct slot access, while `nrmi-core`'s remote-heap
/// proxy implements it with request/reply messages — which is precisely
/// how the paper measures the cost gap in Table 6.
///
/// Methods take `&mut self` even for reads because the proxy
/// implementation performs I/O.
pub trait HeapAccess {
    /// Reads field `field` (by declaration index) of object `obj`.
    ///
    /// # Errors
    /// Returns an error for dangling handles or out-of-range indices.
    fn get_field_raw(&mut self, obj: ObjId, field: usize) -> Result<Value>;

    /// Writes field `field` (by declaration index) of object `obj`.
    ///
    /// # Errors
    /// Returns an error for dangling handles, out-of-range indices, or
    /// type-mismatched values.
    fn set_field_raw(&mut self, obj: ObjId, field: usize, value: Value) -> Result<()>;

    /// Allocates an object of class `class` with the given field values.
    ///
    /// # Errors
    /// Returns an error for unknown classes or arity/type mismatches.
    fn alloc_raw(&mut self, class: ClassId, fields: Vec<Value>) -> Result<ObjId>;

    /// Allocates an array of class `class` with the given elements.
    ///
    /// # Errors
    /// Returns an error if `class` is not an array class.
    fn alloc_array_raw(&mut self, class: ClassId, elements: Vec<Value>) -> Result<ObjId>;

    /// Returns the class of `obj`.
    ///
    /// # Errors
    /// Returns an error for dangling handles.
    fn class_of(&mut self, obj: ObjId) -> Result<ClassId>;

    /// Returns the number of slots (fields or array elements) of `obj`.
    ///
    /// # Errors
    /// Returns an error for dangling handles.
    fn slot_count(&mut self, obj: ObjId) -> Result<usize>;

    /// Reads array element `index` of `obj`.
    ///
    /// # Errors
    /// Returns an error for dangling handles, non-arrays, or bad indices.
    fn get_element(&mut self, obj: ObjId, index: usize) -> Result<Value>;

    /// Writes array element `index` of `obj`.
    ///
    /// # Errors
    /// Returns an error for dangling handles, non-arrays, or bad indices.
    fn set_element(&mut self, obj: ObjId, index: usize, value: Value) -> Result<()>;

    /// The shared class registry this access path resolves names against.
    fn registry(&self) -> &SharedRegistry;

    /// Reads a field by name. Provided in terms of the raw accessors.
    ///
    /// # Errors
    /// As [`HeapAccess::get_field_raw`], plus unknown field names.
    fn get_field(&mut self, obj: ObjId, field: &str) -> Result<Value> {
        let class = self.class_of(obj)?;
        let idx = self.registry().get(class)?.field_index(field)?;
        self.get_field_raw(obj, idx)
    }

    /// Writes a field by name. Provided in terms of the raw accessors.
    ///
    /// # Errors
    /// As [`HeapAccess::set_field_raw`], plus unknown field names.
    fn set_field(&mut self, obj: ObjId, field: &str, value: Value) -> Result<()> {
        let class = self.class_of(obj)?;
        let idx = self.registry().get(class)?.field_index(field)?;
        self.set_field_raw(obj, idx, value)
    }

    /// Reads a reference-typed field, returning `None` for null.
    ///
    /// # Errors
    /// As [`HeapAccess::get_field`].
    fn get_ref(&mut self, obj: ObjId, field: &str) -> Result<Option<ObjId>> {
        Ok(self.get_field(obj, field)?.as_ref_id())
    }
}

/// Allocation and mutation statistics, used both by tests and by the
/// simulated cost model (e.g. Table 6's memory-growth observation).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Objects allocated over the heap's lifetime.
    pub allocations: u64,
    /// Objects freed (by GC or explicit free).
    pub frees: u64,
    /// Field/element writes performed.
    pub writes: u64,
    /// Field/element reads performed.
    pub reads: u64,
    /// High-water mark of [`live`](HeapStats::live): the most objects
    /// the heap has held at once.
    pub peak_live: u64,
}

impl HeapStats {
    /// Objects currently live (allocations minus frees).
    pub fn live(&self) -> u64 {
        self.allocations - self.frees
    }
}

/// An arena of objects addressed by stable [`ObjId`] handles.
///
/// Slots of freed objects are recycled via a free list; handles to freed
/// slots are detected as dangling (`Option` slots), which keeps the
/// substrate honest about use-after-free bugs in middleware code.
pub struct Heap {
    registry: SharedRegistry,
    slots: Vec<Option<Object>>,
    free: Vec<u32>,
    stats: HeapStats,
    epoch: u64,
    /// The epoch of the latest allocation: lets a per-call sweep see in
    /// O(1) that a call allocated nothing.
    last_born: u64,
    #[cfg(feature = "sanitize")]
    shadow: crate::sanitize::Shadow,
}

impl fmt::Debug for Heap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Heap")
            .field("live", &self.stats.live())
            .field("slots", &self.slots.len())
            .field("classes", &self.registry.len())
            .finish()
    }
}

impl Heap {
    /// Creates an empty heap bound to a class registry snapshot.
    pub fn new(registry: SharedRegistry) -> Self {
        Heap {
            registry,
            slots: Vec::new(),
            free: Vec::new(),
            stats: HeapStats::default(),
            epoch: 0,
            last_born: 0,
            #[cfg(feature = "sanitize")]
            shadow: crate::sanitize::Shadow::new(),
        }
    }

    /// Builds a handle for slot `index` carrying this heap's current
    /// provenance (a no-op wrapper around the index in normal builds).
    fn handle(&self, index: u32) -> ObjId {
        ObjId {
            index,
            #[cfg(feature = "sanitize")]
            heap_tag: self.shadow.tag,
            #[cfg(feature = "sanitize")]
            alloc_gen: self.shadow.gen_of(index as usize),
        }
    }

    /// Traps sanitizer-visible misuse of `id` before a checked operation.
    ///
    /// Freed-but-unrecycled slots are *not* trapped here: they surface as
    /// the ordinary [`HeapError::DanglingRef`] so error-path semantics are
    /// identical with and without the feature.
    #[cfg(feature = "sanitize")]
    fn sanitize_check(&self, id: ObjId, op: &str) {
        if id.heap_tag != 0 && id.heap_tag != self.shadow.tag {
            panic!(
                "NRMI-Z002 cross-heap handle confusion: `{op}` on {id} issued by heap \
                 #{issuer} but applied to heap #{this}",
                issuer = id.heap_tag,
                this = self.shadow.tag,
            );
        }
        if id.heap_tag == self.shadow.tag && id.alloc_gen != 0 {
            let idx = id.index as usize;
            let live = self.slots.get(idx).is_some_and(Option::is_some);
            let current = self.shadow.gen_of(idx);
            if live && current != id.alloc_gen {
                panic!(
                    "NRMI-Z001 use-after-GC: `{op}` on {id} (allocation generation \
                     {stale}) reached a recycled slot now owned by generation {current}",
                    stale = id.alloc_gen,
                );
            }
        }
    }

    /// The heap's mutation clock: a monotone counter advanced by every
    /// allocation and every slot write. Each object remembers the epoch
    /// of its last mutation ([`Heap::version_of`]); comparing versions
    /// against a remembered epoch yields the dirty subset of a graph in
    /// O(objects) with no slot diffing — the basis of warm-call request
    /// deltas and of reply deltas.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The epoch at which `id` was last allocated or mutated.
    ///
    /// # Errors
    /// [`HeapError::DanglingRef`] if `id` is freed or unallocated.
    pub fn version_of(&self, id: ObjId) -> Result<u64> {
        Ok(self.get(id)?.version)
    }

    /// The epoch of the latest allocation (0 before the first).
    pub(crate) fn last_born(&self) -> u64 {
        self.last_born
    }

    /// Advances the clock and returns the new stamp for a mutation.
    fn tick(&mut self) -> u64 {
        self.epoch += 1;
        self.epoch
    }

    /// The registry this heap resolves classes against.
    pub fn registry_handle(&self) -> &SharedRegistry {
        &self.registry
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> HeapStats {
        self.stats
    }

    /// Number of live objects.
    pub fn live_count(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Exclusive upper bound on every live [`ObjId::index`]: the arena's
    /// high-water mark. Sizes dense id-indexed structures
    /// ([`crate::densemap`]) so they never grow mid-traversal.
    pub fn slot_limit(&self) -> usize {
        self.slots.len()
    }

    /// Iterates over `(id, object)` pairs for all live objects, in slot
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (ObjId, &Object)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|o| (self.handle(i as u32), o)))
    }

    /// Borrows the object behind `id`.
    ///
    /// # Errors
    /// [`HeapError::DanglingRef`] if `id` is freed or unallocated.
    pub fn get(&self, id: ObjId) -> Result<&Object> {
        #[cfg(feature = "sanitize")]
        self.sanitize_check(id, "get");
        self.slots
            .get(id.index as usize)
            .and_then(Option::as_ref)
            .ok_or(HeapError::DanglingRef(id.index))
    }

    fn get_mut(&mut self, id: ObjId) -> Result<&mut Object> {
        #[cfg(feature = "sanitize")]
        self.sanitize_check(id, "get_mut");
        self.slots
            .get_mut(id.index as usize)
            .and_then(Option::as_mut)
            .ok_or(HeapError::DanglingRef(id.index))
    }

    /// True if `id` refers to a live object.
    ///
    /// This is a liveness *probe*, not a dereference: it is exempt from
    /// `sanitize`-mode provenance checks so callers may test handles that
    /// are allowed to have gone stale (the warm-call cache does).
    pub fn contains(&self, id: ObjId) -> bool {
        self.slots
            .get(id.index as usize)
            .is_some_and(Option::is_some)
    }

    /// The class of the object currently occupying `id`'s slot, or `None`
    /// if the slot is empty.
    ///
    /// Like [`Heap::contains`] this is a probe over possibly-stale
    /// handles (exempt from `sanitize` checks): the occupant may not be
    /// the object `id` was issued for. The warm-call classifier uses this
    /// to treat class-changed slots as freed.
    pub fn class_if_live(&self, id: ObjId) -> Option<ClassId> {
        self.slots
            .get(id.index as usize)
            .and_then(Option::as_ref)
            .map(Object::class)
    }

    /// The mutation version of the object currently occupying `id`'s
    /// slot, or `None` if the slot is empty.
    ///
    /// Probe semantics, as [`Heap::class_if_live`]: recycled slots report
    /// the *new* occupant's version, which is strictly newer than any
    /// epoch observed before the recycling — so stale-epoch comparisons
    /// see reuse as dirty, never as clean.
    pub fn version_if_live(&self, id: ObjId) -> Option<u64> {
        self.slots
            .get(id.index as usize)
            .and_then(Option::as_ref)
            .map(|o| o.version)
    }

    /// The allocation epoch of the object currently occupying `id`'s
    /// slot, or `None` if the slot is empty.
    ///
    /// Probe semantics, as [`Heap::version_if_live`]. An occupant born
    /// *after* a version the caller recorded for `id` proves the slot
    /// was freed and recycled in between — the recorded object is gone,
    /// whatever now answers the probe. The coherence protocol uses this
    /// to tell a repairable mutation from an unrepairable recycle
    /// without dereferencing (which `sanitize` builds trap on recycled
    /// slots).
    pub fn born_if_live(&self, id: ObjId) -> Option<u64> {
        self.slots
            .get(id.index as usize)
            .and_then(Option::as_ref)
            .map(|o| o.born)
    }

    fn place(&mut self, mut obj: Object) -> ObjId {
        self.stats.allocations += 1;
        self.stats.peak_live = self.stats.peak_live.max(self.stats.live());
        obj.version = self.tick();
        obj.born = obj.version;
        self.last_born = obj.born;
        let index = if let Some(idx) = self.free.pop() {
            self.slots[idx as usize] = Some(obj);
            idx
        } else {
            self.slots.push(Some(obj));
            (self.slots.len() - 1) as u32
        };
        #[cfg(feature = "sanitize")]
        self.shadow.on_place(index as usize);
        self.handle(index)
    }

    /// Allocates an object, validating arity and field types against the
    /// class descriptor.
    ///
    /// # Errors
    /// [`HeapError::UnknownClass`], [`HeapError::ArityMismatch`] or
    /// [`HeapError::TypeMismatch`].
    pub fn alloc(&mut self, class: ClassId, fields: Vec<Value>) -> Result<ObjId> {
        let desc = self.registry.get(class)?;
        if desc.flags().array {
            return Err(HeapError::NotAnArray(desc.name().to_owned()));
        }
        if fields.len() != desc.field_count() {
            return Err(HeapError::ArityMismatch {
                class: desc.name().to_owned(),
                expected: desc.field_count(),
                found: fields.len(),
            });
        }
        for (fd, v) in desc.fields().iter().zip(&fields) {
            if !fd.ty().admits(v) {
                return Err(HeapError::TypeMismatch {
                    class: desc.name().to_owned(),
                    field: fd.name().to_owned(),
                    expected: type_name(fd.ty()),
                    found: v.kind_name(),
                });
            }
        }
        Ok(self.place(Object::new(class, fields)))
    }

    /// Allocates an object with all fields set to their type defaults.
    ///
    /// # Errors
    /// [`HeapError::UnknownClass`] or [`HeapError::NotAnArray`].
    pub fn alloc_default(&mut self, class: ClassId) -> Result<ObjId> {
        let desc = self.registry.get(class)?;
        let fields = desc
            .fields()
            .iter()
            .map(|f| f.ty().default_value())
            .collect();
        self.alloc(class, fields)
    }

    /// Allocates an array object.
    ///
    /// # Errors
    /// [`HeapError::NotAnArray`] if `class` is not an array class, or
    /// [`HeapError::TypeMismatch`] for elements of the wrong type.
    pub fn alloc_array(&mut self, class: ClassId, elements: Vec<Value>) -> Result<ObjId> {
        let desc = self.registry.get(class)?;
        let Some(elem_ty) = desc.element_type() else {
            return Err(HeapError::NotAnArray(desc.name().to_owned()));
        };
        for v in &elements {
            if !elem_ty.admits(v) {
                return Err(HeapError::TypeMismatch {
                    class: desc.name().to_owned(),
                    field: "[]".to_owned(),
                    expected: type_name(elem_ty),
                    found: v.kind_name(),
                });
            }
        }
        Ok(self.place(Object::new_array(class, elements)))
    }

    /// Frees the object behind `id`, recycling its slot.
    ///
    /// # Errors
    /// [`HeapError::DanglingRef`] if already freed.
    pub fn free(&mut self, id: ObjId) -> Result<()> {
        #[cfg(feature = "sanitize")]
        self.sanitize_check(id, "free");
        let slot = self
            .slots
            .get_mut(id.index as usize)
            .ok_or(HeapError::DanglingRef(id.index))?;
        if slot.take().is_none() {
            return Err(HeapError::DanglingRef(id.index));
        }
        self.stats.frees += 1;
        self.free.push(id.index);
        Ok(())
    }

    /// Checks that [`Heap::overwrite_from`] of `len` values onto `id`
    /// would succeed, without writing: the object is live and `len` is
    /// its arity. Arrays may change length server-side, so any `len`
    /// fits an array. Lets a caller validate a batch of overwrites before
    /// committing the first.
    ///
    /// # Errors
    /// Dangling handles or arity mismatches.
    pub fn check_overwrite(&self, id: ObjId, len: usize) -> Result<()> {
        let body = self.get(id)?.body();
        if body.len() == len || matches!(body, ObjectBody::Array(_)) {
            return Ok(());
        }
        Err(HeapError::ArityMismatch {
            class: String::from("<overwrite>"),
            expected: body.len(),
            found: len,
        })
    }

    /// Replaces every field slot of `id` with `values` (same arity), used
    /// by the restore algorithm's overwrite step (step 5).
    ///
    /// # Errors
    /// As [`Heap::check_overwrite`]; nothing is written on error.
    pub fn overwrite_slots(&mut self, id: ObjId, values: Vec<Value>) -> Result<()> {
        self.overwrite_from(id, &values)
    }

    /// [`Heap::overwrite_slots`] from borrowed values, so a caller can
    /// stage many objects' slots in one buffer.
    ///
    /// # Errors
    /// As [`Heap::check_overwrite`]; nothing is written on error.
    pub fn overwrite_from(&mut self, id: ObjId, values: &[Value]) -> Result<()> {
        self.check_overwrite(id, values.len())?;
        self.stats.writes += 1;
        let stamp = self.tick();
        let obj = self.get_mut(id)?;
        obj.version = stamp;
        match &mut obj.body {
            ObjectBody::Array(v) if v.len() != values.len() => *v = values.to_vec(),
            body => body.slots_mut().clone_from_slice(values),
        }
        Ok(())
    }

    /// Allocates a remote-stub object proxying the peer's object `key`.
    ///
    /// # Errors
    /// Propagates allocation errors.
    pub fn alloc_stub(&mut self, key: u64) -> Result<ObjId> {
        let class = self.registry.stub_class();
        self.alloc(class, vec![Value::Long(key as i64)])
    }

    /// If `id` is a remote stub, returns the peer export key it carries.
    ///
    /// # Errors
    /// [`HeapError::DanglingRef`].
    pub fn stub_key(&self, id: ObjId) -> Result<Option<u64>> {
        let obj = self.get(id)?;
        let desc = self.registry.get(obj.class())?;
        if desc.flags().stub {
            Ok(obj
                .body()
                .slots()
                .first()
                .and_then(Value::as_long)
                .map(|k| k as u64))
        } else {
            Ok(None)
        }
    }

    /// Clones the full slot vector of `id`.
    ///
    /// # Errors
    /// [`HeapError::DanglingRef`].
    pub fn slots_of(&self, id: ObjId) -> Result<Vec<Value>> {
        Ok(self.get(id)?.body().slots().to_vec())
    }

    /// Rewrites every reference slot of `id` through `map`; slots whose
    /// target is absent from `map` are left unchanged. Used by restore
    /// step 6 (pointer conversion new → old).
    ///
    /// # Errors
    /// [`HeapError::DanglingRef`].
    pub fn rewrite_refs(
        &mut self,
        id: ObjId,
        map: &std::collections::HashMap<ObjId, ObjId>,
    ) -> Result<()> {
        self.rewrite_refs_with(id, |target| map.get(&target).copied())
    }

    /// As [`rewrite_refs`](Heap::rewrite_refs), but resolving each
    /// reference through `lookup` — lets callers translate through dense
    /// tables without materializing a `HashMap`.
    ///
    /// # Errors
    /// [`HeapError::DanglingRef`].
    pub fn rewrite_refs_with(
        &mut self,
        id: ObjId,
        lookup: impl Fn(ObjId) -> Option<ObjId>,
    ) -> Result<()> {
        self.stats.writes += 1;
        let stamp = self.tick();
        let obj = self.get_mut(id)?;
        obj.version = stamp;
        for slot in obj.body.slots_mut() {
            if let Value::Ref(target) = slot {
                if let Some(new_target) = lookup(*target) {
                    *slot = Value::Ref(new_target);
                }
            }
        }
        Ok(())
    }
}

fn type_name(ty: crate::class::FieldType) -> &'static str {
    use crate::class::FieldType;
    match ty {
        FieldType::Bool => "bool",
        FieldType::Int => "int",
        FieldType::Long => "long",
        FieldType::Double => "double",
        FieldType::Str => "str",
        FieldType::Ref => "ref",
        FieldType::Any => "any",
    }
}

impl HeapAccess for Heap {
    fn get_field_raw(&mut self, obj: ObjId, field: usize) -> Result<Value> {
        self.stats.reads += 1;
        let o = self.get(obj)?;
        o.body()
            .slots()
            .get(field)
            .cloned()
            .ok_or_else(|| HeapError::FieldIndexOutOfBounds {
                class: class_name(&self.registry, o.class()),
                index: field,
                len: o.body().len(),
            })
    }

    fn set_field_raw(&mut self, obj: ObjId, field: usize, value: Value) -> Result<()> {
        self.stats.writes += 1;
        let registry = self.registry.clone();
        let stamp = self.tick();
        let o = self.get_mut(obj)?;
        let class = o.class();
        let len = o.body().len();
        // Type-check ordinary fields; array classes have no descriptors.
        if !o.is_array() {
            let desc = registry.get(class)?;
            let fd = desc
                .fields()
                .get(field)
                .ok_or(HeapError::FieldIndexOutOfBounds {
                    class: desc.name().to_owned(),
                    index: field,
                    len,
                })?;
            if !fd.ty().admits(&value) {
                return Err(HeapError::TypeMismatch {
                    class: desc.name().to_owned(),
                    field: fd.name().to_owned(),
                    expected: type_name(fd.ty()),
                    found: value.kind_name(),
                });
            }
        }
        let slot = o
            .body
            .slots_mut()
            .get_mut(field)
            .ok_or(HeapError::FieldIndexOutOfBounds {
                class: class_name(&registry, class),
                index: field,
                len,
            })?;
        *slot = value;
        o.version = stamp;
        Ok(())
    }

    fn alloc_raw(&mut self, class: ClassId, fields: Vec<Value>) -> Result<ObjId> {
        self.alloc(class, fields)
    }

    fn alloc_array_raw(&mut self, class: ClassId, elements: Vec<Value>) -> Result<ObjId> {
        self.alloc_array(class, elements)
    }

    fn class_of(&mut self, obj: ObjId) -> Result<ClassId> {
        Ok(self.get(obj)?.class())
    }

    fn slot_count(&mut self, obj: ObjId) -> Result<usize> {
        Ok(self.get(obj)?.body().len())
    }

    fn get_element(&mut self, obj: ObjId, index: usize) -> Result<Value> {
        self.stats.reads += 1;
        let o = self.get(obj)?;
        if !o.is_array() {
            return Err(HeapError::NotAnArray(class_name(&self.registry, o.class())));
        }
        o.body()
            .slots()
            .get(index)
            .cloned()
            .ok_or(HeapError::ArrayIndexOutOfBounds {
                index,
                len: o.body().len(),
            })
    }

    fn set_element(&mut self, obj: ObjId, index: usize, value: Value) -> Result<()> {
        self.stats.writes += 1;
        let registry = self.registry.clone();
        let stamp = self.tick();
        let o = self.get_mut(obj)?;
        if !o.is_array() {
            return Err(HeapError::NotAnArray(class_name(&registry, o.class())));
        }
        let len = o.body().len();
        let slot = o
            .body
            .slots_mut()
            .get_mut(index)
            .ok_or(HeapError::ArrayIndexOutOfBounds { index, len })?;
        *slot = value;
        o.version = stamp;
        Ok(())
    }

    fn registry(&self) -> &SharedRegistry {
        &self.registry
    }
}

fn class_name(registry: &SharedRegistry, class: ClassId) -> String {
    registry
        .get(class)
        .map(|d| d.name().to_owned())
        .unwrap_or_else(|_| format!("<class:{}>", class.index()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClassRegistry, FieldType};

    fn tree_setup() -> (SharedRegistry, ClassId) {
        let mut reg = ClassRegistry::new();
        let tree = reg
            .define("Tree")
            .field_int("data")
            .field_ref("left")
            .field_ref("right")
            .restorable()
            .register();
        (reg.snapshot(), tree)
    }

    #[test]
    fn alloc_get_set_roundtrip() {
        let (reg, tree) = tree_setup();
        let mut heap = Heap::new(reg);
        let leaf = heap
            .alloc(tree, vec![Value::Int(7), Value::Null, Value::Null])
            .unwrap();
        let root = heap
            .alloc(tree, vec![Value::Int(1), Value::Ref(leaf), Value::Null])
            .unwrap();
        assert_eq!(heap.get_field(root, "data").unwrap(), Value::Int(1));
        assert_eq!(heap.get_ref(root, "left").unwrap(), Some(leaf));
        heap.set_field(root, "data", Value::Int(9)).unwrap();
        assert_eq!(heap.get_field(root, "data").unwrap(), Value::Int(9));
        assert_eq!(heap.live_count(), 2);
    }

    #[test]
    fn aliasing_two_handles_same_object() {
        let (reg, tree) = tree_setup();
        let mut heap = Heap::new(reg);
        let shared = heap.alloc_default(tree).unwrap();
        let a = heap
            .alloc(tree, vec![Value::Int(1), Value::Ref(shared), Value::Null])
            .unwrap();
        let b = heap
            .alloc(tree, vec![Value::Int(2), Value::Ref(shared), Value::Null])
            .unwrap();
        // Mutation through one alias is visible through the other.
        heap.set_field(shared, "data", Value::Int(42)).unwrap();
        let via_a = heap.get_ref(a, "left").unwrap().unwrap();
        let via_b = heap.get_ref(b, "left").unwrap().unwrap();
        assert_eq!(via_a, via_b);
        assert_eq!(heap.get_field(via_a, "data").unwrap(), Value::Int(42));
    }

    #[test]
    fn arity_and_type_validation() {
        let (reg, tree) = tree_setup();
        let mut heap = Heap::new(reg);
        assert!(matches!(
            heap.alloc(tree, vec![Value::Int(1)]),
            Err(HeapError::ArityMismatch { .. })
        ));
        assert!(matches!(
            heap.alloc(tree, vec![Value::Str("x".into()), Value::Null, Value::Null]),
            Err(HeapError::TypeMismatch { .. })
        ));
        let obj = heap.alloc_default(tree).unwrap();
        assert!(matches!(
            heap.set_field(obj, "data", Value::Null),
            Err(HeapError::TypeMismatch { .. })
        ));
        assert!(matches!(
            heap.set_field(obj, "nope", Value::Int(1)),
            Err(HeapError::NoSuchField { .. })
        ));
    }

    #[test]
    fn free_and_dangling_detection() {
        let (reg, tree) = tree_setup();
        let mut heap = Heap::new(reg);
        let obj = heap.alloc_default(tree).unwrap();
        heap.free(obj).unwrap();
        assert!(matches!(heap.get(obj), Err(HeapError::DanglingRef(_))));
        assert!(matches!(heap.free(obj), Err(HeapError::DanglingRef(_))));
        assert!(!heap.contains(obj));
        // Slot is recycled.
        let again = heap.alloc_default(tree).unwrap();
        assert_eq!(again.index(), obj.index());
        assert_eq!(heap.stats().frees, 1);
        assert_eq!(heap.stats().allocations, 2);
        assert_eq!(heap.stats().live(), 1);
        assert_eq!(heap.stats().peak_live, 1, "never two live at once");
        let _third = heap.alloc_default(tree).unwrap();
        heap.free(again).unwrap();
        assert_eq!(heap.stats().live(), 1);
        assert_eq!(heap.stats().peak_live, 2, "the high-water mark stays");
    }

    #[test]
    fn arrays() {
        let mut reg = ClassRegistry::new();
        let arr = reg.define_array("int[]", FieldType::Int);
        let mut heap = Heap::new(reg.snapshot());
        let a = heap
            .alloc_array(arr, vec![Value::Int(1), Value::Int(2)])
            .unwrap();
        assert_eq!(heap.get_element(a, 1).unwrap(), Value::Int(2));
        heap.set_element(a, 0, Value::Int(9)).unwrap();
        assert_eq!(heap.get_element(a, 0).unwrap(), Value::Int(9));
        assert!(matches!(
            heap.get_element(a, 5),
            Err(HeapError::ArrayIndexOutOfBounds { .. })
        ));
        // Element type enforcement at alloc.
        assert!(matches!(
            heap.alloc_array(arr, vec![Value::Str("no".into())]),
            Err(HeapError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn array_ops_on_plain_object_fail() {
        let (reg, tree) = tree_setup();
        let mut heap = Heap::new(reg);
        let obj = heap.alloc_default(tree).unwrap();
        assert!(matches!(
            heap.get_element(obj, 0),
            Err(HeapError::NotAnArray(_))
        ));
        assert!(matches!(
            heap.set_element(obj, 0, Value::Int(1)),
            Err(HeapError::NotAnArray(_))
        ));
        // And alloc of a non-array class via alloc_array fails.
        assert!(matches!(
            heap.alloc_array(obj_class(&heap), vec![]),
            Err(HeapError::NotAnArray(_))
        ));
    }

    fn obj_class(heap: &Heap) -> ClassId {
        heap.registry_handle().by_name("Tree").unwrap()
    }

    #[test]
    fn overwrite_and_rewrite() {
        let (reg, tree) = tree_setup();
        let mut heap = Heap::new(reg);
        let a = heap.alloc_default(tree).unwrap();
        let b = heap.alloc_default(tree).unwrap();
        let c = heap.alloc_default(tree).unwrap();
        heap.overwrite_slots(a, vec![Value::Int(5), Value::Ref(b), Value::Null])
            .unwrap();
        assert_eq!(heap.get_ref(a, "left").unwrap(), Some(b));
        let mut map = std::collections::HashMap::new();
        map.insert(b, c);
        heap.rewrite_refs(a, &map).unwrap();
        assert_eq!(heap.get_ref(a, "left").unwrap(), Some(c));
        assert_eq!(heap.get_field(a, "data").unwrap(), Value::Int(5));
    }

    #[test]
    fn overwrite_array_may_resize() {
        let mut reg = ClassRegistry::new();
        let arr = reg.define_array("int[]", FieldType::Int);
        let mut heap = Heap::new(reg.snapshot());
        let a = heap.alloc_array(arr, vec![Value::Int(1)]).unwrap();
        heap.overwrite_slots(a, vec![Value::Int(1), Value::Int(2), Value::Int(3)])
            .unwrap();
        assert_eq!(heap.slot_count(a).unwrap(), 3);
    }

    #[test]
    fn versions_track_mutations() {
        let (reg, tree) = tree_setup();
        let mut heap = Heap::new(reg);
        let a = heap.alloc_default(tree).unwrap();
        let b = heap.alloc_default(tree).unwrap();
        let mark = heap.epoch();
        // Nothing mutated since `mark`: both versions are at or below it.
        assert!(heap.version_of(a).unwrap() <= mark);
        assert!(heap.version_of(b).unwrap() <= mark);
        heap.set_field(b, "data", Value::Int(5)).unwrap();
        assert!(
            heap.version_of(a).unwrap() <= mark,
            "untouched object stays clean"
        );
        assert!(
            heap.version_of(b).unwrap() > mark,
            "write stamps the target"
        );
        assert!(heap.epoch() > mark, "the clock is monotone");
        // Every mutation path stamps: overwrite_slots and rewrite_refs.
        let m2 = heap.epoch();
        heap.overwrite_slots(a, vec![Value::Int(1), Value::Null, Value::Null])
            .unwrap();
        assert!(heap.version_of(a).unwrap() > m2);
        let m3 = heap.epoch();
        heap.rewrite_refs(a, &std::collections::HashMap::new())
            .unwrap();
        assert!(heap.version_of(a).unwrap() > m3);
        // A recycled slot gets a fresh (higher) version, so stale-epoch
        // comparisons see reuse as dirty, never as clean.
        let m4 = heap.epoch();
        heap.free(b).unwrap();
        let b2 = heap.alloc_default(tree).unwrap();
        assert_eq!(b2.index(), b.index());
        assert!(heap.version_of(b2).unwrap() > m4);
    }

    #[test]
    fn version_of_dangling_errors() {
        let (reg, tree) = tree_setup();
        let mut heap = Heap::new(reg);
        let a = heap.alloc_default(tree).unwrap();
        heap.free(a).unwrap();
        assert!(matches!(heap.version_of(a), Err(HeapError::DanglingRef(_))));
    }

    #[test]
    fn debug_is_nonempty() {
        let (reg, _) = tree_setup();
        let heap = Heap::new(reg);
        assert!(!format!("{heap:?}").is_empty());
    }
}
