//! The export table: a node's registry of objects held by its peer.
//!
//! When a node passes an object by remote reference (or a remote-marked
//! object travels inside a copied graph), the object is *exported*: it
//! gets a key, and the peer holds a stub carrying that key. The table
//! pins exported objects with a reference count of outstanding stubs —
//! RMI's Distributed Garbage Collector in miniature. Counts go up on
//! export and down on `DgcClean`; a pinned object is a GC root for the
//! local mark-sweep collector. Because this is reference counting,
//! distributed *cycles* never unpin — the leak the paper observes in its
//! call-by-reference benchmark (Table 6).

use std::collections::HashMap;

use nrmi_heap::ObjId;

/// Bidirectional key ↔ object map with stub reference counts.
///
/// ```
/// use nrmi_core::ExportTable;
/// use nrmi_heap::ObjId;
///
/// let mut table = ExportTable::new();
/// let obj = ObjId::from_index(3);
/// let key = table.export(obj);       // peer now holds one stub
/// let _ = table.export(obj);         // and another
/// assert_eq!(table.lookup(key), Some(obj));
/// assert!(!table.clean(key), "one pin remains");
/// assert!(table.clean(key), "fully released");
/// assert_eq!(table.lookup(key), None);
/// ```
#[derive(Debug, Default)]
pub struct ExportTable {
    by_key: HashMap<u64, Entry>,
    by_obj: HashMap<ObjId, u64>,
    next_key: u64,
}

#[derive(Debug)]
struct Entry {
    obj: ObjId,
    pins: u64,
}

impl ExportTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        ExportTable::default()
    }

    /// Exports `obj` (or re-exports it), incrementing its pin count.
    /// Returns its stable key.
    pub fn export(&mut self, obj: ObjId) -> u64 {
        if let Some(&key) = self.by_obj.get(&obj) {
            self.by_key
                .get_mut(&key)
                .expect("by_obj and by_key stay in sync")
                .pins += 1;
            return key;
        }
        let key = self.next_key;
        self.next_key += 1;
        self.by_key.insert(key, Entry { obj, pins: 1 });
        self.by_obj.insert(obj, key);
        key
    }

    /// Resolves a key to the exported object.
    pub fn lookup(&self, key: u64) -> Option<ObjId> {
        self.by_key.get(&key).map(|e| e.obj)
    }

    /// Handles a DGC clean message: decrements the pin count, removing
    /// the entry when it reaches zero. Returns true if the entry was
    /// fully released.
    pub fn clean(&mut self, key: u64) -> bool {
        let Some(entry) = self.by_key.get_mut(&key) else {
            return false;
        };
        entry.pins -= 1;
        if entry.pins == 0 {
            let obj = entry.obj;
            self.by_key.remove(&key);
            self.by_obj.remove(&obj);
            true
        } else {
            false
        }
    }

    /// Number of currently exported objects.
    pub fn len(&self) -> usize {
        self.by_key.len()
    }

    /// True if nothing is exported.
    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }

    /// All exported objects — the DGC roots for a local tracing
    /// collection (a pinned object must survive even if locally
    /// unreachable).
    pub fn roots(&self) -> Vec<ObjId> {
        self.objects().collect()
    }

    /// [`roots`](Self::roots) without collecting them.
    pub(crate) fn objects(&self) -> impl Iterator<Item = ObjId> + '_ {
        self.by_key.values().map(|e| e.obj)
    }

    /// Total outstanding pins across all entries.
    pub fn total_pins(&self) -> u64 {
        self.by_key.values().map(|e| e.pins).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(i: u32) -> ObjId {
        ObjId::from_index(i)
    }

    #[test]
    fn export_is_idempotent_on_key_but_counts_pins() {
        let mut t = ExportTable::new();
        let k1 = t.export(obj(5));
        let k2 = t.export(obj(5));
        assert_eq!(k1, k2, "same object keeps its key");
        assert_eq!(t.total_pins(), 2);
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(k1), Some(obj(5)));
    }

    #[test]
    fn distinct_objects_get_distinct_keys() {
        let mut t = ExportTable::new();
        let k1 = t.export(obj(1));
        let k2 = t.export(obj(2));
        assert_ne!(k1, k2);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn clean_releases_at_zero() {
        let mut t = ExportTable::new();
        let k = t.export(obj(1));
        t.export(obj(1));
        assert!(!t.clean(k), "one pin remains");
        assert_eq!(t.lookup(k), Some(obj(1)));
        assert!(t.clean(k), "fully released");
        assert_eq!(t.lookup(k), None);
        assert!(t.is_empty());
        // Cleaning an unknown key is a no-op.
        assert!(!t.clean(k));
    }

    #[test]
    fn keys_are_not_reused_after_release() {
        let mut t = ExportTable::new();
        let k1 = t.export(obj(1));
        t.clean(k1);
        let k2 = t.export(obj(1));
        assert_ne!(
            k1, k2,
            "fresh key after full release (stale stubs must not resolve)"
        );
    }

    #[test]
    fn roots_cover_all_entries() {
        let mut t = ExportTable::new();
        t.export(obj(1));
        t.export(obj(2));
        let mut roots = t.roots();
        roots.sort();
        assert_eq!(roots, vec![obj(1), obj(2)]);
    }
}
