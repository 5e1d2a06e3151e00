//! Seeded inputs and the benchmark's own services.
//!
//! Everything a run sends is derived here from `--seed`; the program
//! under test only ever sees the generated graphs and arguments. Every
//! seed produces the same *amount* of work (node counts, dirty counts
//! and encoded widths are fixed), so runs with different seeds are
//! comparable; the seed moves the tree's shape below its full levels,
//! the aliases, the data, the dirty positions and the service's path.

use nrmi_core::NrmiError;
use nrmi_heap::tree::{register_tree_classes, TreeClasses};
use nrmi_heap::{ClassId, ClassRegistry, Heap, HeapAccess, ObjId, SharedRegistry, Value};

/// SplitMix64: the benchmark's only source of pseudo-randomness.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream determined by `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// SplitMix64's output function: a stateless 64-bit mixer.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Maps 64 random bits to an `Int` whose zig-zag varint is always three
/// bytes wide, so payload sizes do not wander with the data.
pub fn fixed_width_int(bits: u64) -> i32 {
    8192 + (bits % 1_000_000) as i32
}

/// The frozen class registry every node of a run shares.
#[derive(Clone, Debug)]
pub struct Classes {
    /// The registry snapshot.
    pub registry: SharedRegistry,
    /// The paper's restorable `Tree { int data; Tree left, right; }`.
    pub tree: ClassId,
}

/// Registers the benchmark's classes.
pub fn classes() -> Classes {
    let mut reg = ClassRegistry::new();
    let TreeClasses { tree } = register_tree_classes(&mut reg);
    Classes {
        registry: reg.snapshot(),
        tree,
    }
}

/// Field indices of `Tree`, in declaration order.
const DATA: usize = 0;
const LEFT: usize = 1;
const RIGHT: usize = 2;

/// A generated tree on some heap.
#[derive(Clone, Debug)]
pub struct Tree {
    /// The root: the remote call's argument.
    pub root: ObjId,
    /// Every node, in creation order. Two trees built from one seed list
    /// corresponding nodes at equal indices, which is how a dirty
    /// position is applied to the client's tree and to its twin.
    pub nodes: Vec<ObjId>,
    /// The client's aliases into the interior (the paper's scenario III).
    pub aliases: Vec<ObjId>,
}

/// Builds a `size`-node binary tree. The top levels are complete (as
/// many as fit in half the nodes) and the rest hang from seeded free
/// slots below them, so every root-to-leaf path is at least that many
/// levels long — a bounded walk never runs out of tree — while the shape
/// still depends on the seed.
///
/// # Errors
/// Heap allocation failures.
///
/// # Panics
/// When `size` is below 2.
pub fn build_tree(
    heap: &mut Heap,
    classes: &Classes,
    size: usize,
    aliases: usize,
    seed: u64,
) -> Result<Tree, NrmiError> {
    assert!(size >= 2, "a benchmark tree has at least two nodes");
    let mut rng = SplitMix::new(seed ^ 0x7ee5);
    let mut nodes = Vec::with_capacity(size);
    // (parent index, field) pairs still null, below the complete levels.
    let mut free: Vec<(usize, usize)> = Vec::new();
    let full = complete_nodes(size);
    for i in 0..size {
        let data = Value::Int(fixed_width_int(rng.next_u64()));
        let id = heap.alloc(classes.tree, vec![data, Value::Null, Value::Null])?;
        if i > 0 {
            let (parent, field) = if i < full {
                // Heap order; the seed only mirrors each pair of siblings.
                let parent = (i - 1) / 2;
                let mirrored = mix(seed ^ parent as u64) & 1 == 1;
                let field = if (i % 2 == 1) != mirrored {
                    LEFT
                } else {
                    RIGHT
                };
                (parent, field)
            } else {
                free.swap_remove(rng.below(free.len()))
            };
            heap.set_field_raw(nodes[parent], field, Value::Ref(id))?;
        }
        if i >= full / 2 {
            free.push((i, LEFT));
            free.push((i, RIGHT));
        }
        nodes.push(id);
    }
    let aliases = (0..aliases)
        .map(|_| nodes[1 + rng.below(size - 1)])
        .collect();
    Ok(Tree {
        root: nodes[0],
        nodes,
        aliases,
    })
}

/// Nodes in the complete top of `build_tree(size)`: the largest
/// `2^levels - 1` that leaves at least half the nodes to the seed.
fn complete_nodes(size: usize) -> usize {
    let mut full = 1;
    while 2 * full < size / 2 {
        full = 2 * full + 1;
    }
    full
}

/// Levels of `build_tree(size)` that are complete: a walk of this many
/// nodes down from the root never meets a leaf.
pub fn full_levels(size: usize) -> u32 {
    (complete_nodes(size) + 1).trailing_zeros()
}

fn int_arg(args: &[Value], i: usize) -> Result<i32, NrmiError> {
    args.get(i)
        .and_then(Value::as_int)
        .ok_or_else(|| NrmiError::app(format!("argument {i} must be an int")))
}

fn ref_arg(args: &[Value], i: usize) -> Result<ObjId, NrmiError> {
    args.get(i)
        .and_then(Value::as_ref_id)
        .ok_or_else(|| NrmiError::app(format!("argument {i} must be a reference")))
}

/// `echo.inc(v)`: the smallest possible call.
///
/// # Errors
/// A non-int argument.
pub fn echo_inc(
    _method: &str,
    args: &[Value],
    _heap: &mut dyn HeapAccess,
) -> Result<Value, NrmiError> {
    Ok(Value::Int(int_arg(args, 0)?.wrapping_add(1)))
}

/// `tree.mutate(root, salt)`: the paper's "random changes to its input
/// tree", made size-preserving so the graph is stationary over thousands
/// of calls. Walks the whole tree in preorder, rewrites about half the
/// `data` fields and swaps the children of one node in eight. Returns a
/// checksum of every node's data after the rewrite.
///
/// # Errors
/// Bad arguments or heap access failures.
pub fn tree_mutate(
    _method: &str,
    args: &[Value],
    heap: &mut dyn HeapAccess,
) -> Result<Value, NrmiError> {
    let root = ref_arg(args, 0)?;
    let salt = int_arg(args, 1)? as u64;
    let mut sum = 0u64;
    let mut stack = vec![root];
    let mut index = 0u64;
    while let Some(node) = stack.pop() {
        let h = mix(salt << 32 | index);
        index += 1;
        let mut data = heap.get_field_raw(node, DATA)?;
        if h & 1 == 1 {
            data = Value::Int(fixed_width_int(h >> 8));
            heap.set_field_raw(node, DATA, data.clone())?;
        }
        sum = sum.wrapping_add(data.as_int().unwrap_or(0) as u64);
        let mut left = heap.get_field_raw(node, LEFT)?;
        let mut right = heap.get_field_raw(node, RIGHT)?;
        if h >> 1 & 7 == 0 {
            std::mem::swap(&mut left, &mut right);
            heap.set_field_raw(node, LEFT, left.clone())?;
            heap.set_field_raw(node, RIGHT, right.clone())?;
        }
        // Right first, so the left subtree is walked first.
        stack.extend(right.as_ref_id());
        stack.extend(left.as_ref_id());
    }
    Ok(Value::Int(fixed_width_int(sum)))
}

/// `warm.touch(root, path, count)`: rewrites the `data` of the first
/// `count` nodes of a preorder walk whose child order at each depth is
/// chosen by a bit of `path`. With `count` at most the tree's complete
/// levels that is one root-to-leaf path — O(depth) work, never a full
/// walk; with a large `count` it is a dense rewrite. Returns a checksum
/// of the data written.
///
/// # Errors
/// Bad arguments or heap access failures.
pub fn warm_touch(
    _method: &str,
    args: &[Value],
    heap: &mut dyn HeapAccess,
) -> Result<Value, NrmiError> {
    let root = ref_arg(args, 0)?;
    let path = int_arg(args, 1)? as u64;
    let count = int_arg(args, 2)?.max(0) as usize;
    let mut sum = 0u64;
    let mut stack = vec![(root, 0u32)];
    let mut done = 0usize;
    while let Some((node, depth)) = stack.pop() {
        if done == count {
            break;
        }
        let value = fixed_width_int(mix(path << 32 | done as u64));
        heap.set_field_raw(node, DATA, Value::Int(value))?;
        sum = sum.wrapping_add(value as u64);
        done += 1;
        let left = heap.get_field_raw(node, LEFT)?.as_ref_id();
        let right = heap.get_field_raw(node, RIGHT)?.as_ref_id();
        let (first, second) = if path >> (depth % 31) & 1 == 0 {
            (left, right)
        } else {
            (right, left)
        };
        stack.extend(second.map(|n| (n, depth + 1)));
        stack.extend(first.map(|n| (n, depth + 1)));
    }
    Ok(Value::Int(fixed_width_int(sum)))
}

/// What the client writes into its own tree before a warm call: `dirty`
/// distinct positions, evenly strided from a seeded offset, each given a
/// seeded value. Applied identically to the twin.
///
/// # Errors
/// Heap access failures.
pub fn dirty_nodes(heap: &mut Heap, tree: &Tree, dirty: usize, bits: u64) -> Result<(), NrmiError> {
    let n = tree.nodes.len();
    let stride = n / dirty;
    let offset = (bits % n as u64) as usize;
    for j in 0..dirty {
        let node = tree.nodes[(offset + j * stride) % n];
        let value = fixed_width_int(mix(bits ^ j as u64));
        heap.set_field_raw(node, DATA, Value::Int(value))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrmi_heap::graph::isomorphic;
    use nrmi_heap::LinearMap;

    fn tree(size: usize, seed: u64) -> (Heap, Tree) {
        let classes = classes();
        let mut heap = Heap::new(classes.registry.clone());
        let tree = build_tree(&mut heap, &classes, size, 4, seed).unwrap();
        (heap, tree)
    }

    #[test]
    fn tree_has_exactly_size_nodes_and_no_short_path() {
        for size in [2, 51, 204, 1024, 4096] {
            let (mut heap, t) = tree(size, 9);
            assert_eq!(LinearMap::build(&heap, &[t.root]).unwrap().len(), size);
            // A walk of `full_levels` nodes down any path finds that many.
            for path in [0, 0x5555_5555, 0x7fff_ffff] {
                let levels = full_levels(size) as i32;
                let args = [Value::Ref(t.root), Value::Int(path), Value::Int(levels)];
                let writes = heap.stats().writes;
                warm_touch("touch", &args, &mut heap).unwrap();
                assert_eq!(heap.stats().writes - writes, levels as u64);
            }
        }
    }

    #[test]
    fn same_seed_same_tree_other_seed_other_tree() {
        let (a, ta) = tree(1024, 1);
        let (b, tb) = tree(1024, 1);
        let (c, tc) = tree(1024, 2);
        assert!(isomorphic(&a, ta.root, &b, tb.root).unwrap());
        assert!(!isomorphic(&a, ta.root, &c, tc.root).unwrap());
    }

    #[test]
    fn mutation_preserves_size() {
        let (mut heap, t) = tree(1024, 3);
        for salt in 0..20 {
            tree_mutate("mutate", &[Value::Ref(t.root), Value::Int(salt)], &mut heap).unwrap();
        }
        assert_eq!(LinearMap::build(&heap, &[t.root]).unwrap().len(), 1024);
    }
}
