//! Tree identity and traversal must not allocate: hashing and comparing
//! trees and views with `Str`, `Int` and `Real` content builds no
//! string, `Views::dedup` makes as many allocations for 50-node trees as
//! for 5-node ones (its set and keep mask, none per node), a side's
//! views live in two growing buffers however many nodes they hold, and
//! a preorder walk allocates nothing.
//!
//! The allocator counts per thread, so tests running beside each other
//! on other threads do not show up in a test's count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use toss_tree::eq::{identical, trees_equal, TreeSet};
use toss_tree::{Forest, NodeData, Tree, Value, View, Views};

struct CountingAlloc;

thread_local! {
    // const-initialised and without a destructor: reading it never
    // allocates, at any point of the thread's life
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

// SAFETY: delegates directly to the system allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// A tree of `nodes` nodes, three levels deep, whose contents cycle
/// through `Str`, `Int` and `Real`; `salt` changes the last leaf. With
/// `as_text`, numbers are stored as the strings they render to, which
/// is the same tree by identity.
fn tree(nodes: usize, salt: i64, as_text: bool) -> Tree {
    let num = |v: Value| if as_text { Value::Str(v.render()) } else { v };
    let mut t = Tree::with_root(NodeData::element("paper"));
    let root = t.root().expect("root");
    let mut parent = root;
    for i in 1..nodes {
        let content = match i % 3 {
            0 => Value::Str(format!("author {i}")),
            1 => num(Value::Int(1990 + i as i64)),
            _ => num(Value::Real(i as f64 / 8.0)),
        };
        let content = if i == nodes - 1 {
            num(Value::Int(salt))
        } else {
            content
        };
        let mut data = NodeData::with_content(format!("f{}", i % 7), content);
        data.attrs.push(("k".into(), format!("{i}")));
        let id = t.add_child(parent, data).expect("valid parent");
        if i % 10 == 0 {
            parent = if parent == root { id } else { root };
        }
    }
    t
}

/// Allocations `f` makes on this thread.
fn allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// Twelve trees of `nodes` nodes, four distinct, duplicates spread out.
fn forest(nodes: usize) -> Forest {
    (0..12).map(|i| tree(nodes, i % 4, i % 2 == 1)).collect()
}

#[test]
fn tree_identity_does_not_allocate() {
    let (a, b, c, d) = (
        tree(50, 1, false),
        tree(50, 1, false),
        tree(50, 1, true),
        tree(50, 2, false),
    );
    assert_eq!(a.node_count(), 50);
    let set = TreeSet::default();
    // warm up outside the counted window (lazy statics)
    assert_eq!(set.hash_of(&a), set.hash_of(&c));

    let delta = allocs(|| {
        for _ in 0..100 {
            black_box([&a, &b, &c, &d].map(|t| set.hash_of(t)));
            assert!(trees_equal(&a, &b));
            assert!(trees_equal(&a, &c));
            assert!(!trees_equal(&a, &d));
        }
    });
    assert_eq!(
        delta, 0,
        "hashing and comparing trees must not allocate, saw {delta}"
    );
}

/// Whole-tree views of every tree of `f`.
fn views(f: &Forest) -> Views<'_> {
    let mut v = Views::new();
    for t in f {
        v.push_whole(t);
    }
    v
}

#[test]
fn view_identity_does_not_allocate() {
    let (a, c, d) = (tree(50, 1, false), tree(50, 1, true), tree(50, 2, false));
    let f = Forest::from_trees(vec![a, c, d]);
    let v = views(&f);
    let [a, c, d]: [View; 3] = [0, 1, 2].map(|i| v.get(i).expect("three views"));
    let set: TreeSet<View> = TreeSet::default();
    assert_eq!(set.hash_of(a), set.hash_of(c));

    let delta = allocs(|| {
        for _ in 0..100 {
            black_box([a, c, d].map(|x| set.hash_of(x)));
            assert!(identical(a, c));
            assert!(identical(a, &f.trees()[1]));
            assert!(!identical(a, d));
        }
    });
    assert_eq!(
        delta, 0,
        "hashing and comparing views must not allocate, saw {delta}"
    );
}

#[test]
fn views_take_two_buffers_and_dedup_none_per_node() {
    let (small, large) = (forest(5), forest(50));
    let mut built = (Views::new(), Views::new());
    let small_build = allocs(|| built.0 = views(&small));
    let large_build = allocs(|| built.1 = views(&large));
    // two vectors, each grown by doubling: a handful of allocations for
    // 600 nodes, where copying the trees makes several per node
    let steps: usize = 12 * 50;
    let bound = 2 * (usize::BITS - steps.leading_zeros()) as u64;
    assert!(
        small_build <= large_build && large_build <= bound,
        "views of 60 and 600 nodes took {small_build} and {large_build} allocations, bound {bound}"
    );
    let copying = allocs(|| assert_eq!(black_box(built.1.materialise()).len(), 12));
    assert!(copying >= steps as u64, "materialising copies every node");

    let mut kept = (0, 0);
    let small_allocs = allocs(|| {
        built.0.dedup();
        kept.0 = built.0.len();
    });
    let large_allocs = allocs(|| {
        built.1.dedup();
        kept.1 = built.1.len();
    });
    assert_eq!(kept, (4, 4));
    assert_eq!(
        small_allocs, large_allocs,
        "dedup allocations must not grow with tree size"
    );
}

#[test]
fn preorder_and_descendants_do_not_allocate() {
    let t = tree(50, 1, false);
    let root = t.root().expect("root");
    let mut seen = (0, 0);
    let delta = allocs(|| {
        seen = (
            black_box(t.preorder()).count(),
            black_box(t.descendants(root)).count(),
        );
    });
    assert_eq!(seen, (50, 49));
    assert_eq!(delta, 0, "a preorder walk must not allocate, saw {delta}");
}
