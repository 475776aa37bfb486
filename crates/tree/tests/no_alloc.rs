//! Tree identity and traversal must not allocate: hashing and comparing
//! trees with `Str`, `Int` and `Real` content builds no string,
//! `Forest::dedup` makes as many allocations for 50-node trees as for
//! 5-node ones (its set and keep mask, none per node), and a preorder
//! walk allocates nothing.
//!
//! The allocator counts per thread, so tests running beside each other
//! on other threads do not show up in a test's count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use toss_tree::eq::{trees_equal, TreeSet};
use toss_tree::{Forest, NodeData, Tree, Value};

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

    let (small, large) = (forest(5), forest(50));
    let mut kept = (0, 0);
    let small_allocs = allocs(|| kept.0 = small.dedup().len());
    let large_allocs = allocs(|| kept.1 = large.dedup().len());
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
