//! Property-based tests of the paper's formal claims: Definition 8's
//! conditions, Theorem 1 (uniqueness up to isomorphism), Theorem 2
//! (SEA correctness), Definition 5's fusion axioms, Lemma 1, and the
//! structural invariants of the data model and algebra.

use proptest::prelude::*;
use std::collections::HashSet;
use toss::ontology::hierarchy::Hierarchy;
use toss::ontology::{enhance, fuse, Constraint};
use toss::similarity::{JaccardTokens, Levenshtein, StringMetric};
use toss::tax::{Cond, EdgeKind, Matcher, PatternTree, Term};
use toss::tree::eq::{fingerprint, trees_equal};
use toss::tree::{Forest, NodeData, Tree, TreeBuilder};
use toss::xmldb::{measure_stored, parse_document, Measured, XPath};

// ---------------------------------------------------------------------
// generators
// ---------------------------------------------------------------------

/// Short lowercase words so random pairs land within small Levenshtein
/// distances often enough to exercise merging.
fn word() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ab]{1,4}").expect("valid regex")
}

/// A random forest-shaped hierarchy: words attached under a handful of
/// class roots, plus some chains.
fn hierarchy() -> impl Strategy<Value = Hierarchy> {
    proptest::collection::vec((word(), 0usize..3), 1..12).prop_map(|pairs| {
        let mut h = Hierarchy::new();
        let classes = ["classx", "classy", "classz"];
        for (w, c) in pairs {
            // terms may repeat; add_leq tolerates that
            let _ = h.add_leq(&w, classes[c]);
        }
        // one chain among the classes
        let _ = h.add_leq("classx", "classy");
        h
    })
}

/// A random small data tree.
fn tree() -> impl Strategy<Value = Tree> {
    tree_of(word())
}

/// A random small data tree whose contents come from `content`.
fn tree_of(content: impl Strategy<Value = String>) -> impl Strategy<Value = Tree> {
    proptest::collection::vec((word(), content), 1..8).prop_map(|leaves| {
        let mut t = Tree::with_root(NodeData::element("r"));
        let root = t.root().expect("root exists");
        let mut parents = vec![root];
        for (i, (tag, content)) in leaves.into_iter().enumerate() {
            let parent = parents[i % parents.len()];
            let id = t
                .add_child(parent, NodeData::with_content(tag, content))
                .expect("valid parent");
            if i % 3 == 0 {
                parents.push(id);
            }
        }
        t
    })
}

/// Content whose ends are what a parse could lose: no-break and em
/// spaces (which are not XML whitespace), multibyte letters and the
/// characters XML escapes.
fn edged_content() -> impl Strategy<Value = String> {
    let edge = || {
        proptest::string::string_regex("[\u{a0}\u{2003}é漢😀&<>\"']{1,2}").expect("valid regex")
    };
    (edge(), word(), edge()).prop_map(|(head, w, tail)| format!("{head}{w}{tail}"))
}

/// Stored document texts: the compact XML of an edged-content tree, of
/// a built tree with mixed content and quotes in its text, or of that
/// tree written the way a stored text need not be — content with a
/// leading ASCII space, a quote spelled as a reference, `<z></z>` for
/// `<z/>`, a character reference, a single-quoted attribute — each with
/// or without the edged tree's XML as a child.
fn stored_text() -> impl Strategy<Value = String> {
    (tree_of(edged_content()), word(), 0u8..7, 0u8..2).prop_map(|(t, w, kind, nest)| {
        let compact =
            |t: &Tree| toss::tree::serialize::tree_to_xml(t, toss::tree::serialize::Style::Compact);
        let edged = compact(&t);
        if kind == 0 {
            return edged;
        }
        let lead = if kind == 1 { " " } else { "" };
        let xml = compact(
            &TreeBuilder::new("a")
                .attr("k", w.as_str())
                .content(format!("{lead}{w}"))
                .leaf("q", format!("'{w}\""))
                .empty("z")
                .leaf("c", format!("{w}A"))
                .build(),
        );
        let xml = match kind {
            2 => xml.replace("\"</q>", "&quot;</q>"),
            3 => xml.replace("<z/>", "<z></z>"),
            4 => xml.replace("A</c>", "&#65;</c>"),
            5 => xml.replacen(&format!("k=\"{w}\""), &format!("k='{w}'"), 1),
            _ => xml,
        };
        if nest == 1 {
            xml.replacen("</a>", &format!("{edged}</a>"), 1)
        } else {
            xml
        }
    })
}

// ---------------------------------------------------------------------
// SEA: Definition 8, Theorems 1–2
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem 2: when SEA succeeds, its output satisfies all four
    /// Definition-8 conditions (checked by `Seo::validate`).
    #[test]
    fn sea_output_is_a_valid_enhancement(h in hierarchy(), eps in 0.0f64..3.0) {
        if let Ok(seo) = enhance(&h, &Levenshtein, eps) {
            prop_assert!(seo.validate(&Levenshtein).is_ok(),
                "Definition 8 violated: {:?}", seo.validate(&Levenshtein));
        }
    }

    /// Theorem 1: the enhancement is unique up to isomorphism — running
    /// SEA twice yields identical term-set structure and ordering.
    #[test]
    fn sea_is_deterministic_up_to_iso(h in hierarchy(), eps in 0.0f64..3.0) {
        let a = enhance(&h, &Levenshtein, eps);
        let b = enhance(&h, &Levenshtein, eps);
        match (a, b) {
            (Ok(x), Ok(y)) => {
                let xs: HashSet<Vec<String>> = x.enhanced().nodes()
                    .map(|e| x.terms_of_enhanced(e).to_vec()).collect();
                let ys: HashSet<Vec<String>> = y.enhanced().nodes()
                    .map(|e| y.terms_of_enhanced(e).to_vec()).collect();
                prop_assert_eq!(xs, ys);
                // ordering agrees on every term pair
                for s in h.all_terms() {
                    for t in h.all_terms() {
                        prop_assert_eq!(x.leq_terms(&s, &t), y.leq_terms(&s, &t));
                    }
                }
            }
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "consistency disagreement: {a:?} vs {b:?}"),
        }
    }

    /// ε = 0 never merges distinct strong-metric terms: the enhancement
    /// is the identity on node structure.
    #[test]
    fn sea_epsilon_zero_is_identity(h in hierarchy()) {
        let seo = enhance(&h, &Levenshtein, 0.0).expect("ε=0 always consistent for distinct terms");
        prop_assert_eq!(seo.len(), h.len());
        for t in h.all_terms() {
            prop_assert_eq!(seo.similar_terms(&t), vec![t.clone()]);
        }
    }

    /// `similar` is symmetric and reflexive on known terms.
    #[test]
    fn similar_is_symmetric(h in hierarchy(), eps in 0.0f64..3.0) {
        if let Ok(seo) = enhance(&h, &Levenshtein, eps) {
            let terms = h.all_terms();
            for a in &terms {
                prop_assert!(seo.similar(a, a));
                for b in &terms {
                    prop_assert_eq!(seo.similar(a, b), seo.similar(b, a));
                }
            }
        }
    }

    /// Condition 3 directly: d(A,B) ≤ ε on original nodes iff `similar`.
    #[test]
    fn similar_matches_threshold(h in hierarchy(), eps in 0.0f64..3.0) {
        if let Ok(seo) = enhance(&h, &Levenshtein, eps) {
            for a in h.nodes() {
                for b in h.nodes() {
                    let ta = h.terms_of(a).expect("valid node");
                    let tb = h.terms_of(b).expect("valid node");
                    let within = toss::similarity::node::node_within(&Levenshtein, ta, tb, eps);
                    let sim = seo.similar(&ta[0], &tb[0]);
                    prop_assert_eq!(within, sim, "{:?} vs {:?}", ta, tb);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// fusion: Definition 5
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Axiom 1: each source's order embeds into the fusion.
    #[test]
    fn fusion_preserves_source_orders(h1 in hierarchy(), h2 in hierarchy()) {
        let sources = [h1, h2];
        let f = fuse(&sources, &[]).expect("constraint-free fusion succeeds");
        for (i, src) in sources.iter().enumerate() {
            prop_assert!(src.order_preserved_into(&f.hierarchy, |n| f.image(i, n)));
        }
    }

    /// Axiom 2: `≤` constraints hold in the fusion.
    #[test]
    fn fusion_respects_leq_constraints(h1 in hierarchy(), h2 in hierarchy()) {
        // constrain the first term of h1 below the first term of h2
        let t1 = h1.all_terms().into_iter().next().expect("nonempty");
        let t2 = h2.all_terms().into_iter().next().expect("nonempty");
        let cs = vec![Constraint::leq(t1.clone(), 0, t2.clone(), 1)];
        // the constraint can contradict the structure (cycle through
        // shared strings); rejection is the correct outcome then
        if let Ok(f) = fuse(&[h1, h2], &cs) {
            prop_assert!(f.hierarchy.leq_terms(&t1, &t2));
        }
    }

    /// The fused hierarchy is acyclic and every witness is total.
    #[test]
    fn fusion_is_acyclic_with_total_witnesses(h1 in hierarchy(), h2 in hierarchy()) {
        let sources = [h1, h2];
        let f = fuse(&sources, &[]).expect("constraint-free fusion succeeds");
        prop_assert!(!f.hierarchy.digraph().has_cycle());
        for (i, src) in sources.iter().enumerate() {
            for n in src.nodes() {
                prop_assert!(f.image(i, n).is_some());
            }
        }
    }
}

// ---------------------------------------------------------------------
// Lemma 1 and metric axioms
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Lemma 1: for strong measures, node distance equals any single
    /// cross-pair distance when intra-node distances are zero.
    #[test]
    fn lemma1_on_strong_measures(x in word(), y in word(), k in 1usize..4) {
        let a: Vec<String> = vec![x.clone(); k];
        let b: Vec<String> = vec![y.clone(); k];
        let d = toss::similarity::node_distance(&Levenshtein, &a, &b);
        prop_assert_eq!(d, Levenshtein.distance(&x, &y));
    }

    /// Levenshtein axioms on arbitrary strings (incl. the banded check).
    #[test]
    fn levenshtein_axioms(a in ".{0,12}", b in ".{0,12}", k in 0usize..8) {
        let d = Levenshtein::raw(&a, &b);
        prop_assert_eq!(d, Levenshtein::raw(&b, &a));
        prop_assert_eq!(d == 0, a == b);
        prop_assert_eq!(Levenshtein::raw_within(&a, &b, k), d <= k);
    }

    /// Jaccard distance satisfies the triangle inequality (it claims
    /// strength).
    #[test]
    fn jaccard_triangle(a in "[ab c]{0,10}", b in "[ab c]{0,10}", c in "[ab c]{0,10}") {
        let m = JaccardTokens;
        prop_assert!(m.distance(&a, &c) <= m.distance(&a, &b) + m.distance(&b, &c) + 1e-9);
    }
}

// ---------------------------------------------------------------------
// data model and algebra invariants
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// XML serialize ∘ parse is the identity on the tree model.
    #[test]
    fn xml_round_trip(t in tree_of(edged_content())) {
        let xml = toss::tree::serialize::tree_to_xml(&t, toss::tree::serialize::Style::Compact);
        let back = parse_document(&xml).expect("own output parses");
        prop_assert!(trees_equal(&t, &back), "round trip changed the tree: {xml}");
    }

    /// Measuring a stored text agrees with building its tree: the same
    /// error, or the tree's compact length and whether the text is that
    /// tree's compact XML.
    #[test]
    fn measuring_agrees_with_the_built_tree(text in stored_text()) {
        let mut buf = String::new();
        let measured = measure_stored(&text, &mut buf);
        match parse_document(&text) {
            Ok(tree) => {
                let xml = toss::tree::serialize::tree_to_xml(&tree, toss::tree::serialize::Style::Compact);
                let expected = Measured {
                    size: toss::tree::serialize::compact_len(&tree),
                    canonical: xml == text,
                };
                prop_assert_eq!(measured, Ok(expected), "{}", text);
            }
            Err(e) => prop_assert_eq!(measured, Err(e), "{}", text),
        }
    }

    /// Tree equality is an equivalence relation consistent with the
    /// fingerprint.
    #[test]
    fn tree_equality_vs_fingerprint(a in tree(), b in tree()) {
        prop_assert!(trees_equal(&a, &a));
        prop_assert_eq!(trees_equal(&a, &b), trees_equal(&b, &a));
        prop_assert_eq!(trees_equal(&a, &b), fingerprint(&a) == fingerprint(&b));
    }

    /// Set operations behave like sets on any forests.
    #[test]
    fn forest_set_algebra(ts in proptest::collection::vec(tree(), 0..6)) {
        let f = Forest::from_trees(ts);
        // union with the empty forest collapses duplicates
        let d = f.set_union(&Forest::new());
        // union idempotent, intersection with self = dedup, difference empty
        prop_assert_eq!(d.set_union(&d).len(), d.len());
        prop_assert_eq!(d.set_intersection(&d).len(), d.len());
        prop_assert_eq!(d.set_difference(&d).len(), 0);
    }

    /// Every embedding's images satisfy the pattern's structural edges.
    #[test]
    fn embeddings_preserve_structure(t in tree()) {
        let mut p = PatternTree::new(1);
        let root = p.root();
        p.add_child(root, 2, EdgeKind::ParentChild).expect("fresh label");
        p.add_child(root, 3, EdgeKind::AncestorDescendant).expect("fresh label");
        for e in Matcher::new(p).embeddings(&t) {
            let (r, c2, c3) = (e.images()[0], e.images()[1], e.images()[2]);
            prop_assert_eq!(t.parent(c2).expect("valid id"), Some(r));
            prop_assert!(t.is_ancestor(r, c3));
        }
    }

    /// Selection output only contains witness trees whose root tag
    /// matches the root condition.
    #[test]
    fn selection_respects_root_condition(t in tree(), tag in word()) {
        let mut p = PatternTree::new(1);
        p.set_condition(Cond::eq(Term::tag(1), Term::str(&tag))).expect("label 1 exists");
        let f = Forest::from_trees(vec![t]);
        let out = Matcher::new(p).select(&f, &[]).expect("select succeeds");
        for w in &out {
            let root = w.root().expect("witness has root");
            prop_assert_eq!(&w.data(root).expect("valid root").tag, &tag);
        }
    }

    /// The XML parser never panics on arbitrary input — it either parses
    /// or returns a structured error.
    #[test]
    fn xml_parser_never_panics(input in ".{0,200}") {
        let _ = parse_document(&input);
        let _ = toss::xmldb::parse_forest(&input);
    }

    /// The XPath parser never panics on arbitrary input.
    #[test]
    fn xpath_parser_never_panics(input in ".{0,80}") {
        let _ = XPath::parse(&input);
    }

    /// Executor soundness: routing a random selection through the
    /// document store (XPath retrieval + local conversion) returns exactly
    /// the trees the in-memory TAX algebra returns.
    #[test]
    fn executor_equals_in_memory_selection(
        ts in proptest::collection::vec(tree(), 1..5),
        tag in word(),
        val in word(),
    ) {
        use toss::core::algebra::TossPattern;
        use toss::core::executor::Mode;
        use toss::core::{Executor, TossCond, TossQuery, TossTerm};
        use toss::tax::EdgeKind;

        let forest = Forest::from_trees(ts);
        let mut db = toss::xmldb::Database::with_config(
            toss::xmldb::DatabaseConfig::unlimited(),
        );
        {
            let coll = db.create_collection("c").expect("fresh");
            for t in &forest {
                coll.insert(t.clone()).expect("unlimited");
            }
        }
        let seo = std::sync::Arc::new(
            toss::ontology::enhance(
                &toss::ontology::Hierarchy::new(),
                &Levenshtein,
                0.0,
            )
            .expect("empty hierarchy is consistent"),
        );
        let ex = Executor::new(db, seo);
        let pattern = TossPattern::spine(
            &[EdgeKind::AncestorDescendant],
            TossCond::all(vec![
                TossCond::eq(TossTerm::tag(1), TossTerm::str("r")),
                TossCond::eq(TossTerm::tag(2), TossTerm::str(&tag)),
                TossCond::eq(TossTerm::content(2), TossTerm::str(&val)),
            ]),
        )
        .expect("valid spine");
        let q = TossQuery {
            collection: "c".into(),
            pattern: pattern.clone(),
            expand_labels: vec![1],
        };
        let via_store = ex.select(&q, Mode::Toss).expect("select");
        let in_mem = toss::core::algebra::toss_select(
            &toss::core::SeoInstance::new(forest, ex.seo.clone()),
            &pattern,
            &[1],
            &ex.hierarchy,
            &ex.conversions,
        )
        .expect("select")
        .forest;
        prop_assert_eq!(via_store.forest.len(), in_mem.len());
        for t in &via_store.forest {
            prop_assert!(in_mem.contains_tree(t));
        }
    }

    /// Differential test of the XPath engine: the indexed collection
    /// fast path (`//name…`) must agree exactly with the per-document
    /// scan path on random corpora and queries.
    #[test]
    fn xpath_index_path_agrees_with_scan(
        ts in proptest::collection::vec(tree(), 1..6),
        tag in word(),
        val in word(),
    ) {
        let mut coll = toss::xmldb::Collection::new("p", None);
        for t in &ts {
            coll.insert(t.clone()).expect("unlimited");
        }
        for q in [
            format!("//{tag}"),
            format!("//{tag}[text()='{val}']"),
            format!("//r/{tag}"),
            format!("//r[{tag}='{val}']"),
        ] {
            let fast = XPath::parse(&q).expect("valid").eval_collection(&coll);
            // per-document scan through eval_tree must agree
            let mut slow = Vec::new();
            for d in coll.documents() {
                for n in XPath::parse(&q).expect("valid").eval_tree(d.tree()) {
                    slow.push(toss::xmldb::NodeRef { doc: d.id, node: n });
                }
            }
            slow.sort();
            slow.dedup();
            prop_assert_eq!(fast, slow, "query {} disagreed", q);
        }
    }

    /// The XPath display form re-parses to the same AST (printer and
    /// parser agree on arbitrary generated paths).
    #[test]
    fn xpath_display_round_trip(tag in "[a-z]{1,6}", val in "[a-z ]{0,8}", n in 1usize..4) {
        let src = format!("//{tag}[{tag}='{val}'][{n}] | /{tag}//b[contains(text(),'{val}')]");
        let p1 = XPath::parse(&src).expect("valid xpath");
        let p2 = XPath::parse(&p1.to_string()).expect("printed form parses");
        prop_assert_eq!(p1, p2);
    }
}

// ---------------------------------------------------------------------
// durability: snapshot + journal recovery
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Recovery soundness: any interleaving of mutations, checkpoints and
    /// crashes, followed by a final crash and reopen, reproduces exactly
    /// the acknowledged state — collection names, document ids and
    /// contents, and XPath answers all agree with an in-memory shadow
    /// that never touched a disk.
    #[test]
    fn recovered_database_equals_shadow(
        ops in proptest::collection::vec((0usize..6, 0usize..2, word(), word()), 0..24),
    ) {
        use std::sync::Arc;
        use toss::xmldb::{Database, DatabaseConfig, DurableDatabase, FaultVfs, Vfs};

        let fs = Arc::new(FaultVfs::new());
        let vfs: Arc<dyn Vfs> = fs.clone();
        let open = || {
            DurableDatabase::open_with("s.json", DatabaseConfig::unlimited(), vfs.clone())
                .expect("no faults armed: open succeeds")
                .0
        };
        let mut durable = open();
        let mut shadow = Database::with_config(DatabaseConfig::unlimited());
        let names = ["alpha", "beta"];

        for (kind, which, tag, val) in ops {
            let coll = names[which];
            let xml = format!("<r><{tag}>{val}</{tag}></r>");
            match kind {
                0 => {
                    if durable.create_collection(coll).is_ok() {
                        shadow.create_collection(coll).expect("shadow agrees");
                    }
                }
                1 => {
                    if let Ok(id) = durable.insert_xml(coll, &xml) {
                        let got = shadow
                            .collection_mut(coll)
                            .expect("shadow agrees")
                            .insert_xml(&xml)
                            .expect("shadow agrees");
                        prop_assert_eq!(id, got, "id allocation diverged");
                    }
                }
                2 => {
                    // remove the oldest live document, if any
                    let target = shadow
                        .collection(coll)
                        .ok()
                        .and_then(|c| c.documents().first().map(|d| d.id));
                    if let Some(id) = target {
                        durable.remove_document(coll, id).expect("doc exists");
                        shadow
                            .collection_mut(coll)
                            .expect("shadow agrees")
                            .remove(id)
                            .expect("shadow agrees");
                    }
                }
                3 => {
                    let target = shadow
                        .collection(coll)
                        .ok()
                        .and_then(|c| c.documents().last().map(|d| d.id));
                    if let Some(id) = target {
                        durable.replace_document(coll, id, &xml).expect("doc exists");
                        let tree = parse_document(&xml).expect("generated xml parses");
                        shadow
                            .collection_mut(coll)
                            .expect("shadow agrees")
                            .replace(id, tree)
                            .expect("shadow agrees");
                    }
                }
                4 => durable.checkpoint().expect("no faults armed"),
                _ => {
                    // power loss mid-sequence: everything acknowledged so
                    // far must already be durable
                    fs.crash();
                    durable = open();
                }
            }
        }

        fs.crash();
        let recovered = open();
        let rec = recovered.db();
        prop_assert_eq!(rec.collection_names(), shadow.collection_names());
        for name in shadow.collection_names() {
            let a = rec.collection(name).expect("recovered collection");
            let b = shadow.collection(name).expect("shadow collection");
            prop_assert_eq!(a.len(), b.len(), "doc count differs in `{}`", name);
            let dump = |c: &toss::xmldb::Collection| {
                c.documents()
                    .iter()
                    .map(|d| {
                        (
                            d.id,
                            toss::tree::serialize::tree_to_xml(
                                d.tree(),
                                toss::tree::serialize::Style::Compact,
                            ),
                        )
                    })
                    .collect::<Vec<_>>()
            };
            prop_assert_eq!(dump(a), dump(b), "documents differ in `{}`", name);
            // sampled XPath agreement between recovered and shadow stores
            for q in ["//r", "//r/*", "//*"] {
                let xp = XPath::parse(q).expect("valid");
                prop_assert_eq!(
                    xp.eval_collection(a),
                    xp.eval_collection(b),
                    "xpath `{}` disagrees in `{}`",
                    q,
                    name
                );
            }
        }
    }
}
