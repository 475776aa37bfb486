//! Interned term symbols.
//!
//! The semantic fast path works over `u32` symbols instead of owned
//! `String`s: cones and similarity classes are materialized once as
//! `Arc<[Sym]>` and resolved back to text only at the API boundary.
//! Interning order is chosen by the caller; the [`Seo`](crate::Seo)
//! interns its vocabulary in lexicographic order so that sorting by
//! symbol id is the same as sorting by term text.

use std::collections::HashMap;
use std::sync::Arc;

/// An interned term symbol: a dense `u32` handle into a [`SymbolTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct Sym(pub(crate) u32);

impl Sym {
    /// The symbol as a usize index (for memo tables keyed by symbol).
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// A string interner mapping terms to dense [`Sym`] handles and back.
#[derive(Debug, Clone, Default)]
pub(crate) struct SymbolTable {
    by_name: HashMap<Arc<str>, Sym>,
    names: Vec<Arc<str>>,
}

impl SymbolTable {
    /// An empty table.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Intern `term`, returning its symbol. Re-interning an existing
    /// term returns the original symbol.
    pub(crate) fn intern(&mut self, term: &str) -> Sym {
        if let Some(&sym) = self.by_name.get(term) {
            return sym;
        }
        let sym = Sym(u32::try_from(self.names.len()).expect("symbol table overflow"));
        let name: Arc<str> = Arc::from(term);
        self.names.push(Arc::clone(&name));
        self.by_name.insert(name, sym);
        sym
    }

    /// Look up an already-interned term without inserting.
    pub(crate) fn lookup(&self, term: &str) -> Option<Sym> {
        self.by_name.get(term).copied()
    }

    /// Resolve a symbol back to its term text.
    ///
    /// # Panics
    /// Panics if `sym` was not produced by this table.
    pub(crate) fn resolve(&self, sym: Sym) -> &str {
        &self.names[sym.index()]
    }

    /// Number of interned terms.
    pub(crate) fn len(&self) -> usize {
        self.names.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut t = SymbolTable::new();
        let a = t.intern("alpha");
        let b = t.intern("beta");
        assert_ne!(a, b);
        assert_eq!(t.intern("alpha"), a);
        assert_eq!(t.len(), 2);
        assert_eq!(t.resolve(a), "alpha");
        assert_eq!(t.resolve(b), "beta");
        assert_eq!(t.lookup("beta"), Some(b));
        assert_eq!(t.lookup("gamma"), None);
    }

    #[test]
    fn lexicographic_interning_orders_symbols() {
        let mut words = ["pear", "apple", "quince", "fig"];
        words.sort_unstable();
        let mut t = SymbolTable::new();
        let syms: Vec<Sym> = words.iter().map(|w| t.intern(w)).collect();
        let mut sorted = syms.clone();
        sorted.sort_unstable();
        assert_eq!(syms, sorted, "sorted interning makes Sym order lexical");
    }
}
