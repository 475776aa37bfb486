//! Ontologies — Definition 3: a partial mapping from relationship names
//! (the set Σ of strings, always containing `isa` and `part-of`) to
//! hierarchies.

use crate::hierarchy::Hierarchy;
use std::collections::BTreeMap;

/// The distinguished `isa` relationship name.
pub(crate) const ISA: &str = "isa";
/// The distinguished `part-of` relationship name.
pub(crate) const PART_OF: &str = "part-of";

/// An ontology: named hierarchies. `isa` and `part-of` are always defined
/// (empty hierarchies until populated), matching the paper's standing
/// assumption after Definition 3.
#[derive(Debug, Clone)]
pub struct Ontology {
    hierarchies: BTreeMap<String, Hierarchy>,
}

impl Ontology {
    /// A new ontology with empty `isa` and `part-of` hierarchies.
    pub fn new() -> Self {
        let mut hierarchies = BTreeMap::new();
        hierarchies.insert(ISA.to_string(), Hierarchy::new());
        hierarchies.insert(PART_OF.to_string(), Hierarchy::new());
        Ontology { hierarchies }
    }

    /// The hierarchy for a relationship name, if defined (Θ is partial).
    pub fn hierarchy(&self, relation: &str) -> Option<&Hierarchy> {
        self.hierarchies.get(relation)
    }

    /// Mutable access, creating the hierarchy if absent.
    pub(crate) fn hierarchy_mut(&mut self, relation: &str) -> &mut Hierarchy {
        self.hierarchies.entry(relation.to_string()).or_default()
    }

    /// The `isa` hierarchy.
    pub fn isa(&self) -> &Hierarchy {
        self.hierarchies.get(ISA).expect("isa always defined")
    }

    /// The `part-of` hierarchy.
    pub fn part_of(&self) -> &Hierarchy {
        self.hierarchies.get(PART_OF).expect("part-of always defined")
    }

    /// Mutable `isa` hierarchy.
    pub fn isa_mut(&mut self) -> &mut Hierarchy {
        self.hierarchy_mut(ISA)
    }

    /// Mutable `part-of` hierarchy.
    pub fn part_of_mut(&mut self) -> &mut Hierarchy {
        self.hierarchy_mut(PART_OF)
    }

    /// Defined relationship names, sorted.
    pub fn relations(&self) -> Vec<&str> {
        self.hierarchies.keys().map(String::as_str).collect()
    }
}

impl Default for Ontology {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isa_and_partof_always_defined() {
        let o = Ontology::new();
        assert!(o.hierarchy(ISA).is_some());
        assert!(o.hierarchy(PART_OF).is_some());
        assert!(o.hierarchy("ora").is_none());
        assert_eq!(o.relations(), vec!["isa", "part-of"]);
    }

    #[test]
    fn custom_relations_created_on_demand() {
        let mut o = Ontology::new();
        o.hierarchy_mut("ora").add_leq("google", "company").unwrap();
        assert!(o.hierarchy("ora").unwrap().leq_terms("google", "company"));
        assert_eq!(o.relations().len(), 3);
    }
}
