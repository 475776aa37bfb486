//! The top-level database: a set of named collections.

use crate::collection::Collection;
use crate::error::{DbError, DbResult};
use std::collections::BTreeMap;

/// Configuration for a [`Database`].
#[derive(Debug, Clone)]
pub struct DatabaseConfig {
    /// Per-collection serialized-size limit in bytes. The default is
    /// Xindice's 5 MB cap, which the paper's experiments ran against; set
    /// to `None` for unlimited collections.
    pub collection_size_limit: Option<usize>,
}

impl Default for DatabaseConfig {
    fn default() -> Self {
        DatabaseConfig {
            // 5 MB, the Xindice limit cited in Section 6 of the paper.
            collection_size_limit: Some(5 * 1024 * 1024),
        }
    }
}

impl DatabaseConfig {
    /// A configuration with no per-collection size limit.
    pub fn unlimited() -> Self {
        DatabaseConfig {
            collection_size_limit: None,
        }
    }
}

/// An XML database: named collections of documents.
#[derive(Debug)]
pub struct Database {
    config: DatabaseConfig,
    collections: BTreeMap<String, Collection>,
}

impl Database {
    /// A database with the default (Xindice-like) configuration.
    pub(crate) fn new() -> Self {
        Self::with_config(DatabaseConfig::default())
    }

    /// A database with an explicit configuration.
    pub fn with_config(config: DatabaseConfig) -> Self {
        Database {
            config,
            collections: BTreeMap::new(),
        }
    }

    /// The active configuration.
    pub(crate) fn config(&self) -> &DatabaseConfig {
        &self.config
    }

    /// Create a collection; errors if the name is taken.
    pub fn create_collection(&mut self, name: &str) -> DbResult<&mut Collection> {
        match self.collections.entry(name.to_string()) {
            std::collections::btree_map::Entry::Occupied(_) => {
                Err(DbError::CollectionExists(name.to_string()))
            }
            std::collections::btree_map::Entry::Vacant(slot) => {
                Ok(slot.insert(Collection::new(name, self.config.collection_size_limit)))
            }
        }
    }

    /// Drop a collection; errors if it does not exist.
    pub fn drop_collection(&mut self, name: &str) -> DbResult<Collection> {
        self.collections
            .remove(name)
            .ok_or_else(|| DbError::NoSuchCollection(name.to_string()))
    }

    /// Borrow a collection.
    pub fn collection(&self, name: &str) -> DbResult<&Collection> {
        self.collections
            .get(name)
            .ok_or_else(|| DbError::NoSuchCollection(name.to_string()))
    }

    /// Mutably borrow a collection.
    pub fn collection_mut(&mut self, name: &str) -> DbResult<&mut Collection> {
        self.collections
            .get_mut(name)
            .ok_or_else(|| DbError::NoSuchCollection(name.to_string()))
    }

    /// Names of all collections, sorted.
    pub fn collection_names(&self) -> Vec<&str> {
        self.collections.keys().map(String::as_str).collect()
    }

    /// Iterate over collections in name order.
    pub fn collections(&self) -> impl Iterator<Item = &Collection> {
        self.collections.values()
    }

    /// Iterate mutably over collections in name order.
    pub(crate) fn collections_mut(&mut self) -> impl Iterator<Item = &mut Collection> {
        self.collections.values_mut()
    }

    /// Total size in bytes across all collections.
    pub fn total_size_bytes(&self) -> usize {
        self.collections.values().map(Collection::size_bytes).sum()
    }
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use toss_tree::TreeBuilder;

    #[test]
    fn create_and_drop_collections() {
        let mut db = Database::new();
        db.create_collection("dblp").unwrap();
        db.create_collection("sigmod").unwrap();
        assert_eq!(db.collection_names(), vec!["dblp", "sigmod"]);
        assert!(matches!(
            db.create_collection("dblp"),
            Err(DbError::CollectionExists(_))
        ));
        db.drop_collection("dblp").unwrap();
        assert!(matches!(
            db.collection("dblp"),
            Err(DbError::NoSuchCollection(_))
        ));
        assert!(matches!(
            db.drop_collection("dblp"),
            Err(DbError::NoSuchCollection(_))
        ));
    }

    #[test]
    fn default_config_carries_xindice_limit() {
        let db = Database::new();
        assert_eq!(db.config().collection_size_limit, Some(5 * 1024 * 1024));
        let un = Database::with_config(DatabaseConfig::unlimited());
        assert_eq!(un.config().collection_size_limit, None);
    }

    #[test]
    fn collections_inherit_limit() {
        let mut db = Database::with_config(DatabaseConfig {
            collection_size_limit: Some(10),
        });
        let c = db.create_collection("tiny").unwrap();
        let t = TreeBuilder::new("aaaaaaaaaa").build(); // >10 bytes serialized
        assert!(matches!(c.insert(t), Err(DbError::CollectionFull { .. })));
    }

    #[test]
    fn total_size_sums_collections() {
        let mut db = Database::with_config(DatabaseConfig::unlimited());
        db.create_collection("a").unwrap();
        db.create_collection("b").unwrap();
        db.collection_mut("a")
            .unwrap()
            .insert(TreeBuilder::new("x").build())
            .unwrap();
        db.collection_mut("b")
            .unwrap()
            .insert(TreeBuilder::new("y").build())
            .unwrap();
        assert_eq!(db.total_size_bytes(), 8);
    }
}
