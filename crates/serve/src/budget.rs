//! Per-client budget classes: named [`QueryBudget`] envelopes.
//!
//! A shared server cannot let clients pick arbitrary budgets — an
//! unlimited deadline is a denial-of-service primitive. Instead every
//! request names a **class**; the class fixes ceilings and the request
//! may only tighten them (overrides are clamped to the class ceiling,
//! never raised above it).
//!
//! | class         | deadline | expansion terms | docs scanned |
//! |---------------|----------|-----------------|--------------|
//! | `best_effort` | 250 ms   | 128             | 10 000       |
//! | `interactive` | 2 s      | 1 024           | 200 000      |
//! | `batch`       | 30 s     | 8 192           | 2 000 000    |
//!
//! Every class also carries witness and memory ceilings so one query
//! cannot hold the store's whole candidate set in RAM. The count caps
//! degrade (the response's `degraded` field explains what was
//! truncated); only the deadline fails a query. A class budget governs
//! one selection, which generates no join candidates, so it sets no
//! join-cardinality cap.

use std::time::Duration;
use toss_core::QueryBudget;

/// A named budget envelope (see the module table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BudgetClass {
    /// Small, fast, first to be shed: health checks and speculative UI
    /// queries.
    BestEffort,
    /// The default: human-facing queries.
    #[default]
    Interactive,
    /// Large offline scans; longest deadline, biggest caps.
    Batch,
}

impl BudgetClass {
    /// Every class, in shed-first order (telemetry iterates this to
    /// keep one SLO window per class).
    pub const ALL: [BudgetClass; 3] = [
        BudgetClass::BestEffort,
        BudgetClass::Interactive,
        BudgetClass::Batch,
    ];

    /// The wire string (`snake_case`).
    pub fn as_str(self) -> &'static str {
        match self {
            BudgetClass::BestEffort => "best_effort",
            BudgetClass::Interactive => "interactive",
            BudgetClass::Batch => "batch",
        }
    }

    /// Parse the wire string.
    pub(crate) fn parse(s: &str) -> Option<BudgetClass> {
        Some(match s {
            "best_effort" => BudgetClass::BestEffort,
            "interactive" => BudgetClass::Interactive,
            "batch" => BudgetClass::Batch,
            _ => return None,
        })
    }

    /// The class's deadline ceiling.
    pub(crate) fn max_deadline(self) -> Duration {
        match self {
            BudgetClass::BestEffort => Duration::from_millis(250),
            BudgetClass::Interactive => Duration::from_secs(2),
            BudgetClass::Batch => Duration::from_secs(30),
        }
    }

    fn term_ceiling(self) -> u64 {
        match self {
            BudgetClass::BestEffort => 128,
            BudgetClass::Interactive => 1_024,
            BudgetClass::Batch => 8_192,
        }
    }

    fn doc_ceiling(self) -> u64 {
        match self {
            BudgetClass::BestEffort => 10_000,
            BudgetClass::Interactive => 200_000,
            BudgetClass::Batch => 2_000_000,
        }
    }

    fn memory_ceiling(self) -> u64 {
        match self {
            BudgetClass::BestEffort => 16 << 20,
            BudgetClass::Interactive => 64 << 20,
            BudgetClass::Batch => 256 << 20,
        }
    }

    /// The group-commit latency target for **write** frames of this
    /// class: how long the single writer thread may hold a batch open
    /// waiting for more writes before it fsyncs and acknowledges.
    ///
    /// Writes default to the `batch` class (throughput: wide batches,
    /// one fsync amortized over many acks); an `interactive` write
    /// clamps the window down so a human-facing mutation is not held
    /// hostage to batching. A mixed batch closes at the *smallest*
    /// window of its members.
    pub(crate) fn group_commit_window(self) -> Duration {
        match self {
            BudgetClass::BestEffort => Duration::from_millis(5),
            BudgetClass::Interactive => Duration::from_millis(2),
            BudgetClass::Batch => Duration::from_millis(15),
        }
    }

    /// Ceiling on one write frame's document payload for this class
    /// (the `batch` ceiling is the largest; a class may only see its
    /// writes *rejected* above its ceiling, never silently truncated).
    pub(crate) fn max_write_bytes(self) -> usize {
        match self {
            BudgetClass::BestEffort => 64 << 10,
            BudgetClass::Interactive => 256 << 10,
            BudgetClass::Batch => 1 << 20,
        }
    }

    /// Assemble the [`QueryBudget`] for a request of this class.
    /// `timeout_ms`/`max_terms`/`max_docs` are the request's overrides;
    /// each is **clamped to the class ceiling** (a zero/absent override
    /// means "class default"). The result always has a deadline.
    pub fn budget(
        self,
        timeout_ms: Option<u64>,
        max_terms: Option<u64>,
        max_docs: Option<u64>,
    ) -> QueryBudget {
        let ceiling = self.max_deadline();
        let deadline = match timeout_ms {
            Some(ms) if ms > 0 => Duration::from_millis(ms).min(ceiling),
            _ => ceiling,
        };
        let terms = max_terms
            .filter(|&n| n > 0)
            .map_or(self.term_ceiling(), |n| n.min(self.term_ceiling()));
        let docs = max_docs
            .filter(|&n| n > 0)
            .map_or(self.doc_ceiling(), |n| n.min(self.doc_ceiling()));
        QueryBudget::unlimited()
            .with_deadline(deadline)
            .with_max_expansion_terms(terms)
            .with_max_docs_scanned(docs)
            .with_max_witnesses(10_000)
            .with_max_memory_bytes(self.memory_ceiling())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_strings_round_trip() {
        for c in [
            BudgetClass::BestEffort,
            BudgetClass::Interactive,
            BudgetClass::Batch,
        ] {
            assert_eq!(BudgetClass::parse(c.as_str()), Some(c));
        }
        assert_eq!(BudgetClass::parse("supersonic"), None);
        assert_eq!(BudgetClass::default(), BudgetClass::Interactive);
    }

    #[test]
    fn overrides_only_tighten() {
        let b = BudgetClass::Interactive.budget(Some(100), Some(10), Some(50));
        assert_eq!(b.deadline, Some(Duration::from_millis(100)));
        assert_eq!(b.max_expansion_terms, Some(10));
        assert_eq!(b.max_docs_scanned, Some(50));

        // an override above the ceiling is clamped down, never raised
        let b = BudgetClass::BestEffort.budget(Some(60_000), Some(1 << 40), None);
        assert_eq!(b.deadline, Some(Duration::from_millis(250)));
        assert_eq!(b.max_expansion_terms, Some(128));
        assert_eq!(b.max_docs_scanned, Some(10_000));
    }

    #[test]
    fn zero_or_absent_override_means_class_default() {
        for timeout in [None, Some(0)] {
            let b = BudgetClass::Batch.budget(timeout, Some(0), None);
            assert_eq!(b.deadline, Some(Duration::from_secs(30)));
            assert_eq!(b.max_expansion_terms, Some(8_192));
            assert_eq!(b.max_docs_scanned, Some(2_000_000));
        }
    }

    #[test]
    fn write_windows_clamp_interactive_below_batch() {
        // the satellite contract: writes batch by default, but an
        // interactive-class write must close its group-commit window
        // sooner than a batch-class one — and every window is bounded
        // well below the class deadline, so an ack is never deadline-
        // limited by batching alone.
        let interactive = BudgetClass::Interactive.group_commit_window();
        let batch = BudgetClass::Batch.group_commit_window();
        assert!(
            interactive < batch,
            "interactive window {interactive:?} must undercut batch {batch:?}"
        );
        for c in BudgetClass::ALL {
            let w = c.group_commit_window();
            assert!(w > Duration::ZERO, "{c:?} window must be positive");
            assert!(
                w * 10 < c.max_deadline(),
                "{c:?} window {w:?} must be well under the {:?} deadline",
                c.max_deadline()
            );
            assert!(c.max_write_bytes() > 0);
        }
        // write-size ceilings are ordered like the classes themselves
        assert!(
            BudgetClass::BestEffort.max_write_bytes()
                < BudgetClass::Interactive.max_write_bytes()
        );
        assert!(
            BudgetClass::Interactive.max_write_bytes()
                < BudgetClass::Batch.max_write_bytes()
        );
    }

    #[test]
    fn every_class_budget_has_a_deadline_and_count_caps() {
        for c in BudgetClass::ALL {
            let b = c.budget(None, None, None);
            assert!(b.deadline.is_some(), "{c:?} must have a deadline");
            for cap in [
                b.max_expansion_terms,
                b.max_docs_scanned,
                b.max_witnesses,
                b.max_memory_bytes,
            ] {
                assert!(cap.is_some(), "{c:?} caps every count a selection charges");
            }
            assert_eq!(
                b.max_join_cardinality, None,
                "{c:?}: a selection joins nothing"
            );
        }
    }
}
