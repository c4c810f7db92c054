#![warn(missing_docs)]

//! # facility-kg
//!
//! Collaborative knowledge graph (CKG) construction for facility data
//! discovery, implementing Section IV of the paper.
//!
//! A CKG merges three subgraphs by entity alignment:
//!
//! * **UIG** — the user–item bipartite graph of data queries
//!   (`(u, Interact, v)` triples),
//! * **UUG** — the user–user graph of co-located users
//!   (`(u, Interact, u')` triples; the paper folds both into the single
//!   `Interact` relation),
//! * **IAG** — the item–attribute knowledge graph `(h, r, t)`, split into
//!   knowledge *sources*: instrument location (**LOC**), data-domain
//!   knowledge (**DKG**), and instrument metadata (**MD**, which the paper
//!   treats as noise).
//!
//! The crate provides:
//!
//! * [`builder::CkgBuilder`] / [`builder::Ckg`] — assembly with a
//!   per-source mask (for the Table III ablation), inverse relations, and
//!   a CSR edge layout ready for segment-based message passing,
//! * [`interactions::Interactions`] — per-user positive item lists with a
//!   reproducible train/test split,
//! * [`sampling`] — BPR `(u, i⁺, j⁻)` batches and TransR
//!   `(h, r, t, t⁻)` corruption batches,
//! * [`stats`] — the CKG statistics reported in Table I.

pub mod builder;
pub mod interactions;
pub mod sampling;
pub mod stats;
pub mod subgraph;

pub use builder::{Ckg, CkgBuilder, KnowledgeSource, SourceMask};
pub use interactions::Interactions;
pub use stats::CkgStats;
pub use subgraph::{BatchSubgraph, LayerFrontier, SubgraphScratch, UnionExtraction};

/// Compact index type for users, items, entities, and relations.
///
/// The CKGs in the paper have a few thousand entities (Table I), so `u32`
/// halves the memory traffic of edge arrays compared to `usize` (per the
/// perf-book guidance on smaller integers).
pub type Id = u32;
