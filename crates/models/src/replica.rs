//! The deterministic macro-step schedule of replicated training.
//!
//! A *macro-step* draws [`MACRO_WIDTH`] independent micro-batches and
//! trains each against a shared frozen parameter snapshot; the per-batch
//! sparse gradients are then folded **in batch order**
//! ([`facility_autograd::fold_grads_ordered`]) and applied once. Three
//! choices make the whole schedule a pure function of the seed,
//! independent of how many worker threads execute it:
//!
//! 1. **Fixed macro width.** The macro-step always spans `MACRO_WIDTH`
//!    micro-batches no matter how many workers exist, so the gradient
//!    schedule (partitioning, fold order, optimizer step count) is
//!    identical for every `--replicas` value; the replica count only
//!    chooses how many threads chew through the fixed schedule.
//! 2. **Per-batch RNG streams.** Each micro-batch seeds its own RNG from
//!    [`replica_stream`]`(stream_base, batch_index)`, so sampling and
//!    dropout never race on a shared stream and batch `i` draws the same
//!    samples whichever worker runs it.
//! 3. **Slot-ordered results.** [`facility_linalg::pooled_map`] assigns
//!    job `j` to worker `j % threads` and writes its result into slot `j`,
//!    so downstream folds see results in job order, never completion
//!    order.
//!
//! Workers only run tapes: the macro-step's *prepare* phase — sampling,
//! the shared union subgraph extraction
//! (`facility_kg::subgraph::SubgraphScratch::extract_many`), and the
//! lazy-Adam catch-up of the rows it reads — happens once on the main thread
//! before the pool is invoked, so per-batch work contains no redundant
//! traversal and aggregate extraction cost is independent of the
//! replica count (DESIGN.md §4f).

use facility_linalg::rng::splitmix64;
use facility_linalg::Rng;

/// Number of micro-batches per macro-step. Fixed (rather than equal to
/// the replica count) so the gradient schedule — and therefore the loss
/// trajectory — is bitwise-identical for every `--replicas` value.
pub const MACRO_WIDTH: usize = 8;

/// Default replica count: available cores, capped at [`MACRO_WIDTH`]
/// (more workers than micro-batches per macro-step would idle).
pub fn default_replicas() -> usize {
    facility_linalg::pool::available_workers().min(MACRO_WIDTH)
}

/// Derive the seed for micro-batch `idx`'s private RNG stream from the
/// epoch's `stream_base` (itself one `next_u64` draw from the epoch RNG,
/// so retries/resumes re-derive it for free).
pub fn replica_stream(stream_base: u64, idx: u64) -> u64 {
    splitmix64(stream_base ^ splitmix64(idx))
}

/// A fresh [`Rng`] for micro-batch `idx` of the current epoch.
pub fn batch_rng(stream_base: u64, idx: u64) -> Rng {
    facility_linalg::seeded_rng(replica_stream(stream_base, idx))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_streams_are_distinct_and_stable() {
        let base = 0xDEAD_BEEF;
        let a = replica_stream(base, 0);
        let b = replica_stream(base, 1);
        assert_ne!(a, b);
        assert_eq!(a, replica_stream(base, 0), "pure function of (base, idx)");
        // The derived RNGs draw different streams.
        let mut ra = batch_rng(base, 0);
        let mut rb = batch_rng(base, 1);
        assert_ne!(ra.next_u64(), rb.next_u64());
    }

    #[test]
    fn default_replicas_is_positive_and_capped() {
        let r = default_replicas();
        assert!((1..=MACRO_WIDTH).contains(&r));
    }
}
