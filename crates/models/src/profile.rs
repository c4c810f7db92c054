//! Per-phase instrumentation for one training epoch.
//!
//! Propagation-based models spend their time in four places — negative
//! sampling, the once-per-epoch attention refresh, the propagation
//! forward pass, and backward/optimizer work — and the batch-local
//! subgraph engine changes the balance drastically. [`EpochProfile`]
//! captures wall time and work counters per phase so the bench harness
//! (`epoch_profile`) and the trainer's [`EpochLog`] can record a perf
//! trajectory across PRs.
//!
//! [`EpochLog`]: https://docs.rs/facility-eval

/// Wall-time and work counters for one epoch of training.
///
/// Times are nanoseconds. FLOP counts are *estimates* from closed-form
/// per-op formulas (dense matmul `2·m·k·n`, elementwise `m·n`, …), good
/// for relative comparisons rather than absolute hardware utilization.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EpochProfile {
    /// Time drawing BPR and TransR batches.
    pub sampling_ns: u64,
    /// Time refreshing per-edge attention weights (once per epoch).
    pub attention_ns: u64,
    /// Time building forward tapes (propagation + losses).
    pub forward_ns: u64,
    /// Time in backward passes (gradient computation only).
    pub backward_ns: u64,
    /// Time in optimizer updates (`ParamStore::apply` + lazy-row syncs).
    pub optimizer_ns: u64,
    /// **Aggregate extraction CPU**: time spent inside BFS subgraph
    /// extraction summed across *every* thread that extracted — the
    /// prefetch thread on the legacy path, the main thread in replica
    /// mode. Under concurrency this is CPU-seconds, not wall time (it can
    /// exceed `wall_ns`), so it measures redundant extraction *work* —
    /// the quantity the macro-step union extraction drives sublinear in
    /// the replica count. Cross-R comparisons of this field are
    /// apples-to-apples; for critical-path attribution use
    /// [`EpochProfile::extract_wall_ns`].
    pub extract_ns: u64,
    /// **Wall-attributed extraction**: extraction time that sat on the
    /// main thread's critical path — the once-per-macro-step union
    /// extraction in replica mode, or, on the prefetch batch-local path,
    /// the portion of each blocked `recv` covered by that batch's own
    /// extraction CPU (`min(blocked, extract)` per batch). 0 when
    /// extraction is fully overlapped by the prefetch thread. Part of
    /// [`EpochProfile::train_ns`].
    pub extract_wall_ns: u64,
    /// Time the main training thread spent **blocked waiting** on the
    /// prefetch channel *beyond* the batch's extraction CPU —
    /// channel/scheduling overhead, not extraction itself (which goes to
    /// [`EpochProfile::extract_wall_ns`]). It does *not* include work the
    /// main thread performed itself (sampling, remaps, union extraction):
    /// those are charged to their own fields. 0 in replica mode, where
    /// extraction happens on the main thread. Part of
    /// [`EpochProfile::train_ns`].
    pub extract_wait_ns: u64,
    /// Time folding per-replica gradients into the macro-step gradient
    /// (main thread, replica mode only; 0 on the per-batch paths).
    pub reduce_ns: u64,
    /// End-to-end wall-clock time of the `train_epoch` call. Unlike
    /// [`EpochProfile::train_ns`] — a *sum of component times*, which
    /// under data-parallel replicas aggregates across workers and can
    /// exceed real time — this is the honest speedup denominator.
    pub wall_ns: u64,
    /// Replica workers used for this epoch (0 = legacy per-batch path).
    pub replicas: u64,
    /// Time spent in evaluation, when the caller evaluated this epoch
    /// (filled by the trainer, not the model).
    pub eval_ns: u64,
    /// Estimated forward-pass FLOPs over the whole epoch.
    pub forward_flops: u64,
    /// Embedding rows placed on the propagation tape, summed over batches.
    pub gathered_rows: u64,
    /// CKG edges propagated, summed over batches.
    pub gathered_edges: u64,
    /// Head rows the propagation layers computed, summed over layers and
    /// batches: each layer's own frontier on the batch-local paths,
    /// `n_entities` per layer for a full-graph pass.
    pub frontier_rows: u64,
    /// Rows the full-graph path would have used (`n_entities · batches`).
    pub full_rows: u64,
    /// Edges the full-graph path would have used (`n_edges · batches`).
    pub full_edges: u64,
    /// Number of mini-batches this epoch.
    pub batches: u64,
}

impl EpochProfile {
    /// Fraction of full-graph rows actually gathered (1.0 when the model
    /// propagates over the whole graph; < 1.0 under batch-local mode).
    pub fn row_fraction(&self) -> f64 {
        if self.full_rows == 0 {
            1.0
        } else {
            self.gathered_rows as f64 / self.full_rows as f64
        }
    }

    /// Fraction of full-graph edges actually propagated.
    pub fn edge_fraction(&self) -> f64 {
        if self.full_edges == 0 {
            1.0
        } else {
            self.gathered_edges as f64 / self.full_edges as f64
        }
    }

    /// Total instrumented wall time (training phases only): sampling,
    /// attention refresh, forward, backward, optimizer, critical-path
    /// extraction ([`EpochProfile::extract_wall_ns`]) and any time blocked
    /// on subgraph prefetch. Aggregate
    /// extraction CPU ([`EpochProfile::extract_ns`]) is excluded — under
    /// concurrency it double-counts time that other fields already
    /// attribute to the critical path.
    pub fn train_ns(&self) -> u64 {
        self.sampling_ns
            + self.attention_ns
            + self.forward_ns
            + self.backward_ns
            + self.optimizer_ns
            + self.extract_wall_ns
            + self.extract_wait_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_degrade_gracefully_on_empty_profiles() {
        let p = EpochProfile::default();
        assert_eq!(p.row_fraction(), 1.0);
        assert_eq!(p.edge_fraction(), 1.0);
        assert_eq!(p.train_ns(), 0);
    }

    #[test]
    fn fractions_reflect_counters() {
        let p = EpochProfile {
            gathered_rows: 25,
            full_rows: 100,
            gathered_edges: 10,
            full_edges: 40,
            ..Default::default()
        };
        assert_eq!(p.row_fraction(), 0.25);
        assert_eq!(p.edge_fraction(), 0.25);
    }

    #[test]
    fn train_ns_counts_wait_but_not_overlapped_extraction() {
        let p = EpochProfile {
            sampling_ns: 1,
            attention_ns: 2,
            forward_ns: 3,
            backward_ns: 4,
            optimizer_ns: 5,
            extract_ns: 1000,
            extract_wait_ns: 6,
            ..Default::default()
        };
        assert_eq!(p.train_ns(), 1 + 2 + 3 + 4 + 5 + 6);
    }

    #[test]
    fn train_ns_counts_wall_attributed_extraction() {
        // Replica-mode shape: union extraction on the main thread, no
        // prefetch blocking, aggregate CPU reported separately.
        let p = EpochProfile {
            forward_ns: 10,
            backward_ns: 20,
            extract_ns: 9999,
            extract_wall_ns: 7,
            extract_wait_ns: 0,
            ..Default::default()
        };
        assert_eq!(p.train_ns(), 10 + 20 + 7);
    }
}
