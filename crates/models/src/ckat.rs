//! CKAT — the collaborative knowledge-aware graph attention network, the
//! paper's primary contribution (Section V).
//! audit: module unwrap — embedding rows are indexed by ids bounded at CKG
//! construction; the model parity/unit tests cover every lookup path.
//!
//! Three components:
//!
//! 1. **Embedding layer** — TransR entity/relation embeddings trained with
//!    the margin loss `L₁` (Eqs. 1–2).
//! 2. **Knowledge-aware attentive embedding propagation** — `L` layers
//!    that aggregate each entity's neighborhood, weighted by the
//!    relational attention `f_a(h,r,t) = (W_r e_t)ᵀ tanh(W_r e_h + e_r)`
//!    normalized per neighborhood (Eqs. 3–5), with a *concat* or *sum*
//!    aggregator (Eqs. 6–7) and message dropout.
//! 3. **Prediction layer** — layer representations are concatenated
//!    (Eq. 10) and scored by inner product (Eq. 11); training uses BPR
//!    (Eq. 12) plus L2 (Eq. 13).
//!
//! Implementation note: as in the reference KGAT implementation this model
//! family builds on, the attention weights over the full CKG are
//! *refreshed once per epoch* (forward-only) and held constant inside each
//! mini-batch; the attention parameters (`W_r`, `e_r`) learn through the
//! TransR objective, and everything else backpropagates through the
//! propagation stack. The "w/o Att" ablation of Table IV replaces the
//! attention with uniform `1/|N_h|` weights.
//!
//! ## Batch-local subgraph propagation, sparse gradients, and prefetch
//!
//! Training only ever reads the final representations of the batch's
//! users/items, whose `L`-layer receptive field is the batch seeds' L-hop
//! in-neighborhood — usually a small fraction of the CKG. With
//! [`CkatConfig::batch_local`] (the default) each mini-batch extracts that
//! receptive field with its level structure
//! ([`facility_kg::SubgraphScratch`]) and propagates **frontier by
//! frontier**: layer `l` computes only the heads within `L − l` hops of
//! the seeds (`F_{L−l}`), the rows a later layer or the loss reads, and
//! the seed rows of each layer are gathered onto a running seed block
//! right after it ([`propagate_frontier`]). Every activation and its
//! gradient is O(that layer's frontier) instead of O(graph) — or
//! O(closure), which on dense worlds is every entity. Three further
//! optimizations ride on that structure:
//!
//! * **Sparse embedding gradients** — the entity matrix enters the tape
//!   as a [`Tape::gather_leaf`] over exactly the subgraph rows, so
//!   backward produces a row-sparse gradient
//!   ([`facility_autograd::SparseRowGrad`]) and never materializes an
//!   `n_entities × d` buffer. The TransR phase does the same over the
//!   KG batch's head/tail/corrupt-tail union.
//! * **Lazy Adam** — sparse gradients step only the touched rows;
//!   untouched rows defer their zero-gradient moment decay until the next
//!   time they are read ([`ParamStore::sync_rows`] /
//!   [`ParamStore::sync_all`]), which replays the skipped steps exactly.
//! * **Double-buffered extraction** — a scoped worker thread extracts
//!   batch `b+1`'s receptive field while the main thread trains batch
//!   `b`, handing subgraphs over a bounded channel; all mini-batches are
//!   drawn up front (in the same RNG order as inline sampling) so the
//!   worker knows every seed set.
//!
//! Because the subgraph preserves the global CSR accumulation order
//! (head rows sorted by global id, full edge slices copied verbatim), the
//! seed gathers sit where a whole-graph pass concatenates each layer, and
//! lazy Adam's catch-up replays the exact per-step update recurrence, the
//! batch-local path is **bitwise identical** to full-graph propagation
//! with dense Adam. That holds under dropout too: each micro-batch draws
//! one key, and [`Tape::dropout_keyed`] derives the mask of element
//! `(layer, entity, column)` from it, so a row's mask does not depend on
//! which rows share the tape.
//!
//! There is one propagation path for training. `batch_local: false` runs
//! the same loop with every entity as the seed set of every micro-batch,
//! so the full-graph oracle differs from the fast path only in its input
//! (`tests/batch_local_diff.rs`). The stacked whole-graph pass survives
//! only as a test oracle (`propagate_over` in this module's tests);
//! evaluation runs the same ops layer by layer, forward only
//! ([`Ckat::entity_representations`]).
//!
//! ## Replica mode: shared macro-step extraction
//!
//! Replica training (`base.replicas ≥ 1`, see `crate::replica`) batches
//! [`MACRO_WIDTH`] micro-batches per optimizer step, and their receptive
//! fields overlap heavily — each re-walks the same high-degree
//! neighborhoods. One [`SubgraphScratch::extract_many`] BFS extracts the
//! union receptive field of all seed sets per macro-step; each batch's
//! [`BatchSubgraph`] is then derived by local-id remap, and is
//! bitwise-identical to what an independent extraction would build
//! (proven in `tests/batch_local_diff.rs`). Aggregate extraction CPU
//! stops scaling with the replica count, and whole runs stay
//! bitwise-identical across replica counts (`tests/replica_diff.rs`).
//!
//! [`Tape::dropout_keyed`]: facility_autograd::Tape::dropout_keyed

use crate::common::{bpr_loss, dedup_seeds, dot_scores, union_locals, ModelConfig, TrainContext};
use crate::profile::EpochProfile;
use crate::replica::{batch_rng, MACRO_WIDTH};
use crate::transr;
use crate::Recommender;
use facility_autograd::{fold_grads_ordered, Adam, Grad, ParamId, ParamStore, Tape, Var};
use facility_ckpt::{CkptError, ModelState};
use facility_kg::sampling::{sample_bpr_batch, sample_kg_batch, BprSample, KgSample};
use facility_kg::{BatchSubgraph, Ckg, Id, LayerFrontier, SubgraphScratch};
use facility_linalg::rng::splitmix64;
use facility_linalg::{init, pooled_map, seeded_rng, Matrix, Rng};
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// Neighborhood aggregation variants (Table IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregator {
    /// `LeakyReLU(W (e_h ‖ e_{N_h}))` — the paper's default (Eq. 6).
    Concat,
    /// `LeakyReLU(W (e_h + e_{N_h}))` (Eq. 7).
    Sum,
}

/// CKAT hyperparameters.
#[derive(Debug, Clone)]
pub struct CkatConfig {
    /// Shared hyperparameters.
    pub base: ModelConfig,
    /// Output dimension of each propagation layer (paper: `[64, 32, 16]`,
    /// depth `L = 3`).
    pub layer_dims: Vec<usize>,
    /// Knowledge-aware attention on/off (Table IV ablation).
    pub use_attention: bool,
    /// Aggregator choice (Table IV ablation).
    pub aggregator: Aggregator,
    /// TransR relation-space dimension `k`.
    pub transr_dim: usize,
    /// TransR margin `γ`.
    pub margin: f32,
    /// Extract each mini-batch's own L-hop receptive field (the default).
    /// `false` seeds every micro-batch with every entity instead, so each
    /// layer computes every row: the full-graph oracle, bitwise identical
    /// and much slower (see module docs). Replica mode ignores it and
    /// always extracts each micro-batch's own field.
    pub batch_local: bool,
}

impl From<&ModelConfig> for CkatConfig {
    fn from(base: &ModelConfig) -> Self {
        let d = base.embed_dim;
        Self {
            base: base.clone(),
            layer_dims: vec![d, d / 2, d / 4],
            use_attention: true,
            aggregator: Aggregator::Concat,
            transr_dim: d,
            margin: 1.0,
            batch_local: true,
        }
    }
}

impl CkatConfig {
    /// Depth `L` (number of propagation layers).
    pub fn depth(&self) -> usize {
        self.layer_dims.len()
    }

    /// Total dimension of the final concatenated representation (Eq. 10).
    pub fn final_dim(&self) -> usize {
        self.base.embed_dim + self.layer_dims.iter().sum::<usize>()
    }
}

/// The CKAT model.
pub struct Ckat {
    store: ParamStore,
    adam: Adam,
    ent_emb: ParamId,
    rel_emb: ParamId,
    rel_proj: ParamId,
    layer_w: Vec<ParamId>,
    layer_b: Vec<ParamId>,
    config: CkatConfig,
    n_users: usize,
    n_entities: usize,
    n_rel: usize,
    /// CKG edge tails as gather indices (CSR order).
    tails: Arc<Vec<usize>>,
    /// CKG edge heads as segment ids (CSR order).
    heads: Arc<Vec<usize>>,
    /// Item entity ids, contiguous (`n_users..n_users+n_items`).
    item_entities: Vec<usize>,
    /// Attention weight per edge, refreshed once per epoch.
    att: Vec<f32>,
    att_fresh: bool,
    cached_users: Option<Matrix>,
    cached_items: Option<Matrix>,
    /// Reusable arena for per-batch and macro-step receptive-field
    /// extraction (always on the thread that owns `&mut self`).
    scratch: SubgraphScratch,
    /// Instrumentation from the most recent epoch, consumed by
    /// [`Recommender::take_epoch_profile`].
    last_profile: Option<EpochProfile>,
}

impl Ckat {
    /// Initialize from the training context.
    pub fn new(ctx: &TrainContext<'_>, config: &CkatConfig) -> Self {
        assert!(!config.layer_dims.is_empty(), "CKAT needs at least one propagation layer");
        let mut rng = seeded_rng(config.base.seed);
        let d = config.base.embed_dim;
        let k = config.transr_dim;
        let n_ent = ctx.ckg.n_entities();
        let n_rel = ctx.ckg.n_relations_with_inverse();
        let mut store = ParamStore::new();
        let ent_emb = store.add("ent_emb", init::xavier_uniform(n_ent, d, &mut rng));
        let rel_emb = store.add("rel_emb", init::xavier_uniform(n_rel, k, &mut rng));
        let rel_proj = store.add("rel_proj", init::xavier_uniform(n_rel * d, k, &mut rng));
        let mut layer_w = Vec::new();
        let mut layer_b = Vec::new();
        let mut in_dim = d;
        for (l, &out_dim) in config.layer_dims.iter().enumerate() {
            let rows = match config.aggregator {
                Aggregator::Concat => 2 * in_dim,
                Aggregator::Sum => in_dim,
            };
            layer_w.push(store.add(format!("w{l}"), init::xavier_uniform(rows, out_dim, &mut rng)));
            layer_b.push(store.add(format!("b{l}"), Matrix::zeros(1, out_dim)));
            in_dim = out_dim;
        }
        let adam = Adam::default_for(&store, config.base.lr);
        let tails: Arc<Vec<usize>> = Arc::new(ctx.ckg.tails.iter().map(|&t| t as usize).collect());
        let heads: Arc<Vec<usize>> = Arc::new(ctx.ckg.heads.iter().map(|&h| h as usize).collect());
        let item_entities: Vec<usize> =
            (0..ctx.inter.n_items).map(|i| ctx.ckg.item_entity(i as Id)).collect();
        Self {
            store,
            adam,
            ent_emb,
            rel_emb,
            rel_proj,
            layer_w,
            layer_b,
            config: config.clone(),
            n_users: ctx.inter.n_users,
            n_entities: n_ent,
            n_rel,
            tails,
            heads,
            item_entities,
            att: Vec::new(),
            att_fresh: false,
            cached_users: None,
            cached_items: None,
            scratch: SubgraphScratch::new(n_ent),
            last_profile: None,
        }
    }

    /// Warm-start constructor for incremental CKG growth (the paper's
    /// Section VI-F limitation: "when the facility adds new instruments or
    /// data objects, the fine-tuning process needs to be repeated").
    ///
    /// `entity_map[new_entity] = Some(old_entity)` copies the previous
    /// model's embedding row for entities that survived the graph update;
    /// `None` rows keep their fresh Xavier initialization. Layer weights
    /// are copied whenever shapes match (same config => always).
    pub fn new_warm(
        ctx: &TrainContext<'_>,
        config: &CkatConfig,
        previous: &Ckat,
        entity_map: &[Option<usize>],
    ) -> Self {
        let mut model = Self::new(ctx, config);
        assert_eq!(
            entity_map.len(),
            ctx.ckg.n_entities(),
            "entity_map must cover every new entity"
        );
        let prev_emb = previous.store.value(previous.ent_emb);
        assert_eq!(
            prev_emb.cols(),
            config.base.embed_dim,
            "warm start requires matching embedding width"
        );
        let emb = model.store.value_mut(model.ent_emb);
        for (new_e, old) in entity_map.iter().enumerate() {
            if let Some(old_e) = old {
                emb.set_row(new_e, prev_emb.row(*old_e));
            }
        }
        for (dst, src) in model.layer_w.iter().zip(&previous.layer_w) {
            if previous.store.value(*src).shape() == model.store.value(*dst).shape() {
                let v = previous.store.value(*src).clone();
                *model.store.value_mut(*dst) = v;
            }
        }
        for (dst, src) in model.layer_b.iter().zip(&previous.layer_b) {
            if previous.store.value(*src).shape() == model.store.value(*dst).shape() {
                let v = previous.store.value(*src).clone();
                *model.store.value_mut(*dst) = v;
            }
        }
        // Relation parameters survive a graph update whenever the relation
        // vocabulary and TransR dimension are unchanged — dropping them
        // silently re-randomized the attention mechanism on warm start.
        for (dst, src) in [(model.rel_emb, previous.rel_emb), (model.rel_proj, previous.rel_proj)] {
            if previous.store.value(src).shape() == model.store.value(dst).shape() {
                let v = previous.store.value(src).clone();
                *model.store.value_mut(dst) = v;
            }
        }
        // Whatever attention snapshot the previous model held was computed
        // on the old graph; the warm model must refresh before eval.
        model.att_fresh = false;
        model
    }

    /// Recompute the per-edge attention weights from current parameters
    /// (Eqs. 4–5), or uniform weights for the ablation.
    fn refresh_attention(&mut self, ctx: &TrainContext<'_>) {
        self.att = if self.config.use_attention {
            transr::attention_scores(
                ctx.ckg,
                self.store.value(self.ent_emb),
                self.store.value(self.rel_emb),
                self.store.value(self.rel_proj),
            )
        } else {
            transr::uniform_scores(ctx.ckg)
        };
        self.att_fresh = true;
    }

    /// Forward-only final representations of **all** entities (users,
    /// items, attributes), `n_entities × final_dim` — the concatenated
    /// multi-order embeddings of Eq. 10. Useful for exporting embeddings
    /// or downstream clustering. Requires fresh attention
    /// ([`Ckat::train_epoch`] or [`Ckat::prepare_eval`] refresh it).
    pub fn entity_representations(&self) -> Matrix {
        self.final_representations()
    }

    /// The current per-edge attention weights in CKG CSR edge order
    /// (empty before the first refresh).
    pub fn attention_weights(&self) -> &[f32] {
        &self.att
    }

    /// Clones of the per-layer aggregation weights and biases (`W_l`,
    /// `b_l`), for inspection and differential testing.
    pub fn layer_parameters(&self) -> (Vec<Matrix>, Vec<Matrix>) {
        (
            self.layer_w.iter().map(|&p| self.store.value(p).clone()).collect(),
            self.layer_b.iter().map(|&p| self.store.value(p).clone()).collect(),
        )
    }

    /// Forward-only final representations (used for evaluation).
    fn final_representations(&self) -> Matrix {
        assert!(!self.att.is_empty(), "attention not refreshed");
        // Forward only: each layer runs on a tape of its own, dropped
        // before the next layer starts, so the pass holds one layer's
        // intermediates instead of the whole stack's. The ops and their
        // inputs are those of the stacked whole-graph pass (the test
        // oracle `propagate_over`), so the bits are too.
        let mut h = self.store.value(self.ent_emb).clone();
        let width = h.cols() + self.config.layer_dims.iter().sum::<usize>();
        let mut all = Matrix::zeros(h.rows(), width);
        let mut put = |block: &Matrix, at: usize| {
            for (r, row) in block.iter_rows().enumerate() {
                all.row_mut(r)[at..at + row.len()].copy_from_slice(row);
            }
            at + block.cols()
        };
        let mut at = put(&h, 0);
        for l in 0..self.config.layer_dims.len() {
            let mut t = Tape::new();
            let h_in = t.constant(h);
            let att = t.constant(Matrix::from_vec(self.att.len(), 1, self.att.clone()));
            let w = t.constant(self.store.value(self.layer_w[l]).clone());
            let b = t.constant(self.store.value(self.layer_b[l]).clone());
            let (tails, heads) = (Arc::clone(&self.tails), Arc::clone(&self.heads));
            let e_n = t.gather_scale_segment_sum(h_in, att, tails, heads, self.n_entities);
            let out = layer_head(&self.config, &mut t, l, h_in, e_n, (w, b), None, &[]);
            h = t.value(out).clone();
            at = put(&h, at);
        }
        debug_assert_eq!(at, width);
        all
    }

    /// The per-batch training loop, batch-local or full-graph by its seed
    /// sets ([`batch_seeds`]):
    ///
    /// * a scoped worker thread extracts batch `b+1`'s receptive field
    ///   while the main thread trains batch `b` (double buffering over a
    ///   bounded rendezvous channel),
    /// * the entity matrix enters each tape as a gather leaf over exactly
    ///   the rows the batch reads, each layer computes only its frontier
    ///   ([`propagate_frontier`]), and backward yields a row-sparse
    ///   gradient that lazy Adam steps only those rows with,
    /// * [`ParamStore::sync_rows`] catches every row up before a tape
    ///   snapshots it, and [`ParamStore::sync_all`] squares the whole
    ///   matrix off at epoch end — so batch-local seeds reproduce the
    ///   every-entity seeds of the full-graph oracle bit for bit, dropout
    ///   included.
    fn run_batches_local(
        &mut self,
        ctx: &TrainContext<'_>,
        batches: &[(Vec<BprSample>, Vec<KgSample>)],
        rng: &mut Rng,
        prof: &mut EpochProfile,
    ) -> f32 {
        let Ckat {
            store,
            adam,
            ent_emb,
            rel_emb,
            rel_proj,
            layer_w,
            layer_b,
            config,
            n_entities,
            n_rel,
            att,
            scratch,
            ..
        } = self;
        let (ent_emb, rel_emb, rel_proj) = (*ent_emb, *rel_emb, *rel_proj);
        let (n_entities, n_rel) = (*n_entities, *n_rel);
        let config: &CkatConfig = config;
        let att: &[f32] = att;
        let depth = config.depth();
        let ckg = ctx.ckg;
        let full_edges = ckg.n_edges() as u64;

        let bprs = batches.iter().map(|(bpr, _)| bpr.as_slice());
        let (seed_sets, pos_maps) = batch_seeds(ckg, bprs, !config.batch_local);

        let mut total = 0.0;
        // One tape per phase for the epoch, reset per micro-batch.
        let (mut t, mut kt) = (Tape::new(), Tape::new());
        std::thread::scope(|sc| {
            // Capacity 1 = classic double buffering: the worker stays at
            // most one extraction ahead of the trainer. Exactly two sets
            // of subgraph buffers circulate: the worker extracts each
            // batch into a set it takes from `back_rx`, and the trainer
            // hands the set back after the batch's BPR step. Both sets
            // are allocated here, on this thread, with room for the whole
            // graph, so no subgraph buffer is allocated, grown or freed
            // by the worker, whatever sizes the batches reach or however
            // the two threads interleave.
            // The worker borrows the seed sets and both channels are
            // preallocated, so it frees nothing this thread allocated.
            let (tx, rx) = mpsc::sync_channel::<(BatchSubgraph, Vec<Vec<f32>>, u64)>(1);
            let (back_tx, back_rx) = mpsc::sync_channel::<(BatchSubgraph, Vec<Vec<f32>>)>(2);
            let seed_sets = &seed_sets;
            let max_seeds = seed_sets.iter().map(Vec::len).max().unwrap_or(0);
            for _ in 0..2 {
                let bufs = whole_graph_buffers(depth, n_entities, full_edges as usize, max_seeds);
                back_tx.send(bufs).expect("the receiver is alive");
            }
            sc.spawn(move || {
                // One seed set per batch, or the one every-entity set for
                // every batch.
                for seeds in seed_sets.iter().cycle().take(batches.len()) {
                    let Ok((mut sub, mut att_vals)) = back_rx.recv() else {
                        return; // trainer bailed out early
                    };
                    let clock = Instant::now();
                    scratch.extract_into(ckg, seeds, depth, &mut sub);
                    layer_attention_into(&sub, att, &mut att_vals);
                    let ns = clock.elapsed().as_nanos() as u64;
                    if tx.send((sub, att_vals, ns)).is_err() {
                        return; // trainer bailed out early
                    }
                }
            });
            for (i, ((batch, kg_batch), pos_map)) in batches.iter().zip(&pos_maps).enumerate() {
                let b = batch.len();
                prof.batches += 1;
                prof.full_rows += n_entities as u64;
                prof.full_edges += full_edges;

                let clock = Instant::now();
                let (mut sub, att_vals, extract_ns) =
                    rx.recv().expect("extraction worker terminated early");
                // Critical-path attribution: the time this recv blocked is
                // extraction wall time up to the batch's own extraction CPU
                // cost; any excess is channel/scheduling overhead and stays
                // in `extract_wait_ns` so `train_ns()` keeps summing to the
                // epoch wall clock.
                let wait = clock.elapsed().as_nanos() as u64;
                let wall = wait.min(extract_ns);
                prof.extract_wall_ns += wall;
                prof.extract_wait_ns += wait - wall;
                prof.extract_ns += extract_ns;
                account_frontier(prof, config, &sub);

                // Catch the subgraph's rows up to Adam's step count before
                // the tape snapshots them.
                let clock = Instant::now();
                store.sync_rows(adam, ent_emb, &sub.nodes);
                prof.optimizer_ns += clock.elapsed().as_nanos() as u64;

                let key = dropout_key(config, rng);
                let (step, lent) = bpr_step(
                    &mut t,
                    config,
                    store,
                    (ent_emb, layer_w, layer_b),
                    &mut sub,
                    &att_vals,
                    pos_map,
                    b,
                    key,
                );
                total += step.loss;
                prof.forward_ns += step.forward_ns;
                prof.backward_ns += step.backward_ns;
                let clock = Instant::now();
                store.apply(adam, &step.grads);
                prof.optimizer_ns += clock.elapsed().as_nanos() as u64;
                step.recycle(&mut t);
                // Reset now, not at the next step, so the tape lets go of
                // the lent lists and the worker gets the buffers back.
                t.reset();
                lent.restore(&mut sub);
                // Batch `i + 2` is extracted into this set; the last two
                // sets are freed here, after the loop.
                if i + 2 < batches.len() {
                    back_tx.send((sub, att_vals)).expect("the worker waits for this set");
                }

                // --- TransR phase (L₁, Eq. 2), sparse over the batch's
                // head/tail/corrupt-tail entity union ---
                if !kg_batch.is_empty() {
                    let (union, local_kg) = kg_locals(kg_batch);
                    let clock = Instant::now();
                    store.sync_rows(adam, ent_emb, &union);
                    prof.optimizer_ns += clock.elapsed().as_nanos() as u64;

                    let step = transr_step(
                        &mut kt,
                        config,
                        store,
                        (ent_emb, rel_emb, rel_proj),
                        n_rel,
                        union,
                        &local_kg,
                    );
                    total += step.loss;
                    prof.forward_ns += step.forward_ns;
                    prof.backward_ns += step.backward_ns;
                    let clock = Instant::now();
                    store.apply(adam, &step.grads);
                    prof.optimizer_ns += clock.elapsed().as_nanos() as u64;
                    step.recycle(&mut kt);
                }
            }
        });
        // Square every deferred row off before anything outside the loop
        // (attention refresh, eval, checkpointing, cross-mode comparison)
        // reads the matrix.
        let clock = Instant::now();
        store.sync_all(adam, ent_emb);
        prof.optimizer_ns += clock.elapsed().as_nanos() as u64;
        total
    }

    /// Replica training arm: macro-steps of [`MACRO_WIDTH`] independent
    /// micro-batches, each sampled/extracted/trained against a *frozen*
    /// parameter snapshot on its own tape, gradients folded in batch
    /// order and applied once per phase (BPR, then TransR). The replica
    /// count only sets how many threads execute the fixed schedule, so
    /// the run is bitwise-identical for every `replicas ≥ 1` (see
    /// `crate::replica` for the determinism argument).
    ///
    /// Each macro-step runs as main-thread shared work, then one
    /// [`pooled_map`] train phase, then a main-thread reduction:
    ///
    /// * main: sample every micro-batch from its private RNG stream (the
    ///   exact draw order of the other training arms, so the schedule is
    ///   independent of the replica count), dedup each batch's seeds, and
    ///   extract the **union receptive field** of all `K` seed sets with
    ///   one [`SubgraphScratch::extract_many`] BFS — each batch's
    ///   subgraph is a local-id view derived from the union, so shared
    ///   high-degree neighborhoods are walked once per macro-step instead
    ///   of once per replica.
    /// * main: settle lazy Adam ([`ParamStore::sync_rows`] over the
    ///   union plus the TransR rows).
    /// * **Train** (parallel): per batch, build the BPR and TransR tapes
    ///   against the frozen snapshot and return their gradients.
    /// * main: fold gradients in batch order, scale by `1/K`, apply.
    ///
    /// This retires both the single-slot prefetch thread and the old
    /// pooled prepare phase, whose per-replica independent extractions
    /// made aggregate extraction CPU scale linearly with `R` and whose
    /// closing barrier was (mis)charged to `extract_wait_ns`. Extraction
    /// now sits on the main thread and is charged to both
    /// [`EpochProfile::extract_ns`] (aggregate CPU) and
    /// [`EpochProfile::extract_wall_ns`] (critical path);
    /// `extract_wait_ns` stays 0 in this arm.
    fn run_batches_replicated(
        &mut self,
        ctx: &TrainContext<'_>,
        n_batches: usize,
        stream_base: u64,
        prof: &mut EpochProfile,
    ) -> f32 {
        let threads = self.config.base.replicas.max(1);
        let Ckat {
            store,
            adam,
            ent_emb,
            rel_emb,
            rel_proj,
            layer_w,
            layer_b,
            config,
            n_entities,
            n_rel,
            att,
            scratch,
            ..
        } = self;
        let (ent_emb, rel_emb, rel_proj) = (*ent_emb, *rel_emb, *rel_proj);
        let (n_entities, n_rel) = (*n_entities, *n_rel);
        let config: &CkatConfig = config;
        let att: &[f32] = att;
        let depth = config.depth();
        let batch_size = config.base.batch_size;
        let ckg = ctx.ckg;
        let inter = ctx.inter;
        let full_edges = ckg.n_edges() as u64;

        let mut total = 0.0;
        // Each worker state holds its own BPR and TransR tape for the
        // epoch, reset per micro-batch.
        let mut tapes: Vec<(Tape, Tape)> = (0..threads).map(|_| Default::default()).collect();
        for start in (0..n_batches).step_by(MACRO_WIDTH) {
            let end = (start + MACRO_WIDTH).min(n_batches);

            // --- Sample phase (main thread, fixed schedule) ---
            let clock = Instant::now();
            let mut sampled: Vec<(Vec<BprSample>, Vec<KgSample>, Rng)> = Vec::new();
            for idx in start..end {
                let mut rng = batch_rng(stream_base, idx as u64);
                let bpr = sample_bpr_batch(inter, batch_size, &mut rng);
                if bpr.is_empty() {
                    continue;
                }
                let kg = sample_kg_batch(ckg, batch_size, &mut rng);
                sampled.push((bpr, kg, rng));
            }
            prof.sampling_ns += clock.elapsed().as_nanos() as u64;
            let k = sampled.len();
            if k == 0 {
                continue;
            }

            // --- Union extraction: one BFS serves all K batches ---
            let clock = Instant::now();
            let bprs = sampled.iter().map(|(bpr, _, _)| bpr.as_slice());
            let (seed_sets, pos_maps) = batch_seeds(ckg, bprs, false);
            let union = scratch.extract_many(ckg, &seed_sets, depth);
            let mut need = union.union_nodes;
            let extract_ns = clock.elapsed().as_nanos() as u64;
            prof.extract_ns += extract_ns;
            prof.extract_wall_ns += extract_ns;

            // Assemble one PreparedBatch per micro-batch: remap the
            // TransR ids, snapshot the per-edge attention, and account
            // the derived subgraph's size.
            let mut prepared: Vec<PreparedBatch> = Vec::with_capacity(k);
            for (((bpr, kg, rng), sub), pos_map) in
                sampled.into_iter().zip(union.subgraphs).zip(pos_maps)
            {
                prof.batches += 1;
                prof.full_rows += n_entities as u64;
                prof.full_edges += full_edges;
                account_frontier(prof, config, &sub);
                let att_vals = layer_attention(&sub, att);
                let (kg_union, local_kg) =
                    if kg.is_empty() { (Vec::new(), Vec::new()) } else { kg_locals(&kg) };
                need.extend_from_slice(&kg_union);
                prepared.push(PreparedBatch {
                    b: bpr.len(),
                    local_kg,
                    kg_union,
                    sub,
                    pos_map,
                    att_vals,
                    rng,
                });
            }

            // Lazy Adam must settle every row the macro-step reads before
            // workers snapshot them: the union nodes (a superset of every
            // derived subgraph) plus the TransR unions.
            need.sort_unstable();
            need.dedup();
            let clock = Instant::now();
            store.sync_rows(adam, ent_emb, &need);
            prof.optimizer_ns += clock.elapsed().as_nanos() as u64;

            // --- Train phase: frozen snapshot, each worker's tape pair ---
            let frozen: &ParamStore = store;
            let outs: Vec<(StepOut, Option<StepOut>)> =
                pooled_map(&mut tapes, prepared, |(t, kt), _slot, mut p: PreparedBatch| {
                    let key = dropout_key(config, &mut p.rng);
                    let (bpr, _) = bpr_step(
                        t,
                        config,
                        frozen,
                        (ent_emb, layer_w, layer_b),
                        &mut p.sub,
                        &p.att_vals,
                        &p.pos_map,
                        p.b,
                        key,
                    );
                    // TransR tape against the *same* frozen snapshot.
                    let kg = (!p.local_kg.is_empty()).then(|| {
                        let ids = (ent_emb, rel_emb, rel_proj);
                        transr_step(kt, config, frozen, ids, n_rel, p.kg_union, &p.local_kg)
                    });
                    (bpr, kg)
                });

            // --- Reduce: fold in batch order, scale by 1/K, apply once ---
            let mut bpr_parts: Vec<Vec<(ParamId, Grad)>> = Vec::with_capacity(k);
            let mut kg_parts: Vec<Vec<(ParamId, Grad)>> = Vec::new();
            for (bpr, kg) in outs {
                let mut loss = bpr.loss;
                prof.forward_ns += bpr.forward_ns;
                prof.backward_ns += bpr.backward_ns;
                bpr_parts.push(bpr.grads);
                if let Some(kg) = kg {
                    loss += kg.loss;
                    prof.forward_ns += kg.forward_ns;
                    prof.backward_ns += kg.backward_ns;
                    if !kg.grads.is_empty() {
                        kg_parts.push(kg.grads);
                    }
                }
                total += loss;
            }
            let clock = Instant::now();
            let folded_bpr = fold_grads_ordered(&bpr_parts, 1.0 / bpr_parts.len() as f32);
            let folded_kg = if kg_parts.is_empty() {
                Vec::new()
            } else {
                fold_grads_ordered(&kg_parts, 1.0 / kg_parts.len() as f32)
            };
            prof.reduce_ns += clock.elapsed().as_nanos() as u64;
            let clock = Instant::now();
            store.apply(adam, &folded_bpr);
            if !folded_kg.is_empty() {
                store.apply(adam, &folded_kg);
            }
            prof.optimizer_ns += clock.elapsed().as_nanos() as u64;
        }
        let clock = Instant::now();
        store.sync_all(adam, ent_emb);
        prof.optimizer_ns += clock.elapsed().as_nanos() as u64;
        total
    }
}

/// One micro-batch after the main-thread shared work: samples drawn,
/// subgraph derived from the macro-step union, TransR ids remapped —
/// everything the train phase needs except the frozen
/// parameter snapshot. Carries the batch's private RNG (post-sampling
/// state) forward for the dropout key.
struct PreparedBatch {
    /// BPR batch size (the seed list is `3·b` positions deduped into
    /// `pos_map`).
    b: usize,
    local_kg: Vec<KgSample>,
    kg_union: Vec<usize>,
    /// This batch's subgraph, derived as a view of the macro-step union.
    sub: BatchSubgraph,
    /// Position `p` of the users‖pos‖neg seed layout maps to
    /// `sub.seed_locals[pos_map[p]]`.
    pos_map: Vec<usize>,
    /// Per-layer attention values, parallel to each layer's edges.
    att_vals: Vec<Vec<f32>>,
    rng: Rng,
}

/// What one micro-batch's tape produced: its loss, its gradients, and
/// the forward and backward time it took.
struct StepOut {
    loss: f32,
    grads: Vec<(ParamId, Grad)>,
    forward_ns: u64,
    backward_ns: u64,
    /// The step's gather leaf, whose row-sparse gradient is in `grads`.
    gather: Var,
}

impl StepOut {
    /// Hand the entity gradient's buffer back to the tape that produced
    /// it once the optimizer has applied it, so the next micro-batch
    /// reuses it rather than taking fresh pages.
    fn recycle(self, t: &mut Tape) {
        for (_, g) in self.grads {
            if let Grad::Sparse(g) = g {
                t.recycle_grad(self.gather, g.values);
            }
        }
    }
}

/// The BPR step of one micro-batch, shared by the batch-local and the
/// replica arms: reset `t`, propagate layer by layer over the heads of the
/// batch's subgraph `sub` (each layer's attention in `att_vals`) against
/// `store` with [`propagate_frontier`], score the batch's `b`
/// users/positives/negatives (seed position `p` is row `pos_map[p]` of the
/// seed block), and take the row-sparse entity gradient and the dense
/// layer gradients off the tape.
#[allow(clippy::too_many_arguments)]
fn bpr_step(
    t: &mut Tape,
    config: &CkatConfig,
    store: &ParamStore,
    (ent_emb, layer_w, layer_b): (ParamId, &[ParamId], &[ParamId]),
    sub: &mut BatchSubgraph,
    att_vals: &[Vec<f32>],
    pos_map: &[usize],
    b: usize,
    dropout_key: Option<u64>,
) -> (StepOut, Lent) {
    t.reset();
    let clock = Instant::now();
    let lw: Vec<Var> = layer_w.iter().map(|&p| t.leaf(store.value(p).clone())).collect();
    let lb: Vec<Var> = layer_b.iter().map(|&p| t.leaf(store.value(p).clone())).collect();
    let lent = Lent::take(sub);
    let ent_sub = t.gather_leaf(store.value(ent_emb), Arc::clone(&lent.nodes));
    let seeds = propagate_frontier(config, t, ent_sub, sub, &lent, att_vals, &lw, &lb, dropout_key);
    let u = t.gather_rows(seeds, &pos_map[..b]);
    let i = t.gather_rows(seeds, &pos_map[b..2 * b]);
    let j = t.gather_rows(seeds, &pos_map[2 * b..3 * b]);
    let loss = bpr_loss(t, u, i, j, b, config.base.l2);
    let loss_val = t.value(loss)[(0, 0)];
    let forward_ns = clock.elapsed().as_nanos() as u64;

    let clock = Instant::now();
    t.backward(loss);
    let mut grads: Vec<(ParamId, Grad)> = Vec::new();
    if let Some(g) = t.take_sparse_grad(ent_sub) {
        grads.push((ent_emb, Grad::Sparse(g)));
    }
    for (params, vars) in [(layer_w, &lw), (layer_b, &lb)] {
        for (&p, &var) in params.iter().zip(vars) {
            if let Some(g) = t.take_grad(var) {
                grads.push((p, Grad::Dense(g)));
            }
        }
    }
    let backward_ns = clock.elapsed().as_nanos() as u64;
    (StepOut { loss: loss_val, grads, forward_ns, backward_ns, gather: ent_sub }, lent)
}

/// The index lists [`bpr_step`] hands its tape as shared buffers: the
/// closure rows and each layer's self rows, edge tails and edge heads,
/// moved out of the subgraph. Once the tape is reset, [`Lent::restore`]
/// moves them back, so the next extraction into that subgraph reuses
/// their capacity.
struct Lent {
    nodes: Arc<Vec<usize>>,
    /// Per layer: `[self_rows, tails, heads]`.
    layers: Vec<[Arc<Vec<usize>>; 3]>,
}

impl Lent {
    fn take(sub: &mut BatchSubgraph) -> Self {
        let lend = |v: &mut Vec<usize>| Arc::new(std::mem::take(v));
        Lent {
            nodes: lend(&mut sub.nodes),
            layers: sub
                .layers
                .iter_mut()
                .map(|l| [lend(&mut l.self_rows), lend(&mut l.tails), lend(&mut l.heads)])
                .collect(),
        }
    }

    /// Move the lists back into `sub`. A list a tape still shares comes
    /// back empty; the next extraction then allocates it afresh.
    fn restore(self, sub: &mut BatchSubgraph) {
        let back = |a: Arc<Vec<usize>>| Arc::try_unwrap(a).unwrap_or_default();
        sub.nodes = back(self.nodes);
        for (l, [self_rows, tails, heads]) in sub.layers.iter_mut().zip(self.layers) {
            l.self_rows = back(self_rows);
            l.tails = back(tails);
            l.heads = back(heads);
        }
    }
}

/// The TransR step (L₁, Eq. 2) of one micro-batch: reset `t` and take the
/// margin loss of `local_kg` — the KG batch remapped onto its entity
/// union `kg_union` by [`kg_locals`] — against `store`, sparse over that
/// union.
fn transr_step(
    t: &mut Tape,
    config: &CkatConfig,
    store: &ParamStore,
    (ent_emb, rel_emb, rel_proj): (ParamId, ParamId, ParamId),
    n_rel: usize,
    kg_union: Vec<usize>,
    local_kg: &[KgSample],
) -> StepOut {
    t.reset();
    let clock = Instant::now();
    let ent_u = t.gather_leaf(store.value(ent_emb), Arc::new(kg_union));
    let remb = t.leaf(store.value(rel_emb).clone());
    let rproj = t.leaf(store.value(rel_proj).clone());
    let d = config.base.embed_dim;
    let loss = transr::margin_loss(t, ent_u, remb, rproj, d, n_rel, local_kg, config.margin);
    let loss_val = t.value(loss)[(0, 0)];
    let forward_ns = clock.elapsed().as_nanos() as u64;

    let clock = Instant::now();
    t.backward(loss);
    let mut grads: Vec<(ParamId, Grad)> = Vec::new();
    if let Some(g) = t.take_sparse_grad(ent_u) {
        grads.push((ent_emb, Grad::Sparse(g)));
    }
    for (p, var) in [(rel_emb, remb), (rel_proj, rproj)] {
        if let Some(g) = t.take_grad(var) {
            grads.push((p, Grad::Dense(g)));
        }
    }
    let backward_ns = clock.elapsed().as_nanos() as u64;
    StepOut { loss: loss_val, grads, forward_ns, backward_ns, gather: ent_u }
}

/// A KG batch remapped onto its head/tail/corrupt-tail entity union:
/// `(union, samples with union-local ids)`.
fn kg_locals(kg: &[KgSample]) -> (Vec<usize>, Vec<KgSample>) {
    let heads: Vec<usize> = kg.iter().map(|s| s.head as usize).collect();
    let tails: Vec<usize> = kg.iter().map(|s| s.tail as usize).collect();
    let negs: Vec<usize> = kg.iter().map(|s| s.neg_tail as usize).collect();
    let (union, locals) = union_locals(&[&heads, &tails, &negs]);
    let local_kg = kg
        .iter()
        .enumerate()
        .map(|(n, s)| KgSample {
            head: locals[0][n] as Id,
            rel: s.rel,
            tail: locals[1][n] as Id,
            neg_tail: locals[2][n] as Id,
        })
        .collect();
    (union, local_kg)
}

/// Each micro-batch's extraction seeds and position map. Batch-local:
/// per batch, users ‖ positives ‖ negatives as entity ids, deduplicated so
/// BFS never re-walks a repeated user or item, with `pos_map[p]` the seed
/// of position `p` (dedup is bitwise-safe: extraction discovers seeds in
/// first-occurrence order either way). `full_graph`: one seed set, every
/// entity in id order, shared by every batch, so seed `g` is entity `g`
/// and each position map is the raw entity ids.
fn batch_seeds<'a>(
    ckg: &Ckg,
    batches: impl Iterator<Item = &'a [BprSample]>,
    full_graph: bool,
) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
    let mut seed_sets: Vec<Vec<usize>> = Vec::new();
    if full_graph {
        seed_sets.push((0..ckg.n_entities()).collect());
    }
    let pos_maps = batches
        .map(|bpr| {
            let mut s = Vec::with_capacity(3 * bpr.len());
            s.extend(bpr.iter().map(|x| x.user as usize));
            s.extend(bpr.iter().map(|x| ckg.item_entity(x.pos)));
            s.extend(bpr.iter().map(|x| ckg.item_entity(x.neg)));
            if full_graph {
                return s;
            }
            let (seeds, pos_map) = dedup_seeds(&s);
            seed_sets.push(seeds);
            pos_map
        })
        .collect();
    (seed_sets, pos_maps)
}

/// The propagation stack over a batch subgraph's per-layer lists
/// ([`facility_kg::LayerFrontier`]): layer `l` aggregates its heads'
/// edges (`att_vals[l]` per edge) and computes only its head rows from the
/// previous layer's rows, and the seed rows of each layer's output are
/// gathered onto the running seed block right after that layer — where a
/// whole-graph pass concatenates the layer onto every row — so the
/// backward folds into each layer's gradient in the same order. Returns
/// the seed block, `seeds × final_dim` with row `k` the final
/// representation of seed `k` (`seed_locals` order), equal bit for bit
/// to the whole-graph pass's rows at those seeds (the test oracle
/// `propagate_over`).
#[allow(clippy::too_many_arguments)]
fn propagate_frontier(
    config: &CkatConfig,
    t: &mut Tape,
    h0: Var,
    sub: &BatchSubgraph,
    lent: &Lent,
    att_vals: &[Vec<f32>],
    layer_w: &[Var],
    layer_b: &[Var],
    dropout_key: Option<u64>,
) -> Var {
    let mut h = h0;
    let mut block: Option<Var> = None;
    for (l, ((layer, [self_rows, tails, heads]), att)) in
        sub.layers.iter().zip(&lent.layers).zip(att_vals).enumerate()
    {
        let LayerFrontier { rows, seeds, .. } = layer;
        let att = t.constant(Matrix::from_vec(tails.len(), 1, att.clone()));
        let e_n =
            t.gather_scale_segment_sum(h, att, Arc::clone(tails), Arc::clone(heads), rows.len());
        let own = t.gather_rows_arc(h, Arc::clone(self_rows));
        let wb = (layer_w[l], layer_b[l]);
        let out = layer_head(config, t, l, own, e_n, wb, dropout_key, rows);
        let before = match block {
            Some(s) => s,
            None => t.gather_rows(h, &sub.seed_locals),
        };
        let new = t.gather_rows(out, seeds);
        block = Some(t.concat_cols(before, new));
        h = out;
    }
    block.unwrap_or_else(|| t.gather_rows(h0, &sub.seed_locals))
}

/// Layer `l`'s head computation from each head's own previous-layer row
/// `own` and its aggregated neighborhood `e_n` (Eqs. 6–7): concat or sum,
/// `W_l`, bias, LeakyReLU, dropout keyed by the heads' entity ids `ids`,
/// and the KGAT row normalization that keeps any one order of
/// connectivity from dominating the concatenated representation.
#[allow(clippy::too_many_arguments)]
fn layer_head(
    config: &CkatConfig,
    t: &mut Tape,
    l: usize,
    own: Var,
    e_n: Var,
    (w, b): (Var, Var),
    dropout_key: Option<u64>,
    ids: &[usize],
) -> Var {
    let mixed = match config.aggregator {
        Aggregator::Concat => t.concat_cols(own, e_n),
        Aggregator::Sum => t.add(own, e_n),
    };
    let z = t.matmul(mixed, w);
    let zb = t.add_broadcast_row(z, b);
    let activated = t.leaky_relu(zb);
    let dropped = match dropout_key {
        Some(key) => t.dropout_keyed(activated, config.base.keep_prob, layer_key(key, l), ids),
        None => activated,
    };
    t.normalize_rows(dropped)
}

/// The dropout key of propagation layer `l` under a micro-batch's key:
/// mask element `(l, entity, column)` is a pure function of the
/// micro-batch key (see [`Tape::dropout_keyed`]).
fn layer_key(key: u64, l: usize) -> u64 {
    splitmix64(key ^ splitmix64(l as u64))
}

/// One micro-batch's dropout key: a single draw from `rng` (the epoch
/// stream, or the batch's private stream in replica mode), or `None` —
/// and no draw — when dropout is off.
fn dropout_key(config: &CkatConfig, rng: &mut Rng) -> Option<u64> {
    (config.base.keep_prob < 1.0).then(|| rng.next_u64())
}

/// Each layer's attention values, parallel to that layer's edges.
fn layer_attention(sub: &BatchSubgraph, att: &[f32]) -> Vec<Vec<f32>> {
    let mut out = Vec::new();
    layer_attention_into(sub, att, &mut out);
    out
}

/// An empty subgraph and per-layer attention lists with room for every
/// entity and edge at every layer and `n_seeds` seeds, so that extracting
/// any batch of at most that many seeds into them never reallocates.
/// Pages are touched only as far as batches fill them.
fn whole_graph_buffers(
    depth: usize,
    n_entities: usize,
    n_edges: usize,
    n_seeds: usize,
) -> (BatchSubgraph, Vec<Vec<f32>>) {
    let rows = || Vec::with_capacity(n_entities);
    let edges = || Vec::with_capacity(n_edges);
    let seeds = || Vec::with_capacity(n_seeds);
    let layers = (0..depth)
        .map(|_| LayerFrontier {
            rows: rows(),
            self_rows: rows(),
            edge_ids: edges(),
            tails: edges(),
            heads: edges(),
            seeds: seeds(),
        })
        .collect();
    let sub = BatchSubgraph { nodes: rows(), seed_locals: seeds(), layers };
    (sub, (0..depth).map(|_| Vec::with_capacity(n_edges)).collect())
}

/// [`layer_attention`] into `out`, rewriting its lists in place.
fn layer_attention_into(sub: &BatchSubgraph, att: &[f32], out: &mut Vec<Vec<f32>>) {
    out.resize_with(sub.layers.len(), Vec::new);
    for (vals, l) in out.iter_mut().zip(&sub.layers) {
        vals.clear();
        vals.extend(l.edge_ids.iter().map(|&k| att[k]));
    }
}

/// Closed-form FLOP estimate for propagation layer `l` computing `rows`
/// head rows from `edges` messages.
fn layer_flops(config: &CkatConfig, l: usize, rows: u64, edges: u64) -> u64 {
    let in_dim = if l == 0 { config.base.embed_dim } else { config.layer_dims[l - 1] } as u64;
    let out = config.layer_dims[l] as u64;
    let w_rows = match config.aggregator {
        Aggregator::Concat => 2 * in_dim,
        Aggregator::Sum => in_dim,
    };
    // Attention scaling plus segment-sum accumulation per message, the
    // dense layer matmul plus bias, then LeakyReLU and row normalization.
    2 * edges * in_dim + rows * (2 * w_rows + 1) * out + 4 * rows * out
}

/// Account one batch subgraph's work: closure rows and edges gathered,
/// each layer's own head rows, and the forward FLOPs of each layer over
/// its own rows and edges.
fn account_frontier(prof: &mut EpochProfile, config: &CkatConfig, sub: &BatchSubgraph) {
    prof.gathered_rows += sub.n_nodes() as u64;
    prof.gathered_edges += sub.n_edges() as u64;
    for (l, layer) in sub.layers.iter().enumerate() {
        let (rows, edges) = (layer.rows.len() as u64, layer.edge_ids.len() as u64);
        prof.frontier_rows += rows;
        prof.forward_flops += layer_flops(config, l, rows, edges);
    }
}

impl Recommender for Ckat {
    fn name(&self) -> String {
        let att = if self.config.use_attention { "Att" } else { "noAtt" };
        let agg = match self.config.aggregator {
            Aggregator::Concat => "concat",
            Aggregator::Sum => "sum",
        };
        format!("CKAT-{} ({att},{agg})", self.config.depth())
    }

    fn train_epoch(&mut self, ctx: &TrainContext<'_>, rng: &mut Rng) -> f32 {
        let wall = Instant::now();
        let mut prof =
            EpochProfile { replicas: self.config.base.replicas as u64, ..EpochProfile::default() };
        let clock = Instant::now();
        self.refresh_attention(ctx);
        prof.attention_ns = clock.elapsed().as_nanos() as u64;
        let n_batches = ctx.batches_per_epoch(self.config.base.batch_size);

        let total = if self.config.base.replicas >= 1 {
            // Replica macro-step mode: the epoch RNG contributes exactly
            // one draw (the stream base); every batch derives its own
            // sampling/dropout stream from it, so the schedule does not
            // depend on the replica count (see `crate::replica`).
            let stream_base = rng.next_u64();
            self.run_batches_replicated(ctx, n_batches, stream_base, &mut prof)
        } else {
            // Legacy per-batch path. Draw every mini-batch up front, in
            // the legacy interleaved order (BPR then TransR per batch,
            // stopping at the first empty BPR draw before its TransR
            // draw). The loop then takes one dropout key per micro-batch
            // from the same stream, in batch order, whatever its seed
            // sets, which is what keeps batch-local seeding bitwise
            // comparable to the every-entity oracle; drawing up front also
            // hands the extraction worker every seed set. An empty first draw abandons
            // the epoch but still *falls through* to the invalidation
            // below — an earlier version returned 0.0 early and kept
            // serving stale eval caches.
            let clock = Instant::now();
            let mut batches: Vec<(Vec<BprSample>, Vec<KgSample>)> = Vec::new();
            for _ in 0..n_batches {
                let bpr = sample_bpr_batch(ctx.inter, self.config.base.batch_size, rng);
                if bpr.is_empty() {
                    break;
                }
                let kg = sample_kg_batch(ctx.ckg, self.config.base.batch_size, rng);
                batches.push((bpr, kg));
            }
            prof.sampling_ns += clock.elapsed().as_nanos() as u64;

            self.run_batches_local(ctx, &batches, rng, &mut prof)
        };
        // Every exit path must drop the eval caches *and* the per-edge
        // attention snapshot: parameters changed, so both are stale.
        self.cached_users = None;
        self.cached_items = None;
        self.att_fresh = false;
        prof.wall_ns = wall.elapsed().as_nanos() as u64;
        self.last_profile = Some(prof);
        total / n_batches as f32
    }

    fn prepare_eval(&mut self, ctx: &TrainContext<'_>) {
        if !self.att_fresh {
            self.refresh_attention(ctx);
        }
        let all = self.final_representations();
        let user_rows: Vec<usize> = (0..self.n_users).collect();
        self.cached_users = Some(all.gather_rows(&user_rows));
        self.cached_items = Some(all.gather_rows(&self.item_entities));
    }

    fn score_items(&self, user: Id) -> Vec<f32> {
        dot_scores(
            self.cached_users.as_ref().expect("prepare_eval not called"),
            self.cached_items.as_ref().expect("prepare_eval not called"),
            user,
        )
    }

    fn eval_matrices(&self) -> Option<(&Matrix, &Matrix)> {
        self.cached_users.as_ref().zip(self.cached_items.as_ref())
    }

    fn num_parameters(&self) -> usize {
        self.store.num_scalars()
    }

    fn save_state(&self) -> ModelState {
        ModelState::capture(&self.store, &self.adam)
    }

    fn load_state(&mut self, state: &ModelState) -> Result<(), CkptError> {
        state.restore(&mut self.store, &mut self.adam)?;
        self.cached_users = None;
        self.cached_items = None;
        self.att_fresh = false;
        Ok(())
    }

    fn scale_lr(&mut self, factor: f32) {
        self.adam.lr *= factor;
    }

    fn replicas(&self) -> usize {
        self.config.base.replicas
    }

    fn params_finite(&mut self) -> bool {
        self.store.touched_finite()
    }

    fn take_epoch_profile(&mut self) -> Option<EpochProfile> {
        self.last_profile.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::TrainContext;
    use crate::test_fixtures::{
        assert_sparse_frontiers_shrink, auc, sparse_world, toy_world, SPARSE_BATCH,
    };

    fn fast_config() -> CkatConfig {
        let mut base = ModelConfig::fast();
        base.keep_prob = 1.0;
        CkatConfig {
            layer_dims: vec![16, 8],
            use_attention: true,
            aggregator: Aggregator::Concat,
            transr_dim: 16,
            margin: 1.0,
            batch_local: true,
            base,
        }
    }

    /// The propagation stack over a whole CSR edge view: `h0` holds one
    /// embedding row per node, `tails`/`heads` are gather indices and segment
    /// ids into those rows, and `att` is the matching `(E, 1)` per-edge
    /// weight column; every layer computes every row, and the result is the
    /// layer-concatenated representation of every node (Eq. 10). The
    /// whole-graph oracle of [`propagate_frontier`] and of
    /// [`Ckat::final_representations`]: a row's dropout mask is keyed by its
    /// node id, so its rows at a batch's seeds match the frontier pass bit for
    /// bit.
    #[allow(clippy::too_many_arguments)]
    fn propagate_over(
        config: &CkatConfig,
        t: &mut Tape,
        h0: Var,
        att: Var,
        tails: Arc<Vec<usize>>,
        heads: Arc<Vec<usize>>,
        n_segments: usize,
        layer_w: &[Var],
        layer_b: &[Var],
        dropout_key: Option<u64>,
    ) -> Var {
        let ids: Vec<usize> =
            if dropout_key.is_some() { (0..n_segments).collect() } else { Vec::new() };
        let mut h = h0;
        let mut all = h0;
        for l in 0..config.layer_dims.len() {
            // One fused tape op replaces gather → scale → segment-sum: no
            // `E × cols` intermediates hit memory, and the fusion is
            // bit-transparent (same products, same add order), so every
            // cross-mode equality the unfused chain satisfied still holds.
            let e_n = t.gather_scale_segment_sum(
                h,
                att,
                Arc::clone(&tails),
                Arc::clone(&heads),
                n_segments,
            );
            h = layer_head(config, t, l, h, e_n, (layer_w[l], layer_b[l]), dropout_key, &ids);
            all = t.concat_cols(all, h);
        }
        all
    }

    #[test]
    fn final_dim_matches_concat_of_layers() {
        let cfg = fast_config();
        assert_eq!(cfg.final_dim(), 16 + 16 + 8);
        assert_eq!(cfg.depth(), 2);
    }

    #[test]
    fn ckat_learns_toy_world() {
        let (inter, ckg) = toy_world();
        let ctx = TrainContext { inter: &inter, ckg: &ckg };
        let mut model = Ckat::new(&ctx, &fast_config());
        let mut rng = seeded_rng(1);
        let first = model.train_epoch(&ctx, &mut rng);
        let mut last = first;
        for _ in 0..30 {
            last = model.train_epoch(&ctx, &mut rng);
        }
        assert!(last < first, "CKAT loss should fall: {first} -> {last}");
        model.prepare_eval(&ctx);
        let a = auc(&model, &inter);
        assert!(a > 0.75, "CKAT AUC {a}");
    }

    #[test]
    fn representations_have_final_dim() {
        let (inter, ckg) = toy_world();
        let ctx = TrainContext { inter: &inter, ckg: &ckg };
        let mut model = Ckat::new(&ctx, &fast_config());
        model.prepare_eval(&ctx);
        let cfg = fast_config();
        assert_eq!(model.cached_users.as_ref().unwrap().cols(), cfg.final_dim());
        assert_eq!(model.cached_items.as_ref().unwrap().rows(), inter.n_items);
    }

    #[test]
    fn attention_toggle_changes_model() {
        let (inter, ckg) = toy_world();
        let ctx = TrainContext { inter: &inter, ckg: &ckg };
        let mut with_att = Ckat::new(&ctx, &fast_config());
        let mut cfg = fast_config();
        cfg.use_attention = false;
        let mut without = Ckat::new(&ctx, &cfg);
        with_att.prepare_eval(&ctx);
        without.prepare_eval(&ctx);
        // Same init seeds, different propagation weights → different scores.
        assert_ne!(with_att.score_items(0), without.score_items(0));
        assert!(with_att.name().contains("Att"));
        assert!(without.name().contains("noAtt"));
    }

    #[test]
    fn sum_aggregator_runs_and_differs() {
        let (inter, ckg) = toy_world();
        let ctx = TrainContext { inter: &inter, ckg: &ckg };
        let mut cfg = fast_config();
        cfg.aggregator = Aggregator::Sum;
        let mut model = Ckat::new(&ctx, &cfg);
        let mut rng = seeded_rng(2);
        model.train_epoch(&ctx, &mut rng);
        model.prepare_eval(&ctx);
        assert_eq!(model.score_items(0).len(), inter.n_items);
    }

    #[test]
    fn depth_one_and_three_both_work() {
        let (inter, ckg) = toy_world();
        let ctx = TrainContext { inter: &inter, ckg: &ckg };
        for dims in [vec![16], vec![16, 8, 4]] {
            let mut cfg = fast_config();
            cfg.layer_dims = dims.clone();
            let mut model = Ckat::new(&ctx, &cfg);
            let mut rng = seeded_rng(3);
            model.train_epoch(&ctx, &mut rng);
            model.prepare_eval(&ctx);
            assert_eq!(
                model.cached_users.as_ref().unwrap().cols(),
                16 + dims.iter().sum::<usize>()
            );
        }
    }

    #[test]
    fn warm_start_copies_surviving_entities() {
        let (inter, ckg) = toy_world();
        let ctx = TrainContext { inter: &inter, ckg: &ckg };
        let mut old = Ckat::new(&ctx, &fast_config());
        let mut rng = seeded_rng(4);
        old.train_epoch(&ctx, &mut rng);

        // "Grow" the facility: identity map here (same graph), so every
        // entity row must be copied verbatim and layer weights reused.
        let map: Vec<Option<usize>> = (0..ckg.n_entities()).map(Some).collect();
        let warm = Ckat::new_warm(&ctx, &fast_config(), &old, &map);
        assert_eq!(
            warm.store.value(warm.ent_emb).as_slice(),
            old.store.value(old.ent_emb).as_slice()
        );
        assert_eq!(
            warm.store.value(warm.layer_w[0]).as_slice(),
            old.store.value(old.layer_w[0]).as_slice()
        );

        // Partial map: unmapped entities keep fresh init (differ from old).
        let mut partial = map.clone();
        partial[0] = None;
        let warm2 = Ckat::new_warm(&ctx, &fast_config(), &old, &partial);
        assert_ne!(warm2.store.value(warm2.ent_emb).row(0), old.store.value(old.ent_emb).row(0));
        assert_eq!(warm2.store.value(warm2.ent_emb).row(1), old.store.value(old.ent_emb).row(1));
    }

    #[test]
    fn warm_start_copies_relation_parameters() {
        let (inter, ckg) = toy_world();
        let ctx = TrainContext { inter: &inter, ckg: &ckg };
        let mut old = Ckat::new(&ctx, &fast_config());
        let mut rng = seeded_rng(7);
        old.train_epoch(&ctx, &mut rng);

        let map: Vec<Option<usize>> = (0..ckg.n_entities()).map(Some).collect();
        let warm = Ckat::new_warm(&ctx, &fast_config(), &old, &map);
        assert_eq!(
            warm.store.value(warm.rel_emb).as_slice(),
            old.store.value(old.rel_emb).as_slice(),
            "trained relation embeddings must survive the warm start"
        );
        assert_eq!(
            warm.store.value(warm.rel_proj).as_slice(),
            old.store.value(old.rel_proj).as_slice(),
            "trained relation projections must survive the warm start"
        );
        assert!(!warm.att_fresh, "warm model must refresh attention before eval");
    }

    /// Regression: the epoch-start attention snapshot is stale relative to
    /// the parameters that training just produced, so `prepare_eval` must
    /// recompute it rather than reuse the snapshot.
    #[test]
    fn eval_attention_is_recomputed_after_training() {
        let (inter, ckg) = toy_world();
        let ctx = TrainContext { inter: &inter, ckg: &ckg };
        let mut model = Ckat::new(&ctx, &fast_config());
        let mut rng = seeded_rng(5);
        model.train_epoch(&ctx, &mut rng);
        let stale = model.attention_weights().to_vec();
        model.prepare_eval(&ctx);
        let fresh = model.attention_weights().to_vec();
        assert_ne!(
            stale, fresh,
            "prepare_eval must recompute attention from the trained parameters"
        );
    }

    /// Regression: an epoch whose first batch comes up empty must still
    /// drop the eval caches — it used to early-return around the
    /// invalidation and serve representations from before the epoch.
    #[test]
    fn degenerate_epoch_still_invalidates_eval_caches() {
        let (inter, ckg) = toy_world();
        let ctx = TrainContext { inter: &inter, ckg: &ckg };
        let mut model = Ckat::new(&ctx, &fast_config());
        model.prepare_eval(&ctx);
        assert!(model.cached_users.is_some());

        let empty = facility_kg::Interactions::from_lists(
            inter.n_items,
            vec![vec![]; inter.n_users],
            vec![vec![]; inter.n_users],
        );
        let empty_ctx = TrainContext { inter: &empty, ckg: &ckg };
        let mut rng = seeded_rng(6);
        let loss = model.train_epoch(&empty_ctx, &mut rng);
        assert_eq!(loss, 0.0);
        assert!(
            model.cached_users.is_none() && model.cached_items.is_none(),
            "caches must be dropped on every train_epoch exit path"
        );
    }

    /// In-module smoke check of the subgraph engine; the full cross-mode
    /// differential test lives in `tests/batch_local_diff.rs`.
    #[test]
    fn batch_local_and_full_graph_training_match() {
        let (inter, ckg) = toy_world();
        let ctx = TrainContext { inter: &inter, ckg: &ckg };
        let mut full_cfg = fast_config();
        full_cfg.batch_local = false;
        let mut local = Ckat::new(&ctx, &fast_config());
        let mut full = Ckat::new(&ctx, &full_cfg);
        let mut rng_a = seeded_rng(8);
        let mut rng_b = seeded_rng(8);
        for _ in 0..2 {
            let la = local.train_epoch(&ctx, &mut rng_a);
            let lf = full.train_epoch(&ctx, &mut rng_b);
            assert_eq!(la, lf, "losses must match under keep_prob = 1.0");
        }
        assert_eq!(
            local.store.value(local.ent_emb).as_slice(),
            full.store.value(full.ent_emb).as_slice(),
            "entity embeddings must stay bitwise identical across modes"
        );
    }

    #[test]
    fn epoch_profile_reports_subgraph_work() {
        let (inter, ckg) = toy_world();
        let ctx = TrainContext { inter: &inter, ckg: &ckg };
        let mut model = Ckat::new(&ctx, &fast_config());
        assert!(model.take_epoch_profile().is_none());
        let mut rng = seeded_rng(9);
        model.train_epoch(&ctx, &mut rng);
        let prof = model.take_epoch_profile().expect("profile recorded");
        assert!(model.take_epoch_profile().is_none(), "profile is consumed once");
        assert!(prof.batches >= 1);
        assert!(prof.gathered_rows <= prof.full_rows);
        assert!(prof.gathered_edges <= prof.full_edges);
        assert!(prof.forward_flops > 0);
        assert!(prof.row_fraction() <= 1.0 && prof.edge_fraction() <= 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one propagation layer")]
    fn zero_layers_rejected() {
        let (inter, ckg) = toy_world();
        let ctx = TrainContext { inter: &inter, ckg: &ckg };
        let mut cfg = fast_config();
        cfg.layer_dims = vec![];
        let _ = Ckat::new(&ctx, &cfg);
    }

    /// A tape holding `model`'s parameters as leaves and, on top, the
    /// whole-graph pass over its current attention: `(tape, entity leaf,
    /// W_l leaves, b_l leaves, every entity's final representation)`.
    fn whole_graph_tape(
        model: &Ckat,
        dropout_key: Option<u64>,
    ) -> (Tape, Var, Vec<Var>, Vec<Var>, Var) {
        let mut t = Tape::new();
        let leaf = |t: &mut Tape, p: ParamId| t.leaf(model.store.value(p).clone());
        let ent = leaf(&mut t, model.ent_emb);
        let lw: Vec<Var> = model.layer_w.iter().map(|&p| leaf(&mut t, p)).collect();
        let lb: Vec<Var> = model.layer_b.iter().map(|&p| leaf(&mut t, p)).collect();
        let att = t.constant(Matrix::from_vec(model.att.len(), 1, model.att.clone()));
        let (tails, heads) = (Arc::clone(&model.tails), Arc::clone(&model.heads));
        let n = model.n_entities;
        let all =
            propagate_over(&model.config, &mut t, ent, att, tails, heads, n, &lw, &lb, dropout_key);
        (t, ent, lw, lb, all)
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn layerwise_final_representations_match_the_stacked_tape() {
        let (inter, ckg) = toy_world();
        let ctx = TrainContext { inter: &inter, ckg: &ckg };
        let mut model = Ckat::new(&ctx, &fast_config());
        model.train_epoch(&ctx, &mut seeded_rng(3));
        model.refresh_attention(&ctx);
        let (t, _, _, _, stacked) = whole_graph_tape(&model, None);
        assert_eq!(bits(t.value(stacked)), bits(&model.final_representations()));
    }

    /// One micro-batch's frontier step against the whole-graph tape, on a
    /// world where the closure and every layer's head set are strict
    /// subsets of the graph: the loss, every entity-row gradient and every
    /// `W_l`/`b_l` gradient agree bit for bit, for both aggregators, with
    /// dropout off and on.
    #[test]
    fn frontier_step_matches_the_whole_graph_tape() {
        let (inter, ckg) = sparse_world();
        assert_sparse_frontiers_shrink(&inter, &ckg);
        let ctx = TrainContext { inter: &inter, ckg: &ckg };
        let bpr = sample_bpr_batch(&inter, SPARSE_BATCH, &mut seeded_rng(1));
        let b = bpr.len();
        let (seed_sets, pos_maps) = batch_seeds(&ckg, std::iter::once(bpr.as_slice()), false);
        let (_, raw) = batch_seeds(&ckg, std::iter::once(bpr.as_slice()), true);
        for aggregator in [Aggregator::Concat, Aggregator::Sum] {
            for keep in [1.0, 0.8] {
                let what = format!("{aggregator:?} keep {keep}");
                let mut cfg = fast_config();
                cfg.layer_dims = vec![16, 8, 4];
                cfg.aggregator = aggregator;
                cfg.base.keep_prob = keep;
                let mut model = Ckat::new(&ctx, &cfg);
                model.train_epoch(&ctx, &mut seeded_rng(3));
                model.refresh_attention(&ctx);
                let key = dropout_key(&cfg, &mut seeded_rng(2));
                let mut sub = model.scratch.extract(&ckg, &seed_sets[0], cfg.depth());
                assert!(sub.layers.iter().all(|l| l.rows.len() < sub.n_nodes()), "{what}");
                let nodes = sub.nodes.clone();
                let att = layer_attention(&sub, &model.att);
                let ids = (model.ent_emb, model.layer_w.as_slice(), model.layer_b.as_slice());
                let (step, _) = bpr_step(
                    &mut Tape::new(),
                    &cfg,
                    &model.store,
                    ids,
                    &mut sub,
                    &att,
                    &pos_maps[0],
                    b,
                    key,
                );

                let (mut t, ent, lw, lb, all) = whole_graph_tape(&model, key);
                let raw = &raw[0];
                let u = t.gather_rows(all, &raw[..b]);
                let i = t.gather_rows(all, &raw[b..2 * b]);
                let j = t.gather_rows(all, &raw[2 * b..3 * b]);
                let loss = bpr_loss(&mut t, u, i, j, b, cfg.base.l2);
                t.backward(loss);
                assert_eq!(step.loss.to_bits(), t.value(loss)[(0, 0)].to_bits(), "{what}: loss");
                let dense = |p: ParamId| {
                    let var = if p == model.ent_emb {
                        ent
                    } else if let Some(l) = model.layer_w.iter().position(|&w| w == p) {
                        lw[l]
                    } else {
                        lb[model.layer_b.iter().position(|&x| x == p).expect("a layer bias")]
                    };
                    t.grad(var).expect("every parameter takes a gradient")
                };
                assert_eq!(step.grads.len(), 1 + 2 * cfg.depth(), "{what}: one gradient each");
                for (p, g) in &step.grads {
                    let full = dense(*p);
                    match g {
                        Grad::Dense(g) => assert_eq!(bits(g), bits(full), "{what}: layer gradient"),
                        Grad::Sparse(g) => {
                            assert_eq!(g.rows, nodes, "{what}: the closure rows");
                            for (k, &row) in g.rows.iter().enumerate() {
                                let (x, y) = (g.values.row(k), full.row(row));
                                let (x, y) =
                                    (x.iter().map(|v| v.to_bits()), y.iter().map(|v| v.to_bits()));
                                assert!(x.eq(y), "{what}: entity row {row}");
                            }
                            for row in
                                (0..ckg.n_entities()).filter(|r| g.rows.binary_search(r).is_err())
                            {
                                assert!(
                                    full.row(row).iter().all(|&v| v == 0.0),
                                    "{what}: row {row}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// A second identical micro-batch on a reset tape reuses every large
    /// buffer of the first — a change that routes an op around the tape's
    /// slots fails here instead of quietly costing fresh pages per step.
    #[test]
    fn identical_micro_batch_reuses_every_large_tape_buffer() {
        use crate::test_fixtures::structured_world;
        use facility_autograd::tape::LARGE_BUFFER;
        let (inter, ckg) = structured_world(300, 400, 4, 3);
        let ctx = TrainContext { inter: &inter, ckg: &ckg };
        let mut cfg = fast_config();
        cfg.base.embed_dim = 32;
        cfg.base.keep_prob = 0.8;
        cfg.layer_dims = vec![32, 16, 8];
        let mut model = Ckat::new(&ctx, &cfg);
        model.refresh_attention(&ctx);
        let bpr = sample_bpr_batch(&inter, 64, &mut seeded_rng(4));
        let b = bpr.len();
        let mut seeds: Vec<usize> = bpr.iter().map(|x| x.user as usize).collect();
        seeds.extend(bpr.iter().map(|x| ckg.item_entity(x.pos)));
        seeds.extend(bpr.iter().map(|x| ckg.item_entity(x.neg)));
        let (seeds, pos_map) = dedup_seeds(&seeds);
        let sub = model.scratch.extract(&ckg, &seeds, cfg.depth());
        assert!(sub.n_nodes() * cfg.base.embed_dim >= LARGE_BUFFER, "subgraph too small to matter");
        let att_vals = layer_attention(&sub, &model.att);
        let ids = (model.ent_emb, model.layer_w.as_slice(), model.layer_b.as_slice());
        let mut t = Tape::new();
        let mut step = || {
            let (out, _) = bpr_step(
                &mut t,
                &cfg,
                &model.store,
                ids,
                &mut sub.clone(),
                &att_vals,
                &pos_map,
                b,
                Some(9),
            );
            out.loss.to_bits()
        };
        let first = step();
        let second = step();
        assert_eq!(first, second, "a reset tape must reproduce the loss bits");
        assert_eq!(t.missed_reuse(), 0, "the second micro-batch took fresh large buffers");
    }
}
