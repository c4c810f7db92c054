//! Batch-local receptive fields: the L-hop in-neighborhood of a training
//! batch, extracted as per-layer index lists over a remapped subgraph.
//! audit: module unwrap — CSR offsets are built and remapped inside this
//! module; debug-audit runtime checks assert the invariants and the subgraph
//! unit tests cover ragged shapes.
//!
//! Propagation-based models (CKAT, KGCN) only need the representations of
//! the batch's seed entities, yet the naive implementation runs every
//! layer over the *entire* CKG. The receptive field of an `L`-layer stack
//! is much smaller, and it shrinks layer by layer: the loss reads layer
//! `L`'s output at the seeds only, layer `L` reads layer `L-1` at the
//! seeds and their neighbors, and so on down to the layer-0 embeddings.
//! [`BatchSubgraph`] captures exactly that level structure, so the models
//! gather `O(subgraph)` embedding rows and compute each layer only on the
//! rows a later layer or the loss reads.
//!
//! ## Levels
//!
//! With `S` the seed set and `N(·)` the out-neighbors in CSR order, the
//! BFS assigns every entity its hop `level`, and the level sets are
//! `F_0 = S`, `F_{k+1} = F_k ∪ N(F_k)`:
//!
//! * the **closure** `F_L` — every entity whose layer-0 embedding
//!   participates ([`BatchSubgraph::nodes`]);
//! * **layer `l`'s heads** `F_{L-l}`, `l = 1..=L` — the rows layer `l`
//!   computes. Each head carries its *full* CSR edge slice, and every tail
//!   of those edges lies in `F_{L-l+1}`, the previous layer's rows, so the
//!   layer's aggregation is exact on every row it computes. The sets are
//!   nested, and layer `L`'s heads are the seeds.
//!
//! Every row list is sorted by **global** id, and every head keeps its
//! complete edge slice in global CSR order, so per-segment message sums
//! and backward scatter-adds accumulate in exactly the order the
//! full-graph pass uses — batch-local propagation is bitwise identical on
//! the rows that matter, which the differential tests in
//! `facility-models` pin down.
//!
//! ## Hub cut
//!
//! [`SubgraphScratch::extract_many`] can be given *cut* flags (the hubs of
//! `facility-models`' hub cache): a cut entity expands only for the seed
//! sets it is a seed of. Elsewhere it still takes its level, and so
//! its row in every layer whose head set reaches it, but it carries no
//! edges; its layer outputs come from the cache instead.
//!
//! ## Thread safety
//!
//! Extraction reads the [`Ckg`] *only* through `&`-references — the graph
//! is immutable CSR data and `Sync` — so any number of workers may
//! extract concurrently from one shared graph, each with its **own**
//! [`SubgraphScratch`] (the scratch holds the mutable BFS state). The
//! extracted subgraph for a given seed set is identical no matter which
//! worker produced it.

use crate::builder::Ckg;

/// Reusable O(n_entities) workspace for [`SubgraphScratch::extract`].
///
/// Membership is tracked with *versioned stamps* so clearing between
/// batches is O(1): a slot belongs to the current extraction only when its
/// stamp equals the current version.
pub struct SubgraphScratch {
    /// Stamp per entity; `stamp[e] == version` ⇒ `e` is in the closure.
    stamp: Vec<u32>,
    /// Position of each entity in the row list being remapped (valid only
    /// when stamped this version).
    local: Vec<u32>,
    /// Hop level per entity in [`SubgraphScratch::extract`] (valid only
    /// when stamped this version).
    level: Vec<u32>,
    /// Current extraction version.
    version: u32,
    /// Discovery buffer reused across extractions (capacity persists).
    discovered: Vec<usize>,
    /// Per-entity closure membership bitmask for [`SubgraphScratch::extract_many`]
    /// (bit `b` ⇒ in seed set `b`'s closure). Allocated on first use.
    mask: Vec<u64>,
    /// Per-round pending bits during the level-synchronous multi-source BFS.
    pending: Vec<u64>,
    /// `within[j][e]`: bit `b` ⇒ `e` is within `j` hops of seed set `b`
    /// (`F_j`), for `j < depth`; the closure `F_depth` is `mask` itself.
    within: Vec<Vec<u64>>,
    /// Bit `b` ⇒ the entity is one of seed set `b`'s seeds.
    seed_bits: Vec<u64>,
}

/// One propagation layer's index lists within a [`BatchSubgraph`]: layer
/// `l` of an `L`-layer stack computes the rows `F_{L-l}` from the previous
/// layer's rows `F_{L-l+1}` (the closure for `l = 1`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LayerFrontier {
    /// Global id of each head row, strictly increasing.
    pub rows: Vec<usize>,
    /// Position of each head in the previous layer's rows (its self term).
    pub self_rows: Vec<usize>,
    /// Global CSR edge id of each edge: every head's full slice (none for
    /// a cut hub), heads in row order, each slice in CSR order.
    pub edge_ids: Vec<usize>,
    /// Tail of each edge as a position in the previous layer's rows.
    pub tails: Vec<usize>,
    /// Head of each edge as a position in [`LayerFrontier::rows`]
    /// (non-decreasing).
    pub heads: Vec<usize>,
    /// Position in [`LayerFrontier::rows`] of each seed, parallel to the
    /// `seeds` slice the subgraph was extracted for.
    pub seeds: Vec<usize>,
}

/// The `depth`-hop receptive field of a seed set, as per-layer index
/// lists (see the module docs for the level structure).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchSubgraph {
    /// Global id of each closure node — the layer-0 embedding rows —
    /// strictly increasing.
    pub nodes: Vec<usize>,
    /// Position in [`BatchSubgraph::nodes`] of each seed, parallel to the
    /// `seeds` slice passed to extraction (duplicates share a position).
    pub seed_locals: Vec<usize>,
    /// `layers[l]` holds the lists of propagation layer `l + 1`.
    pub layers: Vec<LayerFrontier>,
}

impl BatchSubgraph {
    /// Number of nodes in the closure.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of distinct edges in the subgraph: layer 1's, since every
    /// deeper layer's edges are a subset of them.
    pub fn n_edges(&self) -> usize {
        self.layers.first().map_or(0, |l| l.edge_ids.len())
    }

    /// Validate the level structure against the graph this subgraph was
    /// extracted from (with the `cut` flags it was extracted under),
    /// panicking on violation:
    ///
    /// * the closure and every layer's rows are strictly sorted and within
    ///   the graph's entity range;
    /// * the sets are nested — every head is a row of the previous layer,
    ///   at the position its self entry names;
    /// * every head carries its *complete* CSR slice, in global edge
    ///   order, unless it is a cut entity that is not a seed, which
    ///   carries none;
    /// * every tail falls within the previous layer's rows, at a position
    ///   that names the edge's tail entity;
    /// * every seed position names the same entity in the closure and in
    ///   every layer.
    ///
    /// Called automatically at the end of extraction when the
    /// `debug-audit` feature is enabled; always available for tests.
    pub fn validate(&self, ckg: &Ckg, cut: Option<&[bool]>) {
        let n = self.nodes.len();
        assert!(
            self.nodes.windows(2).all(|w| w[0] < w[1]),
            "debug-audit: closure nodes not strictly sorted"
        );
        if let Some(&last) = self.nodes.last() {
            assert!(last < ckg.n_entities(), "debug-audit: node {last} outside the entity range");
        }
        for &sl in &self.seed_locals {
            assert!(sl < n, "debug-audit: seed local id {sl} out of range");
        }
        let is_seed = |g: usize| self.seed_locals.iter().any(|&sl| self.nodes[sl] == g);
        let mut prev: &[usize] = &self.nodes;
        for (l, layer) in self.layers.iter().enumerate() {
            let layer_no = l + 1;
            let rows = &layer.rows;
            assert!(
                rows.windows(2).all(|w| w[0] < w[1]),
                "debug-audit: layer {layer_no} rows not strictly sorted"
            );
            assert_eq!(
                layer.self_rows.len(),
                rows.len(),
                "debug-audit: layer {layer_no} has one self row per head"
            );
            for (&g, &p) in rows.iter().zip(&layer.self_rows) {
                assert!(
                    p < prev.len() && prev[p] == g,
                    "debug-audit: layer {layer_no} head {g} is not nested in the previous layer"
                );
            }
            assert!(
                layer.edge_ids.len() == layer.tails.len() && layer.tails.len() == layer.heads.len(),
                "debug-audit: layer {layer_no} edge lists disagree"
            );
            let mut k = 0usize;
            for (hi, &g) in rows.iter().enumerate() {
                let slice = ckg.offsets[g]..ckg.offsets[g + 1];
                let carried = layer.heads[k..].iter().take_while(|&&h| h == hi).count();
                if carried == 0 && !slice.is_empty() {
                    assert!(
                        cut.is_some_and(|c| c[g]) && !is_seed(g),
                        "debug-audit: layer {layer_no} head {g} is missing edge {} — slice \
                         incomplete",
                        slice.start
                    );
                    continue;
                }
                for e in slice {
                    assert!(
                        k < layer.edge_ids.len() && layer.edge_ids[k] == e && layer.heads[k] == hi,
                        "debug-audit: layer {layer_no} head {g} is missing edge {e} — slice \
                         incomplete or out of order"
                    );
                    let t = layer.tails[k];
                    assert!(
                        t < prev.len(),
                        "debug-audit: layer {layer_no} edge {e} tail escapes the previous layer"
                    );
                    assert_eq!(
                        prev[t], ckg.tails[e] as usize,
                        "debug-audit: layer {layer_no} edge {e} tail remapped to the wrong node"
                    );
                    k += 1;
                }
            }
            assert_eq!(
                k,
                layer.edge_ids.len(),
                "debug-audit: layer {layer_no} has {} edges beyond its heads' CSR slices",
                layer.edge_ids.len() - k
            );
            assert_eq!(
                layer.seeds.len(),
                self.seed_locals.len(),
                "debug-audit: layer {layer_no} has one position per seed"
            );
            for (&p, &sl) in layer.seeds.iter().zip(&self.seed_locals) {
                assert!(
                    p < rows.len() && rows[p] == self.nodes[sl],
                    "debug-audit: layer {layer_no} seed position {p} names the wrong row"
                );
            }
            prev = rows;
        }
    }
}

/// The union receptive field of one macro-step's micro-batch seed sets,
/// extracted by [`SubgraphScratch::extract_many`] in a single traversal.
///
/// `subgraphs[b]` is **bitwise identical** to what an independent
/// extraction of seed set `b` produces — same rows, same edge lists, same
/// seed positions — because both paths compute the same levels, sort rows
/// by global id and copy complete CSR slices in global edge order. The
/// union exists so the traversal cost is paid once per macro-step instead
/// of once per micro-batch.
#[derive(Debug, Clone, Default)]
pub struct UnionExtraction {
    /// Sorted global ids of every node in any seed set's closure.
    pub union_nodes: Vec<usize>,
    /// One derived subgraph per seed set, in input order.
    pub subgraphs: Vec<BatchSubgraph>,
}

impl UnionExtraction {
    /// Validate the union's structural contract, panicking on violation:
    /// the union node list is strictly sorted and in range, every derived
    /// subgraph satisfies [`BatchSubgraph::validate`] under `cut`, and
    /// every subgraph node is a member of the union. Called automatically
    /// at the end of [`SubgraphScratch::extract_many`] under the
    /// `debug-audit` feature.
    pub fn validate(&self, ckg: &Ckg, cut: Option<&[bool]>) {
        assert!(
            self.union_nodes.windows(2).all(|w| w[0] < w[1]),
            "debug-audit: union nodes not strictly sorted"
        );
        for &g in &self.union_nodes {
            assert!(g < ckg.n_entities(), "debug-audit: union node {g} outside the entity range");
        }
        for (b, sub) in self.subgraphs.iter().enumerate() {
            sub.validate(ckg, cut);
            for &g in &sub.nodes {
                assert!(
                    self.union_nodes.binary_search(&g).is_ok(),
                    "debug-audit: subgraph {b} node {g} escapes the union"
                );
            }
        }
    }
}

/// Build a [`BatchSubgraph`] from its closure (sorted by global id) and
/// the level structure: `within(g, j)` ⇔ `g ∈ F_j`, and `expands(g)` ⇔
/// `g` carries its edge slice as a head. `local` is the caller's
/// entity-indexed position map, overwritten here.
fn assemble(
    ckg: &Ckg,
    local: &mut [u32],
    nodes: Vec<usize>,
    seeds: &[usize],
    depth: usize,
    within: impl Fn(usize, usize) -> bool,
    expands: impl Fn(usize) -> bool,
) -> BatchSubgraph {
    let mut out = BatchSubgraph { nodes, ..BatchSubgraph::default() };
    assemble_into(ckg, local, seeds, depth, within, expands, &mut out);
    out
}

/// [`assemble`] into `out`, whose `nodes` already hold the closure; every
/// other list is rewritten in place, keeping its capacity.
fn assemble_into(
    ckg: &Ckg,
    local: &mut [u32],
    seeds: &[usize],
    depth: usize,
    within: impl Fn(usize, usize) -> bool,
    expands: impl Fn(usize) -> bool,
    out: &mut BatchSubgraph,
) {
    let BatchSubgraph { nodes, seed_locals, layers } = out;
    for (i, &g) in nodes.iter().enumerate() {
        local[g] = i as u32;
    }
    seed_locals.clear();
    seed_locals.extend(seeds.iter().map(|&s| local[s] as usize));
    layers.resize_with(depth, LayerFrontier::default);
    for l in 1..=depth {
        let (done, rest) = layers.split_at_mut(l - 1);
        // `local` maps the previous layer's rows to their positions.
        let prev = done.last().map_or(&*nodes, |p| &p.rows);
        let LayerFrontier { rows, self_rows, edge_ids, tails, heads, seeds: seed_rows } =
            &mut rest[0];
        rows.clear();
        rows.extend(prev.iter().copied().filter(|&g| within(g, depth - l)));
        self_rows.clear();
        self_rows.extend(rows.iter().map(|&g| local[g] as usize));
        edge_ids.clear();
        tails.clear();
        heads.clear();
        for (hi, &g) in rows.iter().enumerate() {
            if !expands(g) {
                continue;
            }
            for k in ckg.offsets[g]..ckg.offsets[g + 1] {
                edge_ids.push(k);
                heads.push(hi);
                tails.push(local[ckg.tails[k] as usize] as usize);
            }
        }
        for (i, &g) in rows.iter().enumerate() {
            local[g] = i as u32;
        }
        seed_rows.clear();
        seed_rows.extend(seeds.iter().map(|&s| local[s] as usize));
    }
}

impl SubgraphScratch {
    /// Workspace for a graph with `n_entities` entities.
    pub fn new(n_entities: usize) -> Self {
        Self {
            stamp: vec![0; n_entities],
            local: vec![0; n_entities],
            level: vec![0; n_entities],
            version: 0,
            discovered: Vec::new(),
            mask: Vec::new(),
            pending: Vec::new(),
            within: Vec::new(),
            seed_bits: Vec::new(),
        }
    }

    /// Extract the `depth`-hop in-neighborhood of `seeds` with its
    /// per-layer index lists. Allocates only the output (O(subgraph));
    /// the O(graph) bookkeeping lives in `self` and is reused across
    /// calls.
    ///
    /// # Panics
    /// Panics if a seed is out of range for the graph this scratch was
    /// sized for.
    pub fn extract(&mut self, ckg: &Ckg, seeds: &[usize], depth: usize) -> BatchSubgraph {
        let mut out = BatchSubgraph::default();
        self.extract_into(ckg, seeds, depth, &mut out);
        out
    }

    /// [`SubgraphScratch::extract`] into `out`, overwriting every list in
    /// place: a caller that hands the same subgraph back batch after batch
    /// reuses its buffers instead of allocating new ones.
    ///
    /// # Panics
    /// As [`SubgraphScratch::extract`].
    pub fn extract_into(
        &mut self,
        ckg: &Ckg,
        seeds: &[usize],
        depth: usize,
        out: &mut BatchSubgraph,
    ) {
        assert_eq!(self.stamp.len(), ckg.n_entities(), "scratch sized for a different graph");
        self.bump_version();
        let version = self.version;
        self.discovered.clear();

        // Level-synchronous BFS over out-edges (CSR slices).
        for &s in seeds {
            if self.stamp[s] != version {
                self.stamp[s] = version;
                self.level[s] = 0;
                self.discovered.push(s);
            }
        }
        let mut frontier_start = 0;
        for hop in 1..=depth {
            let frontier_end = self.discovered.len();
            for fi in frontier_start..frontier_end {
                let g = self.discovered[fi];
                for k in ckg.offsets[g]..ckg.offsets[g + 1] {
                    let t = ckg.tails[k] as usize;
                    if self.stamp[t] != version {
                        self.stamp[t] = version;
                        self.level[t] = hop as u32;
                        self.discovered.push(t);
                    }
                }
            }
            frontier_start = frontier_end;
        }

        out.nodes.clear();
        out.nodes.extend_from_slice(&self.discovered);
        out.nodes.sort_unstable();
        let level = &self.level;
        assemble_into(
            ckg,
            &mut self.local,
            seeds,
            depth,
            |g, j| level[g] as usize <= j,
            |_| true,
            out,
        );
        #[cfg(feature = "debug-audit")]
        out.validate(ckg, None);
    }

    /// Extract the union receptive field of up to 64 seed sets in **one**
    /// traversal and derive every per-set [`BatchSubgraph`] from it.
    ///
    /// A level-synchronous multi-source BFS tracks, per entity, a `u64`
    /// bitmask of which seed sets' closures contain it; bits discovered in
    /// the same round are committed together, and the masks are
    /// snapshotted after every round, so per-set hop levels — and
    /// therefore every layer's head set — are exactly what independent
    /// BFS runs would compute. Each subgraph is then materialized by
    /// filtering the sorted union with its bit, which reproduces
    /// [`SubgraphScratch::extract`] bit for bit (proved in the tests below
    /// and in `crates/kg/tests/proptests.rs`).
    ///
    /// `cut` applies the hub rule to every set: a cut entity only expands
    /// the bits for which it is a seed, and carries no edges in the
    /// subgraphs of the other sets.
    ///
    /// # Panics
    /// Panics if more than 64 seed sets are passed, a seed is out of
    /// range, or `cut` is mis-sized.
    pub fn extract_many(
        &mut self,
        ckg: &Ckg,
        seed_sets: &[Vec<usize>],
        depth: usize,
        cut: Option<&[bool]>,
    ) -> UnionExtraction {
        assert_eq!(self.stamp.len(), ckg.n_entities(), "scratch sized for a different graph");
        assert!(seed_sets.len() <= 64, "extract_many tracks at most 64 seed sets per union");
        if let Some(c) = cut {
            assert_eq!(c.len(), ckg.n_entities(), "cut flags sized for a different graph");
        }
        let n = ckg.n_entities();
        if self.mask.len() != n {
            self.mask = vec![0; n];
            self.pending = vec![0; n];
            self.seed_bits = vec![0; n];
            self.within.clear();
        }
        while self.within.len() < depth {
            self.within.push(vec![0; n]);
        }
        self.bump_version();
        let version = self.version;
        self.discovered.clear();
        let is_cut = |g: usize| cut.is_some_and(|c| c[g]);
        let within_rounds = &mut self.within[..depth];

        // Seed round: first touch lazily clears an entity's bit state.
        for (b, seeds) in seed_sets.iter().enumerate() {
            let bit = 1u64 << b;
            for &s in seeds {
                if self.stamp[s] != version {
                    self.stamp[s] = version;
                    self.mask[s] = 0;
                    self.pending[s] = 0;
                    self.seed_bits[s] = 0;
                    within_rounds.iter_mut().for_each(|w| w[s] = 0);
                    self.discovered.push(s);
                }
                self.mask[s] |= bit;
                self.seed_bits[s] |= bit;
            }
        }
        let mut frontier: Vec<(usize, u64)> =
            self.discovered.iter().map(|&s| (s, self.mask[s])).collect();

        let mut touched: Vec<usize> = Vec::new();
        for round in 1..=depth {
            // Snapshot F_{round-1} before this round's bits land.
            for &g in &self.discovered {
                within_rounds[round - 1][g] = self.mask[g];
            }
            let mut next: Vec<(usize, u64)> = Vec::new();
            touched.clear();
            for &(g, delta) in &frontier {
                // The hub cut: a cut entity expands only the bits it is a
                // seed of (those are exactly its round-0 delta bits).
                let expand = if is_cut(g) { delta & self.seed_bits[g] } else { delta };
                if expand == 0 {
                    continue;
                }
                for k in ckg.offsets[g]..ckg.offsets[g + 1] {
                    let t = ckg.tails[k] as usize;
                    if self.stamp[t] != version {
                        self.stamp[t] = version;
                        self.mask[t] = 0;
                        self.pending[t] = 0;
                        self.seed_bits[t] = 0;
                        within_rounds.iter_mut().for_each(|w| w[t] = 0);
                        self.discovered.push(t);
                    }
                    if self.pending[t] == 0 {
                        touched.push(t);
                    }
                    self.pending[t] |= expand;
                }
            }
            // Commit after the whole frontier expanded — bits reaching a
            // node in this round must not re-expand within it, or per-set
            // hop levels (and the layer head sets) would be wrong.
            for &t in &touched {
                let delta = self.pending[t] & !self.mask[t];
                self.pending[t] = 0;
                if delta != 0 {
                    self.mask[t] |= delta;
                    if round < depth {
                        next.push((t, delta));
                    }
                }
            }
            frontier = next;
        }

        // Materialize: filter the sorted union once per set, so each
        // subgraph's rows come out sorted by global id exactly as
        // independent extraction sorts them.
        self.discovered.sort_unstable();
        let union_nodes = self.discovered.clone();
        let (mask, seed_bits, within) = (&self.mask, &self.seed_bits, &self.within);
        let mut subgraphs = Vec::with_capacity(seed_sets.len());
        for (b, seeds) in seed_sets.iter().enumerate() {
            let bit = 1u64 << b;
            let nodes: Vec<usize> =
                union_nodes.iter().copied().filter(|&g| mask[g] & bit != 0).collect();
            subgraphs.push(assemble(
                ckg,
                &mut self.local,
                nodes,
                seeds,
                depth,
                |g, j| within[j][g] & bit != 0,
                |g| !is_cut(g) || seed_bits[g] & bit != 0,
            ));
        }
        let out = UnionExtraction { union_nodes, subgraphs };
        #[cfg(feature = "debug-audit")]
        out.validate(ckg, cut);
        out
    }

    fn bump_version(&mut self) {
        if self.version == u32::MAX {
            self.stamp.fill(0);
            self.version = 1;
        } else {
            self.version += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{CkgBuilder, KnowledgeSource, SourceMask};
    use crate::Id;

    /// 3 users, 4 items, a few attributes; returns the built CKG.
    fn world() -> Ckg {
        let mut b = CkgBuilder::new(3, 4);
        b.add_interactions(&[(0, 0), (0, 1), (1, 1), (2, 2)]);
        for i in 0..4u32 {
            b.add_item_attribute(KnowledgeSource::Dkg, "dataType", i, format!("t{}", i % 2));
        }
        b.build(SourceMask::all())
    }

    /// The single-seed-set oracle of the hub cut rule: a plain queue BFS
    /// in which a cut entity expands only when it is one of `seeds`, then
    /// the same row and edge assembly as extraction.
    fn extract_cut(
        scratch: &mut SubgraphScratch,
        ckg: &Ckg,
        seeds: &[usize],
        depth: usize,
        cut: &[bool],
    ) -> BatchSubgraph {
        let expands = |g: usize| !cut[g] || seeds.contains(&g);
        let mut level = vec![usize::MAX; ckg.n_entities()];
        let mut order: Vec<usize> = Vec::new();
        for &s in seeds {
            if level[s] == usize::MAX {
                level[s] = 0;
                order.push(s);
            }
        }
        let mut start = 0;
        for hop in 1..=depth {
            let end = order.len();
            for i in start..end {
                let g = order[i];
                if !expands(g) {
                    continue;
                }
                for k in ckg.offsets[g]..ckg.offsets[g + 1] {
                    let t = ckg.tails[k] as usize;
                    if level[t] == usize::MAX {
                        level[t] = hop;
                        order.push(t);
                    }
                }
            }
            start = end;
        }
        order.sort_unstable();
        let sub =
            assemble(ckg, &mut scratch.local, order, seeds, depth, |g, j| level[g] <= j, expands);
        sub.validate(ckg, Some(cut));
        sub
    }

    #[test]
    fn closure_grows_with_depth_and_layers_stay_sorted() {
        let ckg = world();
        let mut scratch = SubgraphScratch::new(ckg.n_entities());
        let seeds = [0usize];
        let mut prev = 0;
        for depth in 1..=3 {
            let sub = scratch.extract(&ckg, &seeds, depth);
            assert!(sub.n_nodes() >= prev, "closure must be monotone in depth");
            prev = sub.n_nodes();
            assert_eq!(sub.layers.len(), depth);
            assert!(sub.nodes.windows(2).all(|w| w[0] < w[1]));
            for layer in &sub.layers {
                assert!(layer.rows.windows(2).all(|w| w[0] < w[1]));
                // CSR grouping: heads non-decreasing.
                assert!(layer.heads.windows(2).all(|w| w[0] <= w[1]));
            }
        }
    }

    /// The head sets shrink layer by layer, each nested in the one before,
    /// down to the seeds themselves at the last layer.
    #[test]
    fn head_sets_are_nested_and_end_at_the_seeds() {
        let ckg = world();
        let mut scratch = SubgraphScratch::new(ckg.n_entities());
        let sub = scratch.extract(&ckg, &[5, 0, 5], 3);
        let mut prev = &sub.nodes;
        for layer in &sub.layers {
            assert!(layer.rows.len() <= prev.len());
            assert!(layer.rows.iter().all(|g| prev.binary_search(g).is_ok()));
            prev = &layer.rows;
        }
        assert_eq!(sub.layers.last().unwrap().rows, vec![0, 5]);
        assert!(sub.layers[2].edge_ids.len() <= sub.layers[0].edge_ids.len());
    }

    #[test]
    fn layer_edges_match_full_graph_slices() {
        let ckg = world();
        let mut scratch = SubgraphScratch::new(ckg.n_entities());
        let sub = scratch.extract(&ckg, &[0, 5], 2);
        // Every head's edge group must be its complete global CSR slice,
        // in order, with tails resolving in the previous layer's rows.
        let mut prev = &sub.nodes;
        for layer in &sub.layers {
            let mut cursor = 0;
            for (hi, &g) in layer.rows.iter().enumerate() {
                for k in ckg.offsets[g]..ckg.offsets[g + 1] {
                    assert_eq!(layer.edge_ids[cursor], k);
                    assert_eq!(layer.heads[cursor], hi);
                    assert_eq!(prev[layer.tails[cursor]], ckg.tails[k] as usize);
                    cursor += 1;
                }
            }
            assert_eq!(cursor, layer.edge_ids.len());
            prev = &layer.rows;
        }
        assert_eq!(sub.n_edges(), sub.layers[0].edge_ids.len());
    }

    #[test]
    fn seed_positions_handle_duplicates() {
        let ckg = world();
        let mut scratch = SubgraphScratch::new(ckg.n_entities());
        let sub = scratch.extract(&ckg, &[2, 0, 2], 1);
        assert_eq!(sub.seed_locals.len(), 3);
        assert_eq!(sub.seed_locals[0], sub.seed_locals[2]);
        assert_eq!(sub.nodes[sub.seed_locals[0]], 2);
        assert_eq!(sub.nodes[sub.seed_locals[1]], 0);
        let layer = &sub.layers[0];
        assert_eq!(layer.seeds[0], layer.seeds[2]);
        assert_eq!(layer.rows[layer.seeds[1]], 0);
    }

    #[test]
    fn depth_one_heads_are_exactly_the_seeds() {
        let ckg = world();
        let mut scratch = SubgraphScratch::new(ckg.n_entities());
        let sub = scratch.extract(&ckg, &[1, 0], 1);
        assert_eq!(sub.layers[0].rows, vec![0, 1]);
        for &t in &sub.layers[0].tails {
            assert!(t < sub.n_nodes());
        }
    }

    #[test]
    fn depth_zero_is_the_seeds_without_layers() {
        let ckg = world();
        let mut scratch = SubgraphScratch::new(ckg.n_entities());
        let sub = scratch.extract(&ckg, &[3, 1, 3], 0);
        assert_eq!(sub.nodes, vec![1, 3]);
        assert_eq!(sub.seed_locals, vec![1, 0, 1]);
        assert!(sub.layers.is_empty());
        assert_eq!(sub.n_edges(), 0);
    }

    #[test]
    fn scratch_is_reusable_across_disjoint_batches() {
        let ckg = world();
        let mut scratch = SubgraphScratch::new(ckg.n_entities());
        let a = scratch.extract(&ckg, &[0], 2);
        let b = scratch.extract(&ckg, &[2], 2);
        let a2 = scratch.extract(&ckg, &[0], 2);
        assert_eq!(a, a2);
        assert_ne!(a.nodes, b.nodes);
    }

    #[test]
    fn concurrent_extraction_matches_serial() {
        // Many workers, one shared `&Ckg`, one scratch each: every worker
        // must produce exactly the subgraph a serial extraction yields for
        // the same seed set (extraction never mutates the graph).
        let ckg = world();
        let seed_sets: Vec<Vec<usize>> =
            vec![vec![0], vec![2, 0, 2], vec![1, 5], vec![0, 1, 2], vec![6], vec![3, 4]];

        let mut serial = SubgraphScratch::new(ckg.n_entities());
        let expected: Vec<BatchSubgraph> =
            seed_sets.iter().map(|s| serial.extract(&ckg, s, 2)).collect();

        let concurrent: Vec<BatchSubgraph> = std::thread::scope(|scope| {
            let handles: Vec<_> = seed_sets
                .iter()
                .map(|seeds| {
                    let ckg = &ckg;
                    scope.spawn(move || {
                        let mut scratch = SubgraphScratch::new(ckg.n_entities());
                        scratch.extract(ckg, seeds, 2)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
        });

        for (i, (e, c)) in expected.iter().zip(&concurrent).enumerate() {
            assert_eq!(e, c, "seed set {i}");
        }
    }

    /// 4 users, 8 items; every item shares one "common" attribute (the
    /// hub) and has one unique attribute, so the common attribute's CSR
    /// slice dominates any closure that reaches it.
    fn hub_world() -> Ckg {
        let mut b = CkgBuilder::new(4, 8);
        let pairs: Vec<(Id, Id)> = (0..8u32).map(|i| (i % 4, i)).collect();
        b.add_interactions(&pairs);
        for i in 0..8u32 {
            b.add_item_attribute(KnowledgeSource::Dkg, "dataType", i, "common".to_string());
            b.add_item_attribute(KnowledgeSource::Dkg, "dataType", i, format!("unique{i}"));
        }
        b.build(SourceMask::all())
    }

    /// The hub entity (highest out-degree) of a graph.
    fn hub_of(ckg: &Ckg) -> usize {
        (0..ckg.n_entities())
            .max_by_key(|&g| (ckg.offsets[g + 1] - ckg.offsets[g], g))
            .expect("non-empty graph")
    }

    /// One union traversal must reproduce independent extraction exactly,
    /// for every union width the replica macro-step uses and every depth
    /// the model configs use.
    #[test]
    fn union_extraction_matches_independent_extraction() {
        let ckg = world();
        let all_sets: Vec<Vec<usize>> = vec![
            vec![0, 5, 0],
            vec![2],
            vec![1, 6, 3],
            vec![0, 1, 2],
            vec![6],
            vec![3, 4, 3],
            vec![5, 2],
            vec![0, 6, 4],
        ];
        for width in [1usize, 2, 4, 8] {
            for depth in 0..=3 {
                let sets = &all_sets[..width];
                let mut u_scratch = SubgraphScratch::new(ckg.n_entities());
                let union = u_scratch.extract_many(&ckg, sets, depth, None);
                union.validate(&ckg, None);
                assert_eq!(union.subgraphs.len(), width);
                let mut i_scratch = SubgraphScratch::new(ckg.n_entities());
                for (b, seeds) in sets.iter().enumerate() {
                    let independent = i_scratch.extract(&ckg, seeds, depth);
                    assert_eq!(
                        independent, union.subgraphs[b],
                        "width {width} depth {depth} set {b}"
                    );
                }
            }
        }
    }

    /// The same equivalence under the hub cut, against the single-set
    /// `extract_cut` oracle, on a graph with a genuine hub.
    #[test]
    fn union_extraction_matches_extract_cut_under_hub_cut() {
        let ckg = hub_world();
        let hub = hub_of(&ckg);
        let mut cut = vec![false; ckg.n_entities()];
        cut[hub] = true;
        let sets: Vec<Vec<usize>> = vec![
            vec![0, 4, 8],
            vec![1, 5],
            vec![2, 6, 10],
            vec![3, 7],
            vec![0, 9],
            vec![hub, 1], // the hub as a seed must keep its slice for this set
            vec![2, 11],
            vec![3, 4, 5],
        ];
        for depth in 0..=3 {
            let mut u_scratch = SubgraphScratch::new(ckg.n_entities());
            let union = u_scratch.extract_many(&ckg, &sets, depth, Some(&cut));
            union.validate(&ckg, Some(&cut));
            let mut i_scratch = SubgraphScratch::new(ckg.n_entities());
            for (b, seeds) in sets.iter().enumerate() {
                let independent = extract_cut(&mut i_scratch, &ckg, seeds, depth, &cut);
                assert_eq!(independent, union.subgraphs[b], "cut depth {depth} set {b}");
            }
        }
    }

    /// A cut hub discovered well inside the receptive field keeps its rows
    /// but carries no edges, while the same hub used as a seed keeps its
    /// full slice — the structural rule the hub cache depends on.
    #[test]
    fn cut_hub_carries_no_edges_unless_seeded() {
        let ckg = hub_world();
        let hub = hub_of(&ckg);
        let mut cut = vec![false; ckg.n_entities()];
        cut[hub] = true;
        let mut scratch = SubgraphScratch::new(ckg.n_entities());
        let hub_edges = |sub: &BatchSubgraph, l: usize| {
            let layer = &sub.layers[l];
            let hi = layer.rows.binary_search(&hub).expect("hub is a head");
            layer.heads.iter().filter(|&&h| h == hi).count()
        };

        // Seed a user: the hub is 2 hops away, a head of layer 1 at depth 3.
        let plain = scratch.extract(&ckg, &[0], 3);
        assert!(hub_edges(&plain, 0) > 0, "without a cut the hub carries its slice");

        let cut_sub = extract_cut(&mut scratch, &ckg, &[0], 3, &cut);
        assert_eq!(hub_edges(&cut_sub, 0), 0, "a cut hub carries no edges");
        assert!(
            cut_sub.n_edges() < plain.n_edges(),
            "cutting the hub must shrink the copied edge slices"
        );
        assert!(
            cut_sub.n_nodes() < plain.n_nodes(),
            "nodes reachable only through the hub must disappear"
        );

        // Seeding the hub itself keeps its full slice at every layer.
        let seeded = extract_cut(&mut scratch, &ckg, &[hub], 2, &cut);
        for l in 0..2 {
            assert_eq!(hub_edges(&seeded, l), ckg.offsets[hub + 1] - ckg.offsets[hub]);
        }
    }

    #[test]
    fn extract_cut_with_no_cut_flags_matches_extract() {
        let ckg = world();
        let cut = vec![false; ckg.n_entities()];
        let mut a = SubgraphScratch::new(ckg.n_entities());
        let mut b = SubgraphScratch::new(ckg.n_entities());
        for depth in 0..=3 {
            let plain = a.extract(&ckg, &[0, 5, 0], depth);
            let cutted = extract_cut(&mut b, &ckg, &[0, 5, 0], depth, &cut);
            assert_eq!(plain, cutted, "depth {depth}");
        }
    }

    #[test]
    fn union_scratch_interleaves_with_single_extractions() {
        // The bitmask arrays are lazily cleared via the version stamps, so
        // extract / extract_many calls can alternate on one scratch.
        let ckg = world();
        let mut scratch = SubgraphScratch::new(ckg.n_entities());
        let a = scratch.extract(&ckg, &[0], 2);
        let u1 = scratch.extract_many(&ckg, &[vec![0], vec![2]], 2, None);
        let b = scratch.extract(&ckg, &[0], 2);
        let u2 = scratch.extract_many(&ckg, &[vec![0], vec![2]], 3, None);
        let u3 = scratch.extract_many(&ckg, &[vec![0], vec![2]], 2, None);
        assert_eq!(a, b, "extract after extract_many");
        assert_eq!(u1.subgraphs, u3.subgraphs, "union after a deeper union");
        assert_eq!(u2.subgraphs[1], scratch.extract(&ckg, &[2], 3), "deeper union set 1");
        assert_eq!(a, u1.subgraphs[0], "union vs single");
    }

    #[test]
    #[should_panic(expected = "at most 64 seed sets")]
    fn union_extraction_rejects_too_many_sets() {
        let ckg = world();
        let mut scratch = SubgraphScratch::new(ckg.n_entities());
        let sets: Vec<Vec<usize>> = (0..65).map(|_| vec![0usize]).collect();
        let _ = scratch.extract_many(&ckg, &sets, 2, None);
    }

    #[test]
    fn receptive_field_is_smaller_than_graph_on_sparse_worlds() {
        // A chain graph: each item relates to one attribute; a single
        // user's 2-hop field must not cover everything.
        let mut b = CkgBuilder::new(10, 10);
        let pairs: Vec<(Id, Id)> = (0..10u32).map(|u| (u, u)).collect();
        b.add_interactions(&pairs);
        for i in 0..10u32 {
            b.add_item_attribute(KnowledgeSource::Dkg, "dataType", i, format!("t{i}"));
        }
        let ckg = b.build(SourceMask::all());
        let mut scratch = SubgraphScratch::new(ckg.n_entities());
        let sub = scratch.extract(&ckg, &[0], 2);
        assert!(sub.n_nodes() < ckg.n_entities());
        assert!(sub.n_edges() < ckg.heads.len());
    }
}
