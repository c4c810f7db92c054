//! Property-based tests for CKG construction and sampling invariants.

use facility_kg::sampling::{sample_bpr_batch, sample_kg_batch};
use facility_kg::{CkgBuilder, Id, Interactions, KnowledgeSource, SourceMask, SubgraphScratch};
use facility_linalg::prop::{check, f64_in, vec_of};
use facility_linalg::{seeded_rng, Rng};
use std::collections::HashSet;

const CASES: usize = 256;

#[derive(Debug, Clone)]
struct World {
    n_users: usize,
    n_items: usize,
    interactions: Vec<(Id, Id)>,
    user_user: Vec<(Id, Id)>,
    facts: Vec<(KnowledgeSource, u8, Id, u8)>, // (source, relation#, item, attr#)
}

fn id_below(rng: &mut Rng, n: usize) -> Id {
    rng.gen_range(0..n) as Id
}

fn world(rng: &mut Rng) -> World {
    let (n_users, n_items) = (rng.gen_range(2..8), rng.gen_range(2..10));
    let n_inter = rng.gen_range(1..30);
    let interactions = vec_of(rng, n_inter, |g| (id_below(g, n_users), id_below(g, n_items)));
    let n_uu = rng.gen_range(0..10);
    let user_user = vec_of(rng, n_uu, |g| (id_below(g, n_users), id_below(g, n_users)))
        .into_iter()
        .filter(|(a, b)| a != b)
        .collect();
    let sources = [KnowledgeSource::Loc, KnowledgeSource::Dkg, KnowledgeSource::Md];
    let n_facts = rng.gen_range(0..20);
    let facts = vec_of(rng, n_facts, |g| {
        let src = sources[g.gen_range(0..3)];
        (src, g.gen_range(0..3) as u8, id_below(g, n_items), g.gen_range(0..5) as u8)
    });
    World { n_users, n_items, interactions, user_user, facts }
}

fn build(w: &World, mask: SourceMask) -> facility_kg::Ckg {
    let mut b = CkgBuilder::new(w.n_users, w.n_items);
    b.add_interactions(&w.interactions);
    b.add_user_user(&w.user_user);
    for &(src, rel, item, attr) in &w.facts {
        b.add_item_attribute(src, format!("rel{rel}"), item, format!("attr{attr}"));
    }
    b.build(mask)
}

#[test]
fn csr_is_complete_and_head_sorted() {
    check("csr_is_complete_and_head_sorted", CASES, world, |w| {
        let ckg = build(&w, SourceMask::all_with_noise());
        assert_eq!(*ckg.offsets.last().unwrap(), ckg.n_edges());
        for e in 0..ckg.n_entities() {
            for k in ckg.offsets[e]..ckg.offsets[e + 1] {
                assert_eq!(ckg.heads[k] as usize, e);
            }
        }
    });
}

#[test]
fn inverse_edges_always_exist() {
    check("inverse_edges_always_exist", CASES, world, |w| {
        let ckg = build(&w, SourceMask::all_with_noise());
        let set: HashSet<(Id, Id, Id)> = ckg
            .heads
            .iter()
            .zip(&ckg.rels)
            .zip(&ckg.tails)
            .map(|((&h, &r), &t)| (h, r, t))
            .collect();
        for &(h, r, t) in &set {
            assert!(set.contains(&(t, ckg.inverse_relation(r), h)));
        }
    });
}

#[test]
fn masks_are_monotone_in_entities_and_triples() {
    check("masks_are_monotone_in_entities_and_triples", CASES, world, |w| {
        let uig = build(&w, SourceMask::uig_only());
        let all = build(&w, SourceMask::all());
        let noisy = build(&w, SourceMask::all_with_noise());
        assert!(uig.n_entities() <= all.n_entities());
        assert!(all.n_entities() <= noisy.n_entities());
        assert!(uig.canonical_triples.len() <= all.canonical_triples.len());
        assert!(all.canonical_triples.len() <= noisy.canonical_triples.len());
    });
}

#[test]
fn canonical_triples_are_unique() {
    check("canonical_triples_are_unique", CASES, world, |w| {
        let ckg = build(&w, SourceMask::all_with_noise());
        let set: HashSet<_> = ckg.canonical_triples.iter().collect();
        assert_eq!(set.len(), ckg.canonical_triples.len());
    });
}

#[test]
fn split_partitions_each_users_items() {
    let gen = |g: &mut Rng| (world(g), f64_in(g, 0.0..0.9), g.gen_range(0..50) as u64);
    check("split_partitions_each_users_items", CASES, gen, |(w, frac, seed)| {
        let inter =
            Interactions::split(w.n_users, w.n_items, &w.interactions, frac, &mut seeded_rng(seed));
        for u in 0..w.n_users {
            // Disjoint...
            for &i in &inter.test[u] {
                assert!(!inter.contains_train(u as Id, i));
            }
            // ...and jointly cover the user's unique items.
            let mut all: Vec<Id> = w
                .interactions
                .iter()
                .filter(|&&(uu, _)| uu as usize == u)
                .map(|&(_, i)| i)
                .collect();
            all.sort_unstable();
            all.dedup();
            assert_eq!(inter.train[u].len() + inter.test[u].len(), all.len());
        }
    });
}

#[test]
fn samplers_respect_invariants() {
    let gen = |g: &mut Rng| (world(g), g.gen_range(0..50) as u64);
    check("samplers_respect_invariants", CASES, gen, |(w, seed)| {
        let inter =
            Interactions::split(w.n_users, w.n_items, &w.interactions, 0.2, &mut seeded_rng(seed));
        let ckg = build(&w, SourceMask::all());
        let mut rng = seeded_rng(seed ^ 0xabc);
        for s in sample_bpr_batch(&inter, 64, &mut rng) {
            assert!(inter.contains_train(s.user, s.pos));
        }
        for s in sample_kg_batch(&ckg, 64, &mut rng) {
            assert!(ckg.has_triple(s.head, s.rel, s.tail));
            assert!((s.neg_tail as usize) < ckg.n_entities());
        }
    });
}

/// On *saturated* worlds — tiny entity sets where `(h, r, ·)` is a
/// fact for almost every candidate tail — bounded rejection must skip
/// the irreparable triples rather than emit an invalid corruption.
/// Every emitted sample still satisfies the Eq. 2 invariant.
#[test]
fn kg_sampler_never_emits_facts_even_when_saturated() {
    let gen = |g: &mut Rng| (g.gen_range(1..3), g.gen_range(1..3), g.gen_range(0..100) as u64);
    check("kg_sampler_never_emits_facts", CASES, gen, |(n_users, n_items, seed)| {
        // Fully-connected interactions + every item sharing one attribute:
        // the candidate pool for corrupted tails is nearly exhausted.
        let mut b = CkgBuilder::new(n_users, n_items);
        let pairs: Vec<(Id, Id)> =
            (0..n_users as Id).flat_map(|u| (0..n_items as Id).map(move |i| (u, i))).collect();
        b.add_interactions(&pairs);
        for i in 0..n_items as Id {
            b.add_item_attribute(KnowledgeSource::Dkg, "dataType", i, "shared");
        }
        let ckg = b.build(SourceMask::all());
        let mut rng = seeded_rng(seed);
        let batch = sample_kg_batch(&ckg, 64, &mut rng);
        assert!(batch.len() <= 64);
        for s in &batch {
            assert!(ckg.has_triple(s.head, s.rel, s.tail));
            assert!(
                !ckg.has_triple(s.head, s.rel, s.neg_tail),
                "emitted a corrupted tail that is a fact: {s:?}"
            );
            assert!(s.neg_tail != s.tail, "emitted neg_tail == tail: {s:?}");
        }
    });
}

/// A world plus batch seed sets (raw ids, reduced modulo the entity
/// count; duplicates included), a depth and optional hub-cut flags
/// (`cut[g]` is bit `g % 64` of the mask).
#[derive(Debug, Clone)]
struct FrontierCase {
    world: World,
    seed_sets: Vec<Vec<u32>>,
    depth: usize,
    cut: Option<u64>,
}

fn frontier_case(rng: &mut Rng) -> FrontierCase {
    let world = world(rng);
    let n_sets = rng.gen_range(1..5);
    let seed_sets = vec_of(rng, n_sets, |g| {
        let len = g.gen_range(1..7);
        let mut s = vec_of(g, len, |g| g.next_u64() as u32);
        // A repeated seed, as BPR batches repeat users and items.
        s.push(s[0]);
        s
    });
    let depth = rng.gen_range(0..5);
    let cut = rng.gen_bool(0.5).then(|| rng.next_u64() & rng.next_u64());
    FrontierCase { world, seed_sets, depth, cut }
}

/// The per-layer lists of one seed set as global ids, from plain
/// hop distances: `depth` rounds of relaxation over every edge, where a
/// cut entity relaxes its out-edges only when it is a seed.
/// Returns the closure and, per layer, `(rows, edges as (head, edge id,
/// tail))`.
#[allow(clippy::type_complexity)]
fn brute_force_levels(
    ckg: &facility_kg::Ckg,
    seeds: &[usize],
    depth: usize,
    cut: &dyn Fn(usize) -> bool,
) -> (Vec<usize>, Vec<(Vec<usize>, Vec<(usize, usize, usize)>)>) {
    let expands = |g: usize| !cut(g) || seeds.contains(&g);
    let mut dist = vec![usize::MAX; ckg.n_entities()];
    for &s in seeds {
        dist[s] = 0;
    }
    for _ in 0..depth {
        let before = dist.clone();
        for e in 0..ckg.n_edges() {
            let (h, t) = (ckg.heads[e] as usize, ckg.tails[e] as usize);
            if before[h] != usize::MAX && expands(h) {
                dist[t] = dist[t].min(before[h] + 1);
            }
        }
    }
    let within = |j: usize| -> Vec<usize> { (0..dist.len()).filter(|&g| dist[g] <= j).collect() };
    let layers = (1..=depth)
        .map(|l| {
            let rows = within(depth - l);
            let edges = rows
                .iter()
                .filter(|&&g| expands(g))
                .flat_map(|&g| (ckg.offsets[g]..ckg.offsets[g + 1]).map(move |e| (g, e)))
                .map(|(g, e)| (g, e, ckg.tails[e] as usize))
                .collect();
            (rows, edges)
        })
        .collect();
    (within(depth), layers)
}

/// Extraction's level structure, read back as global ids, must equal the
/// brute-force hop-distance computation: closure, every layer's head set
/// and edge list, and every self, tail and seed position.
fn assert_matches_brute_force(
    ckg: &facility_kg::Ckg,
    sub: &facility_kg::BatchSubgraph,
    seeds: &[usize],
    depth: usize,
    cut: &dyn Fn(usize) -> bool,
) {
    let (closure, layers) = brute_force_levels(ckg, seeds, depth, cut);
    assert_eq!(sub.nodes, closure, "closure");
    assert_eq!(sub.layers.len(), depth, "one list set per layer");
    for (&sl, &s) in sub.seed_locals.iter().zip(seeds) {
        assert_eq!(sub.nodes[sl], s, "seed local");
    }
    let mut prev = &sub.nodes;
    for (l, (layer, (rows, edges))) in sub.layers.iter().zip(&layers).enumerate() {
        assert_eq!(&layer.rows, rows, "layer {} heads", l + 1);
        let got: Vec<(usize, usize, usize)> = (0..layer.edge_ids.len())
            .map(|k| (layer.rows[layer.heads[k]], layer.edge_ids[k], prev[layer.tails[k]]))
            .collect();
        assert_eq!(&got, edges, "layer {} edges", l + 1);
        let selves: Vec<usize> = layer.self_rows.iter().map(|&p| prev[p]).collect();
        assert_eq!(&selves, rows, "layer {} self rows", l + 1);
        for (&p, &s) in layer.seeds.iter().zip(seeds) {
            assert_eq!(layer.rows[p], s, "layer {} seed position", l + 1);
        }
        prev = &layer.rows;
    }
}

#[test]
fn frontier_levels_match_brute_force_hop_distances() {
    check("frontier_levels_match_brute_force", CASES, frontier_case, |case| {
        let ckg = build(&case.world, SourceMask::all_with_noise());
        let n = ckg.n_entities();
        let sets: Vec<Vec<usize>> =
            case.seed_sets.iter().map(|s| s.iter().map(|&g| g as usize % n).collect()).collect();
        let cut_flags: Option<Vec<bool>> =
            case.cut.map(|m| (0..n).map(|g| m >> (g % 64) & 1 == 1).collect());
        let is_cut = |g: usize| cut_flags.as_ref().is_some_and(|c| c[g]);
        let mut scratch = SubgraphScratch::new(n);
        for seeds in &sets {
            let sub = scratch.extract(&ckg, seeds, case.depth);
            assert_matches_brute_force(&ckg, &sub, seeds, case.depth, &|_| false);
        }
        let union = scratch.extract_many(&ckg, &sets, case.depth, cut_flags.as_deref());
        for (seeds, sub) in sets.iter().zip(&union.subgraphs) {
            assert_matches_brute_force(&ckg, sub, seeds, case.depth, &is_cut);
            sub.validate(&ckg, cut_flags.as_deref());
        }
    });
}
