//! Worlds shared by the CKAT differential tests in this directory and,
//! through `test_fixtures`, by the in-crate unit tests. Each including
//! crate uses a subset.
#![allow(dead_code)]

use facility_kg::sampling::sample_bpr_batch;
use facility_kg::{Ckg, CkgBuilder, Id, Interactions, KnowledgeSource, SourceMask};
use facility_linalg::seeded_rng;

/// A small world with obvious structure: items with the same `type`
/// attribute are co-queried, and two user pairs are co-located. 4 users ×
/// 6 items keeps every model's epoch under a millisecond.
pub fn toy_world() -> (Interactions, Ckg) {
    let events: Vec<(Id, Id)> =
        vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 3), (2, 2), (2, 4), (3, 1), (3, 5)];
    let inter = Interactions::split(4, 6, &events, 0.0, &mut seeded_rng(0));
    let mut b = CkgBuilder::new(4, 6);
    b.add_interactions(&inter.train_pairs);
    b.add_user_user(&[(0, 1), (2, 3)]);
    for i in 0..6u32 {
        b.add_item_attribute(KnowledgeSource::Loc, "locatedAt", i, format!("site:{}", i % 2));
        b.add_item_attribute(KnowledgeSource::Dkg, "hasDataType", i, format!("type:{}", i % 3));
    }
    (inter, b.build(SourceMask::all()))
}

/// A sparser world: 30 users with two items each out of 40, ten sites and
/// eight data types, so that a [`SPARSE_BATCH`]-triple batch's closure
/// and every layer's head set are strict subsets of the graph, and head
/// positions differ from entity ids.
pub fn sparse_world() -> (Interactions, Ckg) {
    let events: Vec<(Id, Id)> =
        (0..30u32).flat_map(|u| [(u, (u * 7) % 40), (u, (u * 11 + 3) % 40)]).collect();
    let inter = Interactions::split(30, 40, &events, 0.0, &mut seeded_rng(0));
    let mut b = CkgBuilder::new(30, 40);
    b.add_interactions(&inter.train_pairs);
    b.add_user_user(&[(0, 1), (2, 3), (10, 11)]);
    for i in 0..40u32 {
        b.add_item_attribute(KnowledgeSource::Loc, "locatedAt", i, format!("site:{}", i % 10));
        b.add_item_attribute(KnowledgeSource::Dkg, "hasDataType", i, format!("type:{}", i % 8));
    }
    (inter, b.build(SourceMask::all()))
}

/// The batch size at which [`sparse_world`]'s frontiers shrink.
pub const SPARSE_BATCH: usize = 4;

/// Assert that the frontiers matter on `sparse_world`: a sampled
/// [`SPARSE_BATCH`]-triple batch's 3-layer closure is not the whole graph,
/// and every layer computes fewer rows than the closure holds.
pub fn assert_sparse_frontiers_shrink(inter: &Interactions, ckg: &Ckg) {
    let bpr = sample_bpr_batch(inter, SPARSE_BATCH, &mut seeded_rng(1));
    let mut seeds: Vec<usize> = bpr.iter().map(|x| x.user as usize).collect();
    seeds.extend(bpr.iter().map(|x| ckg.item_entity(x.pos)));
    seeds.extend(bpr.iter().map(|x| ckg.item_entity(x.neg)));
    let sub = facility_kg::SubgraphScratch::new(ckg.n_entities()).extract(ckg, &seeds, 3);
    assert!(sub.n_nodes() < ckg.n_entities(), "the closure covers the graph");
    assert!(sub.layers.iter().all(|l| l.rows.len() < sub.n_nodes()), "a layer computes every row");
}
