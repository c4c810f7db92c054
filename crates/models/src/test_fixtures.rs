//! Shared fixtures for the per-model unit tests (compiled only under
//! `cfg(test)`).

use crate::Recommender;
use facility_kg::{Ckg, CkgBuilder, Id, Interactions, KnowledgeSource, SourceMask};
use facility_linalg::seeded_rng;

#[path = "../tests/common/mod.rs"]
mod worlds;
pub(crate) use worlds::{assert_sparse_frontiers_shrink, sparse_world, toy_world, SPARSE_BATCH};

/// A slightly larger world where knowledge correlates strongly with
/// interactions: users query items that share a data type. Useful for
/// asserting that knowledge-aware models learn the pattern.
pub(crate) fn structured_world(
    n_users: usize,
    n_items: usize,
    n_types: usize,
    seed: u64,
) -> (Interactions, Ckg) {
    let mut rng = seeded_rng(seed);
    let item_type: Vec<usize> = (0..n_items).map(|i| i % n_types).collect();
    let mut events: Vec<(Id, Id)> = Vec::new();
    for u in 0..n_users {
        let pref = u % n_types;
        let in_type: Vec<Id> =
            (0..n_items as Id).filter(|&i| item_type[i as usize] == pref).collect();
        for _ in 0..6 {
            // 80% on-preference, 20% exploration.
            let i = if rng.gen_f64() < 0.8 {
                in_type[rng.gen_range(0..in_type.len())]
            } else {
                rng.gen_range(0..n_items) as Id
            };
            events.push((u as Id, i));
        }
    }
    let inter = Interactions::split(n_users, n_items, &events, 0.25, &mut rng);
    let mut b = CkgBuilder::new(n_users, n_items);
    b.add_interactions(&inter.train_pairs);
    for i in 0..n_items as Id {
        b.add_item_attribute(
            KnowledgeSource::Dkg,
            "hasDataType",
            i,
            format!("type:{}", item_type[i as usize]),
        );
    }
    (inter.clone(), b.build(SourceMask::all()))
}

/// Training-set AUC: the fraction of (train positive, sampled negative)
/// pairs the model orders correctly. 0.5 is chance.
pub(crate) fn auc(model: &dyn Recommender, inter: &Interactions) -> f64 {
    let mut rng = seeded_rng(999);
    let mut wins = 0usize;
    let mut total = 0usize;
    for u in 0..inter.n_users as Id {
        if inter.train[u as usize].is_empty() {
            continue;
        }
        let scores = model.score_items(u);
        for &i in &inter.train[u as usize] {
            for _ in 0..4 {
                let j = rng.gen_range(0..inter.n_items) as Id;
                if inter.contains_train(u, j) {
                    continue;
                }
                total += 1;
                if scores[i as usize] > scores[j as usize] {
                    wins += 1;
                }
            }
        }
    }
    if total == 0 {
        return 0.5;
    }
    wins as f64 / total as f64
}

/// Held-out AUC on the test split.
pub(crate) fn test_auc(model: &dyn Recommender, inter: &Interactions) -> f64 {
    let mut rng = seeded_rng(998);
    let mut wins = 0usize;
    let mut total = 0usize;
    for u in 0..inter.n_users as Id {
        if inter.test[u as usize].is_empty() {
            continue;
        }
        let scores = model.score_items(u);
        for &i in &inter.test[u as usize] {
            for _ in 0..4 {
                let j = rng.gen_range(0..inter.n_items) as Id;
                if inter.contains_train(u, j) || inter.contains_test(u, j) {
                    continue;
                }
                total += 1;
                if scores[i as usize] > scores[j as usize] {
                    wins += 1;
                }
            }
        }
    }
    if total == 0 {
        return 0.5;
    }
    wins as f64 / total as f64
}
