//! Differential test: CKAT's batch-local subgraph propagation against the
//! full-graph oracle.
//!
//! The subgraph engine (`facility_kg::SubgraphScratch`) lists each
//! layer's head rows sorted by global id and copies their full CSR edge
//! slices, so per-segment message sums and backward scatter-adds
//! accumulate in the same float order as full-graph propagation, and
//! dropout masks are keyed by entity id, not by row position. The two
//! modes must therefore produce *identical* training trajectories — same
//! per-epoch losses, same parameters, same final representations — not
//! merely close ones, with dropout on or off.

mod common;

use common::{assert_sparse_frontiers_shrink, sparse_world, toy_world, SPARSE_BATCH};
use facility_kg::sampling::sample_bpr_batch;
use facility_kg::SubgraphScratch;
use facility_linalg::seeded_rng;
use facility_models::ckat::{Aggregator, Ckat, CkatConfig};
use facility_models::{ModelConfig, Recommender, TrainContext};

fn config(layer_dims: Vec<usize>, aggregator: Aggregator, batch_local: bool) -> CkatConfig {
    dropout_config(layer_dims, aggregator, batch_local, 1.0)
}

fn dropout_config(
    layer_dims: Vec<usize>,
    aggregator: Aggregator,
    batch_local: bool,
    keep_prob: f32,
) -> CkatConfig {
    let mut base = ModelConfig::fast();
    base.keep_prob = keep_prob;
    CkatConfig {
        layer_dims,
        use_attention: true,
        aggregator,
        transr_dim: 16,
        margin: 1.0,
        batch_local,
        base,
    }
}

/// Train both modes side by side and compare losses epoch by epoch, then
/// the final representations element by element.
fn assert_modes_match(layer_dims: Vec<usize>, aggregator: Aggregator) {
    let (inter, ckg) = toy_world();
    let ctx = TrainContext { inter: &inter, ckg: &ckg };
    let mut local = Ckat::new(&ctx, &config(layer_dims.clone(), aggregator, true));
    let mut full = Ckat::new(&ctx, &config(layer_dims, aggregator, false));
    let mut rng_local = seeded_rng(42);
    let mut rng_full = seeded_rng(42);

    for epoch in 0..2 {
        let l_local = local.train_epoch(&ctx, &mut rng_local);
        let l_full = full.train_epoch(&ctx, &mut rng_full);
        assert!(
            (l_local - l_full).abs() < 1e-4,
            "epoch {epoch}: batch-local loss {l_local} != full-graph loss {l_full}"
        );
    }

    local.prepare_eval(&ctx);
    full.prepare_eval(&ctx);
    let reps_local = local.entity_representations();
    let reps_full = full.entity_representations();
    assert_eq!(reps_local.shape(), reps_full.shape());
    for r in 0..reps_local.rows() {
        for c in 0..reps_local.cols() {
            let (a, b) = (reps_local[(r, c)], reps_full[(r, c)]);
            assert!(
                (a - b).abs() < 1e-4,
                "representation mismatch at ({r},{c}): batch-local {a} vs full {b}"
            );
        }
    }
}

#[test]
fn losses_and_representations_match_at_depth_two() {
    assert_modes_match(vec![16, 8], Aggregator::Concat);
}

#[test]
fn losses_and_representations_match_at_depth_one_and_three() {
    assert_modes_match(vec![16], Aggregator::Concat);
    assert_modes_match(vec![16, 8, 4], Aggregator::Concat);
}

#[test]
fn losses_and_representations_match_with_sum_aggregator() {
    assert_modes_match(vec![16, 8], Aggregator::Sum);
}

/// Macro-step union extraction is an optimization, not a semantic change:
/// for every macro width the per-batch subgraphs derived from one
/// `extract_many` traversal must be **bitwise identical** — same rows,
/// same per-layer edge lists, same seed positions — to independent
/// `extract` calls on realistically sampled batch seed sets.
#[test]
fn union_extraction_matches_independent_extraction_at_all_widths() {
    let (inter, ckg) = toy_world();
    let depth = 2;
    let mut union_scratch = SubgraphScratch::new(ckg.n_entities());
    let mut solo_scratch = SubgraphScratch::new(ckg.n_entities());
    let mut rng = seeded_rng(99);
    for width in [1usize, 2, 4, 8] {
        let seed_sets: Vec<Vec<usize>> = (0..width)
            .map(|_| {
                let bpr = sample_bpr_batch(&inter, 4, &mut rng);
                let mut s: Vec<usize> = bpr.iter().map(|x| x.user as usize).collect();
                s.extend(bpr.iter().map(|x| ckg.item_entity(x.pos)));
                s.extend(bpr.iter().map(|x| ckg.item_entity(x.neg)));
                s
            })
            .collect();
        let union = union_scratch.extract_many(&ckg, &seed_sets, depth);
        assert_eq!(union.subgraphs.len(), width);
        for (b, seeds) in seed_sets.iter().enumerate() {
            let solo = solo_scratch.extract(&ckg, seeds, depth);
            assert_eq!(union.subgraphs[b], solo, "width {width}, batch {b}");
        }
    }
}

/// The equivalence is in fact bitwise, not merely within tolerance: the
/// subgraph preserves the exact accumulation order of every float sum
/// that reaches the loss, and Adam sees an identical dense gradient.
#[test]
fn two_epoch_trajectories_are_bitwise_identical() {
    let (inter, ckg) = toy_world();
    let ctx = TrainContext { inter: &inter, ckg: &ckg };
    let mut local = Ckat::new(&ctx, &config(vec![16, 8], Aggregator::Concat, true));
    let mut full = Ckat::new(&ctx, &config(vec![16, 8], Aggregator::Concat, false));
    let mut rng_local = seeded_rng(7);
    let mut rng_full = seeded_rng(7);
    for _ in 0..2 {
        let a = local.train_epoch(&ctx, &mut rng_local);
        let b = full.train_epoch(&ctx, &mut rng_full);
        assert_eq!(a.to_bits(), b.to_bits(), "losses diverged");
    }
    local.prepare_eval(&ctx);
    full.prepare_eval(&ctx);
    let ra = local.entity_representations();
    let rb = full.entity_representations();
    for (x, y) in ra.as_slice().iter().zip(rb.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits(), "representations diverged");
    }
}

fn sparse_config(dims: Vec<usize>, aggregator: Aggregator, local: bool, keep: f32) -> CkatConfig {
    let mut cfg = dropout_config(dims, aggregator, local, keep);
    cfg.base.batch_size = SPARSE_BATCH;
    cfg
}

/// Under dropout the bits still agree: every mask element is a function of
/// the micro-batch's key, the layer, the entity and the column, never of
/// which rows share the tape, so the batch-local frontier and the
/// full-graph oracle drop the same elements — for both aggregators and
/// every depth, over two epochs, in the losses and in every parameter.
#[test]
fn trajectories_are_bitwise_identical_under_dropout() {
    let (inter, ckg) = sparse_world();
    let ctx = TrainContext { inter: &inter, ckg: &ckg };
    // The frontiers must matter: a batch's layers compute fewer rows than
    // its closure holds, and the closure is not the whole graph.
    assert_sparse_frontiers_shrink(&inter, &ckg);

    for aggregator in [Aggregator::Concat, Aggregator::Sum] {
        for dims in [vec![16], vec![16, 8], vec![16, 8, 4]] {
            let what = format!("{aggregator:?} depth {}", dims.len());
            let mut local = Ckat::new(&ctx, &sparse_config(dims.clone(), aggregator, true, 0.8));
            let mut full = Ckat::new(&ctx, &sparse_config(dims, aggregator, false, 0.8));
            let mut rng_local = seeded_rng(5);
            let mut rng_full = seeded_rng(5);
            for epoch in 0..2 {
                let a = local.train_epoch(&ctx, &mut rng_local);
                let b = full.train_epoch(&ctx, &mut rng_full);
                assert_eq!(a.to_bits(), b.to_bits(), "{what}: epoch {epoch} losses diverged");
            }
            let (pa, pb) = (local.save_state().params, full.save_state().params);
            assert_eq!(pa.len(), pb.len());
            for ((name, x), (_, y)) in pa.iter().zip(&pb) {
                let bits = |m: &facility_linalg::Matrix| -> Vec<u32> {
                    m.as_slice().iter().map(|v| v.to_bits()).collect()
                };
                assert_eq!(bits(x), bits(y), "{what}: parameter {name} diverged");
            }
        }
    }
}

/// Dropout is live in the cases above: the same run without it takes
/// another trajectory.
#[test]
fn dropout_moves_the_trajectory() {
    let (inter, ckg) = sparse_world();
    let ctx = TrainContext { inter: &inter, ckg: &ckg };
    let dims = vec![16, 8];
    let mut dropped = Ckat::new(&ctx, &sparse_config(dims.clone(), Aggregator::Concat, true, 0.8));
    let mut plain = Ckat::new(&ctx, &sparse_config(dims, Aggregator::Concat, true, 1.0));
    let a = dropped.train_epoch(&ctx, &mut seeded_rng(5));
    let b = plain.train_epoch(&ctx, &mut seeded_rng(5));
    assert_ne!(a.to_bits(), b.to_bits());
}
