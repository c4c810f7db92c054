//! Differential test: CKAT's tape-based propagation must match a naive
//! per-entity reference implementation of Eqs. 3, 6, 10 computed with
//! plain loops. This pins the segment-op plumbing (gather → weight →
//! scatter-sum → aggregate → normalize → concat) to the math.

// The reference implementation deliberately uses the paper's index
// notation rather than iterator chains.
#![allow(clippy::needless_range_loop)]

use facility_kg::{CkgBuilder, Id, Interactions, KnowledgeSource, SourceMask};
use facility_linalg::{matrix::dot, ops, seeded_rng, Matrix};
use facility_models::ckat::{Aggregator, Ckat, CkatConfig};
use facility_models::{ModelConfig, Recommender, TrainContext};

fn world() -> (Interactions, facility_kg::Ckg) {
    let events: Vec<(Id, Id)> = vec![(0, 0), (0, 1), (1, 2), (1, 0), (2, 3), (2, 1)];
    let inter = Interactions::split(3, 4, &events, 0.0, &mut seeded_rng(0));
    let mut b = CkgBuilder::new(3, 4);
    b.add_interactions(&inter.train_pairs);
    b.add_user_user(&[(0, 2)]);
    for i in 0..4u32 {
        b.add_item_attribute(KnowledgeSource::Dkg, "hasDataType", i, format!("t{}", i % 2));
    }
    (inter, b.build(SourceMask::all()))
}

/// Naive reference propagation with explicit loops.
fn reference_representations(
    ckg: &facility_kg::Ckg,
    e0: &Matrix,
    att: &[f32],
    layer_w: &[Matrix],
    layer_b: &[Matrix],
    dims: &[usize],
) -> Matrix {
    let n = ckg.n_entities();
    let mut all = e0.clone();
    let mut h = e0.clone();
    for (l, &out_dim) in dims.iter().enumerate() {
        let d = h.cols();
        // e_N[h] = Σ_{edges out of h} att_e · h_prev[tail_e]   (Eq. 3)
        let mut e_n = Matrix::zeros(n, d);
        for ent in 0..n {
            for k in ckg.offsets[ent]..ckg.offsets[ent + 1] {
                let tail = ckg.tails[k] as usize;
                for c in 0..d {
                    e_n[(ent, c)] += att[k] * h[(tail, c)];
                }
            }
        }
        // concat aggregator: LeakyReLU(W [h ‖ e_N] + b)   (Eq. 6)
        let mut next = Matrix::zeros(n, out_dim);
        for ent in 0..n {
            for c in 0..out_dim {
                let mut acc = layer_b[l][(0, c)];
                for k in 0..d {
                    acc += h[(ent, k)] * layer_w[l][(k, c)];
                    acc += e_n[(ent, k)] * layer_w[l][(d + k, c)];
                }
                next[(ent, c)] = ops::leaky_relu(acc);
            }
        }
        // Per-layer L2 normalization.
        next.normalize_rows();
        all = all.concat_cols(&next);
        h = next;
    }
    all
}

#[test]
fn tape_propagation_matches_naive_reference() {
    let (inter, ckg) = world();
    let ctx = TrainContext { inter: &inter, ckg: &ckg };
    let dims = vec![6usize, 3];
    let base = ModelConfig { embed_dim: 6, keep_prob: 1.0, ..ModelConfig::fast() };
    let config = CkatConfig {
        layer_dims: dims.clone(),
        use_attention: true,
        aggregator: Aggregator::Concat,
        transr_dim: 6,
        margin: 1.0,
        batch_local: true,
        base,
    };
    let mut model = Ckat::new(&ctx, &config);
    // One epoch to get non-trivial (trained) parameters + fresh attention.
    let mut rng = seeded_rng(1);
    model.train_epoch(&ctx, &mut rng);
    model.prepare_eval(&ctx);

    let tape_reps = model.entity_representations();
    let att = model.attention_weights().to_vec();
    assert_eq!(att.len(), ckg.n_edges());

    // Recover the raw parameters through the public debug surface: the
    // first `embed_dim` columns of the representations are e0 itself.
    let e0_cols: Vec<usize> = (0..6).collect();
    let mut e0 = Matrix::zeros(ckg.n_entities(), 6);
    for r in 0..ckg.n_entities() {
        for &c in &e0_cols {
            e0[(r, c)] = tape_reps[(r, c)];
        }
    }
    let (layer_w, layer_b) = model.layer_parameters();
    let reference = reference_representations(&ckg, &e0, &att, &layer_w, &layer_b, &dims);

    assert_eq!(reference.shape(), tape_reps.shape());
    for r in 0..reference.rows() {
        for c in 0..reference.cols() {
            let (a, b) = (reference[(r, c)], tape_reps[(r, c)]);
            assert!((a - b).abs() < 1e-4, "mismatch at ({r},{c}): reference {a} vs tape {b}");
        }
    }

    // Sanity: scores derived from the representations match score_items.
    let scores = model.score_items(0);
    for i in 0..inter.n_items {
        let manual =
            dot(tape_reps.row(ckg.user_entity(0)), tape_reps.row(ckg.item_entity(i as Id)));
        assert!((scores[i] - manual).abs() < 1e-4);
    }
}
