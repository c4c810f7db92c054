//! Differential tests for deterministic data-parallel replica training.
//!
//! The replica macro-step has a **fixed width** (`MACRO_WIDTH`
//! micro-batches per optimizer step) and per-batch RNG streams, so the
//! gradient schedule is a pure function of the seed: the `--replicas`
//! value only picks how many threads execute it. `R = 1` runs the exact
//! schedule inline on the calling thread (no spawns) — it *is* the
//! single-threaded reference — and every `R ≥ 2` must reproduce it
//! bitwise: same per-epoch losses, same final parameters, dropout on or
//! off.

mod common;

use common::{assert_sparse_frontiers_shrink, sparse_world, toy_world, SPARSE_BATCH};
use facility_kg::{Ckg, Interactions};
use facility_linalg::seeded_rng;
use facility_models::bprmf::Bprmf;
use facility_models::cfkg::Cfkg;
use facility_models::ckat::{Aggregator, Ckat, CkatConfig};
use facility_models::{ModelConfig, Recommender, TrainContext};

fn base_config(replicas: usize, keep_prob: f32) -> ModelConfig {
    let mut base = ModelConfig::fast();
    base.batch_size = 4; // several macro-steps per epoch on the toy world
    base.keep_prob = keep_prob;
    base.replicas = replicas;
    base
}

fn ckat_config(replicas: usize, keep_prob: f32) -> CkatConfig {
    CkatConfig {
        layer_dims: vec![16, 8],
        use_attention: true,
        aggregator: Aggregator::Concat,
        transr_dim: 16,
        margin: 1.0,
        batch_local: true,
        base: base_config(replicas, keep_prob),
    }
}

fn assert_states_bitwise(a: &dyn Recommender, b: &dyn Recommender, what: &str) {
    let (sa, sb) = (a.save_state(), b.save_state());
    assert_eq!(sa.params.len(), sb.params.len(), "{what}: param count");
    for ((na, ma), (nb, mb)) in sa.params.iter().zip(&sb.params) {
        assert_eq!(na, nb, "{what}: param order");
        assert_eq!(ma.shape(), mb.shape(), "{what}: `{na}` shape");
        for (idx, (x, y)) in ma.as_slice().iter().zip(mb.as_slice()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: `{na}` scalar {idx} differs: {x} vs {y}");
        }
    }
}

/// Train the same model on `world` under every replica count and demand
/// identical loss trajectories and final parameters. `R = 1` is the
/// serial reference (inline execution, no worker threads), so this
/// subsumes both "R=1 matches the single-threaded path" and "every count
/// in `others` matches it".
fn assert_replica_counts_match<M, F>(
    (inter, ckg): (Interactions, Ckg),
    others: &[usize],
    build: F,
    epochs: usize,
    what: &str,
) where
    M: Recommender,
    F: Fn(&TrainContext<'_>, usize) -> M,
{
    let ctx = TrainContext { inter: &inter, ckg: &ckg };
    let mut reference = build(&ctx, 1);
    let mut ref_losses = Vec::new();
    let mut rng = seeded_rng(42);
    for _ in 0..epochs {
        ref_losses.push(reference.train_epoch(&ctx, &mut rng));
    }
    for &replicas in others {
        let mut model = build(&ctx, replicas);
        let mut rng = seeded_rng(42);
        for (epoch, &ref_loss) in ref_losses.iter().enumerate() {
            let loss = model.train_epoch(&ctx, &mut rng);
            assert_eq!(
                loss.to_bits(),
                ref_loss.to_bits(),
                "{what}: epoch {epoch} loss diverged at R={replicas}: {loss} vs {ref_loss}"
            );
        }
        assert_states_bitwise(&reference, &model, &format!("{what} R={replicas}"));
    }
}

#[test]
fn ckat_replica_counts_produce_identical_runs() {
    assert_replica_counts_match(
        toy_world(),
        &[2, 4, 8],
        |ctx, r| Ckat::new(ctx, &ckat_config(r, 1.0)),
        3,
        "CKAT (no dropout)",
    );
}

/// Dropout draws come from each batch's private stream, so the replica
/// schedule stays thread-count-invariant even with dropout *on* — a
/// property the legacy shared-stream path never had.
#[test]
fn ckat_replica_counts_match_with_dropout_on() {
    assert_replica_counts_match(
        toy_world(),
        &[2, 4, 8],
        |ctx, r| Ckat::new(ctx, &ckat_config(r, 0.7)),
        3,
        "CKAT (dropout 0.7)",
    );
}

/// On a world where the frontiers shrink — each micro-batch's closure is
/// a strict subset of the graph and every layer computes fewer rows than
/// the closure — the union extraction derives genuinely different
/// subgraphs per micro-batch, and runs must still be bitwise identical
/// across replica counts with dropout on.
#[test]
fn ckat_replica_counts_match_on_a_sparse_world_with_dropout() {
    let (inter, ckg) = sparse_world();
    assert_sparse_frontiers_shrink(&inter, &ckg);
    assert_replica_counts_match(
        (inter, ckg),
        &[2, 4],
        |ctx, r| {
            let mut cfg = ckat_config(r, 0.8);
            cfg.layer_dims = vec![16, 8, 4];
            cfg.base.batch_size = SPARSE_BATCH;
            Ckat::new(ctx, &cfg)
        },
        2,
        "CKAT (sparse world, dropout 0.8)",
    );
}

#[test]
fn bprmf_replica_counts_produce_identical_runs() {
    let build = |ctx: &TrainContext<'_>, r| Bprmf::new(ctx, &base_config(r, 1.0));
    assert_replica_counts_match(toy_world(), &[2, 4, 8], build, 4, "BPRMF");
}

#[test]
fn cfkg_replica_counts_produce_identical_runs() {
    let build = |ctx: &TrainContext<'_>, r| Cfkg::new(ctx, &base_config(r, 1.0));
    assert_replica_counts_match(toy_world(), &[2, 4, 8], build, 4, "CFKG");
}

/// The replica path must actually train, not just be self-consistent.
#[test]
fn ckat_replica_mode_learns() {
    let (inter, ckg) = toy_world();
    let ctx = TrainContext { inter: &inter, ckg: &ckg };
    let mut model = Ckat::new(&ctx, &ckat_config(2, 1.0));
    let mut rng = seeded_rng(7);
    let first = model.train_epoch(&ctx, &mut rng);
    let mut last = first;
    for _ in 0..30 {
        last = model.train_epoch(&ctx, &mut rng);
    }
    assert!(last < first, "replica-mode CKAT loss should fall: {first} -> {last}");
    assert!(model.replicas() == 2, "model reports its replica count");
}

/// The profile in replica mode reports the corrected accounting: union
/// extraction charged to both aggregate CPU (`extract_ns`) and the
/// critical path (`extract_wall_ns`), no phantom `extract_wait_ns` (the
/// old prepare-phase barrier misattribution), the fold time, the wall
/// clock, and the replica count.
#[test]
fn replica_profile_reports_pool_accounting() {
    let (inter, ckg) = toy_world();
    let ctx = TrainContext { inter: &inter, ckg: &ckg };
    let mut model = Ckat::new(&ctx, &ckat_config(4, 1.0));
    let mut rng = seeded_rng(9);
    model.train_epoch(&ctx, &mut rng);
    let prof = model.take_epoch_profile().expect("profile recorded");
    assert_eq!(prof.replicas, 4);
    assert!(prof.batches >= 1);
    assert!(prof.extract_ns > 0, "aggregate extraction CPU recorded");
    assert!(prof.extract_wall_ns > 0, "union extraction sits on the critical path");
    assert_eq!(
        prof.extract_wait_ns, 0,
        "replica mode never blocks on a prefetch channel — the old \
         prepare-barrier misattribution must stay gone"
    );
    assert!(prof.wall_ns > 0, "wall clock stamped");
    assert!(prof.gathered_rows <= prof.full_rows);

    // The legacy path stamps wall_ns too, and reports replicas = 0.
    let mut legacy = Ckat::new(&ctx, &ckat_config(0, 1.0));
    legacy.train_epoch(&ctx, &mut rng);
    let lprof = legacy.take_epoch_profile().expect("profile recorded");
    assert_eq!(lprof.replicas, 0);
    assert!(lprof.wall_ns > 0);
    // Time the training loop spends blocked on the prefetch channel is
    // split: the share covered by extraction CPU is critical-path wall
    // (the old reading pinned this at 0 even when the worker could not
    // keep up), anything beyond it stays wait.
    assert!(
        lprof.extract_wall_ns <= lprof.extract_ns,
        "critical-path share is capped by extraction CPU"
    );
    assert_eq!(lprof.reduce_ns, 0, "no fold step on the per-batch path");
}
