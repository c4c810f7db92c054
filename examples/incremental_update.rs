//! Incremental CKG updates — addressing the limitation the paper flags in
//! Section VI-F: "when the facility adds new instruments or data objects,
//! the fine-tuning process needs to be repeated."
//!
//! The facility grows (new data objects come online, users start querying
//! them); instead of retraining CKAT from scratch, we rebuild the CKG and
//! *warm-start* from the previous model's embeddings. The demo compares
//! cold vs warm training under the same small epoch budget.
//!
//! ```sh
//! cargo run --release --example incremental_update
//! ```

use facility_kgrec::datagen::{FacilityConfig, Trace};
use facility_kgrec::eval::{evaluate, train, TrainSettings};
use facility_kgrec::kg::SourceMask;
use facility_kgrec::models::ckat::{Aggregator, Ckat, CkatConfig};
use facility_kgrec::models::{ModelConfig, Recommender, TrainContext};
use facility_kgrec::prelude::seeded_rng;

fn ckat_config() -> CkatConfig {
    let base = ModelConfig { embed_dim: 16, keep_prob: 1.0, ..ModelConfig::default() };
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

fn main() {
    // Day 0: the facility as initially deployed.
    let mut cfg0 = FacilityConfig::tiny();
    cfg0.n_users = 100;
    cfg0.n_items = 60;
    let trace0 = Trace::generate(&cfg0, 5);
    let inter0 = trace0.split_interactions(0.2, &mut seeded_rng(5));
    let mut b0 = trace0.ckg_builder(3);
    b0.add_interactions(&inter0.train_pairs);
    let ckg0 = b0.build(SourceMask::all());
    let ctx0 = TrainContext { inter: &inter0, ckg: &ckg0 };

    let mut day0 = Ckat::new(&ctx0, &ckat_config());
    let full = TrainSettings {
        max_epochs: 30,
        eval_every: 5,
        patience: 0,
        k: 10,
        seed: 1,
        verbose: false,
        ..TrainSettings::default()
    };
    let r0 = train(&mut day0, &ctx0, &full);
    println!("day 0: {} entities, recall@10 {:.4}", ckg0.n_entities(), r0.best.recall);

    // Day 1: same population, larger catalog (new deployments), new trace.
    let mut cfg1 = cfg0.clone();
    cfg1.n_items = 80; // 20 new data objects
    let trace1 = Trace::generate(&cfg1, 5); // same seed: same topology prefix
    let inter1 = trace1.split_interactions(0.2, &mut seeded_rng(6));
    let mut b1 = trace1.ckg_builder(3);
    b1.add_interactions(&inter1.train_pairs);
    let ckg1 = b1.build(SourceMask::all());
    let ctx1 = TrainContext { inter: &inter1, ckg: &ckg1 };

    // Entity alignment old → new: users keep their ids; old items keep
    // theirs; attribute entities align by name.
    let mut map: Vec<Option<usize>> = vec![None; ckg1.n_entities()];
    for (u, slot) in map.iter_mut().enumerate().take(ckg1.n_users.min(ckg0.n_users)) {
        *slot = Some(u);
    }
    for i in 0..ckg0.n_items.min(ckg1.n_items) {
        map[ckg1.n_users + i] = Some(ckg0.n_users + i);
    }
    let old_attr_idx: std::collections::HashMap<&str, usize> =
        ckg0.attr_names.iter().enumerate().map(|(a, name)| (name.as_str(), a)).collect();
    for (a, name) in ckg1.attr_names.iter().enumerate() {
        if let Some(&old_a) = old_attr_idx.get(name.as_str()) {
            map[ckg1.n_users + ckg1.n_items + a] = Some(ckg0.n_users + ckg0.n_items + old_a);
        }
    }
    let mapped = map.iter().filter(|m| m.is_some()).count();
    println!(
        "day 1: {} entities ({} aligned to day-0, {} new)",
        ckg1.n_entities(),
        mapped,
        ckg1.n_entities() - mapped
    );

    // Small update budget: 5 epochs.
    let quick = TrainSettings {
        max_epochs: 5,
        eval_every: 5,
        patience: 0,
        k: 10,
        seed: 2,
        verbose: false,
        ..TrainSettings::default()
    };

    let mut cold = Ckat::new(&ctx1, &ckat_config());
    let rc = train(&mut cold, &ctx1, &quick);

    let mut warm = Ckat::new_warm(&ctx1, &ckat_config(), &day0, &map);
    let rw = train(&mut warm, &ctx1, &quick);

    // Also evaluate the un-updated day-0 weights transplanted onto the new
    // graph (zero update epochs).
    let mut transplant = Ckat::new_warm(&ctx1, &ckat_config(), &day0, &map);
    transplant.prepare_eval(&ctx1);
    let rt = evaluate(&transplant, &inter1, 10);

    println!("\nafter the catalog grows (5 update epochs):");
    println!("  transplant only (0 epochs): recall@10 {:.4}", rt.recall);
    println!("  cold start      (5 epochs): recall@10 {:.4}", rc.best.recall);
    println!("  warm start      (5 epochs): recall@10 {:.4}", rw.best.recall);
    println!(
        "\nwarm start recovers {:.0}% of the day-0 quality with a 6x smaller\n\
         epoch budget — the fine-tuning the paper calls out no longer starts\n\
         from zero.",
        100.0 * rw.best.recall / r0.best.recall.max(1e-9)
    );
}
