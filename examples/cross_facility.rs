//! Cross-facility discovery — the extension the paper sketches but does
//! not evaluate (Section IV: "Using entity alignment, KGs from multiple
//! facilities can be consolidated. This can potentially enable
//! recommendations across multiple facilities.").
//!
//! Two facilities are simulated, their CKGs are merged by entity
//! alignment on the shared *discipline* vocabulary, and a single CKAT is
//! trained over the union. The payoff: a user who has only ever queried
//! facility A receives ranked recommendations for facility B's data
//! objects, connected through shared disciplines.
//!
//! ```sh
//! cargo run --release --example cross_facility
//! ```

use facility_kgrec::datagen::{FacilityConfig, Trace};
use facility_kgrec::eval::{train, TrainSettings};
use facility_kgrec::kg::{CkgBuilder, Id, Interactions, KnowledgeSource, SourceMask};
use facility_kgrec::models::ckat::{Aggregator, Ckat, CkatConfig};
use facility_kgrec::models::{ModelConfig, Recommender, TrainContext};
use facility_kgrec::prelude::seeded_rng;

fn small(name: &str, seed_types: usize) -> FacilityConfig {
    let mut c = FacilityConfig::tiny();
    c.name = name.into();
    c.n_users = 80;
    c.n_items = 60;
    c.n_data_types = seed_types;
    c.n_disciplines = 3;
    c
}

fn main() {
    // Two facilities with different data types but an overlapping
    // discipline space (types map to disciplines round-robin, so both
    // facilities produce data in disciplines 0..3).
    let trace_a = Trace::generate(&small("ocean", 6), 1);
    let trace_b = Trace::generate(&small("geo", 9), 2);
    let (ua, ia) = (trace_a.population.n_users(), trace_a.catalog.n_items());
    let (ub, ib) = (trace_b.population.n_users(), trace_b.catalog.n_items());

    // Merge by entity alignment: users and items get disjoint id ranges;
    // attribute entities are aligned *by name*, and we namespace
    // facility-local attributes while leaving the shared discipline
    // vocabulary un-namespaced — that is the alignment seam.
    let n_users = ua + ub;
    let n_items = ia + ib;
    let mut b = CkgBuilder::new(n_users, n_items);

    let mut rng = seeded_rng(3);
    let inter_a = trace_a.split_interactions(0.2, &mut rng);
    let inter_b = trace_b.split_interactions(0.2, &mut rng);

    let mut train_lists: Vec<Vec<Id>> = Vec::with_capacity(n_users);
    let mut test_lists: Vec<Vec<Id>> = Vec::with_capacity(n_users);
    for u in 0..ua {
        train_lists.push(inter_a.train[u].clone());
        test_lists.push(inter_a.test[u].clone());
    }
    for u in 0..ub {
        train_lists.push(inter_b.train[u].iter().map(|&i| i + ia as Id).collect());
        test_lists.push(inter_b.test[u].iter().map(|&i| i + ia as Id).collect());
    }
    let inter = Interactions::from_lists(n_items, train_lists, test_lists);
    b.add_interactions(&inter.train_pairs);

    for (prefix, trace, item_off) in [("A", &trace_a, 0), ("B", &trace_b, ia)] {
        for (i, item) in trace.catalog.items.iter().enumerate() {
            let gid = (i + item_off) as Id;
            // Facility-local site knowledge (namespaced).
            b.add_item_attribute(
                KnowledgeSource::Loc,
                "locatedAt",
                gid,
                format!("{prefix}:site:{}", item.site),
            );
            // Facility-local data type...
            b.add_item_attribute(
                KnowledgeSource::Dkg,
                "hasDataType",
                gid,
                format!("{prefix}:type:{}", item.data_type),
            );
        }
        // ...bridged into the SHARED discipline vocabulary.
        for (ty, &disc) in trace.catalog.type_discipline.iter().enumerate() {
            b.add_attribute_attribute(
                KnowledgeSource::Dkg,
                "dataDiscipline",
                format!("{prefix}:type:{ty}"),
                format!("disc:{disc}"), // no prefix: aligned across facilities
            );
        }
    }
    let ckg = b.build(SourceMask::all());
    println!("Merged cross-facility CKG:\n{}\n", facility_kgrec::kg::CkgStats::of(&ckg));

    // Train one CKAT over the union.
    let base = ModelConfig { embed_dim: 16, keep_prob: 1.0, ..ModelConfig::default() };
    let config = CkatConfig {
        layer_dims: vec![16, 8],
        use_attention: true,
        aggregator: Aggregator::Concat,
        transr_dim: 16,
        margin: 1.0,
        batch_local: true,
        base,
    };
    let ctx = TrainContext { inter: &inter, ckg: &ckg };
    let mut model = Ckat::new(&ctx, &config);
    let settings = TrainSettings {
        max_epochs: 20,
        eval_every: 5,
        patience: 0,
        k: 10,
        seed: 4,
        verbose: true,
        ..TrainSettings::default()
    };
    let report = train(&mut model, &ctx, &settings);
    println!(
        "\nUnified model: recall@10 {:.4}, ndcg@10 {:.4}",
        report.best.recall, report.best.ndcg
    );

    // Cross-facility payoff: rank facility-B items for a facility-A user.
    model.prepare_eval(&ctx);
    let user = 0u32; // a facility-A user
    let scores = model.score_items(user);
    let mut b_items: Vec<(usize, f32)> = (ia..n_items).map(|i| (i, scores[i])).collect();
    b_items.sort_unstable_by(|x, y| y.1.partial_cmp(&x.1).unwrap());
    println!("\nTop-5 facility-B data objects for facility-A user {user}:");
    for (gid, score) in b_items.into_iter().take(5) {
        let local = gid - ia;
        let m = &trace_b.catalog.items[local];
        println!(
            "  B item {local:3}  score {score:6.3}  type {} discipline {}",
            m.data_type, m.discipline
        );
    }
    println!(
        "\nThe A-user's discipline profile flows through the shared `disc:*`\n\
         entities into facility B's catalog — no A-user ever queried B."
    );
}
