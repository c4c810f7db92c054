//! Attention ablation on a noise-injected knowledge graph — the mechanism
//! behind Table IV: knowledge-aware attention lets CKAT down-weight
//! irrelevant (MD, metadata) edges that uniform aggregation must average
//! in.
//!
//! ```sh
//! cargo run --release --example ablation_attention
//! ```

use facility_kgrec::ckat::{Experiment, ExperimentConfig};
use facility_kgrec::datagen::FacilityConfig;
use facility_kgrec::eval::TrainSettings;
use facility_kgrec::kg::SourceMask;
use facility_kgrec::models::ckat::{Aggregator, CkatConfig};
use facility_kgrec::models::ModelConfig;

fn main() {
    let mut facility = FacilityConfig::ooi();
    facility.n_users = 200;
    facility.n_items = 150;
    facility.n_organizations = 16;

    // Include the MD noise source so there is something to down-weight.
    let exp = Experiment::prepare(&ExperimentConfig {
        facility,
        seed: 23,
        mask: SourceMask::all_with_noise(),
        ..ExperimentConfig::default()
    });
    println!("CKG with MD noise:\n{}\n", exp.stats());

    let base = ModelConfig { embed_dim: 32, ..ModelConfig::default() };
    let settings = TrainSettings {
        max_epochs: 25,
        eval_every: 5,
        patience: 2,
        k: 20,
        seed: 5,
        verbose: false,
        ..TrainSettings::default()
    };

    let variants: [(&str, bool, Aggregator); 3] = [
        ("w/  attention + concat", true, Aggregator::Concat),
        ("w/  attention + sum", true, Aggregator::Sum),
        ("w/o attention + concat", false, Aggregator::Concat),
    ];
    println!("variant                  recall@20  ndcg@20");
    println!("-----------------------  ---------  -------");
    for (label, att, agg) in variants {
        let cfg = CkatConfig {
            layer_dims: vec![32, 16, 8],
            use_attention: att,
            aggregator: agg,
            transr_dim: 32,
            margin: 1.0,
            batch_local: true,
            base: base.clone(),
        };
        let report = exp.run_ckat(&cfg, &settings);
        println!("{label:<23}  {:.4}     {:.4}", report.best.recall, report.best.ndcg);
    }
}
