//! Shape tests: qualitative claims of the paper's evaluation, asserted
//! with slack on small (fast) synthetic worlds. These are the
//! *integration-level* counterparts of the full table regenerations in
//! `facility-bench`.

use facility_kgrec::ckat::{Experiment, ExperimentConfig};
use facility_kgrec::datagen::{stats, FacilityConfig, Trace};
use facility_kgrec::eval::TrainSettings;
use facility_kgrec::kg::SourceMask;
use facility_kgrec::models::ckat::{Aggregator, CkatConfig};
use facility_kgrec::models::{ModelConfig, ModelKind};

/// A small facility with strong affinity structure so knowledge helps.
fn facility() -> FacilityConfig {
    let mut c = FacilityConfig::tiny();
    c.n_users = 120;
    c.n_items = 80;
    c.n_data_types = 8;
    c.n_sites = 9;
    c.locality_affinity = 0.5;
    c.datatype_affinity = 0.6;
    c
}

fn settings() -> TrainSettings {
    TrainSettings {
        max_epochs: 20,
        eval_every: 5,
        patience: 0,
        k: 10,
        seed: 3,
        verbose: false,
        ..TrainSettings::default()
    }
}

fn cfg() -> ModelConfig {
    ModelConfig { embed_dim: 16, batch_size: 256, keep_prob: 1.0, ..ModelConfig::default() }
}

fn ckat_cfg() -> CkatConfig {
    CkatConfig {
        layer_dims: vec![16, 8],
        use_attention: true,
        aggregator: Aggregator::Concat,
        transr_dim: 16,
        margin: 1.0,
        batch_local: true,
        base: cfg(),
    }
}

/// Table II shape: the propagation model with knowledge beats plain MF.
#[test]
fn ckat_beats_bprmf() {
    let exp = Experiment::prepare(&ExperimentConfig {
        facility: facility(),
        seed: 9,
        ..ExperimentConfig::default()
    });
    let bpr = exp.run_model(ModelKind::Bprmf, &cfg(), &settings());
    let ckat = exp.run_model(ModelKind::Ckat, &cfg(), &settings());
    assert!(
        ckat.best.recall > bpr.best.recall * 0.95,
        "CKAT {:.4} should not trail BPRMF {:.4}",
        ckat.best.recall,
        bpr.best.recall
    );
}

/// Table III shape: the full knowledge combination beats interactions
/// alone (with slack — small worlds are noisy).
#[test]
fn full_knowledge_beats_uig_only() {
    let exp = Experiment::prepare(&ExperimentConfig {
        facility: facility(),
        seed: 10,
        ..ExperimentConfig::default()
    });
    let full = exp.run_ckat(&ckat_cfg(), &settings());
    let uig = exp.with_mask(SourceMask::uig_only()).run_ckat(&ckat_cfg(), &settings());
    assert!(
        full.best.recall > uig.best.recall * 0.9,
        "full CKG {:.4} vs UIG-only {:.4}",
        full.best.recall,
        uig.best.recall
    );
}

/// Figure 5 shape: same-city pairs agree far more often than random pairs.
#[test]
fn same_city_pairs_share_patterns() {
    let trace = Trace::generate(&FacilityConfig::ooi(), 4);
    let pa = stats::pair_affinity(&trace, 4000, &mut facility_kgrec::prelude::seeded_rng(5));
    assert!(pa.region_ratio() > 2.0, "locality ratio {:.2}", pa.region_ratio());
    assert!(pa.type_ratio() > 1.5, "domain ratio {:.2}", pa.type_ratio());
}

/// Section III-B2 shape: the measured affinity shares track the configured
/// affinities (the paper's 43.1% / 51.6% calibration).
#[test]
fn affinity_shares_are_calibrated() {
    let trace = Trace::generate(&FacilityConfig::ooi(), 6);
    let (region_share, type_share) = stats::affinity_shares(&trace);
    // Modal-region share must be at least the direct locality draw rate
    // and well below 1 (queries do explore).
    assert!(
        (0.35..0.95).contains(&region_share),
        "region share {region_share} out of calibrated band"
    );
    assert!((0.4..0.98).contains(&type_share), "type share {type_share} out of band");
}

/// Figure 3 shape: per-user activity is heavy-tailed — the most active
/// user dwarfs the median.
#[test]
fn activity_distribution_is_heavy_tailed() {
    let trace = Trace::generate(&FacilityConfig::ooi(), 7);
    let s = stats::fig3_series(&trace);
    let max = s.data_objects[0];
    let median = s.data_objects[s.data_objects.len() / 2];
    assert!(max >= 5 * median.max(1), "max {max} median {median}");
}

/// Table V shape: depth-2/3 should not lose badly to depth-1; high-order
/// connectivity carries signal in an attribute-structured world.
#[test]
fn deeper_propagation_is_not_worse() {
    let exp = Experiment::prepare(&ExperimentConfig {
        facility: facility(),
        seed: 12,
        ..ExperimentConfig::default()
    });
    let mut shallow_cfg = ckat_cfg();
    shallow_cfg.layer_dims = vec![16];
    let shallow = exp.run_ckat(&shallow_cfg, &settings());
    let deep = exp.run_ckat(&ckat_cfg(), &settings());
    assert!(
        deep.best.recall > shallow.best.recall * 0.85,
        "depth-2 {:.4} collapsed vs depth-1 {:.4}",
        deep.best.recall,
        shallow.best.recall
    );
}
