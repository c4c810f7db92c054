#![warn(missing_docs)]

//! # facility-bench
//!
//! The experiment harness: one binary per table/figure of the paper
//! (`table1` … `table5`, `fig3` … `fig5`) plus profiling binaries
//! (`epoch_profile`, `kernel_bench`, `topk_bench`).
//!
//! Every binary accepts:
//!
//! * `--fast` — smaller embeddings, fewer epochs, scaled-down facilities;
//!   finishes in seconds and preserves the qualitative shape.
//! * `--paper` — the paper's hyperparameters (embedding 64, layer dims
//!   `[64,32,16]`, batch 512) on the full-scale synthetic facilities.
//!   This is the profile used for the numbers in `EXPERIMENTS.md`.
//! * `--huge` — a single ~106k-entity stress facility for profiling the
//!   sparse/lazy training path (see `FacilityConfig::huge`); not a paper
//!   reproduction profile.
//! * `--seed N` — change the simulation/training seed.
//! * `--epochs N` — override the epoch count of binaries that honor it
//!   (currently `epoch_profile`).
//! * `--replicas N|auto` — train on the deterministic data-parallel
//!   macro-step path with up to `N` worker threads (`auto` = available
//!   cores capped at the macro-step width); omit for the legacy serial
//!   per-batch path. `epoch_profile` treats this as a sweep bound.
//!
//! The default profile sits between the two: full-scale facilities with
//! medium embedding width, tuned so the whole table suite regenerates in
//! minutes on a laptop-class CPU.

use facility_datagen::FacilityConfig;
use facility_eval::TrainSettings;
use facility_models::ckat::{Aggregator, CkatConfig};
use facility_models::ModelConfig;

/// Parsed command-line options shared by every harness binary.
#[derive(Debug, Clone)]
pub struct HarnessOpts {
    /// Profile selector.
    pub profile: Profile,
    /// Simulation/training seed.
    pub seed: u64,
    /// Top-K cutoff.
    pub k: usize,
    /// Epoch-count override for binaries that honor it (`epoch_profile`);
    /// `None` keeps each binary's default.
    pub epochs: Option<usize>,
    /// Replica-count override: `Some(r)` trains on the deterministic
    /// macro-step path with up to `r` worker threads (binaries that honor
    /// it sweep the counts below `r` too); `None` keeps the legacy
    /// per-batch path. `--replicas auto` resolves to available cores
    /// capped at the macro-step width.
    pub replicas: Option<usize>,
}

/// Harness profiles (see the crate docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Seconds-scale smoke profile.
    Fast,
    /// Minutes-scale default.
    Default,
    /// The paper's hyperparameters.
    Paper,
    /// ~106k-entity stress world for the sparse training path.
    Huge,
}

impl HarnessOpts {
    /// Parse `std::env::args`; unknown flags abort with usage help.
    pub fn from_args() -> Self {
        let mut opts =
            Self { profile: Profile::Default, seed: 42, k: 20, epochs: None, replicas: None };
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--fast" => opts.profile = Profile::Fast,
                "--paper" => opts.profile = Profile::Paper,
                "--huge" => opts.profile = Profile::Huge,
                "--epochs" => {
                    opts.epochs = Some(
                        args.next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| usage("--epochs needs an integer")),
                    );
                }
                "--replicas" => {
                    let v = args
                        .next()
                        .unwrap_or_else(|| usage("--replicas needs an integer >= 1, or `auto`"));
                    opts.replicas = Some(if v == "auto" {
                        facility_models::replica::default_replicas()
                    } else {
                        v.parse()
                            .ok()
                            .filter(|&r| r >= 1)
                            .unwrap_or_else(|| usage("--replicas needs an integer >= 1, or `auto`"))
                    });
                }
                "--seed" => {
                    opts.seed = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--seed needs an integer"));
                }
                "--k" => {
                    opts.k = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--k needs an integer"));
                }
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown flag {other}")),
            }
        }
        opts
    }

    /// The two facilities of the paper, scaled per profile. The `Huge`
    /// profile is the exception: one oversized synthetic world, because it
    /// exists to stress the training path, not to reproduce Table I.
    pub fn facilities(&self) -> Vec<(&'static str, FacilityConfig)> {
        match self.profile {
            Profile::Fast => vec![
                ("OOI-like (scaled)", scale(FacilityConfig::ooi(), 4)),
                ("GAGE-like (scaled)", scale(FacilityConfig::gage(), 8)),
            ],
            Profile::Huge => vec![("huge-synthetic", FacilityConfig::huge())],
            _ => vec![("OOI-like", FacilityConfig::ooi()), ("GAGE-like", FacilityConfig::gage())],
        }
    }

    /// Shared model hyperparameters for this profile.
    pub fn model_config(&self) -> ModelConfig {
        match self.profile {
            Profile::Fast => ModelConfig {
                embed_dim: 16,
                batch_size: 256,
                lr: 0.01,
                l2: 1e-5,
                keep_prob: 1.0,
                seed: self.seed,
                replicas: self.replicas.unwrap_or(0),
            },
            Profile::Default => ModelConfig {
                embed_dim: 32,
                batch_size: 512,
                lr: 0.01,
                l2: 1e-5,
                keep_prob: 0.9,
                seed: self.seed,
                replicas: self.replicas.unwrap_or(0),
            },
            Profile::Paper => ModelConfig {
                embed_dim: 64,
                batch_size: 512,
                lr: 0.01,
                l2: 1e-5,
                keep_prob: 0.9,
                seed: self.seed,
                replicas: self.replicas.unwrap_or(0),
            },
            // Default-width embeddings over a 100k+-row entity matrix;
            // batches are bigger so an epoch is fewer, heavier steps.
            Profile::Huge => ModelConfig {
                embed_dim: 32,
                batch_size: 1024,
                lr: 0.01,
                l2: 1e-5,
                keep_prob: 0.9,
                seed: self.seed,
                replicas: self.replicas.unwrap_or(0),
            },
        }
    }

    /// CKAT configuration for this profile (paper defaults: depth 3,
    /// attention on, concat aggregator).
    pub fn ckat_config(&self) -> CkatConfig {
        let mut base = self.model_config();
        base.keep_prob = base.keep_prob.min(0.8); // CKAT's grid-searched dropout
        let d = base.embed_dim;
        CkatConfig {
            layer_dims: vec![d, d / 2, d / 4],
            use_attention: true,
            aggregator: Aggregator::Concat,
            transr_dim: d,
            margin: 1.0,
            batch_local: true,
            base,
        }
    }

    /// Trainer settings for this profile.
    pub fn train_settings(&self) -> TrainSettings {
        match self.profile {
            Profile::Fast => TrainSettings {
                max_epochs: 10,
                eval_every: 5,
                patience: 0,
                k: self.k,
                seed: self.seed,
                verbose: false,
                ..TrainSettings::default()
            },
            Profile::Default => TrainSettings {
                max_epochs: 80,
                eval_every: 5,
                patience: 4,
                k: self.k,
                seed: self.seed,
                verbose: true,
                ..TrainSettings::default()
            },
            Profile::Paper => TrainSettings {
                max_epochs: 120,
                eval_every: 5,
                patience: 6,
                k: self.k,
                seed: self.seed,
                verbose: true,
                ..TrainSettings::default()
            },
            // The stress world is for profiling, not convergence: a couple
            // of epochs, evaluation only at the end.
            Profile::Huge => TrainSettings {
                max_epochs: 2,
                eval_every: 2,
                patience: 0,
                k: self.k,
                seed: self.seed,
                verbose: true,
                ..TrainSettings::default()
            },
        }
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: <bin> [--fast | --paper | --huge] [--seed N] [--k N] [--epochs N] [--replicas N|auto]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 })
}

/// Per-model learning rate from the grid search (the paper tunes lr per
/// model over {0.05, 0.01, 0.005, 0.001}; these are the winners of our
/// sweep on the synthetic facilities).
pub fn tuned_lr(kind: facility_models::ModelKind) -> f32 {
    use facility_models::ModelKind::*;
    match kind {
        RippleNet | Kgcn | Ckat => 0.01,
        Bprmf | Fm | Nfm | Cke | Cfkg => 0.005,
    }
}

/// Per-model dropout keep-probability from the grid search (the paper
/// tunes the drop ratio over {0.0 … 0.8} for NFM and CKAT).
pub fn tuned_keep_prob(kind: facility_models::ModelKind) -> f32 {
    use facility_models::ModelKind::*;
    match kind {
        Ckat => 0.8,
        _ => 0.9,
    }
}

/// Scale a facility config down by `factor` for smoke runs.
fn scale(mut c: FacilityConfig, factor: usize) -> FacilityConfig {
    c.n_items = (c.n_items / factor).max(30);
    c.n_users = (c.n_users / factor).max(40);
    c.n_sites = (c.n_sites / factor).max(c.n_regions);
    c.n_cities = (c.n_cities / factor).max(4);
    c.n_organizations = (c.n_organizations / factor).max(3);
    c
}

/// The git revision of the working directory, suffixed `-dirty` when
/// tracked files differ from it, for the records the profiling binaries
/// write; "unknown" outside a git checkout or without a `git` binary.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=12"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_configs_validate() {
        for f in [4, 8, 100] {
            scale(FacilityConfig::ooi(), f).validate();
            scale(FacilityConfig::gage(), f).validate();
        }
    }

    #[test]
    fn profiles_produce_consistent_configs() {
        for profile in [Profile::Fast, Profile::Default, Profile::Paper] {
            let opts = HarnessOpts { profile, seed: 1, k: 20, epochs: None, replicas: None };
            let mc = opts.model_config();
            let cc = opts.ckat_config();
            assert_eq!(cc.base.embed_dim, mc.embed_dim);
            assert_eq!(cc.depth(), 3);
            assert_eq!(opts.facilities().len(), 2);
            assert!(opts.train_settings().max_epochs > 0);
        }
    }

    #[test]
    fn huge_profile_is_single_oversized_world() {
        let opts =
            HarnessOpts { profile: Profile::Huge, seed: 1, k: 20, epochs: None, replicas: None };
        let facilities = opts.facilities();
        assert_eq!(facilities.len(), 1);
        let (_, config) = &facilities[0];
        config.validate();
        assert!(config.n_users + config.n_items > 100_000);
        assert_eq!(opts.ckat_config().base.embed_dim, opts.model_config().embed_dim);
        assert!(opts.train_settings().max_epochs > 0);
    }
}
