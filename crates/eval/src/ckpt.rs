//! Training checkpoints: the full trainer state serialized through the
//! `facility-ckpt` envelope (versioned, CRC-checked, atomically renamed).
//!
//! A [`TrainCheckpoint`] is everything needed to continue a run as if it
//! had never stopped: the model snapshot (parameters + Adam moments), the
//! harness counters (epoch, best/stale, retry budget), and the per-epoch
//! logs accumulated so far. The training RNG is *derived* per epoch from
//! `(seed, epoch, retries)` rather than serialized, so storing those three
//! integers round-trips the RNG state exactly — see
//! [`trainer::epoch_rng`](crate::trainer::epoch_rng).

use crate::metrics::EvalResult;
use crate::trainer::{DivergenceCause, DivergenceEvent, EpochLog};
use facility_ckpt::{load_bytes, save_bytes, CkptError, ModelState, Reader, Writer};
use facility_models::EpochProfile;
use std::path::{Path, PathBuf};

/// Complete trainer state at the end of a (healthy) epoch.
#[derive(Clone)]
pub struct TrainCheckpoint {
    /// `Recommender::name()` of the model that wrote this checkpoint;
    /// resume refuses a different model.
    pub model_name: String,
    /// Training seed; resume refuses a different seed (the epoch RNG
    /// derivation would silently change the stream).
    pub seed: u64,
    /// `Recommender::replicas()` of the model that wrote this checkpoint
    /// (0 = legacy per-batch path). Resume refuses a *mode* change
    /// (legacy ↔ replica) because the two paths draw different RNG
    /// schedules; switching between nonzero replica counts is fine — the
    /// macro-step schedule is thread-count-invariant.
    pub replicas: u64,
    /// Last completed epoch (1-based); resume continues at `epoch + 1`.
    pub epoch: usize,
    /// Best evaluation observed so far, if any epoch was evaluated.
    pub best: Option<EvalResult>,
    /// Epoch at which `best` was observed (0 = none yet).
    pub best_epoch: usize,
    /// Consecutive evaluations without improvement.
    pub stale: usize,
    /// Cumulative divergence retries consumed (salts the epoch RNG).
    pub retries: usize,
    /// Divergence events recorded so far.
    pub divergences: Vec<DivergenceEvent>,
    /// Per-epoch logs accumulated so far.
    pub logs: Vec<EpochLog>,
    /// Model parameters + optimizer moments.
    pub state: ModelState,
}

fn put_eval(w: &mut Writer, r: &EvalResult) {
    w.put_f64(r.recall);
    w.put_f64(r.ndcg);
    w.put_f64(r.precision);
    w.put_f64(r.hit);
    w.put_u64(r.n_users as u64);
    w.put_u64(r.k as u64);
}

fn get_eval(r: &mut Reader<'_>) -> Result<EvalResult, CkptError> {
    Ok(EvalResult {
        recall: r.get_f64()?,
        ndcg: r.get_f64()?,
        precision: r.get_f64()?,
        hit: r.get_f64()?,
        n_users: r.get_u64()? as usize,
        k: r.get_u64()? as usize,
    })
}

fn put_profile(w: &mut Writer, p: &EpochProfile) {
    for v in [
        p.sampling_ns,
        p.attention_ns,
        p.forward_ns,
        p.backward_ns,
        p.optimizer_ns,
        p.extract_ns,
        p.extract_wait_ns,
        p.eval_ns,
        p.forward_flops,
        p.gathered_rows,
        p.gathered_edges,
        p.full_rows,
        p.full_edges,
        p.batches,
        p.reduce_ns,
        p.wall_ns,
        p.replicas,
        // Format v4 appended the split extraction attribution, v5 the
        // per-layer frontier rows (version history at `FORMAT_VERSION`).
        p.extract_wall_ns,
        p.frontier_rows,
    ] {
        w.put_u64(v);
    }
}

fn get_profile(r: &mut Reader<'_>) -> Result<EpochProfile, CkptError> {
    Ok(EpochProfile {
        sampling_ns: r.get_u64()?,
        attention_ns: r.get_u64()?,
        forward_ns: r.get_u64()?,
        backward_ns: r.get_u64()?,
        optimizer_ns: r.get_u64()?,
        extract_ns: r.get_u64()?,
        extract_wait_ns: r.get_u64()?,
        eval_ns: r.get_u64()?,
        forward_flops: r.get_u64()?,
        gathered_rows: r.get_u64()?,
        gathered_edges: r.get_u64()?,
        full_rows: r.get_u64()?,
        full_edges: r.get_u64()?,
        batches: r.get_u64()?,
        reduce_ns: r.get_u64()?,
        wall_ns: r.get_u64()?,
        replicas: r.get_u64()?,
        extract_wall_ns: r.get_u64()?,
        frontier_rows: r.get_u64()?,
    })
}

impl TrainCheckpoint {
    /// Serialize to payload bytes (envelope-free; see [`TrainCheckpoint::save`]).
    /// Fails when the model state cannot be written faithfully (see
    /// [`ModelState::encode`]).
    pub fn to_bytes(&self) -> Result<Vec<u8>, CkptError> {
        let mut w = Writer::new();
        w.put_str(&self.model_name);
        w.put_u64(self.seed);
        w.put_u64(self.replicas);
        w.put_u64(self.epoch as u64);
        match &self.best {
            Some(b) => {
                w.put_u8(1);
                put_eval(&mut w, b);
            }
            None => w.put_u8(0),
        }
        w.put_u64(self.best_epoch as u64);
        w.put_u64(self.stale as u64);
        w.put_u64(self.retries as u64);
        w.put_u32(self.divergences.len() as u32);
        for d in &self.divergences {
            w.put_u64(d.epoch as u64);
            w.put_u64(d.retry as u64);
            w.put_f32(d.loss);
            w.put_u8(match d.cause {
                DivergenceCause::NonFiniteLoss => 0,
                DivergenceCause::NonFiniteParams => 1,
            });
        }
        w.put_u32(self.logs.len() as u32);
        for l in &self.logs {
            w.put_u64(l.epoch as u64);
            w.put_f32(l.loss);
            match &l.eval {
                Some(e) => {
                    w.put_u8(1);
                    put_eval(&mut w, e);
                }
                None => w.put_u8(0),
            }
            match &l.profile {
                Some(p) => {
                    w.put_u8(1);
                    put_profile(&mut w, p);
                }
                None => w.put_u8(0),
            }
        }
        self.state.encode(&mut w)?;
        Ok(w.into_bytes())
    }

    /// Deserialize payload bytes written by [`TrainCheckpoint::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CkptError> {
        let mut r = Reader::new(bytes);
        let model_name = r.get_str()?;
        let seed = r.get_u64()?;
        let replicas = r.get_u64()?;
        let epoch = r.get_u64()? as usize;
        let best = if r.get_bool()? { Some(get_eval(&mut r)?) } else { None };
        let best_epoch = r.get_u64()? as usize;
        let stale = r.get_u64()? as usize;
        let retries = r.get_u64()? as usize;
        let n_div = r.get_u32()? as usize;
        // Size each list by what the payload can hold before allocating:
        // a divergence event takes at least 21 bytes, an epoch log 14.
        if !r.fits(n_div.saturating_mul(8 + 8 + 4 + 1)) {
            return Err(CkptError::Format(format!(
                "divergence list of {n_div} entries does not fit the remaining payload"
            )));
        }
        let mut divergences = Vec::with_capacity(n_div);
        for _ in 0..n_div {
            let epoch = r.get_u64()? as usize;
            let retry = r.get_u64()? as usize;
            let loss = r.get_f32()?;
            let cause = match r.get_u8()? {
                0 => DivergenceCause::NonFiniteLoss,
                1 => DivergenceCause::NonFiniteParams,
                other => {
                    return Err(CkptError::Format(format!("unknown divergence cause tag {other}")))
                }
            };
            divergences.push(DivergenceEvent { epoch, retry, loss, cause });
        }
        let n_logs = r.get_u32()? as usize;
        if !r.fits(n_logs.saturating_mul(8 + 4 + 1 + 1)) {
            return Err(CkptError::Format(format!(
                "epoch-log list of {n_logs} entries does not fit the remaining payload"
            )));
        }
        let mut logs = Vec::with_capacity(n_logs);
        for _ in 0..n_logs {
            let epoch = r.get_u64()? as usize;
            let loss = r.get_f32()?;
            let eval = if r.get_bool()? { Some(get_eval(&mut r)?) } else { None };
            let profile = if r.get_bool()? { Some(get_profile(&mut r)?) } else { None };
            logs.push(EpochLog { epoch, loss, eval, profile });
        }
        let state = ModelState::decode(&mut r)?;
        if !r.is_exhausted() {
            return Err(CkptError::Format("trailing bytes after checkpoint payload".into()));
        }
        Ok(Self {
            model_name,
            seed,
            replicas,
            epoch,
            best,
            best_epoch,
            stale,
            retries,
            divergences,
            logs,
            state,
        })
    }

    /// Write to `path` atomically inside the versioned, CRC-checked
    /// envelope.
    pub fn save(&self, path: &Path) -> Result<(), CkptError> {
        save_bytes(path, &self.to_bytes()?)
    }

    /// Load and validate a checkpoint file.
    pub fn load(path: &Path) -> Result<Self, CkptError> {
        Self::from_bytes(&load_bytes(path)?)
    }
}

/// Canonical checkpoint filename for an epoch: `ckpt_epoch00042.fkc`.
pub fn checkpoint_path(dir: &Path, epoch: usize) -> PathBuf {
    dir.join(format!("ckpt_epoch{epoch:05}.fkc"))
}

/// The highest-epoch `ckpt_epochNNNNN.fkc` in `dir`, if any.
pub fn latest_checkpoint(dir: &Path) -> Option<PathBuf> {
    let entries = std::fs::read_dir(dir).ok()?;
    let mut best: Option<(usize, PathBuf)> = None;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let Some(num) = name.strip_prefix("ckpt_epoch").and_then(|s| s.strip_suffix(".fkc")) else {
            continue;
        };
        let Ok(epoch) = num.parse::<usize>() else { continue };
        if best.as_ref().is_none_or(|(e, _)| epoch > *e) {
            best = Some((epoch, entry.path()));
        }
    }
    best.map(|(_, p)| p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TrainCheckpoint {
        TrainCheckpoint {
            model_name: "BPRMF".into(),
            seed: 7,
            replicas: 2,
            epoch: 4,
            best: Some(EvalResult {
                recall: 0.25,
                ndcg: 0.5,
                precision: 0.125,
                hit: 1.0,
                n_users: 12,
                k: 5,
            }),
            best_epoch: 4,
            stale: 1,
            retries: 1,
            divergences: vec![DivergenceEvent {
                epoch: 3,
                retry: 1,
                loss: f32::NAN,
                cause: DivergenceCause::NonFiniteLoss,
            }],
            logs: vec![
                EpochLog { epoch: 1, loss: 0.7, eval: None, profile: None },
                EpochLog {
                    epoch: 2,
                    loss: 0.6,
                    eval: None,
                    profile: Some(EpochProfile {
                        batches: 3,
                        sampling_ns: 42,
                        frontier_rows: 17,
                        ..Default::default()
                    }),
                },
            ],
            state: ModelState::default(),
        }
    }

    #[test]
    fn checkpoint_payload_roundtrips() {
        let ck = sample();
        let back = TrainCheckpoint::from_bytes(&ck.to_bytes().unwrap()).unwrap();
        assert_eq!(back.model_name, "BPRMF");
        assert_eq!(back.epoch, 4);
        assert_eq!(back.seed, 7);
        assert_eq!(back.replicas, 2);
        assert_eq!(back.stale, 1);
        assert_eq!(back.retries, 1);
        assert_eq!(back.best.unwrap().recall, 0.25);
        assert_eq!(back.divergences.len(), 1);
        assert!(back.divergences[0].loss.is_nan());
        assert_eq!(back.logs.len(), 2);
        assert_eq!(back.logs[1].profile.unwrap().sampling_ns, 42);
        assert_eq!(back.logs[1].profile.unwrap().frontier_rows, 17);
    }

    #[test]
    fn corrupt_payloads_are_errors_not_panics() {
        let bytes = sample().to_bytes().unwrap();
        for cut in 0..bytes.len() {
            assert!(TrainCheckpoint::from_bytes(&bytes[..cut]).is_err(), "truncated to {cut}");
        }
        // A list length inflated to u32::MAX anywhere must not size an
        // allocation: the decoder checks it against the bytes left.
        for at in 0..bytes.len() - 3 {
            let mut bad = bytes.clone();
            bad[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            let _ = TrainCheckpoint::from_bytes(&bad);
        }
    }

    /// A v5 checkpoint carried the hub-cache time between each profile's
    /// `extract_wall_ns` and `frontier_rows`. Its file is refused by
    /// version before the payload is read, and its bare payload fails to
    /// decode with a structured error — neither panics.
    #[test]
    fn version_5_checkpoints_are_refused_with_a_structured_error() {
        // `sample()`'s last log ends with a profile, right before the
        // model state: splice a hub-cache time in before `frontier_rows`.
        let v6 = sample().to_bytes().unwrap();
        let mut state = Writer::new();
        ModelState::default().encode(&mut state).unwrap();
        let at = v6.len() - state.into_bytes().len() - 8;
        let v5 = [&v6[..at], &5u64.to_le_bytes(), &v6[at..]].concat();

        let mut file = facility_ckpt::MAGIC.to_vec();
        file.push(5);
        file.extend_from_slice(&facility_ckpt::crc32(&v5).to_le_bytes());
        file.extend_from_slice(&(v5.len() as u64).to_le_bytes());
        file.extend_from_slice(&v5);
        let path = std::env::temp_dir().join(format!("facility-v5-{}.fkc", std::process::id()));
        std::fs::write(&path, &file).unwrap();
        let loaded = TrainCheckpoint::load(&path);
        let _ = std::fs::remove_file(&path);
        assert!(matches!(loaded, Err(CkptError::Version(5))), "v5 file not refused by version");

        let decoded = TrainCheckpoint::from_bytes(&v5);
        assert!(matches!(decoded, Err(CkptError::Format(_))), "v5 payload decoded");
    }

    #[test]
    fn latest_checkpoint_picks_highest_epoch() {
        let dir = std::env::temp_dir().join(format!("facility-latest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ck = sample();
        ck.save(&checkpoint_path(&dir, 2)).unwrap();
        ck.save(&checkpoint_path(&dir, 10)).unwrap();
        std::fs::write(dir.join("notes.txt"), b"ignore me").unwrap();
        let latest = latest_checkpoint(&dir).unwrap();
        assert!(latest.ends_with("ckpt_epoch00010.fkc"), "{latest:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_dir_has_no_latest() {
        let dir = std::env::temp_dir().join(format!("facility-empty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(latest_checkpoint(&dir).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
