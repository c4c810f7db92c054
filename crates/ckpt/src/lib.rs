#![warn(missing_docs)]

//! # facility-ckpt
//!
//! Versioned, CRC-checked binary snapshots for fault-tolerant training.
//!
//! A checkpoint file is a small envelope around an opaque payload:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"FKCK"
//! 4       1     format version (current: 4)
//! 5       4     CRC-32 (IEEE) of the payload, little-endian
//! 9       8     payload length in bytes, little-endian
//! 17      n     payload
//! ```
//!
//! [`save_bytes`] writes the envelope *atomically*: the file is first
//! written to `<path>.tmp` in the same directory and then renamed over
//! `<path>`, so a crash mid-write can never leave a torn checkpoint under
//! the final name. [`load_bytes`] rejects bad magic, unknown versions,
//! truncation, and checksum mismatches with a typed [`CkptError`] —
//! corruption is always a clean error, never UB or silently wrong
//! parameters.
//!
//! Payloads are built with the little-endian [`Writer`]/[`Reader`] pair.
//! `f32`/`f64` values round-trip through their IEEE bit patterns, so a
//! restore is bitwise exact. [`ModelState`] captures everything a model
//! needs to resume training mid-run: every named parameter matrix of its
//! [`ParamStore`] plus the full Adam state (learning rate, moment
//! estimates, per-slot step counts, and — since format v2 — the per-row
//! step counters of lazily-updated embedding slots).

use facility_autograd::{Adam, AdamState, ParamStore};
use facility_linalg::Matrix;
use std::fs;
use std::io;
use std::path::Path;

/// Magic bytes at the start of every checkpoint file.
pub const MAGIC: [u8; 4] = *b"FKCK";

/// Current checkpoint format version. Readers reject anything else.
/// Version history: 1 — initial; 2 — per-row lazy-Adam step counters
/// appended to each optimizer slot; 3 — replica count stamped into the
/// trainer checkpoint and pool accounting fields (`reduce_ns`,
/// `wall_ns`, `replicas`) appended to each epoch profile; 4 — split
/// extraction attribution (`extract_wall_ns`) and the hub-cache refresh
/// time appended to each epoch profile; 5 — per-layer frontier rows
/// (`frontier_rows`) appended to each epoch profile; 6 — the hub-cache
/// refresh time dropped from each epoch profile (the cache was deleted).
pub const FORMAT_VERSION: u8 = 6;

const HEADER_LEN: usize = 4 + 1 + 4 + 8;

/// Errors raised while writing, reading, or applying checkpoints.
#[derive(Debug)]
pub enum CkptError {
    /// Filesystem failure.
    Io(io::Error),
    /// Structurally invalid file: bad magic, truncation, garbage lengths.
    Format(String),
    /// The file declares a format version this build does not understand.
    Version(u8),
    /// Payload bytes do not match the stored CRC-32.
    Checksum {
        /// CRC recorded in the header.
        expected: u32,
        /// CRC of the payload actually read.
        actual: u32,
    },
    /// The checkpoint is well-formed but does not fit the target
    /// (wrong model, parameter name/shape mismatch, wrong seed, …).
    Mismatch(String),
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CkptError::Format(msg) => write!(f, "corrupt checkpoint: {msg}"),
            CkptError::Version(v) => {
                write!(f, "unsupported checkpoint version {v} (this build reads {FORMAT_VERSION})")
            }
            CkptError::Checksum { expected, actual } => write!(
                f,
                "checkpoint checksum mismatch: header says {expected:#010x}, payload is {actual:#010x}"
            ),
            CkptError::Mismatch(msg) => write!(f, "checkpoint does not fit: {msg}"),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<io::Error> for CkptError {
    fn from(e: io::Error) -> Self {
        CkptError::Io(e)
    }
}

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
                k += 1;
            }
            // audit: unwrap — const-eval loop bounded to the 256-entry table.
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        // audit: unwrap — index masked with & 0xFF into the 256-entry table.
        c = TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Write `payload` to `path` inside the versioned, CRC-checked envelope,
/// atomically (tmp file + rename — a torn file can never appear under
/// `path`).
pub fn save_bytes(path: &Path, payload: &[u8]) -> Result<(), CkptError> {
    let mut file = Vec::with_capacity(HEADER_LEN + payload.len());
    file.extend_from_slice(&MAGIC);
    file.push(FORMAT_VERSION);
    file.extend_from_slice(&crc32(payload).to_le_bytes());
    file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    file.extend_from_slice(payload);
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, &file)?;
    fs::rename(&tmp, path)?;
    Ok(())
}

/// Read and validate an envelope written by [`save_bytes`], returning the
/// payload.
pub fn load_bytes(path: &Path) -> Result<Vec<u8>, CkptError> {
    Ok(envelope_payload(&fs::read(path)?)?.to_vec())
}

/// Validate the envelope bytes of a whole checkpoint file (magic, version,
/// declared length, CRC) and return the payload they wrap.
pub fn envelope_payload(file: &[u8]) -> Result<&[u8], CkptError> {
    if file.len() < HEADER_LEN {
        return Err(CkptError::Format(format!(
            "file is {} bytes, shorter than the {HEADER_LEN}-byte header",
            file.len()
        )));
    }
    // Parse the header through the length-checked Reader so a malformed
    // file is always a typed error, never a slicing panic.
    let mut hdr = Reader::new(file);
    let magic: [u8; 4] = hdr.take_array()?;
    if magic != MAGIC {
        return Err(CkptError::Format("bad magic (not a facility checkpoint)".into()));
    }
    let version = hdr.get_u8()?;
    if version != FORMAT_VERSION {
        return Err(CkptError::Version(version));
    }
    let expected = hdr.get_u32()?;
    let len = hdr.get_u64()?;
    let payload = file.get(HEADER_LEN..).unwrap_or_default();
    if payload.len() as u64 != len {
        return Err(CkptError::Format(format!(
            "payload is {} bytes but header declares {len} (truncated?)",
            payload.len()
        )));
    }
    let actual = crc32(payload);
    if actual != expected {
        return Err(CkptError::Checksum { expected, actual });
    }
    Ok(payload)
}

/// Little-endian payload builder. Floats are stored via their IEEE bit
/// patterns so round-trips are bitwise exact.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finish and take the payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f32` as its bit pattern.
    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Append an `f64` as its bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append a matrix: rows, cols, then row-major `f32` data.
    pub fn put_matrix(&mut self, m: &Matrix) {
        self.put_u64(m.rows() as u64);
        self.put_u64(m.cols() as u64);
        for &x in m.as_slice() {
            self.put_f32(x);
        }
    }
}

/// Checked little-endian payload reader; every read fails cleanly on
/// truncation instead of panicking.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// True when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// True when at least `n` more bytes remain (pre-validate a length
    /// field before allocating for it).
    pub fn fits(&self, n: usize) -> bool {
        self.pos.saturating_add(n) <= self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        if !self.fits(n) {
            return Err(CkptError::Format(format!(
                "payload truncated: wanted {n} bytes at offset {}, only {} remain",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        // audit: unwrap — range bounds checked by the guard just above.
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// [`Reader::take`] into a fixed-size array, with the length proven by
    /// construction — truncation is a typed error, never a panic.
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], CkptError> {
        let s = self.take(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(s);
        Ok(out)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, CkptError> {
        Ok(self.take_array::<1>()?[0])
    }

    /// Read a presence flag written as `0` or `1`; any other byte is a
    /// format error, so every accepted payload re-encodes to its own bytes.
    pub fn get_bool(&mut self) -> Result<bool, CkptError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CkptError::Format(format!("flag byte {b} is neither 0 nor 1"))),
        }
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CkptError> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CkptError> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    /// Read an `f32` bit pattern.
    pub fn get_f32(&mut self) -> Result<f32, CkptError> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    /// Read an `f64` bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, CkptError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, CkptError> {
        let len = self.get_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CkptError::Format("string field is not UTF-8".into()))
    }

    /// Read a matrix written by [`Writer::put_matrix`].
    pub fn get_matrix(&mut self) -> Result<Matrix, CkptError> {
        let rows = self.get_u64()? as usize;
        let cols = self.get_u64()? as usize;
        let n = rows
            .checked_mul(cols)
            .ok_or_else(|| CkptError::Format(format!("matrix dims {rows}x{cols} overflow")))?;
        if !self.fits(n.saturating_mul(4)) {
            return Err(CkptError::Format(format!(
                "matrix {rows}x{cols} does not fit the remaining payload"
            )));
        }
        let mut data = Vec::with_capacity(n);
        for _ in 0..n {
            data.push(self.get_f32()?);
        }
        Ok(Matrix::from_vec(rows, cols, data))
    }
}

/// A complete trainable-state snapshot of one model: every named parameter
/// matrix plus the optimizer's Adam state (learning rate, first/second
/// moments, per-slot step counts).
///
/// Restoring a `ModelState` into a freshly constructed model (same config,
/// same world) reproduces the source model bitwise, which is what makes
/// interrupted-then-resumed training identical to an uninterrupted run.
#[derive(Clone, Default)]
pub struct ModelState {
    /// `(name, value)` per parameter, in [`ParamStore`] registration order.
    pub params: Vec<(String, Matrix)>,
    /// Full Adam optimizer state.
    pub adam: AdamState,
}

impl ModelState {
    /// Snapshot `store` and `adam`.
    pub fn capture(store: &ParamStore, adam: &Adam) -> Self {
        Self {
            params: store
                .iter()
                .map(|(_, name, value)| (name.to_string(), value.clone()))
                .collect(),
            adam: adam.export_state(),
        }
    }

    /// Restore this snapshot into `store` and `adam`.
    ///
    /// Fails with [`CkptError::Mismatch`] if the parameter names, count, or
    /// shapes differ from the snapshot — a checkpoint from a different
    /// model or configuration is rejected rather than half-applied (the
    /// target is only written once every check has passed).
    pub fn restore(&self, store: &mut ParamStore, adam: &mut Adam) -> Result<(), CkptError> {
        if self.params.len() != store.len() {
            return Err(CkptError::Mismatch(format!(
                "snapshot has {} parameters, model has {}",
                self.params.len(),
                store.len()
            )));
        }
        for ((name, value), (id, have_name, have_value)) in self.params.iter().zip(store.iter()) {
            let _ = id;
            if name != have_name {
                return Err(CkptError::Mismatch(format!(
                    "parameter name mismatch: snapshot `{name}`, model `{have_name}`"
                )));
            }
            if value.shape() != have_value.shape() {
                return Err(CkptError::Mismatch(format!(
                    "parameter `{name}` shape mismatch: snapshot {:?}, model {:?}",
                    value.shape(),
                    have_value.shape()
                )));
            }
        }
        let ids: Vec<_> = store.iter().map(|(id, _, _)| id).collect();
        for ((_, value), id) in self.params.iter().zip(ids) {
            *store.value_mut(id) = value.clone();
        }
        adam.import_state(&self.adam);
        Ok(())
    }

    /// True when every parameter scalar is finite (the divergence guard's
    /// health check).
    pub fn all_finite(&self) -> bool {
        self.params.iter().all(|(_, m)| m.as_slice().iter().all(|x| x.is_finite()))
    }

    /// Serialize into `w`.
    ///
    /// Fails with [`CkptError::Format`], before writing anything, when an
    /// optimizer slot holds one Adam moment without the other: the format
    /// records a slot's moments as one pair, so such a slot could only be
    /// written as never stepped and would silently decode without its
    /// moment.
    pub fn encode(&self, w: &mut Writer) -> Result<(), CkptError> {
        let a = &self.adam;
        if a.m.len() != a.v.len() || a.m.len() != a.t.len() {
            return Err(CkptError::Format(format!(
                "optimizer state has {} first moments, {} second moments and {} step counts",
                a.m.len(),
                a.v.len(),
                a.t.len()
            )));
        }
        let paired = a.m.iter().zip(&a.v).map(|(m, v)| (m.is_some(), v.is_some()));
        if let Some((i, (has_m, _))) = paired.enumerate().find(|(_, (m, v))| m != v) {
            let (has, lacks) = if has_m { ("m", "v") } else { ("v", "m") };
            return Err(CkptError::Format(format!(
                "optimizer slot {i} has its {has} moment but no {lacks} moment"
            )));
        }
        w.put_u32(self.params.len() as u32);
        for (name, value) in &self.params {
            w.put_str(name);
            w.put_matrix(value);
        }
        w.put_f32(a.lr);
        w.put_f32(a.beta1);
        w.put_f32(a.beta2);
        w.put_f32(a.eps);
        match a.clip {
            Some(c) => {
                w.put_u8(1);
                w.put_f32(c);
            }
            None => w.put_u8(0),
        }
        w.put_u32(a.m.len() as u32);
        for i in 0..a.m.len() {
            // audit: unwrap — m/v/t are parallel arrays, their lengths checked above.
            match (&a.m[i], &a.v[i]) {
                (Some(m), Some(v)) => {
                    w.put_u8(1);
                    w.put_matrix(m);
                    w.put_matrix(v);
                }
                _ => w.put_u8(0),
            }
            // audit: unwrap — m/v/t are parallel arrays, their lengths checked above.
            w.put_u64(a.t[i]);
            // Format v2: per-row step counters for lazily-updated slots.
            match a.row_t.get(i).and_then(|r| r.as_ref()) {
                Some(rows) => {
                    w.put_u8(1);
                    w.put_u64(rows.len() as u64);
                    for &rt in rows {
                        w.put_u64(rt);
                    }
                }
                None => w.put_u8(0),
            }
        }
        Ok(())
    }

    /// Deserialize a snapshot written by [`ModelState::encode`].
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, CkptError> {
        let n_params = r.get_u32()? as usize;
        // Size every list by what the payload can hold before allocating:
        // a parameter takes at least a name length and two dims, a slot at
        // least its two flags and step count.
        if !r.fits(n_params.saturating_mul(4 + 8 + 8)) {
            return Err(CkptError::Format(format!(
                "parameter list of {n_params} entries does not fit the remaining payload"
            )));
        }
        let mut params = Vec::with_capacity(n_params);
        for _ in 0..n_params {
            let name = r.get_str()?;
            let value = r.get_matrix()?;
            params.push((name, value));
        }
        let lr = r.get_f32()?;
        let beta1 = r.get_f32()?;
        let beta2 = r.get_f32()?;
        let eps = r.get_f32()?;
        let clip = if r.get_bool()? { Some(r.get_f32()?) } else { None };
        let n_slots = r.get_u32()? as usize;
        if !r.fits(n_slots.saturating_mul(1 + 8 + 1)) {
            return Err(CkptError::Format(format!(
                "optimizer slot list of {n_slots} entries does not fit the remaining payload"
            )));
        }
        let mut m = Vec::with_capacity(n_slots);
        let mut v = Vec::with_capacity(n_slots);
        let mut t = Vec::with_capacity(n_slots);
        let mut row_t = Vec::with_capacity(n_slots);
        for _ in 0..n_slots {
            if r.get_bool()? {
                m.push(Some(r.get_matrix()?));
                v.push(Some(r.get_matrix()?));
            } else {
                m.push(None);
                v.push(None);
            }
            t.push(r.get_u64()?);
            if r.get_bool()? {
                let n_rows = r.get_u64()? as usize;
                if !r.fits(n_rows.saturating_mul(8)) {
                    return Err(CkptError::Format(format!(
                        "row-counter list of {n_rows} entries does not fit the remaining payload"
                    )));
                }
                let mut rows = Vec::with_capacity(n_rows);
                for _ in 0..n_rows {
                    rows.push(r.get_u64()?);
                }
                row_t.push(Some(rows));
            } else {
                row_t.push(None);
            }
        }
        Ok(Self { params, adam: AdamState { lr, beta1, beta2, eps, clip, m, v, t, row_t } })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use facility_autograd::{Adam, Optimizer, ParamStore};

    fn tmpfile(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("facility-ckpt-{tag}-{}.fkc", std::process::id()))
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn envelope_roundtrip() {
        let path = tmpfile("roundtrip");
        save_bytes(&path, b"hello checkpoint").unwrap();
        assert_eq!(load_bytes(&path).unwrap(), b"hello checkpoint");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn flipped_payload_byte_is_a_checksum_error() {
        let path = tmpfile("flip");
        save_bytes(&path, b"parameters").unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0x40;
        std::fs::write(&path, &raw).unwrap();
        assert!(matches!(load_bytes(&path), Err(CkptError::Checksum { .. })));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_file_is_a_format_error() {
        let path = tmpfile("trunc");
        save_bytes(&path, &[7u8; 64]).unwrap();
        let raw = std::fs::read(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() - 10]).unwrap();
        assert!(matches!(load_bytes(&path), Err(CkptError::Format(_))));
        // Shorter than the header too.
        std::fs::write(&path, &raw[..8]).unwrap();
        assert!(matches!(load_bytes(&path), Err(CkptError::Format(_))));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn flipped_crc_header_byte_is_a_checksum_error() {
        // Corrupt the *stored* CRC (header bytes 5..9) rather than the
        // payload: the recomputed payload CRC no longer matches it.
        let path = tmpfile("crcflip");
        save_bytes(&path, b"well-formed payload").unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        raw[6] ^= 0x01;
        std::fs::write(&path, &raw).unwrap();
        assert!(matches!(load_bytes(&path), Err(CkptError::Checksum { .. })));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn garbage_length_field_is_a_format_error() {
        let path = tmpfile("badlen");
        save_bytes(&path, b"sized payload").unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        raw[9..17].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&path, &raw).unwrap();
        assert!(matches!(load_bytes(&path), Err(CkptError::Format(_))));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn next_format_version_is_rejected_not_panicked() {
        // A file from a hypothetical future build must fail cleanly so an
        // old server rejects (and keeps serving its current snapshot)
        // instead of crashing.
        let path = tmpfile("futurever");
        save_bytes(&path, b"from the future").unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        raw[4] = FORMAT_VERSION + 1;
        std::fs::write(&path, &raw).unwrap();
        match load_bytes(&path) {
            Err(CkptError::Version(v)) => assert_eq!(v, FORMAT_VERSION + 1),
            other => panic!("expected a version error, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reader_scalar_reads_fail_cleanly_on_truncation() {
        let mut r = Reader::new(&[1, 2, 3]); // too short for u32 or u64
        assert!(matches!(r.get_u32(), Err(CkptError::Format(_))));
        assert!(matches!(r.get_u64(), Err(CkptError::Format(_))));
        assert_eq!(r.get_u8().unwrap(), 1, "failed reads consume nothing");
    }

    #[test]
    fn unknown_version_byte_is_rejected_with_a_clear_error() {
        let path = tmpfile("version");
        save_bytes(&path, b"future payload").unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        raw[4] = 99; // pretend a future format wrote this
        std::fs::write(&path, &raw).unwrap();
        match load_bytes(&path) {
            Err(CkptError::Version(v)) => assert_eq!(v, 99),
            other => panic!("expected a version error, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let path = tmpfile("magic");
        std::fs::write(&path, b"not a checkpoint at all........").unwrap();
        assert!(matches!(load_bytes(&path), Err(CkptError::Format(_))));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn writer_reader_roundtrip_is_bitwise() {
        let mut w = Writer::new();
        w.put_u8(3);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_f32(-0.0);
        w.put_f32(f32::NAN);
        w.put_f64(std::f64::consts::PI);
        w.put_str("ent_emb");
        w.put_matrix(&Matrix::from_vec(2, 3, vec![1.0, -2.5, 3.0, 0.0, 5.5, -6.25]));
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 3);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_f32().unwrap().to_bits(), (-0.0f32).to_bits());
        assert!(r.get_f32().unwrap().is_nan());
        assert_eq!(r.get_f64().unwrap(), std::f64::consts::PI);
        assert_eq!(r.get_str().unwrap(), "ent_emb");
        let m = r.get_matrix().unwrap();
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m[(1, 2)], -6.25);
        assert!(r.is_exhausted());
    }

    #[test]
    fn model_state_roundtrips_through_bytes_and_restores() {
        let mut store = ParamStore::new();
        let a = store.add("a", Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let _b = store.add("b", Matrix::filled(1, 3, -0.5));
        let mut adam = Adam::default_for(&store, 0.05);
        // Take a step so the moments are non-trivial.
        let g = Matrix::filled(2, 2, 0.1);
        let mut value = store.value(a).clone();
        adam.step(0, &mut value, &g);
        *store.value_mut(a) = value;

        let state = ModelState::capture(&store, &adam);
        let mut w = Writer::new();
        state.encode(&mut w).unwrap();
        let bytes = w.into_bytes();
        let back = ModelState::decode(&mut Reader::new(&bytes)).unwrap();

        let mut store2 = ParamStore::new();
        store2.add("a", Matrix::zeros(2, 2));
        store2.add("b", Matrix::zeros(1, 3));
        let mut adam2 = Adam::default_for(&store2, 0.001);
        back.restore(&mut store2, &mut adam2).unwrap();
        assert_eq!(store2.value(a).as_slice(), store.value(a).as_slice());
        assert_eq!(adam2.lr, 0.05);
        let s2 = adam2.export_state();
        assert_eq!(s2.t[0], 1);
        assert_eq!(
            s2.m[0].as_ref().unwrap().as_slice(),
            adam.export_state().m[0].as_ref().unwrap().as_slice()
        );
    }

    /// A slot with one Adam moment and not the other cannot be written as
    /// a pair: saving it is a structured error, not a silent "never
    /// stepped" that would decode to `(None, None)`.
    #[test]
    fn half_paired_adam_slot_is_rejected_on_save() {
        let mut store = ParamStore::new();
        store.add("a", Matrix::filled(2, 2, 1.0));
        let adam = Adam::default_for(&store, 0.05);
        let mut state = ModelState::capture(&store, &adam);
        state.adam.m[0] = Some(Matrix::filled(2, 2, 0.5));
        state.adam.v[0] = None;
        let mut w = Writer::new();
        match state.encode(&mut w) {
            Err(CkptError::Format(msg)) => {
                assert!(msg.contains("slot 0 has its m moment but no v"), "{msg}")
            }
            other => panic!("expected a format error, got {other:?}"),
        }
        assert!(w.into_bytes().is_empty(), "nothing is written for a rejected state");

        state.adam.m[0] = None;
        state.adam.v[0] = Some(Matrix::filled(2, 2, 0.5));
        assert!(matches!(state.encode(&mut Writer::new()), Err(CkptError::Format(_))));
        state.adam.m[0] = Some(Matrix::filled(2, 2, 0.5));
        state.encode(&mut Writer::new()).expect("a paired slot encodes");
    }

    #[test]
    fn lazy_adam_row_counters_roundtrip_and_resume_bitwise() {
        use facility_autograd::{Grad, SparseRowGrad};
        // Drive a parameter with sparse gradients so row counters diverge.
        let mut store = ParamStore::new();
        let w = store.add("emb", Matrix::from_vec(4, 2, vec![1., 2., 3., 4., 5., 6., 7., 8.]));
        let mut adam = Adam::default_for(&store, 0.05);
        for step in 0..6usize {
            let rows = vec![step % 4, (step + 1) % 4];
            let sg = SparseRowGrad {
                n_rows: 4,
                rows,
                values: Matrix::from_vec(2, 2, vec![0.1, -0.2, 0.3, 0.05]),
            };
            store.apply(&mut adam, &[(w, Grad::Sparse(sg))]);
        }
        let state = ModelState::capture(&store, &adam);
        assert!(
            state.adam.row_t.iter().any(|r| r.is_some()),
            "sparse steps must produce per-row counters"
        );
        let mut wtr = Writer::new();
        state.encode(&mut wtr).unwrap();
        let bytes = wtr.into_bytes();
        let back = ModelState::decode(&mut Reader::new(&bytes)).unwrap();
        for (a, b) in state.adam.row_t.iter().zip(&back.adam.row_t) {
            assert_eq!(a, b, "row counters round-trip exactly");
        }

        // Resume both the original and the restored copy with the same
        // sparse step; the values must stay bitwise identical.
        let mut store2 = ParamStore::new();
        let w2 = store2.add("emb", Matrix::zeros(4, 2));
        let mut adam2 = Adam::default_for(&store2, 0.001);
        back.restore(&mut store2, &mut adam2).unwrap();
        let resume = SparseRowGrad {
            n_rows: 4,
            rows: vec![0, 3],
            values: Matrix::from_vec(2, 2, vec![-0.4, 0.4, 0.2, -0.2]),
        };
        store.apply(&mut adam, &[(w, Grad::Sparse(resume.clone()))]);
        store2.apply(&mut adam2, &[(w2, Grad::Sparse(resume))]);
        store.sync_all(&mut adam, w);
        store2.sync_all(&mut adam2, w2);
        for (a, b) in store.value(w).as_slice().iter().zip(store2.value(w2).as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits(), "resumed run must be bitwise identical");
        }
    }

    #[test]
    fn restore_rejects_shape_and_name_mismatches() {
        let mut store = ParamStore::new();
        store.add("a", Matrix::zeros(2, 2));
        let adam = Adam::default_for(&store, 0.01);
        let state = ModelState::capture(&store, &adam);

        let mut wrong_shape = ParamStore::new();
        wrong_shape.add("a", Matrix::zeros(3, 2));
        let mut adam2 = Adam::default_for(&wrong_shape, 0.01);
        assert!(matches!(state.restore(&mut wrong_shape, &mut adam2), Err(CkptError::Mismatch(_))));

        let mut wrong_name = ParamStore::new();
        wrong_name.add("z", Matrix::zeros(2, 2));
        let mut adam3 = Adam::default_for(&wrong_name, 0.01);
        assert!(matches!(state.restore(&mut wrong_name, &mut adam3), Err(CkptError::Mismatch(_))));
    }

    #[test]
    fn all_finite_detects_poison() {
        let mut store = ParamStore::new();
        store.add("a", Matrix::zeros(2, 2));
        let adam = Adam::default_for(&store, 0.01);
        let mut state = ModelState::capture(&store, &adam);
        assert!(state.all_finite());
        state.params[0].1[(0, 1)] = f32::NAN;
        assert!(!state.all_finite());
    }
}
