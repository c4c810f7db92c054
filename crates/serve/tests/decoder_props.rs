//! Decoder properties for every reader of untrusted bytes: the checkpoint
//! envelope, `ModelState` payloads, serve `ModelSnapshot` payloads, and
//! the strict and lenient trace readers.
//!
//! Each generated valid input must round-trip. Every corruption of it —
//! each truncation, each single-bit flip, a skewed version byte, and a
//! length field inflated to 2^60 at every offset — must come back as a
//! value or an `Err` without a panic, and without any single allocation
//! larger than a small multiple of the input. Binary decoders must also be
//! faithful: a corrupted input that still decodes re-encodes to exactly the
//! bytes it was decoded from. Where the corruption leaves no faithful
//! decoding (the envelope's CRC, a length that outruns the input) the
//! result must be `Err`.

use facility_ckpt::{envelope_payload, save_bytes, ModelState, Reader, Writer, FORMAT_VERSION};
use facility_datagen::{read_trace_with, write_trace, FacilityConfig, ReadMode, Trace};
use facility_linalg::prop::{check, f32_in, vec_of};
use facility_linalg::{Matrix, Rng};
use facility_serve::snapshot::ModelSnapshot;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};

/// Tracks the largest single allocation request of the current thread.
struct Tracked;

/// Requests above this are refused outright, so a decoder that trusts a
/// corrupt length aborts the test instead of exhausting the machine.
const REFUSE_BYTES: usize = 1 << 30;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged, except that oversized requests return null, which the
// `GlobalAlloc` contract allows.
unsafe impl GlobalAlloc for Tracked {
    // SAFETY: the caller upholds `GlobalAlloc`'s contract, passed on as is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        if layout.size() > REFUSE_BYTES {
            return std::ptr::null_mut();
        }
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller upholds `GlobalAlloc`'s contract, passed on as is.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        if layout.size() > REFUSE_BYTES {
            return std::ptr::null_mut();
        }
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: the caller upholds `GlobalAlloc`'s contract, passed on as is.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: the caller upholds `GlobalAlloc`'s contract, passed on as is.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        if new_size > REFUSE_BYTES {
            return std::ptr::null_mut();
        }
        // SAFETY: forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Tracked = Tracked;

/// Run `decode` and assert its largest single allocation stays within a
/// small multiple of the `input_len` bytes it was given.
fn bounded<T>(input_len: usize, what: &str, decode: impl FnOnce() -> T) -> T {
    LARGEST.with(|l| l.set(0));
    let out = decode();
    let largest = LARGEST.with(Cell::get);
    let limit = 64 * input_len + (64 << 10);
    assert!(
        largest <= limit,
        "{what}: allocated {largest} bytes at once from {input_len} input bytes"
    );
    out
}

/// Every corruption of `bytes` the properties try, with a label.
fn corruptions(bytes: &[u8]) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for cut in 0..bytes.len() {
        out.push((format!("truncated to {cut}"), bytes[..cut].to_vec()));
    }
    for bit in 0..bytes.len() * 8 {
        let mut b = bytes.to_vec();
        b[bit / 8] ^= 1 << (bit % 8);
        out.push((format!("bit {bit} flipped"), b));
    }
    for at in 0..bytes.len() {
        for (width, value) in [(8, 1u64 << 60), (4, u64::from(u32::MAX))] {
            if at + width <= bytes.len() {
                let mut b = bytes.to_vec();
                b[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
                out.push((format!("{width}-byte length {value:#x} at {at}"), b));
            }
        }
    }
    out
}

fn matrix(rng: &mut Rng) -> Matrix {
    let (r, c) = (rng.gen_range(0..4), rng.gen_range(0..4));
    Matrix::from_vec(r, c, vec_of(rng, r * c, |g| f32_in(g, -2.0..2.0)))
}

/// The payload of a random `ModelState`.
fn model_state_bytes(rng: &mut Rng) -> Vec<u8> {
    let mut s = ModelState::default();
    let n_params = rng.gen_range(0..3);
    s.params = (0..n_params).map(|i| (format!("p{i}"), matrix(rng))).collect();
    s.adam.lr = f32_in(rng, 0.0..0.1);
    s.adam.clip = rng.gen_bool(0.5).then_some(5.0);
    for _ in 0..rng.gen_range(0..3) {
        let stepped = rng.gen_bool(0.5);
        s.adam.m.push(stepped.then(|| matrix(rng)));
        s.adam.v.push(stepped.then(|| matrix(rng)));
        s.adam.t.push(rng.next_u64() % 100);
        let n_rows = rng.gen_range(0..4);
        s.adam.row_t.push(rng.gen_bool(0.5).then(|| vec_of(rng, n_rows, |g| g.next_u64() % 9)));
    }
    encode_state(&s)
}

fn encode_state(s: &ModelState) -> Vec<u8> {
    let mut w = Writer::new();
    s.encode(&mut w).expect("generated slots keep their moments paired");
    w.into_bytes()
}

fn snapshot(rng: &mut Rng) -> ModelSnapshot {
    let d = rng.gen_range(1..4);
    let (n_users, n_items) = (rng.gen_range(1..4), rng.gen_range(1..5));
    let rows =
        |rng: &mut Rng, n| Matrix::from_vec(n, d, vec_of(rng, n * d, |g| f32_in(g, -1.0..1.0)));
    let users = rows(rng, n_users);
    let items = rows(rng, n_items);
    let popularity = (0..n_items as u32).map(|i| (i, (n_items as u32 - i) as f32)).collect();
    ModelSnapshot {
        model_name: "bprmf".into(),
        epoch: rng.next_u64() % 50,
        users,
        items,
        popularity,
    }
}

#[test]
fn checkpoint_envelope_rejects_every_corruption() {
    let dir = scratch_dir("envelope");
    check("checkpoint_envelope", 24, model_state_bytes, |payload| {
        let path = dir.join("state.fkc");
        save_bytes(&path, &payload).expect("save");
        let file = std::fs::read(&path).expect("read back");
        let got =
            bounded(file.len(), "valid envelope", || envelope_payload(&file).map(<[u8]>::to_vec));
        assert_eq!(got.expect("valid envelope opens"), payload);
        for (what, bad) in corruptions(&file) {
            let got = bounded(bad.len(), &what, || envelope_payload(&bad).map(<[u8]>::to_vec));
            // The CRC covers the payload and the header covers the rest,
            // so no corruption can leave a valid envelope.
            assert!(got.is_err(), "{what}: corrupt envelope opened");
        }
        for version in (0..=u8::MAX).filter(|&v| v != FORMAT_VERSION) {
            let mut bad = file.clone();
            bad[4] = version;
            assert!(envelope_payload(&bad).is_err(), "version {version} accepted");
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn model_state_decode_is_faithful_under_corruption() {
    check("model_state_decode", 64, model_state_bytes, |bytes| {
        let decoded = ModelState::decode(&mut Reader::new(&bytes)).expect("valid state decodes");
        assert_eq!(encode_state(&decoded), bytes, "round trip");
        for (what, bad) in corruptions(&bytes) {
            let got = bounded(bad.len(), &what, || ModelState::decode(&mut Reader::new(&bad)));
            if let Ok(state) = got {
                // Decoding may stop early; what it read must re-encode
                // to exactly those bytes.
                assert!(bad.starts_with(&encode_state(&state)), "{what}: decode is not faithful");
            }
        }
    });
}

#[test]
fn snapshot_decode_is_faithful_under_corruption() {
    let gen = |rng: &mut Rng| snapshot(rng).encode();
    check("snapshot_decode", 64, gen, |bytes| {
        let decoded = ModelSnapshot::decode(&bytes).expect("valid snapshot decodes");
        assert_eq!(decoded.encode(), bytes, "round trip");
        for (what, bad) in corruptions(&bytes) {
            let got = bounded(bad.len(), &what, || ModelSnapshot::decode(&bad));
            if let Ok(snap) = got {
                assert_eq!(snap.encode(), bad, "{what}: decode is not faithful");
            }
        }
        // The version byte follows the length-prefixed tag.
        let at = 4 + u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes")) as usize;
        for version in (0..=u8::MAX).filter(|&v| v != bytes[at]) {
            let mut bad = bytes.clone();
            bad[at] = version;
            assert!(ModelSnapshot::decode(&bad).is_err(), "snapshot version {version} accepted");
        }
    });
}

const TRACE_FILES: [&str; 4] = ["meta.csv", "items.csv", "users.csv", "events.csv"];

/// A small generated trace, as the text of its four files.
fn trace_files(rng: &mut Rng) -> Vec<String> {
    let mut c = FacilityConfig::tiny();
    c.n_items = rng.gen_range(4..10);
    c.n_users = rng.gen_range(2..6);
    let trace = Trace::generate(&c, rng.next_u64());
    let dir = scratch_dir(&format!("gen-{}", rng.next_u64()));
    write_trace(&trace, &dir).expect("write trace");
    let files = TRACE_FILES.iter().map(|f| read_text(&dir.join(f))).collect();
    let _ = std::fs::remove_dir_all(&dir);
    files
}

fn read_text(path: &Path) -> String {
    std::fs::read_to_string(path).expect("trace file")
}

/// Read `files` (with `files[which]` replaced by `bad`) in both modes.
/// Asserts no large allocation, and that any trace read back is a fixed
/// point of write-then-read. Returns whether each mode accepted it.
fn read_both(dir: &Path, files: &[String], which: usize, bad: &[u8], what: &str) -> [bool; 2] {
    for (i, (name, text)) in TRACE_FILES.iter().zip(files).enumerate() {
        let body = if i == which { bad } else { text.as_bytes() };
        std::fs::write(dir.join(name), body).expect("write case");
    }
    let total: usize = files.iter().map(String::len).sum::<usize>() + bad.len();
    let modes = [ReadMode::Strict, ReadMode::Lenient { max_bad_rows: 2 }];
    modes.map(|mode| {
        let got = bounded(total, what, || read_trace_with(dir, mode));
        let Ok((trace, _)) = got else { return false };
        let again = dir.join("again");
        write_trace(&trace, &again).expect("rewrite");
        let (reread, _) = read_trace_with(&again, ReadMode::Strict).expect("rewritten trace reads");
        let second = dir.join("second");
        write_trace(&reread, &second).expect("rewrite");
        for f in TRACE_FILES {
            assert_eq!(read_text(&again.join(f)), read_text(&second.join(f)), "{what}: {f} drifts");
        }
        true
    })
}

#[test]
fn trace_readers_survive_every_truncation() {
    let dir = scratch_dir("trace-trunc");
    check("trace_truncations", 4, trace_files, |files| {
        assert_eq!(read_both(&dir, &files, 0, files[0].as_bytes(), "valid"), [true, true]);
        for (which, text) in files.iter().enumerate() {
            // Cutting before the last line's start drops a whole row.
            let last_line = text.trim_end().rfind('\n').map_or(0, |p| p + 1);
            for cut in 0..text.len() {
                let what = format!("{} truncated to {cut}", TRACE_FILES[which]);
                let ok = read_both(&dir, &files, which, &text.as_bytes()[..cut], &what);
                // Events are a plain list, so dropping rows is still a
                // trace; every other file fixes its row count.
                if which != 3 && cut < last_line {
                    assert_eq!(ok, [false, false], "{what}: accepted");
                }
            }
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_readers_survive_bit_flips_and_inflated_counts() {
    let dir = scratch_dir("trace-flip");
    let gen = |rng: &mut Rng| {
        let files = trace_files(rng);
        let which = rng.gen_range(0..files.len());
        let bit = rng.gen_range(0..files[which].len() * 8);
        (files, which, bit)
    };
    check("trace_bit_flips", 256, gen, |(files, which, bit)| {
        let mut bad = files[which].clone().into_bytes();
        bad[bit / 8] ^= 1 << (bit % 8);
        read_both(&dir, &files, which, &bad, &format!("{} bit {bit}", TRACE_FILES[which]));
    });
    check("trace_inflated_counts", 8, trace_files, |files| {
        for line in files[0].lines().skip(1) {
            let Some((key, value)) = line.split_once(',') else { continue };
            if !key.starts_with("n_") {
                continue;
            }
            let inflated = files[0].replace(line, &format!("{key},{}", 1u64 << 60));
            let what = format!("meta.csv {key} = 2^60 (was {value})");
            let ok = read_both(&dir, &files, 0, inflated.as_bytes(), &what);
            assert_eq!(ok, [false, false], "{what}: accepted");
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("facility-decoder-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}
