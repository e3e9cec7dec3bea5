//! Fuzzing the checkpoint reader: a real saved shard, damaged one byte, one
//! truncation or one length field at a time, must load as `Ok` or `Err` —
//! never a panic — and must never make the reader allocate more in one piece
//! than the file holds.
//!
//! The allocation bound is read off a counting allocator installed for this
//! test binary only: while a thread is armed, it records the largest single
//! allocation that thread asks for. The shard is larger than the reader's
//! fixed buffers (its 256 KiB staging buffer and the `BufReader`), so only a
//! buffer sized from the file's contents can come near the bound. A record of
//! 64 KiB or more is drawn from the tensor reservoir, which rounds a fresh
//! buffer up to its size class (at most an eighth, plus 64 bytes): the bound
//! allows that slack and nothing else.

use bagualu::checkpoint::{load_params, save_params};
use bagualu::model::config::ModelConfig;
use bagualu::model::transformer::Transformer;
use bagualu::tensor::rng::Rng;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    if ARMED.with(Cell::get) {
        LARGEST.with(|l| l.set(l.get().max(size)));
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// A model whose one-rank shard (≈ 560 KiB) is twice the staging buffer,
/// with 1-D and 2-D records on both sides of the reservoir cutoff.
fn config() -> ModelConfig {
    ModelConfig {
        vocab: 512,
        d_model: 64,
        ..ModelConfig::tiny()
    }
}

/// The saved shard's bytes, written once per process.
fn shard() -> &'static [u8] {
    static SHARD: OnceLock<Vec<u8>> = OnceLock::new();
    SHARD.get_or_init(|| {
        let path = scratch("clean");
        let mut model = Transformer::new(config(), &mut Rng::seed_from(5));
        save_params(&path, &mut model).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        bytes
    })
}

/// Load `bytes` into a fresh model; return whether it loaded and the
/// largest single allocation the load made.
fn load(bytes: &[u8], scratch: &Path) -> (bool, usize) {
    std::fs::write(scratch, bytes).unwrap();
    let mut model = Transformer::new(config(), &mut Rng::seed_from(6));
    LARGEST.with(|l| l.set(0));
    ARMED.with(|a| a.set(true));
    let loaded = load_params(scratch, &mut model).is_ok();
    ARMED.with(|a| a.set(false));
    std::fs::remove_file(scratch).unwrap();
    (loaded, LARGEST.with(Cell::get))
}

fn bound(file_len: usize) -> usize {
    file_len + file_len / 8 + 64
}

/// A file of this test's own in the temp directory; each test uses its tag.
fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "bagualu-shard-fuzz-{}-{tag}.bglu",
        std::process::id()
    ))
}

/// Byte offsets of every u64 length field: the header's record count, each
/// record's name length, rank and dimensions, and the trailer's count.
fn length_fields(bytes: &[u8]) -> Vec<usize> {
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let n_params = u64_at(8);
    let mut fields = vec![8];
    let mut at = 16;
    for _ in 0..n_params {
        fields.push(at);
        at += 8 + u64_at(at);
        let ndim = u64_at(at);
        fields.push(at);
        at += 8;
        let mut elems = 1;
        for _ in 0..ndim {
            fields.push(at);
            elems *= u64_at(at);
            at += 8;
        }
        at += 4 * elems + 4; // data, then the record's CRC
    }
    fields.push(at + 4); // after the trailer magic
    assert_eq!(at + 12, bytes.len(), "walked the whole file");
    fields
}

#[test]
fn the_clean_shard_loads_within_the_bound() {
    let bytes = shard();
    assert!(bytes.len() > 256 << 10, "shard of {} bytes", bytes.len());
    let (loaded, largest) = load(bytes, &scratch("clean-load"));
    assert!(loaded);
    assert!(
        largest <= bound(bytes.len()),
        "{largest} > {}",
        bound(bytes.len())
    );
}

#[test]
fn every_length_field_at_every_extreme_fails_cleanly() {
    let bytes = shard();
    let path = scratch("fields");
    let len = bytes.len() as u64;
    let fields = length_fields(bytes);
    assert!(fields.len() > 50, "{} length fields", fields.len());
    // Half the file length as a dimension of a 1-D record claims twice the
    // file: only the length check stands between it and the allocation.
    for &at in &fields {
        for value in [0, len / 2, len + 1, 1 << 40, u64::MAX] {
            let mut bad = bytes.to_vec();
            bad[at..at + 8].copy_from_slice(&value.to_le_bytes());
            let (_, largest) = load(&bad, &path);
            assert!(
                largest <= bound(bytes.len()),
                "field at {at} = {value}: allocated {largest} for a {len}-byte file"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn any_one_byte_overwritten_loads_or_fails_within_the_bound(
        at_frac in 0.0f64..1.0,
        value in any::<u8>(),
    ) {
        let bytes = shard();
        let at = ((at_frac * bytes.len() as f64) as usize).min(bytes.len() - 1);
        let mut bad = bytes.to_vec();
        bad[at] = value;
        let (loaded, largest) = load(&bad, &scratch("byte"));
        prop_assert!(!loaded || bad[..] == bytes[..], "byte {at} = {value} went undetected");
        prop_assert!(largest <= bound(bytes.len()), "byte {at} = {value}: allocated {largest}");
    }

    #[test]
    fn any_truncation_fails_within_the_bound(len_frac in 0.0f64..1.0) {
        let bytes = shard();
        let len = (len_frac * bytes.len() as f64) as usize;
        let (loaded, largest) = load(&bytes[..len], &scratch("cut"));
        prop_assert!(!loaded, "truncated at {len} of {} and loaded", bytes.len());
        prop_assert!(largest <= bound(bytes.len()), "cut at {len}: allocated {largest}");
    }
}
