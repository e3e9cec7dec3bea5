//! Binary checkpointing, monolithic and sharded.
//!
//! Brain-scale model state cannot funnel through one writer; the original
//! system checkpoints each rank's shard independently (experts are already
//! disjoint per rank). Format, hand-rolled because no serde data format is
//! in the allowed dependency set:
//!
//! ```text
//! magic "BGLU" | version u32 | n_params u64
//! repeat n_params times:
//!   name_len u64 | name utf-8 | ndim u64 | dims u64 × ndim | data f32-LE × Π dims
//!   | crc32 u32                                     (v2 only; over the record)
//! trailer "BGLT" | n_params u64                     (v2 only)
//! ```
//!
//! **Crash consistency (v2).** A checkpoint that survives a failure must
//! never decode as garbage: writes go to `<path>.tmp` and are renamed into
//! place only after an fsync, and the directory is fsynced after the
//! rename, so a crash or power loss mid-write leaves the previous file
//! intact and a completed write stays completed; every record carries a
//! CRC32 so a flipped bit fails loudly; and the trailer makes truncation at
//! a record boundary detectable. Version 1 files (no CRCs, no trailer)
//! still load.
//!
//! **Data path.** A shard is touched once in each direction. Saving streams
//! every tensor straight out of the model inside `visit_params`, through one
//! staging buffer, into the record CRC and the file — no copy of the model
//! is made. Loading walks each file once, verifying every record the model
//! names (and seeking past any it does not — other ranks' experts, on a
//! re-sharding restore), and moves the decoded tensors into the model. A
//! load that leaves a parameter unset is an error, so a restoring rank may
//! build its model without drawing a weight. The metadata readers
//! ([`read_placement`], [`read_run_config`]) walk record headers and seek
//! past the parameter data, verifying only the record they return.

use crate::runconfig::RunConfig;
use bagualu_model::param::HasParams;
use bagualu_tensor::Tensor;
use bagualu_trace::{self as trace, names};
use std::collections::{HashMap, HashSet};
use std::fs::File;
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

const MAGIC: &[u8; 4] = b"BGLU";
const TRAILER_MAGIC: &[u8; 4] = b"BGLT";
const VERSION: u32 = 2;

/// Size of the one staging buffer a shard writer or reader owns. Tensor data
/// crosses it in pieces this large — encode/decode, CRC and the `File` call
/// all see a piece while it is still cache-resident. A multiple of 16 (the
/// CRC block) and of 4 (one `f32`).
const STAGE_BYTES: usize = 256 * 1024;

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

// ------------------------------------------------------------------- CRC32

/// IEEE CRC-32 slicing tables, built at compile time. `CRC_TABLES[0]` is the
/// classic one-byte table; `CRC_TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, which is what lets sixteen input bytes be
/// folded in with sixteen independent lookups.
static CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
};

/// The four lookups for one little-endian input word whose first byte is
/// `first` bytes away from the end of a 16-byte block.
#[inline(always)]
fn crc_word(first: usize, w: u32) -> u32 {
    CRC_TABLES[first][(w & 0xFF) as usize]
        ^ CRC_TABLES[first - 1][((w >> 8) & 0xFF) as usize]
        ^ CRC_TABLES[first - 2][((w >> 16) & 0xFF) as usize]
        ^ CRC_TABLES[first - 3][(w >> 24) as usize]
}

/// Incremental IEEE CRC-32 (slicing-by-16; the value of any split of the
/// input into `update` calls is the value of the whole).
struct Crc32(u32);

impl Crc32 {
    fn new() -> Crc32 {
        Crc32(0xFFFF_FFFF)
    }

    fn update(&mut self, bytes: &[u8]) {
        let word = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        let mut crc = self.0;
        let mut blocks = bytes.chunks_exact(16);
        for b in &mut blocks {
            crc = crc_word(15, word(&b[0..4]) ^ crc)
                ^ crc_word(11, word(&b[4..8]))
                ^ crc_word(7, word(&b[8..12]))
                ^ crc_word(3, word(&b[12..16]));
        }
        for &b in blocks.remainder() {
            crc = CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        self.0 = crc;
    }

    fn finish(&self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

// ------------------------------------------------------------------ writing

/// Streams one checkpoint file: bytes are staged in a fixed buffer, record
/// bytes are folded into the open record's CRC as they are staged, and the
/// buffer goes to the file whenever it fills.
struct ShardWriter<'a> {
    file: &'a mut File,
    stage: Vec<u8>,
    len: usize,
    crc: Crc32,
    written: u64,
    write_ns: u64,
}

impl ShardWriter<'_> {
    fn new(file: &mut File) -> ShardWriter<'_> {
        ShardWriter {
            file,
            stage: vec![0u8; STAGE_BYTES],
            len: 0,
            crc: Crc32::new(),
            written: 0,
            write_ns: 0,
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        let t = Instant::now();
        self.file.write_all(&self.stage[..self.len])?;
        self.write_ns += elapsed_ns(t);
        self.written += self.len as u64;
        self.len = 0;
        Ok(())
    }

    /// Stage bytes that no record CRC covers (file header, CRC fields,
    /// trailer).
    fn raw(&mut self, mut bytes: &[u8]) -> io::Result<()> {
        while !bytes.is_empty() {
            if self.len == self.stage.len() {
                self.flush()?;
            }
            let take = bytes.len().min(self.stage.len() - self.len);
            self.stage[self.len..self.len + take].copy_from_slice(&bytes[..take]);
            self.len += take;
            bytes = &bytes[take..];
        }
        Ok(())
    }

    /// Stage bytes of the open record.
    fn summed(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.crc.update(bytes);
        self.raw(bytes)
    }

    /// Stage tensor data of the open record as little-endian `f32`s.
    fn f32s(&mut self, mut vals: &[f32]) -> io::Result<()> {
        while !vals.is_empty() {
            let room = (self.stage.len() - self.len) / 4;
            if room == 0 {
                self.flush()?;
                continue;
            }
            let take = vals.len().min(room);
            let dst = &mut self.stage[self.len..self.len + 4 * take];
            for (d, v) in dst.chunks_exact_mut(4).zip(&vals[..take]) {
                d.copy_from_slice(&v.to_le_bytes());
            }
            self.crc.update(dst);
            self.len += 4 * take;
            vals = &vals[take..];
        }
        Ok(())
    }

    fn header(&mut self, n_params: u64) -> io::Result<()> {
        self.raw(MAGIC)?;
        self.raw(&VERSION.to_le_bytes())?;
        self.raw(&n_params.to_le_bytes())
    }

    /// One record: name, shape, data, then the CRC over all three.
    fn record(&mut self, name: &str, value: &Tensor) -> io::Result<()> {
        self.crc = Crc32::new();
        self.summed(&(name.len() as u64).to_le_bytes())?;
        self.summed(name.as_bytes())?;
        self.summed(&(value.shape().len() as u64).to_le_bytes())?;
        for &d in value.shape() {
            self.summed(&(d as u64).to_le_bytes())?;
        }
        self.f32s(value.as_slice())?;
        let crc = self.crc.finish();
        self.raw(&crc.to_le_bytes())
    }

    /// Trailer, then everything still staged.
    fn finish(&mut self, n_params: u64) -> io::Result<()> {
        self.raw(TRAILER_MAGIC)?;
        self.raw(&n_params.to_le_bytes())?;
        self.flush()
    }
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut s = path.as_os_str().to_owned();
    s.push(".tmp");
    PathBuf::from(s)
}

/// Make a rename inside `path`'s directory durable. Without it a power loss
/// can forget the rename while remembering later writes — a MANIFEST naming
/// a step whose shard never reached its final name.
fn sync_parent_dir(path: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        let parent = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        File::open(parent)?.sync_all()?;
    }
    #[cfg(not(unix))]
    let _ = path;
    Ok(())
}

/// Publish a file atomically and durably: `fill` writes `<path>.tmp`, which
/// is fsynced, renamed over `path`, and the directory fsynced. A failure at
/// any point removes the staging file and leaves the previous `path` (if
/// any) untouched.
pub(crate) fn publish_atomic<T>(
    path: &Path,
    fill: impl FnOnce(&mut File) -> io::Result<T>,
) -> io::Result<T> {
    let tmp = tmp_path(path);
    let publish = || {
        let mut file = File::create(&tmp)?;
        let out = fill(&mut file)?;
        let t = Instant::now();
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, path)?;
        sync_parent_dir(path)?;
        trace::count(names::CKPT_FSYNC_NS, elapsed_ns(t));
        Ok(out)
    };
    let result = publish();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Stream the parameters `keep` selects (by position in the model's visit
/// order), then `extras`, into one atomically published file. Each tensor is
/// read once, straight out of the model. Returns bytes written.
fn save_shard(
    path: &Path,
    model: &mut dyn HasParams,
    keep: &dyn Fn(usize) -> bool,
    extras: &[(&str, Tensor)],
) -> io::Result<u64> {
    // The header carries the record count, so count before streaming; this
    // visit touches no tensor data.
    let mut n_records = extras.len() as u64;
    let mut i = 0usize;
    model.visit_params(&mut |_| {
        n_records += keep(i) as u64;
        i += 1;
    });
    publish_atomic(path, |file| {
        let t = Instant::now();
        let mut w = ShardWriter::new(file);
        w.header(n_records)?;
        let mut result = Ok(());
        let mut i = 0usize;
        model.visit_params(&mut |p| {
            if result.is_ok() && keep(i) {
                result = w.record(&p.name, &p.value);
            }
            i += 1;
        });
        result?;
        for (name, value) in extras {
            w.record(name, value)?;
        }
        w.finish(n_records)?;
        trace::count(
            names::CKPT_ENCODE_CRC_NS,
            elapsed_ns(t).saturating_sub(w.write_ns),
        );
        trace::count(names::CKPT_WRITE_NS, w.write_ns);
        trace::count(names::CKPT_BYTES_WRITTEN, w.written);
        Ok(w.written)
    })
}

// ------------------------------------------------------------------ reading

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// A `File` that counts the bytes it hands out and the time its reads take.
struct MeteredFile {
    file: File,
    bytes: u64,
    ns: u64,
}

impl Read for MeteredFile {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let t = Instant::now();
        let n = self.file.read(buf)?;
        self.ns += elapsed_ns(t);
        self.bytes += n as u64;
        Ok(n)
    }
}

impl Seek for MeteredFile {
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        self.file.seek(pos)
    }
}

/// Name and shape of one record, read ahead of its data.
struct RecordHeader {
    name: String,
    shape: Vec<usize>,
    byte_len: usize,
}

/// One forward pass over a checkpoint file. After [`ShardReader::open`] the
/// caller alternates [`ShardReader::next_header`] with either
/// [`ShardReader::payload`] (read, decode, verify the record's CRC) or
/// [`ShardReader::skip`] (seek past data and CRC, verifying neither),
/// `n_params` times, then calls [`ShardReader::finish`].
struct ShardReader {
    r: BufReader<MeteredFile>,
    version: u32,
    n_params: u64,
    /// File size: every length field is checked against it, so a corrupted
    /// field fails cleanly instead of attempting an absurd allocation.
    limit: u64,
    crc: Crc32,
    stage: Vec<u8>,
}

impl ShardReader {
    /// Open `path` and read the file header. Accepts v1 and v2.
    fn open(path: &Path) -> io::Result<ShardReader> {
        let file = File::open(path)?;
        let limit = file.metadata()?.len();
        let mut r = BufReader::new(MeteredFile {
            file,
            bytes: 0,
            ns: 0,
        });
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(bad("not a BGLU checkpoint"));
        }
        let mut ver = [0u8; 4];
        r.read_exact(&mut ver)?;
        let version = u32::from_le_bytes(ver);
        if version == 0 || version > VERSION {
            return Err(bad(format!("unsupported checkpoint version {version}")));
        }
        let mut n = [0u8; 8];
        r.read_exact(&mut n)?;
        let n_params = u64::from_le_bytes(n);
        if n_params > limit {
            return Err(bad(format!(
                "param count {n_params} exceeds file size {limit}"
            )));
        }
        Ok(ShardReader {
            r,
            version,
            n_params,
            limit,
            crc: Crc32::new(),
            stage: vec![0u8; STAGE_BYTES],
        })
    }

    /// A length field of the open record.
    fn u64_summed(&mut self) -> io::Result<u64> {
        let mut buf = [0u8; 8];
        self.r.read_exact(&mut buf)?;
        self.crc.update(&buf);
        Ok(u64::from_le_bytes(buf))
    }

    fn next_header(&mut self) -> io::Result<RecordHeader> {
        self.crc = Crc32::new();
        let name_len = self.u64_summed()?;
        if name_len > self.limit {
            return Err(bad(format!("name length {name_len} exceeds file size")));
        }
        let mut name = vec![0u8; name_len as usize];
        self.r.read_exact(&mut name)?;
        self.crc.update(&name);
        let name = String::from_utf8(name).map_err(|e| bad(e.to_string()))?;

        let ndim = self.u64_summed()?;
        if ndim > 64 {
            return Err(bad(format!("{name}: implausible rank {ndim}")));
        }
        let mut shape = Vec::with_capacity(ndim as usize);
        for _ in 0..ndim {
            let d = self.u64_summed()?;
            shape.push(usize::try_from(d).map_err(|_| bad(format!("{name}: dimension {d}")))?);
        }
        let byte_len = shape
            .iter()
            .try_fold(4usize, |a, &d| a.checked_mul(d))
            .filter(|&b| b as u64 <= self.limit)
            .ok_or_else(|| {
                bad(format!(
                    "{name}: data size for shape {shape:?} exceeds file"
                ))
            })?;
        Ok(RecordHeader {
            name,
            shape,
            byte_len,
        })
    }

    /// Read the open record's data through the staging buffer — file → CRC →
    /// `f32`s, a piece at a time — and check the record CRC (v2; v1 records
    /// carry none).
    fn payload(&mut self, h: &RecordHeader) -> io::Result<Tensor> {
        // A tensor from the start, so a restore draws its buffers from the
        // reservoir the training step recycles through, not from `malloc`.
        let mut tensor = Tensor::zeros(&h.shape);
        let mut rest = tensor.as_mut_slice();
        while !rest.is_empty() {
            let piece = &mut self.stage[..(rest.len() * 4).min(STAGE_BYTES)];
            self.r.read_exact(piece)?;
            self.crc.update(piece);
            let (filled, tail) = rest.split_at_mut(piece.len() / 4);
            for (v, c) in filled.iter_mut().zip(piece.chunks_exact(4)) {
                *v = f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            }
            rest = tail;
        }
        if self.version >= 2 {
            let mut stored = [0u8; 4];
            self.r.read_exact(&mut stored)?;
            let stored = u32::from_le_bytes(stored);
            let computed = self.crc.finish();
            if stored != computed {
                return Err(bad(format!(
                    "{}: checksum mismatch (stored {stored:#010x}, computed {computed:#010x}) — \
                     checkpoint is corrupted",
                    h.name
                )));
            }
        }
        Ok(tensor)
    }

    /// Seek past the open record's data and CRC without reading either.
    fn skip(&mut self, h: &RecordHeader) -> io::Result<()> {
        let crc_len = if self.version >= 2 { 4 } else { 0 };
        // `byte_len` is at most the file size, so this cannot overflow.
        self.r.seek_relative(h.byte_len as i64 + crc_len)
    }

    /// Check what follows the last record: the v2 trailer, or nothing.
    fn finish(mut self) -> io::Result<()> {
        if self.version >= 2 {
            let mut tail = [0u8; 12];
            self.r.read_exact(&mut tail).map_err(|_| {
                bad("truncated checkpoint: trailer missing (crash mid-write or truncation)")
            })?;
            if &tail[..4] != TRAILER_MAGIC {
                return Err(bad("corrupted checkpoint: bad trailer magic"));
            }
            let echoed = u64::from_le_bytes(tail[4..].try_into().expect("8 of 12 bytes"));
            if echoed != self.n_params {
                return Err(bad(format!(
                    "corrupted checkpoint: trailer records {echoed} params, header {}",
                    self.n_params
                )));
            }
        } else {
            // Genuine v1 files end exactly after the last record. Trailing
            // bytes mean this is really a v2 file whose version field was
            // corrupted into 1 — refuse rather than skip its CRCs.
            let mut probe = [0u8; 1];
            if self.r.read(&mut probe)? != 0 {
                return Err(bad(
                    "trailing bytes after a version-1 record set — corrupted header?",
                ));
            }
        }
        Ok(())
    }
}

impl Drop for ShardReader {
    fn drop(&mut self) {
        let file = self.r.get_ref();
        trace::count(names::CKPT_READ_NS, file.ns);
        trace::count(names::CKPT_BYTES_READ, file.bytes);
    }
}

/// Read what `model` will install from a set of files, one pass each: the
/// records it names and the metadata records are decoded and verified (v2:
/// per-record CRC32; v1: structure only); any other record — another rank's
/// experts, on a re-sharding restore — is seeked past like
/// [`read_named_record`] does, so a reader holds no more than it installs.
/// Every file's structure and trailer are still checked. A name that occurs
/// more than once keeps its last occurrence.
fn read_records(
    paths: &[impl AsRef<Path>],
    model: &mut dyn HasParams,
) -> io::Result<HashMap<String, Tensor>> {
    let mut wanted = HashSet::from([PLACEMENT_RECORD.to_string(), RUNCONFIG_RECORD.to_string()]);
    model.visit_params(&mut |p| {
        wanted.insert(p.name.clone());
    });
    let mut records = HashMap::new();
    for path in paths {
        let mut r = ShardReader::open(path.as_ref())?;
        for _ in 0..r.n_params {
            let h = r.next_header()?;
            if wanted.contains(&h.name) {
                let t = r.payload(&h)?;
                records.insert(h.name, t);
            } else {
                r.skip(&h)?;
            }
        }
        r.finish()?;
    }
    Ok(records)
}

/// Find the record called `name` by walking record headers and seeking past
/// every other record's data. Only the returned record is CRC-verified; a
/// file without the record is walked to its end and its trailer checked.
/// Damage inside a skipped record is left for the full load to report.
fn read_named_record(path: &Path, name: &str) -> io::Result<Option<Tensor>> {
    let mut r = ShardReader::open(path)?;
    for _ in 0..r.n_params {
        let h = r.next_header()?;
        if h.name == name {
            return r.payload(&h).map(Some);
        }
        r.skip(&h)?;
    }
    r.finish()?;
    Ok(None)
}

/// Move `records` into `model` by name. Every parameter of `model` must be
/// present with a matching shape — a load never leaves one unset, which is
/// what lets a restoring rank build its model without drawing a weight;
/// records the model does not name (metadata) are dropped.
fn install(mut records: HashMap<String, Tensor>, model: &mut dyn HasParams) -> io::Result<()> {
    let mut problems = Vec::new();
    model.visit_params(&mut |p| match records.remove(&p.name) {
        Some(t) if t.shape() == p.value.shape() => p.value = t,
        Some(t) => problems.push(format!(
            "{}: shape {:?} vs checkpoint {:?}",
            p.name,
            p.value.shape(),
            t.shape()
        )),
        None => problems.push(format!("{}: absent from checkpoint", p.name)),
    });
    if problems.is_empty() {
        Ok(())
    } else {
        Err(bad(problems.join("; ")))
    }
}

// ------------------------------------------------------------------ public

/// Save every parameter of `model` to one file (atomically: tmp + rename).
/// Returns bytes written.
pub fn save_params(path: impl AsRef<Path>, model: &mut dyn HasParams) -> io::Result<u64> {
    save_shard(path.as_ref(), model, &|_| true, &[])
}

// ------------------------------------------------------- placement metadata

/// Reserved record name for the expert-placement metadata record. The name
/// can never collide with a parameter (parameter names come from layer
/// constructors and contain no underscore-only prefixes), and loaders that
/// predate placement metadata skip unknown records, so the record is
/// backward- and forward-compatible.
pub const PLACEMENT_RECORD: &str = "__placement__";

/// The expert↔rank mapping a checkpoint shard was written under. Persisted
/// so a restart under a *different* mapping fails loudly instead of
/// silently loading each expert's weights into whatever expert now happens
/// to occupy the same slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacementMeta {
    /// The placement policy in force when the shard was written.
    pub placement: bagualu_parallel::ExpertPlacement,
    /// Global expert count of the sharded model.
    pub n_experts: usize,
    /// World size the shard set was written for.
    pub nranks: usize,
}

impl PlacementMeta {
    /// Encode as a 4-element tensor record
    /// `[policy_id, policy_param, n_experts, nranks]` (exact in `f32` — all
    /// fields are far below 2²⁴). The param field carries the supernode
    /// size for `Supernode`, the victim rank for `Shed`, 0 otherwise.
    fn encode(&self) -> Tensor {
        Tensor::from_vec(
            vec![
                self.placement.policy_id() as f32,
                self.placement.param() as f32,
                self.n_experts as f32,
                self.nranks as f32,
            ],
            &[4],
        )
    }

    fn decode(t: &Tensor) -> io::Result<PlacementMeta> {
        let v = t.as_slice();
        if v.len() != 4 {
            return Err(bad(format!(
                "malformed {PLACEMENT_RECORD} record: {} fields, want 4",
                v.len()
            )));
        }
        let placement =
            bagualu_parallel::ExpertPlacement::from_policy_id(v[0] as u32, v[1] as usize)
                .map_err(bad)?;
        Ok(PlacementMeta {
            placement,
            n_experts: v[2] as usize,
            nranks: v[3] as usize,
        })
    }
}

/// [`save_params`] plus a [`PLACEMENT_RECORD`] carrying `meta`. The record
/// rides in the same file with the same CRC/trailer protection; loaders
/// that only want parameters ignore it.
pub fn save_params_with_placement(
    path: impl AsRef<Path>,
    model: &mut dyn HasParams,
    meta: PlacementMeta,
) -> io::Result<u64> {
    save_params_with_meta(path, model, meta, None)
}

/// Read the placement metadata of a checkpoint file. `Ok(None)` means the
/// file predates placement metadata (written by [`save_params`] or an older
/// build) — callers must then only accept the historical round-robin
/// mapping. Walks record headers and reads only the metadata record, so it
/// vouches for that record alone, not for the parameters it seeks past.
pub fn read_placement(path: impl AsRef<Path>) -> io::Result<Option<PlacementMeta>> {
    read_named_record(path.as_ref(), PLACEMENT_RECORD)?
        .map(|t| PlacementMeta::decode(&t))
        .transpose()
}

// ------------------------------------------------------ run-config metadata

/// Reserved record name for the embedded [`RunConfig`] TOML. Like
/// [`PLACEMENT_RECORD`], the name can never collide with a parameter and
/// older loaders skip it.
pub const RUNCONFIG_RECORD: &str = "__runconfig__";

/// Encode UTF-8 text as a tensor record, one byte per element (every byte
/// value is exact in `f32`). Wasteful by 4× but reuses the checkpoint
/// format's CRC/trailer protection unchanged — config text is tiny next to
/// the parameters it rides with.
fn encode_text(text: &str) -> Tensor {
    let bytes: Vec<f32> = text.bytes().map(f32::from).collect();
    let n = bytes.len();
    Tensor::from_vec(bytes, &[n])
}

fn decode_text(record: &str, t: &Tensor) -> io::Result<String> {
    let bytes: Vec<u8> = t
        .as_slice()
        .iter()
        .map(|&v| {
            if v.fract() == 0.0 && (0.0..=255.0).contains(&v) {
                Ok(v as u8)
            } else {
                Err(bad(format!("malformed {record} record: {v} is not a byte")))
            }
        })
        .collect::<io::Result<_>>()?;
    String::from_utf8(bytes).map_err(|e| bad(format!("malformed {record} record: {e}")))
}

/// [`save_params_with_placement`] plus a [`RUNCONFIG_RECORD`] embedding the
/// run's full [`RunConfig`] as TOML, making the checkpoint self-describing:
/// `bagualu train --config` can reproduce the run that wrote it from the
/// shard alone.
pub fn save_params_with_meta(
    path: impl AsRef<Path>,
    model: &mut dyn HasParams,
    meta: PlacementMeta,
    run_config: Option<&RunConfig>,
) -> io::Result<u64> {
    let mut extras = vec![(PLACEMENT_RECORD, meta.encode())];
    if let Some(rc) = run_config {
        extras.push((RUNCONFIG_RECORD, encode_text(&rc.to_toml())));
    }
    save_shard(path.as_ref(), model, &|_| true, &extras)
}

/// Read the embedded [`RunConfig`] of a checkpoint file. `Ok(None)` means
/// the file carries no config record (an older build, or a run whose
/// config the schema could not express). A header walk like
/// [`read_placement`].
pub fn read_run_config(path: impl AsRef<Path>) -> io::Result<Option<RunConfig>> {
    let Some(t) = read_named_record(path.as_ref(), RUNCONFIG_RECORD)? else {
        return Ok(None);
    };
    let toml = decode_text(RUNCONFIG_RECORD, &t)?;
    RunConfig::from_toml(&toml).map(Some).map_err(bad)
}

/// Load parameter values by name from a single checkpoint file, read once.
/// Every parameter of `model` must be present with a matching shape; extra
/// entries in the file are seeked past (they belong to other shards' views).
pub fn load_params(path: impl AsRef<Path>, model: &mut dyn HasParams) -> io::Result<()> {
    install(read_records(&[path], model)?, model)
}

/// [`load_params`] for a restoring rank: the same single pass also yields
/// the shard's placement metadata, which `gate` judges (by panicking on a
/// mismatch) before any parameter is installed.
pub(crate) fn load_params_gated(
    path: &Path,
    model: &mut dyn HasParams,
    gate: impl FnOnce(Option<PlacementMeta>),
) -> io::Result<()> {
    let records = read_records(&[path], model)?;
    gate(
        records
            .get(PLACEMENT_RECORD)
            .map(PlacementMeta::decode)
            .transpose()?,
    );
    install(records, model)
}

/// Save `model`'s parameters split round-robin across `shards` files named
/// `shard<k>.bglu` under `dir`, each written atomically. Returns total
/// bytes written. Sharding walks the deterministic parameter order, so any
/// model with the same structure can reload with [`load_params_sharded`].
pub fn save_params_sharded(
    dir: impl AsRef<Path>,
    model: &mut dyn HasParams,
    shards: usize,
) -> io::Result<u64> {
    assert!(shards > 0);
    std::fs::create_dir_all(&dir)?;
    let mut total = 0u64;
    for s in 0..shards {
        let path = dir.as_ref().join(format!("shard{s}.bglu"));
        total += save_shard(&path, model, &|i| i % shards == s, &[])?;
    }
    Ok(total)
}

/// Load a model's parameters from a *set* of checkpoint files, by name.
///
/// This is the **repartitioning** path: a run checkpointed on `R` ranks
/// (one file per rank, disjoint experts + identical dense replicas) can be
/// restored onto `R'` ranks — each new rank passes every file and reads out
/// of each the parameters its layout owns, seeking past the rest. Duplicate
/// names across files must agree in shape (dense replicas legitimately
/// appear in every rank's file; the last occurrence wins, and replicas are
/// identical by construction).
pub fn load_params_from_files(
    paths: &[impl AsRef<Path>],
    model: &mut dyn HasParams,
) -> io::Result<()> {
    install(read_records(paths, model)?, model)
}

/// Reload a sharded checkpoint written by [`save_params_sharded`].
pub fn load_params_sharded(
    dir: impl AsRef<Path>,
    model: &mut dyn HasParams,
    shards: usize,
) -> io::Result<()> {
    let paths: Vec<PathBuf> = (0..shards)
        .map(|s| dir.as_ref().join(format!("shard{s}.bglu")))
        .collect();
    load_params_from_files(&paths, model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagualu_model::config::ModelConfig;
    use bagualu_model::transformer::Transformer;
    use bagualu_tensor::rng::Rng;
    use proptest::prelude::*;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("bagualu-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    // The data path this module replaced — clone the model, encode each
    // record into its own `Vec`, checksum it a byte at a time — kept as the
    // oracle that pins the streaming writer's bytes and the sliced CRC.

    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        crc ^ 0xFFFF_FFFF
    }

    fn collect_params(model: &mut dyn HasParams) -> Vec<(String, Tensor)> {
        let mut out = Vec::new();
        model.visit_params(&mut |p| out.push((p.name.clone(), p.value.clone())));
        out
    }

    fn encode_param(name: &str, value: &Tensor) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(name.len() as u64).to_le_bytes());
        buf.extend_from_slice(name.as_bytes());
        buf.extend_from_slice(&(value.shape().len() as u64).to_le_bytes());
        for &d in value.shape() {
            buf.extend_from_slice(&(d as u64).to_le_bytes());
        }
        for &v in value.as_slice() {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        buf
    }

    /// The whole file the old writer produced for `records`: version 2 with
    /// record CRCs and trailer, or version 1 with neither.
    fn legacy_file(version: u32, records: &[(String, Tensor)]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&version.to_le_bytes());
        out.extend_from_slice(&(records.len() as u64).to_le_bytes());
        for (name, t) in records {
            let record = encode_param(name, t);
            out.extend_from_slice(&record);
            if version >= 2 {
                out.extend_from_slice(&crc32_bytewise(&record).to_le_bytes());
            }
        }
        if version >= 2 {
            out.extend_from_slice(TRAILER_MAGIC);
            out.extend_from_slice(&(records.len() as u64).to_le_bytes());
        }
        out
    }

    fn save_params_v1(path: &Path, model: &mut dyn HasParams) {
        std::fs::write(path, legacy_file(1, &collect_params(model))).unwrap();
    }

    /// Parameters sized to land on every side of the staging buffer: tiny
    /// records that share one buffer fill, one that ends a few bytes short
    /// of a boundary, and one several buffers long with an odd length.
    struct Bag(Vec<bagualu_model::param::Param>);

    impl HasParams for Bag {
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut bagualu_model::param::Param)) {
            self.0.iter_mut().for_each(f);
        }
    }

    fn straddling_bag() -> Bag {
        let mut rng = Rng::seed_from(77);
        let stage = STAGE_BYTES / 4;
        let shapes: [&[usize]; 7] = [
            &[3],
            &[5, 7],
            &[stage - 20],
            &[1],
            &[3, stage + 1],
            &[2, 2, 2],
            &[17],
        ];
        Bag(shapes
            .iter()
            .enumerate()
            .map(|(i, shape)| {
                bagualu_model::param::Param::new(
                    format!("bag.{i}.w"),
                    Tensor::randn(shape, 1.0, &mut rng),
                )
            })
            .collect())
    }

    #[test]
    fn round_trip_restores_exact_values() {
        let dir = tmpdir("mono");
        let mut rng = Rng::seed_from(1);
        let mut a = Transformer::new(ModelConfig::tiny(), &mut rng);
        let path = dir.join("m.bglu");
        let bytes = save_params(&path, &mut a).unwrap();
        assert!(bytes > 0);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), bytes);
        // The staging file is gone after the atomic rename.
        assert!(!tmp_path(&path).exists());

        let mut b = Transformer::new(ModelConfig::tiny(), &mut Rng::seed_from(2));
        load_params(&path, &mut b).unwrap();
        let mut vals_a = Vec::new();
        a.visit_params(&mut |p| vals_a.push(p.value.clone()));
        let mut i = 0;
        b.visit_params(&mut |p| {
            assert!(p.value.approx_eq(&vals_a[i], 0.0), "param {i} differs");
            i += 1;
        });
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn loads_version_1_checkpoints() {
        let dir = tmpdir("v1");
        let path = dir.join("old.bglu");
        let mut rng = Rng::seed_from(11);
        let mut a = Transformer::new(ModelConfig::tiny(), &mut rng);
        save_params_v1(&path, &mut a);

        let mut b = Transformer::new(ModelConfig::tiny(), &mut Rng::seed_from(12));
        load_params(&path, &mut b).unwrap();
        let mut vals_a = Vec::new();
        a.visit_params(&mut |p| vals_a.push(p.value.clone()));
        let mut i = 0;
        b.visit_params(&mut |p| {
            assert!(p.value.approx_eq(&vals_a[i], 0.0), "param {i} differs");
            i += 1;
        });
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn sharded_round_trip() {
        let dir = tmpdir("shard");
        let mut rng = Rng::seed_from(3);
        let mut a = Transformer::new(ModelConfig::tiny(), &mut rng);
        save_params_sharded(&dir, &mut a, 4).unwrap();
        for s in 0..4 {
            assert!(dir.join(format!("shard{s}.bglu")).exists());
        }
        let mut b = Transformer::new(ModelConfig::tiny(), &mut Rng::seed_from(4));
        load_params_sharded(&dir, &mut b, 4).unwrap();
        let mut vals_a = Vec::new();
        a.visit_params(&mut |p| vals_a.push(p.value.clone()));
        let mut i = 0;
        b.visit_params(&mut |p| {
            assert!(p.value.approx_eq(&vals_a[i], 0.0));
            i += 1;
        });
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn repartitioning_across_rank_layouts() {
        use bagualu_parallel::model_dist::DistTransformer;
        use bagualu_parallel::moe_dist::A2aKind;
        let dir = tmpdir("repart");
        let cfg = ModelConfig {
            n_experts: 4,
            ..ModelConfig::tiny()
        };

        // "Run" on 2 ranks: each saves its shard to one file.
        let mut originals = Vec::new();
        let mut paths = Vec::new();
        for rank in 0..2 {
            let mut m = DistTransformer::new(cfg, 777, rank, 2, A2aKind::Pairwise);
            // Perturb so restored values are distinguishable from re-init.
            m.visit_params(&mut |p| p.value.scale(1.5));
            let path = dir.join(format!("rank{rank}.bglu"));
            save_params(&path, &mut m).unwrap();
            paths.push(path);
            originals.push(m);
        }

        // Restore onto 4 ranks: every new rank loads from the file set.
        for rank in 0..4 {
            let mut m = DistTransformer::new(cfg, 123, rank, 4, A2aKind::Pairwise);
            crate::checkpoint::load_params_from_files(&paths, &mut m).unwrap();
            // Every parameter must match the scaled originals by name.
            let mut want = std::collections::HashMap::new();
            for o in &mut originals {
                o.visit_params(&mut |p| {
                    want.insert(p.name.clone(), p.value.clone());
                });
            }
            m.visit_params(&mut |p| {
                assert!(
                    p.value.approx_eq(&want[&p.name], 0.0),
                    "rank {rank}: {} not restored",
                    p.name
                );
            });
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_restore_build_loads_to_the_model_a_drawn_build_loads_to() {
        use bagualu_parallel::model_dist::DistTransformer;
        use bagualu_parallel::moe_dist::A2aKind;
        use bagualu_parallel::ExpertPlacement;
        let dir = tmpdir("restore-build");
        let cfg = ModelConfig {
            n_experts: 6,
            ..ModelConfig::tiny()
        };
        // A 2-rank run's shards, values moved off their initialisation.
        let paths: Vec<PathBuf> = (0..2)
            .map(|rank| {
                let mut m = DistTransformer::new(cfg, 777, rank, 2, A2aKind::Pairwise);
                m.visit_params(&mut |p| p.value.scale(1.5));
                let path = dir.join(format!("rank{rank}.bglu"));
                save_params(&path, &mut m).unwrap();
                path
            })
            .collect();

        // Restored in place (own shard) and re-sharded onto 3 ranks: a model
        // that drew nothing ends up bit for bit where a drawn one does, and a
        // shard set without one of its experts fails instead of leaving the
        // zeros in place.
        for (nranks, placement) in [
            (2, ExpertPlacement::RoundRobin),
            (3, ExpertPlacement::RoundRobin),
            (3, ExpertPlacement::Shed { victim: 0 }),
        ] {
            for rank in 0..nranks {
                let a2a = A2aKind::Pairwise;
                let mut drawn = DistTransformer::new_placed(cfg, 5, rank, nranks, a2a, placement);
                let mut shell =
                    DistTransformer::new_for_restore(cfg, 5, rank, nranks, a2a, placement);
                let files = if nranks == 2 {
                    &paths[rank..=rank]
                } else {
                    &paths[..]
                };
                load_params_from_files(files, &mut drawn).unwrap();
                load_params_from_files(files, &mut shell).unwrap();
                let want = collect_params(&mut drawn);
                let got = collect_params(&mut shell);
                assert_eq!(want.len(), got.len());
                for ((wn, wv), (gn, gv)) in want.iter().zip(&got) {
                    assert_eq!(wn, gn);
                    assert_eq!(wv.shape(), gv.shape(), "{wn}");
                    let bits = |t: &Tensor| -> Vec<u32> {
                        t.as_slice().iter().map(|v| v.to_bits()).collect()
                    };
                    assert_eq!(bits(wv), bits(gv), "{nranks} ranks, rank {rank}: {wn}");
                }
                if nranks == 3 {
                    let err = load_params_from_files(&paths[1..], &mut shell).unwrap_err();
                    assert!(err.to_string().contains("absent from checkpoint"), "{err}");
                }
            }
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn resharding_load_seeks_past_the_records_it_does_not_install() {
        use bagualu_parallel::model_dist::DistTransformer;
        use bagualu_parallel::moe_dist::A2aKind;
        use bagualu_parallel::ExpertPlacement::RoundRobin;
        let dir = tmpdir("reshard-skip");
        // Experts large next to the reader's 8 KiB read-ahead, which is what
        // a seek throws away.
        let cfg = ModelConfig {
            n_experts: 8,
            d_ff: 512,
            ..ModelConfig::tiny()
        };
        let mut total = 0;
        let paths: Vec<PathBuf> = (0..2)
            .map(|rank| {
                let mut m = DistTransformer::new(cfg, 31, rank, 2, A2aKind::Pairwise);
                let path = dir.join(format!("rank{rank}.bglu"));
                total += save_params(&path, &mut m).unwrap();
                path
            })
            .collect();
        // One of four new ranks owns 2 of the 8 experts: it reads both dense
        // replicas and those two, and a flipped bit inside an expert it
        // skipped is left for the rank that installs that expert.
        let mut m = DistTransformer::new_for_restore(cfg, 31, 0, 4, A2aKind::Pairwise, RoundRobin);
        let col = trace::TraceCollector::new();
        {
            let _lane = col.install(0);
            load_params_from_files(&paths, &mut m).unwrap();
        }
        let read = col.finish().counter_total(names::CKPT_BYTES_READ);
        let expert_bytes = (4 * 2 * cfg.d_model * cfg.d_ff) as u64;
        assert!(
            read < total - 5 * expert_bytes && read > total - 7 * expert_bytes,
            "read {read} of {total} bytes ({expert_bytes} per expert, 6 skipped)"
        );

        // Rank 1's shard holds experts 1, 3, 5, 7 last; its tail is expert 7.
        let mut data = std::fs::read(&paths[1]).unwrap();
        let in_expert_7 = data.len() - 12 - 4 - 64;
        data[in_expert_7] ^= 0x04;
        std::fs::write(&paths[1], &data).unwrap();
        load_params_from_files(&paths, &mut m).unwrap();
        let mut owner =
            DistTransformer::new_for_restore(cfg, 31, 3, 4, A2aKind::Pairwise, RoundRobin);
        let err = load_params_from_files(&paths, &mut owner).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn placement_record_round_trips_and_is_ignored_by_load_params() {
        use bagualu_parallel::ExpertPlacement;
        let dir = tmpdir("placement");
        let path = dir.join("m.bglu");
        let mut a = Transformer::new(ModelConfig::tiny(), &mut Rng::seed_from(21));
        let meta = PlacementMeta {
            placement: ExpertPlacement::Supernode { supernode_size: 2 },
            n_experts: 4,
            nranks: 4,
        };
        save_params_with_placement(&path, &mut a, meta).unwrap();
        assert_eq!(read_placement(&path).unwrap(), Some(meta));
        // Parameter loading skips the metadata record.
        let mut b = Transformer::new(ModelConfig::tiny(), &mut Rng::seed_from(22));
        load_params(&path, &mut b).unwrap();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn legacy_checkpoint_has_no_placement_record() {
        let dir = tmpdir("placement-legacy");
        let path = dir.join("m.bglu");
        let mut a = Transformer::new(ModelConfig::tiny(), &mut Rng::seed_from(23));
        save_params(&path, &mut a).unwrap();
        assert_eq!(read_placement(&path).unwrap(), None);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn rejects_wrong_magic() {
        let dir = tmpdir("magic");
        let path = dir.join("bad.bglu");
        std::fs::write(&path, b"NOPE\x02\x00\x00\x00").unwrap();
        let mut rng = Rng::seed_from(5);
        let mut m = Transformer::new(ModelConfig::tiny(), &mut rng);
        let err = load_params(&path, &mut m).unwrap_err();
        assert!(err.to_string().contains("not a BGLU checkpoint"));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn rejects_future_version() {
        let dir = tmpdir("ver");
        let path = dir.join("future.bglu");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&99u32.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        std::fs::write(&path, bytes).unwrap();
        let mut m = Transformer::new(ModelConfig::tiny(), &mut Rng::seed_from(5));
        let err = load_params(&path, &mut m).unwrap_err();
        assert!(err.to_string().contains("unsupported checkpoint version"));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn rejects_shape_mismatch() {
        let dir = tmpdir("shape");
        let path = dir.join("m.bglu");
        let mut rng = Rng::seed_from(6);
        let mut a = Transformer::new(ModelConfig::tiny(), &mut rng);
        save_params(&path, &mut a).unwrap();
        // A model with a different d_model cannot load it.
        let other = ModelConfig {
            d_model: 16,
            n_heads: 2,
            ..ModelConfig::tiny()
        };
        let mut b = Transformer::new(other, &mut Rng::seed_from(7));
        assert!(load_params(&path, &mut b).is_err());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn rejects_truncated_file() {
        let dir = tmpdir("trunc");
        let path = dir.join("m.bglu");
        let mut a = Transformer::new(ModelConfig::tiny(), &mut Rng::seed_from(8));
        let bytes = save_params(&path, &mut a).unwrap();
        // Chop off the trailer (simulates a crash mid-write on a filesystem
        // without the atomic rename).
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..(bytes as usize - 6)]).unwrap();
        let mut b = Transformer::new(ModelConfig::tiny(), &mut Rng::seed_from(9));
        assert!(load_params(&path, &mut b).is_err(), "truncation must fail");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn rejects_single_flipped_bit_in_data() {
        let dir = tmpdir("flip");
        let path = dir.join("m.bglu");
        let mut a = Transformer::new(ModelConfig::tiny(), &mut Rng::seed_from(10));
        save_params(&path, &mut a).unwrap();
        let mut data = std::fs::read(&path).unwrap();
        // Flip one bit deep inside the tensor data region.
        let mid = data.len() / 2;
        data[mid] ^= 0x10;
        std::fs::write(&path, &data).unwrap();
        let mut b = Transformer::new(ModelConfig::tiny(), &mut Rng::seed_from(9));
        let err = load_params(&path, &mut b).unwrap_err();
        assert!(
            err.to_string().contains("checksum mismatch"),
            "want checksum error, got: {err}"
        );
        let _ = std::fs::remove_dir_all(dir);
    }
    #[test]
    fn crc32_check_value() {
        let mut crc = Crc32::new();
        crc.update(b"123456789");
        assert_eq!(crc.finish(), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(Crc32::new().finish(), 0);
    }

    #[test]
    fn sliced_crc_matches_bytewise_oracle_at_every_length_and_alignment() {
        let mut rng = Rng::seed_from(5);
        let buf: Vec<u8> = (0..4096 + 16).map(|_| rng.next_u64() as u8).collect();
        for align in 0..16 {
            let data = &buf[align..];
            // The oracle's value for each prefix, carried from the last one.
            let mut oracle = 0xFFFF_FFFFu32;
            for len in 0..=4096usize {
                let mut crc = Crc32::new();
                crc.update(&data[..len]);
                assert_eq!(
                    crc.finish(),
                    oracle ^ 0xFFFF_FFFF,
                    "length {len} at alignment {align}"
                );
                oracle =
                    CRC_TABLES[0][((oracle ^ data[len] as u32) & 0xFF) as usize] ^ (oracle >> 8);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        // Any split of the input into incremental updates, starting at any
        // alignment, gives the oracle's value for the whole.
        #[test]
        fn sliced_crc_is_split_invariant(
            bytes in proptest::collection::vec(any::<u8>(), 0..4097),
            start in 0usize..16,
            cuts in (any::<usize>(), any::<usize>()),
        ) {
            let data = &bytes[start.min(bytes.len())..];
            let a = cuts.0 % (data.len() + 1);
            let b = a + cuts.1 % (data.len() - a + 1);
            let mut crc = Crc32::new();
            crc.update(&data[..a]);
            crc.update(&data[a..b]);
            crc.update(&data[b..]);
            prop_assert_eq!(crc.finish(), crc32_bytewise(data));
        }
    }

    #[test]
    fn streaming_writer_reproduces_the_old_writers_bytes() {
        use bagualu_parallel::ExpertPlacement;
        let dir = tmpdir("golden");
        let path = dir.join("m.bglu");
        let meta = PlacementMeta {
            placement: ExpertPlacement::Shed { victim: 1 },
            n_experts: 8,
            nranks: 2,
        };
        let rc = RunConfig::default();
        let mut tiny = Transformer::new(ModelConfig::tiny(), &mut Rng::seed_from(31));
        let mut bag = straddling_bag();
        let models: [&mut dyn HasParams; 2] = [&mut tiny, &mut bag];
        for model in models {
            let params = collect_params(model);
            let with = |extras: &[(&str, Tensor)]| {
                let mut records = params.clone();
                records.extend(extras.iter().map(|(n, t)| (n.to_string(), t.clone())));
                legacy_file(2, &records)
            };

            let n = save_params(&path, model).unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), with(&[]), "save_params");
            assert_eq!(n, std::fs::metadata(&path).unwrap().len());

            save_params_with_placement(&path, model, meta).unwrap();
            assert_eq!(
                std::fs::read(&path).unwrap(),
                with(&[(PLACEMENT_RECORD, meta.encode())]),
                "save_params_with_placement"
            );

            save_params_with_meta(&path, model, meta, Some(&rc)).unwrap();
            assert_eq!(
                std::fs::read(&path).unwrap(),
                with(&[
                    (PLACEMENT_RECORD, meta.encode()),
                    (RUNCONFIG_RECORD, encode_text(&rc.to_toml())),
                ]),
                "save_params_with_meta"
            );

            let shards = 3;
            let total = save_params_sharded(&dir, model, shards).unwrap();
            let mut want_total = 0;
            for s in 0..shards {
                let part: Vec<_> = params.iter().skip(s).step_by(shards).cloned().collect();
                let want = legacy_file(2, &part);
                want_total += want.len() as u64;
                let got = std::fs::read(dir.join(format!("shard{s}.bglu"))).unwrap();
                assert_eq!(got, want, "save_params_sharded shard {s}");
            }
            assert_eq!(total, want_total);
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn metadata_walk_returns_what_the_full_read_holds() {
        use bagualu_parallel::ExpertPlacement;
        let dir = tmpdir("walk");
        let path = dir.join("m.bglu");
        let meta = PlacementMeta {
            placement: ExpertPlacement::Block,
            n_experts: 4,
            nranks: 2,
        };
        let rc = RunConfig::default();
        let mut bag = straddling_bag();

        save_params_with_meta(&path, &mut bag, meta, Some(&rc)).unwrap();
        let full = read_records(&[&path], &mut bag).unwrap();
        assert_eq!(
            read_placement(&path).unwrap(),
            Some(PlacementMeta::decode(&full[PLACEMENT_RECORD]).unwrap())
        );
        assert_eq!(read_placement(&path).unwrap(), Some(meta));
        assert_eq!(
            read_run_config(&path).unwrap().map(|c| c.to_toml()),
            Some(decode_text(RUNCONFIG_RECORD, &full[RUNCONFIG_RECORD]).unwrap())
        );
        assert_eq!(read_run_config(&path).unwrap(), Some(rc));

        // Placement but no config; then neither (v2 and v1).
        save_params_with_placement(&path, &mut bag, meta).unwrap();
        assert_eq!(read_placement(&path).unwrap(), Some(meta));
        assert_eq!(read_run_config(&path).unwrap(), None);
        save_params(&path, &mut bag).unwrap();
        assert_eq!(read_placement(&path).unwrap(), None);
        assert_eq!(read_run_config(&path).unwrap(), None);
        save_params_v1(&path, &mut bag);
        assert_eq!(read_placement(&path).unwrap(), None);
        assert_eq!(read_run_config(&path).unwrap(), None);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn metadata_walk_seeks_past_parameters_and_leaves_their_damage_to_the_load() {
        use bagualu_parallel::ExpertPlacement;
        let dir = tmpdir("walk-skip");
        let path = dir.join("m.bglu");
        let meta = PlacementMeta {
            placement: ExpertPlacement::RoundRobin,
            n_experts: 4,
            nranks: 2,
        };
        let mut bag = straddling_bag();
        let len = save_params_with_placement(&path, &mut bag, meta).unwrap();

        // The walk reads a small fraction of the file…
        let col = trace::TraceCollector::new();
        {
            let _lane = col.install(0);
            assert_eq!(read_placement(&path).unwrap(), Some(meta));
        }
        let walked = col.finish().counter_total(names::CKPT_BYTES_READ);
        assert!(
            walked > 0 && walked < len / 4,
            "walk read {walked} of {len} bytes"
        );

        // …so a flip inside a payload it skipped goes unseen by the walk,
        // and is still caught by the full load. A flip inside the record it
        // returns is caught by the walk itself.
        let clean = std::fs::read(&path).unwrap();
        let mut data = clean.clone();
        data[clean.len() / 2] ^= 0x04;
        std::fs::write(&path, &data).unwrap();
        assert_eq!(read_placement(&path).unwrap(), Some(meta));
        let err = load_params(&path, &mut straddling_bag()).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");

        let mut data = clean;
        let in_placement_payload = data.len() - 12 - 4 - 3;
        data[in_placement_payload] ^= 0x04;
        std::fs::write(&path, &data).unwrap();
        let err = read_placement(&path).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn full_load_reads_the_file_exactly_once() {
        let dir = tmpdir("once");
        let path = dir.join("m.bglu");
        let mut bag = straddling_bag();
        let len = save_params(&path, &mut bag).unwrap();
        let col = trace::TraceCollector::new();
        {
            let _lane = col.install(0);
            load_params(&path, &mut straddling_bag()).unwrap();
        }
        assert_eq!(col.finish().counter_total(names::CKPT_BYTES_READ), len);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn failed_publish_removes_its_staging_file_and_keeps_the_old_one() {
        let dir = tmpdir("publish-fail");
        let path = dir.join("MANIFEST");
        publish_atomic(&path, |f| f.write_all(b"4\n")).unwrap();
        let err = publish_atomic(&path, |f| {
            f.write_all(b"garbage that must never be seen")?;
            Err::<(), _>(io::Error::other("disk full"))
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "disk full");
        assert!(!tmp_path(&path).exists(), "stale staging file left behind");
        assert_eq!(std::fs::read(&path).unwrap(), b"4\n");
        let _ = std::fs::remove_dir_all(dir);
    }
}
