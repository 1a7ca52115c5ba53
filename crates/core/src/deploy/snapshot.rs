//! Versioned binary snapshots of the packed deploy engine.
//!
//! Serving replicas cold-start by reading [`BitPlane`] words straight
//! into memory instead of re-training, re-deploying and re-lowering a
//! [`DeployedModel`](super::DeployedModel) — on the serving box the model
//! artifact *is* the lowered [`PackedModel`], so that is what the
//! snapshot persists. The vendored `serde` is a no-op stub (the build
//! environment is offline), so the codec is hand-rolled.
//!
//! Only the *primitive* state of each stage is written: weight bitplanes,
//! tile boundaries, comparator tables, dead-column overrides, operating
//! point. The derived acceleration state (tile word spans, SWAR
//! comparator tables) is rebuilt on load — fault injection keeps the
//! `dead` table and the SWAR biases mutually consistent (the same rule
//! builds both), so a loaded model is bit-identical to the one saved
//! even after a fault campaign mutated it. The worker count is a runtime
//! knob, not model state, and is not persisted.
//!
//! # Wire format (version 1)
//!
//! Everything is **little-endian**. Integers are fixed-width (`u8`,
//! `u32`, `u64`, `i64`); floats are IEEE-754 bit patterns written with
//! `to_le_bytes`, so round-trips are bit-exact. Lengths and indices are
//! `u64`.
//!
//! ```text
//! magic      8 × u8    b"SBNNSNAP"
//! version    u32       1
//! input      3 × u64   input shape [C, H, W]
//! stages     u32       stage count, then per stage:
//!   tag      u8        0 = conv, 1 = pool, 2 = linear, 3 = flatten
//!   conv     in_c, k, stride, pad (u64 each), then a matrix
//!   pool     flag count (u64), then count × u8 AND-pool flags
//!   linear   a matrix
//! classifier
//!   out, fan_in        u64 each
//!   alphas             out × f32
//!   bias               out × f32
//!   rows               out × ⌈fan_in/64⌉ u64 weight words (bit = +1)
//! ```
//!
//! A **matrix** is the primitive state of a
//! [`PackedTiledMatrix`]:
//!
//! ```text
//! fan_in, out          u64 each
//! k                    u64      row-tile count
//! row_starts           (k+1) × u64   ascending, first 0, last fan_in
//! groups               u64      column-group count
//! col_starts           (groups+1) × u64   ascending, first 0, last out
//! min_sums             out·k × i64   channel-major comparator thresholds
//! dead                 out·k × u8    0 live, 1 stuck '0', 2 stuck '1'
//! thresholds_ua        out·k × f64   programmed analog thresholds
//! grayzone_ua          f64
//! attenuation          a_ua f64, b f64
//! window               u64      SC observation window L
//! counter              u8       0 exact, 1 approximate
//! flips                out × u8
//! weights              out × ⌈fan_in/64⌉ u64 plane words per row
//! ```
//!
//! Weight rows follow the workspace bitplane layout: bit `i` of a row is
//! word `i / 64`, bit `i % 64`, and bits past `fan_in` **must** be zero
//! (the zero-tail invariant the SWAR garbage-folding relies on); the
//! decoder rejects snapshots that violate it. The decoder also validates
//! tile boundaries, table lengths and the layer shape chain end-to-end,
//! so a corrupt file yields a [`SnapshotError`], never a panic deep in a
//! kernel.

use super::model::DeployedClassifier;
use super::packed::{MatrixParts, PackedModel, PackedTiledMatrix};
use super::pipeline::{PackedConvStage, PackedLayer, PackedLinearStage, PackedPoolStage};
use aqfp_crossbar::AttenuationModel;
use aqfp_sc::accumulate::CounterKind;
use aqfp_sc::{BitPlane, PackedMatrix};
use baselines::software::PopcountLinear;
use std::fmt;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

/// The 8-byte magic prefix of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"SBNNSNAP";

/// The wire-format version this build writes (and the only one it reads).
pub const SNAPSHOT_VERSION: u32 = 1;

/// Sanity cap on every length field — far above any deployable geometry,
/// low enough that a corrupt length errors instead of attempting a
/// multi-gigabyte allocation.
const MAX_LEN: u64 = 1 << 28;

/// Sanity cap on the pipeline stage count.
const MAX_STAGES: u32 = 4096;

const TAG_CONV: u8 = 0;
const TAG_POOL: u8 = 1;
const TAG_LINEAR: u8 = 2;
const TAG_FLATTEN: u8 = 3;

/// Errors raised while writing or reading a snapshot.
#[derive(Debug)]
#[non_exhaustive]
pub enum SnapshotError {
    /// An underlying I/O failure (including truncated files, which
    /// surface as [`std::io::ErrorKind::UnexpectedEof`]).
    Io(std::io::Error),
    /// The file does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The file's wire-format version is not [`SNAPSHOT_VERSION`].
    UnsupportedVersion(
        /// The version the file claims.
        u32,
    ),
    /// The file decodes but violates a structural invariant.
    Corrupt(
        /// Which invariant failed.
        &'static str,
    ),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a packed-model snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (this build reads {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

type Result<T> = std::result::Result<T, SnapshotError>;

// ------------------------------------------------------------------
// Primitive writers (all little-endian).
// ------------------------------------------------------------------

fn w_u8<W: Write>(w: &mut W, v: u8) -> Result<()> {
    Ok(w.write_all(&[v])?)
}

pub(crate) fn w_u32<W: Write>(w: &mut W, v: u32) -> Result<()> {
    Ok(w.write_all(&v.to_le_bytes())?)
}

pub(crate) fn w_u64<W: Write>(w: &mut W, v: u64) -> Result<()> {
    Ok(w.write_all(&v.to_le_bytes())?)
}

fn w_i64<W: Write>(w: &mut W, v: i64) -> Result<()> {
    Ok(w.write_all(&v.to_le_bytes())?)
}

pub(crate) fn w_f32<W: Write>(w: &mut W, v: f32) -> Result<()> {
    Ok(w.write_all(&v.to_le_bytes())?)
}

fn w_f64<W: Write>(w: &mut W, v: f64) -> Result<()> {
    Ok(w.write_all(&v.to_le_bytes())?)
}

// ------------------------------------------------------------------
// Primitive readers.
// ------------------------------------------------------------------

fn r_bytes<R: Read, const N: usize>(r: &mut R) -> Result<[u8; N]> {
    let mut buf = [0u8; N];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

fn r_u8<R: Read>(r: &mut R) -> Result<u8> {
    Ok(r_bytes::<R, 1>(r)?[0])
}

pub(crate) fn r_u32<R: Read>(r: &mut R) -> Result<u32> {
    Ok(u32::from_le_bytes(r_bytes(r)?))
}

pub(crate) fn r_u64<R: Read>(r: &mut R) -> Result<u64> {
    Ok(u64::from_le_bytes(r_bytes(r)?))
}

fn r_i64<R: Read>(r: &mut R) -> Result<i64> {
    Ok(i64::from_le_bytes(r_bytes(r)?))
}

pub(crate) fn r_f32<R: Read>(r: &mut R) -> Result<f32> {
    Ok(f32::from_le_bytes(r_bytes(r)?))
}

fn r_f64<R: Read>(r: &mut R) -> Result<f64> {
    Ok(f64::from_le_bytes(r_bytes(r)?))
}

/// A length/index field, bounded by the sanity cap.
pub(crate) fn r_len<R: Read>(r: &mut R) -> Result<usize> {
    let v = r_u64(r)?;
    if v > MAX_LEN {
        return Err(SnapshotError::Corrupt("length field beyond sanity cap"));
    }
    Ok(v as usize)
}

/// Reads `n` values with `read`. The vector grows with the values
/// actually decoded, never reserved from the declared count, so a corrupt
/// count runs out of data instead of allocating for it.
pub(crate) fn r_vec<R: Read, T>(
    r: &mut R,
    n: usize,
    read: fn(&mut R) -> Result<T>,
) -> Result<Vec<T>> {
    (0..n).map(|_| read(r)).collect()
}

pub(crate) fn r_u64s<R: Read>(r: &mut R, n: usize) -> Result<Vec<u64>> {
    r_vec(r, n, r_u64)
}

/// Reads `n` raw bytes, sized by the bytes actually present.
fn r_byte_vec<R: Read>(r: &mut R, n: usize) -> Result<Vec<u8>> {
    let mut v = Vec::new();
    r.take(n as u64).read_to_end(&mut v)?;
    if v.len() < n {
        return Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof).into());
    }
    Ok(v)
}

/// The element count of a declared `[C, H, W]` shape: `None` when it is
/// empty, overflows, or exceeds the sanity cap — the bound every decoder
/// checks before sizing anything by a shape.
pub(crate) fn shape_volume(shape: [usize; 3]) -> Option<usize> {
    shape
        .iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
        .filter(|&v| v > 0 && v as u64 <= MAX_LEN)
}

// ------------------------------------------------------------------
// Matrix codec.
// ------------------------------------------------------------------

fn write_matrix<W: Write>(w: &mut W, m: &PackedTiledMatrix) -> Result<()> {
    let p = m.to_parts();
    w_u64(w, p.fan_in as u64)?;
    w_u64(w, p.out as u64)?;
    w_u64(w, (p.row_starts.len() - 1) as u64)?;
    for &s in &p.row_starts {
        w_u64(w, s as u64)?;
    }
    w_u64(w, (p.col_starts.len() - 1) as u64)?;
    for &s in &p.col_starts {
        w_u64(w, s as u64)?;
    }
    for &m in &p.min_sums {
        w_i64(w, m)?;
    }
    for &d in &p.dead {
        w_u8(w, d)?;
    }
    for &t in &p.thresholds_ua {
        w_f64(w, t)?;
    }
    w_f64(w, p.grayzone_ua)?;
    w_f64(w, p.attenuation.a_ua)?;
    w_f64(w, p.attenuation.b)?;
    w_u64(w, p.window as u64)?;
    w_u8(
        w,
        match p.counter {
            CounterKind::Exact => 0,
            CounterKind::Approximate => 1,
        },
    )?;
    for &f in &p.flips {
        w_u8(w, f as u8)?;
    }
    w.write_all(
        &p.weights
            .storage()
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .collect::<Vec<u8>>(),
    )?;
    Ok(())
}

/// Reads ascending tile boundaries: `count + 1` entries, first `0`, last
/// `end`, strictly increasing.
fn r_boundaries<R: Read>(r: &mut R, count: usize, end: usize) -> Result<Vec<usize>> {
    let raw = r_u64s(r, count + 1)?;
    let starts: Vec<usize> = raw.iter().map(|&v| v as usize).collect();
    let ascending = starts.windows(2).all(|w| w[0] < w[1]);
    if raw.iter().any(|&v| v > MAX_LEN) || starts[0] != 0 || !ascending || starts[count] != end {
        return Err(SnapshotError::Corrupt("tile boundaries out of order"));
    }
    Ok(starts)
}

fn read_matrix<R: Read>(r: &mut R) -> Result<PackedTiledMatrix> {
    let fan_in = r_len(r)?;
    let out = r_len(r)?;
    if fan_in == 0 || out == 0 {
        return Err(SnapshotError::Corrupt("matrix with zero geometry"));
    }
    let k = r_len(r)?;
    if k == 0 {
        return Err(SnapshotError::Corrupt("matrix with zero row tiles"));
    }
    let row_starts = r_boundaries(r, k, fan_in)?;
    let groups = r_len(r)?;
    if groups == 0 {
        return Err(SnapshotError::Corrupt("matrix with zero column groups"));
    }
    let col_starts = r_boundaries(r, groups, out)?;
    let cells = out
        .checked_mul(k)
        .filter(|&c| c as u64 <= MAX_LEN)
        .ok_or(SnapshotError::Corrupt("comparator table beyond sanity cap"))?;
    let min_sums = r_vec(r, cells, r_i64)?;
    let dead = r_byte_vec(r, cells)?;
    if dead.iter().any(|&d| d > 2) {
        return Err(SnapshotError::Corrupt("dead-column override out of range"));
    }
    let thresholds_ua = r_vec(r, cells, r_f64)?;
    if thresholds_ua.iter().any(|t| !t.is_finite()) {
        return Err(SnapshotError::Corrupt("non-finite neuron threshold"));
    }
    let grayzone_ua = r_f64(r)?;
    if !grayzone_ua.is_finite() || grayzone_ua < 0.0 {
        return Err(SnapshotError::Corrupt("gray-zone width out of range"));
    }
    let a_ua = r_f64(r)?;
    let b = r_f64(r)?;
    if !(a_ua.is_finite() && a_ua > 0.0 && b.is_finite() && b > 0.0) {
        return Err(SnapshotError::Corrupt("attenuation model out of range"));
    }
    let window = r_len(r)?;
    if window == 0 {
        return Err(SnapshotError::Corrupt("zero observation window"));
    }
    let counter = match r_u8(r)? {
        0 => CounterKind::Exact,
        1 => CounterKind::Approximate,
        _ => return Err(SnapshotError::Corrupt("unknown counter kind")),
    };
    let flip_bytes = r_byte_vec(r, out)?;
    if flip_bytes.iter().any(|&f| f > 1) {
        return Err(SnapshotError::Corrupt("flip flag out of range"));
    }
    let flips: Vec<bool> = flip_bytes.into_iter().map(|f| f == 1).collect();
    let wpr = fan_in.div_ceil(64);
    let word_count = out
        .checked_mul(wpr)
        .filter(|&c| c as u64 <= MAX_LEN)
        .ok_or(SnapshotError::Corrupt("weight plane beyond sanity cap"))?;
    let words = r_u64s(r, word_count)?;
    // The zero-tail invariant: bits past `fan_in` must be zero in every
    // row, or the SWAR garbage-folded comparator thresholds are wrong.
    let rem = fan_in % 64;
    if rem > 0 {
        let tail_mask = !((1u64 << rem) - 1);
        if words
            .iter()
            .skip(wpr - 1)
            .step_by(wpr)
            .any(|&w| w & tail_mask != 0)
        {
            return Err(SnapshotError::Corrupt("weight tail bits not zero"));
        }
    }
    let mut weights = PackedMatrix::zeros(out, fan_in);
    weights.storage_mut().copy_from_slice(&words);
    Ok(PackedTiledMatrix::from_parts(MatrixParts {
        weights,
        row_starts,
        col_starts,
        min_sums,
        dead,
        thresholds_ua,
        grayzone_ua,
        attenuation: AttenuationModel { a_ua, b },
        window,
        counter,
        flips,
        fan_in,
        out,
    }))
}

// ------------------------------------------------------------------
// Pipeline shape-chain validation.
// ------------------------------------------------------------------

/// Walks the decoded stages from the input shape and checks every
/// geometry seam the runtime kernels would otherwise `assert!` on, so a
/// cross-layer-corrupt snapshot errors at load time. Every product of
/// declared fields is checked, so a crafted header cannot overflow it.
fn validate_chain(
    input_shape: [usize; 3],
    layers: &[PackedLayer],
    classifier_fan_in: usize,
) -> Result<()> {
    let out_of_range = || SnapshotError::Corrupt("stage shape out of range");
    let mut shape = input_shape;
    let mut volume = shape_volume(shape).ok_or_else(out_of_range)?;
    for layer in layers {
        shape = match layer {
            PackedLayer::Conv(c) => {
                let (in_c, k, stride, pad) = c.geometry();
                let [ch, h, w] = shape;
                if ch != in_c {
                    return Err(SnapshotError::Corrupt("conv input channel mismatch"));
                }
                let fan_in = in_c.checked_mul(k).and_then(|v| v.checked_mul(k));
                if fan_in != Some(c.matrix().fan_in()) {
                    return Err(SnapshotError::Corrupt("conv fan-in / geometry mismatch"));
                }
                let (span_h, span_w) = (h + 2 * pad, w + 2 * pad);
                if span_h < k || span_w < k {
                    return Err(SnapshotError::Corrupt("conv kernel larger than input"));
                }
                [
                    c.matrix().out(),
                    (span_h - k) / stride + 1,
                    (span_w - k) / stride + 1,
                ]
            }
            PackedLayer::Pool(p) => {
                let [c, h, w] = shape;
                if p.and_channels().len() != c {
                    return Err(SnapshotError::Corrupt("pool channel-flag count mismatch"));
                }
                if h == 0 || w == 0 || h % 2 != 0 || w % 2 != 0 {
                    return Err(SnapshotError::Corrupt("pool on odd spatial dims"));
                }
                [c, h / 2, w / 2]
            }
            PackedLayer::Linear(l) => {
                if l.matrix().fan_in() != volume {
                    return Err(SnapshotError::Corrupt("linear fan-in mismatch"));
                }
                [l.matrix().out(), 1, 1]
            }
            PackedLayer::Flatten => [volume, 1, 1],
        };
        volume = shape_volume(shape).ok_or_else(out_of_range)?;
    }
    if volume != classifier_fan_in {
        return Err(SnapshotError::Corrupt("classifier fan-in mismatch"));
    }
    Ok(())
}

// ------------------------------------------------------------------
// Model codec.
// ------------------------------------------------------------------

impl PackedModel {
    /// Writes the model as a version-[`SNAPSHOT_VERSION`] snapshot.
    ///
    /// # Errors
    /// [`SnapshotError::Io`] on any write failure.
    pub fn write_snapshot<W: Write>(&self, w: &mut W) -> Result<()> {
        w.write_all(&SNAPSHOT_MAGIC)?;
        w_u32(w, SNAPSHOT_VERSION)?;
        for d in self.input_shape() {
            w_u64(w, d as u64)?;
        }
        w_u32(w, self.layers().len() as u32)?;
        for layer in self.layers() {
            match layer {
                PackedLayer::Conv(c) => {
                    w_u8(w, TAG_CONV)?;
                    let (in_c, k, stride, pad) = c.geometry();
                    w_u64(w, in_c as u64)?;
                    w_u64(w, k as u64)?;
                    w_u64(w, stride as u64)?;
                    w_u64(w, pad as u64)?;
                    write_matrix(w, c.matrix())?;
                }
                PackedLayer::Pool(p) => {
                    w_u8(w, TAG_POOL)?;
                    w_u64(w, p.and_channels().len() as u64)?;
                    for &and in p.and_channels() {
                        w_u8(w, and as u8)?;
                    }
                }
                PackedLayer::Linear(l) => {
                    w_u8(w, TAG_LINEAR)?;
                    write_matrix(w, l.matrix())?;
                }
                PackedLayer::Flatten => w_u8(w, TAG_FLATTEN)?,
            }
        }
        let cls = self.classifier();
        let pop = cls.popcount();
        w_u64(w, pop.out_features() as u64)?;
        w_u64(w, pop.fan_in() as u64)?;
        for &a in cls.alphas() {
            w_f32(w, a)?;
        }
        for &b in cls.bias() {
            w_f32(w, b)?;
        }
        for row in pop.rows() {
            for &word in row.words() {
                w_u64(w, word)?;
            }
        }
        Ok(())
    }

    /// Reads a snapshot written by [`Self::write_snapshot`], rebuilding
    /// the derived acceleration state (tile spans, SWAR tables). The
    /// result is bit-identical to the model that was saved — including
    /// any injected faults — and runs with the machine-default worker
    /// count.
    ///
    /// # Errors
    /// [`SnapshotError::BadMagic`] / [`SnapshotError::UnsupportedVersion`]
    /// for foreign files, [`SnapshotError::Corrupt`] when a structural
    /// invariant fails, [`SnapshotError::Io`] on read failures (truncated
    /// files included).
    pub fn read_snapshot<R: Read>(r: &mut R) -> Result<Self> {
        let magic: [u8; 8] = r_bytes(r)?;
        if magic != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = r_u32(r)?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let input_shape = [r_len(r)?, r_len(r)?, r_len(r)?];
        if shape_volume(input_shape).is_none() {
            return Err(SnapshotError::Corrupt("input shape out of range"));
        }
        let stage_count = r_u32(r)?;
        if stage_count > MAX_STAGES {
            return Err(SnapshotError::Corrupt("stage count beyond sanity cap"));
        }
        let mut layers = Vec::with_capacity(stage_count as usize);
        for _ in 0..stage_count {
            layers.push(match r_u8(r)? {
                TAG_CONV => {
                    let in_c = r_len(r)?;
                    let k = r_len(r)?;
                    let stride = r_len(r)?;
                    let pad = r_len(r)?;
                    if in_c == 0 || k == 0 || stride == 0 {
                        return Err(SnapshotError::Corrupt("conv geometry out of range"));
                    }
                    let matrix = read_matrix(r)?;
                    PackedLayer::Conv(PackedConvStage::from_parts(matrix, in_c, k, stride, pad))
                }
                TAG_POOL => {
                    let count = r_len(r)?;
                    let flags = r_byte_vec(r, count)?;
                    if flags.iter().any(|&f| f > 1) {
                        return Err(SnapshotError::Corrupt("pool flag out of range"));
                    }
                    PackedLayer::Pool(PackedPoolStage::new(
                        flags.into_iter().map(|f| f == 1).collect(),
                    ))
                }
                TAG_LINEAR => PackedLayer::Linear(PackedLinearStage::from_matrix(read_matrix(r)?)),
                TAG_FLATTEN => PackedLayer::Flatten,
                _ => return Err(SnapshotError::Corrupt("unknown stage tag")),
            });
        }
        let out = r_len(r)?;
        let fan_in = r_len(r)?;
        if out == 0 || fan_in == 0 {
            return Err(SnapshotError::Corrupt("classifier with zero geometry"));
        }
        let alphas = r_vec(r, out, r_f32)?;
        let bias = r_vec(r, out, r_f32)?;
        let wpr = fan_in.div_ceil(64);
        let mut rows = Vec::new();
        for _ in 0..out {
            // `from_words` re-normalizes the tail, keeping the plane
            // invariant even if a foreign writer set slack bits.
            rows.push(BitPlane::from_words(r_u64s(r, wpr)?, fan_in));
        }
        validate_chain(input_shape, &layers, fan_in)?;
        let classifier =
            DeployedClassifier::from_parts(PopcountLinear::from_rows(rows, fan_in), alphas, bias);
        Ok(PackedModel::from_parts(input_shape, layers, classifier))
    }

    /// Saves the model to `path` (see [`Self::write_snapshot`]).
    ///
    /// # Errors
    /// [`SnapshotError::Io`] on any filesystem failure.
    pub fn save_snapshot<P: AsRef<Path>>(&self, path: P) -> Result<()> {
        let mut w = BufWriter::new(File::create(path)?);
        self.write_snapshot(&mut w)?;
        w.flush()?;
        Ok(())
    }

    /// Loads a model from `path` (see [`Self::read_snapshot`]); rejects
    /// trailing bytes after the snapshot body.
    ///
    /// # Errors
    /// As [`Self::read_snapshot`], plus [`SnapshotError::Corrupt`] if the
    /// file continues past the decoded model.
    pub fn load_snapshot<P: AsRef<Path>>(path: P) -> Result<Self> {
        let mut r = BufReader::new(File::open(path)?);
        let model = Self::read_snapshot(&mut r)?;
        if r.read(&mut [0u8; 1])? != 0 {
            return Err(SnapshotError::Corrupt("trailing bytes after snapshot"));
        }
        Ok(model)
    }
}
