//! Versioned, checksummed controller snapshots for warm restarts.
//!
//! A supervised controller (see [`crate::Supervisor`]) periodically
//! serializes its mutable state into a self-describing binary frame:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"ASGV"
//! 4       4     format version, u32 LE
//! 8       4     payload length, u32 LE
//! 12      4     CRC-32 (IEEE) of the payload, u32 LE
//! 16      n     payload
//! ```
//!
//! The header is fixed-width in every version, so a reader always
//! finds the version. Since version 2, every integer a codec writes
//! (timestamps, counters, indices, the payloads of optional integers,
//! and the length prefixes of byte fields and `f64` slices) is an
//! unsigned LEB128 varint ([`SnapshotWriter::put_uvar`]): seven
//! bits per byte, low group first, the top bit set on every byte but
//! the last. Only the canonical, shortest form decodes, so a value has
//! exactly one encoding and frames stay byte-deterministic. `f64`s stay
//! their fixed 8-byte bit patterns, and `u64` words written with
//! [`SnapshotWriter::put_u64`] stay fixed 8 bytes. Version 1 wrote
//! every integer fixed-width; its frames now decode to
//! [`SnapshotError::VersionMismatch`], which a supervisor counts as a
//! cold start. So do version-3 frames, whose profile configurations
//! carried an optional GPU index that version 4 dropped.
//!
//! Every persisted component states its payload once, as a field list
//! given to [`snapshot_fields!`](crate::snapshot_fields): the macro
//! derives the writer and the reader from that one list, so the two
//! sides put and take the same fields, in the same order, with the
//! same encodings. A field's type picks its encoding ([`Wire`]).
//!
//! The codec is deliberately paranoid: every decode path returns a
//! [`SnapshotError`] instead of panicking, so a truncated, bit-flipped
//! or crafted snapshot can never take the supervisor down — the worst
//! case is a counted cold restart. Restores are transactional: a
//! generated reader decodes and checks the complete payload first and
//! only then applies it, so a failure partway through decoding leaves
//! the component untouched.
//!
//! Everything here is dependency-free. The CRC-32 is the IEEE one
//! (reflected, polynomial `0xEDB88320`, zlib-compatible), computed
//! slicing-by-8: eight 256-entry tables built at compile time take
//! eight payload bytes per step. Every checkpoint, device migration
//! and fleet frame is checksummed, so this loop is on the fleet's
//! epoch path; its output is the bitwise definition's, bit for bit.

use asgov_obs::FleetStats;
use asgov_profiler::Config;
use asgov_soc::{BwIndex, DegradationLevel, Device, FreqIndex, Policy, SocErrorKind};
use std::cell::RefCell;
use std::fmt;

/// Frame magic: identifies a byte buffer as an asgov snapshot.
pub const MAGIC: [u8; 4] = *b"ASGV";

/// Current snapshot format version. Bump on any payload layout change;
/// restores reject other versions rather than misinterpret bytes.
pub const VERSION: u32 = 4;

/// Size of the fixed frame header, bytes.
pub const HEADER_LEN: usize = 16;

/// Why a snapshot could not be restored.
///
/// The taxonomy is deliberately small: the supervisor does not care
/// *which* byte was damaged, only that the checkpoint is unusable and a
/// cold restart is required.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer ends before the frame (or a field) is complete.
    Truncated,
    /// The frame is structurally damaged: bad magic, checksum mismatch,
    /// an illegal tag or enum code, or a value outside its domain.
    Corrupt,
    /// The frame is intact but was written by a different format
    /// version.
    VersionMismatch {
        /// The version recorded in the frame header.
        found: u32,
    },
    /// A payload or length-prefixed field is 4 GiB or longer, past the
    /// `u32` payload length of the frame header. No frame could hold
    /// it, so the writer refuses it up front.
    TooLarge {
        /// The offending length, bytes (fields) or elements (slices).
        len: u64,
    },
    /// The frame is intact and well-formed but was written under a
    /// different run configuration than the one it is being restored
    /// into (e.g. a fleet checkpoint taken with a different demand
    /// quantum or device partition). Unlike `Corrupt`, the bytes are
    /// fine — the operator changed a parameter between runs, and the
    /// named field tells them which one.
    ConfigMismatch {
        /// The configuration field that does not match.
        field: &'static str,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => f.write_str("snapshot truncated"),
            SnapshotError::Corrupt => f.write_str("snapshot corrupt"),
            SnapshotError::VersionMismatch { found } => {
                write!(f, "snapshot version {found} not supported (want {VERSION})")
            }
            SnapshotError::TooLarge { len } => {
                write!(
                    f,
                    "snapshot field of length {len} overflows the u32 frame length"
                )
            }
            SnapshotError::ConfigMismatch { field } => {
                write!(
                    f,
                    "snapshot was written under a different configuration: {field} does not match"
                )
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// The reflected IEEE 802.3 CRC-32 polynomial.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables: `CRC32_TABLES[k][b]` is the CRC register after
/// byte `b` followed by `k` zero bytes, so row 0 is the classic
/// byte-at-a-time table and row 7 serves the first byte of an 8-byte
/// step.
static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// Build [`CRC32_TABLES`] at compile time: each row is the previous
/// one advanced by one zero byte (eight bitwise steps).
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut k = 0;
        while k < 8 {
            let mut bit = 0;
            while bit < 8 {
                crc = (crc >> 1) ^ (CRC32_POLY & (crc & 1).wrapping_neg());
                bit += 1;
            }
            // asgov-analyze: allow(hot-path-index): const-evaluated, so an out-of-range index is a build error, not a runtime panic
            tables[k][b] = crc;
            k += 1;
        }
        b += 1;
    }
    tables
}

/// Table entry for the low byte of `v`. The index is below 256 by
/// construction, so the compiler drops the bounds check.
#[inline(always)]
fn crc32_lookup(table: &[u32; 256], v: u64) -> u32 {
    table.get((v & 0xFF) as usize).copied().unwrap_or(0)
}

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) of `bytes`,
/// identical to zlib's `crc32`. Slicing-by-8: eight bytes per step
/// through the compile-time tables, then the tail one byte at a time
/// through row 0. No dependencies, no `unsafe`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC32_TABLES;
    let mut crc: u32 = 0xFFFF_FFFF;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let v = u64::from_le_bytes(chunk.try_into().unwrap_or([0; 8])) ^ u64::from(crc);
        crc = crc32_lookup(t7, v)
            ^ crc32_lookup(t6, v >> 8)
            ^ crc32_lookup(t5, v >> 16)
            ^ crc32_lookup(t4, v >> 24)
            ^ crc32_lookup(t3, v >> 32)
            ^ crc32_lookup(t2, v >> 40)
            ^ crc32_lookup(t1, v >> 48)
            ^ crc32_lookup(t0, v >> 56);
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ crc32_lookup(t0, u64::from(crc ^ u32::from(b)));
    }
    !crc
}

/// Capacity of a fresh payload buffer: room for a controller snapshot
/// (about 120 bytes) many times over, so one never grows.
const SCRATCH_CAPACITY: usize = 1 << 10;

/// Payload buffers above this capacity (a shard or fleet frame's) are
/// freed when their writer finishes instead of being kept for reuse.
const SCRATCH_KEEP_MAX: usize = 1 << 16;

/// Payload buffers kept per thread: one per level of writer nesting
/// (fleet → shard), with room to spare.
const SCRATCH_POOL_MAX: usize = 4;

thread_local! {
    /// Payload buffers of finished writers on this thread, handed to
    /// the next [`SnapshotWriter::new`]. Reuse changes no byte a writer
    /// produces: a buffer is cleared before it is kept.
    static SCRATCH: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

/// Builds a snapshot payload field by field, then frames it with the
/// header and checksum. Integers are LEB128 varints
/// ([`SnapshotWriter::put_uvar`]) or fixed little-endian `u64` words;
/// floats are stored as their IEEE-754 bit patterns, so round-trips
/// are bit-exact (including NaN payloads and signed zeros).
///
/// The payload is assembled in a per-thread scratch buffer that
/// outlives the writer, so in steady state a frame costs one
/// allocation: the exactly sized frame [`SnapshotWriter::finish`]
/// returns (a frame kept for later, as the fleet keeps one per device,
/// carries no spare capacity).
#[derive(Debug)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl Default for SnapshotWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for SnapshotWriter {
    fn drop(&mut self) {
        let mut buf = std::mem::take(&mut self.buf);
        if buf.capacity() > SCRATCH_KEEP_MAX {
            return;
        }
        buf.clear();
        // `try_with`/`try_borrow_mut`: during thread teardown the pool
        // may be gone, and then the buffer is simply freed.
        let _ = SCRATCH.try_with(|pool| {
            if let Ok(mut pool) = pool.try_borrow_mut() {
                if pool.len() < SCRATCH_POOL_MAX {
                    pool.push(buf);
                }
            }
        });
    }
}

impl SnapshotWriter {
    /// Start an empty payload (in a reused scratch buffer when this
    /// thread has one).
    pub fn new() -> Self {
        let reused = SCRATCH
            .try_with(|pool| pool.try_borrow_mut().ok().and_then(|mut pool| pool.pop()))
            .ok()
            .flatten();
        Self {
            buf: reused.unwrap_or_else(|| Vec::with_capacity(SCRATCH_CAPACITY)),
        }
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u64` as an unsigned LEB128 varint: one byte below
    /// 128, at most 10 bytes, always the shortest form.
    #[inline]
    pub fn put_uvar(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Append a `u64` as a fixed 8-byte little-endian word.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its bit pattern, little-endian.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a `bool` as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Append an optional integer: a one-byte tag (0 absent, 1 present)
    /// followed by the value as a varint when present.
    pub fn put_opt_uvar(&mut self, v: Option<u64>) {
        match v {
            None => self.put_u8(0),
            Some(x) => {
                self.put_u8(1);
                self.put_uvar(x);
            }
        }
    }

    /// Append an optional `u8` (tag byte then value). Same tag as
    /// [`SnapshotWriter::put_opt_uvar`] with a one-byte payload.
    pub fn put_opt_u8(&mut self, v: Option<u8>) {
        match v {
            None => self.put_u8(0),
            Some(x) => {
                self.put_u8(1);
                self.put_u8(x);
            }
        }
    }

    /// Append an optional length-prefixed byte slice (tag byte, then
    /// the slice as [`SnapshotWriter::put_bytes`] when present).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::TooLarge`] when the present slice is 4 GiB or
    /// longer; the writer is left unchanged (the tag is only written
    /// once the length is known to fit).
    pub fn put_opt_bytes(&mut self, v: Option<&[u8]>) -> Result<(), SnapshotError> {
        match v {
            None => {
                self.put_u8(0);
                Ok(())
            }
            Some(bytes) => {
                encode_len(bytes.len())?;
                self.put_u8(1);
                self.put_bytes(bytes)
            }
        }
    }

    /// Append a byte slice with a varint length prefix (used to nest one
    /// snapshot — e.g. a wrapped controller's — inside another).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::TooLarge`] when the slice is 4 GiB or longer:
    /// no frame can hold it, because the header's payload length is a
    /// `u32`. On error the writer is left unchanged.
    pub fn put_bytes(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let len = encode_len(bytes.len())?;
        self.put_uvar(u64::from(len));
        self.buf.extend_from_slice(bytes);
        Ok(())
    }

    /// Append an `f64` slice with a varint element-count prefix.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::TooLarge`] when the element count does not fit
    /// a `u32`; the writer is left unchanged.
    pub fn put_f64_slice(&mut self, vs: &[f64]) -> Result<(), SnapshotError> {
        let len = encode_len(vs.len())?;
        self.put_uvar(u64::from(len));
        for &v in vs {
            self.put_f64(v);
        }
        Ok(())
    }

    /// Frame the payload: header (magic, version, length, CRC-32)
    /// followed by the payload bytes, in one exactly sized allocation.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::TooLarge`] when the accumulated payload exceeds
    /// the header's `u32` length field (≥ 4 GiB); such a frame could
    /// never decode and must not be written.
    pub fn finish(self) -> Result<Vec<u8>, SnapshotError> {
        let len = encode_len(self.buf.len())?;
        let mut out = Vec::with_capacity(HEADER_LEN + self.buf.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&crc32(&self.buf).to_le_bytes());
        out.extend_from_slice(&self.buf);
        Ok(out)
    }
}

/// Validate a length against the `u32` limit of the frame header (a
/// field longer than the header's payload length could never decode).
/// Factored out so the oversize rejection is testable without
/// materializing a real 4 GiB buffer — tests feed lengths directly.
fn encode_len(len: usize) -> Result<u32, SnapshotError> {
    u32::try_from(len).map_err(|_| SnapshotError::TooLarge { len: len as u64 })
}

/// Decodes a framed snapshot. [`SnapshotReader::new`] validates the
/// header, length and checksum up front; the `take_*` accessors then
/// read the payload cursor-style, each returning a [`SnapshotError`]
/// instead of panicking when the data does not match the expected
/// shape.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    rest: &'a [u8],
}

/// Split `n` bytes off the front of `rest`, or fail without panicking.
fn take<'a>(rest: &mut &'a [u8], n: usize) -> Result<&'a [u8], SnapshotError> {
    if rest.len() < n {
        return Err(SnapshotError::Truncated);
    }
    let (head, tail) = rest.split_at(n);
    *rest = tail;
    Ok(head)
}

fn read_u32_at(bytes: &mut &[u8]) -> Result<u32, SnapshotError> {
    let raw = take(bytes, 4)?;
    let arr: [u8; 4] = raw.try_into().map_err(|_| SnapshotError::Truncated)?;
    Ok(u32::from_le_bytes(arr))
}

impl<'a> SnapshotReader<'a> {
    /// Validate a framed snapshot and open a payload cursor.
    ///
    /// Checks, in order: the buffer holds a complete header
    /// (`Truncated`), the magic matches (`Corrupt`), the payload is
    /// exactly as long as the header declares (`Truncated` when short,
    /// `Corrupt` when there are trailing bytes), the checksum matches
    /// (`Corrupt`), and the version is [`VERSION`] (`VersionMismatch`).
    pub fn new(bytes: &'a [u8]) -> Result<Self, SnapshotError> {
        let mut cursor = bytes;
        let magic = take(&mut cursor, 4)?;
        let version = read_u32_at(&mut cursor)?;
        let payload_len = read_u32_at(&mut cursor)? as usize;
        let crc = read_u32_at(&mut cursor)?;
        if magic != MAGIC {
            return Err(SnapshotError::Corrupt);
        }
        if cursor.len() < payload_len {
            return Err(SnapshotError::Truncated);
        }
        if cursor.len() > payload_len {
            return Err(SnapshotError::Corrupt);
        }
        if crc32(cursor) != crc {
            return Err(SnapshotError::Corrupt);
        }
        if version != VERSION {
            return Err(SnapshotError::VersionMismatch { found: version });
        }
        Ok(Self { rest: cursor })
    }

    /// Payload bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Read one byte.
    pub fn take_u8(&mut self) -> Result<u8, SnapshotError> {
        let raw = take(&mut self.rest, 1)?;
        raw.first().copied().ok_or(SnapshotError::Truncated)
    }

    /// Read an unsigned LEB128 varint written by
    /// [`SnapshotWriter::put_uvar`]. Only the canonical form decodes:
    /// a varint that ends mid-value is `Truncated`; a zero final byte
    /// after a continuation (a non-minimal form), or a tenth byte above
    /// 1 (bits past the 64th, or an eleventh byte) is `Corrupt`. On any
    /// error the cursor does not move.
    #[inline]
    pub fn take_uvar(&mut self) -> Result<u64, SnapshotError> {
        let mut rest = self.rest;
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let (&b, tail) = rest.split_first().ok_or(SnapshotError::Truncated)?;
            rest = tail;
            // The tenth byte holds only bit 63 and must end the value.
            if shift == 63 && b > 1 {
                return Err(SnapshotError::Corrupt);
            }
            v |= u64::from(b & 0x7F) << shift;
            if b < 0x80 {
                if b == 0 && shift > 0 {
                    return Err(SnapshotError::Corrupt);
                }
                self.rest = rest;
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Read a fixed 8-byte little-endian `u64` word.
    pub fn take_u64(&mut self) -> Result<u64, SnapshotError> {
        let raw = take(&mut self.rest, 8)?;
        let arr: [u8; 8] = raw.try_into().map_err(|_| SnapshotError::Truncated)?;
        Ok(u64::from_le_bytes(arr))
    }

    /// Read an `f64` from its bit pattern.
    pub fn take_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Read a `bool`; any byte other than 0 or 1 is `Corrupt`.
    pub fn take_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Corrupt),
        }
    }

    /// Read an optional integer (tag byte then varint); any tag other
    /// than 0 or 1 is `Corrupt`.
    pub fn take_opt_uvar(&mut self) -> Result<Option<u64>, SnapshotError> {
        match self.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.take_uvar()?)),
            _ => Err(SnapshotError::Corrupt),
        }
    }

    /// Read an optional `u8`; any tag other than 0 or 1 is `Corrupt`.
    pub fn take_opt_u8(&mut self) -> Result<Option<u8>, SnapshotError> {
        match self.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.take_u8()?)),
            _ => Err(SnapshotError::Corrupt),
        }
    }

    /// Read an optional length-prefixed byte slice; any tag other than
    /// 0 or 1 is `Corrupt`.
    pub fn take_opt_bytes(&mut self) -> Result<Option<&'a [u8]>, SnapshotError> {
        match self.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.take_bytes()?)),
            _ => Err(SnapshotError::Corrupt),
        }
    }

    /// Read a length-prefixed byte slice. A declared length past the
    /// end of the payload is `Corrupt`.
    pub fn take_bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let n = self.take_uvar()?;
        if n > self.rest.len() as u64 {
            return Err(SnapshotError::Corrupt);
        }
        take(&mut self.rest, n as usize)
    }

    /// Read a length-prefixed `f64` vector. A declared length that
    /// cannot fit in the remaining payload is `Corrupt` (a crafted
    /// length would otherwise ask for an absurd allocation).
    pub fn take_f64_vec(&mut self) -> Result<Vec<f64>, SnapshotError> {
        let n = self.take_uvar()?;
        if n > self.rest.len() as u64 / 8 {
            return Err(SnapshotError::Corrupt);
        }
        let mut out = Vec::with_capacity(n as usize);
        for _ in 0..n {
            out.push(self.take_f64()?);
        }
        Ok(out)
    }

    /// Assert the payload was fully consumed; leftover bytes mean the
    /// payload does not match the expected shape (`Corrupt`).
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(SnapshotError::Corrupt)
        }
    }
}

/// `Ok(v)` when present, `Corrupt` otherwise. Decoding helper for enum
/// wire codes (`from_wire` returning `None`) and other domain
/// validations, so call sites outside this module never hand-construct
/// error variants (the error-taxonomy lint polices that).
pub fn require<T>(v: Option<T>) -> Result<T, SnapshotError> {
    v.ok_or(SnapshotError::Corrupt)
}

/// Narrow a decoded varint to the field's own integer type; a value
/// that does not fit is `Corrupt`.
pub fn narrow<T: TryFrom<u64>>(v: u64) -> Result<T, SnapshotError> {
    T::try_from(v).map_err(|_| SnapshotError::Corrupt)
}

/// `Ok(())` when the condition holds, `Corrupt` otherwise. Companion
/// to [`require`] for plain boolean domain checks.
pub fn ensure(valid: bool) -> Result<(), SnapshotError> {
    if valid {
        Ok(())
    } else {
        Err(SnapshotError::Corrupt)
    }
}

/// `Ok(())` when a decoded value matches the run configuration it is
/// being restored into, [`SnapshotError::ConfigMismatch`] naming
/// `field` otherwise. Use this — not [`ensure`] — for checks that
/// compare intact snapshot contents against caller-supplied
/// configuration: the distinction tells an operator "you changed a
/// parameter" instead of "your checkpoint is damaged".
pub fn ensure_config(matches: bool, field: &'static str) -> Result<(), SnapshotError> {
    if matches {
        Ok(())
    } else {
        Err(SnapshotError::ConfigMismatch { field })
    }
}

/// A value with one snapshot encoding: [`Wire::take`] reads back what
/// [`Wire::put`] appended (`put` fails only with `TooLarge`). A field
/// list ([`snapshot_fields!`](crate::snapshot_fields)) encodes each
/// field by its type.
pub trait Wire: Sized {
    /// Append the value.
    fn put(&self, w: &mut SnapshotWriter) -> Result<(), SnapshotError>;
    /// Read one value.
    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError>;
}

/// One [`Wire`] impl per row: the type, the expression that puts `v`
/// (a `&Self`) into `w`, and the one that takes a value from `r`.
macro_rules! wire {
    ($($t:ty: |$v:ident, $w:ident| $put:expr, |$r:ident| $take:expr;)*) => {$(
        impl Wire for $t {
            #[inline] fn put(&self, $w: &mut SnapshotWriter) -> Result<(), SnapshotError> {
                let $v = self;
                Ok($put)
            }
            #[inline] fn take($r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> { $take }
        }
    )*};
}

wire! {
    u64: |v, w| w.put_uvar(*v), |r| r.take_uvar();
    u32: |v, w| w.put_uvar(u64::from(*v)), |r| narrow(r.take_uvar()?);
    usize: |v, w| w.put_uvar(*v as u64), |r| narrow(r.take_uvar()?);
    f64: |v, w| w.put_f64(*v), |r| r.take_f64();
    bool: |v, w| w.put_bool(*v), |r| r.take_bool();
    Option<u64>: |v, w| w.put_opt_uvar(*v), |r| r.take_opt_uvar();
    Vec<f64>: |v, w| w.put_f64_slice(v)?, |r| r.take_f64_vec();
    Option<Vec<u8>>: |v, w| w.put_opt_bytes(v.as_deref())?,
        |r| Ok(r.take_opt_bytes()?.map(<[u8]>::to_vec));
    DegradationLevel: |v, w| w.put_u8(v.wire_code()),
        |r| require(DegradationLevel::from_wire(r.take_u8()?));
    Option<SocErrorKind>: |v, w| w.put_opt_u8(v.map(SocErrorKind::wire_code)),
        |r| r.take_opt_u8()?.map(|c| require(SocErrorKind::from_wire(c))).transpose();
    // Whether the profile holds a configuration is the reader's check.
    Config: |v, w| (v.freq.0, v.bw.0).put(w)?,
        |r| Wire::take(r).map(|(f, b)| Config::new(FreqIndex(f), BwIndex(b)));
    Option<Config>: |v, w| { w.put_bool(v.is_some()); if let Some(c) = v { c.put(w)? } },
        |r| if r.take_bool()? { Config::take(r).map(Some) } else { Ok(None) };
    // Fixed 8-byte words (about half are `f64` bit patterns, which a
    // varint would lengthen), counted by the bytes present before any
    // is reserved: a short frame must not reserve megabytes.
    FleetStats: |v, w| {
            let words = v.serialize_words();
            words.len().put(w)?;
            for &x in &words { w.put_u64(x); }
        },
        |r| {
            let n = r.take_uvar()?;
            ensure(n <= r.remaining() as u64 / 8 && n <= 1 << 22)?;
            let words = (0..n).map(|_| r.take_u64()).collect::<Result<Vec<_>, _>>()?;
            require(FleetStats::deserialize_words(&words))
        };
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, w: &mut SnapshotWriter) -> Result<(), SnapshotError> {
        self.0.put(w)?;
        self.1.put(w)
    }
    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok((A::take(r)?, B::take(r)?))
    }
}

/// An absolute device-clock deadline (unarmed when `None`), which a
/// restore moves by the downtime the clock kept running through.
pub trait Deadline {
    /// The deadline `delta_ms` later.
    fn shifted(self, delta_ms: u64) -> Self;
}

impl Deadline for u64 {
    fn shifted(self, delta_ms: u64) -> Self {
        self.saturating_add(delta_ms)
    }
}

impl Deadline for Option<u64> {
    fn shifted(self, delta_ms: u64) -> Self {
        self.map(|t| t.shifted(delta_ms))
    }
}

/// Derive a component's snapshot writer and reader from one field list,
/// inside its `impl` block. A component nested in another's payload
/// gets `write_fields`/`read_fields` over a [`SnapshotWriter`] /
/// [`SnapshotReader`]; a framed one gets a writer that returns a frame
/// and a reader that takes one (`bytes`). Either reader may take
/// parameters of its own, and a framed writer too:
///
/// ```text
/// pub(crate) fn write_fields(&self, w);
/// pub(crate) fn read_fields(&mut self, r, delta_ms: u64);
/// // or
/// fn snapshot_bytes(&self, now_ms: u64) -> frame;
/// fn restore_bytes(&mut self, bytes, now_ms: u64) -> frame;
/// ```
///
/// Each line that follows is one field. `name: Type` is `self.name`;
/// `name: Type = get => set` is written from `get` and committed by
/// `set`, which may use any line's name (without `=> set`, a later
/// line's `set` consumes it). The type picks the encoding ([`Wire`]);
/// an attribute changes it:
///
/// - `#[check(cond)]`: the reader refuses the frame as `Corrupt` unless
///   `cond` holds once the line is read; it may follow another attribute;
/// - `#[deadline(delta_ms)]`: a [`Deadline`], shifted by `delta_ms`;
/// - `#[since(now_ms)]`: the writer's clock; the reader binds the time
///   elapsed since it, `now_ms` minus the written value;
/// - `#[pin]`: a configuration value; a written value other than the
///   reader's own `get` is [`SnapshotError::ConfigMismatch`] naming the line;
/// - `#[nested]`, `#[nested(args)]`: a component with its own field list,
///   read by `read_fields(r, args)` into a copy;
/// - `#[len(n)]`: a `Vec` written as its length and its elements; the
///   reader refuses a length other than `n` before it allocates;
/// - `#[frames(T, n, ctx)]`: `n` uncounted `T`s, each a length-prefixed
///   `T::snapshot_bytes()` frame read back by `T::restore_bytes(ctx, _)`.
///
/// The reader takes the lines in the writer's order, each into a local,
/// checking as it goes (a framed reader then requires the frame fully
/// consumed), and commits only after that: a refused frame leaves
/// `self` untouched.
#[macro_export]
macro_rules! snapshot_fields {
    (@lines $op:ident $s:ident $io:tt; $(
        $(#[$k:ident $(($($ka:tt)*))?])* $name:ident: $ty:ty $(= $get:expr $(=> $set:expr)?)?
    ),* $(,)?) => {$(
        $crate::snapshot_fields!(@$op $s $io {$($k $(($($ka)*))?)*} $name ($ty) ($(= $get $(=> $set)?)?));
    )*};
    (@place $s:ident $name:ident ()) => { $s.$name };
    (@place $s:ident $name:ident (= $get:expr $(=> $set:expr)?)) => { $get };

    (@put $s:ident $w:tt {nested $($a:tt)?} $name:ident $ty:tt $g:tt) => {
        $crate::snapshot_fields!(@place $s $name $g).write_fields($w)?;
    };
    (@put $s:ident $w:tt {len $n:tt} $name:ident $ty:tt $g:tt) => {
        let v = &$crate::snapshot_fields!(@place $s $name $g);
        $crate::persist::Wire::put(&v.len(), $w)?;
        for x in v { $crate::persist::Wire::put(x, $w)?; }
    };
    (@put $s:ident $w:tt {frames $($c:tt)*} $name:ident $ty:tt $g:tt) => {
        for x in &$crate::snapshot_fields!(@place $s $name $g) { $w.put_bytes(&x.snapshot_bytes()?)?; }
    };
    (@put $s:ident $w:tt $k:tt $name:ident $ty:tt $g:tt) => {
        $crate::persist::Wire::put(&$crate::snapshot_fields!(@place $s $name $g), $w)?;
    };

    (@take $s:ident $r:tt {} $name:ident ($ty:ty) $g:tt) => {
        let $name: $ty = $crate::persist::Wire::take($r)?;
    };
    (@take $s:ident $r:tt {deadline($d:expr)} $name:ident ($ty:ty) $g:tt) => {
        let $name: $ty = $crate::persist::Deadline::shifted($crate::persist::Wire::take($r)?, $d);
    };
    (@take $s:ident $r:tt {since($now:expr)} $name:ident ($ty:ty) $g:tt) => {
        let $name: $ty = $now.saturating_sub($crate::persist::Wire::take($r)?);
    };
    (@take $s:ident $r:tt {pin} $name:ident ($ty:ty) (= $get:expr)) => {
        let $name: $ty = $crate::persist::Wire::take($r)?;
        $crate::persist::ensure_config($name == $get, stringify!($name))?;
    };
    (@take $s:ident $r:tt {nested $(($($a:tt)*))?} $name:ident ($ty:ty) $g:tt) => {
        let mut $name: $ty = $crate::snapshot_fields!(@place $s $name $g).clone();
        $name.read_fields($r, $($($a)*)?)?;
    };
    (@take $s:ident $r:tt {len($n:expr)} $name:ident ($ty:ty) $g:tt) => {
        let n: u64 = $crate::persist::Wire::take($r)?;
        $crate::persist::ensure(n == $n)?;
        let mut $name: $ty = Vec::with_capacity(n as usize);
        for _ in 0..n { $name.push($crate::persist::Wire::take($r)?); }
    };
    (@take $s:ident $r:tt {frames($t:ty, $n:expr, $ctx:expr)} $name:ident ($ty:ty) $g:tt) => {
        let mut $name: $ty = Vec::with_capacity($n as usize);
        for _ in 0..$n { $name.push(<$t>::restore_bytes($ctx, $r.take_bytes()?)?); }
    };
    (@take $s:ident $r:tt {check($c:expr)} $($line:tt)*) => {
        $crate::snapshot_fields!(@take $s $r {} $($line)*);
        $crate::persist::ensure($c)?;
    };
    (@take $s:ident $r:tt {$k:ident $(($($ka:tt)*))? check($c:expr)} $($line:tt)*) => {
        $crate::snapshot_fields!(@take $s $r {$k $(($($ka)*))?} $($line)*);
        $crate::persist::ensure($c)?;
    };

    (@commit $s:ident $r:tt $k:tt $name:ident $ty:tt ()) => { $s.$name = $name; };
    (@commit $s:ident $r:tt $k:tt $name:ident $ty:tt (= $get:expr)) => {};
    (@commit $s:ident $r:tt $k:tt $name:ident $ty:tt (= $get:expr => $set:expr)) => { $set; };

    (
        $(#[$wm:meta])* $wv:vis fn write_fields(&$ws:ident, $w:ident);
        $(#[$rm:meta])* $rv:vis fn read_fields(&mut $rs:ident, $r:ident $(, $ra:ident: $rt:ty)*);
        $($lines:tt)*
    ) => {
        $(#[$wm])*
        $wv fn write_fields(&$ws, $w: &mut $crate::persist::SnapshotWriter)
            -> ::core::result::Result<(), $crate::persist::SnapshotError> {
            $crate::snapshot_fields!(@lines put $ws $w; $($lines)*);
            Ok(())
        }
        $(#[$rm])*
        $rv fn read_fields(&mut $rs, $r: &mut $crate::persist::SnapshotReader<'_> $(, $ra: $rt)*)
            -> ::core::result::Result<(), $crate::persist::SnapshotError> {
            $crate::snapshot_fields!(@lines take $rs $r; $($lines)*);
            $crate::snapshot_fields!(@lines commit $rs $r; $($lines)*);
            Ok(())
        }
    };
    (
        $(#[$wm:meta])* $wv:vis fn $write:ident(&$ws:ident $(, $wa:ident: $wt:ty)*) -> frame;
        $(#[$rm:meta])* $rv:vis fn $read:ident(&mut $rs:ident, $bytes:ident $(, $ra:ident: $rt:ty)*) -> frame;
        $($lines:tt)*
    ) => {
        $(#[$wm])*
        $wv fn $write(&$ws $(, $wa: $wt)*)
            -> ::core::result::Result<::std::vec::Vec<u8>, $crate::persist::SnapshotError> {
            let mut frame = $crate::persist::SnapshotWriter::new();
            $crate::snapshot_fields!(@lines put $ws (&mut frame); $($lines)*);
            frame.finish()
        }
        $(#[$rm])*
        $rv fn $read(&mut $rs, $bytes: &[u8] $(, $ra: $rt)*)
            -> ::core::result::Result<(), $crate::persist::SnapshotError> {
            let mut frame = $crate::persist::SnapshotReader::new($bytes)?;
            $crate::snapshot_fields!(@lines take $rs (&mut frame); $($lines)*);
            frame.finish()?;
            $crate::snapshot_fields!(@lines commit $rs (); $($lines)*);
            Ok(())
        }
    };
}

/// A policy whose lifecycle a [`crate::Supervisor`] can manage:
/// checkpoint its state, restore it after a crash, or start over cold.
pub trait Restartable: Policy {
    /// Serialize the policy's mutable state into a framed snapshot.
    /// `now_ms` is the device clock at checkpoint time; restores use it
    /// to re-anchor absolute deadlines after downtime.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::TooLarge`] when some field or the payload is
    /// 4 GiB or longer. A supervisor treats a failed checkpoint like a
    /// corrupt one: counted, never fatal.
    fn snapshot_bytes(&self, now_ms: u64) -> Result<Vec<u8>, SnapshotError>;

    /// Restore state from [`Restartable::snapshot_bytes`] output.
    /// `now_ms` is the device clock at restore time. Must be
    /// transactional: on any `Err` the policy is left exactly as it
    /// was, and must never panic regardless of the byte content.
    fn restore_bytes(&mut self, bytes: &[u8], now_ms: u64) -> Result<(), SnapshotError>;

    /// Cold restart: take over the device afresh with no memory of the
    /// previous incarnation, in the most conservative posture the
    /// policy has (for the hardened controller: the safe configuration,
    /// with a full probation to serve before resuming optimization).
    fn restart_cold(&mut self, device: &mut Device);

    /// Supervisor hook: inform a freshly restarted policy of the
    /// lifetime restart/snapshot-error totals so it can stamp them into
    /// its own telemetry. Default: ignore.
    fn note_restart_telemetry(&mut self, _restarts: u64, _snapshot_errors: u64) {}
}

/// Random field values for the components' round-trip tests: varints
/// of every width (0 and `u64::MAX` included), both `Option` arms, and
/// finite floats of either sign.
#[cfg(test)]
pub(crate) mod arbitrary {
    use asgov_util::Rng;

    pub(crate) fn u64(rng: &mut Rng) -> u64 {
        match rng.gen_range_usize(0..8) {
            0 => 0,
            1 => u64::MAX,
            _ => rng.next_u64() >> rng.gen_range_usize(0..64),
        }
    }

    pub(crate) fn opt_u64(rng: &mut Rng) -> Option<u64> {
        rng.gen_bool(0.5).then(|| u64(rng))
    }

    pub(crate) fn f64(rng: &mut Rng) -> f64 {
        rng.gen_range(-1e3..1e3) * 10f64.powi(rng.gen_range_usize(0..12) as i32 - 6)
    }

    /// One of `items`, or `None` half the time.
    pub(crate) fn pick<T: Copy>(rng: &mut Rng, items: &[T]) -> Option<T> {
        if rng.gen_bool(0.5) {
            items.get(rng.gen_range_usize(0..items.len())).copied()
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Longest canonical LEB128 encoding of a `u64`: ⌈64 / 7⌉ bytes.
    const MAX_UVAR_LEN: usize = 10;

    /// The bitwise definition of the CRC-32: the oracle the table
    /// implementation must match bit for bit.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_the_bitwise_oracle() {
        let mut rng = asgov_util::Rng::seed_from_u64(0xc3c3_2032);
        let buf: Vec<u8> = (0..(1 << 20) + 8).map(|_| rng.next_u64() as u8).collect();
        // Every short length at every start offset: the 8-byte main
        // loop, the byte tail and their boundary, unaligned.
        for start in 0..8 {
            for len in 0..=64 {
                let s = buf.get(start..start + len).expect("in range");
                assert_eq!(crc32(s), crc32_bitwise(s), "start {start} len {len}");
            }
        }
        // Random slices up to 1 MiB, lengths log-uniform so the
        // bitwise oracle stays cheap in debug builds, plus the whole
        // buffer.
        assert_eq!(crc32(&buf), crc32_bitwise(&buf), "whole buffer");
        for case in 0..200 {
            let bits = rng.gen_range_usize(0..21);
            let len = rng.gen_range_usize(0..(1 << bits) + 1);
            let start = rng.gen_range_usize(0..buf.len() - len + 1);
            let s = buf.get(start..start + len).expect("in range");
            assert_eq!(
                crc32(s),
                crc32_bitwise(s),
                "case {case}: start {start} len {len}"
            );
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE test vectors (zlib-compatible).
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    fn sample_frame() -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.put_u8(7);
        w.put_uvar(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_f64(-0.0);
        w.put_f64(f64::NAN);
        w.put_bool(true);
        w.put_opt_uvar(None);
        w.put_opt_uvar(Some(42));
        w.put_opt_u8(None);
        w.put_opt_u8(Some(9));
        w.put_opt_uvar(Some(u64::MAX));
        w.put_opt_bytes(None).expect("tag only");
        w.put_opt_bytes(Some(b"inner")).expect("small field");
        w.put_f64_slice(&[1.5, -2.5, 1e300]).expect("small slice");
        w.put_bytes(b"nested").expect("small field");
        w.finish().expect("small frame")
    }

    /// Frames written from a reused scratch buffer are the same bytes
    /// as from a fresh one, and carry no spare capacity — also after a
    /// nested writer and one that outgrew the kept size.
    #[test]
    fn reused_scratch_gives_identical_exactly_sized_frames() {
        let first = sample_frame();
        let mut outer = SnapshotWriter::new();
        let mut big = SnapshotWriter::new();
        big.put_bytes(&vec![7; SCRATCH_KEEP_MAX + 1])
            .expect("small field");
        let inner = big.finish().expect("small frame");
        outer.put_bytes(&inner).expect("small field");
        let nested = outer.finish().expect("small frame");
        assert_eq!(nested.capacity(), nested.len());
        let again = sample_frame();
        assert_eq!(again, first);
        assert_eq!(again.capacity(), again.len());
        // An abandoned writer's leftovers never reach the next frame.
        let mut abandoned = SnapshotWriter::new();
        abandoned.put_bytes(b"left behind").expect("small field");
        drop(abandoned);
        assert_eq!(sample_frame(), first);
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let frame = sample_frame();
        let mut r = SnapshotReader::new(&frame).expect("valid frame");
        assert_eq!(r.take_u8(), Ok(7));
        assert_eq!(r.take_uvar(), Ok(0xDEAD_BEEF));
        assert_eq!(r.take_u64(), Ok(u64::MAX - 1));
        assert_eq!(r.take_f64().map(f64::to_bits), Ok((-0.0f64).to_bits()));
        assert_eq!(r.take_f64().map(f64::to_bits), Ok(f64::NAN.to_bits()));
        assert_eq!(r.take_bool(), Ok(true));
        assert_eq!(r.take_opt_uvar(), Ok(None));
        assert_eq!(r.take_opt_uvar(), Ok(Some(42)));
        assert_eq!(r.take_opt_u8(), Ok(None));
        assert_eq!(r.take_opt_u8(), Ok(Some(9)));
        assert_eq!(r.take_opt_uvar(), Ok(Some(u64::MAX)));
        assert_eq!(r.take_opt_bytes(), Ok(None));
        assert_eq!(r.take_opt_bytes(), Ok(Some(&b"inner"[..])));
        let vs = r.take_f64_vec().expect("vec");
        assert_eq!(vs, vec![1.5, -2.5, 1e300]);
        assert_eq!(r.take_bytes(), Ok(&b"nested"[..]));
        r.finish().expect("fully consumed");
    }

    #[test]
    fn truncation_at_every_byte_boundary_errors_without_panicking() {
        let frame = sample_frame();
        for n in 0..frame.len() {
            let prefix = frame.get(..n).expect("prefix in range");
            let err = SnapshotReader::new(prefix).expect_err("prefix must fail");
            assert!(
                matches!(err, SnapshotError::Truncated | SnapshotError::Corrupt),
                "prefix of {n} bytes gave {err:?}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        // Flip each bit of the frame in turn: header flips break the
        // magic/length/version/CRC checks, payload flips break the CRC.
        // None may decode cleanly, none may panic.
        let frame = sample_frame();
        for i in 0..frame.len() {
            for bit in 0..8u8 {
                let mut bad = frame.clone();
                if let Some(b) = bad.get_mut(i) {
                    *b ^= 1 << bit;
                }
                assert!(
                    SnapshotReader::new(&bad).is_err(),
                    "flip of byte {i} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn other_versions_are_reported_not_misread() {
        // Version 1 (fixed-width integers), version 3 (configurations
        // with a GPU index) and a future version: all are intact frames
        // the reader refuses to interpret.
        for found in [1, 3, VERSION + 1] {
            let mut w = SnapshotWriter::new();
            w.put_u64(99);
            let mut frame = w.finish().expect("small frame");
            // Patch the version field (bytes 4..8); the CRC covers only
            // the payload, so the frame stays intact.
            frame.splice(4..8, found.to_le_bytes());
            assert_eq!(
                SnapshotReader::new(&frame).err(),
                Some(SnapshotError::VersionMismatch { found })
            );
        }
    }

    #[test]
    fn trailing_garbage_is_corrupt() {
        let mut frame = sample_frame();
        frame.push(0xAB);
        assert_eq!(
            SnapshotReader::new(&frame).err(),
            Some(SnapshotError::Corrupt)
        );
    }

    #[test]
    fn illegal_tags_are_corrupt_not_panics() {
        let mut w = SnapshotWriter::new();
        w.put_u8(2); // neither a valid bool nor a valid Option tag
        let frame = w.finish().expect("small frame");
        let mut r = SnapshotReader::new(&frame).expect("frame itself is valid");
        assert_eq!(r.take_bool(), Err(SnapshotError::Corrupt));
        let mut r = SnapshotReader::new(&frame).expect("frame itself is valid");
        assert_eq!(r.take_opt_uvar(), Err(SnapshotError::Corrupt));
        let mut r = SnapshotReader::new(&frame).expect("frame itself is valid");
        assert_eq!(r.take_opt_u8(), Err(SnapshotError::Corrupt));
        let mut r = SnapshotReader::new(&frame).expect("frame itself is valid");
        assert_eq!(r.take_opt_bytes(), Err(SnapshotError::Corrupt));
    }

    #[test]
    fn opt_fields_error_without_consuming_ambiguity() {
        // A present-tagged option whose payload is missing is Truncated.
        let mut w = SnapshotWriter::new();
        w.put_u8(1);
        let frame = w.finish().expect("small frame");
        let mut r = SnapshotReader::new(&frame).expect("valid frame");
        assert_eq!(r.take_opt_uvar(), Err(SnapshotError::Truncated));
        let mut r = SnapshotReader::new(&frame).expect("valid frame");
        assert_eq!(r.take_opt_u8(), Err(SnapshotError::Truncated));
        let mut r = SnapshotReader::new(&frame).expect("valid frame");
        assert_eq!(r.take_opt_bytes(), Err(SnapshotError::Truncated));
        // A present-tagged byte field declaring more than remains is
        // Corrupt (crafted length), mirroring take_bytes.
        let mut w = SnapshotWriter::new();
        w.put_u8(1);
        w.put_uvar(u64::from(u32::MAX));
        let frame = w.finish().expect("small frame");
        let mut r = SnapshotReader::new(&frame).expect("valid frame");
        assert_eq!(r.take_opt_bytes(), Err(SnapshotError::Corrupt));
    }

    #[test]
    fn crafted_vec_length_is_corrupt_not_oom() {
        let mut w = SnapshotWriter::new();
        w.put_uvar(u64::MAX); // declares a vector of 2^64 - 1 floats
        let frame = w.finish().expect("small frame");
        let mut r = SnapshotReader::new(&frame).expect("frame itself is valid");
        assert_eq!(r.take_f64_vec(), Err(SnapshotError::Corrupt));
        let mut r = SnapshotReader::new(&frame).expect("frame itself is valid");
        assert_eq!(r.take_bytes(), Err(SnapshotError::Corrupt));
        // The bound is exact: two floats need 16 bytes, 15 are short.
        for (present, ok) in [(15, false), (16, true)] {
            let mut w = SnapshotWriter::new();
            w.put_uvar(2);
            for _ in 0..present {
                w.put_u8(0);
            }
            let frame = w.finish().expect("small frame");
            let mut r = SnapshotReader::new(&frame).expect("frame itself is valid");
            assert_eq!(r.take_f64_vec().is_ok(), ok, "{present} bytes present");
        }
    }

    /// Frame `raw` as a payload and read one varint from it, returning
    /// the value and the bytes left after it.
    fn take_uvar_from(raw: &[u8]) -> (Result<u64, SnapshotError>, usize) {
        let mut w = SnapshotWriter::new();
        for &b in raw {
            w.put_u8(b);
        }
        let frame = w.finish().expect("small frame");
        let mut r = SnapshotReader::new(&frame).expect("valid frame");
        let v = r.take_uvar();
        (v, r.remaining())
    }

    fn uvar_bytes(v: u64) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.put_uvar(v);
        std::mem::take(&mut w.buf)
    }

    #[test]
    fn uvar_round_trips_in_its_shortest_form() {
        let mut rng = asgov_util::Rng::seed_from_u64(0x1eb_128);
        let mut values = vec![0, 1, 127, 128, 255, 16_383, 16_384, 1 << 63, u64::MAX];
        for bit in 0..64 {
            values.extend([(1u64 << bit) - 1, 1 << bit, (1 << bit) + 1]);
        }
        // Random values with a uniform bit length, so every encoded
        // width is well covered.
        values.extend((0..10_000).map(|_| rng.next_u64() >> rng.gen_range_usize(0..64)));
        for v in values {
            let bytes = uvar_bytes(v);
            let bits = 64 - v.leading_zeros() as usize;
            assert_eq!(bytes.len(), bits.div_ceil(7).max(1), "width of {v}");
            assert!(bytes.len() <= MAX_UVAR_LEN);
            let mut w = SnapshotWriter::new();
            w.put_uvar(v);
            w.put_u8(0xA5);
            let frame = w.finish().expect("small frame");
            let mut r = SnapshotReader::new(&frame).expect("valid frame");
            assert_eq!(r.take_uvar(), Ok(v));
            assert_eq!(r.take_u8(), Ok(0xA5), "cursor after {v}");
            r.finish().expect("fully consumed");
        }
        assert_eq!(uvar_bytes(0), [0x00]);
        assert_eq!(uvar_bytes(300), [0xAC, 0x02]);
        assert_eq!(
            uvar_bytes(u64::MAX),
            [[0xFF; 9].as_slice(), &[0x01]].concat()
        );
    }

    #[test]
    fn uvar_rejects_an_eleventh_byte() {
        // Ten continuation bytes: the tenth may not continue.
        let raw = [[0x80; 10].as_slice(), &[0x00]].concat();
        assert_eq!(take_uvar_from(&raw), (Err(SnapshotError::Corrupt), 11));
        let raw = [[0xFF; 10].as_slice(), &[0x01]].concat();
        assert_eq!(take_uvar_from(&raw), (Err(SnapshotError::Corrupt), 11));
    }

    #[test]
    fn uvar_rejects_a_tenth_byte_above_one() {
        let top = |last: u8| take_uvar_from(&[[0xFF; 9].as_slice(), &[last]].concat());
        assert_eq!(top(0x01), (Ok(u64::MAX), 0));
        for last in [0x02, 0x03, 0x40, 0x7F] {
            assert_eq!(top(last), (Err(SnapshotError::Corrupt), 10), "{last:#x}");
        }
    }

    #[test]
    fn uvar_rejects_non_minimal_forms() {
        assert_eq!(take_uvar_from(&[0x00]), (Ok(0), 0));
        assert_eq!(
            take_uvar_from(&[0x80, 0x00]),
            (Err(SnapshotError::Corrupt), 2)
        );
        assert_eq!(
            take_uvar_from(&[0xFF, 0x80, 0x00]),
            (Err(SnapshotError::Corrupt), 3)
        );
        let padded_max = [[0xFF; 9].as_slice(), &[0x81, 0x00]].concat();
        assert_eq!(
            take_uvar_from(&padded_max),
            (Err(SnapshotError::Corrupt), 11)
        );
    }

    #[test]
    fn uvar_truncated_mid_value_is_truncated() {
        assert_eq!(take_uvar_from(&[]), (Err(SnapshotError::Truncated), 0));
        for n in 1..MAX_UVAR_LEN {
            let raw = vec![0xFF; n];
            assert_eq!(
                take_uvar_from(&raw),
                (Err(SnapshotError::Truncated), n),
                "{n} bytes"
            );
        }
        let whole = uvar_bytes(u64::MAX);
        for n in 0..whole.len() {
            let (v, left) = take_uvar_from(whole.get(..n).expect("prefix"));
            assert_eq!((v, left), (Err(SnapshotError::Truncated), n));
        }
    }

    #[test]
    fn uvar_accepts_only_canonical_encodings() {
        // Any byte string either fails or starts with exactly the
        // encoding of the value it decodes to: one value, one form.
        let mut rng = asgov_util::Rng::seed_from_u64(0xca_90e);
        for case in 0..20_000 {
            let len = rng.gen_range_usize(0..13);
            let raw: Vec<u8> = (0..len)
                .map(|_| match rng.gen_range_usize(0..4) {
                    0 => 0x00,
                    1 => 0x80,
                    2 => 0xFF,
                    _ => rng.next_u64() as u8,
                })
                .collect();
            let (v, left) = take_uvar_from(&raw);
            match v {
                Ok(v) => {
                    let enc = uvar_bytes(v);
                    assert_eq!(raw.get(..enc.len()), Some(enc.as_slice()), "case {case}");
                    assert_eq!(left, raw.len() - enc.len());
                }
                Err(_) => assert_eq!(left, raw.len(), "case {case}: cursor moved"),
            }
        }
    }

    #[test]
    fn leftover_payload_fails_finish() {
        let mut w = SnapshotWriter::new();
        w.put_u64(1);
        w.put_u64(2);
        let frame = w.finish().expect("small frame");
        let mut r = SnapshotReader::new(&frame).expect("valid frame");
        assert_eq!(r.take_u64(), Ok(1));
        assert_eq!(r.remaining(), 8);
        assert_eq!(r.finish(), Err(SnapshotError::Corrupt));
    }

    #[test]
    fn oversize_lengths_are_rejected_not_truncated() {
        // Regression: the writer used to stamp `len as u32`, so a field
        // or payload of ≥ 4 GiB silently truncated its length prefix
        // and round-tripped corrupt data. The check is factored into
        // `encode_len` exactly so this can be pinned with faked lengths
        // instead of materializing a real 4 GiB buffer.
        assert_eq!(encode_len(u32::MAX as usize), Ok(u32::MAX));
        assert_eq!(
            encode_len(u32::MAX as usize + 1),
            Err(SnapshotError::TooLarge {
                len: u64::from(u32::MAX) + 1
            })
        );
        assert_eq!(
            encode_len(1usize << 33),
            Err(SnapshotError::TooLarge { len: 1 << 33 })
        );
        // In-range writer paths are unaffected.
        let mut w = SnapshotWriter::new();
        w.put_bytes(b"ok").expect("small field");
        w.put_f64_slice(&[1.0]).expect("small slice");
        w.finish().expect("small frame");
    }

    #[test]
    fn require_and_ensure_map_to_corrupt() {
        assert_eq!(require(Some(5)), Ok(5));
        assert_eq!(require::<u8>(None), Err(SnapshotError::Corrupt));
        assert_eq!(ensure(true), Ok(()));
        assert_eq!(ensure(false), Err(SnapshotError::Corrupt));
    }

    #[test]
    fn ensure_config_names_the_field() {
        assert_eq!(ensure_config(true, "seed"), Ok(()));
        assert_eq!(
            ensure_config(false, "seed"),
            Err(SnapshotError::ConfigMismatch { field: "seed" })
        );
    }

    #[test]
    fn error_display_names_the_cause() {
        assert!(SnapshotError::Truncated.to_string().contains("truncated"));
        assert!(SnapshotError::Corrupt.to_string().contains("corrupt"));
        let v = SnapshotError::VersionMismatch { found: 9 }.to_string();
        assert!(v.contains('9') && v.contains(&VERSION.to_string()));
        let t = SnapshotError::TooLarge { len: 1 << 33 }.to_string();
        assert!(t.contains(&(1u64 << 33).to_string()));
        let c = SnapshotError::ConfigMismatch { field: "epoch_ms" }.to_string();
        assert!(c.contains("epoch_ms") && c.contains("configuration"));
    }
}
