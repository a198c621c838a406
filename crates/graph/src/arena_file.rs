//! Versioned binary on-disk format for a partitioned edge arena, plus a
//! bounded-memory segment loader with checksum verification — the
//! out-of-core substrate of the hierarchical composition runner (ROADMAP
//! items 1 and 3).
//!
//! A [`crate::partition::PartitionedGraph`] is already laid out as one
//! machine-sorted edge permutation with `k + 1` offsets. This module persists
//! exactly that layout so a protocol run on a 10⁷–10⁸-edge graph never has to
//! hold the whole arena in memory: the coordinator opens the file, loads one
//! machine's segment at a time through [`SegmentLoader`], builds that
//! machine's coreset, and drops the segment before touching the next.
//!
//! # File layout (version 3, all integers little-endian)
//!
//! | offset     | bytes | field |
//! |------------|-------|-------|
//! | 0          | 8     | magic `RCARENA3` |
//! | 8          | 4     | format version (`3`) |
//! | 12         | 1     | partition strategy (0 random, 1 adversarial) |
//! | 13         | 3     | zero padding |
//! | 16         | 8     | `n` (vertex count) |
//! | 24         | 8     | `k` (machine count) |
//! | 32         | 8     | `m` (edge-record count) |
//! | 40         | 16·k  | segment table: `(offset, len)` per machine, in records |
//! | 40+16k     | 4·k   | checksum table: CRC32 (IEEE) of each segment's record bytes |
//! | 40+20k     | 4     | metadata checksum: CRC32 of bytes `0 .. 40+20k` |
//! | 44+20k     | 8·m   | edge records: `(u: u32, v: u32)`, canonical `u < v`, machine-major |
//!
//! The segment table must start at offset 0 and tile the record section
//! exactly (`offset[i+1] = offset[i] + len[i]`, totals equal to `m`);
//! [`ArenaFile::open`] rejects anything else with a typed
//! [`GraphError`] — truncation, bad magic, unknown version, and
//! table/offset inconsistencies each have their own variant, and no code
//! path panics on malformed input. Every byte before the records is sealed
//! by the metadata checksum, so a changed `n` or strategy byte, which no
//! structural check can see, fails [`ArenaFile::open`] with
//! [`GraphError::ArenaCorrupt`]. A segment whose record bytes do not hash
//! to the recorded CRC32 is rejected at load time with
//! [`GraphError::ArenaChecksumMismatch`] instead of producing silently-wrong
//! edges.
//!
//! Every segment load and drop is charged to
//! [`crate::metrics::record_resident_edges_acquired`] /
//! [`crate::metrics::record_resident_edges_released`], so experiment E16 can
//! assert the out-of-core path's `peak_resident_edges` high-water mark
//! against the per-piece bound while the flat path peaks at `m`.
//!
//! The loader only reads: a failed read returns its typed error, and whether
//! to retry is the caller's decision (the protocol driver retries a machine's
//! whole attempt, read and build together).

use crate::edge::Edge;
use crate::error::GraphError;
use crate::metrics;
use crate::partition::{PartitionStrategy, PartitionedGraph};
use crate::view::GraphView;
use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic bytes identifying a version-3 edge-arena file.
pub const ARENA_MAGIC: [u8; 8] = *b"RCARENA3";
/// The format version this build reads and writes.
pub const ARENA_VERSION: u32 = 3;
/// Bytes in the fixed-size header that precedes the segment table.
const HEADER_BYTES: u64 = 40;
/// Bytes per segment-table entry (`offset: u64`, `len: u64`).
const SEGMENT_ENTRY_BYTES: u64 = 16;
/// Bytes per checksum-table entry and of the metadata checksum
/// (`crc32: u32`).
const CRC_ENTRY_BYTES: u64 = 4;
/// Bytes per edge record (`u: u32`, `v: u32`).
const RECORD_BYTES: u64 = 8;
/// Edge records decoded per buffered read (32 KiB stack chunk).
const CHUNK_RECORDS: usize = 4096;

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, polynomial 0xEDB88320), slicing-by-16 with const-built
// tables. Streaming: start from `CRC32_INIT`, fold chunks through
// `crc32_update`, finish with `crc32_finish`.
// ---------------------------------------------------------------------------

const CRC32_INIT: u32 = 0xFFFF_FFFF;

/// `CRC32_TABLES[0]` is the classic byte-at-a-time table. `CRC32_TABLES[k][b]`
/// is what a byte `b` contributes to the state once `k` zero bytes have
/// followed it, so the sixteen bytes of one step fold with independent
/// lookups.
const CRC32_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

fn crc32_update(mut state: u32, bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut blocks = bytes.chunks_exact(16);
    for block in &mut blocks {
        let word =
            |i: usize| u32::from_le_bytes([block[i], block[i + 1], block[i + 2], block[i + 3]]);
        let (a, b, c, d) = (word(0) ^ state, word(4), word(8), word(12));
        // Byte `j` of the block is followed by `15 - j` more bytes.
        state = t[15][(a & 0xFF) as usize]
            ^ t[14][((a >> 8) & 0xFF) as usize]
            ^ t[13][((a >> 16) & 0xFF) as usize]
            ^ t[12][(a >> 24) as usize]
            ^ t[11][(b & 0xFF) as usize]
            ^ t[10][((b >> 8) & 0xFF) as usize]
            ^ t[9][((b >> 16) & 0xFF) as usize]
            ^ t[8][(b >> 24) as usize]
            ^ t[7][(c & 0xFF) as usize]
            ^ t[6][((c >> 8) & 0xFF) as usize]
            ^ t[5][((c >> 16) & 0xFF) as usize]
            ^ t[4][(c >> 24) as usize]
            ^ t[3][(d & 0xFF) as usize]
            ^ t[2][((d >> 8) & 0xFF) as usize]
            ^ t[1][((d >> 16) & 0xFF) as usize]
            ^ t[0][(d >> 24) as usize];
    }
    for &b in blocks.remainder() {
        state = (state >> 8) ^ t[0][((state ^ b as u32) & 0xFF) as usize];
    }
    state
}

fn crc32_finish(state: u32) -> u32 {
    state ^ 0xFFFF_FFFF
}

/// CRC32 (IEEE) of `bytes` — the checksum recorded per segment in arena
/// files.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_finish(crc32_update(CRC32_INIT, bytes))
}

fn strategy_to_byte(s: PartitionStrategy) -> u8 {
    match s {
        PartitionStrategy::Random => 0,
        PartitionStrategy::Adversarial => 1,
    }
}

fn strategy_from_byte(b: u8) -> Result<PartitionStrategy, GraphError> {
    match b {
        0 => Ok(PartitionStrategy::Random),
        1 => Ok(PartitionStrategy::Adversarial),
        _ => Err(GraphError::ArenaCorrupt {
            reason: format!("unknown partition-strategy byte {b}"),
        }),
    }
}

fn io_err(what: &str, e: std::io::Error) -> GraphError {
    GraphError::ArenaIo {
        context: format!("{what}: {e}"),
    }
}

/// Serializes a partitioned edge arena to `path` in the version-3 format
/// described in the module docs (per-segment CRC32 checksum table and the
/// metadata checksum included). Overwrites any existing file.
pub fn write_arena_file(path: &Path, arena: &PartitionedGraph) -> Result<(), GraphError> {
    let mut meta = Vec::new();
    meta.extend_from_slice(&ARENA_MAGIC);
    meta.extend_from_slice(&ARENA_VERSION.to_le_bytes());
    meta.extend_from_slice(&[strategy_to_byte(arena.strategy()), 0, 0, 0]);
    for x in [arena.n(), arena.k(), arena.m()] {
        meta.extend_from_slice(&(x as u64).to_le_bytes());
    }
    let mut offset = 0u64;
    for len in arena.piece_sizes() {
        meta.extend_from_slice(&offset.to_le_bytes());
        meta.extend_from_slice(&(len as u64).to_le_bytes());
        offset += len as u64;
    }
    let records = arena.arena();
    let mut start = 0usize;
    for len in arena.piece_sizes() {
        let mut state = CRC32_INIT;
        for e in &records[start..start + len] {
            state = crc32_update(state, &e.u.to_le_bytes());
            state = crc32_update(state, &e.v.to_le_bytes());
        }
        meta.extend_from_slice(&crc32_finish(state).to_le_bytes());
        start += len;
    }
    let meta_crc = crc32(&meta);
    meta.extend_from_slice(&meta_crc.to_le_bytes());

    let file = File::create(path).map_err(|e| io_err("creating arena file", e))?;
    let mut w = BufWriter::new(file);
    let write = |w: &mut BufWriter<File>, bytes: &[u8]| {
        w.write_all(bytes)
            .map_err(|e| io_err("writing arena file", e))
    };
    write(&mut w, &meta)?;
    for e in arena.arena() {
        write(&mut w, &e.u.to_le_bytes())?;
        write(&mut w, &e.v.to_le_bytes())?;
    }
    w.flush().map_err(|e| io_err("flushing arena file", e))
}

/// Validated metadata of an on-disk edge arena: header fields plus the
/// segment table and the per-segment CRC32 checksum table. Opening is cheap
/// (header + tables only); edge records are streamed later through a
/// [`SegmentLoader`].
#[derive(Debug, Clone)]
pub struct ArenaFile {
    path: PathBuf,
    n: usize,
    k: usize,
    m: usize,
    strategy: PartitionStrategy,
    /// Per-machine `(offset, len)` into the record section, in records.
    segments: Vec<(usize, usize)>,
    /// Per-machine CRC32 of the segment's record bytes.
    crcs: Vec<u32>,
}

impl ArenaFile {
    /// Opens `path`, validates the header and tables, and returns the
    /// arena's metadata.
    ///
    /// Malformed inputs are rejected with typed errors, never panics:
    /// [`GraphError::ArenaBadMagic`], [`GraphError::ArenaBadVersion`],
    /// [`GraphError::ArenaTruncated`] (file shorter than the header/tables
    /// imply), and [`GraphError::ArenaCorrupt`] (segment table not tiling the
    /// record section, header inconsistencies, trailing bytes, or header and
    /// tables not matching the metadata checksum, which is checked last).
    pub fn open(path: &Path) -> Result<Self, GraphError> {
        let mut file = File::open(path).map_err(|e| io_err("opening arena file", e))?;
        let file_len = file
            .metadata()
            .map_err(|e| io_err("reading arena metadata", e))?
            .len();

        // Magic first: a non-arena file should say "bad magic", not
        // "truncated", even when it is tiny. Zero-pad short reads.
        let mut magic = [0u8; 8];
        let take = (file_len.min(8)) as usize;
        file.read_exact(&mut magic[..take])
            .map_err(|e| io_err("reading arena magic", e))?;
        if magic != ARENA_MAGIC {
            return Err(GraphError::ArenaBadMagic { found: magic });
        }
        if file_len < HEADER_BYTES {
            return Err(GraphError::ArenaTruncated {
                expected_bytes: HEADER_BYTES,
                found_bytes: file_len,
            });
        }

        let mut rest = [0u8; (HEADER_BYTES - 8) as usize];
        file.read_exact(&mut rest)
            .map_err(|e| io_err("reading arena header", e))?;
        let version = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
        if version != ARENA_VERSION {
            return Err(GraphError::ArenaBadVersion { found: version });
        }
        let strategy = strategy_from_byte(rest[4])?;
        if rest[5] != 0 || rest[6] != 0 || rest[7] != 0 {
            return Err(GraphError::ArenaCorrupt {
                reason: "nonzero header padding".into(),
            });
        }
        let read_u64 =
            |b: &[u8]| u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]);
        let n = read_u64(&rest[8..16]);
        let k = read_u64(&rest[16..24]);
        let m = read_u64(&rest[24..32]);
        if k == 0 {
            return Err(GraphError::ArenaCorrupt {
                reason: "machine count k must be at least 1".into(),
            });
        }
        if n > u32::MAX as u64 + 1 {
            return Err(GraphError::ArenaCorrupt {
                reason: format!("vertex count {n} exceeds the u32 vertex-id space"),
            });
        }

        // The header, both tables and the metadata checksum precede the
        // records.
        let expected_bytes = k
            .checked_mul(SEGMENT_ENTRY_BYTES + CRC_ENTRY_BYTES)
            .and_then(|t| m.checked_mul(RECORD_BYTES).map(|r| (t, r)))
            .and_then(|(t, r)| {
                (HEADER_BYTES + CRC_ENTRY_BYTES)
                    .checked_add(t)?
                    .checked_add(r)
            })
            .ok_or_else(|| GraphError::ArenaCorrupt {
                reason: format!("header sizes overflow: k={k}, m={m}"),
            })?;
        if file_len < expected_bytes {
            return Err(GraphError::ArenaTruncated {
                expected_bytes,
                found_bytes: file_len,
            });
        }
        if file_len > expected_bytes {
            return Err(GraphError::ArenaCorrupt {
                reason: format!(
                    "{} trailing bytes after the record section",
                    file_len - expected_bytes
                ),
            });
        }

        // The size check above bounds `k` by the file length.
        let table_bytes = (k * SEGMENT_ENTRY_BYTES) as usize;
        let mut tables = vec![0u8; table_bytes + ((k + 1) * CRC_ENTRY_BYTES) as usize];
        file.read_exact(&mut tables)
            .map_err(|e| io_err("reading arena tables", e))?;
        let (tables, stored) = tables.split_at(tables.len() - CRC_ENTRY_BYTES as usize);

        let mut segments = Vec::with_capacity(k as usize);
        let mut expected_offset = 0u64;
        for (i, entry) in tables[..table_bytes]
            .chunks_exact(SEGMENT_ENTRY_BYTES as usize)
            .enumerate()
        {
            let offset = read_u64(&entry[0..8]);
            let len = read_u64(&entry[8..16]);
            if offset != expected_offset {
                return Err(GraphError::ArenaCorrupt {
                    reason: format!(
                        "segment {i} starts at record {offset}, expected {expected_offset} \
                         (segments must tile the record section)"
                    ),
                });
            }
            expected_offset = offset
                .checked_add(len)
                .ok_or_else(|| GraphError::ArenaCorrupt {
                    reason: format!("segment {i} offset+len overflows"),
                })?;
            segments.push((offset as usize, len as usize));
        }
        if expected_offset != m {
            return Err(GraphError::ArenaCorrupt {
                reason: format!(
                    "segment table covers {expected_offset} records but the header says m={m}"
                ),
            });
        }

        let crcs = tables[table_bytes..]
            .chunks_exact(CRC_ENTRY_BYTES as usize)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();

        let state = crc32_update(crc32_update(CRC32_INIT, &magic), &rest);
        let found = crc32_finish(crc32_update(state, tables));
        let stored = u32::from_le_bytes([stored[0], stored[1], stored[2], stored[3]]);
        if found != stored {
            return Err(GraphError::ArenaCorrupt {
                reason: format!(
                    "metadata checksum mismatch: stored {stored:#010x}, computed {found:#010x}"
                ),
            });
        }

        Ok(ArenaFile {
            path: path.to_path_buf(),
            n: n as usize,
            k: k as usize,
            m: m as usize,
            strategy,
            segments,
            crcs,
        })
    }

    /// The path this arena was opened from.
    #[inline]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of vertices (shared by every piece).
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of machines.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Total number of edge records.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// The strategy that produced the partition stored in this file.
    #[inline]
    pub fn strategy(&self) -> PartitionStrategy {
        self.strategy
    }

    /// Number of edges each machine received, in machine order.
    pub fn piece_sizes(&self) -> Vec<usize> {
        self.segments.iter().map(|&(_, len)| len).collect()
    }
}

/// Streams one machine segment of an [`ArenaFile`] at a time into a reusable
/// buffer, exposing it as a [`GraphView`] — the bounded-memory front door of
/// the out-of-core protocol runner.
///
/// At most one load is resident per loader; loading a new segment releases
/// the previous one. Every acquire/release is charged to
/// [`crate::metrics::resident_edges`] so E16 can measure the high-water mark.
///
/// Every load is checksum-verified: the CRC32 of the bytes actually read
/// must match the file's checksum table or the load fails with
/// [`GraphError::ArenaChecksumMismatch`].
#[derive(Debug)]
pub struct SegmentLoader<'a> {
    arena: &'a ArenaFile,
    file: File,
    buf: Vec<Edge>,
    resident: usize,
}

impl<'a> SegmentLoader<'a> {
    /// Opens the arena's backing file for segment streaming.
    pub fn new(arena: &'a ArenaFile) -> Result<Self, GraphError> {
        let file = File::open(arena.path()).map_err(|e| io_err("opening arena for reading", e))?;
        Ok(SegmentLoader {
            arena,
            file,
            buf: Vec::new(),
            resident: 0,
        })
    }

    /// Loads machine `i`'s segment into the reusable buffer, replacing (and
    /// releasing) whatever was previously loaded, and returns it as a
    /// zero-copy view. Records decode through a fixed-size stack chunk —
    /// peak extra memory is one segment plus 32 KiB regardless of `m`.
    ///
    /// The decoded bytes are CRC32-verified against the file's checksum
    /// table. A failed read returns its typed error and leaves nothing
    /// resident; the next load starts from a cleared buffer.
    ///
    /// # Panics
    ///
    /// Panics if `i >= k`; malformed file *contents* never panic, they
    /// return typed errors.
    pub fn load(&mut self, i: usize) -> Result<GraphView<'_>, GraphError> {
        assert!(i < self.arena.k(), "machine index {i} out of range");
        self.release();
        self.read_segment(i)?;
        let len = self.buf.len();
        metrics::record_resident_edges_acquired(len);
        self.resident = len;
        Ok(GraphView::new_unchecked(self.arena.n(), &self.buf))
    }

    /// Loads the *entire* record section (all `m` records resident at once —
    /// the frozen flat baseline E16 compares against) and returns one view
    /// per machine, in machine order. Each segment is checksum-verified
    /// exactly as in [`SegmentLoader::load`].
    pub fn load_all(&mut self) -> Result<Vec<GraphView<'_>>, GraphError> {
        self.release();
        for i in 0..self.arena.k() {
            self.read_segment(i)?;
        }
        metrics::record_resident_edges_acquired(self.arena.m());
        self.resident = self.arena.m();
        let n = self.arena.n();
        let buf = &self.buf;
        Ok(self
            .arena
            .segments
            .iter()
            .map(|&(offset, len)| GraphView::new_unchecked(n, &buf[offset..offset + len]))
            .collect())
    }

    /// Edge records currently resident in this loader's buffer.
    #[inline]
    pub fn resident(&self) -> usize {
        self.resident
    }

    /// Drops the current segment (if any) and returns its accounting.
    pub fn release(&mut self) {
        if self.resident > 0 {
            metrics::record_resident_edges_released(self.resident);
            self.resident = 0;
        }
        self.buf.clear();
    }

    /// Appends segment `segment` to `self.buf` and verifies its bytes
    /// against the checksum table.
    fn read_segment(&mut self, segment: usize) -> Result<(), GraphError> {
        let (offset, len) = self.arena.segments[segment];
        let found = self.load_range(offset, len)?;
        let expected = self.arena.crcs[segment];
        if expected != found {
            return Err(GraphError::ArenaChecksumMismatch {
                segment,
                expected,
                found,
            });
        }
        Ok(())
    }

    /// Appends `len` records starting at record `offset` to `self.buf`,
    /// decoding and validating through a fixed-size stack chunk, and returns
    /// the CRC32 of the raw record bytes read.
    fn load_range(&mut self, offset: usize, len: usize) -> Result<u32, GraphError> {
        let n = self.arena.n();
        self.buf.reserve(len);
        let base = HEADER_BYTES
            + self.arena.k() as u64 * (SEGMENT_ENTRY_BYTES + CRC_ENTRY_BYTES)
            + CRC_ENTRY_BYTES
            + offset as u64 * RECORD_BYTES;
        self.file
            .seek(SeekFrom::Start(base))
            .map_err(|e| io_err("seeking to arena segment", e))?;
        let mut chunk = [0u8; CHUNK_RECORDS * RECORD_BYTES as usize];
        let mut remaining = len;
        let mut state = CRC32_INIT;
        while remaining > 0 {
            let take = remaining.min(CHUNK_RECORDS);
            self.file
                .read_exact(&mut chunk[..take * RECORD_BYTES as usize])
                .map_err(|e| io_err("reading arena records", e))?;
            state = crc32_update(state, &chunk[..take * RECORD_BYTES as usize]);
            for r in 0..take {
                let b = r * RECORD_BYTES as usize;
                let u = u32::from_le_bytes([chunk[b], chunk[b + 1], chunk[b + 2], chunk[b + 3]]);
                let v =
                    u32::from_le_bytes([chunk[b + 4], chunk[b + 5], chunk[b + 6], chunk[b + 7]]);
                if u >= v || (v as usize) >= n {
                    return Err(GraphError::ArenaCorrupt {
                        reason: format!("record ({u}, {v}) violates canonical u < v < n (n={n})"),
                    });
                }
                self.buf.push(Edge { u, v });
            }
            remaining -= take;
        }
        Ok(crc32_finish(state))
    }
}

impl Drop for SegmentLoader<'_> {
    fn drop(&mut self) {
        self.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::er::gnp;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn tmp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("rc_arena_test_{}_{tag}.bin", std::process::id()))
    }

    fn sample_arena(seed: u64, k: usize) -> PartitionedGraph {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = gnp(120, 0.08, &mut rng);
        PartitionedGraph::random(&g, k, &mut rng).unwrap()
    }

    fn write_sample(tag: &str, seed: u64, k: usize) -> (PathBuf, PartitionedGraph) {
        let arena = sample_arena(seed, k);
        let path = tmp_path(tag);
        write_arena_file(&path, &arena).unwrap();
        (path, arena)
    }

    /// Byte offset of the record section in a file with `k` machines.
    fn record_section(k: usize) -> usize {
        40 + k * 16 + k * 4 + 4
    }

    /// Rewrites the metadata checksum of a `k`-machine file to match its
    /// (edited) header and tables, so a test reaches the check it targets.
    fn reseal(bytes: &mut [u8], k: usize) {
        let at = record_section(k) - 4;
        let crc = crc32(&bytes[..at]);
        bytes[at..at + 4].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time CRC32 update, the differential baseline for the
    /// sliced one.
    fn crc32_update_bytewise(mut state: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            state = (state >> 8) ^ CRC32_TABLES[0][((state ^ b as u32) & 0xFF) as usize];
        }
        state
    }

    #[test]
    fn sliced_crc32_equals_bytewise_at_every_length_and_split() {
        let buf: Vec<u8> = (0..4096u64)
            .map(|i| crate::mix64(i ^ 0xC3C3) as u8)
            .collect();
        for len in 0..=64 {
            let bytes = &buf[7..7 + len];
            assert_eq!(
                crc32_update(CRC32_INIT, bytes),
                crc32_update_bytewise(CRC32_INIT, bytes),
                "length {len}"
            );
        }
        // A streamed update split into two calls equals one call over the
        // whole buffer, wherever the split falls relative to the 16-byte
        // blocks.
        let whole = crc32_update_bytewise(CRC32_INIT, &buf);
        for split in (0..=40).chain([1000, 2047, 2048, 4081, 4096]) {
            let (head, tail) = buf.split_at(split);
            assert_eq!(
                crc32_update(crc32_update(CRC32_INIT, head), tail),
                whole,
                "split at {split}"
            );
        }
    }

    #[test]
    fn round_trip_preserves_layout_and_pieces() {
        let (path, arena) = write_sample("round_trip", 1, 5);
        let file = ArenaFile::open(&path).unwrap();
        assert_eq!(file.n(), arena.n());
        assert_eq!(file.k(), arena.k());
        assert_eq!(file.m(), arena.m());
        assert_eq!(file.strategy(), arena.strategy());
        assert_eq!(file.piece_sizes(), arena.piece_sizes());
        let mut loader = SegmentLoader::new(&file).unwrap();
        for i in 0..arena.k() {
            let view = loader.load(i).unwrap();
            assert_eq!(view.edges(), arena.piece(i).edges(), "piece {i}");
            assert_eq!(view.n(), arena.n());
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn load_all_matches_views() {
        let (path, arena) = write_sample("load_all", 2, 4);
        let file = ArenaFile::open(&path).unwrap();
        let mut loader = SegmentLoader::new(&file).unwrap();
        let views = loader.load_all().unwrap();
        assert_eq!(views.len(), arena.k());
        for (i, v) in views.iter().enumerate() {
            assert_eq!(v.edges(), arena.piece(i).edges(), "piece {i}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn loads_charge_resident_accounting() {
        let (path, arena) = write_sample("accounting", 3, 3);
        let file = ArenaFile::open(&path).unwrap();
        let mut loader = SegmentLoader::new(&file).unwrap();
        let view = loader.load(0).unwrap();
        let len = view.m();
        assert_eq!(loader.resident(), len);
        // Counters are process-wide and tests run concurrently; assert only
        // what must hold regardless of interleaving.
        assert!(metrics::peak_resident_edges() >= len as u64);
        loader.release();
        assert_eq!(loader.resident(), 0);
        drop(loader);
        let _ = std::fs::remove_file(&path);
        let _ = arena;
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = crate::graph::Graph::empty(9);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let arena = PartitionedGraph::random(&g, 3, &mut rng).unwrap();
        let path = tmp_path("empty");
        write_arena_file(&path, &arena).unwrap();
        let file = ArenaFile::open(&path).unwrap();
        assert_eq!(file.m(), 0);
        let mut loader = SegmentLoader::new(&file).unwrap();
        for i in 0..3 {
            assert!(loader.load(i).unwrap().is_empty());
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = ArenaFile::open(&tmp_path("never_written")).unwrap_err();
        assert!(matches!(err, GraphError::ArenaIo { .. }), "{err}");
    }

    #[test]
    fn bad_magic_rejected() {
        let (path, _) = write_sample("bad_magic", 5, 3);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] = b'X';
        std::fs::write(&path, &bytes).unwrap();
        let err = ArenaFile::open(&path).unwrap_err();
        assert!(matches!(err, GraphError::ArenaBadMagic { .. }), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tiny_garbage_file_is_bad_magic_not_panic() {
        let path = tmp_path("tiny");
        std::fs::write(&path, b"abc").unwrap();
        let err = ArenaFile::open(&path).unwrap_err();
        assert!(matches!(err, GraphError::ArenaBadMagic { .. }), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bad_version_rejected() {
        let (path, _) = write_sample("bad_version", 6, 3);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&7u32.to_le_bytes());
        reseal(&mut bytes, 3);
        std::fs::write(&path, &bytes).unwrap();
        let err = ArenaFile::open(&path).unwrap_err();
        assert_eq!(err, GraphError::ArenaBadVersion { found: 7 });
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn magic_and_version_must_agree() {
        // A retired magic is not an arena this build reads, whatever the
        // version field says: version 2 had no metadata checksum.
        let (path, _) = write_sample("magic_mismatch", 15, 3);
        let clean = std::fs::read(&path).unwrap();
        for old in [*b"RCARENA1", *b"RCARENA2"] {
            let mut bytes = clean.clone();
            bytes[..8].copy_from_slice(&old);
            std::fs::write(&path, &bytes).unwrap();
            let err = ArenaFile::open(&path).unwrap_err();
            assert_eq!(err, GraphError::ArenaBadMagic { found: old });
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn metadata_checksum_catches_a_changed_vertex_count_or_table_entry() {
        let (path, arena) = write_sample("meta_crc", 17, 3);
        let clean = std::fs::read(&path).unwrap();
        // `n` (bytes 16..24) plus one, and the last segment's CRC entry with
        // one bit flipped: both pass every structural check.
        let n_plus_one = (arena.n() as u64 + 1).to_le_bytes();
        let last_crc = record_section(3) - 8;
        for (at, patch) in [
            (16, &n_plus_one[..]),
            (last_crc, &[clean[last_crc] ^ 1][..]),
        ] {
            let mut bytes = clean.clone();
            bytes[at..at + patch.len()].copy_from_slice(patch);
            std::fs::write(&path, &bytes).unwrap();
            let err = ArenaFile::open(&path).unwrap_err();
            assert!(matches!(err, GraphError::ArenaCorrupt { .. }), "{err}");
            assert!(err.to_string().contains("metadata checksum"), "{err}");
            // Resealed, the same edit opens: only the checksum caught it.
            reseal(&mut bytes, 3);
            std::fs::write(&path, &bytes).unwrap();
            assert!(ArenaFile::open(&path).is_ok());
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_tail_rejected_with_byte_counts() {
        let (path, _) = write_sample("truncated", 7, 3);
        let bytes = std::fs::read(&path).unwrap();
        let full = bytes.len() as u64;
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let err = ArenaFile::open(&path).unwrap_err();
        assert_eq!(
            err,
            GraphError::ArenaTruncated {
                expected_bytes: full,
                found_bytes: full - 5,
            }
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_header_rejected() {
        let (path, _) = write_sample("truncated_header", 8, 3);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..20]).unwrap();
        let err = ArenaFile::open(&path).unwrap_err();
        assert!(matches!(err, GraphError::ArenaTruncated { .. }), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn segment_table_offset_mismatch_rejected() {
        let (path, _) = write_sample("seg_offset", 9, 3);
        let mut bytes = std::fs::read(&path).unwrap();
        // Second segment's offset entry: header (40) + one entry (16).
        let pos = 40 + 16;
        let old = u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap());
        bytes[pos..pos + 8].copy_from_slice(&(old + 1).to_le_bytes());
        reseal(&mut bytes, 3);
        std::fs::write(&path, &bytes).unwrap();
        let err = ArenaFile::open(&path).unwrap_err();
        assert!(matches!(err, GraphError::ArenaCorrupt { .. }), "{err}");
        assert!(err.to_string().contains("segment 1"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn segment_table_length_mismatch_rejected() {
        let (path, _) = write_sample("seg_len", 10, 3);
        let mut bytes = std::fs::read(&path).unwrap();
        // Last segment's len entry: header + two entries + offset field.
        let pos = 40 + 2 * 16 + 8;
        let old = u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap());
        bytes[pos..pos + 8].copy_from_slice(&(old + 3).to_le_bytes());
        reseal(&mut bytes, 3);
        std::fs::write(&path, &bytes).unwrap();
        let err = ArenaFile::open(&path).unwrap_err();
        assert!(matches!(err, GraphError::ArenaCorrupt { .. }), "{err}");
        assert!(err.to_string().contains("m="), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let (path, _) = write_sample("trailing", 11, 3);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0u8; 9]);
        std::fs::write(&path, &bytes).unwrap();
        let err = ArenaFile::open(&path).unwrap_err();
        assert!(matches!(err, GraphError::ArenaCorrupt { .. }), "{err}");
        assert!(err.to_string().contains("trailing"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bad_strategy_byte_rejected() {
        let (path, _) = write_sample("bad_strategy", 12, 3);
        let clean = std::fs::read(&path).unwrap();
        // 2 was the retired round-robin strategy.
        for byte in [2, 9] {
            let mut bytes = clean.clone();
            bytes[12] = byte;
            reseal(&mut bytes, 3);
            std::fs::write(&path, &bytes).unwrap();
            let err = ArenaFile::open(&path).unwrap_err();
            assert!(matches!(err, GraphError::ArenaCorrupt { .. }), "{err}");
            assert!(
                err.to_string().contains(&format!("strategy byte {byte}")),
                "{err}"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn zero_machines_in_header_rejected() {
        let (path, _) = write_sample("zero_k", 13, 1);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[24..32].copy_from_slice(&0u64.to_le_bytes());
        // Drop the (single) segment-table and checksum-table entries so
        // sizes stay consistent and the k check is what fires.
        let mut patched: Vec<u8> = bytes[..40]
            .iter()
            .chain(&bytes[40 + 16 + 4..])
            .copied()
            .collect();
        reseal(&mut patched, 0);
        std::fs::write(&path, &patched).unwrap();
        let err = ArenaFile::open(&path).unwrap_err();
        assert!(matches!(err, GraphError::ArenaCorrupt { .. }), "{err}");
        assert!(err.to_string().contains("k must be"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_record_rejected_at_load_without_panic() {
        let (path, arena) = write_sample("bad_record", 14, 2);
        assert!(arena.piece_sizes()[0] > 0);
        let mut bytes = std::fs::read(&path).unwrap();
        // First record of segment 0: make it a self-loop (u == v). Decode
        // validation fires before the checksum comparison, so this is
        // ArenaCorrupt, not ArenaChecksumMismatch.
        let rec = record_section(2);
        let u = u32::from_le_bytes(bytes[rec..rec + 4].try_into().unwrap());
        bytes[rec + 4..rec + 8].copy_from_slice(&u.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let file = ArenaFile::open(&path).unwrap();
        let mut loader = SegmentLoader::new(&file).unwrap();
        let err = loader.load(0).unwrap_err();
        assert!(matches!(err, GraphError::ArenaCorrupt { .. }), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn silently_swapped_record_caught_by_checksum() {
        let (path, arena) = write_sample("crc_swap", 16, 2);
        let sizes = arena.piece_sizes();
        assert!(sizes[0] >= 2, "need two records in segment 0");
        let mut bytes = std::fs::read(&path).unwrap();
        // Overwrite record 0 with record 1's bytes: every record still
        // decodes as a valid canonical edge, so only the checksum can tell.
        let rec = record_section(2);
        let dup: [u8; 8] = bytes[rec + 8..rec + 16].try_into().unwrap();
        let original: [u8; 8] = bytes[rec..rec + 8].try_into().unwrap();
        assert_ne!(dup, original, "adjacent records should differ");
        bytes[rec..rec + 8].copy_from_slice(&dup);
        std::fs::write(&path, &bytes).unwrap();
        let file = ArenaFile::open(&path).unwrap();
        let mut loader = SegmentLoader::new(&file).unwrap();
        let err = loader.load(0).unwrap_err();
        match err {
            GraphError::ArenaChecksumMismatch {
                segment,
                expected,
                found,
            } => {
                assert_eq!(segment, 0);
                assert_ne!(expected, found);
            }
            other => panic!("expected checksum mismatch, got {other}"),
        }
        // Segment 1 is untouched and still loads.
        assert_eq!(loader.load(1).unwrap().edges(), arena.piece(1).edges());
        let _ = std::fs::remove_file(&path);
    }

    /// The byte range of mutation region `region` (0 header, 1 segment
    /// table, 2 checksum table and metadata checksum, 3 records) in an
    /// RCARENA3 file with `k` machines and `m` records, and the width of one
    /// field there: the header and the segment table hold `u64` fields, the
    /// checksum table and the metadata checksum `u32` entries, and the
    /// records one `u64` `(u, v)` pair each.
    fn mutation_region(region: u8, k: usize, m: usize) -> (std::ops::Range<usize>, usize) {
        let tables = 40 + 16 * k;
        let records = record_section(k);
        match region {
            0 => (0..40, 8),
            1 => (40..tables, 8),
            2 => (tables..records, 4),
            _ => (records..records + 8 * m, 8),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 96 } else { 256 }))]

        /// One mutated byte or field anywhere in a valid file (header,
        /// segment table, checksum tables or records) makes opening and
        /// loading every segment either fail with a typed error or succeed
        /// with the written header and every original piece intact; nothing
        /// panics. A changed byte before the records never opens.
        #[test]
        fn a_structured_mutation_loads_the_original_pieces_or_errs_without_panic(
            seed in any::<u64>(),
            k in 1usize..9,
            region in 0u8..4,
            pick in any::<u64>(),
            whole_field in any::<bool>(),
            value in any::<u64>(),
        ) {
            let (path, arena) = write_sample("mutation", seed, k);
            let clean = std::fs::read(&path).unwrap();
            let mut bytes = clean.clone();
            let (range, width) = mutation_region(region, k, arena.m());
            let span = range.len();
            if whole_field {
                let at = range.start + (pick as usize % (span / width)) * width;
                let field = &mut bytes[at..at + width];
                let mut old = [0u8; 8];
                old[..width].copy_from_slice(field);
                let old = u64::from_le_bytes(old);
                // A random value, a neighbour of the old one, or an extreme.
                let new = match value % 4 {
                    0 => value >> 2,
                    1 => old.wrapping_add(1),
                    2 => old.wrapping_sub(1),
                    _ => [0, 1, u64::MAX, 1 << 32][(value >> 2) as usize % 4],
                };
                field.copy_from_slice(&new.to_le_bytes()[..width]);
            } else {
                bytes[range.start + pick as usize % span] ^= (value as u8) | 1;
            }
            std::fs::write(&path, &bytes).unwrap();
            let opened = ArenaFile::open(&path);
            let meta = record_section(k);
            prop_assert!(
                bytes[..meta] == clean[..meta] || opened.is_err(),
                "a file with a changed header or table byte opened"
            );
            if let Ok(file) = &opened {
                prop_assert_eq!(
                    (file.n(), file.k(), file.m(), file.strategy()),
                    (arena.n(), arena.k(), arena.m(), arena.strategy())
                );
            }
            let loaded = opened.and_then(|file| {
                let mut loader = SegmentLoader::new(&file)?;
                let pieces = (0..file.k())
                    .map(|i| loader.load(i).map(|view| view.edges().to_vec()))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(pieces)
            });
            let _ = std::fs::remove_file(&path);
            if let Ok(pieces) = loaded {
                prop_assert_eq!(pieces.len(), arena.k());
                for (i, piece) in pieces.iter().enumerate() {
                    prop_assert_eq!(piece.as_slice(), arena.piece(i).edges());
                }
            }
        }
    }
}
