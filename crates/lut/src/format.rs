//! Binary serialization of lookup tables — the mmap-serveable v4 format.
//!
//! Layout (all integers little-endian, every section 64-byte aligned):
//!
//! ```text
//! header, 64 bytes
//!    0  magic          b"PLUT"
//!    4  version        u32    (currently 4)
//!    8  lambda         u8
//!    9  reserved       [u8; 7]  zero
//!   16  section count  u32    exactly 6 · (lambda − 2)
//!   20  reserved       u32    zero
//!   24  checksum       u64    striped FNV-1a 64 over bytes [64, file len)
//!   32  file len       u64
//!   40  reserved       [u8; 24] zero
//! section table, 32 bytes per entry, one per (degree, arena) in
//! canonical order (degree ascending, arena kind ascending):
//!    0  degree         u8
//!    1  kind           u8     0 edge_off · 1 edges · 2 costs ·
//!                             3 keys · 4 pat_off · 5 ids
//!    2  reserved       u16    zero
//!    4  element size   u32    bytes per element (4, 1, 2, 8, 4, 4)
//!    8  offset         u64    from file start; 64-byte aligned,
//!                             packed in table order with zero padding
//!   16  byte length    u64    count · element size
//!   24  element count  u64
//! payload sections, zero-padded to the next 64-byte boundary between
//! sections; the file ends flush with the last section.
//! ```
//!
//! The format carries no pointers and no floats, so it is fully
//! deterministic: identical tables serialize to identical bytes, and a
//! deserialized table re-serializes to the exact input bytes. Because the
//! layout is fixed little-endian, naturally aligned and explicitly
//! indexed, a v4 file can be served **zero-copy**: [`LookupTable::open_mmap`]
//! maps the file, verifies the checksum and every structural invariant
//! once, and then borrows the CSR arenas straight out of the mapping —
//! shared read-only across threads and processes from the page cache.
//! It is the only reader: [`TableInfo::read`] shares its header and
//! section-table parse.
//!
//! The checksum retains FNV-1a as its primitive but stripes it across 8
//! interleaved lanes of 8-byte little-endian words ([`fnv1a64_striped`]):
//! the payload is cut into 64-byte blocks (the trailing partial block
//! zero-padded), lane *i* folds word *i* of every block through the
//! FNV-1a xor-multiply step, and the eight lane states plus the payload
//! length are folded with plain byte-wise FNV-1a at the end. One
//! xor-multiply per 8 bytes across 8 independent dependency chains runs
//! at memory bandwidth instead of being serialized on one 3-cycle
//! multiply per byte — open-to-ready latency for a mapped table is one
//! fast scan, not a parse. Any byte flip still changes its word, its
//! lane's chain, and therefore the fold; the length term makes the
//! zero-padding injective.

use std::fmt;
use std::io::{self, Write};
use std::sync::Arc;

use crate::arena::Arena;
use crate::mmap::{Mapping, MAP_ALIGN};
use crate::table::{DegreeTable, LookupTable};

const MAGIC: &[u8; 4] = b"PLUT";
const VERSION: u32 = 4;
const HEADER_LEN: usize = 64;
const ENTRY_LEN: usize = 32;

/// Arena kinds in section-table order, with element sizes.
const KINDS: [(&str, u32); 6] = [
    ("edge_off", 4),
    ("edges", 1),
    ("costs", 2),
    ("keys", 8),
    ("pat_off", 4),
    ("ids", 4),
];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Plain FNV-1a 64 (the fold primitive of the striped checksum).
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(FNV_OFFSET, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

/// The lane step of the striped checksum: folds one 64-byte block into
/// the eight lane states.
#[inline]
fn fold_block(lanes: &mut [u64; 8], block: &[u8]) {
    for i in 0..8 {
        let w = u64::from_le_bytes(block[8 * i..8 * (i + 1)].try_into().expect("8 bytes"));
        lanes[i] = (lanes[i] ^ w).wrapping_mul(FNV_PRIME);
    }
}

/// Folds the zero-padded trailing partial block, then the lane states and
/// the payload length, into the final digest.
fn finalize(mut lanes: [u64; 8], partial: &[u8], len: u64) -> u64 {
    if !partial.is_empty() {
        let mut block = [0u8; 64];
        block[..partial.len()].copy_from_slice(partial);
        fold_block(&mut lanes, &block);
    }
    let mut tail = [0u8; 72];
    for (i, lane) in lanes.iter().enumerate() {
        tail[8 * i..8 * (i + 1)].copy_from_slice(&lane.to_le_bytes());
    }
    tail[64..72].copy_from_slice(&len.to_le_bytes());
    fnv1a64(&tail)
}

/// One-shot word-striped FNV-1a 64 (the v4 payload checksum). This is
/// the open-to-ready hot path of [`LookupTable::open_mmap`] — one pass
/// over the mapped body at ~8 bytes per FNV step.
pub fn fnv1a64_striped(bytes: &[u8]) -> u64 {
    let mut lanes = [FNV_OFFSET; 8];
    let chunks = bytes.chunks_exact(64);
    let rem = chunks.remainder();
    for block in chunks {
        fold_block(&mut lanes, block);
    }
    finalize(lanes, rem, bytes.len() as u64)
}

/// Error returned by [`LookupTable::open_mmap`] and [`TableInfo::read`].
#[derive(Debug)]
pub enum ReadTableError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with the `PLUT` magic.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// The payload checksum does not match its contents.
    BadChecksum {
        /// Checksum stored in the header.
        stored: u64,
        /// Checksum computed over the payload actually read.
        computed: u64,
    },
    /// Structurally invalid content (out-of-range degree, counts,
    /// indices, offsets or alignment).
    Corrupt(&'static str),
}

impl fmt::Display for ReadTableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadTableError::Io(e) => write!(f, "i/o error reading table: {e}"),
            ReadTableError::BadMagic => write!(f, "not a PatLabor lookup table (bad magic)"),
            ReadTableError::BadVersion(v) => write!(
                f,
                "unsupported table version {v} (this build reads v{VERSION}); \
                 regenerate the table with \
                 `patlabor lut build --lambda <L> -o <FILE>`"
            ),
            ReadTableError::BadChecksum { stored, computed } => write!(
                f,
                "payload checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
            ),
            ReadTableError::Corrupt(what) => write!(f, "corrupt table: {what}"),
        }
    }
}

impl std::error::Error for ReadTableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadTableError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ReadTableError {
    fn from(e: io::Error) -> Self {
        ReadTableError::Io(e)
    }
}

fn align_up(n: usize, align: usize) -> usize {
    n.div_ceil(align) * align
}

/// One parsed section-table entry.
#[derive(Debug, Clone, Copy)]
struct RawSection {
    degree: u8,
    kind: u8,
    elem: u32,
    offset: u64,
    bytes: u64,
    count: u64,
}

/// The canonical section plan for a table: `(degree, kind)` in order with
/// element sizes and, for a writer, the element counts.
fn section_plan(lambda: u8) -> impl Iterator<Item = (u8, u8, u32)> {
    (3..=lambda).flat_map(|d| (0u8..6).map(move |k| (d, k, KINDS[k as usize].1)))
}

fn section_count(lambda: u8) -> usize {
    6 * (lambda as usize - 2)
}

impl LookupTable {
    fn section_counts(&self, d: u8) -> [usize; 6] {
        let t = &self.tables[d as usize];
        [
            t.edge_off.len(),
            t.edges.len(),
            t.costs.len(),
            t.pattern_keys.len(),
            t.pattern_off.len(),
            t.pattern_ids.len(),
        ]
    }

    /// Serializes the table to any writer (a `&mut` reference works too).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_to<W: Write>(&self, mut w: W) -> io::Result<()> {
        let nsec = section_count(self.lambda);
        // Lay the sections out: packed in canonical order, each aligned.
        let mut offsets = Vec::with_capacity(nsec);
        let mut cursor = align_up(HEADER_LEN + nsec * ENTRY_LEN, MAP_ALIGN);
        let mut counts = Vec::with_capacity(nsec);
        for (d, k, elem) in section_plan(self.lambda) {
            let count = self.section_counts(d)[k as usize];
            offsets.push(cursor);
            counts.push(count);
            cursor = align_up(cursor + count * elem as usize, MAP_ALIGN);
        }
        let file_len = match counts.last() {
            Some(_) => {
                let (d, k, elem) = section_plan(self.lambda).last().expect("nsec > 0");
                let _ = (d, k);
                offsets[nsec - 1] + counts[nsec - 1] * elem as usize
            }
            None => align_up(HEADER_LEN, MAP_ALIGN),
        };

        // Body = section table + padded payload; buffered once so the
        // header can carry its checksum.
        let mut body = Vec::with_capacity(file_len - HEADER_LEN);
        for (i, (d, k, elem)) in section_plan(self.lambda).enumerate() {
            body.push(d);
            body.push(k);
            body.extend_from_slice(&0u16.to_le_bytes());
            body.extend_from_slice(&elem.to_le_bytes());
            body.extend_from_slice(&(offsets[i] as u64).to_le_bytes());
            body.extend_from_slice(&((counts[i] * elem as usize) as u64).to_le_bytes());
            body.extend_from_slice(&(counts[i] as u64).to_le_bytes());
        }
        for (i, (d, k, _)) in section_plan(self.lambda).enumerate() {
            body.resize(offsets[i] - HEADER_LEN, 0); // zero padding
            let t = &self.tables[d as usize];
            match k {
                0 => {
                    for &v in t.edge_off.iter() {
                        body.extend_from_slice(&v.to_le_bytes());
                    }
                }
                1 => body.extend_from_slice(&t.edges),
                2 => {
                    for &v in t.costs.iter() {
                        body.extend_from_slice(&v.to_le_bytes());
                    }
                }
                3 => {
                    for &v in t.pattern_keys.iter() {
                        body.extend_from_slice(&v.to_le_bytes());
                    }
                }
                4 => {
                    for &v in t.pattern_off.iter() {
                        body.extend_from_slice(&v.to_le_bytes());
                    }
                }
                _ => {
                    for &v in t.pattern_ids.iter() {
                        body.extend_from_slice(&v.to_le_bytes());
                    }
                }
            }
        }
        debug_assert_eq!(HEADER_LEN + body.len(), file_len);

        let mut header = [0u8; HEADER_LEN];
        header[0..4].copy_from_slice(MAGIC);
        header[4..8].copy_from_slice(&VERSION.to_le_bytes());
        header[8] = self.lambda;
        header[16..20].copy_from_slice(&(nsec as u32).to_le_bytes());
        header[24..32].copy_from_slice(&fnv1a64_striped(&body).to_le_bytes());
        header[32..40].copy_from_slice(&(file_len as u64).to_le_bytes());
        w.write_all(&header)?;
        w.write_all(&body)?;
        Ok(())
    }

    /// Opens a table **zero-copy**: the file is mapped read-only, the
    /// checksum and every structural invariant are verified once, and the
    /// CSR arenas then borrow the mapping directly — no parse, no copies,
    /// shared across threads (and across processes, via the page cache).
    ///
    /// The returned table answers queries identically to the one it was
    /// saved from; only [`LookupTable::backing`] differs.
    ///
    /// # Errors
    ///
    /// Returns [`ReadTableError`] on filesystem problems, version
    /// mismatch, checksum mismatch, or any malformed offset, count, index
    /// or alignment — all detected here, before any arena is served.
    /// Version ≤ 3 files get a [`ReadTableError::BadVersion`] naming the
    /// `lut build` regeneration command — v3 arenas were written
    /// unaligned and unpadded, so there is nothing to migrate in place.
    pub fn open_mmap(path: impl AsRef<std::path::Path>) -> Result<Self, ReadTableError> {
        let map = Arc::new(Mapping::open(path.as_ref())?);
        let bytes = map.bytes();
        let layout = Layout::parse(bytes)?;
        if layout.file_len != bytes.len() {
            return Err(ReadTableError::Corrupt("file length mismatch"));
        }
        // Checksum before anything borrows: one striped scan of the body.
        let computed = fnv1a64_striped(&bytes[HEADER_LEN..]);
        if layout.checksum != computed {
            return Err(ReadTableError::BadChecksum {
                stored: layout.checksum,
                computed,
            });
        }
        validate_section_table(layout.lambda, &layout.sections, layout.file_len)?;

        let mut tables: Vec<DegreeTable> = (0..=layout.lambda)
            .map(|_| DegreeTable::default())
            .collect();
        for chunk in layout.sections.chunks_exact(6) {
            let d = chunk[0].degree;
            let at = |i: usize| (chunk[i].offset as usize, chunk[i].count as usize);
            let (o0, c0) = at(0);
            let (o1, c1) = at(1);
            let (o2, c2) = at(2);
            let (o3, c3) = at(3);
            let (o4, c4) = at(4);
            let (o5, c5) = at(5);
            let edge_off: Arena<u32> = Arena::mapped(&map, o0, c0);
            let edges: Arena<u8> = Arena::mapped(&map, o1, c1);
            let costs: Arena<u16> = Arena::mapped(&map, o2, c2);
            let keys: Arena<u64> = Arena::mapped(&map, o3, c3);
            let pat_off: Arena<u32> = Arena::mapped(&map, o4, c4);
            let ids: Arena<u32> = Arena::mapped(&map, o5, c5);
            validate_degree_arenas(d, &edge_off, &edges, &costs, &keys, &pat_off, &ids)?;
            tables[d as usize] =
                DegreeTable::assemble(d, edge_off, edges, costs, keys, pat_off, ids);
        }
        Ok(LookupTable {
            lambda: layout.lambda,
            tables,
        })
    }

    /// Writes the table to a file path, replacing any file already there.
    ///
    /// The bytes go to `<path>.<pid>.tmp` in the same directory, which is
    /// then renamed over `path`. A process that has the old file mapped —
    /// a daemon serving it — keeps reading the old inode; rewriting that
    /// inode in place would cut the mapping's pages past the new end of
    /// file out from under it (`SIGBUS` on the next query).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; the temporary file is removed on
    /// failure and `path` is left as it was.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> io::Result<()> {
        let path = path.as_ref();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(".{}.tmp", std::process::id()));
        // No fsync: after a crash the file holds the old table, the new
        // one, or bytes the checksum rejects at open — never a table
        // that serves wrong answers.
        let written = std::fs::File::create(&tmp)
            .and_then(|file| self.write_to(file))
            .and_then(|()| std::fs::rename(&tmp, path));
        if written.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        written
    }
}

/// The header and section table of a v4 file — the one parse behind
/// [`LookupTable::open_mmap`] and [`TableInfo::read`].
struct Layout {
    lambda: u8,
    /// Payload checksum stored in the header.
    checksum: u64,
    /// File length stored in the header.
    file_len: usize,
    sections: Vec<RawSection>,
}

impl Layout {
    /// Parses and checks the header, then reads the section entries. The
    /// checksum, the stored length and the canonical section layout are
    /// left to the caller, which may report them instead of failing.
    fn parse(bytes: &[u8]) -> Result<Layout, ReadTableError> {
        let short = ReadTableError::Corrupt("file shorter than header");
        if bytes.len() < 8 {
            return Err(short);
        }
        if &bytes[0..4] != MAGIC {
            return Err(ReadTableError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        if version != VERSION {
            return Err(ReadTableError::BadVersion(version));
        }
        let h = bytes.get(..HEADER_LEN).ok_or(short)?;
        let lambda = h[8];
        if !crate::LAMBDAS.contains(&lambda) {
            return Err(ReadTableError::Corrupt("lambda out of range"));
        }
        if h[9..16].iter().any(|&b| b != 0) || h[20..24].iter().any(|&b| b != 0) {
            return Err(ReadTableError::Corrupt("reserved header bytes not zero"));
        }
        if h[40..64].iter().any(|&b| b != 0) {
            return Err(ReadTableError::Corrupt("reserved header bytes not zero"));
        }
        let nsec = u32::from_le_bytes(h[16..20].try_into().expect("4 bytes")) as usize;
        if nsec != section_count(lambda) {
            return Err(ReadTableError::Corrupt(
                "section count does not match lambda",
            ));
        }
        let checksum = u64::from_le_bytes(h[24..32].try_into().expect("8 bytes"));
        let file_len = u64::from_le_bytes(h[32..40].try_into().expect("8 bytes"));
        let file_len = usize::try_from(file_len)
            .map_err(|_| ReadTableError::Corrupt("file length out of range"))?;
        if file_len > (1usize << 40) {
            return Err(ReadTableError::Corrupt("implausible file length"));
        }
        let entries = bytes
            .get(HEADER_LEN..HEADER_LEN + nsec * ENTRY_LEN)
            .ok_or(ReadTableError::Corrupt("section table escapes the file"))?;
        let sections = entries
            .chunks_exact(ENTRY_LEN)
            .map(|e| parse_section_entry(e.try_into().expect("32 bytes")))
            .collect::<Result<_, _>>()?;
        Ok(Layout {
            lambda,
            checksum,
            file_len,
            sections,
        })
    }
}

fn parse_section_entry(e: &[u8; ENTRY_LEN]) -> Result<RawSection, ReadTableError> {
    if e[2] != 0 || e[3] != 0 {
        return Err(ReadTableError::Corrupt("reserved section bytes not zero"));
    }
    Ok(RawSection {
        degree: e[0],
        kind: e[1],
        elem: u32::from_le_bytes(e[4..8].try_into().expect("4 bytes")),
        offset: u64::from_le_bytes(e[8..16].try_into().expect("8 bytes")),
        bytes: u64::from_le_bytes(e[16..24].try_into().expect("8 bytes")),
        count: u64::from_le_bytes(e[24..32].try_into().expect("8 bytes")),
    })
}

/// Structural validation of the section table against the canonical
/// layout: exact `(degree, kind, element size)` sequence, aligned packed
/// offsets, consistent byte lengths, and cross-section count relations
/// that do not depend on payload values.
fn validate_section_table(
    lambda: u8,
    sections: &[RawSection],
    file_len: usize,
) -> Result<(), ReadTableError> {
    let mut cursor = align_up(HEADER_LEN + sections.len() * ENTRY_LEN, MAP_ALIGN);
    for (sec, (d, k, elem)) in sections.iter().zip(section_plan(lambda)) {
        if sec.degree != d || sec.kind != k {
            return Err(ReadTableError::Corrupt("section out of canonical order"));
        }
        if sec.elem != elem {
            return Err(ReadTableError::Corrupt("section element size mismatch"));
        }
        if sec.offset as usize != cursor {
            return Err(ReadTableError::Corrupt("section offset out of place"));
        }
        if !(sec.offset as usize).is_multiple_of(MAP_ALIGN) {
            return Err(ReadTableError::Corrupt("section offset misaligned"));
        }
        if sec.count > 100_000_000 {
            return Err(ReadTableError::Corrupt("implausible section count"));
        }
        if sec.bytes != sec.count * elem as u64 {
            return Err(ReadTableError::Corrupt("section byte length mismatch"));
        }
        cursor = align_up(cursor + sec.bytes as usize, MAP_ALIGN);
        let end = sec.offset as usize + sec.bytes as usize;
        if end > file_len {
            return Err(ReadTableError::Corrupt("section escapes the file"));
        }
    }
    // The file ends flush with the last section.
    let last_end = sections
        .last()
        .map(|s| s.offset as usize + s.bytes as usize)
        .unwrap_or(align_up(HEADER_LEN, MAP_ALIGN));
    if last_end != file_len {
        return Err(ReadTableError::Corrupt("file length mismatch"));
    }
    // Per-degree count relations knowable from the table alone.
    for chunk in sections.chunks_exact(6) {
        let d = chunk[0].degree as u64;
        let npool = chunk[0]
            .count
            .checked_sub(1)
            .ok_or(ReadTableError::Corrupt("empty edge offset section"))?;
        let stride = d * (2 * d - 2);
        if chunk[2].count != npool * stride {
            return Err(ReadTableError::Corrupt("cost arena count mismatch"));
        }
        let npat = chunk[3].count;
        if chunk[4].count != npat + 1 {
            return Err(ReadTableError::Corrupt("pattern offset count mismatch"));
        }
        if chunk[1].count % 2 != 0 {
            return Err(ReadTableError::Corrupt("odd edge byte count"));
        }
    }
    Ok(())
}

/// Value-level validation of one degree's arenas, run at open before any
/// arena is served.
fn validate_degree_arenas(
    d: u8,
    edge_off: &[u32],
    edges: &[u8],
    costs: &[u16],
    keys: &[u64],
    pat_off: &[u32],
    ids: &[u32],
) -> Result<(), ReadTableError> {
    let npool = edge_off.len() - 1; // length checked by the section table
    if edge_off[0] != 0 || edge_off.windows(2).any(|w| w[0] > w[1]) {
        return Err(ReadTableError::Corrupt("edge offsets not monotonic"));
    }
    if edges.len() != 2 * edge_off[npool] as usize {
        return Err(ReadTableError::Corrupt("edge arena length mismatch"));
    }
    let max_node = (d as u16) * (d as u16);
    if edges.iter().any(|&b| b as u16 >= max_node) {
        return Err(ReadTableError::Corrupt("edge node out of range"));
    }
    let stride = d as usize * (2 * d as usize - 2);
    if costs.len() != npool * stride {
        return Err(ReadTableError::Corrupt("cost arena count mismatch"));
    }
    if keys.windows(2).any(|w| w[0] >= w[1]) {
        return Err(ReadTableError::Corrupt("pattern keys not ascending"));
    }
    let npat = keys.len();
    if pat_off[0] != 0 || pat_off.windows(2).any(|w| w[0] > w[1]) {
        return Err(ReadTableError::Corrupt("pattern offsets not monotonic"));
    }
    if ids.len() != pat_off[npat] as usize {
        return Err(ReadTableError::Corrupt("topology-ref arena length mismatch"));
    }
    if ids.iter().any(|&id| id as usize >= npool) {
        return Err(ReadTableError::Corrupt("pool index out of range"));
    }
    Ok(())
}

/// Description of one v4 section, as reported by [`TableInfo`].
#[derive(Debug, Clone)]
pub struct SectionInfo {
    /// Net degree the section belongs to.
    pub degree: u8,
    /// Arena name (`edge_off`, `edges`, `costs`, `keys`, `pat_off`, `ids`).
    pub kind: &'static str,
    /// Byte offset from the start of the file.
    pub offset: u64,
    /// Payload byte length (excluding alignment padding).
    pub bytes: u64,
    /// Element count.
    pub count: u64,
    /// Whether the offset is 64-byte aligned (always true for well-formed
    /// files; reported so tooling can show it).
    pub aligned: bool,
}

/// File-level metadata of a v4 table, read without loading the arenas —
/// the `lut info` backing report.
#[derive(Debug, Clone)]
pub struct TableInfo {
    /// Format version (always 4 for files this build can read).
    pub version: u32,
    /// Largest tabulated degree λ.
    pub lambda: u8,
    /// Total file length in bytes.
    pub file_len: u64,
    /// Stored payload checksum.
    pub checksum: u64,
    /// Whether the stored checksum matches the file contents.
    pub checksum_ok: bool,
    /// Whether the file passes every zero-copy serving precondition
    /// (version, checksum, section order, alignment, bounds).
    pub mappable: bool,
    /// The section table, in file order.
    pub sections: Vec<SectionInfo>,
}

impl TableInfo {
    /// Reads the header and section table of a v4 file and verifies its
    /// checksum, without building a [`LookupTable`].
    ///
    /// # Errors
    ///
    /// Returns [`ReadTableError`] for files this build cannot describe at
    /// all (I/O failures, bad magic, foreign versions, truncated or
    /// malformed headers). Checksum mismatches and misalignments are
    /// *reported*, not errored, so tooling can describe damaged files.
    pub fn read(path: impl AsRef<std::path::Path>) -> Result<TableInfo, ReadTableError> {
        let bytes = std::fs::read(path)?;
        let layout = Layout::parse(&bytes)?;
        let checksum_ok = layout.file_len == bytes.len()
            && fnv1a64_striped(&bytes[HEADER_LEN..]) == layout.checksum;
        let structural_ok =
            validate_section_table(layout.lambda, &layout.sections, layout.file_len).is_ok();
        Ok(TableInfo {
            version: VERSION,
            lambda: layout.lambda,
            file_len: bytes.len() as u64,
            checksum: layout.checksum,
            checksum_ok,
            mappable: checksum_ok && structural_ok,
            sections: layout
                .sections
                .iter()
                .map(|sec| SectionInfo {
                    degree: sec.degree,
                    kind: KINDS
                        .get(sec.kind as usize)
                        .map_or("unknown", |(name, _)| name),
                    offset: sec.offset,
                    bytes: sec.bytes,
                    count: sec.count,
                    aligned: (sec.offset as usize).is_multiple_of(MAP_ALIGN),
                })
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Backing;
    use crate::LutBuilder;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("patlabor_lut_v4_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// Writes `bytes` to a fresh file and opens it with the serving reader.
    fn open_bytes(name: &str, bytes: &[u8]) -> Result<LookupTable, ReadTableError> {
        let path = tmp(name);
        std::fs::write(&path, bytes).unwrap();
        let opened = LookupTable::open_mmap(&path);
        std::fs::remove_file(&path).ok();
        opened
    }

    /// Recomputes and rewrites the header checksum of a serialized table,
    /// so structural corruption can be planted *behind* a valid checksum.
    fn reseal(buf: &mut [u8]) {
        let sum = fnv1a64_striped(&buf[HEADER_LEN..]);
        buf[24..32].copy_from_slice(&sum.to_le_bytes());
    }

    /// Locates the section entry for `(degree, kind)` and returns its
    /// payload offset.
    fn section_offset(buf: &[u8], degree: u8, kind: u8) -> usize {
        let nsec = u32::from_le_bytes(buf[16..20].try_into().unwrap()) as usize;
        for i in 0..nsec {
            let e = &buf[HEADER_LEN + i * ENTRY_LEN..][..ENTRY_LEN];
            if e[0] == degree && e[1] == kind {
                return u64::from_le_bytes(e[8..16].try_into().unwrap()) as usize;
            }
        }
        panic!("section ({degree}, {kind}) not found");
    }

    #[test]
    fn reserialization_is_byte_identical() {
        // save → open → serialize must reproduce the file's bytes: the
        // in-memory CSR arenas are exactly what the sections store.
        let table = LutBuilder::new(5).threads(2).build();
        let path = tmp("v4_reserialize.plut");
        table.save(&path).unwrap();
        let saved = std::fs::read(&path).unwrap();
        let mapped = LookupTable::open_mmap(&path).unwrap();
        let mut again = Vec::new();
        mapped.write_to(&mut again).unwrap();
        assert_eq!(saved, again);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serialization_is_deterministic() {
        let a = LutBuilder::new(4).threads(4).build();
        let b = LutBuilder::new(4).threads(1).build();
        let mut ba = Vec::new();
        let mut bb = Vec::new();
        a.write_to(&mut ba).unwrap();
        b.write_to(&mut bb).unwrap();
        assert_eq!(ba, bb, "thread count must not affect the bytes");
    }

    #[test]
    fn mmap_open_round_trips_and_reserializes() {
        let table = LutBuilder::new(4).threads(2).build();
        let path = tmp("v4_mmap.plut");
        table.save(&path).unwrap();
        let mapped = LookupTable::open_mmap(&path).unwrap();
        assert_eq!(mapped.backing(), Backing::Mapped);
        assert_eq!(table.backing(), Backing::Owned);
        // Backing-agnostic equality and byte-identical reserialization.
        assert_eq!(mapped, table);
        let mut owned_bytes = Vec::new();
        let mut mapped_bytes = Vec::new();
        table.write_to(&mut owned_bytes).unwrap();
        mapped.write_to(&mut mapped_bytes).unwrap();
        assert_eq!(owned_bytes, mapped_bytes);
        // A clone outlives the original table's mapping handle.
        let clone = mapped.clone();
        drop(mapped);
        assert_eq!(clone.pattern_count(4), 16);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_replaces_a_mapped_file_without_disturbing_its_readers() {
        // A daemon maps the table, then `lut build -o` writes a new one
        // over the same path. Rewriting the file in place would shrink
        // the mapped inode (38,940 → 656 bytes) and fault the next query.
        use patlabor_geom::{Net, Point};
        let table = LutBuilder::new(5).threads(2).build();
        let path = tmp("v4_replace.plut");
        table.save(&path).unwrap();
        let mapped = LookupTable::open_mmap(&path).unwrap();
        let net = Net::new(vec![
            Point::new(0, 0),
            Point::new(40, 15),
            Point::new(12, 33),
            Point::new(28, 5),
            Point::new(7, 21),
        ])
        .unwrap();
        let before = mapped.query(&net).unwrap();

        LutBuilder::new(3).threads(1).build().save(&path).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 656);
        assert_eq!(mapped.query(&net).unwrap(), before);
        assert_eq!(mapped, table);
        assert_eq!(LookupTable::open_mmap(&path).unwrap().lambda(), 3);
        // The temporary file was renamed away, not left behind.
        let leftover = tmp(&format!("v4_replace.plut.{}.tmp", std::process::id()));
        assert!(!leftover.exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sections_are_aligned_and_described() {
        let table = LutBuilder::new(4).threads(1).build();
        let path = tmp("v4_info.plut");
        table.save(&path).unwrap();
        let info = TableInfo::read(&path).unwrap();
        assert_eq!(info.version, 4);
        assert_eq!(info.lambda, 4);
        assert!(info.checksum_ok);
        assert!(info.mappable);
        assert_eq!(info.sections.len(), 12); // 2 degrees × 6 arenas
        for s in &info.sections {
            assert!(s.aligned, "section {}/{} misaligned", s.degree, s.kind);
            assert_eq!(s.offset % 64, 0);
        }
        assert_eq!(
            info.sections.iter().map(|s| s.kind).collect::<Vec<_>>()[..6],
            ["edge_off", "edges", "costs", "keys", "pat_off", "ids"]
        );
        // A flipped payload byte is described, not errored: the layout
        // still parses, the checksum and mappability say what is wrong.
        let mut bytes = std::fs::read(&path).unwrap();
        *bytes.last_mut().unwrap() ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let damaged = TableInfo::read(&path).unwrap();
        assert!(!damaged.checksum_ok);
        assert!(!damaged.mappable);
        assert_eq!(damaged.sections.len(), 12);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let err = open_bytes("v4_magic.plut", b"XXXXXXXX").unwrap_err();
        assert!(matches!(err, ReadTableError::BadMagic));
        let mut buf = Vec::new();
        buf.extend_from_slice(b"PLUT");
        buf.extend_from_slice(&99u32.to_le_bytes());
        buf.resize(HEADER_LEN, 0);
        let err = open_bytes("v4_version.plut", &buf).unwrap_err();
        assert!(matches!(err, ReadTableError::BadVersion(99)));
    }

    #[test]
    fn v3_header_reports_the_migration_path() {
        // A v3 header (the pre-mmap unaligned layout) must point the user
        // at regeneration, not fail with a generic parse error.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"PLUT");
        buf.extend_from_slice(&3u32.to_le_bytes());
        buf.push(4); // v3 lambda byte — never reached
        buf.resize(HEADER_LEN, 0);
        let err = open_bytes("v3_header.plut", &buf).unwrap_err();
        assert!(matches!(err, ReadTableError::BadVersion(3)));
        let msg = err.to_string();
        assert!(
            msg.contains("unsupported table version 3"),
            "message must name the offending version: {msg}"
        );
        assert!(
            msg.contains("`patlabor lut build --lambda <L> -o <FILE>`"),
            "message must name the migration path: {msg}"
        );
    }

    #[test]
    fn every_corrupted_byte_is_detected_at_mmap_open() {
        // Flipping ANY byte must turn the open into an error: header flips
        // break magic/version/reserved/section-count checks, body flips
        // break the checksum or structural validation, checksum-field
        // flips break the comparison — all before any borrow. Truncations
        // at every position must error as well.
        let table = LutBuilder::new(3).threads(1).build();
        let path = tmp("v4_flip.plut");
        table.save(&path).unwrap();
        let buf = std::fs::read(&path).unwrap();
        for pos in 0..buf.len() {
            let mut corrupted = buf.clone();
            corrupted[pos] ^= 0xff;
            std::fs::write(&path, &corrupted).unwrap();
            assert!(
                LookupTable::open_mmap(&path).is_err(),
                "byte flip at {pos} must be detected at open"
            );
            std::fs::write(&path, &buf[..pos]).unwrap();
            assert!(
                LookupTable::open_mmap(&path).is_err(),
                "truncation at {pos} must error at open"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_range_pool_index_is_rejected_behind_a_valid_checksum() {
        // Corrupt one pattern id to an impossible pool index and reseal
        // the checksum: the structural check must fire.
        let table = LutBuilder::new(3).threads(1).build();
        let mut buf = Vec::new();
        table.write_to(&mut buf).unwrap();
        let ids_at = section_offset(&buf, 3, 5);
        buf[ids_at..ids_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        reseal(&mut buf);
        let err = open_bytes("v4_badid.plut", &buf).unwrap_err();
        assert!(matches!(
            err,
            ReadTableError::Corrupt("pool index out of range")
        ));
    }

    #[test]
    fn out_of_range_edge_nodes_are_rejected_behind_a_valid_checksum() {
        let table = LutBuilder::new(3).threads(1).build();
        let mut buf = Vec::new();
        table.write_to(&mut buf).unwrap();
        let edges_at = section_offset(&buf, 3, 1);
        buf[edges_at] = 200; // node 200 >= 9
        reseal(&mut buf);
        let err = open_bytes("v4_badedge.plut", &buf).unwrap_err();
        assert!(matches!(
            err,
            ReadTableError::Corrupt("edge node out of range")
        ));
    }

    #[test]
    fn non_ascending_pattern_keys_are_rejected_behind_a_valid_checksum() {
        let table = LutBuilder::new(3).threads(1).build();
        let mut buf = Vec::new();
        table.write_to(&mut buf).unwrap();
        let keys_at = section_offset(&buf, 3, 3);
        // Overwrite the second key with the first: not strictly ascending.
        let first: [u8; 8] = buf[keys_at..keys_at + 8].try_into().unwrap();
        buf[keys_at + 8..keys_at + 16].copy_from_slice(&first);
        reseal(&mut buf);
        let err = open_bytes("v4_badkeys.plut", &buf).unwrap_err();
        assert!(matches!(
            err,
            ReadTableError::Corrupt("pattern keys not ascending")
        ));
    }

    #[test]
    fn checksum_mismatch_is_reported_as_such() {
        let table = LutBuilder::new(3).threads(1).build();
        let mut buf = Vec::new();
        table.write_to(&mut buf).unwrap();
        // Flip a bit in a zero-padding byte: structure is intact, only
        // the checksum can catch it.
        let edges_at = section_offset(&buf, 3, 1);
        buf[edges_at - 1] ^= 0x01; // padding before the edges section
        let err = open_bytes("v4_pad.plut", &buf).unwrap_err();
        assert!(matches!(err, ReadTableError::BadChecksum { .. }), "{err}");
    }

    #[test]
    fn striped_checksum_is_order_sensitive_and_stable() {
        // Regression pin: the striped hash must distinguish permuted
        // bytes (every byte is positional within its word and lane) and
        // must be deterministic.
        let a: Vec<u8> = (0..=255u8).collect();
        let mut b = a.clone();
        b.swap(8, 16); // different words, different lanes
        assert_ne!(fnv1a64_striped(&a), fnv1a64_striped(&b));
        let mut c = a.clone();
        c.swap(0, 1); // same word — the word value still changes
        assert_ne!(fnv1a64_striped(&a), fnv1a64_striped(&c));
        let mut d = a.clone();
        d.swap(0, 64); // same lane, different blocks
        assert_ne!(fnv1a64_striped(&a), fnv1a64_striped(&d));
        assert_eq!(fnv1a64_striped(&a), fnv1a64_striped(&a));
        // The trailing partial block is zero-padded, so the folded length
        // must keep a message distinct from its explicitly-padded form.
        assert_ne!(fnv1a64_striped(&[1, 2, 3]), fnv1a64_striped(&[1, 2, 3, 0]));
    }

    #[test]
    fn queries_agree_between_backings() {
        use patlabor_geom::{Net, Point};
        let table = LutBuilder::new(4).threads(1).build();
        let path = tmp("v4_query.plut");
        table.save(&path).unwrap();
        let mapped = LookupTable::open_mmap(&path).unwrap();
        let net = Net::new(vec![
            Point::new(0, 0),
            Point::new(7, 2),
            Point::new(3, 9),
            Point::new(10, 5),
        ])
        .unwrap();
        let a = table.query(&net).unwrap();
        let b = mapped.query(&net).unwrap();
        assert_eq!(a.cost_vec(), b.cost_vec());
        std::fs::remove_file(&path).ok();
    }
}
