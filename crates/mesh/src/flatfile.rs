//! The "flat" finite element input file and its parallel reader (§5).
//!
//! "Athena reads a large 'flat' finite element mesh input file in parallel
//! (ie, each processor seeks and reads only the part of the input file
//! that it, and it alone, is responsible for)". The format here is a
//! simple self-describing text format with a byte-offset directory, so a
//! rank can seek directly to its contiguous share of the vertex and
//! element sections without touching the rest of the file.
//!
//! Layout:
//! ```text
//! pmgmesh 1
//! kind <hex8|tet4|hex20>
//! counts <num_vertices> <num_elements>
//! offsets <vertex_section_byte> <element_section_byte>
//! <one vertex per line: x y z>
//! <one element per line: material v0 v1 ...>
//! ```
//! Every vertex and element line is padded to a fixed width so the i-th
//! record sits at a computable byte offset.

use crate::mesh::{ElementKind, Mesh};
use pmg_geometry::Vec3;
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Fixed record widths (bytes, including the newline).
const VERTEX_RECORD: usize = 72;
const ELEM_RECORD_PER_NODE: usize = 10;
const ELEM_RECORD_BASE: usize = 12;

fn elem_record_len(kind: ElementKind) -> usize {
    ELEM_RECORD_BASE + ELEM_RECORD_PER_NODE * kind.nodes()
}

fn kind_name(kind: ElementKind) -> &'static str {
    match kind {
        ElementKind::Hex8 => "hex8",
        ElementKind::Tet4 => "tet4",
        ElementKind::Hex20 => "hex20",
    }
}

fn kind_from_name(s: &str) -> Option<ElementKind> {
    match s {
        "hex8" => Some(ElementKind::Hex8),
        "tet4" => Some(ElementKind::Tet4),
        "hex20" => Some(ElementKind::Hex20),
        _ => None,
    }
}

/// Write `mesh` as a flat file.
pub fn write_flat(mesh: &Mesh, path: &Path) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    write_flat_to(mesh, &mut f)?;
    f.flush()
}

/// Serialize `mesh` in the flat-file format into a byte buffer (the form
/// the serve `ingest` frame uploads — same bytes as [`write_flat`] puts on
/// disk).
pub fn write_flat_bytes(mesh: &Mesh) -> Vec<u8> {
    let mut buf = Vec::with_capacity(
        64 + VERTEX_RECORD * mesh.num_vertices() + elem_record_len(mesh.kind) * mesh.num_elements(),
    );
    write_flat_to(mesh, &mut buf).expect("writing to a Vec cannot fail");
    buf
}

fn write_flat_to<W: Write>(mesh: &Mesh, f: &mut W) -> std::io::Result<()> {
    // Header with a placeholder offsets line of fixed width.
    let header = format!(
        "pmgmesh 1\nkind {}\ncounts {} {}\n",
        kind_name(mesh.kind),
        mesh.num_vertices(),
        mesh.num_elements()
    );
    let offsets_line_len = "offsets ".len() + 20 + 1 + 20 + 1;
    let vertex_off = header.len() + offsets_line_len;
    let elem_off = vertex_off + VERTEX_RECORD * mesh.num_vertices();
    f.write_all(header.as_bytes())?;
    f.write_all(format!("offsets {vertex_off:020} {elem_off:020}\n").as_bytes())?;

    for p in &mesh.coords {
        let line = format!("{:.17e} {:.17e} {:.17e}", p.x, p.y, p.z);
        let mut rec = vec![b' '; VERTEX_RECORD];
        rec[..line.len()].copy_from_slice(line.as_bytes());
        rec[VERTEX_RECORD - 1] = b'\n';
        f.write_all(&rec)?;
    }
    let erl = elem_record_len(mesh.kind);
    for e in 0..mesh.num_elements() {
        let mut line = format!("{:>10}", mesh.materials[e]);
        for &v in mesh.elem(e) {
            line.push_str(&format!(" {v:>9}"));
        }
        let mut rec = vec![b' '; erl];
        assert!(line.len() < erl, "element record overflow");
        rec[..line.len()].copy_from_slice(line.as_bytes());
        rec[erl - 1] = b'\n';
        f.write_all(&rec)?;
    }
    Ok(())
}

/// Parsed header of a flat file.
#[derive(Clone, Copy, Debug)]
pub struct FlatHeader {
    pub kind: ElementKind,
    pub num_vertices: usize,
    pub num_elements: usize,
    vertex_off: u64,
    elem_off: u64,
}

/// Read only the header (cheap).
pub fn read_header(path: &Path) -> std::io::Result<FlatHeader> {
    let f = std::fs::File::open(path)?;
    let mut r = BufReader::new(f);
    parse_header(&mut r)
}

fn parse_header<R: BufRead>(r: &mut R) -> std::io::Result<FlatHeader> {
    let mut line = String::new();
    let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
    r.read_line(&mut line)?;
    if line.trim() != "pmgmesh 1" {
        return Err(bad("not a pmgmesh file"));
    }
    line.clear();
    r.read_line(&mut line)?;
    let kind = kind_from_name(
        line.trim()
            .strip_prefix("kind ")
            .ok_or_else(|| bad("kind"))?,
    )
    .ok_or_else(|| bad("unknown element kind"))?;
    line.clear();
    r.read_line(&mut line)?;
    let rest = line
        .trim()
        .strip_prefix("counts ")
        .ok_or_else(|| bad("counts"))?;
    let mut it = rest.split_whitespace();
    let num_vertices: usize = it
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("nv"))?;
    let num_elements: usize = it
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("ne"))?;
    line.clear();
    r.read_line(&mut line)?;
    let rest = line
        .trim()
        .strip_prefix("offsets ")
        .ok_or_else(|| bad("offsets"))?;
    let mut it = rest.split_whitespace();
    let vertex_off: u64 = it
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("voff"))?;
    let elem_off: u64 = it
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("eoff"))?;
    Ok(FlatHeader {
        kind,
        num_vertices,
        num_elements,
        vertex_off,
        elem_off,
    })
}

/// A rank's contiguous share of the file (block distribution, the form in
/// which Athena ingests the mesh before repartitioning with ParMetis).
#[derive(Clone, Debug)]
pub struct FlatSlice {
    pub header: FlatHeader,
    /// Global index of the first vertex in this slice.
    pub vertex_start: usize,
    pub coords: Vec<Vec3>,
    /// Global index of the first element in this slice.
    pub elem_start: usize,
    /// Flattened global vertex ids of the slice's elements.
    pub elem_verts: Vec<u32>,
    pub materials: Vec<u32>,
}

fn block_range(n: usize, rank: usize, nranks: usize) -> (usize, usize) {
    let lo = n * rank / nranks;
    let hi = n * (rank + 1) / nranks;
    (lo, hi)
}

fn bad_data(m: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string())
}

/// Byte length of `n` records of `record` bytes; a header count whose
/// section size overflows `usize` is invalid data, not a wrapped length.
fn section_len(record: usize, n: usize) -> std::io::Result<usize> {
    record
        .checked_mul(n)
        .ok_or_else(|| bad_data("record count overflows the section size"))
}

/// Parse `n` fixed-width vertex records from `buf`.
fn parse_vertices(buf: &[u8], n: usize) -> std::io::Result<Vec<Vec3>> {
    let len = section_len(VERTEX_RECORD, n)?;
    if buf.len() < len {
        return Err(bad_data("truncated vertex section"));
    }
    let mut coords = Vec::with_capacity(n);
    for rec in buf[..len].chunks(VERTEX_RECORD) {
        let s = std::str::from_utf8(rec).map_err(|_| bad_data("utf8"))?;
        let mut it = s.split_whitespace();
        let x: f64 = it
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| bad_data("x"))?;
        let y: f64 = it
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| bad_data("y"))?;
        let z: f64 = it
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| bad_data("z"))?;
        coords.push(Vec3::new(x, y, z));
    }
    Ok(coords)
}

/// Parse `n` fixed-width element records from `buf`.
fn parse_elems(buf: &[u8], kind: ElementKind, n: usize) -> std::io::Result<(Vec<u32>, Vec<u32>)> {
    let erl = elem_record_len(kind);
    let len = section_len(erl, n)?;
    if buf.len() < len {
        return Err(bad_data("truncated element section"));
    }
    // `n * nodes < erl * n = len <= buf.len()`: cannot overflow.
    let mut elem_verts = Vec::with_capacity(n * kind.nodes());
    let mut materials = Vec::with_capacity(n);
    for rec in buf[..len].chunks(erl) {
        let s = std::str::from_utf8(rec).map_err(|_| bad_data("utf8"))?;
        let mut it = s.split_whitespace();
        materials.push(
            it.next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| bad_data("mat"))?,
        );
        for _ in 0..kind.nodes() {
            elem_verts.push(
                it.next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| bad_data("v"))?,
            );
        }
    }
    Ok((elem_verts, materials))
}

/// Parse a whole mesh from an in-memory flat-file image (the serve
/// `ingest` path: uploaded bytes, never touching the filesystem).
pub fn read_flat_bytes(bytes: &[u8]) -> std::io::Result<Mesh> {
    let mut cur = std::io::Cursor::new(bytes);
    let header = parse_header(&mut cur)?;
    let voff = header.vertex_off as usize;
    let eoff = header.elem_off as usize;
    if voff > bytes.len() || eoff > bytes.len() {
        return Err(bad_data("section offsets past end of buffer"));
    }
    let coords = parse_vertices(&bytes[voff..], header.num_vertices)?;
    let (elem_verts, materials) = parse_elems(&bytes[eoff..], header.kind, header.num_elements)?;
    if elem_verts.iter().any(|&v| v as usize >= coords.len()) {
        return Err(bad_data("element vertex id out of range"));
    }
    Ok(Mesh::new(coords, header.kind, elem_verts, materials))
}

/// Read only rank `rank`'s share of the file: seeks straight to its vertex
/// and element byte ranges (no other bytes are read).
pub fn read_flat_slice(path: &Path, rank: usize, nranks: usize) -> std::io::Result<FlatSlice> {
    let header = read_header(path)?;
    let mut f = std::fs::File::open(path)?;
    // Both sections must lie inside the file before any buffer is sized
    // from the header's counts.
    let file_len = f.metadata()?.len();
    let erl = elem_record_len(header.kind);
    let fits = |off: u64, len: usize| {
        off.checked_add(len as u64)
            .is_some_and(|end| end <= file_len)
    };
    let v_len = section_len(VERTEX_RECORD, header.num_vertices)?;
    let e_len = section_len(erl, header.num_elements)?;
    if !fits(header.vertex_off, v_len) || !fits(header.elem_off, e_len) {
        return Err(bad_data("sections extend past end of file"));
    }

    let (v_lo, v_hi) = block_range(header.num_vertices, rank, nranks);
    f.seek(SeekFrom::Start(
        header.vertex_off + (VERTEX_RECORD * v_lo) as u64,
    ))?;
    let mut buf = vec![0u8; VERTEX_RECORD * (v_hi - v_lo)];
    f.read_exact(&mut buf)?;
    let coords = parse_vertices(&buf, v_hi - v_lo)?;

    let (e_lo, e_hi) = block_range(header.num_elements, rank, nranks);
    f.seek(SeekFrom::Start(header.elem_off + (erl * e_lo) as u64))?;
    let mut buf = vec![0u8; erl * (e_hi - e_lo)];
    f.read_exact(&mut buf)?;
    let (elem_verts, materials) = parse_elems(&buf, header.kind, e_hi - e_lo)?;
    Ok(FlatSlice {
        header,
        vertex_start: v_lo,
        coords,
        elem_start: e_lo,
        elem_verts,
        materials,
    })
}

/// Read the whole mesh (assembles the slices of a 1-rank read).
pub fn read_flat(path: &Path) -> std::io::Result<Mesh> {
    let s = read_flat_slice(path, 0, 1)?;
    Ok(Mesh::new(
        s.coords,
        s.header.kind,
        s.elem_verts,
        s.materials,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{block, block20};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pmg_flatfile_{name}_{}", std::process::id()));
        p
    }

    #[test]
    fn roundtrip_hex8() {
        let m = block(3, 2, 2, Vec3::new(3.0, 2.0, 2.0), |c| u32::from(c.x > 1.5));
        let path = tmp("hex8");
        write_flat(&m, &path).unwrap();
        let back = read_flat(&path).unwrap();
        assert_eq!(back.kind, m.kind);
        assert_eq!(back.elem_verts, m.elem_verts);
        assert_eq!(back.materials, m.materials);
        for (a, b) in back.coords.iter().zip(&m.coords) {
            assert_eq!(a, b, "coordinates must roundtrip exactly");
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn roundtrip_hex20() {
        let m = block20(2, 1, 1, Vec3::new(2.0, 1.0, 1.0), |_| 0);
        let path = tmp("hex20");
        write_flat(&m, &path).unwrap();
        let back = read_flat(&path).unwrap();
        assert_eq!(back.kind, ElementKind::Hex20);
        assert_eq!(back.elem_verts, m.elem_verts);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn parallel_slices_tile_the_mesh() {
        let m = block(4, 3, 2, Vec3::new(4.0, 3.0, 2.0), |_| 0);
        let path = tmp("slices");
        write_flat(&m, &path).unwrap();
        for nranks in [1, 2, 3, 5] {
            let mut nv = 0;
            let mut ne = 0;
            let mut coords = Vec::new();
            let mut elems = Vec::new();
            for r in 0..nranks {
                let s = read_flat_slice(&path, r, nranks).unwrap();
                assert_eq!(s.vertex_start, nv);
                assert_eq!(s.elem_start, ne);
                nv += s.coords.len();
                ne += s.materials.len();
                coords.extend(s.coords);
                elems.extend(s.elem_verts);
            }
            assert_eq!(nv, m.num_vertices(), "nranks={nranks}");
            assert_eq!(ne, m.num_elements());
            assert_eq!(coords, m.coords);
            assert_eq!(elems, m.elem_verts);
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn header_only_read() {
        let m = block(2, 2, 2, Vec3::splat(1.0), |_| 0);
        let path = tmp("header");
        write_flat(&m, &path).unwrap();
        let h = read_header(&path).unwrap();
        assert_eq!(h.num_vertices, 27);
        assert_eq!(h.num_elements, 8);
        assert_eq!(h.kind, ElementKind::Hex8);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_garbage() {
        let path = tmp("garbage");
        std::fs::write(&path, "not a mesh\n").unwrap();
        assert!(read_header(&path).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn bytes_roundtrip_matches_file_roundtrip() {
        let m = block(3, 2, 2, Vec3::new(3.0, 2.0, 2.0), |c| u32::from(c.x > 1.5));
        let bytes = write_flat_bytes(&m);
        // The in-memory image is byte-identical to what write_flat puts on
        // disk, so uploaded meshes and file meshes share one format.
        let path = tmp("bytes");
        write_flat(&m, &path).unwrap();
        assert_eq!(bytes, std::fs::read(&path).unwrap());
        std::fs::remove_file(path).ok();

        let back = read_flat_bytes(&bytes).unwrap();
        assert_eq!(back.kind, m.kind);
        assert_eq!(back.elem_verts, m.elem_verts);
        assert_eq!(back.materials, m.materials);
        for (a, b) in back.coords.iter().zip(&m.coords) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn bytes_reader_rejects_truncation() {
        let m = block(2, 2, 2, Vec3::splat(1.0), |_| 0);
        let bytes = write_flat_bytes(&m);
        assert!(read_flat_bytes(&bytes[..bytes.len() - 40]).is_err());
        assert!(read_flat_bytes(b"not a mesh\n").is_err());
    }

    /// A ~150-byte flat file whose header claims `nv` vertices.
    fn header_claiming(nv: &str) -> Vec<u8> {
        let mut bytes =
            format!("pmgmesh 1\nkind hex8\ncounts {nv} 0\noffsets 64 64\n").into_bytes();
        bytes.resize(150, b' ');
        bytes
    }

    /// `counts 2^61 0` makes `72 · n` wrap to 0: the parse must reject it
    /// as invalid data before sizing any buffer, not panic.
    const OVERFLOWING: &str = "2305843009213693952";

    #[test]
    fn bytes_reader_rejects_overflowing_counts() {
        let err = read_flat_bytes(&header_claiming(OVERFLOWING)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn file_reader_rejects_overflowing_counts() {
        let path = tmp("overflow");
        // An overflowing count, and one that does not overflow but points
        // past the file's end: both rejected before a buffer is allocated.
        for nv in [OVERFLOWING, "1000000000000000000"] {
            std::fs::write(&path, header_claiming(nv)).unwrap();
            let err = read_flat_slice(&path, 0, 1).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "counts {nv}");
        }
        std::fs::remove_file(&path).ok();
    }
}
