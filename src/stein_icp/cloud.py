"""Point cloud container, file I/O and normals.

Supported formats:

* PLY 1.0 (Turk, "The PLY polygon file format", 1994), with an ascii,
  binary_little_endian or binary_big_endian body. The vertex element needs
  scalar properties x, y, z; nx, ny, nz are picked up when present, and
  other vertex properties are read and ignored. Property types are char,
  uchar, short, ushort, int, uint, float and double, or their int8 ...
  float64 aliases. A list property in the vertex element is rejected.
  The rows of elements declared before the vertices are skipped (one text
  line per instance, or one fixed-size binary record, so a binary list
  property there is rejected); elements after the vertices are not read.
* PCD (Rusu & Cousins, ICRA 2011), DATA ascii or binary. FIELDS must
  contain x y z, optionally normal_x normal_y normal_z; a field of COUNT c
  holds c values. A binary body is read through SIZE and TYPE (I and U of
  1, 2, 4 or 8 bytes, F of 4 or 8); binary_compressed is rejected.
* xyz-csv: one point per line, comma or whitespace separated, 3 columns
  (points) or 6 (points then normals). Blank lines and '#' comments are
  allowed.

Headers and text bodies are UTF-8; a byte that is not is reported at its
line. A text body is read with one split and one float map, a binary body
with one np.frombuffer over a record type built from the declared
properties, widened to float64 exactly (64-bit integers beyond 2**53
round). Points and normals come back as owned, C-ordered float64 arrays.

write_cloud writes PLY as binary_little_endian and PCD as DATA binary: a
text header declaring 64-bit floats, then little-endian float64 rows.
xyz-csv is text, each float its repr. Every format reproduces the arrays
bit for bit.

All loaders reject non-finite coordinates and empty files.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import accumulate, chain
from pathlib import Path

import numpy as np

from .errors import CloudParseError, InputError
from .geometry import pose_array, rotation_from_euler, transform_points

__all__ = [
    "PointCloud",
    "load_cloud",
    "write_cloud",
    "transform_cloud",
    "estimate_normals",
    "FORMATS",
]

FORMATS = ("ply", "pcd", "xyz-csv")

_SUFFIXES = {".ply": "ply", ".pcd": "pcd", ".csv": "xyz-csv", ".xyz": "xyz-csv", ".txt": "xyz-csv"}


@dataclass(frozen=True)
class PointCloud:
    """Immutable cloud: points (N, 3) float64, optional unit normals (N, 3).

    A zero normal is the documented marker for "no reliable normal here";
    such points are skipped by the point-to-plane metric.
    """

    points: np.ndarray
    normals: np.ndarray | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise InputError(f"points must be (N, 3), got {pts.shape}")
        if pts.shape[0] == 0:
            raise InputError("point cloud is empty")
        if not np.isfinite(pts).all():
            raise InputError("point cloud contains non-finite coordinates")
        object.__setattr__(self, "points", pts)
        if self.normals is not None:
            nrm = np.asarray(self.normals, dtype=float)
            if nrm.shape != pts.shape:
                raise InputError(f"normals shape {nrm.shape} does not match points {pts.shape}")
            if not np.isfinite(nrm).all():
                raise InputError("normals contain non-finite values")
            lengths = np.linalg.norm(nrm, axis=1)
            bad = (np.abs(lengths - 1.0) > 1e-6) & (lengths > 1e-12)
            if bad.any():
                raise InputError("normals must be unit length or exactly zero")
            object.__setattr__(self, "normals", nrm)

    def __len__(self) -> int:
        return self.points.shape[0]


def transform_cloud(cloud: PointCloud, pose) -> PointCloud:
    """Rigidly transform a cloud; normals rotate, translations do not move them.
    pose is a Pose6D or 6 numbers (pose_array); anything else raises InputError."""
    p = pose_array(pose)
    points = transform_points(cloud.points, p)
    if cloud.normals is None:
        return PointCloud(points)
    return PointCloud(points, cloud.normals @ rotation_from_euler(p[3], p[4], p[5]).T)


# --------------------------------------------------------------------------
# Parsing


def _detect_format(path: Path, format: str | None) -> str:
    if format is not None:
        if format not in FORMATS:
            raise InputError(f"unknown format {format!r}, expected one of {FORMATS}")
        return format
    fmt = _SUFFIXES.get(path.suffix.lower())
    if fmt is None:
        raise InputError(f"cannot infer cloud format from suffix {path.suffix!r}; pass format=")
    return fmt


def load_cloud(path, format: str | None = None) -> PointCloud:
    """Read a cloud from disk. Format is inferred from the suffix unless given."""
    path = Path(path)
    fmt = _detect_format(path, format)
    try:
        data = path.read_bytes()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from e
    parse = {"ply": _parse_ply, "pcd": _parse_pcd, "xyz-csv": _parse_xyz}[fmt]
    pts, nrm = parse(data, path)
    try:
        return PointCloud(pts, nrm)
    except InputError as e:
        raise CloudParseError(f"{path}: {e}") from e


def _utf8_text(data: bytes, path, first_line: int = 1) -> str:
    """data decoded as UTF-8. A byte that is not UTF-8 raises
    CloudParseError at its line, counting data's first line as first_line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = first_line - 1 + len((data[:e.start].decode("utf-8") + ".").splitlines())
        raise CloudParseError(
            f"{path}:{line}: byte 0x{data[e.start]:02x} is not UTF-8 text") from None


# One line and its end, which is "\r\n", "\r" or "\n" as in str.splitlines.
_LINE = re.compile(rb"([^\r\n]*)(?:\r\n|\r|\n)?")


def _header(data: bytes, path):
    """Yield (line number, stripped text, offset just past the line end) for
    each line of data, from the first; the caller stops at its header's end."""
    pos = lineno = 0
    while pos < len(data):
        m = _LINE.match(data, pos)
        pos, lineno = m.end(), lineno + 1
        yield lineno, _utf8_text(m.group(1), path, lineno).strip(), pos


def _floats(tokens, path, lineno, n):
    if len(tokens) < n:
        raise CloudParseError(f"{path}:{lineno}: expected {n} values, got {len(tokens)}")
    try:
        return [float(t) for t in tokens[:n]]
    except ValueError as e:
        raise CloudParseError(f"{path}:{lineno}: {e}") from e


def _read_body(lines, linenos, width, path, point_cols, normal_cols):
    """(points, normals or None) from text data lines numbered linenos in
    the file: the first `width` tokens of each line, extra tokens ignored.

    One pass checks every line's width, then one split of the joined body
    and one map of float convert every token: keeping 10^5 per-line token
    lists alive costs more than that second split. Only when this fails are
    the lines walked again, to raise at the first bad line with its file
    line number."""
    widths = set(map(len, map(str.split, lines)))
    try:
        if min(widths, default=width) < width:
            raise ValueError
        if widths <= {width}:
            tokens = " ".join(lines).split()
        else:
            tokens = chain.from_iterable(line.split()[:width] for line in lines)
        table = np.fromiter(map(float, tokens), float, len(lines) * width)
    except ValueError:
        for line, lineno in zip(lines, linenos):
            _floats(line.split(), path, lineno, width)
        raise
    table = table.reshape(len(lines), width)
    # take, not fancy indexing, so both arrays come back C-ordered.
    return (table.take(point_cols, axis=1),
            table.take(normal_cols, axis=1) if normal_cols else None)


def _layout(fields) -> tuple[dict, int]:
    """The byte offset and numpy type of each of the (name, numpy type,
    count) fields packed in order into one record, by name (a repeated name
    keeps its last field, as the text columns do), and the record size."""
    layout, size = {}, 0
    for name, dtype, count in fields:
        layout[name] = size, dtype
        size += np.dtype(dtype).itemsize * count
    return layout, size


def _read_binary(data, offset, n, itemsize, point_cols, normal_cols, what, path):
    """(points, normals or None) from the first n records of itemsize bytes
    at data[offset:], read with one np.frombuffer; each column, given as its
    (byte offset in the record, numpy type), is widened to float64. what
    names the records in the message for a short body."""
    have = max(len(data) - offset, 0) // itemsize
    if have < n:
        raise CloudParseError(f"{path}: header promises {n} {what}, body has {have}")
    cols = point_cols + (normal_cols or [])
    record = np.dtype({"names": [f"v{k}" for k in range(len(cols))],
                       "formats": [dtype for _, dtype in cols],
                       "offsets": [at for at, _ in cols], "itemsize": itemsize})
    rows = np.frombuffer(data, record, n, offset)

    def gather(first, count):
        return np.column_stack([rows[f"v{k}"] for k in range(first, first + count)]
                               ).astype(float, copy=False)

    return gather(0, 3), gather(3, 3) if normal_cols else None


def _columns(col: dict, names) -> list | None:
    """Positions of the named fields, or None when one is missing."""
    return [col[a] for a in names] if all(a in col for a in names) else None


# PLY scalar types and their sized aliases, as numpy type codes.
_PLY_TYPES = {
    "char": "i1", "uchar": "u1", "short": "i2", "ushort": "u2",
    "int": "i4", "uint": "u4", "float": "f4", "double": "f8",
    "int8": "i1", "uint8": "u1", "int16": "i2", "uint16": "u2",
    "int32": "i4", "uint32": "u4", "float32": "f4", "float64": "f8",
}
# Byte order of each PLY format; None reads the body as text.
_PLY_FORMATS = {"ascii": None, "binary_little_endian": "<", "binary_big_endian": ">"}


def _parse_ply(data: bytes, path):
    lines = _header(data, path)
    if next(lines, (1, "", 0))[1] != "ply":
        raise CloudParseError(f"{path}:1: not a PLY file (missing 'ply' magic)")
    byteorder = None
    # Each element as (name, count, its scalar properties as (name, type
    # code), the names of its list properties).
    elements = []
    body = None
    for i, line, end in lines:
        if line == "end_header":
            body = i, end
            break
        if not line or line.startswith("comment"):
            continue
        fields = line.split()
        if fields[0] == "format":
            if len(fields) != 3 or fields[1] not in _PLY_FORMATS or fields[2] != "1.0":
                raise CloudParseError(f"{path}:{i}: unsupported {line!r}; expected format "
                                      "ascii, binary_little_endian or binary_big_endian 1.0")
            byteorder = _PLY_FORMATS[fields[1]]
        elif fields[0] == "element":
            name = fields[1] if len(fields) > 1 else ""
            try:
                if (count := int(fields[2])) < 0:
                    raise ValueError(count)
            except (IndexError, ValueError) as e:
                raise CloudParseError(f"{path}:{i}: bad element {name} count") from e
            elements.append((name, count, [], []))
        elif fields[0] == "property":
            if not elements:
                raise CloudParseError(f"{path}:{i}: property before any element")
            is_list = fields[1:2] == ["list"]
            types = fields[1 + is_list:-1]
            if len(types) != 1 + is_list:
                raise CloudParseError(f"{path}:{i}: malformed {line!r}")
            if unknown := [t for t in types if t not in _PLY_TYPES]:
                raise CloudParseError(f"{path}:{i}: unknown property type {unknown[0]!r}")
            name, _, scalars, lists = elements[-1]
            if not is_list:
                scalars.append((fields[-1], _PLY_TYPES[types[0]]))
            elif name == "vertex":
                raise CloudParseError(f"{path}:{i}: vertex property {fields[-1]!r} is a "
                                      "list; vertex properties must be scalars")
            else:
                lists.append(fields[-1])
    if body is None:
        raise CloudParseError(f"{path}: missing end_header")
    names = [e[0] for e in elements]
    if "vertex" not in names:
        raise CloudParseError(f"{path}: header defines no vertex element")
    before = elements[:names.index("vertex")]
    _, n_vertex, props, _ = elements[len(before)]
    col = {name: k for k, (name, _) in enumerate(props)}
    for axis in ("x", "y", "z"):
        if axis not in col:
            raise CloudParseError(f"{path}: vertex element lacks property {axis!r}")

    header_lines, offset = body
    if byteorder is None:
        # An element's instance is one text line.
        skip = sum(e[1] for e in before)
        text = _utf8_text(data[offset:], path, header_lines + 1)
        lines = text.splitlines()[skip:skip + n_vertex]
        if len(lines) < n_vertex:
            raise CloudParseError(f"{path}: header promises {n_vertex} vertices, "
                                  f"body has {len(lines)}")
        first = header_lines + 1 + skip
        return _read_body(lines, range(first, first + n_vertex), len(props), path,
                          _columns(col, ("x", "y", "z")), _columns(col, ("nx", "ny", "nz")))
    for name, count, scalars, lists in before:
        if lists:
            raise CloudParseError(f"{path}: element {name!r} before the vertex element has "
                                  f"list property {lists[0]!r}, so its binary size is unknown")
        offset += count * _layout((a, t, 1) for a, t in scalars)[1]
    layout, itemsize = _layout((a, byteorder + t, 1) for a, t in props)
    return _read_binary(data, offset, n_vertex, itemsize, _columns(layout, ("x", "y", "z")),
                        _columns(layout, ("nx", "ny", "nz")), "vertices", path)


_PCD_POINT = ("x", "y", "z")
_PCD_NORMAL = ("normal_x", "normal_y", "normal_z")
# PCD TYPE letters and the SIZEs each allows, as numpy type codes.
_PCD_TYPES = {(kind, size): f"<{kind.lower()}{size}"
              for kind, sizes in (("I", "1248"), ("U", "1248"), ("F", "48")) for size in sizes}


def _parse_pcd(data: bytes, path):
    fields = None
    n_points = None
    declared = {}   # SIZE, TYPE and COUNT: (line number, values)
    body = None
    for i, line, end in _header(data, path):
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        key = tokens[0].upper()
        if key == "FIELDS":
            fields = tokens[1:]
        elif key in ("SIZE", "TYPE", "COUNT"):
            declared[key] = i, tokens[1:]
        elif key == "POINTS":
            try:
                if (n_points := int(tokens[1])) < 0:
                    raise ValueError(n_points)
            except (IndexError, ValueError) as e:
                raise CloudParseError(f"{path}:{i}: bad POINTS count") from e
        elif key == "DATA":
            if tokens[1:] not in (["ascii"], ["binary"]):
                raise CloudParseError(f"{path}:{i}: unsupported {line!r}; "
                                      "expected DATA ascii or DATA binary")
            body = i, end, tokens[1] == "binary"
            break
    if body is None:
        raise CloudParseError(f"{path}: missing DATA line")
    if fields is None:
        raise CloudParseError(f"{path}: missing FIELDS line")
    for axis in ("x", "y", "z"):
        if axis not in fields:
            raise CloudParseError(f"{path}: FIELDS lacks {axis!r}")
    for key, (i, values) in declared.items():
        if len(values) != len(fields):
            raise CloudParseError(f"{path}:{i}: {key} has {len(values)} entries "
                                  f"for {len(fields)} FIELDS")
    i, counts = declared.get("COUNT", (None, ["1"] * len(fields)))
    try:
        counts = [int(c) for c in counts]
        if min(counts) < 1:
            raise ValueError(counts)
    except ValueError as e:
        raise CloudParseError(f"{path}:{i}: bad COUNT") from e

    data_line, offset, binary = body
    if binary:
        if "SIZE" not in declared or "TYPE" not in declared:
            raise CloudParseError(f"{path}: DATA binary needs SIZE and TYPE lines")
        if n_points is None:
            raise CloudParseError(f"{path}: DATA binary needs a POINTS line")
        types = list(zip(declared["TYPE"][1], declared["SIZE"][1]))
        for kind, size in types:
            if (kind, size) not in _PCD_TYPES:
                raise CloudParseError(f"{path}:{declared['TYPE'][0]}: unknown TYPE {kind!r} "
                                      f"of SIZE {size}")
        # A field of COUNT c holds c values; its column is its first value.
        layout, itemsize = _layout(zip(fields, map(_PCD_TYPES.get, types), counts))
        return _read_binary(data, offset, n_points, itemsize, _columns(layout, _PCD_POINT),
                            _columns(layout, _PCD_NORMAL), "points", path)

    # Blank lines in the body are skipped; each kept row keeps its file line.
    lines = _utf8_text(data[offset:], path, data_line + 1).splitlines()
    rows = [k for k in range(len(lines)) if lines[k].strip()]
    if n_points is None:
        n_points = len(rows)
    if len(rows) < n_points:
        raise CloudParseError(f"{path}: header promises {n_points} points, body has {len(rows)}")
    rows = rows[:n_points]
    col = dict(zip(fields, accumulate(counts[:-1], initial=0)))
    return _read_body([lines[k] for k in rows], [data_line + 1 + k for k in rows], sum(counts),
                      path, _columns(col, _PCD_POINT), _columns(col, _PCD_NORMAL))


def _parse_xyz(data: bytes, path):
    lines = _utf8_text(data, path).splitlines()
    rows = [k for k, raw in enumerate(lines) if (line := raw.strip()) and line[0] != "#"]
    if not rows:
        raise CloudParseError(f"{path}: no data rows")
    data = [lines[k].replace(",", " ") for k in rows]
    width = len(data[0].split())
    if width not in (3, 6):
        raise CloudParseError(f"{path}:{rows[0] + 1}: expected 3 or 6 columns, got {width}")
    return _read_body(data, [k + 1 for k in rows], width, path, [0, 1, 2],
                      [3, 4, 5] if width == 6 else None)


# --------------------------------------------------------------------------
# Writing


def format_table(values, sep: str = " ", end: str = "\n", index: bool = False) -> str:
    """The text of an (n, w) float table, each row ended by `end`, built by
    one %-format for the whole table. Every float is written as its repr
    (%r): the shortest text that reads back as the same float64. index=True
    leads each row with its row number (%d)."""
    values = np.asarray(values, dtype=float)
    n, w = values.shape
    row = sep.join(["%r"] * w)
    if index:
        row = "%d" + sep + row
        values = np.column_stack([np.arange(n), values])   # %d prints 3.0 as 3
    return (row + end) * n % tuple(values.ravel().tolist())


def write_cloud(cloud: PointCloud, path, format: str | None = None) -> None:
    """Write a cloud. PLY (binary_little_endian 1.0) and PCD (DATA binary)
    get a text header that declares 64-bit floats (PLY `property double`,
    PCD `SIZE 8`), each line ended by "\n", then the points, or points and
    normals, as little-endian float64 rows. xyz-csv is text: each float is
    its repr (format_table), comma separated with "\r\n" line ends. Either
    way a write/load cycle reproduces the arrays bit for bit."""
    path = Path(path)
    fmt = _detect_format(path, format)
    has_normals = cloud.normals is not None
    table = np.hstack([cloud.points, cloud.normals]) if has_normals else cloud.points
    if fmt == "xyz-csv":
        path.write_text(format_table(table, ",", "\r\n"), newline="")
        return
    if fmt == "ply":
        header = ["ply", "format binary_little_endian 1.0", f"element vertex {len(cloud)}"]
        header += [f"property double {a}" for a in ("x", "y", "z")]
        if has_normals:
            header += [f"property double {a}" for a in ("nx", "ny", "nz")]
        header.append("end_header")
    else:
        names = "x y z" + (" normal_x normal_y normal_z" if has_normals else "")
        n = 6 if has_normals else 3
        header = [
            "# .PCD v0.7 - Point Cloud Data file format",
            "VERSION 0.7",
            f"FIELDS {names}",
            "SIZE " + " ".join(["8"] * n),
            "TYPE " + " ".join(["F"] * n),
            "COUNT " + " ".join(["1"] * n),
            f"WIDTH {len(cloud)}",
            "HEIGHT 1",
            "VIEWPOINT 0 0 0 1 0 0 0",
            f"POINTS {len(cloud)}",
            "DATA binary",
        ]
    text = "".join(line + "\n" for line in header).encode("ascii")
    path.write_bytes(text + np.asarray(table, dtype="<f8").tobytes())


# --------------------------------------------------------------------------
# Geometry preprocessing


def estimate_normals(cloud: PointCloud, k: int = 10) -> PointCloud:
    """Per-point normals from PCA over the k nearest neighbors.

    The normal is the eigenvector of the neighborhood scatter with the
    smallest eigenvalue, unit length, oriented so it points toward the
    origin, where a scan's sensor sits. A normal whose point sees the
    origin in its tangent plane gets the sign that makes its largest
    component positive. Neighborhoods with (near) collinear scatter get a
    zero normal, which downstream point-to-plane code treats as missing.
    """
    from scipy.spatial import cKDTree

    n = len(cloud)
    if k < 3:
        raise InputError(f"normal estimation needs k >= 3, got {k}")
    if n < k:
        raise InputError(f"normal estimation with k={k} needs at least k points, got {n}")
    pts = cloud.points
    tree = cKDTree(pts)
    _, idx = tree.query(pts, k=k)
    neigh = pts[idx]                            # (n, k, 3)
    centered = neigh - neigh.mean(axis=1, keepdims=True)
    scatter = np.einsum("nki,nkj->nij", centered, centered)
    w, v = np.linalg.eigh(scatter)              # ascending eigenvalues
    normals = v[:, :, 0].copy()
    # Rank < 2 scatter: the plane normal is not defined.
    degenerate = w[:, 1] <= 1e-12 * np.maximum(w[:, 2], 1e-300)
    # n . p > 0: the normal faces away from the origin.
    outward = np.einsum("ni,ni->n", normals, pts)
    normals[outward > 0.0] *= -1.0
    # Deterministic sign when the origin lies in the tangent plane.
    ties = np.abs(outward) < 1e-12
    if ties.any():
        sub = normals[ties]
        lead = np.argmax(np.abs(sub), axis=1)
        sign = np.sign(sub[np.arange(len(sub)), lead])
        sub[sign < 0] *= -1.0
        normals[ties] = sub
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    normals[degenerate] = 0.0
    return PointCloud(pts.copy(), normals)
