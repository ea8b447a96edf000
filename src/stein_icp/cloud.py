"""Point cloud container, ASCII file I/O and normals.

Supported formats:

* PLY, ASCII 1.0. Vertex properties x, y, z are required; nx, ny, nz are
  picked up when present. Extra vertex properties are parsed positionally
  and ignored. Faces and other elements after the vertices are skipped.
* PCD, DATA ascii. FIELDS must contain x y z, optionally
  normal_x normal_y normal_z.
* xyz-csv: one point per line, comma or whitespace separated, 3 columns
  (points) or 6 (points then normals). Blank lines and '#' comments are
  allowed.

All loaders reject non-finite coordinates and empty files.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
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
        text = path.read_text()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from e
    if fmt == "ply":
        pts, nrm = _parse_ply(text, path)
    elif fmt == "pcd":
        pts, nrm = _parse_pcd(text, path)
    else:
        pts, nrm = _parse_xyz(text, path)
    try:
        return PointCloud(pts, nrm)
    except InputError as e:
        raise CloudParseError(f"{path}: {e}") from e


def _floats(tokens, path, lineno, n):
    if len(tokens) < n:
        raise CloudParseError(f"{path}:{lineno}: expected {n} values, got {len(tokens)}")
    try:
        return [float(t) for t in tokens[:n]]
    except ValueError as e:
        raise CloudParseError(f"{path}:{lineno}: {e}") from e


def _read_body(lines, linenos, width, path, point_cols, normal_cols):
    """(points, normals or None) from data lines numbered linenos in the
    file: the first `width` tokens of each line, extra tokens ignored.

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


def _columns(col: dict, names) -> list | None:
    """Positions of the named fields, or None when one is missing."""
    return [col[a] for a in names] if all(a in col for a in names) else None


def _parse_ply(text: str, path):
    lines = text.splitlines()
    if not lines or lines[0].strip() != "ply":
        raise CloudParseError(f"{path}:1: not a PLY file (missing 'ply' magic)")
    n_vertex = None
    props: list[str] = []
    in_vertex_element = False
    body_start = None
    for i, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if line == "end_header":
            body_start = i
            break
        if not line or line.startswith("comment"):
            continue
        fields = line.split()
        if fields[0] == "format":
            if fields[1:3] != ["ascii", "1.0"]:
                raise CloudParseError(f"{path}:{i}: only 'format ascii 1.0' is supported")
        elif fields[0] == "element":
            in_vertex_element = fields[1] == "vertex"
            if in_vertex_element:
                try:
                    if (n_vertex := int(fields[2])) < 0:
                        raise ValueError(n_vertex)
                except (IndexError, ValueError) as e:
                    raise CloudParseError(f"{path}:{i}: bad element vertex count") from e
        elif fields[0] == "property" and in_vertex_element:
            props.append(fields[-1])
    if body_start is None:
        raise CloudParseError(f"{path}: missing end_header")
    if n_vertex is None:
        raise CloudParseError(f"{path}: header defines no vertex element")
    for axis in ("x", "y", "z"):
        if axis not in props:
            raise CloudParseError(f"{path}: vertex element lacks property {axis!r}")
    col = {name: k for k, name in enumerate(props)}

    body = lines[body_start:body_start + n_vertex]
    if len(body) < n_vertex:
        raise CloudParseError(f"{path}: header promises {n_vertex} vertices, body has {len(body)}")
    return _read_body(body, range(body_start + 1, body_start + 1 + n_vertex), len(props), path,
                      _columns(col, ("x", "y", "z")), _columns(col, ("nx", "ny", "nz")))


def _parse_pcd(text: str, path):
    lines = text.splitlines()
    fields = None
    n_points = None
    data_start = None
    for i, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        key = tokens[0].upper()
        if key == "FIELDS":
            fields = tokens[1:]
        elif key == "POINTS":
            try:
                if (n_points := int(tokens[1])) < 0:
                    raise ValueError(n_points)
            except (IndexError, ValueError) as e:
                raise CloudParseError(f"{path}:{i}: bad POINTS count") from e
        elif key == "DATA":
            if tokens[1:2] != ["ascii"]:
                raise CloudParseError(f"{path}:{i}: only 'DATA ascii' is supported")
            data_start = i
            break
    if data_start is None:
        raise CloudParseError(f"{path}: missing DATA line")
    if fields is None:
        raise CloudParseError(f"{path}: missing FIELDS line")
    for axis in ("x", "y", "z"):
        if axis not in fields:
            raise CloudParseError(f"{path}: FIELDS lacks {axis!r}")
    col = {name: k for k, name in enumerate(fields)}

    # Blank lines in the body are skipped; each kept row keeps its file line.
    rows = [k for k in range(data_start, len(lines)) if lines[k].strip()]
    if n_points is None:
        n_points = len(rows)
    if len(rows) < n_points:
        raise CloudParseError(f"{path}: header promises {n_points} points, body has {len(rows)}")
    rows = rows[:n_points]
    return _read_body([lines[k] for k in rows], [k + 1 for k in rows], len(fields), path,
                      _columns(col, ("x", "y", "z")),
                      _columns(col, ("normal_x", "normal_y", "normal_z")))


def _parse_xyz(text: str, path):
    lines = text.splitlines()
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
    """Write a cloud. ASCII floats use round-trip formatting, so a
    write/load cycle reproduces the arrays bit for bit. The headers declare
    64-bit values (PLY `property double`, PCD `SIZE 8`), so a reader that
    honours them keeps every bit too. PLY and PCD lines end in "\n";
    xyz-csv is comma separated with "\r\n" line ends."""
    path = Path(path)
    fmt = _detect_format(path, format)
    has_normals = cloud.normals is not None
    table = np.hstack([cloud.points, cloud.normals]) if has_normals else cloud.points
    if fmt == "xyz-csv":
        path.write_text(format_table(table, ",", "\r\n"), newline="")
        return
    if fmt == "ply":
        header = ["ply", "format ascii 1.0", f"element vertex {len(cloud)}"]
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
            "DATA ascii",
        ]
    path.write_text("\n".join(header) + "\n" + format_table(table))


# --------------------------------------------------------------------------
# Geometry preprocessing


def estimate_normals(cloud: PointCloud, k: int = 10, viewpoint=(0.0, 0.0, 0.0)) -> PointCloud:
    """Per-point normals from PCA over the k nearest neighbors.

    The normal is the eigenvector of the neighborhood scatter with the
    smallest eigenvalue, unit length, oriented so it points toward the
    viewpoint. Neighborhoods with (near) collinear scatter get a zero
    normal, which downstream point-to-plane code treats as missing.
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
    to_view = np.asarray(viewpoint, dtype=float) - pts
    flip = np.einsum("ni,ni->n", normals, to_view)
    normals[flip < 0.0] *= -1.0
    # Deterministic sign when the viewpoint lies in the tangent plane.
    ties = np.abs(flip) < 1e-12
    if ties.any():
        sub = normals[ties]
        lead = np.argmax(np.abs(sub), axis=1)
        sign = np.sign(sub[np.arange(len(sub)), lead])
        sub[sign < 0] *= -1.0
        normals[ties] = sub
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    normals[degenerate] = 0.0
    return PointCloud(pts.copy(), normals)
