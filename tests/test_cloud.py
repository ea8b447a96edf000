"""Point cloud container, ASCII parsers/writers, normals, downsampling."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stein_icp import (
    CloudParseError,
    InputError,
    PointCloud,
    Pose6D,
    estimate_normals,
    load_cloud,
    rotation_from_euler,
    transform_cloud,
    transform_points,
    write_cloud,
)
from stein_icp.cloud import format_table


class TestPointCloudValidation:
    def test_accepts_plain_lists(self):
        c = PointCloud([[0, 0, 0], [1, 2, 3]])
        assert len(c) == 2
        assert c.points.dtype == np.float64

    def test_rejects_bad_shape(self):
        with pytest.raises(InputError):
            PointCloud(np.zeros((4, 2)))
        with pytest.raises(InputError):
            PointCloud(np.zeros(3))

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            PointCloud(np.zeros((0, 3)))

    def test_rejects_non_finite(self):
        pts = np.zeros((2, 3))
        pts[1, 2] = np.nan
        with pytest.raises(InputError):
            PointCloud(pts)

    def test_normals_must_match_and_be_unit(self):
        pts = np.zeros((2, 3))
        with pytest.raises(InputError):
            PointCloud(pts, normals=np.zeros((3, 3)))
        with pytest.raises(InputError):
            PointCloud(pts, normals=np.full((2, 3), 0.5))

    def test_zero_normal_marker_allowed(self):
        nrm = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        c = PointCloud(np.zeros((2, 3)) + [1, 2, 3], normals=nrm)
        np.testing.assert_array_equal(c.normals, nrm)


class TestTransformCloud:
    def test_points_match_transform_points(self, rng):
        pts = rng.uniform(-1, 1, (30, 3))
        pose = Pose6D(0.2, -0.1, 0.4, 0.3, -0.2, 0.9)
        moved = transform_cloud(PointCloud(pts), pose)
        np.testing.assert_array_equal(moved.points, transform_points(pts, pose))
        assert moved.normals is None

    def test_rejects_a_pose_of_three_numbers(self, rng):
        with pytest.raises(InputError):
            transform_cloud(PointCloud(rng.uniform(-1, 1, (4, 3))), [0.1, 0.2, 0.3])

    def test_normals_rotate_without_translation(self, rng):
        pts = rng.uniform(-1, 1, (10, 3))
        nrm = rng.normal(size=(10, 3))
        nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
        pose = Pose6D(5.0, -3.0, 2.0, 0.4, 0.1, -0.7)
        moved = transform_cloud(PointCloud(pts, nrm), pose)
        R = rotation_from_euler(0.4, 0.1, -0.7)
        np.testing.assert_allclose(moved.normals, nrm @ R.T, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(moved.normals, axis=1), 1.0, atol=1e-12)


# Finite float64 values, with the edge cases of the text format always in
# reach: signed zeros, subnormals, and the largest magnitudes.
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e308, -1e308, 1.7976931348623157e308]
finite_floats = st.one_of(st.sampled_from(EDGE_FLOATS),
                          st.floats(allow_nan=False, allow_infinity=False))


def bits(a: np.ndarray) -> np.ndarray:
    """The raw float64 bit patterns, so -0.0 and 0.0 compare unequal."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


@st.composite
def clouds(draw):
    """A cloud of 1-4 points; with normals, each is a unit vector or a
    zero marker (signed zeros included)."""
    n = draw(st.integers(1, 4))
    points = np.array(draw(st.lists(st.tuples(finite_floats, finite_floats, finite_floats),
                                    min_size=n, max_size=n)))
    if not draw(st.booleans()):
        return PointCloud(points)
    normals = []
    for _ in range(n):
        v = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3)))
        length = np.linalg.norm(v)
        if length > 0.1 and draw(st.booleans()):
            normals.append(v / length)
        else:
            normals.append(draw(st.sampled_from([[0.0, 0.0, 0.0], [-0.0, 0.0, -0.0]])))
    return PointCloud(points, np.array(normals))


class TestFileRoundtrip:
    @pytest.mark.parametrize("suffix", [".ply", ".pcd", ".csv"])
    @settings(max_examples=25, deadline=None)
    @given(cloud=clouds())
    def test_write_load_bitwise_property(self, suffix, cloud):
        """The single float format reproduces every finite float64 bit for
        bit through each cloud format, normals or zero markers included."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"cloud{suffix}"
            write_cloud(cloud, path)
            back = load_cloud(path)
        np.testing.assert_array_equal(bits(back.points), bits(cloud.points))
        if cloud.normals is None:
            assert back.normals is None
        else:
            np.testing.assert_array_equal(bits(back.normals), bits(cloud.normals))

    @pytest.mark.parametrize("suffix,fmt", [(".ply", "ply"), (".pcd", "pcd"), (".csv", "xyz-csv")])
    @pytest.mark.parametrize("with_normals", [False, True])
    def test_write_load_bitwise(self, tmp_path, rng, suffix, fmt, with_normals):
        """Round-trip float formatting makes write -> load reproduce arrays
        bit for bit."""
        pts = rng.uniform(-5, 5, (23, 3))
        nrm = None
        if with_normals:
            nrm = rng.normal(size=(23, 3))
            nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
        cloud = PointCloud(pts, nrm)
        path = tmp_path / f"cloud{suffix}"
        write_cloud(cloud, path)
        back = load_cloud(path)
        np.testing.assert_array_equal(back.points, cloud.points)
        if with_normals:
            np.testing.assert_array_equal(back.normals, cloud.normals)
        else:
            assert back.normals is None

    def test_explicit_format_overrides_suffix(self, tmp_path, rng):
        pts = rng.uniform(-1, 1, (5, 3))
        path = tmp_path / "cloud.dat"
        write_cloud(PointCloud(pts), path, format="xyz-csv")
        back = load_cloud(path, format="xyz-csv")
        np.testing.assert_array_equal(back.points, pts)

    def test_unknown_suffix_needs_format(self, tmp_path):
        with pytest.raises(InputError):
            load_cloud(tmp_path / "cloud.bin")

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            load_cloud(tmp_path / "nope.ply")


# The bytes each writer produces, kept as literals: the text of a float is its
# repr (-0.0, 5e-324 and 1e+16 included), PLY declares its properties double
# as PCD declares SIZE 8, PLY and PCD lines end in "\n", xyz-csv is comma
# separated with "\r\n" ends.
_ODD_POINTS = [[-0.0, 5e-324, 1e16], [1e-05, 0.1, -2.5]]
_ODD_NORMALS = [[0.0, 0.0, 1.0], [-0.0, 0.6, 0.8]]
_PLY_HEAD = (b"ply\nformat ascii 1.0\nelement vertex 2\nproperty double x\n"
             b"property double y\nproperty double z\n")
_PCD_HEAD = b"# .PCD v0.7 - Point Cloud Data file format\nVERSION 0.7\n"
_PCD_TAIL = b"WIDTH 2\nHEIGHT 1\nVIEWPOINT 0 0 0 1 0 0 0\nPOINTS 2\nDATA ascii\n"
_WRITTEN = {
    (".ply", False): _PLY_HEAD + b"end_header\n-0.0 5e-324 1e+16\n1e-05 0.1 -2.5\n",
    (".ply", True): (_PLY_HEAD + b"property double nx\nproperty double ny\nproperty double nz\n"
                     b"end_header\n-0.0 5e-324 1e+16 0.0 0.0 1.0\n"
                     b"1e-05 0.1 -2.5 -0.0 0.6 0.8\n"),
    (".pcd", False): (_PCD_HEAD + b"FIELDS x y z\nSIZE 8 8 8\nTYPE F F F\nCOUNT 1 1 1\n"
                      + _PCD_TAIL + b"-0.0 5e-324 1e+16\n1e-05 0.1 -2.5\n"),
    (".pcd", True): (_PCD_HEAD + b"FIELDS x y z normal_x normal_y normal_z\n"
                     b"SIZE 8 8 8 8 8 8\nTYPE F F F F F F\nCOUNT 1 1 1 1 1 1\n"
                     + _PCD_TAIL + b"-0.0 5e-324 1e+16 0.0 0.0 1.0\n"
                     b"1e-05 0.1 -2.5 -0.0 0.6 0.8\n"),
    (".csv", False): b"-0.0,5e-324,1e+16\r\n1e-05,0.1,-2.5\r\n",
    (".csv", True): b"-0.0,5e-324,1e+16,0.0,0.0,1.0\r\n1e-05,0.1,-2.5,-0.0,0.6,0.8\r\n",
}


@settings(max_examples=50, deadline=None)
@given(width=st.integers(1, 6), values=st.lists(st.floats(), max_size=24), index=st.booleans())
def test_format_table_equals_per_value_repr(width, values, index):
    """The one-template table text is the per-value repr text it replaced,
    for every float64: nan, infinities, -0.0 and subnormals included."""
    table = np.array(values[:len(values) // width * width]).reshape(-1, width)
    expected = "".join(",".join([str(i)] * index + [repr(v) for v in row]) + "\r\n"
                       for i, row in enumerate(table.tolist()))
    assert format_table(table, ",", "\r\n", index) == expected


@pytest.mark.parametrize("suffix,with_normals", sorted(_WRITTEN), ids=str)
def test_written_bytes_are_pinned(tmp_path, suffix, with_normals):
    cloud = PointCloud(_ODD_POINTS, _ODD_NORMALS if with_normals else None)
    path = tmp_path / f"cloud{suffix}"
    write_cloud(cloud, path)
    assert path.read_bytes() == _WRITTEN[suffix, with_normals]
    back = load_cloud(path)
    np.testing.assert_array_equal(bits(back.points), bits(cloud.points))


class TestPlyParser:
    def test_extra_properties_and_faces_skipped(self, tmp_path):
        text = "\n".join([
            "ply", "format ascii 1.0",
            "comment made by hand",
            "element vertex 2",
            "property float x", "property float y", "property float z",
            "property uchar red",
            "element face 1",
            "property list uchar int vertex_indices",
            "end_header",
            "1.0 2.0 3.0 255",
            "4.0 5.0 6.0 0",
            "3 0 1 0",
        ])
        path = tmp_path / "a.ply"
        path.write_text(text)
        cloud = load_cloud(path)
        np.testing.assert_allclose(cloud.points, [[1, 2, 3], [4, 5, 6]], atol=0)

    def test_normals_picked_up(self, tmp_path):
        text = "\n".join([
            "ply", "format ascii 1.0", "element vertex 1",
            "property float x", "property float y", "property float z",
            "property float nx", "property float ny", "property float nz",
            "end_header",
            "0.0 0.0 0.0 0.0 0.0 1.0",
        ])
        path = tmp_path / "n.ply"
        path.write_text(text)
        cloud = load_cloud(path)
        np.testing.assert_allclose(cloud.normals, [[0, 0, 1]], atol=0)

    @pytest.mark.parametrize("text,fragment", [
        ("not ply\nend_header\n", "magic"),
        ("ply\nformat binary_little_endian 1.0\nelement vertex 1\nproperty float x\n"
         "property float y\nproperty float z\nend_header\n0 0 0\n", "ascii"),
        ("ply\nformat ascii 1.0\nelement vertex 2\nproperty float x\nproperty float y\n"
         "property float z\nend_header\n0 0 0\n", "promises"),
        ("ply\nformat ascii 1.0\nelement vertex 1\nproperty float x\nproperty float y\n"
         "end_header\n0 0\n", "lacks property"),
        ("ply\nformat ascii 1.0\nelement vertex 1\nproperty float x\nproperty float y\n"
         "property float z\n0 0 0\n", "end_header"),
        ("ply\nformat ascii 1.0\nelement vertex -1\nproperty float x\nproperty float y\n"
         "property float z\nend_header\n0 0 0\n0 0 0\n", "bad element vertex count"),
    ])
    def test_malformed_headers(self, tmp_path, text, fragment):
        path = tmp_path / "bad.ply"
        path.write_text(text)
        with pytest.raises(CloudParseError, match=fragment):
            load_cloud(path)

    def test_bad_number_reports_line(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text("ply\nformat ascii 1.0\nelement vertex 1\nproperty float x\n"
                        "property float y\nproperty float z\nend_header\n0 zero 0\n")
        with pytest.raises(CloudParseError, match=r"bad\.ply:8"):
            load_cloud(path)


class TestPcdParser:
    def test_reordered_fields_with_normals(self, tmp_path):
        text = "\n".join([
            "VERSION 0.7",
            "FIELDS normal_x normal_y normal_z x y z",
            "SIZE 8 8 8 8 8 8", "TYPE F F F F F F", "COUNT 1 1 1 1 1 1",
            "WIDTH 1", "HEIGHT 1", "POINTS 1", "DATA ascii",
            "0.0 1.0 0.0 7.0 8.0 9.0",
        ])
        path = tmp_path / "a.pcd"
        path.write_text(text)
        cloud = load_cloud(path)
        np.testing.assert_allclose(cloud.points, [[7, 8, 9]], atol=0)
        np.testing.assert_allclose(cloud.normals, [[0, 1, 0]], atol=0)

    @pytest.mark.parametrize("text,fragment", [
        ("FIELDS x y z\nPOINTS 1\n0 0 0\n", "DATA"),
        ("FIELDS x y\nDATA ascii\n0 0\n", "lacks"),
        ("FIELDS x y z\nPOINTS 2\nDATA ascii\n0 0 0\n", "promises"),
        ("FIELDS x y z\nDATA binary\n", "ascii"),
        ("FIELDS x y z\nPOINTS -1\nDATA ascii\n0 0 0\n0 0 0\n", "bad POINTS count"),
    ])
    def test_malformed(self, tmp_path, text, fragment):
        path = tmp_path / "bad.pcd"
        path.write_text(text)
        with pytest.raises(CloudParseError, match=fragment):
            load_cloud(path)

    def test_error_line_counts_blank_body_lines(self, tmp_path):
        """Blank body lines are skipped but still counted: the bad value
        sits on file line 7."""
        path = tmp_path / "gap.pcd"
        path.write_text("FIELDS x y z\nDATA ascii\n1 2 3\n\n\n4 5 6\n7 eight 9\n")
        with pytest.raises(CloudParseError, match=r"gap\.pcd:7: could not convert"):
            load_cloud(path)


class TestXyzParser:
    def test_commas_whitespace_comments(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("# header comment\n1,2,3\n\n4 5 6\n")
        cloud = load_cloud(path)
        np.testing.assert_allclose(cloud.points, [[1, 2, 3], [4, 5, 6]], atol=0)

    def test_six_columns_are_normals(self, tmp_path):
        path = tmp_path / "a.xyz"
        path.write_text("1 2 3 0 0 1\n")
        cloud = load_cloud(path)
        np.testing.assert_allclose(cloud.normals, [[0, 0, 1]], atol=0)

    def test_wrong_width(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("1 2 3 4\n")
        with pytest.raises(CloudParseError, match="3 or 6"):
            load_cloud(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("# only comments\n")
        with pytest.raises(CloudParseError, match="no data"):
            load_cloud(path)

    def test_error_carries_line_number(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("1 2 3\nx y z\n")
        with pytest.raises(CloudParseError, match=r"a\.csv:2"):
            load_cloud(path)


class TestBulkBody:
    """Bodies of 5000 rows, long enough for the one-pass parse, keep the
    per-line rules: the first n tokens are read and extras ignored, and a
    short line or a bad token is reported at its own file line."""

    N = 5000
    BAD = 3990   # data row a test breaks

    @pytest.fixture
    def table(self, rng):
        return rng.uniform(-2.0, 2.0, (self.N, 6))

    def _ply(self, tmp_path, rows):
        """A PLY with an extra uchar property and two face lines after the
        vertices; returns the path and the file line of row BAD."""
        header = ["ply", "format ascii 1.0", f"element vertex {len(rows)}",
                  "property float x", "property float y", "property float z",
                  "property uchar red", "element face 2",
                  "property list uchar int vertex_indices", "end_header"]
        path = tmp_path / "big.ply"
        path.write_text("\n".join(header + rows + ["3 0 1 2", "3 2 3 4"]) + "\n")
        return path, len(header) + 1 + self.BAD

    def _ply_rows(self, table):
        return [" ".join(map(repr, row)) + " 255" for row in table[:, :3].tolist()]

    def test_ply_extra_property_and_faces(self, tmp_path, table):
        path, _ = self._ply(tmp_path, self._ply_rows(table))
        cloud = load_cloud(path)
        np.testing.assert_array_equal(bits(cloud.points), bits(table[:, :3]))
        assert cloud.normals is None

    def test_ply_extra_tokens_are_ignored(self, tmp_path, table):
        rows = self._ply_rows(table)
        rows[self.BAD] += " 9 junk"
        path, _ = self._ply(tmp_path, rows)
        np.testing.assert_array_equal(bits(load_cloud(path).points), bits(table[:, :3]))

    def test_ply_short_line_names_its_line(self, tmp_path, table):
        rows = self._ply_rows(table)
        rows[self.BAD] = "1.0 2.0"
        path, line = self._ply(tmp_path, rows)
        with pytest.raises(CloudParseError, match=rf"big\.ply:{line}: expected 4 values, got 2$"):
            load_cloud(path)

    def test_ply_bad_token_names_its_line(self, tmp_path, table):
        rows = self._ply_rows(table)
        rows[self.BAD] = "1.0 oops 3.0 255"
        path, line = self._ply(tmp_path, rows)
        with pytest.raises(CloudParseError,
                           match=rf"big\.ply:{line}: could not convert string to float: 'oops'$"):
            load_cloud(path)

    def test_first_bad_line_wins(self, tmp_path, table):
        """A bad token before a short line is the error reported."""
        rows = self._ply_rows(table)
        rows[self.BAD] = "1.0 oops 3.0 255"
        rows[self.BAD + 500] = "1.0"
        path, line = self._ply(tmp_path, rows)
        with pytest.raises(CloudParseError, match=rf"big\.ply:{line}: could not convert"):
            load_cloud(path)

    def test_pcd_blank_lines_keep_file_line_numbers(self, tmp_path, table):
        rows = [" ".join(map(repr, row)) for row in table[:, :3].tolist()]
        rows[self.BAD] = "1.0 2.0 nine"
        body = []
        for k, row in enumerate(rows):
            body += [row, ""] if k % 100 == 99 else [row]   # a blank line every 100 rows
        path = tmp_path / "big.pcd"
        path.write_text("FIELDS x y z\nDATA ascii\n" + "\n".join(body) + "\n")
        line = 2 + self.BAD + self.BAD // 100 + 1
        with pytest.raises(CloudParseError, match=rf"big\.pcd:{line}: could not convert"):
            load_cloud(path)

    def _xyz_lines(self, table):
        """Six columns separated by commas, spaces or both, with comments
        and blank lines mixed in; returns the lines and the file line of
        row BAD."""
        lines, line_of_bad = ["# x y z nx ny nz"], None
        for k, row in enumerate(table.tolist()):
            text = [", ".join, " ".join, ",".join][k % 3](map(repr, row))
            if k % 250 == 0:
                lines += ["", "  # a comment"]
            lines.append(text)
            if k == self.BAD:
                line_of_bad = len(lines)
        return lines, line_of_bad

    def test_xyz_mixed_separators_comments_and_blanks(self, tmp_path, table):
        table[:, 3:] /= np.linalg.norm(table[:, 3:], axis=1, keepdims=True)
        lines, _ = self._xyz_lines(table)
        path = tmp_path / "big.xyz"
        path.write_text("\n".join(lines) + "\n")
        cloud = load_cloud(path)
        np.testing.assert_array_equal(bits(cloud.points), bits(table[:, :3]))
        np.testing.assert_array_equal(bits(cloud.normals), bits(table[:, 3:]))

    def test_xyz_narrow_row_names_its_line(self, tmp_path, table):
        """The width is the first data line's; a later 3-column row is short."""
        lines, line = self._xyz_lines(table)
        lines[line - 1] = "1,2,3"
        path = tmp_path / "big.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CloudParseError, match=rf"big\.csv:{line}: expected 6 values, got 3$"):
            load_cloud(path)


class TestEstimateNormals:
    def test_plane_normals(self, rng):
        """Grid on z = 1 with the viewpoint at the origin: every normal is
        (0, 0, -1), the unit plane normal oriented toward the viewpoint."""
        xs, ys = np.meshgrid(np.linspace(0, 1, 12), np.linspace(0, 1, 12))
        pts = np.column_stack([xs.ravel(), ys.ravel(), np.ones(xs.size)])
        cloud = estimate_normals(PointCloud(pts), k=8)
        np.testing.assert_allclose(cloud.normals, np.tile([0.0, 0.0, -1.0], (len(cloud), 1)),
                                   atol=1e-9)

    def test_sphere_normals_point_inward(self, rng):
        u = rng.normal(size=(600, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        cloud = estimate_normals(PointCloud(u), k=10)
        # Viewpoint at the center: normals should be -radial within PCA noise.
        dots = np.einsum("ij,ij->i", cloud.normals, -u)
        assert np.all(dots > 0.9)
        assert dots.mean() > 0.99

    def test_collinear_neighborhood_gets_zero_normal(self):
        pts = np.column_stack([np.linspace(0, 1, 12), np.zeros(12), np.zeros(12)])
        cloud = estimate_normals(PointCloud(pts), k=4)
        np.testing.assert_array_equal(cloud.normals, np.zeros((12, 3)))

    def test_validation(self):
        pts = np.zeros((5, 3)) + np.arange(5)[:, None]
        with pytest.raises(InputError):
            estimate_normals(PointCloud(pts), k=2)
        with pytest.raises(InputError):
            estimate_normals(PointCloud(pts), k=6)
