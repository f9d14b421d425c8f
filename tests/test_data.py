import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

import csv_reference
from softmapper import data
from softmapper.data import (
    FormatError,
    PointCloud,
    hausdorff_to_subsample,
    load_csv,
    load_off_vertices,
    normalize_counts,
)


def test_points_are_a_read_only_copy():
    # the cloud's cached grids stay valid: no write reaches its points
    raw = np.array([[0.0, 1.0], [2.0, 3.0]])
    cloud = PointCloud(raw)
    with pytest.raises(ValueError):
        cloud.points[0, 0] = 1.0
    raw[0, 0] = 9.0
    assert cloud.points.tolist() == [[0.0, 1.0], [2.0, 3.0]]


def test_a_cloud_equals_only_itself():
    a = PointCloud([[0.0, 1.0], [2.0, 3.0]])
    b = PointCloud(a.points)
    assert a == a and a != b
    assert len({a: 0, b: 1}) == 2


def test_load_csv_basic(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("0,0\n1,0\n0,1\n")
    cloud = load_csv(f)
    assert cloud.n == 3 and cloud.dim == 2
    assert np.array_equal(cloud.points, [[0, 0], [1, 0], [0, 1]])


def test_load_csv_non_numeric(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("a,b\n")
    with pytest.raises(FormatError, match="line 1"):
        load_csv(f)


def test_load_csv_accepts_a_byte_order_mark(tmp_path):
    f = tmp_path / "bom.csv"
    f.write_text("x,y\n0.5,1\n2,3\n", encoding="utf-8-sig")
    assert load_csv(f, has_header=True).points.tolist() == [[0.5, 1.0], [2.0, 3.0]]
    f.write_text("0.5,1\n2,3\n", encoding="utf-8-sig")
    assert load_csv(f).points.tolist() == [[0.5, 1.0], [2.0, 3.0]]


def test_load_csv_ragged(tmp_path):
    f = tmp_path / "ragged.csv"
    f.write_text("1,2,3\n4,5\n")
    with pytest.raises(FormatError, match="line 2"):
        load_csv(f)


@pytest.mark.parametrize(
    "text, message",
    [
        ("1,2\n3,x\n4,5,6\n", "non-numeric cell at line 2"),
        ("1,2\n4,5,6\n3,x\n", "line 2 has 3 columns, expected 2"),
        ("1,2\n4,x,6\n", "line 2 has 3 columns, expected 2"),
    ],
)
def test_load_csv_reports_first_faulty_line(tmp_path, text, message):
    f = tmp_path / "bad.csv"
    f.write_text(text)
    with pytest.raises(FormatError, match=message):
        load_csv(f)


@pytest.mark.parametrize(
    "text, has_header, message",
    [
        ("\n1,2\n\n3,y\n", False, "non-numeric cell at line 4"),
        ("x,y\n\n1,2\n  \n3\n", True, "line 5 has 1 columns, expected 2"),
        ("x,y\n1,2\nz,2\n", True, "non-numeric cell at line 3"),
    ],
)
def test_load_csv_line_numbers_count_blank_lines_and_header(tmp_path, text, has_header, message):
    f = tmp_path / "bad.csv"
    f.write_text(text)
    with pytest.raises(FormatError, match=message):
        load_csv(f, has_header=has_header)


def test_load_csv_accepts_what_float_accepts(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("1_0, 1.5 \n \t \n-2e-1,3\n")
    cloud = load_csv(f)
    assert np.array_equal(cloud.points, [[float("1_0"), float(" 1.5 ")], [-0.2, 3.0]])


def test_load_csv_4x3_and_header(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("x,y,z\n" + "\n".join("1,2,3" for _ in range(4)) + "\n")
    cloud = load_csv(f, has_header=True)
    assert cloud.n == 4 and cloud.dim == 3


def test_load_csv_empty(tmp_path):
    f = tmp_path / "empty.csv"
    f.write_text("")
    with pytest.raises(FormatError):
        load_csv(f)


def test_load_csv_deterministic(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("0.125,3\n-1,2\n")
    a, b = load_csv(f), load_csv(f)
    assert np.array_equal(a.points, b.points)


def test_load_csv_reads_only_newlines_as_line_ends(tmp_path):
    # str.splitlines would also split at the form feed and the separators,
    # giving two rows where iterating the file gives one faulty line
    f = tmp_path / "pts.csv"
    for sep in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029":
        f.write_text(f"0,1\n2,3{sep}4,5\n", encoding="utf-8")
        with pytest.raises(FormatError, match="line 2 has 3 columns, expected 2"):
            load_csv(f)
    f.write_bytes(b"\xef\xbb\xbfx,y\r\n\r\n0,1\r2,3\r\n")
    assert load_csv(f, has_header=True).points.tolist() == [[0.0, 1.0], [2.0, 3.0]]


def test_load_csv_checks_finiteness_once(tmp_path, monkeypatch):
    """A non-finite cell is PointCloud's error, not a reason to parse again."""
    fallback = []
    monkeypatch.setattr(data, "_parse_rows", lambda *args: fallback.append(args))
    f = tmp_path / "pts.csv"
    f.write_text("0,1\ninf,2\n")
    with pytest.raises(ValueError, match="non-finite"):
        load_csv(f)
    assert fallback == []


def _outcome(load, path, has_header):
    """The points' shape and bytes, or the error's type and message."""
    try:
        pts = load(path, has_header).points
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return pts.shape, pts.tobytes()


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                1.7976931348623157e308]
# \x1c-\x1f strip as whitespace in numpy's reader but not in float()
_pads = st.text(alphabet=" \t\x1c\x1f\xa0", max_size=2)
_cells = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(_EDGE_FLOATS).map(repr),
    st.integers(-10**20, 10**20).map(str),
    # float() reads these, numpy's reader does not
    st.sampled_from(["1_0", "-2_5.0_1", "\uff11", "\u0663.5", "1e1_0"]),
    st.sampled_from(["", "x", "1e", "--1", "1 2", "0x1p3", "nan", "inf", "-Infinity", "1,"]),
)


@st.composite
def csv_files(draw):
    """CSV text mostly of k-column rows of repr floats padded with spaces and
    tabs, with blank and whitespace-only lines, an optional header, BOM and
    CR, CRLF or LF line ends, and now and then a ragged row or a cell that
    only float() reads or that nothing reads."""
    k = draw(st.integers(1, 4))
    row = st.lists(st.tuples(_pads, _cells, _pads).map("".join), min_size=k, max_size=k)
    ragged = st.lists(st.tuples(_pads, _cells, _pads).map("".join), min_size=1, max_size=5)
    rows = st.one_of(row, row, row, ragged).map(",".join)
    blank = st.text(alphabet=" \t\x0b\x0c\x1c\x85\u2028", max_size=3)
    lines = draw(st.lists(st.one_of(rows, rows, rows, blank), max_size=12))
    has_header = draw(st.booleans())
    if has_header:
        lines.insert(draw(st.integers(0, len(lines))), ",".join("xyzw"[:k]))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(lines) + draw(st.sampled_from(["", end]))
    return draw(st.sampled_from(["", "\ufeff"])) + text, has_header


@given(csv_files())
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_load_csv_matches_the_line_by_line_parser(tmp_path, file):
    text, has_header = file
    f = tmp_path / "pts.csv"
    f.write_bytes(text.encode("utf-8"))
    assert _outcome(load_csv, f, has_header) == _outcome(csv_reference.load_csv, f, has_header)


def test_load_off(tmp_path):
    f = tmp_path / "tri.off"
    f.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    cloud = load_off_vertices(f)
    assert cloud.n == 3 and cloud.dim == 3
    assert np.array_equal(cloud.points[1], [1, 0, 0])


def test_load_off_accepts_a_byte_order_mark(tmp_path):
    f = tmp_path / "bom.off"
    f.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n", encoding="utf-8-sig")
    assert load_off_vertices(f).points.tolist() == [[0, 0, 0], [1, 0, 0], [0, 1, 0]]


def test_load_off_cube(tmp_path):
    verts = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    body = "\n".join(f"{x} {y} {z}" for x, y, z in verts)
    f = tmp_path / "cube.off"
    f.write_text(f"OFF\n8 0 0\n{body}\n")
    cloud = load_off_vertices(f)
    assert cloud.n == 8 and cloud.dim == 3


def test_load_off_empty_and_malformed(tmp_path):
    f = tmp_path / "empty.off"
    f.write_text("OFF\n0 0 0\n")
    with pytest.raises(FormatError, match="empty vertex set"):
        load_off_vertices(f)
    g = tmp_path / "noheader.off"
    g.write_text("3 1 0\n0 0 0\n")
    with pytest.raises(FormatError, match="header"):
        load_off_vertices(g)
    h = tmp_path / "short.off"
    h.write_text("OFF\n3 0 0\n0 0 0\n1 1 1\n")
    with pytest.raises(FormatError, match="ends after"):
        load_off_vertices(h)
    for text, message in [("OFF\n3 0\n", "truncated OFF count line"),
                          ("OFF\nthree 0 0\n0 0 0\n", "bad vertex count 'three'"),
                          ("OFF\n1 0 0\n0 x 0\n", "non-numeric vertex coordinate")]:
        h.write_text(text)
        with pytest.raises(FormatError, match=message):
            load_off_vertices(h)


def test_normalize_counts_examples():
    cloud = PointCloud([[1, 1]])
    out = normalize_counts(cloud, 2)
    assert np.allclose(out.points, math.log(2))

    out = normalize_counts(PointCloud([[1, 3]]), 1e4)
    assert np.allclose(out.points, [[math.log(1 + 2500), math.log(1 + 7500)]])


def test_normalize_counts_errors():
    with pytest.raises(ValueError, match="row 1"):
        normalize_counts(PointCloud([[1, 1], [0, 0]]), 1)
    with pytest.raises(ValueError, match="nonnegative"):
        normalize_counts(PointCloud([[1, -1]]), 1)
    for scale in (-2, -1, 0, np.inf, np.nan):
        with pytest.raises(ValueError, match="scale must be finite and > 0"):
            normalize_counts(PointCloud([[1, 1]]), scale)


def test_normalize_counts_row_local(rng):
    pts = rng.random((8, 5)) + 0.1
    base = normalize_counts(PointCloud(pts), 100).points
    perm = rng.permutation(8)
    permuted = normalize_counts(PointCloud(pts[perm]), 100).points
    assert np.allclose(permuted, base[perm])


def test_hausdorff_full_fraction_zero(rng):
    cloud = PointCloud(rng.standard_normal((40, 2)))
    assert hausdorff_to_subsample(cloud, 1.0, seed=0) == 0.0
    for fraction in (0.0, -0.5, 1.5, float("nan")):
        with pytest.raises(ValueError, match=r"fraction must be in \(0,1\]"):
            hausdorff_to_subsample(cloud, fraction, seed=0)


def test_hausdorff_two_points():
    cloud = PointCloud([[0.0], [10.0]])
    # fraction 0.5 keeps one point; either choice gives distance 10
    assert hausdorff_to_subsample(cloud, 0.5, seed=0) == 10.0


def test_hausdorff_matches_bruteforce(rng):
    pts = rng.standard_normal((100, 3))
    cloud = PointCloud(pts)
    seed = 7
    got = hausdorff_to_subsample(cloud, 1 / 3, seed)
    m = math.ceil(cloud.n / 3)
    idx = np.random.default_rng(seed).choice(cloud.n, size=m, replace=False)
    sub = pts[idx]

    def directed(a, b):
        best = 0.0
        for x in a:
            d = min(float(np.linalg.norm(x - y)) for y in b)
            best = max(best, d)
        return best

    assert got == pytest.approx(max(directed(pts, sub), directed(sub, pts)), rel=1e-12)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("fraction", [0.01, 1 / 3, 0.5, 0.97])
def test_hausdorff_blocks_match_the_dense_formula(seed, fraction):
    """Bit for bit, over a cloud larger than one block of rows."""
    cloud = PointCloud(np.random.default_rng(seed).standard_normal((1500, 3)))
    m = math.ceil(fraction * cloud.n)
    sub = cloud.points[np.random.default_rng(seed).choice(cloud.n, size=m, replace=False)]
    d = cdist(cloud.points, sub)
    dense = float(max(d.min(axis=1).max(), d.min(axis=0).max()))
    assert hausdorff_to_subsample(cloud, fraction, seed) == dense


def test_hausdorff_memory_is_bounded(rng):
    """The dense n x ceil(n/3) block of 4000 points is 42.7 MB."""
    cloud = PointCloud(rng.standard_normal((4000, 3)))
    tracemalloc.start()
    try:
        hausdorff_to_subsample(cloud, 1 / 3, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_pointcloud_validation():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        PointCloud([[np.nan, 0.0]])
