"""Point cloud container, loaders and distance utilities."""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np
from scipy.spatial.distance import cdist


class FormatError(ValueError):
    """Raised on malformed input files."""


@dataclass(frozen=True, eq=False)
class PointCloud:
    """n points in R^p under the Euclidean metric. A cloud equals only
    itself and hashes by identity.

    ``points`` is a read-only copy of the given coordinates, so what two
    private memos keep of it never goes stale: the exact grids that single
    linkage builds from it, one per threshold (see ``clustering.cell_index``),
    and, per clusterer, what the last ``mapper.LinkageEpoch`` built on it
    keeps for the next (see there). Neither memo refers back to the cloud.
    """

    points: np.ndarray
    _grids: dict = field(default_factory=dict, init=False, repr=False)
    _epochs: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        pts.flags.writeable = False
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError(f"points must be a nonempty 2-d array, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points contain non-finite coordinates")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def load_csv(path, has_header: bool = False) -> PointCloud:
    """Load a point cloud from a comma-separated file, one point per row.

    With ``has_header`` the first non-blank line names the columns; header
    names are not interpreted (all columns become coordinates). Blank and
    whitespace-only lines are skipped, and so is a UTF-8 byte-order mark; a
    cell is anything ``float`` reads.

    Lines split as iterating the file splits them, at newlines only (not
    ``str.splitlines``, which also splits at form feeds and separators).
    numpy's C reader parses the rows; it converts each cell as ``float``
    does, but rejects some cells ``float`` reads, such as ``1_0``, so any
    input it rejects goes through ``_parse_rows``, which also names the
    faulty line. So does a file holding one of the ASCII separators U+001C
    to U+001F: numpy strips them around a cell, ``float`` does not. Either
    way the points are the same, bit for bit.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        text = fh.read()
    lines = list(map(str.strip, text.split("\n")))
    rows = list(filter(None, lines))
    if has_header:
        del rows[:1]
    if not rows:  # checked first: numpy's reader warns on empty input
        raise FormatError(f"{path}: no data rows")
    pts = None
    if not any(sep in text for sep in "\x1c\x1d\x1e\x1f"):
        with suppress(ValueError):
            pts = np.loadtxt(rows, delimiter=",", ndmin=2, comments=None)
    return PointCloud(_parse_rows(path, lines, has_header) if pts is None else pts)


def _parse_rows(path, lines: list, has_header: bool) -> np.ndarray:
    """The points of the stripped ``lines`` of a file holding at least one
    data row, cell by cell through ``float``; raises FormatError at the
    first line with a non-numeric cell or a column count unlike the first
    data row's, whichever comes first."""
    linenos = [i for i, ln in enumerate(lines, 1) if ln][int(has_header):]
    rows = [lines[i - 1] for i in linenos]
    commas = np.fromiter(map(str.count, rows, repeat(",")), int, len(rows))
    ragged = np.flatnonzero(commas != commas[0])
    n = int(ragged[0]) if ragged.size else len(rows)
    try:
        cells = np.fromiter(map(float, ",".join(rows[:n]).split(",")), float)
    except ValueError:
        for lineno, row in zip(linenos, rows):
            try:
                list(map(float, row.split(",")))
            except ValueError:
                raise FormatError(f"{path}: non-numeric cell at line {lineno}") from None
    if n < len(rows):
        raise FormatError(
            f"{path}: line {linenos[n]} has {commas[n] + 1} columns, expected {commas[0] + 1}"
        )
    return cells.reshape(n, -1)


def load_off_vertices(path) -> PointCloud:
    """Read the vertex coordinates of an ASCII OFF mesh; faces are discarded,
    and so is a UTF-8 byte-order mark."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        tokens_lines = [
            ln.split("#", 1)[0].strip() for ln in fh
        ]
    lines = [ln for ln in tokens_lines if ln]
    if not lines or lines[0] != "OFF":
        raise FormatError(f"{path}: missing OFF header")
    tokens = " ".join(lines[1:]).split()
    if len(tokens) < 3:
        raise FormatError(f"{path}: truncated OFF count line")
    try:
        n_vert = int(tokens[0])
    except ValueError:
        raise FormatError(f"{path}: bad vertex count {tokens[0]!r}") from None
    if n_vert < 1:
        raise FormatError(f"{path}: empty vertex set")
    coords = tokens[3 : 3 + 3 * n_vert]
    if len(coords) < 3 * n_vert:
        raise FormatError(
            f"{path}: expected {n_vert} vertices, file ends after {len(coords) // 3}"
        )
    try:
        pts = np.array([float(t) for t in coords]).reshape(n_vert, 3)
    except ValueError:
        raise FormatError(f"{path}: non-numeric vertex coordinate") from None
    return PointCloud(pts)


def normalize_counts(cloud: PointCloud, scale: float) -> PointCloud:
    """Row-normalize nonnegative count data and apply log(1 + scale * x / rowsum);
    ``scale`` must be finite and > 0."""
    if not 0 < scale < np.inf:
        raise ValueError(f"scale must be finite and > 0, got {scale}")
    pts = cloud.points
    if np.any(pts < 0):
        raise ValueError("normalize_counts requires nonnegative entries")
    sums = pts.sum(axis=1)
    zero = np.nonzero(sums == 0)[0]
    if zero.size:
        raise ValueError(f"row {zero[0]} has zero total count")
    out = np.log1p(scale * pts / sums[:, None])
    return PointCloud(out)


_DISTANCE_BLOCK = 1 << 18  # distances held at a time, 2 MB


def hausdorff_to_subsample(cloud: PointCloud, fraction: float, seed: int) -> float:
    """Symmetrized Hausdorff distance between the cloud and a random subsample.

    The subsample has size ceil(fraction * n), drawn uniformly without
    replacement from the cloud with the given seed. Every subsample point is
    a cloud point, so the distance is the farthest any cloud point lies from
    the subsample, taken over blocks of rows of the distance matrix.
    """
    if not (0 < fraction <= 1):
        raise ValueError(f"fraction must be in (0,1], got {fraction}")
    m = math.ceil(fraction * cloud.n)
    rng = np.random.default_rng(seed)
    idx = rng.choice(cloud.n, size=m, replace=False)
    pts, sub = cloud.points, cloud.points[idx]
    rows = max(1, _DISTANCE_BLOCK // m)
    return float(max(cdist(pts[i:i + rows], sub).min(axis=1).max()
                     for i in range(0, cloud.n, rows)))
