"""Point cloud container, loaders and distance utilities."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist


class FormatError(ValueError):
    """Raised on malformed input files."""


@dataclass(frozen=True)
class PointCloud:
    """n points in R^p with optional per-point scalar attributes.

    The metric is Euclidean. Attributes (e.g. a sampling timepoint) are
    carried along for coloring only; nothing downstream optimizes over them.
    """

    points: np.ndarray
    attributes: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError(f"points must be a nonempty 2-d array, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points contain non-finite coordinates")
        object.__setattr__(self, "points", pts)
        attrs = {}
        for name, vec in self.attributes.items():
            vec = np.asarray(vec, dtype=float)
            if vec.shape != (pts.shape[0],):
                raise ValueError(
                    f"attribute {name!r} has length {vec.shape}, expected ({pts.shape[0]},)"
                )
            attrs[name] = vec
        object.__setattr__(self, "attributes", attrs)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def load_csv(path, has_header: bool = False) -> PointCloud:
    """Load a point cloud from a comma-separated file, one point per row.

    With ``has_header`` the first line names the columns; header names are
    not interpreted (all columns become coordinates).
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh]
    lines = [(i + 1, ln) for i, ln in enumerate(lines) if ln]
    if has_header:
        lines = lines[1:]
    if not lines:
        raise FormatError(f"{path}: no data rows")
    rows = []
    width = None
    for lineno, ln in lines:
        cells = ln.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise FormatError(
                f"{path}: line {lineno} has {len(cells)} columns, expected {width}"
            )
        try:
            rows.append([float(c) for c in cells])
        except ValueError:
            raise FormatError(f"{path}: non-numeric cell at line {lineno}") from None
    return PointCloud(np.array(rows))


def load_off_vertices(path) -> PointCloud:
    """Read the vertex coordinates of an ASCII OFF mesh; faces are discarded."""
    with open(path, "r", encoding="utf-8") as fh:
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
    """Row-normalize nonnegative count data and apply log(1 + scale * x / rowsum)."""
    pts = cloud.points
    if np.any(pts < 0):
        raise ValueError("normalize_counts requires nonnegative entries")
    sums = pts.sum(axis=1)
    zero = np.nonzero(sums == 0)[0]
    if zero.size:
        raise ValueError(f"row {zero[0]} has zero total count")
    out = np.log1p(scale * pts / sums[:, None])
    return PointCloud(out, dict(cloud.attributes))


def hausdorff_to_subsample(cloud: PointCloud, fraction: float, seed: int) -> float:
    """Symmetrized Hausdorff distance between the cloud and a random subsample.

    The subsample has size ceil(fraction * n), drawn uniformly without
    replacement from the cloud with the given seed.
    """
    if not (0 < fraction <= 1):
        raise ValueError(f"fraction must be in (0,1], got {fraction}")
    m = math.ceil(fraction * cloud.n)
    rng = np.random.default_rng(seed)
    idx = rng.choice(cloud.n, size=m, replace=False)
    sub = cloud.points[idx]
    d = cdist(cloud.points, sub)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))
