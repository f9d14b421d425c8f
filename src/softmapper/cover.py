"""Interval covers of the filter range and stochastic cover assignment schemes.

An assignment scheme is an n x r matrix of Bernoulli success probabilities,
held as its nonzero entries; sampling it yields a binary cover assignment
matrix, one column per cover element. All shipped schemes have conditionally
independent coordinates, so draws differ only at the margin entries
(0 < p < 1): ``MarginDraws`` holds a stack of draws as those entries alone,
and a draw of ``margin_scheme`` is one such stack.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .filters import FilterValues


@dataclass(frozen=True)
class IntervalCover:
    """r closed intervals, each overlapping the next."""

    intervals: np.ndarray  # r x 2, (a_j, b_j) rows in increasing order

    def __post_init__(self):
        iv = np.asarray(self.intervals, dtype=float)
        if iv.ndim != 2 or iv.shape[1] != 2 or iv.shape[0] < 1:
            raise ValueError("intervals must be an r x 2 array")
        if not np.all(iv[:, 0] < iv[:, 1]):
            raise ValueError("each interval needs a_j < b_j")
        if not np.all(np.diff(iv, axis=0) >= 0):
            raise ValueError("interval endpoints must be non-decreasing")
        if iv.shape[0] > 1 and np.any(iv[1:, 0] >= iv[:-1, 1]):
            raise ValueError("consecutive intervals must overlap")
        object.__setattr__(self, "intervals", iv)

    @property
    def resolution(self) -> int:
        return self.intervals.shape[0]


class AssignmentScheme:
    """Bernoulli success probabilities p_{i,j} for point i vs cover element j,
    held as their nonzero entries.

    ``AssignmentScheme(probs)`` takes a dense n x r matrix; ``shape`` is its
    (n, r), ``flat`` the flat indices of its nonzero entries, ascending, as
    ``np.flatnonzero`` gives them, and ``values`` those entries. ``probs``
    is the dense matrix again, read-only, built on first read, which
    ``sample_assignment`` and ``log_prob`` read; ``margin`` marks the margin
    entries (0 < p < 1), read-only, also built on first read. An entry
    outside [0, 1] or NaN raises ValueError, whichever constructor takes it.
    """

    _runs = None  # what the build of a standard or smooth scheme keeps (see _Runs)

    def __init__(self, probs):
        p = np.asarray(probs)
        if p.ndim != 2:
            raise ValueError("probs must be an n x r matrix")
        flat = np.flatnonzero(p)
        self._hold(p.shape, flat, p.ravel()[flat].astype(float))

    @classmethod
    def from_entries(cls, shape: tuple, flat: np.ndarray, values: np.ndarray) -> AssignmentScheme:
        """The scheme of the given nonzero entries, ``flat`` ascending."""
        scheme = cls.__new__(cls)
        scheme._hold(shape, flat, values)
        return scheme

    def _hold(self, shape, flat, values):
        if not np.all((values > 0) & (values <= 1)):  # NaN fails both
            raise ValueError("probabilities must lie in [0, 1]")
        flat.flags.writeable = values.flags.writeable = False
        self.shape, self.flat, self.values = tuple(shape), flat, values

    @cached_property
    def probs(self) -> np.ndarray:
        p = np.zeros(self.shape)
        p.ravel()[self.flat] = self.values
        p.flags.writeable = False
        return p

    @cached_property
    def margin(self) -> np.ndarray:
        m = self.values < 1
        m.flags.writeable = False
        return m


def uniform_cover(values, r: int, g: float) -> IntervalCover:
    """Cover [min, max] of the values with r equal intervals overlapping by g.

    The interval length L solves (r - (r-1) g) L = max - min, the unique
    uniform solution; consecutive intervals share a segment of length g*L.
    A NaN or infinite value raises ValueError. Intervals that collapse in
    floating point, over a range too narrow for r of them, raise
    FloatingPointError.
    """
    values = np.asarray(values, dtype=float)
    if not isinstance(r, Integral) or r < 1:
        raise ValueError(f"resolution r must be an integer >= 1, got {r!r}")
    if not (0 < g < 1):
        raise ValueError(f"gain must lie in (0,1), got {g}")
    lo, hi = float(values.min()), float(values.max())
    if not (np.isfinite(lo) and np.isfinite(hi)):  # a NaN value makes both NaN
        raise ValueError(f"values must be finite, got the range [{lo}, {hi}]")
    if hi <= lo:
        if r > 1:
            raise ValueError("constant values cannot be covered with r > 1 intervals")
        hi = lo + 1.0  # degenerate constant data: any covering interval works
    length = (hi - lo) / (r - (r - 1) * g)
    step = length * (1 - g)
    a = lo + step * np.arange(r)
    iv = np.column_stack([a, a + length])
    iv[0, 0] = lo
    iv[-1, 1] = hi  # exact in real arithmetic; pin down rounding
    try:
        return IntervalCover(iv)
    except ValueError as exc:  # the range is too narrow for r intervals in doubles
        raise FloatingPointError(f"{r} intervals cannot cover [{lo}, {hi}]: {exc}") from exc


def _as_values(values) -> np.ndarray:
    if isinstance(values, FilterValues):
        return values.values
    return np.asarray(values, dtype=float)


def smoothing_width(values, resolution: int, delta_rel: float) -> float:
    """The smooth scheme's margin width: ``delta_rel`` times the range of the
    values, or ``delta_rel`` itself when they are constant.

    Raises ValueError unless ``delta_rel`` is finite and > 0, and
    FloatingPointError for constant values and ``resolution`` > 1, since no
    cover of more than one interval fits a single value, and when the width
    overflows or underflows to 0.
    """
    if not 0 < delta_rel < np.inf:
        raise ValueError(f"delta_rel must be finite and > 0, got {delta_rel}")
    v = _as_values(values)
    span = float(v.max() - v.min())
    if span == 0 and resolution > 1:
        raise FloatingPointError(f"the filter is constant, so {resolution} intervals"
                                 " cannot cover its range")
    delta = delta_rel * span if span > 0 else delta_rel
    if delta == np.inf:
        raise FloatingPointError(f"the smoothing width {delta_rel} * {span} overflows")
    if delta == 0:
        raise FloatingPointError(f"the smoothing width {delta_rel} * {span} underflows to 0")
    return delta


def _spread(start: np.ndarray, size: np.ndarray):
    """(k, i): for each k, every i in [start[k], start[k] + size[k])."""
    k = np.repeat(np.arange(size.size), size)
    return k, start[k] + np.arange(k.size) - np.repeat(np.cumsum(size) - size, size)


def _bump(t: np.ndarray) -> np.ndarray:
    """exp(1 - 1/(1 - t^2)) on |t| < 1, extended by 0 at |t| >= 1."""
    out = np.zeros_like(t)
    inside = np.abs(t) < 1
    ti = t[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ti * ti))
    return out


class _Runs(NamedTuple):
    """What a scheme build computes on its way to the entries, kept with the
    scheme so that the next build can check it still holds (``_reuse``)."""

    first: np.ndarray  # each point's widened run [first, end) of elements
    end: np.ndarray
    rows: np.ndarray  # the run entries (point rows[k] in element cols[k]), point-major
    cols: np.ndarray
    kept: np.ndarray  # run entry k has p != 0, so it is an entry of the scheme


def _probabilities(v: np.ndarray, cover: IntervalCover, delta: float, rows: np.ndarray,
                   cols: np.ndarray) -> np.ndarray:
    """Each run entry's probability. Entry (i, j) is core, with p = 1, when
    max(a_j - v_i, v_i - b_j) <= 0, that is, when v_i lies in [a_j, b_j];
    outside, exactly one of the two is positive, and over delta it is the
    bump's argument. At delta = 0 every run entry is core, and no bump is
    evaluated."""
    a, b = cover.intervals.T
    vi = v.take(rows)
    d = np.maximum(a.take(cols) - vi, vi - b.take(cols))
    q = np.ones(d.size)
    out = np.flatnonzero(d > 0)
    q[out] = _bump(d.take(out) / delta)
    return q


def _bump_scheme(v: np.ndarray, cover: IntervalCover, delta: float):
    """The scheme ``smooth_scheme`` gives at width delta >= 0, and how many
    widened intervals hold each value. At delta = 0 this is the standard
    scheme.

    The lo_j = a_j - delta and hi_j = b_j + delta are non-decreasing with
    lo_j < hi_j, so the elements whose widened interval holds v are one run:
    from first, the number of j with hi_j < v, up to end, the number of j
    with lo_j <= v. Entries come out by point, then by element, so their flat
    indices ascend; a bump of exactly 0, at the margin's edge or where it
    underflows, is no entry. The scheme keeps the runs and which run entries
    it kept (``_Runs``) when every value has a widened interval, so that no
    reused standard scheme skips the error of a value outside the cover.
    """
    a, b = cover.intervals.T
    first = np.searchsorted(b + delta, v, side="left")
    end = np.searchsorted(a - delta, v, side="right")
    count = end - first
    rows, cols = _spread(first, count)
    q = _probabilities(v, cover, delta, rows, cols)
    kept = q != 0
    flat = (rows * cover.resolution + cols)[kept]
    scheme = AssignmentScheme.from_entries((v.size, cover.resolution), flat, q[kept])
    if count.all():
        runs = _Runs(first, end, rows, cols, kept)
        for x in runs:
            x.flags.writeable = False  # later schemes share them
        scheme._runs = runs
    return scheme, count


def _reuse(prev: AssignmentScheme | None, values, cover: IntervalCover,
           delta: float) -> AssignmentScheme | None:
    """The scheme ``_bump_scheme`` builds from the values, the cover and
    delta, if the scheme ``prev`` kept its runs and they still hold: each
    value's widened run, and which run entries have p != 0, are those of
    ``prev``. The entries are then ``prev``'s, and only the run entries'
    probabilities are computed, bit for bit as a build computes them; else
    None. A run [first, end) holds when hi_{first-1} < v <= hi_first and
    lo_{end-1} <= v < lo_end, with the ends past either side infinite.
    Which entries are core needs no check: it decides only a probability,
    which is computed afresh either way.
    """
    runs = None if prev is None else prev._runs
    v = _as_values(values)
    if runs is None or prev.shape != (v.size, cover.resolution):
        return None
    a, b = cover.intervals.T
    lo, hi, inf = a - delta, b + delta, np.array([np.inf])
    first, end = runs.first, runs.end
    if not np.all((np.concatenate([-inf, hi]).take(first) < v)
                  & (v <= np.concatenate([hi, inf]).take(first))
                  & (np.concatenate([-inf, lo]).take(end) <= v)
                  & (v < np.concatenate([lo, inf]).take(end))):
        return None
    q = _probabilities(v, cover, delta, runs.rows, runs.cols)
    if not np.array_equal(q != 0, runs.kept):
        return None
    scheme = AssignmentScheme.from_entries(prev.shape, prev.flat, q[runs.kept])
    scheme._runs = runs
    return scheme


def standard_scheme(values, cover: IntervalCover) -> AssignmentScheme:
    """Degenerate scheme: p_{i,j} = 1 iff the value lies in the closed interval j."""
    v = _as_values(values)
    scheme, count = _bump_scheme(v, cover, 0.0)
    if not count.all():
        bad = int(np.flatnonzero(count == 0)[0])
        raise ValueError(f"value {v[bad]} at index {bad} lies outside the cover")
    return scheme


def smooth_scheme(values, cover: IntervalCover, delta: float) -> AssignmentScheme:
    """Smooth relaxation of the standard scheme.

    p_{i,j} is 1 on [a_j, b_j], falls off as a smooth bump over a margin of
    width delta on each side, and is 0 beyond the margin.
    """
    if not 0 < delta < np.inf:
        raise ValueError(f"delta must be finite and > 0, got {delta}")
    return _bump_scheme(_as_values(values), cover, delta)[0]


def sample_assignment(scheme: AssignmentScheme, seed: int | Sequence[int]) -> np.ndarray:
    """Draw one binary assignment matrix; deterministic for a fixed seed,
    which may be an int or a sequence of ints, as ``np.random.default_rng``
    takes it."""
    rng = np.random.default_rng(seed)
    u = rng.random(scheme.probs.shape)
    return (u < scheme.probs).view(np.uint8)


def margin_scheme(scheme: AssignmentScheme, n_draws: int) -> AssignmentScheme:
    """The n_draws x m scheme each of whose rows holds the m margin
    probabilities (0 < p < 1) of ``scheme``, in its entry order. Its draw
    marks the margin entries of n_draws independent draws of ``scheme``,
    which ``MarginDraws`` holds; the draws of ``scheme`` it gives have the
    law that ``sample_assignment(scheme, seed)`` draws from."""
    margin = scheme.values[scheme.margin]
    values = np.tile(margin, n_draws)  # each nonzero, so each is an entry
    return AssignmentScheme.from_entries((n_draws, margin.size), np.arange(values.size), values)


class MarginDraws:
    """A stack of draws of one scheme, held as their margin entries.

    ``drawn`` (M x m, bool) marks which of the scheme's m margin entries
    (0 < p < 1), taken in its entry order, draw k assigns; every draw also
    assigns every entry with p = 1, and none with p = 0. A ``drawn`` of
    another width raises ValueError. ``dense()`` lists the M x n x r draws.
    """

    def __init__(self, scheme: AssignmentScheme, drawn):
        drawn = np.asarray(drawn)
        m = np.count_nonzero(scheme.margin)
        if drawn.ndim != 2 or drawn.shape[1] != m:
            raise ValueError(f"drawn must be an M x {m} block, got {drawn.shape}")
        self.scheme, self.drawn = scheme, drawn != 0

    def dense(self) -> np.ndarray:
        """The draws as an M x n x r 0/1 array, as ``sample_assignment`` gives each."""
        flat, margin = self.scheme.flat, self.scheme.margin
        e = np.zeros((self.drawn.shape[0], self.scheme.shape[0] * self.scheme.shape[1]),
                     dtype=np.uint8)
        e[:, flat[~margin]] = 1
        e[:, flat[margin]] = self.drawn
        return e.reshape(-1, *self.scheme.shape)


def log_prob(scheme: AssignmentScheme, e: np.ndarray) -> float:
    """Log-probability of the binary matrix e under the scheme (may be -inf).

    Entries with probability exactly 0 or 1 are hard constraints: a mismatch
    gives -inf. Every interior probability 0 < p < 1 contributes log(p) or
    log1p(-p) exactly, which is finite for every such double.
    """
    p = scheme.probs
    e = np.asarray(e)
    if e.shape != p.shape:
        raise ValueError(f"shape mismatch: e {e.shape} vs probs {p.shape}")
    eb = e.astype(bool)
    if np.any(eb & (p == 0)) or np.any(~eb & (p == 1)):
        return float("-inf")
    interior = (p > 0) & (p < 1)
    pi = p[interior]
    return float(np.sum(np.where(eb[interior], np.log(pi), np.log1p(-pi))))
