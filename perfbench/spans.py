"""Spans around the calls into each softmapper layer, recorded from outside
the package.

Every module binds its collaborators with ``from .x import y``, so a wrapper
has to replace the name where it is looked up (the binding site), not where
it is defined. ``SITES`` lists those sites; ``Tracer.patched()`` swaps
wrappers in and restores the originals afterwards. Each span keeps its
parent, so a span's self time is its duration minus its children's, and the
self times of one operation add up to the duration of its root span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass, field

import numpy as np


def _cluster_counts(args, kwargs, result):
    s = len(args[2])
    return {"points": s, "cdist_bytes": 8 * s * s, "clusters": len(result)}


def _graph_counts(args, kwargs, result):
    k = result.n_nodes
    return {"nodes": k, "edges": result.n_edges, "pair_checks": k * (k - 1) // 2}


def _extended_counts(args, kwargs, result):
    g = args[0].graph
    # coned complex: apex, then each vertex and edge plus its cone
    return {"simplices": 1 + 2 * (g.n_nodes + g.n_edges), "diagram_points": len(result)}


def _regular_counts(args, kwargs, result):
    g = args[0].graph
    return {"simplices": g.n_nodes + g.n_edges, "diagram_points": len(result)}


def _scheme_counts(args, kwargs, result):
    p = result.probs
    margin = np.any((p > 0) & (p < 1), axis=1)
    return {"scheme_points": p.shape[0], "margin_points": int(margin.sum())}


def _text_counts(args, kwargs, result):
    return {"bytes": len(result.encode())}


_SCHEMES = {"uniform_cover": ("cover.scheme", None),
            "smooth_scheme": ("cover.scheme", _scheme_counts),
            "standard_scheme": ("cover.scheme", _scheme_counts),
            "sample_assignment": ("cover.sample", None)}
_GRAPH = {"map_comp": ("mapper.map_comp", _graph_counts),
          "map_pers_filtration": ("persistence.filtration", None),
          "extended_persistence": ("persistence.diagram", _extended_counts),
          "regular_persistence": ("persistence.diagram", _regular_counts)}

# module -> {attribute: (span name, count function)}
SITES = {
    "softmapper.mapper": {"cluster": ("clustering.cluster", _cluster_counts)},
    # loss_and_subgradient reaches its own module's functions through globals
    "softmapper.persistence": dict(_GRAPH),
    "softmapper.optimize": {
        **_SCHEMES,
        "loss_and_subgradient": ("persistence.loss_grad", None),
        "optimize": ("optimize.epoch", None),
    },
    "softmapper.cli": {
        **_SCHEMES,
        **_GRAPH,
        "load_csv": ("data.load", None),
        "graph_to_json": ("export.write", _text_counts),
        "export_dot": ("export.write", _text_counts),
        "diagram_to_csv": ("export.write", _text_counts),
        "main": ("cli.main", None),
    },
    "softmapper.synthetic": {"generate_synthetic": ("synthetic.generate", None)},
}
# methods patched on the class, because callers reach them through instances
METHOD_SITES = {
    ("softmapper.filters", "LinearFilter", "evaluate"): "filters.evaluate",
    ("softmapper.filters", "FixedFilter", "evaluate"): "filters.evaluate",
}


@dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0
    failed: bool = False
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """In-memory span recorder; ``spans`` holds every span since ``reset``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if span.parent is not None:
                    self.spans[span.parent].child_s += span.duration
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Install a wrapper at every binding site; restore them on exit.

        A missing site raises AttributeError: the benchmark must be updated
        when the program moves a name, or that layer would go unmeasured.
        """
        saved = []
        try:
            for modname, names in SITES.items():
                mod = importlib.import_module(modname)
                for attr, (span_name, count) in names.items():
                    original = getattr(mod, attr)
                    saved.append((mod, attr, original))
                    setattr(mod, attr, self.wrap(span_name, original, count))
            for (modname, clsname, attr), span_name in METHOD_SITES.items():
                cls = getattr(importlib.import_module(modname), clsname)
                original = cls.__dict__[attr]
                saved.append((cls, attr, original))
                setattr(cls, attr, self.wrap(span_name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def layer(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def summarize(spans: list[Span]) -> dict:
    """Per span name: calls, failures, inclusive and self seconds, summed counts.

    The single top-level span is reported under ``"root"`` as well.
    """
    roots = [s for s in spans if s.parent is None]
    if len(roots) != 1:
        raise ValueError(f"expected one root span per operation, got {len(roots)}")
    out: dict[str, dict] = {}
    for s in spans:
        agg = out.setdefault(s.name, {"calls": 0, "failed": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["failed"] += int(s.failed)
        agg["total_s"] += s.duration
        agg["self_s"] += s.self_s
        for key, val in s.counts.items():
            agg[key] = agg.get(key, 0) + val
    out["root"] = {"name": roots[0].name, "duration_s": roots[0].duration,
                   "self_sum_s": sum(s.self_s for s in spans)}
    return out
