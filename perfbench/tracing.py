"""Outside-in tracing of the library's layers.

Each listed function is wrapped where the library's modules hold it:
every ``lienilp`` module whose namespace refers to the original gets
the wrapper, so calls between modules and inside a module are both
seen.  Class attributes are replaced on the class.  Every call becomes
one span (name, start, end, parent, analysis id) kept in memory; self
time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

import numpy as np

# (metric prefix, defining module, attribute; "Class.attr" for methods)
LAYER_FUNCTIONS = (
    ("catalog.load", "lienilp.catalog", "Catalog.load"),
    ("catalog.build", "lienilp.catalog", "Catalog.build"),
    ("groups.wreath_cyclic", "lienilp.groups", "wreath_cyclic"),
    ("groups.direct_product", "lienilp.groups", "direct_product"),
    ("groups.from_permutation_generators", "lienilp.groups",
     "from_permutation_generators"),
    ("groups.lower_central_series", "lienilp.groups",
     "lower_central_series"),
    ("dimension.series_recursive", "lienilp.dimension", "series_recursive"),
    ("dimension.series_product", "lienilp.dimension", "series_product"),
    ("dimension.d_vector", "lienilp.dimension", "d_vector"),
    ("classify.theorem1_structural_case", "lienilp.classify",
     "theorem1_structural_case"),
    ("classify.lemma2_profile", "lienilp.classify", "lemma2_profile"),
    ("classify.cross_validate", "lienilp.classify", "cross_validate"),
    ("classify.classify", "lienilp.classify", "classify"),
    ("oracle.upper_lie_powers", "lienilp.oracle", "upper_lie_powers"),
    ("oracle.lower_lie_powers", "lienilp.oracle", "lower_lie_powers"),
    ("oracle.dimension_series_direct", "lienilp.oracle",
     "dimension_series_direct"),
    ("oracle.echelon.from_vectors", "lienilp.oracle",
     "FpSubspace.from_vectors"),
    ("oracle.echelon.ideal_closure", "lienilp.oracle",
     "GroupAlgebra.ideal_closure"),
    ("report.analyze", "lienilp.report", "analyze"),
)
ROWS_IN = "oracle.echelon.rows_in"
BYTES_IN = "oracle.echelon.bytes_in_computed"


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.analysis: str | None = None
        self.spans: list[tuple] = []   # (id, name, start, end, parent,
                                       #  analysis, self seconds)
        self.counts = {ROWS_IN: 0, BYTES_IN: 0}
        self._stack: list[list] = []   # [span id, seconds in children]
        self._next_id = 0

    def call(self, name: str, fn, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += end - start
            self.spans.append((span_id, name, start - self.origin,
                               end - self.origin, parent, self.analysis,
                               end - start - frame[1]))

    def count_rows(self, vectors, width):
        """Count the rows handed to the echelon kernel; returns the
        vectors in a form from_vectors accepts unchanged."""
        if not isinstance(vectors, np.ndarray):
            vectors = list(vectors)
        mat = np.atleast_2d(np.asarray(vectors))
        rows = mat.shape[0] if mat.size else 0
        cols = width if width is not None else mat.shape[-1]
        self.counts[ROWS_IN] += rows
        self.counts[BYTES_IN] += rows * cols * 8
        return vectors

    def per_layer(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for prefix, _, _ in LAYER_FUNCTIONS:
            out[f"{prefix}.calls"] = 0
            out[f"{prefix}.self_s"] = 0.0
        for span in self.spans:
            out[f"{span[1]}.calls"] += 1
            out[f"{span[1]}.self_s"] += span[6]
        out.update(self.counts)
        return out

    def span_records(self):
        for span_id, name, start, end, parent, analysis, _ in self.spans:
            yield {"id": span_id, "name": name, "start_s": start,
                   "end_s": end, "parent": parent, "analysis": analysis}


def _wrap(tracer: Tracer, name: str, fn):
    if name == "oracle.echelon.from_vectors":
        @functools.wraps(fn)
        def counted(cls, vectors, p, width=None):
            vectors = tracer.count_rows(vectors, width)
            return tracer.call(name, fn, (cls, vectors, p, width), {})
        return counted

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)
    return traced


@contextmanager
def installed(tracer: Tracer):
    """Wrap every layer function for the duration of the block."""
    undo: list[tuple] = []
    modules = [m for n, m in sys.modules.items()
               if n == "lienilp" or n.startswith("lienilp.")]
    try:
        for name, modname, attr in LAYER_FUNCTIONS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(_wrap(tracer, name, raw.__func__))
                else:
                    new = _wrap(tracer, name, raw)
                undo.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            orig = getattr(owner, attr)
            new = _wrap(tracer, name, orig)
            for mod in modules:
                if mod.__dict__.get(attr) is orig:
                    undo.append((mod, attr, orig))
                    setattr(mod, attr, new)
        yield tracer
    finally:
        for obj, attr, old in reversed(undo):
            setattr(obj, attr, old)
