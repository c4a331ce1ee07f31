"""Span tracing installed from outside the package, for the traced run only.

Wrappers are put on module attributes (and on the ``MetricContext``
constructor and curvature properties) of an already imported ``tensoralg``.
Each call records a span ``[name, start, end, parent, job]``; spans stay in
memory and are aggregated, and written out, when a pass ends.  A name
imported from ``scalars`` into another module (``from .scalars import
is_zero``) is rebound there too, so every call path is covered.
"""

from __future__ import annotations

import functools
import json
import time

import sympy as sp

from tensoralg import (algebras, catalog, cli, curvature, indicial,
                       metricfile, petrov, scalars)
import tensoralg

MODULES = (tensoralg, scalars, curvature, petrov, catalog, metricfile, cli,
           indicial, algebras)

FUNCTIONS = {
    scalars: ("parse", "render", "diff", "ratsimp", "trigsimp", "is_zero"),
    curvature: ("setup_frame",),
    petrov: ("np_tetrad", "weyl_scalars", "classify", "petrov_of_metric"),
    catalog: ("load",),
    metricfile: ("parse_metric_file",),
    cli: ("main",),
    indicial: ("canform", "contract", "covdiff", "liediff",
               "expand_christoffels", "wedge", "extdiff"),
    algebras: ("atensimp",),
}

PROPERTIES = ("ug", "christoffel1", "christoffel2", "riemann_lowered",
              "riemann", "ricci", "ricci_scalar", "einstein", "weyl",
              "frame_contravariant", "rotation_coeffs", "riemann_frame",
              "ricci_frame")

# Span names as reported: setup_frame and the constructor are one layer.
_RENAME = {"curvature.setup_frame": "curvature.construct"}


class Tracer:
    """Span recorder; ``job`` is set by the runner around each timed call."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.job = None
        self.zero_lookups = {"hit": 0, "miss": 0}
        self.terms_out = 0

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, time.thread_time(), None,
                          stack[-1] if stack else -1, self.job])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.thread_time()
        return traced

    def install(self):
        for module, names in FUNCTIONS.items():
            short = module.__name__.rsplit(".", 1)[-1]
            for attr in names:
                original = getattr(module, attr)
                name = f"{short}.{attr}"
                wrapped = self.wrap(_RENAME.get(name, name), original)
                if name == "scalars.is_zero":
                    wrapped = self._count_zero_lookups(wrapped)
                elif name == "algebras.atensimp":
                    wrapped = self._count_terms(wrapped)
                for mod in MODULES:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
        ctx_class = curvature.MetricContext
        ctx_class.__init__ = self.wrap("curvature.construct",
                                       ctx_class.__init__)
        for attr in PROPERTIES:
            prop = ctx_class.__dict__[attr]
            setattr(ctx_class, attr, property(
                self.wrap(f"curvature.{attr}", prop.fget), doc=prop.__doc__))

    def _count_zero_lookups(self, fn):
        def counted(e):
            if self.job is not None:
                e = sp.sympify(e)
                if not e.is_Number:
                    hit = e in scalars._zero_cache
                    self.zero_lookups["hit" if hit else "miss"] += 1
            return fn(e)
        return counted

    def _count_terms(self, fn):
        def counted(config, element):
            out = fn(config, element)
            if self.job is not None:
                self.terms_out += len(out.terms)
            return out
        return counted

    def take(self, start=0):
        """Spans recorded from ``start`` on, with closed end times and parent
        indices counted from ``start``."""
        now = time.thread_time()
        return [[name, begin, now if end is None else end,
                 parent - start if parent >= start else -1, job]
                for name, begin, end, parent, job in self.spans[start:]]

    def counters(self):
        return {"zero_hit": self.zero_lookups["hit"],
                "zero_miss": self.zero_lookups["miss"],
                "terms_out": self.terms_out}

    def absorb(self, spans, counters):
        """Append spans and counters sent back by a forked job."""
        offset = len(self.spans)
        for name, start, end, parent, job in spans:
            self.spans.append([name, start, end,
                               parent + offset if parent >= 0 else -1, job])
        self.zero_lookups["hit"] += counters["zero_hit"]
        self.zero_lookups["miss"] += counters["zero_miss"]
        self.terms_out += counters["terms_out"]


def aggregate(spans):
    """Per span name: calls, total and self seconds; plus the number of
    ``is_zero`` calls with a direct ``trigsimp`` child."""
    child = [0.0] * len(spans)
    symbolic = set()
    for span in spans:
        name, start, end, parent, _ = span
        if parent >= 0:
            child[parent] += end - start
            if name == "scalars.trigsimp" \
                    and spans[parent][0] == "scalars.is_zero":
                symbolic.add(parent)
    out = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child[i]
    return out, len(symbolic)


def write_spans(path, spans):
    with open(path, "w", encoding="utf-8") as handle:
        for name, start, end, parent, job in spans:
            handle.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")
