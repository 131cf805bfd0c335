"""Per-layer spans for traced benchmark passes.

`Tracer.install()` wraps the public functions of each sobrecon module (and
the methods of its value classes) so that every call records a span: name,
start, end and the span that was open when it began.  Module functions are
replaced in every sobrecon namespace that holds them, because modules
import each other's functions by name (`reconstruct` lives in
`expansion`, `projection` and `verify`).  Spans stay in memory;
`take_pass()` folds the spans of one pass into per-layer totals, and the
caller writes the raw spans out when the benchmark ends.

Self time is a span's duration minus the durations of its child spans.
Inclusive time counts only the outermost span of each name, so a function
that calls itself is not counted twice.
"""

from __future__ import annotations

import importlib
import itertools
import math
import statistics
import sys
import threading
import time
from collections import defaultdict

import numpy as np


def _grid_size(axes) -> int:
    return math.prod(len(x) for x in axes)


def _lattice_size(order) -> int:
    return math.prod(int(o) + 1 for o in np.atleast_1d(order))


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _coeff_elems(args, kwargs, out, active):
    return out.coeffs.size


# Error-norm entry points: `quadrature.nodes` counts grid nodes built inside them.
ERROR_NORMS = ("bench.error_norms", "quadrature.sobolev_error",
               "quadrature.l2_error", "quadrature.dc_error")


def _norm_nodes(args, kwargs, out, active):
    if any(active.get(name) for name in ERROR_NORMS):
        return _grid_size(out[0])
    return 0


# (span name, defining module, function, count name, count(args, kwargs,
# result, names of the open spans -> nesting depth))
FUNCTIONS = (
    ("quadrature.gauss_rule", "numpy.polynomial.legendre", "leggauss", None, None),
    ("quadrature.axis_quadrature", "sobrecon.quadrature", "axis_quadrature", None, None),
    ("quadrature.rule_for", "sobrecon.quadrature", "rule_for", None, None),
    ("quadrature.grid_quadrature", "sobrecon.quadrature", "grid_quadrature",
     "quadrature.nodes", _norm_nodes),
    ("quadrature.sobolev_error", "sobrecon.quadrature", "sobolev_error", None, None),
    ("quadrature.l2_error", "sobrecon.quadrature", "l2_error", None, None),
    ("quadrature.dc_error", "sobrecon.quadrature", "dc_error", None, None),
    ("bench.error_norms", "sobrecon.bench", "error_norms", None, None),
    ("bench.run_sweep", "sobrecon.bench", "run_sweep", None, None),
    ("legseries.legendre_values", "sobrecon.legseries", "legendre_values",
     "legseries.basis_values", lambda args, kwargs, out, active: out.size),
    ("projection.legendre", "sobrecon.projection", "sobolev_project_legendre",
     "projection.faces",
     lambda args, kwargs, out, active: _lattice_size(_arg(args, kwargs, 1, "gamma"))),
    ("projection.step", "sobrecon.projection", "sobolev_project_step",
     "projection.faces",
     lambda args, kwargs, out, active: _lattice_size(_arg(args, kwargs, 1, "gamma"))),
    ("expansion.reconstruct", "sobrecon.expansion", "reconstruct",
     "expansion.terms",
     lambda args, kwargs, out, active: _lattice_size(_arg(args, kwargs, 0, "bundle").order)),
    ("expansion.extract", "sobrecon.expansion", "extract_traces_poly", None, None),
    ("expansion.fund_int_pair", "sobrecon.expansion", "fund_int_pair", None, None),
    ("piecewise.coeff_distance", "sobrecon.piecewise", "coeff_distance", None, None),
    ("verify.roundtrip", "sobrecon.verify", "roundtrip_suite", None, None),
    ("verify.identities", "sobrecon.verify", "identity_suite", None, None),
    ("verify.optimality", "sobrecon.verify", "optimality_suite", None, None),
    # Face grids of dc_error are built here; counted, not a span of its own.
    (None, "sobrecon.quadrature", "_face_axes", "quadrature.nodes", _norm_nodes),
)

# (span name, defining module, class, method, count name, count function)
METHODS = (
    ("legseries.eval_grid", "sobrecon.legseries", "LegendreSeries", "eval_grid",
     None, None),
    ("piecewise.add", "sobrecon.piecewise", "PiecewisePoly", "__add__",
     "piecewise.coeff_elems", _coeff_elems),
    ("piecewise.mul", "sobrecon.piecewise", "PiecewisePoly", "__mul__",
     "piecewise.coeff_elems", _coeff_elems),
    ("piecewise.antiderivative", "sobrecon.piecewise", "PiecewisePoly",
     "antiderivative", "piecewise.coeff_elems", _coeff_elems),
    ("piecewise.mixed_derivative", "sobrecon.piecewise", "PiecewisePoly",
     "mixed_derivative", "piecewise.coeff_elems", _coeff_elems),
    ("piecewise.restrict", "sobrecon.piecewise", "PiecewisePoly", "restrict",
     "piecewise.coeff_elems", _coeff_elems),
    ("piecewise.integral", "sobrecon.piecewise", "PiecewisePoly", "integral",
     None, None),
    ("piecewise.eval_grid", "sobrecon.piecewise", "PiecewisePoly", "eval_grid",
     None, None),
    ("piecewise.derivative_grid", "sobrecon.piecewise", "PiecewisePoly",
     "derivative_grid", None, None),
    ("analytic.derivative_grid", "sobrecon.analytic", "AnalyticFunction",
     "derivative_grid", "analytic.nodes",
     lambda args, kwargs, out, active: _grid_size(_arg(args, kwargs, 2, "axes"))),
    ("analytic.boundary_trace", "sobrecon.analytic", "AnalyticFunction",
     "boundary_trace", None, None),
)

# run_suite dispatches through this table, not through module names.
CONTAINERS = (("sobrecon.verify", "SUITES"),)

SPAN_NAMES = tuple(s[0] for s in FUNCTIONS if s[0]) + tuple(s[0] for s in METHODS)
COUNT_NAMES = tuple(dict.fromkeys(
    [s[3] for s in FUNCTIONS if s[3]] + [m[4] for m in METHODS if m[4]]))


class Tracer:
    """Records spans around sobrecon calls while installed."""

    def __init__(self):
        self.spans = []  # (id, parent id or 0, name, start, end, child seconds, outermost)
        self.counts = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []  # (namespace, key, original), setattr or item

    def _state(self):
        local = self._local
        try:
            return local.stack, local.active
        except AttributeError:
            local.stack, local.active = [], defaultdict(int)
            return local.stack, local.active

    def wrap(self, name, fn, count_name=None, count=None):
        spans, counts, ids, state = self.spans, self.counts, self._ids, self._state

        if name is None:
            def counted(*args, **kwargs):
                out = fn(*args, **kwargs)
                counts[count_name] += count(args, kwargs, out, state()[1])
                return out
            return counted

        def traced(*args, **kwargs):
            stack, active = state()
            parent = stack[-1] if stack else None
            frame = [next(ids), 0.0]
            depth = active[name]
            active[name] = depth + 1
            stack.append(frame)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                active[name] = depth
                if parent is not None:
                    parent[1] += end - start
                spans.append((frame[0], parent[0] if parent else 0, name,
                               start, end, frame[1], depth == 0))
            if count_name is not None:
                counts[count_name] += count(args, kwargs, out, active)
            return out

        return traced

    def install(self):
        """Wrap every traced function and method; `uninstall` restores them."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [m for k, m in sorted(sys.modules.items())
                      if k == "sobrecon" or k.startswith("sobrecon.")]
        for name, module, attr, count_name, count in FUNCTIONS:
            home = importlib.import_module(module)
            original = getattr(home, attr)
            wrapper = self.wrap(name, original, count_name, count)
            for ns in dict.fromkeys([home] + namespaces):
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patches.append((ns, key, original))
                        setattr(ns, key, wrapper)
            for cmod, cattr in CONTAINERS:
                table = getattr(importlib.import_module(cmod), cattr)
                for key, value in table.items():
                    if value is original:
                        self._patches.append((table, key, original))
                        table[key] = wrapper
        for name, module, cls_name, attr, count_name, count in METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original, count_name, count))

    def uninstall(self):
        for ns, key, original in reversed(self._patches):
            if isinstance(ns, dict):
                ns[key] = original
            else:
                setattr(ns, key, original)
        self._patches.clear()

    def take_pass(self):
        """Per-layer totals of the spans and counts recorded since the last
        call, and those spans; the recorder starts empty again."""
        spans, counts = list(self.spans), dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        layers = {name: {"calls": 0, "self_s": 0.0, "incl_s": 0.0}
                  for name in SPAN_NAMES}
        for _, _, name, start, end, child, outermost in spans:
            entry = layers[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child
            if outermost:
                entry["incl_s"] += end - start
        for name in COUNT_NAMES:
            counts.setdefault(name, 0)
        return layers, counts, spans


GAUSS = "quadrature.gauss_rule"
_SPAN_KEYS = {"calls": "count", "self_s": "s", "incl_s": "s"}


def metric_units() -> dict:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {f"{GAUSS}.calls": "count", f"{GAUSS}.self_s": "s",
             f"{GAUSS}.hit_ratio": "ratio"}
    for name in SPAN_NAMES:
        if name != GAUSS:
            units.update({f"{name}.{key}": unit for key, unit in _SPAN_KEYS.items()})
    units.update({name: "count" for name in COUNT_NAMES})
    units.update({"trace.warm_s": "s", "trace.untraced_warm_s": "s",
                  "trace.overhead": "ratio"})
    return units


def layer_metrics(cold, warm) -> dict:
    """Per-layer metrics from `take_pass` results.  Gauss rules are built
    only in the cold pass (warm passes reuse the cached rules), so their
    metrics come from it; every other metric is the median over the warm
    passes.  The `trace.*` metrics are the caller's."""
    layers = cold[0]
    builds = layers[GAUSS]["calls"]
    lookups = layers["quadrature.axis_quadrature"]["calls"]
    out = {f"{GAUSS}.calls": builds, f"{GAUSS}.self_s": layers[GAUSS]["self_s"],
           f"{GAUSS}.hit_ratio": 1.0 - builds / max(lookups, 1)}
    for name in SPAN_NAMES:
        if name != GAUSS:
            for key in _SPAN_KEYS:
                out[f"{name}.{key}"] = statistics.median(p[0][name][key] for p in warm)
    for name in COUNT_NAMES:
        out[name] = statistics.median(p[1][name] for p in warm)
    return out
