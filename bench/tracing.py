"""Per-layer tracing by wrapping igac's public functions from outside.

``Tracer.install`` rebinds each function named in ``TARGETS`` in every igac
module that holds it, so calls between modules pass through the wrapper.
Each wrapped call is a span with a name, start, end, parent span and the
op it belongs to.  Spans are kept in memory and written when the run ends.
The innermost functions (Christoffel symbols, Riemann tensor, metric
evaluation) run millions of times in one trajectories run, so they are
counted and timed in aggregate instead of stored one by one.

A span's self time is its duration minus the time of the wrapped calls
inside it; a layer's self time is the sum over its functions.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

LAYERS = ("spinchain", "dynamics", "geometry", "ige", "manifold", "families",
          "cli", "svgplot")

# (layer, module, attribute, hot).  Hot functions are aggregated, not stored.
TARGETS = [
    ("spinchain", "igac.spinchain", "analyze_chain", False),
    ("spinchain", "igac.spinchain", "build_hamiltonian", False),
    ("spinchain", "igac.spinchain", "diagonalize", False),
    ("spinchain", "igac.spinchain", "unfold", False),
    ("spinchain", "igac.spinchain", "lsd_verdict", False),
    ("spinchain", "igac.spinchain", "spacing_histogram", False),
    ("dynamics", "igac.dynamics", "integrate_geodesic", False),
    ("dynamics", "igac.dynamics", "integrate_jacobi", False),
    ("dynamics", "igac.dynamics", "estimate_lambda_j", False),
    ("geometry", "igac.geometry", "christoffel", True),
    ("geometry", "igac.geometry", "riemann", True),
    ("geometry", "igac.geometry", "curvature", False),
    ("geometry", "igac.geometry", "scalar_sign_classification", False),
    ("ige", "igac.ige", "volume_series", False),
    ("ige", "igac.ige", "fit_growth", False),
    ("manifold", "igac.manifold", "fisher_metric_quadrature", False),
    ("manifold", "igac.manifold", "fisher_metric_closed_form", False),
    ("manifold", "igac.manifold:ManifoldModel", "metric", True),
    ("families", "igac.families", "sample", False),
    ("families", "igac.families", "cdf", False),
    ("cli", "igac.cli", "main", False),
    ("cli", "igac.cli", "_write_text", False),
    ("svgplot", "igac.svgplot", "line_plot", False),
    ("svgplot", "igac.svgplot", "histogram_plot", False),
]


def _eig_flops(n: int, is_complex: bool) -> float:
    """Computed cost of an eigenvalues-only dense solve: the Householder
    tridiagonal reduction, 4/3 n^3 real flops, four times that for complex
    (the tridiagonal eigenvalue step is O(n^2) and left out)."""
    return (16.0 if is_complex else 4.0) / 3.0 * float(n) ** 3


class Tracer:
    """Collects spans and per-function aggregates for one traced pass."""

    def __init__(self):
        self.spans: list[tuple] = []   # (id, name, start, end, parent, op)
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.layer_of: dict[str, str] = {}
        self.depth: dict[str, int] = defaultdict(int)
        self.stack: list[list] = []    # open frames: [name, child_s, span_id]
        self.op = None
        self._ids = itertools.count()
        self.rhs_calls = 0
        self.write_bytes = 0
        self.nodes_max = 0
        self.eig_dims: list[tuple[int, bool, int]] = []  # (n, complex, itemsize)
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, hot: bool, observe=None):
        stack, depth = self.stack, self.depth

        def wrapper(*args, **kwargs):
            parent = next((f[2] for f in reversed(stack) if f[2] is not None), None)
            span_id = None if hot else next(self._ids)
            frame = [name, 0.0, span_id]
            stack.append(frame)
            depth[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                depth[name] -= 1
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                self.calls[name] += 1
                self.self_time[name] += dur - frame[1]
                if depth[name] == 0:
                    self.inclusive[name] += dur
                if not hot:
                    self.spans.append((span_id, name, start, end, parent, self.op))
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def op_span(self, op_index: int, kind: str):
        """Root span of one op; the spans inside it carry its index."""
        self.op = op_index
        name = f"op.{kind}"
        span_id = next(self._ids)
        frame = [name, 0.0, span_id]
        self.stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self.stack.pop()
            self.spans.append((span_id, name, start, end, None, op_index))
            self.op = None

    def _observe_diagonalize(self, args, result):
        h = args[0]
        self.eig_dims.append((int(h.shape[0]), bool(h.dtype.kind == "c"),
                              int(h.dtype.itemsize)))

    def _observe_quadrature(self, args, result):
        self.nodes_max = max(self.nodes_max, int(result.nodes))

    def _observe_write(self, args, result):
        self.write_bytes += len(str(args[1]).encode("utf-8"))

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        observers = {"diagonalize": self._observe_diagonalize,
                     "fisher_metric_quadrature": self._observe_quadrature,
                     "_write_text": self._observe_write}
        modules = [m for n, m in list(sys.modules.items())
                   if n == "igac" or n.startswith("igac.")]
        wrapped = {}
        for layer, where, attr, hot in TARGETS:
            module_name, _, cls_name = where.partition(":")
            owner = importlib.import_module(module_name)
            if cls_name:
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            name = f"{layer}.{attr}"
            self.layer_of[name] = layer
            new = self._wrap(name, original, hot, observers.get(attr))
            wrapped[attr] = new
            holders = [owner] if cls_name else [
                m for m in modules if vars(m).get(attr) is original]
            for holder in holders:
                self._restore.append((holder, attr, original))
                setattr(holder, attr, new)
        # The name dynamics bound at import is the geodesic right-hand side's
        # only call into geometry: counting it counts RHS evaluations.
        dynamics = importlib.import_module("igac.dynamics")
        geometry_christoffel = wrapped["christoffel"]

        def rhs_christoffel(*args, **kwargs):
            self.rhs_calls += 1
            return geometry_christoffel(*args, **kwargs)

        self._restore.append((dynamics, "christoffel", dynamics.christoffel))
        dynamics.christoffel = rhs_christoffel

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    # -- reporting ---------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        inc, calls = self.inclusive, self.calls

        def total(*names):
            return sum(inc[n] for n in names)

        layer_self = defaultdict(float)
        for name, value in self.self_time.items():
            layer_self[self.layer_of[name]] += value
        dyn_s = total("dynamics.integrate_geodesic", "dynamics.integrate_jacobi")
        eig_s = inc["spinchain.diagonalize"]
        eig_flop = sum(_eig_flops(n, c) for n, c, _ in self.eig_dims)
        max_dim = max((n for n, _, _ in self.eig_dims), default=0)
        matrix_mb = max((n * n * size / 1e6 for n, _, size in self.eig_dims),
                        default=0.0)
        out = {
            "spinchain.build_s": (inc["spinchain.build_hamiltonian"], "s"),
            "spinchain.diagonalize_s": (eig_s, "s"),
            "spinchain.unfold_s": (inc["spinchain.unfold"], "s"),
            "spinchain.verdict_s": (inc["spinchain.lsd_verdict"], "s"),
            "spinchain.max_dim": (max_dim, "count"),
            "spinchain.matrix_mb": (matrix_mb, "MB"),
            "spinchain.eig_gflop": (eig_flop / 1e9, "GFLOP"),
            "spinchain.eig_gflop_per_s": (eig_flop / 1e9 / eig_s if eig_s else 0.0,
                                          "GFLOP/s"),
            "dynamics.geodesic_s": (inc["dynamics.integrate_geodesic"], "s"),
            "dynamics.jacobi_s": (inc["dynamics.integrate_jacobi"], "s"),
            "dynamics.rhs_calls": (self.rhs_calls, "count"),
            "dynamics.us_per_rhs": (1e6 * dyn_s / self.rhs_calls
                                    if self.rhs_calls else 0.0, "us"),
            "geometry.christoffel_s": (inc["geometry.christoffel"], "s"),
            "geometry.christoffel_calls": (calls["geometry.christoffel"], "count"),
            "geometry.riemann_s": (inc["geometry.riemann"], "s"),
            "geometry.riemann_calls": (calls["geometry.riemann"], "count"),
            "geometry.curvature_s": (inc["geometry.curvature"], "s"),
            "ige.volume_series_s": (inc["ige.volume_series"], "s"),
            "ige.fit_growth_s": (inc["ige.fit_growth"], "s"),
            "manifold.quadrature_s": (inc["manifold.fisher_metric_quadrature"], "s"),
            "manifold.quadrature_calls": (calls["manifold.fisher_metric_quadrature"],
                                          "count"),
            "manifold.quadrature_nodes_max": (self.nodes_max, "count"),
            "manifold.closed_form_s": (inc["manifold.fisher_metric_closed_form"], "s"),
            "manifold.metric_calls": (calls["manifold.metric"], "count"),
            "families.sample_s": (inc["families.sample"], "s"),
            "families.cdf_s": (inc["families.cdf"], "s"),
            "cli.write_s": (inc["cli._write_text"], "s"),
            "cli.write_bytes": (self.write_bytes, "bytes"),
            "svgplot.render_s": (total("svgplot.line_plot",
                                       "svgplot.histogram_plot"), "s"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (layer_self[layer], "s")
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "fields": ["id", "name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "aggregates": {name: {"calls": self.calls[name],
                                  "inclusive_s": self.inclusive[name],
                                  "self_s": self.self_time[name]}
                           for name in sorted(self.calls)},
        }
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
