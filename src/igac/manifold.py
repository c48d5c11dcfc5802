"""Riemannian statistical manifolds with the Fisher-Rao metric.

A ``ManifoldModel`` is a coordinate box plus a metric field.  A model
built from a probability family gets its ``Chart`` from the atomic
records in ``families.KINDS``: the constant frame metric, connection and
curvature of each factor, placed block-diagonally (factors are
independent).  The chart owns the frame connection and curvature; its
model carries the chart metric alone.  The closed-form metric,
Christoffel symbols and Riemann tensor in theta coordinates are derived
from the chart, so the Fisher metric checked against quadrature of the
density is built from the same data that drives the geodesics.

The two prebuilt manifolds are the 2-d exponential x exponential model
(metric diag(1/mu_A^2, 1/mu_B^2), flat) and the 3-d Wigner-Dyson x
Gaussian model (metric diag(4/mu_A^2, 1/sigma_B^2, 2/sigma_B^2), whose
Gaussian block has constant sectional curvature -1/2).

The chart is where geodesics are integrated: scale coordinates become
their logarithms, which maps every prebuilt manifold onto all of R^dim,
and vectors are carried in a frame in which the metric, connection and
curvature are constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import Callable

import numpy as np

from . import families as fam_mod
from .errors import (AccuracyError, DomainError, ShapeError,
                     UnsupportedFamilyError)
from .families import AtomicKind, FamilySpec, check_params, factor_layout
from .quadrature import support_rule


@dataclass(frozen=True)
class ManifoldModel:
    """A coordinate domain with a metric field and optional closed forms.

    ``metric_fn`` maps a coordinate vector to a symmetric positive
    definite (dim x dim) matrix, and a (k, dim) stack of points to the
    (k, dim, dim) stack of their metrics; ``metric`` takes either, so that
    finite differences evaluate a whole stencil in one call.
    ``christoffel_fn``/``riemann_fn`` are optional closed forms in the
    same coordinates: ``geometry`` uses them where given and differences
    the metric where not, so they are also the oracles of that pipeline;
    ``sample_box`` is a finite per-coordinate box used when drawing random
    in-domain test points; ``chart`` is the chart geodesics are integrated
    in and volumes are measured in.  A coordinate whose domain is (0, inf)
    is a scale coordinate, which finite differences step relative to its
    size; the domain alone says which coordinates those are.
    """

    name: str
    dim: int
    coord_names: tuple[str, ...]
    domain: tuple[tuple[float, float], ...]
    metric_fn: Callable[[np.ndarray], np.ndarray]
    christoffel_fn: Callable[[np.ndarray], np.ndarray] | None = None
    riemann_fn: Callable[[np.ndarray], np.ndarray] | None = None
    sample_box: tuple[tuple[float, float], ...] = field(default=())
    chart: "Chart | None" = None

    @cached_property
    def _bounds(self) -> tuple[np.ndarray, np.ndarray]:
        box = np.asarray(self.domain, dtype=float).reshape(self.dim, 2)
        return box[:, 0], box[:, 1]

    @cached_property
    def _unbounded(self) -> bool:
        """Whether the domain is all of R^dim, inside which is finite."""
        lo, hi = self._bounds
        return bool(np.all(lo == -math.inf) and np.all(hi == math.inf))

    @cached_property
    def _step_scale(self) -> np.ndarray:
        """1.0 on each scale coordinate (domain (0, inf)), 0.0 elsewhere."""
        lo, hi = self._bounds
        return np.where((lo == 0.0) & (hi == math.inf), 1.0, 0.0)

    def _inside(self, arr: np.ndarray) -> np.ndarray:
        # Open intervals with infinite ends also reject inf and NaN.
        lo, hi = self._bounds
        return (lo < arr) & (arr < hi)

    def check_point(self, theta) -> np.ndarray:
        """Validate a coordinate vector, naming the offending coordinate."""
        arr = np.asarray(theta, dtype=float).reshape(-1)
        if arr.size != self.dim:
            raise ShapeError(
                f"model {self.name!r} has dim {self.dim}, got point of size {arr.size}")
        inside = self._inside(arr)
        if np.count_nonzero(inside) < self.dim:
            i = int(np.argmin(inside))
            lo, hi = self.domain[i]
            raise DomainError(
                f"coordinate {self.coord_names[i]}={float(arr[i])!r} outside open "
                f"interval ({lo}, {hi}) of model {self.name!r}",
                parameter=self.coord_names[i])
        return arr

    def contains(self, theta) -> bool:
        """Whether a point, or every row of a stack of points, is inside."""
        arr = np.asarray(theta, dtype=float)
        if self._unbounded and arr.shape[-1:] == (self.dim,):
            return bool(np.isfinite(arr).all())
        return (arr.shape[-1:] == (self.dim,)
                and np.count_nonzero(self._inside(arr)) == arr.size)

    def metric(self, theta) -> np.ndarray:
        """The metric at a point, or at each row of a (k, dim) stack of points."""
        arr = np.asarray(theta, dtype=float)
        g = np.asarray(self.metric_fn(arr), dtype=float)
        expected = (*arr.shape[:-1], self.dim, self.dim)
        if g.shape != expected:
            raise ShapeError(
                f"metric of model {self.name!r} returned shape {g.shape} for "
                f"points of shape {arr.shape}, expected {expected}")
        return g

    def random_points(self, count: int, seed: int) -> np.ndarray:
        """Uniform points in the model's finite sampling box."""
        rng = np.random.Generator(np.random.PCG64(seed))
        box = np.asarray(self.sample_box, dtype=float)
        return box[:, 0] + rng.random((count, self.dim)) * (box[:, 1] - box[:, 0])


@dataclass(frozen=True, eq=False)
class Chart:
    """The chart and frame in which a model's geodesics are integrated.

    Chart coordinates are x = log(theta) on the ``log_scale`` coordinates
    and x = theta on the others.  Vectors are carried as components w in
    the frame e_a = exp(rates[a] . x) d/dx^a, so dx/dtau = lengths(x) * w
    and d(theta)/dtau = theta_lengths(x) * w, and their g-norms use the
    constant diagonal ``frame_metric``.  ``omega`` (nabla_{e_b} e_c =
    omega^a_bc e_a) and ``curvature`` (Rhat^m_nrs) are the frame
    connection and curvature: constant and read-only.  The closed-form
    right-hand sides read their nonzero entries once per integration, as
    Python scalars, and the theta-coordinate forms are derived from them
    when the model is built.  ``model`` is the manifold in chart
    coordinates with the chart metric alone, which ``geometry``
    differentiates; ``frame_tensors`` turns those coordinate tensors into
    frame components.  The coordinate maps, ``lengths``,
    ``theta_lengths`` and ``norms`` take one point or a stack of points,
    one per row.
    """

    model: ManifoldModel
    log_scale: np.ndarray
    rates: np.ndarray
    frame_metric: np.ndarray
    omega: np.ndarray
    curvature: np.ndarray

    def __post_init__(self):
        # The theta forms are derived from these arrays once, and every
        # closed-form right-hand side reads them at its start: keep them fixed.
        self.omega.flags.writeable = self.curvature.flags.writeable = False

    def to_chart(self, theta) -> np.ndarray:
        x = np.array(theta, dtype=float)
        x[..., self.log_scale] = np.log(x[..., self.log_scale])
        return x

    def from_chart(self, x) -> np.ndarray:
        theta = np.array(x, dtype=float)
        theta[..., self.log_scale] = np.exp(theta[..., self.log_scale])
        return theta

    def lengths(self, x) -> np.ndarray:
        """Chart-coordinate lengths of the frame vectors."""
        return np.exp(x @ self.rates.T)

    def theta_lengths(self, x) -> np.ndarray:
        """theta-coordinate lengths of the frame vectors."""
        return np.exp(x @ (self.rates + np.diag(self.log_scale)).T)

    def norms(self, w) -> np.ndarray:
        """g-norms of frame components, free of overflow in the squares."""
        return np.hypot.reduce(w * np.sqrt(self.frame_metric), axis=-1)

    def frame_tensors(self, x, gam: np.ndarray, riem: np.ndarray,
                      lengths: np.ndarray | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
        """Frame components of a connection and of a curvature tensor given
        in chart coordinates, with nabla_{e_b} e_c = omega^a_bc e_a.
        ``lengths`` are the frame lengths at x, when the caller has them
        already."""
        e = self.lengths(x) if lengths is None else lengths
        pairs = e[:, None] * e  # e_b e_c, and e_n e_r
        omega = gam * (pairs / e[:, None, None])
        # e_c's length varies along e_b: + delta^a_c e_b d_b log|e_c|.
        omega.flat[self._a_equals_c] += (self.rates * e).ravel()
        return omega, riem * (pairs[:, :, None] * e / e[:, None, None, None])

    @cached_property
    def _a_equals_c(self) -> np.ndarray:
        """Flat indices of the entries [a, b, a], a and b row-major."""
        a, b = np.divmod(np.arange(self.rates.size), len(self.rates))
        return (a * len(self.rates) + b) * len(self.rates) + a


# ---------------------------------------------------------------------------
# Fisher metric by quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureSettings:
    """Initial node count and refinement tolerance for the metric integral."""

    nodes: int = 200
    tol: float = 1e-8


@dataclass(frozen=True)
class QuadratureMetric:
    """Quadrature estimate of the metric with its refinement residual."""

    matrix: np.ndarray
    error_estimate: float
    nodes: int


# Node doublings before the refinement gives up.
_MAX_DOUBLINGS = 5
# Complex step of the scores: absolute on a location, relative to |theta|
# on a scale.  No difference is formed, so it is exact to rounding at any
# size this small.
_SCORE_STEP = 1e-20


def _fisher_block_at(rec: AtomicKind, params: np.ndarray,
                     nodes: int) -> np.ndarray:
    x, w = support_rule(rec.support, nodes)
    steps = _SCORE_STEP * np.where(rec.log_scale, np.abs(params), 1.0)
    scores = [rec.log_density(params + dz, 0, x).imag / h
              for dz, h in zip(np.diag(1j * steps), steps)]
    p_x = np.exp(rec.log_density(params, 0, x))
    g = np.empty((rec.n_params, rec.n_params))
    for i in range(rec.n_params):
        for j in range(i, rec.n_params):
            g[i, j] = g[j, i] = np.dot(w, p_x * scores[i] * scores[j])
    return g


def _refined_block(rec: AtomicKind, params: np.ndarray,
                   settings: QuadratureSettings) -> tuple[np.ndarray, float, int]:
    nodes = settings.nodes
    prev = cur = _fisher_block_at(rec, params, nodes)
    for _ in range(_MAX_DOUBLINGS):
        nodes *= 2
        cur = _fisher_block_at(rec, params, nodes)
        diff = float(np.linalg.norm(cur - prev))
        if diff <= settings.tol * max(1.0, float(np.linalg.norm(cur))):
            return cur, diff, nodes
        prev = cur
    raise AccuracyError(
        f"Fisher quadrature for {rec.kind!r} did not converge below "
        f"{settings.tol:g} at {nodes} nodes", estimates=(prev, cur))


def fisher_metric_quadrature(fam: FamilySpec, theta,
                             settings: QuadratureSettings | None = None
                             ) -> QuadratureMetric:
    """Metric from the defining integral E[d_i log p  d_j log p].

    Each score d_i log p is the complex-step derivative
    Im log p(theta + i h e_i) / h, which forms no difference and so is
    exact to rounding; p itself is taken at the real theta.  The
    microvariable integral uses Gauss-Legendre nodes under the support
    transforms, refined by node doubling until successive estimates
    agree.  Factor independence makes composite metrics exactly
    block-diagonal, so each factor's block is integrated separately.
    """
    th = check_params(fam, theta)
    settings = settings or QuadratureSettings()
    g = np.zeros((fam.n_params, fam.n_params))
    errs, max_nodes = [0.0], [settings.nodes]
    for rec, o in factor_layout(fam):
        k = rec.n_params
        block, err, nodes = _refined_block(rec, th[o:o + k], settings)
        g[o:o + k, o:o + k] = block
        errs.append(err)
        max_nodes.append(nodes)
    return QuadratureMetric(g, max(errs), max(max_nodes))


# ---------------------------------------------------------------------------
# Model construction from families
# ---------------------------------------------------------------------------

def _chart_metric(eye_metric: np.ndarray, rates: np.ndarray,
                  x: np.ndarray) -> np.ndarray:
    """diag(frame_metric * exp(-2 rates . x)) at a point or a stack of
    points, given eye_metric = diag(frame_metric) and rates scaled by -2."""
    return np.exp(x @ rates.T)[..., None, :] * eye_metric


def _chart(name: str, coord_names: tuple[str, ...],
           domain: tuple[tuple[float, float], ...], log_scale: np.ndarray,
           rates: np.ndarray, frame_metric: np.ndarray, omega: np.ndarray,
           curvature: np.ndarray) -> Chart:
    """A chart whose model, named ``name``, carries the chart metric alone."""
    chart_model = ManifoldModel(
        name=name,
        dim=len(coord_names),
        coord_names=tuple(f"log {c}" if ls else c
                          for c, ls in zip(coord_names, log_scale)),
        domain=tuple((-math.inf, math.inf) if ls else d
                     for d, ls in zip(domain, log_scale)),
        metric_fn=partial(_chart_metric, np.diag(frame_metric), -2.0 * rates),
    )
    return Chart(chart_model, log_scale, rates, frame_metric, omega, curvature)


def _log_chart(layout, name: str, coord_names: tuple[str, ...],
               domain: tuple[tuple[float, float], ...]) -> Chart:
    """The log-scale chart of a family, assembled from its factor records."""
    dim = len(coord_names)
    rates = np.zeros((dim, dim))
    omega = np.zeros((dim,) * 3)
    curvature = np.zeros((dim,) * 4)
    for rec, o in layout:
        rates[o:o + rec.n_params, o:o + rec.n_params] = rec.frame_rates
        for entries, tensor in ((rec.frame_christoffel, omega),
                                (rec.frame_riemann, curvature)):
            for index, value in entries:
                tensor[tuple(np.add(index, o))] = value
    log_scale = np.array([f for rec, _ in layout for f in rec.log_scale])
    frame_metric = np.array([g for rec, _ in layout for g in rec.frame_metric])
    return _chart(f"{name} (log chart)", coord_names, domain, log_scale, rates,
                  frame_metric, omega, curvature)


def _power_terms(rank: int, index: np.ndarray, coef: np.ndarray,
                 power: np.ndarray, cols: np.ndarray,
                 theta: np.ndarray) -> np.ndarray:
    """Rank-``rank`` tensor, at a point or each row of a stack, that is zero
    but at the flat indices ``index``, where term t adds
    coef[t] / prod_j theta[cols[j]]^power[t, j].  Only these entries are
    computed, each from one power product, so none overflows in an
    intermediate or meets a zero as 0 * inf."""
    *lead, dim = theta.shape
    out = np.zeros((*lead, dim ** rank))
    np.add.at(out, (..., index), coef / np.multiply.reduce(
        theta[..., None, cols] ** power, axis=-1))
    return out.reshape(*lead, *(dim,) * rank)


def _theta_forms(chart: Chart) -> tuple[Callable, Callable, Callable]:
    """The metric, Christoffel symbols and Riemann tensor in theta
    coordinates, from a chart's constant frame forms.

    The frame vector e_a has theta length L_a = prod_k theta_k^S_ak over the
    log-scale coordinates k, with S = rates + diag(log_scale), so

        g_ab = delta_ab frame_metric_a / L_a^2,
        Gamma^a_bc = omega^a_bc L_a / (L_b L_c) - delta^a_c S_cb / theta_b,
        R^m_nrs = Rhat^m_nrs L_m / (L_n L_r L_s),

    with omega and Rhat the frame connection and curvature.  The nonzero
    entries and their exponents are worked out here, once per chart.  L_a^2
    is the product L_a * L_a (each log-scale column twice, exponents 0 or
    1), so the metric is c / theta^2 rounded once, as a vectorised
    theta ** 2 is not always.
    """
    cols = np.flatnonzero(chart.log_scale)
    S = (chart.rates + np.diag(chart.log_scale))[:, cols]
    dim = len(S)
    a, b, c = np.nonzero(chart.omega)
    m, n, r, s = np.nonzero(chart.curvature)
    row, k = np.nonzero(S)  # the delta term sits at (row, cols[k], row)
    gamma_index = np.ravel_multi_index(
        (np.r_[a, row], np.r_[b, cols[k]], np.r_[c, row]), (dim,) * 3)
    return (
        partial(_power_terms, 2, np.arange(dim) * (dim + 1), chart.frame_metric,
                np.hstack([S, S]), np.r_[cols, cols]),
        partial(_power_terms, 3, gamma_index,
                np.r_[chart.omega[a, b, c], -S[row, k]],
                np.concatenate([S[b] + S[c] - S[a], np.eye(len(cols))[k]]),
                cols),
        partial(_power_terms, 4, np.ravel_multi_index((m, n, r, s), (dim,) * 4),
                chart.curvature[m, n, r, s], S[n] + S[r] + S[s] - S[m], cols))


def model_from_family(fam: FamilySpec, name: str | None = None) -> ManifoldModel:
    """Statistical manifold of a family under its Fisher-Rao metric."""
    layout = factor_layout(fam)
    name = name or fam.name
    chart = _log_chart(layout, name, fam.param_names, fam.param_domain)
    return ManifoldModel(
        name, fam.n_params, fam.param_names, fam.param_domain,
        *_theta_forms(chart),  # metric_fn, christoffel_fn, riemann_fn
        sample_box=tuple(b for rec, _ in layout for b in rec.sample_box),
        chart=chart)


# Models are immutable, so the closed-form metric of a family reuses one.
_family_model = lru_cache(maxsize=16)(model_from_family)


def fisher_metric_closed_form(fam: FamilySpec, theta) -> np.ndarray:
    """Exact Fisher-Rao metric, from the family's chart; composites are
    block-diagonal in factors."""
    return _family_model(fam).metric_fn(check_params(fam, theta))


def integrable_model() -> ManifoldModel:
    """2-d manifold of the exponential x exponential composite (flat)."""
    return model_from_family(fam_mod.composite_integrable(), name="integrable")


def chaotic_model() -> ManifoldModel:
    """3-d manifold of the Wigner-Dyson x Gaussian composite (scalar -1)."""
    return model_from_family(fam_mod.composite_chaotic(), name="chaotic")


def gaussian_model() -> ManifoldModel:
    """2-d Gaussian submanifold, constant sectional curvature -1/2."""
    return model_from_family(fam_mod.gaussian_family(), name="gaussian")


def euclidean_model(dim: int = 2) -> ManifoldModel:
    """Flat test model with the identity metric in Cartesian coordinates."""
    names = tuple(f"x{i}" for i in range(dim))
    domain = ((-math.inf, math.inf),) * dim
    # Cartesian coordinates are their own chart and frame.
    chart = _chart("euclidean", names, domain, np.zeros(dim, dtype=bool),
                   np.zeros((dim, dim)), np.ones(dim), np.zeros((dim,) * 3),
                   np.zeros((dim,) * 4))
    return ManifoldModel("euclidean", dim, names, domain, *_theta_forms(chart),
                         sample_box=((-2.0, 2.0),) * dim, chart=chart)


_MODEL_FACTORIES = {
    "integrable": integrable_model,
    "chaotic": chaotic_model,
    "gaussian": gaussian_model,
    "euclidean": euclidean_model,
}

MODEL_NAMES = tuple(_MODEL_FACTORIES)


def model(name: str) -> ManifoldModel:
    """Look up a prebuilt manifold by name."""
    try:
        return _MODEL_FACTORIES[name]()
    except KeyError:
        raise UnsupportedFamilyError(
            f"unknown manifold {name!r}; known: {', '.join(MODEL_NAMES)}") from None
