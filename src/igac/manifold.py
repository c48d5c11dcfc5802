"""Riemannian statistical manifolds with the Fisher-Rao metric.

A ``ManifoldModel`` is a coordinate box plus a metric field.  Models
built from probability families assemble their closed-form metric,
Christoffel symbols, Riemann tensor and per-coordinate factorization of
sqrt(det g) from the atomic records in ``families.KINDS``: factors are
independent, so every tensor is block-diagonal with one block per
factor.

The two prebuilt manifolds are the 2-d exponential x exponential model
(metric diag(1/mu_A^2, 1/mu_B^2), flat) and the 3-d Wigner-Dyson x
Gaussian model (metric diag(4/mu_A^2, 1/sigma_B^2, 2/sigma_B^2), whose
Gaussian block has constant sectional curvature -1/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
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
    definite (dim x dim) matrix.  ``sqrt_g_factors`` holds per-
    coordinate functions whose product is sqrt(det g); the volume
    integrals need the determinant to factorize.  ``christoffel_fn``/
    ``riemann_fn`` are optional exact overrides used as oracles for (and
    fast paths around) the finite-difference pipeline; ``sample_box``
    is a finite per-coordinate box used when drawing random in-domain
    test points.
    """

    name: str
    dim: int
    coord_names: tuple[str, ...]
    domain: tuple[tuple[float, float], ...]
    metric_fn: Callable[[np.ndarray], np.ndarray]
    sqrt_g_factors: tuple[Callable[[np.ndarray], np.ndarray], ...]
    christoffel_fn: Callable[[np.ndarray], np.ndarray] | None = None
    riemann_fn: Callable[[np.ndarray], np.ndarray] | None = None
    sample_box: tuple[tuple[float, float], ...] = field(default=())

    def check_point(self, theta, margin: float = 0.0) -> np.ndarray:
        """Validate a coordinate vector, naming the offending coordinate."""
        arr = np.asarray(theta, dtype=float).reshape(-1)
        if arr.size != self.dim:
            raise ShapeError(
                f"model {self.name!r} has dim {self.dim}, got point of size {arr.size}")
        for i, (val, (lo, hi)) in enumerate(zip(arr, self.domain)):
            if not (lo + margin < val < hi - margin) or not np.isfinite(val):
                raise DomainError(
                    f"coordinate {self.coord_names[i]}={val!r} outside open "
                    f"interval ({lo}, {hi}) of model {self.name!r}",
                    parameter=self.coord_names[i])
        return arr

    def contains(self, theta, margin: float = 0.0) -> bool:
        arr = np.asarray(theta, dtype=float).reshape(-1)
        if arr.size != self.dim:
            return False
        return all(lo + margin < v < hi - margin and np.isfinite(v)
                   for v, (lo, hi) in zip(arr, self.domain))

    def metric(self, theta) -> np.ndarray:
        g = np.asarray(self.metric_fn(np.asarray(theta, dtype=float)), dtype=float)
        if g.shape != (self.dim, self.dim):
            raise ShapeError(
                f"metric of model {self.name!r} returned shape {g.shape}, "
                f"expected {(self.dim, self.dim)}")
        return g

    def random_points(self, count: int, seed: int) -> np.ndarray:
        """Uniform points in the model's finite sampling box."""
        rng = np.random.Generator(np.random.PCG64(seed))
        box = np.asarray(self.sample_box, dtype=float)
        return box[:, 0] + rng.random((count, self.dim)) * (box[:, 1] - box[:, 0])


# ---------------------------------------------------------------------------
# Closed-form Fisher metrics
# ---------------------------------------------------------------------------

def _assemble(blocks, shape: tuple[int, ...], theta: np.ndarray) -> np.ndarray:
    """Zero tensor of ``shape`` with each (writer, offset) block written in."""
    out = np.zeros(shape)
    for write, o in blocks:
        write(theta, o, out)
    return out


def _closed_form(layout, tensor: str, rank: int) -> Callable[[np.ndarray], np.ndarray]:
    """theta -> the rank-``rank`` ``tensor`` assembled from factor records."""
    dim = sum(rec.n_params for rec, _ in layout)
    blocks = tuple((getattr(rec, tensor), o) for rec, o in layout)
    return partial(_assemble, blocks, (dim,) * rank)


def fisher_metric_closed_form(fam: FamilySpec, theta) -> np.ndarray:
    """Exact Fisher-Rao metric; composites are block-diagonal in factors."""
    th = check_params(fam, theta)
    return _closed_form(factor_layout(fam), "metric", 2)(th)


# ---------------------------------------------------------------------------
# Fisher metric by quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureSettings:
    """Node count, refinement and differencing controls for the metric integral."""

    nodes: int = 200
    tol: float = 1e-8
    max_doublings: int = 5
    fd_step: float = 1e-5


@dataclass(frozen=True)
class QuadratureMetric:
    """Quadrature estimate of the metric with its refinement residual."""

    matrix: np.ndarray
    error_estimate: float
    nodes: int


def _param_steps(rec: AtomicKind, params: np.ndarray, rel: float) -> np.ndarray:
    """Central-difference steps, shrunk to stay inside the open domain."""
    steps = rel * np.maximum(1.0, np.abs(params))
    for i, (lo, hi) in enumerate(rec.param_domain):
        room = min(params[i] - lo, hi - params[i])
        if np.isfinite(room):
            steps[i] = min(steps[i], 0.4 * room)
    return steps


def _fisher_block_at(rec: AtomicKind, params: np.ndarray, nodes: int,
                     fd_step: float) -> np.ndarray:
    x, w = support_rule(rec.support, nodes)
    steps = _param_steps(rec, params, fd_step)
    scores = []
    for i in range(rec.n_params):
        hi_p = params.copy()
        lo_p = params.copy()
        hi_p[i] += steps[i]
        lo_p[i] -= steps[i]
        dlog = (rec.log_density(hi_p, 0, x)
                - rec.log_density(lo_p, 0, x)) / (2.0 * steps[i])
        scores.append(dlog)
    p_x = np.exp(rec.log_density(params, 0, x))
    g = np.empty((rec.n_params, rec.n_params))
    for i in range(rec.n_params):
        for j in range(i, rec.n_params):
            g[i, j] = g[j, i] = np.dot(w, p_x * scores[i] * scores[j])
    return g


def _refined_block(rec: AtomicKind, params: np.ndarray,
                   settings: QuadratureSettings) -> tuple[np.ndarray, float, int]:
    nodes = settings.nodes
    prev = cur = _fisher_block_at(rec, params, nodes, settings.fd_step)
    for _ in range(settings.max_doublings):
        nodes *= 2
        cur = _fisher_block_at(rec, params, nodes, settings.fd_step)
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

    Parameter derivatives use central differences; the microvariable
    integral uses Gauss-Legendre nodes under the support transforms,
    refined by node doubling until successive estimates agree.  Factor
    independence makes composite metrics exactly block-diagonal, so
    each factor's block is integrated separately.
    """
    th = check_params(fam, theta)
    settings = settings or QuadratureSettings()
    g = np.zeros((fam.n_params, fam.n_params))
    errs, max_nodes = [0.0], [settings.nodes]
    for rec, o in factor_layout(fam):
        k = rec.n_params
        block, err, nodes = _refined_block(rec, th[o:o + k].copy(), settings)
        g[o:o + k, o:o + k] = block
        errs.append(err)
        max_nodes.append(nodes)
    return QuadratureMetric(g, max(errs), max(max_nodes))


def line_element(model: ManifoldModel, theta, dtheta) -> float:
    """Squared length dtheta . g(theta) . dtheta of a displacement."""
    th = model.check_point(theta)
    d = np.asarray(dtheta, dtype=float).reshape(-1)
    if d.size != model.dim:
        raise ShapeError(
            f"displacement of size {d.size} does not match dim {model.dim}")
    g = model.metric(th)
    return float(d @ g @ d)


# ---------------------------------------------------------------------------
# Model construction from families
# ---------------------------------------------------------------------------

def model_from_family(fam: FamilySpec, name: str | None = None) -> ManifoldModel:
    """Statistical manifold of a family under its Fisher-Rao metric."""
    layout = factor_layout(fam)
    return ManifoldModel(
        name=name or fam.name,
        dim=fam.n_params,
        coord_names=fam.param_names,
        domain=fam.param_domain,
        metric_fn=_closed_form(layout, "metric", 2),
        sqrt_g_factors=tuple(f for rec, _ in layout for f in rec.sqrt_g),
        christoffel_fn=_closed_form(layout, "christoffel", 3),
        riemann_fn=_closed_form(layout, "riemann", 4),
        sample_box=tuple(b for rec, _ in layout for b in rec.sample_box),
    )


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
    eye = np.eye(dim)
    return ManifoldModel(
        name="euclidean",
        dim=dim,
        coord_names=tuple(f"x{i}" for i in range(dim)),
        domain=((-math.inf, math.inf),) * dim,
        metric_fn=lambda theta: eye.copy(),
        sqrt_g_factors=tuple(
            (lambda v: np.ones_like(np.asarray(v, dtype=float)))
            for _ in range(dim)),
        christoffel_fn=lambda theta: np.zeros((dim, dim, dim)),
        riemann_fn=lambda theta: np.zeros((dim, dim, dim, dim)),
        sample_box=tuple((-2.0, 2.0) for _ in range(dim)),
    )


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
