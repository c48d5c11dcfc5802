"""Connection and curvature of a manifold by differentiating its metric.

A model that carries closed-form Christoffel/Riemann callables is
evaluated with them; any other, such as every chart model, by central
differences of its metric field, so finite differences check a model's
closed forms on a copy without them.  The curvature convention is
(R(e_r, e_s) e_n)^m = R^m_{nrs}, under which the geodesic-deviation term
reads R^m_{nrs} v^n J^r v^s and negative sectional curvature means
exponential spreading of nearby geodesics.

Finite differences work on one point at a time.  The metric and its
partial derivatives come from one ``ManifoldModel.metric`` call on the
point and its 2*dim shifts, the connection from those and one inverse,
and the curvature from central differences of the connection at the
shifted points.  Steps are fd_step * max(1, |theta|) on scale
coordinates, domain (0, inf), and plain fd_step on the others; a point
is differenced only where every point its metric is taken at lies
inside the domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InversionError
from .manifold import ManifoldModel

DEFAULT_FD_STEP = 1e-4


def _stencil(model: ManifoldModel, th: np.ndarray,
             fd_step: float) -> tuple[np.ndarray, np.ndarray]:
    """The point th, then th + h_r e_r and th - h_r e_r for r = 0..dim-1,
    one per row, and the steps h: fd_step * max(1, |theta|) on a scale
    coordinate (domain (0, inf)), plain fd_step on any other, a location
    or a log-scale chart coordinate."""
    h = fd_step * np.maximum(1.0, np.abs(th) * model._step_scale)
    shifts = np.diag(h)
    return np.concatenate([th[None, :], th + shifts, th - shifts]), h


def _inverse(model: ManifoldModel, g: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """The inverse of the metric ``g`` at ``theta``."""
    try:
        return np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:
        raise InversionError(
            f"metric of model {model.name!r} is singular at {theta.tolist()}"
        ) from exc


def _metric_partials(model: ManifoldModel, th: np.ndarray, fd_step: float,
                     origin: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g and dg[l, m, n] = d g_mn / d theta_l at th by central differences,
    from one metric call on th's stencil; errors name ``origin``, th or the
    centre of the Riemann stencil that th is a point of."""
    points, h = _stencil(model, th, fd_step)
    if not model.contains(points):
        raise DomainError(
            f"point {origin.tolist()} is closer than the differencing step "
            f"to the boundary of model {model.name!r}")
    g = model.metric(points)
    dim = len(h)
    return g[0], (g[1:dim + 1] - g[dim + 1:]) / (2.0 * h)[:, None, None]


def _fd_christoffel(model: ManifoldModel, th: np.ndarray, fd_step: float,
                    origin: np.ndarray) -> np.ndarray:
    """Gamma[a, b, c] at th by central differences; errors name ``origin``."""
    g, dg = _metric_partials(model, th, fd_step, origin)
    dim = len(th)
    # Gamma^a_bc = 1/2 g^{al} (d_b g_lc + d_c g_lb - d_l g_bc)
    bracket = dg.transpose(1, 0, 2) + dg.transpose(1, 2, 0) - dg
    ginv = _inverse(model, g, origin)
    return 0.5 * (ginv @ bracket.reshape(dim, dim * dim)).reshape(dg.shape)


def _fd_riemann(model: ManifoldModel, th: np.ndarray,
                fd_step: float) -> tuple[np.ndarray, np.ndarray]:
    """Gamma and R[m, n, r, s] = R^m_{nrs} at th: R from the central
    differences of Gamma at th +/- h_r e_r, plus its quadratic terms."""
    points, h = _stencil(model, th, fd_step)
    for p in points[1:]:  # names a coordinate outside the domain, if any
        model.check_point(p)
    gams = np.array([_fd_christoffel(model, p, fd_step, th) for p in points])
    dim = len(h)
    gam = gams[0]
    # dG[r, a, b, c] = d Gamma^a_{bc} / d theta_r
    dG = (gams[1:dim + 1] - gams[dim + 1:]) / (2.0 * h)[:, None, None, None]
    # d_r G^m_sn - d_s G^m_rn + G^m_rl G^l_sn - (the same with r, s swapped)
    term_d = dG.transpose(1, 3, 0, 2) - dG.transpose(1, 3, 2, 0)
    quad = np.einsum("mrl,lsn->mnrs", gam, gam)
    return gam, term_d + (quad - quad.transpose(0, 1, 3, 2))


def christoffel(model: ManifoldModel, theta,
                fd_step: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Levi-Civita connection Gamma[a, b, c] = Gamma^a_{bc}."""
    th = model.check_point(theta)
    if model.christoffel_fn is not None:
        return np.asarray(model.christoffel_fn(th), dtype=float)
    return _fd_christoffel(model, th, fd_step, th)


def riemann(model: ManifoldModel, theta,
            fd_step: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Curvature tensor R[m, n, r, s] = R^m_{nrs}."""
    th = model.check_point(theta)
    if model.riemann_fn is not None:
        return np.asarray(model.riemann_fn(th), dtype=float)
    return _fd_riemann(model, th, fd_step)[1]


@dataclass(frozen=True)
class CurvatureReport:
    """Connection and curvature of a model at one point.

    ``sectional`` maps coordinate-plane index pairs (i, j), i < j, to
    the sectional curvature of the plane after Gram-Schmidt
    orthonormalization under g.  ``scalar_consistency`` is the change
    in the scalar when the differencing step is halved (zero when a
    closed-form Riemann was used).
    """

    point: np.ndarray
    christoffel: np.ndarray
    riemann: np.ndarray
    ricci: np.ndarray
    scalar: float
    sectional: dict[tuple[int, int], float]
    scalar_consistency: float


def _orthonormal_plane(g: np.ndarray, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    dim = g.shape[0]
    u = np.zeros(dim)
    u[i] = 1.0 / np.sqrt(g[i, i])
    w = np.zeros(dim)
    w[j] = 1.0
    w = w - (w @ g @ u) * u
    w = w / np.sqrt(w @ g @ w)
    return u, w


def _assemble(model: ManifoldModel, th: np.ndarray, gam: np.ndarray,
              riem: np.ndarray, coarse: np.ndarray | None) -> CurvatureReport:
    """The report from Gamma and R; ``coarse`` is R at twice the
    differencing step, for the step-halving check (None for closed forms)."""
    g = model.metric(th)
    ginv = _inverse(model, g, th)
    ricci = np.einsum("mnms->ns", riem)
    scalar = float(np.einsum("ns,ns->", ginv, ricci))
    consistency = 0.0 if coarse is None else abs(scalar - float(np.einsum(
        "ns,ns->", ginv, np.einsum("mnms->ns", coarse))))
    sectional: dict[tuple[int, int], float] = {}
    for i in range(model.dim):
        for j in range(i + 1, model.dim):
            u, w = _orthonormal_plane(g, i, j)
            ruvv = np.einsum("mnrs,n,r,s->m", riem, w, u, w)
            sectional[(i, j)] = float(u @ g @ ruvv)
    return CurvatureReport(point=th, christoffel=gam, riemann=riem,
                           ricci=ricci, scalar=scalar, sectional=sectional,
                           scalar_consistency=consistency)


def curvature(model: ManifoldModel, theta,
              fd_step: float = DEFAULT_FD_STEP) -> CurvatureReport:
    """Full curvature report; finite differences carry a step-halving check.

    On the finite-difference path the reported tensors come from the
    halved step, the more accurate of the two evaluations.
    """
    th = model.check_point(theta)
    if model.riemann_fn is not None:
        gam, riem = christoffel(model, th, fd_step), riemann(model, th, fd_step)
        return _assemble(model, th, gam, riem, None)
    coarse = riemann(model, th, fd_step)
    gam, riem = _fd_riemann(model, th, fd_step / 2.0)
    return _assemble(model, th, gam, riem, coarse)


@dataclass(frozen=True)
class SignReport:
    """Sign classification of the scalar curvature over sampled points."""

    classification: str  # "negative" | "non-negative" | "mixed"
    scalar_min: float
    scalar_max: float
    n_points: int


def scalar_sign_classification(reports: list[CurvatureReport],
                               atol: float = 1e-5) -> SignReport:
    """Classify the scalar-curvature sign over the ``curvature`` reports of
    a point sample.

    ``negative`` requires every scalar below -atol; ``non-negative``
    requires every scalar above -atol (zero within tolerance counts);
    anything else is ``mixed``.
    """
    scalars = [r.scalar for r in reports]
    lo, hi = float(min(scalars)), float(max(scalars))
    if hi < -atol:
        classification = "negative"
    elif lo > -atol:
        classification = "non-negative"
    else:
        classification = "mixed"
    return SignReport(classification, lo, hi, len(scalars))
