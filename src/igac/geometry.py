"""Connection and curvature of a manifold by differentiating its metric.

The generic path uses central differences of the metric field; models
that register closed-form Christoffel/Riemann callables use those both
as fast paths and as oracles for the finite-difference pipeline.  The
curvature convention is (R(e_r, e_s) e_n)^m = R^m_{nrs}, under which
the geodesic-deviation term reads R^m_{nrs} v^n J^r v^s and negative
sectional curvature means exponential spreading of nearby geodesics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InversionError
from .manifold import ManifoldModel

DEFAULT_FD_STEP = 1e-4


def _steps(theta: np.ndarray, fd_step: float) -> np.ndarray:
    return fd_step * np.maximum(1.0, np.abs(theta))


def _stencil_metric(model: ManifoldModel, points: np.ndarray,
                    h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g[k] and dg[k, l, m, n] = d g_mn / d theta_l at each row k of
    ``points``, by central differences with steps ``h[k]``; the whole
    stencil goes to the metric as one stack."""
    k, dim = points.shape
    shifts = h[:, :, None] * np.eye(dim)  # shifts[k, l] = h[k, l] e_l
    centre = points[:, None, :]
    stencil = np.concatenate([centre, centre + shifts, centre - shifts], axis=1)
    g = model.metrics(stencil.reshape(-1, dim)).reshape(k, 2 * dim + 1, dim, dim)
    return g[:, 0], (g[:, 1:dim + 1] - g[:, dim + 1:]) / (2.0 * h)[:, :, None, None]


def _metric_partials(model: ManifoldModel, theta: np.ndarray,
                     fd_step: float) -> np.ndarray:
    """dg[l, m, n] = d g_mn / d theta_l by central differences."""
    th = np.asarray(theta, dtype=float)[None, :]
    return _stencil_metric(model, th, _steps(th, fd_step))[1][0]


def _fd_christoffel(model: ManifoldModel, points: np.ndarray,
                    fd_step: float) -> np.ndarray:
    """Gamma[k, a, b, c] at each row k of ``points`` by central differences."""
    k, dim = points.shape
    h = _steps(points, fd_step)
    if not model.contains(points, margin=float(np.max(h))):
        raise DomainError(
            f"point {points[0].tolist()} is closer than the differencing step "
            f"to the boundary of model {model.name!r}")
    g, dg = _stencil_metric(model, points, h)
    # Gamma^a_bc = 1/2 g^{al} (d_b g_lc + d_c g_lb - d_l g_bc)
    bracket = dg.transpose(0, 2, 1, 3) + dg.transpose(0, 2, 3, 1) - dg
    try:
        ginv = np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:
        raise InversionError(
            f"metric of model {model.name!r} is singular near {points[0].tolist()}"
        ) from exc
    return 0.5 * (ginv @ bracket.reshape(k, dim, dim * dim)).reshape(dg.shape)


def _inverse_metric(model: ManifoldModel, theta: np.ndarray) -> np.ndarray:
    g = model.metric(theta)
    try:
        return np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:
        raise InversionError(
            f"metric of model {model.name!r} is singular at {theta.tolist()}"
        ) from exc


def christoffel(model: ManifoldModel, theta, fd_step: float = DEFAULT_FD_STEP,
                use_closed_form: bool = True) -> np.ndarray:
    """Levi-Civita connection Gamma[a, b, c] = Gamma^a_{bc}."""
    th = model.check_point(theta)
    if use_closed_form and model.christoffel_fn is not None:
        return np.asarray(model.christoffel_fn(th), dtype=float)
    return _fd_christoffel(model, th[None, :], fd_step)[0]


def riemann(model: ManifoldModel, theta, fd_step: float = DEFAULT_FD_STEP,
            use_closed_form: bool = True) -> np.ndarray:
    """Curvature tensor R[m, n, r, s] = R^m_{nrs}."""
    th = model.check_point(theta)
    if use_closed_form and model.riemann_fn is not None:
        return np.asarray(model.riemann_fn(th), dtype=float)
    # Gamma at theta and at theta +/- h e_r for each r, in one stack.
    h = _steps(th, fd_step)
    points = np.concatenate([th[None, :], th + np.diag(h), th - np.diag(h)])
    if use_closed_form and model.christoffel_fn is not None:
        gams = np.array([christoffel(model, p) for p in points])
    else:
        gams = _fd_christoffel(model, points, fd_step)
    dim = model.dim
    gam = gams[0]
    # dG[r, a, b, c] = d Gamma^a_{bc} / d theta_r
    dG = (gams[1:dim + 1] - gams[dim + 1:]) / (2.0 * h)[:, None, None, None]
    term_d = (np.einsum("rmsn->mnrs", dG) - np.einsum("smrn->mnrs", dG))
    term_q = (np.einsum("mrl,lsn->mnrs", gam, gam)
              - np.einsum("msl,lrn->mnrs", gam, gam))
    return term_d + term_q


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
    fd_step: float
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
              riem: np.ndarray, fd_step: float,
              consistency: float) -> CurvatureReport:
    g = model.metric(th)
    ginv = _inverse_metric(model, th)
    ricci = np.einsum("mnms->ns", riem)
    scalar = float(np.einsum("ns,ns->", ginv, ricci))
    sectional: dict[tuple[int, int], float] = {}
    for i in range(model.dim):
        for j in range(i + 1, model.dim):
            u, w = _orthonormal_plane(g, i, j)
            ruvv = np.einsum("mnrs,n,r,s->m", riem, w, u, w)
            sectional[(i, j)] = float(u @ g @ ruvv)
    return CurvatureReport(point=th, christoffel=gam, riemann=riem,
                           ricci=ricci, scalar=scalar, sectional=sectional,
                           fd_step=fd_step, scalar_consistency=consistency)


def curvature(model: ManifoldModel, theta, fd_step: float = DEFAULT_FD_STEP,
              use_closed_form: bool = True) -> CurvatureReport:
    """Full curvature report; finite differences carry a step-halving check.

    On the finite-difference path the reported tensors come from the
    halved step (the more accurate of the two evaluations).
    """
    th = model.check_point(theta)
    if use_closed_form and model.riemann_fn is not None:
        gam = christoffel(model, th, fd_step, use_closed_form=True)
        riem = riemann(model, th, fd_step, use_closed_form=True)
        return _assemble(model, th, gam, riem, fd_step, 0.0)
    riem_coarse = riemann(model, th, fd_step, use_closed_form)
    ginv = _inverse_metric(model, th)
    scalar_coarse = float(np.einsum(
        "ns,ns->", ginv, np.einsum("mnms->ns", riem_coarse)))
    half = fd_step / 2.0
    gam = christoffel(model, th, half, use_closed_form)
    riem_fine = riemann(model, th, half, use_closed_form)
    report = _assemble(model, th, gam, riem_fine, half, 0.0)
    return CurvatureReport(
        point=report.point, christoffel=report.christoffel,
        riemann=report.riemann, ricci=report.ricci, scalar=report.scalar,
        sectional=report.sectional, fd_step=half,
        scalar_consistency=abs(report.scalar - scalar_coarse))


@dataclass(frozen=True)
class SignReport:
    """Sign classification of the scalar curvature over sampled points."""

    classification: str  # "negative" | "non-negative" | "mixed"
    scalar_min: float
    scalar_max: float
    n_points: int


def scalar_sign_classification(model: ManifoldModel, sample_points,
                               fd_step: float = DEFAULT_FD_STEP,
                               atol: float = 1e-5) -> SignReport:
    """Classify the scalar-curvature sign over a point sample.

    ``negative`` requires every scalar below -atol; ``non-negative``
    requires every scalar above -atol (zero within tolerance counts);
    anything else is ``mixed``.
    """
    scalars = [curvature(model, p, fd_step).scalar for p in sample_points]
    lo, hi = float(min(scalars)), float(max(scalars))
    if hi < -atol:
        classification = "negative"
    elif lo > -atol:
        classification = "non-negative"
    else:
        classification = "mixed"
    return SignReport(classification, lo, hi, len(scalars))
