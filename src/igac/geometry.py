"""Connection and curvature of a manifold by differentiating its metric.

A model that carries closed-form Christoffel/Riemann callables is
evaluated with them; any other, such as every chart model, by central
differences of its metric field, so finite differences check a model's
closed forms on a copy without them.  The curvature convention is
(R(e_r, e_s) e_n)^m = R^m_{nrs}, under which the geodesic-deviation term
reads R^m_{nrs} v^n J^r v^s and negative sectional curvature means
exponential spreading of nearby geodesics.

Each finite-difference evaluation is one stacked pass: the points and
every point's own stencil are checked against the domain and go to
``ManifoldModel.metric`` as one stack, followed by one batched inverse.
The curvature stencil of a point (the point and its 2*dim shifts) gives
the connection there (row 0) and the curvature from all rows, so
connection and curvature together cost one pass.  Steps are
fd_step * max(1, |theta|) on scale coordinates, domain (0, inf), and
plain fd_step on the others.  A finite-difference Jacobi right-hand side
makes one such pass on the chart model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InversionError, ShapeError
from .manifold import ManifoldModel

DEFAULT_FD_STEP = 1e-4


def _steps(model: ManifoldModel, theta: np.ndarray, fd_step: float) -> np.ndarray:
    """Central-difference steps at a point or each row of a stack:
    fd_step * max(1, |theta|) on a scale coordinate (domain (0, inf)), and
    plain fd_step on any other, a location or a log-scale chart coordinate."""
    return fd_step * np.maximum(1.0, np.abs(theta) * model._step_scale)


def _stencil_metric(model: ManifoldModel, points: np.ndarray,
                    h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g[k] and dg[k, l, m, n] = d g_mn / d theta_l at each row k of
    ``points``, by central differences with steps ``h[k]``; the whole
    stencil goes to the metric as one stack, once inside the domain."""
    k, dim = points.shape
    shifts = h[:, :, None] * np.eye(dim)  # shifts[k, l] = h[k, l] e_l
    centre = points[:, None, :]
    stencil = np.concatenate([centre, centre + shifts, centre - shifts], axis=1)
    if not model.contains(stencil):
        for p in points:  # names a coordinate outside the domain, if any
            model.check_point(p)
        raise DomainError(
            f"point {points[0].tolist()} is closer than the differencing step "
            f"to the boundary of model {model.name!r}")
    g = model.metric(stencil.reshape(-1, dim)).reshape(k, 2 * dim + 1, dim, dim)
    return g[:, 0], (g[:, 1:dim + 1] - g[:, dim + 1:]) / (2.0 * h)[:, :, None, None]


def _inverse(model: ManifoldModel, g: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """The inverse of the metric ``g``, or of each in a stack, at ``theta``."""
    try:
        return np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:
        raise InversionError(
            f"metric of model {model.name!r} is singular at {theta.tolist()}"
        ) from exc


def _metric_partials(model: ManifoldModel, theta: np.ndarray,
                     fd_step: float) -> np.ndarray:
    """dg[l, m, n] = d g_mn / d theta_l by central differences."""
    th = np.asarray(theta, dtype=float)[None, :]
    return _stencil_metric(model, th, _steps(model, th, fd_step))[1][0]


def _fd_christoffel(model: ManifoldModel, points: np.ndarray,
                    fd_step: float) -> np.ndarray:
    """Gamma[k, a, b, c] at each row k of ``points`` by central differences."""
    k, dim = points.shape
    g, dg = _stencil_metric(model, points, _steps(model, points, fd_step))
    # Gamma^a_bc = 1/2 g^{al} (d_b g_lc + d_c g_lb - d_l g_bc)
    bracket = dg.transpose(0, 2, 1, 3) + dg.transpose(0, 2, 3, 1) - dg
    ginv = _inverse(model, g, points[0])
    return 0.5 * (ginv @ bracket.reshape(k, dim, dim * dim)).reshape(dg.shape)


def curvature_stencil(model: ManifoldModel, theta: np.ndarray,
                      fd_step: float = DEFAULT_FD_STEP
                      ) -> tuple[np.ndarray, np.ndarray]:
    """The points theta, theta + h_r e_r and theta - h_r e_r (one per row,
    r = 0..dim-1) and the steps h.  The Christoffel symbols at these rows
    give the connection at theta (row 0) and, through
    ``riemann_from_stencil``, the curvature there."""
    th = np.asarray(theta, dtype=float)
    h = _steps(model, th, fd_step)
    shifts = np.diag(h)
    return np.concatenate([th[None, :], th + shifts, th - shifts]), h


def riemann_from_stencil(gams: np.ndarray, h: np.ndarray) -> np.ndarray:
    """R[m, n, r, s] = R^m_{nrs} from the Christoffel symbols ``gams`` at
    the rows of a ``curvature_stencil`` with steps ``h``."""
    dim = len(h)
    gam = gams[0]
    # dG[r, a, b, c] = d Gamma^a_{bc} / d theta_r
    dG = (gams[1:dim + 1] - gams[dim + 1:]) / (2.0 * h)[:, None, None, None]
    # d_r G^m_sn - d_s G^m_rn + G^m_rl G^l_sn - (the same with r, s swapped)
    term_d = dG.transpose(1, 3, 0, 2) - dG.transpose(1, 3, 2, 0)
    quad = np.einsum("mrl,lsn->mnrs", gam, gam)
    return term_d + (quad - quad.transpose(0, 1, 3, 2))


def _fd_tensors(model: ManifoldModel, th: np.ndarray,
                fd_step: float) -> tuple[np.ndarray, np.ndarray]:
    """Gamma and R at a validated point from one stacked pass over its
    curvature stencil: one metric call, one batched inverse."""
    points, h = curvature_stencil(model, th, fd_step)
    gams = _fd_christoffel(model, points, fd_step)
    return gams[0], riemann_from_stencil(gams, h)


def christoffel(model: ManifoldModel, theta,
                fd_step: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Levi-Civita connection Gamma[a, b, c] = Gamma^a_{bc}.

    ``theta`` may also be a (k, dim) stack of points, giving Gamma at each
    row; finite differences then evaluate every row's stencil in one
    metric call with one batched inverse.
    """
    arr = np.asarray(theta, dtype=float)
    closed = model.christoffel_fn is not None
    if arr.ndim != 2:
        th = model.check_point(arr)
        if closed:
            return np.asarray(model.christoffel_fn(th), dtype=float)
        return _fd_christoffel(model, th[None, :], fd_step)[0]
    if arr.shape[1] != model.dim or not len(arr):
        raise ShapeError(
            f"model {model.name!r} takes a (k, {model.dim}) stack of points "
            f"with k >= 1, got shape {arr.shape}")
    if not closed:
        return _fd_christoffel(model, arr, fd_step)
    return np.array([model.christoffel_fn(model.check_point(p)) for p in arr],
                    dtype=float)


def riemann(model: ManifoldModel, theta,
            fd_step: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Curvature tensor R[m, n, r, s] = R^m_{nrs}.

    Finite differences take the connection on the ``curvature_stencil``
    in one stacked pass and assemble R with ``riemann_from_stencil``.
    """
    th = model.check_point(theta)
    if model.riemann_fn is not None:
        return np.asarray(model.riemann_fn(th), dtype=float)
    return _fd_tensors(model, th, fd_step)[1]


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
    halved step (the more accurate of the two evaluations), Gamma and R
    from one stacked pass.
    """
    th = model.check_point(theta)
    if model.riemann_fn is not None:
        gam, riem = christoffel(model, th, fd_step), riemann(model, th, fd_step)
        return _assemble(model, th, gam, riem, None)
    coarse = riemann(model, th, fd_step)
    gam, riem = _fd_tensors(model, th, fd_step / 2.0)
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
