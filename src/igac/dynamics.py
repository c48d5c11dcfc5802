"""Geodesic flow and geodesic-deviation dynamics on a manifold.

Geodesics are integrated in the model's log-scale ``Chart``: scale
coordinates as u = log(theta), velocities as components w in the chart's
frame, so the geodesic equation reads

    dx/dtau = E(x) w,      dw/dtau = -omega(w, w),

with E the frame lengths and omega the connection in the frame.  On the
prebuilt manifolds the chart covers all of R^dim and omega is constant
(the Gaussian block, e^{-2u} dmu^2 + 2 du^2, carries p = e^{-u} dmu/dtau
and q = du/dtau), so these complete manifolds' geodesics run to any tau
at any depth.  Results come back in theta coordinate components, where a
value beyond float64's range (sigma below 1e-308, say) reads 0.0 or inf;
speeds and deviation norms are taken in the frame, whose metric is
constant.

The stepper is the Dormand-Prince 5(4) pair under mixed absolute/relative
error control.  Inputs are validated once at entry, steps follow the
tolerance alone, and samples come from the pair's continuous extension
(Hairer, Norsett & Wanner, Solving ODEs I, II.6).  The walk records each
accepted step that spans grid nodes and fills those nodes in batches, one
vectorised evaluation of the extension per batch of about 256 nodes and
one at the end, with the per-step arithmetic, so the samples are bitwise
those of filling each step as it is taken.  A stage that leaves
the chart or float64's range rejects the step; the step-size floor then
raises SingularityError.  Deviation vectors are co-integrated in
first-order covariant form,

    dJ/dtau = K - omega(v, J),      dK/dtau = -omega(v, K) - R(J, v)v,

with K the covariant rate of J, so flat manifolds give exactly affine
growth and constant negative curvature gives sinh growth.  Geodesics use
the chart's constant frame connection ``Chart.omega``, and the deviation
equation also its curvature ``Chart.curvature``.  Once per integration
their nonzero entries (two and four on a Gaussian block, none on a flat
factor), the frame rates and the chart's box are read as Python scalars;
each right-hand side then sums those terms in scalar arithmetic, since on
vectors of length 2 or 3 numpy's per-call overhead would be most of the
cost.  The deviation equation can instead take omega and R by finite
differences of the chart metric, as a check on the closed forms: since
both are constant on the chart, they are taken once, at the start point,
and the same right-hand side runs on them.
Each trajectory carries the walk's statistics (``SolverStats``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (DomainError, InapplicableError, InsufficientDataError,
                     ShapeError, SingularityError)
from .geometry import christoffel, riemann
from .manifold import Chart, ManifoldModel

# Dormand-Prince 5(4) tableau; the fifth-order row propagates.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                187 / 2100, 1 / 40])
_ERR = _B5 - _B4
# Continuous extension of order 4 (Hairer's DOPRI5 dense output).
_DENSE = np.array([-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
                   -10690763975 / 1880347072, 701980252875 / 199316789632,
                   -1453857185 / 822651844, 69997945 / 29380423])


@dataclass(frozen=True)
class LineFit:
    """A least-squares line over the samples of a tau window."""

    slope: float
    intercept: float
    r2: float
    rss: float
    window: tuple[float, float]
    n_samples: int


@dataclass(frozen=True)
class LambdaEstimate:
    """Least-squares growth rate of log ||J|| over a window."""

    lambda_j: float
    fit_r2: float
    window: tuple[float, float]
    n_samples: int


@dataclass(frozen=True)
class SolverStats:
    """Work of one Dormand-Prince walk: right-hand-side evaluations
    (1 + 6 per attempted step), accepted and rejected steps, and the
    smallest accepted step (None when no step was taken).  The last step
    is cut to end on the grid, so it can be the smallest."""

    rhs_calls: int
    accepted: int
    rejected: int
    min_step: float | None


@dataclass
class GeodesicTrajectory:
    """A geodesic sampled on a tau grid, optionally with a deviation field.

    ``speed`` is the g-norm of the velocity (constant along geodesics up
    to integrator tolerance).  When filled, ``jacobi``/``jacobi_rate``
    hold coordinate components of J and of its covariant rate, and
    ``jacobi_norm`` the pointwise g-norm of J.  ``solver`` holds the
    integrator's statistics.  ``boundary_event`` is always None: the
    charts have no boundary, so no geodesic is cut short.  ``chart_coords``
    are the ``Chart`` coordinates volumes are measured from: they stay
    finite where ``coords`` leave float64's range.
    """

    model_name: str
    tau_grid: np.ndarray
    coords: np.ndarray
    chart_coords: np.ndarray
    velocity: np.ndarray
    speed: np.ndarray
    jacobi: np.ndarray | None = None
    jacobi_rate: np.ndarray | None = None
    jacobi_norm: np.ndarray | None = None
    solver: SolverStats | None = None
    boundary_event: None = None

    @property
    def n_samples(self) -> int:
        return len(self.tau_grid)


# Grid nodes whose states may wait for the batched continuous extension;
# bounds the steps held for it.
_FILL_BATCH = 256


def _fill_dense(out: np.ndarray, grid: np.ndarray, steps: list) -> None:
    """Fill the grid nodes spanned by consecutive accepted steps from the
    pair's continuous extension, vectorised over the steps.

    Each step is (first node, stop, tau, h, y0, y1, ks), and together they
    span the nodes first[0] to stop[-1]; every node gets the step
    fraction s = (grid - tau) / h of its own step.
    """
    first, stop, tau, h, y0, y1, ks = zip(*steps)
    at = np.repeat(np.arange(len(steps)), np.subtract(stop, first))
    h = np.array(h)[:, None]
    y0, ks = np.array(y0), np.array(ks)
    ydiff = np.array(y1) - y0
    bspl = h * ks[:, 0] - ydiff
    r4 = ydiff - h * ks[:, 6] - bspl
    r5 = h * (_DENSE @ ks)
    nodes = slice(first[0], stop[-1])
    s = ((grid[nodes] - np.array(tau)[at]) / h[at, 0])[:, None]
    s1 = 1.0 - s
    out[nodes] = y0[at] + s * (ydiff[at] + s1 * (
        bspl[at] + s * (r4[at] + s1 * r5[at])))


def _integrate_on_grid(rhs, y0: np.ndarray, grid: np.ndarray, tol: float
                       ) -> tuple[np.ndarray, SolverStats]:
    """Adaptive Dormand-Prince walk: the state at every grid node, and the
    walk's statistics.

    Steps follow the error control alone.  Each accepted step that spans
    grid nodes is recorded, and the recorded steps' nodes are filled from
    the continuous extension in one batch once ``_FILL_BATCH`` nodes wait,
    and at the end of the walk.  A NaN or inf error estimate rejects the
    step and shrinks it, so a state that leaves float64's range ends in
    SingularityError once the step falls below the floor, 1e-14 of the
    span (at least 1e-14).
    """
    atol = rtol = float(tol)
    y = np.array(y0, dtype=float)
    out = np.empty((len(grid), y.size))
    out[0] = y
    tau, end = float(grid[0]), float(grid[-1])
    span = end - tau
    h = 1e-2 * span
    floor = 1e-14 * max(1.0, span)
    ks = np.empty((7, y.size))
    stages = [(s, _A[s], ks[:s], _C[s]) for s in range(1, 7)]  # ks[:s] a view
    ks[0] = rhs(tau, y)
    filled, calls, accepted, rejected, smallest = 1, 1, 0, 0, math.inf
    pending = []  # accepted steps whose nodes wait for _fill_dense
    while filled < len(grid):
        last = h >= end - tau
        if last:
            h = end - tau
        for s, a, earlier, c in stages:
            ys = y + h * (a @ earlier)
            ks[s] = rhs(tau + c * h, ys)
        calls += 6
        # The last stage's state is the fifth-order solution.
        err_vec = h * (_ERR @ ks)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(ys))
        err = math.sqrt(float(np.add.reduce(np.square(err_vec / scale))) / y.size)
        if err <= 1.0:
            accepted += 1
            smallest = min(smallest, h)
            stop = (len(grid) if last
                    else int(grid.searchsorted(tau + h, side="right")))
            if stop > filled:
                pending.append((filled, stop, tau, h, y, ys, ks.copy()))
                filled = stop
                if filled - pending[0][0] >= _FILL_BATCH or filled == len(grid):
                    _fill_dense(out, grid, pending)
                    pending = []
            tau, y = (end if last else tau + h), ys
            ks[0] = ks[6]  # first same as last, copied out of the stage buffer
        else:
            rejected += 1
        if err > 0.0:
            factor = min(5.0, max(0.2, 0.9 * err ** -0.2))
        else:  # a zero error grows the step, a NaN one shrinks it
            factor = 5.0 if err == 0.0 else 0.2
        h *= factor
        if not err <= 1.0 and h < floor:
            cause = ("" if math.isfinite(err) else ": the error estimate is not "
                     "finite, so the state left float64's range or the chart")
            raise SingularityError(
                f"step size underflowed ({h:.3e} < {floor:.3e}) at "
                f"tau={tau:.6g}{cause}", last_state=(tau, y.copy()))
    return out, SolverStats(calls, accepted, rejected,
                            smallest if accepted else None)


def _chart_of(model: ManifoldModel) -> Chart:
    if model.chart is None:
        raise InapplicableError(
            f"model {model.name!r} has no chart to integrate geodesics in")
    return model.chart


def _closed_form_rhs(chart: Chart, omega: np.ndarray, curvature: np.ndarray,
                     jacobi: bool):
    """d(x, w)/dtau, or d(x, w, J, K)/dtau when ``jacobi``, on the constant
    frame connection ``omega`` and curvature ``curvature``, as a list.

    The box of the chart model, the frame rates and the nonzero entries of
    ``omega`` and ``curvature`` are read once, as Python scalars.  Each call
    then sums dx = E(x) w, dw = -omega(w, w), dJ = K - omega(w, J) and
    dK = -omega(w, K) - R(J, w)w term by term, each product taken in the
    order of the dense contractions.  A stage whose x is outside the box
    (open intervals, so NaN and +-inf are outside) or whose frame length
    overflows beside a nonzero w_a gets an all-NaN result, which rejects
    the step; where w_a is exactly 0, dx_a is 0.
    """
    dim = chart.model.dim
    size = (4 if jacobi else 2) * dim
    w, j, k = dim, 2 * dim, 3 * dim  # offsets of w, J and K in y and dy
    lows, highs = zip(*((float(lo), float(hi)) for lo, hi in chart.model.domain))
    # e_a = exp(rates[a] . x) on the rows with a nonzero rate, 1 elsewhere.
    growth = [(a, [(b, r) for b, r in enumerate(row) if r])
              for a, row in enumerate(chart.rates.tolist()) if any(row)]
    # omega^a_bc adds -omega w^b w^c to dw^a, and w^b J^c, w^b K^c likewise.
    connection = [(w + a, w + b, w + c, float(omega[a, b, c]))
                  for a, b, c in zip(*np.nonzero(omega))]
    # Rhat^m_nrs adds -Rhat w^s J^r w^n to dK^m.
    deviation = [(k + m, w + n, j + r, w + s, float(curvature[m, n, r, s]))
                 for m, n, r, s in zip(*np.nonzero(curvature))]

    def rhs(tau, y):
        y = y.tolist()
        for lo, xi, hi in zip(lows, y, highs):
            if not lo < xi < hi:
                return [math.nan] * size
        dy = y[w:j] + [0.0] * dim
        if jacobi:
            dy += y[k:] + [0.0] * dim
        try:
            for a, terms in growth:
                if not dy[a]:  # w_a = 0 moves nothing, however long e_a is
                    continue
                rate_x = 0.0
                for b, r in terms:
                    rate_x += r * y[b]
                dy[a] = math.exp(rate_x) * dy[a]
        except OverflowError:
            return [math.nan] * size
        for a, b, c, value in connection:
            t = value * y[b]
            dy[a] -= t * y[c]
            if jacobi:  # the same entry with c on the J and K blocks
                dy[a + dim] -= t * y[c + dim]
                dy[a + 2 * dim] -= t * y[c + 2 * dim]
        if jacobi:
            for m, n, r, s, value in deviation:
                dy[m] -= value * y[s] * y[r] * y[n]
        return dy

    return rhs


def _result(model: ManifoldModel, chart: Chart, grid: np.ndarray,
            states: np.ndarray, solver: SolverStats) -> GeodesicTrajectory:
    """Trajectory in theta components from chart states (x, w[, J, K]);
    values beyond float64's range come out as 0.0 or inf, and a zero frame
    component as 0.0 beside any length."""
    dim = model.dim
    x = states[:, :dim]
    frame = states[:, dim:].reshape(len(states), -1, dim)
    to_theta = np.where(frame == 0.0, frame,
                        chart.theta_lengths(x)[:, None, :] * frame)
    norms = chart.norms(frame)
    traj = GeodesicTrajectory(model_name=model.name, tau_grid=grid,
                              coords=chart.from_chart(x), chart_coords=x,
                              velocity=to_theta[:, 0], speed=norms[:, 0],
                              solver=solver)
    if frame.shape[1] == 3:
        traj.jacobi, traj.jacobi_rate = to_theta[:, 1], to_theta[:, 2]
        traj.jacobi_norm = norms[:, 1]
    return traj


def _chart_state(chart: Chart, theta: np.ndarray, *vectors) -> np.ndarray:
    """Chart coordinates of ``theta`` followed by frame components of vectors."""
    x = chart.to_chart(theta)
    lengths = chart.theta_lengths(x)
    return np.concatenate([x] + [np.asarray(v, dtype=float) / lengths
                                 for v in vectors])


def _checked_inputs(model: ManifoldModel, tol: float, **vectors) -> list[np.ndarray]:
    """Check an integration's tolerance and return its start vectors as flat
    arrays, each checked to be finite and of size dim."""
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be positive and finite, got {tol}",
                          field="tol")
    checked = [np.asarray(v, dtype=float).reshape(-1) for v in vectors.values()]
    for name, arr in zip(vectors, checked):
        if arr.size != model.dim:
            raise ShapeError(f"{name} of size {arr.size} does not match dim {model.dim}")
        if not np.isfinite(arr).all():
            raise DomainError(f"{name} must be finite, got {arr.tolist()}",
                              field=name)
    return checked


def integrate_geodesic(model: ManifoldModel, theta0, v0, tau_max: float,
                       tol: float = 1e-8,
                       samples: int = 512) -> GeodesicTrajectory:
    """Integrate the geodesic equation from (theta0, v0) up to tau_max.

    The trajectory is recorded on a uniform grid of ``samples`` points,
    at least two.  The connection is the chart's closed form.  A
    step-size underflow raises SingularityError carrying the last valid
    integrator state (chart coordinates and frame components).
    """
    th0 = model.check_point(theta0)
    (v0,) = _checked_inputs(model, tol, v0=v0)
    if not 0.0 < tau_max < math.inf:
        raise DomainError(f"tau_max must be positive and finite, got {tau_max}",
                          field="tau_max")
    if samples < 2:
        raise DomainError(f"samples must be >= 2, got {samples}",
                          field="samples")
    chart = _chart_of(model)
    grid = np.linspace(0.0, float(tau_max), int(samples))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        rhs = _closed_form_rhs(chart, chart.omega, chart.curvature, jacobi=False)
        states, solver = _integrate_on_grid(rhs, _chart_state(chart, th0, v0),
                                            grid, tol)
        return _result(model, chart, grid, states, solver)


def integrate_jacobi(model: ManifoldModel, traj: GeodesicTrajectory, J0, dJ0,
                     tol: float = 1e-8,
                     use_closed_form: bool = True) -> GeodesicTrajectory:
    """Co-integrate the deviation equation along a geodesic.

    ``dJ0`` is the initial covariant rate of the deviation vector.  The
    geodesic is re-integrated jointly with (J, K) on the trajectory's
    own grid; the returned copy carries the deviation components and
    the pointwise g-norm of J.  The equation is linear in (J, K), so the
    field is divided by the power of two nearest the larger g-norm of J0
    and K0 and multiplied back, both exactly: the error control then
    resolves a field of any size, and one of g-norm near 1 is unchanged.

    The right-hand side runs on the chart's constant frame forms,
    ``Chart.omega`` and ``Chart.curvature``.  With ``use_closed_form=False``
    it takes them instead by central differences of the chart metric, once,
    at the start point: on a chart the frame forms are the same at every
    point, so this checks the closed forms against derivatives of the
    metric without differencing it again at each stage, which would fail
    only where e^{-2u} leaves float64 deep in a complete chart.  Forms that
    are not finite there raise SingularityError with the start state.
    """
    if traj.model_name != model.name:
        raise ShapeError(
            f"trajectory belongs to model {traj.model_name!r}, not {model.name!r}")
    J0, dJ0 = _checked_inputs(model, tol, J0=J0, dJ0=dJ0)
    chart = _chart_of(model)
    y0 = _chart_state(chart, traj.coords[0], traj.velocity[0], J0, dJ0)
    size = float(np.max(chart.norms(y0[2 * model.dim:].reshape(2, -1))))
    scale = 2.0 ** round(min(math.log2(size), 1023.0)) if size > 0.0 else 1.0
    y0[2 * model.dim:] /= scale
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        forms = chart.omega, chart.curvature
        if not use_closed_form:
            x0 = y0[:model.dim]
            forms = chart.frame_tensors(x0, christoffel(chart.model, x0),
                                        riemann(chart.model, x0))
            if not all(np.isfinite(f).all() for f in forms):
                raise SingularityError(
                    "finite-difference frame forms are not finite at the start "
                    f"point x={x0.tolist()}", last_state=(0.0, y0.copy()))
        states, solver = _integrate_on_grid(
            _closed_form_rhs(chart, *forms, jacobi=True), y0, traj.tau_grid, tol)
        states[:, 2 * model.dim:] *= scale
        return _result(model, chart, traj.tau_grid, states, solver)


def fit_window(taus: np.ndarray, values: np.ndarray, window: tuple[float, float],
               need: int, x: Callable = np.asarray, y: Callable = np.asarray
               ) -> LineFit:
    """Least-squares line y(values) = slope * x(taus) + intercept over the
    samples whose tau lies in ``window``, of which there must be at least
    ``need``; ``x`` and ``y`` map the windowed taus and values."""
    w0, w1 = float(window[0]), float(window[1])
    mask = (taus >= w0) & (taus <= w1)
    n = int(mask.sum())
    if n < need:
        raise InsufficientDataError(
            f"window [{w0:g}, {w1:g}] holds {n} samples; need >= {need}")
    xs, ys = x(taus[mask]), y(values[mask])
    slope, intercept = np.polyfit(xs, ys, 1)
    rss = float(np.sum((ys - (slope * xs + intercept)) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - rss / ss_tot
    return LineFit(float(slope), float(intercept), r2, rss, (w0, w1), n)


def _log_growth(norms: np.ndarray) -> np.ndarray:
    if np.any(norms <= 0.0):
        raise InsufficientDataError("deviation norm vanishes inside the window")
    return np.log(norms / norms[0])


def estimate_lambda_j(traj: GeodesicTrajectory,
                      window: tuple[float, float]) -> LambdaEstimate:
    """Exponential growth rate of the deviation norm over a tau window.

    Least-squares slope of log ||J(tau)/J(w0)|| against tau, the
    finite-window version of the limit rate (1/tau) log ||J(tau)/J(0)||.
    """
    if traj.jacobi_norm is None:
        raise InsufficientDataError("trajectory carries no deviation field")
    fit = fit_window(traj.tau_grid, traj.jacobi_norm, window, 10, y=_log_growth)
    return LambdaEstimate(fit.slope, fit.r2, fit.window, fit.n_samples)


def reverse_initial_conditions(traj: GeodesicTrajectory
                               ) -> tuple[np.ndarray, np.ndarray]:
    """Final state with negated velocity, for round-trip checks."""
    return traj.coords[-1].copy(), -traj.velocity[-1].copy()
