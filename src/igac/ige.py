"""Statistical-weight volume and entropy growth along geodesic evolution.

The instantaneous explored volume at tau' is the integral of
sqrt(det g) over the axis-aligned coordinate box spanned by the start
point and the current point; coordinates with (numerically) zero extent
stay frozen at their current value and contribute the pointwise factor.
The running volume V(tau) is the tau-average of the instantaneous
volume, and the entropy is S = log V.  Regular flows give S ~ c log tau
with c counting the expanding scale factors; unstable flows on the
negatively curved manifold give S ~ K tau.

Volumes are taken in the trajectory's chart coordinates, where each
box integral has a closed form, and summed as logarithms, so the
entropy stays finite where a scale parameter leaves float64's range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FitError, InapplicableError
from .dynamics import GeodesicTrajectory, fit_window
from .manifold import Chart, ManifoldModel

_EXTENT_EPS = 1e-12


@dataclass(frozen=True)
class GrowthFit:
    """One candidate growth law fitted by least squares.

    ``logarithmic`` fits S = slope * log(tau) + intercept; ``linear``
    fits S = slope * tau + intercept, so intercept is log of the volume
    prefactor.
    """

    kind: str
    slope: float
    intercept: float
    r2: float
    aic: float


@dataclass(frozen=True)
class FitReport:
    """Both candidate fits plus the AIC-selected growth law."""

    logarithmic: GrowthFit
    linear: GrowthFit
    selected: str
    window: tuple[float, float]
    n_samples: int

    @property
    def selected_fit(self) -> GrowthFit:
        return self.linear if self.selected == "linear" else self.logarithmic


@dataclass(frozen=True)
class IGESeries:
    """Sampled tau -> (V, S) with the degenerate prefix removed.

    ``tau_grid``/``instant_volume`` keep the full trajectory grid; the
    fitted samples keep only points with a positive running volume.
    Volumes are exp of the logarithms the entropy is taken from, so they
    can read inf.
    """

    tau_samples: np.ndarray
    volume: np.ndarray
    entropy: np.ndarray
    tau_grid: np.ndarray
    instant_volume: np.ndarray
    degenerate: bool


def _log_volume_element(chart: Chart, x: np.ndarray) -> np.ndarray:
    """Per coordinate, the log of sqrt(det g)'s factor in theta at chart
    coordinates x; the sum over the last axis is log sqrt(det g(theta)).

    The chart metric is diag(m * exp(-2 R . x)), so sqrt(det g) in chart
    coordinates is the product over b of sqrt(m_b) exp(-s_b x_b) with
    s = R.sum(axis=0); a log coordinate adds d(x_b)/d(theta_b) = exp(-x_b).
    """
    return (0.5 * np.log(chart.frame_metric)
            - (chart.rates.sum(axis=0) + chart.log_scale) * x)


def _log_instant_volume(chart: Chart, x: np.ndarray) -> np.ndarray:
    """log of the instantaneous volume at each row of chart coordinates x.

    Each moving coordinate contributes the box integral of its factor
    sqrt(m_b) exp(-s_b x_b) in closed form; a frozen one its factor in
    theta at the current point.  Rows where no coordinate has moved
    give -inf.
    """
    start = x[0]
    lo, hi = np.minimum(start, x), np.maximum(start, x)
    extent = hi - lo
    active = extent > _EXTENT_EPS * np.maximum(1.0, np.abs(start))
    s = chart.rates.sum(axis=0)
    flat = s == 0.0
    rate = np.where(flat, 1.0, np.abs(s))
    with np.errstate(divide="ignore"):
        box = np.where(flat, np.log(extent),
                       np.maximum(-s * lo, -s * hi)
                       + np.log(-np.expm1(-rate * extent)) - np.log(rate))
    box += 0.5 * np.log(chart.frame_metric)
    logs = np.where(active, box, _log_volume_element(chart, x)).sum(axis=1)
    return np.where(active.any(axis=1), logs, -np.inf)


def volume_series(model: ManifoldModel, traj: GeodesicTrajectory) -> IGESeries:
    """Running statistical-weight volume and entropy along a trajectory."""
    if traj.model_name != model.name:
        raise DomainError(
            f"trajectory belongs to model {traj.model_name!r}, not {model.name!r}")
    if model.chart is None:
        raise InapplicableError(
            f"model {model.name!r} has no chart to measure volumes in")
    taus = traj.tau_grid
    log_instant = _log_instant_volume(model.chart, traj.chart_coords)
    # Trapezoid rule for the running tau-average, summed in log space.
    with np.errstate(divide="ignore"):
        log_steps = (np.log(0.5 * np.diff(taus))
                     + np.logaddexp(log_instant[1:], log_instant[:-1]))
        log_running = np.concatenate(
            [[-np.inf], np.logaddexp.accumulate(log_steps) - np.log(taus[1:])])
    positive = log_running > -np.inf
    with np.errstate(over="ignore"):
        return IGESeries(
            tau_samples=taus[positive],
            volume=np.exp(log_running[positive]),
            entropy=log_running[positive],
            tau_grid=taus,
            instant_volume=np.exp(log_instant),
            degenerate=not bool(np.any(positive)),
        )


def _log_tau(taus: np.ndarray) -> np.ndarray:
    if np.any(taus <= 0.0):
        raise DomainError("logarithmic fit needs a window with tau > 0")
    return np.log(taus)


def fit_growth(series: IGESeries, window: tuple[float, float]) -> FitReport:
    """Fit both growth laws on a window and select the lower-AIC one.

    A degenerate series (a trajectory that explores no volume, such as a
    stationary start) has no entropy to fit and raises FitError.
    """
    if series.degenerate:
        raise FitError("series is degenerate (no explored volume)")
    fits = {}
    for kind, x in (("logarithmic", _log_tau), ("linear", np.asarray)):
        fit = fit_window(series.tau_samples, series.entropy, window, 20, x=x)
        # Least-squares AIC with two fitted coefficients; the floor keeps
        # log well-defined for numerically exact fits.
        n = fit.n_samples
        aic = n * math.log(max(fit.rss, 1e-300) / n) + 4.0
        fits[kind] = GrowthFit(kind, fit.slope, fit.intercept, fit.r2, aic)
    log_fit, lin_fit = fits["logarithmic"], fits["linear"]
    selected = "logarithmic" if log_fit.aic <= lin_fit.aic else "linear"
    return FitReport(log_fit, lin_fit, selected, fit.window, fit.n_samples)


@dataclass(frozen=True)
class RateComparison:
    """Side-by-side view of the entropy rate and the deviation exponent.

    Reported, never judged: the asymptotic equality of the two rates is
    an open conjecture, so this carries no pass/fail verdict.
    """

    k_ig: float
    lambda_j: float
    ratio: float
    difference: float
    inconsistent: bool


def compare_rates(fit: FitReport, lambda_j: float) -> RateComparison:
    """Compare the fitted linear entropy rate against a deviation exponent."""
    if fit.selected != "linear":
        raise InapplicableError(
            "rate comparison applies to linear-growth fits only; "
            f"selected model is {fit.selected!r}")
    k_ig = fit.linear.slope
    tiny = 1e-12 * max(1.0, abs(k_ig))
    if abs(lambda_j) < tiny:
        return RateComparison(k_ig, lambda_j, math.inf if k_ig > 0 else 1.0,
                              abs(k_ig - lambda_j), inconsistent=k_ig > tiny)
    return RateComparison(k_ig, float(lambda_j), k_ig / lambda_j,
                          abs(k_ig - lambda_j), inconsistent=False)
