"""Statistical-weight volume and entropy growth along geodesic evolution.

The instantaneous explored volume at tau' is the integral of
sqrt(det g) over the axis-aligned coordinate box spanned by the start
point and the current point; coordinates with (numerically) zero extent
stay frozen at their current value and contribute the pointwise factor.
The running volume V(tau) is the tau-average of the instantaneous
volume, and the entropy is S = log V.  Regular flows give S ~ c log tau
with c counting the expanding scale factors; unstable flows on the
negatively curved manifold give S ~ K tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InapplicableError, InsufficientDataError
from .dynamics import GeodesicTrajectory
from .manifold import ManifoldModel
from .quadrature import gauss_legendre

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

    def to_dict(self) -> dict:
        return {"kind": self.kind, "slope": self.slope,
                "intercept": self.intercept, "r2": self.r2, "aic": self.aic}


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

    def to_dict(self) -> dict:
        return {"logarithmic": self.logarithmic.to_dict(),
                "linear": self.linear.to_dict(),
                "selected": self.selected,
                "window": list(self.window),
                "n_samples": self.n_samples}


@dataclass
class IGESeries:
    """Sampled tau -> (V, S) with the degenerate prefix removed.

    ``tau_grid``/``instant_volume`` keep the full trajectory grid; the
    fitted samples keep only points with strictly positive running
    volume.  ``fit`` is attached by :func:`fit_growth`.
    """

    tau_samples: np.ndarray
    volume: np.ndarray
    entropy: np.ndarray
    tau_grid: np.ndarray
    instant_volume: np.ndarray
    degenerate: bool
    fit: FitReport | None = None


def _factor_integral(f, lo: float, hi: float, log_scale: bool,
                     nodes: int) -> float:
    """Integral of a positive 1-d factor over [lo, hi].

    Scale coordinates integrate in u = log(x): the substitution keeps
    Gauss-Legendre accurate when the box spans orders of magnitude.
    """
    if log_scale:
        u, w = gauss_legendre(nodes, math.log(lo), math.log(hi))
        x = np.exp(u)
        return float(np.dot(w, np.asarray(f(x), dtype=float) * x))
    x, w = gauss_legendre(nodes, lo, hi)
    return float(np.dot(w, np.asarray(f(x), dtype=float)))


def _instant_volume(model: ManifoldModel, start: np.ndarray, cur: np.ndarray,
                    nodes: int) -> float:
    lo = np.minimum(start, cur)
    hi = np.maximum(start, cur)
    scale = np.maximum(1.0, np.abs(start))
    active = (hi - lo) > _EXTENT_EPS * scale
    if not np.any(active):
        return 0.0
    log_scale = [d[0] == 0.0 and math.isinf(d[1]) for d in model.domain]
    total = 1.0
    for i, f in enumerate(model.sqrt_g_factors):
        if active[i]:
            total *= _factor_integral(f, lo[i], hi[i], log_scale[i], nodes)
        else:
            total *= float(f(np.asarray(cur[i])))
    return total


def volume_series(model: ManifoldModel, traj: GeodesicTrajectory,
                  quad_nodes: int = 64) -> IGESeries:
    """Running statistical-weight volume and entropy along a trajectory."""
    if traj.model_name != model.name:
        raise DomainError(
            f"trajectory belongs to model {traj.model_name!r}, not {model.name!r}")
    if quad_nodes < 16:
        raise DomainError(f"quad_nodes must be >= 16, got {quad_nodes}")
    taus = traj.tau_grid
    start = traj.coords[0]
    instant = np.array([
        _instant_volume(model, start, c, quad_nodes) for c in traj.coords])
    running = np.zeros_like(instant)
    acc = 0.0
    for j in range(1, len(taus)):
        acc += 0.5 * (instant[j] + instant[j - 1]) * (taus[j] - taus[j - 1])
        running[j] = acc / taus[j]
    positive = running > 0.0
    degenerate = not bool(np.any(positive))
    return IGESeries(
        tau_samples=taus[positive],
        volume=running[positive],
        entropy=np.log(running[positive]) if not degenerate else np.array([]),
        tau_grid=taus,
        instant_volume=instant,
        degenerate=degenerate,
    )


def _least_squares(x: np.ndarray, y: np.ndarray, kind: str) -> GrowthFit:
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    rss = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - rss / ss_tot
    n = len(x)
    # Least-squares AIC with two fitted coefficients; the floor keeps
    # log well-defined for numerically exact fits.
    aic = n * math.log(max(rss, 1e-300) / n) + 4.0
    return GrowthFit(kind, float(slope), float(intercept), r2, aic)


def fit_growth(series: IGESeries, window: tuple[float, float]) -> FitReport:
    """Fit both growth laws on a window and select the lower-AIC one."""
    w0, w1 = float(window[0]), float(window[1])
    if series.degenerate:
        raise InsufficientDataError("series is degenerate (no explored volume)")
    mask = (series.tau_samples >= w0) & (series.tau_samples <= w1)
    n = int(mask.sum())
    if n < 20:
        raise InsufficientDataError(
            f"window [{w0:g}, {w1:g}] holds {n} samples; need >= 20")
    taus = series.tau_samples[mask]
    ent = series.entropy[mask]
    if np.any(taus <= 0.0):
        raise DomainError("logarithmic fit needs a window with tau > 0")
    log_fit = _least_squares(np.log(taus), ent, "logarithmic")
    lin_fit = _least_squares(taus, ent, "linear")
    selected = "logarithmic" if log_fit.aic <= lin_fit.aic else "linear"
    report = FitReport(log_fit, lin_fit, selected, (w0, w1), n)
    series.fit = report
    return report


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

    def to_dict(self) -> dict:
        return {"k_ig": self.k_ig, "lambda_j": self.lambda_j,
                "ratio": self.ratio, "difference": self.difference,
                "inconsistent": self.inconsistent}


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
