"""Probability families for level-spacing statistics and their composites.

Three atomic families appear: the exponential law (mean-parametrized,
the spacing law of uncorrelated levels), the Wigner-Dyson surmise
(mean-parametrized, the level-repulsion law), and the one-dimensional
Gaussian.  Each atomic kind has one ``AtomicKind`` record in ``KINDS``
holding all its closed forms: density, moments, sampler and CDF, and
its Fisher-Rao geometry as constant data in the log-scale chart that
geodesics are integrated in (the theta-coordinate metric, connection
and curvature are derived from it in ``igac.manifold``).
Composites are independent products of atomic factors, assembled from
the records with no per-kind code; the two named ones pair a spacing law
with a field-energy "bath" factor:

* ``composite_integrable``: exponential(mu_A) x exponential(mu_B)
* ``composite_chaotic``:    wigner_dyson(mu_A) x gaussian(mu_B, sigma_B)

``poisson_spacing`` is accepted as an alias of ``exponential``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, ShapeError, UnsupportedFamilyError
from .quadrature import HALFLINE, REALLINE

EXPONENTIAL = "exponential"
GAUSSIAN = "gaussian"
WIGNER_DYSON = "wigner_dyson"
COMPOSITE = "composite"

_POS = (0.0, math.inf)
_REAL = (-math.inf, math.inf)
_SCALE_BOX = (0.5, 3.0)
_LOCATION_BOX = (-2.0, 2.0)


@dataclass(frozen=True)
class AtomicKind:
    """Every closed form of one atomic family, written once.

    Each form reads the family's parameters from a full parameter vector
    ``theta`` starting at the factor's offset ``o``, so composites call
    the records of their factors with no per-kind code.  ``sample_box``
    is a finite per-parameter box for drawing test points.

    The geometry is given once, as constant data, in chart coordinates
    x, with x = log(theta) on scale parameters (``log_scale``), and in
    the frame e_a = exp(frame_rates[a] . x) d/dx^a.  In that frame every
    atomic block has the constant diagonal metric ``frame_metric`` and
    the constant connection and curvature ``frame_christoffel`` and
    ``frame_riemann``.  The chart metric is frame_metric[a] *
    exp(-2 frame_rates[a] . x); ``igac.manifold`` derives the theta
    metric, connection and curvature from these fields, and ``igac.ige``
    the volumes, with no form of their own.
    """

    kind: str
    param_domain: tuple[tuple[float, float], ...]
    support: str
    sample_box: tuple[tuple[float, float], ...]
    log_density: Callable  # (theta, o, x) -> log p(x); -inf off the support
    moments: Callable      # (theta, o) -> (mean, variance)
    sample: Callable       # (theta, o, count, rng) -> draws
    cdf: Callable          # (theta, o, x) -> P(X <= x)
    frame_metric: tuple[float, ...]
    frame_rates: tuple[tuple[float, ...], ...]
    # Nonzero entries ((a, b, c), omega^a_bc) and ((m, n, r, s), R^m_nrs),
    # indexed within the block.
    frame_christoffel: tuple[tuple[tuple[int, ...], float], ...] = ()
    frame_riemann: tuple[tuple[tuple[int, ...], float], ...] = ()

    @property
    def n_params(self) -> int:
        return len(self.param_domain)

    @property
    def log_scale(self) -> tuple[bool, ...]:
        """Which parameters are scales, charted as their logarithm."""
        return tuple(d == _POS for d in self.param_domain)


def _wigner_dyson_log_density(theta, o, x):
    mu = theta[o]
    with np.errstate(divide="ignore", invalid="ignore"):
        body = (np.log(np.pi * x / (2.0 * mu * mu))
                - np.pi * x * x / (4.0 * mu * mu))
    return np.where(x > 0.0, body, -math.inf)


def _gaussian_log_density(theta, o, x):
    mu, sigma = theta[o], theta[o + 1]
    return (-0.5 * np.log(2.0 * math.pi * sigma * sigma)
            - (x - mu) ** 2 / (2.0 * sigma * sigma))


def _gaussian_sample(theta, o, count, rng):
    # Box-Muller on (u, u2); 1-u keeps the log argument in (0, 1].
    u = rng.random(count)
    u2 = rng.random(count)
    z = np.sqrt(-2.0 * np.log1p(-u)) * np.cos(2.0 * math.pi * u2)
    return theta[o] + theta[o + 1] * z


def _gaussian_cdf(theta, o, x):
    # Imported here, not with the module: scipy.special adds about 0.1 s
    # and 6 MB to every process that imports igac, and only this form needs it.
    from scipy.special import erf
    return 0.5 * (1.0 + erf((x - theta[o]) / (theta[o + 1] * math.sqrt(2.0))))


# Both spacing laws are scale families p(x) = f(x/mu)/mu with the Fisher
# metric c/mu^2, i.e. the constant c du^2 in u = log(mu): flat, with no
# connection in the log chart.
#
# In the chart (mu, u = log sigma) the Gaussian metric is
# e^{-2u} dmu^2 + 2 du^2.  Its frame e_mu = e^u d/dmu, e_u = d/du has the
# constant metric diag(1, 2) and constant connection: nabla_{e_mu} e_mu =
# e_u / 2 and nabla_{e_mu} e_u = -e_mu.  The velocity components in it are
# p = e^{-u} dmu/dtau and q = du/dtau, so the geodesic equation reads
# dmu/dtau = e^u p, dp/dtau = p q, dq/dtau = -p^2 / 2: no product in it
# over- or underflows however deep the geodesic runs into sigma -> 0.
# The block has constant sectional curvature -1/2, so in the frame
# R^m_nrs = -(delta^m_r g_sn - delta^m_s g_rn) / 2 with g = diag(1, 2).

KINDS = {rec.kind: rec for rec in (
    AtomicKind(
        EXPONENTIAL, (_POS,), HALFLINE, (_SCALE_BOX,),
        log_density=lambda theta, o, x: np.where(
            x >= 0.0, -x / theta[o] - np.log(theta[o]), -math.inf),
        moments=lambda theta, o: (theta[o], theta[o] ** 2),
        sample=lambda theta, o, count, rng: (
            -theta[o] * np.log1p(-rng.random(count))),
        cdf=lambda theta, o, x: np.where(
            x >= 0.0, -np.expm1(-x / theta[o]), 0.0),
        frame_metric=(1.0,),
        frame_rates=((0.0,),)),
    AtomicKind(
        WIGNER_DYSON, (_POS,), HALFLINE, (_SCALE_BOX,),
        log_density=_wigner_dyson_log_density,
        moments=lambda theta, o: (
            theta[o], (4.0 / math.pi - 1.0) * theta[o] ** 2),
        sample=lambda theta, o, count, rng: theta[o] * np.sqrt(
            -(4.0 / math.pi) * np.log1p(-rng.random(count))),
        cdf=lambda theta, o, x: np.where(
            x >= 0.0, -np.expm1(-np.pi * x * x / (4.0 * theta[o] ** 2)), 0.0),
        frame_metric=(4.0,),
        frame_rates=((0.0,),)),
    AtomicKind(
        GAUSSIAN, (_REAL, _POS), REALLINE, (_LOCATION_BOX, _SCALE_BOX),
        log_density=_gaussian_log_density,
        moments=lambda theta, o: (theta[o], theta[o + 1] ** 2),
        sample=_gaussian_sample,
        cdf=_gaussian_cdf,
        frame_metric=(1.0, 2.0),
        frame_rates=((0.0, 1.0), (0.0, 0.0)),
        frame_christoffel=(((0, 0, 1), -1.0), ((1, 0, 0), 0.5)),
        frame_riemann=(((0, 1, 0, 1), -1.0), ((0, 1, 1, 0), 1.0),
                       ((1, 0, 1, 0), -0.5), ((1, 0, 0, 1), 0.5))),
)}


@dataclass(frozen=True)
class FamilySpec:
    """A named probability family over one or more microvariables.

    ``kind`` is one of the atomic kinds or ``composite``; composites
    carry their atomic factors in order.  ``param_domain`` entries are
    open intervals; scale parameters have strictly positive lower
    bounds.  ``supports`` labels each microvariable's support
    (``halfline`` or ``real``).
    """

    name: str
    kind: str
    param_names: tuple[str, ...]
    param_domain: tuple[tuple[float, float], ...]
    supports: tuple[str, ...]
    factors: tuple["FamilySpec", ...] = field(default=())

    @property
    def n_params(self) -> int:
        return len(self.param_names)

    @property
    def n_micro(self) -> int:
        return len(self.supports)

    def atomic_factors(self) -> tuple["FamilySpec", ...]:
        """The atomic factors (the family itself when already atomic)."""
        return self.factors or (self,)


def _atomic_family(kind: str, params: tuple[str, ...], name: str) -> FamilySpec:
    rec = KINDS[kind]
    if (not isinstance(params, (tuple, list)) or len(params) != rec.n_params
            or not all(isinstance(p, str) for p in params)):
        raise ShapeError(f"a {kind} family takes {rec.n_params} parameter "
                         f"name(s), one string each, got {params!r}")
    return FamilySpec(name, kind, tuple(params), rec.param_domain,
                      (rec.support,))


def exponential_family(param: str = "mu", name: str = EXPONENTIAL) -> FamilySpec:
    return _atomic_family(EXPONENTIAL, (param,), name)


def wigner_dyson_family(param: str = "mu", name: str = WIGNER_DYSON) -> FamilySpec:
    return _atomic_family(WIGNER_DYSON, (param,), name)


def gaussian_family(params: tuple[str, str] = ("mu", "sigma"),
                    name: str = GAUSSIAN) -> FamilySpec:
    return _atomic_family(GAUSSIAN, params, name)


def product_family(factors, name: str = COMPOSITE) -> FamilySpec:
    """Independent product of atomic families, parameters concatenated."""
    factors = tuple(factors)
    if not factors:
        raise ShapeError("a product family needs at least one factor")
    names: list[str] = []
    domains: list[tuple[float, float]] = []
    supports: list[str] = []
    for fac in factors:
        if fac.factors:
            raise UnsupportedFamilyError("product factors must be atomic families")
        names.extend(fac.param_names)
        domains.extend(fac.param_domain)
        supports.extend(fac.supports)
    if len(set(names)) != len(names):
        raise ShapeError(f"duplicate parameter names in product family: {names}")
    return FamilySpec(name, COMPOSITE, tuple(names), tuple(domains),
                      tuple(supports), factors)


def composite_integrable() -> FamilySpec:
    return product_family(
        (exponential_family("mu_A"), exponential_family("mu_B")),
        name="composite_integrable")


def composite_chaotic() -> FamilySpec:
    return product_family(
        (wigner_dyson_family("mu_A"), gaussian_family(("mu_B", "sigma_B"))),
        name="composite_chaotic")


_REGISTRY = {
    EXPONENTIAL: exponential_family,
    "poisson_spacing": exponential_family,
    GAUSSIAN: gaussian_family,
    WIGNER_DYSON: wigner_dyson_family,
    "composite_integrable": composite_integrable,
    "composite_chaotic": composite_chaotic,
}

FAMILY_NAMES = tuple(_REGISTRY)


def family(name: str) -> FamilySpec:
    """Look up a family by name; ``poisson_spacing`` aliases ``exponential``."""
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise UnsupportedFamilyError(
            f"unknown family {name!r}; known: {', '.join(FAMILY_NAMES)}") from None


def check_params(fam: FamilySpec, theta) -> np.ndarray:
    """Validate a parameter point, naming the offending parameter on failure."""
    arr = np.asarray(theta, dtype=float).reshape(-1)
    if arr.size != fam.n_params:
        raise ShapeError(
            f"family {fam.name!r} takes {fam.n_params} parameters "
            f"({', '.join(fam.param_names)}), got {arr.size}")
    for i, (val, (lo, hi)) in enumerate(zip(arr.tolist(), fam.param_domain)):
        if not (lo < val < hi) or not math.isfinite(val):
            raise DomainError(
                f"parameter {fam.param_names[i]}={val!r} outside open interval "
                f"({lo}, {hi}) for family {fam.name!r}",
                parameter=fam.param_names[i])
    return arr


def factor_layout(fam: FamilySpec) -> tuple[tuple[AtomicKind, int], ...]:
    """(record, parameter offset) of each atomic factor, in order."""
    layout, off = [], 0
    for fac in fam.atomic_factors():
        rec = KINDS.get(fac.kind)
        if rec is None:
            raise UnsupportedFamilyError(
                f"no closed forms registered for kind {fac.kind!r}")
        layout.append((rec, off))
        off += rec.n_params
    return tuple(layout)


def log_density(fam: FamilySpec, theta, x) -> np.ndarray | float:
    """Log density; supports x of shape () / (n_micro,) / (m, n_micro)."""
    th = check_params(fam, theta)
    xs = np.asarray(x, dtype=float)
    scalar_in = xs.ndim == 0
    if fam.n_micro == 1:
        cols = xs.reshape(-1, 1) if xs.ndim <= 1 else xs
    else:
        cols = xs.reshape(1, -1) if xs.ndim == 1 else xs
    if cols.ndim != 2 or cols.shape[1] != fam.n_micro:
        raise ShapeError(
            f"family {fam.name!r} has {fam.n_micro} microvariables, "
            f"got x of shape {xs.shape}")
    total = np.zeros(cols.shape[0])
    for col, (rec, o) in enumerate(factor_layout(fam)):
        total = total + rec.log_density(th, o, cols[:, col])
    if scalar_in or (xs.ndim == 1 and fam.n_micro > 1):
        return float(total[0])
    return total


def density(fam: FamilySpec, theta, x) -> np.ndarray | float:
    """Density value; zero (not an error) outside the microvariable support."""
    out = np.exp(log_density(fam, theta, x))
    return float(out) if np.ndim(out) == 0 else out


def moments(fam: FamilySpec, theta) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form per-microvariable means and variances."""
    th = check_params(fam, theta)
    means, variances = zip(*(rec.moments(th, o) for rec, o in factor_layout(fam)))
    return np.array(means), np.array(variances)


def sample(fam: FamilySpec, theta, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` microstates; deterministic for a fixed seed.

    Returns shape (count,) for univariate families and (count, n_micro)
    for composites.  Each factor draws by inverse CDF (Box-Muller for
    the Gaussian) from one generator, in factor order.
    """
    th = check_params(fam, theta)
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    rng = np.random.Generator(np.random.PCG64(seed))
    cols = [rec.sample(th, o, count, rng) for rec, o in factor_layout(fam)]
    if fam.n_micro == 1:
        return cols[0]
    return np.stack(cols, axis=1)


def cdf(fam: FamilySpec, theta, x) -> np.ndarray | float:
    """Closed-form CDF for univariate families (used by sampling checks)."""
    th = check_params(fam, theta)
    if fam.n_micro != 1:
        raise ShapeError(f"cdf is defined for univariate families, not {fam.name!r}")
    ((rec, o),) = factor_layout(fam)
    out = rec.cdf(th, o, np.asarray(x, dtype=float))
    return float(out) if np.ndim(x) == 0 else np.asarray(out)
