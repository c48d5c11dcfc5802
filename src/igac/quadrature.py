"""Gauss-Legendre rules and the change-of-variable maps for unbounded supports.

Half-infinite supports (0, inf) are mapped through x = t/(1-t) with
t in (0, 1); the full real line through x = t/(1-t^2) with t in (-1, 1).
Both maps are smooth and push the integrand's tail decay onto the
interval endpoints, so plain Gauss-Legendre nodes converge quickly for
the exponential-tailed densities used here.  The rules are for a unit
density at the origin, which is where the Fisher quadrature in
``igac.manifold`` takes every kind's block: at location 0 and scale 1.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

HALFLINE = "halfline"
REALLINE = "real"


@lru_cache(maxsize=64)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(int(n))


def halfline_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights integrating f over (0, inf) via x = t/(1-t)."""
    t, w = _leggauss(int(n))
    t, w = 0.5 * (t + 1.0), 0.5 * w
    x = t / (1.0 - t)
    jac = 1.0 / (1.0 - t) ** 2
    return x, w * jac


def realline_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights integrating f over (-inf, inf) via x = t/(1-t^2)."""
    t, w = _leggauss(int(n))
    x = t / (1.0 - t * t)
    jac = (1.0 + t * t) / (1.0 - t * t) ** 2
    return x, w * jac


def support_rule(kind: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Dispatch on a support label: ``halfline`` or ``real``."""
    if kind == HALFLINE:
        return halfline_rule(n)
    if kind == REALLINE:
        return realline_rule(n)
    raise ValueError(f"unknown support kind {kind!r}")

