"""Reference kernels: fixed work that does not use igac, timed between ops.

The host's cores run at a speed that drifts by tens of percent over seconds
to minutes, so the wall-clock op times of two runs compare the host as much
as the program.  A reference kernel of the same kind of work as the
workload's ops, run between them, slows down with them: a run's busy time
divided by the kernel's mean time (``op_cost_ref``) is steadier than the
busy time.  The kernels:

* ``ode``: a fixed-step RK4 walk along a geodesic of the hyperbolic half
  plane with 4-element numpy arrays, like the integrator's inner loop in
  ``igac.dynamics`` (interpreter and small-array overhead);
* ``eig``: ``eigvalsh`` of a fixed complex Hermitian matrix, like the spin
  chain eigensolves (dense LAPACK).

The kernels are part of the benchmark, so a change to igac does not move
them; a change to them redefines ``op_cost_ref``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Reference seconds run between ops per second of op time.
SHARE = 0.1
ODE_STEPS = 400             # about 12 ms
EIG_DIM = 300               # about 15 ms
# Kernels timed together as one reference unit, per workload, by where the
# workload spends its time (see NOTES.md, per-layer self times).
KERNELS = {
    "reproduce": ("ode", "eig"),
    "trajectories": ("ode",),
    "spectra": ("eig",),
}

_RK4_A = np.array([[0.0, 0.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0],
                   [0.0, 0.5, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
_RK4_B = np.array([1.0, 2.0, 2.0, 1.0]) / 6.0


def _geodesic_rhs(y: np.ndarray) -> np.ndarray:
    """Geodesic equations of (dx^2 + ds^2) / s^2 for y = (x, s, x', s')."""
    x, s, vx, vs = y
    return np.array([vx, vs, 2.0 * vx * vs / s, (vs * vs - vx * vx) / s])


def _ode() -> float:
    y = np.array([0.0, 1.0, 0.6, 0.3])
    h = 0.01
    k = np.empty((4, 4))
    for _ in range(ODE_STEPS):
        for i in range(4):
            k[i] = _geodesic_rhs(y + h * (_RK4_A[i, :i] @ k[:i]))
        y = y + h * (_RK4_B @ k)
    return float(y[1])


class Reference:
    """The workload's reference kernels, run between ops until their total
    time is SHARE of the ops' busy time, so that their samples spread over
    the run in proportion to the ops."""

    def __init__(self, workload: str):
        rng = np.random.default_rng(0)
        a = (rng.standard_normal((EIG_DIM, EIG_DIM))
             + 1j * rng.standard_normal((EIG_DIM, EIG_DIM)))
        matrix = a + a.conj().T
        kernels = {"ode": _ode, "eig": lambda: np.linalg.eigvalsh(matrix)}
        self.kernels = [kernels[name] for name in KERNELS[workload]]
        self.times: list[float] = []
        self.run_once()             # warm-up: BLAS threads, caches
        self.times.clear()

    def run_once(self) -> None:
        start = time.perf_counter()
        for kernel in self.kernels:
            kernel()
        self.times.append(time.perf_counter() - start)

    def keep_up(self, busy_s: float) -> None:
        while sum(self.times) < SHARE * busy_s:
            self.run_once()

    def unit_s(self) -> float:
        """Mean, not median: the ops' time is spread over the run's slow and
        fast spells in the same proportion as the kernel's samples."""
        return statistics.fmean(self.times)
