"""The three benchmark workloads: seeded inputs, one callable per op, output checks.

A workload yields *blocks* of ops.  A block is the smallest group whose mix
of op kinds and input sizes is the same in every run, so a run measures whole
blocks and a different seed changes the inputs but not the mix.  Each op has
a ``run`` callable (the timed call into igac) and a ``check`` callable (the
benchmark's own verification, not timed).  ``run`` lets ``igac.IgacError``
and ``Refused`` propagate, which the runner counts as a failed op by class;
``check`` raises ``WrongOutput`` for an output that is wrong.  Any other
exception is a defect in the program or the benchmark and ends the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from igac import cli, dynamics, families, ige, manifold, spinchain

SQRT2 = math.sqrt(2.0)


class Refused(Exception):
    """A CLI command exited non-zero; ``cls`` names its error category."""

    def __init__(self, cls: str, message: str):
        super().__init__(message)
        self.cls = cls


class WrongOutput(Exception):
    """An op returned, but a check on its output failed.

    ``cls`` groups failures for the accounting, e.g. ``truncated`` or
    ``speed_drift``; the message gives the numbers.
    """

    def __init__(self, cls: str, message: str):
        super().__init__(message)
        self.cls = cls


@dataclass
class Op:
    """One timed call chain into igac plus the check of its output.

    ``anchor`` ops have fixed expected outcomes at every commit; a failed
    anchor makes the run's ``correct`` false.  ``sizes`` records the op's
    input sizes (samples, sector dimension, grid points).  Ops of one
    ``group`` (by default, of one label) run the same call chain at the same
    input size; the runner takes the median time of each group.
    """

    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]
    sizes: dict = field(default_factory=dict)
    anchor: bool = False
    group: str = ""

    def __post_init__(self):
        self.group = self.group or self.label


def _child_rng(rng: np.random.Generator) -> int:
    return int(rng.integers(2 ** 31))


def _cli(argv: list[str]) -> None:
    """Run one igac command in-process; a non-zero exit raises Refused."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        text = err.getvalue().strip()
        try:
            category = json.loads(text.splitlines()[-1]).get("error", "unknown")
        except (ValueError, IndexError):
            category = "unknown"
        raise Refused(f"cli_exit_{code}_{category}", f"igac {argv[0]}: {text}")


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _expect(ok: bool, cls: str, message: str) -> None:
    if not ok:
        raise WrongOutput(cls, message)


# ---------------------------------------------------------------------------
# reproduce: the README's canonical commands plus report, as users run them
# ---------------------------------------------------------------------------

_README = [
    ["metric", "--family", "composite_chaotic", "--grid",
     "mu_A=0.5:2.5:5,mu_B=-1:1:5,sigma_B=0.5:2.5:5", "--out", "metric"],
    ["curvature", "--manifold", "chaotic", "--sample", "50", "--out", "curv"],
    ["ige", "--manifold", "integrable", "--plot", "--out", "ige-reg"],
    ["ige", "--manifold", "chaotic", "--plot", "--out", "ige-cha"],
    ["jacobi", "--manifold", "gaussian", "--tol", "1e-10", "--out", "jacobi"],
    ["chain", "--n", "11", "--hx", "0", "--hy", "2", "--sector",
     "reflection_even", "--plot", "--out", "chain-reg"],
    ["chain", "--n", "11", "--hx", "1", "--hy", "1", "--sector",
     "reflection_even", "--plot", "--out", "chain-cha"],
]
_REPORT_INPUTS = ["metric/metric.json", "curv/curvature.json",
                  "ige-reg/ige.json", "ige-cha/ige.json", "jacobi/jacobi.json",
                  "chain-reg/chain.json", "chain-cha/chain.json"]
# Files the determinism contract keeps byte-identical between runs.
_DETERMINISTIC = [f"{d}/{f}" for d in ("ige-reg", "ige-cha")
                  for f in ("ige_series.csv", "ige.json", "ige.svg")]


class Reproduce:
    """One op is the whole README bundle, run through ``igac.cli.main``."""

    name = "reproduce"

    def __init__(self, seed: int, scratch: Path):
        self.rng = np.random.default_rng(seed)
        self.scratch = scratch
        self.reference_digests: dict[str, str] | None = None

    def blocks(self):
        while True:
            yield [self._bundle(_child_rng(self.rng))]

    def _bundle(self, curvature_seed: int) -> Op:
        def run() -> Path:
            self.scratch.mkdir(parents=True, exist_ok=True)
            out = Path(tempfile.mkdtemp(prefix="reproduce-", dir=self.scratch))
            for argv in _README:
                argv = argv[:-1] + [str(out / argv[-1])]
                if argv[0] == "curvature":
                    argv += ["--seed", str(curvature_seed)]
                _cli(argv)
            _cli(["report", *(str(out / p) for p in _REPORT_INPUTS),
                  "--out", str(out / "report")])
            return out

        def check(out: Path) -> None:
            try:
                self._check(out)
            finally:
                shutil.rmtree(out, ignore_errors=True)

        return Op("bundle", f"README bundle, curvature seed {curvature_seed}",
                  run, check, {"commands": len(_README) + 1}, anchor=True,
                  group="bundle")

    def _check(self, out: Path) -> None:
        rep = _read_json(out / "report" / "report.json")
        mans, chain = rep["manifolds"], rep["chain"]
        _expect(rep["missing"] == [], "report", f"report misses {rep['missing']}")
        integ = mans["integrable"]
        _expect(integ["ige"] == "logarithmic"
                and abs(integ["ige_rate"] - 2.0) / 2.0 < 0.05, "ige_integrable",
                f"integrable {integ['ige']} c={integ['ige_rate']} (want log, 2 +/- 5%)")
        chaos = mans["chaotic"]
        _expect(chaos["ige"] == "linear" and chaos["ige_rate"] > 0.0, "ige_chaotic",
                f"chaotic {chaos['ige']} K={chaos['ige_rate']} (want linear, K > 0)")
        lam = mans["gaussian"]["lambda_j"]
        _expect(abs(lam * SQRT2 - 1.0) < 0.02, "lambda_j",
                f"gaussian lambda_J={lam} (want 1/sqrt2 +/- 2%)")
        _expect(chaos["scalar_sign"] == "negative", "curvature_sign",
                f"chaotic curvature {chaos['scalar_sign']} (want negative)")
        err = rep["metric"]["composite_chaotic"]["max_rel_error"]
        _expect(err < 1e-5, "metric", f"metric max_rel_error {err} (want < 1e-5)")
        _expect(chain.get("(0,2)") == "poisson_like"
                and chain.get("(1,1)") == "wigner_like", "chain_verdict",
                f"chain verdicts {chain}")
        digests = {p: hashlib.sha256((out / p).read_bytes()).hexdigest()
                   for p in _DETERMINISTIC}
        if self.reference_digests is None:
            self.reference_digests = digests
        changed = [p for p in _DETERMINISTIC
                   if digests[p] != self.reference_digests[p]]
        _expect(not changed, "not_byte_identical",
                f"{changed} differ from the run's first bundle")


# ---------------------------------------------------------------------------
# trajectories: seeded library call chains on the three manifolds
# ---------------------------------------------------------------------------

TAU = 10.0
SAMPLES = (64, 512, 4096)
LOG10_SPEED = (-1.0, 2.0)          # g-speed log-uniform over 0.1 .. 100
CHAINS = ("geodesic", "ige", "jacobi_closed", "jacobi_fd")
MODELS = ("integrable", "chaotic", "gaussian")
# The finite-difference Jacobi chain costs about 7x the closed-form one; at
# 4096 samples one draw takes 10-15 s, longer than a whole block, so that
# chain draws only the two smaller sample counts.
FD_MAX_SAMPLES = 512
# Largest relative g-speed drift accepted.  Closed-form draws at the default
# tol=1e-8 stay below about 1e-8; a larger drift is a wrong trajectory.
SPEED_DRIFT_BOUND = 1e-6


def _check_trajectory(traj, speed0: float) -> None:
    if traj.boundary_event is not None:
        ev = traj.boundary_event
        raise WrongOutput("truncated", f"stopped at tau={ev.tau:.4g} with "
                          f"{ev.coordinate_name}={ev.value:.3g} (complete manifold)")
    arrays = [traj.coords, traj.velocity, traj.speed]
    if traj.jacobi_norm is not None:
        arrays += [traj.jacobi, traj.jacobi_norm]
    _expect(all(np.all(np.isfinite(a)) for a in arrays), "non_finite",
            "trajectory holds non-finite values")
    drift = float(np.max(np.abs(traj.speed - speed0))) / speed0
    _expect(drift <= SPEED_DRIFT_BOUND, "speed_drift",
            f"relative g-speed drift {drift:.3g} > {SPEED_DRIFT_BOUND:g} "
            f"(speed {speed0:.4g} at tau=0, reported {traj.speed[-1]:.4g} at end)")


def _icosahedron() -> np.ndarray:
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    verts = []
    for a in (-1.0, 1.0):
        for b in (-phi, phi):
            verts += [(0.0, a, b), (a, b, 0.0), (b, 0.0, a)]
    verts = np.array(verts)
    return verts / np.linalg.norm(verts, axis=1, keepdims=True)


# Twelve strata each for log-speed and for direction.
STRATA = 12
# Each draw's place inside its speed stratum, and in 2-d inside its direction
# stratum, falls in one third of it; the thirds turn over from block to
# block, so any three consecutive blocks (a run measures at least three)
# cover every stratum evenly.
THIRDS = 3
SPHERE = _icosahedron()         # twelve spread directions for the 3-d manifold


class Trajectories:
    """Geodesic, entropy-growth and Jacobi call chains on random draws.

    A block crosses every chain with every manifold and every sample count
    (33 draws, see FD_MAX_SAMPLES) and adds the canonical runs of acceptance
    criteria 4 and 5 as anchors.  Draws are stratified, because a draw's
    g-speed and direction decide whether it fails and how long it runs: on
    each manifold the log-speed range is cut into twelve strata and each
    draw owns one, assigned so that every chain and every sample count spans
    low, middle and high speeds (a Latin square, shifted per manifold); each
    draw also owns one of twelve direction strata.  The seed places each draw
    inside its strata and draws its start point with ``random_points``, so
    the block's mix of speeds, directions and failures stays put from seed
    to seed while every input changes; see THIRDS for how consecutive blocks
    share a stratum.
    """

    name = "trajectories"

    def __init__(self, seed: int, scratch: Path):
        self.rng = np.random.default_rng(seed)
        self.models = {name: manifold.model(name) for name in MODELS}
        self.euclidean = manifold.euclidean_model(2)
        self.made = 0

    def blocks(self):
        while True:
            yield self._block()
            self.made += 1

    def _block(self) -> list[Op]:
        ops = self._anchors()
        span = LOG10_SPEED[1] - LOG10_SPEED[0]
        for m, model_name in enumerate(MODELS):
            for k, chain in enumerate(CHAINS):
                for j, samples in enumerate(SAMPLES):
                    if chain == "jacobi_fd" and samples > FD_MAX_SAMPLES:
                        continue
                    speed_stratum = 4 * ((k + j + m) % 3) + k
                    third = (self.made + k + j + m) % THIRDS
                    log_speed = LOG10_SPEED[0] + span * (
                        speed_stratum + (third + self.rng.random()) / THIRDS
                    ) / STRATA
                    ops.append(self._draw(chain, model_name, samples,
                                          10.0 ** log_speed,
                                          (5 * speed_stratum + m) % STRATA,
                                          (2 * self.made + k + j) % THIRDS))
        order = self.rng.permutation(len(ops))
        return [ops[i] for i in order]

    def _frame_direction(self, dim: int, stratum: int,
                         third: int) -> tuple[np.ndarray, np.ndarray]:
        """Unit direction in the given stratum (in 2-d, in the given third of
        it) and a unit vector orthogonal to it, in g-orthonormal frame
        components."""
        if dim == 2:
            angle = 2.0 * math.pi * (
                stratum + (third + self.rng.random()) / THIRDS) / STRATA
            w = np.array([math.cos(angle), math.sin(angle)])
            return w, np.array([-w[1], w[0]])
        # About 16 degrees of jitter: inside the vertex's cell, whose
        # neighbours are 63 degrees away.
        w = SPHERE[stratum] + 0.2 * self.rng.standard_normal(3)
        w /= np.linalg.norm(w)
        perp = np.cross(w, np.eye(3)[int(np.argmin(np.abs(w)))])
        return w, perp / np.linalg.norm(perp)

    def _draw(self, chain: str, model_name: str, samples: int, speed: float,
              direction_stratum: int, direction_third: int) -> Op:
        mdl = self.models[model_name]
        theta0 = mdl.random_points(1, _child_rng(self.rng))[0]
        # v = L^-T w has g-norm |w| when g = L L^T.
        chol = np.linalg.cholesky(mdl.metric_fn(theta0))
        w, perp = self._frame_direction(mdl.dim, direction_stratum,
                                        direction_third)
        v0 = speed * np.linalg.solve(chol.T, w)
        kick = np.linalg.solve(chol.T, perp)   # unit g-norm, g-orthogonal to v0
        label = (f"{chain} {model_name} theta0={np.round(theta0, 4).tolist()} "
                 f"v0={np.round(v0, 4).tolist()} tau={TAU:g} samples={samples}")

        def geodesic():
            return dynamics.integrate_geodesic(mdl, theta0, v0, TAU,
                                               samples=samples)

        if chain == "geodesic":
            run = geodesic

            def check(traj):
                _check_trajectory(traj, speed)
        elif chain == "ige":
            def run():
                traj = geodesic()
                series = ige.volume_series(mdl, traj)
                return traj, series, ige.fit_growth(series, (TAU / 10.0, TAU))

            def check(result):
                traj, series, fit = result
                _check_trajectory(traj, speed)
                values = [fit.logarithmic.slope, fit.linear.slope]
                _expect(np.all(np.isfinite(series.entropy))
                        and all(math.isfinite(v) for v in values), "non_finite",
                        "entropy series or growth fit is not finite")
        else:
            closed = chain == "jacobi_closed"

            def run():
                traj = geodesic()
                jac = dynamics.integrate_jacobi(mdl, traj, np.zeros(mdl.dim),
                                                kick, use_closed_form=closed)
                return traj, jac, dynamics.estimate_lambda_j(jac, (TAU / 3.0, TAU))

            def check(result):
                traj, jac, est = result
                _check_trajectory(traj, speed)
                _check_trajectory(jac, speed)
                _expect(math.isfinite(est.lambda_j), "non_finite",
                        "lambda_J is not finite")
        return Op(chain, label, run, check,
                  {"model": model_name, "samples": samples,
                   "speed_decade": math.floor(math.log10(speed))},
                  group=f"{chain} {model_name} samples={samples}")

    def _anchors(self) -> list[Op]:
        im, cm = self.models["integrable"], self.models["chaotic"]

        def ige_run(mdl, theta0, v0):
            def run():
                traj = dynamics.integrate_geodesic(mdl, theta0, v0, 100.0,
                                                   tol=1e-10, samples=1024)
                return ige.fit_growth(ige.volume_series(mdl, traj), (10.0, 100.0))
            return run

        def check_integrable(fit):
            c = fit.logarithmic.slope
            _expect(fit.selected == "logarithmic" and abs(c - 2.0) / 2.0 < 0.05,
                    "anchor_ige_integrable",
                    f"integrable {fit.selected} c={c:.4f} (want log, 2 +/- 5%)")

        def check_chaotic(fit):
            lin = fit.linear
            _expect(fit.selected == "linear" and lin.slope > 0.0 and lin.r2 > 0.999,
                    "anchor_ige_chaotic", f"chaotic {fit.selected} K={lin.slope:.4f} "
                    f"r2={lin.r2:.5f} (want linear, K > 0, r2 > 0.999)")

        def criterion4():
            gm, em = self.models["gaussian"], self.euclidean
            base5 = dynamics.integrate_geodesic(gm, (0.0, 1.0), (0.0, 1.0 / SQRT2),
                                                5.0, tol=1e-10)
            jac5 = dynamics.integrate_jacobi(gm, base5, (0.0, 0.0), (1.0, 0.0),
                                             tol=1e-10)
            base30 = dynamics.integrate_geodesic(gm, (0.0, 1.0), (0.0, 1.0 / SQRT2),
                                                 30.0, tol=1e-10, samples=1024)
            jac30 = dynamics.integrate_jacobi(gm, base30, (0.0, 0.0), (1.0, 0.0),
                                              tol=1e-10)
            flat_base = dynamics.integrate_geodesic(em, (0.0, 0.0), (1.0, 0.0), 30.0,
                                                    tol=1e-10, samples=1024)
            flat = dynamics.integrate_jacobi(em, flat_base, (1.0, 0.0), (0.0, 0.0),
                                             tol=1e-10)
            return (jac5.jacobi_norm[-1],
                    dynamics.estimate_lambda_j(jac30, (10.0, 30.0)).lambda_j,
                    dynamics.estimate_lambda_j(flat, (10.0, 30.0)).lambda_j)

        def check_criterion4(result):
            norm5, lam, flat_lam = result
            sinh_rel = abs(norm5 / (SQRT2 * math.sinh(5.0 / SQRT2)) - 1.0)
            _expect(sinh_rel < 1e-3 and abs(lam * SQRT2 - 1.0) < 0.02
                    and abs(flat_lam) < 0.05, "anchor_jacobi",
                    f"sinh rel err {sinh_rel:.2e}, lambda_J {lam:.5f}, "
                    f"flat lambda_J {flat_lam:.2e}")

        return [
            Op("anchor", "criterion 5, integrable canonical run",
               ige_run(im, (1.0, 1.0), (1.0, 1.0)), check_integrable,
               {"model": "integrable", "samples": 1024}, anchor=True),
            Op("anchor", "criterion 5, chaotic canonical run",
               ige_run(cm, (1.0, 0.0, 1e4), (0.25, 0.0, -2500.0)), check_chaotic,
               {"model": "chaotic", "samples": 1024}, anchor=True),
            Op("anchor", "criterion 4, gaussian and flat Jacobi runs", criterion4,
               check_criterion4, {"model": "gaussian", "samples": 1024},
               anchor=True),
        ]


# ---------------------------------------------------------------------------
# spectra: spin-chain spectra and spacing verdicts, and the reference laws
# ---------------------------------------------------------------------------

FIELDS = {(0.0, 2.0): "poisson_like", (1.0, 1.0): "wigner_like"}
SECTOR_CHAINS = [(n, sector) for n in (11, 12)
                 for sector in ("reflection_even", "reflection_odd")]
FULL_N = 10
# (family, parameter box) of the seeded sampler checks: the two reference
# spacing laws and the Gaussian bath factor.
KS_FAMILIES = {"exponential": [(0.3, 4.0)], "wigner_dyson": [(0.3, 4.0)],
               "gaussian": [(-2.0, 2.0), (0.3, 3.0)]}
KS_SAMPLES = 10_000
KS_BOUND = 0.02
# Sampler seeds cycle through 0 .. KS_SEEDS-1; each of them gives a KS
# distance below 0.019 for all three families at this commit.
KS_SEEDS = 600


class Spectra:
    """Level-spacing statistics: ``analyze_chain`` for H(0,2) and H(1,1) at
    n=11 and 12 in both parity sectors and at n=10 in the full space, plus a
    seeded ``sample`` + ``cdf`` Kolmogorov-Smirnov check of each atomic family.

    The chains have no random input; the seed sets the order of the ops in
    each block and the sampled parameters.  The sampler seeds run 0, 1, 2,
    ... (mod KS_SEEDS) in every run: the KS distance of these inverse-CDF and
    Box-Muller samplers does not depend on the parameters, so the check is
    deterministic, while a seed drawn per run would trip the 0.02 bound at
    random about once in 1500 checks at 10k samples.
    """

    name = "spectra"

    def __init__(self, seed: int, scratch: Path):
        self.rng = np.random.default_rng(seed)
        self.specs = [spinchain.ChainSpec(n, hx, hy, sector=sector)
                      for hx, hy in FIELDS
                      for n, sector in SECTOR_CHAINS + [(FULL_N, "full")]]
        self.families = {name: families.family(name) for name in KS_FAMILIES}
        self.sampler_seed = 0
        self._unions: dict[tuple[float, float], np.ndarray] = {}

    def blocks(self):
        while True:
            ops = ([self._chain(spec) for spec in self.specs]
                   + [self._ks(name, box) for name, box in KS_FAMILIES.items()])
            yield [ops[i] for i in self.rng.permutation(len(ops))]

    def _sector_union(self, hx: float, hy: float) -> np.ndarray:
        """Reference for the full-space check: both parity sectors, merged."""
        if (hx, hy) not in self._unions:
            parts = [spinchain.diagonalize(spinchain.build_hamiltonian(
                spinchain.ChainSpec(FULL_N, hx, hy, sector=s)))
                for s in ("reflection_even", "reflection_odd")]
            self._unions[(hx, hy)] = np.sort(np.concatenate(parts))
        return self._unions[(hx, hy)]

    def _chain(self, spec) -> Op:
        dim = 1 << spec.n
        if spec.sector != "full":
            palindromes = 1 << ((spec.n + 1) // 2)
            dim = (dim + palindromes) // 2
            if spec.sector == "reflection_odd":
                dim -= palindromes
        expected = FIELDS[(spec.h_x, spec.h_y)]

        def run():
            return spinchain.analyze_chain(spec)

        def check(rec):
            _expect(len(rec.eigenvalues) == dim
                    and np.all(np.isfinite(rec.eigenvalues)), "spectrum",
                    f"{len(rec.eigenvalues)} levels (want {dim} finite)")
            if spec.sector == "full":
                ref = self._sector_union(spec.h_x, spec.h_y)
                gap = float(np.max(np.abs(rec.eigenvalues - ref)))
                _expect(gap <= 1e-9, "sector_union",
                        f"full spectrum differs from the sector union by {gap:.3g}")
                return
            margin = abs(rec.ks_poisson - rec.ks_wigner)
            _expect(rec.verdict == expected and margin >= 0.03, "verdict",
                    f"verdict {rec.verdict} margin {margin:.3f} "
                    f"(want {expected}, margin >= 0.03)")

        label = f"H({spec.h_x:g},{spec.h_y:g}) n={spec.n} {spec.sector}"
        return Op(spec.sector, label, run, check,
                  {"n": spec.n, "sector_dim": dim}, anchor=True)

    def _ks(self, name: str, box) -> Op:
        fam = self.families[name]
        theta = np.array([lo + (hi - lo) * self.rng.random() for lo, hi in box])
        seed = self.sampler_seed % KS_SEEDS
        self.sampler_seed += 1

        def run():
            xs = np.sort(families.sample(fam, theta, KS_SAMPLES, seed))
            return xs, families.cdf(fam, theta, xs)

        def check(result):
            xs, ref = result
            n = len(xs)
            dist = max(float(np.max(np.arange(1, n + 1) / n - ref)),
                       float(np.max(ref - np.arange(n) / n)))
            _expect(dist < KS_BOUND, "ks", f"KS distance {dist:.4f} >= {KS_BOUND}")

        return Op("sample_cdf", f"{name} theta={np.round(theta, 4).tolist()} "
                  f"sampler seed {seed}", run, check, {"samples": KS_SAMPLES},
                  anchor=True, group=f"sample_cdf {name}")


WORKLOADS = {cls.name: cls for cls in (Reproduce, Trajectories, Spectra)}
