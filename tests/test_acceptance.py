"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; each test asserts its stated tolerance and runtime budget.
"""

import math
import time

import numpy as np

from igac import (analyze_chain, chaotic_model, christoffel, curvature,
                  diagonalize, build_hamiltonian, estimate_lambda_j,
                  euclidean_model, family, fisher_metric_closed_form,
                  fisher_metric_quadrature, fit_growth, gaussian_model,
                  integrable_model, integrate_geodesic, integrate_jacobi,
                  reverse_initial_conditions, cdf, sample,
                  scalar_sign_classification, volume_series)
from igac.geometry import _metric_partials
from igac.spinchain import ChainSpec

from conftest import fd_view

SQRT2 = math.sqrt(2.0)


def report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status} -- {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def grid(fam, per_param=5):
    axes = []
    for lo, _hi in fam.param_domain:
        axes.append(np.linspace(0.5, 2.5, per_param) if lo == 0.0
                    else np.linspace(-1.0, 1.0, per_param))
    mesh = np.meshgrid(*axes, indexing="ij")
    return list(zip(*(m.ravel() for m in mesh)))


def test_criterion_1_metric_fidelity():
    t0 = time.time()
    worst = 0.0
    for name in ("composite_integrable", "composite_chaotic"):
        fam = family(name)
        for theta in grid(fam):
            closed = fisher_metric_closed_form(fam, theta)
            quad = fisher_metric_quadrature(fam, theta).matrix
            rel = np.linalg.norm(quad - closed) / np.linalg.norm(closed)
            worst = max(worst, rel)
    elapsed = time.time() - t0
    report(1, "metric fidelity", worst < 1e-5 and elapsed < 10.0,
           f"max rel error {worst:.2e} (< 1e-5), runtime {elapsed:.1f}s (< 10s)")


def test_criterion_2_curvature_signs():
    t0 = time.time()
    im, cm = integrable_model(), chaotic_model()
    flat_worst = max(abs(curvature(fd_view(im), p).scalar)
                     for p in im.random_points(50, seed=101))
    chaotic_dev = max(abs(curvature(fd_view(cm), p).scalar + 1.0)
                      for p in cm.random_points(50, seed=102))
    sign = scalar_sign_classification(
        [curvature(cm, p) for p in cm.random_points(50, seed=103)])
    elapsed = time.time() - t0
    ok = (flat_worst < 1e-6 and chaotic_dev < 1e-4
          and sign.classification == "negative" and elapsed < 30.0)
    report(2, "curvature signs", ok,
           f"integrable |R| max {flat_worst:.2e} (< 1e-6), chaotic |R+1| max "
           f"{chaotic_dev:.2e} (< 1e-4), sign {sign.classification}, "
           f"runtime {elapsed:.1f}s (< 30s)")


def test_criterion_3_geodesic_correctness():
    im = integrable_model()
    worst_exp = 0.0
    for mu0, v in ((1.0, 1.0), (2.0, -0.5), (0.7, 0.3)):
        traj = integrate_geodesic(im, (mu0, 1.0), (v * mu0, 0.0), 1.0, tol=1e-10)
        worst_exp = max(worst_exp, abs(traj.coords[-1][0] - mu0 * math.exp(v)))
    drift = 0.0
    for mdl, theta0, v0 in ((im, (1.0, 1.0), (1.0, 1.0)),
                            (chaotic_model(), (1.0, 0.0, 1.0), (0.25, 0.1, -0.2))):
        traj = integrate_geodesic(mdl, theta0, v0, 10.0, tol=1e-10)
        drift = max(drift, float(np.max(np.abs(traj.speed - traj.speed[0]))))
    fwd = integrate_geodesic(im, (1.0, 1.0), (1.0, 1.0), 5.0, tol=1e-10)
    theta, vel = reverse_initial_conditions(fwd)
    back = integrate_geodesic(im, theta, vel, 5.0, tol=1e-10)
    round_trip = float(np.max(np.abs(back.coords[-1] - [1.0, 1.0])))
    ok = worst_exp < 1e-6 and drift < 1e-8 and round_trip < 1e-6
    report(3, "geodesic correctness", ok,
           f"exp-solution error {worst_exp:.2e} (< 1e-6), speed drift "
           f"{drift:.2e} (< 1e-8), round trip {round_trip:.2e} (< 1e-6)")


def test_criterion_4_jacobi_lyapunov():
    gm = gaussian_model()
    base5 = integrate_geodesic(gm, (0.0, 1.0), (0.0, 1.0 / SQRT2), 5.0, tol=1e-10)
    jac5 = integrate_jacobi(gm, base5, (0.0, 0.0), (1.0, 0.0), tol=1e-10)
    expected = SQRT2 * math.sinh(5.0 / SQRT2)
    sinh_rel = abs(jac5.jacobi_norm[-1] / expected - 1.0)

    base30 = integrate_geodesic(gm, (0.0, 1.0), (0.0, 1.0 / SQRT2), 30.0,
                                tol=1e-10, samples=1024)
    jac30 = integrate_jacobi(gm, base30, (0.0, 0.0), (1.0, 0.0), tol=1e-10)
    est = estimate_lambda_j(jac30, (10.0, 30.0))
    lam_rel = abs(est.lambda_j * SQRT2 - 1.0)

    em = euclidean_model(2)
    flat_base = integrate_geodesic(em, (0.0, 0.0), (1.0, 0.0), 30.0,
                                   tol=1e-10, samples=1024)
    flat_jac = integrate_jacobi(em, flat_base, (1.0, 0.0), (0.0, 0.0), tol=1e-10)
    flat_lam = abs(estimate_lambda_j(flat_jac, (10.0, 30.0)).lambda_j)

    ok = sinh_rel < 1e-3 and lam_rel < 0.02 and flat_lam < 0.05
    report(4, "jacobi/lyapunov", ok,
           f"sinh growth rel err {sinh_rel:.2e} (< 1e-3), lambda_J rel err "
           f"{lam_rel:.2%} (< 2%), flat lambda_J {flat_lam:.2e} (< 0.05)")


def test_criterion_5_ige_dichotomy():
    t0 = time.time()
    im = integrable_model()
    traj = integrate_geodesic(im, (1.0, 1.0), (1.0, 1.0), 100.0, tol=1e-10,
                              samples=1024)
    fit_i = fit_growth(volume_series(im, traj), (10.0, 100.0))
    t_int = time.time() - t0

    t1 = time.time()
    cm = chaotic_model()
    traj = integrate_geodesic(cm, (1.0, 0.0, 1e4), (0.25, 0.0, -2500.0),
                              100.0, tol=1e-10, samples=1024)
    fit_c = fit_growth(volume_series(cm, traj), (10.0, 100.0))
    t_cha = time.time() - t1

    c_dev = abs(fit_i.logarithmic.slope - 2.0) / 2.0
    ok = (fit_i.selected == "logarithmic" and c_dev < 0.05
          and fit_c.selected == "linear" and fit_c.linear.slope > 0.0
          and fit_c.linear.r2 > 0.999 and t_int < 120.0 and t_cha < 120.0)
    report(5, "ige dichotomy", ok,
           f"integrable {fit_i.selected} c={fit_i.logarithmic.slope:.4f} "
           f"(2 +/- 5%), chaotic {fit_c.selected} K={fit_c.linear.slope:.4f} "
           f"(> 0) r2={fit_c.linear.r2:.5f} (> 0.999), runtimes "
           f"{t_int:.0f}s/{t_cha:.0f}s (< 120s each)")


def test_criterion_6_spin_chain_lsd():
    t0 = time.time()
    details = []
    ok = True
    for n in (11, 12):
        regular = analyze_chain(ChainSpec(n, 0.0, 2.0, sector="reflection_even"),
                                trim_fraction=0.1)
        chaotic = analyze_chain(ChainSpec(n, 1.0, 1.0, sector="reflection_even"),
                                trim_fraction=0.1)
        margin_r = abs(regular.ks_poisson - regular.ks_wigner)
        margin_c = abs(chaotic.ks_poisson - chaotic.ks_wigner)
        ok = ok and (regular.verdict == "poisson_like" and margin_r >= 0.03
                     and chaotic.verdict == "wigner_like" and margin_c >= 0.03)
        details.append(f"n={n}: H(0,2) {regular.verdict} margin {margin_r:.3f}, "
                       f"H(1,1) {chaotic.verdict} margin {margin_c:.3f}")
    elapsed = time.time() - t0
    ok = ok and elapsed < 300.0
    report(6, "spin-chain LSD", ok,
           "; ".join(details) + f"; runtime {elapsed:.0f}s (< 300s)")


def test_criterion_7_structural_invariants():
    t0 = time.time()
    checks = {}

    cm, gm = chaotic_model(), gaussian_model()
    bianchi = 0.0
    compat = 0.0
    for mdl in (cm, gm):
        for theta in mdl.random_points(5, seed=71):
            theta = np.asarray(theta)
            r = curvature(fd_view(mdl), theta).riemann
            cyc = r + np.einsum("mrsn->mnrs", r) + np.einsum("msnr->mnrs", r)
            bianchi = max(bianchi, float(np.max(np.abs(cyc))))
            g = mdl.metric(theta)
            gam = christoffel(fd_view(mdl), theta, fd_step=1e-5)
            _, dg = _metric_partials(mdl, theta, 1e-5, theta)
            nabla = (dg - np.einsum("rlm,rn->lmn", gam, g)
                     - np.einsum("rln,mr->lmn", gam, g))
            compat = max(compat, float(np.max(np.abs(nabla))))
    checks["bianchi"] = bianchi < 1e-5
    checks["metric_compatibility"] = compat < 1e-6

    trace_ok = True
    union_ok = True
    for n in range(2, 9):
        h = build_hamiltonian(ChainSpec(n, 0.9, 1.1, sector="full"))
        trace_ok = trace_ok and math.fsum(np.diagonal(h)) == 0.0
        full = diagonalize(h)
        union = np.sort(np.concatenate([
            diagonalize(build_hamiltonian(ChainSpec(n, 0.9, 1.1,
                                                    sector="reflection_even"))),
            diagonalize(build_hamiltonian(ChainSpec(n, 0.9, 1.1,
                                                    sector="reflection_odd")))]))
        union_ok = union_ok and float(np.max(np.abs(union - full))) < 1e-9
    checks["trace_zero"] = trace_ok
    checks["sector_union"] = union_ok

    ks_ok = True
    for name in ("exponential", "gaussian", "wigner_dyson"):
        fam = family(name)
        theta = (1.0,) if fam.n_params == 1 else (0.0, 1.0)
        xs = np.sort(sample(fam, theta, 10_000, seed=79))
        n = len(xs)
        ref = cdf(fam, theta, xs)
        d = max(float(np.max(np.arange(1, n + 1) / n - ref)),
                float(np.max(ref - np.arange(0, n) / n)))
        ks_ok = ks_ok and d < 0.02
    checks["sampling_ks"] = ks_ok

    elapsed = time.time() - t0
    ok = all(checks.values()) and elapsed < 600.0
    report(7, "structural invariants", ok,
           ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items())
           + f", runtime {elapsed:.0f}s (< 600s)")
