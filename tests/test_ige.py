import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from igac import (DomainError, FitError, InapplicableError,
                  InsufficientDataError, chaotic_model, compare_rates, family,
                  fit_growth, integrable_model, integrate_geodesic, model,
                  model_from_family, product_family, volume_series)
from igac.families import exponential_family
from igac.ige import IGESeries, _log_instant_volume


def expanding_run(mdl, theta0, v0, tau_max=100.0, samples=1024):
    return integrate_geodesic(mdl, theta0, v0, tau_max, tol=1e-10,
                              samples=samples)


def synthetic_series(tau, entropy):
    volume = np.exp(entropy)
    return IGESeries(tau_samples=tau, volume=volume, entropy=entropy,
                     tau_grid=tau, instant_volume=volume, degenerate=False)


def test_integrable_volume_closed_form():
    # Both scale factors expanding as exp(tau) from (1, 1): the box
    # integral of 1/(mu_A mu_B) is tau'^2, so V = tau^2/3 exactly
    # (symbolic integration of the double integral).
    im = integrable_model()
    traj = expanding_run(im, (1.0, 1.0), (1.0, 1.0))
    series = volume_series(im, traj)
    for tau_chk in (10.0, 40.0, 100.0):
        i = np.argmin(np.abs(series.tau_samples - tau_chk))
        tau = series.tau_samples[i]
        assert series.volume[i] == pytest.approx(tau ** 2 / 3.0, rel=5e-3)
    # instantaneous volume matches tau'^2
    j = np.argmin(np.abs(series.tau_grid - 50.0))
    assert series.instant_volume[j] == pytest.approx(
        series.tau_grid[j] ** 2, rel=1e-6)
    assert np.all(series.volume > 0.0)
    np.testing.assert_allclose(series.entropy, np.log(series.volume))


def test_general_speed_volume_closed_form():
    # mu_A = exp(v_a tau), mu_B = exp(v_b tau): V(tau) = v_a v_b tau^2 / 3.
    im = integrable_model()
    va, vb = 0.7, 1.3
    traj = expanding_run(im, (1.0, 1.0), (va, vb))
    series = volume_series(im, traj)
    i = np.argmin(np.abs(series.tau_samples - 60.0))
    tau = series.tau_samples[i]
    assert series.volume[i] == pytest.approx(va * vb * tau ** 2 / 3.0, rel=5e-3)


def test_stationary_trajectory_degenerate():
    im = integrable_model()
    traj = integrate_geodesic(im, (1.0, 1.0), (0.0, 0.0), 10.0)
    series = volume_series(im, traj)
    assert series.degenerate
    np.testing.assert_allclose(series.instant_volume, 0.0)
    assert len(series.tau_samples) == 0
    with pytest.raises(FitError):
        fit_growth(series, (1.0, 10.0))


def test_single_factor_expansion_unit_slope():
    im = integrable_model()
    traj = expanding_run(im, (1.0, 1.0), (1.0, 0.0))
    series = volume_series(im, traj)
    fit = fit_growth(series, (10.0, 100.0))
    assert fit.selected == "logarithmic"
    assert fit.logarithmic.slope == pytest.approx(1.0, rel=0.05)


def test_monotone_instantaneous_volume():
    im, cm = integrable_model(), chaotic_model()
    runs = [(im, (1.0, 1.0), (1.0, 1.0)),
            (cm, (1.0, 0.0, 1e4), (0.25, 0.0, -2500.0))]
    for mdl, theta0, v0 in runs:
        traj = expanding_run(mdl, theta0, v0)
        series = volume_series(mdl, traj)
        diffs = np.diff(series.instant_volume)
        assert np.all(diffs >= -1e-12 * np.maximum(1.0, series.instant_volume[:-1]))


def test_fit_synthetic_linear_exact():
    tau = np.linspace(5.0, 100.0, 200)
    fit = fit_growth(synthetic_series(tau, 3.0 * tau), (5.0, 100.0))
    assert fit.selected == "linear"
    assert fit.linear.slope == pytest.approx(3.0, abs=1e-6)
    assert fit.linear.r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_synthetic_logarithmic_exact():
    tau = np.linspace(5.0, 100.0, 200)
    fit = fit_growth(synthetic_series(tau, 2.0 * np.log(tau) - math.log(3.0)),
                     (5.0, 100.0))
    assert fit.selected == "logarithmic"
    assert fit.logarithmic.slope == pytest.approx(2.0, abs=1e-9)
    assert fit.logarithmic.intercept == pytest.approx(-math.log(3.0), abs=1e-9)


def test_integrable_run_selects_logarithmic_c2():
    im = integrable_model()
    traj = expanding_run(im, (1.0, 1.0), (1.0, 1.0))
    series = volume_series(im, traj)
    fit = fit_growth(series, (10.0, 100.0))
    assert fit.selected == "logarithmic"
    assert fit.logarithmic.slope == pytest.approx(2.0, rel=0.05)
    assert fit.logarithmic.r2 >= fit.linear.r2
    # The fit leaves the series as it was: fitting again gives the same.
    assert fit_growth(series, (10.0, 100.0)) == fit


def test_chaotic_run_selects_linear():
    cm = chaotic_model()
    traj = expanding_run(cm, (1.0, 0.0, 1e4), (0.25, 0.0, -2500.0))
    series = volume_series(cm, traj)
    fit = fit_growth(series, (10.0, 100.0))
    assert fit.selected == "linear"
    assert fit.linear.slope > 0.0
    assert fit.linear.r2 > 0.999


def test_fit_window_validation():
    tau = np.linspace(1.0, 100.0, 100)
    series = synthetic_series(tau, tau)
    with pytest.raises(InsufficientDataError):
        fit_growth(series, (99.0, 100.0))


def test_volume_series_validation():
    im = integrable_model()
    traj = expanding_run(im, (1.0, 1.0), (1.0, 1.0), tau_max=5.0, samples=64)
    with pytest.raises(InapplicableError):
        volume_series(replace(im, chart=None), traj)
    with pytest.raises(DomainError):
        volume_series(chaotic_model(), traj)


def test_c_counting_on_product_manifolds():
    # Fitted logarithmic slope counts the expanding exponential factors.
    for k in (1, 2, 3):
        fam = product_family([exponential_family(f"m{i}") for i in range(k)])
        mdl = model_from_family(fam, name=f"exp{k}")
        traj = expanding_run(mdl, np.ones(k), np.ones(k))
        series = volume_series(mdl, traj)
        fit = fit_growth(series, (10.0, 100.0))
        assert fit.selected == "logarithmic"
        assert fit.logarithmic.slope == pytest.approx(float(k), rel=0.05)


def test_compare_rates_reports():
    tau = np.linspace(5.0, 100.0, 200)
    fit = fit_growth(synthetic_series(tau, 0.70 * tau), (5.0, 100.0))
    cmp = compare_rates(fit, 0.71)
    assert cmp.ratio == pytest.approx(0.70 / 0.71, rel=1e-9)
    assert cmp.difference == pytest.approx(0.01, abs=1e-9)
    assert not cmp.inconsistent
    same = compare_rates(fit, fit.linear.slope)
    assert same.ratio == pytest.approx(1.0)
    flagged = compare_rates(fit, 0.0)
    assert flagged.inconsistent


def test_compare_rates_inapplicable_for_logarithmic():
    tau = np.linspace(5.0, 100.0, 200)
    fit = fit_growth(synthetic_series(tau, np.log(tau)), (5.0, 100.0))
    with pytest.raises(InapplicableError):
        compare_rates(fit, 0.5)


def oracle_log_volume(mdl, start, cur, active, nodes=64):
    """log of the tensor Gauss-Legendre integral of sqrt(det g) over the
    box from ``start`` to ``cur`` in the ``active`` coordinates, the others
    held at ``cur``; scale coordinates are integrated in u = log(theta)."""
    t, w = np.polynomial.legendre.leggauss(nodes)
    logs = np.array([d == (0.0, math.inf) for d in mdl.domain])
    a, b = start.copy(), cur.copy()
    a[logs], b[logs] = np.log(a[logs]), np.log(b[logs])
    axes = [a[i] + 0.5 * (b[i] - a[i]) * (t + 1.0) if active[i] else b[i:i + 1]
            for i in range(mdl.dim)]
    weights = [0.5 * abs(b[i] - a[i]) * w if active[i] else np.ones(1)
               for i in range(mdl.dim)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, mdl.dim)
    wgt = np.prod(np.meshgrid(*weights, indexing="ij"), axis=0).ravel()
    theta = np.where(logs, np.exp(grid), grid)
    jac = np.exp((grid * (logs & active)).sum(axis=1))
    root_det = np.sqrt(np.linalg.det(mdl.metric(theta)))
    return math.log(float(np.sum(wgt * root_det * jac)))


VOLUME_MODELS = ("exponential", "wigner_dyson", "gaussian",
                 "composite_integrable", "composite_chaotic", "euclidean")


@pytest.mark.parametrize("name", VOLUME_MODELS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_log_instant_volume_matches_quadrature(name, data):
    mdl = model(name) if name == "euclidean" else model_from_family(family(name))
    box = mdl.sample_box

    def point():
        return np.array(data.draw(st.tuples(*(st.floats(lo, hi) for lo, hi in box))))

    start, cur = point(), point()
    active = ~np.array(data.draw(st.lists(st.booleans(), min_size=mdl.dim,
                                          max_size=mdl.dim)))
    cur[~active] = start[~active]
    assume(np.all(np.abs(cur - start)[active] > 1e-6))
    got = _log_instant_volume(mdl.chart, mdl.chart.to_chart(np.stack([start, cur])))
    assert got[0] == -math.inf
    if not active.any():
        assert got[1] == -math.inf
    else:
        assert got[1] == pytest.approx(
            oracle_log_volume(mdl, start, cur, active), abs=1e-10)


@pytest.mark.parametrize("name, theta0, v0", [
    ("gaussian", (0.0, 1.0), (0.0, -40.0)),
    ("gaussian", (0.0, 1.0), (0.0, -80.0)),
    ("gaussian", (0.0, 1.0), (0.0, -10000.0)),
    ("integrable", (1.0, 1.0), (-80.0, 0.0)),
    ("chaotic", (1.0, 0.0, 1.0), (0.0, 0.0, -80.0)),
])
def test_deep_runs_grow_like_slow_runs(name, theta0, v0):
    # A scale parameter ends far below float64's range (e^-400 down to
    # e^-100000), where theta reads 0.0, yet the entropy stays finite.  At
    # 1/k of the speed the geodesic passes the same points at k times the
    # tau, so S_fast(tau) = S_slow(k tau): the same law is selected, the
    # logarithmic slope agrees and the linear slope scales by k.
    mdl = model(name)
    k = float(np.max(np.abs(v0)))
    fast = volume_series(mdl, integrate_geodesic(mdl, theta0, v0, 10.0,
                                                 samples=1024))
    slow = volume_series(mdl, integrate_geodesic(
        mdl, theta0, np.asarray(v0) / k, 10.0 * k, samples=1024))
    assert len(fast.entropy) == 1023 and np.all(np.isfinite(fast.entropy))
    fit_fast = fit_growth(fast, (1.0, 10.0))
    fit_slow = fit_growth(slow, (k, 10.0 * k))
    assert fit_fast.selected == fit_slow.selected
    assert fit_fast.logarithmic.slope == pytest.approx(
        fit_slow.logarithmic.slope, rel=1e-9)
    assert fit_fast.linear.slope == pytest.approx(
        k * fit_slow.linear.slope, rel=1e-9)
