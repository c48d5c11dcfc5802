import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from igac import (chaotic_model, christoffel, curvature, euclidean_model,
                  family, gaussian_model, integrable_model, model,
                  model_from_family, riemann, scalar_sign_classification)
from igac.dynamics import _frame_tensors
from igac.errors import DomainError, ShapeError
from igac.geometry import (DEFAULT_FD_STEP, _steps, curvature_stencil,
                           riemann_from_stencil)


def fd_view(mdl):
    """The model without its closed forms, so geometry differences it."""
    return replace(mdl, christoffel_fn=None, riemann_fn=None)


def test_christoffel_integrable_analytic():
    gam = christoffel(integrable_model(), (1.0, 1.0))
    expected = np.zeros((2, 2, 2))
    expected[0, 0, 0] = -1.0
    expected[1, 1, 1] = -1.0
    np.testing.assert_allclose(gam, expected)


def test_christoffel_fd_matches_override():
    rng = np.random.default_rng(2)
    for mdl in (integrable_model(), chaotic_model(), gaussian_model()):
        for theta in mdl.random_points(5, seed=rng.integers(1 << 30)):
            exact = christoffel(mdl, theta)
            fd = christoffel(fd_view(mdl), theta)
            np.testing.assert_allclose(fd, exact, atol=5e-7)


def test_christoffel_euclidean_zero():
    gam = christoffel(fd_view(euclidean_model(3)), (0.2, -0.4, 1.0))
    np.testing.assert_allclose(gam, 0.0, atol=1e-12)


def test_christoffel_gaussian_analytic():
    gam = christoffel(fd_view(gaussian_model()), (0.0, 1.0))
    assert gam[0, 0, 1] == pytest.approx(-1.0, abs=1e-7)
    assert gam[0, 1, 0] == pytest.approx(-1.0, abs=1e-7)
    assert gam[1, 0, 0] == pytest.approx(0.5, abs=1e-7)
    assert gam[1, 1, 1] == pytest.approx(-1.0, abs=1e-7)
    mask = np.ones((2, 2, 2), dtype=bool)
    for idx in ((0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)):
        mask[idx] = False
    np.testing.assert_allclose(gam[mask], 0.0, atol=1e-7)


def test_christoffel_symmetric_in_lower_indices():
    for mdl in (chaotic_model(), gaussian_model()):
        theta = mdl.random_points(1, seed=4)[0]
        gam = christoffel(fd_view(mdl), theta)
        np.testing.assert_allclose(gam, np.swapaxes(gam, 1, 2), atol=1e-9)


def test_curvature_integrable_flat():
    for theta in integrable_model().random_points(10, seed=6):
        rep = curvature(fd_view(integrable_model()), theta)
        assert abs(rep.scalar) < 1e-6, theta


def test_curvature_chaotic_scalar_minus_one():
    rep = curvature(fd_view(chaotic_model()), (1.0, 0.0, 1.0))
    assert rep.scalar == pytest.approx(-1.0, abs=1e-4)
    # sum over ordered pairs equals the scalar
    total = 2.0 * sum(rep.sectional.values())
    assert total == pytest.approx(rep.scalar, abs=1e-6)


def test_curvature_gaussian_constant_sectional():
    mdl = gaussian_model()
    values = []
    for theta in mdl.random_points(20, seed=13):
        rep = curvature(fd_view(mdl), theta)
        values.append(rep.sectional[(0, 1)])
    values = np.array(values)
    np.testing.assert_allclose(values, -0.5, atol=1e-5)
    assert values.max() - values.min() < 1e-5


def test_curvature_closed_form_matches_fd():
    for mdl in (chaotic_model(), gaussian_model()):
        for theta in mdl.random_points(5, seed=17):
            exact = riemann(mdl, theta)
            fd = riemann(fd_view(mdl), theta)
            np.testing.assert_allclose(fd, exact, atol=1e-5)


def test_riemann_antisymmetry_last_pair():
    mdl = chaotic_model()
    theta = mdl.random_points(1, seed=19)[0]
    r = riemann(fd_view(mdl), theta)
    np.testing.assert_allclose(r, -np.swapaxes(r, 2, 3), atol=1e-7)


def test_first_bianchi_identity():
    for mdl in (chaotic_model(), gaussian_model()):
        for theta in mdl.random_points(5, seed=23):
            r = riemann(fd_view(mdl), theta)
            cyc = (r + np.einsum("mrsn->mnrs", r) + np.einsum("msnr->mnrs", r))
            rep = curvature(fd_view(mdl), theta)
            tol = 10.0 * max(rep.scalar_consistency, 1e-8)
            assert np.max(np.abs(cyc)) < tol


def test_metric_compatibility():
    from igac.geometry import _metric_partials
    for mdl in (chaotic_model(), gaussian_model(), integrable_model()):
        for theta in mdl.random_points(5, seed=29):
            theta = np.asarray(theta)
            g = mdl.metric(theta)
            gam = christoffel(fd_view(mdl), theta, fd_step=1e-5)
            dg = _metric_partials(mdl, theta, 1e-5)
            nabla = (dg - np.einsum("rlm,rn->lmn", gam, g)
                     - np.einsum("rln,mr->lmn", gam, g))
            assert np.max(np.abs(nabla)) < 1e-6


def test_fd_step_richardson_consistency():
    for mdl in (chaotic_model(), gaussian_model()):
        for theta in mdl.random_points(5, seed=31):
            rep = curvature(fd_view(mdl), theta)
            assert rep.scalar_consistency < 1e-4


def test_chaotic_ricci_product_structure():
    rep = curvature(fd_view(chaotic_model()), (1.4, -0.3, 0.8))
    ric = rep.ricci
    # Wigner-Dyson block decouples and is flat.
    np.testing.assert_allclose(ric[0, :], 0.0, atol=1e-6)
    np.testing.assert_allclose(ric[:, 0], 0.0, atol=1e-6)


def test_scalar_sign_classification():
    def classify(mdl, count, seed):
        return scalar_sign_classification(
            [curvature(mdl, p) for p in mdl.random_points(count, seed)])

    cm, im, em = chaotic_model(), integrable_model(), euclidean_model(2)
    assert classify(cm, 50, seed=37).classification == "negative"
    rep = classify(im, 50, seed=38)
    assert rep.classification == "non-negative"
    assert abs(rep.scalar_min) < 1e-6 and abs(rep.scalar_max) < 1e-6
    assert classify(em, 10, seed=39).classification == "non-negative"


def test_fd_step_boundary_guard():
    with pytest.raises(DomainError):
        christoffel(fd_view(integrable_model()), (1e-6, 1.0), fd_step=1e-2)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("factory, theta", [
    (chaotic_model, (1000.0, 0.0, 0.05)),
    (chaotic_model, (50.0, 0.0, 0.004)),
    (gaussian_model, (1.7976e308, 1.0)),
], ids=["theta0", "theta1", "theta2"])
def test_fd_tensors_where_only_the_stencil_fits(factory, theta):
    # On the chaotic model the mu_A step (0.1 and 0.005) exceeds sigma_B,
    # but the sigma_B step (1e-4) does not; on the Gaussian model the
    # location mu steps by plain fd_step, so its stencil stays finite next
    # to float64's largest value.  Either way the stencil lies inside the
    # domain, so the finite differences run, without a warning, and agree
    # with the closed forms to O((h / sigma)^2).
    mdl = factory()
    rtol = 20.0 * (DEFAULT_FD_STEP / theta[-1]) ** 2
    for fn in (christoffel, riemann):
        np.testing.assert_allclose(fn(fd_view(mdl), theta), fn(mdl, theta),
                                   rtol=rtol, atol=0.0)


@pytest.mark.parametrize("fn, reach", [(christoffel, 1), (riemann, 2)])
def test_stencil_check_is_where_the_stencil_crosses_zero(fn, reach):
    # Christoffel symbols evaluate the metric one sigma_B step below the
    # point, the Riemann tensor two; the check is at exactly that reach.
    fd = fd_view(chaotic_model())
    sigma = reach * DEFAULT_FD_STEP
    assert np.isfinite(fn(fd, (1000.0, 0.0, sigma * (1.0 + 1e-9)))).all()
    for below in (sigma, sigma - 0.5 * DEFAULT_FD_STEP):
        point = [1000.0, 0.0, below]
        with pytest.raises(DomainError, match=re.escape(
                f"point {point} is closer than the differencing step to the "
                "boundary of model 'chaotic'")):
            fn(fd, point)


# Every model in theta coordinates, and the prebuilt models whose log-scale
# charts the geodesics are integrated in.
THETA_MODELS = ("integrable", "chaotic", "gaussian", "euclidean",
                "exponential", "wigner_dyson")
CHART_MODELS = ("integrable", "chaotic", "gaussian")


def theta_model(name):
    return (model_from_family(family(name))
            if name in ("exponential", "wigner_dyson") else model(name))


def separate_passes(mdl, th, fd_step):
    """Finite-difference Gamma and R from separate single-point passes:
    Gamma at theta, Gamma at each theta +/- h_r e_r, and the einsum formula
    for R^m_nrs = d_r G^m_sn - d_s G^m_rn + G^m_rl G^l_sn - G^m_sl G^l_rn."""
    def gamma(p):
        return christoffel(fd_view(mdl), p, fd_step)

    h = _steps(mdl, th, fd_step)
    gam = gamma(th)
    plus = np.array([gamma(p) for p in th + np.diag(h)])
    minus = np.array([gamma(p) for p in th - np.diag(h)])
    dG = (plus - minus) / (2.0 * h)[:, None, None, None]
    riem = ((np.einsum("rmsn->mnrs", dG) - np.einsum("smrn->mnrs", dG))
            + (np.einsum("mrl,lsn->mnrs", gam, gam)
               - np.einsum("msl,lrn->mnrs", gam, gam)))
    return gam, riem


def bitwise_equal(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", THETA_MODELS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_stacked_pass_is_bitwise_the_separate_passes(name, data):
    mdl = theta_model(name)
    th = np.array(data.draw(st.tuples(
        *(st.floats(lo, hi) for lo, hi in mdl.sample_box))))
    gam, riem = separate_passes(mdl, th, DEFAULT_FD_STEP)
    assert bitwise_equal(riemann(fd_view(mdl), th), riem)
    points, h = curvature_stencil(mdl, th)
    gams = christoffel(fd_view(mdl), points)
    assert bitwise_equal(gams[0], gam)
    assert bitwise_equal(riemann_from_stencil(gams, h), riem)
    # The report's tensors come from the halved step, in one pass.
    rep = curvature(fd_view(mdl), th)
    gam_half, riem_half = separate_passes(mdl, th, DEFAULT_FD_STEP / 2.0)
    assert bitwise_equal(rep.christoffel, gam_half)
    assert bitwise_equal(rep.riemann, riem_half)


@pytest.mark.parametrize("name", CHART_MODELS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_stacked_chart_pass_is_bitwise_the_separate_passes(name, data):
    # What the finite-difference Jacobi right-hand side sees, at chart
    # depths down to u = -300.
    mdl = model(name)
    chart = mdl.chart
    x = np.array([data.draw(st.floats(-300.0, 5.0)) if log
                  else data.draw(st.floats(lo, hi))
                  for log, (lo, hi) in zip(chart.log_scale, mdl.sample_box)])
    gam, riem = separate_passes(chart.model, x, DEFAULT_FD_STEP)
    omega, curv = _frame_tensors(chart)(x)
    expected = chart.frame_tensors(x, gam, riem)
    assert bitwise_equal(omega, expected[0])
    assert bitwise_equal(curv, expected[1])


@pytest.mark.parametrize("name", CHART_MODELS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_stencil_and_frame_assembly_are_bitwise_their_einsum_forms(name, data):
    # riemann_from_stencil and Chart.frame_tensors against the einsum and
    # broadcast forms they replace, on arbitrary stencil connections.
    chart = model(name).chart
    dim = chart.model.dim
    entries = st.floats(-1e3, 1e3)
    gams = data.draw(arrays(np.float64, (2 * dim + 1,) + (dim,) * 3,
                            elements=entries))
    h = data.draw(arrays(np.float64, dim, elements=st.floats(1e-6, 1.0)))
    gam = gams[0]
    dG = (gams[1:dim + 1] - gams[dim + 1:]) / (2.0 * h)[:, None, None, None]
    riem = ((np.einsum("rmsn->mnrs", dG) - np.einsum("smrn->mnrs", dG))
            + (np.einsum("mrl,lsn->mnrs", gam, gam)
               - np.einsum("msl,lrn->mnrs", gam, gam)))
    assert bitwise_equal(riemann_from_stencil(gams, h), riem)
    x = data.draw(arrays(np.float64, dim, elements=st.floats(-300.0, 300.0)))
    with np.errstate(over="ignore", invalid="ignore"):
        e = chart.lengths(x)
        omega = gam * (e[None, :, None] * e[None, None, :] / e[:, None, None])
        diag = np.arange(dim)
        omega[diag, :, diag] += chart.rates * e[None, :]
        curv = riem * (e[None, :, None, None] * e[None, None, :, None]
                       * e[None, None, None, :] / e[:, None, None, None])
        frame = chart.frame_tensors(x, gam, riem)
    assert bitwise_equal(frame[0], omega)
    assert bitwise_equal(frame[1], curv)


def test_chart_frame_forms_are_read_only():
    # Every closed-form right-hand side reads the chart's own arrays, so a
    # write into one would change every later geodesic on the model.
    chart = gaussian_model().chart
    with pytest.raises(ValueError):
        chart.omega[1, 0, 0] = 7.0
    with pytest.raises(ValueError):
        chart.curvature[1, 0, 1, 0] = 7.0


@pytest.mark.parametrize("depth", [-2.0, -30.0])
@pytest.mark.parametrize("name", ["gaussian", "chaotic"])
def test_chart_model_curvature_is_that_of_the_manifold(name, depth):
    # The chart model carries the chart metric alone, so its curvature
    # report is in chart coordinates and gives the manifold's scalar -1.
    chart = model(name).chart
    x = np.where(chart.log_scale, depth, 0.7)
    assert curvature(chart.model, x).scalar == pytest.approx(-1.0, abs=1e-6)


@pytest.mark.parametrize("name", CHART_MODELS + ("euclidean",))
def test_chart_models_are_differenced(name):
    # No chart model carries closed forms: the frame forms are the chart's.
    chart = model(name).chart
    x = np.where(chart.log_scale, -2.0, 0.7)
    assert bitwise_equal(christoffel(chart.model, x),
                         christoffel(fd_view(chart.model), x))


def test_christoffel_on_a_stack_of_points():
    mdl = chaotic_model()
    points = mdl.random_points(4, seed=41)
    for view in (mdl, fd_view(mdl)):
        stacked = christoffel(view, points)
        assert stacked.shape == (4, 3, 3, 3)
        for p, gam in zip(points, stacked):
            assert bitwise_equal(gam, christoffel(view, p))
    points[2, 2] = -1.0  # sigma_B below zero
    for view in (mdl, fd_view(mdl)):
        with pytest.raises(DomainError, match="sigma_B"):
            christoffel(view, points)
        for bad in (points[:, :2], points[:0]):
            with pytest.raises(ShapeError):
                christoffel(view, bad)


@pytest.mark.parametrize("depth", [-30.0, -300.0])
@pytest.mark.parametrize("name", ["gaussian", "chaotic"])
def test_fd_chart_tensors_keep_their_accuracy_at_depth(name, depth):
    # The chart metric varies by the same relative amount per unit of
    # u = log(sigma) at every depth, so an absolute step in u keeps the
    # finite differences as accurate as at u = 0.
    chart = model(name).chart
    cm = chart.model
    x = np.where(chart.log_scale, depth, 0.7)
    omega, curv = chart.frame_tensors(x, christoffel(fd_view(cm), x),
                                      riemann(fd_view(cm), x))
    np.testing.assert_allclose(omega, chart.omega, rtol=0.0, atol=1e-7)
    np.testing.assert_allclose(curv, chart.curvature, rtol=0.0, atol=1e-5)
