"""Closed forms of every atomic record and both composites, checked against
independent numerics at points drawn from the whole sampling box."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igac import (christoffel, density, family, fisher_metric_closed_form,
                  fisher_metric_quadrature, model_from_family, moments,
                  riemann)
from igac.ige import _log_volume_element
from igac.quadrature import support_rule

NAMES = ("exponential", "wigner_dyson", "gaussian",
         "composite_integrable", "composite_chaotic")


def fd_view(mdl):
    """The model without its closed forms, so geometry differences it."""
    return replace(mdl, christoffel_fn=None, riemann_fn=None)


def draw_point(data, mdl):
    return np.array(data.draw(st.tuples(
        *(st.floats(lo, hi) for lo, hi in mdl.sample_box))))


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_metric_matches_quadrature(name, data):
    fam = family(name)
    mdl = model_from_family(fam)
    theta = draw_point(data, mdl)
    closed = fisher_metric_closed_form(fam, theta)
    assert closed.tobytes() == mdl.metric(theta).tobytes()
    quad = fisher_metric_quadrature(fam, theta).matrix
    assert np.linalg.norm(quad - closed) / np.linalg.norm(closed) < 1e-12


def theta_forms_written_out(fam, theta):
    """The theta-coordinate metric, Christoffel symbols and Riemann tensor
    of a family, written per factor: c/mu^2 with c = 1 (exponential) or 4
    (Wigner-Dyson), flat, Gamma = -1/mu; and the Gaussian's
    diag(1/sigma^2, 2/sigma^2), a half-plane of curvature -1/2."""
    dim = len(theta)
    g, gam, riem = np.zeros((dim, dim)), np.zeros((dim,) * 3), np.zeros((dim,) * 4)
    o = 0
    for fac in fam.atomic_factors():
        if fac.kind == "gaussian":
            m, s = o, o + 1
            sigma = theta[s]
            g[m, m], g[s, s] = 1.0 / (sigma * sigma), 2.0 / (sigma * sigma)
            gam[m, m, s] = gam[m, s, m] = -1.0 / sigma
            gam[s, m, m] = 0.5 / sigma
            gam[s, s, s] = -1.0 / sigma
            # R^m_nrs = -(delta^m_r g_sn - delta^m_s g_rn) / 2
            riem[m, s, m, s], riem[m, s, s, m] = -0.5 * g[s, s], 0.5 * g[s, s]
            riem[s, m, s, m], riem[s, m, m, s] = -0.5 * g[m, m], 0.5 * g[m, m]
        else:
            c = 4.0 if fac.kind == "wigner_dyson" else 1.0
            g[o, o] = c / (theta[o] * theta[o])
            gam[o, o, o] = -1.0 / theta[o]
        o += fac.n_params
    return g, gam, riem


def draw_deep_point(data, mdl):
    """A point of the sampling box, or one whose scale coordinates reach
    e^-340 .. e^340."""
    return np.array(data.draw(st.tuples(*(
        st.one_of(st.floats(lo, hi), st.floats(-340.0, 340.0).map(math.exp))
        if dom == (0.0, math.inf) else st.floats(lo, hi)
        for (lo, hi), dom in zip(mdl.sample_box, mdl.domain)))))


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_theta_forms_derived_from_the_chart_match_written_forms(name, data):
    # The theta tensors come from the chart's constant frame forms; the
    # metric stays bitwise equal to c / theta^2, and each entry of Gamma
    # and R is within 1e-15 of the written form, with no NaN and no
    # floating-point warning, however deep the scale coordinates are.
    fam = family(name)
    mdl = model_from_family(fam)
    theta = draw_deep_point(data, mdl)
    g, gam, riem = theta_forms_written_out(fam, theta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert mdl.metric(theta).tobytes() == g.tobytes()
        assert fisher_metric_closed_form(fam, theta).tobytes() == g.tobytes()
        assert (mdl.metric(np.stack([theta, theta])).tobytes()
                == np.stack([g, g]).tobytes())
        derived = christoffel(mdl, theta), riemann(mdl, theta)
    for new, old in zip(derived, (gam, riem)):
        assert not np.isnan(new).any()
        assert np.array_equal(np.isfinite(new), np.isfinite(old))
        assert np.all(np.abs(new - old) <= 1e-15 * np.abs(old))


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_christoffel_matches_finite_differences(name, data):
    mdl = model_from_family(family(name))
    theta = draw_point(data, mdl)
    np.testing.assert_allclose(
        christoffel(fd_view(mdl), theta),
        christoffel(mdl, theta), atol=5e-7)


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_riemann_matches_finite_differences(name, data):
    mdl = model_from_family(family(name))
    theta = draw_point(data, mdl)
    np.testing.assert_allclose(
        riemann(fd_view(mdl), theta),
        riemann(mdl, theta), atol=1e-5)


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_chart_frame_forms_match_finite_differences(name, data):
    # The records' frame connection and curvature against finite
    # differences of the chart metric, turned into frame components.
    chart = model_from_family(family(name)).chart
    x = chart.to_chart(draw_point(data, model_from_family(family(name))))
    cm = chart.model
    omega, curv = chart.frame_tensors(x, christoffel(fd_view(cm), x),
                                      riemann(fd_view(cm), x))
    np.testing.assert_allclose(omega, chart.omega, atol=5e-7)
    np.testing.assert_allclose(curv, chart.curvature, atol=1e-5)


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_sqrt_g_factors_multiply_to_sqrt_det(name, data):
    # The per-coordinate factors of sqrt(det g) that the chart's frame
    # metric and rates give, against the determinant of the metric.
    mdl = model_from_family(family(name))
    theta = draw_point(data, mdl)
    log_root_det = _log_volume_element(mdl.chart, mdl.chart.to_chart(theta)).sum()
    assert log_root_det == pytest.approx(
        0.5 * np.log(np.linalg.det(mdl.metric_fn(theta))), abs=1e-12)


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_moments_match_quadrature_of_density(name, data):
    fam = family(name)
    theta = draw_point(data, model_from_family(fam))
    rules = [support_rule(s, 400) for s in fam.supports]
    nodes = np.stack([m.ravel() for m in np.meshgrid(
        *(x for x, _ in rules), indexing="ij")], axis=1)
    weights = np.prod(np.meshgrid(*(w for _, w in rules), indexing="ij"),
                      axis=0).ravel()
    mass = weights * density(fam, theta, nodes)
    mean_q = mass @ nodes
    var_q = mass @ (nodes - mean_q) ** 2
    mean, var = moments(fam, theta)
    np.testing.assert_allclose(mean, mean_q, rtol=1e-8, atol=1e-10)
    np.testing.assert_allclose(var, var_q, rtol=1e-8)
