"""Closed forms of every atomic record and both composites, checked against
independent numerics at points drawn from the whole sampling box."""

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
    assert np.linalg.norm(quad - closed) / np.linalg.norm(closed) < 1e-5


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_christoffel_matches_finite_differences(name, data):
    mdl = model_from_family(family(name))
    theta = draw_point(data, mdl)
    np.testing.assert_allclose(
        christoffel(mdl, theta, use_closed_form=False),
        christoffel(mdl, theta), atol=5e-7)


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_riemann_matches_finite_differences(name, data):
    mdl = model_from_family(family(name))
    theta = draw_point(data, mdl)
    np.testing.assert_allclose(
        riemann(mdl, theta, use_closed_form=False),
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
    omega, curv = chart.frame_tensors(
        x, christoffel(cm, x, use_closed_form=False),
        riemann(cm, x, use_closed_form=False))
    np.testing.assert_allclose(omega, christoffel(cm, x), atol=5e-7)
    np.testing.assert_allclose(curv, riemann(cm, x), atol=1e-5)


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
