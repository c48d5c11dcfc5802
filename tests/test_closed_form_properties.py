"""Closed forms of every atomic record and both composites, checked against
independent numerics at points drawn from the whole sampling box."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igac import (christoffel, density, family, fisher_metric_closed_form,
                  fisher_metric_quadrature, model_from_family, moments,
                  riemann)
from igac.errors import DomainError
from igac.families import KINDS
from igac.ige import _log_volume_element
from igac.quadrature import support_rule

from conftest import fd_view

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
    assert np.linalg.norm(quad - closed) / np.linalg.norm(closed) < 1e-12


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_quadrature_on_a_stack_is_bitwise_the_per_point_calls(name, data):
    # Each coordinate of each row takes one of two values, so rows repeat
    # factor values, which the stacked call integrates once.
    fam = family(name)
    mdl = model_from_family(fam)
    pool = [draw_point(data, mdl) for _ in range(2)]
    picks = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=mdl.dim,
                                        max_size=mdl.dim), min_size=1, max_size=6))
    stack = np.array([[pool[p][c] for c, p in enumerate(row)] for row in picks])
    got = fisher_metric_quadrature(fam, stack)
    each = [fisher_metric_quadrature(fam, row) for row in stack]
    assert got.matrix.tobytes() == np.stack([q.matrix for q in each]).tobytes()
    assert got.error_estimate == max(q.error_estimate for q in each)
    assert got.nodes == max(q.nodes for q in each)


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_closed_form_on_a_stack_is_bitwise_the_per_point_calls(name, data):
    # One metric evaluation for the whole stack; a row outside the domain
    # is refused by the coordinate it breaks, wherever it sits.
    fam = family(name)
    mdl = model_from_family(fam)
    stack = np.array([draw_deep_point(data, mdl)
                      for _ in range(data.draw(st.integers(1, 6)))])
    got = fisher_metric_closed_form(fam, stack)
    each = [fisher_metric_closed_form(fam, row) for row in stack]
    assert got.tobytes() == np.stack(each).tobytes()
    row = data.draw(st.integers(0, len(stack) - 1))
    col = data.draw(st.integers(0, mdl.dim - 1))
    stack[row, col] = -1.0 if mdl.domain[col][0] == 0.0 else math.nan
    with pytest.raises(DomainError) as info:
        fisher_metric_closed_form(fam, stack)
    assert info.value.field == fam.param_names[col]


EPS = np.finfo(float).eps


def draw_wide_point(data, domain):
    """A parameter point anywhere in the domain: a location in
    [-1e300, 1e300], a scale log-uniform in [1e-300, 1e300]."""
    return np.array([data.draw(
        st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e) if lo == 0.0
        else st.floats(-1e300, 1e300)) for lo, _ in domain])


@pytest.mark.parametrize("kind", tuple(KINDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_each_kind_is_a_location_scale_family(kind, data):
    # What the quadrature's pull-back rests on: at the rule's nodes z,
    # log p(loc + scale z; theta) + log scale = log p(z; loc 0, scale 1),
    # over the whole domain.  Forming x = loc + scale z, and the density's
    # own x - loc, each round once: in z units by eps (|x| + |loc|) / scale,
    # which the tolerance allows for along with the rounding of log p.
    rec = KINDS[kind]
    theta = draw_wide_point(data, rec.param_domain)
    is_scale = np.array(rec.log_scale)
    (scale,), loc = theta[is_scale], theta[~is_scale].sum()
    z, _ = support_rule(rec.support, 200)
    with np.errstate(over="ignore"):
        x = loc + scale * z
    z, x = z[np.isfinite(x)], x[np.isfinite(x)]
    got = rec.log_density(theta, 0, x) + math.log(scale)
    want = rec.log_density(is_scale.astype(float), 0, z)
    # Where |loc| / scale leaves float64's range, x - loc holds no digit of
    # z and the tolerance is infinite.
    with np.errstate(over="ignore"):
        dz = EPS * ((np.abs(x) + abs(loc)) / scale + np.abs(z))
        tol = 8.0 * EPS * (1.0 + np.abs(want) + abs(math.log(scale))) \
            + 4.0 * (np.abs(z) + dz) * dz
    assert np.all(np.abs(got - want) <= tol), (theta, np.max(np.abs(got - want) / tol))


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_quadrature_matches_the_closed_form_over_the_whole_domain(name, data):
    # Entry by entry, since the norm of a 1e-300 matrix underflows: within
    # 1e-12 wherever the closed form is finite and nonzero.  An entry the
    # closed form has zero off the diagonal is within 1e-12 of its row's or
    # column's diagonal entry.
    fam = family(name)
    theta = draw_wide_point(data, fam.param_domain)
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        closed = fisher_metric_closed_form(fam, theta)
    quad = fisher_metric_quadrature(fam, theta).matrix
    compared = np.isfinite(closed) & (closed != 0.0)
    assert np.all(np.abs(quad[compared] / closed[compared] - 1.0) <= 1e-12), \
        (theta, closed, quad)
    diag = np.abs(np.diag(closed))
    zero = (closed == 0.0) & ~np.eye(len(theta), dtype=bool)
    assert np.all(np.abs(quad[zero])
                  <= 1e-12 * np.maximum.outer(diag, diag)[zero]), (theta, quad)


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
