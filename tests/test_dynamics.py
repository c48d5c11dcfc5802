import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from igac import (DomainError, IgacError, InsufficientDataError, ShapeError,
                  SingularityError, chaotic_model, dynamics, estimate_lambda_j,
                  euclidean_model, gaussian_model, integrable_model,
                  integrate_geodesic, integrate_jacobi, model,
                  reverse_initial_conditions)
from igac.dynamics import _closed_form_rhs, _integrate_on_grid
from igac.manifold import Chart, ManifoldModel

SQRT2 = math.sqrt(2.0)


def test_exponential_geodesic_closed_form():
    # On the metric dmu^2/mu^2 the solution of mu'' = mu'^2/mu with
    # mu(0)=1, mu'(0)=v is mu(tau) = exp(v tau), verified by substitution.
    traj = integrate_geodesic(integrable_model(), (1.0, 1.0), (1.0, 0.0),
                              1.0, tol=1e-10)
    assert traj.coords[-1][0] == pytest.approx(math.e, abs=1e-6)
    assert traj.coords[-1][1] == pytest.approx(1.0, abs=1e-9)
    mid = traj.n_samples // 2
    tau_mid = traj.tau_grid[mid]
    assert traj.coords[mid][0] == pytest.approx(math.exp(tau_mid), rel=1e-8)


def test_zero_velocity_stationary():
    for mdl in (integrable_model(), chaotic_model()):
        theta0 = mdl.random_points(1, seed=1)[0]
        traj = integrate_geodesic(mdl, theta0, np.zeros(mdl.dim), 5.0)
        assert np.max(np.abs(traj.coords - theta0[None, :])) < 1e-12
        np.testing.assert_allclose(traj.speed, 0.0, atol=1e-12)


def test_speed_conservation_both_paper_manifolds():
    runs = [
        (integrable_model(), (1.0, 1.0), (1.0, 1.0)),
        (chaotic_model(), (1.0, 0.0, 1.0), (0.25, 0.1, -0.2)),
        (gaussian_model(), (0.0, 1.0), (0.0, 1.0 / SQRT2)),
    ]
    for mdl, theta0, v0 in runs:
        traj = integrate_geodesic(mdl, theta0, v0, 10.0, tol=1e-10)
        assert traj.boundary_event is None
        drift = np.max(np.abs(traj.speed - traj.speed[0]))
        assert drift < 1e-8, (mdl.name, drift)


def test_unit_speed_start_stays_unit():
    traj = integrate_geodesic(gaussian_model(), (0.0, 1.0), (0.0, 1.0 / SQRT2),
                              10.0, tol=1e-10)
    np.testing.assert_allclose(traj.speed, 1.0, atol=1e-8)


def test_time_reversal_round_trip():
    fwd = integrate_geodesic(integrable_model(), (1.0, 1.0), (1.0, 1.0),
                             5.0, tol=1e-10)
    theta, vel = reverse_initial_conditions(fwd)
    back = integrate_geodesic(integrable_model(), theta, vel, 5.0, tol=1e-10)
    assert np.max(np.abs(back.coords[-1] - [1.0, 1.0])) < 1e-6


def test_complete_geodesic_runs_to_the_end():
    # mu_A = exp(-tau) passes any fixed distance from 0; the manifold is
    # complete, so nothing may stop the geodesic there.
    traj = integrate_geodesic(integrable_model(), (1.0, 1.0), (-1.0, 0.0),
                              30.0, tol=1e-8)
    assert traj.boundary_event is None
    assert traj.n_samples == 512 and traj.tau_grid[-1] == 30.0
    np.testing.assert_allclose(traj.coords[:, 0], np.exp(-traj.tau_grid),
                               rtol=1e-12)
    np.testing.assert_allclose(traj.coords[:, 1], 1.0, rtol=0.0)


def test_deep_geodesics_reach_their_closed_forms():
    # sigma = exp(-50 tau) and mu_A = exp(-50 tau): at tau = 10 both are
    # e^-500, far inside float64 and far below any fixed margin.
    gauss = integrate_geodesic(gaussian_model(), (0.0, 1.0), (0.0, -50.0), 10.0)
    assert gauss.coords[-1, 1] == pytest.approx(math.exp(-500.0), rel=1e-9)
    integ = integrate_geodesic(integrable_model(), (1.0, 1.0), (-50.0, 0.0), 10.0)
    assert integ.coords[-1, 0] == pytest.approx(math.exp(-500.0), rel=1e-9)


def test_speed_conserved_past_float_range_of_the_metric():
    # mu_A = e^{50 tau} passes 1e154, where 1/mu_A^2 underflows; the speed
    # is taken in the chart frame and stays 50.
    traj = integrate_geodesic(integrable_model(), (1.0, 1.0), (50.0, 0.0), 10.0)
    assert traj.coords[-1, 0] > 1e200
    assert np.max(np.abs(traj.speed / 50.0 - 1.0)) <= 1e-8
    # Past float64's range mu_A comes back as inf, with no exception.
    far = integrate_geodesic(integrable_model(), (1.0, 1.0), (1000.0, 0.0), 10.0)
    assert far.coords[-1, 0] == math.inf
    np.testing.assert_allclose(far.speed, 1000.0, rtol=1e-12)


def test_first_same_as_last_stage_survives_a_rejected_step():
    # y' = g(t) with a narrow bump: steps grow on the flat part and are
    # rejected at the bump.  Each retry must start from g at its own start,
    # not from the last stage the rejected attempt left in the buffer.
    def rhs(t, y):
        return np.array([1.0 / (1.0 + 400.0 * (t - 5.0) ** 2)])

    grid = np.linspace(0.0, 10.0, 11)
    out, _ = _integrate_on_grid(rhs, np.zeros(1), grid, tol=1e-10)
    exact = (np.arctan(20.0 * (grid - 5.0)) + np.arctan(100.0)) / 20.0
    np.testing.assert_allclose(out[:, 0], exact, rtol=0.0, atol=1e-8)


def test_non_finite_derivative_shrinks_the_step_to_singularity():
    calls = []

    def rhs(t, y):
        calls.append(t)
        if len(calls) > 10_000:
            raise RuntimeError("a NaN error estimate did not shrink the step")
        return np.array([math.nan if t > 3.0 else 1.0])

    with pytest.raises(SingularityError) as err:
        _integrate_on_grid(rhs, np.zeros(1), np.linspace(0.0, 10.0, 5), tol=1e-8)
    tau, state = err.value.last_state
    assert tau <= 3.0 and state[0] == pytest.approx(tau)
    assert len(calls) < 1000


def per_step_fill(spans):
    """The continuous extension filled one step at a time, the reference the
    batched fill must equal bitwise; records each step's node range."""
    def fill(out, grid, steps):
        for first, stop, tau, h, y0, y1, ks in steps:
            spans.append((first, stop))
            ydiff = y1 - y0
            bspl = h * ks[0] - ydiff
            r4 = ydiff - h * ks[6] - bspl
            r5 = h * (dynamics._DENSE @ ks)
            s = ((grid[first:stop] - tau) / h)[:, None]
            s1 = 1.0 - s
            out[first:stop] = y0 + s * (ydiff + s1 * (bspl + s * (r4 + s1 * r5)))
    return fill


def walk_or_error(run):
    try:
        traj = run()
    except SingularityError as err:
        tau, state = err.last_state
        return str(err), tau, state.tobytes()
    return (traj.coords.tobytes(), traj.velocity.tobytes(), traj.solver,
            None if traj.jacobi is None else traj.jacobi.tobytes())


@pytest.mark.parametrize("case", ["on_step_ends", "two_samples", "4096_samples",
                                  "jacobi", "singular"])
def test_batched_dense_output_is_bitwise_the_per_step_fill(monkeypatch, case):
    gm = gaussian_model()
    base = integrate_geodesic(gm, (0.0, 1.0), (1.0, 0.0), 20.0, samples=600)
    runs = {
        # Grid nodes 0, 1, ..., 100; the flat walk's steps 1, 5, 25 end on
        # nodes 1, 6 and 31, so those nodes sit at fraction s = 1.
        "on_step_ends": lambda: integrate_geodesic(
            euclidean_model(2), (0.0, 0.0), (1.0, 2.0), 100.0, samples=101),
        "two_samples": lambda: integrate_geodesic(
            chaotic_model(), (1.0, 0.0, 1.0), (0.3, 1.0, -0.5), 10.0, samples=2),
        "4096_samples": lambda: integrate_geodesic(
            gm, (0.0, 1.0), (3.0, 1.0), 10.0, samples=4096),
        "jacobi": lambda: integrate_jacobi(gm, base, (0.0, 1.0), (1.0, 0.0),
                                           tol=1e-10),
        # The field along e_mu of the vertical geodesic u = 150 tau grows
        # like cosh(150 tau) and leaves float64's range at tau = 4.73.
        "singular": lambda: integrate_jacobi(
            gm, integrate_geodesic(gm, (0.0, 1.0), (0.0, 150.0), 10.0),
            (1.0, 0.0), (0.0, 1.0)),
    }
    batches = []
    fill = dynamics._fill_dense

    def batched(out, grid, steps):
        batches.append((steps[0][0], steps[-1][1], len(grid)))
        fill(out, grid, steps)

    monkeypatch.setattr(dynamics, "_fill_dense", batched)
    got = walk_or_error(runs[case])
    spans = []
    monkeypatch.setattr(dynamics, "_fill_dense", per_step_fill(spans))
    assert got == walk_or_error(runs[case])
    if case == "singular":
        assert isinstance(got[0], str) and "underflowed" in got[0]
        return
    # The batches fill every node after the first exactly once, in order,
    # and none holds more than the batch size plus its last step's nodes.
    n = batches[-1][2]
    assert [b[:2] for b in batches] == list(zip(
        [1] + [b[1] for b in batches[:-1]], [b[1] for b in batches]))
    assert batches[-1][1] == n and spans[-1][1] == n
    longest = max(stop - first for first, stop in spans)
    assert all(stop - first < dynamics._FILL_BATCH + longest
               for first, stop, _ in batches)
    if case == "on_step_ends":
        assert spans[:3] == [(1, 2), (2, 7), (7, 32)]
    if case == "4096_samples":
        assert len(batches) > 1


@settings(max_examples=40, deadline=None)
@given(data=st.data(), name=st.sampled_from(("integrable", "chaotic", "gaussian")),
       speed=st.floats(1e-3, 100.0))
def test_any_start_and_direction_in_the_box_completes(data, name, speed):
    mdl = model(name)
    theta0 = np.array(data.draw(st.tuples(
        *(st.floats(lo, hi) for lo, hi in mdl.sample_box))))
    w = np.array(data.draw(st.tuples(*(st.floats(-1.0, 1.0),) * mdl.dim)))
    if np.linalg.norm(w) < 1e-3:
        w = np.eye(mdl.dim)[0]
    # v = L^-T w / |w| has g-norm 1 when g = L L^T.
    chol = np.linalg.cholesky(mdl.metric(theta0))
    v0 = speed * np.linalg.solve(chol.T, w / np.linalg.norm(w))
    traj = integrate_geodesic(mdl, theta0, v0, 10.0, samples=64)
    assert traj.n_samples == 64 and traj.boundary_event is None
    assert np.max(np.abs(traj.speed / speed - 1.0)) <= 1e-6


# Gaussian blocks (mu, u = log sigma) of each model's chart; every other
# chart coordinate is the log-scale coordinate of a flat factor.
GAUSSIAN_BLOCKS = {"integrable": (), "chaotic": ((1, 2),), "gaussian": ((0, 1),)}


def log_cosh(s):
    return np.logaddexp(s, -s) - math.log(2.0)


def exact_chart_flow(x0, w0, tau, blocks):
    """Chart coordinates of the geodesic from chart point x0 with frame
    velocity w0, in closed form.  A flat factor's u moves linearly.  On a
    Gaussian block, e^{-2u} dmu^2 + 2 du^2 with w = (p, q) and p0 != 0, let
    c = sqrt(p0^2 + 2 q0^2), tanh s0 = -sqrt2 q0 / c (so sinh s0 =
    -sqrt2 q0 / |p0|), s = s0 + c tau / sqrt2:
    u = u0 + log cosh s0 - log cosh s and
    mu = mu0 + sign(p0) sqrt2 e^u0 sinh(s - s0) / cosh s."""
    x = x0 + np.outer(tau, w0)
    for i, j in blocks:
        p0, q0 = w0[i], w0[j]
        c = math.hypot(p0, SQRT2 * q0)
        s0 = math.asinh(-SQRT2 * q0 / abs(p0))
        s = s0 + c * tau / SQRT2
        x[:, j] = x0[j] + log_cosh(s0) - log_cosh(s)
        x[:, i] = x0[i] + (math.copysign(SQRT2 * math.exp(x0[j]), p0)
                           * np.sinh(s - s0) / np.cosh(s))
    return x


@settings(max_examples=60, deadline=None)
@given(data=st.data(), name=st.sampled_from(tuple(GAUSSIAN_BLOCKS)),
       speed=st.floats(0.1, 45.0))
def test_geodesics_follow_the_exact_flow(data, name, speed):
    tol = 1e-8
    mdl = model(name)
    chart = mdl.chart
    blocks = GAUSSIAN_BLOCKS[name]
    x0 = np.array(data.draw(st.tuples(*(st.floats(-5.0, 5.0),) * mdl.dim)))
    d = np.array(data.draw(st.tuples(*(st.floats(-1.0, 1.0),) * mdl.dim)))
    for i, _ in blocks:
        d[i] = math.copysign(max(abs(d[i]), 1e-2), d[i])  # p0 != 0
    if not chart.norms(d) > 1e-3:
        d = np.eye(mdl.dim)[0]
    w0 = speed * d / chart.norms(d)
    traj = integrate_geodesic(mdl, chart.from_chart(x0),
                              chart.theta_lengths(x0) * w0, 10.0, tol=tol,
                              samples=64)
    exact = exact_chart_flow(x0, w0, traj.tau_grid, blocks)
    # u relative to max(1, |u|); mu relative to its block's start scale e^u0.
    scale = np.maximum(1.0, np.abs(exact))
    for i, j in blocks:
        scale[:, i] = np.maximum(np.abs(exact[:, i]), math.exp(x0[j]))
    err = np.abs(traj.chart_coords - exact) / scale
    assert np.max(err) <= 1e3 * tol, (name, x0, w0, np.max(err, axis=0))


def exact_jacobi_norm(chart, w0, j0, k0, tau, blocks):
    """g-norm of the deviation field along the exact flow, from frame
    components J0 = j0 and K0 = k0, and the scale its unstable part reaches
    from initial data of the same size, to which integration errors grow.
    In orthonormal components every factor of a product chart splits off:
    J is affine on a flat factor, and on a Gaussian block (curvature -1/2)
    J = a T + b N with T = v_G / |v_G| and N normal to it, both parallel,
    a affine and b = b0 cosh(kappa tau) + b0' sinh(kappa tau) / kappa,
    kappa = |v_G| / sqrt2."""
    root = np.sqrt(chart.frame_metric)
    v, j, k = w0 * root, j0 * root, k0 * root
    flat = np.ones(len(w0), dtype=bool)
    squares = np.zeros_like(tau)
    unstable = np.zeros_like(tau)
    for block in blocks:
        block = list(block)
        flat[block] = False
        kappa = np.linalg.norm(v[block]) / SQRT2
        t = v[block] / (SQRT2 * kappa)
        n = np.array([-t[1], t[0]])
        along = j[block] @ t + (k[block] @ t) * tau
        normal = (j[block] @ n * np.cosh(kappa * tau)
                  + k[block] @ n * np.sinh(kappa * tau) / kappa)
        squares += along ** 2 + normal ** 2
        unstable += (np.linalg.norm(j[block]) + np.linalg.norm(k[block]) / kappa
                     ) * np.cosh(kappa * tau)
    squares += np.sum((j[flat] + np.outer(tau, k[flat])) ** 2, axis=1)
    return np.sqrt(squares), unstable


@settings(max_examples=30, deadline=None)
@given(data=st.data(), name=st.sampled_from(tuple(GAUSSIAN_BLOCKS)),
       speed=st.floats(0.1, 5.0))
def test_jacobi_fields_follow_the_exact_flow(data, name, speed):
    # Errors are taken relative to the larger of |J| and the scale the
    # unstable part of J reaches: a start with no unstable part (K0 along
    # v_G, say) still picks up one at the level of the step errors, which
    # then grows like cosh(kappa tau).
    mdl = model(name)
    chart = mdl.chart
    blocks = GAUSSIAN_BLOCKS[name]
    unit = st.floats(-1.0, 1.0)
    x0 = data.draw(arrays(np.float64, mdl.dim, elements=st.floats(-5.0, 5.0)))
    d = data.draw(arrays(np.float64, mdl.dim, elements=unit))
    for i, j in blocks:  # a moving Gaussian block, so kappa > 0
        d[i] = math.copysign(max(abs(d[i]), 1e-2), d[i])
    if not chart.norms(d) > 1e-3:
        d = np.eye(mdl.dim)[0]
    w0 = speed * d / chart.norms(d)
    j0 = data.draw(arrays(np.float64, mdl.dim, elements=unit))
    k0 = data.draw(arrays(np.float64, mdl.dim, elements=unit))
    check_jacobi_against_the_exact_flow(name, x0, w0, j0, k0)


def check_jacobi_against_the_exact_flow(name, x0, w0, j0, k0):
    tol = 1e-8
    mdl = model(name)
    chart = mdl.chart
    blocks = GAUSSIAN_BLOCKS[name]
    lengths = chart.theta_lengths(x0)
    base = integrate_geodesic(mdl, chart.from_chart(x0), lengths * w0, 10.0,
                              tol=tol, samples=64)
    traj = integrate_jacobi(mdl, base, lengths * j0, lengths * k0, tol=tol)
    exact, unstable = exact_jacobi_norm(chart, w0, j0, k0, traj.tau_grid, blocks)
    err = (np.abs(traj.jacobi_norm - exact)
           / np.maximum(1.0, np.maximum(exact, unstable)))
    assert np.max(err) <= 1e3 * tol, (name, x0, w0, j0, k0, np.max(err))
    return traj


def test_a_field_far_below_the_tolerance_follows_the_exact_flow():
    # A draw that failed the property above: K0 of 2.2e-16 per component,
    # far below the walk's tolerance, was left unresolved while it grew
    # like cosh(kappa tau), and read an error of 1.9e-3 at tau = 10.  The
    # field is now integrated at g-norm about 1 and scaled back.
    traj = check_jacobi_against_the_exact_flow(
        "chaotic", np.zeros(3), np.array([0.0, 5.0, 0.0]), np.zeros(3),
        np.full(3, 2.2e-16))
    lam = estimate_lambda_j(traj, (10.0 / 3.0, 10.0)).lambda_j
    assert lam == pytest.approx(5.0 / SQRT2, rel=1e-5)


@st.composite
def deep_draws(draw):
    """A start in the sampling box of the Gaussian or chaotic model and a
    velocity of g-speed log-uniform in [0.1, 10^1.99], whose geodesic over
    tau = 10 can reach sigma far below float64's range of e^{-2u}.  Near
    g-speed 100 a Gaussian field grows like e^{707} by tau = 10, and the
    walk's stage sums overflow on either right-hand side."""
    name = draw(st.sampled_from(("gaussian", "chaotic")))
    mdl = model(name)
    theta0 = draw(st.tuples(*(st.floats(lo, hi) for lo, hi in mdl.sample_box)))
    w = np.array(draw(st.tuples(*(st.floats(-1.0, 1.0),) * mdl.dim)))
    if np.linalg.norm(w) < 1e-3:
        w = np.eye(mdl.dim)[0]
    speed = 10.0 ** draw(st.floats(-1.0, 1.99))
    # v = L^-T w / |w| has g-norm 1 when g = L L^T.
    chol = np.linalg.cholesky(mdl.metric(theta0))
    return name, theta0, speed * np.linalg.solve(chol.T, w / np.linalg.norm(w))


@settings(max_examples=30, deadline=None)
@given(draw=deep_draws())
@example(draw=("gaussian", (-1.1013, 2.8555), (76.6245, -118.3237)))
def test_finite_difference_jacobi_runs_to_the_end_on_deep_draws(draw):
    # The finite-difference forms are taken at the start, so a run whose
    # sigma leaves float64's range of the chart metric e^{-2u} completes,
    # and its lambda_J is the closed-form run's.  The explicit draw raised
    # SingularityError while the metric was differenced at every stage.
    name, theta0, v0 = draw
    mdl = model(name)
    chol = np.linalg.cholesky(mdl.metric(theta0))
    w = chol.T @ np.asarray(v0)
    perp = (np.array([-w[1], w[0]]) if mdl.dim == 2
            else np.cross(w, np.eye(3)[int(np.argmin(np.abs(w)))]))
    kick = np.linalg.solve(chol.T, perp / np.linalg.norm(perp))
    base = integrate_geodesic(mdl, theta0, v0, 10.0, samples=64)
    lams = [estimate_lambda_j(integrate_jacobi(
        mdl, base, np.zeros(mdl.dim), kick, use_closed_form=closed),
        (10.0 / 3.0, 10.0)).lambda_j for closed in (True, False)]
    assert lams[1] == pytest.approx(lams[0], rel=1e-7, abs=0.0)


@pytest.mark.parametrize("name", ["integrable", "chaotic", "gaussian", "euclidean"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_closed_form_right_hand_sides_match_the_dense_expressions(name, data):
    # The right-hand sides sum the nonzero entries of the chart's constant
    # frame forms term by term.  Where the dense expressions built from the
    # whole arrays are finite, every component agrees with them within a few
    # ulps of the sum of its absolute terms; the order of summation differs.
    # Where x leaves the chart (an inf or NaN coordinate) every component is
    # NaN, and where the frame lengths or their products overflow the
    # result is not finite either, so such a stage rejects the step; but
    # where w_a is exactly 0, dx_a is 0 however long e_a is.
    chart = model(name).chart
    dim = chart.model.dim
    x = data.draw(arrays(np.float64, dim, elements=st.floats(-1e3, 1e3)))
    if data.draw(st.booleans()):
        x[data.draw(st.integers(0, dim - 1))] = data.draw(
            st.sampled_from([math.inf, -math.inf, math.nan]))
    w, jac, rate = data.draw(arrays(np.float64, (3, dim),
                                    elements=st.floats(-1e60, 1e60)))
    y = np.concatenate([x, w, jac, rate])
    with np.errstate(all="ignore"):
        dx = np.where(w == 0.0, w, chart.lengths(x) * w)
        along = w @ chart.omega
        dense = np.concatenate([dx, -along @ w, rate - along @ jac,
                                -along @ rate - ((chart.curvature @ w) @ jac) @ w])
        a_w, a_jac, a_rate = np.abs(w), np.abs(jac), np.abs(rate)
        a_along = a_w @ np.abs(chart.omega)
        terms = np.concatenate([
            np.abs(dx), a_along @ a_w, a_rate + a_along @ a_jac,
            a_along @ a_rate + ((np.abs(chart.curvature) @ a_w) @ a_jac) @ a_w])
    tolerance = 8 * np.finfo(float).eps * terms + 8 * np.finfo(float).smallest_subnormal
    for jacobi, size in ((False, 2 * dim), (True, 4 * dim)):
        got = np.array(_closed_form_rhs(chart, chart.omega, chart.curvature,
                                        jacobi)(0.0, y[:size]))
        assert got.shape == (size,)
        if not chart.model.contains(x):
            assert np.isnan(got).all()
        elif np.isfinite(dense[:size]).all():
            assert np.all(np.abs(got - dense[:size]) <= tolerance[:size]), (
                got, dense[:size])
        else:
            assert not np.isfinite(got).all()


def test_frame_length_overflow_rejects_the_stage():
    # On the vertical Gaussian geodesic u = 150 tau, mu = 0, the length e^u
    # of e_mu overflows at u = 709.8, tau = 4.73, while w_mu is exactly 0:
    # dmu = e^u w_mu stays 0, so the walk runs on and follows the exact
    # flow, with sigma = inf and a theta velocity 0 (not NaN) beside it.
    # So does a deviation field along the geodesic, J = (1 + tau) e_u,
    # whose e_mu component stays exactly 0 too.  A field along e_mu grows
    # like cosh(150 tau) and leaves float64's range at the same tau, which
    # the step-size failure names.
    gm = gaussian_model()
    traj = integrate_geodesic(gm, (0.0, 1.0), (0.0, 150.0), 10.0)
    short = integrate_geodesic(gm, (0.0, 1.0), (0.0, 150.0), 1.0, samples=16)
    jac = integrate_jacobi(gm, replace(short, tau_grid=np.linspace(0.0, 10.0, 512)),
                           (0.0, 1.0), (0.0, 1.0))
    for name, run in (("geodesic", traj), ("jacobi", jac)):
        assert np.all(run.chart_coords[:, 0] == 0.0), name
        np.testing.assert_allclose(run.chart_coords[:, 1], 150.0 * run.tau_grid,
                                   rtol=1e-12, err_msg=name)
        past = run.chart_coords[:, 1] > 709.8
        assert past.any() and np.all(run.coords[past, 1] == math.inf), name
        assert np.all(run.velocity[:, 0] == 0.0), name
        np.testing.assert_allclose(run.speed, 150.0 * SQRT2, rtol=1e-12)
    assert np.all(jac.jacobi[:, 0] == 0.0)
    np.testing.assert_allclose(jac.jacobi_norm, SQRT2 * (1.0 + jac.tau_grid),
                               rtol=1e-10)
    with pytest.raises(SingularityError,
                       match="step size underflowed.*float64's range") as err:
        integrate_jacobi(gm, traj, (1.0, 0.0), (0.0, 1.0))
    assert err.value.last_state[0] == pytest.approx(4.66, abs=0.01)


def test_geodesic_validation():
    from dataclasses import replace

    from igac.errors import InapplicableError
    with pytest.raises(InapplicableError):
        integrate_geodesic(replace(gaussian_model(), chart=None), (0.0, 1.0),
                           (1.0, 0.0), 1.0)
    with pytest.raises(DomainError):
        integrate_geodesic(integrable_model(), (1.0, 1.0), (1.0, 0.0), -1.0)
    with pytest.raises(DomainError):
        integrate_geodesic(integrable_model(), (1.0, 1.0), (1.0, 0.0), 1.0, tol=0.0)
    with pytest.raises(ShapeError):
        integrate_geodesic(integrable_model(), (1.0, 1.0), (1.0,), 1.0)


BASE = integrate_geodesic(integrable_model(), (1.0, 1.0), (1.0, 0.0), 1.0)


def jacobi(J0=(0, 1), dJ0=(1, 0), **kw):
    return lambda m: integrate_jacobi(m, BASE, J0, dJ0, **kw)


def geodesic(v0=(1, 0), tau_max=1.0, **kw):
    return lambda m: integrate_geodesic(m, (1, 1), v0, tau_max, **kw)


@pytest.mark.parametrize("call, field", [
    pytest.param(jacobi(tol=0.0), "tol", id="jacobi-tol-0"),
    pytest.param(jacobi(tol=math.nan), "tol", id="jacobi-tol-nan"),
    pytest.param(jacobi(tol=-1.0), "tol", id="jacobi-tol-negative"),
    pytest.param(jacobi(tol=math.inf), "tol", id="jacobi-tol-inf"),
    pytest.param(jacobi(J0=(math.nan, 1)), "J0", id="jacobi-J0-nan"),
    pytest.param(jacobi(dJ0=(1, math.inf)), "dJ0", id="jacobi-dJ0-inf"),
    pytest.param(geodesic(v0=(math.nan, 1)), "v0", id="geodesic-v0-nan"),
    pytest.param(geodesic(tol=math.inf), "tol", id="geodesic-tol-inf"),
    pytest.param(geodesic(tau_max=math.inf), "tau_max", id="geodesic-tau-inf"),
])
def test_integrators_share_one_input_check(call, field):
    # Invalid tolerances and non-finite start vectors are domain errors at
    # entry, never a step-size underflow (or, for tau_max = inf, a hang).
    with pytest.raises(DomainError) as err:
        call(integrable_model())
    assert err.value.field == field


def test_flat_jacobi_linear_growth():
    em = euclidean_model(2)
    base = integrate_geodesic(em, (0.0, 0.0), (1.0, 0.0), 10.0, tol=1e-10)
    traj = integrate_jacobi(em, base, (0.0, 0.0), (0.0, 1.0), tol=1e-10)
    np.testing.assert_allclose(traj.jacobi_norm, traj.tau_grid, atol=1e-8)


def test_gaussian_jacobi_sinh_growth():
    gm = gaussian_model()
    base = integrate_geodesic(gm, (0.0, 1.0), (0.0, 1.0 / SQRT2), 5.0, tol=1e-10)
    traj = integrate_jacobi(gm, base, (0.0, 0.0), (1.0, 0.0), tol=1e-10)
    expected = SQRT2 * np.sinh(5.0 / SQRT2)
    assert traj.jacobi_norm[-1] == pytest.approx(expected, rel=1e-4)


def test_integrable_jacobi_at_most_linear():
    im = integrable_model()
    base = integrate_geodesic(im, (1.0, 1.0), (1.0, 1.0), 50.0, tol=1e-10)
    traj = integrate_jacobi(im, base, (0.0, 0.0),
                            (1.0 / SQRT2, -1.0 / SQRT2), tol=1e-10)
    mask = traj.tau_grid > 1.0
    exponent = np.polyfit(np.log(traj.tau_grid[mask]),
                          np.log(traj.jacobi_norm[mask]), 1)[0]
    assert exponent == pytest.approx(1.0, rel=0.02)


def test_jacobi_superposition():
    gm = gaussian_model()
    base = integrate_geodesic(gm, (0.0, 1.0), (0.0, 1.0 / SQRT2), 3.0, tol=1e-11)
    a = integrate_jacobi(gm, base, (0.2, 0.0), (1.0, 0.0), tol=1e-11)
    b = integrate_jacobi(gm, base, (0.0, 0.1), (0.0, 0.3), tol=1e-11)
    both = integrate_jacobi(gm, base, (0.2, 0.1), (1.0, 0.3), tol=1e-11)
    np.testing.assert_allclose(both.jacobi, a.jacobi + b.jacobi,
                               rtol=1e-7, atol=1e-9)


def test_jacobi_model_mismatch():
    base = integrate_geodesic(integrable_model(), (1.0, 1.0), (1.0, 0.0), 1.0)
    with pytest.raises(ShapeError):
        integrate_jacobi(gaussian_model(), base, (0.0, 0.0), (1.0, 0.0))


def test_lambda_j_gaussian_window():
    gm = gaussian_model()
    base = integrate_geodesic(gm, (0.0, 1.0), (0.0, 1.0 / SQRT2), 30.0,
                              tol=1e-10, samples=1024)
    traj = integrate_jacobi(gm, base, (0.0, 0.0), (1.0, 0.0), tol=1e-10)
    est = estimate_lambda_j(traj, (10.0, 30.0))
    assert est.lambda_j == pytest.approx(1.0 / SQRT2, rel=0.02)
    assert est.fit_r2 > 0.999


def test_lambda_j_flat_consistent_with_zero():
    em = euclidean_model(2)
    base = integrate_geodesic(em, (0.0, 0.0), (1.0, 0.0), 30.0, tol=1e-10,
                              samples=1024)
    # Covariantly constant deviation field: no stretching at all.
    const = integrate_jacobi(em, base, (1.0, 0.0), (0.0, 0.0), tol=1e-10)
    est = estimate_lambda_j(const, (10.0, 30.0))
    assert abs(est.lambda_j) < 0.05
    # Affine growth ||J|| = tau has a small but nonzero log-slope over a
    # finite window (about 1/tau_mid), still far from exponential rates.
    affine = integrate_jacobi(em, base, (0.0, 0.0), (0.0, 1.0), tol=1e-10)
    est2 = estimate_lambda_j(affine, (10.0, 30.0))
    assert 0.0 < est2.lambda_j < 0.06


def test_lambda_j_chaotic_positive():
    cm = chaotic_model()
    base = integrate_geodesic(cm, (1.0, 0.0, 1e4), (0.25, 0.0, -2500.0),
                              30.0, tol=1e-10, samples=1024)
    traj = integrate_jacobi(cm, base, (0.0, 0.0, 0.0), (0.0, 1e4, 0.0),
                            tol=1e-10)
    est = estimate_lambda_j(traj, (10.0, 30.0))
    assert est.lambda_j > 0.1


def test_lambda_j_window_validation():
    gm = gaussian_model()
    base = integrate_geodesic(gm, (0.0, 1.0), (0.0, 1.0 / SQRT2), 30.0,
                              samples=64)
    traj = integrate_jacobi(gm, base, (0.0, 0.0), (1.0, 0.0))
    with pytest.raises(InsufficientDataError):
        estimate_lambda_j(traj, (29.0, 30.0))  # fewer than 10 samples
    with pytest.raises(InsufficientDataError):
        estimate_lambda_j(base, (10.0, 30.0))  # no deviation field


@pytest.mark.parametrize("closed", [True, False])
@pytest.mark.parametrize("name", ["chaotic", "gaussian"])
def test_solver_statistics_count_every_right_hand_side(monkeypatch, name, closed):
    # rhs_calls counts every right-hand side the walk evaluates, on the
    # geodesic and on both deviation paths.  The closed forms make no call
    # into geometry; a finite-difference run takes its frame forms at the
    # start, with exactly one call through the christoffel name bound in
    # igac.dynamics.
    import igac.dynamics as dyn
    rhs_calls, christoffel_calls = [0], [0]
    walk, christoffel = dyn._integrate_on_grid, dyn.christoffel

    def counted_walk(rhs, *args):
        def counted_rhs(tau, y):
            rhs_calls[0] += 1
            return rhs(tau, y)
        return walk(counted_rhs, *args)

    def counted_christoffel(*args, **kwargs):
        christoffel_calls[0] += 1
        return christoffel(*args, **kwargs)

    monkeypatch.setattr(dyn, "_integrate_on_grid", counted_walk)
    monkeypatch.setattr(dyn, "christoffel", counted_christoffel)
    mdl = model(name)
    theta0 = mdl.random_points(1, seed=43)[0]
    v0 = np.linspace(0.3, -0.4, mdl.dim)
    base = integrate_geodesic(mdl, theta0, v0, 5.0, samples=64)
    counts = [(base.solver, rhs_calls[0], christoffel_calls[0], 0)]
    rhs_calls[0] = christoffel_calls[0] = 0
    traj = integrate_jacobi(mdl, base, np.zeros(mdl.dim), np.ones(mdl.dim),
                            use_closed_form=closed)
    counts.append((traj.solver, rhs_calls[0], christoffel_calls[0],
                   0 if closed else 1))
    for stats, counted_rhs, counted_christoffel, expected_christoffel in counts:
        assert stats.rhs_calls == counted_rhs
        assert stats.rhs_calls == 1 + 6 * (stats.accepted + stats.rejected)
        assert stats.accepted >= 1 and 0.0 < stats.min_step <= 5.0
        assert counted_christoffel == expected_christoffel


def test_solver_statistics_count_rejected_steps():
    # A narrow bump in y' = g(t) makes the walk reject steps.
    calls = []

    def rhs(t, y):
        calls.append(t)
        return np.array([1.0 / (1.0 + 400.0 * (t - 5.0) ** 2)])

    _, stats = _integrate_on_grid(rhs, np.zeros(1), np.linspace(0.0, 10.0, 11),
                                  tol=1e-10)
    assert stats.rejected > 0
    assert stats.rhs_calls == len(calls) == 1 + 6 * (stats.accepted
                                                     + stats.rejected)


def walled_chart(wall):
    """A flat 2-d chart, x = theta, whose metric turns singular or non-finite
    past x0 = 1, or whose domain ends there (no wall for "none"); its frame
    forms are those of the flat side."""
    bad = {"singular": 0.0, "inf": math.inf, "nan": math.nan}.get(wall)

    def metric(x):
        g = np.zeros(np.shape(x)[:-1] + (2, 2)) + np.eye(2)
        if bad is not None:
            g[np.asarray(x)[..., 0] > 1.0] = bad
        return g

    flat = ManifoldModel(
        name="walled", dim=2, coord_names=("x0", "x1"),
        domain=((-math.inf, 1.0 if wall == "domain" else math.inf),
                (-math.inf, math.inf)),
        metric_fn=metric)
    return replace(flat, chart=Chart(flat, np.zeros(2, dtype=bool),
                                     np.zeros((2, 2)), np.ones(2),
                                     np.zeros((2, 2, 2)), np.zeros((2,) * 4)))


def test_geodesic_stage_outside_the_chart_rejects_the_step():
    # The chart's domain ends at x0 = 1, which x0 = tau reaches at tau = 1.
    with pytest.raises(SingularityError) as err:
        integrate_geodesic(walled_chart("domain"), (0.0, 0.0), (1.0, 0.0), 3.0,
                           samples=16)
    assert err.value.last_state[0] <= 1.0


@pytest.mark.parametrize("wall", ["singular", "inf", "nan", "domain"])
def test_finite_differences_reject_steps_into_a_bad_stencil(wall, monkeypatch):
    # The finite-difference frame forms are taken once, at the start: from
    # a start past a wall in the metric (singular, inf or NaN past x0 = 1)
    # the run is a numerical failure before any step.  Where the domain
    # ends at x0 = 1 instead, x0 = tau reaches it at tau = 1: every stage
    # past it is rejected, and the run ends in SingularityError before it.
    mdl = walled_chart(wall)
    start = 0.0 if wall == "domain" else 2.0
    base = integrate_geodesic(walled_chart("none"), (start, 0.0), (1.0, 0.0),
                              3.0, samples=16)
    if wall != "domain":
        monkeypatch.setattr(dynamics, "_integrate_on_grid",
                            lambda *args: pytest.fail("the walk started"))
    with pytest.raises(IgacError) as err:
        integrate_jacobi(mdl, base, (0.0, 0.0), (0.0, 1.0),
                         use_closed_form=False)
    assert isinstance(err.value, ArithmeticError)
    if wall == "domain":
        assert isinstance(err.value, SingularityError)
        assert err.value.last_state[0] <= 1.0
