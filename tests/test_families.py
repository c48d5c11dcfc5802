import math

import numpy as np
import pytest
from scipy.integrate import quad

from igac import (DomainError, ShapeError, UnsupportedFamilyError, cdf,
                  density, family, log_density, moments, product_family,
                  sample)
from igac.families import exponential_family, gaussian_family
from igac.quadrature import support_rule

ALL_NAMES = ("exponential", "gaussian", "wigner_dyson", "poisson_spacing",
             "composite_integrable", "composite_chaotic")

UNIVARIATE = ("exponential", "gaussian", "wigner_dyson")


def grid_points(fam, count=10):
    """Deterministic in-domain parameter points for a family."""
    pts = []
    for k in range(count):
        t = (k + 1) / (count + 1)
        vals = []
        for lo, hi in fam.param_domain:
            if lo == 0.0:
                vals.append(0.3 + 2.7 * t)      # scale parameter
            else:
                vals.append(-2.0 + 4.0 * t)     # location parameter
        pts.append(vals)
    return pts


def test_density_composite_origin():
    fam = family("composite_integrable")
    assert density(fam, (1.0, 1.0), (0.0, 0.0)) == pytest.approx(1.0)


def test_density_exponential_at_zero():
    assert density(family("exponential"), (2.0,), 0.0) == pytest.approx(0.5)


def test_density_wigner_dyson_value():
    # Oracle: direct evaluation of (pi x / 2 mu^2) exp(-pi x^2 / 4 mu^2),
    # quadrature-checked for normalization below.
    expected = (math.pi / 2.0) * math.exp(-math.pi / 4.0)
    assert expected == pytest.approx(0.7161859363405692, rel=1e-12)
    assert density(family("wigner_dyson"), (1.0,), 1.0) == pytest.approx(expected)


def test_density_out_of_domain_names_parameter():
    with pytest.raises(DomainError) as err:
        density(family("composite_integrable"), (1.0, -1.0), (0.0, 0.0))
    assert err.value.parameter == "mu_B"
    with pytest.raises(DomainError) as err:
        moments(family("gaussian"), (0.0, 0.0))
    assert err.value.parameter == "sigma"


def test_density_outside_support_is_zero_not_error():
    assert density(family("exponential"), (1.0,), -0.5) == 0.0
    assert density(family("wigner_dyson"), (1.0,), -2.0) == 0.0
    fam = family("composite_chaotic")
    assert density(fam, (1.0, 0.0, 1.0), (-1.0, 0.0)) == 0.0
    # Gaussian microvariable is unrestricted.
    assert density(fam, (1.0, 0.0, 1.0), (1.0, -3.0)) > 0.0


def test_moments_exponential():
    mean, var = moments(family("exponential"), (3.0,))
    assert mean[0] == pytest.approx(3.0)
    assert var[0] == pytest.approx(9.0)


def test_moments_gaussian_standard():
    mean, var = moments(family("gaussian"), (0.0, 1.0))
    assert mean[0] == pytest.approx(0.0)
    assert var[0] == pytest.approx(1.0)


def test_moments_wigner_dyson_against_quadrature():
    fam = family("wigner_dyson")
    for mu in (1.0, 2.0, 0.7):
        mean_oracle, _ = quad(lambda x: x * density(fam, (mu,), x), 0, np.inf)
        var_oracle, _ = quad(
            lambda x: (x - mean_oracle) ** 2 * density(fam, (mu,), x), 0, np.inf)
        mean, var = moments(fam, (mu,))
        assert mean[0] == pytest.approx(mean_oracle, rel=1e-9)
        assert var[0] == pytest.approx(var_oracle, rel=1e-8)
    assert moments(fam, (1.0,))[1][0] == pytest.approx(4.0 / math.pi - 1.0)


def test_moments_composite_concatenates():
    mean, var = moments(family("composite_chaotic"), (2.0, -1.0, 0.5))
    assert mean == pytest.approx([2.0, -1.0])
    assert var == pytest.approx([(4.0 / math.pi - 1.0) * 4.0, 0.25])


def test_sample_deterministic_for_seed():
    for name in ALL_NAMES:
        fam = family(name)
        theta = grid_points(fam, 1)[0]
        a = sample(fam, theta, 7, seed=123)
        b = sample(fam, theta, 7, seed=123)
        np.testing.assert_array_equal(a, b)
        c = sample(fam, theta, 7, seed=124)
        assert not np.array_equal(a, c)


def test_sample_single_draw_shape():
    assert sample(family("exponential"), (1.0,), 1, seed=0).shape == (1,)
    assert sample(family("composite_chaotic"), (1.0, 0.0, 1.0), 1, seed=0).shape == (1, 2)


def test_sample_exponential_mean():
    xs = sample(family("exponential"), (1.0,), 100_000, seed=11)
    assert abs(xs.mean() - 1.0) < 0.02


def test_sample_wigner_mean():
    xs = sample(family("wigner_dyson"), (2.0,), 100_000, seed=12)
    assert abs(xs.mean() - 2.0) < 0.05


def test_sample_count_validation():
    with pytest.raises(DomainError):
        sample(family("exponential"), (1.0,), 0, seed=0)


def test_normalization_by_quadrature():
    # Density integrates to 1 over the support for >= 10 points per family.
    for name in ("exponential", "gaussian", "wigner_dyson"):
        fam = family(name)
        kind = fam.supports[0]
        x, w = support_rule(kind, 800)
        for theta in grid_points(fam, 10):
            total = float(np.dot(w, density(fam, theta, x)))
            assert abs(total - 1.0) < 1e-8, (name, theta, total)


def test_normalization_composites_by_factor_product():
    # Composite normalization follows from factor normalization and exact
    # factorization; check the 2-d integral on a tensor grid directly.
    fam = family("composite_integrable")
    x, w = support_rule("halfline", 400)
    for theta in grid_points(fam, 10):
        vals_a = density(family("exponential"), theta[:1], x)
        vals_b = density(family("exponential"), theta[1:], x)
        assert abs(np.dot(w, vals_a) * np.dot(w, vals_b) - 1.0) < 1e-8


def test_composite_factorization_exact():
    fam = family("composite_chaotic")
    wd, ga = family("wigner_dyson"), family("gaussian")
    rng = np.random.default_rng(5)
    for _ in range(50):
        theta = (rng.uniform(0.5, 3), rng.uniform(-2, 2), rng.uniform(0.5, 3))
        x = (rng.uniform(0, 4), rng.uniform(-4, 4))
        lhs = density(fam, theta, x)
        rhs = density(wd, theta[:1], x[0]) * density(ga, theta[1:], x[1])
        assert lhs == pytest.approx(rhs, rel=1e-14)  # equal to round-off


def test_sampling_ks_consistency():
    for name in UNIVARIATE:
        fam = family(name)
        theta = grid_points(fam, 1)[0]
        xs = np.sort(sample(fam, theta, 10_000, seed=77))
        ref = cdf(fam, theta, xs)
        n = len(xs)
        d_plus = np.max(np.arange(1, n + 1) / n - ref)
        d_minus = np.max(ref - np.arange(0, n) / n)
        assert max(d_plus, d_minus) < 0.02, name


def test_poisson_spacing_alias():
    alias = family("poisson_spacing")
    assert alias.kind == "exponential"
    assert density(alias, (2.0,), 0.0) == pytest.approx(0.5)


def test_unknown_family():
    with pytest.raises(UnsupportedFamilyError):
        family("brody")


@pytest.mark.parametrize("params", ["b", "bc", ("b",), ("b", "c", "d"),
                                    ("b", 2), 3])
def test_atomic_family_takes_one_name_per_parameter(params):
    with pytest.raises(ShapeError, match="one string each"):
        gaussian_family(params)
    assert gaussian_family(["b", "c"]).param_names == ("b", "c")


def test_product_family_of_three_exponentials():
    fam = product_family([exponential_family(f"mu_{i}") for i in "abc"])
    assert fam.n_params == 3 and fam.n_micro == 3
    assert density(fam, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0)) == pytest.approx(1.0)


def test_log_density_matches_density():
    fam = family("composite_chaotic")
    theta = (1.3, 0.2, 0.8)
    x = (0.7, -0.4)
    assert math.exp(log_density(fam, theta, x)) == pytest.approx(
        density(fam, theta, x), rel=1e-12)
