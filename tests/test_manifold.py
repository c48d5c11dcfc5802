from dataclasses import replace

import numpy as np
import pytest

from igac import (AccuracyError, DomainError, ShapeError,
                  UnsupportedFamilyError, chaotic_model, euclidean_model,
                  family, fisher_metric_closed_form, fisher_metric_quadrature,
                  gaussian_model, integrable_model, model,
                  model_from_family, product_family)
from igac.families import exponential_family
from igac.manifold import QuadratureSettings

ALL_MODELS = (integrable_model(), chaotic_model(), gaussian_model(),
              euclidean_model(2))


def family_grid(fam, per_param=5):
    axes = []
    for lo, _hi in fam.param_domain:
        if lo == 0.0:
            axes.append(np.linspace(0.5, 2.5, per_param))
        else:
            axes.append(np.linspace(-1.0, 1.0, per_param))
    mesh = np.meshgrid(*axes, indexing="ij")
    return list(zip(*(m.ravel() for m in mesh)))


def test_closed_form_exponential():
    g = fisher_metric_closed_form(family("exponential"), (2.0,))
    np.testing.assert_allclose(g, [[0.25]])


def test_closed_form_wigner():
    g = fisher_metric_closed_form(family("wigner_dyson"), (1.0,))
    np.testing.assert_allclose(g, [[4.0]])


def test_closed_form_gaussian():
    g = fisher_metric_closed_form(family("gaussian"), (0.0, 1.0))
    np.testing.assert_allclose(g, np.diag([1.0, 2.0]))


def test_closed_form_composites_block_diagonal():
    g = fisher_metric_closed_form(family("composite_integrable"), (2.0, 4.0))
    np.testing.assert_allclose(g, np.diag([0.25, 0.0625]))
    g = fisher_metric_closed_form(family("composite_chaotic"), (1.0, 0.0, 1.0))
    np.testing.assert_allclose(g, np.diag([4.0, 1.0, 2.0]))


def test_quadrature_exponential_matches_closed_form():
    res = fisher_metric_quadrature(family("exponential"), (2.0,))
    np.testing.assert_allclose(res.matrix, [[0.25]], atol=1e-6)
    assert res.error_estimate < 1e-8


def test_quadrature_gaussian_matches_closed_form():
    res = fisher_metric_quadrature(family("gaussian"), (0.0, 1.0))
    np.testing.assert_allclose(res.matrix, np.diag([1.0, 2.0]), atol=1e-6)


def test_quadrature_chaotic_composite():
    res = fisher_metric_quadrature(family("composite_chaotic"), (1.0, 0.0, 1.0))
    np.testing.assert_allclose(res.matrix, np.diag([4.0, 1.0, 2.0]), atol=1e-5)


def test_quadrature_grid_agreement():
    # Relative Frobenius error below 1e-12 on a 5-point-per-parameter grid.
    for name in ("exponential", "gaussian", "wigner_dyson",
                 "composite_integrable", "composite_chaotic"):
        fam = family(name)
        for theta in family_grid(fam):
            closed = fisher_metric_closed_form(fam, theta)
            quad = fisher_metric_quadrature(fam, theta).matrix
            rel = np.linalg.norm(quad - closed) / np.linalg.norm(closed)
            assert rel < 1e-12, (name, theta, rel)


def test_quadrature_cross_blocks_exactly_zero():
    res = fisher_metric_quadrature(family("composite_chaotic"), (1.3, 0.4, 0.9))
    assert res.matrix[0, 1] == 0.0 and res.matrix[0, 2] == 0.0
    assert res.matrix[1, 0] == 0.0 and res.matrix[2, 0] == 0.0


def test_quadrature_nonconvergence_raises_with_estimates():
    settings = QuadratureSettings(nodes=4, tol=1e-16)
    with pytest.raises(AccuracyError) as err:
        fisher_metric_quadrature(family("wigner_dyson"), (0.6,), settings)
    assert len(err.value.estimates) == 2


def test_positive_definiteness_random_points():
    for mdl in ALL_MODELS:
        for theta in mdl.random_points(100, seed=21):
            eigmin = np.linalg.eigvalsh(mdl.metric(theta)).min()
            assert eigmin > 0.0, (mdl.name, theta)


@pytest.mark.parametrize("mdl", ALL_MODELS + tuple(
    m.chart.model for m in ALL_MODELS), ids=lambda m: m.name)
def test_metric_on_a_stack_is_bitwise_the_per_point_metrics(mdl):
    points = np.random.default_rng(5).uniform(0.2, 3.0, (6, mdl.dim))
    stacked = mdl.metric(points)
    assert stacked.shape == (6, mdl.dim, mdl.dim)
    assert stacked.tobytes() == np.stack([mdl.metric(p) for p in points]).tobytes()
    with pytest.raises(ShapeError):
        replace(mdl, metric_fn=lambda x: np.eye(mdl.dim)).metric(points)


def test_unsupported_family_errors():
    with pytest.raises(UnsupportedFamilyError):
        model("heisenberg")
    fake = family("exponential")
    object.__setattr__(fake, "kind", "brody")
    with pytest.raises(UnsupportedFamilyError):
        fisher_metric_closed_form(fake, (1.0,))


def test_model_domain_checks():
    mdl = chaotic_model()
    with pytest.raises(DomainError) as err:
        mdl.check_point((1.0, 0.0, -1.0))
    assert err.value.parameter == "sigma_B"
    assert mdl.contains((1.0, 0.0, 1.0))
    assert not mdl.contains((1.0, 0.0, 0.0))


def test_prebuilt_metrics_match_declared_forms():
    im = integrable_model()
    np.testing.assert_allclose(im.metric((2.0, 4.0)), np.diag([0.25, 0.0625]))
    cm = chaotic_model()
    np.testing.assert_allclose(cm.metric((2.0, 7.0, 0.5)),
                               np.diag([1.0, 4.0, 8.0]))
    assert im.dim == 2 and cm.dim == 3


def test_model_from_product_family_dim():
    fam = product_family([exponential_family(f"m{i}") for i in range(3)])
    mdl = model_from_family(fam, name="exp3")
    assert mdl.dim == 3
    np.testing.assert_allclose(mdl.metric((1.0, 2.0, 4.0)),
                               np.diag([1.0, 0.25, 0.0625]))
