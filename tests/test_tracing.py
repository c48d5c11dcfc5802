"""The benchmark's per-layer tracer (bench/tracing.py) against igac: every
function it wraps must still resolve, and its counts must see the calls."""

import importlib
from pathlib import Path

from igac import chaotic_model, dynamics, integrate_geodesic, integrate_jacobi
from igac.manifold import ManifoldModel

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_installs_and_counts_a_finite_difference_jacobi_run(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    originals = dynamics.christoffel, ManifoldModel.metric
    mdl = chaotic_model()
    base = integrate_geodesic(mdl, (1.0, 0.0, 1.0), (0.1, 0.2, 0.3), 1.0,
                              samples=8)
    tracer = tracing.Tracer()
    # Raises AttributeError if a TARGETS entry or the igac.dynamics
    # christoffel hook no longer resolves.
    tracer.install()
    try:
        integrate_jacobi(mdl, base, (0.0, 1.0, 0.0), (1.0, 0.0, 0.0),
                         use_closed_form=False)
    finally:
        tracer.uninstall()
    assert (dynamics.christoffel, ManifoldModel.metric) == originals
    assert set(tracer.layer_of) == {f"{layer}.{attr}"
                                    for layer, _, attr, _ in tracing.TARGETS}
    counts = tracer.layer_metrics()
    assert counts["dynamics.rhs_calls"][0] > 0
    assert counts["manifold.metric_calls"][0] > 0
