import math

import numpy as np
import pytest

from igac.svgplot import _Canvas


def scalar_points(canvas, xs, ys):
    """The polyline points mapped and formatted one value at a time."""
    return " ".join(f"{canvas._x(x):.2f},{canvas._y(y):.2f}"
                    for x, y in zip(xs, ys))


@pytest.mark.parametrize("xlim, ylim", [((-1.0, 3.0), (0.0, 2.5)),
                                        ((2.0, 2.0), (-1e300, 1e300))])
def test_polyline_points_match_the_scalar_mapping(xlim, ylim):
    rng = np.random.default_rng(3)
    xs = np.concatenate([rng.uniform(-2.0, 4.0, 50), [math.inf, -math.inf,
                                                      math.nan, 0.0, -0.0]])
    ys = np.concatenate([rng.normal(1.0, 3.0, 50) * 10.0 ** rng.integers(-3, 4, 50),
                         [1.0, math.nan, math.inf, -math.inf, 1e308]])
    for pair in [(xs, ys), (xs.tolist(), ys.tolist()), ([1, 2, 3], [0, 1])]:
        canvas = _Canvas(xlim, ylim, "t", "x", "y")
        canvas.polyline(*pair, "#000000")
        with np.errstate(invalid="ignore", over="ignore"):
            expected = scalar_points(canvas, *pair)
        assert canvas.parts[-1] == (
            f'<polyline points="{expected}" fill="none" stroke="#000000" '
            f'stroke-width="1.5"/>')
