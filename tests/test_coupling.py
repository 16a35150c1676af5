import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

from oscising.coupling import (_KNOT_STEP, _TABLE_SIZE, CouplingFunction, by_name,
                               sine, smoothed_square)

GRID = np.linspace(-7.0, 7.0, 613)


@pytest.fixture(params=["sine", "smoothed_square"])
def any_coupling(request):
    return sine() if request.param == "sine" else smoothed_square(4.0)


def test_sine_analytic():
    c = sine()
    assert np.allclose(c.g(GRID), np.sin(GRID))
    assert np.allclose(c.antiderivative(GRID), 1 - np.cos(GRID))
    assert np.allclose(c.pair_kernel(GRID), np.cos(GRID))


def test_odd_symmetry(any_coupling):
    assert np.abs(any_coupling.g(GRID) + any_coupling.g(-GRID)).max() < 1e-6


def test_periodicity(any_coupling):
    assert np.abs(any_coupling.g(GRID + 2 * np.pi) - any_coupling.g(GRID)).max() < 1e-6


def test_antiderivative_zero_at_origin(any_coupling):
    assert abs(float(any_coupling.antiderivative(0.0))) < 1e-12


def test_antiderivative_periodic(any_coupling):
    d = any_coupling.antiderivative(GRID + 2 * np.pi) - any_coupling.antiderivative(GRID)
    assert np.abs(d).max() < 1e-9


def test_derivative_consistency(any_coupling):
    h = 1e-5
    # offset the probes off the table knots (G is only C1 there)
    x = GRID + 1e-4
    fd = (any_coupling.antiderivative(x + h) - any_coupling.antiderivative(x - h)) / (2 * h)
    assert np.abs(fd - any_coupling.g(x)).max() < 1e-6


# negative, far from the origin, and just below 0 (np.mod returns exactly 2 pi)
VALUE_POINTS = [0.3, 2.0, np.pi, 5.9, -0.4, -3.0, -6.2, 1000.3, -777.7, 1e6 + 0.25,
                -1e-300, np.nextafter(0.0, -1.0), -2e-17]


@pytest.mark.parametrize("beta", [0.5, 4.0, 25.0])
def test_smoothed_square_antiderivative_matches_quadrature(beta):
    """G(x) against adaptive quadrature of g over x reduced into [-pi, pi]
    (G is 2 pi-periodic because g is odd and 2 pi-periodic)."""
    c = smoothed_square(beta)
    g = lambda s: math.tanh(beta * math.sin(s))
    x = np.array(VALUE_POINTS)
    assert np.mod(x[-3:], 2 * np.pi).tolist() == [2 * np.pi] * 3
    ref = [quad(g, 0.0, math.remainder(v, 2 * math.pi), epsabs=1e-13, epsrel=1e-13,
                limit=200)[0] for v in VALUE_POINTS]
    assert np.abs(c.antiderivative(x) - ref).max() < 1e-9
    assert float(c.antiderivative(x[5])) == pytest.approx(ref[5], abs=1e-9)   # 0-d x


@pytest.mark.parametrize("beta", [0.5, 4.0, 25.0])
def test_smoothed_square_antiderivative_at_knots_is_the_table(beta):
    """Where x lands on a knot (u = x / h an integer) G returns the table
    value itself; every knot k * h is within rounding of it."""
    c = smoothed_square(beta)
    knots = np.arange(_TABLE_SIZE)
    x = knots * _KNOT_STEP
    table = c._antiderivative_table[0]
    on = np.mod(x, 2 * np.pi) / _KNOT_STEP == knots
    assert on.sum() > _TABLE_SIZE // 2
    assert np.array_equal(c.antiderivative(x[on]), table[on])
    assert np.abs(c.antiderivative(x) - table).max() < 1e-14
    assert table[0] == 0.0 and float(c.antiderivative(2 * np.pi)) == 0.0


def test_smoothed_square_antiderivative_propagates_nan():
    assert np.isnan(smoothed_square(4.0).antiderivative([np.nan, 0.5])).tolist() == [True, False]


def test_smoothed_square_limits():
    c = smoothed_square(25.0)
    # steep beta approaches a square wave away from the zero crossings
    assert float(c.g(np.pi / 2)) == pytest.approx(1.0, abs=1e-9)
    assert float(c.g(-np.pi / 2)) == pytest.approx(-1.0, abs=1e-9)
    # its pair kernel approaches a triangle wave: linear in the interior
    mid = c.pair_kernel(np.array([np.pi / 4, np.pi / 2, 3 * np.pi / 4]))
    assert mid[0] - mid[1] == pytest.approx(mid[1] - mid[2], rel=1e-3)


def test_g_of_sin_in_place_matches_g(any_coupling):
    s = np.sin(GRID)
    expected = any_coupling.g(GRID)
    assert np.array_equal(any_coupling.g_of_sin(s), expected)
    out = s.copy()
    assert any_coupling.g_of_sin(out, out=out) is out
    assert np.array_equal(out, expected)


@pytest.mark.parametrize("beta", [0.0, -1.0, None, float("nan"), float("inf")])
def test_smoothed_square_rejects_bad_beta(beta):
    with pytest.raises(ValueError, match="finite beta > 0"):
        CouplingFunction(kind="smoothed_square", beta=beta)


@pytest.mark.parametrize("beta", [30.0, 40.0, 60.0, 100.0, 400.0])
def test_smoothed_square_rejects_beta_too_steep_for_its_table(beta):
    """Past beta ~ 25 the Hermite cubic's slope misses g by more than 1e-6
    between the knots (60, 100 and 400 once slipped through a check whose
    points fell on the knots, where the slope is g by construction)."""
    with pytest.raises(ValueError, match="defect"):
        smoothed_square(beta)
    with pytest.raises(ValueError, match="defect"):
        by_name(f"sqsmooth:{beta}")


def test_steepest_accepted_smoothed_square_meets_the_bound_everywhere():
    """What the check accepts has G' = g to 1e-6 on a dense grid, not just
    at the check's own points; beta = 25 sits just below the limit."""
    c = smoothed_square(25.0)
    x = np.linspace(0.0, 2 * np.pi, 200_001)
    h = 1e-6
    fd = (c.antiderivative(x + h) - c.antiderivative(x - h)) / (2 * h)
    assert np.abs(fd - c.g(x)).max() < 1e-6


def unchecked_smoothed_square(monkeypatch, beta):
    """A smoothed square built past construction's slope check."""
    with monkeypatch.context() as m:
        m.setattr(CouplingFunction, "_slope_defect", lambda self: 0.0)
        return smoothed_square(beta)


def finite_difference_defect(c):
    """max |G' - g| at the slope check's points, with G' a central
    difference of antiderivative(): a measure of the evaluator's slope that
    does not read the table's coefficients."""
    t = 0.5 + np.array([[-1.0], [1.0]]) * (np.sqrt(3.0) / 6.0)
    x = ((np.arange(_TABLE_SIZE) + t) * _KNOT_STEP).ravel()
    h = 1e-5
    fd = (c.antiderivative(x + h) - c.antiderivative(x - h)) / (2 * h)
    return np.abs(fd - c.g(x)).max()


@pytest.mark.parametrize("beta", [4.0, 25.0, 30.0])
def test_slope_defect_is_the_finite_difference_one(monkeypatch, beta):
    """The analytic slope's defect is the one a finite difference of the
    evaluator measures, up to the difference's own error (about 1e-10)."""
    c = unchecked_smoothed_square(monkeypatch, beta)
    assert abs(c._slope_defect() - finite_difference_defect(c)) < 1e-9


def test_slope_check_bound_lies_between_beta_25_8_and_25_9():
    assert smoothed_square(25.8).beta == 25.8
    with pytest.raises(ValueError, match="defect"):
        smoothed_square(25.9)


@pytest.mark.parametrize("cell", [0, 1234, _TABLE_SIZE - 1])
def test_slope_check_rejects_one_bad_cell(monkeypatch, cell):
    """A c3 off by 1e-8 in one cell moves that cell's slope by about 1e-5."""
    y0, d0, c2, c3 = smoothed_square(4.0)._antiderivative_table
    c3 = c3.copy()
    c3[cell] += 1e-8
    monkeypatch.setattr(CouplingFunction, "_antiderivative_table",
                        property(lambda self: (y0, d0, c2, c3)))
    with pytest.raises(ValueError, match="defect"):
        smoothed_square(4.0)


def test_rejects_bad_kind():
    with pytest.raises(ValueError):
        CouplingFunction(kind="sawtooth")


def test_by_name():
    assert by_name("sine").kind == "sine"
    assert by_name("sqsmooth").beta == 4.0
    assert by_name("sqsmooth:2.5").beta == 2.5


@pytest.mark.parametrize("name, message", [
    ("nope", "unknown coupling name 'nope'"),
    ("sqsmoothX", "unknown coupling name 'sqsmoothX'"),
    ("sqsmooth_8", "unknown coupling name 'sqsmooth_8'"),
    ("sine:1", "unknown coupling name 'sine:1'"),
    ("", "unknown coupling name ''"),
    ("sqsmooth:", "coupling name 'sqsmooth:': could not convert"),
    ("sqsmooth:abc", "coupling name 'sqsmooth:abc': could not convert"),
    ("sqsmooth:0", "coupling name 'sqsmooth:0': smoothed_square needs a finite beta > 0"),
    ("sqsmooth:30", "coupling name 'sqsmooth:30': G' = g defect"),
])
def test_by_name_rejects_malformed_names(name, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        by_name(name)
