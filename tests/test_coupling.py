import numpy as np
import pytest

from oscising.coupling import CouplingFunction, by_name, sine, smoothed_square

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


def test_rejects_bad_kind():
    with pytest.raises(ValueError):
        CouplingFunction(kind="sawtooth")


def test_by_name():
    assert by_name("sine").kind == "sine"
    assert by_name("sqsmooth").beta == 4.0
    assert by_name("sqsmooth:2.5").beta == 2.5
    with pytest.raises(ValueError):
        by_name("nope")
