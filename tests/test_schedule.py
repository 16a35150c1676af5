import numpy as np
import pytest

from oscising.schedule import (Schedule, baseline_schedule, constant_schedule,
                               tuned_schedule)


def test_constant_channels():
    s = constant_schedule(10.0, 0.5, 3.0, 0.1)
    for t in (0.0, 4.2, 10.0):
        assert s.eval(t) == (0.5, 3.0, 0.1)


def test_linear_interpolation():
    s = Schedule(t_end=20.0, k_points=((0.0, 0.0), (20.0, 1.0)),
                 ks_points=((0.0, 0.0),), kn_points=((0.0, 0.0),))
    assert s.eval(10.0)[0] == pytest.approx(0.5)
    assert s.eval(20.0)[0] == 1.0


def test_step_encoding():
    eps = 1e-9
    s = Schedule(t_end=10.0, k_points=((0.0, 0.0),),
                 ks_points=((0.0, 0.0),),
                 kn_points=((0.0, 0.0), (5.0, 0.0), (5.0 + eps, 1.0)))
    assert s.eval(4.999)[2] == 0.0
    assert s.eval(6.0)[2] == 1.0


def test_eval_out_of_range():
    s = constant_schedule(5.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        s.eval(-0.1)
    with pytest.raises(ValueError):
        s.eval(5.1)


def test_eval_arrays_matches_eval():
    s = baseline_schedule(20.0)
    ts = np.linspace(0.0, 20.0, 173)
    karr, ksarr, knarr = s.eval_arrays(ts)
    for i, t in enumerate(ts):
        k, ks, kn = s.eval(float(t))
        assert (k, ks, kn) == (karr[i], ksarr[i], knarr[i])


@pytest.mark.parametrize("points", [
    ((1.0, 0.0),),                      # does not start at 0
    ((0.0, 0.0), (0.0, 1.0)),           # not strictly increasing
    ((0.0, 0.0), (30.0, 1.0)),          # beyond t_end
])
def test_rejects_bad_points(points):
    with pytest.raises(ValueError):
        Schedule(t_end=20.0, k_points=points,
                 ks_points=((0.0, 0.0),), kn_points=((0.0, 0.0),))


def test_rejects_negative_noise():
    with pytest.raises(ValueError):
        Schedule(t_end=1.0, k_points=((0.0, 0.0),),
                 ks_points=((0.0, 0.0),), kn_points=((0.0, -1.0),))


def test_baseline_shape():
    t_end = 20.0
    s = baseline_schedule(t_end)
    assert s.eval(t_end)[0] == 1.0                  # K ramps to 1
    assert s.eval(0.0)[2] == 0.0                    # noise starts at 0
    assert s.eval(t_end)[2] == 1.0                  # and steps up to 1
    assert s.eval(0.1 * t_end)[2] == 0.0            # still off at the step time
    # exactly five local maxima of Ks inside (0, t_end)
    ts = np.linspace(0.0, t_end, 4001)
    ks = s.eval_arrays(ts)[1]
    interior = (ks[1:-1] > ks[:-2]) & (ks[1:-1] > ks[2:])
    assert int(interior.sum()) == 5


def test_baseline_overrides():
    s = baseline_schedule(10.0, k_max=2.0, ks_max=0.5, kn_high=0.25)
    assert s.eval(10.0)[0] == 2.0
    assert s.eval(10.0)[2] == 0.25
    assert max(v for _, v in s.ks_points) == 0.5


def test_json_roundtrip_exact():
    for s in (baseline_schedule(20.0), tuned_schedule(30.0),
              constant_schedule(5.0, 1 / 3, 2 / 7, 0.1)):
        r = Schedule.from_json(s.to_json())
        assert r.t_end == s.t_end
        assert r.k_points == s.k_points
        assert r.ks_points == s.ks_points
        assert r.kn_points == s.kn_points


def test_override_channels():
    s = baseline_schedule(20.0).override(kn_points=((0.0, 0.0),))
    assert s.eval(20.0)[2] == 0.0
    assert s.eval(20.0)[0] == 1.0


def test_tuned_schedule_ends_cold_and_locked():
    s = tuned_schedule(20.0)
    k, ks, kn = s.eval(20.0)
    assert kn == 0.0
    assert ks == 2.5
    assert k == 1.0


def test_monotone_channel_interpolates_monotonically():
    s = tuned_schedule(20.0)
    ts = np.linspace(0.0, 20.0, 400)
    karr = s.eval_arrays(ts)[0]
    assert np.all(np.diff(karr) >= 0)
