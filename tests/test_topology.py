import hashlib
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from hdshapes.core import Dataset, ParameterError
from hdshapes.shapes import gen_scurve, gen_unifcube
from hdshapes.topology import (
    HOLES,
    DegenerateHoleError,
    HoleRetentionWarning,
    gen_hole,
    gen_scurvehole,
    gen_unifcubehole,
)


def test_hole_exhaustive_filter():
    ds = gen_unifcube(10000, p=2, seed=1)
    anchor = np.array([0.5, 0.5])
    out = gen_hole(ds, 0.25, anchor=anchor)
    dist = np.linalg.norm(ds.points - anchor, axis=1)
    assert out.n == int((dist > 0.25).sum())
    assert (np.linalg.norm(out.points - anchor, axis=1) > 0.25).all()
    # retained rows are exactly the surviving input rows, order preserved
    assert np.array_equal(out.points, ds.points[dist > 0.25])


def test_hole_area_fraction_2d():
    ds = gen_unifcube(10000, p=2, seed=2)
    out = gen_hole(ds, 0.25, anchor=(0.5, 0.5))
    assert abs(out.n / ds.n - (1 - np.pi * 0.25**2)) < 0.02  # 0.8037


def test_hole_volume_fraction_3d():
    ds = gen_unifcube(5000, p=3, seed=3)
    out = gen_hole(ds, 0.2, anchor=(0.5, 0.5, 0.5))
    assert abs(out.n / ds.n - (1 - 4.0 / 3.0 * np.pi * 0.2**3)) < 0.02  # 0.9665


def test_hole_tiny_radius_keeps_all():
    ds = gen_scurve(500, seed=4)
    assert gen_hole(ds, 1e-12).n == 500


def test_hole_labels_travel():
    ds = Dataset([[0.0, 0.0], [5.0, 5.0], [0.1, 0.0]], labels=["a", "b", "c"])
    out = gen_hole(ds, 1.0, anchor=(0.0, 0.0))
    assert out.labels.tolist() == ["b"]


def test_hole_idempotent_with_fixed_anchor():
    ds = gen_unifcube(2000, p=3, seed=5)
    anchor = (0.5, 0.5, 0.5)
    once = gen_hole(ds, 0.3, anchor=anchor)
    twice = gen_hole(once, 0.3, anchor=anchor)
    assert np.array_equal(once.points, twice.points)


def test_hole_radius_monotonicity():
    ds = gen_unifcube(3000, p=2, seed=6)
    anchor = (0.5, 0.5)
    small = gen_hole(ds, 0.1, anchor=anchor)
    large = gen_hole(ds, 0.3, anchor=anchor)
    kept_small = {tuple(row) for row in small.points}
    assert all(tuple(row) in kept_small for row in large.points)


def test_hole_degenerate():
    ds = gen_unifcube(100, p=2, seed=7)
    with pytest.raises(DegenerateHoleError):
        gen_hole(ds, 50.0)


def test_hole_low_retention_warns():
    ds = gen_unifcube(2000, p=2, seed=8)
    with pytest.warns(HoleRetentionWarning):
        gen_hole(ds, 0.66, anchor=(0.5, 0.5))


def test_hole_validation():
    ds = gen_unifcube(10, p=2, seed=9)
    with pytest.raises(ParameterError):
        gen_hole(ds, 0.0)
    with pytest.raises(ParameterError):
        gen_hole(ds, 0.1, anchor=(0.5, 0.5, 0.5))
    with pytest.raises(ParameterError):
        gen_hole(Dataset(np.empty((0, 2))), 0.1)


def test_scurvehole_exact_n_and_manifold():
    ds = gen_scurvehole(500, 0.5, seed=10)
    assert ds.n == 500
    pts = ds.points
    assert np.abs(pts[:, 0] ** 2 + (np.abs(pts[:, 2]) - 1.0) ** 2 - 1.0).max() < 1e-9
    # the hole sits near the analytic s-curve mean (0, 1, 0)
    dist = np.linalg.norm(pts - np.array([0.0, 1.0, 0.0]), axis=1)
    assert dist.min() > 0.5 - 0.1


def test_holed_wrapper_does_not_warn_for_its_pilot():
    """The pilot keeps 3 of its 40 points here, but it only sizes the real
    draw, and the result has all 40: nothing to warn about."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", HoleRetentionWarning)
        ds = gen_unifcubehole(40, p=2, r_hole=0.55, seed=1)
    assert ds.n == 40
    # The same bytes as when the pilot's warning escaped.
    digest = "89a6d32102f1559c2d67fb00f65d28d17b9673b27ce16d347f20a802c4bd4ec2"
    assert hashlib.sha256(ds.points.tobytes()).hexdigest() == digest


def test_holed_wrappers_in_many_threads_leave_the_warning_filters_alone():
    """Threads sampling holed shapes at once change no process-wide warning
    state, so a later hole that keeps 9 of 1000 rows still warns."""
    filters, saved = warnings.filters, list(warnings.filters)
    failures = []

    def draw(t: int) -> None:
        try:
            for i in range(200):
                gen_scurvehole(40, seed=1000 * t + i)
                gen_unifcubehole(40, p=2, seed=1000 * t + i)
        except Exception as exc:
            failures.append(exc)

    threads = [threading.Thread(target=draw, args=(t,)) for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and failures == []
    assert warnings.filters is filters and warnings.filters == saved
    with warnings.catch_warnings(record=True) as caught:  # the filters as they are, no "always"
        gen_hole(gen_unifcube(1000, p=2, seed=1), 0.66)
    assert [(w.category, str(w.message)) for w in caught] == [
        (HoleRetentionWarning, "hole retained only 9/1000 points (0.9%)")
    ]


@pytest.mark.parametrize("holed", [gen_scurvehole, gen_unifcubehole])
def test_holed_n_must_be_integral(holed):
    with pytest.raises(ParameterError, match="n must be a positive integer, got 10.7"):
        holed(10.7, seed=1)
    assert holed(10.0, seed=1).points.tobytes() == holed(10, seed=1).points.tobytes()


def test_scurvehole_tiny_radius():
    assert gen_scurvehole(400, 1e-12, seed=11).n == 400


def test_scurvehole_deterministic():
    a = gen_scurvehole(300, 0.4, seed=12)
    b = gen_scurvehole(300, 0.4, seed=12)
    assert a.points.tobytes() == b.points.tobytes()


def test_unifcubehole_void():
    ds = gen_unifcubehole(800, p=2, r_hole=0.3, seed=13)
    assert ds.n == 800
    center = np.full(2, 0.5)
    dist = np.linalg.norm(ds.points - center, axis=1)
    # anchor is the oversample's mean, within ~0.01 of the cube center
    assert dist.min() > 0.3 - 0.02


def test_unifcubehole_tiny_radius_uniform():
    ds = gen_unifcubehole(600, p=3, r_hole=1e-12, seed=14)
    assert ds.n == 600
    assert (ds.points >= 0).all() and (ds.points <= 1).all()


def test_unifcubehole_degenerate():
    # a radius beyond the half-diagonal swallows the whole cube
    with pytest.raises(DegenerateHoleError):
        gen_unifcubehole(200, p=2, r_hole=1.5, seed=15)


@pytest.mark.parametrize("make", [gen_scurvehole, gen_unifcubehole])
@pytest.mark.parametrize("r_hole", ["x", None, [0.1, 0.2], True, "0.3"])
def test_non_numeric_hole_radius_is_named(make, r_hole):
    with pytest.raises(ParameterError, match="r_hole must be a number"):
        make(50, r_hole=r_hole, seed=1)


@pytest.mark.parametrize("r", ["x", True, None, "0.3"])
def test_gen_hole_refuses_a_radius_that_is_not_a_number(r):
    ds = gen_unifcube(20, p=2, seed=1)
    with pytest.raises(ParameterError, match="r must be a number"):
        gen_hole(ds, r)


@pytest.mark.parametrize("anchor", [["0", "1", "0"], [False, True, False], ["a", "1", "0"], [None, 1, 0]])
def test_gen_hole_refuses_an_anchor_that_is_not_numbers(anchor):
    ds = gen_unifcube(20, p=3, seed=1)
    with pytest.raises(ParameterError, match="anchor must be a vector of numbers"):
        gen_hole(ds, 0.3, anchor=anchor)


def test_holed_shapes_register_where_they_are_defined():
    assert list(HOLES) == ["scurve", "unifcube"]
    assert HOLES["scurve"].func is gen_scurvehole and HOLES["unifcube"].func is gen_unifcubehole
    assert (HOLES["scurve"].dim, HOLES["unifcube"].dim) == (3, None)


def test_hole_peak_memory_is_bounded():
    """Distances are taken one block of rows at a time, so gen_hole holds the
    input, the output and one block, not the difference and its square as
    well. Traced peak memory stays within the input's size (about 0.6x; the
    full-size temporaries took 2.2x)."""
    ds = gen_unifcube(100_000, p=10, seed=3)
    tracemalloc.start()
    try:
        out = gen_hole(ds, 0.9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < out.n < ds.n
    assert peak <= ds.points.nbytes, f"peak {peak / ds.points.nbytes:.2f}x the input"
