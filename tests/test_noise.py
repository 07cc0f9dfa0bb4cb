import numpy as np
import pytest

from hdshapes.core import Dataset, ParameterError
from hdshapes.noise import (
    append_dims,
    gen_noisedims,
    gen_wavydims1,
    gen_wavydims2,
    gen_wavydims3,
)
from hdshapes.shapes import gen_scurve


def test_noisedims_odd_column_sign_flip():
    ds = gen_noisedims(20000, 2, m=(5.0, 5.0), s=(1.0, 1.0), seed=1)
    means = ds.points.mean(axis=0)
    assert abs(means[0] + 5.0) < 0.05  # x1 negated
    assert abs(means[1] - 5.0) < 0.05


def test_noisedims_sd():
    ds = gen_noisedims(20000, 1, m=0.0, s=2.0, seed=2)
    assert abs(ds.points.std(ddof=1) - 2.0) / 2.0 < 0.05


def test_noisedims_columns_independent():
    ds = gen_noisedims(20000, 4, seed=3)
    corr = np.corrcoef(ds.points.T)
    off = corr[~np.eye(4, dtype=bool)]
    assert np.abs(off).max() < 0.03


def test_noisedims_validation():
    with pytest.raises(ParameterError):
        gen_noisedims(10, 2, m=(0.0, 0.0, 0.0), seed=1)
    with pytest.raises(ParameterError):
        gen_noisedims(10, 2, s=(1.0, 0.0), seed=1)


@pytest.mark.parametrize("name", ["n", "p"])
def test_noisedims_counts_must_be_integral(name):
    args = {"n": 10, "p": 3}
    with pytest.raises(ParameterError, match=f"{name} must be a positive integer, got 2.5"):
        gen_noisedims(**{**args, name: 2.5}, seed=1)
    ref = gen_noisedims(**{**args, name: 3}, seed=1).points.tobytes()
    assert gen_noisedims(**{**args, name: 3.0}, seed=1).points.tobytes() == ref


def test_wavydims1_noiseless_limit():
    theta = np.random.default_rng(4).normal(size=2000)
    ds = gen_wavydims1(2000, 3, theta, sigma=1e-9, seed=5)
    for j in range(3):
        rho = np.corrcoef(theta, ds.points[:, j])[0, 1]
        assert abs(abs(rho) - 1.0) < 1e-6


def test_wavydims1_constant_theta():
    ds = gen_wavydims1(1000, 2, np.full(1000, 3.0), sigma=0.05, seed=6)
    assert ds.points.std(axis=0).max() < 0.1


def test_wavydims1_slope_ratio():
    theta = np.linspace(0, 2 * np.pi, 10000)
    ds = gen_wavydims1(10000, 4, theta, seed=7)
    var = theta.var()
    slopes = [np.cov(theta, ds.points[:, j])[0, 1] / var for j in range(4)]
    # alpha_j = 0.1 j, so slope ratios recover j/k
    assert abs(slopes[2] / slopes[0] - 3.0) < 3.0 * 0.02
    assert abs(slopes[3] / slopes[1] - 2.0) < 2.0 * 0.02


def test_wavydims1_length_mismatch():
    with pytest.raises(ParameterError):
        gen_wavydims1(100, 2, np.zeros(99), seed=1)


def test_wavydims2_zero_input():
    ds = gen_wavydims2(500, 3, np.zeros(500), seed=8)
    assert np.abs(ds.points).max() <= 0.05


def test_wavydims2_exact_map():
    x1 = np.random.default_rng(9).uniform(0.5, 1.5, 400)
    ds = gen_wavydims2(400, 4, x1, powers=(2, 3, 4, 2), scales=(1.0, 0.5, 2.0, 1.5), noise=0.0, seed=10)
    signs = (1, -1, -1, 1)  # (-1)^floor(j/2) for j = 1..4
    for j, (k, b, sg) in enumerate(zip((2, 3, 4, 2), (1.0, 0.5, 2.0, 1.5), signs)):
        assert np.array_equal(ds.points[:, j], b * sg * x1**k)


def test_wavydims2_sign_blocks():
    x1 = np.random.default_rng(11).uniform(0.5, 1.0, 100)
    ds = gen_wavydims2(100, 4, x1, powers=(2, 2, 2, 2), scales=(1.0, 1.0, 1.0, 1.0), noise=0.0, seed=12)
    assert (np.sign(ds.points[0]) == [1, -1, -1, 1]).all()


def test_wavydims2_length_mismatch():
    with pytest.raises(ParameterError):
        gen_wavydims2(100, 2, np.zeros(5), seed=1)


def test_wavydims3_perturbation_bound():
    base = gen_scurve(1000, seed=13)
    ds = gen_wavydims3(1000, 5, base, seed=14)
    for j in range(3):
        assert np.abs(ds.points[:, j] - base.points[:, j]).max() <= 0.05


def test_wavydims3_noiseless_limit():
    base = gen_scurve(500, seed=15)
    ds = gen_wavydims3(500, 4, base, noise=0.0, seed=16)
    x1, x2 = base.points[:, 0], base.points[:, 1]
    assert np.array_equal(ds.points[:, 3], x1 * x2)


def test_wavydims3_correlates_with_base():
    base = gen_scurve(5000, seed=17)
    ds = gen_wavydims3(5000, 7, base, seed=18)
    for j in range(3, 7):
        rhos = [
            abs(np.corrcoef(ds.points[:, j], base.points[:, i])[0, 1]) for i in range(3)
        ]
        assert max(rhos) > 0.2


def test_wavydims3_validation():
    base = gen_scurve(100, seed=19)
    with pytest.raises(ParameterError):
        gen_wavydims3(100, 4, Dataset(np.zeros((100, 2))), seed=1)
    with pytest.raises(ParameterError):
        gen_wavydims3(101, 4, base, seed=1)


def test_append_dims_pure_concatenation():
    base = gen_scurve(300, seed=20)
    extra = gen_noisedims(300, 2, seed=21)
    out = append_dims(base, extra)
    assert out.p == 5
    assert np.array_equal(out.points[:, :3], base.points)
    assert np.array_equal(out.points[:, 3:], extra.points)
    assert out.column_names == ("x1", "x2", "x3", "x4", "x5")


def test_append_dims_row_mismatch():
    with pytest.raises(ParameterError):
        append_dims(gen_scurve(10, seed=1), gen_noisedims(11, 1, seed=2))


def test_noise_determinism():
    theta = np.linspace(0, 1, 200)
    for build in (
        lambda s: gen_noisedims(200, 3, seed=s),
        lambda s: gen_wavydims1(200, 3, theta, seed=s),
        lambda s: gen_wavydims2(200, 3, theta, seed=s),
        lambda s: gen_wavydims3(200, 4, gen_scurve(200, seed=0), seed=s),
    ):
        assert build(9).points.tobytes() == build(9).points.tobytes()
