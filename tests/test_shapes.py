import collections
import contextlib
import re
import warnings

import numpy as np
import pytest

from helpers import ks_stat, trunc_exp_cdf

from hdshapes.core import DimensionError, ParameterError, RandomStream, as_stream, gen_nproduct
from hdshapes.shapes import (
    SHAPES,
    LatticeSizeWarning,
    RejectedParameterError,
    UnknownShapeError,
    _chaos_game,
    gen_circle,
    gen_clusteredspheres,
    gen_cone,
    gen_conicspiral,
    gen_crescent,
    gen_cubic,
    gen_curvybranches,
    gen_curvycycle,
    gen_curvycylinder,
    gen_expbranches,
    gen_gaussian,
    gen_gridcube,
    gen_gridedsphere,
    gen_helicalspiral,
    gen_hemisphere,
    gen_hollowsphere,
    gen_linearbranches,
    gen_longlinear,
    gen_mobius,
    gen_nonlinear,
    gen_orglinearbranches,
    gen_pyrfrac,
    gen_pyrrect,
    gen_pyrstar,
    gen_pyrtri,
    gen_quadratic,
    gen_scurve,
    gen_sphericalspiral,
    gen_swissroll,
    gen_trefoil3d,
    gen_trefoil4d,
    gen_unifcube,
    gen_unifsphere,
    generate,
    list_shapes,
)

# Expected output dimension for each kind at its default parameters.
DEFAULT_DIMS = {
    "expbranches": 2,
    "linearbranches": 2,
    "curvybranches": 2,
    "orglinearbranches": 4,
    "orgcurvybranches": 4,
    "cone": 4,
    "gridcube": 4,
    "unifcube": 4,
    "gaussian": 4,
    "longlinear": 4,
    "mobius": 3,
    "quadratic": 2,
    "cubic": 2,
    "pyrrect": 4,
    "pyrtri": 4,
    "pyrstar": 4,
    "pyrfrac": 3,
    "scurve": 3,
    "circle": 4,
    "curvycycle": 4,
    "unifsphere": 3,
    "hollowsphere": 4,
    "gridedsphere": 3,
    "clusteredspheres": 3,
    "hemisphere": 4,
    "swissroll": 3,
    "trefoil4d": 4,
    "trefoil3d": 3,
    "crescent": 2,
    "curvycylinder": 4,
    "sphericalspiral": 4,
    "helicalspiral": 4,
    "conicspiral": 4,
    "nonlinear": 4,
}


# ---------------------------------------------------------------------------
# Registry-wide contracts


def test_registry_has_all_kinds():
    assert len(SHAPES) == 34
    assert set(list_shapes()) == set(DEFAULT_DIMS)


def test_the_package_reexports_each_modules_public_names():
    import hdshapes
    from hdshapes import composer, core, noise, shapes, topology

    modules = (core, shapes, topology, noise, composer)
    names = {name for module in modules for name in module.__all__}
    names |= {"OUTPUT_VERSION", *(module.__name__.removeprefix("hdshapes.") for module in modules)}
    assert hdshapes.__all__ == sorted(names)
    assert all(getattr(hdshapes, name) is getattr(module, name) for module in modules for name in module.__all__)


def test_each_registered_function_is_exported_under_its_name():
    import hdshapes
    from hdshapes.topology import HOLES

    for kind, info in SHAPES.items():
        assert f"gen_{kind}" in hdshapes.__all__
        assert getattr(hdshapes, f"gen_{kind}") is info.func
    for kind, info in HOLES.items():
        assert f"gen_{kind}hole" in hdshapes.__all__
        assert getattr(hdshapes, f"gen_{kind}hole") is info.func


@pytest.mark.parametrize("kind", sorted(DEFAULT_DIMS))
def test_default_signature_row_count_and_dim(kind):
    if kind in ("gridcube", "gridedsphere"):  # lattices return ~n points: here 144 and 121
        with pytest.warns(LatticeSizeWarning, match="more than n = 120"):
            ds = generate(kind, 120, seed=3)
        p = DEFAULT_DIMS[kind]
        factors = gen_nproduct(120, p if kind == "gridcube" else p - 1)
        assert ds.n == int(np.prod(factors))
    else:
        ds = generate(kind, 120, seed=3)
        assert ds.n == 120
    assert ds.p == DEFAULT_DIMS[kind]
    assert np.isfinite(ds.points).all()


@pytest.mark.parametrize("kind", sorted(DEFAULT_DIMS))
def test_every_kind_is_deterministic(kind):
    # gridcube's lattice has 108 points for n = 90; gridedsphere's has 90.
    with pytest.warns(LatticeSizeWarning, match="108 points") if kind == "gridcube" else contextlib.nullcontext():
        a = generate(kind, 90, seed=517)
        b = generate(kind, 90, seed=517)
    assert a.points.tobytes() == b.points.tobytes()
    if a.labels is not None:
        assert a.labels.tolist() == b.labels.tolist()


def test_unknown_kind():
    with pytest.raises(UnknownShapeError) as exc:
        generate("klein", 10)
    assert "scurve" in str(exc.value)


def test_rejected_parameter():
    with pytest.raises(RejectedParameterError) as exc:
        generate("cone", 10, w=(1.0, 2.0))
    assert "w" in str(exc.value) and "cone" in str(exc.value)


@pytest.mark.parametrize(
    "kind", sorted(k for k, info in SHAPES.items() if info.dim is not None and "p" in info.params)
)
def test_fixed_dim_shape_rejects_other_p(kind):
    dim = SHAPES[kind].dim
    with pytest.raises(DimensionError, match=f"p = {dim}"):
        generate(kind, 20, seed=1, p=dim + 1)
    same = generate(kind, 20, seed=1, p=dim)
    assert same.points.tobytes() == generate(kind, 20, seed=1).points.tobytes()


@pytest.mark.parametrize(
    "kind, params, name",
    [
        ("cone", {"h": float("nan")}, "h"),
        ("unifsphere", {"r": float("inf")}, "r"),
        ("swissroll", {"w": (0.0, float("inf"))}, "w"),
        ("gaussian", {"p": 2, "s": [[1.0, 0.0], [0.0, float("nan")]]}, "s"),
    ],
)
def test_nonfinite_parameter_is_named(kind, params, name):
    with pytest.raises(ParameterError, match=f"parameter {name} of shape '{kind}' must be finite"):
        generate(kind, 10, seed=1, **params)


def test_n_must_be_integral():
    for bad in (2.7, float("inf"), float("nan"), 0, "abc"):
        with pytest.raises(ParameterError, match="n must be a positive integer"):
            gen_cone(bad, seed=1)
    ref = gen_cone(3, seed=1).points.tobytes()
    for n in (3.0, np.int64(3), np.uint8(3)):
        assert gen_cone(n, seed=1).points.tobytes() == ref


# gridcube's lattice for n = 10 at p = 3 has 12 points.
_gridcube_p = lambda v: generate("gridcube", 10, p=v)  # noqa: E731


@pytest.mark.parametrize(
    "make, name",
    [
        (lambda v: generate("cone", 10, seed=1, p=v), "p"),
        (_gridcube_p, "p"),
        (lambda v: generate("linearbranches", 10, seed=1, k=v), "k"),
        (lambda v: generate("orgcurvybranches", 10, seed=1, k=v), "k"),
        (lambda v: generate("clusteredspheres", 60, seed=1, k_small=v), "k_small"),
        (lambda v: gen_clusteredspheres(n_vec=(10, v), seed=1), "n_vec"),
        (lambda v: generate("conicspiral", 10, seed=1, spins=v), "spins"),
        (lambda v: generate("trefoil4d", 10, steps=v), "steps"),
    ],
)
def test_counts_and_dimensions_must_be_integral(make, name):
    # A pair is refused as a whole, by the one check a direct call shares with generate().
    must = "a list of 2 integers, got (10, 2.5)" if name == "n_vec" else "a positive integer, got 2.5"
    with pytest.raises(ParameterError, match=re.escape(f"{name} must be {must}")):
        make(2.5)
    with pytest.warns(LatticeSizeWarning, match="12 points") if make is _gridcube_p else contextlib.nullcontext():
        ref = make(3).points.tobytes()
        for value in (3.0, np.int64(3)):
            assert make(value).points.tobytes() == ref


# ---------------------------------------------------------------------------
# Branching


def test_linearbranches_sizes_and_first_branch():
    ds = gen_linearbranches(300, k=2, seed=5)
    counts = collections.Counter(ds.labels.tolist())
    assert counts == {"branch_1": 150, "branch_2": 150}
    b1 = ds.points[ds.labels == "branch_1"]
    resid = b1[:, 1] - 0.5 * b1[:, 0]  # slope 0.5, starts at the origin
    assert resid.min() >= 0.0 and resid.max() <= 0.1


def test_linearbranches_second_branch_slope():
    ds = gen_linearbranches(400, k=2, seed=6)
    b2 = ds.points[ds.labels == "branch_2"]
    resid = b2[:, 1] - (-0.5) * b2[:, 0]
    assert resid.min() >= 0.0 and resid.max() <= 0.1


def test_curvybranches_fixed_branches():
    ds = gen_curvybranches(400, k=2, seed=7)
    b1 = ds.points[ds.labels == "branch_1"]
    resid1 = b1[:, 1] - (0.1 * b1[:, 0] + b1[:, 0] ** 2)
    assert np.abs(resid1).max() <= 0.1
    assert b1[:, 0].min() >= 0.0 and b1[:, 0].max() <= 1.0
    b2 = ds.points[ds.labels == "branch_2"]
    resid2 = b2[:, 1] - (0.1 * b2[:, 0] - 2.0 * b2[:, 0] ** 2)
    assert np.abs(resid2).max() <= 0.1
    assert b2[:, 0].min() >= -1.0 and b2[:, 0].max() <= 0.0


def test_expbranches_sign_alternation():
    # Branch 2 must follow X2 = exp(-s X1) + eps, eps in [0, 0.1], for a
    # steepness s in [0.5, 2]. s is recovered from the most negative X1
    # (where the curve value dwarfs the jitter) and refined on a local
    # grid; the tolerance covers the fitting error.
    ds = gen_expbranches(200, k=2, seed=8)
    b2 = ds.points[ds.labels == "branch_2"]
    x, y = b2[:, 0], b2[:, 1]
    ix = np.argmin(x)
    s_hat = np.log(y[ix]) / (-x[ix])
    best = np.inf
    for s in np.linspace(s_hat - 0.05, s_hat + 0.05, 4001):
        resid = y - np.exp(-s * x)
        viol = max(0.0, -resid.min()) + max(0.0, resid.max() - 0.1)
        best = min(best, viol)
    assert best <= 0.005
    # branch 1 has a positive exponent: y grows with x
    b1 = ds.points[ds.labels == "branch_1"]
    assert np.corrcoef(b1[:, 0], np.log(np.maximum(b1[:, 1], 1e-9)))[0, 1] > 0.9


def test_branches_infeasible_n():
    with pytest.raises(ParameterError):
        gen_linearbranches(2, k=3, seed=1)


def test_orgbranches_distinct_subspaces():
    ds = gen_orglinearbranches(300, p=3, k=3, allow_share=False, seed=7)
    pairs = set()
    for b in ("branch_1", "branch_2", "branch_3"):
        pts = ds.points[ds.labels == b]
        active = tuple(int(j) for j in np.where(pts.var(axis=0) > 1e-12)[0])
        assert len(active) == 2
        pairs.add(active)
    assert pairs == {(0, 1), (0, 2), (1, 2)}


def test_orgbranches_dimension_error():
    with pytest.raises(DimensionError):
        gen_orglinearbranches(100, p=1, k=2, seed=1)


# ---------------------------------------------------------------------------
# Cone


def test_cone_height_distribution():
    h = 2.0
    z = gen_cone(5000, p=4, h=h, seed=11).points[:, 3]
    assert z.min() >= 0.0 and z.max() <= h
    assert ks_stat(z, trunc_exp_cdf(2.0 / h, h)) < 0.03


def test_cone_cross_section_radius():
    ds = gen_cone(1000, p=4, h=2.0, ratio=0.3, seed=12)
    z = ds.points[:, 3]
    r = 0.3 + 0.7 * z / 2.0
    assert np.abs(np.linalg.norm(ds.points[:, :3], axis=1) - r).max() < 1e-9


def test_cone_cylinder_limit():
    ds = gen_cone(500, p=5, h=1.0, ratio=1.0, seed=13)
    assert np.abs(np.linalg.norm(ds.points[:, :4], axis=1) - 1.0).max() < 1e-9


def test_cone_sharp_tip_3d():
    h = 2.0
    ds = gen_cone(1000, p=3, h=h, ratio=0.0, seed=14)
    assert np.abs(np.linalg.norm(ds.points[:, :2], axis=1) - ds.points[:, 2] / h).max() < 1e-9


def test_cone_validation():
    with pytest.raises(ParameterError):
        gen_cone(10, p=4, ratio=1.5, seed=1)
    with pytest.raises(DimensionError):
        gen_cone(10, p=2, seed=1)
    with pytest.raises(ParameterError):
        gen_cone(10, p=3, h=-1.0, seed=1)


# ---------------------------------------------------------------------------
# Cubes


def test_gridcube_lattice():
    ds = gen_gridcube(1000, p=3)
    assert ds.n == 1000
    levels = np.linspace(0.0, 1.0, 10)
    for j in range(3):
        assert np.allclose(np.unique(ds.points[:, j]), levels)


@pytest.mark.parametrize(
    "make",
    [lambda: gen_gridcube(10, p=2), lambda: gen_gridedsphere(10, p=3), lambda: generate("gridcube", 10, p=2)],
    ids=["gridcube", "gridedsphere", "generate"],
)
def test_lattice_above_n_warns(make):
    with pytest.warns(LatticeSizeWarning, match="lattice has 12 points, more than n = 10"):
        assert make().n == 12


def test_exact_lattice_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", LatticeSizeWarning)
        assert gen_gridcube(9, p=2).n == 9
        assert gen_gridedsphere(16, p=3).n == 16


def test_lattices_beyond_64_dims():
    with pytest.warns(LatticeSizeWarning, match="16 points, more than n = 10"):
        cube = gen_gridcube(10, p=70).points
    assert cube.shape == (16, 70)
    assert np.array_equal(np.unique(cube, axis=0), cube)  # 16 distinct rows, lexicographic
    with pytest.warns(LatticeSizeWarning, match="16 points, more than n = 10"):
        sphere = gen_gridedsphere(10, p=70).points
    assert sphere.shape == (16, 70)
    assert np.abs(np.linalg.norm(sphere, axis=1) - 1.0).max() < 1e-12


def test_unifcube_interior():
    ds = gen_unifcube(500, p=4, seed=15)
    assert ds.n == 500
    assert (ds.points >= 0).all() and (ds.points < 1).all()
    at_vertex = ((ds.points == 0) | (ds.points == 1)).all(axis=1)
    assert not at_vertex.any()


def test_unifcube_drops_exactly_the_vertex_rows(monkeypatch):
    """Given a draw with an exact 0.0, the vertex filter runs: it drops the
    rows whose coordinates are all 0 or 1, and only those, keeping order."""
    draw = np.array([
        [0.25, 0.5, 0.75],
        [0.0, 0.0, 0.0],
        [0.0, 0.5, 0.3],
        [0.6, 0.1, 0.9],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0],
        [0.4, 0.0, 0.0],
    ])

    class FakeRng:
        def random(self, size):
            assert size == draw.shape
            return draw.copy()

    monkeypatch.setattr(RandomStream, "rng", property(lambda self: FakeRng()))
    ds = gen_unifcube(7, p=3, seed=1)
    assert ds.points.tobytes() == draw[[0, 2, 3, 6]].tobytes()


def test_unifcube_quadrant_counts():
    ds = gen_unifcube(10000, p=2, seed=16)
    qx = ds.points[:, 0] >= 0.5
    qy = ds.points[:, 1] >= 0.5
    for cx in (False, True):
        for cy in (False, True):
            count = int(((qx == cx) & (qy == cy)).sum())
            assert abs(count - 2500) <= 150


# ---------------------------------------------------------------------------
# Gaussian / linear


def test_gaussian_identity_covariance():
    ds = gen_gaussian(20000, p=3, seed=17)
    cov = np.cov(ds.points.T)
    assert np.abs(cov - np.eye(3)).max() < 0.05


def test_gaussian_diag_covariance_ratio():
    ds = gen_gaussian(20000, p=2, s=np.diag([1.0, 4.0]), seed=18)
    var = ds.points.var(axis=0, ddof=1)
    assert 3.4 <= var[1] / var[0] <= 4.6


def test_gaussian_single_row_and_validation():
    assert gen_gaussian(1, p=5, seed=1).points.shape == (1, 5)
    with pytest.raises(ParameterError):
        gen_gaussian(10, p=2, s=np.array([[1.0, 2.0], [0.5, 1.0]]), seed=1)
    with pytest.raises(ParameterError):
        gen_gaussian(10, p=2, s=np.array([[1.0, 2.0], [2.0, 1.0]]), seed=1)  # not PD


@pytest.mark.parametrize("p", [1, 2, 5, 20])
def test_gaussian_without_covariance_matches_the_identity_product(p):
    for seed in (0, 3, 2**40):
        z = as_stream(seed).rng.standard_normal((257, p))
        assert gen_gaussian(257, p, seed=seed).points.tobytes() == (z @ np.eye(p)).tobytes()


def test_adding_zero_matches_the_identity_product_bit_for_bit():
    # A product sums from +0.0, so z @ I turns -0.0 into +0.0; so does z + 0.0.
    z = np.array([[-0.0, 5e-324, 1e308], [-5e-324, -1e308, 0.0], [1.5, -0.0, -2.25]])
    for p in (1, 2, 3):
        cols = z[:, :p].copy()
        assert (cols + 0.0).tobytes() == (cols @ np.eye(p)).tobytes()
    assert np.signbit(z[0, 0]) and not np.signbit((z + 0.0)[0, 0])


def test_longlinear_correlation_with_index():
    ds = gen_longlinear(1000, p=5, seed=19)
    t = np.arange(1000)
    for j in range(5):
        rho = np.corrcoef(t, ds.points[:, j])[0, 1]
        assert abs(rho) > 0.95


def test_longlinear_two_rows():
    ds = gen_longlinear(2, p=3, seed=20)
    assert ds.points.shape == (2, 3)


# ---------------------------------------------------------------------------
# Mobius / polynomials


def test_mobius_bounds():
    ds = gen_mobius(5000, seed=21)
    radial = np.sqrt(ds.points[:, 0] ** 2 + ds.points[:, 1] ** 2)
    assert radial.min() >= 0.5 - 1e-12 and radial.max() <= 1.5 + 1e-12
    assert np.abs(ds.points[:, 2]).max() <= 0.5 + 1e-12


def test_mobius_angle_coverage():
    ds = gen_mobius(5000, seed=22)
    t = np.arctan2(ds.points[:, 1], ds.points[:, 0]) % (2 * np.pi)
    occupied = np.unique(np.floor(t / (2 * np.pi) * 36).astype(int))
    assert occupied.size == 36


def test_quadratic_residuals():
    ds = gen_quadratic(2000, seed=23)
    resid = ds.points[:, 1] - (ds.points[:, 0] - ds.points[:, 0] ** 2)
    assert resid.min() >= 0.0 and resid.max() <= 0.5


def test_quadratic_vertex_bound():
    ds = gen_quadratic(10000, range=(0.0, 1.0), seed=24)
    assert ds.points[:, 1].max() <= 0.25 + 0.5


def test_cubic_residuals():
    ds = gen_cubic(2000, seed=25)
    x = ds.points[:, 0]
    resid = ds.points[:, 1] - (x + x**2 - x**3)
    assert resid.min() >= 0.0 and resid.max() <= 0.5


def test_polynomial_range_validation():
    with pytest.raises(ParameterError):
        gen_quadratic(10, range=(1.0, 1.0), seed=1)


# ---------------------------------------------------------------------------
# Pyramids


def test_pyrrect_bounds():
    ds = gen_pyrrect(3000, p=4, h=1.0, l_vec=(1.0, 0.5), rt=0.1, seed=26).points
    z = ds[:, 3]
    rx = 0.1 + 0.9 * z
    ry = 0.1 + 0.4 * z
    assert (np.abs(ds[:, 0]) <= rx + 1e-12).all()
    assert (np.abs(ds[:, 1]) <= ry + 1e-12).all()
    assert (np.abs(ds[:, 2]) <= rx + 1e-12).all()


def test_pyramid_height_atom():
    # min(Exp(2/h), h) leaves mass e^-2 exactly at h
    z = gen_pyrrect(5000, p=4, h=1.0, seed=27).points[:, 3]
    assert z.min() >= 0.0 and z.max() <= 1.0
    assert abs((z == 1.0).mean() - np.exp(-2.0)) < 0.02


@pytest.mark.parametrize("gen", [gen_pyrrect, gen_pyrtri])
def test_pyramid_height_distribution(gen):
    # conditioned on z < h, the clamped exponential is the truncated one
    h = 1.0
    z = gen(5000, p=4, h=h, seed=27).points[:, 3]
    assert ks_stat(z[z < h], trunc_exp_cdf(2.0 / h, h)) < 0.03


def test_pyrtri_barycentric_sum():
    ds = gen_pyrtri(3000, p=4, h=1.0, l=1.0, rt=0.2, seed=28).points
    r = 0.2 + 0.8 * ds[:, 3]
    assert np.abs((ds[:, 0] + ds[:, 1] + ds[:, 2]) / r - 1.0).max() < 1e-9


def test_pyrtri_cross_section_uniform():
    # chi-square over the 4 midpoint-subdivision subregions; barycentric
    # normalization makes every cross-section comparable regardless of z
    ds = gen_pyrtri(20000, p=4, h=1.0, l=1.0, rt=0.0, seed=29).points
    r = ds[:, 3]
    keep = r > 1e-9
    w = ds[keep, 0] / (0.0 + 1.0 * r[keep])
    u = ds[keep, 1] / (0.0 + 1.0 * r[keep])
    v = ds[keep, 2] / (0.0 + 1.0 * r[keep])
    corners = np.select([w > 0.5, u > 0.5, v > 0.5], [0, 1, 2], default=3)
    counts = np.bincount(corners, minlength=4)
    expected = counts.sum() / 4.0
    chi2 = ((counts - expected) ** 2 / expected).sum()
    assert chi2 < 16.266  # df=3 critical value at the 0.001 level


def test_pyrstar_spokes():
    ds = gen_pyrstar(3000, p=4, h=1.0, rb=1.0, seed=30).points
    angle = np.arctan2(ds[:, 1], ds[:, 0]) % (np.pi / 3.0)
    off = np.minimum(angle, np.pi / 3.0 - angle)
    assert off.max() < 1e-9
    assert ds[:, 3].min() >= 0.0 and ds[:, 3].max() <= 1.0


def test_pyramid_validation():
    with pytest.raises(ParameterError):
        gen_pyrrect(10, p=4, l_vec=(0.5, 0.5), rt=0.6, seed=1)  # inverted taper
    with pytest.raises(ParameterError):
        gen_pyrtri(10, p=4, l=1.0, rt=2.0, seed=1)
    with pytest.raises(DimensionError):
        gen_pyrtri(10, p=3, seed=1)
    with pytest.raises(DimensionError):
        gen_pyrstar(10, p=2, seed=1)


def test_pyrfrac_sierpinski_void():
    ds = gen_pyrfrac(20000, p=2, seed=31).points
    deep = ds[1000:]  # skip early iterates still converging to the attractor
    # inside the simplex hull {x >= 0, y >= 0, x + y <= 1}
    assert deep.min() >= -1e-9
    assert (deep.sum(axis=1) <= 1.0 + 1e-9).all()
    # never strictly inside the level-1 void, the open middle triangle
    # with vertices (0.5, 0), (0, 0.5), (0.5, 0.5)
    x, y = deep[:, 0], deep[:, 1]
    inside = (x + y > 0.5 + 1e-9) & (x < 0.5 - 1e-9) & (y < 0.5 - 1e-9)
    assert not inside.any()


def reference_chaos_game(picks, t0) -> np.ndarray:
    """The row loop gen_pyrfrac ran before its hit-driven recurrence."""
    p = len(t0)
    vertices = np.vstack([np.zeros(p), np.eye(p)])
    out = np.empty((len(picks), p))
    t = np.array(t0, dtype=np.float64)
    for i in range(len(picks)):
        t = 0.5 * (t + vertices[picks[i]])
        out[i] = t
    return out


def reference_pyrfrac(n, p, seed) -> np.ndarray:
    rng = as_stream(seed).rng
    picks = rng.integers(0, p + 1, n)
    return reference_chaos_game(picks, rng.random(p))


@pytest.mark.parametrize("p", [2, 3, 10, 40])
@pytest.mark.parametrize("n", [1, 2, 1023, 1024, 1025, 20000])
def test_pyrfrac_matches_row_loop(n, p):
    for seed in (0, 7, 2**63 + 11):
        got = gen_pyrfrac(n, p=p, seed=seed).points
        assert got.tobytes() == reference_pyrfrac(n, p, seed).tobytes(), seed


def test_pyrfrac_matches_row_loop_where_subnormals_are_common():
    want = reference_pyrfrac(3000, 1500, 5)
    assert (want[want > 0] < np.finfo(np.float64).tiny).sum() > 10_000
    assert gen_pyrfrac(3000, p=1500, seed=5).points.tobytes() == want.tobytes()


_SUBNORMAL = 2.0**-1060 * 1.7


def _picks(*runs):
    return np.array([c for count, c in runs for _ in range(count)], dtype=np.int64)


# Runs of 1073-1076 non-hits, after t0 and after hits of 0.5, 0.75 and 0.875:
# where the fill's clip at 2^-1075 (which is 0) meets the halvings redone
# below 2^-1022.
_BOUNDARY_GAPS = (1073, 1074, 1075, 1076)


def _gap_picks(gap):
    return _picks((gap, 0), (1, 1), (1, 2), (1, 2), (1, 3), (1, 3), (1, 3), (gap, 0), (1, 1), (1, 2), (1, 3), (2, 0))


@pytest.mark.parametrize(
    "picks, t0",
    [
        (_picks((1, 1), (1, 2), (1, 3), (1200, 0), (1, 1), (1100, 0), (1, 2), (1, 3)), [0.3, 0.6, 0.9]),
        (_picks((3, 4), (1100, 0), (1, 1), (1, 2), (1, 3), (40, 0), (1, 1)), [0.0, 1.0, _SUBNORMAL, 0.3, 0.7]),
        (_picks((1, 3), (1, 1), (1, 2), (1500, 0)), [_SUBNORMAL, 5e-324, 0.0]),
        (_picks((1300, 0)), [0.4, 1.0]),
        (np.random.default_rng(3).choice(4, 20000, p=[0.998, 0.001, 0.001, 0.0]), [0.0, 1.0, _SUBNORMAL]),
        (np.random.default_rng(4).choice(3, 5000, p=[0.0005, 0.0005, 0.999]), [1e-300, 2.0**-1022]),
        *((_gap_picks(gap), [2.0**-1022, 5e-324, 0.0]) for gap in _BOUNDARY_GAPS),
    ],
    ids=[
        "long-gaps", "special-t0", "subnormal-t0-hit-first", "never-hit", "sparse-hits", "one-column-hit",
        *(f"gap-{gap}" for gap in _BOUNDARY_GAPS),
    ],
)
def test_chaos_game_matches_row_loop_on_hand_built_picks(picks, t0):
    got = _chaos_game(picks, np.array(t0))
    assert got.tobytes() == reference_chaos_game(picks, t0).tobytes()


# ---------------------------------------------------------------------------
# S-curve


def test_scurve_identity_and_ranges():
    ds = gen_scurve(2000, seed=32).points
    assert np.abs(ds[:, 0] ** 2 + (np.abs(ds[:, 2]) - 1.0) ** 2 - 1.0).max() < 1e-9
    assert ds[:, 1].min() >= 0.0 and ds[:, 1].max() <= 2.0
    assert ds[:, 2].min() >= -2.0 and ds[:, 2].max() <= 2.0


# ---------------------------------------------------------------------------
# Sphere family


def test_circle_structure():
    ds = gen_circle(500, p=4, seed=33).points
    assert np.abs(ds[:, 0] ** 2 + ds[:, 1] ** 2 - 1.0).max() < 1e-9
    assert np.abs(ds[:, 2]).max() <= np.sqrt(0.5) + 1e-9
    assert np.abs(ds[:, 3]).max() <= 0.5 + 1e-9  # s_4 = sqrt(0.25)


def test_curvycycle_structure():
    ds = gen_curvycycle(500, p=5, seed=34).points
    ring = ds[:, 0] ** 2 + (ds[:, 1] - np.sqrt(3.0) / 3.0) ** 2
    assert np.abs(ring - 1.0).max() < 1e-9
    assert np.abs(ds[:, 2]).max() <= 1.0 / 3.0 + 1e-12


def test_unifsphere_surface():
    ds = gen_unifsphere(1000, r=2.0, seed=35).points
    assert np.abs(np.linalg.norm(ds, axis=1) - 2.0).max() < 1e-9
    with pytest.raises(ParameterError):
        gen_unifsphere(10, r=0.0, seed=1)


def test_hollowsphere_surface():
    ds = gen_hollowsphere(800, p=5, seed=36).points
    assert np.abs(np.linalg.norm(ds, axis=1) - 1.0).max() < 1e-12


def test_gridedsphere_grid():
    with pytest.warns(LatticeSizeWarning, match="1024 points, more than n = 1000"):
        ds = gen_gridedsphere(1000, p=3)
    factors = gen_nproduct(1000, 2)
    assert ds.n == int(np.prod(factors))
    assert np.abs(np.linalg.norm(ds.points, axis=1) - 1.0).max() < 1e-12


def test_clusteredspheres_structure():
    ds = gen_clusteredspheres(n_vec=(500, 100), k_small=3, r_vec=(10.0, 1.0), spe=3.0, seed=37)
    assert ds.n == 800
    assert sorted(set(ds.labels.tolist())) == ["big", "small_1", "small_2", "small_3"]
    big = ds.points[ds.labels == "big"]
    assert np.abs(np.linalg.norm(big, axis=1) - 10.0).max() < 1e-9
    for i in (1, 2, 3):
        small = ds.points[ds.labels == f"small_{i}"]
        dist = np.linalg.norm(small - small.mean(axis=0), axis=1)
        assert np.abs(dist - 1.0).max() < 0.3  # centroid estimates the center


def test_clusteredspheres_total_n():
    ds = gen_clusteredspheres(800, seed=38)
    assert ds.n == 800


def test_clusteredspheres_n_must_equal_the_n_vec_total():
    # n = 40 and n = 99 were ignored beside n_vec: both gave the same 60 rows.
    for n in (40, 99):
        with pytest.raises(ParameterError, match=rf"n = {n} differs .* n_vec = \(30, 10\) .* 30 \+ 3 \* 10 = 60"):
            gen_clusteredspheres(n, n_vec=(30, 10), seed=1)
    with pytest.raises(ParameterError, match=r"n = 60 differs .* 30 \+ 2 \* 10 = 50"):
        generate("clusteredspheres", 60, k_small=2, n_vec=(30, 10), seed=1)
    want = gen_clusteredspheres(n_vec=(30, 10), seed=1).points.tobytes()
    assert generate("clusteredspheres", 60, n_vec=(30, 10), seed=1).points.tobytes() == want


def test_hemisphere_structure():
    ds = gen_hemisphere(1000, seed=39).points
    assert np.abs(np.linalg.norm(ds, axis=1) - 1.0).max() < 1e-12
    assert (ds[:, 2] * ds[:, 3] >= -1e-12).all()  # restricted third angle
    with pytest.raises(DimensionError):
        gen_hemisphere(10, p=3, seed=1)


# ---------------------------------------------------------------------------
# Swiss roll / trefoils


def test_swissroll_structure():
    ds = gen_swissroll(2000, w=(0.0, 10.0), seed=40).points
    t = np.sqrt(ds[:, 0] ** 2 + ds[:, 1] ** 2)
    assert t.max() <= 3 * np.pi + 1e-9
    assert np.abs(ds[:, 0] - t * np.cos(t)).max() < 1e-9
    assert ds[:, 2].min() >= 0.0 and ds[:, 2].max() <= 10.0
    with pytest.raises(ParameterError):
        gen_swissroll(10, w=(2.0, 1.0), seed=1)


def test_trefoil4d_on_unit_3sphere():
    ds = gen_trefoil4d(2000, seed=41).points
    assert ds.shape == (2000, 4)
    assert np.abs((ds**2).sum(axis=1) - 1.0).max() < 1e-12


def test_trefoil3d_is_stereographic_image():
    d4 = gen_trefoil4d(500, steps=8, seed=42).points
    d3 = gen_trefoil3d(500, steps=8, seed=42).points
    mapped = d4[:, :3] / (1.0 - d4[:, 3])[:, None]
    assert np.abs(d3 - mapped).max() < 1e-12


@pytest.mark.parametrize("steps", [1, 2, 3, 8, 1000, 100_000])
def test_trefoil_band_stays_off_the_projection_pole(steps):
    n = max(steps, 500)
    x4 = gen_trefoil4d(n, steps=steps, seed=1).points[:, 3]
    assert np.abs(x4).max() <= np.sin(np.pi / 4 + 0.1) < 0.78
    assert gen_trefoil3d(n, steps=steps, seed=1).n == n


def test_trefoil_closure_frequency():
    # the 1.5-frequency pair returns to its start only after phi moves 4 pi
    theta = np.pi / 4
    for phi0, same in ((4 * np.pi, True), (2 * np.pi, False)):
        x3_start = np.sin(theta) * np.cos(0.0)
        x3_end = np.sin(theta) * np.cos(1.5 * phi0)
        assert np.isclose(x3_start, x3_end, atol=1e-9) == same


def test_trefoil_single_step_band():
    ds = gen_trefoil4d(100, steps=1).points
    assert ds.shape == (100, 4)


# ---------------------------------------------------------------------------
# Trigonometric


def test_crescent_arc():
    ds = gen_crescent(100).points
    assert np.abs(ds[:, 0] ** 2 + ds[:, 1] ** 2 - 1.0).max() < 1e-12
    theta = np.linspace(np.pi / 6, 2 * np.pi, 100)
    assert np.abs(ds[:, 0] - np.cos(theta)).max() < 1e-12
    assert (np.diff(theta) > 0).all()


def test_curvycylinder_coupling():
    ds = gen_curvycylinder(2000, h=10.0, seed=43).points
    assert np.abs(ds[:, 3] - np.sin(ds[:, 2])).max() < 1e-12
    assert np.abs(ds[:, 0] ** 2 + ds[:, 1] ** 2 - 1.0).max() < 1e-12
    assert ds[:, 2].min() >= 0.0 and ds[:, 2].max() <= 10.0


def test_sphericalspiral_structure():
    ds = gen_sphericalspiral(1000, spins=3, seed=44).points
    assert np.abs(ds[:, 3] - np.linspace(0, 1, 1000)).max() < 1e-12
    phi = np.linspace(0, np.pi, 1000)
    assert np.abs(ds[:, 0] ** 2 + ds[:, 1] ** 2 - np.sin(phi) ** 2).max() < 1e-12
    resid = ds[:, 2] - np.cos(phi)
    assert resid.min() >= -0.5 and resid.max() <= 0.5


def test_helicalspiral_structure():
    ds = gen_helicalspiral(500, seed=45).points
    theta = np.linspace(0, 5 * np.pi / 4, 500)
    assert np.abs(ds[:, 0] - np.cos(theta)).max() < 1e-12
    assert np.abs(ds[:, 3] - 0.1 * ds[:, 1]).max() < 1e-15  # wobble tracks sin
    resid = ds[:, 2] - 0.05 * theta
    assert resid.min() >= -0.5 and resid.max() <= 0.5


def test_conicspiral_structure():
    ds = gen_conicspiral(800, spins=3, seed=46).points
    theta = np.linspace(0, 6 * np.pi, 800)
    assert np.abs(np.sqrt(ds[:, 0] ** 2 + ds[:, 1] ** 2) - theta).max() < 1e-9
    resid3 = ds[:, 2] - 2 * theta / (6 * np.pi)
    assert resid3.min() >= -0.1 and resid3.max() <= 0.6
    resid4 = ds[:, 3] - theta * np.sin(2 * theta)
    assert resid4.min() >= -0.1 and resid4.max() <= 0.6


def test_nonlinear_structure():
    ds = gen_nonlinear(1000, hc=2.0, non_fac=0.5, seed=47).points
    x1 = ds[:, 0]
    assert x1.min() >= 0.1 and x1.max() <= 2.0
    assert np.abs(ds[:, 1] - (2.0 / x1 + 0.5 * np.sin(x1))).max() < 1e-12
    assert ds[:, 2].min() >= 0.1 and ds[:, 2].max() <= 0.8
    resid = ds[:, 3] - np.cos(np.pi * x1)
    assert resid.min() >= -0.1 and resid.max() <= 0.1


def test_trig_validation():
    with pytest.raises(ParameterError):
        gen_nonlinear(10, hc=0.0, seed=1)
    with pytest.raises(ParameterError):
        gen_sphericalspiral(10, spins=0, seed=1)
    with pytest.raises(ParameterError):
        gen_curvycylinder(10, h=-1.0, seed=1)
