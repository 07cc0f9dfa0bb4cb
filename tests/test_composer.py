import collections
import copy
import dataclasses
import os
import pickle
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from helpers import openblas_kernels_runnable, pairwise_distances, run_python

from hdshapes.core import (
    DimensionError,
    ParameterError,
    RotationPlan,
    gen_nproduct,
    gen_rotation,
)
from hdshapes.composer import (
    PRESETS,
    MultiClusterSpec,
    apply_transform,
    gen_multicluster,
    list_presets,
    make_preset,
    pad_to_dim,
    simplex_vertices,
)
from hdshapes.shapes import (
    LatticeSizeWarning,
    RejectedParameterError,
    UnknownShapeError,
    gen_scurve,
    generate,
    shape_info,
)


def usage_spec(**overrides):
    base = dict(
        n=(200, 300, 500),
        k=3,
        loc=np.array([[0, 0, 0, 0], [5, 9, 0, 0], [3, 4, 10, 7]], dtype=float),
        scale=(3.0, 1.0, 2.0),
        shape=("gaussian", "cone", "unifcube"),
        is_bkg=False,
    )
    base.update(overrides)
    return MultiClusterSpec(**base)


# ---------------------------------------------------------------------------
# pad_to_dim / apply_transform


def test_pad_same_dim_unchanged():
    ds = gen_scurve(100, seed=1)
    assert pad_to_dim(ds, 3, seed=2) is ds


def test_pad_mean_and_sd():
    from hdshapes.core import Dataset

    ds = Dataset(np.full((20000, 2), 4.0))
    out = pad_to_dim(ds, 4, seed=3)
    new = out.points[:, 2:]
    assert np.abs(new.mean(axis=0) - 4.0).max() < 0.02
    assert np.abs(new.std(axis=0, ddof=1) - 0.2).max() < 0.01
    corr = np.corrcoef(new.T)
    assert abs(corr[0, 1]) < 0.03


def test_pad_downward_errors():
    with pytest.raises(DimensionError):
        pad_to_dim(gen_scurve(10, seed=1), 2)


def test_pad_target_must_be_integral():
    ds = gen_scurve(10, seed=1)
    with pytest.raises(ParameterError, match="p_target must be a positive integer, got 4.9"):
        pad_to_dim(ds, 4.9)
    assert pad_to_dim(ds, 4.0, seed=2).p == 4


def test_apply_transform_identity():
    ds = gen_scurve(200, seed=4)
    out = apply_transform(ds, 1.0, rotation=np.eye(3), center=ds.points.mean(axis=0))
    assert np.abs(out.points - ds.points).max() < 1e-12


def test_apply_transform_scale_doubles_distances():
    ds = gen_scurve(60, seed=5)
    out = apply_transform(ds, 2.0, center=(0.0, 0.0, 0.0))
    before = pairwise_distances(ds.points)
    after = pairwise_distances(out.points)
    assert np.abs(after - 2.0 * before).max() < 1e-9


def test_apply_transform_rotation_preserves_distances():
    rng = np.random.default_rng(6)
    ds = gen_scurve(80, seed=7)
    rot = gen_rotation(RotationPlan(3, ((1, 2, 0.7), (1, 3, 2.1), (2, 3, 4.0))))
    out = apply_transform(ds, 1.0, rotation=rot, center=(1.0, 2.0, 3.0))
    assert np.abs(pairwise_distances(out.points) - pairwise_distances(ds.points)).max() < 1e-9
    assert np.abs(out.points.mean(axis=0) - (1.0, 2.0, 3.0)).max() < 1e-12


def test_apply_transform_rejects_non_orthogonal():
    ds = gen_scurve(10, seed=8)
    with pytest.raises(ParameterError):
        apply_transform(ds, 1.0, rotation=np.eye(3) * 2.0, center=(0, 0, 0))


# ---------------------------------------------------------------------------
# MultiClusterSpec validation


def test_spec_length_mismatch_messages():
    with pytest.raises(ParameterError, match="scale"):
        usage_spec(scale=(1.0, 2.0))
    with pytest.raises(ParameterError, match="n"):
        usage_spec(n=(100, 100))
    with pytest.raises(UnknownShapeError):
        usage_spec(shape=("gaussian", "blob", "unifcube"))


def test_spec_counts_must_be_integral():
    with pytest.raises(ParameterError, match="n must be a positive integer, got 10.7"):
        usage_spec(n=(10.7, 5, 5))
    with pytest.raises(ParameterError, match="k must be a positive integer, got 2.9"):
        MultiClusterSpec(n=(5, 5), k=2.9, loc=np.zeros((2, 3)), scale=(1, 1), shape=("gaussian",) * 2)
    assert usage_spec(n=(10.0, np.int64(5), 5)).n == (10, 5, 5)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_spec_rejects_nonfinite_scale(bad):
    with pytest.raises(ParameterError, match="every scale must be positive and finite"):
        usage_spec(scale=(1.0, bad, 2.0))


def test_nonfinite_extras_are_named():
    spec = usage_spec(extras={"ratio": float("nan")})
    with pytest.raises(ParameterError, match="parameter ratio of shape 'cone'"):
        gen_multicluster(spec, seed=1)


def test_spec_rejects_partial_nan_loc():
    loc = np.array([[0, 0, 0, 0], [np.nan, 9, 0, 0], [3, 4, 10, 7]], dtype=float)
    with pytest.raises(ParameterError):
        usage_spec(loc=loc)


def test_spec_global_extras_must_apply_somewhere():
    with pytest.raises(RejectedParameterError, match="ratio"):
        MultiClusterSpec(
            n=(100, 100),
            k=2,
            loc=np.zeros((2, 3)),
            scale=(1.0, 1.0),
            shape=("gaussian", "gaussian"),
            extras={"ratio": 0.5},
        )


def test_spec_global_extras_applied_where_valid():
    spec = usage_spec(extras={"ratio": 1.0})  # only the cone accepts ratio
    ds = gen_multicluster(spec, seed=9)
    assert ds.n == 1000


def test_spec_per_cluster_extras_strict():
    with pytest.raises(RejectedParameterError, match="ratio"):
        MultiClusterSpec(
            n=(100, 100),
            k=2,
            loc=np.zeros((2, 3)),
            scale=(1.0, 1.0),
            shape=("gaussian", "cone"),
            extras=({"ratio": 0.5}, {}),
        )


def test_list_extras_values_are_checked_before_sampling_as_dict_extras_are(monkeypatch):
    """A spec checks the structure of its extras; gen_multicluster checks
    every value, in either form, before any cluster is sampled."""
    from hdshapes import composer

    with pytest.raises(ParameterError) as direct:
        generate("cone", n=10, p=4, ratio="x", seed=1)
    listed = usage_spec(extras=({}, {"ratio": "x"}, {}))  # builds: the value is not checked yet
    scene_wide = usage_spec(extras={"ratio": "x"})
    calls = []
    monkeypatch.setattr(composer, "generate", lambda *a, **kw: calls.append(a))
    for spec in (listed, scene_wide):
        with pytest.raises(ParameterError) as raised:
            gen_multicluster(spec, seed=1)
        assert type(raised.value) is type(direct.value) and str(raised.value) == str(direct.value)
    assert calls == []


def test_spec_from_dict_diagnostics():
    cfg = dict(n=[10, 10], k=2, loc=[[0, 0], [1, 1]], scale=[1, 1], shape=["gaussian", "gaussian"])
    assert MultiClusterSpec.from_dict(cfg).k == 2
    with pytest.raises(ParameterError, match="missing"):
        MultiClusterSpec.from_dict({"n": [10]})
    with pytest.raises(ParameterError, match="unknown field"):
        MultiClusterSpec.from_dict({**cfg, "extra_field": 1})
    with pytest.raises(ParameterError, match="rotation"):
        MultiClusterSpec.from_dict({**cfg, "rotation": [None, {"steps": []}]})


def test_spec_from_dict_matrix_rotation_and_dict_extras():
    cfg = {
        "n": [80, 80],
        "k": 2,
        "loc": [[0, 0, 0, 0], [4, 0, 0, 0]],
        "scale": [1, 1],
        "shape": ["gaussian", "cone"],
        "rotation": [None, np.eye(4)[[1, 0, 2, 3]].tolist()],  # raw permutation matrix
        "extras": {"ratio": 0.2},  # applies to the cone only
    }
    ds = gen_multicluster(MultiClusterSpec.from_dict(cfg), seed=26)
    assert ds.n == 160 and ds.p == 4


# ---------------------------------------------------------------------------
# gen_multicluster


def test_usage_example_counts_and_centroids():
    ds = gen_multicluster(usage_spec(), seed=42)
    assert ds.n == 1000 and ds.p == 4
    counts = collections.Counter(ds.labels.tolist())
    assert counts == {"gaussian": 200, "cone": 300, "unifcube": 500}
    spec = usage_spec()
    for c, kind in enumerate(spec.shape):
        sub = ds.points[ds.labels == kind]
        assert np.abs(sub.mean(axis=0) - spec.loc[c]).max() < 1e-9


def test_single_gaussian_passthrough():
    spec = MultiClusterSpec(
        n=(20000,), k=1, loc=np.zeros((1, 3)), scale=(1.0,), shape=("gaussian",)
    )
    ds = gen_multicluster(spec, seed=10)
    assert np.abs(ds.points.mean(axis=0)).max() < 0.05
    cov = np.cov(ds.points.T)
    assert np.abs(cov - np.eye(3)).max() < 0.06


def test_rotation_step_is_isometry_within_cluster():
    plan = RotationPlan(4, ((1, 2, 0.9), (2, 4, 2.2)))
    base = MultiClusterSpec(
        n=(300,), k=1, loc=np.zeros((1, 4)), scale=(1.0,), shape=("gaussian",)
    )
    rotated = MultiClusterSpec(
        n=(300,), k=1, loc=np.zeros((1, 4)), scale=(1.0,), shape=("gaussian",),
        rotation=(plan,),
    )
    a = gen_multicluster(base, seed=11, shuffle=False).points
    b = gen_multicluster(rotated, seed=11, shuffle=False).points
    assert np.abs(pairwise_distances(a) - pairwise_distances(b)).max() < 1e-9


def test_ambient_rotation_applies_after_padding():
    # a 2-D circle rotated out of plane by a scene-dimension plan
    flip = RotationPlan(3, ((1, 3, np.pi / 2),))
    spec = MultiClusterSpec(
        n=(400,), k=1, loc=np.zeros((1, 3)), scale=(1.0,), shape=("circle",),
        rotation=(flip,), extras=({"p": 2},),
    )
    ds = gen_multicluster(spec, seed=12, shuffle=False)
    # the ring now lives in the (x2, x3) plane; x1 carries the pad noise
    assert ds.points[:, 0].std() < 0.25
    assert ds.points[:, 2].std() > 0.5


def test_wrong_rotation_dimension_errors():
    spec = MultiClusterSpec(
        n=(50,), k=1, loc=np.zeros((1, 4)), scale=(1.0,), shape=("scurve",),
        rotation=(np.eye(2),),  # neither shape dim (3) nor scene dim (4)
    )
    with pytest.raises(ParameterError, match="rotation"):
        gen_multicluster(spec, seed=13)


def test_too_small_scene_is_rejected_before_sampling(monkeypatch):
    from hdshapes import composer

    calls = []
    monkeypatch.setattr(composer, "generate", lambda *a, **kw: calls.append(a))
    spec = MultiClusterSpec(
        n=(50, 50), k=2, loc=np.zeros((2, 2)), scale=(1.0, 1.0), shape=("gaussian", "scurve"),
    )
    with pytest.raises(DimensionError, match="scurve"):
        gen_multicluster(spec, seed=1)
    wide = MultiClusterSpec(
        n=(50, 50), k=2, loc=np.zeros((2, 3)), scale=(1.0, 1.0), shape=("gaussian", "cone"),
        extras=({"p": 5}, {}),
    )
    with pytest.raises(DimensionError, match="cluster 0 shape 'gaussian' has 5 dims"):
        gen_multicluster(wide, seed=1)
    assert calls == []


@pytest.mark.parametrize("rotation", [
    (None, None, {"dim": "4", "steps": []}),
    (None, None, {"dim": 4, "steps": [[1, True, 0.5]]}),
    (None, None, "eye"),
    (None, None, np.eye(2)),  # neither the cube's nor the scene's dimension
], ids=["string-dim", "bool-axis", "string-entry", "wrong-size"])
def test_a_bad_rotation_is_refused_before_any_cluster_is_sampled(rotation, monkeypatch):
    from hdshapes import composer

    calls = []
    monkeypatch.setattr(composer, "generate", lambda *a, **kw: calls.append(a))
    with pytest.raises(ParameterError, match="rotation"):
        gen_multicluster(usage_spec(rotation=rotation), seed=1)
    assert calls == []


def test_spec_holds_each_realized_rotation():
    plan = RotationPlan(4, ((1, 2, 0.9), (2, 4, 2.2)))
    spec = usage_spec(rotation=(plan, None, {"dim": 4, "steps": [[1, 2, 0.9], [2, 4, 2.2]]}))
    assert spec.rotation[1] is None
    assert np.array_equal(spec.rotation[0], gen_rotation(plan))
    assert np.array_equal(spec.rotation[2], gen_rotation(plan))


@pytest.mark.parametrize("field, value", [
    ("scale", (-1.0, 2.0, 1.0)),  # was sampled with a negative scale
    ("is_bkg", "no"),  # added background rows
    ("k", 5),  # ended in an IndexError traceback
    ("n", (20, "x", 20)),  # ended in a TypeError traceback
    ("loc", np.zeros((3, 4))),
    ("rotation", None),
    ("extras", ({"p": 2}, {}, {})),
])
def test_a_spec_is_immutable(field, value):
    spec = usage_spec()
    before = gen_multicluster(spec, seed=3).points.tobytes()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(spec, field, value)
    assert gen_multicluster(spec, seed=3).points.tobytes() == before


def test_a_spec_holds_read_only_extras():
    spec = usage_spec(extras=({}, {"h": 2.0}, {}))
    before = gen_multicluster(spec, seed=3).points.tobytes()
    with pytest.raises(TypeError):
        spec.extras[1]["h"] = 5.0  # changed the next scene's bytes
    with pytest.raises(TypeError):
        spec.extras[0]["p"] = 2
    assert gen_multicluster(spec, seed=3).points.tobytes() == before
    copies = (
        pickle.loads(pickle.dumps(spec)),
        copy.deepcopy(spec),
        dataclasses.replace(spec, is_bkg=False),
        usage_spec(extras=spec.extras),
    )
    for other in copies:
        assert other.extras == spec.extras
        with pytest.raises(TypeError):
            other.extras[1]["h"] = 5.0
        assert gen_multicluster(other, seed=3).points.tobytes() == before
    # The spec holds copies of the values: the caller's list and array
    # changed the next scene's bytes.
    r_vec, s = [10.0, 1.0], np.eye(4)
    spec = MultiClusterSpec(
        n=(40, 60), k=2, loc=np.zeros((2, 4)), scale=(1.0, 1.0), shape=("gaussian", "clusteredspheres"),
        extras=({"s": s}, {"r_vec": r_vec}),
    )
    before = gen_multicluster(spec, seed=3).points.tobytes()
    r_vec[0], s[0, 0] = 7.0, 4.0
    assert gen_multicluster(spec, seed=3).points.tobytes() == before
    assert type(spec.extras[1]["r_vec"]) is list
    assert not spec.extras[0]["s"].flags.writeable
    # A lookup hands out a copy: changing the spec's own nested list in
    # place changed the next scene's bytes.
    spec.extras[1]["r_vec"][1] = 2.5
    spec.extras[1]["r_vec"].append(3.0)
    assert spec.extras[1]["r_vec"] == [10.0, 1.0]
    assert gen_multicluster(spec, seed=3).points.tobytes() == before
    copies = (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec), dataclasses.replace(spec, is_bkg=False))
    for other in copies:
        assert type(other.extras[1]["r_vec"]) is list
        assert not other.loc.flags.writeable and not other.extras[0]["s"].flags.writeable
        other.extras[1]["r_vec"][0] = 7.0
        assert gen_multicluster(other, seed=3).points.tobytes() == before


def test_a_clusteredspheres_cluster_count_must_equal_its_n_vec_total():
    spec = MultiClusterSpec(
        n=(40, 50), k=2, loc=np.zeros((2, 3)), scale=(1.0, 1.0), shape=("gaussian", "clusteredspheres"),
        extras=({}, {"n_vec": (30, 10)}),
    )
    # The cluster had 60 rows, not the 50 the spec asks for.
    with pytest.raises(ParameterError, match=r"n = 50 differs .* = 60"):
        gen_multicluster(spec, seed=1)
    scene = gen_multicluster(dataclasses.replace(spec, n=(40, 60)), seed=1)
    assert collections.Counter(scene.labels.tolist()) == {"gaussian": 40, "clusteredspheres": 60}


def test_a_spec_holds_read_only_copies_of_loc_and_rotations():
    loc = np.array([[0, 0, 0], [5, 5, 5]], dtype=float)
    flip = np.eye(3)
    spec = MultiClusterSpec(
        n=(50, 50), k=2, loc=loc, scale=(1.0, 1.0), shape=("gaussian", "scurve"), rotation=(None, flip),
    )
    before = gen_multicluster(spec, seed=4).points.tobytes()
    flip[0, 0] = 7.0  # made gen_multicluster apply a non-orthogonal rotation
    loc[1] = 9.0
    assert gen_multicluster(spec, seed=4).points.tobytes() == before
    assert np.array_equal(spec.rotation[1], np.eye(3)) and spec.loc[1].tolist() == [5.0, 5.0, 5.0]
    for arr in (spec.loc, spec.rotation[1]):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 1.0


@pytest.mark.parametrize("name", list_presets())
def test_a_preset_builds_its_spec_and_make_preset_samples_it(name):
    spec = PRESETS[name].func()
    assert isinstance(spec, MultiClusterSpec)
    for seed in (0, 31):
        ours, theirs = gen_multicluster(PRESETS[name].func(), seed=seed), make_preset(name, seed=seed)
        assert ours.points.tobytes() == theirs.points.tobytes()
        assert ours.codes.tobytes() == theirs.codes.tobytes()
        assert ours.categories == theirs.categories


def test_nan_loc_row_skips_translation():
    spec = MultiClusterSpec(
        n=(500, 500), k=2,
        loc=np.array([[np.nan] * 3, [4.0, 4.0, 0.0]]),
        scale=(1.0, 0.5), shape=("mobius", "gaussian"),
    )
    ds = gen_multicluster(spec, seed=14)
    band = ds.points[ds.labels == "mobius"]
    radial = np.sqrt(band[:, 0] ** 2 + band[:, 1] ** 2)
    assert radial.min() >= 0.5 and radial.max() <= 1.5


def test_cluster_too_wide_for_scene():
    spec = MultiClusterSpec(
        n=(50,), k=1, loc=np.zeros((1, 3)), scale=(1.0,), shape=("trefoil4d",)
    )
    with pytest.raises(DimensionError):
        gen_multicluster(spec, seed=15)


def test_duplicate_shape_labels_get_suffixes():
    spec = MultiClusterSpec(
        n=(50, 50, 50), k=3, loc=np.zeros((3, 3)), scale=(1.0,) * 3,
        shape=("gaussian", "gaussian", "scurve"),
    )
    ds = gen_multicluster(spec, seed=16)
    assert sorted(set(ds.labels.tolist())) == ["gaussian_1", "gaussian_2", "scurve"]


def test_background_noise_rows():
    ds = gen_multicluster(usage_spec(is_bkg=True), seed=17)
    assert ds.n == 1000 + 100
    counts = collections.Counter(ds.labels.tolist())
    assert counts["background"] == 100


def test_a_background_whose_spread_overflows_is_refused():
    """The scene is frozen without a pass over every row, so a background
    drawn from an overflowing sd must be refused where it is drawn."""
    huge = usage_spec(is_bkg=True, scale=(1e300, 1e300, 1e300))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the sd's overflow
        assert np.isfinite(gen_multicluster(usage_spec(scale=(1e300, 1e300, 1e300)), seed=17).points).all()
        with pytest.raises(ParameterError, match=r"background sd \(the clusters' spread\) must be finite"):
            gen_multicluster(huge, seed=17)


def test_a_one_row_background_scene_is_refused_after_numpys_warnings():
    """One cluster row leaves the sd no degree of freedom. numpy's own std
    runs for it, warns as it always has, and gives NaN, which is refused."""
    spec = MultiClusterSpec(n=(1,), k=1, loc=np.zeros((1, 3)), scale=(1.0,), shape=("gaussian",), is_bkg=True)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ParameterError, match=r"background sd \(the clusters' spread\) must be finite"):
            gen_multicluster(spec, seed=1)
    assert [(w.category, str(w.message)) for w in caught] == [
        (RuntimeWarning, "Degrees of freedom <= 0 for slice"),
        (RuntimeWarning, "invalid value encountered in divide"),
    ]


def test_pipeline_deterministic_including_shuffle():
    a = gen_multicluster(usage_spec(), seed=18)
    b = gen_multicluster(usage_spec(), seed=18)
    assert a.points.tobytes() == b.points.tobytes()
    assert a.labels.tolist() == b.labels.tolist()


def test_shuffle_flag():
    ordered = gen_multicluster(usage_spec(), seed=19, shuffle=False)
    # block order: all gaussian rows first, then cone, then unifcube
    labels = ordered.labels.tolist()
    assert labels[:200] == ["gaussian"] * 200
    assert labels[200:500] == ["cone"] * 300
    assert labels[500:] == ["unifcube"] * 500


@pytest.mark.parametrize("shuffle", ["no", 0, None])
def test_shuffle_must_be_a_bool(shuffle):
    # A string was read as true, so "no" shuffled the rows.
    with pytest.raises(ParameterError, match=f"shuffle must be true or false, got {shuffle!r}"):
        gen_multicluster(usage_spec(), seed=1, shuffle=shuffle)


# ---------------------------------------------------------------------------
# simplex / presets


def test_simplex_vertices_regular():
    for p in (2, 3, 4, 7):
        verts = simplex_vertices(p)
        assert verts.shape == (p + 1, p)
        assert np.abs(verts.mean(axis=0)).max() < 1e-12
        dists = pairwise_distances(verts)
        off = dists[~np.eye(p + 1, dtype=bool)]
        assert np.abs(off - 1.0).max() < 1e-12


def test_simplex_dimension_must_be_integral():
    with pytest.raises(ParameterError, match="p must be a positive integer, got 3.5"):
        simplex_vertices(3.5)
    assert simplex_vertices(3.0).shape == (4, 3)


def test_all_presets_build_and_are_deterministic():
    for name in list_presets():
        a = make_preset(name, seed=20)
        b = make_preset(name, seed=20)
        assert a.points.tobytes() == b.points.tobytes(), name
        assert a.labels is not None


def test_mobiusgau_preset():
    ds = make_preset("mobiusgau", seed=21)
    assert sorted(set(ds.labels.tolist())) == ["gaussian", "mobius"]
    band = ds.points[ds.labels == "mobius"]
    radial = np.sqrt(band[:, 0] ** 2 + band[:, 1] ** 2)
    assert radial.min() >= 0.5 and radial.max() <= 1.5


def test_multigau_preset_separation():
    ds = make_preset("multigau", k=4, seed=22)
    names = sorted(set(ds.labels.tolist()))
    assert len(names) == 4
    means = np.vstack([ds.points[ds.labels == nm].mean(axis=0) for nm in names])
    dists = pairwise_distances(means)
    off = dists[~np.eye(4, dtype=bool)]
    assert off.min() > 3.0  # separations exceed 3 cluster sds (sd = 1)


def test_onegrid_preset_lattice():
    ds = make_preset("onegrid", n=400, seed=23)
    factors = gen_nproduct(400, 2)
    for j in range(2):
        assert np.unique(ds.points[:, j]).size <= factors[j]


def test_preset_param_filtering():
    with pytest.raises(RejectedParameterError, match="preset 'onegrid'"):
        make_preset("onegrid", k=3, seed=24)
    with pytest.raises(ParameterError, match="unknown preset"):
        make_preset("nosuchpreset", seed=25)


# ---------------------------------------------------------------------------
# Memory


def test_multicluster_peak_memory_is_bounded():
    """The scene is filled in place: clusters are written into one array, and
    arrays the pipeline builds are adopted, not copied. Traced peak memory
    stays within 4x the output (about 2.6x; copying every stage took 5.5x)."""
    p = 20
    loc = np.zeros((5, p))
    loc[:, 0] = 10.0 * np.arange(5)
    spec = MultiClusterSpec(
        n=(40_000,) * 5,
        k=5,
        loc=loc,
        scale=(1.0, 2.0, 1.0, 0.5, 1.0),
        shape=("gaussian", "cone", "unifcube", "gaussian", "hollowsphere"),
        rotation=(RotationPlan(p, ((1, 2, 0.3), (3, 7, 1.1))), None, None, None, None),
        is_bkg=True,
    )
    tracemalloc.start()
    try:
        out = gen_multicluster(spec, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.n == 220_000
    assert peak <= 4 * out.points.nbytes, f"peak {peak / out.points.nbytes:.2f}x the output"


# ---------------------------------------------------------------------------
# Clusters composed on every CPU


def _cpus(monkeypatch, count) -> None:
    """Make the composer see `count` CPUs in the affinity mask, or, for None,
    run where `os.sched_getaffinity` is missing."""
    if count is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _rotated_scene_with_background():
    p = 6
    return MultiClusterSpec(
        n=(700, 500, 900, 300), k=4,
        loc=np.array([[0.0] * p, [5.0] * p, [-4.0, 2.0, 0.0, 1.0, 3.0, -2.0], [np.nan] * p]),
        scale=(1.5, 0.7, 2.0, 1.0), shape=("scurve", "gaussian", "cone", "mobius"),
        rotation=(RotationPlan(3, ((1, 2, 0.7),)), RotationPlan(p, ((2, 5, 1.3), (1, 6, 0.2))),
                  None, RotationPlan(p, ((3, 4, 2.1),))),
        is_bkg=True,
    )


def _scenes() -> dict:
    specs = {name: PRESETS[name].func() for name in list_presets()}
    specs["rotated_background"] = _rotated_scene_with_background()
    scenes = {name: gen_multicluster(spec, seed=9) for name, spec in specs.items()}
    return {name: (ds.points.tobytes(), ds.codes.tobytes(), ds.categories) for name, ds in scenes.items()}


def _count_helpers(monkeypatch) -> list:
    started = []
    real_start = threading.Thread.start

    def start(thread):
        started.append(thread)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


def test_scene_bytes_do_not_depend_on_the_thread_count(monkeypatch):
    helpers = _count_helpers(monkeypatch)
    specs = [PRESETS[name].func() for name in list_presets()] + [_rotated_scene_with_background()]
    scenes = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LatticeSizeWarning)  # the grid presets overshoot n
        for count in (1, 2, 3, 8, None):
            _cpus(monkeypatch, count)
            helpers.clear()
            scenes[count] = _scenes()
            # One helper per CPU past the first, at most one thread per cluster,
            # serving both the sampling and the placing of a scene; then, for a
            # background, one helper drawing beside the calling thread's mean
            # and sd, and one helper per CPU past the first for the shuffle.
            cpus = count or 1
            expected = sum(min(s.k, cpus) - 1 + min(s.is_bkg, cpus - 1) + cpus - 1 for s in specs)
            assert len(helpers) == expected, count
    assert all(scenes[count] == scenes[1] for count in scenes)
    for name in list_presets():
        ds = make_preset(name, seed=9)
        assert scenes[1][name] == (ds.points.tobytes(), ds.codes.tobytes(), ds.categories)


def test_every_helper_thread_has_ended_when_gen_multicluster_returns_or_raises(monkeypatch):
    _cpus(monkeypatch, 8)
    before = threading.active_count()
    gen_multicluster(_rotated_scene_with_background(), seed=2)
    assert threading.active_count() == before
    with pytest.raises(ParameterError):
        gen_multicluster(usage_spec(extras=({}, {"h": -1}, {})), seed=2)
    assert threading.active_count() == before


@pytest.mark.parametrize("cpus", [1, 8])
def test_a_generator_error_in_a_cluster_is_raised_unchanged(monkeypatch, cpus):
    with pytest.raises(ParameterError) as direct:
        generate("cone", n=300, p=4, h=-1, seed=1)
    _cpus(monkeypatch, cpus)
    with pytest.raises(ParameterError) as raised:
        gen_multicluster(usage_spec(extras=({}, {"h": -1}, {})), seed=3)
    assert type(raised.value) is type(direct.value) and str(raised.value) == str(direct.value) == "h must be positive"


def test_when_two_clusters_fail_the_lower_index_wins(monkeypatch):
    from hdshapes import composer

    _cpus(monkeypatch, 8)
    real = composer.generate

    def generate_or_fail(kind, n, seed, **params):
        cluster = seed.path[0]
        if cluster == 1:
            time.sleep(0.05)  # fails after cluster 2 has failed
            raise ParameterError("cluster 1 failed")
        if cluster == 2:
            raise ParameterError("cluster 2 failed")
        return real(kind, n=n, seed=seed, **params)

    monkeypatch.setattr(composer, "generate", generate_or_fail)
    with pytest.raises(ParameterError, match="cluster 1 failed"):
        gen_multicluster(usage_spec(), seed=4)
    monkeypatch.setattr(composer, "generate", real)
    # Both clusters fail in their generators; cluster 1's error is the one a loop meets first.
    with pytest.raises(ParameterError, match="h must be positive"):
        gen_multicluster(usage_spec(shape=("gaussian", "cone", "cone"),
                                    extras=({}, {"h": -1}, {"ratio": 2.0})), seed=4)


def test_an_interrupt_in_any_cluster_wins_over_an_error(monkeypatch):
    from hdshapes import composer

    _cpus(monkeypatch, 8)

    def fail(kind, n, seed, **params):
        if seed.path[0] == 2:
            raise KeyboardInterrupt
        time.sleep(0.05)  # one thread per cluster: cluster 2 is taken before these fail
        raise ParameterError(f"cluster {seed.path[0]} failed")

    monkeypatch.setattr(composer, "generate", fail)
    before = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        gen_multicluster(usage_spec(), seed=4)
    assert threading.active_count() == before


@pytest.mark.parametrize("cpus", [1, 8])
def test_a_lattice_error_is_raised_before_a_later_clusters_error(monkeypatch, cpus):
    """Cluster 0 is a lattice with more rows than n whose scaled points
    overflow; cluster 1's generator fails too. The lattice is placed and
    checked in its own job, so its error is the one a loop meets first."""
    _cpus(monkeypatch, cpus)
    spec = MultiClusterSpec(
        n=(10, 50), k=2, loc=np.full((2, 3), np.nan), scale=(1e308, 1.0), shape=("gridcube", "cone"),
        extras=({"p": 2}, {"h": -1.0}),
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ParameterError, match="points must be finite"):
            gen_multicluster(spec, seed=1)
    assert [w.category for w in caught] == [LatticeSizeWarning, RuntimeWarning]
    assert str(caught[1].message) == "overflow encountered in cluster 0"


def _two_grids() -> MultiClusterSpec:
    return MultiClusterSpec(n=(10, 40), k=2, loc=np.array([[0.0, 0.0], [3.0, 3.0]]),
                            scale=(1.0, 1.0), shape=("gridcube", "gridcube"))


GRID_WARNINGS = [
    "gridcube lattice has 12 points, more than n = 10",
    "gridcube lattice has 42 points, more than n = 40",
]


@pytest.mark.parametrize("cpus", [1, 8])
def test_warnings_are_shown_in_cluster_order(monkeypatch, cpus):
    from hdshapes import composer

    _cpus(monkeypatch, cpus)
    real = composer.generate

    def late_first_cluster(kind, n, seed, **params):
        if seed.path[0] == 0:
            time.sleep(0.05)  # cluster 1 warns first
        return real(kind, n=n, seed=seed, **params)

    monkeypatch.setattr(composer, "generate", late_first_cluster)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        show, filters, saved = warnings._showwarnmsg, warnings.filters, list(warnings.filters)
        gen_multicluster(_two_grids(), seed=5)
        assert warnings._showwarnmsg is show and warnings.filters is filters and filters == saved
    assert [str(w.message) for w in caught] == GRID_WARNINGS
    assert {w.category for w in caught} == {LatticeSizeWarning}


@pytest.mark.parametrize("cpus", [1, 8])
def test_a_warning_filter_still_decides_in_every_thread(monkeypatch, cpus):
    _cpus(monkeypatch, cpus)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("ignore")
        gen_multicluster(_two_grids(), seed=5)
    assert caught == []
    with warnings.catch_warnings():
        warnings.simplefilter("error", LatticeSizeWarning)
        with pytest.raises(LatticeSizeWarning, match="more than n = 10"):
            gen_multicluster(_two_grids(), seed=5)


@pytest.mark.parametrize("cpus", [1, 8])
def test_errstate_holds_in_every_thread(monkeypatch, cpus):
    from hdshapes import composer

    _cpus(monkeypatch, cpus)
    real, seen = composer.generate, []

    def recording(kind, n, seed, **params):
        seen.append((threading.current_thread() is threading.main_thread(), np.geterr()["over"]))
        if seen[-1][0]:
            time.sleep(0.05)  # so the helpers take clusters
        return real(kind, n=n, seed=seed, **params)

    monkeypatch.setattr(composer, "generate", recording)
    with np.errstate(over="raise"):
        gen_multicluster(usage_spec(), seed=6)
    assert {over for _, over in seen} == {"raise"}
    assert any(not on_main for on_main, _ in seen) == (cpus > 1)
    monkeypatch.setattr(composer, "generate", real)
    huge = usage_spec(scale=(1.0, 1.0, 1e308))
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            gen_multicluster(huge, seed=6)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ParameterError, match="points must be finite"):
            gen_multicluster(huge, seed=6)
    assert any(issubclass(w.category, RuntimeWarning) for w in caught)


@pytest.mark.parametrize("cpus", [1, 8])
def test_a_callers_floating_point_handler_gets_every_clusters_errors(monkeypatch, cpus):
    """Only the "warn" mode is held for the calling thread; a "call" or
    "log" handler the caller set gets the overflow from any thread."""
    _cpus(monkeypatch, cpus)
    huge = usage_spec(scale=(1.0, 1.0, 1e308))
    called = []
    with np.errstate(over="call", call=lambda err, flag: called.append(err)):
        with pytest.raises(ParameterError, match="points must be finite"):
            gen_multicluster(huge, seed=6)
    assert "overflow" in called

    class Log:
        def __init__(self):
            self.lines = []

        def write(self, text):
            self.lines.append(text)

    log = Log()
    with np.errstate(over="log", call=log):
        with pytest.raises(ParameterError, match="points must be finite"):
            gen_multicluster(huge, seed=6)
    assert any(line.startswith("Warning: overflow encountered in") for line in log.lines)


@pytest.mark.parametrize("cpus", [1, 8])
def test_each_cluster_block_equals_the_staged_pipeline(monkeypatch, cpus):
    """Each cluster is written straight into its block of the scene; the
    bytes are those of the stages built one array at a time. The lattice in
    the middle returns more rows than asked, which moves the later blocks."""
    from hdshapes.core import as_stream

    _cpus(monkeypatch, cpus)
    p = 5
    spec = MultiClusterSpec(
        n=(300, 10, 250, 200), k=4,
        loc=np.array([[1.0] * p, [4.0, 0.0, 1.0, 0.0, 2.0], [np.nan] * p, [-3.0] * p]),
        scale=(2.0, 1.5, 0.7, 1.0), shape=("scurve", "gridcube", "gaussian", "cone"),
        rotation=(RotationPlan(3, ((1, 3, 0.4),)), RotationPlan(p, ((2, 5, 1.1),)), None,
                  RotationPlan(p, ((1, 2, 2.0),))),
        extras=({}, {"p": 2}, {}, {}),
        is_bkg=True,
    )
    with pytest.warns(LatticeSizeWarning, match="12 points, more than n = 10"):
        scene = gen_multicluster(spec, seed=8, shuffle=False)
    stream = as_stream(8)
    for c, kind in enumerate(spec.shape):
        params = spec.extras[c] if shape_info(kind).dim is not None else {"p": p, **spec.extras[c]}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LatticeSizeWarning)  # checked above
            ds = generate(kind, spec.n[c], seed=stream.derive(c).derive(0), **params)
        rot = spec.rotation[c]
        before = rot is not None and rot.shape[0] == ds.p
        target = None if np.isnan(spec.loc[c]).all() else spec.loc[c]
        staged = apply_transform(ds, spec.scale[c], rot if before else None)
        staged = pad_to_dim(staged, p, seed=stream.derive(c).derive(1))
        staged = apply_transform(staged, 1.0, None if before else rot, target)
        assert scene.points[scene.codes == c].tobytes() == staged.points.tobytes(), kind
    assert collections.Counter(scene.codes.tolist()) == {0: 300, 1: 12, 2: 250, 3: 200, 4: 76}


def test_every_cluster_is_sampled_once_under_frequent_thread_switches(monkeypatch):
    """More threads than cores take clusters from one shared counter; with
    the interpreter switching threads every microsecond, each cluster is
    still sampled exactly once and lands in its own block."""
    from hdshapes import composer

    k = 24
    spec = MultiClusterSpec(
        n=tuple(range(40, 40 + k)), k=k, loc=np.arange(k * 3, dtype=float).reshape(k, 3),
        scale=(1.0,) * k, shape=("gaussian", "scurve", "cone") * (k // 3), is_bkg=True,
    )
    _cpus(monkeypatch, 1)
    reference = gen_multicluster(spec, seed=10)
    real, calls, lock = composer.generate, collections.Counter(), threading.Lock()

    def counted(kind, n, seed, **params):
        with lock:
            calls[seed.path[0]] += 1
        return real(kind, n=n, seed=seed, **params)

    monkeypatch.setattr(composer, "generate", counted)
    _cpus(monkeypatch, 16)
    before, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            out = gen_multicluster(spec, seed=10)
            assert out.points.tobytes() == reference.points.tobytes()
            assert out.codes.tobytes() == reference.codes.tobytes()
    finally:
        sys.setswitchinterval(interval)
    assert calls == {c: 5 for c in range(k)}
    assert threading.active_count() == before


# ---------------------------------------------------------------------------
# BLAS products on the calling thread

_DENSE_PRODUCTS = """
import hashlib
import numpy as np
from hdshapes.composer import MultiClusterSpec, gen_multicluster
from hdshapes.shapes import gen_gaussian

rng = np.random.default_rng(3)
rotation = np.linalg.qr(rng.standard_normal((20, 20)))[0]
spec = MultiClusterSpec(
    n=(2001, 300), k=2, loc=np.zeros((2, 20)), scale=(1.0, 2.0),
    shape=("gaussian", "cone"), rotation=(rotation, None), is_bkg=True,
)
root = rng.standard_normal((20, 20))
cov = root @ root.T + 20 * np.eye(20)
scene = gen_multicluster(spec, seed=1)
cluster = gen_gaussian(n=2001, p=20, s=cov, seed=2)
for data in (scene.points, scene.codes, cluster.points):
    print(hashlib.sha256(data.tobytes()).hexdigest())
"""


@pytest.mark.parametrize("coretype", openblas_kernels_runnable("Haswell"))
def test_rotated_and_covariance_bytes_do_not_depend_on_openblas_threads(coretype):
    """A dense 20 x 20 rotation of a 2001-row cluster and a covariance
    gaussian of 2001 rows: one call is a product OpenBLAS would share out,
    and its AVX2 kernels then give other bits than on one thread. In row
    blocks it never shares one out, so the affinity mask cannot change the
    bytes."""
    one = run_python(_DENSE_PRODUCTS, OPENBLAS_CORETYPE=coretype, OPENBLAS_NUM_THREADS="1")
    two = run_python(_DENSE_PRODUCTS, OPENBLAS_CORETYPE=coretype, OPENBLAS_NUM_THREADS="2")
    assert one == two


_SPIN = """
import time
import numpy as np
from hdshapes.composer import MultiClusterSpec, gen_multicluster
from hdshapes.core import RotationPlan
from hdshapes.shapes import gen_gaussian

spec = MultiClusterSpec(
    n=(40000, 20000), k=2, loc=np.zeros((2, 20)), scale=(1.0, 1.0), shape=("gaussian", "cone"),
    rotation=(RotationPlan(20, ((1, 2, 0.5), (3, 9, 1.1))), None), is_bkg=True,
)
gen_multicluster(spec, seed=1)
gen_gaussian(n=40000, p=20, s=np.eye(20) + 0.5, seed=2)
others = time.process_time() - time.thread_time()
time.sleep(0.3)
print(time.process_time() - time.thread_time() - others)
"""


def test_no_blas_worker_spins_after_the_products():
    """A product OpenBLAS shares out leaves its worker threads spinning for
    ~135 ms of CPU after it returns (a 40000 x 20 by 20 x 20 product on 2
    CPUs), CPU the scene's other jobs could use. Every product now runs on
    the calling thread, so the process's other threads use next to no CPU
    while it sleeps."""
    assert float(run_python(_SPIN)) < 0.02
