import numpy as np
import pytest

from helpers import openblas_kernels_runnable, run_python

from hdshapes import core
from hdshapes.core import (
    Dataset,
    ParameterError,
    RandomStream,
    _adopt,
    RotationPlan,
    as_stream,
    derive,
    gen_bkgnoise,
    gen_nproduct,
    gen_nsum,
    gen_rotation,
    make_stream,
    normalize_data,
    randomize_rows,
    relocate_clusters,
)


# ---------------------------------------------------------------------------
# Random streams


def test_same_seed_same_sequence():
    a = make_stream(0).rng.random(1000)
    b = make_stream(0).rng.random(1000)
    assert a.tobytes() == b.tobytes()


def test_same_path_same_sequence():
    a = make_stream(9).derive(3).derive(7).rng.random(100)
    b = make_stream(9).derive(3).derive(7).rng.random(100)
    assert a.tobytes() == b.tobytes()


def test_distinct_paths_differ():
    # sibling substreams should be effectively independent
    a = make_stream(0).derive(1).rng.random(1000)
    b = make_stream(0).derive(2).rng.random(1000)
    assert (a == b).sum() <= 10


def test_uniforms_in_unit_interval():
    u = make_stream(42).rng.random(10000)
    assert (u >= 0).all() and (u < 1).all()


def test_derive_function_matches_method():
    s = make_stream(5)
    assert derive(s, 2).rng.random(10).tobytes() == s.derive(2).rng.random(10).tobytes()


def test_as_stream_validation():
    s = make_stream(1)
    assert as_stream(s) is s
    assert isinstance(as_stream(7), RandomStream)
    assert isinstance(as_stream(None), RandomStream)
    with pytest.raises(ParameterError):
        as_stream(-1)
    with pytest.raises(ParameterError):
        as_stream("not a seed")


@pytest.mark.parametrize("bad", [True, False, np.True_])
def test_bool_seed_is_refused_not_read_as_0_or_1(bad):
    """`gen_cone(5, seed=True)` once gave the bytes of seed 1."""
    with pytest.raises(ParameterError, match="seed must be an int, RandomStream, or None, got bool"):
        as_stream(bad)


def test_seed_range_is_64_bit():
    top = 2**64 - 1
    assert RandomStream(top).seed == top
    for bad in (2**64, 2**64 + 5):
        with pytest.raises(ParameterError, match=r"\[0, 2\*\*64\)"):
            as_stream(bad)


@pytest.mark.parametrize("bad", [True, False, np.True_, 3.9, 3.0, -1, 2**64, 2**64 + 5, "3", None], ids=repr)
def test_a_seed_or_index_is_refused_not_coerced(bad):
    """`make_stream(True)` seeded 1 and `make_stream(3.9)` seeded 3;
    `derive(s, -1)` drew what `derive(s, 2**64 - 1)` draws, and
    `derive(s, 2**64 + 5)`, `derive(s, 3.9)` and `derive(s, True)` drew
    what indices 5, 3 and 1 draw."""
    with pytest.raises(ParameterError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
        make_stream(bad)
    with pytest.raises(ParameterError, match=r"stream index must be an integer in \[0, 2\*\*64\)"):
        derive(make_stream(1), bad)
    with pytest.raises(ParameterError, match=r"stream index must be an integer in \[0, 2\*\*64\)"):
        RandomStream(1, (0, bad))


def test_a_numpy_integer_seed_or_index_is_its_int():
    top = 2**64 - 1
    for value, same in ((np.uint64(top), top), (np.int64(5), 5), (np.uint8(0), 0)):
        assert make_stream(value).rng.random(4).tobytes() == make_stream(same).rng.random(4).tobytes()
        child = derive(make_stream(1), value)
        assert child.path == (same,) and type(child.path[0]) is int
        assert child.rng.random(4).tobytes() == derive(make_stream(1), same).rng.random(4).tobytes()


# ---------------------------------------------------------------------------
# Dataset


def test_dataset_basics():
    ds = Dataset([[1.0, 2.0], [3.0, 4.0]], labels=["a", "b"])
    assert ds.n == 2 and ds.p == 2
    assert ds.column_names == ("x1", "x2")
    assert not ds.points.flags.writeable


def test_dataset_rejects_nonfinite():
    with pytest.raises(ParameterError):
        Dataset([[1.0, np.nan]])
    with pytest.raises(ParameterError):
        Dataset([[np.inf, 0.0]])


def test_dataset_label_count_must_match():
    with pytest.raises(ParameterError):
        Dataset([[1.0], [2.0]], labels=["only-one"])
    with pytest.raises(ParameterError):
        Dataset([[1.0], [2.0]], [0], ("a",))


@pytest.mark.parametrize(
    "labels",
    [
        [3, 10, 3, -1],
        np.array([7, 8, 7, 7], dtype=np.uint8),
        ["b", "a", "b", "ab"],
        [1, "1", 2.0, "x"],
        np.array([1, "1", 2.0, None], dtype=object),
        [0.0, -0.0, np.nan, -np.nan],
        np.array([0.1, 0.1, 2.5, 3.0], dtype=np.float32),
        [True, False, True, True],
    ],
    ids=["int", "uint8", "str", "mixed-list", "object", "float-zero-nan", "float32", "bool"],
)
def test_labels_are_str_of_each_value(labels):
    ds = Dataset(np.zeros((4, 1)), labels)
    assert ds.labels.dtype.kind == "U"
    assert not ds.labels.flags.writeable
    assert not ds.codes.flags.writeable
    assert ds.labels.tolist() == [str(v) for v in np.asarray(labels).ravel()]
    assert [ds.categories[c] for c in ds.codes] == ds.labels.tolist()


def test_mixed_object_labels_share_one_code_per_name():
    ds = Dataset(np.zeros((3, 1)), np.array([1, "1", 2.0], dtype=object))
    assert ds.labels.tolist() == ["1", "1", "2.0"]
    assert ds.codes[0] == ds.codes[1] != ds.codes[2]
    assert sorted(ds.categories) == ["1", "2.0"]


def test_dataset_from_codes():
    ds = Dataset(np.zeros((3, 2)), np.array([1, 0, 1], dtype=np.int8), ["a", "b"])
    assert ds.labels.tolist() == ["b", "a", "b"]
    assert ds.categories == ("a", "b")
    unlabeled = Dataset(np.zeros((3, 2)))
    assert unlabeled.codes is None and unlabeled.categories is None and unlabeled.labels is None


@pytest.mark.parametrize(
    "codes, categories",
    [
        ([0, 2], ("a", "b")),
        ([-1, 0], ("a", "b")),
        ([0.0, 1.0], ("a", "b")),
        ([0, 1], ("a", "a")),
        (None, ("a", "b")),
    ],
    ids=["too-large", "negative", "float", "duplicate-name", "no-codes"],
)
def test_dataset_rejects_bad_codes(codes, categories):
    with pytest.raises(ParameterError):
        Dataset(np.zeros((2, 1)), codes, categories)


def test_take_with_mask_and_permutation():
    pts = np.arange(12, dtype=float).reshape(6, 2)
    names = ["a", "b", "c", "a", "b", "c"]
    ds = Dataset(pts, names)
    mask = np.array([True, False, True, False, False, True])
    sub = ds.take(mask)
    assert sub.labels.tolist() == ["a", "c", "c"]
    assert np.array_equal(sub.points, pts[mask])
    perm = np.array([5, 3, 1, 0, 2, 4])
    shuffled = ds.take(perm)
    assert shuffled.labels.tolist() == [names[i] for i in perm]
    assert np.array_equal(shuffled.points, pts[perm])
    assert shuffled.categories == ds.categories
    back = ds.take([-1, 0])
    assert back.labels.tolist() == ["c", "a"]
    assert np.array_equal(back.points, pts[[5, 0]])
    none = ds.take(np.zeros(6, dtype=bool))
    assert (none.n, none.p, none.labels.tolist()) == (0, 2, [])
    assert ds.take([]).n == 0
    with pytest.raises(IndexError):
        ds.take([6])
    with pytest.raises(IndexError):
        ds.take(mask[:4])


def test_take_returns_its_own_read_only_arrays():
    ds = Dataset(np.arange(12, dtype=float).reshape(6, 2), [0, 1, 2, 0, 1, 2])
    for rows in (np.arange(6), np.ones(6, dtype=bool), [4, -1]):
        sub = ds.take(rows)
        for got, src in ((sub.points, ds.points), (sub.codes, ds.codes)):
            assert not got.flags.writeable
            assert not np.shares_memory(got, src)


def test_constructor_and_with_points_copy_caller_arrays():
    arr = np.ones((4, 2))
    codes = np.array([0, 1, 0, 1])
    ds = Dataset(arr, codes, ["a", "b"])
    moved = ds.with_points(arr)
    for got in (ds, moved):
        assert not np.shares_memory(arr, got.points)
        assert not np.shares_memory(codes, got.codes)
    assert arr.flags.writeable and codes.flags.writeable
    arr[0, 0] = 7.0
    assert ds.points[0, 0] == moved.points[0, 0] == 1.0


def test_adopt_keeps_the_checks_and_freezes_without_copying():
    arr = np.ones((3, 2))
    ds = _adopt(arr)
    assert np.shares_memory(arr, ds.points) and not arr.flags.writeable
    with pytest.raises(ParameterError, match="finite"):
        _adopt(np.array([[0.0, np.nan]]))
    with pytest.raises(ParameterError, match="2-D"):
        _adopt(np.zeros(3))
    with pytest.raises(ParameterError, match="codes must lie"):
        _adopt(np.zeros((2, 1)), np.array([0, 2]), ["a", "b"])


def test_with_points_keeps_labels():
    ds = Dataset(np.zeros((3, 1)), ["x", "y", "x"])
    moved = ds.with_points(np.ones((3, 4)))
    assert moved.p == 4 and moved.labels.tolist() == ["x", "y", "x"]
    assert Dataset(np.zeros((3, 1))).with_points(np.ones((3, 2))).labels is None


# ---------------------------------------------------------------------------
# Rotations


def test_empty_plan_is_identity():
    rot = gen_rotation(RotationPlan(4))
    assert np.array_equal(rot, np.eye(4))


def test_quarter_turn_2d():
    rot = gen_rotation(RotationPlan(2, ((1, 2, np.pi / 2),)))
    assert np.abs(rot @ np.array([1.0, 0.0]) - np.array([0.0, 1.0])).max() < 1e-12


def test_plan_validation():
    with pytest.raises(ParameterError):
        RotationPlan(3, ((2, 2, 0.5),))  # i == j
    with pytest.raises(ParameterError):
        RotationPlan(3, ((1, 4, 0.5),))  # axis out of range
    with pytest.raises(ParameterError):
        RotationPlan(3, ((3, 1, 0.5),))  # i > j violates i < j
    with pytest.raises(ParameterError):
        gen_rotation(np.eye(3))  # not a plan


@pytest.mark.parametrize("dim, steps", [
    ("4", ()),
    (True, ()),
    (2.5, ()),
    (4, ((True, 2, 0.5),)),
    (4, ((1, "2", 0.5),)),
    (4, ((1, 2, "0.5"),)),
    (4, ((1, 2, False),)),
    (4, ((1, 2),)),
    (4, (5,)),
    (4, 5),
])
def test_plan_refuses_a_string_or_bool_instead_of_converting_it(dim, steps):
    with pytest.raises(ParameterError, match="rotation"):
        RotationPlan(dim, steps)


def test_plan_keeps_integral_and_numpy_numbers():
    plan = RotationPlan(np.int64(3), [(1.0, np.int32(3), np.float32(0.5))])
    assert plan.dim == 3 and plan.steps == ((1, 3, float(np.float32(0.5))),)


def _random_plan(rng, p, n_steps=10):
    steps = []
    for _ in range(n_steps):
        i, j = sorted(rng.choice(p, size=2, replace=False) + 1)
        steps.append((int(i), int(j), float(rng.uniform(0, 2 * np.pi))))
    return RotationPlan(p, tuple(steps))


def test_random_plans_orthogonal_and_distance_preserving():
    rng = np.random.default_rng(2024)
    for trial in range(100):
        p = int(rng.integers(2, 11))
        rot = gen_rotation(_random_plan(rng, p))
        assert np.abs(rot.T @ rot - np.eye(p)).max() < 1e-10
        assert abs(np.linalg.det(rot) - 1.0) < 1e-10
    # distance preservation on random point pairs
    p = 5
    rot = gen_rotation(_random_plan(rng, p))
    x = rng.standard_normal((100, p))
    y = rng.standard_normal((100, p))
    before = np.linalg.norm(x - y, axis=1)
    after = np.linalg.norm(x @ rot.T - y @ rot.T, axis=1)
    assert np.abs(before - after).max() < 1e-9


# ---------------------------------------------------------------------------
# Integer partitions


def _nproduct_oracle(target, k):
    """Brute force: smallest product >= target over near-equal factor tuples."""
    best = None
    for base in range(1, target + 2):
        for j in range(k + 1):
            prod = base ** (k - j) * (base + 1) ** j
            if prod >= target and (best is None or prod < best):
                best = prod
        if base**k >= target:
            break
    return best


def test_nproduct_examples():
    assert gen_nproduct(17, 1) == (17,)
    assert gen_nproduct(1000, 3) == (10, 10, 10)
    out = gen_nproduct(1000, 2)
    assert out == (32, 32) and 32 * 32 == 1024


def test_nproduct_matches_bruteforce_oracle():
    rng = np.random.default_rng(7)
    cases = [(int(rng.integers(1, 5000)), int(rng.integers(1, 6))) for _ in range(60)]
    cases += [(1, 1), (1, 4), (2, 3), (1000, 2), (1000, 3), (17, 1)]
    for target, k in cases:
        factors = gen_nproduct(target, k)
        assert len(factors) == k
        assert all(f >= 1 for f in factors)
        prod = int(np.prod(factors))
        assert prod == _nproduct_oracle(target, k)
        assert max(factors) - min(factors) <= 1
        # no factor can shrink: replacing any f by f-1 drops below target
        for i, f in enumerate(factors):
            assert prod // f * (f - 1) < target


def test_nproduct_validation():
    with pytest.raises(ParameterError):
        gen_nproduct(0, 2)
    with pytest.raises(ParameterError):
        gen_nproduct(10, 0)


@pytest.mark.parametrize("target, k", [(10.7, 2), (10, 2.5), (10.7, 2.5), (float("nan"), 2), ("10", 2)])
def test_nsum_and_nproduct_reject_fractional_counts(target, k):
    with pytest.raises(ParameterError, match="must be a positive integer"):
        gen_nsum(target, k)
    with pytest.raises(ParameterError, match="must be a positive integer"):
        gen_nproduct(target, k)


def test_nsum_and_nproduct_accept_integral_floats():
    assert gen_nsum(10.0, np.int64(2)) == (5, 5)
    assert gen_nproduct(np.int32(10), 2.0) == (4, 3)


def test_nsum_examples():
    assert gen_nsum(9, 3) == (3, 3, 3)
    assert gen_nsum(10, 3) == (4, 3, 3)
    assert gen_nsum(3, 3) == (1, 1, 1)


def test_nsum_properties():
    rng = np.random.default_rng(11)
    for _ in range(50):
        k = int(rng.integers(1, 12))
        target = int(rng.integers(k, 5000))
        out = gen_nsum(target, k)
        assert sum(out) == target
        assert max(out) - min(out) <= 1


def test_nsum_infeasible():
    with pytest.raises(ParameterError, match="cannot split 2 into 3 positive parts"):
        gen_nsum(2, 3)


# ---------------------------------------------------------------------------
# Dataset transforms


def test_normalize_affine_rescale():
    ds = normalize_data(Dataset([[0.0], [5.0], [10.0]]))
    assert np.array_equal(ds.points.ravel(), [0.0, 0.5, 1.0])


def test_normalize_constant_column():
    ds = normalize_data(Dataset([[7.0], [7.0], [7.0]]))
    assert np.array_equal(ds.points.ravel(), [0.0, 0.0, 0.0])


def test_normalize_column_ranges_and_idempotence():
    pts = np.random.default_rng(3).normal(5, 2, (200, 4))
    once = normalize_data(Dataset(pts))
    assert np.allclose(once.points.min(axis=0), 0.0)
    assert np.allclose(once.points.max(axis=0), 1.0)
    twice = normalize_data(once)
    assert np.array_equal(once.points, twice.points)


def test_normalize_empty_errors():
    with pytest.raises(ParameterError):
        normalize_data(Dataset(np.empty((0, 3))))


def test_randomize_rows_single_row_identity():
    ds = Dataset([[1.0, 2.0]], labels=["a"])
    out = randomize_rows(ds, seed=5)
    assert np.array_equal(out.points, ds.points)
    assert out.labels.tolist() == ["a"]


def test_randomize_rows_is_permutation():
    pts = np.random.default_rng(1).normal(size=(100, 3))
    out = randomize_rows(Dataset(pts), seed=9)
    assert np.array_equal(np.sort(out.points, axis=0), np.sort(pts, axis=0))
    again = randomize_rows(Dataset(pts), seed=9)
    assert np.array_equal(out.points, again.points)


def test_randomize_rows_labels_travel():
    pts = np.arange(20, dtype=float).reshape(10, 2)
    labels = [f"r{i}" for i in range(10)]
    out = randomize_rows(Dataset(pts, labels), seed=2)
    for row, lab in zip(out.points, out.labels):
        assert lab == f"r{int(row[0]) // 2}"


def test_relocate_identity():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(60, 3))
    labels = ["a"] * 30 + ["b"] * 30
    cents = np.vstack([pts[:30].mean(axis=0), pts[30:].mean(axis=0)])
    out = relocate_clusters(Dataset(pts, labels), cents)
    assert np.abs(out.points - pts).max() < 1e-12


def test_relocate_single_cluster_to_origin():
    pts = np.random.default_rng(5).normal(3.0, 1.0, (40, 2))
    out = relocate_clusters(Dataset(pts, ["c"] * 40), np.zeros((1, 2)))
    assert np.abs(out.points.mean(axis=0)).max() < 1e-12


def test_relocate_separates_clusters():
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(80, 2))
    labels = ["a"] * 40 + ["b"] * 40
    out = relocate_clusters(Dataset(pts, labels), np.array([[0.0, 0.0], [100.0, 0.0]]))
    a = out.points[np.asarray(out.labels) == "a"]
    b = out.points[np.asarray(out.labels) == "b"]
    dists = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    assert dists.min() > 50


@pytest.mark.parametrize("build", ["labels", "codes"])
def test_relocate_pairs_loc_rows_with_sorted_label_names(build):
    # The names sort as "10" < "11" < "9", unlike the numbers and the codes.
    pts = np.random.default_rng(7).normal(size=(30, 2))
    if build == "labels":
        ds = Dataset(pts, [9] * 10 + [10] * 10 + [11] * 10)
    else:
        ds = Dataset(pts, np.repeat([0, 1, 2], 10), ("9", "10", "11"))
    loc = np.array([[100.0, 0.0], [0.0, 0.0], [-100.0, 0.0]])  # "10", "11", "9"
    out = relocate_clusters(ds, loc)
    for name, target in zip(("10", "11", "9"), loc):
        assert np.abs(out.points[out.labels == name].mean(axis=0) - target).max() < 1e-9
    # A category no row uses after take gets no loc row.
    out = relocate_clusters(ds.take(np.arange(10, 30)), loc[:2])
    assert np.abs(out.points[out.labels == "11"].mean(axis=0) - loc[1]).max() < 1e-9


def test_relocate_shape_mismatch():
    ds = Dataset(np.zeros((4, 2)), labels=["a", "a", "b", "b"])
    with pytest.raises(ParameterError):
        relocate_clusters(ds, np.zeros((3, 2)))
    with pytest.raises(ParameterError):
        relocate_clusters(Dataset(np.zeros((4, 2))), np.zeros((1, 2)))


def test_bkgnoise_moments():
    ds = gen_bkgnoise(10000, 3, 0.0, 1.0, seed=8)
    assert np.abs(ds.points.mean(axis=0)).max() < 0.05
    assert np.abs(ds.points.std(axis=0, ddof=1) - 1.0).max() < 0.05


def test_bkgnoise_single_row_and_sd_ratio():
    one = gen_bkgnoise(1, 3, 0.0, 1.0, seed=1)
    assert one.points.shape == (1, 3)
    ds = gen_bkgnoise(10000, 2, 0.0, (1.0, 2.0), seed=2)
    sd = ds.points.std(axis=0, ddof=1)
    assert abs(sd[1] / sd[0] - 2.0) < 0.2


def test_bkgnoise_validation():
    with pytest.raises(ParameterError):
        gen_bkgnoise(10, 2, 0.0, (1.0, 0.0), seed=1)
    with pytest.raises(ParameterError):
        gen_bkgnoise(0, 2, seed=1)


@pytest.mark.parametrize("m, s, message", [
    ([1, 2], 1.0, "m must be a number or a vector of length 3"),
    (0.0, [1, 2, 3, 4], "s must be a number or a vector of length 3"),
    ([[0.0, 0.0, 0.0]], 1.0, "m must be a number or a vector of length 3"),
    ("x", 1.0, "m must be a number or a vector"),
    (0.0, True, "s must be a number or a vector"),
])
def test_bkgnoise_names_a_malformed_mean_or_sd(m, s, message):
    with pytest.raises(ParameterError, match=message):
        gen_bkgnoise(5, 3, m=m, s=s, seed=1)


@pytest.mark.parametrize("name", ["n", "p"])
def test_bkgnoise_counts_must_be_integral(name):
    args = {"n": 10, "p": 3}
    with pytest.raises(ParameterError, match=f"{name} must be a positive integer, got 2.5"):
        gen_bkgnoise(**{**args, name: 2.5}, seed=1)
    ref = gen_bkgnoise(**{**args, name: 3}, seed=1).points.tobytes()
    assert gen_bkgnoise(**{**args, name: 3.0}, seed=1).points.tobytes() == ref


# ---------------------------------------------------------------------------
# Row reductions in blocks: the same bits as numpy's whole-array calls

_B = core._BLOCK_ROWS
_SCALES = pytest.mark.parametrize("scale", [2.0**-30, 1.0, 2.0**30], ids=["2^-30", "1", "2^30"])


def _reduction_input(n, p, scale):
    """n x p values at `scale` around column offsets of a few `scale`s, with
    scattered +0.0 and -0.0 entries."""
    rng = np.random.default_rng([n, p])
    x = scale * (rng.standard_normal((n, p)) + rng.integers(-3, 4, p))
    x[rng.random((n, p)) < 0.02] = -0.0
    x[rng.random((n, p)) < 0.02] = 0.0
    return x


@_SCALES
@pytest.mark.parametrize("p", [1, 2, 3, 7, 8, 9, 10, 16, 17, 129])
def test_row_norms_match_numpy_bit_for_bit(p, scale):
    """numpy's pairwise row sum unrolls by 8 and recurses past 128 columns.
    n is 1 and either side of each block boundary; one row equals the
    center and one is all -0.0. A Fortran-order input, whose rows numpy
    sums in order, gives numpy's bits too."""
    for n in (1, 2, _B - 1, _B, _B + 1, 2 * _B - 1, 2 * _B, 2 * _B + 1):
        x = _reduction_input(n, p, scale)
        x[-1] = -0.0
        center = x[n // 2].copy()
        for data in (x, np.asfortranarray(x)):
            got = core._row_norms(data, center)
            assert got.tobytes() == np.linalg.norm(data - center, axis=1).tobytes(), (n, data.flags.f_contiguous)
            assert got[n // 2] == 0.0
            got = core._row_norms(data)
            assert got.tobytes() == np.linalg.norm(data, axis=1).tobytes(), (n, data.flags.f_contiguous)


@_SCALES
@pytest.mark.parametrize("p", [1, 2, 3, 20])
def test_column_mean_sd_match_numpy_bit_for_bit(p, scale):
    """The sums run across 1, 2 and 3 blocks, with n either side of each
    boundary; a column of -0.0 checks where the sums start."""
    for n in (2, _B - 1, _B, _B + 1, 2 * _B - 1, 2 * _B, 2 * _B + 1, 3 * _B - 1, 3 * _B, 3 * _B + 1):
        x = _reduction_input(n, p, scale)
        if p > 1:
            x[:, -1] = -0.0
        mean, sd = core._column_mean_sd(x)
        assert mean.tobytes() == x.mean(axis=0).tobytes(), n
        assert sd.tobytes() == x.std(axis=0, ddof=1).tobytes(), n


# ---------------------------------------------------------------------------
# Products in row blocks: the bits of the single-threaded one-call product

_BLOCKED_PRODUCTS = """
import numpy as np
from hdshapes import core

rng = np.random.default_rng(5)
bad = []
for w in (2, 3, 5, 10, 20, 33, 45):
    m = np.ascontiguousarray(np.linalg.qr(rng.standard_normal((w, w)))[0])
    rows = max(0, (core._BLAS_ONE_THREAD // (w * w) - core._BLAS_SMALL // w) // 256 * 256)
    small = core._BLAS_SMALL // w
    counts = {j * rows + t for j in (0, 1, 2) for t in (1, 2, 3, small, small + 1, small + 2, 255)}
    for n in sorted(counts | {40001}):
        x = rng.standard_normal((n, w))
        want = (x @ m.T).tobytes()
        if core._matmul_t(x, m).tobytes() != want:
            bad.append((w, n))
        core._matmul_t(x, m, out=x)
        if x.tobytes() != want:
            bad.append((w, n, "in place"))
print(bad)
"""


@pytest.mark.parametrize(
    "coretype", openblas_kernels_runnable("Haswell", "Zen", "Sandybridge", "SkylakeX", "Cooperlake", "SapphireRapids")
)
def test_blocked_product_matches_the_one_call_product_bit_for_bit(coretype):
    """Each block starts at a multiple of 256 rows and the last is never a
    small one (one row goes to gemv, a few rows at k >= 32 to the AVX-512
    kernels' small-matrix path), so every row has the bits it has in one
    call. Rotation widths from 2 to 45 (one call from 44 up), odd and even
    counts either side of each block edge and of the small-block limit, and
    a product into its own input."""
    out = run_python(_BLOCKED_PRODUCTS, OPENBLAS_CORETYPE=coretype, OPENBLAS_NUM_THREADS="1")
    assert out.strip() == "[]"
