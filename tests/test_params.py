"""One parameter check at every entry point.

A value of the wrong kind, a count that is not a positive integer or a
NaN is refused the same way wherever it comes in: a library call, a
MultiClusterSpec's extras, a preset, a CLI flag, a multicluster config or
a replayed manifest. The library raises a ParameterError naming the
parameter; the CLI exits 2, names it and writes no data file.
"""

import itertools
import json
import os
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hdshapes
from hdshapes import (
    HOLES,
    PRESETS,
    SHAPES,
    Dataset,
    DimensionError,
    LatticeSizeWarning,
    MultiClusterSpec,
    ParameterError,
    gen_multicluster,
    generate,
    make_preset,
)
from hdshapes.cli import _build, main
from hdshapes.composer import apply_transform
from hdshapes.core import RotationPlan, _check_n, relocate_clusters
from hdshapes.noise import gen_wavydims1, gen_wavydims2, gen_wavydims3
from hdshapes.shapes import gen_clusteredspheres, gen_cubic, gen_nonlinear, gen_pyrrect, gen_quadratic, gen_swissroll
from hdshapes.topology import gen_hole, gen_scurvehole, gen_unifcubehole

NAN = float("nan")
INF = float("inf")
WIDE = 10**400  # an integer of 401 digits, beyond the largest double
MAX_COUNT = np.iinfo(np.intp).max  # the largest count an array axis can hold

BAD = {"string": "x", "bool": True, "list": [1, 2], "fraction": 2.5, "zero": 0, "negative": -1, "nan": NAN}
COUNTS = {"n", "k", "p"}  # every other parameter used below is a float


def _scene(extras):
    spec = MultiClusterSpec(
        n=(20, 20), k=2, loc=[[0, 0, 0, 0], [5, 5, 5, 5]], scale=(1, 1),
        shape=("cone", "gaussian"), extras=extras,
    )
    return gen_multicluster(spec, seed=1)


def _library_build(entry, target, param, value):
    if entry == "generate":
        return generate(target, 10, seed=1, **{param: value})
    if entry == "direct":
        return getattr(hdshapes, f"gen_{target}")(10, seed=1, **{param: value})
    if entry == "make_preset":
        return make_preset(target, seed=1, **{param: value})
    return _scene({param: value} if entry == "spec_dict_extras" else ({param: value}, {}))


def _token(value) -> str:
    return value if isinstance(value, str) else json.dumps(value)


def _argv(entry, target, param, value, tmp_path) -> list[str]:
    """The command line that gives `param` the value `value`."""
    if entry == "cli_preset":
        return ["preset", target, f"--{param}", _token(value), "--seed", "1"]
    if entry == "cli_multicluster":
        config = tmp_path / "scene.json"
        config.write_text(json.dumps({
            "n": [20, 20], "k": 2, "loc": [[0, 0, 0, 0], [5, 5, 5, 5]], "scale": [1, 1],
            "shape": ["cone", "gaussian"], "extras": {param: value},
        }))
        return ["multicluster", str(config), "--seed", "1"]
    # cli_replay: a run's manifest with one parameter edited
    command = ["preset", target] if target in PRESETS else ["generate", target, "--n", "10"]
    assert main([*command, "--seed", "1", "--out", str(tmp_path / "first.csv")]) == 0
    manifest = json.loads((tmp_path / "first.csv.manifest.json").read_text())
    manifest["spec"]["params"][param] = value
    edited = tmp_path / "edited.manifest.json"
    edited.write_text(json.dumps(manifest))
    return ["generate", "--from-manifest", str(edited)]


def _refusal(entry, target, param, value, tmp_path, capsys) -> str:
    """The error text of a refused build; fails if the build is not refused."""
    if not entry.startswith("cli_"):
        with pytest.raises(ParameterError) as exc:
            _library_build(entry, target, param, value)
        return str(exc.value)
    out = tmp_path / "out.csv"
    argv = [*_argv(entry, target, param, value, tmp_path), "--out", str(out)]
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses a flag value it cannot parse
        code = exc.code
    assert code == 2
    assert not out.exists()
    return capsys.readouterr().err


# (entry point, target, the parameters it is given)
ENTRIES = [
    ("generate", "cone", ("p", "h")),
    ("direct", "cone", ("p", "h")),
    ("make_preset", "gaucircles", ("n", "k", "p")),
    ("spec_dict_extras", None, ("p", "h")),
    ("spec_list_extras", None, ("p", "h")),
    ("cli_multicluster", None, ("p", "h")),
    ("cli_preset", "gaucircles", ("n", "k", "p")),
    ("cli_replay", "cone", ("p", "h")),
    ("cli_replay", "multigau", ("n", "k", "p")),
]

CASES = [
    pytest.param(entry, target, param, value, id=f"{entry}-{target}-{param}-{label}")
    for entry, target, params in ENTRIES
    for param in params
    for label, value in BAD.items()
    if param in COUNTS or label != "fraction"  # 2.5 is a fine float
] + [
    # Each case reproduced before one check served every entry point.
    pytest.param("cli_preset", "curvygau", "p", 0, id="cli_preset-curvygau-p-zero"),
    pytest.param("cli_preset", "klink_circles", "k", -1, id="cli_preset-klink_circles-k-negative"),
    pytest.param("cli_preset", "shape_para", "p", -1, id="cli_preset-shape_para-p-negative"),
    pytest.param("make_preset", "onegrid", "k", None, id="make_preset-onegrid-k-none"),
    pytest.param("make_preset", "gaucircles", "k", None, id="make_preset-gaucircles-k-none"),
    pytest.param("cli_multicluster", None, "h", True, id="cli_multicluster-h-true"),
]


@pytest.mark.parametrize("entry, target, param, value", CASES)
def test_every_entry_point_refuses_a_bad_value_and_names_it(entry, target, param, value, tmp_path, capsys):
    err = _refusal(entry, target, param, value, tmp_path, capsys)
    assert re.search(rf"(^|[\s-]){param}\b", err), err


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_a_preset_count_error_names_n(name, tmp_path, capsys):
    err = _refusal("cli_preset", name, "n", 0, tmp_path, capsys)
    assert "n must be a positive integer, got 0" in err and "target" not in err


# gaussian's covariance `s` is a matrix of numbers; strings and bools were
# converted to floats.
COVARIANCES = {
    "string": [["1" if i == j else "0" for j in range(4)] for i in range(4)],
    "bool": np.eye(4, dtype=bool).tolist(),
}


@pytest.mark.parametrize("entry", ["generate", "direct", "spec_dict_extras", "cli_multicluster"])
@pytest.mark.parametrize("value", COVARIANCES.values(), ids=COVARIANCES)
def test_a_covariance_of_strings_or_bools_is_refused(entry, value, tmp_path, capsys):
    err = _refusal(entry, "gaussian", "s", value, tmp_path, capsys)
    assert "s must be numeric, got [[" in err, err


# ---------------------------------------------------------------------------
# A direct call and a call by name take the one check: same error, same text

TARGETS = (
    [("shape", name) for name in SHAPES]
    + [("hole", name) for name in HOLES]
    + [("preset", name) for name in PRESETS]
)
REGISTRIES = {"shape": SHAPES, "hole": HOLES, "preset": PRESETS}

# For each registry: the call by name (for holed shapes, the CLI's build of
# a spec) and the direct call of the registered function.
BY_NAME = {
    "shape": lambda name, params: generate(name, seed=1, **params),
    "hole": lambda name, params: _build("hole", {"kind": name, "params": params}, 1),
    "preset": lambda name, params: make_preset(name, seed=1, **params),
}
DIRECT = {
    "shape": lambda name, params: getattr(hdshapes, f"gen_{name}")(seed=1, **params),
    "hole": lambda name, params: getattr(hdshapes, f"gen_{name}hole")(seed=1, **params),
    "preset": lambda name, params: getattr(hdshapes.composer, f"_preset_{name}")(**params),
}


def test_every_kind_is_a_class_or_none():
    # Kinds come from the signature's annotations as they are: a registering
    # module that deferred its annotations would hand them over as strings.
    for what, name in TARGETS:
        for param, (kind, _) in REGISTRIES[what][name].kinds.items():
            assert kind is None or isinstance(kind, type), f"{what} '{name}': {param} is {kind!r}"


def _wrong_kinds():
    values = {"string": "x", "bool": True, "fraction": 2.5, "none": None, "inf": INF}
    for what, name in TARGETS:
        info = REGISTRIES[what][name]
        case = name if what == "shape" else f"{what}-{name}"
        for param, (ptype, _) in info.kinds.items():
            for label, value in values.items():
                if (label == "fraction" and ptype is not int or label == "bool" and ptype is bool
                        or label == "none" and info.defaults.get(param, 0) is None):
                    continue
                yield pytest.param(what, name, {param: value}, id=f"{case}-{param}-{label}")
        if info.dim is not None and "p" in info.kinds:
            yield pytest.param(what, name, {"p": info.dim + 1}, id=f"{case}-p-not-its-dim")
        yield pytest.param(what, name, {"foo": 1}, id=f"{case}-unknown-keyword")


@pytest.mark.parametrize("what, name, params", list(_wrong_kinds()))
def test_a_direct_call_refuses_a_wrong_kind_as_generate_does(what, name, params):
    params = {"n": 20, **params}
    with pytest.raises(ParameterError) as registry:
        BY_NAME[what](name, params)
    with pytest.raises(ParameterError) as direct:
        DIRECT[what](name, params)
    assert type(direct.value) is type(registry.value)
    assert str(direct.value) == str(registry.value)


# ---------------------------------------------------------------------------
# A target's smallest p, stated in its registration, holds at every entry
# point and is checked before anything is sampled

MINIMUMS = [
    pytest.param(what, name, id=f"{what}-{name}") for what, name in TARGETS if REGISTRIES[what][name].min_p > 1
]
CLI_P = {
    "shape": lambda name, p: ["generate", name, "--n", "20", "--p", str(p)],
    "hole": lambda name, p: ["hole", name, "--n", "20", "--p", str(p)],
    "preset": lambda name, p: ["preset", name, "--p", str(p)],
}


def test_every_default_p_is_at_least_its_minimum():
    assert len(MINIMUMS) == 15
    for what, name in TARGETS:
        info = REGISTRIES[what][name]
        assert info.defaults.get("p", info.min_p) >= info.min_p, info.what


def _scene_of(name, p):
    return MultiClusterSpec(
        n=(20, 20, 20), k=3, loc=np.zeros((3, p)), scale=(1, 1, 1), shape=("gaussian", "unifcube", name),
    )


@pytest.mark.parametrize("what, name", MINIMUMS)
def test_p_below_the_minimum_is_refused_everywhere_before_sampling(what, name, tmp_path, capsys, monkeypatch):
    from hdshapes import composer

    info = REGISTRIES[what][name]
    low = info.min_p - 1
    refusal = re.escape(f"{info.what} needs p >= {info.min_p}, got p = {low}")
    calls = []
    sample = composer.generate
    monkeypatch.setattr(composer, "generate", lambda *a, **kw: calls.append(a) or sample(*a, **kw))
    for build in (BY_NAME[what], DIRECT[what]):
        with pytest.raises(DimensionError, match=refusal):
            build(name, {"n": 20, "p": low})
    capsys.readouterr()
    assert main([*CLI_P[what](name, low), "--seed", "1", "--out", str(tmp_path / "low.csv")]) == 2
    assert re.search(refusal, capsys.readouterr().err)
    assert os.listdir(tmp_path) == []
    if what == "shape":
        with pytest.raises(DimensionError, match=refusal):
            gen_multicluster(_scene_of(name, low), seed=1)
    assert calls == []

    # At the minimum, every entry point builds.
    for build in (BY_NAME[what], DIRECT[what]):
        build(name, {"n": 20, "p": info.min_p})
    assert main([*CLI_P[what](name, info.min_p), "--seed", "1", "--out", str(tmp_path / "ok.csv")]) == 0
    if what == "shape":
        assert gen_multicluster(_scene_of(name, info.min_p), seed=1).p == info.min_p


# ---------------------------------------------------------------------------
# No accepted parameter is ignored, alone or beside another

N = 30  # the n of a target whose n has no default
SPD = np.eye(4) + 0.5  # gaussian's covariance s at its default p = 4


def _away(info, param):
    """A value of `param` other than its default (for a required n, other than N)."""
    kind, nargs = info.kinds[param]
    value = info.defaults.get(param, N)
    if kind is None:
        return SPD
    if value is None:
        return N if nargs is None else (N,) * nargs
    if kind is bool:
        return not value
    step = (N if param == "n" else 1) if kind is int else 0.25
    return value + step if nargs is None else tuple(v + step for v in value)


def _output(what, name, params):
    """The bytes and labels a build gives, or None if it is refused."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LatticeSizeWarning)
            ds = BY_NAME[what](name, params)
    except ParameterError:
        return None
    return ds.points.tobytes(), None if ds.codes is None else ds.codes.tobytes(), ds.categories


@pytest.mark.parametrize("what, name", [pytest.param(*target, id="-".join(target)) for target in TARGETS])
def test_no_parameter_is_inert_alone_or_beside_another(what, name):
    info = REGISTRIES[what][name]
    base = {"n": info.defaults.get("n", N)}
    away = {param: _away(info, param) for param in info.kinds}
    alone = {param: _output(what, name, {**base, param: value}) for param, value in away.items()}
    inert = [param for param, out in alone.items() if out is not None and out == _output(what, name, base)]
    for first, second in itertools.permutations(away, 2):
        both = _output(what, name, {**base, first: away[first], second: away[second]})
        if both is not None and both == alone[first]:
            inert.append(f"{second} beside {first}")
    assert inert == [], f"{info.what} ignores {', '.join(inert)}"


# ---------------------------------------------------------------------------
# Property: any drawn parameters build a Dataset or raise ParameterError

EDGES = st.sampled_from([0, NAN, float("inf"), float("-inf"), "x", True, False, None, (), (1.0,), (1, 2, 3)])
# The widest finite doubles, whose spans overflow, and the smallest subnormal.
FLOATS = st.sampled_from([sys.float_info.max, -sys.float_info.max, 5e-324]) | st.floats(-3, 3)


def _values(kind, nargs):
    if nargs is not None:
        elem = st.integers(-1, 6) if kind is int else FLOATS
        return st.tuples(*[elem] * nargs) | st.lists(elem, max_size=3) | EDGES
    own = {int: st.integers(-1, 6), float: FLOATS, bool: st.booleans()}[kind]
    return own | EDGES


@st.composite
def _draws(draw):
    what, name = draw(st.sampled_from(TARGETS))
    info = REGISTRIES[what][name]
    params = {"n": draw(st.integers(-1, 6) | EDGES)}
    for param, (kind, nargs) in info.kinds.items():
        if param != "n" and kind is not None and draw(st.booleans()):  # no strategy for gaussian's matrix `s`
            params[param] = draw(_values(kind, nargs))
    return what, name, params


@settings(derandomize=True, max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_draws())
def test_any_parameters_give_a_dataset_or_a_parameter_error(draw):
    what, name, params = draw
    try:
        if what == "shape":
            ds = generate(name, seed=1, **params)
        elif what == "preset":
            ds = make_preset(name, seed=1, **params)
        else:
            ds = _build("hole", {"kind": name, "params": params}, 1)
    except ParameterError:
        return
    assert isinstance(ds, Dataset)
    if what != "preset":
        info = REGISTRIES[what][name]
        assert ds.p == (info.dim or params.get("p", info.defaults.get("p")))


# ---------------------------------------------------------------------------
# Multicluster configs: a field of the wrong kind is refused, not converted

CONFIG = {
    "n": [20, 20], "k": 2, "loc": [[0, 0, 0, 0], [5, 5, 5, 5]], "scale": [1, 1],
    "shape": ["cone", "gaussian"],
}


def _plan(**change):
    return {"rotation": [None, {"dim": 4, "steps": [[1, 2, 0.5]], **change}]}


# Each was read as something else (a bool as a count or scale, "no" as
# true) or ended in a traceback instead of a ParameterError.
BAD_CONFIGS = {
    "is_bkg-string": ("is_bkg", {"is_bkg": "no"}),
    "n-bool": ("n", {"n": [True, 20]}),
    "scale-bool": ("scale", {"scale": [True, 1]}),
    "loc-string": ("loc", {"loc": [["a", 0, 0, 0], [5, 5, 5, 5]]}),
    # Built and sampled, then refused unnamed as "points must be finite".
    "loc-infinite": ("loc", {"loc": [[float("inf"), 0, 0, 0], [5, 5, 5, 5]]}),
    "loc-minus-infinite": ("loc", {"loc": [[0, 0, 0, 0], [5, 5, float("-inf"), 5]]}),
    "rotation-number": ("rotation", {"rotation": 5}),
    "rotation-string-entry": ("rotation", {"rotation": [None, "eye"]}),
    "rotation-string-dim": ("rotation", _plan(dim="4")),
    "rotation-bool-axis": ("rotation", _plan(steps=[[True, 2, 0.5]])),
    "rotation-string-axis": ("rotation", _plan(steps=[[1, "x", 0.5]])),
    "rotation-number-steps": ("rotation", _plan(steps=5)),
    "extras-number-entry": ("extras", {"extras": [1, {}]}),
}


@pytest.mark.parametrize("field, change", BAD_CONFIGS.values(), ids=BAD_CONFIGS)
def test_a_malformed_config_is_refused_and_names_its_field(field, change, tmp_path, capsys):
    cfg = {**CONFIG, **change}
    named = rf"(^|[\s-]){field}\b"
    with pytest.raises(ParameterError, match=named):
        MultiClusterSpec.from_dict(cfg)
    config, out = tmp_path / "scene.json", tmp_path / "out.csv"
    config.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["multicluster", str(config), "--seed", "1", "--out", str(out)]) == 2
    assert not out.exists()
    assert re.search(named, capsys.readouterr().err, re.M)


def _ds():
    return Dataset([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]], ["a", "a", "b"])


def _base():
    return Dataset([[0.0, 1.0, 2.0]] * 3)


# Each ended in a TypeError or numpy's plain ValueError, or read a bool as
# 0 or 1, instead of raising a ParameterError that names the parameter.
UNCHECKED_KINDS = {
    "apply_transform-scale-string": ("scale", lambda: apply_transform(_ds(), "x")),
    "apply_transform-scale-bool": ("scale", lambda: apply_transform(_ds(), True)),
    "apply_transform-center-string": ("center", lambda: apply_transform(_ds(), 1.0, center="ab")),
    "apply_transform-center-bool": ("center", lambda: apply_transform(_ds(), 1.0, center=[True, 0.0])),
    "wavydims1-sigma": ("sigma", lambda: gen_wavydims1(3, 2, [0.0, 1.0, 2.0], sigma="x", seed=1)),
    "wavydims1-sigma-bool": ("sigma", lambda: gen_wavydims1(3, 2, [0.0, 1.0, 2.0], sigma=True, seed=1)),
    "wavydims2-noise": ("noise", lambda: gen_wavydims2(3, 2, [0.0, 1.0, 2.0], noise="x", seed=1)),
    "wavydims2-powers-fraction": ("powers", lambda: gen_wavydims2(3, 3, [0.0, 1.0, 2.0], powers=[2.9, 3.5, 4.2])),
    "wavydims2-powers-string": ("powers", lambda: gen_wavydims2(3, 3, [0.0, 1.0, 2.0], powers=["2", "3", "4"])),
    "wavydims2-scales-bool": ("scales", lambda: gen_wavydims2(3, 2, [0.0, 1.0, 2.0], scales=[True, 1.0])),
    "wavydims2-x1-string": ("x1", lambda: gen_wavydims2(3, 2, ["0", "1", "2"], seed=1)),
    "wavydims1-theta-string": ("theta", lambda: gen_wavydims1(3, 2, ["0", "1", "2"], seed=1)),
    "wavydims3-perturb": ("perturb", lambda: gen_wavydims3(3, 4, _base(), perturb="x", seed=1)),
    "wavydims3-noise": ("noise", lambda: gen_wavydims3(3, 4, _base(), noise=True, seed=1)),
    "relocate-loc-bool": ("loc", lambda: relocate_clusters(_ds(), [[True, 0.0], [1.0, 1.0]])),
    "relocate-loc-string": ("loc", lambda: relocate_clusters(_ds(), [["a", 0.0], [1.0, 1.0]])),
    # NaN noise was silently dropped; an infinite number ended in an
    # OverflowError or in the unnamed "points must be finite".
    "wavydims2-noise-nan": ("noise", lambda: gen_wavydims2(3, 2, [0.0, 1.0, 2.0], noise=NAN, seed=1)),
    "wavydims3-noise-nan": ("noise", lambda: gen_wavydims3(3, 4, _base(), noise=NAN, seed=1)),
    "wavydims2-noise-inf": ("noise", lambda: gen_wavydims2(3, 2, [0.0, 1.0, 2.0], noise=INF, seed=1)),
    "wavydims3-perturb-inf": ("perturb", lambda: gen_wavydims3(3, 4, _base(), perturb=INF, seed=1)),
    "wavydims1-sigma-inf": ("sigma", lambda: gen_wavydims1(3, 2, [0.0, 1.0, 2.0], sigma=INF, seed=1)),
    "apply_transform-scale-inf": ("scale", lambda: apply_transform(_ds(), INF)),
    # A non-finite vector entry was refused unnamed, kept every row
    # (gen_hole's anchor at inf) or removed every one (at NaN).
    "hole-anchor-nan": ("anchor", lambda: gen_hole(_base(), 0.3, anchor=[NAN, 0.0, 0.0])),
    "hole-anchor-inf": ("anchor", lambda: gen_hole(_base(), 0.3, anchor=[INF, 0.0, 0.0])),
    "wavydims2-scales-nan": ("scales", lambda: gen_wavydims2(3, 2, [0.0, 1.0, 2.0], scales=[NAN, 1.0], noise=0)),
    "wavydims2-x1-inf": ("x1", lambda: gen_wavydims2(3, 2, [0.0, INF, 2.0], seed=1)),
    "wavydims1-theta-nan": ("theta", lambda: gen_wavydims1(3, 2, [0.0, NAN, 2.0], seed=1)),
    "apply_transform-center-nan": ("center", lambda: apply_transform(_ds(), 1.0, center=[NAN, 0.0])),
    "relocate-loc-inf": ("loc", lambda: relocate_clusters(_ds(), [[INF, 0.0], [1.0, 1.0]])),
}


@pytest.mark.parametrize("param, call", UNCHECKED_KINDS.values(), ids=UNCHECKED_KINDS)
def test_a_wrong_kind_is_refused_and_named_by_the_transforms_and_noise(param, call):
    with pytest.raises(ParameterError, match=rf"^{param} must be"):
        call()


NON_FINITE = {case: entry for case, entry in UNCHECKED_KINDS.items() if case.endswith(("-nan", "-inf"))}


@pytest.mark.parametrize("param, call", NON_FINITE.values(), ids=NON_FINITE)
def test_a_non_finite_value_is_refused_as_such(param, call):
    with pytest.raises(ParameterError, match=rf"^{param} must be finite, got "):
        call()


def test_a_non_finite_number_keeps_its_text_apart_from_a_wrong_kind():
    with pytest.raises(ParameterError, match=r"^noise must be finite, got nan$"):
        gen_wavydims2(3, 2, [0.0, 1.0, 2.0], noise=NAN, seed=1)
    with pytest.raises(ParameterError, match=r"^noise must be a number, got 'nan'$"):
        gen_wavydims2(3, 2, [0.0, 1.0, 2.0], noise="nan", seed=1)


def test_the_transforms_and_noise_keep_numbers_of_every_numeric_kind():
    ds = _ds()
    assert apply_transform(ds, 2).points.tolist() == apply_transform(ds, 2.0).points.tolist()
    assert apply_transform(ds, np.float32(0.5), center=np.array([1, 2])).p == 2
    assert gen_wavydims1(3, 2, [0.0, 1.0, 2.0], sigma=np.float64(0.1), seed=1).n == 3
    assert gen_wavydims2(3, 2, [0.0, 1.0, 2.0], noise=0, seed=1).n == 3
    assert gen_wavydims3(3, 4, _base(), perturb=0, noise=np.int64(1), seed=1).p == 4
    assert relocate_clusters(ds, np.array([[0, 0], [1, 1]])).n == 3


# Each domain check with the message it gives, so a refusal cannot turn into
# a numpy error or a silent result unnoticed.
DOMAIN_REFUSALS = {
    "scurvehole-r_hole-0": (
        lambda: gen_scurvehole(50, r_hole=0.0, seed=1), "hole radius r_hole must be positive, got 0.0"),
    "unifcubehole-r_hole-negative": (
        lambda: gen_unifcubehole(50, r_hole=-0.5, seed=1), "hole radius r_hole must be positive, got -0.5"),
    "apply_transform-scale-0": (lambda: apply_transform(_ds(), 0.0), "scale must be positive"),
    "apply_transform-rotation-size": (
        lambda: apply_transform(_ds(), 1.0, rotation=np.eye(3)), "rotation is 3-dimensional, dataset has 2"),
    "apply_transform-center-length": (
        lambda: apply_transform(_ds(), 1.0, center=[0.0, 0.0, 0.0]), "center has length 3, dataset has 2"),
    "wavydims1-sigma-0": (lambda: gen_wavydims1(3, 2, [0.0, 1.0, 2.0], sigma=0, seed=1), "sigma must be positive"),
    "wavydims2-noise-negative": (
        lambda: gen_wavydims2(3, 2, [0.0, 1.0, 2.0], noise=-0.1, seed=1), "noise amplitude must be non-negative"),
    "wavydims2-powers-length": (
        lambda: gen_wavydims2(3, 2, [0.0, 1.0, 2.0], powers=[2, 3, 4], seed=1),
        "powers and scales must have length p"),
    "wavydims3-p-below-3": (
        lambda: gen_wavydims3(3, 2, _base(), seed=1), "p must be at least 3 (the perturbed base columns)"),
    "wavydims3-perturb-negative": (
        lambda: gen_wavydims3(3, 4, _base(), perturb=-0.1, seed=1),
        "perturb and noise amplitudes must be non-negative"),
    "pyrrect-l_vec-0": (lambda: gen_pyrrect(10, l_vec=(1.0, 0.0), seed=1), "h and base half-widths must be positive"),
    "clusteredspheres-radius-negative": (
        lambda: gen_clusteredspheres(40, r_vec=(10.0, -1.0), seed=1), "radii must be positive"),
    "clusteredspheres-spe-0": (lambda: gen_clusteredspheres(40, spe=0, seed=1), "spe must be positive"),
    "clusteredspheres-n-too-small": (
        lambda: gen_clusteredspheres(3, k_small=3, seed=1),
        "sphere sizes must be positive (n too small for k_small)"),
    "nonlinear-non_fac-negative": (lambda: gen_nonlinear(10, non_fac=-1.0, seed=1), "non_fac must be non-negative"),
    "take-2d-indices": (lambda: _ds().take(np.zeros((2, 2), dtype=int)), "row indices must be 1-D, got ndim=2"),
    "rotation-angle-inf": (lambda: RotationPlan(3, [(1, 2, INF)]), "rotation angle must be finite"),
    "relocate-loc-1d": (lambda: relocate_clusters(_ds(), [0.0, 1.0]), "loc must be a k x p matrix"),
    "relocate-loc-columns": (
        lambda: relocate_clusters(_ds(), [[0.0, 1.0, 2.0], [1.0, 1.0, 1.0]]), "loc has 3 columns but dataset has 2"),
    "multigau-k-above-p+1": (
        lambda: make_preset("multigau", k=6, p=4, seed=1),
        "multigau places clusters on simplex vertices; needs k <= p + 1"),
    # A span wider than the largest double ended in numpy's OverflowError.
    "quadratic-range-span": (
        lambda: gen_quadratic(20, range=(-1e308, 1e308), seed=1),
        "range gives a span wider than the largest double, got (-1e+308, 1e+308)"),
    "cubic-range-span": (
        lambda: gen_cubic(20, range=(-1e308, 1e308), seed=1),
        "range gives a span wider than the largest double, got (-1e+308, 1e+308)"),
    "swissroll-w-span": (
        lambda: gen_swissroll(20, w=(-1e308, 1e308), seed=1),
        "w gives a span wider than the largest double, got (-1e+308, 1e+308)"),
    "pyrrect-l_vec-span": (
        lambda: gen_pyrrect(20, l_vec=(1e308, 1e308), seed=1),
        "l_vec gives a span wider than the largest double, got (1e+308, 1e+308)"),
    "pyrrect-l_vec-span-at-height-h": (
        lambda: gen_pyrrect(20, h=1e300, l_vec=(1e10, 1e10), seed=1),
        "l_vec gives a span wider than the largest double, got (10000000000.0, 10000000000.0)"),
    "wavydims2-noise-span": (
        lambda: gen_wavydims2(3, 2, [0.0, 1.0, 2.0], noise=1e308, seed=1),
        "noise gives a span wider than the largest double, got 1e+308"),
    "wavydims3-perturb-span": (
        lambda: gen_wavydims3(3, 4, _base(), perturb=1e308, seed=1),
        "perturb gives a span wider than the largest double, got 1e+308"),
    "wavydims3-noise-span": (
        lambda: gen_wavydims3(3, 4, _base(), noise=1e308, seed=1),
        "noise gives a span wider than the largest double, got 1e+308"),
    "spec-loc-1d": (
        lambda: MultiClusterSpec(n=(20, 20), k=2, loc=[0.0, 5.0], scale=(1, 1), shape=("gaussian", "gaussian")),
        "loc must be a 2 x p matrix, got shape (2,)"),
    # A count no array can hold ended in numpy's ValueError.
    "generate-manifest-n-1e308": (
        lambda: _build("generate", {"kind": "cone", "n": 1e308, "params": {}}, 1),
        f"n must be at most {MAX_COUNT}, got 1e+308"),
    "multicluster-config-n-1e308": (
        lambda: _build("multicluster", {"config": {**CONFIG, "n": [1e308, 20]}}, 1),
        f"n must be at most {MAX_COUNT}, got 1e+308"),
    "hole-manifest-n-2**64": (
        lambda: _build("hole", {"kind": "scurve", "params": {"n": 2**64}}, 1),
        f"n must be at most {MAX_COUNT}, got {2**64}"),
    # An integer beyond the largest double ended in an OverflowError.
    "swissroll-w-wide-integer": (
        lambda: gen_swissroll(20, w=(-WIDE, 0), seed=1),
        f"parameter w of shape 'swissroll' must be finite, got {(-WIDE, 0)!r}"),
    "cone-h-wide-integer": (
        lambda: generate("cone", 20, h=WIDE, seed=1), f"parameter h of shape 'cone' must be finite, got {WIDE}"),
    "multicluster-config-swissroll-w-wide-integer": (
        lambda: _build("multicluster", {"config": {
            **CONFIG, "loc": [[0, 0, 0], [5, 5, 5]], "shape": ["swissroll", "gaussian"], "extras": {"w": [-WIDE, 0]},
        }}, 1),
        f"parameter w of shape 'swissroll' must be finite, got {[-WIDE, 0]!r}"),
    "spec-scale-wide-integer": (
        lambda: MultiClusterSpec.from_dict({**CONFIG, "scale": [WIDE, 1]}),
        f"every scale must be positive and finite, got {(WIDE, 1)!r}"),
    "wavydims1-sigma-wide-integer": (
        lambda: gen_wavydims1(3, 2, [0.0, 1.0, 2.0], sigma=WIDE, seed=1), f"sigma must be finite, got {WIDE}"),
    "rotation-angle-wide-integer": (lambda: RotationPlan(3, [(1, 2, WIDE)]), "rotation angle must be finite"),
    "gaussian-s-wide-integer": (
        lambda: generate("gaussian", 20, p=2, s=[[WIDE, 0], [0, 1]], seed=1),
        f"parameter s of shape 'gaussian' must be finite, got {np.array([[INF, 0], [0, 1]])!r}"),
}


@pytest.mark.parametrize("call, message", DOMAIN_REFUSALS.values(), ids=DOMAIN_REFUSALS)
def test_a_value_outside_its_domain_is_refused_with_its_message(call, message):
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        call()


def test_a_replayed_count_no_array_can_hold_exits_2_and_writes_nothing(tmp_path, capsys):
    assert main(["generate", "cone", "--n", "20", "--seed", "1", "--out", str(tmp_path / "c.csv")]) == 0
    manifest = json.loads((tmp_path / "c.csv.manifest.json").read_text())
    manifest["spec"]["n"] = 1e308
    replay, out = tmp_path / "big.json", tmp_path / "big.csv"
    replay.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["generate", "--from-manifest", str(replay), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: n must be at most {MAX_COUNT}, got 1e+308\n"
    assert not out.exists() and not (tmp_path / "big.csv.manifest.json").exists()


def test_a_count_is_checked_against_the_largest_array_index():
    assert _check_n(MAX_COUNT) == MAX_COUNT
    assert _check_n(float(2**62)) == 2**62
    with pytest.raises(ParameterError, match=f"^k must be at most {MAX_COUNT}, got {MAX_COUNT + 1}$"):
        _check_n(MAX_COUNT + 1, "k")
