import argparse
import gc
import importlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from hdshapes import cli
from hdshapes.cli import build_parser, main, write_csv
from hdshapes.composer import PRESETS
from hdshapes.shapes import SHAPES, gen_clusteredspheres
from hdshapes.topology import gen_unifcubehole

USAGE_CONFIG = {
    "n": [200, 300, 500],
    "k": 3,
    "loc": [[0, 0, 0, 0], [5, 9, 0, 0], [3, 4, 10, 7]],
    "scale": [3, 1, 2],
    "shape": ["gaussian", "cone", "unifcube"],
    "is_bkg": False,
}


def run_cli(*args, env=None, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "hdshapes.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


def test_generate_scurve_csv(tmp_path):
    out = tmp_path / "s.csv"
    res = run_cli("generate", "scurve", "--n", "500", "--seed", "7", "--out", str(out))
    assert res.returncode == 0, res.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "x1,x2,x3"
    assert len(lines) == 501
    manifest = json.loads((tmp_path / "s.csv.manifest.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["row_count"] == 500 and manifest["col_count"] == 3


def test_manifest_records_output_environment(tmp_path):
    import platform

    import numpy as np

    from hdshapes import OUTPUT_VERSION, __version__

    out = tmp_path / "g.ndjson"
    assert main(["generate", "gaussian", "--n", "5", "--seed", "1", "--format", "ndjson",
                 "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "g.ndjson.manifest.json").read_text())
    assert manifest["tool_version"] == __version__
    assert manifest["output_version"] == OUTPUT_VERSION
    assert isinstance(OUTPUT_VERSION, int)
    assert manifest["numpy_version"] == np.__version__
    assert manifest["python_version"] == platform.python_version()


def test_generate_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        res = run_cli(
            "generate", "cone", "--n", "100", "--p", "4", "--h", "2",
            "--ratio", "0.5", "--seed", "1", "--out", str(out),
        )
        assert res.returncode == 0, res.stderr
    assert a.read_bytes() == b.read_bytes()


def test_generate_invalid_flag_for_shape(tmp_path):
    res = run_cli(
        "generate", "cone", "--n", "100", "--w", "1", "2", "--out", str(tmp_path / "x.csv")
    )
    assert res.returncode == 2
    assert "--w" in res.stderr and "cone" in res.stderr


def test_generate_unknown_shape(tmp_path):
    res = run_cli("generate", "blob", "--n", "10", "--out", str(tmp_path / "x.csv"))
    assert res.returncode == 2
    assert "scurve" in res.stderr  # the error lists available kinds


def test_generate_ndjson(tmp_path):
    out = tmp_path / "s.ndjson"
    res = run_cli(
        "generate", "scurve", "--n", "10", "--seed", "1", "--format", "ndjson",
        "--out", str(out),
    )
    assert res.returncode == 0, res.stderr
    lines = out.read_text().splitlines()
    assert len(lines) == 10
    rec = json.loads(lines[0])
    assert set(rec) == {"x1", "x2", "x3"}


def test_generate_io_error(tmp_path):
    res = run_cli(
        "generate", "scurve", "--n", "10", "--seed", "1",
        "--out", str(tmp_path / "missing-dir" / "x.csv"),
    )
    assert res.returncode == 3


def test_multicluster_usage_config(tmp_path):
    cfg = tmp_path / "usage.json"
    cfg.write_text(json.dumps(USAGE_CONFIG))
    out = tmp_path / "m.csv"
    res = run_cli("multicluster", str(cfg), "--seed", "42", "--out", str(out))
    assert res.returncode == 0, res.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "x1,x2,x3,x4,cluster"
    assert len(lines) == 1001
    out2 = tmp_path / "m2.csv"
    res = run_cli("multicluster", str(cfg), "--seed", "42", "--out", str(out2))
    assert res.returncode == 0
    assert out.read_bytes() == out2.read_bytes()


def test_multicluster_length_mismatch(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({**USAGE_CONFIG, "scale": [1, 1]}))
    res = run_cli("multicluster", str(cfg), "--seed", "1", "--out", str(tmp_path / "x.csv"))
    assert res.returncode == 2
    assert "scale" in res.stderr


def test_multicluster_malformed_json(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text('{"n": [1, 2,')
    res = run_cli("multicluster", str(cfg), "--seed", "1", "--out", str(tmp_path / "x.csv"))
    assert res.returncode == 2
    assert "line" in res.stderr


def test_multicluster_missing_config(tmp_path):
    res = run_cli("multicluster", str(tmp_path / "none.json"), "--out", str(tmp_path / "x.csv"))
    assert res.returncode == 2


def test_multicluster_rotation_plan_config(tmp_path):
    cfg_data = {
        "n": [100, 100],
        "k": 2,
        "loc": [[0, 0, 0], [3, 0, 0]],
        "scale": [1, 1],
        "shape": ["circle", "circle"],
        "rotation": [None, {"dim": 3, "steps": [[1, 3, 1.5707963267948966]]}],
        "extras": [{"p": 2}, {"p": 2}],
    }
    cfg = tmp_path / "rot.json"
    cfg.write_text(json.dumps(cfg_data))
    res = run_cli("multicluster", str(cfg), "--seed", "3", "--out", str(tmp_path / "r.csv"))
    assert res.returncode == 0, res.stderr


def test_from_manifest_roundtrip(tmp_path):
    cfg = tmp_path / "usage.json"
    cfg.write_text(json.dumps(USAGE_CONFIG))
    out = tmp_path / "m.csv"
    res = run_cli("multicluster", str(cfg), "--seed", "9", "--out", str(out))
    assert res.returncode == 0, res.stderr
    replay = tmp_path / "replay.csv"
    res = run_cli(
        "generate", "--from-manifest", str(tmp_path / "m.csv.manifest.json"),
        "--out", str(replay),
    )
    assert res.returncode == 0, res.stderr
    assert out.read_bytes() == replay.read_bytes()


def test_from_manifest_shape_roundtrip(tmp_path):
    out = tmp_path / "c.csv"
    res = run_cli("generate", "crescent", "--n", "64", "--seed", "5", "--out", str(out))
    assert res.returncode == 0, res.stderr
    replay = tmp_path / "c2.csv"
    res = run_cli(
        "generate", "--from-manifest", str(tmp_path / "c.csv.manifest.json"),
        "--out", str(replay),
    )
    assert res.returncode == 0, res.stderr
    assert out.read_bytes() == replay.read_bytes()


def test_hole_command(tmp_path):
    out = tmp_path / "h.csv"
    res = run_cli(
        "hole", "unifcube", "--n", "400", "--p", "2", "--r-hole", "0.2",
        "--seed", "3", "--out", str(out),
    )
    assert res.returncode == 0, res.stderr
    assert len(out.read_text().splitlines()) == 401


def test_preset_command(tmp_path):
    out = tmp_path / "pre.csv"
    res = run_cli("preset", "mobiusgau", "--seed", "1", "--out", str(out))
    assert res.returncode == 0, res.stderr
    header = out.read_text().splitlines()[0]
    assert header.endswith(",cluster")
    res = run_cli("preset", "onegrid", "--k", "3", "--out", str(tmp_path / "x.csv"))
    assert res.returncode == 2
    assert "--k" in res.stderr or "k" in res.stderr


def test_env_seed_fallback(tmp_path):
    import os

    env = dict(os.environ, HDSHAPES_SEED="123")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        res = run_cli("generate", "scurve", "--n", "50", "--out", str(out), env=env)
        assert res.returncode == 0, res.stderr
    assert a.read_bytes() == b.read_bytes()
    manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    assert manifest["seed"] == 123


@pytest.mark.parametrize(
    "argv, env, named",
    [
        (["generate", "scurve", "--n", "5"], {"HDSHAPES_SEED": "abc"}, "HDSHAPES_SEED must be an integer, got 'abc'"),
        (["multicluster", "missing.json", "--seed", "1"], {}, "config not found: missing.json"),
        (["multicluster", "bad.json", "--seed", "1"], {}, "config bad.json is not valid JSON"),
        (["generate", "--from-manifest", "missing.json"], {}, "manifest not found: missing.json"),
        (["generate", "--from-manifest", "bad.json"], {}, "manifest bad.json is not valid JSON"),
        (["generate", "--seed", "1"], {}, "generate needs a shape kind"),
        (["generate", "cone", "--seed", "1"], {}, "generate needs --n"),
        # Path("") is the working directory: refused before any row is built.
        (["generate", "cone", "--n", "200000", "--seed", "1", "--out", ""], {}, "--out must not be empty"),
        (["generate", "clusteredspheres", "--n", "40", "--n-vec", "30", "10", "--seed", "1"], {},
         "n = 40 differs from the total of n_vec = (30, 10) with k_small = 3: 30 + 3 * 10 = 60"),
    ],
    ids=["env-seed", "missing-config", "invalid-config", "missing-manifest", "invalid-manifest",
         "no-shape", "no-n", "empty-out", "n-beside-n-vec"],
)
def test_documented_usage_errors_exit_2(argv, env, named, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    Path("bad.json").write_text('{"n": [1,')
    assert main(argv if "--out" in argv else [*argv, "--out", "out.csv"]) == 2
    assert named in capsys.readouterr().err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["bad.json"]


SPAN_CONFIG = {
    "n": [20, 20], "k": 2, "loc": [[0, 0, 0], [5, 5, 5]], "scale": [1, 1],
    "shape": ["swissroll", "gaussian"], "extras": [{"w": [-1e308, 1e308]}, {}],
}


@pytest.mark.parametrize(
    "argv, named",
    [
        (["generate", "pyrrect", "--n", "20", "--l-vec", "1e308", "1e308", "--seed", "1"], "l_vec"),
        (["multicluster", "span.json", "--seed", "1"], "w"),
    ],
    ids=["pyrrect-l_vec", "multicluster-swissroll-w"],
)
def test_a_span_wider_than_the_largest_double_exits_2(argv, named, tmp_path, monkeypatch, capsys):
    # numpy would refuse the uniform draw with an OverflowError; the parameters are refused first.
    monkeypatch.chdir(tmp_path)
    Path("span.json").write_text(json.dumps(SPAN_CONFIG))
    assert main([*argv, "--out", "out.csv"]) == 2
    assert f"{named} gives a span wider than the largest double" in capsys.readouterr().err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["span.json"]


def test_auto_seed_is_printed_and_recorded(tmp_path):
    import os

    env = {k: v for k, v in os.environ.items() if k != "HDSHAPES_SEED"}
    out = tmp_path / "auto.csv"
    res = run_cli("generate", "scurve", "--n", "20", "--out", str(out), env=env)
    assert res.returncode == 0, res.stderr
    assert "seed:" in res.stdout
    manifest = json.loads((tmp_path / "auto.csv.manifest.json").read_text())
    assert isinstance(manifest["seed"], int)


def test_list_commands():
    res = run_cli("list")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert len(lines) == 34
    assert "cone: n, p, h, ratio" in lines
    res = run_cli("list", "--presets")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert len(lines) == 13
    # A preset's description is the first line of its builder's docstring.
    assert "gaucircles: n, k, p  # Concentric rings with a central Gaussian." in lines


@pytest.mark.parametrize(
    "argv, named",
    [
        (["generate", "crescent", "--n", "5", "--p", "10"], "p = 2"),
        (["generate", "swissroll", "--n", "5", "--w", "0", "inf"], "parameter w"),
        (["generate", "cone", "--n", "5", "--h", "nan"], "parameter h"),
        (["generate", "cone", "--n", "5", "--seed", str(2**64 + 5)], "seed"),
        (["generate", "cone", "--n", "5", "--w", "1", "2"], "flag(s) --w not valid for shape 'cone' (accepts: --n, --p, --h, --ratio)"),
        (["generate", "mobius", "--n", "5", "--p", "3"], "(accepts: --n)"),
        (["preset", "onegrid", "--k", "3"], "flag(s) --k not valid for preset 'onegrid' (accepts: --n)"),
        (["preset", "blob"], "unknown preset 'blob'"),
    ],
)
def test_bad_values_exit_2_and_name_the_value(argv, named, tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def _options(command):
    """Option string -> argparse action, for the options of one subcommand,
    in the parser `main` builds for it."""
    sub = next(a for a in build_parser(command)._actions if isinstance(a, argparse._SubParsersAction))
    return {a.option_strings[0]: a for a in sub.choices[command]._actions if a.option_strings}


_COMMON_OPTIONS = {"-h", "--seed", "--out", "--format"}

# The generate parameter flags as the hand-written table before flags were
# derived from the generator signatures: flag -> (dest, nargs, type).
_GENERATE_FLAGS = {
    "--p": ("p", None, int), "--k": ("k", None, int), "--h": ("h", None, float),
    "--ratio": ("ratio", None, float), "--r": ("r", None, float), "--w": ("w", 2, float),
    "--spins": ("spins", None, int), "--steps": ("steps", None, int), "--hc": ("hc", None, float),
    "--non-fac": ("non_fac", None, float), "--l": ("l", None, float), "--l-vec": ("l_vec", 2, float),
    "--rt": ("rt", None, float), "--rb": ("rb", None, float), "--range": ("range", 2, float),
    "--k-small": ("k_small", None, int), "--r-vec": ("r_vec", 2, float), "--spe": ("spe", None, float),
    "--n-vec": ("n_vec", 2, int), "--allow-share": ("allow_share", 0, None),
}


def test_flag_surface_is_unchanged():
    gen = _options("generate")
    got = {
        flag: (a.dest, a.nargs, a.type)
        for flag, a in gen.items()
        if flag not in _COMMON_OPTIONS | {"--n", "--from-manifest"}
    }
    assert got == _GENERATE_FLAGS
    assert isinstance(gen["--allow-share"], argparse._StoreTrueAction) and gen["--allow-share"].default is None
    assert all(a.default is None and not a.required for flag, a in gen.items() if flag in _GENERATE_FLAGS)
    preset = _options("preset")
    assert set(preset) - _COMMON_OPTIONS == {"--n", "--k", "--p"}
    assert all(preset[f].type is int and not preset[f].required for f in ("--n", "--k", "--p"))
    hole = _options("hole")
    assert set(hole) - _COMMON_OPTIONS == {"--n", "--p", "--r-hole"}
    assert hole["--n"].required and hole["--n"].type is int
    assert not hole["--p"].required and hole["--p"].type is int
    assert not hole["--r-hole"].required and hole["--r-hole"].type is float


def test_every_registry_parameter_has_a_generate_flag():
    golden = json.loads((Path(__file__).parent / "golden" / "digests.json").read_text())
    assert {kind: list(info.params) for kind, info in SHAPES.items()} == golden["shape_params"]
    assert {name: ["n", *info.params] for name, info in PRESETS.items()} == golden["preset_params"]
    flags = {a.dest: a for a in _options("generate").values()}
    flagless = set()
    for kind, info in SHAPES.items():
        for param in info.params:
            if param not in flags:
                flagless.add((kind, param))
                continue
            default, action = info.defaults[param], flags[param]
            if isinstance(default, bool):
                assert isinstance(action, argparse._StoreTrueAction), (kind, param)
            elif isinstance(default, tuple):
                assert (action.nargs, action.type) == (len(default), type(default[0])), (kind, param)
            elif default is not None:
                assert (action.nargs, action.type) == (None, type(default)), (kind, param)
    assert flagless == {("gaussian", "s")}  # a p x p matrix has no flag


def test_hole_r_hole_defaults_and_p_is_checked(tmp_path, capsys):
    out = tmp_path / "h.csv"
    assert main(["hole", "unifcube", "--n", "50", "--seed", "3", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "h.csv.manifest.json").read_text())
    assert manifest["spec"] == {"kind": "unifcube", "params": {"p": 3, "r_hole": 0.3, "n": 50}}
    direct = tmp_path / "direct.csv"
    write_csv(gen_unifcubehole(50, seed=3), direct)
    assert out.read_bytes() == direct.read_bytes()
    assert main(["hole", "scurve", "--n", "50", "--p", "3", "--out", str(tmp_path / "x.csv")]) == 2
    assert "flag(s) --p not valid for hole kind 'scurve' (accepts: --n, --r-hole)" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_hole_manifest_in_the_old_layout_replays(tmp_path):
    man = tmp_path / "old.csv.manifest.json"
    man.write_text(json.dumps({
        "command": "hole",
        "seed": 3,
        "spec": {"kind": "unifcube", "params": {"n": 80, "r_hole": 0.2, "p": 2}},
        "output_path": str(tmp_path / "old.csv"),
        "format": "csv",
    }))
    replay = tmp_path / "replay.csv"
    assert main(["generate", "--from-manifest", str(man), "--out", str(replay)]) == 0
    direct = tmp_path / "direct.csv"
    write_csv(gen_unifcubehole(80, p=2, r_hole=0.2, seed=3), direct)
    assert replay.read_bytes() == direct.read_bytes()


@pytest.mark.parametrize("flags", [[], ["--n", "90"], ["--k", "2", "--p", "5"]])
def test_a_preset_manifest_records_every_default(flags, tmp_path):
    out = tmp_path / "pre.csv"
    assert main(["preset", "gaucircles", *flags, "--seed", "2", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "pre.csv.manifest.json").read_text())
    given = {flag.removeprefix("--"): int(value) for flag, value in zip(flags[::2], flags[1::2])}
    assert manifest["spec"]["params"] == {**PRESETS["gaucircles"].defaults, **given}
    replay = tmp_path / "replay.csv"
    assert main(["generate", "--from-manifest", str(tmp_path / "pre.csv.manifest.json"), "--out", str(replay)]) == 0
    assert replay.read_bytes() == out.read_bytes()


def test_a_preset_manifest_in_the_old_layout_replays(tmp_path):
    """Manifests written before presets recorded their defaults hold only
    the flags given, here none."""
    man = tmp_path / "old.csv.manifest.json"
    man.write_text(json.dumps({
        "command": "preset",
        "seed": 2,
        "spec": {"name": "gaucircles", "params": {}},
        "output_path": str(tmp_path / "old.csv"),
        "format": "csv",
    }))
    replay, fresh = tmp_path / "replay.csv", tmp_path / "fresh.csv"
    assert main(["generate", "--from-manifest", str(man), "--out", str(replay)]) == 0
    assert main(["preset", "gaucircles", "--seed", "2", "--out", str(fresh)]) == 0
    assert replay.read_bytes() == fresh.read_bytes()


def _manifest(tmp_path):
    out = tmp_path / "g.csv"
    assert main(["generate", "cone", "--n", "10", "--seed", "1", "--out", str(out)]) == 0
    return json.loads((tmp_path / "g.csv.manifest.json").read_text())


@pytest.mark.parametrize(
    "corrupt, named",
    [
        (lambda m: {**m, "format": "xml"}, "field 'format'"),
        (lambda m: {**m, "spec": {**m["spec"], "params": [1, 2]}}, "field 'spec.params'"),
        (lambda m: [m], "must be a JSON object"),
        (lambda m: {**m, "spec": "cone"}, "field 'spec'"),
        (lambda m: {**m, "command": "hole", "spec": {"kind": "blob", "params": {"n": 5}}}, "hole kind 'blob'"),
        (lambda m: {**m, "command": "generate", "spec": {"kind": ["cone"], "n": 5, "params": {}}}, "shape kind"),
        (lambda m: {k: v for k, v in m.items() if k != "seed"}, "missing field 'seed'"),
        (lambda m: {**m, "command": ["generate"]}, "unknown command ['generate']"),
        # null would have drawn a fresh seed, written the data, then failed.
        (lambda m: {**m, "seed": None}, "field 'seed' must be an integer, got None"),
        (lambda m: {**m, "seed": "1"}, "manifest field 'seed' must be an integer, got '1'"),
        (lambda m: {**m, "seed": 1.0}, "manifest field 'seed' must be an integer, got 1.0"),
        (lambda m: {**m, "output_path": None}, "field 'output_path' must be a string, got None"),
        (lambda m: {**m, "output_path": 5}, "field 'output_path' must be a string, got 5"),
        (lambda m: {**m, "output_path": ""}, "field 'output_path' must not be empty"),
    ],
)
def test_malformed_manifest_exits_2(corrupt, named, tmp_path, capsys):
    man = tmp_path / "bad.manifest.json"
    man.write_text(json.dumps(corrupt(_manifest(tmp_path))))
    capsys.readouterr()
    out = tmp_path / "replay.csv"
    assert main(["generate", "--from-manifest", str(man), "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "corrupt, named",
    [
        (lambda m: {**m, "command": "hole", "spec": {"kind": "unifcube", "params": {"n": 5, "bogus": 1}}}, "has bogus"),
        (lambda m: {**m, "spec": {**m["spec"], "params": {**m["spec"]["params"], "seed": 3}}}, "has seed"),
        (lambda m: {**m, "command": "preset", "spec": {"name": "multigau", "params": {"seed": 3}}}, "has seed"),
        (lambda m: {**m, "spec": {**m["spec"], "params": {**m["spec"]["params"], "kind": "cone"}}}, "has kind"),
        (lambda m: {**m, "spec": {**m["spec"], "params": {**m["spec"]["params"], "n": 10}}}, "has n"),
        (lambda m: {**m, "command": "preset", "spec": {"name": "multigau", "params": {"name": "x"}}}, "has name"),
        (lambda m: {**m, "command": "hole", "spec": {"kind": "scurve", "params": {"n": 5, "kind": 1}}}, "has kind"),
        (lambda m: {**m, "command": "hole", "spec": {"kind": "scurve", "params": {"n": 5, "r_hole": 1e400}}},
         "r_hole of hole kind 'scurve' must be finite"),
        (lambda m: {**m, "command": "hole", "spec": {"kind": "scurve", "params": {"n": 5, "r_hole": "x"}}}, "r_hole must be a number, got 'x'"),
        (lambda m: {**m, "command": "hole", "spec": {"kind": "scurve", "params": {"r_hole": 0.2}}}, "missing field 'n'"),
        (lambda m: {**m, "spec": {**m["spec"], "params": {**m["spec"]["params"], "h": "x"}}}, "h must be a number, got 'x'"),
        (lambda m: {**m, "spec": {**m["spec"], "params": {**m["spec"]["params"], "p": [4]}}}, "p must be a positive integer, got [4]"),
        (lambda m: {**m, "spec": {**m["spec"], "params": {**m["spec"]["params"], "p": True}}}, "p must be a positive integer, got True"),
        (lambda m: {**m, "spec": {**m["spec"], "n": "10"}}, "n must be a positive integer, got '10'"),
        (lambda m: {**m, "command": "preset", "spec": {"name": "multigau", "params": {"n": "x"}}}, "n must be a positive integer, got 'x'"),
        (lambda m: {**m, "command": "preset", "spec": {"name": "multigau", "params": {"n": 2.5}}}, "n must be a positive integer, got 2.5"),
        (lambda m: {**m, "spec": {"kind": "quadratic", "n": 5, "params": {"range": [0, 1, 2]}}}, "range must be a list of 2 numbers"),
        (lambda m: {**m, "spec": {"kind": "clusteredspheres", "n": None, "params": {"n_vec": [9, "3"]}}}, "n_vec must be a list of 2 integers"),
        (lambda m: {**m, "spec": {"kind": "clusteredspheres", "n": 60, "params": {"k_small": 2, "n_vec": [30, 10]}}},
         "n = 60 differs from the total of n_vec = (30, 10) with k_small = 2: 30 + 2 * 10 = 50"),
        (lambda m: {**m, "spec": {"kind": "orglinearbranches", "n": 9, "params": {"allow_share": 1}}}, "allow_share must be true or false"),
        (lambda m: {**m, "command": "multicluster", "spec": {"config": USAGE_CONFIG, "shuffle": "no"}}, "shuffle must be true or false"),
    ],
    ids=["unknown-hole-param", "generate-seed", "preset-seed", "generate-kind", "generate-n", "preset-name",
         "hole-kind", "infinite-r-hole", "string-r-hole", "hole-without-n", "string-h",
         "list-p", "bool-p", "string-n", "string-preset-n", "fractional-preset-n", "long-pair", "string-in-pair",
         "n-beside-n-vec", "number-for-flag", "string-shuffle"],
)
def test_hand_edited_params_exit_2(corrupt, named, tmp_path, capsys):
    man = tmp_path / "bad.manifest.json"
    man.write_text(json.dumps(corrupt(_manifest(tmp_path))))
    capsys.readouterr()
    out = tmp_path / "replay.csv"
    assert main(["generate", "--from-manifest", str(man), "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "extra, named",
    [
        (["--p", "9"], "--p"),
        (["--n", "3"], "--n"),
        (["--seed", "4"], "--seed"),
        (["--allow-share"], "--allow-share"),
        (["cone"], "shape 'cone'"),
        (["--format", "ndjson"], "--format"),
    ],
)
def test_from_manifest_rejects_flags_it_would_ignore(extra, named, tmp_path, capsys):
    _manifest(tmp_path)
    capsys.readouterr()
    out = tmp_path / "replay.csv"
    argv = ["generate", *extra, "--from-manifest", str(tmp_path / "g.csv.manifest.json"), "--out", str(out)]
    assert main(argv) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_replay_accepts_values_of_the_right_kind(tmp_path):
    """Integral floats for counts, pairs and a None default still replay."""
    man = tmp_path / "ok.manifest.json"
    spec = {"kind": "clusteredspheres", "n": None, "params": {"n_vec": [9.0, 3], "r_vec": [4, 1.5]}}
    man.write_text(json.dumps({"command": "generate", "seed": 5, "spec": spec, "output_path": "x.csv"}))
    replay = tmp_path / "replay.csv"
    assert main(["generate", "--from-manifest", str(man), "--out", str(replay)]) == 0
    direct = tmp_path / "direct.csv"
    write_csv(gen_clusteredspheres(n_vec=(9, 3), r_vec=(4.0, 1.5), seed=5), direct)
    assert replay.read_bytes() == direct.read_bytes()


def test_lattice_overshoot_is_reported_on_stderr(tmp_path):
    out = tmp_path / "grid.csv"
    res = run_cli("generate", "gridcube", "--n", "10", "--p", "2", "--seed", "1", "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert res.stderr == "warning: gridcube lattice has 12 points, more than n = 10\n"
    assert len(out.read_text().splitlines()) == 13
    manifest = json.loads((tmp_path / "grid.csv.manifest.json").read_text())
    assert manifest["warnings"] == ["gridcube lattice has 12 points, more than n = 10"]


def test_every_cluster_warning_is_reported_in_cluster_order(tmp_path, capsys):
    cfg = tmp_path / "grids.json"
    cfg.write_text(json.dumps({"n": [10, 40], "k": 2, "loc": [[0, 0], [3, 3]], "scale": [1, 1],
                               "shape": ["gridcube", "gridcube"]}))
    out = tmp_path / "grids.csv"
    assert main(["multicluster", str(cfg), "--seed", "1", "--out", str(out)]) == 0
    messages = [
        "gridcube lattice has 12 points, more than n = 10",
        "gridcube lattice has 42 points, more than n = 40",
    ]
    assert capsys.readouterr().err == "".join(f"warning: {m}\n" for m in messages)
    assert json.loads((tmp_path / "grids.csv.manifest.json").read_text())["warnings"] == messages
    assert len(out.read_text().splitlines()) == 1 + 12 + 42


def test_hole_pilot_is_not_reported_as_a_warning(tmp_path, capsys):
    out = tmp_path / "h.csv"
    argv = ["hole", "unifcube", "--n", "40", "--p", "2", "--r-hole", "0.55", "--seed", "1", "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    manifest = json.loads((tmp_path / "h.csv.manifest.json").read_text())
    assert manifest["warnings"] == []
    direct = tmp_path / "direct.csv"
    write_csv(gen_unifcubehole(40, p=2, r_hole=0.55, seed=1), direct)
    assert out.read_bytes() == direct.read_bytes()


def test_replayed_bool_seed_exits_2(tmp_path, capsys):
    man = _manifest(tmp_path)
    man["seed"] = True
    bad = tmp_path / "bad.manifest.json"
    bad.write_text(json.dumps(man))
    capsys.readouterr()
    replay = tmp_path / "replay.csv"
    assert main(["generate", "--from-manifest", str(bad), "--out", str(replay)]) == 2
    assert "manifest field 'seed' must be an integer, got True" in capsys.readouterr().err
    assert not replay.exists()


def test_manifest_records_no_warnings_as_an_empty_list(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    assert main(["generate", "gridcube", "--n", "9", "--p", "2", "--seed", "1", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    manifest = json.loads((tmp_path / "grid.csv.manifest.json").read_text())
    assert manifest["warnings"] == []


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["generate", "cone", "--n", "10"], {"paramz": {"p": 9}}),
        (["hole", "unifcube", "--n", "50"], {"n": 50}),
        (["preset", "mobiusgau"], {"kind": "cone"}),
        (["multicluster", "CONFIG"], {"no_shuffle": True}),
    ],
    ids=["generate", "hole", "preset", "multicluster"],
)
def test_replay_rejects_unknown_spec_keys(argv, extra, tmp_path, capsys):
    config = tmp_path / "scene.json"
    config.write_text(json.dumps(USAGE_CONFIG))
    out = tmp_path / "a.csv"
    argv = [str(config) if a == "CONFIG" else a for a in argv]
    assert main([*argv, "--seed", "1", "--out", str(out)]) == 0
    man = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    man["spec"].update(extra)
    bad = tmp_path / "bad.manifest.json"
    bad.write_text(json.dumps(man))
    capsys.readouterr()
    replay = tmp_path / "replay.csv"
    assert main(["generate", "--from-manifest", str(bad), "--out", str(replay)]) == 2
    err = capsys.readouterr().err
    assert f"manifest spec has {next(iter(extra))}, not accepted by {argv[0]}" in err
    assert not replay.exists()


# ---------------------------------------------------------------------------
# The process entry: the one place that freezes the import-time heap


def test_the_process_entry_freezes_once_before_parsing(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))  # this process stays unfrozen
    parse_args = argparse.ArgumentParser.parse_args
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args",
                        lambda self, *a, **kw: calls.append("parse") or parse_args(self, *a, **kw))
    monkeypatch.setattr(cli, "_end", lambda code: calls.append(("end", code)))  # this process goes on
    monkeypatch.setattr(sys, "argv", ["hdshapes", "list"])
    cli.run()
    assert calls == ["freeze", "parse", ("end", 0)]
    assert "cone: n, p, h, ratio" in capsys.readouterr().out.splitlines()


def test_main_in_process_does_not_freeze(capsys):
    frozen = gc.get_freeze_count()
    assert main(["list"]) == 0
    assert gc.get_freeze_count() == frozen


def test_python_dash_m_hdshapes_enters_through_run(monkeypatch):
    entered = []
    monkeypatch.setattr(cli, "run", lambda: entered.append("run") or 0)
    with pytest.raises(SystemExit) as exited:
        runpy.run_module("hdshapes", run_name="__main__")
    assert exited.value.code == 0 and entered == ["run"]


def test_the_console_script_is_the_same_entry():
    tomllib = pytest.importorskip("tomllib", reason="tomllib is in the standard library from Python 3.11")
    pyproject = tomllib.loads((Path(__file__).parent.parent / "pyproject.toml").read_text(encoding="utf-8"))
    module, _, name = pyproject["project"]["scripts"]["hdshapes"].partition(":")
    assert getattr(importlib.import_module(module), name) is cli.run


# ---------------------------------------------------------------------------
# Import on demand: a process loads only the modules its command runs


def _loaded(*args: str) -> set[str]:
    """The hdshapes modules that `python *args` imports, read from `-X importtime`."""
    run = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True, text=True, check=True)
    names = {line.rpartition("|")[2].strip() for line in run.stderr.splitlines() if line.startswith("import time:")}
    return {name for name in names if name.split(".")[0] == "hdshapes"}


@pytest.mark.parametrize("argv", [["list"], ["--help"]])
def test_list_and_help_load_no_command_module(argv):
    assert _loaded("-m", "hdshapes", *argv) == {"hdshapes", "hdshapes.core", "hdshapes.shapes", "hdshapes.cli"}


def test_generate_loads_no_scene_module_and_hole_no_composer(tmp_path):
    generated = _loaded("-m", "hdshapes", "generate", "cone", "--n", "50", "--seed", "1", "--out", str(tmp_path / "c.csv"))
    assert "hdshapes._shortest" in generated  # it wrote a file
    assert not generated & {"hdshapes.composer", "hdshapes.topology", "hdshapes.noise"}
    holed = _loaded("-m", "hdshapes", "hole", "scurve", "--n", "50", "--seed", "1", "--out", str(tmp_path / "h.csv"))
    assert "hdshapes.topology" in holed and "hdshapes.composer" not in holed
    assert (tmp_path / "c.csv").is_file() and (tmp_path / "h.csv").is_file()


def test_the_package_loads_a_submodule_when_one_of_its_names_is_read():
    assert _loaded("-c", "import hdshapes") == {"hdshapes"}
    # dir() lists every public name before any submodule is loaded.
    listed = "import hdshapes; assert set(hdshapes.__all__) <= set(dir(hdshapes))"
    assert _loaded("-c", listed) == {"hdshapes"}
    assert _loaded("-c", "import hdshapes; hdshapes.gen_gaussian") == {"hdshapes", "hdshapes.core", "hdshapes.shapes"}
    assert _loaded("-c", "from hdshapes import *") >= {f"hdshapes.{name}" for name in ("core", "shapes", "topology", "noise", "composer")}


def test_names_the_cli_loads_on_use_still_resolve_on_it():
    from hdshapes import composer, shapes

    assert cli.gen_multicluster is composer.gen_multicluster
    assert cli.make_preset is composer.make_preset
    assert cli.generate is shapes.generate
    with pytest.raises(AttributeError, match="has no attribute 'PRESETS'"):
        cli.PRESETS


# ---------------------------------------------------------------------------
# The process entry ends without the interpreter's teardown


# An atexit handler registered before the entry runs, as a plugin's would be.
ENTRY = ("import atexit, sys; atexit.register(lambda: print('atexit handler ran', file=sys.stderr)); "
         "from hdshapes.cli import run; run()")


def _entry(*argv):
    return subprocess.run([sys.executable, "-c", ENTRY, *argv], capture_output=True, text=True)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["generate", "cone", "--n", "50", "--seed", "1", "--out", "{tmp}/c.csv"], 0),
        (["generate", "cone", "--n", "50", "--h", "-1", "--seed", "1", "--out", "{tmp}/c.csv"], 2),
        (["generate", "cone", "--n", "50", "--seed", "1", "--out", "{tmp}/missing/c.csv"], 3),
        (["--help"], 0),
        (["generate", "cone", "--no-such-flag", "1"], 2),
        (["list"], 0),
    ],
    ids=["written", "bad-value", "io-error", "help", "bad-flag", "list"],
)
def test_the_entry_keeps_exit_codes_and_runs_atexit_handlers(argv, code, tmp_path):
    res = _entry(*(arg.format(tmp=tmp_path) for arg in argv))
    assert res.returncode == code, res.stderr
    assert res.stderr.endswith("atexit handler ran\n")
    if argv == ["list"]:
        assert "cone: n, p, h, ratio" in res.stdout.splitlines()  # stdout was flushed, all of it
    assert (tmp_path / "c.csv").is_file() == (code == 0 and argv[0] == "generate")


@pytest.mark.parametrize("fmt", ["csv", "ndjson"])
def test_the_entry_writes_the_bytes_main_writes(fmt, tmp_path):
    argv = ["preset", "gaucircles", "--n", "3000", "--seed", "4", "--format", fmt]
    res = _entry(*argv, "--out", str(tmp_path / "entry.out"))
    assert res.returncode == 0, res.stderr
    assert f"wrote {tmp_path / 'entry.out'}" in res.stdout
    assert main([*argv, "--out", str(tmp_path / "main.out")]) == 0
    assert (tmp_path / "entry.out").read_bytes() == (tmp_path / "main.out").read_bytes()
    assert (tmp_path / "entry.out.manifest.json").is_file()


def test_a_stdout_that_cannot_be_flushed_ends_with_status_120():
    # As the interpreter ends: stdout is buffered, and its reader has gone.
    read, write = os.pipe()
    os.close(read)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    try:
        res = subprocess.run([sys.executable, "-c", ENTRY, "list"], stdout=write, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write)
    assert res.returncode == 120
    assert res.stderr.endswith(b"atexit handler ran\n")


# ---------------------------------------------------------------------------
# Counts that index but cannot be allocated


@pytest.mark.parametrize(
    "argv, named",
    [
        # n * p * 8 bytes overflow numpy's size type: numpy's ValueError.
        (["generate", "cone", "--n", str(2**62), "--seed", "1"], f"generate cone with n = {2**62} needs more memory"),
        # 256 PiB: more than even a 57-bit address space holds, so the
        # allocation fails at once, whatever the kernel's overcommit policy.
        (["generate", "gaussian", "--n", str(2**53), "--p", "4", "--seed", "1"],
         f"generate gaussian with n = {2**53} needs more memory"),
        (["hole", "scurve", "--n", str(2**62), "--seed", "1"], f"hole scurve with n = {2**62} needs more memory"),
    ],
    ids=["cone-size-overflow", "gaussian-unallocatable", "hole-size-overflow"],
)
def test_a_count_too_large_to_allocate_exits_2(argv, named, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", "out.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_other_value_errors_from_a_build_are_not_masked(monkeypatch, tmp_path):
    from hdshapes import shapes

    def broken(*args, **kwargs):
        raise ValueError("a fault, not a size")

    monkeypatch.setattr(shapes, "generate", broken)
    with pytest.raises(ValueError, match="a fault, not a size"):
        main(["generate", "cone", "--n", "5", "--seed", "1", "--out", str(tmp_path / "c.csv")])
