"""Golden digests: the output bytes of the library and the CLI, pinned.

Each case below is hashed and compared with `tests/golden/digests.json`.
Library cases hash `points.tobytes()` followed by the NUL-joined labels;
CLI cases hash the data file (or stdout) and keep the manifest's `spec`
object verbatim, key order included.

numpy does not promise identical Generator streams across releases
(NEP 19), so the file records the numpy and python versions it was written
with, and every mismatch message names them next to the running versions.

Rewrite the file only together with a deliberate output change:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import tempfile
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from hdshapes import cli
from hdshapes.composer import PRESETS, MultiClusterSpec, gen_multicluster, make_preset, simplex_vertices
from hdshapes.core import RotationPlan, gen_rotation
from hdshapes.noise import append_dims, gen_noisedims, gen_wavydims1, gen_wavydims2, gen_wavydims3
from hdshapes.shapes import SHAPES, LatticeSizeWarning, generate, gen_scurve, gen_unifcube
from hdshapes.topology import gen_hole, gen_scurvehole, gen_unifcubehole

GOLDEN = Path(__file__).parent / "golden" / "digests.json"

SHAPE_N, SHAPE_SEED = 64, 11


def dataset_digest(ds) -> str:
    h = hashlib.sha256(ds.points.tobytes())
    if ds.labels is not None:
        h.update("\0".join(ds.labels.tolist()).encode("utf-8"))
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Library cases: name -> zero-argument callable returning a Dataset


def _scene(seed, shuffle=True, **fields):
    return gen_multicluster(MultiClusterSpec(**fields), seed=seed, shuffle=shuffle)


def _explicit_p(kind: str) -> int:
    """A p every kind that takes one accepts: its fixed dim, or 5."""
    return SHAPES[kind].dim or 5


def _noise_stack():
    base = gen_scurve(50, seed=21)
    x1 = base.points[:, 0]
    out = append_dims(base, gen_noisedims(50, 3, seed=22))
    out = append_dims(out, gen_wavydims1(50, 3, x1, seed=23))
    out = append_dims(out, gen_wavydims2(50, 4, x1, seed=24))
    return append_dims(out, gen_wavydims3(50, 6, base, seed=25))


def library_cases() -> dict:
    cases = {}
    for kind in SHAPES:
        cases[f"shape/{kind}"] = partial(generate, kind, SHAPE_N, seed=SHAPE_SEED)
        if "p" in SHAPES[kind].params:
            p = _explicit_p(kind)
            cases[f"shape/{kind}/p={p}"] = partial(generate, kind, SHAPE_N, seed=SHAPE_SEED, p=p)
    cases.update({
        "shape/cone/n=int64": partial(generate, "cone", np.int64(SHAPE_N), seed=np.uint64(SHAPE_SEED)),
        "shape/cone/params": partial(generate, "cone", 50, seed=3, p=6, h=2.5, ratio=0.2),
        "shape/swissroll/w": partial(generate, "swissroll", 50, seed=3, w=(1.0, 5.0)),
        "shape/pyrrect/params": partial(generate, "pyrrect", 50, seed=3, p=6, h=2.0, l_vec=(1.5, 0.5), rt=0.2),
        "shape/clusteredspheres/n_vec": partial(
            generate, "clusteredspheres", None, seed=3, k_small=2, r_vec=(5.0, 1.0), spe=2.0, n_vec=(30, 10)
        ),
        "shape/orglinearbranches/share": partial(
            generate, "orglinearbranches", 50, seed=3, p=3, k=5, allow_share=True
        ),
        "shape/sphericalspiral/spins": partial(generate, "sphericalspiral", 50, seed=3, spins=5),
        "shape/nonlinear/params": partial(generate, "nonlinear", 50, seed=3, hc=2.0, non_fac=0.5),
    })
    for name in PRESETS:
        cases[f"preset/{name}"] = partial(make_preset, name, seed=5)
    cases.update({
        "preset/multigau/params": partial(make_preset, "multigau", seed=5, n=300, k=4, p=6),
        "preset/gaucircles/params": partial(make_preset, "gaucircles", seed=5, n=200, k=2, p=5),
        "preset/klink_curvycycle/params": partial(make_preset, "klink_curvycycle", seed=5, n=150, k=4),
        "hole/unifcube": lambda: gen_hole(gen_unifcube(300, p=3, seed=31), 0.35),
        "hole/scurve/anchor": lambda: gen_hole(gen_scurve(200, seed=32), 0.8, anchor=(0.0, 1.0, 0.0)),
        "hole/gen_scurvehole": partial(gen_scurvehole, 80, r_hole=0.5, seed=33),
        "hole/gen_unifcubehole": partial(gen_unifcubehole, 80, p=4, r_hole=0.4, seed=34),
        "noise/gen_noisedims": partial(gen_noisedims, 40, 4, m=(0.0, 1.0, 2.0, 3.0), s=0.5, seed=41),
        "noise/gen_wavydims1": partial(gen_wavydims1, 40, 3, np.linspace(0.0, 2.0, 40), seed=42),
        "noise/gen_wavydims2": partial(gen_wavydims2, 40, 5, np.linspace(-1.0, 1.0, 40), seed=43),
        "noise/gen_wavydims3": lambda: gen_wavydims3(40, 7, gen_scurve(40, seed=44), seed=45),
        "noise/stack": _noise_stack,
        # The two reference scenes of tests/test_acceptance.py.
        "scene/usage_example": partial(
            _scene, 2024,
            n=(200, 300, 500), k=3,
            loc=np.array([[0, 0, 0, 0], [5, 9, 0, 0], [3, 4, 10, 7]], dtype=float),
            scale=(3.0, 1.0, 2.0), shape=("gaussian", "cone", "unifcube"),
        ),
        "scene/application_example": partial(
            _scene, 2025,
            n=(2250, 1500, 750, 1250, 1750), k=5,
            loc=simplex_vertices(4) * 0.3,
            scale=(0.25, 0.35, 0.3, 1.0, 0.3),
            shape=("helicalspiral", "hemisphere", "unifcube", "cone", "gaussian"),
        ),
        # Rotations sized to the shape (3-D scurve, applied before padding),
        # and a shape already at the scene dimension.
        "scene/shape_rotation": partial(
            _scene, 51,
            n=(60, 50, 40), k=3,
            loc=np.array([[0.0] * 5, [3.0, 1.0, 0.0, -2.0, 1.0], [-4.0, 0.0, 2.0, 0.0, 0.5]]),
            scale=(1.5, 0.8, 1.0), shape=("scurve", "cone", "gaussian"),
            rotation=(RotationPlan(3, ((1, 2, 0.7), (2, 3, 1.1))), None, RotationPlan(5, ((2, 4, 0.4),))),
        ),
        # Rotations sized to the scene (mobius padded 3 -> 5, then rotated),
        # one as a plan and one as an explicit orthogonal matrix.
        "scene/scene_rotation": partial(
            _scene, 52,
            n=(70, 45), k=2,
            loc=np.array([[1.0, 2.0, 3.0, 4.0, 5.0], [-1.0, 0.0, 0.0, 2.0, 0.0]]),
            scale=(2.0, 0.5), shape=("mobius", "quadratic"),
            rotation=(
                RotationPlan(5, ((1, 4, 0.3), (2, 5, 1.2), (3, 4, -0.8))),
                gen_rotation(RotationPlan(5, ((1, 2, 0.9), (4, 5, 2.2)))),
            ),
        ),
        # A labeled 2-D shape padded into a 4-D scene; its labels stay out
        # of the scene, which labels rows by cluster.
        "scene/labeled_pad": partial(
            _scene, 53,
            n=(80, 40), k=2,
            loc=np.array([[0.0, 0.0, 0.0, 0.0], [2.0, 2.0, 2.0, 2.0]]),
            scale=(1.0, 0.7), shape=("linearbranches", "gaussian"),
            rotation=(RotationPlan(2, ((1, 2, 0.5),)), None),
            extras=({"k": 3}, {}),
        ),
        # NaN loc rows leave clusters where their formulas put them.
        "scene/nan_loc": partial(
            _scene, 54,
            n=(50, 50, 30), k=3,
            loc=np.array([[np.nan] * 5, [4.0, 4.0, 0.0, 0.0, 0.0], [np.nan] * 5]),
            scale=(1.0, 0.5, 2.0), shape=("mobius", "gaussian", "circle"),
            rotation=(None, None, RotationPlan(5, ((1, 5, 0.6),))),
        ),
        "scene/background": partial(
            _scene, 55,
            n=(60, 40, 50), k=3,
            loc=np.array([[0.0] * 6, [5.0, 0.0, 5.0, 0.0, 5.0, 0.0], [0.0, -3.0, 0.0, 3.0, 0.0, 1.0]]),
            scale=(1.0, 1.5, 0.3), shape=("cone", "hollowsphere", "swissroll"),
            is_bkg=True,
        ),
        "scene/no_shuffle_extras": partial(
            _scene, 56, shuffle=False,
            n=(30, 30, 20), k=3,
            loc=np.array([[0.0] * 5, [2.0] * 5, [-2.0] * 5]),
            scale=(1.0, 1.0, 1.0), shape=("circle", "circle", "cone"),
            extras={"p": 3, "ratio": 0.8},
            is_bkg=True,
        ),
    })
    return cases


# ---------------------------------------------------------------------------
# CLI cases: name -> argv; `{out}` is replaced by the output file path


SCENE_CONFIG = {
    "n": [40, 30, 30],
    "k": 3,
    "loc": [[0, 0, 0, 0], [5, 9, 0, 0], [3, 4, 10, 7]],
    "scale": [3, 1, 2],
    "shape": ["gaussian", "linearbranches", "cone"],
    "rotation": [None, {"dim": 4, "steps": [[1, 2, 1.5708]]}, {"dim": 4, "steps": [[2, 3, 0.5]]}],
    "is_bkg": True,
    "extras": {"ratio": 0.3},
}

CLI_CASES = {
    "generate/cone.csv": ["generate", "cone", "--n", "40", "--p", "5", "--h", "2", "--ratio", "0.3", "--seed", "9"],
    "generate/cone.ndjson": ["generate", "cone", "--n", "40", "--seed", "9", "--format", "ndjson"],
    "generate/swissroll.csv": ["generate", "swissroll", "--n", "30", "--w", "1", "5", "--seed", "8"],
    "generate/clusteredspheres.csv": [
        "generate", "clusteredspheres", "--n", "50", "--k-small", "2", "--n-vec", "30", "10",
        "--r-vec", "5", "1", "--seed", "7",
    ],
    "generate/orglinearbranches.ndjson": [
        "generate", "orglinearbranches", "--n", "30", "--k", "5", "--allow-share", "--seed", "6",
        "--format", "ndjson",
    ],
    "generate/linearbranches.csv": ["generate", "linearbranches", "--n", "30", "--seed", "5"],
    "generate/crescent_p2.csv": ["generate", "crescent", "--n", "20", "--p", "2", "--seed", "4"],
    "preset/gaucircles.csv": ["preset", "gaucircles", "--n", "90", "--seed", "3"],
    "preset/gaucircles.ndjson": ["preset", "gaucircles", "--n", "90", "--p", "5", "--seed", "3", "--format", "ndjson"],
    "preset/mobiusgau.csv": ["preset", "mobiusgau", "--n", "60", "--seed", "2"],
    "multicluster/scene.csv": ["multicluster", "{config}", "--seed", "1"],
    "multicluster/scene.ndjson": ["multicluster", "{config}", "--seed", "1", "--no-shuffle", "--format", "ndjson"],
    "list": ["list"],
    "list/presets": ["list", "--presets"],
}


def run_cli_case(name: str, workdir: Path) -> tuple[str, dict | None]:
    """Run one CLI case in-process; return the output digest and manifest spec."""
    config = workdir / "scene.json"
    config.write_text(json.dumps(SCENE_CONFIG), encoding="utf-8")
    argv = [arg.replace("{config}", str(config)) for arg in CLI_CASES[name]]
    out = None
    if argv[0] != "list":
        out = workdir / name.replace("/", "_")
        argv += ["--out", str(out)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    assert code == 0, f"{name}: exit {code}"
    if out is None:
        return hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest(), None
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text(encoding="utf-8"))
    return hashlib.sha256(out.read_bytes()).hexdigest(), manifest["spec"]


# ---------------------------------------------------------------------------
# Tests


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _versions(golden) -> str:
    return (
        f"goldens written with numpy {golden['numpy']}, python {golden['python']}; "
        f"running numpy {np.__version__}, python {platform.python_version()}"
    )


def test_golden_cases_cover_the_file(golden):
    assert set(golden["library"]) == set(library_cases())
    assert set(golden["cli"]) == set(CLI_CASES)


# Library cases whose lattice has more points than n = 64, and says so.
OVERSHOOTING = ("shape/gridcube", "shape/gridcube/p=5", "shape/gridedsphere/p=5")


@pytest.mark.parametrize("name", sorted(library_cases()))
def test_library_digest(golden, name):
    lattice = name in OVERSHOOTING
    with pytest.warns(LatticeSizeWarning, match="more than n = 64") if lattice else contextlib.nullcontext():
        got = dataset_digest(library_cases()[name]())
    assert got == golden["library"][name], f"{name}: output bytes changed ({_versions(golden)})"


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_digest(golden, name, tmp_path):
    digest, spec = run_cli_case(name, tmp_path)
    want = golden["cli"][name]
    assert digest == want["sha256"], f"{name}: output bytes changed ({_versions(golden)})"
    if spec is not None:
        assert json.dumps(spec) == json.dumps(want["spec"]), (
            f"{name}: manifest spec changed ({_versions(golden)})"
        )


def write_goldens() -> None:
    lib = {name: dataset_digest(make()) for name, make in library_cases().items()}
    outs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in CLI_CASES:
            digest, spec = run_cli_case(name, Path(tmp))
            outs[name] = {"sha256": digest} if spec is None else {"sha256": digest, "spec": spec}
    data = {
        "numpy": np.__version__,
        "python": platform.python_version(),
        "shape_params": {kind: list(info.params) for kind, info in SHAPES.items()},
        "preset_params": {name: ["n", *info.params] for name, info in PRESETS.items()},
        "library": lib,
        "cli": outs,
    }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(lib)} library and {len(outs)} CLI digests to {GOLDEN}")


if __name__ == "__main__":
    write_goldens()
