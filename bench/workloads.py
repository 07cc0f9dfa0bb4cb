"""The fixed operation list of each benchmark workload, built from a seed.

The seed only chooses the inputs the program sees: hdshapes seeds, cluster
locations, scales and rotation angles. Sizes and the list of operations are
the same for every seed, so any two runs do the same amount of work and the
exact row and column counts of every operation are known in advance
(`expected.json`); only the rows gen_hole keeps in `hole_cube` depend on the
seed. `smoke` shrinks every size for the benchmark's own tests.

This module does not import hdshapes at import time: run.py only needs the
CLI argument lists, and the library operations import hdshapes when called.
Library operations reach every hdshapes function through its module
attribute at call time, so the tracer's wrappers see the call.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("cli_export", "lib_scenes", "lib_shapes")

# The seed whose outputs are pinned by sha256 in expected.json.
DEFAULT_SEED = 1

# Every registered shape kind at the parent commit; pinned so that adding a
# shape to the registry does not silently change the lib_shapes workload.
SHAPE_KINDS = (
    "expbranches", "linearbranches", "curvybranches", "orglinearbranches",
    "orgcurvybranches", "cone", "gridcube", "unifcube", "gaussian", "longlinear",
    "mobius", "quadratic", "cubic", "pyrrect", "pyrtri", "pyrstar", "pyrfrac",
    "scurve", "circle", "curvycycle", "unifsphere", "hollowsphere",
    "gridedsphere", "clusteredspheres", "hemisphere", "swissroll", "trefoil4d",
    "trefoil3d", "crescent", "curvycylinder", "sphericalspiral",
    "helicalspiral", "conicspiral", "nonlinear",
)


@dataclass(frozen=True)
class CliOp:
    """One `hdshapes` command writing one data file."""

    name: str
    args: tuple[str, ...]
    out: Path
    same_as: str | None = None  # a replay must reproduce this op's bytes


@dataclass(frozen=True)
class LibOp:
    """One in-process library call returning a Dataset."""

    name: str
    func: Callable
    kwargs: dict

    def __call__(self):
        return self.func(**self.kwargs)


def _size(full: int, smoke: bool) -> int:
    return max(full // 500, 40) if smoke else full


def build(workload: str, seed: int, smoke: bool, outdir: Path) -> list:
    """The operation list of `workload` for `seed`.

    cli_export writes its multicluster config into `outdir`, where its
    commands also write their data files.
    """
    rng = random.Random(f"{workload}/{seed}")
    if workload == "cli_export":
        return _cli_export(rng, smoke, Path(outdir))
    if workload == "lib_scenes":
        return _lib_scenes(rng, smoke)
    if workload == "lib_shapes":
        return _lib_shapes(rng, smoke)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# cli_export: labeled scenes and one unlabeled shape, CSV and NDJSON, ~2e5 rows


def _cli_export(rng, smoke, outdir: Path) -> list[CliOp]:
    n = _size(30_000, smoke)
    p_scene = 10
    config = {
        "n": [n // 4] * 4,
        "k": 4,
        "loc": [[rng.uniform(-10.0, 10.0) for _ in range(p_scene)] for _ in range(4)],
        "scale": [rng.uniform(0.5, 2.0) for _ in range(4)],
        "shape": ["gaussian", "cone", "orglinearbranches", "unifcube"],
        "rotation": [None, {"dim": p_scene, "steps": [[1, 2, rng.uniform(0, 3.14)]]}, None, None],
        "is_bkg": True,
    }
    config_path = outdir / "scene.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    seeds = [str(rng.getrandbits(32)) for _ in range(3)]
    commands = {
        "preset": ("preset", "gaucircles", "--n", str(n), "--k", "3", "--p", "6", "--seed", seeds[0]),
        "multicluster": ("multicluster", str(config_path), "--seed", seeds[1]),
        "generate": ("generate", "cone", "--n", str(n), "--p", "5", "--h", "2",
                     "--ratio", "0.4", "--seed", seeds[2]),
    }
    ops = []
    for stem, args in commands.items():
        for fmt in ("csv", "ndjson"):
            out = outdir / f"{stem}.{fmt}"
            ops.append(CliOp(f"{stem}_{fmt}", args + ("--format", fmt, "--out", str(out)), out))
    replayed = ops[0]
    replay = outdir / "replay.csv"
    ops.append(CliOp(
        "replay_csv",
        ("generate", "--from-manifest", f"{replayed.out}.manifest.json", "--out", str(replay)),
        replay,
        same_as=replayed.name,
    ))
    return ops


# ---------------------------------------------------------------------------
# lib_scenes: labeled multi-cluster scenes at p=20, ~1e6 rows, no file


def _scene(sizes, shapes, loc, scale, rotation, seed):
    from hdshapes import composer, core

    plans = tuple(None if r is None else core.RotationPlan(*r) for r in rotation)
    spec = composer.MultiClusterSpec(
        n=sizes, k=len(shapes), loc=loc, scale=scale, shape=shapes,
        rotation=plans, is_bkg=True,
    )
    return composer.gen_multicluster(spec, seed=seed, shuffle=True)


def _preset(name, seed, **params):
    from hdshapes import composer

    return composer.make_preset(name, seed=seed, **params)


def _lib_scenes(rng, smoke) -> list[LibOp]:
    p = 20
    scenes = {
        "scene_a": (40_000, ("gaussian", "cone", "unifcube", "pyrstar", "orglinearbranches")),
        "scene_b": (40_000, ("gaussian", "hollowsphere", "longlinear", "scurve", "curvycycle")),
        "scene_c": (35_000, ("gaussian", "gaussian", "pyrrect", "circle", "mobius", "linearbranches")),
    }
    ops = []
    for name, (n, shapes) in scenes.items():
        k = len(shapes)
        rotation = [None] * k
        rotation[1] = (p, ((1, 2, rng.uniform(0, 3.14)), (5, 9, rng.uniform(0, 3.14))))
        ops.append(LibOp(name, _scene, dict(
            sizes=(_size(n, smoke),) * k,
            shapes=shapes,
            loc=[[rng.uniform(-25.0, 25.0) for _ in range(p)] for _ in range(k)],
            scale=tuple(rng.uniform(0.5, 3.0) for _ in range(k)),
            rotation=tuple(rotation),
            seed=rng.getrandbits(32),
        )))
    presets = (("multigau", 150_000, 4), ("gaucircles", 100_000, 3), ("shape_para", 50_000, 3))
    for name, n, k in presets:
        ops.append(LibOp(f"preset_{name}", _preset, dict(
            name=name, n=_size(n, smoke), k=k, p=p, seed=rng.getrandbits(32),
        )))
    return ops


# ---------------------------------------------------------------------------
# lib_shapes: every shape, hole punching and noise dimensions, ~1e5 rows each


def _shape(kind, n, seed):
    from hdshapes import shapes

    return shapes.generate(kind, n=n, seed=seed)


def _hole_cube(n, p, r, seed):
    from hdshapes import shapes, topology

    return topology.gen_hole(shapes.generate("unifcube", n=n, p=p, seed=seed), r)


def _holed(kind, seed, **params):
    from hdshapes import topology

    return getattr(topology, kind)(seed=seed, **params)


def _noise_stack(n, seed):
    from hdshapes import noise, shapes

    base = shapes.generate("scurve", n=n, seed=seed)
    x1 = base.points[:, 0]
    out = noise.append_dims(base, noise.gen_noisedims(n, 6, seed=seed + 1))
    out = noise.append_dims(out, noise.gen_wavydims1(n, 4, x1, seed=seed + 2))
    out = noise.append_dims(out, noise.gen_wavydims2(n, 4, x1, seed=seed + 3))
    return noise.append_dims(out, noise.gen_wavydims3(n, 8, base, seed=seed + 4))


def _lib_shapes(rng, smoke) -> list[LibOp]:
    n = _size(100_000, smoke)
    ops = [
        LibOp(f"shape_{kind}", _shape, dict(kind=kind, n=n, seed=rng.getrandbits(32)))
        for kind in SHAPE_KINDS
    ]
    ops += [
        # About half of a 10-D unit cube lies within 0.9 of its centre.
        LibOp("hole_cube", _hole_cube, dict(n=_size(400_000, smoke), p=10, r=0.9,
                                            seed=rng.getrandbits(32))),
        LibOp("scurvehole", _holed, dict(kind="gen_scurvehole", n=n, r_hole=0.5,
                                         seed=rng.getrandbits(32))),
        LibOp("unifcubehole", _holed, dict(kind="gen_unifcubehole", n=n, p=3, r_hole=0.3,
                                           seed=rng.getrandbits(32))),
        LibOp("noise_stack", _noise_stack, dict(n=n, seed=rng.getrandbits(32))),
    ]
    return ops


# ---------------------------------------------------------------------------
# Output facts checked against expected.json


def dataset_facts(ds) -> dict:
    """Rows, columns and sha256 of points.tobytes() plus the labels.

    `array_bytes` is computed from array sizes, not measured.
    """
    import numpy as np

    points = np.ascontiguousarray(ds.points, dtype=np.float64)
    digest = hashlib.sha256(points.tobytes())
    labels = ds.labels
    array_bytes = points.nbytes
    if labels is not None:
        digest.update(b"\0labels\0" + "\0".join(map(str, labels)).encode("utf-8"))
        array_bytes += labels.nbytes
    return {"rows": int(points.shape[0]), "cols": int(points.shape[1]),
            "sha256": digest.hexdigest(), "bytes": int(array_bytes)}


def file_facts(path: Path) -> dict:
    """Rows, columns (label column included) and sha256 of a CSV/NDJSON file."""
    data = Path(path).read_bytes()
    first = data.split(b"\n", 1)[0]
    lines = data.count(b"\n")
    if Path(path).suffix == ".csv":
        rows, cols = lines - 1, len(first.split(b","))
    else:
        rows, cols = lines, len(json.loads(first)) if first else 0
    return {"rows": rows, "cols": cols, "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data)}
