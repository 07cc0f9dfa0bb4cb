"""Command-line front-end.

Subcommands: generate (any single shape), multicluster (JSON config),
hole (the two holed wrapper shapes), preset (named scenes), list.
Every data-writing command emits `<out>.manifest.json` recording the tool
and output versions, the numpy and python versions, the seed, and the
fully resolved spec, so `generate --from-manifest` reproduces the data
file byte for byte.

Exit codes: 0 success, 2 usage or spec error, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import platform
import secrets
import sys
from datetime import datetime, timezone
from itertools import repeat
from pathlib import Path

import numpy as np

from . import OUTPUT_VERSION, __version__
from .composer import PRESETS, MultiClusterSpec, gen_multicluster, make_preset
from .core import ParameterError
from .shapes import SHAPES, generate, shape_info
from .topology import gen_scurvehole, gen_unifcubehole

__all__ = ["main"]

_HOLE_KINDS = {"scurve": gen_scurvehole, "unifcube": gen_unifcubehole}


# ---------------------------------------------------------------------------
# Output writers


# Rows formatted per write: bounds the writers' memory whatever n is.
_CHUNK_ROWS = 1024


def _write_rows(fh, ds, template: str, tails: tuple[str, ...]) -> None:
    """Write ``template % row + tails[code]`` for every row, in chunks.

    `template` holds one ``%r`` per column; ``%r`` of a Python float is its
    shortest round-trip form. `tails` ends the row and holds the formatted
    label of each category, so a label is formatted once, not once per row.
    An unlabeled dataset passes a single tail.
    """
    for start in range(0, ds.n, _CHUNK_ROWS):
        stop = start + _CHUNK_ROWS
        rows = ds.points[start:stop].tolist()
        codes = repeat(0) if ds.codes is None else ds.codes[start:stop].tolist()
        fh.write("".join([template % tuple(row) + tails[c] for row, c in zip(rows, codes)]))


def _csv_tail(name: str) -> str:
    """`,name` plus the line end, quoted as csv quotes a field of a longer row."""
    buf = io.StringIO()
    csv.writer(buf).writerow(["", name])
    return buf.getvalue()


def write_csv(ds, path) -> None:
    header = ",".join(ds.column_names)
    if ds.codes is None:
        tails = ("\r\n",)
    else:
        header += ",cluster"
        tails = tuple(_csv_tail(name) for name in ds.categories)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(header + "\r\n")
        _write_rows(fh, ds, ",".join(["%r"] * ds.p), tails)


def write_ndjson(ds, path) -> None:
    template = "{" + ",".join(f"{json.dumps(name)}:%r" for name in ds.column_names)
    if ds.codes is None:
        tails = ("}\n",)
    else:
        tails = tuple(f',"cluster":{json.dumps(name)}}}\n' for name in ds.categories)
    with open(path, "w", encoding="utf-8") as fh:
        _write_rows(fh, ds, template, tails)


_WRITERS = {"csv": write_csv, "ndjson": write_ndjson}


def _jsonable(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def write_manifest(out_path: Path, command: str, seed: int, spec: dict, fmt: str, ds) -> Path:
    manifest = {
        "tool_version": __version__,
        "output_version": OUTPUT_VERSION,
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "command": command,
        "seed": int(seed),
        "spec": _jsonable(spec),
        "output_path": str(out_path),
        "format": fmt,
        "row_count": ds.n,
        "col_count": ds.p,
        "created_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    man_path = Path(str(out_path) + ".manifest.json")
    with open(man_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return man_path


def _emit(ds, out_path: Path, fmt: str, command: str, seed: int, spec: dict) -> None:
    _WRITERS[fmt](ds, out_path)
    write_manifest(out_path, command, seed, spec, fmt, ds)
    print(f"wrote {out_path} ({ds.n} rows x {ds.p} cols, seed={seed})")


# ---------------------------------------------------------------------------
# Argument plumbing


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("HDSHAPES_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ParameterError(f"HDSHAPES_SEED must be an integer, got {env!r}") from None
    seed = secrets.randbits(63)
    print(f"seed: {seed} (generated; recorded in the manifest)")
    return seed


def _out_path(args, default_stem: str) -> Path:
    if args.out is not None:
        return Path(args.out)
    ext = "csv" if args.format == "csv" else "ndjson"
    return Path(f"{default_stem}.{ext}")


# Shape parameter flags shared by `generate`. Values stay None unless the
# user passes the flag, so validity is checked against the chosen shape.
_SHAPE_FLAGS = (
    ("--p", dict(type=int, help="dimension")),
    ("--k", dict(type=int, help="branch/cluster count")),
    ("--h", dict(type=float, help="height")),
    ("--ratio", dict(type=float, help="tip/base radius ratio")),
    ("--r", dict(type=float, help="radius")),
    ("--w", dict(type=float, nargs=2, metavar=("W1", "W2"), help="vertical interval")),
    ("--spins", dict(type=int, help="spiral loop count")),
    ("--steps", dict(type=int, help="band resolution")),
    ("--hc", dict(type=float, help="hyperbola coefficient")),
    ("--non-fac", dict(type=float, dest="non_fac", help="sinusoid strength")),
    ("--l", dict(type=float, help="base length")),
    ("--l-vec", dict(type=float, nargs=2, dest="l_vec", metavar=("LX", "LY"), help="base half-widths")),
    ("--rt", dict(type=float, help="tip radius")),
    ("--rb", dict(type=float, help="base radius")),
    ("--range", dict(type=float, nargs=2, metavar=("A", "B"), help="sampling interval")),
    ("--k-small", dict(type=int, dest="k_small", help="small sphere count")),
    ("--r-vec", dict(type=float, nargs=2, dest="r_vec", metavar=("R1", "R2"), help="big/small radii")),
    ("--spe", dict(type=float, help="small-sphere spread")),
    ("--n-vec", dict(type=int, nargs=2, dest="n_vec", metavar=("N1", "N2"), help="big/small sizes")),
    ("--allow-share", dict(action="store_true", dest="allow_share", default=None, help="branches may share subspaces")),
)

_FLAG_OF_PARAM = {spec[1].get("dest", spec[0].lstrip("-").replace("-", "_")): spec[0] for spec in _SHAPE_FLAGS}


def _collect_shape_params(args, kind: str) -> dict:
    provided = {
        param: getattr(args, param)
        for param in _FLAG_OF_PARAM
        if getattr(args, param, None) is not None
    }
    info = shape_info(kind)
    bad = sorted(set(provided) - set(info.params))
    if bad:
        flags = ", ".join(_FLAG_OF_PARAM[b] for b in bad)
        accepted = ", ".join(_FLAG_OF_PARAM[a] for a in info.params if a in _FLAG_OF_PARAM)
        raise ParameterError(
            f"flag(s) {flags} not valid for shape '{kind}'"
            + (f" (accepts: --n, {accepted})" if accepted else " (accepts: --n only)")
        )
    return _tupled(provided)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdshapes",
        description="Generate high-dimensional geometric benchmark datasets.",
    )
    parser.add_argument("--version", action="version", version=f"hdshapes {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, help="64-bit seed (default: $HDSHAPES_SEED or entropy)")
    common.add_argument("--out", help="output data file path")
    common.add_argument("--format", choices=("csv", "ndjson"), default="csv")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", parents=[common], help="generate a single shape")
    p_gen.add_argument("shape", nargs="?", help="shape kind (see `hdshapes list`)")
    p_gen.add_argument("--n", type=int, help="number of points")
    p_gen.add_argument("--from-manifest", dest="from_manifest", help="re-run a recorded manifest")
    for flag, kwargs in _SHAPE_FLAGS:
        p_gen.add_argument(flag, **kwargs)

    p_multi = sub.add_parser("multicluster", parents=[common], help="compose clusters from a JSON config")
    p_multi.add_argument("config", help="JSON file describing the scene")
    p_multi.add_argument("--no-shuffle", action="store_true", help="keep clusters in block order")

    p_hole = sub.add_parser("hole", parents=[common], help="generate a shape with a hyperspherical hole")
    p_hole.add_argument("kind", choices=sorted(_HOLE_KINDS), help="holed wrapper shape")
    p_hole.add_argument("--n", type=int, required=True, help="number of surviving points")
    p_hole.add_argument("--p", type=int, help="dimension (unifcube only)")
    p_hole.add_argument("--r-hole", dest="r_hole", type=float, required=True, help="hole radius")

    p_preset = sub.add_parser("preset", parents=[common], help="generate a named preset scene")
    p_preset.add_argument("name", help="preset name (see `hdshapes list --presets`)")
    p_preset.add_argument("--n", type=int, help="total number of points")
    p_preset.add_argument("--k", type=int, help="cluster count (where applicable)")
    p_preset.add_argument("--p", type=int, help="scene dimension (where applicable)")

    p_list = sub.add_parser("list", help="list available shapes or presets")
    p_list.add_argument("--presets", action="store_true", help="list preset scenes instead")
    return parser


# ---------------------------------------------------------------------------
# Command handlers


def _regenerate_from_spec(command: str, spec: dict, seed: int):
    if command == "generate":
        return generate(spec["kind"], n=spec["n"], seed=seed, **_tupled(spec["params"]))
    if command == "multicluster":
        return gen_multicluster(
            MultiClusterSpec.from_dict(spec["config"]),
            seed=seed,
            shuffle=spec.get("shuffle", True),
        )
    if command == "hole":
        return _HOLE_KINDS[spec["kind"]](seed=seed, **spec["params"])
    if command == "preset":
        return make_preset(spec["name"], seed=seed, **spec["params"])
    raise ParameterError(f"manifest has unknown command '{command}'")


def _tupled(params: dict) -> dict:
    return {k: tuple(v) if isinstance(v, list) else v for k, v in params.items()}


def _load_json(path: str, what: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ParameterError(f"{what} not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ParameterError(
            f"{what} {path} is not valid JSON: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None


def cmd_generate(args) -> int:
    if args.from_manifest:
        man = _load_json(args.from_manifest, "manifest")
        try:
            ds = _regenerate_from_spec(man["command"], man["spec"], man["seed"])
        except KeyError as exc:
            raise ParameterError(f"manifest is missing field {exc}") from None
        out = Path(args.out) if args.out else Path(man["output_path"])
        _emit(ds, out, man.get("format", "csv"), man["command"], man["seed"], man["spec"])
        return 0
    if not args.shape:
        raise ParameterError("generate needs a shape kind (or --from-manifest)")
    if args.n is None:
        raise ParameterError("generate needs --n")
    params = _collect_shape_params(args, args.shape)
    seed = _resolve_seed(args)
    ds = generate(args.shape, n=args.n, seed=seed, **params)
    # Defaults are recorded too, so the manifest pins every value.
    spec = {
        "kind": args.shape,
        "n": args.n,
        "params": {**shape_info(args.shape).defaults, **params},
    }
    _emit(ds, _out_path(args, args.shape), args.format, "generate", seed, spec)
    return 0


def cmd_multicluster(args) -> int:
    cfg = _load_json(args.config, "config")
    spec = MultiClusterSpec.from_dict(cfg)
    seed = _resolve_seed(args)
    ds = gen_multicluster(spec, seed=seed, shuffle=not args.no_shuffle)
    payload = {"config": cfg, "shuffle": not args.no_shuffle}
    _emit(ds, _out_path(args, "multicluster"), args.format, "multicluster", seed, payload)
    return 0


def cmd_hole(args) -> int:
    params = {"n": args.n, "r_hole": args.r_hole}
    if args.kind == "unifcube":
        params["p"] = args.p if args.p is not None else 3
    elif args.p is not None:
        raise ParameterError("flag --p is not valid for hole kind 'scurve'")
    seed = _resolve_seed(args)
    ds = _HOLE_KINDS[args.kind](seed=seed, **params)
    spec = {"kind": args.kind, "params": params}
    _emit(ds, _out_path(args, f"{args.kind}hole"), args.format, "hole", seed, spec)
    return 0


def cmd_preset(args) -> int:
    seed = _resolve_seed(args)
    params = {k: getattr(args, k) for k in ("n", "k", "p") if getattr(args, k) is not None}
    ds = make_preset(args.name, seed=seed, **params)
    spec = {"name": args.name, "params": params}
    _emit(ds, _out_path(args, args.name), args.format, "preset", seed, spec)
    return 0


def cmd_list(args) -> int:
    if args.presets:
        for name, (_, params, desc) in PRESETS.items():
            print(f"{name}: {', '.join(params)}  # {desc}")
    else:
        for name, info in SHAPES.items():
            print(f"{name}: {', '.join(('n',) + info.params)}")
    return 0


_HANDLERS = {
    "generate": cmd_generate,
    "multicluster": cmd_multicluster,
    "hole": cmd_hole,
    "preset": cmd_preset,
    "list": cmd_list,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
