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
import shutil
import sys
import tempfile
import typing
import warnings
from datetime import datetime, timezone
from functools import partial
from itertools import repeat
from pathlib import Path

import numpy as np

from . import OUTPUT_VERSION, __version__
from .composer import PRESETS, MultiClusterSpec, gen_multicluster, make_preset, preset_info
from .core import ParameterError, _cpu_count
from .shapes import SHAPES, ShapeInfo, generate, shape_info
from .topology import HOLES

__all__ = ["main"]


# ---------------------------------------------------------------------------
# Output writers


# Rows formatted per write: bounds each process's memory whatever n is.
# Rows are shared out among processes in whole chunks.
_CHUNK_ROWS = 1024


def _shares(n: int) -> list[range]:
    """Rows 0..n cut into contiguous, chunk-aligned ranges, one per process
    that formats them: one per CPU this process may run on (`core._cpu_count`),
    but no more than there are chunks, and one where `os.fork` is missing."""
    chunks = -(-n // _CHUNK_ROWS)
    workers = max(1, min(chunks, _cpu_count() if hasattr(os, "fork") else 1))
    cuts = [chunks * i // workers * _CHUNK_ROWS for i in range(workers)] + [n]
    return [range(lo, hi) for lo, hi in zip(cuts, cuts[1:])]


def _format_rows(fh, ds, template: str, tails: tuple[str, ...], rows: range) -> None:
    """Write ``template % row + tails[code]`` for each row in `rows`, in chunks.

    `template` holds one ``%r`` per column; ``%r`` of a Python float is its
    shortest round-trip form. `tails` ends the row and holds the formatted
    label of each category, so a label is formatted once, not once per row.
    An unlabeled dataset passes a single tail.
    """
    for start in range(rows.start, rows.stop, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, rows.stop)
        points = ds.points[start:stop].tolist()
        codes = repeat(0) if ds.codes is None else ds.codes[start:stop].tolist()
        fh.write("".join([template % tuple(row) + tails[c] for row, c in zip(points, codes)]))


def _format_in_child(open_text, tmp, ds, template, tails, rows: range) -> typing.NoReturn:
    """Format `rows` into the temporary file `tmp`, then end the forked
    child: it never returns into the code that forked it."""
    code = 1
    try:
        with open_text(tmp.fileno(), closefd=False) as out:
            _format_rows(out, ds, template, tails, rows)
        code = 0
    except BaseException as exc:
        os.write(2, f"error formatting rows {rows.start} to {rows.stop - 1}: {exc!r}\n".encode())
    finally:
        os._exit(code)


def _write_rows(path, head: str, ds, template: str, tails: tuple[str, ...], newline: str | None) -> None:
    """Write `head`, then every row of `ds`, to `path`, on every CPU available.

    The parent formats the first share of rows (see `_shares`) straight into
    the file. It forks one child per later share, which formats its rows
    into an anonymous temporary file beside `path`; the parent appends those
    files in row order as their children exit. Every row is formatted the
    same way whichever process formats it, so the bytes do not depend on
    the number of processes. A child that fails makes the write raise
    OSError; if the parent fails, it kills and reaps its children first.
    Forking is safe because the CLI runs a single thread.
    """
    open_text = partial(open, mode="w", encoding="utf-8", newline=newline)
    first, *rest = _shares(ds.n)
    children = []  # (pid, temporary file, rows) not yet reaped, in row order
    with open_text(path) as fh:
        fh.write(head)
        try:
            for rows in rest:
                tmp = tempfile.TemporaryFile(dir=os.path.dirname(path) or ".")
                fh.flush()  # nothing buffered for the child to inherit
                pid = os.fork()
                if pid == 0:
                    _format_in_child(open_text, tmp, ds, template, tails, rows)
                children.append((pid, tmp, rows))
            _format_rows(fh, ds, template, tails, first)
            fh.flush()  # the children's bytes go to fh.buffer after it
            while children:
                pid, tmp, rows = children[0]
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                del children[0]
                with tmp:
                    if code:
                        what = f"the process formatting rows {rows.start} to {rows.stop - 1}"
                        raise OSError(f"{what} exited with code {code}")
                    tmp.seek(0)
                    shutil.copyfileobj(tmp, fh.buffer)
        except BaseException:
            import signal  # only a failed write needs it; start-up does not pay for it

            for pid, tmp, _ in children:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                tmp.close()
            raise


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
    _write_rows(path, header + "\r\n", ds, ",".join(["%r"] * ds.p), tails, newline="")


def write_ndjson(ds, path) -> None:
    template = "{" + ",".join(f"{json.dumps(name)}:%r" for name in ds.column_names)
    if ds.codes is None:
        tails = ("}\n",)
    else:
        tails = tuple(f',"cluster":{json.dumps(name)}}}\n' for name in ds.categories)
    _write_rows(path, "", ds, template, tails, newline=None)


_WRITERS = {"csv": write_csv, "ndjson": write_ndjson}


def write_manifest(out_path: Path, command: str, seed: int, spec: dict, fmt: str, ds,
                   warned: list) -> Path:
    manifest = {
        "tool_version": __version__,
        "output_version": OUTPUT_VERSION,
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "command": command,
        "seed": int(seed),
        "spec": spec,
        "output_path": str(out_path),
        "format": fmt,
        "row_count": ds.n,
        "col_count": ds.p,
        "warnings": warned,
        "created_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    man_path = Path(str(out_path) + ".manifest.json")
    with open(man_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return man_path


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


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _add_param_flags(parser, infos, given: tuple[str, ...] = ()) -> None:
    """Add a flag, typed by `ShapeInfo.kinds`, for each parameter of `infos`
    but `given`. Flags default to None, so only values the user sets are
    passed on; one without a default is required. `args.param_flags` names them all."""
    names = list(given)
    for info in infos:
        for name, (kind, nargs) in info.kinds.items():
            if name in names or kind is None:  # None: no way to parse gaussian's matrix `s`
                continue
            if kind is bool:
                parser.add_argument(_flag(name), action="store_true", default=None)
            else:
                parser.add_argument(_flag(name), type=kind, nargs=nargs, required=name not in info.defaults)
            names.append(name)
    parser.set_defaults(param_flags=tuple(names))


def _provided(args, accepted: tuple[str, ...], target: str) -> dict:
    """The parameter flags the user set, by parameter name; a set flag that
    `target` does not accept raises ParameterError."""
    provided = {name: getattr(args, name) for name in args.param_flags if getattr(args, name) is not None}
    bad = sorted(set(provided) - set(accepted))
    if bad:
        flags = ", ".join(_flag(name) for name in accepted if name in args.param_flags)
        raise ParameterError(f"flag(s) {', '.join(map(_flag, bad))} not valid for {target} (accepts: {flags})")
    return provided


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdshapes",
        description="Generate high-dimensional geometric benchmark datasets.",
        epilog="Parameter flags follow the generator signatures that `hdshapes list` shows.",
    )
    parser.add_argument("--version", action="version", version=f"hdshapes {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, help="64-bit seed (default: $HDSHAPES_SEED or entropy)")
    common.add_argument("--out", help="output data file path")
    # None, not "csv", so a replay can tell a --format the user set.
    common.add_argument("--format", choices=tuple(_WRITERS), help="output format (default: csv)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", parents=[common], help="generate a single shape")
    p_gen.add_argument("shape", nargs="?", help="shape kind (see `hdshapes list`)")
    p_gen.add_argument("--n", type=int, help="number of points")
    p_gen.add_argument("--from-manifest", dest="from_manifest", help="re-run a recorded manifest")
    _add_param_flags(p_gen, SHAPES.values(), given=("n",))

    p_multi = sub.add_parser("multicluster", parents=[common], help="compose clusters from a JSON config")
    p_multi.add_argument("config", help="JSON file describing the scene")
    p_multi.add_argument("--no-shuffle", action="store_true", help="keep clusters in block order")

    p_hole = sub.add_parser("hole", parents=[common], help="generate a shape with a hyperspherical hole")
    p_hole.add_argument("kind", choices=tuple(HOLES), help="holed wrapper shape")
    _add_param_flags(p_hole, HOLES.values())

    p_preset = sub.add_parser("preset", parents=[common], help="generate a named preset scene")
    p_preset.add_argument("name", help="preset name (see `hdshapes list --presets`)")
    _add_param_flags(p_preset, PRESETS.values())

    p_list = sub.add_parser("list", help="list available shapes or presets")
    p_list.add_argument("--presets", action="store_true", help="list preset scenes instead")
    return parser


# ---------------------------------------------------------------------------
# Building and writing


def _field(obj: dict, key: str):
    try:
        return obj[key]
    except KeyError:
        raise ParameterError(f"manifest is missing field '{key}'") from None


def _hole_info(kind) -> ShapeInfo:
    if not isinstance(kind, str) or kind not in HOLES:
        raise ParameterError(f"unknown hole kind '{kind}'; available kinds: {', '.join(HOLES)}")
    return HOLES[kind]


# command: (spec field naming the target, its lookup, the call that builds it
# and checks its parameters, looking `generate` and `make_preset` up when it runs)
_TARGETS = {
    "generate": ("kind", shape_info, lambda kind, **params: generate(kind, **params)),
    "hole": ("kind", _hole_info, lambda kind, **params: HOLES[kind].func(**params)),
    "preset": ("name", preset_info, lambda name, **params: make_preset(name, **params)),
}

_SPEC_KEYS = {
    "generate": ("kind", "n", "params"),
    "hole": ("kind", "params"),
    "preset": ("name", "params"),
    "multicluster": ("config", "shuffle"),
}


def _build(command: str, spec, seed):
    """Turn (command, spec, seed) into a Dataset: the only such path, for
    fresh runs and `--from-manifest` replays alike, so a replay cannot
    drift from the run that wrote its manifest."""
    if not isinstance(spec, dict):
        raise ParameterError("manifest field 'spec' must be a JSON object")
    if not isinstance(command, str) or command not in _SPEC_KEYS:
        raise ParameterError(f"manifest has unknown command {command!r}")
    bad = sorted(set(spec) - set(_SPEC_KEYS[command]))
    if bad:
        raise ParameterError(
            f"manifest spec has {', '.join(bad)}, not accepted by {command} "
            f"(accepts: {', '.join(_SPEC_KEYS[command])})"
        )
    if command == "multicluster":
        config, shuffle = MultiClusterSpec.from_dict(_field(spec, "config")), spec.get("shuffle", True)
        if not isinstance(shuffle, bool):
            raise ParameterError(f"shuffle must be true or false, got {shuffle!r}")
        return gen_multicluster(config, seed=seed, shuffle=shuffle)
    params = _field(spec, "params")
    if not isinstance(params, dict):
        raise ParameterError("manifest field 'spec.params' must be a JSON object")
    field, lookup, call = _TARGETS[command]
    name = _field(spec, field)
    info = lookup(name)
    for key in ("seed", field, "n") if command == "generate" else ("seed", field):
        if key in params:  # a manifest field of its own
            raise ParameterError(f"manifest spec.params has {key}, not accepted by {command}")
    if command == "generate":
        params = {"n": _field(spec, "n"), **params}
    for required in info.kinds.keys() - info.defaults.keys():  # a hole's n
        _field(params, required)
    return call(name, seed=seed, **params)


def _emit(out_path: Path, fmt: str, command: str, seed: int, spec: dict) -> int:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ds = _build(command, spec, seed)
    warned = [str(w.message) for w in caught]
    for message in warned:
        print(f"warning: {message}", file=sys.stderr)
    _WRITERS[fmt](ds, out_path)
    write_manifest(out_path, command, seed, spec, fmt, ds, warned)
    print(f"wrote {out_path} ({ds.n} rows x {ds.p} cols, seed={seed})")
    return 0


def _run(args, command: str, spec: dict, default_stem: str) -> int:
    seed = _resolve_seed(args)
    fmt = args.format or "csv"
    out = Path(args.out) if args.out is not None else Path(f"{default_stem}.{fmt}")
    return _emit(out, fmt, command, seed, spec)


def _load_json(path: str, what: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ParameterError(f"{what} not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ParameterError(
            f"{what} {path} is not valid JSON: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None


# ---------------------------------------------------------------------------
# Command handlers: each builds its spec


def cmd_generate(args) -> int:
    if args.from_manifest:
        flags = (*args.param_flags, "seed", "format")
        given = [_flag(name) for name in flags if getattr(args, name) is not None]
        if args.shape:
            given.append(f"shape '{args.shape}'")
        if given:
            raise ParameterError(f"--from-manifest replays the recorded spec; drop {', '.join(given)}")
        man = _load_json(args.from_manifest, "manifest")
        if not isinstance(man, dict):
            raise ParameterError(f"manifest {args.from_manifest} must be a JSON object")
        fmt = man.get("format", "csv")
        if not isinstance(fmt, str) or fmt not in _WRITERS:
            raise ParameterError(f"manifest field 'format' must be one of {', '.join(_WRITERS)}, got {fmt!r}")
        # A replay needs the recorded seed: as_stream would read None as
        # "draw a fresh one" (it refuses every other wrong kind itself).
        seed = _field(man, "seed")
        if seed is None:
            raise ParameterError("manifest field 'seed' must be an integer, got None")
        if not isinstance(man.get("output_path", ""), str):
            raise ParameterError(f"manifest field 'output_path' must be a string, got {man['output_path']!r}")
        out = Path(args.out or _field(man, "output_path"))
        return _emit(out, fmt, _field(man, "command"), seed, _field(man, "spec"))
    if not args.shape:
        raise ParameterError("generate needs a shape kind (or --from-manifest)")
    info = shape_info(args.shape)
    # Defaults are recorded too, so the manifest pins every value.
    params = {**info.defaults, **_provided(args, tuple(info.kinds), f"shape '{args.shape}'")}
    n = params.pop("n", None)
    if n is None:
        raise ParameterError("generate needs --n")
    return _run(args, "generate", {"kind": args.shape, "n": n, "params": params}, args.shape)


def cmd_multicluster(args) -> int:
    spec = {"config": _load_json(args.config, "config"), "shuffle": not args.no_shuffle}
    return _run(args, "multicluster", spec, "multicluster")


def cmd_hole(args) -> int:
    info = HOLES[args.kind]
    params = _provided(args, tuple(info.kinds), f"hole kind '{args.kind}'")
    spec = {"kind": args.kind, "params": {**info.defaults, **params}}
    return _run(args, "hole", spec, f"{args.kind}hole")


def cmd_preset(args) -> int:
    info = preset_info(args.name)
    params = _provided(args, tuple(info.kinds), f"preset '{args.name}'")
    return _run(args, "preset", {"name": args.name, "params": {**info.defaults, **params}}, args.name)


def cmd_list(args) -> int:
    for name, info in (PRESETS if args.presets else SHAPES).items():
        note = f"  # {info.description}" if args.presets else ""
        print(f"{name}: {', '.join(('n',) + info.params)}{note}")
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
