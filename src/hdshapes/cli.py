"""Command-line front-end.

Subcommands: generate (any single shape), multicluster (JSON config),
hole (the two holed wrapper shapes), preset (named scenes), list. One
`_TARGETS` entry per target command (generate, hole, preset) drives the
parser, the fresh run and the replay. Every data-writing command emits
`<out>.manifest.json` recording the tool and output versions, the numpy
and python versions, the seed, and the fully resolved spec, so
`generate --from-manifest` reproduces the data file byte for byte. Each
file is written beside its target under a temporary name and renamed into
place, so a failed or interrupted run leaves no partial file.

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
from pathlib import Path

import numpy as np

from . import OUTPUT_VERSION, __version__
from .composer import PRESETS, MultiClusterSpec, gen_multicluster, make_preset, preset_info
from .core import ParameterError, _cpu_count
from .shapes import SHAPES, generate, shape_info
from .topology import HOLES, hole_info

__all__ = ["main"]


# ---------------------------------------------------------------------------
# Output writers


# Rows are shared out among processes in whole chunks (see `_shares`).
_CHUNK_ROWS = 1024

# Rows are formatted and written in blocks of about this many bytes before
# their padding is dropped: bounds each process's memory whatever n, p and
# the labels are.
_BLOCK_BYTES = 1 << 18


def _shares(n: int) -> list[range]:
    """Rows 0..n cut into contiguous, chunk-aligned ranges, one per process
    that formats them: one per CPU this process may run on (`core._cpu_count`),
    but no more than there are chunks, and one where `os.fork` is missing."""
    chunks = -(-n // _CHUNK_ROWS)
    workers = max(1, min(chunks, _cpu_count() if hasattr(os, "fork") else 1))
    cuts = [chunks * i // workers * _CHUNK_ROWS for i in range(workers)] + [n]
    return [range(lo, hi) for lo, hi in zip(cuts, cuts[1:])]


def _padded(texts) -> tuple[np.ndarray, np.ndarray]:
    """`texts` as UTF-8 bytes, one row each, NUL-padded to the longest, and
    a mask of the bytes that are theirs."""
    encoded = [text.encode() for text in texts]
    width = max(map(len, encoded), default=0)
    padded = np.frombuffer(b"".join(b.ljust(width, b"\0") for b in encoded), dtype=np.uint8)
    lengths = np.array([len(b) for b in encoded])
    return padded.reshape(len(encoded), width), np.arange(width) < lengths[:, None]


def _format_rows(fh, ds, heads: tuple[str, ...], tails: tuple[str, ...], rows: range) -> None:
    """Write each row in `rows` to `fh` as UTF-8 bytes, a block of rows at a time:
    ``heads[j]`` before column j's value, then ``tails[code]``.

    Each value is written as its repr, the shortest round-trip form, from
    `_shortest.fields`. `tails` ends the row and holds the formatted label
    of each category, so a label is formatted once, not once per row. An
    unlabeled dataset passes a single tail.

    Heads, values and tails are laid side by side in one NUL-padded array
    per block, and the padding is dropped. Heads hold no NUL byte (a comma,
    or a column name through `json.dumps`, which escapes it), so their
    padding goes with the values'. A tail's padding is found by its length
    instead, so a NUL byte in a label is written as it is.
    """
    from ._shortest import WIDTH, fields  # only writing needs it; start-up does not pay for it

    head, _ = _padded(heads)
    tail, tail_kept = _padded(tails)
    cell = head.shape[1] + WIDTH
    width = ds.p * cell + tail.shape[1]
    block = max(1, _BLOCK_BYTES // width)
    for start in range(rows.start, rows.stop, block):
        stop = min(start + block, rows.stop)
        line = np.empty((stop - start, width), dtype=np.uint8)
        cells = line[:, : ds.p * cell].reshape(stop - start, ds.p, cell)
        cells[:, :, : head.shape[1]] = head
        cells[:, :, head.shape[1] :] = fields(ds.points[start:stop]).reshape(stop - start, ds.p, WIDTH)
        codes = 0 if ds.codes is None else ds.codes[start:stop]
        line[:, ds.p * cell :] = tail[codes]
        kept = line != 0
        kept[:, ds.p * cell :] = tail_kept[codes]
        fh.write(line[kept].tobytes())


def _format_in_child(tmp, ds, heads, tails, rows: range) -> typing.NoReturn:
    """Format `rows` into the temporary file `tmp`, then end the forked
    child: it never returns into the code that forked it."""
    code = 1
    try:
        _format_rows(tmp, ds, heads, tails, rows)
        tmp.flush()
        code = 0
    except BaseException as exc:
        os.write(2, f"error formatting rows {rows.start} to {rows.stop - 1}: {exc!r}\n".encode())
    finally:
        os._exit(code)


def _write_rows(path, head: str, ds, heads: tuple[str, ...], tails: tuple[str, ...]) -> None:
    """Write `head`, then every row of `ds`, to `path` as UTF-8 bytes, on every CPU available.

    The parent formats the first share of rows (see `_shares`) straight into
    the file. It forks one child per later share, which formats its rows
    into an anonymous temporary file beside `path`; the parent appends those
    files in row order as their children exit. Every row is formatted the
    same way whichever process formats it, so the bytes do not depend on
    the number of processes. A child that fails makes the write raise
    OSError; if the parent fails, it kills and reaps its children first.
    Forking is safe because the CLI runs a single thread; a child ends by
    `os._exit`, so it never flushes what the parent had buffered.
    """
    first, *rest = _shares(ds.n)
    children = []  # (pid, temporary file, rows) not yet reaped, in row order
    with open(path, "wb") as fh:
        fh.write(head.encode())
        try:
            for rows in rest:
                tmp = tempfile.TemporaryFile(dir=os.path.dirname(path) or ".")
                pid = os.fork()
                if pid == 0:
                    _format_in_child(tmp, ds, heads, tails, rows)
                children.append((pid, tmp, rows))
            _format_rows(fh, ds, heads, tails, first)
            while children:
                pid, tmp, rows = children[0]
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                del children[0]
                with tmp:
                    if code:
                        what = f"the process formatting rows {rows.start} to {rows.stop - 1}"
                        raise OSError(f"{what} exited with code {code}")
                    tmp.seek(0)
                    shutil.copyfileobj(tmp, fh)
        except BaseException:
            import signal  # only a failed write needs it; start-up does not pay for it

            for pid, tmp, _ in children:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                tmp.close()
            raise


def _write_table(ds, path, header: str, opener: str, keys: tuple[str, ...], label, closer: str) -> None:
    """Write `header`, then each row of `ds`: `opener`, its fields joined by
    ",", then `closer`. Column j's field is ``keys[j]`` and its value. The
    label, if any, is one more field, `label(name)`: after the columns' ","
    when there is a column, after the opener when there is none."""
    heads = tuple(("," if j else opener) + key for j, key in enumerate(keys))
    if ds.codes is None:
        tails = (closer if heads else opener + closer,)
    else:
        lead = "," if heads else opener
        tails = tuple(lead + label(name) + closer for name in ds.categories)
    _write_rows(path, header, ds, heads, tails)


def _csv_field(name: str, lone: bool) -> str:
    """`name` quoted as csv quotes the last field of a row: a lone empty
    field is written as ``""``, so its row is not blank."""
    buf = io.StringIO()
    csv.writer(buf).writerow([name] if lone else ["", name])
    return buf.getvalue()[not lone : -2]  # less the "," before it and the "\r\n" after


def write_csv(ds, path) -> None:
    names = ds.column_names if ds.codes is None else (*ds.column_names, "cluster")
    header = ",".join(names)
    _write_table(ds, path, header + "\r\n", "", ("",) * ds.p, partial(_csv_field, lone=not ds.p), "\r\n")


def write_ndjson(ds, path) -> None:
    keys = tuple(f"{json.dumps(name)}:" for name in ds.column_names)
    _write_table(ds, path, "", "{", keys, lambda name: f'"cluster":{json.dumps(name)}', "}\n")


_WRITERS = {"csv": write_csv, "ndjson": write_ndjson}


def write_manifest(out_path: Path, command: str, seed: int, spec: dict, fmt: str, ds, warned: list) -> None:
    text = json.dumps({
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
    }, indent=2)
    _write_whole(_manifest_path(out_path), lambda tmp: tmp.write_bytes(f"{text}\n".encode()))


def _manifest_path(out_path) -> Path:
    return Path(f"{out_path}.manifest.json")


def _write_whole(path: Path, write, stale: Path | None = None) -> None:
    """Write `path` whole or not at all: `write(tmp)` fills a new file beside
    it under a random name, made by `open` so that the umask sets its mode,
    then `stale`, if given, is removed and the file is renamed onto `path`.
    On any exception, an interrupt included, the new file is removed; an OSError names `path` instead."""
    # Not named after `path`, so a long target name cannot push it past the
    # file system's limit on name length.
    tmp = path.parent / f".hdshapes-{secrets.token_hex(8)}.tmp"
    try:
        open(tmp, "x").close()
        try:
            write(tmp)
            if stale is not None:
                stale.unlink(missing_ok=True)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        if exc.filename != str(tmp):
            raise
        raise type(exc)(exc.errno, exc.strerror, str(path)) from None


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
    p_gen.add_argument("kind", nargs="?", metavar="shape", help="shape kind (see `hdshapes list`)")
    p_gen.add_argument("--n", type=int, help="number of points")
    p_gen.add_argument("--from-manifest", dest="from_manifest", help="re-run a recorded manifest")

    p_multi = sub.add_parser("multicluster", parents=[common], help="compose clusters from a JSON config")
    p_multi.add_argument("config", help="JSON file describing the scene")
    p_multi.add_argument("--no-shuffle", action="store_true", help="keep clusters in block order")
    p_multi.set_defaults(handler=cmd_multicluster)

    p_hole = sub.add_parser("hole", parents=[common], help="generate a shape with a hyperspherical hole")
    p_hole.add_argument("kind", choices=tuple(HOLES), help="holed wrapper shape")

    p_preset = sub.add_parser("preset", parents=[common], help="generate a named preset scene")
    p_preset.add_argument("name", help="preset name (see `hdshapes list --presets`)")

    # A flag, typed by `ShapeInfo.kinds`, per registry parameter that is not a
    # spec field (generate's n). Flags default to None, so only values the user
    # sets are passed on; one without a default is required.
    for command, sub_parser in (("generate", p_gen), ("hole", p_hole), ("preset", p_preset)):
        registry, _, fields, *_ = _TARGETS[command]
        names = list(fields[1:])
        for info in registry.values():
            for name, (kind, nargs) in info.kinds.items():
                if name in names or kind is None:  # None: no way to parse gaussian's matrix `s`
                    continue
                if kind is bool:
                    sub_parser.add_argument(_flag(name), action="store_true", default=None)
                else:
                    sub_parser.add_argument(_flag(name), type=kind, nargs=nargs, required=name not in info.defaults)
                names.append(name)
        sub_parser.set_defaults(handler=cmd_target, param_flags=tuple(names))

    p_list = sub.add_parser("list", help="list available shapes or presets")
    p_list.add_argument("--presets", action="store_true", help="list preset scenes instead")
    p_list.set_defaults(handler=cmd_list)
    return parser


# ---------------------------------------------------------------------------
# Building and writing


def _field(obj: dict, key: str):
    try:
        return obj[key]
    except KeyError:
        raise ParameterError(f"manifest is missing field '{key}'") from None


# command: (registry, its lookup, the spec fields beside `params` (the one
# naming the target, which is also its positional argument, then any parameter
# recorded on its own), the default file stem, and the call that builds the
# target and checks its parameters, looking up `generate` and `make_preset` as
# it runs)
_TARGETS = {
    "generate": (SHAPES, shape_info, ("kind", "n"), "{}", lambda kind, **params: generate(kind, **params)),
    "hole": (HOLES, hole_info, ("kind",), "{}hole", lambda kind, **params: HOLES[kind].func(**params)),
    "preset": (PRESETS, preset_info, ("name",), "{}", lambda name, **params: make_preset(name, **params)),
}

_SPEC_KEYS = {command: (*fields, "params") for command, (_, _, fields, *_) in _TARGETS.items()}
_SPEC_KEYS["multicluster"] = ("config", "shuffle")


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
        config = MultiClusterSpec.from_dict(_field(spec, "config"))
        return gen_multicluster(config, seed=seed, shuffle=spec.get("shuffle", True))
    params = _field(spec, "params")
    if not isinstance(params, dict):
        raise ParameterError("manifest field 'spec.params' must be a JSON object")
    _, lookup, fields, _, build = _TARGETS[command]
    name = _field(spec, fields[0])
    info = lookup(name)
    for key in ("seed", *fields):
        if key in params:  # a manifest field of its own
            raise ParameterError(f"manifest spec.params has {key}, not accepted by {command}")
    params = {**{key: _field(spec, key) for key in fields[1:]}, **params}
    for required in info.kinds.keys() - info.defaults.keys():  # a hole's n
        _field(params, required)
    return build(name, seed=seed, **params)


def _emit(man: dict, out: str | None) -> int:
    """Build, write and record the run `man` describes, a replayed manifest
    or a fresh run's; `out`, from --out, replaces its output path."""
    fmt = man.get("format", "csv")
    if not isinstance(fmt, str) or fmt not in _WRITERS:
        raise ParameterError(f"manifest field 'format' must be one of {', '.join(_WRITERS)}, got {fmt!r}")
    seed = _field(man, "seed")
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ParameterError(f"manifest field 'seed' must be an integer, got {seed!r}")
    # The recorded path is checked even where --out replaces it; Path("") is the working directory.
    if not isinstance(man.get("output_path", ""), str):
        raise ParameterError(f"manifest field 'output_path' must be a string, got {man['output_path']!r}")
    if man.get("output_path") == "":
        raise ParameterError("manifest field 'output_path' must not be empty")
    if out == "":
        raise ParameterError("--out must not be empty")
    out = _field(man, "output_path") if out is None else out
    command, spec = _field(man, "command"), _field(man, "spec")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ds = _build(command, spec, seed)
    warned = [str(w.message) for w in caught]
    for message in warned:
        print(f"warning: {message}", file=sys.stderr)
    out = Path(out)
    # The old manifest goes just before the new data replaces the old, so no
    # manifest ever sits beside bytes it does not describe.
    _write_whole(out, partial(_WRITERS[fmt], ds), stale=_manifest_path(out))
    write_manifest(out, command, seed, spec, fmt, ds, warned)
    print(f"wrote {out} ({ds.n} rows x {ds.p} cols, seed={seed})")
    return 0


def _run(args, command: str, spec: dict, stem: str) -> int:
    seed, fmt = _resolve_seed(args), args.format or "csv"
    return _emit(dict(command=command, seed=seed, spec=spec, format=fmt, output_path=f"{stem}.{fmt}"), args.out)


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


def _replay(args) -> dict:
    given = [_flag(key) for key in (*args.param_flags, "seed", "format") if getattr(args, key) is not None]
    if args.kind:
        given.append(f"shape '{args.kind}'")
    if given:
        raise ParameterError(f"--from-manifest replays the recorded spec; drop {', '.join(given)}")
    man = _load_json(args.from_manifest, "manifest")
    if not isinstance(man, dict):
        raise ParameterError(f"manifest {args.from_manifest} must be a JSON object")
    return man


def cmd_target(args) -> int:
    """A fresh run of generate, hole or preset, or a generate replay."""
    if args.command == "generate":  # its shape is optional, for a replay
        if args.from_manifest:
            return _emit(_replay(args), args.out)
        if not args.kind:
            raise ParameterError("generate needs a shape kind (or --from-manifest)")
    _, lookup, fields, stem, _ = _TARGETS[args.command]
    name = getattr(args, fields[0])
    info = lookup(name)
    given = {key: getattr(args, key) for key in args.param_flags if getattr(args, key) is not None}
    bad = sorted(given.keys() - info.kinds.keys())
    if bad:
        flags = ", ".join(_flag(key) for key in info.kinds if key in args.param_flags)
        raise ParameterError(f"flag(s) {', '.join(map(_flag, bad))} not valid for {info.what} (accepts: {flags})")
    # Defaults are recorded too, so the manifest pins every value.
    params = {**info.defaults, **given}
    spec = {fields[0]: name, **{key: params.pop(key, None) for key in fields[1:]}}
    for key in fields[1:]:
        if spec[key] is None:
            raise ParameterError(f"{args.command} needs {_flag(key)}")
    return _run(args, args.command, {**spec, "params": params}, stem.format(name))


def cmd_multicluster(args) -> int:
    spec = {"config": _load_json(args.config, "config"), "shuffle": not args.no_shuffle}
    return _run(args, "multicluster", spec, "multicluster")


def cmd_list(args) -> int:
    for name, info in (PRESETS if args.presets else SHAPES).items():
        note = f"  # {info.description}" if args.presets else ""
        print(f"{name}: {', '.join(('n',) + info.params)}{note}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
