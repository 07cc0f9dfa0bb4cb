"""Fresh-interpreter worker for run.py.

Runs one workload's passes and writes what it saw to a JSON file: for each
pass, its wall time and, per operation, the output facts or the error.

Without --traced it makes the end-to-end run. Library operations run in
this process, whose peak memory is the workload's; cli_export runs each
operation as its own `python3 -m hdshapes` process, one at a time, and
records each one's peak memory. Between passes it times the set-up probes,
spread evenly over the run so that they see the same machine as the passes.

With --traced it alternates an untraced and a traced pass; CLI operations
then call `hdshapes.cli.main` in-process, because spans cannot be recorded
inside a subprocess.

Usage: python3 bench/worker.py --workload NAME --seed N --seconds S
       --outdir DIR --result FILE [--traced] [--smoke]
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import procs
import tracer
import workloads

CLI_SETUP = ("-m", "hdshapes", "list")
LIB_SETUP = ("-c", "import hdshapes; hdshapes.gen_gaussian(16, p=2, seed=0)")
# Each set-up probe is paired with this reference process, which runs no
# hdshapes code: a fresh interpreter imports numpy (most of hdshapes'
# start-up), then does a fixed amount of array work and float formatting (the
# kinds of work the workloads do) and prints how long that work took. run.py
# scales the times it reports by it, which takes out much of the host's
# speed swings.
REFERENCE = ("-c", "import time; import numpy as np; t = time.perf_counter(); "
                   "x = np.random.default_rng(0).standard_normal((50000, 8)); "
                   "np.exp(np.sin(x)).sum(); np.sort(x, axis=0).cumsum(axis=0); "
                   "'\\n'.join(','.join(map(repr, r)) for r in x[:5000].tolist()); "
                   "print(time.perf_counter() - t)")


def _call(op):
    if isinstance(op, workloads.CliOp):
        from hdshapes import cli

        try:
            return cli.main(list(op.args))
        except SystemExit as exc:  # argparse rejects bad arguments this way
            return exc.code
    return op()


def run_op(op, in_process: bool) -> tuple[float, dict]:
    """Time one operation; return (seconds, facts or error)."""
    extra, detail = {}, ""
    if isinstance(op, workloads.CliOp) and not in_process:
        child = procs.run_child(("-m", "hdshapes", *op.args))
        elapsed, code = child.wall, child.code
        extra, detail = {"peak_rss_mb": child.peak_rss_mb}, f": {child.stderr.strip()[-300:]}"
    else:
        start = perf_counter()
        try:
            result = _call(op)
        except Exception as exc:  # any exception is a failed operation, counted by run.py
            return perf_counter() - start, {"error": f"{type(exc).__name__}: {exc}"}
        elapsed = perf_counter() - start
        if not isinstance(op, workloads.CliOp):
            return elapsed, workloads.dataset_facts(result)
        code = result
    if code != 0:
        return elapsed, {"error": f"exit code {code}{detail}", **extra}
    if not op.out.is_file():
        return elapsed, {"error": f"exit code 0 but {op.out.name} was not written", **extra}
    return elapsed, {**workloads.file_facts(op.out), **extra}


def run_pass(ops, in_process: bool) -> dict:
    wall, results = 0.0, []
    for op in ops:
        seconds, facts = run_op(op, in_process)
        wall += seconds
        results.append({"name": op.name, "seconds": seconds, **facts})
        if isinstance(op, workloads.CliOp):
            op.out.unlink(missing_ok=True)  # manifests stay for the replay
    return {"wall": wall, "ops": results}


def setup_pair(probe, reference_first: bool) -> list[float]:
    """[set-up probe seconds, reference start-up seconds, reference work seconds],
    the two processes run in the given order."""
    children = {}
    for args in (REFERENCE, probe) if reference_first else (probe, REFERENCE):
        children[args] = procs.run_child(args)
        if children[args].code != 0:
            raise RuntimeError(f"set-up probe {args} failed: {children[args].stderr.strip()}")
    reference = children[REFERENCE]
    work = float(reference.stdout)
    return [children[probe].wall, reference.wall - work, work]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--outdir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    min_passes = 1 if args.smoke else 3
    probes = 0 if args.traced else 1 if args.smoke else 10
    probe = CLI_SETUP if args.workload == "cli_export" else LIB_SETUP

    import hdshapes.cli  # noqa: F401  (import time is set-up, not pass time)

    ops = workloads.build(args.workload, args.seed, args.smoke, args.outdir)
    out = {"passes": [], "traced": [], "layers": [], "spans": [], "missing_wrap_points": [],
           "setup": []}
    if probes:
        setup_pair(probe, True)  # warm-up: the first import may compile bytecode
    start = perf_counter()
    while True:
        done = len(out["passes"])
        # Traced and untraced passes alternate in ABBA order, so neither
        # side always runs first.
        order = (False, True) if done % 2 == 0 else (True, False)
        for traced in order if args.traced else (False,):
            if not traced:
                out["passes"].append(run_pass(ops, in_process=args.traced))
                continue
            tr = tracer.Tracer()
            tracer.install(tr)
            try:
                out["traced"].append(run_pass(ops, in_process=True))
            finally:
                tr.restore()
            out["layers"].append(tracer.layer_metrics(tr.spans))
            out["spans"].append(tr.spans)
            out["missing_wrap_points"] = tr.missing
        due = min(probes, math.ceil(probes * (perf_counter() - start) / args.seconds))
        while len(out["setup"]) < due:
            out["setup"].append(setup_pair(probe, len(out["setup"]) % 2 == 0))
        done = len(out["passes"])
        walls = [p["wall"] for p in out["passes"]] + [p["wall"] for p in out["traced"]]
        per_round = statistics.median(walls) * (2 if args.traced else 1)
        if done >= min_passes and perf_counter() - start + per_round > args.seconds:
            break
    while len(out["setup"]) < probes:
        out["setup"].append(setup_pair(probe, len(out["setup"]) % 2 == 0))
    out["self_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    args.result.write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
