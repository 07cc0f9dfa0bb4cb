"""hdshapes benchmark: end-to-end and per-layer timings of three workloads.

    python3 bench/run.py [--workload cli_export|lib_scenes|lib_shapes|all]
                         [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Run from the root of a source checkout; the benchmark uses `src/hdshapes`
of that checkout and nothing installed. Every workload is a closed loop with
one client: the next operation starts when the previous one has finished,
and at most one hdshapes process runs at a time.

--trace 0 measures the end-to-end metrics with tracing off, in one fresh
worker process (worker.py). The library workloads run there; cli_export
runs each operation as its own `python3 -m hdshapes` process. Set-up probes
run between the passes, spread over the run, each next to a reference
process that runs no hdshapes code; the reported times are scaled by it
(see REF_STARTUP_S below). --trace 1 runs a worker that alternates
untraced and traced passes and reports the per-layer metrics, the
difference between the two being the tracing overhead.
BENCHMARK.json lists the metrics, their units and bounds; layer_map.json
says which end-to-end metric each per-layer metric should move, and on
which workload.

Every operation's output is checked: exact row and column counts from
expected.json, identical bytes on every pass, a manifest replay that
reproduces its original byte for byte, and with the default seed the
sha256 pinned in expected.json. Each failed check, exception or nonzero
exit fails its operation; error_rate = failed / attempted.

Results, with the environment that decides the numbers and the bytes, go to
.bench_work/results/, spans to .bench_work/spans/. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from procs import ROOT, SOURCE, WORK, run_child

BENCH = Path(__file__).resolve().parent

# End-to-end times are reported at a reference host speed. The worker runs a
# reference process (worker.REFERENCE, no hdshapes code) next to each set-up
# probe; at the reference speed it starts and imports numpy in REF_STARTUP_S
# and then does its fixed work in REF_WORK_S. setup_s is REF_STARTUP_S times
# the median ratio of each probe to the start-up of its reference process.
# Pass times are scaled by the reference's whole time over the run's median
# whole reference time: the host's slow spells hit process start-up, page
# faults and computation in changing mixes, and every pass mixes them too.
# A shared host's speed swings by 20-40% over minutes, more than the bounds
# allow; the scaling takes out much of that and still moves with any change
# to hdshapes. The unscaled figures are kept in the results file.
REF_STARTUP_S = 0.25
REF_WORK_S = 0.12

CLI_IMPORT = ("-c", "import time; t = time.perf_counter(); import hdshapes.cli; "
                    "print(time.perf_counter() - t)")
ENV_PROBE = ("-c", "import json, sys, numpy, hdshapes; print(json.dumps({"
                   "'hdshapes': hdshapes.__version__, 'hdshapes_file': hdshapes.__file__, "
                   "'numpy': numpy.__version__, 'python': sys.version.split()[0]}))")


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked; no result is printed."""


def environment() -> dict:
    """Versions and hardware facts that decide the numbers and the bytes."""
    probe = run_child(ENV_PROBE)
    if probe.code != 0:
        raise SetupError(f"cannot import hdshapes from {SOURCE}: {probe.stderr.strip()}")
    env = json.loads(probe.stdout)
    if not Path(env["hdshapes_file"]).resolve().is_relative_to(SOURCE):
        raise SetupError(f"hdshapes imported from {env['hdshapes_file']}, not from {SOURCE}")
    env.update(
        implementation=platform.python_implementation(),
        platform=platform.platform(),
        nproc=len(os.sched_getaffinity(0)),
        cpu_count=os.cpu_count(),
        caches=_cache_sizes(),
    )
    return env


def _cache_sizes() -> dict:
    try:
        text = subprocess.run(["getconf", "-a"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    wanted = {"LEVEL1_DCACHE_SIZE": "l1d_bytes", "LEVEL2_CACHE_SIZE": "l2_bytes",
              "LEVEL3_CACHE_SIZE": "l3_bytes"}
    sizes = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] in wanted and parts[1].isdigit():
            sizes[wanted[parts[0]]] = int(parts[1])
    return sizes


# ---------------------------------------------------------------------------
# Statistics


def summary(values) -> dict:
    """Median, quartiles and sample count."""
    values = list(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


# ---------------------------------------------------------------------------
# Output checks


class Checker:
    """Counts operations and failed checks across all passes of one run."""

    def __init__(self, workload: str, seed: int, expected: dict, ops: list):
        self.expected = expected.get(workload, {})
        self.same_as = {op.name: getattr(op, "same_as", None) for op in ops}
        self.pinned = seed == workloads.DEFAULT_SEED
        self.first_digest = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def check_pass(self, ops: list[dict]) -> None:
        digests = {op["name"]: op.get("sha256") for op in ops}
        for op in ops:
            self.attempted += 1
            problem = self._problem(op, digests)
            if problem:
                self.failed += 1
                if len(self.errors) < 20:
                    self.errors.append(f"{op['name']}: {problem}")

    def _problem(self, op: dict, digests: dict) -> str | None:
        if "error" in op:
            return op["error"]
        exp = self.expected.get(op["name"])
        if exp is None:
            return "no expectation pinned in expected.json"
        if exp["rows"] is not None and op["rows"] != exp["rows"]:
            return f"{op['rows']} rows, expected {exp['rows']}"
        if op["cols"] != exp["cols"]:
            return f"{op['cols']} columns, expected {exp['cols']}"
        if self.pinned and op["sha256"] != exp["sha256"]:
            return f"sha256 {op['sha256']}, pinned {exp['sha256']}"
        same_as = self.same_as.get(op["name"])
        if same_as and op["sha256"] != digests.get(same_as):
            return f"replay differs from {same_as}"
        first = self.first_digest.setdefault(op["name"], op["sha256"])
        if op["sha256"] != first:
            return "output differs from the first pass"
        return None


# ---------------------------------------------------------------------------
# Workload runs


def run_worker(workload, seed, seconds, smoke, outdir, traced) -> dict:
    result = outdir / "worker.json"
    args = [str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--outdir", str(outdir), "--result", str(result)]
    args += ["--traced"] * traced + ["--smoke"] * smoke
    child = run_child(args, timeout=seconds + 100)
    if child.code != 0:
        raise SetupError(f"{workload} worker failed (exit {child.code}): {child.stderr.strip()[-2000:]}")
    return json.loads(result.read_text(encoding="utf-8"))


def traced_run(workload, seed, seconds, smoke, outdir, checker) -> dict:
    """Per-layer metrics from a worker alternating untraced and traced passes."""
    import_times = []
    for _ in range(1 if smoke else 10):
        child = run_child(CLI_IMPORT)
        if child.code != 0:
            raise SetupError(f"cannot import hdshapes.cli: {child.stderr.strip()}")
        import_times.append(float(child.stdout))
    data = run_worker(workload, seed, seconds, smoke, outdir, traced=True)
    for p in data["passes"] + data["traced"]:
        checker.check_pass(p["ops"])
    untraced = summary(p["wall"] for p in data["passes"])
    traced = summary(p["wall"] for p in data["traced"])
    layers = {"cli.import_s": summary(import_times)}
    for name in data["layers"][0]:
        layers[name] = summary(layer[name] for layer in data["layers"])
    # Each traced pass runs next to its untraced partner, so their difference
    # is taken per pair before the median, which cancels slow machine drift.
    pairs = zip(data["passes"], data["traced"])
    layers["trace.overhead_s"] = {"value": statistics.median(t["wall"] - u["wall"] for u, t in pairs),
                                  "untraced_pass_s": untraced, "traced_pass_s": traced}
    return {"metrics": layers, "missing_wrap_points": data["missing_wrap_points"],
            "spans_file": str(save_spans(workload, seed, data["spans"]))}


def untraced_run(workload, seed, seconds, smoke, outdir, checker) -> dict:
    """End-to-end metrics with tracing off."""
    data = run_worker(workload, seed, seconds, smoke, outdir, traced=False)
    passes = data["passes"]
    if workload == "cli_export":
        peak = max(op.get("peak_rss_mb", 0.0) for p in passes for op in p["ops"])
    else:
        peak = data["self_peak_rss_mb"]
    slowdown = (statistics.median(startup + work for _, startup, work in data["setup"])
                / (REF_STARTUP_S + REF_WORK_S))
    for p in passes:
        checker.check_pass(p["ops"])
    rows = [sum(op.get("rows", 0) for op in p["ops"]) for p in passes]
    report = {
        "metrics": {
            "wall_s": summary(p["wall"] / slowdown for p in passes),
            "rows_per_s": summary(r / p["wall"] * slowdown for r, p in zip(rows, passes)),
            "peak_rss_mb": {"value": peak, "q1": peak, "q3": peak, "n": 1},
            "setup_s": summary(REF_STARTUP_S * probe / startup for probe, startup, _ in data["setup"]),
        },
        "unscaled": {
            "wall_s": summary(p["wall"] for p in passes),
            "setup_s": summary(probe for probe, _, _ in data["setup"]),
            "reference_startup_s": summary(startup for _, startup, _ in data["setup"]),
            "reference_work_s": summary(work for _, _, work in data["setup"]),
        },
        "rows_per_pass": rows[0],
        "passes": passes,
    }
    if workload == "cli_export":
        report["file_bytes_per_pass"] = sum(op.get("bytes", 0) for op in passes[0]["ops"])
    else:
        report["array_bytes_per_pass_computed_from_array_sizes"] = sum(
            op.get("bytes", 0) for op in passes[0]["ops"])
    return report


def run_workload(workload, seed, seconds, trace, smoke, expected) -> dict:
    outdir = WORK / "out" / f"{workload}-{os.getpid()}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    ops = workloads.build(workload, seed, smoke, outdir)
    checker = Checker(workload, seed, expected, ops)
    measure = traced_run if trace else untraced_run
    try:
        report = measure(workload, seed, seconds, smoke, outdir, checker)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    report.update(workload=workload, attempted=checker.attempted, failed=checker.failed,
                  errors=checker.errors, error_rate=checker.failed / max(checker.attempted, 1))
    return report


def save_spans(workload, seed, spans) -> Path:
    path = WORK / "spans" / f"{workload}-seed{seed}-{time.time_ns()}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    fields = ["name", "start", "end", "parent", "attrs"]
    path.write_text(json.dumps({"fields": fields, "passes": spans}), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Reporting


def print_report(report: dict, spec: dict, layer_map: dict) -> None:
    workload = report["workload"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, m in report["metrics"].items():
        fmt = "d" if units[name] in ("count", "bytes") else ".6g"
        if "q1" in m:
            spread = f"  q1 {_num(m['q1'], fmt)}  q3 {_num(m['q3'], fmt)}  n {m['n']}"
        else:
            spread = (f"  untraced pass {m['untraced_pass_s']['value']:.6g} s,"
                      f" traced pass {m['traced_pass_s']['value']:.6g} s")
        note = layer_map.get(name, {}).get("on", {}).get(workload)
        note = f"  [{note}]" if note else ""
        print(f"{workload:<10} {name:<34} {_num(m['value'], fmt):>14} {units[name]:<6}{spread}{note}")
    print(f"{workload:<10} {'error_rate':<34} {report['error_rate']:>14.6g} {'ratio':<6}"
          f"  ({report['failed']} failed / {report['attempted']} attempted)")
    for err in report["errors"]:
        print(f"{workload:<10} FAILED {err}")
    for point in report.get("missing_wrap_points", []):
        print(f"{workload:<10} not traced, its wrap point no longer exists: {point}")


def _num(value, fmt: str) -> str:
    return format(round(value) if fmt == "d" else value, fmt)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description="hdshapes benchmark")
    ap.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not (SOURCE / "hdshapes" / "__init__.py").is_file():
        print(f"error: no hdshapes source under {SOURCE}", file=sys.stderr)
        return 2
    expected = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))
    expected = expected["smoke" if args.smoke else "full"]
    layer_map = json.loads((BENCH / "layer_map.json").read_text(encoding="utf-8"))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        env = environment()
        reports = [run_workload(w, args.seed, args.seconds, args.trace, args.smoke, expected)
                   for w in names]
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK / "tmp", ignore_errors=True)

    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    for report in reports:
        print_report(report, spec, layer_map)
        prefix = "" if len(reports) == 1 else f"{report['workload']}."
        for name in wanted:
            metrics[prefix + name] = {"value": report["metrics"][name]["value"], "unit": units[name]}
        record = {"seed": args.seed, "trace": args.trace, "seconds": args.seconds,
                  "smoke": args.smoke, "environment": env, "benchmark": spec, **report}
        path = results / f"{report['workload']}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
        path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
