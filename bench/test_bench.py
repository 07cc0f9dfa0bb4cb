"""Tests of the benchmark itself, at the tiny --smoke sizes."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args, root=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(root) / "bench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_prints_every_metric_with_unit_and_no_errors(trace):
    proc = run_bench("--smoke", "--seconds", "0.2", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for workload in workloads.WORKLOADS:
        for metric in SPEC["per_layer" if trace == "1" else "end_to_end"]:
            got = result["metrics"][f"{workload}.{metric['name']}"]
            assert got["unit"] == metric["unit"]
            assert isinstance(got["value"], (int, float))
            printed = [line.split() for line in lines if line.split()[:2] == [workload, metric["name"]]]
            assert printed and printed[0][3] == metric["unit"]
        rate = [line.split() for line in lines if line.split()[:2] == [workload, "error_rate"]]
        assert rate and float(rate[0][2]) == 0.0


def test_single_workload_reports_exactly_the_declared_metrics():
    proc = run_bench("--smoke", "--workload", "lib_shapes", "--seed", "7", "--seconds", "0.2")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["failed"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--smoke", "--workload", "cli_export", "--seconds", "0.2", root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_every_layer_metric_maps_to_end_to_end_metrics():
    layer_map = json.loads((BENCH / "layer_map.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    assert set(layer_map) == {m["name"] for m in SPEC["per_layer"]}
    for entry in layer_map.values():
        assert set(entry["moves"]) <= end_to_end
        assert set(entry["on"]) <= set(workloads.WORKLOADS)


def test_layer_metrics_self_time_subtracts_direct_children():
    spans = [
        ["composer.gen_multicluster", 0.0, 10.0, -1, {"rows": 5}],
        ["shapes.generate", 1.0, 4.0, 0, {"rows": 5, "kind": "pyrfrac"}],
        ["core.Dataset", 2.0, 3.0, 1, None],
        ["core.take", 5.0, 7.0, 0, None],
        ["core.Dataset", 6.0, 6.5, 3, None],
    ]
    got = tracer.layer_metrics(spans)
    assert got["composer.gen_multicluster.self_s"] == 5.0
    assert got["shapes.generate.self_s"] == 2.0
    assert got["shapes.pyrfrac.busy_s"] == 3.0
    assert got["core.Dataset.busy_s"] == 1.5 and got["core.Dataset.calls"] == 2
    assert got["composer.rows"] == 5 and got["cli.write_csv.busy_s"] == 0


def test_tracer_records_lib_shapes_pass_and_restores(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from hdshapes import core, shapes, topology
    finally:
        sys.path.remove(str(ROOT / "src"))
    before = (core.Dataset.__init__, core.Dataset.take, shapes.generate, topology.gen_hole)
    tr = tracer.Tracer()
    tracer.install(tr)
    try:
        for op in workloads.build("lib_shapes", workloads.DEFAULT_SEED, True, tmp_path):
            op()
    finally:
        tr.restore()
    assert (core.Dataset.__init__, core.Dataset.take, shapes.generate, topology.gen_hole) == before
    assert tr.missing == []
    got = tracer.layer_metrics(tr.spans)
    assert got["shapes.generate.calls"] == len(workloads.SHAPE_KINDS) + 2
    assert 0 < got["topology.useful_row_frac"] < 1
    assert got["noise.busy_s"] > 0 and got["shapes.pyrfrac.busy_s"] > 0


def _result(directory: Path, workload: str, index: int, wall: float) -> None:
    record = {"workload": workload, "trace": 0, "smoke": False,
              "metrics": {"wall_s": {"value": wall}}}
    (directory / f"{workload}-{index}.json").write_text(json.dumps(record), encoding="utf-8")


BASE_WALLS = [10.0, 10.1, 9.9, 10.05]
WALL_BOUND = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "wall_s")


@pytest.mark.parametrize(
    ("factor", "jitter", "expected"),
    [
        (1.0, 1.0, "within"),
        (1.0 + WALL_BOUND + 0.1, 1.0, "worse"),
        (0.9, 1.0, "better"),
        (1.0, 40.0, "unresolved"),
    ],
)
def test_compare_applies_the_bound(tmp_path, capsys, factor, jitter, expected):
    base_dir, new_dir = tmp_path / "base", tmp_path / "new"
    base_dir.mkdir()
    new_dir.mkdir()
    for i, wall in enumerate(BASE_WALLS):
        _result(base_dir, "lib_scenes", i, wall)
        _result(new_dir, "lib_scenes", i, factor * (10.0 + jitter * (wall - 10.0)))
    code = compare.main([str(base_dir), str(new_dir)])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert [(r[0], r[1], r[-1]) for r in rows] == [("lib_scenes", "wall_s", expected)]
    assert code == (1 if expected == "worse" else 0)
