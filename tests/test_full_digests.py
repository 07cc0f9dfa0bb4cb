"""The benchmark's full-size outputs, checked against bench/expected.json.

The goldens sample at a few dozen rows, where one block, one chunk and one
share cover everything. The code paths that switch with size (row-block
reductions, the writers' fork shares and ~256 KiB blocks, the chaos game's
spans, the composer's per-cluster jobs) are pinned by the `full` digests of
`bench/expected.json`, seed 1. Here every lib_shapes and lib_scenes
operation runs in process, and the cli_export commands run through
`cli.main`, from `bench/workloads.py`'s operation lists; only `bench/` is
read.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from hdshapes import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402  (bench/workloads.py, found through the path above)

EXPECTED = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))["full"]
SEED = workloads.DEFAULT_SEED


def _check(facts: dict, expected: dict) -> None:
    if expected["rows"] is not None:  # hole_cube's kept rows depend on the seed
        assert facts["rows"] == expected["rows"]
    assert facts["cols"] == expected["cols"]
    assert facts["sha256"] == expected["sha256"]


# gridcube's and gridedsphere's lattices overshoot n = 1e5, as the bench's pass
# does too; tests/test_acceptance.py checks that warning.
@pytest.mark.filterwarnings("ignore::hdshapes.shapes.LatticeSizeWarning")
@pytest.mark.parametrize(
    "workload, op",
    [(w, op) for w in ("lib_shapes", "lib_scenes") for op in workloads.build(w, SEED, False, None)],
    ids=lambda value: value if isinstance(value, str) else value.name,
)
def test_library_output_matches_its_pinned_digest(workload, op):
    _check(workloads.dataset_facts(op()), EXPECTED[workload][op.name])


def test_cli_files_match_their_pinned_digests(tmp_path, capsys):
    # In order: the replay reads an earlier command's manifest.
    for op in workloads.build("cli_export", SEED, False, tmp_path):
        assert cli.main(list(op.args)) == 0, capsys.readouterr().err
        _check(workloads.file_facts(op.out), EXPECTED["cli_export"][op.name])
