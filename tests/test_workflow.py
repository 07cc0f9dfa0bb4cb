"""The CI workflow's shell checks, run as part of the test suite.

The "Console script round trip" step of `.github/workflows/tests.yml` runs
the installed `hdshapes` command. Here its `run:` block runs as GitHub runs
it (`bash -eo pipefail`), in a temporary directory, with an `hdshapes` on
`PATH` that is `python -m hdshapes` from this source tree.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import hdshapes

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
MISSING = [tool for tool in ("bash", "taskset") if shutil.which(tool) is None]


def _step(name: str) -> dict:
    steps = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tier1"]["steps"]
    return next(step for step in steps if step.get("name") == name)


@pytest.mark.skipif(bool(MISSING), reason=f"the step needs {' and '.join(MISSING)}, not found on PATH")
def test_console_script_round_trip_step_passes(tmp_path):
    script = _step("Console script round trip")["run"]
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    for name, command in (("hdshapes", f'"{sys.executable}" -m hdshapes'), ("python", f'"{sys.executable}"')):
        shim = bin_dir / name
        shim.write_text(f'#!/bin/sh\nexec {command} "$@"\n')
        shim.chmod(0o755)
    work = tmp_path / "work"
    work.mkdir()
    src = str(Path(hdshapes.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "PATH": f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}",
        "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))),
    }
    env.pop("HDSHAPES_SEED", None)
    res = subprocess.run(
        ["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c", script],
        cwd=work, env=env, capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0, f"stdout:\n{res.stdout}\nstderr:\n{res.stderr}"
