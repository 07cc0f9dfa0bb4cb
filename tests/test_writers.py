"""The chunked CSV/NDJSON writers against per-row reference writers.

The reference writers below format one row at a time with `csv.writer` and
`json.dumps`, the way hdshapes wrote files before the chunked writers; the
chunked writers must produce the same bytes, however many processes share
the formatting.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np
import pytest

from hdshapes import Dataset, cli
from hdshapes.cli import _CHUNK_ROWS, _shares, main, write_csv, write_ndjson


def reference_csv(ds, path) -> None:
    header = list(ds.column_names)
    if ds.labels is not None:
        header.append("cluster")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(ds.n):
            row = [repr(float(v)) for v in ds.points[i]]
            if ds.labels is not None:
                row.append(str(ds.labels[i]))
            writer.writerow(row)


def reference_ndjson(ds, path) -> None:
    names = ds.column_names
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(ds.n):
            rec = {name: float(v) for name, v in zip(names, ds.points[i])}
            if ds.labels is not None:
                rec["cluster"] = str(ds.labels[i])
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


WRITERS = {"csv": (write_csv, reference_csv), "ndjson": (write_ndjson, reference_ndjson)}

# Zeros, subnormals, and both sides of where repr switches to an exponent.
SPECIAL_VALUES = [
    -0.0, 0.0, 1e-05, 1e16, 5e-324, -1.5, 0.1, 123456789.0, 2.0**-1074 * 3,
    1e-4, 9.999999999999999e-05, 9999999999999998.0, -1e16, 2.0**53 + 2,
]
AWKWARD_LABELS = ["a,b", 'say "hi"', "two\nlines", "", "café ☃", "plain", "cr\r", " pad ", "nul\0byte"]


def _points(n: int, p: int) -> np.ndarray:
    """Normal draws whose first entries are SPECIAL_VALUES."""
    pts = np.random.default_rng(0).normal(0.0, 1e3, (n, p))
    pts.flat[: len(SPECIAL_VALUES)] = SPECIAL_VALUES[: pts.size]
    return pts


def _cases() -> dict:
    cases = {}
    for n in (1, 5, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 3):
        cases[f"unlabeled/n={n}"] = (n, 3, False)
        cases[f"labeled/n={n}"] = (n, 3, True)
    cases["unlabeled/p=1"] = (40, 1, False)
    cases["labeled/p=1"] = (40, 1, True)
    cases["unlabeled/p=0"] = (40, 0, False)
    cases["labeled/p=0"] = (40, 0, True)
    return cases


CASES = _cases()


def _dataset(n: int, p: int, labeled: bool) -> Dataset:
    pts = _points(n, p)
    if not labeled:
        return Dataset(pts)
    labels = [AWKWARD_LABELS[i % len(AWKWARD_LABELS)] for i in range(n)]
    return Dataset(pts, labels)


@pytest.mark.parametrize("fmt", sorted(WRITERS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_writer_matches_per_row_reference(tmp_path, fmt, case):
    ds = _dataset(*CASES[case])
    write, reference = WRITERS[fmt]
    write(ds, tmp_path / "new")
    reference(ds, tmp_path / "ref")
    assert (tmp_path / "new").read_bytes() == (tmp_path / "ref").read_bytes()


@pytest.mark.parametrize("fmt", sorted(WRITERS))
def test_writer_matches_reference_after_take(tmp_path, fmt):
    """Rows in shuffled order, with a category no row uses any more."""
    ds = _dataset(3 * _CHUNK_ROWS // 2, 4, labeled=True)
    keep = np.flatnonzero(ds.labels != "plain")
    ds = ds.take(np.random.default_rng(1).permutation(keep))
    write, reference = WRITERS[fmt]
    write(ds, tmp_path / "new")
    reference(ds, tmp_path / "ref")
    assert (tmp_path / "new").read_bytes() == (tmp_path / "ref").read_bytes()


def test_ndjson_escapes_non_ascii(tmp_path):
    write_ndjson(Dataset([[1.0]], ["café ☃"]), tmp_path / "out")
    assert (tmp_path / "out").read_bytes() == b'{"x1":1.0,"cluster":"caf\\u00e9 \\u2603"}\n'



# ---------------------------------------------------------------------------
# Formatting shared among processes


def _cpus(monkeypatch, count: int) -> None:
    """Make the writers see `count` CPUs in this process's affinity mask."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _count_forks(monkeypatch) -> list:
    forks = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forks


SHARED_SIZES = (1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 3, 7 * _CHUNK_ROWS + 5)


@pytest.mark.parametrize("labeled", [False, True], ids=["unlabeled", "labeled"])
@pytest.mark.parametrize("n", SHARED_SIZES)
@pytest.mark.parametrize("cpus", [1, 2, 3, 8])
def test_bytes_do_not_depend_on_cpu_count(tmp_path, monkeypatch, cpus, n, labeled):
    ds = _dataset(n, 3, labeled)
    _cpus(monkeypatch, cpus)
    forks = _count_forks(monkeypatch)
    for fmt, (write, reference) in WRITERS.items():
        write(ds, tmp_path / f"new.{fmt}")
        reference(ds, tmp_path / f"ref.{fmt}")
        assert (tmp_path / f"new.{fmt}").read_bytes() == (tmp_path / f"ref.{fmt}").read_bytes(), fmt
    chunks = -(-n // _CHUNK_ROWS)
    assert len(forks) == 2 * (min(cpus, chunks) - 1)
    assert sorted(os.listdir(tmp_path)) == ["new.csv", "new.ndjson", "ref.csv", "ref.ndjson"]


@pytest.mark.parametrize("n", (0, 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 5 * _CHUNK_ROWS, 7 * _CHUNK_ROWS + 5))
@pytest.mark.parametrize("cpus", [1, 2, 3, 8])
def test_shares_are_contiguous_chunk_aligned_and_bounded(monkeypatch, cpus, n):
    _cpus(monkeypatch, cpus)
    shares = _shares(n)
    assert len(shares) == max(1, min(cpus, -(-n // _CHUNK_ROWS)))
    assert shares[0].start == 0 and shares[-1].stop == n
    for before, after in zip(shares, shares[1:]):
        assert before.stop == after.start and before.stop % _CHUNK_ROWS == 0 and len(before) > 0


def test_without_fork_the_writers_run_in_one_process(tmp_path, monkeypatch):
    _cpus(monkeypatch, 8)
    monkeypatch.delattr(os, "fork")
    ds = _dataset(7 * _CHUNK_ROWS + 5, 3, labeled=True)
    assert len(_shares(ds.n)) == 1
    for fmt, (write, reference) in WRITERS.items():
        write(ds, tmp_path / "new")
        reference(ds, tmp_path / "ref")
        assert (tmp_path / "new").read_bytes() == (tmp_path / "ref").read_bytes(), fmt


def _fail_in_rows(monkeypatch, fails, error=OSError) -> None:
    """Make formatting raise `error` for the shares of rows `fails` picks."""
    real = cli._format_rows

    def format_rows(fh, ds, template, tails, rows):
        if fails(rows):
            raise error(f"no space left for rows {rows.start}-{rows.stop}")
        real(fh, ds, template, tails, rows)

    monkeypatch.setattr(cli, "_format_rows", format_rows)


def _no_children_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_a_failing_child_makes_the_cli_exit_3(tmp_path, monkeypatch, capfd):
    _cpus(monkeypatch, 2)
    _fail_in_rows(monkeypatch, lambda rows: rows.start > 0)
    out = tmp_path / "scene.csv"
    argv = ["preset", "gaucircles", "--n", str(3 * _CHUNK_ROWS), "--seed", "1", "--out", str(out)]
    assert main(argv) == 3
    captured = capfd.readouterr()
    assert "wrote" not in captured.out
    assert "I/O error: the process formatting rows" in captured.err and "no space left" in captured.err
    # No data file, no manifest and no temporary file: the child exits
    # without returning, and the parent removes the file it was writing.
    assert os.listdir(tmp_path) == []
    assert _no_children_left()


def test_a_failing_parent_kills_and_reaps_its_children(tmp_path, monkeypatch, capfd):
    _cpus(monkeypatch, 4)
    _fail_in_rows(monkeypatch, lambda rows: rows.start == 0)
    out = tmp_path / "scene.ndjson"
    argv = ["preset", "gaucircles", "--n", str(8 * _CHUNK_ROWS), "--seed", "1", "--format", "ndjson",
            "--out", str(out)]
    assert main(argv) == 3
    captured = capfd.readouterr()
    assert "wrote" not in captured.out
    assert "I/O error: no space left for rows 0-" in captured.err
    assert os.listdir(tmp_path) == []
    assert _no_children_left()


@pytest.mark.parametrize("target", ["nodir/c.csv", "d.csv"], ids=["missing-directory", "directory"])
def test_a_failed_write_names_the_users_file(tmp_path, monkeypatch, capfd, target):
    """A missing directory, and an --out that is a directory: the error
    names the path the user gave, not the temporary file beside it."""
    monkeypatch.chdir(tmp_path)
    os.mkdir("d.csv")
    assert main(["generate", "cone", "--n", "50", "--seed", "1", "--out", target]) == 3
    err = capfd.readouterr().err
    assert err.startswith("I/O error: ") and f"'{target}'" in err and ".hdshapes-" not in err
    assert os.listdir(tmp_path) == ["d.csv"] and os.listdir("d.csv") == []


@pytest.mark.parametrize("how", ["fails", "interrupted"])
@pytest.mark.parametrize("fmt", sorted(WRITERS))
def test_a_failed_rewrite_leaves_the_old_file_and_manifest(tmp_path, monkeypatch, capfd, fmt, how):
    _cpus(monkeypatch, 2)
    out = tmp_path / f"scene.{fmt}"
    man = tmp_path / f"scene.{fmt}.manifest.json"
    argv = ["preset", "gaucircles", "--n", str(3 * _CHUNK_ROWS), "--format", fmt, "--out", str(out)]
    assert main(argv + ["--seed", "1"]) == 0
    data, manifest = out.read_bytes(), man.read_bytes()
    reference = tmp_path / "reference"
    open(reference, "x").close()
    assert os.stat(out).st_mode == os.stat(reference).st_mode  # the umask's mode, not mkstemp's 0600
    os.remove(reference)
    if how == "fails":
        _fail_in_rows(monkeypatch, lambda rows: rows.start > 0)
        assert main(argv + ["--seed", "2"]) == 3
    else:
        _fail_in_rows(monkeypatch, lambda rows: rows.start == 0, KeyboardInterrupt)  # as SIGINT raises it
        with pytest.raises(KeyboardInterrupt):
            main(argv + ["--seed", "2"])
    capfd.readouterr()
    assert out.read_bytes() == data and man.read_bytes() == manifest
    assert sorted(os.listdir(tmp_path)) == sorted([out.name, man.name])
    assert _no_children_left()
