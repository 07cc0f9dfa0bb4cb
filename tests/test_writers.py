"""The chunked CSV/NDJSON writers against per-row reference writers.

The reference writers below format one row at a time with `csv.writer` and
`json.dumps`, the way hdshapes wrote files before the chunked writers; the
chunked writers must produce the same bytes.
"""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from hdshapes import Dataset
from hdshapes.cli import _CHUNK_ROWS, write_csv, write_ndjson


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

SPECIAL_VALUES = [-0.0, 0.0, 1e-05, 1e16, 5e-324, -1.5, 0.1, 123456789.0, 2.0**-1074 * 3]
AWKWARD_LABELS = ["a,b", 'say "hi"', "two\nlines", "", "café ☃", "plain", "cr\r", " pad "]


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

