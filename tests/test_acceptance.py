"""Acceptance suite: one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the [PASS]/[FAIL]
lines as they happen; without -s they appear in captured output.
"""

import collections
import json
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest

from helpers import ks_stat, trunc_exp_cdf, pairwise_distances

from hdshapes.composer import MultiClusterSpec, gen_multicluster, list_presets, make_preset, simplex_vertices
from hdshapes.core import RotationPlan, gen_rotation
from hdshapes.noise import gen_noisedims
from hdshapes.shapes import (
    SHAPES,
    LatticeSizeWarning,
    gen_cone,
    gen_crescent,
    gen_curvycylinder,
    gen_gridedsphere,
    gen_pyrfrac,
    gen_scurve,
    gen_trefoil3d,
    gen_trefoil4d,
    gen_unifcube,
    gen_unifsphere,
    generate,
)
from hdshapes.topology import gen_hole


@contextmanager
def criterion(name):
    try:
        yield
    except Exception:
        print(f"[FAIL] {name}")
        raise
    else:
        print(f"[PASS] {name}")


def test_usage_example_reproduction():
    with criterion("usage-example reproduction"):
        spec = MultiClusterSpec(
            n=(200, 300, 500),
            k=3,
            loc=np.array([[0, 0, 0, 0], [5, 9, 0, 0], [3, 4, 10, 7]], dtype=float),
            scale=(3.0, 1.0, 2.0),
            shape=("gaussian", "cone", "unifcube"),
            is_bkg=False,
        )
        t0 = time.perf_counter()
        ds = gen_multicluster(spec, seed=2024)
        elapsed = time.perf_counter() - t0
        assert ds.n == 1000 and ds.p == 4
        counts = collections.Counter(ds.labels.tolist())
        assert counts == {"gaussian": 200, "cone": 300, "unifcube": 500}
        for c, kind in enumerate(spec.shape):
            sub = ds.points[ds.labels == kind]
            assert np.abs(sub.mean(axis=0) - spec.loc[c]).max() < 0.15
        assert elapsed < 1.0


def test_application_example_reproduction():
    with criterion("application-example reproduction"):
        sizes = (2250, 1500, 750, 1250, 1750)
        spec = MultiClusterSpec(
            n=sizes,
            k=5,
            loc=simplex_vertices(4) * 0.3,
            scale=(0.25, 0.35, 0.3, 1.0, 0.3),
            shape=("helicalspiral", "hemisphere", "unifcube", "cone", "gaussian"),
            is_bkg=False,
        )
        t0 = time.perf_counter()
        ds = gen_multicluster(spec, seed=2025)
        elapsed = time.perf_counter() - t0
        assert ds.n == 7500 and ds.p == 4
        counts = collections.Counter(ds.labels.tolist())
        assert counts == dict(zip(spec.shape, sizes))
        assert elapsed < 2.0


def test_exact_manifold_suite():
    with criterion("exact-manifold suite"):
        n = 2000
        pts = gen_unifsphere(n, r=2.0, seed=1).points
        assert np.abs(np.linalg.norm(pts, axis=1) - 2.0).max() < 1e-9
        with pytest.warns(LatticeSizeWarning, match="2025 points, more than n = 2000"):
            pts = gen_gridedsphere(n, p=3).points
        assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() < 1e-12
        pts = gen_trefoil4d(n, seed=2).points
        assert np.abs((pts**2).sum(axis=1) - 1.0).max() < 1e-12
        pts = gen_scurve(n, seed=3).points
        assert np.abs(pts[:, 0] ** 2 + (np.abs(pts[:, 2]) - 1.0) ** 2 - 1.0).max() < 1e-9
        pts = gen_crescent(n).points
        assert np.abs(pts[:, 0] ** 2 + pts[:, 1] ** 2 - 1.0).max() < 1e-12
        pts = gen_curvycylinder(n, seed=4).points
        assert np.abs(pts[:, 3] - np.sin(pts[:, 2])).max() < 1e-12


def test_stereographic_consistency():
    with criterion("stereographic consistency"):
        d4 = gen_trefoil4d(2000, steps=8, seed=5).points
        d3 = gen_trefoil3d(2000, steps=8, seed=5).points
        mapped = d4[:, :3] / (1.0 - d4[:, 3])[:, None]
        assert np.abs(d3 - mapped).max() < 1e-12


def test_distributional_suite():
    with criterion("distributional suite"):
        # cone heights against the closed-form truncated exponential CDF
        h = 2.0
        z = gen_cone(5000, p=4, h=h, seed=6).points[:, 3]
        assert ks_stat(z, trunc_exp_cdf(2.0 / h, h)) < 0.03
        # uniform cube quadrant counts within binomial 3 sigma
        pts = gen_unifcube(10000, p=2, seed=7).points
        three_sigma = 3.0 * np.sqrt(10000 * 0.25 * 0.75)
        for cx in (False, True):
            for cy in (False, True):
                count = int((((pts[:, 0] >= 0.5) == cx) & ((pts[:, 1] >= 0.5) == cy)).sum())
                assert abs(count - 2500) <= three_sigma
        # noise dims: moments within 5%, odd-column sign flip
        nd = gen_noisedims(20000, 2, m=(5.0, 5.0), s=(1.0, 1.0), seed=8).points
        means = nd.mean(axis=0)
        assert abs(means[0] + 5.0) < 0.05 and abs(means[1] - 5.0) < 0.05
        sds = nd.std(axis=0, ddof=1)
        assert np.abs(sds - 1.0).max() < 0.05


def test_hole_suite():
    with criterion("hole suite"):
        ds = gen_unifcube(10000, p=2, seed=9)
        anchor2 = np.array([0.5, 0.5])
        out = gen_hole(ds, 0.25, anchor=anchor2)
        dist = np.linalg.norm(ds.points - anchor2, axis=1)
        assert out.n == int((dist > 0.25).sum())
        assert (np.linalg.norm(out.points - anchor2, axis=1) > 0.25).all()
        assert abs(out.n / ds.n - 0.8037) < 0.02
        ds3 = gen_unifcube(10000, p=3, seed=10)
        out3 = gen_hole(ds3, 0.2, anchor=(0.5, 0.5, 0.5))
        assert abs(out3.n / ds3.n - 0.9665) < 0.02
        # idempotence under a fixed anchor
        again = gen_hole(out, 0.25, anchor=anchor2)
        assert np.array_equal(out.points, again.points)
        # radius monotonicity: larger holes keep subsets
        small = gen_hole(ds, 0.1, anchor=anchor2)
        large = gen_hole(ds, 0.3, anchor=anchor2)
        kept = {tuple(row) for row in small.points}
        assert all(tuple(row) in kept for row in large.points)


def test_rotation_suite():
    with criterion("rotation suite"):
        rng = np.random.default_rng(11)
        for _ in range(100):
            p = int(rng.integers(2, 11))
            steps = []
            for _ in range(10):
                i, j = sorted(rng.choice(p, size=2, replace=False) + 1)
                steps.append((int(i), int(j), float(rng.uniform(0, 2 * np.pi))))
            rot = gen_rotation(RotationPlan(p, tuple(steps)))
            assert np.abs(rot.T @ rot - np.eye(p)).max() < 1e-10
            assert abs(np.linalg.det(rot) - 1.0) < 1e-10
            x = rng.standard_normal((20, p))
            before = pairwise_distances(x)
            after = pairwise_distances(x @ rot.T)
            assert np.abs(before - after).max() < 1e-9


def test_fractal_suite():
    with criterion("fractal suite"):
        pts = gen_pyrfrac(20000, p=2, seed=12).points
        deep = pts[1000:]  # burn-in: early iterates converge onto the gasket
        assert deep.min() >= -1e-9
        assert (deep.sum(axis=1) <= 1.0 + 1e-9).all()
        x, y = deep[:, 0], deep[:, 1]
        inside_void = (x + y > 0.5 + 1e-9) & (x < 0.5 - 1e-9) & (y < 0.5 - 1e-9)
        assert not inside_void.any()


def test_determinism_suite(tmp_path):
    with criterion("determinism suite"):
        t0 = time.perf_counter()
        for kind in SHAPES:
            # Both lattices have more points than n = 200 (256 and 210).
            lattice = kind in ("gridcube", "gridedsphere")
            with pytest.warns(LatticeSizeWarning, match="more than n = 200") if lattice else nullcontext():
                a = generate(kind, 200, seed=99)
                b = generate(kind, 200, seed=99)
            assert a.points.tobytes() == b.points.tobytes(), kind
            if a.labels is not None:
                assert a.labels.tolist() == b.labels.tolist(), kind
        for name in list_presets():
            a = make_preset(name, seed=99)
            b = make_preset(name, seed=99)
            assert a.points.tobytes() == b.points.tobytes(), name

        def cli(*args):
            res = subprocess.run(
                [sys.executable, "-m", "hdshapes.cli", *args],
                capture_output=True,
                text=True,
            )
            assert res.returncode == 0, res.stderr
            return res

        # generate command, twice
        g1, g2 = tmp_path / "g1.csv", tmp_path / "g2.csv"
        for out in (g1, g2):
            cli("generate", "swissroll", "--n", "300", "--seed", "13", "--out", str(out))
        assert g1.read_bytes() == g2.read_bytes()
        # multicluster command, twice
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "n": [150, 150],
                    "k": 2,
                    "loc": [[0, 0, 0], [4, 0, 0]],
                    "scale": [1, 1],
                    "shape": ["scurve", "gaussian"],
                }
            )
        )
        m1, m2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
        for out in (m1, m2):
            cli("multicluster", str(cfg), "--seed", "14", "--out", str(out))
        assert m1.read_bytes() == m2.read_bytes()
        # manifest round-trip reproduces the data file exactly
        replay = tmp_path / "replay.csv"
        cli("generate", "--from-manifest", str(tmp_path / "m1.csv.manifest.json"), "--out", str(replay))
        assert m1.read_bytes() == replay.read_bytes()
        assert time.perf_counter() - t0 < 60.0
