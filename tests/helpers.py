"""Shared oracle helpers for the test suite."""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest


def ks_stat(samples, cdf) -> float:
    """Kolmogorov-Smirnov statistic of `samples` against a callable CDF."""
    z = np.sort(np.asarray(samples, dtype=float))
    n = z.size
    f = cdf(z)
    i = np.arange(1, n + 1)
    return float(max((i / n - f).max(), (f - (i - 1) / n).max()))


def trunc_exp_cdf(rate: float, high: float):
    """Closed-form CDF of Exp(rate) conditioned on [0, high]."""
    denom = 1.0 - np.exp(-rate * high)

    def cdf(x):
        return (1.0 - np.exp(-rate * np.asarray(x))) / denom

    return cdf


def pairwise_distances(a, b=None) -> np.ndarray:
    b = a if b is None else b
    return np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)


def set_cpus(monkeypatch, count) -> None:
    """Make hdshapes see `count` CPUs in this process's affinity mask, or,
    for None, run where `os.sched_getaffinity` is missing."""
    if count is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def started_threads(monkeypatch) -> list:
    """A list to which every thread started from now on is appended."""
    started, real_start = [], threading.Thread.start

    def start(thread):
        started.append(thread)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


def run_python(code: str, **env) -> str:
    """Standard output of `python -c code` in a fresh process whose
    environment is this one's plus `env` (OpenBLAS reads its settings once,
    when numpy loads it)."""
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env={**os.environ, **env})
    assert run.returncode == 0, run.stderr
    return run.stdout


def openblas_kernels_runnable(*coretypes: str) -> list:
    """`coretypes` as pytest params, each skipped unless numpy's BLAS is
    OpenBLAS and this CPU has the instructions of that OpenBLAS kernel."""
    from numpy._core._multiarray_umath import __cpu_features__ as features

    needs = {
        "Sandybridge": ("AVX",),
        "Haswell": ("AVX2", "FMA3"),
        "Zen": ("AVX2", "FMA3"),
        "SkylakeX": ("AVX512_SKX",),
        "Cooperlake": ("AVX512_SKX", "AVX512BF16"),
        "SapphireRapids": ("AVX512_SPR",),
    }
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    return [
        pytest.param(
            core,
            marks=pytest.mark.skipif(
                "openblas" not in blas or not all(features.get(f) for f in needs[core]),
                reason=f"needs OpenBLAS and a CPU that runs its {core} kernels",
            ),
        )
        for core in coretypes
    ]
