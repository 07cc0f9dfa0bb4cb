"""Noise-dimension generators appended to existing structures."""

from __future__ import annotations

import numpy as np

from .core import Dataset, ParameterError, _adopt, _check_n, _gaussian_cols, _number, _reals, as_dataset, as_stream

__all__ = [
    "gen_noisedims",
    "gen_wavydims1",
    "gen_wavydims2",
    "gen_wavydims3",
    "append_dims",
]

# Nonlinear combinations cycled through by gen_wavydims3 for columns past
# the first three; each maps (x1, x2, x3) -> column.
WAVY3_FORMS = (
    lambda x1, x2, x3: x1 * x2,
    lambda x1, x2, x3: np.sin(x1) + x3 * x3,
    lambda x1, x2, x3: x1 * x1 - x2 * x3,
    lambda x1, x2, x3: np.cos(x2) * x3,
)


def gen_noisedims(n: int, p: int, m=0.0, s=0.2, seed=None) -> Dataset:
    """p independent Gaussian noise columns, X_j ~ N(m_j, s_j^2).

    Odd-numbered columns (x1, x3, ...) are negated after sampling, which
    keeps the columns independent but avoids a consistent directional
    drift when the noise is attached to a structure.
    """
    pts = _gaussian_cols(n, p, m, s, seed)
    pts[:, ::2] *= -1.0
    return _adopt(pts)


def gen_wavydims1(n: int, p: int, theta, sigma: float = 0.05, seed=None) -> Dataset:
    """Columns proportional to a latent parameter: X_j = alpha_j theta + eps.

    alpha_j = 0.1 j gives each column a distinct slope; eps ~ N(0, sigma^2).
    """
    n, p = _check_n(n), _check_n(p, "p")
    theta = _reals(theta, "theta must be a vector of numbers", "theta").ravel()
    if theta.shape[0] != n:
        raise ParameterError(f"theta has length {theta.shape[0]}, expected {n}")
    if _number(sigma, "sigma") <= 0:
        raise ParameterError("sigma must be positive")
    rng = as_stream(seed).rng
    alphas = 0.1 * np.arange(1, p + 1)
    pts = theta[:, None] * alphas + rng.normal(0.0, sigma, (n, p))
    return _adopt(pts)


def gen_wavydims2(n: int, p: int, x1, powers=None, scales=None, noise: float = 0.05, seed=None) -> Dataset:
    """Polynomial transforms of an existing vector with alternating signs.

    X_j = beta_j (-1)^floor(j/2) x1^k_j + eps_j, with k_j drawn from
    {2, 3, 4}, beta_j ~ U(0.5, 1.5), eps ~ U(-noise, noise). Pass
    `powers`/`scales` to fix k_j/beta_j, and noise=0 for the exact map.
    """
    n, p = _check_n(n), _check_n(p, "p")
    x1 = _reals(x1, "x1 must be a vector of numbers", "x1").ravel()
    if x1.shape[0] != n:
        raise ParameterError(f"x1 has length {x1.shape[0]}, expected {n}")
    if _number(noise, "noise") < 0:
        raise ParameterError("noise amplitude must be non-negative")
    rng = as_stream(seed).rng
    k = rng.integers(2, 5, p) if powers is None else _reals(powers, "powers must be a list of integers")
    if (k % 1).any():
        raise ParameterError(f"powers must be a list of integers, got {powers!r}")
    beta = rng.uniform(0.5, 1.5, p) if scales is None else _reals(scales, "scales must be a list of numbers", "scales")
    if k.shape != (p,) or beta.shape != (p,):
        raise ParameterError("powers and scales must have length p")
    powers, scales = k.astype(np.int64), beta
    signs = (-1.0) ** (np.arange(1, p + 1) // 2)
    pts = np.empty((n, p))
    for j in range(p):
        pts[:, j] = scales[j] * signs[j] * x1 ** powers[j]
    if noise > 0:
        pts += rng.uniform(-noise, noise, (n, p))
    return _adopt(pts)


def gen_wavydims3(n: int, p: int, base, perturb: float = 0.05, noise: float = 0.05, seed=None) -> Dataset:
    """Structured noise built from the first three columns of `base`.

    The first three output columns are the base coordinates plus a
    U(-perturb, perturb) perturbation; columns past the third cycle
    through a small library of polynomial/trigonometric combinations of
    (X1, X2, X3) plus U(-noise, noise) jitter, preserving some geometric
    correlation with the base structure.
    """
    n, p = _check_n(n), _check_n(p, "p")
    base = as_dataset(base)
    if base.p < 3:
        raise ParameterError("base dataset must have at least 3 columns")
    if base.n != n:
        raise ParameterError(f"base has {base.n} rows, expected {n}")
    if p < 3:
        raise ParameterError("p must be at least 3 (the perturbed base columns)")
    if _number(perturb, "perturb") < 0 or _number(noise, "noise") < 0:
        raise ParameterError("perturb and noise amplitudes must be non-negative")
    rng = as_stream(seed).rng
    x1, x2, x3 = base.points[:, 0], base.points[:, 1], base.points[:, 2]
    pts = np.empty((n, p))
    pts[:, :3] = base.points[:, :3]
    if perturb > 0:
        pts[:, :3] += rng.uniform(-perturb, perturb, (n, 3))
    for j in range(3, p):
        form = WAVY3_FORMS[(j - 3) % len(WAVY3_FORMS)]
        pts[:, j] = form(x1, x2, x3)
        if noise > 0:
            pts[:, j] += rng.uniform(-noise, noise, n)
    return _adopt(pts)


def append_dims(ds, extra) -> Dataset:
    """Concatenate `extra` columns onto `ds`; existing columns are untouched.

    Column names renumber to x1..x(p1+p2); labels of `ds` are kept.
    """
    ds = as_dataset(ds)
    extra = as_dataset(extra)
    if ds.n != extra.n:
        raise ParameterError(f"row counts differ: {ds.n} vs {extra.n}")
    return _adopt(np.hstack([ds.points, extra.points]), ds.codes, ds.categories)
