"""Single-shape generators and the registry that dispatches them by name.

Each generator returns a Dataset whose coordinates follow a fixed
parameterization; randomness comes only from the supplied seed/stream, so
equal (params, seed) pairs reproduce bit-identical output. Shapes with a
fixed intrinsic dimension (mobius, scurve, the spirals, ...) emit exactly
that many columns; callers lift them into higher dimensions by appending
noise dims (see hdshapes.noise) or through the multicluster composer.
Each generator registers in SHAPES where it is defined (`_shape`), with
its dimension rule, and every call, direct or by name, takes the one
parameter check. The holed shapes (`topology.HOLES`) and the preset scenes
(`composer.PRESETS`) register the same way, through `_registrar`.
"""

import functools
import inspect
import itertools
import math
import types
import typing
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .core import (
    Dataset,
    DimensionError,
    ParameterError,
    _adopt,
    _check_n,
    _check_span,
    _double,
    _is_kind,
    _reals,
    _row_norms,
    _warn,
    as_stream,
    gen_nproduct,
    gen_nsum,
)

# The registered generators join __all__ after the last registration.
__all__ = [
    "UnknownShapeError",
    "RejectedParameterError",
    "LatticeSizeWarning",
    "ShapeInfo",
    "SHAPES",
    "list_shapes",
    "shape_info",
    "check_params",
    "generate",
]


class UnknownShapeError(ParameterError):
    """Requested shape kind, holed shape or preset is not registered."""


class RejectedParameterError(ParameterError):
    """A parameter was supplied that the target shape does not accept."""


class LatticeSizeWarning(UserWarning):
    """A lattice shape returned more rows than the n asked for."""


def _warn_lattice_size(kind: str, count: int, n: int) -> None:
    if count > n:
        _warn(f"{kind} lattice has {count} points, more than n = {n}", LatticeSizeWarning, 4)


# ---------------------------------------------------------------------------
# Registry


@dataclass(frozen=True)
class ShapeInfo:
    """Dispatch record for one buildable target: a shape kind, a holed
    shape (`topology.HOLES`) or a preset scene (`composer.PRESETS`), each
    registered where its function is defined (`_registrar`), and `func` the
    function that checks its parameters. A shape's `func` returns its
    Dataset; a preset's takes no seed and returns its MultiClusterSpec,
    which `make_preset` samples.

    Everything about the parameters is read from `func`'s signature on
    first use, so importing hdshapes reads no signature.
    """

    func: Callable  # -> Dataset, or MultiClusterSpec for a preset
    dim: int | None  # output dim; None means "equals p", and for presets "not fixed"
    min_p: int  # the smallest p the target takes (1: any)
    what: str  # the target in messages: "shape 'cone'"

    @property
    def description(self) -> str:  # the first line of func's docstring
        return self.func.__doc__.strip().splitlines()[0]

    @cached_property
    def _signature(self) -> inspect.Signature:
        return inspect.signature(self.func)

    @cached_property
    def params(self) -> tuple[str, ...]:
        """Keyword parameters beyond n and seed, in signature order."""
        return tuple(name for name in self._signature.parameters if name not in ("n", "seed"))

    @cached_property
    def defaults(self) -> dict:
        """The default of every parameter but seed that has one, n included."""
        return {
            name: p.default
            for name, p in self._signature.parameters.items()
            if name != "seed" and p.default is not p.empty
        }

    @cached_property
    def kinds(self) -> dict[str, tuple]:
        """(type, nargs) of every parameter but seed, n included, read from
        its default (bool, int, float, or a pair: its element type and
        length) or, if that is missing or None, its annotation (`X | None`
        as X); type None if neither tells (gaussian's matrix `s`). The
        modules that register annotated functions do not defer annotations,
        so the signature holds the objects and no string is evaluated."""
        kinds = {}
        for name, param in self._signature.parameters.items():
            if name == "seed":
                continue
            value = self.defaults.get(name)
            if value is None:
                hint = None if param.annotation is param.empty else param.annotation
                hint = typing.get_args(hint)[0] if isinstance(hint, types.UnionType) else hint
                elems = typing.get_args(hint)
                kinds[name] = (elems[0], len(elems)) if elems else (hint, None)
            else:
                kinds[name] = (type(value[0]), len(value)) if isinstance(value, tuple) else (type(value), None)
        return kinds


def _registrar(table: dict, noun: str, prefix: str = "gen_", suffix: str = "", unknown: str | None = None):
    """`(register, lookup)` for `table`. `@register(dim, min_p=1)` registers
    a function in `table` with its dimension rule, under its name less
    `prefix` and `suffix` and in definition order, and runs `check_params`
    on every call, direct or through the table, naming the target
    "<noun> '<name>'"; the body gets the checked values (counts as ints),
    and the seed if it takes one. `lookup(name)` is the name's ShapeInfo,
    or an UnknownShapeError that calls the name an `unknown` (default:
    `noun`) and lists the table."""

    def decorator(dim: int | None, min_p: int = 1):
        def register(func):
            name = func.__name__.removeprefix(prefix).removesuffix(suffix)

            @functools.wraps(func)
            def checked(*args, **kwargs):
                sig = info._signature
                # Unknown keywords go to check_params, which names them.
                known = {key: value for key, value in kwargs.items() if key in sig.parameters}
                params = {**sig.bind_partial(*args, **known).arguments, **kwargs}
                seed = {"seed": params.pop("seed", None)} if "seed" in sig.parameters else {}
                return func(**seed, **check_params(info, params))

            info = table[name] = ShapeInfo(checked, dim, min_p, f"{noun} '{name}'")
            return checked

        return register

    def lookup(name) -> ShapeInfo:
        try:
            return table[name]
        except (KeyError, TypeError):
            what = unknown or noun
            raise UnknownShapeError(f"unknown {what} '{name}'; available {what}s: {', '.join(table)}") from None

    return decorator, lookup


SHAPES: dict[str, ShapeInfo] = {}
_shape, shape_info = _registrar(SHAPES, "shape", unknown="shape kind")


def list_shapes() -> tuple[str, ...]:
    return tuple(SHAPES)


def check_params(info: ShapeInfo, params: dict) -> dict:
    """`params` with each count as an int and gaussian's matrix `s` as a
    float64 array, after a ParameterError unless every key is a parameter
    of `info`'s target (n too, seed not; else RejectedParameterError) with
    a value of its kind (`ShapeInfo.kinds`): an int is a positive integer,
    a float a finite number, a bool true or false, a pair a list or tuple
    of that many; None only where it is the default. A fixed-dimension
    target's `p` must equal `info.dim`, and any other's be at least
    `info.min_p` (DimensionError). Messages name the target by `info.what`.
    Generators check the rest of a domain (`h > 0`)."""
    kinds = info.kinds
    bad = sorted(set(params) - set(kinds))
    if bad:
        raise RejectedParameterError(
            f"request for {info.what} has {', '.join(bad)}, not accepted (accepts: {', '.join(kinds)})"
        )
    checked = {}
    for name, value in params.items():
        kind, nargs = kinds[name]
        if value is None and info.defaults.get(name, 0) is None:
            pass
        elif kind is int and nargs is None:
            value = _check_n(value, name)
        else:
            if kind is None:
                value = _reals(value, f"{name} must be numeric")
                finite = np.isfinite(value).all()
            else:
                values = (value,) if nargs is None else value
                ok = isinstance(values, (list, tuple, np.ndarray)) and len(values) == (nargs or 1)
                if not (ok and all(_is_kind(v, kind) for v in values)):
                    pair = f"a list of {nargs} {'integers' if kind is int else 'numbers'}"
                    must = pair if nargs else "true or false" if kind is bool else "a number"
                    raise ParameterError(f"{name} must be {must}, got {value!r}")
                finite = all(math.isfinite(_double(v)) for v in values)
            if not finite:
                raise ParameterError(f"parameter {name} of {info.what} must be finite, got {value!r}")
        checked[name] = value
    if info.dim is not None and checked.get("p", info.dim) != info.dim:
        raise DimensionError(f"{info.what} is defined for p = {info.dim}, got p = {checked['p']}")
    if checked.get("p", info.min_p) < info.min_p:
        raise DimensionError(f"{info.what} needs p >= {info.min_p}, got p = {checked['p']}")
    return checked


def generate(kind: str, n: int, seed=None, **params) -> Dataset:
    """Generate `n` points of the named shape kind: `gen_<kind>(n,
    seed=seed, **params)`, which checks its parameters; a parameter the
    kind does not take is refused, never ignored."""
    return shape_info(kind).func(n=n, seed=seed, **params)


def _unit_directions(rng, n: int, d: int) -> np.ndarray:
    """n directions uniform on the unit (d-1)-sphere (normalized Gaussians)."""
    v = rng.standard_normal((n, d))
    norms = _row_norms(v)
    norms[norms == 0] = 1.0
    v /= norms[:, None]
    return v


def _trunc_exp(rng, n: int, rate: float, high: float) -> np.ndarray:
    """Exponential(rate) conditioned on [0, high], via inverse CDF."""
    u = rng.random(n)
    return -np.log1p(-u * (1.0 - math.exp(-rate * high))) / rate


# ---------------------------------------------------------------------------
# Branching


_BRANCH_JITTER = 0.1  # local jitter amplitude delta
_LINEAR_SLOPE_RANGE = (-2.0, 2.0)  # extra-branch slopes, excluding (-0.1, 0.1)
_CURVY_SCALE_SET = (-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5)


def _box(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float, float]:
    return float(x.min()), float(x.max()), float(y.min()), float(y.max())


def _box_overlap_frac(cand, boxes) -> float:
    """Largest fraction of the candidate box covered by any existing box."""
    cx0, cx1, cy0, cy1 = cand
    area = max(cx1 - cx0, 1e-12) * max(cy1 - cy0, 1e-12)
    worst = 0.0
    for bx0, bx1, by0, by1 in boxes:
        w = min(cx1, bx1) - max(cx0, bx0)
        h = min(cy1, by1) - max(cy0, by0)
        if w > 0 and h > 0:
            worst = max(worst, (w * h) / area)
    return worst


def _attach(rng, xs: list[np.ndarray], ys: list[np.ndarray], boxes: list, box) -> tuple[float, float]:
    """A start (x0, y0) on a point of the branches so far, redrawn (up to 100
    tries) until the box `box(x0, y0)` of the branch from it overlaps theirs
    by less than half."""
    all_x, all_y = np.concatenate(xs), np.concatenate(ys)
    for _ in range(100):
        ix = int(rng.integers(0, all_x.size))
        x0, y0 = float(all_x[ix]), float(all_y[ix])
        if _box_overlap_frac(box(x0, y0), boxes) < 0.5:
            break
    return x0, y0


def _branches(n: int, k: int, seed, branch) -> Dataset:
    """k branches of gen_nsum(n, k) points, branch i (from 1) of m points
    being `branch(rng, i, m, attach)` -> (x, y), where `attach(box)` is
    `_attach` over the branches before it; labeled "branch_<i>"."""
    sizes = gen_nsum(n, k)
    rng = as_stream(seed).rng
    xs, ys, boxes = [], [], []
    for i, m in enumerate(sizes, start=1):
        x, y = branch(rng, i, m, lambda box: _attach(rng, xs, ys, boxes, box))
        xs.append(x)
        ys.append(y)
        boxes.append(_box(x, y))
    pts = np.column_stack([np.concatenate(xs), np.concatenate(ys)])
    codes = np.concatenate([np.full(len(x), i) for i, x in enumerate(xs)])
    return _adopt(pts, codes, [f"branch_{i + 1}" for i in range(len(xs))])


@_shape(2)
def gen_expbranches(n: int, k: int = 4, seed=None) -> Dataset:
    """k exponential branches in 2-D radiating from a central region.

    Branch i: X1 ~ U(-2, 2), X2 = exp(sigma_i s_i X1) + eps with
    sigma_i = (-1)^(i+1) alternating the exponent sign, s_i ~ U(0.5, 2),
    eps ~ U(0, delta).
    """

    def branch(rng, i, m, attach):
        sigma = 1.0 if i % 2 == 1 else -1.0
        s = float(rng.uniform(0.5, 2.0))
        x = rng.uniform(-2.0, 2.0, m)
        return x, np.exp(sigma * s * x) + rng.uniform(0.0, _BRANCH_JITTER, m)

    return _branches(n, k, seed, branch)


@_shape(2)
def gen_linearbranches(n: int, k: int = 4, seed=None) -> Dataset:
    """k noisy line segments in 2-D, later branches attached to earlier ones.

    Branch i follows X2 = s_i (X1 - x_start) + y_start + eps with
    eps ~ U(0, delta); s_1 = 0.5 and s_2 = -0.5 start at the origin, later
    branches start at a previously generated point with a random slope and
    are re-placed (up to 100 tries) until their bounding box overlaps the
    existing structure by less than half.
    """

    def branch(rng, i, m, attach):
        if i <= 2:
            x0 = y0 = 0.0
            slope, lo = (0.5, 0.0) if i == 1 else (-0.5, -1.0)
        else:
            while True:
                slope = float(rng.uniform(*_LINEAR_SLOPE_RANGE))
                if abs(slope) >= 0.1:
                    break
            x0, y0 = attach(lambda x0, y0: (x0, x0 + 1.0, min(y0, y0 + slope), max(y0, y0 + slope) + _BRANCH_JITTER))
            lo = x0
        x = rng.uniform(lo, lo + 1.0, m)
        return x, slope * (x - x0) + y0 + rng.uniform(0.0, _BRANCH_JITTER, m)

    return _branches(n, k, seed, branch)


def _curvy(x, s: float, x0: float, y0: float):
    """An attached curvy branch of curvature s from (x0, y0), at x."""
    return 0.1 * x - s * (x * x - x0) + y0


@_shape(2)
def gen_curvybranches(n: int, k: int = 4, seed=None) -> Dataset:
    """k quadratic branches in 2-D.

    The first two use fixed (domain, curvature) of ((0,1), 1) and
    ((-1,0), -2) with X2 = 0.1 X1 + s X1^2 + eps, eps ~ U(-delta, delta);
    branches beyond that attach at an existing point and extend over one
    unit via X2 = 0.1 X1 - s (X1^2 - x_start) + y_start with curvature
    drawn from a fixed set.
    """

    def branch(rng, i, m, attach):
        if i <= 2:
            a, b, s = (0.0, 1.0, 1.0) if i == 1 else (-1.0, 0.0, -2.0)
            x = rng.uniform(a, b, m)
            return x, 0.1 * x + s * x * x + rng.uniform(-_BRANCH_JITTER, _BRANCH_JITTER, m)
        s = float(rng.choice(_CURVY_SCALE_SET))

        def box(x0, y0):
            gx = np.linspace(x0, x0 + 1.0, 8)
            return _box(gx, _curvy(gx, s, x0, y0))

        x0, y0 = attach(box)
        x = rng.uniform(x0, x0 + 1.0, m)
        return x, _curvy(x, s, x0, y0)

    return _branches(n, k, seed, branch)


def _org_branches(n, p, k, allow_share, seed, curvy: bool) -> Dataset:
    sizes = gen_nsum(n, k)
    rng = as_stream(seed).rng
    all_pairs = list(itertools.combinations(range(p), 2))
    if allow_share:
        pair_seq = [all_pairs[int(rng.integers(0, len(all_pairs)))] for _ in range(k)]
    else:
        pair_seq = []
        while len(pair_seq) < k:  # fresh shuffled pass once all pairs are used
            order = rng.permutation(len(all_pairs))
            pair_seq.extend(all_pairs[ix] for ix in order)
        pair_seq = pair_seq[:k]
    scale_set = np.arange(1.0, 8.5, 0.5)
    pts_parts, codes = [], []
    for i, (m, (i1, i2)) in enumerate(zip(sizes, pair_seq), start=1):
        s = 1.0 if i <= len(all_pairs) else float(rng.choice(scale_set))
        x = rng.uniform(0.0, 1.0, m)
        f = -s * x * x if curvy else s * x
        block = np.zeros((m, p))
        block[:, i1] = x
        block[:, i2] = f + rng.normal(0.0, _BRANCH_JITTER, m)
        pts_parts.append(block)
        codes.append(np.full(m, i - 1))
    names = [f"branch_{i}" for i in range(1, k + 1)]
    return _adopt(np.vstack(pts_parts), np.concatenate(codes), names)


@_shape(None, 2)
def gen_orglinearbranches(n: int, p: int = 4, k: int = 4, allow_share: bool = False, seed=None) -> Dataset:
    """k linear branches leaving the origin, each in its own 2-D subspace.

    Branch i activates a coordinate pair (i1, i2) with X_i2 = s_i X_i1 +
    eps, eps ~ N(0, 0.1^2); pairs are drawn without replacement until all
    C(p, 2) are used unless allow_share is set. The first C(p, 2) branches
    use s_i = 1, later ones draw s_i from {1, 1.5, ..., 8}.
    """
    return _org_branches(n, p, k, allow_share, seed, curvy=False)


@_shape(None, 2)
def gen_orgcurvybranches(n: int, p: int = 4, k: int = 4, allow_share: bool = False, seed=None) -> Dataset:
    """Curvilinear variant of gen_orglinearbranches: X_i2 = -s_i X_i1^2 + eps."""
    return _org_branches(n, p, k, allow_share, seed, curvy=True)


# ---------------------------------------------------------------------------
# Cone


@_shape(None, 3)
def gen_cone(n: int, p: int = 4, h: float = 1.0, ratio: float = 0.5, seed=None) -> Dataset:
    """Cone surface in p dims: heights denser toward X_p = 0.

    X_p follows Exp(2/h) truncated to [0, h]; the first p-1 coordinates
    are a uniform direction on the (p-1)-sphere scaled by the
    height-dependent radius r = ratio + (1 - ratio) X_p / h, so every
    cross-section is a sphere of that radius. ratio in [0, 1] blunts the
    narrow end (1 gives a cylinder).
    """
    if h <= 0:
        raise ParameterError("h must be positive")
    if not 0.0 <= ratio <= 1.0:
        raise ParameterError("ratio must lie in [0, 1]")
    rng = as_stream(seed).rng
    z = _trunc_exp(rng, n, 2.0 / h, h)
    r = ratio + (1.0 - ratio) * z / h
    directions = _unit_directions(rng, n, p - 1)
    pts = np.empty((n, p))
    np.multiply(directions, r[:, None], out=pts[:, : p - 1])
    pts[:, p - 1] = z
    return _adopt(pts)


# ---------------------------------------------------------------------------
# Cube


def _lattice(axes) -> np.ndarray:
    """Every combination of the axis values, one column per axis, the last
    axis varying fastest (the rows of ``meshgrid(*axes, indexing="ij")``
    without its 64-axis limit)."""
    sizes = [len(a) for a in axes]
    return np.column_stack(
        [np.tile(np.repeat(a, math.prod(sizes[j + 1 :])), math.prod(sizes[:j])) for j, a in enumerate(axes)]
    )


@_shape(None)
def gen_gridcube(n: int, p: int = 4, seed=None) -> Dataset:
    """Regular lattice filling [0, 1]^p with approximately n points.

    Per-axis resolutions come from gen_nproduct(n, p); the realized point
    count is their product, and a LatticeSizeWarning says when it exceeds n.
    """
    factors = gen_nproduct(n, p)
    _warn_lattice_size("gridcube", math.prod(factors), n)
    return _adopt(_lattice([np.linspace(0.0, 1.0, m) for m in factors]))


@_shape(None)
def gen_unifcube(n: int, p: int = 4, seed=None) -> Dataset:
    """n points uniform in [0, 1]^p, with exact 0/1 vertices filtered out."""
    pts = as_stream(seed).rng.random((n, p))
    if pts.min() > 0.0:  # `Generator.random` draws from [0, 1): no row is at a vertex
        return _adopt(pts)
    at_vertex = ((pts == 0.0) | (pts == 1.0)).all(axis=1)
    return _adopt(pts[~at_vertex] if at_vertex.any() else pts)


# ---------------------------------------------------------------------------
# Gaussian


@_shape(None)
def gen_gaussian(n: int, p: int = 4, s=None, seed=None) -> Dataset:
    """n iid draws from N_p(0, s); s defaults to the identity. `check_params`
    hands `s` over as a float64 array (`core._reals`)."""
    if s is None:
        z = as_stream(seed).rng.standard_normal((n, p))
        # The same bits as z @ I, without BLAS: a product sums from +0.0, so
        # it too turns -0.0 into +0.0 and keeps every other value.
        z += 0.0
        return _adopt(z)
    if s.shape != (p, p):
        raise ParameterError(f"covariance must be {p} x {p}, got {s.shape}")
    if not np.allclose(s, s.T, atol=1e-10):
        raise ParameterError("covariance must be symmetric")
    try:
        chol = np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        raise ParameterError("covariance must be positive-definite") from None
    z = as_stream(seed).rng.standard_normal((n, p))
    return _adopt(z @ chol.T)


# ---------------------------------------------------------------------------
# Linear


@_shape(None)
def gen_longlinear(n: int, p: int = 4, seed=None) -> Dataset:
    """Single noisy linear trajectory along a shared index t_i = i - 1.

    X_ij = a_j (t_i + b_j + eps_ij) with a_j ~ U(-10, 10),
    b_j ~ U(-300, 300), eps ~ N(0, (0.03 n)^2), giving every dimension its
    own orientation, scale, and offset.
    """
    rng = as_stream(seed).rng
    t = np.arange(n, dtype=np.float64)
    a = rng.uniform(-10.0, 10.0, p)
    b = rng.uniform(-300.0, 300.0, p)
    eps = rng.normal(0.0, 0.03 * n, (n, p))
    pts = t[:, None] + b
    pts += eps
    pts *= a
    return _adopt(pts)


# ---------------------------------------------------------------------------
# Mobius


@_shape(3)
def gen_mobius(n: int, seed=None) -> Dataset:
    """Mobius band surface in 3-D (ring radius 1, width 1, half twist).

    x = (1 + (w/2) cos(t/2)) cos t, y = (1 + (w/2) cos(t/2)) sin t,
    z = (w/2) sin(t/2) with t ~ U(0, 2 pi), w ~ U(-1, 1).
    """
    rng = as_stream(seed).rng
    t = rng.uniform(0.0, 2.0 * np.pi, n)
    w = rng.uniform(-1.0, 1.0, n)
    radial = 1.0 + (w / 2.0) * np.cos(t / 2.0)
    return _adopt(
        np.column_stack(
            [radial * np.cos(t), radial * np.sin(t), (w / 2.0) * np.sin(t / 2.0)]
        )
    )


# ---------------------------------------------------------------------------
# Polynomial


def _curve(n: int, range, seed, f) -> Dataset:
    """X1 ~ U(range), X2 = f(X1) + eps, eps ~ U(0, 0.5)."""
    a, b = float(range[0]), float(range[1])
    if a >= b:
        raise ParameterError("range must satisfy a < b")
    _check_span(a, b, "range", range)
    rng = as_stream(seed).rng
    x1 = rng.uniform(a, b, n)
    return _adopt(np.column_stack([x1, f(x1) + rng.uniform(0.0, 0.5, n)]))


@_shape(2)
def gen_quadratic(n: int, range=(0.0, 1.0), seed=None) -> Dataset:
    """Downward parabolic arc: X2 = X1 - X1^2 + eps, eps ~ U(0, 0.5)."""
    return _curve(n, range, seed, lambda x1: x1 - x1 * x1)


@_shape(2)
def gen_cubic(n: int, range=(-1.0, 1.0), seed=None) -> Dataset:
    """Cubic curve: X2 = X1 + X1^2 - X1^3 + eps, eps ~ U(0, 0.5)."""
    return _curve(n, range, seed, lambda x1: x1 + x1 * x1 - x1**3)


# ---------------------------------------------------------------------------
# Pyramid


def _clamped_exp_heights(rng, n: int, h: float) -> np.ndarray:
    # min(Exp(2/h), h): skewed toward 0 with an atom of mass e^-2 at h
    return np.minimum(rng.exponential(scale=h / 2.0, size=n), h)


def _pyramid(rng, p: int, base: list, z: np.ndarray) -> Dataset:
    """The `base` columns, then N(0, 0.2^2) noise columns up to p - 1, then
    the heights z."""
    noise = rng.normal(0.0, 0.2, (len(z), p - 1 - len(base)))
    return _adopt(np.column_stack([*base, noise, z]))


@_shape(None, 4)
def gen_pyrrect(n: int, p: int = 4, h: float = 1.0, l_vec=(1.0, 1.0), rt: float = 0.0, seed=None) -> Dataset:
    """Rectangular-base pyramid; cross-section shrinks linearly toward X_p = 0.

    Heights are min(Exp(2/h), h). At height z the half-widths are
    r_x(z) = rt + (l_x - rt) z / h and r_y(z) likewise; X1 and X3 are
    uniform within +/- r_x(z), X2 within +/- r_y(z). Dims 4..p-1 are
    N(0, 0.2^2) noise, dim p is the height.
    """
    lx, ly = float(l_vec[0]), float(l_vec[1])
    if h <= 0 or lx <= 0 or ly <= 0:
        raise ParameterError("h and base half-widths must be positive")
    if rt < 0 or rt > lx or rt > ly:
        raise ParameterError("tip radius rt must lie in [0, min(l_vec)]")
    for half in (lx, ly):  # its half-width at the largest height, z = h
        top = float(rt) + (half - float(rt)) * float(h) / float(h)
        _check_span(-top, top, "l_vec", l_vec)
    rng = as_stream(seed).rng
    z = _clamped_exp_heights(rng, n, h)
    rx = rt + (lx - rt) * z / h
    ry = rt + (ly - rt) * z / h
    return _pyramid(rng, p, [rng.uniform(-rx, rx), rng.uniform(-ry, ry), rng.uniform(-rx, rx)], z)


@_shape(None, 4)
def gen_pyrtri(n: int, p: int = 4, h: float = 1.0, l: float = 1.0, rt: float = 0.0, seed=None) -> Dataset:
    """Triangular-base pyramid sampled with barycentric coordinates.

    Heights are min(Exp(2/h), h); at height z the triangle scale is
    r(z) = rt + (l - rt) z / h and (u, v) ~ U(0, 1)^2 folded across
    u + v = 1 give X1 = r (1 - u - v), X2 = r u, X3 = r v. Dims 4..p-1
    are noise, dim p is the height.
    """
    if h <= 0 or l <= 0:
        raise ParameterError("h and l must be positive")
    if rt < 0 or rt > l:
        raise ParameterError("tip radius rt must lie in [0, l]")
    rng = as_stream(seed).rng
    z = _clamped_exp_heights(rng, n, h)
    r = rt + (l - rt) * z / h
    u = rng.random(n)
    v = rng.random(n)
    fold = u + v > 1.0
    u[fold], v[fold] = 1.0 - u[fold], 1.0 - v[fold]
    return _pyramid(rng, p, [r * (1.0 - u - v), r * u, r * v], z)


@_shape(None, 3)
def gen_pyrstar(n: int, p: int = 4, h: float = 1.0, rb: float = 1.0, seed=None) -> Dataset:
    """Six-pointed star pyramid: spokes at hexagon sector angles.

    Heights are U(0, h) and the radius scales as r(z) = rb (1 - z / h),
    so the tip sits at z = h. Each point picks one of the six angles
    {0, pi/3, ..., 5 pi/3} and a radial factor sqrt(U(0, 1)). Dims
    3..p-1 are noise, dim p is the height.
    """
    if h <= 0 or rb <= 0:
        raise ParameterError("h and rb must be positive")
    rng = as_stream(seed).rng
    z = rng.uniform(0.0, h, n)
    r = rb * (1.0 - z / h)
    spoke = rng.integers(0, 6, n)
    angles = np.arange(6) * (np.pi / 3.0)  # the six angles, each taken once
    rp = np.sqrt(rng.random(n))
    return _pyramid(rng, p, [r * rp * np.cos(angles)[spoke], r * rp * np.sin(angles)[spoke]], z)


@_shape(None, 2)
def gen_pyrfrac(n: int, p: int = 3, seed=None) -> Dataset:
    """Sierpinski-style chaos game over the corner simplex of [0, 1]^p.

    Starting from T_0 ~ U(0, 1)^p, each iterate moves halfway toward a
    random vertex of the simplex {0, e_1, ..., e_p}; the n iterates
    T_1..T_n are returned (early ones may sit slightly off the attractor).
    """
    rng = as_stream(seed).rng
    picks = rng.integers(0, p + 1, n)
    return _adopt(_chaos_game(picks, rng.random(p)))


# 2^-k for k <= 1075; 2^-1075 rounds to 0, as does every smaller power.
_POW2 = np.ldexp(1.0, -np.arange(1076))


def _chaos_game(picks: np.ndarray, t0: np.ndarray) -> np.ndarray:
    """The iterates of `t = 0.5 * (t + vertices[picks[i]])` from `t = t0`
    (vertex 0 the origin, vertex c + 1 e_c), bit for bit as that loop
    computes them, one column at a time.

    In column c a step that picks c + 1 (a "hit") sets t to 0.5 * (t + 1.0),
    which rounds; every other step halves t, exactly while t is at least
    2^-1022. So a hit's value is 0.5 * (prev * 2^-g + 1.0), g the halvings
    since the previous hit (or t0): a prev below 2^-1022 is below 2^-53 and
    leaves 1.0 as it is, however it was rounded. Every other cell is its
    run's start value times 2^-k. Below 2^-1022 that product can differ
    from repeated halving, so those cells are redone one halving at a time
    from the last exact cell; within 54 halvings both are 0.
    """
    n, p = len(picks), len(t0)
    out = np.empty((n, p))
    rows = np.arange(n)
    redo = []
    for c in range(p):
        hit = picks == c + 1
        start = np.concatenate(([-1], np.flatnonzero(hit)))
        values = [float(t0[c])]
        for f in _POW2[np.minimum(np.diff(start) - 1, 1075)].tolist():
            values.append(0.5 * (values[-1] * f + 1.0))
        values = np.array(values)
        run = np.cumsum(hit)
        k = np.minimum(rows - start[run], 1075)
        np.multiply(values[run], _POW2[k], out=out[:, c])
        # A run from w = m * 2^E (0.5 <= m < 1) is exact for k <= E + 1021.
        k0 = np.maximum(np.frexp(values)[1] + 1021, 0)
        end = np.append(start[1:], n)
        low = start + k0 + 1 < end
        if low.any():
            x = np.ldexp(values[low], -k0[low])
            redo.append((start[low] + k0[low], np.full(len(x), c), end[low], x))
    if redo:
        row, col, end, x = map(np.concatenate, zip(*redo))
        for _ in range(64):
            x = 0.5 * x
            row = row + 1
            keep = row < end
            out[row[keep], col[keep]] = x[keep]
    return out


# ---------------------------------------------------------------------------
# S-curve


@_shape(3)
def gen_scurve(n: int, seed=None) -> Dataset:
    """S-shaped 3-D manifold, noise-free.

    X1 = sin(theta), X2 ~ U(0, 2), X3 = sign(theta)(cos(theta) - 1) with
    theta ~ U(-3 pi / 2, 3 pi / 2).
    """
    rng = as_stream(seed).rng
    theta = rng.uniform(-1.5 * np.pi, 1.5 * np.pi, n)
    return _adopt(
        np.column_stack(
            [
                np.sin(theta),
                rng.uniform(0.0, 2.0, n),
                np.sign(theta) * (np.cos(theta) - 1.0),
            ]
        )
    )


# ---------------------------------------------------------------------------
# Sphere family


def _cycle(n: int, p: int, seed, base) -> Dataset:
    """The columns `base(theta)`, theta ~ U(0, 2 pi), then damped sinusoid
    extensions up to p columns: column j > b = len(base(theta)) is
    sqrt(0.5^(j-b)) sin(theta + (j - 2) pi / (2 p))."""
    theta = as_stream(seed).rng.uniform(0.0, 2.0 * np.pi, n)
    cols = base(theta)
    b = len(cols)
    for j in range(b + 1, p + 1):
        cols.append(math.sqrt(0.5 ** (j - b)) * np.sin(theta + (j - 2) * np.pi / (2 * p)))
    return _adopt(np.column_stack(cols))


@_shape(None, 2)
def gen_circle(n: int, p: int = 4, seed=None) -> Dataset:
    """Unit circle in the first two dims with damped sinusoid extensions.

    X1 = cos(theta), X2 = sin(theta); dimension j >= 3 adds
    sqrt(0.5^(j-2)) sin(theta + (j - 2) pi / (2 p)).
    """
    return _cycle(n, p, seed, lambda theta: [np.cos(theta), np.sin(theta)])


@_shape(None, 3)
def gen_curvycycle(n: int, p: int = 4, seed=None) -> Dataset:
    """Closed curve with a third-harmonic fold, plus sinusoid extensions.

    X1 = cos(theta), X2 = sqrt(3)/3 + sin(theta), X3 = cos(3 theta) / 3;
    dimension j >= 4 adds sqrt(0.5^(j-3)) sin(theta + (j - 2) pi / (2 p)).
    """
    return _cycle(
        n, p, seed, lambda theta: [np.cos(theta), math.sqrt(3.0) / 3.0 + np.sin(theta), np.cos(3.0 * theta) / 3.0]
    )


def _sphere_surface(rng, n: int, r: float) -> np.ndarray:
    u = rng.uniform(-1.0, 1.0, n)
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    rad = np.sqrt(1.0 - u * u)
    return np.column_stack([r * rad * np.cos(theta), r * rad * np.sin(theta), r * u])


@_shape(3)
def gen_unifsphere(n: int, r: float = 1.0, seed=None) -> Dataset:
    """n points uniform on the surface (not interior) of a 3-D sphere of radius r."""
    if r <= 0:
        raise ParameterError("r must be positive")
    return _adopt(_sphere_surface(as_stream(seed).rng, n, float(r)))


@_shape(None, 2)
def gen_hollowsphere(n: int, p: int = 4, seed=None) -> Dataset:
    """n points uniform on the unit (p-1)-sphere surface in R^p."""
    return _adopt(_unit_directions(as_stream(seed).rng, n, p))


@_shape(None, 2)
def gen_gridedsphere(n: int, p: int = 3, seed=None) -> Dataset:
    """Deterministic spherical-coordinate grid on the unit (p-1)-sphere.

    Uses p-1 angular axes, the first p-2 over [0, pi] and the last over
    [0, 2 pi], with per-axis resolutions from gen_nproduct(n, p - 1); the
    realized point count is their product, and a LatticeSizeWarning says
    when it exceeds n.
    """
    factors = gen_nproduct(n, p - 1)
    _warn_lattice_size("gridedsphere", math.prod(factors), n)
    axes = [np.linspace(0.0, np.pi, m) for m in factors[:-1]]
    axes.append(np.linspace(0.0, 2.0 * np.pi, factors[-1]))
    angles = _lattice(axes)
    count = angles.shape[0]
    pts = np.empty((count, p))
    sin_prod = np.ones(count)
    for j in range(p - 1):
        pts[:, j] = sin_prod * np.cos(angles[:, j])
        sin_prod = sin_prod * np.sin(angles[:, j])
    pts[:, p - 1] = sin_prod
    return _adopt(pts)


@_shape(3)
def gen_clusteredspheres(
    n: int | None = None,
    k_small: int = 3,
    r_vec=(10.0, 1.0),
    spe: float = 3.0,
    n_vec: tuple[int, int] | None = None,
    seed=None,
) -> Dataset:
    """One big sphere surface plus k_small small ones at random centers.

    The big sphere (radius r_vec[0]) is centered at the origin; each small
    sphere (radius r_vec[1]) is centered at a draw from N(0, spe^2 I_3).
    Sizes come from n_vec = (n_big, n_each_small), and an n given beside it
    must equal its total n_big + k_small * n_each_small; when only a total n
    is given, each small sphere gets n // (2 k_small) points and the big one
    the remainder. Rows are labeled "big" and "small_1".."small_k".
    """
    r1, r2 = float(r_vec[0]), float(r_vec[1])
    if r1 <= 0 or r2 <= 0:
        raise ParameterError("radii must be positive")
    if spe <= 0:
        raise ParameterError("spe must be positive")
    if n_vec is not None:
        n1, n2 = _check_n(n_vec[0], "n_vec"), _check_n(n_vec[1], "n_vec")
        if n is not None and n != n1 + k_small * n2:
            raise ParameterError(
                f"n = {n} differs from the total of n_vec = ({n1}, {n2}) with "
                f"k_small = {k_small}: {n1} + {k_small} * {n2} = {n1 + k_small * n2}"
            )
    elif n is not None:
        n2 = max(1, n // (2 * k_small))
        n1 = n - k_small * n2
    else:
        n1, n2 = 500, 100
    if n1 < 1 or n2 < 1:
        raise ParameterError("sphere sizes must be positive (n too small for k_small)")
    stream = as_stream(seed)
    parts = [_sphere_surface(stream.derive(0).rng, n1, r1)]
    for i in range(1, k_small + 1):
        sub = stream.derive(i).rng
        center = sub.normal(0.0, spe, 3)
        parts.append(_sphere_surface(sub, n2, r2) + center)
    codes = np.repeat(np.arange(k_small + 1), [n1] + [n2] * k_small)
    names = ["big"] + [f"small_{i}" for i in range(1, k_small + 1)]
    return _adopt(np.vstack(parts), codes, names)


@_shape(4)
def gen_hemisphere(n: int, p: int = 4, seed=None) -> Dataset:
    """Half of the unit 3-sphere in 4-D.

    theta1, theta2 ~ U(0, pi) and theta3 ~ U(0, pi/2) map to
    X1 = sin(t1) cos(t2), X2 = sin(t1) sin(t2), X3 = cos(t1) cos(t3),
    X4 = cos(t1) sin(t3); the restricted third angle keeps X3 and X4 on
    the same side.
    """
    rng = as_stream(seed).rng
    t1 = rng.uniform(0.0, np.pi, n)
    t2 = rng.uniform(0.0, np.pi, n)
    t3 = rng.uniform(0.0, np.pi / 2.0, n)
    s1, c1 = np.sin(t1), np.cos(t1)
    return _adopt(np.column_stack([s1 * np.cos(t2), s1 * np.sin(t2), c1 * np.cos(t3), c1 * np.sin(t3)]))


# ---------------------------------------------------------------------------
# Swiss roll


@_shape(3)
def gen_swissroll(n: int, w=(0.0, 10.0), seed=None) -> Dataset:
    """Rolled plane: X1 = t cos t, X2 = t sin t, X3 ~ U(w1, w2), t ~ U(0, 3 pi)."""
    w1, w2 = float(w[0]), float(w[1])
    if w1 >= w2:
        raise ParameterError("w must satisfy w1 < w2")
    _check_span(w1, w2, "w", w)
    rng = as_stream(seed).rng
    t = rng.uniform(0.0, 3.0 * np.pi, n)
    return _adopt(np.column_stack([t * np.cos(t), t * np.sin(t), rng.uniform(w1, w2, n)]))


# ---------------------------------------------------------------------------
# Trefoil knots


_TREFOIL_BAND = 0.1  # half-width of the theta band around pi/4


@_shape(4)
def gen_trefoil4d(n: int, steps: int = 8, seed=None) -> Dataset:
    """Trefoil-knot band on the unit 3-sphere in 4-D.

    A grid of `steps` band angles theta around pi/4 and ~n/steps knot
    angles phi over [0, 4 pi) maps through X1 = cos(t) cos(phi),
    X2 = cos(t) sin(phi), X3 = sin(t) cos(1.5 phi), X4 = sin(t) sin(1.5 phi);
    the 1.5-frequency pair closes only after phi advances 4 pi. The grid
    tail is trimmed so exactly n rows come back.
    """
    if steps == 1:
        thetas = np.array([np.pi / 4.0])
    else:
        thetas = np.linspace(np.pi / 4.0 - _TREFOIL_BAND, np.pi / 4.0 + _TREFOIL_BAND, steps)
    m = -(-n // steps)
    phis = np.linspace(0.0, 4.0 * np.pi, m, endpoint=False)
    # Row i has band angle i // m and knot angle i % m: each cos and sin is
    # taken once per angle, and each column is an outer product of them.
    ct, st = np.cos(thetas), np.sin(thetas)
    cp, sp, c15, s15 = np.cos(phis), np.sin(phis), np.cos(1.5 * phis), np.sin(1.5 * phis)
    outer = np.multiply.outer
    grid = np.stack([outer(ct, cp), outer(ct, sp), outer(st, c15), outer(st, s15)], axis=-1)
    return _adopt(grid.reshape(steps * m, 4)[:n])


@_shape(3)
def gen_trefoil3d(n: int, steps: int = 8, seed=None) -> Dataset:
    """Stereographic image of the 4-D trefoil band: X_i -> X_i / (1 - X4).

    The band's theta stays within pi/4 +/- 0.1, so |X4| <= sin(pi/4 + 0.1)
    < 0.78 whatever `steps` is: the projection never meets its pole
    (X4 = 1), and all n rows come back.
    """
    d4 = gen_trefoil4d(n, steps=steps, seed=seed).points
    return _adopt(d4[:, :3] / (1.0 - d4[:, 3])[:, None])


# ---------------------------------------------------------------------------
# Trigonometric


@_shape(2)
def gen_crescent(n: int, p: int = 2, seed=None) -> Dataset:
    """Crescent arc: n evenly spaced angles on [pi/6, 2 pi] mapped to the
    unit circle.

    Always returns the two arc coordinates; lift to higher dims by
    appending noise dims.
    """
    theta = np.linspace(np.pi / 6.0, 2.0 * np.pi, n)
    return _adopt(np.column_stack([np.cos(theta), np.sin(theta)]))


@_shape(4)
def gen_curvycylinder(n: int, h: float = 10.0, p: int = 4, seed=None) -> Dataset:
    """Cylinder with a sinusoidal fourth dimension tied to height.

    theta ~ U(0, 3 pi), z ~ U(0, h); X1 = cos(theta), X2 = sin(theta),
    X3 = z, X4 = sin(z).
    """
    if h <= 0:
        raise ParameterError("h must be positive")
    rng = as_stream(seed).rng
    theta = rng.uniform(0.0, 3.0 * np.pi, n)
    z = rng.uniform(0.0, h, n)
    return _adopt(np.column_stack([np.cos(theta), np.sin(theta), z, np.sin(z)]))


@_shape(4)
def gen_sphericalspiral(n: int, spins: int = 3, p: int = 4, seed=None) -> Dataset:
    """Spiral sweeping pole to pole over a unit sphere, plus path progress.

    theta runs over [0, 2 pi spins] and phi over [0, pi]; X1 =
    sin(phi) cos(theta), X2 = sin(phi) sin(theta), X3 = cos(phi) + eps
    with eps ~ U(-0.5, 0.5), X4 = theta / max(theta).
    """
    top = 2.0 * np.pi * spins
    theta = np.linspace(0.0, top, n)
    phi = np.linspace(0.0, np.pi, n)
    eps = as_stream(seed).rng.uniform(-0.5, 0.5, n)
    sphi = np.sin(phi)
    return _adopt(np.column_stack([sphi * np.cos(theta), sphi * np.sin(theta), np.cos(phi) + eps, theta / top]))


@_shape(4)
def gen_helicalspiral(n: int, p: int = 4, seed=None) -> Dataset:
    """Partial helix with a jittered height and a periodic wobble.

    theta runs over [0, 5 pi / 4]; X1 = cos(theta), X2 = sin(theta),
    X3 = 0.05 theta + eps with eps ~ U(-0.5, 0.5), X4 = 0.1 sin(theta).
    """
    theta = np.linspace(0.0, 5.0 * np.pi / 4.0, n)
    eps = as_stream(seed).rng.uniform(-0.5, 0.5, n)
    stheta = np.sin(theta)
    return _adopt(np.column_stack([np.cos(theta), stheta, 0.05 * theta + eps, 0.1 * stheta]))


@_shape(4)
def gen_conicspiral(n: int, spins: int = 3, p: int = 4, seed=None) -> Dataset:
    """Archimedean spiral fanning out like a conic helix.

    theta runs over [0, 2 pi spins]; X1 = theta cos(theta),
    X2 = theta sin(theta), X3 = 2 theta / max(theta) + eps3,
    X4 = theta sin(2 theta) + eps4 with eps3, eps4 ~ U(-0.1, 0.6).
    """
    top = 2.0 * np.pi * spins
    theta = np.linspace(0.0, top, n)
    rng = as_stream(seed).rng
    eps3 = rng.uniform(-0.1, 0.6, n)
    eps4 = rng.uniform(-0.1, 0.6, n)
    return _adopt(
        np.column_stack(
            [
                theta * np.cos(theta),
                theta * np.sin(theta),
                2.0 * theta / top + eps3,
                theta * np.sin(2.0 * theta) + eps4,
            ]
        )
    )


@_shape(4)
def gen_nonlinear(n: int, hc: float = 1.0, non_fac: float = 1.0, p: int = 4, seed=None) -> Dataset:
    """Hyperbola-plus-sinusoid surface with a cosine fourth dimension.

    X1 ~ U(0.1, 2), X2 = hc / X1 + non_fac sin(X1), X3 ~ U(0.1, 0.8),
    X4 = cos(pi X1) + eps with eps ~ U(-0.1, 0.1).
    """
    if hc <= 0:
        raise ParameterError("hc must be positive")
    if non_fac < 0:
        raise ParameterError("non_fac must be non-negative")
    rng = as_stream(seed).rng
    x1 = rng.uniform(0.1, 2.0, n)
    x3 = rng.uniform(0.1, 0.8, n)
    x2 = hc / x1 + non_fac * np.sin(x1)
    x4 = np.cos(np.pi * x1) + rng.uniform(-0.1, 0.1, n)
    return _adopt(np.column_stack([x1, x2, x3, x4]))


__all__ += [info.func.__name__ for info in SHAPES.values()]
