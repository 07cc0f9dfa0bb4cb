"""Core utilities shared by every generator.

Seedable random streams with deterministic substream derivation, the
Dataset container (an n x p float matrix with canonical ``x1..xp`` column
names and optional row labels), plane-rotation composition, integer
partition helpers, and small dataset transforms (normalization, row
shuffling, cluster relocation, background noise).
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import math
import numbers
import os
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ParameterError",
    "DimensionError",
    "RandomStream",
    "make_stream",
    "derive",
    "as_stream",
    "Dataset",
    "as_dataset",
    "RotationPlan",
    "gen_rotation",
    "gen_nproduct",
    "gen_nsum",
    "normalize_data",
    "randomize_rows",
    "relocate_clusters",
    "gen_bkgnoise",
]

_MASK64 = 0xFFFFFFFFFFFFFFFF

# The largest count numpy can size an array axis by.
_MAX_COUNT = int(np.iinfo(np.intp).max)


class ParameterError(ValueError):
    """An argument value is outside its accepted domain."""


class DimensionError(ParameterError):
    """A dimension argument is incompatible with a shape or dataset."""


_held = contextvars.ContextVar("hdshapes_held_warnings", default=None)


def _warn(message: str, category: type[Warning], stacklevel: int) -> None:
    """Append (message, category) to the list `_holding` set in this context,
    or else `warnings.warn` it, `stacklevel` counted as `warnings.warn` counts."""
    held = _held.get()
    if held is None:
        warnings.warn(message, category, stacklevel=stacklevel + 1)
    else:
        held.append((message, category))


@contextlib.contextmanager
def _holding(events: list):
    """Within the block, `_warn` appends to `events`. A context variable holds
    the list, so no other thread's warnings join it and nothing process-wide changes."""
    token = _held.set(events)
    try:
        yield
    finally:
        _held.reset(token)


def _check_n(value, name: str = "n") -> int:
    """`value` as an int; rejects a fractional, non-finite, non-numeric,
    bool or non-positive value instead of truncating it, and one above
    `_MAX_COUNT`, which no array can hold. Integral floats such as 3.0 and
    numpy integers pass."""
    try:
        count = None if isinstance(value, (bool, np.bool_)) else int(value)
    except (TypeError, ValueError, OverflowError):
        count = None
    if count is None or count != value or count < 1:
        raise ParameterError(f"{name} must be a positive integer, got {value!r}")
    if count > _MAX_COUNT:
        raise ParameterError(f"{name} must be at most {_MAX_COUNT}, got {value!r}")
    return count


def _cpu_count() -> int:
    """The number of CPUs this process may run on (its affinity mask, which
    `taskset` sets), or 1 where `os.sched_getaffinity` is missing."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _each_cluster(k: int, job, lead=None) -> list:
    """[job(0), ..., job(k - 1)], run by the calling thread and one helper
    thread per further CPU in the affinity mask, at most one thread per
    cluster: the one way work is shared out to every CPU in process (the
    composer's clusters, the shares of rows `Dataset.take` gathers). Every
    helper has ended when this returns or raises. Given `lead`, up to k
    helpers start, and the calling thread first runs lead() as a plain call
    (its warnings and errors are its own, as if no job ran beside it) and
    then takes any job left; if lead() raises, its error is raised once the
    helpers have ended.

    Threads take clusters in increasing order, and none is taken after one
    fails, so every cluster before the first failed one has run: its
    exception is raised, as a loop over the clusters would raise it. An
    interrupt (an exception that is not an `Exception`) is raised first.
    Helpers run in copies of the caller's context, so `np.errstate` holds
    in them too.

    Each job holds its warnings in a list of its own (`core._holding`), and
    numpy's floating-point errors too ("overflow encountered in cluster c")
    for each kind whose mode is "warn" while no `np.seterrcall` callback is
    set. After the join, the calling thread issues them cluster by cluster
    up to the first failed cluster, so warning filters decide in one thread.
    """
    results, errors, held = [None] * k, [None] * k, [[] for _ in range(k)]
    taken = itertools.count()  # next() on it is one call under the interpreter lock
    failed = threading.Event()
    fp_held = {kind: "call" for kind, mode in np.geterr().items() if mode == "warn" and np.geterrcall() is None}

    def run(c: int):
        def hold_fp(err: str, flag: int) -> None:
            held[c].append((f"{err} encountered in cluster {c}", RuntimeWarning))

        with _holding(held[c]), np.errstate(call=hold_fp, **fp_held) if fp_held else contextlib.nullcontext():
            return job(c)

    def work() -> None:
        while not failed.is_set() and (c := next(taken)) < k:
            try:
                results[c] = run(c)
            except BaseException as exc:
                errors[c] = exc
                failed.set()

    helpers = []
    try:
        for _ in range(min(k - (lead is None), _cpu_count() - 1)):
            helpers.append(threading.Thread(target=contextvars.copy_context().run, args=(work,)))
            helpers[-1].start()
        if lead is not None:
            lead()
        work()
    finally:
        failed.set()  # if the calling thread was interrupted, helpers take no more clusters
        for thread in helpers:
            thread.join()
    for exc in errors:
        if exc is not None and not isinstance(exc, Exception):
            raise exc
    last = next((c for c, exc in enumerate(errors) if exc is not None), k - 1)
    for message, category in itertools.chain.from_iterable(held[: last + 1]):
        _warn(message, category, 3)  # the caller of gen_multicluster
    if errors[last] is not None:
        raise errors[last]
    return results


def _is_kind(value, kind) -> bool:
    """Whether `value` is a scalar of `kind`: a bool for bool, a real
    number for float, an integral one for int; a bool is no number."""
    if isinstance(value, (bool, np.bool_)):
        return kind is bool
    if kind is bool or not isinstance(value, numbers.Real):
        return False
    return kind is float or isinstance(value, numbers.Integral) or float(value).is_integer()


def _double(value) -> float:
    """The real number `value` as a double. An integer beyond the largest
    double is the infinity it rounds to, as a float literal that large is,
    so a check for finite values refuses it by name."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _number(value, name: str):
    """`value` if it is a finite real number; a ParameterError naming `name`
    if it is anything else (a bool or a numeric string included) or if it is
    NaN or infinite as a double."""
    if not _is_kind(value, float):
        raise ParameterError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(_double(value)):
        raise ParameterError(f"{name} must be finite, got {value!r}")
    return value


def _check_span(low, high, name: str, value) -> None:
    """A ParameterError naming `name` (given as `value`) unless high - low,
    the width of a uniform draw over [low, high], is a finite double: numpy
    refuses a wider one with an OverflowError."""
    if not math.isfinite(float(high) - float(low)):
        raise ParameterError(f"{name} gives a span wider than the largest double, got {value!r}")


def _reals(value, what: str, name: str | None = None) -> np.ndarray:
    """`value`, a number, a nested list of numbers or a numeric array, as a
    float64 array. A bool, string or None entry, or a ragged nesting, is
    refused with "<what>, got <value>" instead of converted; given `name`,
    a NaN or infinite entry (as a double, `_double`) is refused as "<name>
    must be finite"."""
    arr = value if isinstance(value, np.ndarray) else np.array(value, dtype=object)
    if arr.dtype == object and all(_is_kind(v, float) for v in arr.flat):
        arr = np.array([_double(v) for v in arr.flat]).reshape(arr.shape)
    if arr.dtype.kind not in "iuf":
        raise ParameterError(f"{what}, got {value!r}")
    arr = np.asarray(arr, dtype=np.float64)
    if name is not None and not np.isfinite(arr).all():
        raise ParameterError(f"{name} must be finite, got {value!r}")
    return arr


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _stream_int(value, name: str) -> int:
    """`value` as an int if it is a Python or numpy integer (not a bool) in
    [0, 2**64); anything else is a ParameterError."""
    ok = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (ok and 0 <= int(value) <= _MASK64):
        raise ParameterError(f"{name} must be an integer in [0, 2**64), got {value!r}")
    return int(value)


class RandomStream:
    """Seeded random source with deterministic substream derivation.

    A stream is identified by a root seed in [0, 2**64) plus a path of
    derivation indices; equal (seed, path) pairs always produce
    bit-identical draws, and distinct paths give statistically independent
    sequences. Typical paths encode a cluster index, then a stage or
    column index. The seed and every index must be a Python or numpy
    integer in [0, 2**64); anything else is refused, never coerced.
    """

    __slots__ = ("seed", "path", "_rng")

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        self.seed = _stream_int(seed, "seed")
        self.path = tuple(_stream_int(ix, "stream index") for ix in path)
        self._rng = None

    def derive(self, index: int) -> "RandomStream":
        """Child stream for `index`, independent of this stream's draws."""
        return RandomStream(self.seed, (*self.path, index))

    def _mixed_seed(self) -> int:
        state = _splitmix64(self.seed)
        for ix in self.path:
            state = _splitmix64(state ^ _splitmix64(ix))
        return state

    @property
    def rng(self) -> np.random.Generator:
        """The numpy Generator backing this stream (created lazily, once)."""
        if self._rng is None:
            self._rng = np.random.default_rng(self._mixed_seed())
        return self._rng

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, path={self.path})"


def make_stream(seed: int) -> RandomStream:
    """Root stream for a 64-bit unsigned seed."""
    return RandomStream(seed)


def derive(stream: RandomStream, index: int) -> RandomStream:
    """Independent child stream of `stream` for derivation index `index`."""
    return stream.derive(index)


def as_stream(seed=None) -> RandomStream:
    """Normalize `seed` into a RandomStream.

    Accepts an existing stream (returned as is), a non-negative int, or
    None for a fresh entropy-derived stream. A bool is refused rather than
    read as seed 0 or 1. Analogous to scikit-learn's ``check_random_state``.
    """
    if isinstance(seed, RandomStream):
        return seed
    if seed is None:
        import secrets  # only an unseeded call needs it; start-up does not pay for it

        return RandomStream(secrets.randbits(64))
    if isinstance(seed, (int, np.integer)) and not isinstance(seed, bool):
        return RandomStream(int(seed))
    raise ParameterError(f"seed must be an int, RandomStream, or None, got {type(seed).__name__}")


def _factorize(labels) -> tuple[np.ndarray, tuple[str, ...]]:
    """Integer codes and sorted category names whose ``names[codes]`` equals
    ``[str(v) for v in labels]``; ``str`` runs once per distinct value."""
    arr = np.asarray(labels).ravel()
    if arr.dtype.kind == "O":
        # Equal objects can print differently (1 and 1.0) and mixed types do
        # not sort, so objects are named row by row.
        arr = np.array([str(v) for v in arr], dtype=str)
    # Floats are keyed by their bytes: 0.0 and -0.0 are equal but print differently.
    key = arr.view(f"V{arr.itemsize}") if arr.dtype.kind in "fc" else arr
    _, first, codes = np.unique(key, return_index=True, return_inverse=True)
    # Distinct keys can share a name (NaN payloads); merge them.
    names, merged = np.unique(np.array([str(v) for v in arr[first]], dtype=str), return_inverse=True)
    return merged[codes], tuple(names.tolist())


# Rows per share of `Dataset.take`: a helper thread costs ~0.2 ms (2 vCPUs), as a 16384 x 20 gather does.
_SHARE_ROWS = 1 << 14


class Dataset:
    """Immutable n x p coordinate matrix with optional per-row labels.

    Columns are always named ``x1..xp``. Every entry must be finite; label
    count, when labels are present, must equal the row count.

    Labels are stored as integer ``codes`` into a tuple of ``categories``
    (names), like a pandas ``Categorical``; ``labels`` materialises the
    per-row names on first use. ``Dataset(points, labels)`` takes one label
    per row and names each ``str(label)``; ``Dataset(points, codes,
    categories)`` takes codes directly. Categories may include names that
    no row uses, for example after ``take``.

    The constructor copies the arrays it is given, so the caller's arrays
    stay writeable and unshared. Datasets built inside hdshapes own their
    arrays instead (see ``_adopt``).
    """

    __slots__ = ("points", "codes", "categories", "_labels")

    def __init__(self, points, labels=None, categories=None, *, _own=False):
        own = np.asarray if _own else np.array
        pts = own(points, dtype=np.float64)
        if pts.ndim != 2:
            raise ParameterError(f"points must be a 2-D matrix, got ndim={pts.ndim}")
        _check_finite(pts)
        if labels is None:
            if categories is not None:
                raise ParameterError("categories given without label codes")
            self._freeze(pts, None, None)
            return
        if categories is None:
            codes, categories = _factorize(labels)
        else:
            codes = np.asarray(labels).ravel()
            categories = tuple(str(name) for name in categories)
            if codes.dtype.kind not in "iu":
                raise ParameterError(f"label codes must be integers, got dtype {codes.dtype}")
            if codes.size and not (0 <= codes.min() and codes.max() < len(categories)):
                raise ParameterError(f"label codes must lie in [0, {len(categories)})")
            if len(set(categories)) != len(categories):
                raise ParameterError("category names must be distinct")
        if codes.shape[0] != pts.shape[0]:
            raise ParameterError(
                f"label count {codes.shape[0]} does not match row count {pts.shape[0]}"
            )
        self._freeze(pts, own(codes, dtype=np.intp), categories)

    def _freeze(self, points, codes, categories) -> None:
        points.setflags(write=False)
        if codes is not None:
            codes.setflags(write=False)
        self.points, self.codes, self.categories = points, codes, categories
        self._labels = None

    @classmethod
    def _checked(cls, points, codes=None, categories=None) -> "Dataset":
        """A Dataset of arrays built only from checked ones (rows gathered
        from a Dataset, a scene of checked blocks, two Datasets' columns
        joined) that no one else can write: frozen as they are, with no
        copy and no check."""
        out = cls.__new__(cls)
        out._freeze(points, codes, categories)
        return out

    @property
    def labels(self) -> np.ndarray | None:
        """Read-only unicode array of per-row label names, or None."""
        if self._labels is None and self.codes is not None:
            lab = np.array(self.categories, dtype=str)[self.codes]
            lab.setflags(write=False)
            self._labels = lab
        return self._labels

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def p(self) -> int:
        return self.points.shape[1]

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(f"x{j}" for j in range(1, self.p + 1))

    def with_points(self, points) -> "Dataset":
        """A Dataset of a copy of `points` (same row count) carrying this
        one's labels."""
        return Dataset(points, self.codes, self.categories)

    def take(self, indices) -> "Dataset":
        """Row subset/permutation by integer indices (negative ones count
        from the end) or a boolean row mask; labels travel with their rows.
        An index out of range is numpy's IndexError, raised before any row
        is copied. Each CPU gathers a share of at least `_SHARE_ROWS` rows
        into the new arrays (`_each_cluster`), which are not re-checked
        (`_checked`): this Dataset's rows were checked when it was built."""
        idx = np.asarray(indices)
        if idx.ndim != 1:
            raise ParameterError(f"row indices must be 1-D, got ndim={idx.ndim}")
        if idx.dtype == bool:
            if idx.shape[0] != self.n:
                raise IndexError(f"boolean mask has {idx.shape[0]} entries for {self.n} rows")
            idx = np.flatnonzero(idx)
        elif idx.size and idx.dtype.kind not in "iu":
            raise IndexError(f"row indices must be integers or a boolean mask, got dtype {idx.dtype}")
        elif idx.size and (idx.min() < -self.n or idx.max() >= self.n):
            bad = idx[(idx < -self.n) | (idx >= self.n)][0]
            raise IndexError(f"index {bad} is out of bounds for axis 0 with size {self.n}")
        idx = idx.astype(np.intp, copy=False)
        if idx.size and idx.min() < 0:
            idx = np.where(idx < 0, idx + self.n, idx)
        rows = len(idx)
        points = np.empty((rows, self.p), self.points.dtype)
        codes = None if self.codes is None else np.empty(rows, self.codes.dtype)
        parts = min(_cpu_count(), -(-rows // _SHARE_ROWS))

        def gather(i: int) -> None:
            # mode="clip" writes straight into `out`; the default "raise" buffers it.
            share = slice(rows * i // parts, rows * (i + 1) // parts)
            np.take(self.points, idx[share], axis=0, out=points[share], mode="clip")
            if codes is not None:
                np.take(self.codes, idx[share], out=codes[share], mode="clip")

        if rows:
            _each_cluster(parts, gather)
        return Dataset._checked(points, codes, self.categories)

    def __repr__(self) -> str:
        tag = "labeled" if self.codes is not None else "unlabeled"
        return f"Dataset(n={self.n}, p={self.p}, {tag})"


def _check_finite(points) -> None:
    if not np.isfinite(points).all():
        raise ParameterError("points must be finite (no NaN or Inf entries)")


def _adopt(points, codes=None, categories=None) -> Dataset:
    """A Dataset that takes over `points` (and `codes`), arrays hdshapes has
    just built and holds no other writeable reference to: no copy, the same
    checks as the constructor, and the arrays become read-only."""
    return Dataset(points, codes, categories, _own=True)


def as_dataset(data, labels=None) -> Dataset:
    """Normalize `data` (Dataset or array-like) into a Dataset."""
    if isinstance(data, Dataset):
        return data
    return Dataset(data, labels)


@dataclass(frozen=True)
class RotationPlan:
    """Ordered plane rotations defining a p-dimensional orthogonal matrix.

    Each step is (i, j, angle) with 1-indexed axes, 1 <= i < j <= dim, and
    an angle in radians. Steps are applied left to right under the
    column-vector convention, so the realized matrix is R = R_m ... R_1
    and points transform as x -> R x.
    """

    dim: int
    steps: tuple[tuple[int, int, float], ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "dim", _check_n(self.dim, "rotation dimension"))
        if not isinstance(self.steps, (list, tuple, np.ndarray)):
            raise ParameterError(f"rotation steps must be a list of (i, j, angle), got {self.steps!r}")
        norm = []
        for step in self.steps:
            if not (isinstance(step, (list, tuple, np.ndarray)) and len(step) == 3
                    and all(map(_is_kind, step, (int, int, float)))):
                raise ParameterError(f"rotation step must be (i, j, angle) of integer axes and a number, got {step!r}")
            i, j, angle = int(step[0]), int(step[1]), _double(step[2])
            if i == j:
                raise ParameterError(f"rotation plane axes must differ, got i=j={i}")
            if not (1 <= i < j <= self.dim):
                raise ParameterError(
                    f"rotation plane ({i}, {j}) out of range for dimension {self.dim}"
                )
            if not np.isfinite(angle):
                raise ParameterError("rotation angle must be finite")
            norm.append((i, j, angle))
        object.__setattr__(self, "steps", tuple(norm))


def gen_rotation(plan: RotationPlan) -> np.ndarray:
    """Realize a RotationPlan as an orthogonal matrix with determinant +1."""
    if not isinstance(plan, RotationPlan):
        raise ParameterError("gen_rotation expects a RotationPlan")
    rot = np.eye(plan.dim)
    for i, j, angle in plan.steps:
        a, b = i - 1, j - 1
        c, s = np.cos(angle), np.sin(angle)
        row_a = c * rot[a] - s * rot[b]
        row_b = s * rot[a] + c * rot[b]
        rot[a], rot[b] = row_a, row_b
    return rot


def _iroot_ceil(target: int, k: int) -> int:
    """Smallest integer c with c**k >= target."""
    c = max(1, round(target ** (1.0 / k)))
    while c**k < target:
        c += 1
    while c > 1 and (c - 1) ** k >= target:
        c -= 1
    return c


def gen_nproduct(target: int, k: int) -> tuple[int, ...]:
    """k near-equal positive integers whose product is the closest value at
    or above `target`.

    Starts from the ceiling k-th root and greedily decrements trailing
    factors while the product stays at or above the target, so factors
    differ pairwise by at most 1 and no factor can shrink further.
    """
    target, k = _check_n(target, "target"), _check_n(k, "k")
    c = _iroot_ceil(target, k)
    factors = [c] * k
    product = c**k
    for i in range(k - 1, -1, -1):
        if factors[i] == 1:
            continue
        trial = product // factors[i] * (factors[i] - 1)
        if trial >= target:
            factors[i] -= 1
            product = trial
    return tuple(factors)


def gen_nsum(target: int, k: int) -> tuple[int, ...]:
    """k positive integers summing exactly to `target`, pairwise within 1."""
    target, k = _check_n(target, "target"), _check_n(k, "k")
    if target < k:
        raise ParameterError(f"cannot split {target} into {k} positive parts")
    q, r = divmod(target, k)
    return (q + 1,) * r + (q,) * (k - r)


# Rows per block of the row reductions below: their one scratch buffer holds
# this many rows (320 KB at p = 10), however many rows the input has.
_BLOCK_ROWS = 4096


def _row_norms(x: np.ndarray, center=None) -> np.ndarray:
    """Euclidean norm of each row of `x` or, given `center`, of `x - center`.

    The same bits as ``np.linalg.norm(x - center, axis=1)``, without its two
    temporaries the size of `x` (the difference and its square): each block
    of `_BLOCK_ROWS` rows is subtracted and squared into one scratch buffer
    and summed row by row into the result, whose square root is taken in
    place. The buffer has the layout of `x`, so every row is summed in
    numpy's order for that layout (pairwise along a C-contiguous row) at any
    block size.
    """
    n = x.shape[0]
    dist = np.empty(n)
    buf = np.empty_like(x[:_BLOCK_ROWS])
    # Near-equal blocks: a last block of one row, after longer ones, would be
    # summed pairwise where numpy sums a row of a Fortran-order x in order.
    blocks = -(-n // _BLOCK_ROWS)
    edges = [n * i // blocks for i in range(blocks + 1)]
    for lo, hi in zip(edges, edges[1:]):
        block = buf[: hi - lo]
        rows = x[lo:hi]
        np.square(rows if center is None else np.subtract(rows, center, out=block), out=block)
        np.add.reduce(block, axis=1, out=dist[lo:hi])
    return np.sqrt(dist, out=dist)


def _column_mean_sd(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column means and sample (ddof=1) standard deviations of the n x p
    matrix `x`.

    The same bits as ``x.mean(axis=0)`` and ``x.std(axis=0, ddof=1)``. The
    mean is numpy's own, which needs no temporary. The squared deviations
    from it are summed in one blocked pass through a scratch buffer of
    `_BLOCK_ROWS` + 1 rows, instead of a temporary the size of `x`. numpy
    sums the rows of a C-contiguous matrix with p >= 2 one after another, so
    each block is summed with the running sum carried in the buffer's row 0,
    and the order of additions is numpy's. A single column is summed
    pairwise instead, which blocks would change, and fewer than 2 rows leave
    no degree of freedom: in both cases numpy's own calls give the result
    (and its warnings), and a single column holds no large temporary.
    """
    n, p = x.shape
    if p == 1 or n < 2:
        return x.mean(axis=0), x.std(axis=0, ddof=1)
    mean = x.mean(axis=0)
    buf = np.empty((min(n, _BLOCK_ROWS) + 1, p))
    # numpy starts a sum from +0.0, so a running sum that does too adds
    # nothing new: 0.0 + 0.0 + x is 0.0 + x, for x = -0.0 as well.
    sd = np.zeros(p)
    for lo in range(0, n, _BLOCK_ROWS):
        rows = x[lo : lo + _BLOCK_ROWS]
        block = buf[1 : 1 + len(rows)]
        np.square(np.subtract(rows, mean, out=block), out=block)
        buf[0] = sd
        np.add.reduce(buf[: 1 + len(rows)], axis=0, out=sd)
    sd /= n - 1
    return mean, np.sqrt(sd, out=sd)


# OpenBLAS multiplies on the calling thread while m * n * k <= 2**19, and a
# larger product starts worker threads that spin on the CPUs for ~135 ms
# after it returns (a 40000 x 20 by 20 x 20 product on 2 CPUs). Under its
# AVX2 kernels a threaded product also has other bits than a one-thread one.
_BLAS_ONE_THREAD = 1 << 19
# Under OpenBLAS's AVX-512 kernels a product of at most this many output
# entries (with k >= 32) runs a small-matrix kernel, and numpy hands a
# one-row product to gemv: both give other bits than the rows of a larger
# product.
_BLAS_SMALL = 1200


def _matmul_t(x: np.ndarray, m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``x @ m.T`` for an n x k C-contiguous `x` and a c x k C-contiguous `m`,
    one block of rows at a time, into `out` (a new n x c array when None;
    `x` itself is allowed when k == c).

    Each block has a multiple of 256 rows, the most for which the block and
    a last block of at most `_BLAS_SMALL` entries joined to it stay within
    `_BLAS_ONE_THREAD`, so OpenBLAS runs every block on the calling thread
    and starts no worker. Such blocks give the bits of the single-threaded
    one-call product under OpenBLAS's Haswell, Zen, Sandybridge, SkylakeX,
    Cooperlake and SapphireRapids kernels: each block starts at a multiple
    of the kernels' row tiles, and the last block is never a small one
    unless the whole product is. Where no block size fits (a square `m`
    wider than 43 x 43) or `x` or `m` has another layout, one call computes
    the product, as numpy's ``@`` does. A product into `x` itself goes
    through one block-sized scratch array.
    """
    n, (c, k) = x.shape[0], m.shape
    if out is None:
        out = np.empty((n, c))
    rows = (_BLAS_ONE_THREAD // (k * c) - _BLAS_SMALL // c) // 256 * 256
    blocked = rows > 0 and x.flags.c_contiguous and m.flags.c_contiguous
    edges = [0, *range(rows, n, rows)] if blocked else [0]
    if len(edges) > 1 and (n - edges[-1]) * c <= _BLAS_SMALL:
        del edges[-1]
    edges.append(n)
    scratch = np.empty((max(np.diff(edges)), c)) if np.may_share_memory(x, out) else None
    for lo, hi in zip(edges, edges[1:]):
        if scratch is None:
            np.matmul(x[lo:hi], m.T, out=out[lo:hi])
        else:
            out[lo:hi] = np.matmul(x[lo:hi], m.T, out=scratch[: hi - lo])
    return out


def normalize_data(ds) -> Dataset:
    """Rescale each column to [0, 1] via (x - min) / (max - min).

    Constant columns map to 0. Idempotent: normalizing twice equals
    normalizing once, exactly.
    """
    ds = as_dataset(ds)
    if ds.n == 0:
        raise ParameterError("cannot normalize an empty dataset")
    pts = ds.points
    lo = pts.min(axis=0)
    span = pts.max(axis=0) - lo
    out = np.zeros_like(pts)
    keep = span > 0
    out[:, keep] = (pts[:, keep] - lo[keep]) / span[keep]
    return _adopt(out, ds.codes, ds.categories)


def randomize_rows(ds, seed=None) -> Dataset:
    """Deterministic (under `seed`) random permutation of the rows."""
    ds = as_dataset(ds)
    perm = as_stream(seed).rng.permutation(ds.n)
    return ds.take(perm)


def relocate_clusters(ds, loc) -> Dataset:
    """Translate each labeled cluster so its centroid lands on a row of `loc`.

    Rows of `loc` correspond to the distinct labels in sorted
    (lexicographic) order.
    """
    ds = as_dataset(ds)
    if ds.codes is None:
        raise ParameterError("relocate_clusters requires a labeled dataset")
    loc = _reals(loc, "loc must be a k x p matrix of numbers", "loc")
    if loc.ndim != 2:
        raise ParameterError("loc must be a k x p matrix")
    used = np.flatnonzero(np.bincount(ds.codes, minlength=len(ds.categories)))
    order = sorted(used.tolist(), key=ds.categories.__getitem__)
    if loc.shape[0] != len(order):
        raise ParameterError(
            f"loc has {loc.shape[0]} rows but dataset has {len(order)} distinct labels"
        )
    if loc.shape[1] != ds.p:
        raise ParameterError(f"loc has {loc.shape[1]} columns but dataset has {ds.p}")
    pts = ds.points.copy()
    for row, code in zip(loc, order):
        mask = ds.codes == code
        pts[mask] += row - pts[mask].mean(axis=0)
    return _adopt(pts, ds.codes, ds.categories)


def _to_normal(z: np.ndarray, mean, sd) -> np.ndarray:
    """Standard normals `z` turned in place into Normal(mean, sd^2) draws:
    the bits of Generator.normal(mean, sd, z.shape), which draws the same
    standard normals and returns mean + sd * z, without its broadcasting."""
    z *= sd
    z += mean
    return z


def _gaussian_cols(n: int, p: int, m, s, seed) -> np.ndarray:
    """n x p draws, column j from Normal(m_j, s_j^2); `m` and `s` are each a
    number or a length-p vector, every s_j positive."""
    n, p = _check_n(n), _check_n(p, "p")
    mean, sd = _reals(m, "m must be a number or a vector", "m"), _reals(s, "s must be a number or a vector", "s")
    for name, vec in (("m", mean), ("s", sd)):
        if vec.shape not in ((), (p,)):
            raise ParameterError(f"{name} must be a number or a vector of length {p}, got shape {vec.shape}")
    if not (sd > 0).all():
        raise ParameterError("standard deviations must be strictly positive")
    return _to_normal(as_stream(seed).rng.standard_normal((n, p)), mean, sd)


def gen_bkgnoise(n: int, p: int, m=0.0, s=1.0, seed=None) -> Dataset:
    """n x p background noise, column j drawn from Normal(m_j, s_j^2)."""
    return _adopt(_gaussian_cols(n, p, m, s, seed))
