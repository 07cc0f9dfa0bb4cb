"""Multi-cluster scene composition.

The pipeline generates each cluster from its shape kind, applies scale and
optional rotation, pads with Gaussian noise columns up to the scene
dimension, translates the cluster centroid onto its target location,
labels rows by shape name, concatenates, optionally appends background
noise, and shuffles rows. Clusters run concurrently: the calling thread and
one helper thread per further CPU in the process's affinity mask share them
out, and each samples a cluster and writes it straight into its block of the
scene array. Each cluster draws from its own substream, so the bytes do not
depend on the number of threads or on which thread took which cluster. Each
cluster's warnings are held, and the calling thread issues them in cluster order.
The background's and the shuffle's draws have substreams of their own too, so
they run beside the clusters' mean and sd, and `Dataset.take` gathers the
shuffled rows on every CPU. Products run in row blocks on the calling thread
(`core._matmul_t`), so OpenBLAS starts no worker thread of its own.
"""

from __future__ import annotations

import copy
from collections import Counter
from collections.abc import Mapping
from dataclasses import MISSING, dataclass, fields
from functools import partial

import numpy as np

from .core import (
    Dataset,
    DimensionError,
    ParameterError,
    RotationPlan,
    _adopt,
    _check_finite,
    _check_n,
    _column_mean_sd,
    _double,
    _each_cluster,
    _is_kind,
    _matmul_t,
    _number,
    _reals,
    _to_normal,
    as_dataset,
    as_stream,
    gen_nproduct,
    gen_nsum,
    gen_rotation,
)
from .shapes import RejectedParameterError, ShapeInfo, _registrar, check_params, generate, shape_info

__all__ = [
    "MultiClusterSpec",
    "gen_multicluster",
    "pad_to_dim",
    "apply_transform",
    "simplex_vertices",
    "make_preset",
    "preset_info",
    "list_presets",
    "PRESETS",
]

PAD_SD = 0.2  # noise-column standard deviation used when padding dimensions


def simplex_vertices(p: int, scale: float = 1.0) -> np.ndarray:
    """Vertices of a regular p-simplex in R^p, centered, unit edge length."""
    p = _check_n(p, "p")
    alpha = (1.0 + np.sqrt(p + 1.0)) / p
    verts = np.vstack([np.eye(p), np.full(p, alpha)])
    verts -= verts.mean(axis=0)
    verts /= np.sqrt(2.0)  # pairwise distance of the raw construction
    return verts * scale


def _rotation_matrix(rotation) -> np.ndarray:
    """The orthogonal matrix of a RotationPlan, of its JSON form
    {"dim": d, "steps": [[i, j, angle], ...]}, or of a square matrix."""
    if isinstance(rotation, dict):
        if set(rotation) != {"dim", "steps"}:
            raise ParameterError(f"a rotation object must have exactly the fields dim and steps, got {rotation!r}")
        rotation = RotationPlan(rotation["dim"], rotation["steps"])
    if isinstance(rotation, RotationPlan):
        return gen_rotation(rotation)
    mat = _reals(rotation, "rotation must be a RotationPlan, a {dim, steps} object or a square matrix")
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ParameterError(f"rotation must be a square matrix, got shape {mat.shape}")
    err = np.abs(mat.T @ mat - np.eye(mat.shape[0])).max()
    if not err <= 1e-8:
        raise ParameterError(f"rotation matrix is not orthogonal (max |R'R - I| = {err:.2e})")
    return mat


def _read_only(arr: np.ndarray) -> np.ndarray:
    """A read-only copy of `arr`."""
    out = arr.copy()
    out.setflags(write=False)
    return out


class _Extras(Mapping):
    """One cluster's extras, read-only: a lookup hands out a deep copy of the
    stored value (an array is stored read-only and handed out as it is), so
    changing what it returns changes no later scene."""

    def __init__(self, values: dict):
        self._values = {
            key: _read_only(v) if isinstance(v, np.ndarray) else copy.deepcopy(v) for key, v in values.items()
        }

    def __getitem__(self, key):
        value = self._values[key]
        return value if isinstance(value, np.ndarray) else copy.deepcopy(value)

    def __iter__(self):
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        return f"_Extras({self._values!r})"


def _entries(value, name: str, k: int) -> tuple:
    """The k entries of a list, tuple or array (one per row); anything else is refused."""
    if isinstance(value, np.ndarray) and value.ndim >= 1:
        value = value.tolist() if value.ndim == 1 else list(value)
    if not isinstance(value, (list, tuple)):
        raise ParameterError(f"{name} must be a list with one entry per cluster, got {value!r}")
    if len(value) != k:
        raise ParameterError(f"{name} has {len(value)} entries, expected k = {k}")
    return tuple(value)


def _place(out: np.ndarray, points: np.ndarray, scale=1.0, rotation=None, pad=None, center=None) -> None:
    """Write `points` (n x w) into `out` (n x p, C-contiguous, w <= p): scaled,
    rotated by a w x w `rotation`, padded with N(mu, PAD_SD^2) columns drawn
    from the RandomStream `pad` (mu the mean over every entry of the scaled,
    rotated points), rotated by a p x p `rotation` when w < p, and translated
    so that the centroid lands on `center`.

    The padding mean is taken over the contiguous n x w array and the
    centroid over `out`'s full rows, so the result is the same, bit for bit,
    as building each stage as a new array.
    """
    w, p = points.shape[1], out.shape[1]
    before = rotation if rotation is not None and rotation.shape[0] == w else None
    # Without padding, the last of scaling and rotating writes straight into `out`.
    if scale != 1:  # x * 1.0 is x exactly for finite x, so a unit scale skips the multiply
        points = np.multiply(points, float(scale), out=out if w == p and before is None else None)
    if before is not None:
        points = _matmul_t(points, before, out=out if w == p else None)
    if w < p:
        out[:, w:] = pad.rng.normal(float(points.mean()), PAD_SD, (out.shape[0], p - w))
    if points is not out:
        out[:, :w] = points
    if rotation is not None and before is None:
        _matmul_t(out, rotation, out=out)
    if center is not None:
        out += center - out.mean(axis=0)


def pad_to_dim(ds, p_target: int, seed=None) -> Dataset:
    """Append Gaussian noise columns up to p_target dimensions.

    New columns are N(mu, 0.2^2) with mu the mean over all existing
    coordinate entries of the dataset.
    """
    ds = as_dataset(ds)
    p_target = _check_n(p_target, "p_target")
    if p_target < ds.p:
        raise DimensionError(f"cannot pad {ds.p} columns down to {p_target}")
    if p_target == ds.p:
        return ds
    out = np.empty((ds.n, p_target))
    _place(out, ds.points, pad=as_stream(seed))
    return _adopt(out, ds.codes, ds.categories)


def apply_transform(ds, scale: float, rotation=None, center=None) -> Dataset:
    """Scale, optionally rotate, then translate the centroid onto `center`."""
    ds = as_dataset(ds)
    if _number(scale, "scale") <= 0:
        raise ParameterError("scale must be positive")
    if rotation is not None:
        rotation = _rotation_matrix(rotation)
        if rotation.shape[0] != ds.p:
            raise ParameterError(f"rotation is {rotation.shape[0]}-dimensional, dataset has {ds.p}")
    if center is not None:
        center = _reals(center, "center must be a vector of numbers", "center").ravel()
        if center.shape[0] != ds.p:
            raise ParameterError(f"center has length {center.shape[0]}, dataset has {ds.p}")
    out = np.empty((ds.n, ds.p))
    _place(out, ds.points, scale, rotation, center=center)
    return _adopt(out, ds.codes, ds.categories)


@dataclass(frozen=True)
class MultiClusterSpec:
    """Declarative description of a multi-cluster scene; immutable once built.

    `n`, `scale`, `shape` and `rotation` hold one entry per cluster. `loc`
    is a k x p matrix of target centroids; a row of all NaN leaves that
    cluster where its formulas put it. `rotation` entries may be None, an
    orthogonal matrix, a RotationPlan or its JSON form {"dim", "steps"},
    sized either to the cluster's generated dimension (applied before
    padding) or to the scene dimension (applied after); the spec holds
    each realized matrix (or None). `loc` and each matrix are read-only
    copies, so changing the caller's arrays afterwards changes no scene.
    `extras` is a dict of shape parameters applied to every cluster whose
    kind accepts them, or a per-cluster list of dicts; the spec holds a
    read-only mapping per cluster. A value of the wrong
    kind (a bool for a count, a string for a number) is refused with a
    ParameterError, never converted.
    """

    n: tuple[int, ...]
    k: int
    loc: np.ndarray
    scale: tuple[float, ...]
    shape: tuple[str, ...]
    rotation: tuple | None = None
    is_bkg: bool = False
    extras: dict | tuple[Mapping, ...] | None = None

    def __post_init__(self):
        put = partial(object.__setattr__, self)  # frozen: each checked value is set once, here
        put("k", _check_n(self.k, "k"))
        put("n", tuple(_check_n(v) for v in _entries(self.n, "n", self.k)))
        put("scale", _entries(self.scale, "scale", self.k))
        put("shape", _entries(self.shape, "shape", self.k))
        if not all(_is_kind(v, float) and 0 < _double(v) < np.inf for v in self.scale):
            raise ParameterError(f"every scale must be positive and finite, got {self.scale!r}")
        if not _is_kind(self.is_bkg, bool):
            raise ParameterError(f"is_bkg must be true or false, got {self.is_bkg!r}")
        put("loc", _read_only(_reals(self.loc, f"loc must be a {self.k} x p matrix of numbers")))
        if self.loc.ndim != 2 or self.loc.shape[0] != self.k:
            raise ParameterError(f"loc must be a {self.k} x p matrix, got shape {self.loc.shape}")
        nan_rows = np.isnan(self.loc)
        if (nan_rows.any(axis=1) & ~nan_rows.all(axis=1)).any():
            raise ParameterError("loc rows must be fully specified or entirely NaN")
        if np.isinf(self.loc).any():
            raise ParameterError(f"loc must be finite or a row of NaN, got {self.loc.tolist()!r}")
        if self.rotation is not None:
            rot = _entries(self.rotation, "rotation", self.k)
            put("rotation", tuple(None if r is None else _read_only(_rotation_matrix(r)) for r in rot))
        put("extras", self._normalized_extras())

    def __reduce__(self):
        # pickle and deepcopy rebuild the spec through its checks, so `loc`
        # and the rotation matrices come back read-only.
        return type(self), (self.n, self.k, self.loc, self.scale, self.shape, self.rotation, self.is_bkg, self.extras)

    @property
    def p(self) -> int:
        return self.loc.shape[1]

    def _normalized_extras(self) -> tuple[_Extras, ...]:
        """One read-only mapping per cluster, holding copies of the values
        and handing out copies (see `_Extras`). A
        scene-wide dict (None: the empty dict) goes to every cluster whose
        shape takes the key, and a key no cluster takes is refused. Only the
        structure is checked here; gen_multicluster checks every value, with
        the scene's p, before any cluster is sampled."""
        if self.extras is None or isinstance(self.extras, dict):
            scene = self.extras or {}
            extras = [{key: v for key, v in scene.items() if key in shape_info(kind).params} for kind in self.shape]
            rejected = sorted(set(scene).difference(*extras))
            if rejected:
                raise RejectedParameterError(
                    f"extras parameter(s) {', '.join(rejected)} not accepted by any "
                    f"cluster shape in {sorted(set(self.shape))}"
                )
        else:
            extras = [{} if e is None else e for e in _entries(self.extras, "extras", self.k)]
        for kind, ex in zip(self.shape, extras):
            params = shape_info(kind).params  # raises UnknownShapeError for unregistered kinds
            if not isinstance(ex, Mapping):
                raise ParameterError(f"extras entries must be objects (or null), got {ex!r}")
            if "n" in ex:
                raise RejectedParameterError(f"extras cannot set n of shape '{kind}': the spec's n does")
            rejected = sorted(set(ex).difference(params))
            if rejected:
                raise RejectedParameterError(f"extras parameter(s) {', '.join(rejected)} not accepted by shape '{kind}'")
        return tuple(_Extras(ex) for ex in extras)

    @classmethod
    def from_dict(cls, cfg: dict) -> "MultiClusterSpec":
        """Build a spec from a parsed JSON config. Only the field names are
        checked here; the values are checked as for any spec."""
        if not isinstance(cfg, dict):
            raise ParameterError("config must be a JSON object")
        spec_fields = fields(cls)
        missing = [f.name for f in spec_fields if f.default is MISSING and f.name not in cfg]
        if missing:
            raise ParameterError(f"config is missing required field(s): {', '.join(missing)}")
        unknown = sorted(set(cfg) - {f.name for f in spec_fields})
        if unknown:
            raise ParameterError(f"config has unknown field(s): {', '.join(unknown)}")
        return cls(**cfg)


def _cluster_labels(shapes: tuple[str, ...]) -> list[str]:
    """Each cluster's shape name, numbered (`gaussian_1`) where it repeats."""
    counts, seen, out = Counter(shapes), Counter(), []
    for kind in shapes:
        seen[kind] += 1
        out.append(kind if counts[kind] == 1 else f"{kind}_{seen[kind]}")
    return out


def gen_multicluster(spec: MultiClusterSpec, seed=None, shuffle: bool = True) -> Dataset:
    """Compose a labeled multi-cluster dataset from `spec`.

    Every cluster's parameters are checked, with the scene's p, before any
    is sampled. Then each cluster is one job (see `_each_cluster`): generate
    -> scale -> rotate -> pad -> translate -> check, straight into its block
    of the scene array, or into a block of its own for a lattice with more
    rows than n; the bytes do not depend on the number of threads. Shapes
    that take a dimension argument receive the scene dimension unless the
    cluster's extras override it; lower-dimensional shapes are padded with
    N(mu, 0.2^2) columns (mu = mean of that cluster's coordinates). With
    is_bkg, round(0.1 * sum(n)) rows of N(scene mean, scene sd^2) noise
    are appended under the label "background". Rows come back shuffled
    unless `shuffle` is False.
    """
    if not isinstance(spec, MultiClusterSpec):
        raise ParameterError("gen_multicluster expects a MultiClusterSpec")
    if not _is_kind(shuffle, bool):
        raise ParameterError(f"shuffle must be true or false, got {shuffle!r}")
    stream = as_stream(seed)
    p = spec.p
    rotations = spec.rotation or (None,) * spec.k
    # Every cluster is checked before any is sampled.
    kwargs = []
    for c, kind in enumerate(spec.shape):
        info = shape_info(kind)
        kwargs.append({**spec.extras[c]} if info.dim is not None else {"p": p, **spec.extras[c]})
        check_params(info, kwargs[c])
        width = info.dim if info.dim is not None else kwargs[c]["p"]
        if width > p:
            raise DimensionError(f"cluster {c} shape '{kind}' has {width} dims but the scene has {p}")
        dim = None if rotations[c] is None else rotations[c].shape[0]
        if dim not in (None, width, p):
            raise ParameterError(f"cluster {c} rotation is {dim}-dimensional; expected {width} (shape) or {p} (scene)")
    # The calling thread allocates the scene from the requested counts, so a
    # cluster is placed as soon as it is sampled, by the thread that sampled
    # it. No thread holds more than one sample at a time, which matters
    # because each helper thread's malloc arena keeps the memory it used.
    guess = np.cumsum([0, *spec.n]).tolist()
    n_bkg = max(1, round(0.1 * sum(spec.n))) if spec.is_bkg else 0
    scene = np.empty((guess[-1] + n_bkg, p))

    def sample_and_place(c: int) -> np.ndarray:
        ds = generate(spec.shape[c], n=spec.n[c], seed=stream.derive(c).derive(0), **kwargs[c])
        # A lattice with more rows than n gets a block of its own.
        block = scene[guess[c] : guess[c + 1]] if ds.n == spec.n[c] else np.empty((ds.n, p))
        target = None if np.isnan(spec.loc[c]).all() else spec.loc[c]
        _place(block, ds.points, spec.scale[c], rotations[c], stream.derive(c).derive(1), target)
        _check_finite(block)  # before the background, which is drawn from the clusters' spread
        return block

    blocks = _each_cluster(spec.k, sample_and_place)
    counts = [len(block) for block in blocks]
    if counts != list(spec.n):  # a lattice had more rows: every block moves to its offset
        scene = np.concatenate([*blocks, scene[guess[-1] :]])
    del blocks
    n_rows = sum(counts)
    names = _cluster_labels(spec.shape)
    if spec.is_bkg:
        counts.append(n_bkg)
        names.append("background")
    codes = np.repeat(np.arange(len(counts), dtype=np.intp), counts)
    perm = _tail(scene, n_rows, stream, spec.k, spec.is_bkg, shuffle)
    # Each block and the background were checked as they were placed.
    ds = Dataset._checked(scene, codes, tuple(names))
    return ds if perm is None else ds.take(perm)


def _tail(scene, n_rows, stream, k, is_bkg, shuffle):
    """The scene's background (the bits of gen_bkgnoise: N(mean, sd^2) from
    `stream.derive(k)`, mean and sd those of the clusters' rows, an sd of 0
    as 1e-9) into `scene[n_rows:]`, and the shuffle's permutation (None
    without shuffle) from `stream.derive(k + 1)`, as randomize_rows draws it.
    A helper draws both, each from its own stream, while the calling thread
    takes the clusters' mean and sd; then the normals are scaled and shifted
    in place."""

    def draw(_):
        if is_bkg:
            stream.derive(k).rng.standard_normal(out=scene[n_rows:])
        return stream.derive(k + 1).rng.permutation(len(scene)) if shuffle else None

    def spread():
        mean, sd = _column_mean_sd(scene[:n_rows])
        if not np.isfinite(sd).all():
            raise ParameterError(f"background sd (the clusters' spread) must be finite, got {sd!r}")
        sd[sd == 0] = 1e-9
        stats.extend((mean, sd))

    if not is_bkg:
        return draw(0)
    stats = []
    [perm] = _each_cluster(1, draw, lead=spread)
    _check_finite(_to_normal(scene[n_rows:], *stats))
    return perm


# ---------------------------------------------------------------------------
# Preset scenes

PRESETS: dict[str, ShapeInfo] = {}
_preset, preset_info = _registrar(PRESETS, "preset", prefix="_preset_")


@_preset(None)
def _preset_mobiusgau(n=1000):
    """Mobius band beside a Gaussian blob."""
    return MultiClusterSpec(
        n=gen_nsum(n, 2),
        k=2,
        # NaN row: keep the band exactly where its parameterization puts it
        loc=np.array([[np.nan] * 3, [4.0, 4.0, 0.0]]),
        scale=(1.0, 0.5),
        shape=("mobius", "gaussian"),
    )


@_preset(None)
def _preset_multigau(n=1500, k=3, p=4):
    """Well-separated Gaussian clusters."""
    if k > p + 1:
        raise ParameterError("multigau places clusters on simplex vertices; needs k <= p + 1")
    return MultiClusterSpec(
        n=gen_nsum(n, k),
        k=k,
        loc=simplex_vertices(p, scale=5.0)[:k],
        scale=(1.0,) * k,
        shape=("gaussian",) * k,
    )


@_preset(None, 2)
def _preset_curvygau(n=1000, p=4):
    """Curved band with a Gaussian cluster."""
    loc = np.zeros((2, p))
    loc[1, 0], loc[1, 1] = 3.0, 1.0
    return MultiClusterSpec(
        n=gen_nsum(n, 2),
        k=2,
        loc=loc,
        scale=(2.0, 0.5),
        shape=("quadratic", "gaussian"),
    )


def _ring_chain(n, k, shape, spacing, interlock):
    """Row of ring-like clusters along x1, optionally in alternating planes."""
    loc = np.zeros((k, 3))
    loc[:, 0] = spacing * np.arange(k)
    extras = ({"p": 2},) * k if shape == "circle" else None
    rotation = None
    if interlock:
        flip = RotationPlan(3, ((1, 3, np.pi / 2.0),))
        rotation = tuple(flip if i % 2 else None for i in range(k))
    return MultiClusterSpec(
        n=gen_nsum(n, k),
        k=k,
        loc=loc,
        scale=(1.0,) * k,
        shape=(shape,) * k,
        rotation=rotation,
        extras=extras,
    )


@_preset(None)
def _preset_klink_circles(n=900, k=3):
    """Interlocked rings in alternating planes."""
    return _ring_chain(n, k, "circle", spacing=1.0, interlock=True)


@_preset(None)
def _preset_chain_circles(n=900, k=3):
    """Coplanar rings connected in a row."""
    return _ring_chain(n, k, "circle", spacing=1.8, interlock=False)


@_preset(None)
def _preset_klink_curvycycle(n=900, k=3):
    """Interlocked curvy cycles."""
    return _ring_chain(n, k, "curvycycle", spacing=1.0, interlock=True)


@_preset(None)
def _preset_chain_curvycycle(n=900, k=3):
    """Curvy cycles connected in a row."""
    return _ring_chain(n, k, "curvycycle", spacing=1.8, interlock=False)


def _concentric_gau(n, k, p, ring_shape):
    """k concentric rings of growing radius with a small Gaussian at center."""
    ring_extras = {"p": 2} if ring_shape == "circle" else {"p": 3}
    return MultiClusterSpec(
        n=gen_nsum(n, k + 1),
        k=k + 1,
        loc=np.zeros((k + 1, p)),
        scale=tuple(2.0 * (i + 1) for i in range(k)) + (0.5,),
        shape=(ring_shape,) * k + ("gaussian",),
        extras=tuple([dict(ring_extras)] * k + [{}]),
    )


@_preset(None, 2)
def _preset_gaucircles(n=2000, k=3, p=4):
    """Concentric rings with a central Gaussian."""
    return _concentric_gau(n, k, p, "circle")


@_preset(None, 3)
def _preset_gaucurvycycle(n=2000, k=3, p=4):
    """Concentric curvy cycles with a central Gaussian."""
    return _concentric_gau(n, k, p, "curvycycle")


@_preset(None)
def _preset_onegrid(n=400):
    """Single 2-D lattice."""
    return MultiClusterSpec(
        n=(n,), k=1, loc=np.array([[0.5, 0.5]]), scale=(1.0,), shape=("gridcube",)
    )


@_preset(None)
def _preset_twogrid_overlap(n=800):
    """Two partially overlapping lattices."""
    return MultiClusterSpec(
        n=gen_nsum(n, 2),
        k=2,
        loc=np.array([[0.5, 0.5], [1.0, 0.75]]),
        scale=(1.0, 1.0),
        shape=("gridcube", "gridcube"),
    )


@_preset(None)
def _preset_twogrid_shift(n=800):
    """Two lattices offset by half a cell."""
    m = gen_nproduct(gen_nsum(n, 2)[0], 2)[0]
    delta = 0.5 / (m - 1) if m > 1 else 0.25  # half a lattice cell
    return MultiClusterSpec(
        n=gen_nsum(n, 2),
        k=2,
        loc=np.array([[0.5, 0.5], [0.5 + delta, 0.5 + delta]]),
        scale=(1.0, 1.0),
        shape=("gridcube", "gridcube"),
    )


@_preset(None, 2)
def _preset_shape_para(n=1200, k=3, p=4):
    """Parallel copies of one curved shape."""
    loc = np.zeros((k, p))
    loc[:, 1] = 2.0 * np.arange(k)
    return MultiClusterSpec(
        n=gen_nsum(n, k),
        k=k,
        loc=loc,
        scale=(1.0,) * k,
        shape=("quadratic",) * k,
    )


def list_presets() -> tuple[str, ...]:
    return tuple(PRESETS)


def make_preset(name: str, seed=None, **params) -> Dataset:
    """Sample a named preset scene: its builder checks its parameters and
    returns the MultiClusterSpec, and `gen_multicluster` samples it."""
    return gen_multicluster(preset_info(name).func(**params), seed=seed)
