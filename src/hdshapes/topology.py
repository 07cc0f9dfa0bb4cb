"""Hyperspherical hole punching and its two wrapper shapes."""

from __future__ import annotations

import numpy as np

from .core import Dataset, ParameterError, _holding, _number, _reals, _row_norms, _warn, as_dataset, as_stream
from .shapes import ShapeInfo, _registrar, gen_scurve, gen_unifcube

# The registered wrappers join __all__ after the last registration.
__all__ = ["HOLES", "DegenerateHoleError", "HoleRetentionWarning", "gen_hole", "hole_info"]


class DegenerateHoleError(ParameterError):
    """The hole removed every point."""


class HoleRetentionWarning(UserWarning):
    """The hole removed more than 90% of the points."""


def gen_hole(ds, r: float, anchor=None) -> Dataset:
    """Remove every row within Euclidean distance r of the anchor.

    Only rows strictly farther than r survive; coordinates and row order
    are untouched and labels travel with their rows. The anchor defaults
    to the per-column means. Raises DegenerateHoleError when nothing
    survives and warns (`core._warn`: held within `core._holding`) when
    fewer than 10% of rows do.

    The distances are taken one block of rows at a time (`core._row_norms`,
    the bits of ``np.linalg.norm``), so a call holds the input, the output
    and one block of rows, not two more copies of the input.
    """
    ds = as_dataset(ds)
    if ds.n == 0:
        raise ParameterError("cannot punch a hole in an empty dataset")
    if not _number(r, "r") > 0:
        raise ParameterError(f"hole radius r must be positive, got {r!r}")
    if anchor is None:
        anchor = ds.points.mean(axis=0)
    anchor = _reals(anchor, "anchor must be a vector of numbers", "anchor").ravel()
    if anchor.shape[0] != ds.p:
        raise ParameterError(f"anchor has length {anchor.shape[0]}, dataset has {ds.p} columns")
    keep = _row_norms(ds.points, anchor) > r
    kept = int(keep.sum())
    if kept == 0:
        raise DegenerateHoleError(f"hole of radius {r} removed all {ds.n} points")
    if kept < 0.1 * ds.n:
        _warn(f"hole retained only {kept}/{ds.n} points ({kept / ds.n:.1%})", HoleRetentionWarning, 2)
    return ds.take(keep)


def _holed_sample(make, n: int, r_hole, stream) -> Dataset:
    """Oversample `make`, hole at the pre-filter means, trim to exactly n.

    The removed fraction is estimated from a pilot of size n, then the
    sample is oversampled by 1 / (1 - fraction) plus 10%, doubling up to
    four more times if too few points survive. Low retention in the pilot
    or a draw only sizes the next draw and the sample has n points, so their
    warnings are held in a list that is dropped, in this context only.
    """
    if not r_hole > 0:  # a finite number: the wrapper's registration checked it
        raise ParameterError(f"hole radius r_hole must be positive, got {r_hole!r}")
    with _holding([]):
        pilot = make(n, stream.derive(0))
        removed = n - gen_hole(pilot, r_hole).n
        frac = min(removed / n, 0.95)
        m = int(np.ceil(n / (1.0 - frac) * 1.1))
        for attempt in range(5):
            survivors = gen_hole(make(m, stream.derive(1 + attempt)), r_hole)
            if survivors.n >= n:
                break
            m *= 2
        else:
            raise DegenerateHoleError(
                f"could not retain {n} points outside a hole of radius {r_hole}"
            )
    pick = np.sort(stream.derive(100).rng.choice(survivors.n, size=n, replace=False))
    return survivors.take(pick)


HOLES: dict[str, ShapeInfo] = {}
_hole, hole_info = _registrar(HOLES, "hole kind", suffix="hole")


@_hole(3)
def gen_scurvehole(n: int, r_hole: float = 0.3, seed=None) -> Dataset:
    """S-curve with a spherical hole at its mean; exactly n points."""
    return _holed_sample(lambda m, s: gen_scurve(m, seed=s), n, r_hole, as_stream(seed))


@_hole(None)
def gen_unifcubehole(n: int, p: int = 3, r_hole: float = 0.3, seed=None) -> Dataset:
    """Uniform cube with a central hyperspherical void; exactly n points."""
    return _holed_sample(lambda m, s: gen_unifcube(m, p=p, seed=s), n, r_hole, as_stream(seed))


__all__ += [info.func.__name__ for info in HOLES.values()]
