"""hdshapes: seed-reproducible high-dimensional geometric dataset generators.

Single shapes (cones, spheres, spirals, branches, knots, fractal
pyramids, ...), hyperspherical hole punching, structured noise
dimensions, and a multi-cluster scene composer, all deterministic under a
64-bit seed. See the `hdshapes` CLI for file output with reproducibility
manifests.
"""

__version__ = "0.1.0"

# Version of the output bytes (arrays and data files) under a given seed and
# numpy release. Raise it with any deliberate change to those bytes and
# rewrite tests/golden/digests.json in the same change.
OUTPUT_VERSION = 1

# Each module's __all__ names its public objects; the package re-exports them.
from .core import *
from .shapes import *
from .topology import *
from .noise import *
from .composer import *

__all__ = [name for name in dir() if not name.startswith("_")]
