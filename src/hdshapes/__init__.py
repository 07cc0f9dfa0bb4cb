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

from .core import (
    Dataset,
    DimensionError,
    ParameterError,
    RandomStream,
    RotationPlan,
    as_dataset,
    as_stream,
    derive,
    gen_bkgnoise,
    gen_nproduct,
    gen_nsum,
    gen_rotation,
    make_stream,
    normalize_data,
    randomize_rows,
    relocate_clusters,
)
from .shapes import (
    SHAPES,
    LatticeSizeWarning,
    RejectedParameterError,
    ShapeInfo,
    UnknownShapeError,
    check_params,
    gen_circle,
    gen_clusteredspheres,
    gen_cone,
    gen_conicspiral,
    gen_crescent,
    gen_cubic,
    gen_curvybranches,
    gen_curvycycle,
    gen_curvycylinder,
    gen_expbranches,
    gen_gaussian,
    gen_gridcube,
    gen_gridedsphere,
    gen_helicalspiral,
    gen_hemisphere,
    gen_hollowsphere,
    gen_linearbranches,
    gen_longlinear,
    gen_mobius,
    gen_nonlinear,
    gen_orgcurvybranches,
    gen_orglinearbranches,
    gen_pyrfrac,
    gen_pyrrect,
    gen_pyrstar,
    gen_pyrtri,
    gen_quadratic,
    gen_scurve,
    gen_sphericalspiral,
    gen_swissroll,
    gen_trefoil3d,
    gen_trefoil4d,
    gen_unifcube,
    gen_unifsphere,
    generate,
    list_shapes,
    shape_info,
)
from .topology import (
    HOLES,
    DegenerateHoleError,
    HoleRetentionWarning,
    gen_hole,
    gen_scurvehole,
    gen_unifcubehole,
)
from .noise import (
    append_dims,
    gen_noisedims,
    gen_wavydims1,
    gen_wavydims2,
    gen_wavydims3,
)
from .composer import (
    PRESETS,
    MultiClusterSpec,
    apply_transform,
    gen_multicluster,
    list_presets,
    make_preset,
    pad_to_dim,
    preset_info,
    simplex_vertices,
)

__all__ = [name for name in dir() if not name.startswith("_")]
