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

# The submodules whose __all__ the package re-exports, in the order they are
# searched for a name. Importing the package imports none of them: each is
# imported when one of its names is first read (`__getattr__`), so a process
# pays only for the modules it uses.
_SUBMODULES = ("core", "shapes", "topology", "noise", "composer")

# Every submodule's __all__, the submodules themselves and OUTPUT_VERSION,
# sorted (tests/test_shapes.py checks it against the submodules).
__all__ = [
    "Dataset", "DegenerateHoleError", "DimensionError", "HOLES", "HoleRetentionWarning",
    "LatticeSizeWarning", "MultiClusterSpec", "OUTPUT_VERSION", "PRESETS", "ParameterError",
    "RandomStream", "RejectedParameterError", "RotationPlan", "SHAPES", "ShapeInfo",
    "UnknownShapeError", "append_dims", "apply_transform", "as_dataset", "as_stream",
    "check_params", "composer", "core", "derive", "gen_bkgnoise", "gen_circle",
    "gen_clusteredspheres", "gen_cone", "gen_conicspiral", "gen_crescent", "gen_cubic",
    "gen_curvybranches", "gen_curvycycle", "gen_curvycylinder", "gen_expbranches",
    "gen_gaussian", "gen_gridcube", "gen_gridedsphere", "gen_helicalspiral", "gen_hemisphere",
    "gen_hole", "gen_hollowsphere", "gen_linearbranches", "gen_longlinear", "gen_mobius",
    "gen_multicluster", "gen_noisedims", "gen_nonlinear", "gen_nproduct", "gen_nsum",
    "gen_orgcurvybranches", "gen_orglinearbranches", "gen_pyrfrac", "gen_pyrrect",
    "gen_pyrstar", "gen_pyrtri", "gen_quadratic", "gen_rotation", "gen_scurve",
    "gen_scurvehole", "gen_sphericalspiral", "gen_swissroll", "gen_trefoil3d",
    "gen_trefoil4d", "gen_unifcube", "gen_unifcubehole", "gen_unifsphere", "gen_wavydims1",
    "gen_wavydims2", "gen_wavydims3", "generate", "hole_info", "list_presets", "list_shapes",
    "make_preset", "make_stream", "noise", "normalize_data", "pad_to_dim", "preset_info",
    "randomize_rows", "relocate_clusters", "shape_info", "shapes", "simplex_vertices",
    "topology",
]


def __getattr__(name: str):
    """The public `name`: a submodule, imported now, or a name from the first
    submodule in `_SUBMODULES` order whose __all__ holds it, importing them
    in that order, and kept as a package attribute."""
    # `__import__` is the import statement's own path, which `-X importtime`
    # reports (importlib.import_module is not); it binds the submodule here.
    if name in _SUBMODULES:
        __import__(f"{__name__}.{name}")
        return globals()[name]
    if name in __all__:
        for module_name in _SUBMODULES:
            __import__(f"{__name__}.{module_name}")
            module = globals()[module_name]
            if name in module.__all__:
                value = globals()[name] = getattr(module, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    """The package's attributes and every public name, loaded or not, as a
    package that had imported them all would list them."""
    return sorted({*globals(), *__all__} - {"_SUBMODULES", "__getattr__", "__dir__"})
