"""Exact capacities of toric surfaces and symplectic embedding obstructions.

The names of `__all__` are imported on first access from the submodule that
defines each, so `import torcap` loads none and `torcap.calg` only four.
"""

from importlib import import_module

# the submodule that defines each public name
_HOMES = {
    "_base": ("CapacitySequence",),
    "_polygon": ("MomentPolygon", "lattice_width"),
    "_table": ("alg_capacities", "calg", "calg_witness"),
    "ech": ("ConcaveDomain", "concave_weights", "ech_concave", "ech_concave_capacities",
            "ech_ellipsoid", "ech_ellipsoid_capacities"),
    "capacities": ("EmbeddingVerdict", "XiWidth", "ech_convex", "ech_convex_capacities",
                   "embedding_verdict", "gromov_width_bound", "width_bound_check", "xi_width"),
    "errors": ("TorcapError",),
    "lattice": ("UnimodularAffineMap",),
    "toric": ("DivisorClass", "ToricSurface", "TorusDivisor", "build_surface"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
