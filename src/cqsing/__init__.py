"""Exact-arithmetic toolkit for two-dimensional cyclic quotient surface
singularities: continued fractions, invariant rings, lattice fans, special
classes and clusters, Groebner fans, versal deformations, and the
reconstruction quiver with its deformed relations."""

from .cfrac import (
    Singularity,
    are_isomorphic,
    curve_count,
    dual_expand,
    embedding_dimension,
    fraction,
    hj_evaluate,
    hj_expand,
    hj_length,
    identities,
    ij_series,
    is_t_singularity,
    unrefined_series,
)
from .errors import ConsistencyError, InputError, UnsupportedError

__all__ = [
    "Singularity",
    "are_isomorphic",
    "curve_count",
    "dual_expand",
    "embedding_dimension",
    "fraction",
    "hj_evaluate",
    "hj_expand",
    "hj_length",
    "identities",
    "ij_series",
    "is_t_singularity",
    "unrefined_series",
    "ConsistencyError",
    "InputError",
    "UnsupportedError",
]
