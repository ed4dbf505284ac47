from fractions import Fraction
from math import gcd, lcm

from cqsing import cfrac, deform, gfan, invariant_ring, mckay, reconstruct
from cqsing.errors import ConsistencyError, InputError
from cqsing.polyring import VariableTable

# every derivation that ``cfrac.per_pair`` memoizes on a Singularity
MEMOIZED = (
    cfrac.fraction,
    cfrac.dual_expand,
    cfrac.ij_series,
    cfrac.unrefined_series,
    cfrac.identities,
    invariant_ring.defining_equations,
    mckay.g_clusters,
    mckay.special_reps,
    reconstruct.reconstruction_quiver,
    deform.dim_t1,
)


def coprime_pairs(max_n, min_n=2):
    """All (n, q) with min_n <= n <= max_n, 0 < q < n, gcd = 1."""
    return [
        (n, q)
        for n in range(min_n, max_n + 1)
        for q in range(1, n)
        if gcd(n, q) == 1
    ]


def staircase_boxes(staircase):
    """The boxes (a, b) of a ``mckay.Staircase``, column by column: column a
    holds b < heights[a]."""
    return [(a, b) for a, h in enumerate(staircase.heights) for b in range(h)]


# the ring of the orbit ideal, for the oracles that read gfan's rows as
# polynomials
XY = VariableTable(["x", "y"])


def orbit_gens(s):
    """f_t(x, y) - 1 over the invariant generators f_t of the pair ``s``:
    the generators of the ideal of the orbit of (1, 1), for the Buchberger,
    division and sympy oracles (the cones are certified without them)."""
    return tuple(XY.poly({pair: 1, (0, 0): -1}) for pair in cfrac.ij_series(s))


def row_poly(row):
    """The binomial x^m - x^m' of a Groebner cone's row (m, m')."""
    m, t = row
    return XY.poly({m: 1, t: -1})


def row_polys(basis):
    """A cone's rows as polynomials, in their order."""
    return tuple(map(row_poly, basis))


class BoundaryWeightError(Exception):
    """The weight ties two terms of a reduced basis element: it lies on a
    cone boundary and cannot name a single cone."""


def cone_of_weight(s, w):
    """Oracle: the maximal cone of ``gfan`` of the pair ``s`` containing
    the weight w (interior required), found by a search over every cluster
    instead of the sweep.  The cone is that of the cluster whose strict inequalities
    w.m > w.m' w satisfies, picked by integer margins; only its rows are
    read and certified, by ``gfan._certified_cone``."""
    w0, w1 = Fraction(w[0]), Fraction(w[1])
    if w0 <= 0 or w1 <= 0:
        raise InputError("weight must lie in the open quadrant")
    scale = lcm(w0.denominator, w1.denominator)
    w = (int(w0 * scale), int(w1 * scale))
    on_boundary = False
    for cluster in mckay.g_clusters(s):
        low = min(
            (m[0] - t[0]) * w[0] + (m[1] - t[1]) * w[1]
            for m, t in zip(cluster.ideal, cluster.partners)
        )
        if low > 0:
            return gfan._certified_cone(cluster, w, s)
        on_boundary = on_boundary or low == 0
    if on_boundary:
        raise BoundaryWeightError(f"weight {w} ties terms of a basis element")
    raise ConsistencyError(f"weight {w} lies in no cluster's cone")


def specialized_relations(pres):
    """Oracle: the relations of a versal family at s = t = 0, still over
    the family's table, with every parameter substituted by 0 (the masked
    relations that ``deform.specializes`` reads)."""
    zero = dict.fromkeys(pres.variables.parameter_names, 0)
    return [rel.substitute(zero) for rel in pres.relations]
