from math import gcd

from cqsing import cfrac, deform, invariant_ring, mckay, reconstruct
from cqsing.invariant_ring import generators

# every derivation that ``cfrac.per_pair`` memoizes on a Singularity
MEMOIZED = (
    cfrac.fraction,
    cfrac.dual_expand,
    cfrac.ij_series,
    cfrac.unrefined_series,
    cfrac.identities,
    invariant_ring.generators,
    invariant_ring._a_by_index,
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


def orbit_gens(ideal):
    """f_t(x, y) - 1 over the invariant generators: the generators of the
    ideal of the orbit of (1, 1), for the Buchberger, division and sympy
    oracles (the cones are certified without them)."""
    return tuple(
        ideal.table.poly({g.exponents: 1, (0, 0): -1})
        for g in generators(ideal.singularity)
    )
