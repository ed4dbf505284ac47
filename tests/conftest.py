from math import gcd

from cqsing.gfan import _point_power
from cqsing.invariant_ring import generators


def coprime_pairs(max_n, min_n=2):
    """All (n, q) with min_n <= n <= max_n, 0 < q < n, gcd = 1."""
    return [
        (n, q)
        for n in range(min_n, max_n + 1)
        for q in range(1, n)
        if gcd(n, q) == 1
    ]


def orbit_gens(ideal):
    """f_t(x, y) - f_t(point) over the invariant generators: the generators
    of the orbit ideal, for the Buchberger and division oracles (the cones
    are certified without them)."""
    return tuple(
        ideal.table.poly({a: 1, (0, 0): -_point_power(ideal.point, a)})
        for a in (g.exponents for g in generators(ideal.singularity))
    )
