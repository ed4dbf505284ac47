"""An outside checker of the CLI's reports: each claim a report prints is
re-derived from its JSON bytes with the standard library alone, so that a
fault shared by a layer and its own ``checks`` cannot pass here too.

``report`` runs ``cqsing.cli.main``, the one name this module takes from
the package, and returns the bytes of a JSON report; ``check`` returns the
claims of those bytes that fail, none for a sound report.  Covered:
``resolve``, ``invariants``, ``toric``, ``mckay``, ``hilb`` and ``gfan``.
"""

import contextlib
import io
import json
from fractions import Fraction
from math import comb

from cqsing.cli import main


def report(command: str, n: int, q: int) -> bytes:
    """The stdout of ``command n q --format json``, which must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([command, str(n), str(q), "--format", "json"])
    if code != 0:
        raise AssertionError(f"{command} {n} {q} exited {code}")
    return out.getvalue().encode()


def check(command: str, text: bytes) -> list[str]:
    """The claims of ``command``'s JSON report ``text`` that fail."""
    payload = json.loads(text)
    n, q = payload["input"]["n"], payload["input"]["q"]
    return [claim for claim, holds in CHECKS[command](payload, n, q) if not holds]


def hj_value(chain) -> Fraction:
    """[b1, ..., br] = b1 - 1/(b2 - 1/(... - 1/br))."""
    value = Fraction(chain[-1])
    for b in reversed(chain[:-1]):
        value = b - 1 / value
    return value


def curve_count(n: int, q: int) -> int:
    """r, the length of the expansion of n/q: b = ceil(n/q) peels one entry
    off n/q and leaves q/(b*q - n)."""
    r = 0
    while q:
        b = -(-n // q)
        n, q, r = q, b * q - n, r + 1
    return r


def monomial(a: int, b: int) -> str:
    factors = [f"{v}^{k}" if k > 1 else v for v, k in (("x", a), ("y", b)) if k]
    return "*".join(factors) or "1"


def resolve(p, n, q):
    fraction, dual = p["fraction"], p["dual_fraction"]
    yield "every entry is at least 2", min(fraction + dual) >= 2
    yield "fraction evaluates to n/q", hj_value(fraction) == Fraction(n, q)
    yield "dual fraction evaluates to n/(n-q)", hj_value(dual) == Fraction(n, n - q)
    yield "e = len(dual) + 2", p["e"] == len(dual) + 2
    yield "r = len(fraction)", p["r"] == len(fraction)
    yield "sum(b - 2) = len(dual) - 1", sum(b - 2 for b in fraction) == len(dual) - 1
    yield "sum(a - 2) = len(fraction) - 1", sum(a - 2 for a in dual) == len(fraction) - 1


def invariants(p, n, q):
    gens = p["generators"]
    exps = {g["index"]: g["exponents"] for g in gens}
    yield "generators are z1..ze", list(exps) == list(range(1, len(gens) + 1))
    yield "each generator is invariant", all((i + q * j) % n == 0 for i, j in exps.values())
    yield "each monomial is its exponents", all(
        g["monomial"] == monomial(*g["exponents"]) for g in gens
    )
    balanced = texts = True
    for eq in p["equations"]:
        (i, j), right = eq["left"], eq["right"]
        lhs = [a + b for a, b in zip(exps[i], exps[j])]
        rhs = [sum(k * exps[t][c] for t, k in right) for c in (0, 1)]
        balanced &= lhs == rhs
        factors = "*".join(f"z{t}" if k == 1 else f"z{t}^{k}" for t, k in right)
        texts &= eq["text"] == f"z{i}*z{j} = {factors}"
    yield "each relation balances on exponents", balanced
    yield "each relation's text is its exponents", texts
    yield "C(e - 1, 2) relations", len(p["equations"]) == comb(len(gens) - 1, 2)


def toric(p, n, q):
    fan, selfint = p["fan"], p["self_intersections"]
    rays = fan["rays"]
    yield "den = n", fan["den"] == n
    yield "rays run from (n, 0) to (0, n)", rays[0] == [n, 0] and rays[-1] == [0, n]
    yield "consecutive rays have det = den", all(
        a * d - b * c == fan["den"] for (a, b), (c, d) in zip(rays, rays[1:])
    )
    # read from the (0, n) end: v_{k-1} + v_{k+1} = b_k v_k
    ends = rays[::-1]
    recursion = []
    for (a, b), (c, d), (e, f) in zip(ends, ends[1:], ends[2:]):
        k = (a + e) // c if c else (b + f) // d
        recursion.append(k if (a + e, b + f) == (k * c, k * d) else None)
    yield "the ray recursion gives self_intersections", recursion == selfint
    yield "self_intersections evaluate to n/q", hj_value(selfint) == Fraction(n, q)
    yield "the Hilbert basis is invariant", all(
        (i + q * j) % n == 0 for i, j in p["hilbert_basis"]
    )


def mckay(p, n, q):
    quiver = p["quiver"]
    arrows = [[k, (k + 1) % n, "x"] for k in range(n)] + [[k, (k + q) % n, "y"] for k in range(n)]
    yield "one vertex per class", len(quiver["vertices"]) == n
    yield "arrows are k -> k+1 (x) and k -> k+q (y)", sorted(quiver["arrows"]) == sorted(arrows)
    yield "r special classes", len(set(p["special"])) == len(p["special"]) == curve_count(n, q)
    # column c's lowest invariant x^c y^d has d = -c/q mod n (d = n at c = 0),
    # and column a holds the b below every such d with c <= a
    q_inv = pow(q, -1, n)
    heights, height = [], n
    for c in range(n):
        height = min(height, -c * q_inv % n or n)
        heights.append(height)
    yield "g_basis is the boxes under the invariant staircase", p["g_basis"] == [
        [a, b] for a in range(n) for b in range(heights[a])
    ]


def staircase(ideal):
    """The column heights of the standard monomials of a monomial ideal in
    x, y given by its generators, or None if there are infinitely many."""
    width = min((a for a, b in ideal if b == 0), default=None)
    heights = [min((b for a, b in ideal if a <= c), default=None) for c in range(width or 0)]
    return None if width is None or None in heights else heights


def hilb(p, n, q):
    clusters, curves = p["clusters"], p["curves"]
    residues = texts = True
    for c in clusters:
        heights = staircase(c["ideal"])
        hit = sorted((a + q * b) % n for a, h in enumerate(heights or ()) for b in range(h))
        residues &= heights == c["heights"] and hit == list(range(n))
        texts &= c["ideal_text"] == "<" + ", ".join(monomial(*m) for m in c["ideal"]) + ">"
    yield "each cluster's standard monomials hit every residue once", residues
    yield "each ideal's text is its generators", texts
    r = curve_count(n, q)
    yield "r curves, E1..Er", [c["curve"] for c in curves] == list(range(1, r + 1))
    yield "r + 1 clusters", len(clusters) == r + 1


def exponents(text: str):
    """The (a, b) that ``monomial`` writes as ``text``, or None."""
    powers = {"x": 0, "y": 0}
    if text != "1":
        for factor in text.split("*"):
            var, caret, power = factor.partition("^")
            if var not in powers or caret and not (power.isascii() and power.isdigit()):
                return None
            powers[var] += int(power) if caret else 1
    a, b = powers["x"], powers["y"]
    return (a, b) if monomial(a, b) == text else None


def row(text: str):
    """The row (m, m') of a basis text ``x^m - x^m'``, or None."""
    lead, sep, tail = text.partition(" - ")
    m, t = exponents(lead), exponents(tail)
    return (m, t) if sep and m is not None and t is not None else None


def dot(u, v) -> int:
    return u[0] * v[0] + u[1] * v[1]


def gfan(p, n, q):
    cones, fan = p["cones"], p["fan"]
    rows = [[row(text) for text in c["basis"]] for c in cones]
    parsed = all(r is not None for rs in rows for r in rs)
    yield "each basis text is a row x^m - x^m'", parsed
    if not parsed:
        return
    residues = margins = colengths = inside = bounded = turning = True
    for c, rs in zip(cones, rows):
        w, (lower, upper), normals = c["weight"], c["rays"], c["inequalities"]
        diffs = [(a - e, b - f) for (a, b), (e, f) in rs]
        residues &= all((a + q * b) % n == 0 for a, b in diffs)
        margins &= all(dot(w, d) > 0 for d in diffs)
        heights = staircase([m for m, _ in rs])
        colengths &= heights is not None and sum(heights) == n
        inside &= all(dot(d, w) > 0 for d in normals)
        for ray in (lower, upper):
            dots = [dot(d, ray) for d in normals]
            bounded &= bool(dots) and min(dots) == 0
        turning &= lower[0] * upper[1] - lower[1] * upper[0] > 0
    yield "each row's two terms have one residue mod n", residues
    yield "each row's lead has the larger weight", margins
    yield "each cone's leads leave n standard monomials", colengths
    yield "each inequality is positive at its cone's weight", inside
    yield "each ray lies on its cone's boundary", bounded
    yield "each cone turns counterclockwise from its lower ray", turning
    rays = [c["rays"] for c in cones]
    yield "r + 1 cones", len(cones) == curve_count(n, q) + 1
    yield "the cones run from [1, 0] to [0, 1]", rays[0][0] == [1, 0] and rays[-1][1] == [0, 1]
    yield "each upper ray is the next cone's lower ray", all(
        a[1] == b[0] for a, b in zip(rays, rays[1:])
    )
    yield "den = n", fan["den"] == n
    yield "fan rays are (n, 0), the inner upper rays, then (0, n)", fan["rays"] == [
        [n, 0], *[upper for _, upper in rays[:-1]], [0, n]
    ]


CHECKS = {
    "resolve": resolve,
    "invariants": invariants,
    "toric": toric,
    "mckay": mckay,
    "hilb": hilb,
    "gfan": gfan,
}
