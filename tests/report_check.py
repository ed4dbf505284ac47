"""An outside checker of the CLI's reports: each claim a report prints is
re-derived from its JSON bytes with the standard library alone, so that a
fault shared by a layer and its own ``checks`` cannot pass here too.

``report`` runs ``cqsing.cli.main``, the one name this module takes from
the package, and returns the bytes of a JSON report; ``check`` returns the
claims of those bytes that fail, none for a sound report.  Covered:
``resolve``, ``invariants``, ``toric``, ``mckay``, ``hilb``, ``gfan``,
``reconstruct`` and, at s = t = 0, ``deform``.
"""

import contextlib
import io
import json
import re
from fractions import Fraction
from math import comb

from cqsing.cli import main


def report(command: str, n: int, q: int) -> bytes:
    """The stdout of ``command n q --format json``, which must exit 0, or 4
    for a ``reconstruct`` report whose relations are null (r >= 2: at r = 1
    there is no report)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([command, str(n), str(q), "--format", "json"])
    text = out.getvalue().encode()
    partial = (
        command == "reconstruct" and text and json.loads(text)["reconstruction"]["relations"] is None
    )
    if code != (4 if partial else 0):
        raise AssertionError(f"{command} {n} {q} exited {code}")
    return text


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


def expansion(n: int, q: int) -> list[int]:
    """The chain [b1, ..., br] of n/q: b = ceil(n/q) peels one entry off n/q
    and leaves q/(b*q - n)."""
    chain = []
    while q:
        b = -(-n // q)
        n, q = q, b * q - n
        chain.append(b)
    return chain


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
    yield "r special classes", len(set(p["special"])) == len(p["special"]) == len(expansion(n, q))
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
    r = len(expansion(n, q))
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
    yield "r + 1 cones", len(cones) == len(expansion(n, q)) + 1
    yield "the cones run from [1, 0] to [0, 1]", rays[0][0] == [1, 0] and rays[-1][1] == [0, 1]
    yield "each upper ray is the next cone's lower ray", all(
        a[1] == b[0] for a, b in zip(rays, rays[1:])
    )
    yield "den = n", fan["den"] == n
    yield "fan rays are (n, 0), the inner upper rays, then (0, n)", fan["rays"] == [
        [n, 0], *[upper for _, upper in rays[:-1]], [0, n]
    ]


# a polynomial text as ``deform`` writes it: terms of coefficient 1 or -1
# joined by " + " and " - ", factors by "*", powers as ^e with e >= 2, and
# names (z3, s2(1), t4, c0) of a letter, digits and an optional "(k)"
_FACTOR = r"[a-z]\d+(?:\(\d+\))?(?:\^(?:[2-9]|[1-9]\d+))?"
_TERM = rf"{_FACTOR}(?:\*{_FACTOR})*"
POLYNOMIAL = re.compile(rf"-?{_TERM}(?: [-+] {_TERM})*")
NAME = re.compile(r"[a-z]\d+(?:\(\d+\))?")
# each term of a polynomial text, or each of its terms in the z's alone, as
# (leading sign, sign, factors)
_Z_FACTOR = r"z\d+(?:\^\d+)?"  # the text is checked whole by POLYNOMIAL
TERMS = re.compile(rf"(?:^(-?)|([-+]) )({_TERM})(?= |$)")
Z_TERMS = re.compile(rf"(?:^(-?)|([-+]) )({_Z_FACTOR}(?:\*{_Z_FACTOR})*)(?= |$)")


def polynomial(text: str, terms=TERMS):
    """The terms {monomial: coefficient} of a polynomial text that the
    pattern ``terms`` finds, all of them by default, each monomial a sorted
    tuple of (name, exponent); None unless the text is a polynomial text
    and no name or monomial repeats."""
    if not POLYNOMIAL.fullmatch(text):
        return None
    found = {}
    for lead, sign, term in terms.findall(text):
        factors = [factor.partition("^") for factor in term.split("*")]
        monomial = tuple(sorted((name, int(k or 1)) for name, _, k in factors))
        if monomial in found or len(dict(monomial)) < len(monomial):
            return None
        found[monomial] = -1 if lead or sign == "-" else 1
    return found


def z_product(factors) -> tuple:
    """The monomial of z_t^k over the (t, k) of ``factors``, k = 0 left out,
    as ``polynomial`` keys it."""
    return tuple(sorted((f"z{t}", k) for t, k in factors if k))


def deform(p, n, q):
    data = p["deformation"]
    dual = expansion(n, n - q)
    e = len(dual) + 2
    params = data["parameters"]
    if e == 3:
        yield "e = 3 is the hypersurface", data["kind"] == "hypersurface"
        yield "dim_t1 = n - 1", data["dim_t1"] == n - 1
        yield "parameters are c0..c(n-2)", params == [f"c{k}" for k in range(n - 1)]
        terms = polynomial(data["equation"]) or {}
        plain = polynomial(data["equation"], Z_TERMS) or {}
        yield "the equation at c = 0 is z1*z3 - z2^n", plain == {
            z_product([(1, 1), (3, 1)]): 1, z_product([(2, n)]): -1
        }
        deformed = {(("c0", 1),): -1}
        deformed.update({((f"c{k}", 1), ("z2", k)): -1 for k in range(1, n - 1)})
        yield "its other terms are -z2^k*c_k and -c0", {
            m: c for m, c in terms.items() if m not in plain
        } == deformed
        return
    a = dict(enumerate(dual, start=2))
    s_names = [f"s{i}({k})" for i in range(2, e) for k in range(1, a[i])]
    t_names = [f"t{i}" for i in range(3, e - 1)]
    yield "e >= 4 is binomial", data["kind"] == "binomial"
    yield "dim_t1 = sum(a - 1) + e - 4", data["dim_t1"] == sum(x - 1 for x in dual) + e - 4
    yield "parameters are the s_i(k), then the t_i", params == s_names + t_names
    pairs = [[i, i + 2] for i in range(1, e - 1)]
    pairs += [[i, j] for i in range(1, e - 1) for j in range(i + 3, e + 1)]
    yield "pairs are the adjacent (i, i + 2), then the rest in order", data["pairs"] == pairs
    names = {f"z{t}" for t in range(1, e + 1)}.union(params)
    yield "each relation's names are z1..ze and the parameters", all(
        names.issuperset(NAME.findall(text)) for text in data["relations"]
    )
    yield "each base_ideal generator is a polynomial in the parameters alone", all(
        POLYNOMIAL.fullmatch(text) and set(params).issuperset(NAME.findall(text))
        for text in data["base_ideal"]
    )
    # z_i*w_j - P_ij at s = t = 0 keeps its terms in the z's alone; p_ij is
    # z_{i+1}^{a_{i+1}} for j = i + 2, else z_{i+1}^{a_{i+1}-1} times
    # z_m^{a_m-2} for i+1 < m < j-1 times z_{j-1}^{a_{j-1}-1}
    specialized = len(data["relations"]) == len(data["pairs"])
    for (i, j), text in zip(data["pairs"], data["relations"]):
        if j == i + 2:
            right = z_product([(i + 1, a[i + 1])])
        else:
            middle = [(m, a[m] - 2) for m in range(i + 2, j - 1)]
            right = z_product([(i + 1, a[i + 1] - 1), *middle, (j - 1, a[j - 1] - 1)])
        at_zero = polynomial(text, Z_TERMS)
        specialized &= at_zero == {z_product([(i, 1), (j, 1)]): 1, right: -1}
    yield "each relation is a polynomial, z_i*z_j - p_ij at s = t = 0", specialized


def label(kind: str, tail: int, head: int, slot: int) -> str:
    return f"k{tail}_{slot}" if kind == "k" else f"{kind}{tail}{head}"


def reconstruct(p, n, q):
    data = p["reconstruction"]
    chain = data["fraction"]
    count = len(chain) + 1
    yield "fraction evaluates to n/q, every entry >= 2, r >= 2", (
        hj_value(chain) == Fraction(n, q) and min(chain) >= 2 and count >= 3
    )
    yield "vertices are b0..br", data["vertices"] == [f"b{i}" for i in range(count)]
    arrows = [["a", i, (i + 1) % count, 0] for i in range(count)]
    arrows += [["c", i, (i - 1) % count, 0] for i in range(count)]
    arrows += [["k", i, 0, s] for i, b in enumerate(chain, 1) for s in range(1, b - 1)]
    yield "arrows are the a's, the c's, then b_i - 2 k's from each b_i", data["arrows"] == arrows
    # relations are given on the chains that are all 2 or all 2 but one 3
    supported = sum(b - 2 for b in chain) <= 1
    yield "relations are null exactly off the supported chains, with a reason", (
        data["relations"] is not None if supported
        else isinstance(data.get("unsupported_reason"), str)
    )
    if not supported or data["relations"] is None:
        return
    ends = {label(*a): a[1:3] for a in arrows}
    yield "each arrow has its own label", len(ends) == len(arrows)
    plain, deformed = data["relations"], data["deformed_relations"]
    loops = texts = True
    for rel in plain + deformed:
        (one, positive), (minus, negative) = rel["sum"]
        for path in (positive, negative):
            heads = [rel["vertex"]]
            for name in path:
                tail, head = ends.get(name, (None, None))
                loops &= tail == heads[-1]
                heads.append(head)
            loops &= heads[-1] == rel["vertex"] and (one, minus) == (1, -1)
        text = "*".join(positive) + " - " + "*".join(negative)
        if "parameter" in rel:
            text += " = " + rel["parameter"]
        texts &= rel["text"] == text
    yield "both sums of every relation are loops at its vertex", loops
    yield "each relation's text is its paths", texts

    def sides(rel, swap=False):
        paths = [path for _, path in rel["sum"]]
        return rel["vertex"], *(paths[::-1] if swap else paths)

    unmatched = [sides(rel) for rel in plain]
    for rel in deformed:
        match = next((s for s in (sides(rel), sides(rel, True)) if s in unmatched), None)
        if match is not None:
            unmatched.remove(match)
    yield "the deformed relations are the plain ones, sides kept or swapped", (
        len(deformed) == len(plain) and not unmatched
        and all("parameter" in rel for rel in deformed)
        and not any("parameter" in rel for rel in plain)
    )
    groups, dual = data["parameter_groups"], expansion(n, n - q)
    yield "each deformed relation has its own parameter, one group each", sorted(
        rel["parameter"] for rel in deformed
    ) == sorted(name for g in groups for name in g)
    yield "the group sizes are the dual chain of n/(n - q)", [len(g) for g in groups] == dual
    yield "base_dimension = sum(len(g) - 1) = sum(a - 1)", (
        data["base_dimension"] == sum(len(g) - 1 for g in groups) == sum(a - 1 for a in dual)
    )


CHECKS = {
    "resolve": resolve,
    "invariants": invariants,
    "toric": toric,
    "mckay": mckay,
    "hilb": hilb,
    "gfan": gfan,
    "reconstruct": reconstruct,
    "deform": deform,
}
