"""Command-line driver: per-topic reports, DOT export, a one-pair
cross-check suite (verify) and a range sweep (batch).

Exit codes: 0 success, 2 invalid input, 3 internal consistency failure,
4 unsupported request.  Output is deterministic byte-for-byte.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii
from math import gcd
from typing import NamedTuple

from . import cfrac, deform, gfan, invariant_ring, mckay, reconstruct, toric
from .cfrac import Singularity
from .errors import ConsistencyError, InputError, UnsupportedError
from .goldens import with_reference
from .polyring import _code_key, poly_text


def emit_dot(quiver) -> str:
    """Render either quiver flavor as a DOT digraph, deterministically."""
    if isinstance(quiver, mckay.Quiver):
        name = "mckay"
        vertices = quiver.vertices
        edges = [(t, h, label) for t, h, label in quiver.arrows]
    elif isinstance(quiver, reconstruct.ReconstructionQuiver):
        name = "reconstruction"
        vertices = quiver.vertices
        edges = [(a.tail, a.head, a.label) for a in quiver.arrows]
    else:
        raise InputError("cannot render this object as DOT")
    lines = [f"digraph {name} {{"]
    for v in vertices:
        lines.append(f'  "{v}";')
    for t, h, label in sorted(edges):
        lines.append(f'  "{vertices[t]}" -> "{vertices[h]}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


class Report(NamedTuple):
    """One command's report: the JSON payload (main adds the input echo),
    the text lines, the quiver that --format dot renders (None for commands
    without one), and, for a partial report, why it is partial; main then
    writes it and exits 4."""

    payload: dict
    text: list[str]
    quiver: object = None
    unsupported: str | None = None


def run_resolve(s: Singularity) -> Report:
    ids = cfrac.identities(s)
    data = {
        "fraction": list(ids.fraction),
        "dual_fraction": list(ids.dual),
        "e": ids.e,
        "r": len(ids.fraction),
    }
    witness = cfrac.is_t_singularity(s)
    t_singularity = (
        None if witness is None else {"d": witness.d, "m": witness.m, "a": witness.a}
    )
    payload = {
        **data,
        "t_singularity": t_singularity,
        "checks": with_reference({"identities": True}, s, **data),
    }
    text = [
        f"fraction {s.n}/{s.q} = {data['fraction']}",
        f"dual fraction {s.n}/{s.n - s.q} = {data['dual_fraction']}",
        f"e = {data['e']}, r = {data['r']}",
        f"t_singularity = {t_singularity}",
    ]
    return Report(payload, text)


def run_invariants(s: Singularity) -> Report:
    gens = invariant_ring.generators(s)
    eqs = invariant_ring.defining_equations(s)
    ok = invariant_ring.verify_presentation(s, eqs)
    if not ok:
        raise ConsistencyError("presentation substitution failed")

    def eq_text(rel):
        i, j = rel.left
        rhs = "*".join(
            f"z{t}" if e == 1 else f"z{t}^{e}" for t, e in rel.right
        )
        return f"z{i}*z{j} = {rhs}"

    monomials = [g.monomial_text for g in gens]
    equations = [eq_text(rel) for rel in eqs]
    generators = [
        {"index": g.index, "exponents": list(g.exponents), "monomial": m}
        for g, m in zip(gens, monomials)
    ]
    payload = {
        "generators": generators,
        "equations": [
            {"left": list(rel.left), "right": [list(p) for p in rel.right], "text": eq}
            for rel, eq in zip(eqs, equations)
        ],
        "checks": with_reference(
            {
                "substitution": ok,
                "relation_count": len(eqs) == (len(gens) - 1) * (len(gens) - 2) // 2,
            },
            s,
            generators=[g["exponents"] for g in generators],
        ),
    }
    text = ["generators: " + ", ".join(monomials)]
    text += ["equations:"] + [f"  {eq}" for eq in equations]
    return Report(payload, text)


def run_toric(s: Singularity) -> Report:
    fan = toric.resolution_fan(s)
    basis = toric.hilbert_basis_dual(s)
    selfint = toric.self_intersections(fan)
    gens = invariant_ring.generators(s)
    fan_data = fan.serialize()
    checks = with_reference(
        {
            "round_trip": selfint == cfrac.hj_expand(s.n, s.q),
            "hilbert_matches_generators": [tuple(p) for p in basis]
            == [g.exponents for g in gens],
        },
        s,
        fan_rays=fan_data["rays"],
    )
    payload = {
        "fan": fan_data,
        "hilbert_basis": [list(p) for p in basis],
        "self_intersections": list(selfint),
        "checks": checks,
    }
    text = [
        f"fan rays (x{s.n}): " + ", ".join(str(r.scaled) for r in fan.rays),
        f"hilbert basis: " + ", ".join(str(p) for p in basis),
        f"self intersections: {list(selfint)}",
    ]
    return Report(payload, text)


def run_mckay(s: Singularity) -> Report:
    quiver = mckay.mckay_quiver(s)
    special = sorted(mckay.special_reps(s))
    basis = mckay.g_basis(s)
    payload = {
        "special": special,
        "g_basis": [list(p) for p in basis],
        "quiver": {
            "vertices": list(quiver.vertices),
            "arrows": [list(a) for a in quiver.arrows],
        },
        "checks": with_reference(
            {"special_count_is_r": len(special) == cfrac.curve_count(s)},
            s,
            special=special,
        ),
    }
    text = [
        f"special classes: {special}",
        f"basis size: {len(basis)}",
        f"quiver: {len(quiver.vertices)} vertices, {len(quiver.arrows)} arrows",
    ]
    return Report(payload, text, quiver)


def run_hilb(s: Singularity) -> Report:
    clusters = mckay.g_clusters(s)
    curves = mckay.curve_rep_assignment(s, clusters)
    entries = []
    for c in clusters:
        ideal = c.ideal  # a property: read once per cluster
        monomials = ", ".join(invariant_ring.monomial_text(a, b) for a, b in ideal)
        entries.append(
            {
                "heights": list(c.heights),
                "ideal": [list(p) for p in ideal],
                "ideal_text": f"<{monomials}>",
            }
        )
    payload = {
        "clusters": entries,
        "curves": [{"curve": k, "class": w} for k, w in curves],
        "checks": with_reference(
            {"regular_representation": mckay.cluster_weight_check(s, clusters)},
            s,
            cluster_ideals=[c["ideal"] for c in entries],
        ),
    }
    text = [f"clusters ({len(clusters)}):"]
    text += [f"  {c['ideal_text']}  heights={c['heights']}" for c in entries]
    text += ["curves: " + ", ".join(f"E{k} -> class {w}" for k, w in curves)]
    return Report(payload, text)


def run_gfan(s: Singularity) -> Report:
    fan, cones = gfan.groebner_fan(s)
    tfan = toric.resolution_fan(s)
    matches = gfan.fans_equal(fan, tfan)
    if not matches:
        raise ConsistencyError("fan does not match the lattice model")
    bases = []
    for c in cones:
        key = _code_key(c.weight, c.basis[0].table)
        bases.append([poly_text(g, key=key) for g in c.basis])
    fan_data = fan.serialize()
    payload = {
        "fan": fan_data,
        "cones": [
            {
                "weight": list(c.weight),
                "inequalities": [list(d) for d in c.inequalities],
                "rays": [list(c.lower_ray), list(c.upper_ray)],
                "basis": basis,
            }
            for c, basis in zip(cones, bases)
        ],
        "checks": with_reference({"matches_toric": matches}, s, fan_rays=fan_data["rays"]),
    }
    text = [f"rays (x{s.n}): " + ", ".join(str(r.scaled) for r in fan.rays)]
    for c, basis in zip(cones, bases):
        text.append(f"cone at weight {c.weight}: rays {c.lower_ray}..{c.upper_ray}")
        text += [f"  {g}" for g in basis]
    return Report(payload, text)


def run_deform(s: Singularity) -> Report:
    dim = deform.dim_t1(s)
    if cfrac.embedding_dimension(s) == 3:
        family = deform.hypersurface_presentation(s)
        equation = poly_text(family.equation)
        payload = {
            "deformation": {
                "dim_t1": dim,
                "kind": "hypersurface",
                "parameters": list(family.parameters),
                "equation": equation,
            },
            "checks": {"parameter_count": len(family.parameters) == dim},
        }
        return Report(payload, [f"dim T1 = {dim}", f"family: {equation} = 0"])
    pres = deform.versal_presentation(s)
    params = pres.variables.parameter_names
    relations = [poly_text(rel) for rel in pres.relations]
    base_ideal = [poly_text(g) for g in pres.base_ideal]
    payload = {
        "deformation": {
            "dim_t1": dim,
            "kind": "binomial",
            "parameters": list(params),
            "pairs": [list(p) for p in pres.pairs],
            "relations": relations,
            "base_ideal": base_ideal,
        },
        "checks": with_reference(
            {
                "parameter_count": len(params) == dim,
                "specialization": deform.specializes(
                    s, pres, invariant_ring.defining_equations(s)
                ),
            },
            s,
            dim_t1=dim,
            base_ideal_size=len(pres.base_ideal),
        ),
    }
    if not payload["checks"]["specialization"]:
        raise ConsistencyError("s = t = 0 does not recover the binomial equations")
    text = [f"dim T1 = {dim}", "relations:"]
    text += [f"  {rel} = 0" for rel in relations]
    text += ["base ideal:"] + [f"  {g}" for g in base_ideal]
    return Report(payload, text)


def run_artin(s: Singularity) -> Report:
    pres = reconstruct.quasidet_presentation(s)
    matrix = [list(row) for row in pres.matrix]
    relations = [poly_text(rel) for rel in pres.relations]
    payload = {
        "reconstruction": {
            "dual_fraction": list(pres.dual_fraction),
            "quasidet_matrix": matrix,
            "quasidet_relations": relations,
        },
        "checks": with_reference({}, s, quasidet_matrix=matrix),
    }
    text = ["matrix:"] + ["  [" + ", ".join(row) + "]" for row in pres.matrix]
    text += ["relations:"] + [f"  {rel} = 0" for rel in relations]
    return Report(payload, text)


def run_reconstruct(s: Singularity) -> Report:
    quiver = reconstruct.reconstruction_quiver(s)
    data = {
        "fraction": list(quiver.fraction),
        "vertices": list(quiver.vertices),
        "arrows": [[a.kind, a.tail, a.head, a.slot] for a in quiver.arrows],
    }
    payload = {"reconstruction": data, "checks": {}}
    text = [f"quiver: {len(quiver.vertices)} vertices, {len(quiver.arrows)} arrows"]
    if quiver.relations is None:
        data["relations"] = None
        data["unsupported_reason"] = quiver.unsupported_reason
        text.append(f"relations unavailable: {quiver.unsupported_reason}")
        return Report(payload, text, quiver, "relations unavailable for this shape")
    deformed = reconstruct.deformed_relations(s)

    def entry(rel):
        # each relation is a difference of two paths, deformed ones = parameter
        out = {
            "vertex": rel.vertex,
            "sum": [
                [1, [a.label for a in rel.positive]],
                [-1, [a.label for a in rel.negative]],
            ],
        }
        if rel.parameter is not None:
            out["parameter"] = rel.parameter
        out["text"] = rel.text()
        return out

    data["relations"] = [entry(rel) for rel in quiver.relations]
    data["deformed_relations"] = [entry(rel) for rel in deformed.relations]
    group_sizes = [len(g) for g in deformed.groups]
    data["parameter_groups"] = [list(g) for g in deformed.groups]
    data["base_dimension"] = deformed.base_dimension
    payload["checks"] = with_reference(
        {},
        s,
        relation_count=len(quiver.relations),
        parameter_group_sizes=group_sizes,
        base_dimension=deformed.base_dimension,
    )
    text += ["relations:"] + [f"  {e['text']} = 0" for e in data["relations"]]
    text += ["deformed:"] + [f"  {e['text']}" for e in data["deformed_relations"]]
    text.append(
        "base: A^%d with one zero-sum constraint per group %s"
        % (deformed.base_dimension, group_sizes)
    )
    return Report(payload, text, quiver)


def verify_checks(s: Singularity) -> dict[str, bool]:
    """Cross-oracle consistency suite for one input pair."""
    checks = {}
    ids = cfrac.identities(s)
    b = ids.fraction
    checks["fraction_round_trip"] = cfrac.hj_evaluate(b) == Fraction(s.n, s.q)
    q_inv = pow(s.q, -1, s.n)
    checks["fraction_duality"] = (
        cfrac.hj_expand(s.n, q_inv) == tuple(reversed(b)) if q_inv != s.q else True
    )
    # the deform branch first: versal_presentation refuses an e over its
    # ceiling before anything of size e^2, the relations included, is built
    pres = deform.versal_presentation(s) if ids.e >= 4 else None
    relations = invariant_ring.defining_equations(s)
    if pres is None:
        params = deform.hypersurface_presentation(s).parameters
    else:
        params = pres.variables.parameter_names
        checks["deform_specialization"] = deform.specializes(s, pres, relations)
    checks["deform_parameter_count"] = len(params) == deform.dim_t1(s)
    gens = invariant_ring.generators(s)
    checks["generator_count_is_e"] = len(gens) == ids.e
    checks["presentation"] = invariant_ring.verify_presentation(s, relations)
    fan = toric.resolution_fan(s)
    checks["fan_round_trip"] = toric.self_intersections(fan) == b
    checks["hilbert_basis"] = [tuple(p) for p in toric.hilbert_basis_dual(s)] == [
        g.exponents for g in gens
    ]
    checks["special_count"] = len(mckay.special_reps(s)) == len(b)
    clusters = mckay.g_clusters(s)
    checks["clusters"] = mckay.cluster_weight_check(s, clusters)
    try:
        mckay.curve_rep_assignment(s, clusters)
        checks["curve_assignment"] = True
    except ConsistencyError:
        checks["curve_assignment"] = False
    gfan_fan, _ = gfan.groebner_fan(s)
    checks["groebner_fan_matches_toric"] = gfan.fans_equal(gfan_fan, fan)
    cycles = invariant_ring.mckay_cycles(s)
    checks["cycle_lengths"] = all(
        len(c) - 1 == g.exponents[0] + g.exponents[1]
        for c, g in zip(cycles, gens)
    )
    quiver = reconstruct.reconstruction_quiver(s) if len(b) >= 2 else None
    if quiver is not None and quiver.relations is not None:
        deformed = reconstruct.deformed_relations(s)
        checks["reconstruction_groups"] = tuple(len(g) for g in deformed.groups) == ids.dual
        checks["reconstruction_base"] = deformed.base_dimension == ids.sum_a
    return checks


def run_verify(s: Singularity) -> Report:
    checks = verify_checks(s)
    text = [f"{name}: {'ok' if ok else 'FAIL'}" for name, ok in sorted(checks.items())]
    if not all(checks.values()):
        raise ConsistencyError("verification failed: " + json.dumps(checks, sort_keys=True))
    return Report({"checks": checks}, text)


def run_batch(max_n: int) -> Report:
    if max_n >= deform.MAX_VERSAL_E:  # the pair (max_n, 1) has e = max_n + 1
        limit = deform.MAX_VERSAL_E - 1
        raise InputError(f"batch --max-n is limited to {limit} by the versal ceiling")
    violations = []
    pairs = 0
    for n in range(2, max_n + 1):
        for q in range(1, n):
            if gcd(n, q) != 1:
                continue
            pairs += 1
            s = Singularity(n, q)
            for name, ok in verify_checks(s).items():
                if not ok:
                    violations.append({"n": n, "q": q, "check": name})
    payload = {
        "max_n": max_n,
        "pairs": pairs,
        "violations": violations,
    }
    text = [f"checked {pairs} pairs up to n = {max_n}", f"violations: {len(violations)}"]
    if violations:
        raise ConsistencyError(json.dumps(payload, sort_keys=True))
    return Report(payload, text)


# The commands on one pair (n, q); batch is the one command over a range.
COMMANDS = {
    "resolve": run_resolve,
    "invariants": run_invariants,
    "toric": run_toric,
    "mckay": run_mckay,
    "hilb": run_hilb,
    "gfan": run_gfan,
    "deform": run_deform,
    "artin": run_artin,
    "reconstruct": run_reconstruct,
    "verify": run_verify,
}

EXIT_CODES = {InputError: 2, ConsistencyError: 3, UnsupportedError: 4}


@functools.cache  # built on first use, not at import, so importing the CLI stays cheap
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cqsing",
        description="exact data for two-dimensional cyclic quotient surface singularities",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("n", type=int)
        p.add_argument("q", type=int)
        p.add_argument("--format", choices=["json", "text", "dot"], default="text")
        p.add_argument("--output", default=None)
    p = sub.add_parser("batch")
    p.add_argument("--max-n", type=int, default=20)
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.add_argument("--output", default=None)
    return parser


# JSON text of the scalars, by exact type (bool is not taken for int)
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: lambda v: "true" if v else "false",
    type(None): lambda v: "null",
}


def _json_text(value, indent: str = "\n") -> str:
    """The text of json.dumps(value, sort_keys=True, indent=2), for a value
    at the nesting level whose line prefix is ``indent`` ("\\n" at the top).

    json.dumps with an indent runs the encoder's pure-Python generator; this
    joins the same pieces with str.join.  A list of scalars renders in one
    pass, and a list of equal-length rows of scalars (g_basis, heights,
    ideals, pairs, quiver arrows) goes through one row template.  Only str,
    int, bool, None, lists, tuples and dicts with str keys are accepted; a
    record (a tuple subclass such as ``GCluster``) raises TypeError rather
    than render as an array.
    """
    render = _SCALAR_TEXT.get(type(value))
    if render is not None:
        return render(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        # a key that is not a str makes encode_basestring_ascii raise TypeError
        items = [
            encode_basestring_ascii(k) + ": " + _json_text(v, inner)
            for k, v in sorted(value.items())
        ]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if type(value) in (list, tuple):
        if not value:
            return "[]"
        kinds = set(map(type, value))
        if kinds <= _SCALAR_TEXT.keys():
            items = [_SCALAR_TEXT[type(v)](v) for v in value]
        else:
            rows = _rows_text(value, indent) if kinds <= {list, tuple} else None
            if rows is not None:
                return rows
            items = [_json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _rows_text(rows, indent: str):
    """``_json_text`` of a list of equal-length, nonempty rows of scalars,
    filled into one template: %d cells from the ints themselves when all
    are ints, else %s cells from their texts; None for any other list."""
    width = len(rows[0])
    if not width or set(map(len, rows)) != {width}:
        return None
    cells = tuple(chain.from_iterable(rows))
    kinds = set(map(type, cells))
    if kinds == {int}:
        cell = "%d"
    elif kinds <= _SCALAR_TEXT.keys():
        cell = "%s"
        cells = tuple([_SCALAR_TEXT[type(v)](v) for v in cells])
    else:
        return None
    inner, deeper = indent + "  ", indent + "    "
    row = "[" + deeper + ("," + deeper).join([cell] * width) + inner + "]"
    return ("[" + inner + ("," + inner).join([row] * len(rows)) + indent + "]") % cells


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command in COMMANDS:
            s = Singularity(args.n, args.q)
            report = COMMANDS[args.command](s)
            report.payload["input"] = {"n": s.n, "q": s.q}
        else:
            report = run_batch(args.max_n)
        if args.format == "json":
            out = _json_text(report.payload) + "\n"
        elif args.format == "text":
            out = "\n".join(report.text) + "\n"
        elif report.quiver is None:
            raise InputError("dot format is only available for quiver commands")
        else:
            out = emit_dot(report.quiver)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES[type(exc)]
    if not _write(out, args.output):
        return 2
    if report.unsupported is not None:
        print(f"error: {report.unsupported}", file=sys.stderr)
        return 4
    return 0


def _write(out: str, path) -> bool:
    """Write the report to path, or stdout without one; False (with an
    error line on stderr) if the path cannot be written."""
    if not path:
        sys.stdout.write(out)
        return True
    try:
        with open(path, "w") as handle:
            handle.write(out)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror}", file=sys.stderr)
        return False
    return True


if __name__ == "__main__":
    sys.exit(main())
