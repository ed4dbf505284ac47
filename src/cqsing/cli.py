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
from collections import Counter
from fractions import Fraction
from math import gcd

from . import cfrac, deform, gfan, invariant_ring, mckay, reconstruct, toric
from .cfrac import Singularity
from .errors import ConsistencyError, InputError, UnsupportedError
from .goldens import flag_matches
from .polyring import WeightedOrder, poly_text


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


def _singularity(args) -> Singularity:
    return Singularity(args.n, args.q)


def _with_reference(checks: dict, s: Singularity, **values) -> dict:
    flag = flag_matches(s, **values)
    if flag is not None:
        checks["matches_reference"] = flag
    return checks


def _fraction_data(s: Singularity):
    ids = cfrac.identities(s)
    return {
        "fraction": list(cfrac.hj_expand(s.n, s.q)),
        "dual_fraction": list(cfrac.dual_expand(s)),
        "e": ids.e,
        "r": cfrac.curve_count(s),
    }


def run_resolve(s: Singularity):
    data = _fraction_data(s)
    witness = cfrac.is_t_singularity(s)
    payload = {
        "input": {"n": s.n, "q": s.q},
        **data,
        "t_singularity": None
        if witness is None
        else {"d": witness.d, "m": witness.m, "a": witness.a},
        "checks": _with_reference({"identities": True}, s, **data),
    }
    text = [
        f"fraction {s.n}/{s.q} = {data['fraction']}",
        f"dual fraction {s.n}/{s.n - s.q} = {data['dual_fraction']}",
        f"e = {data['e']}, r = {data['r']}",
        f"t_singularity = {payload['t_singularity']}",
    ]
    return payload, text


def run_invariants(s: Singularity):
    gens = invariant_ring.generators(s)
    eqs = invariant_ring.defining_equations(s)
    ok = invariant_ring.verify_presentation(s)
    if not ok:
        raise ConsistencyError("presentation substitution failed")

    def eq_text(rel):
        i, j = rel.left
        rhs = "*".join(
            f"z{t}" if e == 1 else f"z{t}^{e}" for t, e in rel.right
        )
        return f"z{i}*z{j} = {rhs}"

    payload = {
        "input": {"n": s.n, "q": s.q},
        "generators": [
            {"index": g.index, "exponents": list(g.exponents), "monomial": g.monomial_text}
            for g in gens
        ],
        "equations": [
            {"left": list(rel.left), "right": [list(p) for p in rel.right], "text": eq_text(rel)}
            for rel in eqs
        ],
        "checks": _with_reference(
            {
                "substitution": ok,
                "relation_count": len(eqs) == (len(gens) - 1) * (len(gens) - 2) // 2,
            },
            s,
            generators=[list(g.exponents) for g in gens],
        ),
    }
    text = ["generators: " + ", ".join(g.monomial_text for g in gens)]
    text += ["equations:"] + [f"  {eq_text(rel)}" for rel in eqs]
    return payload, text


def run_toric(s: Singularity):
    fan = toric.resolution_fan(s)
    basis = toric.hilbert_basis_dual(s)
    selfint = toric.self_intersections(fan)
    gens = invariant_ring.generators(s)
    checks = _with_reference(
        {
            "round_trip": selfint == cfrac.hj_expand(s.n, s.q),
            "hilbert_matches_generators": [tuple(p) for p in basis]
            == [g.exponents for g in gens],
        },
        s,
        fan_rays=[list(r.scaled) for r in fan.rays],
    )
    payload = {
        "input": {"n": s.n, "q": s.q},
        "fan": fan.serialize(),
        "hilbert_basis": [list(p) for p in basis],
        "self_intersections": list(selfint),
        "checks": checks,
    }
    text = [
        f"fan rays (x{s.n}): " + ", ".join(str(r.scaled) for r in fan.rays),
        f"hilbert basis: " + ", ".join(str(p) for p in basis),
        f"self intersections: {list(selfint)}",
    ]
    return payload, text


def run_mckay(s: Singularity):
    quiver = mckay.mckay_quiver(s)
    special = sorted(mckay.special_reps(s))
    basis = mckay.g_basis(s)
    payload = {
        "input": {"n": s.n, "q": s.q},
        "special": special,
        "g_basis": [list(p) for p in basis],
        "quiver": {
            "vertices": list(quiver.vertices),
            "arrows": [list(a) for a in quiver.arrows],
        },
        "checks": _with_reference(
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
    return payload, text, quiver


def run_hilb(s: Singularity):
    clusters = mckay.g_clusters(s)
    curves = mckay.curve_rep_assignment(s)

    def ideal_text(c):
        parts = []
        for a, b in c.ideal:
            factors = []
            if a:
                factors.append("x" if a == 1 else f"x^{a}")
            if b:
                factors.append("y" if b == 1 else f"y^{b}")
            parts.append("*".join(factors))
        return "<" + ", ".join(parts) + ">"

    payload = {
        "input": {"n": s.n, "q": s.q},
        "clusters": [
            {
                "heights": list(c.heights),
                "ideal": [list(p) for p in c.ideal],
                "ideal_text": ideal_text(c),
            }
            for c in clusters
        ],
        "curves": [{"curve": k, "class": w} for k, w in curves],
        "checks": _with_reference(
            {"regular_representation": mckay.cluster_weight_check(s)},
            s,
            cluster_ideals=[[list(p) for p in c.ideal] for c in clusters],
        ),
    }
    text = [f"clusters ({len(clusters)}):"]
    text += [f"  {ideal_text(c)}  heights={list(c.heights)}" for c in clusters]
    text += ["curves: " + ", ".join(f"E{k} -> class {w}" for k, w in curves)]
    return payload, text


def run_gfan(s: Singularity):
    fan, cones = gfan.groebner_fan(s)
    tfan = toric.resolution_fan(s)
    matches = gfan.fans_equal(fan, tfan)
    if not matches:
        raise ConsistencyError("fan does not match the lattice model")
    payload = {
        "input": {"n": s.n, "q": s.q},
        "fan": fan.serialize(),
        "cones": [
            {
                "weight": list(c.weight),
                "inequalities": [list(d) for d in c.inequalities],
                "rays": [list(c.lower_ray), list(c.upper_ray)],
                "basis": [poly_text(g, WeightedOrder(weights=c.weight)) for g in c.basis],
            }
            for c in cones
        ],
        "checks": _with_reference(
            {"matches_toric": matches},
            s,
            fan_rays=[list(r.scaled) for r in fan.rays],
        ),
    }
    text = [f"rays (x{s.n}): " + ", ".join(str(r.scaled) for r in fan.rays)]
    for c in cones:
        text.append(
            f"cone at weight {c.weight}: rays {c.lower_ray}..{c.upper_ray}"
        )
        for g in c.basis:
            text.append(f"  {poly_text(g, WeightedOrder(weights=c.weight))}")
    return payload, text


def run_deform(s: Singularity):
    dim = deform.dim_t1(s)
    e = cfrac.embedding_dimension(s)
    if e == 3:
        table, equation, params = deform.hypersurface_presentation(s)
        payload = {
            "input": {"n": s.n, "q": s.q},
            "deformation": {
                "dim_t1": dim,
                "kind": "hypersurface",
                "parameters": list(params),
                "equation": poly_text(equation),
            },
            "checks": {"parameter_count": len(params) == dim},
        }
        text = [f"dim T1 = {dim}", f"family: {poly_text(equation)} = 0"]
        return payload, text
    pres = deform.versal_presentation(s)
    params = pres.variables.parameter_names
    relations = [poly_text(rel) for rel in pres.relations]
    base_ideal = [poly_text(g) for g in pres.base_ideal]
    payload = {
        "input": {"n": s.n, "q": s.q},
        "deformation": {
            "dim_t1": dim,
            "kind": "binomial",
            "parameters": list(params),
            "pairs": [list(p) for p in pres.pairs],
            "relations": relations,
            "base_ideal": base_ideal,
        },
        "checks": _with_reference(
            {
                "parameter_count": len(params) == dim,
                "specialization": _specialization_ok(s, pres),
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
    return payload, text


def _specialization_ok(s: Singularity, pres) -> bool:
    _, expected = invariant_ring.relation_polynomials(s, pres.variables.table)
    return Counter(deform.specialized_relations(pres)) == Counter(expected)


def run_artin(s: Singularity):
    pres = reconstruct.quasidet_presentation(s)
    payload = {
        "input": {"n": s.n, "q": s.q},
        "reconstruction": {
            "dual_fraction": list(pres.dual_fraction),
            "quasidet_matrix": [list(row) for row in pres.matrix],
            "quasidet_relations": [poly_text(rel) for rel in pres.relations],
        },
        "checks": _with_reference(
            {},
            s,
            quasidet_matrix=[list(row) for row in pres.matrix],
        ),
    }
    text = ["matrix:"]
    text += ["  [" + ", ".join(row) + "]" for row in pres.matrix]
    text += ["relations:"] + [f"  {poly_text(rel)} = 0" for rel in pres.relations]
    return payload, text


def run_reconstruct(s: Singularity):
    quiver = reconstruct.reconstruction_quiver(s)
    payload = {
        "input": {"n": s.n, "q": s.q},
        "reconstruction": {
            "fraction": list(quiver.fraction),
            "vertices": list(quiver.vertices),
            "arrows": [[a.kind, a.tail, a.head, a.slot] for a in quiver.arrows],
        },
        "checks": {},
    }
    text = [
        f"quiver: {len(quiver.vertices)} vertices, {len(quiver.arrows)} arrows"
    ]
    if quiver.relations is None:
        payload["reconstruction"]["relations"] = None
        payload["reconstruction"]["unsupported_reason"] = quiver.unsupported_reason
        text.append(f"relations unavailable: {quiver.unsupported_reason}")
        raise _Unsupported(payload, text)
    deformed = reconstruct.deformed_relations(s)

    def signed_paths(rel):
        # each relation is a difference of two paths
        return [
            [1, [a.label for a in rel.positive]],
            [-1, [a.label for a in rel.negative]],
        ]

    payload["reconstruction"]["relations"] = [
        {"vertex": rel.vertex, "sum": signed_paths(rel), "text": rel.text()}
        for rel in quiver.relations
    ]
    payload["reconstruction"]["deformed_relations"] = [
        {
            "vertex": rel.vertex,
            "sum": signed_paths(rel),
            "parameter": rel.parameter,
            "text": rel.text(),
        }
        for rel in deformed.relations
    ]
    payload["reconstruction"]["parameter_groups"] = [list(g) for g in deformed.groups]
    payload["reconstruction"]["base_dimension"] = deformed.base_dimension
    payload["checks"] = _with_reference(
        payload["checks"],
        s,
        relation_count=len(quiver.relations),
        parameter_group_sizes=[len(g) for g in deformed.groups],
        base_dimension=deformed.base_dimension,
    )
    text += ["relations:"] + [f"  {rel.text()} = 0" for rel in quiver.relations]
    text += ["deformed:"] + [f"  {rel.text()}" for rel in deformed.relations]
    text.append(
        "base: A^%d with one zero-sum constraint per group %s"
        % (deformed.base_dimension, [len(g) for g in deformed.groups])
    )
    return payload, text, quiver


class _Unsupported(Exception):
    def __init__(self, payload, text):
        self.payload = payload
        self.text = text


def verify_checks(s: Singularity) -> dict[str, bool]:
    """Cross-oracle consistency suite for one input pair."""
    checks = {}
    ids = cfrac.identities(s)
    b = cfrac.hj_expand(s.n, s.q)
    checks["fraction_round_trip"] = cfrac.hj_evaluate(b) == Fraction(s.n, s.q)
    q_inv = pow(s.q, -1, s.n)
    checks["fraction_duality"] = (
        cfrac.hj_expand(s.n, q_inv) == tuple(reversed(b)) if q_inv != s.q else True
    )
    gens = invariant_ring.generators(s)
    checks["generator_count_is_e"] = len(gens) == ids.e
    checks["presentation"] = invariant_ring.verify_presentation(s)
    fan = toric.resolution_fan(s)
    checks["fan_round_trip"] = toric.self_intersections(fan) == b
    checks["hilbert_basis"] = [tuple(p) for p in toric.hilbert_basis_dual(s)] == [
        g.exponents for g in gens
    ]
    checks["special_count"] = len(mckay.special_reps(s)) == len(b)
    checks["clusters"] = mckay.cluster_weight_check(s)
    try:
        mckay.curve_rep_assignment(s)
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
    if ids.e >= 4:
        pres = deform.versal_presentation(s)
        checks["deform_specialization"] = _specialization_ok(s, pres)
        checks["deform_parameter_count"] = (
            len(pres.variables.parameter_names) == deform.dim_t1(s)
        )
    else:
        _, _, params = deform.hypersurface_presentation(s)
        checks["deform_parameter_count"] = len(params) == deform.dim_t1(s)
    quiver = reconstruct.reconstruction_quiver(s) if len(b) >= 2 else None
    if quiver is not None and quiver.relations is not None:
        deformed = reconstruct.deformed_relations(s)
        checks["reconstruction_groups"] = tuple(
            len(g) for g in deformed.groups
        ) == cfrac.dual_expand(s)
        checks["reconstruction_base"] = deformed.base_dimension == sum(
            a - 1 for a in cfrac.dual_expand(s)
        )
    return checks


def run_verify(s: Singularity):
    checks = verify_checks(s)
    payload = {"input": {"n": s.n, "q": s.q}, "checks": checks}
    text = [f"{name}: {'ok' if ok else 'FAIL'}" for name, ok in sorted(checks.items())]
    if not all(checks.values()):
        raise ConsistencyError("verification failed: " + json.dumps(checks, sort_keys=True))
    return payload, text


def run_batch(max_n: int):
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
    return payload, text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cqsing",
        description="exact data for two-dimensional cyclic quotient surface singularities",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    pair_commands = [
        "resolve",
        "invariants",
        "toric",
        "mckay",
        "hilb",
        "gfan",
        "deform",
        "artin",
        "reconstruct",
        "verify",
    ]
    for name in pair_commands:
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


def _render(payload, text_lines, fmt, dot_source=None) -> str:
    if fmt == "json":
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if fmt == "dot":
        if dot_source is None:
            raise InputError("dot format is only available for quiver commands")
        return emit_dot(dot_source)
    return "\n".join(text_lines) + "\n"


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on first use, not at import, so importing the CLI stays cheap
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "batch":
            payload, text = run_batch(args.max_n)
            out = _render(payload, text, args.format)
        else:
            s = _singularity(args)
            dot_source = None
            if args.command == "resolve":
                payload, text = run_resolve(s)
            elif args.command == "invariants":
                payload, text = run_invariants(s)
            elif args.command == "toric":
                payload, text = run_toric(s)
            elif args.command == "mckay":
                payload, text, dot_source = run_mckay(s)
            elif args.command == "hilb":
                payload, text = run_hilb(s)
            elif args.command == "gfan":
                payload, text = run_gfan(s)
            elif args.command == "deform":
                payload, text = run_deform(s)
            elif args.command == "artin":
                payload, text = run_artin(s)
            elif args.command == "reconstruct":
                payload, text, dot_source = run_reconstruct(s)
            elif args.command == "verify":
                payload, text = run_verify(s)
            else:
                raise InputError(f"unknown command {args.command}")
            out = _render(payload, text, args.format, dot_source)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _Unsupported as exc:
        out = _render(exc.payload, exc.text, args.format)
        if not _write(out, args.output):
            return 2
        print("error: relations unavailable for this shape", file=sys.stderr)
        return 4
    except UnsupportedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0 if _write(out, args.output) else 2


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
