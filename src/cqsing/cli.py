"""Command-line driver: per-topic reports, DOT export, a one-pair
cross-check suite (verify) and a range sweep (batch).

Exit codes: 0 success, 2 invalid input, 3 internal consistency failure
(a report with a false check is not written), 4 unsupported request.
Output is deterministic byte-for-byte.
"""

from __future__ import annotations

import json
import os
import sys
from collections.abc import Callable
from fractions import Fraction
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from math import gcd
from typing import NamedTuple

from . import cfrac, deform, gfan, invariant_ring, mckay, reconstruct, toric
from .cfrac import Singularity
from .errors import ConsistencyError, InputError, UnsupportedError
from .polyring import poly_text


def _dot_text(name: str, vertices, edges) -> str:
    """The DOT digraph ``name`` of a quiver, deterministically: its vertices,
    then its edges (tail index, head index, label) in sorted order."""
    lines = [f"digraph {name} {{"]
    for v in vertices:
        lines.append(f'  "{v}";')
    for t, h, label in sorted(edges):
        lines.append(f'  "{vertices[t]}" -> "{vertices[h]}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


class Report(NamedTuple):
    """One command's report: the JSON payload (main adds the input echo),
    a function that builds the text lines (main calls it for --format text
    only), one that builds the DOT text of the command's quiver (main calls
    it for --format dot only; None for commands without a quiver), and, for
    a partial report, why it is partial; main then writes it and exits 4."""

    payload: dict
    text: Callable[[], list[str]]
    dot: Callable[[], str] | None = None
    unsupported: str | None = None


def run_resolve(s: Singularity) -> Report:
    ids = cfrac.identities(s)
    r = len(ids.fraction)
    witness = cfrac.is_t_singularity(s)
    t_singularity = (
        None if witness is None else {"d": witness.d, "m": witness.m, "a": witness.a}
    )
    payload = {
        "fraction": ids.fraction,
        "dual_fraction": ids.dual,
        "e": ids.e,
        "r": r,
        "t_singularity": t_singularity,
        "checks": {"identities": True},
    }
    return Report(payload, lambda: [
        f"fraction {s.n}/{s.q} = {list(ids.fraction)}",
        f"dual fraction {s.n}/{s.n - s.q} = {list(ids.dual)}",
        f"e = {ids.e}, r = {r}",
        f"t_singularity = {t_singularity}",
    ])


def run_invariants(s: Singularity) -> Report:
    gens = invariant_ring.generators(s)
    eqs = invariant_ring.defining_equations(s)
    ok = invariant_ring.verify_presentation(s, eqs)

    def eq_text(rel):
        i, j = rel.left
        rhs = "*".join(
            f"z{t}" if e == 1 else f"z{t}^{e}" for t, e in rel.right
        )
        return f"z{i}*z{j} = {rhs}"

    monomials = [invariant_ring.monomial_text(*pair) for pair in gens]
    equations = [eq_text(rel) for rel in eqs]
    generators = [
        {"index": t, "exponents": pair, "monomial": m}
        for t, (pair, m) in enumerate(zip(gens, monomials), start=1)
    ]
    payload = {
        "generators": generators,
        "equations": [
            {"left": rel.left, "right": rel.right, "text": eq}
            for rel, eq in zip(eqs, equations)
        ],
        "checks": {
            "substitution": ok,
            "relation_count": len(eqs) == (len(gens) - 1) * (len(gens) - 2) // 2,
        },
    }

    def text():
        return ["generators: " + ", ".join(monomials), "equations:"] + [
            f"  {eq}" for eq in equations
        ]

    return Report(payload, text)


def run_toric(s: Singularity) -> Report:
    fan = toric.resolution_fan(s)
    basis = toric.hilbert_basis_dual(s)
    selfint = toric.self_intersections(fan)
    payload = {
        "fan": fan.serialize(),
        "hilbert_basis": basis,
        "self_intersections": selfint,
        "checks": {
            "round_trip": selfint == cfrac.fraction(s),
            "hilbert_matches_generators": basis == invariant_ring.generators(s),
        },
    }
    return Report(payload, lambda: [
        f"fan rays (x{s.n}): " + ", ".join(map(str, fan.rays)),
        f"hilbert basis: " + ", ".join(str(p) for p in basis),
        f"self intersections: {list(selfint)}",
    ])


def run_mckay(s: Singularity) -> Report:
    quiver = mckay.mckay_quiver(s)
    special = sorted(mckay.special_reps(s))
    basis = mckay.g_basis(s)
    payload = {
        "special": special,
        "g_basis": basis,
        "quiver": {"vertices": quiver.vertices, "arrows": quiver.arrows},
        "checks": {"special_count_is_r": len(special) == cfrac.curve_count(s)},
    }
    return Report(payload, lambda: [
        f"special classes: {special}",
        f"basis size: {len(basis)}",
        f"quiver: {len(quiver.vertices)} vertices, {len(quiver.arrows)} arrows",
    ], lambda: _dot_text("mckay", quiver.vertices, quiver.arrows))


def run_hilb(s: Singularity) -> Report:
    clusters = mckay.g_clusters(s)
    curves = mckay.curve_rep_assignment(s, clusters)
    entries = []
    for c in clusters:
        ideal = c.ideal  # properties: read once per cluster
        monomials = ", ".join(invariant_ring.monomial_text(a, b) for a, b in ideal)
        entries.append(
            {"heights": c.height_runs, "ideal": ideal, "ideal_text": f"<{monomials}>"}
        )
    payload = {
        "clusters": entries,
        "curves": [{"curve": k, "class": w} for k, w in curves],
        "checks": {"regular_representation": mckay.cluster_weight_check(s, clusters)},
    }

    def text():
        lines = [f"clusters ({len(clusters)}):"]
        lines += [
            f"  {e['ideal_text']}  heights={list(c.heights)}" for c, e in zip(clusters, entries)
        ]
        lines.append("curves: " + ", ".join(f"E{k} -> class {w}" for k, w in curves))
        return lines

    return Report(payload, text)


def run_gfan(s: Singularity) -> Report:
    fan, cones = gfan.groebner_fan(s)
    matches = gfan.fans_equal(fan, toric.resolution_fan(s))
    monomial = invariant_ring.monomial_text
    bases = [[f"{monomial(*m)} - {monomial(*t)}" for m, t in c.basis] for c in cones]
    payload = {
        "fan": fan.serialize(),
        "cones": [
            {
                "weight": c.weight,
                "inequalities": c.inequalities,
                "rays": (c.lower_ray, c.upper_ray),
                "basis": basis,
            }
            for c, basis in zip(cones, bases)
        ],
        "checks": {"matches_toric": matches},
    }

    def text():
        lines = [f"rays (x{s.n}): " + ", ".join(map(str, fan.rays))]
        for c, basis in zip(cones, bases):
            lines.append(f"cone at weight {c.weight}: rays {c.lower_ray}..{c.upper_ray}")
            lines += [f"  {g}" for g in basis]
        return lines

    return Report(payload, text)


def run_deform(s: Singularity) -> Report:
    e = deform.check_ceilings(s)
    dim = deform.dim_t1(s)
    if e == 3:
        parameters = [f"c{k}" for k in range(s.n - 1)]
        equation = deform.hypersurface_text(s.n)
        payload = {
            "deformation": {
                "dim_t1": dim,
                "kind": "hypersurface",
                "parameters": parameters,
                "equation": equation,
            },
            "checks": {"parameter_count": len(parameters) == dim},
        }
        return Report(payload, lambda: [f"dim T1 = {dim}", f"family: {equation} = 0"])
    pres = deform.versal_presentation(s)
    params = pres.variables.parameter_names
    relations = [poly_text(rel) for rel in pres.relations]
    base_ideal = [poly_text(g) for g in pres.base_ideal]
    payload = {
        "deformation": {
            "dim_t1": dim,
            "kind": "binomial",
            "parameters": params,
            "pairs": pres.pairs,
            "relations": relations,
            "base_ideal": base_ideal,
        },
        "checks": {
            "parameter_count": len(params) == dim,
            "specialization": deform.specializes(
                pres, invariant_ring.defining_equations(s)
            ),
        },
    }

    def text():
        lines = [f"dim T1 = {dim}", "relations:"] + [f"  {rel} = 0" for rel in relations]
        return lines + ["base ideal:"] + [f"  {g}" for g in base_ideal]

    return Report(payload, text)


def run_artin(s: Singularity) -> Report:
    pres = reconstruct.quasidet_presentation(s)
    relations = [poly_text(rel) for rel in pres.relations]
    payload = {
        "reconstruction": {
            "dual_fraction": pres.dual_fraction,
            "quasidet_matrix": pres.matrix,
            "quasidet_relations": relations,
        },
        "checks": {},
    }

    def text():
        lines = ["matrix:"] + ["  [" + ", ".join(row) + "]" for row in pres.matrix]
        return lines + ["relations:"] + [f"  {rel} = 0" for rel in relations]

    return Report(payload, text)


def run_reconstruct(s: Singularity) -> Report:
    quiver = reconstruct.reconstruction_quiver(s)
    data = {
        "fraction": quiver.fraction,
        "vertices": quiver.vertices,
        "arrows": [[a.kind, a.tail, a.head, a.slot] for a in quiver.arrows],
    }
    payload = {"reconstruction": data, "checks": {}}

    def text():
        lines = [f"quiver: {len(quiver.vertices)} vertices, {len(quiver.arrows)} arrows"]
        if quiver.relations is None:
            return lines + [f"relations unavailable: {quiver.unsupported_reason}"]
        lines += ["relations:"] + [f"  {e['text']} = 0" for e in data["relations"]]
        lines += ["deformed:"] + [f"  {e['text']}" for e in data["deformed_relations"]]
        lines.append(
            "base: A^%d with one zero-sum constraint per group %s"
            % (data["base_dimension"], [len(g) for g in data["parameter_groups"]])
        )
        return lines

    def dot():
        edges = [(a.tail, a.head, a.label) for a in quiver.arrows]
        return _dot_text("reconstruction", quiver.vertices, edges)

    if quiver.relations is None:
        data["relations"] = None
        data["unsupported_reason"] = quiver.unsupported_reason
        return Report(payload, text, dot, "relations unavailable for this shape")
    deformed = reconstruct.deformed_relations(s)
    if tuple(len(g) for g in deformed.groups) != cfrac.dual_expand(s):
        raise UnsupportedError("parameter grouping does not match the dual expansion")

    def entry(rel):
        # each relation is a difference of two paths, deformed ones = parameter;
        # each path is labelled once, for its "sum" and its "text"
        positive = [a.label for a in rel.positive]
        negative = [a.label for a in rel.negative]
        out = {"vertex": rel.vertex, "sum": [[1, positive], [-1, negative]]}
        if rel.parameter is not None:
            out["parameter"] = rel.parameter
        out["text"] = reconstruct._relation_text(positive, negative, rel.parameter)
        return out

    data["relations"] = [entry(rel) for rel in quiver.relations]
    data["deformed_relations"] = [entry(rel) for rel in deformed.relations]
    data["parameter_groups"] = deformed.groups
    data["base_dimension"] = deformed.base_dimension
    return Report(payload, text, dot)


def verify_checks(s: Singularity) -> dict[str, bool]:
    """Cross-oracle consistency suite for one input pair."""
    checks = {}
    # the deform ceilings first, before either chain is expanded
    e = deform.check_ceilings(s)
    ids = cfrac.identities(s)
    b = ids.fraction
    checks["fraction_round_trip"] = cfrac.hj_evaluate(b) == Fraction(s.n, s.q)
    # on an involutive pair (q^-1 = q) this says that the chain is a palindrome
    checks["fraction_duality"] = cfrac.hj_expand(s.n, pow(s.q, -1, s.n)) == b[::-1]
    # then the family's variables: its parameter ceiling refuses before
    # anything of size e^2, the binomial relations included, is built; the
    # family itself never is, s = t = 0 is checked on its factor images
    variables = deform.deformation_variables(s) if e >= 4 else None
    relations = invariant_ring.defining_equations(s)
    if variables is None:  # e = 3: the hypersurface family's parameters are c_0..c_{n-2}
        parameter_count = s.n - 1
    else:
        parameter_count = len(variables.parameter_names)
        checks["deform_specialization"] = deform.images_specialize(variables, relations)
    checks["deform_parameter_count"] = parameter_count == deform.dim_t1(s)
    gens = invariant_ring.generators(s)
    checks["generator_count_is_e"] = len(gens) == ids.e
    checks["presentation"] = invariant_ring.verify_presentation(s, relations)
    fan = toric.resolution_fan(s)
    checks["fan_round_trip"] = toric.self_intersections(fan) == b
    checks["hilbert_basis"] = toric.hilbert_basis_dual(s) == gens
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
    # a walk of i x-steps (+1) and j y-steps (+q) from residue 0 has i + j
    # arrows and ends at i + q*j (mod n): it closes iff x^i y^j is invariant
    checks["cycle_lengths"] = all((i + s.q * j) % s.n == 0 for i, j in gens)
    quiver = reconstruct.reconstruction_quiver(s) if len(b) >= 2 else None
    if quiver is not None and quiver.relations is not None:
        deformed = reconstruct.deformed_relations(s)
        checks["reconstruction_groups"] = tuple(len(g) for g in deformed.groups) == ids.dual
        checks["reconstruction_base"] = deformed.base_dimension == ids.sum_a
    return checks


def run_verify(s: Singularity) -> Report:
    checks = verify_checks(s)
    return Report(
        {"checks": checks},
        lambda: [f"{name}: {'ok' if ok else 'FAIL'}" for name, ok in sorted(checks.items())],
    )


def run_batch(max_n: int) -> Report:
    if max_n < 0:
        raise InputError("batch --max-n must be at least 0")
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
    if violations:
        raise ConsistencyError(json.dumps(payload, sort_keys=True))
    return Report(
        payload,
        lambda: [f"checked {pairs} pairs up to n = {max_n}", f"violations: {len(violations)}"],
    )


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


_CHOICES = ", ".join([*COMMANDS, "batch"])
USAGE = f"""\
usage: cqsing <command> N Q [--format json|text|dot] [--output FILE]
       cqsing batch [--max-n N] [--format json|text] [--output FILE]

exact data for two-dimensional cyclic quotient surface singularities

commands: {_CHOICES}
Write an option as --opt VALUE or --opt=VALUE, anywhere after the command;
the last one given wins.  --format defaults to text and --max-n to 20.
Without --output the report goes to stdout.
"""
_FORMATS = ("json", "text", "dot")


def _parse(argv: list[str]):
    """The request that argv makes, as (command, numbers, format, output):
    numbers is (n, q) for a pair command and (max_n,) for batch, and output
    is None without --output.

    The grammar is the one in USAGE; anything outside it raises InputError:
    an unknown command or option (an abbreviation included), a missing or
    extra argument, an option without a value, a --format outside its
    choices.  N, Q and --max-n are read by int().
    """
    if not argv:
        raise InputError(f"no command given; choose from {_CHOICES}")
    command = argv[0]
    if command in COMMANDS:
        formats, options = _FORMATS, {"--format": "text", "--output": None}
    elif command == "batch":
        formats, options = _FORMATS[:2], {"--max-n": "20", "--format": "text", "--output": None}
    else:
        raise InputError(f"unknown command {command!r}; choose from {_CHOICES}")
    positionals = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("--"):
            positionals.append(token)
            continue
        name, eq, value = token.partition("=")
        if name not in options:
            raise InputError(f"{command} has no option {name}")
        if not eq:
            value = next(tokens, None)
            if value is None:
                raise InputError(f"option {name} needs a value")
        options[name] = value
    fmt = options["--format"]
    if fmt not in formats:
        raise InputError(f"--format must be one of {', '.join(formats)}, not {fmt!r}")
    if command == "batch":
        if positionals:
            raise InputError(f"batch takes no N Q, got {' '.join(positionals)}")
        return command, (_int("--max-n", options["--max-n"]),), fmt, options["--output"]
    if len(positionals) != 2:
        raise InputError(f"{command} takes N Q, got {' '.join(positionals) or 'none'}")
    n, q = positionals
    return command, (_int("N", n), _int("Q", q)), fmt, options["--output"]


def _int(name: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:  # a long text is cut short in the message
        shown = text if len(text) <= 20 else text[:17] + "..."
        raise InputError(f"{name} must be an integer, not {shown!r}") from None


# JSON text of the scalars, by exact type (bool is not taken for int)
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: lambda v: "true" if v else "false",
    type(None): lambda _: "null",
}
_ARRAYS = frozenset((list, tuple))


def _json_text(value) -> str:
    """The text of json.dumps(value, sort_keys=True, indent=2).

    json.dumps with an indent runs the encoder's pure-Python generator,
    value by value; ``_texts`` renders one nesting level at a time instead.
    Only values of the exact types str, int, bool, None, list, tuple and
    dict (with str keys) are accepted, and a tuple renders as an array; a
    subclass of any of them, such as a record (``GCluster``) or an IntEnum,
    raises TypeError.  Two more types render from their closed forms, as
    the arrays they stand for (``_CLOSED_FORMS``): ``mckay.Staircase``, the
    array of its boxes, and ``mckay.Runs``, the array of its values.
    """
    return _text(value, "\n")


def _text(value, indent: str) -> str:
    """The JSON text of one value at the nesting level whose line prefix is
    ``indent``: a scalar at once, an array or a dict as a column of one."""
    render = _SCALAR_TEXT.get(type(value))
    if render is not None:
        return render(value)
    closed = _CLOSED_FORMS.get(type(value))
    if closed is not None:
        return closed(value, indent)
    if type(value) is dict:
        return _record_texts([value], indent)[0]
    if type(value) in _ARRAYS:
        return _array_texts([value], indent)[0]
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _texts(values, indent: str) -> list[str]:
    """The JSON text of each of ``values``, a column of sibling values at
    the nesting level whose line prefix is ``indent``.

    A column of one scalar type is one map of its renderer, a column of
    one closed form renders each value from it, a column of arrays goes to
    ``_array_texts`` and a column of dicts with one key set to
    ``_record_texts``.  Any other column, one that mixes kinds or holds a
    subclass of a rendered type, goes value by value to ``_text``, which
    raises TypeError for what it does not render.
    """
    kinds = set(map(type, values))
    if len(kinds) == 1:
        (kind,) = kinds
        if kind in _SCALAR_TEXT:
            return list(map(_SCALAR_TEXT[kind], values))
        if kind in _CLOSED_FORMS:
            render = _CLOSED_FORMS[kind]
            return [render(v, indent) for v in values]
        if kind is dict and len(set(map(frozenset, values))) == 1:
            return _record_texts(values, indent)
    if kinds and kinds <= _ARRAYS:
        return _array_texts(values, indent)
    return [_text(v, indent) for v in values]


def _array_texts(arrays, indent: str) -> list[str]:
    """``_texts`` of a column of lists and tuples."""
    parts, cells = _array_parts(arrays, indent)
    if cells is None:
        return parts
    # One fill for the whole column, split apart at NULs, which no JSON text
    # holds.  Each step drops the strings of the last, so that no more than
    # two copies of the column's text are alive at once.
    text = "\0".join(parts)
    del parts
    text %= cells
    return text.split("\0")


def _array_parts(arrays, indent: str):
    """The texts of a column of arrays, as (texts, None), or as (templates,
    cells) whose fill makes them.

    The children of all the arrays form one column, rendered once and
    regrouped per array; nested arrays regroup their children's templates,
    so a tree of arrays is filled once, at its root.  Equal-length arrays
    of leaves share one row template, rendered one position at a time: a
    position whose values are all ints fills %d cells itself (no string is
    made per int), and any other position fills %s cells from one
    ``_texts`` call on its values.  Arrays of varying lengths are rendered
    one by one instead, as one template per length would be as long, in
    all, as their text.
    """
    inner = indent + "  "
    cells = tuple(chain.from_iterable(arrays))
    kinds = set(map(type, cells))
    if kinds and kinds <= _ARRAYS:
        children, cells = _array_parts(cells, inner)
        if len(arrays) == 1:
            return [_bracket(children, inner, indent)], cells
        children = iter(children)
        return [_bracket(list(islice(children, len(a))), inner, indent) for a in arrays], cells
    if kinds != {int} and len(arrays) == 1:  # a join is all one array needs
        return [_bracket(_texts(cells, inner), inner, indent)], None
    lengths = set(map(len, arrays))
    if len(lengths) > 1:
        texts = iter(_texts(cells, inner))
        return [_bracket(list(islice(texts, len(a))), inner, indent) for a in arrays], None
    width = lengths.pop()
    row = ["%d"] * width
    if kinds != {int}:
        columns = [cells[k::width] for k in range(width)]
        for k, column in enumerate(columns):
            if set(map(type, column)) != {int}:
                row[k] = "%s"
                columns[k] = _texts(column, inner)
        cells = tuple(chain.from_iterable(zip(*columns)))
    return [_bracket(row, inner, indent)] * len(arrays), cells


def _bracket(items: list[str], inner: str, indent: str) -> str:
    """The array of the texts (or templates) in ``items``, a list that it
    reuses: the brackets go on its end items, so that a long array is
    copied only by the join."""
    if not items:
        return "[]"
    items[0] = "[" + inner + items[0]
    items[-1] += indent + "]"
    return ("," + inner).join(items)


def _runs_text(runs: mckay.Runs, indent: str) -> str:
    """The array of a ``Runs``' values: each run is one list of its value's
    text, repeated, and the lists are joined once."""
    items = []
    for value, count in runs.pairs:
        items += [int.__repr__(value)] * count
    return _bracket(items, indent + "  ", indent)


def _staircase_text(staircase: mckay.Staircase, indent: str) -> str:
    """The array of a ``Staircase``' boxes [a, b], with no string per box:
    column a is its head ``[a,`` joined to the first h_a of one shared list
    of row tails ``b]``, and the columns are joined once."""
    inner = indent + "  "
    cell = inner + "  "
    sep = "," + inner
    heights = staircase.heights
    tails = [f"{b}{inner}]" for b in range(max(heights, default=0))]
    columns = []
    for a, h in enumerate(heights):
        if h:
            head = f"[{cell}{a},{cell}"
            columns.append(head + (sep + head).join(tails[:h]))
    return _bracket(columns, inner, indent)


# The text of the types that stand for an array, by exact type, from their
# closed forms; any other record, GCluster included, raises TypeError
_CLOSED_FORMS = {mckay.Runs: _runs_text, mckay.Staircase: _staircase_text}


def _record_texts(records, indent: str) -> list[str]:
    """``_texts`` of a column of dicts that share one key set: one column
    per key, zipped through one record template."""
    inner = indent + "  "
    # a key that is not a str makes encode_basestring_ascii raise TypeError
    keys = sorted(records[0])
    if not keys:
        return ["{}"] * len(records)
    fields = [encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in keys]
    template = "{" + inner + ("," + inner).join(fields) + indent + "}"
    if len(records) == 1:  # one record: its values, one by one
        (record,) = records
        return [template % tuple([_text(record[k], inner) for k in keys])]
    columns = [_texts([r[k] for r in records], inner) for k in keys]
    return list(map(template.__mod__, zip(*columns)))


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if "-h" in argv or "--help" in argv:
        return 0 if _write(USAGE, None) else 2
    try:
        command, numbers, fmt, output = _parse(argv)
        if output is not None:
            _check_directory(output)
        if command == "batch":
            report = run_batch(*numbers)
        else:
            s = Singularity(*numbers)
            report = COMMANDS[command](s)
            checks = report.payload["checks"]
            if not all(checks.values()):
                raise ConsistencyError(
                    "verification failed: " + json.dumps(checks, sort_keys=True)
                )
            report.payload["input"] = {"n": s.n, "q": s.q}
        if fmt == "json":
            out = _json_text(report.payload) + "\n"
        elif fmt == "text":
            out = "\n".join(report.text()) + "\n"
        elif report.dot is None:
            raise InputError("dot format is only available for quiver commands")
        else:
            out = report.dot()
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES[type(exc)]
    if not _write(out, output):
        return 2
    if report.unsupported is not None:
        print(f"error: {report.unsupported}", file=sys.stderr)
        return 4
    return 0


def _check_directory(path: str) -> None:
    """Refuse, before any report is built, an output path whose directory
    does not exist, with the error line ``_write`` would give; every other
    way the path can fail to open is still found by ``_write``."""
    directory = os.path.dirname(path)
    if directory:
        try:
            os.stat(directory)
        except FileNotFoundError as exc:
            raise InputError(f"cannot write {path}: {exc.strerror}") from None
        except OSError:  # a name too long, say: _write reports it as before
            pass


def _write(out: str, path: str | None) -> bool:
    """Write the report to path, or stdout without one (None); False (with
    an error line on stderr) if it cannot be written, as the empty path, a
    full device or a closed pipe cannot."""
    try:
        if path is None:
            sys.stdout.write(out)
            sys.stdout.flush()
        else:
            with open(path, "w") as handle:
                handle.write(out)
    except OSError as exc:
        name = "stdout" if path is None else path
        print(f"error: cannot write {name}: {exc.strerror}", file=sys.stderr)
        if path is None:
            # What the failed flush left in stdout's buffer is flushed again
            # at exit, and that failure would turn exit 2 into 120: send it
            # to the null device instead (the signal module's note on SIGPIPE).
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return False
    return True


if __name__ == "__main__":
    sys.exit(main())
