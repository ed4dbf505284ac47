"""The outside checker (``report_check.py``) over every report of every
coprime pair with n <= 30 (reconstruct from r = 2 on), and mutations of the
printed bytes that it must reject."""

import json
import random
import re
import time

from conftest import coprime_pairs
from report_check import CHECKS, check, label, monomial, report, row

PAIRS = coprime_pairs(30)


def mutated(text: bytes, change) -> bytes:
    """``text`` with ``change`` applied to its payload, rendered as the CLI
    renders a report."""
    payload = json.loads(text)
    change(payload)
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()


# reconstruct prints no report at r = 1, that is at q = 1
RECONSTRUCTED = [(n, q) for n, q in PAIRS if q > 1]
# deform is swept on its own, under its own bound: its families grow as e^3
SWEPT = [command for command in CHECKS if command != "deform"]


def test_every_report_with_n_up_to_30_holds():
    assert len(PAIRS) == 277
    assert len(RECONSTRUCTED) == 248
    start = time.perf_counter()
    texts = {
        (command, n, q): report(command, n, q)
        for command in SWEPT
        for n, q in (RECONSTRUCTED if command == "reconstruct" else PAIRS)
    }
    failed = {key: claims for key, text in texts.items() if (claims := check(key[0], text))}
    elapsed = time.perf_counter() - start
    assert failed == {}
    assert elapsed < 1.0, f"{len(texts)} reports took {elapsed:.2f}s"
    # report() has checked the exit: 4 exactly where the relations are null
    partial = [k for k, text in texts.items() if k[0] == "reconstruct" and not has_relations(text)]
    assert len(partial) == 169


def has_relations(text: bytes) -> bool:
    return json.loads(text)["reconstruction"]["relations"] is not None


def with_relations() -> list[bytes]:
    """The reconstruct reports with n <= 30 that give relations."""
    texts = [report("reconstruct", n, q) for n, q in RECONSTRUCTED]
    return [text for text in texts if has_relations(text)]


def test_a_path_label_swapped_for_another_arrows_fails():
    # the text is rewritten with the path, so only the arrows can tell
    rng = random.Random(5)

    def swap_one(payload):
        data = payload["reconstruction"]
        labels = [label(*a) for a in data["arrows"]]
        rel = rng.choice(data["relations"])
        path = rng.choice(rel["sum"])[1]
        k = rng.randrange(len(path))
        path[k] = rng.choice([name for name in labels if name != path[k]])
        (_, positive), (_, negative) = rel["sum"]
        rel["text"] = "*".join(positive) + " - " + "*".join(negative)

    claims = {
        "both sums of every relation are loops at its vertex",
        "the deformed relations are the plain ones, sides kept or swapped",
    }
    texts = with_relations()
    assert len(texts) == 79
    for text in texts:
        assert claims & set(check("reconstruct", mutated(text, swap_one))), text


def test_base_dimension_raised_by_one_fails():
    def raise_one(payload):
        payload["reconstruction"]["base_dimension"] += 1

    claim = "base_dimension = sum(len(g) - 1) = sum(a - 1)"
    for text in with_relations():
        assert claim in check("reconstruct", mutated(text, raise_one)), text


def test_a_relation_exponent_raised_by_one_fails():
    rng = random.Random(1)

    def raise_one(payload):
        factors = rng.choice(payload["equations"])["right"]
        rng.choice(factors)[1] += 1

    for n, q in PAIRS:
        text = mutated(report("invariants", n, q), raise_one)
        assert "each relation balances on exponents" in check("invariants", text), (n, q)


def test_a_g_basis_box_dropped_or_a_column_raised_fails():
    rng = random.Random(2)

    def drop_one(payload):
        payload["g_basis"].pop(rng.randrange(len(payload["g_basis"])))

    def raise_one(payload):
        basis = payload["g_basis"]
        a = rng.randrange(basis[-1][0] + 1)
        top = max(b for c, b in basis if c == a)
        basis.insert(basis.index([a, top]) + 1, [a, top + 1])

    claim = "g_basis is the boxes under the invariant staircase"
    for n, q in PAIRS:
        text = report("mckay", n, q)
        for change in (drop_one, raise_one):
            assert claim in check("mckay", mutated(text, change)), (n, q, change.__name__)


def test_reversed_self_intersections_fail():
    def reverse(payload):
        payload["self_intersections"].reverse()

    rejected, palindromes = set(), set()
    for n, q in PAIRS:
        text = report("toric", n, q)
        chain = json.loads(text)["self_intersections"]
        if chain == chain[::-1]:
            palindromes.add((n, q))
        if check("toric", mutated(text, reverse)):
            rejected.add((n, q))
    # a palindrome is its own reverse; every other chain is caught
    assert rejected == set(PAIRS) - palindromes
    assert len(rejected) == 198


def test_a_lead_exponent_raised_by_one_fails():
    # one more x moves a residue by 1, one more y by q: neither is 0 mod n
    rng = random.Random(3)

    def raise_one(payload):
        basis = rng.choice(payload["cones"])["basis"]
        k = rng.randrange(len(basis))
        (a, b), tail = row(basis[k])
        lead = (a + 1, b) if rng.random() < 0.5 else (a, b + 1)
        basis[k] = f"{monomial(*lead)} - {monomial(*tail)}"

    for n, q in PAIRS:
        text = mutated(report("gfan", n, q), raise_one)
        assert "each row's two terms have one residue mod n" in check("gfan", text), (n, q)


def test_adjacent_cones_with_swapped_rays_fail():
    # the upper ray of cone k + 1 lies outside cone k
    rng = random.Random(4)

    def swap(payload):
        cones = payload["cones"]
        k = rng.randrange(len(cones) - 1)
        cones[k]["rays"], cones[k + 1]["rays"] = cones[k + 1]["rays"], cones[k]["rays"]

    for n, q in PAIRS:
        text = mutated(report("gfan", n, q), swap)
        assert "each ray lies on its cone's boundary" in check("gfan", text), (n, q)


def test_every_deform_report_with_n_up_to_30_holds():
    start = time.perf_counter()
    texts = {(n, q): report("deform", n, q) for n, q in PAIRS}
    failed = {key: claims for key, text in texts.items() if (claims := check("deform", text))}
    elapsed = time.perf_counter() - start
    assert failed == {}
    assert elapsed < 1.0, f"{len(texts)} deform reports took {elapsed:.2f}s"
    # e = 3 exactly at q = n - 1
    kinds = [json.loads(text)["deformation"]["kind"] for text in texts.values()]
    assert kinds.count("hypersurface") == 29


def raise_z_exponent(text: str, rng) -> str:
    """``text`` with the exponent of one z factor raised by one, in a term
    of the z's alone: the terms with a parameter are left to the open
    flatness check."""
    pieces = re.split(r"( [-+] )", text)
    plain = [
        k for k in range(0, len(pieces), 2)
        if all(f.startswith("z") for f in pieces[k].lstrip("-").split("*"))
    ]
    k = rng.choice(plain)
    sign = "-" if pieces[k].startswith("-") else ""
    factors = pieces[k].lstrip("-").split("*")
    f = rng.randrange(len(factors))
    name, _, power = factors[f].partition("^")
    factors[f] = f"{name}^{int(power or 1) + 1}"
    pieces[k] = sign + "*".join(factors)
    return "".join(pieces)


def test_a_deform_z_exponent_raised_by_one_fails():
    rng = random.Random(6)

    def raise_one(payload):
        data = payload["deformation"]
        if data["kind"] == "hypersurface":
            data["equation"] = raise_z_exponent(data["equation"], rng)
        else:
            k = rng.randrange(len(data["relations"]))
            data["relations"][k] = raise_z_exponent(data["relations"][k], rng)

    claims = {
        "the equation at c = 0 is z1*z3 - z2^n",
        "each relation is a polynomial, z_i*z_j - p_ij at s = t = 0",
    }
    for n, q in PAIRS:
        text = mutated(report("deform", n, q), raise_one)
        assert claims & set(check("deform", text)), (n, q)


def test_a_deform_parameter_dropped_fails():
    rng = random.Random(7)

    def drop_one(payload):
        params = payload["deformation"]["parameters"]
        params.pop(rng.randrange(len(params)))

    claims = {"parameters are c0..c(n-2)", "parameters are the s_i(k), then the t_i"}
    for n, q in PAIRS:
        text = mutated(report("deform", n, q), drop_one)
        assert claims & set(check("deform", text)), (n, q)
