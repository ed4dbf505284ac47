"""Outside-in span tracer for the cqsing layers.

The tracer wraps the public functions of each layer module, and the
arithmetic, ``term_multiple`` and ``substitute`` methods of ``Polynomial``,
from outside the package: every place a function is bound inside
``cqsing`` -- its own module attribute and each ``from .x import f``
re-binding, such as ``gfan.buchberger`` or ``deform.dual_expand`` -- is
patched by ``install``, and ``restore`` puts the originals back.  Spans are
kept in memory as parallel arrays and written out when the run ends.

A span records its name, start and end (``perf_counter_ns``), the index of
the span that was open when it started (its parent, -1 for none), the
request id the harness set, and for a few functions a value derived from
the return value (the basis of the count metrics).
"""

from __future__ import annotations

import ast
import functools
import sys
import types
from array import array
from time import perf_counter_ns

LAYERS = (
    "cli",
    "cfrac",
    "invariant_ring",
    "toric",
    "mckay",
    "polyring",
    "gfan",
    "deform",
    "reconstruct",
)

# Public helpers that run once per monomial or per polynomial inside the
# reduction loops (tens of thousands of calls per request).  A span each
# would cost more than the work it times, so their time stays in the
# caller's self time.
UNTRACED = {
    "polyring": {
        "exp_mul",
        "exp_div",
        "exp_divides",
        "exp_lcm",
        "weight_of",
        "leading_term",
        "monic",
    },
}

# Polynomial methods traced as spans of the polyring layer, so that the
# polynomial arithmetic of deform and invariant_ring counts as polyring time.
# __bool__ and is_constant run per term, and __eq__ runs about 850,000 times
# a pass of versal_deform in the base-ideal scan (`h not in base`); they stay
# untraced, so that scan counts as deform.versal_presentation self time.
POLYNOMIAL_METHODS = (
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__neg__",
    "__mul__",
    "__rmul__",
    "__pow__",
    "term_multiple",
    "substitute",
)


def _versal_counts(pres):
    return (sum(len(rel.terms) for rel in pres.relations), len(pres.base_ideal))


# Span name -> function of the return value; the counts are derived from
# call counts and these values only.
MEASURES = {
    "polyring.normal_form": lambda result: int(bool(result)),
    "gfan.groebner_fan": lambda result: len(result[1]),
    "mckay.g_clusters": len,
    "deform.versal_presentation": _versal_counts,
    "invariant_ring.defining_equations": len,
}


class Tracer:
    """Span recorder; ``install`` patches the package, ``restore`` undoes it."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: array = array("l")
        self.parent: array = array("l")
        self.request: array = array("l")
        self.start: array = array("q")
        self.end: array = array("q")
        self.values: dict[int, object] = {}
        self.request_id = -1
        self.installed = False
        self._stack: list[int] = []
        self._sites: list[tuple[object, str, object, object]] = []

    def wrap(self, name: str, fn):
        """Return fn wrapped so that each call records one span."""
        nid = len(self.names)
        self.names.append(name)
        measure = MEASURES.get(name)
        stack = self._stack
        name_id, parent, request = self.name_id, self.parent, self.request
        start, end, values = self.start, self.end, self.values

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            request.append(self.request_id)
            end.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()
            if measure is not None:
                values[idx] = measure(result)
            return result

        return traced

    def install(self):
        """Wrap every public function of every layer at all its binding sites.

        The sites are found on the first call; later calls re-apply the
        same wrappers, so a run can switch tracing on and off per request.
        """
        if self.installed:
            raise RuntimeError("tracer is already installed")
        if not self._sites:
            self._sites = self._find_sites()
        for owner, attr, _, wrapper in self._sites:
            setattr(owner, attr, wrapper)
        self.installed = True

    def restore(self):
        """Put back every original binding."""
        for owner, attr, original, _ in reversed(self._sites):
            setattr(owner, attr, original)
        self.installed = False

    def _find_sites(self):
        """(owner, attribute, original, wrapper) for every binding to patch."""
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if (key == "cqsing" or key.startswith("cqsing.")) and m is not None
        ]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"cqsing.{layer}"]
            skip = UNTRACED.get(layer, set())
            for attr, fn in sorted(vars(module).items()):
                if (
                    isinstance(fn, types.FunctionType)
                    and fn.__module__ == module.__name__
                    and not attr.startswith("_")
                    and attr not in skip
                ):
                    wrappers[id(fn)] = (fn, self.wrap(f"{layer}.{attr}", fn))
        sites = []
        for module in modules:
            for attr, value in vars(module).items():
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    sites.append((module, attr, value, hit[1]))
        polynomial = sys.modules["cqsing.polyring"].Polynomial
        for attr in POLYNOMIAL_METHODS:
            method = vars(polynomial)[attr]
            # __radd__ and __rmul__ are the same functions as __add__ and __mul__
            if id(method) not in wrappers:
                wrappers[id(method)] = (method, self.wrap(f"polyring.{method.__name__}", method))
            sites.append((polynomial, attr, method, wrappers[id(method)][1]))
        return sites

    def spans(self):
        """Rows (index, parent, request, name, start_ns, end_ns, value)."""
        names = self.names
        for i in range(len(self.start)):
            yield (
                i,
                self.parent[i],
                self.request[i],
                names[self.name_id[i]],
                self.start[i],
                self.end[i],
                self.values.get(i),
            )

    def write(self, path):
        """Write all spans, one tab-separated row each, under a header."""
        with open(path, "w") as handle:
            handle.write("index\tparent\trequest\tname\tstart_ns\tend_ns\tvalue\n")
            for row in self.spans():
                handle.write("\t".join("" if v is None else str(v) for v in row) + "\n")


def read_spans(path):
    """The rows of a file written by ``Tracer.write``, as ``spans`` yields them."""
    with open(path) as handle:
        next(handle)
        for line in handle:
            i, parent, request, name, start, end, value = line.rstrip("\n").split("\t")
            yield (
                int(i),
                int(parent),
                int(request),
                name,
                int(start),
                int(end),
                ast.literal_eval(value) if value else None,
            )
