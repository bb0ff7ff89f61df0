"""Output oracle for the benchmark, independent of the code under test.

Reference dimension rows come from counting formulas and small dynamic
programs written here; nothing is imported from `opwords`.  A generated
family is checked against its generators by a criterion that proves it is
the truncated closure:

1. it holds the unit word and every generator and is closed under
   x o_i g for every member x and generator g that fit the arity bound;
2. every other member equals x o_i g for some strictly shorter member x.

(1) puts the closure inside the family, and (2), by induction on arity,
puts the family inside the closure, because every generator has arity >= 2.
"""
from __future__ import annotations

import json
import math
import re

Letters = tuple[int, ...]


# ---------------------------------------------------------------------------
# monoids, written out again so the oracle shares no code with the program


def monoid_op(name: str):
    """(unit, product) of the monoid named N, N<l> or B01."""
    if name == "N":
        return 0, lambda a, b: a + b
    if name == "B01":
        return 1, lambda a, b: a * b
    if name.startswith("N") and name[1:].isdigit():
        modulus = int(name[1:])
        return 0, lambda a, b: (a + b) % modulus
    raise ValueError(f"unknown monoid {name!r}")


def graft(x: Letters, i: int, g: Letters, op) -> Letters:
    """x o_i g: g replaces slot i (0-based here), each letter times x[i]."""
    xi = x[i]
    return x[:i] + tuple(op(xi, b) for b in g) + x[i + 1:]


# ---------------------------------------------------------------------------
# reference dimension rows, arity 1 .. n


def _fuss_catalan(k: int, m: int) -> int:
    return math.comb((k + 1) * m, m) // (k * m + 1)


def _walks(length: int, steps: tuple[int, ...], end_at_zero: bool) -> int:
    """Walks of `length` steps from height 0 that never go below 0."""
    heights = {0: 1}
    for _ in range(length):
        nxt: dict[int, int] = {}
        for h, c in heights.items():
            for s in steps:
                if h + s >= 0:
                    nxt[h + s] = nxt.get(h + s, 0) + c
        heights = nxt
    return heights.get(0, 0) if end_at_zero else sum(heights.values())


def _little_schroeder(n: int) -> int:
    # A001003: (m+1) a(m) = 3(2m-1) a(m-1) - (m-2) a(m-2), a(0) = a(1) = 1
    a = [1, 1]
    for m in range(2, n + 1):
        a.append((3 * (2 * m - 1) * a[m - 1] - (m - 2) * a[m - 2]) // (m + 1))
    return a[n]


def _fubini(n: int) -> int:
    a = [1]
    for m in range(1, n + 1):
        a.append(sum(math.comb(m, k) * a[m - k] for k in range(1, m + 1)))
    return a[n]


_ROWS = {
    "prt": lambda n: _fuss_catalan(1, n - 1),
    "fcat0": lambda n: 1,
    "fcat1": lambda n: _fuss_catalan(1, n),
    "fcat2": lambda n: _fuss_catalan(2, n),
    "fcat3": lambda n: _fuss_catalan(3, n),
    "motz": lambda n: _walks(n - 1, (-1, 0, 1), end_at_zero=True),
    "schr": _little_schroeder,
    # directed animals, OEIS A005773: nonnegative prefixes of Motzkin paths
    "da": lambda n: _walks(n - 1, (-1, 0, 1), end_at_zero=False),
    "pw": _fubini,
    "comp": lambda n: 2 ** (n - 1),
    "scomp": lambda n: 3 ** (n - 1),
    "dias": lambda n: n,
    "end": lambda n: n**n,
    "pf": lambda n: (n + 1) ** (n - 1),
    "per": math.factorial,
}

# monoid and generators of the presets whose exports are checked
PRESETS = {
    "prt": ("N", ((0, 1),)),
    "fcat1": ("N", ((0, 0), (0, 1))),
    "fcat2": ("N", ((0, 0), (0, 1), (0, 2))),
    "fcat3": ("N", ((0, 0), (0, 1), (0, 2), (0, 3))),
    "schr": ("N", ((0, 0), (0, 1), (1, 0))),
    "motz": ("N", ((0, 0), (0, 1, 0))),
    "comp": ("N2", ((0, 0), (0, 1))),
    "da": ("N3", ((0, 0), (0, 1))),
    "scomp": ("N3", ((0, 0), (0, 1), (0, 2))),
    "dias": ("B01", ((1, 0), (0, 1))),
}


def reference_row(name: str, max_arity: int) -> list[int]:
    count = _ROWS[name]
    return [count(n) for n in range(1, max_arity + 1)]


# ---------------------------------------------------------------------------
# closures


def reference_closure(monoid: str, gens, max_arity: int) -> set[Letters]:
    """Closure of the unit and the generators under x o_i g, truncated."""
    unit, op = monoid_op(monoid)
    family = {(unit,)} | {tuple(g) for g in gens}
    frontier = list(family)
    while frontier:
        x = frontier.pop()
        for g in gens:
            if len(x) + len(g) - 1 > max_arity:
                continue
            for i in range(len(x)):
                w = graft(x, i, g, op)
                if w not in family:
                    family.add(w)
                    frontier.append(w)
    return family


def dims_of(words, max_arity: int) -> list[int]:
    counts: dict[int, int] = {}
    for w in words:
        counts[len(w)] = counts.get(len(w), 0) + 1
    return [counts.get(n, 0) for n in range(1, max_arity + 1)]


def closure_defect(monoid: str, gens, max_arity: int, words) -> str | None:
    """None when `words` is exactly the truncated closure of `gens`, else the
    first reason it is not."""
    unit, op = monoid_op(monoid)
    gens = [tuple(g) for g in gens]
    family = set(words)
    if any(not 1 <= len(w) <= max_arity for w in family):
        return f"a word lies outside arities 1..{max_arity}"
    for required in [(unit,), *gens]:
        if required not in family:
            return f"missing {required}"
    products = set()
    for x in family:
        for g in gens:
            if len(x) + len(g) - 1 > max_arity:
                continue
            for i in range(len(x)):
                w = graft(x, i, g, op)
                if w not in family:
                    return f"not closed: {x} o_{i + 1} {g} = {w} is missing"
                products.add(w)
    for w in family:
        if w != (unit,) and w not in gens and w not in products:
            return f"{w} is not x o_i g for a shorter member x"
    return None


def read_export(path: str, monoid: str) -> tuple[list[Letters], str | None]:
    """Words of a JSONL export, and a defect if a record is malformed or
    repeated."""
    words = []
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                if record.get("monoid") != monoid:
                    return words, f"record over {record.get('monoid')}, expected {monoid}"
                words.append(tuple(record["letters"]))
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        return words, f"unreadable export: {type(exc).__name__}: {exc}"
    if len(set(words)) != len(words):
        return words, "repeated record"
    return words, None


# ---------------------------------------------------------------------------
# reports


def _axiom_counts(monoid: str, max_arity: int) -> dict[str, int]:
    """Checks the exhaustive axiom checker must make over the finite monoid."""
    size = 2 if monoid == "B01" else int(monoid[1:])
    arities = range(1, max_arity + 1)
    words = sum(size**n for n in arities)
    slots = sum(n * size**n for n in arities)
    pairs = sum(math.comb(n, 2) * size**n for n in arities)
    return {
        "series-associativity": slots * slots * words,
        "parallel-associativity": pairs * words * words,
        "unit": words + slots,
        "equivariance": sum(math.factorial(n) * size**n for n in arities)
        * sum(n * math.factorial(n) * size**n for n in arities),
    }


def report_defect(request: dict, rc: int | None, report: dict | None) -> str | None:
    """None when the command's exit code and JSON report agree with the
    reference, else the first disagreement."""
    if rc != 0:
        return f"exit code {rc}"
    if report is None or report.get("ok") is not True:
        return "report missing or not ok"
    kind, n = request["kind"], request.get("max_arity")
    name = request.get("name")
    if kind in ("gen", "dims"):
        expected = (
            dims_of(reference_closure(request["monoid"], request["generators"], n), n)
            if name is None
            else reference_row(name, n)
        )
        if report.get("dimensions") != expected:
            return f"dimensions {report.get('dimensions')} != reference {expected}"
    elif kind == "presentation":
        expected = reference_row(name, n)
        for key in ("class_counts", "dimensions"):
            if report.get(key) != expected:
                return f"{key} {report.get(key)} != reference {expected}"
    elif kind == "characterization":
        if name == "da":
            got = [
                int(m.group(1))
                for m in map(re.compile(r"nonnegative step sequences (\d+)").search,
                             report["lines"])
                if m
            ]
        else:
            got = report.get("dimensions")
        if got != reference_row(name, n):
            return f"dimensions {got} != reference {reference_row(name, n)}"
    elif kind == "bijections":
        got = [
            int(m.group(1))
            for m in map(re.compile(r"arity \d+: (\d+) words round-trip").search,
                         report["lines"])
            if m
        ]
        if got != reference_row(name, n):
            return f"round-trip counts {got} != reference {reference_row(name, n)}"
    elif kind == "axioms":
        got = {}
        for line in report["lines"]:
            m = re.search(r"(\S+): ok \((\d+) checks\)", line)
            if m:
                got[m.group(1)] = int(m.group(2))
        if got != _axiom_counts(request["monoid"], n):
            return f"axiom check counts {got} != {_axiom_counts(request['monoid'], n)}"
    elif kind == "functor":
        if len(report["lines"]) != 3:
            return "expected three functor arrows"
    else:
        raise ValueError(f"unknown request kind {kind!r}")
    return None


def export_defect(request: dict, path: str) -> str | None:
    """None when the file the request exported to `path` is exactly the
    truncated closure."""
    words, defect = read_export(path, request["monoid"])
    if defect is None:
        defect = closure_defect(
            request["monoid"], request["generators"], request["max_arity"], words
        )
    return defect
