"""Free-operad terms over decorated generators and finite presentation checks.

A term is a planar tree whose internal nodes carry generator symbols and
whose leaves are input slots; its arity is the leaf count.  Relations are
pairs of terms of equal arity whose leaves pair up left to right.  Every
symbol has arity at least 2, so a term's proper subterms all have smaller
arity than the term.

The congruence the relations generate is counted arity by arity over nodes,
not terms (congruence closure over shared subterms, as in Downey, Sethi and
Tarjan, J. ACM 1980).  A node of arity n is a symbol applied to the class
ids of its children, which all have smaller arity; the leaf is class 0.  Two
nodes are joined when one relation, in either direction, rewrites one into
the other at the root.  Since a rewrite below the root only moves a child
within its class, the classes of arity n are the connected components of
these root edges.  One pass up to an arity bound gives the class count of
every arity below it, to compare with the dimensions of the operad the
generators realize; it builds at most `MAX_NODES` nodes.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping

from .families import FAMILIES
from .words import PositionError, Word, substitute

__all__ = [
    "Term",
    "LEAF",
    "node",
    "GeneratorSymbol",
    "Relation",
    "RelationCheck",
    "SizeError",
    "term_arity",
    "term_to_text",
    "graft_term",
    "parse_term",
    "parse_relations",
    "eval_term",
    "enumerate_terms",
    "congruence_class_count",
    "congruence_class_counts",
    "PresentationPreset",
    "PRESENTATIONS",
]


class SizeError(ValueError):
    """A congruence count would build more nodes than its guard allows."""


@dataclass(frozen=True)
class Term:
    """A free term: a leaf (empty symbol) or a symbol applied to subterms."""

    sym: str
    args: tuple["Term", ...] = ()

    @property
    def is_leaf(self) -> bool:
        return self.sym == ""

    def __str__(self) -> str:
        return term_to_text(self)


LEAF = Term("")


def node(sym: str, *args: Term) -> Term:
    return Term(sym, tuple(args))


def term_arity(t: Term) -> int:
    if t.is_leaf:
        return 1
    return sum(term_arity(a) for a in t.args)


def graft_term(t: Term, i: int, s: Term) -> Term:
    """Substitute s for the i-th leaf of t, counting leaves left to right."""
    total = term_arity(t)
    if not 1 <= i <= total:
        raise PositionError(f"position {i} not in 1..{total}")
    seen = 0

    def go(node: Term) -> Term:
        nonlocal seen
        if node.is_leaf:
            seen += 1
            return s if seen == i else node
        args = tuple(go(a) if seen < i else a for a in node.args)
        return Term(node.sym, args)

    return go(t)


def term_to_text(t: Term) -> str:
    if t.is_leaf:
        return "."
    return f"{t.sym}({','.join(term_to_text(a) for a in t.args)})"


def parse_term(text: str) -> Term:
    term, rest = _parse_term(text.replace(" ", ""))
    if rest:
        raise ValueError(f"trailing characters {rest!r}")
    return term


def _parse_term(text: str) -> tuple[Term, str]:
    if text.startswith("."):
        return LEAF, text[1:]
    head = ""
    while text and text[0] not in ".,()":
        head, text = head + text[0], text[1:]
    if not head or not text.startswith("("):
        raise ValueError(f"expected a symbol application at {text!r}")
    args = []
    rest = text[1:]
    while True:
        arg, rest = _parse_term(rest)
        args.append(arg)
        if rest.startswith(","):
            rest = rest[1:]
            continue
        if rest.startswith(")"):
            return Term(head, tuple(args)), rest[1:]
        raise ValueError(f"expected ',' or ')' at {rest!r}")


@dataclass(frozen=True)
class GeneratorSymbol:
    """A named generator together with its realization in the target operad."""

    name: str
    image: Word

    @property
    def arity(self) -> int:
        return len(self.image)


@dataclass(frozen=True)
class Relation:
    left: Term
    right: Term

    def __post_init__(self) -> None:
        if term_arity(self.left) != term_arity(self.right):
            raise ValueError(
                f"relation sides have arities {term_arity(self.left)} "
                f"and {term_arity(self.right)}"
            )

    def __str__(self) -> str:
        return f"{term_to_text(self.left)} == {term_to_text(self.right)}"


def parse_relations(text: str) -> tuple[Relation, ...]:
    """One relation per line, `left == right`; blank lines and # comments skip."""
    out = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        lhs, sep, rhs = line.partition("==")
        if not sep:
            raise ValueError(f"missing '==' in {line!r}")
        out.append(Relation(parse_term(lhs), parse_term(rhs)))
    return tuple(out)


# ---------------------------------------------------------------------------
# evaluation and enumeration


def eval_term(t: Term, symbols: Mapping[str, GeneratorSymbol]) -> Word:
    """Interpret a term in the operad the symbols realize.

    Children are substituted into the symbol's image right to left so that
    earlier positions stay valid.
    """
    monoids = {s.image.monoid for s in symbols.values()}
    if len(monoids) != 1:
        raise ValueError("symbols must realize generators over a single monoid")
    m = monoids.pop()

    def go(t: Term) -> Word:
        if t.is_leaf:
            return Word(m, (m.unit,))
        sym = symbols[t.sym]
        if len(t.args) != sym.arity:
            raise ValueError(
                f"{t.sym} has arity {sym.arity}, got {len(t.args)} children"
            )
        acc = sym.image
        for j in range(len(t.args), 0, -1):
            acc = substitute(acc, j, go(t.args[j - 1]))
        return acc

    return go(t)


def _require_branching(symbols: Mapping[str, GeneratorSymbol]) -> None:
    # with a symbol of arity below 2 a term can contain subterms of its own
    # arity, so no enumeration or count by arity would terminate
    for name, sym in symbols.items():
        if sym.arity < 2:
            raise ValueError(f"symbol {name} has arity {sym.arity}; terms need arity >= 2")


def _compositions_product(counts: list[int], n: int, k: int) -> int:
    # sum over compositions of n into k positive parts of the product of counts
    if k == 1:
        return counts[n] if n < len(counts) else 0
    total = 0
    for first in range(1, n - k + 2):
        total += counts[first] * _compositions_product(counts, n - first, k - 1)
    return total


def enumerate_terms(
    symbols: Mapping[str, GeneratorSymbol], arity: int
) -> list[Term]:
    """All planar terms of the arity over the symbols, in a stable order; none
    below arity 1."""
    _require_branching(symbols)
    if arity < 1:
        return []
    by_arity: list[list[Term]] = [[] for _ in range(arity + 1)]
    by_arity[1] = [LEAF]
    ordered = sorted(symbols.values(), key=lambda s: s.name)
    for n in range(2, arity + 1):
        bucket = by_arity[n]
        for sym in ordered:
            for parts in _compositions(n, sym.arity):
                for args in itertools.product(*(by_arity[p] for p in parts)):
                    bucket.append(Term(sym.name, args))
    return by_arity[arity]


def _compositions(n: int, k: int) -> Iterator[tuple[int, ...]]:
    if k == 1:
        yield (n,)
        return
    for first in range(1, n - k + 2):
        for rest in _compositions(n - first, k - 1):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# relation verification and congruence counting


@dataclass(frozen=True)
class RelationCheck:
    relation: Relation
    left_word: Word
    right_word: Word

    @property
    def ok(self) -> bool:
        return self.left_word == self.right_word


def verify_relations(
    relations: tuple[Relation, ...], symbols: Mapping[str, GeneratorSymbol]
) -> list[RelationCheck]:
    """Evaluate both sides of every relation in the target operad."""
    return [
        RelationCheck(rel, eval_term(rel.left, symbols), eval_term(rel.right, symbols))
        for rel in relations
    ]


def subterm_paths(t: Term) -> Iterator[tuple[int, ...]]:
    yield ()
    for idx, arg in enumerate(t.args):
        for path in subterm_paths(arg):
            yield (idx,) + path


def subterm_at(t: Term, path: tuple[int, ...]) -> Term:
    for idx in path:
        t = t.args[idx]
    return t


def replace_at(t: Term, path: tuple[int, ...], repl: Term) -> Term:
    if not path:
        return repl
    idx = path[0]
    args = list(t.args)
    args[idx] = replace_at(args[idx], path[1:], repl)
    return Term(t.sym, tuple(args))


def match_slots(pattern: Term, subject: Term) -> list[Term] | None:
    """Match the node structure of `pattern` on top of `subject`; leaves of the
    pattern capture the subterms below them, left to right."""
    slots: list[Term] = []

    def go(p: Term, s: Term) -> bool:
        if p.is_leaf:
            slots.append(s)
            return True
        if s.is_leaf or s.sym != p.sym:
            return False
        return all(go(pa, sa) for pa, sa in zip(p.args, s.args))

    return slots if go(pattern, subject) else None


def instantiate(pattern: Term, slots: list[Term]) -> Term:
    filled = iter(slots)

    def go(p: Term) -> Term:
        if p.is_leaf:
            return next(filled)
        return Term(p.sym, tuple(go(a) for a in p.args))

    return go(pattern)


def rewrites(t: Term, relations: tuple[Relation, ...]) -> Iterator[Term]:
    """Every term reachable from t by one relation applied at one subterm,
    in either direction."""
    for path in subterm_paths(t):
        sub = subterm_at(t, path)
        for rel in relations:
            for pat, out in ((rel.left, rel.right), (rel.right, rel.left)):
                slots = match_slots(pat, sub)
                if slots is not None:
                    yield replace_at(t, path, instantiate(out, slots))


class _UnionFind:
    def __init__(self, size: int) -> None:
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


# the most nodes a congruence count may build over all arities
MAX_NODES = 500_000


def congruence_class_count(
    symbols: Mapping[str, GeneratorSymbol], relations: tuple[Relation, ...], arity: int
) -> int:
    """Number of classes of arity-`arity` terms under the congruence the
    relations generate; 0 below arity 1.  See `congruence_class_counts`."""
    counts = congruence_class_counts(symbols, relations, arity)
    return counts[-1] if counts else 0


def congruence_class_counts(
    symbols: Mapping[str, GeneratorSymbol],
    relations: tuple[Relation, ...],
    max_arity: int,
) -> tuple[int, ...]:
    """Number of classes of terms of each arity 1..`max_arity` under the
    congruence the relations generate, from one pass over the arities.

    Works arity by arity over nodes `(symbol, child class ids)`.  The nodes
    of arity n are every symbol applied to a composition of n whose parts
    are filled with the classes already found at smaller arities; the leaf
    is class 0.  A union-find joins two nodes when one relation, in either
    direction, applies at the root: a pattern leaf captures a child class,
    an inner pattern node matches any node of its symbol in that child's
    class, and the other side is built bottom-up from the captured classes.

    This is exact, with no orientation or confluence assumption.  A rewrite
    below the root of a term moves a child only within its class, so the
    term's node stays the same; a rewrite at the root is one of the edges;
    and every edge lifts to a root rewrite of concrete terms once children
    are chosen from their classes.  By induction on arity, the components
    are the congruence classes.

    At most `MAX_NODES` nodes are built over all arities; a `SizeError` is
    raised before an arity whose nodes would exceed it.
    """
    _require_branching(symbols)
    # left to right is enough: a right-to-left match at a node T builds a
    # node N whose inner nodes are members of their classes, so the left
    # side matches at N through them and rebuilds T; that edge is found at N
    rules: dict[str, list[tuple[Term, Term]]] = {}
    for rel in relations:
        _check_relation_term(rel.left, symbols)
        _check_relation_term(rel.right, symbols)
        if not rel.left.is_leaf:
            rules.setdefault(rel.left.sym, []).append((rel.left, rel.right))
    arities = {name: symbols[name].arity for name in sorted(symbols)}
    classes: list[list[int]] = [[], [0]]  # class ids by arity
    class_of: dict[tuple, int] = {}  # node -> class id, at smaller arities
    members: dict[tuple[int, str], list[tuple]] = {}  # (class, symbol) -> nodes
    built = 0
    for n in range(2, max_arity + 1):
        sizes = [len(ids) for ids in classes]
        built += sum(_compositions_product(sizes, n, k) for k in arities.values())
        if built > MAX_NODES:
            raise SizeError(f"{built} nodes through arity {n} exceed the {MAX_NODES} guard")
        nodes = [
            (name, args)
            for name, k in arities.items()
            for parts in _compositions(n, k)
            for args in itertools.product(*(classes[p] for p in parts))
        ]
        index = {nd: i for i, nd in enumerate(nodes)}
        uf = _UnionFind(len(nodes))
        for i, (name, args) in enumerate(nodes):
            for pattern, other in rules.get(name, ()):
                for slots in _root_matches(pattern, args, members):
                    uf.union(i, index[_build(other, iter(slots), class_of)])
        first = sum(len(ids) for ids in classes)
        roots: dict[int, int] = {}
        for i, nd in enumerate(nodes):
            cid = roots.setdefault(uf.find(i), first + len(roots))
            class_of[nd] = cid
            members.setdefault((cid, nd[0]), []).append(nd)
        classes.append(list(roots.values()))
    return tuple(len(classes[n]) for n in range(1, max_arity + 1))


def _check_relation_term(t: Term, symbols: Mapping[str, GeneratorSymbol]) -> None:
    if t.is_leaf:
        return
    if t.sym not in symbols:
        raise ValueError(f"relation uses unknown symbol {t.sym!r}")
    if len(t.args) != symbols[t.sym].arity:
        raise ValueError(
            f"{t.sym} has arity {symbols[t.sym].arity}, got {len(t.args)} children"
        )
    for arg in t.args:
        _check_relation_term(arg, symbols)


def _root_matches(
    pattern: Term, args: tuple[int, ...], members: Mapping[tuple[int, str], list[tuple]]
) -> list[tuple[int, ...]]:
    """The class tuples the leaves of `pattern` capture, left to right, when
    its root sits on a node of its symbol with child classes `args`."""
    found: list[tuple[int, ...]] = [()]
    for sub, cid in zip(pattern.args, args):
        if sub.is_leaf:
            options = [(cid,)]
        else:
            options = [
                slots
                for _, below in members.get((cid, sub.sym), ())
                for slots in _root_matches(sub, below, members)
            ]
        found = [head + tail for head in found for tail in options]
    return found


def _build(pattern: Term, slots: Iterator[int], class_of: Mapping[tuple, int]) -> tuple:
    """The node of `pattern` with its leaves filled by `slots`; inner nodes
    are replaced by their classes."""
    args = tuple(
        next(slots) if sub.is_leaf else class_of[_build(sub, slots, class_of)]
        for sub in pattern.args
    )
    return (pattern.sym, args)


# ---------------------------------------------------------------------------
# shipped presentations


@dataclass(frozen=True)
class PresentationPreset:
    """A generated family's relations over its generators, named in the
    family's order, and whether the class counts are asserted to match the
    operad's dimensions (as opposed to being reported only).  The generator
    words are read from `FAMILIES`; a name count that differs from the
    generator count raises `ValueError`."""

    family: str
    names: tuple[str, ...]
    relations_text: str
    asserted_complete: bool

    @cached_property
    def symbols(self) -> dict[str, GeneratorSymbol]:
        family = FAMILIES[self.family]
        pairs = zip(self.names, family.generators, strict=True)
        return {name: GeneratorSymbol(name, Word(family.monoid, g)) for name, g in pairs}

    @cached_property
    def relations(self) -> tuple[Relation, ...]:
        return parse_relations(self.relations_text)


PRESENTATIONS: dict[str, PresentationPreset] = {
    preset.family: preset
    for preset in (
        PresentationPreset("prt", ("a",), "", asserted_complete=True),
        PresentationPreset(
            "fcat1",
            ("a", "b"),
            """
            a(a(.,.),.) == a(.,a(.,.))
            b(a(.,.),.) == a(.,b(.,.))
            b(b(.,.),.) == b(.,a(.,.))
            """,
            asserted_complete=True,
        ),
        PresentationPreset(
            "comp",
            ("a", "b"),
            """
            a(a(.,.),.) == a(.,a(.,.))
            b(a(.,.),.) == a(.,b(.,.))
            b(b(.,.),.) == b(.,a(.,.))
            a(b(.,.),.) == b(.,b(.,.))
            """,
            asserted_complete=True,
        ),
        PresentationPreset(
            "schr",
            ("a", "b", "c"),
            """
            a(a(.,.),.) == a(.,a(.,.))
            b(c(.,.),.) == c(.,b(.,.))
            a(b(.,.),.) == a(.,c(.,.))
            b(a(.,.),.) == a(.,b(.,.))
            a(c(.,.),.) == c(.,a(.,.))
            b(b(.,.),.) == b(.,a(.,.))
            c(a(.,.),.) == c(.,c(.,.))
            """,
            asserted_complete=False,
        ),
        PresentationPreset(
            "motz",
            ("a", "b"),
            """
            a(a(.,.),.) == a(.,a(.,.))
            b(a(.,.),.,.) == a(.,b(.,.,.))
            a(b(.,.,.),.) == b(.,.,a(.,.))
            b(b(.,.,.),.,.) == b(.,.,b(.,.,.))
            """,
            asserted_complete=False,
        ),
        PresentationPreset(
            "dias",
            ("l", "r"),
            """
            l(l(.,.),.) == l(.,l(.,.))
            l(.,l(.,.)) == l(.,r(.,.))
            r(.,r(.,.)) == r(r(.,.),.)
            r(r(.,.),.) == r(l(.,.),.)
            l(r(.,.),.) == r(.,l(.,.))
            """,
            asserted_complete=True,
        ),
    )
}
