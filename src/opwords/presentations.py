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
generators realize; it builds at most `MAX_NODES` nodes and `MAX_EDGES`
edges.  Each edge comes from one assignment of classes to a relation's
leaves, through one builder per side.  The schr relations reach arity 9
(103,049 classes) in 0.9–1.4 s on a 2-vCPU VM under CPython 3.11.

A process keeps its relation checks and counts in `generation._kept`, so a
later bound counts only the arities not kept, and a refusal is the one a
fresh count gives (see `congruence_class_counts`).

`eval_term` works on raw letter tuples and checks the carrier once per term.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping

from .families import FAMILIES
from .generation import _keep, _recall
from .words import Letters, PositionError, Word, splice

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
    """A congruence count would build more nodes or edges than its guards allow."""


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


def _nodes(t: Term) -> int:
    """The symbol nodes of a term: leaves are not counted."""
    return 0 if t.is_leaf else 1 + sum(map(_nodes, t.args))


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

    Children are spliced into the symbol's image right to left, so that
    earlier positions stay valid, on raw letter tuples; the carrier is checked
    once, when the result becomes a `Word`.  The images are checked words and
    the monoid's product keeps to its carrier, so no letter escapes that check.
    """
    monoids = {s.image.monoid for s in symbols.values()}
    if len(monoids) != 1:
        raise ValueError("symbols must realize generators over a single monoid")
    m = monoids.pop()

    def go(t: Term) -> Letters:
        if t.is_leaf:
            return (m.unit,)
        sym = symbols[t.sym]
        if len(t.args) != sym.arity:
            raise ValueError(
                f"{t.sym} has arity {sym.arity}, got {len(t.args)} children"
            )
        acc = sym.image.letters
        for j in range(len(t.args), 0, -1):
            acc = splice(acc, j, go(t.args[j - 1]), m.op)
        return acc

    return Word(m, go(t))


def _require_branching(symbols: Mapping[str, GeneratorSymbol]) -> None:
    # with a symbol of arity below 2 a term can contain subterms of its own
    # arity, so no enumeration or count by arity would terminate
    for name, sym in symbols.items():
        if sym.arity < 2:
            raise ValueError(f"symbol {name} has arity {sym.arity}; terms need arity >= 2")


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
    """The compositions of n into k parts, in lexicographic order."""
    for cuts in itertools.combinations(range(1, n), k - 1):
        yield tuple(map(operator.sub, cuts + (n,), (0,) + cuts))


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


def _key(symbols: Mapping[str, GeneratorSymbol], relations: tuple[Relation, ...]) -> tuple:
    """The key of what a process keeps of a relation set over some symbols:
    the identity of the relations' tuple, which each entry holds so that no
    other tuple takes its id, and the symbols.  Hashing the relations would
    hash every term of both sides of each one on every call."""
    return id(relations), tuple(symbols.items())


def verify_relations(
    relations: tuple[Relation, ...], symbols: Mapping[str, GeneratorSymbol]
) -> list[RelationCheck]:
    """Evaluate both sides of every relation in the target operad, once per
    relation set and symbols in a process (`generation._kept`); each call
    returns a new list."""
    key = _key(symbols, relations)
    kept = _recall(key)
    if kept is None:  # held with the relations, whose id the key holds
        kept = relations, [
            RelationCheck(rel, eval_term(rel.left, symbols), eval_term(rel.right, symbols))
            for rel in relations
        ]
        # 290-325 bytes a symbol node with its share of the relation, check and
        # words, over the presets (tracemalloc); a parsed leaf is the one `LEAF`
        _keep(key, kept, 300 * sum(_nodes(r.left) + _nodes(r.right) for r in relations))
    return list(kept[1])


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
    in either direction; subterms in preorder, the root first."""

    def go(sub: Term) -> Iterator[Term]:
        for rel in relations:
            for pat, out in ((rel.left, rel.right), (rel.right, rel.left)):
                slots = match_slots(pat, sub)
                if slots is not None:
                    yield instantiate(out, slots)
        for idx, arg in enumerate(sub.args):
            for new in go(arg):
                yield Term(sub.sym, sub.args[:idx] + (new,) + sub.args[idx + 1 :])

    return go(t)


# the most nodes and root edges a congruence count may build over all arities
MAX_NODES = 500_000
MAX_EDGES = 2_000_000


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

    Works arity by arity over nodes `(symbol, c1, ..., ck)`: a symbol applied
    to a composition of n whose parts are filled with the class ids already
    found at smaller arities; the leaf is class 0.  For each relation, each
    composition of n into its leaves and each assignment of classes of those
    arities to them, a union-find joins the nodes the two sides build from
    it, each inner node of a side replaced by the class of the node it builds.
    An arity's count is its nodes less the merges of its union-find.

    This is exact, with no orientation or confluence assumption.  Give each
    leaf a term of its class: the sides become terms one root rewrite apart
    whose nodes are the two built nodes, and every root rewrite, in either
    direction, arises so from the classes of the subterms its leaves capture.
    A rewrite below the root keeps each child in its class, so the node stays
    the same, and terms with one node are congruent child by child.  By
    induction on arity, the components are the congruence classes.

    Each relation set is counted once per process under each pair of guards
    (`generation._kept`, by `_key`, `MAX_NODES` and `MAX_EDGES`): a bound at
    or below its kept arities reads their counts, and a deeper bound counts
    only the missing arities, each kept as soon as it is finished.  Only a
    later arity's nodes read class ids, so an arity's nodes get theirs once
    the guards let the next arity be built.  Until then only its union-find
    is kept; a later call that needs its class ids lists its nodes again from
    the class ids below it, rather than hold a dict of them between calls.

    Before each arity, its nodes and edges are counted from the class counts
    below it; a `SizeError` is raised before an arity that would take the
    nodes of all arities past `MAX_NODES` or their edges past `MAX_EDGES`.
    Both guards are read at each call; a kept arity has passed the guards
    it is kept under, so it is refused where a fresh count would be.
    """
    key = _key(symbols, relations), MAX_NODES, MAX_EDGES
    count = _recall(key)
    top = 0 if count is None else len(count.classes)
    count = count or _Count(symbols, relations)
    max_arity = max(max_arity, 0)  # a bound below 0 counts no arity, as 0 does
    try:
        count.extend(max_arity)
    finally:
        if len(count.classes) > top:  # made or grown: about 100 bytes a node with a
            # class id, 36 a pending union-find slot (tracemalloc: schr@8, motz@12)
            _keep(key, count, 100 * len(count.class_of) + 36 * len(count.pending or ()))
    return tuple(map(len, count.classes[1 : max_arity + 1]))


class _Count:
    """What is kept of one relation set's congruence count under one pair of
    guards between calls: the symbols' arities and the relations' sides,
    each a leaf count and the builders of its two `_plan`s; `class_of`, the
    class id of each node of the arities below the top; the class ids by
    arity; the nodes and edges built through the top arity; and the top
    arity's union-find, pending until a deeper arity needs its nodes' class
    ids."""

    def __init__(
        self, symbols: Mapping[str, GeneratorSymbol], relations: tuple[Relation, ...]
    ) -> None:
        _require_branching(symbols)
        self.relations = relations  # holds the tuple whose id keys the entry
        self.arities = {name: symbols[name].arity for name in sorted(symbols)}
        self.class_of: dict[tuple, int] = {}
        self.sides = []
        for rel in relations:
            (leaf_count, uses, left), (_, right_uses, right) = _plan(rel.left), _plan(rel.right)
            for sym, k in uses + right_uses:
                if sym not in self.arities:
                    raise ValueError(f"relation uses unknown symbol {sym!r}")
                if k != self.arities[sym]:
                    raise ValueError(f"{sym} has arity {self.arities[sym]}, got {k} children")
            if not rel.left.is_leaf:
                self.sides.append(
                    (leaf_count, _builder(left, self.class_of), _builder(right, self.class_of))
                )
        self.leaf_counts = set(self.arities.values()) | {k for k, _, _ in self.sides}
        self.classes = [range(0), range(1)]  # class ids by arity
        self.built = self.edges = 0  # nodes and edges through the top arity
        self.pending: list[int] | None = None  # the top arity's union-find

    def extend(self, max_arity: int) -> None:
        """Count each arity from the first one not kept through `max_arity`,
        each once the guards allow it."""
        index = None  # the nodes of the arity last counted by this call
        for n in range(len(self.classes), max_arity + 1):
            pools = self.pools(n)
            assignments = {k: sum(math.prod(map(len, pool)) for pool in pools[k]) for k in pools}
            built = self.built + sum(assignments[k] for k in self.arities.values())
            edges = self.edges + sum(assignments[k] for k, _, _ in self.sides)
            if built > MAX_NODES:
                raise SizeError(f"{built} nodes through arity {n} exceed the {MAX_NODES} guard")
            if edges > MAX_EDGES:
                raise SizeError(f"{edges} edges through arity {n} exceed the {MAX_EDGES} guard")
            if self.pending is not None:
                # arity n - 1: this call's last one frees its nodes before n's
                # are built; an earlier call's top one has them listed again
                if index is None:
                    self.assign(zip(self.nodes(self.pools(n - 1)), itertools.count()))
                else:
                    self.assign(index.items())
                    index = None
            index = dict(zip(self.nodes(pools), itertools.count()))
            parent = list(range(len(index)))
            merges = 0
            node = index.__getitem__
            for k, left, right in self.sides:
                for pool in pools[k]:
                    for a, b in zip(map(node, left(pool)), map(node, right(pool))):
                        # a union by path halving, inline: three calls an edge cost more
                        while parent[a] != a:
                            parent[a] = a = parent[parent[a]]
                        while parent[b] != b:
                            parent[b] = b = parent[parent[b]]
                        if a != b:
                            parent[b] = a
                            merges += 1
            first = self.classes[-1].stop
            self.classes.append(range(first, first + len(index) - merges))
            self.built, self.edges = built, edges
            self.pending = parent

    def pools(self, n: int) -> dict[int, list[list[range]]]:
        """Per leaf count, the class lists of each composition of n into it."""
        return {
            k: [[self.classes[p] for p in parts] for parts in _compositions(n, k)]
            for k in self.leaf_counts
        }

    def nodes(self, pools: dict[int, list[list[range]]]) -> Iterator[tuple]:
        """The nodes of one arity from its pools, in the order of their indices
        in its union-find."""
        return itertools.chain.from_iterable(
            map((name,).__add__, itertools.product(*pool))
            for name, k in self.arities.items()
            for pool in pools[k]
        )

    def assign(self, indexed: Iterable[tuple[tuple, int]]) -> None:
        """Give the pending top arity's nodes, each with its index in the
        union-find, their class ids, numbered in the order their roots are
        first met."""
        parent = self.pending
        first = self.classes[-1].start
        class_of = self.class_of
        roots: dict[int, int] = {}
        for nd, i in indexed:
            while parent[i] != i:
                parent[i] = i = parent[parent[i]]
            class_of[nd] = roots.setdefault(i, first + len(roots))
        self.pending = None


def _plan(
    pattern: Term,
) -> tuple[int, tuple[tuple[str, int], ...], tuple[tuple[tuple, tuple[int, ...]], ...]]:
    """A pattern compiled for the builders: its leaf count; the symbol and
    child count of each inner node, parents first; and per inner node,
    children first, its head `(symbol,)` and the positions of its children's
    lists, where the leaves' lists come first, then one per inner node."""
    leaves = itertools.count()
    uses: list[tuple[str, int]] = []
    steps: list[tuple[tuple, list[int]]] = []

    def place(p: Term) -> int:
        """A leaf's index, or minus the 1-based step of an inner node."""
        if p.is_leaf:
            return next(leaves)
        uses.append((p.sym, len(p.args)))
        kids = [place(a) for a in p.args]
        steps.append(((p.sym,), kids))
        return -len(steps)

    place(pattern)
    leaf_count = next(leaves)
    return leaf_count, tuple(uses), tuple(
        (head, tuple(i if i >= 0 else leaf_count - 1 - i for i in kids)) for head, kids in steps
    )


def _builder(
    steps: tuple[tuple[tuple, tuple[int, ...]], ...], class_of: Mapping[tuple, int]
) -> Callable[[list[range]], Iterator[tuple]]:
    """A function from one list of classes per leaf, left to right, to the
    node `(symbol, c1, ..., ck)` the pattern of these `_plan` steps builds
    from each leaf assignment, in lexicographic order of the assignments; an
    inner node's class is looked up once per assignment of its own leaves."""
    *inner, (head, get) = [(sym, operator.itemgetter(*kids)) for sym, kids in steps]

    def build(pools: list[range]) -> Iterator[tuple]:
        # an inner node holds a run of leaves, so each product over a node's
        # children keeps the lexicographic order of the assignments
        lists = list(pools)
        for sym, kids in inner:
            nodes = map(sym.__add__, itertools.product(*kids(lists)))
            lists.append(list(map(class_of.__getitem__, nodes)))
        return map(head.__add__, itertools.product(*get(lists)))

    return build


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
