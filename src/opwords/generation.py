"""Suboperad generation by closure under substitution.

Every word but the unit of the suboperad generated by a set G is x o_i g
for an earlier member x and some g in G, so the closure is a frontier
search: start from the unit word and splice each generator into each
position of each word found, as long as the result fits the arity bound.
It is complete because x o_i (y o_j g) = (x o_i y) o_{i+j-1} g and arities
never shrink, so induction on y shows the result closed under every
substitution, truncation included.

When the symmetric flag is set, the search runs over sorted words, one per
orbit of the letter-permuting action.  The monoids are commutative, so the
letters of x o_i g, as a multiset, depend only on the multisets of x and g
and on the letter x_i; splicing at equal letters of a sorted word is done
once.  The family keeps those sorted words, one per orbit: its dimensions
are sums of multinomials, and an orbit is expanded into its distinct
rearrangements, built from the letter counts, only where a caller asks for
words.  Its words are listed one first letter at a time: the words that
start with a are a followed by the rearrangements of each orbit word that
holds a, less one a, and distinct orbit words leave distinct rests, so no
word repeats.

An export is written as it is formatted, arity by arity and a few thousand
words at a time, so it costs one such chunk and one first-letter group of
an arity over the family itself.

A word is packed as `bytes`, one letter per byte, from the search to the
export: x o_i g is three C-level slices, x[:i-1], the block of g with every
letter multiplied by x_i (built once per generator and letter), and x[i:],
and `GradedFamily` keeps the packed words.  Tuples are built only where a
caller asks for words.  Within one arity, `bytes` order is tuple order.  A
letter above 255 cannot be packed and is refused with `ValueError`.
"""
from __future__ import annotations

import bisect
import io
import itertools
import json
import math
from collections import deque
from dataclasses import dataclass
from typing import Iterator, TextIO

from .monoids import Monoid, Morphism
from .words import Letters

__all__ = [
    "GeneratorSet",
    "GradedFamily",
    "ComparisonVerdict",
    "generate_closure",
    "equals_predicate",
    "quotient_image",
]


@dataclass(frozen=True)
class GeneratorSet:
    """A finite set of generating words over one monoid."""

    monoid: Monoid
    generators: tuple[Letters, ...]
    symmetric: bool = False

    def __post_init__(self) -> None:
        if not self.generators:
            raise ValueError("at least one generator is required")
        gens = tuple(tuple(g) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        for g in gens:
            if not g:
                raise ValueError("generators are nonempty words")
            for a in g:
                self.monoid.check(a)

    def check_bound(self, max_arity: int) -> None:
        """Refuse an arity bound below the largest generator arity."""
        top = max(map(len, self.generators))
        if max_arity < top:
            raise ValueError(
                f"arity bound {max_arity} is below the largest generator arity {top}"
            )


@dataclass
class GradedFamily:
    """Arity-indexed finite sets of canonical words, an arity-truncated closure.

    Each word is kept packed as `bytes`, one letter per byte.  A symmetric
    family keeps one sorted word per orbit of the letter-permuting action,
    and its orbits are expanded only where words are asked for.
    """

    monoid: Monoid
    max_arity: int
    by_arity: dict[int, frozenset[bytes]]
    symmetric: bool = False

    def _sorted_runs(self, n: int) -> Iterator[list[bytes]]:
        """The packed words of arity n in increasing order, in consecutive
        runs: the whole arity, or one run per first letter when symmetric."""
        words = self.by_arity.get(n, ())
        if not self.symmetric:
            yield sorted(words)
            return
        for a in sorted(set(b"".join(words))):
            first = bytes([a])
            memo: dict[bytes, list[bytes]] = {}
            run = []
            for w in words:
                i = w.find(first)
                if i >= 0:
                    rest = w[:i] + w[i + 1 :]
                    run += map(first.__add__, _arrangements(rest, memo))
                    del memo[rest]  # no other orbit word leaves this rest
            run.sort()
            yield run

    def arity_set(self, n: int) -> frozenset[Letters]:
        return frozenset(self.words(n))

    def contains(self, letters: Letters) -> bool:
        try:
            packed = bytes(sorted(letters) if self.symmetric else letters)
        except ValueError:  # a letter outside 0..255 is in no closure
            return False
        return packed in self.by_arity.get(len(packed), ())

    def words(self, n: int) -> list[Letters]:
        return list(map(tuple, itertools.chain.from_iterable(self._sorted_runs(n))))

    def iter_all(self) -> Iterator[Letters]:
        for n in range(1, self.max_arity + 1):
            yield from self.words(n)

    def dimensions(self) -> tuple[int, ...]:
        sets = [self.by_arity.get(n, ()) for n in range(1, self.max_arity + 1)]
        if self.symmetric:
            return tuple(sum(map(_orbit_size, s)) for s in sets)
        return tuple(map(len, sets))

    def truncate(self, max_arity: int) -> "GradedFamily":
        if max_arity > self.max_arity:
            raise ValueError("cannot truncate upward")
        kept = {n: s for n, s in self.by_arity.items() if n <= max_arity}
        return GradedFamily(self.monoid, max_arity, kept, self.symmetric)

    def write_jsonl(self, handle: TextIO) -> None:
        """Write one `Word.to_record` line per word, ordered by arity then
        word, to the open text handle, `_CHUNK` words at a time.

        Each distinct letter is checked against the carrier once, before
        anything is written; an orbit holds the letters of its sorted word.
        Each line is formatted directly, through one table of letter texts,
        instead of through `json.dumps`.
        """
        arities = range(1, self.max_arity + 1)
        # each chunk of words adds the letters it holds that are not yet
        # seen: deleting the seen ones is one C-level pass over its bytes
        seen = b""
        for n in arities:
            words = list(self.by_arity.get(n, ()))
            for start in range(0, len(words), _CHUNK):
                joined = b"".join(words[start : start + _CHUNK])
                seen += bytes(set(joined.translate(None, seen)))
        for a in seen:
            self.monoid.check(a)
        head = '{"monoid": ' + json.dumps(self.monoid.name) + ', "letters": ['
        between = "]}\n" + head
        for n in arities:
            for run in self._sorted_runs(n):
                for start in range(0, len(run), _CHUNK):
                    # a word read as latin-1 text has one character per
                    # letter, which translates to "<letter>, "; the last ", "
                    # is cut
                    texts = [
                        w.decode("latin-1").translate(_LETTER_TEXT)[:-2]
                        for w in run[start : start + _CHUNK]
                    ]
                    handle.write(head + between.join(texts) + "]}\n")

    def to_jsonl(self) -> str:
        """The text that `write_jsonl` writes."""
        text = io.StringIO()
        self.write_jsonl(text)
        return text.getvalue()


# words formatted and written at a time by `write_jsonl`
_CHUNK = 4096
_LETTER_TEXT = tuple(f"{a}, " for a in range(256))


def generate_closure(gens: GeneratorSet, max_arity: int) -> GradedFamily:
    """Smallest family containing the unit and the generators, closed under
    substitution (and under letter permutation when symmetric), truncated to
    the arity bound.  A symmetric closure keeps one sorted word per orbit.

    Raises `ValueError` when a word of the closure would hold a letter above
    255, which cannot be packed into `bytes`.
    """
    m = gens.monoid
    gens.check_bound(max_arity)
    for g in gens.generators:
        if len(g) == 1 and g[0] != m.unit and not m.is_finite:
            raise ValueError(
                f"arity-1 generator {g[0]} over {m.name} is not the unit, so "
                "the closure has infinitely many words of arity 1"
            )
    op = m.op
    symmetric = gens.symmetric
    # sorted by length, so the generators that fit a word are a prefix;
    # blocks[a][k] is generator k with every letter multiplied by a, packed
    generators = sorted(gens.generators, key=len)
    lengths = [len(g) for g in generators]
    blocks: dict[int, list[bytes]] = {}

    def blocks_for(a: int) -> list[bytes]:
        scaled = [[op(a, c) for c in g] for g in generators]
        big = max(map(max, scaled))
        if big > 255:
            raise ValueError(
                f"letter {big} over {m.name} is above 255 and cannot be "
                "packed into a closure word"
            )
        blocks[a] = row = list(map(bytes, scaled))
        return row

    found = {bytes([m.unit])}
    queue = deque(found)
    while queue:
        x = queue.popleft()
        fitting = bisect.bisect_right(lengths, max_arity - len(x) + 1)
        if not fitting:
            continue
        previous = -1
        for i, a in enumerate(x):
            if symmetric and a == previous:
                continue  # same multiset as splicing at the previous slot
            previous = a
            row = blocks.get(a) or blocks_for(a)
            head, tail = x[:i], x[i + 1 :]
            for block in row[:fitting]:
                w = head + block + tail
                if symmetric:
                    w = bytes(sorted(w))
                if w not in found:
                    found.add(w)
                    queue.append(w)

    buckets: dict[int, list[bytes]] = {n: [] for n in range(1, max_arity + 1)}
    for w in found:
        buckets[len(w)].append(w)
    del found
    by_arity = {n: frozenset(buckets.pop(n)) for n in range(1, max_arity + 1)}
    return GradedFamily(m, max_arity, by_arity, symmetric)


def _arrangements(w: bytes, memo: dict[bytes, list[bytes]]) -> list[bytes]:
    """The distinct rearrangements of the sorted word `w`.

    Each is a distinct first letter followed by a rearrangement of the rest,
    which stays sorted and is kept in `memo` (Knuth, TAOCP 4A, 7.2.1.2), so
    the work is the number of rearrangements, the multinomial, not n!.
    """
    found = memo.get(w)
    if found is None:
        if len(w) <= 1:
            found = [w]
        else:
            found = []
            previous = -1
            for i, a in enumerate(w):
                if a != previous:
                    previous = a
                    rest = _arrangements(w[:i] + w[i + 1 :], memo)
                    found += map(w[i : i + 1].__add__, rest)
        memo[w] = found
    return found


def _orbit_size(w: bytes) -> int:
    """The number of distinct rearrangements of `w`, a multinomial."""
    return math.factorial(len(w)) // math.prod(math.factorial(w.count(a)) for a in set(w))


@dataclass(frozen=True)
class ComparisonVerdict:
    """Result of comparing a generated family with an expected one."""

    ok: bool
    arity: int | None = None
    missing: Letters | None = None  # expected, absent from the family
    extra: Letters | None = None  # in the family, not expected
    detail: str = ""

    def __str__(self) -> str:
        if self.ok:
            return "equal"
        parts = [f"mismatch at arity {self.arity}"]
        if self.missing is not None:
            parts.append(f"missing {self.missing}")
        if self.extra is not None:
            parts.append(f"extra {self.extra}")
        if self.detail:
            parts.append(self.detail)
        return "; ".join(parts)


def equals_predicate(family: GradedFamily, expected: GradedFamily) -> ComparisonVerdict:
    """Compare the family, arity by arity, with the expected family, such as
    a predicate's enumeration (`Family.enumerated`).  Symmetric families are
    compared by sorted words, one per orbit; the least word of a union of
    orbits is sorted, so the witnesses are the least words of the difference.
    Families over different monoids, or of which one only is symmetric,
    are not compared."""
    if family.monoid != expected.monoid:
        return ComparisonVerdict(
            False, detail=f"monoid mismatch: {family.monoid} vs {expected.monoid}"
        )
    if family.symmetric != expected.symmetric:
        return ComparisonVerdict(
            False, detail=f"symmetry mismatch: {family.symmetric} vs {expected.symmetric}"
        )
    for n in range(1, max(family.max_arity, expected.max_arity) + 1):
        want = expected.by_arity.get(n, frozenset())
        got = family.by_arity.get(n, frozenset())
        if got != want:
            missing = want - got
            extra = got - want
            return ComparisonVerdict(
                False,
                arity=n,
                missing=tuple(min(missing)) if missing else None,
                extra=tuple(min(extra)) if extra else None,
            )
    return ComparisonVerdict(True)


def quotient_image(family: GradedFamily, theta: Morphism) -> GradedFamily:
    """Letterwise image of every word under a monoid morphism, deduplicated.

    Each distinct letter of the family goes through `theta`, and so through
    its carrier check, once; the words are mapped through one
    `bytes.translate` table.  An image letter above 255 cannot be packed and
    is refused with `ValueError`.  The image of an orbit is an orbit, but a
    morphism such as mod 2 need not keep a word sorted, so a symmetric
    family's image words are sorted again.
    """
    if family.monoid != theta.source:
        raise ValueError(
            f"family over {family.monoid.name}, morphism from {theta.source.name}"
        )
    packed = [family.by_arity.get(n, ()) for n in range(1, family.max_arity + 1)]
    table = bytearray(256)
    for a in set().union(*map(b"".join, packed)):
        b = theta(a)
        if b > 255:
            raise ValueError(
                f"letter {b} over {theta.target.name} is above 255 and cannot be "
                "packed into a closure word"
            )
        table[a] = b
    image = {}
    for n, words in enumerate(packed, 1):
        mapped = (w.translate(table) for w in words)
        if family.symmetric:
            mapped = (bytes(sorted(w)) for w in mapped)
        image[n] = frozenset(mapped)
    return GradedFamily(theta.target, family.max_arity, image, family.symmetric)
