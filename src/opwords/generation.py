"""Suboperad generation by closure under substitution.

Every word but the unit of the suboperad generated by a set G is x o_i g
for a member x and some g in G, where x has smaller arity than the word, or
the same arity when |g| = 1.  So the closure is built a level at a time: the
words of arity n are spliced from the finished levels n - |g| + 1 with every
generator longer than 1, at every slot, and then the arity-1 generators
(allowed only over finite monoids) close the level in itself by a frontier
loop.  It is complete because x o_i (y o_j g) = (x o_i y) o_{i+j-1} g and
arities never shrink, so induction on y shows the result closed under every
substitution, truncation included.

A word is packed as `bytes`, one letter per byte, and a finished level is
joined into one block in increasing order, n bytes a word: the storage
behind `GradedFamily`.  A level's words are gathered in one set, which
drops repeats; the set is turned into a list and dropped, and the list is
sorted and joined, all before the next level is spliced.  Within one arity,
`bytes` order is tuple order, so every block is in tuple order from the
moment it is made, and no read sorts or rewrites it.  A level is spliced
from its source's block with the generators of one length by columns,
through the axiom checker's kernel (`words._kernel`), every slot of a slice
in one call, in slices of its words that each lay at most `_SPLICE_BYTES`;
a level of at most `_SMALL_LEVEL` words, or whose slices would hold at most
that many, is spliced word by word.  A letter above 255 cannot be packed, and is refused
with `ValueError` exactly when a word of the closure would hold it; the
source's letters are checked in increasing order, so the letter named does
not depend on the order of its words.

The truncation of a closure at arity n is the first n levels of any deeper
one, so each generator set is closed once per process under each candidate
guard: `_kept`, the process's one registry of results, which drops those
used least recently past `_KEPT_BYTES`, keeps the scaled generators over one
kernel, each finished level's block and the candidates spliced so far.
Every kept level has passed the guard it is kept under, so a bound at or
below the kept levels is served from their blocks; a deeper bound splices
only the missing levels, which are kept once the whole call succeeds, so a
refused call keeps nothing.

When the symmetric flag is set, the closure runs over sorted words, one per
orbit of the letter-permuting action.  The letters of x o_i g, as a
multiset, depend only on the multisets of x and g and on the letter x_i, so
a sorted word is spliced once per distinct letter.  The family keeps those
sorted words, one per orbit: its dimensions are sums of multinomials, and
an orbit is expanded into its distinct rearrangements, built from the
letter counts, only where a caller asks for words.  Its words are listed one pair of first two letters at a time: the
words that start with ab are ab followed by the rearrangements of each orbit
word that holds a and b, less one of each, and distinct orbit words leave
distinct rests, so no word repeats.

An export is written as it is laid, arity by arity and a few thousand words
at a time, each chunk a slice of a sorted block.  A chunk is laid by columns:
its lines are copies of one byte template with a fixed-width digit cell per
letter, each letter column writes its hundreds, tens and ones digits into
the cells through three 256-byte tables that give NUL for a leading zero,
and one `translate` deletes the NULs.
"""
from __future__ import annotations

import io
import itertools
import json
import math
import operator
import struct
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, TextIO

from .monoids import Monoid, Morphism
from .words import Block, Letters, _kernel

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


class GradedFamily:
    """Arity-indexed finite sets of canonical words, an arity-truncated closure.

    The words of arity n are packed one letter per byte into one block, n
    bytes a word, in increasing order, shared with the closure or
    enumeration that keeps it, so an ordered read (`words`, `write_jsonl`,
    `==`, `equals_predicate`) reads the block as it is and changes nothing
    kept.  `by_arity` is a read-only view of the levels as sets of `bytes`,
    built when first read.  A symmetric family keeps one sorted word per
    orbit, and its orbits are expanded only where words are asked for.
    """

    def __init__(
        self,
        monoid: Monoid,
        max_arity: int,
        by_arity: Mapping[int, Iterable[bytes]],
        symmetric: bool = False,
    ) -> None:
        """The family of the packed words of each arity, in any order and
        with repeats (`_packed`)."""
        self.monoid, self.max_arity, self.symmetric = monoid, max_arity, symmetric
        self._blocks = [_packed(by_arity.get(n, ())) for n in range(1, max_arity + 1)]
        self._sets: dict[int, frozenset[bytes]] = {}

    @classmethod
    def _of(cls, monoid: Monoid, max_arity: int, blocks: list[bytes],
            symmetric: bool) -> "GradedFamily":
        """The family read from `blocks`, one sorted block per arity, arity
        n at index n - 1, of which it reads the first `max_arity`."""
        family = cls(monoid, 0, {}, symmetric)
        family.max_arity, family._blocks = max_arity, blocks
        return family

    def _block(self, n: int) -> bytes:
        """The words of arity n in bytes order."""
        return self._blocks[n - 1] if 1 <= n <= self.max_arity else b""

    def _set(self, n: int) -> frozenset[bytes]:
        found = self._sets.get(n)
        if found is None:
            found = self._sets[n] = frozenset(_unpacked(self._block(n), n))
        return found

    @property
    def by_arity(self) -> Mapping[int, frozenset[bytes]]:
        """The packed words of each arity as sets, built when first read."""
        return MappingProxyType({n: self._set(n) for n in range(1, self.max_arity + 1)})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedFamily):
            return NotImplemented
        return (self.monoid, self.max_arity, self.symmetric) == (
            other.monoid, other.max_arity, other.symmetric
        ) and all(self._block(n) == other._block(n) for n in range(1, self.max_arity + 1))

    def _ordered(self, n: int) -> Iterable[bytes]:
        """The packed words of arity n in increasing order, as consecutive
        blocks: the whole arity, or one per `_sorted_runs` run."""
        if not self.symmetric or n == 1:
            return [self._block(n)]
        return map(_joined, self._sorted_runs(n))

    def _sorted_runs(self, n: int) -> Iterator[list[bytes]]:
        """The words of the symmetric arity n in increasing order, one run
        per first two letters."""
        words = list(_unpacked(self._block(n), n))
        for a in sorted(_letters(self._block(n))):
            rests = [w.replace(_BYTE[a], b"", 1) for w in words if a in w]
            for b in sorted(_letters(_joined(rests))):
                prefix = bytes((a, b))
                memo: dict[bytes, list[bytes]] = {}
                run = []
                for rest in rests:
                    if b in rest:
                        rest = rest.replace(_BYTE[b], b"", 1)
                        run += map(prefix.__add__, _arrangements(rest, memo))
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
        return 0 < len(packed) <= self.max_arity and packed in self._set(len(packed))

    def words(self, n: int) -> list[Letters]:
        if not 1 <= n <= self.max_arity:
            return []
        unpack = struct.Struct(f"{n}B").iter_unpack
        return list(itertools.chain.from_iterable(map(unpack, self._ordered(n))))

    def iter_all(self) -> Iterator[Letters]:
        for n in range(1, self.max_arity + 1):
            yield from self.words(n)

    def dimensions(self) -> tuple[int, ...]:
        arities = range(1, self.max_arity + 1)
        if self.symmetric:
            return tuple(sum(map(_orbit_size, _unpacked(self._block(n), n))) for n in arities)
        return tuple(len(self._block(n)) // n for n in arities)

    def truncate(self, max_arity: int) -> "GradedFamily":
        if max_arity > self.max_arity:
            raise ValueError("cannot truncate upward")
        return GradedFamily._of(self.monoid, max_arity, self._blocks, self.symmetric)

    def write_jsonl(self, handle: TextIO) -> None:
        """Write one `Word.to_record` line per word, ordered by arity then
        word, to the open text handle, `_CHUNK` words at a time.

        Each distinct letter is checked against the carrier once, in
        increasing order, before anything is written; an orbit holds the
        letters of its sorted word.  The lines are laid by columns instead
        of formatted one by one: every line of arity n fits one byte
        template, the head and n cells as wide as the largest letter's
        digits.  Each letter column of a chunk, a strided slice of a sorted
        block, writes its hundreds, tens and ones digits into the chunk's
        templates by strided assignment, through three 256-byte tables
        (`_DIGITS`) that give NUL for a leading zero.  One `translate` then
        deletes the NULs; `json.dumps` escapes control characters, so the
        head holds none.
        """
        seen = self._alphabet()
        for a in seen:
            self.monoid.check(a)
        digits = _DIGITS[-len(str(max(seen, default=0))) :]
        head = ('{"monoid": ' + json.dumps(self.monoid.name) + ', "letters": [').encode()
        cell = len(digits) + len(", ")
        for n in range(1, self.max_arity + 1):
            template = bytearray(head + b", ".join([bytes(len(digits))] * n) + b"]}\n")
            for block in self._ordered(n):
                for chunk in _chunks(block, n):
                    lines = template * (len(chunk) // n)
                    for j in range(n):
                        column = chunk[j::n]
                        for at, table in enumerate(digits, len(head) + j * cell):
                            lines[at :: len(template)] = column.translate(table)
                    handle.write(lines.translate(None, b"\0").decode("ascii"))

    def _alphabet(self) -> bytes:
        """The distinct letters of the words in increasing order, found
        `_CHUNK` words at a time, so no copy of a whole block is made; an
        orbit holds the letters of its sorted word."""
        found = b""
        for n in range(1, self.max_arity + 1):
            for chunk in _chunks(self._block(n), n):
                found += _letters(chunk.translate(None, found))
        return bytes(sorted(found))

    def to_jsonl(self) -> str:
        """The text that `write_jsonl` writes."""
        text = io.StringIO()
        self.write_jsonl(text)
        return text.getvalue()


# words laid and written at a time by `write_jsonl`
_CHUNK = 4096
# the hundreds, tens and ones digit of each letter, NUL for a leading zero
_DIGITS = tuple(bytes(ord(str(a).rjust(3, "\0")[d]) for a in range(256)) for d in range(3))


# the most candidates a closure may splice over all its levels: fcat1@14's
# 26,055,458 still close
MAX_CLOSURE_CANDIDATES = 3 * 10**7


def generate_closure(gens: GeneratorSet, max_arity: int) -> GradedFamily:
    """Smallest family containing the unit and the generators, closed under
    substitution (and under letter permutation when symmetric), truncated to
    the arity bound.  A symmetric closure keeps one sorted word per orbit.

    Each generator set is closed once per process under each guard (`_kept`,
    keyed by the set and `MAX_CLOSURE_CANDIDATES`): a bound at or below its
    kept levels is served from their blocks, and a deeper bound splices only
    the missing levels, kept once the whole call succeeds.  A level's set is
    turned into a list and dropped, and the list sorted and joined into the
    level's block (`_sort`), before the next level is spliced, so no set
    outlives the call and every block is in bytes order.

    Raises `ValueError` when a word of the closure would hold a letter above
    255, which cannot be packed into `bytes`, and before a splice would take
    its candidates, one per source word, slot and generator (a sorted word's
    arity bounds its slots), past `MAX_CLOSURE_CANDIDATES`, read at each
    call and part of the key, so a kept level is refused where a fresh
    closure would be.
    """
    m = gens.monoid
    gens.check_bound(max_arity)
    for g in gens.generators:
        if len(g) == 1 and g[0] != m.unit and not m.is_finite:
            raise ValueError(
                f"arity-1 generator {g[0]} over {m.name} is not the unit, so "
                "the closure has infinitely many words of arity 1"
            )
    key = gens, MAX_CLOSURE_CANDIDATES
    closure = _recall(key) or _Closure(gens)
    blocks = closure.blocks[:max_arity]
    candidates = closure.candidates

    def spliced(W: Block, scaled: _Scaled) -> Iterable[bytes]:
        """`_spliced` of the block W, once its candidates are counted."""
        nonlocal candidates
        candidates += len(W[0]) * len(scaled.generators)
        if candidates > MAX_CLOSURE_CANDIDATES:
            raise ValueError(f"{candidates} candidates through arity {n} exceed "
                             f"the {MAX_CLOSURE_CANDIDATES} guard")
        return _spliced(W, scaled, gens.symmetric)

    unary, longer = closure.unary, closure.longer
    for n in range(len(blocks) + 1, max_arity + 1):
        if n == 1:
            level = {bytes([m.unit])}
        else:
            level = set(
                itertools.chain.from_iterable(
                    [spliced((blocks[n - r], n - r + 1), row) for r, row in longer if r <= n]
                )
            )
        if unary is not None:  # arity-1 generators close each level in itself
            frontier = level
            while frontier:
                frontier = set(spliced((_joined(frontier), n), unary))
                frontier -= level
                level |= frontier
        level = list(level)  # the set released before the words are sorted
        blocks.append(_sort(level))
        del level  # released before the next level is spliced
    if len(blocks) > len(closure.blocks):  # kept only now that every new level is finished
        closure.blocks, closure.candidates = blocks, candidates
        _keep(key, closure, sum(map(len, blocks)))
    return GradedFamily._of(m, max_arity, closure.blocks, gens.symmetric)


class _Closure:
    """What is kept of one generator set's closure under one candidate guard
    between calls: its `_Scaled` tables over one kernel, so one set of
    product tables; its finished levels, every one within the guard; and the
    candidates spliced to build them."""

    def __init__(self, gens: GeneratorSet) -> None:
        m = gens.monoid
        by_length: dict[int, list[Letters]] = {}
        for g in set(gens.generators):
            if g != (m.unit,):  # splicing the unit changes no word
                by_length.setdefault(len(g), []).append(g)
        compose = _kernel(m)
        self.unary = _Scaled(m, by_length.pop(1), compose) if 1 in by_length else None
        self.longer = [(r, _Scaled(m, same, compose)) for r, same in by_length.items()]
        self.blocks: list[bytes] = []
        self.candidates = 0


class _Kept(dict):
    """Each key's `(entry, bytes it states)`, least recently used first, and `total` bytes."""

    total = 0

    def clear(self) -> None:
        super().clear()
        self.total = 0


_kept = _Kept()
# the most bytes the kept entries may state: fcat1@14's 50,469,889 bytes of blocks fit
_KEPT_BYTES = 1 << 26


def _recall(key: object) -> object | None:
    """The entry kept under the key, moved last, or None."""
    found = _kept.pop(key, None)
    if found:
        _kept[key] = found
    return found and found[0]


def _keep(key: object, entry: object, size: int) -> None:
    """Keep the entry, made or grown to `size` bytes, last under the key; drop the
    oldest past `_KEPT_BYTES`, or the key's entry if it alone passes it."""
    _kept.total -= _kept.pop(key, (None, 0))[1]
    if size <= _KEPT_BYTES:
        _kept[key] = entry, size
        _kept.total += size
        while _kept.total > _KEPT_BYTES:
            _kept.total -= _kept.pop(next(iter(_kept)))[1]


class _Scaled(dict):
    """The generators of one length scaled by each letter: `self[a]` is each
    generator with every letter multiplied by a, packed, built when a level
    holding a is first spliced with them.  So a letter above 255 is refused
    exactly when a word of the closure would hold it.  `compose` is the
    closure's column kernel (`words._kernel`)."""

    def __init__(self, monoid: Monoid, generators: list[Letters], compose: Callable) -> None:
        super().__init__()
        self.monoid = monoid
        self.generators = generators
        self.compose = compose

    def __missing__(self, a: int) -> list[bytes]:
        op = self.monoid.op
        try:
            row = [bytes(map(op, itertools.repeat(a), g)) for g in self.generators]
        except ValueError:  # a product above 255
            big = max(op(a, c) for g in self.generators for c in g)
            raise ValueError(
                f"letter {big} over {self.monoid.name} is above 255 and cannot "
                "be packed into a closure word"
            ) from None
        self[a] = row
        return row


# a source level of at most this many words, or whose slices would hold at
# most this many, is spliced word by word: below it, laying columns costs
# more in set-up than it saves (through `words._kernel`, the two tie at 16
# to 24 words for fcat1, schr, motz and prt levels on the 2-vCPU x86-64 VM,
# CPython 3.11)
_SMALL_LEVEL = 20
# the most bytes of candidate words one column splice lays at once; a larger
# level is spliced in slices of its words
_SPLICE_BYTES = 1 << 18
_BYTE = [bytes((a,)) for a in range(256)]
_FIRST = operator.itemgetter(0)


def _spliced(W: Block, scaled: _Scaled, symmetric: bool) -> Iterable[bytes]:
    """x o_i g for every word x of the block W, all of one arity m, every
    slot i and every generator g of `scaled`, all of one length r; sorted
    when symmetric.

    The distinct letters of W are checked through `scaled` first, in
    increasing order, so a refused letter does not depend on the order of
    the words.  A slice of the words is laid at every slot by one call of
    the column kernel `scaled.compose`.  Sorting costs more than columns
    save, so a symmetric word is spliced by itself, once per distinct
    letter: where the block goes does not change the sorted result.  So is
    each word of a small level, and of a level of long words whose slices
    would be small.
    """
    joined, m = W
    for a in sorted(_letters(joined)):
        scaled[a]  # refuses a product above 255
    words = _unpacked(joined, m)
    if symmetric:
        return [
            bytes(sorted(x.replace(_BYTE[a], b, 1)))
            for x in words
            for a in set(x)
            for b in scaled[a]
        ]
    if len(joined) > _SMALL_LEVEL * m:
        r = len(scaled.generators[0])
        n = m + r - 1
        step = max(1, _SPLICE_BYTES // (m * len(scaled.generators) * n))  # the words of one slice
        if step > _SMALL_LEVEL:
            # the generators scaled by the unit are the generators, packed
            gens = (b"".join(scaled[scaled.monoid.unit]), r)

            def lay(start: int) -> Iterator[bytes]:
                W = (joined[start : start + step * m], m)
                return _unpacked(scaled.compose(W, range(1, m + 1), gens, by_v=True)[0], n)

            return itertools.chain.from_iterable(map(lay, range(0, len(joined), step * m)))
    return (x[:i] + b + x[i + 1 :] for x in words for i, a in enumerate(x) for b in scaled[a])


def _joined(words: Iterable[bytes]) -> bytes:
    """The words joined into one `bytes`.  Joined by `b"".join`, a level
    would take a buffer view of about 80 bytes a word at once."""
    out = io.BytesIO()
    out.writelines(words)
    return out.getvalue()


def _unpacked(joined: bytes, n: int) -> Iterator[bytes]:
    """The words of arity n that `joined` holds, n bytes a word."""
    return map(_FIRST, struct.iter_unpack(f"{n}s", joined))


def _chunks(block: bytes, n: int) -> Iterator[bytes]:
    """The block of words of arity n, `_CHUNK` words at a time."""
    return (block[at : at + _CHUNK * n] for at in range(0, len(block), _CHUNK * n))


def _letters(joined: bytes) -> bytes:
    """The distinct letters of `joined`: each pass deletes, at C level, the
    letters found so far, and takes the set of a short prefix of the rest."""
    found = b""
    while joined:
        found += bytes(set(joined[:256]))
        joined = joined.translate(None, found)
    return found


def _sort(words: list[bytes]) -> bytes:
    """The words joined in increasing order, sorted in place."""
    words.sort()
    return _joined(words)


def _packed(words: Iterable[bytes]) -> bytes:
    """The distinct words joined in increasing order: as they come when
    they already increase, else sorted from their set."""
    words = list(words)
    if all(map(operator.lt, words, itertools.islice(words, 1, None))):
        return _joined(words)
    return _sort(list(set(words)))


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
    a predicate's enumeration (`Family.enumerated`): one `bytes` equality of
    their sorted blocks, and sets only to name the witnesses, the least
    words of the difference.  Symmetric families are compared by sorted
    words, one per orbit; the least word of a union of orbits is sorted.
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
        got, want = family._block(n), expected._block(n)
        if got != want:
            got, want = set(_unpacked(got, n)), set(_unpacked(want, n))
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
    its carrier check, once and in increasing order, so a refusal names the
    least letter refused.  Each level is read `_CHUNK` words at a time, and
    mapped by one `bytes.translate` of each slice of its block.  An image
    letter above 255 cannot be packed and is refused with `ValueError`.  The
    image of an orbit is an orbit, but a morphism such as mod 2 need not
    keep a word sorted, so a symmetric family's image words are sorted again.
    """
    if family.monoid != theta.source:
        raise ValueError(
            f"family over {family.monoid.name}, morphism from {theta.source.name}"
        )
    table = bytearray(256)
    for a in family._alphabet():
        b = theta(a)
        if b > 255:
            raise ValueError(
                f"letter {b} over {theta.target.name} is above 255 and cannot be "
                "packed into a closure word"
            )
        table[a] = b
    image = {}
    for n in range(1, family.max_arity + 1):
        mapped = itertools.chain.from_iterable(
            _unpacked(chunk.translate(table), n) for chunk in _chunks(family._block(n), n)
        )
        if family.symmetric:
            mapped = (bytes(sorted(w)) for w in mapped)
        image[n] = sorted(set(mapped))
    return GradedFamily(theta.target, family.max_arity, image, family.symmetric)
